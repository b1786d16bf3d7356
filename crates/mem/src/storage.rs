use serde::{Deserialize, Serialize};

use crate::{MemError, SplitMix64, Word};

/// Dense bit-level backing store for a word-oriented memory.
///
/// Bits are stored word-major: cell `(word, bit)` lives at linear index
/// `word * width + bit`. The store itself is fault-free; fault behaviour is
/// layered on top by [`crate::FaultyMemory`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BitStorage {
    blocks: Vec<u64>,
    words: usize,
    width: usize,
}

impl BitStorage {
    /// Creates an all-zero store for `words` words of `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyMemory`] if `words` is zero and
    /// [`MemError::InvalidWidth`] if the width is unsupported.
    pub fn new(words: usize, width: usize) -> Result<Self, MemError> {
        if words == 0 {
            return Err(MemError::EmptyMemory);
        }
        if width == 0 || width > crate::MAX_WORD_WIDTH {
            return Err(MemError::InvalidWidth { width });
        }
        let total_bits = words * width;
        let blocks = vec![0u64; total_bits.div_ceil(64)];
        Ok(Self {
            blocks,
            words,
            width,
        })
    }

    /// Number of words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total number of bits in the store.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.words * self.width
    }

    fn check_cell(&self, word: usize, bit: usize) -> Result<(), MemError> {
        if word >= self.words {
            return Err(MemError::AddressOutOfRange {
                address: word,
                words: self.words,
            });
        }
        if bit >= self.width {
            return Err(MemError::BitOutOfRange {
                bit,
                width: self.width,
            });
        }
        Ok(())
    }

    /// Reads a single bit.
    ///
    /// # Errors
    ///
    /// Returns an address or bit range error if the cell does not exist.
    #[inline]
    pub fn bit(&self, word: usize, bit: usize) -> Result<bool, MemError> {
        self.check_cell(word, bit)?;
        let index = word * self.width + bit;
        Ok((self.blocks[index / 64] >> (index % 64)) & 1 == 1)
    }

    /// Writes a single bit.
    ///
    /// # Errors
    ///
    /// Returns an address or bit range error if the cell does not exist.
    pub fn set_bit(&mut self, word: usize, bit: usize, value: bool) -> Result<(), MemError> {
        self.check_cell(word, bit)?;
        let index = word * self.width + bit;
        let block = &mut self.blocks[index / 64];
        if value {
            *block |= 1 << (index % 64);
        } else {
            *block &= !(1 << (index % 64));
        }
        Ok(())
    }

    /// Reads a full word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] if `word` does not exist.
    #[inline]
    pub fn word(&self, word: usize) -> Result<Word, MemError> {
        if word >= self.words {
            return Err(MemError::AddressOutOfRange {
                address: word,
                words: self.words,
            });
        }
        Word::from_bits(self.word_bits(word), self.width)
    }

    /// Raw bits of a word, assembled with block-masked `u64` operations
    /// instead of per-bit probing. A word of width ≤ 128 spans at most three
    /// consecutive blocks.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range; use [`BitStorage::word`] for a
    /// fallible variant.
    #[must_use]
    #[inline]
    pub fn word_bits(&self, word: usize) -> u128 {
        assert!(
            word < self.words,
            "word {word} out of range for {}-word store",
            self.words
        );
        let start = word * self.width;
        let mut bits = 0u128;
        let mut got = 0usize;
        let mut block = start / 64;
        let mut offset = start % 64;
        while got < self.width {
            let take = (64 - offset).min(self.width - got);
            let chunk = (self.blocks[block] >> offset) as u128 & mask128(take);
            bits |= chunk << got;
            got += take;
            block += 1;
            offset = 0;
        }
        bits
    }

    /// Overwrites the raw bits of a word with block-masked `u64` operations.
    /// Bits above the store width are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range; use [`BitStorage::set_word`] for a
    /// fallible variant.
    #[inline]
    pub fn set_word_bits(&mut self, word: usize, bits: u128) {
        assert!(
            word < self.words,
            "word {word} out of range for {}-word store",
            self.words
        );
        let start = word * self.width;
        let mut put = 0usize;
        let mut block = start / 64;
        let mut offset = start % 64;
        while put < self.width {
            let take = (64 - offset).min(self.width - put);
            let chunk = ((bits >> put) as u64) & mask64(take);
            let slot = &mut self.blocks[block];
            *slot = (*slot & !(mask64(take) << offset)) | (chunk << offset);
            put += take;
            block += 1;
            offset = 0;
        }
    }

    /// Writes a full word.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] for a bad address and
    /// [`MemError::WidthMismatch`] if the word width differs from the store
    /// width.
    pub fn set_word(&mut self, word: usize, value: Word) -> Result<(), MemError> {
        if word >= self.words {
            return Err(MemError::AddressOutOfRange {
                address: word,
                words: self.words,
            });
        }
        if value.width() != self.width {
            return Err(MemError::WidthMismatch {
                found: value.width(),
                expected: self.width,
            });
        }
        self.set_word_bits(word, value.to_bits());
        Ok(())
    }

    /// Copies the whole contents out as a vector of words.
    #[must_use]
    pub fn to_words(&self) -> Vec<Word> {
        (0..self.words)
            .map(|w| self.word(w).expect("word index in range"))
            .collect()
    }

    /// Fills every word with the same value.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] if the word width differs from the
    /// store width.
    pub fn fill(&mut self, value: Word) -> Result<(), MemError> {
        for w in 0..self.words {
            self.set_word(w, value)?;
        }
        Ok(())
    }

    /// Fills every word with deterministic pseudo-random bits from `seed`:
    /// word `w` takes the low `width` bits of the `w`-th draw of
    /// [`SplitMix64`]. This is the one pseudo-random content of the
    /// workspace — [`crate::FaultyMemory::fill_random`] fills through it.
    pub fn fill_random(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        for word in 0..self.words {
            self.set_word_bits(word, rng.next_u128());
        }
    }

    /// Overwrites this store's bits with another store's, block by block —
    /// a restore that is O(blocks) `u64` copies instead of O(words)
    /// word-rebuild operations, which is what makes shared-content restore
    /// cheap for fault-injection arenas.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LoadLengthMismatch`] /
    /// [`MemError::WidthMismatch`] if the shapes differ.
    pub fn copy_from(&mut self, other: &BitStorage) -> Result<(), MemError> {
        if other.words != self.words {
            return Err(MemError::LoadLengthMismatch {
                found: other.words,
                expected: self.words,
            });
        }
        if other.width != self.width {
            return Err(MemError::WidthMismatch {
                found: other.width,
                expected: self.width,
            });
        }
        self.blocks.copy_from_slice(&other.blocks);
        Ok(())
    }

    /// Loads the whole contents from a slice of words.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LoadLengthMismatch`] if the slice length differs
    /// from the number of words, or [`MemError::WidthMismatch`] for a width
    /// mismatch.
    pub fn load(&mut self, values: &[Word]) -> Result<(), MemError> {
        if values.len() != self.words {
            return Err(MemError::LoadLengthMismatch {
                found: values.len(),
                expected: self.words,
            });
        }
        for (w, value) in values.iter().enumerate() {
            self.set_word(w, *value)?;
        }
        Ok(())
    }
}

fn mask128(bits: usize) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

fn mask64(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_storage_is_all_zero() {
        let s = BitStorage::new(4, 8).unwrap();
        assert_eq!(s.total_bits(), 32);
        for w in 0..4 {
            assert!(s.word(w).unwrap().is_zero());
        }
    }

    #[test]
    fn rejects_empty_or_invalid_shapes() {
        assert_eq!(BitStorage::new(0, 8), Err(MemError::EmptyMemory));
        assert_eq!(
            BitStorage::new(4, 0),
            Err(MemError::InvalidWidth { width: 0 })
        );
        assert_eq!(
            BitStorage::new(4, 129),
            Err(MemError::InvalidWidth { width: 129 })
        );
    }

    #[test]
    fn word_round_trip() {
        let mut s = BitStorage::new(3, 8).unwrap();
        let v = Word::from_bits(0b1010_0110, 8).unwrap();
        s.set_word(1, v).unwrap();
        assert_eq!(s.word(1).unwrap(), v);
        assert!(s.word(0).unwrap().is_zero());
        assert!(s.word(2).unwrap().is_zero());
    }

    #[test]
    fn bit_round_trip_across_block_boundary() {
        // 3 words * 40 bits = 120 bits spans two u64 blocks.
        let mut s = BitStorage::new(3, 40).unwrap();
        s.set_bit(1, 30, true).unwrap();
        s.set_bit(2, 39, true).unwrap();
        assert!(s.bit(1, 30).unwrap());
        assert!(s.bit(2, 39).unwrap());
        assert!(!s.bit(1, 29).unwrap());
        s.set_bit(1, 30, false).unwrap();
        assert!(!s.bit(1, 30).unwrap());
    }

    #[test]
    fn out_of_range_access_is_rejected() {
        let s = BitStorage::new(2, 8).unwrap();
        assert!(matches!(
            s.bit(2, 0),
            Err(MemError::AddressOutOfRange { .. })
        ));
        assert!(matches!(s.bit(0, 8), Err(MemError::BitOutOfRange { .. })));
        assert!(matches!(s.word(5), Err(MemError::AddressOutOfRange { .. })));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn raw_word_read_out_of_range_panics() {
        // Address 5 of a 2x3 store still lands inside the first allocated
        // block, so without an explicit check it would silently misread
        // padding instead of panicking.
        let s = BitStorage::new(2, 3).unwrap();
        let _ = s.word_bits(5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn raw_word_write_out_of_range_panics() {
        let mut s = BitStorage::new(2, 3).unwrap();
        s.set_word_bits(5, 0b111);
    }

    #[test]
    fn set_word_rejects_width_mismatch() {
        let mut s = BitStorage::new(2, 8).unwrap();
        assert!(matches!(
            s.set_word(0, Word::zeros(4)),
            Err(MemError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn fill_and_load_round_trip() {
        let mut s = BitStorage::new(3, 4).unwrap();
        s.fill(Word::from_bits(0b0101, 4).unwrap()).unwrap();
        assert!(s.to_words().iter().all(|w| w.to_bits() == 0b0101));

        let new_contents = vec![
            Word::from_bits(0b0001, 4).unwrap(),
            Word::from_bits(0b0010, 4).unwrap(),
            Word::from_bits(0b0100, 4).unwrap(),
        ];
        s.load(&new_contents).unwrap();
        assert_eq!(s.to_words(), new_contents);

        assert!(matches!(
            s.load(&new_contents[..2]),
            Err(MemError::LoadLengthMismatch { .. })
        ));
    }

    #[test]
    fn block_masked_word_ops_agree_with_per_bit_ops() {
        // Odd widths make words straddle u64 block boundaries at varying
        // offsets; the block-masked path must agree with per-bit access for
        // every word and every bit.
        for width in [1usize, 3, 7, 13, 40, 63, 64, 65, 100, 127, 128] {
            let words = 9;
            let mut s = BitStorage::new(words, width).unwrap();
            let mut reference = vec![0u128; words];
            let mut state = 0x1234_5678_9ABC_DEF0u128;
            for (w, slot) in reference.iter_mut().enumerate() {
                state = state
                    .wrapping_mul(0x2545_F491_4F6C_DD1D)
                    .wrapping_add(w as u128);
                let value = state
                    & if width >= 128 {
                        u128::MAX
                    } else {
                        (1 << width) - 1
                    };
                s.set_word_bits(w, value);
                *slot = value;
            }
            for (w, &expected) in reference.iter().enumerate() {
                assert_eq!(s.word_bits(w), expected, "width {width}, word {w}");
                for b in 0..width {
                    assert_eq!(
                        s.bit(w, b).unwrap(),
                        (expected >> b) & 1 == 1,
                        "width {width}, word {w}, bit {b}"
                    );
                }
            }
            // Per-bit writes are observed by the block-masked reader too.
            s.set_bit(words - 1, width - 1, !s.bit(words - 1, width - 1).unwrap())
                .unwrap();
            assert_eq!(
                s.word_bits(words - 1) >> (width - 1) & 1 == 1,
                s.bit(words - 1, width - 1).unwrap()
            );
        }
    }

    #[test]
    fn copy_from_restores_content_and_rejects_shape_mismatch() {
        let mut source = BitStorage::new(3, 40).unwrap();
        source.set_word_bits(1, 0xAB_CDEF);
        let mut target = BitStorage::new(3, 40).unwrap();
        target.set_word_bits(0, 0xFF);
        target.copy_from(&source).unwrap();
        assert_eq!(target, source);

        let mut short = BitStorage::new(2, 40).unwrap();
        assert!(matches!(
            short.copy_from(&source),
            Err(MemError::LoadLengthMismatch { .. })
        ));
        let mut narrow = BitStorage::new(3, 20).unwrap();
        assert!(matches!(
            narrow.copy_from(&source),
            Err(MemError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn wide_words_round_trip() {
        let mut s = BitStorage::new(2, 128).unwrap();
        let v = Word::from_bits(u128::MAX - 12345, 128).unwrap();
        s.set_word(1, v).unwrap();
        assert_eq!(s.word(1).unwrap(), v);
    }
}
