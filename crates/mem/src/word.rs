use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

use serde::{Deserialize, Serialize};

use crate::MemError;

/// Maximum supported word width in bits.
///
/// Words are stored in a `u128`, so widths from 1 to 128 bits are supported,
/// which covers the word sizes evaluated in the paper (up to 128 bits,
/// Table 3).
pub const MAX_WORD_WIDTH: usize = 128;

/// A fixed-width word of memory data.
///
/// A [`Word`] couples a raw bit pattern with its width so that bitwise
/// operators, complements and formatting always stay confined to the
/// configured word size. Bit 0 is the least-significant bit.
///
/// ```
/// use twm_mem::Word;
///
/// # fn main() -> Result<(), twm_mem::MemError> {
/// let background = Word::from_bits(0b0101_0101, 8)?;
/// assert_eq!((!background).to_bits(), 0b1010_1010);
/// assert_eq!(background.bit(0), true);
/// assert_eq!(background.count_ones(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Word {
    bits: u128,
    width: u8,
}

impl Word {
    /// Creates a word from raw bits, masking to `width` bits.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidWidth`] if `width` is zero or greater than
    /// [`MAX_WORD_WIDTH`].
    #[inline]
    pub fn from_bits(bits: u128, width: usize) -> Result<Self, MemError> {
        if width == 0 || width > MAX_WORD_WIDTH {
            return Err(MemError::InvalidWidth { width });
        }
        Ok(Self {
            bits: bits & Self::mask_for(width),
            width: width as u8,
        })
    }

    /// Creates an all-zero word of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than [`MAX_WORD_WIDTH`]; use
    /// [`Word::from_bits`] for a fallible constructor.
    #[must_use]
    pub fn zeros(width: usize) -> Self {
        Self::from_bits(0, width).expect("valid word width")
    }

    /// Creates an all-one word of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero or greater than [`MAX_WORD_WIDTH`].
    #[must_use]
    pub fn ones(width: usize) -> Self {
        Self::from_bits(u128::MAX, width).expect("valid word width")
    }

    /// Creates a single-bit word (width 1) from a boolean.
    #[must_use]
    pub fn from_bool(value: bool) -> Self {
        Self {
            bits: u128::from(value),
            width: 1,
        }
    }

    /// Builds a word from an iterator of bits, least-significant first.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidWidth`] if the iterator yields zero bits or
    /// more than [`MAX_WORD_WIDTH`] bits.
    pub fn from_bit_iter<I: IntoIterator<Item = bool>>(bits: I) -> Result<Self, MemError> {
        let mut value = 0u128;
        let mut width = 0usize;
        for (index, bit) in bits.into_iter().enumerate() {
            if index >= MAX_WORD_WIDTH {
                return Err(MemError::InvalidWidth { width: index + 1 });
            }
            if bit {
                value |= 1 << index;
            }
            width = index + 1;
        }
        Self::from_bits(value, width)
    }

    #[inline]
    fn mask_for(width: usize) -> u128 {
        if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        }
    }

    /// The raw bit pattern (always masked to the word width).
    #[must_use]
    pub fn to_bits(self) -> u128 {
        self.bits
    }

    /// The word width in bits.
    #[must_use]
    pub fn width(self) -> usize {
        usize::from(self.width)
    }

    /// Value of bit `bit` (0 = least-significant).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.width()`.
    #[must_use]
    pub fn bit(self, bit: usize) -> bool {
        assert!(
            bit < self.width(),
            "bit {bit} out of range for {}-bit word",
            self.width()
        );
        (self.bits >> bit) & 1 == 1
    }

    /// Returns a copy of the word with bit `bit` set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.width()`.
    #[must_use]
    pub fn with_bit(self, bit: usize, value: bool) -> Self {
        assert!(
            bit < self.width(),
            "bit {bit} out of range for {}-bit word",
            self.width()
        );
        let bits = if value {
            self.bits | (1 << bit)
        } else {
            self.bits & !(1 << bit)
        };
        Self {
            bits,
            width: self.width,
        }
    }

    /// Number of bits set to one.
    #[must_use]
    pub fn count_ones(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Iterates over the bits, least-significant first.
    pub fn bits(self) -> impl Iterator<Item = bool> {
        (0..self.width()).map(move |i| (self.bits >> i) & 1 == 1)
    }

    /// Whether every bit is zero.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.bits == 0
    }

    /// Whether every bit is one.
    #[must_use]
    pub fn is_ones(self) -> bool {
        self.bits == Self::mask_for(self.width())
    }

    /// Bitwise complement confined to the word width.
    #[must_use]
    pub fn complement(self) -> Self {
        Self {
            bits: !self.bits & Self::mask_for(self.width()),
            width: self.width,
        }
    }

    /// XOR with another word of the same width.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ; use [`Word::checked_xor`] for a fallible
    /// variant.
    #[must_use]
    #[inline]
    pub fn xor(self, other: Self) -> Self {
        self.checked_xor(other).expect("word widths must match")
    }

    /// XOR with another word, failing on width mismatch.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] if the widths differ.
    pub fn checked_xor(self, other: Self) -> Result<Self, MemError> {
        if self.width != other.width {
            return Err(MemError::WidthMismatch {
                found: other.width(),
                expected: self.width(),
            });
        }
        Ok(Self {
            bits: self.bits ^ other.bits,
            width: self.width,
        })
    }

    /// Bytes of a packed word of `width` bits: ⌈width/8⌉. Packed words
    /// are most significant byte first, so packed words of one width
    /// order bytewise as their bits do.
    #[must_use]
    pub const fn packed_len(width: usize) -> usize {
        width.div_ceil(8)
    }

    /// Writes the word packed into `out` ([`Word::packed_len`] bytes).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not [`Word::packed_len`]`(self.width())` bytes.
    #[inline]
    pub fn write_packed(self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            Self::packed_len(self.width()),
            "packed word length"
        );
        out.copy_from_slice(&self.bits.to_be_bytes()[16 - out.len()..]);
    }

    /// Reads a packed word of `width` bits from `bytes`, masking the bits
    /// above `width` away as [`Word::from_bits`] does.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidWidth`] if `width` is zero or greater
    /// than [`MAX_WORD_WIDTH`].
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is longer than 16 bytes.
    #[inline]
    pub fn from_packed(bytes: &[u8], width: usize) -> Result<Self, MemError> {
        let mut raw = [0u8; 16];
        raw[16 - bytes.len()..].copy_from_slice(bytes);
        Self::from_bits(u128::from_be_bytes(raw), width)
    }

    /// Renders the word as a fixed-width binary string, most-significant bit
    /// first (the order used in the paper's tables).
    #[must_use]
    pub fn to_binary_string(self) -> String {
        (0..self.width())
            .rev()
            .map(|i| if self.bit(i) { '1' } else { '0' })
            .collect()
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_binary_string())
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.bits, f)
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.bits, f)
    }
}

impl fmt::UpperHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.bits, f)
    }
}

impl Not for Word {
    type Output = Word;

    fn not(self) -> Word {
        self.complement()
    }
}

impl BitXor for Word {
    type Output = Word;

    #[inline]
    fn bitxor(self, rhs: Word) -> Word {
        self.xor(rhs)
    }
}

impl BitAnd for Word {
    type Output = Word;

    fn bitand(self, rhs: Word) -> Word {
        assert_eq!(self.width, rhs.width, "word widths must match");
        Word {
            bits: self.bits & rhs.bits,
            width: self.width,
        }
    }
}

impl BitOr for Word {
    type Output = Word;

    fn bitor(self, rhs: Word) -> Word {
        assert_eq!(self.width, rhs.width, "word widths must match");
        Word {
            bits: self.bits | rhs.bits,
            width: self.width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bits_masks_to_width() {
        let w = Word::from_bits(0xFFFF, 8).unwrap();
        assert_eq!(w.to_bits(), 0xFF);
        assert_eq!(w.width(), 8);
    }

    #[test]
    fn from_bits_rejects_bad_widths() {
        assert_eq!(
            Word::from_bits(0, 0),
            Err(MemError::InvalidWidth { width: 0 })
        );
        assert_eq!(
            Word::from_bits(0, 129),
            Err(MemError::InvalidWidth { width: 129 })
        );
    }

    #[test]
    fn full_width_words_are_supported() {
        let w = Word::ones(128);
        assert_eq!(w.count_ones(), 128);
        assert!(w.is_ones());
        assert!((!w).is_zero());
    }

    #[test]
    fn zeros_and_ones_are_complements() {
        for width in [1usize, 2, 7, 8, 16, 31, 64, 128] {
            assert_eq!(!Word::zeros(width), Word::ones(width));
            assert_eq!(!Word::ones(width), Word::zeros(width));
        }
    }

    #[test]
    fn bit_access_and_update() {
        let w = Word::zeros(8).with_bit(3, true);
        assert!(w.bit(3));
        assert!(!w.bit(2));
        assert_eq!(w.count_ones(), 1);
        assert_eq!(w.with_bit(3, false), Word::zeros(8));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let _ = Word::zeros(4).bit(4);
    }

    #[test]
    fn xor_requires_matching_width() {
        let a = Word::zeros(8);
        let b = Word::zeros(4);
        assert_eq!(
            a.checked_xor(b),
            Err(MemError::WidthMismatch {
                found: 4,
                expected: 8
            })
        );
    }

    #[test]
    fn packed_words_round_trip_and_order_as_their_bits() {
        let mut rng = crate::SplitMix64::new(0x9AC);
        for width in 1..=MAX_WORD_WIDTH {
            let len = Word::packed_len(width);
            let a = Word::from_bits(rng.next_u128(), width).unwrap();
            let b = Word::from_bits(rng.next_u128(), width).unwrap();
            let (mut pa, mut pb) = (vec![0u8; len], vec![0u8; len]);
            a.write_packed(&mut pa);
            b.write_packed(&mut pb);
            assert_eq!(Word::from_packed(&pa, width), Ok(a));
            assert_eq!(pa.cmp(&pb), a.cmp(&b));
        }
        // Bits above the width are masked away.
        assert_eq!(Word::from_packed(&[0xFF], 3), Ok(Word::ones(3)));
        assert_eq!(
            Word::from_packed(&[1], 0),
            Err(MemError::InvalidWidth { width: 0 })
        );
    }

    #[test]
    fn xor_is_its_own_inverse() {
        let a = Word::from_bits(0b1010_1100, 8).unwrap();
        let b = Word::from_bits(0b0110_0101, 8).unwrap();
        assert_eq!(a ^ b ^ b, a);
    }

    #[test]
    fn binary_string_is_msb_first() {
        let w = Word::from_bits(0b0000_1111, 8).unwrap();
        assert_eq!(w.to_binary_string(), "00001111");
        assert_eq!(w.to_string(), "00001111");
    }

    #[test]
    fn from_bit_iter_round_trips() {
        let w = Word::from_bits(0b1011, 4).unwrap();
        let rebuilt = Word::from_bit_iter(w.bits()).unwrap();
        assert_eq!(rebuilt, w);
    }

    #[test]
    fn from_bool_is_single_bit() {
        assert_eq!(Word::from_bool(true), Word::ones(1));
        assert_eq!(Word::from_bool(false), Word::zeros(1));
    }
}
