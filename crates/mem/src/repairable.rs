//! Spare-word redundancy repair on top of [`FaultyMemory`].
//!
//! Embedded memories ship with a handful of spare rows/words; when field
//! test locates a defective word, the repair logic programs a remap entry so
//! every subsequent access to that logical address is served by a spare.
//! [`RepairableMemory`] models exactly that layer: a main [`FaultyMemory`],
//! a bank of spare words (themselves a [`FaultyMemory`], so spares can carry
//! their own manufacturing defects) and a remap table consulted on each
//! access.
//!
//! The layer deliberately **wraps** the simulator instead of extending it:
//! the main memory's hot write path (the block-masked fault-index kernel)
//! is untouched, and a memory with an empty remap table behaves exactly
//! like the wrapped [`FaultyMemory`]. Remapping a word copies its current
//! content into the spare, so a repair applied mid-lifetime preserves the
//! stored data — the property the transparent-test repair flow depends on.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::{BitAddress, FaultyMemory, MemError, MemoryAccess, MemoryConfig, Word};

/// One remap entry: a logical word served by a spare slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemapEntry {
    /// The logical (defective) word address.
    pub word: usize,
    /// The spare slot serving it.
    pub spare: usize,
}

/// A word-oriented memory with spare words and a repair remap table.
///
/// ```
/// use twm_mem::{BitAddress, Fault, MemoryBuilder, RepairableMemory, Word};
///
/// # fn main() -> Result<(), twm_mem::MemError> {
/// let faulty = MemoryBuilder::new(8, 4)
///     .random_content(7)
///     .fault(Fault::stuck_at(BitAddress::new(3, 1), true))
///     .build()?;
/// let mut memory = RepairableMemory::new(faulty, 2)?;
///
/// // Repair word 3 with spare slot 0: content is preserved, the stuck
/// // cell is out of the access path.
/// memory.map_word(3, 0)?;
/// memory.write_word(3, Word::zeros(4))?;
/// assert!(memory.read_word(3)?.is_zero());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RepairableMemory {
    main: FaultyMemory,
    /// Spare words; `None` when the memory was built with zero spares.
    spares: Option<FaultyMemory>,
    /// Logical word → spare slot. A `BTreeMap` keeps iteration (and
    /// therefore serialised plans and reports) deterministic.
    remap: BTreeMap<usize, usize>,
}

impl RepairableMemory {
    /// Wraps a memory with `spare_words` fault-free spare words.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::InvalidWidth`] only if the wrapped memory's
    /// width is invalid (it cannot be — the shape was already validated),
    /// so in practice this constructor only fails for internal
    /// inconsistencies; `spare_words == 0` is allowed and yields a memory
    /// that can hold no repairs.
    pub fn new(main: FaultyMemory, spare_words: usize) -> Result<Self, MemError> {
        let spares = if spare_words == 0 {
            None
        } else {
            Some(FaultyMemory::fault_free(MemoryConfig::new(
                spare_words,
                main.width(),
            )?))
        };
        Ok(Self {
            main,
            spares,
            remap: BTreeMap::new(),
        })
    }

    /// Wraps a memory with an explicit spare bank — the path for modelling
    /// spares that carry their own defects (a must-repair analysis input).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] if the spare bank's word width
    /// differs from the main memory's.
    pub fn with_spares(main: FaultyMemory, spares: FaultyMemory) -> Result<Self, MemError> {
        if spares.width() != main.width() {
            return Err(MemError::WidthMismatch {
                found: spares.width(),
                expected: main.width(),
            });
        }
        Ok(Self {
            main,
            spares: Some(spares),
            remap: BTreeMap::new(),
        })
    }

    /// The logical memory shape (the wrapped memory's; spares are not
    /// addressable directly).
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.main.config()
    }

    /// Number of logical words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.main.words()
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.main.width()
    }

    /// Total number of spare slots.
    #[must_use]
    pub fn spare_words(&self) -> usize {
        self.spares.as_ref().map_or(0, FaultyMemory::words)
    }

    /// Spare slots not yet serving a remapped word, ascending.
    #[must_use]
    pub fn available_spares(&self) -> Vec<usize> {
        (0..self.spare_words())
            .filter(|slot| !self.remap.values().any(|used| used == slot))
            .collect()
    }

    /// The active remap entries, in ascending logical-word order.
    #[must_use]
    pub fn remap_table(&self) -> Vec<RemapEntry> {
        self.remap
            .iter()
            .map(|(&word, &spare)| RemapEntry { word, spare })
            .collect()
    }

    /// The spare slot serving a logical word, if it is remapped.
    #[must_use]
    #[inline]
    pub fn mapped_spare(&self, word: usize) -> Option<usize> {
        self.remap.get(&word).copied()
    }

    /// The wrapped main memory.
    #[must_use]
    pub fn main(&self) -> &FaultyMemory {
        &self.main
    }

    /// Mutable access to the wrapped main memory, **bypassing** the remap
    /// table — for diagnosis flows that must observe the raw array
    /// (repaired words included). Accesses through this reference do not
    /// consult spares; use the layer's own accessors for the logical view.
    #[must_use]
    pub fn main_mut(&mut self) -> &mut FaultyMemory {
        &mut self.main
    }

    /// The spare bank, when the memory has one.
    #[must_use]
    pub fn spares(&self) -> Option<&FaultyMemory> {
        self.spares.as_ref()
    }

    /// Consumes the layer and returns the wrapped main memory (the remap
    /// table and spares are discarded).
    #[must_use]
    pub fn into_main(self) -> FaultyMemory {
        self.main
    }

    /// Remaps a logical word onto a spare slot, copying the word's current
    /// logical content into the spare so the repair preserves stored data.
    ///
    /// # Errors
    ///
    /// * [`MemError::AddressOutOfRange`] if the logical word or the spare
    ///   slot does not exist (slot errors report the spare-bank shape).
    /// * [`MemError::SpareInUse`] if the slot already serves another word.
    /// * [`MemError::AlreadyRemapped`] if the word is already repaired.
    pub fn map_word(&mut self, word: usize, spare: usize) -> Result<(), MemError> {
        if word >= self.main.words() {
            return Err(MemError::AddressOutOfRange {
                address: word,
                words: self.main.words(),
            });
        }
        let Some(spares) = self.spares.as_mut() else {
            return Err(MemError::AddressOutOfRange {
                address: spare,
                words: 0,
            });
        };
        if spare >= spares.words() {
            return Err(MemError::AddressOutOfRange {
                address: spare,
                words: spares.words(),
            });
        }
        if self.remap.contains_key(&word) {
            return Err(MemError::AlreadyRemapped { word });
        }
        if self.remap.values().any(|&used| used == spare) {
            return Err(MemError::SpareInUse { spare });
        }
        // Preserve the stored data: the spare takes over the word's current
        // logical value (written through the spare bank, so spare defects
        // apply — a defective spare does not silently launder a repair).
        let current = self.main.peek_word(word)?;
        spares.write_word(spare, current)?;
        self.remap.insert(word, spare);
        Ok(())
    }

    /// Removes a word's remap entry, writing the spare's current content
    /// back into the main array.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] if the word is not remapped.
    pub fn unmap_word(&mut self, word: usize) -> Result<(), MemError> {
        let Some(spare) = self.remap.remove(&word) else {
            return Err(MemError::AddressOutOfRange {
                address: word,
                words: self.main.words(),
            });
        };
        let value = self
            .spares
            .as_ref()
            .expect("a remap entry implies a spare bank")
            .peek_word(spare)?;
        self.main.write_word(word, value)?;
        Ok(())
    }

    /// Reads a logical word, counting the access on whichever array serves
    /// it.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] for a bad address.
    #[inline]
    pub fn read_word(&mut self, address: usize) -> Result<Word, MemError> {
        match self.remap.get(&address) {
            Some(&spare) => self
                .spares
                .as_mut()
                .expect("a remap entry implies a spare bank")
                .read_word(spare),
            // The wrapped memory performs the range check itself.
            None => self.main.read_word(address),
        }
    }

    /// Writes a logical word through whichever array serves it (fault
    /// semantics of that array apply).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] or
    /// [`MemError::WidthMismatch`] for shape errors.
    #[inline]
    pub fn write_word(&mut self, address: usize, data: Word) -> Result<(), MemError> {
        match self.remap.get(&address) {
            Some(&spare) => self
                .spares
                .as_mut()
                .expect("a remap entry implies a spare bank")
                .write_word(spare, data),
            None => self.main.write_word(address, data),
        }
    }

    /// Reads a single cell through the remap table.
    ///
    /// # Errors
    ///
    /// Returns an address or bit range error if the cell does not exist.
    pub fn read_bit(&mut self, cell: BitAddress) -> Result<bool, MemError> {
        if cell.bit >= self.width() {
            return Err(MemError::BitOutOfRange {
                bit: cell.bit,
                width: self.width(),
            });
        }
        Ok(self.read_word(cell.word)?.bit(cell.bit))
    }

    /// Writes a single cell via a read-modify-write of its (possibly
    /// remapped) word.
    ///
    /// # Errors
    ///
    /// Returns an address or bit range error if the cell does not exist.
    pub fn write_bit(&mut self, cell: BitAddress, value: bool) -> Result<(), MemError> {
        if cell.bit >= self.width() {
            return Err(MemError::BitOutOfRange {
                bit: cell.bit,
                width: self.width(),
            });
        }
        let current = self.peek_word(cell.word)?;
        self.write_word(cell.word, current.with_bit(cell.bit, value))
    }

    /// Reads a logical word without counting the access.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] for a bad address.
    #[inline]
    pub fn peek_word(&self, address: usize) -> Result<Word, MemError> {
        match self.remap.get(&address) {
            Some(&spare) => self
                .spares
                .as_ref()
                .expect("a remap entry implies a spare bank")
                .peek_word(spare),
            None => self.main.peek_word(address),
        }
    }

    /// A copy of the logical content (remapped words read from their
    /// spares).
    #[must_use]
    pub fn content(&self) -> Vec<Word> {
        (0..self.words())
            .map(|address| self.peek_word(address).expect("address in range"))
            .collect()
    }
}

impl MemoryAccess for RepairableMemory {
    fn config(&self) -> MemoryConfig {
        RepairableMemory::config(self)
    }

    #[inline]
    fn read_word(&mut self, address: usize) -> Result<Word, MemError> {
        RepairableMemory::read_word(self, address)
    }

    #[inline]
    fn write_word(&mut self, address: usize, data: Word) -> Result<(), MemError> {
        RepairableMemory::write_word(self, address, data)
    }

    #[inline]
    fn peek_word(&self, address: usize) -> Result<Word, MemError> {
        RepairableMemory::peek_word(self, address)
    }

    // fault_set() stays `None`: the effective fault behaviour of a
    // remapped memory is not the main array's flat set (a repaired word's
    // faults are out of the access path, spare defects are in it).
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, MemoryBuilder};

    fn faulty(words: usize, width: usize, fault: Fault) -> FaultyMemory {
        MemoryBuilder::new(words, width)
            .random_content(11)
            .fault(fault)
            .build()
            .unwrap()
    }

    #[test]
    fn unmapped_memory_behaves_like_the_wrapped_one() {
        let saf = Fault::stuck_at(BitAddress::new(2, 1), true);
        let mut plain = faulty(8, 4, saf);
        let mut layered = RepairableMemory::new(faulty(8, 4, saf), 2).unwrap();
        assert_eq!(layered.content(), plain.content());
        for address in 0..8 {
            plain.write_word(address, Word::zeros(4)).unwrap();
            layered.write_word(address, Word::zeros(4)).unwrap();
            assert_eq!(
                layered.read_word(address).unwrap(),
                plain.read_word(address).unwrap()
            );
        }
    }

    #[test]
    fn mapping_preserves_content_and_masks_the_fault() {
        let cell = BitAddress::new(5, 0);
        let mut memory =
            RepairableMemory::new(faulty(8, 4, Fault::stuck_at(cell, true)), 1).unwrap();
        let before = memory.content();
        memory.map_word(5, 0).unwrap();
        // Logical content unchanged by the repair itself.
        assert_eq!(memory.content(), before);
        // The stuck-at cell no longer constrains writes.
        memory.write_word(5, Word::zeros(4)).unwrap();
        assert!(memory.read_word(5).unwrap().is_zero());
        assert_eq!(memory.mapped_spare(5), Some(0));
        assert!(memory.available_spares().is_empty());
        assert_eq!(memory.remap_table(), vec![RemapEntry { word: 5, spare: 0 }]);
    }

    #[test]
    fn unmap_writes_the_spare_content_back() {
        let mut memory = RepairableMemory::new(
            MemoryBuilder::new(4, 4).random_content(3).build().unwrap(),
            1,
        )
        .unwrap();
        memory.map_word(1, 0).unwrap();
        memory.write_word(1, Word::ones(4)).unwrap();
        memory.unmap_word(1).unwrap();
        assert_eq!(memory.mapped_spare(1), None);
        assert!(memory.read_word(1).unwrap().is_ones());
        assert!(memory.unmap_word(1).is_err());
    }

    #[test]
    fn mapping_validation() {
        let mut memory =
            RepairableMemory::new(MemoryBuilder::new(4, 4).build().unwrap(), 2).unwrap();
        assert!(matches!(
            memory.map_word(9, 0),
            Err(MemError::AddressOutOfRange { .. })
        ));
        // Accesses outside the logical shape fail through the delegate.
        assert!(matches!(
            memory.read_word(9),
            Err(MemError::AddressOutOfRange {
                address: 9,
                words: 4
            })
        ));
        assert!(matches!(
            memory.peek_word(9),
            Err(MemError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            memory.write_word(9, Word::zeros(4)),
            Err(MemError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            memory.map_word(0, 9),
            Err(MemError::AddressOutOfRange { .. })
        ));
        memory.map_word(0, 0).unwrap();
        assert!(matches!(
            memory.map_word(0, 1),
            Err(MemError::AlreadyRemapped { word: 0 })
        ));
        assert!(matches!(
            memory.map_word(1, 0),
            Err(MemError::SpareInUse { spare: 0 })
        ));

        let mut spareless =
            RepairableMemory::new(MemoryBuilder::new(4, 4).build().unwrap(), 0).unwrap();
        assert_eq!(spareless.spare_words(), 0);
        assert!(spareless.map_word(0, 0).is_err());
    }

    #[test]
    fn defective_spares_apply_their_own_faults() {
        let main = MemoryBuilder::new(4, 4).random_content(5).build().unwrap();
        let spares = MemoryBuilder::new(2, 4)
            .fault(Fault::stuck_at(BitAddress::new(0, 3), true))
            .build()
            .unwrap();
        let mut memory = RepairableMemory::with_spares(main, spares).unwrap();
        memory.map_word(2, 0).unwrap();
        memory.write_word(2, Word::zeros(4)).unwrap();
        // The spare's stuck-at bit shows through the logical view.
        assert!(memory.read_word(2).unwrap().bit(3));

        let narrow = MemoryBuilder::new(2, 8).build().unwrap();
        let wide_main = MemoryBuilder::new(4, 4).build().unwrap();
        assert!(matches!(
            RepairableMemory::with_spares(wide_main, narrow),
            Err(MemError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn bit_level_access_goes_through_the_remap() {
        let cell = BitAddress::new(3, 2);
        let mut memory =
            RepairableMemory::new(faulty(8, 4, Fault::stuck_at(cell, false)), 1).unwrap();
        memory.map_word(3, 0).unwrap();
        memory.write_bit(cell, true).unwrap();
        assert!(memory.read_bit(cell).unwrap());
        assert!(matches!(
            memory.write_bit(BitAddress::new(0, 9), true),
            Err(MemError::BitOutOfRange { .. })
        ));
    }
}
