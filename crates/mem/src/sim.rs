use serde::{Deserialize, Serialize};

use crate::{
    BitAddress, BitStorage, Fault, FaultSet, MemError, MemoryAccess, SplitMix64, Trace, TraceEntry,
    TraceOp, Transition, Word,
};

/// Shape of a simulated memory: number of words and word width in bits.
///
/// Ordered (words, then width) and hashable so it can key sharded
/// stores — fleet deployments index dictionaries and cached engines by
/// `(MemoryConfig, scheme, test)` shard keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MemoryConfig {
    words: usize,
    width: usize,
}

impl MemoryConfig {
    /// Creates a memory shape.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyMemory`] for zero words and
    /// [`MemError::InvalidWidth`] for an unsupported word width.
    pub fn new(words: usize, width: usize) -> Result<Self, MemError> {
        if words == 0 {
            return Err(MemError::EmptyMemory);
        }
        if width == 0 || width > crate::MAX_WORD_WIDTH {
            return Err(MemError::InvalidWidth { width });
        }
        Ok(Self { words, width })
    }

    /// Shape of a bit-oriented memory (word width 1) with `cells` cells.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::EmptyMemory`] if `cells` is zero.
    pub fn bit_oriented(cells: usize) -> Result<Self, MemError> {
        Self::new(cells, 1)
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

    /// Total number of cells (bits).
    #[must_use]
    pub fn cells(&self) -> usize {
        self.words * self.width
    }

    /// An all-zero word of this memory's width.
    #[must_use]
    pub fn word_zeros(&self) -> Word {
        Word::zeros(self.width)
    }

    /// An all-one word of this memory's width.
    #[must_use]
    pub fn word_ones(&self) -> Word {
        Word::ones(self.width)
    }
}

/// Counters of read and write accesses performed on a memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Number of word reads.
    pub reads: u64,
    /// Number of word writes.
    pub writes: u64,
}

impl AccessStats {
    /// Total number of accesses.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// A word-oriented memory with injected functional faults.
///
/// Writes apply the fault semantics of Section 2 of the paper:
///
/// * stuck-at cells never change value;
/// * transition-faulty cells fail the faulty transition direction;
/// * when a cell changes value, idempotent and inversion coupling faults with
///   that cell as aggressor force or invert their victims (propagated
///   transitively up to a bounded depth);
/// * state coupling faults continuously force their victim while the
///   aggressor holds the activating value (enforced after every write and
///   after initialization).
///
/// Reads return the stored content and never disturb the array.
#[derive(Debug, Clone)]
pub struct FaultyMemory {
    config: MemoryConfig,
    storage: BitStorage,
    faults: FaultSet,
    stats: AccessStats,
    tracing: bool,
    trace: Trace,
}

impl FaultyMemory {
    /// Creates a fault-free memory (all cells initialised to 0).
    #[must_use]
    pub fn fault_free(config: MemoryConfig) -> Self {
        Self::with_faults(config, FaultSet::new()).expect("empty fault set is always valid")
    }

    /// Creates a memory with the given faults injected.
    ///
    /// # Errors
    ///
    /// Returns an error if any fault references a cell outside the memory or
    /// couples a cell with itself.
    pub fn with_faults<F: Into<FaultSet>>(
        config: MemoryConfig,
        faults: F,
    ) -> Result<Self, MemError> {
        let faults = faults.into();
        faults.validate(config.words(), config.width())?;
        let storage = BitStorage::new(config.words(), config.width())?;
        let mut mem = Self {
            config,
            storage,
            faults,
            stats: AccessStats::default(),
            tracing: false,
            trace: Trace::new(),
        };
        mem.enforce_static_faults();
        Ok(mem)
    }

    /// The memory shape.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// Number of words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.config.words()
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.config.width()
    }

    /// The injected fault set.
    #[must_use]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Adds a fault to an existing memory.
    ///
    /// # Errors
    ///
    /// Returns an error if the fault references a cell outside the memory or
    /// couples a cell with itself.
    pub fn inject(&mut self, fault: Fault) -> Result<(), MemError> {
        let candidate = FaultSet::from_faults([fault]);
        candidate.validate(self.config.words(), self.config.width())?;
        self.faults.insert(fault);
        self.enforce_static_faults();
        Ok(())
    }

    /// Removes all injected faults (the array content is left unchanged).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
    }

    /// Re-arms the memory with a new fault set over a content image,
    /// copying only `words` back from it: what a fresh
    /// [`FaultyMemory::with_faults`] followed by
    /// [`FaultyMemory::load_image`] produces, for a memory that already
    /// holds `image` everywhere outside `words`, in O(|words| + |faults|)
    /// instead of O(memory). Counters and trace are cleared. An arena
    /// reused across fault-local sweeps lists the words the previous run
    /// could change: its faults' footprint and every word it wrote.
    ///
    /// # Errors
    ///
    /// Returns the validation errors of [`FaultyMemory::with_faults`],
    /// [`MemError::LoadLengthMismatch`] / [`MemError::WidthMismatch`] if
    /// the image has another shape, or [`MemError::AddressOutOfRange`]
    /// for a listed word outside the memory; on error the memory is
    /// unchanged.
    pub fn rearm_words<F: Into<FaultSet>>(
        &mut self,
        faults: F,
        image: &BitStorage,
        words: &[usize],
    ) -> Result<(), MemError> {
        let faults = faults.into();
        faults.validate(self.config.words(), self.config.width())?;
        self.check_words(Some(image), words)?;
        self.faults = faults;
        self.restore_words(Some(image), words);
        Ok(())
    }

    /// [`FaultyMemory::rearm_words`] for an arena that sweeps only `words`
    /// and never reads the rest: re-arms the memory with `faults`, reusing
    /// its [`FaultSet`] allocation, and restores `words` from `image`
    /// (`None` = all-zero content). Content outside `words` is left
    /// as it is, so it may be stale from an earlier run; a fault-local
    /// sweep (`twm_bist::detect_lowered_at`) over a footprint that
    /// `words` covers reaches the same verdict as on a memory reset and
    /// loaded in full. O(|words| + |faults|).
    ///
    /// # Errors
    ///
    /// The same as [`FaultyMemory::rearm_words`]; on error the memory is
    /// unchanged.
    pub fn rearm_local(
        &mut self,
        faults: &[Fault],
        image: Option<&BitStorage>,
        words: &[usize],
    ) -> Result<(), MemError> {
        for fault in faults {
            FaultSet::validate_fault(fault, self.config.words(), self.config.width())?;
        }
        self.check_words(image, words)?;
        self.faults.clear();
        for &fault in faults {
            self.faults.insert(fault);
        }
        self.restore_words(image, words);
        Ok(())
    }

    /// The shape and address checks of [`FaultyMemory::rearm_words`].
    fn check_words(&self, image: Option<&BitStorage>, words: &[usize]) -> Result<(), MemError> {
        if let Some(image) = image {
            if image.words() != self.config.words() {
                return Err(MemError::LoadLengthMismatch {
                    found: image.words(),
                    expected: self.config.words(),
                });
            }
            if image.width() != self.config.width() {
                return Err(MemError::WidthMismatch {
                    found: image.width(),
                    expected: self.config.width(),
                });
            }
        }
        if let Some(&address) = words.iter().find(|&&word| word >= self.config.words()) {
            return Err(MemError::AddressOutOfRange {
                address,
                words: self.config.words(),
            });
        }
        Ok(())
    }

    /// Copies `words` back from `image` (zeroes them for `None`), clears
    /// the counters and the trace, and enforces the armed faults' static
    /// state — the run-state half of a re-arm, after [`Self::check_words`].
    fn restore_words(&mut self, image: Option<&BitStorage>, words: &[usize]) {
        for &word in words {
            let bits = image.map_or(0, |image| image.word_bits(word));
            self.storage.set_word_bits(word, bits);
        }
        self.stats = AccessStats::default();
        self.trace = Trace::new();
        self.enforce_static_faults();
    }

    /// Access counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Resets the access counters.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    /// Enables or disables access tracing.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
    }

    /// Takes the recorded trace, leaving an empty one behind.
    pub fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.trace)
    }

    /// Reads a word, counting the access.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] for a bad address.
    #[inline]
    pub fn read_word(&mut self, address: usize) -> Result<Word, MemError> {
        let data = self.storage.word(address)?;
        self.stats.reads += 1;
        if self.tracing {
            self.trace.push(TraceEntry {
                op: TraceOp::Read,
                address,
                data,
            });
        }
        Ok(data)
    }

    /// Writes a word, applying all fault effects and counting the access.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] for a bad address or
    /// [`MemError::WidthMismatch`] if the word width differs from the memory
    /// width.
    #[inline]
    pub fn write_word(&mut self, address: usize, data: Word) -> Result<(), MemError> {
        if address >= self.config.words() {
            return Err(MemError::AddressOutOfRange {
                address,
                words: self.config.words(),
            });
        }
        if data.width() != self.config.width() {
            return Err(MemError::WidthMismatch {
                found: data.width(),
                expected: self.config.width(),
            });
        }

        let index = self.faults.index();
        match index.word_masks(address) {
            None => {
                // No fault touches this word as victim or aggressor: the
                // write cannot disturb (or be disturbed by) anything, so it
                // is a pure block-masked store. State coupling elsewhere is
                // untouched because no aggressor changed.
                self.storage.set_word_bits(address, data.to_bits());
            }
            Some(masks) => {
                let old = self.storage.word_bits(address);
                let effective = masks.effective_write(old, data.to_bits());
                self.storage.set_word_bits(address, effective);

                // Collect aggressor transitions in ascending bit order (the
                // propagation queue pops from the back, so the highest
                // changed bit is processed first — same order as the
                // historical per-bit loop).
                let mut activated = (effective ^ old) & masks.aggressors;
                let mut changed: Vec<(BitAddress, Transition)> =
                    Vec::with_capacity(activated.count_ones() as usize);
                while activated != 0 {
                    let bit = activated.trailing_zeros() as usize;
                    activated &= activated - 1;
                    let transition = if (effective >> bit) & 1 == 1 {
                        Transition::Rising
                    } else {
                        Transition::Falling
                    };
                    changed.push((BitAddress::new(address, bit), transition));
                }

                if !changed.is_empty() {
                    index.propagate(&mut self.storage, changed);
                }
                if index.has_state_faults() {
                    index.enforce_state_coupling(&mut self.storage);
                }
            }
        }

        self.stats.writes += 1;
        if self.tracing {
            let stored = self.storage.word(address)?;
            self.trace.push(TraceEntry {
                op: TraceOp::Write,
                address,
                data: stored,
            });
        }
        Ok(())
    }

    /// Reads a single cell, counting a read access.
    ///
    /// # Errors
    ///
    /// Returns an address or bit range error if the cell does not exist.
    pub fn read_bit(&mut self, cell: BitAddress) -> Result<bool, MemError> {
        let value = self.storage.bit(cell.word, cell.bit)?;
        self.stats.reads += 1;
        if self.tracing {
            let data = self.storage.word(cell.word)?;
            self.trace.push(TraceEntry {
                op: TraceOp::Read,
                address: cell.word,
                data,
            });
        }
        Ok(value)
    }

    /// Writes a single cell through a read-modify-write of its word, so all
    /// word-level fault effects apply.
    ///
    /// # Errors
    ///
    /// Returns an address or bit range error if the cell does not exist.
    pub fn write_bit(&mut self, cell: BitAddress, value: bool) -> Result<(), MemError> {
        if cell.bit >= self.config.width() {
            return Err(MemError::BitOutOfRange {
                bit: cell.bit,
                width: self.config.width(),
            });
        }
        let current = self.storage.word(cell.word)?;
        self.write_word(cell.word, current.with_bit(cell.bit, value))
    }

    /// Reads a word without counting the access or applying tracing.
    ///
    /// Intended for inspection by test harnesses and oracles.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::AddressOutOfRange`] for a bad address.
    #[inline]
    pub fn peek_word(&self, address: usize) -> Result<Word, MemError> {
        self.storage.word(address)
    }

    /// Reads a cell without counting the access.
    ///
    /// # Errors
    ///
    /// Returns an address or bit range error if the cell does not exist.
    pub fn peek_bit(&self, cell: BitAddress) -> Result<bool, MemError> {
        self.storage.bit(cell.word, cell.bit)
    }

    /// A copy of the entire memory content.
    #[must_use]
    pub fn content(&self) -> Vec<Word> {
        self.storage.to_words()
    }

    /// Fills every word with the same value (fault effects on the final state
    /// are enforced; this models a direct initialization, not a march write,
    /// so coupling transitions are not triggered).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::WidthMismatch`] if the word width differs from the
    /// memory width.
    pub fn fill(&mut self, value: Word) -> Result<(), MemError> {
        self.storage.fill(value)?;
        self.enforce_static_faults();
        Ok(())
    }

    /// Loads the entire content from a slice of words (same semantics as
    /// [`FaultyMemory::fill`]).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LoadLengthMismatch`] or [`MemError::WidthMismatch`]
    /// for shape mismatches.
    pub fn load(&mut self, values: &[Word]) -> Result<(), MemError> {
        self.storage.load(values)?;
        self.enforce_static_faults();
        Ok(())
    }

    /// A copy of the raw bit-level storage — pair with
    /// [`FaultyMemory::load_image`] to snapshot a content once and restore
    /// it cheaply any number of times.
    #[must_use]
    pub fn snapshot(&self) -> BitStorage {
        self.storage.clone()
    }

    /// Restores the entire content from a storage snapshot with block-level
    /// copies (same fault semantics as [`FaultyMemory::load`], which
    /// rebuilds word by word: the fault effects on the final state are
    /// enforced, coupling transitions are not triggered).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::LoadLengthMismatch`] or [`MemError::WidthMismatch`]
    /// for shape mismatches.
    pub fn load_image(&mut self, image: &BitStorage) -> Result<(), MemError> {
        self.storage.copy_from(image)?;
        self.enforce_static_faults();
        Ok(())
    }

    /// Fills the memory with deterministic pseudo-random content derived from
    /// `seed`, modelling the "arbitrary initial content" a transparent test
    /// must preserve.
    pub fn fill_random(&mut self, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let width = self.config.width();
        for address in 0..self.config.words() {
            let word = Word::from_bits(rng.next_u128(), width).expect("configured width is valid");
            self.storage
                .set_word(address, word)
                .expect("address in range");
        }
        self.enforce_static_faults();
    }

    /// Applies the faults that constrain static state (stuck-at values and
    /// activated state coupling) to the current content.
    fn enforce_static_faults(&mut self) {
        self.faults.index().enforce_static(&mut self.storage);
    }
}

impl MemoryAccess for FaultyMemory {
    fn config(&self) -> MemoryConfig {
        FaultyMemory::config(self)
    }

    #[inline]
    fn read_word(&mut self, address: usize) -> Result<Word, MemError> {
        FaultyMemory::read_word(self, address)
    }

    #[inline]
    fn write_word(&mut self, address: usize, data: Word) -> Result<(), MemError> {
        FaultyMemory::write_word(self, address, data)
    }

    #[inline]
    fn peek_word(&self, address: usize) -> Result<Word, MemError> {
        FaultyMemory::peek_word(self, address)
    }

    fn fault_set(&self) -> Option<&FaultSet> {
        Some(self.faults())
    }

    fn content(&self) -> Vec<Word> {
        // The inherent implementation converts straight from the bit
        // storage, cheaper than the trait's per-word default.
        FaultyMemory::content(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(words: usize, width: usize) -> MemoryConfig {
        MemoryConfig::new(words, width).unwrap()
    }

    #[test]
    fn config_validation() {
        assert!(MemoryConfig::new(0, 8).is_err());
        assert!(MemoryConfig::new(4, 0).is_err());
        assert!(MemoryConfig::new(4, 200).is_err());
        let c = config(4, 8);
        assert_eq!(c.cells(), 32);
        assert_eq!(c.word_zeros(), Word::zeros(8));
        assert_eq!(c.word_ones(), Word::ones(8));
        let bit = MemoryConfig::bit_oriented(16).unwrap();
        assert_eq!(bit.width(), 1);
    }

    #[test]
    fn fault_free_memory_reads_back_writes() {
        let mut mem = FaultyMemory::fault_free(config(8, 8));
        let value = Word::from_bits(0b1100_0011, 8).unwrap();
        mem.write_word(5, value).unwrap();
        assert_eq!(mem.read_word(5).unwrap(), value);
        assert_eq!(mem.stats().writes, 1);
        assert_eq!(mem.stats().reads, 1);
    }

    #[test]
    fn stuck_at_fault_dominates_writes_and_initialization() {
        let saf = Fault::stuck_at(BitAddress::new(2, 3), true);
        let mut mem = FaultyMemory::with_faults(config(4, 8), vec![saf]).unwrap();
        // After construction the stuck cell already holds 1.
        assert!(mem.peek_bit(BitAddress::new(2, 3)).unwrap());
        mem.write_word(2, Word::zeros(8)).unwrap();
        assert!(mem.read_word(2).unwrap().bit(3));
        mem.fill(Word::zeros(8)).unwrap();
        assert!(mem.peek_bit(BitAddress::new(2, 3)).unwrap());
    }

    #[test]
    fn transition_fault_blocks_only_its_direction() {
        let tf = Fault::transition(BitAddress::new(1, 0), Transition::Rising);
        let mut mem = FaultyMemory::with_faults(config(4, 4), vec![tf]).unwrap();
        // 0 -> 1 fails.
        mem.write_word(1, Word::ones(4)).unwrap();
        assert!(!mem.read_word(1).unwrap().bit(0));
        assert!(mem.read_word(1).unwrap().bit(1));
        // Force the cell to 1 via initialization, then 1 -> 0 succeeds.
        mem.fill(Word::ones(4)).unwrap();
        mem.write_word(1, Word::zeros(4)).unwrap();
        assert!(!mem.read_word(1).unwrap().bit(0));
    }

    #[test]
    fn idempotent_coupling_fault_forces_victim_on_trigger() {
        let aggressor = BitAddress::new(0, 0);
        let victim = BitAddress::new(2, 1);
        let cfid = Fault::coupling_idempotent(aggressor, victim, Transition::Rising, true);
        let mut mem = FaultyMemory::with_faults(config(4, 4), vec![cfid]).unwrap();
        // Rising write on the aggressor forces the victim to 1.
        mem.write_word(0, Word::from_bits(0b0001, 4).unwrap())
            .unwrap();
        assert!(mem.peek_bit(victim).unwrap());
        // A second rising transition cannot occur without first falling.
        mem.write_bit(victim, false).unwrap();
        mem.write_word(0, Word::from_bits(0b0001, 4).unwrap())
            .unwrap();
        assert!(
            !mem.peek_bit(victim).unwrap(),
            "no new transition, no activation"
        );
    }

    #[test]
    fn inversion_coupling_fault_inverts_victim_on_trigger() {
        let aggressor = BitAddress::new(3, 2);
        let victim = BitAddress::new(3, 0);
        let cfin = Fault::coupling_inversion(aggressor, victim, Transition::Falling);
        let mut mem = FaultyMemory::with_faults(config(4, 4), vec![cfin]).unwrap();
        mem.fill(Word::ones(4)).unwrap();
        // Falling write on the aggressor inverts the victim (1 -> 0).
        mem.write_word(3, Word::from_bits(0b1011, 4).unwrap())
            .unwrap();
        let read = mem.peek_word(3).unwrap();
        assert!(!read.bit(0), "victim inverted");
        assert!(!read.bit(2), "aggressor written");
    }

    #[test]
    fn state_coupling_fault_holds_victim_while_active() {
        let aggressor = BitAddress::new(0, 1);
        let victim = BitAddress::new(1, 1);
        let cfst = Fault::coupling_state(aggressor, victim, true, false);
        let mut mem = FaultyMemory::with_faults(config(2, 4), vec![cfst]).unwrap();
        // Activate the aggressor.
        mem.write_word(0, Word::from_bits(0b0010, 4).unwrap())
            .unwrap();
        // Any attempt to set the victim to 1 is overridden while active.
        mem.write_word(1, Word::ones(4)).unwrap();
        assert!(!mem.peek_bit(victim).unwrap());
        // Deactivate the aggressor, then the victim can be written.
        mem.write_word(0, Word::zeros(4)).unwrap();
        mem.write_word(1, Word::ones(4)).unwrap();
        assert!(mem.peek_bit(victim).unwrap());
    }

    #[test]
    fn intra_word_coupling_applies_within_a_single_write() {
        // Aggressor bit 0 rising forces victim bit 3 (same word) to 0.
        let aggressor = BitAddress::new(0, 0);
        let victim = BitAddress::new(0, 3);
        let cfid = Fault::coupling_idempotent(aggressor, victim, Transition::Rising, false);
        let mut mem = FaultyMemory::with_faults(config(2, 4), vec![cfid]).unwrap();
        // Write 1 to both bits in one word write: aggressor rises, victim forced back to 0.
        mem.write_word(0, Word::from_bits(0b1001, 4).unwrap())
            .unwrap();
        let read = mem.peek_word(0).unwrap();
        assert!(read.bit(0));
        assert!(!read.bit(3));
    }

    #[test]
    fn coupling_chain_propagates_transitively() {
        // a rising -> b forced to 1; b rising -> c forced to 1.
        let a = BitAddress::new(0, 0);
        let b = BitAddress::new(1, 0);
        let c = BitAddress::new(2, 0);
        let faults = vec![
            Fault::coupling_idempotent(a, b, Transition::Rising, true),
            Fault::coupling_idempotent(b, c, Transition::Rising, true),
        ];
        let mut mem = FaultyMemory::with_faults(config(4, 1), faults).unwrap();
        mem.write_word(0, Word::ones(1)).unwrap();
        assert!(mem.peek_bit(b).unwrap());
        assert!(mem.peek_bit(c).unwrap());
    }

    #[test]
    fn coupling_cycle_terminates() {
        // Two inversion faults coupling each other: propagation must not hang.
        let a = BitAddress::new(0, 0);
        let b = BitAddress::new(1, 0);
        let faults = vec![
            Fault::coupling_inversion(a, b, Transition::Rising),
            Fault::coupling_inversion(b, a, Transition::Rising),
        ];
        let mut mem = FaultyMemory::with_faults(config(2, 1), faults).unwrap();
        mem.write_word(0, Word::ones(1)).unwrap();
        // Reaching this point is the assertion (bounded propagation).
    }

    #[test]
    fn write_rejects_bad_shapes() {
        let mut mem = FaultyMemory::fault_free(config(2, 8));
        assert!(matches!(
            mem.write_word(9, Word::zeros(8)),
            Err(MemError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            mem.write_word(0, Word::zeros(4)),
            Err(MemError::WidthMismatch { .. })
        ));
        assert!(matches!(
            mem.write_bit(BitAddress::new(0, 9), true),
            Err(MemError::BitOutOfRange { .. })
        ));
    }

    #[test]
    fn tracing_records_accesses() {
        let mut mem = FaultyMemory::fault_free(config(2, 4));
        mem.set_tracing(true);
        mem.write_word(0, Word::ones(4)).unwrap();
        mem.read_word(0).unwrap();
        let trace = mem.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.writes().len(), 1);
        assert_eq!(trace.reads().len(), 1);
        assert!(mem.take_trace().is_empty());
    }

    #[test]
    fn fill_random_is_deterministic_and_transparent_baseline() {
        let mut a = FaultyMemory::fault_free(config(16, 8));
        let mut b = FaultyMemory::fault_free(config(16, 8));
        a.fill_random(99);
        b.fill_random(99);
        assert_eq!(a.content(), b.content());
        let mut c = FaultyMemory::fault_free(config(16, 8));
        c.fill_random(100);
        assert_ne!(a.content(), c.content());
    }

    /// Drives a memory through a representative access mix so reuse tests
    /// can compare observable behaviour, not just the initial state.
    fn exercise(mem: &mut FaultyMemory) -> (Vec<Word>, Vec<Word>) {
        let width = mem.width();
        let mut reads = Vec::new();
        for address in 0..mem.words() {
            mem.write_word(address, Word::ones(width)).unwrap();
            reads.push(mem.read_word(address).unwrap());
            mem.write_word(address, Word::zeros(width)).unwrap();
            reads.push(mem.read_word(address).unwrap());
        }
        (reads, mem.content())
    }

    #[test]
    fn reused_memory_is_indistinguishable_from_fresh() {
        let c = config(6, 4);
        let first = vec![
            Fault::stuck_at(BitAddress::new(1, 2), true),
            Fault::coupling_state(BitAddress::new(0, 0), BitAddress::new(3, 1), false, true),
        ];
        let second = Fault::coupling_idempotent(
            BitAddress::new(2, 0),
            BitAddress::new(4, 3),
            Transition::Rising,
            true,
        );

        // Dirty the arena memory thoroughly: faults, content, stats, trace.
        let mut arena = FaultyMemory::with_faults(c, first).unwrap();
        arena.set_tracing(true);
        arena.fill_random(77);
        let _ = exercise(&mut arena);
        assert!(arena.stats().total() > 0);
        assert!(!arena.take_trace().is_empty());
        let _ = exercise(&mut arena);

        // Re-arm every word with a different fault; compare against a
        // fresh build.
        let every_word: Vec<usize> = (0..c.words()).collect();
        arena.rearm_local(&[second], None, &every_word).unwrap();
        let mut fresh = FaultyMemory::with_faults(c, vec![second]).unwrap();
        fresh.set_tracing(true);
        assert_eq!(arena.content(), fresh.content());
        assert_eq!(arena.stats(), AccessStats::default());
        assert_eq!(arena.faults(), fresh.faults());
        assert!(arena.take_trace().is_empty());
        let (arena_reads, arena_content) = exercise(&mut arena);
        let (fresh_reads, fresh_content) = exercise(&mut fresh);
        assert_eq!(arena_reads, fresh_reads);
        assert_eq!(arena_content, fresh_content);
        assert_eq!(arena.stats(), fresh.stats());
        assert_eq!(arena.take_trace(), fresh.take_trace());
    }

    #[test]
    fn load_image_agrees_with_word_level_load() {
        let c = config(9, 13);
        let saf = Fault::stuck_at(BitAddress::new(4, 7), true);
        // Snapshot a pseudo-random content from a fault-free scratch memory.
        let mut scratch = FaultyMemory::fault_free(c);
        scratch.fill_random(55);
        let image = scratch.snapshot();
        let content = scratch.content();
        // Restoring via the image equals rebuilding word by word.
        let mut by_image = FaultyMemory::with_faults(c, vec![saf]).unwrap();
        by_image.load_image(&image).unwrap();
        let mut by_words = FaultyMemory::with_faults(c, vec![saf]).unwrap();
        by_words.load(&content).unwrap();
        assert_eq!(by_image.content(), by_words.content());
        // Shape mismatches are rejected.
        let other = FaultyMemory::fault_free(config(4, 13)).snapshot();
        assert!(by_image.load_image(&other).is_err());
    }

    #[test]
    fn rearm_words_equals_a_full_reset_and_image_load() {
        let c = config(6, 4);
        let mut scratch = FaultyMemory::fault_free(c);
        scratch.fill_random(21);
        let image = scratch.snapshot();
        let first = vec![
            Fault::stuck_at(BitAddress::new(1, 2), true),
            Fault::coupling_state(BitAddress::new(0, 0), BitAddress::new(3, 1), false, true),
        ];
        let second = vec![Fault::coupling_idempotent(
            BitAddress::new(2, 0),
            BitAddress::new(4, 3),
            Transition::Rising,
            true,
        )];

        // A run under `first` that writes only words 0, 1 and 3.
        let mut arena = FaultyMemory::with_faults(c, first).unwrap();
        arena.load_image(&image).unwrap();
        for address in [0, 1, 3] {
            arena.write_word(address, Word::ones(4)).unwrap();
        }
        arena
            .rearm_words(second.clone(), &image, &[0, 1, 3])
            .unwrap();
        let mut fresh = FaultyMemory::with_faults(c, second).unwrap();
        fresh.load_image(&image).unwrap();
        assert_eq!(arena.content(), fresh.content());
        assert_eq!(arena.faults(), fresh.faults());
        assert_eq!(arena.stats(), AccessStats::default());
        assert_eq!(exercise(&mut arena), exercise(&mut fresh));

        // Bad faults, images and words are rejected and change nothing.
        let before = arena.content();
        let bad_fault = vec![Fault::stuck_at(BitAddress::new(9, 0), true)];
        assert!(arena.rearm_words(bad_fault, &image, &[0]).is_err());
        let small = FaultyMemory::fault_free(config(4, 4)).snapshot();
        assert!(arena.rearm_words(FaultSet::new(), &small, &[0]).is_err());
        let narrow = FaultyMemory::fault_free(config(6, 3)).snapshot();
        assert!(arena.rearm_words(FaultSet::new(), &narrow, &[0]).is_err());
        assert!(arena.rearm_words(FaultSet::new(), &image, &[0, 6]).is_err());
        assert_eq!(arena.content(), before);
        assert_eq!(arena.faults().len(), 1);
    }

    #[test]
    fn rearm_local_restores_only_the_listed_words() {
        let c = config(6, 4);
        let mut scratch = FaultyMemory::fault_free(c);
        scratch.fill_random(21);
        let image = scratch.snapshot();
        let faults = [Fault::coupling_state(
            BitAddress::new(2, 0),
            BitAddress::new(4, 3),
            true,
            true,
        )];
        for image in [Some(&image), None] {
            // Every word dirty; only the footprint {2, 4} is restored.
            let mut arena = FaultyMemory::fault_free(c);
            arena.fill(Word::ones(4)).unwrap();
            arena.rearm_local(&faults, image, &[2, 4]).unwrap();
            let mut fresh = FaultyMemory::with_faults(c, faults.to_vec()).unwrap();
            if let Some(image) = image {
                fresh.load_image(image).unwrap();
            }
            for word in [2, 4] {
                assert_eq!(arena.peek_word(word), fresh.peek_word(word));
            }
            assert_eq!(arena.peek_word(0).unwrap(), Word::ones(4));
            assert_eq!(arena.faults(), fresh.faults());
            assert_eq!(arena.stats(), AccessStats::default());
        }

        // Bad faults, images and words are rejected and change nothing.
        let mut arena = FaultyMemory::with_faults(c, faults.to_vec()).unwrap();
        arena.fill_random(5);
        let before = arena.content();
        let bad_fault = [Fault::stuck_at(BitAddress::new(9, 0), true)];
        assert!(arena.rearm_local(&bad_fault, Some(&image), &[0]).is_err());
        let small = FaultyMemory::fault_free(config(4, 4)).snapshot();
        assert!(arena.rearm_local(&[], Some(&small), &[0]).is_err());
        assert!(arena.rearm_local(&[], None, &[0, 6]).is_err());
        assert_eq!(arena.content(), before);
        assert_eq!(arena.faults().len(), 1);
    }

    #[test]
    fn inject_and_clear_faults() {
        let mut mem = FaultyMemory::fault_free(config(2, 4));
        mem.inject(Fault::stuck_at(BitAddress::new(0, 0), true))
            .unwrap();
        assert_eq!(mem.faults().len(), 1);
        assert!(mem.peek_bit(BitAddress::new(0, 0)).unwrap());
        assert!(mem
            .inject(Fault::stuck_at(BitAddress::new(9, 0), true))
            .is_err());
        mem.clear_faults();
        assert!(mem.faults().is_empty());
    }
}
