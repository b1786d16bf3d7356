use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::{BitAddress, Fault, FaultClass, FaultIndex, MemError};

/// A collection of faults injected into a memory.
///
/// The set keeps faults in insertion order and offers per-cell lookups used
/// by the simulator on every write. A [`FaultSet`] is validated against a
/// memory shape when the [`crate::FaultyMemory`] is constructed.
///
/// The set lazily maintains a [`FaultIndex`] — per-word stuck-at /
/// transition bit masks plus an aggressor → victim adjacency map — which is
/// what the simulator's write path actually queries. The index is built on
/// first use and invalidated whenever the set is mutated; the per-cell
/// linear lookups ([`FaultSet::stuck_at`] and friends) remain available for
/// one-off queries.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct FaultSet {
    faults: Vec<Fault>,
    #[serde(skip)]
    index: OnceLock<FaultIndex>,
}

impl Clone for FaultSet {
    fn clone(&self) -> Self {
        // The cached index is cheap to rebuild and usually stale-prone in
        // clones that are about to be mutated, so it is not carried over.
        Self {
            faults: self.faults.clone(),
            index: OnceLock::new(),
        }
    }
}

impl PartialEq for FaultSet {
    fn eq(&self, other: &Self) -> bool {
        self.faults == other.faults
    }
}

impl Eq for FaultSet {}

impl FaultSet {
    /// Creates an empty fault set (a fault-free memory).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a fault set from an iterator of faults.
    pub fn from_faults<I: IntoIterator<Item = Fault>>(faults: I) -> Self {
        Self {
            faults: faults.into_iter().collect(),
            index: OnceLock::new(),
        }
    }

    /// Adds a fault to the set.
    pub fn insert(&mut self, fault: Fault) {
        self.faults.push(fault);
        self.index = OnceLock::new();
    }

    /// Removes every fault, keeping the underlying allocation.
    ///
    /// The cached [`FaultIndex`] is invalidated, so a cleared set behaves
    /// exactly like [`FaultSet::new`] — this is what allows
    /// [`crate::FaultyMemory`] arenas to be re-armed with a new fault
    /// without allocating a fresh set per run.
    pub fn clear(&mut self) {
        self.faults.clear();
        self.index = OnceLock::new();
    }

    /// The precomputed per-word / per-aggressor lookup index.
    ///
    /// Built on first call and cached until the set is mutated. This is the
    /// structure the simulator's write path queries instead of scanning the
    /// fault list per bit.
    pub fn index(&self) -> &FaultIndex {
        self.index.get_or_init(|| FaultIndex::build(&self.faults))
    }

    /// Number of faults in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the set contains no faults.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Iterates over the faults in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Fault> {
        self.faults.iter()
    }

    /// All faults of a given class.
    #[must_use]
    pub fn of_class(&self, class: FaultClass) -> Vec<&Fault> {
        self.faults.iter().filter(|f| f.class() == class).collect()
    }

    /// The sorted, deduplicated word addresses the set's faults touch as
    /// victim or aggressor — the footprint a fault-local sweep
    /// (`twm_bist::detect_lowered_at`) must visit. A word outside the
    /// footprint hosts no faulty cell and no aggressor, so it behaves
    /// exactly like a fault-free word under any march test.
    #[must_use]
    pub fn word_footprint(&self) -> Vec<usize> {
        let mut words: Vec<usize> = self
            .faults
            .iter()
            .flat_map(|fault| fault.cells().into_iter().map(|cell| cell.word))
            .collect();
        words.sort_unstable();
        words.dedup();
        words
    }

    /// Stuck-at value for a cell, if the cell has a stuck-at fault.
    #[must_use]
    pub fn stuck_at(&self, cell: BitAddress) -> Option<bool> {
        self.faults.iter().find_map(|f| match *f {
            Fault::StuckAt { cell: c, value } if c == cell => Some(value),
            _ => None,
        })
    }

    /// Transition faults affecting a cell.
    ///
    /// Returns a lazy iterator — no allocation per call. Use `.count()` /
    /// `.collect()` at call sites that need the old `Vec` behaviour.
    pub fn transition_faults(&self, cell: BitAddress) -> impl Iterator<Item = &Fault> + '_ {
        self.faults
            .iter()
            .filter(move |f| matches!(f, Fault::TransitionFault { cell: c, .. } if *c == cell))
    }

    /// Coupling faults whose aggressor is the given cell.
    #[must_use]
    pub fn coupled_by(&self, aggressor: BitAddress) -> Vec<&Fault> {
        self.faults
            .iter()
            .filter(|f| f.aggressor() == Some(aggressor))
            .collect()
    }

    /// Validates every fault against a memory shape.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::FaultCellOutOfRange`] if a fault references a cell
    /// outside an `words × width` memory, or [`MemError::SelfCoupling`] if a
    /// coupling fault uses the same cell for aggressor and victim.
    pub fn validate(&self, words: usize, width: usize) -> Result<(), MemError> {
        for fault in &self.faults {
            Self::validate_fault(fault, words, width)?;
        }
        Ok(())
    }

    /// Validates a single fault against a memory shape, with the same rules
    /// as [`FaultSet::validate`] but without constructing a set.
    ///
    /// # Errors
    ///
    /// See [`FaultSet::validate`].
    pub fn validate_fault(fault: &Fault, words: usize, width: usize) -> Result<(), MemError> {
        // `Fault::cells` order (aggressor first), without its allocation:
        // the re-arm paths validate every fault they inject.
        for cell in [fault.aggressor(), Some(fault.victim())]
            .into_iter()
            .flatten()
        {
            if cell.word >= words || cell.bit >= width {
                return Err(MemError::FaultCellOutOfRange { cell });
            }
        }
        if let Some(aggressor) = fault.aggressor() {
            if aggressor == fault.victim() {
                return Err(MemError::SelfCoupling { cell: aggressor });
            }
        }
        Ok(())
    }

    /// Consumes the set and returns the underlying faults.
    #[must_use]
    pub fn into_inner(self) -> Vec<Fault> {
        self.faults
    }
}

impl FromIterator<Fault> for FaultSet {
    fn from_iter<I: IntoIterator<Item = Fault>>(iter: I) -> Self {
        Self::from_faults(iter)
    }
}

impl Extend<Fault> for FaultSet {
    fn extend<I: IntoIterator<Item = Fault>>(&mut self, iter: I) {
        self.faults.extend(iter);
        self.index = OnceLock::new();
    }
}

impl From<Vec<Fault>> for FaultSet {
    fn from(faults: Vec<Fault>) -> Self {
        Self {
            faults,
            index: OnceLock::new(),
        }
    }
}

impl IntoIterator for FaultSet {
    type Item = Fault;
    type IntoIter = std::vec::IntoIter<Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.into_iter()
    }
}

impl<'a> IntoIterator for &'a FaultSet {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transition;

    fn cell(word: usize, bit: usize) -> BitAddress {
        BitAddress::new(word, bit)
    }

    #[test]
    fn empty_set_is_fault_free() {
        let set = FaultSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(set.validate(4, 8).is_ok());
        assert!(set.word_footprint().is_empty());
    }

    #[test]
    fn word_footprint_is_the_sorted_union_of_victim_and_aggressor_words() {
        let set = FaultSet::from_faults(vec![
            Fault::stuck_at(cell(7, 1), true),
            Fault::transition(cell(7, 3), Transition::Rising),
            Fault::coupling_inversion(cell(9, 0), cell(2, 3), Transition::Falling),
            Fault::coupling_state(cell(2, 0), cell(2, 1), false, true),
        ]);
        assert_eq!(set.word_footprint(), vec![2, 7, 9]);
    }

    #[test]
    fn lookup_by_cell_and_class() {
        let set = FaultSet::from_faults(vec![
            Fault::stuck_at(cell(0, 1), true),
            Fault::transition(cell(0, 1), Transition::Rising),
            Fault::coupling_inversion(cell(0, 1), cell(2, 3), Transition::Falling),
            Fault::coupling_state(cell(1, 0), cell(0, 1), false, true),
        ]);
        assert_eq!(set.len(), 4);
        assert_eq!(set.stuck_at(cell(0, 1)), Some(true));
        assert_eq!(set.stuck_at(cell(2, 3)), None);
        assert_eq!(set.transition_faults(cell(0, 1)).count(), 1);
        assert_eq!(set.coupled_by(cell(0, 1)).len(), 1);
        assert_eq!(set.coupled_by(cell(1, 0)).len(), 1);
        assert_eq!(set.of_class(FaultClass::Cfst).len(), 1);
        assert_eq!(set.of_class(FaultClass::Saf).len(), 1);
    }

    #[test]
    fn validate_rejects_out_of_range_cells() {
        let set = FaultSet::from_faults(vec![Fault::stuck_at(cell(9, 0), true)]);
        assert!(matches!(
            set.validate(4, 8),
            Err(MemError::FaultCellOutOfRange { .. })
        ));

        let set = FaultSet::from_faults(vec![Fault::stuck_at(cell(0, 8), true)]);
        assert!(matches!(
            set.validate(4, 8),
            Err(MemError::FaultCellOutOfRange { .. })
        ));
    }

    #[test]
    fn validate_rejects_self_coupling() {
        let set = FaultSet::from_faults(vec![Fault::coupling_inversion(
            cell(1, 1),
            cell(1, 1),
            Transition::Rising,
        )]);
        assert!(matches!(
            set.validate(4, 8),
            Err(MemError::SelfCoupling { .. })
        ));
    }

    #[test]
    fn clear_empties_and_invalidates_index() {
        let mut set = FaultSet::from_faults(vec![Fault::stuck_at(cell(0, 1), true)]);
        assert!(set.index().word_masks(0).is_some());
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set, FaultSet::new());
        assert!(set.index().word_masks(0).is_none());
        // A cleared set can be re-armed and indexes the new fault only.
        set.insert(Fault::transition(cell(1, 0), Transition::Falling));
        assert_eq!(set.stuck_at(cell(0, 1)), None);
        assert_eq!(set.transition_faults(cell(1, 0)).count(), 1);
    }

    #[test]
    fn collection_traits_work() {
        let faults = vec![
            Fault::stuck_at(cell(0, 0), false),
            Fault::stuck_at(cell(1, 0), true),
        ];
        let set: FaultSet = faults.clone().into_iter().collect();
        assert_eq!(set.len(), 2);
        let mut extended = set.clone();
        extended.extend(vec![Fault::stuck_at(cell(2, 0), true)]);
        assert_eq!(extended.len(), 3);
        let back: Vec<Fault> = set.into_iter().collect();
        assert_eq!(back, faults);
    }
}
