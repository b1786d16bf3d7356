//! Spare allocation: located defects → a verified-repairable spare plan.
//!
//! Word-level redundancy means each defective word costs exactly one spare.
//! With enough spares the assignment is trivial; when defects outnumber
//! spares the allocator must *choose*, and the choice matters: a word
//! hosting a strongly confirmed defect ("must-repair") should beat a word
//! with many weak hypotheses. [`RepairAllocator`] offers both policies of
//! the classic redundancy-analysis trade-off:
//!
//! * **greedy** — words ranked by accumulated evidence, spares assigned in
//!   rank order (fast, optimal when all defects weigh equally);
//! * **exact for small spare counts** — an exhaustive subset search
//!   maximising `(must-repair words covered, total evidence covered)`,
//!   feasible because field spare counts are tiny; beyond the configured
//!   bounds it falls back to greedy.
//!
//! Both are deterministic; ties break toward lower word addresses.

use serde::{Deserialize, Serialize};

use twm_mem::{BitAddress, MemError, RemapEntry, RepairableMemory};

use crate::localise::LocatedDefect;

/// One planned repair: a logical word served by a spare slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairAssignment {
    /// The defective logical word.
    pub word: usize,
    /// The spare slot assigned to it.
    pub spare: usize,
    /// The located defect cells motivating the repair.
    pub defects: Vec<BitAddress>,
}

/// A complete spare-assignment plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepairPlan {
    /// The assignments, in ascending word order.
    pub assignments: Vec<RepairAssignment>,
    /// Defects in words the plan could not cover (spares exhausted).
    pub unrepaired: Vec<LocatedDefect>,
    /// Words classified as must-repair (hosting a defect at or above the
    /// allocator's confidence floor), ascending.
    pub must_repair_words: Vec<usize>,
    /// Spare slots the plan was allocated against.
    pub spares_available: usize,
}

impl RepairPlan {
    /// Whether every located defect is covered by an assignment.
    #[must_use]
    pub fn fully_repairs(&self) -> bool {
        self.unrepaired.is_empty()
    }

    /// Whether every must-repair word is covered.
    #[must_use]
    pub fn covers_must_repair(&self) -> bool {
        self.must_repair_words
            .iter()
            .all(|word| self.assignments.iter().any(|a| a.word == *word))
    }

    /// Whether the plan assigns no spares.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// The remap entries [`RepairPlan::apply`] programs, in order (the
    /// input of [`twm_bist::FaultLocalSession::run_repaired`]).
    #[must_use]
    pub fn remaps(&self) -> Vec<RemapEntry> {
        self.assignments
            .iter()
            .map(|assignment| RemapEntry {
                word: assignment.word,
                spare: assignment.spare,
            })
            .collect()
    }

    /// Applies the plan to a repairable memory, programming one remap
    /// entry per assignment.
    ///
    /// # Errors
    ///
    /// Returns the remap errors of
    /// [`RepairableMemory::map_word`] — notably
    /// [`MemError::SpareInUse`] / [`MemError::AddressOutOfRange`] if the
    /// memory does not have the spares the plan assumed.
    pub fn apply(&self, memory: &mut RepairableMemory) -> Result<(), MemError> {
        for assignment in &self.assignments {
            memory.map_word(assignment.word, assignment.spare)?;
        }
        Ok(())
    }
}

/// Options for [`RepairAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocatorOptions {
    /// Run the exact subset search when within
    /// [`AllocatorOptions::max_exact_spares`] /
    /// [`AllocatorOptions::max_exact_words`] (default: `true`; otherwise
    /// always greedy).
    pub exact: bool,
    /// Largest spare count the exact search enumerates (default: 12).
    pub max_exact_spares: usize,
    /// Largest candidate-word count the exact search enumerates
    /// (default: 20 — `C(20, 12)` subsets remain cheap).
    pub max_exact_words: usize,
    /// Defects at or above this confidence make their word must-repair
    /// (default: 0.65 — at least two independent evidence sources).
    pub must_repair_floor: f64,
    /// Defects below this confidence are ignored entirely (default: 0.0).
    pub confidence_floor: f64,
}

impl Default for AllocatorOptions {
    fn default() -> Self {
        Self {
            exact: true,
            max_exact_spares: 12,
            max_exact_words: 20,
            must_repair_floor: 0.65,
            confidence_floor: 0.0,
        }
    }
}

/// The spare allocator — see the [module docs](self).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepairAllocator {
    options: AllocatorOptions,
}

/// Per-word aggregation of located defects.
#[derive(Debug)]
struct WordDefects {
    word: usize,
    cells: Vec<BitAddress>,
    /// Confidence sum in deterministic integer milli-units.
    weight: u64,
    must_repair: bool,
}

impl RepairAllocator {
    /// An allocator with explicit options.
    #[must_use]
    pub fn new(options: AllocatorOptions) -> Self {
        Self { options }
    }

    /// The allocator's options.
    #[must_use]
    pub fn options(&self) -> AllocatorOptions {
        self.options
    }

    /// Assigns up to `spares` spare slots to the words hosting `defects`.
    ///
    /// Chosen words are assigned slots `0..` in ascending word order; the
    /// produced plan is deterministic for any input order of `defects`.
    #[must_use]
    pub fn allocate(&self, defects: &[LocatedDefect], spares: usize) -> RepairPlan {
        let considered: Vec<&LocatedDefect> = defects
            .iter()
            .filter(|defect| defect.confidence >= self.options.confidence_floor)
            .collect();

        // Aggregate per word, ascending.
        let mut words: Vec<WordDefects> = Vec::new();
        for defect in &considered {
            let weight = (defect.confidence * 1000.0).round() as u64;
            let must = defect.confidence >= self.options.must_repair_floor;
            match words.iter_mut().find(|w| w.word == defect.cell.word) {
                Some(entry) => {
                    entry.cells.push(defect.cell);
                    entry.weight += weight;
                    entry.must_repair |= must;
                }
                None => words.push(WordDefects {
                    word: defect.cell.word,
                    cells: vec![defect.cell],
                    weight,
                    must_repair: must,
                }),
            }
        }
        words.sort_by_key(|w| w.word);
        for entry in &mut words {
            entry.cells.sort();
            entry.cells.dedup();
        }

        let must_repair_words: Vec<usize> = words
            .iter()
            .filter(|w| w.must_repair)
            .map(|w| w.word)
            .collect();

        let chosen: Vec<usize> = if words.len() <= spares {
            (0..words.len()).collect()
        } else if self.options.exact
            && spares <= self.options.max_exact_spares
            // The hard cap keeps the bitmask enumeration bounded even under
            // adventurous option values.
            && words.len() <= self.options.max_exact_words.min(22)
        {
            exact_choice(&words, spares)
        } else {
            greedy_choice(&words, spares)
        };

        let mut chosen = chosen;
        chosen.sort_unstable();
        let assignments: Vec<RepairAssignment> = chosen
            .iter()
            .enumerate()
            .map(|(slot, &index)| RepairAssignment {
                word: words[index].word,
                spare: slot,
                defects: words[index].cells.clone(),
            })
            .collect();
        let covered: Vec<usize> = assignments.iter().map(|a| a.word).collect();
        let unrepaired: Vec<LocatedDefect> = considered
            .into_iter()
            .filter(|defect| !covered.contains(&defect.cell.word))
            .cloned()
            .collect();

        RepairPlan {
            assignments,
            unrepaired,
            must_repair_words,
            spares_available: spares,
        }
    }
}

/// Greedy ranking: must-repair words first, then by evidence weight, then
/// by defect count, ties toward lower addresses.
fn greedy_choice(words: &[WordDefects], spares: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..words.len()).collect();
    order.sort_by(|&a, &b| {
        let (wa, wb) = (&words[a], &words[b]);
        wb.must_repair
            .cmp(&wa.must_repair)
            .then(wb.weight.cmp(&wa.weight))
            .then(wb.cells.len().cmp(&wa.cells.len()))
            .then(wa.word.cmp(&wb.word))
    });
    order.truncate(spares);
    order
}

/// Exhaustive subset search maximising `(must-repair covered, weight
/// covered)`; the lexicographically smallest word set wins ties. Bounded
/// by the allocator options, so the bitmask enumeration stays cheap.
fn exact_choice(words: &[WordDefects], spares: usize) -> Vec<usize> {
    debug_assert!(words.len() > spares);
    let n = words.len();
    let mut best: Option<(usize, u64, Vec<usize>)> = None;
    // Enumerate every subset of exactly `spares` words.
    for mask in 0u64..(1u64 << n) {
        if mask.count_ones() as usize != spares {
            continue;
        }
        let subset: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let must = subset.iter().filter(|&&i| words[i].must_repair).count();
        let weight: u64 = subset.iter().map(|&i| words[i].weight).sum();
        let better = match &best {
            None => true,
            Some((best_must, best_weight, best_subset)) => (must, weight)
                .cmp(&(*best_must, *best_weight))
                .then_with(|| best_subset.cmp(&subset))
                .is_gt(),
        };
        if better {
            best = Some((must, weight, subset));
        }
    }
    best.map(|(_, _, subset)| subset).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localise::DefectEvidence;
    use twm_mem::{BitAddress, Fault, MemoryBuilder, Word};

    fn defect(word: usize, bit: usize, confidence: f64) -> LocatedDefect {
        LocatedDefect {
            cell: BitAddress::new(word, bit),
            hypothesis: None,
            stuck_value: None,
            confidence,
            evidence: DefectEvidence::default(),
        }
    }

    #[test]
    fn enough_spares_cover_everything() {
        let allocator = RepairAllocator::default();
        let defects = vec![defect(1, 0, 0.9), defect(5, 3, 0.7), defect(1, 2, 0.4)];
        let plan = allocator.allocate(&defects, 4);
        assert!(plan.fully_repairs());
        assert!(plan.covers_must_repair());
        assert_eq!(plan.assignments.len(), 2);
        assert_eq!(plan.assignments[0].word, 1);
        assert_eq!(plan.assignments[0].spare, 0);
        assert_eq!(plan.assignments[0].defects.len(), 2);
        assert_eq!(plan.assignments[1].word, 5);
        assert_eq!(plan.assignments[1].spare, 1);
        assert_eq!(plan.must_repair_words, vec![1, 5]);
    }

    #[test]
    fn exact_prefers_must_repair_over_many_weak_defects() {
        let allocator = RepairAllocator::default();
        // Word 2 hosts three weak hypotheses (total weight 900), word 7 one
        // strongly confirmed defect (weight 800, must-repair).
        let defects = vec![
            defect(2, 0, 0.3),
            defect(2, 1, 0.3),
            defect(2, 2, 0.3),
            defect(7, 4, 0.8),
        ];
        let plan = allocator.allocate(&defects, 1);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].word, 7);
        assert!(plan.covers_must_repair());
        assert!(!plan.fully_repairs());
        assert_eq!(plan.unrepaired.len(), 3);

        // The pure-greedy fallback ranks must-repair first too.
        let greedy = RepairAllocator::new(AllocatorOptions {
            exact: false,
            ..AllocatorOptions::default()
        })
        .allocate(&defects, 1);
        assert_eq!(greedy.assignments, plan.assignments);
    }

    #[test]
    fn weight_breaks_ties_without_must_repair() {
        let allocator = RepairAllocator::default();
        let defects = vec![defect(0, 0, 0.4), defect(3, 1, 0.5), defect(9, 2, 0.2)];
        let plan = allocator.allocate(&defects, 2);
        let words: Vec<usize> = plan.assignments.iter().map(|a| a.word).collect();
        assert_eq!(words, vec![0, 3]);
        assert_eq!(plan.unrepaired.len(), 1);
        assert_eq!(plan.unrepaired[0].cell.word, 9);
        assert!(plan.must_repair_words.is_empty());
        assert!(plan.covers_must_repair());
    }

    #[test]
    fn confidence_floor_filters_noise() {
        let allocator = RepairAllocator::new(AllocatorOptions {
            confidence_floor: 0.5,
            ..AllocatorOptions::default()
        });
        let plan = allocator.allocate(&[defect(1, 0, 0.2), defect(2, 0, 0.9)], 4);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].word, 2);
        // The filtered defect is neither assigned nor reported unrepaired.
        assert!(plan.fully_repairs());
    }

    #[test]
    fn zero_spares_leave_everything_unrepaired() {
        let plan = RepairAllocator::default().allocate(&[defect(4, 1, 0.9)], 0);
        assert!(plan.is_empty());
        assert!(!plan.fully_repairs());
        assert!(!plan.covers_must_repair());
        assert_eq!(plan.unrepaired.len(), 1);
    }

    #[test]
    fn apply_programs_the_remap_table() {
        let faulty = MemoryBuilder::new(8, 4)
            .random_content(3)
            .fault(Fault::stuck_at(BitAddress::new(6, 1), true))
            .build()
            .unwrap();
        let mut memory = RepairableMemory::new(faulty, 2).unwrap();
        let plan = RepairAllocator::default().allocate(&[defect(6, 1, 0.9)], 2);
        plan.apply(&mut memory).unwrap();
        assert_eq!(memory.mapped_spare(6), Some(0));
        memory.write_word(6, Word::zeros(4)).unwrap();
        assert!(memory.read_word(6).unwrap().is_zero());
        // Applying twice fails (slot in use / word remapped).
        assert!(plan.apply(&mut memory).is_err());
    }

    #[test]
    fn greedy_and_exact_agree_when_spares_suffice() {
        let defects: Vec<LocatedDefect> =
            (0..6).map(|w| defect(w, 0, 0.1 + 0.1 * w as f64)).collect();
        let exact = RepairAllocator::default().allocate(&defects, 6);
        let greedy = RepairAllocator::new(AllocatorOptions {
            exact: false,
            ..AllocatorOptions::default()
        })
        .allocate(&defects, 6);
        assert_eq!(exact.assignments, greedy.assignments);
        assert!(exact.fully_repairs());
    }
}
