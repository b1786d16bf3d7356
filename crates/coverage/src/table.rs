//! The verdict table behind [`crate::CoverageEngine::report`]: every
//! single-fault verdict answered by lookups, without running the march.
//!
//! A stuck-at or transition fault changes only its own cell; a coupling
//! fault changes only its victim cell, as a function of its aggressor
//! cell. Every lowered op's data is per bit and the same at every address
//! (a literal pattern, or content ⊕ pattern), and reads never disturb the
//! array. So in one content round the fault's verdict depends only on
//!
//! * its **kind** — SA0, SA1, TF↑, TF↓, or one of the ten coupling
//!   variants: CFst (aggressor value, victim value), CFid (transition,
//!   victim value), CFin (transition);
//! * its **relation** — a single cell, a coupling pair in one word, or an
//!   aggressor word below or above the victim word (which decides the
//!   order in which each element visits the two words);
//! * its aggressor bit `a`, victim bit `v` and their content bits;
//! * the fault-free behaviour of every other cell: the other bits of the
//!   footprint words, and, for a literal test that reads before it
//!   writes, the words outside the footprint.
//!
//! A table row holds, for one (relation, kind, `a`, content of `a`,
//! content of `v`), the victim bits `v` that mismatch at some read: bit
//! `v` of a `u128` is the experiment "victim at bit `v`", so one
//! lane-sliced run of the test answers every victim of a row at once.
//! Stuck-at and transition rows come from one-word runs of the simulator
//! itself with the fault on every bit; coupling rows from one- and
//! two-word lane runs that follow the simulator's fault semantics (store
//! the write, fire the aggressor transition, enforce state coupling after
//! every write to either word, and pin a state-coupled victim when the
//! memory is armed). Every row is checked against a real
//! [`FaultyMemory`] run in this module's tests.

use std::sync::OnceLock;

use twm_bist::LoweredTest;
use twm_march::OpKind;
use twm_mem::{
    AddressOrder, BitAddress, BitStorage, Fault, FaultSet, FaultyMemory, MemoryConfig, Transition,
};

use crate::report::Tally;
use crate::CoverageError;

/// Fault kinds: SA0, SA1, TF↑, TF↓, then CFst ⟨aggressor value, victim
/// value⟩ (4–7), CFid ⟨transition, victim value⟩ (8–11) and CFin
/// ⟨transition⟩ (12–13), the first field weighing 2 and `Falling` / `1`
/// counting as 1.
const KINDS: usize = 14;
/// The first coupling kind.
const FIRST_COUPLING: usize = 4;
/// The first kind of each fault class (`FaultClass as usize`).
const FIRST_KIND: [usize; 5] = [0, 2, 4, 8, 12];
/// How far a class shifts its first field (see [`KINDS`]).
const FIRST_SHIFT: [usize; 5] = [0, 0, 1, 1, 0];
/// Fault class (`FaultClass as usize`) of each kind.
const CLASS_OF_KIND: [usize; KINDS] = [0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4];

/// Aggressor and victim share a word (or the fault is one cell).
const SAME_WORD: usize = 0;
/// The aggressor's word lies below the victim's.
const BELOW: usize = 1;
/// The aggressor's word lies above the victim's.
const ABOVE: usize = 2;
/// Row groups: one per (relation, kind).
const GROUPS: usize = 3 * KINDS;

/// A fault decoded once into what its table lookup needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decoded {
    /// The fault's kind (see [`KINDS`]).
    kind: usize,
    /// [`SAME_WORD`], [`BELOW`] or [`ABOVE`].
    relation: usize,
    victim: BitAddress,
    /// The aggressor cell; the victim itself for a one-cell fault.
    aggressor: BitAddress,
}

impl Decoded {
    /// The fault's [`Tally::packed`] count: its class, and 0 for a
    /// one-cell fault, 1 for an intra-word and 2 for an inter-word
    /// coupling fault.
    fn packed(&self) -> u64 {
        let scope = usize::from(self.kind >= FIRST_COUPLING)
            * (1 + usize::from(self.relation != SAME_WORD));
        Tally::packed(CLASS_OF_KIND[self.kind], scope)
    }

    /// The footprint words, ascending, and how many of them there are.
    fn footprint(&self) -> ([usize; 2], usize) {
        let (victim, aggressor) = (self.victim.word, self.aggressor.word);
        (
            [victim.min(aggressor), victim.max(aggressor)],
            1 + usize::from(victim != aggressor),
        )
    }
}

/// Decodes a fault for a table lookup, or returns the error injecting it
/// into a memory of shape `config` would: the same check as
/// [`FaultSet::validate_fault`], which is asked for the error itself.
pub(crate) fn decode(fault: &Fault, config: MemoryConfig) -> Result<Decoded, CoverageError> {
    // Each match below reads the same field shape in every arm, so the
    // compiler can read it without branching on the variant (a plain
    // five-arm match compiles to a jump table, which mispredicts on
    // universes of mixed kinds); the kind is then arithmetic on the class.
    let class = fault.class() as usize;
    let first = match *fault {
        Fault::StuckAt { value, .. } => value,
        Fault::CouplingState {
            aggressor_value, ..
        } => aggressor_value,
        Fault::TransitionFault {
            direction: transition,
            ..
        }
        | Fault::CouplingIdempotent { transition, .. }
        | Fault::CouplingInversion { transition, .. } => transition == Transition::Falling,
    };
    let second = match *fault {
        Fault::CouplingState { victim_value, .. }
        | Fault::CouplingIdempotent { victim_value, .. } => victim_value,
        _ => false,
    };
    let kind = FIRST_KIND[class] + (usize::from(first) << FIRST_SHIFT[class]) + usize::from(second);
    let victim = fault.victim();
    let aggressor = fault.aggressor().unwrap_or(victim);
    let (words, width) = (config.words(), config.width());
    // Non-short-circuiting `&`: one well-predicted branch per fault.
    let valid = (victim.word < words)
        & (victim.bit < width)
        & (aggressor.word < words)
        & (aggressor.bit < width)
        & ((kind < FIRST_COUPLING) | (aggressor != victim));
    if !valid {
        FaultSet::validate_fault(fault, words, width)?;
    }
    let relation =
        usize::from(aggressor.word != victim.word) + usize::from(aggressor.word > victim.word);
    Ok(Decoded {
        kind,
        relation,
        victim,
        aggressor,
    })
}

/// The fault of `kind` (see [`KINDS`]) with these cells; a one-cell kind
/// ignores `aggressor`.
pub(crate) fn fault_of(kind: usize, aggressor: BitAddress, victim: BitAddress) -> Fault {
    let transition = |falling| {
        if falling {
            Transition::Falling
        } else {
            Transition::Rising
        }
    };
    let (high, low) = (kind & 2 != 0, kind & 1 != 0);
    match kind {
        0 | 1 => Fault::stuck_at(victim, low),
        2 | 3 => Fault::transition(victim, transition(low)),
        4..=7 => Fault::coupling_state(aggressor, victim, high, low),
        8..=11 => Fault::coupling_idempotent(aggressor, victim, transition(high), low),
        _ => Fault::coupling_inversion(aggressor, victim, transition(low)),
    }
}

/// Whether a word outside `footprint` (sorted) is among `words` (sorted).
pub(crate) fn lies_outside(words: &[usize], footprint: &[usize]) -> bool {
    let inside = footprint
        .iter()
        .filter(|word| words.binary_search(word).is_ok())
        .count();
    inside < words.len()
}

/// The per-engine verdict table: the fault-free terms, built eagerly, and
/// one row group per (relation, kind), each built on its first lookup.
#[derive(Debug)]
pub(crate) struct VerdictTable {
    lowered: LoweredTest,
    /// `fault_free[c]`: the bits of a fault-free word whose content is
    /// all-`c` that mismatch at some read. Zero for transparent and
    /// write-first tests; a literal test that reads before it writes
    /// mismatches on fault-free cells.
    fault_free: [u128; 2],
    /// Per content round, the words (ascending) whose fault-free run
    /// mismatches. Empty when `fault_free` is zero.
    pub(crate) strays: Vec<Vec<usize>>,
    /// `groups[relation * KINDS + kind][a * 4 + 2 * x_a + x_v]`: the victim
    /// bits that mismatch at some read with the aggressor at bit `a`
    /// holding `x_a` and the victim holding `x_v` (a one-cell kind's row
    /// ignores `a` and `x_a`).
    groups: [OnceLock<Box<[u128]>>; GROUPS],
}

impl VerdictTable {
    /// Builds the fault-free terms; the rows follow on first lookup.
    pub(crate) fn new(lowered: &LoweredTest, config: MemoryConfig, images: &[BitStorage]) -> Self {
        let mut table = VerdictTable {
            lowered: lowered.clone(),
            fault_free: [0, 0],
            strays: Vec::new(),
            groups: std::array::from_fn(|_| OnceLock::new()),
        };
        table.fault_free = [false, true].map(|c| table.word_run(None, c));
        if table.fault_free != [0, 0] {
            let stray = |x: u128| table.fault_free_mismatch(x) != 0;
            table.strays = if images.is_empty() {
                let words = if stray(0) { config.words() } else { 0 };
                vec![(0..words).collect()]
            } else {
                images
                    .iter()
                    .map(|image| {
                        (0..config.words())
                            .filter(|&w| stray(image.word_bits(w)))
                            .collect()
                    })
                    .collect()
            };
        }
        table
    }

    fn width(&self) -> usize {
        self.lowered.width()
    }

    /// The bits of a fault-free word with content `x` that mismatch.
    fn fault_free_mismatch(&self, x: u128) -> u128 {
        (self.fault_free[1] & x) | (self.fault_free[0] & !x)
    }

    /// A row group, built on first use.
    fn group(&self, relation: usize, kind: usize) -> &[u128] {
        self.groups[relation * KINDS + kind].get_or_init(|| {
            let width = self.width();
            let mut rows = vec![0; width * 4];
            if kind < FIRST_COUPLING {
                let faulty = [false, true].map(|c| self.word_run(Some(kind), c));
                for (at, row) in rows.iter_mut().enumerate() {
                    *row = faulty[at & 1];
                }
            } else {
                for (at, row) in rows.iter_mut().enumerate() {
                    let (a, x_a, x_v) = (at / 4, at & 2 != 0, at & 1 != 0);
                    *row = self.lane_run(relation, kind, a, x_a, x_v);
                }
            }
            rows.into_boxed_slice()
        })
    }

    /// Whether round `round` (content `image`, or all-zero) detects the
    /// fault: a mismatch at its victim bit, at a fault-free bit of its
    /// footprint words, or at a fault-free word outside them.
    #[inline(always)]
    pub(crate) fn round_detects(
        &self,
        fault: &Decoded,
        round: usize,
        image: Option<&BitStorage>,
    ) -> bool {
        let bit = |cell: BitAddress| {
            image.map_or(0, |image| {
                usize::from(image.bit(cell.word, cell.bit).unwrap_or(false))
            })
        };
        let (aggressor, victim) = (fault.aggressor, fault.victim);
        let row = self.group(fault.relation, fault.kind)
            [aggressor.bit * 4 + 2 * bit(aggressor) + bit(victim)];
        row >> victim.bit & 1 != 0
            || (self.fault_free != [0, 0] && self.fault_free_detects(fault, round, image))
    }

    /// The fault-free half of [`VerdictTable::round_detects`].
    fn fault_free_detects(
        &self,
        fault: &Decoded,
        round: usize,
        image: Option<&BitStorage>,
    ) -> bool {
        let word = |w: usize| image.map_or(0, |image| image.word_bits(w));
        let (footprint, words) = fault.footprint();
        self.fault_free_mismatch(word(fault.victim.word)) & !(1u128 << fault.victim.bit) != 0
            || (fault.relation != SAME_WORD
                && self.fault_free_mismatch(word(fault.aggressor.word)) != 0)
            || self
                .strays
                .get(round)
                .is_some_and(|strays| lies_outside(strays, &footprint[..words]))
    }

    /// Resolves a run of faults: counts each into `tally` and returns the
    /// mask of those that escape some content round (bit `i` for
    /// `faults[i]`; at most 64 faults).
    pub(crate) fn resolve(
        &self,
        faults: &[Fault],
        config: MemoryConfig,
        images: &[BitStorage],
        tally: &mut Tally,
    ) -> Result<u64, CoverageError> {
        // One loop per round count, so the usual single round runs
        // without a loop over rounds.
        match images {
            [] => self.resolve_with(faults, config, tally, |fault| {
                self.round_detects(fault, 0, None)
            }),
            [image] => self.resolve_with(faults, config, tally, |fault| {
                self.round_detects(fault, 0, Some(image))
            }),
            _ => self.resolve_with(faults, config, tally, |fault| {
                images
                    .iter()
                    .enumerate()
                    .all(|(round, image)| self.round_detects(fault, round, Some(image)))
            }),
        }
    }

    /// [`VerdictTable::resolve`] with `detects` deciding a decoded fault
    /// over every round.
    fn resolve_with(
        &self,
        faults: &[Fault],
        config: MemoryConfig,
        tally: &mut Tally,
        detects: impl Fn(&Decoded) -> bool,
    ) -> Result<u64, CoverageError> {
        debug_assert!(faults.len() <= 64);
        // Counted in one register, a byte per class and scope.
        let (mut undetected, mut packed) = (0u64, 0u64);
        for (at, fault) in faults.iter().enumerate() {
            let decoded = decode(fault, config)?;
            packed += decoded.packed();
            undetected |= u64::from(!detects(&decoded)) << at;
        }
        tally.add_packed(packed);
        Ok(undetected)
    }

    /// The bits that mismatch at some read when the test runs on a
    /// one-word memory filled with all-`content`, fault-free or with a
    /// one-cell fault of `kind` on every bit. Data is resolved against
    /// the word after the stuck-at faults pinned it, as a full execution
    /// snapshots it.
    fn word_run(&self, kind: Option<usize>, content: bool) -> u128 {
        let word = MemoryConfig::new(1, self.width()).expect("the engine's width is valid");
        let faults = kind.into_iter().flat_map(|kind| {
            (0..word.width()).map(move |bit| {
                let cell = BitAddress::new(0, bit);
                fault_of(kind, cell, cell)
            })
        });
        let mut memory = FaultyMemory::with_faults(word, FaultSet::from_faults(faults))
            .expect("every bit of a one-word memory is in range");
        let fill = if content {
            word.word_ones()
        } else {
            word.word_zeros()
        };
        memory.fill(fill).expect("the fill has the memory's width");
        let initial = memory.peek_word(0).expect("word 0 exists");
        let mut mismatched = 0;
        for op in self
            .lowered
            .elements()
            .iter()
            .flat_map(|element| &element.ops)
        {
            let value = op.value(initial);
            match op.kind {
                OpKind::Write => memory
                    .write_word(0, value)
                    .expect("the op has the memory's width"),
                OpKind::Read => {
                    mismatched |= (memory.read_word(0).expect("word 0 exists") ^ value).to_bits();
                }
            }
        }
        mismatched
    }

    /// One coupling row: runs the test with the coupling fault of `kind`
    /// from bit `a` of the aggressor word (content `x_a`) to **every** bit
    /// `v` of the victim word (content `x_v`) at once, lane `v` of a
    /// `u128` holding the victim of experiment `v`, and returns the lanes
    /// whose victim mismatches at some read. The aggressor cell behaves
    /// fault-free, so it is one bit shared by every lane; for the same
    /// word, lane `a` is no experiment and reads 0.
    ///
    /// The fault semantics are the simulator's (`twm_mem::FaultIndex`):
    /// a write stores its data, then an aggressor transition that matches
    /// the trigger forces (CFid) or inverts (CFin) the victim, then an
    /// activated state coupling forces the victim, after every write to
    /// either word. Arming the memory enforces the state coupling once,
    /// before the transparent data's initial word is taken.
    fn lane_run(&self, relation: usize, kind: usize, a: usize, x_a: bool, x_v: bool) -> u128 {
        #[derive(Clone, Copy, PartialEq)]
        enum Visit {
            Aggressor,
            Victim,
            Both,
        }
        let lanes = u128::MAX >> (128 - self.width());
        let spread = |bit: bool| if bit { lanes } else { 0 };
        let fault = fault_of(kind, BitAddress::new(0, a), BitAddress::new(0, 0));
        let (state, trigger) = match fault {
            Fault::CouplingState {
                aggressor_value,
                victim_value,
                ..
            } => (Some((aggressor_value, victim_value)), None),
            Fault::CouplingIdempotent {
                transition,
                victim_value,
                ..
            } => (None, Some((transition, Some(victim_value)))),
            Fault::CouplingInversion { transition, .. } => (None, Some((transition, None))),
            _ => unreachable!("lane runs are for coupling kinds"),
        };
        let mut initial = spread(x_v);
        if let Some((aggressor_value, victim_value)) = state {
            if x_a == aggressor_value {
                initial = spread(victim_value);
            }
        }
        let (mut aggressor, mut victim, mut mismatched) = (x_a, initial, 0);
        for element in self.lowered.elements() {
            let descending = element.order == AddressOrder::Descending;
            let visits: &[Visit] = match (relation, descending) {
                (SAME_WORD, _) => &[Visit::Both],
                (BELOW, false) | (ABOVE, true) => &[Visit::Aggressor, Visit::Victim],
                _ => &[Visit::Victim, Visit::Aggressor],
            };
            for &visit in visits {
                for op in &element.ops {
                    let pattern = op.pattern.to_bits();
                    let data = if op.transparent {
                        initial ^ pattern
                    } else {
                        pattern
                    } & lanes;
                    match op.kind {
                        OpKind::Read if visit != Visit::Aggressor => mismatched |= victim ^ data,
                        OpKind::Read => {}
                        OpKind::Write => {
                            if visit == Visit::Victim {
                                victim = data;
                            } else {
                                let old = aggressor;
                                aggressor = (pattern >> a & 1 != 0) ^ (op.transparent && x_a);
                                if visit == Visit::Both {
                                    victim = data;
                                }
                                if let Some((transition, force)) = trigger {
                                    if Transition::between(old, aggressor) == Some(transition) {
                                        victim = force.map_or(!victim & lanes, spread);
                                    }
                                }
                            }
                            if let Some((aggressor_value, victim_value)) = state {
                                if aggressor == aggressor_value {
                                    victim = spread(victim_value);
                                }
                            }
                        }
                    }
                }
            }
        }
        if relation == SAME_WORD {
            mismatched &= !(1u128 << a);
        }
        mismatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::prepared_contents;
    use crate::{ContentPolicy, EvaluationOptions};
    use twm_core::{TransparentScheme, TwmTa};
    use twm_march::algorithms::{march_c_minus, mats_plus};
    use twm_march::notation::parse_march;
    use twm_march::{DataPattern, DataSpec, MarchElement, MarchTest, Operation};

    /// All `width` bits set.
    fn ones(width: usize) -> u128 {
        u128::MAX >> (128 - width)
    }

    fn table(test: &MarchTest, config: MemoryConfig, options: EvaluationOptions) -> VerdictTable {
        let lowered = LoweredTest::new(test, config.width()).unwrap();
        VerdictTable::new(&lowered, config, &prepared_contents(config, options))
    }

    /// The one-cell rows of `kind` under content 0 and 1.
    fn faulty(t: &VerdictTable, kind: usize) -> [u128; 2] {
        let rows = t.group(SAME_WORD, kind);
        [rows[0], rows[3]]
    }

    fn all_faulty(t: &VerdictTable) -> [[u128; 2]; 4] {
        std::array::from_fn(|kind| faulty(t, kind))
    }

    fn zeros() -> EvaluationOptions {
        EvaluationOptions {
            content: ContentPolicy::Zeros,
            contents_per_fault: 1,
        }
    }

    /// A one-word store holding `bits`.
    fn image(width: usize, bits: u128) -> BitStorage {
        let mut image = BitStorage::new(1, width).unwrap();
        image.set_word_bits(0, bits);
        image
    }

    /// Reads 0 before writing 1, then reads 1 and writes 0: a word whose
    /// content holds a 1 mismatches with no fault at all.
    fn read_first_up() -> MarchTest {
        parse_march("read-first-up", "⇑(r0,w1); ⇓(r1,w0)").unwrap()
    }

    #[test]
    fn kinds_round_trip_through_their_faults() {
        let config = MemoryConfig::new(4, 8).unwrap();
        let victim = BitAddress::new(2, 5);
        for (aggressor, relation) in [
            (BitAddress::new(2, 1), SAME_WORD),
            (BitAddress::new(1, 7), BELOW),
            (BitAddress::new(3, 5), ABOVE),
        ] {
            for kind in 0..KINDS {
                let fault = fault_of(kind, aggressor, victim);
                let decoded = decode(&fault, config).unwrap();
                assert_eq!(decoded.kind, kind, "{fault:?}");
                assert_eq!(decoded.victim, victim);
                let scope =
                    usize::from(fault.is_intra_word()) + 2 * usize::from(fault.is_inter_word());
                assert_eq!(
                    decoded.packed(),
                    Tally::packed(fault.class() as usize, scope)
                );
                if kind < FIRST_COUPLING {
                    assert_eq!((decoded.aggressor, decoded.relation), (victim, SAME_WORD));
                } else {
                    assert_eq!((decoded.aggressor, decoded.relation), (aggressor, relation));
                }
            }
        }
        assert_eq!(
            fault_of(7, victim, BitAddress::new(0, 0)),
            Fault::coupling_state(victim, BitAddress::new(0, 0), true, true)
        );
        assert_eq!(
            fault_of(10, victim, victim),
            Fault::coupling_idempotent(victim, victim, Transition::Falling, false)
        );
    }

    /// Decoding fails exactly as injection does: out-of-range cells
    /// (aggressor checked first) and a cell coupled with itself.
    #[test]
    fn decode_fails_like_validation() {
        let config = MemoryConfig::new(4, 8).unwrap();
        let inside = BitAddress::new(1, 1);
        for fault in [
            Fault::stuck_at(BitAddress::new(4, 0), true),
            Fault::transition(BitAddress::new(0, 8), Transition::Rising),
            Fault::coupling_inversion(
                BitAddress::new(9, 0),
                BitAddress::new(0, 9),
                Transition::Rising,
            ),
            Fault::coupling_state(inside, BitAddress::new(1, 8), true, false),
            Fault::coupling_idempotent(inside, inside, Transition::Falling, true),
        ] {
            let error = decode(&fault, config).unwrap_err();
            let expected = FaultSet::validate_fault(&fault, 4, 8).unwrap_err();
            assert_eq!(error.to_string(), CoverageError::from(expected).to_string());
        }
    }

    #[test]
    fn lies_outside_finds_a_listed_word_beyond_the_footprint() {
        for (words, footprint, outside) in [
            (&[][..], &[0][..], false),
            (&[1], &[1], false),
            (&[1], &[0], true),
            (&[1], &[0, 1], false),
            (&[1, 3], &[1, 3], false),
            (&[1, 3], &[1], true),
            (&[1, 3], &[3], true),
            (&[2], &[1, 3], true),
            (&[0, 4], &[0, 2], true),
        ] {
            assert_eq!(
                lies_outside(words, footprint),
                outside,
                "{words:?} outside {footprint:?}"
            );
        }
    }

    /// March C− writes before it reads and exercises both transitions of
    /// every bit, so every kind mismatches on every bit under either
    /// content, and a fault-free word never mismatches — with no bit set
    /// beyond the word, at widths straddling the `u128`'s 64-bit halves.
    #[test]
    fn march_c_minus_flags_every_bit_of_every_kind_and_nothing_fault_free() {
        for width in [1, 7, 63, 64, 65, 127, 128] {
            let config = MemoryConfig::new(3, width).unwrap();
            let t = table(&march_c_minus(), config, zeros());
            assert_eq!(all_faulty(&t), [[ones(width); 2]; 4], "width {width}");
            assert_eq!(t.fault_free, [0, 0], "width {width}");
            assert!(t.strays.is_empty(), "width {width}");
        }
    }

    /// TWM_TA's transparent March C− reads the content before it writes
    /// and restores it: nothing mismatches fault-free under any content,
    /// so no round lists a stray word, and every kind is caught on every
    /// bit whatever the content.
    #[test]
    fn transparent_twm_ta_table_has_no_fault_free_mismatch() {
        for width in [2, 8, 32, 64] {
            let transformed = TwmTa::new(width)
                .unwrap()
                .transform(&march_c_minus())
                .unwrap();
            let config = MemoryConfig::new(5, width).unwrap();
            let options = EvaluationOptions {
                content: ContentPolicy::Random { seed: 9 },
                contents_per_fault: 3,
            };
            let t = table(transformed.transparent_test(), config, options);
            assert_eq!(t.fault_free, [0, 0], "width {width}");
            assert!(t.strays.is_empty(), "width {width}");
            assert_eq!(all_faulty(&t), [[ones(width); 2]; 4], "width {width}");
        }
    }

    /// MATS+ `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)` never reads back its last `w0`:
    /// a falling transition fault escapes on a cell that starts at 0, and
    /// is caught by the first `r0` only on a cell whose content 1 the
    /// opening `w0` fails to clear. Every other row is full.
    #[test]
    fn mats_plus_table_misses_exactly_the_falling_transitions() {
        let config = MemoryConfig::new(4, 8).unwrap();
        let t = table(&mats_plus(), config, zeros());
        let full = [ones(8); 2];
        assert_eq!(all_faulty(&t), [full, full, full, [0, ones(8)]]);
        assert_eq!(t.fault_free, [0, 0]);
    }

    /// A transition fault blocks only its own direction, and only when the
    /// test drives it: `⇑(w1); ⇓(r1)` raises a cell only if it starts at 0.
    #[test]
    fn transition_rows_depend_on_direction_and_starting_content() {
        let config = MemoryConfig::new(2, 4).unwrap();
        let test = parse_march("write-one", "⇑(w1); ⇓(r1)").unwrap();
        let t = table(&test, config, zeros());
        let [sa0, sa1, rising, falling] = all_faulty(&t);
        assert_eq!(sa0, [ones(4); 2]);
        assert_eq!(sa1, [0, 0]);
        assert_eq!(rising, [ones(4), 0], "rises only from content 0");
        assert_eq!(falling, [0, 0]);
        assert_eq!(t.fault_free, [0, 0]);
    }

    /// The table's runs resolve transparent data against the word after
    /// the stuck-at faults pinned it, as a full execution snapshots it: a
    /// transparent read-only test then sees nothing wrong on a stuck cell,
    /// whatever the content it was filled with.
    #[test]
    fn stuck_at_rows_read_the_pinned_content() {
        let config = MemoryConfig::new(2, 8).unwrap();
        let transparent_read = MarchTest::new(
            "transparent-read",
            vec![MarchElement::ascending(vec![Operation::read(
                DataSpec::TransparentXor(DataPattern::Zeros),
            )])],
        )
        .unwrap();
        let t = table(&transparent_read, config, zeros());
        assert_eq!(all_faulty(&t), [[0, 0]; 4]);
        assert_eq!(t.fault_free, [0, 0]);

        // A literal read of 0 catches a stuck-at-1 cell whatever the
        // content, never a stuck-at-0 cell (pinned to 0 before the read),
        // and mismatches on every fault-free 1.
        let literal_read = parse_march("read-zero", "⇑(r0)").unwrap();
        let t = table(&literal_read, config, zeros());
        let [sa0, sa1, rising, falling] = all_faulty(&t);
        assert_eq!(sa0, [0, 0]);
        assert_eq!(sa1, [ones(8); 2]);
        assert_eq!(rising, [0, ones(8)]);
        assert_eq!(falling, [0, ones(8)]);
        assert_eq!(t.fault_free, [0, ones(8)]);
    }

    /// A literal test that reads before it writes lists, per content
    /// round, exactly the words whose fault-free run mismatches; under
    /// all-zero content the list is every word or none.
    #[test]
    fn strays_list_each_rounds_mismatching_words() {
        let config = MemoryConfig::new(9, 2).unwrap();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: 4 },
            contents_per_fault: 3,
        };
        let images = prepared_contents(config, options);
        let t = table(&read_first_up(), config, options);
        assert_eq!(t.fault_free, [0, ones(2)]);
        let expected: Vec<Vec<usize>> = images
            .iter()
            .map(|image| (0..9).filter(|&w| image.word_bits(w) != 0).collect())
            .collect();
        assert_eq!(t.strays, expected);
        assert!(expected.iter().any(|words| !words.is_empty()));

        assert_eq!(
            table(&read_first_up(), config, zeros()).strays,
            vec![Vec::<usize>::new()]
        );
        let read_one_first = parse_march("read-first-down", "⇓(r1); ⇑(w0,r0)").unwrap();
        let t = table(&read_one_first, config, zeros());
        assert_eq!(t.fault_free, [ones(2), 0]);
        assert_eq!(t.strays, vec![(0..9).collect::<Vec<_>>()]);
    }

    /// Under the read-first test a falling transition fault on a cell that
    /// starts at 0 escapes on its own bit (the final `w0` is never read),
    /// so the round hangs on the rest of the word: a fault-free 1 elsewhere
    /// in it detects, a 1 on the faulty bit itself detects through the
    /// fault's own row.
    #[test]
    fn round_detects_through_a_fault_free_bit_of_the_word() {
        let config = MemoryConfig::new(1, 4).unwrap();
        let t = table(&read_first_up(), config, zeros());
        let falling = 3;
        let cell = BitAddress::new(0, 0);
        let fault = decode(&fault_of(falling, cell, cell), config).unwrap();
        assert_eq!(faulty(&t, falling)[0] & 1, 0);
        assert!(!t.round_detects(&fault, 0, Some(&image(4, 0b0000))));
        assert!(!t.round_detects(&fault, 0, None));
        assert!(t.round_detects(&fault, 0, Some(&image(4, 0b0010))));
        assert!(t.round_detects(&fault, 0, Some(&image(4, 0b1000))));
        assert!(t.round_detects(&fault, 0, Some(&image(4, 0b0001))));
    }

    /// An inter-word coupling fault's round also hangs on the aggressor's
    /// word: under the read-first test, a fault-free 1 anywhere in it —
    /// the aggressor bit included — detects a fault that escapes on its
    /// own victim bit, while a 1 in an unrelated word does not (no round
    /// lists a stray word here).
    #[test]
    fn round_detects_through_a_fault_free_bit_of_the_aggressor_word() {
        let config = MemoryConfig::new(3, 4).unwrap();
        let t = table(&read_first_up(), config, zeros());
        // CFid⟨↑;0⟩ from word 1 into word 2 escapes on zero content.
        let fault = decode(
            &fault_of(8, BitAddress::new(1, 3), BitAddress::new(2, 1)),
            config,
        )
        .unwrap();
        let content = |words: [u128; 3]| {
            let mut image = BitStorage::new(3, 4).unwrap();
            for (word, bits) in words.into_iter().enumerate() {
                image.set_word_bits(word, bits);
            }
            image
        };
        assert!(!t.round_detects(&fault, 0, Some(&content([0, 0, 0]))));
        assert!(!t.round_detects(&fault, 0, Some(&content([0b1111, 0, 0]))));
        assert!(t.round_detects(&fault, 0, Some(&content([0, 0b0100, 0]))));
        assert!(t.round_detects(&fault, 0, Some(&content([0, 0, 0b1000]))));
    }

    /// A stray word detects a round only when it is outside the fault's
    /// footprint, and only in the round that lists it.
    #[test]
    fn round_detects_through_a_stray_word_outside_the_fault() {
        let config = MemoryConfig::new(3, 4).unwrap();
        let t = VerdictTable {
            strays: vec![vec![1], Vec::new()],
            ..table(&read_first_up(), config, zeros())
        };
        let at =
            |kind, aggressor, victim| decode(&fault_of(kind, aggressor, victim), config).unwrap();
        let falling = 3;
        let cell = |word, bit| BitAddress::new(word, bit);
        assert!(!t.round_detects(&at(falling, cell(1, 0), cell(1, 0)), 0, None));
        assert!(t.round_detects(&at(falling, cell(0, 0), cell(0, 0)), 0, None));
        assert!(t.round_detects(&at(falling, cell(2, 3), cell(2, 3)), 0, None));
        assert!(!t.round_detects(&at(falling, cell(2, 3), cell(2, 3)), 1, None));
        // CFid⟨↑;0⟩ from below and CFid⟨↑;1⟩ from above escape the test
        // itself: a coupling fault with a word on the stray word covers
        // it, one whose two words both miss it does not.
        let (down, up) = (8, 9);
        assert!(!t.round_detects(&at(down, cell(1, 0), cell(2, 0)), 0, None));
        assert!(!t.round_detects(&at(up, cell(2, 0), cell(1, 0)), 0, None));
        assert!(t.round_detects(&at(down, cell(0, 0), cell(2, 0)), 0, None));
        assert!(!t.round_detects(&at(down, cell(0, 0), cell(2, 0)), 1, None));
    }

    /// Every coupling row against a real [`FaultyMemory`] run with that
    /// single fault: for each (relation, kind, `a`, `v`, `x_a`, `x_v`) a
    /// one- or two-word memory holding the two contents (the other bits
    /// of the two words from `filler`, which cannot change the victim's
    /// verdict) is swept by the simulator's fault-local probe; the row's
    /// bit `v` must say whether the victim bit mismatched at some read.
    fn assert_coupling_rows_match_the_simulator(test: &MarchTest, width: usize, filler: u128) {
        let lowered = LoweredTest::new(test, width).unwrap();
        let t = VerdictTable::new(&lowered, MemoryConfig::new(2, width).unwrap(), &[]);
        for relation in [SAME_WORD, BELOW, ABOVE] {
            let words = if relation == SAME_WORD { 1 } else { 2 };
            let config = MemoryConfig::new(words, width).unwrap();
            let (aggressor_word, victim_word) = match relation {
                SAME_WORD => (0, 0),
                BELOW => (0, 1),
                _ => (1, 0),
            };
            for kind in FIRST_COUPLING..KINDS {
                let rows = t.group(relation, kind);
                for a in 0..width {
                    for v in (0..width).filter(|&v| relation != SAME_WORD || v != a) {
                        let aggressor = BitAddress::new(aggressor_word, a);
                        let victim = BitAddress::new(victim_word, v);
                        for at in 0..4 {
                            let (x_a, x_v) = (at & 2 != 0, at & 1 != 0);
                            let fault = fault_of(kind, aggressor, victim);
                            let mut memory =
                                FaultyMemory::with_faults(config, FaultSet::from_faults([fault]))
                                    .unwrap();
                            let mut content = vec![filler & ones(width); words];
                            let set = |word: &mut u128, bit: usize, value: bool| {
                                *word = (*word & !(1 << bit)) | (u128::from(value) << bit);
                            };
                            set(&mut content[victim_word], v, x_v);
                            set(&mut content[aggressor_word], a, x_a);
                            let mut image = BitStorage::new(words, width).unwrap();
                            for (word, &bits) in content.iter().enumerate() {
                                image.set_word_bits(word, bits);
                            }
                            memory.load_image(&image).unwrap();
                            let mismatched = victim_mismatches(&lowered, &mut memory, victim);
                            assert_eq!(
                                rows[a * 4 + at] >> v & 1 == 1,
                                mismatched,
                                "{} width {width}: {fault:?}, x_a {x_a}, x_v {x_v}",
                                test.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Sweeps the whole (one- or two-word) memory with the lowered test,
    /// returning whether the victim bit mismatched at some read.
    fn victim_mismatches(
        lowered: &LoweredTest,
        memory: &mut FaultyMemory,
        victim: BitAddress,
    ) -> bool {
        let initial: Vec<_> = (0..memory.words())
            .map(|w| memory.peek_word(w).unwrap())
            .collect();
        let mut mismatched = false;
        for element in lowered.elements() {
            let mut order: Vec<usize> = (0..memory.words()).collect();
            if element.order == AddressOrder::Descending {
                order.reverse();
            }
            for address in order {
                for op in &element.ops {
                    let value = op.value(initial[address]);
                    match op.kind {
                        OpKind::Write => memory.write_word(address, value).unwrap(),
                        OpKind::Read => {
                            let read = memory.read_word(address).unwrap();
                            if address == victim.word {
                                mismatched |= read.bit(victim.bit) != value.bit(victim.bit);
                            }
                        }
                    }
                }
            }
        }
        mismatched
    }

    /// The tests every coupling row is checked under at `width`: March C−,
    /// a literal read-first test, and TWM_TA's transparent March C− where
    /// the width allows the transform.
    fn row_tests(width: usize) -> Vec<MarchTest> {
        let mut tests = vec![march_c_minus(), read_first_up()];
        if let Ok(scheme) = TwmTa::new(width) {
            tests.push(
                scheme
                    .transform(&march_c_minus())
                    .unwrap()
                    .transparent_test()
                    .clone(),
            );
        }
        tests
    }

    #[test]
    fn coupling_rows_equal_simulator_runs_at_widths_1_to_8() {
        for width in 1..=8 {
            for test in row_tests(width) {
                assert_coupling_rows_match_the_simulator(&test, width, 0);
                assert_coupling_rows_match_the_simulator(&test, width, 0x5A5A_5A5A);
            }
        }
    }

    #[test]
    fn coupling_rows_equal_simulator_runs_at_width_32() {
        for test in row_tests(32) {
            assert_coupling_rows_match_the_simulator(&test, 32, 0x0F0F_3C3C);
        }
    }

    /// Only the row groups a lookup needs are built.
    #[test]
    fn row_groups_are_built_on_first_lookup() {
        let config = MemoryConfig::new(4, 8).unwrap();
        let t = table(&march_c_minus(), config, zeros());
        assert!(t.groups.iter().all(|group| group.get().is_none()));
        let fault = Fault::coupling_inversion(
            BitAddress::new(1, 2),
            BitAddress::new(3, 4),
            Transition::Rising,
        );
        assert!(t.round_detects(&decode(&fault, config).unwrap(), 0, None));
        let built: Vec<usize> = (0..GROUPS)
            .filter(|&g| t.groups[g].get().is_some())
            .collect();
        assert_eq!(built, vec![BELOW * KINDS + 12]);
    }
}
