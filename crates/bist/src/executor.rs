//! Execution of march tests on the fault-injected memory simulator.
//!
//! The executor resolves every operation's data against each word's *initial
//! content* (snapshotted before the test starts), sweeps addresses in the
//! order each march element prescribes, and records every read together with
//! the value a fault-free memory would have returned and the read's XOR
//! offset from the initial content. Downstream consumers decide how to judge
//! the result: the exact-compare oracle counts mismatches, the signature
//! flow compacts the (offset-compensated) read stream in a MISR.

use serde::{Deserialize, Serialize};

use twm_march::{MarchTest, OpKind};
use twm_mem::{AddressOrder, AddressSequence, MemoryAccess, Word};

use crate::{BistError, LoweredOp, LoweredTest};

/// One executed read operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadRecord {
    /// Word address that was read.
    pub address: usize,
    /// Value observed on the (possibly faulty) memory.
    pub observed: Word,
    /// Value a fault-free memory would have returned.
    pub expected: Word,
    /// XOR offset of the expected value from the word's initial content
    /// (the transparent data pattern resolved for this word width; all-zero
    /// for plain reads of the initial content).
    pub offset: Word,
}

impl ReadRecord {
    /// Whether the observed value differs from the fault-free expectation.
    #[must_use]
    pub fn is_mismatch(&self) -> bool {
        self.observed != self.expected
    }

    /// The value fed to the MISR during the test phase: the observed data
    /// compensated by the read's XOR offset, so a fault-free memory
    /// contributes its initial content for every read.
    #[must_use]
    pub fn compensated(&self) -> Word {
        self.observed ^ self.offset
    }
}

/// Options controlling [`execute_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionOptions {
    /// Record every read in [`ExecutionResult::reads`]. Disable for large
    /// fault-coverage sweeps where only the mismatch count matters.
    pub record_reads: bool,
    /// Stop executing as soon as the first mismatch is observed.
    pub stop_at_first_mismatch: bool,
}

impl Default for ExecutionOptions {
    fn default() -> Self {
        Self {
            record_reads: true,
            stop_at_first_mismatch: false,
        }
    }
}

/// The outcome of executing a march test.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionResult {
    /// Every read performed, in execution order (empty when
    /// [`ExecutionOptions::record_reads`] is disabled).
    pub reads: Vec<ReadRecord>,
    /// Number of reads whose observed value differed from the fault-free
    /// expectation.
    pub mismatches: usize,
    /// Total number of read operations performed.
    pub reads_performed: usize,
    /// Total number of write operations performed.
    pub writes_performed: usize,
    /// The memory content before the test started.
    pub initial_content: Vec<Word>,
    /// The memory content after the test finished.
    pub final_content: Vec<Word>,
}

impl ExecutionResult {
    /// Whether the exact-compare oracle flags a fault (any read mismatch).
    #[must_use]
    pub fn detected(&self) -> bool {
        self.mismatches > 0
    }

    /// Whether the memory content after the test equals the content before
    /// it (the transparency property).
    #[must_use]
    pub fn content_preserved(&self) -> bool {
        self.initial_content == self.final_content
    }

    /// Total number of operations performed.
    #[must_use]
    pub fn operations(&self) -> usize {
        self.reads_performed + self.writes_performed
    }
}

/// Executes a march test with default options.
///
/// The memory may be any [`MemoryAccess`] implementor — the plain
/// fault-injected simulator or a layered memory such as
/// [`twm_mem::RepairableMemory`], whose remap table serves repaired words
/// from spares.
///
/// # Errors
///
/// See [`execute_with`].
pub fn execute<M: MemoryAccess>(
    test: &MarchTest,
    memory: &mut M,
) -> Result<ExecutionResult, BistError> {
    execute_with(test, memory, ExecutionOptions::default())
}

/// Executes a march test on the given memory.
///
/// The memory's current content is taken as the initial content that
/// transparent data specifications refer to.
///
/// # Errors
///
/// Returns [`BistError::March`] if an operation's data cannot be resolved
/// for the memory's word width (for example a background index out of
/// range), or [`BistError::Mem`] for address errors.
pub fn execute_with<M: MemoryAccess>(
    test: &MarchTest,
    memory: &mut M,
    options: ExecutionOptions,
) -> Result<ExecutionResult, BistError> {
    let lowered = LoweredTest::new(test, memory.width())?;
    execute_lowered(&lowered, memory, options)
}

/// Executes a pre-lowered march test on the given memory.
///
/// Lower a test once with [`LoweredTest::new`] and call this for every
/// execution to amortise pattern resolution — the coverage evaluator uses
/// this to run the same test over thousands of fault-injected memories.
///
/// # Errors
///
/// Returns [`BistError::LoweredWidthMismatch`] if the test was lowered for
/// a different word width than the memory's, or [`BistError::Mem`] for
/// address errors.
pub fn execute_lowered<M: MemoryAccess>(
    test: &LoweredTest,
    memory: &mut M,
    options: ExecutionOptions,
) -> Result<ExecutionResult, BistError> {
    execute_lowered_observed(test, memory, options, |_| {})
}

/// [`execute_lowered`] that also hands every read, in execution order, to
/// `on_read` — how the session flow compacts read streams without keeping
/// a read log.
#[inline]
pub(crate) fn execute_lowered_observed<M: MemoryAccess>(
    test: &LoweredTest,
    memory: &mut M,
    options: ExecutionOptions,
    mut on_read: impl FnMut(&ReadRecord),
) -> Result<ExecutionResult, BistError> {
    if test.width() != memory.width() {
        return Err(BistError::LoweredWidthMismatch {
            lowered: test.width(),
            memory: memory.width(),
        });
    }
    let initial_content = memory.content();
    let words = memory.words();

    // Size the read log once: sessions record every read, and growing the
    // log by doubling costs a chain of large reallocations per execution.
    let mut reads = Vec::new();
    if options.record_reads {
        let ops = test.elements().iter().flat_map(|element| &element.ops);
        reads.reserve_exact(ops.filter(|op| op.kind == OpKind::Read).count() * words);
    }
    let mut mismatches = 0usize;
    let mut reads_performed = 0usize;
    let mut writes_performed = 0usize;

    'elements: for element in test.elements() {
        for address in AddressSequence::new(words, element.order) {
            let initial = initial_content[address];
            for op in &element.ops {
                let value = op.value(initial);
                match op.kind {
                    OpKind::Write => {
                        memory.write_word(address, value)?;
                        writes_performed += 1;
                    }
                    OpKind::Read => {
                        let observed = memory.read_word(address)?;
                        reads_performed += 1;
                        let record = ReadRecord {
                            address,
                            observed,
                            expected: value,
                            offset: op.pattern,
                        };
                        if record.is_mismatch() {
                            mismatches += 1;
                        }
                        on_read(&record);
                        if options.record_reads {
                            reads.push(record);
                        }
                        if options.stop_at_first_mismatch && mismatches > 0 {
                            break 'elements;
                        }
                    }
                }
            }
        }
    }

    Ok(ExecutionResult {
        reads,
        mismatches,
        reads_performed,
        writes_performed,
        initial_content,
        final_content: memory.content(),
    })
}

/// Fault-local detection: executes a pre-lowered march test visiting only
/// the given addresses and reports whether any read mismatches the
/// fault-free expectation.
///
/// The exact-compare verdict of a full execution only depends on the words
/// a fault can touch: a word that hosts neither a faulty cell nor a
/// coupling aggressor (no [`twm_mem::FaultIndex`] entry) stores exactly
/// what the test writes, so its reads can never mismatch — and writing it
/// cannot disturb any other word. Restricting the sweep to the fault's
/// footprint therefore yields the **same detection verdict** as
/// [`execute_lowered`] with `stop_at_first_mismatch`, at
/// O(ops-per-word × footprint) instead of O(ops-per-word × memory) cost.
/// This is what lets the coverage engine evaluate single-fault injections
/// on production-sized memories at small-memory speed.
///
/// The argument extends to **multi-fault injections**: with several
/// simultaneous faults, the union of their word footprints
/// ([`twm_mem::FaultSet::word_footprint`]) still covers every word that can
/// misread or disturb another, so the union sweep is verdict-equivalent to
/// the full sweep (property-tested in `tests/multi_fault_local.rs`) — the
/// basis of the coverage engine's diagnosis-style `injection_detected`
/// queries.
///
/// `addresses` must be sorted ascending and cover every word the memory's
/// fault set touches as victim or aggressor (debug-asserted); each march
/// element visits them in its prescribed sweep direction.
///
/// # Errors
///
/// Returns [`BistError::LoweredWidthMismatch`] if the test was lowered for
/// a different word width than the memory's, or [`BistError::Mem`] for
/// address errors.
pub fn detect_lowered_at<M: MemoryAccess>(
    test: &LoweredTest,
    memory: &mut M,
    addresses: &[usize],
) -> Result<bool, BistError> {
    if test.width() != memory.width() {
        return Err(BistError::LoweredWidthMismatch {
            lowered: test.width(),
            memory: memory.width(),
        });
    }
    debug_assert!(addresses.windows(2).all(|pair| pair[0] < pair[1]));
    // Memories that expose a flat fault set (the plain simulator) assert
    // the footprint-coverage contract; layered memories return `None` and
    // the caller carries the obligation.
    debug_assert!(memory.fault_set().is_none_or(|faults| {
        faults.iter().all(|fault| {
            fault
                .cells()
                .iter()
                .all(|cell| addresses.binary_search(&cell.word).is_ok())
        })
    }));
    probe_lowered_at(test, memory, addresses)
}

/// Targeted fault-local probe: executes a pre-lowered march test over only
/// the given addresses and reports whether any read mismatched.
///
/// This is [`detect_lowered_at`] **without** the footprint-coverage
/// contract: the probed addresses need not cover the memory's fault set,
/// so the verdict is only authoritative *for the probed words* — a `true`
/// means some probed word misbehaved under the test's patterns, a `false`
/// means the probed words (in isolation) passed. Diagnosis flows use this
/// to test a candidate defect's footprint on a memory whose true fault set
/// is exactly what is being estimated. Note that the probe executes writes
/// on the probed words, so the caller is responsible for
/// snapshotting/restoring content around a probe that may abort mid-test
/// (the sweep returns at the first mismatch).
///
/// `addresses` must be sorted ascending and duplicate-free.
///
/// # Errors
///
/// Same as [`detect_lowered_at`].
pub fn probe_lowered_at<M: MemoryAccess>(
    test: &LoweredTest,
    memory: &mut M,
    addresses: &[usize],
) -> Result<bool, BistError> {
    if test.width() != memory.width() {
        return Err(BistError::LoweredWidthMismatch {
            lowered: test.width(),
            memory: memory.width(),
        });
    }
    // The footprint's initial words: inline for the one- and two-word
    // footprints of single faults (and small multi-fault injections), on
    // the heap only above that.
    let mut inline = [Word::zeros(test.width()); INLINE_FOOTPRINT];
    let heap: Vec<Word>;
    let initials: &[Word] = if addresses.len() <= INLINE_FOOTPRINT {
        for (slot, &address) in inline.iter_mut().zip(addresses) {
            *slot = memory.peek_word(address)?;
        }
        &inline[..addresses.len()]
    } else {
        heap = addresses
            .iter()
            .map(|&address| memory.peek_word(address))
            .collect::<Result<_, _>>()?;
        &heap
    };

    for element in test.elements() {
        let sweep = addresses.iter().zip(initials);
        let mismatched = if element.order == AddressOrder::Descending {
            probe_sweep(&element.ops, memory, sweep.rev())?
        } else {
            probe_sweep(&element.ops, memory, sweep)?
        };
        if mismatched {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Footprints up to this many words keep their initial words on the stack
/// in [`probe_lowered_at`].
const INLINE_FOOTPRINT: usize = 4;

/// Applies one element's operations at each `(address, initial word)` of
/// a sweep, returning at the first read that mismatches.
fn probe_sweep<'a, M: MemoryAccess>(
    ops: &[LoweredOp],
    memory: &mut M,
    sweep: impl Iterator<Item = (&'a usize, &'a Word)>,
) -> Result<bool, BistError> {
    for (&address, &initial) in sweep {
        for op in ops {
            let value = op.value(initial);
            match op.kind {
                OpKind::Write => memory.write_word(address, value)?,
                OpKind::Read => {
                    if memory.read_word(address)? != value {
                        return Ok(true);
                    }
                }
            }
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::{TransparentScheme, TwmTa};
    use twm_march::algorithms::{march_c_minus, march_u};
    use twm_mem::{BitAddress, Fault, FaultyMemory, MemoryBuilder, MemoryConfig, Transition};

    fn bit_memory(cells: usize) -> FaultyMemory {
        FaultyMemory::fault_free(MemoryConfig::bit_oriented(cells).unwrap())
    }

    #[test]
    fn fault_free_bit_oriented_march_reports_no_mismatch() {
        let mut mem = bit_memory(16);
        let result = execute(&march_c_minus(), &mut mem).unwrap();
        assert!(!result.detected());
        assert_eq!(result.operations(), 10 * 16);
        assert_eq!(result.reads_performed, 5 * 16);
        // March C- ends with every cell at 0, which is also the starting
        // content of a zero-initialised memory.
        assert!(result.content_preserved());
    }

    #[test]
    fn nontransparent_march_destroys_random_content() {
        let mut mem = MemoryBuilder::new(16, 1).random_content(7).build().unwrap();
        let had_ones = mem.content().iter().any(|w| !w.is_zero());
        let result = execute(&march_c_minus(), &mut mem).unwrap();
        // The non-transparent test initialises every cell before reading, so
        // it reports no mismatches on a fault-free memory — but it wipes the
        // arbitrary content, which is exactly why transparent tests exist.
        assert!(had_ones);
        assert!(!result.detected());
        assert!(!result.content_preserved());
        assert!(mem.content().iter().all(|w| w.is_zero()));
    }

    #[test]
    fn transparent_test_preserves_arbitrary_content_and_reports_clean() {
        let transformed = TwmTa::new(8).unwrap().transform(&march_u()).unwrap();
        let mut mem = MemoryBuilder::new(32, 8)
            .random_content(99)
            .build()
            .unwrap();
        let before = mem.content();
        let result = execute(transformed.transparent_test(), &mut mem).unwrap();
        assert!(!result.detected());
        assert!(result.content_preserved());
        assert_eq!(mem.content(), before);
        assert_eq!(
            result.operations(),
            transformed.transparent_test().total_operations(32)
        );
    }

    #[test]
    fn stuck_at_fault_is_detected_by_the_exact_oracle() {
        let transformed = TwmTa::new(8).unwrap().transform(&march_c_minus()).unwrap();
        let mut mem = MemoryBuilder::new(16, 8)
            .random_content(3)
            .fault(Fault::stuck_at(BitAddress::new(5, 2), true))
            .build()
            .unwrap();
        let result = execute(transformed.transparent_test(), &mut mem).unwrap();
        assert!(result.detected());
    }

    #[test]
    fn transition_fault_is_detected_by_transparent_march() {
        let transformed = TwmTa::new(4).unwrap().transform(&march_c_minus()).unwrap();
        let mut mem = MemoryBuilder::new(8, 4)
            .random_content(11)
            .fault(Fault::transition(BitAddress::new(3, 1), Transition::Rising))
            .build()
            .unwrap();
        let result = execute(transformed.transparent_test(), &mut mem).unwrap();
        assert!(result.detected());
    }

    #[test]
    fn stop_at_first_mismatch_short_circuits() {
        let transformed = TwmTa::new(8).unwrap().transform(&march_c_minus()).unwrap();
        let build = || {
            MemoryBuilder::new(64, 8)
                .random_content(5)
                .fault(Fault::stuck_at(BitAddress::new(0, 0), true))
                .build()
                .unwrap()
        };
        let mut full_mem = build();
        let full = execute(transformed.transparent_test(), &mut full_mem).unwrap();
        let mut short_mem = build();
        let short = execute_with(
            transformed.transparent_test(),
            &mut short_mem,
            ExecutionOptions {
                record_reads: false,
                stop_at_first_mismatch: true,
            },
        )
        .unwrap();
        assert!(full.detected() && short.detected());
        assert!(short.operations() <= full.operations());
        assert!(short.reads.is_empty());
    }

    #[test]
    fn fault_local_detection_matches_full_execution() {
        // Every fault class, intra-word and inter-word, transparent and
        // literal tests: restricting the sweep to the fault's footprint
        // words must produce the same detection verdict as the full sweep.
        let width = 4;
        let transformed = TwmTa::new(width)
            .unwrap()
            .transform(&march_c_minus())
            .unwrap();
        let tests = [march_c_minus(), transformed.transparent_test().clone()];
        let a = BitAddress::new(3, 1);
        let b = BitAddress::new(7, 2);
        let same_word = BitAddress::new(3, 3);
        let faults = [
            Fault::stuck_at(a, true),
            Fault::stuck_at(b, false),
            Fault::transition(a, Transition::Rising),
            Fault::transition(b, Transition::Falling),
            Fault::coupling_idempotent(a, b, Transition::Rising, true),
            Fault::coupling_inversion(b, a, Transition::Falling),
            Fault::coupling_state(a, b, true, false),
            Fault::coupling_idempotent(a, same_word, Transition::Falling, false),
        ];
        for test in &tests {
            let lowered = LoweredTest::new(test, width).unwrap();
            for (seed, &fault) in faults.iter().enumerate() {
                let build = || {
                    let mut memory = MemoryBuilder::new(12, width).fault(fault).build().unwrap();
                    memory.fill_random(seed as u64);
                    memory
                };
                let mut footprint: Vec<usize> =
                    fault.cells().iter().map(|cell| cell.word).collect();
                footprint.sort_unstable();
                footprint.dedup();
                let full = execute_lowered(
                    &lowered,
                    &mut build(),
                    ExecutionOptions {
                        record_reads: false,
                        stop_at_first_mismatch: true,
                    },
                )
                .unwrap();
                let local = detect_lowered_at(&lowered, &mut build(), &footprint).unwrap();
                assert_eq!(
                    full.detected(),
                    local,
                    "verdicts diverge for {fault:?} under {}",
                    test.name()
                );
            }
        }
    }

    #[test]
    fn read_records_expose_offsets_for_misr_compensation() {
        let transformed = TwmTa::new(4).unwrap().transform(&march_c_minus()).unwrap();
        let mut mem = MemoryBuilder::new(4, 4).random_content(1).build().unwrap();
        let initial = mem.content();
        let result = execute(transformed.transparent_test(), &mut mem).unwrap();
        // On a fault-free memory the compensated value of every read equals
        // the word's initial content.
        for record in &result.reads {
            assert_eq!(record.compensated(), initial[record.address]);
            assert!(!record.is_mismatch());
        }
    }

    #[test]
    fn background_resolution_errors_are_reported() {
        // An ATMarch built for 8-bit words references D3, which does not
        // exist for 4-bit words.
        let transformed = TwmTa::new(8).unwrap().transform(&march_c_minus()).unwrap();
        let mut narrow = MemoryBuilder::new(4, 4).build().unwrap();
        let result = execute(transformed.transparent_test(), &mut narrow);
        assert!(matches!(result, Err(BistError::March(_))));
    }
}
