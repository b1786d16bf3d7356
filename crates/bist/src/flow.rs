//! The two-phase transparent BIST session.
//!
//! A transparent BIST run has two phases:
//!
//! 1. **Signature prediction** — the read-only prediction test is executed
//!    and the raw read data (the untouched memory content) are compacted in
//!    a MISR, producing the *predicted* signature.
//! 2. **Transparent test** — the transparent march test is executed; each
//!    read's data is XOR-compensated by its known offset (so a fault-free
//!    memory contributes exactly the same stream of initial-content words as
//!    phase 1) and compacted in a second MISR, producing the *test*
//!    signature.
//!
//! A difference between the two signatures flags a fault. Because MISR
//! compaction can alias, the session also reports the exact-compare verdict
//! and whether the memory content was preserved.

use serde::{Deserialize, Serialize};

use twm_core::scheme::SchemeTransform;
use twm_march::OpKind;
use twm_mem::{AddressOrder, BitStorage, MemoryAccess, Word};

use crate::executor::{execute_lowered_observed, ExecutionOptions, ExecutionResult};
use crate::misr::Misr;
use crate::{BistError, LoweredElement, LoweredOp, LoweredTest};

/// The outcome of a transparent BIST session.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionOutcome {
    /// Signature produced by the prediction phase.
    pub predicted_signature: Word,
    /// Signature produced by the transparent test phase.
    pub test_signature: Word,
    /// Number of reads whose observed value differed from the fault-free
    /// expectation during the test phase (exact-compare oracle).
    pub mismatches: usize,
    /// Whether the memory content after the session equals the content
    /// before it.
    pub content_preserved: bool,
    /// Operations executed in the prediction phase.
    pub prediction_operations: usize,
    /// Operations executed in the test phase.
    pub test_operations: usize,
}

impl SessionOutcome {
    /// Whether the signature comparison flags a fault.
    #[must_use]
    pub fn fault_detected(&self) -> bool {
        self.predicted_signature != self.test_signature
    }

    /// Whether the exact-compare oracle flags a fault.
    #[must_use]
    pub fn fault_detected_exact(&self) -> bool {
        self.mismatches > 0
    }

    /// Whether the signature comparison missed a fault the exact oracle saw
    /// (MISR aliasing).
    #[must_use]
    pub fn aliased(&self) -> bool {
        self.fault_detected_exact() && !self.fault_detected()
    }

    /// Total operations executed in both phases.
    #[must_use]
    pub fn total_operations(&self) -> usize {
        self.prediction_operations + self.test_operations
    }
}

/// A transparent BIST session together with its per-element signature trail
/// and the raw test-phase execution — the observation a diagnosis flow
/// fuses.
///
/// `element_signatures[i]` is the (cumulative) test-phase MISR signature
/// after absorbing every read of the transparent test's elements `0..=i`;
/// the last entry equals [`SessionOutcome::test_signature`]. The trail is a
/// much stronger fault discriminator than the final signature alone — two
/// faults whose final signatures collide rarely collide on every element
/// prefix — which is what the repair subsystem's signature dictionaries
/// key on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagedSessionOutcome {
    /// The plain session outcome (identical to the unstaged flow's).
    pub outcome: SessionOutcome,
    /// Cumulative test-phase MISR signature after each transparent-test
    /// element.
    pub element_signatures: Vec<Word>,
    /// The transparent-test phase execution, reads recorded — the input to
    /// [`crate::diagnosis::diagnose`].
    pub test_execution: ExecutionResult,
}

impl StagedSessionOutcome {
    /// The signature trail as a key: every element signature in order,
    /// preceded by the predicted signature (faults can corrupt the
    /// prediction phase too, and that corruption is diagnostic evidence).
    #[must_use]
    pub fn signature_trail(&self) -> Vec<Word> {
        let mut trail = Vec::with_capacity(1 + self.element_signatures.len());
        trail.push(self.outcome.predicted_signature);
        trail.extend_from_slice(&self.element_signatures);
        trail
    }
}

/// The one session implementation behind both full-memory entry points.
///
/// Phase 1 (with a prediction test) compacts the raw read data; without
/// one — concurrent checking — the predicted signature is compacted from
/// the fault-free expected data of every test-phase read. Phase 2
/// compacts the offset-compensated test reads, snapshotting the MISR at
/// every element boundary. Reads are compacted as they execute; the
/// test-phase read log is kept only when `record_reads` is set.
fn run_session<M: MemoryAccess>(
    transform: &SchemeTransform,
    memory: &mut M,
    misr: Misr,
    record_reads: bool,
) -> Result<StagedSessionOutcome, BistError> {
    let prediction_test = transform.signature_prediction();
    if misr.width() != memory.width() {
        return Err(BistError::WidthMismatch {
            misr: misr.width(),
            memory: memory.width(),
        });
    }
    let mut predicted = misr.clone();
    predicted.reset();
    let mut tested = misr;
    tested.reset();

    // Each execution snapshots the content before and after it runs.
    let mut content_before = None;
    let mut prediction_operations = 0;
    if let Some(prediction_test) = prediction_test {
        let lowered = LoweredTest::new(prediction_test, memory.width())?;
        let options = ExecutionOptions {
            record_reads: false,
            stop_at_first_mismatch: false,
        };
        let prediction = execute_lowered_observed(&lowered, memory, options, |record| {
            predicted.absorb(record.observed);
        })?;
        prediction_operations = prediction.operations();
        content_before = Some(prediction.initial_content);
    }

    // Cumulative read counts at the element boundaries: a full execution
    // visits each element's reads contiguously.
    let lowered = LoweredTest::new(transform.transparent_test(), memory.width())?;
    let words = memory.words();
    let boundaries: Vec<usize> = lowered
        .elements()
        .iter()
        .scan(0usize, |reads, element| {
            *reads += element
                .ops
                .iter()
                .filter(|op| op.kind == OpKind::Read)
                .count()
                * words;
            Some(*reads)
        })
        .collect();
    let mut element_signatures = Vec::with_capacity(boundaries.len());
    let mut absorbed = 0usize;
    let mut reach_boundaries = |tested: &Misr, absorbed: usize| {
        while boundaries.get(element_signatures.len()) == Some(&absorbed) {
            element_signatures.push(tested.signature());
        }
    };
    reach_boundaries(&tested, absorbed);
    let options = ExecutionOptions {
        record_reads,
        stop_at_first_mismatch: false,
    };
    let test = execute_lowered_observed(&lowered, memory, options, |record| {
        tested.absorb(record.compensated());
        if prediction_test.is_none() {
            // The concurrent checker knows the fault-free expected word
            // for every read; compensate both streams identically so a
            // fault-free memory produces matching signatures.
            predicted.absorb(record.expected ^ record.offset);
        }
        absorbed += 1;
        reach_boundaries(&tested, absorbed);
    })?;
    debug_assert_eq!(element_signatures.len(), boundaries.len());

    let content_before = content_before.as_ref().unwrap_or(&test.initial_content);
    Ok(StagedSessionOutcome {
        outcome: SessionOutcome {
            predicted_signature: predicted.signature(),
            test_signature: tested.signature(),
            mismatches: test.mismatches,
            content_preserved: *content_before == test.final_content,
            prediction_operations,
            test_operations: test.operations(),
        },
        element_signatures,
        test_execution: test,
    })
}

/// Runs the complete BIST session described by any [`SchemeTransform`]
/// (prediction phase, test phase, signature comparison) on the given
/// memory — the entry point of the flow.
///
/// The provided MISR is used as a template for both phases (each phase
/// gets a reset copy), so its width must match the memory's word width.
///
/// For schemes with a signature-prediction test, phase 1 executes it and
/// compacts the raw read data. For schemes with concurrent (code-based)
/// checking and no prediction phase — TOMT — the transparent test is
/// executed once and the *predicted* signature is compacted from the
/// fault-free expected data of every read (what the code checker would
/// accept), so [`SessionOutcome::fault_detected`] still models the checker
/// flagging a corrupted word; [`SessionOutcome::prediction_operations`] is
/// 0 because no prediction pass touches the memory.
///
/// # Errors
///
/// Returns [`BistError::WidthMismatch`] if the MISR width differs from the
/// memory word width, and the executor's errors for unresolvable data or
/// invalid addresses.
pub fn run_scheme_session<M: MemoryAccess>(
    transform: &SchemeTransform,
    memory: &mut M,
    misr: Misr,
) -> Result<SessionOutcome, BistError> {
    run_session(transform, memory, misr, false).map(|staged| staged.outcome)
}

/// [`run_scheme_session`] with the per-element signature trail and the
/// test-phase execution kept — see [`StagedSessionOutcome`].
///
/// This is the naive trail oracle: it executes every operation on every
/// word. [`run_scheme_session_local`], which sweeps only the words a fault
/// can make diverge, is property-tested against it.
///
/// For prediction-free (concurrent-checking) schemes the predicted
/// signature is compacted from the fault-free expected data, exactly as in
/// the unstaged flow, and the element trail covers the single test pass.
///
/// # Errors
///
/// Same as [`run_scheme_session`].
pub fn run_scheme_session_staged<M: MemoryAccess>(
    transform: &SchemeTransform,
    memory: &mut M,
    misr: Misr,
) -> Result<StagedSessionOutcome, BistError> {
    run_session(transform, memory, misr, true)
}

/// A scheme session lowered once, with the fault-free session it produces
/// on a fixed initial content precomputed — the reference side of
/// [`run_scheme_session_local`].
///
/// Building one lowers the scheme's tests for the content's word width
/// and derives the fault-free session in closed form: the signature
/// trail, exact-compare mismatch count and number of words whose content
/// the session changes. Every word of a fault-free memory holds its
/// content, or not, XOR a constant common to all words, and MISR
/// compaction is linear over GF(2), so each element's signature is an
/// affine function of the content, summed in one pass over it per read
/// count and sweep direction.
/// [`run_scheme_session_staged`] on a fault-free memory holding the same
/// content produces the same trail and counts (property-tested in
/// `tests/fault_local_session.rs`). A fleet runtime builds one reference
/// per cold start, and it costs a few passes over the content instead of
/// every operation on every word: ~30 µs at 1K×32 and ~1.3 ms at 64K×32
/// for TWM_TA × March C−, against ~0.58 ms and ~43–46 ms op by op (2-vCPU
/// Xeon).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionReference {
    pub(crate) prediction: Option<LoweredTest>,
    pub(crate) test: LoweredTest,
    pub(crate) misr: Misr,
    pub(crate) image: BitStorage,
    pub(crate) trail: Vec<Word>,
    mismatches: usize,
    altered: usize,
}

impl SessionReference {
    /// Lowers `transform` for the content's word width and derives its
    /// fault-free session over the content `image`.
    ///
    /// # Errors
    ///
    /// * [`BistError::WidthMismatch`] if the MISR is not as wide as the
    ///   content words.
    /// * [`BistError::March`] if a pattern cannot be lowered for the
    ///   width.
    pub fn new(
        transform: &SchemeTransform,
        image: BitStorage,
        misr: Misr,
    ) -> Result<Self, BistError> {
        let width = image.width();
        if misr.width() != width {
            return Err(BistError::WidthMismatch {
                misr: misr.width(),
                memory: width,
            });
        }
        let prediction = transform
            .signature_prediction()
            .map(|test| LoweredTest::new(test, width))
            .transpose()?;
        let test = LoweredTest::new(transform.transparent_test(), width)?;
        let mut misr = misr;
        misr.reset();
        let FaultFree {
            trail,
            mismatches,
            altered,
        } = fault_free_session(prediction.as_ref(), &test, &image, &misr);
        Ok(Self {
            prediction,
            test,
            misr,
            image,
            trail,
            mismatches,
            altered,
        })
    }

    /// The fault-free signature trail (see
    /// [`StagedSessionOutcome::signature_trail`]).
    #[must_use]
    pub fn trail(&self) -> &[Word] {
        &self.trail
    }

    /// Exact-compare mismatches of the fault-free session (0 for every
    /// registered scheme).
    #[must_use]
    pub fn mismatches(&self) -> usize {
        self.mismatches
    }

    /// Whether the fault-free session preserves the content.
    #[must_use]
    pub fn content_preserved(&self) -> bool {
        self.altered == 0
    }

    /// The initial content the reference was run on.
    #[must_use]
    pub fn image(&self) -> &BitStorage {
        &self.image
    }
}

/// A fault-free session over one content: the signature trail, the test
/// phase's exact-compare mismatches and the number of words whose content
/// the session changes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultFree {
    trail: Vec<Word>,
    mismatches: usize,
    altered: usize,
}

/// What every word of a fault-free memory stores, or compacts at a read,
/// at one point of a session: its content XOR `constant` when
/// `transparent`, else `constant` alone.
///
/// One value describes every address. A word's ops depend only on its own
/// content, so an element leaves every word transformed alike: a
/// transparent op's data are the phase's origin (the content before the
/// phase) XOR its pattern, which keeps the origin's flag and XORs the
/// constant, and a literal op's data are its pattern, which clears the
/// flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Affine {
    transparent: bool,
    constant: u128,
}

impl Affine {
    /// The content itself.
    const CONTENT: Self = Self {
        transparent: true,
        constant: 0,
    };

    /// `op`'s data in a phase whose origin is `self`.
    fn data(self, op: &LoweredOp) -> Self {
        if op.transparent {
            self.xor(op.pattern.to_bits())
        } else {
            Self {
                transparent: false,
                constant: op.pattern.to_bits(),
            }
        }
    }

    fn xor(self, constant: u128) -> Self {
        Self {
            constant: self.constant ^ constant,
            ..self
        }
    }
}

/// A sum over comparisons of the words at which two [`Affine`] values
/// differ. Values of one flag differ at every word or at none. A
/// transparent and a literal value differ wherever the content is not the
/// XOR of their constants; those comparisons are kept as that constant
/// and counted by one scan of the content ([`count_differing`]).
#[derive(Debug, Default)]
struct Differing {
    words: usize,
    unless_content_is: Vec<u128>,
}

impl Differing {
    /// Adds the words of a `words`-word memory at which `a` and `b`
    /// differ.
    fn add(&mut self, a: Affine, b: Affine, words: usize) {
        if a.transparent != b.transparent {
            self.unless_content_is.push(a.constant ^ b.constant);
        } else if a.constant != b.constant {
            self.words += words;
        }
    }
}

/// Each sum of `sums`, in one scan of `content` for all of them.
fn count_differing<const N: usize>(content: &[u128], sums: [&Differing; N]) -> [usize; N] {
    let mut keys: Vec<u128> = sums
        .iter()
        .flat_map(|sum| sum.unless_content_is.iter().copied())
        .collect();
    keys.sort_unstable();
    keys.dedup();
    let mut equal = vec![0usize; keys.len()];
    if !keys.is_empty() {
        for value in content {
            for (key, equal) in keys.iter().zip(&mut equal) {
                *equal += usize::from(value == key);
            }
        }
    }
    sums.map(|sum| {
        sum.words
            + sum
                .unless_content_is
                .iter()
                .map(|key| content.len() - equal[keys.binary_search(key).expect("key is listed")])
                .sum::<usize>()
    })
}

/// MISR compaction of whole elements of a fault-free session, in closed
/// form over one content.
///
/// An element of `R` reads per word absorbs, at the word in slot `i` of
/// its sweep (address `aᵢ`), the reads `(tⱼ ? c(aᵢ) : 0) ⊕ dⱼ`, `j < R`
/// ([`Affine`]), at stream positions `R·i + j`. Compaction is linear over
/// GF(2) (see [`run_scheme_session_local`]), so with `n` words and
/// `y = x^R` the element takes a state `S` to
/// `S·yⁿ ⊕ T·H ⊕ D·G mod P`, where `T = Σ tⱼ·x^(R−1−j)`,
/// `D = Σ dⱼ·x^(R−1−j)`, `H = Σ c(aᵢ)·y^(n−1−i)` and `G = Σ yⁱ`, `i < n`.
/// `H` costs one pass over the content per read count and direction, by
/// Horner's rule (`R` feedback shifts, then XOR the word); `yⁿ` and `G`
/// cost `O(log n)` products per read count.
struct Compactor<'a> {
    misr: &'a Misr,
    content: &'a [u128],
    /// Per read count `R`: `yⁿ` and `G`.
    spans: Vec<(usize, u128, u128)>,
    /// Per read count and direction (descending or not): `H`.
    sums: Vec<(usize, bool, u128)>,
}

impl<'a> Compactor<'a> {
    fn new(misr: &'a Misr, content: &'a [u128]) -> Self {
        Self {
            misr,
            content,
            spans: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// `state` after an element in `order` that compacts `reads` at every
    /// word.
    fn absorb(&mut self, state: u128, reads: &[Affine], order: AddressOrder) -> u128 {
        if reads.is_empty() {
            return state;
        }
        let misr = self.misr;
        let (transparent, constant) = reads.iter().fold((0, 0), |(t, d), read| {
            (
                misr.times_x(t) ^ u128::from(read.transparent),
                misr.times_x(d) ^ read.constant,
            )
        });
        let (span, ones) = self.span(reads.len());
        let mut next = misr.mul_mod(state, span);
        if transparent != 0 {
            let descending = order == AddressOrder::Descending;
            next ^= misr.mul_mod(transparent, self.content_sum(reads.len(), descending));
        }
        if constant != 0 {
            next ^= misr.mul_mod(constant, ones);
        }
        next
    }

    /// `yⁿ` and `G = Σ yⁱ`, `i < n`, for `y = x^reads`: square-and-multiply
    /// over the bits of `n`, where doubling `m` takes `G` to `G·(1 + yᵐ)`
    /// and adding one takes it to `G·y + 1`.
    fn span(&mut self, reads: usize) -> (u128, u128) {
        if let Some(&(_, power, ones)) = self.spans.iter().find(|span| span.0 == reads) {
            return (power, ones);
        }
        let misr = self.misr;
        let step = (0..reads).fold(1, |power, _| misr.times_x(power));
        let words = self.content.len();
        let (mut power, mut ones) = (1u128, 0u128);
        for bit in (0..usize::BITS - words.leading_zeros()).rev() {
            ones ^= misr.mul_mod(ones, power);
            power = misr.mul_mod(power, power);
            if (words >> bit) & 1 == 1 {
                ones = misr.mul_mod(ones, step) ^ 1;
                power = misr.mul_mod(power, step);
            }
        }
        self.spans.push((reads, power, ones));
        (power, ones)
    }

    /// `H` for `reads` per word, swept descending or not (ascending and
    /// [`AddressOrder::Any`] alike, as [`twm_mem::AddressSequence`] runs
    /// it).
    fn content_sum(&mut self, reads: usize, descending: bool) -> u128 {
        if let Some(&(.., sum)) = self
            .sums
            .iter()
            .find(|sum| sum.0 == reads && sum.1 == descending)
        {
            return sum;
        }
        let misr = self.misr;
        let horner =
            |sum: u128, &value: &u128| (0..reads).fold(sum, |sum, _| misr.times_x(sum)) ^ value;
        let sum = if descending {
            self.content.iter().rev().fold(0, horner)
        } else {
            self.content.iter().fold(0, horner)
        };
        self.sums.push((reads, descending, sum));
        sum
    }
}

/// The fault-free session of `prediction` (if any) and `test` over the
/// content `image`, compacted with the reset register `misr` — what
/// [`run_scheme_session_staged`] reports on a fault-free memory holding
/// `image`, without running an op: every element is one [`Affine`]
/// transformation of every word, folded into the signatures by a
/// [`Compactor`] and into the counts by [`Differing`].
fn fault_free_session(
    prediction: Option<&LoweredTest>,
    test: &LoweredTest,
    image: &BitStorage,
    misr: &Misr,
) -> FaultFree {
    let words = image.words();
    let content: Vec<u128> = (0..words).map(|word| image.word_bits(word)).collect();
    let mut compactor = Compactor::new(misr, &content);
    let mut stored = Affine::CONTENT;
    let mut reads = Vec::new();
    let mut predicted = 0u128;
    if let Some(prediction) = prediction {
        for element in prediction.elements() {
            reads.clear();
            for op in &element.ops {
                match op.kind {
                    OpKind::Write => stored = Affine::CONTENT.data(op),
                    OpKind::Read => reads.push(stored),
                }
            }
            predicted = compactor.absorb(predicted, &reads, element.order);
        }
    }

    // The test phase resolves its data against the content the
    // prediction phase left; a prediction-free scheme's checker compacts
    // each read's expected data.
    let initial = stored;
    let mut states = vec![0u128];
    let mut tested = 0u128;
    let mut checked = Vec::new();
    let mut mismatches = Differing::default();
    for element in test.elements() {
        reads.clear();
        checked.clear();
        for op in &element.ops {
            let value = initial.data(op);
            match op.kind {
                OpKind::Write => stored = value,
                OpKind::Read => {
                    mismatches.add(stored, value, words);
                    reads.push(stored.xor(op.pattern.to_bits()));
                    checked.push(value.xor(op.pattern.to_bits()));
                }
            }
        }
        tested = compactor.absorb(tested, &reads, element.order);
        if prediction.is_none() {
            predicted = compactor.absorb(predicted, &checked, element.order);
        }
        states.push(tested);
    }
    states[0] = predicted;
    let mut altered = Differing::default();
    altered.add(stored, Affine::CONTENT, words);
    let [mismatches, altered] = count_differing(&content, [&mismatches, &altered]);
    let width = misr.width();
    FaultFree {
        trail: states
            .into_iter()
            .map(|state| Word::from_bits(state, width).expect("state is masked to the width"))
            .collect(),
        mismatches,
        altered,
    }
}

/// The outcome of [`run_scheme_session_local`]: what
/// [`run_scheme_session_staged`] would report for the whole memory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalSessionOutcome {
    /// The signature trail (see
    /// [`StagedSessionOutcome::signature_trail`]).
    pub trail: Vec<Word>,
    /// Exact-compare mismatches of the test phase over the whole memory.
    pub mismatches: usize,
    /// Whether the whole memory's content was preserved: the swept words
    /// checked directly, every other word as in the fault-free reference.
    pub content_preserved: bool,
}

impl LocalSessionOutcome {
    /// Whether the session is clean: the predicted signature equals the
    /// test signature, no read mismatched and the content was preserved —
    /// [`crate::SessionOutcome`]'s three checks.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.trail.first() == self.trail.last() && self.mismatches == 0 && self.content_preserved
    }
}

/// Fault-local scheme session: the signature trail, mismatch count and
/// content verdict of [`run_scheme_session_staged`] over the whole memory,
/// computed by sweeping only `addresses`.
///
/// In a word-oriented march every write to a word depends only on that
/// word's own initial content, so a word that hosts no faulty cell, no
/// coupling aggressor and no remapped spare evolves exactly as in the
/// fault-free session. `addresses` must list every other word, strictly
/// ascending: the fault set's [`twm_mem::FaultSet::word_footprint`],
/// plus the remapped words of a [`twm_mem::RepairableMemory`]. The sweep
/// visits them in each element's order on `memory`, and alongside
/// simulates what the fault-free memory stores there — the prediction
/// phase and a concurrent checker read raw content, so the fault-free
/// stream is not simply each operation's expected value.
///
/// Every read whose data differ is an error word `eₜ` at its position
/// `t` in the full read stream. MISR compaction is linear over GF(2),
/// so each signature equals the fault-free one XOR
/// `Σ eₜ · x^(T−1−t) mod P` over the errors before it. The sum is folded
/// by Horner's rule with one [`Misr::jump`] per gap between consecutive
/// errors and element boundaries. Cost: O(ops per word · |addresses| +
/// (errors + elements) · width² · log T), independent of the memory size
/// — ~11–21 µs per single stuck-at fault at 32×32 and ~80–110 µs at
/// 64K×32 (TWM_TA × March C−, 2-vCPU Xeon). A single stuck-at or
/// transition fault is answered without a sweep, at a small fraction of
/// that, by [`crate::CellTrailTable`].
///
/// The memory is left as the full session would leave the swept words;
/// other words are not touched.
///
/// # Errors
///
/// * [`BistError::WidthMismatch`] if the memory is not as wide as the
///   reference.
/// * [`BistError::Mem`] ([`twm_mem::MemError::LoadLengthMismatch`]) if it
///   does not hold as many words; address errors for addresses outside
///   it.
/// * [`BistError::UnsortedAddresses`] if `addresses` is not strictly
///   ascending.
pub fn run_scheme_session_local<M: MemoryAccess>(
    reference: &SessionReference,
    memory: &mut M,
    addresses: &[usize],
) -> Result<LocalSessionOutcome, BistError> {
    let words = reference.image.words();
    if memory.width() != reference.misr.width() {
        return Err(BistError::WidthMismatch {
            misr: reference.misr.width(),
            memory: memory.width(),
        });
    }
    if memory.words() != words {
        return Err(BistError::Mem(twm_mem::MemError::LoadLengthMismatch {
            found: memory.words(),
            expected: words,
        }));
    }
    if addresses.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err(BistError::UnsortedAddresses);
    }
    let reference_before = addresses
        .iter()
        .map(|&address| reference.image.word(address))
        .collect::<Result<Vec<_>, _>>()?;

    // Horner accumulators of the error streams: `absorbed()` is the
    // stream position the accumulated sum is taken at.
    let mut folds = Folds {
        predicted: reference.misr.clone(),
        tested: reference.misr.clone(),
        trail: reference.trail.clone(),
    };
    let sweep = sweep_local(
        reference.prediction.as_ref(),
        &reference.test,
        words,
        memory,
        addresses,
        &reference_before,
        &mut folds,
    )?;
    let Folds {
        mut predicted,
        mut trail,
        ..
    } = folds;
    predicted.jump(sweep.predicted_end - predicted.absorbed());
    trail[0] = trail[0] ^ predicted.signature();

    let mut altered = 0usize;
    let mut fault_free_altered = 0usize;
    for (index, &address) in addresses.iter().enumerate() {
        altered += usize::from(memory.peek_word(address)? != sweep.before[index]);
        fault_free_altered += usize::from(sweep.fault_free[index] != reference_before[index]);
    }
    Ok(LocalSessionOutcome {
        trail,
        mismatches: reference.mismatches - sweep.fault_free_mismatches + sweep.mismatches,
        content_preserved: reference.altered - fault_free_altered + altered == 0,
    })
}

/// Which signature an error word of a fault-local sweep corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stream {
    /// The predicted signature: the prediction phase's reads, or for a
    /// prediction-free scheme the checker's expected data.
    Predicted = 0,
    /// The test-phase signature and its element trail.
    Tested = 1,
}

/// Receives the error words of a fault-local sweep.
pub(crate) trait ErrorSink {
    /// A read at `position` of `stream` returned data that differ from
    /// the fault-free session's by the non-zero `error`.
    fn error(&mut self, stream: Stream, position: u64, error: Word);

    /// The test stream has reached the end of test element `stage`, at
    /// position `end`.
    fn element_end(&mut self, stage: usize, end: u64);
}

/// [`run_scheme_session_local`]'s sink: Horner accumulators of both
/// streams, each element's test-stream sum XORed into the trail.
struct Folds {
    predicted: Misr,
    tested: Misr,
    trail: Vec<Word>,
}

impl ErrorSink for Folds {
    fn error(&mut self, stream: Stream, position: u64, error: Word) {
        let errors = match stream {
            Stream::Predicted => &mut self.predicted,
            Stream::Tested => &mut self.tested,
        };
        errors.jump(position - errors.absorbed());
        errors.absorb(error);
    }

    fn element_end(&mut self, stage: usize, end: u64) {
        self.tested.jump(end - self.tested.absorbed());
        self.trail[stage + 1] = self.trail[stage + 1] ^ self.tested.signature();
    }
}

/// What a fault-local sweep leaves besides its error words.
pub(crate) struct Sweep {
    /// The swept words' content before the session.
    pub(crate) before: Vec<Word>,
    /// What the fault-free memory stores at the swept words afterwards.
    pub(crate) fault_free: Vec<Word>,
    /// Exact-compare mismatches of the test phase at the swept words.
    pub(crate) mismatches: usize,
    /// The same, had the swept words been fault-free.
    pub(crate) fault_free_mismatches: usize,
    /// Length of the predicted stream over the whole memory.
    pub(crate) predicted_end: u64,
}

/// The sweep behind [`run_scheme_session_local`] and the single-cell
/// trail table: runs the session's elements over `addresses` of a
/// `words`-word memory, alongside the fault-free content
/// `reference_before` of those words, and hands every differing read to
/// `sink`.
pub(crate) fn sweep_local<M: MemoryAccess>(
    prediction: Option<&LoweredTest>,
    test: &LoweredTest,
    words: usize,
    memory: &mut M,
    addresses: &[usize],
    reference_before: &[Word],
    sink: &mut impl ErrorSink,
) -> Result<Sweep, BistError> {
    let before = addresses
        .iter()
        .map(|&address| memory.peek_word(address))
        .collect::<Result<Vec<_>, _>>()?;
    let mut sweep = LocalSweep {
        memory,
        addresses,
        words,
        sink,
        fault_free: reference_before.to_vec(),
        origin: before,
        fault_free_origin: reference_before.to_vec(),
        mismatches: 0,
        fault_free_mismatches: 0,
        predicted: prediction.is_some(),
    };

    let mut start = 0u64;
    if let Some(prediction) = prediction {
        for element in prediction.elements() {
            let indices = 0..addresses.len();
            if element.order == AddressOrder::Descending {
                sweep.predict(element, start, indices.rev())?;
            } else {
                sweep.predict(element, start, indices)?;
            }
            start += reads_per_address(element) * words as u64;
        }
    }
    let predicted_end = start;

    // The test phase resolves its data against the content the
    // prediction phase left.
    let initial = addresses
        .iter()
        .map(|&address| sweep.memory.peek_word(address))
        .collect::<Result<Vec<_>, _>>()?;
    let before = std::mem::replace(&mut sweep.origin, initial);
    sweep.fault_free_origin.clone_from(&sweep.fault_free);
    let mut start = 0u64;
    for (stage, element) in test.elements().iter().enumerate() {
        let indices = 0..addresses.len();
        if element.order == AddressOrder::Descending {
            sweep.test(element, start, indices.rev())?;
        } else {
            sweep.test(element, start, indices)?;
        }
        start += reads_per_address(element) * words as u64;
        sweep.sink.element_end(stage, start);
    }
    Ok(Sweep {
        before,
        fault_free: sweep.fault_free,
        mismatches: sweep.mismatches,
        fault_free_mismatches: sweep.fault_free_mismatches,
        predicted_end: if prediction.is_some() {
            predicted_end
        } else {
            start
        },
    })
}

/// The state of one [`sweep_local`], indexed like its addresses.
struct LocalSweep<'a, M, S> {
    memory: &'a mut M,
    addresses: &'a [usize],
    words: usize,
    sink: &'a mut S,
    /// What the fault-free memory stores.
    fault_free: Vec<Word>,
    /// The content the current phase resolves its data against, on the
    /// memory and fault-free.
    origin: Vec<Word>,
    fault_free_origin: Vec<Word>,
    mismatches: usize,
    fault_free_mismatches: usize,
    /// Whether a prediction phase compacts the predicted stream.
    predicted: bool,
}

impl<M: MemoryAccess, S: ErrorSink> LocalSweep<'_, M, S> {
    /// One prediction element over the swept words at `indices`, its
    /// first read at stream position `start`.
    fn predict(
        &mut self,
        element: &LoweredElement,
        start: u64,
        indices: impl Iterator<Item = usize>,
    ) -> Result<(), BistError> {
        let reads = reads_per_address(element);
        for index in indices {
            let address = self.addresses[index];
            let mut position = start + reads * slot(address, self.words, element.order);
            for op in &element.ops {
                match op.kind {
                    OpKind::Write => {
                        self.memory
                            .write_word(address, op.value(self.origin[index]))?;
                        self.fault_free[index] = op.value(self.fault_free_origin[index]);
                    }
                    OpKind::Read => {
                        let error = self.memory.read_word(address)? ^ self.fault_free[index];
                        if !error.is_zero() {
                            self.sink.error(Stream::Predicted, position, error);
                        }
                        position += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// One test element over the swept words at `indices`, its first read
    /// at stream position `start`.
    fn test(
        &mut self,
        element: &LoweredElement,
        start: u64,
        indices: impl Iterator<Item = usize>,
    ) -> Result<(), BistError> {
        let reads = reads_per_address(element);
        for index in indices {
            let address = self.addresses[index];
            let mut position = start + reads * slot(address, self.words, element.order);
            for op in &element.ops {
                let value = op.value(self.origin[index]);
                let fault_free_value = op.value(self.fault_free_origin[index]);
                match op.kind {
                    OpKind::Write => {
                        self.memory.write_word(address, value)?;
                        self.fault_free[index] = fault_free_value;
                    }
                    OpKind::Read => {
                        let observed = self.memory.read_word(address)?;
                        self.mismatches += usize::from(observed != value);
                        self.fault_free_mismatches +=
                            usize::from(self.fault_free[index] != fault_free_value);
                        // Both streams compensate by the same offset.
                        let error = observed ^ self.fault_free[index];
                        if !error.is_zero() {
                            self.sink.error(Stream::Tested, position, error);
                        }
                        let expected_error = value ^ fault_free_value;
                        if !self.predicted && !expected_error.is_zero() {
                            self.sink.error(Stream::Predicted, position, expected_error);
                        }
                        position += 1;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Read operations an element applies per address.
pub(crate) fn reads_per_address(element: &LoweredElement) -> u64 {
    element
        .ops
        .iter()
        .filter(|op| op.kind == OpKind::Read)
        .count() as u64
}

/// The index of `address` in an element's full sweep.
fn slot(address: usize, words: usize, order: AddressOrder) -> u64 {
    match order {
        AddressOrder::Ascending | AddressOrder::Any => address as u64,
        AddressOrder::Descending => (words - 1 - address) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::{SchemeId, SchemeRegistry, TransparentScheme, TwmTa};
    use twm_march::algorithms::{march_c_minus, march_u, mats_plus};
    use twm_march::{DataPattern, DataSpec, MarchElement, MarchTest, Operation};
    use twm_mem::{AddressSequence, BitAddress, Fault, MemoryBuilder, SplitMix64, Transition};

    fn transformed(width: usize) -> SchemeTransform {
        TwmTa::new(width)
            .unwrap()
            .transform(&march_c_minus())
            .unwrap()
    }

    #[test]
    fn fault_free_memory_passes_and_content_is_preserved() {
        let t = transformed(8);
        let mut mem = MemoryBuilder::new(64, 8)
            .random_content(1234)
            .build()
            .unwrap();
        let before = mem.content();
        let outcome = run_scheme_session(&t, &mut mem, Misr::standard(8)).unwrap();
        assert!(!outcome.fault_detected());
        assert!(!outcome.fault_detected_exact());
        assert!(outcome.content_preserved);
        assert!(!outcome.aliased());
        assert_eq!(mem.content(), before);
        assert_eq!(
            outcome.test_operations,
            t.transparent_test().total_operations(64)
        );
        assert_eq!(
            outcome.prediction_operations,
            t.signature_prediction().unwrap().total_operations(64)
        );
    }

    #[test]
    fn stuck_at_fault_changes_the_signature() {
        let t = transformed(8);
        let mut mem = MemoryBuilder::new(32, 8)
            .random_content(77)
            .fault(Fault::stuck_at(BitAddress::new(9, 4), false))
            .build()
            .unwrap();
        let outcome = run_scheme_session(&t, &mut mem, Misr::standard(8)).unwrap();
        assert!(outcome.fault_detected_exact());
        assert!(
            outcome.fault_detected(),
            "signature comparison should flag the fault"
        );
    }

    #[test]
    fn coupling_fault_between_words_is_detected() {
        let t = TwmTa::new(4).unwrap().transform(&march_u()).unwrap();
        let mut mem = MemoryBuilder::new(16, 4)
            .random_content(5)
            .fault(Fault::coupling_idempotent(
                BitAddress::new(2, 1),
                BitAddress::new(10, 3),
                Transition::Rising,
                true,
            ))
            .build()
            .unwrap();
        let outcome = run_scheme_session(&t, &mut mem, Misr::standard(4)).unwrap();
        assert!(outcome.fault_detected_exact());
    }

    #[test]
    fn misr_width_must_match_memory_width() {
        let t = transformed(8);
        let mut mem = MemoryBuilder::new(8, 8).build().unwrap();
        let result = run_scheme_session(&t, &mut mem, Misr::standard(16));
        assert!(matches!(result, Err(BistError::WidthMismatch { .. })));
    }

    #[test]
    fn signatures_are_reproducible_across_sessions() {
        let t = transformed(8);
        let run = || {
            let mut mem = MemoryBuilder::new(16, 8)
                .random_content(42)
                .build()
                .unwrap();
            run_scheme_session(&t, &mut mem, Misr::standard(8)).unwrap()
        };
        let first = run();
        let second = run();
        assert_eq!(first.predicted_signature, second.predicted_signature);
        assert_eq!(first.test_signature, second.test_signature);
    }

    #[test]
    fn concurrent_checking_scheme_runs_without_a_prediction_phase() {
        let registry = SchemeRegistry::all(8).unwrap();
        let tomt = registry
            .get(SchemeId::Tomt)
            .unwrap()
            .transform(&march_c_minus())
            .unwrap();
        assert!(tomt.signature_prediction().is_none());

        let mut healthy = MemoryBuilder::new(16, 8).random_content(3).build().unwrap();
        let before = healthy.content();
        let outcome = run_scheme_session(&tomt, &mut healthy, Misr::standard(8)).unwrap();
        assert!(!outcome.fault_detected());
        assert!(!outcome.fault_detected_exact());
        assert!(outcome.content_preserved);
        assert_eq!(outcome.prediction_operations, 0);
        assert_eq!(
            outcome.test_operations,
            tomt.transparent_test().total_operations(16)
        );
        assert_eq!(healthy.content(), before);

        let mut faulty = MemoryBuilder::new(16, 8)
            .random_content(3)
            .fault(Fault::stuck_at(BitAddress::new(4, 2), true))
            .build()
            .unwrap();
        let outcome = run_scheme_session(&tomt, &mut faulty, Misr::standard(8)).unwrap();
        assert!(outcome.fault_detected_exact());
        assert!(outcome.fault_detected());
    }

    #[test]
    fn staged_session_agrees_with_the_unstaged_flow() {
        let registry = SchemeRegistry::all(8).unwrap();
        for scheme in registry.iter() {
            let transform = scheme.transform(&march_c_minus()).unwrap();
            let build = |fault: Option<Fault>| {
                let mut builder = MemoryBuilder::new(16, 8).random_content(21);
                if let Some(fault) = fault {
                    builder = builder.fault(fault);
                }
                builder.build().unwrap()
            };
            let fault = Fault::stuck_at(BitAddress::new(7, 3), true);
            for injected in [None, Some(fault)] {
                let plain = run_scheme_session(&transform, &mut build(injected), Misr::standard(8))
                    .unwrap();
                let staged =
                    run_scheme_session_staged(&transform, &mut build(injected), Misr::standard(8))
                        .unwrap();
                assert_eq!(staged.outcome, plain, "{} outcome drifted", scheme.name());
                // One cumulative signature per transparent-test element,
                // ending at the final test signature.
                assert_eq!(
                    staged.element_signatures.len(),
                    transform.transparent_test().element_count()
                );
                assert_eq!(
                    *staged.element_signatures.last().unwrap(),
                    plain.test_signature
                );
                let trail = staged.signature_trail();
                assert_eq!(trail[0], plain.predicted_signature);
                assert_eq!(trail.len(), staged.element_signatures.len() + 1);
                // The kept execution carries the read records a diagnosis
                // fuses.
                assert_eq!(
                    staged.test_execution.reads.len(),
                    staged.test_execution.reads_performed
                );
                assert_eq!(staged.test_execution.detected(), injected.is_some());
            }
        }
    }

    #[test]
    fn staged_trail_distinguishes_faults_with_distinct_evidence() {
        // Two different faults on the same memory shape and content should
        // (for this configuration) produce different signature trails —
        // the discrimination the repair dictionary keys on.
        let t = transformed(8);
        let run = |fault: Fault| {
            let mut memory = MemoryBuilder::new(16, 8)
                .random_content(4)
                .fault(fault)
                .build()
                .unwrap();
            run_scheme_session_staged(&t, &mut memory, Misr::standard(8))
                .unwrap()
                .signature_trail()
        };
        let a = run(Fault::stuck_at(BitAddress::new(2, 1), true));
        let b = run(Fault::stuck_at(BitAddress::new(9, 6), false));
        assert_ne!(a, b);
    }

    /// The fault-free session op by op: every element's ops on every
    /// word in sweep order, over a plain copy of the content.
    fn word_by_word(
        prediction: Option<&LoweredTest>,
        test: &LoweredTest,
        image: &BitStorage,
        misr: &Misr,
    ) -> FaultFree {
        let content = image.to_words();
        let words = content.len();
        let mut stored = content.clone();
        let mut predicted = misr.clone();
        if let Some(prediction) = prediction {
            for element in prediction.elements() {
                for address in AddressSequence::new(words, element.order) {
                    for op in &element.ops {
                        match op.kind {
                            OpKind::Write => stored[address] = op.value(content[address]),
                            OpKind::Read => predicted.absorb(stored[address]),
                        }
                    }
                }
            }
        }
        let initial = stored.clone();
        let mut tested = misr.clone();
        let mut trail = vec![Word::zeros(image.width())];
        let mut mismatches = 0usize;
        for element in test.elements() {
            for address in AddressSequence::new(words, element.order) {
                for op in &element.ops {
                    let value = op.value(initial[address]);
                    match op.kind {
                        OpKind::Write => stored[address] = value,
                        OpKind::Read => {
                            mismatches += usize::from(stored[address] != value);
                            tested.absorb(stored[address] ^ op.pattern);
                            if prediction.is_none() {
                                predicted.absorb(value ^ op.pattern);
                            }
                        }
                    }
                }
            }
            trail.push(tested.signature());
        }
        trail[0] = predicted.signature();
        let altered = stored
            .iter()
            .zip(&content)
            .filter(|(after, before)| after != before)
            .count();
        FaultFree {
            trail,
            mismatches,
            altered,
        }
    }

    const WIDTHS: [usize; 6] = [1, 7, 32, 33, 64, 128];

    /// All-zero content, or pseudo-random words.
    fn image(words: usize, width: usize, seed: Option<u64>) -> BitStorage {
        let mut image = BitStorage::new(words, width).unwrap();
        if let Some(seed) = seed {
            let mut rng = SplitMix64::new(seed);
            for word in 0..words {
                image.set_word_bits(word, rng.next_u128());
            }
        }
        image
    }

    fn lowered(test: &MarchTest, width: usize) -> LoweredTest {
        LoweredTest::new(test, width).unwrap()
    }

    /// Asserts that the closed form equals the op-by-op session.
    fn assert_closed_form(
        prediction: Option<&LoweredTest>,
        test: &LoweredTest,
        image: &BitStorage,
    ) {
        let misr = Misr::standard(image.width());
        assert_eq!(
            fault_free_session(prediction, test, image, &misr),
            word_by_word(prediction, test, image, &misr),
            "{} after {:?} on {}x{}",
            test.name(),
            prediction.map(LoweredTest::name),
            image.words(),
            image.width()
        );
    }

    fn literal(pattern: DataPattern) -> DataSpec {
        DataSpec::Literal(pattern)
    }

    fn transparent(pattern: DataPattern) -> DataSpec {
        DataSpec::TransparentXor(pattern)
    }

    /// Literal tests, one that reads before it writes, and literal writes
    /// followed by transparent reads, so the stored state and a read's
    /// expected data cross between the content-carrying and the literal
    /// forms.
    fn literal_and_mixed_tests() -> Vec<MarchTest> {
        let read_before_write = MarchTest::new(
            "read before write",
            vec![
                MarchElement::ascending(vec![
                    Operation::read(literal(DataPattern::Zeros)),
                    Operation::write(literal(DataPattern::Ones)),
                ]),
                MarchElement::descending(vec![
                    Operation::read(literal(DataPattern::Ones)),
                    Operation::write(literal(DataPattern::Custom(0x5A5A))),
                    Operation::read(literal(DataPattern::Custom(0x5A5A))),
                ]),
                MarchElement::any_order(vec![Operation::read(literal(DataPattern::Zeros))]),
            ],
        )
        .unwrap();
        let mixed = MarchTest::new(
            "literal writes, transparent reads",
            vec![
                MarchElement::ascending(vec![Operation::write(literal(DataPattern::Custom(
                    0x0F0F_3C3C,
                )))]),
                MarchElement::descending(vec![
                    Operation::read(transparent(DataPattern::Zeros)),
                    Operation::write(transparent(DataPattern::Ones)),
                    Operation::read(transparent(DataPattern::Ones)),
                    Operation::read(literal(DataPattern::Custom(0x0F0F_3C3C))),
                ]),
                MarchElement::ascending(vec![
                    Operation::write(transparent(DataPattern::Custom(0x1234))),
                    Operation::read(literal(DataPattern::Ones)),
                    Operation::write(literal(DataPattern::Zeros)),
                    Operation::read(transparent(DataPattern::Zeros)),
                ]),
            ],
        )
        .unwrap();
        vec![march_c_minus(), mats_plus(), read_before_write, mixed]
    }

    #[test]
    fn closed_form_matches_op_by_op_on_literal_and_mixed_tests() {
        let tests = literal_and_mixed_tests();
        for width in WIDTHS {
            let lowered: Vec<LoweredTest> = tests.iter().map(|test| lowered(test, width)).collect();
            for words in [1, 2, 3, 5, 17, 64, 300] {
                for seed in [None, Some(words as u64 ^ width as u64)] {
                    let image = image(words, width, seed);
                    for test in &lowered {
                        assert_closed_form(None, test, &image);
                        // A prediction phase that writes too.
                        for prediction in &lowered {
                            assert_closed_form(Some(prediction), test, &image);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn closed_form_matches_op_by_op_on_transformed_tests() {
        for width in WIDTHS.into_iter().filter(|&width| width > 1) {
            let registry = SchemeRegistry::all(width).unwrap();
            for scheme in registry.iter() {
                let transform = scheme.transform(&march_c_minus()).unwrap();
                let prediction = transform
                    .signature_prediction()
                    .map(|test| lowered(test, width));
                let test = lowered(transform.transparent_test(), width);
                for words in [1, 2, 40] {
                    for seed in [None, Some(7)] {
                        assert_closed_form(prediction.as_ref(), &test, &image(words, width, seed));
                    }
                }
            }
        }
    }

    /// A random test: 1–4 elements of 1–6 ops each, every op's kind,
    /// transparency and pattern drawn.
    fn random_test(rng: &mut SplitMix64) -> MarchTest {
        let elements = (0..1 + rng.next_below(4))
            .map(|_| {
                let ops = (0..1 + rng.next_below(6))
                    .map(|_| {
                        let pattern = match rng.next_below(4) {
                            0 => DataPattern::Zeros,
                            1 => DataPattern::Ones,
                            _ => DataPattern::Custom(rng.next_u128()),
                        };
                        let data = if rng.next_below(2) == 1 {
                            transparent(pattern)
                        } else {
                            literal(pattern)
                        };
                        if rng.next_below(2) == 1 {
                            Operation::read(data)
                        } else {
                            Operation::write(data)
                        }
                    })
                    .collect();
                match rng.next_below(3) {
                    0 => MarchElement::ascending(ops),
                    1 => MarchElement::descending(ops),
                    _ => MarchElement::any_order(ops),
                }
            })
            .collect();
        MarchTest::new("random", elements).unwrap()
    }

    #[test]
    fn closed_form_matches_op_by_op_on_random_tests() {
        let mut rng = SplitMix64::new(0x00C1_05ED);
        for _ in 0..400 {
            let width = WIDTHS[rng.next_below(WIDTHS.len())];
            let words = 1 + rng.next_below(300);
            let test = lowered(&random_test(&mut rng), width);
            let prediction =
                (rng.next_below(2) == 1).then(|| lowered(&random_test(&mut rng), width));
            let seed = (rng.next_below(2) == 1).then(|| rng.next_u64());
            assert_closed_form(prediction.as_ref(), &test, &image(words, width, seed));
        }
    }
}
