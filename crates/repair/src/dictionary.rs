//! Signature dictionaries: fault → MISR signature trail, inverted into
//! ambiguity classes.
//!
//! A failing transparent BIST session yields one observable: the MISR
//! signature (and, with the staged session hook, the signature after every
//! march element). A *signature dictionary* precomputes that observable for
//! every fault of a universe — and for sampled multi-fault injections —
//! under a reference initial content, then inverts the mapping: faults that
//! produce the same trail form an **ambiguity class**, the unit a
//! diagnosis can resolve to from signatures alone. The
//! [`crate::DiagnosticSession`] then refines an ambiguity class with
//! content-independent follow-up evidence.
//!
//! Builds run in parallel through the same [`Strategy`] machinery as the
//! coverage engine and are **bit-identical for any worker-thread count**:
//! every injection's trail is computed independently into its slot of one
//! flat buffer of packed trails, and the grouping is a stable sort of the
//! injections' positions by those trails, so a class lists its injections
//! in universe order (property-tested in `tests/repair_properties.rs`).

use std::cmp::Ordering;
use std::fmt;

use serde::{Deserialize, Serialize, Value};

use twm_bist::{FaultLocalSession, Misr};
use twm_core::scheme::SchemeId;
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, WorkerPool};
use twm_mem::{Fault, MemError, MemoryConfig, SplitMix64, Word};

use crate::RepairError;

/// The ordered MISR signature trail of one session: the predicted
/// signature followed by the cumulative test-phase signature after each
/// transparent-test element (see
/// [`twm_bist::StagedSessionOutcome::signature_trail`]).
///
/// Every signature of a trail has one width. The trail stores that width
/// and its signatures packed, [`Word::packed_len`] bytes each, most
/// significant byte first — 48 bytes for the 12 signatures of a
/// TWM_TA × March C− trail at width 32. Trails order, compare and
/// serialise exactly as the `Vec<Word>` of their signatures: signature by
/// signature (bits, then width), a shorter trail before its extensions.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SignatureTrail {
    /// Bits per signature; 0 for the empty trail.
    width: u8,
    /// The signatures, [`Word::write_packed`] back to back.
    packed: Box<[u8]>,
}

impl SignatureTrail {
    /// Wraps a raw signature sequence.
    ///
    /// # Panics
    ///
    /// Panics if the signatures differ in width; use
    /// [`SignatureTrail::from_words`] for a fallible constructor.
    #[must_use]
    pub fn new(signatures: Vec<Word>) -> Self {
        Self::from_words(&signatures).expect("a trail's signatures share one width")
    }

    /// Packs a signature sequence.
    ///
    /// # Errors
    ///
    /// [`MemError::WidthMismatch`] if a signature's width differs from the
    /// first one's.
    pub fn from_words(signatures: &[Word]) -> Result<Self, MemError> {
        let width = signatures.first().map_or(0, |first| first.width());
        let bytes = Word::packed_len(width);
        let mut packed = vec![0u8; signatures.len() * bytes];
        for (signature, slot) in signatures.iter().zip(packed.chunks_exact_mut(bytes.max(1))) {
            if signature.width() != width {
                return Err(MemError::WidthMismatch {
                    found: signature.width(),
                    expected: width,
                });
            }
            signature.write_packed(slot);
        }
        Ok(Self {
            width: width as u8,
            packed: packed.into_boxed_slice(),
        })
    }

    /// A trail of `width`-bit signatures from their packed bytes (see the
    /// [type docs](SignatureTrail)). Bits above `width` in a signature's
    /// first byte are cleared, as [`Word::from_bits`] masks them.
    ///
    /// # Errors
    ///
    /// [`MemError::InvalidWidth`] if `width` is zero or above
    /// [`twm_mem::MAX_WORD_WIDTH`].
    ///
    /// # Panics
    ///
    /// Panics if `packed` is not a whole number of signatures.
    pub fn from_packed(width: usize, packed: &[u8]) -> Result<Self, MemError> {
        Word::from_bits(0, width)?;
        let bytes = Word::packed_len(width);
        assert_eq!(packed.len() % bytes, 0, "a whole number of signatures");
        let mut packed: Box<[u8]> = packed.into();
        let high = (0xFFu16 >> (bytes * 8 - width)) as u8;
        for signature in packed.chunks_exact_mut(bytes) {
            signature[0] &= high;
        }
        Ok(Self {
            width: if packed.is_empty() { 0 } else { width as u8 },
            packed,
        })
    }

    /// The signatures' width in bits; 0 for the empty trail.
    #[must_use]
    pub fn width(&self) -> usize {
        usize::from(self.width)
    }

    /// The signatures packed back to back (see the [type docs](SignatureTrail)).
    #[must_use]
    pub fn packed(&self) -> &[u8] {
        &self.packed
    }

    /// Signature `index`, in session order.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[must_use]
    pub fn signature(&self, index: usize) -> Word {
        let bytes = Word::packed_len(self.width());
        Word::from_packed(&self.packed[index * bytes..][..bytes], self.width())
            .expect("a non-empty trail has a valid width")
    }

    /// The signatures, in session order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Word> + '_ {
        (0..self.len()).map(|index| self.signature(index))
    }

    /// Number of signatures in the trail.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packed
            .len()
            .checked_div(Word::packed_len(self.width()))
            .unwrap_or(0)
    }

    /// Whether the trail is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packed.is_empty()
    }

    /// The signature-wise XOR of two trails of the same shape.
    ///
    /// MISR compaction is linear over GF(2), so trail differences compose
    /// by XOR — the primitive behind content-normalised lookup
    /// ([`crate::TrailLookup::find_normalised`]).
    ///
    /// # Errors
    ///
    /// * [`RepairError::TrailShapeMismatch`] if the trails hold different
    ///   signature counts.
    /// * [`RepairError::Mem`] if their signatures differ in width.
    pub fn xor(&self, other: &SignatureTrail) -> Result<SignatureTrail, RepairError> {
        if self.len() != other.len() {
            return Err(RepairError::TrailShapeMismatch {
                left: self.len(),
                right: other.len(),
            });
        }
        if self.width != other.width {
            return Err(RepairError::Mem(MemError::WidthMismatch {
                found: other.width(),
                expected: self.width(),
            }));
        }
        Ok(Self {
            width: self.width,
            packed: self
                .packed
                .iter()
                .zip(other.packed.iter())
                .map(|(a, b)| a ^ b)
                .collect(),
        })
    }
}

impl Ord for SignatureTrail {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.width == other.width || self.is_empty() || other.is_empty() {
            // One stride: bytewise order is signature-wise order.
            self.packed.cmp(&other.packed)
        } else {
            // The first signatures already differ, in bits or in width.
            let (a, b) = (self.signature(0), other.signature(0));
            a.to_bits()
                .cmp(&b.to_bits())
                .then(self.width.cmp(&other.width))
        }
    }
}

impl PartialOrd for SignatureTrail {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for SignatureTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SignatureTrail")
            .field(&self.iter().collect::<Vec<_>>())
            .finish()
    }
}

/// The shape of the tuple struct `SignatureTrail(Vec<Word>)`.
impl Serialize for SignatureTrail {
    fn serialize(&self) -> Value {
        Value::Seq(vec![Value::Seq(
            self.iter().map(|signature| signature.serialize()).collect(),
        )])
    }
}

impl<'de> Deserialize<'de> for SignatureTrail {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let invalid = |error: MemError| serde::Error::message(format!("SignatureTrail: {error}"));
        let Value::Seq(fields) = value else {
            return Err(serde::Error::unexpected("SignatureTrail", value));
        };
        let [Value::Seq(items)] = fields.as_slice() else {
            return Err(serde::Error::unexpected("SignatureTrail", value));
        };
        let mut signatures = Vec::with_capacity(items.len());
        for item in items {
            let word = Word::deserialize(item)?;
            // The derived `Word` decode takes any bits and width: keep
            // only words `Word::from_bits` could have made.
            if Word::from_bits(word.to_bits(), word.width()).map_err(invalid)? != word {
                return Err(serde::Error::message(format!(
                    "SignatureTrail: signature {:#x} exceeds its {} bits",
                    word.to_bits(),
                    word.width()
                )));
            }
            signatures.push(word);
        }
        Self::from_words(&signatures).map_err(invalid)
    }
}

/// Faults (and multi-fault injections) sharing one signature trail — the
/// resolution limit of signature-only diagnosis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmbiguityClass {
    /// The shared trail.
    pub trail: SignatureTrail,
    /// The injections producing it, in universe order. Single faults are
    /// one-element injections; sampled multi-fault injections list every
    /// simultaneous fault.
    pub injections: Vec<Vec<Fault>>,
}

impl AmbiguityClass {
    /// Every distinct fault appearing in the class's injections, in first
    /// appearance order.
    #[must_use]
    pub fn faults(&self) -> Vec<Fault> {
        let mut faults = Vec::new();
        for injection in &self.injections {
            for &fault in injection {
                if !faults.contains(&fault) {
                    faults.push(fault);
                }
            }
        }
        faults
    }
}

/// Ambiguity statistics of a dictionary — the paper-relevant "how
/// diagnosable is this scheme" summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AmbiguityStats {
    /// Signature-detectable injections indexed.
    pub indexed: usize,
    /// Number of distinct signature trails (ambiguity classes).
    pub classes: usize,
    /// Size of the largest ambiguity class.
    pub max_class_size: usize,
    /// Injections alone in their class (uniquely diagnosable from the
    /// signature trail).
    pub distinguishable: usize,
    /// Injections whose trail equals the fault-free one (undetectable by
    /// signature under the reference content).
    pub undetected: usize,
}

impl AmbiguityStats {
    /// Fraction of indexed injections that are uniquely diagnosable.
    #[must_use]
    pub fn distinguishable_fraction(&self) -> f64 {
        if self.indexed == 0 {
            1.0
        } else {
            self.distinguishable as f64 / self.indexed as f64
        }
    }
}

/// Options for [`SignatureDictionary::build`].
#[derive(Debug, Clone)]
pub struct DictionaryOptions {
    /// Worker-thread strategy for the build (default: [`Strategy::Auto`]).
    /// The produced dictionary is bit-identical for any resolved count.
    pub strategy: Strategy,
    /// Number of two-fault injections to sample on top of the single-fault
    /// universe (default: 0). Sampled pairs are pre-filtered through
    /// [`CoverageEngine::injection_detected`], so only exact-oracle
    /// detectable injections are indexed.
    pub multi_fault_samples: usize,
    /// Seed of the deterministic pair sampler.
    pub sample_seed: u64,
    /// MISR template; `None` uses [`Misr::standard`] for the memory width.
    pub misr: Option<Misr>,
}

impl Default for DictionaryOptions {
    fn default() -> Self {
        Self {
            strategy: Strategy::Auto,
            multi_fault_samples: 0,
            sample_seed: 0xD1C7,
            misr: None,
        }
    }
}

/// A compact sorted index from signature trails to ambiguity classes.
///
/// Built once per `(scheme engine, fault universe)` pair; looked up by
/// [`SignatureDictionary::lookup`] with an observed trail. See the
/// [module docs](self). Resident, a TWM_TA × March C− SAF+TF dictionary
/// at width 32 holds ~160–180 heap bytes per class: its packed trail, its
/// injection lists and their exact-capacity vectors
/// (`tests/dictionary_footprint.rs`). A deserialised dictionary passes
/// [`SignatureDictionary::from_parts`]' checks, and its recorded
/// `indexed` count must match its classes.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SignatureDictionary {
    scheme: SchemeId,
    test_name: String,
    config: MemoryConfig,
    content: ContentPolicy,
    /// The (reset) MISR template trails were compacted with — recorded so
    /// a session can refuse a dictionary whose signatures it could never
    /// reproduce.
    misr: Misr,
    /// Classes sorted by trail, the binary-search index.
    classes: Vec<AmbiguityClass>,
    /// Injections not signature-detectable under the reference content.
    undetected: Vec<Vec<Fault>>,
    fault_free: SignatureTrail,
    indexed: usize,
}

impl SignatureDictionary {
    /// Builds the dictionary for a scheme engine over a fault universe.
    ///
    /// The engine must have been built through
    /// [`CoverageEngine::for_scheme`] (the session needs the scheme's
    /// prediction structure); the reference initial content is the engine's
    /// [`ContentPolicy`] (round 0 for the random policy). Every fault of
    /// `universe` is indexed as a single-fault injection;
    /// [`DictionaryOptions::multi_fault_samples`] adds sampled two-fault
    /// injections gated by [`CoverageEngine::injection_detected`].
    ///
    /// Trails are computed fault-locally: the session is lowered and its
    /// fault-free run derived once, in closed form, over the content's
    /// round-0 image ([`FaultLocalSession`]). A stuck-at or
    /// transition fault's trail is then read from the single-cell table
    /// ([`twm_bist::CellTrailTable`], built on the first such fault: one
    /// table multiplication per element, ~0.15–0.2 µs per fault of a
    /// 32×32 or 64K×32 TWM_TA × March C− universe on a 2-vCPU Xeon, in
    /// batches of 4,096 or 131,072 faults alike, against ~11–110 µs for a
    /// sweep); every other injection sweeps only its footprint words on a
    /// reused arena memory and folds its read errors into the fault-free
    /// trail. No injection costs work on the other words. Every trail is
    /// written packed into one flat buffer, and the classes are grouped by
    /// a stable sort of the injections' positions on those trails: a
    /// serial 32×32 SAF+TF build (4,096 faults, 3,072 classes) takes
    /// ~1.3–1.5 ms, of which ~0.75 ms are trails, ~0.3 ms the sort and
    /// ~0.17 ms assembling the classes. The naive reference is
    /// [`twm_bist::run_scheme_session_staged`] on a memory built with the
    /// injection and the reference content; `tests/fault_local_verify.rs`
    /// checks every indexed trail against it.
    ///
    /// # Errors
    ///
    /// * [`RepairError::MissingScheme`] for an engine without a scheme
    ///   transform.
    /// * [`RepairError::EmptyUniverse`] for an empty universe.
    /// * [`RepairError::MisrWidthMismatch`] for a MISR template of the
    ///   wrong width.
    /// * [`RepairError::Coverage`] for strategy resolution failures
    ///   (`Parallel { threads: 0 }`).
    /// * [`RepairError::Bist`] if an injection does not fit the memory
    ///   ([`twm_bist::BistError::Mem`]) or a session fails, and
    ///   [`RepairError::Coverage`] if a sampled pair does not fit it.
    pub fn build(
        engine: &CoverageEngine,
        universe: &[Fault],
        options: &DictionaryOptions,
    ) -> Result<Self, RepairError> {
        Ok(DictionaryStream::build(engine, universe, options)?.into_dictionary())
    }

    /// Reassembles a dictionary from previously produced parts — the
    /// rehydration path for serialised or paged dictionaries
    /// (`twm-store`'s `PagedDictionary::read_dictionary`).
    ///
    /// `misr` may be in any run state; it is reset to a template. `classes`
    /// must be strictly sorted by trail (the binary-search invariant
    /// [`SignatureDictionary::build`] guarantees), every trail must share
    /// the fault-free trail's length and carry signatures of the memory's
    /// width, every class must hold an injection, and no class may sit on
    /// the fault-free trail itself.
    ///
    /// # Errors
    ///
    /// * [`RepairError::MisrWidthMismatch`] for a MISR of the wrong width.
    /// * [`RepairError::InvalidDictionary`] when the parts violate the
    ///   invariants above.
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        scheme: SchemeId,
        test_name: String,
        config: MemoryConfig,
        content: ContentPolicy,
        misr: Misr,
        fault_free: SignatureTrail,
        classes: Vec<AmbiguityClass>,
        undetected: Vec<Vec<Fault>>,
    ) -> Result<Self, RepairError> {
        if misr.width() != config.width() {
            return Err(RepairError::MisrWidthMismatch {
                misr: misr.width(),
                memory: config.width(),
            });
        }
        let misfit = |trail: &SignatureTrail| !trail.is_empty() && trail.width() != config.width();
        if misfit(&fault_free) {
            return Err(RepairError::InvalidDictionary(format!(
                "the fault-free trail carries {}-bit signatures, the memory {}-bit words",
                fault_free.width(),
                config.width()
            )));
        }
        let mut indexed = 0usize;
        for (position, class) in classes.iter().enumerate() {
            if class.trail.len() != fault_free.len() {
                return Err(RepairError::InvalidDictionary(format!(
                    "class {position} trail holds {} signatures, expected {}",
                    class.trail.len(),
                    fault_free.len()
                )));
            }
            if misfit(&class.trail) {
                return Err(RepairError::InvalidDictionary(format!(
                    "class {position} trail carries {}-bit signatures, the memory {}-bit words",
                    class.trail.width(),
                    config.width()
                )));
            }
            if class.trail == fault_free {
                return Err(RepairError::InvalidDictionary(format!(
                    "class {position} sits on the fault-free trail"
                )));
            }
            if class.injections.is_empty() {
                return Err(RepairError::InvalidDictionary(format!(
                    "class {position} holds no injections"
                )));
            }
            if let Some(previous) = position.checked_sub(1) {
                if classes[previous].trail >= class.trail {
                    return Err(RepairError::InvalidDictionary(format!(
                        "classes are not strictly sorted by trail at position {position}"
                    )));
                }
            }
            indexed += class.injections.len();
        }
        let mut misr_template = misr;
        misr_template.reset();
        Ok(Self {
            scheme,
            test_name,
            config,
            content,
            misr: misr_template,
            classes,
            undetected,
            fault_free,
            indexed,
        })
    }

    /// The scheme the dictionary's sessions ran under.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        self.scheme
    }
}

/// A [`SignatureDictionary`]'s serialised fields, decoded before
/// [`SignatureDictionary::from_parts`] checks them.
#[derive(Deserialize)]
struct DictionaryParts {
    scheme: SchemeId,
    test_name: String,
    config: MemoryConfig,
    content: ContentPolicy,
    misr: Misr,
    classes: Vec<AmbiguityClass>,
    undetected: Vec<Vec<Fault>>,
    fault_free: SignatureTrail,
    indexed: usize,
}

impl<'de> Deserialize<'de> for SignatureDictionary {
    fn deserialize(value: &Value) -> Result<Self, serde::Error> {
        let parts = DictionaryParts::deserialize(value)?;
        let recorded = parts.indexed;
        let dictionary = Self::from_parts(
            parts.scheme,
            parts.test_name,
            parts.config,
            parts.content,
            parts.misr,
            parts.fault_free,
            parts.classes,
            parts.undetected,
        )
        .map_err(|error| serde::Error::message(format!("SignatureDictionary: {error}")))?;
        if dictionary.indexed != recorded {
            return Err(serde::Error::message(format!(
                "SignatureDictionary: records {recorded} indexed injections, its classes hold {}",
                dictionary.indexed
            )));
        }
        Ok(dictionary)
    }
}

/// A dictionary build that **streams** its ambiguity classes out in sorted
/// trail order instead of collecting them — the construction half of the
/// out-of-core path (`twm-store`'s `PagedDictionary::build_to_disk` writes
/// each drained class straight to its paged file).
///
/// All build-wide metadata (scheme, shapes, the fault-free trail, the
/// undetected injections) is available **before** the first class is
/// drained, so a disk writer can lay out its header up front. Draining the
/// stream into [`DictionaryStream::into_dictionary`] reproduces
/// [`SignatureDictionary::build`] bit-for-bit.
///
/// The trail computation and grouping run in RAM: every injection's
/// trail is packed into one flat buffer, and the detected injections are
/// sorted by it. A class is assembled only when it is drained, so the
/// stream never holds every class at once.
#[derive(Debug)]
pub struct DictionaryStream {
    scheme: SchemeId,
    test_name: String,
    config: MemoryConfig,
    content: ContentPolicy,
    misr: Misr,
    fault_free: SignatureTrail,
    undetected: Vec<Vec<Fault>>,
    indexed: usize,
    class_count: usize,
    /// Every injection's packed trail, `stride` bytes each, in injection
    /// order.
    trails: Vec<u8>,
    stride: usize,
    /// The injections; a drained class takes its own.
    injections: Vec<Vec<Fault>>,
    /// The detected injections' positions sorted by trail, in injection
    /// order within a trail.
    order: Vec<usize>,
    /// Where the next class starts in `order`.
    next: usize,
    /// Classes not yet drained.
    remaining: usize,
}

impl DictionaryStream {
    /// Runs the dictionary build and returns the draining stream. Inputs,
    /// validation, errors and cost are exactly those of
    /// [`SignatureDictionary::build`]: single stuck-at and transition
    /// faults from the single-cell table, every other injection through a
    /// fault-local sweep.
    ///
    /// # Errors
    ///
    /// See [`SignatureDictionary::build`].
    pub fn build(
        engine: &CoverageEngine,
        universe: &[Fault],
        options: &DictionaryOptions,
    ) -> Result<Self, RepairError> {
        if universe.is_empty() {
            return Err(RepairError::EmptyUniverse);
        }
        let transform = engine
            .scheme_transform()
            .ok_or(RepairError::MissingScheme)?;
        let config = engine.config();
        let misr = match &options.misr {
            Some(misr) => {
                if misr.width() != config.width() {
                    return Err(RepairError::MisrWidthMismatch {
                        misr: misr.width(),
                        memory: config.width(),
                    });
                }
                misr.clone()
            }
            None => Misr::standard(config.width()),
        };
        let threads = options.strategy.worker_threads()?;
        let content = engine.options().content;

        // The session lowered once, with the fault-free reference trail:
        // what a healthy session produces.
        let session = FaultLocalSession::new(transform, content.image(config, 0), misr.clone())?;
        let fault_free = SignatureTrail::from_words(session.reference().trail())?;

        // The injection list: the whole single-fault universe, then the
        // deterministic sample of exact-oracle-detectable fault pairs.
        let mut injections: Vec<Vec<Fault>> = universe.iter().map(|&fault| vec![fault]).collect();
        if options.multi_fault_samples > 0 && universe.len() >= 2 {
            let mut rng = SplitMix64::new(options.sample_seed);
            let mut attempts = 0usize;
            let budget = options.multi_fault_samples.saturating_mul(16);
            let mut sampled = 0usize;
            // Injection order does not matter to the simulated behaviour,
            // so (a, b) and (b, a) are one logical injection: dedup on the
            // normalised index pair, or repeats would inflate class sizes
            // and deflate the distinguishable fraction.
            let mut seen_pairs = std::collections::BTreeSet::new();
            while sampled < options.multi_fault_samples && attempts < budget {
                attempts += 1;
                let a = rng.next_below(universe.len());
                let b = rng.next_below(universe.len());
                if a == b || !seen_pairs.insert((a.min(b), a.max(b))) {
                    continue;
                }
                let pair = vec![universe[a], universe[b]];
                // A pair must be a valid simultaneous injection (no
                // self-coupling interactions to worry about here — fault
                // sets allow arbitrary combinations) and detectable by the
                // engine's exact oracle to be worth indexing.
                if engine.injection_detected(&pair)? {
                    injections.push(pair);
                    sampled += 1;
                }
            }
        }

        // Trail computation fans across the strategy's workers; the chunks
        // preserve injection order, so the serial grouping below sees the
        // same sequence for any thread count.
        let trails = compute_trails(universe, &injections[universe.len()..], &session, threads)?;
        let stride = session.trail_bytes();
        let trail = |at: usize| &trails[at * stride..][..stride];

        // The detected injections, sorted by trail: a stable sort, so a
        // class lists its injections in universe order.
        let mut undetected = Vec::new();
        let mut order = Vec::with_capacity(injections.len());
        for (at, injection) in injections.iter_mut().enumerate() {
            if trail(at) == fault_free.packed() {
                undetected.push(std::mem::take(injection));
            } else {
                order.push(at);
            }
        }
        order.sort_by(|&a, &b| trail(a).cmp(trail(b)));
        let class_count = order.chunk_by(|&a, &b| trail(a) == trail(b)).count();
        let mut misr_template = misr;
        misr_template.reset();
        Ok(Self {
            scheme: transform.scheme(),
            test_name: transform.transparent_test().name().to_string(),
            config,
            content,
            misr: misr_template,
            fault_free,
            undetected,
            indexed: order.len(),
            class_count,
            trails,
            stride,
            injections,
            order,
            next: 0,
            remaining: class_count,
        })
    }

    /// Drains every remaining class and assembles the in-RAM dictionary —
    /// [`SignatureDictionary::build`] is exactly this over a fresh stream.
    #[must_use]
    pub fn into_dictionary(mut self) -> SignatureDictionary {
        let classes: Vec<AmbiguityClass> = self.by_ref().collect();
        SignatureDictionary {
            scheme: self.scheme,
            test_name: self.test_name,
            config: self.config,
            content: self.content,
            misr: self.misr,
            classes,
            undetected: self.undetected,
            fault_free: self.fault_free,
            indexed: self.indexed,
        }
    }

    /// The scheme the dictionary's sessions ran under.
    #[must_use]
    pub fn scheme(&self) -> SchemeId {
        self.scheme
    }

    /// Name of the transparent test the trails were produced by.
    #[must_use]
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// The memory shape the dictionary is being built for.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// The reference initial-content policy trails are measured under.
    #[must_use]
    pub fn content(&self) -> ContentPolicy {
        self.content
    }

    /// The (reset) MISR template the trails are compacted with.
    #[must_use]
    pub fn misr_template(&self) -> &Misr {
        &self.misr
    }

    /// The fault-free reference trail.
    #[must_use]
    pub fn fault_free_trail(&self) -> &SignatureTrail {
        &self.fault_free
    }

    /// Injections that are not signature-detectable under the reference
    /// content.
    #[must_use]
    pub fn undetected(&self) -> &[Vec<Fault>] {
        &self.undetected
    }

    /// Consumes the stream's undetected injections (for writers that
    /// persist them after draining the classes).
    #[must_use]
    pub fn take_undetected(&mut self) -> Vec<Vec<Fault>> {
        std::mem::take(&mut self.undetected)
    }

    /// Signature-detectable injections indexed across all classes.
    #[must_use]
    pub fn indexed(&self) -> usize {
        self.indexed
    }

    /// Total number of ambiguity classes the stream yields (known before
    /// the first drain).
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.class_count
    }
}

impl Iterator for DictionaryStream {
    type Item = AmbiguityClass;

    fn next(&mut self) -> Option<AmbiguityClass> {
        let trail = |at: usize| &self.trails[at * self.stride..][..self.stride];
        let rest = &self.order[self.next..];
        let key = trail(*rest.first()?);
        let len = rest
            .iter()
            .position(|&at| trail(at) != key)
            .unwrap_or(rest.len());
        let class = AmbiguityClass {
            trail: SignatureTrail::from_packed(self.config.width(), key)
                .expect("the build's width is valid"),
            injections: rest[..len]
                .iter()
                .map(|&at| std::mem::take(&mut self.injections[at]))
                .collect(),
        };
        self.next += len;
        self.remaining -= 1;
        Some(class)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for DictionaryStream {}

impl SignatureDictionary {
    /// Name of the transparent test the trails were produced by.
    #[must_use]
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// The memory shape the dictionary was built for.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// The reference initial-content policy trails were measured under.
    #[must_use]
    pub fn content(&self) -> ContentPolicy {
        self.content
    }

    /// The (reset) MISR template the trails were compacted with.
    #[must_use]
    pub fn misr(&self) -> &Misr {
        &self.misr
    }

    /// The fault-free reference trail.
    #[must_use]
    pub fn fault_free_trail(&self) -> &SignatureTrail {
        &self.fault_free
    }

    /// The ambiguity classes, sorted by trail.
    #[must_use]
    pub fn classes(&self) -> &[AmbiguityClass] {
        &self.classes
    }

    /// Injections that are not signature-detectable under the reference
    /// content.
    #[must_use]
    pub fn undetected(&self) -> &[Vec<Fault>] {
        &self.undetected
    }

    /// Looks up an observed signature trail, returning its ambiguity class
    /// if any indexed injection produces it.
    #[must_use]
    pub fn lookup(&self, trail: &SignatureTrail) -> Option<&AmbiguityClass> {
        self.classes
            .binary_search_by(|class| class.trail.cmp(trail))
            .ok()
            .map(|index| &self.classes[index])
    }

    /// The ambiguity statistics of the dictionary.
    #[must_use]
    pub fn stats(&self) -> AmbiguityStats {
        AmbiguityStats {
            indexed: self.indexed,
            classes: self.classes.len(),
            max_class_size: self
                .classes
                .iter()
                .map(|class| class.injections.len())
                .max()
                .unwrap_or(0),
            distinguishable: self
                .classes
                .iter()
                .filter(|class| class.injections.len() == 1)
                .count(),
            undetected: self.undetected.len(),
        }
    }
}

/// Single faults per [`compute_trails`] job: enough for the single-cell
/// table to amortise each word's terms over its faults, few enough to
/// spread a universe of coupling faults over the workers.
const TRAIL_CHUNK: usize = 1024;

/// Computes the packed signature trail of every fault of `universe` as a
/// single-fault injection, then of every multi-fault injection in
/// `multi`, on a pool `threads` wide, into one buffer of
/// [`FaultLocalSession::trail_bytes`] per injection: single faults in
/// chunks through [`FaultLocalSession::single_fault_trails`] (table
/// lookups for stuck-at and transition faults), the rest through
/// [`FaultLocalSession::run`] — a sweep of the injection's footprint
/// words, not a session over the whole memory (the naive reference is
/// [`twm_bist::run_scheme_session_staged`] on a memory built with the
/// injection and the content). The pool returns trails in injection
/// order, so the result is identical for any thread count.
fn compute_trails(
    universe: &[Fault],
    multi: &[Vec<Fault>],
    session: &FaultLocalSession,
    threads: usize,
) -> Result<Vec<u8>, RepairError> {
    let pool = WorkerPool::new(threads - 1);
    let stride = session.trail_bytes();
    let chunks: Vec<&[Fault]> = universe.chunks(TRAIL_CHUNK).collect();
    let mut trails = Vec::with_capacity((universe.len() + multi.len()) * stride);
    for chunk in pool.map(&chunks, |chunk| {
        let mut out = vec![0; chunk.len() * stride];
        session.single_fault_trails(chunk, &mut out).map(|()| out)
    }) {
        trails.extend_from_slice(&chunk?);
    }
    for outcome in pool.map(multi, |injection| session.run(injection)) {
        trails.extend_from_slice(SignatureTrail::from_words(&outcome?.trail)?.packed());
    }
    Ok(trails)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_bist::run_scheme_session_staged;
    use twm_core::scheme::SchemeRegistry;
    use twm_march::algorithms::march_c_minus;
    use twm_mem::{BitAddress, FaultSet, FaultyMemory};

    const SEED: u64 = 41;

    fn scheme_engine(words: usize, width: usize, id: SchemeId) -> CoverageEngine {
        let config = MemoryConfig::new(words, width).unwrap();
        let registry = SchemeRegistry::all(width).unwrap();
        CoverageEngine::for_scheme(registry.get(id).unwrap(), &march_c_minus(), config)
            .unwrap()
            .content(ContentPolicy::Random { seed: SEED })
            .build()
            .unwrap()
    }

    fn saf_tf_universe(config: MemoryConfig) -> Vec<Fault> {
        twm_coverage::UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .build()
    }

    #[test]
    fn build_validates_inputs() {
        let engine = scheme_engine(4, 4, SchemeId::TwmTa);
        assert_eq!(
            SignatureDictionary::build(&engine, &[], &DictionaryOptions::default()).unwrap_err(),
            RepairError::EmptyUniverse
        );

        let config = MemoryConfig::new(4, 4).unwrap();
        let plain = CoverageEngine::builder(config)
            .test(&march_c_minus())
            .build()
            .unwrap();
        assert_eq!(
            SignatureDictionary::build(
                &plain,
                &saf_tf_universe(config),
                &DictionaryOptions::default()
            )
            .unwrap_err(),
            RepairError::MissingScheme
        );

        assert!(matches!(
            SignatureDictionary::build(
                &engine,
                &saf_tf_universe(config),
                &DictionaryOptions {
                    misr: Some(Misr::standard(8)),
                    ..DictionaryOptions::default()
                }
            ),
            Err(RepairError::MisrWidthMismatch { misr: 8, memory: 4 })
        ));
        assert!(matches!(
            SignatureDictionary::build(
                &engine,
                &saf_tf_universe(config),
                &DictionaryOptions {
                    strategy: Strategy::Parallel { threads: 0 },
                    ..DictionaryOptions::default()
                }
            ),
            Err(RepairError::Coverage(_))
        ));
    }

    #[test]
    fn every_indexed_fault_is_found_by_its_own_trail() {
        let engine = scheme_engine(6, 4, SchemeId::TwmTa);
        let universe = saf_tf_universe(engine.config());
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        let stats = dictionary.stats();
        assert_eq!(stats.indexed + stats.undetected, universe.len());
        assert!(stats.indexed > 0);
        assert!(stats.classes <= stats.indexed);
        assert!(stats.distinguishable_fraction() > 0.0);
        for class in dictionary.classes() {
            assert_eq!(dictionary.lookup(&class.trail), Some(class));
            assert_ne!(&class.trail, dictionary.fault_free_trail());
            assert!(!class.faults().is_empty());
        }
        // A trail nobody produces misses.
        let absent = SignatureTrail::new(vec![Word::ones(4); 3]);
        if dictionary.lookup(&absent).is_some() {
            // Astronomically unlikely, but keep the assertion honest.
            assert!(dictionary.classes().iter().any(|c| c.trail == absent));
        }
    }

    #[test]
    fn multi_fault_samples_are_gated_by_injection_detected() {
        let engine = scheme_engine(4, 4, SchemeId::TwmTa);
        let universe = saf_tf_universe(engine.config());
        let dictionary = SignatureDictionary::build(
            &engine,
            &universe,
            &DictionaryOptions {
                multi_fault_samples: 12,
                ..DictionaryOptions::default()
            },
        )
        .unwrap();
        let pairs: Vec<&Vec<Fault>> = dictionary
            .classes()
            .iter()
            .flat_map(|class| &class.injections)
            .filter(|injection| injection.len() == 2)
            .collect();
        assert!(!pairs.is_empty());
        for pair in pairs {
            assert!(engine.injection_detected(pair).unwrap());
        }
    }

    #[test]
    fn prediction_free_schemes_build_dictionaries_too() {
        let engine = scheme_engine(4, 4, SchemeId::Tomt);
        let universe = saf_tf_universe(engine.config());
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        assert_eq!(dictionary.scheme(), SchemeId::Tomt);
        assert!(dictionary.stats().indexed > 0);
    }

    #[test]
    fn known_fault_lookup_roundtrip() {
        let engine = scheme_engine(6, 4, SchemeId::TwmTa);
        let fault = Fault::stuck_at(BitAddress::new(3, 2), true);
        let universe = saf_tf_universe(engine.config());
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();

        // Reproduce the observation: same content, same session, and the
        // lookup must return a class containing the injected fault.
        let mut memory =
            FaultyMemory::with_faults(engine.config(), FaultSet::from_faults([fault])).unwrap();
        memory
            .load_image(&engine.options().content.image(engine.config(), 0))
            .unwrap();
        let staged = run_scheme_session_staged(
            engine.scheme_transform().unwrap(),
            &mut memory,
            Misr::standard(4),
        )
        .unwrap();
        let observed = SignatureTrail::new(staged.signature_trail());
        let class = dictionary.lookup(&observed).expect("trail is indexed");
        assert!(class.faults().contains(&fault));
    }
}
