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
//! every injection's trail is computed independently and the grouping pass
//! is serial in universe order (property-tested in
//! `tests/repair_properties.rs`).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use twm_bist::Misr;
use twm_core::scheme::SchemeId;
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, WorkerPool};
use twm_mem::{Fault, FaultyMemory, MemoryConfig, SplitMix64, Word};

use crate::{FaultLocalSession, RepairError};

/// The ordered MISR signature trail of one session: the predicted
/// signature followed by the cumulative test-phase signature after each
/// transparent-test element (see
/// [`twm_bist::StagedSessionOutcome::signature_trail`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SignatureTrail(Vec<Word>);

impl SignatureTrail {
    /// Wraps a raw signature sequence.
    #[must_use]
    pub fn new(signatures: Vec<Word>) -> Self {
        Self(signatures)
    }

    /// The signatures, in session order.
    #[must_use]
    pub fn signatures(&self) -> &[Word] {
        &self.0
    }

    /// Number of signatures in the trail.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the trail is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
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
    /// * [`RepairError::Mem`] if paired signatures differ in width.
    pub fn xor(&self, other: &SignatureTrail) -> Result<SignatureTrail, RepairError> {
        if self.0.len() != other.0.len() {
            return Err(RepairError::TrailShapeMismatch {
                left: self.0.len(),
                right: other.0.len(),
            });
        }
        let words = self
            .0
            .iter()
            .zip(&other.0)
            .map(|(&a, &b)| a.checked_xor(b))
            .collect::<Result<Vec<Word>, _>>()?;
        Ok(SignatureTrail::new(words))
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
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// fault-free run simulated once ([`FaultLocalSession`]). A stuck-at or
    /// transition fault's trail is then read from the single-cell table
    /// ([`twm_bist::CellTrailTable`], built on the first such fault: one
    /// table multiplication per element, ~0.2–0.5 µs per fault of a
    /// 32×32 or 64K×32 TWM_TA × March C− universe on a 2-vCPU Xeon,
    /// against ~11–110 µs for a sweep); every other injection sweeps only
    /// its footprint words on a reused arena memory and folds its read
    /// errors into the fault-free trail. No injection costs work on the
    /// other words. The naive reference is
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
    /// * [`RepairError::Mem`] / [`RepairError::Bist`] if an injection does
    ///   not fit the memory or a session fails.
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
    /// the fault-free trail's shape, and no class may sit on the fault-free
    /// trail itself.
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
        let mut indexed = 0usize;
        for (position, class) in classes.iter().enumerate() {
            if class.trail.len() != fault_free.len() {
                return Err(RepairError::InvalidDictionary(format!(
                    "class {position} trail holds {} signatures, expected {}",
                    class.trail.len(),
                    fault_free.len()
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
/// The trail computation and grouping still run in RAM (the universe is
/// simulated and sorted in-process); what streaming removes is the second
/// materialised copy of every class on the consumer side. An external-sort
/// build for universes whose *trail map* outgrows RAM is a documented next
/// rung in the ROADMAP.
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
    classes: std::collections::btree_map::IntoIter<SignatureTrail, Vec<Vec<Fault>>>,
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
        let session = FaultLocalSession::new(transform, config, content, misr.clone())?;
        let fault_free = session.fault_free_trail();

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

        let mut by_trail: BTreeMap<SignatureTrail, Vec<Vec<Fault>>> = BTreeMap::new();
        let mut undetected = Vec::new();
        let mut indexed = 0usize;
        for (injection, trail) in injections.into_iter().zip(trails) {
            if trail == fault_free {
                undetected.push(injection);
            } else {
                by_trail.entry(trail).or_default().push(injection);
                indexed += 1;
            }
        }
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
            indexed,
            class_count: by_trail.len(),
            classes: by_trail.into_iter(),
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
        self.classes
            .next()
            .map(|(trail, injections)| AmbiguityClass { trail, injections })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.classes.size_hint()
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

/// Applies a reference content policy to a freshly built memory (round 0
/// of the engine's prepared contents).
pub(crate) fn apply_content(memory: &mut FaultyMemory, content: ContentPolicy) {
    match content {
        ContentPolicy::Zeros => {}
        ContentPolicy::Random { seed } => memory.fill_random(seed),
    }
}

/// Single faults per [`compute_trails`] job: enough for the single-cell
/// table to amortise each word's terms over its faults, few enough to
/// spread a universe of coupling faults over the workers.
const TRAIL_CHUNK: usize = 1024;

/// Computes the signature trail of every fault of `universe` as a
/// single-fault injection, then of every multi-fault injection in
/// `multi`, on a pool `threads` wide: single faults in chunks through
/// [`FaultLocalSession::single_fault_trails`] (table lookups for stuck-at
/// and transition faults), the rest through [`FaultLocalSession::trail`]
/// — a sweep of the injection's footprint words, not a session over the
/// whole memory (the naive reference is
/// [`twm_bist::run_scheme_session_staged`] on a memory built with the
/// injection and the content). The pool returns trails in injection
/// order, so the result is identical for any thread count.
fn compute_trails(
    universe: &[Fault],
    multi: &[Vec<Fault>],
    session: &FaultLocalSession,
    threads: usize,
) -> Result<Vec<SignatureTrail>, RepairError> {
    let pool = WorkerPool::new(threads - 1);
    let chunks: Vec<&[Fault]> = universe.chunks(TRAIL_CHUNK).collect();
    let mut trails = Vec::with_capacity(universe.len() + multi.len());
    for chunk in pool.map(&chunks, |chunk| session.single_fault_trails(chunk)) {
        trails.extend(chunk?);
    }
    for trail in pool.map(multi, |injection| session.trail(injection)) {
        trails.push(trail?);
    }
    Ok(trails)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_bist::run_scheme_session_staged;
    use twm_core::scheme::SchemeRegistry;
    use twm_march::algorithms::march_c_minus;
    use twm_mem::{BitAddress, FaultSet};

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
        apply_content(&mut memory, engine.options().content);
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
