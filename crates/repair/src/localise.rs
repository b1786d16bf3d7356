//! Adaptive fault localisation: from a failing signature to ranked,
//! cell-level defect hypotheses.
//!
//! A [`DiagnosticSession`] owns the follow-up schedule a maintenance layer
//! would run after a periodic test fails:
//!
//! 1. **Registry-driven scheme sessions** — every registered transparent
//!    scheme's session is executed on the memory under test. Each scheme
//!    exercises different patterns, so their per-cell read-log diagnoses
//!    ([`twm_bist::diagnose`], fused with
//!    [`DiagnosisReport::fuse`]) flag overlapping but not
//!    identical evidence; the signature trail of the dictionary's scheme
//!    doubles as the dictionary lookup key.
//! 2. **Signature dictionary lookup** — the observed trail resolves to an
//!    [`crate::AmbiguityClass`] when the memory's content matches the
//!    dictionary's reference content (the canonical periodic-test flow);
//!    under drifted content the lookup may miss, and the session degrades
//!    gracefully to the content-independent evidence.
//! 3. **Targeted fault-local probes** — every candidate's word footprint is
//!    re-tested in isolation with [`twm_bist::probe_lowered_at`] (the
//!    fault-local sweep the coverage engine uses, without its
//!    footprint-coverage contract), confirming or refuting the hypothesis
//!    at O(footprint) cost.
//!
//! The evidence fuses into a ranked `Vec<`[`LocatedDefect`]`>` — word, bit,
//! fault-class hypothesis and confidence — the input a
//! [`crate::RepairAllocator`] turns into a spare assignment.

use std::borrow::Cow;
use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use twm_bist::{
    diagnose, probe_lowered_at, run_scheme_session_staged, DiagnosisReport, LoweredTest, Misr,
    SessionOutcome,
};
use twm_core::scheme::{SchemeRegistry, SchemeTransform};
use twm_march::MarchTest;
use twm_mem::{BitAddress, FaultClass, FaultyMemory};

use crate::dictionary::{AmbiguityClass, SignatureTrail};
use crate::lookup::TrailLookup;
use crate::RepairError;

/// Maximum evidence points a candidate can accumulate (see
/// [`DefectEvidence::points`]).
const MAX_EVIDENCE_POINTS: u32 = 9;

/// Whether two MISR templates produce the same signatures: same register,
/// run state (absorbed words, current state) ignored — every session
/// resets its copy before use.
fn misr_templates_equal(a: &Misr, b: &Misr) -> bool {
    let mut a = a.clone();
    a.reset();
    let mut b = b.clone();
    b.reset();
    a == b
}

/// The independent evidence sources backing one located defect.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DefectEvidence {
    /// The cell belongs to a fault of the matched dictionary ambiguity
    /// class.
    pub in_ambiguity_class: bool,
    /// The fused read-log diagnosis flagged the cell.
    pub read_log_suspect: bool,
    /// An isolated probe of the cell's word footprint mismatched.
    pub local_probe: bool,
    /// Scheme sessions whose own diagnosis flagged the cell.
    pub sessions_flagged: usize,
    /// Scheme sessions run in total.
    pub sessions_run: usize,
}

impl DefectEvidence {
    /// The integer evidence score the ranking sorts by: dictionary
    /// membership and read-log evidence weigh 3 each, a confirming local
    /// probe 2, unanimity across every scheme session 1 (max 9).
    #[must_use]
    pub fn points(&self) -> u32 {
        let mut points = 0;
        if self.in_ambiguity_class {
            points += 3;
        }
        if self.read_log_suspect {
            points += 3;
        }
        if self.local_probe {
            points += 2;
        }
        if self.sessions_run > 0 && self.sessions_flagged == self.sessions_run {
            points += 1;
        }
        points
    }
}

/// One ranked defect hypothesis: a cell, an optional fault-class
/// hypothesis and the fused confidence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocatedDefect {
    /// The suspected cell (word + bit).
    pub cell: BitAddress,
    /// Fault-class hypothesis, when the dictionary pins one. Read-log-only
    /// evidence cannot separate a stuck-at from a transition fault (the
    /// cell is only ever observed at one value), so it leaves this `None`.
    pub hypothesis: Option<FaultClass>,
    /// The constant value the cell was observed at, when all observations
    /// agree — the stuck-at-value / blocked-transition signature.
    pub stuck_value: Option<bool>,
    /// Fused confidence in `[0, 1]`: [`DefectEvidence::points`] over the
    /// maximum.
    pub confidence: f64,
    /// The individual evidence sources.
    pub evidence: DefectEvidence,
}

/// The outcome of one localisation pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalisationOutcome {
    /// Ranked defect hypotheses, most confident first.
    pub defects: Vec<LocatedDefect>,
    /// The fused per-cell read-log diagnosis across every scheme session.
    pub diagnosis: DiagnosisReport,
    /// Per-scheme session outcomes, in registry order.
    pub sessions: Vec<SessionOutcome>,
    /// Whether the observed signature trail hit the dictionary.
    pub dictionary_hit: bool,
    /// Size of the matched ambiguity class (0 on a miss or without a
    /// dictionary).
    pub ambiguity: usize,
}

impl LocalisationOutcome {
    /// Whether no session produced any evidence of a fault.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
            && self.diagnosis.is_clean()
            && self
                .sessions
                .iter()
                .all(|outcome| !outcome.fault_detected() && !outcome.fault_detected_exact())
    }

    /// The sorted, deduplicated words hosting at least one located defect.
    #[must_use]
    pub fn defective_words(&self) -> Vec<usize> {
        let mut words: Vec<usize> = self.defects.iter().map(|defect| defect.cell.word).collect();
        words.sort_unstable();
        words.dedup();
        words
    }
}

/// The adaptive localisation driver — see the [module docs](self).
#[derive(Debug)]
pub struct DiagnosticSession<'a> {
    registry: &'a SchemeRegistry,
    transforms: Cow<'a, [SchemeTransform]>,
    dictionary: Option<&'a dyn TrailLookup>,
    misr: Misr,
}

impl<'a> DiagnosticSession<'a> {
    /// Builds a session running every scheme of `registry` on the
    /// transparent transform of `source`, with a standard MISR.
    ///
    /// # Errors
    ///
    /// * [`RepairError::EmptyRegistry`] for a registry with no schemes.
    /// * [`RepairError::Core`] if a registered scheme cannot transform
    ///   `source`.
    pub fn new(registry: &'a SchemeRegistry, source: &MarchTest) -> Result<Self, RepairError> {
        if registry.is_empty() {
            return Err(RepairError::EmptyRegistry);
        }
        let transforms = Cow::Owned(registry.transform_all(source)?);
        Ok(Self {
            registry,
            transforms,
            dictionary: None,
            misr: Misr::standard(registry.width()),
        })
    }

    /// Builds a session over **precomputed** scheme transforms — the O(1)
    /// constructor for callers that cache
    /// [`SchemeRegistry::transform_all`]'s output and build many short-lived
    /// sessions from it (the `twm-fleet` shard-runtime cache constructs one
    /// session per batch this way, paying no transform work on cache hits).
    ///
    /// `transforms` must be the registry's transforms of one source test, in
    /// registry order — exactly what [`SchemeRegistry::transform_all`]
    /// returns.
    ///
    /// # Errors
    ///
    /// * [`RepairError::EmptyRegistry`] for a registry with no schemes or an
    ///   empty transform slice.
    /// * [`RepairError::ConfigMismatch`] if the transforms do not line up
    ///   with the registry (count or scheme order).
    pub fn with_transforms(
        registry: &'a SchemeRegistry,
        transforms: &'a [SchemeTransform],
    ) -> Result<Self, RepairError> {
        if registry.is_empty() || transforms.is_empty() {
            return Err(RepairError::EmptyRegistry);
        }
        if transforms.len() != registry.len()
            || !registry
                .ids()
                .zip(transforms.iter())
                .all(|(id, transform)| transform.scheme() == id)
        {
            return Err(RepairError::ConfigMismatch);
        }
        Ok(Self {
            registry,
            transforms: Cow::Borrowed(transforms),
            dictionary: None,
            misr: Misr::standard(registry.width()),
        })
    }

    /// Attaches a signature dictionary — any [`TrailLookup`] backend, the
    /// in-RAM [`crate::SignatureDictionary`] or a paged on-disk store. Its
    /// scheme must be registered in the session's registry (the session
    /// needs to run that scheme to produce a comparable trail), its shape
    /// must match the registry width, and its MISR must equal the
    /// session's — trails compacted by different registers could never
    /// match.
    ///
    /// # Errors
    ///
    /// * [`RepairError::WidthMismatch`] if the dictionary's memory width
    ///   differs from the registry's.
    /// * [`RepairError::ConfigMismatch`] if the dictionary's scheme is not
    ///   registered.
    /// * [`RepairError::MisrMismatch`] if the dictionary was built with a
    ///   different MISR than the session's (set the session's MISR first
    ///   via [`DiagnosticSession::with_misr`] when using a custom one).
    pub fn with_dictionary(mut self, dictionary: &'a dyn TrailLookup) -> Result<Self, RepairError> {
        if dictionary.config().width() != self.registry.width() {
            return Err(RepairError::WidthMismatch {
                registry: self.registry.width(),
                memory: dictionary.config().width(),
            });
        }
        if self.registry.get(dictionary.scheme()).is_none() {
            return Err(RepairError::ConfigMismatch);
        }
        if !misr_templates_equal(&self.misr, dictionary.misr_template()) {
            return Err(RepairError::MisrMismatch);
        }
        self.dictionary = Some(dictionary);
        Ok(self)
    }

    /// Replaces the MISR template (must match the registry width and, if a
    /// dictionary is already attached, the dictionary's MISR).
    ///
    /// # Errors
    ///
    /// Returns [`RepairError::MisrWidthMismatch`] on a width mismatch and
    /// [`RepairError::MisrMismatch`] if an attached dictionary's trails
    /// were compacted with a different register.
    pub fn with_misr(mut self, misr: Misr) -> Result<Self, RepairError> {
        if misr.width() != self.registry.width() {
            return Err(RepairError::MisrWidthMismatch {
                misr: misr.width(),
                memory: self.registry.width(),
            });
        }
        if let Some(dictionary) = self.dictionary {
            if !misr_templates_equal(&misr, dictionary.misr_template()) {
                return Err(RepairError::MisrMismatch);
            }
        }
        self.misr = misr;
        Ok(self)
    }

    /// The scheme transforms the session runs, in registry order.
    #[must_use]
    pub fn transforms(&self) -> &[SchemeTransform] {
        &self.transforms
    }

    /// The MISR template the sessions compact signatures with.
    #[must_use]
    pub fn misr(&self) -> &Misr {
        &self.misr
    }

    /// Localises the defects of a memory under test.
    ///
    /// The memory is left in the state the last restoring step produces:
    /// its content is snapshotted before the follow-up runs and reloaded
    /// afterwards, so (up to the fault effects a physical memory would
    /// impose anyway) localisation does not disturb the array.
    ///
    /// # Errors
    ///
    /// * [`RepairError::ConfigMismatch`] if an attached dictionary was
    ///   built for a different memory shape.
    /// * [`RepairError::Bist`] / [`RepairError::Mem`] for session failures.
    pub fn localise(&self, memory: &mut FaultyMemory) -> Result<LocalisationOutcome, RepairError> {
        if let Some(dictionary) = self.dictionary {
            if dictionary.config() != memory.config() {
                return Err(RepairError::ConfigMismatch);
            }
        }
        let saved_content = memory.content();

        // 1. Follow-up scheme sessions: per-scheme diagnosis + outcomes,
        //    and the dictionary scheme's signature trail.
        let mut sessions = Vec::with_capacity(self.transforms.len());
        let mut reports = Vec::with_capacity(self.transforms.len());
        let mut observed_trail: Option<SignatureTrail> = None;
        for transform in self.transforms.iter() {
            // Every session starts from the content the memory was handed
            // over with: an earlier scheme's session can leave drifted
            // content (faults break preservation), which would otherwise
            // cost the dictionary scheme its trail match and make the
            // per-scheme diagnoses order-dependent.
            memory.load(&saved_content)?;
            let staged = run_scheme_session_staged(transform, memory, self.misr.clone())?;
            if self
                .dictionary
                .is_some_and(|dictionary| dictionary.scheme() == transform.scheme())
            {
                observed_trail = Some(SignatureTrail::new(staged.signature_trail()));
            }
            reports.push(diagnose(&staged.test_execution));
            sessions.push(staged.outcome);
        }
        let diagnosis = DiagnosisReport::fuse(&reports);

        // 2. Dictionary lookup: the ambiguity class seeds cell-level
        //    candidates with fault-class hypotheses.
        let matched: Option<AmbiguityClass> = match (self.dictionary, &observed_trail) {
            (Some(dictionary), Some(trail)) => dictionary.find(trail)?,
            _ => None,
        };

        // Candidate cells: dictionary class members + fused suspects.
        #[derive(Default)]
        struct Candidate {
            classes: Vec<FaultClass>,
            footprints: Vec<Vec<usize>>,
            in_class: bool,
        }
        let mut candidates: BTreeMap<BitAddress, Candidate> = BTreeMap::new();
        if let Some(class) = &matched {
            for injection in &class.injections {
                for fault in injection {
                    let candidate = candidates.entry(fault.victim()).or_default();
                    candidate.in_class = true;
                    if !candidate.classes.contains(&fault.class()) {
                        candidate.classes.push(fault.class());
                    }
                    let mut footprint: Vec<usize> =
                        fault.cells().iter().map(|cell| cell.word).collect();
                    footprint.sort_unstable();
                    footprint.dedup();
                    if !candidate.footprints.contains(&footprint) {
                        candidate.footprints.push(footprint);
                    }
                }
            }
        }
        for suspect in &diagnosis.suspects {
            let candidate = candidates.entry(suspect.cell).or_default();
            if candidate.footprints.is_empty() {
                candidate.footprints.push(vec![suspect.cell.word]);
            }
        }

        // 3. Targeted fault-local probes over each candidate footprint,
        //    cached per footprint.
        let probe = self.probe_transform();
        let lowered = LoweredTest::new(probe.transparent_test(), memory.width())
            .map_err(twm_bist::BistError::from)?;
        let mut probe_cache: BTreeMap<Vec<usize>, bool> = BTreeMap::new();
        for candidate in candidates.values() {
            for footprint in &candidate.footprints {
                if !probe_cache.contains_key(footprint) {
                    // Every probe starts from the handed-over content: the
                    // last scheme session — and any earlier probe, which
                    // can abort mid-test — leaves drift behind, and probe
                    // verdicts for state/coupling faults depend on the
                    // starting content.
                    memory.load(&saved_content)?;
                    let mismatched = probe_lowered_at(&lowered, memory, footprint)?;
                    probe_cache.insert(footprint.clone(), mismatched);
                }
            }
        }

        // 4. Fuse the evidence into ranked defects.
        let mut defects: Vec<LocatedDefect> = candidates
            .into_iter()
            .map(|(cell, candidate)| {
                let suspect = diagnosis.suspect(cell);
                let evidence = DefectEvidence {
                    in_ambiguity_class: candidate.in_class,
                    read_log_suspect: suspect.is_some(),
                    local_probe: candidate
                        .footprints
                        .iter()
                        .any(|footprint| probe_cache.get(footprint) == Some(&true)),
                    sessions_flagged: reports
                        .iter()
                        .filter(|report| report.suspect(cell).is_some())
                        .count(),
                    sessions_run: reports.len(),
                };
                let hypothesis = match candidate.classes.as_slice() {
                    [single] => Some(*single),
                    _ => None,
                };
                LocatedDefect {
                    cell,
                    hypothesis,
                    stuck_value: suspect.and_then(|s| s.constant_observation),
                    confidence: f64::from(evidence.points()) / f64::from(MAX_EVIDENCE_POINTS),
                    evidence,
                }
            })
            .filter(|defect| defect.evidence.points() > 0)
            .collect();
        defects.sort_by(|a, b| {
            b.evidence
                .points()
                .cmp(&a.evidence.points())
                .then(a.cell.cmp(&b.cell))
        });

        memory.load(&saved_content)?;

        Ok(LocalisationOutcome {
            defects,
            diagnosis,
            sessions,
            dictionary_hit: matched.is_some(),
            ambiguity: matched.as_ref().map_or(0, |class| class.injections.len()),
        })
    }

    /// The transform used for targeted probes and post-repair
    /// verification: the dictionary's scheme when attached, the first
    /// registered scheme otherwise.
    #[must_use]
    pub fn probe_transform(&self) -> &SchemeTransform {
        self.dictionary
            .and_then(|dictionary| {
                self.transforms
                    .iter()
                    .find(|transform| transform.scheme() == dictionary.scheme())
            })
            .unwrap_or(&self.transforms[0])
    }
}

/// The outcome of a **trail-only** diagnosis — what a remote service can
/// conclude from a serialised signature trail alone, without access to the
/// memory under test (see [`localise_trail`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrailDiagnosis {
    /// Ranked defect hypotheses from the matched ambiguity class (empty on
    /// a clean trail or a dictionary miss). Evidence is dictionary-only:
    /// read-log and probe evidence need the physical memory.
    pub defects: Vec<LocatedDefect>,
    /// Whether the trail hit the dictionary.
    pub dictionary_hit: bool,
    /// Size of the matched ambiguity class (0 on a miss).
    pub ambiguity: usize,
    /// Whether the trail equals the dictionary's fault-free reference.
    pub clean: bool,
}

/// Diagnoses a memory from its observed signature trail alone — the
/// server-side half of [`DiagnosticSession::localise`], for deployments
/// where only the serialised trail travels (a fleet service ingesting field
/// reports). The trail is matched against any [`TrailLookup`] backend (the
/// in-RAM dictionary or a paged on-disk store); the ambiguity class's
/// injections become ranked [`LocatedDefect`]s with dictionary-only
/// evidence ([`DefectEvidence::in_ambiguity_class`]).
///
/// The `stuck_value` hypothesis is derived from the fault model instead of
/// an observation: a stuck-at cell is constantly at its stuck value, a cell
/// with a blocked rising (falling) transition can only be observed at 0
/// (1); coupling victims carry no constant.
///
/// # Errors
///
/// [`RepairError::Lookup`] when a paged backend cannot serve the query
/// (I/O failure, on-disk corruption); the in-RAM backend never fails.
pub fn localise_trail<D: TrailLookup + ?Sized>(
    dictionary: &D,
    trail: &SignatureTrail,
) -> Result<TrailDiagnosis, RepairError> {
    if trail == dictionary.reference_trail() {
        return Ok(TrailDiagnosis {
            defects: Vec::new(),
            dictionary_hit: false,
            ambiguity: 0,
            clean: true,
        });
    }
    let Some(class) = dictionary.find(trail)? else {
        return Ok(TrailDiagnosis {
            defects: Vec::new(),
            dictionary_hit: false,
            ambiguity: 0,
            clean: false,
        });
    };
    Ok(localise_class(&class))
}

/// The diagnosis of a trail that matched `class`: [`localise_trail`]
/// after its lookup, for callers that keep the class (the fleet service
/// verifies a repair plan on its representative injection, so it looks
/// the trail up once).
#[must_use]
pub fn localise_class(class: &AmbiguityClass) -> TrailDiagnosis {
    #[derive(Default)]
    struct Candidate {
        classes: Vec<FaultClass>,
        values: Vec<Option<bool>>,
    }
    let mut candidates: BTreeMap<BitAddress, Candidate> = BTreeMap::new();
    for injection in &class.injections {
        for fault in injection {
            let candidate = candidates.entry(fault.victim()).or_default();
            if !candidate.classes.contains(&fault.class()) {
                candidate.classes.push(fault.class());
            }
            let value = match fault {
                twm_mem::Fault::StuckAt { value, .. } => Some(*value),
                twm_mem::Fault::TransitionFault { direction, .. } => match direction {
                    twm_mem::Transition::Rising => Some(false),
                    twm_mem::Transition::Falling => Some(true),
                },
                _ => None,
            };
            if !candidate.values.contains(&value) {
                candidate.values.push(value);
            }
        }
    }
    let evidence = DefectEvidence {
        in_ambiguity_class: true,
        ..DefectEvidence::default()
    };
    let defects = candidates
        .into_iter()
        .map(|(cell, candidate)| LocatedDefect {
            cell,
            hypothesis: match candidate.classes.as_slice() {
                [single] => Some(*single),
                _ => None,
            },
            stuck_value: match candidate.values.as_slice() {
                [single] => *single,
                _ => None,
            },
            confidence: f64::from(evidence.points()) / f64::from(MAX_EVIDENCE_POINTS),
            evidence,
        })
        .collect();
    TrailDiagnosis {
        defects,
        dictionary_hit: true,
        ambiguity: class.injections.len(),
        clean: false,
    }
}

/// Content-normalised [`localise_trail`]: matches `observed` after
/// absorbing `expected`, the fault-free trail of the memory's *current*
/// content, via [`TrailLookup::find_normalised`]'s GF(2) shift. A
/// normalised trail equal to the reference (i.e. `observed == expected`)
/// reports clean; with `expected` equal to the reference trail this is
/// exactly [`localise_trail`].
///
/// # Errors
///
/// * [`RepairError::TrailShapeMismatch`] / [`RepairError::Mem`] if the
///   trails disagree in shape with the dictionary's.
/// * [`RepairError::Lookup`] from a paged backend, as in
///   [`localise_trail`].
pub fn localise_trail_normalised<D: TrailLookup + ?Sized>(
    dictionary: &D,
    observed: &SignatureTrail,
    expected: &SignatureTrail,
) -> Result<TrailDiagnosis, RepairError> {
    let key = observed.xor(expected)?.xor(dictionary.reference_trail())?;
    localise_trail(dictionary, &key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dictionary::{apply_content, DictionaryOptions, SignatureDictionary};
    use twm_core::scheme::SchemeId;
    use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
    use twm_march::algorithms::march_c_minus;
    use twm_mem::{Fault, FaultSet, MemoryConfig, Transition};

    const SEED: u64 = 77;

    fn setup(words: usize, width: usize) -> (SchemeRegistry, CoverageEngine, SignatureDictionary) {
        let config = MemoryConfig::new(words, width).unwrap();
        let registry = SchemeRegistry::comparison(width).unwrap();
        let engine = CoverageEngine::for_scheme(
            registry.get(SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .content(ContentPolicy::Random { seed: SEED })
        .build()
        .unwrap();
        let universe = UniverseBuilder::new(config).stuck_at().transition().build();
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        (registry, engine, dictionary)
    }

    fn reference_memory(engine: &CoverageEngine, faults: &[Fault]) -> FaultyMemory {
        let mut memory = FaultyMemory::with_faults(
            engine.config(),
            FaultSet::from_faults(faults.iter().copied()),
        )
        .unwrap();
        apply_content(&mut memory, engine.options().content);
        memory
    }

    #[test]
    fn clean_memory_localises_to_nothing() {
        let (registry, engine, dictionary) = setup(6, 4);
        let session = DiagnosticSession::new(&registry, &march_c_minus())
            .unwrap()
            .with_dictionary(&dictionary)
            .unwrap();
        let mut memory = reference_memory(&engine, &[]);
        let outcome = session.localise(&mut memory).unwrap();
        assert!(outcome.is_clean());
        assert!(outcome.defects.is_empty());
        assert!(!outcome.dictionary_hit);
        assert_eq!(outcome.sessions.len(), registry.len());
    }

    #[test]
    fn stuck_at_fault_is_located_with_high_confidence() {
        let (registry, engine, dictionary) = setup(6, 4);
        let cell = BitAddress::new(4, 2);
        let fault = Fault::stuck_at(cell, true);
        let session = DiagnosticSession::new(&registry, &march_c_minus())
            .unwrap()
            .with_dictionary(&dictionary)
            .unwrap();
        let mut memory = reference_memory(&engine, &[fault]);
        let before = memory.content();
        let outcome = session.localise(&mut memory).unwrap();
        // Localisation restored the memory.
        assert_eq!(memory.content(), before);
        assert!(!outcome.is_clean());
        assert!(outcome.dictionary_hit);
        assert!(outcome.ambiguity >= 1);
        let top = outcome.defects.first().expect("a defect is located");
        assert_eq!(top.cell, cell);
        assert!(top.evidence.in_ambiguity_class);
        assert!(top.evidence.read_log_suspect);
        assert!(top.evidence.local_probe);
        assert!(top.confidence > 0.8);
        assert_eq!(top.stuck_value, Some(true));
        assert_eq!(outcome.defective_words(), vec![4]);
    }

    #[test]
    fn localisation_works_without_a_dictionary() {
        let (registry, engine, _) = setup(6, 4);
        let cell = BitAddress::new(1, 3);
        let session = DiagnosticSession::new(&registry, &march_c_minus()).unwrap();
        let mut memory = reference_memory(&engine, &[Fault::transition(cell, Transition::Rising)]);
        let outcome = session.localise(&mut memory).unwrap();
        assert!(!outcome.dictionary_hit);
        assert_eq!(outcome.ambiguity, 0);
        let top = outcome.defects.first().expect("read-log evidence suffices");
        assert_eq!(top.cell, cell);
        assert!(top.evidence.read_log_suspect);
        assert!(!top.evidence.in_ambiguity_class);
        // Read data alone cannot pin SAF vs TF.
        assert_eq!(top.hypothesis, None);
    }

    #[test]
    fn drifted_content_degrades_to_content_independent_evidence() {
        let (registry, engine, dictionary) = setup(6, 4);
        let cell = BitAddress::new(2, 0);
        let session = DiagnosticSession::new(&registry, &march_c_minus())
            .unwrap()
            .with_dictionary(&dictionary)
            .unwrap();
        // A different content than the dictionary's reference.
        let mut memory = reference_memory(&engine, &[Fault::stuck_at(cell, false)]);
        memory.fill_random(SEED ^ 0xFFFF);
        let outcome = session.localise(&mut memory).unwrap();
        // The trail may or may not hit (usually not); the located defect
        // must still name the right cell from read-log + probe evidence.
        let top = outcome.defects.first().expect("fault located");
        assert_eq!(top.cell, cell);
        assert!(top.evidence.read_log_suspect);
    }

    #[test]
    fn session_validation() {
        let (registry, _, dictionary) = setup(6, 4);
        // Mismatched registry width.
        let wide = SchemeRegistry::comparison(8).unwrap();
        assert!(matches!(
            DiagnosticSession::new(&wide, &march_c_minus())
                .unwrap()
                .with_dictionary(&dictionary),
            Err(RepairError::WidthMismatch { .. })
        ));
        // Dictionary scheme absent from the registry.
        let mut empty = SchemeRegistry::empty(4).unwrap();
        empty
            .register(Box::new(twm_core::Scheme1::new(4).unwrap()))
            .unwrap();
        assert!(matches!(
            DiagnosticSession::new(&empty, &march_c_minus())
                .unwrap()
                .with_dictionary(&dictionary),
            Err(RepairError::ConfigMismatch)
        ));
        // Wrong MISR width.
        let session = DiagnosticSession::new(&registry, &march_c_minus()).unwrap();
        assert!(matches!(
            session.with_misr(Misr::standard(16)),
            Err(RepairError::MisrWidthMismatch { .. })
        ));
        // Wrong memory shape against the dictionary.
        let session = DiagnosticSession::new(&registry, &march_c_minus())
            .unwrap()
            .with_dictionary(&dictionary)
            .unwrap();
        let mut wrong_shape = FaultyMemory::fault_free(MemoryConfig::new(12, 4).unwrap());
        assert!(matches!(
            session.localise(&mut wrong_shape),
            Err(RepairError::ConfigMismatch)
        ));

        // A dictionary built with a different MISR can never match the
        // session's trails — rejected in either attachment order.
        let custom = Misr::new(4, 0x3).unwrap();
        assert!(matches!(
            DiagnosticSession::new(&registry, &march_c_minus())
                .unwrap()
                .with_misr(custom.clone())
                .unwrap()
                .with_dictionary(&dictionary),
            Err(RepairError::MisrMismatch)
        ));
        assert!(matches!(
            DiagnosticSession::new(&registry, &march_c_minus())
                .unwrap()
                .with_dictionary(&dictionary)
                .unwrap()
                .with_misr(custom),
            Err(RepairError::MisrMismatch)
        ));
        // The matching (standard) MISR is accepted after attachment.
        assert!(DiagnosticSession::new(&registry, &march_c_minus())
            .unwrap()
            .with_dictionary(&dictionary)
            .unwrap()
            .with_misr(Misr::standard(4))
            .is_ok());
    }

    #[test]
    fn dictionary_lookup_survives_content_breaking_faults_in_multi_scheme_sessions() {
        // A coupling fault can break content preservation, so an earlier
        // scheme's session would drift the content the dictionary-scheme
        // trail is measured from — localise must restore the handed-over
        // content before every session.
        let config = MemoryConfig::new(6, 4).unwrap();
        let registry = SchemeRegistry::comparison(4).unwrap();
        let engine = CoverageEngine::for_scheme(
            registry.get(twm_core::scheme::SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .content(ContentPolicy::Random { seed: SEED })
        .build()
        .unwrap();
        let universe = twm_coverage::UniverseBuilder::new(config)
            .all_classes()
            .build();
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        let session = DiagnosticSession::new(&registry, &march_c_minus())
            .unwrap()
            .with_dictionary(&dictionary)
            .unwrap();

        // Count dictionary hits over a content-breaking-prone slice of the
        // universe (coupling faults) from the exact reference content.
        let mut hits = 0usize;
        let mut indexed = 0usize;
        for fault in universe
            .iter()
            .filter(|fault| fault.class().is_coupling())
            .take(60)
        {
            let mut memory = reference_memory(&engine, &[*fault]);
            let trail_known = dictionary
                .classes()
                .iter()
                .any(|class| class.injections.iter().any(|i| i.as_slice() == [*fault]));
            if !trail_known {
                continue; // not signature-detectable under the reference
            }
            indexed += 1;
            let outcome = session.localise(&mut memory).unwrap();
            if outcome.dictionary_hit {
                hits += 1;
            }
        }
        assert!(indexed > 0);
        assert_eq!(
            hits, indexed,
            "dictionary lookups must hit from the exact reference content"
        );
    }
}
