//! Candidate scoring: coverage over a caller-supplied fault universe plus
//! the registry-driven *transparent* session cost.
//!
//! The [`Objective`] owns everything a scoring call can amortise: one
//! template [`CoverageEngine`] whose pre-generated initial contents are
//! shared (`Arc`) with every per-candidate sibling engine
//! ([`CoverageEngine::with_test`] — only the candidate's lowering is paid
//! per score), the fault universe, and the optional
//! [`SchemeRegistry`] the transparent cost is computed against.
//!
//! [`Objective::score_batch`] maps a batch of candidates over the
//! objective's [`twm_coverage::WorkerPool`], as wide as the configured
//! [`Strategy`]; every candidate is scored
//! independently on a serial engine and the results are merged back in
//! candidate order, so batches are **bit-identical for any thread count**
//! (property-tested in `tests/determinism.rs`).

use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use twm_core::scheme::SchemeRegistry;
use twm_coverage::{ContentPolicy, CoverageEngine, EvaluationOptions, Strategy, WorkerPool};
use twm_march::{MarchElement, MarchTest, Operation};
use twm_mem::{Fault, MemoryConfig};

use crate::SearchError;

/// Process-wide scoring counters in the [`twm_obs::global`] registry.
/// With the per-strategy `twm_search_accepted_total` counters the
/// strategies bump, `accepted / scored` is the search acceptance rate.
struct SearchObs {
    scored: twm_obs::Counter,
    infeasible: twm_obs::Counter,
}

fn search_obs() -> &'static SearchObs {
    static OBS: OnceLock<SearchObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        SearchObs {
            scored: registry.counter("twm_search_candidates_scored_total", &[]),
            infeasible: registry.counter("twm_search_infeasible_candidates_total", &[]),
        }
    })
}

/// Counts one accepted candidate for `strategy` — called by the search
/// strategies at the moments they log an accepted provenance entry.
pub(crate) fn count_accepted(strategy: &'static str) {
    twm_obs::global()
        .counter("twm_search_accepted_total", &[("strategy", strategy)])
        .incr();
}

/// The objective value of one candidate.
///
/// Ordering intent: maximise `detected` (coverage), then minimise
/// [`Score::cost`] and `test_ops`. Only integers are stored, so scores
/// compare exactly and provenance logs are reproducible bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Score {
    /// Faults of the universe the candidate detects.
    pub detected: usize,
    /// Size of the evaluated universe.
    pub total_faults: usize,
    /// Operations per word of the (bit-oriented) candidate itself.
    pub test_ops: usize,
    /// Transparent session cost per word: the sum of
    /// `exact_complexity().total()` (transparent test + prediction phase)
    /// over every scheme of the objective's registry — the cost the search
    /// actually optimises. Falls back to `test_ops` when the objective has
    /// no registry.
    pub scheme_cost: usize,
}

impl Score {
    /// Detected fraction of the universe.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        if self.total_faults == 0 {
            1.0
        } else {
            self.detected as f64 / self.total_faults as f64
        }
    }

    /// Whether every fault of the universe is detected.
    #[must_use]
    pub fn full_coverage(&self) -> bool {
        self.detected == self.total_faults
    }

    /// The minimised cost: the transparent session cost per word.
    #[must_use]
    pub fn cost(&self) -> usize {
        self.scheme_cost
    }
}

/// A candidate together with its score.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScoredTest {
    /// The candidate march test.
    pub test: MarchTest,
    /// Its objective value.
    pub score: Score,
}

/// The coverage a candidate must keep to be accepted by a strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageFloor {
    /// Keep at least the seed test's detected-fault count.
    Seed,
    /// Detect every fault of the universe.
    Full,
    /// Detect at least this many faults.
    Detected(usize),
}

impl CoverageFloor {
    /// Resolves the floor to a detected-fault count for a given seed score.
    #[must_use]
    pub fn resolve(self, seed: &Score) -> usize {
        match self {
            CoverageFloor::Seed => seed.detected,
            CoverageFloor::Full => seed.total_faults,
            CoverageFloor::Detected(count) => count,
        }
    }
}

/// Options for building an [`Objective`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectiveOptions {
    /// Content policy and contents-per-fault of every candidate engine.
    /// Must use [`ContentPolicy::Zeros`] (the default): candidates are
    /// ordinary (non-transparent) bit-oriented tests, and the mutation
    /// model's repair rewrites reads assuming an all-zero initial content —
    /// under random content a repaired candidate with a leading read would
    /// mismatch on a *fault-free* memory, marking every fault detected and
    /// guttering the search. [`Objective::new`] rejects
    /// [`ContentPolicy::Random`] with [`SearchError::InvalidOptions`].
    pub evaluation: EvaluationOptions,
    /// Execution strategy, used in two places: [`Objective::score_batch`]
    /// fans candidates across the resolved worker count (serial engine per
    /// candidate), and single-candidate [`Objective::score`] calls hand the
    /// whole strategy to one engine, whose streaming windows parallelise
    /// the universe instead. Engine reports are bit-identical for any
    /// thread count, so every strategy produces identical results.
    pub strategy: Strategy,
}

impl Default for ObjectiveOptions {
    fn default() -> Self {
        Self {
            evaluation: EvaluationOptions {
                content: ContentPolicy::Zeros,
                contents_per_fault: 1,
            },
            strategy: Strategy::default(),
        }
    }
}

/// The candidate-scoring oracle shared by every search strategy.
#[derive(Debug)]
pub struct Objective {
    universe: Vec<Fault>,
    registry: Option<SchemeRegistry>,
    /// Serial-engine template: `with_test` siblings of this one score
    /// batch candidates (the batch itself fans across threads).
    template: CoverageEngine,
    /// Parallel-engine template for single-candidate scores, present when
    /// the strategy resolves to more than one worker — there the engine's
    /// own streaming windows (and its cheap-first scheduling) provide the
    /// parallelism instead of the batch.
    wide_template: Option<CoverageEngine>,
    /// Fans [`Objective::score_batch`] candidates out: the calling thread
    /// plus `threads - 1` workers, spawned on the first batch.
    pool: WorkerPool,
}

impl Objective {
    /// Builds an objective for one memory shape and fault universe.
    ///
    /// `registry` supplies the transparent-cost model ([`Score::scheme_cost`]
    /// sums the exact session cost over its schemes); pass `None` to
    /// optimise the raw candidate length instead.
    ///
    /// # Errors
    ///
    /// * [`SearchError::EmptyUniverse`] for an empty universe.
    /// * [`SearchError::WidthMismatch`] if the registry targets a different
    ///   word width than `config`.
    /// * [`SearchError::InvalidOptions`] for a [`ContentPolicy::Random`]
    ///   evaluation policy (see [`ObjectiveOptions::evaluation`]).
    /// * [`SearchError::Coverage`] if the template engine cannot be built
    ///   (for example [`Strategy::Parallel`]` { threads: 0 }`).
    pub fn new(
        config: MemoryConfig,
        universe: Vec<Fault>,
        registry: Option<SchemeRegistry>,
        options: ObjectiveOptions,
    ) -> Result<Self, SearchError> {
        if universe.is_empty() {
            return Err(SearchError::EmptyUniverse);
        }
        if matches!(options.evaluation.content, ContentPolicy::Random { .. }) {
            return Err(SearchError::InvalidOptions {
                detail: "candidate scoring requires ContentPolicy::Zeros: the mutation \
                         model repairs reads against an all-zero initial content, so \
                         random contents would flag fault-free mismatches as detections"
                    .to_string(),
            });
        }
        if let Some(registry) = &registry {
            if registry.width() != config.width() {
                return Err(SearchError::WidthMismatch {
                    registry: registry.width(),
                    memory: config.width(),
                });
            }
        }
        let threads = options.strategy.worker_threads()?;
        // The template's own test is never scored; it only carries the
        // shared prepared contents and the builder settings to
        // `with_test` siblings.
        let probe = MarchTest::new(
            "search probe",
            vec![MarchElement::any_order(vec![Operation::w0()])],
        )
        .expect("probe test is well formed");
        let template = CoverageEngine::builder(config)
            .test(&probe)
            .options(options.evaluation)
            .strategy(Strategy::Serial)
            .build()?;
        let wide_template = if threads > 1 {
            Some(
                CoverageEngine::builder(config)
                    .test(&probe)
                    .options(options.evaluation)
                    .strategy(options.strategy)
                    .build()?,
            )
        } else {
            None
        };
        Ok(Self {
            universe,
            registry,
            template,
            wide_template,
            pool: WorkerPool::new(threads - 1),
        })
    }

    /// The memory shape candidates are evaluated against.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.template.config()
    }

    /// The fault universe candidates are scored over.
    #[must_use]
    pub fn universe(&self) -> &[Fault] {
        &self.universe
    }

    /// The scheme registry driving [`Score::scheme_cost`], when present.
    #[must_use]
    pub fn registry(&self) -> Option<&SchemeRegistry> {
        self.registry.as_ref()
    }

    /// The resolved batch worker count (1 = serial).
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.pool.width()
    }

    /// Scores one candidate. Returns `Ok(None)` when the candidate is
    /// *infeasible* — a registered scheme cannot transform it (for example
    /// its reads are inconsistent, or it has no read at all so no
    /// prediction test exists); strategies reject such candidates.
    ///
    /// A parallel strategy parallelises this call *inside* the engine (its
    /// streaming windows fan the universe out); the result is bit-identical
    /// to a serial evaluation either way.
    ///
    /// # Errors
    ///
    /// [`SearchError::Coverage`] for engine failures (a candidate that
    /// cannot be lowered, or a fault that does not fit the memory shape).
    pub fn score(&self, test: &MarchTest) -> Result<Option<Score>, SearchError> {
        self.score_on(self.wide_template.as_ref().unwrap_or(&self.template), test)
    }

    fn score_on(
        &self,
        template: &CoverageEngine,
        test: &MarchTest,
    ) -> Result<Option<Score>, SearchError> {
        let obs = search_obs();
        obs.scored.incr();
        let Some(scheme_cost) = self.scheme_cost(test) else {
            obs.infeasible.incr();
            return Ok(None);
        };
        let engine = template.with_test(test)?;
        let report = engine.report(&self.universe)?;
        Ok(Some(Score {
            detected: report.detected_faults(),
            total_faults: report.total_faults(),
            test_ops: test.operations_per_word(),
            scheme_cost,
        }))
    }

    /// Scores a batch of candidates, fanning across the objective's worker
    /// threads (one serial engine per candidate — the batch provides the
    /// parallelism). Results come back in candidate order and are
    /// bit-identical for any thread count.
    ///
    /// # Errors
    ///
    /// See [`Objective::score`]; the earliest failing candidate's error is
    /// returned.
    pub fn score_batch(&self, tests: &[MarchTest]) -> Result<Vec<Option<Score>>, SearchError> {
        if tests.len() <= 1 {
            return tests.iter().map(|test| self.score(test)).collect();
        }
        // Each candidate on a serial engine: the batch is the parallelism.
        self.pool
            .map(tests, |test| self.score_on(&self.template, test))
            .into_iter()
            .collect()
    }

    /// The transparent session cost of a candidate, or `None` when a
    /// registered scheme cannot transform it.
    fn scheme_cost(&self, test: &MarchTest) -> Option<usize> {
        match &self.registry {
            None => Some(test.operations_per_word()),
            Some(registry) => {
                let mut total = 0usize;
                for scheme in registry.iter() {
                    total += scheme.transform(test).ok()?.exact_complexity().total();
                }
                Some(total)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_coverage::UniverseBuilder;
    use twm_march::algorithms::{march_c_minus, mats_plus};

    fn saf_tf_universe(config: MemoryConfig) -> Vec<Fault> {
        UniverseBuilder::new(config).stuck_at().transition().build()
    }

    fn objective(width: usize) -> Objective {
        let config = MemoryConfig::new(8, width).unwrap();
        Objective::new(
            config,
            saf_tf_universe(config),
            Some(SchemeRegistry::comparison(width).unwrap()),
            ObjectiveOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let config = MemoryConfig::new(8, 4).unwrap();
        assert_eq!(
            Objective::new(config, Vec::new(), None, ObjectiveOptions::default()).unwrap_err(),
            SearchError::EmptyUniverse
        );
        let mismatched = SchemeRegistry::comparison(8).unwrap();
        assert_eq!(
            Objective::new(
                config,
                saf_tf_universe(config),
                Some(mismatched),
                ObjectiveOptions::default(),
            )
            .unwrap_err(),
            SearchError::WidthMismatch {
                registry: 8,
                memory: 4
            }
        );
        let zero_threads = ObjectiveOptions {
            strategy: Strategy::Parallel { threads: 0 },
            ..ObjectiveOptions::default()
        };
        assert!(matches!(
            Objective::new(config, saf_tf_universe(config), None, zero_threads),
            Err(SearchError::Coverage(_))
        ));
        let random_content = ObjectiveOptions {
            evaluation: EvaluationOptions {
                content: ContentPolicy::Random { seed: 1 },
                contents_per_fault: 1,
            },
            ..ObjectiveOptions::default()
        };
        assert!(matches!(
            Objective::new(config, saf_tf_universe(config), None, random_content),
            Err(SearchError::InvalidOptions { .. })
        ));
    }

    #[test]
    fn march_c_minus_scores_full_saf_tf_coverage() {
        let objective = objective(4);
        let score = objective.score(&march_c_minus()).unwrap().unwrap();
        assert!(score.full_coverage());
        assert_eq!(score.total_faults, 2 * 8 * 4 * 2);
        assert_eq!(score.test_ops, 10);
        // Scheme 1 (60+30) + TOMT (34+0) + TWM_TA (20+10) at W=4.
        let registry = objective.registry().unwrap();
        let expected: usize = registry
            .iter()
            .map(|s| {
                s.transform(&march_c_minus())
                    .unwrap()
                    .exact_complexity()
                    .total()
            })
            .sum();
        assert_eq!(score.scheme_cost, expected);
    }

    #[test]
    fn registry_free_objective_costs_raw_length() {
        let config = MemoryConfig::new(8, 4).unwrap();
        let objective = Objective::new(
            config,
            saf_tf_universe(config),
            None,
            ObjectiveOptions::default(),
        )
        .unwrap();
        let score = objective.score(&mats_plus()).unwrap().unwrap();
        assert_eq!(score.cost(), 5);
        assert_eq!(score.test_ops, 5);
    }

    #[test]
    fn untransformable_candidates_are_infeasible_not_errors() {
        let objective = objective(4);
        // Reads inconsistent with the test's own writes: the registry's
        // transforms reject it (the mutation model's repair would have
        // rewritten the read, but `score` accepts arbitrary tests).
        let inconsistent = MarchTest::new(
            "inconsistent",
            vec![
                MarchElement::any_order(vec![Operation::w0()]),
                MarchElement::any_order(vec![Operation::r1()]),
            ],
        )
        .unwrap();
        assert_eq!(objective.score(&inconsistent).unwrap(), None);
    }

    #[test]
    fn batch_results_match_single_scores_in_order() {
        let objective = objective(4);
        let tests = vec![march_c_minus(), mats_plus(), march_c_minus()];
        let batch = objective.score_batch(&tests).unwrap();
        for (test, scored) in tests.iter().zip(&batch) {
            assert_eq!(*scored, objective.score(test).unwrap());
        }
        assert_eq!(batch[0], batch[2]);
    }

    #[test]
    fn floors_resolve_against_the_seed_score() {
        let score = Score {
            detected: 90,
            total_faults: 100,
            test_ops: 10,
            scheme_cost: 40,
        };
        assert_eq!(CoverageFloor::Seed.resolve(&score), 90);
        assert_eq!(CoverageFloor::Full.resolve(&score), 100);
        assert_eq!(CoverageFloor::Detected(42).resolve(&score), 42);
    }
}
