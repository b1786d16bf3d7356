//! The reusable, streaming fault-coverage engine.
//!
//! [`CoverageEngine`] is the single evaluation surface of this crate: built
//! once per `(memory shape, march test)` pair, it owns everything that can
//! be amortised across fault-injection runs —
//!
//! * the [pre-lowered](twm_bist::LoweredTest) operation stream of the test,
//! * the pre-generated pseudo-random initial contents,
//! * and a pool of reusable [`FaultyMemory`] arenas, re-armed per fault via
//!   [`FaultyMemory::reset_with_fault`] so repeated evaluations allocate no
//!   per-fault memories.
//!
//! The engine exposes three verbs:
//!
//! * [`CoverageEngine::report`] — evaluate a fault universe into a
//!   [`CoverageReport`]: stuck-at and transition faults 64 to a march
//!   execution in bit-parallel lane batches, the rest one at a time on a
//!   fault-local arena, bit-identical for any thread count;
//! * [`CoverageEngine::verdicts`] — a streaming iterator of per-fault
//!   [`FaultVerdict`]s with bounded memory, for universes that do not fit
//!   in memory (the universe is consumed lazily, a bounded window at a
//!   time, and verdicts are yielded in universe order);
//! * [`CoverageEngine::compare`] — fault-by-fault comparison against a
//!   second engine, producing an [`EquivalenceReport`] (the paper's
//!   Section 5 theorem check).
//!
//! Signature-aliasing analysis ([`CoverageEngine::aliasing`]) and
//! multi-fault injections ([`CoverageEngine::injection_detected`]) share
//! the same amortised setup. Every verdict equals the naive reference
//! [`crate::fault_detected`] — a fresh memory and a full sweep of the
//! symbolic test (property-tested in `tests/reference_equivalence.rs`).
//!
//! # Example
//!
//! ```
//! use twm_coverage::{ContentPolicy, CoverageEngine, Strategy, UniverseBuilder};
//! use twm_march::algorithms::march_c_minus;
//! use twm_mem::MemoryConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(16, 1)?;
//! let engine = CoverageEngine::builder(config)
//!     .test(&march_c_minus())
//!     .content(ContentPolicy::Random { seed: 7 })
//!     .strategy(Strategy::Parallel { threads: 2 })
//!     .build()?;
//! let faults = UniverseBuilder::new(config).stuck_at().transition().build();
//! let report = engine.report(&faults)?;
//! assert_eq!(report.total_coverage(), 1.0);
//! // The same engine instance evaluates any number of universes.
//! let more = UniverseBuilder::new(config).coupling_inversion().build();
//! assert_eq!(engine.report(&more)?.total_coverage(), 1.0);
//! # Ok(())
//! # }
//! ```

use std::borrow::Borrow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use twm_bist::flow::run_transparent_session;
use twm_bist::{detect_lowered_at, detect_lowered_batch, LoweredTest, Misr};
use twm_core::scheme::{SchemeTransform, TransparentScheme};
use twm_march::MarchTest;
use twm_mem::{
    BitStorage, Fault, FaultClass, FaultSet, FaultyMemory, Lanes, MemError, MemoryConfig, Packed64,
    PackedArena,
};

use crate::equivalence::Disagreement;
use crate::{
    AliasingReport, ContentPolicy, CoverageError, CoverageReport, EquivalenceReport,
    EvaluationOptions, WorkerPool,
};

/// How the engine schedules fault-injection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Evaluate on the calling thread only.
    Serial,
    /// Fan out across worker threads, probing
    /// `std::thread::available_parallelism` for the count. The
    /// `TWM_COVERAGE_THREADS` environment variable remains supported as a
    /// documented deployment fallback and overrides the probe when set to a
    /// positive integer; an explicit [`Strategy::Parallel`] beats both.
    ///
    /// Without the `parallel` crate feature this resolves to one worker
    /// (serial execution) at build time.
    #[default]
    Auto,
    /// Fan out across exactly `threads` worker threads.
    ///
    /// `threads == 0` is rejected by [`CoverageEngineBuilder::build`] with
    /// [`CoverageError::ZeroThreads`] — there is no silent clamp. Without
    /// the `parallel` crate feature the engine executes serially regardless
    /// (the feature is a compile-time capability, not a runtime setting).
    Parallel {
        /// Number of worker threads; must be non-zero.
        threads: usize,
    },
}

impl Strategy {
    /// Resolves the strategy to a concrete worker count (1 = serial). This
    /// is the resolution [`CoverageEngineBuilder::build`] performs, exposed
    /// so other schedulers (for example `twm-search`'s batched candidate
    /// evaluation) can fan out consistently with the engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::ZeroThreads`] for
    /// [`Strategy::Parallel`]` { threads: 0 }`.
    pub fn worker_threads(self) -> Result<usize, CoverageError> {
        match self {
            Strategy::Serial => Ok(1),
            Strategy::Parallel { threads: 0 } => Err(CoverageError::ZeroThreads),
            #[cfg(feature = "parallel")]
            Strategy::Parallel { threads } => Ok(threads),
            #[cfg(feature = "parallel")]
            Strategy::Auto => Ok(std::env::var("TWM_COVERAGE_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                })),
            #[cfg(not(feature = "parallel"))]
            Strategy::Parallel { .. } | Strategy::Auto => Ok(1),
        }
    }
}

/// The verdict of one fault-injection run: was the fault detected?
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultVerdict {
    /// The injected fault.
    pub fault: Fault,
    /// Whether the test detected it (under every tried initial content).
    pub detected: bool,
}

/// Builder for [`CoverageEngine`] — see [`CoverageEngine::builder`].
#[derive(Debug, Clone)]
pub struct CoverageEngineBuilder {
    config: MemoryConfig,
    test: Option<MarchTest>,
    transform: Option<SchemeTransform>,
    options: EvaluationOptions,
    strategy: Strategy,
}

impl CoverageEngineBuilder {
    /// The march test to evaluate. Required; the test is lowered for the
    /// memory width once, at [`CoverageEngineBuilder::build`] time.
    #[must_use]
    pub fn test(mut self, test: &MarchTest) -> Self {
        self.test = Some(test.clone());
        self.transform = None;
        self
    }

    /// Evaluates a transformation scheme's transparent test: `source` is
    /// transformed through `scheme` right away (so transformation errors
    /// surface here, not at build time) and the resulting
    /// [`SchemeTransform`] is kept on the engine
    /// ([`CoverageEngine::scheme_transform`]) for callers that need the
    /// prediction test or the transformation metadata.
    ///
    /// # Errors
    ///
    /// * [`CoverageError::SchemeWidthMismatch`] if the scheme targets a
    ///   different word width than the memory configuration.
    /// * [`CoverageError::Core`] if the transformation fails.
    pub fn scheme(
        mut self,
        scheme: &dyn TransparentScheme,
        source: &MarchTest,
    ) -> Result<Self, CoverageError> {
        if scheme.width() != self.config.width() {
            return Err(CoverageError::SchemeWidthMismatch {
                scheme: scheme.width(),
                memory: self.config.width(),
            });
        }
        let transform = scheme.transform(source)?;
        self.test = Some(transform.transparent_test().clone());
        self.transform = Some(transform);
        Ok(self)
    }

    /// Initial-content policy for every fault-injection run (default:
    /// deterministic pseudo-random, see [`EvaluationOptions::default`]).
    #[must_use]
    pub fn content(mut self, content: ContentPolicy) -> Self {
        self.options.content = content;
        self
    }

    /// Number of different initial contents to try per fault (a fault
    /// counts as detected only if it is detected for **every** content).
    /// Only meaningful for [`ContentPolicy::Random`].
    #[must_use]
    pub fn contents_per_fault(mut self, contents_per_fault: usize) -> Self {
        self.options.contents_per_fault = contents_per_fault;
        self
    }

    /// Sets both content options at once from an [`EvaluationOptions`].
    #[must_use]
    pub fn options(mut self, options: EvaluationOptions) -> Self {
        self.options = options;
        self
    }

    /// Execution strategy (default: [`Strategy::Auto`]).
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Finalises the engine: lowers the test, pre-generates the initial
    /// contents and resolves the worker-thread count.
    ///
    /// # Errors
    ///
    /// * [`CoverageError::MissingTest`] if no test was supplied.
    /// * [`CoverageError::ZeroThreads`] for
    ///   [`Strategy::Parallel`]` { threads: 0 }`.
    /// * [`CoverageError::Bist`] if the test cannot be lowered for the
    ///   memory width (for example a background index out of range).
    pub fn build(self) -> Result<CoverageEngine, CoverageError> {
        let test = self.test.ok_or(CoverageError::MissingTest)?;
        let threads = self.strategy.worker_threads()?;
        let lowered =
            LoweredTest::new(&test, self.config.width()).map_err(twm_bist::BistError::from)?;
        Ok(CoverageEngine {
            config: self.config,
            test,
            transform: self.transform,
            lowered,
            options: self.options,
            content_images: Arc::new(prepared_contents(self.config, self.options)),
            pool: Mutex::new(Vec::new()),
            workers: Arc::new(WorkerPool::new(threads - 1)),
        })
    }
}

/// The initial contents every fault-injection run starts from, as raw
/// [`BitStorage`] images restored with block copies
/// ([`FaultyMemory::load_image`]): one per content round for the random
/// policy, none for the all-zero policy (a reset memory is already zeroed).
///
/// Generated through [`FaultyMemory::fill_random`] itself so shared
/// contents can never drift from what a per-fault fill would produce.
pub(crate) fn prepared_contents(
    config: MemoryConfig,
    options: EvaluationOptions,
) -> Vec<BitStorage> {
    let ContentPolicy::Random { seed } = options.content else {
        return Vec::new();
    };
    let mut scratch = FaultyMemory::fault_free(config);
    (0..options.contents_per_fault.max(1))
        .map(|round| {
            scratch.fill_random(seed.wrapping_add(round as u64));
            scratch.snapshot()
        })
        .collect()
}

/// Number of faults pulled from the universe per worker thread per
/// streaming window: large enough to amortise fan-out, small enough that
/// [`CoverageEngine::verdicts`] stays bounded-memory.
const STREAM_CHUNK: usize = 32;

/// Number of scalar faults a worker claims per steal from a shared atomic
/// cursor: small enough that a ragged tail of expensive faults rebalances
/// across workers, large enough to keep cursor contention negligible.
const STEAL_GRAIN: usize = 4;

/// Process-wide engine counters in the [`twm_obs::global`] registry.
/// Counting is batched (one `add` per report leg or per worker drain,
/// never per fault in an inner loop) so instrumentation stays inside
/// the measured overhead bound; none of it influences verdicts.
struct EngineObs {
    /// `report` calls completed (either outcome).
    reports: twm_obs::Counter,
    /// Wall time of each `report` call.
    report_latency: twm_obs::Histogram,
    /// Lane batches resolved by one packed march execution.
    packed_batches: twm_obs::Counter,
    /// Faults evaluated through packed lanes.
    packed_faults: twm_obs::Counter,
    /// Faults evaluated on the scalar fault-local path of a report.
    scalar_faults: twm_obs::Counter,
    /// Work items claimed from a shared cursor (report items and
    /// streaming-window grains).
    window_steals: twm_obs::Counter,
    /// Streaming windows evaluated by `verdicts`.
    verdict_windows: twm_obs::Counter,
    /// Arena memories currently idle in the engine pools (checked in,
    /// ready for checkout) — pool depth across all engines.
    pool_idle_arenas: twm_obs::Gauge,
}

fn engine_obs() -> &'static EngineObs {
    static OBS: OnceLock<EngineObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        EngineObs {
            reports: registry.counter("twm_coverage_reports_total", &[]),
            report_latency: registry.histogram(
                "twm_coverage_report_latency_ns",
                &[],
                &twm_obs::latency_bounds(),
            ),
            packed_batches: registry.counter("twm_coverage_packed_batches_total", &[]),
            packed_faults: registry.counter("twm_coverage_packed_faults_total", &[]),
            scalar_faults: registry.counter("twm_coverage_scalar_faults_total", &[]),
            window_steals: registry.counter("twm_coverage_window_steals_total", &[]),
            verdict_windows: registry.counter("twm_coverage_verdict_windows_total", &[]),
            pool_idle_arenas: registry.gauge("twm_coverage_pool_idle_arenas", &[]),
        }
    })
}

/// Estimated relative cost of one scalar fault-injection run, used to order
/// [`CoverageEngine::report`]'s scalar work cheap-first: the fault-local
/// sweep visits the fault's word footprint, so a two-word (inter-word
/// coupling) fault costs roughly twice a single-word fault; within a
/// footprint size, stuck-at faults mismatch on the earliest read while
/// coupling faults need their excitation sequence first, so classes break
/// ties.
fn fault_cost_rank(fault: &Fault) -> u32 {
    let footprint = match fault.aggressor() {
        Some(aggressor) if aggressor.word != fault.victim().word => 2u32,
        _ => 1,
    };
    footprint * 8 + fault.class() as u32
}

/// A reusable fault-coverage evaluation engine for one
/// `(memory shape, march test)` pair.
///
/// See the [module docs](self) for the design and an example. The engine is
/// `Sync`: one instance may serve concurrent evaluations, sharing its arena
/// pool.
#[derive(Debug)]
pub struct CoverageEngine {
    config: MemoryConfig,
    test: MarchTest,
    /// The scheme transform the engine was built from, when constructed via
    /// [`CoverageEngine::for_scheme`] / [`CoverageEngineBuilder::scheme`].
    transform: Option<SchemeTransform>,
    lowered: LoweredTest,
    options: EvaluationOptions,
    /// Initial contents as raw storage images, restored with block copies.
    /// Shared (`Arc`) so [`CoverageEngine::with_test`] siblings reuse one
    /// generation.
    content_images: Arc<Vec<BitStorage>>,
    /// Checked-in arena memories, re-armed per fault by workers. Bounded by
    /// the maximum number of concurrent checkouts (≤ worker threads).
    pool: Mutex<Vec<FaultyMemory>>,
    /// Persistent workers (`threads - 1`; their threads spawn on the first
    /// parallel fan-out), shared (`Arc`) with [`CoverageEngine::with_test`]
    /// siblings so candidate loops amortise thread creation too.
    workers: Arc<WorkerPool>,
}

impl CoverageEngine {
    /// Starts a builder for the given memory shape.
    #[must_use]
    pub fn builder(config: MemoryConfig) -> CoverageEngineBuilder {
        CoverageEngineBuilder {
            config,
            test: None,
            transform: None,
            options: EvaluationOptions::default(),
            strategy: Strategy::default(),
        }
    }

    /// Builds a sibling engine for a **different march test** over the same
    /// memory shape, content policy and strategy — the cheap re-build path
    /// for candidate-scoring loops (`twm-search` evaluates thousands of
    /// mutated tests against one universe).
    ///
    /// Only the new test is lowered; the pre-generated initial contents are
    /// shared with this engine (`Arc`), so no content regeneration or copy
    /// happens per candidate. The sibling starts with an empty arena pool
    /// and carries no scheme transform.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::Bist`] if `test` cannot be lowered for the
    /// memory width.
    pub fn with_test(&self, test: &MarchTest) -> Result<CoverageEngine, CoverageError> {
        let lowered =
            LoweredTest::new(test, self.config.width()).map_err(twm_bist::BistError::from)?;
        Ok(CoverageEngine {
            config: self.config,
            test: test.clone(),
            transform: None,
            lowered,
            options: self.options,
            content_images: Arc::clone(&self.content_images),
            pool: Mutex::new(Vec::new()),
            workers: Arc::clone(&self.workers),
        })
    }

    /// Builds a sibling engine for a **different transformation scheme**
    /// (and source test) over the same memory shape, content policy and
    /// strategy — the cheap re-build path for engine caches that serve many
    /// scheme workloads per memory shape (`twm-fleet` rebuilds evicted
    /// shard engines through this).
    ///
    /// Like [`CoverageEngine::with_test`], only the new transparent test is
    /// lowered and the pre-generated initial contents are shared (`Arc`);
    /// unlike `with_test`, the sibling **carries the scheme transform**, so
    /// it can seed signature-dictionary builds and staged sessions.
    ///
    /// # Errors
    ///
    /// * [`CoverageError::SchemeWidthMismatch`] if the scheme targets a
    ///   different word width than the engine's memory configuration.
    /// * [`CoverageError::Core`] if the transformation fails.
    /// * [`CoverageError::Bist`] if the transparent test cannot be lowered.
    pub fn with_scheme(
        &self,
        scheme: &dyn TransparentScheme,
        source: &MarchTest,
    ) -> Result<CoverageEngine, CoverageError> {
        if scheme.width() != self.config.width() {
            return Err(CoverageError::SchemeWidthMismatch {
                scheme: scheme.width(),
                memory: self.config.width(),
            });
        }
        let transform = scheme.transform(source)?;
        let mut sibling = self.with_test(transform.transparent_test())?;
        sibling.transform = Some(transform);
        Ok(sibling)
    }

    /// Starts a builder whose test is produced by a transformation scheme:
    /// the scheme-generic constructor behind cross-scheme workloads
    /// (`source` is transformed immediately; content policy and strategy
    /// remain settable before `build`).
    ///
    /// ```
    /// use twm_core::scheme::{SchemeId, SchemeRegistry};
    /// use twm_coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
    /// use twm_march::algorithms::march_c_minus;
    /// use twm_mem::MemoryConfig;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let config = MemoryConfig::new(16, 4)?;
    /// let registry = SchemeRegistry::all(4)?;
    /// let engine = CoverageEngine::for_scheme(
    ///     registry.get(SchemeId::TwmTa).unwrap(),
    ///     &march_c_minus(),
    ///     config,
    /// )?
    /// .content(ContentPolicy::Random { seed: 1 })
    /// .build()?;
    /// let faults = UniverseBuilder::new(config).stuck_at().transition().build();
    /// assert_eq!(engine.report(&faults)?.total_coverage(), 1.0);
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// See [`CoverageEngineBuilder::scheme`].
    pub fn for_scheme(
        scheme: &dyn TransparentScheme,
        source: &MarchTest,
        config: MemoryConfig,
    ) -> Result<CoverageEngineBuilder, CoverageError> {
        Self::builder(config).scheme(scheme, source)
    }

    /// The scheme transform the engine evaluates, when it was built through
    /// [`CoverageEngine::for_scheme`] / [`CoverageEngineBuilder::scheme`].
    #[must_use]
    pub fn scheme_transform(&self) -> Option<&SchemeTransform> {
        self.transform.as_ref()
    }

    /// The memory shape the engine evaluates against.
    #[must_use]
    pub fn config(&self) -> MemoryConfig {
        self.config
    }

    /// The march test under evaluation.
    #[must_use]
    pub fn test(&self) -> &MarchTest {
        &self.test
    }

    /// The pre-lowered operation stream shared by every run.
    #[must_use]
    pub fn lowered(&self) -> &LoweredTest {
        &self.lowered
    }

    /// The content options every run uses.
    #[must_use]
    pub fn options(&self) -> EvaluationOptions {
        self.options
    }

    /// The resolved worker-thread count (1 = serial).
    #[must_use]
    pub fn worker_threads(&self) -> usize {
        self.workers.width()
    }

    /// Evaluates the fault coverage of the engine's test over a universe.
    ///
    /// Single-bit faults (SAF/TF) are packed into
    /// [`PackedArena`]`<`[`Packed64`]`>` lane batches — sorted by victim
    /// word so each batch's footprint stays compact — and each batch is
    /// resolved by **one** march execution
    /// ([`twm_bist::detect_lowered_batch`]); the other faults take the
    /// scalar fault-local arena in cheap-first order. Batches and scalar
    /// runs form one work queue that the workers drain by stealing from an
    /// atomic cursor. Verdicts are merged back in **universe order**, so
    /// the report is bit-identical to the reference
    /// [`crate::fault_detected`] for any worker-thread count
    /// (property-tested in `tests/reference_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// * [`CoverageError::EmptyUniverse`] if `universe` is empty.
    /// * [`CoverageError::Mem`] if a fault does not fit the memory shape
    ///   (the error of the earliest offending fault in universe order).
    /// * [`CoverageError::Bist`] if the test cannot be executed on the
    ///   memory.
    pub fn report(&self, universe: &[Fault]) -> Result<CoverageReport, CoverageError> {
        let mut span = twm_obs::span("coverage.report");
        span.field("universe", universe.len());
        let start = Instant::now();
        let result = self.report_inner(universe);
        let obs = engine_obs();
        obs.reports.incr();
        obs.report_latency
            .observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        span.field("outcome", if result.is_ok() { "ok" } else { "error" });
        result
    }

    fn report_inner(&self, universe: &[Fault]) -> Result<CoverageReport, CoverageError> {
        if universe.is_empty() {
            return Err(CoverageError::EmptyUniverse);
        }
        if let Some(report) = self.report_batched(universe) {
            return Ok(report);
        }
        // A fault failed to inject somewhere in the batched pass. Errors
        // are deterministic properties of a (fault, memory shape) pair, so
        // an in-order walk hits one too and returns the error of the
        // earliest offending fault in universe order, as documented.
        let mut report = CoverageReport::new(self.test.name());
        for verdict in self.verdicts(universe) {
            let verdict = verdict?;
            report.record(verdict.fault, verdict.detected);
        }
        Ok(report)
    }

    /// The evaluation pass behind [`CoverageEngine::report`]. Returns
    /// `None` when any fault fails to inject or execute (the whole pass is
    /// then discarded).
    fn report_batched(&self, universe: &[Fault]) -> Option<CoverageReport> {
        let (mut packed, mut scalar): (Vec<usize>, Vec<usize>) = (0..universe.len())
            .partition(|&i| matches!(universe[i].class(), FaultClass::Saf | FaultClass::Tf));
        // Word-major batches keep each arena's footprint (and so its
        // bit-plane count) small; the index tiebreaks keep the grouping
        // deterministic.
        packed.sort_by_key(|&i| (universe[i].victim().word, i));
        scalar.sort_by_key(|&i| (fault_cost_rank(&universe[i]), i));
        let batches: Vec<&[usize]> = packed.chunks(Packed64::COUNT).collect();
        let scalar_runs: Vec<&[usize]> = scalar.chunks(STEAL_GRAIN).collect();
        let obs = engine_obs();
        obs.packed_batches.add(batches.len() as u64);
        obs.packed_faults.add(packed.len() as u64);
        obs.scalar_faults.add(scalar.len() as u64);

        let total = batches.len() + scalar_runs.len();
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        // One job per worker, each with its own arenas, claiming items from
        // the shared cursor.
        let job = || {
            // `PackedArena::new` allocates nothing until a batch is armed,
            // and the scalar arena is checked out on the first scalar run.
            let mut arena = PackedArena::<Packed64>::new(self.config);
            let mut memory: Option<FaultyMemory> = None;
            let mut faults = Vec::new();
            let mut out: Vec<(usize, bool)> = Vec::new();
            let mut steals = 0u64;
            while !failed.load(Ordering::Relaxed) {
                let item = cursor.fetch_add(1, Ordering::Relaxed);
                if item >= total {
                    break;
                }
                steals += 1;
                let outcome = if let Some(batch) = batches.get(item) {
                    self.batch_detected(&mut arena, universe, batch, &mut faults)
                        .map(|mask| {
                            let lanes = batch.iter().enumerate();
                            out.extend(lanes.map(|(lane, &slot)| (slot, mask >> lane & 1 == 1)));
                        })
                } else {
                    let memory = memory.get_or_insert_with(|| self.checkout());
                    scalar_runs[item - batches.len()]
                        .iter()
                        .try_for_each(|&slot| {
                            self.detected(memory, universe[slot])
                                .map(|hit| out.push((slot, hit)))
                        })
                };
                if outcome.is_err() {
                    failed.store(true, Ordering::Relaxed);
                    break;
                }
            }
            engine_obs().window_steals.add(steals);
            if let Some(memory) = memory {
                self.checkin(memory);
            }
            out
        };
        let workers = self.workers.width().min(total);
        let per_worker = self.workers.run((0..workers).map(|_| &job).collect());
        if failed.load(Ordering::Relaxed) {
            return None;
        }

        let mut detected: Vec<Option<bool>> = vec![None; universe.len()];
        for (slot, hit) in per_worker.into_iter().flatten() {
            detected[slot] = Some(hit);
        }
        let mut report = CoverageReport::new(self.test.name());
        for (&fault, hit) in universe.iter().zip(&detected) {
            report.record(fault, hit.expect("every universe slot evaluated"));
        }
        Some(report)
    }

    /// Whether each fault of one lane batch is detected (under every tried
    /// initial content): bit `i` of the returned mask is lane `i`'s
    /// verdict. The arena is re-armed for the batch; subsequent content
    /// rounds only reload the data planes. Masks from the content rounds
    /// are ANDed — detected means detected under **every** content, same
    /// as the scalar path — with an early exit once no lane survives.
    fn batch_detected(
        &self,
        arena: &mut PackedArena<Packed64>,
        universe: &[Fault],
        batch: &[usize],
        faults: &mut Vec<Fault>,
    ) -> Result<u64, CoverageError> {
        faults.clear();
        faults.extend(batch.iter().map(|&slot| universe[slot]));
        let mut mask = u64::MAX;
        for round in 0..self.content_images.len().max(1) {
            let image = self.content_images.get(round);
            if round == 0 {
                arena.arm(faults, image)?;
            } else {
                arena.reload(image)?;
            }
            mask &= detect_lowered_batch(&self.lowered, arena)?;
            if mask == 0 {
                break;
            }
        }
        Ok(mask)
    }

    /// Streams per-fault verdicts over a universe without materialising a
    /// report — the bounded-memory path for universes that do not fit in
    /// memory.
    ///
    /// The universe may be any iterator of faults (owned or borrowed); it
    /// is consumed lazily, one bounded window of `threads ×` [a small
    /// constant] faults at a time, and verdicts are yielded **in universe
    /// order**. Every fault runs on the scalar fault-local arena; the
    /// stream never lane-batches. An empty universe yields an empty stream — only
    /// [`CoverageEngine::report`] treats emptiness as an error.
    ///
    /// Each item is a `Result`: a fault that cannot be injected or executed
    /// yields an `Err` at its position in the stream, and the stream ends
    /// after the first error.
    pub fn verdicts<I>(&self, universe: I) -> Verdicts<'_, I::IntoIter>
    where
        I: IntoIterator,
        I::Item: Borrow<Fault>,
    {
        Verdicts {
            engine: self,
            universe: universe.into_iter(),
            buffer: VecDeque::new(),
            poisoned: false,
        }
    }

    /// Compares the engine's test against a second engine fault by fault
    /// over the same universe — the coverage-equivalence experiment of the
    /// paper's Section 5.
    ///
    /// Each engine evaluates under its own content policy; the theorem is
    /// stated for a transparent test under arbitrary content
    /// ([`ContentPolicy::Random`]) against a non-transparent test that
    /// initialises the memory itself ([`ContentPolicy::Zeros`]).
    ///
    /// # Errors
    ///
    /// * [`CoverageError::ConfigMismatch`] if the engines evaluate against
    ///   different memory shapes.
    /// * [`CoverageError::EmptyUniverse`] for an empty universe, and the
    ///   per-fault errors of [`CoverageEngine::report`] otherwise.
    pub fn compare(
        &self,
        second: &CoverageEngine,
        universe: &[Fault],
    ) -> Result<EquivalenceReport, CoverageError> {
        if self.config != second.config {
            return Err(CoverageError::ConfigMismatch);
        }
        if universe.is_empty() {
            return Err(CoverageError::EmptyUniverse);
        }
        let mut first_report = CoverageReport::new(self.test.name());
        let mut second_report = CoverageReport::new(second.test.name());
        let mut disagreements = Vec::new();
        for (by_first, by_second) in self.verdicts(universe).zip(second.verdicts(universe)) {
            let by_first = by_first?;
            let by_second = by_second?;
            first_report.record(by_first.fault, by_first.detected);
            second_report.record(by_second.fault, by_second.detected);
            if by_first.detected != by_second.detected {
                disagreements.push(Disagreement {
                    fault: by_first.fault,
                    detected_by_first: by_first.detected,
                    detected_by_second: by_second.detected,
                });
            }
        }
        Ok(EquivalenceReport {
            first: first_report,
            second: second_report,
            disagreements,
        })
    }

    /// Evaluates MISR-signature aliasing of the engine's (transparent) test
    /// over a universe: every fault is run through the full two-phase
    /// session (prediction test, transparent test, MISR comparison) with a
    /// copy of `misr`, on an arena memory initialised with the engine's
    /// **first** content round only — `contents_per_fault` does not
    /// multiply the sessions.
    ///
    /// # Errors
    ///
    /// Returns [`CoverageError::EmptyUniverse`] for an empty universe and
    /// the underlying memory/BIST errors otherwise.
    pub fn aliasing(
        &self,
        prediction_test: &MarchTest,
        misr: &Misr,
        universe: &[Fault],
    ) -> Result<AliasingReport, CoverageError> {
        if universe.is_empty() {
            return Err(CoverageError::EmptyUniverse);
        }
        let mut report = AliasingReport::default();
        let mut memory = self.checkout();
        let result = (|| {
            for &fault in universe {
                memory.reset_with_fault(fault)?;
                if let Some(image) = self.content_images.first() {
                    memory.load_image(image)?;
                }
                let outcome = run_transparent_session(
                    &self.test,
                    prediction_test,
                    &mut memory,
                    misr.clone(),
                )?;
                report.total += 1;
                if outcome.fault_detected_exact() {
                    report.detected_exact += 1;
                }
                if outcome.fault_detected() {
                    report.detected_signature += 1;
                }
                if outcome.aliased() {
                    report.aliased.push(fault);
                }
            }
            Ok(report)
        })();
        self.checkin(memory);
        result
    }

    /// Whether a *set* of simultaneously injected faults is detected by the
    /// engine's test (under every tried initial content) — the
    /// diagnosis-style multi-fault counterpart of a per-fault verdict.
    ///
    /// The sweep visits only the union of the faults' word footprints
    /// ([`FaultSet::word_footprint`]), which is verdict-equivalent to the
    /// full-address sweep of the reference [`crate::fault_detected`]
    /// (property-tested in `crates/bist/tests/multi_fault_local.rs` and
    /// `tests/reference_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// * [`CoverageError::EmptyUniverse`] if `faults` is empty.
    /// * [`CoverageError::Mem`] if a fault does not fit the memory shape.
    /// * [`CoverageError::Bist`] if the test cannot be executed.
    pub fn injection_detected(&self, faults: &[Fault]) -> Result<bool, CoverageError> {
        if faults.is_empty() {
            return Err(CoverageError::EmptyUniverse);
        }
        let set = FaultSet::from_faults(faults.iter().copied());
        let footprint = set.word_footprint();
        let mut memory = self.checkout();
        let result = self.detected_under_contents(&mut memory, &footprint, |memory| {
            memory.reset_with_faults(set.clone())
        });
        self.checkin(memory);
        result
    }

    /// Checks an arena memory out of the pool, building one if it is empty.
    fn checkout(&self) -> FaultyMemory {
        let memory = self.pool.lock().expect("arena pool lock poisoned").pop();
        match memory {
            Some(memory) => {
                engine_obs().pool_idle_arenas.decr();
                memory
            }
            None => FaultyMemory::fault_free(self.config),
        }
    }

    /// Returns an arena memory to the pool.
    fn checkin(&self, memory: FaultyMemory) {
        self.pool
            .lock()
            .expect("arena pool lock poisoned")
            .push(memory);
        engine_obs().pool_idle_arenas.incr();
    }

    /// Whether one fault is detected (under every tried initial content) on
    /// an arena memory: the memory is re-armed per content round, the
    /// shared content restored with a block copy, and only the fault's
    /// footprint words are swept ([`twm_bist::detect_lowered_at`] — a word
    /// no fault touches can neither misread nor disturb anything, so the
    /// verdict equals a full sweep's at a fraction of the cost).
    fn detected(&self, memory: &mut FaultyMemory, fault: Fault) -> Result<bool, CoverageError> {
        // The footprint is at most two words: the victim's and, for
        // coupling faults, the aggressor's — sorted, deduplicated, and
        // built without per-fault allocation.
        let victim = fault.victim().word;
        let mut footprint = [victim; 2];
        let words = match fault.aggressor() {
            Some(aggressor) if aggressor.word != victim => {
                footprint = [victim.min(aggressor.word), victim.max(aggressor.word)];
                2
            }
            _ => 1,
        };
        self.detected_under_contents(memory, &footprint[..words], |memory| {
            memory.reset_with_fault(fault)
        })
    }

    /// Runs the lowered test once per content round (once on zeroed
    /// content for the all-zero policy), re-arming the memory with `arm`
    /// and restoring the round's content before each sweep of `footprint`;
    /// detected means detected under **every** round.
    fn detected_under_contents(
        &self,
        memory: &mut FaultyMemory,
        footprint: &[usize],
        mut arm: impl FnMut(&mut FaultyMemory) -> Result<(), MemError>,
    ) -> Result<bool, CoverageError> {
        for round in 0..self.content_images.len().max(1) {
            arm(memory)?;
            if let Some(image) = self.content_images.get(round) {
                memory.load_image(image)?;
            }
            if !detect_lowered_at(&self.lowered, memory, footprint)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Evaluates one bounded window of faults, returning its verdicts in
    /// window order. Workers claim [`STEAL_GRAIN`]-sized runs of the window
    /// from the pool's shared cursor, so a ragged tail of expensive faults
    /// rebalances instead of stalling the window barrier, and the verdict
    /// order never depends on timing.
    fn evaluate_window(&self, window: &[Fault]) -> Vec<Result<bool, CoverageError>> {
        let runs: Vec<&[Fault]> = window.chunks(STEAL_GRAIN).collect();
        let obs = engine_obs();
        obs.verdict_windows.incr();
        obs.window_steals.add(runs.len() as u64);
        let per_run = self.workers.map(&runs, |run| {
            let mut memory = self.checkout();
            let verdicts: Vec<_> = run
                .iter()
                .map(|&fault| self.detected(&mut memory, fault))
                .collect();
            self.checkin(memory);
            verdicts
        });
        per_run.into_iter().flatten().collect()
    }
}

/// Streaming per-fault verdict iterator — see [`CoverageEngine::verdicts`].
///
/// Holds at most one bounded window of pending verdicts; arena memories
/// go back to the engine's pool after every window.
#[derive(Debug)]
pub struct Verdicts<'e, I> {
    engine: &'e CoverageEngine,
    universe: I,
    buffer: VecDeque<Result<FaultVerdict, CoverageError>>,
    /// Set after yielding an error; the stream is over.
    poisoned: bool,
}

impl<I> Verdicts<'_, I>
where
    I: Iterator,
    I::Item: Borrow<Fault>,
{
    /// Pulls and evaluates the next window of faults from the universe.
    fn refill(&mut self) {
        let engine = self.engine;
        let window: Vec<Fault> = self
            .universe
            .by_ref()
            .take(engine.worker_threads() * STREAM_CHUNK)
            .map(|fault| *fault.borrow())
            .collect();
        if window.is_empty() {
            return;
        }
        let verdicts = engine.evaluate_window(&window);
        self.buffer.extend(
            window
                .into_iter()
                .zip(verdicts)
                .map(|(fault, result)| result.map(|detected| FaultVerdict { fault, detected })),
        );
    }
}

impl<I> Iterator for Verdicts<'_, I>
where
    I: Iterator,
    I::Item: Borrow<Fault>,
{
    type Item = Result<FaultVerdict, CoverageError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            return None;
        }
        if self.buffer.is_empty() {
            self.refill();
        }
        let item = self.buffer.pop_front();
        if matches!(item, Some(Err(_))) {
            self.poisoned = true;
            self.buffer.clear();
        }
        item
    }
}
