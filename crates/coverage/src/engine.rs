//! The reusable, streaming fault-coverage engine.
//!
//! [`CoverageEngine`] is the single evaluation surface of this crate: built
//! once per `(memory shape, march test)` pair, it owns everything that can
//! be amortised across fault-injection runs —
//!
//! * the [pre-lowered](twm_bist::LoweredTest) operation stream of the test,
//! * the pre-generated pseudo-random initial contents,
//! * built on first use, a verdict table that answers every single-fault
//!   verdict without running the march (see [`CoverageEngine::report`]),
//! * a pool of reusable [`FaultyMemory`] arenas for the runs that do
//!   simulate: each is re-armed per run via [`FaultyMemory::rearm_local`],
//!   which restores only the run's footprint words, so a run costs
//!   O(footprint), not O(memory), and allocates no memory.
//!
//! Every single-fault verdict comes from the table, through one chunked
//! resolver on the worker pool:
//!
//! * [`CoverageEngine::report`] — evaluate a fault universe into a
//!   [`CoverageReport`], bit-identical for any thread count;
//! * [`CoverageEngine::verdicts`] — a streaming iterator of per-fault
//!   [`FaultVerdict`]s with bounded memory, for universes that do not fit
//!   in memory (the universe is consumed lazily, a bounded window at a
//!   time, and verdicts are yielded in universe order);
//! * [`CoverageEngine::compare`] — fault-by-fault comparison against a
//!   second engine, producing an [`EquivalenceReport`] (the paper's
//!   Section 5 theorem check).
//!
//! Multi-fault injections ([`CoverageEngine::injection_detected`]) sweep
//! the faults' footprint words on an arena, and signature-aliasing
//! analysis ([`CoverageEngine::aliasing`]) runs the engine's scheme
//! session fault-locally on a [`twm_bist::FaultLocalSession`]. Every
//! verdict equals the naive reference [`crate::fault_detected`] — a fresh
//! memory and a full sweep of the symbolic test — and every aliasing
//! report equals a naive
//! [`twm_bist::run_scheme_session`] per fault (property-tested in
//! `tests/reference_equivalence.rs`).
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use twm_bist::{detect_lowered_at, FaultLocalSession, LoweredTest, Misr};
use twm_core::scheme::{SchemeTransform, TransparentScheme};
use twm_march::MarchTest;
use twm_mem::{BitStorage, Fault, FaultSet, FaultyMemory, MemoryConfig};

use crate::equivalence::Disagreement;
use crate::report::Tally;
use crate::table::{self, lies_outside, VerdictTable};
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
            table: OnceLock::new(),
        })
    }
}

/// The initial contents every fault-injection run starts from, as raw
/// [`BitStorage`] images ([`ContentPolicy::image`]): one per content round
/// for the random policy, none for the all-zero policy (a run zeroes its
/// footprint words instead). Fault-local runs copy their footprint words
/// from them ([`FaultyMemory::rearm_local`]).
pub(crate) fn prepared_contents(
    config: MemoryConfig,
    options: EvaluationOptions,
) -> Vec<BitStorage> {
    if options.content == ContentPolicy::Zeros {
        return Vec::new();
    }
    (0..options.contents_per_fault.max(1))
        .map(|round| options.content.image(config, round))
        .collect()
}

/// Number of consecutive universe faults a worker resolves from the
/// verdict table per claim; their verdicts come back as one `u64` mask.
const CHUNK: usize = 64;

/// Number of chunks pulled from the universe per worker thread per
/// streaming window: large enough to amortise fan-out, small enough that
/// [`CoverageEngine::verdicts`] stays bounded-memory.
const STREAM_CHUNKS: usize = 64;

/// Process-wide engine counters in the [`twm_obs::global`] registry.
/// Counting is batched (one `add` per report or per worker drain, never
/// per fault in an inner loop) so instrumentation stays inside the
/// measured overhead bound; none of it influences verdicts.
struct EngineObs {
    /// `report` calls completed (either outcome).
    reports: twm_obs::Counter,
    /// Wall time of each `report` call.
    report_latency: twm_obs::Histogram,
    /// Chunks (up to [`CHUNK`] consecutive faults of any class) resolved
    /// from the verdict table by `report`, `verdicts` and `compare`.
    packed_batches: twm_obs::Counter,
    /// Faults resolved from the verdict table: every fault of a report, a
    /// verdict stream or a comparison.
    packed_faults: twm_obs::Counter,
    /// Chunks claimed from the resolver's shared cursor.
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
            window_steals: registry.counter("twm_coverage_window_steals_total", &[]),
            verdict_windows: registry.counter("twm_coverage_verdict_windows_total", &[]),
            pool_idle_arenas: registry.gauge("twm_coverage_pool_idle_arenas", &[]),
        }
    })
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
    /// Checked-in arena memories, re-armed per run. Bounded by the maximum
    /// number of concurrent checkouts. Their content outside the last run's
    /// footprint may be stale — see [`CoverageEngine::with_arena`].
    pool: Mutex<Vec<FaultyMemory>>,
    /// Persistent workers (`threads - 1`; their threads spawn on the first
    /// parallel fan-out), shared (`Arc`) with [`CoverageEngine::with_test`]
    /// siblings so candidate loops amortise thread creation too.
    workers: Arc<WorkerPool>,
    /// Built by the first `report`, `verdicts`, `compare` or
    /// `injection_detected` call (two one-word runs of the test); its row
    /// groups follow on the first lookup that needs each.
    table: OnceLock<VerdictTable>,
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
            table: OnceLock::new(),
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
    /// No fault runs the march. Each is decoded once into a row of the
    /// engine's verdict table and a cell, and is detected in a content
    /// round iff one of these mismatches at some read:
    ///
    /// * its victim bit, as the table row for its kind, word relation,
    ///   aggressor bit and the content of its one or two cells says (rows
    ///   come from one-word runs of the test with a stuck-at or transition
    ///   fault on every bit, and from lane-sliced one- and two-word runs
    ///   with a coupling fault into every bit);
    /// * another bit of its one or two words, in a fault-free run;
    /// * another word, when the test reads before it writes.
    ///
    /// The fault-free terms are built on first use, a row group on the
    /// first lookup that needs it. Workers claim chunks of 64 consecutive
    /// faults from one atomic cursor; each returns its chunk's escapes as
    /// a mask and tallies the rest, and the masks are merged back in
    /// **universe order**, so the report is bit-identical to the reference
    /// [`crate::fault_detected`] for any worker-thread count
    /// (property-tested in `tests/reference_equivalence.rs`).
    ///
    /// # Errors
    ///
    /// * [`CoverageError::EmptyUniverse`] if `universe` is empty.
    /// * [`CoverageError::Mem`] if a fault does not fit the memory shape
    ///   (the error of the earliest offending fault in universe order).
    pub fn report(&self, universe: &[Fault]) -> Result<CoverageReport, CoverageError> {
        let mut span = twm_obs::span("coverage.report");
        span.field("universe", universe.len());
        let start = Instant::now();
        let result = self.resolved_report(universe).map(|(report, _)| report);
        let obs = engine_obs();
        obs.reports.incr();
        obs.report_latency
            .observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        span.field("outcome", if result.is_ok() { "ok" } else { "error" });
        result
    }

    /// The report of a non-empty universe, with the escape masks it was
    /// built from ([`CoverageEngine::resolve`]).
    fn resolved_report(
        &self,
        universe: &[Fault],
    ) -> Result<(CoverageReport, Vec<u64>), CoverageError> {
        if universe.is_empty() {
            return Err(CoverageError::EmptyUniverse);
        }
        let (tally, escapes) = self.resolve(universe).map_err(|(_, error)| error)?;
        let mut report = CoverageReport::new(self.test.name());
        report.record_tally(&tally, set_bits(&escapes).map(|at| universe[at]).collect());
        Ok((report, escapes))
    }

    /// The verdict table, built on first use.
    fn table(&self) -> &VerdictTable {
        self.table
            .get_or_init(|| VerdictTable::new(&self.lowered, self.config, &self.content_images))
    }

    /// Resolves `faults` from the verdict table on the worker pool: the
    /// resolver behind `report`, `verdicts` and `compare`.
    ///
    /// Workers claim chunks of [`CHUNK`] consecutive faults from one atomic
    /// cursor, tally them, and store each chunk's escape mask (bit `i` for
    /// the chunk's fault `i`) by chunk index, so the masks come back in
    /// universe order whatever the timing. Returns the merged tally and
    /// the masks, or the position and error of the earliest fault that
    /// does not fit the memory shape.
    fn resolve(&self, faults: &[Fault]) -> Result<(Tally, Vec<u64>), (usize, CoverageError)> {
        let chunks = faults.len().div_ceil(CHUNK);
        let obs = engine_obs();
        obs.packed_batches.add(chunks as u64);
        obs.packed_faults.add(faults.len() as u64);

        let table = self.table();
        let escapes: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        // One job per worker: claim chunks from the shared cursor, store
        // each chunk's escape mask by chunk index, count locally. Relaxed
        // is enough for the masks: `WorkerPool::run` returns only after
        // every job has reported back over its channels, which orders the
        // stores before the loads below.
        let job = || {
            let mut tally = Tally::default();
            let mut steals = 0u64;
            while !failed.load(Ordering::Relaxed) {
                let chunk = cursor.fetch_add(1, Ordering::Relaxed);
                if chunk >= chunks {
                    break;
                }
                steals += 1;
                let run = &faults[chunk * CHUNK..faults.len().min((chunk + 1) * CHUNK)];
                match table.resolve(run, self.config, &self.content_images, &mut tally) {
                    Ok(mask) => escapes[chunk].store(mask, Ordering::Relaxed),
                    Err(_) => failed.store(true, Ordering::Relaxed),
                }
            }
            engine_obs().window_steals.add(steals);
            tally
        };
        let workers = self.workers.width().min(chunks);
        let tallies = self.workers.run((0..workers).map(|_| &job).collect());
        if failed.load(Ordering::Relaxed) {
            // Errors are properties of a (fault, memory shape) pair, so an
            // in-order walk finds the earliest one.
            return Err(faults
                .iter()
                .enumerate()
                .find_map(|(at, fault)| Some((at, table::decode(fault, self.config).err()?)))
                .expect("a chunk failed on some fault"));
        }
        let mut tally = Tally::default();
        for part in &tallies {
            tally.merge(part);
        }
        Ok((
            tally,
            escapes.into_iter().map(AtomicU64::into_inner).collect(),
        ))
    }

    /// Streams per-fault verdicts over a universe without materialising a
    /// report — the bounded-memory path for universes that do not fit in
    /// memory.
    ///
    /// The universe may be any iterator of faults (owned or borrowed); it
    /// is consumed lazily, one bounded window of `threads ×` [a small
    /// constant] faults at a time, each window resolved from the verdict
    /// table like a [`CoverageEngine::report`], and verdicts are yielded
    /// **in universe order**. An empty universe yields an empty stream —
    /// only `report` treats emptiness as an error.
    ///
    /// Each item is a `Result`: a fault that does not fit the memory shape
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
    /// paper's Section 5. Each engine resolves the universe from its own
    /// verdict table, as a [`CoverageEngine::report`] does.
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
        let (first, first_escapes) = self.resolved_report(universe)?;
        let (second, second_escapes) = second.resolved_report(universe)?;
        let differ: Vec<u64> = first_escapes
            .iter()
            .zip(&second_escapes)
            .map(|(a, b)| a ^ b)
            .collect();
        let disagreements = set_bits(&differ)
            .map(|at| {
                let detected_by_first = !escaped(&first_escapes, at);
                Disagreement {
                    fault: universe[at],
                    detected_by_first,
                    detected_by_second: !detected_by_first,
                }
            })
            .collect();
        Ok(EquivalenceReport {
            first,
            second,
            disagreements,
        })
    }

    /// Evaluates MISR-signature aliasing of the engine's scheme over a
    /// universe: every fault runs the scheme's session (prediction phase,
    /// transparent test and signature comparison, or the concurrent
    /// checker of a prediction-free scheme) with a copy of `misr`, over the
    /// engine's **first** content round only (all-zero under
    /// [`ContentPolicy::Zeros`]) — `contents_per_fault` does not multiply
    /// the sessions.
    ///
    /// Each call prepares one [`FaultLocalSession`] over that content: the
    /// fault-free session is derived in closed form, and each fault then
    /// sweeps only its footprint words on the session's arena
    /// ([`FaultLocalSession::run`]). The fault is detected exactly if some
    /// test-phase read mismatches, and by signature if the predicted
    /// signature differs from the test signature; it aliases if only the
    /// first holds.
    ///
    /// # Errors
    ///
    /// * [`CoverageError::MissingScheme`] if the engine was built without
    ///   a scheme ([`CoverageEngine::for_scheme`]).
    /// * [`CoverageError::EmptyUniverse`] for an empty universe.
    /// * [`CoverageError::Bist`] if `misr` is not as wide as the memory
    ///   words ([`twm_bist::BistError::WidthMismatch`]), or if a fault does
    ///   not fit the memory ([`twm_bist::BistError::Mem`]).
    pub fn aliasing(
        &self,
        misr: &Misr,
        universe: &[Fault],
    ) -> Result<AliasingReport, CoverageError> {
        let transform = self
            .transform
            .as_ref()
            .ok_or(CoverageError::MissingScheme)?;
        if universe.is_empty() {
            return Err(CoverageError::EmptyUniverse);
        }
        let image = self.options.content.image(self.config, 0);
        let session = FaultLocalSession::new(transform, image, misr.clone())?;
        let mut report = AliasingReport::default();
        for &fault in universe {
            let outcome = session.run(&[fault])?;
            let exact = outcome.mismatches > 0;
            let signature = outcome.trail.first() != outcome.trail.last();
            report.total += 1;
            report.detected_exact += usize::from(exact);
            report.detected_signature += usize::from(signature);
            if exact && !signature {
                report.aliased.push(fault);
            }
        }
        Ok(report)
    }

    /// Whether a *set* of simultaneously injected faults is detected by the
    /// engine's test (under every tried initial content) — the
    /// diagnosis-style multi-fault counterpart of a per-fault verdict.
    ///
    /// Each content round (one on zeroed content for the all-zero policy)
    /// re-arms a pooled arena with [`FaultyMemory::rearm_local`] — only the
    /// union of the faults' word footprints ([`FaultSet::word_footprint`])
    /// is copied from the round's image — and sweeps only those words
    /// ([`twm_bist::detect_lowered_at`]), which is verdict-equivalent to the
    /// full-address sweep of the reference [`crate::fault_detected`]
    /// (property-tested in `crates/bist/tests/multi_fault_local.rs` and
    /// `tests/reference_equivalence.rs`). A word outside the footprint
    /// behaves fault-free, and a test that reads before it writes can
    /// mismatch there anyway: a round in which such a word exists detects
    /// without a sweep (the verdict table's per-round list; empty for
    /// transparent and write-first tests).
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
        let footprint = FaultSet::from_faults(faults.iter().copied()).word_footprint();
        let strays = &self.table().strays;
        self.with_arena(|memory| {
            for round in 0..self.content_images.len().max(1) {
                memory.rearm_local(faults, self.content_images.get(round), &footprint)?;
                let stray = strays
                    .get(round)
                    .is_some_and(|words| lies_outside(words, &footprint));
                if !stray && !detect_lowered_at(&self.lowered, memory, &footprint)? {
                    return Ok(false);
                }
            }
            Ok(true)
        })
    }

    /// Runs `run` on an arena memory checked out of the pool (a new one if
    /// the pool is empty) and checks the arena back in.
    ///
    /// Pool invariant: an arena is a zeroed memory whose content is only
    /// defined on the words its current run re-armed. Every run restores
    /// just its footprint ([`FaultyMemory::rearm_local`]) and leaves every
    /// other word as an earlier run left it, which is sound because
    /// [`twm_bist::detect_lowered_at`] reads and writes no word outside
    /// the footprint it sweeps — the re-arm rule of
    /// [`FaultLocalSession`], whose own pool serves `aliasing`.
    fn with_arena<T>(
        &self,
        run: impl FnOnce(&mut FaultyMemory) -> Result<T, CoverageError>,
    ) -> Result<T, CoverageError> {
        let idle = self.pool.lock().expect("arena pool lock poisoned").pop();
        let mut memory = match idle {
            Some(memory) => {
                engine_obs().pool_idle_arenas.decr();
                memory
            }
            None => FaultyMemory::fault_free(self.config),
        };
        let result = run(&mut memory);
        self.pool
            .lock()
            .expect("arena pool lock poisoned")
            .push(memory);
        engine_obs().pool_idle_arenas.incr();
        result
    }
}

/// Whether position `at` is set in escape masks from
/// [`CoverageEngine::resolve`].
fn escaped(escapes: &[u64], at: usize) -> bool {
    escapes[at / CHUNK] >> (at % CHUNK) & 1 != 0
}

/// The positions set in escape masks, ascending.
fn set_bits(escapes: &[u64]) -> impl Iterator<Item = usize> + '_ {
    escapes
        .iter()
        .enumerate()
        .filter(|&(_, &mask)| mask != 0)
        .flat_map(|(chunk, &mask)| {
            (0..CHUNK)
                .filter(move |bit| mask >> bit & 1 != 0)
                .map(move |bit| chunk * CHUNK + bit)
        })
}

/// Streaming per-fault verdict iterator — see [`CoverageEngine::verdicts`].
///
/// Holds at most one bounded window of pending verdicts.
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
    /// Pulls and resolves the next window of faults from the universe.
    fn refill(&mut self) {
        let engine = self.engine;
        let mut window: Vec<Fault> = self
            .universe
            .by_ref()
            .take(engine.worker_threads() * STREAM_CHUNKS * CHUNK)
            .map(|fault| *fault.borrow())
            .collect();
        if window.is_empty() {
            return;
        }
        engine_obs().verdict_windows.incr();
        let (escapes, error) = match engine.resolve(&window) {
            Ok((_, escapes)) => (escapes, None),
            Err((at, error)) => {
                window.truncate(at);
                let (_, escapes) = engine
                    .resolve(&window)
                    .expect("every fault before the earliest error fits");
                (escapes, Some(error))
            }
        };
        self.buffer
            .extend(window.into_iter().enumerate().map(|(at, fault)| {
                Ok(FaultVerdict {
                    fault,
                    detected: !escaped(&escapes, at),
                })
            }));
        self.buffer.extend(error.map(Err));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{CouplingScope, UniverseBuilder};
    use twm_march::algorithms::{march_c_minus, mats_plus};

    fn zeros() -> EvaluationOptions {
        EvaluationOptions {
            content: ContentPolicy::Zeros,
            contents_per_fault: 1,
        }
    }

    /// The policy's round-r image is the engine's round-r content, and the
    /// content the naive reference fills a memory with in that round.
    #[test]
    fn policy_images_are_the_engine_contents() {
        let config = MemoryConfig::new(9, 33).unwrap();
        let content = ContentPolicy::Random { seed: u64::MAX - 1 };
        let engine = CoverageEngine::builder(config)
            .test(&march_c_minus())
            .content(content)
            .contents_per_fault(3)
            .build()
            .unwrap();
        assert_eq!(engine.content_images.len(), 3);
        for (round, image) in engine.content_images.iter().enumerate() {
            assert_eq!(*image, content.image(config, round));
            let mut memory = FaultyMemory::fault_free(config);
            memory.fill_random((u64::MAX - 1).wrapping_add(round as u64));
            assert_eq!(*image, memory.snapshot());
        }
        let zeros = CoverageEngine::builder(config)
            .test(&march_c_minus())
            .options(zeros())
            .build()
            .unwrap();
        assert!(zeros.content_images.is_empty());
        let image = ContentPolicy::Zeros.image(config, 2);
        assert_eq!(image, FaultyMemory::fault_free(config).snapshot());
    }

    /// The table is built on the engine's first evaluation, once, and
    /// never shared with a `with_test` sibling, which runs another test.
    #[test]
    fn the_table_is_built_once_on_first_use_and_per_engine() {
        let config = MemoryConfig::new(4, 4).unwrap();
        let faults = UniverseBuilder::new(config).stuck_at().transition().build();
        let engine = CoverageEngine::builder(config)
            .test(&mats_plus())
            .options(zeros())
            .build()
            .unwrap();
        let sibling = engine.with_test(&march_c_minus()).unwrap();
        assert!(engine.table.get().is_none());
        assert!(sibling.table.get().is_none());

        let first = engine.report(&faults).unwrap();
        let built: *const VerdictTable = engine.table.get().unwrap();
        assert_eq!(engine.report(&faults).unwrap(), first);
        assert!(std::ptr::eq(built, engine.table.get().unwrap()));
        assert!(sibling.table.get().is_none());

        // MATS+ misses the falling transition faults of cells that start
        // at 0; March C− misses nothing.
        assert_eq!(first.detected_faults(), faults.len() / 4 * 3);
        assert_eq!(sibling.report(&faults).unwrap().total_coverage(), 1.0);
    }

    /// Every table path — `report`, `verdicts` and `compare` — resolves
    /// every fault of every class without an arena; `injection_detected`
    /// checks one out of the pool and back in.
    #[test]
    fn only_injections_check_out_an_arena() {
        let config = MemoryConfig::new(6, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::SameWordAndAdjacent)
            .build();
        let engine = CoverageEngine::builder(config)
            .test(&march_c_minus())
            .strategy(Strategy::Parallel { threads: 2 })
            .build()
            .unwrap();
        let report = engine.report(&faults).unwrap();
        assert_eq!(report.total_faults(), faults.len());
        assert_eq!(engine.verdicts(&faults).count(), faults.len());
        assert!(engine
            .compare(&engine, &faults)
            .unwrap()
            .disagreements
            .is_empty());
        assert!(engine.pool.lock().unwrap().is_empty());
        assert!(engine.injection_detected(&faults[..2]).unwrap());
        assert_eq!(engine.pool.lock().unwrap().len(), 1);
    }
}
