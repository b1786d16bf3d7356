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
//! * a pool of reusable [`FaultyMemory`] arenas, re-armed per fault via
//!   [`FaultyMemory::rearm_local`] — only the fault's footprint words are
//!   restored, so a run costs O(footprint), not O(memory), and repeated
//!   evaluations allocate no per-fault memories.
//!
//! The engine exposes three verbs:
//!
//! * [`CoverageEngine::report`] — evaluate a fault universe into a
//!   [`CoverageReport`]: every fault, stuck-at, transition or coupling, is
//!   looked up in the verdict table, bit-identical for any thread count;
//! * [`CoverageEngine::verdicts`] — a streaming iterator of per-fault
//!   [`FaultVerdict`]s with bounded memory, for universes that do not fit
//!   in memory (the universe is consumed lazily, a bounded window at a
//!   time, and verdicts are yielded in universe order), each run on a
//!   fault-local arena;
//! * [`CoverageEngine::compare`] — fault-by-fault comparison against a
//!   second engine, producing an [`EquivalenceReport`] (the paper's
//!   Section 5 theorem check), on the same arenas.
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
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use twm_bist::flow::run_transparent_session;
use twm_bist::{detect_lowered_at, LoweredTest, Misr};
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
/// [`BitStorage`] images: one per content round for the random policy, none
/// for the all-zero policy (a run zeroes its footprint words instead).
/// Fault-local runs copy their footprint words from them
/// ([`FaultyMemory::rearm_local`]); `aliasing` restores a whole image with
/// a block copy ([`FaultyMemory::load_image`]).
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

/// Number of consecutive universe faults a worker resolves from the
/// verdict table per claim; their verdicts come back as one `u64` mask.
const REPORT_CHUNK: usize = 64;

/// Number of faults a worker claims per steal from a streaming window's
/// shared cursor: small enough that a ragged tail of expensive faults
/// rebalances across workers, large enough to keep cursor contention
/// negligible.
const STEAL_GRAIN: usize = 4;

/// Process-wide engine counters in the [`twm_obs::global`] registry.
/// Counting is batched (one `add` per report or per worker drain, never
/// per fault in an inner loop) so instrumentation stays inside the
/// measured overhead bound; none of it influences verdicts.
struct EngineObs {
    /// `report` calls completed (either outcome).
    reports: twm_obs::Counter,
    /// Wall time of each `report` call.
    report_latency: twm_obs::Histogram,
    /// Report chunks (up to [`REPORT_CHUNK`] consecutive faults of any
    /// class) resolved from the verdict table.
    packed_batches: twm_obs::Counter,
    /// Faults resolved from the verdict table: every fault of a report.
    packed_faults: twm_obs::Counter,
    /// Faults evaluated on the scalar fault-local arena, by `verdicts` and
    /// `compare`; `report` adds none.
    scalar_faults: twm_obs::Counter,
    /// Work items claimed from a shared cursor (report chunks and
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
    /// the maximum number of concurrent checkouts (≤ worker threads). Their
    /// content outside the last run's footprint may be stale — see
    /// [`CoverageEngine::checkout`].
    pool: Mutex<Vec<FaultyMemory>>,
    /// Persistent workers (`threads - 1`; their threads spawn on the first
    /// parallel fan-out), shared (`Arc`) with [`CoverageEngine::with_test`]
    /// siblings so candidate loops amortise thread creation too.
    workers: Arc<WorkerPool>,
    /// Built by the first `report`, `verdicts`, `compare` or
    /// `injection_detected` call (two one-word runs of the test); its row
    /// groups follow on the first `report` lookup that needs each.
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
    /// (property-tested in `tests/reference_equivalence.rs`). A report
    /// never touches the scalar arena.
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
        let chunks = universe.len().div_ceil(REPORT_CHUNK);
        let obs = engine_obs();
        obs.packed_batches.add(chunks as u64);
        obs.packed_faults.add(universe.len() as u64);

        let table = self.table();
        let undetected: Vec<AtomicU64> = (0..chunks).map(|_| AtomicU64::new(0)).collect();
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
                let faults =
                    &universe[chunk * REPORT_CHUNK..universe.len().min((chunk + 1) * REPORT_CHUNK)];
                match table.resolve(faults, self.config, &self.content_images, &mut tally) {
                    Ok(mask) => undetected[chunk].store(mask, Ordering::Relaxed),
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
            // in-order walk finds the earliest one, as documented.
            return Err(universe
                .iter()
                .find_map(|fault| table::decode(fault, self.config).err())
                .expect("a chunk failed on some fault"));
        }

        let mut tally = Tally::default();
        for part in &tallies {
            tally.merge(part);
        }
        let mut escaped = Vec::new();
        for (chunk, mask) in undetected.iter().enumerate() {
            let mut mask = mask.load(Ordering::Relaxed);
            while mask != 0 {
                escaped.push(universe[chunk * REPORT_CHUNK + mask.trailing_zeros() as usize]);
                mask &= mask - 1;
            }
        }
        let mut report = CoverageReport::new(self.test.name());
        report.record_tally(&tally, escaped);
        Ok(report)
    }

    /// The verdict table, built on first use.
    fn table(&self) -> &VerdictTable {
        self.table
            .get_or_init(|| VerdictTable::new(&self.lowered, self.config, &self.content_images))
    }

    /// Streams per-fault verdicts over a universe without materialising a
    /// report — the bounded-memory path for universes that do not fit in
    /// memory.
    ///
    /// The universe may be any iterator of faults (owned or borrowed); it
    /// is consumed lazily, one bounded window of `threads ×` [a small
    /// constant] faults at a time, and verdicts are yielded **in universe
    /// order**. Every fault runs on the scalar fault-local arena, never
    /// through the verdict table. An empty universe yields an empty stream
    /// — only [`CoverageEngine::report`] treats emptiness as an error.
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
        let footprint = FaultSet::from_faults(faults.iter().copied()).word_footprint();
        let mut memory = self.checkout();
        let result = self.detected_under_contents(&mut memory, faults, &footprint);
        self.checkin(memory);
        result
    }

    /// Checks an arena memory out of the pool, building one if it is empty.
    ///
    /// Pool invariant: an arena's content is only defined on the words its
    /// current run re-armed. Fault-local runs restore just their footprint
    /// ([`FaultyMemory::rearm_local`]) and leave every other word as an
    /// earlier run left it, which is sound because
    /// [`twm_bist::detect_lowered_at`] neither reads nor writes a word
    /// outside the footprint it sweeps. A caller that runs a whole-memory
    /// session (`aliasing`) must reset and load the whole arena first.
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
    /// an arena memory: only the fault's footprint words are re-armed and
    /// swept ([`twm_bist::detect_lowered_at`] — a word no fault touches can
    /// neither misread nor disturb anything, so the verdict equals a full
    /// sweep's at a fraction of the cost).
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
        self.detected_under_contents(memory, std::slice::from_ref(&fault), &footprint[..words])
    }

    /// Runs the lowered test once per content round (once on zeroed
    /// content for the all-zero policy) with `faults` injected, sweeping
    /// only `footprint`; detected means detected under **every** round.
    ///
    /// Before each round the arena is re-armed with
    /// [`FaultyMemory::rearm_local`]: the fault set is rebuilt in place and
    /// only the footprint words are copied from the round's image (zeroed
    /// under [`ContentPolicy::Zeros`]). Words outside the footprint keep
    /// whatever an earlier run left there — the pool invariant of
    /// [`CoverageEngine::checkout`] — so a round costs O(footprint), not
    /// O(memory).
    ///
    /// A word outside the footprint behaves fault-free, and a test that
    /// reads before it writes can mismatch there anyway: a round in which
    /// such a word exists detects without a sweep (the verdict table's
    /// per-round list; empty for transparent and write-first tests).
    fn detected_under_contents(
        &self,
        memory: &mut FaultyMemory,
        faults: &[Fault],
        footprint: &[usize],
    ) -> Result<bool, CoverageError> {
        let strays = &self.table().strays;
        for round in 0..self.content_images.len().max(1) {
            memory.rearm_local(faults, self.content_images.get(round), footprint)?;
            let stray = strays
                .get(round)
                .is_some_and(|words| lies_outside(words, footprint));
            if !stray && !detect_lowered_at(&self.lowered, memory, footprint)? {
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
        obs.scalar_faults.add(window.len() as u64);
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

    /// A report of every class, on a parallel engine, resolves every fault
    /// from the table: it checks no arena out of the scalar pool, which
    /// `verdicts` then does.
    #[test]
    fn a_mixed_report_checks_out_no_scalar_arena() {
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
        assert!(engine.pool.lock().unwrap().is_empty());
        assert_eq!(engine.verdicts(&faults).count(), faults.len());
        assert!(!engine.pool.lock().unwrap().is_empty());
    }
}
