//! The transport-agnostic service core: a request/response enum pair and
//! the synchronous [`FleetService::handle`] entry point.
//!
//! The service is deliberately transport-free — callers hand it a
//! [`Request`] value (decoded from the [`crate::wire`] format or built
//! in-process) and get a [`Response`] value back. A socket server, a CI
//! harness and the [`crate::Dispatcher`] admission limiter all wrap the
//! same `handle`.
//!
//! ## Determinism
//!
//! Batched diagnosis maps devices over a worker pool, but every
//! per-device verdict is a pure function of the shard runtime and the
//! report, results are merged back into submission order, and batch
//! statistics are folded serially from that order — so a batch response
//! is **bit-identical to the serial path** for any thread count, and
//! cumulative statistics (all counters additive) do not depend on how
//! concurrent batches interleave. Cache hit/miss counters *do* depend on
//! arrival order; they live in [`CacheMetrics`], apart from the
//! deterministic [`FleetStatistics`].

use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use serde::{Deserialize, Serialize};
use twm_core::scheme::SchemeId;
use twm_coverage::{ContentPolicy, Strategy, UniverseBuilder, WorkerPool};
use twm_march::MarchTest;
use twm_mem::MemoryConfig;
use twm_obs::{
    latency_bounds, Counter, Histogram, HistogramSnapshot, MetricsReport, MetricsServer,
};
use twm_repair::{
    localise_class, DictionaryOptions, FaultLocalSession, LocatedDefect, RepairAllocator,
    RepairPlan, SignatureDictionary, SignatureTrail, TrailLookup,
};

use crate::cache::{cache_obs, RuntimeCache, ShardRuntime};
use crate::shard::ShardKey;
use crate::stats::{CacheMetrics, FleetStatistics};
use crate::store::{DictionaryStore, SpillConfig};
use crate::FleetError;

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker-thread strategy for batch fan-out, engine simulations and
    /// server-side dictionary builds.
    pub strategy: Strategy,
    /// LRU bound on cached shard runtimes.
    pub cache_capacity: usize,
    /// Whether diagnosed devices get their repair plan verified by
    /// simulation (apply the plan to the ambiguity class's representative
    /// injection and re-run the scheme session through the remap table,
    /// fault-locally: see [`twm_repair::FaultLocalSession::verify`]).
    pub verify_repairs: bool,
    /// When set, shards whose runtimes fall out of the LRU cache are
    /// demoted to paged spill files under this configuration — lookups
    /// keep working from disk and fleet memory stays bounded by the
    /// page-cache budget.
    pub spill: Option<SpillConfig>,
    /// When set, the service binds a [`twm_obs::MetricsServer`] on this
    /// address at construction and serves `GET /metrics` (the
    /// process-wide registry in the Prometheus text format) and
    /// `GET /healthz` from a background thread for the life of the
    /// process. Bind to port 0 and read the resolved address back with
    /// [`FleetService::metrics_addr`].
    pub metrics_http: Option<SocketAddr>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::Auto,
            cache_capacity: 8,
            verify_repairs: true,
            spill: None,
            metrics_http: None,
        }
    }
}

/// Which fault classes a server-side dictionary build indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniverseSpec {
    /// Index single stuck-at faults.
    pub stuck_at: bool,
    /// Index single transition faults.
    pub transition: bool,
    /// Index idempotent coupling faults.
    pub coupling_idempotent: bool,
    /// Two-fault injections to sample on top of the single-fault
    /// universe.
    pub multi_fault_samples: usize,
    /// Seed of the deterministic pair sampler.
    pub sample_seed: u64,
}

impl Default for UniverseSpec {
    fn default() -> Self {
        Self {
            stuck_at: true,
            transition: true,
            coupling_idempotent: false,
            multi_fault_samples: 0,
            sample_seed: 0xD1C7,
        }
    }
}

/// One device's periodic-test report: where it runs and what its MISR
/// produced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Caller-chosen device identifier, echoed in the outcome.
    pub device: String,
    /// The deployment triple the device runs.
    pub shard: ShardKey,
    /// The observed per-stage MISR signature trail.
    pub trail: SignatureTrail,
    /// Spare words the device's memory has available for repair.
    pub spares: usize,
}

/// The service request set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Request {
    /// Register a client-built dictionary for the shard derived from its
    /// config, scheme and `source`.
    RegisterDictionary {
        /// The source march test of the deployment.
        source: MarchTest,
        /// The dictionary (built with [`SignatureDictionary::build`]).
        dictionary: SignatureDictionary,
    },
    /// Build a dictionary server-side (through the cached engine for the
    /// config/content pair) and register it.
    BuildDictionary {
        /// The transparent scheme of the deployment.
        scheme: SchemeId,
        /// The source march test.
        source: MarchTest,
        /// The memory shape.
        config: MemoryConfig,
        /// The reference content policy devices run the periodic test
        /// against.
        content: ContentPolicy,
        /// The fault universe to index.
        universe: UniverseSpec,
    },
    /// Drop a shard's dictionary (and its cached runtime).
    EvictDictionary {
        /// The shard to evict.
        shard: ShardKey,
    },
    /// List the registered shards.
    ListShards,
    /// Diagnose a batch of device reports.
    DiagnoseBatch {
        /// The reports; outcomes come back in this order.
        reports: Vec<DeviceReport>,
    },
    /// Export a shard's source test and dictionary in the wire format.
    ExportShard {
        /// The shard to export.
        shard: ShardKey,
    },
    /// Register a shard from an [`Response::Exported`] payload.
    ImportShard {
        /// The wire-format bytes.
        bytes: Vec<u8>,
    },
    /// Cumulative diagnosis statistics since service start.
    Statistics,
    /// Runtime-cache health counters.
    CacheMetrics,
    /// A scrape of the process-wide [`twm_obs`] metrics registry —
    /// the remote equivalent of calling [`twm_obs::Registry::snapshot`]
    /// in-process.
    Metrics,
}

/// A registered shard, as listed by [`Request::ListShards`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardInfo {
    /// The shard key.
    pub shard: ShardKey,
    /// Name of the source march test.
    pub test_name: String,
    /// Ambiguity classes in the dictionary.
    pub classes: usize,
    /// Injections the dictionary indexes.
    pub indexed: usize,
}

/// The verdict for one device of a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DeviceVerdict {
    /// The trail matches the fault-free reference.
    Clean,
    /// No dictionary is registered for the report's shard.
    UnknownShard,
    /// The trail fails but matches no indexed injection (content drift or
    /// an un-modelled defect) — candidate for escalation to on-device
    /// adaptive localisation.
    UnknownTrail,
    /// The trail matched an ambiguity class.
    Diagnosed(Diagnosis),
    /// Diagnosis failed with an internal error.
    Failed {
        /// The error rendered as text.
        message: String,
    },
}

/// A successful trail diagnosis with its repair plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnosis {
    /// Ranked defect hypotheses.
    pub defects: Vec<LocatedDefect>,
    /// Size of the matched ambiguity class.
    pub ambiguity: usize,
    /// Spare assignment over the device's budget.
    pub plan: RepairPlan,
    /// Whether the plan re-verified clean on the class's representative
    /// injection (always `false` when verification is disabled or the
    /// plan leaves defects unrepaired).
    pub predicted_clean: bool,
}

/// One device's slot of a batch response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceOutcome {
    /// The report's device identifier.
    pub device: String,
    /// The verdict.
    pub verdict: DeviceVerdict,
}

/// A whole batch's outcomes plus its (batch-local) statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Per-device outcomes, in submission order.
    pub outcomes: Vec<DeviceOutcome>,
    /// Statistics folded over this batch only.
    pub statistics: FleetStatistics,
}

/// The service response set; every [`Request`] variant maps to one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Response {
    /// A dictionary was registered.
    Registered {
        /// The shard it serves.
        shard: ShardKey,
        /// Ambiguity classes in the dictionary.
        classes: usize,
        /// Injections indexed.
        indexed: usize,
    },
    /// An eviction was processed.
    Evicted {
        /// The shard.
        shard: ShardKey,
        /// Whether a dictionary was registered.
        existed: bool,
    },
    /// The registered shards.
    Shards(Vec<ShardInfo>),
    /// A batch was diagnosed.
    Batch(BatchReport),
    /// A shard's wire-format export.
    Exported {
        /// The shard.
        shard: ShardKey,
        /// Source test + dictionary, wire-encoded.
        bytes: Vec<u8>,
    },
    /// Cumulative statistics.
    Statistics(FleetStatistics),
    /// Cache health counters.
    CacheMetrics(CacheMetrics),
    /// A metrics-registry scrape. `text` and `report` are rendered
    /// from **one** snapshot, so `report.expose() == text` holds even
    /// while counters keep ticking — the invariant the remote-scrape
    /// equality test asserts.
    Metrics {
        /// The snapshot in the Prometheus text exposition format.
        text: String,
        /// The same snapshot, structured.
        report: MetricsReport,
    },
    /// The request failed.
    Error {
        /// The error rendered as text.
        message: String,
    },
}

/// The wire-stable name of a request variant, used as the `request`
/// label on the fleet's per-variant counters and latency histograms.
fn request_name(request: &Request) -> &'static str {
    match request {
        Request::RegisterDictionary { .. } => "RegisterDictionary",
        Request::BuildDictionary { .. } => "BuildDictionary",
        Request::EvictDictionary { .. } => "EvictDictionary",
        Request::ListShards => "ListShards",
        Request::DiagnoseBatch { .. } => "DiagnoseBatch",
        Request::ExportShard { .. } => "ExportShard",
        Request::ImportShard { .. } => "ImportShard",
        Request::Statistics => "Statistics",
        Request::CacheMetrics => "CacheMetrics",
        Request::Metrics => "Metrics",
    }
}

struct RequestObs {
    requests: Counter,
    latency: Histogram,
}

/// Pre-registered per-variant handles, so the request hot path never
/// takes the registry lock: one table lookup, one counter add and one
/// histogram observation per request.
fn request_table() -> &'static BTreeMap<&'static str, RequestObs> {
    static TABLE: OnceLock<BTreeMap<&'static str, RequestObs>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let registry = twm_obs::global();
        [
            "RegisterDictionary",
            "BuildDictionary",
            "EvictDictionary",
            "ListShards",
            "DiagnoseBatch",
            "ExportShard",
            "ImportShard",
            "Statistics",
            "CacheMetrics",
            "Metrics",
        ]
        .into_iter()
        .map(|name| {
            (
                name,
                RequestObs {
                    requests: registry.counter("twm_fleet_requests_total", &[("request", name)]),
                    latency: registry.histogram(
                        "twm_fleet_request_latency_ns",
                        &[("request", name)],
                        &latency_bounds(),
                    ),
                },
            )
        })
        .collect()
    })
}

fn request_obs(variant: &'static str) -> &'static RequestObs {
    request_table()
        .get(variant)
        .expect("request_name only returns table keys")
}

/// Snapshots the per-variant latency histograms, skipping variants that
/// have never been observed. Wall-clock derived — feeds the
/// reporting-only `latency` field of [`FleetStatistics`].
fn request_latency_snapshots() -> BTreeMap<String, HistogramSnapshot> {
    request_table()
        .iter()
        .filter_map(|(&name, obs)| {
            let snapshot = obs.latency.snapshot();
            (snapshot.count > 0).then(|| (name.to_string(), snapshot))
        })
        .collect()
}

fn batch_devices_obs() -> &'static Counter {
    static DEVICES: OnceLock<Counter> = OnceLock::new();
    DEVICES.get_or_init(|| twm_obs::global().counter("twm_fleet_batch_devices_total", &[]))
}

/// Locks one of the service's structures, recovering the lock if a
/// request panicked while holding it, as [`crate::Dispatcher`] recovers
/// its slot count. The panic already failed its own request; refusing
/// every later request on the poisoned lock would fail them all. The
/// recovered data are whole: the store and the cache do their work that
/// can fail (a runtime build, a spill write) before they change a map,
/// and a statistics merge only adds counts.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The in-process fleet diagnosis service.
///
/// `handle` takes `&self` — the store, cache and statistics sit behind
/// their own locks — so one service instance can be shared across
/// transport threads (see [`crate::Dispatcher`]).
#[derive(Debug)]
pub struct FleetService {
    verify_repairs: bool,
    /// Batch fan-out: the calling thread plus `threads - 1` workers,
    /// spawned on the first batch that needs them.
    pool: WorkerPool,
    store: Mutex<DictionaryStore>,
    cache: Mutex<RuntimeCache>,
    stats: Mutex<FleetStatistics>,
    metrics_addr: Option<SocketAddr>,
}

impl FleetService {
    /// Creates a service with the given configuration.
    ///
    /// When [`FleetConfig::metrics_http`] is set, a
    /// [`twm_obs::MetricsServer`] over the process-wide registry is bound
    /// here and served from a detached background thread for the life of
    /// the process.
    ///
    /// # Errors
    ///
    /// [`FleetError::ZeroCapacity`] for a zero cache capacity,
    /// [`FleetError::Coverage`] when the strategy cannot resolve a worker
    /// count (`Parallel { threads: 0 }`), [`FleetError::Io`] when the
    /// metrics endpoint cannot bind its address.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        let pool = WorkerPool::new(config.strategy.worker_threads()? - 1);
        let store = match config.spill {
            Some(spill) => DictionaryStore::with_spill(spill),
            None => DictionaryStore::new(),
        };
        let metrics_addr = match config.metrics_http {
            Some(addr) => Some(Self::spawn_metrics_server(addr)?),
            None => None,
        };
        Ok(Self {
            verify_repairs: config.verify_repairs,
            pool,
            store: Mutex::new(store),
            cache: Mutex::new(RuntimeCache::new(config.cache_capacity, config.strategy)?),
            stats: Mutex::new(FleetStatistics::default()),
            metrics_addr,
        })
    }

    /// Binds the scrape endpoint and hands it to a detached serving
    /// thread. Failing to *bind* is a construction error; once bound,
    /// accept-loop errors only terminate the serving thread (diagnosis
    /// must not die with its observability).
    fn spawn_metrics_server(addr: SocketAddr) -> Result<SocketAddr, FleetError> {
        let server = MetricsServer::bind(addr)?;
        let bound = server.local_addr()?;
        std::thread::Builder::new()
            .name("twm-metrics-http".into())
            .spawn(move || {
                let _ = server.run_concurrent();
            })?;
        Ok(bound)
    }

    /// Creates a service with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`FleetService::new`].
    pub fn with_defaults() -> Result<Self, FleetError> {
        Self::new(FleetConfig::default())
    }

    /// The resolved batch fan-out width.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.pool.width()
    }

    /// The resolved address of the HTTP metrics endpoint, when
    /// [`FleetConfig::metrics_http`] requested one (useful with port 0).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Handles one request synchronously. Never panics on bad input —
    /// failures come back as [`Response::Error`].
    ///
    /// Every call counts into `twm_fleet_requests_total{request=...}`
    /// and observes its wall time into
    /// `twm_fleet_request_latency_ns{request=...}`; with the trace gate
    /// on it also runs under a `fleet.request` span. None of that
    /// influences the response.
    pub fn handle(&self, request: Request) -> Response {
        let variant = request_name(&request);
        let mut span = twm_obs::span("fleet.request");
        span.field("request", variant);
        let start = Instant::now();
        let response = match self.dispatch(request) {
            Ok(response) => response,
            Err(error) => Response::Error {
                message: error.to_string(),
            },
        };
        let obs = request_obs(variant);
        obs.requests.incr();
        obs.latency
            .observe(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        response
    }

    fn dispatch(&self, request: Request) -> Result<Response, FleetError> {
        match request {
            Request::RegisterDictionary { source, dictionary } => {
                self.register(source, Arc::new(dictionary))
            }
            Request::BuildDictionary {
                scheme,
                source,
                config,
                content,
                universe,
            } => self.build_dictionary(scheme, source, config, content, &universe),
            Request::EvictDictionary { shard } => {
                let existed = lock(&self.store).evict(shard);
                lock(&self.cache).invalidate(shard);
                Ok(Response::Evicted { shard, existed })
            }
            Request::ListShards => {
                let store = lock(&self.store);
                let shards = store
                    .keys()
                    .map(|shard| {
                        let entry = store.get(shard).expect("listed key is present");
                        let stats = entry.dictionary.stats();
                        ShardInfo {
                            shard,
                            test_name: entry.source.name().to_string(),
                            classes: stats.classes,
                            indexed: stats.indexed,
                        }
                    })
                    .collect();
                Ok(Response::Shards(shards))
            }
            Request::DiagnoseBatch { reports } => self.diagnose_batch(&reports),
            Request::ExportShard { shard } => {
                let bytes = lock(&self.store).export(shard)?;
                Ok(Response::Exported { shard, bytes })
            }
            Request::ImportShard { bytes } => {
                let shard = lock(&self.store).import(&bytes)?;
                self.registered(shard)
            }
            Request::Statistics => {
                let mut statistics = lock(&self.stats).clone();
                // Only the cumulative view carries latency: batch-level
                // statistics stay wall-clock-free so they remain
                // bit-identical serial vs. concurrent.
                statistics.latency = request_latency_snapshots();
                Ok(Response::Statistics(statistics))
            }
            Request::CacheMetrics => Ok(Response::CacheMetrics(lock(&self.cache).metrics())),
            Request::Metrics => {
                // One snapshot feeds both renderings: the text a human
                // scrapes and the structured report a client re-renders
                // must describe the same instant.
                let report = twm_obs::global().snapshot();
                let text = report.expose();
                Ok(Response::Metrics { text, report })
            }
        }
    }

    fn register(
        &self,
        source: MarchTest,
        dictionary: Arc<SignatureDictionary>,
    ) -> Result<Response, FleetError> {
        let shard = lock(&self.store).register(source, dictionary)?;
        self.registered(shard)
    }

    fn registered(&self, shard: ShardKey) -> Result<Response, FleetError> {
        let store = lock(&self.store);
        let entry = store.get(shard).ok_or(FleetError::UnknownShard(shard))?;
        let stats = entry.dictionary.stats();
        Ok(Response::Registered {
            shard,
            classes: stats.classes,
            indexed: stats.indexed,
        })
    }

    fn build_dictionary(
        &self,
        scheme: SchemeId,
        source: MarchTest,
        config: MemoryConfig,
        content: ContentPolicy,
        universe: &UniverseSpec,
    ) -> Result<Response, FleetError> {
        let registry = twm_core::scheme::SchemeRegistry::all(config.width())?;
        let scheme_impl = registry
            .get(scheme)
            .ok_or_else(|| FleetError::Wire(format!("scheme {scheme:?} is not registered")))?;
        let mut builder = UniverseBuilder::new(config);
        if universe.stuck_at {
            builder = builder.stuck_at();
        }
        if universe.transition {
            builder = builder.transition();
        }
        if universe.coupling_idempotent {
            builder = builder.coupling_idempotent();
        }
        let faults = builder.build();
        let engine = {
            let mut cache = lock(&self.cache);
            cache
                .base_engine(config, content, &source)?
                .with_scheme(scheme_impl, &source)?
        };
        let options = DictionaryOptions {
            multi_fault_samples: universe.multi_fault_samples,
            sample_seed: universe.sample_seed,
            ..DictionaryOptions::default()
        };
        let dictionary = SignatureDictionary::build(&engine, &faults, &options)?;
        self.register(source, Arc::new(dictionary))
    }

    fn diagnose_batch(&self, reports: &[DeviceReport]) -> Result<Response, FleetError> {
        // Resolve every distinct shard once, under the locks, before the
        // fan-out: a missing store entry is a per-device verdict, not an
        // error; a failed cold build poisons only its shard's devices.
        let shards: BTreeSet<ShardKey> = reports.iter().map(|report| report.shard).collect();
        batch_devices_obs().add(reports.len() as u64);
        let mut span = twm_obs::span("fleet.batch");
        span.field("devices", reports.len());
        span.field("shards", shards.len());
        span.field("workers", self.pool.width());
        let mut runtimes: BTreeMap<ShardKey, Result<Arc<ShardRuntime>, String>> = BTreeMap::new();
        {
            let mut store = lock(&self.store);
            let mut cache = lock(&self.cache);
            for &shard in &shards {
                let Some(entry) = store.get(shard) else {
                    continue;
                };
                let runtime = cache
                    .runtime(shard, entry)
                    .map_err(|error| error.to_string());
                runtimes.insert(shard, runtime);
            }
            // Cold shards fell out of the runtime LRU: demote their
            // dictionaries to spill files (no-op without a spill config).
            // The spilled shard keeps serving — its next lookups stream
            // from disk through the bounded page cache. A failed spill
            // leaves the shard resident and is counted, not fatal.
            for evicted in cache.take_evicted() {
                match store.spill(evicted) {
                    Ok(true) => cache_obs().spills.incr(),
                    Ok(false) => {}
                    Err(_) => cache_obs().spill_failures.incr(),
                }
            }
        }

        // The pool returns outcomes in submission order and each verdict is
        // a pure function of (runtime, report), so the result is
        // bit-identical to the serial loop.
        let verify = self.verify_repairs;
        let outcomes = self.pool.map(reports, |report| {
            let verdict = match runtimes.get(&report.shard) {
                None => DeviceVerdict::UnknownShard,
                Some(Err(message)) => DeviceVerdict::Failed {
                    message: message.clone(),
                },
                Some(Ok(runtime)) => diagnose_device(runtime, report, verify),
            };
            DeviceOutcome {
                device: report.device.clone(),
                verdict,
            }
        });

        // Fold statistics serially, in submission order.
        let mut statistics = FleetStatistics::default();
        for outcome in &outcomes {
            record(&mut statistics, &outcome.verdict);
        }
        lock(&self.stats).merge(&statistics);
        Ok(Response::Batch(BatchReport {
            outcomes,
            statistics,
        }))
    }
}

/// Diagnoses one device from its trail: dictionary lookup, spare
/// allocation and (optionally) simulated repair verification.
fn diagnose_device(runtime: &ShardRuntime, report: &DeviceReport, verify: bool) -> DeviceVerdict {
    diagnose_trail(&runtime.dictionary, &runtime.local, report, verify)
}

/// [`diagnose_device`] against any dictionary backend: one lookup per
/// device. The matched class is localised
/// ([`twm_repair::localise_class`]), and a plan that fully repairs it is
/// re-verified by simulation on the class's representative injection, in
/// a memory with the device's spare budget and the plan's remap table
/// programmed. The session is fault-local
/// ([`twm_repair::FaultLocalSession::verify`], prepared once per runtime):
/// only the injection's footprint and the remapped words are swept. Its
/// naive reference is [`twm_repair::verify_repair`] on the same repaired
/// memory.
fn diagnose_trail<D: TrailLookup + ?Sized>(
    dictionary: &D,
    local: &FaultLocalSession,
    report: &DeviceReport,
    verify: bool,
) -> DeviceVerdict {
    if report.trail == *dictionary.reference_trail() {
        return DeviceVerdict::Clean;
    }
    let class = match dictionary.find(&report.trail) {
        Ok(Some(class)) => class,
        Ok(None) => return DeviceVerdict::UnknownTrail,
        Err(error) => {
            return DeviceVerdict::Failed {
                message: error.to_string(),
            }
        }
    };
    let diagnosis = localise_class(&class);
    let plan = RepairAllocator::default().allocate(&diagnosis.defects, report.spares);
    let predicted_clean = if verify && plan.fully_repairs() && report.spares > 0 {
        // Fresh spares are numbered 0.. like the allocator's slots, so the
        // plan applies without translation.
        match local.verify(&class.injections[0], report.spares, &plan) {
            Ok(clean) => clean,
            Err(error) => {
                return DeviceVerdict::Failed {
                    message: FleetError::from(error).to_string(),
                }
            }
        }
    } else {
        false
    };
    DeviceVerdict::Diagnosed(Diagnosis {
        defects: diagnosis.defects,
        ambiguity: diagnosis.ambiguity,
        plan,
        predicted_clean,
    })
}

/// Folds one verdict into a statistics block.
fn record(stats: &mut FleetStatistics, verdict: &DeviceVerdict) {
    stats.devices += 1;
    match verdict {
        DeviceVerdict::Clean => stats.clean += 1,
        DeviceVerdict::UnknownShard => stats.unknown_shard += 1,
        DeviceVerdict::UnknownTrail => stats.unknown_trail += 1,
        DeviceVerdict::Failed { .. } => {}
        DeviceVerdict::Diagnosed(diagnosis) => {
            stats.diagnosed += 1;
            if diagnosis.plan.fully_repairs() {
                stats.fully_repaired += 1;
            }
            if diagnosis.predicted_clean {
                stats.verified_clean += 1;
            }
            for defect in &diagnosis.defects {
                if let Some(class) = defect.hypothesis {
                    *stats.fault_classes.entry(class).or_default() += 1;
                }
            }
            *stats
                .ambiguity
                .entry(diagnosis.ambiguity as u64)
                .or_default() += 1;
            let words: BTreeSet<usize> = diagnosis
                .defects
                .iter()
                .map(|defect| defect.cell.word)
                .collect();
            *stats.spares_needed.entry(words.len() as u64).or_default() += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twm_core::scheme::SchemeRegistry;
    use twm_coverage::CoverageEngine;
    use twm_march::algorithms::march_c_minus;
    use twm_mem::Word;

    /// A dictionary that counts its lookups.
    #[derive(Debug)]
    struct Counting {
        inner: SignatureDictionary,
        finds: std::sync::atomic::AtomicUsize,
    }

    impl TrailLookup for Counting {
        fn scheme(&self) -> SchemeId {
            self.inner.scheme()
        }
        fn test_name(&self) -> &str {
            TrailLookup::test_name(&self.inner)
        }
        fn config(&self) -> MemoryConfig {
            TrailLookup::config(&self.inner)
        }
        fn content(&self) -> ContentPolicy {
            TrailLookup::content(&self.inner)
        }
        fn misr_template(&self) -> &twm_bist::Misr {
            self.inner.misr_template()
        }
        fn reference_trail(&self) -> &SignatureTrail {
            self.inner.reference_trail()
        }
        fn find(
            &self,
            trail: &SignatureTrail,
        ) -> Result<Option<twm_repair::AmbiguityClass>, twm_repair::RepairError> {
            self.finds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.find(trail)
        }
        fn ambiguity_stats(&self) -> twm_repair::AmbiguityStats {
            self.inner.ambiguity_stats()
        }
    }

    #[test]
    fn a_diagnosed_device_looks_its_trail_up_once() {
        let config = MemoryConfig::new(4, 4).unwrap();
        let registry = SchemeRegistry::all(4).unwrap();
        let engine = CoverageEngine::for_scheme(
            registry.get(SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .strategy(Strategy::Serial)
        .build()
        .unwrap();
        let universe = UniverseBuilder::new(config).stuck_at().transition().build();
        let inner =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        let local = FaultLocalSession::new(
            engine.scheme_transform().unwrap(),
            config,
            ContentPolicy::Zeros,
            inner.misr().clone(),
        )
        .unwrap();
        let dictionary = Counting {
            inner,
            finds: Default::default(),
        };
        let finds = || {
            dictionary
                .finds
                .swap(0, std::sync::atomic::Ordering::Relaxed)
        };
        let report = |trail: &SignatureTrail| DeviceReport {
            device: "d".into(),
            shard: ShardKey::new(config, SchemeId::TwmTa, &march_c_minus()),
            trail: trail.clone(),
            spares: 1,
        };

        let mut verified = 0;
        for class in dictionary.inner.classes() {
            let verdict = diagnose_trail(&dictionary, &local, &report(&class.trail), true);
            let DeviceVerdict::Diagnosed(diagnosis) = verdict else {
                panic!("an indexed trail is diagnosed, got {verdict:?}");
            };
            assert_eq!(finds(), 1, "one lookup per diagnosed device");
            verified += usize::from(diagnosis.predicted_clean);
        }
        assert!(verified > 0, "some plan verifies clean");

        let clean = diagnose_trail(
            &dictionary,
            &local,
            &report(dictionary.reference_trail()),
            true,
        );
        assert_eq!(clean, DeviceVerdict::Clean);
        assert_eq!(finds(), 0);
        let length = dictionary.reference_trail().len();
        let absent = SignatureTrail::new(vec![Word::ones(4); length]);
        let unknown = diagnose_trail(&dictionary, &local, &report(&absent), true);
        assert_eq!(unknown, DeviceVerdict::UnknownTrail);
        assert_eq!(finds(), 1);
    }

    /// Panics while holding `mutex`, as a failing request would.
    fn poison<T>(mutex: &Mutex<T>) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = mutex.lock();
            panic!("a request panics while it holds the lock");
        }));
    }

    #[test]
    fn a_request_that_panics_under_a_lock_fails_no_later_request() {
        let config = MemoryConfig::new(4, 4).unwrap();
        let registry = SchemeRegistry::all(4).unwrap();
        let engine = CoverageEngine::for_scheme(
            registry.get(SchemeId::TwmTa).unwrap(),
            &march_c_minus(),
            config,
        )
        .unwrap()
        .strategy(Strategy::Serial)
        .build()
        .unwrap();
        let universe = UniverseBuilder::new(config).stuck_at().build();
        let dictionary =
            SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();
        let faulty = dictionary.classes()[0].trail.clone();
        let clean = dictionary.reference_trail().clone();
        let service = FleetService::new(FleetConfig {
            strategy: Strategy::Serial,
            ..FleetConfig::default()
        })
        .unwrap();
        let registered = service.handle(Request::RegisterDictionary {
            source: march_c_minus(),
            dictionary,
        });
        assert!(matches!(registered, Response::Registered { .. }));

        poison(&service.store);
        poison(&service.cache);
        poison(&service.stats);
        assert!(service.store.is_poisoned() && service.cache.is_poisoned());
        assert!(service.stats.is_poisoned());

        let Response::Shards(shards) = service.handle(Request::ListShards) else {
            panic!("listing shards must still answer");
        };
        assert_eq!(shards.len(), 1);
        let shard = shards[0].shard;
        let device = |trail: &SignatureTrail| DeviceReport {
            device: "d".into(),
            shard,
            trail: trail.clone(),
            spares: 1,
        };
        let Response::Batch(batch) = service.handle(Request::DiagnoseBatch {
            reports: vec![device(&clean), device(&faulty)],
        }) else {
            panic!("diagnosis must still answer");
        };
        assert_eq!(batch.outcomes[0].verdict, DeviceVerdict::Clean);
        assert!(matches!(
            batch.outcomes[1].verdict,
            DeviceVerdict::Diagnosed(_)
        ));
        assert!(matches!(
            service.handle(Request::Statistics),
            Response::Statistics(_)
        ));
    }
}
