//! # twm — transparent word-oriented march tests for embedded memories
//!
//! Facade crate re-exporting the whole TWM workspace, a reproduction of
//! *"An Efficient Transparent Test Scheme for Embedded Word-Oriented
//! Memories"* (Li, Tseng, Wey — DATE 2005).
//!
//! The workspace is organised in focused crates, all re-exported here:
//!
//! * [`mem`] — word-oriented memory functional simulator with fault
//!   injection (SAF, TF, CFst, CFid, CFin).
//! * [`march`] — march-test framework: operations, elements, notation,
//!   standard algorithms (March C−, March U, …) and data backgrounds.
//! * [`core`] — the paper's contribution behind **one transformation
//!   surface**: the [`TransparentScheme`](core::TransparentScheme) trait
//!   and the [`SchemeRegistry`](core::SchemeRegistry), with the paper's
//!   TWM_TA next to the baseline schemes it is compared against
//!   (Nicolaidis, Scheme 1, TOMT), plus the registry-driven complexity
//!   model behind the paper's tables.
//! * [`bist`] — transparent BIST engine: march executor, MISR signature
//!   analyzer, the scheme-generic
//!   [`run_scheme_session`](bist::run_scheme_session) flow and periodic
//!   idle-window controller.
//! * [`coverage`] — fault-universe enumeration and the
//!   [`CoverageEngine`](coverage::CoverageEngine): one reusable, streaming
//!   evaluation surface for coverage reports, per-fault verdict streams and
//!   test-vs-test comparisons — including
//!   [`CoverageEngine::for_scheme`](coverage::CoverageEngine::for_scheme)
//!   and the one-call [`scheme_matrix`](coverage::scheme_matrix) comparison
//!   grid over every registered scheme. Every single-fault verdict, of
//!   every fault class, is looked up in a per-engine verdict table instead
//!   of running the march, bit-identical to the naive simulator.
//! * [`search`] — march-test generation & minimisation: a deterministic,
//!   seeded, parallel search over [`MarchTest`](march::MarchTest)
//!   candidates (greedy drop-one-op minimisation,
//!   [`beam_search`](search::beam_search), seeded
//!   [`anneal`](search::anneal())ing) scored by coverage over a fault
//!   universe **and** the registry-driven transparent session cost, with a
//!   (coverage, cost) Pareto front and a full provenance log.
//! * [`repair`] — the diagnosis-to-repair loop **detect → localise →
//!   allocate spares → verify**:
//!   [`SignatureDictionary`](repair::SignatureDictionary) (fault → MISR
//!   signature trail, inverted into ambiguity classes, built in parallel
//!   and bit-identical for any thread count),
//!   [`DiagnosticSession`](repair::DiagnosticSession) (registry-driven
//!   follow-up sessions + targeted fault-local probes fused into ranked
//!   [`LocatedDefect`](repair::LocatedDefect)s),
//!   [`RepairAllocator`](repair::RepairAllocator) over
//!   [`RepairableMemory`](mem::RepairableMemory) spare words, and
//!   [`verify_repair`](repair::verify_repair) proving the signature comes
//!   back clean on the remapped memory.
//! * [`store`] — paged, disk-backed signature dictionaries: a
//!   checksummed fixed-size-page file format with prefix-compressed
//!   sorted index pages, a bounded-LRU [`Pager`](store::Pager), and
//!   [`PagedDictionary`](store::PagedDictionary) — the out-of-core
//!   sibling of [`SignatureDictionary`](repair::SignatureDictionary),
//!   answering the same [`TrailLookup`](repair::TrailLookup) queries
//!   bit-identically from disk (property-tested in
//!   `crates/store/tests/paged_equivalence.rs`).
//! * [`fleet`] — the fleet-scale diagnosis service: signature
//!   dictionaries sharded by `(memory shape, scheme, test fingerprint)`
//!   in a [`DictionaryStore`](fleet::DictionaryStore) with wire-format
//!   persistence, an LRU [`RuntimeCache`](fleet::RuntimeCache) of
//!   per-shard probe transforms and repair-verification sessions, and the
//!   transport-agnostic
//!   [`FleetService`](fleet::FleetService) whose
//!   [`DiagnoseBatch`](fleet::Request::DiagnoseBatch) fans device trail
//!   reports across worker threads — bit-identical to serial — and folds
//!   them into [`FleetStatistics`](fleet::FleetStatistics) (failure rates
//!   per fault class, ambiguity histograms, repair-rate-vs-spares
//!   curves).
//! * [`obs`] — std-only observability for all of the above: a
//!   process-wide [`Registry`](obs::Registry) of atomic counters, gauges
//!   and fixed-bucket histograms with Prometheus-style
//!   [text exposition](obs::MetricsReport::expose), plus hierarchical
//!   [`span`](obs::span)s/[`event`](obs::event)s behind a static gate
//!   (disabled tracing costs one relaxed atomic load). Instrumentation
//!   never changes results — coverage reports, batch diagnoses and paged
//!   lookups are bit-identical with observability on or off
//!   (property-tested in `tests/obs_non_interference.rs`) — and a live
//!   fleet server is scrapeable over TCP via
//!   [`Request::Metrics`](fleet::Request::Metrics) or pulled straight
//!   over HTTP from the std-only [`MetricsServer`](obs::MetricsServer)
//!   (`GET /metrics` + `/healthz`, wired in with
//!   [`FleetConfig::metrics_http`](fleet::FleetConfig)). Tracing can
//!   also feed the [`ProfilerSink`](obs::ProfilerSink), aggregating
//!   per-span self-time, and histograms summarise to p50/p90/p99
//!   [`QuantileSummary`](obs::QuantileSummary)s.
//!
//! ## Quickstart
//!
//! Every transformation goes through the scheme registry:
//!
//! ```
//! use twm::core::{complexity, SchemeId, SchemeRegistry};
//! use twm::march::algorithms::march_c_minus;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // All schemes for 32-bit words, one surface.
//! let registry = SchemeRegistry::all(32)?;
//!
//! // Transform bit-oriented March C− with the paper's TWM_TA.
//! let bmarch = march_c_minus();
//! let transformed = registry.transform(SchemeId::TwmTa, &bmarch)?;
//!
//! // Operations per word of the transparent test: the paper's
//! // TCM = M + 5·log2(W) = 10 + 25 = 35.
//! assert_eq!(transformed.transparent_test().operations_per_word(), 35);
//!
//! // The paper's headline comparison: ≈56% of Scheme 1 and ≈19% of
//! // Scheme 2 (TOMT) for March C− on 32-bit words, straight from the
//! // registry entries.
//! let headline = complexity::headline(&registry, &bmarch)?;
//! assert!((headline.ratio_vs_scheme1 - 0.56).abs() < 0.01);
//! assert!((headline.ratio_vs_scheme2 - 0.19).abs() < 0.01);
//! # Ok(())
//! # }
//! ```
//!
//! ## Measuring fault coverage
//!
//! Simulation experiments go through one reusable
//! [`CoverageEngine`](coverage::CoverageEngine) per scheme — or through
//! [`scheme_matrix`](coverage::scheme_matrix), which compares every
//! registered scheme over a shared fault universe in one call:
//!
//! ```
//! use twm::coverage::{scheme_matrix, MatrixOptions, UniverseBuilder};
//! use twm::core::{SchemeId, SchemeRegistry};
//! use twm::march::algorithms::march_c_minus;
//! use twm::mem::MemoryConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(16, 4)?;
//! let registry = SchemeRegistry::comparison(4)?;
//! let faults = UniverseBuilder::new(config).stuck_at().transition().build();
//! let matrix = scheme_matrix(
//!     &registry,
//!     &march_c_minus(),
//!     config,
//!     &faults,
//!     MatrixOptions::default(),
//! )?;
//! // Every scheme detects all stuck-at and transition faults ...
//! for row in &matrix.rows {
//!     assert_eq!(row.coverage.total_coverage(), 1.0);
//!     assert!(row.content_preserved);
//! }
//! // ... and the paper's scheme is the cheapest per word.
//! let proposed = matrix.row(SchemeId::TwmTa).unwrap();
//! let scheme1 = matrix.row(SchemeId::Scheme1).unwrap();
//! assert!(proposed.exact().total() < scheme1.exact().total());
//! # Ok(())
//! # }
//! ```
//!
//! Under the hood a report runs no march at all. A stuck-at or transition
//! fault changes only its own cell, and a coupling fault only its victim
//! cell as a function of its aggressor cell; every march op's data is
//! per-bit and the same at every address. So a fault's verdict follows
//! from a table the engine builds on first use: bit masks from one-word
//! runs of the test with the fault on every bit, and, for coupling
//! faults, from one- and two-word runs that simulate a victim on every
//! bit at once (~30× faster than simulating each fault over its own
//! words for SAF/TF faults on 64K-word memories, ~40× for coupling
//! faults). Reports, verdict streams and comparisons all read the table;
//! only multi-fault injections and signature-aliasing sessions simulate.
//! Every verdict is bit-identical to the naive reference
//! [`coverage::fault_detected`] (property-tested in
//! `crates/coverage/tests/reference_equivalence.rs`). The release-mode
//! test `tests/measurement_floors.rs` holds the table-resolved report to
//! at least 5× a fault-local sweep per fault for both and its cost flat
//! as the test grows, and `perfbench/` (the repository benchmark)
//! measures coverage-sweep throughput end to end.
//!
//! ## Searching for better march tests
//!
//! The coverage kernel is fast enough to sit in a search inner loop:
//! [`search`] minimises (or generates) bit-oriented march tests, scoring
//! every candidate on fault coverage **and** the transparent session cost
//! the registered schemes would pay:
//!
//! ```
//! use twm::core::SchemeRegistry;
//! use twm::coverage::UniverseBuilder;
//! use twm::march::algorithms::march_c_minus;
//! use twm::mem::MemoryConfig;
//! use twm::search::{minimise_greedy, GreedyOptions, Objective, ObjectiveOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(8, 4)?;
//! let universe = UniverseBuilder::new(config).stuck_at().transition().build();
//! let objective = Objective::new(
//!     config,
//!     universe,
//!     Some(SchemeRegistry::comparison(4)?),
//!     ObjectiveOptions::default(),
//! )?;
//! let outcome = minimise_greedy(&objective, &march_c_minus(), &GreedyOptions::default())?;
//! assert!(outcome.best.score.test_ops < 10); // shorter than March C-
//! assert!(outcome.best.score.full_coverage()); // still 100% SAF+TF
//! # Ok(())
//! # }
//! ```
//!
//! `examples/test_minimisation.rs` runs the full W = 32 experiment.
//!
//! ## From a failing signature to a verified repair
//!
//! Periodic field test is only useful if a failure leads to action.
//! [`repair`] closes the loop: build a
//! [`SignatureDictionary`](repair::SignatureDictionary) once per
//! deployment, and when a session fails, localise, assign a spare word and
//! prove the signature clean again:
//!
//! ```
//! use twm::core::{SchemeId, SchemeRegistry};
//! use twm::coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
//! use twm::march::algorithms::march_c_minus;
//! use twm::mem::{BitAddress, Fault, FaultyMemory, MemoryConfig, RepairableMemory};
//! use twm::repair::{
//!     diagnose_and_repair, DiagnosticSession, DictionaryOptions, RepairAllocator,
//!     SignatureDictionary,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(8, 4)?;
//! let registry = SchemeRegistry::comparison(4)?;
//! let engine = CoverageEngine::for_scheme(
//!     registry.get(SchemeId::TwmTa).unwrap(),
//!     &march_c_minus(),
//!     config,
//! )?
//! .content(ContentPolicy::Random { seed: 7 })
//! .build()?;
//! let universe = UniverseBuilder::new(config).stuck_at().transition().build();
//! let dictionary =
//!     SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default())?;
//!
//! // A cell sticks at 1 in the field; the memory has two spare words.
//! let mut memory =
//!     FaultyMemory::with_faults(config, vec![Fault::stuck_at(BitAddress::new(3, 1), true)])?;
//! memory.fill_random(7);
//! let session = DiagnosticSession::new(&registry, &march_c_minus())?
//!     .with_dictionary(&dictionary)?;
//! let flow = diagnose_and_repair(
//!     &session,
//!     &RepairAllocator::default(),
//!     RepairableMemory::new(memory, 2)?,
//! )?;
//! assert_eq!(flow.localisation.defects[0].cell, BitAddress::new(3, 1));
//! assert!(flow.plan.fully_repairs());
//! assert!(flow.verification.clean());   // the periodic test passes again
//! # Ok(())
//! # }
//! ```
//!
//! `examples/diagnose_and_repair.rs` runs the full 8×32 flow (with
//! per-scheme diagnosability statistics).
//!
//! ## Serving a whole fleet
//!
//! One device diagnosing itself is the paper's flow; a deployment has
//! thousands reporting **trails only** to a maintenance service. [`fleet`]
//! is that service core — dictionaries per deployment triple, batched
//! trail diagnosis, repair plans verified by simulation, and fleet-level
//! statistics — transport-agnostic (a length-prefixed blocking TCP
//! front, [`TcpFront`](fleet::TcpFront)/[`FleetClient`](fleet::FleetClient),
//! is one thin wrapper away) and deterministic:
//!
//! ```
//! use twm::core::SchemeId;
//! use twm::coverage::ContentPolicy;
//! use twm::fleet::{DeviceReport, FleetService, Request, Response, ShardKey, UniverseSpec};
//! use twm::march::algorithms::march_c_minus;
//! use twm::mem::MemoryConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = FleetService::with_defaults()?;
//! let config = MemoryConfig::new(8, 4)?;
//!
//! // Build + register the shard's dictionary server-side.
//! let Response::Registered { shard, .. } = service.handle(Request::BuildDictionary {
//!     scheme: SchemeId::TwmTa,
//!     source: march_c_minus(),
//!     config,
//!     content: ContentPolicy::Random { seed: 9 },
//!     universe: UniverseSpec::default(),
//! }) else {
//!     panic!("registration failed");
//! };
//!
//! // Devices report their MISR trails; the batch comes back diagnosed,
//! // in submission order, with repair plans and batch statistics.
//! let reports: Vec<DeviceReport> = Vec::new(); // filled from the field
//! let Response::Batch(batch) = service.handle(Request::DiagnoseBatch { reports }) else {
//!     panic!("batch failed");
//! };
//! assert_eq!(batch.statistics.devices, 0);
//! # let _ = shard;
//! # Ok(())
//! # }
//! ```
//!
//! `examples/fleet_diagnosis.rs` runs a 100-device, two-shard fleet end to
//! end; `perfbench/` measures the device path over TCP, and
//! `tests/measurement_floors.rs` holds a warm runtime cache to at least
//! 5× a cold build per device.
//!
//! ## Dictionaries bigger than RAM
//!
//! At production memory sizes a signature dictionary no longer fits in
//! memory. [`store`] writes it once to a checksummed paged file and
//! serves the **same** [`TrailLookup`](repair::TrailLookup) queries
//! through a bounded page cache — so
//! [`localise_trail`](repair::localise_trail) neither knows nor cares
//! whether the dictionary lives in RAM or on disk:
//!
//! ```
//! use twm::core::{SchemeId, SchemeRegistry};
//! use twm::coverage::{ContentPolicy, CoverageEngine, UniverseBuilder};
//! use twm::march::algorithms::march_c_minus;
//! use twm::mem::MemoryConfig;
//! use twm::repair::{localise_trail, DictionaryOptions, TrailLookup};
//! use twm::store::{PagedDictionary, StoreOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = MemoryConfig::new(8, 4)?;
//! let registry = SchemeRegistry::all(4)?;
//! let engine = CoverageEngine::for_scheme(
//!     registry.get(SchemeId::TwmTa).unwrap(),
//!     &march_c_minus(),
//!     config,
//! )?
//! .content(ContentPolicy::Random { seed: 5 })
//! .build()?;
//! let universe = UniverseBuilder::new(config).stuck_at().transition().build();
//!
//! // Stream the build straight to disk — the full dictionary is never
//! // resident — then diagnose from the file through the page cache.
//! let path = std::env::temp_dir().join("twm-facade-quickstart.twmstore");
//! let paged = PagedDictionary::build_to_disk(
//!     &engine,
//!     &universe,
//!     &DictionaryOptions::default(),
//!     &path,
//!     &StoreOptions::default(),
//! )?;
//! let diagnosis = localise_trail(&paged, paged.reference_trail())?;
//! assert!(diagnosis.clean);
//! assert!(paged.cache_metrics().hit_rate() > 0.0);
//! # std::fs::remove_file(&path)?;
//! # Ok(())
//! # }
//! ```
//!
//! `examples/out_of_core_dictionary.rs` builds a dictionary several times
//! the page-cache budget and proves disk-served lookups bit-identical to
//! the in-RAM build; `perfbench/`'s `fleet_churn` workload measures spills
//! and paged lookups.
//!
//! ## Watching it run
//!
//! Every subsystem above is instrumented through [`obs`]: the coverage
//! engine counts table-resolved faults and chunks, chunk claims and idle
//! arenas, the fleet service records per-request latency histograms and cache
//! hits/misses/evictions/spills, the pager counts page reads and
//! checksum failures, and the TCP front keeps a per-frame access log.
//! Metrics are always on (lock-free atomics); tracing is off until you
//! flip the gate:
//!
//! ```
//! use std::sync::Arc;
//! use twm::fleet::{FleetService, Request, Response};
//! use twm::obs::{trace, RingSink};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Route completed spans/events to a bounded ring and open the gate.
//! let ring = Arc::new(RingSink::new(256));
//! trace::set_sink(ring.clone());
//! trace::set_enabled(true);
//!
//! let service = FleetService::with_defaults()?;
//! let Response::Batch(batch) = service.handle(Request::DiagnoseBatch { reports: Vec::new() })
//! else {
//!     panic!("batch failed");
//! };
//! assert_eq!(batch.statistics.devices, 0);
//!
//! trace::set_enabled(false);
//! // The request produced spans ("fleet.request" wrapping "fleet.batch") ...
//! assert!(ring.take().len() >= 2);
//!
//! // ... and bumped the always-on metrics registry, scrapeable in
//! // process or over TCP via `Request::Metrics`.
//! let Response::Metrics { text, report } = service.handle(Request::Metrics) else {
//!     panic!("metrics failed");
//! };
//! assert_eq!(report.expose(), text);
//! assert!(text.contains("twm_fleet_requests_total"));
//! # Ok(())
//! # }
//! ```
//!
//! The same snapshot ships through any `FleetClient` — scraping a live
//! server returns the identical exposition a sidecar would render from
//! the serde [`MetricsReport`](obs::MetricsReport) — and with
//! [`FleetConfig::metrics_http`](fleet::FleetConfig) set, any HTTP
//! client (Prometheus, `curl`, a raw `TcpStream`) can pull the same
//! bytes from `GET /metrics`; the scrape is byte-identical to the
//! `Request::Metrics` exposition of the same registry state, and
//! `GET /healthz` answers liveness JSON. For *where the time goes*,
//! swap the ring for a [`ProfilerSink`](obs::ProfilerSink) — it
//! aggregates per-span-name call counts and self-time (elapsed minus
//! child spans) — and summarise any latency histogram with
//! [`HistogramSnapshot::quantile`](obs::HistogramSnapshot::quantile) or
//! the p50/p90/p99 carried in
//! [`FleetStatistics::latency_quantiles`](fleet::FleetStatistics::latency_quantiles).
//! `examples/observability.rs` runs an instrumented fleet end to end —
//! live HTTP scrape, profiler, quantiles — and `tests/measurement_floors.rs`
//! holds the cost of tracing into the profiler at most 5% on the 64K-word
//! table-resolved coverage report.

#![warn(missing_docs)]

pub use twm_bist as bist;
pub use twm_core as core;
pub use twm_coverage as coverage;
pub use twm_fleet as fleet;
pub use twm_march as march;
pub use twm_mem as mem;
pub use twm_obs as obs;
pub use twm_repair as repair;
pub use twm_search as search;
pub use twm_store as store;
