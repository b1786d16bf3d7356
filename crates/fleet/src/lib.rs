//! # twm-fleet — fleet-scale diagnosis service
//!
//! The paper's transparent BIST runs *on* a device; a deployed fleet of
//! them needs somewhere to send the results. This crate is that other
//! end: an in-process, transport-agnostic service that owns the
//! signature dictionaries for every deployment triple and turns batched
//! device trail reports into ranked defects, repair plans and fleet
//! statistics — without ever touching the devices' memories.
//!
//! * [`shard`] — [`ShardKey`]: dictionaries and cached runtimes are
//!   partitioned by `(MemoryConfig, SchemeId, test fingerprint)`, the
//!   triple a trail must match for a lookup to mean anything.
//! * [`store`] — [`DictionaryStore`]: registered dictionaries behind
//!   [`DictionaryHandle`]s (resident, or **spilled** to a paged
//!   [`twm_store::PagedDictionary`] file that keeps serving lookups from
//!   disk under a bounded page cache), with streaming wire-format
//!   export/import for persistence.
//! * [`cache`] — [`RuntimeCache`]: an LRU bound over per-shard
//!   [`ShardRuntime`]s (the dictionary handle, the dictionary-scheme
//!   probe transform, its prepared repair-verification session and the
//!   MISR template), rebuilt on miss from that one transform; plus the
//!   per-shape base engines server-side dictionary builds derive from
//!   through the cheap [`twm_coverage::CoverageEngine::with_scheme`]
//!   sibling path.
//! * [`service`] — [`FleetService::handle`]: the synchronous
//!   [`Request`] → [`Response`] core. [`Request::DiagnoseBatch`] maps
//!   devices over the service's [`twm_coverage::WorkerPool`] and returns
//!   outcomes in submission order, **bit-identical to the serial path**
//!   for any thread count.
//! * [`dispatch`] — [`Dispatcher`]: an admission limiter that runs each
//!   request on its caller's thread, at most a fixed number at a time.
//!   With [`FleetConfig::metrics_http`] set, the service also serves a
//!   pull-based `GET /metrics` + `GET /healthz` HTTP endpoint (a
//!   [`twm_obs::MetricsServer`] over the process-wide registry) from a
//!   background thread — the scrape bytes equal the
//!   [`Request::Metrics`] exposition of the same snapshot.
//! * [`stats`] — [`FleetStatistics`]: additive (order-independent)
//!   aggregates — failure rates per fault class, ambiguity histograms,
//!   repair-rate-vs-spares curves; [`CacheMetrics`] kept separate
//!   because hit rates depend on arrival order.
//! * [`wire`] — a compact self-describing binary encoding of the serde
//!   data model (layout owned by [`twm_store::wire`]); every request,
//!   response and persisted dictionary round-trips through
//!   [`wire::to_bytes`] / [`wire::from_bytes`], or streams over
//!   [`std::io::Read`]/[`std::io::Write`] with [`wire::write_to`] /
//!   [`wire::read_from`].
//! * [`tcp`] — [`TcpFront`]/[`FleetClient`]: a length-prefixed blocking
//!   TCP framing of the same request/response pairs.
//!
//! ## A minimal deployment
//!
//! ```
//! use twm_core::scheme::SchemeId;
//! use twm_coverage::ContentPolicy;
//! use twm_fleet::{
//!     DeviceReport, FleetService, Request, Response, ShardKey, UniverseSpec,
//! };
//! use twm_march::algorithms::march_c_minus;
//! use twm_mem::MemoryConfig;
//! use twm_repair::SignatureTrail;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let service = FleetService::with_defaults()?;
//! let config = MemoryConfig::new(8, 4)?;
//!
//! // Build and register the shard's dictionary server-side.
//! let registered = service.handle(Request::BuildDictionary {
//!     scheme: SchemeId::TwmTa,
//!     source: march_c_minus(),
//!     config,
//!     content: ContentPolicy::Random { seed: 9 },
//!     universe: UniverseSpec::default(),
//! });
//! let Response::Registered { shard, .. } = registered else {
//!     panic!("registration failed: {registered:?}");
//! };
//!
//! // A healthy device reports the fault-free trail.
//! let Response::Shards(shards) = service.handle(Request::ListShards) else {
//!     unreachable!()
//! };
//! assert_eq!(shards[0].shard, shard);
//! # Ok(())
//! # }
//! ```
//!
//! (See `examples/fleet_diagnosis.rs` for the full loop: injected
//! faults, batched diagnosis and verified repair plans.)

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod dispatch;
mod error;
pub mod service;
pub mod shard;
pub mod stats;
pub mod store;
pub mod tcp;
pub mod wire;

pub use cache::{RuntimeCache, ShardRuntime};
pub use dispatch::{Dispatcher, Ticket};
pub use error::FleetError;
pub use service::{
    BatchReport, DeviceOutcome, DeviceReport, DeviceVerdict, Diagnosis, FleetConfig, FleetService,
    Request, Response, ShardInfo, UniverseSpec,
};
pub use shard::{ShardKey, TestFingerprint};
pub use stats::{CacheMetrics, FleetStatistics};
pub use store::{DictionaryHandle, DictionaryStore, PersistedShard, ShardEntry, SpillConfig};
pub use tcp::{FleetClient, TcpFront};

// Re-exported so service callers can build reports, decode dictionaries
// and size spill files without depending on twm-repair/twm-store directly.
pub use twm_repair::{SignatureDictionary, SignatureTrail};
pub use twm_store::{PagedDictionary, StoreOptions};
