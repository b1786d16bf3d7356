//! The LRU-bounded runtime cache: per-shard diagnosis state, rebuilt on
//! miss and shared across worker threads.
//!
//! A shard's runtime is everything batched diagnosis needs beyond the
//! dictionary itself: the dictionary-scheme transform of the source test
//! (the one repair verification re-runs), prepared once as a
//! [`twm_repair::FaultLocalSession`] under the dictionary's content, and
//! the MISR template. A cold build transforms the source under that one
//! scheme only and derives the fault-free session in closed form
//! ([`twm_bist::SessionReference`]): transform and session together take
//! ~0.05 ms for a 1K×32 TWM_TA × March C− shard, where simulating the
//! session word by word took ~0.57 ms (2-vCPU Xeon).
//!
//! The cache also memoises one **base** [`CoverageEngine`] per
//! `(config, content)` pair (kept for the life of the cache — there are
//! few distinct shapes in a deployment), from which server-side
//! dictionary builds derive their engines through the cheap
//! [`CoverageEngine::with_scheme`] sibling path, cloning `Arc`s instead
//! of regenerating contents.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

use twm_bist::Misr;
use twm_core::scheme::SchemeTransform;
use twm_coverage::{ContentPolicy, CoverageEngine, Strategy};
use twm_march::MarchTest;
use twm_mem::MemoryConfig;
use twm_obs::Counter;
use twm_repair::{FaultLocalSession, TrailLookup};

use crate::shard::ShardKey;
use crate::stats::CacheMetrics;
use crate::store::{DictionaryHandle, ShardEntry};
use crate::FleetError;

/// Process-wide runtime-cache counters in the [`twm_obs::global`]
/// registry — the scrapeable mirror of every cache instance's
/// [`CacheMetrics`] snapshot, plus the spill counters the service bumps
/// when a demoted shard goes to disk, or fails to and stays resident.
pub(crate) struct CacheObs {
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) evictions: Counter,
    pub(crate) spills: Counter,
    pub(crate) spill_failures: Counter,
}

pub(crate) fn cache_obs() -> &'static CacheObs {
    static OBS: OnceLock<CacheObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let registry = twm_obs::global();
        CacheObs {
            hits: registry.counter("twm_fleet_cache_hits_total", &[]),
            misses: registry.counter("twm_fleet_cache_misses_total", &[]),
            evictions: registry.counter("twm_fleet_cache_evictions_total", &[]),
            spills: registry.counter("twm_fleet_cache_spills_total", &[]),
            spill_failures: registry.counter("twm_fleet_cache_spill_failures_total", &[]),
        }
    })
}

/// Everything a worker thread needs to diagnose one shard's reports.
#[derive(Debug)]
pub struct ShardRuntime {
    /// The shard's dictionary handle — resident, or served from its
    /// spill file through the bounded page cache.
    pub dictionary: DictionaryHandle,
    /// The dictionary-scheme transform of the source test (the one
    /// repair verification re-runs).
    pub probe: SchemeTransform,
    /// The dictionary's MISR template (reset state).
    pub misr: Misr,
    /// The probe session prepared once under the dictionary's reference
    /// content: repair verification sweeps only an injection's footprint
    /// and remapped words.
    pub(crate) local: FaultLocalSession,
}

impl ShardRuntime {
    fn build(entry: &ShardEntry) -> Result<Self, FleetError> {
        let dictionary = entry.dictionary.clone();
        let config = dictionary.config();
        let probe = dictionary
            .scheme()
            .scheme(config.width())?
            .transform(&entry.source)?;
        let misr = dictionary.misr_template().clone();
        let local = FaultLocalSession::new(&probe, config, dictionary.content(), misr.clone())?;
        Ok(Self {
            dictionary,
            probe,
            misr,
            local,
        })
    }
}

/// LRU cache of shard runtimes plus the per-`(config, content)` base
/// engines server-side dictionary builds derive from.
#[derive(Debug)]
pub struct RuntimeCache {
    capacity: usize,
    strategy: Strategy,
    clock: u64,
    runtimes: BTreeMap<ShardKey, (u64, Arc<ShardRuntime>)>,
    bases: Vec<((MemoryConfig, ContentPolicy), CoverageEngine)>,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    evicted: Vec<ShardKey>,
}

impl RuntimeCache {
    /// Creates a cache bounded to `capacity` shard runtimes; base engines
    /// run fault simulations under `strategy`.
    ///
    /// # Errors
    ///
    /// [`FleetError::ZeroCapacity`] for `capacity == 0`.
    pub fn new(capacity: usize, strategy: Strategy) -> Result<Self, FleetError> {
        if capacity == 0 {
            return Err(FleetError::ZeroCapacity);
        }
        Ok(Self {
            capacity,
            strategy,
            clock: 0,
            runtimes: BTreeMap::new(),
            bases: Vec::new(),
            hits: Counter::new(),
            misses: Counter::new(),
            evictions: Counter::new(),
            evicted: Vec::new(),
        })
    }

    /// The shard runtime for `key`, touched as most-recently-used;
    /// (re)built from the store entry on a miss, evicting the
    /// least-recently-used runtime when over capacity.
    ///
    /// # Errors
    ///
    /// Propagates scheme, transform and session errors from a cold build.
    pub fn runtime(
        &mut self,
        key: ShardKey,
        entry: &ShardEntry,
    ) -> Result<Arc<ShardRuntime>, FleetError> {
        self.clock += 1;
        if let Some((stamp, runtime)) = self.runtimes.get_mut(&key) {
            *stamp = self.clock;
            self.hits.incr();
            cache_obs().hits.incr();
            return Ok(Arc::clone(runtime));
        }
        self.misses.incr();
        cache_obs().misses.incr();
        let runtime = Arc::new(ShardRuntime::build(entry)?);
        if self.runtimes.len() == self.capacity {
            let oldest = self
                .runtimes
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(&key, _)| key)
                .expect("capacity > 0, so a full cache is non-empty");
            self.runtimes.remove(&oldest);
            self.evictions.incr();
            cache_obs().evictions.incr();
            self.evicted.push(oldest);
        }
        self.runtimes
            .insert(key, (self.clock, Arc::clone(&runtime)));
        Ok(runtime)
    }

    /// Drops a shard's cached runtime (after an eviction from the store).
    pub fn invalidate(&mut self, key: ShardKey) {
        self.runtimes.remove(&key);
    }

    /// Drains the shard keys evicted by the LRU bound since the last
    /// call — the service's hook for demoting cold shards to their spill
    /// files ([`crate::DictionaryStore::spill`]).
    pub fn take_evicted(&mut self) -> Vec<ShardKey> {
        std::mem::take(&mut self.evicted)
    }

    /// A snapshot of the cache health counters. The counters live on
    /// [`twm_obs`] atomics (mirrored into the global registry as
    /// `twm_fleet_cache_*_total`); this accessor is the same thin
    /// per-instance view callers have always had.
    #[must_use]
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of cached shard runtimes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runtimes.len()
    }

    /// Whether no runtime is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runtimes.is_empty()
    }

    /// The base engine for a `(config, content)` pair, building and
    /// memoising it on first use. Returns a cheap sibling handle —
    /// engines share their prepared contents through `Arc`s, so deriving
    /// one is O(1) in content size.
    pub(crate) fn base_engine(
        &mut self,
        config: MemoryConfig,
        content: ContentPolicy,
        test: &MarchTest,
    ) -> Result<CoverageEngine, FleetError> {
        if let Some((_, base)) = self.bases.iter().find(|((base_config, base_content), _)| {
            *base_config == config && *base_content == content
        }) {
            return Ok(base.with_test(test)?);
        }
        let base = CoverageEngine::builder(config)
            .test(test)
            .content(content)
            .strategy(self.strategy)
            .build()?;
        let handle = base.with_test(test)?;
        self.bases.push(((config, content), base));
        Ok(handle)
    }
}
