//! Perf-trajectory harness: measures the workspace's headline throughput
//! numbers with plain wall-clock timing and emits them as a `BENCH_<pr>.json`
//! artifact, so every PR's performance is comparable against the last
//! (ROADMAP open item 5 — the trajectory starts at PR 6).
//!
//! Metrics, chosen to cover each subsystem's hot loop:
//!
//! * `engine_reuse_64k` — coverage-engine faults/second on a 64K-word
//!   memory, scalar (the fault-local one-fault-per-execution path that
//!   `verdicts` streams) versus the bit-parallel 64-lane batched kernel
//!   of `report`, plus the speedup ratio;
//! * `march_execution` — raw march operations/second of one transparent
//!   sweep over the 64K-word memory;
//! * `search_candidates` — candidates scored/second through
//!   `Objective::score_batch` (the search inner loop);
//! * `dictionary_build` — fault injections/second of a signature-dictionary
//!   build (the repair deployment cost);
//! * `localise` — one adaptive localisation pass, in microseconds (the
//!   field-side diagnosis latency);
//! * `fleet_batch` — devices diagnosed/second through a warm
//!   `FleetService` runtime cache, plus per-device latency on a warm
//!   cache versus a cold one (fresh service, shard runtime rebuilt) and
//!   the warm-over-cold speedup the LRU cache buys;
//! * `dictionary_store` — the out-of-core dictionary backend:
//!   build-to-disk injections/second, on-disk bytes per indexed entry,
//!   cold (fresh pager, empty page cache) versus warm trail-lookup
//!   latency and the warm page-cache hit rate;
//! * `obs_overhead` — the observability tax: the 64K-word
//!   `engine_reuse` packed path timed with tracing disabled (the
//!   default one-atomic-load gate) versus enabled into the sampling
//!   profiler sink, reports asserted bit-identical across the A/B
//!   first. The profiler's per-span self-time aggregates from the
//!   enabled run land in the artifact's `profile` section, so every
//!   trajectory point says *where* the workload's time went.
//!
//! Usage: `perf_trajectory [--out PATH] [--assert-speedup X]
//! [--assert-fleet-speedup X] [--assert-obs-overhead PCT]`. With
//! `--assert-speedup`, the process exits non-zero unless the packed
//! kernel beats the scalar baseline by at least `X`×;
//! `--assert-fleet-speedup` does the same for the warm cache against
//! the cold build; `--assert-obs-overhead` fails the run when enabling
//! tracing costs more than `PCT`% on the engine-reuse path — CI uses
//! all three to keep the speedup and non-interference claims exercised
//! on every push.

use std::time::Instant;

use twm_bench::proposed_test;
use twm_bist::{execute_with, run_scheme_session_staged, ExecutionOptions, Misr};
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{
    ContentPolicy, CoverageEngine, CoverageReport, EvaluationOptions, Strategy, UniverseBuilder,
};
use twm_fleet::{
    DeviceReport, FleetConfig, FleetService, Request, Response, ShardKey, SignatureTrail,
};
use twm_march::algorithms::march_c_minus;
use twm_march::MarchTest;
use twm_mem::{BitAddress, Fault, FaultSet, FaultyMemory, MemoryConfig, SplitMix64};
use twm_repair::{DiagnosticSession, DictionaryOptions, SignatureDictionary};
use twm_search::{MutationModel, Objective, ObjectiveOptions};
use twm_store::{PagedDictionary, StoreOptions};

/// The PR this trajectory point belongs to.
const PR: u32 = 10;

/// PR 5's measured `engine_reuse` arena throughput at 64K words
/// (faults/second) — the baseline the packed kernel is compared against.
const PR5_BASELINE_FAULTS_PER_SEC: f64 = 63_900.0;

/// Measures the mean seconds per call of `f`, running at least `min_iters`
/// times and at least `min_secs` of wall-clock (one untimed warmup first).
fn time_mean<F: FnMut()>(mut f: F, min_iters: u32, min_secs: f64) -> f64 {
    f();
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if iters >= min_iters && elapsed >= min_secs {
            return elapsed / f64::from(iters);
        }
    }
}

struct EngineReuse {
    words: usize,
    width: usize,
    universe_faults: usize,
    scalar_faults_per_sec: f64,
    packed_faults_per_sec: f64,
    speedup: f64,
}

/// Coverage-engine faults/second at 64K words: the scalar fault-local path
/// (the `verdicts` stream of a serial engine, folded into a report) versus
/// the 64-lane batched kernel of `report`, on the same SAF+TF universe and
/// content. Reports are asserted identical before timing.
fn measure_engine_reuse() -> EngineReuse {
    let words = 1usize << 16;
    let width = 32;
    let config = MemoryConfig::new(words, width).unwrap();
    let test = march_c_minus();
    let faults = UniverseBuilder::new(config)
        .stuck_at()
        .transition()
        .sample_per_class(256, 5)
        .build();
    let options = EvaluationOptions {
        content: ContentPolicy::Random { seed: 11 },
        contents_per_fault: 1,
    };
    let packed = CoverageEngine::builder(config)
        .test(&test)
        .options(options)
        .strategy(Strategy::Serial)
        .build()
        .unwrap();
    // `verdicts` never lane-batches: folding its stream is the scalar path.
    let scalar = || {
        let mut report = CoverageReport::new(test.name());
        for verdict in packed.verdicts(&faults) {
            let verdict = verdict.unwrap();
            report.record(verdict.fault, verdict.detected);
        }
        report
    };
    assert_eq!(
        packed.report(&faults).unwrap(),
        scalar(),
        "packed and scalar reports must stay bit-identical"
    );

    let scalar_secs = time_mean(|| drop(scalar()), 2, 0.5);
    let packed_secs = time_mean(|| drop(packed.report(&faults).unwrap()), 5, 0.5);
    let scalar_rate = faults.len() as f64 / scalar_secs;
    let packed_rate = faults.len() as f64 / packed_secs;
    EngineReuse {
        words,
        width,
        universe_faults: faults.len(),
        scalar_faults_per_sec: scalar_rate,
        packed_faults_per_sec: packed_rate,
        speedup: packed_rate / scalar_rate,
    }
}

/// Raw march operations/second: one transparent sweep (the paper's TWM_TA
/// transform of March C−) over a fault-free 64K-word memory.
fn measure_march_ops() -> (usize, f64) {
    let words = 1usize << 16;
    let width = 32;
    let test = proposed_test(&march_c_minus(), width);
    let ops = test.total_operations(words);
    let config = MemoryConfig::new(words, width).unwrap();
    let mut memory = FaultyMemory::fault_free(config);
    memory.fill_random(17);
    let secs = time_mean(
        || {
            let result = execute_with(
                &test,
                &mut memory,
                ExecutionOptions {
                    record_reads: false,
                    stop_at_first_mismatch: false,
                },
            )
            .unwrap();
            assert!(!result.detected());
        },
        3,
        0.5,
    );
    (ops, ops as f64 / secs)
}

/// A deterministic batch of mutated March C− candidates (the shape of one
/// beam generation) — the same neighbourhood `benches/search.rs` scores.
fn candidate_batch(size: usize) -> Vec<MarchTest> {
    let model = MutationModel::default();
    let mut rng = SplitMix64::new(7);
    let mut batch = Vec::with_capacity(size);
    let mut current = march_c_minus();
    while batch.len() < size {
        if let Some((_, candidate)) = model.propose(&current, &mut rng) {
            batch.push(candidate.clone());
            if batch.len() % 8 == 0 {
                current = candidate;
            }
        }
    }
    batch
}

/// Search candidates scored/second: `Objective::score_batch` over a fixed
/// 32-candidate batch at 16×32 with the SAF+TF universe and registry cost.
fn measure_search_candidates() -> (usize, f64) {
    let width = 32;
    let config = MemoryConfig::new(16, width).unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let objective = Objective::new(
        config,
        universe,
        Some(SchemeRegistry::comparison(width).unwrap()),
        ObjectiveOptions {
            strategy: Strategy::Serial,
            ..ObjectiveOptions::default()
        },
    )
    .unwrap();
    let batch = candidate_batch(32);
    let secs = time_mean(|| drop(objective.score_batch(&batch).unwrap()), 2, 0.5);
    (batch.len(), batch.len() as f64 / secs)
}

/// Dictionary build injections/second and one localisation pass latency, on
/// the 8×32 deployment shape of `benches/repair.rs`.
fn measure_repair() -> (usize, f64, f64) {
    let words = 8;
    let width = 32;
    let seed = 99;
    let config = MemoryConfig::new(words, width).unwrap();
    let registry = SchemeRegistry::comparison(width).unwrap();
    let engine = CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed })
    .build()
    .unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let options = DictionaryOptions::default();
    let build_secs = time_mean(
        || drop(SignatureDictionary::build(&engine, &universe, &options).unwrap()),
        2,
        0.5,
    );

    let dictionary = SignatureDictionary::build(&engine, &universe, &options).unwrap();
    let session = DiagnosticSession::new(&registry, &march_c_minus())
        .unwrap()
        .with_dictionary(&dictionary)
        .unwrap();
    let fault = Fault::stuck_at(BitAddress::new(5, 17), true);
    let mut memory = FaultyMemory::with_faults(config, FaultSet::from_faults([fault])).unwrap();
    memory.fill_random(seed);
    let localise_secs = time_mean(
        || {
            let outcome = session.localise(&mut memory).unwrap();
            assert!(!outcome.defects.is_empty());
        },
        3,
        0.5,
    );
    (
        universe.len(),
        universe.len() as f64 / build_secs,
        localise_secs * 1e6,
    )
}

struct FleetBatch {
    words: usize,
    width: usize,
    batch: usize,
    devices_per_sec: f64,
    warm_device_us: f64,
    cold_device_us: f64,
    warm_speedup_vs_cold: f64,
}

/// Fleet-service throughput on the 16×8 deployment shape of
/// `benches/fleet.rs`: batched lookups/second through a warm runtime
/// cache, and per-device latency warm versus cold (fresh service, shard
/// runtime rebuilt from the registered dictionary before diagnosing).
fn measure_fleet() -> FleetBatch {
    let words = 16;
    let width = 8;
    let seed = 2005;
    let batch_size = 64;
    let config = MemoryConfig::new(words, width).unwrap();
    let source = march_c_minus();
    let shard = ShardKey::new(config, SchemeId::TwmTa, &source);

    let registry = SchemeRegistry::all(width).unwrap();
    let engine =
        CoverageEngine::for_scheme(registry.get(SchemeId::TwmTa).unwrap(), &source, config)
            .unwrap()
            .content(ContentPolicy::Random { seed })
            .strategy(Strategy::Serial)
            .build()
            .unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let dictionary =
        SignatureDictionary::build(&engine, &universe, &DictionaryOptions::default()).unwrap();

    let transform = registry.transform(SchemeId::TwmTa, &source).unwrap();
    let trail = |faults: &[Fault]| {
        let mut memory =
            FaultyMemory::with_faults(config, FaultSet::from_faults(faults.to_vec())).unwrap();
        memory.fill_random(seed);
        let staged =
            run_scheme_session_staged(&transform, &mut memory, Misr::standard(width)).unwrap();
        SignatureTrail::new(staged.signature_trail())
    };
    let reports: Vec<DeviceReport> = (0..batch_size)
        .map(|index| {
            let faults = if index % 2 == 0 {
                Vec::new()
            } else {
                vec![Fault::stuck_at(
                    BitAddress::new(index % words, index % width),
                    index % 3 == 0,
                )]
            };
            DeviceReport {
                device: format!("perf-{index:03}"),
                shard,
                trail: trail(&faults),
                spares: 1,
            }
        })
        .collect();
    let single = reports[..1].to_vec();

    let fresh_service = || {
        let service = FleetService::new(FleetConfig {
            strategy: Strategy::Serial,
            ..FleetConfig::default()
        })
        .unwrap();
        let registered = service.handle(Request::RegisterDictionary {
            source: source.clone(),
            dictionary: dictionary.clone(),
        });
        assert!(matches!(registered, Response::Registered { .. }));
        service
    };
    let diagnose = |service: &FleetService, reports: &[DeviceReport]| {
        let response = service.handle(Request::DiagnoseBatch {
            reports: reports.to_vec(),
        });
        assert!(matches!(response, Response::Batch(_)));
    };

    let warm = fresh_service();
    diagnose(&warm, &reports); // prime the runtime cache
    let batch_secs = time_mean(|| diagnose(&warm, &reports), 5, 0.5);
    let warm_secs = time_mean(|| diagnose(&warm, &single), 10, 0.5);
    // Cold path: every iteration pays registration plus the shard-runtime
    // build (registry, scheme transforms, engine) before the diagnosis.
    let cold_secs = time_mean(
        || {
            let cold = fresh_service();
            diagnose(&cold, &single);
        },
        5,
        0.5,
    );
    FleetBatch {
        words,
        width,
        batch: batch_size,
        devices_per_sec: batch_size as f64 / batch_secs,
        warm_device_us: warm_secs * 1e6,
        cold_device_us: cold_secs * 1e6,
        warm_speedup_vs_cold: cold_secs / warm_secs,
    }
}

struct ObsOverhead {
    off_faults_per_sec: f64,
    on_faults_per_sec: f64,
    overhead_pct: f64,
    profile: twm_obs::ProfileReport,
}

/// The observability tax on the hottest instrumented path: the 64K-word
/// packed engine-reuse report, timed with the trace gate closed (the
/// default — each would-be span costs one relaxed atomic load) versus
/// open into the sampling profiler sink, which aggregates per-span
/// self-time as spans close. Metrics counters are always on in both
/// runs; the A/B isolates the cost of *enabling* tracing. The two
/// reports are asserted bit-identical before any timing — the
/// non-interference invariant, measured as well as property-tested —
/// and the profiler's aggregates over the timed iterations come back
/// as the artifact's `profile` section.
fn measure_obs_overhead() -> ObsOverhead {
    let config = MemoryConfig::new(1 << 16, 32).unwrap();
    let test = march_c_minus();
    let faults = UniverseBuilder::new(config)
        .stuck_at()
        .transition()
        .sample_per_class(256, 5)
        .build();
    let engine = CoverageEngine::builder(config)
        .test(&test)
        .options(EvaluationOptions {
            content: ContentPolicy::Random { seed: 11 },
            contents_per_fault: 1,
        })
        .strategy(Strategy::Serial)
        .build()
        .unwrap();

    twm_obs::trace::set_enabled(false);
    let off_report = engine.report(&faults).unwrap();
    let profiler = std::sync::Arc::new(twm_obs::ProfilerSink::new());
    twm_obs::trace::set_sink(profiler.clone());
    twm_obs::trace::set_enabled(true);
    let on_report = engine.report(&faults).unwrap();
    twm_obs::trace::set_enabled(false);
    assert_eq!(
        off_report, on_report,
        "reports must stay bit-identical with tracing on and off"
    );

    // Interleaved A/B: alternate one gate-closed and one gate-open
    // report per round, so slow machine drift (thermal throttling,
    // background load) lands on both arms equally instead of biasing
    // whichever block ran second. The gate flip itself is one atomic
    // store per round — noise-free at this granularity.
    profiler.reset(); // profile the measurement rounds, not the equality check
    let mut off_secs = 0.0f64;
    let mut on_secs = 0.0f64;
    let mut rounds = 0u64;
    while rounds < 5 || off_secs + on_secs < 1.0 {
        let start = Instant::now();
        drop(engine.report(&faults).unwrap());
        off_secs += start.elapsed().as_secs_f64();

        twm_obs::trace::set_enabled(true);
        let start = Instant::now();
        drop(engine.report(&faults).unwrap());
        on_secs += start.elapsed().as_secs_f64();
        twm_obs::trace::set_enabled(false);
        rounds += 1;
    }

    let per_arm = (rounds * faults.len() as u64) as f64;
    ObsOverhead {
        off_faults_per_sec: per_arm / off_secs,
        on_faults_per_sec: per_arm / on_secs,
        overhead_pct: (on_secs / off_secs - 1.0) * 100.0,
        profile: profiler.snapshot(),
    }
}

struct DictionaryStore {
    words: usize,
    width: usize,
    injections: usize,
    entries: usize,
    file_bytes: u64,
    bytes_per_entry: f64,
    build_injections_per_sec: f64,
    cold_lookup_us: f64,
    warm_lookup_us: f64,
    warm_hit_rate: f64,
}

/// Out-of-core dictionary backend on the 16×8 fleet deployment shape:
/// streaming build-to-disk throughput, on-disk density, and trail-lookup
/// latency cold (fresh pager, every page read from disk) versus warm
/// (LRU page cache primed), with the warm cache's hit rate.
fn measure_dictionary_store() -> DictionaryStore {
    let words = 16;
    let width = 8;
    let seed = 2005;
    let config = MemoryConfig::new(words, width).unwrap();
    let registry = SchemeRegistry::all(width).unwrap();
    let engine = CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed })
    .build()
    .unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    let options = DictionaryOptions::default();
    let path = std::env::temp_dir().join(format!("twm-perf-{}.twmstore", std::process::id()));
    let store = StoreOptions::default();

    let build_secs = time_mean(
        || {
            drop(
                PagedDictionary::build_to_disk(&engine, &universe, &options, &path, &store)
                    .unwrap(),
            );
        },
        2,
        0.5,
    );

    let paged =
        PagedDictionary::build_to_disk(&engine, &universe, &options, &path, &store).unwrap();
    let entries = paged.classes();
    let file_bytes = paged.file_bytes();
    let probe = paged
        .iter()
        .nth(entries / 2)
        .expect("dictionary has classes")
        .unwrap()
        .trail;

    // Cold: a fresh open pays the header/meta reads and every index and
    // payload page comes off disk — the latency a spilled fleet shard
    // sees on its first post-eviction diagnosis.
    let cold_secs = time_mean(
        || {
            let cold = PagedDictionary::open(&path, &store).unwrap();
            assert!(cold.lookup(&probe).unwrap().is_some());
        },
        10,
        0.5,
    );
    // Warm: the same lookup against a primed page cache.
    assert!(paged.lookup(&probe).unwrap().is_some());
    let warm_secs = time_mean(|| assert!(paged.lookup(&probe).unwrap().is_some()), 10, 0.5);
    let metrics = paged.cache_metrics();
    std::fs::remove_file(&path).expect("remove perf store");

    DictionaryStore {
        words,
        width,
        injections: universe.len(),
        entries,
        file_bytes,
        bytes_per_entry: file_bytes as f64 / entries as f64,
        build_injections_per_sec: universe.len() as f64 / build_secs,
        cold_lookup_us: cold_secs * 1e6,
        warm_lookup_us: warm_secs * 1e6,
        warm_hit_rate: metrics.hit_rate(),
    }
}

/// Renders the profiler's top self-time spans as a JSON array (span
/// names are static identifiers from our own instrumentation, so no
/// escaping is needed).
fn format_profile(profile: &twm_obs::ProfileReport, top: usize) -> String {
    let mut out = String::from("[");
    for (at, span) in profile.top(top).iter().enumerate() {
        if at > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n      {{\n        \"span\": \"{}\",\n        \"calls\": {},\n        \
             \"self_ns\": {},\n        \"total_ns\": {},\n        \"min_ns\": {},\n        \
             \"max_ns\": {}\n      }}",
            span.name, span.calls, span.self_ns, span.total_ns, span.min_ns, span.max_ns
        ));
    }
    out.push_str("\n    ]");
    out
}

fn main() {
    let mut out_path = String::from("BENCH_10.json");
    let mut assert_speedup: Option<f64> = None;
    let mut assert_fleet_speedup: Option<f64> = None;
    let mut assert_obs_overhead: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_path = args.next().expect("--out requires a path");
            }
            "--assert-speedup" => {
                assert_speedup = Some(
                    args.next()
                        .expect("--assert-speedup requires a number")
                        .parse()
                        .expect("--assert-speedup requires a number"),
                );
            }
            "--assert-fleet-speedup" => {
                assert_fleet_speedup = Some(
                    args.next()
                        .expect("--assert-fleet-speedup requires a number")
                        .parse()
                        .expect("--assert-fleet-speedup requires a number"),
                );
            }
            "--assert-obs-overhead" => {
                assert_obs_overhead = Some(
                    args.next()
                        .expect("--assert-obs-overhead requires a percentage")
                        .parse()
                        .expect("--assert-obs-overhead requires a percentage"),
                );
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: perf_trajectory [--out PATH] [--assert-speedup X] \
                     [--assert-fleet-speedup X] [--assert-obs-overhead PCT]"
                );
                std::process::exit(2);
            }
        }
    }

    eprintln!("measuring engine_reuse (64K words, scalar vs packed)...");
    let reuse = measure_engine_reuse();
    eprintln!(
        "  scalar {:.1} faults/s, packed {:.1} faults/s ({:.1}x)",
        reuse.scalar_faults_per_sec, reuse.packed_faults_per_sec, reuse.speedup
    );
    eprintln!("measuring march execution throughput...");
    let (march_ops, march_rate) = measure_march_ops();
    eprintln!("  {march_rate:.0} ops/s");
    eprintln!("measuring search candidate scoring...");
    let (batch, candidate_rate) = measure_search_candidates();
    eprintln!("  {candidate_rate:.2} candidates/s");
    eprintln!("measuring dictionary build and localisation...");
    let (injections, injection_rate, localise_us) = measure_repair();
    eprintln!("  {injection_rate:.1} injections/s, localise {localise_us:.0} us");
    eprintln!("measuring fleet batched diagnosis (warm vs cold cache)...");
    let fleet = measure_fleet();
    eprintln!(
        "  {:.0} devices/s batched; warm {:.1} us vs cold {:.0} us per device ({:.0}x)",
        fleet.devices_per_sec,
        fleet.warm_device_us,
        fleet.cold_device_us,
        fleet.warm_speedup_vs_cold
    );
    eprintln!("measuring dictionary store (build-to-disk, cold vs warm lookup)...");
    let store = measure_dictionary_store();
    eprintln!(
        "  {:.1} injections/s to disk; {:.1} bytes/entry; lookup cold {:.1} us vs warm {:.1} us (hit rate {:.3})",
        store.build_injections_per_sec,
        store.bytes_per_entry,
        store.cold_lookup_us,
        store.warm_lookup_us,
        store.warm_hit_rate
    );
    eprintln!("measuring observability overhead (tracing off vs on, 64K engine reuse)...");
    let obs = measure_obs_overhead();
    eprintln!(
        "  off {:.1} faults/s, on {:.1} faults/s ({:+.2}%)",
        obs.off_faults_per_sec, obs.on_faults_per_sec, obs.overhead_pct
    );
    for span in obs.profile.top(3) {
        eprintln!(
            "  profile: {} x{} self {:.1} ms",
            span.name,
            span.calls,
            span.self_ns as f64 / 1e6
        );
    }

    // The artifact schema is tiny and append-only, so it is formatted by
    // hand rather than routed through the serde value model.
    let json = format!(
        r#"{{
  "schema": "twm-perf-trajectory/1",
  "pr": {pr},
  "baseline": {{
    "pr": 5,
    "engine_reuse_64k_faults_per_sec": {baseline:.1}
  }},
  "metrics": {{
    "engine_reuse_64k": {{
      "words": {words},
      "width": {width},
      "universe_faults": {universe_faults},
      "scalar_faults_per_sec": {scalar:.1},
      "packed_faults_per_sec": {packed:.1},
      "packed_speedup_vs_scalar": {speedup:.2},
      "packed_speedup_vs_pr5_baseline": {speedup_pr5:.2}
    }},
    "march_execution": {{
      "words": 65536,
      "width": 32,
      "ops_per_sweep": {march_ops},
      "ops_per_sec": {march_rate:.0}
    }},
    "search_candidates": {{
      "batch": {batch},
      "candidates_per_sec": {candidate_rate:.2}
    }},
    "dictionary_build": {{
      "universe_faults": {injections},
      "injections_per_sec": {injection_rate:.1}
    }},
    "localise": {{
      "latency_us": {localise_us:.0}
    }},
    "fleet_batch": {{
      "words": {fleet_words},
      "width": {fleet_width},
      "batch": {fleet_batch},
      "devices_per_sec": {fleet_rate:.0},
      "warm_device_latency_us": {fleet_warm:.1},
      "cold_build_latency_us": {fleet_cold:.1},
      "warm_speedup_vs_cold": {fleet_speedup:.1}
    }},
    "dictionary_store": {{
      "words": {store_words},
      "width": {store_width},
      "universe_faults": {store_injections},
      "entries": {store_entries},
      "file_bytes": {store_file_bytes},
      "bytes_per_entry": {store_bytes_per_entry:.1},
      "build_to_disk_injections_per_sec": {store_build_rate:.1},
      "cold_lookup_latency_us": {store_cold:.1},
      "warm_lookup_latency_us": {store_warm:.1},
      "warm_page_cache_hit_rate": {store_hit_rate:.4}
    }},
    "obs_overhead": {{
      "words": 65536,
      "width": 32,
      "obs_off_faults_per_sec": {obs_off:.1},
      "obs_on_faults_per_sec": {obs_on:.1},
      "overhead_pct": {obs_pct:.2}
    }}
  }},
  "profile": {{
    "workload": "engine_reuse_64k (packed, tracing into ProfilerSink)",
    "total_self_ns": {profile_total_ns},
    "open_parents": {profile_open},
    "top_spans_by_self_time": {profile_spans}
  }}
}}
"#,
        pr = PR,
        baseline = PR5_BASELINE_FAULTS_PER_SEC,
        words = reuse.words,
        width = reuse.width,
        universe_faults = reuse.universe_faults,
        scalar = reuse.scalar_faults_per_sec,
        packed = reuse.packed_faults_per_sec,
        speedup = reuse.speedup,
        speedup_pr5 = reuse.packed_faults_per_sec / PR5_BASELINE_FAULTS_PER_SEC,
        fleet_words = fleet.words,
        fleet_width = fleet.width,
        fleet_batch = fleet.batch,
        fleet_rate = fleet.devices_per_sec,
        fleet_warm = fleet.warm_device_us,
        fleet_cold = fleet.cold_device_us,
        fleet_speedup = fleet.warm_speedup_vs_cold,
        store_words = store.words,
        store_width = store.width,
        store_injections = store.injections,
        store_entries = store.entries,
        store_file_bytes = store.file_bytes,
        store_bytes_per_entry = store.bytes_per_entry,
        store_build_rate = store.build_injections_per_sec,
        store_cold = store.cold_lookup_us,
        store_warm = store.warm_lookup_us,
        store_hit_rate = store.warm_hit_rate,
        obs_off = obs.off_faults_per_sec,
        obs_on = obs.on_faults_per_sec,
        obs_pct = obs.overhead_pct,
        profile_total_ns = obs.profile.total_self_ns(),
        profile_open = obs.profile.open_parents,
        profile_spans = format_profile(&obs.profile, 10),
    );
    std::fs::write(&out_path, &json).expect("write trajectory artifact");
    println!("wrote {out_path}");

    if let Some(required) = assert_speedup {
        if reuse.speedup < required {
            eprintln!(
                "FAIL: packed kernel speedup {:.2}x is below the required {required}x",
                reuse.speedup
            );
            std::process::exit(1);
        }
        println!(
            "packed kernel speedup {:.2}x meets the required {required}x",
            reuse.speedup
        );
    }
    if let Some(required) = assert_fleet_speedup {
        if fleet.warm_speedup_vs_cold < required {
            eprintln!(
                "FAIL: warm fleet cache speedup {:.1}x is below the required {required}x",
                fleet.warm_speedup_vs_cold
            );
            std::process::exit(1);
        }
        println!(
            "warm fleet cache speedup {:.1}x meets the required {required}x",
            fleet.warm_speedup_vs_cold
        );
    }
    if let Some(limit) = assert_obs_overhead {
        if obs.overhead_pct > limit {
            eprintln!(
                "FAIL: tracing-enabled overhead {:+.2}% exceeds the allowed {limit}%",
                obs.overhead_pct
            );
            std::process::exit(1);
        }
        println!(
            "tracing-enabled overhead {:+.2}% stays within the allowed {limit}%",
            obs.overhead_pct
        );
    }
}
