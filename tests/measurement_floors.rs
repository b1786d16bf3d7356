//! Release-mode speed floors for the fast paths whose wins are claims of
//! the design rather than end-to-end throughput:
//!
//! * **table-resolved report** — `report` over 512 SAF/TF faults at
//!   64K×32, which looks every fault up in the engine's verdict table, is
//!   at least 5× faster than a fault-local sweep per fault
//!   (`injection_detected(&[fault])` on the same engine, folded into a
//!   report);
//! * **table-resolved coupling report** — the same over 512 CFst, CFid
//!   and CFin faults on same-word and adjacent-word cell pairs, which the
//!   table answers from its coupling rows;
//! * **test length** — the same report under TWM_TA's March C− with its
//!   elements repeated four times costs at most 1.5× the report under the
//!   plain test: the table is built once per engine, so a report's cost
//!   does not grow with the test;
//! * **single-cell trail table** — the signature trails of the whole
//!   32×32 TWM_TA × March C− SAF+TF universe (4,096 faults) from the
//!   single-cell table, in one batch, are at least 10× faster than one
//!   fault-local sweep (`run_scheme_session_local`) per fault;
//! * **fleet runtime cache** — diagnosing one device through a warm
//!   shard runtime is at least 5× faster than through a cold one (a
//!   fresh `FleetService`, dictionary registration and runtime build);
//! * **closed-form reference** — the fault-free session of TWM_TA ×
//!   March C− at 64K×32 as a `SessionReference`, derived in closed form,
//!   is at least 10× faster than the naive `run_scheme_session_staged` on
//!   a fault-free memory holding the same content;
//! * **tracing overhead** — tracing into a `ProfilerSink` costs at most
//!   5% over tracing off on the table-resolved report.
//!
//! Each floor times its two arms in alternating rounds and gates the
//! median over rounds of one arm's time over the other's: the two halves
//! of a round see the same host, so slow drift cancels, and the median
//! ignores bursts of host noise. In a round each arm runs a short block
//! of back-to-back calls, which keeps one arm's cache footprint from
//! landing on the other's timing. Every floor asserts that its arms
//! compute equal results before any timing; that check also runs untimed
//! in the default test run, so the floors' inputs cannot rot unseen.
//!
//! The timed floors are ignored by default (a debug build measures
//! nothing useful); run them in
//! release mode on one test thread, since the tracing floor flips the
//! process-wide trace gate and sink and the timed arms must not share the
//! CPU with another test:
//!
//! ```text
//! cargo test --release --test measurement_floors -- --ignored --test-threads=1
//! ```
//!
//! `--nocapture` prints each measured ratio.

use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use twm::bist::{
    run_scheme_session_staged, FaultLocalSession, Misr, SessionReference, StagedSessionOutcome,
};
use twm::core::{SchemeId, SchemeRegistry, SchemeTransform};
use twm::coverage::{
    ContentPolicy, CoverageEngine, CoverageReport, EvaluationOptions, Strategy, UniverseBuilder,
};
use twm::fleet::{
    BatchReport, DeviceReport, FleetConfig, FleetService, Request, Response, ShardKey,
    SignatureTrail,
};
use twm::march::algorithms::march_c_minus;
use twm::march::MarchTest;
use twm::mem::{BitAddress, Fault, FaultyMemory, MemoryConfig, SplitMix64, Transition, Word};
use twm::obs::{trace, ProfilerSink};
use twm::repair::{DictionaryOptions, SignatureDictionary};

/// Minimum table-resolved `report` speed-up over a sweep per fault.
const PACKED_SPEEDUP_FLOOR: f64 = 5.0;
/// Minimum table-resolved coupling `report` speed-up over a sweep per
/// fault.
const COUPLING_SPEEDUP_FLOOR: f64 = 5.0;
/// Maximum cost of a SAF/TF report under a test four times as long.
const TEST_LENGTH_CEILING: f64 = 1.5;
/// Minimum speed-up of single-cell table trails over a fault-local sweep
/// per fault.
const TRAIL_TABLE_SPEEDUP_FLOOR: f64 = 10.0;
/// Minimum warm-cache speed-up over a cold runtime build, per device.
const FLEET_SPEEDUP_FLOOR: f64 = 5.0;
/// Minimum speed-up of a closed-form fault-free reference over the naive
/// session on a fault-free memory.
const REFERENCE_SPEEDUP_FLOOR: f64 = 10.0;
/// Maximum cost of tracing into a profiler sink, in percent.
const TRACE_OVERHEAD_CEILING_PCT: f64 = 5.0;

/// Minimum interleaved rounds per floor.
const MIN_ROUNDS: usize = 5;
/// Wall time each floor keeps adding rounds for.
const BUDGET: Duration = Duration::from_millis(600);
/// Target wall time of one arm's share of a round.
const BLOCK: Duration = Duration::from_millis(2);

/// Keeps the floors apart even without `--test-threads=1`: the timed
/// arms must not share the CPU, and the tracing floor owns the gate.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Calls `f` back to back until [`BLOCK`] has passed (which also warms
/// it up) and returns the number of calls made.
fn calls_per_block(f: &mut impl FnMut()) -> u32 {
    let start = Instant::now();
    let mut calls = 0;
    while calls == 0 || start.elapsed() < BLOCK {
        f();
        calls += 1;
    }
    calls
}

/// Seconds per call of `f`, over `calls` back-to-back calls.
fn seconds_per_call(f: &mut impl FnMut(), calls: u32) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `a` and `b` in alternating rounds, each arm over a block of
/// back-to-back calls lasting about [`BLOCK`], for at least
/// [`MIN_ROUNDS`] rounds and [`BUDGET`] of wall time, and returns the
/// median over rounds of `b`'s time per call over `a`'s.
fn b_over_a(mut a: impl FnMut(), mut b: impl FnMut()) -> f64 {
    let a_calls = calls_per_block(&mut a);
    let b_calls = calls_per_block(&mut b);
    let (mut a_secs, mut b_secs) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while a_secs.len() < MIN_ROUNDS || start.elapsed() < BUDGET {
        a_secs.push(seconds_per_call(&mut a, a_calls));
        b_secs.push(seconds_per_call(&mut b, b_calls));
    }
    median(a_secs.iter().zip(&b_secs).map(|(a, b)| b / a).collect())
}

/// The SAF/TF universe of the report floors: 512 sampled faults at
/// 64K×32.
fn saf_tf_faults(config: MemoryConfig) -> Vec<Fault> {
    UniverseBuilder::new(config)
        .stuck_at()
        .transition()
        .sample_per_class(256, 5)
        .build()
}

/// A serial engine for `test` at 64K×32 over random content.
fn serial_engine(config: MemoryConfig, test: &MarchTest) -> CoverageEngine {
    CoverageEngine::builder(config)
        .test(test)
        .options(EvaluationOptions {
            content: ContentPolicy::Random { seed: 11 },
            contents_per_fault: 1,
        })
        .strategy(Strategy::Serial)
        .build()
        .unwrap()
}

/// The table floor's engine and universe: 512 sampled SAF/TF faults on a
/// serial 64K×32 March C− engine over random content.
fn packed_workload() -> (CoverageEngine, Vec<Fault>) {
    let config = MemoryConfig::new(1 << 16, 32).unwrap();
    (
        serial_engine(config, &march_c_minus()),
        saf_tf_faults(config),
    )
}

/// The table floors' denominator: `injection_detected` on each fault
/// alone, which sweeps the fault's footprint words instead of reading the
/// verdict table, folded into a report.
fn swept_report(engine: &CoverageEngine, faults: &[Fault]) -> CoverageReport {
    let mut report = CoverageReport::new(march_c_minus().name());
    for &fault in faults {
        report.record(fault, engine.injection_detected(&[fault]).unwrap());
    }
    report
}

fn assert_packed_arms_agree(engine: &CoverageEngine, faults: &[Fault]) {
    assert_eq!(
        engine.report(faults).unwrap(),
        swept_report(engine, faults),
        "table-resolved and swept reports must stay bit-identical"
    );
}

#[test]
fn packed_floor_arms_agree() {
    let _exclusive = exclusive();
    let (engine, faults) = packed_workload();
    assert_packed_arms_agree(&engine, &faults);
}

#[test]
#[ignore = "release-mode timing; run with --release -- --ignored --test-threads=1"]
fn packed_report_beats_a_sweep_per_fault() {
    let _exclusive = exclusive();
    let (engine, faults) = packed_workload();
    assert_packed_arms_agree(&engine, &faults);

    let speedup = b_over_a(
        || drop(engine.report(&faults).unwrap()),
        || drop(swept_report(&engine, &faults)),
    );
    println!("table-resolved report: {speedup:.2}x a sweep per fault");
    assert!(
        speedup >= PACKED_SPEEDUP_FLOOR,
        "table-resolved report speed-up {speedup:.2}x is below {PACKED_SPEEDUP_FLOOR}x"
    );
}

/// 512 coupling faults at 64K×32, a third each CFst, CFid and CFin, on
/// random same-word and adjacent-word cell pairs (the aggressor word below
/// or above the victim's). Drawn directly: enumerating every such pair of
/// a 64K×32 memory before sampling would take hundreds of millions.
fn coupling_faults(config: MemoryConfig) -> Vec<Fault> {
    let mut rng = SplitMix64::new(0xC0_0C);
    let width = config.width();
    (0..512)
        .map(|_| {
            let word = rng.next_below(config.words() - 1);
            let aggressor = BitAddress::new(word + rng.next_below(2), rng.next_below(width));
            let victim = match rng.next_below(3) {
                0 => BitAddress::new(
                    aggressor.word,
                    (aggressor.bit + 1 + rng.next_below(width - 1)) % width,
                ),
                _ => BitAddress::new(2 * word + 1 - aggressor.word, rng.next_below(width)),
            };
            let transition = if rng.next_bool() {
                Transition::Rising
            } else {
                Transition::Falling
            };
            match rng.next_below(3) {
                0 => Fault::coupling_state(aggressor, victim, rng.next_bool(), rng.next_bool()),
                1 => Fault::coupling_idempotent(aggressor, victim, transition, rng.next_bool()),
                _ => Fault::coupling_inversion(aggressor, victim, transition),
            }
        })
        .collect()
}

/// The coupling floor's engine and universe: 512 coupling faults on the
/// table floor's serial 64K×32 March C− engine.
fn coupling_workload() -> (CoverageEngine, Vec<Fault>) {
    let config = MemoryConfig::new(1 << 16, 32).unwrap();
    (
        serial_engine(config, &march_c_minus()),
        coupling_faults(config),
    )
}

#[test]
fn coupling_floor_arms_agree() {
    let _exclusive = exclusive();
    let (engine, faults) = coupling_workload();
    assert_packed_arms_agree(&engine, &faults);
}

#[test]
#[ignore = "release-mode timing; run with --release -- --ignored --test-threads=1"]
fn coupling_report_beats_a_sweep_per_fault() {
    let _exclusive = exclusive();
    let (engine, faults) = coupling_workload();
    assert_packed_arms_agree(&engine, &faults);

    let speedup = b_over_a(
        || drop(engine.report(&faults).unwrap()),
        || drop(swept_report(&engine, &faults)),
    );
    println!("table-resolved coupling report: {speedup:.2}x a sweep per fault");
    assert!(
        speedup >= COUPLING_SPEEDUP_FLOOR,
        "table-resolved coupling report speed-up {speedup:.2}x is below {COUPLING_SPEEDUP_FLOOR}x"
    );
}

/// The test-length floor's engines, one per test, and their universe:
/// TWM_TA's March C− and the same test with its elements repeated four
/// times (under the same name, so the two reports compare equal).
fn test_length_workload() -> (CoverageEngine, CoverageEngine, Vec<Fault>) {
    let config = MemoryConfig::new(1 << 16, 32).unwrap();
    let registry = SchemeRegistry::all(32).unwrap();
    let transform = registry
        .transform(SchemeId::TwmTa, &march_c_minus())
        .unwrap();
    let test = transform.transparent_test();
    let elements = test
        .elements()
        .iter()
        .cycle()
        .take(4 * test.element_count());
    let repeated = MarchTest::new(test.name(), elements.cloned().collect()).unwrap();
    (
        serial_engine(config, test),
        serial_engine(config, &repeated),
        saf_tf_faults(config),
    )
}

fn assert_test_length_arms_agree(short: &CoverageEngine, long: &CoverageEngine, faults: &[Fault]) {
    let report = short.report(faults).unwrap();
    assert_eq!(report.total_coverage(), 1.0, "TWM_TA detects every SAF/TF");
    assert_eq!(
        report,
        long.report(faults).unwrap(),
        "repeating the test's elements must not change a verdict"
    );
}

#[test]
fn test_length_floor_arms_agree() {
    let _exclusive = exclusive();
    let (short, long, faults) = test_length_workload();
    assert_test_length_arms_agree(&short, &long, &faults);
}

#[test]
#[ignore = "release-mode timing; run with --release -- --ignored --test-threads=1"]
fn saf_tf_report_cost_does_not_grow_with_test_length() {
    let _exclusive = exclusive();
    let (short, long, faults) = test_length_workload();
    assert_test_length_arms_agree(&short, &long, &faults);

    let long_over_short = b_over_a(
        || drop(short.report(&faults).unwrap()),
        || drop(long.report(&faults).unwrap()),
    );
    println!("test length: a 4x test's report costs {long_over_short:.2}x");
    assert!(
        long_over_short <= TEST_LENGTH_CEILING,
        "a 4x test's report costs {long_over_short:.2}x, above {TEST_LENGTH_CEILING}x"
    );
}

/// The trail-table floor's inputs: a TWM_TA × March C− session on a
/// 32×32 memory over random content, and its SAF+TF universe.
fn trail_table_workload() -> (FaultLocalSession, Vec<Fault>) {
    let config = MemoryConfig::new(32, 32).unwrap();
    let content = ContentPolicy::Random { seed: 7 };
    let transform = SchemeRegistry::all(32)
        .unwrap()
        .transform(SchemeId::TwmTa, &march_c_minus())
        .unwrap();
    let session =
        FaultLocalSession::new(&transform, content.image(config, 0), Misr::standard(32)).unwrap();
    let universe = UniverseBuilder::new(config).stuck_at().transition().build();
    (session, universe)
}

/// The sweep arm: one fault-local sweep per fault.
fn swept_trails(session: &FaultLocalSession, universe: &[Fault]) -> Vec<Vec<Word>> {
    universe
        .iter()
        .map(|fault| session.run(&[*fault]).unwrap().trail)
        .collect()
}

fn assert_trail_table_arms_agree(session: &FaultLocalSession, universe: &[Fault]) {
    assert_eq!(
        session.single_fault_trails(universe).unwrap(),
        swept_trails(session, universe),
        "table and swept trails must stay identical"
    );
}

#[test]
fn trail_table_floor_arms_agree() {
    let _exclusive = exclusive();
    let (session, universe) = trail_table_workload();
    assert_trail_table_arms_agree(&session, &universe);
}

#[test]
#[ignore = "release-mode timing; run with --release -- --ignored --test-threads=1"]
fn trail_table_beats_a_sweep_per_fault() {
    let _exclusive = exclusive();
    let (session, universe) = trail_table_workload();
    assert_trail_table_arms_agree(&session, &universe);

    let speedup = b_over_a(
        || drop(session.single_fault_trails(&universe).unwrap()),
        || drop(swept_trails(&session, &universe)),
    );
    println!("single-cell trail table: {speedup:.1}x a sweep per fault");
    assert!(
        speedup >= TRAIL_TABLE_SPEEDUP_FLOOR,
        "trail-table speed-up {speedup:.1}x is below {TRAIL_TABLE_SPEEDUP_FLOOR}x"
    );
}

/// The fleet floor's inputs: a 16×8 TWM_TA × March C− dictionary and one
/// fault-free device reporting its trail over the shard's reference
/// content.
struct FleetWorkload {
    source: MarchTest,
    dictionary: SignatureDictionary,
    device: Vec<DeviceReport>,
}

impl FleetWorkload {
    fn new() -> Self {
        let config = MemoryConfig::new(16, 8).unwrap();
        let seed = 2005;
        let source = march_c_minus();
        let registry = SchemeRegistry::all(8).unwrap();
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
        let mut memory = FaultyMemory::fault_free(config);
        memory.fill_random(seed);
        let staged = run_scheme_session_staged(&transform, &mut memory, Misr::standard(8)).unwrap();
        let device = vec![DeviceReport {
            device: "perf-000".into(),
            shard: ShardKey::new(config, SchemeId::TwmTa, &source),
            trail: SignatureTrail::new(staged.signature_trail()),
            spares: 1,
        }];
        Self {
            source,
            dictionary,
            device,
        }
    }

    /// A fresh service with the dictionary registered and no runtime built.
    fn fresh_service(&self) -> FleetService {
        let service = FleetService::new(FleetConfig {
            strategy: Strategy::Serial,
            ..FleetConfig::default()
        })
        .unwrap();
        let registered = service.handle(Request::RegisterDictionary {
            source: self.source.clone(),
            dictionary: self.dictionary.clone(),
        });
        assert!(matches!(registered, Response::Registered { .. }));
        service
    }

    fn diagnose(&self, service: &FleetService) -> BatchReport {
        match service.handle(Request::DiagnoseBatch {
            reports: self.device.clone(),
        }) {
            Response::Batch(batch) => batch,
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    fn assert_warm_and_cold_agree(&self, warm: &FleetService) {
        assert_eq!(
            self.diagnose(warm).outcomes,
            self.diagnose(&self.fresh_service()).outcomes,
            "warm and cold diagnoses must agree"
        );
    }
}

#[test]
fn fleet_floor_arms_agree() {
    let _exclusive = exclusive();
    let workload = FleetWorkload::new();
    let warm = workload.fresh_service();
    workload.assert_warm_and_cold_agree(&warm);
    // A second call runs on the runtime the first one built.
    workload.assert_warm_and_cold_agree(&warm);
}

#[test]
#[ignore = "release-mode timing; run with --release -- --ignored --test-threads=1"]
fn warm_runtime_cache_beats_a_cold_build() {
    let _exclusive = exclusive();
    let workload = FleetWorkload::new();
    let warm = workload.fresh_service();
    workload.assert_warm_and_cold_agree(&warm);
    // Cold: every call pays registration plus the shard-runtime build
    // (registry, scheme transforms, engine) before the diagnosis.
    let speedup = b_over_a(
        || drop(workload.diagnose(&warm)),
        || drop(workload.diagnose(&workload.fresh_service())),
    );
    println!("fleet runtime cache: warm {speedup:.1}x a cold build");
    assert!(
        speedup >= FLEET_SPEEDUP_FLOOR,
        "warm cache speed-up {speedup:.1}x is below {FLEET_SPEEDUP_FLOOR}x"
    );
}

/// The reference floor's inputs: TWM_TA × March C− and a fault-free
/// 64K×32 memory over random content.
fn reference_workload() -> (SchemeTransform, FaultyMemory) {
    let transform = SchemeRegistry::all(32)
        .unwrap()
        .transform(SchemeId::TwmTa, &march_c_minus())
        .unwrap();
    let mut memory = FaultyMemory::fault_free(MemoryConfig::new(65_536, 32).unwrap());
    memory.fill_random(7);
    (transform, memory)
}

/// The closed-form arm: a reference over the memory's content.
fn closed_form_reference(transform: &SchemeTransform, memory: &FaultyMemory) -> SessionReference {
    SessionReference::new(transform, memory.snapshot(), Misr::standard(32)).unwrap()
}

/// The naive arm: the whole session, op by op, on a copy of the memory.
fn naive_reference(transform: &SchemeTransform, memory: &FaultyMemory) -> StagedSessionOutcome {
    run_scheme_session_staged(transform, &mut memory.clone(), Misr::standard(32)).unwrap()
}

fn assert_reference_arms_agree(transform: &SchemeTransform, memory: &FaultyMemory) {
    let reference = closed_form_reference(transform, memory);
    let naive = naive_reference(transform, memory);
    assert_eq!(
        reference.trail(),
        naive.signature_trail().as_slice(),
        "closed-form and naive trails must stay identical"
    );
    assert_eq!(reference.mismatches(), naive.outcome.mismatches);
    assert_eq!(
        reference.content_preserved(),
        naive.outcome.content_preserved
    );
}

#[test]
fn reference_floor_arms_agree() {
    let _exclusive = exclusive();
    let (transform, memory) = reference_workload();
    assert_reference_arms_agree(&transform, &memory);
}

#[test]
#[ignore = "release-mode timing; run with --release -- --ignored --test-threads=1"]
fn closed_form_reference_beats_the_naive_session() {
    let _exclusive = exclusive();
    let (transform, memory) = reference_workload();
    assert_reference_arms_agree(&transform, &memory);

    let speedup = b_over_a(
        || drop(closed_form_reference(&transform, &memory)),
        || drop(naive_reference(&transform, &memory)),
    );
    println!("closed-form reference: {speedup:.1}x the naive session");
    assert!(
        speedup >= REFERENCE_SPEEDUP_FLOOR,
        "closed-form reference speed-up {speedup:.1}x is below {REFERENCE_SPEEDUP_FLOOR}x"
    );
}

/// Points the trace sink at a fresh profiler, asserts that a report with
/// tracing on equals one with it off and reaches the profiler, and leaves
/// tracing off.
fn assert_tracing_arms_agree(engine: &CoverageEngine, faults: &[Fault]) {
    let profiler = Arc::new(ProfilerSink::new());
    trace::set_sink(profiler.clone());
    trace::set_enabled(false);
    let off_report = engine.report(faults).unwrap();
    trace::set_enabled(true);
    let on_report = engine.report(faults).unwrap();
    trace::set_enabled(false);
    assert_eq!(
        off_report, on_report,
        "reports must stay bit-identical with tracing on and off"
    );
    assert!(
        !profiler.snapshot().top(1).is_empty(),
        "the traced report must reach the profiler"
    );
}

#[test]
fn tracing_floor_arms_agree() {
    let _exclusive = exclusive();
    let (engine, faults) = packed_workload();
    assert_tracing_arms_agree(&engine, &faults);
}

#[test]
#[ignore = "release-mode timing; run with --release -- --ignored --test-threads=1"]
fn tracing_into_a_profiler_costs_little() {
    let _exclusive = exclusive();
    let (engine, faults) = packed_workload();
    assert_tracing_arms_agree(&engine, &faults);

    let on_over_off = b_over_a(
        || drop(engine.report(&faults).unwrap()),
        || {
            trace::set_enabled(true);
            drop(engine.report(&faults).unwrap());
            trace::set_enabled(false);
        },
    );
    let overhead_pct = (on_over_off - 1.0) * 100.0;
    println!("tracing overhead: {overhead_pct:+.2}%");
    assert!(
        overhead_pct <= TRACE_OVERHEAD_CEILING_PCT,
        "tracing overhead {overhead_pct:+.2}% exceeds {TRACE_OVERHEAD_CEILING_PCT}%"
    );
}
