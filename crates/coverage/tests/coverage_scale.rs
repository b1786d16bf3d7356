//! Coverage at production memory shapes.
//!
//! On a 1M×32 memory, a serial TWM_TA × March C− engine must evaluate
//! 2,048 inversion coupling faults within a quarter of a second on each
//! of three paths:
//!
//! * `report`, which answers every fault from the verdict table (a
//!   lookup per fault, after building the coupling rows once);
//! * the `verdicts` stream, which resolves the same table a bounded
//!   window at a time;
//! * `injection_detected` on each fault alone, which sweeps the fault's
//!   footprint words on a pooled arena. The arena restores only those
//!   words; a per-fault reset and reload of the whole 4 MiB memory takes
//!   over a second here.
//!
//! Every path's verdicts must equal the naive full-sweep reference
//! (`fault_detected`) on a sample of the faults, and each other on all.
//!
//! On a 64K×32 memory, `aliasing` over 2,048 SAF/TF faults of a TWM_TA ×
//! March C− engine must finish within five seconds, and its report must
//! equal a naive full `run_scheme_session` per fault on a sample. It
//! simulates the fault-free session once and then sweeps each fault's
//! footprint; a whole-memory session per fault takes minutes here.
//!
//! Ignored by default (a debug build is far too slow); run it in release
//! mode:
//!
//! ```text
//! cargo test --release -p twm-coverage --test coverage_scale -- --ignored
//! ```

use std::time::{Duration, Instant};

use twm_bist::{run_scheme_session, Misr};
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{
    fault_detected, AliasingReport, ContentPolicy, CoverageEngine, FaultVerdict, Strategy,
    UniverseBuilder,
};
use twm_march::algorithms::march_c_minus;
use twm_mem::{BitAddress, Fault, FaultyMemory, MemoryConfig, SplitMix64, Transition};

const WORDS: usize = 1 << 20;
const WIDTH: usize = 32;
const FAULTS: usize = 2048;
const REFERENCE_SAMPLE: usize = 16;
const BUDGET: Duration = Duration::from_millis(250);
const SEED: u64 = 0x1_0032;

/// `FAULTS` inversion coupling faults on random same-word and
/// adjacent-word cell pairs, the aggressor above or below the victim.
fn coupling_universe() -> Vec<Fault> {
    let mut rng = SplitMix64::new(SEED);
    (0..FAULTS)
        .map(|_| {
            let word = rng.next_below(WORDS - 1);
            let (aggressor_word, victim_word) = match rng.next_below(3) {
                0 => (word, word),
                1 => (word, word + 1),
                _ => (word + 1, word),
            };
            let aggressor = BitAddress::new(aggressor_word, rng.next_below(WIDTH));
            let mut victim = BitAddress::new(victim_word, rng.next_below(WIDTH));
            if victim == aggressor {
                victim.bit = (victim.bit + 1) % WIDTH;
            }
            let transition = if rng.next_bool() {
                Transition::Rising
            } else {
                Transition::Falling
            };
            Fault::coupling_inversion(aggressor, victim, transition)
        })
        .collect()
}

/// A serial TWM_TA × March C− engine on `config`.
fn engine(config: MemoryConfig) -> CoverageEngine {
    let registry = SchemeRegistry::all(config.width()).unwrap();
    CoverageEngine::for_scheme(
        registry.get(SchemeId::TwmTa).unwrap(),
        &march_c_minus(),
        config,
    )
    .unwrap()
    .content(ContentPolicy::Random { seed: SEED })
    .strategy(Strategy::Serial)
    .build()
    .unwrap()
}

/// `detected[i]` must be the full-sweep reference's verdict on
/// `universe[i]` for a sample of the faults.
fn assert_sample_matches_reference(engine: &CoverageEngine, universe: &[Fault], detected: &[bool]) {
    let stride = FAULTS / REFERENCE_SAMPLE;
    for (fault, &detected) in universe.iter().zip(detected).step_by(stride) {
        let reference =
            fault_detected(engine.test(), &[*fault], engine.config(), engine.options()).unwrap();
        assert_eq!(
            detected, reference,
            "verdict on {fault:?} differs from the full-sweep reference"
        );
    }
}

#[test]
#[ignore = "release-mode scale check; run with --release -- --ignored"]
fn coupling_report_on_1m_by_32_finishes_within_a_quarter_second() {
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let engine = engine(config);
    let universe = coupling_universe();

    let start = Instant::now();
    let report = engine.report(&universe).unwrap();
    let elapsed = start.elapsed();
    println!(
        "1Mx32 TWM_TA x March C- report: {FAULTS} CFin faults in {:.4} s ({} undetected)",
        elapsed.as_secs_f64(),
        report.undetected.len()
    );
    assert!(
        elapsed < BUDGET,
        "report took {elapsed:?}, over the {BUDGET:?} budget"
    );
    assert_eq!(report.total_faults(), FAULTS);
    let detected: Vec<bool> = universe
        .iter()
        .map(|fault| !report.undetected.contains(fault))
        .collect();
    assert_sample_matches_reference(&engine, &universe, &detected);
}

#[test]
#[ignore = "release-mode scale check; run with --release -- --ignored"]
fn coupling_verdicts_on_1m_by_32_finish_within_a_quarter_second() {
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let engine = engine(config);
    let universe = coupling_universe();

    let start = Instant::now();
    let verdicts: Vec<FaultVerdict> = engine
        .verdicts(&universe)
        .collect::<Result<_, _>>()
        .unwrap();
    let elapsed = start.elapsed();
    let detected: Vec<bool> = verdicts.iter().map(|verdict| verdict.detected).collect();
    println!(
        "1Mx32 TWM_TA x March C- verdicts: {FAULTS} CFin faults in {:.4} s ({} undetected)",
        elapsed.as_secs_f64(),
        detected.iter().filter(|&&hit| !hit).count()
    );
    assert!(
        elapsed < BUDGET,
        "the verdicts stream took {elapsed:?}, over the {BUDGET:?} budget"
    );
    assert_sample_matches_reference(&engine, &universe, &detected);
    let report = engine.report(&universe).unwrap();
    let escaped: Vec<Fault> = verdicts
        .iter()
        .filter(|verdict| !verdict.detected)
        .map(|verdict| verdict.fault)
        .collect();
    assert_eq!(report.undetected, escaped, "report and stream must agree");
}

#[test]
#[ignore = "release-mode scale check; run with --release -- --ignored"]
fn coupling_injections_on_1m_by_32_finish_within_a_quarter_second() {
    let config = MemoryConfig::new(WORDS, WIDTH).unwrap();
    let engine = engine(config);
    let universe = coupling_universe();

    let start = Instant::now();
    let detected: Vec<bool> = universe
        .iter()
        .map(|fault| engine.injection_detected(&[*fault]).unwrap())
        .collect();
    let elapsed = start.elapsed();
    println!(
        "1Mx32 TWM_TA x March C- injections: {FAULTS} CFin faults in {:.4} s ({} undetected)",
        elapsed.as_secs_f64(),
        detected.iter().filter(|&&hit| !hit).count()
    );
    assert!(
        elapsed < BUDGET,
        "the single-fault injections took {elapsed:?}, over the {BUDGET:?} budget"
    );
    assert_sample_matches_reference(&engine, &universe, &detected);
    let report = engine.report(&universe).unwrap();
    let escaped: Vec<Fault> = universe
        .iter()
        .zip(&detected)
        .filter(|(_, &hit)| !hit)
        .map(|(fault, _)| *fault)
        .collect();
    assert_eq!(report.undetected, escaped, "report and sweeps must agree");
}

/// Words of the aliasing check's memory.
const ALIASING_WORDS: usize = 1 << 16;
/// Wall-time budget of the aliasing check's 2,048 faults.
const ALIASING_BUDGET: Duration = Duration::from_secs(5);

/// The naive aliasing report of `faults`: a fresh memory per fault, filled
/// with the engine's first content round, runs the full scheme session.
fn naive_aliasing(engine: &CoverageEngine, faults: &[Fault], misr: &Misr) -> AliasingReport {
    let transform = engine.scheme_transform().unwrap();
    let mut report = AliasingReport::default();
    for &fault in faults {
        let mut memory = FaultyMemory::with_faults(engine.config(), vec![fault]).unwrap();
        memory.fill_random(SEED);
        let outcome = run_scheme_session(transform, &mut memory, misr.clone()).unwrap();
        report.total += 1;
        report.detected_exact += usize::from(outcome.fault_detected_exact());
        report.detected_signature += usize::from(outcome.fault_detected());
        if outcome.aliased() {
            report.aliased.push(fault);
        }
    }
    report
}

#[test]
#[ignore = "release-mode scale check; run with --release -- --ignored"]
fn aliasing_on_64k_by_32_finishes_within_five_seconds() {
    let config = MemoryConfig::new(ALIASING_WORDS, WIDTH).unwrap();
    let engine = engine(config);
    let universe = UniverseBuilder::new(config)
        .stuck_at()
        .transition()
        .sample_per_class(FAULTS / 2, SEED)
        .build();
    assert_eq!(universe.len(), FAULTS);
    let misr = Misr::standard(WIDTH);

    let start = Instant::now();
    let report = engine.aliasing(&misr, &universe).unwrap();
    let elapsed = start.elapsed();
    println!(
        "64Kx32 TWM_TA x March C- aliasing: {FAULTS} SAF/TF faults in {:.4} s \
         ({} exact, {} by signature, {} aliased)",
        elapsed.as_secs_f64(),
        report.detected_exact,
        report.detected_signature,
        report.aliased.len()
    );
    assert!(
        elapsed < ALIASING_BUDGET,
        "aliasing took {elapsed:?}, over the {ALIASING_BUDGET:?} budget"
    );
    assert_eq!(report.total, FAULTS);
    let sample: Vec<Fault> = universe
        .iter()
        .step_by(FAULTS / REFERENCE_SAMPLE)
        .copied()
        .collect();
    assert_eq!(
        engine.aliasing(&misr, &sample).unwrap(),
        naive_aliasing(&engine, &sample, &misr),
        "aliasing differs from the naive session on the sample"
    );
}
