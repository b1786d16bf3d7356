//! Coverage at a production memory shape. On a 1M×32 memory, a serial
//! TWM_TA × March C− engine must evaluate 2,048 inversion coupling faults
//! within a quarter of a second on each of its two paths:
//!
//! * `report`, which answers every fault from the verdict table (a
//!   lookup per fault, after building the coupling rows once);
//! * the `verdicts` stream, which runs each fault on the scalar arena.
//!   The arena restores only the fault's footprint words; a per-fault
//!   reset and reload of the whole 4 MiB memory takes over a second here.
//!
//! Both paths' verdicts must equal the naive full-sweep reference
//! (`fault_detected`) on a sample of the faults, and each other on all.
//!
//! Ignored by default (a debug build is far too slow); run it in release
//! mode:
//!
//! ```text
//! cargo test --release -p twm-coverage --test coverage_scale -- --ignored
//! ```

use std::time::{Duration, Instant};

use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{fault_detected, ContentPolicy, CoverageEngine, FaultVerdict, Strategy};
use twm_march::algorithms::march_c_minus;
use twm_mem::{BitAddress, Fault, MemoryConfig, SplitMix64, Transition};

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

/// The serial 1M×32 TWM_TA × March C− engine both checks run.
fn engine(config: MemoryConfig) -> CoverageEngine {
    let registry = SchemeRegistry::all(WIDTH).unwrap();
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
