//! Property tests for the streaming verdict path: collecting
//! [`CoverageEngine::verdicts`] must reproduce [`CoverageEngine::report`]
//! **exactly** — same faults, same order, same detection bits — for serial
//! and parallel engines across thread counts, and the stream must work from
//! a plain iterator (the out-of-memory-universe case, where the fault list
//! is never materialised by the caller).

use proptest::prelude::*;

use twm_core::{TransparentScheme, TwmTa};
use twm_coverage::universe::{CouplingScope, UniverseBuilder};
use twm_coverage::{
    ContentPolicy, CoverageEngine, CoverageError, CoverageReport, EvaluationOptions, FaultVerdict,
    Strategy as Exec,
};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::{Fault, MemoryConfig};

fn engine(
    test: &MarchTest,
    config: MemoryConfig,
    options: EvaluationOptions,
    strategy: Exec,
) -> CoverageEngine {
    CoverageEngine::builder(config)
        .test(test)
        .options(options)
        .strategy(strategy)
        .build()
        .unwrap()
}

/// Folds a verdict stream into a report exactly like `report` does.
fn collect_report(
    name: &str,
    verdicts: impl Iterator<Item = Result<FaultVerdict, CoverageError>>,
) -> CoverageReport {
    let mut report = CoverageReport::new(name);
    for verdict in verdicts {
        let verdict = verdict.expect("stream must not error on a valid universe");
        report.record(verdict.fault, verdict.detected);
    }
    report
}

fn thread_strategies() -> Vec<Exec> {
    let mut strategies = vec![Exec::Serial];
    if cfg!(feature = "parallel") {
        strategies.extend([2usize, 3, 5, 16].map(|threads| Exec::Parallel { threads }));
    }
    strategies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Collecting `verdicts()` reproduces `report()` exactly, for serial
    /// and parallel engines at several thread counts.
    #[test]
    fn collected_verdicts_reproduce_report(
        width in prop_oneof![Just(1usize), Just(4), Just(8)],
        words in 2usize..7,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        use_mats in any::<bool>(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::SameWordAndAdjacent)
            .sample_per_class(20, universe_seed)
            .build();
        let test = if use_mats { mats_plus() } else { march_c_minus() };
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: content_seed },
            contents_per_fault: 1,
        };
        let reference = engine(&test, config, options, Exec::Serial)
            .report(&faults).unwrap();
        for strategy in thread_strategies() {
            let streaming = engine(&test, config, options, strategy);
            let collected = collect_report(test.name(), streaming.verdicts(&faults));
            prop_assert_eq!(&collected, &reference, "strategy {:?}", strategy);
            // And report() itself agrees, of course.
            prop_assert_eq!(&streaming.report(&faults).unwrap(), &reference);
        }
    }

    /// Transparent word-oriented tests with several contents per fault:
    /// streaming still reproduces the report.
    #[test]
    fn transparent_streaming_matches_report(
        width in prop_oneof![Just(2usize), Just(4)],
        words in 2usize..5,
        universe_seed in 0u64..1_000,
        contents_per_fault in 1usize..3,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(12, universe_seed)
            .build();
        let transformed = TwmTa::new(width).unwrap()
            .transform(&march_c_minus()).unwrap();
        let test = transformed.transparent_test();
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: universe_seed },
            contents_per_fault,
        };
        for strategy in thread_strategies() {
            let e = engine(test, config, options, strategy);
            let collected = collect_report(test.name(), e.verdicts(&faults));
            prop_assert_eq!(collected, e.report(&faults).unwrap());
        }
    }

    /// The stream accepts a lazy fault iterator (never materialised by the
    /// caller) and yields verdicts in universe order.
    #[test]
    fn streaming_from_lazy_iterator_preserves_order(
        words in 2usize..8,
        universe_seed in 0u64..1_000,
    ) {
        let config = MemoryConfig::new(words, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .sample_per_class(40, universe_seed)
            .build();
        for strategy in thread_strategies() {
            let e = engine(&march_c_minus(), config, EvaluationOptions::default(), strategy);
            // Feed the universe as a one-shot iterator of owned faults.
            let streamed: Vec<FaultVerdict> = e
                .verdicts(faults.iter().copied())
                .collect::<Result<_, _>>()
                .unwrap();
            prop_assert_eq!(streamed.len(), faults.len());
            let order: Vec<Fault> = streamed.iter().map(|v| v.fault).collect();
            prop_assert_eq!(&order, &faults, "strategy {:?}", strategy);
        }
    }
}

/// An empty universe is an empty stream (only `report` treats it as an
/// error).
#[test]
fn empty_universe_streams_nothing() {
    let config = MemoryConfig::new(4, 2).unwrap();
    let e = engine(
        &march_c_minus(),
        config,
        EvaluationOptions::default(),
        Exec::Serial,
    );
    assert_eq!(e.verdicts(&[]).count(), 0);
    assert!(matches!(e.report(&[]), Err(CoverageError::EmptyUniverse)));
}

/// Builder validation: zero worker threads and a missing test are rejected
/// with dedicated errors, not clamped or defaulted.
#[test]
fn builder_rejects_zero_threads_and_missing_test() {
    let config = MemoryConfig::new(4, 2).unwrap();
    let zero = CoverageEngine::builder(config)
        .test(&march_c_minus())
        .strategy(Exec::Parallel { threads: 0 })
        .build();
    assert!(matches!(zero, Err(CoverageError::ZeroThreads)));
    let missing = CoverageEngine::builder(config).build();
    assert!(matches!(missing, Err(CoverageError::MissingTest)));
}

/// Engines over different memory shapes refuse to compare.
#[test]
fn compare_rejects_mismatched_configs() {
    let a = engine(
        &march_c_minus(),
        MemoryConfig::new(4, 2).unwrap(),
        EvaluationOptions::default(),
        Exec::Serial,
    );
    let b = engine(
        &march_c_minus(),
        MemoryConfig::new(8, 2).unwrap(),
        EvaluationOptions::default(),
        Exec::Serial,
    );
    let faults = UniverseBuilder::new(MemoryConfig::new(4, 2).unwrap())
        .stuck_at()
        .build();
    assert!(matches!(
        a.compare(&b, &faults),
        Err(CoverageError::ConfigMismatch)
    ));
}

/// A fault outside the memory shape surfaces as an error at its position
/// in the stream, and `report` returns the error of the earliest offending
/// fault — for any strategy.
#[test]
fn invalid_fault_errors_surface_in_order() {
    use twm_mem::BitAddress;
    let config = MemoryConfig::new(4, 2).unwrap();
    let mut faults = UniverseBuilder::new(config).stuck_at().build();
    let bad = Fault::stuck_at(BitAddress::new(99, 0), true);
    faults.insert(3, bad);
    for strategy in thread_strategies() {
        let e = engine(
            &march_c_minus(),
            config,
            EvaluationOptions::default(),
            strategy,
        );
        let mut stream = e.verdicts(&faults);
        for _ in 0..3 {
            assert!(matches!(stream.next(), Some(Ok(_))));
        }
        assert!(matches!(stream.next(), Some(Err(CoverageError::Mem(_)))));
        // The stream fuses after the first error.
        assert!(stream.next().is_none());
        assert!(matches!(e.report(&faults), Err(CoverageError::Mem(_))));
    }
}

#[test]
fn injection_detected_rejects_an_empty_set() {
    let config = MemoryConfig::new(8, 4).unwrap();
    let e = engine(
        &march_c_minus(),
        config,
        EvaluationOptions::default(),
        Exec::Serial,
    );
    assert!(matches!(
        e.injection_detected(&[]),
        Err(CoverageError::EmptyUniverse)
    ));
}
