//! The reference suite: every [`CoverageEngine`] path must agree with
//! [`twm_coverage::fault_detected`], the deliberately naive reference (a
//! fresh `FaultyMemory`, `fill_random`, and a full-address sweep of the
//! test per content round).
//!
//! `report` lane-batches SAF/TF faults and runs the rest on a fault-local
//! arena in cheap-first order; `verdicts` and `compare` stream one fault at
//! a time; `injection_detected` sweeps a multi-fault footprint. Each is
//! checked here against the reference — verdict by verdict and in universe
//! order — across word widths 1–64, both content policies, one or two
//! contents per fault, serial, parallel and degenerate thread counts, and
//! TWM_TA transparent tests.
//!
//! Thread counts are passed explicitly through `Strategy::Parallel` (not
//! the `TWM_COVERAGE_THREADS` environment variable) so concurrently
//! running tests cannot race on process-global state. Without the
//! `parallel` feature every strategy resolves to one thread, and the suite
//! checks the serial build's kernels against the same reference.

use proptest::prelude::*;

use twm_core::{TransparentScheme, TwmTa};
use twm_coverage::universe::{CouplingScope, UniverseBuilder};
use twm_coverage::{
    fault_detected, ContentPolicy, CoverageEngine, CoverageError, CoverageReport,
    EvaluationOptions, FaultVerdict, Strategy as Exec,
};
use twm_march::algorithms::{march_c_minus, mats_plus};
use twm_march::MarchTest;
use twm_mem::{BitAddress, Fault, MemError, MemoryConfig, Transition};

/// Serial plus the parallel thread counts every equivalence is checked at.
const STRATEGIES: [Exec; 4] = [
    Exec::Serial,
    Exec::Parallel { threads: 2 },
    Exec::Parallel { threads: 3 },
    Exec::Parallel { threads: 5 },
];

fn arb_width() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(1usize),
        Just(2),
        Just(4),
        Just(8),
        Just(16),
        Just(32),
        Just(64)
    ]
}

fn arb_transparent_width() -> impl Strategy<Value = usize> {
    prop_oneof![Just(2usize), Just(4), Just(8), Just(16), Just(32), Just(64)]
}

fn random(seed: u64, contents_per_fault: usize) -> EvaluationOptions {
    EvaluationOptions {
        content: ContentPolicy::Random { seed },
        contents_per_fault,
    }
}

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

/// The reference verdicts of a universe, in universe order.
fn reference_verdicts(
    test: &MarchTest,
    universe: &[Fault],
    config: MemoryConfig,
    options: EvaluationOptions,
) -> Vec<FaultVerdict> {
    universe
        .iter()
        .map(|&fault| FaultVerdict {
            fault,
            detected: fault_detected(test, &[fault], config, options).unwrap(),
        })
        .collect()
}

/// The reference report of a universe: reference verdicts recorded in
/// universe order, so `undetected` is in universe order too.
fn reference_report(
    test: &MarchTest,
    universe: &[Fault],
    config: MemoryConfig,
    options: EvaluationOptions,
) -> CoverageReport {
    let mut report = CoverageReport::new(test.name());
    for verdict in reference_verdicts(test, universe, config, options) {
        report.record(verdict.fault, verdict.detected);
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Mixed-class universes (SAF/TF packed, coupling faults scalar) under
    /// random content: `report` equals the reference for every strategy,
    /// including the order of the `undetected` list.
    #[test]
    fn report_matches_reference_for_mixed_universes(
        width in arb_width(),
        words in 2usize..6,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        contents_per_fault in 1usize..3,
        use_mats in any::<bool>(),
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::SameWordAndAdjacent)
            .sample_per_class(15, universe_seed)
            .build();
        let test = if use_mats { mats_plus() } else { march_c_minus() };
        let options = random(content_seed, contents_per_fault);
        let reference = reference_report(&test, &faults, config, options);
        for strategy in STRATEGIES {
            let report = engine(&test, config, options, strategy).report(&faults).unwrap();
            prop_assert_eq!(&report.undetected, &reference.undetected);
            prop_assert_eq!(&report, &reference, "strategy {:?}", strategy);
        }
    }

    /// Transparent word-oriented tests (the paper's TWM_TA transform, with
    /// data backgrounds) over every fault class, one or two contents.
    #[test]
    fn report_matches_reference_for_transparent_tests(
        width in arb_transparent_width(),
        words in 2usize..5,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        contents_per_fault in 1usize..3,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(15, universe_seed)
            .build();
        let transformed = TwmTa::new(width).unwrap().transform(&march_c_minus()).unwrap();
        let test = transformed.transparent_test();
        let options = random(content_seed, contents_per_fault);
        let reference = reference_report(test, &faults, config, options);
        for strategy in STRATEGIES {
            let report = engine(test, config, options, strategy).report(&faults).unwrap();
            prop_assert_eq!(&report, &reference, "strategy {:?}", strategy);
        }
    }

    /// The all-zero content policy arms every arena without an image.
    #[test]
    fn report_matches_reference_for_zero_content(
        width in arb_width(),
        words in 2usize..6,
        universe_seed in 0u64..1_000,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(20, universe_seed)
            .build();
        let options = EvaluationOptions {
            content: ContentPolicy::Zeros,
            contents_per_fault: 1,
        };
        let test = march_c_minus();
        let reference = reference_report(&test, &faults, config, options);
        for strategy in STRATEGIES {
            let report = engine(&test, config, options, strategy).report(&faults).unwrap();
            prop_assert_eq!(&report, &reference, "strategy {:?}", strategy);
        }
    }

    /// Size-1 universes of any class and coupling-only universes (nothing
    /// to pack) take the same batched path and still match.
    #[test]
    fn report_matches_reference_for_single_fault_and_coupling_only_universes(
        width in arb_width(),
        words in 2usize..5,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        pick in 0usize..1_000,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let all = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(10, universe_seed)
            .build();
        let single = vec![all[pick % all.len()]];
        let coupling = UniverseBuilder::new(config)
            .coupling_state()
            .coupling_idempotent()
            .coupling_inversion()
            .sample_per_class(12, universe_seed)
            .build();
        let options = random(content_seed, 1);
        let test = march_c_minus();
        for universe in [&single, &coupling] {
            let reference = reference_report(&test, universe, config, options);
            for strategy in STRATEGIES {
                let report = engine(&test, config, options, strategy).report(universe).unwrap();
                prop_assert_eq!(&report, &reference, "strategy {:?}", strategy);
            }
        }
    }

    /// `verdicts` yields the reference verdicts in universe order, and
    /// `compare` against a `with_test` sibling reports exactly the
    /// reference disagreements.
    #[test]
    fn verdicts_and_compare_match_reference_in_universe_order(
        width in prop_oneof![Just(8usize), Just(16)],
        words in 2usize..5,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(20, universe_seed)
            .build();
        let options = random(content_seed, 1);
        let first = march_c_minus();
        let transformed = TwmTa::new(width).unwrap().transform(&march_c_minus()).unwrap();
        let second = transformed.transparent_test();
        let by_first = reference_verdicts(&first, &faults, config, options);
        let by_second = reference_verdicts(second, &faults, config, options);
        for strategy in STRATEGIES {
            let e = engine(&first, config, options, strategy);
            let streamed: Vec<FaultVerdict> =
                e.verdicts(&faults).collect::<Result<_, _>>().unwrap();
            prop_assert_eq!(&streamed, &by_first, "strategy {:?}", strategy);

            let cmp = e.compare(&e.with_test(second).unwrap(), &faults).unwrap();
            prop_assert_eq!(&cmp.first, &reference_report(&first, &faults, config, options));
            prop_assert_eq!(&cmp.second, &reference_report(second, &faults, config, options));
            let expected: Vec<(Fault, bool, bool)> = by_first
                .iter()
                .zip(&by_second)
                .filter(|(a, b)| a.detected != b.detected)
                .map(|(a, b)| (a.fault, a.detected, b.detected))
                .collect();
            let actual: Vec<(Fault, bool, bool)> = cmp
                .disagreements
                .iter()
                .map(|d| (d.fault, d.detected_by_first, d.detected_by_second))
                .collect();
            prop_assert_eq!(actual, expected);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Full SAF+TF enumeration of a 4-word × 64-bit memory: 1024 faults,
    /// 16 full 64-lane batches, so batch boundaries are exercised.
    #[test]
    fn report_matches_reference_across_batch_boundaries(
        content_seed in 0u64..1_000,
        contents_per_fault in 1usize..3,
    ) {
        let config = MemoryConfig::new(4, 64).unwrap();
        let faults = UniverseBuilder::new(config).stuck_at().transition().build();
        prop_assert!(faults.len() > 4 * 64);
        let options = random(content_seed, contents_per_fault);
        let test = march_c_minus();
        let reference = reference_report(&test, &faults, config, options);
        for strategy in STRATEGIES {
            let report = engine(&test, config, options, strategy).report(&faults).unwrap();
            prop_assert_eq!(&report, &reference, "strategy {:?}", strategy);
        }
    }

    /// Degenerate thread counts (one thread; more threads than faults or
    /// work items) still match.
    #[test]
    fn degenerate_thread_counts_match_reference(
        threads in prop_oneof![Just(1usize), Just(64), Just(1000)],
        universe_seed in 0u64..1_000,
    ) {
        let config = MemoryConfig::new(4, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .coupling_inversion()
            .sample_per_class(10, universe_seed)
            .build();
        let options = EvaluationOptions::default();
        let test = march_c_minus();
        let e = engine(&test, config, options, Exec::Parallel { threads });
        prop_assert_eq!(e.report(&faults).unwrap(), reference_report(&test, &faults, config, options));
        let streamed: Vec<FaultVerdict> = e.verdicts(&faults).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(streamed, reference_verdicts(&test, &faults, config, options));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// One engine reused across several universes matches the reference on
    /// each — the arena pools and the persistent workers leak no state
    /// between reports.
    #[test]
    fn engine_reuse_across_universes_matches_reference(
        universe_seeds in prop::collection::vec(0u64..1_000, 2..5),
        threads in 1usize..5,
    ) {
        let config = MemoryConfig::new(5, 4).unwrap();
        let test = march_c_minus();
        let options = EvaluationOptions::default();
        let reused = engine(&test, config, options, Exec::Parallel { threads });
        for seed in universe_seeds {
            let faults = UniverseBuilder::new(config)
                .all_classes()
                .sample_per_class(12, seed)
                .build();
            let reference = reference_report(&test, &faults, config, options);
            prop_assert_eq!(reused.report(&faults).unwrap(), reference);
        }
    }

    /// `with_test` siblings share the template's contents and workers; they
    /// report their own test exactly like the reference, repeatedly, and
    /// the template keeps reporting its own.
    #[test]
    fn with_test_siblings_match_reference(
        seed in any::<u64>(),
        contents_per_fault in 1usize..3,
    ) {
        let config = MemoryConfig::new(8, 4).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(30, 3)
            .build();
        let options = random(seed, contents_per_fault);
        let candidate = TwmTa::new(4).unwrap().transform(&march_c_minus()).unwrap();
        let candidate = candidate.transparent_test();
        let template_reference = reference_report(&mats_plus(), &faults, config, options);
        let sibling_reference = reference_report(candidate, &faults, config, options);
        for strategy in STRATEGIES {
            let template = engine(&mats_plus(), config, options, strategy);
            let sibling = template.with_test(candidate).unwrap();
            prop_assert_eq!(&sibling.report(&faults).unwrap(), &sibling_reference);
            prop_assert_eq!(&sibling.report(&faults).unwrap(), &sibling_reference);
            prop_assert_eq!(&template.report(&faults).unwrap(), &template_reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Multi-fault injections: the footprint-limited `injection_detected`
    /// agrees with the reference's full sweep for any fault subset,
    /// content seed and contents-per-fault count.
    #[test]
    fn injection_detected_matches_reference(
        pick in prop::collection::vec(0usize..1000, 1..5),
        seed in any::<u64>(),
        contents in 1usize..3,
    ) {
        let config = MemoryConfig::new(10, 4).unwrap();
        let pool = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::AllPairs)
            .sample_per_class(40, 5)
            .build();
        let faults: Vec<Fault> = pick.iter().map(|&i| pool[i % pool.len()]).collect();
        let options = random(seed, contents);
        let test = march_c_minus();
        let engine = engine(&test, config, options, Exec::Serial);
        prop_assert_eq!(
            engine.injection_detected(&faults).unwrap(),
            fault_detected(&test, &faults, config, options).unwrap()
        );
    }
}

/// A report whose universe holds out-of-range faults in both the packed
/// and the scalar share returns the error of the earliest one in universe
/// order, for every strategy — whichever worker hits a bad fault first.
#[test]
fn report_returns_the_earliest_error_in_universe_order() {
    let config = MemoryConfig::new(4, 2).unwrap();
    let mut faults = UniverseBuilder::new(config).all_classes().build();
    let bad_saf = Fault::stuck_at(BitAddress::new(99, 0), true);
    let bad_coupling = Fault::coupling_idempotent(
        BitAddress::new(77, 0),
        BitAddress::new(0, 0),
        Transition::Rising,
        true,
    );
    let at = faults.len() / 2;
    faults.insert(at, bad_saf);
    faults.insert(at - 5, bad_coupling);
    for strategy in STRATEGIES {
        let e = engine(&march_c_minus(), config, random(3, 1), strategy);
        let error = e.report(&faults).unwrap_err();
        assert!(
            matches!(
                error,
                CoverageError::Mem(MemError::FaultCellOutOfRange { cell }) if cell.word == 77
            ),
            "strategy {strategy:?}: {error}"
        );
    }
}

/// Streams abandoned mid-window leave the engine reusable:
/// later reports and streams on the same engine still match the reference.
#[test]
fn abandoned_streams_leave_the_engine_matching_reference() {
    let config = MemoryConfig::new(6, 4).unwrap();
    let faults = UniverseBuilder::new(config)
        .all_classes()
        .sample_per_class(30, 3)
        .build();
    let options = random(11, 2);
    let test = march_c_minus();
    let reference = reference_report(&test, &faults, config, options);
    for strategy in STRATEGIES {
        let e = engine(&test, config, options, strategy);
        for taken in [1, 2, 70] {
            let mut stream = e.verdicts(&faults);
            for _ in 0..taken {
                assert!(matches!(stream.next(), Some(Ok(_))));
            }
        }
        assert_eq!(
            e.report(&faults).unwrap(),
            reference,
            "strategy {strategy:?}"
        );
        let streamed: Vec<FaultVerdict> = e.verdicts(&faults).collect::<Result<_, _>>().unwrap();
        assert_eq!(
            streamed,
            reference_verdicts(&test, &faults, config, options)
        );
    }
}

/// The reference is anchored to known results, not only to the engine:
/// March C- (all-zero content) and its TWM_TA transparent form (random
/// content) detect every stuck-at and transition fault, and the engine's
/// report agrees with the reference for every strategy.
#[test]
fn reference_detects_every_saf_and_tf_under_march_c_minus_and_twm_ta() {
    let config = MemoryConfig::new(4, 8).unwrap();
    let faults = UniverseBuilder::new(config).stuck_at().transition().build();
    let transformed = TwmTa::new(8).unwrap().transform(&march_c_minus()).unwrap();
    let zeros = EvaluationOptions {
        content: ContentPolicy::Zeros,
        contents_per_fault: 1,
    };
    for (test, options) in [
        (&march_c_minus(), zeros),
        (transformed.transparent_test(), random(7, 2)),
    ] {
        for &fault in &faults {
            assert!(
                fault_detected(test, &[fault], config, options).unwrap(),
                "{} misses {fault:?}",
                test.name()
            );
        }
        for strategy in STRATEGIES {
            let report = engine(test, config, options, strategy)
                .report(&faults)
                .unwrap();
            assert_eq!(report.detected_faults(), faults.len(), "{strategy:?}");
            assert!(report.undetected.is_empty());
        }
    }
}

/// MATS+ `⇕(w0); ⇑(r0,w1); ⇓(r1,w0)` from all-zero content detects every
/// stuck-at and rising transition fault but no falling one: the final `w0`
/// is never read back. Reference and engine both report exactly the
/// falling transition faults as undetected, in universe order.
#[test]
fn reference_and_engine_report_the_known_mats_plus_gap() {
    let config = MemoryConfig::new(4, 4).unwrap();
    let mut faults = Vec::new();
    let mut falling = Vec::new();
    for word in 0..4 {
        for bit in 0..4 {
            let cell = BitAddress::new(word, bit);
            faults.push(Fault::stuck_at(cell, false));
            faults.push(Fault::stuck_at(cell, true));
            faults.push(Fault::transition(cell, Transition::Rising));
            faults.push(Fault::transition(cell, Transition::Falling));
            falling.push(Fault::transition(cell, Transition::Falling));
        }
    }
    let options = EvaluationOptions {
        content: ContentPolicy::Zeros,
        contents_per_fault: 1,
    };
    let test = mats_plus();
    let reference = reference_report(&test, &faults, config, options);
    assert_eq!(reference.undetected, falling);
    for strategy in STRATEGIES {
        let report = engine(&test, config, options, strategy)
            .report(&faults)
            .unwrap();
        assert_eq!(report, reference, "strategy {strategy:?}");
    }
}

/// The reference itself rejects an empty fault set, like
/// `injection_detected`.
#[test]
fn reference_rejects_an_empty_fault_set() {
    let config = MemoryConfig::new(4, 2).unwrap();
    assert!(matches!(
        fault_detected(&march_c_minus(), &[], config, EvaluationOptions::default()),
        Err(CoverageError::EmptyUniverse)
    ));
}
