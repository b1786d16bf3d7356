//! The reference suite: every [`CoverageEngine`] path must agree with
//! [`twm_coverage::fault_detected`], the deliberately naive reference (a
//! fresh `FaultyMemory`, `fill_random`, and a full-address sweep of the
//! test per content round).
//!
//! `report`, `verdicts` and `compare` look every fault up in the engine's
//! verdict table — stuck-at and transition faults in rows from one-word
//! runs, coupling faults in rows from lane-sliced one- and two-word runs —
//! without running the march; `injection_detected` sweeps a fault set's
//! footprint words on a pooled arena. Each is checked here against the
//! reference — verdict by verdict and in universe order — across word
//! widths 1–128, both content policies, one to three contents per fault,
//! serial, parallel and degenerate thread counts, TWM_TA transparent
//! tests, and literal tests that read before they write, which mismatch
//! on fault-free words outside any fault's footprint.
//!
//! `aliasing` runs the engine's scheme session fault-locally on the same
//! pooled arenas; its reports are checked against a naive oracle kept in
//! this file, a full `run_scheme_session` on a fresh memory per fault.
//!
//! An arena restores only a run's footprint words and leaves the rest of
//! the pooled memory as earlier runs left it; the reuse tests at the end
//! evaluate faults back to back on one serial engine, with overlapping
//! footprints and `aliasing` sessions in between, so stale content would
//! show as a wrong verdict or report.
//!
//! Thread counts are passed explicitly through `Strategy::Parallel` (not
//! the `TWM_COVERAGE_THREADS` environment variable) so concurrently
//! running tests cannot race on process-global state. Without the
//! `parallel` feature every strategy resolves to one thread, and the suite
//! checks the serial build's kernels against the same reference.

use proptest::prelude::*;

use twm_bist::{run_scheme_session, Misr};
use twm_core::scheme::{SchemeRegistry, SchemeTransform};
use twm_core::{TransparentScheme, TwmTa};
use twm_coverage::universe::{CouplingScope, UniverseBuilder};
use twm_coverage::{
    fault_detected, AliasingReport, ContentPolicy, CoverageEngine, CoverageError, CoverageReport,
    EvaluationOptions, FaultVerdict, Strategy as Exec,
};
use twm_march::algorithms::{march_c_minus, march_u, mats_plus};
use twm_march::notation::parse_march;
use twm_march::{DataPattern, DataSpec, MarchElement, MarchTest, Operation};
use twm_mem::{BitAddress, Fault, FaultyMemory, MemError, MemoryConfig, SplitMix64, Transition};

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

/// The naive aliasing oracle: per fault, a fresh memory carrying it and
/// the engine's first content round (all-zero under `Zeros`) runs the full
/// scheme session.
fn naive_aliasing(
    transform: &SchemeTransform,
    universe: &[Fault],
    config: MemoryConfig,
    options: EvaluationOptions,
    misr: &Misr,
) -> AliasingReport {
    let mut report = AliasingReport::default();
    for &fault in universe {
        let mut memory = FaultyMemory::with_faults(config, vec![fault]).unwrap();
        if let ContentPolicy::Random { seed } = options.content {
            memory.fill_random(seed);
        }
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

/// A serial engine for `scheme`'s transparent form of `source`.
fn scheme_engine(
    scheme: &dyn TransparentScheme,
    source: &MarchTest,
    config: MemoryConfig,
    options: EvaluationOptions,
) -> CoverageEngine {
    CoverageEngine::for_scheme(scheme, source, config)
        .unwrap()
        .options(options)
        .strategy(Exec::Serial)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Mixed-class universes (every class from the table) under random
    /// content: `report` equals the reference for
    /// every strategy, including the order of the `undetected` list.
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

    /// Size-1 universes of any class and coupling-only universes (only
    /// coupling rows of the table) take the same path and still match.
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
    /// 16 full 64-fault table items, so item boundaries are exercised.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `aliasing` equals the naive oracle for every registered scheme —
    /// TOMT's concurrent checker included — over sampled faults of every
    /// class, under both content policies and one or two contents per
    /// fault.
    #[test]
    fn aliasing_matches_the_naive_session_for_every_scheme(
        width in prop_oneof![Just(4usize), Just(8), Just(16)],
        words in 2usize..6,
        universe_seed in 0u64..1_000,
        content_seed in 0u64..1_000,
        zeros in any::<bool>(),
        contents in 1usize..3,
    ) {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::AllPairs)
            .sample_per_class(8, universe_seed)
            .build();
        let options = if zeros {
            EvaluationOptions {
                content: ContentPolicy::Zeros,
                contents_per_fault: 1,
            }
        } else {
            random(content_seed, contents)
        };
        let misr = Misr::standard(width);
        for scheme in SchemeRegistry::all(width).unwrap().iter() {
            let transform = scheme.transform(&march_c_minus()).unwrap();
            let e = scheme_engine(scheme, &march_c_minus(), config, options);
            prop_assert_eq!(
                e.aliasing(&misr, &faults).unwrap(),
                naive_aliasing(&transform, &faults, config, options, &misr),
                "{}",
                scheme.name()
            );
        }
    }
}

/// A report whose universe holds bad faults of every class returns the
/// error of the earliest one in universe order, for every strategy —
/// whichever worker hits a bad fault first, and whether it is out of
/// range (its aggressor or its victim) or couples a cell with itself —
/// the same error the verdict stream yields first.
#[test]
fn report_returns_the_earliest_error_in_universe_order() {
    let config = MemoryConfig::new(4, 2).unwrap();
    let good = UniverseBuilder::new(config).all_classes().build();
    let cell = BitAddress::new(2, 1);
    let bad_saf = Fault::stuck_at(BitAddress::new(99, 0), true);
    let bad_aggressor = Fault::coupling_idempotent(
        BitAddress::new(77, 0),
        BitAddress::new(0, 0),
        Transition::Rising,
        true,
    );
    let bad_victim =
        Fault::coupling_state(BitAddress::new(0, 0), BitAddress::new(1, 5), true, true);
    let self_coupled = Fault::coupling_inversion(cell, cell, Transition::Falling);
    let is_out_of_range = |error: &CoverageError, at: BitAddress| matches!(error, CoverageError::Mem(MemError::FaultCellOutOfRange { cell }) if *cell == at);
    let is_self_coupling = |error: &CoverageError| matches!(error, CoverageError::Mem(MemError::SelfCoupling { cell: c }) if *c == cell);
    let at = good.len() / 2;
    // (earlier, later): the earlier one decides the error.
    for (earlier, later) in [
        (bad_aggressor, bad_saf),
        (bad_saf, bad_aggressor),
        (self_coupled, bad_victim),
        (bad_victim, self_coupled),
        (self_coupled, bad_saf),
    ] {
        let mut faults = good.clone();
        faults.insert(at, later);
        faults.insert(at - 5, earlier);
        for strategy in STRATEGIES {
            let e = engine(&march_c_minus(), config, random(3, 1), strategy);
            let error = e.report(&faults).unwrap_err();
            let expected = match earlier {
                _ if earlier == self_coupled => is_self_coupling(&error),
                _ if earlier == bad_aggressor => is_out_of_range(&error, BitAddress::new(77, 0)),
                _ => is_out_of_range(&error, earlier.victim()),
            };
            assert!(expected, "{earlier:?} first, {strategy:?}: {error}");
            let streamed = e.verdicts(&faults).find_map(Result::err).unwrap();
            assert_eq!(streamed.to_string(), error.to_string(), "{strategy:?}");
            // The engine stays usable after the failed report.
            assert_eq!(
                e.report(&good).unwrap(),
                reference_report(&march_c_minus(), &good, config, random(3, 1))
            );
        }
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

/// Back-to-back faults whose footprints overlap: for every victim cell,
/// stuck-at and transition faults on that word at another
/// bit, then CFin, CFid and CFst faults with the aggressor in the word
/// below, the same word and the word above.
fn overlapping_sequence(config: MemoryConfig) -> Vec<Fault> {
    let (words, width) = (config.words(), config.width());
    let mut sequence = Vec::new();
    for word in 0..words {
        for bit in 0..width {
            let victim = BitAddress::new(word, bit);
            let other = BitAddress::new(word, (bit + 1) % width);
            sequence.push(Fault::stuck_at(victim, bit % 2 == 0));
            sequence.push(Fault::transition(other, Transition::Rising));
            sequence.push(Fault::stuck_at(other, bit % 2 == 1));
            sequence.push(Fault::transition(victim, Transition::Falling));
            let aggressor_words = [word.checked_sub(1), Some(word), Some(word + 1)];
            for aggressor_word in aggressor_words.into_iter().flatten() {
                if aggressor_word >= words {
                    continue;
                }
                let aggressor = BitAddress::new(aggressor_word, (bit + 1 + word) % width);
                if aggressor == victim {
                    continue;
                }
                sequence.push(Fault::coupling_inversion(
                    aggressor,
                    victim,
                    Transition::Rising,
                ));
                sequence.push(Fault::coupling_idempotent(
                    aggressor,
                    victim,
                    Transition::Falling,
                    bit % 2 == 0,
                ));
                sequence.push(Fault::coupling_state(
                    aggressor,
                    victim,
                    word % 2 == 0,
                    bit % 2 == 1,
                ));
            }
        }
    }
    sequence
}

/// The content options the reuse tests run under: all-zero content, and
/// one to three random contents per fault.
fn reuse_options() -> [EvaluationOptions; 4] {
    [
        EvaluationOptions {
            content: ContentPolicy::Zeros,
            contents_per_fault: 1,
        },
        random(5, 1),
        random(6, 2),
        random(7, 3),
    ]
}

/// One serial engine (so one pooled arena) evaluates every fault of an
/// overlapping sequence alone, back to back, through `injection_detected`
/// (and `verdicts`); the whole sequence again through `verdicts`, `report`
/// and `compare`; and consecutive pairs and triples as multi-fault
/// injections. Every verdict equals `fault_detected`.
///
/// Besides March C− and its TWM_TA transparent form on 4-bit words, a
/// short literal test runs on 1-bit words: its first write rises only the
/// cells that start at 0, so whether it excites a rising transition fault
/// or a rising aggressor hangs on the initial content of every footprint
/// word, and a word left stale by an earlier run flips verdicts.
#[test]
fn pooled_arena_reuse_matches_reference() {
    let transformed = TwmTa::new(4).unwrap().transform(&march_c_minus()).unwrap();
    let write_first = parse_march("write-first", "⇑(w1); ⇑(r1,w0); ⇓(r0)").unwrap();
    let wide = MemoryConfig::new(6, 4).unwrap();
    let narrow = MemoryConfig::new(8, 1).unwrap();
    let cases = [
        (wide, march_c_minus()),
        (wide, transformed.transparent_test().clone()),
        (narrow, write_first),
    ];
    for (config, test) in &cases {
        let (config, test) = (*config, test);
        let sequence = overlapping_sequence(config);
        for options in reuse_options() {
            let e = engine(test, config, options, Exec::Serial);
            let reference = reference_verdicts(test, &sequence, config, options);
            for (fault, expected) in sequence.iter().zip(&reference) {
                let streamed = e.verdicts([fault]).next().unwrap().unwrap();
                assert_eq!(streamed, *expected, "{} {options:?}", test.name());
                assert_eq!(
                    e.injection_detected(&[*fault]).unwrap(),
                    expected.detected,
                    "{} {options:?} {fault:?}",
                    test.name()
                );
            }
            let streamed: Vec<FaultVerdict> =
                e.verdicts(&sequence).collect::<Result<_, _>>().unwrap();
            assert_eq!(streamed, reference, "{} {options:?}", test.name());
            let report = reference_report(test, &sequence, config, options);
            assert_eq!(e.report(&sequence).unwrap(), report);
            let equivalence = e.compare(&e, &sequence).unwrap();
            assert_eq!(equivalence.first, report);
            assert!(equivalence.disagreements.is_empty());

            for size in [2, 3] {
                for set in sequence.windows(size).step_by(5) {
                    assert_eq!(
                        e.injection_detected(set).unwrap(),
                        fault_detected(test, set, config, options).unwrap(),
                        "{} {options:?} {set:?}",
                        test.name()
                    );
                }
            }
        }
    }
}

/// Footprint sweeps interleaved with `aliasing` sessions on one serial
/// scheme engine's pooled arena: each aliasing report equals the naive
/// oracle, and the verdicts after each aliasing pass still equal
/// `fault_detected`.
#[test]
fn arena_reuse_interleaved_with_aliasing_matches_reference() {
    let width = 4;
    let config = MemoryConfig::new(6, width).unwrap();
    let sequence = overlapping_sequence(config);
    let scheme = TwmTa::new(width).unwrap();
    let transform = scheme.transform(&march_c_minus()).unwrap();
    let test = transform.transparent_test();
    let misr = Misr::standard(width);
    for options in reuse_options() {
        let e = scheme_engine(&scheme, &march_c_minus(), config, options);
        let reference = reference_verdicts(test, &sequence, config, options);
        for (chunk, expected) in sequence.chunks(7).zip(reference.chunks(7)) {
            assert_eq!(
                e.aliasing(&misr, chunk).unwrap(),
                naive_aliasing(&transform, chunk, config, options, &misr),
                "{options:?} {chunk:?}"
            );
            for (fault, expected) in chunk.iter().zip(expected) {
                assert_eq!(
                    e.injection_detected(&[*fault]).unwrap(),
                    expected.detected,
                    "{options:?} {fault:?}"
                );
            }
            let streamed: Vec<FaultVerdict> = e.verdicts(chunk).collect::<Result<_, _>>().unwrap();
            assert_eq!(streamed, expected, "{options:?}");
            for set in chunk.windows(2) {
                assert_eq!(
                    e.injection_detected(set).unwrap(),
                    fault_detected(test, set, config, options).unwrap(),
                    "{options:?} {set:?}"
                );
            }
        }
    }
}

/// Word widths the verdict table is checked at: both sides of every
/// 64-bit storage block boundary.
const TABLE_WIDTHS: [usize; 11] = [1, 2, 7, 8, 31, 32, 33, 64, 65, 127, 128];

/// Reads 0 before writing anything: under random content every word with
/// a 1 mismatches, faulty or not.
fn read_first_up() -> MarchTest {
    parse_march("read-first-up", "⇑(r0,w1); ⇓(r1,w0)").unwrap()
}

/// Reads 1 before writing anything, then writes and reads 0.
fn read_first_down() -> MarchTest {
    parse_march("read-first-down", "⇓(r1); ⇑(w0,r0)").unwrap()
}

/// A transparent test that flips only the alternating bits: a cell it
/// never flips is judged against its content after a stuck-at fault
/// pinned it, so a stuck-at cell whose random content disagrees escapes.
fn transparent_alternating() -> MarchTest {
    let pattern = DataPattern::Custom(0x5555_5555_5555_5555_5555_5555_5555_5555);
    MarchTest::new(
        "transparent-alternating",
        vec![MarchElement::ascending(vec![
            Operation::read(DataSpec::TransparentXor(DataPattern::Zeros)),
            Operation::write(DataSpec::TransparentXor(pattern)),
            Operation::read(DataSpec::TransparentXor(pattern)),
        ])],
    )
    .unwrap()
}

/// The tests the verdict table is checked under at `width`: March C−,
/// March U, both read-first literal tests, the alternating transparent
/// test and, from 2 bits up, TWM_TA's transparent March C−.
fn table_tests(width: usize) -> Vec<MarchTest> {
    let mut tests = vec![
        march_c_minus(),
        march_u(),
        read_first_up(),
        read_first_down(),
        transparent_alternating(),
    ];
    if let Ok(scheme) = TwmTa::new(width) {
        let transformed = scheme.transform(&march_c_minus()).unwrap();
        tests.push(transformed.transparent_test().clone());
    }
    tests
}

/// Every SAF and TF of memories of 1–9 words, at every table width, under
/// every table test, all-zero content and one to three random contents:
/// `report` resolves each from the verdict table exactly as the reference
/// resolves it by a full sweep. The word count and the strategy rotate
/// with the case, so each count and each strategy meets many widths.
#[test]
fn report_resolves_every_saf_and_tf_like_the_reference() {
    let mut case = 0usize;
    for width in TABLE_WIDTHS {
        for test in table_tests(width) {
            for contents_per_fault in 0..4 {
                let options = match contents_per_fault {
                    0 => EvaluationOptions {
                        content: ContentPolicy::Zeros,
                        contents_per_fault: 1,
                    },
                    n => random(case as u64, n),
                };
                let config = MemoryConfig::new(1 + case % 9, width).unwrap();
                let strategy = STRATEGIES[case % STRATEGIES.len()];
                case += 1;
                let faults = UniverseBuilder::new(config).stuck_at().transition().build();
                let reference = reference_report(&test, &faults, config, options);
                let report = engine(&test, config, options, strategy)
                    .report(&faults)
                    .unwrap();
                assert_eq!(
                    report,
                    reference,
                    "{} on {}x{width}, {options:?}, {strategy:?}",
                    test.name(),
                    config.words()
                );
            }
        }
    }
}

/// `count` coupling faults of every kind between random distinct cells
/// anywhere in the memory: same-word pairs, and aggressor words below,
/// above, next to and far from the victim word.
fn sampled_coupling_faults(config: MemoryConfig, count: usize, seed: u64) -> Vec<Fault> {
    let mut rng = SplitMix64::new(seed);
    let cell = |rng: &mut SplitMix64| {
        BitAddress::new(
            rng.next_below(config.words()),
            rng.next_below(config.width()),
        )
    };
    let mut faults = Vec::with_capacity(count);
    while faults.len() < count {
        let aggressor = cell(&mut rng);
        let mut victim = cell(&mut rng);
        if rng.next_below(3) == 0 {
            victim.word = aggressor.word;
        }
        if victim == aggressor {
            continue;
        }
        let (first, second) = (rng.next_bool(), rng.next_bool());
        let transition = if first {
            Transition::Falling
        } else {
            Transition::Rising
        };
        faults.push(match rng.next_below(3) {
            0 => Fault::coupling_state(aggressor, victim, first, second),
            1 => Fault::coupling_idempotent(aggressor, victim, transition, second),
            _ => Fault::coupling_inversion(aggressor, victim, transition),
        });
    }
    faults
}

/// Every CFst, CFid and CFin between same-word and adjacent-word cells of
/// memories of 1–9 words, at every table width up to 8 (plus sampled pairs
/// between far words), and sampled coupling faults at the wider table
/// widths, under every table test, all-zero content and one to three
/// random contents: `report` resolves each from the coupling rows of the
/// verdict table exactly as the reference resolves it by a full sweep.
/// The word count and the strategy rotate with the case.
#[test]
fn report_resolves_every_coupling_fault_like_the_reference() {
    let mut case = 0usize;
    for width in TABLE_WIDTHS {
        for test in table_tests(width) {
            for contents_per_fault in 0..4 {
                let options = match contents_per_fault {
                    0 => EvaluationOptions {
                        content: ContentPolicy::Zeros,
                        contents_per_fault: 1,
                    },
                    n => random(case as u64, n),
                };
                let config = MemoryConfig::new(1 + case % 9, width).unwrap();
                let strategy = STRATEGIES[case % STRATEGIES.len()];
                case += 1;
                if config.cells() < 2 {
                    continue;
                }
                let mut faults = if width <= 8 {
                    UniverseBuilder::new(config)
                        .coupling_state()
                        .coupling_idempotent()
                        .coupling_inversion()
                        .coupling_scope(CouplingScope::SameWordAndAdjacent)
                        .build()
                } else {
                    Vec::new()
                };
                let sampled = if width <= 8 { 20 } else { 60 };
                faults.extend(sampled_coupling_faults(config, sampled, case as u64));
                let reference = reference_report(&test, &faults, config, options);
                let report = engine(&test, config, options, strategy)
                    .report(&faults)
                    .unwrap();
                assert_eq!(
                    report,
                    reference,
                    "{} on {}x{width}, {options:?}, {strategy:?}",
                    test.name(),
                    config.words()
                );
            }
        }
    }
}

/// A read-first literal test mismatches on fault-free words, so a fault
/// whose own word passes is still detected when another word fails. Every
/// fault class, through `report`, `verdicts`, `compare` and
/// `injection_detected`, on memories small enough that some rounds have
/// no such word and others do.
#[test]
fn fault_free_mismatches_outside_the_footprint_detect_on_every_path() {
    // The pinned case: on 5x1 with content seed 3, TF(1->0) at w3b0 is
    // caught only on another word.
    let pinned = MemoryConfig::new(5, 1).unwrap();
    let tf = Fault::transition(BitAddress::new(3, 0), Transition::Falling);
    let seed_3 = random(3, 1);
    assert!(fault_detected(&read_first_up(), &[tf], pinned, seed_3).unwrap());
    let e = engine(&read_first_up(), pinned, seed_3, Exec::Serial);
    assert!(e.verdicts([tf]).next().unwrap().unwrap().detected);
    assert!(e.injection_detected(&[tf]).unwrap());
    assert_eq!(e.report(&[tf]).unwrap().total_coverage(), 1.0);

    let options = [
        EvaluationOptions {
            content: ContentPolicy::Zeros,
            contents_per_fault: 1,
        },
        seed_3,
        random(8, 2),
        random(11, 3),
    ];
    for (words, width) in [(5, 1), (8, 4), (3, 7), (2, 33)] {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .coupling_scope(CouplingScope::SameWordAndAdjacent)
            .sample_per_class(12, words as u64)
            .build();
        for test in [read_first_up(), read_first_down()] {
            let other = if test.name() == "read-first-up" {
                read_first_down()
            } else {
                read_first_up()
            };
            for options in options {
                let context = format!("{} on {words}x{width}, {options:?}", test.name());
                let reference = reference_verdicts(&test, &faults, config, options);
                let report = reference_report(&test, &faults, config, options);
                for strategy in STRATEGIES {
                    let e = engine(&test, config, options, strategy);
                    assert_eq!(e.report(&faults).unwrap(), report, "{context} {strategy:?}");
                    let streamed: Vec<FaultVerdict> =
                        e.verdicts(&faults).collect::<Result<_, _>>().unwrap();
                    assert_eq!(streamed, reference, "{context} {strategy:?}");
                }
                let e = engine(&test, config, options, Exec::Serial);
                let second = e.with_test(&other).unwrap();
                let second_reference = reference_verdicts(&other, &faults, config, options);
                let equivalence = e.compare(&second, &faults).unwrap();
                assert_eq!(equivalence.first, report, "{context}");
                let disagreements: Vec<Fault> = reference
                    .iter()
                    .zip(&second_reference)
                    .filter(|(a, b)| a.detected != b.detected)
                    .map(|(a, _)| a.fault)
                    .collect();
                let found: Vec<Fault> = equivalence
                    .disagreements
                    .iter()
                    .map(|disagreement| disagreement.fault)
                    .collect();
                assert_eq!(found, disagreements, "{context}");
                for (fault, expected) in faults.iter().zip(&reference) {
                    assert_eq!(
                        e.injection_detected(&[*fault]).unwrap(),
                        expected.detected,
                        "{context} {fault:?}"
                    );
                }
                for set in faults.windows(2).step_by(3) {
                    assert_eq!(
                        e.injection_detected(set).unwrap(),
                        fault_detected(&test, set, config, options).unwrap(),
                        "{context} {set:?}"
                    );
                }
            }
        }
    }
}
