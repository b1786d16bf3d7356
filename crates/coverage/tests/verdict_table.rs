//! The verdict table against a sweep per fault: `report` resolves every
//! fault from the engine's verdict table — stuck-at and transition faults
//! and all three coupling classes — while `injection_detected(&[fault])`
//! runs the test over the fault's footprint words on a pooled arena. Both
//! must give the same verdict for every fault, in universe order.
//!
//! The suite covers dense universes (every SAF and TF of one word, so one
//! report chunk holds both stuck-at faults of a bit), sparse and ragged
//! ones (chunk lengths around the 64-fault boundary, duplicates), several
//! content rounds (each resolved against its own image), literal tests
//! that read a pattern before writing it (which mismatch on fault-free
//! bits and words), universes mixing coupling faults between same-word,
//! adjacent and far words with SAF/TF faults, out-of-range faults, and
//! known answers that pin the table to the fault model rather than to the
//! sweep alone.

use twm_core::{TransparentScheme, TwmTa};
use twm_coverage::{
    fault_detected, ContentPolicy, CoverageEngine, CoverageError, CoverageReport,
    EvaluationOptions, Strategy, UniverseBuilder,
};
use twm_march::algorithms::{march_c_minus, march_u, mats_plus};
use twm_march::notation::parse_march;
use twm_march::{DataPattern, DataSpec, MarchElement, MarchTest, Operation};
use twm_mem::{BitAddress, Fault, MemError, MemoryConfig, SplitMix64, Transition};

const WIDTHS: [usize; 11] = [1, 2, 7, 8, 31, 32, 33, 64, 65, 127, 128];

/// Reads a literal `1` from every word before the test has written it: a
/// stuck-at-1 cell is then caught only by a mismatch on another bit.
fn literal_read_first() -> MarchTest {
    parse_march("read-before-write", "⇑(r1,w1); ⇓(r1)").unwrap()
}

/// Writes 1 before reading it, so a rising transition fault on a cell
/// that starts at 1 is never excited.
fn write_before_read() -> MarchTest {
    parse_march("write-before-read", "⇑(w1); ⇓(r1,w0); ⇑(r0)").unwrap()
}

/// Literal March C− and March U, the two short literal tests above, and
/// TWM_TA's transparent March C− where the width allows the transform.
fn tests(width: usize) -> Vec<MarchTest> {
    let mut tests = vec![
        march_c_minus(),
        march_u(),
        literal_read_first(),
        write_before_read(),
    ];
    if let Ok(scheme) = TwmTa::new(width) {
        let transformed = scheme.transform(&march_c_minus()).unwrap();
        tests.push(transformed.transparent_test().clone());
    }
    tests
}

fn zeros() -> EvaluationOptions {
    EvaluationOptions {
        content: ContentPolicy::Zeros,
        contents_per_fault: 1,
    }
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
    strategy: Strategy,
) -> CoverageEngine {
    CoverageEngine::builder(config)
        .test(test)
        .options(options)
        .strategy(strategy)
        .build()
        .unwrap()
}

/// The report a footprint sweep per fault yields for `faults`, in
/// universe order.
fn swept_report(engine: &CoverageEngine, faults: &[Fault]) -> CoverageReport {
    let mut report = CoverageReport::new(engine.test().name());
    for &fault in faults {
        report.record(fault, engine.injection_detected(&[fault]).unwrap());
    }
    report
}

/// `report` (table) and a sweep per fault agree on `faults`.
fn assert_table_matches_sweep(engine: &CoverageEngine, faults: &[Fault], context: &str) {
    assert_eq!(
        engine.report(faults).unwrap(),
        swept_report(engine, faults),
        "{} {context}",
        engine.test().name()
    );
}

fn random_fault(config: MemoryConfig, rng: &mut SplitMix64) -> Fault {
    let cell = BitAddress::new(
        rng.next_below(config.words()),
        rng.next_below(config.width()),
    );
    match rng.next_below(4) {
        0 => Fault::stuck_at(cell, false),
        1 => Fault::stuck_at(cell, true),
        2 => Fault::transition(cell, Transition::Rising),
        _ => Fault::transition(cell, Transition::Falling),
    }
}

/// A fault of any class: a stuck-at or transition fault on a random cell,
/// or a coupling fault between two random distinct cells, a third of them
/// in one word.
fn random_mixed_fault(config: MemoryConfig, rng: &mut SplitMix64) -> Fault {
    if config.cells() < 2 || rng.next_bool() {
        return random_fault(config, rng);
    }
    loop {
        let cell = |rng: &mut SplitMix64| {
            BitAddress::new(
                rng.next_below(config.words()),
                rng.next_below(config.width()),
            )
        };
        let aggressor = cell(rng);
        let mut victim = cell(rng);
        if rng.next_below(3) == 0 {
            victim.word = aggressor.word;
        }
        if victim == aggressor {
            continue;
        }
        let transition = if rng.next_bool() {
            Transition::Rising
        } else {
            Transition::Falling
        };
        return match rng.next_below(3) {
            0 => Fault::coupling_state(aggressor, victim, rng.next_bool(), rng.next_bool()),
            1 => Fault::coupling_idempotent(aggressor, victim, transition, rng.next_bool()),
            _ => Fault::coupling_inversion(aggressor, victim, transition),
        };
    }
}

/// Every SAF and TF of word 3, class-major: at width ≤ 32 the first report
/// chunk holds both stuck-at faults of every bit.
#[test]
fn every_saf_and_tf_of_one_word_matches_a_sweep_per_fault() {
    for width in WIDTHS {
        let config = MemoryConfig::new(6, width).unwrap();
        let cells = || (0..width).map(|bit| BitAddress::new(3, bit));
        let faults: Vec<Fault> = cells()
            .map(|cell| Fault::stuck_at(cell, false))
            .chain(cells().map(|cell| Fault::stuck_at(cell, true)))
            .chain(cells().map(|cell| Fault::transition(cell, Transition::Rising)))
            .chain(cells().map(|cell| Fault::transition(cell, Transition::Falling)))
            .collect();
        for test in tests(width) {
            for options in [zeros(), random(width as u64, 2)] {
                let e = engine(&test, config, options, Strategy::Serial);
                assert_table_matches_sweep(&e, &faults, &format!("width {width} {options:?}"));
            }
        }
    }
}

/// Random faults scattered over the memory, in universes whose lengths
/// straddle the 64-fault report chunk (1, 63, 64, 65 and 130 faults), on
/// serial and parallel engines.
#[test]
fn sparse_and_ragged_universes_match_a_sweep_per_fault() {
    let mut rng = SplitMix64::new(0x5EA5E);
    for width in [1, 8, 33, 128] {
        let config = MemoryConfig::new(7, width).unwrap();
        for len in [1, 63, 64, 65, 130] {
            let faults: Vec<Fault> = (0..len).map(|_| random_fault(config, &mut rng)).collect();
            for test in tests(width) {
                for (options, strategy) in [
                    (zeros(), Strategy::Parallel { threads: 3 }),
                    (random(len as u64, 1), Strategy::Serial),
                    (random(width as u64, 3), Strategy::Parallel { threads: 2 }),
                ] {
                    let e = engine(&test, config, options, strategy);
                    assert_table_matches_sweep(&e, &faults, &format!("{width} bits, {len} faults"));
                }
            }
        }
    }
}

/// Random faults of every class — half SAF/TF, half coupling faults
/// between same-word, adjacent and far cells — in universes straddling
/// the 64-fault chunk, at every width, under every test, content policy
/// and a serial or parallel engine.
#[test]
fn mixed_coupling_and_single_cell_universes_match_a_sweep_per_fault() {
    let mut rng = SplitMix64::new(0xC0_FFEE);
    for width in WIDTHS {
        let config = MemoryConfig::new(1 + width % 6, width).unwrap();
        for len in [1, 64, 97] {
            let faults: Vec<Fault> = (0..len)
                .map(|_| random_mixed_fault(config, &mut rng))
                .collect();
            for test in tests(width) {
                for (options, strategy) in [
                    (zeros(), Strategy::Parallel { threads: 2 }),
                    (random(len as u64, 1), Strategy::Serial),
                    (random(width as u64, 3), Strategy::Parallel { threads: 3 }),
                ] {
                    let e = engine(&test, config, options, strategy);
                    assert_table_matches_sweep(
                        &e,
                        &faults,
                        &format!("{}x{width}, {len} faults, {options:?}", config.words()),
                    );
                }
            }
        }
    }
}

/// A fault listed many times, far apart and inside one report chunk, gets
/// the same verdict at every slot.
#[test]
fn duplicate_faults_resolve_at_every_slot() {
    let config = MemoryConfig::new(4, 8).unwrap();
    let all = UniverseBuilder::new(config).stuck_at().transition().build();
    let mut faults = all.clone();
    faults.extend(all.iter().rev().step_by(3).copied());
    faults.extend(std::iter::repeat_n(all[5], 70));
    for test in tests(8) {
        for options in [zeros(), random(21, 2)] {
            let e = engine(&test, config, options, Strategy::Parallel { threads: 2 });
            let report = e.report(&faults).unwrap();
            assert_eq!(report, swept_report(&e, &faults), "{}", test.name());
            for fault in &all {
                let listed = faults.iter().filter(|f| *f == fault).count();
                let escaped = report.undetected.iter().filter(|f| *f == fault).count();
                assert!(
                    escaped == 0 || escaped == listed,
                    "{} {fault:?}",
                    test.name()
                );
            }
        }
    }
}

/// Round `r` of `Random { seed }` is the one content of
/// `Random { seed: seed + r }`, so a fault is detected under `n` contents
/// exactly when each of those `n` one-content engines detects it: the table
/// resolves every round against its own image and demands all of them.
#[test]
fn each_content_round_is_resolved_against_its_own_image() {
    let transparent_alternating = MarchTest::new(
        "transparent-alternating",
        vec![MarchElement::ascending(vec![
            Operation::read(DataSpec::TransparentXor(DataPattern::Zeros)),
            Operation::write(DataSpec::TransparentXor(DataPattern::Custom(0x5555))),
            Operation::read(DataSpec::TransparentXor(DataPattern::Custom(0x5555))),
        ])],
    )
    .unwrap();
    let read_first = parse_march("read-first-up", "⇑(r0,w1); ⇓(r1,w0)").unwrap();
    let write_one = parse_march("write-one", "⇑(w1); ⇓(r1)").unwrap();
    let config = MemoryConfig::new(6, 8).unwrap();
    let faults = UniverseBuilder::new(config).stuck_at().transition().build();
    for test in [transparent_alternating, read_first, write_one, mats_plus()] {
        for seed in [0u64, 17, 400] {
            let single: Vec<Vec<bool>> = (0..3)
                .map(|round| {
                    let e = engine(&test, config, random(seed + round, 1), Strategy::Serial);
                    let report = e.report(&faults).unwrap();
                    faults
                        .iter()
                        .map(|f| !report.undetected.contains(f))
                        .collect()
                })
                .collect();
            for n in 1..=3 {
                let e = engine(&test, config, random(seed, n), Strategy::Serial);
                let report = e.report(&faults).unwrap();
                let expected: Vec<Fault> = faults
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| !single[..n].iter().all(|round| round[i]))
                    .map(|(_, f)| *f)
                    .collect();
                assert_eq!(
                    report.undetected,
                    expected,
                    "{} seed {seed}, {n} rounds",
                    test.name()
                );
            }
            // Under these two a fault's own verdict hangs on its cell's
            // content, and some verdict differs between rounds, so each
            // round really sees its own image.
            if ["transparent-alternating", "write-one"].contains(&test.name()) {
                assert!(
                    single[0] != single[1] || single[1] != single[2],
                    "{}",
                    test.name()
                );
            }
        }
    }
}

/// A literal test that reads 1 before writing it mismatches on every
/// fault-free word of all-zero content: every fault is detected, even a
/// stuck-at-1 cell the read itself agrees with, and even on a one-word
/// memory where the only mismatching bits share the faulty cell's word.
#[test]
fn literal_reads_of_unwritten_patterns_detect_every_fault() {
    for width in WIDTHS {
        for words in [1, 4] {
            let config = MemoryConfig::new(words, width).unwrap();
            let faults = UniverseBuilder::new(config).stuck_at().transition().build();
            let e = engine(&literal_read_first(), config, zeros(), Strategy::Serial);
            let report = e.report(&faults).unwrap();
            if width == 1 && words == 1 {
                // One cell, no other bit or word to mismatch on: a
                // stuck-at-1 cell reads the expected 1 throughout.
                let sa1 = Fault::stuck_at(BitAddress::new(0, 0), true);
                assert_eq!(report.undetected, vec![sa1]);
            } else {
                assert!(report.undetected.is_empty(), "{words}x{width}");
            }
            assert_eq!(report, swept_report(&e, &faults), "{words}x{width}");
            for &fault in faults.iter().step_by(7) {
                assert_eq!(
                    !report.undetected.contains(&fault),
                    fault_detected(&literal_read_first(), &[fault], config, zeros()).unwrap(),
                    "{words}x{width} {fault:?}"
                );
            }
        }
    }
}

/// Stuck-at and transition faults interleaved with every coupling fault of
/// a small memory: the chunks merge back in universe order, so the
/// `undetected` list is the sweep's, fault for fault.
#[test]
fn mixed_universes_merge_chunk_verdicts_in_universe_order() {
    let config = MemoryConfig::new(5, 4).unwrap();
    let universe = UniverseBuilder::new(config).all_classes().build();
    let (single, coupling): (Vec<Fault>, Vec<Fault>) = universe
        .iter()
        .partition(|f| matches!(f, Fault::StuckAt { .. } | Fault::TransitionFault { .. }));
    assert!(!single.is_empty() && !coupling.is_empty());
    let mut rng = SplitMix64::new(99);
    let mut faults = Vec::new();
    let (mut s, mut c) = (single.iter(), coupling.iter());
    loop {
        let next = if rng.next_below(2) == 0 {
            s.next().or_else(|| c.next())
        } else {
            c.next().or_else(|| s.next())
        };
        match next {
            Some(&fault) => faults.push(fault),
            None => break,
        }
    }
    for test in [mats_plus(), write_before_read(), literal_read_first()] {
        for options in [zeros(), random(5, 2)] {
            for strategy in [Strategy::Serial, Strategy::Parallel { threads: 3 }] {
                let e = engine(&test, config, options, strategy);
                let report = e.report(&faults).unwrap();
                let swept = swept_report(&e, &faults);
                assert_eq!(
                    report.undetected,
                    swept.undetected,
                    "{} {options:?}",
                    test.name()
                );
                assert_eq!(report, swept, "{} {options:?}", test.name());
            }
        }
    }
}

/// An out-of-range stuck-at or transition fault fails `report` with the
/// same error the verdict stream and a sweep yield for it, on every
/// strategy, whether its word or its bit is out of range.
#[test]
fn out_of_range_table_faults_fail_like_a_sweep() {
    let config = MemoryConfig::new(4, 8).unwrap();
    let good = UniverseBuilder::new(config).stuck_at().transition().build();
    for bad in [
        Fault::stuck_at(BitAddress::new(4, 0), false),
        Fault::stuck_at(BitAddress::new(0, 8), true),
        Fault::transition(BitAddress::new(200, 3), Transition::Rising),
        Fault::transition(BitAddress::new(1, 64), Transition::Falling),
    ] {
        let mut faults = good.clone();
        faults.insert(good.len() / 2 + 3, bad);
        for strategy in [Strategy::Serial, Strategy::Parallel { threads: 3 }] {
            let e = engine(&march_c_minus(), config, random(1, 2), strategy);
            let error = e.report(&faults).unwrap_err();
            assert!(
                matches!(
                    error,
                    CoverageError::Mem(MemError::FaultCellOutOfRange { cell }) if cell == bad.victim()
                ),
                "{bad:?} {strategy:?}: {error}"
            );
            let streamed = e.verdicts(&faults).find_map(Result::err).unwrap();
            assert_eq!(streamed.to_string(), error.to_string());
            let swept = e.injection_detected(&[bad]).unwrap_err();
            assert_eq!(swept.to_string(), error.to_string());
            // The engine stays usable after the failed report.
            assert_table_matches_sweep(&e, &good, "after an error");
        }
    }
}

/// Every SAF and TF of a 16×32 memory — 2,048 faults, 32 full report
/// chunks — under TWM_TA's transparent March C− and three content rounds:
/// the report is identical for every thread count and equals the sweep.
#[test]
fn table_reports_are_identical_for_every_thread_count() {
    let config = MemoryConfig::new(16, 32).unwrap();
    let faults = UniverseBuilder::new(config).stuck_at().transition().build();
    assert_eq!(faults.len(), 2048);
    let transformed = TwmTa::new(32).unwrap().transform(&march_c_minus()).unwrap();
    for test in [transformed.transparent_test().clone(), write_before_read()] {
        let options = random(3, 3);
        let serial = engine(&test, config, options, Strategy::Serial);
        let expected = serial.report(&faults).unwrap();
        assert_eq!(expected, swept_report(&serial, &faults), "{}", test.name());
        for threads in [2, 3, 5, 64] {
            let parallel = engine(&test, config, options, Strategy::Parallel { threads });
            assert_eq!(
                parallel.report(&faults).unwrap(),
                expected,
                "{} {threads}",
                test.name()
            );
        }
    }
}

/// A transparent test that flips only the even bits of each word (from
/// all-zero content): it never excites an odd bit, and it raises each
/// even bit once without lowering it. So the faults that escape are
/// exactly every fault on an odd bit and the falling transition faults on
/// even bits — known from the fault model, and equal to the reference.
#[test]
fn transparent_test_flipping_alternate_bits_has_known_escapes() {
    let flip_even = MarchTest::new(
        "transparent-even-bits",
        vec![MarchElement::ascending(vec![
            Operation::read(DataSpec::TransparentXor(DataPattern::Zeros)),
            Operation::write(DataSpec::TransparentXor(DataPattern::Custom(0x55))),
            Operation::read(DataSpec::TransparentXor(DataPattern::Custom(0x55))),
        ])],
    )
    .unwrap();
    let config = MemoryConfig::new(3, 8).unwrap();
    let faults = UniverseBuilder::new(config).stuck_at().transition().build();
    let expected: Vec<Fault> = faults
        .iter()
        .filter(|fault| {
            fault.victim().bit % 2 == 1
                || matches!(
                    fault,
                    Fault::TransitionFault {
                        direction: Transition::Falling,
                        ..
                    }
                )
        })
        .copied()
        .collect();
    for strategy in [Strategy::Serial, Strategy::Parallel { threads: 2 }] {
        let report = engine(&flip_even, config, zeros(), strategy)
            .report(&faults)
            .unwrap();
        assert_eq!(report.undetected, expected, "{strategy:?}");
    }
    for &fault in &faults {
        assert_eq!(
            fault_detected(&flip_even, &[fault], config, zeros()).unwrap(),
            !expected.contains(&fault),
            "{fault:?}"
        );
    }
}
