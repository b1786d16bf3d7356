//! The fault-simulation kernel and the coverage engine built on it:
//!
//! * single-write latency on the simulator — the fault-free word fast path
//!   (block-masked `u64` stores) versus writes to fault-indexed words, for
//!   memories up to 64K words;
//! * march-test execution throughput over memory size (the pre-lowered
//!   operation stream driving the write kernel);
//! * serial versus parallel fault-coverage evaluation throughput
//!   (faults/second) across the word widths of Table 3, on a ≥ 2000-fault
//!   universe — the experiment behind the paper's Section 5 at production
//!   scale;
//! * the bit-parallel 64-lane batched kernel of `CoverageEngine::report`
//!   versus the scalar one-execution-per-fault path that
//!   `CoverageEngine::verdicts` streams, on SAF/TF universes — the gap
//!   [`twm_mem::PackedArena`] buys.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use twm_bench::{bench_memory, proposed_test, WIDTHS};
use twm_bist::{execute_with, ExecutionOptions};
use twm_coverage::universe::UniverseBuilder;
use twm_coverage::{ContentPolicy, CoverageEngine, CoverageReport, EvaluationOptions, Strategy};
use twm_march::algorithms::march_c_minus;
use twm_mem::{BitAddress, Fault, MemoryConfig, SplitMix64, Transition, Word};

/// Memory sizes for the write-latency and execution sweeps (up to 64K
/// words).
const SIZES: [usize; 4] = [1 << 10, 1 << 12, 1 << 14, 1 << 16];

const WIDTH: usize = 32;

fn bench_single_write(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_write");
    group.sample_size(20);
    group.throughput(Throughput::Elements(1));
    for &words in &SIZES {
        // Fault-free fast path: no word has an index entry.
        group.bench_with_input(
            BenchmarkId::new("fault_free", words),
            &words,
            |b, &words| {
                let mut memory = bench_memory(words, WIDTH, 3);
                let value = Word::from_bits(0xDEAD_BEEF, WIDTH).unwrap();
                let mut rng = SplitMix64::new(11);
                b.iter(|| {
                    let address = rng.next_below(words);
                    memory
                        .write_word(black_box(address), black_box(value))
                        .unwrap()
                });
            },
        );
        // Indexed slow path: every write lands on a word carrying stuck-at,
        // transition and coupling faults, so the full mask kernel runs.
        group.bench_with_input(
            BenchmarkId::new("faulty_word", words),
            &words,
            |b, &words| {
                let target = words / 2;
                let faults = vec![
                    Fault::stuck_at(BitAddress::new(target, 0), true),
                    Fault::transition(BitAddress::new(target, 1), Transition::Rising),
                    Fault::coupling_idempotent(
                        BitAddress::new(target, 2),
                        BitAddress::new(target, 7),
                        Transition::Rising,
                        true,
                    ),
                ];
                let config = MemoryConfig::new(words, WIDTH).unwrap();
                let mut memory = twm_mem::FaultyMemory::with_faults(config, faults).unwrap();
                let mut toggle = false;
                b.iter(|| {
                    toggle = !toggle;
                    let value = if toggle {
                        Word::ones(WIDTH)
                    } else {
                        Word::zeros(WIDTH)
                    };
                    memory
                        .write_word(black_box(target), black_box(value))
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_execution_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("march_execution_scaling");
    group.sample_size(10);
    let test = proposed_test(&march_c_minus(), WIDTH);
    for &words in &SIZES {
        group.throughput(Throughput::Elements(test.total_operations(words) as u64));
        group.bench_with_input(
            BenchmarkId::new("twmarch_sweep", words),
            &words,
            |b, &words| {
                let mut memory = bench_memory(words, WIDTH, 17);
                b.iter(|| {
                    let result = execute_with(
                        black_box(&test),
                        &mut memory,
                        ExecutionOptions {
                            record_reads: false,
                            stop_at_first_mismatch: false,
                        },
                    )
                    .unwrap();
                    assert!(!result.detected());
                    result
                });
            },
        );
    }
    group.finish();
}

fn bench_evaluator(c: &mut Criterion) {
    let mut group = c.benchmark_group("coverage_throughput");
    group.sample_size(10);
    // 8 words keeps one fault-injection run short enough that the sweep over
    // all widths finishes in reasonable wall-clock time; the universe size
    // (5 classes x 400 samples = up to 2000 faults) is what the acceptance
    // experiment fixes.
    let words = 8usize;
    for &width in &WIDTHS {
        let config = MemoryConfig::new(words, width).unwrap();
        let faults = UniverseBuilder::new(config)
            .all_classes()
            .sample_per_class(400, 7)
            .build();
        let test = proposed_test(&march_c_minus(), width);
        let options = EvaluationOptions {
            content: ContentPolicy::Random { seed: 11 },
            contents_per_fault: 1,
        };
        group.throughput(Throughput::Elements(faults.len() as u64));
        // Engines are built once per configuration — lowering, content
        // generation and the arena pool are amortised across iterations,
        // which is the intended deployment shape.
        let serial = CoverageEngine::builder(config)
            .test(&test)
            .options(options)
            .strategy(Strategy::Serial)
            .build()
            .unwrap();
        let parallel = CoverageEngine::builder(config)
            .test(&test)
            .options(options)
            .strategy(Strategy::Auto)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("serial", format!("{words}x{width}x{}", faults.len())),
            &config,
            |b, _| {
                b.iter(|| serial.report(black_box(&faults)).unwrap());
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel", format!("{words}x{width}x{}", faults.len())),
            &config,
            |b, _| {
                b.iter(|| parallel.report(black_box(&faults)).unwrap());
            },
        );
    }
    group.finish();
}

/// Bit-parallel lane packing: `CoverageEngine::report` over a SAF/TF
/// universe with the 64-lane batched kernel (`PackedArena<Packed64>` +
/// `detect_lowered_batch`, one march execution per 64 faults) versus the
/// scalar one-execution-per-fault path, measured by folding the
/// `verdicts` stream (which never lane-batches) into a report. Reports
/// are asserted bit-identical before timing; only faults/second differ.
/// Serial strategy keeps the comparison algorithmic — thread fan-out is
/// measured elsewhere.
fn bench_lane_packing(c: &mut Criterion) {
    let mut group = c.benchmark_group("lane_packing");
    group.sample_size(10);
    let test = march_c_minus();
    for &words in &[1usize << 10, 1 << 14] {
        let config = MemoryConfig::new(words, WIDTH).unwrap();
        let faults = UniverseBuilder::new(config)
            .stuck_at()
            .transition()
            .sample_per_class(128, 5)
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
        let scalar = |faults: &[Fault]| {
            let mut report = CoverageReport::new(test.name());
            for verdict in packed.verdicts(faults) {
                let verdict = verdict.unwrap();
                report.record(verdict.fault, verdict.detected);
            }
            report
        };
        assert_eq!(
            packed.report(&faults).unwrap(),
            scalar(&faults),
            "lane batching must stay bit-identical"
        );
        group.throughput(Throughput::Elements(faults.len() as u64));
        group.bench_with_input(BenchmarkId::new("scalar", words), &config, |b, _| {
            b.iter(|| scalar(black_box(&faults)));
        });
        group.bench_with_input(BenchmarkId::new("packed64", words), &config, |b, _| {
            b.iter(|| packed.report(black_box(&faults)).unwrap());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_write,
    bench_execution_scaling,
    bench_evaluator,
    bench_lane_packing
);
criterion_main!(benches);
