//! `coverage_sweep`: one caller issuing back-to-back
//! `CoverageEngine::report` calls for TWM_TA × March C− on a 64K×32
//! memory with random content. The universe is 64K SAF/TF faults (the
//! 64-lane packed kernel) plus 2K CFst/CFid/CFin faults on same-word and
//! adjacent-word pairs (the scalar arena); each half takes about half of
//! a report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use twm_bist::{execute_with, ExecutionOptions};
use twm_core::scheme::{SchemeId, SchemeRegistry};
use twm_coverage::{ContentPolicy, CoverageEngine, CoverageReport, Strategy};
use twm_march::algorithms::march_c_minus;
use twm_mem::{Fault, FaultClass, FaultSet, FaultyMemory, MemoryConfig, SplitMix64};

use crate::stats::{median, quantile, ratio};
use crate::trace::{breakdown, ProgramSpans, Tracer};
use crate::{faults, probe, Counts, Outcome, Result};

const WORDS: usize = 1 << 16;
const WIDTH: usize = 32;
const PACKED_FAULTS: usize = 1 << 16;
const COUPLING_FAULTS: usize = 2048;
/// Coupling verdicts re-derived per run by the full-sweep reference.
const REFERENCE_SAMPLE: usize = 8;
const THREADS: usize = 2;

/// The engine, the seeded universe and the reference report.
pub struct Sweep {
    config: MemoryConfig,
    content_seed: u64,
    seed: u64,
    engine: CoverageEngine,
    engine_build_s: f64,
    packed: Vec<Fault>,
    coupling: Vec<Fault>,
    universe: Vec<Fault>,
    /// The warm-up report every timed report must equal.
    reference: CoverageReport,
}

/// Builds the engine, draws the universe and runs one warm-up report.
pub fn setup(seed: u64) -> Result<Sweep> {
    let mut rng = SplitMix64::new(seed ^ 0x0C07_E1A6);
    let content_seed = rng.next_u64();
    let config = MemoryConfig::new(WORDS, WIDTH)?;
    let registry = SchemeRegistry::all(WIDTH)?;
    let scheme = registry
        .get(SchemeId::TwmTa)
        .ok_or("TWM_TA missing from the registry")?;
    let start = Instant::now();
    let engine = CoverageEngine::for_scheme(scheme, &march_c_minus(), config)?
        .content(ContentPolicy::Random { seed: content_seed })
        .strategy(Strategy::Parallel { threads: THREADS })
        .build()?;
    let engine_build_s = start.elapsed().as_secs_f64();
    let packed: Vec<Fault> = (0..PACKED_FAULTS)
        .map(|_| faults::single_cell(config, &mut rng))
        .collect();
    let coupling: Vec<Fault> = (0..COUPLING_FAULTS)
        .map(|_| faults::coupling(config, &mut rng))
        .collect();
    let universe: Vec<Fault> = packed.iter().chain(&coupling).copied().collect();
    let reference = engine.report(&universe)?;
    Ok(Sweep {
        config,
        content_seed,
        seed,
        engine,
        engine_build_s,
        packed,
        coupling,
        universe,
        reference,
    })
}

/// Whether the test detects `fault` on a fresh memory with the engine's
/// content, executed in full: the paper's literal semantics, independent
/// of how the engine schedules or packs its runs.
fn reference_detected(sweep: &Sweep, fault: Fault) -> Result<bool> {
    let mut memory = FaultyMemory::with_faults(sweep.config, FaultSet::from_faults([fault]))?;
    memory.fill_random(sweep.content_seed);
    let execution = execute_with(
        sweep.engine.test(),
        &mut memory,
        ExecutionOptions {
            record_reads: false,
            stop_at_first_mismatch: true,
        },
    )?;
    Ok(execution.detected())
}

/// The correctness gate: 100% SAF/TF detection (a property of TWM_TA ×
/// March C−) and a seeded sample of coupling verdicts equal to the
/// full-sweep reference, half of them escapes when there are any.
fn check_reference(sweep: &Sweep, outcome: &mut Outcome) -> Result<()> {
    for class in [FaultClass::Saf, FaultClass::Tf] {
        let coverage = sweep.reference.class_coverage(class);
        if coverage != 1.0 {
            outcome
                .problems
                .push(format!("{class} coverage is {coverage}, not 100%"));
        }
    }
    let mut rng = SplitMix64::new(sweep.seed ^ 0x5A3B_1E00);
    let escaped: Vec<Fault> = sweep
        .coupling
        .iter()
        .filter(|fault| sweep.reference.undetected.contains(fault))
        .copied()
        .collect();
    let mut sample = Vec::with_capacity(REFERENCE_SAMPLE);
    for at in 0..REFERENCE_SAMPLE {
        let pool = if at % 2 == 0 && !escaped.is_empty() {
            &escaped
        } else {
            &sweep.coupling
        };
        sample.push(pool[rng.next_below(pool.len())]);
    }
    let mut agreed = 0;
    for fault in sample {
        let engine = !sweep.reference.undetected.contains(&fault);
        if reference_detected(sweep, fault)? == engine {
            agreed += 1;
        } else {
            outcome.problems.push(format!(
                "engine says {fault} is {}detected, the full-sweep reference disagrees",
                if engine { "" } else { "not " }
            ));
        }
    }
    outcome.line(format!(
        "coupling verdicts matching the full-sweep reference: {agreed} of {REFERENCE_SAMPLE} ({} escapes among {COUPLING_FAULTS})",
        escaped.len()
    ));
    Ok(())
}

/// The end-to-end run: back-to-back full reports until time is up, each
/// right after a host-speed [`probe`].
///
/// The contract metrics are corrected for the host's speed. A report is
/// CPU work on both cores and nothing else, so its measured time moves
/// with whatever the host's other tenants do — the medians of ten runs of
/// the same code spread by a sixth to a quarter — while its corrected time
/// moves with the program. The measured times are printed beside them.
pub fn run(sweep: &Sweep, seconds: f64, outcome: &mut Outcome) -> Result<()> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut report_ms = Vec::new();
    let mut corrected_ms = Vec::new();
    let mut probe_ms = Vec::new();
    let mut counts = Vec::new();
    while Instant::now() < deadline {
        let probe = probe::measure();
        let before = Counts::read();
        let start = Instant::now();
        let report = sweep.engine.report(&sweep.universe);
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        counts.push(Counts::read().since(&before));
        outcome.attempted += 1;
        match report {
            Ok(report) if report == sweep.reference => {
                report_ms.push(elapsed);
                corrected_ms.push(probe::corrected(elapsed, probe));
                probe_ms.push(probe);
            }
            Ok(_) => outcome
                .problems
                .push("a report differs from the first one".into()),
            Err(error) => {
                outcome.failed += 1;
                outcome.problems.push(format!("report failed: {error}"));
            }
        }
    }
    let reports = report_ms.len();
    let faults = (reports * sweep.universe.len()) as f64;
    let faults_per_s = ratio(faults, report_ms.iter().sum::<f64>() / 1e3);
    let corrected_per_s = ratio(faults, corrected_ms.iter().sum::<f64>() / 1e3);
    outcome.set("throughput_per_s", corrected_per_s);
    outcome.set("latency_p90_ms", quantile(&corrected_ms, 0.9));
    let samples = format!("{reports} reports of {} faults", sweep.universe.len());
    outcome.row("faults_per_s", corrected_per_s, "faults/s", &samples);
    outcome.row(
        "faults_per_s_measured",
        faults_per_s,
        "faults/s",
        "the same, not corrected for host speed",
    );
    for (suffix, times) in [("", &corrected_ms), ("_measured", &report_ms)] {
        for (percentile, q) in [("p50", 0.5), ("p90", 0.9), ("p95", 0.95), ("p99", 0.99)] {
            let beyond = ((1.0 - q) * reports as f64).floor();
            outcome.row(
                &format!("report_{percentile}_ms{suffix}"),
                quantile(times, q),
                "ms",
                &format!("{reports} reports, {beyond} beyond"),
            );
        }
    }
    outcome.row(
        "host_speed",
        probe::NOMINAL_MS / median(&probe_ms),
        "x nominal",
        &format!("median of {reports} probes"),
    );
    outcome.exact_counts(
        &counts,
        "report",
        &[
            ("packed_faults", |c| c.packed_faults),
            ("packed_batches", |c| c.packed_batches),
            ("scalar_faults", |c| c.scalar_faults),
        ],
    );
    check_reference(sweep, outcome)
}

/// The traced run: the SAF/TF part and the coupling part reported
/// separately, each under a span of a `sweep` root with the program's
/// tracing on, alternating with untraced sweeps (the overhead baseline)
/// so machine drift cancels. The kernel counts come from one full
/// report: a coupling-only report has nothing to pack and takes the
/// engine's scalar cheap-first path.
pub fn run_trace(
    sweep: &Sweep,
    seconds: f64,
    trace_path: &std::path::Path,
    outcome: &mut Outcome,
) -> Result<()> {
    let parts = [
        sweep.engine.report(&sweep.packed)?,
        sweep.engine.report(&sweep.coupling)?,
    ];
    let check =
        |outcome: &mut Outcome, expected: &CoverageReport, report: Result<CoverageReport>| {
            outcome.attempted += 1;
            match report {
                Ok(report) if report == *expected => {}
                Ok(_) => outcome
                    .problems
                    .push("a report differs from the first one".into()),
                Err(error) => {
                    outcome.failed += 1;
                    outcome.problems.push(format!("report failed: {error}"));
                }
            }
        };
    let before = Counts::read();
    check(
        outcome,
        &sweep.reference,
        sweep.engine.report(&sweep.universe).map_err(Into::into),
    );
    let counts = Counts::read().since(&before);

    let tracer = Tracer::default();
    let program = Arc::new(ProgramSpans::new(&["coverage.report"]));
    twm_obs::trace::set_sink(program.clone());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut plain_ms = Vec::new();
    while Instant::now() < deadline {
        let start = Instant::now();
        check(
            outcome,
            &parts[0],
            sweep.engine.report(&sweep.packed).map_err(Into::into),
        );
        check(
            outcome,
            &parts[1],
            sweep.engine.report(&sweep.coupling).map_err(Into::into),
        );
        plain_ms.push(start.elapsed().as_secs_f64() * 1e3);

        twm_obs::trace::set_enabled(true);
        let trace = tracer.id();
        tracer.span(trace, 0, "sweep", |top| {
            let packed = tracer.span(trace, top, "coverage.packed", |_| {
                sweep.engine.report(&sweep.packed)
            });
            check(outcome, &parts[0], packed.map_err(Into::into));
            let coupling = tracer.span(trace, top, "coverage.scalar", |_| {
                sweep.engine.report(&sweep.coupling)
            });
            check(outcome, &parts[1], coupling.map_err(Into::into));
        });
        twm_obs::trace::set_enabled(false);
    }
    twm_obs::trace::set_sink(Arc::new(twm_obs::NoopSink));
    tracer.write_jsonl(trace_path)?;

    let spans = tracer.spans();
    let layers = breakdown(&spans, "sweep");
    let sweeps = layers.traces as f64;
    let traced_ms: Vec<f64> = layers.root_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let (mut program_ns, mut part_ns) = (0, 0);
    for span in spans
        .iter()
        .filter(|span| span.name.starts_with("coverage."))
    {
        part_ns += span.end_ns - span.start_ns;
        if let Some((start, end)) = program.claim("coverage.report", span.start_ns, span.end_ns) {
            program_ns += end - start;
        }
    }
    let unattributed = ratio(
        layers.self_ns.get("sweep").copied().unwrap_or(0) as f64,
        layers.wall_ns as f64,
    );
    let (plain, traced) = (median(&plain_ms), median(&traced_ms));

    outcome.set(
        "coverage.packed_ms",
        layers.mean_self_ns("coverage.packed") / 1e6,
    );
    outcome.set(
        "coverage.scalar_ms",
        layers.mean_self_ns("coverage.scalar") / 1e6,
    );
    outcome.set("coverage.packed_faults", counts.packed_faults as f64);
    outcome.set("coverage.scalar_faults", counts.scalar_faults as f64);
    outcome.set(
        "coverage.lane_fill",
        ratio(
            counts.packed_faults as f64,
            (counts.packed_batches * 64) as f64,
        ),
    );
    outcome.set("coverage.engine_build_s", sweep.engine_build_s);
    outcome.set("obs.trace_overhead_frac", (traced - plain) / plain);
    outcome.set("unattributed_frac", unattributed);
    outcome.set(
        "obs.program_span_frac",
        ratio(program_ns as f64, part_ns as f64),
    );

    outcome.line(format!(
        "layer self time per traced sweep ({} sweeps; untraced p50 {plain:.3} ms, traced p50 {traced:.3} ms):",
        layers.traces
    ));
    for (name, &self_ns) in &layers.self_ns {
        let label = if *name == "sweep" {
            "(unattributed)"
        } else {
            name
        };
        outcome.line(format!(
            "  {label:<16} {:>12.3} ms  {:>6.2}%",
            ratio(self_ns as f64, sweeps) / 1e6,
            100.0 * ratio(self_ns as f64, layers.wall_ns as f64)
        ));
    }
    if layers.traces == 0 {
        outcome.problems.push("no traced sweep completed".into());
    }
    Ok(())
}
