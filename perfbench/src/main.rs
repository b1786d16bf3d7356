//! The repository's benchmark: three workloads against the public API of
//! the workspace crates, every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_warm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off; with `--trace 1` it measures the per-layer metrics instead (see
//! `perfbench/README.md`). The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are the same numbers for people, with units and sample
//! counts. The process exits with 1 when a correctness check fails.

mod coverage;
mod faults;
mod fleet;
mod probe;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stats::median;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Where runs keep spill files, traces and exact-count records,
/// relative to the directory the benchmark runs from.
const RUN_DIR: &str = ".bench_run";

/// The end-to-end metrics every workload prints with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("peak_heap_mb", "MiB"),
];

/// The per-layer metrics every workload prints with tracing on; a
/// workload that does not cross a layer prints 0 for it.
const PER_LAYER: [(&str, &str); 30] = [
    ("tcp.wait_ms", "ms"),
    ("tcp.read_us", "us"),
    ("tcp.write_us", "us"),
    ("tcp.bytes_per_device", "B/device"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("dispatch.queue_us", "us"),
    ("service.handle_ms", "ms"),
    ("cache.warm_us", "us"),
    ("cache.cold_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("store.spill_ms", "ms"),
    ("store.paged_find_us", "us"),
    ("store.page_hit_ratio", "ratio"),
    ("store.page_reads_per_device", "pages/device"),
    ("repair.localise_us", "us"),
    ("repair.allocate_us", "us"),
    ("repair.verify_ms", "ms"),
    ("repair.verified_frac", "ratio"),
    ("repair.trail_us", "us"),
    ("bist.session_ops_per_s", "ops/s"),
    ("coverage.packed_ms", "ms"),
    ("coverage.scalar_ms", "ms"),
    ("coverage.packed_faults", "count"),
    ("coverage.scalar_faults", "count"),
    ("coverage.lane_fill", "ratio"),
    ("coverage.engine_build_s", "s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("unattributed_frac", "ratio"),
    ("obs.program_span_frac", "ratio"),
];

/// The system allocator, counting live heap bytes so a run can report
/// its peak heap use — a number that, unlike the resident set, does not
/// depend on which allocator arenas the program's threads happened to
/// draw from.
struct CountingAllocator;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

impl CountingAllocator {
    fn grew(by: usize) {
        let live = LIVE_BYTES.fetch_add(by, Ordering::Relaxed) + by;
        if live > PEAK_BYTES.load(Ordering::Relaxed) {
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        }
    }

    fn shrank(by: usize) {
        LIVE_BYTES.fetch_sub(by, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the byte counts are
// statistics only and never feed back into an allocation.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            Self::grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator returned for
        // `layout`, as `GlobalAlloc::dealloc` requires.
        unsafe { System.dealloc(ptr, layout) };
        Self::shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            Self::shrank(layout.size());
            Self::grew(new_size);
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Deltas of the program's own `twm_obs::global()` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub spills: u64,
    pub page_reads: u64,
    pub page_hits: u64,
    pub frames: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub packed_faults: u64,
    pub packed_batches: u64,
    pub scalar_faults: u64,
}

impl Counts {
    const NAMES: [&'static str; 12] = [
        "twm_fleet_cache_hits_total",
        "twm_fleet_cache_misses_total",
        "twm_fleet_cache_evictions_total",
        "twm_fleet_cache_spills_total",
        "twm_store_page_reads_total",
        "twm_store_page_hits_total",
        "twm_fleet_frames_total",
        "twm_fleet_frame_bytes_in_total",
        "twm_fleet_frame_bytes_out_total",
        "twm_coverage_packed_faults_total",
        "twm_coverage_packed_batches_total",
        "twm_coverage_scalar_faults_total",
    ];

    /// The counters' current values.
    pub fn read() -> Self {
        let [hits, misses, evictions, spills, page_reads, page_hits, frames, bytes_in, bytes_out, packed_faults, packed_batches, scalar_faults] =
            Self::NAMES.map(|name| twm_obs::global().counter(name, &[]).get());
        Self {
            hits,
            misses,
            evictions,
            spills,
            page_reads,
            page_hits,
            frames,
            bytes_in,
            bytes_out,
            packed_faults,
            packed_batches,
            scalar_faults,
        }
    }

    /// The change since `before`.
    pub fn since(&self, before: &Self) -> Self {
        Self {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
            spills: self.spills - before.spills,
            page_reads: self.page_reads - before.page_reads,
            page_hits: self.page_hits - before.page_hits,
            frames: self.frames - before.frames,
            bytes_in: self.bytes_in - before.bytes_in,
            bytes_out: self.bytes_out - before.bytes_out,
            packed_faults: self.packed_faults - before.packed_faults,
            packed_batches: self.packed_batches - before.packed_batches,
            scalar_faults: self.scalar_faults - before.scalar_faults,
        }
    }
}

/// A named program count, read out of a [`Counts`] delta.
pub type CountField = (&'static str, fn(&Counts) -> u64);

/// What a workload run found and measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness problems; the run is correct when this stays empty.
    pub problems: Vec<String>,
    /// Contract metrics by name.
    metrics: BTreeMap<&'static str, f64>,
    /// The human-readable report printed before the result line.
    lines: Vec<String>,
    workload: String,
    seed: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// One row of the human-readable metric table.
    pub fn row(&mut self, name: &str, value: f64, unit: &str, samples: &str) {
        self.line(format!("{name:<24} {value:>16.4} {unit:<14} {samples}"));
    }

    /// Checks that the program counters of every complete `unit` (round
    /// or report) repeat exactly within the run, and against the last run
    /// with the same workload and seed, whose record is kept under
    /// [`RUN_DIR`]. A difference within the run is a correctness problem;
    /// one against an earlier run is flagged.
    pub fn exact_counts(&mut self, units: &[Counts], unit: &str, fields: &[CountField]) {
        let Some(first) = units.first() else {
            self.problems.push(format!("no complete {unit} to count"));
            return;
        };
        let listed: String = fields
            .iter()
            .map(|(name, get)| format!("{name}={}", get(first)))
            .collect::<Vec<_>>()
            .join(" ");
        let differing = units
            .iter()
            .filter(|counts| fields.iter().any(|(_, get)| get(counts) != get(first)))
            .count();
        if differing > 0 {
            self.problems.push(format!(
                "program counts differ between {unit}s: {differing} of {} {unit}s differ from {listed}",
                units.len()
            ));
        }
        let record = Path::new(RUN_DIR).join(format!("counts-{}-{}.txt", self.workload, self.seed));
        let previous = std::fs::read_to_string(&record).ok();
        let verdict = match previous.as_deref().map(str::trim) {
            None => "first run with this seed".to_string(),
            Some(earlier) if earlier == listed => "same as the last run with this seed".to_string(),
            Some(earlier) => {
                eprintln!("FLAG: exact counts differ from the last run with this seed: was {earlier}, now {listed}");
                format!("DIFFERENT from the last run with this seed ({earlier})")
            }
        };
        if let Err(error) = std::fs::write(&record, &listed) {
            eprintln!(
                "could not keep the exact-count record {}: {error}",
                record.display()
            );
        }
        self.line(format!(
            "exact counts per {unit} ({} {unit}s, {}): {listed} — {verdict}",
            units.len(),
            if differing == 0 {
                "all equal"
            } else {
                "NOT all equal"
            }
        ));
    }
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => trace = Some(value.parse::<u8>()? != 0),
            _ => return Err(format!("unknown argument {flag}").into()),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kib / 1024.0)
}

/// Runs `setup` `count` times, keeps the last result and reports the
/// median duration as `setup_s`. With `host_corrected`, each set-up
/// follows a [`probe`] and its time is corrected to the nominal host
/// speed: right for set-up that is CPU work alone (`coverage_sweep`), not
/// for the fleet's, which also waits on threads, sockets and files and
/// spreads wider corrected than as measured.
fn timed_setups<T>(
    outcome: &mut Outcome,
    count: usize,
    host_corrected: bool,
    mut setup: impl FnMut() -> Result<T>,
) -> Result<T> {
    let mut durations = Vec::with_capacity(count);
    let mut reported = Vec::with_capacity(count);
    let mut last = None;
    for _ in 0..count {
        drop(last.take());
        let probe_ms = host_corrected.then(probe::measure);
        let start = Instant::now();
        last = Some(setup()?);
        let duration = start.elapsed().as_secs_f64();
        durations.push(duration);
        reported.push(probe_ms.map_or(duration, |probe_ms| probe::corrected(duration, probe_ms)));
    }
    let setup_s = median(&reported);
    outcome.set("setup_s", setup_s);
    let listed: Vec<String> = durations.iter().map(|d| format!("{d:.3}")).collect();
    let samples = if host_corrected {
        format!(
            "median of {count} set-ups at the nominal host speed; as measured: {}",
            listed.join(" ")
        )
    } else {
        format!("median of {count} set-ups: {}", listed.join(" "))
    };
    outcome.row("setup_s", setup_s, "s", &samples);
    last.ok_or_else(|| "no set-up ran".into())
}

fn run(args: &Args, outcome: &mut Outcome) -> Result<()> {
    let run_dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&run_dir)?;
    let trace_path = run_dir.join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match args.workload.as_str() {
        "fleet_warm" | "fleet_churn" => {
            let kind = if args.workload == "fleet_warm" {
                fleet::Kind::Warm
            } else {
                fleet::Kind::Churn
            };
            if args.trace {
                let fleet = fleet::setup(kind, args.seed, &run_dir)?;
                fleet::run_trace(&fleet, args.seconds, &run_dir, &trace_path, outcome)
            } else {
                let fleet = timed_setups(outcome, 3, false, || {
                    fleet::setup(kind, args.seed, &run_dir)
                })?;
                fleet::run(&fleet, args.seconds, outcome)
            }
        }
        "coverage_sweep" => {
            if args.trace {
                let sweep = coverage::setup(args.seed)?;
                coverage::run_trace(&sweep, args.seconds, &trace_path, outcome)
            } else {
                let sweep = timed_setups(outcome, 5, true, || coverage::setup(args.seed))?;
                coverage::run(&sweep, args.seconds, outcome)
            }
        }
        other => Err(format!(
            "unknown workload {other}; expected fleet_warm, fleet_churn or coverage_sweep"
        )
        .into()),
    }
}

/// Renders the result line: every contract metric of the run's mode,
/// with all its digits.
fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.problems.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    trace::now_ns();
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    // Whatever happens, the run ends within three minutes.
    let limit = Duration::from_secs_f64((args.seconds + 150.0).min(175.0));
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {limit:?}; giving up");
        std::process::exit(3);
    });

    let mut outcome = Outcome {
        workload: args.workload.clone(),
        seed: args.seed,
        ..Outcome::default()
    };
    let mode = if args.trace { "traced" } else { "end-to-end" };
    println!(
        "perfbench {} seed={} seconds={} ({mode}; {} CPUs)",
        args.workload,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    if let Err(error) = run(&args, &mut outcome) {
        eprintln!("perfbench: {error}");
        return ExitCode::from(2);
    }
    if !args.trace {
        let heap = PEAK_BYTES.load(Ordering::Relaxed) as f64 / f64::from(1 << 20);
        outcome.set("peak_heap_mb", heap);
        outcome.row("peak_heap_mb", heap, "MiB", "most heap bytes live at once");
        match peak_rss_mb() {
            Ok(rss) => outcome.row("peak_rss_mb", rss, "MiB", "VmHWM of this process"),
            Err(error) => eprintln!("perfbench: peak RSS unreadable: {error}"),
        }
        let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
        let samples = format!("{} of {} operations", outcome.failed, outcome.attempted);
        outcome.row("failed_frac", failed_frac, "ratio", &samples);
    }
    for line in &outcome.lines {
        println!("{line}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.trace {
        for &(name, unit) in names {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            println!("{name:<28} {value:>16.4} {unit}");
        }
    }
    for problem in &outcome.problems {
        println!("INCORRECT: {problem}");
    }
    println!("{}", result_json(&outcome, names));
    if outcome.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` describes exactly the metrics the runs print.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let listed = json.matches("\"unit\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
