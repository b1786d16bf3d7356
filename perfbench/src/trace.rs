//! The benchmark's own spans, recorded around each call into a layer.
//!
//! A span has a name, a start, an end and a parent; every span of one
//! batch (or report) carries that batch's trace id. Spans stay in memory
//! until the run ends, when [`Tracer::write_jsonl`] writes them out. A
//! span's self time is its duration minus the part of that interval its
//! children cover ([`breakdown`]).
//!
//! The program's own spans (`fleet.request`, `coverage.report`) are
//! collected through [`ProgramSpans`], a `twm_obs` sink, and matched to
//! the benchmark span that encloses them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use twm_obs::trace::{Record, Sink};

/// Nanoseconds since the process's first call into this module.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// The batch or report the span belongs to.
    pub trace: u64,
    pub id: u64,
    /// The enclosing span's id, 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span store shared by every thread of a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A fresh id for a span or a trace.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Records a span whose interval was measured by the caller.
    pub fn record(&self, span: SpanRecord) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Runs `work` under a new span and returns its result; `work`
    /// receives the span's id so it can parent children.
    pub fn span<T>(
        &self,
        trace: u64,
        parent: u64,
        name: &'static str,
        work: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start_ns = now_ns();
        let result = work(id);
        self.record(SpanRecord {
            trace,
            id,
            parent,
            name,
            start_ns,
            end_ns: now_ns(),
        });
        result
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.lock().expect("span store poisoned").iter() {
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                span.trace, span.id, span.parent, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name over every trace whose root is named `root`.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Traces counted.
    pub traces: usize,
    /// Summed root durations.
    pub wall_ns: u64,
    /// Summed self time per span name; the root's own entry is the time
    /// no layer span covers.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Root durations, one per trace, in nanoseconds.
    pub root_ns: Vec<u64>,
}

impl Breakdown {
    /// Mean self time per trace of the named span, in nanoseconds.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        let total = self.self_ns.get(name).copied().unwrap_or(0);
        crate::stats::ratio(total as f64, self.traces as f64)
    }
}

/// Length of the union of `intervals`.
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for (low, high) in intervals {
        let low = low.max(reach);
        if high > low {
            covered += high - low;
            reach = high;
        }
    }
    covered
}

/// Splits the wall time of every trace rooted at a span named `root`
/// into self times by span name. Each span is first clipped to its
/// parent's (clipped) interval, so a span that started on another thread
/// just before its parent counts only inside it, and the self times of a
/// trace whose siblings do not overlap sum exactly to the root's
/// duration.
pub fn breakdown(spans: &[SpanRecord], root: &str) -> Breakdown {
    let mut traces: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for span in spans {
        traces.entry(span.trace).or_default().push(span);
    }
    let mut result = Breakdown::default();
    for members in traces.values() {
        let Some(top) = members.iter().find(|s| s.parent == 0 && s.name == root) else {
            continue;
        };
        result.traces += 1;
        result.wall_ns += top.end_ns - top.start_ns;
        result.root_ns.push(top.end_ns - top.start_ns);
        let mut pending = vec![(**top, top.start_ns, top.end_ns)];
        while let Some((span, start, end)) = pending.pop() {
            let children: Vec<(SpanRecord, u64, u64)> = members
                .iter()
                .filter(|child| child.parent == span.id)
                .map(|child| (**child, child.start_ns.max(start), child.end_ns.min(end)))
                .filter(|(_, low, high)| high > low)
                .collect();
            let covered = covered_ns(children.iter().map(|&(_, low, high)| (low, high)).collect());
            *result.self_ns.entry(span.name).or_default() += (end - start).saturating_sub(covered);
            pending.extend(children);
        }
    }
    result
}

/// A `twm_obs` sink keeping the program's own spans of the given names
/// as `(name, start_ns, end_ns)` on this module's clock, until a
/// benchmark span claims them.
pub struct ProgramSpans {
    names: &'static [&'static str],
    spans: Mutex<Vec<(&'static str, u64, u64)>>,
}

impl ProgramSpans {
    pub fn new(names: &'static [&'static str]) -> Self {
        Self {
            names,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Removes and returns the latest-ending span named `name` that lies
    /// inside `[start_ns, end_ns]`.
    pub fn claim(&self, name: &str, start_ns: u64, end_ns: u64) -> Option<(u64, u64)> {
        let mut spans = self.spans.lock().expect("program span store poisoned");
        let at = spans
            .iter()
            .enumerate()
            .filter(|(_, (n, s, e))| *n == name && *s >= start_ns && *e <= end_ns)
            .max_by_key(|(_, (_, _, e))| *e)
            .map(|(at, _)| at)?;
        let (_, start, end) = spans.swap_remove(at);
        Some((start, end))
    }
}

impl Sink for ProgramSpans {
    fn record(&self, record: Record) {
        if let Record::Span {
            name, elapsed_ns, ..
        } = record
        {
            if self.names.contains(&name) {
                let end = now_ns();
                let span = (name, end.saturating_sub(elapsed_ns), end);
                self.spans
                    .lock()
                    .expect("program span store poisoned")
                    .push(span);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u64,
        parent: u64,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> SpanRecord {
        SpanRecord {
            trace,
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_times_of_clipped_children_sum_to_the_root() {
        let spans = [
            span(1, 1, 0, "batch", 0, 100),
            span(1, 2, 1, "read", 10, 90),
            // Starts (on another thread) before its parent.
            span(1, 3, 2, "server", 5, 40),
            span(1, 4, 2, "handle", 45, 60),
            span(1, 5, 4, "inner", 50, 55),
            span(2, 6, 0, "other", 0, 50),
        ];
        let result = breakdown(&spans, "batch");
        assert_eq!(result.traces, 1);
        assert_eq!(result.wall_ns, 100);
        assert_eq!(result.self_ns["batch"], 20);
        assert_eq!(result.self_ns["read"], 35);
        assert_eq!(result.self_ns["server"], 30);
        assert_eq!(result.self_ns["handle"], 10);
        assert_eq!(result.self_ns["inner"], 5);
        assert!(!result.self_ns.contains_key("other"));
        assert_eq!(result.self_ns.values().sum::<u64>(), result.wall_ns);
    }
}
