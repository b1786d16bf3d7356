//! A profiling [`Sink`]: aggregates the span stream into per-span-name
//! **self-time** (elapsed minus the elapsed of direct children), call
//! counts and min/max/total wall time, answering "where does the time
//! actually go" without shipping individual records anywhere.
//!
//! The trace layer emits children before their parents (spans record on
//! drop), and every [`Record::Span`] carries its parent's id. The
//! profiler exploits exactly that: when a span closes, its elapsed time
//! is charged to its parent's pending child-time slot, and whatever the
//! span itself had accumulated from *its* children is subtracted from
//! its own elapsed to give self-time. Both tables are lock-striped so
//! concurrent workloads don't serialise on one mutex; a span and its
//! parent live on the same thread (the parent stack is thread-local),
//! but different subtrees profile in parallel.
//!
//! Like every sink, the profiler only observes: it never influences
//! results (the non-interference invariant), and with tracing disabled
//! it costs nothing because no records are produced at all.
//!
//! ```
//! use std::sync::Arc;
//! use twm_obs::{trace, ProfilerSink};
//!
//! let profiler = Arc::new(ProfilerSink::new());
//! trace::set_sink(profiler.clone());
//! trace::set_enabled(true);
//! {
//!     let _outer = trace::span("doc.outer");
//!     let _inner = trace::span("doc.inner");
//! }
//! trace::set_enabled(false);
//! let report = profiler.snapshot();
//! assert_eq!(report.spans.len(), 2);
//! trace::set_sink(Arc::new(twm_obs::NoopSink));
//! ```

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::trace::{Record, Sink};

/// Number of independently locked shards in each profiler table.
const STRIPES: usize = 16;

/// Stripe index for a span id (Fibonacci hashing: sequential ids spread
/// evenly instead of clustering in one stripe).
fn id_stripe(id: u64) -> usize {
    (id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize % STRIPES
}

/// Stripe index for a span name (FNV-1a).
fn name_stripe(name: &str) -> usize {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (hash >> 32) as usize % STRIPES
}

/// Hashes a span id with one multiply. Ids are unique and issued by the
/// process itself, so SipHash's resistance to chosen keys buys nothing.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(self.0 << 8 | u64::from(byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `span id -> child time` for one stripe.
type PendingStripe = HashMap<u64, u64, BuildHasherDefault<IdHasher>>;

#[derive(Debug, Default, Clone, Copy)]
struct SpanAggregate {
    calls: u64,
    total_ns: u64,
    self_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// A [`Sink`] that folds the span stream into per-name self-time
/// aggregates. Point events are ignored — the profiler is about where
/// wall time goes, and only spans carry elapsed time.
#[derive(Debug)]
pub struct ProfilerSink {
    /// `span id -> child time accumulated so far`, for spans whose own
    /// record has not yet arrived. Keyed by the *parent* id of closing
    /// children; drained when the parent itself closes.
    pending: Vec<Mutex<PendingStripe>>,
    /// Per-span-name aggregates.
    names: Vec<Mutex<BTreeMap<&'static str, SpanAggregate>>>,
}

impl Default for ProfilerSink {
    fn default() -> Self {
        Self::new()
    }
}

impl ProfilerSink {
    /// An empty profiler.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pending: (0..STRIPES).map(|_| Mutex::default()).collect(),
            names: (0..STRIPES).map(|_| Mutex::new(BTreeMap::new())).collect(),
        }
    }

    /// Freezes the aggregates into a report, sorted by self-time
    /// descending (name ascending as the tiebreak).
    #[must_use]
    pub fn snapshot(&self) -> ProfileReport {
        let mut spans: Vec<SpanProfile> = Vec::new();
        for stripe in &self.names {
            for (name, aggregate) in stripe.lock().expect("profiler stripe").iter() {
                spans.push(SpanProfile {
                    name: (*name).to_string(),
                    calls: aggregate.calls,
                    total_ns: aggregate.total_ns,
                    self_ns: aggregate.self_ns,
                    min_ns: aggregate.min_ns,
                    max_ns: aggregate.max_ns,
                });
            }
        }
        spans.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
        let open_parents = self
            .pending
            .iter()
            .map(|stripe| stripe.lock().expect("profiler stripe").len() as u64)
            .sum();
        ProfileReport {
            spans,
            open_parents,
        }
    }

    /// Clears every aggregate and pending slot.
    pub fn reset(&self) {
        for stripe in &self.pending {
            stripe.lock().expect("profiler stripe").clear();
        }
        for stripe in &self.names {
            stripe.lock().expect("profiler stripe").clear();
        }
    }
}

impl Sink for ProfilerSink {
    /// Only names and times matter here: spans skip their fields.
    fn wants_fields(&self) -> bool {
        false
    }

    fn record(&self, record: Record) {
        let Record::Span {
            id,
            parent,
            name,
            elapsed_ns,
            ..
        } = record
        else {
            return;
        };
        // Children recorded before this span charged their elapsed time
        // to our pending slot; claim it (and free the slot).
        let child_ns = self.pending[id_stripe(id)]
            .lock()
            .expect("profiler stripe")
            .remove(&id)
            .unwrap_or(0);
        // Charge our own elapsed time to the parent, who is still open.
        if parent != 0 {
            let mut stripe = self.pending[id_stripe(parent)]
                .lock()
                .expect("profiler stripe");
            let slot = stripe.entry(parent).or_insert(0);
            *slot = slot.saturating_add(elapsed_ns);
        }
        let self_ns = elapsed_ns.saturating_sub(child_ns);
        let mut names = self.names[name_stripe(name)]
            .lock()
            .expect("profiler stripe");
        let aggregate = names.entry(name).or_default();
        aggregate.min_ns = if aggregate.calls == 0 {
            elapsed_ns
        } else {
            aggregate.min_ns.min(elapsed_ns)
        };
        aggregate.max_ns = aggregate.max_ns.max(elapsed_ns);
        aggregate.calls += 1;
        aggregate.total_ns = aggregate.total_ns.saturating_add(elapsed_ns);
        aggregate.self_ns = aggregate.self_ns.saturating_add(self_ns);
    }
}

/// One span name's aggregate in a [`ProfileReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanProfile {
    /// The span name.
    pub name: String,
    /// Completed spans under this name.
    pub calls: u64,
    /// Total wall time across all calls.
    pub total_ns: u64,
    /// Wall time not accounted to direct children — the profiler's
    /// ranking key.
    pub self_ns: u64,
    /// Fastest single call.
    pub min_ns: u64,
    /// Slowest single call.
    pub max_ns: u64,
}

/// A frozen profile: span aggregates sorted by self-time descending.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Per-name aggregates, hottest self-time first.
    pub spans: Vec<SpanProfile>,
    /// Parents that had accumulated child time but had not themselves
    /// closed at snapshot time (non-zero while workloads are live, or
    /// when the sink was swapped out mid-span).
    pub open_parents: u64,
}

impl ProfileReport {
    /// The `n` hottest spans by self-time.
    #[must_use]
    pub fn top(&self, n: usize) -> &[SpanProfile] {
        &self.spans[..n.min(self.spans.len())]
    }

    /// Total self-time across every span name — the profile's wall-time
    /// denominator (child time is never double-counted in self-time, so
    /// this approximates the traced wall time).
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.spans
            .iter()
            .fold(0u64, |sum, span| sum.saturating_add(span.self_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, elapsed_ns: u64) -> Record {
        Record::Span {
            id,
            parent,
            name,
            elapsed_ns,
            fields: Vec::new(),
        }
    }

    fn profile<'report>(report: &'report ProfileReport, name: &str) -> &'report SpanProfile {
        report
            .spans
            .iter()
            .find(|span| span.name == name)
            .unwrap_or_else(|| panic!("span `{name}` missing from {report:?}"))
    }

    /// Self-time is elapsed minus the direct children's elapsed —
    /// grandchildren are charged to their own parent, not to the root.
    #[test]
    fn self_time_subtracts_direct_children_only() {
        let profiler = ProfilerSink::new();
        // Drop order: grandchild, two children, then the root.
        profiler.record(span(4, 2, "grandchild", 10));
        profiler.record(span(2, 1, "child", 30));
        profiler.record(span(3, 1, "child", 20));
        profiler.record(span(1, 0, "root", 100));
        let report = profiler.snapshot();
        assert_eq!(report.open_parents, 0);

        let root = profile(&report, "root");
        assert_eq!((root.calls, root.total_ns, root.self_ns), (1, 100, 50));
        let child = profile(&report, "child");
        // Two calls: 30 (minus grandchild's 10) + 20 = 40 self.
        assert_eq!((child.calls, child.total_ns, child.self_ns), (2, 50, 40));
        assert_eq!((child.min_ns, child.max_ns), (20, 30));
        let grandchild = profile(&report, "grandchild");
        assert_eq!(grandchild.self_ns, 10);
        assert_eq!(report.total_self_ns(), 100);
    }

    /// The report ranks by self-time descending and `top` truncates.
    #[test]
    fn report_is_sorted_by_self_time() {
        let profiler = ProfilerSink::new();
        profiler.record(span(1, 0, "cold", 5));
        profiler.record(span(2, 0, "hot", 500));
        profiler.record(span(3, 0, "warm", 50));
        let report = profiler.snapshot();
        let names: Vec<&str> = report.spans.iter().map(|span| span.name.as_str()).collect();
        assert_eq!(names, vec!["hot", "warm", "cold"]);
        assert_eq!(report.top(2).len(), 2);
        assert_eq!(report.top(2)[0].name, "hot");
        assert_eq!(report.top(99).len(), 3);
    }

    #[test]
    fn events_are_ignored_and_reset_clears() {
        let profiler = ProfilerSink::new();
        profiler.record(Record::Event {
            span: 1,
            name: "tick",
            fields: Vec::new(),
        });
        assert!(profiler.snapshot().spans.is_empty());

        profiler.record(span(2, 1, "child", 10));
        let mid = profiler.snapshot();
        assert_eq!(mid.spans.len(), 1);
        // The parent's pending slot is open until span 1 closes.
        assert_eq!(mid.open_parents, 1);

        profiler.reset();
        let cleared = profiler.snapshot();
        assert!(cleared.spans.is_empty());
        assert_eq!(cleared.open_parents, 0);
    }

    /// A child whose clock outran its parent's (timer skew) saturates
    /// to zero self-time instead of wrapping.
    #[test]
    fn skewed_child_time_saturates() {
        let profiler = ProfilerSink::new();
        profiler.record(span(2, 1, "child", 150));
        profiler.record(span(1, 0, "parent", 100));
        let report = profiler.snapshot();
        assert_eq!(profile(&report, "parent").self_ns, 0);
        assert_eq!(profile(&report, "parent").total_ns, 100);
    }

    /// The report serialises and round-trips through serde.
    #[test]
    fn report_round_trips_through_serde() {
        let profiler = ProfilerSink::new();
        profiler.record(span(1, 0, "only", 42));
        let report = profiler.snapshot();
        let tree = serde::to_value(&report);
        let back: ProfileReport = serde::from_value(&tree).unwrap();
        assert_eq!(back, report);
    }
}
