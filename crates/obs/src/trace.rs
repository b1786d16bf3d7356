//! Hierarchical spans and point events behind a static gate, recorded
//! to a pluggable process-wide sink.
//!
//! The gate is the whole cost model: with tracing disabled (the
//! default), [`span`] and [`event`] cost exactly **one relaxed atomic
//! load** and produce nothing — instrumentation can stay in hot paths
//! permanently. Enabled, a [`Span`] stamps its start time, tracks its
//! parent through a thread-local stack and emits one [`Record`] to the
//! sink when dropped; [`event`] emits immediately under the innermost
//! live span. A one-in-N sampling knob ([`set_sample_one_in`]) bounds
//! record volume under load without touching call sites.
//!
//! Sinks never influence results (the non-interference invariant): a
//! failing [`JsonLinesSink`] writer drops records, and the bounded
//! [`RingSink`] drops its oldest records on overflow — but neither
//! loses them *silently*: write failures count into the
//! `twm_obs_sink_write_errors_total` counter and ring drops into the
//! `twm_obs_ring_dropped_records` gauge, so span loss is visible on
//! any scrape.

use std::collections::VecDeque;
use std::fmt::Display;
use std::fmt::Write as _;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::metrics::{global, Counter, Gauge};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SAMPLE_ONE_IN: AtomicU64 = AtomicU64::new(1);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// Whether the installed sink reads record fields ([`Sink::wants_fields`];
/// the default [`NoopSink`] does not).
static SINK_WANTS_FIELDS: AtomicBool = AtomicBool::new(false);

std::thread_local! {
    static SPAN_STACK: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Whether tracing is on — one relaxed atomic load, the entire cost of
/// every disabled span and event.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the trace gate on or off (process-wide).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Keeps one span in `n` (with its events); `0` and `1` both mean
/// "every span". Sampling decides at span creation, so a sampled-out
/// span's whole subtree is skipped coherently.
pub fn set_sample_one_in(n: u64) {
    SAMPLE_ONE_IN.store(n.max(1), Ordering::Relaxed);
}

/// One completed span or point event, as delivered to a [`Sink`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A span that completed (records are emitted on drop, so children
    /// arrive before their parents).
    Span {
        /// The span id (unique within the process run).
        id: u64,
        /// The enclosing span's id, `0` for a root.
        parent: u64,
        /// The span name.
        name: &'static str,
        /// Wall time between creation and drop.
        elapsed_ns: u64,
        /// Fields attached with [`Span::field`], in attachment order.
        fields: Vec<(&'static str, String)>,
    },
    /// A point event.
    Event {
        /// The innermost live span's id, `0` outside any span.
        span: u64,
        /// The event name.
        name: &'static str,
        /// The event's fields.
        fields: Vec<(&'static str, String)>,
    },
}

fn escape_json(value: &str, out: &mut String) {
    for ch in value.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            control if (control as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", control as u32);
            }
            other => out.push(other),
        }
    }
}

fn render_fields(fields: &[(&'static str, String)], out: &mut String) {
    out.push('{');
    for (at, (name, value)) in fields.iter().enumerate() {
        if at > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(name, out);
        out.push_str("\":\"");
        escape_json(value, out);
        out.push('"');
    }
    out.push('}');
}

impl Record {
    /// Renders the record as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        match self {
            Record::Span {
                id,
                parent,
                name,
                elapsed_ns,
                fields,
            } => {
                let _ = write!(
                    out,
                    "{{\"kind\":\"span\",\"id\":{id},\"parent\":{parent},\"name\":\""
                );
                escape_json(name, &mut out);
                let _ = write!(out, "\",\"elapsed_ns\":{elapsed_ns},\"fields\":");
                render_fields(fields, &mut out);
                out.push('}');
            }
            Record::Event { span, name, fields } => {
                let _ = write!(out, "{{\"kind\":\"event\",\"span\":{span},\"name\":\"");
                escape_json(name, &mut out);
                out.push_str("\",\"fields\":");
                render_fields(fields, &mut out);
                out.push('}');
            }
        }
        out
    }
}

/// Where trace records go. Implementations must tolerate concurrent
/// calls, must never fail the caller, and must not install a sink or
/// trace from inside [`Sink::record`].
pub trait Sink: Send + Sync {
    /// Accepts one record.
    fn record(&self, record: Record);

    /// Whether the sink reads [`Record`] fields. When the installed sink
    /// says no, spans opened under it skip formatting their field values
    /// and records arrive with empty `fields`.
    fn wants_fields(&self) -> bool {
        true
    }
}

/// The default sink: discards everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn record(&self, _record: Record) {}

    fn wants_fields(&self) -> bool {
        false
    }
}

#[derive(Debug, Default)]
struct RingState {
    records: VecDeque<Record>,
    dropped: u64,
}

/// A bounded in-memory sink for tests: keeps the newest `capacity`
/// records, dropping the oldest on overflow (and counting the drops —
/// per instance via [`RingSink::dropped`], and cumulatively across all
/// rings in the process via the `twm_obs_ring_dropped_records` gauge).
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
    dropped_gauge: Gauge,
}

impl RingSink {
    /// A ring holding at most `capacity` records (at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            state: Mutex::new(RingState::default()),
            dropped_gauge: global().gauge("twm_obs_ring_dropped_records", &[]),
        }
    }

    /// Removes and returns everything buffered, oldest first.
    #[must_use]
    pub fn take(&self) -> Vec<Record> {
        let mut state = self.state.lock().expect("ring lock");
        state.records.drain(..).collect()
    }

    /// Records currently buffered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.state.lock().expect("ring lock").records.len()
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records dropped to stay under the bound, so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.state.lock().expect("ring lock").dropped
    }
}

impl Sink for RingSink {
    fn record(&self, record: Record) {
        let mut state = self.state.lock().expect("ring lock");
        if state.records.len() == self.capacity {
            state.records.pop_front();
            state.dropped += 1;
            self.dropped_gauge.incr();
        }
        state.records.push_back(record);
    }
}

/// A sink writing each record as one JSON line. Write failures never
/// reach the caller — observability never fails the application — but
/// each one counts into the `twm_obs_sink_write_errors_total` counter
/// so lost records are visible on any scrape.
pub struct JsonLinesSink<W: Write + Send> {
    writer: Mutex<W>,
    write_errors: Counter,
}

impl<W: Write + Send> JsonLinesSink<W> {
    /// Wraps a writer (a file, a `Vec<u8>` in tests, a socket).
    pub fn new(writer: W) -> Self {
        Self {
            writer: Mutex::new(writer),
            write_errors: global().counter("twm_obs_sink_write_errors_total", &[]),
        }
    }

    /// Write failures swallowed (and counted) so far, process-wide:
    /// the counter is shared by every `JsonLinesSink` in the registry.
    #[must_use]
    pub fn write_errors(&self) -> u64 {
        self.write_errors.get()
    }

    /// Unwraps the writer (flushing is the writer's own business).
    pub fn into_inner(self) -> W {
        self.writer.into_inner().expect("jsonl lock")
    }
}

impl<W: Write + Send> Sink for JsonLinesSink<W> {
    fn record(&self, record: Record) {
        let mut line = record.to_json();
        line.push('\n');
        let mut writer = self.writer.lock().expect("jsonl lock");
        if writer.write_all(line.as_bytes()).is_err() {
            self.write_errors.incr();
        }
    }
}

/// The process-wide sink. Records are delivered under the read lock, so
/// concurrent records never wait on one another.
fn sink_slot() -> &'static RwLock<Arc<dyn Sink>> {
    static SINK: OnceLock<RwLock<Arc<dyn Sink>>> = OnceLock::new();
    SINK.get_or_init(|| RwLock::new(Arc::new(NoopSink)))
}

/// Installs the process-wide sink (replacing the previous one).
pub fn set_sink(sink: Arc<dyn Sink>) {
    let mut slot = sink_slot().write().expect("sink lock");
    SINK_WANTS_FIELDS.store(sink.wants_fields(), Ordering::Relaxed);
    *slot = sink;
}

fn deliver(record: Record) {
    sink_slot().read().expect("sink lock").record(record);
}

struct SpanState {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
    /// Whether the sink installed when the span opened reads fields.
    keep_fields: bool,
    fields: Vec<(&'static str, String)>,
}

/// A live span guard: records itself to the sink when dropped. Inert
/// (zero further cost) when tracing is off or the span was sampled
/// out.
pub struct Span {
    state: Option<SpanState>,
}

impl Span {
    /// The span id; `0` when inert.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.state.as_ref().map_or(0, |state| state.id)
    }

    /// Attaches a field (no-op when inert or when the sink does not read
    /// fields, so callers can attach unconditionally).
    pub fn field(&mut self, name: &'static str, value: impl Display) {
        if let Some(state) = &mut self.state {
            if state.keep_fields {
                state.fields.push((name, value.to_string()));
            }
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(state) = self.state.take() else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&state.id) {
                stack.pop();
            } else {
                // Out-of-order drop (moved guard): remove wherever it is.
                stack.retain(|&id| id != state.id);
            }
        });
        let elapsed_ns = u64::try_from(state.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        deliver(Record::Span {
            id: state.id,
            parent: state.parent,
            name: state.name,
            elapsed_ns,
            fields: state.fields,
        });
    }
}

/// Opens a span. With tracing disabled this is one relaxed load and an
/// inert guard; enabled, the span samples itself, stamps its start
/// time and nests under the innermost live span of this thread.
#[must_use]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { state: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let one_in = SAMPLE_ONE_IN.load(Ordering::Relaxed).max(1);
    if !id.is_multiple_of(one_in) {
        return Span { state: None };
    }
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last().copied().unwrap_or(0);
        stack.push(id);
        parent
    });
    Span {
        state: Some(SpanState {
            id,
            parent,
            name,
            start: Instant::now(),
            keep_fields: SINK_WANTS_FIELDS.load(Ordering::Relaxed),
            fields: Vec::new(),
        }),
    }
}

/// Emits a point event under the innermost live span. One relaxed load
/// when tracing is disabled.
pub fn event(name: &'static str, fields: &[(&'static str, &str)]) {
    if !enabled() {
        return;
    }
    let span = SPAN_STACK.with(|stack| stack.borrow().last().copied().unwrap_or(0));
    let fields = if SINK_WANTS_FIELDS.load(Ordering::Relaxed) {
        fields
            .iter()
            .map(|(name, value)| (*name, (*value).to_string()))
            .collect()
    } else {
        Vec::new()
    };
    deliver(Record::Event { span, name, fields });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace gate and sink are process-wide: every test that flips
    /// them runs under this lock so assertions never see a sibling
    /// test's records.
    fn gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_tracing_is_inert() {
        let _gate = gate();
        let ring = Arc::new(RingSink::new(8));
        set_sink(ring.clone());
        set_enabled(false);
        {
            let mut span = span("quiet");
            span.field("ignored", 1);
            assert_eq!(span.id(), 0);
            event("quiet.event", &[("a", "b")]);
        }
        assert!(ring.is_empty());
        set_sink(Arc::new(NoopSink));
    }

    #[test]
    fn spans_nest_and_events_attach_to_the_innermost() {
        let _gate = gate();
        let ring = Arc::new(RingSink::new(8));
        set_sink(ring.clone());
        set_sample_one_in(1);
        set_enabled(true);
        let (outer_id, inner_id);
        {
            let mut outer = span("outer");
            outer.field("batch", 42);
            outer_id = outer.id();
            {
                let inner = span("inner");
                inner_id = inner.id();
                event("tick", &[("at", "inner")]);
            }
            event("tock", &[]);
        }
        set_enabled(false);
        set_sink(Arc::new(NoopSink));
        let records = ring.take();
        assert_eq!(records.len(), 4);
        // Children complete first; the events carry their span ids.
        assert_eq!(
            records[0],
            Record::Event {
                span: inner_id,
                name: "tick",
                fields: vec![("at", "inner".to_string())],
            }
        );
        let Record::Span {
            id, parent, name, ..
        } = &records[1]
        else {
            panic!("expected the inner span: {records:?}");
        };
        assert_eq!((*id, *parent, *name), (inner_id, outer_id, "inner"));
        assert_eq!(
            records[2],
            Record::Event {
                span: outer_id,
                name: "tock",
                fields: Vec::new(),
            }
        );
        let Record::Span {
            id, parent, fields, ..
        } = &records[3]
        else {
            panic!("expected the outer span: {records:?}");
        };
        assert_eq!((*id, *parent), (outer_id, 0));
        assert_eq!(fields, &vec![("batch", "42".to_string())]);
    }

    /// A sink that does not read fields gets spans and events without
    /// them: nothing is formatted for it.
    #[test]
    fn sinks_that_skip_fields_get_none() {
        struct Bare(RingSink);
        impl Sink for Bare {
            fn record(&self, record: Record) {
                self.0.record(record);
            }
            fn wants_fields(&self) -> bool {
                false
            }
        }
        let _gate = gate();
        let bare = Arc::new(Bare(RingSink::new(8)));
        set_sink(bare.clone());
        set_sample_one_in(1);
        set_enabled(true);
        {
            let mut span = span("bare");
            span.field("skipped", 1);
            event("bare.event", &[("also", "skipped")]);
        }
        set_enabled(false);
        set_sink(Arc::new(NoopSink));
        let records = bare.0.take();
        assert_eq!(records.len(), 2);
        for record in records {
            let (Record::Span { fields, .. } | Record::Event { fields, .. }) = record;
            assert!(fields.is_empty(), "fields reached a sink that skips them");
        }
    }

    /// The ring keeps the newest records and counts what it dropped.
    #[test]
    fn ring_overflow_drops_oldest() {
        let ring = RingSink::new(2);
        for at in 0..5 {
            ring.record(Record::Event {
                span: at,
                name: "e",
                fields: Vec::new(),
            });
        }
        assert_eq!(ring.dropped(), 3);
        let records = ring.take();
        assert_eq!(records.len(), 2);
        let spans: Vec<u64> = records
            .iter()
            .map(|record| match record {
                Record::Event { span, .. } => *span,
                Record::Span { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(spans, vec![3, 4]);
        assert!(ring.is_empty());
    }

    #[test]
    fn sampling_keeps_one_in_n() {
        let _gate = gate();
        let ring = Arc::new(RingSink::new(64));
        set_sink(ring.clone());
        set_sample_one_in(4);
        set_enabled(true);
        for _ in 0..16 {
            let _span = span("sampled");
        }
        set_enabled(false);
        set_sample_one_in(1);
        set_sink(Arc::new(NoopSink));
        let kept = ring.take().len();
        // Ids advance globally (other tests may interleave), so exact
        // counts are not guaranteed — but one-in-four over sixteen
        // spans keeps roughly a quarter, never all.
        assert!((2..=6).contains(&kept), "kept {kept} of 16 at 1-in-4");
    }

    /// A failing writer never reaches the caller but leaves a count in
    /// the process-wide write-error counter.
    #[test]
    fn json_lines_write_failures_are_counted() {
        struct FailingWriter;
        impl Write for FailingWriter {
            fn write(&mut self, _buffer: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonLinesSink::new(FailingWriter);
        let before = sink.write_errors();
        sink.record(Record::Event {
            span: 0,
            name: "lost",
            fields: Vec::new(),
        });
        sink.record(Record::Event {
            span: 0,
            name: "also-lost",
            fields: Vec::new(),
        });
        // The counter is process-global (other tests may bump it), so
        // assert the delta, not the absolute value.
        assert_eq!(sink.write_errors() - before, 2);
        assert_eq!(
            global()
                .counter("twm_obs_sink_write_errors_total", &[])
                .get(),
            sink.write_errors()
        );
    }

    /// Ring overflow mirrors its per-instance drop count into the
    /// process-wide gauge.
    #[test]
    fn ring_drops_are_mirrored_into_the_registry_gauge() {
        let gauge = global().gauge("twm_obs_ring_dropped_records", &[]);
        let before = gauge.get();
        let ring = RingSink::new(1);
        for at in 0..4 {
            ring.record(Record::Event {
                span: at,
                name: "spill",
                fields: Vec::new(),
            });
        }
        assert_eq!(ring.dropped(), 3);
        assert!(gauge.get() - before >= 3, "gauge missed the ring's drops");
    }

    #[test]
    fn json_lines_escape_and_terminate() {
        let record = Record::Event {
            span: 7,
            name: "odd",
            fields: vec![("path", "a\"b\\c\nd\u{1}".to_string())],
        };
        assert_eq!(
            record.to_json(),
            "{\"kind\":\"event\",\"span\":7,\"name\":\"odd\",\"fields\":{\"path\":\"a\\\"b\\\\c\\nd\\u0001\"}}"
        );
        let sink = JsonLinesSink::new(Vec::new());
        sink.record(record.clone());
        sink.record(Record::Span {
            id: 1,
            parent: 0,
            name: "s",
            elapsed_ns: 5,
            fields: Vec::new(),
        });
        let written = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = written.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], record.to_json());
        assert!(lines[1].contains("\"elapsed_ns\":5"));
    }
}
