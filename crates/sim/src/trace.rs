//! Deterministic tracing: virtual-clock spans, attribution and exporters.
//!
//! Every [`crate::SimClock`] carries a [`Tracer`]. Components that charge
//! device costs against the clock open a [`SpanGuard`] around the charged
//! region; the guard stamps its start and end from the *virtual* clock, so
//! a trace is a pure function of the simulation — byte-identical across
//! runs, seeds, machines and `--jobs` settings.
//!
//! Tracing is off by default and zero-cost while off: opening a span is a
//! single relaxed atomic load, tags are not formatted, and nothing is
//! allocated. Enabling it (`clock.tracer().enable()`) records every span
//! into an in-memory buffer that [`Tracer::finish`] drains into a
//! [`Trace`], which knows how to
//!
//! * roll itself up into a per-category [`Attribution`] of simulated time
//!   (exclusive/self time, so nested spans are not double-counted),
//! * export Chrome-trace/Perfetto JSON ([`Trace::to_chrome_json`]), and
//! * export a compact JSONL event log ([`Trace::to_jsonl`]).
//!
//! # Examples
//!
//! ```
//! use dmem_sim::{SimClock, SimDuration};
//!
//! let clock = SimClock::new();
//! clock.tracer().enable();
//! {
//!     let span = clock.tracer().span("net", "write");
//!     span.tag("bytes", 4096);
//!     clock.advance(SimDuration::from_micros(3));
//! }
//! let trace = clock.tracer().finish();
//! assert_eq!(trace.spans.len(), 1);
//! assert_eq!(trace.spans[0].category, "net");
//! assert_eq!(trace.spans[0].duration().as_micros_f64(), 3.0);
//! ```

use crate::time::{SimDuration, SimInstant};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// How a span was measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A synchronous RAII span: the caller's virtual time was inside it.
    /// Sync spans nest properly and are counted by [`Trace::attribution`].
    Sync,
    /// A manually stamped span for work that overlaps the caller (e.g. a
    /// posted RDMA transfer draining in the background). Shown in the
    /// timeline exports but excluded from attribution so overlapping time
    /// is not double-counted.
    Async,
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Sequential id (also the index into [`Trace::spans`]).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Component category (`"net"`, `"swap"`, `"core"`, …).
    pub category: &'static str,
    /// Operation name within the category.
    pub name: &'static str,
    /// Virtual start time, nanoseconds.
    pub start_ns: u64,
    /// Virtual end time, nanoseconds.
    pub end_ns: u64,
    /// Formatted key/value annotations.
    pub tags: Vec<(&'static str, String)>,
    /// Sync (RAII) or async (manually stamped).
    pub kind: SpanKind,
}

impl SpanRecord {
    /// The span's virtual duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_nanos(self.end_ns.saturating_sub(self.start_ns))
    }
}

#[derive(Default)]
struct TraceState {
    spans: Vec<SpanRecord>,
    /// Ids of currently open sync spans, innermost last.
    stack: Vec<u64>,
}

struct TracerInner {
    enabled: AtomicBool,
    /// The owning clock's time cell (shared, never written here).
    now_ns: Arc<AtomicU64>,
    state: Mutex<TraceState>,
}

/// The per-clock span collector. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    pub(crate) fn new(now_ns: Arc<AtomicU64>) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(false),
                now_ns,
                state: Mutex::new(TraceState::default()),
            }),
        }
    }

    /// Starts recording spans.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording spans (already collected spans are kept).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// `true` while spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    fn now(&self) -> u64 {
        self.inner.now_ns.load(Ordering::SeqCst)
    }

    /// Opens a sync span; it closes (and stamps its end time) when the
    /// returned guard drops. A no-op returning an inert guard while
    /// disabled.
    #[inline]
    pub fn span(&self, category: &'static str, name: &'static str) -> SpanGuard {
        if !self.is_enabled() {
            return SpanGuard { tracer: None, id: 0 };
        }
        let start = self.now();
        let mut state = self.inner.state.lock();
        let id = state.spans.len() as u64;
        let parent = state.stack.last().copied();
        state.spans.push(SpanRecord {
            id,
            parent,
            category,
            name,
            start_ns: start,
            end_ns: start,
            tags: Vec::new(),
            kind: SpanKind::Sync,
        });
        state.stack.push(id);
        SpanGuard {
            tracer: Some(Arc::clone(&self.inner)),
            id,
        }
    }

    /// Records an already-finished span with explicit virtual timestamps —
    /// used for asynchronous work (posted transfers) whose lifetime is not
    /// a lexical scope. Parented under the currently open sync span.
    pub fn record_async(
        &self,
        category: &'static str,
        name: &'static str,
        start: SimInstant,
        end: SimInstant,
        tags: &[(&'static str, u64)],
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut state = self.inner.state.lock();
        let id = state.spans.len() as u64;
        let parent = state.stack.last().copied();
        state.spans.push(SpanRecord {
            id,
            parent,
            category,
            name,
            start_ns: start.nanos(),
            end_ns: end.nanos().max(start.nanos()),
            tags: tags.iter().map(|(k, v)| (*k, v.to_string())).collect(),
            kind: SpanKind::Async,
        });
    }

    /// Number of spans collected so far.
    pub fn len(&self) -> usize {
        self.inner.state.lock().spans.len()
    }

    /// `true` if no spans have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains every collected span into a [`Trace`]. Open spans are kept
    /// open (they will close into the *next* trace), so call this between
    /// operations, not inside one.
    pub fn finish(&self) -> Trace {
        let mut state = self.inner.state.lock();
        let open = state.stack.len();
        let spans = std::mem::take(&mut state.spans);
        state.stack.clear();
        drop(state);
        debug_assert_eq!(open, 0, "finish() with {open} spans still open");
        Trace { spans }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("spans", &self.len())
            .finish()
    }
}

/// RAII guard for a sync span. Stamps the span's end from the virtual
/// clock on drop. Inert (free) when tracing is disabled.
pub struct SpanGuard {
    tracer: Option<Arc<TracerInner>>,
    id: u64,
}

impl SpanGuard {
    /// Annotates the span. No-op (nothing formatted) while disabled.
    pub fn tag(&self, key: &'static str, value: impl fmt::Display) {
        if let Some(inner) = &self.tracer {
            let mut state = inner.state.lock();
            let idx = self.id as usize;
            state.spans[idx].tags.push((key, value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.tracer.take() {
            let end = inner.now_ns.load(Ordering::SeqCst);
            let mut state = inner.state.lock();
            let idx = self.id as usize;
            state.spans[idx].end_ns = state.spans[idx].end_ns.max(end);
            // Guards drop LIFO in correct code; tolerate out-of-order
            // drops by removing this id wherever it sits.
            if state.stack.last() == Some(&self.id) {
                state.stack.pop();
            } else {
                state.stack.retain(|&open| open != self.id);
            }
        }
    }
}

/// A finished, immutable set of spans.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All spans, in open order (id order).
    pub spans: Vec<SpanRecord>,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One sampled event in a shard's trace buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTraceEvent {
    /// Virtual time of the event, in nanoseconds.
    pub at_ns: u64,
    /// Per-shard event sequence number (set by the log).
    pub seq: u64,
    /// Event kind, a static label such as `"read.miss"`.
    pub kind: &'static str,
    /// The host the event concerns.
    pub host: u64,
    /// Kind-specific detail (a page id, a latency, a peer host).
    pub detail: u64,
}

/// A per-shard append-only trace buffer for the sharded engine.
///
/// The shared [`Tracer`] hangs off the atomic [`SimClock`], which shards
/// do not use; instead each shard samples events into its own
/// `ShardEventLog` (plain pushes, no locks) and the caller merges
/// the logs under the same `(time, shard, seq)` order as the mailboxes —
/// so the exported trace, like every other output, is byte-identical at
/// every worker count.
///
/// Sampling keeps rack-scale runs bounded: `sample_every = n` keeps one
/// event in `n` (deterministically, by per-shard event count);
/// `sample_every = 1` keeps everything, `0` disables the log.
///
/// [`SimClock`]: crate::SimClock
#[derive(Debug, Clone, Default)]
pub struct ShardEventLog {
    shard: u32,
    sample_every: u64,
    seen: u64,
    events: Vec<ShardTraceEvent>,
}

impl ShardEventLog {
    /// Creates a log for `shard` keeping one event in `sample_every`.
    pub fn new(shard: u32, sample_every: u64) -> Self {
        ShardEventLog {
            shard,
            sample_every,
            seen: 0,
            events: Vec::new(),
        }
    }

    /// The shard this log belongs to.
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Number of events kept (after sampling).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were kept.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The kept events, in shard-local offer order.
    pub fn events(&self) -> &[ShardTraceEvent] {
        &self.events
    }

    /// Offers one event to the log; it is kept if it falls on the
    /// sampling grid. `seq` is the shard-local offer count, so merged
    /// output is stable however the run was parallelised.
    pub fn push(&mut self, at_ns: u64, kind: &'static str, host: u64, detail: u64) {
        let seq = self.seen;
        self.seen += 1;
        if self.sample_every == 0 || seq % self.sample_every != 0 {
            return;
        }
        self.events.push(ShardTraceEvent {
            at_ns,
            seq,
            kind,
            host,
            detail,
        });
    }

    /// Merges per-shard logs into one JSONL export, one JSON object per
    /// event, ordered by `(at_ns, shard, seq)` — the mailbox merge key.
    pub fn merge_to_jsonl(logs: &[ShardEventLog]) -> String {
        let mut rows: Vec<(u64, u32, u64, &ShardTraceEvent)> = logs
            .iter()
            .flat_map(|log| {
                log.events
                    .iter()
                    .map(move |e| (e.at_ns, log.shard, e.seq, e))
            })
            .collect();
        rows.sort_by_key(|&(at, shard, seq, _)| (at, shard, seq));
        let mut out = String::new();
        for (at, shard, seq, e) in rows {
            out.push_str(&format!(
                "{{\"at_ns\":{at},\"shard\":{shard},\"seq\":{seq},\"kind\":\"{}\",\"host\":{},\"detail\":{}}}\n",
                json_escape(e.kind),
                e.host,
                e.detail,
            ));
        }
        out
    }
}

impl Trace {
    /// The distinct categories present, sorted.
    pub fn categories(&self) -> Vec<&'static str> {
        let mut cats: Vec<&'static str> = self.spans.iter().map(|s| s.category).collect();
        cats.sort_unstable();
        cats.dedup();
        cats
    }

    /// Chrome-trace ("trace event format") JSON, loadable in Perfetto and
    /// `chrome://tracing`. Complete events (`"ph":"X"`) with microsecond
    /// timestamps; span tags land in `args`. Output is deterministic:
    /// events sorted by `(start, id)`, integers formatted in base 10.
    pub fn to_chrome_json(&self) -> String {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| (self.spans[i].start_ns, self.spans[i].id));
        let mut out = String::from("{\"traceEvents\":[");
        for (n, &i) in order.iter().enumerate() {
            let s = &self.spans[i];
            if n > 0 {
                out.push(',');
            }
            // Virtual ns map to trace-format us with 3 exact decimals.
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":0,\"tid\":{},\"args\":{{\"id\":{}",
                json_escape(s.name),
                json_escape(s.category),
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.duration().as_nanos() / 1000,
                s.duration().as_nanos() % 1000,
                if s.kind == SpanKind::Async { 1 } else { 0 },
                s.id,
            ));
            for (k, v) in &s.tags {
                out.push_str(&format!(",\"{}\":\"{}\"", json_escape(k), json_escape(v)));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Compact JSONL event log: one JSON object per span, in id order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"cat\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"kind\":\"{}\"",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_escape(s.category),
                json_escape(s.name),
                s.start_ns,
                s.end_ns,
                if s.kind == SpanKind::Async { "async" } else { "sync" },
            ));
            if !s.tags.is_empty() {
                out.push_str(",\"tags\":{");
                for (i, (k, v)) in s.tags.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)));
                }
                out.push('}');
            }
            out.push_str("}\n");
        }
        out
    }

    /// Rolls sync spans up into per-category *exclusive* (self) time over
    /// a run window of `total` simulated time. Every nanosecond of the
    /// window lands in exactly one row: a span's time minus its sync
    /// children is attributed to its category, and window time covered by
    /// no span at all lands in the `(untraced)` row — so the rows always
    /// sum to `total` exactly.
    pub fn attribution(&self, total: SimDuration) -> Attribution {
        // Sum each span's direct sync children.
        let mut child_ns: Vec<u64> = vec![0; self.spans.len()];
        for s in &self.spans {
            if s.kind != SpanKind::Sync {
                continue;
            }
            if let Some(p) = s.parent {
                // An async parent does not count sync children; walk up to
                // the nearest sync ancestor instead.
                let mut anc = Some(p);
                while let Some(a) = anc {
                    if self.spans[a as usize].kind == SpanKind::Sync {
                        child_ns[a as usize] += s.duration().as_nanos();
                        break;
                    }
                    anc = self.spans[a as usize].parent;
                }
            }
        }
        let mut rows: BTreeMap<(&'static str, &'static str), AttributionRow> = BTreeMap::new();
        let mut traced_ns = 0u64;
        for s in &self.spans {
            if s.kind != SpanKind::Sync {
                continue;
            }
            let self_ns = s
                .duration()
                .as_nanos()
                .saturating_sub(child_ns[s.id as usize]);
            let row = rows.entry((s.category, s.name)).or_insert(AttributionRow {
                category: s.category,
                name: s.name,
                self_ns: 0,
                count: 0,
            });
            row.self_ns += self_ns;
            row.count += 1;
            // Only top-level spans contribute their full duration to the
            // traced window (children are inside them).
            if s.parent.is_none() {
                traced_ns += s.duration().as_nanos();
            }
        }
        let mut rows: Vec<AttributionRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.category.cmp(b.category)));
        Attribution {
            rows,
            untraced_ns: total.as_nanos().saturating_sub(traced_ns),
            total_ns: total.as_nanos(),
        }
    }
}

/// One attribution row: exclusive time of `(category, name)`.
#[derive(Debug, Clone)]
pub struct AttributionRow {
    /// Component category.
    pub category: &'static str,
    /// Operation name.
    pub name: &'static str,
    /// Exclusive (self) simulated nanoseconds.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

/// Per-category/operation breakdown of a run's simulated time. Rows plus
/// the untraced remainder sum to the run total exactly.
#[derive(Debug, Clone)]
pub struct Attribution {
    /// Rows sorted by descending self time.
    pub rows: Vec<AttributionRow>,
    /// Window time not covered by any span (application compute, etc.).
    pub untraced_ns: u64,
    /// The run window this attribution covers.
    pub total_ns: u64,
}

impl Attribution {
    /// Sum of all rows plus the untraced remainder, in nanoseconds.
    /// Equals `total_ns` by construction.
    pub fn accounted_ns(&self) -> u64 {
        self.rows.iter().map(|r| r.self_ns).sum::<u64>() + self.untraced_ns
    }

    /// Self time of one category summed over its operations.
    pub fn category_ns(&self, category: &str) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.category == category)
            .map(|r| r.self_ns)
            .sum()
    }
}

impl fmt::Display for Attribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<28} {:>12} {:>8} {:>10}",
            "component", "self-us", "count", "share"
        )?;
        let pct = |ns: u64| {
            if self.total_ns == 0 {
                0.0
            } else {
                100.0 * ns as f64 / self.total_ns as f64
            }
        };
        for row in &self.rows {
            writeln!(
                f,
                "{:<28} {:>12.1} {:>8} {:>9.1}%",
                format!("{}.{}", row.category, row.name),
                row.self_ns as f64 / 1e3,
                row.count,
                pct(row.self_ns)
            )?;
        }
        writeln!(
            f,
            "{:<28} {:>12.1} {:>8} {:>9.1}%",
            "(untraced)",
            self.untraced_ns as f64 / 1e3,
            "-",
            pct(self.untraced_ns)
        )?;
        write!(
            f,
            "{:<28} {:>12.1} {:>8} {:>9.1}%",
            "total",
            self.total_ns as f64 / 1e3,
            "-",
            pct(self.accounted_ns())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimClock;

    #[test]
    fn disabled_tracer_records_nothing() {
        let clock = SimClock::new();
        {
            let span = clock.tracer().span("net", "write");
            span.tag("bytes", 1);
            clock.advance(SimDuration::from_micros(1));
        }
        assert!(clock.tracer().is_empty());
        assert!(!clock.tracer().is_enabled());
    }

    #[test]
    fn spans_stamp_virtual_time() {
        let clock = SimClock::new();
        clock.advance(SimDuration::from_micros(5));
        clock.tracer().enable();
        {
            let _span = clock.tracer().span("disk", "load");
            clock.advance(SimDuration::from_micros(7));
        }
        let trace = clock.tracer().finish();
        assert_eq!(trace.spans[0].start_ns, 5_000);
        assert_eq!(trace.spans[0].end_ns, 12_000);
        assert_eq!(trace.spans[0].parent, None);
    }

    #[test]
    fn nesting_links_parents() {
        let clock = SimClock::new();
        clock.tracer().enable();
        {
            let _outer = clock.tracer().span("core", "put");
            clock.advance(SimDuration::from_micros(1));
            {
                let _inner = clock.tracer().span("net", "write");
                clock.advance(SimDuration::from_micros(2));
            }
            clock.advance(SimDuration::from_micros(3));
        }
        let trace = clock.tracer().finish();
        assert_eq!(trace.spans.len(), 2);
        let outer = &trace.spans[0];
        let inner = &trace.spans[1];
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.duration().as_micros_f64(), 6.0);
        assert_eq!(inner.duration().as_micros_f64(), 2.0);
        assert_eq!(trace.categories(), vec!["core", "net"]);
    }

    #[test]
    fn attribution_is_exclusive_and_sums_to_total() {
        let clock = SimClock::new();
        clock.tracer().enable();
        let t0 = clock.now();
        {
            let _outer = clock.tracer().span("core", "put");
            clock.advance(SimDuration::from_micros(1));
            {
                let _inner = clock.tracer().span("net", "write");
                clock.advance(SimDuration::from_micros(2));
            }
        }
        clock.advance(SimDuration::from_micros(4)); // untraced compute
        let total = clock.now() - t0;
        let attribution = clock.tracer().finish().attribution(total);
        assert_eq!(attribution.category_ns("core"), 1_000, "self time only");
        assert_eq!(attribution.category_ns("net"), 2_000);
        assert_eq!(attribution.untraced_ns, 4_000);
        assert_eq!(attribution.accounted_ns(), total.as_nanos());
        assert!(!attribution.to_string().is_empty());
    }

    #[test]
    fn async_spans_export_but_do_not_attribute() {
        let clock = SimClock::new();
        clock.tracer().enable();
        let t0 = clock.now();
        clock.advance(SimDuration::from_micros(1));
        clock.tracer().record_async(
            "net",
            "transfer",
            SimInstant::from_nanos(0),
            SimInstant::from_nanos(10_000),
            &[("bytes", 4096)],
        );
        let total = clock.now() - t0;
        let trace = clock.tracer().finish();
        assert!(trace.to_chrome_json().contains("transfer"));
        let attribution = trace.attribution(total);
        assert_eq!(attribution.category_ns("net"), 0);
        assert_eq!(attribution.untraced_ns, 1_000);
    }

    #[test]
    fn shard_event_log_merges_on_mailbox_order() {
        let mut a = ShardEventLog::new(0, 1);
        let mut b = ShardEventLog::new(1, 1);
        a.push(20, "read", 1, 100);
        a.push(10, "read", 2, 200);
        b.push(10, "write", 3, 300);
        let merged = ShardEventLog::merge_to_jsonl(&[a.clone(), b.clone()]);
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(lines.len(), 3);
        // Tie at 10ns: shard 0 before shard 1; then 20ns.
        assert!(lines[0].contains("\"shard\":0") && lines[0].contains("\"at_ns\":10"));
        assert!(lines[1].contains("\"shard\":1") && lines[1].contains("\"at_ns\":10"));
        assert!(lines[2].contains("\"at_ns\":20"));
        // Merge order of the input slice is irrelevant.
        assert_eq!(merged, ShardEventLog::merge_to_jsonl(&[b, a]));
    }

    #[test]
    fn shard_event_log_samples_deterministically() {
        let mut log = ShardEventLog::new(2, 4);
        for i in 0..16 {
            log.push(i, "e", i, 0);
        }
        assert_eq!(log.len(), 4, "one in four kept");
        let off = ShardEventLog::new(0, 0);
        assert!(off.is_empty());
        assert_eq!(log.shard(), 2);
    }

    #[test]
    fn exports_are_deterministic_and_escaped() {
        let build = || {
            let clock = SimClock::new();
            clock.tracer().enable();
            {
                let span = clock.tracer().span("swap", "in");
                span.tag("note", "a\"b\\c");
                clock.advance(SimDuration::from_micros(2));
            }
            let trace = clock.tracer().finish();
            (trace.to_chrome_json(), trace.to_jsonl())
        };
        let (json_a, jsonl_a) = build();
        let (json_b, jsonl_b) = build();
        assert_eq!(json_a, json_b);
        assert_eq!(jsonl_a, jsonl_b);
        assert!(json_a.contains("a\\\"b\\\\c"));
        assert!(jsonl_a.ends_with('\n'));
    }

    #[test]
    fn finish_resets_collection() {
        let clock = SimClock::new();
        clock.tracer().enable();
        {
            let _s = clock.tracer().span("a", "b");
        }
        assert_eq!(clock.tracer().finish().spans.len(), 1);
        assert!(clock.tracer().is_empty());
        assert_eq!(clock.tracer().finish().spans.len(), 0);
    }

    #[test]
    fn clones_share_the_collector() {
        let clock = SimClock::new();
        let view = clock.clone();
        clock.tracer().enable();
        assert!(view.tracer().is_enabled());
        {
            let _s = view.tracer().span("x", "y");
        }
        assert_eq!(clock.tracer().len(), 1);
    }
}
