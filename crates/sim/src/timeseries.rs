//! Windowed time-series telemetry on the virtual clock.
//!
//! End-of-run counters (PR 3) answer *how much*; this module answers
//! *when*. A [`TelemetryHub`] samples one or more [`MetricsRegistry`]
//! instances every configurable virtual-time window, capturing per-window
//! counter deltas and histogram quantile summaries (p50/p99/max from the
//! diff of two bucket snapshots), and a [`ShardSampler`] does the same
//! for a shard's private [`LocalMetrics`] buffer inside the sharded
//! engine's event loop. Per-shard windows merge in `(window, shard)`
//! order — the same total order as the engine's mailboxes — so a rack
//! run produces a byte-identical [`Timeline`] at every worker count.
//!
//! Everything is integer math on the virtual clock: window boundaries
//! are multiples of the window width, quantiles are log₂ bucket upper
//! bounds, and exports ([`Timeline::to_csv`], [`Timeline::to_jsonl`])
//! are deterministic text. The disabled path of [`TelemetryHub::tick`]
//! is a single relaxed atomic load, mirroring the tracer's
//! zero-cost-when-off contract.
//!
//! [`MetricsRegistry`]: crate::metrics::MetricsRegistry
//! [`LocalMetrics`]: crate::metrics::LocalMetrics

use crate::alerts::{AlertEngine, AlertEvent, AlertRule};
use crate::flight::FlightRecorder;
use crate::metrics::{Histogram, LocalMetrics, MetricsRegistry};
use crate::time::{SimDuration, SimInstant};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-window summary of one histogram: observation count inside the
/// window plus log₂-bucket quantile bounds of just those observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowHistogram {
    /// Metric name.
    pub name: String,
    /// Observations recorded inside the window.
    pub count: u64,
    /// Median bucket upper bound of the window's observations.
    pub p50: u64,
    /// 99th-percentile bucket upper bound of the window's observations.
    pub p99: u64,
    /// Upper bound of the window's highest non-empty bucket.
    pub max: u64,
    /// Raw per-window bucket counts — kept for the alerting engine's
    /// burn-rate rules (fraction of observations over an SLO bound);
    /// not exported to CSV/JSONL.
    pub buckets: Box<[u64; 65]>,
}

impl WindowHistogram {
    /// Builds a summary from a window's bucket-count diff.
    pub fn from_counts(name: &str, counts: [u64; 65]) -> Self {
        WindowHistogram {
            name: name.to_owned(),
            count: counts.iter().sum(),
            p50: Histogram::quantile_of_counts(&counts, 0.5),
            p99: Histogram::quantile_of_counts(&counts, 0.99),
            max: Histogram::max_bound_of_counts(&counts),
            buckets: Box::new(counts),
        }
    }

    /// Observations in this window certainly above `threshold` (total of
    /// every bucket whose lower bound is at or above it).
    pub fn count_over(&self, threshold: u64) -> u64 {
        Histogram::count_over_counts(&self.buckets, threshold)
    }
}

/// One captured window: the half-open virtual-time span
/// `[start_ns, end_ns)`, the counter increments inside it, and a
/// [`WindowHistogram`] per histogram that saw observations.
///
/// `index` is the grid slot of the window's *end* boundary
/// (`end_ns / window - 1`): captures always close on a grid boundary,
/// but a capture that observes several elapsed slots at once spans them
/// all, so `end_ns - start_ns` is a multiple of the window width ≥ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricWindow {
    /// Grid slot of the window's end boundary.
    pub index: u64,
    /// Inclusive start of the span, in virtual nanoseconds.
    pub start_ns: u64,
    /// Exclusive end of the span, in virtual nanoseconds.
    pub end_ns: u64,
    /// Counter deltas inside the window, name-sorted, zeros omitted.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries inside the window, name-sorted, empties omitted.
    pub histograms: Vec<WindowHistogram>,
}

impl MetricWindow {
    /// `true` when the window saw no counter increments and no
    /// histogram observations.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Delta of the named counter in this window (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// The named histogram's window summary, if it saw observations.
    pub fn histogram(&self, name: &str) -> Option<&WindowHistogram> {
        self.histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// One-line rendering used by the flight recorder's window ring.
    pub fn brief(&self) -> String {
        let mut line = format!("w{} [{}..{}ns)", self.index, self.start_ns, self.end_ns);
        for (name, v) in &self.counters {
            write!(line, " {name}=+{v}").unwrap();
        }
        for h in &self.histograms {
            write!(line, " {}:n={},p99={}", h.name, h.count, h.p99).unwrap();
        }
        line
    }
}

/// An ordered sequence of [`MetricWindow`]s with deterministic CSV and
/// JSONL exports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Captured windows, in increasing `index` order.
    pub windows: Vec<MetricWindow>,
}

impl Timeline {
    /// Merges per-shard windows into one timeline in `(window index,
    /// shard)` order — the sharded engine's mailbox order — folding the
    /// [`LocalMetrics`] deltas of shards that share a grid slot. The
    /// fold leans on `merge_counts` being commutative and associative,
    /// so the result is independent of the input ordering and of how
    /// the run was parallelised.
    pub fn merge_shards(window_ns: u64, mut shard_windows: Vec<ShardWindow>) -> Timeline {
        shard_windows.sort_by_key(|w| (w.index, w.shard));
        let mut out = Timeline::default();
        let mut i = 0;
        while i < shard_windows.len() {
            let index = shard_windows[i].index;
            let mut start_ns = u64::MAX;
            let mut merged = LocalMetrics::new();
            while i < shard_windows.len() && shard_windows[i].index == index {
                start_ns = start_ns.min(shard_windows[i].start_ns);
                merged.merge_from(&shard_windows[i].delta);
                i += 1;
            }
            out.windows.push(window_from_local(
                index,
                start_ns,
                (index + 1) * window_ns,
                &merged,
            ));
        }
        out
    }

    /// Per-window deltas of the named counter (zero where absent).
    pub fn counter_series(&self, name: &str) -> Vec<u64> {
        self.windows.iter().map(|w| w.counter(name)).collect()
    }

    /// Per-window p99 of the named histogram (zero where absent).
    pub fn p99_series(&self, name: &str) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.histogram(name).map_or(0, |h| h.p99))
            .collect()
    }

    /// Per-window observation count of the named histogram.
    pub fn count_series(&self, name: &str) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.histogram(name).map_or(0, |h| h.count))
            .collect()
    }

    /// All metric names appearing anywhere in the timeline, sorted, as
    /// `(name, is_histogram)` pairs.
    pub fn series_names(&self) -> Vec<(String, bool)> {
        let mut names: BTreeMap<String, bool> = BTreeMap::new();
        for w in &self.windows {
            for (n, _) in &w.counters {
                names.entry(n.clone()).or_insert(false);
            }
            for h in &w.histograms {
                names.insert(h.name.clone(), true);
            }
        }
        names.into_iter().collect()
    }

    /// Deterministic CSV export: one row per (window, metric), counters
    /// before histograms inside each window, names sorted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("window,start_ns,end_ns,kind,name,value,p50_ns,p99_ns,max_ns\n");
        for w in &self.windows {
            for (name, v) in &w.counters {
                writeln!(
                    out,
                    "{},{},{},counter,{name},{v},,,",
                    w.index, w.start_ns, w.end_ns
                )
                .unwrap();
            }
            for h in &w.histograms {
                writeln!(
                    out,
                    "{},{},{},histogram,{},{},{},{},{}",
                    w.index, w.start_ns, w.end_ns, h.name, h.count, h.p50, h.p99, h.max
                )
                .unwrap();
            }
        }
        out
    }

    /// Deterministic JSONL export: one JSON object per window, keys
    /// sorted, parseable back through [`crate::jsonlite`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            write!(
                out,
                "{{\"window\":{},\"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                w.index, w.start_ns, w.end_ns
            )
            .unwrap();
            for (i, (name, v)) in w.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\"{name}\":{v}").unwrap();
            }
            out.push_str("},\"histograms\":{");
            for (i, h) in w.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(
                    out,
                    "\"{}\":{{\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                    h.name, h.count, h.p50, h.p99, h.max
                )
                .unwrap();
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// Renders `values` as a unicode sparkline, scaled to the series
/// maximum with pure integer math (deterministic across platforms).
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 || v == 0 {
                BARS[0]
            } else {
                // Ceil-scaled into 1..=7 extra steps so any nonzero
                // value is visibly above the baseline.
                BARS[(1 + (v - 1) * 7 / max).min(7) as usize]
            }
        })
        .collect()
}

/// Builds a [`MetricWindow`] from a [`LocalMetrics`] delta buffer.
fn window_from_local(index: u64, start_ns: u64, end_ns: u64, delta: &LocalMetrics) -> MetricWindow {
    let mut histograms = Vec::new();
    delta.for_each_histogram(|name, counts| {
        if counts.iter().any(|&c| c > 0) {
            histograms.push(WindowHistogram::from_counts(name, *counts));
        }
    });
    MetricWindow {
        index,
        start_ns,
        end_ns,
        counters: delta
            .counter_snapshot()
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .collect(),
        histograms,
    }
}

/// A windowed sampler over one shard's private [`LocalMetrics`] buffer.
///
/// The shard calls [`ShardSampler::tick`] from its deterministic local
/// event loop (event times are worker-count independent, so capture
/// points are too) and [`ShardSampler::finish`] once at quiescence; the
/// caller then merges every shard's windows with
/// [`Timeline::merge_shards`]. A `window` of zero disables the sampler
/// entirely — ticks return immediately and no windows are kept.
#[derive(Debug, Clone)]
pub struct ShardSampler {
    shard: u32,
    window_ns: u64,
    last_boundary_ns: u64,
    prev: LocalMetrics,
    windows: Vec<ShardWindow>,
}

/// One shard-local captured window, merged by `(index, shard)`.
#[derive(Debug, Clone)]
pub struct ShardWindow {
    /// Grid slot of the window's end boundary.
    pub index: u64,
    /// Inclusive start of the span, in virtual nanoseconds.
    pub start_ns: u64,
    /// Exclusive end of the span, in virtual nanoseconds.
    pub end_ns: u64,
    /// The shard that captured it.
    pub shard: u32,
    /// Metric increments inside the span.
    pub delta: LocalMetrics,
}

impl ShardSampler {
    /// Creates a sampler for `shard` with the given window width
    /// (`SimDuration::ZERO` disables).
    pub fn new(shard: u32, window: SimDuration) -> Self {
        ShardSampler {
            shard,
            window_ns: window.as_nanos(),
            last_boundary_ns: 0,
            prev: LocalMetrics::new(),
            windows: Vec::new(),
        }
    }

    /// `true` when the sampler keeps windows.
    pub fn enabled(&self) -> bool {
        self.window_ns != 0
    }

    /// Offers the current shard time and metrics buffer; captures a
    /// window when `now_ns` has crossed a grid boundary.
    pub fn tick(&mut self, now_ns: u64, metrics: &LocalMetrics) {
        if self.window_ns == 0 {
            return;
        }
        let boundary = now_ns / self.window_ns * self.window_ns;
        if boundary > self.last_boundary_ns {
            self.capture(boundary, metrics);
        }
    }

    /// Closes the final (possibly partial) window at quiescence and
    /// returns every captured window. The end boundary rounds *up* to
    /// the grid so the tail of the run is never dropped.
    pub fn finish(mut self, now_ns: u64, metrics: &LocalMetrics) -> Vec<ShardWindow> {
        if self.window_ns != 0 {
            let end = now_ns.div_ceil(self.window_ns).max(1) * self.window_ns;
            if end > self.last_boundary_ns {
                self.capture(end, metrics);
            }
        }
        self.windows
    }

    fn capture(&mut self, boundary_ns: u64, metrics: &LocalMetrics) {
        let delta = metrics.delta_since(&self.prev);
        if !delta.is_empty() {
            self.windows.push(ShardWindow {
                index: boundary_ns / self.window_ns - 1,
                start_ns: self.last_boundary_ns,
                end_ns: boundary_ns,
                shard: self.shard,
                delta,
            });
        }
        self.prev = metrics.clone();
        self.last_boundary_ns = boundary_ns;
    }
}

/// Shared state behind the hub's mutex.
#[derive(Debug, Default)]
struct HubInner {
    registries: Vec<MetricsRegistry>,
    prev_counters: BTreeMap<String, u64>,
    prev_buckets: BTreeMap<String, [u64; 65]>,
    last_boundary_ns: u64,
    windows: Vec<MetricWindow>,
    alerts: AlertEngine,
    flight: FlightRecorder,
}

/// The windowed telemetry sampler for shared [`MetricsRegistry`]
/// instances, with an embedded [`AlertEngine`] and [`FlightRecorder`].
///
/// Installed on a `DisaggregatedMemory` (which gives the maintenance
/// loop a tick source) or driven directly by a benchmark loop. Strictly
/// opt-in: [`TelemetryHub::tick`] on a disarmed hub is a single relaxed
/// atomic load, and nothing installs one by default — so untraced runs
/// execute byte-identical event sequences.
#[derive(Debug)]
pub struct TelemetryHub {
    armed: AtomicBool,
    window_ns: u64,
    inner: Mutex<HubInner>,
}

impl TelemetryHub {
    /// Creates an armed hub capturing every `window` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a disabled hub is expressed by not
    /// installing one.
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window.as_nanos() > 0,
            "telemetry window must be nonzero (leave the hub uninstalled to disable)"
        );
        TelemetryHub {
            armed: AtomicBool::new(true),
            window_ns: window.as_nanos(),
            inner: Mutex::new(HubInner::default()),
        }
    }

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        SimDuration::from_nanos(self.window_ns)
    }

    /// Adds a registry to sample. Metrics with the same name in several
    /// registries are summed per window (registries are disjoint by
    /// convention: `core.*`/`qos.*` vs `net.*`/`faults.*`).
    pub fn add_registry(&self, registry: MetricsRegistry) {
        self.inner.lock().registries.push(registry);
    }

    /// Replaces the alert rule set (clearing any rule state).
    pub fn set_rules(&self, rules: Vec<AlertRule>) {
        self.inner.lock().alerts = AlertEngine::new(rules);
    }

    /// Pauses/resumes sampling. While disarmed, `tick` costs exactly
    /// one relaxed atomic load.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Offers the current virtual time; captures one window (and
    /// evaluates alert rules on it) when a grid boundary has been
    /// crossed. Returns the number of windows captured (0 or 1).
    pub fn tick(&self, now: SimInstant) -> usize {
        if !self.armed.load(Ordering::Relaxed) {
            return 0;
        }
        let now_ns = now.nanos();
        let mut inner = self.inner.lock();
        let boundary = now_ns / self.window_ns * self.window_ns;
        if boundary <= inner.last_boundary_ns {
            return 0;
        }
        self.capture(&mut inner, boundary);
        1
    }

    /// Closes the final (possibly partial) window, rounding the end
    /// boundary up to the grid. Call once at the end of the run.
    pub fn flush(&self, now: SimInstant) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        let end = now.nanos().div_ceil(self.window_ns).max(1) * self.window_ns;
        if end > inner.last_boundary_ns {
            self.capture(&mut inner, end);
        }
    }

    fn capture(&self, inner: &mut HubInner, boundary_ns: u64) {
        // Aggregate current counter values and bucket counts across all
        // registries (each snapshot is name-sorted; the fold is by name,
        // so registry order does not matter).
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut buckets: BTreeMap<String, [u64; 65]> = BTreeMap::new();
        for reg in &inner.registries {
            for (name, v) in reg.counter_snapshot() {
                *counters.entry(name).or_insert(0) += v;
            }
            for (name, counts) in reg.bucket_snapshot() {
                let slot = buckets.entry(name).or_insert([0; 65]);
                for (a, b) in slot.iter_mut().zip(counts.iter()) {
                    *a += b;
                }
            }
        }
        let mut window = MetricWindow {
            index: boundary_ns / self.window_ns - 1,
            start_ns: inner.last_boundary_ns,
            end_ns: boundary_ns,
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        for (name, &v) in &counters {
            let delta = v - inner.prev_counters.get(name).copied().unwrap_or(0);
            if delta > 0 {
                window.counters.push((name.clone(), delta));
            }
        }
        for (name, counts) in &buckets {
            let mut delta = [0u64; 65];
            let prev = inner.prev_buckets.get(name);
            let mut any = false;
            for i in 0..65 {
                delta[i] = counts[i] - prev.map_or(0, |p| p[i]);
                any |= delta[i] != 0;
            }
            if any {
                window
                    .histograms
                    .push(WindowHistogram::from_counts(name, delta));
            }
        }
        inner.prev_counters = counters;
        inner.prev_buckets = buckets;
        inner.last_boundary_ns = boundary_ns;
        inner.alerts.observe(&window);
        inner.flight.push_window(&window);
        inner.windows.push(window);
    }

    /// Copy of the captured timeline so far.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            windows: self.inner.lock().windows.clone(),
        }
    }

    /// Ordered alert log lines emitted so far (firing/resolved edges).
    pub fn alert_log(&self) -> Vec<String> {
        self.inner.lock().alerts.log().to_vec()
    }

    /// Ordered alert events emitted so far.
    pub fn alert_events(&self) -> Vec<AlertEvent> {
        self.inner.lock().alerts.events().to_vec()
    }

    /// FNV digest of the alert log (`n=<lines> fnv=<hash>`).
    pub fn alert_digest(&self) -> String {
        self.inner.lock().alerts.digest()
    }

    /// Appends a note to the embedded flight recorder's event ring.
    pub fn flight_note(&self, at_ns: u64, kind: &'static str, detail: String) {
        self.inner.lock().flight.note(at_ns, kind, detail);
    }

    /// Renders the embedded flight recorder's dump.
    pub fn flight_dump(&self, reason: &str) -> String {
        self.inner.lock().flight.dump(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(ns: u64) -> SimInstant {
        let clock = crate::SimClock::new();
        clock.advance(SimDuration::from_nanos(ns));
        clock.now()
    }

    #[test]
    fn hub_captures_window_deltas() {
        let reg = MetricsRegistry::new();
        let hub = TelemetryHub::new(SimDuration::from_nanos(100));
        hub.add_registry(reg.clone());
        reg.counter("ops").add(3);
        reg.histogram("lat").record(16);
        assert_eq!(hub.tick(instant(50)), 0, "no boundary crossed yet");
        assert_eq!(hub.tick(instant(100)), 1);
        reg.counter("ops").add(2);
        reg.histogram("lat").record(64);
        reg.histogram("lat").record(64);
        hub.flush(instant(130));
        let t = hub.timeline();
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[0].counter("ops"), 3);
        assert_eq!(t.windows[0].histogram("lat").unwrap().p99, 16);
        assert_eq!(t.windows[1].index, 1);
        assert_eq!(t.windows[1].start_ns, 100);
        assert_eq!(t.windows[1].end_ns, 200, "flush rounds up to the grid");
        assert_eq!(t.windows[1].counter("ops"), 2);
        let h = t.windows[1].histogram("lat").unwrap();
        assert_eq!((h.count, h.p50, h.max), (2, 64, 64));
    }

    #[test]
    fn hub_skip_emits_single_spanning_window() {
        let reg = MetricsRegistry::new();
        let hub = TelemetryHub::new(SimDuration::from_nanos(100));
        hub.add_registry(reg.clone());
        reg.counter("ops").inc();
        // Time jumps over four boundaries before the next tick: the
        // capture spans all of them as one window ending on the grid.
        assert_eq!(hub.tick(instant(450)), 1);
        let t = hub.timeline();
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.windows[0].index, 3);
        assert_eq!(t.windows[0].start_ns, 0);
        assert_eq!(t.windows[0].end_ns, 400);
    }

    #[test]
    fn disarmed_tick_is_inert() {
        let hub = TelemetryHub::new(SimDuration::from_nanos(100));
        hub.arm(false);
        assert_eq!(hub.tick(instant(10_000)), 0);
        assert!(hub.timeline().windows.is_empty());
    }

    #[test]
    fn shard_merge_is_input_order_independent() {
        let window = SimDuration::from_nanos(100);
        let mut shard_windows = Vec::new();
        for shard in [2u32, 0, 1] {
            let mut sampler = ShardSampler::new(shard, window);
            let mut metrics = LocalMetrics::new();
            metrics.add("ops", u64::from(shard) + 1);
            metrics.record("lat", 1 << shard);
            sampler.tick(150, &metrics);
            metrics.inc("ops");
            shard_windows.extend(sampler.finish(260, &metrics));
        }
        let forward = Timeline::merge_shards(100, shard_windows.clone());
        let mut reversed = shard_windows;
        reversed.reverse();
        let backward = Timeline::merge_shards(100, reversed);
        assert_eq!(forward, backward);
        assert_eq!(forward.windows.len(), 2);
        assert_eq!(forward.windows[0].counter("ops"), 1 + 2 + 3);
        assert_eq!(forward.windows[0].histogram("lat").unwrap().count, 3);
        assert_eq!(forward.windows[1].counter("ops"), 3);
        assert_eq!(forward.to_csv(), backward.to_csv());
        assert_eq!(forward.to_jsonl(), backward.to_jsonl());
    }

    #[test]
    fn disabled_shard_sampler_keeps_nothing() {
        let mut sampler = ShardSampler::new(0, SimDuration::ZERO);
        let mut metrics = LocalMetrics::new();
        metrics.inc("ops");
        sampler.tick(1_000_000, &metrics);
        assert!(!sampler.enabled());
        assert!(sampler.finish(2_000_000, &metrics).is_empty());
    }

    #[test]
    fn csv_and_jsonl_round_trip_shapes() {
        let reg = MetricsRegistry::new();
        let hub = TelemetryHub::new(SimDuration::from_nanos(10));
        hub.add_registry(reg.clone());
        reg.counter("a").add(7);
        reg.histogram("h").record(5);
        hub.flush(instant(10));
        let t = hub.timeline();
        let csv = t.to_csv();
        assert!(csv.starts_with("window,start_ns,end_ns,kind,name,value,"));
        assert!(csv.contains("0,0,10,counter,a,7,,,"));
        assert!(csv.contains("0,0,10,histogram,h,1,"));
        let jsonl = t.to_jsonl();
        let doc = crate::jsonlite::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("window").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("a")).and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn sparkline_is_pure_integer_scaling() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[1, 8, 4, 0]), "▂█▄▁");
        // Any nonzero value renders above the baseline glyph.
        assert!(sparkline(&[1, 1_000_000]).starts_with('▂'));
    }
}
