//! Lightweight metrics: counters, gauges and log-bucket histograms.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter.
#[derive(Debug, Default, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move in both directions.
#[derive(Debug, Default, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A power-of-two-bucket histogram for latency-style values.
///
/// Bucket edges are pinned as follows: bucket 0 holds `{0, 1}` and
/// reports upper bound `1`; bucket `k ≥ 1` holds the half-open-below
/// range `(2^(k-1), 2^k]` and reports upper bound `2^k`. In particular a
/// value of exactly `2^k` lands in bucket `k`, so `quantile` never
/// over-reports an exact power of two by a whole bucket. 65 buckets cover
/// the full `u64` range. Memory is constant and recording is lock-free.
///
/// # Examples
///
/// ```
/// use dmem_sim::Histogram;
///
/// let h = Histogram::new();
/// for v in [100, 200, 400, 800] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.mean() > 300.0 && h.mean() < 400.0);
/// assert!(h.quantile(0.5) >= 200);
///
/// // Exact powers of two report their own value as the bucket bound.
/// let p = Histogram::new();
/// p.record(1024);
/// assert_eq!(p.quantile(0.5), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; 65]>,
    sum: Arc<AtomicU64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// `⌈log2(v)⌉` with `{0, 1} → 0`: bucket `k` covers `(2^(k-1), 2^k]`,
    /// so exact powers of two stay in the bucket whose upper bound they
    /// equal. (The previous `64 - v.leading_zeros()` indexing pushed
    /// `2^k` into bucket `k + 1`, inflating reported quantiles of
    /// power-of-two-heavy data by up to 2×.)
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            64 - (value - 1).leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Folds externally accumulated bucket counts (and their value sum)
    /// into this histogram — the bulk path used when per-shard
    /// [`LocalMetrics`] buffers publish into the shared registry.
    pub fn merge_counts(&self, counts: &[u64; 65], sum: u64) {
        for (bucket, &n) in self.buckets.iter().zip(counts) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of observations; zero when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the q-th observation (`1` for bucket 0, `2^i` for
    /// bucket `i ≥ 1` — see the type docs for the exact edges). Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }

    /// Upper bound of the highest non-empty bucket (an upper bound on the
    /// maximum observation). Zero when empty.
    pub fn max_bound(&self) -> u64 {
        for i in (0..self.buckets.len()).rev() {
            if self.buckets[i].load(Ordering::Relaxed) > 0 {
                return if i == 0 { 1 } else { 1u64 << i.min(63) };
            }
        }
        0
    }

    /// Raw per-bucket observation counts (see the type docs for edges).
    ///
    /// Lets a caller keep a previous snapshot and diff against the current
    /// one to compute *windowed* quantiles — e.g. the p99 of only the
    /// observations recorded since the last controller tick — via
    /// [`Histogram::quantile_of_counts`].
    pub fn bucket_counts(&self) -> [u64; 65] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Quantile over an externally supplied bucket-count array (typically
    /// the difference of two [`Histogram::bucket_counts`] snapshots).
    /// Returns the same bucket upper bounds as [`Histogram::quantile`];
    /// zero when the counts are all zero.
    pub fn quantile_of_counts(counts: &[u64; 65], q: f64) -> u64 {
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }

    /// Upper bound of the highest non-empty bucket of an externally
    /// supplied count array (same semantics as [`Histogram::max_bound`]);
    /// zero when all counts are zero.
    pub fn max_bound_of_counts(counts: &[u64; 65]) -> u64 {
        for i in (0..counts.len()).rev() {
            if counts[i] > 0 {
                return if i == 0 { 1 } else { 1u64 << i.min(63) };
            }
        }
        0
    }

    /// Number of observations in `counts` that are certainly above
    /// `threshold`: the total of every bucket whose *lower* bound is at
    /// or above it. Observations sharing the threshold's own bucket are
    /// not counted, so the bound is conservative — the burn-rate path
    /// picks SLOs on bucket edges to make it exact.
    pub fn count_over_counts(counts: &[u64; 65], threshold: u64) -> u64 {
        let first = (Self::bucket_index(threshold) + 1).min(counts.len());
        counts[first..].iter().sum()
    }

    /// Compact summary for dumps and reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            max: self.max_bound(),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Bucket upper bound of the median.
    pub p50: u64,
    /// Bucket upper bound of the 99th percentile.
    pub p99: u64,
    /// Bucket upper bound of the maximum.
    pub max: u64,
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} mean={:.1} p50={} p99={} max={}",
            self.count, self.mean, self.p50, self.p99, self.max
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A named registry of metrics, shared across components of one cluster.
///
/// Keys are hierarchical strings such as `"fastswap.swap_out.remote"`.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    counters: Arc<RwLock<BTreeMap<String, Counter>>>,
    gauges: Arc<RwLock<BTreeMap<String, Gauge>>>,
    histograms: Arc<RwLock<BTreeMap<String, Histogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(c) = self.counters.read().get(name) {
            return c.clone();
        }
        self.counters
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(g) = self.gauges.read().get(name) {
            return g.clone();
        }
        self.gauges
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(h) = self.histograms.read().get(name) {
            return h.clone();
        }
        self.histograms
            .write()
            .entry(name.to_owned())
            .or_default()
            .clone()
    }

    /// Snapshot of all counter values, sorted by name.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of all gauge values, sorted by name.
    pub fn gauge_snapshot(&self) -> Vec<(String, i64)> {
        self.gauges
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// Snapshot of all histogram summaries, sorted by name.
    pub fn histogram_snapshot(&self) -> Vec<(String, HistogramSummary)> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.summary()))
            .collect()
    }

    /// Snapshot of every histogram's raw bucket counts, sorted by name —
    /// the windowed-sampling path: the timeline sampler diffs two of
    /// these to get counts for just the observations inside one window.
    pub fn bucket_snapshot(&self) -> Vec<(String, [u64; 65])> {
        self.histograms
            .read()
            .iter()
            .map(|(k, v)| (k.clone(), v.bucket_counts()))
            .collect()
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counter_snapshot() {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, value) in self.gauge_snapshot() {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, summary) in self.histogram_snapshot() {
            writeln!(f, "{name} = {summary}")?;
        }
        Ok(())
    }
}

/// An unsynchronized per-shard metrics buffer.
///
/// Shards of the sharded engine record into a private `LocalMetrics`
/// (plain integer adds, no atomics, no locks) and the caller merges
/// the buffers in shard order after the run — so the published totals,
/// like everything else in the engine, are independent of the worker
/// count. Name iteration is `BTreeMap`-ordered, hence deterministic.
///
/// # Examples
///
/// ```
/// use dmem_sim::LocalMetrics;
///
/// let mut a = LocalMetrics::new();
/// a.add("reads", 2);
/// a.record("lat_ns", 4096);
/// let mut b = LocalMetrics::new();
/// b.add("reads", 3);
/// b.merge_from(&a);
/// assert_eq!(b.counter("reads"), 5);
/// assert_eq!(b.quantile("lat_ns", 0.5), 4096);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LocalMetrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LocalHistogram>,
}

#[derive(Debug, Clone)]
struct LocalHistogram {
    buckets: Box<[u64; 65]>,
    sum: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: Box::new([0; 65]),
            sum: 0,
        }
    }
}

impl LocalHistogram {
    fn observe(&mut self, value: u64) {
        self.buckets[Histogram::bucket_index(value)] += 1;
        self.sum += value;
    }
}

impl LocalMetrics {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        LocalMetrics::default()
    }

    /// Adds `n` to the counter named `name`, creating it on first use.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += n;
        } else {
            self.counters.insert(name.to_owned(), n);
        }
    }

    /// Adds one to the counter named `name`.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Records one observation into the histogram named `name`, using
    /// the same bucket edges as the shared [`Histogram`]. Like
    /// [`add`](LocalMetrics::add), it allocates the name only on first
    /// use.
    pub fn record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = LocalHistogram::default();
            h.observe(value);
            self.histograms.insert(name.to_owned(), h);
        }
    }

    /// Current value of the counter named `name` (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Observation count of the histogram named `name` (zero if absent).
    pub fn histogram_count(&self, name: &str) -> u64 {
        self.histograms
            .get(name)
            .map(|h| h.buckets.iter().sum())
            .unwrap_or(0)
    }

    /// Quantile of the histogram named `name`, with [`Histogram`]'s
    /// bucket-upper-bound semantics; zero if absent or empty.
    pub fn quantile(&self, name: &str, q: f64) -> u64 {
        self.histograms
            .get(name)
            .map(|h| Histogram::quantile_of_counts(&h.buckets, q))
            .unwrap_or(0)
    }

    /// Mean of the histogram named `name`; zero if absent or empty.
    pub fn histogram_mean(&self, name: &str) -> f64 {
        let count = self.histogram_count(name);
        if count == 0 {
            return 0.0;
        }
        self.histograms[name].sum as f64 / count as f64
    }

    /// Folds `other` into this buffer. Merging is commutative and
    /// associative, so any deterministic merge order yields the same
    /// totals.
    pub fn merge_from(&mut self, other: &LocalMetrics) {
        for (name, &n) in &other.counters {
            self.add(name, n);
        }
        for (name, theirs) in &other.histograms {
            let ours = self.histograms.entry(name.clone()).or_default();
            for (a, b) in ours.buckets.iter_mut().zip(theirs.buckets.iter()) {
                *a += b;
            }
            ours.sum += theirs.sum;
        }
    }

    /// Publishes the buffered values into a shared registry: counters
    /// add their totals, histograms bulk-merge their buckets.
    pub fn publish(&self, registry: &MetricsRegistry) {
        for (name, &n) in &self.counters {
            if n > 0 {
                registry.counter(name).add(n);
            }
        }
        for (name, h) in &self.histograms {
            registry.histogram(name).merge_counts(&h.buckets, h.sum);
        }
    }

    /// Snapshot of all counter values, sorted by name.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// `true` when nothing has been recorded (no counter increments, no
    /// histogram observations).
    pub fn is_empty(&self) -> bool {
        self.counters.values().all(|&v| v == 0)
            && self
                .histograms
                .values()
                .all(|h| h.buckets.iter().all(|&b| b == 0))
    }

    /// The increments recorded since `prev` was cloned from this buffer:
    /// counter deltas and histogram bucket deltas, with untouched names
    /// omitted entirely. `prev` must be an earlier snapshot of the same
    /// buffer — counters and buckets only grow, so the subtraction never
    /// wraps.
    pub fn delta_since(&self, prev: &LocalMetrics) -> LocalMetrics {
        let mut out = LocalMetrics::new();
        for (name, &now) in &self.counters {
            let before = prev.counter(name);
            if now > before {
                out.counters.insert(name.clone(), now - before);
            }
        }
        for (name, h) in &self.histograms {
            let before = prev.histograms.get(name);
            let mut delta = LocalHistogram::default();
            let mut any = false;
            for i in 0..65 {
                let b = before.map_or(0, |p| p.buckets[i]);
                delta.buckets[i] = h.buckets[i] - b;
                any |= delta.buckets[i] != 0;
            }
            if any {
                delta.sum = h.sum - before.map_or(0, |p| p.sum);
                out.histograms.insert(name.clone(), delta);
            }
        }
        out
    }

    /// Visits every histogram as `(name, bucket_counts)` in name order —
    /// the export path for callers that cannot see the private buckets.
    pub fn for_each_histogram(&self, mut f: impl FnMut(&str, &[u64; 65])) {
        for (name, h) in &self.histograms {
            f(name, &h.buckets);
        }
    }
}

/// The `alloc.*` counter family for the object-granularity allocator:
/// access-amplification bytes, fragmentation gauges and per-verb op
/// counts.
///
/// Follows the same zero-cost-when-disabled contract the trace and
/// telemetry layers honour: until [`AllocTelemetry::arm`] registers the
/// family on a [`MetricsRegistry`], every `note_*` call is exactly one
/// relaxed atomic load and an early return — no allocation, no lock,
/// no registry traffic.
#[derive(Debug, Default)]
pub struct AllocTelemetry {
    armed: std::sync::atomic::AtomicBool,
    slots: std::sync::OnceLock<AllocCounterSet>,
}

/// Registered handles of the `alloc.*` family (see [`AllocTelemetry`]).
#[derive(Debug, Clone)]
pub struct AllocCounterSet {
    /// `alloc.fetched_bytes` — bytes moved through the cluster by heap ops.
    pub fetched_bytes: Counter,
    /// `alloc.useful_bytes` — caller-useful bytes of those ops.
    pub useful_bytes: Counter,
    /// `alloc.amplification_bytes` — the waste: fetched minus useful.
    pub amplification_bytes: Counter,
    /// `alloc.ops.alloc`
    pub alloc_ops: Counter,
    /// `alloc.ops.free`
    pub free_ops: Counter,
    /// `alloc.ops.get`
    pub get_ops: Counter,
    /// `alloc.ops.update`
    pub update_ops: Counter,
    /// `alloc.live_bytes` — caller-requested bytes across live objects.
    pub live_bytes: Gauge,
    /// `alloc.slot_bytes` — slot capacity across live objects.
    pub slot_bytes: Gauge,
    /// `alloc.reserved_bytes` — address space claimed from the break.
    pub reserved_bytes: Gauge,
    /// `alloc.fragmentation_bp` — total fragmentation in basis points
    /// (integer math, so timelines stay byte-deterministic).
    pub fragmentation_bp: Gauge,
}

impl AllocCounterSet {
    fn register(registry: &MetricsRegistry) -> Self {
        AllocCounterSet {
            fetched_bytes: registry.counter("alloc.fetched_bytes"),
            useful_bytes: registry.counter("alloc.useful_bytes"),
            amplification_bytes: registry.counter("alloc.amplification_bytes"),
            alloc_ops: registry.counter("alloc.ops.alloc"),
            free_ops: registry.counter("alloc.ops.free"),
            get_ops: registry.counter("alloc.ops.get"),
            update_ops: registry.counter("alloc.ops.update"),
            live_bytes: registry.gauge("alloc.live_bytes"),
            slot_bytes: registry.gauge("alloc.slot_bytes"),
            reserved_bytes: registry.gauge("alloc.reserved_bytes"),
            fragmentation_bp: registry.gauge("alloc.fragmentation_bp"),
        }
    }
}

impl AllocTelemetry {
    /// Registers the family on `registry` and arms the fast-path gate.
    /// Re-arming is a no-op (the first registry wins).
    pub fn arm(&self, registry: &MetricsRegistry) {
        self.slots.get_or_init(|| AllocCounterSet::register(registry));
        self.armed
            .store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether the family is live. The disarmed path is one relaxed
    /// atomic load — callers may branch on this before doing any work.
    pub fn is_armed(&self) -> bool {
        self.armed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Records one heap op: `kind` 0=alloc 1=free 2=get 3=update,
    /// `fetched` bytes moved over the backing store, `useful` bytes the
    /// caller asked for.
    pub fn note_transfer(&self, kind: u8, fetched: u64, useful: u64) {
        if !self.is_armed() {
            return;
        }
        let Some(slots) = self.slots.get() else { return };
        slots.fetched_bytes.add(fetched);
        slots.useful_bytes.add(useful);
        slots.amplification_bytes.add(fetched.saturating_sub(useful));
        match kind {
            0 => slots.alloc_ops.inc(),
            1 => slots.free_ops.inc(),
            2 => slots.get_ops.inc(),
            _ => slots.update_ops.inc(),
        }
    }

    /// Updates the footprint gauges and the derived fragmentation
    /// basis-point gauge.
    pub fn note_footprint(&self, live_bytes: u64, slot_bytes: u64, reserved_bytes: u64) {
        if !self.is_armed() {
            return;
        }
        let Some(slots) = self.slots.get() else { return };
        slots.live_bytes.set(live_bytes as i64);
        slots.slot_bytes.set(slot_bytes as i64);
        slots.reserved_bytes.set(reserved_bytes as i64);
        let frag_bp = if reserved_bytes == 0 {
            0
        } else {
            (10_000u128 - (10_000u128 * u128::from(live_bytes) / u128::from(reserved_bytes)))
                as i64
        };
        slots.fragmentation_bp.set(frag_bp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn local_metrics_match_shared_semantics() {
        // Recording the same values through a LocalMetrics buffer and
        // publishing must be indistinguishable from recording directly.
        let shared = MetricsRegistry::new();
        let mut local = LocalMetrics::new();
        let direct = MetricsRegistry::new();
        for v in [1u64, 7, 100, 1024, 1 << 40] {
            local.record("lat", v);
            direct.histogram("lat").record(v);
            local.inc("ops");
            direct.counter("ops").inc();
        }
        local.publish(&shared);
        assert_eq!(shared.counter_snapshot(), direct.counter_snapshot());
        let (a, b) = (shared.histogram("lat"), direct.histogram("lat"));
        assert_eq!(a.bucket_counts(), b.bucket_counts());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn local_metrics_repeated_record_accumulates_in_place() {
        // Many observations on one name (the path that now skips the
        // name allocation) land exactly as on the shared histogram:
        // same buckets, sum and quantiles.
        let mut local = LocalMetrics::new();
        let shared = Histogram::new();
        for i in 0..2000u64 {
            let v = (i * 7919) % 50_000;
            local.record("fault_ns", v);
            shared.record(v);
        }
        local.record("other", 5);
        let mut buckets = None;
        local.for_each_histogram(|name, counts| {
            if name == "fault_ns" {
                buckets = Some(*counts);
            }
        });
        assert_eq!(buckets, Some(shared.bucket_counts()));
        assert_eq!(local.histogram_count("fault_ns"), 2000);
        assert_eq!(
            local.histogram_mean("fault_ns"),
            shared.sum() as f64 / 2000.0
        );
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(local.quantile("fault_ns", q), shared.quantile(q), "q={q}");
        }
        assert_eq!(local.histogram_count("other"), 1);
    }

    #[test]
    fn local_metrics_merge_is_order_independent() {
        let mut a = LocalMetrics::new();
        let mut b = LocalMetrics::new();
        a.add("x", 2);
        a.record("h", 3);
        b.add("x", 5);
        b.add("y", 1);
        b.record("h", 4000);
        let mut ab = LocalMetrics::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let mut ba = LocalMetrics::new();
        ba.merge_from(&b);
        ba.merge_from(&a);
        assert_eq!(ab.counter_snapshot(), ba.counter_snapshot());
        assert_eq!(ab.counter("x"), 7);
        assert_eq!(ab.histogram_count("h"), 2);
        assert_eq!(ab.quantile("h", 1.0), ba.quantile("h", 1.0));
        assert!(ab.histogram_mean("h") > 0.0);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(10);
        g.add(-4);
        assert_eq!(g.get(), 6);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn histogram_zero_and_one() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1);
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!((256..=1024).contains(&p50), "p50 bucket was {p50}");
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max_bound(), 0);
    }

    /// Pins the bucket-edge semantics: bucket k covers (2^(k-1), 2^k],
    /// so a value of exactly 2^k reports 2^k — not 2^(k+1) — as its
    /// quantile bound.
    #[test]
    fn histogram_exact_powers_of_two_stay_in_their_bucket() {
        for k in 1..=62u32 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_index(v), k as usize, "2^{k}");
            assert_eq!(Histogram::bucket_index(v + 1), k as usize + 1, "2^{k}+1");
            let h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(0.5), v, "quantile of single 2^{k}");
            assert_eq!(h.max_bound(), v);
        }
        // Bucket 0 holds {0, 1} and reports upper bound 1.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.max_bound(), 1);
    }

    #[test]
    fn histogram_windowed_quantile_from_count_diffs() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let before = h.bucket_counts();
        // Window contains only small observations; overall p99 stays 1024.
        for _ in 0..100 {
            h.record(4);
        }
        let after = h.bucket_counts();
        let mut window = [0u64; 65];
        for i in 0..65 {
            window[i] = after[i] - before[i];
        }
        assert_eq!(window.iter().sum::<u64>(), 100);
        assert_eq!(Histogram::quantile_of_counts(&window, 0.99), 4);
        assert_eq!(h.quantile(0.99), 1024);
        assert_eq!(Histogram::quantile_of_counts(&[0u64; 65], 0.5), 0);
    }

    #[test]
    fn histogram_summary_reports_quantiles() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.p50, 512);
        assert_eq!(s.p99, 1024);
        assert_eq!(s.max, 1024);
        assert!(s.to_string().contains("p99=1024"));
    }

    #[test]
    fn registry_returns_same_metric_for_same_name() {
        let r = MetricsRegistry::new();
        r.counter("a.b").inc();
        r.counter("a.b").inc();
        assert_eq!(r.counter("a.b").get(), 2);
        assert_eq!(r.counter("other").get(), 0);
    }

    #[test]
    fn registry_snapshot_sorted() {
        let r = MetricsRegistry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        let snap = r.counter_snapshot();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[1].0, "z");
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn registry_display_includes_histograms() {
        let r = MetricsRegistry::new();
        r.histogram("net.write.ns").record(300);
        r.histogram("net.write.ns").record(900);
        let snap = r.histogram_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "net.write.ns");
        assert_eq!(snap[0].1.count, 2);
        let dump = r.to_string();
        assert!(
            dump.contains("net.write.ns = count=2"),
            "histograms missing from dump: {dump}"
        );
    }

    proptest! {
        #[test]
        fn prop_histogram_mean_bounded(values in proptest::collection::vec(0u64..1 << 30, 1..100)) {
            let h = Histogram::new();
            let (mut min, mut max) = (u64::MAX, 0);
            for &v in &values {
                h.record(v);
                min = min.min(v);
                max = max.max(v);
            }
            let mean = h.mean();
            prop_assert!(mean >= min as f64 && mean <= max as f64);
        }

        #[test]
        fn prop_bucket_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(Histogram::bucket_index(lo) <= Histogram::bucket_index(hi));
        }

        /// `merge_counts` is commutative and associative — the timeline
        /// merge folds per-shard windows in `(time, shard)` order and
        /// leans on both properties for worker-count independence.
        #[test]
        fn prop_merge_counts_commutative_associative(
            xs in proptest::collection::vec(0u64..1 << 48, 0..60),
            ys in proptest::collection::vec(0u64..1 << 48, 0..60),
            zs in proptest::collection::vec(0u64..1 << 48, 0..60),
        ) {
            let counts_of = |vals: &[u64]| {
                let h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                (h.bucket_counts(), h.sum())
            };
            let (cx, sx) = counts_of(&xs);
            let (cy, sy) = counts_of(&ys);
            let (cz, sz) = counts_of(&zs);
            let merge = |parts: &[(&[u64; 65], u64)]| {
                let h = Histogram::new();
                for &(c, s) in parts {
                    h.merge_counts(c, s);
                }
                (h.bucket_counts(), h.sum())
            };
            // Commutative: x⊕y == y⊕x.
            prop_assert_eq!(merge(&[(&cx, sx), (&cy, sy)]), merge(&[(&cy, sy), (&cx, sx)]));
            // Associative: (x⊕y)⊕z == x⊕(y⊕z).
            let (cxy, sxy) = merge(&[(&cx, sx), (&cy, sy)]);
            let (cyz, syz) = merge(&[(&cy, sy), (&cz, sz)]);
            prop_assert_eq!(merge(&[(&cxy, sxy), (&cz, sz)]), merge(&[(&cx, sx), (&cyz, syz)]));
        }

        /// Recording two streams separately and bulk-merging the bucket
        /// counts must be indistinguishable — buckets, quantiles, summary
        /// — from recording every value into one histogram directly.
        #[test]
        fn prop_merge_counts_quantile_consistent(
            xs in proptest::collection::vec(0u64..1 << 48, 1..80),
            ys in proptest::collection::vec(0u64..1 << 48, 1..80),
            q_pct in 0u32..=100,
        ) {
            let (ha, hb, direct) = (Histogram::new(), Histogram::new(), Histogram::new());
            for &v in &xs {
                ha.record(v);
                direct.record(v);
            }
            for &v in &ys {
                hb.record(v);
                direct.record(v);
            }
            let merged = Histogram::new();
            merged.merge_counts(&ha.bucket_counts(), ha.sum());
            merged.merge_counts(&hb.bucket_counts(), hb.sum());
            let q = f64::from(q_pct) / 100.0;
            prop_assert_eq!(merged.bucket_counts(), direct.bucket_counts());
            prop_assert_eq!(merged.sum(), direct.sum());
            prop_assert_eq!(merged.quantile(q), direct.quantile(q));
            prop_assert_eq!(merged.summary(), direct.summary());
            prop_assert_eq!(
                Histogram::max_bound_of_counts(&merged.bucket_counts()),
                direct.max_bound()
            );
        }
    }
}
