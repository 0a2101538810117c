//! The thread-safe metrics registry and its metric kinds.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// A monotonic counter. All operations are single atomic
/// instructions; totals are exact under any interleaving.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A settable signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// `edges` are strictly increasing boundaries. An observation `v`
/// lands in the *underflow* bucket when `v < edges[0]`, in interior
/// bucket `i` when `edges[i] ≤ v < edges[i + 1]`, and in the
/// *overflow* bucket when `v ≥ edges.last()`. A histogram with one
/// edge therefore has no interior buckets at all — only the two
/// open-ended ones.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<u64>,
    underflow: AtomicU64,
    buckets: Vec<AtomicU64>,
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over the given boundaries.
    ///
    /// # Panics
    /// When `edges` is empty or not strictly increasing — bucket
    /// layouts are compile-time decisions, not runtime data.
    pub fn new(edges: &[u64]) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "histogram edges must be strictly increasing"
        );
        Histogram {
            edges: edges.to_vec(),
            underflow: AtomicU64::new(0),
            buckets: (1..edges.len()).map(|_| AtomicU64::new(0)).collect(),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        // partition_point = count of edges ≤ v.
        let at = self.edges.partition_point(|&e| e <= v);
        let cell = match at {
            0 => &self.underflow,
            n if n == self.edges.len() => &self.overflow,
            i => &self.buckets[i - 1],
        };
        cell.fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// The bucket boundaries.
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// A consistent-enough copy of the current state. (Individual
    /// cells are read independently; quiesce writers for an exact
    /// snapshot, as the registry's users do.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            edges: self.edges.clone(),
            underflow: self.underflow.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.underflow.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.overflow.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket boundaries (as registered).
    pub edges: Vec<u64>,
    /// Observations below `edges[0]`.
    pub underflow: u64,
    /// Interior bucket counts (`edges.len() - 1` of them).
    pub buckets: Vec<u64>,
    /// Observations at or above the last edge.
    pub overflow: u64,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot over the given edges.
    pub fn empty(edges: &[u64]) -> Self {
        Histogram::new(edges).snapshot()
    }

    /// Merges two snapshots bucket-wise. Merging is associative and
    /// commutative (it is element-wise `u64` addition), so shard
    /// results can be combined in any order.
    ///
    /// Returns `None` when the bucket layouts differ.
    pub fn merge(&self, other: &HistogramSnapshot) -> Option<HistogramSnapshot> {
        if self.edges != other.edges {
            return None;
        }
        Some(HistogramSnapshot {
            edges: self.edges.clone(),
            underflow: self.underflow + other.underflow,
            buckets: self
                .buckets
                .iter()
                .zip(&other.buckets)
                .map(|(a, b)| a + b)
                .collect(),
            overflow: self.overflow + other.overflow,
            count: self.count + other.count,
            sum: self.sum + other.sum,
        })
    }
}

/// A wall-time accumulator: observation count plus total nanoseconds.
///
/// Only the count is serialized into metrics JSON (see the crate-level
/// determinism contract); the nanosecond total is for programmatic
/// consumers.
#[derive(Debug, Default)]
pub struct Timer {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Timer {
    /// Records one duration.
    #[inline]
    pub fn observe(&self, wall: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns
            .fetch_add(wall.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A point-in-time copy.
    pub fn snapshot(&self) -> TimerSnapshot {
        TimerSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of a [`Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Accumulated wall time in nanoseconds.
    pub total_ns: u64,
}

/// A thread-safe registry of named metrics.
///
/// Handles returned by the registration methods are `Arc`s; hold one
/// and the hot path never touches the registry lock again.
/// Registration is get-or-create: the first caller's configuration
/// (e.g. histogram edges) wins, later callers receive the existing
/// metric.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    timers: Mutex<BTreeMap<String, Arc<Timer>>>,
}

fn get_or_register<M>(
    map: &Mutex<BTreeMap<String, Arc<M>>>,
    name: &str,
    fresh: impl FnOnce() -> M,
) -> Arc<M> {
    let mut map = map.lock().expect("metric map poisoned");
    if let Some(m) = map.get(name) {
        return Arc::clone(m);
    }
    let m = Arc::new(fresh());
    map.insert(name.to_string(), Arc::clone(&m));
    m
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it at zero if new.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_register(&self.counters, name, Counter::default)
    }

    /// The gauge named `name`, registering it at zero if new.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_register(&self.gauges, name, Gauge::default)
    }

    /// The histogram named `name`, registering it over `edges` if new
    /// (an existing histogram keeps its original edges).
    pub fn histogram(&self, name: &str, edges: &[u64]) -> Arc<Histogram> {
        get_or_register(&self.histograms, name, || Histogram::new(edges))
    }

    /// The timer named `name`, registering it at zero if new.
    pub fn timer(&self, name: &str) -> Arc<Timer> {
        get_or_register(&self.timers, name, Timer::default)
    }

    /// Zeroes every metric's value while keeping all registrations
    /// (and every handed-out `Arc` handle) valid.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("counter map poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("gauge map poisoned").values() {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .values()
        {
            h.reset();
        }
        for t in self.timers.lock().expect("timer map poisoned").values() {
            t.reset();
        }
    }

    /// A point-in-time copy of every registered metric, sorted by
    /// name within each kind.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("counter map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("gauge map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("histogram map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
            timers: self
                .timers
                .lock()
                .expect("timer map poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a whole [`Registry`], ready to serialize.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Timer states by name.
    pub timers: BTreeMap<String, TimerSnapshot>,
}

impl Snapshot {
    /// A counter's total, zero when unregistered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The snapshot as stable, sorted JSON.
    ///
    /// Deterministic by construction: `BTreeMap` iteration is sorted,
    /// every value is an integer, and timers serialize as their
    /// observation count only — wall-clock time never appears, so
    /// identical seeded runs dump byte-identical JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string());
        });
        out.push_str("},\"gauges\":{");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            out.push_str(&v.to_string());
        });
        out.push_str("},\"histograms\":{");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str("{\"edges\":[");
            push_list(out, h.edges.iter());
            out.push_str("],\"underflow\":");
            out.push_str(&h.underflow.to_string());
            out.push_str(",\"buckets\":[");
            push_list(out, h.buckets.iter());
            out.push_str("],\"overflow\":");
            out.push_str(&h.overflow.to_string());
            out.push_str(&format!(",\"count\":{},\"sum\":{}}}", h.count, h.sum));
        });
        out.push_str("},\"timers\":{");
        push_entries(&mut out, self.timers.iter(), |out, t| {
            out.push_str(&format!("{{\"count\":{}}}", t.count));
        });
        out.push_str("}}");
        out
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    for (i, (name, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&crate::events::json_escape(name));
        out.push_str("\":");
        render(out, value);
    }
}

fn push_list<'a>(out: &mut String, values: impl Iterator<Item = &'a u64>) {
    for (i, v) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry hot paths instrument against.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A counter handle bound to the [`global`] registry lazily, so hot
/// paths pay one `OnceLock` load plus one atomic add per update.
///
/// ```
/// static EVALS: towerlens_obs::LazyCounter =
///     towerlens_obs::LazyCounter::new("demo.docs.evaluations");
/// EVALS.add(3);
/// assert!(EVALS.get() >= 3);
/// ```
pub struct LazyCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl LazyCounter {
    /// Declares a counter by name; registration happens on first use.
    pub const fn new(name: &'static str) -> Self {
        LazyCounter {
            name,
            cell: OnceLock::new(),
        }
    }

    fn handle(&self) -> &Counter {
        self.cell.get_or_init(|| global().counter(self.name))
    }

    /// Adds `n` to the global counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.handle().add(n);
    }

    /// Adds 1 to the global counter.
    #[inline]
    pub fn inc(&self) {
        self.handle().inc();
    }

    /// The counter's current total.
    pub fn get(&self) -> u64 {
        self.handle().get()
    }
}

/// A histogram handle bound to the [`global`] registry lazily; the
/// histogram analogue of [`LazyCounter`].
pub struct LazyHistogram {
    name: &'static str,
    edges: &'static [u64],
    cell: OnceLock<Arc<Histogram>>,
}

impl LazyHistogram {
    /// Declares a histogram by name and bucket layout; registration
    /// happens on first use.
    pub const fn new(name: &'static str, edges: &'static [u64]) -> Self {
        LazyHistogram {
            name,
            edges,
            cell: OnceLock::new(),
        }
    }

    /// Records one observation into the global histogram.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.cell
            .get_or_init(|| global().histogram(self.name, self.edges))
            .observe(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("t.a.count");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same metric.
        assert_eq!(r.counter("t.a.count").get(), 5);
        let g = r.gauge("t.a.gauge");
        g.set(7);
        g.add(-10);
        assert_eq!(g.get(), -3);
    }

    #[test]
    fn histogram_routes_to_the_right_buckets() {
        let h = Histogram::new(&[10, 100, 1_000]);
        for v in [0, 9] {
            h.observe(v); // underflow: v < 10
        }
        h.observe(10); // bucket 0: [10, 100)
        h.observe(99);
        h.observe(100); // bucket 1: [100, 1000)
        h.observe(1_000); // overflow: v ≥ 1000
        h.observe(u64::MAX / 4);
        let s = h.snapshot();
        assert_eq!(s.underflow, 2);
        assert_eq!(s.buckets, vec![2, 1]);
        assert_eq!(s.overflow, 2);
        assert_eq!(s.count, 7);
    }

    #[test]
    fn histogram_single_edge_has_no_interior_buckets() {
        let h = Histogram::new(&[50]);
        h.observe(49);
        h.observe(50);
        h.observe(51);
        let s = h.snapshot();
        assert_eq!(s.underflow, 1);
        assert!(s.buckets.is_empty());
        assert_eq!(s.overflow, 2);
    }

    #[test]
    fn empty_histogram_snapshot_is_all_zero() {
        let s = HistogramSnapshot::empty(&[1, 2, 3]);
        assert_eq!(s.underflow, 0);
        assert_eq!(s.buckets, vec![0, 0]);
        assert_eq!(s.overflow, 0);
        assert_eq!(s.count, 0);
        assert_eq!(s.sum, 0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotonic_edges_are_rejected() {
        let _ = Histogram::new(&[5, 5]);
    }

    #[test]
    fn merge_requires_matching_edges() {
        let a = HistogramSnapshot::empty(&[1, 2]);
        let b = HistogramSnapshot::empty(&[1, 3]);
        assert!(a.merge(&b).is_none());
        let c = a.merge(&a).unwrap();
        assert_eq!(c.count, 0);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("t.z.last").add(2);
        r.counter("t.a.first").add(1);
        r.gauge("t.g").set(-4);
        r.histogram("t.h", &[10, 20]).observe(15);
        r.timer("t.t").observe(Duration::from_millis(3));
        let json = r.snapshot().to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"t.a.first\":1,\"t.z.last\":2},\
             \"gauges\":{\"t.g\":-4},\
             \"histograms\":{\"t.h\":{\"edges\":[10,20],\"underflow\":0,\
             \"buckets\":[1],\"overflow\":0,\"count\":1,\"sum\":15}},\
             \"timers\":{\"t.t\":{\"count\":1}}}"
        );
        // Timers serialize counts only: re-observing a different wall
        // time changes nothing but the count.
        r.timer("t.t").observe(Duration::from_millis(999));
        assert!(r.snapshot().to_json().contains("\"t.t\":{\"count\":2}"));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let r = Registry::new();
        let c = r.counter("t.reset.count");
        c.add(9);
        let h = r.histogram("t.reset.h", &[5]);
        h.observe(100);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        c.inc(); // the old handle still feeds the registry
        assert_eq!(r.snapshot().counter("t.reset.count"), 1);
    }

    #[test]
    fn timer_accumulates_nanoseconds() {
        let t = Timer::default();
        t.observe(Duration::from_micros(2));
        t.observe(Duration::from_micros(3));
        let s = t.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 5_000);
    }
}
