//! Deterministic metrics registry: always-on counters plus opt-in gauges
//! and fixed-bucket latency histograms, keyed by `(Category, &'static str)`.
//!
//! Every count lives in one `Cell` field of a typed [`CounterSet`]
//! (`NodeStats`, `NicCounters`, ...), which registers once with its
//! simulator's registry; hot paths bump the cell and nothing else. Counters
//! are therefore always on: a [`MetricsSnapshot`] reads every registered
//! set, summing equal keys, and records are built from it by name. Gauges
//! and histograms, like the [`TraceSink`](crate::trace::TraceSink), cost
//! one branch per call site until [`MetricsRegistry::enable`], so the
//! deterministic sweep artifacts stay byte-identical whether or not the
//! observability plane is on. Every recorded quantity is simulated
//! (picoseconds, byte counts, occupancies) — never host wall-clock — so a
//! snapshot serializes identically on every machine.
//!
//! Instruments (one kind per key; a snapshot panics on a clash):
//!
//! * **Counter** — monotone sum, read from a registered [`CounterSet`].
//! * **Gauge** — last-written value plus the high-water mark
//!   ([`MetricsRegistry::gauge_set`]).
//! * **Histogram** — power-of-two buckets over `u64` with count/sum/min/max
//!   ([`MetricsRegistry::observe`]); bucket `i` holds values whose bit
//!   length is `i` (value `0` lands in bucket `0`), so the layout is fixed
//!   and host-independent.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::trace::Category;

/// Number of histogram buckets: one per possible `u64` bit length (0..=64).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Bucket index of a value: its bit length (`0` for `0`, `64` for values
/// with the top bit set). Fixed for all time so snapshots compare across
/// runs and commits.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive value range `[lo, hi]` of bucket `i` — the inverse of
/// [`bucket_of`]: bucket `0` holds exactly `{0}`, bucket `i >= 1` holds the
/// values of bit length `i`, i.e. `[2^(i-1), 2^i - 1]`.
///
/// # Panics
///
/// Panics when `i >= HISTOGRAM_BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < HISTOGRAM_BUCKETS, "bucket {i} out of range");
    if i == 0 {
        (0, 0)
    } else {
        let hi = u64::MAX >> (64 - i);
        ((hi >> 1) + 1, hi)
    }
}

/// A typed set of always-on counters: `Cell` fields that hot paths bump
/// directly and the registry reads through [`CounterSet::for_each`].
pub trait CounterSet: 'static {
    /// The component every counter of the set belongs to.
    const CATEGORY: Category;

    /// Calls `f(name, value)` once per counter: the one place each field
    /// gets its snapshot name.
    fn for_each(&self, f: &mut dyn FnMut(&'static str, u64));
}

type Key = (Category, &'static str);

/// Reads one registered set as `(category, name, value)` triples.
type SetReader = Box<dyn Fn(&mut dyn FnMut(Category, &'static str, u64))>;

#[derive(Debug, Clone, Copy)]
struct Hist {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_of(v)] += 1;
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Gauge { last: u64, max: u64 },
    // Boxed: the inline bucket array would bloat every gauge entry to
    // histogram size.
    Histogram(Box<Hist>),
}

struct RegistryInner {
    enabled: Cell<bool>,
    map: RefCell<BTreeMap<Key, Instrument>>,
    sets: RefCell<Vec<SetReader>>,
}

/// A shared, deterministic metrics registry. Cheap to clone. Counters are
/// always on; gauges and histograms record after
/// [`MetricsRegistry::enable`].
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Rc<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("enabled", &self.inner.enabled.get())
            .field("counter_sets", &self.inner.sets.borrow().len())
            .field("instruments", &self.inner.map.borrow().len())
            .finish()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Creates an empty registry with gauges and histograms disabled.
    pub fn new() -> Self {
        MetricsRegistry {
            inner: Rc::new(RegistryInner {
                enabled: Cell::new(false),
                map: RefCell::new(BTreeMap::new()),
                sets: RefCell::new(Vec::new()),
            }),
        }
    }

    /// Enables gauges and histograms. Until this is called each of their
    /// methods is a single predictable branch.
    pub fn enable(&self) {
        self.inner.enabled.set(true);
    }

    /// `true` while gauges and histograms record.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Registers a shared set and keeps it alive, so its counts outlive
    /// the component that bumped them (an SVM run, a finished client). The
    /// set must not hold the simulator, or it would form a cycle.
    pub fn register<S: CounterSet>(&self, set: Rc<S>) {
        let read: SetReader = Box::new(move |f| set.for_each(&mut |n, v| f(S::CATEGORY, n, v)));
        self.inner.sets.borrow_mut().push(read);
    }

    /// Registers a set stored inline in `owner` (`set` projects it out),
    /// read while the owner lives. Only a `Weak` to the owner is kept: an
    /// owner that holds the simulator forms no cycle, and the hot path
    /// reaches its cells with no extra pointer.
    pub fn register_inline<T: 'static, S: CounterSet>(&self, owner: &Rc<T>, set: fn(&T) -> &S) {
        let owner = Rc::downgrade(owner);
        let read: SetReader = Box::new(move |f| {
            if let Some(owner) = owner.upgrade() {
                set(&owner).for_each(&mut |n, v| f(S::CATEGORY, n, v));
            }
        });
        self.inner.sets.borrow_mut().push(read);
    }

    // The two opt-in instrument methods inline their disabled check into
    // the caller (the hot paths call them on every packet) and keep the
    // recording body out of line.

    /// Sets the gauge `(category, name)` to `v`, tracking its high-water
    /// mark (no-op when disabled).
    #[inline]
    pub fn gauge_set(&self, category: Category, name: &'static str, v: u64) {
        if self.enabled() {
            let empty = || Instrument::Gauge { last: 0, max: 0 };
            self.record(category, name, empty, |inst| match inst {
                Instrument::Gauge { last, max } => {
                    *last = v;
                    *max = (*max).max(v);
                }
                other => panic!("metric {category}/{name} is not a gauge: {other:?}"),
            });
        }
    }

    /// Records `v` into the histogram `(category, name)` (no-op when
    /// disabled). Values are simulated quantities — latencies in
    /// picoseconds, depths, byte counts — never host time.
    #[inline]
    pub fn observe(&self, category: Category, name: &'static str, v: u64) {
        if self.enabled() {
            let empty = || Instrument::Histogram(Box::new(Hist::new()));
            self.record(category, name, empty, |inst| match inst {
                Instrument::Histogram(h) => h.observe(v),
                other => panic!("metric {category}/{name} is not a histogram: {other:?}"),
            });
        }
    }

    /// Applies `update` to the instrument `(category, name)`, inserting
    /// `empty()` first if it is new.
    #[inline(never)]
    fn record(
        &self,
        category: Category,
        name: &'static str,
        empty: impl FnOnce() -> Instrument,
        update: impl FnOnce(&mut Instrument),
    ) {
        update(
            self.inner
                .map
                .borrow_mut()
                .entry((category, name))
                .or_insert_with(empty),
        );
    }

    /// Snapshots every registered counter (summed over the sets that share
    /// its key) and every gauge and histogram, in deterministic
    /// `(Category, name)` order. The registry keeps recording afterwards.
    ///
    /// # Panics
    ///
    /// Panics when a gauge or histogram has a counter's key.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut values = BTreeMap::new();
        for read in self.inner.sets.borrow().iter() {
            read(&mut |category, name, v| {
                let total = values.entry((category, name));
                if let MetricValue::Counter(c) = total.or_insert(MetricValue::Counter(0)) {
                    *c = c.saturating_add(v);
                }
            });
        }
        for (&(category, name), inst) in self.inner.map.borrow().iter() {
            let value = match inst {
                &Instrument::Gauge { last, max } => MetricValue::Gauge { last, max },
                Instrument::Histogram(h) => {
                    // Trim trailing empty buckets; the index encodes the
                    // bit length, so a short vector is unambiguous.
                    let upper = h.buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
                    MetricValue::Histogram(HistogramSnapshot {
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0 } else { h.min },
                        max: h.max,
                        buckets: h.buckets[..upper].to_vec(),
                    })
                }
            };
            if values.insert((category, name), value).is_some() {
                panic!("metric {category}/{name} is both a counter and another instrument");
            }
        }
        let samples = values
            .into_iter()
            .map(|((category, name), value)| MetricSample {
                category,
                name,
                value,
            })
            .collect();
        MetricsSnapshot { samples }
    }
}

/// A point-in-time copy of one instrument.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// Component that owns the instrument.
    pub category: Category,
    /// Instrument name, unique within its category.
    pub name: &'static str,
    /// The recorded value(s).
    pub value: MetricValue,
}

/// The value of one instrument at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter total.
    Counter(u64),
    /// Last-written gauge value plus its high-water mark.
    Gauge {
        /// Most recent value.
        last: u64,
        /// Largest value ever set.
        max: u64,
    },
    /// Fixed-bucket histogram summary.
    Histogram(HistogramSnapshot),
}

/// Histogram summary: totals plus per-bit-length bucket counts (trailing
/// empty buckets trimmed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observation (`0` when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// `buckets[i]` counts observations whose bit length is `i`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by linear
    /// interpolation *within* the power-of-two bucket holding the target
    /// rank, then clamps the estimate to the observed `[min, max]`.
    ///
    /// The clamp makes the edge cases exact regardless of bucket width:
    /// `quantile(0.0) == min`, `quantile(1.0) == max`, and a histogram
    /// whose observations are all one value returns that value for every
    /// `q`. Interior quantiles are exact to within the bucket's span (a
    /// factor-of-two relative error bound, the usual price of power-of-two
    /// buckets). The estimate is monotone in `q`. Returns `0` when empty.
    ///
    /// Every arithmetic step is an IEEE-754 basic operation on exactly
    /// representable inputs, so the result is bit-identical across hosts —
    /// which is what lets sweep rows carry p50/p99/p999 fields.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut below = 0.0f64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let through = below + c as f64;
            if through >= target {
                let (lo, hi) = bucket_bounds(i);
                let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v as u64).clamp(self.min, self.max);
            }
            below = through;
        }
        self.max
    }
}

/// Everything the registry captured, in deterministic order. Plain data
/// (`Send`), so the harness can carry it across run-thread boundaries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All instruments, sorted by `(Category, name)`.
    pub samples: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// Looks an instrument up by category and name.
    pub fn get(&self, category: Category, name: &str) -> Option<&MetricValue> {
        self.samples
            .iter()
            .find(|s| s.category == category && s.name == name)
            .map(|s| &s.value)
    }

    /// The counter `(category, name)`, or `0` when no registered set names
    /// it — how records are built from a snapshot, by name.
    pub fn counter(&self, category: Category, name: &str) -> u64 {
        match self.get(category, name) {
            Some(&MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Folds `other` into `self`, instrument by instrument, preserving the
    /// deterministic `(Category, name)` order.
    ///
    /// Counters sum and histograms merge bucket-wise (count/sum add,
    /// min-of-mins, max-of-maxes) — both **commutative and associative**,
    /// so folding per-shard snapshots in any grouping yields the same
    /// totals: that is what keeps merged cluster metrics shard-count
    /// invariant. Gauges keep the elementwise max of `last` and `max`
    /// (there is no meaningful "last" across shards); consumers that need
    /// shard-invariant rows should derive them from counters and
    /// histograms only.
    ///
    /// # Panics
    ///
    /// Panics when the same `(Category, name)` key names different
    /// instrument kinds in the two snapshots, mirroring the registry's own
    /// kind-mismatch panic.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut merged = Vec::with_capacity(self.samples.len().max(other.samples.len()));
        let (a, b) = (&self.samples, &other.samples);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ka, kb) = ((a[i].category, a[i].name), (b[j].category, b[j].name));
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    merged.push(a[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(b[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(MetricSample {
                        category: a[i].category,
                        name: a[i].name,
                        value: merge_value(&a[i].value, &b[j].value),
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&a[i..]);
        merged.extend_from_slice(&b[j..]);
        self.samples = merged;
    }
}

/// Combines two snapshots of the same instrument (see
/// [`MetricsSnapshot::merge`] for the semantics per kind).
fn merge_value(a: &MetricValue, b: &MetricValue) -> MetricValue {
    match (a, b) {
        (&MetricValue::Counter(x), &MetricValue::Counter(y)) => {
            MetricValue::Counter(x.saturating_add(y))
        }
        (&MetricValue::Gauge { last: l1, max: m1 }, &MetricValue::Gauge { last: l2, max: m2 }) => {
            MetricValue::Gauge {
                last: l1.max(l2),
                max: m1.max(m2),
            }
        }
        (MetricValue::Histogram(x), MetricValue::Histogram(y)) => {
            let mut buckets = vec![0u64; x.buckets.len().max(y.buckets.len())];
            for (i, &c) in x.buckets.iter().enumerate() {
                buckets[i] = c;
            }
            for (i, &c) in y.buckets.iter().enumerate() {
                buckets[i] = buckets[i].saturating_add(c);
            }
            MetricValue::Histogram(HistogramSnapshot {
                count: x.count + y.count,
                sum: x.sum.saturating_add(y.sum),
                // `min` is 0 (not u64::MAX) on an empty snapshot, so an
                // empty side must not poison the merged minimum.
                min: match (x.count, y.count) {
                    (0, _) => y.min,
                    (_, 0) => x.min,
                    _ => x.min.min(y.min),
                },
                max: x.max.max(y.max),
                buckets,
            })
        }
        (a, b) => panic!("metric kind mismatch in merge: {a:?} vs {b:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-counter test set: `nic/pkts`.
    struct Pkts(Cell<u64>);

    impl CounterSet for Pkts {
        const CATEGORY: Category = Category::Nic;

        fn for_each(&self, f: &mut dyn FnMut(&'static str, u64)) {
            f("pkts", self.0.get());
        }
    }

    fn pkts(n: u64) -> Rc<Pkts> {
        Rc::new(Pkts(Cell::new(n)))
    }

    #[test]
    fn disabled_registry_records_only_counters() {
        let m = MetricsRegistry::new();
        m.register(pkts(3));
        m.gauge_set(Category::Nic, "depth", 9);
        m.observe(Category::Net, "lat_ps", 1234);
        let snap = m.snapshot();
        assert_eq!(snap.samples.len(), 1);
        assert_eq!(snap.counter(Category::Nic, "pkts"), 3);
        assert_eq!(snap.counter(Category::Nic, "absent"), 0);
    }

    #[test]
    fn counters_sum_by_key_and_gauges_track_high_water() {
        let m = MetricsRegistry::new();
        m.enable();
        let a = pkts(3);
        m.register(Rc::clone(&a));
        m.register(pkts(4));
        a.0.set(4);
        m.gauge_set(Category::Nic, "depth", 9);
        m.gauge_set(Category::Nic, "depth", 2);
        let snap = m.snapshot();
        assert_eq!(
            snap.get(Category::Nic, "pkts"),
            Some(&MetricValue::Counter(8)),
            "read at snapshot time, summed by key"
        );
        assert_eq!(
            snap.get(Category::Nic, "depth"),
            Some(&MetricValue::Gauge { last: 2, max: 9 })
        );
    }

    #[test]
    fn inline_sets_are_read_while_their_owner_lives() {
        let m = MetricsRegistry::new();
        let owner = Rc::new((0u8, Pkts(Cell::new(5))));
        m.register_inline(&owner, |o| &o.1);
        assert_eq!(m.snapshot().counter(Category::Nic, "pkts"), 5);
        assert_eq!(Rc::strong_count(&owner), 1, "no strong ref is kept");
        drop(owner);
        assert_eq!(m.snapshot().counter(Category::Nic, "pkts"), 0);
    }

    #[test]
    #[should_panic(expected = "is both a counter and another instrument")]
    fn a_histogram_on_a_counter_key_panics() {
        let m = MetricsRegistry::new();
        m.enable();
        m.register(pkts(1));
        m.observe(Category::Nic, "pkts", 7);
        m.snapshot();
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(u64::MAX), 64);
        let m = MetricsRegistry::new();
        m.enable();
        for v in [0, 1, 2, 3, 1000] {
            m.observe(Category::Svm, "fault_ps", v);
        }
        let snap = m.snapshot();
        let Some(MetricValue::Histogram(h)) = snap.get(Category::Svm, "fault_ps") else {
            panic!("expected a histogram");
        };
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1006);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[10], 1); // 1000 (10 bits)
        assert_eq!(h.buckets.len(), 11, "trailing zero buckets trimmed");
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let build = || {
            let m = MetricsRegistry::new();
            m.enable();
            m.gauge_set(Category::Svm, "b", 1);
            m.gauge_set(Category::Nic, "z", 1);
            m.register(pkts(1));
            m.gauge_set(Category::Nic, "a", 1);
            m.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        let names: Vec<_> = a.samples.iter().map(|s| (s.category, s.name)).collect();
        assert_eq!(
            names,
            vec![
                (Category::Nic, "a"),
                (Category::Nic, "pkts"),
                (Category::Nic, "z"),
                (Category::Svm, "b"),
            ]
        );
    }

    #[test]
    fn bucket_bounds_inverts_bucket_of() {
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= hi);
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(hi), i);
            if lo > 0 {
                assert_eq!(bucket_of(lo - 1), i - 1);
            }
        }
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(64), (1 << 63, u64::MAX));
    }

    #[test]
    fn quantile_edges_and_interpolation() {
        let m = MetricsRegistry::new();
        m.enable();
        for v in [100u64, 200, 300, 400, 1000] {
            m.observe(Category::App, "lat", v);
        }
        let snap = m.snapshot();
        let Some(MetricValue::Histogram(h)) = snap.get(Category::App, "lat") else {
            panic!("expected a histogram");
        };
        assert_eq!(h.quantile(0.0), 100);
        assert_eq!(h.quantile(1.0), 1000);
        let p50 = h.quantile(0.5);
        assert!((100..=1000).contains(&p50));
        // Monotone across a dense sweep of q.
        let mut prev = 0;
        for i in 0..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantile not monotone at q={}", i as f64 / 100.0);
            prev = v;
        }
        // Empty histogram.
        let empty = HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn quantile_is_exact_on_single_valued_data() {
        let m = MetricsRegistry::new();
        m.enable();
        for _ in 0..37 {
            m.observe(Category::App, "lat", 777);
        }
        let snap = m.snapshot();
        let Some(MetricValue::Histogram(h)) = snap.get(Category::App, "lat") else {
            panic!("expected a histogram");
        };
        for q in [0.0, 0.25, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q), 777);
        }
    }

    #[test]
    fn merge_is_commutative_and_sums_instruments() {
        let build = |vals: &[u64], extra: bool| {
            let m = MetricsRegistry::new();
            m.enable();
            m.register(pkts(vals.len() as u64));
            for &v in vals {
                m.observe(Category::App, "lat", v);
            }
            if extra {
                m.gauge_set(Category::Mem, "depth", 5);
            }
            m.snapshot()
        };
        let a = build(&[1, 2, 3], true);
        let b = build(&[1000, 2000], false);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(
            ab.get(Category::Nic, "pkts"),
            Some(&MetricValue::Counter(5))
        );
        assert_eq!(
            ab.get(Category::Mem, "depth"),
            Some(&MetricValue::Gauge { last: 5, max: 5 })
        );
        let Some(MetricValue::Histogram(h)) = ab.get(Category::App, "lat") else {
            panic!("expected a histogram");
        };
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 2000);
        assert_eq!(h.sum, 3006);
        // The merged histogram equals the one a single registry would have
        // produced from the union of observations.
        let union = build(&[1, 2, 3, 1000, 2000], false);
        let Some(MetricValue::Histogram(u)) = union.get(Category::App, "lat") else {
            panic!("expected a histogram");
        };
        assert_eq!(h, u);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let m = MetricsRegistry::new();
        m.enable();
        m.observe(Category::Other, "x", 1);
        m.gauge_set(Category::Other, "x", 1);
    }
}
