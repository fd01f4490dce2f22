//! Typed instrument registry: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Instruments are registered on first use under a `&'static str` name
//! and interned for the life of the process (leaked once per unique
//! name), so the hot path after registration is a single atomic op with
//! no locking. Registration itself takes a read lock on the registry
//! map and only upgrades to a write lock on a miss.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn add(&self, by: u64) {
        self.value.fetch_add(by, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn zero(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-write-wins gauge (signed, stored as two's-complement bits).
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    pub const fn new() -> Self {
        Gauge {
            bits: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn set(&self, value: i64) {
        self.bits.store(value as u64, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.bits.load(Ordering::Relaxed) as i64
    }

    fn zero(&self) {
        self.bits.store(0, Ordering::Relaxed);
    }
}

/// Pre-defined bucket scales for histograms. Fixed bounds keep the
/// record path branch-light (a linear scan over ≤ 20 bounds) and make
/// traces from different runs directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buckets {
    /// Latency in milliseconds (sim or wall), 1 ms .. 1000 s.
    LatencyMs,
    /// Payload sizes in bytes, 64 B .. 1 MiB.
    Bytes,
    /// Wall micro-durations in microseconds, 1 µs .. 10 s.
    WallMicros,
    /// Work sizes in records, 1 .. 10 M — one sample per unit of work
    /// (e.g. one candidate's window), so the sum is the total and the
    /// bucket spread shows whether per-unit work grows.
    Records,
}

impl Buckets {
    /// Inclusive upper bounds of each bucket; values above the last
    /// bound land in an implicit overflow bucket.
    pub fn bounds(self) -> &'static [u64] {
        match self {
            Buckets::LatencyMs => &[
                1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000,
                50_000, 100_000, 250_000, 500_000, 1_000_000,
            ],
            Buckets::Bytes => &[
                64, 128, 256, 512, 1_024, 2_048, 4_096, 8_192, 16_384, 65_536, 262_144,
                1_048_576,
            ],
            Buckets::WallMicros => &[
                1, 5, 10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 500_000,
                1_000_000, 5_000_000, 10_000_000,
            ],
            Buckets::Records => &[1, 10, 100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000],
        }
    }

    /// Stable unit label used in the JSON-lines export.
    pub fn unit(self) -> &'static str {
        match self {
            Buckets::LatencyMs => "latency_ms",
            Buckets::Bytes => "bytes",
            Buckets::WallMicros => "wall_us",
            Buckets::Records => "records",
        }
    }
}

/// Fixed-bucket histogram with exact sum/count/min/max aggregates.
#[derive(Debug)]
pub struct Histogram {
    scale: Buckets,
    /// One slot per bound plus a trailing overflow slot.
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
    count: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(scale: Buckets) -> Self {
        let slots = scale.bounds().len() + 1;
        let counts = (0..slots)
            .map(|_| AtomicU64::new(0))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Histogram {
            scale,
            counts,
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    pub fn scale(&self) -> Buckets {
        self.scale
    }

    #[inline]
    pub fn record(&self, value: u64) {
        let bounds = self.scale.bounds();
        let slot = bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len());
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub fn snapshot(&self, name: &str) -> HistSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistSnapshot {
            name: name.to_string(),
            unit: self.scale.unit(),
            bounds: self.scale.bounds(),
            counts: self
                .counts
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count,
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn zero(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one histogram, for export.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    pub name: String,
    pub unit: &'static str,
    pub bounds: &'static [u64],
    /// `bounds.len() + 1` slots; the last is the overflow bucket.
    pub counts: Vec<u64>,
    pub sum: u64,
    pub count: u64,
    pub min: u64,
    pub max: u64,
}

/// Point-in-time copy of the whole registry, for export.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub hists: Vec<HistSnapshot>,
}

static COUNTERS: RwLock<BTreeMap<&'static str, &'static Counter>> =
    RwLock::new(BTreeMap::new());
static GAUGES: RwLock<BTreeMap<&'static str, &'static Gauge>> = RwLock::new(BTreeMap::new());
static HISTS: RwLock<BTreeMap<&'static str, &'static Histogram>> = RwLock::new(BTreeMap::new());

/// Look up (registering on first use) the named counter.
pub fn counter(name: &'static str) -> &'static Counter {
    if let Some(c) = COUNTERS.read().get(name) {
        return c;
    }
    let mut map = COUNTERS.write();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Counter::new())))
}

/// Look up (registering on first use) the named gauge.
pub fn gauge(name: &'static str) -> &'static Gauge {
    if let Some(g) = GAUGES.read().get(name) {
        return g;
    }
    let mut map = GAUGES.write();
    map.entry(name)
        .or_insert_with(|| Box::leak(Box::new(Gauge::new())))
}

/// Look up (registering on first use) the named histogram. The scale is
/// pinned at registration; a mismatched scale on a later call is a bug
/// in the instrumentation (debug-asserted, first scale wins).
pub fn histogram(name: &'static str, scale: Buckets) -> &'static Histogram {
    if let Some(h) = HISTS.read().get(name) {
        debug_assert_eq!(
            h.scale(),
            scale,
            "histogram {name:?} re-registered with another scale"
        );
        return h;
    }
    let mut map = HISTS.write();
    let h = map
        .entry(name)
        .or_insert_with(|| Box::leak(Box::new(Histogram::new(scale))));
    debug_assert_eq!(
        h.scale(),
        scale,
        "histogram {name:?} re-registered with another scale"
    );
    h
}

/// Zero every registered instrument (registrations are kept).
pub fn reset_values() {
    for c in COUNTERS.read().values() {
        c.zero();
    }
    for g in GAUGES.read().values() {
        g.zero();
    }
    for h in HISTS.read().values() {
        h.zero();
    }
}

/// Copy out the current instrument values, in deterministic (sorted by
/// name) order.
pub fn snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        counters: COUNTERS
            .read()
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect(),
        gauges: GAUGES
            .read()
            .iter()
            .map(|(n, g)| (n.to_string(), g.get()))
            .collect(),
        hists: HISTS.read().iter().map(|(n, h)| h.snapshot(n)).collect(),
    }
}
