//! What one measured pass of a workload reports, and the statistics the
//! benchmark takes over passes.

/// One pass: set-up excluded, timed segments only, plus the counters the
/// determinism check compares across passes.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the timed segments, seconds.
    pub timed_s: f64,
    /// Process CPU time over the same segments, seconds.
    pub cpu_s: f64,
    /// Device readings that reached their own day's closed window.
    pub readings: u64,
    /// Per-window wall time, ms, in day order.
    pub window_ms: Vec<f64>,
    /// Per-window close→last-release wall time, ms.
    pub publish_ms: Vec<f64>,
    /// Windows closed in the pass.
    pub windows: usize,
    /// Window growth bases (first steady third, last third), ms, of a pass
    /// without per-window walls.
    pub growth_bases: (f64, f64),
    /// Enqueue→ack latency of every acknowledged chunk, sim-ms, sorted.
    pub ack_latencies_ms: Vec<u64>,
    /// Bytes devices put on the wire.
    pub uplink_bytes: u64,
    /// Operations attempted and failed (readings, releases, checks).
    pub attempted: u64,
    pub failed: u64,
    /// Deterministic counters and digests; must repeat exactly per seed.
    /// Those named like a per-layer metric are also reported as one.
    pub counts: Vec<(&'static str, u64)>,
    /// Per-layer times and ratios of a traced pass.
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    /// A per-layer metric of this pass, 0 when the workload has none.
    pub fn layer(&self, name: &str) -> f64 {
        let counted = self.counts.iter().map(|&(n, v)| (n, v as f64));
        self.layers
            .iter()
            .copied()
            .chain(counted)
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| v)
    }
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The bases of window growth: the mean window wall in the first steady
/// third of the windows and in the last third (the first window, which
/// ingests everyone's first day, is not steady). Means, not medians: the
/// walls rise steeply inside each third, and a median would rest on the
/// one middle window's noise.
pub fn growth_bases(window_ms: &[f64]) -> (f64, f64) {
    let third = window_ms.len().saturating_sub(1) / 3;
    assert!(third > 0, "window growth needs at least four windows");
    let mean = |w: &[f64]| w.iter().sum::<f64>() / w.len() as f64;
    (
        mean(&window_ms[1..1 + third]),
        mean(&window_ms[window_ms.len() - third..]),
    )
}

/// Percentile of sorted whole-millisecond samples, interpolated inside
/// the 1 ms bin that holds the nearest-rank sample (each sample stands for
/// the interval it was rounded from), so ties do not quantize the result.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let target = q * sorted.len() as f64;
    let rank = (target.ceil() as usize).clamp(1, sorted.len());
    let v = sorted[rank - 1];
    let below = sorted.partition_point(|&x| x < v);
    let at = sorted.partition_point(|&x| x <= v) - below;
    v as f64 - 0.5 + (target - below as f64) / at as f64
}

/// FNV-1a, for release digests.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn dataset(&mut self, dataset: &mobility::Dataset) {
        for traj in dataset.trajectories() {
            self.u64(traj.user().0);
            for r in traj.records() {
                self.u64(r.time.seconds() as u64);
                self.u64(r.point.latitude().to_bits());
                self.u64(r.point.longitude().to_bits());
            }
        }
    }
}
