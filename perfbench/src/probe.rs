//! The benchmark's own instrumentation: wall and CPU stopwatches, per-layer
//! self time around the calls the benchmark makes into each layer, and
//! coarse spans kept in memory and written out after the run.
//!
//! The clock is only read in the traced run (`Probe::on`); the timed runs
//! pay one branch per call site.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

/// The layers time is attributed to. `Harness` is the benchmark's own
/// code: set-up, checks and loop glue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Harness,
    Device,
    Outbox,
    Reliable,
    Simnet,
    Ingest,
    Close,
    Campaign,
    Federated,
}

const LAYER_COUNT: usize = 9;

/// One span: a call the benchmark made into a layer, with the ids that
/// group the spans of one window (day, device, campaigns).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Preformatted JSON members, e.g. `"day":3,"device":17`.
    pub attrs: String,
}

/// Self-time attribution of one pass, shared by the workload loop and the
/// simulated actors. Exactly one layer is current at any instant; each
/// switch charges the time since the previous switch to the layer that
/// was current, so self times are exclusive and sum to the traced wall.
#[derive(Debug)]
pub struct Probe {
    pub on: bool,
    origin: Instant,
    current: Cell<Layer>,
    last: Cell<Instant>,
    self_ns: [Cell<u64>; LAYER_COUNT],
    spans: RefCell<Vec<Span>>,
}

impl Probe {
    pub fn new(on: bool) -> Self {
        let now = Instant::now();
        Self {
            on,
            origin: now,
            current: Cell::new(Layer::Harness),
            last: Cell::new(now),
            self_ns: Default::default(),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Makes `layer` current, charging the elapsed time to the previous
    /// one, which it returns.
    fn switch(&self, layer: Layer) -> Layer {
        let now = Instant::now();
        let prev = self.current.replace(layer);
        let slot = &self.self_ns[prev as usize];
        slot.set(slot.get() + (now - self.last.replace(now)).as_nanos() as u64);
        prev
    }

    /// Runs `f` with `layer` current when tracing.
    #[inline]
    pub fn within<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let prev = self.switch(layer);
        let out = f();
        self.switch(prev);
        out
    }

    /// Like [`Probe::within`], and also records a span carrying `attrs`.
    pub fn span<R>(
        &self,
        layer: Layer,
        name: &'static str,
        parent: Option<usize>,
        attrs: impl FnOnce() -> String,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = self.within(layer, f);
        self.push(name, parent, start, Instant::now(), attrs());
        out
    }

    /// Self time charged to `layer` so far, ms.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns[layer as usize].get() as f64 / 1e6
    }

    /// Self time charged to every layer of the program (all but the
    /// harness), ms.
    pub fn program_ms(&self) -> f64 {
        let harness = self.self_ns[Layer::Harness as usize].get();
        let total: u64 = self.self_ns.iter().map(Cell::get).sum();
        (total - harness) as f64 / 1e6
    }

    /// Records a span; returns its index.
    fn push(
        &self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        attrs: String,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            parent,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
            attrs,
        });
        spans.len() - 1
    }

    /// Opens a span whose end [`Probe::close`] sets; `None` when off.
    pub fn open(&self, name: &'static str, attrs: String) -> Option<usize> {
        self.on
            .then(|| self.push(name, None, Instant::now(), Instant::now(), attrs))
    }

    pub fn close(&self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans.borrow_mut()[i].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }
}

/// Accumulates wall and process CPU time over the timed segments of a
/// pass, so checks run between segments stay outside the measurement.
#[derive(Debug, Default)]
pub struct Stopwatch {
    wall: Duration,
    cpu_s: f64,
    started: Option<(Instant, f64)>,
}

impl Stopwatch {
    pub fn start(&mut self) {
        debug_assert!(self.started.is_none(), "stopwatch already running");
        self.started = Some((Instant::now(), cpu_seconds()));
    }

    pub fn stop(&mut self) {
        let (at, cpu) = self.started.take().expect("stopwatch running");
        self.wall += at.elapsed();
        self.cpu_s += cpu_seconds() - cpu;
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.as_secs_f64()
    }

    pub fn cpu_s(&self) -> f64 {
        self.cpu_s
    }
}

/// Process CPU time (utime + stime of every thread) from `/proc/self/stat`,
/// in seconds. Linux reports it in `USER_HZ` ticks, fixed at 100 by the
/// kernel ABI.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat readable");
    // The command name may hold spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13 here.
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}
