//! A scripted device fleet uploading to one Hive over the fault-injected
//! simulator, driven through the public pieces of each layer so the
//! benchmark can time every call it makes into them:
//!
//! * `apisense::device` + `script` — each device runs the compiled GPS task
//!   script at every instant of its sensing schedule; the readings that
//!   survive its privacy preferences are its upload store;
//! * `apisense::collect` outbox — the readings are staged into day batches;
//! * `simnet::reliable` — sequenced, acknowledged frames with retries;
//! * `simnet` — the discrete-event network with the workload's fault plan;
//! * `apisense::collect` Hive — the `Collector` deduplicates, reorders and
//!   closes day windows.
//!
//! Time mapping as in `apisense::fleet`: 1 simulated millisecond is one
//! dataset second, so devices upload on a sim-clock schedule whatever the
//! Hive's wall speed (an open loop).

use crate::probe::{Layer, Probe};
use apisense::collect::{window_fingerprint, Collector, DeviceOutbox};
use apisense::device::{Device, DeviceId};
use apisense::hive::TaskId;
use apisense::privacy::{PrivacyPreferences, TimeWindow};
use apisense::script::{Script, Vm};
use mobility::{
    Dataset, DatasetWindow, LocationRecord, Timestamp, Trajectory, WindowedDataset, DAY_SECONDS,
};
use privapi::streaming::IngestDelta;
use simnet::fault::Crash;
use simnet::reliable::{AckFrame, DataFrame, ReliableConfig};
use simnet::{
    Actor, Context, FaultPlan, LinkModel, Message, NetworkStats, NodeId, SimTime, Simulation,
};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The task every device runs per reading: one GPS fix plus the battery
/// level, emitted as one record.
pub const GPS_TASK: &str = r#"
    let fix = sensor.gps();
    if (fix != null) {
        emit({ "lat": fix.lat, "lon": fix.lon, "accuracy": fix.accuracy, "battery": sensor.battery() });
    }
"#;

const TASK: TaskId = TaskId(1);
const TICK_UPLOAD: u64 = 1;
const TICK_RETRY: u64 = 2;

/// Shape of one fleet run besides its population.
#[derive(Debug)]
pub struct FleetSpec {
    pub seed: u64,
    pub days: i64,
    pub upload_every_s: u64,
    pub grace_s: u64,
    /// Every `crash_every`-th device crashes once (0: no crash wave).
    pub crash_every: usize,
    /// The task's sampling interval: a device reads its GPS at the first
    /// instant of its trajectory and then at the next recorded instant at
    /// least this long after the previous reading.
    pub task_interval_s: i64,
}

/// One device with its script executor and sensing schedule.
struct ScriptedDevice {
    device: Device,
    node: NodeId,
    vm: Vm,
    /// Sampling instants, grouped by day.
    schedule: Vec<(i64, Vec<Timestamp>)>,
}

struct DeviceActor {
    hive: NodeId,
    outbox: DeviceOutbox,
    upload_every_ms: u64,
    last_day: i64,
    probe: Rc<Probe>,
    ack_latencies_ms: Vec<u64>,
    uplink_bytes: u64,
    chunks_staged: u64,
}

impl DeviceActor {
    fn pump(&mut self, ctx: &mut Context<'_>) {
        let now = ctx.now().as_millis();
        for tx in self.outbox.sender_mut().poll(now) {
            if tx.retransmit {
                ctx.note_retry();
            }
            let msg = tx.frame.to_message();
            self.uplink_bytes += msg.wire_size() as u64;
            ctx.send(self.hive, msg);
        }
        if let Some(due) = self.outbox.sender().next_due() {
            ctx.set_timer(due.saturating_sub(now).max(1), TICK_RETRY);
        }
    }
}

// Device callbacks run the transport (charged to `reliable`) except the
// outbox's day staging; Hive callbacks decode and ack frames (`reliable`)
// around the collector's ingest.
impl Actor for DeviceActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: NodeId, msg: Message) {
        let probe = Rc::clone(&self.probe);
        probe.within(Layer::Reliable, || {
            if let Ok(ack) = AckFrame::from_message(&msg) {
                let now = ctx.now().as_millis();
                let acked = self.outbox.sender_mut().on_ack(&ack, now);
                self.ack_latencies_ms.extend(acked);
                self.pump(ctx);
            }
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, timer_id: u64) {
        let probe = Rc::clone(&self.probe);
        probe.within(Layer::Reliable, || {
            if timer_id == TICK_UPLOAD {
                let now_s = ctx.now().as_millis() as i64;
                let staged = probe.within(Layer::Outbox, || self.outbox.stage(now_s));
                self.chunks_staged += staged as u64;
                self.pump(ctx);
                if !self.outbox.drained(self.last_day) {
                    ctx.set_timer(self.upload_every_ms, TICK_UPLOAD);
                }
            } else {
                self.pump(ctx);
            }
        });
    }

    fn on_restart(&mut self, ctx: &mut Context<'_>) {
        // Volatile transport state is lost; the outbox store survives.
        let probe = Rc::clone(&self.probe);
        probe.within(Layer::Reliable, || self.outbox.sender_mut().crash());
        ctx.set_timer(1, TICK_UPLOAD);
    }
}

struct HiveActor {
    collector: Collector,
    probe: Rc<Probe>,
    frames: u64,
}

impl Actor for HiveActor {
    fn on_message(&mut self, ctx: &mut Context<'_>, from: NodeId, msg: Message) {
        let probe = Rc::clone(&self.probe);
        probe.within(Layer::Reliable, || {
            if let Ok(frame) = DataFrame::from_message(&msg) {
                self.frames += 1;
                let ack = probe.within(Layer::Ingest, || self.collector.ingest(&frame));
                if let Ok(ack) = ack {
                    ctx.send(from, ack.to_message());
                }
            }
        });
    }
}

/// Counters of one fleet run, read from the layers' public audit structs
/// and the benchmark's actors. All deterministic for one seed.
#[derive(Debug, Clone, Default)]
pub struct FleetTotals {
    pub net: NetworkStats,
    pub events: u64,
    pub execs: u64,
    pub produced: u64,
    pub suppressed: u64,
    pub readings: u64,
    pub chunks_staged: u64,
    pub transmissions: u64,
    pub retries: u64,
    pub acked: u64,
    pub uplink_bytes: u64,
    pub frames: u64,
    pub dup_absorbed: u64,
    /// Enqueue→ack latency of every acknowledged chunk, sorted.
    pub ack_latencies_ms: Vec<u64>,
}

/// A wired fleet: devices, Hive and network, ready to sense and upload.
pub struct Fleet {
    sim: Simulation,
    hive: NodeId,
    devices: Vec<ScriptedDevice>,
    script: Script,
    grace_s: u64,
    probe: Rc<Probe>,
    events: u64,
    execs: u64,
}

impl Fleet {
    /// Set-up: compiles the task script, builds one device per user of
    /// `population` (its trajectory is the device's GPS ground truth and
    /// its record times the sensing schedule), and wires devices and Hive
    /// into a simulator under chaos plus the optional crash wave.
    pub fn wire(population: &Dataset, spec: &FleetSpec, probe: Rc<Probe>) -> Self {
        let script = Script::compile(GPS_TASK).expect("the GPS task compiles");
        let mut sim = Simulation::new(spec.seed);
        sim.set_default_link(LinkModel::mobile());
        let users = population.users();
        let mut collector = Collector::new();
        for &user in &users {
            collector.register(user.0, user);
        }
        let hive = sim.add_node(
            "hive",
            Box::new(HiveActor {
                collector,
                probe: Rc::clone(&probe),
                frames: 0,
            }),
        );
        let mut faults = FaultPlan::chaos(spec.seed);
        let mut devices = Vec::with_capacity(users.len());
        for (i, &user) in users.iter().enumerate() {
            let records = population.records_of(user);
            let mut schedule: Vec<(i64, Vec<Timestamp>)> = Vec::new();
            let mut next = i64::MIN;
            for r in &records {
                if r.time.seconds() < next {
                    continue;
                }
                next = r.time.seconds() + spec.task_interval_s;
                let day = r.time.day_index();
                match schedule.last_mut() {
                    Some((d, times)) if *d == day => times.push(r.time),
                    _ => schedule.push((day, vec![r.time])),
                }
            }
            // Every fourth participant shares nothing between 23:00 and
            // 06:00, so the device-side privacy filter has work to do.
            let prefs = if i % 4 == 3 {
                PrivacyPreferences::new().with_time_window(TimeWindow::new(6, 23))
            } else {
                PrivacyPreferences::new()
            };
            let device = Device::new(DeviceId(user.0), user, Trajectory::new(user, records))
                .with_preferences(prefs);
            let node = sim.add_node(
                &format!("device-{}", user.0),
                Box::new(DeviceActor {
                    hive,
                    outbox: DeviceOutbox::new(
                        user.0,
                        user,
                        ReliableConfig::default(),
                        Vec::new(),
                    ),
                    upload_every_ms: spec.upload_every_s,
                    last_day: spec.days - 1,
                    probe: Rc::clone(&probe),
                    ack_latencies_ms: Vec::new(),
                    uplink_bytes: 0,
                    chunks_staged: 0,
                }),
            );
            if spec.crash_every > 0 && i % spec.crash_every == 0 {
                // Mid-morning of day 1, staggered, a two-hour outage: well
                // inside the day, so every reading still makes its window.
                let at_ms = DAY_SECONDS as u64 + 10 * 3_600 + (i as u64 % 60) * 60;
                faults = faults.with_crash(Crash {
                    node,
                    at_ms,
                    restart_ms: at_ms + 7_200,
                });
            }
            sim.post_timer(node, 1 + (i as u64 % 97), TICK_UPLOAD);
            devices.push(ScriptedDevice {
                device,
                node,
                vm: Vm::new(),
                schedule,
            });
        }
        sim.set_fault_plan(faults);
        Self {
            sim,
            hive,
            devices,
            script,
            grace_s: spec.grace_s,
            probe,
            events: 0,
            execs: 0,
        }
    }

    /// The device phase: every device runs the task script at each instant
    /// of its schedule, and its kept readings become its outbox store.
    /// Returns all readings (the oracle's input).
    pub fn sense(&mut self, parent: Option<usize>) -> Vec<LocationRecord> {
        let probe = Rc::clone(&self.probe);
        let mut all = Vec::new();
        for dev in &mut self.devices {
            let mut readings = Vec::new();
            let id = dev.device.id().0;
            for (day, times) in &dev.schedule {
                probe.span(
                    Layer::Device,
                    "device.sample",
                    parent,
                    || format!("\"day\":{day},\"device\":{id}"),
                    || {
                        for &t in times {
                            let kept =
                                dev.device
                                    .sample_scripted(TASK, &self.script, &mut dev.vm, t);
                            readings.extend(kept.iter().filter_map(|r| r.to_location_record()));
                        }
                    },
                );
                self.execs += times.len() as u64;
            }
            all.extend_from_slice(&readings);
            let user = dev.device.user();
            let actor = self
                .sim
                .actor_as_mut::<DeviceActor>(dev.node)
                .expect("device actor");
            probe.within(Layer::Outbox, || {
                actor.outbox = DeviceOutbox::new(id, user, ReliableConfig::default(), readings);
            });
        }
        all
    }

    /// Advances the network to day `day`'s close deadline.
    pub fn run_day(&mut self, day: i64, parent: Option<usize>) {
        let close_at = (day + 1) as u64 * DAY_SECONDS as u64 + self.grace_s;
        let sim = &mut self.sim;
        let events = self.probe.span(
            Layer::Simnet,
            "simnet.run_until",
            parent,
            || format!("\"day\":{day}"),
            || sim.run_until(SimTime::from_millis(close_at)),
        );
        self.events += events;
    }

    /// Seals day `day` at the Hive.
    pub fn close_day(
        &mut self,
        day: i64,
        parent: Option<usize>,
    ) -> (DatasetWindow, IngestDelta) {
        let hive = self
            .sim
            .actor_as_mut::<HiveActor>(self.hive)
            .expect("hive actor");
        self.probe.span(
            Layer::Close,
            "collect.close_day",
            parent,
            || format!("\"day\":{day}"),
            || hive.collector.close_day(day).expect("days close in order"),
        )
    }

    /// Drains what faults delayed past the last close. Returns whether the
    /// Hive still holds data no window received (a failure).
    pub fn drain(&mut self, parent: Option<usize>) -> bool {
        let sim = &mut self.sim;
        let events = self
            .probe
            .span(Layer::Simnet, "simnet.run", parent, String::new, || {
                sim.run()
            });
        self.events += events;
        let hive = self
            .sim
            .actor_as::<HiveActor>(self.hive)
            .expect("hive actor");
        hive.collector.has_backlog()
    }

    /// Reads every counter off the devices, actors and network.
    pub fn totals(&self) -> FleetTotals {
        let mut t = FleetTotals {
            net: self.sim.stats(),
            events: self.events,
            execs: self.execs,
            ..FleetTotals::default()
        };
        for dev in &self.devices {
            t.produced += dev.device.records_produced();
            t.suppressed += dev.device.records_suppressed();
            let actor = self
                .sim
                .actor_as::<DeviceActor>(dev.node)
                .expect("device actor");
            let s = actor.outbox.sender().stats();
            t.transmissions += s.transmissions;
            t.retries += s.retries;
            t.acked += s.acked;
            t.uplink_bytes += actor.uplink_bytes;
            t.chunks_staged += actor.chunks_staged;
            t.ack_latencies_ms
                .extend_from_slice(&actor.ack_latencies_ms);
        }
        t.readings = t.produced - t.suppressed;
        t.ack_latencies_ms.sort_unstable();
        let hive = self
            .sim
            .actor_as::<HiveActor>(self.hive)
            .expect("hive actor");
        t.frames = hive.frames;
        t.dup_absorbed = hive.collector.duplicates_absorbed();
        t
    }
}

/// The fault-free oracle: the partition of the scripted readings by day.
/// Every closed window must equal its day's partition byte for byte.
pub struct Oracle {
    windows: BTreeMap<i64, DatasetWindow>,
}

impl Oracle {
    pub fn new(readings: &[LocationRecord]) -> Self {
        let partition = WindowedDataset::partition(&Dataset::from_records(readings.to_vec()));
        Self {
            windows: partition.iter().map(|w| (w.day(), w.clone())).collect(),
        }
    }

    /// Checks one closed window; returns the readings that missed it
    /// (oracle records absent from it, plus records it holds that belong
    /// elsewhere).
    pub fn check(&mut self, window: &DatasetWindow) -> u64 {
        let expected = self.windows.remove(&window.day());
        let want = expected.as_ref().map(window_fingerprint);
        if want.as_deref() == Some(window_fingerprint(window).as_slice())
            || (expected.is_none() && window.record_count() == 0)
        {
            return 0;
        }
        let key = |r: &LocationRecord| (r.user.0, r.time.seconds());
        let mut got: BTreeMap<(u64, i64), i64> = BTreeMap::new();
        for r in window.dataset().iter_records() {
            *got.entry(key(r)).or_default() += 1;
        }
        if let Some(expected) = &expected {
            for r in expected.dataset().iter_records() {
                *got.entry(key(r)).or_default() -= 1;
            }
        }
        got.values().map(|n| n.unsigned_abs()).sum::<u64>().max(1)
    }

    /// Readings of days no window was closed for.
    pub fn unclosed(&self) -> u64 {
        self.windows.values().map(|w| w.record_count() as u64).sum()
    }
}

/// Wall-clock helper for window and publish latencies.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
