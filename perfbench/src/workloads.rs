//! The three workloads. Each generates its inputs from the seed during
//! set-up, then runs one timed pass and checks the program's outputs.
//!
//! * `campaign_spine` — the paper's deployment end to end: scripted
//!   devices with sparse daily participation over four weeks, chaos on
//!   the network, the Hive closing each day and an orchestrator publishing
//!   the multi-campaign mix. PRIVAPI does nearly all the work.
//! * `ingest_fleet` — a thousand scripted devices over a dense week,
//!   chaos plus a device-crash wave, windows closed and nothing published:
//!   the script VM, transport, simulator and collector do all the work and
//!   PRIVAPI none.
//! * `federated_fleet` — device-local anonymization under a broadcast
//!   config with a raw-uploading cohort, chaos plus an upgrade wave; one
//!   call.

use crate::fleet::{ms_since, Fleet, FleetSpec, FleetTotals, Oracle};
use crate::pass::{growth_bases, Digest, Pass};
use crate::probe::{Layer, Probe, Stopwatch};
use apisense::federated::{run_federated_fleet, FederatedFleetConfig, FederatedFleetOutcome};
use apisense::fleet::FleetConfig;
use campaign::{Campaign, CampaignOutcome, Orchestrator, SkipReason};
use mobility::gen::ScenarioPreset;
use mobility::gen::{thin_participation, CityModel, PopulationConfig};
use mobility::{Dataset, LocationRecord, ParticipantFilter, Timestamp, UserId, DAY_SECONDS};
use privapi::attack::{PoiAttack, PoiAttackConfig};
use privapi::federated::StrategySpec;
use privapi::pipeline::PrivApiConfig;
use simnet::reliable::ReliableConfig;
use simnet::{FaultPlan, LinkModel};
use std::rc::Rc;
use std::time::Instant;

/// A workload: set-up (timed as `setup_s`) and one measured pass.
pub trait Workload {
    type State;
    fn setup(&self, seed: u64, probe: &Rc<Probe>) -> Self::State;
    fn run(&self, state: Self::State, probe: &Rc<Probe>) -> Pass;
}

// ---------------------------------------------------------------------------
// campaign_spine

pub struct CampaignSpine {
    pub users: usize,
    pub days: i64,
    /// Share of each cohort reporting on each day after the first.
    pub participation_pct: u64,
    /// Seconds between a device's GPS readings.
    pub task_interval_s: i64,
}

/// The E12 campaign mix: four same-config full-population campaigns, one
/// commuter-subset campaign and one custom-attack campaign.
const SAME_CONFIG: [u64; 4] = [0, 1, 2, 3];
const SUBSET: u64 = 100;
const CUSTOM: u64 = 200;

pub struct SpineState {
    fleet: Fleet,
    orchestrator: Orchestrator,
    filters: Vec<(u64, ParticipantFilter)>,
    default_attack: PoiAttack,
    custom_attack: PoiAttack,
}

impl CampaignSpine {
    /// Commuters and a sparse rural cohort, thinned to sparse daily
    /// participation, plus two fixed boundary beacons that pin the
    /// population's bounding box so the subset campaign derives its shards
    /// from the shared session.
    fn population(&self, seed: u64) -> (Dataset, Vec<UserId>) {
        let days = self.days as usize;
        let commuters = self.users / 2;
        let mut records: Vec<LocationRecord> = ScenarioPreset::Commuter
            .generate(commuters, days, seed)
            .dataset
            .iter_records()
            .copied()
            .collect();
        records.extend(
            ScenarioPreset::SparseRural
                .generate(self.users - commuters, days, seed ^ 0x5EED)
                .dataset
                .iter_records()
                .map(|r| {
                    LocationRecord::new(UserId(r.user.0 + commuters as u64), r.time, r.point)
                }),
        );
        let mut records = self.thin(records, commuters as u64, seed);
        let centre = geo::GeoPoint::clamped(45.7578, 4.8320);
        let beacons = [UserId(self.users as u64), UserId(self.users as u64 + 1)];
        for (beacon, d) in beacons.iter().zip([-0.35, 0.35]) {
            let site = geo::GeoPoint::clamped(centre.latitude() + d, centre.longitude() + d);
            for day in 0..self.days {
                for hour in [9, 11, 13, 15] {
                    let t = Timestamp::new(day * DAY_SECONDS + hour * 3_600);
                    records.push(LocationRecord::new(*beacon, t, site));
                }
            }
        }
        let subset = (0..commuters as u64).map(UserId).chain(beacons).collect();
        (Dataset::from_records(records), subset)
    }

    /// Sparse daily participation of a fixed size: everyone reports on the
    /// first day; on each later day exactly `participation_pct` % of each
    /// cohort (ids below `split`, and the rest) reports, drawn by the seed.
    /// A per-pair coin flip would let the input size swing with the seed.
    fn thin(&self, records: Vec<LocationRecord>, split: u64, seed: u64) -> Vec<LocationRecord> {
        let cohorts = [(0..split), (split..self.users as u64)];
        let mut keep = std::collections::BTreeSet::new();
        for day in 1..self.days {
            for cohort in cohorts.clone() {
                let mut ranked: Vec<u64> = cohort.collect();
                ranked.sort_by_key(|&u| mix(seed ^ mix(u ^ mix(day as u64))));
                let k = (ranked.len() as u64 * self.participation_pct).div_ceil(100) as usize;
                keep.extend(ranked[..k].iter().map(|&u| (u, day)));
            }
        }
        records
            .into_iter()
            .filter(|r| {
                let day = r.time.day_index();
                day == 0 || keep.contains(&(r.user.0, day))
            })
            .collect()
    }
}

impl Workload for CampaignSpine {
    type State = SpineState;

    fn setup(&self, seed: u64, probe: &Rc<Probe>) -> SpineState {
        let (population, subset) = self.population(seed);
        let spec = FleetSpec {
            seed,
            days: self.days,
            upload_every_s: 1_800,
            grace_s: 14_400,
            crash_every: 0,
            task_interval_s: self.task_interval_s,
        };
        let fleet = Fleet::wire(&population, &spec, Rc::clone(probe));
        let default_attack = PoiAttack::default();
        let custom_attack = PoiAttack::new(PoiAttackConfig {
            match_distance: geo::Meters::new(400.0),
            ..PoiAttackConfig::default()
        });
        let mut filters: Vec<(u64, ParticipantFilter, PoiAttack)> = SAME_CONFIG
            .iter()
            .map(|&id| (id, ParticipantFilter::All, default_attack.clone()))
            .collect();
        filters.push((
            SUBSET,
            ParticipantFilter::users(subset),
            default_attack.clone(),
        ));
        filters.push((CUSTOM, ParticipantFilter::All, custom_attack.clone()));
        // A floor every campaign of the mix can meet on every day, so no
        // release fails for want of a feasible strategy.
        let privacy = PrivApiConfig {
            privacy_floor: 0.4,
            ..PrivApiConfig::default()
        };
        let mut orchestrator = Orchestrator::new();
        for (id, filter, attack) in &filters {
            orchestrator
                .register(
                    Campaign::new(*id, format!("c{id}"), privacy)
                        .with_filter(filter.clone())
                        .with_attack(attack.clone()),
                )
                .expect("distinct campaign ids");
        }
        SpineState {
            fleet,
            orchestrator,
            filters: filters.into_iter().map(|(id, f, _)| (id, f)).collect(),
            default_attack,
            custom_attack,
        }
    }

    fn run(&self, state: SpineState, probe: &Rc<Probe>) -> Pass {
        let SpineState {
            mut fleet,
            mut orchestrator,
            filters,
            default_attack,
            custom_attack,
        } = state;
        let extractions =
            || default_attack.user_extractions() + custom_attack.user_extractions();
        let mut pass = Pass::default();
        let mut sw = Stopwatch::default();
        let root = probe.open("pass", "\"workload\":\"campaign_spine\"".into());

        sw.start();
        let readings = fleet.sense(root);
        sw.stop();
        let mut oracle = Oracle::new(&readings);
        let mut digest = Digest::default();
        let (mut releases, mut failed_releases, mut missing) = (0u64, 0u64, 0u64);
        let (mut refreshed, mut reused, mut cells) = (0u64, 0u64, 0u64);
        let (mut s_refreshed, mut s_reused, mut s_donated, mut fallbacks) =
            (0u64, 0u64, 0u64, 0u64);
        let mut window_extractions = Vec::new();
        sw.start();
        for day in 0..self.days {
            let window_start = Instant::now();
            fleet.run_day(day, root);
            let close_start = Instant::now();
            let (window, ingest) = fleet.close_day(day, root);
            let before = extractions();
            let report = probe.span(
                Layer::Campaign,
                "campaign.day",
                root,
                || format!("\"day\":{day},\"campaigns\":[0,1,2,3,100,200]"),
                || orchestrator.advance_day_with_ingest(&window, ingest),
            );
            pass.publish_ms.push(ms_since(close_start));
            pass.window_ms.push(ms_since(window_start));
            window_extractions.push((extractions() - before) as f64);
            sw.stop();

            missing += oracle.check(&window);
            let report = report.expect("the Hive closes days in ascending order");
            for session in &report.sessions {
                refreshed += session.users_refreshed as u64;
                reused += session.users_reused as u64;
            }
            for ((id, outcome), (_, filter)) in report.outcomes.iter().zip(&filters) {
                digest.u64(id.0);
                match outcome {
                    CampaignOutcome::Published(release) => {
                        releases += 1;
                        cells += release.baseline.cells_updated as u64;
                        s_refreshed += release.strategies.users_refreshed as u64;
                        s_reused += release.strategies.users_reused as u64;
                        s_donated += release.strategies.users_donated as u64;
                        fallbacks += release.strategies.full_fallbacks as u64;
                        digest.bytes(release.published.strategy.to_string().as_bytes());
                        digest.dataset(&release.published.dataset);
                    }
                    // A filter that leaves no record this day owes no release.
                    CampaignOutcome::Skipped(SkipReason::NoParticipants)
                        if filter.filter_window(&window).is_none() => {}
                    _ => failed_releases += 1,
                }
            }
            sw.start();
        }
        let backlog = fleet.drain(root);
        sw.stop();
        probe.close(root);

        let totals = fleet.totals();
        missing += oracle.unclosed();
        let expected_releases = releases + failed_releases;
        pass.timed_s = sw.wall_s();
        pass.cpu_s = sw.cpu_s();
        pass.windows = pass.window_ms.len();
        pass.readings = totals.readings - missing.min(totals.readings);
        // Checks beyond readings and releases: no backlog, no full fallback.
        pass.attempted = totals.readings + expected_releases + 2;
        pass.failed = missing + failed_releases + u64::from(fallbacks > 0) + u64::from(backlog);
        fleet_counts(&mut pass, &totals);
        pass.counts.extend([
            ("campaign.releases", releases),
            ("campaign.failed", failed_releases),
            ("streaming.users_refreshed", refreshed),
            ("streaming.users_reused", reused),
            ("streaming.baseline_cells", cells),
            ("strategy.users_refreshed", s_refreshed),
            ("strategy.users_reused", s_reused),
            ("strategy.users_donated", s_donated),
            ("strategy.full_fallbacks", fallbacks),
            ("attack.user_extractions", extractions() as u64),
            (
                "attack.extractions",
                (default_attack.extractions() + custom_attack.extractions()) as u64,
            ),
            ("release.digest", digest.0),
        ]);
        if probe.on {
            let (first, last) = growth_bases(&window_extractions);
            fleet_layers(&mut pass, &totals, probe);
            pass.layers.extend([
                ("campaign.day_ms", probe.self_ms(Layer::Campaign)),
                ("attack.window_extractions_first", first),
                ("attack.window_extractions_last", last),
            ]);
        }
        pass
    }
}

// ---------------------------------------------------------------------------
// ingest_fleet

pub struct IngestFleet {
    pub users: usize,
    pub days: i64,
    pub sampling_interval_s: i64,
    /// Every n-th device crashes once on day 1.
    pub crash_every: usize,
}

impl Workload for IngestFleet {
    type State = Fleet;

    fn setup(&self, seed: u64, probe: &Rc<Probe>) -> Fleet {
        let population =
            CityModel::builder()
                .seed(seed)
                .build()
                .generate_population(&PopulationConfig {
                    users: self.users,
                    days: self.days as usize,
                    sampling_interval_s: self.sampling_interval_s,
                    ..PopulationConfig::default()
                });
        let spec = FleetSpec {
            seed,
            days: self.days,
            upload_every_s: 1_800,
            grace_s: 14_400,
            crash_every: self.crash_every,
            task_interval_s: self.sampling_interval_s,
        };
        Fleet::wire(&population, &spec, Rc::clone(probe))
    }

    fn run(&self, mut fleet: Fleet, probe: &Rc<Probe>) -> Pass {
        let mut pass = Pass::default();
        let mut sw = Stopwatch::default();
        let root = probe.open("pass", "\"workload\":\"ingest_fleet\"".into());
        sw.start();
        let readings = fleet.sense(root);
        sw.stop();
        let mut oracle = Oracle::new(&readings);
        let (mut missing, mut quarantined) = (0u64, 0u64);
        let mut digest = Digest::default();
        sw.start();
        for day in 0..self.days {
            let window_start = Instant::now();
            fleet.run_day(day, root);
            let close_start = Instant::now();
            let (window, ingest) = fleet.close_day(day, root);
            pass.publish_ms.push(ms_since(close_start));
            pass.window_ms.push(ms_since(window_start));
            sw.stop();
            missing += oracle.check(&window);
            quarantined += ingest.records_quarantined;
            digest.bytes(&apisense::collect::window_fingerprint(&window));
            sw.start();
        }
        let backlog = fleet.drain(root);
        sw.stop();
        probe.close(root);
        let totals = fleet.totals();
        missing += oracle.unclosed();
        pass.timed_s = sw.wall_s();
        pass.cpu_s = sw.cpu_s();
        pass.windows = pass.window_ms.len();
        pass.readings = totals.readings - missing.min(totals.readings);
        pass.attempted = totals.readings + 1;
        pass.failed = missing + u64::from(backlog);
        fleet_counts(&mut pass, &totals);
        pass.counts.extend([
            ("collect.quarantined", quarantined),
            ("release.digest", digest.0),
        ]);
        if probe.on {
            fleet_layers(&mut pass, &totals, probe);
        }
        pass
    }
}

/// SplitMix64 finalizer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The fleet's deterministic counters.
fn fleet_counts(pass: &mut Pass, t: &FleetTotals) {
    let mut latencies = Digest::default();
    for &l in &t.ack_latencies_ms {
        latencies.u64(l);
    }
    pass.ack_latencies_ms = t.ack_latencies_ms.clone();
    pass.uplink_bytes = t.uplink_bytes;
    pass.counts.extend([
        ("device.execs", t.execs),
        ("device.readings", t.readings),
        ("outbox.chunks_staged", t.chunks_staged),
        ("reliable.transmissions", t.transmissions),
        ("reliable.retries", t.retries),
        ("reliable.acked", t.acked),
        ("reliable.latency_digest", latencies.0),
        ("net.bytes_sent", t.net.bytes_sent),
        ("net.dropped_by_fault", t.net.dropped_by_fault),
        ("net.duplicated", t.net.duplicated),
        ("net.reordered", t.net.reordered),
        ("simnet.events", t.events),
        ("collect.frames", t.frames),
        ("collect.dup_absorbed", t.dup_absorbed),
        ("uplink.bytes", t.uplink_bytes),
    ]);
}

/// Per-layer times and ratios of the fleet layers (their counts are in
/// [`fleet_counts`]).
fn fleet_layers(pass: &mut Pass, t: &FleetTotals, probe: &Probe) {
    let device_ms = probe.self_ms(Layer::Device);
    let sim_ms = probe.self_ms(Layer::Simnet);
    pass.layers.extend([
        ("device.busy_ms", device_ms),
        (
            "device.us_per_exec",
            device_ms * 1e3 / t.execs.max(1) as f64,
        ),
        (
            "device.kept_ratio",
            t.readings as f64 / t.produced.max(1) as f64,
        ),
        ("outbox.busy_ms", probe.self_ms(Layer::Outbox)),
        ("reliable.busy_ms", probe.self_ms(Layer::Reliable)),
        (
            "reliable.useful_ratio",
            t.acked as f64 / t.transmissions.max(1) as f64,
        ),
        ("simnet.self_ms", sim_ms),
        (
            "simnet.events_per_s",
            t.events as f64 / (sim_ms / 1e3).max(1e-9),
        ),
        ("collect.ingest_ms", probe.self_ms(Layer::Ingest)),
        (
            "collect.useful_ratio",
            (t.frames - t.dup_absorbed) as f64 / t.frames.max(1) as f64,
        ),
        ("collect.close_ms", probe.self_ms(Layer::Close)),
    ]);
}

// ---------------------------------------------------------------------------
// federated_fleet

pub struct FederatedFleet {
    pub users: usize,
    pub days: i64,
    pub sampling_interval_s: i64,
    pub participation_pct: u64,
}

/// Base loss of the federated fleet's links (`LinkModel::mobile` has 1 %).
/// At 1 % about one chunk in a hundred needs a second retransmission, so
/// p99 delivery latency jumped between the one- and two-retry plateaus
/// with the seed (1295 to 1834 sim-ms); at 3 % it sits on the second.
const LINK_LOSS: f64 = 0.03;

pub struct FederatedState {
    full: FederatedFleetConfig,
    short: FederatedFleetConfig,
    readings: u64,
}

impl FederatedFleet {
    fn config(&self, seed: u64, days: i64) -> FederatedFleetConfig {
        FederatedFleetConfig {
            fleet: FleetConfig {
                seed,
                users: self.users,
                days,
                sampling_interval_s: self.sampling_interval_s,
                upload_every_s: 1_800,
                grace_s: 14_400,
                link: LinkModel::mobile().with_loss(LINK_LOSS),
                faults: FaultPlan::chaos(seed),
                reliable: ReliableConfig::default(),
            },
            participation_pct: self.participation_pct,
            spec: StrategySpec::SpeedSmoothing { epsilon_m: 100.0 },
            anonymization_seed: seed,
            cohort_size: self.users / 10,
            // Selection stays off: each change of the cohort's winner is a
            // version bump that re-uploads all history, and the winner
            // flips with the seed, so the work per run would swing 2-5x.
            select: false,
            // Devices 3, 5 and 7 miss config frames across the day-0
            // upgrade, so their next uploads go out stale.
            deaf: [3, 5, 7].iter().map(|&d| (d, 100_000, 176_000)).collect(),
            poisoned: Vec::new(),
            upgrade_at_close: Some((0, StrategySpec::GaussianPerturbation { sigma_m: 50.0 })),
        }
    }

    /// The fleet's readings: the population `run_federated_fleet` replays,
    /// generated here to check the count it reports.
    fn readings(&self, seed: u64) -> u64 {
        let population =
            CityModel::builder()
                .seed(seed)
                .build()
                .generate_population(&PopulationConfig {
                    users: self.users,
                    days: self.days as usize,
                    sampling_interval_s: self.sampling_interval_s,
                    ..PopulationConfig::default()
                });
        thin_participation(&population, self.participation_pct).record_count() as u64
    }

    /// Output checks on one federated run: central parity, stale ledgers
    /// agreeing across layers, and the upgrade taking effect.
    fn checks(outcome: &FederatedFleetOutcome) -> [bool; 3] {
        let stale: u64 = outcome.deltas.iter().map(|d| d.stale_records).sum();
        [
            outcome.parity(),
            outcome.session_totals.stale_records == stale,
            outcome.final_config.version >= 2,
        ]
    }
}

impl Workload for FederatedFleet {
    type State = FederatedState;

    fn setup(&self, seed: u64, _probe: &Rc<Probe>) -> FederatedState {
        FederatedState {
            full: self.config(seed, self.days),
            short: self.config(seed, (self.days + 2) / 3),
            readings: self.readings(seed),
        }
    }

    fn run(&self, state: FederatedState, probe: &Rc<Probe>) -> Pass {
        // Its actors are private, so the fleet is timed as one call. Window
        // growth compares the mean window wall of the full stream with that
        // of a stream one third as long, run first and not counted in the
        // timed phase.
        let short_start = Instant::now();
        let short = run_federated_fleet(&state.short);
        let short_ms = ms_since(short_start);
        let mut sw = Stopwatch::default();
        sw.start();
        let full = probe.span(
            Layer::Federated,
            "federated.fleet",
            None,
            || format!("\"days\":{},\"devices\":{}", self.days, self.users),
            || run_federated_fleet(&state.full),
        );
        sw.stop();
        let full_window_ms = sw.wall_s() * 1e3 / full.windows.len() as f64;

        let mut checks = Self::checks(&full).to_vec();
        checks.extend(Self::checks(&short));
        checks.push(full.generated_records == state.readings);
        let (mut digest, mut short_digest) = (Digest::default(), Digest::default());
        digest.dataset(&full.release);
        short_digest.dataset(&short.release);
        let reuploaded: u64 = full.deltas.iter().map(|d| d.reuploaded_records).sum();
        let mut pass = Pass {
            timed_s: sw.wall_s(),
            cpu_s: sw.cpu_s(),
            readings: full.generated_records,
            windows: full.windows.len(),
            publish_ms: vec![full_window_ms],
            growth_bases: (short_ms / short.windows.len() as f64, full_window_ms),
            uplink_bytes: full.protected_bytes_uplinked + full.raw_bytes_uplinked,
            attempted: full.generated_records + checks.len() as u64,
            failed: checks.iter().filter(|ok| !**ok).count() as u64,
            ..Pass::default()
        };
        pass.counts.extend([
            ("federated.protected_bytes", full.protected_bytes_uplinked),
            ("federated.raw_bytes", full.raw_bytes_uplinked),
            ("federated.config_frames", full.config_frames_broadcast),
            ("federated.stale_records", full.session_totals.stale_records),
            ("federated.reuploaded_records", reuploaded),
            ("federated.selections", full.selections.len() as u64),
            ("reliable.retries", full.stats.retries),
            ("net.bytes_sent", full.stats.bytes_sent),
            ("net.dropped_by_fault", full.stats.dropped_by_fault),
            ("net.duplicated", full.stats.duplicated),
            ("net.reordered", full.stats.reordered),
            ("release.digest", digest.0),
            ("release.digest_short", short_digest.0),
        ]);
        if probe.on {
            pass.layers
                .push(("federated.fleet_ms", probe.self_ms(Layer::Federated)));
        }
        pass
    }
}

/// Enqueue→ack latency samples of one federated run, read from the
/// program's own `reliable.delivered` events: the fleet's actors are
/// private, so the recorder is switched on for one untimed replay.
pub fn federated_ack_latencies(workload: &FederatedFleet, seed: u64) -> (Vec<u64>, u64) {
    let config = workload.config(seed, workload.days);
    obs::reset();
    obs::enable();
    let outcome = run_federated_fleet(&config);
    obs::disable();
    let (_, events, _) = obs::trace::snapshot();
    obs::reset();
    let mut latencies: Vec<u64> = events
        .iter()
        .filter(|e| e.name == "reliable.delivered")
        .filter_map(|e| {
            e.attrs.iter().find_map(|(k, v)| match (k, v) {
                (&"latency_ms", obs::AttrValue::U64(l)) => Some(*l),
                _ => None,
            })
        })
        .collect();
    latencies.sort_unstable();
    let mut digest = Digest::default();
    digest.dataset(&outcome.release);
    (latencies, digest.0)
}
