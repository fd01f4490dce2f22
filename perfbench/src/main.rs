//! End-to-end crowd-sensing benchmark: scripted devices to campaign
//! release, measured end to end and attributed layer by layer.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign_spine|ingest_fleet|federated_fleet> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process (so `peak_rss_mb`
//! is that workload's), repeating set-up + pass until `--seconds` have
//! elapsed, and prints the metrics by name with their units. The last
//! stdout line is one JSON object: `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer metrics of a traced pass, its
//! coverage of the pass's wall time and its overhead against untraced
//! passes of the same run. Every output check and every deterministic
//! counter is verified; any mismatch exits with code 1.

mod fleet;
mod pass;
mod probe;
mod workloads;

use pass::{growth_bases, median, percentile, Pass};
use probe::{peak_rss_mb, Probe};
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;
use workloads::{CampaignSpine, FederatedFleet, IngestFleet, Workload};

const WORKLOADS: [&str; 3] = ["campaign_spine", "ingest_fleet", "federated_fleet"];

/// Per-layer metrics, in output order, with their units. A layer a
/// workload does not exercise reports 0.
const LAYERS: [(&str, &str); 45] = [
    ("device.execs", "count"),
    ("device.busy_ms", "ms"),
    ("device.us_per_exec", "us"),
    ("device.kept_ratio", "ratio"),
    ("outbox.busy_ms", "ms"),
    ("outbox.chunks_staged", "count"),
    ("reliable.busy_ms", "ms"),
    ("reliable.transmissions", "count"),
    ("reliable.retries", "count"),
    ("reliable.useful_ratio", "ratio"),
    ("simnet.events", "count"),
    ("simnet.self_ms", "ms"),
    ("simnet.events_per_s", "1/s"),
    ("net.bytes_sent", "B"),
    ("net.dropped_by_fault", "count"),
    ("net.duplicated", "count"),
    ("net.reordered", "count"),
    ("collect.frames", "count"),
    ("collect.ingest_ms", "ms"),
    ("collect.useful_ratio", "ratio"),
    ("collect.dup_absorbed", "count"),
    ("collect.close_ms", "ms"),
    ("collect.quarantined", "count"),
    ("campaign.day_ms", "ms"),
    ("campaign.releases", "count"),
    ("campaign.failed", "count"),
    ("streaming.users_refreshed", "count"),
    ("streaming.users_reused", "count"),
    ("streaming.baseline_cells", "count"),
    ("strategy.users_refreshed", "count"),
    ("strategy.users_reused", "count"),
    ("strategy.users_donated", "count"),
    ("strategy.full_fallbacks", "count"),
    ("attack.user_extractions", "count"),
    ("attack.extractions", "count"),
    ("attack.window_extractions_first", "count"),
    ("attack.window_extractions_last", "count"),
    ("federated.fleet_ms", "ms"),
    ("federated.protected_bytes", "B"),
    ("federated.config_frames", "count"),
    ("federated.stale_records", "count"),
    ("federated.reuploaded_records", "count"),
    ("federated.selections", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Set-up is repeated at least this often per run; `setup_s` is the median.
const MIN_SETUPS: usize = 5;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| "bad --seconds")?;
                seconds = Some(s.max(1) as f64);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The outcome of one invocation, before printing.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

/// Sets up and runs one pass, returning the set-up time with it.
fn timed_pass<W: Workload>(w: &W, seed: u64, traced: bool) -> (f64, Pass, Rc<Probe>) {
    let probe = Rc::new(Probe::new(traced));
    let start = Instant::now();
    let state = w.setup(seed, &probe);
    let setup_s = start.elapsed().as_secs_f64();
    let pass = w.run(state, &probe);
    (setup_s, pass, probe)
}

/// Compares every pass's deterministic counters with the first pass's.
fn determinism_failures(passes: &[&Pass], notes: &mut Vec<String>) -> u64 {
    let first = &passes[0].counts;
    let mut failed = 0;
    for (i, p) in passes.iter().enumerate().skip(1) {
        if &p.counts != first {
            failed += 1;
            for (a, b) in first.iter().zip(&p.counts) {
                if a != b {
                    notes.push(format!(
                        "determinism: pass {i} {} = {} vs {}",
                        a.0, b.1, a.1
                    ));
                }
            }
        }
    }
    failed
}

/// End-to-end metrics over untraced passes.
fn end_to_end<W: Workload>(
    w: &W,
    args: &Args,
    replay: Option<&dyn Fn() -> (Vec<u64>, u64)>,
) -> Report {
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
        let (setup_s, pass, _) = timed_pass(w, args.seed, false);
        setups.push(setup_s);
        passes.push(pass);
    }
    while setups.len() < MIN_SETUPS {
        let probe = Rc::new(Probe::new(false));
        let t = Instant::now();
        drop(w.setup(args.seed, &probe));
        setups.push(t.elapsed().as_secs_f64());
    }
    let rss = peak_rss_mb();
    let mut notes = Vec::new();
    let refs: Vec<&Pass> = passes.iter().collect();
    let mut failed = determinism_failures(&refs, &mut notes);
    let mut attempted = passes.iter().map(|p| p.attempted).sum::<u64>() + passes.len() as u64;
    failed += passes.iter().map(|p| p.failed).sum::<u64>();

    let first = &passes[0];
    let acks = match replay.map(|f| f()) {
        // The federated fleet's samples come from a recorder-on replay
        // after the timed passes, whose release must equal theirs
        // (recorder on ≡ off).
        Some((acks, digest)) => {
            attempted += 1;
            let timed = first.counts.iter().find(|(n, _)| *n == "release.digest");
            if timed.map(|c| c.1) != Some(digest) {
                failed += 1;
                notes.push("recorder-on replay released different bytes".into());
            }
            acks
        }
        None => first.ack_latencies_ms.clone(),
    };
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let publish: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.publish_ms.iter().copied())
        .collect();
    // Each window's wall is its median over passes, so host noise in one
    // pass does not move the thirds' medians.
    let (first_ms, last_ms) = if first.window_ms.is_empty() {
        (
            per_pass(&|p| p.growth_bases.0),
            per_pass(&|p| p.growth_bases.1),
        )
    } else {
        let per_window: Vec<f64> = (0..first.window_ms.len())
            .map(|d| median(&passes.iter().map(|p| p.window_ms[d]).collect::<Vec<_>>()))
            .collect();
        growth_bases(&per_window)
    };
    notes.push(format!(
        "passes {} | readings {} per pass | windows {} per pass, {} publish samples | \
         window growth bases: first steady third {first_ms:.3} ms, last third {last_ms:.3} ms | \
         ack samples {}",
        passes.len(),
        first.readings,
        first.windows,
        publish.len(),
        acks.len(),
    ));
    let metrics = vec![
        ("setup_s", median(&setups), "s"),
        (
            "records_per_s",
            per_pass(&|p| p.readings as f64 / p.timed_s),
            "rec/s",
        ),
        ("publish_p50_ms", median(&publish), "ms"),
        ("window_growth", last_ms / first_ms, "ratio"),
        ("delivery_p50_sim_ms", percentile(&acks, 0.50), "sim-ms"),
        ("delivery_p99_sim_ms", percentile(&acks, 0.99), "sim-ms"),
        (
            "uplink_bytes_per_record",
            first.uplink_bytes as f64 / first.readings as f64,
            "B",
        ),
        (
            "cpu_us_per_record",
            per_pass(&|p| p.cpu_s * 1e6 / p.readings as f64),
            "us",
        ),
        ("peak_rss_mb", rss, "MB"),
    ];
    Report {
        metrics,
        attempted,
        failed,
        notes,
    }
}

/// Per-layer metrics: untraced passes for half the run, then traced
/// passes; overhead compares the two, coverage is the share of a traced
/// pass's wall its layers' self times explain.
fn per_layer<W: Workload>(w: &W, args: &Args) -> Report {
    let start = Instant::now();
    let mut plain = Vec::new();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds / 2.0 {
        plain.push(timed_pass(w, args.seed, false).1);
    }
    let mut traced = Vec::new();
    while traced.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (_, pass, probe) = timed_pass(w, args.seed, true);
        traced.push((pass, probe));
    }
    let mut notes = Vec::new();
    let refs: Vec<&Pass> = plain.iter().chain(traced.iter().map(|(p, _)| p)).collect();
    let mut failed = determinism_failures(&refs, &mut notes);
    failed += refs.iter().map(|p| p.failed).sum::<u64>();
    let attempted = refs.iter().map(|p| p.attempted).sum::<u64>() + refs.len() as u64;

    let overhead = median(&traced.iter().map(|(p, _)| p.timed_s).collect::<Vec<_>>())
        / median(&plain.iter().map(|p| p.timed_s).collect::<Vec<_>>())
        - 1.0;
    let coverage: Vec<f64> = traced
        .iter()
        .map(|(p, probe)| {
            let self_ms = probe.program_ms();
            100.0 * self_ms / (p.timed_s * 1e3)
        })
        .collect();
    let metrics = LAYERS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace.coverage_pct" => median(&coverage),
                "trace.overhead_pct" => 100.0 * overhead,
                _ => median(
                    &traced
                        .iter()
                        .map(|(p, _)| p.layer(name))
                        .collect::<Vec<_>>(),
                ),
            };
            (name, value, unit)
        })
        .collect();
    write_trace(args, &traced[0].1, &mut notes);
    notes.push(format!(
        "passes {} untraced, {} traced",
        plain.len(),
        traced.len()
    ));
    Report {
        metrics,
        attempted,
        failed,
        notes,
    }
}

/// Writes the traced pass's spans as JSON lines next to the benchmark.
fn write_trace(args: &Args, probe: &Probe, notes: &mut Vec<String>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
    let mut text = String::new();
    for (i, s) in probe.take_spans().iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if s.attrs.is_empty() { "" } else { "," };
        text.push_str(&format!(
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}{sep}{}}}\n",
            s.name, s.start_ns, s.end_ns, s.attrs
        ));
    }
    match std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, text)) {
        Ok(()) => notes.push(format!("trace written to {}", path.display())),
        Err(e) => notes.push(format!("trace not written: {e}")),
    }
}

fn host_block() -> String {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "host: cores {cores}, arch {}, os {}, profile {profile}",
        std::env::consts::ARCH,
        std::env::consts::OS
    )
}

fn run(args: &Args) -> Report {
    let spine = CampaignSpine {
        users: 60,
        days: 28,
        participation_pct: 60,
        task_interval_s: 480,
    };
    let ingest = IngestFleet {
        users: 1_000,
        days: 7,
        sampling_interval_s: 1_200,
        crash_every: 20,
    };
    let federated = FederatedFleet {
        users: 300,
        days: 6,
        sampling_interval_s: 900,
        participation_pct: 70,
    };
    match (args.workload.as_str(), args.trace) {
        ("campaign_spine", false) => end_to_end(&spine, args, None),
        ("campaign_spine", true) => per_layer(&spine, args),
        ("ingest_fleet", false) => end_to_end(&ingest, args, None),
        ("ingest_fleet", true) => per_layer(&ingest, args),
        ("federated_fleet", false) => {
            let replay = || workloads::federated_ack_latencies(&federated, args.seed);
            end_to_end(&federated, args, Some(&replay))
        }
        ("federated_fleet", true) => per_layer(&federated, args),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu_start = probe::cpu_seconds();
    let report = run(&args);
    println!(
        "{} | workload {} seed {}",
        host_block(),
        args.workload,
        args.seed
    );
    for note in &report.notes {
        println!("{note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    let failed_pct = 100.0 * report.failed as f64 / report.attempted as f64;
    println!("{:<32} {failed_pct:>16.4} %", "failed_pct");
    println!(
        "{:<32} {:>16.2} s",
        "process_cpu_s",
        probe::cpu_seconds() - cpu_start
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
