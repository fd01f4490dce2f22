//! E11 — streaming publication: batch re-publish vs incremental
//! day-window publish with cross-release shard and index reuse.
//!
//! This experiment is the measured counterpart of `privapi::streaming`:
//! the same dataset is released day by day twice —
//!
//! * **batch**: every day re-publishes the whole accumulated prefix from
//!   scratch through `PrivApi::publish` (the pre-streaming deployment
//!   model: one original-side extraction plus one self-attack per
//!   candidate, every day);
//! * **incremental**: a `StreamingPublisher` ingests each `DatasetWindow`,
//!   reusing yesterday's per-user shards and amended reference index, and
//!   only re-extracts users with new records.
//!
//! Winner parity is asserted per window before any number is reported, so
//! the speedup is never bought with drift. The `bench_summary` binary
//! drives [`run`] and emits the numbers as `BENCH_e11.json` next to
//! `BENCH_e10.json`.

use crate::Scale;
use mobility::WindowedDataset;
use privapi::prelude::*;
use std::fmt;
use std::time::Instant;

/// Workload shape for one E11 run.
#[derive(Debug, Clone)]
pub struct E11Config {
    /// Label recorded in the report (`smoke`, `small`, `medium`, `full`).
    pub label: String,
    /// Synthetic population size.
    pub users: usize,
    /// Days of data per user (= number of windows).
    pub days: usize,
    /// Sampling interval, seconds.
    pub interval_s: i64,
    /// Percentage of users reporting on any day after the first (the
    /// generator produces everyone-every-day data; real crowd-sensing
    /// participation is sparse, and sparse days are exactly where the
    /// session cache's shard reuse pays — 100 keeps the dense shape).
    pub participation_pct: u64,
    /// Whether the batch model re-publishes *every* prefix. `false` (the
    /// `Scale::Large` stress shape) batches only the first and last
    /// prefixes — re-publishing every prefix of a five-digit population
    /// would measure patience, not the deployment model — and winner
    /// parity is asserted on exactly those windows.
    pub batch_all_windows: bool,
}

impl E11Config {
    /// Tiny CI smoke shape: seconds end to end, still exercising the
    /// parity and budget invariants (and the shard-reuse path) on every
    /// window.
    pub fn smoke() -> Self {
        Self {
            label: "smoke".into(),
            users: 6,
            days: 3,
            interval_s: 300,
            participation_pct: 50,
            batch_all_windows: true,
        }
    }

    /// The canonical population for `scale`: a realistic 40 % daily
    /// participation for the dense regression scales, 5 % for the
    /// `Scale::Large` sparse-participation stress shape.
    pub fn from_scale(scale: Scale) -> Self {
        let (users, days, interval_s) = scale.population();
        Self {
            label: format!("{scale:?}").to_lowercase(),
            users,
            days,
            interval_s,
            participation_pct: crate::data::by_scale(scale, 40, 40, 40, 5),
            batch_all_windows: crate::data::by_scale(scale, true, true, true, false),
        }
    }
}

pub use mobility::gen::thin_participation;

/// Measured streaming-vs-batch numbers plus the invariants they were
/// taken under.
#[derive(Debug, Clone)]
pub struct E11Report {
    /// Workload label.
    pub label: String,
    /// Worker threads available.
    pub threads: usize,
    /// Population size.
    pub users: usize,
    /// Records in the (participation-thinned) dataset.
    pub records: usize,
    /// Daily participation percentage the workload was thinned to.
    pub participation_pct: u64,
    /// Day windows published.
    pub windows: usize,
    /// Total wall time of publishing every prefix from scratch, ms.
    pub batch_total_ms: f64,
    /// Total wall time of the incremental window publishes, ms.
    pub incremental_total_ms: f64,
    /// Wall time of the *last* batch prefix publish, ms (the steady-state
    /// daily cost of the batch deployment model).
    pub batch_last_window_ms: f64,
    /// Wall time of the first incremental window publish, ms (the dense
    /// bootstrap: every user is active on day 0 to pin the bounding box).
    pub incremental_first_window_ms: f64,
    /// Wall time of the first *steady-participation* incremental window
    /// (window 1 — the first window published at the thinned
    /// participation rate; equals the first window when only one exists).
    pub incremental_first_steady_ms: f64,
    /// Wall time of the last incremental window publish, ms.
    pub incremental_last_window_ms: f64,
    /// Full-dataset extractions the batch replay performed.
    pub batch_extractions: usize,
    /// Full-dataset extractions the incremental replay performed.
    pub incremental_extractions: usize,
    /// Single-user extraction passes the batch replay performed.
    pub batch_user_extractions: usize,
    /// Single-user extraction passes the incremental replay performed.
    pub incremental_user_extractions: usize,
    /// Candidates in the strategy pool.
    pub pool_size: usize,
    /// Sum over windows of users whose cached shard was reused untouched.
    pub shard_reuses: usize,
    /// Sum over windows of users re-extracted via the per-user delta path.
    pub shard_refreshes: usize,
    /// Windows that widened the bounding box and forced a grid rebuild.
    pub grid_rebuilds: usize,
    /// Sum over windows and candidates of users whose cached *protected*
    /// trajectories were reused instead of re-anonymized.
    pub strategy_users_reused: usize,
    /// Sum over windows and candidates of users re-anonymized via
    /// `anonymize_user`.
    pub strategy_users_refreshed: usize,
    /// Sum over windows and candidates of protected-side shards reused.
    pub strategy_shard_reuses: usize,
    /// Sum over windows and candidates of protected-side shards
    /// re-extracted via the per-user delta path.
    pub strategy_shard_refreshes: usize,
    /// Sum over windows of candidates whose protected bounding box moved
    /// (full per-user shard refresh for that candidate).
    pub strategy_grid_rebuilds: usize,
    /// Sum over windows of candidates that fell back to the full uncached
    /// path (non-local strategies; zero for the default pool).
    pub strategy_full_fallbacks: usize,
    /// Windows whose utility baseline was extended in place by folding
    /// only the new window's trajectories.
    pub baseline_reuses: usize,
    /// Windows where a stale utility-baseline fold was discarded and
    /// rebuilt over the whole prefix (a quantized-grid move; the
    /// session's first build is not counted as a rebuild).
    pub baseline_rebuilds: usize,
    /// Distinct baseline cells (crowded) or `(cell, hour)` day-histogram
    /// entries (traffic) touched across all window folds.
    pub baseline_cells_updated: usize,
    /// Mean records fed to the pool's strategies per window, over the
    /// first third of the steady windows (every window after the first).
    pub records_anonymized_first_third: f64,
    /// The same mean over the last third of the steady windows — with
    /// participation held fixed it must stay near the first third's: a
    /// window anonymizes its own records, not its users' histories.
    pub records_anonymized_last_third: f64,
}

impl E11Report {
    /// End-to-end speedup of the incremental path over batch re-publish.
    pub fn total_speedup(&self) -> f64 {
        self.batch_total_ms / self.incremental_total_ms.max(1e-9)
    }

    /// Wall ratio of the last incremental window over the first
    /// steady-participation one — the O(active-users) acceptance number:
    /// with participation held fixed, the per-window cost must track the
    /// day's *active* users, not the accumulated prefix (≤ 1.2× at
    /// `Scale::Large`; a per-prefix cost would grow toward the window
    /// count instead).
    pub fn last_first_ratio(&self) -> f64 {
        self.incremental_last_window_ms / self.incremental_first_steady_ms.max(1e-9)
    }

    /// Renders the report as a JSON object (hand-rolled: the workspace has
    /// no JSON serializer dependency).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"experiment\": \"e11_streaming_publication\",\n{}  \"scale\": \"{}\",\n  \
             \"threads\": {},\n  \"users\": {},\n  \"records\": {},\n  \
             \"participation_pct\": {},\n  \"windows\": {},\n  \
             \"batch_total_ms\": {:.3},\n  \"incremental_total_ms\": {:.3},\n  \
             \"total_speedup\": {:.3},\n  \"batch_last_window_ms\": {:.3},\n  \
             \"incremental_first_window_ms\": {:.3},\n  \
             \"incremental_first_steady_ms\": {:.3},\n  \
             \"incremental_last_window_ms\": {:.3},\n  \
             \"last_first_ratio\": {:.3},\n  \"batch_extractions\": {},\n  \
             \"incremental_extractions\": {},\n  \"batch_user_extractions\": {},\n  \
             \"incremental_user_extractions\": {},\n  \"pool_size\": {},\n  \
             \"shard_reuses\": {},\n  \"shard_refreshes\": {},\n  \"grid_rebuilds\": {},\n  \
             \"strategy_users_reused\": {},\n  \"strategy_users_refreshed\": {},\n  \
             \"strategy_shard_reuses\": {},\n  \"strategy_shard_refreshes\": {},\n  \
             \"strategy_grid_rebuilds\": {},\n  \"strategy_full_fallbacks\": {},\n  \
             \"baseline_reuses\": {},\n  \"baseline_rebuilds\": {},\n  \
             \"baseline_cells_updated\": {},\n  \
             \"records_anonymized_first_third\": {:.1},\n  \
             \"records_anonymized_last_third\": {:.1}\n}}\n",
            crate::host_json(),
            self.label,
            self.threads,
            self.users,
            self.records,
            self.participation_pct,
            self.windows,
            self.batch_total_ms,
            self.incremental_total_ms,
            self.total_speedup(),
            self.batch_last_window_ms,
            self.incremental_first_window_ms,
            self.incremental_first_steady_ms,
            self.incremental_last_window_ms,
            self.last_first_ratio(),
            self.batch_extractions,
            self.incremental_extractions,
            self.batch_user_extractions,
            self.incremental_user_extractions,
            self.pool_size,
            self.shard_reuses,
            self.shard_refreshes,
            self.grid_rebuilds,
            self.strategy_users_reused,
            self.strategy_users_refreshed,
            self.strategy_shard_reuses,
            self.strategy_shard_refreshes,
            self.strategy_grid_rebuilds,
            self.strategy_full_fallbacks,
            self.baseline_reuses,
            self.baseline_rebuilds,
            self.baseline_cells_updated,
            self.records_anonymized_first_third,
            self.records_anonymized_last_third,
        )
    }
}

impl fmt::Display for E11Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E11 streaming publication ({}, {} users, {} records, {} % participation, \
             {} windows, {} threads)",
            self.label,
            self.users,
            self.records,
            self.participation_pct,
            self.windows,
            self.threads
        )?;
        let widths = [26, 14, 14, 9];
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "path".into(),
                    "batch ms".into(),
                    "incremental ms".into(),
                    "speedup".into()
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "all windows".into(),
                    format!("{:.3}", self.batch_total_ms),
                    format!("{:.3}", self.incremental_total_ms),
                    format!("{:.2}x", self.total_speedup()),
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "{}",
            crate::row(
                &[
                    "last window".into(),
                    format!("{:.3}", self.batch_last_window_ms),
                    format!("{:.3}", self.incremental_last_window_ms),
                    format!(
                        "{:.2}x",
                        self.batch_last_window_ms / self.incremental_last_window_ms.max(1e-9)
                    ),
                ],
                &widths
            )
        )?;
        writeln!(
            f,
            "incremental windows: first {:.3} ms (dense bootstrap), first-steady {:.3} ms, \
             last {:.3} ms — last/first-steady ratio {:.2}x",
            self.incremental_first_window_ms,
            self.incremental_first_steady_ms,
            self.incremental_last_window_ms,
            self.last_first_ratio()
        )?;
        writeln!(
            f,
            "extractions: {} batch vs {} incremental full passes, {} vs {} per-user \
             (pool {}); original shards: {} reused, {} refreshed, {} grid rebuilds",
            self.batch_extractions,
            self.incremental_extractions,
            self.batch_user_extractions,
            self.incremental_user_extractions,
            self.pool_size,
            self.shard_reuses,
            self.shard_refreshes,
            self.grid_rebuilds
        )?;
        writeln!(
            f,
            "protected side: {} anonymizations reused / {} refreshed, {} shards reused / \
             {} refreshed, {} protected-grid rebuilds, {} full fallbacks",
            self.strategy_users_reused,
            self.strategy_users_refreshed,
            self.strategy_shard_reuses,
            self.strategy_shard_refreshes,
            self.strategy_grid_rebuilds,
            self.strategy_full_fallbacks
        )?;
        writeln!(
            f,
            "baselines: {} folded in place ({} cells touched), {} full rebuilds",
            self.baseline_reuses, self.baseline_cells_updated, self.baseline_rebuilds
        )?;
        write!(
            f,
            "records anonymized per steady window: first third {:.1}, last third {:.1}",
            self.records_anonymized_first_third, self.records_anonymized_last_third
        )
    }
}

/// Runs E11: replays the dataset's day windows through both deployment
/// models and asserts winner parity plus the streaming extraction budget
/// on every window before reporting any timing.
pub fn run(config: &E11Config) -> E11Report {
    let data = crate::data::dataset(config.users, config.days, config.interval_s, 0xE11);
    let dataset = thin_participation(&data.dataset, config.participation_pct);
    let windows = WindowedDataset::partition(&dataset);
    assert!(
        !windows.is_empty(),
        "generated data must span at least a day"
    );

    // Batch model: every day re-publishes the whole prefix from scratch.
    // When `batch_all_windows` is off only the first and last prefixes are
    // replayed (and parity is asserted on exactly those two windows).
    let batch_api = PrivApi::default();
    let mut batch_total_ms = 0.0;
    let mut batch_last_window_ms = 0.0;
    let mut batch_releases: Vec<Option<_>> = Vec::with_capacity(windows.len());
    for i in 0..windows.len() {
        if !config.batch_all_windows && i != 0 && i != windows.len() - 1 {
            batch_releases.push(None);
            continue;
        }
        let prefix = windows.prefix(i);
        let start = Instant::now();
        let release = batch_api.publish(&prefix).expect("batch publish succeeds");
        batch_last_window_ms = start.elapsed().as_secs_f64() * 1e3;
        batch_total_ms += batch_last_window_ms;
        batch_releases.push(Some(release));
    }
    let batch_extractions = batch_api.attack().extractions();
    let batch_user_extractions = batch_api.attack().user_extractions();

    // Incremental model: one streaming session ingesting window deltas.
    let mut publisher = StreamingPublisher::new(*batch_api.config());
    let pool_size = publisher.privapi().pool().len();
    let probe = publisher.privapi().attack().clone();
    let mut incremental_total_ms = 0.0;
    let mut incremental_first_window_ms = 0.0;
    let mut incremental_first_steady_ms = 0.0;
    let mut incremental_last_window_ms = 0.0;
    let mut shard_reuses = 0;
    let mut shard_refreshes = 0;
    let mut grid_rebuilds = 0;
    let mut baseline_reuses = 0;
    let mut baseline_rebuilds = 0;
    let mut baseline_cells_updated = 0;
    let mut strategy_totals = privapi::streaming::StrategyCacheDelta::default();
    let mut records_anonymized: Vec<f64> = Vec::with_capacity(windows.len());
    for (i, window) in windows.iter().enumerate() {
        let before = probe.extractions();
        let start = Instant::now();
        let release = publisher
            .publish_window(window)
            .expect("incremental publish succeeds");
        incremental_last_window_ms = start.elapsed().as_secs_f64() * 1e3;
        incremental_total_ms += incremental_last_window_ms;
        if i == 0 {
            incremental_first_window_ms = incremental_last_window_ms;
        }
        if i == 1 || (i == 0 && windows.len() == 1) {
            incremental_first_steady_ms = incremental_last_window_ms;
        }
        let spent = probe.extractions() - before;
        assert!(
            spent < pool_size + 1,
            "window {i}: {spent} extractions breaks the streaming budget"
        );
        assert_eq!(
            spent, release.strategies.full_fallbacks,
            "window {i}: only non-local candidates may pay a full pass"
        );
        if let Some(batch) = &batch_releases[i] {
            assert_eq!(
                release.published.selection, batch.selection,
                "window {i}: streaming winners drifted from batch"
            );
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
        }
        shard_reuses += release.delta.users_reused;
        shard_refreshes += release.delta.users_refreshed;
        grid_rebuilds += usize::from(release.delta.grid_rebuilt);
        baseline_reuses += usize::from(release.baseline.reused);
        baseline_rebuilds += usize::from(release.baseline.rebuilt);
        baseline_cells_updated += release.baseline.cells_updated;
        strategy_totals.users_reused += release.strategies.users_reused;
        strategy_totals.users_refreshed += release.strategies.users_refreshed;
        strategy_totals.shards_reused += release.strategies.shards_reused;
        strategy_totals.shards_refreshed += release.strategies.shards_refreshed;
        strategy_totals.protected_grid_rebuilds += release.strategies.protected_grid_rebuilds;
        strategy_totals.full_fallbacks += release.strategies.full_fallbacks;
        if i > 0 {
            records_anonymized.push(release.strategies.records_anonymized as f64);
        }
    }
    let third = (records_anonymized.len() / 3)
        .max(1)
        .min(records_anonymized.len());
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let records_anonymized_first_third = mean(&records_anonymized[..third]);
    let records_anonymized_last_third =
        mean(&records_anonymized[records_anonymized.len() - third..]);
    let incremental_extractions = probe.extractions();
    let incremental_user_extractions = probe.user_extractions();

    E11Report {
        label: config.label.clone(),
        threads: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
        users: config.users,
        records: dataset.record_count(),
        participation_pct: config.participation_pct,
        windows: windows.len(),
        batch_total_ms,
        incremental_total_ms,
        batch_last_window_ms,
        incremental_first_window_ms,
        incremental_first_steady_ms,
        incremental_last_window_ms,
        batch_extractions,
        incremental_extractions,
        batch_user_extractions,
        incremental_user_extractions,
        pool_size,
        shard_reuses,
        shard_refreshes,
        grid_rebuilds,
        strategy_users_reused: strategy_totals.users_reused,
        strategy_users_refreshed: strategy_totals.users_refreshed,
        strategy_shard_reuses: strategy_totals.shards_reused,
        strategy_shard_refreshes: strategy_totals.shards_refreshed,
        strategy_grid_rebuilds: strategy_totals.protected_grid_rebuilds,
        strategy_full_fallbacks: strategy_totals.full_fallbacks,
        baseline_reuses,
        baseline_rebuilds,
        baseline_cells_updated,
        records_anonymized_first_third,
        records_anonymized_last_third,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_upholds_invariants_and_renders() {
        let report = run(&E11Config::smoke());
        assert_eq!(report.windows, 3);
        // Batch pays pool + 1 full passes per window; incremental pays
        // none at all — both caches (original-side session, per-strategy
        // protected side) route everything through the per-user delta
        // paths, and the default pool has no non-local candidate.
        assert_eq!(
            report.batch_extractions,
            report.windows * (report.pool_size + 1)
        );
        assert_eq!(report.incremental_extractions, 0);
        assert_eq!(report.strategy_full_fallbacks, 0);
        // Sparse participation means inactive users: both the protected
        // anonymizations and the per-user extraction totals must come in
        // under batch.
        assert!(report.strategy_users_reused > 0, "{report:?}");
        assert!(
            report.incremental_user_extractions < report.batch_user_extractions,
            "per-user work {} must undercut batch {}",
            report.incremental_user_extractions,
            report.batch_user_extractions
        );
        assert_eq!(
            report.strategy_users_reused + report.strategy_users_refreshed,
            report.windows * report.pool_size * report.users
        );
        // The utility baseline is built once (not counted as a rebuild)
        // and folded in place on every later window, touching real cells;
        // the quantized anchors keep the grid still, so no fold is ever
        // discarded.
        assert_eq!(report.baseline_rebuilds, 0, "{report:?}");
        assert_eq!(report.baseline_reuses, report.windows - 1, "{report:?}");
        assert!(report.baseline_cells_updated > 0, "{report:?}");
        assert!(report.batch_total_ms > 0.0);
        assert!(report.incremental_total_ms > 0.0);
        assert!(report.incremental_first_window_ms > 0.0);
        assert!(report.incremental_first_steady_ms > 0.0);
        assert!(report.last_first_ratio() > 0.0);
        let json = report.to_json();
        for key in [
            "\"experiment\": \"e11_streaming_publication\"",
            "\"batch_total_ms\"",
            "\"incremental_total_ms\"",
            "\"shard_reuses\"",
            "\"grid_rebuilds\"",
            "\"batch_user_extractions\"",
            "\"incremental_user_extractions\"",
            "\"strategy_users_reused\"",
            "\"strategy_shard_reuses\"",
            "\"strategy_full_fallbacks\"",
            "\"incremental_first_window_ms\"",
            "\"incremental_first_steady_ms\"",
            "\"last_first_ratio\"",
            "\"baseline_reuses\"",
            "\"baseline_rebuilds\"",
            "\"baseline_cells_updated\"",
            "\"records_anonymized_first_third\"",
            "\"records_anonymized_last_third\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let text = report.to_string();
        assert!(text.contains("all windows"));
        assert!(text.contains("extractions:"));
        assert!(text.contains("protected side:"));
        assert!(text.contains("baselines:"));
        assert!(text.contains("last/first-steady ratio"));
        assert!(text.contains("records anonymized per steady window"));
        assert!(report.records_anonymized_first_third > 0.0, "{report:?}");
    }

    #[test]
    fn sparse_batch_mode_skips_interior_prefixes_but_keeps_parity() {
        let mut config = E11Config::smoke();
        config.batch_all_windows = false;
        let report = run(&config);
        // Only the first and last prefixes are batch-replayed.
        assert_eq!(report.batch_extractions, 2 * (report.pool_size + 1));
        assert_eq!(report.incremental_extractions, 0);
        assert_eq!(report.baseline_rebuilds, 0);
        assert_eq!(report.baseline_reuses, report.windows - 1);
    }

    #[test]
    fn config_constructors_cover_scales() {
        assert_eq!(E11Config::smoke().users, 6);
        let medium = E11Config::from_scale(Scale::Medium);
        assert_eq!(medium.label, "medium");
        assert_eq!(medium.users, 80);
        assert_eq!(medium.days, 10);
        assert_eq!(medium.participation_pct, 40);
        assert!(medium.batch_all_windows);
        let large = E11Config::from_scale(Scale::Large);
        assert_eq!(large.label, "large");
        assert_eq!(large.users, 10_000);
        assert_eq!(large.participation_pct, 5);
        assert!(!large.batch_all_windows);
    }
}
