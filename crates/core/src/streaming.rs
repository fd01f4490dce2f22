//! Streaming publication: day windows with cross-release shard and index
//! reuse.
//!
//! The batch path ([`crate::pipeline::PrivApi::publish`]) treats every
//! release as a from-scratch job: it re-extracts every user's POI exposure
//! and rebuilds the reference index even when yesterday's release already
//! computed almost all of it. A continuously running deployment publishes
//! *day windows* instead, and almost everything about the original-side
//! attack state carries over from one window to the next:
//!
//! * the per-user [`UserAttackShard`]s — a user without new records today
//!   has exactly yesterday's shard;
//! * the [`ReferenceIndex`] — unchanged users keep their per-user
//!   [`geo::PointIndex`]; changed users are amended in place
//!   ([`ReferenceIndex::update_user`]).
//!
//! [`SessionCache`] owns that cross-window state and
//! [`SessionCache::advance`] folds one [`DatasetWindow`] into it, tracking
//! what was reused vs. re-extracted in a [`WindowDelta`].
//! [`StreamingPublisher`] pairs a cache with a
//! [`crate::pipeline::PrivApi`] and publishes window after window through
//! [`crate::pipeline::PrivApi::publish_window`].
//!
//! # Invalidation rules
//!
//! A cached shard for user `u` is valid for the grown prefix iff
//!
//! 1. `u` has **no records in the new window** (their merged record
//!    history, and hence their dwell field, is unchanged), **and**
//! 2. the **extraction grid is unchanged** — the dwell grid is anchored on
//!    the prefix's bounding box, so a window that widens the bounding box
//!    shifts every user's cell boundaries and invalidates *all* shards.
//!
//! Either way no *full-dataset* extraction pass runs on the original side.
//! A changed user's shard on an unmoved grid is folded forward with just
//! the window's trajectories ([`PoiAttack::fold_user`]); a grid rebuild, a
//! new user or a window the fold refuses goes through the per-user
//! [`PoiAttack::extract_user`] path over the user's history (fanned out
//! over the cores).
//!
//! # The protected side: per-strategy caches
//!
//! The original-side cache alone still leaves the dominant per-window
//! cost untouched: every candidate strategy re-anonymizes the whole
//! prefix and re-extracts every user's protected POIs on every window.
//! [`StrategySessionCache`] extends the same per-user reuse to each
//! candidate's *protected* data, keyed on the determinism contract the
//! strategy declares through
//! [`crate::strategy::AnonymizationStrategy::locality`]:
//!
//! * a [`UserLocality::UserLocal`] candidate anonymizes only the window's
//!   new trajectories and appends their output (the per-trajectory
//!   contract keeps every earlier output valid); while the candidate's
//!   protected bounding box holds still, the changed users' protected-side
//!   [`UserAttackShard`]s fold that output and everyone else's carry over;
//! * a [`UserLocality::GridAnchored`] candidate additionally re-anonymizes
//!   the whole prefix when the prefix's quantized anchor moves (its
//!   tessellation moved);
//! * a [`UserLocality::NonLocal`] candidate is never cached and re-runs
//!   the full anonymize + self-attack, exactly as batch publish would.
//!
//! Together the two layers make the [`PoiAttack::extractions`] probe read
//! **zero** full passes per window for a fully-local pool (batch pays
//! `pool + 1` per release), keep [`PoiAttack::user_extractions`]
//! proportional to the users a window actually changed, and keep the
//! records a steady window anonymizes and extracts
//! ([`CandidateDelta::records_anonymized`],
//! [`CandidateDelta::records_extracted`],
//! [`WindowDelta::records_extracted`]) proportional to the window itself.
//!
//! # The winners-parity invariant
//!
//! Publishing window `i` incrementally selects **byte-identical** winners
//! (same [`crate::selection::SelectionReport`], same released dataset) as
//! a batch [`crate::pipeline::PrivApi::publish`] over the concatenated
//! prefix [`mobility::WindowedDataset::prefix`]`(i)`. The cache never
//! approximates: a folded shard equals one extracted from the *full*
//! accumulated prefix (cross-midnight dwell included), and amended
//! per-user indexes are structurally identical to freshly built ones.
//! Property tests across generator seeds enforce this.

use crate::attack::{
    PoiAttack, PoiAttackConfig, ReferenceIndex, ReferencePois, UserAttackShard,
};
use crate::engine::{EvalContext, ObjectiveBaseline};
use crate::error::PrivapiError;
use crate::metrics::{CrowdedBaseline, TrafficBaseline};
use crate::pipeline::{PrivApi, PrivApiConfig, PublishedDataset};
use crate::pool::StrategyPool;
use crate::selection::Objective;
use crate::strategy::{AnonymizationStrategy, StrategyInfo, UserLocality};
use geo::{BoundingBox, CellId, Meters, UniformGrid};
use mobility::{
    Dataset, DatasetWindow, LocationRecord, Timestamp, Trajectory, UserId, WindowedDataset,
};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Reserved synthetic user id used to pin a per-user mini-dataset's
/// bounding box to the full prefix box (see `pinned_view`); never a real
/// participant — a dataset that does contain it falls back to full-prefix
/// per-user anonymization rather than risking a pin collision.
const BBOX_PIN_USER: UserId = UserId(u64::MAX);

/// What [`SessionCache::advance`] did with one day window — the audit
/// record of the incremental path's cache behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowDelta {
    /// Day index of the ingested window.
    pub day: i64,
    /// Users whose shard was brought up to the grown prefix — folded
    /// forward, or re-extracted (new records, or a grid rebuild touched
    /// everyone).
    pub users_refreshed: usize,
    /// Users whose cached shard (and per-user index) was reused untouched.
    pub users_reused: usize,
    /// Refreshed users whose per-user [`geo::PointIndex`] was extended in
    /// place (new POIs appended) instead of rebuilt.
    pub indexes_extended: usize,
    /// Whether the window widened the prefix bounding box, forcing a new
    /// extraction grid and a full per-user refresh.
    pub grid_rebuilt: bool,
    /// Users whose shard was **derived** from a donor cache's extraction
    /// ([`PopulationCache::advance_derived`]) instead of re-extracted —
    /// the multi-campaign orchestrator's shared-extraction savings.
    /// Always zero on the single-session [`PopulationCache::advance`]
    /// path.
    pub users_derived: usize,
    /// Lattice pitch of the padded extraction-grid anchor, in millidegrees
    /// ([`geo::GRID_ANCHOR_QUANTUM_DEG`]): the documented tolerance within
    /// which bounding-box growth does **not** move the grid. Recorded in
    /// every delta so downstream audit rows carry the padding factor the
    /// `grid_rebuilt` flag was judged under.
    pub grid_quantum_millideg: u32,
    /// Records the original-side extraction read: each refreshed user's new
    /// records when their shard was folded forward
    /// ([`PoiAttack::fold_user`]), their whole history when it was
    /// re-extracted. A steady window reads about its own record count.
    pub records_extracted: usize,
}

/// [`WindowDelta::grid_quantum_millideg`], derived from the geo constant.
fn grid_quantum_millideg() -> u32 {
    (geo::GRID_ANCHOR_QUANTUM_DEG * 1000.0).round() as u32
}

/// Feed a window delta into the `streaming.*` obs instruments. The delta
/// type is unchanged — observability rides alongside the audit structs,
/// and is a no-op while recording is off.
fn record_window_delta(delta: &WindowDelta) {
    if !obs::enabled() {
        return;
    }
    obs::count("streaming.users_refreshed", delta.users_refreshed as u64);
    obs::count("streaming.users_reused", delta.users_reused as u64);
    obs::count("streaming.users_derived", delta.users_derived as u64);
    obs::count("streaming.indexes_extended", delta.indexes_extended as u64);
    obs::count("streaming.grid_rebuilds", delta.grid_rebuilt as u64);
    obs::observe(
        "streaming.records_extracted",
        obs::Buckets::Records,
        delta.records_extracted as u64,
    );
    obs::count("streaming.windows_ingested", 1);
}

/// Feed a baseline-fold delta into the `streaming.baseline_*` obs
/// instruments (no-op while recording is off).
fn record_baseline_delta(delta: &BaselineDelta) {
    if !obs::enabled() {
        return;
    }
    obs::count("streaming.baseline_reuses", delta.reused as u64);
    obs::count("streaming.baseline_rebuilds", delta.rebuilt as u64);
    obs::count(
        "streaming.baseline_cells_updated",
        delta.cells_updated as u64,
    );
}

/// Original-side audit of the incremental utility-baseline fold for one
/// published window: whether the per-objective projection (crowded top-k /
/// traffic day histograms) was folded forward from the cached counts or
/// rebuilt from scratch, and how much it touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BaselineDelta {
    /// The cached fold was discarded and rebuilt over the whole prefix
    /// (first window for this objective, an objective change, or a
    /// quantized-grid move).
    pub rebuilt: bool,
    /// The cached fold was reused and extended by only the new window's
    /// trajectories.
    pub reused: bool,
    /// Distinct baseline cells (crowded) or `(cell, hour)` day-histogram
    /// entries (traffic) touched while folding this window.
    pub cells_updated: usize,
}

/// Per-window audit of what the reliable ingestion layer fed the stream —
/// the degraded-mode record of a window assembled under network faults.
///
/// The ingestion protocol (the platform's `collect` endpoint) guarantees
/// the strictly-ascending-day contract of [`PopulationCache::advance`] by
/// construction: a day window is closed exactly once, in order, after a
/// delivery deadline. Data that misses its deadline — e.g. a partitioned
/// region's stragglers — is **quarantined into the next window** instead of
/// poisoning the stream with a stale day, and this struct counts exactly
/// what happened so every published window carries its provenance.
///
/// A fault-free run has [`IngestDelta::is_clean`] deltas everywhere; the
/// chaos tests assert that such runs publish byte-identical windows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestDelta {
    /// Day index of the closed window.
    pub day: i64,
    /// Day batches folded into this window (deduplicated, in order).
    pub batches_applied: u64,
    /// Duplicate batch deliveries absorbed by the (device, sequence)
    /// watermark — retransmissions and fault-injected copies.
    pub batches_duplicate: u64,
    /// Records published in this window for its own day.
    pub records: u64,
    /// Records for earlier, already-closed days quarantined into this
    /// window (stragglers that eventually arrived).
    pub records_quarantined: u64,
    /// Devices that had not completed this window's day when it closed.
    pub straggler_devices: u64,
    /// Records for this day (or earlier) already delivered to the endpoint
    /// but still stuck behind a sequence gap in a device's reorder buffer
    /// at close time — once the gap fills they are released and quarantined
    /// into a later window.
    pub records_deferred: u64,
}

impl IngestDelta {
    /// A zeroed delta for `day`.
    pub fn new(day: i64) -> Self {
        Self {
            day,
            ..Self::default()
        }
    }

    /// Whether the window was assembled without degradation: nothing
    /// quarantined, nothing deferred, no straggler devices.
    pub fn is_clean(&self) -> bool {
        self.records_quarantined == 0
            && self.straggler_devices == 0
            && self.records_deferred == 0
    }
}

impl std::fmt::Display for IngestDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "day {}: {} batches ({} dup), {} records",
            self.day, self.batches_applied, self.batches_duplicate, self.records
        )?;
        if !self.is_clean() {
            write!(
                f,
                " [degraded: {} quarantined, {} deferred, {} stragglers]",
                self.records_quarantined, self.records_deferred, self.straggler_devices
            )?;
        }
        Ok(())
    }
}

/// Cross-window **original-side** attack state: the accumulated prefix,
/// the per-user shards extracted from it, and the reference POIs + spatial
/// index the engine scores candidates against.
///
/// This is the population-level half of the streaming state, usable on its
/// own: the multi-campaign orchestrator keeps *one* `PopulationCache` per
/// attack configuration and lets every same-configuration campaign read
/// it, so the original-side extraction work is paid once per window
/// instead of once per campaign. The single-campaign [`SessionCache`]
/// pairs one `PopulationCache` with one [`StrategySessionCache`].
///
/// The cache is pure state — it holds no attack of its own.
/// [`PopulationCache::advance`] borrows the caller's [`PoiAttack`] so the
/// extraction accounting (and any custom attack parameters) stay with the
/// publisher that owns the session.
#[derive(Debug, Default)]
pub struct PopulationCache {
    prefix: Dataset,
    /// The prefix decomposed per user: each user's trajectories in prefix
    /// order, as shared handles into the same allocations `prefix` holds.
    /// This is what makes every per-user path — shard re-extraction,
    /// per-user re-anonymization, protected-prefix assembly — O(that
    /// user's history) instead of O(prefix): a mini-dataset view is a
    /// `Vec<Arc>` clone, never a record copy or a full-prefix filter scan.
    by_user: BTreeMap<UserId, Vec<Arc<Trajectory>>>,
    /// The prefix's bounding box, maintained incrementally
    /// ([`geo::BoundingBox::union`] per window — exact under append, so
    /// the derived grid equals a from-scratch scan's without re-touching
    /// old records).
    bbox: Option<geo::BoundingBox>,
    /// The quantized anchor ([`geo::BoundingBox::grid_anchor`]) of `bbox`
    /// after the last window — the box the extraction grid is actually
    /// built on. Shards are invalidated when *this* moves, not on every
    /// raw-box drift: growth inside the padded 0.05° lattice keeps every
    /// cached shard valid.
    grid_box: Option<geo::BoundingBox>,
    shards: BTreeMap<UserId, UserAttackShard>,
    reference: ReferencePois,
    index: Option<ReferenceIndex>,
    windows_ingested: usize,
    last_day: Option<i64>,
    /// Fingerprint of the attack parameters the cached shards, reference
    /// and index were derived under. A session advanced by an attack with
    /// a different configuration drops the derived state (the prefix
    /// itself stays valid) and re-extracts everyone instead of silently
    /// matching at stale parameters.
    attack_config: Option<PoiAttackConfig>,
    /// Incrementally folded per-objective utility baselines (interior
    /// mutability: folding is a cache amendment, not an observable state
    /// change — `publish_session` borrows the population immutably).
    baselines: Mutex<BaselineFold>,
}

/// The incrementally folded original-side utility projections, one slot
/// per objective the session has been published under.
#[derive(Debug, Default)]
struct BaselineFold {
    slots: Vec<BaselineSlot>,
}

/// One objective's folded projection of the prefix.
#[derive(Debug)]
struct BaselineSlot {
    objective: Objective,
    /// The quantized prefix box the slot's grid is anchored on; a window
    /// that moves it invalidates every folded count.
    grid_box: BoundingBox,
    /// Number of prefix trajectories folded so far — the lazy-fold cursor
    /// into [`PopulationCache::prefix`].
    folded: usize,
    kind: SlotKind,
}

/// The objective-specific folded counts.
#[derive(Debug)]
enum SlotKind {
    /// Crowded places: distinct visitors per cell (insert-only under
    /// append, so the fold needs no retraction logic).
    Crowded {
        grid: UniformGrid,
        visitors: HashMap<CellId, HashSet<UserId>>,
    },
    /// Traffic: hourly `(cell, hour)` histograms per day — the day keys
    /// give the train/eval split, the last day's map is the ground truth.
    Traffic {
        grid: UniformGrid,
        by_day: BTreeMap<i64, HashMap<(CellId, i64), f64>>,
    },
}

impl SlotKind {
    /// An empty fold for `objective` on the already-quantized `grid_box`,
    /// or `None` when the objective's parameters cannot back a baseline
    /// (zero `k`, invalid cell size) — mirroring the constructor errors
    /// the legacy per-window build mapped to the `Unavailable` baseline.
    fn fresh(objective: Objective, grid_box: BoundingBox) -> Option<Self> {
        match objective {
            Objective::CrowdedPlaces { cell, k } => {
                if k == 0 {
                    return None;
                }
                let grid = UniformGrid::new(grid_box, cell).ok()?;
                Some(SlotKind::Crowded {
                    grid,
                    visitors: HashMap::new(),
                })
            }
            Objective::Traffic { cell } => {
                let grid = UniformGrid::new(grid_box, cell).ok()?;
                Some(SlotKind::Traffic {
                    grid,
                    by_day: BTreeMap::new(),
                })
            }
            Objective::Distortion => None,
        }
    }
}

impl BaselineSlot {
    /// Folds the trajectories appended since the last call into the
    /// counts, returning how many distinct cells / day-histogram entries
    /// were touched.
    fn fold(&mut self, trajectories: &[Arc<Trajectory>]) -> usize {
        let fresh = &trajectories[self.folded..];
        self.folded = trajectories.len();
        let mut touched: HashSet<(CellId, i64)> = HashSet::new();
        match &mut self.kind {
            SlotKind::Crowded { grid, visitors } => {
                for t in fresh {
                    for r in t.records() {
                        let cell = grid.cell_of(&r.point);
                        visitors.entry(cell).or_default().insert(r.user);
                        touched.insert((cell, 0));
                    }
                }
            }
            SlotKind::Traffic { grid, by_day } => {
                for t in fresh {
                    for r in t.records() {
                        let cell = grid.cell_of(&r.point);
                        let hour = r.time.hour_of_day();
                        *by_day
                            .entry(r.time.day_index())
                            .or_default()
                            .entry((cell, hour))
                            .or_insert(0.0) += 1.0;
                        touched.insert((cell, hour));
                    }
                }
            }
        }
        touched.len()
    }

    /// Projects the folded counts into the engine's baseline — the same
    /// values [`CrowdedBaseline::new`]/[`TrafficBaseline::new`] compute
    /// from scratch, handed through their `from_parts` surface so the
    /// scoring arithmetic stays in the metrics module.
    fn project(&self, objective: Objective) -> ObjectiveBaseline {
        match (&self.kind, objective) {
            (SlotKind::Crowded { grid, visitors }, Objective::CrowdedPlaces { cell, k }) => {
                let counts: HashMap<CellId, u64> = visitors
                    .iter()
                    .map(|(cell, users)| (*cell, users.len() as u64))
                    .collect();
                let top: HashSet<CellId> = UniformGrid::top_k(&counts, k)
                    .into_iter()
                    .map(|(c, _)| c)
                    .collect();
                ObjectiveBaseline::Crowded(CrowdedBaseline::from_parts(
                    grid.clone(),
                    top,
                    k,
                    cell,
                ))
            }
            (SlotKind::Traffic { grid, by_day }, Objective::Traffic { .. }) => {
                if by_day.len() < 2 {
                    // No train/eval split possible yet — same zero-utility
                    // outcome as the legacy single-day constructor error.
                    return ObjectiveBaseline::Unavailable;
                }
                let eval_day = *by_day.keys().next_back().expect("non-empty");
                let train_days = (by_day.len() - 1) as f64;
                let truth = by_day[&eval_day].clone();
                ObjectiveBaseline::Traffic(TrafficBaseline::from_parts(
                    grid.clone(),
                    eval_day,
                    train_days,
                    truth,
                ))
            }
            _ => ObjectiveBaseline::Unavailable,
        }
    }
}

impl PopulationCache {
    /// Creates an empty cache (no windows ingested).
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated prefix: every ingested window's trajectories,
    /// concatenated in ingestion order. Equals
    /// [`mobility::WindowedDataset::prefix`] of the same windows.
    pub fn prefix(&self) -> &Dataset {
        &self.prefix
    }

    /// The cached per-user shards, keyed by user.
    pub fn shards(&self) -> &BTreeMap<UserId, UserAttackShard> {
        &self.shards
    }

    /// The reference POIs extracted from the prefix (one entry per user).
    pub fn reference(&self) -> &ReferencePois {
        &self.reference
    }

    /// The amended spatial index over [`PopulationCache::reference`], or
    /// `None` before the first window.
    pub fn reference_index(&self) -> Option<&ReferenceIndex> {
        self.index.as_ref()
    }

    /// Number of windows folded into this cache.
    pub fn windows_ingested(&self) -> usize {
        self.windows_ingested
    }

    /// Day index of the most recently ingested window.
    pub fn last_day(&self) -> Option<i64> {
        self.last_day
    }

    /// The prefix's bounding box after the last ingested window.
    pub fn bounding_box(&self) -> Option<geo::BoundingBox> {
        self.bbox
    }

    /// The quantized anchor box the extraction grid is built on — moves
    /// only when the raw box crosses the padded 0.05° lattice.
    pub fn grid_box(&self) -> Option<geo::BoundingBox> {
        self.grid_box
    }

    /// The prefix decomposed per user (shared handles, prefix order).
    pub(crate) fn by_user(&self) -> &BTreeMap<UserId, Vec<Arc<Trajectory>>> {
        &self.by_user
    }

    /// The original-side utility projection for `objective` over the
    /// current prefix, folded **incrementally**: only trajectories
    /// appended since the last call for the same objective are touched,
    /// instead of re-gridding the whole prefix every window. Byte-exact by
    /// construction — visitor sets and integer-valued `f64` counts are
    /// order-independent, and the projection goes through the same
    /// [`CrowdedBaseline`]/[`TrafficBaseline`] scoring arithmetic as a
    /// from-scratch build (pinned by parity property tests).
    ///
    /// An objective change or a quantized-grid move discards the stale
    /// fold and rebuilds (reported in the [`BaselineDelta`]); several
    /// objectives can stay folded side by side for multi-campaign use.
    pub(crate) fn baseline_for(
        &self,
        objective: Objective,
    ) -> (ObjectiveBaseline, BaselineDelta) {
        let mut delta = BaselineDelta::default();
        let (Some(grid_box), false) = (self.grid_box, self.prefix.record_count() == 0) else {
            // Empty prefix: mirror the legacy per-window build, which
            // errors into the zero-utility `Unavailable` baseline.
            return (ObjectiveBaseline::Unavailable, delta);
        };
        if matches!(objective, Objective::Distortion) {
            // Distortion has no original-only projection to fold.
            return (ObjectiveBaseline::Distortion, delta);
        }
        let mut fold = self.baselines.lock().unwrap_or_else(|e| e.into_inner());
        let slot = match fold
            .slots
            .iter()
            .position(|s| s.objective == objective && s.grid_box == grid_box)
        {
            Some(at) => {
                delta.reused = true;
                &mut fold.slots[at]
            }
            None => {
                // Discard any stale fold of the same objective (moved
                // grid) before starting a fresh one. A rebuild is only
                // reported when a fold actually existed and was thrown
                // away — a session's first build is not a rebuild.
                let had_stale = fold.slots.iter().any(|s| s.objective == objective);
                fold.slots.retain(|s| s.objective != objective);
                let Some(kind) = SlotKind::fresh(objective, grid_box) else {
                    return (ObjectiveBaseline::Unavailable, delta);
                };
                delta.rebuilt = had_stale;
                fold.slots.push(BaselineSlot {
                    objective,
                    grid_box,
                    folded: 0,
                    kind,
                });
                fold.slots.last_mut().expect("just pushed")
            }
        };
        delta.cells_updated = slot.fold(self.prefix.trajectories());
        record_baseline_delta(&delta);
        (slot.project(objective), delta)
    }

    /// The attack configuration the cached extraction was derived under
    /// (`None` before the first window).
    pub fn attack_config(&self) -> Option<&PoiAttackConfig> {
        self.attack_config.as_ref()
    }

    /// Folds one day window into the cache: appends its trajectories to
    /// the prefix, brings (only) the invalidated users' shards up to the
    /// grown prefix — folding the window into a cached shard
    /// ([`PoiAttack::fold_user`]), or re-extracting the user's history
    /// via [`PoiAttack::extract_user`] after a grid move — and amends the
    /// reference POIs and their spatial index.
    ///
    /// Per-window cost is `O(window + refreshed users)`: the prefix
    /// bounding box is maintained by [`geo::BoundingBox::union`] (exact
    /// under append), never by rescanning the accumulated records.
    /// Refreshes are fanned out over the available cores; results are
    /// folded back in `UserId` order, so the cache state is deterministic
    /// regardless of scheduling.
    ///
    /// The cache fingerprints the attack configuration it was advanced
    /// with: ingesting a window through an attack with *different*
    /// parameters (grid cell, thresholds, match distance) drops all
    /// derived state — shards, reference POIs, index — and re-extracts
    /// every user under the new parameters (reported as a grid rebuild),
    /// so a mid-session attack swap can never silently match at stale
    /// distances.
    ///
    /// # Errors
    ///
    /// Windows must arrive in strictly ascending day order. A window
    /// whose day is not past [`PopulationCache::last_day`] — a duplicate
    /// ingest, or an out-of-order replay — is rejected with
    /// [`PrivapiError::StreamError`] *before* touching any state, so the
    /// prefix can never silently double-count a day's records.
    pub fn advance(
        &mut self,
        attack: &PoiAttack,
        window: &DatasetWindow,
    ) -> Result<WindowDelta, PrivapiError> {
        self.advance_derived(attack, window, None)
    }

    /// [`PopulationCache::advance`] with a **donor**: a cache holding the
    /// same attack configuration over a *superset* population whose
    /// per-user record histories bitwise contain this cache's (a
    /// user-subset view of the same window stream). When the donor has
    /// already ingested this window and both caches agree on the prefix
    /// bounding box (hence on the extraction grid), invalidated users'
    /// shards are **cloned from the donor** instead of re-extracted —
    /// byte-identical by determinism of [`PoiAttack::extract_user`], and
    /// free of [`PoiAttack::user_extractions`] cost. Users the donor does
    /// not hold, or any mismatch in configuration, day, or bounding box,
    /// fall back to a real extraction, so a donor can never change
    /// results — only skip work. The derived count is reported in
    /// [`WindowDelta::users_derived`].
    ///
    /// The *caller* is responsible for the superset-records contract
    /// (e.g. only passing a donor when this cache's view is a pure
    /// user-subset filter of the donor's stream); everything else is
    /// verified here.
    ///
    /// # Errors
    ///
    /// Same contract as [`PopulationCache::advance`].
    pub fn advance_derived(
        &mut self,
        attack: &PoiAttack,
        window: &DatasetWindow,
        donor: Option<&PopulationCache>,
    ) -> Result<WindowDelta, PrivapiError> {
        let mut span = obs::span("streaming.advance");
        span.set_attr("day", window.day());
        if let Some(last) = self.last_day {
            if window.day() <= last {
                return Err(PrivapiError::StreamError {
                    day: window.day(),
                    last_day: last,
                });
            }
        }
        // The cached shards, reference POIs and index were all derived
        // under the attack parameters of the sessions before this one: a
        // different configuration (grid cell, thresholds, match distance)
        // makes every derived value stale even though the prefix itself is
        // still good. Drop the derived state and re-extract everyone.
        let config_changed = self.attack_config.is_some()
            && self.attack_config.as_ref() != Some(attack.config());
        if config_changed {
            self.shards.clear();
            self.reference.clear();
            self.index = None;
        }
        if self.attack_config.as_ref() != Some(attack.config()) {
            self.attack_config = Some(attack.config().clone());
        }
        let changed = window.users();
        // The window's own trajectories per user: what a cached shard folds.
        let mut fresh: BTreeMap<UserId, Vec<Arc<Trajectory>>> = BTreeMap::new();
        for t in window.dataset().trajectories() {
            self.by_user
                .entry(t.user())
                .or_default()
                .push(Arc::clone(t));
            fresh.entry(t.user()).or_default().push(Arc::clone(t));
        }
        self.prefix
            .extend(window.dataset().trajectories().iter().cloned());
        self.windows_ingested += 1;
        self.last_day = Some(window.day());
        let merged_bbox = match (self.bbox, window.dataset().bounding_box()) {
            (Some(a), Some(b)) => Some(a.union(&b)),
            (a, None) => a,
            (None, b) => b,
        };
        let Some(bbox) = merged_bbox else {
            // Empty prefix: nothing to extract yet.
            return Ok(WindowDelta {
                day: window.day(),
                users_refreshed: 0,
                users_reused: 0,
                indexes_extended: 0,
                grid_rebuilt: false,
                users_derived: 0,
                grid_quantum_millideg: grid_quantum_millideg(),
                records_extracted: 0,
            });
        };
        // The extraction grid is anchored on the *quantized* padded box:
        // raw bounding-box growth inside the 0.05° lattice keeps every
        // cached shard valid, so only a lattice crossing rebuilds.
        let grid_box = bbox.grid_anchor();
        let grid_rebuilt =
            config_changed || (self.grid_box.is_some() && self.grid_box != Some(grid_box));
        let to_refresh: Vec<UserId> = if grid_rebuilt {
            self.by_user.keys().copied().collect()
        } else {
            changed
        };
        // A donor's shard for user `u` equals our own extraction iff the
        // donor extracted under the same attack parameters, over the same
        // accumulated stream position, on the same grid (same quantized
        // anchor box) — and, per the caller's contract, holds bitwise our
        // records for `u`. Anything else disqualifies the donor entirely.
        let donor = donor.filter(|d| {
            d.attack_config.as_ref() == Some(attack.config())
                && d.last_day == Some(window.day())
                && d.grid_box == Some(grid_box)
        });
        let mut derived: Vec<UserAttackShard> = Vec::new();
        let mut to_extract: Vec<UserId> = Vec::new();
        match donor {
            Some(donor) => {
                for &user in &to_refresh {
                    match donor.shards.get(&user) {
                        Some(shard) => derived.push(shard.clone()),
                        None => to_extract.push(user),
                    }
                }
            }
            None => to_extract = to_refresh.clone(),
        }
        let grid = attack.grid_for(bbox);
        // On an unmoved grid a cached shard folds just the window's
        // trajectories; a new user, a moved grid or an out-of-order window
        // re-extracts the user's history through the per-user
        // decomposition — a `Vec<Arc>` clone, not a prefix scan.
        let mut jobs: Vec<(UserId, Option<UserAttackShard>)> = to_extract
            .iter()
            .map(|&user| {
                let cached = if grid_rebuilt {
                    None
                } else {
                    self.shards.remove(&user)
                };
                (user, cached)
            })
            .collect();
        let by_user = &self.by_user;
        let refreshed: Vec<(UserAttackShard, usize)> = jobs
            .par_iter_mut()
            .map(|(user, cached)| {
                let user = *user;
                cached
                    .take()
                    .and_then(|shard| {
                        let window = shared_dataset(fresh.get(&user));
                        let records = window.record_count();
                        attack
                            .fold_user(shard, &window, &grid)
                            .map(|shard| (shard, records))
                    })
                    .unwrap_or_else(|| extract_history(attack, by_user.get(&user), user, &grid))
            })
            .collect();
        let index = self
            .index
            .get_or_insert_with(|| ReferenceIndex::empty(attack.config().match_distance));
        let mut indexes_extended = 0;
        let users_derived = derived.len();
        let records_extracted = refreshed.iter().map(|(_, records)| records).sum();
        let refreshed = refreshed.into_iter().map(|(shard, _)| shard);
        for shard in derived.into_iter().chain(refreshed) {
            if index.update_user(shard.user, &shard.pois) {
                indexes_extended += 1;
            }
            self.reference.insert(shard.user, shard.pois.clone());
            self.shards.insert(shard.user, shard);
        }
        self.bbox = Some(bbox);
        self.grid_box = Some(grid_box);
        let delta = WindowDelta {
            day: window.day(),
            users_refreshed: to_refresh.len() - users_derived,
            users_reused: self.shards.len() - to_refresh.len(),
            indexes_extended,
            grid_rebuilt,
            users_derived,
            grid_quantum_millideg: grid_quantum_millideg(),
            records_extracted,
        };
        record_window_delta(&delta);
        Ok(delta)
    }
}

/// Cross-window state of one streaming publication session: the
/// original-side [`PopulationCache`] paired with the per-candidate
/// protected-side [`StrategySessionCache`].
#[derive(Debug, Default)]
pub struct SessionCache {
    population: PopulationCache,
    /// The protected-side twin: per-candidate caches of each strategy's
    /// protected prefix and self-attack shards.
    strategies: StrategySessionCache,
}

impl SessionCache {
    /// Creates an empty session (no windows ingested).
    pub fn new() -> Self {
        Self::default()
    }

    /// The original-side half of the session.
    pub fn population(&self) -> &PopulationCache {
        &self.population
    }

    /// The accumulated prefix: every ingested window's trajectories,
    /// concatenated in ingestion order. Equals
    /// [`mobility::WindowedDataset::prefix`] of the same windows.
    pub fn prefix(&self) -> &Dataset {
        self.population.prefix()
    }

    /// The cached per-user shards, keyed by user.
    pub fn shards(&self) -> &BTreeMap<UserId, UserAttackShard> {
        self.population.shards()
    }

    /// The reference POIs extracted from the prefix (one entry per user).
    pub fn reference(&self) -> &ReferencePois {
        self.population.reference()
    }

    /// The amended spatial index over [`SessionCache::reference`], or
    /// `None` before the first window.
    pub fn reference_index(&self) -> Option<&ReferenceIndex> {
        self.population.reference_index()
    }

    /// Number of windows folded into this session.
    pub fn windows_ingested(&self) -> usize {
        self.population.windows_ingested()
    }

    /// Day index of the most recently ingested window.
    pub fn last_day(&self) -> Option<i64> {
        self.population.last_day()
    }

    /// The per-strategy protected-side caches this session maintains
    /// alongside the original-side state.
    pub fn strategies(&self) -> &StrategySessionCache {
        &self.strategies
    }

    /// Splits the session into the borrow shape
    /// [`crate::pipeline::PrivApi::publish_window`] needs: the
    /// original-side state read-only (it feeds
    /// [`crate::engine::EvalContext::from_cache`]) and the per-strategy
    /// caches mutably (the engine refreshes them while sweeping the pool).
    pub(crate) fn split_for_evaluation(
        &mut self,
    ) -> (&PopulationCache, &mut StrategySessionCache) {
        (&self.population, &mut self.strategies)
    }

    /// Folds one day window into the session's original-side state — see
    /// [`PopulationCache::advance`].
    ///
    /// # Errors
    ///
    /// [`PrivapiError::StreamError`] for a duplicate or out-of-order
    /// window day (nothing ingested).
    pub fn advance(
        &mut self,
        attack: &PoiAttack,
        window: &DatasetWindow,
    ) -> Result<WindowDelta, PrivapiError> {
        self.population.advance(attack, window)
    }
}

/// What one window changed about the accumulated prefix, from the
/// perspective of the per-strategy caches: which users contributed new
/// records, and whether the prefix bounding box (and with it every
/// grid anchored on it) moved.
///
/// Produced by [`crate::pipeline::PrivApi::publish_window`] right after
/// [`SessionCache::advance`] and consumed by
/// [`crate::engine::EvaluationEngine::evaluate_release_with`] to decide,
/// per candidate strategy, which cached protected outputs survive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowUpdate {
    /// Users with records in the ingested window (sorted, deduplicated).
    pub changed_users: Vec<UserId>,
    /// Whether the window widened the prefix bounding box — which
    /// invalidates every [`UserLocality::GridAnchored`] candidate's cached
    /// output wholesale.
    pub grid_rebuilt: bool,
}

/// Protected-side audit of one candidate strategy for one window: what its
/// [`StrategySessionCache`] entry reused vs. recomputed.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateDelta {
    /// The candidate this delta describes.
    pub info: StrategyInfo,
    /// The locality contract the candidate declared.
    pub locality: UserLocality,
    /// Users whose protected output was extended (or, on a full refresh,
    /// rebuilt) this window.
    pub users_refreshed: usize,
    /// Users whose cached protected trajectories were reused untouched.
    pub users_reused: usize,
    /// Users whose protected trajectories were **adopted from a donor
    /// campaign's** already-refreshed state ([`StrategyDonor`]) — zero
    /// anonymization work here; always zero outside the multi-campaign
    /// orchestrator's donor path.
    pub users_donated: usize,
    /// Users whose protected-side [`UserAttackShard`] was folded forward or
    /// re-extracted.
    pub shards_refreshed: usize,
    /// Users whose cached protected-side shard was reused untouched.
    pub shards_reused: usize,
    /// Protected-side shards adopted from a donor campaign's state —
    /// the cross-campaign twin of `shards_reused`.
    pub shards_donated: usize,
    /// Whether the candidate's **protected** bounding box moved, forcing a
    /// new extraction grid and a full per-user shard refresh (independent
    /// of the original-side grid: noise can widen a protected box on a
    /// window that left the original box alone).
    pub protected_grid_rebuilt: bool,
    /// Whether the candidate fell back to the uncached path (declared
    /// [`UserLocality::NonLocal`], or violated the shape contract): a full
    /// re-anonymization plus a full protected-side extraction.
    pub full_fallback: bool,
    /// Original records fed to the strategy by the cached path: the
    /// changed users' new trajectories on a steady window, the whole
    /// prefix on a full refresh. Zero on the donor and fallback paths.
    pub records_anonymized: usize,
    /// Protected records the cached path's self-attack read: the new
    /// output when a shard was folded forward, the user's whole protected
    /// history when it was re-extracted.
    pub records_extracted: usize,
}

impl CandidateDelta {
    /// A zeroed delta for one candidate.
    pub(crate) fn new(info: StrategyInfo, locality: UserLocality) -> Self {
        Self {
            info,
            locality,
            users_refreshed: 0,
            users_reused: 0,
            users_donated: 0,
            shards_refreshed: 0,
            shards_reused: 0,
            shards_donated: 0,
            protected_grid_rebuilt: false,
            full_fallback: false,
            records_anonymized: 0,
            records_extracted: 0,
        }
    }
}

/// Pool-wide aggregate of [`CandidateDelta`]s for one window — the
/// protected-side counterpart of [`WindowDelta`], reported in
/// [`PublishedWindow::strategies`] and summed by the e11 bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyCacheDelta {
    /// Candidates evaluated.
    pub candidates: usize,
    /// Total per-candidate users whose protected output was refreshed.
    pub users_refreshed: usize,
    /// Total per-candidate users whose protected trajectories were reused.
    pub users_reused: usize,
    /// Total per-candidate users adopted from a donor campaign's state.
    pub users_donated: usize,
    /// Total per-candidate protected-side shard refreshes.
    pub shards_refreshed: usize,
    /// Total per-candidate protected-side shards reused untouched.
    pub shards_reused: usize,
    /// Total protected-side shards adopted from a donor campaign's state.
    pub shards_donated: usize,
    /// Candidates whose protected extraction grid moved this window.
    pub protected_grid_rebuilds: usize,
    /// Candidates that took the full uncached path.
    pub full_fallbacks: usize,
    /// Total original records fed to the strategies by the cached path.
    pub records_anonymized: usize,
    /// Total protected records the cached self-attacks read.
    pub records_extracted: usize,
}

impl StrategyCacheDelta {
    /// Sums per-candidate deltas into the pool-wide aggregate.
    pub fn aggregate(deltas: &[CandidateDelta]) -> Self {
        let mut total = Self {
            candidates: deltas.len(),
            ..Self::default()
        };
        for d in deltas {
            total.users_refreshed += d.users_refreshed;
            total.users_reused += d.users_reused;
            total.users_donated += d.users_donated;
            total.shards_refreshed += d.shards_refreshed;
            total.shards_reused += d.shards_reused;
            total.shards_donated += d.shards_donated;
            total.protected_grid_rebuilds += usize::from(d.protected_grid_rebuilt);
            total.full_fallbacks += usize::from(d.full_fallback);
            total.records_anonymized += d.records_anonymized;
            total.records_extracted += d.records_extracted;
        }
        total
    }
}

/// The original prefix decomposed per user, prepared once per sweep: every
/// candidate refresh reads its user list, each user's history and the
/// expected per-user trajectory counts (the shape check) from here instead
/// of rescanning the prefix.
#[derive(Debug)]
pub(crate) struct SweepPopulation<'a> {
    by_user: Cow<'a, BTreeMap<UserId, Vec<Arc<Trajectory>>>>,
    users: Vec<UserId>,
}

impl<'a> SweepPopulation<'a> {
    /// Borrows the context's per-user decomposition, or groups the
    /// context's original dataset once when none is attached.
    pub(crate) fn of(context: &'a EvalContext<'_>) -> Self {
        let by_user = match context.original_by_user() {
            Some(by_user) => Cow::Borrowed(by_user),
            None => {
                let mut grouped: BTreeMap<UserId, Vec<Arc<Trajectory>>> = BTreeMap::new();
                for t in context.original().trajectories() {
                    grouped.entry(t.user()).or_default().push(Arc::clone(t));
                }
                Cow::Owned(grouped)
            }
        };
        let users = by_user.keys().copied().collect();
        Self { by_user, users }
    }

    /// Every user of the prefix, sorted.
    pub(crate) fn users(&self) -> &[UserId] {
        &self.users
    }

    /// `user`'s trajectories in prefix order (empty for an unknown user).
    fn history(&self, user: UserId) -> &[Arc<Trajectory>] {
        self.by_user.get(&user).map_or(&[], Vec::as_slice)
    }

    /// Whether `protected` holds exactly one output trajectory per prefix
    /// trajectory of every prefix user — the shape under which it
    /// re-interleaves into the protected prefix. O(users).
    fn shape_matches(&self, protected: &BTreeMap<UserId, Vec<Arc<Trajectory>>>) -> bool {
        protected.len() == self.by_user.len()
            && self
                .by_user
                .iter()
                .all(|(user, mine)| protected.get(user).map(Vec::len) == Some(mine.len()))
    }
}

/// One candidate strategy's cross-window protected-side state: the
/// per-user protected trajectories of the accumulated prefix, the
/// protected bounding box the extraction grid is anchored on, and the
/// per-user self-attack shards extracted from the protected data.
#[derive(Debug, Default, Clone)]
pub(crate) struct CandidateState {
    /// Identity card of the candidate this state belongs to (`None` until
    /// first primed). A pool edit that changes the candidate at this slot
    /// resets the state.
    pub(crate) info: Option<StrategyInfo>,
    /// Protected trajectories per user, each in the user's prefix order —
    /// shared handles, so cloning a state (the donor path) or assembling
    /// the release copies pointers, never record data.
    protected: BTreeMap<UserId, Vec<Arc<Trajectory>>>,
    /// Per-user bounding boxes of the protected trajectories, so the
    /// protected prefix box is a union fold over users — O(users) —
    /// instead of a record scan over the assembled dataset.
    boxes: BTreeMap<UserId, Option<geo::BoundingBox>>,
    /// Bounding box of the protected prefix after the last window (union
    /// of `boxes`).
    bbox: Option<geo::BoundingBox>,
    /// The quantized anchor ([`geo::BoundingBox::grid_anchor`]) of `bbox`
    /// — the box the protected-side extraction grid is actually built on.
    /// Shards survive raw protected-box drift inside the padded lattice.
    grid_box: Option<geo::BoundingBox>,
    /// Per-user protected-side shards (the candidate's own self-attack
    /// decomposition), shared so donor clones are pointer copies.
    shards: BTreeMap<UserId, Arc<UserAttackShard>>,
    /// Incrementally maintained protected-side utility counts, keyed on
    /// the *baseline* grid — shared, so donor snapshots and followers
    /// hold pointers and only the next fold copies.
    utility: Arc<UtilityCache>,
    /// Whether this state has absorbed at least one window.
    primed: bool,
}

/// The protected side of the incremental utility computation: the folded
/// counts of the objective's histogram, so a window re-scores by adding
/// its new protected trajectories instead of re-histogramming the whole
/// assembled protected prefix. Protected output only ever grows by
/// appended trajectories between rebuilds, so the counts never retract.
///
/// Keyed on the **baseline** grid (anchor box + cell size): a baseline
/// whose grid moved — prefix crossed the anchor lattice, objective changed
/// — mismatches the key and forces a rebuild over all users.
#[derive(Debug, Clone, Default)]
enum UtilityCache {
    /// No incremental projection (distortion / unavailable baseline).
    #[default]
    None,
    /// Crowded places: a cell's count is its number of distinct
    /// `(cell, record-user)` pairs — exact for arbitrary record ownership,
    /// not just the common `record.user == trajectory.user` case.
    Crowded {
        anchor: BoundingBox,
        cell: Meters,
        /// Every `(cell, record-user)` pair seen so far.
        pairs: HashSet<(CellId, UserId)>,
        /// Distinct visitors per cell — fed to
        /// [`CrowdedBaseline::score_counts`] verbatim.
        counts: HashMap<CellId, u64>,
    },
    /// Traffic: `(cell, hour)` histograms over all days and per day; the
    /// train histogram for eval day `d` is `total − by_day[d]` with
    /// exact-zero keys pruned (integer-valued `f64`, so the subtraction is
    /// exact).
    Traffic {
        anchor: BoundingBox,
        cell: Meters,
        total: HashMap<(CellId, i64), f64>,
        by_day: BTreeMap<i64, HashMap<(CellId, i64), f64>>,
    },
}

impl UtilityCache {
    /// Whether these counts were folded on `grid` (anchor box and cell).
    fn keyed_on(&self, grid: &UniformGrid) -> bool {
        match self {
            UtilityCache::Crowded { anchor, cell, .. }
            | UtilityCache::Traffic { anchor, cell, .. } => {
                *anchor == grid.bbox() && *cell == grid.cell_size()
            }
            UtilityCache::None => false,
        }
    }

    /// Adds the records of `trajectories` to the counts. Crowded pairs are
    /// set-inserted and traffic counts are integer-valued sums of `1.0`,
    /// so folding window by window equals one scan in any order.
    fn fold<'t>(
        &mut self,
        grid: &UniformGrid,
        trajectories: impl Iterator<Item = &'t Arc<Trajectory>>,
    ) {
        for r in trajectories.flat_map(|t| t.records()) {
            let cell = grid.cell_of(&r.point);
            match self {
                UtilityCache::Crowded { pairs, counts, .. } => {
                    if pairs.insert((cell, r.user)) {
                        *counts.entry(cell).or_insert(0) += 1;
                    }
                }
                UtilityCache::Traffic { total, by_day, .. } => {
                    let key = (cell, r.time.hour_of_day());
                    *total.entry(key).or_insert(0.0) += 1.0;
                    *by_day
                        .entry(r.time.day_index())
                        .or_default()
                        .entry(key)
                        .or_insert(0.0) += 1.0;
                }
                UtilityCache::None => {}
            }
        }
    }
}

impl CandidateState {
    /// Drops all cached data (keeps the identity card).
    fn clear(&mut self) {
        self.protected.clear();
        self.boxes.clear();
        self.bbox = None;
        self.grid_box = None;
        self.shards.clear();
        self.utility = Arc::default();
        self.primed = false;
    }

    /// Re-interleaves the cached per-user protected trajectories into the
    /// full protected dataset, in `original`'s trajectory order — the
    /// inverse of the per-user decomposition, byte-identical to
    /// [`AnonymizationStrategy::anonymize`] under the shape-preservation
    /// contract.
    ///
    /// Returns `None` when the cached shape cannot be aligned with
    /// `original` (a strategy violating the one-output-per-input-trajectory
    /// contract, or a stale cache) — the caller must fall back to a full
    /// re-anonymization.
    fn assemble(&self, original: &Dataset) -> Option<Dataset> {
        let mut cursors: BTreeMap<UserId, usize> =
            self.protected.keys().map(|u| (*u, 0usize)).collect();
        let mut trajectories = Vec::with_capacity(original.trajectory_count());
        for t in original.trajectories() {
            let cursor = cursors.get_mut(&t.user())?;
            trajectories.push(Arc::clone(self.protected.get(&t.user())?.get(*cursor)?));
            *cursor += 1;
        }
        // Every cached trajectory must have been consumed: leftovers mean
        // the cache holds users or trajectories the prefix no longer has.
        for (user, cursor) in &cursors {
            if self.protected[user].len() != *cursor {
                return None;
            }
        }
        Some(Dataset::from_shared(trajectories))
    }

    /// The assembled protected prefix of a *primed* state — what the last
    /// [`CandidateState::refresh`] scored, re-materialized from the cache
    /// by pure clones. This is how the winner's release dataset is
    /// produced without re-running its strategy over the whole prefix.
    pub(crate) fn assembled_release(&self, original: &Dataset) -> Option<Dataset> {
        if !self.primed {
            return None;
        }
        self.assemble(original)
    }

    /// The candidate's extracted protected-side POIs, re-keyed from the
    /// cached shards — what [`PoiAttack::extract`] over its assembled
    /// protected prefix would return.
    pub(crate) fn extracted_pois(&self) -> ReferencePois {
        self.shards
            .iter()
            .map(|(user, shard)| (*user, shard.pois.clone()))
            .collect()
    }

    /// Number of protected-side shards currently cached.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Utility of this (primed) state under `context`, **without**
    /// refreshing anything: scores the incrementally maintained counts
    /// when their key matches the context's baseline grid, and otherwise
    /// falls back to assembling the protected prefix (pointer clones) and
    /// scoring it whole. `None` only when the cached shape cannot be
    /// aligned with the context's original — a donated state from a
    /// different prefix, which the caller must reject.
    pub(crate) fn utility_for(&self, context: &EvalContext<'_>) -> Option<f64> {
        let utility = self.utility.as_ref();
        match (context.baseline(), utility) {
            (ObjectiveBaseline::Unavailable, _) => Some(0.0),
            (ObjectiveBaseline::Crowded(b), UtilityCache::Crowded { counts, .. })
                if utility.keyed_on(b.grid()) =>
            {
                Some(b.score_counts(counts).precision_at_k)
            }
            (ObjectiveBaseline::Traffic(b), UtilityCache::Traffic { total, by_day, .. })
                if utility.keyed_on(b.grid()) =>
            {
                Some(
                    b.score_train(&Self::traffic_train(total, by_day, b.eval_day()))
                        .utility_score(),
                )
            }
            _ => self
                .assemble(context.original())
                .map(|assembled| context.utility_of(&assembled)),
        }
    }

    /// Folds one window into this candidate's cache and returns the
    /// extracted POIs plus the utility score — exactly what
    /// [`PoiAttack::extract`] + utility scoring over a fresh
    /// [`AnonymizationStrategy::anonymize`] would produce, at the cost of
    /// the window's own records.
    ///
    /// Under the per-trajectory locality contract a changed user's output
    /// for their old trajectories is unchanged, so the window's new
    /// trajectories are anonymized alone and their output appended; the
    /// user's protected-side shard folds that output
    /// ([`PoiAttack::fold_user`]) and the utility counts add it. The first
    /// window and a [`UserLocality::GridAnchored`] candidate's anchor move
    /// re-anonymize the whole prefix instead, and a moved protected grid
    /// re-extracts every shard.
    ///
    /// Returns `(None, delta)` when the candidate cannot be cached
    /// ([`UserLocality::NonLocal`], or a shape-contract violation): the
    /// caller must evaluate it through the full uncached path.
    pub(crate) fn refresh(
        &mut self,
        strategy: &dyn AnonymizationStrategy,
        attack: &PoiAttack,
        context: &EvalContext<'_>,
        update: &WindowUpdate,
        population: &SweepPopulation<'_>,
        seed: u64,
    ) -> (Option<(ReferencePois, f64)>, CandidateDelta) {
        let info = strategy.info();
        let locality = strategy.locality();
        let mut delta = CandidateDelta::new(info.clone(), locality);
        self.info = Some(info);
        if locality == UserLocality::NonLocal {
            self.clear();
            delta.full_fallback = true;
            return (None, delta);
        }
        let all_users = population.users();
        let full =
            !self.primed || (locality == UserLocality::GridAnchored && update.grid_rebuilt);
        let to_refresh: &[UserId] = if full {
            all_users
        } else {
            &update.changed_users
        };
        delta.users_refreshed = to_refresh.len();
        delta.users_reused = all_users.len() - to_refresh.len();
        // Each refreshed user's newly appended protected trajectories.
        let mut appended: Vec<(UserId, Vec<Arc<Trajectory>>)> = Vec::new();
        {
            let mut span = obs::span("strategy.anonymize");
            if full {
                // One whole-dataset `anonymize` pass, decomposed per user:
                // the canonical output the per-trajectory surface must
                // agree with anyway.
                let original = context.original();
                delta.records_anonymized = original.record_count();
                let mut grouped: BTreeMap<UserId, Vec<Arc<Trajectory>>> = BTreeMap::new();
                for trajectory in strategy.anonymize(original, seed).into_shared() {
                    grouped
                        .entry(trajectory.user())
                        .or_default()
                        .push(trajectory);
                }
                self.boxes = grouped
                    .iter()
                    .map(|(user, mine)| (*user, user_bounding_box(mine)))
                    .collect();
                self.protected = grouped;
            } else {
                // A steady window's per-user work is window-sized and the
                // sweep already spreads candidates over the cores, so the
                // changed users run in place rather than fanned out again.
                for &user in to_refresh {
                    let cached = self.protected.get(&user).map_or(0, Vec::len);
                    let tail = population.history(user).get(cached..).unwrap_or_default();
                    delta.records_anonymized += tail.iter().map(|t| t.len()).sum::<usize>();
                    let output =
                        anonymize_tail(strategy, context, population, user, cached, seed);
                    let grown = match (
                        self.boxes.get(&user).copied().flatten(),
                        user_bounding_box(&output),
                    ) {
                        (Some(a), Some(b)) => Some(a.union(&b)),
                        (a, b) => a.or(b),
                    };
                    self.boxes.insert(user, grown);
                    self.protected
                        .entry(user)
                        .or_default()
                        .extend(output.iter().cloned());
                    appended.push((user, output));
                }
            }
            span.set_attr("records", delta.records_anonymized);
        }
        if !population.shape_matches(&self.protected) {
            // Shape-contract violation: drop everything and let the caller
            // take the always-correct full path.
            self.clear();
            delta.full_fallback = true;
            delta.users_refreshed = 0;
            delta.users_reused = 0;
            delta.records_anonymized = 0;
            return (None, delta);
        }
        // The protected-side extraction grid is anchored on the *protected*
        // bounding box — through its quantized padded form, so drift inside
        // the lattice keeps every shard; only an anchor move invalidates
        // them all, no matter whose records changed.
        let bbox = union_of(&self.boxes);
        let grid_box = bbox.map(|b| b.grid_anchor());
        delta.protected_grid_rebuilt = self.primed && grid_box != self.grid_box;
        match bbox {
            Some(bbox) => {
                let mut span = obs::span("attack.extract");
                let grid = attack.grid_for(bbox);
                let shards: Vec<(UserAttackShard, usize)> = if full
                    || delta.protected_grid_rebuilt
                {
                    // Every shard from the user's whole protected history.
                    let protected = &self.protected;
                    all_users
                        .par_iter()
                        .map(|&user| extract_history(attack, protected.get(&user), user, &grid))
                        .collect()
                } else {
                    appended
                        .iter()
                        .map(|(user, output)| {
                            let window = Dataset::from_shared(output.clone());
                            self.shards
                                .remove(user)
                                .and_then(|shard| {
                                    attack.fold_user(
                                        Arc::unwrap_or_clone(shard),
                                        &window,
                                        &grid,
                                    )
                                })
                                .map(|shard| (shard, window.record_count()))
                                .unwrap_or_else(|| {
                                    extract_history(
                                        attack,
                                        self.protected.get(user),
                                        *user,
                                        &grid,
                                    )
                                })
                        })
                        .collect()
                };
                delta.shards_refreshed = shards.len();
                delta.shards_reused = all_users.len() - shards.len();
                for (shard, records) in shards {
                    delta.records_extracted += records;
                    self.shards.insert(shard.user, Arc::new(shard));
                }
                span.set_attr("records", delta.records_extracted);
            }
            None => {
                // An entirely emptied protected prefix extracts nothing —
                // mirror `PoiAttack::extract` on a record-less dataset.
                self.shards.clear();
            }
        }
        self.bbox = bbox;
        self.grid_box = grid_box;
        self.primed = true;
        let utility = {
            let _span = obs::span("utility.score");
            self.refresh_utility(context, &appended, full)
        };
        (Some((self.extracted_pois(), utility)), delta)
    }

    /// Folds the `appended` protected trajectories into the incremental
    /// utility counts (rebuilding them over every user when `full` or when
    /// the baseline grid moved) and scores the candidate — byte-identical
    /// to scoring the assembled protected prefix, because
    /// [`CrowdedBaseline::score_counts`] / [`TrafficBaseline::score_train`]
    /// are fed histograms equal to what the full per-record scan would
    /// produce.
    fn refresh_utility(
        &mut self,
        context: &EvalContext<'_>,
        appended: &[(UserId, Vec<Arc<Trajectory>>)],
        full: bool,
    ) -> f64 {
        let (grid, fresh) = match context.baseline() {
            ObjectiveBaseline::Crowded(b) => (
                b.grid(),
                UtilityCache::Crowded {
                    anchor: b.grid().bbox(),
                    cell: b.grid().cell_size(),
                    pairs: HashSet::new(),
                    counts: HashMap::new(),
                },
            ),
            ObjectiveBaseline::Traffic(b) => (
                b.grid(),
                UtilityCache::Traffic {
                    anchor: b.grid().bbox(),
                    cell: b.grid().cell_size(),
                    total: HashMap::new(),
                    by_day: BTreeMap::new(),
                },
            ),
            ObjectiveBaseline::Distortion => {
                // Distortion pairs original and protected records directly;
                // there is no histogram to maintain. Assembling is pointer
                // clones, so the candidate still avoids re-anonymization.
                self.utility = Arc::default();
                let assembled = self
                    .assemble(context.original())
                    .expect("shape checked before scoring");
                return context.utility_of(&assembled);
            }
            ObjectiveBaseline::Unavailable => {
                self.utility = Arc::default();
                return 0.0;
            }
        };
        let rebuild = full || !self.utility.keyed_on(grid);
        if rebuild {
            self.utility = Arc::new(fresh);
        }
        let mut added = fold_input(&self.protected, appended, rebuild).peekable();
        if added.peek().is_some() {
            Arc::make_mut(&mut self.utility).fold(grid, added);
        }
        self.utility_for(context)
            .expect("counts keyed on the context's baseline grid")
    }

    /// The protected-side training histogram for `eval_day`:
    /// `total − by_day[eval_day]`, pruned at exact zero — equal to
    /// `hourly_histogram(assembled, grid, |d| d != eval_day)`.
    fn traffic_train(
        total: &HashMap<(CellId, i64), f64>,
        by_day: &BTreeMap<i64, HashMap<(CellId, i64), f64>>,
        eval_day: i64,
    ) -> HashMap<(CellId, i64), f64> {
        let mut train = total.clone();
        if let Some(eval) = by_day.get(&eval_day) {
            for (key, v) in eval {
                if let Some(t) = train.get_mut(key) {
                    *t -= v;
                    if *t == 0.0 {
                        train.remove(key);
                    }
                }
            }
        }
        train
    }
}

/// The protected trajectories a utility fold adds: every user's whole
/// output on a `rebuild`, otherwise just this window's `appended` ones.
fn fold_input<'s>(
    protected: &'s BTreeMap<UserId, Vec<Arc<Trajectory>>>,
    appended: &'s [(UserId, Vec<Arc<Trajectory>>)],
    rebuild: bool,
) -> Box<dyn Iterator<Item = &'s Arc<Trajectory>> + 's> {
    if rebuild {
        Box::new(protected.values().flatten())
    } else {
        Box::new(appended.iter().flat_map(|(_, output)| output))
    }
}

/// Anonymizes the tail of `user`'s history — the trajectories past the
/// `cached` ones the candidate already holds output for — against a
/// minimal view. Under the per-trajectory locality contract each output
/// trajectory depends only on its input trajectory, the user, the seed
/// and (for [`UserLocality::GridAnchored`]) the quantized anchor of the
/// prefix bounding box, so the tail's output is exactly what a full-prefix
/// `anonymize` appends for it:
///
/// * a [`UserLocality::UserLocal`] candidate sees only the tail;
/// * a [`UserLocality::GridAnchored`] candidate sees the tail plus two
///   synthetic single-record pins at the prefix bounding box's corners
///   ([`pinned_view`]), so the view's box — the only dataset-global input
///   the contract admits — equals the prefix box.
///
/// Falls back to a full-prefix `anonymize_user` (keeping the output past
/// `cached`) when the pin id collides with a real participant or no box
/// is known.
fn anonymize_tail(
    strategy: &dyn AnonymizationStrategy,
    context: &EvalContext<'_>,
    population: &SweepPopulation<'_>,
    user: UserId,
    cached: usize,
    seed: u64,
) -> Vec<Arc<Trajectory>> {
    let Some(tail) = population
        .history(user)
        .get(cached..)
        .filter(|t| !t.is_empty())
    else {
        return Vec::new();
    };
    let tail = tail.to_vec();
    let original = context.original();
    let view = match strategy.locality() {
        UserLocality::UserLocal => Some(Dataset::from_shared(tail)),
        UserLocality::GridAnchored if population.history(BBOX_PIN_USER).is_empty() => context
            .original_bbox()
            .or_else(|| original.bounding_box())
            .map(|bbox| pinned_view(tail, bbox)),
        _ => None,
    };
    match view {
        Some(view) => strategy.anonymize_user(&view, user, seed),
        None => strategy
            .anonymize_user(original, user, seed)
            .into_iter()
            .skip(cached)
            .collect(),
    }
}

/// A mini-dataset whose bounding box is pinned to `bbox`: the user's shared
/// trajectories plus two single-record [`BBOX_PIN_USER`] trajectories at the
/// box corners. The pin user's protected output is discarded by the
/// `anonymize_user` filter.
fn pinned_view(mut mine: Vec<Arc<Trajectory>>, bbox: BoundingBox) -> Dataset {
    let pin = |point| {
        Arc::new(Trajectory::new(
            BBOX_PIN_USER,
            vec![LocationRecord::new(BBOX_PIN_USER, Timestamp::new(0), point)],
        ))
    };
    mine.push(pin(bbox.min()));
    mine.push(pin(bbox.max()));
    Dataset::from_shared(mine)
}

/// A mini-dataset over shared trajectory handles (empty for `None`).
fn shared_dataset(trajectories: Option<&Vec<Arc<Trajectory>>>) -> Dataset {
    Dataset::from_shared(trajectories.cloned().unwrap_or_default())
}

/// Extracts `user`'s shard from their whole `history` — the path for a new
/// user, a moved grid, or a window the fold rejected — returning it with
/// the number of records read.
fn extract_history(
    attack: &PoiAttack,
    history: Option<&Vec<Arc<Trajectory>>>,
    user: UserId,
    grid: &UniformGrid,
) -> (UserAttackShard, usize) {
    let history = shared_dataset(history);
    (
        attack.extract_user(&history, user, grid),
        history.record_count(),
    )
}

/// Bounding box of one user's protected trajectories (`None` when they hold
/// no records).
fn user_bounding_box(trajectories: &[Arc<Trajectory>]) -> Option<BoundingBox> {
    BoundingBox::from_points(
        trajectories
            .iter()
            .flat_map(|t| t.records().iter().map(|r| &r.point)),
    )
    .ok()
}

/// Union of the per-user boxes — the protected prefix's bounding box as an
/// O(users) fold.
fn union_of(boxes: &BTreeMap<UserId, Option<BoundingBox>>) -> Option<BoundingBox> {
    boxes.values().flatten().copied().reduce(|a, b| a.union(&b))
}

/// A frozen snapshot of one campaign's protected-side caches, offered to
/// *follower* campaigns whose `(pool, seed, attack)` fingerprint matches:
/// their per-candidate states become pointer-cloned copies of the donor's,
/// so the whole pool's anonymize + self-attack for the window is paid once
/// per fingerprint instead of once per campaign. Privacy matching and the
/// feasibility verdict still run per follower (floors differ), and
/// validity is structural — a primed `CandidateState` is a pure function
/// of `(prefix, seed, attack, strategy)`, all of which the fingerprint
/// pins.
#[derive(Debug, Clone)]
pub struct StrategyDonor {
    seed: u64,
    attack_config: PoiAttackConfig,
    windows: usize,
    states: Vec<CandidateState>,
}

impl StrategyDonor {
    /// Whether this snapshot may seed a follower at `(seed, attack)` that
    /// has ingested exactly `windows` windows of the same shared prefix.
    pub fn compatible(&self, seed: u64, attack: &PoiAttackConfig, windows: usize) -> bool {
        self.seed == seed && &self.attack_config == attack && self.windows == windows
    }

    /// The donated state for candidate slot `index`, if it is primed and
    /// carries the expected identity card.
    pub(crate) fn state_for(
        &self,
        index: usize,
        info: &StrategyInfo,
    ) -> Option<&CandidateState> {
        let state = self.states.get(index)?;
        (state.primed && state.info.as_ref() == Some(info)).then_some(state)
    }
}

/// Cross-window **protected-side** attack state, one entry per candidate
/// strategy of the evaluated pool: each candidate's protected prefix
/// (per-user trajectories) and the [`UserAttackShard`]s of its self-attack.
///
/// This is the protected-side twin of [`SessionCache`]. The original-side
/// cache makes the *reference* extraction incremental; this one makes the
/// per-candidate *self-attacks* — the measured dominant per-window cost —
/// incremental too, under the determinism contract each strategy declares
/// through [`AnonymizationStrategy::locality`]:
///
/// * [`UserLocality::UserLocal`] candidates anonymize only the window's
///   new trajectories and fold their output into the changed users'
///   state;
/// * [`UserLocality::GridAnchored`] candidates additionally refresh
///   everyone when the prefix's quantized anchor moves;
/// * [`UserLocality::NonLocal`] candidates are never cached — every window
///   re-runs their full anonymize + self-attack, exactly as batch publish
///   would.
///
/// Whatever a candidate's locality, its protected-side *shards* are only
/// reused while the candidate's own protected bounding box (which anchors
/// the extraction grid) is unchanged — tracked per candidate, since noise
/// mechanisms can widen their protected box on a window that leaves the
/// original box alone.
///
/// The cache is self-validating: it fingerprints the pool (per-slot
/// [`StrategyInfo`]), the selection seed and the attack parameters, and
/// resets any entry whose fingerprint no longer matches, so a session that
/// swaps pools, seeds or attacks mid-stream degrades to correct full
/// recomputation instead of reusing stale state.
#[derive(Debug, Default)]
pub struct StrategySessionCache {
    seed: Option<u64>,
    attack_config: Option<PoiAttackConfig>,
    pub(crate) states: Vec<CandidateState>,
    pub(crate) last_deltas: Vec<CandidateDelta>,
}

impl StrategySessionCache {
    /// Creates an empty cache (sized lazily to the evaluated pool).
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-candidate audit of the most recent window, in pool order.
    /// Empty before the first cached evaluation.
    pub fn last_deltas(&self) -> &[CandidateDelta] {
        &self.last_deltas
    }

    /// Pool-wide aggregate of [`StrategySessionCache::last_deltas`].
    pub fn last_window(&self) -> StrategyCacheDelta {
        StrategyCacheDelta::aggregate(&self.last_deltas)
    }

    /// Number of candidate slots currently tracked.
    pub fn candidates(&self) -> usize {
        self.states.len()
    }

    /// Whether the cache holds no candidate state yet.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Freezes this cache's per-candidate states into a [`StrategyDonor`]
    /// for follower campaigns that have ingested exactly `windows` windows
    /// of the same shared prefix. Pointer clones only — the states' record
    /// data is shared, not copied. `None` before the first cached sweep
    /// (nothing to donate).
    pub fn donor_snapshot(&self, windows: usize) -> Option<StrategyDonor> {
        Some(StrategyDonor {
            seed: self.seed?,
            attack_config: self.attack_config.clone()?,
            windows,
            states: self.states.clone(),
        })
    }

    /// Sizes the cache to `pool` and resets every slot whose fingerprint
    /// (candidate identity, seed, attack parameters) no longer matches —
    /// called by the engine before each cached sweep.
    pub(crate) fn align(&mut self, pool: &StrategyPool, seed: u64, attack: &PoiAttack) {
        if self.seed != Some(seed) || self.attack_config.as_ref() != Some(attack.config()) {
            self.states.clear();
            self.seed = Some(seed);
            self.attack_config = Some(attack.config().clone());
        }
        let infos = pool.infos();
        self.states.truncate(infos.len());
        self.states
            .resize_with(infos.len(), CandidateState::default);
        for (state, info) in self.states.iter_mut().zip(&infos) {
            if state.info.as_ref() != Some(info) {
                *state = CandidateState::default();
            }
        }
    }
}

/// One incremental release: the protected prefix plus the audit trail of
/// both the selection and the cache behaviour that produced it.
#[derive(Debug)]
pub struct PublishedWindow {
    /// Day index of the window that triggered this release.
    pub day: i64,
    /// What the session cache reused vs. refreshed for this window.
    pub delta: WindowDelta,
    /// What the per-strategy protected-side caches reused vs. recomputed
    /// for this window, summed over the pool.
    pub strategies: StrategyCacheDelta,
    /// Whether the original-side utility baseline was folded forward from
    /// the cached counts or rebuilt, and how much it touched.
    pub baseline: BaselineDelta,
    /// The release over the full accumulated prefix — same shape as a
    /// batch [`crate::pipeline::PrivApi::publish`] of that prefix.
    pub published: PublishedDataset,
}

/// A [`PrivApi`] paired with a [`SessionCache`]: the streaming publication
/// front end.
///
/// # Example
///
/// ```
/// use mobility::gen::{CityModel, PopulationConfig};
/// use mobility::WindowedDataset;
/// use privapi::streaming::StreamingPublisher;
/// use privapi::pipeline::PrivApiConfig;
///
/// let data = CityModel::builder().seed(3).build().generate_population(
///     &PopulationConfig { users: 3, days: 2, ..PopulationConfig::default() },
/// );
/// let windows = WindowedDataset::partition(&data);
/// let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
/// for window in &windows {
///     let release = publisher.publish_window(window).unwrap();
///     assert_eq!(release.day, window.day());
/// }
/// assert_eq!(publisher.cache().windows_ingested(), windows.len());
/// ```
#[derive(Debug)]
pub struct StreamingPublisher {
    privapi: PrivApi,
    cache: SessionCache,
}

impl StreamingPublisher {
    /// Creates a publisher with the given configuration and the shared
    /// default pool, starting an empty session.
    pub fn new(config: PrivApiConfig) -> Self {
        Self::from_privapi(PrivApi::new(config))
    }

    /// Wraps an already-configured middleware (custom pool, attack or
    /// execution mode), starting an empty session.
    pub fn from_privapi(privapi: PrivApi) -> Self {
        Self {
            privapi,
            cache: SessionCache::new(),
        }
    }

    /// The wrapped middleware.
    pub fn privapi(&self) -> &PrivApi {
        &self.privapi
    }

    /// The session's cross-window cache state.
    pub fn cache(&self) -> &SessionCache {
        &self.cache
    }

    /// Publishes one day window incrementally — see
    /// [`crate::pipeline::PrivApi::publish_window`].
    ///
    /// # Errors
    ///
    /// * [`PrivapiError::EmptyDataset`] for an empty window;
    /// * [`PrivapiError::NoFeasibleStrategy`] when no pooled strategy can
    ///   meet the privacy floor on the accumulated prefix.
    pub fn publish_window(
        &mut self,
        window: &DatasetWindow,
    ) -> Result<PublishedWindow, PrivapiError> {
        self.privapi.publish_window(&mut self.cache, window)
    }

    /// Replays every window of a partitioned dataset through
    /// [`StreamingPublisher::publish_window`], oldest first, returning the
    /// per-window releases.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first window-publication error.
    pub fn publish_all(
        &mut self,
        windows: &WindowedDataset,
    ) -> Result<Vec<PublishedWindow>, PrivapiError> {
        windows.iter().map(|w| self.publish_window(w)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PrivApi;
    use mobility::gen::{CityModel, PopulationConfig};

    fn dataset(seed: u64, users: usize, days: usize) -> Dataset {
        CityModel::builder()
            .seed(seed)
            .build()
            .generate_population(&PopulationConfig {
                users,
                days,
                sampling_interval_s: 240,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            })
    }

    #[test]
    fn streaming_matches_batch_prefix_publish() {
        // The acceptance invariant, exercised window by window: the
        // incremental release of window i is byte-identical (selection
        // report, strategy, privacy report, released data) to a batch
        // publish of the concatenated prefix 0..=i.
        let ds = dataset(61, 4, 3);
        let windows = WindowedDataset::partition(&ds);
        assert!(windows.len() >= 3, "want several windows");
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        for (i, window) in windows.iter().enumerate() {
            let incremental = publisher.publish_window(window).unwrap();
            let batch = PrivApi::default().publish(&windows.prefix(i)).unwrap();
            assert_eq!(
                incremental.published.selection, batch.selection,
                "window {i}"
            );
            assert_eq!(incremental.published.strategy, batch.strategy, "window {i}");
            assert_eq!(incremental.published.privacy, batch.privacy, "window {i}");
            assert_eq!(incremental.published.dataset, batch.dataset, "window {i}");
        }
    }

    #[test]
    fn windows_skip_every_full_extraction_with_a_local_pool() {
        // Batch publish costs pool + 1 full extractions per release (one
        // original-side pass plus one full self-attack per candidate). The
        // streaming path pays neither: the original side goes through the
        // session cache's per-user delta path, and every default-pool
        // candidate declares a cacheable locality, so its self-attack goes
        // through the per-strategy shard cache. The full-pass probe must
        // therefore read zero on every window — the only full passes left
        // are those of non-local candidates, of which the default pool has
        // none.
        let ds = dataset(93, 4, 3);
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let pool = publisher.privapi().pool().len();
        let probe = publisher.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let release = publisher.publish_window(window).unwrap();
            let per_window = probe.extractions() - before;
            assert!(
                per_window < pool,
                "window {i}: {per_window} full extractions, want fewer than pool = {pool}"
            );
            assert_eq!(per_window, 0, "window {i}: every candidate is cached");
            assert_eq!(release.strategies.candidates, pool);
            assert_eq!(release.strategies.full_fallbacks, 0);
        }
    }

    #[test]
    fn sparse_window_costs_scale_with_changed_users() {
        // Two users on day 0; only user 1 has day-1 records (inside the
        // day-0 box), so day 1 must re-anonymize and re-extract exactly
        // one user per user-local candidate — the acceptance counting
        // test: strictly fewer than `pool` full protected-side
        // extractions, and per-user work proportional to the *changed*
        // users rather than the population.
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let site = |lon: f64| GeoPoint::new(45.75, lon).unwrap();
        let mut records = Vec::new();
        for day in 0..2i64 {
            for i in 0..240i64 {
                let lon = 4.80 + 0.0004 * (i.min(60)) as f64;
                records.push(LocationRecord::new(
                    UserId(1),
                    Timestamp::new(day * DAY_SECONDS + i * 300),
                    site(lon),
                ));
            }
        }
        for i in 0..240i64 {
            records.push(LocationRecord::new(
                UserId(2),
                Timestamp::new(i * 300),
                site(4.81),
            ));
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        assert_eq!(windows.len(), 2);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let pool = publisher.privapi().pool().len();
        let probe = publisher.privapi().attack().clone();
        publisher.publish_window(&windows.windows()[0]).unwrap();

        let full_before = probe.extractions();
        let per_user_before = probe.user_extractions();
        let release = publisher.publish_window(&windows.windows()[1]).unwrap();
        assert!(
            probe.extractions() - full_before < pool,
            "an inactive user must spare full protected-side extractions"
        );
        // Batch would pay (pool + 1) full passes × 2 users of per-user
        // extraction work; the delta paths must beat that.
        let per_user_spent = probe.user_extractions() - per_user_before;
        assert!(
            per_user_spent < (pool + 1) * 2,
            "{per_user_spent} per-user extractions is no better than batch"
        );
        // Every user-local candidate re-anonymized exactly the changed
        // user and reused the inactive one's protected trajectories.
        assert!(!release.delta.grid_rebuilt);
        for candidate in publisher.cache().strategies().last_deltas() {
            assert!(!candidate.full_fallback, "{}", candidate.info);
            assert_eq!(
                candidate.users_refreshed, 1,
                "{}: only user 1 changed",
                candidate.info
            );
            assert_eq!(candidate.users_reused, 1, "{}", candidate.info);
        }
        assert_eq!(release.strategies.users_refreshed, pool);
        assert_eq!(release.strategies.users_reused, pool);
    }

    #[test]
    fn cache_reuses_unchanged_users_and_tracks_deltas() {
        // Two users on day 0; only one of them has day-1 records that stay
        // inside the day-0 bounding box, so day 1 must refresh exactly that
        // user and reuse the other's shard.
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let site = |lon: f64| GeoPoint::new(45.75, lon).unwrap();
        let mut records = Vec::new();
        // User 1: a commute plus long dwells on both days, spanning the box.
        for day in 0..2i64 {
            for i in 0..240i64 {
                let lon = 4.80 + 0.0004 * (i.min(60)) as f64;
                records.push(LocationRecord::new(
                    UserId(1),
                    Timestamp::new(day * DAY_SECONDS + i * 300),
                    site(lon),
                ));
            }
        }
        // User 2: day 0 only, dwelling inside the same box.
        for i in 0..240i64 {
            records.push(LocationRecord::new(
                UserId(2),
                Timestamp::new(i * 300),
                site(4.81),
            ));
        }
        let ds = Dataset::from_records(records);
        let windows = WindowedDataset::partition(&ds);
        assert_eq!(windows.len(), 2);

        let attack = PoiAttack::default();
        let mut cache = SessionCache::new();
        let d0 = cache.advance(&attack, &windows.windows()[0]).unwrap();
        assert_eq!(d0.users_refreshed, 2);
        assert_eq!(d0.users_reused, 0);
        assert!(!d0.grid_rebuilt, "first window never reports a rebuild");
        let user2_day0 = cache.shards()[&UserId(2)].clone();

        let d1 = cache.advance(&attack, &windows.windows()[1]).unwrap();
        assert!(!d1.grid_rebuilt, "day 1 stays inside the day-0 bbox");
        assert_eq!(d1.users_refreshed, 1, "only user 1 has new records");
        assert_eq!(d1.users_reused, 1);
        // The reused shard is bitwise yesterday's.
        assert_eq!(cache.shards()[&UserId(2)].pois, user2_day0.pois);
        assert_eq!(
            cache.shards()[&UserId(2)].threshold_s,
            user2_day0.threshold_s
        );
        assert_eq!(cache.windows_ingested(), 2);
        assert_eq!(cache.reference().len(), 2);
        assert_eq!(
            cache.reference_index().unwrap().user_count(),
            2,
            "index covers both users"
        );
    }

    #[test]
    fn bbox_growth_invalidates_every_shard() {
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for user in 1..=2u64 {
            for i in 0..60i64 {
                records.push(LocationRecord::new(
                    UserId(user),
                    Timestamp::new(i * 300),
                    GeoPoint::new(45.75, 4.80 + 0.001 * user as f64).unwrap(),
                ));
            }
        }
        // Day 1: user 1 wanders far outside the day-0 box.
        for i in 0..60i64 {
            records.push(LocationRecord::new(
                UserId(1),
                Timestamp::new(DAY_SECONDS + i * 300),
                GeoPoint::new(45.95, 5.10).unwrap(),
            ));
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        let attack = PoiAttack::default();
        let mut cache = SessionCache::new();
        cache.advance(&attack, &windows.windows()[0]).unwrap();
        let d1 = cache.advance(&attack, &windows.windows()[1]).unwrap();
        assert!(d1.grid_rebuilt, "widened bbox must rebuild the grid");
        assert_eq!(d1.users_refreshed, 2, "a grid rebuild touches everyone");
        assert_eq!(d1.users_reused, 0);
    }

    #[test]
    fn bbox_growth_invalidates_only_grid_anchored_anonymizations() {
        // Same shape as `bbox_growth_invalidates_every_shard`, driven
        // through the full publish path: when day 1 widens the prefix
        // bounding box, only the grid-anchored candidates (spatial
        // cloaking) must re-anonymize *everyone*; user-local candidates
        // re-anonymize just the user who moved. (Their protected-side
        // *shards* may still refresh wholesale — the protected box of a
        // noise mechanism widens with the original — which is what the
        // separate shard counters track.)
        use crate::strategy::UserLocality;
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for user in 1..=2u64 {
            for i in 0..240i64 {
                records.push(LocationRecord::new(
                    UserId(user),
                    Timestamp::new(i * 300),
                    GeoPoint::new(45.75, 4.80 + 0.001 * user as f64 + 0.0004 * (i % 50) as f64)
                        .unwrap(),
                ));
            }
        }
        for i in 0..240i64 {
            records.push(LocationRecord::new(
                UserId(1),
                Timestamp::new(DAY_SECONDS + i * 300),
                GeoPoint::new(45.95, 5.10 + 0.0004 * (i % 50) as f64).unwrap(),
            ));
        }
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        publisher.publish_window(&windows.windows()[0]).unwrap();
        let release = publisher.publish_window(&windows.windows()[1]).unwrap();
        assert!(release.delta.grid_rebuilt, "day 1 widens the prefix box");
        let deltas = publisher.cache().strategies().last_deltas();
        assert!(!deltas.is_empty());
        for candidate in deltas {
            match candidate.locality {
                UserLocality::GridAnchored => {
                    assert_eq!(
                        candidate.users_refreshed, 2,
                        "{}: a widened box shifts every cloaking cell",
                        candidate.info
                    );
                    assert_eq!(candidate.users_reused, 0, "{}", candidate.info);
                }
                UserLocality::UserLocal => {
                    assert_eq!(
                        candidate.users_refreshed, 1,
                        "{}: only user 1 moved",
                        candidate.info
                    );
                    assert_eq!(candidate.users_reused, 1, "{}", candidate.info);
                }
                UserLocality::NonLocal => {
                    panic!(
                        "{}: default pool has no non-local candidate",
                        candidate.info
                    )
                }
            }
        }
    }

    /// A strategy that never overrides the incremental surface: the
    /// conservative [`UserLocality::NonLocal`] default.
    struct OpaqueShift;
    impl crate::strategy::AnonymizationStrategy for OpaqueShift {
        fn info(&self) -> crate::strategy::StrategyInfo {
            crate::strategy::StrategyInfo {
                name: "opaque-shift".into(),
                params: String::new(),
            }
        }
        fn anonymize(&self, dataset: &Dataset, _seed: u64) -> Dataset {
            // A whole-dataset rewrite (translate everything towards the
            // dataset centroid) that genuinely couples users.
            let n = dataset.record_count().max(1) as f64;
            let mean_lat = dataset
                .iter_records()
                .map(|r| r.point.latitude())
                .sum::<f64>()
                / n;
            let mean_lon = dataset
                .iter_records()
                .map(|r| r.point.longitude())
                .sum::<f64>()
                / n;
            dataset.map_trajectories(|t| {
                let records = t
                    .records()
                    .iter()
                    .map(|r| {
                        mobility::LocationRecord::new(
                            r.user,
                            r.time,
                            geo::GeoPoint::clamped(
                                r.point.latitude() * 0.7 + mean_lat * 0.3,
                                r.point.longitude() * 0.7 + mean_lon * 0.3,
                            ),
                        )
                    })
                    .collect();
                mobility::Trajectory::new(t.user(), records)
            })
        }
    }

    #[test]
    fn non_local_candidates_always_fall_back_to_full_extraction() {
        use crate::pipeline::PrivApi;
        use crate::pool::StrategyPool;
        let ds = dataset(7, 3, 3);
        let windows = WindowedDataset::partition(&ds);
        let make = || {
            PrivApi::new(PrivApiConfig {
                privacy_floor: 1.0, // keep every candidate feasible
                ..PrivApiConfig::default()
            })
            .with_pool(
                StrategyPool::new()
                    .with_speed_smoothing(&[100.0])
                    .unwrap()
                    .with(Box::new(OpaqueShift)),
            )
        };
        let privapi = make();
        let probe = privapi.attack().clone();
        let mut cache = SessionCache::new();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let release = privapi.publish_window(&mut cache, window).unwrap();
            // Exactly one full protected-side extraction per window: the
            // non-local candidate. The local candidate stays cached.
            assert_eq!(
                probe.extractions() - before,
                1,
                "window {i}: only the non-local candidate pays a full pass"
            );
            assert_eq!(release.strategies.full_fallbacks, 1, "window {i}");
            let deltas = cache.strategies().last_deltas();
            assert!(deltas[1].full_fallback, "window {i}");
            assert!(!deltas[0].full_fallback, "window {i}");
            // And the cached sweep still matches a batch publish.
            let batch = make().publish(&windows.prefix(i)).unwrap();
            assert_eq!(release.published.selection, batch.selection, "window {i}");
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
        }
    }

    /// A per-trajectory strategy that moves every record back by three
    /// times its day index in days: day `d` lands on day `−2d`, so each
    /// window's output precedes all the output before it.
    struct Rewind;
    impl crate::strategy::AnonymizationStrategy for Rewind {
        fn info(&self) -> crate::strategy::StrategyInfo {
            crate::strategy::StrategyInfo {
                name: "rewind".into(),
                params: String::new(),
            }
        }
        fn anonymize(&self, dataset: &Dataset, _seed: u64) -> Dataset {
            dataset.map_trajectories(|t| {
                let records = t
                    .records()
                    .iter()
                    .map(|r| {
                        let back = 3 * r.time.day_index() * mobility::DAY_SECONDS;
                        LocationRecord::new(
                            r.user,
                            Timestamp::new(r.time.seconds() - back),
                            r.point,
                        )
                    })
                    .collect();
                Trajectory::new(t.user(), records)
            })
        }
        fn locality(&self) -> UserLocality {
            UserLocality::UserLocal
        }
    }

    #[test]
    fn out_of_order_protected_output_takes_the_full_extraction() {
        use crate::pool::StrategyPool;
        let ds = dataset(57, 3, 4);
        let windows = WindowedDataset::partition(&ds);
        let attack = PoiAttack::default();

        // The fold itself refuses a window whose output precedes the shard.
        let day0 = Rewind.anonymize(&windows.prefix(0), 0);
        let day1 = Rewind.anonymize(windows.windows()[1].dataset(), 0);
        let grid = attack.extraction_grid(&day0).unwrap();
        let user = day0.users()[0];
        let shard = attack.extract_user(&day0, user, &grid);
        assert!(attack.fold_user(shard, &day1, &grid).is_none());

        // Streaming still releases batch's bytes: every refused fold
        // re-extracts the user's whole protected history.
        let make = || {
            PrivApi::new(PrivApiConfig {
                privacy_floor: 1.0,
                ..PrivApiConfig::default()
            })
            .with_pool(StrategyPool::new().with(Box::new(Rewind)))
        };
        let privapi = make();
        let mut cache = SessionCache::new();
        for (i, window) in windows.iter().enumerate() {
            let release = privapi.publish_window(&mut cache, window).unwrap();
            let batch = make().publish(&windows.prefix(i)).unwrap();
            assert_eq!(release.published.selection, batch.selection, "window {i}");
            assert_eq!(release.published.dataset, batch.dataset, "window {i}");
            let candidate = &cache.strategies().last_deltas()[0];
            assert!(!candidate.full_fallback, "window {i}");
            assert_eq!(
                candidate.records_anonymized,
                window.dataset().record_count(),
                "window {i}: only the window is anonymized"
            );
            assert_eq!(
                candidate.records_extracted,
                cache.prefix().record_count(),
                "window {i}: every user's history is re-extracted"
            );
            // The cached shards are exactly a fresh self-attack's.
            let protected = Rewind.anonymize(cache.prefix(), privapi.config().seed);
            let cached = &cache.strategies().states[0].shards;
            for shard in attack.extract_shards(&protected) {
                assert_eq!(*cached[&shard.user], shard, "window {i}");
            }
        }
    }

    #[test]
    fn steady_window_work_tracks_the_window_not_the_prefix() {
        // Three weeks with fixed participation: everyone on day 0, then
        // exactly two of four users a day. A steady window must anonymize
        // and extract its own records — once per candidate — whatever the
        // day index, never the participants' accumulated histories.
        let ds = dataset(71, 4, 21);
        let records: Vec<LocationRecord> = ds
            .iter_records()
            .filter(|r| {
                let day = r.time.day_index();
                day == 0 || (r.user.0 as i64 - day).rem_euclid(4) < 2
            })
            .copied()
            .collect();
        let windows = WindowedDataset::partition(&Dataset::from_records(records));
        assert_eq!(windows.len(), 21);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let pool = publisher.privapi().pool().len();
        let mut per_record: Vec<f64> = Vec::new();
        for (i, window) in windows.iter().enumerate() {
            let release = publisher.publish_window(window).unwrap();
            if i == 0 {
                continue;
            }
            let own = window.dataset().record_count();
            assert_eq!(window.users().len(), 2, "window {i}");
            assert!(
                !release.delta.grid_rebuilt,
                "window {i}: the day-0 box holds"
            );
            assert_eq!(release.delta.records_extracted, own, "window {i}");
            assert_eq!(
                release.strategies.records_anonymized,
                own * pool,
                "window {i}"
            );
            // Protected-side folds read the window's output; only a
            // candidate whose protected grid moved re-extracts history.
            let steady: usize = publisher
                .cache()
                .strategies()
                .last_deltas()
                .iter()
                .filter(|c| !c.protected_grid_rebuilt)
                .map(|c| c.records_extracted)
                .sum();
            assert!(
                steady <= own * pool,
                "window {i}: {steady} > {own} x {pool}"
            );
            per_record.push(steady as f64 / own as f64);
        }
        let third = per_record.len() / 3;
        let first = per_record[..third].iter().sum::<f64>() / third as f64;
        let last = per_record[per_record.len() - third..].iter().sum::<f64>() / third as f64;
        assert!(
            last <= 1.2 * first,
            "per-record work grew: {first:.2} -> {last:.2}"
        );
    }

    #[test]
    fn attack_config_change_mid_session_resets_derived_state() {
        // The original-side cache fingerprints the attack parameters:
        // advancing the same session with a different configuration must
        // drop the cached shards/reference/index and re-extract under the
        // new parameters instead of silently matching at stale distances.
        // Parity with a batch publish under the new attack is the proof.
        let ds = dataset(31, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut cache = SessionCache::new();
        PrivApi::default()
            .publish_window(&mut cache, &windows.windows()[0])
            .unwrap();
        let custom = PoiAttack::new(PoiAttackConfig {
            match_distance: geo::Meters::new(500.0),
            ..PoiAttackConfig::default()
        });
        let release = PrivApi::default()
            .with_attack(custom.clone())
            .publish_window(&mut cache, &windows.windows()[1])
            .unwrap();
        let batch = PrivApi::default()
            .with_attack(custom)
            .publish(&windows.prefix(1))
            .unwrap();
        assert_eq!(release.published.selection, batch.selection);
        assert_eq!(release.published.privacy, batch.privacy);
        assert_eq!(release.published.dataset, batch.dataset);
        assert!(
            release.delta.grid_rebuilt,
            "a config change must be reported as a grid rebuild"
        );
        assert_eq!(release.delta.users_reused, 0, "nothing stale survives");
    }

    #[test]
    fn seed_change_mid_session_resets_the_strategy_cache() {
        // The cache fingerprints the selection seed: publishing the same
        // session through a middleware with a different seed must not
        // reuse protected data anonymized under the old one. Parity with a
        // batch publish at the *new* seed is the proof.
        let ds = dataset(47, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut cache = SessionCache::new();
        let first = PrivApi::new(PrivApiConfig {
            seed: 1,
            ..PrivApiConfig::default()
        });
        first
            .publish_window(&mut cache, &windows.windows()[0])
            .unwrap();
        let second = PrivApi::new(PrivApiConfig {
            seed: 2,
            ..PrivApiConfig::default()
        });
        let release = second
            .publish_window(&mut cache, &windows.windows()[1])
            .unwrap();
        let batch = PrivApi::new(PrivApiConfig {
            seed: 2,
            ..PrivApiConfig::default()
        })
        .publish(&windows.prefix(1))
        .unwrap();
        assert_eq!(release.published.selection, batch.selection);
        assert_eq!(release.published.dataset, batch.dataset);
        // The reset shows up as a full re-prime: nothing reused.
        assert_eq!(release.strategies.users_reused, 0);
    }

    #[test]
    fn duplicate_or_out_of_order_windows_are_rejected_without_ingesting() {
        let ds = dataset(29, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        publisher.publish_window(&windows.windows()[1]).unwrap();
        let records_before = publisher.cache().prefix().record_count();
        let strategy_deltas_before = publisher.cache().strategies().last_deltas().to_vec();
        assert!(!strategy_deltas_before.is_empty());
        // Re-sending the same window (a retry after a failed release, or a
        // bug) must fail loudly and leave the session untouched — the
        // original-side prefix *and* the per-strategy protected caches.
        for stale in [&windows.windows()[1], &windows.windows()[0]] {
            let err = publisher.publish_window(stale).unwrap_err();
            // The typed rejection carries both the offending day and the
            // session's high-water mark, at every layer of the stack.
            assert!(
                matches!(
                    err,
                    PrivapiError::StreamError { day, last_day }
                        if day == stale.day() && last_day == windows.windows()[1].day()
                ),
                "got {err}"
            );
            assert_eq!(publisher.cache().prefix().record_count(), records_before);
            assert_eq!(publisher.cache().windows_ingested(), 1);
            assert_eq!(
                publisher.cache().strategies().last_deltas(),
                strategy_deltas_before.as_slice(),
                "a rejected window must not touch the strategy caches"
            );
        }
        assert_eq!(
            publisher.cache().last_day(),
            Some(windows.windows()[1].day())
        );
    }

    #[test]
    fn donor_derivation_is_byte_identical_and_skips_extraction() {
        // A population of three users where users 1 and 2 attain the
        // bounding-box extremes; the {1, 2} subset view therefore shares
        // the population's extraction grid, and its shards can be cloned
        // from the population cache instead of re-extracted.
        use geo::GeoPoint;
        use mobility::{LocationRecord, Timestamp, DAY_SECONDS};
        let mut records = Vec::new();
        for day in 0..2i64 {
            for i in 0..120i64 {
                let t = |s: i64| Timestamp::new(day * DAY_SECONDS + s * 300);
                records.push(LocationRecord::new(
                    UserId(1),
                    t(i),
                    GeoPoint::new(45.70, 4.78).unwrap(),
                ));
                records.push(LocationRecord::new(
                    UserId(2),
                    t(i),
                    GeoPoint::new(45.80, 4.90).unwrap(),
                ));
                records.push(LocationRecord::new(
                    UserId(3),
                    t(i),
                    GeoPoint::new(45.75, 4.85).unwrap(),
                ));
            }
        }
        let population = Dataset::from_records(records);
        let filter = mobility::ParticipantFilter::users([UserId(1), UserId(2)]);
        let subset = filter.filter_dataset(&population);
        assert_eq!(subset.bounding_box(), population.bounding_box());
        let pop_windows = WindowedDataset::partition(&population);
        let sub_windows = WindowedDataset::partition(&subset);

        let attack = PoiAttack::default();
        let mut donor = PopulationCache::new();
        let mut derived = PopulationCache::new();
        let mut standalone = PopulationCache::new();
        for (pop_w, sub_w) in pop_windows.iter().zip(sub_windows.iter()) {
            donor.advance(&attack, pop_w).unwrap();
            let before = attack.user_extractions();
            let delta = derived
                .advance_derived(&attack, sub_w, Some(&donor))
                .unwrap();
            assert_eq!(delta.users_derived, 2, "both subset users derive");
            assert_eq!(delta.users_refreshed, 0, "nothing re-extracted");
            assert_eq!(
                attack.user_extractions(),
                before,
                "derivation must not pay the per-user probe"
            );
            standalone.advance(&attack, sub_w).unwrap();
            assert_eq!(derived.shards(), standalone.shards(), "shards drifted");
            assert_eq!(derived.reference(), standalone.reference());
        }

        // A donor whose grid does not match (here: a fresh cache that
        // never ingested the window) is ignored, not trusted.
        let mut no_donor_match = PopulationCache::new();
        let stale_donor = PopulationCache::new();
        let delta = no_donor_match
            .advance_derived(&attack, &sub_windows.windows()[0], Some(&stale_donor))
            .unwrap();
        assert_eq!(delta.users_derived, 0);
        assert_eq!(delta.users_refreshed, 2);
        assert_eq!(
            no_donor_match.shards(),
            &standalone_prefix_shards(&attack, &sub_windows)
        );
    }

    /// Shards of a from-scratch cache over the first window only.
    fn standalone_prefix_shards(
        attack: &PoiAttack,
        windows: &WindowedDataset,
    ) -> BTreeMap<UserId, UserAttackShard> {
        let mut cache = PopulationCache::new();
        cache.advance(attack, &windows.windows()[0]).unwrap();
        cache.shards().clone()
    }

    #[test]
    fn fresh_session_is_empty() {
        let cache = SessionCache::new();
        assert_eq!(cache.windows_ingested(), 0);
        assert!(cache.reference_index().is_none());
        assert_eq!(cache.prefix().record_count(), 0);
        assert!(cache.shards().is_empty());
        assert!(cache.reference().is_empty());
        assert!(cache.strategies().is_empty());
        assert_eq!(cache.strategies().candidates(), 0);
        assert!(cache.strategies().last_deltas().is_empty());
        assert_eq!(
            cache.strategies().last_window(),
            StrategyCacheDelta::default()
        );
        assert!(WindowedDataset::partition(&Dataset::new()).is_empty());
    }

    #[test]
    fn publish_all_replays_every_window() {
        let ds = dataset(17, 3, 2);
        let windows = WindowedDataset::partition(&ds);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let releases = publisher.publish_all(&windows).unwrap();
        assert_eq!(releases.len(), windows.len());
        assert_eq!(
            releases.iter().map(|r| r.day).collect::<Vec<_>>(),
            windows.days()
        );
        assert_eq!(publisher.cache().windows_ingested(), windows.len());
        // The final release covers the whole dataset's record count.
        let last = releases.last().unwrap();
        assert_eq!(publisher.cache().prefix().record_count(), ds.record_count());
        assert!(last.published.selection.winner().is_some());
    }
}
