//! The parallel, cache-aware strategy-evaluation engine.
//!
//! "Thanks to its knowledge on the whole dataset it can use an optimal
//! anonymization strategy on mobility data while still offering a
//! satisfactory level of utility" (paper, §1). Searching the strategy pool
//! is the middleware's hottest path: every candidate must be anonymized,
//! self-attacked and utility-scored. Two structural costs dominate a naive
//! loop, and this module removes both:
//!
//! 1. **Per-candidate recomputation of original-dataset projections.** The
//!    objective's view of the *original* dataset — the crowded-places grid
//!    and top-k set, the traffic grid, day split and ground-truth histogram
//!    — depends only on the original data, yet the legacy selector rebuilt
//!    it inside `utility_of` for every candidate. [`EvalContext`] builds
//!    each projection exactly once and shares it across the pool.
//! 2. **Sequential candidate evaluation.** Candidates are independent given
//!    the shared context, so [`EvaluationEngine`] scores them with rayon's
//!    data parallelism. Results are collected in pool order and the winner
//!    is chosen by the total, deterministic `(utility, −recall, index)`
//!    ordering, so the parallel report is **identical** to the sequential
//!    one — verified by a property test over seeds.
//! 3. **Per-candidate original-side attack work.** The reference POIs and
//!    their spatial index depend only on the original dataset, yet the
//!    legacy publish path extracted them outside the engine and every
//!    candidate rebuilt its own matching scan. [`EvalContext`] now carries
//!    the original extraction (per-user [`UserAttackShard`]s, built at most
//!    once per run via [`EvalContext::extracting`]) and a shared
//!    [`ReferenceIndex`] every candidate probes.

use crate::attack::{
    PoiAttack, PoiAttackReport, ReferenceIndex, ReferencePois, UserAttackShard,
};
use crate::error::PrivapiError;
use crate::metrics::{spatial_distortion, CrowdedBaseline, TrafficBaseline};
use crate::pool::StrategyPool;
use crate::selection::{CandidateResult, Objective, SelectionReport};
use crate::streaming::{
    CandidateDelta, CandidateState, StrategyDonor, StrategySessionCache, SweepPopulation,
    WindowUpdate,
};
use geo::BoundingBox;
use mobility::{Dataset, Trajectory, UserId};
use rayon::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Arc;

/// How the engine schedules candidate evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One candidate at a time, in pool order.
    Sequential,
    /// All candidates fanned out over the available cores (the default).
    #[default]
    Parallel,
}

/// Shared, read-only original-dataset state, computed once per selection
/// run and reused by every candidate:
///
/// * the per-objective utility projection (crowded/traffic baselines);
/// * the reference POIs privacy is scored against — either borrowed from
///   the caller or **extracted here exactly once**
///   ([`EvalContext::extracting`]), together with the per-user
///   [`UserAttackShard`]s the extraction decomposed into;
/// * the [`ReferenceIndex`] bucketing those POIs for neighbor-cell matching,
///   probed by every candidate instead of rebuilt per candidate.
#[derive(Debug)]
pub struct EvalContext<'a> {
    original: &'a Dataset,
    reference: Cow<'a, ReferencePois>,
    shards: Option<Vec<UserAttackShard>>,
    reference_index: Cow<'a, ReferenceIndex>,
    baseline: ObjectiveBaseline,
    /// The caller's per-user decomposition of `original` (shared trajectory
    /// handles, prefix order) — set on the streaming path so candidate
    /// refreshes can re-anonymize one user against a minimal view instead
    /// of scanning the whole prefix. `None` on the batch paths.
    by_user: Option<&'a BTreeMap<UserId, Vec<Arc<Trajectory>>>>,
    /// `original`'s bounding box, when the caller already tracks it — the
    /// pin for grid-anchored per-user mini-views.
    original_bbox: Option<BoundingBox>,
}

/// The objective-specific precomputation over the original dataset: what
/// [`EvalContext::utility_of`] scores every candidate against. Built once
/// per batch run by the context itself, or folded forward window to window
/// by the streaming session cache
/// ([`crate::streaming::PopulationCache`]) and handed to
/// [`EvalContext::from_cache`].
#[derive(Debug)]
pub enum ObjectiveBaseline {
    /// Crowded places: grid + original top-k hot cells.
    Crowded(CrowdedBaseline),
    /// Traffic: grid, day split and final-day ground truth.
    Traffic(TrafficBaseline),
    /// Distortion pairs original and protected trajectories directly;
    /// there is no original-only projection worth caching.
    Distortion,
    /// The baseline could not be built (e.g. single-day data under the
    /// traffic objective). Mirrors the legacy per-candidate error path:
    /// every candidate scores utility 0.
    Unavailable,
}

impl ObjectiveBaseline {
    /// Precomputes the original-side projection for `objective`.
    pub(crate) fn build(original: &Dataset, objective: Objective) -> Self {
        match objective {
            Objective::CrowdedPlaces { cell, k } => CrowdedBaseline::new(original, cell, k)
                .map(ObjectiveBaseline::Crowded)
                .unwrap_or(ObjectiveBaseline::Unavailable),
            Objective::Traffic { cell } => TrafficBaseline::new(original, cell)
                .map(ObjectiveBaseline::Traffic)
                .unwrap_or(ObjectiveBaseline::Unavailable),
            Objective::Distortion => ObjectiveBaseline::Distortion,
        }
    }
}

impl<'a> EvalContext<'a> {
    /// Builds the shared projections for `objective` over `original`,
    /// scoring privacy against a caller-supplied `reference` (usually the
    /// attack's own extraction from the raw data, or ground truth).
    ///
    /// `attack` supplies the match distance the [`ReferenceIndex`] is keyed
    /// with — pass the same attack the engine will evaluate with.
    pub fn new(
        attack: &PoiAttack,
        original: &'a Dataset,
        reference: &'a ReferencePois,
        objective: Objective,
    ) -> Self {
        let reference_index = attack.index_reference(reference);
        Self {
            original,
            reference: Cow::Borrowed(reference),
            shards: None,
            reference_index: Cow::Owned(reference_index),
            baseline: ObjectiveBaseline::build(original, objective),
            by_user: None,
            original_bbox: None,
        }
    }

    /// Builds a context around *cached* extraction state: the reference
    /// POIs and their spatial index come from a caller-maintained cache
    /// (the streaming publisher's session cache, amended window by window)
    /// instead of being extracted or indexed here.
    ///
    /// The objective `baseline` is caller-supplied too: the streaming
    /// session cache folds it forward window to window
    /// (`PopulationCache::baseline_for`) instead of
    /// re-projecting the whole accumulated prefix here. This is how the
    /// engine advances from one day window to the next with warm
    /// original-side state: zero extraction work for unchanged users,
    /// baseline work proportional to the new window's records.
    pub fn from_cache(
        original: &'a Dataset,
        reference: &'a ReferencePois,
        reference_index: &'a ReferenceIndex,
        baseline: ObjectiveBaseline,
    ) -> Self {
        Self {
            original,
            reference: Cow::Borrowed(reference),
            shards: None,
            reference_index: Cow::Borrowed(reference_index),
            baseline,
            by_user: None,
            original_bbox: None,
        }
    }

    /// Attaches the caller's per-user decomposition of the original prefix
    /// (and its tracked bounding box) so candidate refreshes can
    /// re-anonymize single users against minimal views — the streaming
    /// publish path's O(active users) lever.
    pub(crate) fn with_population(
        mut self,
        by_user: &'a BTreeMap<UserId, Vec<Arc<Trajectory>>>,
        bbox: Option<BoundingBox>,
    ) -> Self {
        self.by_user = Some(by_user);
        self.original_bbox = bbox;
        self
    }

    /// Like [`EvalContext::new`], but the context *owns* the reference:
    /// `attack` extracts the original dataset's per-user shards here —
    /// exactly once per selection run — and the reference POIs and their
    /// index are derived from those shards. This is the publish path: no
    /// caller-side extraction, no duplicate original-side attack.
    ///
    /// The full shards (dwell fields included) are retained for the run's
    /// lifetime: they are the cache unit the streaming/incremental
    /// publication path (ROADMAP) reuses across per-day releases, and
    /// their memory is bounded by the original dataset's visited-cell
    /// count — small next to the protected dataset copies the sweep holds
    /// per worker. Callers that only need matching can stay on
    /// [`EvalContext::new`], which stores no shards.
    pub fn extracting(attack: &PoiAttack, original: &'a Dataset, objective: Objective) -> Self {
        let shards = attack.extract_shards(original);
        let reference: ReferencePois =
            shards.iter().map(|s| (s.user, s.pois.clone())).collect();
        let reference_index = attack.index_reference(&reference);
        Self {
            original,
            reference: Cow::Owned(reference),
            shards: Some(shards),
            reference_index: Cow::Owned(reference_index),
            baseline: ObjectiveBaseline::build(original, objective),
            by_user: None,
            original_bbox: None,
        }
    }

    /// The original dataset under evaluation.
    pub fn original(&self) -> &Dataset {
        self.original
    }

    /// The reference POIs privacy is scored against.
    pub fn reference(&self) -> &ReferencePois {
        &self.reference
    }

    /// The spatial index over the reference POIs, shared by every
    /// candidate evaluation.
    pub fn reference_index(&self) -> &ReferenceIndex {
        &self.reference_index
    }

    /// The original dataset's per-user attack shards, when this context
    /// performed the extraction itself ([`EvalContext::extracting`]).
    pub fn shards(&self) -> Option<&[UserAttackShard]> {
        self.shards.as_deref()
    }

    /// The objective baseline candidates are scored against.
    pub(crate) fn baseline(&self) -> &ObjectiveBaseline {
        &self.baseline
    }

    /// The caller's per-user decomposition of the original prefix, when
    /// attached ([`EvalContext::with_population`]).
    pub(crate) fn original_by_user(&self) -> Option<&BTreeMap<UserId, Vec<Arc<Trajectory>>>> {
        self.by_user
    }

    /// The original prefix's tracked bounding box, when attached.
    pub(crate) fn original_bbox(&self) -> Option<BoundingBox> {
        self.original_bbox
    }

    /// Scores the utility of one protected candidate (in `[0, 1]`) against
    /// the precomputed original-side projections.
    pub fn utility_of(&self, protected: &Dataset) -> f64 {
        match &self.baseline {
            ObjectiveBaseline::Crowded(b) => b.score(protected).precision_at_k,
            ObjectiveBaseline::Traffic(b) => b.score(protected).utility_score(),
            ObjectiveBaseline::Distortion => spatial_distortion(self.original, protected)
                .map(|r| r.utility_score())
                .unwrap_or(0.0),
            ObjectiveBaseline::Unavailable => 0.0,
        }
    }
}

/// Picks the winner index under the total `(utility, −recall, index)` order.
///
/// Among feasible candidates: highest utility wins; equal utility falls back
/// to lowest POI recall (more privacy at no utility cost); a full tie keeps
/// the lowest pool index. Because the order is total and independent of
/// evaluation schedule, parallel and sequential runs agree bit-for-bit.
pub fn choose_winner(candidates: &[CandidateResult]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (index, candidate) in candidates.iter().enumerate() {
        if !candidate.feasible {
            continue;
        }
        let better = match best {
            None => true,
            Some(b) => {
                let incumbent = &candidates[b];
                candidate.utility > incumbent.utility
                    || (candidate.utility == incumbent.utility
                        && candidate.poi_recall < incumbent.poi_recall)
            }
        };
        if better {
            best = Some(index);
        }
    }
    best
}

/// The strategy-evaluation engine.
///
/// Owns the run parameters (objective, privacy floor, seed, attack) and
/// turns a [`StrategyPool`] plus a dataset into a [`SelectionReport`].
#[derive(Debug)]
pub struct EvaluationEngine {
    attack: PoiAttack,
    objective: Objective,
    privacy_floor: f64,
    seed: u64,
    mode: ExecutionMode,
}

impl EvaluationEngine {
    /// Creates an engine evaluating `objective` under `privacy_floor`
    /// (maximum tolerated POI recall, clamped to `[0, 1]`); `seed` drives
    /// all randomized candidates. Parallel by default.
    pub fn new(objective: Objective, privacy_floor: f64, seed: u64) -> Self {
        Self {
            attack: PoiAttack::default(),
            objective,
            privacy_floor: privacy_floor.clamp(0.0, 1.0),
            seed,
            mode: ExecutionMode::default(),
        }
    }

    /// Replaces the attack used to score privacy.
    pub fn with_attack(mut self, attack: PoiAttack) -> Self {
        self.attack = attack;
        self
    }

    /// Sets the execution mode (parallel by default).
    pub fn with_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The configured objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The configured privacy floor.
    pub fn privacy_floor(&self) -> f64 {
        self.privacy_floor
    }

    /// Evaluates every candidate of `pool` against `dataset` and reports
    /// per-candidate privacy/utility plus the deterministic winner.
    ///
    /// The report's `candidates` are in pool order and its `chosen` index
    /// follows the `(utility, −recall, index)` ordering of
    /// [`choose_winner`], regardless of [`ExecutionMode`]. A report with no
    /// feasible candidate has `chosen == None` (turning that into an error
    /// is the caller's policy — see [`crate::selection::StrategySelector`]).
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::EmptyDataset`] when the pool or the dataset
    /// is empty.
    pub fn evaluate(
        &self,
        pool: &StrategyPool,
        dataset: &Dataset,
        reference: &ReferencePois,
    ) -> Result<SelectionReport, PrivapiError> {
        Self::check_nonempty(pool, dataset)?;
        let context = EvalContext::new(&self.attack, dataset, reference, self.objective);
        Ok(self.sweep(pool, &context).0)
    }

    /// Like [`EvaluationEngine::evaluate`], but also returns the winner's
    /// release artifacts: its protected dataset and full privacy report.
    ///
    /// The privacy report is the one measured during the sweep; only the
    /// winner's `anonymize` is re-run (deterministic per `(dataset, seed)`,
    /// so the release is bit-identical to what was scored) — this keeps
    /// memory flat at thread-count × dataset instead of retaining every
    /// candidate's protected copy, while sparing callers the *expensive*
    /// duplicate, a second self-attack over the release.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::EmptyDataset`] when the pool or the dataset
    /// is empty.
    pub fn evaluate_release(
        &self,
        pool: &StrategyPool,
        dataset: &Dataset,
        reference: &ReferencePois,
    ) -> Result<(SelectionReport, Option<WinnerRelease>), PrivapiError> {
        Self::check_nonempty(pool, dataset)?;
        let context = EvalContext::new(&self.attack, dataset, reference, self.objective);
        Ok(self.release_from_context(pool, &context))
    }

    /// The publish path: extracts the original dataset's POI exposure
    /// **exactly once** (inside [`EvalContext::extracting`]), scores every
    /// candidate against it, and returns the winner's release artifacts.
    ///
    /// Unlike [`EvaluationEngine::evaluate_release`], no caller-side
    /// reference extraction is needed — this is what keeps
    /// [`crate::pipeline::PrivApi::publish`] at a single original-side
    /// attack per run.
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::EmptyDataset`] when the pool or the dataset
    /// is empty.
    pub fn evaluate_release_extracting(
        &self,
        pool: &StrategyPool,
        dataset: &Dataset,
    ) -> Result<(SelectionReport, Option<WinnerRelease>), PrivapiError> {
        Self::check_nonempty(pool, dataset)?;
        let context = EvalContext::extracting(&self.attack, dataset, self.objective);
        Ok(self.release_from_context(pool, &context))
    }

    /// Evaluates every candidate of `pool` against a caller-prepared
    /// [`EvalContext`] with **both** streaming caches warm, and returns
    /// the winner's release artifacts.
    ///
    /// This is the streaming publish path. The context carries cached
    /// *original-side* extraction state ([`EvalContext::from_cache`]) that
    /// a session cache amends across day windows, so no original-side
    /// extraction happens here at all. `strategies` carries the
    /// *protected-side* per-candidate caches: each candidate is refreshed
    /// per its declared [`crate::strategy::UserLocality`] — only the
    /// `update`-listed changed users are re-anonymized and re-extracted
    /// for local candidates, while non-local candidates fall back to the
    /// full anonymize + self-attack. The winner's release dataset is
    /// re-assembled from its cache by pure clones instead of re-running
    /// its strategy over the whole prefix.
    ///
    /// The report is identical to what
    /// [`EvaluationEngine::evaluate_release_extracting`] would produce on
    /// the same dataset — verified by the streaming parity property tests.
    /// The per-candidate audit of what was reused lands in
    /// [`StrategySessionCache::last_deltas`].
    ///
    /// # Errors
    ///
    /// Returns [`PrivapiError::EmptyDataset`] when the pool or the
    /// context's dataset is empty.
    pub fn evaluate_release_with(
        &self,
        pool: &StrategyPool,
        context: &EvalContext<'_>,
        strategies: &mut StrategySessionCache,
        update: &WindowUpdate,
        donor: Option<&StrategyDonor>,
    ) -> Result<(SelectionReport, Option<WinnerRelease>), PrivapiError> {
        Self::check_nonempty(pool, context.original())?;
        let mut sweep_span = obs::span("engine.sweep");
        sweep_span.set_attr("candidates", pool.len());
        strategies.align(pool, self.seed, &self.attack);
        // Hoisted once per sweep: every candidate reuses the same per-user
        // decomposition (user list, histories, shape) instead of
        // re-deriving it from the prefix.
        let population = SweepPopulation::of(context);
        let candidates: Vec<&dyn crate::strategy::AnonymizationStrategy> =
            pool.iter().collect();
        let mut work: Vec<(usize, &mut CandidateState)> =
            strategies.states.iter_mut().enumerate().collect();
        let eval = |slot: &mut (usize, &mut CandidateState)| {
            let (index, state) = slot;
            self.evaluate_candidate_cached(
                *index,
                candidates[*index],
                state,
                context,
                update,
                &population,
                donor,
            )
        };
        let scored: Vec<(CandidateResult, PoiAttackReport, CandidateDelta)> = match self.mode {
            ExecutionMode::Sequential => work.iter_mut().map(eval).collect(),
            ExecutionMode::Parallel => work.par_iter_mut().map(eval).collect(),
        };
        let mut results = Vec::with_capacity(scored.len());
        let mut privacy_reports = Vec::with_capacity(scored.len());
        let mut deltas = Vec::with_capacity(scored.len());
        for (result, privacy, delta) in scored {
            results.push(result);
            privacy_reports.push(privacy);
            deltas.push(delta);
        }
        strategies.last_deltas = deltas;
        record_candidate_deltas(&strategies.last_deltas);
        let chosen = choose_winner(&results);
        let report = SelectionReport {
            candidates: results,
            chosen,
            privacy_floor: self.privacy_floor,
            objective: self.objective,
        };
        let winner = report.chosen.map(|index| WinnerRelease {
            index,
            // Cached candidates re-materialize the release by cloning their
            // per-user protected trajectories; only an uncached (non-local
            // or fallback) winner re-runs its strategy over the prefix.
            dataset: strategies.states[index]
                .assembled_release(context.original())
                .unwrap_or_else(|| {
                    pool.get(index)
                        .expect("chosen index in pool")
                        .anonymize(context.original(), self.seed)
                }),
            privacy: privacy_reports[index].clone(),
        });
        Ok((report, winner))
    }

    /// One candidate of the cached streaming sweep. Preference order:
    ///
    /// 1. **Adopt a donor state** — when a compatible donor campaign
    ///    already refreshed this slot for the same window, its state is
    ///    pointer-cloned wholesale: zero anonymization and zero extraction
    ///    here. Privacy matching (and the feasibility verdict under *this*
    ///    engine's floor) still runs locally.
    /// 2. **Refresh the local cache** per the declared locality, scoring
    ///    privacy from the cached shards and utility from the incremental
    ///    counts.
    /// 3. **Full fallback** to [`EvaluationEngine::evaluate_candidate`]
    ///    when the candidate cannot be cached.
    #[allow(clippy::too_many_arguments)]
    fn evaluate_candidate_cached(
        &self,
        index: usize,
        strategy: &dyn crate::strategy::AnonymizationStrategy,
        state: &mut CandidateState,
        context: &EvalContext<'_>,
        update: &WindowUpdate,
        population: &SweepPopulation<'_>,
        donor: Option<&StrategyDonor>,
    ) -> (CandidateResult, PoiAttackReport, CandidateDelta) {
        // Per-candidate evaluation span. In parallel mode a candidate an
        // idle rayon worker runs roots at the worker's (empty) span stack,
        // one the sweeping thread runs nests under `engine.sweep` — the
        // `candidate` attr keys them back to pool order, the `strategy`
        // attr names them. The
        // cached path nests `strategy.anonymize`, `attack.extract` and
        // `utility.score` spans under it.
        let mut span = obs::span("engine.candidate");
        span.set_attr("candidate", index);
        if obs::enabled() {
            span.set_attr("strategy", strategy.info().to_string());
        }
        if let Some(donated) = donor.and_then(|d| d.state_for(index, &strategy.info())) {
            // `utility_for` is None only when the donated shape cannot be
            // aligned with this prefix — an incompatible donor, which the
            // local refresh path below then handles from scratch.
            if let Some(utility) = donated.utility_for(context) {
                *state = donated.clone();
                let extracted = state.extracted_pois();
                let privacy = self
                    .attack
                    .match_extracted(&extracted, context.reference_index());
                let delta = CandidateDelta {
                    users_donated: population.users().len(),
                    shards_donated: state.shard_count(),
                    ..CandidateDelta::new(strategy.info(), strategy.locality())
                };
                let result = CandidateResult {
                    info: strategy.info(),
                    poi_recall: privacy.recall,
                    utility,
                    feasible: privacy.recall <= self.privacy_floor,
                };
                span.set_attr("path", "donated");
                return (result, privacy, delta);
            }
        }
        let (cached, delta) = state.refresh(
            strategy,
            &self.attack,
            context,
            update,
            population,
            self.seed,
        );
        match cached {
            Some((extracted, utility)) => {
                let privacy = self
                    .attack
                    .match_extracted(&extracted, context.reference_index());
                let result = CandidateResult {
                    info: strategy.info(),
                    poi_recall: privacy.recall,
                    utility,
                    feasible: privacy.recall <= self.privacy_floor,
                };
                span.set_attr("path", "cached");
                (result, privacy, delta)
            }
            None => {
                let (result, privacy) = self.evaluate_candidate(strategy, context);
                span.set_attr("path", "full");
                (result, privacy, delta)
            }
        }
    }

    /// Shared guard for the public entry points.
    fn check_nonempty(pool: &StrategyPool, dataset: &Dataset) -> Result<(), PrivapiError> {
        if pool.is_empty() || dataset.record_count() == 0 {
            return Err(PrivapiError::EmptyDataset);
        }
        Ok(())
    }

    /// Sweeps the pool and materializes the winner's release.
    fn release_from_context(
        &self,
        pool: &StrategyPool,
        context: &EvalContext<'_>,
    ) -> (SelectionReport, Option<WinnerRelease>) {
        let (report, privacy_reports) = self.sweep(pool, context);
        let winner = report.chosen.map(|index| WinnerRelease {
            index,
            dataset: pool
                .get(index)
                .expect("chosen index in pool")
                .anonymize(context.original(), self.seed),
            privacy: privacy_reports[index].clone(),
        });
        (report, winner)
    }

    /// Scores the whole pool against a prepared context and assembles the
    /// report plus the full per-candidate privacy measurements (pool
    /// order).
    fn sweep(
        &self,
        pool: &StrategyPool,
        context: &EvalContext<'_>,
    ) -> (SelectionReport, Vec<PoiAttackReport>) {
        let candidates: Vec<&dyn crate::strategy::AnonymizationStrategy> =
            pool.iter().collect();
        let scored: Vec<(CandidateResult, PoiAttackReport)> = match self.mode {
            ExecutionMode::Sequential => candidates
                .iter()
                .map(|s| self.evaluate_candidate(*s, context))
                .collect(),
            ExecutionMode::Parallel => candidates
                .par_iter()
                .map(|s| self.evaluate_candidate(*s, context))
                .collect(),
        };
        let (results, privacy_reports): (Vec<_>, Vec<_>) = scored.into_iter().unzip();
        let chosen = choose_winner(&results);
        let report = SelectionReport {
            candidates: results,
            chosen,
            privacy_floor: self.privacy_floor,
            objective: self.objective,
        };
        (report, privacy_reports)
    }

    /// Anonymize → self-attack → utility for one candidate.
    fn evaluate_candidate(
        &self,
        strategy: &dyn crate::strategy::AnonymizationStrategy,
        context: &EvalContext<'_>,
    ) -> (CandidateResult, PoiAttackReport) {
        let protected = strategy.anonymize(context.original(), self.seed);
        let privacy = self
            .attack
            .evaluate_with_index(&protected, context.reference_index());
        let utility = context.utility_of(&protected);
        let result = CandidateResult {
            info: strategy.info(),
            poi_recall: privacy.recall,
            utility,
            feasible: privacy.recall <= self.privacy_floor,
        };
        (result, privacy)
    }
}

/// Re-plumb one sweep's [`CandidateDelta`]s into the `strategy.*` /
/// `engine.*` obs instruments. The delta structs stay the public audit
/// API; the instruments are the machine-readable mirror. A candidate
/// that avoided the full fallback counts as a cache hit.
fn record_candidate_deltas(deltas: &[CandidateDelta]) {
    if !obs::enabled() {
        return;
    }
    for delta in deltas {
        obs::count("strategy.users_refreshed", delta.users_refreshed as u64);
        obs::count("strategy.users_reused", delta.users_reused as u64);
        obs::count("strategy.users_donated", delta.users_donated as u64);
        obs::count("strategy.shards_refreshed", delta.shards_refreshed as u64);
        obs::count("strategy.shards_reused", delta.shards_reused as u64);
        obs::count("strategy.shards_donated", delta.shards_donated as u64);
        obs::count(
            "strategy.grid_rebuilds",
            delta.protected_grid_rebuilt as u64,
        );
        obs::count("strategy.full_fallbacks", delta.full_fallback as u64);
        // Record volumes are histograms, one sample per candidate window:
        // the sum is the total, the spread shows per-window growth.
        obs::observe(
            "strategy.records_anonymized",
            obs::Buckets::Records,
            delta.records_anonymized as u64,
        );
        obs::observe(
            "strategy.records_extracted",
            obs::Buckets::Records,
            delta.records_extracted as u64,
        );
        let hit_or_miss = if delta.full_fallback {
            "engine.cache_misses"
        } else {
            "engine.cache_hits"
        };
        obs::count(hit_or_miss, 1);
    }
    obs::count("engine.candidates_evaluated", deltas.len() as u64);
}

/// The winning candidate's release artifacts from
/// [`EvaluationEngine::evaluate_release`].
#[derive(Debug, Clone)]
pub struct WinnerRelease {
    /// Winner index into the evaluated pool (equals the report's `chosen`).
    pub index: usize,
    /// The winner's protected dataset, ready to publish.
    pub dataset: Dataset,
    /// The winner's full privacy measurement from the sweep.
    pub privacy: PoiAttackReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::reference_from_truth;
    use crate::strategy::StrategyInfo;
    use geo::Meters;
    use mobility::gen::{CityModel, PopulationConfig};

    fn row(utility: f64, recall: f64, feasible: bool) -> CandidateResult {
        CandidateResult {
            info: StrategyInfo {
                name: "fake".into(),
                params: String::new(),
            },
            poi_recall: recall,
            utility,
            feasible,
        }
    }

    #[test]
    fn winner_prefers_highest_utility() {
        let rows = [
            row(0.2, 0.1, true),
            row(0.9, 0.2, true),
            row(0.5, 0.0, true),
        ];
        assert_eq!(choose_winner(&rows), Some(1));
    }

    #[test]
    fn winner_breaks_utility_ties_by_lower_recall() {
        let rows = [
            row(0.9, 0.20, true),
            row(0.9, 0.05, true),
            row(0.9, 0.10, true),
        ];
        assert_eq!(choose_winner(&rows), Some(1));
    }

    #[test]
    fn winner_breaks_full_ties_by_lowest_index() {
        let rows = [
            row(0.9, 0.1, true),
            row(0.9, 0.1, true),
            row(0.9, 0.1, true),
        ];
        assert_eq!(choose_winner(&rows), Some(0));
    }

    #[test]
    fn winner_ignores_infeasible_candidates() {
        let rows = [
            row(1.0, 0.9, false),
            row(0.3, 0.1, true),
            row(1.0, 0.9, false),
        ];
        assert_eq!(choose_winner(&rows), Some(1));
        let none = [row(1.0, 0.9, false)];
        assert_eq!(choose_winner(&none), None);
    }

    #[test]
    fn winner_is_schedule_independent() {
        // The order relation must not depend on which comparison runs
        // first: reversing the slice maps the winner to the mirrored index
        // except for ties, which stay at the lowest original index.
        let rows = [
            row(0.4, 0.3, true),
            row(0.9, 0.2, true),
            row(0.4, 0.1, true),
        ];
        let mut reversed = rows.to_vec();
        reversed.reverse();
        assert_eq!(choose_winner(&rows), Some(1));
        assert_eq!(choose_winner(&reversed), Some(1));
    }

    #[test]
    fn parallel_and_sequential_reports_are_identical() {
        let data =
            CityModel::builder()
                .seed(11)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 4,
                    days: 3,
                    sampling_interval_s: 180,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.4,
                });
        let reference = reference_from_truth(&data.truth);
        let pool = StrategyPool::default_pool();
        let objective = Objective::CrowdedPlaces {
            cell: Meters::new(250.0),
            k: 10,
        };
        let sequential = EvaluationEngine::new(objective, 0.25, 7)
            .with_mode(ExecutionMode::Sequential)
            .evaluate(&pool, &data.dataset, &reference)
            .unwrap();
        let parallel = EvaluationEngine::new(objective, 0.25, 7)
            .with_mode(ExecutionMode::Parallel)
            .evaluate(&pool, &data.dataset, &reference)
            .unwrap();
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn extracting_release_matches_explicit_reference_release() {
        // The publish path (context extracts the reference itself) must
        // produce the same report and release as the legacy shape where the
        // caller extracts the reference and passes it in.
        let data =
            CityModel::builder()
                .seed(23)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 4,
                    days: 3,
                    sampling_interval_s: 180,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.4,
                });
        let pool = StrategyPool::default_pool();
        let objective = Objective::CrowdedPlaces {
            cell: Meters::new(250.0),
            k: 10,
        };
        let engine = EvaluationEngine::new(objective, 0.25, 9);
        let reference = PoiAttack::default().extract(&data.dataset);
        let (explicit_report, explicit_winner) = engine
            .evaluate_release(&pool, &data.dataset, &reference)
            .unwrap();
        let (extracting_report, extracting_winner) = engine
            .evaluate_release_extracting(&pool, &data.dataset)
            .unwrap();
        assert_eq!(explicit_report, extracting_report);
        let (a, b) = (explicit_winner.unwrap(), extracting_winner.unwrap());
        assert_eq!(a.index, b.index);
        assert_eq!(a.privacy, b.privacy);
        assert_eq!(a.dataset, b.dataset);
    }

    #[test]
    fn extracting_context_exposes_shards_and_index() {
        let data =
            CityModel::builder()
                .seed(31)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 3,
                    days: 2,
                    sampling_interval_s: 300,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.3,
                });
        let attack = PoiAttack::default();
        let context = EvalContext::extracting(&attack, &data.dataset, Objective::Distortion);
        let shards = context.shards().expect("extracting context owns shards");
        assert_eq!(shards.len(), data.dataset.user_count());
        assert_eq!(context.reference().len(), shards.len());
        assert_eq!(
            context.reference_index().total_pois(),
            context.reference().values().map(Vec::len).sum::<usize>()
        );
        // A borrowed context carries no shards.
        let reference = attack.extract(&data.dataset);
        let borrowed =
            EvalContext::new(&attack, &data.dataset, &reference, Objective::Distortion);
        assert!(borrowed.shards().is_none());
        assert_eq!(borrowed.reference(), &reference);
    }

    #[test]
    fn empty_pool_and_dataset_error() {
        let reference = ReferencePois::new();
        let engine = EvaluationEngine::new(Objective::Distortion, 0.5, 1);
        assert!(matches!(
            engine.evaluate(&StrategyPool::new(), &Dataset::new(), &reference),
            Err(PrivapiError::EmptyDataset)
        ));
        assert!(matches!(
            engine.evaluate(&StrategyPool::default_pool(), &Dataset::new(), &reference),
            Err(PrivapiError::EmptyDataset)
        ));
    }

    #[test]
    fn unavailable_baseline_scores_zero_utility() {
        // Single-day data cannot back a traffic forecast: the legacy path
        // scored every candidate 0.0; the shared context must agree.
        let data =
            CityModel::builder()
                .seed(5)
                .build()
                .generate_with_truth(&PopulationConfig {
                    users: 3,
                    days: 1,
                    sampling_interval_s: 300,
                    gps_noise_m: 5.0,
                    leisure_probability: 0.2,
                });
        let reference = reference_from_truth(&data.truth);
        let pool = StrategyPool::new().with_identity();
        let report = EvaluationEngine::new(
            Objective::Traffic {
                cell: Meters::new(500.0),
            },
            1.0,
            1,
        )
        .evaluate(&pool, &data.dataset, &reference)
        .unwrap();
        assert!(report.candidates.iter().all(|c| c.utility == 0.0));
    }
}
