//! Privacy attacks against published mobility datasets.
//!
//! These implement the threat model of the paper's §3 (refs \[2,3\]): an
//! adversary mining a published dataset for *points of interest* and linking
//! pseudonyms back to individuals through their POI profiles. The paper's
//! headline motivation — "even a recent state-of-the-art protection mechanism
//! still allows to re-identify at least 60 % of the points of interest" — is
//! measured by running [`PoiAttack`] against each strategy's output.
//!
//! Two complementary POI extractors are combined (the adversary takes the
//! union of what either finds):
//!
//! * **stay-point extractor** — classic Li et al. stay detection followed by
//!   clustering; sharp on clean or generalized data;
//! * **dwell-density extractor** — accumulates *dwell mass* (time to the next
//!   fix) in a metric grid and clusters heavy cells; robust to unbiased
//!   per-point noise such as geo-indistinguishability, because hours of dwell
//!   concentrate around the true site even when individual fixes are hundreds
//!   of metres off.
//!
//! Both extractors only report places whose dwell is *anomalously
//! concentrated*: a candidate must hold at least [`PoiAttackConfig::min_poi_dwell_s`]
//! seconds of dwell **and** at least [`PoiAttackConfig::concentration_factor`]
//! times the user's mean positive-cell dwell. This mirrors how POIs are
//! defined — "places where a user spends *significant* amounts of time"
//! (paper, §3) — and is exactly the signal speed smoothing destroys: after
//! constant-speed resampling, dwell is spread uniformly along the path, so
//! nothing stands out, while geo-indistinguishability merely blurs the
//! concentration over neighbouring cells without removing it.
//!
//! # Sharding and indexing (the scaling architecture)
//!
//! The attack is the dominant term of every candidate evaluation in the
//! selection engine, so its two hot paths are structured for scale:
//!
//! * **Per-user shards.** Extraction decomposes into one independent
//!   [`UserAttackShard`] per user ([`PoiAttack::extract_user`]);
//!   [`PoiAttack::extract`] fans the shards out over the available cores and
//!   reassembles them in `UserId` order, so the result is byte-identical to
//!   the sequential reference path ([`PoiAttack::extract_serial`]). Shards
//!   are also the unit a streaming/incremental deployment would cache.
//! * **Spatial-indexed matching.** Reference POIs are bucketed once into a
//!   [`ReferenceIndex`] (a [`geo::PointIndex`] per user, cell side =
//!   [`PoiAttackConfig::match_distance`]); matching a candidate's extraction
//!   probes neighbor cells instead of scanning every (reference, extracted)
//!   pair. Distance comparisons stay exact haversine, so the indexed report
//!   equals the scan matcher's ([`PoiAttack::match_extracted_scan`])
//!   bit-for-bit, boundary distances included.

use geo::{GeoPoint, Meters, PointIndex, UniformGrid};
use mobility::gen::GroundTruth;
use mobility::poi::{extract_pois, PoiConfig};
use mobility::staypoint::{detect_all, StayPoint, StayPointConfig};
use mobility::{Dataset, LocationRecord, UserId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Per-user reference POI positions (ground truth or extracted from raw
/// data) that attack reports are measured against.
pub type ReferencePois = BTreeMap<UserId, Vec<GeoPoint>>;

/// Converts generator ground truth into reference POIs.
pub fn reference_from_truth(truth: &GroundTruth) -> ReferencePois {
    truth
        .users()
        .map(|u| (u, truth.pois_of(u).iter().map(|p| p.site).collect()))
        .collect()
}

/// Configuration of the POI retrieval attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoiAttackConfig {
    /// Stay-point detector parameters.
    pub stay: StayPointConfig,
    /// Stay-point clustering parameters.
    pub poi: PoiConfig,
    /// Grid cell side of the dwell-density extractor.
    pub density_cell: Meters,
    /// Absolute floor: minimum dwell (seconds) for a POI candidate.
    pub min_poi_dwell_s: i64,
    /// Relative floor: candidate dwell must exceed this multiple of the
    /// user's mean positive-cell dwell (anomaly detection).
    pub concentration_factor: f64,
    /// Cap on the dwell credited to a single record (guards against gaps).
    pub max_record_dwell_s: i64,
    /// Minimum speed coefficient-of-variation for a trajectory to be fed to
    /// the stay-point detector. On (near-)constant-speed trajectories the
    /// detector fires uniformly along the path ("pseudo-stays") and carries
    /// no dwell information — a competent adversary measures the constancy
    /// and discards that evidence rather than flooding itself with noise.
    pub min_speed_cv: f64,
    /// An extracted POI within this distance of a reference POI counts as a
    /// successful retrieval.
    pub match_distance: Meters,
}

impl Default for PoiAttackConfig {
    /// Parameters aligned with the companion study: 200 m / 15 min stays,
    /// 250 m clustering, 150 m density cells, 45-minute absolute dwell floor
    /// at 3× the user's background dwell, 350 m retrieval matching.
    fn default() -> Self {
        Self {
            stay: StayPointConfig::default(),
            poi: PoiConfig::default(),
            density_cell: Meters::new(150.0),
            min_poi_dwell_s: 45 * 60,
            concentration_factor: 3.0,
            max_record_dwell_s: 10 * 60,
            min_speed_cv: 0.3,
            match_distance: Meters::new(350.0),
        }
    }
}

/// Result of a POI retrieval attack over a whole dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoiAttackReport {
    /// Fraction of reference POIs recovered (the paper's headline number).
    pub recall: f64,
    /// Fraction of extracted POIs that correspond to a reference POI.
    pub precision: f64,
    /// Harmonic mean of recall and precision (0 when both are 0).
    pub f1: f64,
    /// Total reference POIs.
    pub reference_pois: usize,
    /// Total POIs the adversary extracted.
    pub extracted_pois: usize,
    /// Reference POIs that were matched.
    pub matched: usize,
}

/// Per-user dwell statistics backing the concentration filter.
#[derive(Debug, Clone, PartialEq)]
pub struct DwellField {
    /// Dwell mass per cell.
    mass: HashMap<geo::CellId, f64>,
    /// Mean mass across positive cells (the "background" dwell level).
    mean_positive: f64,
}

impl DwellField {
    /// Dwell mass (seconds) accumulated per grid cell.
    pub fn mass(&self) -> &HashMap<geo::CellId, f64> {
        &self.mass
    }

    /// Mean mass across positive cells — the user's background dwell level
    /// the concentration filter is anchored to.
    pub fn mean_positive(&self) -> f64 {
        self.mean_positive
    }

    /// Number of cells holding positive dwell.
    pub fn cell_count(&self) -> usize {
        self.mass.len()
    }
}

/// One user's slice of the attack: their dwell field and the POIs extracted
/// from it. Shards are independent — [`PoiAttack::extract`] computes them in
/// parallel — and are the natural cache unit for streaming per-day releases.
///
/// A shard also carries its *fold state* — the last record and the kept
/// stays — so [`PoiAttack::fold_user`] can extend it with a window's new
/// trajectories without rescanning the user's history.
#[derive(Debug, Clone, PartialEq)]
pub struct UserAttackShard {
    /// The user this shard belongs to.
    pub user: UserId,
    /// The user's dwell-density field over the dataset grid.
    pub dwell: DwellField,
    /// The dwell threshold (seconds) POI candidates had to exceed.
    pub threshold_s: f64,
    /// POIs extracted for this user (density ∪ stay-point, de-duplicated).
    pub pois: Vec<GeoPoint>,
    /// The latest record folded so far (time order, last among ties): the
    /// open end of the dwell chain the next window's first record closes.
    pub last_record: Option<LocationRecord>,
    /// Stay points of the user's kept trajectories (those passing the
    /// speed-CV filter), in arrival order — what the stay clustering is
    /// recomputed from.
    pub stays: Vec<StayPoint>,
}

impl UserAttackShard {
    /// The shard of a user with no records: the seed every fold starts
    /// from.
    pub fn empty(user: UserId) -> Self {
        Self {
            user,
            dwell: DwellField {
                mass: HashMap::new(),
                mean_positive: 0.0,
            },
            threshold_s: 0.0,
            pois: Vec::new(),
            last_record: None,
            stays: Vec::new(),
        }
    }
}

/// Per-user spatial index over reference POIs, built once per evaluation
/// run ([`PoiAttack::index_reference`]) and probed by every candidate's
/// [`PoiAttack::evaluate_with_index`].
#[derive(Debug, Clone)]
pub struct ReferenceIndex {
    match_distance: Meters,
    users: BTreeMap<UserId, PointIndex>,
}

impl ReferenceIndex {
    /// Creates an empty index keyed by `match_distance` — the seed of an
    /// incrementally amended index (see [`ReferenceIndex::update_user`]).
    pub fn empty(match_distance: Meters) -> Self {
        Self {
            match_distance,
            users: BTreeMap::new(),
        }
    }

    /// Amends one user's entry with their current POI set, reusing the
    /// existing per-user [`PointIndex`] where possible instead of
    /// rebuilding it:
    ///
    /// * new POIs strictly *append* to the indexed ones → the index is
    ///   extended in place ([`PointIndex::extend`]; returns `true` iff at
    ///   least one POI was actually appended — an unchanged set is a
    ///   no-op, not an "extension");
    /// * anything else (first sighting of the user, or POIs that moved or
    ///   disappeared as dwell mass accumulated) → the user's index is
    ///   rebuilt from scratch (returns `false`).
    ///
    /// Either way the resulting per-user index is structurally identical
    /// to a fresh [`PoiAttack::index_reference`] build over the same POIs,
    /// so matching reports are unaffected by *how* the index got there —
    /// the invariant the streaming publisher's cross-window reuse rests on.
    pub fn update_user(&mut self, user: UserId, pois: &[GeoPoint]) -> bool {
        let build = |pois: &[GeoPoint]| {
            PointIndex::build(pois.to_vec(), self.match_distance)
                .expect("match distance validated by config")
        };
        match self.users.entry(user) {
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let existing = slot.get_mut();
                if pois.len() >= existing.len() && existing.points() == &pois[..existing.len()]
                {
                    let appended = pois.len() > existing.len();
                    existing.extend(pois[existing.len()..].iter().copied());
                    appended
                } else {
                    *existing = build(pois);
                    false
                }
            }
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(build(pois));
                false
            }
        }
    }

    /// Total reference POIs across all users.
    pub fn total_pois(&self) -> usize {
        self.users.values().map(PointIndex::len).sum()
    }

    /// Number of indexed users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The match distance the index was keyed with.
    pub fn match_distance(&self) -> Meters {
        self.match_distance
    }

    /// One user's POI index, if present.
    pub fn get(&self, user: &UserId) -> Option<&PointIndex> {
        self.users.get(user)
    }

    /// Iterates the per-user indexes in `UserId` order.
    pub fn iter(&self) -> impl Iterator<Item = (&UserId, &PointIndex)> {
        self.users.iter()
    }
}

/// The POI retrieval attack.
#[derive(Debug, Clone, Default)]
pub struct PoiAttack {
    config: PoiAttackConfig,
    /// Counts full-dataset extractions. Shared across clones (the engine
    /// clones the attack into its workers), so callers can assert
    /// extraction budgets — e.g. exactly one original-side extraction per
    /// publish — end to end.
    extractions: Arc<AtomicUsize>,
    /// Counts single-user extraction passes ([`PoiAttack::extract_user`]),
    /// whether issued directly (the streaming delta paths) or as part of a
    /// full-dataset pass. Shared across clones like `extractions`, so
    /// callers can assert the *per-user* work a window actually performed
    /// — the unit the per-strategy shard caches save.
    user_extractions: Arc<AtomicUsize>,
}

impl PoiAttack {
    /// Creates the attack with explicit parameters.
    pub fn new(config: PoiAttackConfig) -> Self {
        Self {
            config,
            extractions: Arc::new(AtomicUsize::new(0)),
            user_extractions: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// The attack parameters.
    pub fn config(&self) -> &PoiAttackConfig {
        &self.config
    }

    /// How many full-dataset extractions this attack (and every clone of
    /// it) has performed. Per-user [`PoiAttack::extract_user`] calls are
    /// not counted — only whole-dataset passes.
    pub fn extractions(&self) -> usize {
        self.extractions.load(Ordering::Relaxed)
    }

    /// How many single-user extraction passes this attack (and every clone
    /// of it) has performed — a full-dataset pass over `n` users counts
    /// `n`. This is the probe behind the per-strategy cache counting
    /// tests: on a sparse window the delta paths keep it proportional to
    /// the *changed* users instead of `users × (pool + 1)`.
    pub fn user_extractions(&self) -> usize {
        self.user_extractions.load(Ordering::Relaxed)
    }

    /// The dataset-wide density grid every per-user extraction shares, or
    /// `None` for an empty dataset.
    pub fn extraction_grid(&self, dataset: &Dataset) -> Option<UniformGrid> {
        Some(self.grid_for(dataset.bounding_box()?))
    }

    /// The density grid anchored on an already-known bounding box — what
    /// a streaming session uses to avoid rescanning its whole accumulated
    /// prefix per window: the prefix bbox is maintained incrementally
    /// ([`geo::BoundingBox::union`] is exact under append) and the grid
    /// derived from it here is identical to
    /// [`PoiAttack::extraction_grid`] over the full dataset.
    ///
    /// The grid is anchored on the *quantized* padded box
    /// ([`geo::BoundingBox::grid_anchor`]), not the raw data box: anchor
    /// corners snap outward to a 0.05° lattice, so per-window bounding-box
    /// drift inside the lattice leaves every cell boundary — and every
    /// cached per-user shard — untouched.
    pub fn grid_for(&self, bbox: geo::BoundingBox) -> UniformGrid {
        UniformGrid::new(bbox.grid_anchor(), self.config.density_cell)
            .expect("cell size validated by config")
    }

    /// Extracts one user's [`UserAttackShard`] against the shared dataset
    /// `grid` (see [`PoiAttack::extraction_grid`]): the
    /// [`PoiAttack::fold_user`] fold run from an empty shard.
    ///
    /// Per-user work is fully deterministic and independent of every other
    /// user, which is what lets [`PoiAttack::extract`] fan users out in
    /// parallel without changing any result.
    pub fn extract_user(
        &self,
        dataset: &Dataset,
        user: UserId,
        grid: &UniformGrid,
    ) -> UserAttackShard {
        self.fold_user(UserAttackShard::empty(user), dataset, grid)
            .expect("an empty shard accepts any history")
    }

    /// Folds `fresh` — trajectories appended to the shard's user history
    /// since it was extracted — into `shard`, on the same `grid`. The new
    /// records' dwell pairs are added to the mass map (the first pair
    /// closes on [`UserAttackShard::last_record`]) and the new kept
    /// trajectories' stays are appended; the threshold, the density POIs
    /// and the stay clustering are then recomputed from that state. The
    /// result equals [`PoiAttack::extract_user`] over the whole history,
    /// at the cost of `fresh` plus the user's cells and stays.
    ///
    /// Returns `None` when `fresh` does not extend the history in time
    /// order — its first record precedes the shard's last record, or its
    /// first kept stay precedes the shard's last stay — because the
    /// history's time-sorted merge would then interleave old and new
    /// data. The caller must run the full [`PoiAttack::extract_user`].
    /// Only a successful fold counts towards
    /// [`PoiAttack::user_extractions`].
    pub fn fold_user(
        &self,
        mut shard: UserAttackShard,
        fresh: &Dataset,
        grid: &UniformGrid,
    ) -> Option<UserAttackShard> {
        let user = shard.user;
        let records = fresh.records_of(user);
        if let (Some(last), Some(first)) = (&shard.last_record, records.first()) {
            if first.time < last.time {
                return None;
            }
        }
        let stays = self.kept_stays(fresh, user);
        if let (Some(last), Some(first)) = (shard.stays.last(), stays.first()) {
            if first.arrival < last.arrival {
                return None;
            }
        }
        self.user_extractions.fetch_add(1, Ordering::Relaxed);
        let mass = &mut shard.dwell.mass;
        let mut previous = shard.last_record;
        for record in records {
            if let Some(prev) = previous {
                let dwell =
                    (record.time - prev.time).clamp(0, self.config.max_record_dwell_s) as f64;
                if dwell > 0.0 {
                    *mass.entry(grid.cell_of(&prev.point)).or_insert(0.0) += dwell;
                }
            }
            previous = Some(record);
        }
        shard.last_record = previous;
        shard.stays.extend(stays);
        shard.dwell.mean_positive = if mass.is_empty() {
            0.0
        } else {
            mass.values().sum::<f64>() / mass.len() as f64
        };
        shard.threshold_s = self.poi_threshold(&shard.dwell);
        let mut pois = self.extract_density_pois(&shard.dwell, grid, shard.threshold_s);
        let staypoint_pois = extract_pois(&shard.stays, &self.config.poi)
            .into_iter()
            .filter(|p| p.total_dwell_s as f64 >= shard.threshold_s)
            .map(|p| p.centroid);
        for p in staypoint_pois {
            let dup = pois
                .iter()
                .any(|q| q.haversine_distance(&p).get() < self.config.poi.merge_distance.get());
            if !dup {
                pois.push(p);
            }
        }
        shard.pois = pois;
        Some(shard)
    }

    /// Extracts every user's shard, fanned out over the available cores.
    ///
    /// Shards come back in `UserId` order (users are iterated sorted and
    /// results collected in input order), so downstream consumers see the
    /// exact sequential result regardless of scheduling.
    pub fn extract_shards(&self, dataset: &Dataset) -> Vec<UserAttackShard> {
        self.extractions.fetch_add(1, Ordering::Relaxed);
        let Some(grid) = self.extraction_grid(dataset) else {
            return Vec::new();
        };
        let users = dataset.users();
        users
            .par_iter()
            .map(|&user| self.extract_user(dataset, user, &grid))
            .collect()
    }

    /// Extracts POI positions for every user of `dataset` (union of the
    /// stay-point and dwell-density extractors, de-duplicated).
    ///
    /// Parallel over users; byte-identical to [`PoiAttack::extract_serial`].
    pub fn extract(&self, dataset: &Dataset) -> ReferencePois {
        self.extract_shards(dataset)
            .into_iter()
            .map(|s| (s.user, s.pois))
            .collect()
    }

    /// The sequential reference implementation of [`PoiAttack::extract`],
    /// kept for parity tests and serial-vs-parallel benchmarks.
    pub fn extract_serial(&self, dataset: &Dataset) -> ReferencePois {
        self.extractions.fetch_add(1, Ordering::Relaxed);
        let mut out = ReferencePois::new();
        let Some(grid) = self.extraction_grid(dataset) else {
            return out;
        };
        for user in dataset.users() {
            let shard = self.extract_user(dataset, user, &grid);
            out.insert(shard.user, shard.pois);
        }
        out
    }

    /// The dwell threshold (seconds) a candidate must exceed for this user.
    fn poi_threshold(&self, field: &DwellField) -> f64 {
        (self.config.min_poi_dwell_s as f64)
            .max(self.config.concentration_factor * field.mean_positive)
    }

    /// Stay points of `user`'s trajectories in `dataset`, in arrival order.
    ///
    /// Trajectories whose speed is (near-)constant are skipped: on such data
    /// the detector produces a uniform chain of pseudo-stays along the path,
    /// which an adversary can recognise (and must discard) by checking the
    /// published speeds directly.
    fn kept_stays(&self, dataset: &Dataset, user: UserId) -> Vec<StayPoint> {
        let kept = dataset.trajectories_of(user).into_iter().filter(|t| {
            t.speed_cv()
                .map(|cv| cv >= self.config.min_speed_cv)
                .unwrap_or(true)
        });
        detect_all(kept, &self.config.stay)
    }

    /// Dwell-density extractor: anomalously heavy cells clustered by
    /// adjacency (8-connectivity BFS), centroid weighted by mass.
    fn extract_density_pois(
        &self,
        field: &DwellField,
        grid: &UniformGrid,
        threshold_s: f64,
    ) -> Vec<GeoPoint> {
        let candidate =
            |cell: &geo::CellId| field.mass.get(cell).is_some_and(|m| *m >= threshold_s);
        let mut visited: HashSet<geo::CellId> = HashSet::new();
        let mut pois = Vec::new();
        let mut starts: Vec<geo::CellId> = field
            .mass
            .iter()
            .filter(|(_, m)| **m >= threshold_s)
            .map(|(c, _)| *c)
            .collect();
        starts.sort(); // deterministic order
        for start in starts {
            if visited.contains(&start) {
                continue;
            }
            let mut queue = VecDeque::from([start]);
            visited.insert(start);
            let mut weight_sum = 0.0;
            let mut lat_sum = 0.0;
            let mut lon_sum = 0.0;
            while let Some(cell) = queue.pop_front() {
                let w = field.mass[&cell];
                let c = grid.cell_center(&cell);
                weight_sum += w;
                lat_sum += c.latitude() * w;
                lon_sum += c.longitude() * w;
                for nb in cell.neighbors() {
                    if candidate(&nb) && !visited.contains(&nb) {
                        visited.insert(nb);
                        queue.push_back(nb);
                    }
                }
            }
            if weight_sum > 0.0 {
                pois.push(GeoPoint::clamped(
                    lat_sum / weight_sum,
                    lon_sum / weight_sum,
                ));
            }
        }
        pois
    }

    /// Buckets `reference` POIs into per-user spatial indexes keyed by the
    /// configured match distance. Build once per evaluation run; probe once
    /// per candidate.
    pub fn index_reference(&self, reference: &ReferencePois) -> ReferenceIndex {
        let users = reference
            .iter()
            .map(|(user, pois)| {
                let index = PointIndex::build(pois.clone(), self.config.match_distance)
                    .expect("match distance validated by config");
                (*user, index)
            })
            .collect();
        ReferenceIndex {
            match_distance: self.config.match_distance,
            users,
        }
    }

    /// Matches an already-extracted observation set against an indexed
    /// reference. One pass over the extracted POIs marks matched reference
    /// POIs (recall) and counts true extractions (precision) via
    /// neighbor-cell lookups; equals [`PoiAttack::match_extracted_scan`]
    /// bit-for-bit.
    pub fn match_extracted(
        &self,
        extracted: &ReferencePois,
        index: &ReferenceIndex,
    ) -> PoiAttackReport {
        let match_d = index.match_distance;
        let mut reference_pois = 0;
        let mut matched = 0;
        let mut extracted_total = 0;
        let mut extracted_true = 0;
        for (user, user_index) in &index.users {
            let found = extracted.get(user).map(Vec::as_slice).unwrap_or(&[]);
            reference_pois += user_index.len();
            extracted_total += found.len();
            let mut hit = vec![false; user_index.len()];
            for e in found {
                let mut any = false;
                user_index.for_each_within(e, match_d, |i| {
                    hit[i] = true;
                    any = true;
                });
                if any {
                    extracted_true += 1;
                }
            }
            matched += hit.iter().filter(|h| **h).count();
        }
        assemble_report(reference_pois, matched, extracted_total, extracted_true)
    }

    /// The pairwise O(R·E) scan matcher — the reference implementation
    /// [`PoiAttack::match_extracted`] is verified against.
    pub fn match_extracted_scan(
        &self,
        extracted: &ReferencePois,
        reference: &ReferencePois,
    ) -> PoiAttackReport {
        let match_d = self.config.match_distance.get();
        let mut reference_pois = 0;
        let mut matched = 0;
        let mut extracted_total = 0;
        let mut extracted_true = 0;
        for (user, ref_pois) in reference {
            let found = extracted.get(user).map(Vec::as_slice).unwrap_or(&[]);
            reference_pois += ref_pois.len();
            extracted_total += found.len();
            for rp in ref_pois {
                if found
                    .iter()
                    .any(|e| e.haversine_distance(rp).get() <= match_d)
                {
                    matched += 1;
                }
            }
            for e in found {
                if ref_pois
                    .iter()
                    .any(|rp| rp.haversine_distance(e).get() <= match_d)
                {
                    extracted_true += 1;
                }
            }
        }
        assemble_report(reference_pois, matched, extracted_total, extracted_true)
    }

    /// Runs the attack against reference POIs (extract + indexed matching).
    pub fn evaluate_reference(
        &self,
        protected: &Dataset,
        reference: &ReferencePois,
    ) -> PoiAttackReport {
        self.evaluate_with_index(protected, &self.index_reference(reference))
    }

    /// Runs the attack against a pre-built [`ReferenceIndex`] — the hot
    /// path of the selection engine, where the same reference is probed by
    /// every candidate.
    pub fn evaluate_with_index(
        &self,
        protected: &Dataset,
        index: &ReferenceIndex,
    ) -> PoiAttackReport {
        let extracted = self.extract(protected);
        self.match_extracted(&extracted, index)
    }

    /// Scan-matching twin of [`PoiAttack::evaluate_reference`], kept as the
    /// verification baseline for the indexed path.
    pub fn evaluate_reference_scan(
        &self,
        protected: &Dataset,
        reference: &ReferencePois,
    ) -> PoiAttackReport {
        let extracted = self.extract(protected);
        self.match_extracted_scan(&extracted, reference)
    }

    /// Runs the attack against generator ground truth.
    pub fn evaluate(&self, protected: &Dataset, truth: &GroundTruth) -> PoiAttackReport {
        self.evaluate_reference(protected, &reference_from_truth(truth))
    }
}

/// Folds the four match counters into a report.
fn assemble_report(
    reference_pois: usize,
    matched: usize,
    extracted_total: usize,
    extracted_true: usize,
) -> PoiAttackReport {
    let recall = if reference_pois == 0 {
        0.0
    } else {
        matched as f64 / reference_pois as f64
    };
    let precision = if extracted_total == 0 {
        0.0
    } else {
        extracted_true as f64 / extracted_total as f64
    };
    let f1 = if recall + precision == 0.0 {
        0.0
    } else {
        2.0 * recall * precision / (recall + precision)
    };
    PoiAttackReport {
        recall,
        precision,
        f1,
        reference_pois,
        extracted_pois: extracted_total,
        matched,
    }
}

/// Result of the user re-identification attack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReidentReport {
    /// Fraction of users whose pseudonym was correctly linked.
    pub accuracy: f64,
    /// Users attacked.
    pub attempted: usize,
    /// Users correctly linked.
    pub correct: usize,
    /// Users for whom no POIs could be extracted (counted as failures).
    pub unattributable: usize,
}

/// Background POI profiles, indexed per user, built once from the
/// adversary's knowledge base ([`ReidentificationAttack::build_profiles`])
/// and reused across every protected release linked against it.
///
/// A thin wrapper over [`ReferenceIndex`]: each profile's points live in
/// its [`PointIndex`] (see [`geo::PointIndex::points`]), stored once.
#[derive(Debug, Clone)]
pub struct BackgroundProfiles {
    index: ReferenceIndex,
}

impl BackgroundProfiles {
    /// The per-user profile indexes.
    pub fn index(&self) -> &ReferenceIndex {
        &self.index
    }

    /// Number of profiled users.
    pub fn user_count(&self) -> usize {
        self.index.user_count()
    }

    /// Total profile POIs across all users.
    pub fn total_pois(&self) -> usize {
        self.index.total_pois()
    }
}

/// The POI-profile re-identification (AP-attack style) adversary.
///
/// The adversary holds the *raw* dataset (or any background knowledge base)
/// and links each pseudonymous user of the protected release to the raw
/// profile whose POI set is closest.
#[derive(Debug, Clone, Default)]
pub struct ReidentificationAttack {
    attack: PoiAttack,
}

impl ReidentificationAttack {
    /// Creates the attack with explicit POI-extraction parameters.
    pub fn new(config: PoiAttackConfig) -> Self {
        Self {
            attack: PoiAttack::new(config),
        }
    }

    /// Extracts and indexes the adversary's background profiles. One
    /// extraction, reusable across every candidate release evaluated
    /// against the same background.
    pub fn build_profiles(&self, background: &Dataset) -> BackgroundProfiles {
        BackgroundProfiles {
            index: self
                .attack
                .index_reference(&self.attack.extract(background)),
        }
    }

    /// Links users of `protected` against profiles built from `background`.
    ///
    /// Both datasets must use the same user pseudonyms for scoring (the
    /// generator guarantees this), which lets the report count exact hits.
    pub fn evaluate(&self, protected: &Dataset, background: &Dataset) -> ReidentReport {
        self.evaluate_with_profiles(protected, &self.build_profiles(background))
    }

    /// Links users of `protected` against pre-built background profiles.
    ///
    /// Profile distances go through each profile's spatial index
    /// ([`geo::PointIndex::nearest_distance`] is exact), so the linkage is
    /// identical to the pairwise scan while the profiles amortize across
    /// candidates.
    pub fn evaluate_with_profiles(
        &self,
        protected: &Dataset,
        profiles: &BackgroundProfiles,
    ) -> ReidentReport {
        let observations = self.attack.extract(protected);
        let mut attempted = 0;
        let mut correct = 0;
        let mut unattributable = 0;
        for (user, observed) in &observations {
            if profiles.index.get(user).is_none() {
                continue;
            }
            attempted += 1;
            if observed.is_empty() {
                unattributable += 1;
                continue;
            }
            let mut best: Option<(UserId, f64)> = None;
            for (candidate, index) in profiles.index.iter() {
                if index.is_empty() {
                    continue;
                }
                let score = indexed_profile_distance(observed, index);
                if best.map(|(_, s)| score < s).unwrap_or(true) {
                    best = Some((*candidate, score));
                }
            }
            if let Some((predicted, _)) = best {
                if predicted == *user {
                    correct += 1;
                }
            }
        }
        ReidentReport {
            accuracy: if attempted == 0 {
                0.0
            } else {
                correct as f64 / attempted as f64
            },
            attempted,
            correct,
            unattributable,
        }
    }
}

/// Mean distance from each observed POI to its nearest profile POI
/// (pairwise-scan reference implementation; see
/// [`indexed_profile_distance`] for the production path).
pub fn profile_distance(observed: &[GeoPoint], profile: &[GeoPoint]) -> f64 {
    let total: f64 = observed
        .iter()
        .map(|o| {
            profile
                .iter()
                .map(|p| o.haversine_distance(p).get())
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / observed.len() as f64
}

/// Indexed twin of [`profile_distance`]: identical value, nearest-neighbor
/// lookups instead of pairwise scans.
pub fn indexed_profile_distance(observed: &[GeoPoint], profile: &PointIndex) -> f64 {
    let total: f64 = observed
        .iter()
        .map(|o| {
            profile
                .nearest_distance(o)
                .map(|d| d.get())
                .unwrap_or(f64::INFINITY)
        })
        .sum();
    total / observed.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use geo::Degrees;
    use mobility::gen::{CityModel, PopulationConfig};
    use mobility::{LocationRecord, Timestamp, Trajectory};

    fn small_data() -> mobility::gen::GeneratedData {
        CityModel::builder()
            .seed(42)
            .build()
            .generate_with_truth(&PopulationConfig {
                users: 5,
                days: 5,
                sampling_interval_s: 120,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            })
    }

    #[test]
    fn attack_on_raw_data_recovers_home_and_work() {
        let data = small_data();
        let extracted = PoiAttack::default().extract(&data.dataset);
        for user in data.dataset.users() {
            let profile = data.truth.pois_of(user);
            let found = &extracted[&user];
            // Home and work dominate dwell: they must always be recovered.
            for poi in profile
                .iter()
                .filter(|p| p.kind != mobility::poi::PoiKind::Other)
            {
                let hit = found
                    .iter()
                    .any(|e| e.haversine_distance(&poi.site).get() <= 350.0);
                assert!(hit, "{user}: missed {:?} at {}", poi.kind, poi.site);
            }
        }
    }

    #[test]
    fn attack_on_raw_data_has_high_recall() {
        let data = small_data();
        let report = PoiAttack::default().evaluate(&data.dataset, &data.truth);
        // One-off leisure POIs fall below the significance filter, so truth
        // recall sits below 1; home/work/frequent places are found.
        assert!(
            report.recall >= 0.5,
            "raw-data recall should be substantial, got {:.2}",
            report.recall
        );
        assert!(report.precision > 0.5, "precision {:.2}", report.precision);
        assert!(report.f1 > 0.0);
        assert!(report.matched <= report.reference_pois);
    }

    #[test]
    fn self_reference_recall_is_perfect_on_raw_data() {
        // Measured against the attacker's own extraction from raw data (the
        // reference the paper's 60 % figure uses), raw data scores 1.0.
        let data = small_data();
        let attack = PoiAttack::default();
        let reference = attack.extract(&data.dataset);
        let report = attack.evaluate_reference(&data.dataset, &reference);
        assert!(
            report.recall > 0.99,
            "self-reference recall {}",
            report.recall
        );
        assert!(report.precision > 0.99);
    }

    #[test]
    fn extract_is_empty_for_empty_dataset() {
        let attack = PoiAttack::default();
        assert!(attack.extract(&Dataset::new()).is_empty());
        assert!(attack.extract_serial(&Dataset::new()).is_empty());
        assert!(attack.extract_shards(&Dataset::new()).is_empty());
        let report = attack.evaluate_reference(&Dataset::new(), &ReferencePois::new());
        assert_eq!(report.recall, 0.0);
        assert_eq!(report.extracted_pois, 0);
    }

    #[test]
    fn parallel_extract_equals_serial() {
        let data = small_data();
        let attack = PoiAttack::default();
        assert_eq!(
            attack.extract(&data.dataset),
            attack.extract_serial(&data.dataset)
        );
    }

    #[test]
    fn shards_come_back_in_user_order() {
        let data = small_data();
        let attack = PoiAttack::default();
        let shards = attack.extract_shards(&data.dataset);
        let users: Vec<UserId> = shards.iter().map(|s| s.user).collect();
        assert_eq!(users, data.dataset.users());
        for shard in &shards {
            assert!(shard.threshold_s >= attack.config().min_poi_dwell_s as f64);
            assert!(shard.dwell.cell_count() > 0);
            assert!(shard.dwell.mean_positive() > 0.0);
        }
    }

    #[test]
    fn extraction_counter_counts_full_passes_across_clones() {
        let data = small_data();
        let attack = PoiAttack::default();
        assert_eq!(attack.extractions(), 0);
        let clone = attack.clone();
        let _ = attack.extract(&data.dataset);
        let _ = clone.extract_serial(&data.dataset);
        let _ = attack.extract_shards(&data.dataset);
        assert_eq!(attack.extractions(), 3, "clones share the probe");
        assert_eq!(clone.extractions(), 3);
    }

    #[test]
    fn indexed_matcher_equals_scan_matcher_on_real_data() {
        use crate::strategy::AnonymizationStrategy;
        let data = small_data();
        let attack = PoiAttack::default();
        let reference = attack.extract(&data.dataset);
        for strategy_seed in [1u64, 2, 3] {
            let protected = crate::strategies::GaussianPerturbation::new(Meters::new(120.0))
                .unwrap()
                .anonymize(&data.dataset, strategy_seed);
            let indexed = attack.evaluate_reference(&protected, &reference);
            let scan = attack.evaluate_reference_scan(&protected, &reference);
            assert_eq!(indexed, scan);
        }
    }

    #[test]
    fn indexed_matcher_equals_scan_matcher_at_boundary_distance() {
        // A POI at *exactly* match_distance must count as matched (<=) in
        // both matchers; one at a hair beyond must not. The exact boundary
        // is manufactured by setting match_distance to the measured
        // haversine distance itself.
        let site = GeoPoint::new(45.75, 4.85).unwrap();
        let offset = site.destination(Degrees::new(73.0), Meters::new(350.0));
        let exact = site.haversine_distance(&offset);
        let mut reference = ReferencePois::new();
        reference.insert(UserId(1), vec![site]);
        // A user with no extraction and an extraction with no reference.
        reference.insert(UserId(2), vec![offset]);
        let mut extracted = ReferencePois::new();
        extracted.insert(UserId(1), vec![offset]);
        extracted.insert(UserId(3), vec![site]);

        for (match_d, expect_matched) in [
            (exact, 1),                           // boundary: inclusive
            (Meters::new(exact.get() - 1e-6), 0), // just inside the gap
            (Meters::new(exact.get() + 1e-6), 1), // just beyond the gap
        ] {
            let attack = PoiAttack::new(PoiAttackConfig {
                match_distance: match_d,
                ..PoiAttackConfig::default()
            });
            let index = attack.index_reference(&reference);
            let indexed = attack.match_extracted(&extracted, &index);
            let scan = attack.match_extracted_scan(&extracted, &reference);
            assert_eq!(indexed, scan, "match_d {match_d:?}");
            assert_eq!(indexed.matched, expect_matched, "match_d {match_d:?}");
            assert_eq!(indexed.reference_pois, 2);
            assert_eq!(indexed.extracted_pois, 1, "UserId(3) is not referenced");
        }
    }

    #[test]
    fn reference_index_amendment_matches_fresh_build() {
        use crate::strategy::AnonymizationStrategy;
        let data = small_data();
        let attack = PoiAttack::default();
        let reference = attack.extract(&data.dataset);
        let fresh = attack.index_reference(&reference);

        // Grow an empty index user by user, in two halves per user so both
        // the rebuild path (first sighting) and the extend path (appended
        // POIs) are exercised.
        let mut amended = ReferenceIndex::empty(attack.config().match_distance);
        for (user, pois) in &reference {
            let half = pois.len() / 2;
            assert!(!amended.update_user(*user, &pois[..half]), "first insert");
            assert_eq!(
                amended.update_user(*user, pois),
                pois.len() > half,
                "a real append takes the extend path"
            );
            assert!(
                !amended.update_user(*user, pois),
                "an unchanged set is a no-op, not an extension"
            );
        }
        assert_eq!(amended.user_count(), fresh.user_count());
        assert_eq!(amended.total_pois(), fresh.total_pois());
        assert_eq!(amended.match_distance(), fresh.match_distance());
        // The amended index must answer matching queries identically.
        let protected = crate::strategies::GaussianPerturbation::new(Meters::new(120.0))
            .unwrap()
            .anonymize(&data.dataset, 7);
        let extracted = attack.extract(&protected);
        assert_eq!(
            attack.match_extracted(&extracted, &amended),
            attack.match_extracted(&extracted, &fresh)
        );

        // A changed (non-append) POI set forces a rebuild and replaces the
        // entry wholesale.
        let user = *reference.keys().next().unwrap();
        let mut moved: Vec<GeoPoint> = reference[&user].clone();
        moved.reverse();
        if moved.len() > 1 {
            assert!(!amended.update_user(user, &moved), "reorder must rebuild");
            assert_eq!(amended.get(&user).unwrap().points(), moved.as_slice());
        }
    }

    #[test]
    fn reference_index_reports_shape() {
        let data = small_data();
        let attack = PoiAttack::default();
        let reference = attack.extract(&data.dataset);
        let index = attack.index_reference(&reference);
        assert_eq!(index.user_count(), reference.len());
        assert_eq!(
            index.total_pois(),
            reference.values().map(Vec::len).sum::<usize>()
        );
        assert_eq!(index.match_distance(), attack.config().match_distance);
    }

    #[test]
    fn density_extractor_finds_noisy_dwell() {
        // A user parked 6 h at one spot, every fix displaced ~150 m in
        // alternating directions — stay-point detection sees >200 m jumps,
        // but dwell density piles up around the site. A commute before and
        // after provides background cells so the concentration filter has a
        // baseline.
        let site = GeoPoint::new(45.75, 4.85).unwrap();
        let mut records = Vec::new();
        // Commute in: 30 min moving fast from 3 km west.
        for i in 0..30i64 {
            let p = GeoPoint::new(45.75, 4.81 + 0.0013 * i as f64).unwrap();
            records.push(LocationRecord::new(UserId(1), Timestamp::new(i * 60), p));
        }
        // Noisy dwell: 6 h.
        for i in 30..390i64 {
            let bearing = geo::Degrees::new((i % 8) as f64 * 45.0);
            let p = site.destination(bearing, Meters::new(150.0));
            records.push(LocationRecord::new(UserId(1), Timestamp::new(i * 60), p));
        }
        // Commute out.
        for i in 390..420i64 {
            let p = GeoPoint::new(45.75, 4.85 + 0.0013 * (i - 389) as f64).unwrap();
            records.push(LocationRecord::new(UserId(1), Timestamp::new(i * 60), p));
        }
        let ds = Dataset::from_trajectories(vec![Trajectory::new(UserId(1), records)]);
        let extracted = PoiAttack::default().extract(&ds);
        let pois = &extracted[&UserId(1)];
        assert!(
            pois.iter()
                .any(|p| p.haversine_distance(&site).get() < 350.0),
            "density extractor missed the noisy dwell: {pois:?}"
        );
    }

    #[test]
    fn uniform_dwell_yields_no_pois() {
        // Constant-speed movement along a line: dwell is uniform across
        // cells, so the concentration filter must reject everything.
        let mut records = Vec::new();
        for i in 0..720i64 {
            // 12 h at 2 km/h heading east: 24 km of path.
            let p = GeoPoint::new(45.75, 4.80 + 0.000425 * i as f64).unwrap();
            records.push(LocationRecord::new(UserId(1), Timestamp::new(i * 60), p));
        }
        let ds = Dataset::from_trajectories(vec![Trajectory::new(UserId(1), records)]);
        let extracted = PoiAttack::default().extract(&ds);
        assert!(
            extracted[&UserId(1)].is_empty(),
            "uniform dwell must not produce POIs: {:?}",
            extracted[&UserId(1)]
        );
    }

    #[test]
    fn reference_from_truth_preserves_counts() {
        let data = small_data();
        let reference = reference_from_truth(&data.truth);
        assert_eq!(
            reference.values().map(Vec::len).sum::<usize>(),
            data.truth.total_pois()
        );
    }

    #[test]
    fn reidentification_on_raw_data_is_perfect() {
        let data = small_data();
        let attack = ReidentificationAttack::default();
        let report = attack.evaluate(&data.dataset, &data.dataset);
        assert_eq!(report.attempted, 5);
        assert!(
            report.accuracy > 0.99,
            "self-match must be perfect, got {}",
            report.accuracy
        );
        assert_eq!(report.unattributable, 0);
    }

    #[test]
    fn reidentification_profiles_amortize_across_candidates() {
        let data = small_data();
        let attack = ReidentificationAttack::default();
        let profiles = attack.build_profiles(&data.dataset);
        let direct = attack.evaluate(&data.dataset, &data.dataset);
        let reused = attack.evaluate_with_profiles(&data.dataset, &profiles);
        assert_eq!(direct, reused);
        assert_eq!(profiles.user_count(), 5);
    }

    #[test]
    fn indexed_profile_distance_equals_scan() {
        let data = small_data();
        let attack = PoiAttack::default();
        let extracted = attack.extract(&data.dataset);
        let users: Vec<&Vec<GeoPoint>> = extracted.values().filter(|p| !p.is_empty()).collect();
        for observed in &users {
            for profile in &users {
                let index =
                    PointIndex::build((*profile).clone(), attack.config().match_distance)
                        .unwrap();
                assert_eq!(
                    profile_distance(observed, profile),
                    indexed_profile_distance(observed, &index)
                );
            }
        }
    }

    #[test]
    fn reident_report_on_empty_data() {
        let attack = ReidentificationAttack::default();
        let report = attack.evaluate(&Dataset::new(), &Dataset::new());
        assert_eq!(report.attempted, 0);
        assert_eq!(report.accuracy, 0.0);
    }

    #[test]
    fn profile_distance_basics() {
        let a = GeoPoint::new(45.0, 4.0).unwrap();
        let b = GeoPoint::new(45.0, 4.01).unwrap();
        let c = GeoPoint::new(45.5, 4.5).unwrap();
        // Observed POIs exactly on the profile → zero.
        assert_eq!(profile_distance(&[a, b], &[a, b]), 0.0);
        // One far observation raises the mean.
        let d = profile_distance(&[a, c], &[a, b]);
        assert!(d > 1_000.0);
    }

    #[test]
    fn default_config_values() {
        let cfg = PoiAttackConfig::default();
        assert_eq!(cfg.match_distance, Meters::new(350.0));
        assert_eq!(cfg.min_poi_dwell_s, 2_700);
        assert_eq!(cfg.concentration_factor, 3.0);
        assert_eq!(cfg.min_speed_cv, 0.3);
        assert_eq!(cfg.stay.time_threshold_s, 900);
    }
}
