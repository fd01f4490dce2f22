//! Property-based tests of the PRIVAPI mechanisms and metrics.

use geo::GeoPoint;
use mobility::{Dataset, LocationRecord, Timestamp, Trajectory, UserId};
use privapi::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A plausible single-user trajectory: time-ordered records in a city box
/// (~5 km × 4 km — keeps path lengths, and therefore test cost, bounded).
fn trajectory() -> impl Strategy<Value = Trajectory> {
    prop::collection::vec((45.0..45.05f64, 4.0..4.05f64), 2..40).prop_map(|points| {
        let records: Vec<LocationRecord> = points
            .into_iter()
            .enumerate()
            .map(|(i, (la, lo))| {
                LocationRecord::new(
                    UserId(1),
                    Timestamp::new(i as i64 * 60),
                    GeoPoint::new(la, lo).unwrap(),
                )
            })
            .collect();
        Trajectory::new(UserId(1), records)
    })
}

fn small_dataset() -> impl Strategy<Value = Dataset> {
    prop::collection::vec(trajectory(), 1..4).prop_map(|ts| {
        // Re-key each trajectory to its own user.
        let ts: Vec<Trajectory> = ts
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let records: Vec<LocationRecord> = t
                    .records()
                    .iter()
                    .map(|r| LocationRecord::new(UserId(i as u64), r.time, r.point))
                    .collect();
                Trajectory::new(UserId(i as u64), records)
            })
            .collect();
        Dataset::from_trajectories(ts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The paper's guarantee: smoothed output has (near-)constant speed,
    /// whatever the input. Timestamps are whole seconds, so the assertion
    /// only applies when segments are long enough (≥ 10 s mean) for the
    /// ±0.5 s quantization not to dominate the measurement.
    #[test]
    fn smoothing_speed_is_constant(t in trajectory(), eps in 30.0..300.0f64) {
        let strategy = SpeedSmoothing::new(geo::Meters::new(eps)).unwrap();
        let smoothed = strategy.smooth_trajectory(&t);
        let long_enough = smoothed.len() >= 3
            && smoothed.duration_s() >= smoothed.len() as i64 * 10;
        if long_enough {
            if let Some(cv) = smoothed.speed_cv() {
                prop_assert!(cv < 0.35, "cv {cv} for eps {eps}");
            }
        }
    }

    /// Smoothing never invents points far from the original path.
    #[test]
    fn smoothing_stays_near_the_path(t in trajectory(), eps in 50.0..300.0f64) {
        let strategy = SpeedSmoothing::new(geo::Meters::new(eps)).unwrap();
        let smoothed = strategy.smooth_trajectory(&t);
        // Densify the original polyline so distance-to-path (not merely
        // distance-to-vertex) is measured.
        let dense = geo::polyline::resample_by_distance(&t.points(), geo::Meters::new(50.0))
            .unwrap_or_else(|_| t.points());
        for r in smoothed.records() {
            let min_d = dense
                .iter()
                .map(|p| p.haversine_distance(&r.point).get())
                .fold(f64::INFINITY, f64::min);
            // Within DP tolerance (eps/2) plus resampling/densify slack.
            prop_assert!(min_d <= eps * 1.5 + 60.0, "point {min_d} m off-path");
        }
    }

    /// Timestamps of smoothed trajectories stay within the original span
    /// and are sorted.
    #[test]
    fn smoothing_preserves_time_span(t in trajectory(), eps in 30.0..300.0f64) {
        let strategy = SpeedSmoothing::new(geo::Meters::new(eps)).unwrap();
        let smoothed = strategy.smooth_trajectory(&t);
        if smoothed.is_empty() { return Ok(()); }
        prop_assert!(smoothed.start_time() >= t.start_time());
        prop_assert!(smoothed.end_time() <= t.end_time());
    }

    /// Geo-I perturbs every point independently but keeps structure intact.
    #[test]
    fn geo_i_preserves_structure(ds in small_dataset(), eps_exp in -3.0..0.0f64, seed in any::<u64>()) {
        let eps = 10f64.powf(eps_exp) / 10.0; // 1e-4 .. 1e-1 per metre
        let mech = GeoIndistinguishability::new(eps).unwrap();
        let out = mech.anonymize(&ds, seed);
        prop_assert_eq!(out.record_count(), ds.record_count());
        prop_assert_eq!(out.user_count(), ds.user_count());
        for (a, b) in ds.iter_records().zip(out.iter_records()) {
            prop_assert_eq!(a.time, b.time);
            prop_assert_eq!(a.user, b.user);
        }
    }

    /// Cloaking displacement is bounded by the cell half-diagonal.
    #[test]
    fn cloaking_displacement_bounded(ds in small_dataset(), cell in 100.0..1_000.0f64) {
        let mech = SpatialCloaking::new(geo::Meters::new(cell)).unwrap();
        let out = mech.anonymize(&ds, 0);
        let bound = cell * std::f64::consts::SQRT_2 / 2.0 + 1.0;
        for (a, b) in ds.iter_records().zip(out.iter_records()) {
            let d = a.point.haversine_distance(&b.point).get();
            prop_assert!(d <= bound, "displaced {d} m with {cell} m cells");
        }
    }

    /// Downsampling output spacing respects the window and is a subset.
    #[test]
    fn downsampling_respects_window(ds in small_dataset(), window in 60i64..3_000) {
        let mech = TemporalDownsampling::new(window).unwrap();
        let out = mech.anonymize(&ds, 0);
        prop_assert!(out.record_count() <= ds.record_count());
        for t in out.trajectories() {
            for w in t.records().windows(2) {
                prop_assert!(w[1].time - w[0].time >= window);
            }
        }
    }

    /// Every strategy keeps the user population intact (no user is silently
    /// dropped — pseudonym continuity is what re-identification tests need).
    #[test]
    fn strategies_preserve_users(ds in small_dataset(), seed in any::<u64>()) {
        let strategies: Vec<Box<dyn privapi::strategy::AnonymizationStrategy>> = vec![
            Box::new(Identity::new()),
            Box::new(GeoIndistinguishability::new(0.01).unwrap()),
            Box::new(SpeedSmoothing::new(geo::Meters::new(100.0)).unwrap()),
            Box::new(SpatialCloaking::new(geo::Meters::new(250.0)).unwrap()),
            Box::new(GaussianPerturbation::new(geo::Meters::new(50.0)).unwrap()),
            Box::new(TemporalDownsampling::new(300).unwrap()),
        ];
        for s in &strategies {
            let out = s.anonymize(&ds, seed);
            prop_assert_eq!(out.user_count(), ds.user_count(), "{}", s.info());
        }
    }

    /// Attack reports are well-formed probabilities.
    #[test]
    fn attack_reports_are_probabilities(ds in small_dataset()) {
        let attack = PoiAttack::default();
        let reference = attack.extract(&ds);
        let report = attack.evaluate_reference(&ds, &reference);
        prop_assert!((0.0..=1.0).contains(&report.recall));
        prop_assert!((0.0..=1.0).contains(&report.precision));
        prop_assert!((0.0..=1.0).contains(&report.f1));
        prop_assert!(report.matched <= report.reference_pois);
    }

    /// The indexed matcher is bit-identical to the pairwise scan matcher on
    /// arbitrary datasets (same extraction, two matching paths).
    #[test]
    fn indexed_matcher_matches_scan_matcher(ds in small_dataset()) {
        let attack = PoiAttack::default();
        let reference = attack.extract(&ds);
        let indexed = attack.evaluate_reference(&ds, &reference);
        let scan = attack.evaluate_reference_scan(&ds, &reference);
        prop_assert_eq!(indexed, scan);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The shard contract behind parallel extraction: for any generator
    /// seed and population shape, the per-user rayon fan-out returns
    /// `ReferencePois` byte-identical to the sequential reference path
    /// (mirrors `parallel_engine_matches_sequential` one layer down).
    #[test]
    fn parallel_extract_matches_serial(
        seed in any::<u64>(),
        users in 1usize..5,
        days in 1usize..4,
    ) {
        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xE10)
            .build()
            .generate_with_truth(&mobility::gen::PopulationConfig {
                users,
                days,
                sampling_interval_s: 240,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        let attack = PoiAttack::default();
        prop_assert_eq!(
            attack.extract(&data.dataset),
            attack.extract_serial(&data.dataset)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The engine contract behind parallel selection: for any seed, privacy
    /// floor and objective, the parallel schedule produces a
    /// `SelectionReport` identical to the sequential one (same candidate
    /// rows, same winner under the `(utility, −recall, index)` order).
    #[test]
    fn parallel_engine_matches_sequential(
        seed in any::<u64>(),
        floor in 0.05..0.9f64,
        objective_pick in 0u8..3,
    ) {
        use privapi::engine::{EvaluationEngine, ExecutionMode};
        use privapi::pool::StrategyPool;
        use privapi::selection::Objective;

        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xE9)
            .build()
            .generate_with_truth(&mobility::gen::PopulationConfig {
                users: 3,
                days: 2,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        let attack = PoiAttack::default();
        let reference = attack.extract(&data.dataset);
        let objective = match objective_pick {
            0 => Objective::CrowdedPlaces { cell: geo::Meters::new(250.0), k: 10 },
            1 => Objective::Traffic { cell: geo::Meters::new(500.0) },
            _ => Objective::Distortion,
        };
        let pool = StrategyPool::default_pool();
        let sequential = EvaluationEngine::new(objective, floor, seed)
            .with_mode(ExecutionMode::Sequential)
            .evaluate(&pool, &data.dataset, &reference)
            .unwrap();
        let parallel = EvaluationEngine::new(objective, floor, seed)
            .with_mode(ExecutionMode::Parallel)
            .evaluate(&pool, &data.dataset, &reference)
            .unwrap();
        prop_assert_eq!(&sequential, &parallel);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The planar Laplace radius distribution has the theoretical mean 2/ε
    /// (checked loosely over random epsilons).
    #[test]
    fn geo_i_noise_mean_tracks_epsilon(eps_mul in 1.0..20.0f64, seed in any::<u64>()) {
        let eps = eps_mul / 1_000.0; // 0.001 .. 0.02
        let mech = GeoIndistinguishability::new(eps).unwrap();
        let origin = GeoPoint::new(45.2, 4.2).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 600;
        let mean: f64 = (0..n)
            .map(|_| origin.haversine_distance(&mech.perturb(&origin, &mut rng)).get())
            .sum::<f64>() / n as f64;
        let expected = 2.0 / eps;
        prop_assert!((mean - expected).abs() / expected < 0.25,
            "eps {eps}: mean {mean} vs {expected}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Bounding-box-widening parity: a far-out record on the last day
    /// drifts the prefix bounding box — often across a quantized
    /// 0.05°-lattice line, shifting every grid-anchored cell. Streaming
    /// must stay byte-identical to batch prefixes with zero full
    /// extractions: the copy-on-write store re-anonymizes only what the
    /// anchor shift invalidates, and the incremental utility baselines
    /// rebuild their grids without touching the scoring entry points.
    #[test]
    fn bbox_widening_keeps_streaming_parity(
        seed in any::<u64>(),
        users in 2usize..4,
        widen_deg in 0.01..0.25f64,
    ) {
        use mobility::{WindowedDataset, DAY_SECONDS};
        use privapi::streaming::StreamingPublisher;

        let days = 3usize;
        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xB0B)
            .build()
            .generate_population(&mobility::gen::PopulationConfig {
                users,
                days,
                sampling_interval_s: 600,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        // Last-day outlier: user 0 wanders `widen_deg` north-east of the
        // city, widening every later prefix's box.
        let bbox = data.bounding_box().unwrap();
        let outlier = GeoPoint::new(
            bbox.max().latitude() + widen_deg,
            bbox.max().longitude() + widen_deg,
        ).unwrap();
        let mut records: Vec<LocationRecord> = data.iter_records().cloned().collect();
        records.push(LocationRecord::new(
            UserId(0),
            Timestamp::new((days as i64 - 1) * DAY_SECONDS + 3_600),
            outlier,
        ));
        let data = Dataset::from_records(records);
        let windows = WindowedDataset::partition(&data);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let probe = publisher.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let incremental = publisher.publish_window(window);
            prop_assert_eq!(
                probe.extractions() - before,
                0,
                "window {}: widening must stay on the incremental paths",
                i
            );
            let batch = PrivApi::default().publish(&windows.prefix(i));
            match (incremental, batch) {
                (Ok(inc), Ok(batch)) => {
                    prop_assert_eq!(&inc.published.selection, &batch.selection, "window {}", i);
                    prop_assert_eq!(&inc.published.dataset, &batch.dataset, "window {}", i);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(format!("{a}"), format!("{b}"), "window {}", i);
                }
                (inc, batch) => {
                    return Err(TestCaseError::fail(format!(
                        "window {i}: streaming {inc:?} vs batch {batch:?} disagree"
                    )));
                }
            }
        }
    }

    /// The streaming-publication contract: replaying a dataset as day
    /// windows selects byte-identical winners (same selection report, same
    /// released data) as batch-publishing each concatenated prefix, for
    /// any generator seed and population shape — and never pays a full
    /// extraction pass after ingesting the window: the original side goes
    /// through the session cache's per-user delta path and every
    /// default-pool candidate's self-attack goes through its per-strategy
    /// shard cache ([`privapi::streaming::StrategySessionCache`]).
    ///
    /// Participation is thinned deterministically per (user, day) so some
    /// windows genuinely miss users — without that, generated data keeps
    /// everyone active daily and the caches' reuse paths would never be
    /// exercised across seeds.
    #[test]
    fn streaming_windows_match_batch_prefix_publish(
        seed in any::<u64>(),
        users in 2usize..5,
        days in 2usize..4,
    ) {
        use mobility::WindowedDataset;
        use privapi::streaming::StreamingPublisher;

        let data = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xE11)
            .build()
            .generate_population(&mobility::gen::PopulationConfig {
                users,
                days,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.3,
            });
        // Keep day 0 complete, then drop roughly half the later
        // (user, day) pairs so shard reuse actually triggers — through
        // the shared deterministic thinning helper, salted by the case's
        // seed so the dropout pattern varies across cases.
        let data = mobility::gen::thin_participation_salted(&data, 50, seed);
        let windows = WindowedDataset::partition(&data);
        let mut publisher = StreamingPublisher::new(PrivApiConfig::default());
        let pool = publisher.privapi().pool().len();
        let probe = publisher.privapi().attack().clone();
        for (i, window) in windows.iter().enumerate() {
            let before = probe.extractions();
            let incremental = publisher.publish_window(window);
            let extractions = probe.extractions() - before;
            prop_assert!(
                extractions < pool + 1,
                "window {}: {} extractions breaks the streaming budget",
                i,
                extractions
            );
            prop_assert_eq!(
                extractions,
                0,
                "window {}: both cache layers must spare every full pass",
                i
            );
            let batch = PrivApi::default().publish(&windows.prefix(i));
            match (incremental, batch) {
                (Ok(inc), Ok(batch)) => {
                    prop_assert_eq!(&inc.published.selection, &batch.selection, "window {}", i);
                    prop_assert_eq!(&inc.published.strategy, &batch.strategy, "window {}", i);
                    prop_assert_eq!(&inc.published.privacy, &batch.privacy, "window {}", i);
                    prop_assert_eq!(&inc.published.dataset, &batch.dataset, "window {}", i);
                    prop_assert_eq!(inc.day, window.day());
                }
                (Err(a), Err(b)) => {
                    // Both paths must fail the same way (e.g. no feasible
                    // strategy on a tiny prefix).
                    prop_assert_eq!(format!("{a}"), format!("{b}"), "window {}", i);
                }
                (inc, batch) => {
                    return Err(TestCaseError::fail(format!(
                        "window {i}: streaming {inc:?} vs batch {batch:?} disagree"
                    )));
                }
            }
        }
    }
}

/// Every mechanism the crate builds: the default pool, the evaluation grid,
/// cloaking pinned to `anchor`, and each of those rebuilt from its
/// broadcast [`StrategySpec`].
fn contract_strategies(anchor: geo::BoundingBox) -> Vec<Box<dyn AnonymizationStrategy>> {
    let mut all = StrategyPool::default_pool().into_candidates();
    all.extend(StrategyPool::evaluation_grid().into_candidates());
    all.push(Box::new(
        SpatialCloaking::new(geo::Meters::new(300.0))
            .unwrap()
            .with_anchor(anchor),
    ));
    let rebuilt: Vec<Box<dyn AnonymizationStrategy>> = all
        .iter()
        .filter_map(|s| s.spec())
        .map(|spec| spec.instantiate(Some(&anchor)).unwrap())
        .collect();
    all.extend(rebuilt);
    all
}

/// Synthetic user id pinning a view's bounding box (never generated by
/// [`small_dataset`]).
const PIN: UserId = UserId(u64::MAX);

/// `ds` plus two single-record [`PIN`] trajectories at `bbox`'s corners,
/// so the view's bounding box is `bbox` whatever `ds` holds.
fn pinned(ds: &Dataset, bbox: geo::BoundingBox) -> Dataset {
    let mut view = ds.clone();
    for corner in [bbox.min(), bbox.max()] {
        view.push(Trajectory::new(
            PIN,
            vec![LocationRecord::new(PIN, Timestamp::new(0), corner)],
        ));
    }
    view
}

/// `strategy`'s output for `ds` with the pin trajectories dropped.
fn anonymized(
    strategy: &dyn AnonymizationStrategy,
    ds: &Dataset,
    seed: u64,
) -> Vec<std::sync::Arc<Trajectory>> {
    strategy
        .anonymize(ds, seed)
        .into_shared()
        .into_iter()
        .filter(|t| t.user() != PIN)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The per-trajectory locality contract the streaming caches append
    /// under: for every local strategy, anonymizing `prefix ++ window`
    /// gives `anonymize(prefix)` on the prefix's trajectories and
    /// `anonymize(window)` on the rest — with the bounding box pinned to
    /// the combined one for grid-anchored strategies.
    #[test]
    fn local_strategies_anonymize_per_trajectory(
        prefix in small_dataset(),
        window in small_dataset(),
        seed in any::<u64>(),
    ) {
        // The window is the next day's data.
        let window: Dataset = window
            .trajectories()
            .iter()
            .map(|t| {
                let records = t
                    .records()
                    .iter()
                    .map(|r| {
                        LocationRecord::new(
                            r.user,
                            Timestamp::new(r.time.seconds() + mobility::DAY_SECONDS),
                            r.point,
                        )
                    })
                    .collect();
                Trajectory::new(t.user(), records)
            })
            .collect();
        let mut combined = prefix.clone();
        for t in window.trajectories() {
            combined.push_shared(t.clone());
        }
        let bbox = combined.bounding_box().unwrap();
        for strategy in contract_strategies(bbox.grid_anchor()) {
            let view = |ds: &Dataset| match strategy.locality() {
                UserLocality::GridAnchored => pinned(ds, bbox),
                _ => ds.clone(),
            };
            prop_assert!(strategy.locality() != UserLocality::NonLocal, "{}", strategy.info());
            let whole = anonymized(strategy.as_ref(), &view(&combined), seed);
            let head = anonymized(strategy.as_ref(), &view(&prefix), seed);
            let tail = anonymized(strategy.as_ref(), &view(&window), seed);
            let n = prefix.trajectory_count();
            prop_assert_eq!(whole.len(), n + window.trajectory_count(), "{}", strategy.info());
            prop_assert_eq!(&whole[..n], &head[..], "{}: prefix output moved", strategy.info());
            prop_assert_eq!(&whole[n..], &tail[..], "{}: window output differs", strategy.info());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Folding a user's history window by window — split at random day
    /// boundaries — gives a shard equal to one-shot extraction, on raw
    /// and on noised data.
    #[test]
    fn shard_fold_equals_one_shot_extraction(
        seed in any::<u64>(),
        users in 1usize..3,
        days in 2usize..5,
        cuts in prop::collection::vec(any::<bool>(), 4..5),
    ) {
        use mobility::WindowedDataset;

        let raw = mobility::gen::CityModel::builder()
            .seed(seed ^ 0xF01D)
            .build()
            .generate_population(&mobility::gen::PopulationConfig {
                users,
                days,
                sampling_interval_s: 300,
                gps_noise_m: 5.0,
                leisure_probability: 0.4,
            });
        let windows = WindowedDataset::partition(&raw);
        let raw = windows.prefix(windows.len() - 1);
        let noisy = GeoIndistinguishability::new(0.01).unwrap().anonymize(&raw, seed);
        let attack = PoiAttack::default();
        for history in [raw, noisy] {
            let grid = attack.extraction_grid(&history).unwrap();
            // Day-major trajectories; a chunk closes after day d when
            // cuts[d] is set (and always at the end).
            let mut chunks: Vec<Dataset> = vec![Dataset::new()];
            for (d, window) in windows.iter().enumerate() {
                for t in history.trajectories() {
                    if t.start_time().map(|s| s.day_index()) == Some(window.day()) {
                        chunks.last_mut().unwrap().push_shared(t.clone());
                    }
                }
                if cuts[d % cuts.len()] {
                    chunks.push(Dataset::new());
                }
            }
            for user in history.users() {
                let mut shard = UserAttackShard::empty(user);
                for chunk in &chunks {
                    shard = attack.fold_user(shard, chunk, &grid).expect("days arrive in order");
                }
                prop_assert_eq!(&shard, &attack.extract_user(&history, user, &grid));
            }
        }
    }
}
