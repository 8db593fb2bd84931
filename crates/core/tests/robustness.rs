//! Invalid-input robustness properties: no backend may panic, and a
//! rejected scan must be transactional (no partial application).
//!
//! Property-tested contract, shared by every `MappingSystem` backend:
//!
//! * A non-finite or out-of-grid **origin** makes `insert_scan` return
//!   `Err(PipelineError::Geom(_))` and leaves the map exactly as it was —
//!   the failed scan applies nothing.
//! * Non-finite **cloud points** are skipped (the scan still succeeds),
//!   and out-of-grid endpoints are clamped — so every backend produces the
//!   identical map from the same dirty cloud.

use octocache::pipeline::{MappingSystem, OctoMapSystem};
use octocache::{CacheConfig, ParallelOctoCache, PipelineError, SerialOctoCache};
use octocache_geom::{Point3, VoxelGrid};
use octocache_octomap::{compare, insert, OccupancyOcTree, OccupancyParams};
use proptest::prelude::*;

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

/// Small cache so the pipelines exercise eviction even in short runs.
fn cache() -> CacheConfig {
    CacheConfig::builder()
        .num_buckets(1 << 6)
        .tau(1)
        .build()
        .unwrap()
}

/// Every backend under test.
fn backends() -> Vec<(&'static str, Box<dyn MappingSystem>)> {
    let params = OccupancyParams::default();
    vec![
        ("octomap", Box::new(OctoMapSystem::new(grid(), params))),
        (
            "serial",
            Box::new(SerialOctoCache::new(grid(), params, cache())),
        ),
        (
            "parallel",
            Box::new(ParallelOctoCache::new(grid(), params, cache())),
        ),
    ]
}

/// A valid scan that populates several octants.
fn valid_scan(offset: f64) -> (Point3, Vec<Point3>) {
    let cloud = (0..40)
        .map(|i| {
            let a = i as f64 * 0.53 + offset;
            Point3::new(
                10.0 * a.sin(),
                10.0 * a.cos(),
                if i % 2 == 0 { 3.0 } else { -3.0 },
            )
        })
        .collect();
    (Point3::new(0.0, 0.0, offset.fract()), cloud)
}

/// An invalid origin: non-finite or far outside the mapped cube.
fn arb_bad_origin() -> impl Strategy<Value = Point3> {
    prop_oneof![
        Just(Point3::new(f64::NAN, 0.0, 0.0)),
        Just(Point3::new(0.0, f64::INFINITY, 0.0)),
        Just(Point3::new(0.0, 0.0, f64::NEG_INFINITY)),
        (200.0f64..1e9, -1e9f64..1e9).prop_map(|(x, y)| Point3::new(x, y, 0.0)),
        (-1e9f64..-200.0).prop_map(|z| Point3::new(0.0, 0.0, z)),
    ]
}

/// A cloud mixing valid endpoints with NaN/inf and out-of-grid points.
fn arb_dirty_cloud() -> impl Strategy<Value = Vec<Point3>> {
    let point = prop_oneof![
        4 => (-15.0f64..15.0, -15.0f64..15.0, -6.0f64..6.0)
            .prop_map(|(x, y, z)| Point3::new(x, y, z)),
        1 => Just(Point3::new(f64::NAN, 1.0, 1.0)),
        1 => Just(Point3::new(1.0, f64::INFINITY, 1.0)),
        1 => (-1e6f64..1e6, -1e6f64..1e6).prop_map(|(x, y)| Point3::new(x, y, 1e7)),
    ];
    proptest::collection::vec(point, 1..50)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A bad origin is a typed error on every backend, and the rejected
    /// scan leaves the map untouched (compare against a twin that never
    /// saw the bad scan).
    #[test]
    fn bad_origin_is_err_and_applies_nothing(bad_origin in arb_bad_origin()) {
        for ((label, dirty), (_, clean)) in backends().into_iter().zip(backends()) {
            let mut dirty = dirty;
            let mut clean = clean;
            let (o1, c1) = valid_scan(0.0);
            let (o2, c2) = valid_scan(1.7);
            dirty.insert_scan(o1, &c1, 40.0).unwrap();
            clean.insert_scan(o1, &c1, 40.0).unwrap();

            let err = dirty.insert_scan(bad_origin, &c2, 40.0);
            prop_assert!(
                matches!(err, Err(PipelineError::Geom(_))),
                "{label}: {bad_origin:?} gave {err:?}"
            );
            // Mid-stream, before any further scan: every voxel the first
            // scan touched already answers as the clean twin's.
            let mut traced = insert::VoxelBatch::new();
            insert::compute_update(&grid(), o1, &c1, 40.0, &mut traced).unwrap();
            for u in traced.updates() {
                prop_assert_eq!(
                    dirty.occupancy(u.key),
                    clean.occupancy(u.key),
                    "{}: {} answers differently after the rejected scan", label, u.key
                );
            }

            dirty.insert_scan(o2, &c2, 40.0).unwrap();
            clean.insert_scan(o2, &c2, 40.0).unwrap();
            dirty.finish();
            clean.finish();
            let a = dirty.take_tree();
            let b = clean.take_tree();
            let d = compare::diff(&a, &b, 0.0);
            prop_assert!(
                d.is_identical(),
                "{label}: rejected scan left {} value / {} coverage mismatches",
                d.value_mismatches,
                d.coverage_mismatches
            );
        }
    }

    /// Dirty cloud points (NaN/inf skipped, out-of-grid clamped) never
    /// panic and every backend produces the identical map.
    #[test]
    fn dirty_clouds_map_identically_on_every_backend(cloud in arb_dirty_cloud()) {
        let origin = Point3::new(0.5, -0.5, 0.25);
        let mut reference: Option<OccupancyOcTree> = None;
        for (label, mut backend) in backends() {
            backend.insert_scan(origin, &cloud, 40.0).unwrap();
            backend.finish();
            let tree = backend.take_tree();
            match &reference {
                None => reference = Some(tree),
                Some(r) => {
                    let d = compare::diff(r, &tree, 1e-4);
                    prop_assert!(
                        d.is_identical(),
                        "{label}: {} value / {} coverage mismatches vs octomap",
                        d.value_mismatches,
                        d.coverage_mismatches
                    );
                }
            }
        }
    }
}
