//! `compute_update` traces each ray straight into the batch.
//!
//! It used to trace every ray into a reusable [`KeyRay`] and copy the keys
//! into the batch; [`key_ray_reference`] is that path, kept here as the
//! oracle. Over random origins and clouds the batch must be the same
//! observations in the same order, with the same occupied count, and a
//! rejected scan must be rejected by both. The clouds mix the cases that
//! take a ray off the plain path: points past `max_range` (truncated, free
//! only), points outside the map cube (clamped to its boundary), points in
//! the origin's own voxel (an empty ray plus the hit) and non-finite points
//! (skipped).

use octocache_geom::ray::{self, KeyRay};
use octocache_geom::{GeomError, Point3, VoxelGrid};
use octocache_octomap::insert::{self, VoxelBatch};
use proptest::prelude::*;

/// Small enough (±16 m) that clouds reach past the map edge.
fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 6).unwrap()
}

/// The `KeyRay` path `compute_update` took before it traced into the batch.
fn key_ray_reference(
    grid: &VoxelGrid,
    origin: Point3,
    cloud: &[Point3],
    max_range: f64,
    out: &mut VoxelBatch,
) -> Result<(), GeomError> {
    out.clear();
    insert::check_origin(grid, origin)?;
    let mut key_ray = KeyRay::with_capacity(256);
    for &point in cloud {
        if !point.is_finite() {
            continue;
        }
        let delta = point - origin;
        let dist = delta.norm();
        let (end, hit) = if max_range > 0.0 && dist > max_range {
            (origin + delta * (max_range / dist), false)
        } else {
            (point, true)
        };
        let end = grid.clamp_point(end);
        ray::trace_into(grid, origin, end, &mut key_ray)?;
        for &k in key_ray.as_slice() {
            out.push(k, false);
        }
        if hit {
            out.push(grid.key_of(end)?, true);
        }
    }
    Ok(())
}

/// One point of a cloud, relative to the scan's origin.
#[derive(Debug, Clone)]
enum Shot {
    /// An offset from the origin; large ones leave the map cube.
    Offset(f64, f64, f64),
    /// Inside the origin's voxel, a fraction of a voxel away.
    SameVoxel(f64, f64, f64),
    /// A coordinate that is NaN or infinite.
    NonFinite(usize, f64),
}

fn arb_shot() -> impl Strategy<Value = Shot> {
    let non_finite = prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)];
    prop_oneof![
        6 => (-40.0f64..40.0, -40.0f64..40.0, -40.0f64..40.0)
            .prop_map(|(x, y, z)| Shot::Offset(x, y, z)),
        1 => (-0.5f64..0.5, -0.5f64..0.5, -0.5f64..0.5)
            .prop_map(|(x, y, z)| Shot::SameVoxel(x, y, z)),
        1 => (0usize..3, non_finite).prop_map(|(axis, v)| Shot::NonFinite(axis, v)),
    ]
}

fn point(grid: &VoxelGrid, origin: Point3, shot: &Shot) -> Point3 {
    match *shot {
        Shot::Offset(x, y, z) => origin + Point3::new(x, y, z),
        Shot::SameVoxel(x, y, z) => {
            // Pulled toward the voxel centre, so it cannot cross a face.
            let centre = grid.center_of(grid.key_of(origin).unwrap());
            let half = grid.resolution() / 2.0;
            centre + Point3::new(x, y, z) * half
        }
        Shot::NonFinite(axis, v) => {
            let mut p = [origin.x, origin.y, origin.z];
            p[axis] = v;
            Point3::new(p[0], p[1], p[2])
        }
    }
}

/// `compute_update`'s signature, which the reference shares.
type Trace = fn(&VoxelGrid, Point3, &[Point3], f64, &mut VoxelBatch) -> Result<(), GeomError>;

fn traced(
    trace: Trace,
    origin: Point3,
    cloud: &[Point3],
    max_range: f64,
) -> Result<VoxelBatch, GeomError> {
    // Stale contents must not survive: both paths clear first.
    let mut batch = VoxelBatch::new();
    batch.push(grid().key_of(Point3::ZERO).unwrap(), true);
    trace(&grid(), origin, cloud, max_range, &mut batch).map(|()| batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn tracing_into_the_batch_equals_the_key_ray_path(
        (ox, oy, oz) in (-15.9f64..15.9, -15.9f64..15.9, -15.9f64..15.9),
        shots in proptest::collection::vec(arb_shot(), 0..40),
        max_range in prop_oneof![
            Just(-1.0f64),
            Just(0.0),
            0.3f64..30.0,
        ],
    ) {
        let g = grid();
        let origin = Point3::new(ox, oy, oz);
        let cloud: Vec<Point3> = shots.iter().map(|s| point(&g, origin, s)).collect();
        let got = traced(insert::compute_update, origin, &cloud, max_range)
            .expect("origin inside the map");
        let expected = traced(key_ray_reference, origin, &cloud, max_range)
            .expect("origin inside the map");
        prop_assert_eq!(got.updates(), expected.updates());
        prop_assert_eq!(got.num_occupied(), expected.num_occupied());
    }

    #[test]
    fn both_paths_reject_the_same_origins(
        origin in prop_oneof![
            (-40.0f64..40.0, -40.0f64..40.0, -40.0f64..40.0)
                .prop_map(|(x, y, z)| Point3::new(x, y, z)),
            Just(Point3::new(f64::NAN, 0.0, 0.0)),
            Just(Point3::new(0.0, f64::INFINITY, 0.0)),
        ],
        shots in proptest::collection::vec(arb_shot(), 0..8),
    ) {
        let g = grid();
        let cloud: Vec<Point3> = if origin.is_finite() && g.key_of(origin).is_ok() {
            shots.iter().map(|s| point(&g, origin, s)).collect()
        } else {
            vec![Point3::new(1.0, 2.0, 3.0)]
        };
        let got = traced(insert::compute_update, origin, &cloud, 10.0);
        let expected = traced(key_ray_reference, origin, &cloud, 10.0);
        match (got, expected) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.updates(), b.updates());
                prop_assert_eq!(a.num_occupied(), b.num_occupied());
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{a:?} vs {b:?}"),
        }
    }
}

/// The edge cases by name, so a failure points at one.
#[test]
fn named_edge_cases_equal_the_key_ray_path() {
    let g = grid();
    let origin = Point3::new(0.3, -0.2, 0.6);
    let same_voxel = g.center_of(g.key_of(origin).unwrap());
    let cases: [(&str, Vec<Point3>, f64); 5] = [
        ("truncated", vec![Point3::new(12.0, 3.0, -2.0)], 4.0),
        ("clamped", vec![Point3::new(100.0, -70.0, 3.0)], 0.0),
        (
            "clamped and truncated",
            vec![Point3::new(-90.0, 5.0, 80.0)],
            20.0,
        ),
        ("endpoint in the origin's voxel", vec![same_voxel], 10.0),
        (
            "non-finite",
            vec![
                Point3::new(f64::NAN, 1.0, 1.0),
                Point3::new(2.0, f64::NEG_INFINITY, 0.0),
            ],
            10.0,
        ),
    ];
    for (name, cloud, max_range) in cases {
        let got = traced(insert::compute_update, origin, &cloud, max_range).unwrap();
        let expected = traced(key_ray_reference, origin, &cloud, max_range).unwrap();
        assert_eq!(got.updates(), expected.updates(), "{name}");
        assert_eq!(got.num_occupied(), expected.num_occupied(), "{name}");
    }
}
