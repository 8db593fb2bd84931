//! `compute_update` traces each ray straight into the batch, eight rays at
//! a time where the CPU has AVX-512 ([`ray::trace_lanes`]).
//!
//! It used to trace every ray into a reusable [`KeyRay`] and copy the keys
//! into the batch; [`key_ray_reference`] is that path, kept here as the
//! oracle. Over random origins and clouds the batch must be the same
//! observations in the same order, with the same occupied count, and a
//! rejected scan must be rejected by both. The clouds mix the cases that
//! take a ray off the plain path: points past `max_range` (truncated, free
//! only), points outside the map cube (clamped to its boundary), points in
//! the origin's own voxel (an empty ray plus the hit) and non-finite points
//! (skipped). Sensor-shaped clouds on a deep grid give the lanes hundreds
//! of rays of very different lengths, so lanes refill mid-scan, and the
//! fixed cases name the rays whose arithmetic is most fragile: axis-aligned
//! ones, ends on voxel faces, ends clamped at the map edge and a ray that
//! runs out its `manhattan + 6` bound. Finally the lanes are checked
//! directly against [`ray::trace_with`], errors included.

use octocache_geom::ray::{self, KeyRay, KeySink, VoxelUpdate};
use octocache_geom::{GeomError, Point3, VoxelGrid, VoxelKey};
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

/// The edge cases by name, so a failure points at one. Each cloud repeats
/// its case among plain rays, so the lanes meet it beside others.
#[test]
fn named_edge_cases_equal_the_key_ray_path() {
    let g = grid();
    let origin = Point3::new(0.3, -0.2, 0.6);
    let same_voxel = g.center_of(g.key_of(origin).unwrap());
    // From a voxel centre, so the faces below lie at exact multiples.
    let centre = Point3::new(0.25, 0.25, 0.25);
    let plain: Vec<Point3> = (0..11)
        .map(|i| origin + Point3::new(9.0 - i as f64, 4.0, i as f64 * 0.7 - 3.0))
        .collect();
    let cases: [(&str, Point3, Vec<Point3>, f64); 10] = [
        ("truncated", origin, vec![Point3::new(12.0, 3.0, -2.0)], 4.0),
        ("clamped", origin, vec![Point3::new(100.0, -70.0, 3.0)], 0.0),
        (
            "clamped and truncated",
            origin,
            vec![Point3::new(-90.0, 5.0, 80.0)],
            20.0,
        ),
        (
            "clamped at the map edge, every face",
            origin,
            vec![
                Point3::new(16.0, 0.1, 0.2),
                Point3::new(-16.0, 0.1, 0.2),
                Point3::new(0.1, 16.0, 0.2),
                Point3::new(0.1, -16.0, 0.2),
                Point3::new(0.1, 0.2, 16.0),
                Point3::new(0.1, 0.2, -16.0),
                Point3::new(40.0, 40.0, 40.0),
            ],
            0.0,
        ),
        (
            "endpoint in the origin's voxel",
            origin,
            vec![same_voxel],
            10.0,
        ),
        (
            "non-finite",
            origin,
            vec![
                Point3::new(f64::NAN, 1.0, 1.0),
                Point3::new(2.0, f64::NEG_INFINITY, 0.0),
            ],
            10.0,
        ),
        (
            "axis-aligned, both ways on every axis",
            centre,
            vec![
                Point3::new(7.25, 0.25, 0.25),
                Point3::new(-6.25, 0.25, 0.25),
                Point3::new(0.25, 5.25, 0.25),
                Point3::new(0.25, -8.25, 0.25),
                Point3::new(0.25, 0.25, 9.25),
                Point3::new(0.25, 0.25, -4.25),
            ],
            0.0,
        ),
        (
            "ends on voxel faces",
            centre,
            vec![
                Point3::new(3.0, 0.25, 0.25),
                Point3::new(-3.0, 0.25, 0.25),
                Point3::new(3.0, 2.0, 0.25),
                Point3::new(-2.5, -1.5, 1.0),
                Point3::new(4.0, 4.0, 4.0),
            ],
            0.0,
        ),
        (
            "diagonals through voxel edges and corners (compare ties)",
            centre,
            vec![
                Point3::new(3.25, 3.25, 0.25),
                Point3::new(0.25, -2.75, 2.75),
                Point3::new(-3.75, 0.25, -3.75),
                Point3::new(3.25, 3.25, 3.25),
                Point3::new(-4.75, 4.75, -4.75),
            ],
            0.0,
        ),
        (
            "a ray that exhausts its manhattan + 6 bound",
            EXHAUSTED.0,
            vec![EXHAUSTED.1],
            0.0,
        ),
    ];
    for (name, origin, case, max_range) in cases {
        let mut cloud = plain.clone();
        for (i, &p) in case.iter().enumerate() {
            cloud.insert(3 * i, p);
            cloud.push(p);
        }
        let got = traced(insert::compute_update, origin, &cloud, max_range).unwrap();
        let expected = traced(key_ray_reference, origin, &cloud, max_range).unwrap();
        assert_eq!(got.updates(), expected.updates(), "{name}");
        assert_eq!(got.num_occupied(), expected.num_occupied(), "{name}");
    }
}

/// A ray whose end voxel lies one voxel up in z while its z direction is
/// below the DDA's 10⁻¹² cut: it never steps in z, so it never meets the
/// end voxel and stops at its `manhattan + 6` bound.
const EXHAUSTED: (Point3, Point3) = (
    Point3::new(0.25, 0.25, 1.0 - 1e-13),
    Point3::new(10.25, 0.25, 1.0),
);

#[test]
fn the_exhausted_ray_runs_its_whole_bound() {
    let g = grid();
    let (origin, end) = EXHAUSTED;
    let manhattan = g
        .key_of(origin)
        .unwrap()
        .manhattan_distance(g.key_of(end).unwrap());
    let keys = ray::trace(&g, origin, end).unwrap();
    assert_eq!(
        keys.len(),
        manhattan as usize + 7,
        "the origin and 6 + manhattan steps"
    );
}

/// A deep grid (0.05 m, depth 16): rays cross up to thousands of voxels.
fn deep_grid() -> VoxelGrid {
    VoxelGrid::new(0.05, 16).unwrap()
}

/// A depth camera's cloud: `cols × rows` rays over a cone around `yaw`,
/// each to a depth drawn from `seed` across three orders of magnitude
/// (from inside the origin's voxel to tens of metres), some missing
/// (non-finite) and some past the map edge.
fn sensor_cloud(origin: Point3, yaw: f64, cols: usize, rows: usize, seed: u64) -> Vec<Point3> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut cloud = Vec::with_capacity(cols * rows);
    for r in 0..rows {
        let pitch = (r as f64 / rows as f64 - 0.5) * 1.0;
        for c in 0..cols {
            let heading = yaw + (c as f64 / cols as f64 - 0.5) * 1.6;
            let dir = Point3::new(
                pitch.cos() * heading.cos(),
                pitch.cos() * heading.sin(),
                pitch.sin(),
            );
            let scale = [0.02, 0.4, 4.0, 40.0, 4000.0][(next() * 5.0) as usize];
            let depth = scale * next();
            cloud.push(match (next() * 40.0) as usize {
                0 => Point3::new(f64::NAN, 0.0, 0.0),
                _ => origin + dir * depth,
            });
        }
    }
    cloud
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sensor_clouds_on_a_deep_grid_equal_the_key_ray_path(
        (ox, oy, oz) in (-60.0f64..60.0, -60.0f64..60.0, -5.0f64..5.0),
        yaw in -3.2f64..3.2,
        (cols, rows) in (8usize..40, 4usize..16),
        seed in any::<u64>(),
        max_range in prop_oneof![Just(0.0f64), Just(30.0), 0.5f64..80.0],
    ) {
        let g = deep_grid();
        let origin = Point3::new(ox, oy, oz);
        let cloud = sensor_cloud(origin, yaw, cols, rows, seed);
        let run = |trace: Trace| {
            let mut batch = VoxelBatch::new();
            trace(&g, origin, &cloud, max_range, &mut batch).map(|()| batch)
        };
        let (got, expected) = (run(insert::compute_update).unwrap(), run(key_ray_reference).unwrap());
        prop_assert_eq!(got.updates(), expected.updates());
        prop_assert_eq!(got.num_occupied(), expected.num_occupied());
    }
}

/// One sensor-sized scan, large enough that its batch grows several times
/// from empty while lanes are in flight, and then again into a batch that
/// already holds room.
#[test]
fn a_dense_scan_equals_the_key_ray_path_from_empty_and_from_reuse() {
    let g = deep_grid();
    let origin = Point3::new(1.3, -2.2, 1.4);
    let cloud = sensor_cloud(origin, 0.4, 64, 48, 0x5EED);
    let mut expected = VoxelBatch::new();
    key_ray_reference(&g, origin, &cloud, 0.0, &mut expected).unwrap();
    let mut got = VoxelBatch::new();
    for _ in 0..2 {
        insert::compute_update(&g, origin, &cloud, 0.0, &mut got).unwrap();
        assert_eq!(got.updates(), expected.updates());
        assert_eq!(got.num_occupied(), expected.num_occupied());
    }
}

/// The scalar path the lanes replace: [`ray::trace_with`] per ray, then the
/// hit.
fn by_trace_with(
    grid: &VoxelGrid,
    origin: Point3,
    rays: &[(Point3, bool)],
    out: &mut Vec<VoxelUpdate>,
) -> Result<(), GeomError> {
    struct Free<'a>(&'a mut Vec<VoxelUpdate>);
    impl KeySink for Free<'_> {
        fn reserve(&mut self, max_keys: usize) {
            self.0.reserve(max_keys);
        }
        fn push(&mut self, key: VoxelKey) {
            self.0.push(VoxelUpdate {
                key,
                occupied: false,
            });
        }
    }
    for &(end, hit) in rays {
        ray::trace_with(grid, origin, end, &mut Free(out))?;
        if hit {
            out.push(VoxelUpdate {
                key: grid.key_of(end)?,
                occupied: true,
            });
        }
    }
    Ok(())
}

/// Says in the test log which tracer `compute_update` runs on this CPU, so
/// a machine without AVX-512 (where the lanes are never checked) shows.
#[test]
fn report_the_tracer_in_use() {
    if ray::lanes_available() {
        eprintln!("tracer: AVX-512 lanes, checked against trace_with");
    } else {
        eprintln!("tracer: scalar trace_with only; no AVX-512 on this CPU, lanes unchecked");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lanes are `trace_with` ray by ray, bit for bit, on rays the
    /// batch path never hands them: ends outside the map and non-finite
    /// ends, which fail both the same way after the same output.
    #[test]
    fn lanes_equal_trace_with_ray_by_ray(
        (ox, oy, oz) in (-15.9f64..15.9, -15.9f64..15.9, -15.9f64..15.9),
        rays in proptest::collection::vec(
            (
                prop_oneof![
                    12 => (-15.9f64..15.9, -15.9f64..15.9, -15.9f64..15.9)
                        .prop_map(|(x, y, z)| Point3::new(x, y, z)),
                    1 => Just(Point3::new(40.0, 0.0, 0.0)),
                    1 => Just(Point3::new(0.0, f64::NAN, 0.0)),
                ],
                any::<bool>(),
            ),
            0..200,
        ),
    ) {
        if !ray::lanes_available() {
            return Ok(());
        }
        let g = grid();
        let origin = Point3::new(ox, oy, oz);
        let (mut got, mut expected) = (Vec::new(), Vec::new());
        let lanes = ray::trace_lanes(&g, origin, rays.iter().copied(), &mut got);
        let scalar = by_trace_with(&g, origin, &rays, &mut expected);
        prop_assert_eq!(lanes, scalar);
        prop_assert_eq!(got, expected);
    }
}
