//! Snapshot query consistency battery: a published [`MapSnapshot`] must
//! answer every query kind exactly like the locked live tree it was taken
//! from, on every backend.
//!
//! Three angles of attack, all over the shared seeded scenario generator
//! (`tests/common`):
//!
//! 1. **Scan-boundary tracking** — after every `insert_scan`, the freshly
//!    published snapshot answers point lookups bit-identically to the
//!    backend's own (locked) `occupancy()` path.
//! 2. **Full query-kind equality** — after the final scan, the snapshot's
//!    `occupancy` / `is_occupied` / `is_occupied_at` / `cast_ray` /
//!    `search_at_level` / box queries / `batch_occupancy` all match the
//!    flushed tree returned by `take_tree` query-for-query.
//! 3. **Cross-backend agreement** — the snapshot answer set (and the leaf
//!    checksum) is bit-identical across all seven backends, so a reader can
//!    switch backends without observing any difference.

mod common;

use common::{backends, grid, scenario, Scan, SCENARIOS};
use octocache::pipeline::MappingSystem;
use octocache::MapSnapshot;
use octocache_geom::{Aabb, Point3, VoxelKey};
use octocache_octomap::query as tree_query;
use octocache_octomap::{LeafEntry, OccupancyOcTree};
use std::sync::Arc;

/// Occupancy options compared bit-for-bit: `Some(0.0)` vs `Some(-0.0)` or
/// NaN payload drift would slip through a float `==`.
fn bits(o: Option<f32>) -> Option<u32> {
    o.map(f32::to_bits)
}

/// A deterministic probe set touching hit voxels, free-space voxels along
/// the rays, and unknown space: every scan origin and every 7th endpoint,
/// each with a one-voxel neighbour offset.
fn probe_keys(scans: &[Scan]) -> Vec<VoxelKey> {
    let g = grid();
    let mut keys = Vec::new();
    let mut push = |p: Point3| {
        if let Ok(k) = g.key_of(p) {
            keys.push(k);
            keys.push(VoxelKey::new(k.x.wrapping_add(1), k.y, k.z.wrapping_sub(1)));
        }
    };
    for scan in scans {
        push(scan.origin);
        for p in scan.points.iter().step_by(7) {
            push(*p);
            // Midpoint of the ray: free space the integrator cleared.
            push(Point3::new(
                (scan.origin.x + p.x) * 0.5,
                (scan.origin.y + p.y) * 0.5,
                (scan.origin.z + p.z) * 0.5,
            ));
        }
    }
    // Far corners that no ray reaches: the unknown-space answer.
    keys.push(VoxelKey::new(1, 1, 1));
    keys.push(VoxelKey::new(250, 250, 250));
    keys
}

/// A deterministic fan of ray directions (azimuth sweep at three pitches).
fn ray_fan() -> Vec<Point3> {
    let mut dirs = Vec::new();
    for pitch in [-0.3f64, 0.0, 0.3] {
        for i in 0..12 {
            let az = i as f64 * std::f64::consts::TAU / 12.0;
            dirs.push(Point3::new(
                az.cos() * pitch.cos(),
                az.sin() * pitch.cos(),
                pitch.sin(),
            ));
        }
    }
    dirs
}

/// Query boxes around the trajectory: tight, medium, and scene-scale.
fn probe_boxes(scans: &[Scan]) -> Vec<Aabb> {
    let mut boxes = Vec::new();
    for scan in scans.iter().step_by(4) {
        boxes.push(Aabb::from_center_size(
            scan.origin,
            Point3::new(2.0, 2.0, 2.0),
        ));
        boxes.push(Aabb::from_center_size(
            scan.origin,
            Point3::new(12.0, 12.0, 6.0),
        ));
    }
    boxes.push(Aabb::new(
        Point3::new(-20.0, -20.0, -4.0),
        Point3::new(20.0, 20.0, 4.0),
    ));
    boxes
}

/// Leaf lists compared as sorted multisets: construction order of the
/// snapshot tree (merge vs clone-and-overlay) must not leak into results.
fn sorted_leaves(mut leaves: Vec<LeafEntry>) -> Vec<(VoxelKey, u8, u32)> {
    leaves.sort_by_key(|l| (l.key, l.level));
    leaves
        .into_iter()
        .map(|l| (l.key, l.level, l.log_odds.to_bits()))
        .collect()
}

/// Angle 1: after every scan the published snapshot equals the live locked
/// map at that scan boundary, for every backend.
#[test]
fn snapshot_tracks_live_map_at_every_scan_boundary() {
    for seed in 0..SCENARIOS {
        let scans = scenario(seed * 3571 + 5);
        let probes = probe_keys(&scans);
        for (label, mut backend) in backends() {
            let handle = backend.query_handle();
            assert_eq!(handle.epoch(), 0, "{label}: unarmed handle not at epoch 0");
            for (i, scan) in scans.iter().enumerate() {
                backend
                    .insert_scan(scan.origin, &scan.points, 40.0)
                    .expect("scan within grid");
                let snap = handle.snapshot();
                assert_eq!(
                    snap.scans(),
                    i as u64 + 1,
                    "seed {seed}, {label}: snapshot scan count lags"
                );
                assert_eq!(
                    snap.epoch(),
                    i as u64 + 1,
                    "seed {seed}, {label}: epoch not bumped per scan"
                );
                for &k in &probes {
                    assert_eq!(
                        bits(snap.occupancy(k)),
                        bits(backend.occupancy(k)),
                        "seed {seed}, {label}, scan {i}, key {k:?}: \
                         snapshot diverges from locked read"
                    );
                }
            }
        }
    }
}

/// Runs all scans through a backend and returns the final snapshot plus the
/// flushed tree, so query kinds can be compared one-for-one.
fn final_snapshot_and_tree(
    mut backend: Box<dyn MappingSystem>,
    scans: &[Scan],
) -> (Arc<MapSnapshot>, OccupancyOcTree) {
    // Arm the publisher first so every scan republishes.
    let handle = backend.query_handle();
    for scan in scans {
        backend
            .insert_scan(scan.origin, &scan.points, 40.0)
            .expect("scan within grid");
    }
    let snap = handle.snapshot();
    backend.finish();
    (snap, backend.take_tree())
}

/// Angle 2: every query kind the snapshot answers matches the flushed
/// tree's own query functions, query-for-query and bit-for-bit.
#[test]
fn every_query_kind_matches_flushed_tree() {
    for seed in 0..SCENARIOS {
        let scans = scenario(seed * 9173 + 11);
        let probes = probe_keys(&scans);
        let boxes = probe_boxes(&scans);
        let fan = ray_fan();
        let origin = scans.last().expect("scenario non-empty").origin;
        for (label, backend) in backends() {
            let (snap, tree) = final_snapshot_and_tree(backend, &scans);
            let ctx = format!("seed {seed}, {label}");

            for &k in &probes {
                assert_eq!(
                    bits(snap.occupancy(k)),
                    bits(tree.search(k)),
                    "{ctx}: occupancy {k:?}"
                );
                assert_eq!(
                    snap.is_occupied(k),
                    tree.is_occupied(k),
                    "{ctx}: is_occupied {k:?}"
                );
                for level in [1u8, 2, 3] {
                    assert_eq!(
                        bits(snap.search_at_level(k, level)),
                        bits(tree_query::search_at_level(&tree, k, level)),
                        "{ctx}: search_at_level {k:?} L{level}"
                    );
                }
            }

            for scan in scans.iter().step_by(3) {
                for p in scan.points.iter().step_by(11) {
                    assert_eq!(
                        snap.is_occupied_at(*p).expect("point in grid"),
                        tree.is_occupied_at(*p).expect("point in grid"),
                        "{ctx}: is_occupied_at {p:?}"
                    );
                }
            }

            for dir in &fan {
                for ignore_unknown in [false, true] {
                    let a = snap.cast_ray(origin, *dir, 25.0, ignore_unknown);
                    let b = tree_query::cast_ray(&tree, origin, *dir, 25.0, ignore_unknown);
                    assert_eq!(a, b, "{ctx}: cast_ray dir {dir:?} iu={ignore_unknown}");
                }
            }

            for b in &boxes {
                assert_eq!(
                    snap.any_occupied_in_box(b).expect("box in grid"),
                    tree_query::any_occupied_in_box(&tree, b).expect("box in grid"),
                    "{ctx}: any_occupied_in_box {b:?}"
                );
                assert_eq!(
                    sorted_leaves(snap.leaves_in_box(b).expect("box in grid")),
                    sorted_leaves(tree_query::leaves_in_box(&tree, b).expect("box in grid")),
                    "{ctx}: leaves_in_box {b:?}"
                );
            }

            let (batch, stats) = snap.batch_occupancy(&probes);
            assert_eq!(stats.queries, probes.len() as u64, "{ctx}: batch count");
            for (i, &k) in probes.iter().enumerate() {
                assert_eq!(
                    bits(batch[i]),
                    bits(tree.search(k)),
                    "{ctx}: batch_occupancy[{i}] for {k:?}"
                );
            }
        }
    }
}

/// Angle 3: the snapshot answer set is bit-identical across all backends —
/// including the structure-independent leaf checksum — so readers observe
/// one map, not seven.
#[test]
fn snapshot_answers_agree_across_backends() {
    for seed in 0..SCENARIOS {
        let scans = scenario(seed * 4099 + 3);
        let probes = probe_keys(&scans);
        let fan = ray_fan();
        let origin = scans[0].origin;

        // (answers, checksum) fingerprint per backend.
        let mut reference: Option<(String, Vec<Option<u32>>, Vec<_>, u64)> = None;
        for (label, mut backend) in backends() {
            let handle = backend.query_handle();
            for scan in &scans {
                backend
                    .insert_scan(scan.origin, &scan.points, 40.0)
                    .expect("scan within grid");
            }
            let snap = handle.snapshot();
            let (batch, _) = snap.batch_occupancy(&probes);
            let answers: Vec<Option<u32>> =
                batch.into_iter().map(|o| o.map(f32::to_bits)).collect();
            let rays: Vec<_> = fan
                .iter()
                .map(|d| snap.cast_ray(origin, *d, 25.0, false).expect("ray in grid"))
                .collect();
            let checksum = snap.checksum();
            match &reference {
                None => reference = Some((label, answers, rays, checksum)),
                Some((ref_label, ref_answers, ref_rays, ref_checksum)) => {
                    assert_eq!(
                        &answers, ref_answers,
                        "seed {seed}: {label} occupancy differs from {ref_label}"
                    );
                    assert_eq!(
                        &rays, ref_rays,
                        "seed {seed}: {label} cast_ray differs from {ref_label}"
                    );
                    assert_eq!(
                        checksum, *ref_checksum,
                        "seed {seed}: {label} leaf checksum differs from {ref_label}"
                    );
                }
            }
        }
    }
}
