//! A dynamic-environment scan sequence.
//!
//! The paper's §2.2 notes that OctoMap clamps log-odds to `[min_occ,
//! max_occ]` precisely "so that it can deal with dynamic environments":
//! a bounded value can be driven back across the threshold by a handful of
//! contrary observations. This generator produces the canonical test for
//! that behaviour — an obstacle that is present for the first half of the
//! scans and removed for the second half — so the mapping stack (and the
//! cache in front of it, which must preserve the semantics) can be checked
//! end to end.

use octocache_geom::{Aabb, Point3};

use crate::dataset::{Scan, ScanSequence};
use crate::scene::Scene;
use crate::sensor::DepthSensor;
use crate::trajectory::Pose;

/// Where the transient obstacle sits (for assertions in tests).
pub(crate) const OBSTACLE_CENTER: Point3 = Point3 {
    x: 6.1, // face at x = 5.6, mid-voxel at common resolutions
    y: 0.0,
    z: 1.0,
};

/// A point on the obstacle's sensor-facing surface — the voxel that actually
/// receives occupied observations while the obstacle is present (the
/// interior is occluded), and free sweeps after it vanishes.
pub const OBSTACLE_FACE: Point3 = Point3 {
    x: 5.6,
    y: 0.0,
    z: 1.0,
};

/// Generates `2 × half_scans` scans from a static sensor pose: the first
/// half observe a box centred at (5.6, 0, 1) m in front of a back wall, the
/// second half observe the same space with the box removed (the back wall
/// keeps providing returns, so the vacated voxels are swept free).
pub fn vanishing_obstacle(half_scans: usize, seed: u64) -> ScanSequence {
    let bounds = Aabb::new(Point3::new(-2.0, -6.0, 0.0), Point3::new(14.0, 6.0, 4.0));
    let mut with_box = Scene::new(bounds);
    with_box.add_floor(0.0, 0.4);
    // Back wall behind the obstacle.
    with_box.add_box(Aabb::new(
        Point3::new(10.0, -6.0, 0.0),
        Point3::new(10.5, 6.0, 4.0),
    ));
    let without_box = with_box.clone();
    with_box.add_box(Aabb::from_center_size(
        OBSTACLE_CENTER,
        Point3::new(1.0, 2.0, 1.6),
    ));

    let pose = Pose::new(Point3::new(0.0, 0.0, 1.0), 0.0);
    let sensor = DepthSensor::new(1.2, 0.8, 48, 36, 15.0);
    let mut scans = Vec::with_capacity(half_scans * 2);
    for i in 0..half_scans {
        scans.push(Scan {
            origin: pose.position,
            points: sensor.scan(&with_box, &pose, seed ^ i as u64),
        });
    }
    for i in 0..half_scans {
        scans.push(Scan {
            origin: pose.position,
            points: sensor.scan(&without_box, &pose, seed ^ (half_scans + i) as u64),
        });
    }
    ScanSequence::from_parts("vanishing-obstacle", scans, sensor.max_range())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obstacle_visible_then_gone() {
        let seq = vanishing_obstacle(4, 3);
        assert_eq!(seq.scans().len(), 8);
        // First-half scans contain returns near the obstacle face (x ≈ 5.5).
        let near_obstacle = |scan: &Scan| {
            scan.points
                .iter()
                // z filter excludes floor returns under the obstacle site.
                .filter(|p| (p.x - 5.5).abs() < 0.5 && p.y.abs() < 1.0 && p.z > 0.4)
                .count()
        };
        assert!(near_obstacle(&seq.scans()[0]) > 10);
        // Second-half scans see through to the back wall instead.
        assert_eq!(near_obstacle(&seq.scans()[6]), 0);
        assert!(seq.scans()[6].points.iter().any(|p| p.x > 9.5));
    }

    #[test]
    fn deterministic() {
        let a = vanishing_obstacle(3, 9);
        let b = vanishing_obstacle(3, 9);
        assert_eq!(a.scans(), b.scans());
    }
}
