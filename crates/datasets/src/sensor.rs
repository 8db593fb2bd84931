use octocache_geom::Point3;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::scene::Scene;
use crate::trajectory::Pose;

/// A synthetic depth sensor: a rectangular grid of rays over a horizontal ×
/// vertical field of view, returning one surface point per ray that hits an
/// obstacle.
///
/// The angular ray density is deliberately high relative to typical mapping
/// resolutions — several rays land in the same voxel, reproducing the
/// intra-batch duplication the paper measures (2.78–31.32×, §3.1). Gaussian
/// range noise perturbs the sample points like a real depth camera.
///
/// # Example
///
/// ```
/// # use octocache_datasets::{DepthSensor, Scene, Pose};
/// # use octocache_geom::{Aabb, Point3};
/// let mut scene = Scene::new(Aabb::new(Point3::splat(-10.0), Point3::splat(10.0)));
/// scene.add_box(Aabb::new(Point3::new(4.0, -2.0, -2.0), Point3::new(5.0, 2.0, 2.0)));
/// let sensor = DepthSensor::new(1.2, 0.9, 32, 24, 8.0);
/// let cloud = sensor.scan(&scene, &Pose::new(Point3::ZERO, 0.0), 7);
/// assert!(!cloud.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DepthSensor {
    h_fov: f64,
    v_fov: f64,
    cols: u32,
    rows: u32,
    max_range: f64,
    noise_std: f64,
}

impl DepthSensor {
    /// Creates a sensor with the given fields of view (radians), ray grid
    /// and maximum range (metres).
    ///
    /// # Panics
    ///
    /// Panics when the ray grid is degenerate or the range non-positive.
    pub fn new(h_fov: f64, v_fov: f64, cols: u32, rows: u32, max_range: f64) -> Self {
        assert!(cols >= 2 && rows >= 2, "ray grid must be at least 2x2");
        assert!(max_range > 0.0, "max_range must be positive");
        DepthSensor {
            h_fov,
            v_fov,
            cols,
            rows,
            max_range,
            noise_std: 0.005,
        }
    }

    /// Sets the Gaussian range-noise standard deviation (metres).
    pub fn with_noise(mut self, noise_std: f64) -> Self {
        self.noise_std = noise_std;
        self
    }

    /// Returns a copy with a different maximum range (used by the sensing
    /// range sweeps of Figures 18/19).
    pub fn with_max_range(mut self, max_range: f64) -> Self {
        assert!(max_range > 0.0);
        self.max_range = max_range;
        self
    }

    /// The maximum sensing range in metres.
    pub fn max_range(&self) -> f64 {
        self.max_range
    }

    /// Rays per scan.
    pub fn rays_per_scan(&self) -> usize {
        (self.cols * self.rows) as usize
    }

    /// Scans the scene from a pose: one point per hitting ray, with range
    /// noise drawn deterministically from `seed`.
    ///
    /// The rays are cast only against the obstacles within range of the
    /// pose. A box is dropped when its nearest point is farther than
    /// `max_range · (1 + 10⁻⁶) + 10⁻⁶`: a ray hits only at `t ≤ max_range`
    /// along its unit direction, so no dropped box could have been hit and
    /// the points equal [`scan_exhaustive`](Self::scan_exhaustive)'s.
    pub fn scan(&self, scene: &Scene, pose: &Pose, seed: u64) -> Vec<Point3> {
        let reach = self.max_range * (1.0 + 1e-6) + 1e-6;
        self.scan_exhaustive(&scene.within(pose.position, reach), pose, seed)
    }

    /// [`scan`](Self::scan) with every ray tested against every obstacle of
    /// `scene`: slower, and the reference `scan` is checked against.
    pub fn scan_exhaustive(&self, scene: &Scene, pose: &Pose, seed: u64) -> Vec<Point3> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cloud = Vec::with_capacity(self.rays_per_scan());
        for j in 0..self.rows {
            let pitch = pose.pitch + ((j as f64 / (self.rows - 1) as f64) - 0.5) * self.v_fov;
            for i in 0..self.cols {
                let yaw = pose.yaw + ((i as f64 / (self.cols - 1) as f64) - 0.5) * self.h_fov;
                let dir = Point3::new(
                    pitch.cos() * yaw.cos(),
                    pitch.cos() * yaw.sin(),
                    pitch.sin(),
                );
                if let Some(t) = scene.ray_cast(pose.position, dir, self.max_range) {
                    let noise = gaussian(&mut rng) * self.noise_std;
                    let d = (t + noise).clamp(0.05, self.max_range);
                    cloud.push(pose.position + dir * d);
                }
            }
        }
        cloud
    }
}

/// Box–Muller standard normal sample.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random_range(1e-12..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use octocache_geom::Aabb;

    fn walled_room() -> Scene {
        let mut scene = Scene::new(Aabb::new(Point3::splat(-8.0), Point3::splat(8.0)));
        scene.add_walls(0.5);
        scene
    }

    #[test]
    fn scan_hits_walls_within_range() {
        let scene = walled_room();
        let sensor = DepthSensor::new(1.0, 0.6, 16, 12, 20.0);
        let cloud = sensor.scan(&scene, &Pose::new(Point3::ZERO, 0.0), 1);
        assert!(!cloud.is_empty());
        for p in &cloud {
            // Every sample sits near the +X wall plane (x = 8) within noise
            // and angular spread.
            assert!(p.x > 6.0 && p.x < 8.7, "{p}");
        }
    }

    #[test]
    fn empty_space_yields_no_points() {
        let scene = Scene::new(Aabb::new(Point3::splat(-8.0), Point3::splat(8.0)));
        let sensor = DepthSensor::new(1.0, 0.6, 8, 8, 5.0);
        let cloud = sensor.scan(&scene, &Pose::new(Point3::ZERO, 0.0), 1);
        assert!(cloud.is_empty());
    }

    #[test]
    fn range_limits_apply() {
        let scene = walled_room();
        let sensor = DepthSensor::new(0.8, 0.5, 8, 8, 3.0); // walls at ~8 m
        let cloud = sensor.scan(&scene, &Pose::new(Point3::ZERO, 0.0), 1);
        assert!(cloud.is_empty());
        let longer = sensor.with_max_range(12.0);
        assert!(!longer
            .scan(&scene, &Pose::new(Point3::ZERO, 0.0), 1)
            .is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let scene = walled_room();
        let sensor = DepthSensor::new(1.0, 0.6, 12, 10, 20.0);
        let pose = Pose::new(Point3::new(1.0, 0.5, 0.0), 0.3);
        let a = sensor.scan(&scene, &pose, 5);
        let b = sensor.scan(&scene, &pose, 5);
        assert_eq!(a, b);
        let c = sensor.scan(&scene, &pose, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_zero_gives_exact_surface() {
        let mut scene = Scene::new(Aabb::new(Point3::splat(-10.0), Point3::splat(10.0)));
        scene.add_box(Aabb::new(
            Point3::new(5.0, -5.0, -5.0),
            Point3::new(6.0, 5.0, 5.0),
        ));
        let sensor = DepthSensor::new(0.4, 0.4, 8, 8, 20.0).with_noise(0.0);
        let cloud = sensor.scan(&scene, &Pose::new(Point3::ZERO, 0.0), 1);
        for p in &cloud {
            assert!((p.x - 5.0).abs() < 1e-6, "{p}");
        }
    }

    #[test]
    #[should_panic(expected = "2x2")]
    fn degenerate_grid_panics() {
        DepthSensor::new(1.0, 1.0, 1, 8, 5.0);
    }
}
