use octocache_geom::{Aabb, Point3};
use serde::{Deserialize, Serialize};

use crate::scene::Scene;
use crate::sensor::DepthSensor;
use crate::trajectory::Trajectory;

/// One sensor scan: the sensor origin and the surface points it sampled.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    /// Sensor position the scan was taken from.
    pub origin: Point3,
    /// Sampled obstacle-surface points.
    pub points: Vec<Point3>,
}

/// A generated scan sequence (the synthetic analogue of one of the paper's
/// datasets).
#[derive(Debug, Clone)]
pub struct ScanSequence {
    name: &'static str,
    scans: Vec<Scan>,
    max_range: f64,
}

impl ScanSequence {
    /// Assembles a sequence from parts (used by the scan-log reader in
    /// [`crate::io`] and by tests that hand-craft workloads).
    pub fn from_parts(name: &'static str, scans: Vec<Scan>, max_range: f64) -> Self {
        ScanSequence {
            name,
            scans,
            max_range,
        }
    }

    /// Dataset name (e.g. `"fr079-corridor"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The scans in acquisition order.
    pub fn scans(&self) -> &[Scan] {
        &self.scans
    }

    /// The sensor range the scans were taken with (passed to OctoMap's
    /// `max_range` on insertion).
    pub fn max_range(&self) -> f64 {
        self.max_range
    }

    /// Total surface points over all scans.
    pub fn total_points(&self) -> usize {
        self.scans.iter().map(|s| s.points.len()).sum()
    }
}

/// Size/seed knobs for dataset generation.
///
/// `scale` multiplies both the number of scans and the ray count per scan
/// relative to the paper-shaped defaults; the benches report the scale they
/// ran at so EXPERIMENTS.md can relate measured numbers to the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Linear workload scale in `(0, 1]` (1.0 ≈ the shape of the paper's
    /// datasets, scans × rays ≈ 10⁵–10⁶ observations).
    pub scale: f64,
    /// Master seed for scene layout and sensor noise.
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            scale: 0.25,
            seed: 0xC0FFEE,
        }
    }
}

impl DatasetConfig {
    /// A milliseconds-scale configuration for unit tests.
    pub fn tiny() -> Self {
        DatasetConfig {
            scale: 0.05,
            seed: 0xC0FFEE,
        }
    }

    /// The benchmark-default configuration (seconds-scale runs).
    pub fn bench() -> Self {
        DatasetConfig::default()
    }

    /// Scales a base count, keeping at least `min`.
    fn scaled(&self, base: usize, min: usize) -> usize {
        ((base as f64 * self.scale).round() as usize).max(min)
    }

    /// Scales a base ray-grid dimension with the square root of `scale`,
    /// floored at 30 % of the base: the angular ray *density* is what
    /// creates the paper's intra-batch voxel duplication (§3.1), so scaling
    /// must thin the scan count, not the rays, below moderate scales.
    fn scaled_rays(&self, base: u32, min: u32) -> u32 {
        let factor = self.scale.sqrt().max(0.3);
        ((base as f64 * factor).round() as u32).max(min)
    }
}

/// The three datasets of the paper's Table 2, as synthetic generators.
///
/// | Paper dataset | Character reproduced here |
/// |---|---|
/// | FR-079 corridor | narrow indoor corridor, slow straight walk, short range → > 80 % inter-batch overlap, high duplication |
/// | Freiburg campus | large outdoor field with buildings, long strides → ≈ 40 % overlap |
/// | New College | courtyard loop, moderate stride → high overlap, many scans |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataset {
    /// Indoor corridor (paper: 66 point clouds).
    Fr079Corridor,
    /// Outdoor campus (paper: 81 point clouds).
    FreiburgCampus,
    /// Courtyard loop (paper: 92 361 point clouds; scaled down heavily).
    NewCollege,
}

impl Dataset {
    /// All three datasets, in the paper's presentation order.
    pub const ALL: [Dataset; 3] = [
        Dataset::Fr079Corridor,
        Dataset::FreiburgCampus,
        Dataset::NewCollege,
    ];

    /// Stable short name.
    pub fn name(&self) -> &'static str {
        match self {
            Dataset::Fr079Corridor => "fr079-corridor",
            Dataset::FreiburgCampus => "freiburg-campus",
            Dataset::NewCollege => "new-college",
        }
    }

    /// Generates the scan sequence for this dataset.
    pub fn generate(&self, config: &DatasetConfig) -> ScanSequence {
        let Survey {
            scene,
            trajectory,
            sensor,
        } = self.survey(config);
        let scans = trajectory
            .poses()
            .iter()
            .enumerate()
            .map(|(i, pose)| Scan {
                origin: pose.position,
                points: sensor.scan(&scene, pose, scan_seed(config.seed, i)),
            })
            .filter(|s| !s.points.is_empty())
            .collect();
        ScanSequence {
            name: self.name(),
            scans,
            max_range: sensor.max_range(),
        }
    }

    /// What this dataset's scans are taken from.
    fn survey(&self, config: &DatasetConfig) -> Survey {
        match self {
            Dataset::Fr079Corridor => corridor(config),
            Dataset::FreiburgCampus => campus(config),
            Dataset::NewCollege => college(config),
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A dataset's scene, the sensor's path through it and the sensor.
struct Survey {
    scene: Scene,
    trajectory: Trajectory,
    sensor: DepthSensor,
}

/// The noise seed of a dataset's `i`-th scan.
fn scan_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9E37)
}

/// FR-079 corridor: a 36 m × 4 m × 3 m corridor with wall clutter; the
/// sensor walks the centreline in 0.5 m steps (step ≪ range, giving the
/// paper's 80 %+ inter-batch overlap). Lower `scale` shortens the walk but keeps
/// the step, preserving the overlap structure.
fn corridor(config: &DatasetConfig) -> Survey {
    let bounds = Aabb::new(Point3::new(-2.0, -2.0, 0.0), Point3::new(36.0, 2.0, 3.0));
    let mut scene = Scene::new(bounds);
    scene.add_walls(0.4);
    scene.add_floor(0.0, 0.4);
    // Cabinets / door alcoves along the walls.
    scene.scatter_boxes(
        14,
        0.3,
        1.0,
        &[Aabb::new(
            Point3::new(-1.0, -0.8, 0.2),
            Point3::new(35.0, 0.8, 2.4),
        )],
        config.seed,
    );

    let scans = config.scaled(66, 6);
    const STEP: f64 = 32.0 / 65.0; // the paper-shaped walk: 66 scans / 32 m
    let end_x = (STEP * (scans - 1) as f64).min(32.0);
    let trajectory = Trajectory::straight(
        Point3::new(0.0, 0.0, 1.4),
        Point3::new(end_x, 0.0, 1.4),
        scans,
    );
    let sensor = DepthSensor::new(
        1.6,
        1.0,
        config.scaled_rays(128, 16),
        config.scaled_rays(80, 12),
        10.0,
    );
    Survey {
        scene,
        trajectory,
        sensor,
    }
}

/// Freiburg campus: a 140 m square with building-sized boxes; 6 m strides
/// between scans give the paper's ≈ 40 % overlap.
fn campus(config: &DatasetConfig) -> Survey {
    let bounds = Aabb::new(
        Point3::new(-70.0, -70.0, 0.0),
        Point3::new(70.0, 70.0, 18.0),
    );
    let mut scene = Scene::new(bounds);
    scene.add_floor(0.0, 0.5);

    // A mowing-pattern survey over the field; obstacles keep clear of thin
    // tubes around each survey leg.
    const STEP: f64 = 4.5;
    const LEG_LENGTH: f64 = 90.0;
    const SPACING: f64 = 12.0;
    const STEPS_PER_LEG: usize = 21;
    let scans = config.scaled(81, 6);
    let legs = scans.div_ceil(STEPS_PER_LEG).max(1);
    let origin = Point3::new(-45.0, -24.0, 1.8);
    let trajectory = Trajectory::boustrophedon(origin, LEG_LENGTH, SPACING, legs, STEPS_PER_LEG)
        .truncated(scans);
    debug_assert!((LEG_LENGTH / (STEPS_PER_LEG - 1) as f64 - STEP).abs() < 1.0);

    let keep_clear: Vec<Aabb> = (0..legs)
        .map(|leg| {
            let y = origin.y + leg as f64 * SPACING;
            Aabb::new(
                Point3::new(-47.0, y - 1.5, 0.6),
                Point3::new(47.0, y + 1.5, 3.0),
            )
        })
        .collect();
    // Buildings.
    scene.scatter_boxes(40, 4.0, 16.0, &keep_clear, config.seed ^ 0xCA_FE);
    // Trees / lamp posts.
    scene.scatter_boxes(120, 0.4, 1.6, &keep_clear, config.seed ^ 0xBEEF);

    let sensor = DepthSensor::new(
        2.4,
        0.9,
        config.scaled_rays(240, 24),
        config.scaled_rays(96, 12),
        25.0,
    );
    Survey {
        scene,
        trajectory,
        sensor,
    }
}

/// New College: a courtyard loop; the sensor circles the quad looking
/// outward at the enclosing buildings, in ≈ 0.63 m steps along the arc.
fn college(config: &DatasetConfig) -> Survey {
    let bounds = Aabb::new(
        Point3::new(-40.0, -40.0, 0.0),
        Point3::new(40.0, 40.0, 12.0),
    );
    let mut scene = Scene::new(bounds);
    scene.add_walls(0.6); // enclosing buildings
    scene.add_floor(0.0, 0.5);
    // Courtyard features (fountain, hedges) away from the loop itself.
    scene.scatter_boxes(
        18,
        0.8,
        3.0,
        &[Aabb::new(
            Point3::new(-19.0, -19.0, 0.0),
            Point3::new(19.0, 19.0, 3.5),
        )],
        config.seed ^ 0x0C01_1E6E,
    );

    // The paper's New College log has 92 361 clouds; we keep the loop shape
    // at a laptop-sized count with the paper-like small stride.
    const RADIUS: f64 = 24.0;
    const ANGLE_STEP: f64 = 0.5 / RADIUS;
    let scans = config.scaled(240, 8);
    let span = (ANGLE_STEP * (scans - 1) as f64).min(std::f64::consts::TAU);
    let trajectory = Trajectory::arc(Point3::new(0.0, 0.0, 1.5), RADIUS, 0.0, span, scans, true);
    let sensor = DepthSensor::new(
        1.8,
        0.8,
        config.scaled_rays(200, 20),
        config.scaled_rays(80, 10),
        20.0,
    );
    Survey {
        scene,
        trajectory,
        sensor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate_nonempty_scans() {
        for dataset in Dataset::ALL {
            let seq = dataset.generate(&DatasetConfig::tiny());
            assert!(!seq.scans().is_empty(), "{dataset} empty");
            assert!(
                seq.scans().iter().all(|s| !s.points.is_empty()),
                "{dataset} has empty scans"
            );
            assert!(seq.total_points() > 100, "{dataset} too sparse");
            assert!(seq.max_range() > 0.0);
            assert_eq!(seq.name(), dataset.name());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::FreiburgCampus.generate(&DatasetConfig::tiny());
        let b = Dataset::FreiburgCampus.generate(&DatasetConfig::tiny());
        assert_eq!(a.scans(), b.scans());
        let c = Dataset::FreiburgCampus.generate(&DatasetConfig {
            seed: 999,
            ..DatasetConfig::tiny()
        });
        assert_ne!(a.scans(), c.scans());
    }

    #[test]
    fn scale_grows_workload() {
        let small = Dataset::Fr079Corridor.generate(&DatasetConfig {
            scale: 0.05,
            seed: 1,
        });
        let large = Dataset::Fr079Corridor.generate(&DatasetConfig {
            scale: 0.3,
            seed: 1,
        });
        assert!(large.scans().len() > small.scans().len());
        assert!(large.total_points() > small.total_points());
    }

    #[test]
    fn corridor_points_inside_corridor() {
        let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
        for scan in seq.scans() {
            for p in &scan.points {
                assert!(p.x > -3.0 && p.x < 37.0, "{p}");
                assert!(p.y > -3.0 && p.y < 3.0, "{p}");
                assert!(p.z > -1.0 && p.z < 4.0, "{p}");
            }
        }
    }

    /// The per-scan obstacle cull in `DepthSensor::scan` changes no point:
    /// every scan of every dataset, at the test and benchmark scales,
    /// equals the scan that tests every ray against every box.
    #[test]
    fn culled_scans_equal_exhaustive_scans() {
        for dataset in Dataset::ALL {
            for scale in [0.05, 0.25] {
                let config = DatasetConfig {
                    scale,
                    ..DatasetConfig::default()
                };
                let Survey {
                    scene,
                    trajectory,
                    sensor,
                } = dataset.survey(&config);
                let mut culled = 0;
                for (i, pose) in trajectory.poses().iter().enumerate() {
                    let seed = scan_seed(config.seed, i);
                    assert_eq!(
                        sensor.scan(&scene, pose, seed),
                        sensor.scan_exhaustive(&scene, pose, seed),
                        "{dataset} at scale {scale}, scan {i}"
                    );
                    let near = scene.within(pose.position, sensor.max_range() * 1.01);
                    culled += scene.obstacles().len() - near.obstacles().len();
                }
                // The corridor's 10 m range reaches most of its boxes.
                assert!(culled > 0 || dataset == Dataset::Fr079Corridor, "{dataset}");
            }
        }
    }

    #[test]
    fn scan_count_tracks_paper_shape() {
        let cfg = DatasetConfig {
            scale: 1.0,
            seed: 1,
        };
        // At scale 1.0 the scan counts match the paper's Table 2 for the two
        // small datasets.
        assert_eq!(Dataset::Fr079Corridor.generate(&cfg).scans().len(), 66);
        assert_eq!(Dataset::FreiburgCampus.generate(&cfg).scans().len(), 81);
    }
}
