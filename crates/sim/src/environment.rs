use octocache_datasets::Scene;
use octocache_geom::{Aabb, Point3};
use serde::{Deserialize, Serialize};

/// Baseline sensing/mapping parameters for one environment (paper §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BaselineParams {
    /// Sensing range in metres.
    pub sensing_range: f64,
    /// Mapping resolution in metres.
    pub resolution: f64,
}

/// The four MAVBench simulation environments of the paper's Figure 15.
///
/// Task difficulty ranks *Room > Factory > Farm > Open land* (§5.1); goal
/// distances are the paper's (100 m, 50 m, 12 m, 70 m). The `-RT` baselines
/// use finer resolutions; the paper's values (0.04–0.01 m) are scaled up 5×
/// here so the laptop-scale benches finish — the relative ordering across
/// environments is preserved and the scale factor is reported by the
/// benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Environment {
    /// Structured outdoor environment, goal 100 m away.
    Openland,
    /// Unstructured outdoor environment, goal 50 m away.
    Farm,
    /// Indoor environment, goal 12 m away.
    Room,
    /// Mixed outdoor/indoor environment, goal 70 m away.
    Factory,
}

impl Environment {
    /// All environments in the paper's presentation order.
    pub const ALL: [Environment; 4] = [
        Environment::Openland,
        Environment::Farm,
        Environment::Room,
        Environment::Factory,
    ];

    /// Stable short name.
    pub fn name(&self) -> &'static str {
        match self {
            Environment::Openland => "openland",
            Environment::Farm => "farm",
            Environment::Room => "room",
            Environment::Factory => "factory",
        }
    }

    /// The paper's goal distance for this environment (metres).
    pub fn goal_distance(&self) -> f64 {
        match self {
            Environment::Openland => 100.0,
            Environment::Farm => 50.0,
            Environment::Room => 12.0,
            Environment::Factory => 70.0,
        }
    }

    /// Baseline <sensing range, mapping resolution> for the OctoMap vs
    /// OctoCache comparison (§5.1).
    pub fn baseline_params(&self) -> BaselineParams {
        match self {
            Environment::Openland => BaselineParams {
                sensing_range: 8.0,
                resolution: 1.0,
            },
            Environment::Farm => BaselineParams {
                sensing_range: 4.5,
                resolution: 0.3,
            },
            Environment::Room => BaselineParams {
                sensing_range: 3.0,
                resolution: 0.15,
            },
            Environment::Factory => BaselineParams {
                sensing_range: 6.0,
                resolution: 0.5,
            },
        }
    }

    /// Baseline parameters for the `-RT` comparison. The paper's RT
    /// resolutions (0.04 / 0.02 / 0.01 / 0.03 m) are scaled up 5× to stay
    /// laptop-sized (0.2 / 0.1 / 0.05 / 0.15 m).
    pub fn baseline_params_rt(&self) -> BaselineParams {
        match self {
            Environment::Openland => BaselineParams {
                sensing_range: 8.0,
                resolution: 0.2,
            },
            Environment::Farm => BaselineParams {
                sensing_range: 4.5,
                resolution: 0.1,
            },
            Environment::Room => BaselineParams {
                sensing_range: 3.0,
                resolution: 0.05,
            },
            Environment::Factory => BaselineParams {
                sensing_range: 6.0,
                resolution: 0.15,
            },
        }
    }

    /// The UAV's start position.
    pub fn start(&self) -> Point3 {
        Point3::new(0.0, 0.0, self.flight_altitude())
    }

    /// The mission goal position.
    pub fn goal(&self) -> Point3 {
        Point3::new(self.goal_distance(), 0.0, self.flight_altitude())
    }

    /// Cruise altitude (indoor environments fly lower).
    pub fn flight_altitude(&self) -> f64 {
        match self {
            Environment::Room => 1.2,
            Environment::Factory => 1.8,
            _ => 2.5,
        }
    }

    /// Builds the obstacle scene, deterministically from `seed`.
    pub fn scene(&self, seed: u64) -> Scene {
        let margin = 8.0;
        let d = self.goal_distance();
        match self {
            Environment::Openland => {
                // Structured outdoor: a sparse line of pylons beside the path.
                let bounds = Aabb::new(
                    Point3::new(-margin, -20.0, 0.0),
                    Point3::new(d + margin, 20.0, 12.0),
                );
                let mut scene = Scene::new(bounds);
                scene.add_floor(0.0, 0.5);
                scene.scatter_boxes(10, 0.5, 2.0, &[self.corridor_clear()], seed);
                scene
            }
            Environment::Farm => {
                // Unstructured outdoor: dense crops/machinery clutter, low
                // ceiling so the sensor always has surfaces in view.
                let bounds = Aabb::new(
                    Point3::new(-margin, -15.0, 0.0),
                    Point3::new(d + margin, 15.0, 5.0),
                );
                let mut scene = Scene::new(bounds);
                scene.add_floor(0.0, 0.5);
                scene.scatter_boxes(260, 0.5, 3.0, &[self.corridor_clear()], seed ^ 0xFA_12);
                scene
            }
            Environment::Room => {
                // Indoor: walls all around plus furniture.
                let bounds =
                    Aabb::new(Point3::new(-2.0, -4.0, 0.0), Point3::new(d + 2.0, 4.0, 2.8));
                let mut scene = Scene::new(bounds);
                scene.add_walls(0.3);
                scene.add_floor(0.0, 0.3);
                scene.scatter_boxes(10, 0.3, 1.2, &[self.corridor_clear()], seed ^ 0x0B0E);
                scene
            }
            Environment::Factory => {
                // Mixed: an open yard leading into a machine hall.
                let bounds = Aabb::new(
                    Point3::new(-margin, -12.0, 0.0),
                    Point3::new(d + margin, 12.0, 7.0),
                );
                let mut scene = Scene::new(bounds);
                scene.add_floor(0.0, 0.5);
                // Hall walls over the second half of the course.
                scene.add_box(Aabb::new(
                    Point3::new(d / 2.0, -12.0, 0.0),
                    Point3::new(d / 2.0 + 0.4, -2.0, 7.0),
                ));
                scene.add_box(Aabb::new(
                    Point3::new(d / 2.0, 2.0, 0.0),
                    Point3::new(d / 2.0 + 0.4, 12.0, 7.0),
                ));
                scene.scatter_boxes(25, 0.6, 3.0, &[self.corridor_clear()], seed ^ 0xFAC7);
                scene
            }
        }
    }

    /// A tube around the nominal flight path kept free of obstacles so every
    /// mission is completable (the paper's scenarios are all solvable).
    fn corridor_clear(&self) -> Aabb {
        let z = self.flight_altitude();
        Aabb::new(
            Point3::new(-2.0, -1.6, z - 1.0),
            Point3::new(self.goal_distance() + 2.0, 1.6, z + 1.0),
        )
    }
}

impl std::fmt::Display for Environment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goal_distances_match_paper() {
        assert_eq!(Environment::Openland.goal_distance(), 100.0);
        assert_eq!(Environment::Farm.goal_distance(), 50.0);
        assert_eq!(Environment::Room.goal_distance(), 12.0);
        assert_eq!(Environment::Factory.goal_distance(), 70.0);
    }

    #[test]
    fn baseline_params_match_paper() {
        let p = Environment::Openland.baseline_params();
        assert_eq!((p.sensing_range, p.resolution), (8.0, 1.0));
        let p = Environment::Room.baseline_params();
        assert_eq!((p.sensing_range, p.resolution), (3.0, 0.15));
    }

    #[test]
    fn rt_resolutions_are_finer() {
        for env in Environment::ALL {
            assert!(
                env.baseline_params_rt().resolution < env.baseline_params().resolution,
                "{env}"
            );
        }
    }

    #[test]
    fn scenes_keep_flight_corridor_clear() {
        for env in Environment::ALL {
            let scene = env.scene(7);
            let start = env.start();
            let goal = env.goal();
            // The direct line may still be checked by the planner, but the
            // corridor tube must contain no obstacle *centres*; verify the
            // start and goal are free.
            assert!(!scene.is_inside_obstacle(start), "{env} start blocked");
            assert!(!scene.is_inside_obstacle(goal), "{env} goal blocked");
            assert!(
                !scene.segment_blocked(start, goal),
                "{env} direct path blocked by construction"
            );
        }
    }

    #[test]
    fn scenes_have_obstacles_to_see() {
        for env in Environment::ALL {
            let scene = env.scene(7);
            assert!(
                scene.obstacles().len() >= 5,
                "{env} too empty: {}",
                scene.obstacles().len()
            );
        }
    }

    /// The per-scan obstacle cull in `DepthSensor::scan` changes no point
    /// in any environment: poses sampled along and beside the course, at
    /// the mission's sensor and at a longer range, scan as they do against
    /// every box.
    #[test]
    fn culled_scans_equal_exhaustive_scans() {
        use octocache_datasets::{DepthSensor, Pose};
        for env in Environment::ALL {
            let scene = env.scene(0x5EED);
            let range = env.baseline_params().sensing_range;
            for sensor in [
                DepthSensor::new(1.5, 1.0, 48, 32, range),
                DepthSensor::new(2.4, 1.2, 40, 24, range * 3.0),
            ] {
                for k in 0..24 {
                    let along = k as f64 / 23.0;
                    let position = env.start()
                        + (env.goal() - env.start()) * along
                        + Point3::new(0.0, (k % 3) as f64 - 1.0, (k % 2) as f64 * 0.5);
                    let pose = Pose {
                        position,
                        yaw: k as f64 * 0.7,
                        pitch: (k % 5) as f64 * 0.1 - 0.2,
                    };
                    assert_eq!(
                        sensor.scan(&scene, &pose, k),
                        sensor.scan_exhaustive(&scene, &pose, k),
                        "{env}, pose {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn scene_deterministic_per_seed() {
        let a = Environment::Farm.scene(1);
        let b = Environment::Farm.scene(1);
        assert_eq!(a.obstacles(), b.obstacles());
        let c = Environment::Farm.scene(2);
        assert_ne!(a.obstacles(), c.obstacles());
    }
}
