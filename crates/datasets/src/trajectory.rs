use octocache_geom::Point3;

/// A sensor pose: position plus viewing direction (yaw around Z, pitch from
/// the horizontal plane).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pose {
    /// Sensor position in world coordinates.
    pub position: Point3,
    /// Heading angle in the XY plane, radians.
    pub yaw: f64,
    /// Elevation angle from the XY plane, radians (positive = up).
    pub pitch: f64,
}

impl Pose {
    /// Creates a level pose looking along `yaw`.
    pub fn new(position: Point3, yaw: f64) -> Self {
        Pose {
            position,
            yaw,
            pitch: 0.0,
        }
    }

    /// The unit forward vector of this pose.
    pub fn forward(&self) -> Point3 {
        Point3::new(
            self.pitch.cos() * self.yaw.cos(),
            self.pitch.cos() * self.yaw.sin(),
            self.pitch.sin(),
        )
    }
}

/// A sequence of sensor poses along which scans are taken.
///
/// The generators mirror the motion patterns behind the paper's datasets:
/// a slow walk through a corridor, a loop around a campus, a long meander.
/// Successive poses are close together relative to the sensing range, which
/// is what creates the high inter-batch voxel overlap of the paper's
/// Figure 7/8.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Trajectory {
    poses: Vec<Pose>,
}

impl Trajectory {
    /// The poses.
    pub fn poses(&self) -> &[Pose] {
        &self.poses
    }

    /// A straight line from `start` to `end` with `steps` poses, looking
    /// along the direction of travel.
    pub fn straight(start: Point3, end: Point3, steps: usize) -> Self {
        assert!(steps >= 2, "a line needs at least 2 poses");
        let dir = end - start;
        let yaw = dir.y.atan2(dir.x);
        let poses = (0..steps)
            .map(|i| {
                let t = i as f64 / (steps - 1) as f64;
                Pose::new(start.lerp(end, t), yaw)
            })
            .collect();
        Trajectory { poses }
    }

    /// An arc of a circle from `start_angle` to `end_angle` (radians) with
    /// `steps` poses, looking outward or along the tangent.
    pub(crate) fn arc(
        center: Point3,
        radius: f64,
        start_angle: f64,
        end_angle: f64,
        steps: usize,
        look_outward: bool,
    ) -> Self {
        assert!(steps >= 2, "an arc needs at least 2 poses");
        let poses = (0..steps)
            .map(|i| {
                let t = i as f64 / (steps - 1) as f64;
                let a = start_angle + (end_angle - start_angle) * t;
                let position = center + Point3::new(a.cos() * radius, a.sin() * radius, 0.0);
                let yaw = if look_outward {
                    a
                } else {
                    a + std::f64::consts::FRAC_PI_2
                };
                Pose::new(position, yaw)
            })
            .collect();
        Trajectory { poses }
    }

    /// The first `n` poses (all of them when the trajectory is shorter).
    pub fn truncated(&self, n: usize) -> Trajectory {
        Trajectory {
            poses: self.poses.iter().copied().take(n).collect(),
        }
    }

    /// A back-and-forth sweep along the X axis: `legs` straight passes of
    /// `length`, offset by `spacing` in Y — the mowing pattern of a mapping
    /// survey.
    pub(crate) fn boustrophedon(
        origin: Point3,
        length: f64,
        spacing: f64,
        legs: usize,
        steps_per_leg: usize,
    ) -> Self {
        assert!(legs >= 1 && steps_per_leg >= 2);
        let mut poses = Vec::with_capacity(legs * steps_per_leg);
        for leg in 0..legs {
            let y = origin.y + leg as f64 * spacing;
            let (x0, x1, yaw) = if leg % 2 == 0 {
                (origin.x, origin.x + length, 0.0)
            } else {
                (origin.x + length, origin.x, std::f64::consts::PI)
            };
            for i in 0..steps_per_leg {
                let t = i as f64 / (steps_per_leg - 1) as f64;
                let x = x0 + (x1 - x0) * t;
                poses.push(Pose::new(Point3::new(x, y, origin.z), yaw));
            }
        }
        Trajectory { poses }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_vectors() {
        let p = Pose::new(Point3::ZERO, 0.0);
        assert!((p.forward() - Point3::new(1.0, 0.0, 0.0)).norm() < 1e-12);
        let q = Pose::new(Point3::ZERO, std::f64::consts::FRAC_PI_2);
        assert!((q.forward() - Point3::new(0.0, 1.0, 0.0)).norm() < 1e-12);
        let up = Pose {
            pitch: std::f64::consts::FRAC_PI_2,
            ..p
        };
        assert!((up.forward() - Point3::new(0.0, 0.0, 1.0)).norm() < 1e-12);
    }

    #[test]
    fn straight_endpoints_and_heading() {
        let t = Trajectory::straight(Point3::ZERO, Point3::new(10.0, 0.0, 1.0), 11);
        assert_eq!(t.poses().len(), 11);
        assert_eq!(t.poses()[0].position, Point3::ZERO);
        assert_eq!(t.poses()[10].position, Point3::new(10.0, 0.0, 1.0));
        assert!((t.poses()[5].yaw).abs() < 1e-12);
    }

    #[test]
    fn boustrophedon_alternates_direction() {
        let t = Trajectory::boustrophedon(Point3::ZERO, 10.0, 2.0, 3, 5);
        assert_eq!(t.poses().len(), 15);
        assert!((t.poses()[0].yaw).abs() < 1e-12);
        assert!((t.poses()[5].yaw - std::f64::consts::PI).abs() < 1e-12);
        // Leg 1 starts where leg 0 ended in X.
        assert!((t.poses()[4].position.x - 10.0).abs() < 1e-12);
        assert!((t.poses()[5].position.x - 10.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn straight_rejects_single_pose() {
        Trajectory::straight(Point3::ZERO, Point3::ZERO, 1);
    }
}
