use octocache_geom::{Aabb, Point3};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Implicit obstacle geometry: a collection of axis-aligned boxes inside a
/// bounding region, with exact nearest-hit ray casting.
///
/// Scenes stand in for the physical environments the paper's datasets were
/// recorded in (corridor walls, campus buildings and trees, …) and for the
/// MAVBench simulation environments.
///
/// # Example
///
/// ```
/// # use octocache_datasets::Scene;
/// # use octocache_geom::{Aabb, Point3};
/// let mut scene = Scene::new(Aabb::new(Point3::splat(-10.0), Point3::splat(10.0)));
/// scene.add_box(Aabb::new(Point3::new(4.0, -1.0, -1.0), Point3::new(5.0, 1.0, 1.0)));
/// let hit = scene.ray_cast(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 20.0);
/// assert!((hit.unwrap() - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Scene {
    bounds: Aabb,
    obstacles: Vec<Aabb>,
}

impl Scene {
    /// Creates an empty scene with the given navigable bounds.
    pub fn new(bounds: Aabb) -> Self {
        Scene {
            bounds,
            obstacles: Vec::new(),
        }
    }

    /// The navigable bounding region.
    pub fn bounds(&self) -> &Aabb {
        &self.bounds
    }

    /// The obstacle boxes.
    pub fn obstacles(&self) -> &[Aabb] {
        &self.obstacles
    }

    /// Adds one obstacle box.
    pub fn add_box(&mut self, b: Aabb) -> &mut Self {
        self.obstacles.push(b);
        self
    }

    /// Adds a floor slab covering the bounds at height `z` with the given
    /// thickness.
    pub fn add_floor(&mut self, z: f64, thickness: f64) -> &mut Self {
        let b = self.bounds;
        self.add_box(Aabb::new(
            Point3::new(b.min.x, b.min.y, z - thickness),
            Point3::new(b.max.x, b.max.y, z),
        ))
    }

    /// Adds four walls around the bounds (a closed room), `thickness` thick,
    /// spanning the full height of the bounds.
    pub fn add_walls(&mut self, thickness: f64) -> &mut Self {
        let b = self.bounds;
        // X- and X+ walls.
        self.add_box(Aabb::new(
            Point3::new(b.min.x - thickness, b.min.y, b.min.z),
            Point3::new(b.min.x, b.max.y, b.max.z),
        ));
        self.add_box(Aabb::new(
            Point3::new(b.max.x, b.min.y, b.min.z),
            Point3::new(b.max.x + thickness, b.max.y, b.max.z),
        ));
        // Y- and Y+ walls.
        self.add_box(Aabb::new(
            Point3::new(b.min.x, b.min.y - thickness, b.min.z),
            Point3::new(b.max.x, b.min.y, b.max.z),
        ));
        self.add_box(Aabb::new(
            Point3::new(b.min.x, b.max.y, b.min.z),
            Point3::new(b.max.x, b.max.y + thickness, b.max.z),
        ));
        self
    }

    /// Scatters `count` random box obstacles of side `min_size..max_size`
    /// within the bounds, deterministically from `seed`. Boxes overlapping
    /// any `keep_clear` region (e.g. the sensor trajectory corridor) are
    /// re-rolled.
    pub fn scatter_boxes(
        &mut self,
        count: usize,
        min_size: f64,
        max_size: f64,
        keep_clear: &[Aabb],
        seed: u64,
    ) -> &mut Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let b = self.bounds;
        let mut placed = 0;
        let mut attempts = 0;
        while placed < count && attempts < count * 50 {
            attempts += 1;
            let extent = b.size();
            // Clamp sizes so a box always fits inside the bounds (e.g.
            // building-sized boxes in a low-ceiling region keep their
            // footprint but lose height).
            let cap = |e: f64| (e * 0.45).max(1e-6);
            let size = Point3::new(
                rng.random_range(min_size..max_size).min(cap(extent.x)),
                rng.random_range(min_size..max_size).min(cap(extent.y)),
                rng.random_range(min_size..max_size).min(cap(extent.z)),
            );
            let center = Point3::new(
                rng.random_range(b.min.x + size.x..b.max.x - size.x),
                rng.random_range(b.min.y + size.y..b.max.y - size.y),
                rng.random_range(b.min.z + size.z..b.max.z - size.z),
            );
            let candidate = Aabb::from_center_size(center, size);
            if keep_clear.iter().any(|clear| candidate.intersects(clear)) {
                continue;
            }
            self.add_box(candidate);
            placed += 1;
        }
        self
    }

    /// The same scene with only the obstacles whose nearest point lies
    /// within `radius` of `center`: what a ray from `center` can hit within
    /// `radius`, for callers that cast many.
    pub fn within(&self, center: Point3, radius: f64) -> Scene {
        // One allocation of the whole scene's size: a `collect` growing by
        // doubling left its freed steps between a dataset's clouds, and
        // `college_readers` peaked 1.7 MB higher.
        let mut obstacles = Vec::with_capacity(self.obstacles.len());
        obstacles.extend(
            self.obstacles
                .iter()
                .filter(|o| o.distance_to(center) <= radius),
        );
        Scene {
            bounds: self.bounds,
            obstacles,
        }
    }

    /// Casts a ray and returns the distance to the nearest obstacle surface
    /// within `max_range`, or `None` when nothing is hit.
    ///
    /// `direction` must be normalised for the returned value to be metric
    /// distance.
    pub fn ray_cast(&self, origin: Point3, direction: Point3, max_range: f64) -> Option<f64> {
        let mut nearest: Option<f64> = None;
        for obstacle in &self.obstacles {
            if let Some(t) = obstacle.intersect_ray(origin, direction, max_range) {
                // Ignore hits at t == 0 (origin inside an obstacle).
                if t > 1e-9 {
                    nearest = Some(match nearest {
                        Some(n) => n.min(t),
                        None => t,
                    });
                }
            }
        }
        nearest
    }

    /// True when the point is inside any obstacle.
    pub fn is_inside_obstacle(&self, p: Point3) -> bool {
        self.obstacles.iter().any(|o| o.contains(p))
    }

    /// True when the straight segment `a`→`b` crosses an obstacle.
    pub fn segment_blocked(&self, a: Point3, b: Point3) -> bool {
        let d = b - a;
        let len = d.norm();
        if len < 1e-12 {
            return self.is_inside_obstacle(a);
        }
        self.ray_cast(a, d / len, len).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Aabb {
        Aabb::new(Point3::splat(-20.0), Point3::splat(20.0))
    }

    #[test]
    fn empty_scene_never_hits() {
        let scene = Scene::new(bounds());
        assert!(scene
            .ray_cast(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 100.0)
            .is_none());
        assert!(!scene.is_inside_obstacle(Point3::ZERO));
    }

    #[test]
    fn nearest_of_two_boxes_wins() {
        let mut scene = Scene::new(bounds());
        scene.add_box(Aabb::new(
            Point3::new(8.0, -1.0, -1.0),
            Point3::new(9.0, 1.0, 1.0),
        ));
        scene.add_box(Aabb::new(
            Point3::new(3.0, -1.0, -1.0),
            Point3::new(4.0, 1.0, 1.0),
        ));
        let t = scene
            .ray_cast(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 100.0)
            .unwrap();
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn max_range_limits_hits() {
        let mut scene = Scene::new(bounds());
        scene.add_box(Aabb::new(
            Point3::new(8.0, -1.0, -1.0),
            Point3::new(9.0, 1.0, 1.0),
        ));
        assert!(scene
            .ray_cast(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 5.0)
            .is_none());
    }

    #[test]
    fn walls_close_the_room() {
        let mut scene = Scene::new(Aabb::new(Point3::splat(-5.0), Point3::splat(5.0)));
        scene.add_walls(0.5);
        // A ray in any axis direction hits a wall at distance 5.
        for dir in [
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(-1.0, 0.0, 0.0),
            Point3::new(0.0, 1.0, 0.0),
            Point3::new(0.0, -1.0, 0.0),
        ] {
            let t = scene.ray_cast(Point3::ZERO, dir, 100.0).unwrap();
            assert!((t - 5.0).abs() < 1e-9, "{dir:?} -> {t}");
        }
    }

    #[test]
    fn floor_is_hit_from_above() {
        let mut scene = Scene::new(bounds());
        scene.add_floor(0.0, 0.5);
        let t = scene
            .ray_cast(
                Point3::new(0.0, 0.0, 3.0),
                Point3::new(0.0, 0.0, -1.0),
                10.0,
            )
            .unwrap();
        assert!((t - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scatter_respects_keep_clear_and_determinism() {
        let clear = Aabb::new(Point3::new(-2.0, -2.0, -2.0), Point3::new(2.0, 2.0, 2.0));
        let mut a = Scene::new(bounds());
        a.scatter_boxes(25, 0.5, 2.0, std::slice::from_ref(&clear), 42);
        let mut b = Scene::new(bounds());
        b.scatter_boxes(25, 0.5, 2.0, std::slice::from_ref(&clear), 42);
        assert_eq!(a.obstacles().len(), 25);
        assert_eq!(a.obstacles(), b.obstacles(), "same seed, same scene");
        for o in a.obstacles() {
            assert!(!o.intersects(&clear));
        }
        let mut c = Scene::new(bounds());
        c.scatter_boxes(25, 0.5, 2.0, std::slice::from_ref(&clear), 43);
        assert_ne!(a.obstacles(), c.obstacles(), "different seed differs");
    }

    #[test]
    fn segment_blocked_detects_obstacle() {
        let mut scene = Scene::new(bounds());
        scene.add_box(Aabb::new(
            Point3::new(4.0, -1.0, -1.0),
            Point3::new(5.0, 1.0, 1.0),
        ));
        assert!(scene.segment_blocked(Point3::ZERO, Point3::new(10.0, 0.0, 0.0)));
        assert!(!scene.segment_blocked(Point3::ZERO, Point3::new(3.0, 0.0, 0.0)));
        assert!(!scene.segment_blocked(Point3::new(0.0, 5.0, 0.0), Point3::new(10.0, 5.0, 0.0)));
    }
}
