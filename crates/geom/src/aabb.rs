use serde::{Deserialize, Serialize};

use crate::Point3;

/// An axis-aligned bounding box in world coordinates.
///
/// Used by the synthetic scene models (dataset generators, UAV simulator) for
/// obstacle geometry and by [`VoxelGrid`](crate::VoxelGrid) for voxel and map
/// extents.
///
/// # Example
///
/// ```
/// # use octocache_geom::{Aabb, Point3};
/// let b = Aabb::new(Point3::ZERO, Point3::new(2.0, 2.0, 2.0));
/// assert!(b.contains(Point3::new(1.0, 1.0, 1.0)));
/// assert_eq!(b.center(), Point3::new(1.0, 1.0, 1.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Point3,
    /// Maximum corner.
    pub max: Point3,
}

impl Aabb {
    /// Creates a box from two opposite corners (re-ordered component-wise, so
    /// the arguments may be given in any order).
    #[inline]
    pub fn new(a: Point3, b: Point3) -> Self {
        Aabb {
            min: a.min(b),
            max: a.max(b),
        }
    }

    /// Creates a box from its center and full side lengths.
    #[inline]
    pub fn from_center_size(center: Point3, size: Point3) -> Self {
        let h = size / 2.0;
        Aabb {
            min: center - h,
            max: center + h,
        }
    }

    /// The center point of the box.
    #[inline]
    pub fn center(&self) -> Point3 {
        (self.min + self.max) / 2.0
    }

    /// The side lengths of the box.
    #[inline]
    pub fn size(&self) -> Point3 {
        self.max - self.min
    }

    /// True when `p` lies inside or on the boundary of the box.
    #[inline]
    pub fn contains(&self, p: Point3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True when the two boxes overlap (touching counts as overlapping).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// The smallest box containing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Euclidean distance from `p` to the nearest point of the box (0 when
    /// `p` is inside).
    #[inline]
    pub fn distance_to(&self, p: Point3) -> f64 {
        let gap = |v: f64, lo: f64, hi: f64| (lo - v).max(v - hi).max(0.0);
        Point3::new(
            gap(p.x, self.min.x, self.max.x),
            gap(p.y, self.min.y, self.max.y),
            gap(p.z, self.min.z, self.max.z),
        )
        .norm()
    }

    /// Slab-test intersection of the ray `origin + t * direction` with the
    /// box, for `t` in `[0, t_max]`.
    ///
    /// Returns the entry parameter `t` (0 when the origin starts inside), or
    /// `None` when the ray misses the box within the range. `direction` need
    /// not be normalised; `t` is expressed in units of `direction`'s length.
    pub fn intersect_ray(&self, origin: Point3, direction: Point3, t_max: f64) -> Option<f64> {
        let mut t_enter = 0.0f64;
        let mut t_exit = t_max;
        for axis in 0..3 {
            let (o, d, lo, hi) = match axis {
                0 => (origin.x, direction.x, self.min.x, self.max.x),
                1 => (origin.y, direction.y, self.min.y, self.max.y),
                _ => (origin.z, direction.z, self.min.z, self.max.z),
            };
            if d.abs() < 1e-15 {
                if o < lo || o > hi {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / d;
            let (t0, t1) = {
                let a = (lo - o) * inv;
                let b = (hi - o) * inv;
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            };
            t_enter = t_enter.max(t0);
            t_exit = t_exit.min(t1);
            if t_enter > t_exit {
                return None;
            }
        }
        Some(t_enter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_reorders_corners() {
        let b = Aabb::new(Point3::new(2.0, -1.0, 5.0), Point3::new(0.0, 3.0, 4.0));
        assert_eq!(b.min, Point3::new(0.0, -1.0, 4.0));
        assert_eq!(b.max, Point3::new(2.0, 3.0, 5.0));
    }

    #[test]
    fn center_size_roundtrip() {
        let b = Aabb::from_center_size(Point3::new(1.0, 2.0, 3.0), Point3::new(4.0, 6.0, 8.0));
        assert_eq!(b.center(), Point3::new(1.0, 2.0, 3.0));
        assert_eq!(b.size(), Point3::new(4.0, 6.0, 8.0));
    }

    #[test]
    fn contains_boundary() {
        let b = Aabb::new(Point3::ZERO, Point3::splat(1.0));
        assert!(b.contains(Point3::ZERO));
        assert!(b.contains(Point3::splat(1.0)));
        assert!(!b.contains(Point3::new(1.0001, 0.5, 0.5)));
    }

    #[test]
    fn intersects_and_union() {
        let a = Aabb::new(Point3::ZERO, Point3::splat(2.0));
        let b = Aabb::new(Point3::splat(1.0), Point3::splat(3.0));
        let c = Aabb::new(Point3::splat(5.0), Point3::splat(6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let u = a.union(&c);
        assert_eq!(u.min, Point3::ZERO);
        assert_eq!(u.max, Point3::splat(6.0));
    }

    #[test]
    fn ray_hits_box_front_face() {
        let b = Aabb::new(Point3::new(1.0, -1.0, -1.0), Point3::new(2.0, 1.0, 1.0));
        let t = b
            .intersect_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 10.0)
            .unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ray_from_inside_returns_zero() {
        let b = Aabb::new(Point3::splat(-1.0), Point3::splat(1.0));
        let t = b
            .intersect_ray(Point3::ZERO, Point3::new(0.0, 1.0, 0.0), 10.0)
            .unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn distance_to_is_zero_inside_and_euclidean_outside() {
        let b = Aabb::new(Point3::ZERO, Point3::splat(1.0));
        assert_eq!(b.distance_to(Point3::splat(0.5)), 0.0);
        assert_eq!(b.distance_to(Point3::new(3.0, 0.5, 0.5)), 2.0);
        assert!((b.distance_to(Point3::new(-3.0, 5.0, 0.5)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ray_misses_box() {
        let b = Aabb::new(Point3::new(1.0, 1.0, 1.0), Point3::new(2.0, 2.0, 2.0));
        assert!(b
            .intersect_ray(Point3::ZERO, Point3::new(-1.0, 0.0, 0.0), 10.0)
            .is_none());
        // Parallel to a slab and outside it.
        assert!(b
            .intersect_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 10.0)
            .is_none());
    }

    #[test]
    fn ray_respects_t_max() {
        let b = Aabb::new(Point3::new(5.0, -1.0, -1.0), Point3::new(6.0, 1.0, 1.0));
        assert!(b
            .intersect_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 4.0)
            .is_none());
        assert!(b
            .intersect_ray(Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 5.5)
            .is_some());
    }

    proptest! {
        #[test]
        fn prop_ray_hit_point_is_on_or_in_box(
            ox in -10.0f64..10.0, oy in -10.0f64..10.0, oz in -10.0f64..10.0,
            dx in -1.0f64..1.0, dy in -1.0f64..1.0, dz in -1.0f64..1.0,
        ) {
            let b = Aabb::new(Point3::splat(-2.0), Point3::splat(2.0));
            let o = Point3::new(ox, oy, oz);
            let d = Point3::new(dx, dy, dz);
            prop_assume!(d.norm() > 1e-6);
            if let Some(t) = b.intersect_ray(o, d, 100.0) {
                let hit = o + d * t;
                // Allow generous tolerance for grazing hits.
                prop_assert!(b.distance_to(hit) <= 1e-6);
            }
        }

        #[test]
        fn prop_union_contains_both(
            ax in -5.0f64..5.0, ay in -5.0f64..5.0, az in -5.0f64..5.0,
            bx in -5.0f64..5.0, by in -5.0f64..5.0, bz in -5.0f64..5.0,
        ) {
            let a = Aabb::new(Point3::new(ax, ay, az), Point3::new(ax + 1.0, ay + 1.0, az + 1.0));
            let b = Aabb::new(Point3::new(bx, by, bz), Point3::new(bx + 2.0, by + 0.5, bz + 1.5));
            let u = a.union(&b);
            prop_assert!(u.contains(a.min) && u.contains(a.max));
            prop_assert!(u.contains(b.min) && u.contains(b.max));
        }
    }
}
