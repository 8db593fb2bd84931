use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point (or vector) in 3D metric world coordinates.
///
/// `Point3` doubles as a vector type: differences of points are directions,
/// and the usual arithmetic operators are provided. All components are `f64`
/// because sensor poses and ray endpoints need the full precision before they
/// are discretised into [`VoxelKey`](crate::VoxelKey)s.
///
/// # Example
///
/// ```
/// # use octocache_geom::Point3;
/// let a = Point3::new(1.0, 2.0, 3.0);
/// let b = Point3::new(4.0, 6.0, 3.0);
/// assert_eq!((b - a).norm(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Point3 {
    /// X component (metres).
    pub x: f64,
    /// Y component (metres).
    pub y: f64,
    /// Z component (metres).
    pub z: f64,
}

impl Point3 {
    /// The origin / zero vector.
    pub const ZERO: Point3 = Point3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a point from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Point3 { x, y, z }
    }

    /// Creates a point with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Point3 { x: v, y: v, z: v }
    }

    /// Euclidean length of the vector.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_squared().sqrt()
    }

    /// Squared Euclidean length (cheaper than [`Point3::norm`]).
    #[inline]
    pub(crate) fn norm_squared(self) -> f64 {
        self.x * self.x + self.y * self.y + self.z * self.z
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(self, other: Point3) -> f64 {
        (self - other).norm()
    }

    /// Squared Euclidean distance to `other` (cheaper than
    /// [`Point3::distance`]; use for range comparisons).
    #[inline]
    pub fn distance_squared(self, other: Point3) -> f64 {
        (self - other).norm_squared()
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Point3) -> Point3 {
        Point3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Returns the vector scaled to unit length.
    ///
    /// Returns `None` when the vector is (numerically) zero, rather than
    /// producing NaNs.
    #[inline]
    pub fn normalized(self) -> Option<Point3> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point3, t: f64) -> Point3 {
        self + (other - self) * t
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(self, other: Point3) -> Point3 {
        Point3 {
            x: self.x.min(other.x),
            y: self.y.min(other.y),
            z: self.z.min(other.z),
        }
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(self, other: Point3) -> Point3 {
        Point3 {
            x: self.x.max(other.x),
            y: self.y.max(other.y),
            z: self.z.max(other.z),
        }
    }

    /// True when every component is finite (no NaN / ±inf).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl fmt::Display for Point3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3}, {:.3})", self.x, self.y, self.z)
    }
}

impl Add for Point3 {
    type Output = Point3;
    #[inline]
    fn add(self, rhs: Point3) -> Point3 {
        Point3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Point3 {
    #[inline]
    fn add_assign(&mut self, rhs: Point3) {
        *self = *self + rhs;
    }
}

impl Sub for Point3 {
    type Output = Point3;
    #[inline]
    fn sub(self, rhs: Point3) -> Point3 {
        Point3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Point3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Point3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn mul(self, rhs: f64) -> Point3 {
        Point3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Point3 {
    type Output = Point3;
    #[inline]
    fn div(self, rhs: f64) -> Point3 {
        Point3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Point3 {
    type Output = Point3;
    #[inline]
    fn neg(self) -> Point3 {
        Point3::new(-self.x, -self.y, -self.z)
    }
}

impl From<[f64; 3]> for Point3 {
    #[inline]
    fn from(a: [f64; 3]) -> Self {
        Point3::new(a[0], a[1], a[2])
    }
}

impl From<Point3> for [f64; 3] {
    #[inline]
    fn from(p: Point3) -> Self {
        [p.x, p.y, p.z]
    }
}

// Only tests take dot products: the cross-product and ray-segment
// properties compare against it.
#[cfg(test)]
impl Point3 {
    /// Dot product.
    pub(crate) fn dot(self, other: Point3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic_basics() {
        let a = Point3::new(1.0, 2.0, 3.0);
        let b = Point3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Point3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Point3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Point3::new(2.0, 4.0, 6.0));
        assert_eq!(a / 2.0, Point3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Point3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn assign_ops() {
        let mut a = Point3::new(1.0, 1.0, 1.0);
        a += Point3::splat(2.0);
        assert_eq!(a, Point3::splat(3.0));
        a -= Point3::splat(1.0);
        assert_eq!(a, Point3::splat(2.0));
    }

    #[test]
    fn norm_and_distance() {
        assert_eq!(Point3::new(3.0, 4.0, 0.0).norm(), 5.0);
        assert_eq!(Point3::ZERO.norm(), 0.0);
        assert_eq!(
            Point3::new(1.0, 0.0, 0.0).distance(Point3::new(4.0, 4.0, 0.0)),
            5.0
        );
    }

    #[test]
    fn dot_and_cross() {
        let x = Point3::new(1.0, 0.0, 0.0);
        let y = Point3::new(0.0, 1.0, 0.0);
        let z = Point3::new(0.0, 0.0, 1.0);
        assert_eq!(x.dot(y), 0.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Point3::ZERO.normalized().is_none());
        let n = Point3::new(0.0, 3.0, 4.0).normalized().unwrap();
        assert!((n.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(2.0, 4.0, 6.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Point3::new(1.0, 2.0, 3.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = Point3::new(1.0, 5.0, -2.0);
        let b = Point3::new(3.0, 2.0, 0.0);
        assert_eq!(a.min(b), Point3::new(1.0, 2.0, -2.0));
        assert_eq!(a.max(b), Point3::new(3.0, 5.0, 0.0));
    }

    #[test]
    fn finiteness() {
        assert!(Point3::new(1.0, 2.0, 3.0).is_finite());
        assert!(!Point3::new(f64::NAN, 0.0, 0.0).is_finite());
        assert!(!Point3::new(0.0, f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn array_conversions_roundtrip() {
        let p = Point3::new(1.5, -2.5, 3.5);
        let a: [f64; 3] = p.into();
        assert_eq!(Point3::from(a), p);
    }

    #[test]
    fn display_format() {
        let s = Point3::new(1.0, 2.0, 3.0).to_string();
        assert_eq!(s, "(1.000, 2.000, 3.000)");
    }

    fn finite_pt() -> impl Strategy<Value = Point3> {
        (-1e3f64..1e3, -1e3f64..1e3, -1e3f64..1e3).prop_map(|(x, y, z)| Point3::new(x, y, z))
    }

    proptest! {
        #[test]
        fn prop_add_commutative(a in finite_pt(), b in finite_pt()) {
            prop_assert_eq!(a + b, b + a);
        }

        #[test]
        fn prop_sub_then_add_roundtrips(a in finite_pt(), b in finite_pt()) {
            let d = a - b;
            let back = b + d;
            prop_assert!((back - a).norm() < 1e-9);
        }

        #[test]
        fn prop_cross_orthogonal(a in finite_pt(), b in finite_pt()) {
            let c = a.cross(b);
            // |a·(a×b)| should be ~0 relative to the magnitudes involved.
            let scale = (a.norm() * a.norm() * b.norm()).max(1.0);
            prop_assert!(a.dot(c).abs() / scale < 1e-9);
            prop_assert!(b.dot(c).abs() / scale < 1e-9);
        }

        #[test]
        fn prop_triangle_inequality(a in finite_pt(), b in finite_pt()) {
            prop_assert!((a + b).norm() <= a.norm() + b.norm() + 1e-9);
        }

        #[test]
        fn prop_normalized_is_unit(a in finite_pt()) {
            if let Some(n) = a.normalized() {
                prop_assert!((n.norm() - 1.0).abs() < 1e-9);
            }
        }
    }
}
