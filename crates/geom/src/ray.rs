//! Ray tracing through the voxel grid (OctoMap's `computeRayKeys`).
//!
//! Given a sensor origin and a measured surface point, [`trace_with`] computes
//! the keys of every voxel the ray crosses *between* the origin and the
//! endpoint using the Amanatides–Woo 3D digital differential analyzer. Those
//! voxels are observed as *free*; the endpoint voxel itself (which contains
//! the sampled obstacle surface) is *occupied* and is deliberately excluded,
//! matching OctoMap's convention where the caller updates the endpoint
//! separately. [`trace_with`] hands the keys to any [`KeySink`];
//! [`trace_into`] and [`trace`] collect them in a [`KeyRay`].
//!
//! # Example
//!
//! ```
//! # use octocache_geom::{Point3, VoxelGrid, ray};
//! # fn main() -> Result<(), octocache_geom::GeomError> {
//! let grid = VoxelGrid::new(1.0, 8)?;
//! let keys = ray::trace(&grid, Point3::ZERO, Point3::new(3.5, 0.0, 0.0))?;
//! assert_eq!(keys.len(), 3); // crosses 3 free voxels before the endpoint
//! # Ok(())
//! # }
//! ```

use crate::{GeomError, Point3, VoxelGrid, VoxelKey};

/// A reusable buffer of voxel keys produced by ray traversal.
///
/// Mirrors OctoMap's `KeyRay`: allocate once, [`KeyRay::clear`] between rays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRay {
    keys: Vec<VoxelKey>,
}

impl KeyRay {
    /// Creates an empty ray buffer.
    pub fn new() -> Self {
        KeyRay::default()
    }

    /// Creates an empty buffer with space for `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyRay {
            keys: Vec::with_capacity(capacity),
        }
    }

    /// Number of keys currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Clears the buffer, retaining its allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// The keys as a slice, in traversal order (origin first).
    #[inline]
    pub fn as_slice(&self) -> &[VoxelKey] {
        &self.keys
    }

    /// Iterates over the keys in traversal order.
    pub fn iter(&self) -> std::slice::Iter<'_, VoxelKey> {
        self.keys.iter()
    }
}

impl<'a> IntoIterator for &'a KeyRay {
    type Item = &'a VoxelKey;
    type IntoIter = std::slice::Iter<'a, VoxelKey>;
    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter()
    }
}

impl IntoIterator for KeyRay {
    type Item = VoxelKey;
    type IntoIter = std::vec::IntoIter<VoxelKey>;
    fn into_iter(self) -> Self::IntoIter {
        self.keys.into_iter()
    }
}

impl From<KeyRay> for Vec<VoxelKey> {
    fn from(r: KeyRay) -> Self {
        r.keys
    }
}

/// Where [`trace_with`] hands the keys of a ray, in traversal order.
pub trait KeySink {
    /// Called once per ray, before its first key, with an upper bound on
    /// the number of keys the ray will push.
    fn reserve(&mut self, max_keys: usize);

    /// Takes the next key crossed.
    fn push(&mut self, key: VoxelKey);
}

impl KeySink for KeyRay {
    #[inline]
    fn reserve(&mut self, max_keys: usize) {
        self.keys.reserve(max_keys);
    }

    #[inline]
    fn push(&mut self, key: VoxelKey) {
        self.keys.push(key);
    }
}

/// Traces the ray from `origin` to `end`, appending the keys of the free
/// voxels crossed (excluding the endpoint voxel) to `out`.
///
/// `out` is cleared first. The traversal is exact: consecutive keys always
/// differ by one step along exactly one axis.
///
/// # Errors
///
/// Returns an error when either endpoint is non-finite or outside the grid.
pub fn trace_into(
    grid: &VoxelGrid,
    origin: Point3,
    end: Point3,
    out: &mut KeyRay,
) -> Result<(), GeomError> {
    out.clear();
    trace_with(grid, origin, end, out)
}

/// The one DDA: traces the ray from `origin` to `end` and pushes the keys
/// of the free voxels crossed (excluding the endpoint voxel) into `sink`,
/// which is not cleared. Before the first key it tells `sink` how many keys
/// the ray may push at most, so a growing buffer reserves once per ray.
///
/// # Errors
///
/// Returns an error when either endpoint is non-finite or outside the grid;
/// nothing has been pushed then.
pub fn trace_with(
    grid: &VoxelGrid,
    origin: Point3,
    end: Point3,
    sink: &mut impl KeySink,
) -> Result<(), GeomError> {
    if !origin.is_finite() || !end.is_finite() {
        return Err(GeomError::NotFinite);
    }
    let key_origin = grid.key_of(origin)?;
    let key_end = grid.key_of(end)?;
    if key_origin == key_end {
        return Ok(());
    }

    let direction = end - origin;
    let length = direction.norm();
    if length <= f64::EPSILON {
        return Ok(());
    }
    let dir = direction / length;

    let res = grid.resolution();
    let mut current = key_origin;
    let mut step = [0i32; 3];
    let mut t_max = [f64::INFINITY; 3];
    let mut t_delta = [f64::INFINITY; 3];

    let origin_arr = [origin.x, origin.y, origin.z];
    let dir_arr = [dir.x, dir.y, dir.z];
    let current_center = grid.center_of(current);
    let center_arr = [current_center.x, current_center.y, current_center.z];

    for i in 0..3 {
        if dir_arr[i] > 1e-12 {
            step[i] = 1;
        } else if dir_arr[i] < -1e-12 {
            step[i] = -1;
        }
        if step[i] != 0 {
            // Distance from the origin to the first boundary crossed along i.
            let voxel_border = center_arr[i] + step[i] as f64 * res * 0.5 - origin_arr[i];
            t_max[i] = voxel_border / dir_arr[i];
            t_delta[i] = res / dir_arr[i].abs();
        }
    }

    // Upper bound on steps: the Manhattan key distance plus slack for corner
    // crossings; prevents infinite loops on degenerate float input.
    let max_steps = key_origin.manhattan_distance(key_end) as usize + 6;

    sink.reserve(max_steps + 1);
    sink.push(current);
    for _ in 0..max_steps {
        // Advance along the axis with the nearest boundary.
        let axis = if t_max[0] < t_max[1] {
            if t_max[0] < t_max[2] {
                0
            } else {
                2
            }
        } else if t_max[1] < t_max[2] {
            1
        } else {
            2
        };
        t_max[axis] += t_delta[axis];
        match axis {
            0 => current.x = (current.x as i32 + step[0]) as u16,
            1 => current.y = (current.y as i32 + step[1]) as u16,
            _ => current.z = (current.z as i32 + step[2]) as u16,
        }
        if current == key_end {
            return Ok(());
        }
        sink.push(current);
    }
    // The endpoint is numerically adjacent; terminate quietly rather than
    // looping. (Matches OctoMap, which caps the ray length the same way.)
    Ok(())
}

/// Convenience wrapper around [`trace_into`] returning a fresh [`KeyRay`].
///
/// # Errors
///
/// See [`trace_into`].
pub fn trace(grid: &VoxelGrid, origin: Point3, end: Point3) -> Result<KeyRay, GeomError> {
    let mut out = KeyRay::new();
    trace_into(grid, origin, end, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> VoxelGrid {
        VoxelGrid::new(1.0, 8).unwrap() // 256 voxels/axis, cube [-128, 128)
    }

    #[test]
    fn same_voxel_yields_empty_ray() {
        let g = grid();
        let r = trace(&g, Point3::new(0.1, 0.1, 0.1), Point3::new(0.4, 0.2, 0.3)).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn axis_aligned_ray_counts_voxels() {
        let g = grid();
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(4.5, 0.5, 0.5)).unwrap();
        // Voxels at x-offsets 0,1,2,3 are free; endpoint voxel (offset 4) excluded.
        assert_eq!(r.len(), 4);
        let first = *r.as_slice().first().unwrap();
        let last = *r.as_slice().last().unwrap();
        assert_eq!(first, g.key_of(Point3::new(0.5, 0.5, 0.5)).unwrap());
        assert_eq!(last.x, first.x + 3);
    }

    #[test]
    fn negative_direction_ray() {
        let g = grid();
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(-3.5, 0.5, 0.5)).unwrap();
        assert_eq!(r.len(), 4);
        let keys = r.as_slice();
        for w in keys.windows(2) {
            assert_eq!(w[0].x, w[1].x + 1);
        }
    }

    #[test]
    fn first_key_is_origin_voxel_endpoint_excluded() {
        let g = grid();
        let origin = Point3::new(0.2, 0.7, -0.3);
        let end = Point3::new(6.3, 4.1, 2.9);
        let r = trace(&g, origin, end).unwrap();
        assert_eq!(r.as_slice()[0], g.key_of(origin).unwrap());
        let end_key = g.key_of(end).unwrap();
        assert!(r.iter().all(|&k| k != end_key));
    }

    #[test]
    fn consecutive_keys_are_face_adjacent() {
        let g = grid();
        let r = trace(&g, Point3::new(0.1, 0.2, 0.3), Point3::new(9.8, 7.6, -5.4)).unwrap();
        for w in r.as_slice().windows(2) {
            assert_eq!(w[0].manhattan_distance(w[1]), 1, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn diagonal_ray_visits_expected_count() {
        let g = grid();
        // Perfect diagonal from voxel center: crosses ~3 voxels per unit cube
        // diagonal. From (0.5,0.5,0.5) to (3.5,3.5,3.5): keys differ by 3 per
        // axis -> manhattan distance 9, so 9 boundary crossings; 9 voxels
        // visited before the endpoint (including origin).
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(3.5, 3.5, 3.5)).unwrap();
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn out_of_bounds_endpoint_errors() {
        let g = grid();
        assert!(trace(&g, Point3::ZERO, Point3::new(1e6, 0.0, 0.0)).is_err());
        assert!(trace(&g, Point3::new(f64::NAN, 0.0, 0.0), Point3::ZERO).is_err());
    }

    #[test]
    fn buffer_reuse_clears_previous_contents() {
        let g = grid();
        let mut buf = KeyRay::with_capacity(64);
        trace_into(&g, Point3::ZERO, Point3::new(5.5, 0.5, 0.5), &mut buf).unwrap();
        let n1 = buf.len();
        assert!(n1 > 0);
        trace_into(&g, Point3::ZERO, Point3::new(0.2, 0.2, 0.2), &mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn into_iterators() {
        let g = grid();
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(3.5, 0.5, 0.5)).unwrap();
        let by_ref: Vec<_> = (&r).into_iter().copied().collect();
        let owned: Vec<_> = r.clone().into_iter().collect();
        assert_eq!(by_ref, owned);
        let v: Vec<VoxelKey> = r.into();
        assert_eq!(v, owned);
    }

    proptest! {
        #[test]
        fn prop_ray_keys_adjacent_and_unique(
            ox in -20.0f64..20.0, oy in -20.0f64..20.0, oz in -20.0f64..20.0,
            ex in -20.0f64..20.0, ey in -20.0f64..20.0, ez in -20.0f64..20.0,
        ) {
            let g = grid();
            let origin = Point3::new(ox, oy, oz);
            let end = Point3::new(ex, ey, ez);
            let r = trace(&g, origin, end).unwrap();
            let keys = r.as_slice();
            for w in keys.windows(2) {
                prop_assert_eq!(w[0].manhattan_distance(w[1]), 1);
            }
            let mut sorted: Vec<_> = keys.to_vec();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), keys.len(), "ray revisited a voxel");
            // Length sanity: between chebyshev and manhattan key distance.
            let (ko, ke) = (g.key_of(origin).unwrap(), g.key_of(end).unwrap());
            if ko != ke {
                prop_assert!(keys.len() as u32 >= ko.chebyshev_distance(ke) as u32);
                prop_assert!(keys.len() as u32 <= ko.manhattan_distance(ke) + 6);
            }
        }

        #[test]
        fn prop_every_ray_voxel_near_segment(
            ex in -15.0f64..15.0, ey in -15.0f64..15.0, ez in -15.0f64..15.0,
        ) {
            let g = grid();
            let origin = Point3::new(0.3, -0.2, 0.6);
            let end = Point3::new(ex, ey, ez);
            let r = trace(&g, origin, end).unwrap();
            let dir = end - origin;
            let len2 = dir.norm_squared().max(1e-12);
            for &k in r.as_slice() {
                let c = g.center_of(k);
                // Project the voxel center onto the segment; the distance to
                // the segment must be below half the voxel diagonal.
                let t = ((c - origin).dot(dir) / len2).clamp(0.0, 1.0);
                let closest = origin + dir * t;
                prop_assert!(c.distance(closest) <= 3f64.sqrt() / 2.0 + 1e-9);
            }
        }
    }
}
