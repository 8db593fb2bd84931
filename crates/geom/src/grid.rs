use serde::{Deserialize, Serialize};

use crate::{Aabb, GeomError, Point3, VoxelKey};

/// The world↔key mapping for a voxel grid of a given resolution and depth.
///
/// Follows OctoMap's conventions: the mapped region is a cube centered on the
/// world origin with side `2^depth * resolution`; a world coordinate maps to
/// the discrete key `floor(c / resolution) + 2^(depth-1)` per axis, so the
/// origin lives at key `(2^(depth-1), …)`.
///
/// # Example
///
/// ```
/// # use octocache_geom::{Point3, VoxelGrid, VoxelKey};
/// # fn main() -> Result<(), octocache_geom::GeomError> {
/// let grid = VoxelGrid::new(0.05, 16)?;
/// let key = grid.key_of(Point3::ZERO)?;
/// assert_eq!(key, VoxelKey::new(32768, 32768, 32768));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VoxelGrid {
    resolution: f64,
    depth: u8,
    /// `2^(depth-1)`: the key offset placing the origin mid-range.
    center_key: u16,
}

impl VoxelGrid {
    /// Creates a grid with the given mapping resolution (voxel edge length in
    /// metres) and tree depth (levels below the root, 1..=16).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidResolution`] for non-positive or non-finite
    /// resolutions and [`GeomError::InvalidDepth`] for depths outside 1..=16.
    pub fn new(resolution: f64, depth: u8) -> Result<Self, GeomError> {
        if !resolution.is_finite() || resolution <= 0.0 {
            return Err(GeomError::InvalidResolution(resolution));
        }
        if depth == 0 || depth > 16 {
            return Err(GeomError::InvalidDepth(depth));
        }
        Ok(VoxelGrid {
            resolution,
            depth,
            center_key: 1u16 << (depth - 1),
        })
    }

    /// The voxel edge length in metres.
    #[inline]
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// Tree depth (levels below the root).
    #[inline]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// Number of voxels along each axis (`2^depth`).
    #[inline]
    pub(crate) fn voxels_per_axis(&self) -> u32 {
        1u32 << self.depth
    }

    /// Half the side length of the mapped cube, in metres.
    #[inline]
    pub(crate) fn half_extent(&self) -> f64 {
        self.center_key as f64 * self.resolution
    }

    /// The mapped region as an axis-aligned box.
    #[inline]
    pub fn bounds(&self) -> Aabb {
        let h = self.half_extent();
        Aabb::new(Point3::splat(-h), Point3::splat(h))
    }

    /// Converts one world coordinate to its discrete key component.
    ///
    /// # Errors
    ///
    /// [`GeomError::NotFinite`] for NaN/inf input, [`GeomError::OutOfBounds`]
    /// when the coordinate falls outside the mapped cube.
    #[inline]
    pub(crate) fn key_component(&self, coordinate: f64) -> Result<u16, GeomError> {
        if !coordinate.is_finite() {
            return Err(GeomError::NotFinite);
        }
        let idx = (coordinate / self.resolution).floor() as i64 + self.center_key as i64;
        if idx < 0 || idx >= self.voxels_per_axis() as i64 {
            return Err(GeomError::OutOfBounds {
                coordinate,
                half_extent: self.half_extent(),
            });
        }
        Ok(idx as u16)
    }

    /// Converts a world point to the key of the voxel containing it.
    ///
    /// # Errors
    ///
    /// [`GeomError::NotFinite`] for NaN/inf input, [`GeomError::OutOfBounds`]
    /// when the point falls outside the mapped cube.
    #[inline]
    pub fn key_of(&self, p: Point3) -> Result<VoxelKey, GeomError> {
        Ok(VoxelKey::new(
            self.key_component(p.x)?,
            self.key_component(p.y)?,
            self.key_component(p.z)?,
        ))
    }

    /// World coordinate of the center of a voxel along one axis.
    #[inline]
    pub(crate) fn coordinate_of(&self, key_component: u16) -> f64 {
        (key_component as f64 - self.center_key as f64 + 0.5) * self.resolution
    }

    /// World-space center of the voxel addressed by `key`.
    #[inline]
    pub fn center_of(&self, key: VoxelKey) -> Point3 {
        Point3::new(
            self.coordinate_of(key.x),
            self.coordinate_of(key.y),
            self.coordinate_of(key.z),
        )
    }

    /// Clamps a world point into the mapped cube (useful for truncating
    /// sensor rays at the map boundary before key conversion).
    #[inline]
    pub fn clamp_point(&self, p: Point3) -> Point3 {
        // Keep strictly inside so `floor` lands on a valid key.
        let h = self.half_extent() - self.resolution * 1e-6;
        Point3::new(p.x.clamp(-h, h), p.y.clamp(-h, h), p.z.clamp(-h, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validates() {
        assert!(VoxelGrid::new(0.1, 16).is_ok());
        assert_eq!(
            VoxelGrid::new(0.0, 16),
            Err(GeomError::InvalidResolution(0.0))
        );
        assert_eq!(
            VoxelGrid::new(-0.1, 16),
            Err(GeomError::InvalidResolution(-0.1))
        );
        assert!(VoxelGrid::new(f64::NAN, 16).is_err());
        assert_eq!(VoxelGrid::new(0.1, 0), Err(GeomError::InvalidDepth(0)));
        assert_eq!(VoxelGrid::new(0.1, 17), Err(GeomError::InvalidDepth(17)));
    }

    #[test]
    fn origin_maps_to_center_key() {
        let grid = VoxelGrid::new(0.1, 16).unwrap();
        assert_eq!(grid.key_of(Point3::ZERO).unwrap(), VoxelKey::origin(16));
    }

    #[test]
    fn key_boundaries_use_floor() {
        let grid = VoxelGrid::new(1.0, 4).unwrap(); // keys 0..16, center 8
        assert_eq!(grid.key_component(0.0).unwrap(), 8);
        assert_eq!(grid.key_component(0.999).unwrap(), 8);
        assert_eq!(grid.key_component(1.0).unwrap(), 9);
        assert_eq!(grid.key_component(-0.001).unwrap(), 7);
        assert_eq!(grid.key_component(-1.0).unwrap(), 7);
        assert_eq!(grid.key_component(-1.001).unwrap(), 6);
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let grid = VoxelGrid::new(1.0, 4).unwrap(); // cube [-8, 8)
        assert!(grid.key_component(7.999).is_ok());
        assert!(matches!(
            grid.key_component(8.0),
            Err(GeomError::OutOfBounds { .. })
        ));
        assert!(grid.key_component(-8.0).is_ok());
        assert!(matches!(
            grid.key_component(-8.001),
            Err(GeomError::OutOfBounds { .. })
        ));
        assert_eq!(grid.key_component(f64::NAN), Err(GeomError::NotFinite));
    }

    #[test]
    fn center_of_inverts_key_of_to_half_voxel() {
        let grid = VoxelGrid::new(0.25, 16).unwrap();
        let p = Point3::new(3.1, -2.7, 0.4);
        let key = grid.key_of(p).unwrap();
        let c = grid.center_of(key);
        assert!((c.x - p.x).abs() <= 0.125 + 1e-12);
        assert!((c.y - p.y).abs() <= 0.125 + 1e-12);
        assert!((c.z - p.z).abs() <= 0.125 + 1e-12);
    }

    #[test]
    fn bounds_cube_side_matches_depth() {
        let grid = VoxelGrid::new(0.1, 16).unwrap();
        let b = grid.bounds();
        // 65536 voxels * 0.1 m = 6553.6 m side.
        assert!((b.size().x - 6553.6).abs() < 1e-9);
    }

    #[test]
    fn clamp_point_stays_in_bounds() {
        let grid = VoxelGrid::new(1.0, 4).unwrap();
        let p = grid.clamp_point(Point3::new(100.0, -100.0, 0.0));
        assert!(grid.key_of(p).is_ok());
    }

    proptest! {
        #[test]
        fn prop_key_roundtrip_within_resolution(
            x in -100.0f64..100.0,
            y in -100.0f64..100.0,
            z in -100.0f64..100.0,
        ) {
            let grid = VoxelGrid::new(0.1, 16).unwrap();
            let p = Point3::new(x, y, z);
            let key = grid.key_of(p).unwrap();
            let c = grid.center_of(key);
            prop_assert!((c - p).norm() <= 0.1 * 3f64.sqrt() / 2.0 + 1e-9);
        }

        #[test]
        fn prop_same_voxel_same_key(
            x in -50.0f64..50.0,
            y in -50.0f64..50.0,
            z in -50.0f64..50.0,
        ) {
            let grid = VoxelGrid::new(0.2, 16).unwrap();
            let p = Point3::new(x, y, z);
            let key = grid.key_of(p).unwrap();
            // The voxel center must map back to the same key.
            prop_assert_eq!(grid.key_of(grid.center_of(key)).unwrap(), key);
        }
    }
}
