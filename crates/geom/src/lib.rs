//! Voxel geometry foundation for the OctoCache reproduction.
//!
//! This crate provides the spatial primitives shared by the OctoMap baseline
//! (`octocache-octomap`), the OctoCache layer (`octocache`), the dataset
//! generators and the UAV simulator:
//!
//! * [`Point3`] — a 3D point/vector in metric world coordinates.
//! * [`VoxelKey`] — the discrete address of a voxel at the finest tree level,
//!   following OctoMap's convention of an unsigned key centered on the map
//!   origin.
//! * [`VoxelGrid`] — the world↔key mapping for a given mapping resolution and
//!   tree depth.
//! * [`morton`] — Morton (Z-order) encoding of voxel keys, the ordering at the
//!   heart of OctoCache's eviction policy (paper §4.3).
//! * [`ray`] — Amanatides–Woo 3D DDA traversal producing the voxel keys
//!   crossed by a sensor ray ("KeyRay"), i.e. OctoMap's ray tracing kernel.
//! * [`Aabb`] — axis-aligned boxes with ray intersection, used by the scene
//!   models in the dataset generators and the UAV simulator.
//!
//! # Example
//!
//! ```
//! # use octocache_geom::{Point3, VoxelGrid};
//! # fn main() -> Result<(), octocache_geom::GeomError> {
//! let grid = VoxelGrid::new(0.1, 16)?; // 10 cm voxels, 16-level tree
//! let key = grid.key_of(Point3::new(1.23, -0.4, 0.05))?;
//! let center = grid.center_of(key);
//! assert!((center.x - 1.25).abs() < 0.051);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod aabb;
mod error;
mod grid;
mod key;
pub mod morton;
mod point;
pub mod ray;

pub use aabb::Aabb;
pub use error::GeomError;
pub use grid::VoxelGrid;
pub use key::{ChildIndex, VoxelKey};
pub use point::Point3;
