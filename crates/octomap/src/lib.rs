//! A from-scratch reimplementation of the OctoMap occupancy mapping baseline.
//!
//! This crate is the *substrate* under the OctoCache reproduction: the paper
//! accelerates OctoMap, so an OctoMap that faithfully exhibits the same
//! bottlenecks (a root-to-leaf round trip on every voxel update, duplicated
//! voxel updates from ray tracing) has to exist first. The implementation
//! follows Hornung et al., "OctoMap: an efficient probabilistic 3D mapping
//! framework based on octrees" (Autonomous Robots 2013):
//!
//! * [`OccupancyOcTree`] — an octree storing clamped log-odds occupancy per
//!   node; inner nodes hold the **maximum** of their children (the
//!   conservative policy the paper assumes in §2.2); equal-valued leaf sets
//!   are pruned. Nodes live in an index-addressed arena pool in the style
//!   of the related flat-layout work: the same root-to-leaf walk and visit
//!   counts as reference OctoMap's boxed nodes, at 12 bytes per node.
//! * [`OccupancyParams`] — the sensor model: per-hit/per-miss log-odds deltas
//!   (`δ_occupied` / `δ_free`), clamping bounds and the occupancy threshold.
//! * [`insert`] — point-cloud insertion: ray tracing each beam into free and
//!   occupied voxels and updating the tree with the paper's default *raw*
//!   policy (every duplicated voxel update reaches the tree).
//! * [`rt`] — the OctoMap-RT–style deduplicating ray tracer used by the
//!   paper's `-RT` baselines (reimplemented on CPU, as the authors did).
//! * [`stats`] — node-visit instrumentation: a hardware-independent proxy for
//!   the memory traffic the paper measures.
//! * [`io`] — compact binary serialisation of a tree.
//!
//! # Example
//!
//! ```
//! # use octocache_octomap::{OccupancyOcTree, OccupancyParams};
//! # use octocache_geom::{Point3, VoxelGrid};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grid = VoxelGrid::new(0.1, 16)?;
//! let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
//! let origin = Point3::ZERO;
//! let hit = Point3::new(1.0, 0.4, 0.2);
//! octocache_octomap::insert::insert_point_cloud(&mut tree, origin, &[hit], 20.0)?;
//! let key = grid.key_of(hit)?;
//! assert_eq!(tree.is_occupied(key), Some(true));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
pub mod checksum;
pub mod compare;
pub mod insert;
pub mod io;
pub mod io_bt;
mod occupancy;
pub mod query;
pub mod rt;
pub mod stats;
mod tree;

pub use arena::ReadCursor;
pub use occupancy::{logodds_to_prob, prob_to_logodds, OccupancyParams};
pub use tree::{LeafEntry, OccupancyOcTree, TreeLayout};
