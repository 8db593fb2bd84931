//! Synthetic stand-ins for the public 3D-scan datasets of the OctoCache
//! evaluation.
//!
//! The paper evaluates on three datasets from the OctoMap project — the
//! *FR-079 corridor*, the *Freiburg campus* and *New College* — which are
//! binary scan logs we do not ship. What the cache's performance actually
//! depends on is the *statistical structure* of those logs, which the paper
//! quantifies (§3.1): dense conical scans whose points heavily duplicate
//! voxels within a batch (2.78–31.32×), and a slowly moving sensor whose
//! consecutive batches overlap heavily (≈40 % for the campus, > 80 % for the
//! other two). This crate generates deterministic scan sequences with the
//! same structure:
//!
//! * [`Scene`] — implicit obstacle geometry (axis-aligned boxes + walls)
//!   with exact ray casting.
//! * [`Pose`] and [`DepthSensor`] — a sensor pose (each dataset follows a
//!   sequence of them) and a pin-hole depth scanner producing point clouds.
//! * [`Dataset`] — the three named configurations, scaled to laptop size
//!   (the scale factor is part of [`DatasetConfig`] and reported by the
//!   benches).
//! * [`stats`] — duplication and overlap measurements reproducing the
//!   paper's Figures 7/8 and Table 2.
//!
//! # Example
//!
//! ```
//! # use octocache_datasets::{Dataset, DatasetConfig};
//! let scans = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
//! assert!(!scans.scans().is_empty());
//! assert!(scans.scans().iter().all(|s| !s.points.is_empty()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod dataset;
pub mod dynamic;
pub mod io;
pub mod scenario;
mod scene;
mod sensor;
pub mod stats;
mod trajectory;

pub use dataset::{Dataset, DatasetConfig, Scan, ScanSequence};
pub use scene::Scene;
pub use sensor::DepthSensor;
pub use trajectory::Pose;
