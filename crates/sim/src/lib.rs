//! A MAVBench-style closed-loop UAV navigation simulator.
//!
//! The paper's end-to-end evaluation (§5.1/§6.1) runs OctoMap and OctoCache
//! inside a full autonomous-navigation loop — perception (mapping), planning
//! (occupancy queries), control — on a Jetson TX2, with the physical world
//! simulated in Unreal. This crate is the in-process substitution: the same
//! dependency chain (cycle compute time → maximum safe flight velocity →
//! mission completion time) driven by synthetic environments and a kinematic
//! UAV.
//!
//! * [`Environment`] — the four MAVBench scenarios (*Open land*, *Farm*,
//!   *Room*, *Factory*) with the paper's goal distances and baseline
//!   <sensing range, mapping resolution> settings.
//! * [`UavModel`] — AscTec Pelican and DJI Spark, with the weight and rotor
//!   pull figures from §5.1.
//! * [`velocity`] — the Krishnan-et-al-style maximum safe velocity bound:
//!   the UAV may fly only as fast as it can stop within its sensing range,
//!   where reaction time includes the measured compute latency.
//! * [`Planner`] — collision-checked waypoint selection via map queries.
//! * [`Mission`] — the closed loop, generic over any
//!   [`MappingSystem`](octocache::MappingSystem) backend, producing the
//!   end-to-end runtime / velocity / completion-time metrics of Figures
//!   16–19.
//!
//! # Example
//!
//! ```no_run
//! # use octocache_sim::{Environment, Mission, MissionConfig, UavModel};
//! # use octocache::{CacheConfig, SerialOctoCache};
//! # use octocache_octomap::OccupancyParams;
//! # use octocache_geom::VoxelGrid;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let env = Environment::Room;
//! let params = env.baseline_params();
//! let grid = VoxelGrid::new(params.resolution, 16)?;
//! let map = SerialOctoCache::new(grid, OccupancyParams::default(), CacheConfig::default());
//! let report = Mission::new(env, UavModel::asctec_pelican(), MissionConfig::default())
//!     .run(map)?;
//! println!("completed in {:.1} s (sim)", report.completion_time_s);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod astar;
mod environment;
mod mission;
mod planner;
mod uav;
pub mod velocity;

pub use environment::{BaselineParams, Environment};
pub use mission::{Mission, MissionConfig, MissionReport};
pub use planner::{PlanOutcome, Planner, PlannerConfig};
pub use uav::UavModel;
