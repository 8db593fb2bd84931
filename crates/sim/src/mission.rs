use std::time::{Duration, Instant};

use octocache::{LiveMap, MappingSystem, OccupancyView, PhaseTimes, PipelineError, QueryHandle};
use octocache_datasets::{DepthSensor, Pose};
use serde::{Deserialize, Serialize};

use crate::environment::Environment;
use crate::planner::{Planner, PlannerConfig};
use crate::uav::UavModel;
use crate::velocity;

/// Closed-loop configuration knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionConfig {
    /// Scene / sensor-noise seed.
    pub seed: u64,
    /// Hard cap on control cycles (a stuck mission ends unfinished).
    pub max_cycles: usize,
    /// Sensor ray grid columns.
    pub sensor_cols: u32,
    /// Sensor ray grid rows.
    pub sensor_rows: u32,
    /// Horizontal field of view (radians).
    pub h_fov: f64,
    /// Vertical field of view (radians).
    pub v_fov: f64,
    /// Sensing range override; `None` uses the environment baseline.
    pub sensing_range: Option<f64>,
    /// Distance at which the goal counts as reached (metres).
    pub goal_tolerance: f64,
    /// Fixed control-stage compute time per cycle (seconds); the paper's
    /// control stage is cheap and mapping-independent.
    pub control_time_s: f64,
    /// Edge-platform emulation factor: measured compute latencies are
    /// multiplied by this before entering the velocity bound and the cycle
    /// period. The paper ran on a Jetson TX2, roughly an order of magnitude
    /// slower than a desktop core; `1.0` uses raw host timings.
    pub compute_scale: f64,
    /// When `Some(k)`, an A* global plan is computed every `k` cycles (and
    /// whenever the current plan is exhausted) and its waypoints are
    /// followed; the reactive planner remains the per-cycle fallback —
    /// MAVBench-style missions run a global planner over the map like this.
    pub global_replan_every: Option<usize>,
    /// When true, all planning queries go through the backend's published
    /// [`octocache::MapSnapshot`] (armed via
    /// [`MappingSystem::query_handle`]) instead of the locked live tree —
    /// the deployment shape where the planner runs concurrently with
    /// mapping and must never contend on the octree mutex. Snapshots are
    /// republished at every scan boundary, so planning sees the same map
    /// either way; the per-cycle snapshot publish cost lands in the mapping
    /// share of the cycle latency.
    pub plan_from_snapshot: bool,
}

impl Default for MissionConfig {
    fn default() -> Self {
        MissionConfig {
            seed: 0x5EED,
            max_cycles: 20_000,
            sensor_cols: 48,
            sensor_rows: 32,
            h_fov: 1.5,
            v_fov: 1.0,
            sensing_range: None,
            goal_tolerance: 1.0,
            control_time_s: 0.002,
            compute_scale: 1.0,
            global_replan_every: None,
            plan_from_snapshot: false,
        }
    }
}

impl MissionConfig {
    /// A small configuration for unit tests (coarse sensor, few cycles).
    pub fn tiny() -> Self {
        MissionConfig {
            sensor_cols: 16,
            sensor_rows: 12,
            max_cycles: 3_000,
            ..Default::default()
        }
    }
}

/// Metrics of one closed-loop run (the quantities plotted in Figures
/// 16–19).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissionReport {
    /// Whether the UAV reached the goal within the cycle budget.
    pub reached_goal: bool,
    /// Control cycles executed.
    pub cycles: usize,
    /// Mean end-to-end compute time per cycle (perception + planning +
    /// control), in seconds — Figure 16(a)'s metric.
    pub avg_cycle_compute_s: f64,
    /// Mean mapping-system (perception) time per cycle, seconds.
    pub avg_mapping_s: f64,
    /// Mean planning time per cycle, seconds.
    pub avg_planning_s: f64,
    /// Mean of the per-cycle maximum safe velocities, m/s.
    pub avg_velocity: f64,
    /// Simulated mission completion time, seconds — Figure 16(b)'s metric.
    pub completion_time_s: f64,
    /// Path length actually flown, metres.
    pub distance_travelled: f64,
    /// Total occupancy queries issued by the planner.
    pub planner_queries: usize,
    /// Scans shed by the backend's admission gate (0 unless the backend is
    /// configured with a memory budget or shed deadline): cycles that flew
    /// on the previous map state instead of blocking on an overloaded
    /// mapper.
    pub shed_scans: usize,
    /// Times the UAV clipped an obstacle (0 for a healthy run).
    pub collisions: usize,
    /// Cumulative mapping-backend phase times.
    #[serde(skip)]
    pub phase_times: PhaseTimes,
}

/// One cycle of a traced mission run (see [`Mission::run_traced`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct CycleRecord {
    /// Cycle index (1-based).
    pub cycle: usize,
    /// UAV position at the end of the cycle.
    pub position: [f64; 3],
    /// Velocity bound this cycle, m/s.
    pub velocity: f64,
    /// Measured compute latency this cycle, seconds (unscaled).
    pub compute_s: f64,
    /// Mapping share of the compute latency, seconds.
    pub mapping_s: f64,
    /// Planner queries issued this cycle.
    pub queries: usize,
    /// Whether the direct heading to the goal was free.
    pub direct_path: bool,
}

/// One closed-loop UAV navigation mission, generic over the mapping
/// backend.
#[derive(Debug)]
pub struct Mission {
    env: Environment,
    uav: UavModel,
    config: MissionConfig,
}

impl Mission {
    /// Creates a mission in the given environment with the given airframe.
    pub fn new(env: Environment, uav: UavModel, config: MissionConfig) -> Self {
        Mission { env, uav, config }
    }

    /// The environment.
    pub fn environment(&self) -> Environment {
        self.env
    }

    /// Runs the closed loop to completion (or the cycle cap), consuming the
    /// mapping backend.
    ///
    /// Each cycle: scan → map update (timed) → plan via map queries (timed)
    /// → velocity bound from the measured compute latency → advance the UAV.
    /// The cycle period is the larger of the sensor frame period and the
    /// compute latency, so slow mapping both lowers the velocity bound *and*
    /// reduces the update rate — the paper's coupling.
    ///
    /// # Errors
    ///
    /// Propagates [`PipelineError`] from the mapping backend: a
    /// [`PipelineError::Geom`] when the flight leaves the mapped cube (which
    /// indicates a mis-sized grid for the environment), or a worker fault
    /// from the parallel backend.
    pub fn run<M: MappingSystem>(&self, map: M) -> Result<MissionReport, PipelineError> {
        Ok(self.run_traced(map, false)?.0)
    }

    /// As [`Mission::run`], additionally returning a per-cycle trace when
    /// `record` is true (empty otherwise).
    ///
    /// # Errors
    ///
    /// See [`Mission::run`].
    pub(crate) fn run_traced<M: MappingSystem>(
        &self,
        mut map: M,
        record: bool,
    ) -> Result<(MissionReport, Vec<CycleRecord>), PipelineError> {
        let scene = self.env.scene(self.config.seed);
        let sensing_range = self
            .config
            .sensing_range
            .unwrap_or(self.env.baseline_params().sensing_range);
        let sensor = DepthSensor::new(
            self.config.h_fov,
            self.config.v_fov,
            self.config.sensor_cols,
            self.config.sensor_rows,
            sensing_range,
        );
        let planner = Planner::new(PlannerConfig {
            lookahead: sensing_range,
            sample_spacing: map.grid().resolution().max(0.05),
            ..Default::default()
        });
        let global = crate::astar::AStarPlanner::new(crate::astar::AStarConfig {
            cell: map.grid().resolution().max(0.25),
            ..Default::default()
        });
        let mut global_waypoints: Vec<octocache_geom::Point3> = Vec::new();
        // Arm the backend engine's snapshot publisher up front when
        // planning reads from snapshots, so every insert_scan republishes.
        let handle: Option<QueryHandle> =
            self.config.plan_from_snapshot.then(|| map.query_handle());

        let goal = self.env.goal();
        let mut position = self.env.start();
        let frame_period = 1.0 / self.uav.sensor_fps;

        let mut sim_time = 0.0f64;
        let mut distance = 0.0f64;
        let mut cycles = 0usize;
        let mut compute_total = Duration::ZERO;
        let mut mapping_total = Duration::ZERO;
        let mut planning_total = Duration::ZERO;
        let mut velocity_sum = 0.0f64;
        let mut queries = 0usize;
        let mut shed_scans = 0usize;
        let mut collisions = 0usize;
        let mut reached = false;
        let mut trace: Vec<CycleRecord> = Vec::new();

        while cycles < self.config.max_cycles {
            cycles += 1;

            // Perception: scan the world and update the map.
            let to_goal = goal - position;
            let yaw = to_goal.y.atan2(to_goal.x);
            let pose = Pose::new(position, yaw);
            let cloud = sensor.scan(&scene, &pose, self.config.seed ^ cycles as u64);
            let t0 = Instant::now();
            // Scans go through the supervised admission gate: over its memory
            // budget or overloaded, the backend may shed the scan, in which
            // case this cycle plans on the previous map state — the paper's
            // "stale map beats a stalled control loop" trade.
            match map.insert_scan(position, &cloud, sensing_range) {
                Ok(_) => {}
                Err(PipelineError::Shed(_)) => shed_scans += 1,
                Err(e) => return Err(e),
            }
            let mapping_time = t0.elapsed();

            // Planning: global A* waypoints when configured, with the
            // reactive planner as the per-cycle validator/fallback. Queries
            // go to the scan-boundary snapshot when configured, else to the
            // live (locked) map — the two answer identically.
            let t1 = Instant::now();
            let mut snap_store;
            let mut live_store;
            let view: &mut dyn OccupancyView = match &handle {
                Some(h) => {
                    snap_store = h.snapshot();
                    &mut snap_store
                }
                None => {
                    live_store = LiveMap(&mut map);
                    &mut live_store
                }
            };
            let plan = {
                let mut target = goal;
                if let Some(k) = self.config.global_replan_every {
                    if cycles % k.max(1) == 1 || global_waypoints.is_empty() {
                        global_waypoints.clear();
                        if let Some(path) = global.plan_on(&mut *view, position, goal) {
                            queries += path.queries;
                            let smoothed = global.smooth_on(&mut *view, &path);
                            queries += smoothed.queries - path.queries;
                            global_waypoints = smoothed.waypoints;
                            global_waypoints.reverse(); // pop() from the front
                        }
                    }
                    // Drop waypoints already reached.
                    while let Some(&wp) = global_waypoints.last() {
                        if position.distance(wp) <= self.config.goal_tolerance {
                            global_waypoints.pop();
                        } else {
                            break;
                        }
                    }
                    if let Some(&wp) = global_waypoints.last() {
                        target = wp;
                    }
                }
                planner.plan_on(&mut *view, position, target)
            };
            let planning_time = t1.elapsed();
            queries += plan.queries;

            let compute =
                mapping_time + planning_time + Duration::from_secs_f64(self.config.control_time_s);
            compute_total += compute;
            mapping_total += mapping_time;
            planning_total += planning_time;

            // Velocity bound from the measured latency (paper §5.1), under
            // the edge-platform emulation factor.
            let effective_compute = compute.as_secs_f64() * self.config.compute_scale;
            let v = velocity::uav_max_velocity(&self.uav, sensing_range, effective_compute);
            velocity_sum += v;

            // Advance: the cycle period is gated by compute when it exceeds
            // the frame period.
            let cycle_period = frame_period.max(effective_compute);
            sim_time += cycle_period;
            let to_wp = plan.waypoint - position;
            let reach = to_wp.norm();
            if reach > 1e-9 {
                let step = (v * cycle_period).min(reach);
                position += to_wp * (step / reach);
                distance += step;
            }
            if scene.is_inside_obstacle(position) {
                collisions += 1;
            }
            if record {
                trace.push(CycleRecord {
                    cycle: cycles,
                    position: position.into(),
                    velocity: v,
                    compute_s: compute.as_secs_f64(),
                    mapping_s: mapping_time.as_secs_f64(),
                    queries: plan.queries,
                    direct_path: plan.direct,
                });
            }
            if position.distance(goal) <= self.config.goal_tolerance {
                reached = true;
                break;
            }
        }

        let n = cycles.max(1) as f64;
        map.finish();
        let report = MissionReport {
            reached_goal: reached,
            cycles,
            avg_cycle_compute_s: compute_total.as_secs_f64() / n,
            avg_mapping_s: mapping_total.as_secs_f64() / n,
            avg_planning_s: planning_total.as_secs_f64() / n,
            avg_velocity: velocity_sum / n,
            completion_time_s: sim_time,
            distance_travelled: distance,
            planner_queries: queries,
            shed_scans,
            collisions,
            phase_times: map.phase_times(),
        };
        Ok((report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octocache::pipeline::OctoMapSystem;
    use octocache::{CacheConfig, SerialOctoCache};
    use octocache_geom::Point3;
    use octocache_geom::VoxelGrid;
    use octocache_octomap::OccupancyParams;

    fn octomap_backend(env: Environment) -> OctoMapSystem {
        let p = env.baseline_params();
        OctoMapSystem::new(
            VoxelGrid::new(p.resolution, 16).unwrap(),
            OccupancyParams::default(),
        )
    }

    #[test]
    fn openland_mission_completes_with_octomap() {
        let mission = Mission::new(
            Environment::Openland,
            UavModel::asctec_pelican(),
            MissionConfig::tiny(),
        );
        let report = mission.run(octomap_backend(Environment::Openland)).unwrap();
        assert!(report.reached_goal, "did not reach goal: {report:?}");
        assert_eq!(report.collisions, 0, "collided: {report:?}");
        assert!(report.avg_velocity > 0.5);
        assert!(report.distance_travelled >= 99.0 - 1.0);
        assert!(report.completion_time_s.is_finite());
        assert!(report.planner_queries > 0);
    }

    #[test]
    fn room_mission_completes_with_octocache() {
        let grid = VoxelGrid::new(Environment::Room.baseline_params().resolution, 16).unwrap();
        let map = SerialOctoCache::new(
            grid,
            OccupancyParams::default(),
            CacheConfig::builder()
                .num_buckets(1 << 12)
                .tau(4)
                .build()
                .unwrap(),
        );
        let mission = Mission::new(
            Environment::Room,
            UavModel::asctec_pelican(),
            MissionConfig::tiny(),
        );
        let report = mission.run(map).unwrap();
        assert!(report.reached_goal, "{report:?}");
        assert_eq!(report.collisions, 0);
    }

    #[test]
    fn supervised_mission_completes_without_shedding() {
        // A supervised backend (memory budget + deadline) flying a calm
        // mission must behave exactly like an unsupervised
        // one: goal reached, nothing shed, no collisions.
        let grid = VoxelGrid::new(Environment::Room.baseline_params().resolution, 16).unwrap();
        let mut builder = CacheConfig::builder();
        builder
            .num_buckets(1 << 12)
            .tau(4)
            .mem_budget(1 << 30)
            .shed_deadline(std::time::Duration::from_secs(5));
        let map = SerialOctoCache::new(grid, OccupancyParams::default(), builder.build().unwrap());
        let mission = Mission::new(
            Environment::Room,
            UavModel::asctec_pelican(),
            MissionConfig::tiny(),
        );
        let report = mission.run(map).unwrap();
        assert!(report.reached_goal, "{report:?}");
        assert_eq!(report.shed_scans, 0, "{report:?}");
        assert_eq!(report.collisions, 0);
    }

    #[test]
    fn spark_flies_slower_than_pelican() {
        let cfg = MissionConfig::tiny();
        let env = Environment::Openland;
        let pelican = Mission::new(env, UavModel::asctec_pelican(), cfg)
            .run(octomap_backend(env))
            .unwrap();
        let spark = Mission::new(env, UavModel::dji_spark(), cfg)
            .run(octomap_backend(env))
            .unwrap();
        assert!(pelican.avg_velocity > spark.avg_velocity);
        assert!(pelican.completion_time_s < spark.completion_time_s);
    }

    #[test]
    fn global_planner_mission_completes() {
        let config = MissionConfig {
            global_replan_every: Some(20),
            ..MissionConfig::tiny()
        };
        let mission = Mission::new(Environment::Factory, UavModel::asctec_pelican(), config);
        let report = mission.run(octomap_backend(Environment::Factory)).unwrap();
        assert!(report.reached_goal, "{report:?}");
        assert_eq!(report.collisions, 0);
        // A* queries show up in the totals.
        assert!(report.planner_queries > 0);
    }

    #[test]
    fn snapshot_planned_mission_completes() {
        // Planning from published snapshots must be behaviourally sound:
        // the mission reaches the goal collision-free, exactly as when
        // planning against the locked live map (the snapshot equals the
        // live map at every scan boundary — see the core query-consistency
        // battery).
        let config = MissionConfig {
            plan_from_snapshot: true,
            global_replan_every: Some(25),
            ..MissionConfig::tiny()
        };
        let mission = Mission::new(Environment::Openland, UavModel::asctec_pelican(), config);
        let report = mission.run(octomap_backend(Environment::Openland)).unwrap();
        assert!(report.reached_goal, "{report:?}");
        assert_eq!(report.collisions, 0, "{report:?}");
        assert!(report.planner_queries > 0);
    }

    #[test]
    fn shared_recorder_captures_per_scan_telemetry_through_a_mission() {
        use octocache::SharedRecorder;

        // The mission consumes the backend by value; a SharedRecorder clone
        // attached beforehand is how callers read the trace back out.
        let grid = VoxelGrid::new(Environment::Openland.baseline_params().resolution, 16).unwrap();
        let mut map = SerialOctoCache::new(
            grid,
            OccupancyParams::default(),
            CacheConfig::builder()
                .num_buckets(1 << 12)
                .tau(4)
                .build()
                .unwrap(),
        );
        let recorder = SharedRecorder::new();
        octocache::MappingSystem::set_recorder(&mut map, Box::new(recorder.clone()));

        let mission = Mission::new(
            Environment::Openland,
            UavModel::asctec_pelican(),
            MissionConfig::tiny(),
        );
        let report = mission.run(map).unwrap();

        let records = recorder.records();
        // One ScanRecord per mapping cycle, in order.
        assert_eq!(records.len(), report.cycles);
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.seq, i as u64);
            assert_eq!(rec.backend, "octocache-serial");
            assert!(rec.observations > 0);
        }
        // Duplicated voxel observations produce cache hits over the flight.
        assert!(records.iter().map(|r| r.cache_hits).sum::<u64>() > 0);
    }

    #[test]
    fn traced_run_records_every_cycle() {
        let mission = Mission::new(
            Environment::Openland,
            UavModel::asctec_pelican(),
            MissionConfig::tiny(),
        );
        let (report, trace) = mission
            .run_traced(octomap_backend(Environment::Openland), true)
            .unwrap();
        assert_eq!(trace.len(), report.cycles);
        // Cycles are 1-based and consecutive.
        for (i, rec) in trace.iter().enumerate() {
            assert_eq!(rec.cycle, i + 1);
            assert!(rec.velocity > 0.0);
            assert!(rec.compute_s >= rec.mapping_s);
        }
        // The UAV makes overall progress toward the goal.
        let goal = Environment::Openland.goal();
        let first = Point3::from(trace.first().unwrap().position);
        let last = Point3::from(trace.last().unwrap().position);
        assert!(last.distance(goal) < first.distance(goal));
        // Untraced runs return an empty trace.
        let (_, empty) = mission
            .run_traced(octomap_backend(Environment::Openland), false)
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn report_averages_are_consistent() {
        let mission = Mission::new(
            Environment::Openland,
            UavModel::asctec_pelican(),
            MissionConfig::tiny(),
        );
        let report = mission.run(octomap_backend(Environment::Openland)).unwrap();
        assert!(report.avg_cycle_compute_s >= report.avg_mapping_s);
        assert!(report.avg_cycle_compute_s >= report.avg_planning_s);
        assert!(report.cycles > 0);
    }
}
