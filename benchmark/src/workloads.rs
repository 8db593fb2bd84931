//! The six workloads: their frozen parameters, their inputs, and one timed
//! pass of each through the engine under test.
//!
//! `--seed` reaches only [`Spec::inputs`]; the mapping system receives the
//! generated scans and nothing else. The scene layout is generated from the
//! frozen [`SCENE_SEED`]; `--seed` draws the range noise of every sensor
//! return. Every seed is another noisy view of the same scene, so the work —
//! and with it every metric — stays comparable between seeds. (Seeding the
//! layout moved `campus_miss` between 3.7 and 7.3 scans/s, and moving the
//! scene against the voxel grid moved `corridor_hot` by 15 %: no bound
//! survives either.)

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use octocache::pipeline::OctoMapSystem;
use octocache::{
    CacheConfig, CacheStats, LiveMap, MappingSystem, ParallelOctoCache, PhaseTimes, QueryHandle,
    ScanRecord, SerialOctoCache, SharedRecorder,
};
use octocache_datasets::{Dataset, DatasetConfig, DepthSensor, Pose, Scan};
use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::{OccupancyOcTree, OccupancyParams};
use octocache_sim::astar::{AStarConfig, AStarPlanner};
use octocache_sim::{Environment, Planner, PlannerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::spans::Recorder;

/// The seed used when none is given, and the one the committed goldens are
/// for.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// How long one run measures unless told otherwise; the `run_seconds` of
/// `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 10;

/// The layout seed of every scene (`DatasetConfig::seed`, `Environment::scene`).
pub const SCENE_SEED: u64 = 0xC0FFEE;
/// Standard deviation of the range noise `--seed` adds to every point (m):
/// twice the depth sensor's own, which the generators draw from the layout
/// seed and which therefore does not vary.
const RANGE_NOISE: f64 = 0.01;

/// Octree depth of every workload's grid (the repository's standard).
const TREE_DEPTH: u8 = 16;
/// Cache associativity threshold τ (paper §5.2; frozen with the bucket counts).
const TAU: usize = 4;
/// The reader's probe batch: 256 keys every 2 ms, open loop.
pub const READER_BATCH: usize = 256;
pub const READER_PERIOD: Duration = Duration::from_millis(2);
/// `mission_cycle` runs the global A* planner on every n-th cycle.
const ASTAR_EVERY: usize = 10;

/// Which mapping system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `SerialOctoCache`.
    Serial,
    /// `OctoMapSystem`: the cache-less baseline.
    Baseline,
    /// `ParallelOctoCache::new`: producer plus one octree worker.
    Parallel,
}

impl Backend {
    pub fn label(self) -> &'static str {
        match self {
            Backend::Serial => "SerialOctoCache",
            Backend::Baseline => "OctoMapSystem",
            Backend::Parallel => "ParallelOctoCache",
        }
    }
}

/// Where a workload's scans come from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The first `scans` scans of a synthetic dataset at `scale`.
    Dataset {
        dataset: Dataset,
        scale: f64,
        scans: usize,
        resolution: f64,
    },
    /// A depth camera flown along `poses` fixed poses from the environment's
    /// start to its goal, with planning after every scan.
    Mission { env: Environment, poses: usize },
}

/// One workload's frozen parameters.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    /// Cache buckets (the §5.2 sizing result, frozen). Unused by `Baseline`.
    pub buckets: usize,
    pub backend: Backend,
    /// Whether a paced reader thread queries published snapshots meanwhile.
    pub readers: bool,
    /// The quantile over the scans of the sequence reported as
    /// `scan_ms_tail`: the highest round one with at least ten scans beyond
    /// it, or — where the sequence is too short for any — 1.0, the slowest
    /// scan.
    pub tail: f64,
    /// How many leading scans are checked against the reference
    /// implementation (see `verify.rs`): all of them, unless plain OctoMap
    /// needs longer for them than the whole run may take.
    pub reference_scans: usize,
    /// What the traffic must look like for the workload to measure what it
    /// was chosen for; checked on the warm-up pass of every run.
    pub properties: &'static [Property],
}

/// A property of a workload's traffic that its reason for existing rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Property {
    HitRatioAtLeast(f64),
    HitRatioAtMost(f64),
    /// Snapshot publishing takes at least this share of the pass.
    PublishShareAtLeast(f64),
    /// The octree worker thread reports busy time.
    WorkerBusy,
    /// Planner queries are issued and some are answered by the cache.
    PlannerReadsCache,
    /// The backend has no cache at all.
    NoCache,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "corridor_hot",
        why: "hit ratio ~0.99: ray tracing and the cache hit path dominate; eviction and the octree do little",
        source: Source::Dataset {
            dataset: Dataset::Fr079Corridor,
            scale: 1.0,
            scans: 66,
            resolution: 0.1,
        },
        buckets: 65_536,
        backend: Backend::Serial,
        readers: false,
        tail: 0.8,
        reference_scans: 8,
        properties: &[Property::HitRatioAtLeast(0.95)],
    },
    Spec {
        name: "campus_miss",
        why: "hit ratio ~0.5: miss seeding, eviction, Morton ordering and octree writes dominate; ray tracing is ~1%",
        source: Source::Dataset {
            dataset: Dataset::FreiburgCampus,
            scale: 0.25,
            scans: 8,
            resolution: 0.1,
        },
        buckets: 524_288,
        backend: Backend::Serial,
        readers: false,
        tail: 1.0,
        reference_scans: 8,
        properties: &[Property::HitRatioAtMost(0.6)],
    },
    Spec {
        name: "campus_baseline",
        why: "same scans through plain OctoMap: the paper's speed-up denominator; cache-only changes must leave it flat",
        source: Source::Dataset {
            dataset: Dataset::FreiburgCampus,
            scale: 0.25,
            scans: 8,
            resolution: 0.1,
        },
        buckets: 524_288,
        backend: Backend::Baseline,
        readers: false,
        tail: 1.0,
        reference_scans: 8,
        properties: &[Property::NoCache],
    },
    Spec {
        name: "campus_parallel",
        why: "same scans through the two-thread pipeline: the only workload where the worker, SPSC ring and routing do work",
        source: Source::Dataset {
            dataset: Dataset::FreiburgCampus,
            scale: 0.25,
            scans: 8,
            resolution: 0.1,
        },
        buckets: 524_288,
        backend: Backend::Parallel,
        readers: false,
        tail: 1.0,
        reference_scans: 8,
        properties: &[Property::HitRatioAtMost(0.6), Property::WorkerBusy],
    },
    Spec {
        name: "college_readers",
        why: "snapshot publishing armed and a paced reader querying it: the publish tax and reads beside writes",
        source: Source::Dataset {
            dataset: Dataset::NewCollege,
            scale: 0.25,
            scans: 16,
            resolution: 0.2,
        },
        buckets: 65_536,
        backend: Backend::Serial,
        readers: true,
        tail: 1.0,
        reference_scans: 16,
        properties: &[Property::PublishShareAtLeast(0.5)],
    },
    Spec {
        name: "mission_cycle",
        why: "the paper's end-to-end loop: small dense scans, planner reads through the cache interleaved with writes",
        source: Source::Mission {
            env: Environment::Factory,
            poses: 800,
        },
        buckets: 131_072,
        backend: Backend::Serial,
        readers: false,
        tail: 0.98,
        reference_scans: 80,
        properties: &[Property::HitRatioAtLeast(0.95), Property::PlannerReadsCache],
    },
];

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// Everything a pass needs that depends on the seed.
#[derive(Debug)]
pub struct Inputs {
    pub grid: VoxelGrid,
    pub max_range: f64,
    pub scans: Vec<Scan>,
    /// `mission_cycle` only: where the planner is heading.
    pub goal: Option<Point3>,
    /// The reader's fixed probe set, taken from scan end-points.
    pub probes: Vec<VoxelKey>,
}

impl Inputs {
    /// The same inputs, cut to the first `scans` scans.
    pub fn head(&self, scans: usize) -> Inputs {
        Inputs {
            grid: self.grid,
            max_range: self.max_range,
            scans: self.scans[..scans.min(self.scans.len())].to_vec(),
            goal: self.goal,
            probes: self.probes.clone(),
        }
    }

    /// Total surface points over all scans.
    pub fn points(&self) -> usize {
        self.scans.iter().map(|s| s.points.len()).sum()
    }
}

impl Spec {
    /// Generates the workload's inputs from `seed`, truncated to at most
    /// `limit` scans when given (the tests' miniature runs).
    pub fn inputs(&self, seed: u64, limit: Option<usize>) -> Inputs {
        match self.source {
            Source::Dataset {
                dataset,
                scale,
                scans,
                resolution,
            } => {
                let seq = dataset.generate(&DatasetConfig {
                    scale,
                    seed: SCENE_SEED,
                });
                let keep = scans.min(limit.unwrap_or(usize::MAX));
                let grid = VoxelGrid::new(resolution, TREE_DEPTH).expect("frozen resolution");
                let mut scans: Vec<Scan> = seq.scans().iter().take(keep).cloned().collect();
                perturb(&mut scans, seed);
                Inputs {
                    grid,
                    max_range: seq.max_range(),
                    probes: probe_keys(&grid, &scans),
                    scans,
                    goal: None,
                }
            }
            Source::Mission { env, poses } => {
                let params = env.baseline_params_rt();
                let scene = env.scene(SCENE_SEED);
                let sensor = DepthSensor::new(1.5, 1.0, 96, 72, params.sensing_range);
                let (start, goal) = (env.start(), env.goal());
                let keep = limit.unwrap_or(poses).min(poses);
                // The spacing is that of the full pose list, so a truncated
                // run flies the first part of the same course.
                let mut scans: Vec<Scan> = (0..keep)
                    .map(|i| {
                        let origin = start + (goal - start) * (i as f64 / (poses - 1) as f64);
                        let points =
                            sensor.scan(&scene, &Pose::new(origin, 0.0), SCENE_SEED ^ i as u64);
                        Scan { origin, points }
                    })
                    .collect();
                perturb(&mut scans, seed);
                let grid =
                    VoxelGrid::new(params.resolution, TREE_DEPTH).expect("frozen resolution");
                Inputs {
                    grid,
                    max_range: params.sensing_range,
                    probes: probe_keys(&grid, &scans),
                    scans,
                    goal: Some(goal),
                }
            }
        }
    }

    /// The workload's cache configuration.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig::builder()
            .num_buckets(self.buckets)
            .tau(TAU)
            .build()
            .expect("frozen cache size")
    }

    /// A fresh backend with the workload's own cache configuration.
    pub fn backend(&self, grid: VoxelGrid) -> Box<dyn MappingSystem> {
        self.backend_with(grid, self.cache_config())
    }

    /// A fresh backend with `config` in place of the workload's own (the
    /// supervisor and telemetry overhead probes switch knobs on through it).
    pub fn backend_with(&self, grid: VoxelGrid, config: CacheConfig) -> Box<dyn MappingSystem> {
        let params = OccupancyParams::default();
        match self.backend {
            Backend::Serial => Box::new(SerialOctoCache::new(grid, params, config)),
            Backend::Baseline => Box::new(OctoMapSystem::new(grid, params)),
            Backend::Parallel => Box::new(ParallelOctoCache::new(grid, params, config)),
        }
    }

    /// One untraced, unrecorded pass on a fresh backend; the map is dropped.
    pub fn plain_pass(&self, inputs: &Inputs) -> Pass {
        let backend = self.backend(inputs.grid);
        run_pass(self, inputs, backend, false, &mut Recorder::new(false)).0
    }

    /// The frozen parameters as `key=value` text, stamped into every report.
    pub fn describe(&self) -> String {
        let source = match self.source {
            Source::Dataset {
                dataset,
                scale,
                scans,
                resolution,
            } => format!(
                "dataset={} scale={scale} scans={scans} res={resolution}",
                dataset.name()
            ),
            Source::Mission { env, poses } => {
                let p = env.baseline_params_rt();
                format!(
                    "env={} poses={poses} res={} range={} sensor=96x72 astar_every={ASTAR_EVERY}",
                    env.name(),
                    p.resolution,
                    p.sensing_range
                )
            }
        };
        format!(
            "{source} backend={} buckets={} tau={TAU} readers={} tail=p{}",
            self.backend.label(),
            self.buckets,
            u8::from(self.readers),
            self.tail * 100.0
        )
    }
}

/// Applies `seed` to clean scans: moves each point along its ray by
/// Gaussian range noise.
fn perturb(scans: &mut [Scan], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for scan in scans {
        for point in &mut scan.points {
            let ray = *point - scan.origin;
            let range = ray.norm();
            // Box–Muller, as the sensor model draws its own noise.
            let u1: f64 = rng.random_range(1e-12..1.0);
            let u2: f64 = rng.random_range(0.0..1.0);
            let noise = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos() * RANGE_NOISE;
            if range > 0.1 {
                *point = scan.origin + ray * ((range + noise) / range);
            }
        }
    }
}

/// `READER_BATCH` probe keys spread over every scan's end-points.
fn probe_keys(grid: &VoxelGrid, scans: &[Scan]) -> Vec<VoxelKey> {
    (0..READER_BATCH)
        .filter_map(|j| {
            let scan = &scans[j % scans.len()];
            let point = scan.points.get((j * 7919) % scan.points.len().max(1))?;
            grid.key_of(*point).ok()
        })
        .collect()
}

/// 64-bit FNV-1a, the digest used for planner waypoints and reader answers.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn write_point(&mut self, p: Point3) {
        self.write(p.x.to_bits());
        self.write(p.y.to_bits());
        self.write(p.z.to_bits());
    }
}

/// The digest of one batch of occupancy answers (`None` = unknown).
pub fn answers_digest(answers: &[Option<f32>]) -> u64 {
    let mut h = Fnv::default();
    for a in answers {
        h.write(a.map_or(u64::MAX, |v| u64::from(v.to_bits())));
    }
    h.0
}

/// What the planners did over one pass of `mission_cycle`.
#[derive(Debug, Clone, Default)]
pub struct PlanLog {
    /// Occupancy queries issued by the reactive planner and A*.
    pub queries: u64,
    /// Time spent inside the planners.
    pub time: Duration,
    /// Digest of every returned waypoint, in order.
    pub waypoints: Fnv,
    /// Reactive-planner latency per cycle.
    pub plan_us: Vec<f64>,
    /// A* plus smoothing latency per global replan.
    pub astar_ms: Vec<f64>,
}

/// The planners of `mission_cycle`, configured as `sim::Mission` does.
#[derive(Debug, Clone, Copy)]
pub struct Planners {
    reactive: Planner,
    global: AStarPlanner,
    goal: Point3,
}

impl Planners {
    pub fn new(inputs: &Inputs) -> Option<Planners> {
        let goal = inputs.goal?;
        let resolution = inputs.grid.resolution();
        Some(Planners {
            reactive: Planner::new(PlannerConfig {
                lookahead: inputs.max_range,
                sample_spacing: resolution.max(0.05),
                ..Default::default()
            }),
            global: AStarPlanner::new(AStarConfig {
                cell: resolution.max(0.25),
                ..Default::default()
            }),
            goal,
        })
    }

    /// Plans cycle `cycle` from `position` on `map`; returns the number of
    /// planner calls made.
    pub fn plan<V: octocache::OccupancyView + ?Sized>(
        &self,
        map: &mut V,
        cycle: usize,
        position: Point3,
        log: &mut PlanLog,
    ) -> u64 {
        let mut calls = 1;
        let t0 = Instant::now();
        if cycle.is_multiple_of(ASTAR_EVERY) {
            calls += 1;
            if let Some(path) = self.global.plan_on(map, position, self.goal) {
                let smoothed = self.global.smooth_on(map, &path);
                log.queries += smoothed.queries as u64;
                for wp in &smoothed.waypoints {
                    log.waypoints.write_point(*wp);
                }
            }
            log.astar_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let t1 = Instant::now();
        let step = self.reactive.plan_on(map, position, self.goal);
        let done = Instant::now();
        log.plan_us.push((done - t1).as_secs_f64() * 1e6);
        log.queries += step.queries as u64;
        log.waypoints.write_point(step.waypoint);
        log.time += done - t0;
        calls
    }
}

/// One reader batch: when it was answered relative to when it was due, the
/// publisher epochs seen just before and after it, and what it answered.
#[derive(Debug, Clone, Copy)]
pub struct ReaderBatch {
    pub latency: Duration,
    pub epoch_before: u64,
    pub epoch_after: u64,
    pub answers: u64,
}

/// The open-loop reader: one `READER_BATCH`-key batch every `READER_PERIOD`
/// on the schedule fixed at `start`, each timed from when it was due, until
/// `stop` is set.
fn reader_loop(
    handle: &QueryHandle,
    probes: &[VoxelKey],
    start: Instant,
    stop: &AtomicBool,
) -> Vec<ReaderBatch> {
    let mut log = Vec::new();
    let mut due = start;
    while !stop.load(Ordering::Acquire) {
        // Sleep most of the way, then spin: a plain sleep overshoots by tens
        // of microseconds, which is the size of the batch being timed.
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > Duration::from_micros(300) {
                std::thread::sleep(left - Duration::from_micros(300));
            } else {
                std::hint::spin_loop();
            }
        }
        let epoch_before = handle.epoch();
        let (answers, _) = handle.batch_occupancy(probes);
        let latency = due.elapsed();
        log.push(ReaderBatch {
            latency,
            epoch_before,
            epoch_after: handle.epoch(),
            answers: answers_digest(&answers),
        });
        due += READER_PERIOD;
    }
    log
}

/// Everything one pass measured. Timings are wall clock; counters are the
/// backend's own public ones, read after `finish()`.
#[derive(Debug)]
pub struct Pass {
    /// When the clock started.
    pub started: Instant,
    /// First `insert_scan` to the end of `finish()`.
    pub wall: Duration,
    /// Latency of each turn of the loop: `insert_scan`, plus planning on
    /// the new map where the workload plans.
    pub scan_ms: Vec<f64>,
    pub plan: PlanLog,
    pub reader: Vec<ReaderBatch>,
    /// Scans, planner calls and reader batches attempted.
    pub attempted: u64,
    /// `insert_scan` errors. (A wrong map or reader answer fails the whole
    /// run in `verify.rs` instead.)
    pub failed: u64,
    pub cache: Option<CacheStats>,
    pub phases: PhaseTimes,
    /// Per-scan records, when the pass ran with a recorder attached.
    pub records: Vec<ScanRecord>,
    /// Sub-scan events recorded and dropped, when the backend was configured
    /// with `CacheConfig::events(true)`.
    pub events: (u64, u64),
    /// `leaf_checksum` and node count of the finished map.
    pub checksum: u64,
    pub nodes: usize,
}

impl Pass {
    pub fn hit_ratio(&self) -> f64 {
        self.cache.map_or(0.0, |c| c.hit_rate())
    }

    /// Share of the pass spent publishing snapshots (needs `records`).
    pub fn publish_share(&self) -> f64 {
        let publish: u64 = self.records.iter().map(|r| r.snapshot_publish_ns).sum();
        publish as f64 * 1e-9 / self.wall.as_secs_f64()
    }

    /// Checks `property` against this pass (which must carry `records`).
    pub fn check(&self, property: Property) -> Result<(), String> {
        let hit = self.hit_ratio();
        let holds = match property {
            Property::HitRatioAtLeast(min) => self.cache.is_some() && hit >= min,
            Property::HitRatioAtMost(max) => self.cache.is_some() && hit <= max,
            Property::PublishShareAtLeast(min) => self.publish_share() >= min,
            Property::WorkerBusy => self
                .records
                .iter()
                .any(|r| r.worker_busy_ns.iter().any(|&ns| ns > 0)),
            Property::PlannerReadsCache => {
                self.plan.queries > 0 && self.cache.is_some_and(|c| c.query_hits > 0)
            }
            Property::NoCache => self.cache.is_none(),
        };
        if holds {
            Ok(())
        } else {
            Err(format!(
                "{property:?} no longer holds (hit ratio {hit:.3}, publish share {:.3}, planner queries {})",
                self.publish_share(),
                self.plan.queries
            ))
        }
    }
}

/// Runs `inputs` once through `backend`. With `record`, a telemetry recorder
/// is attached first, so that per-scan records come back in the result.
/// `spans` gets one span per engine call (`scan`, `sim.plan`, `flush`); pass
/// a disabled recorder for an untraced pass. The finished map comes back
/// beside the measurements, for the caller to keep or drop.
pub fn run_pass(
    spec: &Spec,
    inputs: &Inputs,
    mut backend: Box<dyn MappingSystem>,
    record: bool,
    spans: &mut Recorder,
) -> (Pass, OccupancyOcTree) {
    let recorder = record.then(SharedRecorder::new);
    if let Some(r) = &recorder {
        backend.set_recorder(Box::new(r.clone()));
    }
    let handle = spec.readers.then(|| backend.query_handle());
    let planners = Planners::new(inputs);
    let stop = AtomicBool::new(false);

    let mut scan_ms = Vec::with_capacity(inputs.scans.len());
    let mut plan = PlanLog::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let start = Instant::now();
    let (wall, reader) = std::thread::scope(|scope| {
        let reader = handle.as_ref().map(|h| {
            let (probes, stop) = (&inputs.probes, &stop);
            scope.spawn(move || reader_loop(h, probes, start, stop))
        });
        for (i, scan) in inputs.scans.iter().enumerate() {
            spans.set_scan(i as u64);
            let t0 = Instant::now();
            attempted += 1;
            spans.enter("scan");
            if backend
                .insert_scan(scan.origin, &scan.points, inputs.max_range)
                .is_err()
            {
                failed += 1;
            }
            spans.exit(scan.points.len() as u64);
            if let Some(p) = &planners {
                let before = plan.queries;
                spans.enter("sim.plan");
                attempted += p.plan(&mut LiveMap(&mut *backend), i, scan.origin, &mut plan);
                spans.exit(plan.queries - before);
            }
            scan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        spans.enter("flush");
        backend.finish();
        spans.exit(0);
        let wall = start.elapsed();
        stop.store(true, Ordering::Release);
        let log = reader.map_or_else(Vec::new, |r| r.join().expect("reader thread panicked"));
        (wall, log)
    });
    // A late reader batch is counted (`query.reader_late_frac`), not failed:
    // on this two-vCPU sandbox the hypervisor takes a core away for 50–100 ms
    // at a time, whatever the program does, and a deadline would count that.
    attempted += reader.len() as u64;

    let (cache, phases) = (backend.cache_stats(), backend.phase_times());
    let events = backend
        .take_events()
        .map_or((0, 0), |log| (log.events.len() as u64, log.dropped));
    let tree = backend.take_tree();
    let pass = Pass {
        started: start,
        wall,
        scan_ms,
        plan,
        reader,
        attempted,
        failed,
        cache,
        phases,
        records: recorder.map_or_else(Vec::new, |r| r.records()),
        events,
        checksum: tree.leaf_checksum(),
        nodes: tree.num_nodes(),
    };
    (pass, tree)
}
