//! The evaluation harness behind the one `sweep` binary.
//!
//! A *point* is a row of named [`Cell`]s: its axes (what was run) followed
//! by what it measured. The paper's evaluation needs four kinds of point,
//! one measurement function each: [`construct`] builds a dataset's map
//! (Figs 1, 6, 20–24, Table 3), [`fly`] flies a closed-loop UAV mission
//! (Figs 16–19), [`describe`] takes a dataset's workload statistics
//! (Table 2, Figs 7/8) and [`insert_ordered`] fills an octree in one voxel
//! order (Fig 10). [`runs`] holds the named grids over those axes (one per
//! figure), their expansion into a set of distinct points, the check of
//! every map against its baseline, and the projection of each table.

pub mod runs;

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use octocache::locality::{locality_f, VoxelOrder};
use octocache::pipeline::{OctoMapSystem, RayTracer};
use octocache::{CacheConfig, MappingSystem, ParallelOctoCache, QueryHandle, SerialOctoCache};
use octocache_datasets::{stats, ScanSequence};
use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::{OccupancyOcTree, OccupancyParams};
use octocache_sim::{Environment, Mission, MissionConfig, UavModel};
use octocache_telemetry::SharedRecorder;

use Cell::{Int, Real, Text};

/// The Jetson-TX2 emulation factor: UAV missions multiply measured compute
/// latencies by this, emulating the paper's edge platform on a faster host.
const TX2_FACTOR: f64 = 50.0;

/// Resolution of the order points, metres.
const ORDER_RESOLUTION: f64 = 0.1;

/// Timed repetitions of an order point, after one warm-up (the paper
/// averages 100).
const ORDER_REPS: u32 = 4;

/// Keys a reader thread looks up per batch against the published snapshot.
const READER_BATCH: usize = 256;

/// One value of a point: an axis setting or a measurement. Prints as a
/// table cell, serialises as a JSON scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// A name: dataset, backend, order, airframe, environment.
    Text(&'static str),
    /// A count.
    Int(u64),
    /// An axis setting in metres, printed in full.
    Num(f64),
    /// A measurement, printed with this many decimals and this suffix.
    Real(f64, usize, &'static str),
}

impl Cell {
    /// The number in a numeric cell.
    pub fn num(self) -> f64 {
        match self {
            Int(i) => i as f64,
            Cell::Num(x) | Real(x, ..) => x,
            Text(name) => panic!("{name} is not a number"),
        }
    }

    /// The name in a [`Cell::Text`].
    pub fn text(self) -> &'static str {
        match self {
            Text(name) => name,
            other => panic!("{other:?} is not a name"),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Text(name) => f.pad(name),
            Int(i) => f.pad(&i.to_string()),
            Cell::Num(x) => f.pad(&x.to_string()),
            Real(x, ..) if !x.is_finite() => f.pad("-"),
            Real(x, decimals, unit) => f.pad(&format!("{x:.decimals$}{unit}")),
        }
    }
}

/// Named cells, in column order.
pub type Row = Vec<(&'static str, Cell)>;

/// The cell of column `name`.
///
/// # Panics
///
/// When the row has no such column: a misspelt axis or column in the run
/// table is a bug, not an input.
pub fn cell(row: &[(&'static str, Cell)], name: &str) -> Cell {
    match row.iter().find(|(n, _)| *n == name) {
        Some(&(_, cell)) => cell,
        None => panic!("no column {name} in {row:?}"),
    }
}

/// The item of `all` that the `axis` cell of `row` names.
pub fn pick<T>(
    row: &[(&'static str, Cell)],
    axis: &str,
    all: impl IntoIterator<Item = T>,
    name_of: impl Fn(&T) -> &'static str,
) -> T {
    let name = cell(row, axis).text();
    let found = all.into_iter().find(|item| name_of(item) == name);
    found.unwrap_or_else(|| panic!("no {axis} is called {name}"))
}

/// A measurement printed with `decimals` decimals.
fn real(x: f64, decimals: usize) -> Cell {
    Real(x, decimals, "")
}

/// A fraction printed as a percentage with `decimals` decimals.
fn percent(fraction: f64, decimals: usize) -> Cell {
    Real(fraction * 100.0, decimals, "%")
}

/// The standard comparison set: vanilla OctoMap, serial OctoCache and
/// parallel (two-thread) OctoCache, by the names the systems report.
pub const STANDARD: [&str; 3] = ["octomap", "octocache-serial", "octocache-parallel"];
/// The same three behind the RT (deduplicating) ray tracer.
pub const RT: [&str; 3] = ["octomap-rt", "octocache-serial-rt", "octocache-parallel-rt"];

/// The cache-less backend with `backend`'s ray tracer: what its map must
/// equal, and the denominator of its speed-up.
pub fn baseline_of(backend: &str) -> &'static str {
    if backend.ends_with("-rt") {
        RT[0]
    } else {
        STANDARD[0]
    }
}

/// Builds the backend called `backend`.
///
/// # Panics
///
/// When the name is in neither [`STANDARD`] nor [`RT`].
pub fn build(backend: &str, grid: VoxelGrid, cache: CacheConfig) -> Box<dyn MappingSystem> {
    let params = OccupancyParams::default();
    let (plain, rt) = match backend.strip_suffix("-rt") {
        Some(plain) => (plain, RayTracer::Dedup),
        None => (backend, RayTracer::Standard),
    };
    match plain {
        "octomap" => Box::new(OctoMapSystem::with_ray_tracer(grid, params, rt)),
        "octocache-serial" => Box::new(SerialOctoCache::with_ray_tracer(grid, params, cache, rt)),
        "octocache-parallel" => {
            Box::new(ParallelOctoCache::with_ray_tracer(grid, params, cache, rt))
        }
        _ => panic!("no backend is called {backend}"),
    }
}

/// A 16-level grid at the given resolution.
pub fn grid(resolution: f64) -> VoxelGrid {
    VoxelGrid::new(resolution, 16).expect("valid resolution")
}

/// Sizes the cache per the paper's §5.2 rule: capacity 3–4× the average
/// non-duplicate voxels per batch, τ = 4.
pub fn cache_for(seq: &ScanSequence, resolution: f64) -> CacheConfig {
    let g = grid(resolution);
    // Sample a few batches to estimate non-duplicate voxels per batch.
    let sample: Vec<usize> = seq
        .scans()
        .iter()
        .step_by((seq.scans().len() / 8).max(1))
        .take(8)
        .map(|s| {
            stats::batch_stats(s, &g, seq.max_range())
                .map(|b| b.distinct_voxels)
                .unwrap_or(0)
        })
        .collect();
    let avg = sample.iter().sum::<usize>() / sample.len().max(1);
    CacheConfig::builder()
        .tau(4)
        .size_for_batch(avg.max(64), 3.5)
        .build()
        .expect("valid cache config")
}

/// A cache config with an explicit bucket count (power of two enforced by
/// rounding up).
pub fn cache_with(num_buckets: usize, tau: usize) -> CacheConfig {
    CacheConfig::builder()
        .num_buckets(num_buckets.next_power_of_two())
        .tau(tau)
        .build()
        .expect("valid cache config")
}

/// Cycles through `keys` in Morton-batched lookups until `stop`.
fn reader_loop(handle: QueryHandle, keys: &[VoxelKey], stop: &AtomicBool) {
    let mut offset = 0usize;
    while !stop.load(Ordering::Acquire) {
        let end = (offset + READER_BATCH).min(keys.len());
        std::hint::black_box(handle.batch_occupancy(&keys[offset..end]));
        offset = if end == keys.len() { 0 } else { end };
    }
}

/// A construction point (the 3D-environment-construction workload of
/// §5.2): builds the map of `seq` and flushes it, on wall-clock time.
///
/// Axes: `res`, `backend`, `w` (bucket count, or `sized` for the §5.2
/// capacity of [`cache_for`], reshaped to `tau` at constant `w × τ`), `tau`,
/// `readers` (threads querying the published snapshot meanwhile; 0 leaves
/// publishing unarmed) and `probes` (planner-style point queries answered
/// after every scan).
pub fn construct(seq: &ScanSequence, axes: &[(&'static str, Cell)]) -> Row {
    let num = |name| cell(axes, name).num();
    let (backend, resolution) = (cell(axes, "backend").text(), num("res"));
    let (tau, readers, probes) = (num("tau") as usize, num("readers") as usize, num("probes"));
    let g = grid(resolution);
    let buckets = match cell(axes, "w") {
        Int(buckets) => buckets as usize,
        _ => cache_for(seq, resolution).capacity_after_eviction() / tau,
    };
    let cache = cache_with(buckets, tau);
    let mut system = build(backend, g, cache);
    let recorder = SharedRecorder::new();
    system.set_recorder(Box::new(recorder.clone()));
    // Readers look up every in-grid scan endpoint: the query mix of a
    // planner validating trajectories against the map.
    let reader_keys: Vec<VoxelKey> = (seq.scans().iter().filter(|_| readers > 0))
        .flat_map(|s| s.points.iter())
        .filter_map(|&p| g.key_of(p).ok())
        .collect();
    let handles: Vec<QueryHandle> = (0..readers).map(|_| system.query_handle()).collect();
    let stop = AtomicBool::new(false);

    let (mut observations, mut hits, mut updates) = (0u64, 0u64, 0u64);
    let mut to_answers = Duration::ZERO;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for handle in handles {
            let (keys, stop) = (&reader_keys[..], &stop);
            scope.spawn(move || reader_loop(handle, keys, stop));
        }
        for scan in seq.scans() {
            let arrived = Instant::now();
            let report = system
                .insert_scan(scan.origin, &scan.points, seq.max_range())
                .expect("scan within grid");
            // Probes on the segment toward a synthetic goal.
            let goal = scan.origin + Point3::new(seq.max_range(), 0.0, 0.0);
            for i in 0..probes as u32 {
                let p = scan.origin.lerp(goal, f64::from(i + 1) / probes);
                std::hint::black_box(system.is_occupied_at(p).ok());
            }
            to_answers += arrived.elapsed();
            observations += report.observations as u64;
            hits += report.cache_hits;
            updates += report.octree_updates as u64;
        }
        stop.store(true, Ordering::Release);
    });
    system.finish();
    let total_s = t0.elapsed().as_secs_f64();

    assert_eq!(system.name(), backend);
    let (phases, cached) = (system.phase_times(), system.cache_stats());
    let records = recorder.records();
    let publishes = records.iter().filter(|r| r.snapshot_publish_ns > 0);
    let publish_ns: u64 = publishes.clone().map(|r| r.snapshot_publish_ns).sum();
    let publish_ms = publish_ns as f64 / 1e6 / publishes.count().max(1) as f64;
    let tree = system.take_tree();
    let scans = seq.scans().len() as f64;
    let mib = |bytes: usize| bytes as f64 / 1024.0 / 1024.0;
    let tree_mb = mib(tree.memory_usage());
    let cache_mb = cached.map_or(0.0, |_| mib(cache.resident_bytes()));
    let secs = |d: Duration| real(d.as_secs_f64(), 3);
    let queue_s = (phases.enqueue + phases.dequeue).as_secs_f64();
    let octree_share = phases.octree_update.as_secs_f64() / phases.total().as_secs_f64();
    vec![
        ("scans", Int(scans as u64)),
        ("total(s)", real(total_s, 3)),
        ("scans/s", real(scans / total_s, 1)),
        ("ray(s)", secs(phases.ray_tracing)),
        ("ins(s)", secs(phases.cache_insert)),
        ("evict(s)", secs(phases.cache_evict)),
        ("octree(s)", secs(phases.octree_update)),
        ("enq(s)", secs(phases.enqueue)),
        ("deq(s)", secs(phases.dequeue)),
        ("wait(s)", secs(phases.wait)),
        ("octree%", percent(octree_share, 1)),
        ("queue%", percent(queue_s / total_s, 2)),
        ("obs", Int(observations)),
        ("hits", Int(hits)),
        ("hit", percent(hits as f64 / observations.max(1) as f64, 1)),
        // Voxels that reached the octree: every observation for a baseline,
        // the cache's evictions — final flush included — otherwise.
        ("to-octree", Int(cached.map_or(updates, |s| s.evictions))),
        ("visits", Int(tree.stats().snapshot().node_visits)),
        ("tree(MB)", real(tree_mb, 1)),
        ("buckets", Int(cached.map_or(0, |_| buckets as u64))),
        ("cache(MB)", real(cache_mb, 1)),
        ("cache/tree", percent(cache_mb / tree_mb, 2)),
        ("publish(ms)", real(publish_ms, 2)),
        (
            "answers(ms)",
            real(to_answers.as_secs_f64() * 1e3 / scans, 2),
        ),
        ("checksum", Int(tree.leaf_checksum())),
    ]
}

/// Replays the shared seeded blob-walk scenario (the exact generator the
/// cross-backend differential and golden-checksum suites use, from
/// [`octocache_datasets::scenario`]) through `backend` and returns the
/// resulting leaf checksum. The sweep runs this once per backend up front:
/// a broken build fails fast instead of producing a table of garbage.
pub fn scenario_smoke(mut backend: Box<dyn MappingSystem>) -> u64 {
    let seq = octocache_datasets::scenario::blob_walk_sequence(0);
    for scan in seq.scans() {
        backend
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .expect("scenario scan within grid");
    }
    backend.finish();
    backend.take_tree().leaf_checksum()
}

/// A mission point: one closed-loop UAV flight (axes `uav`, `env`,
/// `backend`, `range`, `res`) at a sensor density scaled by `scale`.
pub fn fly(axes: &[(&'static str, Cell)], scale: f64) -> Row {
    let uav = pick(axes, "uav", UavModel::all(), |u| u.name);
    let env = pick(axes, "env", Environment::ALL, Environment::name);
    // The paper's UAV cache: 512 Ki buckets × τ 4 (≈ 14 MB); scaled down
    // with the workload.
    let buckets = ((512.0 * 1024.0 * scale) as usize).max(1 << 10);
    // Dense sensor: the paper's mapping stage dominates the cycle (up to
    // 72 % of end-to-end runtime), which requires MAVBench-like point-cloud
    // sizes relative to the host speed.
    let density = scale.sqrt().max(0.3);
    let config = MissionConfig {
        sensing_range: Some(cell(axes, "range").num()),
        sensor_cols: ((192.0 * density) as u32).max(24),
        sensor_rows: ((144.0 * density) as u32).max(18),
        control_time_s: 0.0005,
        compute_scale: TX2_FACTOR,
        ..MissionConfig::default()
    };
    let g = grid(cell(axes, "res").num());
    let map = build(cell(axes, "backend").text(), g, cache_with(buckets, 4));
    let flight = Mission::new(env, uav, config).run(map);
    let r = flight.expect("mission stays within the mapped cube");
    vec![
        ("reached", Text(if r.reached_goal { "y" } else { "n" })),
        ("cycles", Int(r.cycles as u64)),
        ("e2e(ms)", real(r.avg_cycle_compute_s * 1e3, 1)),
        ("map(ms)", real(r.avg_mapping_s * 1e3, 1)),
        ("plan(ms)", real(r.avg_planning_s * 1e3, 1)),
        ("v(m/s)", real(r.avg_velocity, 2)),
        ("T(s)", real(r.completion_time_s, 1)),
        ("dist(m)", real(r.distance_travelled, 1)),
        ("queries", Int(r.planner_queries as u64)),
        ("collisions", Int(r.collisions as u64)),
    ]
}

/// A dataset point at resolution `res`: a Table 2 row, the §3.1
/// intra-batch duplication band and the Fig 8 quantiles of the overlap with
/// the previous three batches.
pub fn describe(seq: &ScanSequence, axes: &[(&'static str, Cell)]) -> Row {
    let resolution = cell(axes, "res").num();
    let g = grid(resolution);
    let factors: Vec<f64> = (seq.scans().iter())
        .map(|s| stats::batch_stats(s, &g, seq.max_range()).expect("in-grid scan"))
        .map(|batch| batch.duplication_factor())
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let ratios = stats::overlap_ratios(seq, &g, 3).expect("in-grid scans");
    let cdf = stats::empirical_cdf(&ratios);
    let quantile = |q: f64| match cdf.len() {
        0 => 0.0,
        n => cdf[((n as f64 * q) as usize).min(n - 1)].0,
    };
    let t = stats::table2_row(seq, resolution).expect("in-grid scans");
    let (nondup, dup) = (t.nonduplicate_voxels as u64, t.duplicate_voxels as u64);
    let dup_min = factors.iter().copied().fold(f64::INFINITY, f64::min);
    let dup_max = factors.iter().copied().fold(0.0, f64::max);
    vec![
        ("clouds", Int(t.point_clouds as u64)),
        ("points", Int(seq.total_points() as u64)),
        ("nondup", Int(nondup)),
        ("dup", Int(dup)),
        ("ratio", Real(dup as f64 / nondup.max(1) as f64, 1, "x")),
        ("dup-min", real(dup_min, 2)),
        ("dup-mean", real(mean(&factors), 2)),
        ("dup-max", real(dup_max, 2)),
        ("ovl-p10", percent(quantile(0.1), 1)),
        ("ovl-p50", percent(quantile(0.5), 1)),
        ("ovl-p90", percent(quantile(0.9), 1)),
        ("ovl-mean", percent(mean(&ratios), 1)),
    ]
}

/// The distinct voxels of a dataset at the order points' 0.1 m, in first-seen
/// (ray-traced) order.
pub fn distinct_voxels(seq: &ScanSequence) -> Vec<VoxelKey> {
    let g = grid(ORDER_RESOLUTION);
    let mut seen: HashSet<VoxelKey> = HashSet::new();
    let mut keys = Vec::new();
    for scan in seq.scans() {
        stats::for_each_observation(scan, &g, seq.max_range(), |k, _| {
            if seen.insert(k) {
                keys.push(k);
            }
        })
        .expect("in-grid scan");
    }
    keys
}

/// An order point: inserts `keys` into an empty octree in the order the
/// `order` axis names.
pub fn insert_ordered(keys: &[VoxelKey], axes: &[(&'static str, Cell)]) -> Row {
    let order = pick(axes, "order", VoxelOrder::ALL, VoxelOrder::label);
    let mut ordered = keys.to_vec();
    order.apply(&mut ordered);
    let mut total = Duration::ZERO;
    let mut visits_per_voxel = 0.0;
    for rep in 0..=ORDER_REPS {
        let mut tree = OccupancyOcTree::new(grid(ORDER_RESOLUTION), OccupancyParams::default());
        let t0 = Instant::now();
        for &k in &ordered {
            tree.update_node(k, true);
        }
        if rep > 0 {
            total += t0.elapsed();
            visits_per_voxel = tree.stats().snapshot().visits_per_update();
        }
    }
    let per_voxel = total.as_nanos() as f64 / ORDER_REPS as f64 / ordered.len().max(1) as f64;
    vec![
        ("voxels", Int(ordered.len() as u64)),
        ("ns/voxel", real(per_voxel, 0)),
        ("visits/voxel", real(visits_per_voxel, 1)),
        ("F(S)", Int(locality_f(&ordered, 16))),
    ]
}

/// Prints an aligned plain-text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &mut dyn Iterator<Item = &str>| {
        let cells: Vec<String> = cells
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", cells.join("  "));
    };
    line(&mut header.iter().copied());
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        line(&mut row.iter().map(String::as_str));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use octocache_datasets::{Dataset, DatasetConfig};

    #[test]
    fn backend_factory_builds_all() {
        let g = grid(0.5);
        let cache = cache_with(64, 4);
        for backend in STANDARD.into_iter().chain(RT) {
            assert_eq!(build(backend, g, cache).name(), backend);
        }
    }

    #[test]
    fn construct_runs_all_backends_consistently() {
        let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
        let at = |backend: &'static str| {
            let mut axes = vec![("res", Cell::Num(0.4)), ("backend", Text(backend))];
            axes.extend([("w", Text("sized")), ("tau", Int(4))]);
            axes.extend([("readers", Int(0)), ("probes", Int(0))]);
            construct(&seq, &axes)
        };
        let (baseline, serial) = (at("octomap"), at("octocache-serial"));
        let int = |row: &Row, name| cell(row, name).num() as u64;
        assert!(int(&baseline, "obs") > 0);
        assert_eq!(int(&baseline, "hits"), 0);
        assert_eq!(int(&baseline, "to-octree"), int(&baseline, "obs"));
        assert_eq!(int(&serial, "obs"), int(&baseline, "obs"));
        assert!(int(&serial, "hits") > 0);
        assert!(int(&serial, "to-octree") < int(&baseline, "to-octree"));
        assert_eq!(cell(&serial, "checksum"), cell(&baseline, "checksum"));
    }

    #[test]
    fn cache_sizing_follows_batch_size() {
        let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
        let small = cache_for(&seq, 0.8);
        let large = cache_for(&seq, 0.1);
        assert!(large.capacity_after_eviction() >= small.capacity_after_eviction());
    }
}
