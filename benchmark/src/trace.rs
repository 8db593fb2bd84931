//! The traced run of one workload: where a scan's time goes, layer by layer.
//!
//! The serial workloads are replayed outside-in: each scan is composed from
//! the layers' public functions — `insert::compute_update`, then
//! `VoxelCache::insert` per observation seeded by `OccupancyOcTree::search`,
//! `evict_into`, `set_node_log_odds` per evicted cell — with a span around
//! every call, and the composed map must equal the engine's. The engine-only
//! workloads (`campus_parallel`, `college_readers`) get a span around every
//! engine call, with the engine's own per-scan phase times as children.
//! End-to-end metrics are never taken from a traced run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use octocache::{CacheStats, OccupancyView, ScanRecord, VoxelCache};
use octocache_geom::{GeomError, Point3};
use octocache_octomap::insert::{self, VoxelBatch};
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{OccupancyOcTree, OccupancyParams};

use crate::layers::{self, Fixture};
use crate::measure::{warm_up, Outcome};
use crate::metrics::{Values, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::{median, median_or_zero, ratio};
use crate::workloads::{
    run_pass, Backend, Inputs, Pass, PlanLog, Planners, Spec, READER_BATCH, READER_PERIOD,
};

/// Untimed engine passes a traced run compares itself with, at least.
const UNTRACED_PASSES: usize = 2;

/// The serial executor's read path, composed from public calls: the cache
/// first, the octree on a miss.
struct CacheThenTree<'a> {
    cache: &'a mut VoxelCache,
    tree: &'a OccupancyOcTree,
}

impl OccupancyView for CacheThenTree<'_> {
    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        let key = self.tree.grid().key_of(p)?;
        let log_odds = match self.cache.get(key) {
            Some(v) => Some(v),
            None => self.tree.search(key),
        };
        Ok(log_odds.map(|l| self.tree.params().is_occupied(l)))
    }
}

/// What one composed pass did.
#[derive(Debug)]
struct Replay {
    wall: Duration,
    checksum: u64,
    nodes: usize,
    map_bytes: usize,
    plan: PlanLog,
    cache: Option<CacheStats>,
    cache_peak_cells: usize,
    cache_bytes: usize,
    tree_stats: StatsSnapshot,
    observations: u64,
    rays: u64,
    /// Cells evicted by the scans, not by the final flush.
    evicted_in_scans: u64,
}

/// Composes `inputs` from the layers' public functions, as the serial
/// executor (or, for `Backend::Baseline`, plain OctoMap) does, with a span
/// around each call. With a disabled recorder this is the untraced twin.
fn replay(spec: &Spec, inputs: &Inputs, spans: &mut Recorder) -> Replay {
    let params = OccupancyParams::default();
    let config = spec.cache_config();
    let mut cache = (spec.backend != Backend::Baseline).then(|| VoxelCache::new(config, params));
    let mut tree = OccupancyOcTree::with_layout(inputs.grid, params, config.resolved_tree_layout());
    let mut batch = VoxelBatch::new();
    let mut evicted = Vec::new();
    let planners = Planners::new(inputs);
    let mut plan = PlanLog::default();
    let (mut observations, mut rays) = (0u64, 0u64);
    let traced = spans.enabled();

    let start = Instant::now();
    for (i, scan) in inputs.scans.iter().enumerate() {
        spans.set_scan(i as u64);
        spans.enter("scan");
        spans.enter("geom.trace");
        insert::compute_update(
            &inputs.grid,
            scan.origin,
            &scan.points,
            inputs.max_range,
            &mut batch,
        )
        .expect("scan within the grid");
        spans.exit(batch.len() as u64);
        observations += batch.len() as u64;
        rays += scan.points.len() as u64;

        match &mut cache {
            Some(cache) => {
                spans.enter("cache.insert");
                let (mut search, mut searches) = (Duration::ZERO, 0u64);
                for u in batch.iter() {
                    cache.insert(u.key, u.occupied, |k| {
                        if !traced {
                            return tree.search(k);
                        }
                        // Too short for a span each: timed per call and
                        // recorded as one child with the call count.
                        let t0 = Instant::now();
                        let seed = tree.search(k);
                        search += t0.elapsed();
                        searches += 1;
                        seed
                    });
                }
                let parent = spans.current();
                spans.add(parent, "octomap.search", Duration::ZERO, search, searches);
                spans.exit(batch.len() as u64);

                spans.enter("cache.evict");
                evicted.clear();
                cache.evict_into(&mut evicted);
                spans.exit(evicted.len() as u64);

                spans.enter("octomap.set");
                for cell in &evicted {
                    tree.set_node_log_odds(cell.key, cell.log_odds);
                }
                spans.exit(evicted.len() as u64);
            }
            None => {
                spans.enter("octomap.update");
                insert::apply_batch(&mut tree, &batch);
                spans.exit(batch.len() as u64);
            }
        }
        spans.exit(scan.points.len() as u64);

        if let (Some(p), Some(cache)) = (&planners, &mut cache) {
            let before = plan.queries;
            spans.enter("sim.plan");
            let mut view = CacheThenTree { cache, tree: &tree };
            p.plan(&mut view, i, scan.origin, &mut plan);
            spans.exit(plan.queries - before);
        }
    }
    let evicted_in_scans = cache.as_ref().map_or(0, |c| c.stats().evictions);
    spans.set_scan(inputs.scans.len() as u64);
    spans.enter("flush");
    if let Some(cache) = &mut cache {
        spans.enter("cache.evict");
        let drained = cache.drain_all();
        spans.exit(drained.len() as u64);
        spans.enter("octomap.set");
        for cell in &drained {
            tree.set_node_log_odds(cell.key, cell.log_odds);
        }
        spans.exit(drained.len() as u64);
    }
    spans.exit(0);
    let wall = start.elapsed();

    Replay {
        wall,
        checksum: tree.leaf_checksum(),
        nodes: tree.num_nodes(),
        map_bytes: tree.memory_usage(),
        plan,
        cache: cache.as_ref().map(|c| *c.stats()),
        cache_peak_cells: cache.as_ref().map_or(0, VoxelCache::peak_len),
        cache_bytes: cache.as_ref().map_or(0, VoxelCache::memory_usage),
        tree_stats: tree.stats().snapshot(),
        observations,
        rays,
        evicted_in_scans,
    }
}

/// The checksum of the map the replay builds (for the tests).
#[cfg(test)]
pub fn replay_checksum(spec: &Spec, inputs: &Inputs, spans: &mut Recorder) -> u64 {
    replay(spec, inputs, spans).checksum
}

/// Adds the engine's own account of each scan under the `scan` spans of an
/// engine pass: the phases on the calling thread and the snapshot publish,
/// laid end to end; and one root span per reader batch.
fn attribute_engine_spans(spec: &Spec, pass: &Pass, spans: &mut Recorder) {
    let scan_spans: Vec<usize> = spans
        .spans()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "scan")
        .map(|(i, _)| i)
        .collect();
    for (&parent, record) in scan_spans.iter().zip(&pass.records) {
        let t = record.times;
        let octree = if spec.backend == Backend::Parallel {
            // The worker's octree time is off this thread; the producer
            // sees it as `wait`.
            Duration::ZERO
        } else {
            t.octree_update
        };
        let phases = [
            ("geom.trace", t.ray_tracing, record.observations),
            ("cache.insert", t.cache_insert, record.cache_insertions),
            ("cache.evict", t.cache_evict, record.cache_evictions),
            ("octomap.set", octree, record.cache_evictions),
            ("parallel.enqueue", t.enqueue, record.cache_evictions),
            ("parallel.wait", t.wait, 0),
            (
                "query.publish",
                Duration::from_nanos(record.snapshot_publish_ns),
                0,
            ),
        ];
        let mut offset = Duration::ZERO;
        for (name, duration, count) in phases {
            if duration > Duration::ZERO {
                spans.add(Some(parent), name, offset, duration, count);
                offset += duration;
            }
        }
    }
    let origin = spans.offset_of(pass.started);
    for (i, batch) in pass.reader.iter().enumerate() {
        spans.set_scan(batch.epoch_after);
        spans.add(
            None,
            "query.reader_batch",
            origin + READER_PERIOD * i as u32,
            batch.latency,
            READER_BATCH as u64,
        );
    }
}

/// Where this run may write: a directory of its own next to the executable,
/// which the build put inside the checkout.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no directory")?
        .join("octocache-benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Sums `f` over the records of a pass.
fn sum(records: &[ScanRecord], f: impl Fn(&ScanRecord) -> u64) -> f64 {
    records.iter().map(f).sum::<u64>() as f64
}

/// The median over scans of `time / count`, skipping scans that counted
/// nothing (see `Recorder::self_ns_per_count` for why not a ratio of sums).
fn per_scan_ns(
    records: &[ScanRecord],
    time: impl Fn(&ScanRecord) -> Duration,
    count: impl Fn(&ScanRecord) -> u64,
) -> f64 {
    let costs: Vec<f64> = records
        .iter()
        .filter(|r| count(r) > 0)
        .map(|r| time(r).as_nanos() as f64 / count(r) as f64)
        .collect();
    median_or_zero(&costs)
}

/// The per-layer metrics of an engine-only workload, from the engine's own
/// per-scan records of the traced pass.
fn engine_layers(
    spec: &Spec,
    inputs: &Inputs,
    pass: &Pass,
    tree: &OccupancyOcTree,
    values: &mut Values,
) {
    let wall = pass.wall.as_secs_f64();
    let r = &pass.records;
    let scans = r.len() as f64;
    let obs = sum(r, |r| r.observations);
    values.set(
        "geom.dda_ns_per_voxel",
        per_scan_ns(r, |r| r.times.ray_tracing, |r| r.observations),
    );
    values.set("geom.voxels_per_ray", ratio(obs, inputs.points() as f64));
    values.set("cache.hit_ratio", pass.hit_ratio());
    values.set(
        "cache.evicted_per_scan",
        sum(r, |r| r.cache_evictions) / scans,
    );
    let visits = sum(r, |r| r.octree_node_visits);
    values.set(
        "octomap.visits_per_update",
        ratio(visits, sum(r, |r| r.octree_leaf_updates)),
    );
    values.set(
        "octomap.ns_per_visit",
        per_scan_ns(r, |r| r.times.octree_update, |r| r.octree_node_visits),
    );
    values.set("octomap.nodes", pass.nodes as f64);
    values.set(
        "octomap.bytes_per_node",
        ratio(tree.memory_usage() as f64, pass.nodes as f64),
    );
    let on_thread = if spec.backend == Backend::Parallel {
        pass.phases.critical_path()
    } else {
        pass.phases.total()
    };
    values.set(
        "engine.unattributed_frac",
        1.0 - on_thread.as_secs_f64() / wall,
    );
    if spec.backend == Backend::Parallel {
        values.set("parallel.wait_frac", pass.phases.wait.as_secs_f64() / wall);
        let busy = sum(r, |r| r.worker_busy_ns.iter().sum());
        let idle = sum(r, |r| r.worker_idle_ns.iter().sum());
        values.set("parallel.worker_busy_frac", ratio(busy, busy + idle));
    }
    if spec.readers {
        layers::reader_metrics(pass, values);
    }
    // The engine does not expose its cache's size, and there is no
    // composition to hold the engine against.
    values.not_entered(&[
        "cache.peak_cells",
        "cache.mb",
        "engine.overhead_frac",
        "trace.replay_matches_engine",
    ]);
}

/// The per-layer metrics of a serial workload, from the spans of its
/// outside-in replay.
fn replay_layers(replayed: &Replay, spans: &Recorder, values: &mut Values) {
    let scans = spans.spans().iter().filter(|s| s.name == "scan").count() as f64;
    values.set(
        "geom.dda_ns_per_voxel",
        median_or_zero(&spans.self_ns_per_count("geom.trace")),
    );
    values.set(
        "geom.voxels_per_ray",
        ratio(replayed.observations as f64, replayed.rays as f64),
    );
    match replayed.cache {
        Some(cache) => {
            values.set("cache.hit_ratio", cache.hit_rate());
            values.set(
                "cache.evicted_per_scan",
                replayed.evicted_in_scans as f64 / scans,
            );
            values.set("cache.peak_cells", replayed.cache_peak_cells as f64);
            values.set("cache.mb", replayed.cache_bytes as f64 / 1e6);
        }
        None => values.not_entered(&[
            "cache.hit_ratio",
            "cache.evicted_per_scan",
            "cache.peak_cells",
            "cache.mb",
        ]),
    }
    let totals = spans.totals();
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.ns as f64);
    values.set(
        "octomap.visits_per_update",
        replayed.tree_stats.visits_per_update(),
    );
    values.set(
        "octomap.ns_per_visit",
        ratio(
            ns("octomap.set") + ns("octomap.update") + ns("octomap.search"),
            replayed.tree_stats.node_visits as f64,
        ),
    );
    values.set("octomap.nodes", replayed.nodes as f64);
    values.set(
        "octomap.bytes_per_node",
        ratio(replayed.map_bytes as f64, replayed.nodes as f64),
    );
    if !replayed.plan.plan_us.is_empty() {
        layers::planner_metrics(&replayed.plan, values);
    }
}

/// Runs `spec` traced and reports every per-layer metric; `scans` as for
/// `measure::end_to_end`.
pub fn traced(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    scans: Option<usize>,
) -> Result<Outcome, String> {
    let mut values = Values::new(&PER_LAYER);
    let full_size = scans.is_none();
    let (inputs, gen) = layers::timed(|| spec.inputs(seed, scans));
    values.set("datasets.gen_s", gen.as_secs_f64());
    let engine_only = spec.readers || spec.backend == Backend::Parallel;
    let same_result = |what: &str, checksum: u64, plan: &PlanLog, warm: &Pass| {
        if checksum == warm.checksum
            && plan.queries == warm.plan.queries
            && plan.waypoints.0 == warm.plan.waypoints.0
        {
            Ok(())
        } else {
            Err(format!(
                "{}: {what} built map {checksum:016x} with {} planner queries, the engine {:016x} with {}",
                spec.name, plan.queries, warm.checksum, warm.plan.queries
            ))
        }
    };

    // Untraced passes, engine and outside-in composition alternating: what
    // the traced pass is compared with.
    let warm = warm_up(spec, &inputs, full_size)?;
    let budget = Duration::from_secs_f64(seconds / 3.0);
    let started = Instant::now();
    let (mut engine_walls, mut composed_walls) = (Vec::new(), Vec::new());
    while engine_walls.len() < UNTRACED_PASSES || started.elapsed() < budget {
        engine_walls.push(spec.plain_pass(&inputs).wall.as_secs_f64());
        if !engine_only {
            let plain = replay(spec, &inputs, &mut Recorder::new(false));
            same_result("the untraced replay", plain.checksum, &plain.plan, &warm)?;
            composed_walls.push(plain.wall.as_secs_f64());
        }
    }
    let engine_wall = median(&engine_walls);

    let mut spans = Recorder::new(true);
    let map_bytes = if engine_only {
        let backend = spec.backend(inputs.grid);
        let (pass, tree) = run_pass(spec, &inputs, backend, true, &mut spans);
        same_result("the traced pass", pass.checksum, &pass.plan, &warm)?;
        attribute_engine_spans(spec, &pass, &mut spans);
        engine_layers(spec, &inputs, &pass, &tree, &mut values);
        values.set(
            "trace.overhead_frac",
            pass.wall.as_secs_f64() / engine_wall - 1.0,
        );
        if spec.backend == Backend::Parallel {
            // Base: the serial engine on the same scans, one warm pass.
            let serial = Spec {
                backend: Backend::Serial,
                ..*spec
            };
            let serial_wall = serial.plain_pass(&inputs).wall.as_secs_f64();
            values.set("parallel.vs_serial", serial_wall / engine_wall);
        }
        tree.memory_usage()
    } else {
        let replayed = replay(spec, &inputs, &mut spans);
        same_result(
            "the traced replay",
            replayed.checksum,
            &replayed.plan,
            &warm,
        )?;
        values.set("trace.replay_matches_engine", 1.0);
        let composed_wall = median(&composed_walls);
        values.set(
            "trace.overhead_frac",
            replayed.wall.as_secs_f64() / composed_wall - 1.0,
        );
        values.set(
            "engine.overhead_frac",
            (engine_wall - composed_wall) / engine_wall,
        );
        values.set(
            "engine.unattributed_frac",
            1.0 - warm.phases.total().as_secs_f64() / warm.wall.as_secs_f64(),
        );
        replay_layers(&replayed, &spans, &mut values);
        replayed.map_bytes
    };
    if spec.backend != Backend::Parallel {
        values.not_entered(&[
            "parallel.wait_frac",
            "parallel.worker_busy_frac",
            "parallel.vs_serial",
        ]);
    }
    let coverage = spans.min_coverage("scan");
    if !engine_only && coverage < 0.95 {
        return Err(format!(
            "{}: child spans cover only {coverage:.3} of some scan span",
            spec.name
        ));
    }
    values.set("trace.span_coverage_min", coverage);
    values.set("trace.spans", spans.spans().len() as f64);

    // The layers' unit costs on a fixture cut from this workload's scans.
    let fixture = Fixture::build(spec, &inputs);
    fixture.octomap(&mut values);
    fixture.cache(&mut values);
    fixture.parallel(&mut values);
    fixture.query(&mut values);
    fixture.datasets(&mut values);
    let dir = scratch_dir()?;
    let durable_dir = dir.join(format!("durable-{}-{}", spec.name, std::process::id()));
    fixture.durable(&durable_dir, &mut values)?;
    drop(fixture);
    layers::probe(spec, &inputs, &mut values);
    layers::overheads(spec, &inputs, &mut values);
    layers::floors(map_bytes, &mut values);

    let path = dir.join(format!("spans-{}.json", spec.name));
    let header = format!(
        "\"workload\":\"{}\",\"seed\":{seed},\"params\":\"{}\"",
        spec.name,
        spec.describe()
    );
    spans
        .write_json(&path, &header)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "{}: {} spans written to {}",
        spec.name,
        spans.spans().len(),
        path.display()
    );
    Ok(Outcome {
        attempted: warm.attempted,
        failed: warm.failed,
        metrics: values.finish(),
    })
}
