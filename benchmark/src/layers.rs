//! Microbenches: the unit cost of each layer's public operations, timed from
//! outside on a fixture cut from the workload's own scans, next to the
//! floors of the machine they run on.
//!
//! Every figure is one timed loop, not a distribution: per-layer metrics
//! carry no bound and are read to see which layer an optimisation moved.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use octocache::durable::{self, DurableMap};
use octocache::pipeline::RayTracer;
use octocache::{
    spsc, CacheConfig, EvictedCell, MapSnapshot, MappingSystem, OctantRouter, SerialOctoCache,
    SharedRecorder, VoxelCache,
};
use octocache_datasets::{stats as dataset_stats, Scan, ScanSequence};
use octocache_geom::{morton, VoxelGrid, VoxelKey};
use octocache_octomap::insert::{self, VoxelBatch};
use octocache_octomap::{rt, OccupancyOcTree, OccupancyParams};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::metrics::Values;
use crate::spans::Recorder;
use crate::stats::{mean, median, quantile, ratio};
use crate::workloads::{run_pass, Backend, Inputs, Pass, PlanLog, Spec, READER_PERIOD};

/// Runs `f` and returns its result with the time it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let result = f();
    (result, t0.elapsed())
}

fn ns_per(time: Duration, count: usize) -> f64 {
    ratio(time.as_nanos() as f64, count as f64)
}

fn ms(time: Duration) -> f64 {
    time.as_secs_f64() * 1e3
}

/// The first `1/share` of a workload's scans (at least two).
fn leading(inputs: &Inputs, share: usize) -> &[Scan] {
    let n = (inputs.scans.len() / share).max(2).min(inputs.scans.len());
    &inputs.scans[..n]
}

/// The state of a serial OctoCache half-way through the workload, just
/// before it applies the evictions of a scan: the operands of every octree
/// and cache microbench.
#[derive(Debug)]
pub struct Fixture {
    grid: VoxelGrid,
    params: OccupancyParams,
    config: CacheConfig,
    max_range: f64,
    scans: Vec<Scan>,
    /// The octree after all but the last scan's evictions.
    tree: OccupancyOcTree,
    /// The last scan's observations, in ray order, and what inserting them
    /// into the cache (seeding from `tree`) took.
    batch: VoxelBatch,
    insert_time: Duration,
    /// Its distinct voxels in first-seen order: the order misses arrive in.
    keys: Vec<VoxelKey>,
    dedup_time: Duration,
    /// Cells in eviction (Morton bucket) order: what the cache evicted after
    /// the last scan, or — where that is next to nothing, as on
    /// `mission_cycle` — everything it still held.
    cells: Vec<EvictedCell>,
    /// Time and cells of that eviction plus the drain of the rest.
    evict_time: Duration,
    evicted: usize,
}

impl Fixture {
    pub fn build(spec: &Spec, inputs: &Inputs) -> Fixture {
        let params = OccupancyParams::default();
        let config = spec.cache_config();
        let scans = leading(inputs, 2).to_vec();
        let mut cache = VoxelCache::new(config, params);
        let mut tree =
            OccupancyOcTree::with_layout(inputs.grid, params, config.resolved_tree_layout());
        let mut batch = VoxelBatch::new();
        let mut cells: Vec<EvictedCell> = Vec::new();
        let mut insert_time = Duration::ZERO;
        let mut evict_time = Duration::ZERO;
        for scan in &scans {
            for cell in &cells {
                tree.set_node_log_odds(cell.key, cell.log_odds);
            }
            insert::compute_update(
                &inputs.grid,
                scan.origin,
                &scan.points,
                inputs.max_range,
                &mut batch,
            )
            .expect("fixture scan within the grid");
            insert_time = timed(|| {
                for u in batch.iter() {
                    cache.insert(u.key, u.occupied, |k| tree.search(k));
                }
            })
            .1;
            cells.clear();
            evict_time = timed(|| cache.evict_into(&mut cells)).1;
        }
        let (drained, drain_time) = timed(|| cache.drain_all());
        let evicted = cells.len() + drained.len();
        if cells.len() < 1000 {
            cells = drained;
        }
        let (deduped, dedup_time) = timed(|| rt::dedup_batch(&batch));
        Fixture {
            grid: inputs.grid,
            params,
            config,
            max_range: inputs.max_range,
            scans,
            tree,
            keys: deduped.iter().map(|u| u.key).collect(),
            batch,
            insert_time,
            dedup_time,
            cells,
            evict_time: evict_time + drain_time,
            evicted,
        }
    }

    /// Copies the octree and applies `cells` to the copy; the time of each.
    fn apply(&self, cells: &[EvictedCell]) -> (Duration, Duration) {
        let (mut tree, clone_time) = timed(|| self.tree.deep_clone());
        let ((), apply_time) = timed(|| {
            for cell in cells {
                tree.set_node_log_odds(cell.key, cell.log_odds);
            }
        });
        (clone_time, apply_time)
    }

    /// `geom.morton_encode_ns` and the `octomap.*` unit costs.
    pub fn octomap(&self, values: &mut Values) {
        let ((), encode) = timed(|| {
            for &key in &self.keys {
                black_box(morton::encode(black_box(key)));
            }
        });
        values.set("geom.morton_encode_ns", ns_per(encode, self.keys.len()));

        let (clone_a, ordered) = self.apply(&self.cells);
        let mut shuffled = self.cells.clone();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.random_range(0..i + 1));
        }
        let (clone_b, random) = self.apply(&shuffled);
        values.set("octomap.set_ns_per_cell", ns_per(ordered, self.cells.len()));
        values.set(
            "octomap.set_ns_per_cell_shuffled",
            ns_per(random, shuffled.len()),
        );
        values.set("octomap.deep_clone_ms", ms(clone_a.min(clone_b)));

        let ((), search) = timed(|| {
            for &key in &self.keys {
                black_box(self.tree.search(black_box(key)));
            }
        });
        values.set("octomap.search_ns", ns_per(search, self.keys.len()));
        values.set(
            "octomap.dedup_ns_per_obs",
            ns_per(self.dedup_time, self.batch.len()),
        );

        let mut tree = self.tree.deep_clone();
        let ((), update) = timed(|| insert::apply_batch(&mut tree, &self.batch));
        values.set(
            "octomap.update_ns_per_obs",
            ns_per(update, self.batch.len()),
        );
        values.set("octomap.prune_ms", ms(timed(|| tree.prune()).1));
    }

    /// `cache.insert_ns_per_obs` (seeding included), `cache.hit_ns`,
    /// `cache.miss_ns`, `cache.get_ns`, `cache.evict_ns_per_cell`.
    pub fn cache(&self, values: &mut Values) {
        values.set(
            "cache.insert_ns_per_obs",
            ns_per(self.insert_time, self.batch.len()),
        );
        let mut cache = VoxelCache::new(self.config, self.params);
        // Absent keys with nothing to seed from: the miss path alone,
        // apart from `octomap.search_ns`.
        let ((), miss) = timed(|| {
            for &key in &self.keys {
                black_box(cache.insert(key, false, |_| None));
            }
        });
        let ((), hit) = timed(|| {
            for &key in &self.keys {
                black_box(cache.insert(key, true, |_| None));
            }
        });
        let ((), get) = timed(|| {
            for &key in &self.keys {
                black_box(cache.get(black_box(key)));
            }
        });
        values.set("cache.miss_ns", ns_per(miss, self.keys.len()));
        values.set("cache.hit_ns", ns_per(hit, self.keys.len()));
        values.set("cache.get_ns", ns_per(get, self.keys.len()));
        values.set(
            "cache.evict_ns_per_cell",
            ns_per(self.evict_time, self.evicted),
        );
    }

    /// `spsc.ns_per_item` (a one-way stream between two threads) and
    /// `routing.ns_per_key` (the one-worker router `campus_parallel` uses).
    pub fn parallel(&self, values: &mut Values) {
        const ITEMS: u64 = 200_000;
        // The fastest of three streams: the first thread a long-running
        // process spawns shares its core for most of a second (measured:
        // 3.9 us per item, then 10 ns), which is the scheduler, not the ring.
        let stream = (0..3)
            .map(|_| {
                let (mut tx, mut rx) = spsc::channel::<u64>(1024);
                let ((), stream) = timed(|| {
                    std::thread::scope(|scope| {
                        scope.spawn(move || {
                            for i in 0..ITEMS {
                                tx.push_blocking(i);
                            }
                        });
                        let mut received = 0;
                        while received < ITEMS {
                            match rx.try_pop() {
                                Some(item) => {
                                    black_box(item);
                                    received += 1;
                                }
                                None => std::hint::spin_loop(),
                            }
                        }
                    });
                });
                stream
            })
            .min()
            .expect("three streams");
        values.set("spsc.ns_per_item", ns_per(stream, ITEMS as usize));

        let router = OctantRouter::new(1, &self.grid);
        let ((), route) = timed(|| {
            for u in self.batch.iter() {
                black_box(router.shard_of(black_box(u.key)));
            }
        });
        values.set("routing.ns_per_key", ns_per(route, self.batch.len()));
    }

    /// Snapshot reads: `query.point_ns`, `query.batch_ns_per_key`,
    /// `query.batch_prefix_reuse`, `query.ray_us`.
    pub fn query(&self, values: &mut Values) {
        let snapshot = MapSnapshot::from_tree(self.tree.deep_clone());
        let ((), point) = timed(|| {
            for &key in &self.keys {
                black_box(snapshot.occupancy(black_box(key)));
            }
        });
        values.set("query.point_ns", ns_per(point, self.keys.len()));
        let ((_, reuse), batch) = timed(|| snapshot.batch_occupancy(&self.keys));
        values.set("query.batch_ns_per_key", ns_per(batch, self.keys.len()));
        values.set("query.batch_prefix_reuse", reuse.reuse_fraction());

        let scan = self.scans.last().expect("prefix is never empty");
        let rays: Vec<_> = scan.points.iter().take(512).collect();
        let ((), cast) = timed(|| {
            for &&point in &rays {
                black_box(
                    snapshot
                        .cast_ray(scan.origin, point - scan.origin, self.max_range, true)
                        .ok(),
                );
            }
        });
        values.set("query.ray_us", ns_per(cast, rays.len()) / 1e3);
    }

    /// The `durable.*` costs, in `dir` (removed afterwards), under the
    /// default flush policy (`CacheConfig::journal_fsync`'s default).
    pub fn durable(&self, dir: &Path, values: &mut Values) -> Result<(), String> {
        let err = |e: &dyn std::fmt::Display| format!("durable probe in {}: {e}", dir.display());
        let inner = SerialOctoCache::new(self.grid, self.params, self.config);
        let mut map =
            DurableMap::create(dir, inner, self.params, RayTracer::Standard, &self.config)
                .map_err(|e| err(&e))?;
        let recorder = SharedRecorder::new();
        map.set_recorder(Box::new(recorder.clone()));
        for scan in &self.scans {
            map.insert_scan(scan.origin, &scan.points, self.max_range)
                .map_err(|e| err(&e))?;
        }
        map.seal().map_err(|e| err(&e))?;
        let stats = map.stats();
        let appends: Vec<f64> = recorder
            .records()
            .iter()
            .map(|r| r.journal_append_ns as f64 / 1e3)
            .collect();
        let checkpoint_bytes: u64 = std::fs::read_dir(durable::checkpoint_dir(dir))
            .map_err(|e| err(&e))?
            .filter_map(|entry| entry.ok()?.metadata().ok())
            .map(|meta| meta.len())
            .sum();
        let (recovered, recover) = timed(|| durable::recover(dir));
        let (tree, _) = recovered.map_err(|e| err(&e))?;
        let expected = Box::new(map).take_tree().leaf_checksum();
        std::fs::remove_dir_all(dir).map_err(|e| err(&e))?;
        if tree.leaf_checksum() != expected {
            return Err(err(&"recovered map differs from the live one"));
        }
        values.set("durable.journal_append_us_p50", median(&appends));
        values.set(
            "durable.journal_bytes_per_scan",
            ratio(stats.journal_bytes as f64, stats.journal_records as f64),
        );
        values.set(
            "durable.checkpoint_mb_per_s",
            ratio(
                checkpoint_bytes as f64 / 1e6,
                stats.checkpoint_write_ns as f64 * 1e-9,
            ),
        );
        values.set("durable.recover_ms", ms(recover));
        Ok(())
    }

    /// `datasets.dup_factor` and `datasets.overlap` of the fixture's scans:
    /// the proof that the traffic is what the workload table says.
    pub fn datasets(&self, values: &mut Values) {
        let scans: Vec<Scan> = self.scans.iter().take(8).cloned().collect();
        let (mut total, mut distinct) = (0, 0);
        for scan in &scans {
            let stats = dataset_stats::batch_stats(scan, &self.grid, self.max_range)
                .expect("fixture scan within the grid");
            total += stats.total_updates;
            distinct += stats.distinct_voxels;
        }
        values.set("datasets.dup_factor", ratio(total as f64, distinct as f64));
        let seq = ScanSequence::from_parts("fixture", scans, self.max_range);
        // The paper's window of 3 scans (Figure 8), or what the fixture has.
        let window = seq.scans().len().saturating_sub(1).clamp(1, 3);
        let overlaps = dataset_stats::overlap_ratios(&seq, &self.grid, window)
            .expect("fixture scan within the grid");
        values.set("datasets.overlap", mean(&overlaps));
    }
}

/// The `query.*` metrics of a pass that ran with snapshot publishing armed
/// and the paced reader beside it.
pub fn reader_metrics(pass: &Pass, values: &mut Values) {
    let r = &pass.records;
    let publish: Vec<f64> = r
        .iter()
        .map(|r| r.snapshot_publish_ns as f64 / 1e6)
        .collect();
    values.set("query.publish_ms_p50", median(&publish));
    values.set(
        "query.publish_ms_per_mnode",
        ratio(mean(&publish), pass.nodes as f64 / 1e6),
    );
    values.set("query.publish_share", pass.publish_share());
    let age: Vec<f64> = r.iter().map(|r| r.snapshot_age_ns as f64 / 1e6).collect();
    values.set("query.snapshot_age_ms_p50", median(&age));
    let latency: Vec<f64> = pass
        .reader
        .iter()
        .map(|b| b.latency.as_secs_f64() * 1e6)
        .collect();
    values.set("query.reader_batch_us_p50", median(&latency));
    values.set("query.reader_batch_us_p99", quantile(&latency, 0.99));
    let late = pass
        .reader
        .iter()
        .filter(|b| b.latency > READER_PERIOD)
        .count();
    values.set("query.reader_late_frac", late as f64 / latency.len() as f64);
}

/// The `sim.*` metrics of a pass that planned after every scan.
pub fn planner_metrics(plan: &PlanLog, values: &mut Values) {
    values.set("sim.plan_us_p50", median(&plan.plan_us));
    values.set("sim.astar_ms_p50", median(&plan.astar_ms));
    values.set(
        "sim.queries_per_cycle",
        plan.queries as f64 / plan.plan_us.len() as f64,
    );
    values.set(
        "sim.plan_queries_per_s",
        ratio(plan.queries as f64, plan.time.as_secs_f64()),
    );
}

/// What readers and planners would cost on a workload that has none: the
/// first third of its scans through a serial OctoCache with publishing armed,
/// the paced reader running and the planners heading for the last scan's
/// origin. Fills in `query.*` and `sim.*` unless the workload's own traced
/// pass measured them.
pub fn probe(spec: &Spec, inputs: &Inputs, values: &mut Values) {
    let probe = Spec {
        backend: Backend::Serial,
        readers: true,
        ..*spec
    };
    let mut head = inputs.head(leading(inputs, 3).len());
    let last = head.scans.last().expect("at least two scans").origin;
    head.goal.get_or_insert(last);
    // The second of two passes: a reader thread spawned right after other
    // threads ended is starved for 70–700 ms before the scheduler moves it
    // (measured: p99 62 ms on the first pass after a parallel one, 2 ms on
    // the next).
    let pass_once = || {
        let backend = probe.backend(head.grid);
        run_pass(&probe, &head, backend, true, &mut Recorder::new(false)).0
    };
    pass_once();
    let pass = pass_once();
    if !spec.readers {
        reader_metrics(&pass, values);
    }
    if inputs.goal.is_none() {
        planner_metrics(&pass.plan, values);
    }
}

/// What leaving the supervisor, a recorder or event recording switched on
/// costs: the first third of the scans through a serial OctoCache with and
/// without each, alternating for `ROUNDS` rounds, as the ratio of the fastest
/// pass with to the fastest pass without, minus 1. (Interference only ever
/// slows a pass down, so the fastest of a few is the steadiest estimate of
/// what the code itself costs.)
pub fn overheads(spec: &Spec, inputs: &Inputs, values: &mut Values) {
    const ROUNDS: usize = 3;
    let spec = Spec {
        backend: Backend::Serial,
        readers: false,
        ..*spec
    };
    let inputs = inputs.head(leading(inputs, 3).len());
    let base = spec.cache_config();
    let builder = || {
        let mut builder = CacheConfig::builder();
        builder.num_buckets(base.num_buckets()).tau(base.tau());
        builder
    };
    // Armed but never tripping: a budget and a deadline far out of reach.
    let supervised = builder()
        .mem_budget(1 << 40)
        .shed_deadline(Duration::from_secs(3600))
        .build()
        .expect("valid probe config");
    let with_events = builder().events(true).build().expect("valid probe config");

    let pass = |config: CacheConfig, record: bool| {
        run_pass(
            &spec,
            &inputs,
            spec.backend_with(inputs.grid, config),
            record,
            &mut Recorder::new(false),
        )
        .0
    };
    // plain, supervised, recorded, with events
    let mut fastest = [f64::INFINITY; 4];
    let (mut recorded, mut dropped) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let traced = pass(with_events, false);
        recorded += traced.events.0;
        dropped += traced.events.1;
        let walls = [
            pass(base, false).wall,
            pass(supervised, false).wall,
            pass(base, true).wall,
            traced.wall,
        ];
        for (best, wall) in fastest.iter_mut().zip(walls) {
            *best = best.min(wall.as_secs_f64());
        }
    }
    let [plain, supervisor, recorder, events] = fastest;
    values.set("supervisor.idle_overhead_frac", supervisor / plain - 1.0);
    values.set("telemetry.recorder_overhead_frac", recorder / plain - 1.0);
    values.set("telemetry.events_overhead_frac", events / plain - 1.0);
    values.set(
        "telemetry.events_dropped_frac",
        ratio(dropped as f64, (recorded + dropped) as f64),
    );
}

/// The machine's floors: `floor.memcpy_gb_per_s`, and the cost of a
/// dependent (`floor.random_read_ns`) and a sequential (`floor.seq_read_ns`)
/// 4-byte load over an array of `bytes` bytes — the size of the workload's
/// finished map.
pub fn floors(bytes: usize, values: &mut Values) {
    const COPY: usize = 64 << 20;
    let src = vec![1u8; COPY];
    let mut dst = vec![0u8; COPY];
    dst.copy_from_slice(&src); // touch every page before timing
    let ((), copy) = timed(|| {
        for _ in 0..4 {
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
        }
    });
    values.set(
        "floor.memcpy_gb_per_s",
        (4 * COPY) as f64 / 1e9 / copy.as_secs_f64(),
    );

    // One cycle through every slot (Sattolo's shuffle), so each load's
    // address depends on the previous load's value.
    let slots = (bytes / 4).max(1 << 18);
    let mut next: Vec<u32> = (0..slots as u32).collect();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for i in (1..slots).rev() {
        next.swap(i, rng.random_range(0..i));
    }
    const STEPS: usize = 2_000_000;
    let (_, chase) = timed(|| {
        let mut at = 0u32;
        for _ in 0..STEPS {
            at = next[at as usize];
        }
        black_box(at)
    });
    values.set("floor.random_read_ns", ns_per(chase, STEPS));
    let (_, scan) = timed(|| black_box(next.iter().fold(0u32, |sum, &v| sum.wrapping_add(v))));
    values.set("floor.seq_read_ns", ns_per(scan, slots));
}
