//! Event tracing must be *observationally invisible*: a backend built with
//! sub-scan event recording on must produce a voxel-for-voxel identical map
//! to the same backend with recording off — on every backend.
//!
//! Two layers of evidence:
//!
//! 1. A scenario differential (seeded synthetic scans, tolerance 0.0)
//!    across octomap / serial / parallel, which also checks the recorded
//!    stream is non-empty and structurally sane (spans pair up per lane).
//!    The cache holds no recorder at all, so there is no traced cache to
//!    hold against an untraced one.
//! 2. A stream cut short by a capacity cap is a prefix of the full stream,
//!    lane by lane, with every lost event counted: what analytics derive
//!    from it (a cell's insertion, its hits) is never missing a middle.

use std::sync::Arc;

use octocache::engine::{record_accesses, record_evictions};
use octocache::pipeline::{MappingSystem, OctoMapSystem};
use octocache::{CacheConfig, ParallelOctoCache, SerialOctoCache, VoxelCache};
use octocache_geom::{Point3, VoxelGrid};
use octocache_octomap::{compare, insert, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{Event, EventAnalytics, EventKind, EventLog, EventSink};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One deterministic scan: an origin and a point cloud.
struct Scan {
    origin: Point3,
    points: Vec<Point3>,
}

/// A deterministic random-walk scan sequence (every backend replays the
/// same scans). Rays fan out in all directions, into several top-level
/// octants.
fn scenario(seed: u64) -> Vec<Scan> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut origin = Point3::new(0.0, 0.0, 0.0);
    (0..8)
        .map(|_| {
            origin = Point3::new(
                (origin.x + rng.random_range(-2.0..2.0)).clamp(-15.0, 15.0),
                (origin.y + rng.random_range(-2.0..2.0)).clamp(-15.0, 15.0),
                (origin.z + rng.random_range(-0.5..0.5)).clamp(-3.0, 3.0),
            );
            let points = (0..100)
                .map(|_| {
                    let theta = rng.random_range(0.0..std::f64::consts::TAU);
                    let phi = rng.random_range(-0.5..0.5_f64);
                    let r = rng.random_range(3.0..14.0);
                    Point3::new(
                        origin.x + r * theta.cos() * phi.cos(),
                        origin.y + r * theta.sin() * phi.cos(),
                        origin.z + r * phi.sin(),
                    )
                })
                .collect();
            Scan { origin, points }
        })
        .collect()
}

fn grid() -> VoxelGrid {
    VoxelGrid::new(0.5, 8).unwrap()
}

/// A small cache so τ-eviction fires constantly — event traffic on every
/// path (hit, miss, evict, enqueue, dequeue, span).
fn cache(events: bool) -> CacheConfig {
    CacheConfig::builder()
        .num_buckets(1 << 7)
        .tau(2)
        .events(events)
        .build()
        .unwrap()
}

/// Every backend under test, built with event recording on or off.
fn backends(events: bool) -> Vec<(String, Box<dyn MappingSystem>)> {
    let params = OccupancyParams::default();
    let mut octomap = OctoMapSystem::new(grid(), params);
    if events {
        octomap.enable_events();
    }
    vec![
        ("octomap".to_string(), Box::new(octomap)),
        (
            "serial".to_string(),
            Box::new(SerialOctoCache::new(grid(), params, cache(events))),
        ),
        (
            "parallel".to_string(),
            Box::new(ParallelOctoCache::new(grid(), params, cache(events))),
        ),
    ]
}

/// Replays `scans`, flushes, and returns the tree plus any recorded events.
fn build(
    mut backend: Box<dyn MappingSystem>,
    scans: &[Scan],
) -> (OccupancyOcTree, Option<EventLog>) {
    for scan in scans {
        backend
            .insert_scan(scan.origin, &scan.points, 40.0)
            .expect("scan within grid");
    }
    backend.finish();
    let events = backend.take_events();
    (backend.take_tree(), events)
}

/// Per-lane structural sanity: begins and ends pair up, and cache events
/// only appear on the producer lane.
fn check_stream(label: &str, log: &EventLog) {
    assert!(!log.events.is_empty(), "{label}: recorded stream is empty");
    assert_eq!(log.dropped, 0, "{label}: events dropped at default caps");
    let mut lanes: std::collections::BTreeMap<u32, (u64, u64)> = std::collections::BTreeMap::new();
    for e in &log.events {
        let lane = lanes.entry(e.worker).or_default();
        match e.kind {
            EventKind::BatchBegin => lane.0 += 1,
            EventKind::BatchEnd => lane.1 += 1,
            EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheEvict => {
                assert_eq!(e.worker, 0, "{label}: cache event off the producer lane");
            }
            _ => {}
        }
    }
    for (lane, (begins, ends)) in &lanes {
        assert_eq!(
            begins, ends,
            "{label}: lane {lane} spans do not pair up ({begins} begins, {ends} ends)"
        );
    }
}

#[test]
fn event_recording_is_invisible_on_every_backend() {
    let scans = scenario(0xC0FFEE);
    let plain = backends(false);
    let recorded = backends(true);
    for ((label, pb), (_, rb)) in plain.into_iter().zip(recorded) {
        let (ptree, pevents) = build(pb, &scans);
        let (rtree, revents) = build(rb, &scans);
        assert!(
            pevents.is_none(),
            "{label}: events recorded with the switch off"
        );
        let log = revents.unwrap_or_else(|| panic!("{label}: no event log with the switch on"));
        check_stream(&label, &log);
        let d = compare::diff(&ptree, &rtree, 0.0);
        assert!(
            d.is_identical(),
            "{label}: event recording changed the map — {} value / {} \
             coverage mismatches of {} voxels (max |diff| {})",
            d.value_mismatches,
            d.coverage_mismatches,
            d.known_voxels,
            d.max_abs_diff
        );
    }
}

#[test]
fn parallel_event_stream_covers_every_worker_lane() {
    let scans = scenario(99);
    let backend: Box<dyn MappingSystem> = Box::new(ParallelOctoCache::new(
        grid(),
        OccupancyParams::default(),
        cache(true),
    ));
    let (_, events) = build(backend, &scans);
    let log = events.expect("events enabled");
    assert_eq!(log.dropped, 0);
    // One worker, so lane 1 is every worker lane.
    let lane = 1u32;
    let begins = log
        .events
        .iter()
        .filter(|e| e.worker == lane && e.kind == EventKind::BatchBegin)
        .count();
    let ends = log
        .events
        .iter()
        .filter(|e| e.worker == lane && e.kind == EventKind::BatchEnd)
        .count();
    assert!(begins >= 1, "lane {lane} recorded no batch spans");
    assert_eq!(begins, ends, "lane {lane} spans unpaired");
    // The producer attributes its enqueues to the target lane; a
    // worker that applied a non-empty batch must show queue traffic.
    let dequeues = log
        .events
        .iter()
        .filter(|e| e.worker == lane && e.kind == EventKind::QueueDequeue)
        .count();
    let applied: u64 = log
        .events
        .iter()
        .filter(|e| e.worker == lane && e.kind == EventKind::BatchEnd)
        .map(|e| e.value)
        .sum();
    if applied > 0 {
        assert!(dequeues >= 1, "lane {lane} applied cells without dequeues");
    }
    // Producer-side cache traffic is on lane 0.
    assert!(log
        .events
        .iter()
        .any(|e| e.worker == 0 && e.kind == EventKind::CacheMiss));
    assert!(log
        .events
        .iter()
        .any(|e| e.kind == EventKind::QueueEnqueue && e.worker >= 1));
}

/// A run recorded the way the executors record one, on `sink`: lane 0 the
/// cache's accesses and evictions, lane 1 a span per applied batch, the
/// lanes draining at each scan's end in alternating order. A lane-0 cap of
/// `lane0_cap` events per drain replaces the default.
fn record_run(sink: Arc<EventSink>, scans: &[Scan], lane0_cap: Option<usize>) -> EventLog {
    let mut cache = VoxelCache::new(cache(false), OccupancyParams::default());
    let mut cache_lane = sink.buffer(0);
    let mut worker_lane = cache_lane.lane(1);
    if let Some(cap) = lane0_cap {
        cache_lane.set_capacity(cap);
    }
    let mut batch = insert::VoxelBatch::new();
    let mut evicted = Vec::new();
    for (i, scan) in scans.iter().enumerate() {
        cache_lane.set_scan(i as u64);
        worker_lane.set_scan(i as u64);
        insert::compute_update(&grid(), scan.origin, &scan.points, 40.0, &mut batch).unwrap();
        record_accesses(&mut cache_lane, &cache, batch.updates());
        cache.insert_batch(batch.updates(), |_| None);
        evicted.clear();
        cache.evict_into(&mut evicted);
        record_evictions(&mut cache_lane, &cache, &evicted);
        worker_lane.emit_plain(EventKind::BatchBegin, 0);
        worker_lane.emit_plain(EventKind::BatchEnd, evicted.len() as u64);
        if i % 2 == 0 {
            cache_lane.drain();
            worker_lane.drain();
        } else {
            worker_lane.drain();
            cache_lane.drain();
        }
    }
    let drained = cache.drain_all();
    record_evictions(&mut cache_lane, &cache, &drained);
    worker_lane.drain();
    cache_lane.take_log()
}

/// One lane's events, without when they were emitted.
fn lane(log: &EventLog, worker: u32) -> Vec<(u64, EventKind, u64, u32, u64)> {
    let untimed = |e: &Event| (e.scan, e.kind, e.key, e.bucket, e.value);
    log.events
        .iter()
        .filter(|e| e.worker == worker)
        .map(untimed)
        .collect()
}

#[test]
fn a_capped_stream_is_a_counted_prefix_of_every_lane() {
    let scans = scenario(7);
    let full = record_run(EventSink::new(), &scans, None);
    assert_eq!(full.dropped, 0);
    let emitted = full.events.len();
    let first_scan = lane(&full, 0).iter().take_while(|e| e.0 == 0).count();
    // Sink caps cut both lanes; a lane-0 drain cap cuts the first scan
    // part-way while lane 1 records on.
    let runs = [
        (1, None),
        (emitted / 3, None),
        (emitted - 1, None),
        (emitted, Some(first_scan / 2)),
    ];
    for (cap, lane0_cap) in runs {
        let label = format!("sink cap {cap}, lane-0 cap {lane0_cap:?}");
        let cut = record_run(EventSink::with_capacity(cap), &scans, lane0_cap);
        assert!(cut.dropped > 0, "{label}: nothing was cut");
        assert_eq!(cut.dropped, (emitted - cut.events.len()) as u64, "{label}");
        for worker in [0, 1] {
            let (kept, all) = (lane(&cut, worker), lane(&full, worker));
            assert!(
                all.starts_with(&kept),
                "{label}: lane {worker} kept {} events that are not a prefix of its {}",
                kept.len(),
                all.len()
            );
        }
        let analytics = EventAnalytics::from_events(&cut.events);
        assert_eq!(analytics.orphan_evictions, 0, "{label}");
        if cap == emitted - 1 {
            assert!(analytics.evictions > 0, "{label}: no eviction survived");
        }
    }
}
