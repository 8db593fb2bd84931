//! Event tracing must be *observationally invisible*: a backend built with
//! sub-scan event recording on must produce a voxel-for-voxel identical map
//! to the same backend with recording off — on every backend.
//!
//! Three layers of evidence:
//!
//! 1. A scenario differential (seeded synthetic scans, tolerance 0.0)
//!    across octomap / serial / parallel, which also checks the recorded
//!    stream is non-empty and structurally sane (spans pair up per lane,
//!    every cache event is on the sampling lattice). The cache holds no
//!    recorder at all, so there is no traced cache to hold against an
//!    untraced one.
//! 2. The sampled stream checks itself: on every dataset, serial and
//!    parallel, a keys-only shadow at the live cache's size replays the
//!    recorded accesses into exactly the recorded cache stream.
//! 3. Voxels off the lattice record nothing.

use octocache::engine::{record_accesses, record_evictions};
use octocache::pipeline::{MappingSystem, OctoMapSystem};
use octocache::{CacheConfig, ParallelOctoCache, SerialOctoCache, VoxelCache};
use octocache_datasets::{Dataset, DatasetConfig};
use octocache_geom::{Point3, VoxelGrid, VoxelKey};
use octocache_octomap::insert::VoxelUpdate;
use octocache_octomap::{compare, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{is_sampled, EventAnalytics, EventKind, EventLog, EventSink, Shadow};
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
/// only appear on the producer lane, for voxels on the lattice.
fn check_stream(label: &str, log: &EventLog) {
    assert!(!log.events.is_empty(), "{label}: recorded stream is empty");
    assert_eq!(log.dropped, 0, "{label}: events dropped");
    let mut lanes: std::collections::BTreeMap<u32, (u64, u64)> = std::collections::BTreeMap::new();
    for e in &log.events {
        let lane = lanes.entry(e.worker).or_default();
        match e.kind {
            EventKind::BatchBegin => lane.0 += 1,
            EventKind::BatchEnd => lane.1 += 1,
            EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheEvict => {
                assert_eq!(e.worker, 0, "{label}: cache event off the producer lane");
                assert!(is_sampled(e.key), "{label}: cache event off the lattice");
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

/// The cache events of a recorded stream: `(kind, Morton key, bucket)`.
type CacheStream = Vec<(EventKind, u64, u32)>;

/// The self-check of the sampled stream. On each dataset at a small scale,
/// serial and parallel record a run at a live `(w, τ)` with `w ≥ 64`; a
/// [`Shadow`] of that size, fed only the recorded accesses and their scan
/// stamps, must reproduce the recorded cache stream event for event: each
/// access's hit or miss, each scan's sampled evictions in Morton order and
/// the final drain. The run must evict, so the check has teeth, and the
/// analytics must span every scan. Prints each run's sampled against its
/// full hit ratio (not gated).
#[test]
fn a_shadow_at_the_live_size_replays_the_recorded_stream() {
    let params = OccupancyParams::default();
    for dataset in [
        Dataset::Fr079Corridor,
        Dataset::FreiburgCampus,
        Dataset::NewCollege,
    ] {
        let seq = dataset.generate(&DatasetConfig {
            scale: 0.05,
            seed: 0xC0FFEE,
        });
        let grid = VoxelGrid::new(0.2, 16).unwrap();
        for (label, buckets, tau) in [("serial", 1 << 10, 4), ("parallel", 1 << 8, 2)] {
            let config = CacheConfig::builder()
                .num_buckets(buckets)
                .tau(tau)
                .events(true)
                .build()
                .unwrap();
            let mut backend: Box<dyn MappingSystem> = if label == "serial" {
                Box::new(SerialOctoCache::new(grid, params, config))
            } else {
                Box::new(ParallelOctoCache::new(grid, params, config))
            };
            for scan in seq.scans() {
                backend
                    .insert_scan(scan.origin, &scan.points, seq.max_range())
                    .expect("scan within grid");
            }
            backend.finish();
            let full = backend.cache_stats().expect("a cached backend");
            let log = backend.take_events().expect("events enabled");
            let at = format!("{dataset} {label} w {buckets} τ {tau}");

            let recorded: CacheStream = (log.events.iter())
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::CacheHit | EventKind::CacheMiss | EventKind::CacheEvict
                    )
                })
                .map(|e| (e.kind, e.key, e.bucket))
                .collect();
            let mut shadow = Shadow::new(buckets, tau);
            let mut replayed = CacheStream::new();
            shadow.replay(&log.events, |kind, key, bucket| {
                replayed.push((kind, key, bucket))
            });
            shadow.drain(|kind, key, bucket| replayed.push((kind, key, bucket)));
            let first_apart = (recorded.iter().zip(&replayed)).position(|(r, s)| r != s);
            assert_eq!(
                (first_apart, replayed.len()),
                (None, recorded.len()),
                "{at}: the shadow's stream leaves the recorded one"
            );
            let counts = shadow.point().counts;
            assert!(counts.evictions > 0, "{at}: nothing was evicted");

            let analytics = EventAnalytics::from_events(&log.events);
            assert_eq!(analytics.scans, seq.scans().len() as u64, "{at}");
            assert_eq!(analytics.cache.accesses, counts.accesses, "{at}");
            println!(
                "sampled: {at}: hit ratio {:.4} on {} sampled accesses, {:.4} on all {}",
                analytics.cache.hit_ratio(),
                analytics.cache.accesses,
                full.hit_rate(),
                full.hits + full.misses,
            );
        }
    }
}

/// Only the voxels on the 4×4×4 lattice record cache events: a batch of
/// voxels off it records nothing, in or out of the cache, and in a mixed
/// batch only the lattice's voxels appear, once per observation.
#[test]
fn off_lattice_keys_record_nothing() {
    let mut cache = VoxelCache::new(cache(false), OccupancyParams::default());
    let mut events = EventSink::new().buffer(0);
    let cube: Vec<VoxelKey> = (0..8u16)
        .flat_map(|x| (0..8u16).flat_map(move |y| (0..8u16).map(move |z| VoxelKey::new(x, y, z))))
        .collect();
    let on = |k: &VoxelKey| (k.x | k.y | k.z) & 3 == 0;
    let observe = |keys: &[VoxelKey]| -> Vec<VoxelUpdate> {
        (keys.iter())
            .map(|&key| VoxelUpdate {
                key,
                occupied: true,
            })
            .collect()
    };
    let off = observe(&cube.iter().copied().filter(|k| !on(k)).collect::<Vec<_>>());
    assert_eq!(off.len(), 512 - 8);
    record_accesses(&mut events, &cache, &off);
    cache.insert_batch(&off, |_| None);
    let drained = cache.drain_all();
    record_evictions(&mut events, &cache, &drained);
    assert_eq!(drained.len(), off.len());
    assert!(events.take_log().events.is_empty());

    // The whole cube, twice: 8 lattice voxels miss, then hit, then drain.
    let both = observe(&[cube.clone(), cube].concat());
    record_accesses(&mut events, &cache, &both);
    cache.insert_batch(&both, |_| None);
    let drained = cache.drain_all();
    record_evictions(&mut events, &cache, &drained);
    let log = events.take_log().events;
    let count = |kind| log.iter().filter(|e| e.kind == kind).count();
    assert_eq!(
        (count(EventKind::CacheMiss), count(EventKind::CacheHit)),
        (8, 8)
    );
    assert_eq!((count(EventKind::CacheEvict), log.len()), (8, 24));
    assert!(log.iter().all(|e| is_sampled(e.key)));
}
