//! Shared harness code for the OctoCache benchmark binaries.
//!
//! Every table and figure of the paper's evaluation has a binary in
//! `src/bin/` (see DESIGN.md §3 for the index); this library holds what they
//! share: the backend factory, the 3D-construction runner, the UAV-mission
//! runner, cache sizing per the paper's §5.2 rule, and plain-text table
//! printing.
//!
//! Workload size is controlled by the `OCTO_SCALE` environment variable
//! (default 0.25; `OCTO_SCALE=0.05` gives a smoke-test run, `1.0` the
//! paper-shaped workload).

use std::time::{Duration, Instant};

use octocache::pipeline::{OctoMapSystem, RayTracer};
use octocache::{CacheConfig, MappingSystem, ParallelOctoCache, PhaseTimes, SerialOctoCache};
use octocache_datasets::{stats, Dataset, DatasetConfig, ScanSequence};
use octocache_geom::VoxelGrid;
use octocache_octomap::OccupancyParams;

/// The mapping backends compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Vanilla OctoMap.
    OctoMap,
    /// OctoMap with the RT (deduplicating) ray tracer.
    OctoMapRt,
    /// Serial OctoCache.
    Serial,
    /// Serial OctoCache-RT.
    SerialRt,
    /// Parallel (two-thread) OctoCache.
    Parallel,
    /// Parallel OctoCache-RT.
    ParallelRt,
}

impl Backend {
    /// The standard (non-RT) comparison set.
    pub const STANDARD: [Backend; 3] = [Backend::OctoMap, Backend::Serial, Backend::Parallel];
    /// The RT comparison set.
    pub const RT: [Backend; 3] = [Backend::OctoMapRt, Backend::SerialRt, Backend::ParallelRt];

    /// Short display name.
    pub fn label(&self) -> &'static str {
        match self {
            Backend::OctoMap => "octomap",
            Backend::OctoMapRt => "octomap-rt",
            Backend::Serial => "octocache-serial",
            Backend::SerialRt => "octocache-serial-rt",
            Backend::Parallel => "octocache-parallel",
            Backend::ParallelRt => "octocache-parallel-rt",
        }
    }

    /// Whether this backend uses the deduplicating ray tracer.
    pub fn is_rt(&self) -> bool {
        matches!(
            self,
            Backend::OctoMapRt | Backend::SerialRt | Backend::ParallelRt
        )
    }

    /// Builds the backend.
    pub fn build(&self, grid: VoxelGrid, cache: CacheConfig) -> Box<dyn MappingSystem> {
        let params = OccupancyParams::default();
        let rt = if self.is_rt() {
            RayTracer::Dedup
        } else {
            RayTracer::Standard
        };
        match self {
            Backend::OctoMap | Backend::OctoMapRt => {
                Box::new(OctoMapSystem::with_ray_tracer(grid, params, rt))
            }
            Backend::Serial | Backend::SerialRt => {
                Box::new(SerialOctoCache::with_ray_tracer(grid, params, cache, rt))
            }
            Backend::Parallel | Backend::ParallelRt => {
                Box::new(ParallelOctoCache::with_ray_tracer(grid, params, cache, rt))
            }
        }
    }
}

/// The workload scale from `OCTO_SCALE` (default 0.25).
pub fn workload_scale() -> f64 {
    std::env::var("OCTO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0 && *s <= 4.0)
        .unwrap_or(0.25)
}

/// The Jetson-TX2 emulation factor from `OCTO_TX2_FACTOR` (default 50):
/// measured compute latencies are multiplied by this inside the UAV
/// missions, emulating the paper's edge platform on a faster host.
pub fn tx2_factor() -> f64 {
    std::env::var("OCTO_TX2_FACTOR")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s >= 1.0 && *s <= 1000.0)
        .unwrap_or(50.0)
}

/// Dataset config at the ambient workload scale.
pub fn dataset_config() -> DatasetConfig {
    DatasetConfig {
        scale: workload_scale(),
        ..DatasetConfig::default()
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

/// Result of one full 3D-environment construction run.
#[derive(Debug, Clone)]
pub struct ConstructionResult {
    /// Backend label.
    pub backend: &'static str,
    /// Total wall-clock construction time (all scans + flush).
    pub total: Duration,
    /// Cumulative phase decomposition.
    pub phases: PhaseTimes,
    /// Total voxel observations fed to the backend.
    pub observations: usize,
    /// Observations absorbed as cache hits.
    pub cache_hits: u64,
    /// Voxels that reached the octree.
    pub octree_updates: usize,
}

impl ConstructionResult {
    /// Cache hit rate over all observations.
    pub fn hit_rate(&self) -> f64 {
        if self.observations == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.observations as f64
        }
    }
}

/// Feeds every scan of a sequence into a backend and flushes it, measuring
/// wall-clock time (the 3D-environment-construction workload of §5.2).
pub fn construct(seq: &ScanSequence, mut backend: Box<dyn MappingSystem>) -> ConstructionResult {
    let label = leak_label(backend.name());
    let t0 = Instant::now();
    let mut observations = 0usize;
    let mut cache_hits = 0u64;
    let mut octree_updates = 0usize;
    for scan in seq.scans() {
        let report = backend
            .insert_scan(scan.origin, &scan.points, seq.max_range())
            .expect("scan within grid");
        observations += report.observations;
        cache_hits += report.cache_hits;
        octree_updates += report.octree_updates;
    }
    backend.finish();
    let total = t0.elapsed();
    ConstructionResult {
        backend: label,
        total,
        phases: backend.phase_times(),
        observations,
        cache_hits,
        octree_updates,
    }
}

fn leak_label(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

/// Replays the shared seeded blob-walk scenario (the exact generator the
/// cross-backend differential and golden-checksum suites use, from
/// [`octocache_datasets::scenario`]) through `backend` and returns the
/// resulting leaf checksum. Bench bins run this once before a sweep: a
/// broken build fails fast instead of producing a table of garbage
/// numbers, and the bench and test workload distributions stay in sync by
/// construction.
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

/// Formats a `Duration` as seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Prints an aligned plain-text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    println!("{}", fmt_row(&head));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Generates a dataset at the ambient scale, printing a provenance line.
pub fn load_dataset(dataset: Dataset) -> ScanSequence {
    let cfg = dataset_config();
    let seq = dataset.generate(&cfg);
    println!(
        "# dataset {} scale={} scans={} points={}",
        dataset.name(),
        cfg.scale,
        seq.scans().len(),
        seq.total_points()
    );
    seq
}

/// The per-dataset reference resolution used by the decomposition
/// experiments (Fig 22 / Table 3): fine enough that the octree dominates.
pub fn reference_resolution(dataset: Dataset) -> f64 {
    match dataset {
        Dataset::Fr079Corridor => 0.1,
        Dataset::FreiburgCampus => 0.2,
        Dataset::NewCollege => 0.1,
    }
}

/// Runs one closed-loop UAV mission with the given backend and
/// <sensing range, resolution> setting, at a sensor density scaled by
/// `OCTO_SCALE`.
pub fn uav_mission(
    env: octocache_sim::Environment,
    uav: octocache_sim::UavModel,
    backend: Backend,
    params: octocache_sim::BaselineParams,
) -> octocache_sim::MissionReport {
    let scale = workload_scale();
    let g = grid(params.resolution);
    // The paper's UAV cache: 512 Ki buckets × τ 4 (≈ 14 MB); scaled down
    // with the workload.
    let buckets = ((512.0 * 1024.0 * scale) as usize).max(1 << 10);
    let cache = cache_with(buckets, 4);
    // Dense sensor: the paper's mapping stage dominates the cycle (up to
    // 72 % of end-to-end runtime), which requires MAVBench-like point-cloud
    // sizes relative to the host speed.
    let density = scale.sqrt().max(0.3);
    let config = octocache_sim::MissionConfig {
        sensing_range: Some(params.sensing_range),
        sensor_cols: ((192.0 * density) as u32).max(24),
        sensor_rows: ((144.0 * density) as u32).max(18),
        control_time_s: 0.0005,
        compute_scale: tx2_factor(),
        ..octocache_sim::MissionConfig::default()
    };
    octocache_sim::Mission::new(env, uav, config)
        .run(backend.build(g, cache))
        .expect("mission stays within the mapped cube")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_factory_builds_all() {
        let g = grid(0.5);
        let cache = cache_with(64, 4);
        for b in Backend::STANDARD.into_iter().chain(Backend::RT) {
            let sys = b.build(g, cache);
            assert_eq!(sys.name(), b.label());
        }
    }

    #[test]
    fn construct_runs_all_backends_consistently() {
        std::env::set_var("OCTO_SCALE", "0.05");
        let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
        let g = grid(0.4);
        let cache = cache_for(&seq, 0.4);
        let baseline = construct(&seq, Backend::OctoMap.build(g, cache));
        assert!(baseline.observations > 0);
        assert_eq!(baseline.cache_hits, 0);
        let serial = construct(&seq, Backend::Serial.build(g, cache));
        assert_eq!(serial.observations, baseline.observations);
        assert!(serial.cache_hits > 0);
        assert!(serial.octree_updates < baseline.octree_updates);
    }

    #[test]
    fn cache_sizing_follows_batch_size() {
        let seq = Dataset::Fr079Corridor.generate(&DatasetConfig::tiny());
        let small = cache_for(&seq, 0.8);
        let large = cache_for(&seq, 0.1);
        assert!(large.capacity_after_eviction() >= small.capacity_after_eviction());
    }

    #[test]
    fn workload_scale_parses_env() {
        std::env::set_var("OCTO_SCALE", "0.5");
        assert_eq!(workload_scale(), 0.5);
        std::env::set_var("OCTO_SCALE", "garbage");
        assert_eq!(workload_scale(), 0.25);
        std::env::remove_var("OCTO_SCALE");
    }
}
