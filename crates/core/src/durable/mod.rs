//! Durability: scan journal, checkpoints and crash recovery.
//!
//! PR 3 made the in-memory pipeline fault-tolerant and the snapshot engine
//! gave readers immutable epoch-published maps; this module makes the map
//! itself survive process death. The design is the classic
//! checkpoint-plus-write-ahead-log pair:
//!
//! * **Journal** (`journal`, internal): before a scan touches the map,
//!   its full input (origin, cloud at `f64` precision, max range) is
//!   appended to `<dir>/journal` as a CRC32-framed record. Torn or
//!   bit-rotted tails are detected by the framing and treated as a clean
//!   end-of-log.
//! * **Checkpoints** (`checkpoint`, internal): every
//!   [`checkpoint_every`](crate::CacheConfig::checkpoint_every) scans (and
//!   on [`DurableMap::seal`]), the current [`MapSnapshot`] — taken
//!   lock-free from the publisher armed on every backend — is serialised
//!   as a checksummed v2 `.ot` stream into
//!   `<dir>/checkpoints/ckpt-<epoch>.ot`, published atomically
//!   (write-temp → fsync → rename) and recorded in a `MANIFEST`.
//! * **Recovery** ([`recover`]): load the newest checkpoint whose payload
//!   CRC *and* leaf checksum verify (falling back generation by
//!   generation), then replay journal records after its epoch through the
//!   exact baseline insert path. The recovered map bit-matches (leaf
//!   checksum) a never-crashed run over the durably recorded scans, on
//!   every backend — proven by the crash-torture suite under deterministic
//!   [`IoFaultPlan`] kills, short writes and bit flips.
//!
//! The write-ahead ordering ("journaled before applied") means a scan is
//! either durably recorded or reported as a typed
//! [`PipelineError::Durable`] —
//! never silently applied-but-lost.
//!
//! Every scan enters through [`MappingSystem::insert_scan`], which asks
//! the wrapped backend's [`MappingSystem::admit`] verdict before touching
//! the journal. Applied and refused scans share one append; a refused one
//! is flagged as shed, returned as [`PipelineError::Shed`], and skipped by
//! replay, so the journal is a faithful input log and recovery equals the
//! live map.
//!
//! # Example
//!
//! ```
//! # use octocache::durable::{self, DurableMap};
//! # use octocache::pipeline::{MappingSystem, OctoMapSystem, RayTracer};
//! # use octocache::CacheConfig;
//! # use octocache_geom::{Point3, VoxelGrid};
//! # use octocache_octomap::OccupancyParams;
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dir = std::env::temp_dir().join(format!("octo-durable-doc-{}", std::process::id()));
//! let grid = VoxelGrid::new(0.25, 8)?;
//! let params = OccupancyParams::default();
//! let config = CacheConfig::builder().checkpoint_every(2).build()?;
//! let inner = OctoMapSystem::new(grid, params);
//! let mut map = DurableMap::create(&dir, inner, params, RayTracer::Standard, &config)?;
//! map.insert_scan(Point3::ZERO, &[Point3::new(2.0, 0.3, 0.1)], 10.0)?;
//! map.seal()?;
//! // A fresh process recovers the identical map.
//! let (tree, report) = durable::recover(&dir)?;
//! assert_eq!(report.final_epoch, 1);
//! assert_eq!(tree.leaf_checksum(), report.leaf_checksum);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

mod checkpoint;
mod iofault;
mod journal;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use octocache_geom::{GeomError, Point3, VoxelGrid, VoxelKey};
use octocache_octomap::stats::StatsSnapshot;
use octocache_octomap::{insert, rt, OccupancyOcTree, OccupancyParams};
use octocache_telemetry::{EventLog, PhaseTimes, Recorder};

use crate::cache::CacheStats;
use crate::config::CacheConfig;
use crate::fault::{FaultCounters, PipelineError};
use crate::pipeline::{MappingSystem, OctoMapSystem, RayTracer, ScanReport};
use crate::query::{MapSnapshot, QueryHandle};
use crate::supervisor::ShedReason;

use checkpoint::CheckpointStore;
use journal::{Journal, JournalHeader, JournalRecord, TailStatus, JOURNAL_FILE};

pub use iofault::{IoFaultPlan, KillPoint};

/// Errors from the durability layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error text.
        reason: String,
    },
    /// A deterministic [`IoFaultPlan`] kill fired: the process is presumed
    /// dead at this point; tests stop the run here and exercise recovery.
    InjectedCrash {
        /// The persistence-operation index that crashed.
        op: u64,
        /// Where inside the operation the kill fired.
        point: KillPoint,
    },
    /// A durable file exists but its contents are damaged beyond what the
    /// tail-truncation rules absorb (e.g. a torn journal header).
    Corrupt {
        /// The damaged file.
        path: String,
        /// What was wrong.
        reason: String,
    },
    /// The durable directory has no journal — nothing was ever persisted
    /// (or creation crashed before the header was published).
    Missing {
        /// The expected journal path.
        path: String,
    },
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Io { path, reason } => write!(f, "I/O error on {path}: {reason}"),
            DurableError::InjectedCrash { op, point } => {
                write!(f, "injected crash at persistence op {op} ({point})")
            }
            DurableError::Corrupt { path, reason } => {
                write!(f, "corrupt durable file {path}: {reason}")
            }
            DurableError::Missing { path } => {
                write!(f, "no journal at {path}: nothing durable to recover")
            }
        }
    }
}

impl std::error::Error for DurableError {}

/// Cumulative durability counters for one [`DurableMap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurableStats {
    /// Journal records appended.
    pub journal_records: u64,
    /// Journal bytes appended (frames, excluding the header).
    pub journal_bytes: u64,
    /// Total nanoseconds spent appending (and fsync-ing) the journal.
    pub journal_append_ns: u64,
    /// Checkpoint generations written.
    pub checkpoints_written: u64,
    /// Total nanoseconds spent serialising + publishing checkpoints.
    pub checkpoint_write_ns: u64,
    /// Epoch of the newest checkpoint (0 when none yet).
    pub last_checkpoint_epoch: u64,
}

/// What [`recover`] found and did.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint recovery started from; `None` when no
    /// usable checkpoint existed and the whole journal was replayed.
    pub checkpoint_epoch: Option<u64>,
    /// Checkpoint generations that failed integrity checks and were
    /// skipped (`file: reason` strings, newest first), led by the manifest
    /// when it failed its own and the directory was scanned instead.
    pub checkpoints_skipped: Vec<String>,
    /// Journal records replayed on top of the checkpoint.
    pub records_replayed: u64,
    /// Journal records skipped during replay because their geometry was
    /// invalid (they were never applied in the original run either).
    pub records_skipped: u64,
    /// Journal records flagged as shed by admission control: recorded so
    /// the log stays a faithful input history, never applied — in the
    /// original run or on replay.
    pub records_shed: u64,
    /// Damaged journal-tail bytes dropped as a clean end-of-log.
    pub tail_dropped_bytes: u64,
    /// The scan epoch of the recovered map (checkpoint epoch or last
    /// replayed record, whichever is newer).
    pub final_epoch: u64,
    /// [`OccupancyOcTree::leaf_checksum`] of the recovered map.
    pub leaf_checksum: u64,
    /// The ray-tracing front-end the journal was recorded with (replay
    /// uses the same one).
    pub ray_tracer: RayTracer,
}

impl RecoveryReport {
    /// True when recovery found nothing abnormal: no skipped checkpoint
    /// generations and no damaged journal tail. A clean-shutdown directory
    /// always recovers clean, with zero records to replay past the final
    /// checkpoint.
    pub fn is_clean(&self) -> bool {
        self.checkpoints_skipped.is_empty() && self.tail_dropped_bytes == 0
    }

    /// Multi-line human-readable summary (used by `octocache recover`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.checkpoint_epoch {
            Some(e) => out.push_str(&format!("checkpoint:        epoch {e}\n")),
            None => out.push_str("checkpoint:        none (full journal replay)\n"),
        }
        for s in &self.checkpoints_skipped {
            out.push_str(&format!("skipped:           {s}\n"));
        }
        out.push_str(&format!("records replayed:  {}\n", self.records_replayed));
        if self.records_skipped > 0 {
            out.push_str(&format!("records skipped:   {}\n", self.records_skipped));
        }
        if self.records_shed > 0 {
            out.push_str(&format!("records shed:      {}\n", self.records_shed));
        }
        if self.tail_dropped_bytes > 0 {
            out.push_str(&format!(
                "journal tail:      {} damaged bytes dropped\n",
                self.tail_dropped_bytes
            ));
        }
        out.push_str(&format!("final epoch:       {}\n", self.final_epoch));
        out.push_str(&format!(
            "leaf checksum:     {:#018x}\n",
            self.leaf_checksum
        ));
        out.push_str(&format!(
            "status:            {}\n",
            if self.is_clean() {
                "clean"
            } else {
                "recovered"
            }
        ));
        out
    }
}

/// Reconstructs the map persisted in `dir`.
///
/// # Errors
///
/// [`DurableError::Missing`] when `dir` holds no journal,
/// [`DurableError::Corrupt`] when the journal header is damaged, or
/// [`DurableError::Io`] for filesystem failures. Damaged checkpoint
/// generations and journal tails are *not* errors — they are skipped or
/// truncated and reported in the [`RecoveryReport`].
pub fn recover(dir: impl AsRef<Path>) -> Result<(OccupancyOcTree, RecoveryReport), DurableError> {
    let (tree, report, _, _) = recover_internal(dir.as_ref())?;
    Ok((tree, report))
}

fn recover_internal(
    dir: &Path,
) -> Result<(OccupancyOcTree, RecoveryReport, JournalHeader, u64), DurableError> {
    let journal_path = dir.join(JOURNAL_FILE);
    if !journal_path.exists() {
        return Err(DurableError::Missing {
            path: journal_path.display().to_string(),
        });
    }
    let contents = journal::read_journal(&journal_path)?;
    let header = contents.header;
    let grid =
        VoxelGrid::new(header.resolution, header.depth).map_err(|e| DurableError::Corrupt {
            path: journal_path.display().to_string(),
            reason: format!("invalid grid in journal header: {e}"),
        })?;
    let store = CheckpointStore::new(dir);
    let (loaded, checkpoints_skipped) = store.load_latest();
    let (mut tree, checkpoint_epoch) = match loaded {
        Some(c) => (c.tree, Some(c.epoch)),
        None => (OccupancyOcTree::new(grid, header.params), None),
    };
    let replay_from = checkpoint_epoch.unwrap_or(0);
    let mut batch = insert::VoxelBatch::new();
    let mut records_replayed = 0u64;
    let mut records_skipped = 0u64;
    let mut records_shed = 0u64;
    let mut final_epoch = replay_from;
    for record in &contents.records {
        final_epoch = final_epoch.max(record.epoch);
        if record.epoch <= replay_from {
            continue;
        }
        if record.shed {
            // Shed in the original run, so never applied: the record
            // advances the epoch but contributes nothing to the map.
            records_shed += 1;
            continue;
        }
        match insert::compute_update(
            tree.grid(),
            record.origin,
            &record.points,
            record.max_range,
            &mut batch,
        ) {
            Ok(()) => {
                match header.ray_tracer {
                    RayTracer::Standard => insert::apply_batch(&mut tree, &batch),
                    RayTracer::Dedup => {
                        let deduped = rt::dedup_batch(&batch);
                        insert::apply_batch(&mut tree, &deduped);
                    }
                }
                records_replayed += 1;
            }
            // The original run rejected this scan too (Geom errors are
            // transactional): skipping keeps replay bit-identical.
            Err(_) => records_skipped += 1,
        }
    }
    let tail_dropped_bytes = match contents.tail {
        TailStatus::Clean => 0,
        TailStatus::Truncated { dropped_bytes, .. } => dropped_bytes,
    };
    let report = RecoveryReport {
        checkpoint_epoch,
        checkpoints_skipped,
        records_replayed,
        records_skipped,
        records_shed,
        tail_dropped_bytes,
        final_epoch,
        leaf_checksum: tree.leaf_checksum(),
        ray_tracer: header.ray_tracer,
    };
    Ok((tree, report, header, contents.valid_bytes))
}

/// A [`MappingSystem`] wrapper that makes any backend durable: scans are
/// journaled before they are applied, checkpoints are written periodically
/// from the backend's lock-free [`MapSnapshot`], and
/// [`recover`]/[`DurableMap::resume`] reconstruct the map after a crash.
///
/// Works over all four backends (and their `-rt` variants): the journal
/// records *inputs*, and since every backend produces bit-identical maps
/// for a given ray tracer (the differential guarantee), replaying inputs
/// through the baseline path reproduces any backend's map exactly.
pub struct DurableMap {
    inner: Box<dyn MappingSystem>,
    journal: Journal,
    store: CheckpointStore,
    vfs: iofault::Vfs,
    checkpoint_every: u64,
    /// Journal records written so far (1-based scan epochs).
    epoch: u64,
    last_checkpoint: u64,
    stats: DurableStats,
}

impl fmt::Debug for DurableMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableMap")
            .field("inner", &self.inner.name())
            .field("epoch", &self.epoch)
            .field("last_checkpoint", &self.last_checkpoint)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl DurableMap {
    /// Wraps `inner` with durability rooted at `dir` (created if absent):
    /// an empty journal is published and checkpoints will go to
    /// `dir/checkpoints/`. `params` must be the sensor model `inner` was
    /// built with and `ray_tracer` its front-end — both go into the journal
    /// header so recovery replays identically.
    ///
    /// No I/O faults are injected; use [`DurableMap::create_with_io_faults`]
    /// to schedule an [`IoFaultPlan`].
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the directory or journal cannot be created.
    pub fn create<M: MappingSystem + 'static>(
        dir: impl AsRef<Path>,
        inner: M,
        params: OccupancyParams,
        ray_tracer: RayTracer,
        config: &CacheConfig,
    ) -> Result<DurableMap, DurableError> {
        Self::create_with_io_faults(dir, inner, params, ray_tracer, config, None)
    }

    /// As [`DurableMap::create`], with an explicit deterministic I/O fault
    /// plan (`None` = no injected faults).
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the directory or journal cannot be created
    /// (including an [`DurableError::InjectedCrash`] scheduled on the
    /// journal-creation operation).
    pub fn create_with_io_faults<M: MappingSystem + 'static>(
        dir: impl AsRef<Path>,
        inner: M,
        params: OccupancyParams,
        ray_tracer: RayTracer,
        config: &CacheConfig,
        plan: Option<IoFaultPlan>,
    ) -> Result<DurableMap, DurableError> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir).map_err(|e| iofault::io_err(dir, &e))?;
        let store = CheckpointStore::new(dir);
        store.ensure_dir()?;
        let grid = inner.grid();
        let header = JournalHeader::new(grid.resolution(), grid.depth(), params, ray_tracer);
        let mut vfs = iofault::Vfs::new(plan);
        let journal = Journal::create(dir, &header, &mut vfs)?;
        Ok(DurableMap {
            inner: Box::new(inner),
            journal,
            store,
            vfs,
            checkpoint_every: config.checkpoint_every(),
            epoch: 0,
            last_checkpoint: 0,
            stats: DurableStats::default(),
        })
    }

    /// Recovers the map persisted in `dir` and resumes durable mapping on
    /// it: the damaged journal tail (if any) is truncated away, appends
    /// continue at the recovered epoch, and the mapping backend is the
    /// OctoMap baseline seeded with the recovered tree, using the ray
    /// tracer recorded in the journal header.
    ///
    /// # Errors
    ///
    /// See [`recover`], plus [`DurableError::Io`] when the journal cannot
    /// be reopened for appending.
    pub fn resume(
        dir: impl AsRef<Path>,
        config: &CacheConfig,
    ) -> Result<(DurableMap, RecoveryReport), DurableError> {
        let dir = dir.as_ref();
        let (tree, report, header, valid_bytes) = recover_internal(dir)?;
        let journal = Journal::open_truncated(dir.join(JOURNAL_FILE), valid_bytes, header.version)?;
        let inner = OctoMapSystem::from_tree(tree, header.ray_tracer);
        let map = DurableMap {
            inner: Box::new(inner),
            journal,
            store: CheckpointStore::new(dir),
            vfs: iofault::Vfs::new(None),
            checkpoint_every: config.checkpoint_every(),
            epoch: report.final_epoch,
            last_checkpoint: report.checkpoint_epoch.unwrap_or(0),
            stats: DurableStats {
                last_checkpoint_epoch: report.checkpoint_epoch.unwrap_or(0),
                ..DurableStats::default()
            },
        };
        Ok((map, report))
    }

    /// Cumulative durability counters.
    pub fn stats(&self) -> DurableStats {
        self.stats
    }

    /// The scan epoch: journal records written over this map's lifetime
    /// (including, after [`DurableMap::resume`], the recovered prefix).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Forces the journal to disk and writes a final checkpoint at the
    /// current epoch, making subsequent recovery a pure checkpoint load
    /// (zero records to replay). Idempotent.
    ///
    /// # Errors
    ///
    /// [`DurableError`] when the sync or the checkpoint publication fails.
    pub fn seal(&mut self) -> Result<(), DurableError> {
        self.journal.sync()?;
        self.write_checkpoint()?;
        Ok(())
    }

    fn write_checkpoint(&mut self) -> Result<(), DurableError> {
        if self.stats.checkpoints_written > 0 && self.last_checkpoint == self.epoch {
            return Ok(());
        }
        let t0 = Instant::now();
        let snapshot = self.inner.snapshot();
        self.store
            .write(&mut self.vfs, snapshot.tree(), self.epoch)?;
        self.last_checkpoint = self.epoch;
        self.stats.checkpoints_written += 1;
        self.stats.last_checkpoint_epoch = self.epoch;
        self.stats.checkpoint_write_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }
}

impl MappingSystem for DurableMap {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn grid(&self) -> &VoxelGrid {
        self.inner.grid()
    }

    fn insert_scan(
        &mut self,
        origin: Point3,
        cloud: &[Point3],
        max_range: f64,
    ) -> Result<ScanReport, PipelineError> {
        // Ask the inner backend for the verdict *before* any side effect,
        // so the journal records the scan with the decision that was made.
        let verdict = self.inner.admit();
        // Periodic checkpoint first, covering the scans applied so far: the
        // snapshot is at a scan boundary, and a crash during the checkpoint
        // loses nothing (the previous generation + journal still recover
        // everything).
        let mut checkpoint_ns = 0u64;
        if verdict.is_ok()
            && self.checkpoint_every > 0
            && self.epoch.saturating_sub(self.last_checkpoint) >= self.checkpoint_every
        {
            let before = self.stats.checkpoint_write_ns;
            self.write_checkpoint().map_err(PipelineError::Durable)?;
            checkpoint_ns = self.stats.checkpoint_write_ns - before;
        }
        // Journal the scan before applying it (write-ahead ordering). A
        // refused scan is journaled too, flagged shed and never applied: the
        // log stays a faithful history of everything offered to the map,
        // and replay reproduces exactly the applied subset. A resumed
        // version-1 journal has no flags byte; there a refused scan stays
        // out of the log entirely.
        let shed = verdict.is_err();
        let mut journal_ns = 0u64;
        if !shed || self.journal.supports_shed() {
            let record = JournalRecord {
                epoch: self.epoch + 1,
                origin,
                max_range,
                points: cloud.to_vec(),
                shed,
            };
            let t0 = Instant::now();
            let bytes = self
                .journal
                .append(&mut self.vfs, &record)
                .map_err(PipelineError::Durable)?;
            journal_ns = t0.elapsed().as_nanos() as u64;
            self.epoch += 1;
            self.stats.journal_records += 1;
            self.stats.journal_bytes += bytes;
            self.stats.journal_append_ns += journal_ns;
        }
        verdict.map_err(PipelineError::Shed)?;
        // Write this scan's durable latencies into the inner engine's
        // pending record for this scan.
        self.inner
            .stamp_durable(journal_ns, checkpoint_ns, self.last_checkpoint);
        self.inner.insert_scan(origin, cloud, max_range)
    }

    fn admit(&mut self) -> Result<(), ShedReason> {
        self.inner.admit()
    }

    fn occupancy(&mut self, key: VoxelKey) -> Option<f32> {
        self.inner.occupancy(key)
    }

    fn is_occupied(&mut self, key: VoxelKey) -> Option<bool> {
        self.inner.is_occupied(key)
    }

    fn is_occupied_at(&mut self, p: Point3) -> Result<Option<bool>, GeomError> {
        self.inner.is_occupied_at(p)
    }

    fn finish(&mut self) -> PhaseTimes {
        let times = self.inner.finish();
        // `finish` cannot surface a Result, so this seal is best-effort;
        // callers that need the final checkpoint call `seal()` and handle
        // its Result.
        let _ = self.seal();
        times
    }

    fn phase_times(&self) -> PhaseTimes {
        self.inner.phase_times()
    }

    fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.inner.set_recorder(recorder);
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }

    fn tree_stats(&self) -> Option<StatsSnapshot> {
        self.inner.tree_stats()
    }

    fn take_events(&mut self) -> Option<EventLog> {
        self.inner.take_events()
    }

    fn fault_counters(&self) -> FaultCounters {
        self.inner.fault_counters()
    }

    fn query_handle(&mut self) -> QueryHandle {
        self.inner.query_handle()
    }

    fn snapshot(&mut self) -> Arc<MapSnapshot> {
        self.inner.snapshot()
    }

    fn take_tree(self: Box<Self>) -> OccupancyOcTree {
        self.inner.take_tree()
    }
}

/// The checkpoint directory's path inside a durable directory.
pub fn checkpoint_dir(dir: impl AsRef<Path>) -> PathBuf {
    dir.as_ref().join(checkpoint::CHECKPOINT_SUBDIR)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("octo-durable-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn grid() -> VoxelGrid {
        VoxelGrid::new(0.25, 8).unwrap()
    }

    fn cloud(i: u64) -> Vec<Point3> {
        (0..24)
            .map(|j| {
                let a = (i * 24 + j) as f64 * 0.37;
                Point3::new(3.0 * a.cos(), 3.0 * a.sin(), 0.2 * (j as f64) - 2.0)
            })
            .collect()
    }

    fn run_scans(map: &mut dyn MappingSystem, from: u64, to: u64) {
        for i in from..to {
            map.insert_scan(Point3::new(0.1, 0.1, 0.1), &cloud(i), 12.0)
                .unwrap();
        }
    }

    #[test]
    fn seal_recover_round_trip_matches_live_map() {
        let dir = temp_dir("roundtrip");
        let params = OccupancyParams::default();
        let config = CacheConfig::builder().checkpoint_every(3).build().unwrap();
        let inner = OctoMapSystem::new(grid(), params);
        let mut map =
            DurableMap::create(&dir, inner, params, RayTracer::Standard, &config).unwrap();
        run_scans(&mut map, 0, 8);
        map.seal().unwrap();
        let live = Box::new(map).take_tree();

        let (tree, report) = recover(&dir).unwrap();
        assert!(report.is_clean(), "clean shutdown must recover clean");
        assert_eq!(report.final_epoch, 8);
        assert_eq!(report.records_replayed, 0, "seal leaves nothing to replay");
        assert_eq!(tree.leaf_checksum(), live.leaf_checksum());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsealed_journal_replays_to_identical_map() {
        let dir = temp_dir("replay");
        let params = OccupancyParams::default();
        let config = CacheConfig::builder().checkpoint_every(3).build().unwrap();
        let inner = OctoMapSystem::new(grid(), params);
        let mut map =
            DurableMap::create(&dir, inner, params, RayTracer::Standard, &config).unwrap();
        run_scans(&mut map, 0, 7);
        // No seal: recovery starts from the epoch-6 periodic checkpoint and
        // replays the journaled scan 7.
        let live = Box::new(map).take_tree();

        let (tree, report) = recover(&dir).unwrap();
        assert_eq!(report.checkpoint_epoch, Some(6));
        assert_eq!(report.records_replayed, 1);
        assert_eq!(report.final_epoch, 7);
        assert_eq!(tree.leaf_checksum(), live.leaf_checksum());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_continues_epochs_and_converges() {
        let dir_a = temp_dir("resume-a");
        let dir_b = temp_dir("resume-b");
        let params = OccupancyParams::default();
        let config = CacheConfig::builder().checkpoint_every(4).build().unwrap();

        // Reference: 10 scans in one uninterrupted run.
        let mut reference = DurableMap::create(
            &dir_b,
            OctoMapSystem::new(grid(), params),
            params,
            RayTracer::Standard,
            &config,
        )
        .unwrap();
        run_scans(&mut reference, 0, 10);
        let reference_tree = Box::new(reference).take_tree();

        // Interrupted run: 6 scans, drop without sealing, resume, 4 more.
        let mut first = DurableMap::create(
            &dir_a,
            OctoMapSystem::new(grid(), params),
            params,
            RayTracer::Standard,
            &config,
        )
        .unwrap();
        run_scans(&mut first, 0, 6);
        drop(first);
        let (mut resumed, report) = DurableMap::resume(&dir_a, &config).unwrap();
        assert_eq!(report.final_epoch, 6);
        assert_eq!(resumed.epoch(), 6);
        run_scans(&mut resumed, 6, 10);
        resumed.seal().unwrap();
        let resumed_tree = Box::new(resumed).take_tree();

        assert_eq!(resumed_tree.leaf_checksum(), reference_tree.leaf_checksum());

        // And the sealed directory recovers to the same map again.
        let (tree, report) = recover(&dir_a).unwrap();
        assert_eq!(report.final_epoch, 10);
        assert_eq!(tree.leaf_checksum(), reference_tree.leaf_checksum());
        fs::remove_dir_all(&dir_a).unwrap();
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn recover_missing_directory_is_typed() {
        let dir = temp_dir("missing");
        match recover(&dir) {
            Err(DurableError::Missing { .. }) => {}
            other => panic!("expected Missing, got {other:?}"),
        }
    }

    #[test]
    fn injected_crash_surfaces_as_durable_pipeline_error() {
        let dir = temp_dir("crashkill");
        let params = OccupancyParams::default();
        let config = CacheConfig::builder().checkpoint_every(0).build().unwrap();
        let plan = IoFaultPlan {
            // Op 0 is journal creation; op 2 is the second scan's append.
            kill: Some((2, KillPoint::BeforeWrite)),
            flip: None,
        };
        let mut map = DurableMap::create_with_io_faults(
            &dir,
            OctoMapSystem::new(grid(), params),
            params,
            RayTracer::Standard,
            &config,
            Some(plan),
        )
        .unwrap();
        map.insert_scan(Point3::ZERO, &cloud(0), 12.0).unwrap();
        let err = map.insert_scan(Point3::ZERO, &cloud(1), 12.0).unwrap_err();
        match err {
            PipelineError::Durable(DurableError::InjectedCrash { op: 2, point }) => {
                assert_eq!(point, KillPoint::BeforeWrite);
            }
            other => panic!("expected injected crash, got {other:?}"),
        }
        // The write-ahead contract: the failed scan was never applied, so
        // recovery sees exactly one epoch.
        let (_, report) = recover(&dir).unwrap();
        assert_eq!(report.final_epoch, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_and_scan_records_carry_durable_latencies() {
        let dir = temp_dir("stats");
        let params = OccupancyParams::default();
        let config = CacheConfig::builder().checkpoint_every(2).build().unwrap();
        let mut map = DurableMap::create(
            &dir,
            OctoMapSystem::new(grid(), params),
            params,
            RayTracer::Standard,
            &config,
        )
        .unwrap();
        let recorder = octocache_telemetry::SharedRecorder::new();
        map.set_recorder(Box::new(recorder.clone()));
        run_scans(&mut map, 0, 5);
        map.seal().unwrap();

        let stats = map.stats();
        assert_eq!(stats.journal_records, 5);
        assert!(stats.journal_bytes > 0);
        // Periodic checkpoints at epochs 2 and 4, plus the seal at 5.
        assert_eq!(stats.checkpoints_written, 3);
        assert_eq!(stats.last_checkpoint_epoch, 5);

        let records = recorder.records();
        assert_eq!(records.len(), 5);
        assert!(records.iter().all(|r| r.journal_append_ns > 0));
        // Scan 3 (0-based seq 2) ran right after the epoch-2 checkpoint.
        assert!(records[2].checkpoint_write_ns > 0);
        assert_eq!(records[2].checkpoint_epoch, 2);
        assert_eq!(records[0].checkpoint_epoch, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A deadline refusal takes the same path as a budget one: journaled
    /// flagged as shed, asked once (`DurableMap` asks the verdict, then the
    /// engine asks again only for an admitted scan), and counted once in
    /// the next applied scan's `ScanRecord::sheds`.
    #[test]
    fn deadline_sheds_are_journaled_and_counted_once() {
        let dir = temp_dir("deadline");
        let params = OccupancyParams::default();
        let config = CacheConfig::builder()
            .num_buckets(1 << 7)
            .tau(2)
            .shed_deadline(std::time::Duration::from_micros(1))
            .build()
            .unwrap();
        let inner = crate::SerialOctoCache::new(grid(), params, config);
        let mut map =
            DurableMap::create(&dir, inner, params, RayTracer::Standard, &config).unwrap();
        let recorder = octocache_telemetry::SharedRecorder::new();
        map.set_recorder(Box::new(recorder.clone()));
        // Sheds since the last applied scan, per applied scan.
        let mut want_sheds = Vec::new();
        let mut pending = 0u64;
        let scans = 40;
        for i in 0..scans {
            match map.insert_scan(Point3::new(0.1, 0.1, 0.1), &cloud(i), 12.0) {
                Ok(_) => want_sheds.push(std::mem::take(&mut pending)),
                Err(PipelineError::Shed(ShedReason::DeadlineExceeded { .. })) => pending += 1,
                Err(e) => panic!("scan {i}: unexpected error {e}"),
            }
        }
        assert!(
            want_sheds.len() > 1 && want_sheds[1] > 0,
            "scan 1 is shed and the gate re-admits: {want_sheds:?}"
        );
        let got: Vec<u64> = recorder.records().iter().map(|r| r.sheds).collect();
        assert_eq!(got, want_sheds);
        assert_eq!(map.stats().journal_records, scans);

        let live = Box::new(map).take_tree();
        let (tree, report) = recover(&dir).unwrap();
        assert_eq!(report.records_replayed, want_sheds.len() as u64);
        assert_eq!(
            report.records_shed,
            want_sheds.iter().sum::<u64>() + pending
        );
        assert_eq!(tree.leaf_checksum(), live.leaf_checksum());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn render_and_displays() {
        let report = RecoveryReport {
            checkpoint_epoch: Some(4),
            checkpoints_skipped: vec!["ckpt-x.ot: bad".to_string()],
            records_replayed: 2,
            records_skipped: 1,
            records_shed: 1,
            tail_dropped_bytes: 17,
            final_epoch: 6,
            leaf_checksum: 0xabcd,
            ray_tracer: RayTracer::Standard,
        };
        let text = report.render();
        assert!(text.contains("epoch 4"));
        assert!(text.contains("recovered"));
        assert!(!report.is_clean());

        let errs = [
            DurableError::Io {
                path: "p".into(),
                reason: "denied".into(),
            },
            DurableError::InjectedCrash {
                op: 3,
                point: KillPoint::MidWrite,
            },
            DurableError::Corrupt {
                path: "j".into(),
                reason: "bad magic".into(),
            },
            DurableError::Missing { path: "j".into() },
        ];
        for e in errs {
            assert!(!format!("{e}").is_empty());
        }
    }
}
