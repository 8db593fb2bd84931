//! The checkpoint store: generations of v2 `.ot` snapshots plus a manifest.
//!
//! Checkpoints live under `<dir>/checkpoints/ckpt-<epoch>.ot`, each a v2
//! stream ([`octocache_octomap::io::write_tree_v2`]) whose footer carries
//! the payload CRC, the leaf checksum and the scan epoch. A small `MANIFEST`
//! file names the newest checkpoint; both are published with the
//! write-temp → fsync → rename discipline, so no reader ever observes a
//! half-written generation under POSIX rename atomicity.
//!
//! Loading walks the manifest target first, then every generation by
//! descending epoch, skipping (and reporting) each candidate that fails its
//! CRC or leaf checksum — bit rot in one generation costs only the scans
//! after the previous generation, which the journal replays anyway.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut};
use octocache_octomap::checksum::crc32;
use octocache_octomap::{io as tree_io, OccupancyOcTree};

use super::iofault::{io_err, Vfs};
use super::DurableError;

const MANIFEST_MAGIC: &[u8; 8] = b"OCTMNFS1";
const MANIFEST_FILE: &str = "MANIFEST";
/// Upper bound on the manifest's stored file-name length; anything larger
/// is corruption (names are `ckpt-<epoch>.ot`, ~24 bytes).
const MAX_NAME: usize = 256;
pub(crate) const CHECKPOINT_SUBDIR: &str = "checkpoints";
/// Checkpoint generations the store retains. The older two are fallbacks
/// when the newest fails its checksum during recovery.
const GENERATIONS: usize = 3;

/// A checkpoint that loaded and passed both integrity checks.
#[derive(Debug)]
pub(crate) struct LoadedCheckpoint {
    pub tree: OccupancyOcTree,
    pub epoch: u64,
}

#[derive(Debug)]
pub(crate) struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    pub fn new(root: &Path) -> CheckpointStore {
        CheckpointStore {
            dir: root.join(CHECKPOINT_SUBDIR),
        }
    }

    pub(crate) fn ensure_dir(&self) -> Result<(), DurableError> {
        fs::create_dir_all(&self.dir).map_err(|e| io_err(&self.dir, &e))
    }

    fn file_name(epoch: u64) -> String {
        format!("ckpt-{epoch:016}.ot")
    }

    fn parse_epoch(name: &str) -> Option<u64> {
        name.strip_prefix("ckpt-")?
            .strip_suffix(".ot")?
            .parse()
            .ok()
    }

    /// Writes one checkpoint generation and repoints the manifest at it
    /// (two persistence operations), then prunes old generations down to
    /// [`GENERATIONS`].
    pub fn write(
        &self,
        vfs: &mut Vfs,
        tree: &OccupancyOcTree,
        epoch: u64,
    ) -> Result<(), DurableError> {
        let name = Self::file_name(epoch);
        let bytes = tree_io::write_tree_v2(tree, epoch);
        vfs.write_atomic(&self.dir, &name, &bytes)?;
        let mut manifest = Vec::with_capacity(8 + 8 + 4 + name.len() + 4);
        manifest.put_slice(MANIFEST_MAGIC);
        manifest.put_u64(epoch);
        manifest.put_u32(name.len() as u32);
        manifest.put_slice(name.as_bytes());
        let crc = crc32(&manifest);
        manifest.put_u32(crc);
        vfs.write_atomic(&self.dir, MANIFEST_FILE, &manifest)?;
        self.prune();
        Ok(())
    }

    /// Best-effort removal of generations beyond [`GENERATIONS`] (newest
    /// first).
    /// Deletion failures are ignored: stale generations are harmless, only
    /// missing new ones would be.
    fn prune(&self) {
        let mut epochs = self.list_epochs();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        for &epoch in epochs.iter().skip(GENERATIONS) {
            let _ = fs::remove_file(self.dir.join(Self::file_name(epoch)));
        }
        // Leftover temp files from crashed publications are dead weight.
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().ends_with(".tmp") {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }

    fn list_epochs(&self) -> Vec<u64> {
        let mut epochs = Vec::new();
        if let Ok(entries) = fs::read_dir(&self.dir) {
            for entry in entries.flatten() {
                if let Some(epoch) = Self::parse_epoch(&entry.file_name().to_string_lossy()) {
                    epochs.push(epoch);
                }
            }
        }
        epochs
    }

    /// The manifest's target epoch, when the manifest is intact.
    fn manifest_epoch(&self) -> Option<u64> {
        let path = self.dir.join(MANIFEST_FILE);
        let mut bytes = Vec::new();
        fs::File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .ok()?;
        if bytes.len() < 8 + 8 + 4 + 4 || &bytes[..8] != MANIFEST_MAGIC {
            return None;
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let mut crc_bytes = crc_bytes;
        if crc32(body) != crc_bytes.get_u32() {
            return None;
        }
        let mut buf = &body[8..];
        let epoch = buf.get_u64();
        let name_len = buf.get_u32() as usize;
        if name_len > MAX_NAME || buf.remaining() != name_len {
            return None;
        }
        Some(epoch)
    }

    /// Loads the newest checkpoint that passes both its payload CRC and
    /// leaf checksum, trying the manifest target first and then every
    /// generation in descending epoch order. Candidates that fail, and a
    /// manifest that exists but fails its own checks, are reported in the
    /// second return value, never fatal; `None` means no usable checkpoint
    /// exists (recovery then replays the whole journal).
    pub(crate) fn load_latest(&self) -> (Option<LoadedCheckpoint>, Vec<String>) {
        let mut skipped = Vec::new();
        let mut candidates: Vec<u64> = Vec::new();
        match self.manifest_epoch() {
            Some(e) => candidates.push(e),
            None if self.dir.join(MANIFEST_FILE).exists() => skipped.push(format!(
                "{MANIFEST_FILE}: damaged, newest checkpoint found by directory scan"
            )),
            None => {}
        }
        let mut epochs = self.list_epochs();
        epochs.sort_unstable_by(|a, b| b.cmp(a));
        for e in epochs {
            if !candidates.contains(&e) {
                candidates.push(e);
            }
        }
        for epoch in candidates {
            let name = Self::file_name(epoch);
            let path = self.dir.join(&name);
            let mut bytes = Vec::new();
            let read = fs::File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes));
            if let Err(e) = read {
                skipped.push(format!("{name}: {e}"));
                continue;
            }
            match tree_io::read_tree_with_meta(&bytes) {
                Ok((tree, Some(meta))) => {
                    if meta.epoch != epoch {
                        skipped.push(format!(
                            "{name}: footer epoch {} disagrees with file name",
                            meta.epoch
                        ));
                        continue;
                    }
                    return (Some(LoadedCheckpoint { tree, epoch }), skipped);
                }
                Ok((_, None)) => {
                    skipped.push(format!("{name}: missing v2 footer"));
                }
                Err(e) => {
                    skipped.push(format!("{name}: {e}"));
                }
            }
        }
        (None, skipped)
    }
}
