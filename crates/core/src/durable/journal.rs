//! The append-only scan journal (write-ahead log).
//!
//! Layout on disk (all integers big-endian, like the map formats):
//!
//! ```text
//! header:  "OCTJRNL1" | version u8 | resolution f64 | depth u8
//!          | δ_occ f32 | δ_free f32 | clamp_min f32 | clamp_max f32
//!          | threshold f32 | ray_tracer u8 | crc32(header so far) u32
//! record:  payload_len u32 | crc32(payload) u32 | payload
//! payload: epoch u64 | flags u8 (v2+) | origin x,y,z f64 | max_range f64
//!          | npoints u32 | npoints × (x,y,z f64)
//! ```
//!
//! Version 2 added a flags byte after the epoch; bit 0 marks a **shed**
//! scan — one the supervisor's admission gate rejected. Shed records keep
//! the journal a faithful input log (every scan offered to the map is
//! recorded, with its verdict) and advance the epoch, but recovery never
//! applies them. Version-1 journals (no flags byte) read as all-applied.
//!
//! Points are stored at full `f64` precision (unlike the `f32` scan-log
//! dataset format) because recovery replays them through the exact insert
//! path and must reproduce bit-identical log-odds.
//!
//! The reader treats *any* damage from some byte offset onward — a torn
//! frame, a CRC mismatch, a non-monotonic epoch, an oversized length — as a
//! clean end-of-log: records before the damage are returned, the rest is
//! reported (and truncated away on resume), never an error. Only a missing
//! or corrupt *header* fails the journal as a whole, and the header is
//! published atomically so a crash can only omit it entirely.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut, BytesMut};
use octocache_geom::Point3;
use octocache_octomap::checksum::crc32;
use octocache_octomap::OccupancyParams;

use super::iofault::{io_err, Vfs};
use super::DurableError;
use crate::pipeline::RayTracer;

const MAGIC: &[u8; 8] = b"OCTJRNL1";
/// Current write version. Version 2 = per-record flags byte (shed bit);
/// version-1 journals are still readable.
const VERSION: u8 = 2;
/// Record flag bit: the scan was shed by admission control, never applied.
const FLAG_SHED: u8 = 1 << 0;
/// Header size: magic 8 + version 1 + resolution 8 + depth 1 + params 20
/// + ray tracer 1 + crc 4.
pub(crate) const HEADER_LEN: usize = 8 + 1 + 8 + 1 + 20 + 1 + 4;
/// Cap on one record's payload (≈ 5.5 M points). Anything larger in a
/// length frame is corruption, not data — preallocation stays bounded.
const MAX_PAYLOAD: u32 = 1 << 27;
/// The journal's file name inside a durable directory.
pub(crate) const JOURNAL_FILE: &str = "journal";

/// The immutable per-run metadata recorded when a journal is created.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct JournalHeader {
    pub resolution: f64,
    pub depth: u8,
    pub params: OccupancyParams,
    pub ray_tracer: RayTracer,
    /// Format version the journal was written with (1 or 2); freshly
    /// created journals always use [`VERSION`].
    pub version: u8,
}

impl JournalHeader {
    /// A header for a freshly created journal, in the current format.
    pub fn new(
        resolution: f64,
        depth: u8,
        params: OccupancyParams,
        ray_tracer: RayTracer,
    ) -> JournalHeader {
        JournalHeader {
            resolution,
            depth,
            params,
            ray_tracer,
            version: VERSION,
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut buf = BytesMut::with_capacity(HEADER_LEN);
        buf.put_slice(MAGIC);
        buf.put_u8(self.version);
        buf.put_f64(self.resolution);
        buf.put_u8(self.depth);
        buf.put_f32(self.params.delta_occupied);
        buf.put_f32(self.params.delta_free);
        buf.put_f32(self.params.clamp_min);
        buf.put_f32(self.params.clamp_max);
        buf.put_f32(self.params.threshold);
        buf.put_u8(match self.ray_tracer {
            RayTracer::Standard => 0,
            RayTracer::Dedup => 1,
        });
        let crc = crc32(&buf[..]);
        buf.put_u32(crc);
        buf.to_vec()
    }

    fn decode(path: &Path, bytes: &[u8]) -> Result<JournalHeader, DurableError> {
        let corrupt = |reason: &str| DurableError::Corrupt {
            path: path.display().to_string(),
            reason: reason.to_string(),
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt("journal shorter than its header"));
        }
        let mut buf = &bytes[..HEADER_LEN];
        if &buf[..8] != MAGIC {
            return Err(corrupt("bad journal magic"));
        }
        if crc32(&bytes[..HEADER_LEN - 4])
            != u32::from_be_bytes([
                bytes[HEADER_LEN - 4],
                bytes[HEADER_LEN - 3],
                bytes[HEADER_LEN - 2],
                bytes[HEADER_LEN - 1],
            ])
        {
            return Err(corrupt("journal header CRC mismatch"));
        }
        buf.advance(8);
        let version = buf.get_u8();
        if !(1..=VERSION).contains(&version) {
            return Err(corrupt("unsupported journal version"));
        }
        let resolution = buf.get_f64();
        let depth = buf.get_u8();
        let params = OccupancyParams {
            delta_occupied: buf.get_f32(),
            delta_free: buf.get_f32(),
            clamp_min: buf.get_f32(),
            clamp_max: buf.get_f32(),
            threshold: buf.get_f32(),
        };
        let ray_tracer = match buf.get_u8() {
            0 => RayTracer::Standard,
            1 => RayTracer::Dedup,
            _ => return Err(corrupt("unknown ray-tracer id")),
        };
        if params.validate().is_err() {
            return Err(corrupt("inconsistent occupancy params"));
        }
        Ok(JournalHeader {
            resolution,
            depth,
            params,
            ray_tracer,
            version,
        })
    }
}

/// One journaled scan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct JournalRecord {
    pub epoch: u64,
    pub origin: Point3,
    pub max_range: f64,
    pub points: Vec<Point3>,
    /// True when admission control shed this scan: recorded (the journal
    /// is a faithful input log) but never applied, on replay either.
    pub shed: bool,
}

impl JournalRecord {
    fn encode_frame(&self, version: u8) -> Vec<u8> {
        let payload_len = 8 + 1 + 24 + 8 + 4 + self.points.len() * 24;
        let mut payload = BytesMut::with_capacity(payload_len);
        payload.put_u64(self.epoch);
        if version >= 2 {
            payload.put_u8(if self.shed { FLAG_SHED } else { 0 });
        }
        payload.put_f64(self.origin.x);
        payload.put_f64(self.origin.y);
        payload.put_f64(self.origin.z);
        payload.put_f64(self.max_range);
        payload.put_u32(self.points.len() as u32);
        for p in &self.points {
            payload.put_f64(p.x);
            payload.put_f64(p.y);
            payload.put_f64(p.z);
        }
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc32(&payload[..]));
        frame.put_slice(&payload[..]);
        frame
    }

    fn decode_payload(mut buf: &[u8], version: u8) -> Option<JournalRecord> {
        let flags_len = if version >= 2 { 1 } else { 0 };
        if buf.len() < 8 + flags_len + 24 + 8 + 4 {
            return None;
        }
        let epoch = buf.get_u64();
        let shed = if version >= 2 {
            let flags = buf.get_u8();
            if flags & !FLAG_SHED != 0 {
                // Unknown flag bits: a future format (or bit rot), not
                // this reader's data.
                return None;
            }
            flags & FLAG_SHED != 0
        } else {
            false
        };
        let origin = Point3::new(buf.get_f64(), buf.get_f64(), buf.get_f64());
        let max_range = buf.get_f64();
        let npoints = buf.get_u32() as usize;
        if buf.remaining() != npoints * 24 {
            return None;
        }
        let mut points = Vec::with_capacity(npoints);
        for _ in 0..npoints {
            points.push(Point3::new(buf.get_f64(), buf.get_f64(), buf.get_f64()));
        }
        Some(JournalRecord {
            epoch,
            origin,
            max_range,
            points,
            shed,
        })
    }
}

/// Whether the journal's tail was intact or damaged (and cleanly cut).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TailStatus {
    Clean,
    Truncated {
        /// Bytes of the valid prefix (header + whole records).
        valid_bytes: u64,
        /// Damaged bytes dropped after the prefix.
        dropped_bytes: u64,
    },
}

/// Everything a journal scan yields.
#[derive(Debug)]
pub(crate) struct JournalContents {
    pub header: JournalHeader,
    pub records: Vec<JournalRecord>,
    pub tail: TailStatus,
    /// Byte length of the valid prefix — where appends resume after a
    /// crash.
    pub valid_bytes: u64,
}

/// Reads a journal, stopping cleanly at the first damaged frame.
pub(crate) fn read_journal(path: &Path) -> Result<JournalContents, DurableError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| io_err(path, &e))?;
    let header = JournalHeader::decode(path, &bytes)?;
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    let mut last_epoch = 0u64;
    loop {
        let rest = &bytes[pos..];
        if rest.is_empty() {
            return Ok(JournalContents {
                header,
                records,
                tail: TailStatus::Clean,
                valid_bytes: pos as u64,
            });
        }
        let frame_ok = (|| {
            if rest.len() < 8 {
                return None;
            }
            let len = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
            let crc = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
            if len == 0 || len > MAX_PAYLOAD || rest.len() < 8 + len as usize {
                return None;
            }
            let payload = &rest[8..8 + len as usize];
            if crc32(payload) != crc {
                return None;
            }
            let record = JournalRecord::decode_payload(payload, header.version)?;
            if record.epoch <= last_epoch {
                return None;
            }
            Some((record, 8 + len as usize))
        })();
        match frame_ok {
            Some((record, consumed)) => {
                last_epoch = record.epoch;
                records.push(record);
                pos += consumed;
            }
            None => {
                return Ok(JournalContents {
                    header,
                    records,
                    tail: TailStatus::Truncated {
                        valid_bytes: pos as u64,
                        dropped_bytes: (bytes.len() - pos) as u64,
                    },
                    valid_bytes: pos as u64,
                });
            }
        }
    }
}

/// The append handle used by `DurableMap`.
#[derive(Debug)]
pub(crate) struct Journal {
    file: File,
    path: PathBuf,
    /// Format version appends must use — the header's version, so records
    /// appended after a resume stay parseable under the existing header.
    version: u8,
}

impl Journal {
    /// Creates a fresh journal: the header is published atomically (so a
    /// crash during creation leaves either no journal or a complete
    /// header), then the file is reopened for appends.
    pub fn create(
        dir: &Path,
        header: &JournalHeader,
        vfs: &mut Vfs,
    ) -> Result<Journal, DurableError> {
        vfs.write_atomic(dir, JOURNAL_FILE, &header.encode())?;
        Self::open_at_end(dir.join(JOURNAL_FILE), None, VERSION)
    }

    /// Reopens an existing journal for appends, first truncating any
    /// damaged tail to `valid_bytes`. `version` is the header's format
    /// version; appends keep encoding in it.
    pub(crate) fn open_truncated(
        path: PathBuf,
        valid_bytes: u64,
        version: u8,
    ) -> Result<Journal, DurableError> {
        Self::open_at_end(path, Some(valid_bytes), version)
    }

    fn open_at_end(
        path: PathBuf,
        truncate_to: Option<u64>,
        version: u8,
    ) -> Result<Journal, DurableError> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        if let Some(len) = truncate_to {
            file.set_len(len).map_err(|e| io_err(&path, &e))?;
            file.sync_data().map_err(|e| io_err(&path, &e))?;
        }
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(&path, &e))?;
        Ok(Journal {
            file,
            path,
            version,
        })
    }

    /// Whether this journal's format can record shed scans (version ≥ 2).
    /// Version-1 journals (resumed from a pre-flags run) record applied
    /// scans only — a shed scan is simply absent from the log.
    pub(crate) fn supports_shed(&self) -> bool {
        self.version >= 2
    }

    /// Appends one scan record (one persistence operation on `vfs`).
    /// Returns the frame size in bytes.
    pub fn append(&mut self, vfs: &mut Vfs, record: &JournalRecord) -> Result<u64, DurableError> {
        let frame = record.encode_frame(self.version);
        vfs.append(&mut self.file, &self.path, &frame)?;
        Ok(frame.len() as u64)
    }

    /// Forces the journal to disk (used on seal).
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.file.sync_data().map_err(|e| io_err(&self.path, &e))
    }
}
