//! Deterministic I/O fault injection for the durability layer.
//!
//! Extends the PR 3 in-memory [`FaultPlan`](crate::fault::FaultPlan) idea to
//! the filesystem: every persistence *operation* (one journal append, one
//! atomic file publication) consumes one slot of a global operation counter,
//! and an [`IoFaultPlan`] can schedule, at a chosen operation index:
//!
//! * a **kill** at a chosen [`KillPoint`] — the process "dies" (the
//!   operation aborts with [`DurableError::InjectedCrash`] after leaving
//!   exactly the on-disk state a real kill at that instant would leave:
//!   nothing, a short write, a complete-but-unrenamed temp file, or a
//!   renamed file with no follow-up);
//! * a **bit flip** — one bit of the payload is inverted before it reaches
//!   the disk, modelling silent corruption (the run continues; recovery
//!   must detect the damage via CRC/leaf checksums).
//!
//! Plans are plain data and always compiled (the branch they cost sits on
//! cold file-I/O paths, not the mapping hot path). They are test-only
//! failpoints: nothing schedules one unless a caller passes it to
//! [`DurableMap::create_with_io_faults`](super::DurableMap::create_with_io_faults).

use std::borrow::Cow;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;

use super::DurableError;

/// Where inside one persistence operation an injected kill fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Before any byte reaches the file: the operation leaves no trace.
    BeforeWrite,
    /// Mid-write: only a prefix of the bytes is persisted (a torn page /
    /// short write).
    MidWrite,
    /// After the data is written and synced but — for atomic operations —
    /// before the rename, so the temp file exists and the operation never
    /// took effect. For journal appends this is a kill right after the
    /// record became durable.
    AfterWrite,
    /// After the atomic rename took effect, before any follow-up step
    /// (e.g. a checkpoint file lands but the manifest still points at the
    /// previous generation).
    AfterRename,
}

impl KillPoint {
    /// All kill points, for test matrices.
    pub const ALL: [KillPoint; 4] = [
        KillPoint::BeforeWrite,
        KillPoint::MidWrite,
        KillPoint::AfterWrite,
        KillPoint::AfterRename,
    ];

    fn name(&self) -> &'static str {
        match self {
            KillPoint::BeforeWrite => "before",
            KillPoint::MidWrite => "mid",
            KillPoint::AfterWrite => "after",
            KillPoint::AfterRename => "rename",
        }
    }
}

impl fmt::Display for KillPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic schedule of at most one kill and one bit flip, addressed
/// by persistence-operation index (0-based, in execution order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoFaultPlan {
    /// Kill the process at this operation/point.
    pub kill: Option<(u64, KillPoint)>,
    /// Invert bit `bit % (len * 8)` of this operation's payload.
    pub flip: Option<(u64, u64)>,
}

impl IoFaultPlan {
    /// Derives a pseudo-random single-fault plan from a seed, using
    /// xorshift64* like [`FaultPlan::from_seed`](crate::fault::FaultPlan::from_seed).
    /// Even seeds schedule a kill, odd seeds a bit flip, so seed sweeps
    /// cover both fault classes.
    pub fn from_seed(seed: u64) -> IoFaultPlan {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let op = next() % 24;
        if seed.is_multiple_of(2) {
            let point = KillPoint::ALL[(next() % 4) as usize];
            IoFaultPlan {
                kill: Some((op, point)),
                flip: None,
            }
        } else {
            IoFaultPlan {
                kill: None,
                flip: Some((op, next() % 4096)),
            }
        }
    }

    /// Parses a spec string: comma-separated directives
    /// `kill:<point>@<op>` (point ∈ `before|mid|after|rename`) and
    /// `flip:<bit>@<op>`, or `seed:<n>` alone for the plan
    /// [`from_seed`](IoFaultPlan::from_seed) derives. Returns `None` for
    /// malformed specs. The CLI's `build --io-fault` takes this spec.
    ///
    /// ```
    /// # use octocache::durable::{IoFaultPlan, KillPoint};
    /// let p = IoFaultPlan::from_spec("kill:mid@3,flip:17@5").unwrap();
    /// assert_eq!(p.kill, Some((3, KillPoint::MidWrite)));
    /// assert_eq!(p.flip, Some((5, 17)));
    /// assert_eq!(IoFaultPlan::from_spec("seed:4"), Some(IoFaultPlan::from_seed(4)));
    /// ```
    pub fn from_spec(spec: &str) -> Option<IoFaultPlan> {
        if let Some(seed) = spec.trim().strip_prefix("seed:") {
            return seed.parse().ok().map(IoFaultPlan::from_seed);
        }
        let mut plan = IoFaultPlan::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, rest) = part.split_once(':')?;
            let (what, op) = rest.split_once('@')?;
            let op: u64 = op.parse().ok()?;
            match kind {
                "kill" => {
                    let point = match what {
                        "before" => KillPoint::BeforeWrite,
                        "mid" => KillPoint::MidWrite,
                        "after" => KillPoint::AfterWrite,
                        "rename" => KillPoint::AfterRename,
                        _ => return None,
                    };
                    plan.kill = Some((op, point));
                }
                "flip" => {
                    let bit: u64 = what.parse().ok()?;
                    plan.flip = Some((op, bit));
                }
                _ => return None,
            }
        }
        if plan.kill.is_none() && plan.flip.is_none() {
            None
        } else {
            Some(plan)
        }
    }
}

/// The durability layer's only gateway to the filesystem: counts persistence
/// operations, applies the [`IoFaultPlan`], and enforces the
/// write → fsync → rename discipline.
#[derive(Debug, Default)]
pub(crate) struct Vfs {
    plan: Option<IoFaultPlan>,
    op: u64,
}

impl Vfs {
    pub fn new(plan: Option<IoFaultPlan>) -> Vfs {
        Vfs { plan, op: 0 }
    }

    fn begin_op(&mut self) -> u64 {
        let op = self.op;
        self.op += 1;
        op
    }

    fn killed_at(&self, op: u64, point: KillPoint) -> Option<DurableError> {
        match self.plan {
            Some(IoFaultPlan {
                kill: Some((kop, kpoint)),
                ..
            }) if kop == op && kpoint == point => Some(DurableError::InjectedCrash { op, point }),
            _ => None,
        }
    }

    /// The payload this operation writes: `bytes` itself, or a copy with
    /// one bit inverted when the plan flips a bit on this operation.
    fn payload<'a>(&self, op: u64, bytes: &'a [u8]) -> Cow<'a, [u8]> {
        match self.plan {
            Some(IoFaultPlan {
                flip: Some((fop, bit)),
                ..
            }) if fop == op && !bytes.is_empty() => {
                let mut data = bytes.to_vec();
                let bit = bit % (data.len() as u64 * 8);
                data[(bit / 8) as usize] ^= 1 << (bit % 8);
                Cow::Owned(data)
            }
            _ => Cow::Borrowed(bytes),
        }
    }

    /// Appends `bytes` to an open (journal) file and fdatasyncs it. One
    /// persistence operation; kills model a process death before, during
    /// (prefix only) or after the record lands.
    pub fn append(
        &mut self,
        file: &mut File,
        path: &Path,
        bytes: &[u8],
    ) -> Result<(), DurableError> {
        let op = self.begin_op();
        if let Some(crash) = self.killed_at(op, KillPoint::BeforeWrite) {
            return Err(crash);
        }
        let data = self.payload(op, bytes);
        if let Some(crash) = self.killed_at(op, KillPoint::MidWrite) {
            let cut = data.len() / 2;
            file.write_all(&data[..cut]).map_err(|e| io_err(path, &e))?;
            let _ = file.sync_data();
            return Err(crash);
        }
        file.write_all(&data).map_err(|e| io_err(path, &e))?;
        if let Some(crash) = self.killed_at(op, KillPoint::AfterWrite) {
            let _ = file.sync_data();
            return Err(crash);
        }
        file.sync_data().map_err(|e| io_err(path, &e))?;
        if let Some(crash) = self.killed_at(op, KillPoint::AfterRename) {
            // No rename step on appends: `rename` degenerates to a kill
            // right after the fully durable record.
            return Err(crash);
        }
        Ok(())
    }

    /// Publishes `bytes` as `dir/name` atomically: write `name.tmp`, fsync
    /// it, rename over `name`, fsync the directory. One persistence
    /// operation.
    pub(crate) fn write_atomic(
        &mut self,
        dir: &Path,
        name: &str,
        bytes: &[u8],
    ) -> Result<(), DurableError> {
        let op = self.begin_op();
        let tmp = dir.join(format!("{name}.tmp"));
        let target = dir.join(name);
        if let Some(crash) = self.killed_at(op, KillPoint::BeforeWrite) {
            return Err(crash);
        }
        let data = self.payload(op, bytes);
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| io_err(&tmp, &e))?;
            if let Some(crash) = self.killed_at(op, KillPoint::MidWrite) {
                let cut = data.len() / 2;
                f.write_all(&data[..cut]).map_err(|e| io_err(&tmp, &e))?;
                let _ = f.sync_all();
                return Err(crash);
            }
            f.write_all(&data).map_err(|e| io_err(&tmp, &e))?;
            f.sync_all().map_err(|e| io_err(&tmp, &e))?;
        }
        if let Some(crash) = self.killed_at(op, KillPoint::AfterWrite) {
            return Err(crash);
        }
        fs::rename(&tmp, &target).map_err(|e| io_err(&target, &e))?;
        // Make the rename itself durable before reporting success.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        if let Some(crash) = self.killed_at(op, KillPoint::AfterRename) {
            return Err(crash);
        }
        Ok(())
    }
}

pub(crate) fn io_err(path: &Path, e: &std::io::Error) -> DurableError {
    DurableError::Io {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trip_and_rejects_garbage() {
        assert_eq!(
            IoFaultPlan::from_spec("kill:before@0").unwrap().kill,
            Some((0, KillPoint::BeforeWrite))
        );
        assert_eq!(
            IoFaultPlan::from_spec("kill:rename@7").unwrap().kill,
            Some((7, KillPoint::AfterRename))
        );
        assert_eq!(
            IoFaultPlan::from_spec("flip:9@2").unwrap().flip,
            Some((2, 9))
        );
        for bad in ["", "kill", "kill:x@1", "kill:mid@x", "boom:1@2", "flip:a@1"] {
            assert_eq!(IoFaultPlan::from_spec(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn seeds_are_deterministic_and_cover_both_classes() {
        for seed in 0..32 {
            assert_eq!(IoFaultPlan::from_seed(seed), IoFaultPlan::from_seed(seed));
        }
        assert!(IoFaultPlan::from_seed(2).kill.is_some());
        assert!(IoFaultPlan::from_seed(3).flip.is_some());
    }

    /// A flip inverts one bit (its index taken modulo the payload's bits)
    /// of its own operation's payload only; every other operation writes
    /// its bytes as given.
    #[test]
    fn a_flip_rewrites_one_bit_of_its_own_operation() {
        let dir = std::env::temp_dir().join(format!("octo-vfs-flip-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let payload = b"one journal record".to_vec();
        let bits = payload.len() as u64 * 8;
        let flipped = |bit: u64| {
            let mut p = payload.clone();
            p[(bit / 8) as usize] ^= 1 << (bit % 8);
            p
        };
        let path = dir.join("journal");
        let mut file = File::create(&path).unwrap();
        let mut vfs = Vfs::new(Some(IoFaultPlan {
            kill: None,
            flip: Some((1, 9)),
        }));
        vfs.append(&mut file, &path, &payload).unwrap();
        vfs.append(&mut file, &path, &payload).unwrap();
        vfs.write_atomic(&dir, "a", &payload).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            [payload.clone(), flipped(9)].concat()
        );
        assert_eq!(fs::read(dir.join("a")).unwrap(), payload);

        let mut vfs = Vfs::new(Some(IoFaultPlan {
            kill: None,
            flip: Some((0, bits + 3)),
        }));
        vfs.write_atomic(&dir, "b", &payload).unwrap();
        assert_eq!(fs::read(dir.join("b")).unwrap(), flipped(3));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kill_points_display() {
        for p in KillPoint::ALL {
            assert!(!p.to_string().is_empty());
        }
    }
}
