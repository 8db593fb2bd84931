//! Ray tracing through the voxel grid (OctoMap's `computeRayKeys`).
//!
//! Given a sensor origin and a measured surface point, [`trace_with`] computes
//! the keys of every voxel the ray crosses *between* the origin and the
//! endpoint using the Amanatides–Woo 3D digital differential analyzer. Those
//! voxels are observed as *free*; the endpoint voxel itself (which contains
//! the sampled obstacle surface) is *occupied* and is deliberately excluded,
//! matching OctoMap's convention where the caller updates the endpoint
//! separately. [`trace_with`] hands the keys to any [`KeySink`];
//! [`trace_into`] and [`trace`] collect them in a [`KeyRay`]. Where the CPU
//! has AVX-512, [`trace_lanes`] traces a whole scan's rays eight at a time
//! into a buffer of [`VoxelUpdate`]s, bit for bit as [`trace_with`] would.
//!
//! # Example
//!
//! ```
//! # use octocache_geom::{Point3, VoxelGrid, ray};
//! # fn main() -> Result<(), octocache_geom::GeomError> {
//! let grid = VoxelGrid::new(1.0, 8)?;
//! let keys = ray::trace(&grid, Point3::ZERO, Point3::new(3.5, 0.0, 0.0))?;
//! assert_eq!(keys.len(), 3); // crosses 3 free voxels before the endpoint
//! # Ok(())
//! # }
//! ```

use crate::{GeomError, Point3, VoxelGrid, VoxelKey};

/// A reusable buffer of voxel keys produced by ray traversal.
///
/// Mirrors OctoMap's `KeyRay`: allocate once, [`KeyRay::clear`] between rays.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyRay {
    keys: Vec<VoxelKey>,
}

impl KeyRay {
    /// Creates an empty ray buffer.
    pub fn new() -> Self {
        KeyRay::default()
    }

    /// Creates an empty buffer with space for `capacity` keys.
    pub fn with_capacity(capacity: usize) -> Self {
        KeyRay {
            keys: Vec::with_capacity(capacity),
        }
    }

    /// Number of keys currently stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Clears the buffer, retaining its allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.keys.clear();
    }

    /// The keys as a slice, in traversal order (origin first).
    #[inline]
    pub fn as_slice(&self) -> &[VoxelKey] {
        &self.keys
    }

    /// Iterates over the keys in traversal order.
    pub fn iter(&self) -> std::slice::Iter<'_, VoxelKey> {
        self.keys.iter()
    }
}

impl<'a> IntoIterator for &'a KeyRay {
    type Item = &'a VoxelKey;
    type IntoIter = std::slice::Iter<'a, VoxelKey>;
    fn into_iter(self) -> Self::IntoIter {
        self.keys.iter()
    }
}

impl IntoIterator for KeyRay {
    type Item = VoxelKey;
    type IntoIter = std::vec::IntoIter<VoxelKey>;
    fn into_iter(self) -> Self::IntoIter {
        self.keys.into_iter()
    }
}

impl From<KeyRay> for Vec<VoxelKey> {
    fn from(r: KeyRay) -> Self {
        r.keys
    }
}

/// Where [`trace_with`] hands the keys of a ray, in traversal order.
pub trait KeySink {
    /// Called once per ray, before its first key, with an upper bound on
    /// the number of keys the ray will push.
    fn reserve(&mut self, max_keys: usize);

    /// Takes the next key crossed.
    fn push(&mut self, key: VoxelKey);
}

impl KeySink for KeyRay {
    #[inline]
    fn reserve(&mut self, max_keys: usize) {
        self.keys.reserve(max_keys);
    }

    #[inline]
    fn push(&mut self, key: VoxelKey) {
        self.keys.push(key);
    }
}

/// Traces the ray from `origin` to `end`, appending the keys of the free
/// voxels crossed (excluding the endpoint voxel) to `out`.
///
/// `out` is cleared first. The traversal is exact: consecutive keys always
/// differ by one step along exactly one axis.
///
/// # Errors
///
/// Returns an error when either endpoint is non-finite or outside the grid.
pub fn trace_into(
    grid: &VoxelGrid,
    origin: Point3,
    end: Point3,
    out: &mut KeyRay,
) -> Result<(), GeomError> {
    out.clear();
    trace_with(grid, origin, end, out)
}

/// One voxel observation produced by ray tracing: a voxel a ray crossed
/// (free) or the voxel its endpoint lies in (occupied).
///
/// Eight bytes with a fixed layout (`key` at offset 0, `occupied` at 6), so
/// the lanes of [`trace_lanes`] store one as a single 64-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C)]
pub struct VoxelUpdate {
    /// The observed voxel.
    pub key: VoxelKey,
    /// Whether the observation is an occupied hit (`true`) or a free
    /// crossing (`false`).
    pub occupied: bool,
}

const _: () = {
    assert!(std::mem::size_of::<VoxelUpdate>() == 8);
    assert!(std::mem::offset_of!(VoxelUpdate, occupied) == 6);
    assert!(std::mem::offset_of!(VoxelKey, y) == 2);
    assert!(std::mem::offset_of!(VoxelKey, z) == 4);
};

/// What every ray from one sensor origin shares: the origin, its voxel and
/// that voxel's centre.
#[derive(Debug, Clone, Copy)]
struct Origin {
    point: Point3,
    key: VoxelKey,
    center: Point3,
}

impl Origin {
    fn new(grid: &VoxelGrid, point: Point3) -> Result<Origin, GeomError> {
        let key = grid.key_of(point)?;
        Ok(Origin {
            point,
            key,
            center: grid.center_of(key),
        })
    }
}

/// A ray's traversal state before its first step: the one per-ray set-up
/// that [`trace_with`] and the lanes of [`trace_lanes`] share.
#[derive(Debug, Clone, Copy)]
struct Setup {
    /// The voxel the ray starts in, its first key.
    origin: VoxelKey,
    /// The voxel the ray ends in, which it does not push.
    end: VoxelKey,
    step: [i32; 3],
    t_max: [f64; 3],
    t_delta: [f64; 3],
}

impl Setup {
    /// The set-up of the ray from `origin` to `end`; `None` when the ray
    /// crosses no voxel before its end voxel. A non-finite `end` fails
    /// first, then a bad origin, then an `end` outside the grid.
    fn new(
        grid: &VoxelGrid,
        origin: &Result<Origin, GeomError>,
        end: Point3,
    ) -> Result<Option<Setup>, GeomError> {
        if !end.is_finite() {
            return Err(GeomError::NotFinite);
        }
        let origin = origin.as_ref().map_err(GeomError::clone)?;
        let key_end = grid.key_of(end)?;
        if origin.key == key_end {
            return Ok(None);
        }

        let direction = end - origin.point;
        let length = direction.norm();
        if length <= f64::EPSILON {
            return Ok(None);
        }
        let dir = direction / length;

        let res = grid.resolution();
        let mut step = [0i32; 3];
        let mut t_max = [f64::INFINITY; 3];
        let mut t_delta = [f64::INFINITY; 3];

        let origin_arr = [origin.point.x, origin.point.y, origin.point.z];
        let dir_arr = [dir.x, dir.y, dir.z];
        let center_arr = [origin.center.x, origin.center.y, origin.center.z];

        for i in 0..3 {
            if dir_arr[i] > 1e-12 {
                step[i] = 1;
            } else if dir_arr[i] < -1e-12 {
                step[i] = -1;
            }
            if step[i] != 0 {
                // Distance from the origin to the first boundary crossed along i.
                let voxel_border = center_arr[i] + step[i] as f64 * res * 0.5 - origin_arr[i];
                t_max[i] = voxel_border / dir_arr[i];
                t_delta[i] = res / dir_arr[i].abs();
            }
        }
        Ok(Some(Setup {
            origin: origin.key,
            end: key_end,
            step,
            t_max,
            t_delta,
        }))
    }

    /// The Manhattan key distance from the origin voxel to the end voxel.
    /// A step moves one key component by one, always the same way along an
    /// axis, so a ray meets its end voxel after exactly this many steps or
    /// not within its `manhattan + 6` bound at all.
    fn manhattan(&self) -> u32 {
        self.origin.manhattan_distance(self.end)
    }
}

/// The one-ray DDA, and the oracle the lanes of [`trace_lanes`] are held
/// against: traces the ray from `origin` to `end` and pushes the keys
/// of the free voxels crossed (excluding the endpoint voxel) into `sink`,
/// which is not cleared. Before the first key it tells `sink` how many keys
/// the ray may push at most, so a growing buffer reserves once per ray.
///
/// # Errors
///
/// Returns an error when either endpoint is non-finite or outside the grid;
/// nothing has been pushed then.
pub fn trace_with(
    grid: &VoxelGrid,
    origin: Point3,
    end: Point3,
    sink: &mut impl KeySink,
) -> Result<(), GeomError> {
    let Some(ray) = Setup::new(grid, &Origin::new(grid, origin), end)? else {
        return Ok(());
    };
    let mut current = ray.origin;
    let mut t_max = ray.t_max;

    // Upper bound on steps: the Manhattan key distance plus slack for corner
    // crossings; prevents infinite loops on degenerate float input.
    let max_steps = ray.manhattan() as usize + 6;

    sink.reserve(max_steps + 1);
    sink.push(current);
    for _ in 0..max_steps {
        // Advance along the axis with the nearest boundary.
        let axis = if t_max[0] < t_max[1] {
            if t_max[0] < t_max[2] {
                0
            } else {
                2
            }
        } else if t_max[1] < t_max[2] {
            1
        } else {
            2
        };
        t_max[axis] += ray.t_delta[axis];
        match axis {
            0 => current.x = (current.x as i32 + ray.step[0]) as u16,
            1 => current.y = (current.y as i32 + ray.step[1]) as u16,
            _ => current.z = (current.z as i32 + ray.step[2]) as u16,
        }
        if current == ray.end {
            return Ok(());
        }
        sink.push(current);
    }
    // The endpoint is numerically adjacent; terminate quietly rather than
    // looping. (Matches OctoMap, which caps the ray length the same way.)
    Ok(())
}

/// True when this CPU runs the eight-lane kernel of [`trace_lanes`]
/// (AVX-512 F and BW).
pub fn lanes_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512bw")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Traces a scan's rays eight at a time. Each ray is `(end, hit)`; for each
/// in order, `out` gains the free voxels the ray crosses from `origin`, then
/// its end voxel as occupied when `hit` is set: bit for bit what
/// [`trace_with`] into `out` and one push of the hit would append.
///
/// Each lane runs one ray with [`trace_with`]'s set-up, f64 adds and
/// compares and tie rule (z over y over x), and takes the next ray as soon
/// as its own ends. A ray gets its region of `out`'s spare capacity when a
/// lane takes it, sized to its Manhattan key distance plus the hit: that is
/// exactly what a ray that meets its end voxel pushes, so the regions abut
/// and `out` needs no compaction. A ray that has not met its end voxel when
/// its region is full is traced again by [`trace_with`], which applies the
/// `manhattan + 6` bound, and its output replaces the region.
///
/// # Errors
///
/// As [`trace_with`], for the first ray that fails; the rays before it are
/// appended.
///
/// # Panics
///
/// When [`lanes_available`] is false.
pub fn trace_lanes(
    grid: &VoxelGrid,
    origin: Point3,
    rays: impl Iterator<Item = (Point3, bool)>,
    out: &mut Vec<VoxelUpdate>,
) -> Result<(), GeomError> {
    let mut redo = Vec::new();
    #[cfg(target_arch = "x86_64")]
    let traced = lanes::trace(grid, origin, rays, out, &mut redo);
    #[cfg(not(target_arch = "x86_64"))]
    let traced: Result<(), GeomError> = {
        let _ = (grid, origin, rays);
        panic!("trace_lanes needs AVX-512 F and BW");
    };
    // Last region first, so each splice leaves the earlier ones in place.
    redo.sort_unstable_by_key(|r: &Region| std::cmp::Reverse(r.start));
    let mut keys = KeyRay::new();
    for r in redo {
        trace_into(grid, origin, r.end, &mut keys)?;
        let free = keys.iter().map(|&key| VoxelUpdate {
            key,
            occupied: false,
        });
        let hit = r.hit.then(|| VoxelUpdate {
            key: grid.key_of(r.end).expect("traced above"),
            occupied: true,
        });
        out.splice(r.start..r.start + r.len, free.chain(hit));
    }
    traced
}

/// A ray's region of the lanes' output, and the ray: what a lane runs, and
/// what it hands back to [`trace_with`] when the ray does not fit.
#[derive(Debug, Clone, Copy)]
struct Region {
    start: usize,
    len: usize,
    end: Point3,
    hit: bool,
}

#[cfg(target_arch = "x86_64")]
mod lanes {
    use std::arch::x86_64::*;

    use super::{Origin, Region, Setup, VoxelUpdate};
    use crate::{GeomError, Point3, VoxelGrid, VoxelKey};

    const LANES: usize = 8;

    /// The lowest lane set in `lanes`.
    fn lane_of(lanes: __mmask8) -> usize {
        lanes.trailing_zeros() as usize
    }

    /// A key as a lane holds it: the word of a free [`VoxelUpdate`].
    fn word(key: VoxelKey) -> i64 {
        i64::from(key.x) | i64::from(key.y) << 16 | i64::from(key.z) << 32
    }

    /// One step along `axis` as a word: `step` in that axis's 16 bits, which
    /// `_mm512_add_epi16` adds with the `u16` wrap of [`super::trace_with`].
    fn delta(step: i32, axis: usize) -> i64 {
        i64::from(step as u16) << (16 * axis)
    }

    /// [`run`], on a CPU checked to have its features.
    pub(super) fn trace(
        grid: &VoxelGrid,
        origin: Point3,
        rays: impl Iterator<Item = (Point3, bool)>,
        out: &mut Vec<VoxelUpdate>,
        redo: &mut Vec<Region>,
    ) -> Result<(), GeomError> {
        assert!(
            super::lanes_available(),
            "trace_lanes needs AVX-512 F and BW"
        );
        // SAFETY: the CPU has AVX-512 F and BW (asserted above), the features
        // `run` is compiled for.
        unsafe { run(grid, origin, rays, out, redo) }
    }

    /// The lanes: trace `rays` into `out`'s spare capacity, growing it when
    /// a ray's region does not fit, and push each ray whose region filled
    /// before it met its end voxel onto `redo`. Every slot up to `out.len()`
    /// is written when this returns.
    #[target_feature(enable = "avx512f,avx512bw")]
    fn run(
        grid: &VoxelGrid,
        origin: Point3,
        mut rays: impl Iterator<Item = (Point3, bool)>,
        out: &mut Vec<VoxelUpdate>,
        redo: &mut Vec<Region>,
    ) -> Result<(), GeomError> {
        let inf = _mm512_set1_pd(f64::INFINITY);
        let zero = _mm512_setzero_si512();
        let one = _mm512_set1_epi64(1);
        // Per lane: the DDA's `t_max` and `t_delta`, the current key, the
        // end key and one step along each axis as words, the next slot to
        // write and the slots left in the ray's region.
        let (mut tx, mut ty, mut tz) = (inf, inf, inf);
        let (mut dx, mut dy, mut dz) = (inf, inf, inf);
        let (mut key, mut end) = (zero, zero);
        let (mut sx, mut sy, mut sz) = (zero, zero, zero);
        let (mut pos, mut left) = (zero, zero);
        // And, off the vectors, the lane's ray and its region.
        let mut ray = [Region {
            start: 0,
            len: 0,
            end: Point3::ZERO,
            hit: false,
        }; LANES];

        let mut active: __mmask8 = 0;
        let mut idle: __mmask8 = 0xff;
        let mut cursor = out.len();
        let mut base = out.as_mut_ptr();
        let from = Origin::new(grid, origin);
        // A ray whose region did not fit, with the slots it needs.
        let mut pending: Option<((Point3, bool), usize)> = None;
        let mut failed = None;
        let mut open = true;
        loop {
            // Refill: each idle lane takes the next ray with a voxel to step.
            while open && idle != 0 {
                let next = pending.take().map(|(r, _)| r).or_else(|| rays.next());
                let Some((point, hit)) = next else {
                    open = false;
                    break;
                };
                let setup = match Setup::new(grid, &from, point) {
                    Ok(setup) => setup,
                    Err(e) => {
                        failed = Some(e);
                        open = false;
                        break;
                    }
                };
                let free = setup.map_or(0, |s| s.manhattan() as usize);
                let need = free + usize::from(hit);
                if cursor + need > out.capacity() {
                    pending = Some(((point, hit), need));
                    open = false;
                    break;
                }
                let end_key = match setup {
                    Some(s) => s.end,
                    None => match grid.key_of(point) {
                        Ok(key) => key,
                        Err(e) => {
                            failed = Some(e);
                            open = false;
                            break;
                        }
                    },
                };
                if hit {
                    // SAFETY: `cursor + need` is within the capacity
                    // (checked above), and slot `cursor + free` is this
                    // ray's, after its free keys.
                    unsafe {
                        base.add(cursor + free).write(VoxelUpdate {
                            key: end_key,
                            occupied: true,
                        })
                    };
                }
                let Some(s) = setup else {
                    cursor += need;
                    continue;
                };
                // SAFETY: as for the hit; slot `cursor` is the ray's first.
                unsafe {
                    base.add(cursor).write(VoxelUpdate {
                        key: s.origin,
                        occupied: false,
                    })
                };
                let lane = lane_of(idle);
                let bit: __mmask8 = 1 << lane;
                let set = |v: __m512d, x: f64| _mm512_mask_mov_pd(v, bit, _mm512_set1_pd(x));
                let seti = |v: __m512i, x: i64| _mm512_mask_mov_epi64(v, bit, _mm512_set1_epi64(x));
                (tx, ty, tz) = (
                    set(tx, s.t_max[0]),
                    set(ty, s.t_max[1]),
                    set(tz, s.t_max[2]),
                );
                (dx, dy, dz) = (
                    set(dx, s.t_delta[0]),
                    set(dy, s.t_delta[1]),
                    set(dz, s.t_delta[2]),
                );
                key = seti(key, word(s.origin));
                end = seti(end, word(s.end));
                sx = seti(sx, delta(s.step[0], 0));
                sy = seti(sy, delta(s.step[1], 1));
                sz = seti(sz, delta(s.step[2], 2));
                pos = seti(pos, cursor as i64 + 1);
                left = seti(left, free as i64 - 1);
                ray[lane] = Region {
                    start: cursor,
                    len: need,
                    end: point,
                    hit,
                };
                cursor += need;
                active |= bit;
                idle &= !bit;
            }
            if active == 0 {
                let Some((_, need)) = pending.filter(|_| failed.is_none()) else {
                    break;
                };
                // Every lane is drained, so every slot below `cursor` is
                // written and a reallocation moves them all.
                // SAFETY: see above; `cursor` is within the capacity.
                unsafe { out.set_len(cursor) };
                out.reserve(need);
                base = out.as_mut_ptr();
                open = true;
                continue;
            }

            // Step the active lanes until one ends. The loop makes no call,
            // so the lane state stays in registers while it runs.
            let mut odd = loop {
                // One step of every active lane: the axis with the nearest
                // boundary, ties going to z over y over x.
                let x_lt_y = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(tx, ty);
                let x_lt_z = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(tx, tz);
                let y_lt_z = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ty, tz);
                let on_x = x_lt_y & x_lt_z;
                let on_y = !x_lt_y & y_lt_z;
                let on_z = !(on_x | on_y);
                tx = _mm512_mask_add_pd(tx, on_x, tx, dx);
                ty = _mm512_mask_add_pd(ty, on_y, ty, dy);
                tz = _mm512_mask_add_pd(tz, on_z, tz, dz);
                let step = _mm512_mask_blend_epi64(on_x, _mm512_mask_blend_epi64(on_y, sz, sy), sx);
                key = _mm512_add_epi16(key, step);
                let at_end = _mm512_cmpeq_epi64_mask(key, end);
                let full = _mm512_cmpeq_epi64_mask(left, zero);
                let push = active & !at_end & !full;
                if cfg!(debug_assertions) {
                    // SAFETY: both are eight `i64`s.
                    let at: [i64; LANES] = unsafe { std::mem::transmute(pos) };
                    for (lane, r) in ray.iter().enumerate() {
                        let at = at[lane] as usize;
                        debug_assert!(
                            push & (1 << lane) == 0
                                || (r.start < at && at < r.start + r.len - usize::from(r.hit)),
                            "lane {lane} writes slot {at} outside its region {r:?}"
                        );
                    }
                }
                // SAFETY: a pushing lane's `pos` is inside its ray's region (the
                // region holds `left` more keys, and `left` is not 0), which is
                // inside `out`'s capacity; `base` points at `out`'s buffer and
                // `VoxelUpdate` is the 8-byte word the lane holds.
                unsafe { _mm512_mask_i64scatter_epi64::<8>(base.cast(), push, pos, key) };
                pos = _mm512_mask_add_epi64(pos, push, pos, one);
                left = _mm512_mask_sub_epi64(left, push, left, one);
                let ended = active & (at_end | full);
                if ended != 0 {
                    active &= !ended;
                    idle |= ended;
                    // A ray is done when it meets its end voxel as its
                    // region fills; any other ending goes back to
                    // `trace_with`.
                    break ended & !(at_end & full);
                }
            };
            if odd != 0 {
                // SAFETY: both are eight `i64`s.
                let at: [i64; LANES] = unsafe { std::mem::transmute(pos) };
                while odd != 0 {
                    let lane = lane_of(odd);
                    let r = ray[lane];
                    // Slots the lane did not reach hold the origin key
                    // until the splice replaces the region.
                    for slot in at[lane] as usize..r.start + r.len - usize::from(r.hit) {
                        // SAFETY: inside the ray's region, as above.
                        unsafe {
                            base.add(slot).write(base.add(r.start).read());
                        }
                    }
                    redo.push(r);
                    odd &= odd - 1;
                }
            }
        }
        // SAFETY: every region below `cursor` is written: its first key and
        // hit when a lane took it, its other keys by the lane, a redo's
        // unreached slots by the lane's ending.
        unsafe { out.set_len(cursor) };
        failed.map_or(Ok(()), Err)
    }
}

/// Convenience wrapper around [`trace_into`] returning a fresh [`KeyRay`].
///
/// # Errors
///
/// See [`trace_into`].
pub fn trace(grid: &VoxelGrid, origin: Point3, end: Point3) -> Result<KeyRay, GeomError> {
    let mut out = KeyRay::new();
    trace_into(grid, origin, end, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid() -> VoxelGrid {
        VoxelGrid::new(1.0, 8).unwrap() // 256 voxels/axis, cube [-128, 128)
    }

    #[test]
    fn same_voxel_yields_empty_ray() {
        let g = grid();
        let r = trace(&g, Point3::new(0.1, 0.1, 0.1), Point3::new(0.4, 0.2, 0.3)).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn axis_aligned_ray_counts_voxels() {
        let g = grid();
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(4.5, 0.5, 0.5)).unwrap();
        // Voxels at x-offsets 0,1,2,3 are free; endpoint voxel (offset 4) excluded.
        assert_eq!(r.len(), 4);
        let first = *r.as_slice().first().unwrap();
        let last = *r.as_slice().last().unwrap();
        assert_eq!(first, g.key_of(Point3::new(0.5, 0.5, 0.5)).unwrap());
        assert_eq!(last.x, first.x + 3);
    }

    #[test]
    fn negative_direction_ray() {
        let g = grid();
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(-3.5, 0.5, 0.5)).unwrap();
        assert_eq!(r.len(), 4);
        let keys = r.as_slice();
        for w in keys.windows(2) {
            assert_eq!(w[0].x, w[1].x + 1);
        }
    }

    #[test]
    fn first_key_is_origin_voxel_endpoint_excluded() {
        let g = grid();
        let origin = Point3::new(0.2, 0.7, -0.3);
        let end = Point3::new(6.3, 4.1, 2.9);
        let r = trace(&g, origin, end).unwrap();
        assert_eq!(r.as_slice()[0], g.key_of(origin).unwrap());
        let end_key = g.key_of(end).unwrap();
        assert!(r.iter().all(|&k| k != end_key));
    }

    #[test]
    fn consecutive_keys_are_face_adjacent() {
        let g = grid();
        let r = trace(&g, Point3::new(0.1, 0.2, 0.3), Point3::new(9.8, 7.6, -5.4)).unwrap();
        for w in r.as_slice().windows(2) {
            assert_eq!(w[0].manhattan_distance(w[1]), 1, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn diagonal_ray_visits_expected_count() {
        let g = grid();
        // Perfect diagonal from voxel center: crosses ~3 voxels per unit cube
        // diagonal. From (0.5,0.5,0.5) to (3.5,3.5,3.5): keys differ by 3 per
        // axis -> manhattan distance 9, so 9 boundary crossings; 9 voxels
        // visited before the endpoint (including origin).
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(3.5, 3.5, 3.5)).unwrap();
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn out_of_bounds_endpoint_errors() {
        let g = grid();
        assert!(trace(&g, Point3::ZERO, Point3::new(1e6, 0.0, 0.0)).is_err());
        assert!(trace(&g, Point3::new(f64::NAN, 0.0, 0.0), Point3::ZERO).is_err());
    }

    #[test]
    fn buffer_reuse_clears_previous_contents() {
        let g = grid();
        let mut buf = KeyRay::with_capacity(64);
        trace_into(&g, Point3::ZERO, Point3::new(5.5, 0.5, 0.5), &mut buf).unwrap();
        let n1 = buf.len();
        assert!(n1 > 0);
        trace_into(&g, Point3::ZERO, Point3::new(0.2, 0.2, 0.2), &mut buf).unwrap();
        assert!(buf.is_empty());
    }

    #[test]
    fn into_iterators() {
        let g = grid();
        let r = trace(&g, Point3::new(0.5, 0.5, 0.5), Point3::new(3.5, 0.5, 0.5)).unwrap();
        let by_ref: Vec<_> = (&r).into_iter().copied().collect();
        let owned: Vec<_> = r.clone().into_iter().collect();
        assert_eq!(by_ref, owned);
        let v: Vec<VoxelKey> = r.into();
        assert_eq!(v, owned);
    }

    proptest! {
        #[test]
        fn prop_ray_keys_adjacent_and_unique(
            ox in -20.0f64..20.0, oy in -20.0f64..20.0, oz in -20.0f64..20.0,
            ex in -20.0f64..20.0, ey in -20.0f64..20.0, ez in -20.0f64..20.0,
        ) {
            let g = grid();
            let origin = Point3::new(ox, oy, oz);
            let end = Point3::new(ex, ey, ez);
            let r = trace(&g, origin, end).unwrap();
            let keys = r.as_slice();
            for w in keys.windows(2) {
                prop_assert_eq!(w[0].manhattan_distance(w[1]), 1);
            }
            let mut sorted: Vec<_> = keys.to_vec();
            sorted.sort();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), keys.len(), "ray revisited a voxel");
            // Length sanity: between chebyshev and manhattan key distance.
            let (ko, ke) = (g.key_of(origin).unwrap(), g.key_of(end).unwrap());
            if ko != ke {
                prop_assert!(keys.len() as u32 >= ko.chebyshev_distance(ke) as u32);
                prop_assert!(keys.len() as u32 <= ko.manhattan_distance(ke) + 6);
            }
        }

        #[test]
        fn prop_every_ray_voxel_near_segment(
            ex in -15.0f64..15.0, ey in -15.0f64..15.0, ez in -15.0f64..15.0,
        ) {
            let g = grid();
            let origin = Point3::new(0.3, -0.2, 0.6);
            let end = Point3::new(ex, ey, ez);
            let r = trace(&g, origin, end).unwrap();
            let dir = end - origin;
            let len2 = dir.norm_squared().max(1e-12);
            for &k in r.as_slice() {
                let c = g.center_of(k);
                // Project the voxel center onto the segment; the distance to
                // the segment must be below half the voxel diagonal.
                let t = ((c - origin).dot(dir) / len2).clamp(0.0, 1.0);
                let closest = origin + dir * t;
                prop_assert!(c.distance(closest) <= 3f64.sqrt() / 2.0 + 1e-9);
            }
        }
    }
}
