//! Point-cloud insertion: the OctoMap generation workflow of the paper's
//! Figure 4 (ray tracing → voxel batch → octree update).
//!
//! A sensor scan is a set of 3D points sampled on obstacle surfaces. For each
//! point, a ray from the sensor origin marks every crossed voxel *free* and
//! the endpoint voxel *occupied*. The resulting [`VoxelBatch`] preserves the
//! raw ray order — the paper's "original order in OctoMap generated from ray
//! tracing" (Figure 10) — including all duplicates, because duplicated voxel
//! updates reaching the octree are precisely the inefficiency OctoCache
//! exploits (§3.1).
//!
//! Two insertion policies are provided:
//!
//! * [`insert_point_cloud`] — the paper's baseline: every ray-traced voxel
//!   observation is applied to the tree individually.
//! * [`insert_point_cloud_discretized`] — reference OctoMap's set-based
//!   variant that deduplicates within the batch first (one update per voxel,
//!   occupied observations win); used for comparisons.

pub use octocache_geom::ray::VoxelUpdate;
use octocache_geom::ray::{self, KeySink};
use octocache_geom::{GeomError, Point3, VoxelGrid, VoxelKey};

use crate::tree::OccupancyOcTree;

/// A batch of voxel observations from one scan, in raw ray-traced order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VoxelBatch {
    updates: Vec<VoxelUpdate>,
    num_occupied: usize,
}

impl VoxelBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        VoxelBatch::default()
    }

    /// Creates an empty batch with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        VoxelBatch {
            updates: Vec::with_capacity(capacity),
            num_occupied: 0,
        }
    }

    /// Appends one observation.
    #[inline]
    pub fn push(&mut self, key: VoxelKey, occupied: bool) {
        self.updates.push(VoxelUpdate { key, occupied });
        if occupied {
            self.num_occupied += 1;
        }
    }

    /// The observations in ray-traced order.
    #[inline]
    pub fn updates(&self) -> &[VoxelUpdate] {
        &self.updates
    }

    /// Total observations (including duplicates).
    #[inline]
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when the batch holds no observations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Number of occupied observations.
    #[inline]
    pub fn num_occupied(&self) -> usize {
        self.num_occupied
    }

    /// Number of free observations.
    #[inline]
    pub fn num_free(&self) -> usize {
        self.updates.len() - self.num_occupied
    }

    /// Clears the batch, retaining allocations.
    pub fn clear(&mut self) {
        self.updates.clear();
        self.num_occupied = 0;
    }

    /// Number of *distinct* voxels in the batch.
    pub fn distinct_voxels(&self) -> usize {
        let mut keys: Vec<VoxelKey> = self.updates.iter().map(|u| u.key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Intra-batch duplication factor: total observations over distinct
    /// voxels (the paper reports 2.78–31.32× for the evaluated datasets).
    pub fn duplication_factor(&self) -> f64 {
        let d = self.distinct_voxels();
        if d == 0 {
            0.0
        } else {
            self.len() as f64 / d as f64
        }
    }

    /// Iterates over the observations.
    pub fn iter(&self) -> std::slice::Iter<'_, VoxelUpdate> {
        self.updates.iter()
    }
}

impl<'a> IntoIterator for &'a VoxelBatch {
    type Item = &'a VoxelUpdate;
    type IntoIter = std::slice::Iter<'a, VoxelUpdate>;
    fn into_iter(self) -> Self::IntoIter {
        self.updates.iter()
    }
}

impl FromIterator<VoxelUpdate> for VoxelBatch {
    fn from_iter<I: IntoIterator<Item = VoxelUpdate>>(iter: I) -> Self {
        let mut batch = VoxelBatch::new();
        for u in iter {
            batch.push(u.key, u.occupied);
        }
        batch
    }
}

impl Extend<VoxelUpdate> for VoxelBatch {
    fn extend<I: IntoIterator<Item = VoxelUpdate>>(&mut self, iter: I) {
        for u in iter {
            self.push(u.key, u.occupied);
        }
    }
}

/// The one way a scan is rejected: its sensor origin is non-finite or
/// outside the map. Callers with work to do before ray tracing (the
/// parallel pipeline's hand-off) check it first, so a rejected scan
/// touches nothing.
///
/// # Errors
///
/// [`GeomError::NotFinite`] or [`GeomError::OutOfBounds`].
pub fn check_origin(grid: &VoxelGrid, origin: Point3) -> Result<(), GeomError> {
    if !origin.is_finite() {
        return Err(GeomError::NotFinite);
    }
    grid.key_of(origin).map(|_| ())
}

/// Ray-traces one scan into a voxel batch, appending to `out` (cleared
/// first). Each ray is traced straight into the batch: its crossed voxels
/// are free observations, then its endpoint voxel an occupied one. Where the
/// CPU has AVX-512 the rays are traced eight at a time
/// ([`ray::trace_lanes`]); elsewhere one at a time through
/// [`ray::trace_with`]. The batch is the same bit for bit.
///
/// Each point beyond `max_range` from the origin is truncated to
/// `max_range` and contributes only free voxels (no endpoint hit), matching
/// reference OctoMap. Points outside the map cube are clamped to its
/// boundary.
///
/// # Errors
///
/// Returns [`GeomError`] when the sensor origin itself is non-finite or
/// outside the map.
pub fn compute_update(
    grid: &VoxelGrid,
    origin: Point3,
    cloud: &[Point3],
    max_range: f64,
    out: &mut VoxelBatch,
) -> Result<(), GeomError> {
    out.clear();
    check_origin(grid, origin)?;
    let mut hits = 0;
    let mut rays = cloud.iter().filter(|p| p.is_finite()).map(|&point| {
        let delta = point - origin;
        let dist = delta.norm();
        let (end, hit) = if max_range > 0.0 && dist > max_range {
            (origin + delta * (max_range / dist), false)
        } else {
            (point, true)
        };
        hits += usize::from(hit);
        (grid.clamp_point(end), hit)
    });
    let updates = &mut out.updates;
    let traced = if ray::lanes_available() {
        ray::trace_lanes(grid, origin, rays, updates)
    } else {
        rays.try_for_each(|(end, hit)| {
            ray::trace_with(grid, origin, end, &mut FreeCrossings(updates))?;
            if hit {
                updates.push(VoxelUpdate {
                    key: grid.key_of(end)?,
                    occupied: true,
                });
            }
            Ok(())
        })
    };
    out.num_occupied = match traced {
        Ok(()) => hits,
        // The failing ray was counted but not traced.
        Err(_) => out.updates.iter().filter(|u| u.occupied).count(),
    };
    traced
}

/// A batch's observations as a ray's [`KeySink`]: every voxel crossed is a
/// free observation, and room is reserved for the ray's endpoint hit too.
struct FreeCrossings<'a>(&'a mut Vec<VoxelUpdate>);

impl KeySink for FreeCrossings<'_> {
    #[inline]
    fn reserve(&mut self, max_keys: usize) {
        self.0.reserve(max_keys + 1);
    }

    #[inline]
    fn push(&mut self, key: VoxelKey) {
        self.0.push(VoxelUpdate {
            key,
            occupied: false,
        });
    }
}

/// Applies a batch to the tree in order, one update per observation — the
/// paper's baseline OctoMap behaviour where every duplicate reaches the
/// octree.
pub fn apply_batch(tree: &mut OccupancyOcTree, batch: &VoxelBatch) {
    for u in batch.iter() {
        tree.update_node(u.key, u.occupied);
    }
}

/// Report of one point-cloud insertion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertionReport {
    /// Rays traced (= points within the cloud that were processed).
    pub rays: usize,
    /// Voxel observations applied to the tree.
    pub updates_applied: usize,
    /// Distinct voxels among the observations.
    pub distinct_voxels: usize,
}

/// Ray-traces and inserts one scan with the raw (duplicate-preserving)
/// policy.
///
/// # Errors
///
/// See [`compute_update`].
pub fn insert_point_cloud(
    tree: &mut OccupancyOcTree,
    origin: Point3,
    cloud: &[Point3],
    max_range: f64,
) -> Result<InsertionReport, GeomError> {
    let mut batch = VoxelBatch::with_capacity(cloud.len() * 8);
    compute_update(tree.grid(), origin, cloud, max_range, &mut batch)?;
    apply_batch(tree, &batch);
    Ok(InsertionReport {
        rays: cloud.len(),
        updates_applied: batch.len(),
        distinct_voxels: batch.distinct_voxels(),
    })
}

/// Ray-traces and inserts one scan with reference OctoMap's discretised
/// policy: the batch is reduced to one update per distinct voxel first
/// (occupied wins over free), then applied.
///
/// # Errors
///
/// See [`compute_update`].
pub fn insert_point_cloud_discretized(
    tree: &mut OccupancyOcTree,
    origin: Point3,
    cloud: &[Point3],
    max_range: f64,
) -> Result<InsertionReport, GeomError> {
    let mut batch = VoxelBatch::with_capacity(cloud.len() * 8);
    compute_update(tree.grid(), origin, cloud, max_range, &mut batch)?;
    let deduped = crate::rt::dedup_batch(&batch);
    apply_batch(tree, &deduped);
    Ok(InsertionReport {
        rays: cloud.len(),
        updates_applied: deduped.len(),
        distinct_voxels: deduped.len(),
    })
}

/// Traces and inserts a single ray (free voxels along it, occupied
/// endpoint).
///
/// # Errors
///
/// See [`compute_update`].
pub fn insert_ray(
    tree: &mut OccupancyOcTree,
    origin: Point3,
    end: Point3,
) -> Result<(), GeomError> {
    let grid = *tree.grid();
    let keys = ray::trace(&grid, origin, grid.clamp_point(end))?;
    for &k in keys.as_slice() {
        tree.update_node(k, false);
    }
    tree.update_node(grid.key_of(grid.clamp_point(end))?, true);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::occupancy::OccupancyParams;

    fn tree() -> OccupancyOcTree {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        OccupancyOcTree::new(grid, OccupancyParams::default())
    }

    #[test]
    fn batch_counts() {
        let mut b = VoxelBatch::new();
        b.push(VoxelKey::new(1, 1, 1), false);
        b.push(VoxelKey::new(1, 1, 1), false);
        b.push(VoxelKey::new(2, 2, 2), true);
        assert_eq!(b.len(), 3);
        assert_eq!(b.num_occupied(), 1);
        assert_eq!(b.num_free(), 2);
        assert_eq!(b.distinct_voxels(), 2);
        assert!((b.duplication_factor() - 1.5).abs() < 1e-12);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.duplication_factor(), 0.0);
    }

    #[test]
    fn compute_update_marks_endpoint_occupied() {
        let t = tree();
        let mut batch = VoxelBatch::new();
        let end = Point3::new(3.0, 0.2, 0.2);
        compute_update(t.grid(), Point3::ZERO, &[end], 10.0, &mut batch).unwrap();
        let end_key = t.grid().key_of(end).unwrap();
        let last = batch.updates().last().unwrap();
        assert_eq!(last.key, end_key);
        assert!(last.occupied);
        assert!(batch.num_free() > 0);
        // Free voxels never include the endpoint.
        assert!(batch
            .iter()
            .filter(|u| !u.occupied)
            .all(|u| u.key != end_key));
    }

    #[test]
    fn max_range_truncates_to_free_only() {
        let t = tree();
        let mut batch = VoxelBatch::new();
        let far = Point3::new(50.0, 0.0, 0.0);
        compute_update(t.grid(), Point3::ZERO, &[far], 5.0, &mut batch).unwrap();
        assert_eq!(batch.num_occupied(), 0);
        assert!(batch.num_free() > 0);
        // No free voxel lies beyond max_range + one voxel of slack.
        for u in batch.iter() {
            let c = t.grid().center_of(u.key);
            assert!(c.norm() <= 5.0 + 0.5);
        }
    }

    #[test]
    fn non_finite_points_are_skipped() {
        let t = tree();
        let mut batch = VoxelBatch::new();
        compute_update(
            t.grid(),
            Point3::ZERO,
            &[Point3::new(f64::NAN, 0.0, 0.0), Point3::new(2.0, 0.0, 0.0)],
            10.0,
            &mut batch,
        )
        .unwrap();
        assert_eq!(batch.num_occupied(), 1);
    }

    #[test]
    fn non_finite_origin_errors() {
        let t = tree();
        let mut batch = VoxelBatch::new();
        let err = compute_update(
            t.grid(),
            Point3::new(f64::INFINITY, 0.0, 0.0),
            &[Point3::ZERO],
            10.0,
            &mut batch,
        );
        assert!(err.is_err());
    }

    #[test]
    fn insert_point_cloud_builds_occupied_surface() {
        let mut t = tree();
        let cloud = vec![
            Point3::new(4.0, 0.0, 0.0),
            Point3::new(4.0, 0.5, 0.0),
            Point3::new(4.0, 1.0, 0.0),
        ];
        let report = insert_point_cloud(&mut t, Point3::ZERO, &cloud, 20.0).unwrap();
        assert_eq!(report.rays, 3);
        assert!(report.updates_applied >= report.distinct_voxels);
        for p in &cloud {
            assert_eq!(t.is_occupied_at(*p).unwrap(), Some(true));
        }
        // Space between origin and surface is free.
        assert_eq!(
            t.is_occupied_at(Point3::new(2.0, 0.2, 0.0)).unwrap(),
            Some(false)
        );
    }

    #[test]
    fn discretized_applies_fewer_updates() {
        let cloud: Vec<Point3> = (0..30)
            .map(|i| Point3::new(4.0, (i as f64) * 0.01, 0.0)) // dense: same voxels
            .collect();
        let mut t1 = tree();
        let raw = insert_point_cloud(&mut t1, Point3::ZERO, &cloud, 20.0).unwrap();
        let mut t2 = tree();
        let disc = insert_point_cloud_discretized(&mut t2, Point3::ZERO, &cloud, 20.0).unwrap();
        assert!(disc.updates_applied < raw.updates_applied);
        assert_eq!(disc.updates_applied, raw.distinct_voxels);
        // Both agree the surface voxel is occupied.
        let key = t1.grid().key_of(Point3::new(4.0, 0.1, 0.0)).unwrap();
        assert_eq!(t1.is_occupied(key), Some(true));
        assert_eq!(t2.is_occupied(key), Some(true));
    }

    #[test]
    fn insert_ray_marks_path_free() {
        let mut t = tree();
        insert_ray(&mut t, Point3::ZERO, Point3::new(3.0, 0.0, 0.0)).unwrap();
        assert_eq!(
            t.is_occupied_at(Point3::new(1.5, 0.0, 0.0)).unwrap(),
            Some(false)
        );
        assert_eq!(
            t.is_occupied_at(Point3::new(3.0, 0.0, 0.0)).unwrap(),
            Some(true)
        );
    }

    #[test]
    fn batch_from_and_into_iterator() {
        let updates = vec![
            VoxelUpdate {
                key: VoxelKey::new(1, 2, 3),
                occupied: true,
            },
            VoxelUpdate {
                key: VoxelKey::new(4, 5, 6),
                occupied: false,
            },
        ];
        let batch: VoxelBatch = updates.iter().copied().collect();
        assert_eq!(batch.len(), 2);
        assert_eq!(batch.num_occupied(), 1);
        let round: Vec<VoxelUpdate> = (&batch).into_iter().copied().collect();
        assert_eq!(round, updates);
        let mut b2 = VoxelBatch::new();
        b2.extend(updates.clone());
        assert_eq!(b2.len(), 2);
    }
}
