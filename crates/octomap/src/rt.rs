//! The OctoMap-RT–style deduplicating ray tracer.
//!
//! OctoMap-RT (Min et al., RA-L 2023) accelerates OctoMap's ray tracing on
//! ray-tracing GPUs and, as a side effect of its buffer-based design,
//! *eliminates duplicated voxels within a batch* before the octree update.
//! Its octree insertion is unchanged from OctoMap. OctoMap-RT is not open
//! source, so the paper's authors reimplemented the algorithm on the Jetson
//! CPU (§5, footnote 8); this module is the same substitution: a CPU
//! deduplication pass with occupied-wins semantics.
//!
//! The resulting batches are what the paper's `OctoMap-RT` and
//! `OctoCache-RT` configurations consume.

use std::collections::HashMap;

use crate::insert::VoxelBatch;

/// Deduplicates a batch: one update per distinct voxel, first-seen order,
/// with occupied observations taking precedence over free ones (reference
/// OctoMap's `insertPointCloud` semantics).
pub fn dedup_batch(batch: &VoxelBatch) -> VoxelBatch {
    let mut index: HashMap<octocache_geom::VoxelKey, usize> = HashMap::with_capacity(batch.len());
    let mut out: Vec<crate::insert::VoxelUpdate> = Vec::with_capacity(batch.len() / 2);
    for u in batch.iter() {
        match index.get(&u.key) {
            Some(&i) => {
                if u.occupied && !out[i].occupied {
                    out[i].occupied = true;
                }
            }
            None => {
                index.insert(u.key, out.len());
                out.push(*u);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert::{apply_batch, compute_update, VoxelUpdate};
    use crate::occupancy::OccupancyParams;
    use crate::tree::OccupancyOcTree;
    use octocache_geom::{Point3, VoxelGrid, VoxelKey};

    #[test]
    fn dedup_keeps_first_seen_order() {
        let batch: VoxelBatch = [
            (VoxelKey::new(5, 5, 5), false),
            (VoxelKey::new(1, 1, 1), false),
            (VoxelKey::new(5, 5, 5), false),
            (VoxelKey::new(9, 9, 9), true),
            (VoxelKey::new(1, 1, 1), false),
        ]
        .into_iter()
        .map(|(key, occupied)| VoxelUpdate { key, occupied })
        .collect();
        let d = dedup_batch(&batch);
        let keys: Vec<VoxelKey> = d.iter().map(|u| u.key).collect();
        assert_eq!(
            keys,
            vec![
                VoxelKey::new(5, 5, 5),
                VoxelKey::new(1, 1, 1),
                VoxelKey::new(9, 9, 9)
            ]
        );
    }

    #[test]
    fn dedup_occupied_wins() {
        let batch: VoxelBatch = [
            (VoxelKey::new(5, 5, 5), false),
            (VoxelKey::new(5, 5, 5), true),
            (VoxelKey::new(5, 5, 5), false),
        ]
        .into_iter()
        .map(|(key, occupied)| VoxelUpdate { key, occupied })
        .collect();
        let d = dedup_batch(&batch);
        assert_eq!(d.len(), 1);
        assert!(d.updates()[0].occupied);
    }

    #[test]
    fn dedup_empty_batch() {
        assert!(dedup_batch(&VoxelBatch::new()).is_empty());
    }

    #[test]
    fn rt_pipeline_matches_discretized_voxel_set() {
        let grid = VoxelGrid::new(0.5, 8).unwrap();
        let cloud: Vec<Point3> = (0..40)
            .map(|i| Point3::new(5.0, (i as f64) * 0.05 - 1.0, 0.3))
            .collect();
        let mut raw = VoxelBatch::new();
        compute_update(&grid, Point3::ZERO, &cloud, 20.0, &mut raw).unwrap();
        let batch = dedup_batch(&raw);
        assert_eq!(batch.distinct_voxels(), batch.len());
        assert_eq!(batch.len(), raw.distinct_voxels());

        let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        apply_batch(&mut tree, &batch);
        assert_eq!(
            tree.is_occupied_at(Point3::new(5.0, 0.0, 0.3)).unwrap(),
            Some(true)
        );
    }
}
