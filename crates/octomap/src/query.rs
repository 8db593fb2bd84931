//! Extended query operations on the occupancy octree: ray casting,
//! multi-resolution lookups and bounding-box scans.
//!
//! These mirror reference OctoMap's planner-facing API (`castRay`,
//! `getTreeDepth`-limited search, leaf bounding-box iterators): the
//! navigation stack of the paper's Figure 3 consumes exactly these calls
//! during the planning stage.

use octocache_geom::{morton, ray, Aabb, GeomError, Point3, VoxelKey};

use crate::tree::{LeafEntry, OccupancyOcTree};

/// Result of a [`cast_ray`] query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RayCastResult {
    /// The ray reached an occupied voxel; carries its key and the metric
    /// distance from the origin to that voxel's center.
    Hit {
        /// The first occupied voxel along the ray.
        key: VoxelKey,
        /// Distance from the ray origin to the voxel center (metres).
        distance: f64,
    },
    /// The ray traversed only free/unknown space up to `max_range`.
    Miss,
    /// The ray left known space and `ignore_unknown` was false; carries the
    /// first unknown voxel.
    Unknown {
        /// The first voxel with no occupancy information.
        key: VoxelKey,
    },
}

/// Casts a ray from `origin` in `direction` until it hits an occupied
/// voxel, reaches `max_range`, or (unless `ignore_unknown`) enters unknown
/// space — reference OctoMap's `castRay`.
///
/// `direction` need not be normalised.
///
/// Two boundary rules match reference OctoMap:
///
/// - an origin inside an occupied voxel reports an immediate
///   [`RayCastResult::Hit`] at distance zero, rather than sailing through
///   its own voxel;
/// - a voxel only counts (as hit or unknown) while its *center* lies within
///   `max_range`. In particular a ray terminating exactly on a voxel face
///   does not report the voxel behind that face — it only ever touches the
///   boundary, never enters — so the cast resolves to
///   [`RayCastResult::Miss`].
///
/// # Errors
///
/// Returns [`GeomError`] when the origin is outside the map or the
/// direction is degenerate.
pub fn cast_ray(
    tree: &OccupancyOcTree,
    origin: Point3,
    direction: Point3,
    max_range: f64,
    ignore_unknown: bool,
) -> Result<RayCastResult, GeomError> {
    let dir = direction.normalized().ok_or(GeomError::DegenerateRay)?;
    let grid = *tree.grid();
    let end = grid.clamp_point(origin + dir * max_range);
    let keys = ray::trace(&grid, origin, end)?;
    let origin_key = grid.key_of(origin)?;
    // Reference OctoMap checks the starting voxel before stepping: a sensor
    // inside an occupied voxel is already in collision.
    if let Some(l) = tree.search(origin_key) {
        if tree.params().is_occupied(l) {
            return Ok(RayCastResult::Hit {
                key: origin_key,
                distance: 0.0,
            });
        }
    }
    // Include the endpoint voxel itself in the scan; the max-range cut
    // below rejects it again when the ray merely grazes its near face.
    let end_key = grid.key_of(end)?;
    let max_range_sq = max_range * max_range;
    for key in keys.iter().copied().chain(std::iter::once(end_key)) {
        if key == origin_key {
            continue;
        }
        match tree.search(key) {
            Some(l) if tree.params().is_occupied(l) => {
                let center = grid.center_of(key);
                if origin.distance_squared(center) > max_range_sq {
                    return Ok(RayCastResult::Miss);
                }
                return Ok(RayCastResult::Hit {
                    key,
                    distance: origin.distance(center),
                });
            }
            Some(_) => {}
            None => {
                if !ignore_unknown {
                    if origin.distance_squared(grid.center_of(key)) > max_range_sq {
                        return Ok(RayCastResult::Miss);
                    }
                    return Ok(RayCastResult::Unknown { key });
                }
            }
        }
    }
    Ok(RayCastResult::Miss)
}

/// Traversal statistics from one [`batch_search`] call.
///
/// `nodes_reused + nodes_visited` is the total number of root-to-leaf path
/// nodes the batch needed; a one-at-a-time loop over `tree.search` would
/// have visited all of them. The reuse fraction is the read-path analogue
/// of the cache's locality theorem (§4.3): Morton-adjacent queries share
/// long root prefixes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of lookups answered.
    pub queries: u64,
    /// Path nodes freshly descended into.
    pub nodes_visited: u64,
    /// Path nodes reused from the previous (Morton-adjacent) query's
    /// descent instead of being re-fetched from the root.
    pub nodes_reused: u64,
}

impl BatchStats {
    /// Fraction of path nodes served from the shared prefix, in `[0, 1]`.
    pub fn reuse_fraction(&self) -> f64 {
        let total = self.nodes_visited + self.nodes_reused;
        if total == 0 {
            0.0
        } else {
            self.nodes_reused as f64 / total as f64
        }
    }

    /// Accumulates another batch's counters into `self`.
    pub fn merge(&mut self, other: &BatchStats) {
        self.queries += other.queries;
        self.nodes_visited += other.nodes_visited;
        self.nodes_reused += other.nodes_reused;
    }
}

/// Looks up the log-odds of every key in `keys`, reusing root-to-leaf
/// traversal prefixes across Morton-adjacent queries.
///
/// The queries are answered through one
/// [`read_cursor`](OccupancyOcTree::read_cursor) in ascending Morton order —
/// two consecutive keys in that order share every ancestor at or above
/// their common-ancestor level, so the descent restarts from the deepest
/// shared path node instead of the root — but results are returned in
/// **input order**: `out[i]` is exactly `tree.search(keys[i])`. Duplicate
/// keys cost a single descent.
pub fn batch_search(tree: &OccupancyOcTree, keys: &[VoxelKey]) -> (Vec<Option<f32>>, BatchStats) {
    let mut values: Vec<Option<f32>> = vec![None; keys.len()];
    let mut cursor = tree.read_cursor();
    for qi in morton::sort_index(keys) {
        values[qi as usize] = cursor.search(keys[qi as usize]);
    }
    let stats = BatchStats {
        queries: keys.len() as u64,
        nodes_visited: cursor.nodes_visited(),
        nodes_reused: cursor.nodes_reused(),
    };
    (values, stats)
}

/// Looks up the occupancy at `key` truncated to `level` levels above the
/// leaves — a multi-resolution query against the pruned tree structure
/// (reference OctoMap's depth-limited `search`).
///
/// Returns the log-odds of the deepest node at or above `level` covering
/// the key, or `None` in unknown space. At `level = 0` this equals
/// [`OccupancyOcTree::search`].
pub fn search_at_level(tree: &OccupancyOcTree, key: VoxelKey, level: u8) -> Option<f32> {
    let depth = tree.grid().depth();
    let level = level.min(depth);
    // Walk leaves() would be O(n); instead re-descend manually.
    let mut node = tree.root_ref()?;
    let mut current = depth;
    while current > level {
        if !node.has_children() {
            return Some(node.log_odds());
        }
        node = node.child(key.child_index(current - 1))?;
        current -= 1;
    }
    Some(node.log_odds())
}

/// Collects the leaves whose cubes intersect the world-space box — the
/// bounding-box scan planners use for local collision maps (reference
/// OctoMap's `begin_leafs_bbx`).
///
/// # Errors
///
/// Returns [`GeomError`] when the box lies outside the mapped region.
pub fn leaves_in_box(tree: &OccupancyOcTree, bounds: &Aabb) -> Result<Vec<LeafEntry>, GeomError> {
    let grid = tree.grid();
    let min_key = grid.key_of(grid.clamp_point(bounds.min))?;
    let max_key = grid.key_of(grid.clamp_point(bounds.max))?;
    Ok(tree.leaves_in_key_box(min_key, max_key).collect())
}

/// True when any voxel overlapping `bounds` is occupied — the all-at-once
/// collision check for a robot's bounding volume.
///
/// # Errors
///
/// See [`leaves_in_box`].
pub fn any_occupied_in_box(tree: &OccupancyOcTree, bounds: &Aabb) -> Result<bool, GeomError> {
    Ok(leaves_in_box(tree, bounds)?
        .iter()
        .any(|leaf| tree.params().is_occupied(leaf.log_odds)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insert;
    use crate::occupancy::OccupancyParams;
    use octocache_geom::VoxelGrid;

    /// A map with a wall plane at x = 5 spanning y,z in [-2, 2].
    fn walled_tree() -> OccupancyOcTree {
        let grid = VoxelGrid::new(0.25, 8).unwrap();
        let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        let cloud: Vec<Point3> = (-8..=8)
            .flat_map(|y| (-8..=8).map(move |z| Point3::new(5.0, y as f64 * 0.25, z as f64 * 0.25)))
            .collect();
        for _ in 0..2 {
            insert::insert_point_cloud(&mut tree, Point3::ZERO, &cloud, 20.0).unwrap();
        }
        tree
    }

    #[test]
    fn cast_ray_hits_wall() {
        let tree = walled_tree();
        let result = cast_ray(&tree, Point3::ZERO, Point3::new(1.0, 0.0, 0.0), 20.0, true).unwrap();
        match result {
            RayCastResult::Hit { distance, key } => {
                assert!((distance - 5.0).abs() < 0.5, "distance {distance}");
                assert_eq!(tree.is_occupied(key), Some(true));
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn cast_ray_miss_within_free_space() {
        let tree = walled_tree();
        // Cast away from the wall but only through scanned free space.
        let result = cast_ray(
            &tree,
            Point3::ZERO,
            Point3::new(1.0, 0.0, 0.0),
            2.0, // stops before the wall
            true,
        )
        .unwrap();
        assert_eq!(result, RayCastResult::Miss);
    }

    #[test]
    fn cast_ray_reports_unknown() {
        let tree = walled_tree();
        // Cast backwards into never-scanned space.
        let result = cast_ray(
            &tree,
            Point3::ZERO,
            Point3::new(-1.0, 0.0, 0.0),
            10.0,
            false,
        )
        .unwrap();
        assert!(matches!(result, RayCastResult::Unknown { .. }));
        // With ignore_unknown it sails through.
        let result =
            cast_ray(&tree, Point3::ZERO, Point3::new(-1.0, 0.0, 0.0), 10.0, true).unwrap();
        assert_eq!(result, RayCastResult::Miss);
    }

    #[test]
    fn cast_ray_terminating_exactly_on_voxel_face_misses() {
        // Regression: the wall's near faces sit at x = 4.875 (voxel centers
        // at 5.0, resolution 0.25). A ray from the origin whose max range
        // ends *exactly* on that face touches the occupied voxel's boundary
        // but never enters it: the cast must be a Miss, not a Hit at
        // distance > max_range.
        let tree = walled_tree();
        // Voxel-center-aligned origin so distances along the ray are exact:
        // the wall voxel's center is (5.125, 0.125, 0.125), its near face at
        // x = 5.0, hence 4.875 m from the origin.
        let origin = Point3::new(0.125, 0.125, 0.125);
        let to_face = 4.875;
        let result = cast_ray(&tree, origin, Point3::new(1.0, 0.0, 0.0), to_face, true).unwrap();
        assert_eq!(result, RayCastResult::Miss);
        // One voxel further and the wall center comes within range: a Hit,
        // with the reported distance within max_range.
        let result = cast_ray(
            &tree,
            origin,
            Point3::new(1.0, 0.0, 0.0),
            to_face + 0.25,
            true,
        )
        .unwrap();
        match result {
            RayCastResult::Hit { distance, .. } => {
                assert!((distance - 5.0).abs() < 1e-9, "distance {distance}");
            }
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn cast_ray_unknown_beyond_max_range_is_miss() {
        // The unknown voxel behind a face-exact endpoint is equally out of
        // range: with ignore_unknown = false the cast still misses.
        let grid = VoxelGrid::new(0.25, 8).unwrap();
        let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        // Known free corridor along +x up to x = 2.0 (centers 0.125..1.875).
        for i in 0..8 {
            let key = grid
                .key_of(Point3::new(0.125 + i as f64 * 0.25, 0.125, 0.125))
                .unwrap();
            tree.update_node(key, false);
        }
        let origin = Point3::new(0.125, 0.125, 0.125);
        // Max range ends exactly on the last known voxel's far face.
        let result = cast_ray(&tree, origin, Point3::new(1.0, 0.0, 0.0), 1.875, false).unwrap();
        assert_eq!(result, RayCastResult::Miss);
        // A slightly longer range reaches the unknown voxel's center.
        let result = cast_ray(&tree, origin, Point3::new(1.0, 0.0, 0.0), 2.125, false).unwrap();
        assert!(matches!(result, RayCastResult::Unknown { .. }));
    }

    #[test]
    fn cast_ray_origin_inside_occupied_voxel_hits_at_zero() {
        // Regression: a sensor standing inside an occupied voxel is already
        // in collision — reference OctoMap reports the starting voxel
        // immediately instead of skipping it.
        let tree = walled_tree();
        let origin = Point3::new(5.0, 0.0, 0.0); // inside the wall
        let origin_key = tree.grid().key_of(origin).unwrap();
        assert_eq!(tree.is_occupied(origin_key), Some(true), "test setup");
        for dir in [Point3::new(1.0, 0.0, 0.0), Point3::new(-1.0, 0.3, 0.0)] {
            let result = cast_ray(&tree, origin, dir, 10.0, true).unwrap();
            assert_eq!(
                result,
                RayCastResult::Hit {
                    key: origin_key,
                    distance: 0.0
                },
                "direction {dir}"
            );
        }
    }

    #[test]
    fn cast_ray_rejects_degenerate_direction() {
        let tree = walled_tree();
        assert!(matches!(
            cast_ray(&tree, Point3::ZERO, Point3::ZERO, 10.0, true),
            Err(GeomError::DegenerateRay)
        ));
    }

    #[test]
    fn batch_search_matches_single_lookups() {
        let tree = walled_tree();
        let grid = *tree.grid();
        // A mix of occupied wall voxels, known-free corridor voxels,
        // unknown voxels and duplicates, in deliberately non-Morton order.
        let mut keys: Vec<VoxelKey> = Vec::new();
        for y in [-1.0, 0.0, 1.5] {
            keys.push(grid.key_of(Point3::new(5.0, y, 0.0)).unwrap());
            keys.push(grid.key_of(Point3::new(2.0, y, 0.0)).unwrap());
            keys.push(grid.key_of(Point3::new(-7.0, y, 3.0)).unwrap());
        }
        keys.push(keys[0]); // duplicate
        let (values, stats) = batch_search(&tree, &keys);
        assert_eq!(values.len(), keys.len());
        for (i, key) in keys.iter().enumerate() {
            let single = tree.search(*key);
            assert_eq!(
                values[i].map(f32::to_bits),
                single.map(f32::to_bits),
                "key {key} at index {i}"
            );
        }
        assert_eq!(stats.queries, keys.len() as u64);
        assert!(stats.nodes_reused > 0, "adjacent queries share no prefix?");
        assert!(stats.reuse_fraction() > 0.0 && stats.reuse_fraction() < 1.0);
    }

    #[test]
    fn batch_search_empty_and_empty_tree() {
        let tree = walled_tree();
        let (values, stats) = batch_search(&tree, &[]);
        assert!(values.is_empty());
        assert_eq!(stats, BatchStats::default());

        let grid = VoxelGrid::new(0.25, 8).unwrap();
        let empty = OccupancyOcTree::new(grid, OccupancyParams::default());
        let keys = [VoxelKey::new(1, 2, 3), VoxelKey::new(7, 7, 7)];
        let (values, stats) = batch_search(&empty, &keys);
        assert_eq!(values, vec![None, None]);
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.nodes_visited + stats.nodes_reused, 0);
    }

    #[test]
    fn batch_search_duplicates_reuse_full_path() {
        let tree = walled_tree();
        let key = tree.grid().key_of(Point3::new(5.0, 0.0, 0.0)).unwrap();
        let keys = vec![key; 8];
        let (values, stats) = batch_search(&tree, &keys);
        assert!(values.iter().all(|v| *v == values[0] && v.is_some()));
        // One real descent; the 7 duplicates reuse the whole path.
        let (single, one_stats) = batch_search(&tree, &[key]);
        assert_eq!(single[0], values[0]);
        assert_eq!(stats.nodes_visited, one_stats.nodes_visited);
        assert_eq!(stats.nodes_reused, 7 * one_stats.nodes_visited);
    }

    #[test]
    fn search_at_level_zero_matches_search() {
        let tree = walled_tree();
        let key = tree.grid().key_of(Point3::new(5.0, 0.0, 0.0)).unwrap();
        assert_eq!(search_at_level(&tree, key, 0), tree.search(key));
    }

    #[test]
    fn search_at_level_aggregates_upward() {
        let tree = walled_tree();
        let key = tree.grid().key_of(Point3::new(5.0, 0.0, 0.0)).unwrap();
        // The inner node covering the wall voxel holds the max of its
        // children, so the coarse lookup is also occupied.
        let coarse = search_at_level(&tree, key, 3).unwrap();
        assert!(tree.params().is_occupied(coarse));
        // Root level equals the root value.
        let root = search_at_level(&tree, key, tree.grid().depth()).unwrap();
        assert_eq!(root, tree.root_log_odds().unwrap());
    }

    #[test]
    fn search_at_level_unknown_space() {
        let grid = VoxelGrid::new(0.25, 8).unwrap();
        let tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        assert_eq!(search_at_level(&tree, VoxelKey::new(1, 1, 1), 2), None);
    }

    #[test]
    fn leaves_in_box_finds_wall_only() {
        let tree = walled_tree();
        // A box tight around part of the wall.
        let wall_box = Aabb::new(Point3::new(4.8, -1.0, -1.0), Point3::new(5.4, 1.0, 1.0));
        let leaves = leaves_in_box(&tree, &wall_box).unwrap();
        assert!(!leaves.is_empty());
        assert!(leaves.iter().any(|l| tree.params().is_occupied(l.log_odds)));

        // A box in free space between origin and wall.
        let free_box = Aabb::new(Point3::new(1.0, -0.5, -0.5), Point3::new(2.0, 0.5, 0.5));
        let free_leaves = leaves_in_box(&tree, &free_box).unwrap();
        assert!(free_leaves
            .iter()
            .all(|l| !tree.params().is_occupied(l.log_odds)));
    }

    #[test]
    fn any_occupied_in_box_collision_check() {
        let tree = walled_tree();
        let hit = Aabb::new(Point3::new(4.5, -0.5, -0.5), Point3::new(5.5, 0.5, 0.5));
        let free = Aabb::new(Point3::new(1.0, -0.5, -0.5), Point3::new(2.0, 0.5, 0.5));
        assert!(any_occupied_in_box(&tree, &hit).unwrap());
        assert!(!any_occupied_in_box(&tree, &free).unwrap());
    }

    #[test]
    fn box_descent_matches_full_scan_filter() {
        use proptest::prelude::*;
        use proptest::test_runner::TestRunner;
        let tree = walled_tree();
        let mut runner = TestRunner::default();
        runner
            .run(
                &(
                    (32700u16..32850, 32700u16..32850, 32700u16..32850),
                    (1u16..60, 1u16..60, 1u16..60),
                ),
                |((x, y, z), (dx, dy, dz))| {
                    let min = VoxelKey::new(x, y, z);
                    let max = VoxelKey::new(x + dx, y + dy, z + dz);
                    let mut fast: Vec<_> = tree
                        .leaves_in_key_box(min, max)
                        .map(|l| (l.key, l.level))
                        .collect();
                    let mut slow: Vec<_> = tree
                        .leaves()
                        .filter(|leaf| {
                            let size = leaf.size_in_voxels();
                            let inside = |lo: u16, v: u16, hi: u16| {
                                (v as u32) <= hi as u32 && v as u32 + size > lo as u32
                            };
                            inside(min.x, leaf.key.x, max.x)
                                && inside(min.y, leaf.key.y, max.y)
                                && inside(min.z, leaf.key.z, max.z)
                        })
                        .map(|l| (l.key, l.level))
                        .collect();
                    fast.sort();
                    slow.sort();
                    prop_assert_eq!(fast, slow);
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn leaves_in_box_covers_pruned_cubes() {
        // Build a pruned occupied cube and query a box inside it: the
        // covering pruned leaf must be reported.
        let grid = VoxelGrid::new(1.0, 4).unwrap();
        let mut tree = OccupancyOcTree::new(grid, OccupancyParams::default());
        for x in 8..10u16 {
            for y in 8..10u16 {
                for z in 8..10u16 {
                    for _ in 0..10 {
                        tree.update_node(VoxelKey::new(x, y, z), true);
                    }
                }
            }
        }
        let b = Aabb::new(Point3::new(0.2, 0.2, 0.2), Point3::new(0.8, 0.8, 0.8));
        let leaves = leaves_in_box(&tree, &b).unwrap();
        assert_eq!(leaves.len(), 1);
        assert!(leaves[0].level >= 1, "expected a pruned cube");
    }
}
