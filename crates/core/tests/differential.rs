//! Cross-backend differential suite: every mapping backend must produce a
//! voxel-for-voxel identical occupancy map.
//!
//! A seeded scenario generator (shared with the query-consistency and
//! stress suites via `tests/common`) replays deterministic scan sequences
//! over synthetic scenes through the plain `OccupancyOcTree` baseline, the
//! serial OctoCache and the parallel OctoCache, then compares the
//! resulting trees with `octomap::compare` — including a structural
//! comparison after pruning. Any eviction, hand-off or ordering bug shows
//! up as a log-odds mismatch here.
//!
//! Scenario count is scaled by the `OCTO_TEST_ITERS` env knob so CI can
//! crank iterations (see `.github/workflows/ci.yml`).

mod common;

use common::{backends, build_tree, grid, num_scenarios, scenario};
use octocache::pipeline::OctoMapSystem;
use octocache_octomap::{compare, OccupancyParams};

#[test]
fn all_backends_match_octomap_baseline() {
    for seed in 0..num_scenarios() {
        let scans = scenario(seed * 7919 + 1);
        let baseline = build_tree(
            Box::new(OctoMapSystem::new(grid(), OccupancyParams::default())),
            &scans,
        );
        assert!(baseline.num_nodes() > 1, "scenario {seed} built nothing");

        for (label, backend) in backends() {
            let tree = build_tree(backend, &scans);
            let d = compare::diff(&baseline, &tree, 1e-4);
            assert!(
                d.is_identical(),
                "seed {seed}, backend {label}: {} value / {} coverage mismatches of {} \
                 voxels (agreement {:.6}, max |diff| {})",
                d.value_mismatches,
                d.coverage_mismatches,
                d.known_voxels,
                d.agreement(),
                d.max_abs_diff
            );
        }
    }
}

#[test]
fn pruned_trees_stay_equivalent_and_structurally_equal() {
    let scans = scenario(42);
    let mut baseline = build_tree(
        Box::new(OctoMapSystem::new(grid(), OccupancyParams::default())),
        &scans,
    );
    baseline.prune();

    for (label, backend) in backends() {
        let mut tree = build_tree(backend, &scans);
        tree.prune();
        // Pruning must not change the flattened map…
        let d = compare::diff(&baseline, &tree, 1e-4);
        assert!(
            d.is_identical(),
            "pruned {label}: {} value / {} coverage mismatches",
            d.value_mismatches,
            d.coverage_mismatches
        );
        // …and identical maps must prune to identical structure.
        assert_eq!(
            tree.num_nodes(),
            baseline.num_nodes(),
            "pruned node count differs for {label}"
        );
        assert_eq!(
            tree.num_leaves(),
            baseline.num_leaves(),
            "pruned leaf count differs for {label}"
        );
    }
}
