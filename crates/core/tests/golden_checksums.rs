//! Golden regression fixtures: the shared seeded scenarios (blob-walk and
//! the three tiny synthetic datasets) replayed against two committed
//! tables.
//!
//! * `tests/golden/checksums.txt` — every backend's [`leaf_checksum`] (an
//!   FNV-1a digest over the sorted leaf set, independent of insertion
//!   order). Generated at the pre-engine-refactor commit, so this
//!   bit-verifies the unified scan-lifecycle engine (and any future
//!   refactor) against history: a single flipped voxel anywhere in the
//!   ray-tracing → cache → eviction → octree path changes the digest.
//! * `tests/golden/structure.txt` plus three map files — the answers of
//!   the boxed-node pointer octree that the node pool replaced, frozen at
//!   the last commit that had both (37f50be): pruned node and leaf counts,
//!   node visits of the octomap backend, CRC-32 of the `.ot` and `.bt`
//!   serialisations, and `.ot` (v1, v2) / `.bt` files the pointer tree
//!   wrote. The pointer tree was the differential oracle; this table is
//!   what remains of it. One column is younger: `visits_serial` is what
//!   the serial backend pays with both of its octree paths keeping a
//!   root-to-leaf path between consecutive keys — evictions Morton-sorted
//!   and applied through `set_log_odds_batch` (𝓕(S) plus one round trip per
//!   eviction run), cache misses seeded through one `read_cursor` per scan
//!   (the nodes it descends into; a kept node is not a visit, which made
//!   the column 2.3–3.7× smaller than with one `search` per miss); every
//!   other column is byte-identical to the pointer tree's.
//!
//! Regenerate the two tables (after an *intentional* mapping-behaviour
//! change only) with:
//!
//! ```text
//! OCTO_GOLDEN_WRITE=1 cargo test -p octocache --test golden_checksums
//! ```
//!
//! [`leaf_checksum`]: octocache_octomap::OccupancyOcTree::leaf_checksum

mod common;

use std::fmt::Write as _;

use octocache::pipeline::{MappingSystem, OctoMapSystem};
use octocache::SerialOctoCache;
use octocache_datasets::{scenario, Dataset, DatasetConfig, Scan};
use octocache_geom::VoxelGrid;
use octocache_octomap::checksum::crc32;
use octocache_octomap::{io, io_bt, OccupancyOcTree, OccupancyParams};

/// One replayable scan source: a name, its scans, the sensor range to
/// insert with, and the grid it fits in.
struct Source {
    name: &'static str,
    scans: Vec<Scan>,
    max_range: f64,
    grid: VoxelGrid,
}

/// The scan sources fixed into the fixture: two blob-walk seeds on the
/// default scenario grid, plus the three named synthetic datasets at the
/// tiny scale on a dataset-sized grid.
fn sources() -> Vec<Source> {
    // Dataset scans span ±50 m; 0.4 m leaves over a 16-level grid cover
    // that with margin to spare (coarse enough to keep the full
    // source × backend matrix inside a debug-build test budget).
    let dataset_grid = VoxelGrid::new(0.4, 16).unwrap();
    let mut v: Vec<Source> = vec![
        Source {
            name: "blob-walk-1",
            scans: scenario::blob_walk(1),
            max_range: scenario::MAX_RANGE,
            grid: common::grid(),
        },
        Source {
            name: "blob-walk-7",
            scans: scenario::blob_walk(7),
            max_range: scenario::MAX_RANGE,
            grid: common::grid(),
        },
    ];
    for dataset in Dataset::ALL {
        let seq = dataset.generate(&DatasetConfig::tiny());
        v.push(Source {
            name: dataset.name(),
            scans: seq.scans().to_vec(),
            max_range: seq.max_range(),
            grid: dataset_grid,
        });
    }
    v
}

impl Source {
    /// Replays the source through `backend`; returns the octree node visits
    /// the run cost and the flushed tree.
    fn replay(&self, mut backend: Box<dyn MappingSystem>) -> (u64, OccupancyOcTree) {
        for scan in &self.scans {
            backend
                .insert_scan(scan.origin, &scan.points, self.max_range)
                .expect("scan within grid");
        }
        backend.finish();
        let visits = backend.tree_stats().expect("tree stats").node_visits;
        (visits, backend.take_tree())
    }
}

/// The checksum fixture: one `source backend 0x<checksum>` line per
/// combination.
fn checksum_table() -> String {
    let mut out = String::new();
    for src in sources() {
        for (label, backend) in common::backends_with_grid(src.grid) {
            let (_, tree) = src.replay(backend);
            writeln!(out, "{} {} {:#018x}", src.name, label, tree.leaf_checksum()).unwrap();
        }
    }
    out
}

/// The map files the pointer tree wrote (the first two blob-walk-1 scans,
/// range-limited to 6 m, through the OctoMap baseline; the v2 footer
/// carries epoch 2).
const POINTER_FILES: [(&str, &[u8]); 3] = [
    ("pointer_v1.ot", include_bytes!("golden/pointer_v1.ot")),
    ("pointer_v2.ot", include_bytes!("golden/pointer_v2.ot")),
    ("pointer.bt", include_bytes!("golden/pointer.bt")),
];

/// Decodes one of [`POINTER_FILES`] and checks that writing the decoded
/// tree back reproduces the file byte for byte.
fn read_pointer_file(name: &str, bytes: &[u8]) -> OccupancyOcTree {
    let (tree, rewritten) = if name.ends_with(".bt") {
        let tree = io_bt::read_binary_tree(bytes).expect(name);
        let rewritten = io_bt::write_binary_tree(&tree);
        (tree, rewritten)
    } else {
        let (tree, footer) = io::read_tree_with_meta(bytes).expect(name);
        let rewritten = match footer {
            Some(footer) => io::write_tree_v2(&tree, footer.epoch),
            None => io::write_tree(&tree),
        };
        (tree, rewritten)
    };
    tree.check_invariants().expect(name);
    assert!(
        rewritten[..] == *bytes,
        "{name} does not re-serialise byte-identically"
    );
    tree
}

/// The structure fixture: per source the pruned tree's shape, what the
/// octomap and serial backends paid in node visits, and the CRC-32 of both
/// serialisations; then the leaf checksum each pointer-written file decodes
/// to.
fn structure_table() -> String {
    let params = OccupancyParams::default();
    let mut out = String::from(
        "# source nodes leaves visits_octomap visits_serial crc32(.ot) crc32(.bt) — post-prune()\n",
    );
    for src in sources() {
        let (visits_octomap, mut tree) = src.replay(Box::new(OctoMapSystem::new(src.grid, params)));
        let (visits_serial, _) = src.replay(Box::new(SerialOctoCache::new(
            src.grid,
            params,
            common::cache(),
        )));
        tree.prune();
        writeln!(
            out,
            "{} {} {} {} {} {:#010x} {:#010x}",
            src.name,
            tree.num_nodes(),
            tree.num_leaves(),
            visits_octomap,
            visits_serial,
            crc32(&io::write_tree(&tree)),
            crc32(&io_bt::write_binary_tree(&tree)),
        )
        .unwrap();
    }
    out.push_str("# file leaf_checksum — written by the pointer tree at 37f50be\n");
    for (name, bytes) in POINTER_FILES {
        let tree = read_pointer_file(name, bytes);
        writeln!(out, "{name} {:#018x}", tree.leaf_checksum()).unwrap();
    }
    out
}

/// Compares `actual` line by line with the committed `fixture` file (or,
/// under `OCTO_GOLDEN_WRITE`, rewrites the file instead).
fn check_against(fixture: &str, golden: &str, actual: &str) {
    if std::env::var("OCTO_GOLDEN_WRITE").is_ok() {
        let path = format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, actual).expect("write golden fixture");
        eprintln!("wrote {path}");
        return;
    }

    let mut mismatches = Vec::new();
    let mut expected_lines = golden.lines();
    for actual_line in actual.lines() {
        match expected_lines.next() {
            Some(expected_line) if expected_line == actual_line => {}
            Some(expected_line) => {
                mismatches.push(format!("expected `{expected_line}`, got `{actual_line}`"))
            }
            None => mismatches.push(format!("extra line `{actual_line}` (fixture too short)")),
        }
    }
    for missing in expected_lines {
        mismatches.push(format!("missing line `{missing}` (fixture too long)"));
    }
    assert!(
        mismatches.is_empty(),
        "golden drift — output differs from {fixture}:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn golden_checksums_match_pre_refactor() {
    check_against(
        "checksums.txt",
        include_str!("golden/checksums.txt"),
        &checksum_table(),
    );
}

#[test]
fn structure_visits_and_bytes_match_the_pointer_tree() {
    check_against(
        "structure.txt",
        include_str!("golden/structure.txt"),
        &structure_table(),
    );
}
