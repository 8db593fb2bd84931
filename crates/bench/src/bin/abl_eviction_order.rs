//! Ablation A: eviction emission order.
//!
//! The octree applies an eviction run with its root-to-leaf path held open
//! between consecutive cells, so the run costs its summed tree distance
//! 𝓕(S) in node visits and the order is the whole cost. This ablation
//! measures the default (a full in-place Morton sort of each run, the order
//! the paper's §4.3 theorem names optimal) against the paper's own
//! bucket-sequential scan (Morton-aligned in the bucket index's low bits
//! only) and against FIFO emission (insertion order, i.e. the order rays
//! walked — no Morton structure, but not locality-free either, which is
//! why it lands beside the bucket scan rather than far behind it).

use octocache::{EvictionOrder, IndexPolicy};
use octocache_bench::{
    cache_for, cache_variant, construct, grid, load_dataset, print_table, reference_resolution,
    secs, Backend,
};
use octocache_datasets::Dataset;

fn main() {
    let mut rows = Vec::new();
    for dataset in Dataset::ALL {
        let seq = load_dataset(dataset);
        let res = reference_resolution(dataset);
        let base_cfg = cache_for(&seq, res);
        for order in [
            EvictionOrder::FullMortonSort,
            EvictionOrder::BucketSequential,
            EvictionOrder::InsertionFifo,
        ] {
            let cfg = cache_variant(base_cfg, IndexPolicy::Morton, order);
            let r = construct(&seq, Backend::Serial.build(grid(res), cfg));
            rows.push(vec![
                dataset.name().to_string(),
                order.to_string(),
                secs(r.total),
                secs(r.phases.octree_update),
                format!("{:.1}%", r.hit_rate() * 100.0),
            ]);
        }
    }
    print_table(
        "Ablation A — eviction order (serial OctoCache)",
        &["dataset", "order", "total(s)", "octree-upd(s)", "hit-rate"],
        &rows,
    );
    println!("\nexpected: full-morton-sort < bucket-sequential ~ insertion-fifo octree time");
}
