//! Checks that the maps and answers a workload produced are right.
//!
//! The reference is an untimed run of the same inputs through the other
//! implementation: plain `OctoMapSystem` for the cache-backed workloads,
//! `SerialOctoCache` for `campus_baseline`. The three campus workloads share
//! their inputs, so passing here means they agree with each other too.
//! Where plain OctoMap would need longer than the whole run may take
//! (`corridor_hot`: 15 s for what the cache maps in 0.6 s), the reference
//! covers the first `Spec::reference_scans` scans; all passes must then also
//! agree with each other on the full input. For the seeds in [`GOLDEN_SEEDS`]
//! the full result must also equal the golden committed in `goldens.json`,
//! which is the reference's result on the full input, computed offline.

use octocache::pipeline::OctoMapSystem;
use octocache::{LiveMap, MappingSystem, SerialOctoCache};
use octocache_octomap::OccupancyParams;

use crate::workloads::{
    answers_digest, Backend, Fnv, Inputs, Pass, PlanLog, Planners, Spec, DEFAULT_SEED, SPECS,
};

/// The seed README.md prescribes for a claim: one not used while the change
/// was written.
pub const CLAIM_SEED: u64 = 0x5EED;
/// The seeds `goldens.json` has entries for. On any other seed a workload
/// whose reference covers only a prefix is checked on that prefix and, beyond
/// it, only for agreement between its own passes.
pub const GOLDEN_SEEDS: [u64; 2] = [DEFAULT_SEED, CLAIM_SEED];

/// What a correct pass must reproduce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// `leaf_checksum` of the finished map.
    pub checksum: u64,
    /// Occupancy queries the planners issued (0 without planners).
    pub plan_queries: u64,
    /// Digest of every waypoint the planners returned.
    pub waypoints: u64,
    /// Digest of the probe answers after 0, 1, 2, … scans (readers only).
    pub epochs: Vec<u64>,
}

/// Runs the reference implementation over `inputs`.
pub fn reference(spec: &Spec, inputs: &Inputs) -> Expected {
    let params = OccupancyParams::default();
    let mut map: Box<dyn MappingSystem> = match spec.backend {
        Backend::Baseline => Box::new(SerialOctoCache::new(
            inputs.grid,
            params,
            spec.cache_config(),
        )),
        Backend::Serial | Backend::Parallel => Box::new(OctoMapSystem::new(inputs.grid, params)),
    };
    let planners = Planners::new(inputs);
    let mut plan = PlanLog::default();
    let probe = |map: &mut dyn MappingSystem| {
        let answers: Vec<Option<f32>> = inputs.probes.iter().map(|&k| map.occupancy(k)).collect();
        answers_digest(&answers)
    };
    let mut epochs = Vec::new();
    if spec.readers {
        epochs.push(probe(&mut *map));
    }
    for (i, scan) in inputs.scans.iter().enumerate() {
        map.insert_scan(scan.origin, &scan.points, inputs.max_range)
            .expect("reference scan within the grid");
        if let Some(p) = &planners {
            p.plan(&mut LiveMap(&mut *map), i, scan.origin, &mut plan);
        }
        if spec.readers {
            epochs.push(probe(&mut *map));
        }
    }
    Expected {
        checksum: map.take_tree().leaf_checksum(),
        plan_queries: plan.queries,
        waypoints: plan.waypoints.0,
        epochs,
    }
}

/// Compares one pass with the reference.
pub fn check_pass(pass: &Pass, expected: &Expected) -> Result<(), String> {
    if pass.checksum != expected.checksum {
        return Err(format!(
            "map checksum {:016x}, reference {:016x}",
            pass.checksum, expected.checksum
        ));
    }
    if pass.plan.queries != expected.plan_queries || pass.plan.waypoints.0 != expected.waypoints {
        return Err(format!(
            "planner issued {} queries (waypoint digest {:016x}), reference {} ({:016x})",
            pass.plan.queries, pass.plan.waypoints.0, expected.plan_queries, expected.waypoints
        ));
    }
    // A batch runs against one snapshot published between the two epoch
    // reads around it; its answers must be exactly that epoch's.
    for (i, batch) in pass.reader.iter().enumerate() {
        let matches = (batch.epoch_before..=batch.epoch_after)
            .filter_map(|e| expected.epochs.get(e as usize))
            .any(|&digest| digest == batch.answers);
        if !matches {
            return Err(format!(
                "reader batch {i} (epochs {}..={}) answered {:016x}, which no such epoch of the reference does",
                batch.epoch_before, batch.epoch_after, batch.answers
            ));
        }
    }
    Ok(())
}

/// What a finished pass claims, in the shape of a reference result (reader
/// answers are checked batch by batch, not through this).
fn claimed(pass: &Pass) -> Expected {
    Expected {
        checksum: pass.checksum,
        plan_queries: pass.plan.queries,
        waypoints: pass.plan.waypoints.0,
        epochs: Vec::new(),
    }
}

/// Verifies a finished end-to-end run: the warm-up and every timed pass
/// against the reference (and each other), and — given the seed of full-size
/// inputs — a golden seed's result against its golden.
pub fn verify(
    spec: &Spec,
    seed: Option<u64>,
    inputs: &Inputs,
    warm: &Pass,
    passes: &[Pass],
) -> Result<(), String> {
    let fail = |e: String| format!("{}: {e}", spec.name);
    let head = inputs.head(spec.reference_scans);
    let mut expected = reference(spec, &head);
    if head.scans.len() < inputs.scans.len() {
        // The engine on the prefix against the reference; the full passes
        // then against the first of them.
        check_pass(&spec.plain_pass(&head), &expected).map_err(fail)?;
        expected = claimed(warm);
    }
    check_golden(spec, seed, &expected)?;
    for pass in std::iter::once(warm).chain(passes) {
        check_pass(pass, &expected).map_err(fail)?;
    }
    Ok(())
}

/// The fields of a `goldens.json` entry, as hexadecimal text in the file.
fn golden_fields(expected: &Expected) -> [(&'static str, u64); 4] {
    let mut epochs = Fnv::default();
    for &digest in &expected.epochs {
        epochs.write(digest);
    }
    [
        ("checksum", expected.checksum),
        ("plan_queries", expected.plan_queries),
        ("waypoints", expected.waypoints),
        ("epochs", epochs.0),
    ]
}

/// Compares what the passes are held to with the committed golden, when the
/// seed has one. Where the run's own reference covers only a prefix, this is
/// the check of the rest against the other implementation.
fn check_golden(spec: &Spec, seed: Option<u64>, expected: &Expected) -> Result<(), String> {
    let Some(seed) = seed.filter(|s| GOLDEN_SEEDS.contains(s)) else {
        return Ok(());
    };
    let goldens = serde::json::parse(include_str!("../goldens.json"))
        .map_err(|e| format!("goldens.json: {e}"))?;
    let entry = goldens
        .get(&format!("{seed:x}"))
        .and_then(|of_seed| of_seed.get(spec.name));
    for (key, value) in golden_fields(expected) {
        let want = entry
            .and_then(|entry| entry.get(key))
            .and_then(|v| v.as_str())
            .and_then(|text| u64::from_str_radix(text, 16).ok())
            .ok_or_else(|| {
                format!(
                    "goldens.json: {seed:x}.{}.{key} missing or not hex",
                    spec.name
                )
            })?;
        if value != want {
            return Err(format!(
                "{}.{key} is {value:x}, golden {want:x} for seed {seed:x} (see README.md, \"Goldens\")",
                spec.name
            ));
        }
    }
    Ok(())
}

/// The text of `goldens.json`: for every golden seed and workload, the
/// reference implementation's result on the full inputs. Takes a minute and
/// a half, most of it plain OctoMap on `corridor_hot` and `mission_cycle`.
pub fn goldens() -> String {
    let of_seed = |seed: u64| {
        let entries: Vec<String> = SPECS
            .iter()
            .map(|spec| {
                let expected = reference(spec, &spec.inputs(seed, None));
                let fields: Vec<String> = golden_fields(&expected)
                    .iter()
                    .map(|(key, value)| format!("\"{key}\": \"{value:x}\""))
                    .collect();
                format!("    \"{}\": {{{}}}", spec.name, fields.join(", "))
            })
            .collect();
        format!("  \"{seed:x}\": {{\n{}\n  }}", entries.join(",\n"))
    };
    format!("{{\n{}\n}}\n", GOLDEN_SEEDS.map(of_seed).join(",\n"))
}
