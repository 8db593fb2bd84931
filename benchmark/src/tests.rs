//! Miniature runs of the whole benchmark, and its agreement with
//! `BENCHMARK.json`.

use octocache_datasets::scenario;
use octocache_geom::VoxelGrid;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::workloads::{Backend, Inputs, Source, Spec, SPECS};
use crate::{measure, suite, trace, verify};

/// Small enough for a test, large enough to evict: at most 3 scans, or 20
/// mission poses.
fn miniature(spec: &Spec) -> usize {
    match spec.source {
        Source::Mission { .. } => 20,
        Source::Dataset { .. } => 3,
    }
}

#[test]
fn benchmark_json_is_what_the_tables_say() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        suite::manifest(),
        "regenerate with `benchmark manifest > BENCHMARK.json`"
    );
}

#[test]
fn every_workload_reports_exactly_the_end_to_end_metrics() {
    for spec in &SPECS {
        let outcome = measure::end_to_end(spec, 7, 0.01, Some(miniature(spec)))
            .unwrap_or_else(|e| panic!("{e}"));
        let names: Vec<&str> = outcome.metrics.iter().map(|(m, _)| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", spec.name);
        assert_eq!(outcome.failed, 0, "{}", spec.name);
        assert!(outcome.attempted > 0, "{}", spec.name);
        for (metric, value) in &outcome.metrics {
            assert!(*value > 0.0, "{} {} = {value}", spec.name, metric.name);
        }
    }
}

#[test]
fn every_workload_reports_exactly_the_per_layer_metrics() {
    for spec in &SPECS {
        let outcome =
            trace::traced(spec, 7, 0.01, Some(miniature(spec))).unwrap_or_else(|e| panic!("{e}"));
        let names: Vec<&str> = outcome.metrics.iter().map(|(m, _)| m.name).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "{}", spec.name);
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|(m, _)| m.name == name)
                .map(|(_, v)| *v)
                .expect("name checked above")
        };
        let serial = !spec.readers && spec.backend != Backend::Parallel;
        assert_eq!(
            value("trace.replay_matches_engine"),
            f64::from(u8::from(serial)),
            "{}",
            spec.name
        );
        // Every time is measured on every workload; only shares and counts
        // of layers the workload does not enter read 0.
        for (metric, value) in &outcome.metrics {
            if ["ns", "us", "ms", "s"].contains(&metric.unit) {
                assert!(*value != 0.0, "{} {} = 0", spec.name, metric.name);
            }
        }
        assert_eq!(
            value("parallel.wait_frac") > 0.0,
            spec.backend == Backend::Parallel,
            "{}",
            spec.name
        );
        assert_eq!(
            value("cache.hit_ratio") > 0.0,
            spec.backend != Backend::Baseline
        );
        // Reader and planner figures are the workload's own only where it
        // has a reader or plans; elsewhere the reports mark them as a probe.
        let source = |name: &str| {
            let metric = PER_LAYER.iter().find(|m| m.name == name);
            metric.expect("a per-layer metric").source(spec)
        };
        assert_eq!(source("query.publish_share") == "pass", spec.readers);
        assert_eq!(
            source("sim.plan_us_p50") == "pass",
            matches!(spec.source, Source::Mission { .. })
        );
        assert_eq!(source("cache.hit_ns"), "fixture");
    }
}

#[test]
fn outside_in_replay_equals_the_engine_on_the_blob_walk() {
    let seq = scenario::blob_walk_sequence(0);
    let inputs = Inputs {
        grid: VoxelGrid::new(0.2, 16).unwrap(),
        max_range: seq.max_range(),
        scans: seq.scans().to_vec(),
        goal: None,
        probes: Vec::new(),
    };
    // A cache small enough that every scan evicts.
    let serial = Spec {
        buckets: 256,
        ..*crate::workloads::spec("campus_miss").unwrap()
    };
    let baseline = Spec {
        backend: Backend::Baseline,
        ..serial
    };
    let reference = verify::reference(&serial, &inputs).checksum;
    for spec in [serial, baseline] {
        let engine = spec.plain_pass(&inputs);
        assert_eq!(engine.checksum, reference, "{:?}", spec.backend);
        for traced in [false, true] {
            let mut spans = Recorder::new(traced);
            assert_eq!(
                trace::replay_checksum(&spec, &inputs, &mut spans),
                reference,
                "{:?} traced={traced}",
                spec.backend
            );
            assert_eq!(spans.spans().is_empty(), !traced);
            assert!(spans.min_coverage("scan") >= 0.9);
        }
        if spec.backend == Backend::Serial {
            assert!(
                engine.cache.unwrap().evictions > 0,
                "the small cache must evict"
            );
        }
    }
}
