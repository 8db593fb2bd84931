//! The end-to-end run of one workload: set-up, a warm-up pass, timed passes,
//! verification, and the metrics a user of the mapper would see. Tracing is
//! off here; the per-layer numbers come from `trace.rs`.

use std::time::{Duration, Instant};

use octocache_sim::velocity::uav_max_velocity;
use octocache_sim::UavModel;

use crate::metrics::{Metric, Values, END_TO_END};
use crate::spans::Recorder;
use crate::stats::{mean, median, quantile};
use crate::verify;
use crate::workloads::{run_pass, Inputs, Pass, Spec};

/// Set-up (input generation plus backend construction) is repeated and the
/// median reported, so that `setup_s` is steady enough to gate: at least
/// `SETUP_REPS.0` times, then until a second has gone by or `SETUP_REPS.1`
/// times. (Five set-ups of 30 ms differed by 35 % between two runs.)
const SETUP_REPS: (usize, usize) = (5, 25);
/// Never fewer timed passes than this, however short `--seconds` is: the
/// first pass in a process is 15–50 % slower than later ones (hence the
/// warm-up) and single later passes spread 5–25 %.
const MIN_PASSES: usize = 5;
/// The repository's fixed Jetson-TX2 emulation factor: measured compute
/// latency is multiplied by it before it enters the velocity bound.
const TX2_FACTOR: f64 = 50.0;

/// The result of one run, in the shape the contract's last line wants.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
}

/// Times repeated set-ups and keeps the last one's inputs.
fn setup(spec: &Spec, seed: u64, scans: Option<usize>) -> (Inputs, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS.0
        || (times.len() < SETUP_REPS.1 && started.elapsed() < Duration::from_secs(1))
    {
        drop(last.take()); // never two sets of inputs alive: they count in `peak_rss_mb`
        let t0 = Instant::now();
        let inputs = spec.inputs(seed, scans);
        let backend = spec.backend(inputs.grid);
        times.push(t0.elapsed().as_secs_f64());
        drop(backend);
        last = Some(inputs);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The warm-up pass: untimed, recorded, and — on full-size inputs — checked
/// for the properties the workload was chosen for.
pub fn warm_up(spec: &Spec, inputs: &Inputs, full_size: bool) -> Result<Pass, String> {
    let backend = spec.backend(inputs.grid);
    let (pass, _) = run_pass(spec, inputs, backend, true, &mut Recorder::new(false));
    for &property in spec.properties.iter().filter(|_| full_size) {
        pass.check(property)
            .map_err(|e| format!("{}: {e}", spec.name))?;
    }
    Ok(pass)
}

/// The latency of each scan of the sequence: scan `i` of every timed pass is
/// the same computation on the same state, so its latency is the mean of its
/// repetitions. The host flips between two speeds 25 % apart every few
/// seconds (one run's passes: 4.2, 4.3, 5.2, 5.3, 4.6 scans/s); a mean moves
/// smoothly with the share of each speed a run saw, where a median, a
/// minimum or one pass's quantile jumps from one speed to the other
/// (README.md, "Warm-up, means and noise").
fn latency_per_scan(passes: &[Pass]) -> Vec<f64> {
    (0..passes[0].scan_ms.len())
        .map(|i| mean(&passes.iter().map(|p| p.scan_ms[i]).collect::<Vec<f64>>()))
        .collect()
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Runs `spec` end to end for about `seconds` seconds of timed passes. With
/// `scans` — the tests' miniature runs only; the command line has no such
/// knob — the inputs are cut to that many scans, and the maps are checked but
/// neither the workload's properties nor its golden, both of which are defined
/// for the full inputs.
pub fn end_to_end(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    scans: Option<usize>,
) -> Result<Outcome, String> {
    let (inputs, setup_s) = setup(spec, seed, scans);
    let warm = warm_up(spec, &inputs, scans.is_none())?;

    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut passes = Vec::new();
    let mut map = None;
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        drop(map.take()); // never two maps alive during a pass
        let backend = spec.backend(inputs.grid);
        let (pass, tree) = run_pass(spec, &inputs, backend, false, &mut Recorder::new(false));
        passes.push(pass);
        map = Some(tree);
    }
    // Before the map is copied and verification builds more of them.
    let peak_rss_mb = peak_rss_mb()?;
    // The copy has no allocator slack: `memory_usage()` of the live map
    // includes the arena's spare capacity, which doubles or not on a 1 %
    // difference in node count.
    let map_mb = map.expect("MIN_PASSES > 0").deep_clone().memory_usage() as f64 / 1e6;
    verify::verify(
        spec,
        scans.is_none().then_some(seed),
        &inputs,
        &warm,
        &passes,
    )?;

    let scans = inputs.scans.len() as f64;
    let throughput: Vec<f64> = passes
        .iter()
        .map(|p| scans / p.wall.as_secs_f64())
        .collect();
    let pass_time: f64 = passes.iter().map(|p| p.wall.as_secs_f64()).sum();
    let latencies = latency_per_scan(&passes);
    let uav = UavModel::asctec_pelican();
    let velocities: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.scan_ms)
        .map(|ms| uav_max_velocity(&uav, inputs.max_range, ms * 1e-3 * TX2_FACTOR))
        .collect();

    let mut values = Values::new(&END_TO_END);
    values.set("setup_s", setup_s);
    // All scans over all pass time, for the reason `latency_per_scan` gives.
    values.set("scans_per_s", scans * passes.len() as f64 / pass_time);
    values.set("scan_ms_p50", median(&latencies));
    values.set("scan_ms_tail", quantile(&latencies, spec.tail));
    values.set("max_safe_velocity_mps", mean(&velocities));
    values.set("peak_rss_mb", peak_rss_mb);
    values.set("map_mb", map_mb);

    eprintln!(
        "{}: {} timed passes of {} scans, tail = p{}, scans/s per pass {:.2?}",
        spec.name,
        passes.len(),
        inputs.scans.len(),
        spec.tail * 100.0,
        throughput
    );
    Ok(Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: values.finish(),
    })
}
