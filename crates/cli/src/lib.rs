//! Implementation of the `octocache` command-line tool.
//!
//! Subcommands (`octocache help` prints each with every flag it takes,
//! from the one table [`run`] dispatches through):
//!
//! * `generate` — write a synthetic scan log (datasets: `fr079-corridor`,
//!   `freiburg-campus`, `new-college`).
//! * `build` — build an occupancy map with one of the six backends,
//!   printing per-phase timings and cache statistics; optionally stream a
//!   per-scan trace (`--trace`) or the sub-scan event stream (`--events`),
//!   journal the run (`--journal`), bound it (`--mem-budget`,
//!   `--shed-deadline`) or inject test-only faults (`--fault`,
//!   `--io-fault`).
//! * `report` — per-phase latency percentiles and the cache hit-ratio
//!   time series of a recorded trace (`--json` for machine-readable).
//! * `analyze` — the hit-ratio curve of shadow caches at Fig 23's sizes,
//!   replayed exactly on the sampled cache sets, plus cache-residency,
//!   per-octant and bucket-heatmap analytics over a recorded event stream
//!   and a Chrome Trace Event Format export loadable in `chrome://tracing`
//!   or Perfetto.
//! * `info` — structural statistics of a serialised map.
//! * `query` — read queries answered through the snapshot query engine
//!   ([`octocache::MapSnapshot`]): point occupancy, ray casting,
//!   Morton-batched multi-point lookup (reporting traversal prefix reuse),
//!   and axis-aligned box queries.
//! * `diff` — voxel-level agreement between two maps.
//! * `recover` — reconstruct the map persisted by a (possibly crashed)
//!   `build --journal` run: newest intact checkpoint plus journal replay;
//!   without an output map it verifies and reports only.
//!
//! The library surface exists so the whole tool is unit-testable without
//! spawning processes; `main` is a thin wrapper around [`run`].

use std::fmt;
use std::fmt::Write as _;

use octocache::pipeline::{MappingSystem, OctoMapSystem, RayTracer};
use octocache::query::RayCastResult;
use octocache::{
    CacheConfig, CacheConfigBuilder, DurableError, DurableMap, FaultPlan, IoFaultPlan, MapSnapshot,
    ParallelOctoCache, PipelineError, SerialOctoCache,
};
use octocache_datasets::{io as scanlog, Dataset, DatasetConfig};
use octocache_geom::{Aabb, Point3, VoxelGrid};
use octocache_octomap::{compare, io as mapio, io_bt, OccupancyOcTree, OccupancyParams};

/// A typed CLI failure, each category mapped to a distinct process exit
/// code (see [`CliError::exit_code`]) so scripts can tell classes of
/// failure apart without parsing stderr.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown subcommand, malformed flag or value.
    Usage(String),
    /// A filesystem operation failed (open/create/read/write).
    Io(String),
    /// An input stream (scan log or trace) could not be parsed —
    /// truncated, garbage, or the wrong format.
    ScanLog(String),
    /// A serialised map could not be parsed.
    Map(String),
    /// Well-formed input described invalid geometry (point outside the
    /// mapped cube, non-finite coordinate).
    Geom(String),
    /// The mapping pipeline failed mid-build (worker fault).
    Pipeline(PipelineError),
    /// The durability layer failed: journal/checkpoint I/O, corrupt durable
    /// state, or nothing to recover.
    Durable(DurableError),
}

impl CliError {
    /// The process exit code for this failure class: usage 2, I/O 3,
    /// scan-log/trace parse 4, map parse 5, geometry 6, pipeline fault 7,
    /// durability 8.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::ScanLog(_) => 4,
            CliError::Map(_) => 5,
            CliError::Geom(_) => 6,
            CliError::Pipeline(_) => 7,
            CliError::Durable(_) => 8,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::ScanLog(m)
            | CliError::Map(m)
            | CliError::Geom(m) => f.write_str(m),
            CliError::Pipeline(e) => write!(f, "{e}"),
            CliError::Durable(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Usage(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Usage(m.to_string())
    }
}

impl From<PipelineError> for CliError {
    fn from(e: PipelineError) -> Self {
        match e {
            PipelineError::Geom(g) => CliError::Geom(format!("invalid scan geometry: {g}")),
            PipelineError::Durable(d) => CliError::Durable(d),
            other => CliError::Pipeline(other),
        }
    }
}

/// Executes a command line (already split into arguments, program name
/// excluded) and returns the text to print.
///
/// # Errors
///
/// Returns a message describing what was wrong with the invocation or what
/// failed while executing it.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let name = match args.first().map(String::as_str) {
        Some("help") | None => return Ok(usage()),
        Some(name) => name,
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown subcommand `{name}`")))?;
    let (pos, flags) = parse_flags(&args[1..])?;
    reject_unknown_flags(cmd, &flags)?;
    (cmd.exec)(cmd, &pos, &flags)
}

/// One subcommand: its name, its positional arguments and every flag it
/// takes, each written as its usage shows it (`--scale S`; a flag with no
/// value placeholder takes no value). [`usage`], each subcommand's usage
/// error and the flags [`run`] lets through all come from [`COMMANDS`].
struct Command {
    name: &'static str,
    args: &'static str,
    flags: &'static [&'static str],
    exec: Exec,
}

/// A subcommand's body: its table entry, positional arguments and flags.
type Exec = fn(&Command, &[&str], &[(&str, &str)]) -> Result<String, CliError>;

/// Every subcommand but `help`.
const COMMANDS: &[Command] = &[
    Command {
        name: "generate",
        args: "<dataset> <out.scanlog>",
        flags: &["--scale S", "--seed N"],
        exec: cmd_generate,
    },
    Command {
        name: "build",
        args: "<in.scanlog> <out.map>",
        flags: &[
            "--backend B",
            "--resolution R",
            "--buckets N",
            "--tau T",
            "--format ot|bt",
            "--trace out.jsonl",
            "--events out.jsonl",
            "--strict",
            "--fault SPEC",
            "--io-fault SPEC",
            "--journal DIR",
            "--checkpoint-every N",
            "--mem-budget BYTES",
            "--shed-deadline MS",
        ],
        exec: cmd_build,
    },
    Command {
        name: "report",
        args: "<trace.jsonl>",
        flags: &["--json"],
        exec: cmd_report,
    },
    Command {
        name: "analyze",
        args: "<events.jsonl>",
        flags: &["--trace-out trace.json"],
        exec: cmd_analyze,
    },
    Command {
        name: "info",
        args: "<map>",
        flags: &[],
        exec: cmd_info,
    },
    Command {
        name: "query",
        args: "<map> [<x> <y> <z>]",
        flags: &[
            "--ray OX,OY,OZ:DX,DY,DZ",
            "--max-range R",
            "--ignore-unknown",
            "--batch points.txt",
            "--box MINX,MINY,MINZ:MAXX,MAXY,MAXZ",
        ],
        exec: cmd_query,
    },
    Command {
        name: "diff",
        args: "<map_a> <map_b>",
        flags: &[],
        exec: cmd_diff,
    },
    Command {
        name: "recover",
        args: "<journal-dir> [<out.map>]",
        flags: &["--format ot|bt"],
        exec: cmd_recover,
    },
];

impl Command {
    /// The flags' names, without dashes or value placeholder.
    fn flag_names(&self) -> impl Iterator<Item = &'static str> {
        self.flags
            .iter()
            .map(|f| f[2..].split(' ').next().unwrap_or_default())
    }

    /// `name args [--flag V]...`, as `help` prints it.
    fn usage(&self) -> String {
        let mut line = format!("{} {}", self.name, self.args);
        for f in self.flags {
            let _ = write!(line, " [{f}]");
        }
        line
    }

    /// The usage error for positional arguments this command cannot take.
    fn usage_error(&self) -> CliError {
        CliError::Usage(format!("usage: {}", self.usage()))
    }
}

fn usage() -> String {
    let mut out =
        "octocache — occupancy mapping with a voxel cache (OctoCache reproduction)\n\nUSAGE:\n"
            .to_string();
    for cmd in COMMANDS {
        let _ = writeln!(out, "  octocache {}", cmd.usage());
    }
    out.push_str(
        "  octocache help

datasets: fr079-corridor | freiburg-campus | new-college
backends: octomap | octomap-rt | serial | serial-rt | parallel | parallel-rt

exit codes: 0 ok | 2 usage | 3 I/O | 4 bad scan log/trace | 5 bad map | 6 bad geometry | 7 pipeline fault | 8 durability",
    );
    out
}

/// Positional arguments and `--key value` flag pairs.
type ParsedArgs<'a> = (Vec<&'a str>, Vec<(&'a str, &'a str)>);

/// Splits positional arguments from `--key value` flags. A flag that some
/// subcommand takes with no value (`--strict`, `--json`, …) is presence-only
/// for every subcommand, so a stray one is refused by name.
fn parse_flags(args: &[String]) -> Result<ParsedArgs<'_>, CliError> {
    let presence_only = |key: &str| {
        COMMANDS
            .iter()
            .flat_map(|c| c.flags)
            .any(|f| f.strip_prefix("--") == Some(key))
    };
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            if presence_only(key) {
                flags.push((key, "true"));
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| CliError::Usage(format!("flag --{key} needs a value")))?;
            flags.push((key, value.as_str()));
        } else {
            positional.push(a.as_str());
        }
    }
    Ok((positional, flags))
}

fn flag<'a>(flags: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    flags.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
}

/// Rejects a flag `cmd` does not take with the typed usage error (exit
/// code 2) instead of silently ignoring it.
fn reject_unknown_flags(cmd: &Command, flags: &[(&str, &str)]) -> Result<(), CliError> {
    let Some((k, _)) = flags
        .iter()
        .find(|(k, _)| !cmd.flag_names().any(|n| n == *k))
    else {
        return Ok(());
    };
    let takes = if cmd.flags.is_empty() {
        "no flags".to_string()
    } else {
        let names: Vec<&str> = cmd.flag_names().collect();
        format!("--{}", names.join(", --"))
    };
    Err(CliError::Usage(format!(
        "unknown flag --{k} for {} (it takes {takes})",
        cmd.name
    )))
}

/// The map encodings `build` and `recover` write (`--format ot|bt`).
#[derive(Debug, Clone, Copy)]
enum MapFormat {
    Ot,
    Bt,
}

/// Reads `--format`. Both commands call it before any work starts, so a
/// bad value leaves no trace, journal or map behind.
fn map_format(flags: &[(&str, &str)]) -> Result<MapFormat, CliError> {
    match flag(flags, "format") {
        None | Some("ot") => Ok(MapFormat::Ot),
        Some("bt") => Ok(MapFormat::Bt),
        Some(other) => Err(CliError::Usage(format!(
            "unknown format `{other}` (use ot or bt)"
        ))),
    }
}

fn parse_f64(s: &str, what: &str) -> Result<f64, CliError> {
    s.parse::<f64>()
        .map_err(|_| CliError::Usage(format!("{what} must be a number, got `{s}`")))
}

fn parse_usize(s: &str, what: &str) -> Result<usize, CliError> {
    s.parse::<usize>()
        .map_err(|_| CliError::Usage(format!("{what} must be an integer, got `{s}`")))
}

fn dataset_by_name(name: &str) -> Result<Dataset, CliError> {
    Dataset::ALL
        .into_iter()
        .find(|d| d.name() == name)
        .ok_or_else(|| CliError::Usage(format!("unknown dataset `{name}`")))
}

fn cmd_generate(cmd: &Command, pos: &[&str], flags: &[(&str, &str)]) -> Result<String, CliError> {
    let [dataset_name, out_path] = pos else {
        return Err(cmd.usage_error());
    };
    let dataset = dataset_by_name(dataset_name)?;
    let mut config = DatasetConfig::default();
    if let Some(s) = flag(flags, "scale") {
        config.scale = parse_f64(s, "--scale")?;
        if config.scale <= 0.0 || config.scale > 4.0 {
            return Err("--scale must be in (0, 4]".into());
        }
    }
    if let Some(s) = flag(flags, "seed") {
        config.seed = parse_usize(s, "--seed")? as u64;
    }
    let seq = dataset.generate(&config);
    let file = std::fs::File::create(out_path)
        .map_err(|e| CliError::Io(format!("create {out_path}: {e}")))?;
    scanlog::write_scans(&seq, std::io::BufWriter::new(file))
        .map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;
    Ok(format!(
        "wrote {}: {} scans, {} points, range {} m (scale {})",
        out_path,
        seq.scans().len(),
        seq.total_points(),
        seq.max_range(),
        config.scale
    ))
}

fn load_scanlog(path: &str) -> Result<octocache_datasets::ScanSequence, CliError> {
    let file = std::fs::File::open(path).map_err(|e| CliError::Io(format!("open {path}: {e}")))?;
    scanlog::read_scans(std::io::BufReader::new(file))
        .map_err(|e| CliError::ScanLog(format!("bad scan log {path}: {e}")))
}

fn load_map(path: &str) -> Result<OccupancyOcTree, CliError> {
    let bytes = std::fs::read(path).map_err(|e| CliError::Io(format!("read {path}: {e}")))?;
    // Auto-detect: full log-odds stream first, then the compact binary.
    match mapio::read_tree(&bytes) {
        Ok(tree) => Ok(tree),
        Err(mapio::ReadError::BadMagic) => io_bt::read_binary_tree(&bytes)
            .map_err(|e| CliError::Map(format!("bad map {path}: {e}"))),
        Err(e) => Err(CliError::Map(format!("bad map {path}: {e}"))),
    }
}

fn cmd_build(cmd: &Command, pos: &[&str], flags: &[(&str, &str)]) -> Result<String, CliError> {
    let format = map_format(flags)?;
    let [in_path, out_path] = pos else {
        return Err(cmd.usage_error());
    };
    let seq = load_scanlog(in_path)?;
    let resolution = match flag(flags, "resolution") {
        Some(s) => parse_f64(s, "--resolution")?,
        None => 0.2,
    };
    let grid = VoxelGrid::new(resolution, 16).map_err(|e| format!("invalid resolution: {e}"))?;
    let (backend_name, executor, ray_tracer, mut cache_builder) = backend_flags(flags)?;
    // Supervisor knobs: a resident-memory budget that refuses scans once
    // the map reaches it (`build()` rejects one below the cache's own
    // footprint), and the admission gate's latency deadline. Both default
    // off — an unconfigured build behaves exactly as before.
    if let Some(s) = flag(flags, "mem-budget") {
        cache_builder.mem_budget(parse_usize(s, "--mem-budget")? as u64);
    }
    if let Some(s) = flag(flags, "shed-deadline") {
        let ms = parse_f64(s, "--shed-deadline")?;
        if !ms.is_finite() || ms <= 0.0 {
            return Err("--shed-deadline must be a positive duration in ms".into());
        }
        cache_builder.shed_deadline(std::time::Duration::from_secs_f64(ms / 1e3));
    }
    // Deterministic fault injection, a test-only failpoint: `--fault
    // <spec>` schedules a worker fault, `--io-fault <spec>` a journal I/O
    // fault. A spec that does not parse, or a plan this run has nothing to
    // act on, is a usage error: a run that asked for a fault must not
    // quietly run clean.
    let io_fault = flag(flags, "io-fault")
        .map(|spec| {
            IoFaultPlan::from_spec(spec).ok_or_else(|| {
                CliError::Usage(format!(
                    "malformed --io-fault spec `{spec}` (kill:<point>@<op> | flip:<bit>@<op> | seed:<n>)"
                ))
            })
        })
        .transpose()?;
    if let Some(spec) = flag(flags, "fault") {
        let plan = FaultPlan::from_spec(spec).ok_or_else(|| {
            CliError::Usage(format!(
                "malformed --fault spec `{spec}` (kill:<w>@<b> | killevery:<w>@<n> | spawn:<w> | seed:<n>)"
            ))
        })?;
        if executor != Executor::Parallel {
            return Err(CliError::Usage(format!(
                "--fault schedules a worker fault, but backend `{backend_name}` has no octree \
                 worker (use parallel or parallel-rt)"
            )));
        }
        cache_builder.fault_plan(plan);
    }
    let strict = flag(flags, "strict").is_some();
    // Sub-scan event recording (`--events out.jsonl`): a per-run switch, so
    // it rides on the config like `fault_plan` and is never serialised.
    let events_path = flag(flags, "events");
    if events_path.is_some() {
        cache_builder.events(true);
    }
    // Durable mapping: `--journal DIR` wraps the chosen backend in the
    // checkpoint + write-ahead-journal layer; `--checkpoint-every N` sets
    // the checkpoint cadence in scans (0 = only the final seal checkpoint).
    let journal_dir = flag(flags, "journal");
    if let Some(s) = flag(flags, "checkpoint-every") {
        if journal_dir.is_none() {
            return Err(CliError::Usage(
                "--checkpoint-every requires --journal".into(),
            ));
        }
        cache_builder.checkpoint_every(parse_usize(s, "--checkpoint-every")? as u64);
    }
    if io_fault.is_some() && journal_dir.is_none() {
        return Err(CliError::Usage(
            "--io-fault schedules a journal I/O fault, which requires --journal".into(),
        ));
    }
    let cache = cache_builder.build().map_err(|e| e.to_string())?;
    let params = OccupancyParams::default();
    let backend: Box<dyn MappingSystem> = match executor {
        Executor::Baseline => {
            // OctoMapSystem takes no CacheConfig, so its event switch is a method.
            let mut sys = OctoMapSystem::with_ray_tracer(grid, params, ray_tracer);
            if events_path.is_some() {
                sys.enable_events();
            }
            Box::new(sys)
        }
        Executor::Serial => Box::new(SerialOctoCache::with_ray_tracer(
            grid, params, cache, ray_tracer,
        )),
        Executor::Parallel => Box::new(ParallelOctoCache::with_ray_tracer(
            grid, params, cache, ray_tracer,
        )),
    };
    // The durability wrapper is applied before the trace recorder attaches,
    // so journal/checkpoint latencies get stamped onto every scan record.
    // The concrete handle is kept (not type-erased) because `seal()` and
    // `stats()` are not part of the `MappingSystem` trait.
    enum BuildBackend {
        Plain(Box<dyn MappingSystem>),
        Durable(Box<DurableMap>),
    }
    impl BuildBackend {
        fn as_dyn(&mut self) -> &mut dyn MappingSystem {
            match self {
                BuildBackend::Plain(b) => &mut **b,
                BuildBackend::Durable(d) => &mut **d,
            }
        }
    }
    let mut backend = match journal_dir {
        Some(dir) => BuildBackend::Durable(Box::new(
            DurableMap::create_with_io_faults(dir, backend, params, ray_tracer, &cache, io_fault)
                .map_err(CliError::Durable)?,
        )),
        None => BuildBackend::Plain(backend),
    };
    let trace_path = flag(flags, "trace");
    if let Some(path) = trace_path {
        let recorder = octocache::JsonlRecorder::create(path)
            .map_err(|e| format!("create trace {path}: {e}"))?;
        backend.as_dyn().set_recorder(Box::new(recorder));
    }

    let t0 = std::time::Instant::now();
    let mut observations = 0usize;
    let mut hits = 0u64;
    // An octree-thread panic does not abort the build (the pipeline
    // re-applies its batch inline, so the map stays exact), and a scan the
    // supervisor sheds (deadline or memory budget) leaves the map as it
    // was; each is reported as a diagnostic line. `--strict` makes the
    // first one fatal.
    // Geometry errors always abort: the scan log itself is wrong.
    // Durability errors also always abort: the write-ahead contract is
    // broken.
    let mut scan_faults: Vec<(usize, PipelineError)> = Vec::new();
    for (i, scan) in seq.scans().iter().enumerate() {
        match backend
            .as_dyn()
            .insert_scan(scan.origin, &scan.points, seq.max_range())
        {
            Ok(report) => {
                observations += report.observations;
                hits += report.cache_hits;
            }
            Err(e @ (PipelineError::Geom(_) | PipelineError::Durable(_))) => return Err(e.into()),
            Err(e) => {
                if strict {
                    return Err(e.into());
                }
                scan_faults.push((i, e));
            }
        }
    }
    backend.as_dyn().finish();
    let elapsed = t0.elapsed();
    // Flush the recorded event stream (if any) before the tree is taken.
    let mut events_written: Option<usize> = None;
    if let Some(path) = events_path {
        let log = backend.as_dyn().take_events().unwrap_or_default();
        let file = std::fs::File::create(path)
            .map_err(|e| CliError::Io(format!("create events {path}: {e}")))?;
        let mut out = std::io::BufWriter::new(file);
        octocache_telemetry::write_events_jsonl(&mut out, &log.events)
            .and_then(|()| std::io::Write::flush(&mut out))
            .map_err(|e| CliError::Io(format!("write events {path}: {e}")))?;
        events_written = Some(log.events.len());
    }
    let times = backend.as_dyn().phase_times();
    let cache_stats = backend.as_dyn().cache_stats();
    let tree_stats = backend.as_dyn().tree_stats();
    let fault_counters = backend.as_dyn().fault_counters();

    let (tree, durable_stats) = match backend {
        BuildBackend::Plain(b) => (b.take_tree(), None),
        BuildBackend::Durable(mut d) => {
            // `finish` already sealed best-effort; re-sealing is idempotent
            // and surfaces any failure as a typed exit-8 error.
            d.seal().map_err(CliError::Durable)?;
            let stats = d.stats();
            (d.take_tree(), Some(stats))
        }
    };
    let bytes = match format {
        MapFormat::Ot => mapio::write_tree(&tree),
        MapFormat::Bt => io_bt::write_binary_tree(&tree),
    };
    std::fs::write(out_path, &bytes).map_err(|e| CliError::Io(format!("write {out_path}: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "built {out_path} with {backend_name} in {:.3} s",
        elapsed.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  observations {observations}, cache hits {hits} ({:.1} %)",
        if observations > 0 {
            hits as f64 / observations as f64 * 100.0
        } else {
            0.0
        }
    );
    let _ = writeln!(out, "  phases: {times}");
    if let Some(cs) = cache_stats {
        let _ = writeln!(
            out,
            "  cache: hit rate {:.1} %, {} evictions, {} octree seeds",
            cs.hit_rate() * 100.0,
            cs.evictions,
            cs.octree_seeds
        );
    }
    if let Some(ts) = tree_stats {
        let _ = writeln!(
            out,
            "  octree: {} node visits, {:.2} visits/update",
            ts.node_visits,
            ts.visits_per_update()
        );
    }
    if let Some(path) = trace_path {
        // The engine records every scan it ran, faulted ones included, and
        // no shed one; refusals after the last applied scan (the last scan
        // was shed) ride one trailing record.
        let shed: Vec<usize> = scan_faults
            .iter()
            .filter(|(_, e)| matches!(e, PipelineError::Shed(_)))
            .map(|(i, _)| *i)
            .collect();
        let trailing = shed.last() == Some(&(seq.scans().len() - 1));
        let records = seq.scans().len() - shed.len() + usize::from(trailing);
        let _ = writeln!(out, "  trace: {records} scan records -> {path}");
    }
    if let (Some(dir), Some(ds)) = (journal_dir, durable_stats) {
        let _ = writeln!(
            out,
            "  durable: {} journal records ({:.1} KiB), {} checkpoints (newest epoch {}) -> {dir}",
            ds.journal_records,
            ds.journal_bytes as f64 / 1024.0,
            ds.checkpoints_written,
            ds.last_checkpoint_epoch
        );
    }
    if let (Some(path), Some(count)) = (events_path, events_written) {
        let _ = writeln!(
            out,
            "  events: {count} events (cache events of the voxels on the 4×4×4 lattice) -> {path}"
        );
    }
    for (i, e) in &scan_faults {
        let _ = writeln!(out, "  scan {i}: {e}");
    }
    if fault_counters.any() {
        let f = fault_counters;
        let _ = writeln!(
            out,
            "  faults: {} worker panics, {} spawn failures, {} batches applied inline \
             ({} cells); the map is exact",
            f.worker_panics, f.spawn_failures, f.batches_rerouted, f.cells_reapplied
        );
    }
    let _ = write!(
        out,
        "  tree: {} nodes, {} leaves, {:.1} KiB resident, {:.1} KiB serialised",
        tree.num_nodes(),
        tree.num_leaves(),
        tree.memory_usage() as f64 / 1024.0,
        bytes.len() as f64 / 1024.0
    );
    Ok(out)
}

fn cmd_recover(cmd: &Command, pos: &[&str], flags: &[(&str, &str)]) -> Result<String, CliError> {
    let format = map_format(flags)?;
    let (dir, out_path) = match pos {
        [dir] => (*dir, None),
        [dir, out] => (*dir, Some(*out)),
        _ => return Err(cmd.usage_error()),
    };
    let (tree, report) = octocache::durable::recover(dir).map_err(CliError::Durable)?;
    let mut out = String::new();
    let _ = writeln!(out, "recovered {dir}");
    for line in report.render().lines() {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(
        out,
        "  tree: {} nodes, {} leaves",
        tree.num_nodes(),
        tree.num_leaves()
    );
    match out_path {
        // The recovered map is written as a checksummed v2 stream stamped
        // with its scan epoch, so downstream tools can re-verify it.
        Some(path) => {
            let bytes = match format {
                MapFormat::Ot => mapio::write_tree_v2(&tree, report.final_epoch),
                MapFormat::Bt => io_bt::write_binary_tree_v2(&tree, report.final_epoch),
            };
            std::fs::write(path, &bytes).map_err(|e| CliError::Io(format!("write {path}: {e}")))?;
            let _ = write!(
                out,
                "  wrote {path} ({:.1} KiB)",
                bytes.len() as f64 / 1024.0
            );
        }
        None => {
            let _ = write!(out, "  (dry run: no output map written)");
        }
    }
    Ok(out)
}

fn cmd_report(cmd: &Command, pos: &[&str], flags: &[(&str, &str)]) -> Result<String, CliError> {
    let json = flag(flags, "json").is_some();
    let [path] = pos else {
        return Err(cmd.usage_error());
    };
    // Crash-tolerant reads: a process killed mid-run leaves a trace whose
    // final line may be torn. The parseable prefix is still reported (with
    // a warning); a file with damage and *zero* parseable records is not a
    // trace at all and stays a typed parse error.
    let (records, damage) = octocache_telemetry::read_jsonl_prefix_path(path).map_err(|e| {
        if e.starts_with("open ") {
            CliError::Io(e)
        } else {
            CliError::ScanLog(format!("bad trace {path}: {e}"))
        }
    })?;
    if let Some(d) = &damage {
        if records.is_empty() {
            return Err(CliError::ScanLog(format!("bad trace {path}: {d}")));
        }
    }
    if records.is_empty() && !json {
        return Ok(format!("{path}: empty trace"));
    }
    let summary = octocache_telemetry::TraceSummary::from_records(&records);
    Ok(if json {
        summary.to_json()
    } else {
        let mut out = summary.render();
        if let Some(d) = damage {
            let _ = write!(
                out,
                "\nwarning: {d}; reporting the {} intact records before it",
                records.len()
            );
        }
        out
    })
}

fn cmd_analyze(cmd: &Command, pos: &[&str], flags: &[(&str, &str)]) -> Result<String, CliError> {
    let trace_out = flag(flags, "trace-out").unwrap_or("trace.json");
    let [path] = pos else {
        return Err(cmd.usage_error());
    };
    let events = octocache_telemetry::read_events_jsonl_path(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::InvalidData {
            CliError::ScanLog(format!("bad event stream {path}: {e}"))
        } else {
            CliError::Io(format!("open {path}: {e}"))
        }
    })?;
    let analytics = octocache_telemetry::EventAnalytics::from_events(&events);
    let chrome = octocache_telemetry::chrome_trace_json(&events, &analytics.workers);
    std::fs::write(trace_out, chrome)
        .map_err(|e| CliError::Io(format!("write {trace_out}: {e}")))?;
    let mut out = analytics.render();
    let _ = write!(
        out,
        "\nchrome trace: {} events -> {trace_out} (load in chrome://tracing or ui.perfetto.dev)",
        events.len()
    );
    Ok(out)
}

fn cmd_info(cmd: &Command, pos: &[&str], _: &[(&str, &str)]) -> Result<String, CliError> {
    let [path] = pos else {
        return Err(cmd.usage_error());
    };
    let tree = load_map(path)?;
    let mut out = String::new();
    let _ = writeln!(out, "map {path}");
    let _ = writeln!(out, "  resolution: {} m", tree.grid().resolution());
    let _ = writeln!(out, "  tree depth: {}", tree.grid().depth());
    let _ = writeln!(out, "  nodes: {}", tree.num_nodes());
    let _ = writeln!(out, "  leaves: {}", tree.num_leaves());
    let _ = writeln!(out, "  occupied voxels: {}", tree.occupied_voxel_count());
    let _ = write!(
        out,
        "  memory: {:.1} KiB",
        tree.memory_usage() as f64 / 1024.0
    );
    Ok(out)
}

/// The scan executor behind a backend name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Executor {
    Baseline,
    Serial,
    Parallel,
}

/// Every backend `build` takes: its executor and ray tracer.
const BACKENDS: [(&str, Executor, RayTracer); 6] = [
    ("octomap", Executor::Baseline, RayTracer::Standard),
    ("octomap-rt", Executor::Baseline, RayTracer::Dedup),
    ("serial", Executor::Serial, RayTracer::Standard),
    ("serial-rt", Executor::Serial, RayTracer::Dedup),
    ("parallel", Executor::Parallel, RayTracer::Standard),
    ("parallel-rt", Executor::Parallel, RayTracer::Dedup),
];

/// The one parse of `--backend` (default `serial`), `--buckets` (default
/// 2¹⁴, rounded up to a power of two) and `--tau` (default 4) that `build`
/// and `info` share: the backend's name, executor and ray tracer, and a
/// builder holding the cache geometry.
fn backend_flags<'a>(
    flags: &[(&str, &'a str)],
) -> Result<(&'a str, Executor, RayTracer, CacheConfigBuilder), CliError> {
    let name = flag(flags, "backend").unwrap_or("serial");
    let Some(&(_, executor, ray_tracer)) = BACKENDS.iter().find(|(n, ..)| *n == name) else {
        let names: Vec<&str> = BACKENDS.iter().map(|(n, ..)| *n).collect();
        return Err(CliError::Usage(format!(
            "unknown backend `{name}` ({})",
            names.join("|")
        )));
    };
    let buckets = match flag(flags, "buckets") {
        Some(s) => parse_usize(s, "--buckets")?,
        None => 1 << 14,
    };
    let tau = match flag(flags, "tau") {
        Some(s) => parse_usize(s, "--tau")?,
        None => 4,
    };
    let mut cache = CacheConfig::builder();
    cache
        .num_buckets(buckets.checked_next_power_of_two().unwrap_or(usize::MAX))
        .tau(tau);
    Ok((name, executor, ray_tracer, cache))
}

/// Parses `X,Y,Z` into a point.
fn parse_point3(s: &str, what: &str) -> Result<Point3, CliError> {
    let parts: Vec<&str> = s.split(',').collect();
    let [x, y, z] = parts.as_slice() else {
        return Err(CliError::Usage(format!("{what} must be X,Y,Z, got `{s}`")));
    };
    Ok(Point3::new(
        parse_f64(x, what)?,
        parse_f64(y, what)?,
        parse_f64(z, what)?,
    ))
}

/// Formats one occupancy answer in the established `query` output shape.
fn format_occupancy(snap: &MapSnapshot, p: Point3, occupancy: Option<f32>) -> String {
    match occupancy {
        None => format!("{p}: unknown"),
        Some(l) => format!(
            "{p}: {} (log-odds {l:.3}, p = {:.3})",
            if snap.params().is_occupied(l) {
                "OCCUPIED"
            } else {
                "free"
            },
            octocache_octomap::logodds_to_prob(l)
        ),
    }
}

fn cmd_query(cmd: &Command, pos: &[&str], flags: &[(&str, &str)]) -> Result<String, CliError> {
    let (path, point) = match pos {
        [path] => (*path, None),
        [path, x, y, z] => (
            *path,
            Some(Point3::new(
                parse_f64(x, "x")?,
                parse_f64(y, "y")?,
                parse_f64(z, "z")?,
            )),
        ),
        _ => return Err(cmd.usage_error()),
    };
    // All read paths go through the snapshot engine — the same code a
    // concurrent reader would run against a live backend's QueryHandle.
    let snap = MapSnapshot::from_tree(load_map(path)?);
    let mut sections: Vec<String> = Vec::new();

    if let Some(p) = point {
        let key = snap
            .grid()
            .key_of(p)
            .map_err(|e| CliError::Geom(format!("point outside map: {e}")))?;
        sections.push(format_occupancy(&snap, p, snap.occupancy(key)));
    }

    if let Some(spec) = flag(flags, "ray") {
        let (o, d) = spec
            .split_once(':')
            .ok_or_else(|| CliError::Usage(format!("--ray must be O:D, got `{spec}`")))?;
        let origin = parse_point3(o, "ray origin")?;
        let dir = parse_point3(d, "ray direction")?;
        let max_range = match flag(flags, "max-range") {
            Some(v) => parse_f64(v, "max-range")?,
            None => 50.0,
        };
        let ignore_unknown = flag(flags, "ignore-unknown").is_some();
        let result = snap
            .cast_ray(origin, dir, max_range, ignore_unknown)
            .map_err(|e| CliError::Geom(format!("invalid ray: {e}")))?;
        sections.push(match result {
            RayCastResult::Hit { key, distance } => {
                let c = snap.grid().center_of(key);
                format!("ray {origin} + t*{dir}: HIT {c} at {distance:.3} m")
            }
            RayCastResult::Unknown { key } => {
                let c = snap.grid().center_of(key);
                format!("ray {origin} + t*{dir}: UNKNOWN from {c}")
            }
            RayCastResult::Miss => {
                format!("ray {origin} + t*{dir}: free to max range {max_range} m")
            }
        });
    }

    if let Some(file) = flag(flags, "batch") {
        let text = std::fs::read_to_string(file)
            .map_err(|e| CliError::Io(format!("cannot read {file}: {e}")))?;
        let mut points = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let nums: Vec<&str> = line.split_whitespace().collect();
            let [x, y, z] = nums.as_slice() else {
                return Err(CliError::ScanLog(format!(
                    "{file}:{}: expected `x y z`, got `{line}`",
                    lineno + 1
                )));
            };
            points.push(Point3::new(
                parse_f64(x, "batch x")?,
                parse_f64(y, "batch y")?,
                parse_f64(z, "batch z")?,
            ));
        }
        let keys = points
            .iter()
            .map(|&p| snap.grid().key_of(p))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| CliError::Geom(format!("batch point outside map: {e}")))?;
        let (answers, stats) = snap.batch_occupancy(&keys);
        let mut out = String::new();
        for (p, occ) in points.iter().zip(&answers) {
            let _ = writeln!(out, "{}", format_occupancy(&snap, *p, *occ));
        }
        let _ = writeln!(out, "batch: {} queries", stats.queries);
        let _ = writeln!(out, "  nodes visited: {}", stats.nodes_visited);
        let _ = write!(
            out,
            "  nodes reused: {} (prefix reuse {:.1}%)",
            stats.nodes_reused,
            stats.reuse_fraction() * 100.0
        );
        sections.push(out);
    }

    if let Some(spec) = flag(flags, "box") {
        let (a, b) = spec
            .split_once(':')
            .ok_or_else(|| CliError::Usage(format!("--box must be MIN:MAX, got `{spec}`")))?;
        let bounds = Aabb::new(parse_point3(a, "box min")?, parse_point3(b, "box max")?);
        let occupied = snap
            .any_occupied_in_box(&bounds)
            .map_err(|e| CliError::Geom(format!("box outside map: {e}")))?;
        let leaves = snap
            .leaves_in_box(&bounds)
            .map_err(|e| CliError::Geom(format!("box outside map: {e}")))?;
        sections.push(format!(
            "box {} to {}: {} known leaves, {}",
            bounds.min,
            bounds.max,
            leaves.len(),
            if occupied {
                "contains OCCUPIED voxels"
            } else {
                "no occupied voxels"
            }
        ));
    }

    if sections.is_empty() {
        return Err("query needs a point (`<x> <y> <z>`), `--ray`, `--batch`, or `--box`".into());
    }
    Ok(sections.join("\n"))
}

fn cmd_diff(cmd: &Command, pos: &[&str], _flags: &[(&str, &str)]) -> Result<String, CliError> {
    let [path_a, path_b] = pos else {
        return Err(cmd.usage_error());
    };
    let a = load_map(path_a)?;
    let b = load_map(path_b)?;
    let d = compare::diff(&a, &b, 1e-4);
    let mut out = String::new();
    let _ = writeln!(out, "diff {path_a} vs {path_b}");
    let _ = writeln!(out, "  known voxels: {}", d.known_voxels);
    let _ = writeln!(out, "  agreement: {:.4}", d.agreement());
    let _ = writeln!(out, "  occupied IoU: {:.4}", d.occupied_iou());
    let _ = writeln!(out, "  value mismatches: {}", d.value_mismatches);
    let _ = writeln!(out, "  coverage mismatches: {}", d.coverage_mismatches);
    let _ = write!(
        out,
        "  identical: {}",
        if d.is_identical() { "yes" } else { "no" }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The resident bytes of the cache `build` makes without `--buckets` or
    /// `--tau`.
    fn default_cache_bytes() -> usize {
        let (.., cache) = backend_flags(&[]).unwrap();
        cache.build().unwrap().resident_bytes()
    }

    fn s(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|p| p.to_string()).collect()
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join(format!("octocache-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&s(&["help"])).unwrap().contains("generate"));
        assert!(run(&s(&["frobnicate"])).is_err());
    }

    #[test]
    fn generate_build_info_query_diff_pipeline() {
        let log = temp_path("corridor.scanlog");
        let out = run(&s(&[
            "generate",
            "fr079-corridor",
            &log,
            "--scale",
            "0.05",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert!(out.contains("scans"), "{out}");

        let map_a = temp_path("a.map");
        let out = run(&s(&[
            "build",
            &log,
            &map_a,
            "--backend",
            "serial",
            "--resolution",
            "0.4",
        ]))
        .unwrap();
        assert!(out.contains("built"), "{out}");
        assert!(out.contains("cache hits"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
        assert!(out.contains("evictions"), "{out}");
        assert!(out.contains("visits/update"), "{out}");

        let map_b = temp_path("b.map");
        run(&s(&[
            "build",
            &log,
            &map_b,
            "--backend",
            "octomap",
            "--resolution",
            "0.4",
        ]))
        .unwrap();

        let info = run(&s(&["info", &map_a])).unwrap();
        assert!(info.contains("nodes:"), "{info}");
        assert!(info.contains("resolution: 0.4"), "{info}");
        // `info` describes the map, not the flags of a build.
        assert!(!info.contains("engine"), "{info}");
        let err = run(&s(&["info", &map_a, "--backend", "parallel"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        // A corridor interior point is free.
        let q = run(&s(&["query", &map_a, "1.0", "0.0", "1.4"])).unwrap();
        assert!(q.contains("free"), "{q}");

        // Ray mode: casting down the corridor from a free interior point
        // reports something (hit, unknown, or free to range).
        let q = run(&s(&[
            "query",
            &map_a,
            "--ray",
            "1.0,0.0,1.4:1.0,0.0,0.0",
            "--max-range",
            "30",
        ]))
        .unwrap();
        assert!(q.contains("ray"), "{q}");

        // Batch mode: a small point file answers per point and reports the
        // Morton-sweep prefix-reuse statistics.
        let pts = temp_path("probe-points.txt");
        std::fs::write(
            &pts,
            "# probe points\n1.0 0.0 1.4\n1.2 0.0 1.4\n1.0 0.4 1.4\n",
        )
        .unwrap();
        let q = run(&s(&["query", &map_a, "--batch", &pts])).unwrap();
        assert_eq!(q.lines().filter(|l| l.starts_with('(')).count(), 3, "{q}");
        assert!(q.contains("batch: 3 queries"), "{q}");
        assert!(q.contains("prefix reuse"), "{q}");

        // Box mode: a box around the free interior reports leaf counts.
        let q = run(&s(&["query", &map_a, "--box", "0.5,-0.5,1.0:1.5,0.5,1.8"])).unwrap();
        assert!(q.contains("known leaves"), "{q}");

        // Modes compose: point + ray in one invocation, two output lines.
        let q = run(&s(&[
            "query",
            &map_a,
            "1.0",
            "0.0",
            "1.4",
            "--ray",
            "1.0,0.0,1.4:-1.0,0.0,0.0",
        ]))
        .unwrap();
        assert_eq!(q.lines().count(), 2, "{q}");

        // No query at all is a usage error.
        assert!(matches!(
            run(&s(&["query", &map_a])),
            Err(CliError::Usage(_))
        ));

        // Maps built from the same scan log agree exactly.
        let d = run(&s(&["diff", &map_a, &map_b])).unwrap();
        assert!(d.contains("identical: yes"), "{d}");
    }

    #[test]
    fn bt_format_roundtrips_through_info_and_query() {
        let log = temp_path("bt.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("bt.map");
        let out = run(&s(&[
            "build",
            &log,
            &map,
            "--resolution",
            "0.4",
            "--format",
            "bt",
        ]))
        .unwrap();
        assert!(out.contains("built"), "{out}");
        let info = run(&s(&["info", &map])).unwrap();
        assert!(info.contains("nodes:"), "{info}");
        let q = run(&s(&["query", &map, "1.0", "0.0", "1.4"])).unwrap();
        assert!(q.contains("free"), "{q}");
        // Unknown format rejected.
        assert!(run(&s(&["build", &log, &map, "--format", "xyz"])).is_err());
    }

    #[test]
    fn build_trace_then_report_prints_percentile_table() {
        let log = temp_path("trace.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("trace.map");
        let trace = temp_path("trace.jsonl");
        let out = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "parallel",
            "--resolution",
            "0.4",
            "--trace",
            &trace,
        ]))
        .unwrap();
        assert!(out.contains("trace:"), "{out}");

        // The trace is valid JSONL with one record per scan.
        let (records, damage) = octocache_telemetry::read_jsonl_prefix_path(&trace).unwrap();
        assert!(damage.is_none(), "{damage:?}");
        assert!(!records.is_empty());
        assert!(records.iter().all(|r| r.backend == "octocache-parallel"));
        assert!(records.iter().enumerate().all(|(i, r)| r.seq == i as u64));

        // The report renders the per-phase percentile table and hit-ratio
        // series (the acceptance criterion for the telemetry layer).
        let report = run(&s(&["report", &trace])).unwrap();
        assert!(report.contains("p50(us)"), "{report}");
        assert!(report.contains("p99(us)"), "{report}");
        assert!(report.contains("ray_tracing"), "{report}");
        assert!(report.contains("hit-ratio over scans"), "{report}");

        // Missing and empty traces are handled.
        assert!(run(&s(&["report", "/nonexistent.jsonl"])).is_err());
        let empty = temp_path("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        assert!(run(&s(&["report", &empty]))
            .unwrap()
            .contains("empty trace"));
    }

    #[test]
    fn removed_tree_layout_knob_is_refused_or_inert() {
        let log = temp_path("layout.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map_serial = temp_path("layout-serial.map");
        let build = |map: &str, backend: &str, trace: &str| {
            run(&s(&[
                "build",
                &log,
                map,
                "--backend",
                backend,
                "--resolution",
                "0.4",
                "--trace",
                trace,
            ]))
            .unwrap()
        };
        let tree_line = |out: &str| out.lines().last().unwrap().to_string();
        let serial_out = build(&map_serial, "serial", &temp_path("layout-serial.jsonl"));
        assert!(tree_line(&serial_out).contains("tree: "), "{serial_out}");

        // The environment variable that used to pick the storage layout is
        // no longer read: same map, same resident bytes with it set.
        std::env::set_var("OCTO_TREE_LAYOUT", "pointer");
        for backend in ["serial", "octomap", "parallel"] {
            let map = temp_path(&format!("layout-env-{backend}.map"));
            let trace = temp_path(&format!("layout-env-{backend}.jsonl"));
            let out = build(&map, backend, &trace);
            if backend == "serial" {
                assert_eq!(tree_line(&out), tree_line(&serial_out));
            }
            // The uncached baseline grows its tree from scan one; the cached
            // backends may hold everything in the cache until finish().
            let (records, damage) = octocache_telemetry::read_jsonl_prefix_path(&trace).unwrap();
            assert!(damage.is_none(), "{damage:?}");
            if backend == "octomap" {
                assert!(records.last().unwrap().memory_bytes > 0, "{backend}");
                // A trace from before the removal tagged every line with the
                // layout; `report` ignores the key and still renders.
                let legacy: String = std::fs::read_to_string(&trace)
                    .unwrap()
                    .lines()
                    .map(|l| l.replacen('{', "{\"tree_layout\":\"pointer\",", 1) + "\n")
                    .collect();
                std::fs::write(&trace, legacy).unwrap();
                let report = run(&s(&["report", &trace])).unwrap();
                assert!(report.contains("storage: peak"), "{report}");
            }
            let d = run(&s(&["diff", &map_serial, &map])).unwrap();
            assert!(d.contains("identical: yes"), "{backend}: {d}");
        }
        std::env::remove_var("OCTO_TREE_LAYOUT");

        // The flag is gone from every subcommand that took it: the ordinary
        // unknown-flag usage error, whatever its value.
        let journal = temp_path("layout-journal");
        for args in [
            vec!["build", &log, &map_serial, "--tree-layout", "arena"],
            vec!["build", &log, &map_serial, "--tree-layout", "linked-list"],
            vec!["info", &map_serial, "--tree-layout", "arena"],
            vec!["recover", &journal, "--tree-layout", "arena"],
        ] {
            let err = run(&s(&args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
            assert!(err.to_string().contains("--tree-layout"), "{err}");
        }
    }

    #[test]
    fn build_and_info_refuse_the_removed_workers_flag() {
        let log = temp_path("workers.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("workers.map");
        for args in [
            vec![
                "build",
                &log,
                &map,
                "--backend",
                "parallel",
                "--workers",
                "4",
            ],
            vec!["info", &map, "--workers", "1"],
        ] {
            let err = run(&s(&args)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{args:?}: {err}");
            assert!(err.to_string().contains("--workers"), "{err}");
        }
    }

    #[test]
    fn report_loads_a_trace_written_by_the_n_worker_pipeline() {
        // One line of a `build --backend parallel --workers 4 --trace` run at
        // the last commit that had the flag: per-shard fields the record no
        // longer carries, four-element worker vectors, an `xN` backend name.
        let line = concat!(
            r#"{"seq":0,"backend":"octocache-parallelx4","times":{"ray_tracing":{"secs":0,"nanos":201377},"#,
            r#""cache_insert":{"secs":0,"nanos":4236635},"cache_evict":{"secs":0,"nanos":153388},"#,
            r#""octree_update":{"secs":0,"nanos":289581},"enqueue":{"secs":0,"nanos":43645},"#,
            r#""dequeue":{"secs":0,"nanos":32},"wait":{"secs":0,"nanos":299688}},"observations":20820,"#,
            r#""cache_hits":15373,"cache_misses":5447,"cache_insertions":20820,"cache_evictions":5441,"#,
            r#""octree_node_visits":29486,"octree_seed_visits":14684,"octree_leaf_updates":5441,"#,
            r#""octree_nodes_created":1392,"memory_bytes":221440,"queue_depth_enqueue":4,"#,
            r#""queue_depth_dequeue":4,"mutex_wait":{"secs":0,"nanos":287},"worker_queue_depths":[1,4,1,4],"#,
            r#""shard_batch_sizes":[0,2679,0,2762],"shard_skew":2.0305090975923545,"#,
            r#""worker_busy_ns":[0,141013,0,148600],"worker_idle_ns":[7628528,5497353,5339439,5149517],"#,
            r#""worker_panics":0,"spawn_failures":0,"stall_timeouts":0,"partial_batches":0,"#,
            r#""batches_rerouted":0,"degraded":false,"restarts":0,"heals":0,"restart_ns":0,"sheds":0,"#,
            r#""pressure_level":"","snapshot_publish_ns":0,"snapshot_age_ns":0,"batch_queries":0,"#,
            r#""batch_nodes_visited":0,"batch_nodes_reused":0,"journal_append_ns":0,"#,
            r#""checkpoint_write_ns":0,"checkpoint_epoch":0}"#,
            "\n"
        );
        let trace = temp_path("nworker.jsonl");
        std::fs::write(&trace, line).unwrap();
        let report = run(&s(&["report", &trace])).unwrap();
        assert!(report.contains("octocache-parallelx4"), "{report}");
        assert!(report.contains("worker utilization: w0"), "{report}");
        assert!(report.contains("w3"), "{report}");
    }

    #[test]
    fn report_loads_a_trace_written_by_the_pressure_ladder() {
        // One line of a budgeted `build --trace` run at the last commit that
        // walked a pressure ladder: the key survives, its rung is history.
        let line = concat!(
            r#"{"seq":6,"backend":"octocache-serial","times":{"ray_tracing":{"secs":0,"nanos":2059944},"#,
            r#""cache_insert":{"secs":0,"nanos":14288942},"cache_evict":{"secs":0,"nanos":1935775},"#,
            r#""octree_update":{"secs":0,"nanos":3629091},"enqueue":{"secs":0,"nanos":0},"#,
            r#""dequeue":{"secs":0,"nanos":0},"wait":{"secs":0,"nanos":0}},"observations":321148,"#,
            r#""cache_hits":208035,"cache_misses":113113,"cache_insertions":321148,"#,
            r#""cache_evictions":55442,"octree_node_visits":341216,"octree_seed_visits":194189,"#,
            r#""octree_leaf_updates":55442,"octree_nodes_created":43152,"memory_bytes":14159872,"#,
            r#""queue_depth_enqueue":0,"queue_depth_dequeue":0,"mutex_wait":{"secs":0,"nanos":0},"#,
            r#""worker_queue_depths":[],"worker_busy_ns":[],"worker_idle_ns":[],"worker_panics":0,"#,
            r#""spawn_failures":0,"stall_timeouts":0,"partial_batches":0,"batches_rerouted":0,"#,
            r#""degraded":false,"restarts":0,"heals":0,"restart_ns":0,"sheds":0,"#,
            r#""pressure_level":"critical","snapshot_publish_ns":0,"snapshot_age_ns":0,"#,
            r#""batch_queries":0,"batch_nodes_visited":0,"batch_nodes_reused":0,"journal_append_ns":0,"#,
            r#""checkpoint_write_ns":0,"checkpoint_epoch":0}"#,
            "\n"
        );
        let trace = temp_path("ladder.jsonl");
        std::fs::write(&trace, line).unwrap();
        let (records, damage) = octocache_telemetry::read_jsonl_prefix_path(&trace).unwrap();
        assert!(damage.is_none(), "{damage:?}");
        assert_eq!(records[0].pressure_level, "critical");
        let report = run(&s(&["report", &trace])).unwrap();
        assert!(report.contains("storage: peak 13828.0 KiB"), "{report}");
        assert!(!report.contains("pressure"), "{report}");
        assert!(!report.contains("supervisor:"), "{report}");
        let json = run(&s(&["report", &trace, "--json"])).unwrap();
        assert!(json.contains(r#""scans":1"#), "{json}");
        assert!(!json.contains("pressure"), "{json}");
    }

    #[test]
    fn build_rejects_unknown_backend() {
        let log = temp_path("x.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("x.map");
        let err = run(&s(&["build", &log, &map, "--backend", "magic"])).unwrap_err();
        assert!(err.to_string().contains("unknown backend"));
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn flag_parsing_errors() {
        assert!(run(&s(&["generate", "fr079-corridor"])).is_err());
        assert!(run(&s(&["generate", "nope", "/tmp/x"])).is_err());
        let log = temp_path("y.scanlog");
        assert!(run(&s(&["generate", "fr079-corridor", &log, "--scale"])).is_err());
        assert!(run(&s(&["generate", "fr079-corridor", &log, "--scale", "abc"])).is_err());
        assert!(run(&s(&["query", "/nonexistent.map", "0", "0", "0"])).is_err());
    }

    #[test]
    fn query_outside_map_is_an_error() {
        let log = temp_path("z.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("z.map");
        run(&s(&["build", &log, &map, "--resolution", "0.4"])).unwrap();
        let err = run(&s(&["query", &map, "1e9", "0", "0"])).unwrap_err();
        assert!(err.to_string().contains("outside"), "{err}");
        assert_eq!(err.exit_code(), 6);
    }

    #[test]
    fn garbage_and_truncated_inputs_are_typed_errors_not_panics() {
        let map_out = temp_path("hardening.map");

        // Garbage scan log: parse error, exit code 4.
        let garbage = temp_path("garbage.scanlog");
        std::fs::write(&garbage, b"this is not a scan log at all \xff\xfe\x00").unwrap();
        let err = run(&s(&["build", &garbage, &map_out])).unwrap_err();
        assert!(matches!(err, CliError::ScanLog(_)), "{err}");
        assert_eq!(err.exit_code(), 4);

        // Truncated scan log: also a parse error, never a panic.
        let log = temp_path("trunc.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let bytes = std::fs::read(&log).unwrap();
        std::fs::write(&log, &bytes[..bytes.len() / 2]).unwrap();
        let err = run(&s(&["build", &log, &map_out])).unwrap_err();
        assert!(matches!(err, CliError::ScanLog(_)), "{err}");
        assert_eq!(err.exit_code(), 4);

        // Missing scan log: I/O, exit code 3.
        let err = run(&s(&["build", "/nonexistent.scanlog", &map_out])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        assert_eq!(err.exit_code(), 3);

        // Garbage map: map parse error, exit code 5 (info, query and diff
        // all route through the same loader).
        let bad_map = temp_path("garbage.map");
        std::fs::write(&bad_map, b"\x00\x01\x02 nope").unwrap();
        let err = run(&s(&["info", &bad_map])).unwrap_err();
        assert!(matches!(err, CliError::Map(_)), "{err}");
        assert_eq!(err.exit_code(), 5);
        let err = run(&s(&["query", &bad_map, "0", "0", "0"])).unwrap_err();
        assert_eq!(err.exit_code(), 5);

        // Garbage trace: parse error, exit code 4.
        let bad_trace = temp_path("garbage.jsonl");
        std::fs::write(&bad_trace, "{not json\n").unwrap();
        let err = run(&s(&["report", &bad_trace])).unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");

        // Usage errors stay exit code 2.
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert_eq!(err.exit_code(), 2);

        // A cache geometry no machine could allocate is one of them, not an
        // allocation request: the cache reserves `buckets × tau` cells up
        // front.
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        for geometry in [
            ["--tau", "1000000", "--buckets", "65536"],
            ["--tau", "4", "--buckets", "18446744073709551615"],
            ["--tau", "18446744073709551615", "--buckets", "16"],
        ] {
            let mut args = s(&["build", &log, &map_out]);
            args.extend(s(&geometry));
            let err = run(&args).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{geometry:?}: {err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn fault_flag_is_validated() {
        let log = temp_path("fault.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("fault.map");
        // A malformed spec is a usage error.
        let err = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "parallel",
            "--fault",
            "explode:9",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        // So is the retired ring-fill spec: there is no ring to fill.
        let err = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "parallel",
            "--fault",
            "fill:0",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("malformed --fault"), "{err}");
        // And the retired stall spec: no wait is bounded any more.
        let err = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "parallel",
            "--fault",
            "stall:0@1:100",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("malformed --fault"), "{err}");
        // So is a worker fault on a backend without a worker, named or
        // seeded: it would inject nothing.
        for backend in ["serial", "octomap"] {
            for spec in ["kill:0@1", "seed:3"] {
                let err = run(&s(&[
                    "build",
                    &log,
                    &map,
                    "--backend",
                    backend,
                    "--fault",
                    spec,
                ]))
                .unwrap_err();
                assert_eq!(err.exit_code(), 2, "{backend} {spec}: {err}");
                assert!(err.to_string().contains("no octree worker"), "{err}");
            }
        }

        // A killed octree thread costs only time: the build completes and
        // reports the panic, its batch re-applied inline.
        let out = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "parallel",
            "--resolution",
            "0.4",
            "--fault",
            "kill:0@1",
        ]))
        .unwrap();
        assert!(out.contains("faults: 1 worker panics"), "{out}");
        assert!(out.contains("the map is exact"), "{out}");

        // --strict turns the same fault into a fatal pipeline error.
        let err = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "parallel",
            "--resolution",
            "0.4",
            "--fault",
            "kill:0@1",
            "--strict",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Pipeline(_)), "{err}");
        assert_eq!(err.exit_code(), 7);
    }

    /// `--io-fault` schedules a journal I/O fault: a spec that does not
    /// parse, or a plan with no journal to act on, is refused rather than
    /// run clean, and an injected kill surfaces as the durability error.
    #[test]
    fn io_fault_flag_is_parsed_and_refused_when_unusable() {
        let log = temp_path("io-fault.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("io-fault.map");
        let journal = temp_path("io-fault-journal");
        let _ = std::fs::remove_dir_all(&journal);
        let build = ["build", &log, &map, "--backend", "parallel"];
        let with = |extra: &[&str]| {
            let mut args = build.to_vec();
            args.extend(extra);
            run(&s(&args))
        };

        for spec in ["bogus", "seed:-1", "kill:mid@2,seed:3"] {
            let err = with(&["--journal", &journal, "--io-fault", spec]).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{spec}: {err}");
            assert!(
                err.to_string().contains("malformed --io-fault spec"),
                "{spec}: {err}"
            );
        }

        let err = with(&["--io-fault", "kill:mid@2"]).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("requires --journal"), "{err}");

        // The kill tears the second append: the durability error exits 8.
        let err = with(&["--io-fault", "kill:mid@2", "--journal", &journal]).unwrap_err();
        assert!(matches!(err, CliError::Durable(_)), "{err}");
        assert_eq!(err.exit_code(), 8, "{err}");
        let _ = std::fs::remove_dir_all(&journal);
    }

    /// Every subcommand comes from `COMMANDS`: a flag it does not take
    /// (`--sclae`, a typo of `generate`'s `--scale`) exits 2 instead of
    /// being ignored, and every flag its usage line names — in `help` and
    /// in its usage error — is one it accepts.
    #[test]
    fn every_subcommand_refuses_unknown_flags_and_names_its_own() {
        let help = usage();
        for cmd in COMMANDS {
            let err = run(&s(&[cmd.name, "--sclae", "2"])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{}: {err}", cmd.name);
            assert!(
                err.to_string().contains("unknown flag --sclae"),
                "{}: {err}",
                cmd.name
            );

            let line = help
                .lines()
                .find(|l| l.starts_with(&format!("  octocache {} ", cmd.name)))
                .unwrap_or_else(|| panic!("{}: no usage line in {help}", cmd.name));
            let usage_error = run(&s(&[cmd.name])).unwrap_err().to_string();
            assert!(
                usage_error.ends_with(line.trim_start_matches("  octocache ")),
                "{usage_error}"
            );
            let named: Vec<&str> = line
                .split(" [--")
                .skip(1)
                .map(|f| f.split([' ', ']']).next().unwrap())
                .collect();
            assert_eq!(named.len(), cmd.flags.len(), "{line}");
            for name in named {
                let flag = format!("--{name}");
                let err = run(&s(&[cmd.name, &flag, "1"])).err();
                assert!(
                    !err.is_some_and(|e| e.to_string().contains("unknown flag")),
                    "{}: the usage names {flag} but the command refuses it",
                    cmd.name
                );
            }
        }
    }

    #[test]
    fn supervisor_flags_are_validated_and_the_respawn_budget_is_gone() {
        let log = temp_path("supervisor.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("supervisor.map");

        // Bad supervisor values are usage errors, and so is a budget below
        // the default cache's own resident bytes (1 507 392): it would
        // refuse every scan.
        let cache_bytes = default_cache_bytes();
        for budget in ["0", "200000", &(cache_bytes - 1).to_string()] {
            let err = run(&s(&["build", &log, &map, "--mem-budget", budget])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(
                err.to_string().contains(&format!("{cache_bytes} B")),
                "{err}"
            );
        }
        let err = run(&s(&["build", &log, &map, "--shed-deadline", "-1"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        // Generous knobs leave a healthy build unchanged: no supervisor
        // line, no fault line, the map is written normally.
        let out = run(&s(&[
            "build",
            &log,
            &map,
            "--resolution",
            "0.4",
            "--mem-budget",
            "1073741824",
            "--shed-deadline",
            "50",
        ]))
        .unwrap();
        assert!(out.contains("built"), "{out}");
        assert!(!out.contains("supervisor:"), "{out}");
        assert!(!out.contains("faults:"), "{out}");

        // There is no worker to respawn: the budget flag is unknown.
        for backend in ["serial", "parallel"] {
            let err = run(&s(&[
                "build",
                &log,
                &map,
                "--backend",
                backend,
                "--max-restarts",
                "1",
            ]))
            .unwrap_err();
            assert_eq!(err.exit_code(), 2, "{backend}: {err}");
        }
    }

    /// A refused scan is one diagnostic line, whichever check refused it.
    /// Scan 0 is always admitted (the latency average starts empty, and
    /// the tree is empty), and scan 1 never is: every real scan takes
    /// longer than 1 µs, and the budget is one byte over the default
    /// cache's resident bytes, which its fold scratch alone passes after
    /// one scan. `--strict` makes the refusal fatal (exit 7). The trace
    /// line counts the records actually written, the trailing one that
    /// carries the refusals included.
    #[test]
    fn build_sheds_on_the_deadline_and_the_budget() {
        let log = temp_path("shed.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let scans = load_scanlog(&log).unwrap().scans().len();
        let map = temp_path("shed.map");
        let trace = temp_path("shed.jsonl");
        let budget = (default_cache_bytes() + 1).to_string();
        for (knob, value, reason) in [
            ("--shed-deadline", "0.001", "deadline exceeded"),
            ("--mem-budget", budget.as_str(), "over memory budget"),
        ] {
            let out = run(&s(&["build", &log, &map, knob, value, "--trace", &trace])).unwrap();
            let shed: Vec<&str> = out
                .lines()
                .map(str::trim_start)
                .filter(|l| l.starts_with("scan ") && l.contains(reason))
                .collect();
            assert!(
                shed.first().is_some_and(|l| l.starts_with("scan 1: ")),
                "{knob}: {out}"
            );
            // Every scan after scan 0 is refused, so the refusals ride one
            // trailing record and the trace's `sheds` count every one.
            let records = octocache_telemetry::read_jsonl_prefix_path(&trace)
                .unwrap()
                .0;
            let written = records.len();
            assert_eq!(written + shed.len(), scans + 1, "{knob}: {out}");
            let summed: u64 = records.iter().map(|r| r.sheds).sum();
            assert_eq!(summed, shed.len() as u64, "{knob}: {out}");
            assert!(
                out.contains(&format!("trace: {written} scan records")),
                "{knob}: {out}"
            );

            let err = run(&s(&["build", &log, &map, knob, value, "--strict"])).unwrap_err();
            assert_eq!(err.exit_code(), 7, "{knob}: {err}");
            assert!(err.to_string().contains(reason), "{knob}: {err}");
        }
    }

    /// Campus at scale 0.25 under a 9.5 MB budget applies scans 0–15 and
    /// sheds 16–19 on `serial`: the refusals after the last applied scan
    /// ride one trailing record, which `report` names apart instead of
    /// counting it as a sixteenth scan.
    #[test]
    fn report_counts_the_trailing_record_apart_from_the_scans() {
        let log = temp_path("trailing.scanlog");
        run(&s(&[
            "generate",
            "freiburg-campus",
            &log,
            "--scale",
            "0.25",
        ]))
        .unwrap();
        let map = temp_path("trailing.map");
        let trace = temp_path("trailing.jsonl");
        let out = run(&s(&[
            "build",
            &log,
            &map,
            "--mem-budget",
            "9500000",
            "--trace",
            &trace,
        ]))
        .unwrap();
        let shed = out.lines().filter(|l| l.contains("scan shed")).count();
        assert!(
            out.contains("scan 19: scan shed: over memory budget") && shed >= 1,
            "{out}"
        );
        let applied = 20 - shed;
        let records = octocache_telemetry::read_jsonl_prefix_path(&trace)
            .unwrap()
            .0;
        assert_eq!(records.len(), applied + 1, "{out}");
        let last = records.last().unwrap();
        assert!(last.trailing && last.observations == 0, "{last:?}");
        assert_eq!(last.sheds, shed as u64);
        assert!(records[..applied].iter().all(|r| !r.trailing));
        let report = run(&s(&["report", &trace])).unwrap();
        assert!(
            report.starts_with(&format!(
                "trace: {applied} scans + 1 trailing record (refusals after the last scan)"
            )),
            "{report}"
        );
    }

    #[test]
    fn build_with_events_then_analyze_exports_chrome_trace() {
        let log = temp_path("events.scanlog");
        run(&s(&[
            "generate",
            "fr079-corridor",
            &log,
            "--scale",
            "0.05",
            "--seed",
            "7",
        ]))
        .unwrap();

        let map = temp_path("events.map");
        let ev = temp_path("events.jsonl");
        let trace = temp_path("events.trace.jsonl");
        let out = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "parallel",
            "--resolution",
            "0.4",
            "--buckets",
            "256",
            "--tau",
            "2",
            "--events",
            &ev,
            "--trace",
            &trace,
        ]))
        .unwrap();
        assert!(out.contains("events:"), "{out}");

        // Recording events does not change the map.
        let plain = temp_path("events-off.map");
        run(&s(&[
            "build",
            &log,
            &plain,
            "--backend",
            "parallel",
            "--resolution",
            "0.4",
            "--buckets",
            "256",
            "--tau",
            "2",
        ]))
        .unwrap();
        let d = run(&s(&["diff", &map, &plain])).unwrap();
        assert!(d.contains("identical: yes"), "{d}");

        let chrome = temp_path("events.trace.json");
        let out = run(&s(&["analyze", &ev, "--trace-out", &chrome])).unwrap();
        let scans = load_scanlog(&log).unwrap().scans().len();
        assert!(out.contains(&format!("scans {scans} ")), "{out}");
        for buckets in octocache_telemetry::SHADOW_BUCKETS {
            assert!(
                out.lines()
                    .any(|l| l.split_whitespace().next() == Some(&buckets.to_string())),
                "no shadow row for w′ = {buckets} in:\n{out}"
            );
        }
        for section in [
            "event analytics",
            "shadow caches",
            "cache residency",
            "per-octant hit ratio",
            "bucket heatmap",
            "worker timelines",
            "chrome trace:",
        ] {
            assert!(out.contains(section), "missing {section:?} in:\n{out}");
        }

        // The exported file is valid Chrome Trace Event Format JSON with at
        // least one complete ("X") span on the worker lane plus thread
        // metadata.
        let json = std::fs::read_to_string(&chrome).unwrap();
        let doc: serde::Value = serde::json::from_str(&json).unwrap();
        let entries = doc
            .get("traceEvents")
            .and_then(serde::Value::as_seq)
            .expect("traceEvents array");
        assert!(
            entries
                .iter()
                .any(|e| e.get("ph").and_then(serde::Value::as_str) == Some("M")),
            "no metadata events"
        );
        assert!(
            entries.iter().any(|e| {
                e.get("ph").and_then(serde::Value::as_str) == Some("X")
                    && e.get("tid").and_then(serde::Value::as_u64) == Some(1)
            }),
            "no complete span for the worker lane"
        );

        // `report --json` on the scan trace is machine-readable.
        let out = run(&s(&["report", &trace, "--json"])).unwrap();
        let doc: serde::Value = serde::json::from_str(&out).unwrap();
        assert_eq!(
            doc.get("backend").and_then(serde::Value::as_str),
            Some("octocache-parallel")
        );
        assert!(doc
            .get("hit_ratio")
            .and_then(serde::Value::as_f64)
            .is_some());
        assert!(doc.get("phases").and_then(serde::Value::as_seq).is_some());
    }

    #[test]
    fn build_with_journal_then_recover_matches_build_output() {
        let log = temp_path("durable.scanlog");
        run(&s(&[
            "generate",
            "fr079-corridor",
            &log,
            "--scale",
            "0.05",
            "--seed",
            "11",
        ]))
        .unwrap();

        let map = temp_path("durable.map");
        let journal = temp_path("durable-journal");
        let _ = std::fs::remove_dir_all(&journal);
        let trace = temp_path("durable.jsonl");
        let out = run(&s(&[
            "build",
            &log,
            &map,
            "--backend",
            "serial",
            "--resolution",
            "0.4",
            "--journal",
            &journal,
            "--checkpoint-every",
            "4",
            "--trace",
            &trace,
        ]))
        .unwrap();
        assert!(out.contains("durable:"), "{out}");
        assert!(out.contains("checkpoints"), "{out}");

        // The trace records carry journal latencies and checkpoint epochs.
        let (records, damage) = octocache_telemetry::read_jsonl_prefix_path(&trace).unwrap();
        assert!(damage.is_none(), "{damage:?}");
        assert!(records.iter().all(|r| r.journal_append_ns > 0));
        assert!(records.iter().any(|r| r.checkpoint_epoch > 0));
        let report = run(&s(&["report", &trace])).unwrap();
        assert!(report.contains("durability: journal"), "{report}");

        // Dry-run recovery verifies without writing.
        let out = run(&s(&["recover", &journal])).unwrap();
        assert!(out.contains("status:            clean"), "{out}");
        assert!(out.contains("dry run"), "{out}");

        // Full recovery reproduces the build's map voxel-for-voxel.
        let recovered = temp_path("durable-recovered.map");
        let out = run(&s(&["recover", &journal, &recovered])).unwrap();
        assert!(out.contains("wrote"), "{out}");
        let d = run(&s(&["diff", &map, &recovered])).unwrap();
        assert!(d.contains("identical: yes"), "{d}");

        // The recovered map is a checksummed v2 stream.
        let bytes = std::fs::read(&recovered).unwrap();
        let footer = octocache_octomap::io::peek_footer(&bytes).unwrap();
        assert!(footer.is_some(), "recovered map must carry a v2 footer");
    }

    #[test]
    fn recover_errors_are_typed_exit_8() {
        // Nothing to recover.
        let empty = temp_path("no-journal-here");
        let _ = std::fs::remove_dir_all(&empty);
        std::fs::create_dir_all(&empty).unwrap();
        let err = run(&s(&["recover", &empty])).unwrap_err();
        assert!(matches!(err, CliError::Durable(_)), "{err}");
        assert_eq!(err.exit_code(), 8);

        // A torn journal header (crashed before creation finished) is
        // corruption, not a silent empty map.
        let torn = temp_path("torn-journal");
        let _ = std::fs::remove_dir_all(&torn);
        std::fs::create_dir_all(&torn).unwrap();
        std::fs::write(format!("{torn}/journal"), b"OCTJ").unwrap();
        let err = run(&s(&["recover", &torn])).unwrap_err();
        assert_eq!(err.exit_code(), 8, "{err}");

        // --checkpoint-every without --journal is a usage error.
        let log = temp_path("durable-usage.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("durable-usage.map");
        let err = run(&s(&["build", &log, &map, "--checkpoint-every", "4"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn journaled_build_recovers_after_damaged_tail() {
        let log = temp_path("torntail.scanlog");
        run(&s(&[
            "generate",
            "fr079-corridor",
            &log,
            "--scale",
            "0.05",
            "--seed",
            "3",
        ]))
        .unwrap();
        let map = temp_path("torntail.map");
        let journal = temp_path("torntail-journal");
        let _ = std::fs::remove_dir_all(&journal);
        run(&s(&[
            "build",
            &log,
            &map,
            "--resolution",
            "0.4",
            "--journal",
            &journal,
            "--checkpoint-every",
            "1000",
        ]))
        .unwrap();

        // Simulate a torn final write: chop bytes off the journal tail.
        let jpath = format!("{journal}/journal");
        let bytes = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &bytes[..bytes.len() - 11]).unwrap();

        let out = run(&s(&["recover", &journal])).unwrap();
        assert!(out.contains("damaged bytes dropped"), "{out}");
        assert!(out.contains("status:            recovered"), "{out}");
    }

    #[test]
    fn report_tolerates_torn_trace_tail() {
        let log = temp_path("torntrace.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("torntrace.map");
        let trace = temp_path("torntrace.jsonl");
        run(&s(&[
            "build",
            &log,
            &map,
            "--resolution",
            "0.4",
            "--trace",
            &trace,
        ]))
        .unwrap();
        // Tear the final line as a killed process would.
        let text = std::fs::read_to_string(&trace).unwrap();
        std::fs::write(&trace, &text[..text.len() - 30]).unwrap();
        let report = run(&s(&["report", &trace])).unwrap();
        assert!(report.contains("warning: damaged tail"), "{report}");
        assert!(report.contains("p50(us)"), "{report}");
    }

    #[test]
    fn report_and_analyze_reject_unknown_flags() {
        for args in [
            &["report", "x.jsonl", "--frob", "1"][..],
            &["analyze", "x.jsonl", "--frob", "1"],
            &["query", "a.map", "1", "0", "0", "--rey", "0,0,0:1,0,0"],
            &["diff", "a.map", "a.map", "--bogus", "1"],
        ] {
            let err = run(&s(args)).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{args:?}: {err}");
            assert_eq!(err.exit_code(), 2, "{args:?}");
            assert!(err.to_string().contains("unknown flag"), "{args:?}: {err}");
        }
    }

    /// `--format` is read before any work starts: a refused value leaves
    /// no map, trace or journal behind.
    #[test]
    fn bad_format_is_refused_before_any_output_is_written() {
        let log = temp_path("format.scanlog");
        run(&s(&["generate", "fr079-corridor", &log, "--scale", "0.05"])).unwrap();
        let map = temp_path("format.map");
        let trace = temp_path("format.jsonl");
        let journal = temp_path("format-journal");
        for path in [&map, &trace] {
            let _ = std::fs::remove_file(path);
        }
        let _ = std::fs::remove_dir_all(&journal);
        let err = run(&s(&[
            "build",
            &log,
            &map,
            "--format",
            "xyz",
            "--trace",
            &trace,
            "--journal",
            &journal,
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
        assert!(err.to_string().contains("unknown format `xyz`"), "{err}");
        for path in [&map, &trace, &journal] {
            assert!(!std::path::Path::new(path).exists(), "{path} was written");
        }
        // `recover` reads it through the same parse, dry run included.
        let err = run(&s(&["recover", &journal, "--format", "xyz"])).unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");
    }

    #[test]
    fn analyze_missing_and_garbage_inputs_are_typed_errors() {
        let missing = temp_path("no-such-events.jsonl");
        let _ = std::fs::remove_file(&missing);
        let err = run(&s(&["analyze", &missing])).unwrap_err();
        assert!(matches!(err, CliError::Io(_)), "{err}");
        assert_eq!(err.exit_code(), 3);

        let garbage = temp_path("garbage-events.jsonl");
        std::fs::write(&garbage, "this is not an event record\n").unwrap();
        let chrome = temp_path("garbage.trace.json");
        let err = run(&s(&["analyze", &garbage, "--trace-out", &chrome])).unwrap_err();
        assert!(matches!(err, CliError::ScanLog(_)), "{err}");
        assert_eq!(err.exit_code(), 4);
    }
}
