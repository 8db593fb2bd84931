//! The run grid: every figure and table of the evaluation is a named
//! [`Run`] — value lists for some axes of one point kind (the rest stay at
//! [`Kind::defaults`]), expanded as their cartesian product, plus the
//! columns its table prints. A sweep expands the selected runs into the
//! *set* of distinct points ([`plan`]), measures each once ([`measure`]),
//! checks every map against its baseline ([`PointSet::verify`]) and projects
//! each run's table from the set ([`PointSet::table`]).

use octocache::locality::VoxelOrder;
use octocache_datasets::{Dataset, DatasetConfig, ScanSequence};
use octocache_geom::VoxelKey;
use octocache_sim::{Environment, UavModel};
use serde::Value;

use crate::Cell::{Int, Num, Real, Text};
use crate::{
    baseline_of, build, cache_with, cell, construct, describe, distinct_voxels, fly, grid,
    insert_ordered, percent, pick, scenario_smoke, Cell, Row, RT, STANDARD,
};

/// Axis names with the values each takes.
pub type Axes = &'static [(&'static str, &'static [Cell])];

/// The four measurements a point can be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// [`construct`]: build a dataset's map.
    Construction,
    /// [`fly`]: a closed-loop UAV mission.
    Mission,
    /// [`describe`]: a dataset's workload statistics.
    Dataset,
    /// [`insert_ordered`]: fill an octree in one voxel order.
    Order,
}

impl Kind {
    /// Every axis of the kind, slowest-varying first, with the values it
    /// takes unless a run says otherwise. `ref` is the dataset's reference
    /// resolution, `sized` the §5.2 cache, `base` the environment's
    /// baseline ⟨range, resolution⟩ for the backend's ray tracer.
    pub fn defaults(self) -> Vec<(&'static str, Vec<Cell>)> {
        let datasets = ("dataset", Dataset::ALL.map(|d| Text(d.name())).to_vec());
        match self {
            Kind::Construction => vec![
                datasets,
                ("res", vec![Text("ref")]),
                ("backend", STANDARD.map(Text).to_vec()),
                ("w", vec![Text("sized")]),
                ("tau", vec![Int(4)]),
                ("readers", vec![Int(0)]),
                ("probes", vec![Int(0)]),
            ],
            Kind::Mission => vec![
                ("uav", UavModel::all().map(|u| Text(u.name)).to_vec()),
                ("env", Environment::ALL.map(|e| Text(e.name())).to_vec()),
                ("backend", PAIR.to_vec()),
                ("range", vec![Text("base")]),
                ("res", vec![Text("base")]),
            ],
            Kind::Dataset => vec![datasets, ("res", Vec::new())],
            Kind::Order => vec![
                datasets,
                ("order", VoxelOrder::ALL.map(|o| Text(o.label())).to_vec()),
            ],
        }
    }
}

/// One point of the evaluation: a kind and a value for each of its axes.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Which measurement.
    pub kind: Kind,
    /// The axis settings, in [`Kind::defaults`] order.
    pub axes: Row,
}

fn set(axes: &mut Row, name: &str, value: Cell) {
    for (_, cell) in axes.iter_mut().filter(|(n, _)| *n == name) {
        *cell = value;
    }
}

fn dataset_of(axes: &Row) -> Dataset {
    pick(axes, "dataset", Dataset::ALL, Dataset::name)
}

/// The per-dataset reference resolution of the decomposition experiments
/// (Fig 22 / Table 3): fine enough that the octree dominates.
pub fn reference_resolution(dataset: Dataset) -> f64 {
    match dataset {
        Dataset::Fr079Corridor => 0.1,
        Dataset::FreiburgCampus => 0.2,
        Dataset::NewCollege => 0.1,
    }
}

impl Point {
    /// Replaces the `ref` / `base` placeholders by the values they stand
    /// for, so that equal points compare equal.
    fn resolved(kind: Kind, mut axes: Row) -> Point {
        match kind {
            Kind::Construction => {
                if cell(&axes, "res") == Text("ref") {
                    let reference = reference_resolution(dataset_of(&axes));
                    set(&mut axes, "res", Num(reference));
                }
                // A baseline has no cache to shape.
                let backend = cell(&axes, "backend").text();
                if backend == baseline_of(backend) {
                    set(&mut axes, "w", Text("sized"));
                    set(&mut axes, "tau", Int(4));
                }
            }
            Kind::Mission => {
                let env = pick(&axes, "env", Environment::ALL, Environment::name);
                let base = match cell(&axes, "backend").text().ends_with("-rt") {
                    true => env.baseline_params_rt(),
                    false => env.baseline_params(),
                };
                for (axis, value) in [("range", base.sensing_range), ("res", base.resolution)] {
                    if cell(&axes, axis) == Text("base") {
                        set(&mut axes, axis, Num(value));
                    }
                }
            }
            Kind::Dataset | Kind::Order => {}
        }
        Point { kind, axes }
    }

    /// The point this one is compared against: the plain cache-less build
    /// (or flight) with the same ray tracer. A construction point's map
    /// must equal its baseline's; speed-ups are over the baseline.
    pub fn baseline(&self) -> Option<Point> {
        let mut axes = self.axes.clone();
        match self.kind {
            Kind::Dataset | Kind::Order => return None,
            Kind::Mission => {}
            Kind::Construction => {
                for (axis, plain) in [("readers", Int(0)), ("probes", Int(0))] {
                    set(&mut axes, axis, plain);
                }
            }
        }
        let plain = baseline_of(cell(&axes, "backend").text());
        set(&mut axes, "backend", Text(plain));
        Some(Point::resolved(self.kind, axes))
    }
}

/// A named run: one row of DESIGN.md §3's experiment index.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Name on the command line.
    pub name: &'static str,
    /// Table title.
    pub title: &'static str,
    /// What the paper reports, printed under the table.
    pub paper: &'static str,
    /// Point kind of every grid.
    pub kind: Kind,
    /// The grids whose points are the table's rows; each lists the axes it
    /// moves off [`Kind::defaults`].
    pub grids: &'static [Axes],
    /// The columns the table prints, space-separated: axes, measurements
    /// or the derived columns of [`PointSet::row`].
    pub columns: &'static str,
}

fn push_unique(points: &mut Vec<Point>, point: Point) {
    if !points.contains(&point) {
        points.push(point);
    }
}

impl Run {
    /// The distinct points of the run's grids, in table order.
    ///
    /// # Panics
    ///
    /// When a grid names an axis its kind does not have.
    pub fn points(&self) -> Vec<Point> {
        let mut points = Vec::new();
        for grid in self.grids {
            let mut rows: Vec<Row> = vec![Vec::new()];
            let defaults = self.kind.defaults();
            for (axis, _) in grid.iter() {
                let known = defaults.iter().any(|(name, _)| name == axis);
                assert!(known, "run {} sets unknown axis {axis}", self.name);
            }
            for (name, default) in defaults {
                let values = match grid.iter().find(|(axis, _)| *axis == name) {
                    Some((_, values)) => values.to_vec(),
                    None => default,
                };
                rows = (rows.iter())
                    .flat_map(|row| values.iter().map(|&v| [&row[..], &[(name, v)]].concat()))
                    .collect();
            }
            for axes in rows {
                push_unique(&mut points, Point::resolved(self.kind, axes));
            }
        }
        points
    }
}

const OCTOMAP: &[Cell] = &[Text("octomap")];
const SERIAL: &[Cell] = &[Text("octocache-serial")];
const PARALLEL: &[Cell] = &[Text("octocache-parallel")];
const PAIR: &[Cell] = &[Text("octomap"), Text("octocache-parallel")];
const PAIR_RT: &[Cell] = &[Text("octomap-rt"), Text("octocache-parallel-rt")];
const ALL_RT: &[Cell] = &[
    Text("octomap-rt"),
    Text("octocache-serial-rt"),
    Text("octocache-parallel-rt"),
];
const RES_4: &[Cell] = &[Num(0.1), Num(0.2), Num(0.4), Num(0.8)];
#[rustfmt::skip]
const RES_9: &[Cell] = &[
    Num(0.1), Num(0.2), Num(0.3), Num(0.4), Num(0.5), Num(0.6), Num(0.7), Num(0.8), Num(0.9),
];
const RANGES: &[Cell] = &[Num(2.0), Num(2.5), Num(3.0), Num(3.5), Num(4.0)];
const PELICAN: &[Cell] = &[Text("asctec-pelican")];
const ROOM: &[Cell] = &[Text("room")];
const MISSION_COLUMNS: &str =
    "uav env backend range res e2e(ms) map(ms) plan(ms) v(m/s) T(s) reached speedup T-saved";
const BUILD_COLUMNS: &str = "dataset res backend total(s) speedup hit";

/// Every run, in the order of DESIGN.md §3.
pub const RUNS: &[Run] = &[
    Run {
        name: "fig01",
        title: "Figure 1 — cache hits and octree memory-visit reduction",
        paper: ">95% cache hits; ~0.125x memory visits vs the octree",
        kind: Kind::Construction,
        grids: &[&[("backend", &[Text("octomap"), Text("octocache-serial")])]],
        columns: "dataset res backend hit visits visits-vs-base",
    },
    Run {
        name: "fig06",
        title: "Figure 6 — OctoMap runtime decomposition (octree update dominates)",
        paper: "octree update >= 86% of OctoMap runtime, 93-96% at fine resolutions",
        kind: Kind::Construction,
        grids: &[&[("res", RES_4), ("backend", OCTOMAP)]],
        columns: "dataset res ray(s) octree(s) octree% total(s)",
    },
    Run {
        name: "fig08",
        title: "Figures 7/8, §3.1 — duplication factor, overlap with the previous 3 batches",
        paper: "duplication 2.78-31.32x; >80% overlap for two datasets, ~40% for freiburg-campus",
        kind: Kind::Dataset,
        grids: &[&[("res", &[Num(0.2)])]],
        columns: "dataset dup-min dup-mean dup-max ovl-p10 ovl-p50 ovl-p90 ovl-mean",
    },
    Run {
        name: "fig10",
        title: "Figure 10 — per-voxel insertion by order at 0.1 m (morton should be fastest)",
        paper: "morton 1.34-1.38x vs original, 1.97-3.32x vs random; speed correlates with F",
        kind: Kind::Order,
        grids: &[&[]],
        columns: "dataset order voxels ns/voxel visits/voxel F(S) vs-morton",
    },
    Run {
        name: "table2",
        title: "Table 2 — dataset details (synthetic, scaled)",
        paper: "full-size, e.g. FR-079 @0.1m: 66 clouds, 6.26M nondup, 196.1M dup",
        kind: Kind::Dataset,
        grids: &[&[("res", RES_4)]],
        columns: "dataset clouds points res nondup dup ratio",
    },
    Run {
        name: "fig16",
        title: "Figure 16 — UAV end-to-end: OctoMap vs OctoCache",
        paper: "AscTec e2e 1.78x/3.02x/2.95x/1.98x, completion -13%/-27%/-28%/-19%; \
                Spark: no gain in openland/factory (rotor-power-bound)",
        kind: Kind::Mission,
        grids: &[&[]],
        columns: MISSION_COLUMNS,
    },
    Run {
        name: "fig17",
        title: "Figure 17 — UAV end-to-end: OctoMap-RT vs OctoCache-RT (resolutions 5x coarser)",
        paper: "AscTec e2e 1.33x/1.53x/1.51x/1.45x; completion -14%/-12%/-13%/-15%",
        kind: Kind::Mission,
        grids: &[&[("backend", PAIR_RT)]],
        columns: MISSION_COLUMNS,
    },
    Run {
        name: "fig18",
        title: "Figure 18 — Room, AscTec: resolution sweep @ 3 m, then range sweep @ 0.15 m",
        paper: "speedup grows with finer res / longer range (2.46x @4m/0.15m, 3.66x @3m/0.1m)",
        kind: Kind::Mission,
        grids: &[
            &[
                ("uav", PELICAN),
                ("env", ROOM),
                ("range", &[Num(3.0)]),
                (
                    "res",
                    &[Num(0.1), Num(0.125), Num(0.15), Num(0.175), Num(0.2)],
                ),
            ],
            &[
                ("uav", PELICAN),
                ("env", ROOM),
                ("range", RANGES),
                ("res", &[Num(0.15)]),
            ],
        ],
        columns: MISSION_COLUMNS,
    },
    Run {
        name: "fig19",
        title: "Figure 19 — RT variants: resolution sweep @ 3 m (5x coarser), range sweep @ 0.15 m",
        paper: "octocache-rt 25%/17% faster in the two highlighted scenarios; up to 37x at 0.01m",
        kind: Kind::Mission,
        grids: &[
            &[
                ("uav", PELICAN),
                ("env", ROOM),
                ("backend", PAIR_RT),
                ("range", &[Num(3.0)]),
                (
                    "res",
                    &[Num(0.05), Num(0.1), Num(0.15), Num(0.2), Num(0.25)],
                ),
            ],
            &[
                ("uav", PELICAN),
                ("env", ROOM),
                ("backend", PAIR_RT),
                ("range", RANGES),
                ("res", &[Num(0.15)]),
            ],
        ],
        columns: MISSION_COLUMNS,
    },
    Run {
        name: "fig20",
        title: "Figure 20 — 3D construction runtime: OctoMap vs OctoCache",
        paper: "serial 1.03-2.06x @0.1m; parallel adds 0.16-0.33x at 0.1-0.3m",
        kind: Kind::Construction,
        grids: &[&[("res", RES_9)]],
        columns: BUILD_COLUMNS,
    },
    Run {
        name: "fig21",
        title: "Figure 21 — 3D construction runtime: OctoMap-RT vs OctoCache-RT",
        paper: "octocache-rt up to 2.51x at high resolution; parallel +34% at 0.1m",
        kind: Kind::Construction,
        grids: &[&[("res", RES_9), ("backend", ALL_RT)]],
        columns: BUILD_COLUMNS,
    },
    Run {
        name: "fig22",
        title: "Figure 22 — runtime decomposition at the reference resolution",
        paper: "cache insert 2.57-5.85x faster than octree update; residual octree 9.7-23.8%",
        kind: Kind::Construction,
        grids: &[&[]],
        columns: "dataset backend ray(s) ins(s) evict(s) octree(s) wait(s) to-octree total(s) \
                  ins-vs-base-octree octree-vs-base",
    },
    Run {
        name: "table3",
        title: "Table 3 — inter-thread transmission overhead (fig22's parallel rows)",
        paper: "enqueue/dequeue negligible (e.g. FR-079: 0.017/0.050 s vs 16.4 s insertion)",
        kind: Kind::Construction,
        grids: &[&[("backend", PARALLEL)]],
        columns: "dataset ray(s) ins(s) evict(s) octree(s) enq(s) deq(s) queue%",
    },
    Run {
        name: "fig23",
        title: "Figure 23 — hit ratio vs cache size (tau = 4)",
        paper: "hit ratio plateaus with size; 0.23% of octree size -> >93% hits (dataset 3)",
        kind: Kind::Construction,
        grids: &[&[
            ("backend", SERIAL),
            (
                "w",
                &[
                    Int(1 << 12),
                    Int(1 << 14),
                    Int(1 << 16),
                    Int(1 << 18),
                    Int(1 << 20),
                ],
            ),
        ]],
        columns: "dataset w cache(MB) tree(MB) cache/tree hit total(s)",
    },
    Run {
        name: "fig24",
        title: "Figure 24 — construction time and hit ratio vs tau at fixed capacity",
        paper: "optimum tau between 2 and 4 for most datasets",
        kind: Kind::Construction,
        grids: &[&[
            ("res", &[Num(0.2)]),
            ("backend", SERIAL),
            ("tau", &[Int(1), Int(2), Int(4), Int(8), Int(16)]),
        ]],
        columns: "dataset tau buckets total(s) speedup hit",
    },
    Run {
        name: "abl_c",
        title: "Ablation C — scan-to-answers latency, 64 planner probes after every scan",
        paper: "(ours) octocache answers sooner: no octree update on the query path",
        kind: Kind::Construction,
        grids: &[&[("probes", &[Int(64)])]],
        columns: "dataset backend probes total(s) answers(ms)",
    },
    Run {
        name: "readers",
        title: "Readers — mapping throughput beside 0-8 snapshot readers (parallel, fr079)",
        paper: "(ours) target: scans/s flat from 0 to 8 readers (ROADMAP item 2)",
        kind: Kind::Construction,
        grids: &[&[
            ("dataset", &[Text("fr079-corridor")]),
            ("backend", PARALLEL),
            ("readers", &[Int(0), Int(1), Int(4), Int(8)]),
        ]],
        columns: "readers scans/s publish(ms) total(s)",
    },
];

/// The distinct points `runs` need measured: their own, plus every point's
/// baseline.
pub fn plan(runs: &[&Run]) -> Vec<Point> {
    let mut points = Vec::new();
    for point in runs.iter().flat_map(|run| run.points()) {
        push_unique(&mut points, point);
    }
    for i in 0..points.len() {
        if let Some(baseline) = points[i].baseline() {
            push_unique(&mut points, baseline);
        }
    }
    points
}

/// Runs [`scenario_smoke`] once per backend: each must reproduce its
/// baseline's map before minutes are committed to a sweep.
pub fn smoke() -> Result<(), String> {
    let run = |backend| scenario_smoke(build(backend, grid(0.5), cache_with(1 << 7, 2)));
    for backend in STANDARD.into_iter().chain(RT) {
        let baseline = baseline_of(backend);
        let (got, want) = (run(backend), run(baseline));
        if got != want {
            return Err(format!(
                "scenario smoke: {backend} built {got:#018x}, {baseline} built {want:#018x}"
            ));
        }
    }
    Ok(())
}

/// Measures every point of `plan` once at workload `scale`, announcing each
/// through `progress`.
pub fn measure(plan: &[Point], scale: f64, mut progress: impl FnMut(&Point)) -> PointSet {
    let config = DatasetConfig {
        scale,
        ..DatasetConfig::default()
    };
    let seqs: [ScanSequence; 3] = Dataset::ALL.map(|dataset| dataset.generate(&config));
    let mut keys: Option<(Dataset, Vec<VoxelKey>)> = None;
    let mut set = Vec::new();
    for point in plan {
        progress(point);
        let values = match point.kind {
            Kind::Mission => fly(&point.axes, scale),
            kind => {
                let dataset = dataset_of(&point.axes);
                let seq = &seqs[Dataset::ALL
                    .iter()
                    .position(|d| *d == dataset)
                    .expect("listed")];
                match kind {
                    Kind::Construction => construct(seq, &point.axes),
                    Kind::Dataset => describe(seq, &point.axes),
                    _ => {
                        // Orders of one dataset are adjacent: its voxels
                        // are collected once.
                        if keys.as_ref().map(|(d, _)| *d) != Some(dataset) {
                            keys = Some((dataset, distinct_voxels(seq)));
                        }
                        insert_ordered(&keys.as_ref().expect("collected").1, &point.axes)
                    }
                }
            }
        };
        set.push((point.clone(), values));
    }
    PointSet(set)
}

/// The measured points: every table is projected from this set and `--out`
/// writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet(pub Vec<(Point, Row)>);

impl PointSet {
    /// What `point` measured, if it is in the set.
    pub fn values(&self, point: &Point) -> Option<&Row> {
        self.0.iter().find(|(p, _)| p == point).map(|(_, v)| v)
    }

    /// Every construction point's map must be its baseline's, leaf for
    /// leaf. The first point that is not is the error.
    pub fn verify(&self) -> Result<(), String> {
        let builds = self.0.iter().filter(|(p, _)| p.kind == Kind::Construction);
        for (point, values) in builds {
            let baseline = point.baseline().expect("construction points have one");
            let want = (self.values(&baseline))
                .ok_or_else(|| format!("{:?}: baseline was not measured", point.axes))?;
            let (got, want) = (cell(values, "checksum"), cell(want, "checksum"));
            if got != want {
                return Err(format!(
                    "{:?}: leaf checksum {got} differs from its baseline's {want}",
                    point.axes
                ));
            }
        }
        Ok(())
    }

    /// A point's whole row: its axes, what it measured, and the columns
    /// derived from other points — over its baseline `speedup` and, for a
    /// build, `visits-vs-base`, `ins-vs-base-octree` (baseline octree
    /// update ÷ cache insertion) and `octree-vs-base` (residual octree
    /// work); for a mission `T-saved`; for an order `vs-morton`.
    ///
    /// # Panics
    ///
    /// When the point was not measured.
    pub fn row(&self, point: &Point) -> Row {
        let values = (self.values(point)).unwrap_or_else(|| panic!("{point:?} not measured"));
        let of = |name| cell(values, name).num();
        let mut row = [&point.axes[..], values].concat();
        let times = |num: f64, den: f64, decimals| Real(num / den, decimals, "x");
        if let Some(baseline) = point.baseline().and_then(|b| self.values(&b)) {
            let base = |name| cell(baseline, name).num();
            if point.kind == Kind::Construction {
                row.extend([
                    ("speedup", times(base("total(s)"), of("total(s)"), 2)),
                    ("visits-vs-base", times(of("visits"), base("visits"), 3)),
                    (
                        "ins-vs-base-octree",
                        times(base("octree(s)"), of("ins(s)"), 2),
                    ),
                    (
                        "octree-vs-base",
                        percent(of("octree(s)") / base("octree(s)"), 1),
                    ),
                ]);
            } else {
                row.extend([
                    ("speedup", times(base("e2e(ms)"), of("e2e(ms)"), 2)),
                    ("T-saved", percent(1.0 - of("T(s)") / base("T(s)"), 0)),
                ]);
            }
        }
        if point.kind == Kind::Order {
            let mut morton = point.clone();
            set(&mut morton.axes, "order", Text(VoxelOrder::Morton.label()));
            let morton = self.values(&morton).map(|m| cell(m, "ns/voxel").num());
            row.push((
                "vs-morton",
                times(of("ns/voxel"), morton.unwrap_or(f64::NAN), 2),
            ));
        }
        row
    }

    /// Projects `run`'s table from the set: one row per point of its
    /// grids, the cells of `run.columns`.
    pub fn table(&self, run: &Run) -> Vec<Vec<String>> {
        let project = |point: &Point| {
            let row = self.row(point);
            let columns = run.columns.split_whitespace();
            columns.map(|name| cell(&row, name).to_string()).collect()
        };
        run.points().iter().map(project).collect()
    }

    /// The `--out` document: provenance, then every point as one flat map
    /// of its kind, axes and measurements.
    pub fn document(&self, commit: &str, dirty: bool, scale: f64, runs: &[&Run]) -> Value {
        let value = |cell: &Cell| match *cell {
            Text(name) => Value::Str(name.to_string()),
            Int(i) => Value::U64(i),
            Num(x) | Real(x, ..) => Value::F64(x),
        };
        let points = self.0.iter().map(|(point, values)| {
            let kind = ("kind".to_string(), Value::Str(format!("{:?}", point.kind)));
            let cells = point.axes.iter().chain(values);
            let cells = cells.map(|(name, cell)| (name.to_string(), value(cell)));
            Value::Map(std::iter::once(kind).chain(cells).collect())
        });
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let names = runs.iter().map(|run| Value::Str(run.name.to_string()));
        Value::Map(vec![
            ("commit".to_string(), Value::Str(commit.to_string())),
            ("dirty".to_string(), Value::Bool(dirty)),
            ("scale".to_string(), Value::F64(scale)),
            ("cores".to_string(), Value::U64(cores as u64)),
            ("runs".to_string(), Value::Seq(names.collect())),
            ("points".to_string(), Value::Seq(points.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: f64 = 0.05; // DatasetConfig::tiny()'s scale

    fn run(name: &str) -> &'static Run {
        RUNS.iter().find(|run| run.name == name).expect("known run")
    }

    #[test]
    fn every_run_verifies_at_tiny_scale() {
        assert_eq!(DatasetConfig::tiny().scale, TINY);
        smoke().expect("scenario smoke");
        let all: Vec<&Run> = RUNS.iter().collect();
        // Debug builds are ~7x slower, so the two large datasets go through
        // fig22's grid only (every backend; the campus is the eviction-heavy
        // one). The corridor goes through every point of every run, and
        // every mission run flies its first point.
        let mut large = run("fig22").points();
        large.extend(
            all.iter()
                .filter(|r| r.kind == Kind::Mission)
                .map(|r| r.points().remove(0)),
        );
        let corridor = |p: &Point| dataset_of(&p.axes) == Dataset::Fr079Corridor;
        let plan: Vec<Point> = (plan(&all).into_iter())
            .filter(|p| large.contains(p) || (p.kind != Kind::Mission && corridor(p)))
            .collect();
        let set = measure(&plan, TINY, |_| {});
        set.verify().expect("every map equals its baseline");
        for run in RUNS {
            // Every column a run prints is a column of its kind's row.
            let measured: Vec<Point> = run.points();
            let measured = measured.iter().filter(|p| set.values(p).is_some());
            let rows: Vec<Row> = measured.map(|p| set.row(p)).collect();
            assert!(!rows.is_empty(), "{}", run.name);
            for name in run.columns.split_whitespace() {
                rows.iter()
                    .for_each(|row| assert!(!cell(row, name).to_string().is_empty()));
            }
        }
        let document = set.document(&"0".repeat(40), true, TINY, &all);
        let text = serde::json::to_string(&document);
        assert_eq!(serde::json::parse(&text).expect("parses"), document);
        let points = document.get("points").and_then(Value::as_seq);
        assert_eq!(points.expect("a point list").len(), plan.len());
    }

    #[test]
    fn a_wrong_map_fails_the_sweep() {
        let mut plan = plan(&[run("table3")]);
        plan.retain(|p| dataset_of(&p.axes) == Dataset::Fr079Corridor);
        let mut set = measure(&plan, TINY, |_| {});
        set.verify().expect("clean set verifies");
        let cached = (set.0.iter_mut())
            .find(|(point, _)| cell(&point.axes, "backend") == Text("octocache-parallel"))
            .expect("table3 measures the parallel backend");
        for (_, checksum) in cached.1.iter_mut().filter(|(name, _)| *name == "checksum") {
            *checksum = Int(checksum.num() as u64 ^ 1);
        }
        let err = set
            .verify()
            .expect_err("a perturbed checksum must not verify");
        assert!(err.contains("octocache-parallel"), "{err}");
    }

    #[test]
    fn runs_cover_the_design_index() {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("## 3. Experiment index").expect("§3");
        let index = &design[start..start + design[start..].find("## 4.").expect("§4")];
        let mut indexed: Vec<&str> = (index.split("`sweep ").skip(1))
            .filter_map(|rest| rest.split('`').next())
            .chain(["readers"])
            .collect();
        indexed.sort_unstable();
        indexed.dedup();
        let mut names: Vec<&str> = RUNS.iter().map(|run| run.name).collect();
        names.sort_unstable();
        assert_eq!(names, indexed);
    }

    #[test]
    fn shared_points_are_measured_once() {
        let plan = plan(&[run("fig06"), run("fig20"), run("fig22")]);
        // fig20's grid holds fig06's resolutions and fig22's reference
        // resolutions: the three runs share one OctoMap point per
        // ⟨dataset, resolution⟩ of fig20, and measure nothing else.
        let octomap = |p: &&Point| cell(&p.axes, "backend") == Text("octomap");
        assert_eq!(
            plan.iter().filter(octomap).count(),
            Dataset::ALL.len() * RES_9.len()
        );
        assert_eq!(plan.len(), run("fig20").points().len());
        for (i, point) in plan.iter().enumerate() {
            assert!(!plan[..i].contains(point), "{:?} planned twice", point.axes);
        }
    }
}
