//! The end-to-end benchmark binary. `run.py` builds and runs it; see
//! the README next to it for the workloads and metrics.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--tiny] [--rustc <version>] [--commit <id>]
//! perfbench --check-threads [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod pins;
mod probes;
mod stats;
mod trace;
mod workloads;

use mpr_obs::{summarize, Aggregate, ProfileSummary, Recorder};
use probes::Probe;
use stats::{iqr_ratio, json_num, json_str, median, peak_rss_mb, steal_ticks, tail};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::{BenchRecorder, Span, SpanLog};
use workloads::{dir_bytes, Bench, Kind, Outcome, Prepared};

/// Engine worker threads of every workload.
pub const THREADS: usize = 2;

/// Setups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics every untraced run reports.
const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics every traced run reports, with units.
const PER_LAYER: [(&str, &str); 43] = [
    ("softfloat.half_op_ns", "ns"),
    ("softfloat.wide_fma_lane_ns", "ns"),
    ("kernels.golden_ms", "ms"),
    ("kernels.strike_us", "us"),
    ("kernels.lavamd_half.strike_us", "us"),
    ("kernels.half_over_single", "ratio"),
    ("nn.yolo_half.golden_ms", "ms"),
    ("nn.yolo_half.strike_ms", "ms"),
    ("nn.yolo_single.strike_ms", "ms"),
    ("nn.mnist_half.strike_ms", "ms"),
    ("nn.mnist_single.strike_ms", "ms"),
    ("nn.yolo.half_over_single", "ratio"),
    ("beam.campaign_s", "s"),
    ("beam.strikes", "count"),
    ("beam.strikes_per_s", "1/s"),
    ("beam.worker_util", "ratio"),
    ("fault.campaign_s", "s"),
    ("fault.strikes", "count"),
    ("fault.strikes_per_s", "1/s"),
    ("fault.worker_util", "ratio"),
    ("metrics.strikes_saved_ratio", "ratio"),
    ("metrics.ci_width_max", "ratio"),
    ("exp.cell_exec_s", "s"),
    ("exp.cell_queue_s", "s"),
    ("exp.critical_cell_s", "s"),
    ("exp.worker_busy", "ratio"),
    ("exp.cells_executed", "count"),
    ("exp.golden_computed", "count"),
    ("exp.golden_reused", "count"),
    ("exp.realloc_pool", "count"),
    ("exp.realloc_granted", "count"),
    ("exp.cell_failures", "count"),
    ("exp.store_insert_ms", "ms"),
    ("exp.store_lookup_us", "us"),
    ("exp.mem_hits", "count"),
    ("exp.disk_hits", "count"),
    ("exp.quarantined", "count"),
    ("exp.cache_bytes", "bytes"),
    ("core.fig10_gpu_fit_s", "s"),
    ("core.fig3_fpga_fit_s", "s"),
    ("core.views_ms", "ms"),
    ("core.validate_ms", "ms"),
    ("obs.trace_overhead", "ratio"),
];

#[derive(Debug)]
struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    rustc: String,
    commit: String,
    check_threads: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        kind: None,
        seed: pins::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
        rustc: "unknown".to_string(),
        commit: "unknown".to_string(),
        check_threads: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--rustc" => args.rustc = value()?,
            "--commit" => args.commit = value()?,
            "--tiny" => args.tiny = true,
            "--check-threads" => args.check_threads = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.check_threads {
        std::process::exit(check_threads(args.seed));
    }
    let Some(kind) = args.kind else {
        eprintln!("perfbench: --workload is required");
        std::process::exit(2);
    };
    let bench = Bench {
        kind,
        seed: args.seed,
        tiny: args.tiny,
        dir: PathBuf::from(".bench_out").join(format!("{}-{}", kind.name(), std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&bench.dir) {
        eprintln!("perfbench: cannot create {}: {e}", bench.dir.display());
        std::process::exit(2);
    }
    println!(
        "perfbench workload={} seed={} (default {}, held-out {}) threads={} seconds={} trace={}{}",
        kind.name(),
        args.seed,
        pins::DEFAULT_SEED,
        pins::HELD_OUT_SEED,
        THREADS,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { " tiny" } else { "" }
    );
    println!("machine {}", machine(&args));
    let result = if args.trace {
        traced_run(&bench, args.seconds)
    } else {
        untraced_run(&bench, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&bench.dir);
    println!("{result}");
}

/// The machine descriptor recorded with every result.
fn machine(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let config = std::fs::read_to_string(".cargo/config.toml").unwrap_or_default();
    let rustflags = if config.contains("target-cpu=native") {
        "target-cpu=native"
    } else {
        "none"
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustflags\":{},\"rustc\":{},\"profile\":{},\"threads\":{},\"commit\":{}}}",
        json_str(&cpu),
        json_str(rustflags),
        json_str(&args.rustc),
        json_str(profile),
        THREADS,
        json_str(&args.commit)
    )
}

/// Compares one sweep cell's fingerprint at one and two worker threads.
fn check_threads(seed: u64) -> i32 {
    let bench = Bench {
        kind: Kind::SweepFixed,
        seed,
        tiny: true,
        dir: PathBuf::from(".bench_out"),
    };
    let plan = workloads::sweep_plan(mpr_exp::SamplingPlan::Fixed, true);
    // The Titan V LavaMD half-precision beam cell: the plan lists each
    // Titan V workload at half, single and double, MxM first.
    let key = &plan.cells()[3..4];
    let one = bench.fingerprints(key, 1)[0];
    let two = bench.fingerprints(key, THREADS)[0];
    println!(
        "check-threads cell={} threads1={one:016x} threads2={two:016x}",
        key[0]
    );
    i32::from(one != two)
}

/// The pinned fingerprint for this run, if its seed has one (tiny
/// self-check sizes have none).
fn pin(bench: &Bench) -> Option<u64> {
    (!bench.tiny).then(|| pins::pinned(bench.kind, bench.seed))?
}

/// Correctness ledger across a run's iterations.
#[derive(Debug, Default)]
struct Ledger {
    first: Option<(u64, Vec<u64>)>,
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Checks one iteration: cell failures, output checks, the first
    /// iteration's fingerprints, and the pin at the default seed.
    fn check(&mut self, bench: &Bench, o: &Outcome) {
        self.attempted += o.cells.max(1);
        self.failed += o.failures + o.check_failures;
        let (fp, cells) = self
            .first
            .get_or_insert_with(|| (o.fingerprint, o.cell_fps.clone()));
        let mut bad = u64::from(o.fingerprint != *fp);
        if !cells.is_empty() {
            bad = cells
                .iter()
                .zip(&o.cell_fps)
                .filter(|(a, b)| a != b)
                .count() as u64;
        }
        if pin(bench).is_some_and(|pin| o.fingerprint != pin) {
            bad = bad.max(1);
        }
        self.failed += bad;
    }

    fn fingerprint_note(&self, bench: &Bench) -> String {
        let fp = self.first.as_ref().map_or(0, |f| f.0);
        match pin(bench) {
            Some(pin) if pin == fp => format!("fingerprint {fp:016x} (matches pin)"),
            Some(pin) => format!("fingerprint {fp:016x} (DIFFERS from pin {pin:016x})"),
            None => format!(
                "fingerprint {fp:016x} (not pinned at this seed; checked across iterations)"
            ),
        }
    }

    fn json(&self, metrics: &[(String, f64, &str)]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            body.join(",")
        )
    }
}

/// Runs iterations until `seconds` are used or the next one would
/// overrun them (always at least `min` iterations).
fn iterate_for(seconds: f64, min: usize, mut step: impl FnMut(usize) -> f64) {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(step(walls.len()));
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= min && elapsed + median(&walls) > seconds {
            break;
        }
    }
}

fn untraced_run(bench: &Bench, seconds: f64) -> String {
    let mut setups = Vec::new();
    let mut prep: Option<Prepared> = None;
    for rep in 0..SETUP_REPS {
        let start = Instant::now();
        let p = bench.setup(rep);
        setups.push(start.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("at least one setup");
    let mut ledger = Ledger::default();
    let mut walls = Vec::new();
    let (mut strikes, mut shapes) = (0u64, None);
    let steal_before = steal_ticks();
    // At least two iterations, so even paper-cold's `wall_s` is a
    // median over more than one.
    iterate_for(seconds, 2, |i| {
        let o = bench.iterate(&prep, i, None, None);
        ledger.check(bench, &o);
        walls.push(o.wall_s);
        strikes += o.strikes;
        shapes = o.shapes.or(shapes);
        o.wall_s
    });
    let steal = steal_ticks() - steal_before;
    let n = walls.len();
    let wall = median(&walls);
    let setup = median(&setups);
    let rss = peak_rss_mb().unwrap_or(0.0);
    let (tail_value, tail_note) = match tail(&walls, 10) {
        Some((p, v)) => (
            format!("{v:.6}"),
            format!("p{p}, >=10 iterations beyond it"),
        ),
        None => ("-".into(), "needs >= 20 iterations per run".into()),
    };
    let (strikes_value, strikes_note) = if strikes > 0 {
        let per_s = strikes as f64 / walls.iter().sum::<f64>();
        (
            format!("{per_s:.1}"),
            "executed beam strikes + injections per wall second",
        )
    } else {
        ("-".into(), "no campaigns execute in this workload")
    };
    let (shapes_value, shapes_note) = match shapes {
        Some((p, t)) => (p.to_string(), format!("of {t} paper shape claims")),
        None => ("-".into(), "no study in this workload".into()),
    };
    let failed_ratio = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    let rows = [
        (
            "wall_s",
            format!("{wall:.6}"),
            "s",
            n,
            "median of the iterations".into(),
        ),
        (
            "wall_iqr",
            format!("{:.4}", iqr_ratio(&walls)),
            "ratio",
            n,
            "interquartile range of the iterations over their median".into(),
        ),
        ("wall_tail_s", tail_value, "s", n, tail_note),
        (
            "strikes_per_s",
            strikes_value,
            "1/s",
            n,
            strikes_note.into(),
        ),
        (
            "setup_s",
            format!("{setup:.6}"),
            "s",
            SETUP_REPS,
            format!("median of setups {setups:.3?}"),
        ),
        (
            "peak_rss_mb",
            format!("{rss:.1}"),
            "MB",
            1,
            "VmHWM of the benchmark process".into(),
        ),
        (
            "failed_ratio",
            format!("{failed_ratio:.4}"),
            "ratio",
            n,
            "(cell failures + fingerprint mismatches) / cells attempted".into(),
        ),
        ("shapes_passed", shapes_value, "count", n, shapes_note),
        (
            "cpu_steal",
            steal.to_string(),
            "ticks",
            1,
            "machine-wide CPU steal during the iterations (/proc/stat)".into(),
        ),
    ];
    println!(
        "{:<16} {:>14} {:<6} {:>7}  note",
        "metric", "value", "unit", "samples"
    );
    for (name, value, unit, samples, note) in rows {
        println!("{name:<16} {value:>14} {unit:<6} {samples:>7}  {note}");
    }
    println!("{}", ledger.fingerprint_note(bench));
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "wall_s" => wall,
                "setup_s" => setup,
                _ => rss,
            };
            (name.to_string(), v, unit)
        })
        .collect();
    ledger.json(&metrics)
}

/// One traced iteration: the outcome, its span tree and its events.
struct Traced {
    outcome: Outcome,
    tree: Vec<Span>,
    summary: ProfileSummary,
}

fn traced_iteration(bench: &Bench, prep: &Prepared, iter: usize) -> Traced {
    let rec = Arc::new(BenchRecorder::new());
    let log = SpanLog::new(&rec);
    let outcome = bench.iterate(
        prep,
        iter,
        Some(Arc::clone(&rec) as Arc<dyn Recorder>),
        Some(&log),
    );
    let end = rec.now();
    let events = rec.take();
    let tree = trace::build_tree((end - outcome.wall_s, end), &log, &events);
    Traced {
        outcome,
        tree,
        summary: summarize(&events),
    }
}

/// A measured per-layer value and where it came from.
type Layered = (Probe, &'static str);

type Group = Vec<(&'static str, f64)>;

/// Per-layer metric groups measured from a traced iteration. A group is
/// `None` when the iteration never reached that layer. `sampling` is
/// measured only on the adaptive sweep, the one workload whose cells
/// sample adaptively.
fn groups(t: &Traced, kind: Kind) -> BTreeMap<&'static str, Option<Group>> {
    let f = &t.summary;
    let any = |_: &str| true;
    let time = |name: &str, keep: &dyn Fn(&str) -> bool| -> f64 {
        let scopes = f.scopes_by_time(name);
        scopes
            .iter()
            .filter(|(s, _)| keep(s))
            .map(|(_, a)| a.sum)
            .sum()
    };
    let has_time = |name: &str, keep: &dyn Fn(&str) -> bool| {
        f.scopes_by_time(name).iter().any(|(s, _)| keep(s))
    };
    let max =
        |scopes: Vec<(&str, Aggregate)>| scopes.iter().map(|(_, a)| a.max).fold(0.0, f64::max);
    let gauge_mean = |name: &str| {
        let scopes = f.gauge_scopes(name);
        let (n, sum) = scopes
            .iter()
            .fold((0, 0.0), |(n, s), (_, a)| (n + a.count, s + a.sum));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    };
    let mut g: BTreeMap<&'static str, Option<Group>> = BTreeMap::new();
    let campaign = |driver: &str, names: [&'static str; 4], executed: &str, util: &str| {
        let keep = |s: &str| trace::is_driver(s, driver);
        has_time("campaign.wall", &keep).then(|| {
            let wall = time("campaign.wall", &keep);
            let strikes = f.counter_total(executed) as f64;
            let values = [wall, strikes, strikes / wall, gauge_mean(util)];
            names.into_iter().zip(values).collect()
        })
    };
    g.insert(
        "beam",
        campaign(
            "beam",
            [
                "beam.campaign_s",
                "beam.strikes",
                "beam.strikes_per_s",
                "beam.worker_util",
            ],
            "beam.executed",
            "beam.utilization",
        ),
    );
    g.insert(
        "fault",
        campaign(
            "fault",
            [
                "fault.campaign_s",
                "fault.strikes",
                "fault.strikes_per_s",
                "fault.worker_util",
            ],
            "inject.executed",
            "inject.utilization",
        ),
    );
    let campaigns = has_time("campaign.wall", &any);
    let budget = (f.counter_total("beam.candidates") + f.counter_total("inject.injections")) as f64;
    let saved =
        (f.counter_total("beam.strikes_saved") + f.counter_total("inject.strikes_saved")) as f64;
    g.insert(
        "sampling",
        (campaigns && kind == Kind::SweepAdaptive).then(|| {
            vec![
                ("metrics.strikes_saved_ratio", saved / budget),
                (
                    "metrics.ci_width_max",
                    max(f.gauge_scopes("beam.ci_width"))
                        .max(max(f.gauge_scopes("inject.ci_width"))),
                ),
                (
                    "exp.realloc_pool",
                    f.counter_total("plan.realloc_pool") as f64,
                ),
                (
                    "exp.realloc_granted",
                    f.counter_total("plan.realloc_granted") as f64,
                ),
            ]
        }),
    );
    let exec = f.time_total("cell.exec");
    let plan = f.time_total("plan.wall");
    g.insert(
        "exp.exec",
        has_time("cell.exec", &any).then(|| {
            vec![
                ("exp.cell_exec_s", exec),
                ("exp.cell_queue_s", f.time_total("cell.queue")),
                ("exp.critical_cell_s", max(f.scopes_by_time("cell.exec"))),
                ("exp.worker_busy", exec / (plan * THREADS as f64)),
            ]
        }),
    );
    let o = &t.outcome;
    g.insert(
        "exp.store",
        Some(vec![
            ("exp.cells_executed", o.store.executed() as f64),
            (
                "exp.golden_computed",
                f.counter_total("golden.compute") as f64,
            ),
            ("exp.golden_reused", f.counter_total("golden.reuse") as f64),
            ("exp.cell_failures", t.outcome.failures as f64),
            ("exp.mem_hits", o.store.mem_hits() as f64),
            ("exp.disk_hits", o.store.disk_hits() as f64),
            ("exp.quarantined", o.store.quarantined() as f64),
            (
                "exp.cache_bytes",
                o.store.cache_dir().map_or(0, dir_bytes) as f64,
            ),
        ]),
    );
    let core_calls = t.tree.iter().any(|s| s.layer == "core");
    let phase = |name: &str| f.time_scope("phase", name).map_or(0.0, |a| a.sum);
    let validate_s: f64 = t
        .tree
        .iter()
        .filter(|s| s.layer == "core" && s.name == "validate_shapes")
        .map(|s| s.end - s.start)
        .sum();
    g.insert(
        "core",
        core_calls.then(|| {
            vec![
                ("core.fig10_gpu_fit_s", phase("fig10_gpu_fit")),
                ("core.fig3_fpga_fit_s", phase("fig3_fpga_fit")),
                (
                    "core.views_ms",
                    trace::core_self_s(&t.tree, |n| n != "validate_shapes") * 1e3,
                ),
                ("core.validate_ms", validate_s * 1e3),
            ]
        }),
    );
    g
}

fn traced_run(bench: &Bench, seconds: f64) -> String {
    let prep = bench.setup(0);
    let mut ledger = Ledger::default();
    let (mut plain, mut traced_walls, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    // Untraced and traced iterations alternate, so the overhead ratio
    // compares neighbours under the same machine conditions.
    iterate_for(seconds, 2, |i| {
        if i % 2 == 0 {
            let o = bench.iterate(&prep, i, None, None);
            ledger.check(bench, &o);
            plain.push(o.wall_s);
            o.wall_s
        } else {
            let t = traced_iteration(bench, &prep, i);
            ledger.check(bench, &t.outcome);
            traced_walls.push(t.outcome.wall_s);
            let w = t.outcome.wall_s;
            traced.push(t);
            w
        }
    });

    // Workload-derived groups: median over traced iterations.
    let mut values: BTreeMap<&'static str, Layered> = BTreeMap::new();
    let per_iter: Vec<_> = traced.iter().map(|t| groups(t, bench.kind)).collect();
    let mut missing = Vec::new();
    for group in per_iter[0].keys() {
        let Some(series) = per_iter
            .iter()
            .map(|g| g[group].as_ref())
            .collect::<Option<Vec<_>>>()
        else {
            missing.push(*group);
            continue;
        };
        for (k, &(name, _)) in series[0].iter().enumerate() {
            let v: Vec<f64> = series.iter().map(|m| m[k].1).collect();
            values.insert(name, (Probe::of(&v), "workload"));
        }
    }

    // Stand-ins: one traced iteration of a workload that reaches the
    // layers this one never does; quick-scale for the paper study, at
    // the run's own sizes for the sweeps, which take under a second.
    let stand_in_kind = |group: &str| match group {
        "core" => Kind::PaperCold,
        "sampling" => Kind::SweepAdaptive,
        _ => Kind::SweepFixed,
    };
    for kind in Kind::ALL {
        let groups_here: Vec<_> = missing
            .iter()
            .filter(|group| stand_in_kind(group) == kind)
            .collect();
        if groups_here.is_empty() {
            continue;
        }
        let stand_in = Bench {
            kind,
            tiny: bench.tiny || kind == Kind::PaperCold,
            ..bench.clone()
        };
        let t = traced_iteration(&stand_in, &stand_in.setup(0), 0);
        let g = groups(&t, kind);
        for group in groups_here {
            for &(name, v) in g[*group].as_ref().expect("the stand-in reaches the layer") {
                values.insert(name, (Probe::of(&[v]), "stand-in"));
            }
        }
    }

    // Direct layer probes.
    let last = traced.last().expect("at least one traced iteration");
    let store = &last.outcome.store;
    let disk = store.cache_dir().map(|_| bench.dir.join("store-probe"));
    let direct = probes::softfloat(bench.seed)
        .into_iter()
        .chain(probes::kernels(bench.seed, bench.tiny))
        .chain(probes::nn(bench.seed, bench.tiny))
        .chain(probes::store(&store.snapshot(), disk.as_deref()));
    for (name, p) in direct {
        values.insert(name, (p, "probe"));
    }
    let overhead = Probe {
        value: median(&traced_walls) / median(&plain),
        samples: traced_walls.len().min(plain.len()),
    };
    values.insert("obs.trace_overhead", (overhead, "workload"));

    print_self_times(bench, last);
    let mut jsonl = String::new();
    for (i, t) in traced.iter().enumerate() {
        trace::write_jsonl(&mut jsonl, bench.kind.name(), 2 * i + 1, &t.tree);
    }
    let trace_dir = PathBuf::from(".bench_out").join("trace");
    let path = trace_dir.join(format!("{}-seed{}.jsonl", bench.kind.name(), bench.seed));
    match std::fs::create_dir_all(&trace_dir).and_then(|()| std::fs::write(&path, jsonl)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }

    println!(
        "{:<30} {:>16} {:<6} {:>7}  source",
        "per-layer metric", "value", "unit", "samples"
    );
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let (p, source) = values[name];
        println!(
            "{name:<30} {:>16.6} {unit:<6} {:>7}  {source}",
            p.value, p.samples
        );
        metrics.push((name.to_string(), p.value, unit));
    }
    println!("{}", ledger.fingerprint_note(bench));
    ledger.json(&metrics)
}

/// Prints where one traced iteration's wall time went, by crate, along
/// its critical path.
fn print_self_times(bench: &Bench, t: &Traced) {
    let wall = t.outcome.wall_s;
    println!(
        "self time along the critical path ({} iteration, wall {wall:.4} s)",
        bench.kind.name()
    );
    println!("{:<16} {:>12} {:>8}", "crate", "self s", "share");
    let mut sum = 0.0;
    for (layer, s) in trace::critical_self_times(&t.tree) {
        sum += s;
        println!("{layer:<16} {s:>12.4} {:>7.1}%", 100.0 * s / wall);
    }
    println!("{:<16} {sum:>12.4} {:>7.1}%", "total", 100.0 * sum / wall);
}
