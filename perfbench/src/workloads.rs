//! The four workloads: what each sets up, what one iteration runs, and
//! the fingerprint that checks its answer.
//!
//! Every workload drives the same library API the `mpr` CLI uses
//! (`Study`, `Engine`/`ExperimentPlan`, and through them the beam and
//! injection campaigns). One caller runs one iteration at a time; the
//! engine's worker budget is [`THREADS`].

use crate::trace::{timed, SpanLog};
use crate::THREADS;
use mpr_core::Study;
use mpr_exp::{
    fnv1a64, mix_seed, CellKey, CellKind, CellResult, ClassifierId, DeviceId, Engine,
    ExperimentPlan, ResultStore, SamplingConfig, SamplingPlan, WorkloadId,
};
use mpr_fault::FaultModel;
use mpr_kernels::MicroKernelOp;
use mpr_obs::Recorder;
use mpr_softfloat::Precision;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Study::paper`, fixed sampling, empty on-disk cache each iteration.
    PaperCold,
    /// One plan of fixed-sampling beam and injection cells.
    SweepFixed,
    /// The same cells under adaptive sampling at the paper preset.
    SweepAdaptive,
    /// `Study::quick` rendered from a cache directory filled in setup.
    ReportWarm,
}

impl Kind {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Kind; 4] = [
        Kind::PaperCold,
        Kind::SweepFixed,
        Kind::SweepAdaptive,
        Kind::ReportWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperCold => "paper-cold",
            Kind::SweepFixed => "sweep-fixed",
            Kind::SweepAdaptive => "sweep-adaptive",
            Kind::ReportWarm => "report-warm",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One configured workload.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Which workload.
    pub kind: Kind,
    /// The study / engine base seed.
    pub seed: u64,
    /// Self-check sizes instead of benchmark sizes.
    pub tiny: bool,
    /// Scratch directory for cache dirs (inside the checkout).
    pub dir: PathBuf,
}

/// What setup leaves for the iterations.
#[derive(Debug)]
pub struct Prepared {
    /// The sweep plan (sweeps only).
    plan: Option<ExperimentPlan>,
    /// The warm cache dir and the fingerprint of its cold render
    /// (report-warm only).
    warm: Option<(PathBuf, u64)>,
}

/// What one iteration did.
#[derive(Debug)]
pub struct Outcome {
    /// Host seconds of the iteration's work.
    pub wall_s: f64,
    /// FNV-1a of the iteration's output.
    pub fingerprint: u64,
    /// Per-cell fingerprints in plan order (sweeps only).
    pub cell_fps: Vec<u64>,
    /// Cells resolved (executed or served from a cache).
    pub cells: u64,
    /// Cells that failed, or 1 for an iteration that panicked.
    pub failures: u64,
    /// Output checks that failed: a warm render that executed cells or
    /// differs from the cold one.
    pub check_failures: u64,
    /// Executed strikes (beam strikes plus injections).
    pub strikes: u64,
    /// `(passed, total)` shape checks (study workloads only).
    pub shapes: Option<(usize, usize)>,
    /// The store the iteration ran against.
    pub store: Arc<ResultStore>,
}

/// FNV-1a over a cell result's defining fields — counts and exact bit
/// patterns of every float — so any changed answer changes the hash.
pub fn cell_fingerprint(result: &CellResult) -> u64 {
    let mut b: Vec<u8> = Vec::new();
    let mut f = |x: f64| b.extend_from_slice(&x.to_bits().to_le_bytes());
    match result {
        CellResult::Beam(r) => {
            f(r.exec_time_s);
            f(r.runs);
            f(r.fluence);
            f(r.sdc.fluence());
            f(r.due.fluence());
            for s in &r.severities {
                f(*s);
            }
            b.extend_from_slice(b"beam");
            for n in [r.candidates, r.executed, r.sdc.events(), r.due.events()] {
                b.extend_from_slice(&n.to_le_bytes());
            }
            for l in &r.labels {
                b.extend_from_slice(l.as_bytes());
            }
            b.extend_from_slice(r.device.as_bytes());
            b.extend_from_slice(r.workload.as_bytes());
            b.extend_from_slice(r.precision.name().as_bytes());
        }
        CellResult::Inject(r) => {
            for s in &r.severities {
                f(*s);
            }
            b.extend_from_slice(b"inject");
            for n in [r.counts.masked, r.counts.sdc, r.counts.due] {
                b.extend_from_slice(&n.to_le_bytes());
            }
            b.extend_from_slice(r.workload.as_bytes());
            b.extend_from_slice(r.precision.name().as_bytes());
        }
        CellResult::Accumulate(r) => {
            f(r.sdc_probability);
            f(r.corruption_extent);
            b.extend_from_slice(b"acc");
            b.extend_from_slice(&r.trials.to_le_bytes());
        }
    }
    fnv1a64(&b)
}

/// Strikes a result executed (accumulation trials are not strikes).
pub fn executed_strikes(result: &CellResult) -> u64 {
    match result {
        CellResult::Beam(r) => r.executed,
        CellResult::Inject(r) => r.counts.total(),
        CellResult::Accumulate(_) => 0,
    }
}

/// The full report `mpr report` prints from a study (tables, figures,
/// ablations) plus the shape-validation table, each call timed as a
/// `core` span when tracing.
fn render_study(study: &Study, spans: Option<&SpanLog>) -> (String, usize, usize) {
    type View = fn(&Study) -> String;
    let views: [(&str, View); 18] = [
        ("table1_fpga_times", |s| s.table1_fpga_times().to_string()),
        ("table2_knc_times", |s| s.table2_knc_times().to_string()),
        ("table3_gpu_times", |s| s.table3_gpu_times().to_string()),
        ("fig2_fpga_resources", |s| {
            s.fig2_fpga_resources().to_table().to_string()
        }),
        ("fig3_fpga_fit", |s| {
            s.fig3_fpga_fit().to_table().to_string()
        }),
        ("fig4_fpga_tre", |s| {
            s.fig4_fpga_tre().to_table().to_string()
        }),
        ("fig5_fpga_mebf", |s| {
            s.fig5_fpga_mebf().to_table().to_string()
        }),
        ("fig6_knc_fit", |s| s.fig6_knc_fit().to_table().to_string()),
        ("fig7_knc_pvf", |s| s.fig7_knc_pvf().to_table().to_string()),
        ("fig8_knc_tre", |s| s.fig8_knc_tre().to_table().to_string()),
        ("fig9_knc_mebf", |s| {
            s.fig9_knc_mebf().to_table().to_string()
        }),
        ("fig10_gpu_fit", |s| {
            s.fig10_gpu_fit().to_table().to_string()
        }),
        ("fig11_gpu_tre", |s| {
            s.fig11_gpu_tre().to_table().to_string()
        }),
        ("fig12_gpu_avf", |s| {
            s.fig12_gpu_avf().to_table().to_string()
        }),
        ("fig13_gpu_mebf", |s| {
            s.fig13_gpu_mebf().to_table().to_string()
        }),
        ("ablation_gpu_ecc", |s| {
            s.ablation_gpu_ecc().to_table().to_string()
        }),
        ("ablation_fault_models", |s| {
            s.ablation_fault_models().to_table().to_string()
        }),
        ("ablation_fault_accumulation", |s| {
            s.ablation_fault_accumulation().to_table().to_string()
        }),
    ];
    let mut text = String::new();
    for (name, view) in views {
        text.push_str(&timed(spans, "core", name, || view(study)));
        text.push('\n');
    }
    let shapes = timed(spans, "core", "validate_shapes", || study.validate_shapes());
    text.push_str(&shapes.to_table().to_string());
    (text, shapes.passed(), shapes.results.len())
}

fn beam_key(
    device: DeviceId,
    workload: WorkloadId,
    p: Precision,
    n: u64,
    s: SamplingPlan,
) -> CellKey {
    CellKey {
        device,
        workload,
        precision: p,
        kind: CellKind::Beam {
            hours: 100.0,
            target_candidates: n,
            classifier: ClassifierId::None,
            sampling: s,
        },
    }
}

fn inject_key(workload: WorkloadId, p: Precision, n: u64, s: SamplingPlan) -> CellKey {
    // Same device slot rule as the study's CAROL-FI cells: micros are
    // namespaced under the GPU, the application kernels under the KNC.
    let device = match workload {
        WorkloadId::Micro { .. } => DeviceId::TitanV,
        _ => DeviceId::Knc3120a,
    };
    CellKey {
        device,
        workload,
        precision: p,
        kind: CellKind::Inject {
            injections: n,
            model: FaultModel::single_bit(),
            live_fraction: mpr_arch::calib::KNC_VARIABLE_LIVE_FRACTION,
            sampling: s,
        },
    }
}

/// The sweep's kernel workloads at paper proxy sizes (quick sizes for
/// the self-check): MxM, LavaMD, LUD and the three micro-benchmarks.
pub fn sweep_workloads(tiny: bool) -> [WorkloadId; 6] {
    let (dim, particles, lud, threads, iters) = if tiny {
        (12, 3, 16, 16, 128)
    } else {
        (24, 5, 28, 48, 512)
    };
    let micro = |op| WorkloadId::Micro { op, threads, iters };
    [
        WorkloadId::Gemm { dim },
        WorkloadId::LavaMd {
            boxes: 2,
            particles,
            knc_unit: false,
        },
        WorkloadId::Lud { dim: lud },
        micro(MicroKernelOp::Add),
        micro(MicroKernelOp::Mul),
        micro(MicroKernelOp::Fma),
    ]
}

const PRECISIONS: [Precision; 3] = [Precision::Half, Precision::Single, Precision::Double];

/// The sweep plan: Titan V beam cells for MxM, LavaMD and the micros,
/// KNC beam cells for MxM, LavaMD (dedicated exp unit) and LUD, and
/// CAROL-FI single-bit injection cells for every kernel workload — each
/// at every precision the device and workload support.
pub fn sweep_plan(sampling: SamplingPlan, tiny: bool) -> ExperimentPlan {
    let (beam_n, inject_n) = if tiny { (64, 48) } else { (4000, 2400) };
    let [gemm, lavamd, lud, add, mul, fma] = sweep_workloads(tiny);
    let lavamd_knc = match lavamd {
        WorkloadId::LavaMd {
            boxes, particles, ..
        } => WorkloadId::LavaMd {
            boxes,
            particles,
            knc_unit: true,
        },
        other => other,
    };
    let mut keys = Vec::new();
    for w in [gemm, lavamd, add, mul, fma] {
        for p in PRECISIONS {
            keys.push(beam_key(DeviceId::TitanV, w, p, beam_n, sampling));
        }
    }
    for w in [gemm, lavamd_knc, lud] {
        for p in PRECISIONS {
            keys.push(beam_key(DeviceId::Knc3120a, w, p, beam_n, sampling));
        }
    }
    for w in [gemm, lavamd, lud, add, mul, fma] {
        for p in PRECISIONS {
            keys.push(inject_key(w, p, inject_n, sampling));
        }
    }
    let mut plan = ExperimentPlan::new();
    for key in keys.into_iter().filter(CellKey::supported) {
        plan.push(key);
    }
    plan
}

/// Per-cell strike ceiling of the adaptive sweep: low enough that the
/// rarer-SDC cells stop short of the CI target on their own budget,
/// so the engine reinvests what the converged cells left unspent.
const ADAPTIVE_BUDGET: u64 = 1000;

/// Base seeds per adaptive sweep iteration (see [`Bench::base_seeds`]).
const ADAPTIVE_SEEDS: u64 = 8;

impl Bench {
    fn study(&self) -> Study {
        let study = if self.kind == Kind::PaperCold && !self.tiny {
            Study::paper(self.seed)
        } else {
            Study::quick(self.seed)
        };
        study.with_threads(THREADS)
    }

    fn sampling(&self) -> SamplingPlan {
        match self.kind {
            // The paper preset: relative CI width 0.25.
            Kind::SweepAdaptive => {
                SamplingPlan::Adaptive(SamplingConfig::paper().with_budget(ADAPTIVE_BUDGET))
            }
            _ => SamplingPlan::Fixed,
        }
    }

    /// The engine base seeds one sweep iteration runs its plan under:
    /// the run seed, and for the adaptive sweep [`ADAPTIVE_SEEDS`] - 1
    /// more derived from it. Early stopping makes an adaptive plan's
    /// work depend on its seed (seeds 1 to 10 ranged over ±8% of the
    /// median, in the same order on repeated runs); the extra seeds
    /// average that out of `wall_s`.
    fn base_seeds(&self) -> Vec<u64> {
        let n = match self.kind {
            Kind::SweepAdaptive if self.tiny => 2,
            Kind::SweepAdaptive => ADAPTIVE_SEEDS,
            _ => 1,
        };
        (0..n)
            .map(|r| {
                if r == 0 {
                    self.seed
                } else {
                    mix_seed(self.seed, r)
                }
            })
            .collect()
    }

    /// Fingerprints of `keys` run as one plan on `threads` workers, read
    /// from the store under each key's own store key (a plan's returned
    /// result for an adaptive cell may be its budget-boosted rerun).
    pub fn fingerprints(&self, keys: &[CellKey], threads: usize) -> Vec<u64> {
        let mut plan = ExperimentPlan::new();
        for key in keys {
            plan.push(key.clone());
        }
        let engine = Engine::new(self.seed).with_threads(threads);
        engine.run(&plan);
        let snapshot = engine.store().snapshot();
        keys.iter()
            .map(|key| {
                let store_key = ResultStore::store_key(self.seed, key);
                snapshot
                    .iter()
                    .find(|(k, _)| *k == store_key)
                    .map_or(0, |(_, r)| cell_fingerprint(r))
            })
            .collect()
    }

    /// Prepares what the iterations need, and warms the program up with
    /// one untimed run: a whole iteration for the sweeps, a quick study
    /// for the study workloads (a paper-scale one would take 9 to 16 s
    /// per setup). Report-warm's quick study runs cold on the cache
    /// directory its iterations read, and its render is the reference
    /// every warm render must equal.
    pub fn setup(&self, rep: usize) -> Prepared {
        let tiny = Bench {
            tiny: true,
            ..self.clone()
        };
        let mut prep = Prepared {
            plan: None,
            warm: None,
        };
        match self.kind {
            Kind::PaperCold => {
                render_study(&tiny.study(), None);
            }
            Kind::ReportWarm => {
                let dir = self.dir.join(format!("warm-{rep}"));
                let _ = std::fs::remove_dir_all(&dir);
                let (text, _, _) = render_study(&tiny.study().with_cache_dir(&dir), None);
                prep.warm = Some((dir, fnv1a64(text.as_bytes())));
            }
            Kind::SweepFixed | Kind::SweepAdaptive => {
                prep.plan = Some(sweep_plan(self.sampling(), self.tiny));
                self.iterate_sweep(&prep, None, None);
            }
        }
        prep
    }

    /// Runs one iteration. `rec`/`spans` attach the traced run's
    /// recorder and span log; the untraced run passes `None`.
    pub fn iterate(
        &self,
        prep: &Prepared,
        iter: usize,
        rec: Option<Arc<dyn Recorder>>,
        spans: Option<&SpanLog>,
    ) -> Outcome {
        match self.kind {
            Kind::PaperCold | Kind::ReportWarm => self.iterate_study(prep, iter, rec, spans),
            Kind::SweepFixed | Kind::SweepAdaptive => self.iterate_sweep(prep, rec, spans),
        }
    }

    fn iterate_study(
        &self,
        prep: &Prepared,
        iter: usize,
        rec: Option<Arc<dyn Recorder>>,
        spans: Option<&SpanLog>,
    ) -> Outcome {
        let dir = match &prep.warm {
            Some((dir, _)) => dir.clone(),
            None => {
                let dir = self.dir.join(format!("cold-{}", iter % 2));
                let _ = std::fs::remove_dir_all(&dir);
                dir
            }
        };
        let start = Instant::now();
        let mut study = self.study().with_cache_dir(&dir);
        if let Some(rec) = rec {
            study = study.with_recorder(rec);
        }
        let rendered = catch_unwind(AssertUnwindSafe(|| render_study(&study, spans)));
        let wall_s = start.elapsed().as_secs_f64();
        let store = Arc::clone(study.engine().store());
        let snapshot = store.snapshot();
        let mut outcome = Outcome {
            wall_s,
            fingerprint: 0,
            cell_fps: Vec::new(),
            cells: snapshot.len() as u64,
            failures: 0,
            check_failures: 0,
            strikes: 0,
            shapes: None,
            store: Arc::clone(&store),
        };
        // A warm render executes nothing: its snapshot holds cached
        // results, whose strikes ran in some earlier process.
        if store.executed() > 0 {
            outcome.strikes = snapshot.iter().map(|(_, r)| executed_strikes(r)).sum();
        }
        match rendered {
            Ok((text, passed, total)) => {
                outcome.fingerprint = fnv1a64(text.as_bytes());
                outcome.shapes = Some((passed, total));
            }
            Err(_) => {
                outcome.failures = 1;
                return outcome;
            }
        }
        if let Some((_, cold_fp)) = &prep.warm {
            // Every cell must come from disk, and the warm render must
            // be byte-identical to the cold one.
            let all_disk = store.executed() == 0 && store.disk_hits() > 0;
            if !all_disk || outcome.fingerprint != *cold_fp {
                outcome.check_failures += 1;
            }
        }
        outcome
    }

    fn iterate_sweep(
        &self,
        prep: &Prepared,
        rec: Option<Arc<dyn Recorder>>,
        spans: Option<&SpanLog>,
    ) -> Outcome {
        let plan = prep.plan.as_ref().expect("setup builds the sweep plan");
        // One store serves every base seed: store keys carry the seed.
        let store = Arc::new(ResultStore::in_memory());
        let start = Instant::now();
        let mut results = Vec::new();
        for seed in self.base_seeds() {
            let mut engine = Engine::new(seed)
                .with_threads(THREADS)
                .with_store(Arc::clone(&store));
            if let Some(rec) = &rec {
                engine = engine.with_recorder(Arc::clone(rec));
            }
            results.extend(timed(spans, "exp", "Engine::try_run", || {
                engine.try_run(plan)
            }));
        }
        let wall_s = start.elapsed().as_secs_f64();
        let cell_fps: Vec<u64> = results
            .iter()
            .map(|r| r.as_ref().map_or(0, cell_fingerprint))
            .collect();
        let bytes: Vec<u8> = cell_fps.iter().flat_map(|fp| fp.to_le_bytes()).collect();
        let snapshot = store.snapshot();
        Outcome {
            wall_s,
            fingerprint: fnv1a64(&bytes),
            cell_fps,
            cells: results.len() as u64,
            failures: results.iter().filter(|r| r.is_err()).count() as u64,
            check_failures: 0,
            strikes: snapshot.iter().map(|(_, r)| executed_strikes(r)).sum(),
            shapes: None,
            store,
        }
    }
}

/// Total bytes of the regular files directly under `dir` (0 if absent).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
