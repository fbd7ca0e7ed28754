//! Layer probes: direct, timed calls into one crate's public functions,
//! independent of any workload's schedule.
//!
//! Every traced run runs all of them, whatever its workload.

use crate::stats::median;
use crate::workloads::sweep_workloads;
use mpr_exp::{mix_seed, CellResult, ResultStore, WorkloadId};
use mpr_fault::{FaultModel, ValueFault, Workload};
use mpr_softfloat::{wide, Half, Precision};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each micro-probe; the median is reported.
const REPS: usize = 5;

/// Strikes handed to one `run_strike_batch` call — the campaign
/// drivers' default batch size.
const BATCH: usize = 64;

/// A probe measurement: the median of `samples` repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// The median value.
    pub value: f64,
    /// How many repetitions it is the median of.
    pub samples: usize,
}

impl Probe {
    /// The median of a series of samples.
    pub fn of(samples: &[f64]) -> Probe {
        Probe {
            value: median(samples),
            samples: samples.len(),
        }
    }
}

fn repeat(reps: usize, mut f: impl FnMut() -> f64) -> Probe {
    let v: Vec<f64> = (0..reps).map(|_| f()).collect();
    Probe::of(&v)
}

/// A named probe metric.
pub type Named = (&'static str, Probe);

fn halves(rng: &mut StdRng, n: usize) -> Vec<Half> {
    (0..n)
        .map(|_| Half::from_f64(rng.gen_range(-2.0..2.0)))
        .collect()
}

/// The soft-float probes.
pub fn softfloat(seed: u64) -> Vec<Named> {
    vec![
        ("softfloat.half_op_ns", half_fma_ns(seed)),
        ("softfloat.wide_fma_lane_ns", wide_fma_lane_ns(seed)),
    ]
}

/// One scalar binary16 fused multiply-add, in ns.
fn half_fma_ns(seed: u64) -> Probe {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x5F16));
    let (a, b, c) = (
        halves(&mut rng, 4096),
        halves(&mut rng, 4096),
        halves(&mut rng, 4096),
    );
    repeat(REPS, || {
        let start = Instant::now();
        let mut acc = 0u16;
        for _ in 0..16 {
            for i in 0..a.len() {
                acc ^= black_box(a[i]).mul_add(b[i], c[i]).to_bits();
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e9 / (16 * a.len()) as f64
    })
}

/// One lane of the wide binary16 FMA, in ns.
fn wide_fma_lane_ns(seed: u64) -> Probe {
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x3DE));
    let bits =
        |rng: &mut StdRng| -> Vec<u16> { halves(rng, 4096).iter().map(|h| h.to_bits()).collect() };
    let (a, b, acc0) = (bits(&mut rng), bits(&mut rng), bits(&mut rng));
    repeat(REPS, || {
        let mut acc = acc0.clone();
        let start = Instant::now();
        for _ in 0..64 {
            wide::fma(black_box(&a), &b, &mut acc);
        }
        black_box(&acc);
        start.elapsed().as_secs_f64() * 1e9 / (64 * a.len()) as f64
    })
}

/// The campaign drivers' strike stream: per-strike `StdRng` from
/// `mix_seed(seed, i)`, site drawn before the fault.
fn strike_stream(seed: u64, n: usize, sites: u64, p: Precision) -> Vec<(u64, ValueFault)> {
    (0..n as u64)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, i));
            let site = rng.gen_range(0..sites);
            (site, FaultModel::SingleBit.sample(p.total_bits(), &mut rng))
        })
        .collect()
}

/// Seconds for one `run_golden` and seconds per strike over `n`
/// strikes of the drawn stream, batched as the campaigns batch them.
fn golden_and_strike_s(w: &dyn Workload, p: Precision, seed: u64, n: usize) -> (f64, f64) {
    let sites = w.site_count(p);
    let stream = strike_stream(seed, n, sites, p);
    let start = Instant::now();
    let golden = w.run_golden(p);
    let golden_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let mut sum = 0u64;
    for chunk in stream.chunks(BATCH) {
        w.run_strike_batch(p, chunk, &golden, &mut |_, out| {
            sum = sum.wrapping_add(out.len() as u64);
            true
        });
    }
    black_box(sum);
    (golden_s, start.elapsed().as_secs_f64() / n as f64)
}

/// The kernel probes, over the sweep's workloads at every supported
/// precision: every golden output once (ms), the mean strike (µs), the
/// LavaMD half strike (µs), and half strike time over single, summed
/// over the workloads.
pub fn kernels(seed: u64, tiny: bool) -> Vec<Named> {
    let strikes = if tiny { 16 } else { 256 };
    let built: Vec<(WorkloadId, Box<dyn Workload>)> = sweep_workloads(tiny)
        .into_iter()
        .map(|id| (id, id.build()))
        .collect();
    let mut golden = Vec::new();
    let mut strike = Vec::new();
    let mut lavamd = Vec::new();
    let mut ratio = Vec::new();
    for rep in 0..3 {
        let (mut g, mut s, mut n, mut half, mut single) = (0.0, 0.0, 0usize, 0.0, 0.0);
        let mut lava = 0.0;
        for (id, w) in &built {
            for p in [Precision::Half, Precision::Single, Precision::Double] {
                if !w.supports(p) {
                    continue;
                }
                let (gs, ss) = golden_and_strike_s(w.as_ref(), p, mix_seed(seed, rep), strikes);
                g += gs;
                s += ss * strikes as f64;
                n += strikes;
                match p {
                    Precision::Half => half += ss,
                    Precision::Single => single += ss,
                    Precision::Double => {}
                }
                if p == Precision::Half && matches!(id, WorkloadId::LavaMd { .. }) {
                    lava = ss;
                }
            }
        }
        golden.push(g * 1e3);
        strike.push(s / n as f64 * 1e6);
        lavamd.push(lava * 1e6);
        ratio.push(half / single);
    }
    vec![
        ("kernels.golden_ms", Probe::of(&golden)),
        ("kernels.strike_us", Probe::of(&strike)),
        ("kernels.lavamd_half.strike_us", Probe::of(&lavamd)),
        ("kernels.half_over_single", Probe::of(&ratio)),
    ]
}

/// The DNN probes (ms), on the YOLO and MNIST nets the study builds
/// (MNIST weights from the same seed derivation as `Study`).
pub fn nn(seed: u64, tiny: bool) -> Vec<Named> {
    let strikes = if tiny { 2 } else { 16 };
    let yolo = WorkloadId::Yolo.build();
    let mnist = WorkloadId::Mnist {
        seed: mix_seed(seed, 0x313),
    }
    .build();
    let reps = 3;
    let mut series: [Vec<f64>; 5] = Default::default();
    for rep in 0..reps {
        let s = mix_seed(seed, 0x4E4E + rep);
        let (yg, yh) = golden_and_strike_s(yolo.as_ref(), Precision::Half, s, strikes);
        let (_, ys) = golden_and_strike_s(yolo.as_ref(), Precision::Single, s, strikes);
        let (_, mh) = golden_and_strike_s(mnist.as_ref(), Precision::Half, s, strikes);
        let (_, ms) = golden_and_strike_s(mnist.as_ref(), Precision::Single, s, strikes);
        for (v, x) in series.iter_mut().zip([yg, yh, ys, mh, ms]) {
            v.push(x * 1e3);
        }
    }
    let ratios: Vec<f64> = series[1]
        .iter()
        .zip(&series[2])
        .map(|(h, s)| h / s)
        .collect();
    vec![
        ("nn.yolo_half.golden_ms", Probe::of(&series[0])),
        ("nn.yolo_half.strike_ms", Probe::of(&series[1])),
        ("nn.yolo_single.strike_ms", Probe::of(&series[2])),
        ("nn.mnist_half.strike_ms", Probe::of(&series[3])),
        ("nn.mnist_single.strike_ms", Probe::of(&series[4])),
        ("nn.yolo.half_over_single", Probe::of(&ratios)),
    ]
}

/// The store probes: the workload's own results written through
/// `ResultStore::insert` into a fresh store of the workload's kind (on
/// disk under `disk`, else in memory), then read back through
/// `ResultStore::lookup` from a freshly opened store.
pub fn store(results: &[(String, CellResult)], disk: Option<&Path>) -> Vec<Named> {
    let open = || match disk {
        Some(dir) => ResultStore::with_cache_dir(dir),
        None => ResultStore::in_memory(),
    };
    if let Some(dir) = disk {
        let _ = std::fs::remove_dir_all(dir);
    }
    let writer = open();
    let mut inserts = Vec::with_capacity(results.len());
    for (key, result) in results {
        let start = Instant::now();
        let ok = writer.insert(key, result.clone()).is_ok();
        inserts.push(start.elapsed().as_secs_f64() * 1e3);
        assert!(ok, "store probe: insert failed for {key}");
    }
    let reader = if disk.is_some() { open() } else { writer };
    let mut lookups = Vec::with_capacity(results.len());
    for (key, _) in results {
        let start = Instant::now();
        let hit = reader.lookup(key).is_some();
        lookups.push(start.elapsed().as_secs_f64() * 1e6);
        assert!(hit, "store probe: lookup missed {key}");
    }
    if let Some(dir) = disk {
        let _ = std::fs::remove_dir_all(dir);
    }
    vec![
        ("exp.store_insert_ms", Probe::of(&inserts)),
        ("exp.store_lookup_us", Probe::of(&lookups)),
    ]
}
