//! The fast-path contract (DT001): monomorphized hooks and
//! golden-prefix replay must be byte-identical to the naive
//! full-rerun path, and must not move any previously observable bit.
//!
//! Three layers of evidence:
//!
//! 1. a differential sweep — every workload (the kernels and both
//!    networks) x supported precision x a deterministic spread of fault
//!    sites (region and stage boundaries included) x every fault shape,
//!    fast vs naive, compared bit-for-bit;
//! 2. pinned fingerprints — golden outputs, campaign severity vectors
//!    (threads 1/2/5), and beam cross-section counts hashed against
//!    values captured from the pre-fast-path implementation, plus the
//!    MNIST and YOLO beam campaigns at every precision (threads 1/2)
//!    captured before the networks' layer-local replay;
//! 3. the experiment engine's on-disk cache bytes, hashed against the
//!    pre-fast-path bytes under the unchanged `KEY_VERSION` ("v2") —
//!    the fast path earns zero cache invalidation.

use mixed_precision_reliability::arch::{Fpga, VoltaGpu};
use mixed_precision_reliability::beam::{BeamCampaign, BeamSession, CampaignResult};
use mixed_precision_reliability::exp::{
    CellKey, CellKind, ClassifierId, DeviceId, Engine, ResultStore, SamplingPlan, WorkloadId,
    KEY_VERSION,
};
use mixed_precision_reliability::fault::hook::FaultHook;
use mixed_precision_reliability::fault::{FaultModel, InjectionCampaign, ValueFault, Workload};
use mixed_precision_reliability::kernels::{profiles, Gemm, LavaMd, Lud, Micro, MicroKernelOp};
use mixed_precision_reliability::nn::{profiles as nn_profiles, Mnist, TinyYolo};
use mixed_precision_reliability::obs::{fnv1a64, mix_seed};
use mixed_precision_reliability::softfloat::Precision;
use std::collections::BTreeSet;
use std::sync::Arc;

/// FNV-1a over the little-endian bit patterns — bit-exact, NaN-safe.
fn hash_f64s(v: &[f64]) -> u64 {
    let mut bytes = Vec::with_capacity(v.len() * 8);
    for x in v {
        bytes.extend_from_slice(&x.to_bits().to_le_bytes());
    }
    fnv1a64(&bytes)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strips a workload back to the naive path: only the required methods
/// are forwarded, so every provided default (full rerun through the
/// `dyn` hook, no golden reuse) executes as if the fast path did not
/// exist.
struct ForceNaive<'a>(&'a dyn Workload);

impl Workload for ForceNaive<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn dispatch(&self, precision: Precision, hook: &mut dyn FaultHook) -> Vec<f64> {
        self.0.dispatch(precision, hook)
    }

    fn supports(&self, precision: Precision) -> bool {
        self.0.supports(precision)
    }
}

/// A deterministic spread of sites: both ends, every 1/13th of the site
/// space (crossing each kernel's input/compute region boundaries), and
/// two past-the-end sites where the fault never fires.
fn site_sample(site_count: u64) -> Vec<u64> {
    let mut sites = BTreeSet::new();
    sites.insert(0);
    sites.insert(1);
    sites.insert(site_count - 1);
    for k in 1..13 {
        sites.insert(k * site_count / 13);
    }
    sites.insert(site_count); // first unreachable site
    sites.insert(site_count + 17);
    sites.into_iter().collect()
}

fn fault_shapes(width: u32) -> Vec<ValueFault> {
    vec![
        ValueFault::BitFlip(0),
        ValueFault::BitFlip(width - 1),
        ValueFault::DoubleBitFlip(1, width - 2),
        ValueFault::ByteCorrupt { byte: 1, xor: 0xA5 },
        ValueFault::XorMask(0xDEAD_BEEF),
        ValueFault::StuckHigh(width - 2),
        ValueFault::StuckLow(0),
    ]
}

/// First site of every stage after the first, for the two networks:
/// MNIST's conv 1->4 5x5 (576 chains of 25), ReLU (576), pool (144),
/// conv 4->8 3x3 (128 chains of 36), ReLU (128), pool (32) and dense
/// 32->10 (10 chains of 32), and YOLO's conv 3->8 3x3 (1152 chains of
/// 27), leaky ReLU (1152), pool (288), conv 8->16 3x3 (256 chains of
/// 72) and leaky ReLU (256) ahead of the value-dependent head.
const MNIST_STAGE_STARTS: [u64; 6] = [14400, 14976, 15120, 19728, 19856, 19888];
const YOLO_STAGE_STARTS: [u64; 5] = [31104, 32256, 32544, 50976, 51232];

/// Every stage boundary and its two neighbours; with a detection head
/// (the last stage, from the last start to `site_count`), also 24 sites
/// spread over the head's FMA chains, raw box terms and sigmoid
/// polynomials.
fn boundary_sites(starts: &[u64], head: bool, site_count: u64) -> Vec<u64> {
    let mut sites: Vec<u64> = starts.iter().flat_map(|&b| [b - 1, b, b + 1]).collect();
    if let (true, Some(&first)) = (head, starts.last()) {
        sites.extend((0..24).map(|k| first + k * (site_count - first) / 24));
    }
    sites
}

#[test]
fn fast_path_is_bit_identical_to_naive_everywhere() {
    let gemm = Gemm::new(8);
    let lud = Lud::new(8);
    let lava = LavaMd::new(2, 2);
    let lava_knc = LavaMd::new(2, 2).for_knc();
    let micro = Micro::new(MicroKernelOp::Fma, 4, 64);
    let mnist = Mnist::new();
    let mnist_study = Mnist::new().with_seed(mix_seed(2019, 0x313));
    let yolo = TinyYolo::new();
    // (workload, stage starts, whether the last stage is a head)
    let workloads: [(&dyn Workload, &[u64], bool); 8] = [
        (&gemm, &[], false),
        (&lud, &[], false),
        (&lava, &[], false),
        (&lava_knc, &[], false),
        (&micro, &[], false),
        (&mnist, &MNIST_STAGE_STARTS, false),
        (&mnist_study, &MNIST_STAGE_STARTS, false),
        (&yolo, &YOLO_STAGE_STARTS, true),
    ];

    for (w, starts, head) in workloads {
        let naive = ForceNaive(w);
        for p in Precision::ALL {
            if !w.supports(p) {
                continue;
            }
            // Golden and site counts agree between the monomorphized
            // and dyn paths before any strike runs.
            let golden = w.run_golden(p);
            assert_eq!(
                bits(&golden),
                bits(&naive.run_golden(p)),
                "{} {p}: golden diverged",
                w.name()
            );
            let sc = w.site_count(p);
            assert_eq!(sc, naive.site_count(p), "{} {p}: site count", w.name());

            assert!(
                starts.last().is_none_or(|&last| last < sc),
                "{} {p}: stage starts past the site count {sc}",
                w.name()
            );
            let mut sites = site_sample(sc);
            sites.extend(boundary_sites(starts, head, sc));
            let mut out = Vec::new();
            for site in sites {
                for fault in fault_shapes(p.total_bits()) {
                    let want = naive.run_with_fault(p, site, fault);
                    w.run_from_site_into(p, site, fault, &golden, &mut out);
                    assert_eq!(
                        bits(&out),
                        bits(&want),
                        "{} {p} site {site}/{sc} {fault:?}: replay diverged",
                        w.name()
                    );
                    // The allocating form must agree with the buffered one.
                    let alloc = w.run_from_site(p, site, fault, &golden);
                    assert_eq!(bits(&alloc), bits(&out), "{} {p} site {site}", w.name());
                }
            }
        }
    }
}

#[test]
fn golden_fingerprints_match_the_pre_fast_path_implementation() {
    // (workload, precision, site_count, fnv1a64 of the golden bits) —
    // captured by running the naive implementation before this PR's
    // kernel rewrite. Any drift here is an output change, not a perf
    // regression.
    let gemm8 = Gemm::new(8);
    let gemm32 = Gemm::new(32);
    let lud8 = Lud::new(8);
    let lava22 = LavaMd::new(2, 2);
    let lava_knc = LavaMd::new(2, 2).for_knc();
    let micro = Micro::new(MicroKernelOp::Fma, 4, 64);
    let pins: [(&dyn Workload, Precision, u64, u64); 16] = [
        (&gemm8, Precision::Double, 640, 0x68eb9f5d04bed2f4),
        (&gemm8, Precision::Single, 640, 0xd9e725cdcb33a068),
        (&gemm8, Precision::Half, 640, 0x0538f3fa9738660d),
        (&gemm32, Precision::Double, 34816, 0x7ecd6174de7f8a13),
        (&gemm32, Precision::Single, 34816, 0xf4430c818cf99183),
        (&gemm32, Precision::Half, 34816, 0x0fa9bd80ae88be39),
        (&lud8, Precision::Double, 232, 0x66f5013e056944c4),
        (&lud8, Precision::Single, 232, 0xa799f783821f0512),
        (&lava22, Precision::Double, 4384, 0x8a82bd3e99774359),
        (&lava22, Precision::Single, 2944, 0xea8b4f548428814c),
        (&lava22, Precision::Half, 2224, 0x65db4c428c8fab58),
        // The KNC transcendental unit changes the *site* population but
        // is fault-free exact: goldens match the Taylor path.
        (&lava_knc, Precision::Double, 6544, 0x8a82bd3e99774359),
        (&lava_knc, Precision::Single, 2704, 0xea8b4f548428814c),
        (&lava_knc, Precision::Half, 2224, 0x65db4c428c8fab58),
        (&micro, Precision::Double, 256, 0x455e00df70df99df),
        (&micro, Precision::Single, 256, 0xe28c0925a65abe3b),
    ];
    for (w, p, sites, hash) in pins {
        assert_eq!(w.site_count(p), sites, "{} {p} site count moved", w.name());
        assert_eq!(
            hash_f64s(&w.run_golden(p)),
            hash,
            "{} {p} golden bits moved",
            w.name()
        );
    }
    assert_eq!(
        hash_f64s(&micro.run_golden(Precision::Half)),
        0x73ab71fc17a6aff6
    );

    // The networks, captured from the full-rerun implementation before
    // the stage list and layer-local replay replaced it.
    let mnist = Mnist::new();
    let mnist_study = Mnist::new().with_seed(mix_seed(2019, 0x313));
    let yolo = TinyYolo::new();
    let pins: [(&dyn Workload, Precision, u64, u64); 9] = [
        (&mnist, Precision::Double, 20208, 0x39bcdd32a0bb9229),
        (&mnist, Precision::Single, 20208, 0x43342cb75c0bfbdd),
        (&mnist, Precision::Half, 20208, 0xb6cdbbcc4dcffce1),
        (&mnist_study, Precision::Double, 20208, 0xd7de59a4ea46dac9),
        (&mnist_study, Precision::Single, 20208, 0xbfcba09f95ca80c6),
        (&mnist_study, Precision::Half, 20208, 0x3c921289e94a6f50),
        (&yolo, Precision::Double, 59732, 0x37af0853b89e84ac),
        (&yolo, Precision::Single, 58382, 0x825aba7f61216798),
        (&yolo, Precision::Half, 57707, 0xa6aa157ef9b823f7),
    ];
    for (w, p, sites, hash) in pins {
        assert_eq!(w.site_count(p), sites, "{} {p} site count moved", w.name());
        assert_eq!(
            hash_f64s(&w.run_golden(p)),
            hash,
            "{} {p} golden bits moved",
            w.name()
        );
    }
}

#[test]
fn injection_campaigns_reproduce_pinned_results_across_threads() {
    let gemm8 = Gemm::new(8);
    for threads in [1usize, 2, 5] {
        let r = InjectionCampaign::new(&gemm8, Precision::Single)
            .injections(300)
            .seed(42)
            .threads(threads)
            .run();
        assert_eq!(
            (r.counts.masked, r.counts.sdc, r.counts.due),
            (7, 293, 0),
            "threads={threads}"
        );
        assert_eq!(
            hash_f64s(&r.severities),
            0x956ad637fbb2021f,
            "severity bits moved at threads={threads}"
        );
    }

    let r = InjectionCampaign::new(&LavaMd::new(2, 2), Precision::Half)
        .injections(200)
        .seed(7)
        .model(FaultModel::RandomByte)
        .threads(3)
        .run();
    assert_eq!((r.counts.masked, r.counts.sdc), (87, 113));
    assert_eq!(hash_f64s(&r.severities), 0x4c1685803a1d8676);

    let r = InjectionCampaign::new(&Lud::new(8), Precision::Double)
        .injections(200)
        .seed(9)
        .threads(2)
        .run();
    assert_eq!((r.counts.masked, r.counts.sdc), (0, 200));
    assert_eq!(hash_f64s(&r.severities), 0x1797c5f0e286734b);
}

#[test]
fn beam_campaigns_reproduce_pinned_results_across_threads() {
    let gemm8 = Gemm::new(8);
    let fpga = Fpga::zynq7000();
    let profile = profiles::mxm_fpga();
    for threads in [1usize, 2, 5] {
        let mut session = BeamSession::quick(11).with_target_candidates(150);
        session.threads = threads;
        let r = BeamCampaign::new(&fpga, &gemm8, &profile, Precision::Half)
            .session(session)
            .run();
        assert_eq!(
            (r.candidates, r.sdc.events()),
            (140, 57),
            "threads={threads}"
        );
        assert_eq!(
            hash_f64s(&r.severities),
            0xd45db3cac3cc6f2f,
            "severity bits moved at threads={threads}"
        );
    }

    let gpu = VoltaGpu::titan_v();
    let profile = profiles::mxm_gpu();
    let r = BeamCampaign::new(&gpu, &gemm8, &profile, Precision::Single)
        .session(BeamSession::quick(13).with_target_candidates(150))
        .run();
    assert_eq!((r.candidates, r.sdc.events()), (141, 140));
    assert_eq!(hash_f64s(&r.severities), 0x6082250a062807dd);
}

/// One beam campaign's fingerprint: candidates, executed, SDC and DUE
/// events, the SDC fluence bits, the severity bits and the labels.
type BeamFingerprint = (u64, u64, u64, u64, u64, u64, u64);

fn beam_fingerprint(r: &CampaignResult) -> BeamFingerprint {
    (
        r.candidates,
        r.executed,
        r.sdc.events(),
        r.due.events(),
        r.sdc.fluence().to_bits(),
        hash_f64s(&r.severities),
        fnv1a64(r.labels.join(",").as_bytes()),
    )
}

#[test]
fn dnn_beam_campaigns_reproduce_pinned_results_across_threads() {
    // MNIST (the study's weight seed) on the Zynq and YOLO on the Titan
    // V, at every precision, quick session, with the domain classifier
    // each study cell attaches — captured from the full-rerun DNN path
    // before the layer-local replay existed.
    let mnist = Mnist::new().with_seed(mix_seed(2019, 0x313));
    let yolo = TinyYolo::new();
    let fpga = Fpga::zynq7000();
    let gpu = VoltaGpu::titan_v();
    let (mnist_profile, yolo_profile) = (nn_profiles::mnist_fpga(), nn_profiles::yolo_gpu());
    let mnist_classify = ClassifierId::MnistLogits
        .classifier()
        .expect("mnist classifier");
    let yolo_classify = ClassifierId::YoloDetections
        .classifier()
        .expect("yolo classifier");
    let pins: [(&str, Precision, BeamFingerprint); 6] = [
        (
            "mnist",
            Precision::Double,
            (
                303,
                303,
                31,
                0,
                0x3f10c3a72ab5a815,
                0x844ddca0ee15b378,
                0xc90c47ae9761359b,
            ),
        ),
        (
            "mnist",
            Precision::Single,
            (
                303,
                303,
                30,
                0,
                0x3f21d5969a5f3589,
                0xc8f2f1da2c9bfbb0,
                0x9cdd2a80baba0011,
            ),
        ),
        (
            "mnist",
            Precision::Half,
            (
                303,
                303,
                39,
                0,
                0x3f2819b6c2c5d9a5,
                0x02d8290473417a7a,
                0xa5d95e9b9e1f7ff4,
            ),
        ),
        (
            "yolo",
            Precision::Double,
            (
                303,
                303,
                174,
                75,
                0x3eb9d0ee0605d46b,
                0xc078f502420dcf9c,
                0x3e84ca39229c4abc,
            ),
        ),
        (
            "yolo",
            Precision::Single,
            (
                303,
                303,
                176,
                92,
                0x3ebfc8d889c9bc3e,
                0x62f2de08f575f1d9,
                0x97cdf4007183ae3c,
            ),
        ),
        (
            "yolo",
            Precision::Half,
            (
                303,
                303,
                168,
                121,
                0x3ec4e332773efb37,
                0xcfec85433559594c,
                0x3c66eb119847c61b,
            ),
        ),
    ];
    for (net, precision, want) in pins {
        for threads in [1usize, 2] {
            let mut session = BeamSession::quick(17);
            session.threads = threads;
            let r = if net == "mnist" {
                BeamCampaign::new(&fpga, &mnist, &mnist_profile, precision)
                    .session(session)
                    .classifier(mnist_classify)
                    .run()
            } else {
                BeamCampaign::new(&gpu, &yolo, &yolo_profile, precision)
                    .session(session)
                    .classifier(yolo_classify)
                    .run()
            };
            assert_eq!(
                beam_fingerprint(&r),
                want,
                "{net} {precision} beam results moved at threads={threads}"
            );
        }
    }
}

#[test]
fn engine_cache_bytes_unchanged_with_no_key_version_bump() {
    // The fast path must not invalidate a single cached cell: same key
    // version, same bytes as the pre-fast-path engine wrote.
    assert_eq!(KEY_VERSION, "v2", "fast path must not bump the cache key");

    let dir = std::env::temp_dir().join(format!("mpr_fastpath_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Arc::new(ResultStore::with_cache_dir(&dir));
    let engine = Engine::new(99).with_threads(3).with_store(store);
    let cells = [
        CellKey {
            device: DeviceId::Knc3120a,
            workload: WorkloadId::Gemm { dim: 10 },
            precision: Precision::Single,
            kind: CellKind::Inject {
                injections: 200,
                model: FaultModel::SingleBit,
                live_fraction: 1.0,
                sampling: SamplingPlan::Fixed,
            },
        },
        CellKey {
            device: DeviceId::TitanV,
            workload: WorkloadId::Yolo,
            precision: Precision::Half,
            kind: CellKind::Beam {
                hours: 10.0,
                target_candidates: 160,
                classifier: ClassifierId::YoloDetections,
                sampling: SamplingPlan::Fixed,
            },
        },
    ];
    for cell in &cells {
        let _ = engine.run_one(cell);
    }

    // Hash every result file (manifest.json is run bookkeeping) in
    // sorted relative-path order, null-separated.
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut stack = vec![dir.clone()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).expect("cache dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                stack.push(path);
            } else if path.file_name().is_some_and(|n| n != "manifest.json") {
                let rel = path
                    .strip_prefix(&dir)
                    .expect("under cache dir")
                    .to_string_lossy()
                    .into_owned();
                files.push((rel, std::fs::read(&path).expect("cache file")));
            }
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for (rel, content) in &files {
        bytes.extend_from_slice(rel.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(content);
        bytes.push(0);
    }
    assert_eq!(files.len(), 2, "both cells must persist");
    assert_eq!(
        fnv1a64(&bytes),
        0xe2050c6ea3c141e4,
        "cached campaign bytes moved — the fast path changed an output"
    );
    std::fs::remove_dir_all(&dir).ok();
}
