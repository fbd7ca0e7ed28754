//! The stage list both networks declare, its forward pass, and the
//! layer-local strike replay over per-stage golden checkpoints.
//!
//! A network is an input tensor and a list of [`Stage`]s. Every stage
//! computes its output element by element, and each element is one
//! self-contained touch sequence (a conv FMA chain, one activation, one
//! pooled maximum, one head output). The forward pass is that element
//! function in flat output order, so the dynamic site of any touch is
//! fixed by the golden run: a strike is a corruption of one element of
//! one stage's output, and only that element's downstream receptive
//! field needs to be re-simulated.
//!
//! [`Net::strike`] replays a strike that way (DESIGN.md §4i):
//!
//! 1. locate the struck stage and element from the golden site offsets
//!    (recorded per element, because a detection-head sigmoid's site
//!    count depends on its input value);
//! 2. recompute that one element with a local [`InjectHook`] whose
//!    cursor starts at the element's first site;
//! 3. carry the dirty elements stage by stage, recomputing only the
//!    outputs whose receptive field contains one, and drop every
//!    recomputed value that is bit-equal to the golden checkpoint; once
//!    nothing is dirty the output is the golden output.
//!
//! Recomputations after the strike use a [`NullHook`]: the one fault
//! has fired, and the naive run's later touches pass values through.
//! Half-precision conv recomputes run through the wide binary16 lanes,
//! one independent FMA chain per lane. The result is byte-identical to
//! the naive full rerun (DT001), which `tests/fast_path.rs` proves
//! against the `dyn` dispatch path.

use crate::layers::{
    conv_element, head_element, head_sample, leaky_relu_element, pool_element, relu_element,
    ConvWeights,
};
use crate::Tensor;
use mpr_fault::hook::{FaultHook, GoldenHook, InjectHook, NullHook};
use mpr_fault::{PrecisionCache, ValueFault};
use mpr_softfloat::{wide, FloatExt, Half, Precision};
use std::any::Any;
use std::borrow::Cow;
use std::sync::OnceLock;

/// One layer of a network, computed element by element.
#[derive(Debug, Clone)]
pub(crate) enum Stage<F> {
    /// Valid stride-1 convolution (a kernel spanning the whole input is
    /// a fully connected layer).
    Conv(ConvWeights<F>),
    /// ReLU.
    Relu,
    /// Leaky ReLU, slope 0.125.
    LeakyRelu,
    /// 2x2 max pooling, stride 2.
    MaxPool2,
    /// YOLO-style detection head: a 1x1 convolution sampled at every
    /// cell of a `grid x grid` anchor grid. Output shape
    /// `(grid * grid, channels, 1)`: anchor-cell-major, as decoded.
    Head {
        /// The 1x1 head convolution.
        weights: ConvWeights<F>,
        /// Anchor grid side.
        grid: usize,
    },
}

impl<F: FloatExt> Stage<F> {
    /// Output element `(c, y, x)`, with every site it executes passed
    /// through `hook` in the naive order.
    #[inline]
    fn element<H: FaultHook + ?Sized>(
        &self,
        input: &Tensor<F>,
        at: (usize, usize, usize),
        hook: &mut H,
    ) -> F {
        match self {
            Stage::Conv(w) => conv_element(input, w, at, hook),
            Stage::Relu => relu_element(input.get(at.0, at.1, at.2), hook),
            Stage::LeakyRelu => leaky_relu_element(input.get(at.0, at.1, at.2), hook),
            Stage::MaxPool2 => pool_element(input, at, hook),
            Stage::Head { weights, grid } => {
                head_element(input, weights, *grid, (at.0, at.1), hook)
            }
        }
    }

    /// The whole stage output: [`Stage::element`] in flat order.
    ///
    /// # Panics
    ///
    /// Panics if the input does not fit the stage: a channel count that
    /// disagrees with the weights, or a map smaller than the window.
    pub(crate) fn forward<H: FaultHook + ?Sized>(
        &self,
        input: &Tensor<F>,
        hook: &mut H,
    ) -> Tensor<F> {
        let (in_ch, h, w) = input.shape();
        let (c, oh, ow) = match self {
            Stage::Conv(weights) => {
                assert_eq!(in_ch, weights.in_ch, "channel mismatch");
                assert!(
                    h >= weights.k && w >= weights.k,
                    "input smaller than kernel"
                );
                (weights.out_ch, h - weights.k + 1, w - weights.k + 1)
            }
            Stage::Relu | Stage::LeakyRelu => (in_ch, h, w),
            Stage::MaxPool2 => {
                assert!(h >= 2 && w >= 2, "input too small to pool");
                (in_ch, h / 2, w / 2)
            }
            Stage::Head { weights, grid } => {
                assert_eq!(in_ch, weights.in_ch, "channel mismatch");
                (grid * grid, weights.out_ch, 1)
            }
        };
        Tensor::from_fn(c, oh, ow, |c, y, x| self.element(input, (c, y, x), hook))
    }

    /// Appends to `into` the flat indices of every element of an output
    /// shaped `(c, h, w)` whose input window contains input element
    /// `(ch, y, x)` of an input shaped `shape` (duplicates allowed).
    fn receptive_field(
        &self,
        shape: (usize, usize, usize),
        (c, h, w): (usize, usize, usize),
        (ch, y, x): (usize, usize, usize),
        into: &mut Vec<usize>,
    ) {
        match self {
            Stage::Conv(weights) => {
                let k = weights.k;
                let (y0, x0) = (y.saturating_sub(k - 1), x.saturating_sub(k - 1));
                for o in 0..c {
                    for oy in y0..=y.min(h - 1) {
                        for ox in x0..=x.min(w - 1) {
                            into.push((o * h + oy) * w + ox);
                        }
                    }
                }
            }
            Stage::Relu | Stage::LeakyRelu => into.push((ch * h + y) * w + x),
            Stage::MaxPool2 => {
                if y / 2 < h && x / 2 < w {
                    into.push((ch * h + y / 2) * w + x / 2);
                }
            }
            Stage::Head { weights, grid } => {
                let map = (shape.1, shape.2);
                for cell in 0..c {
                    if head_sample((cell / grid, cell % grid), map) == (y, x) {
                        into.extend(cell * weights.out_ch..(cell + 1) * weights.out_ch);
                    }
                }
            }
        }
    }
}

/// A network at one precision: its input, its stages, and (built on the
/// first strike) the golden checkpoints the replay starts from.
#[derive(Debug)]
pub(crate) struct Net<F> {
    input: Tensor<F>,
    stages: Vec<Stage<F>>,
    checkpoints: OnceLock<Checkpoints<F>>,
}

/// The golden run, stage by stage.
#[derive(Debug)]
struct Checkpoints<F> {
    /// Golden output of every stage.
    acts: Vec<Tensor<F>>,
    /// Per stage: the first dynamic site of every output element in
    /// flat order, then the stage's end (the next stage's first site).
    sites: Vec<Vec<u64>>,
    /// The binary16 lane operands, for a half-precision net.
    lanes: Option<HalfLanes>,
}

impl<F: FloatExt> Net<F> {
    /// A network over `input`.
    pub(crate) fn new(input: Tensor<F>, stages: Vec<Stage<F>>) -> Net<F> {
        Net {
            input,
            stages,
            checkpoints: OnceLock::new(),
        }
    }

    /// The full forward pass through `hook`: the naive path every
    /// replay is checked against, and the golden run.
    pub(crate) fn forward<H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        let mut x = Cow::Borrowed(&self.input);
        for stage in &self.stages {
            x = Cow::Owned(stage.forward(&x, hook));
        }
        x.as_slice().iter().map(|v| v.to_f64()).collect()
    }

    /// Input of stage `s`: the net input or the previous checkpoint.
    fn stage_input<'a>(&'a self, cp: &'a Checkpoints<F>, s: usize) -> &'a Tensor<F> {
        match s.checked_sub(1) {
            Some(prev) => &cp.acts[prev],
            None => &self.input,
        }
    }

    fn checkpoints(&self) -> &Checkpoints<F> {
        self.checkpoints.get_or_init(|| {
            let mut acts: Vec<Tensor<F>> = Vec::with_capacity(self.stages.len());
            let mut sites = Vec::with_capacity(self.stages.len());
            let mut cursor = 0u64;
            for stage in &self.stages {
                let input = acts.last().unwrap_or(&self.input);
                let out = stage.forward(input, &mut NullHook);
                let mut first = Vec::with_capacity(out.len() + 1);
                for e in 0..out.len() {
                    let mut hook = GoldenHook::new();
                    let _ = stage.element(input, unflatten(out.shape(), e), &mut hook);
                    first.push(cursor);
                    cursor += hook.sites();
                }
                first.push(cursor);
                sites.push(first);
                acts.push(out);
            }
            let lanes = (&self.stages as &dyn Any)
                .downcast_ref::<Vec<Stage<Half>>>()
                .map(|stages| HalfLanes::new(stages));
            Checkpoints { acts, sites, lanes }
        })
    }

    /// Fills `out` with the output of a run whose dynamic site `site`
    /// is corrupted by `fault`, byte-identical to the naive rerun.
    /// `golden` is the net's fault-free output.
    pub(crate) fn strike(&self, site: u64, fault: ValueFault, golden: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(golden);
        let cp = self.checkpoints();
        // Past the last dynamic site the fault never fires.
        let Some(s) = cp
            .sites
            .iter()
            .position(|f| f.last().is_some_and(|&end| site < end))
        else {
            return;
        };
        let first = &cp.sites[s];
        let e = first.partition_point(|&f| f <= site) - 1;
        let input = self.stage_input(cp, s);
        let shape = cp.acts[s].shape();
        let mut hook = InjectHook::new(site - first[e], fault);
        let v = self.stages[s].element(input, unflatten(shape, e), &mut hook);
        let mut dirty = Vec::new();
        if v.to_bits_u64() != cp.acts[s].as_slice()[e].to_bits_u64() {
            dirty.push((e, v));
        }
        for t in s + 1..self.stages.len() {
            if dirty.is_empty() {
                return; // masked: the checkpoint is clean from here on
            }
            dirty = self.propagate(cp, t, &dirty);
        }
        for (e, v) in dirty {
            out[e] = v.to_f64();
        }
    }

    /// Stage `t` over its golden input patched with `dirty`: recomputes
    /// the receptive field of the dirty elements and returns the
    /// outputs that differ from the checkpoint.
    fn propagate(&self, cp: &Checkpoints<F>, t: usize, dirty: &[(usize, F)]) -> Vec<(usize, F)> {
        let stage = &self.stages[t];
        let golden_in = self.stage_input(cp, t);
        let golden_out = &cp.acts[t];
        let (shape, out_shape) = (golden_in.shape(), golden_out.shape());
        let mut patched = golden_in.clone();
        let mut affected = Vec::new();
        for &(e, v) in dirty {
            let at = unflatten(shape, e);
            patched.set(at.0, at.1, at.2, v);
            stage.receptive_field(shape, out_shape, at, &mut affected);
        }
        affected.sort_unstable();
        affected.dedup();

        let lane_values = cp
            .lanes
            .as_ref()
            .and_then(|lanes| lanes.conv(t, &patched, out_shape, &affected));
        let mut next = Vec::new();
        for (j, &e) in affected.iter().enumerate() {
            let v = match &lane_values {
                Some(values) => F::from_bits_u64(u64::from(values[j])),
                None => stage.element(&patched, unflatten(out_shape, e), &mut NullHook),
            };
            if v.to_bits_u64() != golden_out.as_slice()[e].to_bits_u64() {
                next.push((e, v));
            }
        }
        next
    }
}

/// `(c, y, x)` of flat index `e` in a tensor shaped `(_, h, w)`.
#[inline]
fn unflatten((_, h, w): (usize, usize, usize), e: usize) -> (usize, usize, usize) {
    (e / (h * w), (e / w) % h, e % w)
}

/// The binary16 conv operands of a half-precision net, pre-widened once
/// for [`wide::fma_widened`]: per stage, the kernels (as
/// [`wide::widen64`] images) and the bias bits, or `None` for a stage
/// that is not a convolution.
#[derive(Debug)]
struct HalfLanes {
    convs: Vec<Option<LaneConv>>,
}

/// One conv stage's lane operands.
#[derive(Debug)]
struct LaneConv {
    kernels: Vec<f64>,
    biases: Vec<u16>,
    in_ch: usize,
    k: usize,
}

impl HalfLanes {
    fn new(stages: &[Stage<Half>]) -> HalfLanes {
        let convs = stages
            .iter()
            .map(|stage| match stage {
                Stage::Conv(w) => Some(LaneConv {
                    kernels: w
                        .kernels
                        .iter()
                        .map(|h| wide::widen64(h.to_bits()))
                        .collect(),
                    biases: w.biases.iter().map(|h| h.to_bits()).collect(),
                    in_ch: w.in_ch,
                    k: w.k,
                }),
                _ => None,
            })
            .collect();
        HalfLanes { convs }
    }

    /// Conv stage `t` recomputed over `input` at the flat output
    /// indices `elems`, [`wide::LANES`] FMA chains per pass; `None` when
    /// stage `t` is not a convolution or `input` is not binary16.
    ///
    /// Lane `s` runs output element `elems[s]`'s whole chain in the
    /// naive `(i, dy, dx)` order from its bias, so every lane is
    /// bit-identical to the scalar `Half::mul_add` chain. Short tail
    /// groups pad with element 0's operands and discard those lanes.
    fn conv<F: Any>(
        &self,
        t: usize,
        input: &Tensor<F>,
        out_shape: (usize, usize, usize),
        elems: &[usize],
    ) -> Option<Vec<u16>> {
        let conv = self.convs.get(t)?.as_ref()?;
        let input = (input as &dyn Any).downcast_ref::<Tensor<Half>>()?;
        let (_, h, w) = input.shape();
        let widened: Vec<f64> = input
            .as_slice()
            .iter()
            .map(|v| wide::widen64(v.to_bits()))
            .collect();
        // Input offset of chain step (i, dy, dx) from the window origin.
        let mut steps = Vec::with_capacity(conv.in_ch * conv.k * conv.k);
        for i in 0..conv.in_ch {
            for dy in 0..conv.k {
                for dx in 0..conv.k {
                    steps.push((i * h + dy) * w + dx);
                }
            }
        }
        let chain = steps.len();
        let mut out = Vec::with_capacity(elems.len());
        let mut kernel_base = [0usize; wide::LANES];
        let mut window = [0usize; wide::LANES];
        let mut acc = [0u16; wide::LANES];
        let mut a = [0f64; wide::LANES];
        let mut b = [0f64; wide::LANES];
        for group in elems.chunks(wide::LANES) {
            kernel_base.fill(0);
            window.fill(0);
            acc.fill(0);
            for (s, &e) in group.iter().enumerate() {
                let (o, y, x) = unflatten(out_shape, e);
                kernel_base[s] = o * chain;
                window[s] = y * w + x;
                acc[s] = conv.biases[o];
            }
            for (step, &off) in steps.iter().enumerate() {
                for s in 0..wide::LANES {
                    a[s] = conv.kernels[kernel_base[s] + step];
                    b[s] = widened[window[s] + off];
                }
                wide::fma_widened(&a, &b, &mut acc);
            }
            out.extend_from_slice(&acc[..group.len()]);
        }
        Some(out)
    }
}

/// A network's per-precision [`Net`]s, built on first use. The nets are
/// a pure function of the owning workload's configuration, so a clone
/// starts empty.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetCache(PrecisionCache<Box<dyn Any + Send + Sync>>);

impl NetCache {
    /// The net at `F`'s precision, built by `build` on first use.
    pub(crate) fn get<F: FloatExt>(&self, build: impl FnOnce() -> Net<F>) -> &Net<F> {
        self.0
            .get_or_init(F::PRECISION, || Box::new(build()))
            .downcast_ref()
            // mpr-allow: panic-hygiene -- the slot for `F::PRECISION` is only ever filled with a `Net<F>` by the line above
            .expect("each precision slot holds that precision's net")
    }
}

/// A workload computed as a [`Net`] at every precision: it declares
/// its input and stage list once, and gets the naive forward pass and
/// the layer-local strike replay from here.
pub(crate) trait Network {
    /// The per-precision net cache.
    fn nets(&self) -> &NetCache;

    /// The net at `F`'s precision: the input tensor and the stage list.
    fn build<F: FloatExt>(&self) -> Net<F>;

    /// The cached net at `F`'s precision.
    fn net<F: FloatExt>(&self) -> &Net<F> {
        self.nets().get(|| self.build::<F>())
    }

    /// The full forward pass through `hook` — what
    /// [`mpr_fault::dispatch_precision!`] dispatches.
    fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64> {
        self.net::<F>().forward(hook)
    }

    /// [`mpr_fault::Workload::run_from_site_into`] through
    /// [`Net::strike`].
    fn strike(
        &self,
        precision: Precision,
        site: u64,
        fault: ValueFault,
        golden: &[f64],
        out: &mut Vec<f64>,
    ) {
        match precision {
            Precision::Double => self.net::<f64>().strike(site, fault, golden, out),
            Precision::Single => self.net::<f32>().strike(site, fault, golden, out),
            Precision::Half => self.net::<Half>().strike(site, fault, golden, out),
        }
    }
}
