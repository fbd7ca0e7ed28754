//! The MNIST LeNet-style classifier.

use crate::layers::ConvWeights;
use crate::stages::{Net, NetCache, Network, Stage};
use crate::synth::{digit_image, gen_weights};
use mpr_fault::hook::FaultHook;
use mpr_fault::{dispatch_precision, ValueFault, Workload};
use mpr_softfloat::{FloatExt, Precision};

/// A LeNet-style convolutional digit classifier — the CNN the paper
/// synthesizes on the FPGA (Section 3.1, "a topology very similar to
/// LeNet").
///
/// Topology (on a 16x16 proxy canvas): `conv 1->4 (5x5)` + ReLU + 2x2
/// max pool, `conv 4->8 (3x3)` + ReLU + 2x2 max pool, `dense 32->10`
/// (a 2x2 convolution over the 8x2x2 map: the same FMA chains in the
/// same order as a fully connected layer). Weights are generated once
/// from a seed and cast into each precision; the network is *not
/// retrained* per precision, matching the paper's methodology.
///
/// As a [`Workload`] its output is the 10 class logits; an SDC is
/// *critical* when the arg-max class changes
/// ([`crate::classify_logits`]).
#[derive(Debug, Clone)]
pub struct Mnist {
    seed: u64,
    digit: usize,
    nets: NetCache,
}

impl Mnist {
    /// The default classifier instance (digit class 3, default seed).
    pub fn new() -> Mnist {
        Mnist {
            seed: 0x313,
            digit: 3,
            nets: NetCache::default(),
        }
    }

    /// Classifies a different synthetic digit class (0..=9).
    ///
    /// # Panics
    ///
    /// Panics if `digit > 9`.
    pub fn with_digit(mut self, digit: usize) -> Mnist {
        assert!(digit <= 9, "MNIST has classes 0..=9");
        self.digit = digit;
        self.nets = NetCache::default();
        self
    }

    /// Overrides the weight/data seed.
    pub fn with_seed(mut self, seed: u64) -> Mnist {
        self.seed = seed;
        self.nets = NetCache::default();
        self
    }

    /// Fraction of a synthetic digit batch on which the fault-free
    /// network at `precision` agrees with its own `reference`-precision
    /// classification.
    ///
    /// This is the paper's accuracy-consistency check (Section 3.1: "the
    /// accuracy of the half precision version is less than 2% lower than
    /// the double one") — the weights are cast, never retrained, so any
    /// disagreement is pure rounding.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn batch_agreement(&self, precision: Precision, reference: Precision, batch: usize) -> f64 {
        assert!(batch > 0, "need at least one image");
        let mut agree = 0usize;
        for i in 0..batch {
            let instance = self
                .clone()
                .with_digit(i % 10)
                .with_seed(self.seed ^ ((i as u64 / 10) << 16));
            if instance.golden_class(precision) == instance.golden_class(reference) {
                agree += 1;
            }
        }
        agree as f64 / batch as f64
    }

    /// The class the fault-free network assigns at the given precision.
    pub fn golden_class(&self, precision: Precision) -> usize {
        let logits = self.run_golden(precision);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            // mpr-allow: panic-hygiene -- the classifier head always emits ten logits
            .expect("ten logits")
    }
}

impl Default for Mnist {
    fn default() -> Self {
        Mnist::new()
    }
}

impl Network for Mnist {
    fn nets(&self) -> &NetCache {
        &self.nets
    }

    fn build<F: FloatExt>(&self) -> Net<F> {
        let conv = |seed: u64, in_ch: usize, out_ch: usize, k: usize| {
            let fan_in = in_ch * k * k;
            Stage::Conv(ConvWeights::new(
                gen_weights(self.seed ^ seed, out_ch * fan_in, fan_in),
                gen_weights(self.seed ^ (seed + 1), out_ch, fan_in),
                in_ch,
                out_ch,
                k,
            ))
        };
        Net::new(
            digit_image(self.digit, self.seed ^ 0xD161, 16),
            vec![
                conv(1, 1, 4, 5), // 4 x 12 x 12
                Stage::Relu,
                Stage::MaxPool2,  // 4 x 6 x 6
                conv(3, 4, 8, 3), // 8 x 4 x 4
                Stage::Relu,
                Stage::MaxPool2,   // 8 x 2 x 2
                conv(5, 8, 10, 2), // dense 32 -> 10
            ],
        )
    }
}

impl Workload for Mnist {
    fn name(&self) -> &str {
        "MNIST"
    }

    fn dispatch(&self, precision: Precision, hook: &mut dyn FaultHook) -> Vec<f64> {
        dispatch_precision!(self, precision, hook)
    }

    fn run_from_site_into(
        &self,
        precision: Precision,
        site: u64,
        fault: ValueFault,
        golden: &[f64],
        out: &mut Vec<f64>,
    ) {
        self.strike(precision, site, fault, golden, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_ten_finite_logits() {
        let m = Mnist::new();
        for p in Precision::ALL {
            let logits = m.run_golden(p);
            assert_eq!(logits.len(), 10);
            assert!(logits.iter().all(|v| v.is_finite()), "{p}: {logits:?}");
        }
    }

    #[test]
    fn classification_is_stable_across_precisions() {
        // Casting weights to lower precision must not change the
        // fault-free classification (the paper reports <2% accuracy loss).
        let m = Mnist::new();
        let d = m.golden_class(Precision::Double);
        assert_eq!(m.golden_class(Precision::Single), d);
        assert_eq!(m.golden_class(Precision::Half), d);
    }

    #[test]
    fn site_count_is_substantial_and_precision_independent() {
        let m = Mnist::new();
        let n = m.site_count(Precision::Single);
        assert!(n > 10_000, "enough fault sites: {n}");
        assert_eq!(n, m.site_count(Precision::Double));
        assert_eq!(n, m.site_count(Precision::Half));
    }

    #[test]
    fn many_faults_are_masked_by_pooling_and_relu() {
        // The paper's FPGA result: CNNs naturally mask a significant
        // fraction of faults. Flip a low mantissa bit at scattered sites
        // and count unchanged outputs.
        let m = Mnist::new();
        let golden = m.run_golden(Precision::Single);
        let sites = m.site_count(Precision::Single);
        let mut masked = 0;
        let trials = 60;
        for t in 0..trials {
            let site = (t * sites) / trials;
            let out = m.run_with_fault(Precision::Single, site, ValueFault::BitFlip(8));
            if out == golden {
                masked += 1;
            }
        }
        assert!(masked > trials / 4, "only {masked}/{trials} masked");
    }

    #[test]
    fn precision_casting_barely_moves_accuracy() {
        // Paper Section 3.1: casting the weights costs < 2% accuracy.
        let m = Mnist::new();
        let half = m.batch_agreement(Precision::Half, Precision::Double, 40);
        let single = m.batch_agreement(Precision::Single, Precision::Double, 40);
        assert!(half >= 0.98, "half agreement {half}");
        assert!(single >= 0.98, "single agreement {single}");
        assert_eq!(
            m.batch_agreement(Precision::Double, Precision::Double, 10),
            1.0
        );
    }

    #[test]
    fn different_digits_produce_different_logits() {
        let a = Mnist::new().with_digit(1).run_golden(Precision::Double);
        let b = Mnist::new().with_digit(7).run_golden(Precision::Double);
        assert_ne!(a, b);
    }
}
