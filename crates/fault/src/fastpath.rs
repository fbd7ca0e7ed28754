//! The fast-path scaffold every workload crate shares: a per-precision
//! cache for generated inputs and replay checkpoints, and the two
//! macros that turn a `run<F, H>` method into the full
//! [`Workload`](crate::Workload) dispatch family.
//!
//! A workload writes its computation once as
//! `fn run<F: FloatExt, H: FaultHook + ?Sized>(&self, hook: &mut H) -> Vec<f64>`
//! and expands [`monomorphic_workload!`](crate::monomorphic_workload)
//! inside its `impl Workload` block. The `dyn` entry point campaigns
//! hold and the monomorphized [`Workload::dispatch_mono`] then share
//! one body, and golden runs and single strikes never pay a virtual
//! call per touch.
//!
//! [`Workload::dispatch_mono`]: crate::Workload::dispatch_mono

use mpr_softfloat::Precision;
use std::sync::OnceLock;

/// One lazily-initialized slot per [`Precision`]: workloads cache their
/// generated inputs (and replay checkpoints) here so a campaign's strike
/// batch stops regenerating them on every strike.
///
/// The cached value is a pure function of the owning workload's
/// configuration, so `Clone` intentionally produces a fresh *empty*
/// cache (re-derivable, and it keeps workloads `Clone` without a
/// `T: Clone` bound).
///
/// # Example
///
/// ```rust
/// use mpr_fault::PrecisionCache;
/// use mpr_softfloat::Precision;
///
/// let cache: PrecisionCache<Vec<u64>> = PrecisionCache::new();
/// let mut builds = 0;
/// for _ in 0..3 {
///     let v = cache.get_or_init(Precision::Half, || {
///         builds += 1;
///         vec![1, 2, 3]
///     });
///     assert_eq!(v.len(), 3);
/// }
/// assert_eq!(builds, 1);
/// ```
pub struct PrecisionCache<T> {
    slots: [OnceLock<T>; 3],
}

impl<T> PrecisionCache<T> {
    /// An empty cache.
    pub const fn new() -> PrecisionCache<T> {
        PrecisionCache {
            slots: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
        }
    }

    /// The cached value for `precision`, computing it on first use.
    pub fn get_or_init(&self, precision: Precision, init: impl FnOnce() -> T) -> &T {
        let slot = match precision {
            Precision::Double => &self.slots[0],
            Precision::Single => &self.slots[1],
            Precision::Half => &self.slots[2],
        };
        slot.get_or_init(init)
    }
}

impl<T> Default for PrecisionCache<T> {
    fn default() -> PrecisionCache<T> {
        PrecisionCache::new()
    }
}

impl<T> Clone for PrecisionCache<T> {
    fn clone(&self) -> PrecisionCache<T> {
        PrecisionCache::new()
    }
}

impl<T> std::fmt::Debug for PrecisionCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().filter(|s| s.get().is_some()).count();
        write!(f, "PrecisionCache({filled}/3 filled)")
    }
}

/// Dispatches a generic `run<F, H>` method on a runtime
/// [`mpr_softfloat::Precision`]. The hook type is inferred at the call
/// site, so the same macro serves the `dyn` campaign boundary and the
/// monomorphized fast path. The expanding crate must depend on
/// `mpr-softfloat`.
#[macro_export]
macro_rules! dispatch_precision {
    ($self:ident, $precision:ident, $hook:expr) => {
        match $precision {
            mpr_softfloat::Precision::Double => $self.run::<f64, _>($hook),
            mpr_softfloat::Precision::Single => $self.run::<f32, _>($hook),
            mpr_softfloat::Precision::Half => $self.run::<mpr_softfloat::Half, _>($hook),
        }
    };
}

/// Generates the [`Workload`](crate::Workload) dispatch family for a
/// workload whose `run` is generic over both the float format and the
/// hook type: the `dyn` entry point campaigns hold, the monomorphized
/// `dispatch_mono`, and static-dispatch overrides of the derived methods
/// (`site_count`, `run_golden`, `run_with_fault`) so golden runs and
/// single strikes never pay a virtual call per touch. Expand inside an
/// `impl Workload for ...` block.
#[macro_export]
macro_rules! monomorphic_workload {
    () => {
        fn dispatch(
            &self,
            precision: mpr_softfloat::Precision,
            // The one virtual dispatch boundary the hook protocol keeps:
            // campaigns hold workloads as trait objects.
            hook: &mut dyn $crate::hook::FaultHook,
        ) -> Vec<f64> {
            $crate::dispatch_precision!(self, precision, hook)
        }

        fn dispatch_mono<H: $crate::hook::FaultHook>(
            &self,
            precision: mpr_softfloat::Precision,
            hook: &mut H,
        ) -> Vec<f64> {
            $crate::dispatch_precision!(self, precision, hook)
        }

        fn site_count(&self, precision: mpr_softfloat::Precision) -> u64 {
            let mut hook = $crate::hook::GoldenHook::new();
            let _ = self.dispatch_mono(precision, &mut hook);
            hook.sites()
        }

        fn run_golden(&self, precision: mpr_softfloat::Precision) -> Vec<f64> {
            self.dispatch_mono(precision, &mut $crate::hook::NullHook)
        }

        fn run_with_fault(
            &self,
            precision: mpr_softfloat::Precision,
            site: u64,
            fault: $crate::ValueFault,
        ) -> Vec<f64> {
            let mut hook = $crate::hook::InjectHook::new(site, fault);
            self.dispatch_mono(precision, &mut hook)
        }
    };
}
