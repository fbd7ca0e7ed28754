//! The one strike executor behind both campaign drivers.
//!
//! A beam exposure and an injection campaign resolve their strikes the
//! same way: draw each strike's site and fault from its own
//! `mix_seed(seed, index)` stream, hand batches of strikes to
//! [`Workload::run_strike_batch`] on scoped worker threads, compare each
//! output against the golden run, and merge the index-tagged
//! observations back into strike order. [`Strikes`] holds that loop
//! once; the drivers differ only in the fault draw after the site draw
//! and in what they record for an SDC, both passed in as closures.
//!
//! Under [`SamplingPlan::Fixed`] every strike of the budget runs in one
//! pass over a single stratum spanning the whole site space. Under
//! [`SamplingPlan::Adaptive`] the [`Planner`] hands out decision rounds
//! over site strata, and each round is one pass of the same executor.
//! Either way, per-strike streams are keyed by the global strike index
//! and observations are merged by it, so thread count and strike batch
//! never change a result (DT001).

use crate::{CampaignError, ValueFault, Workload};
use mpr_metrics::sampling::{Planner, SamplingPlan};
use mpr_obs::{mix_seed, panic_message, CancelToken, Recorder, Timer};
use mpr_softfloat::Precision;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

/// One campaign's strike-execution context: the workload and golden
/// output, the seed the per-strike streams derive from, and the worker
/// geometry.
pub struct Strikes<'a> {
    /// The workload struck.
    pub workload: &'a dyn Workload,
    /// Precision every strike runs at.
    pub precision: Precision,
    /// Exactly `workload.run_golden(precision)`.
    pub golden: &'a [f64],
    /// Campaign seed; strike `i` draws from `mix_seed(seed, i)`.
    pub seed: u64,
    /// Dynamic fault sites of one execution
    /// (`workload.site_count(precision)`).
    pub sites: u64,
    /// Worker threads (capped at the strikes of a pass).
    pub threads: usize,
    /// Strikes handed to [`Workload::run_strike_batch`] per kernel pass.
    pub strike_batch: usize,
    /// Watchdog token, polled at every batch boundary and after every
    /// reported strike.
    pub cancel: &'a CancelToken,
    /// Telemetry sink for the per-worker busy timers.
    pub recorder: &'a dyn Recorder,
    /// Name of the per-worker busy timer (`beam.worker_busy`, ...).
    pub busy_metric: &'static str,
    /// Scope every telemetry event carries.
    pub scope: &'a str,
}

impl std::fmt::Debug for Strikes<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Strikes")
            .field("workload", &self.workload.name())
            .field("precision", &self.precision)
            .field("seed", &self.seed)
            .field("sites", &self.sites)
            .field("threads", &self.threads)
            .field("strike_batch", &self.strike_batch)
            .finish()
    }
}

/// What [`Strikes::resolve`] hands back to a driver.
#[derive(Debug)]
pub struct Resolved<T> {
    /// One observation per SDC, in strike-index order.
    pub observed: Vec<T>,
    /// Summed worker-busy seconds.
    pub busy_s: f64,
    /// Strikes executed, dead ones included: the whole budget under
    /// [`SamplingPlan::Fixed`], fewer once adaptive stopping converges.
    pub executed: u64,
    /// Stratified per-strike SDC rate `sum_h W_h * e_h / n_h`
    /// (adaptive only).
    pub rate: Option<f64>,
}

impl Strikes<'_> {
    /// Resolves up to `budget` strikes under `plan`.
    ///
    /// After the shared site draw, `draw` takes the strike's fault from
    /// the same per-strike stream; `None` marks a strike that executes
    /// but cannot fire (a flip in a dead register), which counts as
    /// executed and masked. `observe` turns each corrupted output into
    /// the driver's SDC record.
    ///
    /// On `Err` all partial work is discarded.
    ///
    /// # Panics
    ///
    /// Panics if the workload exposes no fault sites.
    pub fn resolve<T, D, O>(
        &self,
        plan: SamplingPlan,
        budget: u64,
        draw: D,
        observe: O,
    ) -> Result<Resolved<T>, CampaignError>
    where
        T: Send,
        D: Fn(&mut StdRng) -> Option<ValueFault> + Sync,
        O: Fn(&[f64]) -> T + Sync,
    {
        assert!(self.sites > 0, "workload exposes no fault sites");
        let golden_bits: Vec<u64> = self.golden.iter().map(|v| v.to_bits()).collect();
        let SamplingPlan::Adaptive(config) = plan else {
            // Fixed: one pass over the budget, one stratum spanning every
            // site.
            let whole = (0, self.sites);
            let (observed, busy_s) =
                self.execute(0, budget, |_| whole, &draw, &observe, &golden_bits)?;
            return Ok(Resolved {
                observed: observed.into_iter().map(|(_, o)| o).collect(),
                busy_s,
                executed: budget,
                rate: None,
            });
        };
        // Decision rounds: the planner sees only the merged, index-
        // sorted tallies of completed rounds, never arrival order.
        let mut planner = Planner::new(self.sites, budget, config);
        let bounds = planner.bounds().to_vec();
        let mut observed = Vec::new();
        let mut busy_s = 0.0;
        // Global strike index of the round's slot 0.
        let mut base = 0u64;
        while let Some(schedule) = planner.next_round() {
            if schedule.is_empty() {
                break;
            }
            let slots = schedule.len() as u64;
            let (round, busy) = self.execute(
                base,
                slots,
                // mpr-allow: panic-reachability -- the planner emits schedule entries that index its own bounds table (`schedule[..] < bounds.len()`, `s < slots == schedule.len()`); a violation is a planner bug the sampling unit tests pin, not a recoverable strike failure
                |s| bounds[schedule[s as usize]],
                &draw,
                &observe,
                &golden_bits,
            )?;
            let mut executed_by = vec![0u64; bounds.len()];
            for &h in &schedule {
                // mpr-allow: panic-reachability -- schedule entries index the planner's own bounds table; a violation is a planner bug the sampling unit tests pin
                executed_by[h] += 1;
            }
            let mut events_by = vec![0u64; bounds.len()];
            for &(i, _) in &round {
                // mpr-allow: panic-reachability -- every observation index lies in this round's slot range (`base..base + slots`) by construction
                events_by[schedule[(i - base) as usize]] += 1;
            }
            planner.complete_round(&executed_by, &events_by);
            observed.extend(round.into_iter().map(|(_, o)| o));
            busy_s += busy;
            base += slots;
        }
        Ok(Resolved {
            observed,
            busy_s,
            executed: planner.executed(),
            rate: Some(planner.weighted_rate()),
        })
    }

    /// Runs strikes `base..base + n` on scoped workers, slot `s` drawing
    /// its site from `stratum(s)`. Workers take slots in a thread
    /// stride; each SDC is tagged with its strike index and the merge
    /// sorts on it, so the result is in strike order for any thread
    /// count and batch size. Returns the tagged observations and the
    /// summed worker-busy seconds.
    fn execute<T, D, O>(
        &self,
        base: u64,
        n: u64,
        stratum: impl Fn(u64) -> (u64, u64) + Sync,
        draw: &D,
        observe: &O,
        golden_bits: &[u64],
    ) -> Result<(Vec<(u64, T)>, f64), CampaignError>
    where
        T: Send,
        D: Fn(&mut StdRng) -> Option<ValueFault> + Sync,
        O: Fn(&[f64]) -> T + Sync,
    {
        let threads = self.threads.min(n as usize).max(1);
        // Set by a worker only when it actually bailed out early, so a
        // deadline that expires just after the last strike completes
        // does not spuriously cancel a finished pass.
        let aborted = AtomicBool::new(false);
        let mut partials: Vec<(Vec<(u64, T)>, f64)> = Vec::with_capacity(threads);
        let mut worker_panic: Option<String> = None;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for t in 0..threads {
                let (stratum, aborted) = (&stratum, &aborted);
                handles.push(scope.spawn(move || {
                    let busy = Timer::start(self.recorder, self.busy_metric, self.scope);
                    let mut observed = Vec::new();
                    // Reused across batches: the gathered strikes and
                    // their global indices.
                    let mut batch: Vec<(u64, ValueFault)> = Vec::with_capacity(self.strike_batch);
                    let mut indices: Vec<u64> = Vec::with_capacity(self.strike_batch);
                    let mut s = t as u64;
                    let mut bailed = false;
                    while s < n && !bailed {
                        // Watchdog poll at the batch boundary (and again
                        // inside the execute callback after each strike).
                        if self.cancel.is_cancelled() {
                            bailed = true;
                            break;
                        }
                        // Gather: site first, then the driver's fault
                        // draw, from the strike's own stream. Batching
                        // regroups execution, never the draws.
                        batch.clear();
                        indices.clear();
                        while s < n && batch.len() < self.strike_batch {
                            let i = base + s;
                            let mut rng = StdRng::seed_from_u64(mix_seed(self.seed, i));
                            // An empty stratum (more strata than sites)
                            // degrades to the past-the-end site `lo`,
                            // where no fault fires; the planner never
                            // schedules one, so this is purely defensive.
                            let (lo, len) = stratum(s);
                            let site = if len == 0 {
                                lo
                            } else {
                                lo + rng.gen_range(0..len)
                            };
                            if let Some(fault) = draw(&mut rng) {
                                batch.push((site, fault));
                                indices.push(i);
                            }
                            s += threads as u64;
                        }
                        if batch.is_empty() {
                            continue;
                        }
                        // Execute: one kernel pass over the batch; results
                        // arrive in any order and are keyed back to their
                        // strike index.
                        self.workload.run_strike_batch(
                            self.precision,
                            &batch,
                            self.golden,
                            &mut |b, out| {
                                let corrupted = out.len() != self.golden.len()
                                    || out.iter().zip(golden_bits).any(|(v, &g)| v.to_bits() != g);
                                if corrupted {
                                    // mpr-allow: panic-reachability -- the batch contract keys callbacks by batch position (`b < batch.len() == indices.len()`); an out-of-range `b` is a workload-override bug the differential tests pin, not a recoverable strike failure
                                    observed.push((indices[b], observe(out)));
                                }
                                if self.cancel.is_cancelled() {
                                    bailed = true;
                                    return false;
                                }
                                true
                            },
                        );
                    }
                    if bailed {
                        aborted.store(true, Ordering::Relaxed);
                    }
                    (observed, busy.stop())
                }));
            }
            for h in handles {
                // Every handle is joined even after a panic or abort —
                // the scope never re-raises, and the payload feeds the
                // structured failure path instead of a backtrace.
                match h.join() {
                    Ok(p) => partials.push(p),
                    Err(payload) => worker_panic = Some(panic_message(payload)),
                }
            }
        });
        if let Some(msg) = worker_panic {
            return Err(CampaignError::WorkerPanic(msg));
        }
        if aborted.load(Ordering::Relaxed) {
            return Err(CampaignError::Cancelled);
        }
        let mut busy_s = 0.0;
        let mut observed = Vec::new();
        for (obs, busy) in partials {
            observed.extend(obs);
            busy_s += busy;
        }
        observed.sort_unstable_by_key(|&(i, _)| i);
        Ok((observed, busy_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::testutil::Dot;
    use crate::FaultModel;
    use mpr_metrics::sampling::SamplingConfig;
    use mpr_obs::NULL_RECORDER;

    fn strikes<'a>(
        workload: &'a dyn Workload,
        golden: &'a [f64],
        cancel: &'a CancelToken,
    ) -> Strikes<'a> {
        Strikes {
            workload,
            precision: Precision::Single,
            golden,
            seed: 3,
            sites: workload.site_count(Precision::Single),
            threads: 2,
            strike_batch: 4,
            cancel,
            recorder: &NULL_RECORDER,
            busy_metric: "test.worker_busy",
            scope: "",
        }
    }

    fn resolve(s: &Strikes<'_>, plan: SamplingPlan) -> Result<Resolved<f64>, CampaignError> {
        s.resolve(
            plan,
            64,
            |rng| Some(FaultModel::SingleBit.sample(32, rng)),
            |out| out[0],
        )
    }

    #[test]
    fn worker_panic_and_cancel_are_structured_under_both_plans() {
        #[derive(Debug)]
        struct Exploding;
        impl Workload for Exploding {
            fn name(&self) -> &str {
                "exploding"
            }
            fn dispatch(&self, _p: Precision, _hook: &mut dyn crate::hook::FaultHook) -> Vec<f64> {
                panic!("strike handler exploded")
            }
            fn site_count(&self, _p: Precision) -> u64 {
                8
            }
        }
        let unlimited = CancelToken::unlimited();
        let fired = CancelToken::unlimited();
        fired.cancel();
        let dot = Dot(16);
        let golden = dot.run_golden(Precision::Single);
        for plan in [
            SamplingPlan::Fixed,
            SamplingPlan::Adaptive(SamplingConfig::quick()),
        ] {
            let err = resolve(&strikes(&Exploding, &[0.0], &unlimited), plan)
                .expect_err("an exploding workload must fail the pass");
            assert_eq!(
                err,
                CampaignError::WorkerPanic("strike handler exploded".to_string()),
                "{plan:?}"
            );
            let err = resolve(&strikes(&dot, &golden, &fired), plan)
                .expect_err("a fired token must cancel the pass");
            assert_eq!(err, CampaignError::Cancelled, "{plan:?}");
            assert!(resolve(&strikes(&dot, &golden, &unlimited), plan).is_ok());
        }
    }

    #[test]
    fn dead_strikes_count_as_executed_without_observations() {
        let dot = Dot(16);
        let golden = dot.run_golden(Precision::Single);
        let cancel = CancelToken::unlimited();
        let r = strikes(&dot, &golden, &cancel)
            .resolve(SamplingPlan::Fixed, 50, |_| None, |out| out[0])
            .expect("no strike can fail");
        assert_eq!((r.executed, r.observed.len()), (50, 0));
    }

    #[test]
    #[should_panic(expected = "workload exposes no fault sites")]
    fn zero_site_workload_is_rejected() {
        let dot = Dot(16);
        let golden = dot.run_golden(Precision::Single);
        let cancel = CancelToken::unlimited();
        let mut s = strikes(&dot, &golden, &cancel);
        s.sites = 0;
        let _ = resolve(&s, SamplingPlan::Fixed);
    }
}
