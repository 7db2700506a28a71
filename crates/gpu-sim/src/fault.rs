//! Deterministic fault injection — the failure model of the simulator.
//!
//! Real GPU deployments fail in ways the happy-path cost model never
//! exercises: allocations fail under memory pressure from co-tenants,
//! DMA transfers time out, kernels take the context down. A
//! [`FaultPlan`] installed on a [`crate::Device`] injects exactly those
//! failures at five site classes — allocation, host↔device transfer,
//! device↔device copy, kernel launch, plus the *plan-step* boundary the
//! resilient plan executor consults before interpreting each physical
//! plan step — with an independently configurable probability per site.
//!
//! ## Determinism
//!
//! Every injection decision is a pure function of `(seed, site,
//! per-site draw counter)` — **not** of the virtual clock. Two runs
//! with the same seed and the same operation sequence observe a
//! byte-identical fault schedule and therefore identical simulated
//! timings, even though retries shift the clock. This is what makes
//! resilience experiments reproducible and lets property tests assert
//! schedule equality (see `FaultPlan::schedule`).
//!
//! Decisions are drawn only when the site is actually exercised (e.g.
//! pool hits never reach the allocation fault site, matching real
//! pools that skip the driver), so the schedule is indexed by dynamic
//! occurrence, not by wall position.

use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// The classes of device operation where faults can strike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultSite {
    /// Driver allocations (`cudaMalloc`-level). Injects pressure-induced
    /// [`SimError::OutOfMemory`].
    Alloc,
    /// Host→device transfers. Injects [`SimError::TransferTimeout`].
    HtoD,
    /// Device→host transfers. Injects [`SimError::TransferTimeout`].
    DtoH,
    /// Device→device copies. Injects [`SimError::TransferTimeout`].
    DtoD,
    /// Kernel launches. Injects [`SimError::DeviceLost`].
    Kernel,
    /// Physical-plan step boundaries. Drawn only by the resilient plan
    /// executor, once per step attempt, *before* the step runs — the
    /// plain `PhysicalPlan::execute` path never consults this site, so
    /// its schedule is indexed purely by resilient step attempts.
    /// Injects [`SimError::DeviceLost`] (transient; step retry recovers).
    PlanStep,
}

impl FaultSite {
    /// All sites, in counter-array order.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::Alloc,
        FaultSite::HtoD,
        FaultSite::DtoH,
        FaultSite::DtoD,
        FaultSite::Kernel,
        FaultSite::PlanStep,
    ];

    /// Index into per-site arrays.
    pub fn index(self) -> usize {
        match self {
            FaultSite::Alloc => 0,
            FaultSite::HtoD => 1,
            FaultSite::DtoH => 2,
            FaultSite::DtoD => 3,
            FaultSite::Kernel => 4,
            FaultSite::PlanStep => 5,
        }
    }

    /// Short label for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::Alloc => "alloc",
            FaultSite::HtoD => "htod",
            FaultSite::DtoH => "dtoh",
            FaultSite::DtoD => "dtod",
            FaultSite::Kernel => "kernel",
            FaultSite::PlanStep => "plan-step",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A seeded, per-site fault-probability schedule.
///
/// Install on a device with [`crate::Device::install_fault_plan`]. All
/// probabilities default to 0; a default plan injects nothing and
/// changes no timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of the decision hash. Same seed ⇒ same schedule.
    pub seed: u64,
    /// Per-site fault probability in `[0, 1]`, indexed by
    /// [`FaultSite::index`].
    pub rates: [f64; 6],
}

/// Fraction of currently-available device memory hidden by an injected
/// memory-pressure event. At 1.0 nothing is left: every alloc-site fault
/// fails its allocation outright, except a zero-byte request, which still
/// fits.
pub(crate) const MEM_PRESSURE_SHRINK: f64 = 1.0;

/// Simulated time charged when a fault fires (the detection latency: a
/// timed-out transfer or failed launch is not free).
pub(crate) const FAULT_LATENCY_NS: u64 = 20_000;

impl FaultPlan {
    /// A plan with all rates zero (injects nothing).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0.0; 6],
        }
    }

    /// A plan with the same fault probability at every site.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultSite::ALL
            .into_iter()
            .fold(FaultPlan::new(seed), |plan, site| {
                plan.with_rate(site, rate)
            })
    }

    /// Set the probability for one site (builder style).
    pub fn with_rate(mut self, site: FaultSite, rate: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate out of [0,1]: {rate}"
        );
        self.rates[site.index()] = rate;
        self
    }

    /// Probability configured for `site`.
    pub fn rate(&self, site: FaultSite) -> f64 {
        self.rates[site.index()]
    }

    /// The `k`-th injection decision at `site`: `true` means the fault
    /// fires. Pure — independent of clock, retries, or other sites.
    pub(crate) fn decide(&self, site: FaultSite, k: u64) -> bool {
        let rate = self.rate(site);
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let h = splitmix64(
            self.seed
                ^ splitmix64((site.index() as u64) << 32 | 0xFA01)
                ^ splitmix64(k.wrapping_add(0x5EED)),
        );
        // 53 high bits -> uniform in [0, 1).
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < rate
    }

    /// The first `n` decisions at `site` — the fault *schedule* as a
    /// replayable bit vector. Property tests assert byte equality of
    /// this across runs and plan clones.
    pub fn schedule(&self, site: FaultSite, n: u64) -> Vec<bool> {
        (0..n).map(|k| self.decide(site, k)).collect()
    }
}

/// SplitMix64 finalizer — the same mixer the vendored rand stub uses to
/// expand seeds; statistically strong enough for Bernoulli thresholds.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Installed plan plus the per-site draw counters (device-internal).
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    pub(crate) plan: FaultPlan,
    pub(crate) counters: [u64; 6],
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> FaultState {
        FaultState {
            plan,
            counters: [0; 6],
        }
    }

    /// Draw the next decision at `site`, advancing its counter.
    pub(crate) fn draw(&mut self, site: FaultSite) -> bool {
        let k = self.counters[site.index()];
        self.counters[site.index()] += 1;
        self.plan.decide(site, k)
    }
}

/// Build the error a fired fault surfaces at `site`.
///
/// `requested` is the allocation/transfer size in bytes (ignored for
/// kernels); `available` is the device memory currently free (used only
/// by the alloc site); `label` names the kernel for `DeviceLost`.
/// Returns `None` when a fired alloc fault is absorbed because the
/// request still fits under the shrunken memory ([`MEM_PRESSURE_SHRINK`]).
pub(crate) fn fault_error(
    site: FaultSite,
    label: &str,
    requested: u64,
    available: u64,
) -> Option<SimError> {
    match site {
        FaultSite::Alloc => {
            let effective = (available as f64 * (1.0 - MEM_PRESSURE_SHRINK)) as u64;
            if requested <= effective {
                return None;
            }
            Some(SimError::OutOfMemory {
                requested,
                available: effective,
            })
        }
        FaultSite::HtoD | FaultSite::DtoH | FaultSite::DtoD => {
            Some(SimError::TransferTimeout { bytes: requested })
        }
        FaultSite::Kernel | FaultSite::PlanStep => Some(SimError::DeviceLost(label.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires_and_full_rate_always_fires() {
        let plan = FaultPlan::new(1);
        assert!(plan.schedule(FaultSite::Kernel, 1000).iter().all(|&b| !b));
        let plan = FaultPlan::uniform(1, 1.0);
        assert!(plan.schedule(FaultSite::HtoD, 1000).iter().all(|&b| b));
    }

    #[test]
    fn same_seed_same_schedule_distinct_seed_diverges() {
        let a = FaultPlan::uniform(42, 0.1);
        let b = FaultPlan::uniform(42, 0.1);
        let c = FaultPlan::uniform(43, 0.1);
        for site in FaultSite::ALL {
            assert_eq!(a.schedule(site, 4096), b.schedule(site, 4096));
        }
        assert_ne!(
            a.schedule(FaultSite::Kernel, 4096),
            c.schedule(FaultSite::Kernel, 4096)
        );
    }

    #[test]
    fn sites_draw_independent_schedules() {
        let plan = FaultPlan::uniform(7, 0.5);
        assert_ne!(
            plan.schedule(FaultSite::Alloc, 256),
            plan.schedule(FaultSite::Kernel, 256)
        );
    }

    #[test]
    fn empirical_rate_tracks_configured_rate() {
        let plan = FaultPlan::uniform(99, 0.05);
        let n = 100_000;
        let fires = plan
            .schedule(FaultSite::DtoH, n)
            .iter()
            .filter(|&&b| b)
            .count();
        let frac = fires as f64 / n as f64;
        assert!((frac - 0.05).abs() < 0.005, "empirical rate {frac}");
    }

    #[test]
    fn alloc_faults_respect_pressure_shrink() {
        // The pressure hides all free memory: only a zero-byte request
        // still fits, so that fault is absorbed.
        assert_eq!(fault_error(FaultSite::Alloc, "", 0, 1000), None);
        // Any other request fails, reporting the shrunken (empty) view.
        for requested in [1, 100, 1000, 5000] {
            assert_eq!(
                fault_error(FaultSite::Alloc, "", requested, 1000),
                Some(SimError::OutOfMemory {
                    requested,
                    available: 0
                })
            );
        }
    }

    #[test]
    fn error_shapes_per_site() {
        assert!(matches!(
            fault_error(FaultSite::HtoD, "", 64, 0),
            Some(SimError::TransferTimeout { bytes: 64 })
        ));
        assert!(matches!(
            fault_error(FaultSite::Kernel, "scan", 0, 0),
            Some(SimError::DeviceLost(k)) if k == "scan"
        ));
        assert!(matches!(
            fault_error(FaultSite::PlanStep, "Q1 step 3", 0, 0),
            Some(SimError::DeviceLost(k)) if k == "Q1 step 3"
        ));
    }

    #[test]
    fn plan_step_site_draws_its_own_schedule() {
        let plan = FaultPlan::uniform(11, 0.5);
        assert_eq!(plan.rate(FaultSite::PlanStep), 0.5);
        assert_ne!(
            plan.schedule(FaultSite::PlanStep, 256),
            plan.schedule(FaultSite::Kernel, 256)
        );
        // Targeted plans can strike only plan steps.
        let only = FaultPlan::new(11).with_rate(FaultSite::PlanStep, 1.0);
        assert!(only.schedule(FaultSite::Kernel, 64).iter().all(|&b| !b));
        assert!(only.schedule(FaultSite::PlanStep, 64).iter().all(|&b| b));
    }

    #[test]
    fn draw_counter_advances_per_site_only() {
        let mut st = FaultState::new(FaultPlan::uniform(3, 0.5));
        let first_kernel = st.plan.decide(FaultSite::Kernel, 0);
        assert_eq!(st.draw(FaultSite::Kernel), first_kernel);
        assert_eq!(st.counters[FaultSite::Kernel.index()], 1);
        assert_eq!(st.counters[FaultSite::Alloc.index()], 0);
    }
}
