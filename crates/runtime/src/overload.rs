//! Adaptive overload control: a queue-delay-driven shed controller.
//!
//! The runtime's one shed trigger. A fixed in-flight line would be
//! simpler, but the right line depends on worker count, task grain and
//! offered mix; the controller here measures what the SLO actually cares
//! about: the delay between a task's admission and its first dispatch
//! (`RuntimeConfig::shed_delay_budget`). When the smoothed
//! delay crosses the configured budget the runtime starts shedding
//! sheddable (BestEffort) admissions; when it falls back below half the
//! budget, shedding disengages. The hysteresis gap keeps the controller
//! from flapping at the boundary.
//!
//! State machine:
//!
//! ```text
//!             ewma > budget
//!   Open  ────────────────────►  Shedding
//!     ▲                             │
//!     └─────────────────────────────┘
//!             ewma < budget / 2
//! ```
//!
//! All state is a pair of atomics — `observe` is called from worker
//! threads at task dispatch and must stay cheap (one load, a shift, a
//! store; no CAS loop, because the EWMA tolerates lost updates).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// EWMA smoothing: `new = old - old/2^SHIFT + sample/2^SHIFT`
/// (α = 1/8 — a few dozen samples to converge, so one straggler does
/// not flip the controller).
const EWMA_SHIFT: u32 = 3;

/// Queue-delay-driven admission shed controller (see module docs).
pub struct ShedController {
    /// Engage shedding when the smoothed queue delay exceeds this.
    budget_ns: u64,
    /// Disengage when it falls below this (budget / 2).
    recover_ns: u64,
    ewma_ns: AtomicU64,
    shedding: AtomicBool,
    /// Open -> Shedding transitions.
    engaged: AtomicU64,
    /// Shedding -> Open transitions.
    recovered: AtomicU64,
}

impl ShedController {
    pub fn new(budget: Duration) -> Self {
        let budget_ns = (budget.as_nanos() as u64).max(1);
        ShedController {
            budget_ns,
            recover_ns: budget_ns / 2,
            ewma_ns: AtomicU64::new(0),
            shedding: AtomicBool::new(false),
            engaged: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
        }
    }

    /// Feed one admission→first-dispatch delay sample and update the
    /// shed state. Racy by design: concurrent observers may lose each
    /// other's EWMA update, which only slows convergence.
    pub fn observe(&self, sample_ns: u64) {
        let old = self.ewma_ns.load(Ordering::Relaxed);
        let new = old - (old >> EWMA_SHIFT) + (sample_ns >> EWMA_SHIFT);
        self.ewma_ns.store(new, Ordering::Relaxed);
        if new > self.budget_ns {
            if !self.shedding.swap(true, Ordering::Relaxed) {
                self.engaged.fetch_add(1, Ordering::Relaxed);
            }
        } else if new < self.recover_ns && self.shedding.swap(false, Ordering::Relaxed) {
            self.recovered.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Should a sheddable admission be refused right now?
    #[inline]
    pub fn should_shed(&self) -> bool {
        self.shedding.load(Ordering::Relaxed)
    }

    /// Current smoothed queue delay.
    pub fn queue_delay(&self) -> Duration {
        Duration::from_nanos(self.ewma_ns.load(Ordering::Relaxed))
    }

    /// `(engage transitions, recover transitions)`.
    pub fn transitions(&self) -> (u64, u64) {
        (
            self.engaged.load(Ordering::Relaxed),
            self.recovered.load(Ordering::Relaxed),
        )
    }

    /// Point-in-time controller state, for the telemetry plane.
    pub fn snapshot(&self) -> ShedSnapshot {
        let (engaged, recovered) = self.transitions();
        ShedSnapshot {
            engaged: self.should_shed(),
            smoothed_delay: self.queue_delay(),
            engage_transitions: engaged,
            recover_transitions: recovered,
        }
    }
}

/// A copy of the shed controller's state at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShedSnapshot {
    /// Whether sheddable admissions are currently refused.
    pub engaged: bool,
    /// The smoothed admission→dispatch delay driving the decision.
    pub smoothed_delay: Duration,
    pub engage_transitions: u64,
    pub recover_transitions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_open_under_light_delay() {
        let c = ShedController::new(Duration::from_millis(1));
        for _ in 0..100 {
            c.observe(10_000); // 10µs, well under the 1ms budget
        }
        assert!(!c.should_shed());
        assert_eq!(c.transitions(), (0, 0));
    }

    #[test]
    fn engages_when_the_smoothed_delay_crosses_the_budget() {
        let c = ShedController::new(Duration::from_millis(1));
        for _ in 0..64 {
            c.observe(5_000_000); // 5ms samples
        }
        assert!(c.should_shed());
        assert_eq!(c.transitions().0, 1);
        assert!(c.queue_delay() > Duration::from_millis(1));
    }

    #[test]
    fn recovers_hysteretically_below_half_budget() {
        let c = ShedController::new(Duration::from_millis(1));
        for _ in 0..64 {
            c.observe(5_000_000);
        }
        assert!(c.should_shed());
        // Samples between budget/2 and budget must NOT recover...
        for _ in 0..64 {
            c.observe(800_000); // 0.8ms: above the 0.5ms recover line
        }
        assert!(c.should_shed(), "hysteresis holds inside the gap");
        // ...but samples well below budget/2 must.
        for _ in 0..64 {
            c.observe(1_000);
        }
        assert!(!c.should_shed());
        assert_eq!(c.transitions(), (1, 1));
    }

    #[test]
    fn one_straggler_does_not_flip_the_controller() {
        let c = ShedController::new(Duration::from_millis(1));
        for _ in 0..32 {
            c.observe(1_000);
        }
        // One 5ms outlier moves the EWMA by 5ms/8 ≈ 0.6ms — under the
        // 1ms budget. (An outlier ≥ 8× the budget *would* engage in one
        // step; that is deliberate — a colossal delay is not noise.)
        c.observe(5_000_000);
        assert!(!c.should_shed(), "one sub-8x sample cannot cross the EWMA");
    }
}
