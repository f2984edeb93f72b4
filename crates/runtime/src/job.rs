//! The multi-tenant job layer: per-job fault domains over one runtime.
//!
//! A long-lived [`crate::Runtime`] absorbs many workloads at once. Each
//! workload is a *job*: submitted via `Runtime::submit(JobSpec)`, it owns
//! its own **fault domain** — a private retry policy, fault-injection
//! plan, observer session, failure list and poisoned-region set — so one
//! misbehaving tenant can neither poison nor starve another. Isolation is
//! carried through the lock-free slab/deque hot path by tagging each
//! submitted job's task slots with an `Arc<JobState>` (an untagged slot
//! belongs to the default job) and namespacing the dependency
//! tracker with the generation-counted [`JobId`] (see `deps.rs`): two
//! jobs touching the same [`crate::Region`] neither serialise nor
//! exchange poison.
//!
//! On top of isolation sits the service-robustness layer:
//!
//! * **admission control** — bounded in-flight tasks per job
//!   ([`JobSpec::max_in_flight`]) and globally
//!   (`RuntimeConfig::max_in_flight`): `TaskBuilder::try_spawn` returns
//!   [`AdmissionError::Busy`] at the cap, `spawn` blocks until capacity
//!   frees up;
//! * **load shedding** — [`crate::QosClass::BestEffort`] jobs drop tasks
//!   while the smoothed queue delay exceeds
//!   `RuntimeConfig::shed_delay_budget`, protecting guaranteed tenants;
//! * **graceful lifecycle** — `Runtime::drain(timeout)` walks the
//!   Running → Draining → Drained state machine: stop admitting jobs,
//!   let in-flight work finish, cancel what remains, and force worker
//!   shutdown only if the deadline is about to pass.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::fault::{FaultPlan, FaultReport, RetryPolicy, TaskFailure};
use crate::region::Region;
use crate::scheduler::QosClass;
use crate::stats::{Striped64, StripedGauge, JOB_COUNTER_STRIPES};

/// Per-job monotonic counter: fewer stripes than the runtime-global
/// counters, so short-lived (per-request) jobs stay cheap to allocate.
type JobCounter = Striped64<JOB_COUNTER_STRIPES>;
type JobGauge = StripedGauge<JOB_COUNTER_STRIPES>;
use crate::task::TaskId;
use crate::trace::TraceSession;

/// Generation-counted job identifier: `index` addresses a slot in the
/// runtime's job table, `gen` disambiguates reuse of that slot — a stale
/// `JobId` held after its job retired can never alias a later tenant.
/// `key()` is the 64-bit value used to namespace dependency-tracker
/// state.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId {
    pub index: u32,
    pub gen: u32,
}

impl JobId {
    /// The implicit job behind `Runtime::task` / `Runtime::try_taskwait`.
    pub const DEFAULT: JobId = JobId { index: 0, gen: 0 };

    /// The dependency-namespace key: unique across slot reuse.
    pub fn key(&self) -> u64 {
        ((self.index as u64) << 32) | self.gen as u64
    }
}

impl fmt::Debug for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}.{}", self.index, self.gen)
    }
}

/// Parameters of a job submission. Everything is optional: a default
/// spec inherits the runtime's retry policy, fault plan and observer,
/// runs at [`QosClass::Guaranteed`] and has no per-job in-flight cap.
#[derive(Clone, Default)]
pub struct JobSpec {
    /// Human-readable job label (diagnostics and failure reports).
    pub label: String,
    /// Quality-of-service class (admission + scheduling; see
    /// [`QosClass`]).
    pub qos: QosClass,
    /// Per-job retry policy; `None` inherits the runtime's.
    pub retry: Option<RetryPolicy>,
    /// Per-job fault-injection plan applied to this job's task attempts;
    /// `None` inherits the runtime's. Worker kills remain pool-scoped —
    /// a per-job plan's `kill_worker` entries never fire.
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Per-job execution observer; `None` inherits the runtime's.
    pub observer: Option<Arc<dyn crate::runtime::TaskObserver>>,
    /// Cap on this job's in-flight (admitted, unsettled) tasks.
    pub max_in_flight: Option<usize>,
    /// Relative completion deadline, measured from submission. For
    /// [`QosClass::Guaranteed`] jobs the deadline drives EDF scheduling
    /// (near-deadline tasks jump the ready backlog); for
    /// [`QosClass::BestEffort`] jobs the runtime's deadline reaper
    /// cancels the job once the deadline passes — remaining tasks settle
    /// as recorded skips and the miss shows in [`JobMetrics`].
    pub deadline: Option<Duration>,
    /// Expected per-task runtime hint in nanoseconds. Consumed by the
    /// straggler detector: a task is only hedged once it has run for
    /// `max(soft_timeout, 4 * cost_hint)`.
    pub cost_hint: Option<u64>,
}

impl JobSpec {
    pub fn new(label: impl Into<String>) -> Self {
        JobSpec {
            label: label.into(),
            ..Default::default()
        }
    }

    /// Builder-style QoS class.
    pub fn qos(mut self, qos: QosClass) -> Self {
        self.qos = qos;
        self
    }

    /// Builder-style per-job retry policy.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = Some(retry);
        self
    }

    /// Builder-style per-job fault-injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Builder-style per-job observer.
    pub fn observer(mut self, obs: Arc<dyn crate::runtime::TaskObserver>) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Builder-style per-job in-flight task cap (>= 1).
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "a zero cap would admit nothing");
        self.max_in_flight = Some(cap);
        self
    }

    /// Builder-style relative completion deadline (from submission).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Builder-style expected per-task runtime hint (nanoseconds).
    pub fn cost_hint(mut self, ns: u64) -> Self {
        self.cost_hint = Some(ns);
        self
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("label", &self.label)
            .field("qos", &self.qos)
            .field("retry", &self.retry)
            .field("fault_plan", &self.fault_plan.is_some())
            .field("observer", &self.observer.is_some())
            .field("max_in_flight", &self.max_in_flight)
            .field("deadline", &self.deadline)
            .field("cost_hint", &self.cost_hint)
            .finish()
    }
}

/// Why a submission (of a job, or of a task into a job) was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// An in-flight cap (per-job or global) or the job-count cap is
    /// reached. Retry later, or use the blocking `spawn`.
    Busy,
    /// A best-effort task was load-shed by the overload controller.
    Shed,
    /// The runtime is draining (or drained): no new work is admitted.
    Draining,
    /// The target job was cancelled.
    Cancelled,
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Busy => f.write_str("admission cap reached"),
            AdmissionError::Shed => f.write_str("best-effort task shed under load"),
            AdmissionError::Draining => f.write_str("runtime is draining"),
            AdmissionError::Cancelled => f.write_str("job was cancelled"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// What `Runtime::drain` accomplished within its timeout.
#[derive(Clone, Copy, Debug)]
pub struct DrainReport {
    /// In-flight work did not quiesce before the deadline.
    pub timed_out: bool,
    /// The pool was shut down with work still in flight (phase 3).
    pub forced: bool,
    /// Jobs cancelled by the drain (phase 2).
    pub cancelled_jobs: usize,
    /// Outstanding tasks at exit (non-zero only when forced).
    pub outstanding_at_exit: u64,
    /// Wall-clock time the drain took.
    pub elapsed: Duration,
}

impl DrainReport {
    /// True when every task finished gracefully: nothing was cancelled
    /// or abandoned.
    pub fn clean(&self) -> bool {
        !self.timed_out && !self.forced && self.cancelled_jobs == 0
    }
}

/// Per-job counters, snapshotted by `JobHandle::job_stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Tasks admitted into this job.
    pub spawned: u64,
    /// Tasks settled (success or failure).
    pub completed: u64,
    /// Tasks settled as failed (panicked, poisoned or cancelled).
    pub failed: u64,
    /// Tasks currently admitted but not settled.
    pub in_flight: u64,
    /// High-water mark of `in_flight` (admission-cap diagnostics).
    pub in_flight_hwm: u64,
}

/// Serving-oriented per-job snapshot, from `JobHandle::metrics`. Where
/// [`JobStats`] counts raw admissions, this derives the quantities an
/// SLO dashboard wants: queue depth, run depth, shed volume and
/// admission queue delay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobMetrics {
    /// Admitted tasks not yet dispatched to a worker.
    pub queued: u64,
    /// Tasks dispatched at least once and not yet settled.
    pub running: u64,
    /// Tasks settled (success or failure).
    pub completed: u64,
    /// Tasks settled as failed (panicked, poisoned or cancelled).
    pub failed: u64,
    /// Admissions refused by load shedding.
    pub shed: u64,
    /// Tasks admitted into the job.
    pub spawned: u64,
    /// Mean admission→first-dispatch delay over dispatched tasks.
    pub queue_delay_avg: Duration,
    /// Worst admission→first-dispatch delay seen.
    pub queue_delay_max: Duration,
    /// Median admission→first-dispatch delay, from the telemetry
    /// plane's per-job log-bucketed histogram (bucket upper bound;
    /// zero when telemetry is disabled).
    pub queue_delay_p50: Duration,
    /// 99th-percentile admission→first-dispatch delay (telemetry only).
    pub queue_delay_p99: Duration,
    /// Median task body execution time (telemetry only).
    pub body_p50: Duration,
    /// 99th-percentile task body execution time (telemetry only).
    pub body_p99: Duration,
    /// The job blew its [`JobSpec::deadline`] (best-effort jobs are
    /// reaped when this happens; guaranteed jobs only get the mark).
    pub deadline_missed: bool,
}

/// A region range contaminated by a failed writer (scoped to one job's
/// fault domain).
#[derive(Clone)]
pub(crate) struct PoisonedRegion {
    pub(crate) region: Region,
    pub(crate) source: TaskId,
    pub(crate) source_label: String,
}

/// Remove `w` from the poison list (a task overwrites the range, making
/// its previous contents irrelevant). Partial overlaps leave the
/// uncovered remainder poisoned.
pub(crate) fn cleanse(poisoned: &mut Vec<PoisonedRegion>, w: &Region) {
    let mut i = 0;
    while i < poisoned.len() {
        if !poisoned[i].region.overlaps(w) {
            i += 1;
            continue;
        }
        let entry = poisoned.swap_remove(i);
        // Remainders lie outside `w`, so they can never match it again
        // when the scan reaches them.
        if entry.region.range.start < w.range.start {
            let mut left = entry.clone();
            left.region.range.end = w.range.start;
            poisoned.push(left);
        }
        if entry.region.range.end > w.range.end {
            let mut right = entry;
            right.region.range.start = w.range.end;
            poisoned.push(right);
        }
        // Do not advance: swap_remove moved a new element into slot `i`.
    }
}

/// One job's shared state: its fault domain (retry policy, fault plan,
/// failures, poison) plus the admission/join accounting. A submitted
/// job's tasks hold an `Arc` to it through their slab slot, so the state
/// outlives the handle while work is in flight; the default job lives as
/// long as the runtime and its tasks just borrow it.
pub(crate) struct JobState {
    pub(crate) id: JobId,
    pub(crate) label: String,
    pub(crate) qos: QosClass,
    pub(crate) retry: RetryPolicy,
    /// Injection plan for this job's task attempts (worker kills stay
    /// pool-scoped).
    pub(crate) fault_plan: Option<Arc<FaultPlan>>,
    /// Tracer + per-job observer fan-out, borrowed by the run hook around
    /// each of this job's task bodies.
    pub(crate) session: Arc<TraceSession>,
    pub(crate) max_in_flight: Option<usize>,
    /// Absolute completion deadline, fixed at submission; `None` when
    /// the spec carried none.
    pub(crate) deadline_at: Option<Instant>,
    /// Expected per-task runtime hint in ns (0 = no hint).
    pub(crate) cost_hint: u64,
    /// Admitted, unsettled tasks. Striped: settling a task touches only
    /// a local line. Joiners poll the sum on a bounded wait (see
    /// `Runtime::wait_job`); capped jobs additionally keep `reserved`
    /// exact for the cap check and its eager 1→0 wakeup.
    pub(crate) in_flight: JobGauge,
    /// Exact reservation counter, maintained only when `max_in_flight`
    /// is set: a cap is inherently one shared number, so capped jobs pay
    /// the RMW that uncapped jobs no longer do.
    pub(crate) reserved: AtomicU64,
    /// High-water mark of in-flight tasks: exact for capped jobs
    /// (maintained at reservation), sampled lazily at `stats()` reads
    /// for uncapped ones.
    pub(crate) in_flight_hwm: AtomicU64,
    pub(crate) spawned: JobCounter,
    pub(crate) completed: JobCounter,
    pub(crate) failed: AtomicU64,
    /// Tasks dispatched to a worker at least once (first attempt only).
    pub(crate) dispatched: JobCounter,
    /// Admissions refused by load shedding.
    pub(crate) shed: AtomicU64,
    /// Sum / max of admission→first-dispatch delays, in ns.
    pub(crate) queue_delay_ns_sum: JobCounter,
    pub(crate) queue_delay_ns_max: AtomicU64,
    /// Set by the deadline reaper (or metrics path) once `deadline_at`
    /// passed before the job finished.
    pub(crate) deadline_missed: AtomicBool,
    pub(crate) cancelled: AtomicBool,
    pub(crate) wait: Mutex<()>,
    pub(crate) wait_cv: Condvar,
    /// Failures settled since the last `take_report`.
    pub(crate) failures: Mutex<Vec<TaskFailure>>,
    /// Monotonic fast-path flag for this job's poison state.
    pub(crate) has_poison: AtomicBool,
    pub(crate) poisoned: Mutex<Vec<PoisonedRegion>>,
    /// Submission time, for the telemetry plane's job end-to-end
    /// histogram.
    pub(crate) created_at: Instant,
    /// First-quiescence latch: the e2e sample is recorded once, when
    /// the job's in-flight count first returns to zero.
    pub(crate) e2e_recorded: AtomicBool,
    /// Per-tenant histograms, allocated only when the runtime's
    /// telemetry plane is on.
    pub(crate) telemetry: Option<Arc<crate::telemetry::JobTelemetry>>,
    /// Online criticality: the longest bottom level seen in this job's
    /// TDG (its own, as its dependency namespace is). The default job's
    /// restarts whenever `try_taskwait` finds the runtime quiescent.
    pub(crate) max_bl: AtomicU64,
}

impl JobState {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: JobId,
        label: String,
        qos: QosClass,
        retry: RetryPolicy,
        fault_plan: Option<Arc<FaultPlan>>,
        session: Arc<TraceSession>,
        max_in_flight: Option<usize>,
        deadline_at: Option<Instant>,
        cost_hint: u64,
        telemetry: Option<Arc<crate::telemetry::JobTelemetry>>,
    ) -> Self {
        JobState {
            id,
            label,
            qos,
            retry,
            fault_plan,
            session,
            max_in_flight,
            deadline_at,
            cost_hint,
            in_flight: JobGauge::default(),
            reserved: AtomicU64::new(0),
            in_flight_hwm: AtomicU64::new(0),
            spawned: JobCounter::default(),
            completed: JobCounter::default(),
            failed: AtomicU64::new(0),
            dispatched: JobCounter::default(),
            shed: AtomicU64::new(0),
            queue_delay_ns_sum: JobCounter::default(),
            queue_delay_ns_max: AtomicU64::new(0),
            deadline_missed: AtomicBool::new(false),
            cancelled: AtomicBool::new(false),
            wait: Mutex::new(()),
            wait_cv: Condvar::new(),
            failures: Mutex::new(Vec::new()),
            has_poison: AtomicBool::new(false),
            poisoned: Mutex::new(Vec::new()),
            created_at: Instant::now(),
            e2e_recorded: AtomicBool::new(false),
            telemetry,
            max_bl: AtomicU64::new(0),
        }
    }

    /// Raise `max_bl` to `bl`; spawners that raise nothing only read it.
    pub(crate) fn raise_max_bl(&self, bl: u64) {
        if bl > self.max_bl.load(Ordering::Relaxed) {
            self.max_bl.fetch_max(bl, Ordering::Relaxed);
        }
    }

    /// The implicit root fault domain behind `Runtime::task`. It has no
    /// handle, so its per-job counters are unobservable and the spawn
    /// path skips them (failure and poison bookkeeping still applies).
    pub(crate) fn is_default(&self) -> bool {
        self.id.index == 0
    }

    /// Mark the job cancelled. Returns true on the first call only.
    pub(crate) fn cancel(&self) -> bool {
        !self.cancelled.swap(true, Ordering::SeqCst)
    }

    /// Current admitted-but-unsettled count (striped sum; see
    /// [`crate::stats::StripedGauge`] for the no-false-zero guarantee
    /// joiners rely on).
    pub(crate) fn in_flight(&self) -> u64 {
        self.in_flight.read()
    }

    /// Release one in-flight slot (task settled, or an admission
    /// reservation rolled back). Uncapped jobs touch only a local
    /// stripe — joiners poll on a bounded wait; capped jobs also release
    /// the exact reservation counter, whose 1→0 edge still gives their
    /// joiners an eager wakeup.
    pub(crate) fn release_in_flight(&self) {
        self.release_in_flight_many(1);
    }

    /// [`JobState::release_in_flight`] for `n` slots at once (a refused
    /// batch reservation rolling back).
    pub(crate) fn release_in_flight_many(&self, n: u64) {
        self.in_flight.dec(n);
        if self.max_in_flight.is_some() && self.reserved.fetch_sub(n, Ordering::SeqCst) == n {
            let _g = self.wait.lock();
            self.wait_cv.notify_all();
        }
    }

    /// Drain this job's failure list into a report carrying a snapshot
    /// of every region range still poisoned in its domain.
    pub(crate) fn take_report(&self) -> Result<(), FaultReport> {
        let failures: Vec<TaskFailure> = std::mem::take(&mut *self.failures.lock());
        if failures.is_empty() {
            Ok(())
        } else {
            let poisoned_regions: Vec<Region> =
                self.poisoned.lock().iter().map(|p| p.region).collect();
            Err(FaultReport {
                failures,
                poisoned_regions,
            })
        }
    }

    pub(crate) fn stats(&self) -> JobStats {
        let in_flight = self.in_flight.read();
        // Uncapped jobs have no reservation path maintaining the mark;
        // sample it here so it at least tracks observed peaks.
        if self.max_in_flight.is_none() {
            self.in_flight_hwm.fetch_max(in_flight, Ordering::Relaxed);
        }
        JobStats {
            spawned: self.spawned.sum(),
            completed: self.completed.sum(),
            failed: self.failed.load(Ordering::Relaxed),
            in_flight,
            in_flight_hwm: self.in_flight_hwm.load(Ordering::Relaxed),
        }
    }

    /// Record one admission→first-dispatch delay sample.
    pub(crate) fn record_queue_delay(&self, ns: u64) {
        self.dispatched.add(1);
        self.queue_delay_ns_sum.add(ns);
        self.queue_delay_ns_max.fetch_max(ns, Ordering::Relaxed);
        if let Some(t) = &self.telemetry {
            t.record_queue_delay(ns);
        }
    }

    pub(crate) fn metrics(&self) -> JobMetrics {
        let spawned = self.spawned.sum();
        let completed = self.completed.sum();
        let dispatched = self.dispatched.sum();
        let avg = self
            .queue_delay_ns_sum
            .sum()
            .checked_div(dispatched)
            .unwrap_or(0);
        // Quantiles come from the telemetry plane's per-job histograms;
        // without the plane they read zero (avg/max stay authoritative).
        let (qd, body) = match &self.telemetry {
            Some(t) => t.snapshots(),
            None => Default::default(),
        };
        JobMetrics {
            // Every settle passes through a worker's run hook, which
            // samples first (cancel-skips included), so dispatched sits
            // between completed and spawned and the differences are the
            // queue and run depths.
            queued: spawned.saturating_sub(dispatched),
            running: dispatched.saturating_sub(completed),
            completed,
            failed: self.failed.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            spawned,
            queue_delay_avg: Duration::from_nanos(avg),
            queue_delay_max: Duration::from_nanos(self.queue_delay_ns_max.load(Ordering::Relaxed)),
            queue_delay_p50: Duration::from_nanos(qd.p50()),
            queue_delay_p99: Duration::from_nanos(qd.p99()),
            body_p50: Duration::from_nanos(body.p50()),
            body_p99: Duration::from_nanos(body.p99()),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed)
                || self
                    .deadline_at
                    .is_some_and(|d| Instant::now() > d && completed < spawned),
        }
    }
}

/// The runtime's job table: index 0 is the default job (never removed),
/// later indices are reused through a free list with a per-index
/// generation counter — the same staleness scheme as the task slab.
pub(crate) struct JobTable {
    entries: Vec<JobEntry>,
    free: Vec<u32>,
}

struct JobEntry {
    gen: u32,
    job: Option<Arc<JobState>>,
}

impl JobTable {
    pub(crate) fn new(default_job: Arc<JobState>) -> Self {
        JobTable {
            entries: vec![JobEntry {
                gen: 0,
                job: Some(default_job),
            }],
            free: Vec::new(),
        }
    }

    /// Live jobs beyond the default one.
    pub(crate) fn submitted_count(&self) -> usize {
        self.entries[1..].iter().filter(|e| e.job.is_some()).count()
    }

    /// Allocate a slot and install the job built for its id.
    pub(crate) fn insert(&mut self, make: impl FnOnce(JobId) -> Arc<JobState>) -> Arc<JobState> {
        let index = self.free.pop().unwrap_or_else(|| {
            self.entries.push(JobEntry { gen: 0, job: None });
            (self.entries.len() - 1) as u32
        });
        let entry = &mut self.entries[index as usize];
        debug_assert!(entry.job.is_none(), "insert must take a free slot");
        let job = make(JobId {
            index,
            gen: entry.gen,
        });
        entry.job = Some(Arc::clone(&job));
        job
    }

    /// Retire a job's slot (generation bump makes stale ids observable).
    /// The default job (index 0) is never removed.
    pub(crate) fn remove(&mut self, id: JobId) {
        if id.index == 0 {
            return;
        }
        let entry = &mut self.entries[id.index as usize];
        if entry.gen == id.gen && entry.job.is_some() {
            entry.job = None;
            entry.gen += 1;
            self.free.push(id.index);
        }
    }

    /// Snapshot of every live job, default included.
    pub(crate) fn live(&self) -> Vec<Arc<JobState>> {
        self.entries.iter().filter_map(|e| e.job.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{RegionId, RegionRange};

    fn state(id: JobId) -> Arc<JobState> {
        Arc::new(JobState::new(
            id,
            "t".into(),
            QosClass::Guaranteed,
            RetryPolicy::default(),
            None,
            Arc::new(TraceSession::new(None, None)),
            None,
            None,
            0,
            None,
        ))
    }

    #[test]
    fn job_id_key_and_debug() {
        let id = JobId { index: 3, gen: 2 };
        assert_eq!(id.key(), (3u64 << 32) | 2);
        assert_eq!(format!("{id:?}"), "j3.2");
        assert_eq!(JobId::DEFAULT.key(), 0);
    }

    #[test]
    fn table_reuses_slots_with_generation_bump() {
        let mut t = JobTable::new(state(JobId::DEFAULT));
        let a = t.insert(state);
        assert_eq!(a.id, JobId { index: 1, gen: 0 });
        assert_eq!(t.submitted_count(), 1);
        t.remove(a.id);
        assert_eq!(t.submitted_count(), 0);
        let b = t.insert(state);
        assert_eq!(b.id, JobId { index: 1, gen: 1 }, "slot reused, gen bumped");
        assert_ne!(a.id.key(), b.id.key());
        // Stale removal is a no-op.
        t.remove(a.id);
        assert_eq!(t.submitted_count(), 1);
        // The default job can never be removed.
        t.remove(JobId::DEFAULT);
        assert_eq!(t.live().len(), 2);
    }

    #[test]
    fn cancel_fires_once() {
        let j = state(JobId::DEFAULT);
        assert!(j.cancel());
        assert!(!j.cancel(), "second cancel reports already-cancelled");
        assert!(j.cancelled.load(Ordering::SeqCst));
    }

    #[test]
    fn cleanse_splits_partial_overlaps() {
        let region = |s, e| Region::new(RegionId(7), RegionRange::new(s, e));
        let mut poisoned = vec![PoisonedRegion {
            region: region(10, 30),
            source: TaskId(1),
            source_label: "w".into(),
        }];
        cleanse(&mut poisoned, &region(15, 20));
        let mut got: Vec<(u64, u64)> = poisoned
            .iter()
            .map(|p| (p.region.range.start, p.region.range.end))
            .collect();
        got.sort_unstable();
        assert_eq!(got, vec![(10, 15), (20, 30)]);
        cleanse(&mut poisoned, &region(0, 64));
        assert!(poisoned.is_empty());
    }

    #[test]
    fn spec_builders_compose() {
        let spec = JobSpec::new("tenant")
            .qos(QosClass::BestEffort)
            .retry(RetryPolicy::retries(2))
            .fault_plan(FaultPlan::new(9).panic_rate(0.5))
            .max_in_flight(8)
            .deadline(Duration::from_millis(5))
            .cost_hint(1_000);
        assert_eq!(spec.label, "tenant");
        assert_eq!(spec.qos, QosClass::BestEffort);
        assert_eq!(spec.retry.unwrap().max_attempts, 3);
        assert!(spec.fault_plan.is_some());
        assert_eq!(spec.max_in_flight, Some(8));
        assert_eq!(spec.deadline, Some(Duration::from_millis(5)));
        assert_eq!(spec.cost_hint, Some(1_000));
        let dbg = format!("{spec:?}");
        assert!(dbg.contains("tenant") && dbg.contains("BestEffort"));
    }
}
