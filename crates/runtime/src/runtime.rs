//! The public runtime façade: spawn tasks, declare dependencies, wait.
//!
//! The spawn→ready→execute→complete hot path is lock-free in the common
//! case: task bookkeeping lives in a generation-counted slab
//! ([`crate::task::TaskSlab`]) instead of a global table, dependency
//! discovery goes through the region-sharded
//! [`crate::deps::ShardedDepTracker`], readiness is a per-slot atomic
//! pending count, and completion accounting is an atomic outstanding
//! counter. The only locks on a clean spawn are the task's own slot
//! mutex and the tracker shards its regions hash to — two concurrent
//! spawns or completions on unrelated tasks share no lock at all.
//!
//! Fault tolerance (see [`crate::fault`]) threads through here:
//!
//! * every task body runs behind a *preflight* that fails fast on
//!   poisoned input regions, and under the configured fault-injection
//!   plan (deterministic panics / stalls, for campaigns) — see the
//!   [`PoolClient::run`] hook below;
//! * a panicking task declared idempotent is re-enqueued by the
//!   [`RetryPolicy`] with capped exponential backoff;
//! * a task that settles as failed **poisons the regions it declared as
//!   written**: downstream readers fail fast with a structured
//!   [`TaskError::Poisoned`] instead of consuming garbage, and the poison
//!   propagates transitively. A later task that fully overwrites a
//!   poisoned range (`out` access) cleanses it — recovery tasks use
//!   exactly this to repair data after a failure. Poison propagation
//!   walks the slab under per-slot locks; it never takes a global one.
//!
//! Multi-tenancy (see [`crate::job`]) layers on top: `Runtime::submit`
//! opens a [`JobHandle`] whose tasks carry their own fault domain
//! (retry policy, fault plan, failures, poison) and dependency
//! namespace; `Runtime::task` spawns into an implicit *default job*, so
//! single-tenant code is unchanged. Admission control bounds in-flight
//! tasks per job and globally, best-effort jobs shed load under
//! pressure, and [`Runtime::drain`] winds the whole runtime down within
//! a deadline.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::criticality::CRITICALITY_THRESHOLD;
use crate::fault::{
    FaultPlan, FaultReport, InjectedFault, RetryPolicy, TaskError, TaskFailure, WatchdogConfig,
};
use crate::flight::{FlightBundle, FlightReason};
use crate::graph::TaskGraph;
use crate::job::{
    cleanse, AdmissionError, DrainReport, JobId, JobSpec, JobState, JobStats, JobTable,
    PoisonedRegion,
};
use crate::pool::{PoolClient, PoolOptions, PoolStatsHandle, WorkerPool};
use crate::program::{SinkGuard, TaskProgram};
use crate::region::{Access, AccessMode, DataHandle, Region};
use crate::scheduler::{QosClass, ReadyQueues, ReadyTask, SchedulerPolicy};
use crate::stats::{
    ContentionReport, RuntimeStats, StatsSnapshot, StripedGauge, RETRY_HIST_BUCKETS,
};
use crate::task::{Criticality, ExecBody, SlotState, TaskId, TaskMeta, TaskRef, TaskSlab};
use crate::telemetry::{
    detect, SamplerShared, TelemetryDelta, TelemetrySnapshot, TenantTelemetry, TriggerRules,
    SAMPLE_INTERVAL,
};
use crate::topology::{Topology, NO_HOME};
use crate::trace::{Trace, TraceConfig, TraceEventKind, TraceSession, Tracer};

/// Observation hooks around task execution — the attachment point for
/// runtime-aware hardware models (e.g. the RSU in `raa-core`): the
/// runtime notifies the hardware when a task starts on a worker (with
/// its criticality) and when it completes.
///
/// A task skipped because of a poisoned input reports [`on_skipped`]
/// (*not* `on_start`/`on_complete`/`on_fault` — from the hardware's
/// perspective it never executed). An injected pre-body panic reports
/// `on_start` then `on_fault` like any other panicking attempt. A
/// retried task reports one start/complete pair per successful attempt
/// (failed attempts report start/fault).
///
/// Observers are one consumer of the runtime's [`TraceSession`]; the
/// other is the event tracer enabled via [`RuntimeConfig::tracing`].
///
/// [`on_skipped`]: TaskObserver::on_skipped
pub trait TaskObserver: Send + Sync + 'static {
    /// Called on the worker thread immediately before the body runs.
    fn on_start(&self, worker: usize, task: TaskId, critical: bool);
    /// Called on the worker thread after the body finished.
    fn on_complete(&self, worker: usize, task: TaskId);
    /// Called on the worker thread when the body panics; `on_complete`
    /// is *not* called for that attempt. Observers holding per-core
    /// state keyed by `on_start` (e.g. an RSU frequency grant) must
    /// release it here or it leaks across retries.
    fn on_fault(&self, worker: usize, task: TaskId) {
        let _ = (worker, task);
    }
    /// Called on the worker thread when a task is skipped without running
    /// because an input region was poisoned by an upstream failure.
    /// `on_start` was never called for it, so there is no per-core state
    /// to release — this hook exists so observers can account for every
    /// settled task.
    fn on_skipped(&self, worker: usize, task: TaskId) {
        let _ = (worker, task);
    }
}

/// Fan the runtime's single observer slot out to any number of
/// observers: every lifecycle hook is forwarded to each registered
/// observer in registration order. This is how an RSU driver, a timing
/// recorder and anything else attach to the *same* run without each
/// caller hand-rolling a wrapper struct.
///
/// ```
/// use std::sync::Arc;
/// use raa_runtime::runtime::ObserverFanout;
/// # use raa_runtime::{runtime::TaskObserver, TaskId};
/// # struct A; impl TaskObserver for A {
/// #     fn on_start(&self, _: usize, _: TaskId, _: bool) {}
/// #     fn on_complete(&self, _: usize, _: TaskId) {}
/// # }
/// let fanout = ObserverFanout::new().with(Arc::new(A)).with(Arc::new(A));
/// assert_eq!(fanout.len(), 2);
/// ```
#[derive(Default)]
pub struct ObserverFanout {
    observers: Vec<Arc<dyn TaskObserver>>,
}

impl ObserverFanout {
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder-style registration.
    pub fn with(mut self, obs: Arc<dyn TaskObserver>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Register one more observer.
    pub fn push(&mut self, obs: Arc<dyn TaskObserver>) {
        self.observers.push(obs);
    }

    pub fn len(&self) -> usize {
        self.observers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.observers.is_empty()
    }
}

impl TaskObserver for ObserverFanout {
    fn on_start(&self, worker: usize, task: TaskId, critical: bool) {
        for o in &self.observers {
            o.on_start(worker, task, critical);
        }
    }

    fn on_complete(&self, worker: usize, task: TaskId) {
        for o in &self.observers {
            o.on_complete(worker, task);
        }
    }

    fn on_fault(&self, worker: usize, task: TaskId) {
        for o in &self.observers {
            o.on_fault(worker, task);
        }
    }

    fn on_skipped(&self, worker: usize, task: TaskId) {
        for o in &self.observers {
            o.on_skipped(worker, task);
        }
    }
}

/// Runtime construction parameters.
#[derive(Clone)]
pub struct RuntimeConfig {
    /// Number of worker threads (>= 1).
    pub workers: usize,
    /// Ready-task scheduling policy.
    pub policy: SchedulerPolicy,
    /// Worker cluster topology for two-level work stealing (default:
    /// flat — one cluster spanning the pool, which preserves the
    /// pre-hierarchy scheduling behaviour exactly). When set, its
    /// `workers()` must equal [`RuntimeConfig::workers`]: thieves then
    /// steal intra-cluster first, an inter-cluster balancer moves
    /// batches on sustained misses, and external spawns route to the
    /// cluster owning the task's declared region/SPM footprint.
    pub topology: Option<Topology>,
    /// Record the full TDG for later analysis / dot export (adds a clone
    /// of each task's metadata; off by default).
    pub record_graph: bool,
    /// Record a full [`TaskProgram`]: the TDG (implies
    /// [`RuntimeConfig::record_graph`]) plus each task's measured
    /// duration and any classified reference stream its body emitted via
    /// [`crate::program::emit`]. Retrieve with [`Runtime::program`].
    /// Off by default.
    pub record_program: bool,
    /// Optional execution observer (see [`TaskObserver`]).
    pub observer: Option<Arc<dyn TaskObserver>>,
    /// Retry policy for idempotent tasks (default: no retry).
    pub retry: RetryPolicy,
    /// Deterministic fault-injection plan (default: none).
    pub fault_plan: Option<Arc<FaultPlan>>,
    /// Worker watchdog (default: disabled).
    pub watchdog: WatchdogConfig,
    /// Event tracing (default: off). When set, every scheduling decision
    /// is recorded into per-worker ring buffers; drain with
    /// [`Runtime::drain_trace`].
    pub trace: Option<TraceConfig>,
    /// Global cap on admitted (in-flight) tasks across all jobs
    /// (default: unbounded). At the cap, `TaskBuilder::try_spawn`
    /// returns [`AdmissionError::Busy`] and `spawn` blocks.
    pub max_in_flight: Option<usize>,
    /// Cap on concurrently live jobs accepted by [`Runtime::submit`]
    /// (default: unbounded; the implicit default job is not counted).
    pub max_jobs: Option<usize>,
    /// Adaptive overload control (default: off). When set, the runtime
    /// smooths each task's admission→first-dispatch delay and sheds
    /// [`QosClass::BestEffort`] admissions while the smoothed delay
    /// exceeds this budget (recovering hysteretically below half of it;
    /// see [`crate::overload::ShedController`]). The trigger tracks what
    /// an SLO cares about — queueing delay — not an in-flight count.
    pub shed_delay_budget: Option<Duration>,
    /// Straggler hedging (default: off). When set, a worker stuck on one
    /// *idempotent* task longer than `max(soft_timeout, 4 × the job's
    /// cost_hint)` gets a duplicate of that task enqueued by the
    /// watchdog; whichever copy settles first wins and the loser's
    /// completion is discarded. Requires the watchdog (enabled
    /// implicitly when this is set).
    pub soft_timeout: Option<Duration>,
    /// Live telemetry plane + always-on flight recorder (default: off).
    /// When set, workers record latency histograms into per-worker
    /// cells ([`crate::telemetry::TelemetryPlane`]), a background
    /// sampler produces periodic [`TelemetryDelta`]s and runs the
    /// anomaly [`TriggerRules`], and faults (worker death, deadline
    /// miss, DUE, drain timeout) capture post-mortem
    /// [`FlightBundle`]s. Disabled, every hook is one `Option`
    /// discriminant check — the PR 4 disabled-is-free discipline.
    ///
    /// [`TelemetryDelta`]: crate::telemetry::TelemetryDelta
    /// [`TriggerRules`]: crate::telemetry::TriggerRules
    /// [`FlightBundle`]: crate::flight::FlightBundle
    pub telemetry: bool,
}

impl std::fmt::Debug for RuntimeConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeConfig")
            .field("workers", &self.workers)
            .field("policy", &self.policy)
            .field("topology", &self.topology)
            .field("record_graph", &self.record_graph)
            .field("record_program", &self.record_program)
            .field("observer", &self.observer.is_some())
            .field("retry", &self.retry)
            .field("fault_plan", &self.fault_plan.is_some())
            .field("watchdog", &self.watchdog)
            .field("trace", &self.trace)
            .field("max_in_flight", &self.max_in_flight)
            .field("max_jobs", &self.max_jobs)
            .field("shed_delay_budget", &self.shed_delay_budget)
            .field("soft_timeout", &self.soft_timeout)
            .field("telemetry", &self.telemetry)
            .finish()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            policy: SchedulerPolicy::WorkStealing,
            topology: None,
            record_graph: false,
            record_program: false,
            observer: None,
            retry: RetryPolicy::default(),
            fault_plan: None,
            watchdog: WatchdogConfig::default(),
            trace: None,
            max_in_flight: None,
            max_jobs: None,
            shed_delay_budget: None,
            soft_timeout: None,
            telemetry: false,
        }
    }
}

impl RuntimeConfig {
    /// A config with `workers` threads and default policy.
    pub fn with_workers(workers: usize) -> Self {
        RuntimeConfig {
            workers,
            ..Default::default()
        }
    }

    /// Builder-style policy override.
    pub fn policy(mut self, policy: SchedulerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style cluster topology: group the workers into
    /// `topology.clusters` clusters for two-level work stealing. Also
    /// sets the worker count to `topology.workers()` so the two can
    /// never disagree.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.workers = topology.workers();
        self.topology = Some(topology);
        self
    }

    /// Builder-style graph recording toggle.
    pub fn record_graph(mut self, on: bool) -> Self {
        self.record_graph = on;
        self
    }

    /// Builder-style program recording toggle (TDG + measured durations
    /// + classified reference streams; see [`Runtime::program`]).
    pub fn record_program(mut self, on: bool) -> Self {
        self.record_program = on;
        self
    }

    /// Attach an execution observer (runtime-aware hardware models).
    pub fn observer(mut self, obs: Arc<dyn TaskObserver>) -> Self {
        self.observer = Some(obs);
        self
    }

    /// Builder-style retry policy for idempotent tasks.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attach a deterministic fault-injection plan.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(Arc::new(plan));
        self
    }

    /// Builder-style watchdog configuration.
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Enable event tracing (see [`crate::trace`]).
    pub fn tracing(mut self, trace: TraceConfig) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder-style global in-flight task cap (>= 1).
    pub fn max_in_flight(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "a zero cap would admit nothing");
        self.max_in_flight = Some(cap);
        self
    }

    /// Builder-style cap on concurrently live submitted jobs.
    pub fn max_jobs(mut self, cap: usize) -> Self {
        self.max_jobs = Some(cap);
        self
    }

    /// Builder-style adaptive shed budget: shed best-effort admissions
    /// while the smoothed admission→dispatch delay exceeds `budget`.
    pub fn shed_delay_budget(mut self, budget: Duration) -> Self {
        self.shed_delay_budget = Some(budget);
        self
    }

    /// Builder-style straggler soft timeout: hedge a duplicate of an
    /// idempotent task whose attempt has run longer than this.
    pub fn soft_timeout(mut self, timeout: Duration) -> Self {
        self.soft_timeout = Some(timeout);
        self
    }

    /// Builder-style telemetry toggle: enable the live metrics plane,
    /// the background sampler and the flight recorder.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }
}

/// Recorded spawn log: each task's metadata plus its predecessor ids.
type RecordedGraph = Vec<(TaskMeta, Vec<TaskId>)>;

/// Measurement side of program recording (cold path: pushed once per
/// completed task body, read once at [`Runtime::program`]).
#[derive(Default)]
struct ProgramCapture {
    /// Measured wall-clock duration per successful body run.
    durations: Mutex<Vec<(TaskId, u64)>>,
    /// Classified reference streams emitted via [`crate::program::emit`].
    streams: Mutex<Vec<(TaskId, Vec<raa_workloads::trace::TraceEvent>)>>,
    /// SPM-mapped layout ranges declared by the program.
    spm_ranges: Mutex<Vec<(u64, u64)>>,
}

/// Drain lifecycle states (see [`Runtime::drain`]).
const LIFECYCLE_RUNNING: u8 = 0;
const LIFECYCLE_DRAINING: u8 = 1;
const LIFECYCLE_DRAINED: u8 = 2;

/// Deadline-reaper heap entry; ordered earliest-deadline-first under
/// `BinaryHeap`'s max-heap by reversing the comparison.
struct ReapAt {
    at: Instant,
    job: Weak<JobState>,
}

impl PartialEq for ReapAt {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for ReapAt {}
impl PartialOrd for ReapAt {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReapAt {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

/// How long a quiescence waiter sleeps between polls of the striped
/// `outstanding` sum. Completions do not notify (see `Shared
/// ::outstanding`), so this bounds the wake-up latency after the last
/// task settles; it is far below any measurable wait while keeping the
/// idle-poll cost negligible.
const QUIESCE_POLL: Duration = Duration::from_micros(200);

/// [`CRITICALITY_THRESHOLD`] in thousandths, the form `Shared::release`
/// compares bottom levels in (as [`OnlineCriticality`] does).
///
/// [`OnlineCriticality`]: crate::criticality::OnlineCriticality
const CRIT_PERMILLE: u128 = (CRITICALITY_THRESHOLD * 1000.0) as u128;

struct Shared {
    slab: TaskSlab,
    tracker: crate::deps::ShardedDepTracker,
    /// Time origin shared with [`ReadyQueues`]: task deadlines travel
    /// through the scheduler as nanoseconds since this instant.
    epoch: Instant,
    /// Resolved worker cluster map (flat unless
    /// [`RuntimeConfig::topology`] was set). `fill_slot` derives each
    /// task's home cluster from it.
    topology: Topology,
    /// Declared SPM layout ranges `(base, bytes)` from
    /// [`Runtime::declare_spm_ranges`], used to map a task's first
    /// region onto the tile that owns it; empty until declared.
    /// `spm_declared` gates the lock off the spawn hot path.
    spm_map: Mutex<Vec<(u64, u64)>>,
    spm_declared: AtomicBool,
    /// Tasks spawned but not yet settled. Incremented before a task is
    /// visible anywhere. Striped: completion touches only a local line
    /// and never notifies; quiescence waiters poll the stripe sum on a
    /// short bounded condvar wait (`wait_cv` still fires eagerly on
    /// termination).
    outstanding: StripedGauge,
    wait: Mutex<()>,
    wait_cv: Condvar,
    next_id: AtomicU32,
    stats: RuntimeStats,
    /// The implicit job behind `Runtime::task` / `Runtime::try_taskwait`
    /// (index 0 of `jobs`, never removed). Failures, retry policy and
    /// poison for untagged spawns live in its fault domain.
    default_job: Arc<JobState>,
    /// All live jobs. Locked only on submit/retire/drain and the rare
    /// whole-runtime poison paths — never on the spawn/complete hot path.
    jobs: Mutex<JobTable>,
    /// Monotonic fast-path flag: set when poison was ever recorded in
    /// *any* job, so clean runs never touch poison state in the
    /// preflight. Only [`Runtime::clear_poison`] resets it.
    has_poison: AtomicBool,
    /// Monotonic fast-path flag: set when any job was ever cancelled, so
    /// the preflight of a never-cancelled runtime skips the slot lock.
    any_cancelled: AtomicBool,
    /// Drain state machine: Running → Draining → Drained.
    lifecycle: AtomicU8,
    /// Set by a forced drain: the pool is shutting down without joining,
    /// and every waiter must stop blocking on the outstanding count.
    terminated: AtomicBool,
    /// Non-exempt tasks currently admitted, maintained only when
    /// [`RuntimeConfig::max_in_flight`] is set (`track_admitted`).
    admitted: AtomicU64,
    track_admitted: bool,
    admission_lock: Mutex<()>,
    admission_cv: Condvar,
    /// Spawners currently blocked on admission (wake-up gating).
    admission_waiters: AtomicUsize,
    /// Recorded TDG when [`RuntimeConfig::record_graph`] is on (cold
    /// path: the lock is fine, recording already clones metadata).
    recorded: Option<Mutex<RecordedGraph>>,
    /// Measured durations + reference streams when
    /// [`RuntimeConfig::record_program`] is on.
    capture: Option<ProgramCapture>,
    /// Event tracer, when [`RuntimeConfig::trace`] is set.
    tracer: Option<Arc<Tracer>>,
    /// Adaptive overload controller, when
    /// [`RuntimeConfig::shed_delay_budget`] is set.
    shed: Option<crate::overload::ShedController>,
    /// Straggler-hedging threshold in ns (`u64::MAX` when hedging is
    /// off); the per-job `cost_hint` can only extend it.
    soft_timeout_ns: u64,
    /// Jobs with deadlines, earliest first; serviced by the lazily
    /// spawned reaper thread.
    reaper: Mutex<std::collections::BinaryHeap<ReapAt>>,
    reaper_cv: Condvar,
    reaper_stop: AtomicBool,
    /// Lock-free metrics plane, when [`RuntimeConfig::telemetry`] is on.
    telemetry: Option<Arc<crate::telemetry::TelemetryPlane>>,
    /// Always-on flight recorder (with the plane): fault paths dump
    /// their per-worker event rings through it.
    flight: Option<Arc<crate::flight::FlightRecorder>>,
}

impl Shared {
    /// The job behind a slot's `job` field. Default-job tasks store no
    /// handle — this is the one place that resolves the absence, so the
    /// default job's reference count never moves on the task path.
    fn job_of<'a>(&'a self, stored: &'a Option<Arc<JobState>>) -> &'a Arc<JobState> {
        stored.as_ref().unwrap_or(&self.default_job)
    }

    /// Record the failed task's written regions as poisoned *within
    /// `job`'s fault domain* and mark every in-flight task of that job
    /// reading them, so they fail fast instead of consuming garbage.
    /// Other jobs' tasks are never marked — poison does not cross fault
    /// domains.
    ///
    /// Racing spawns are covered from both sides: the flag stores (with
    /// their fence) are ordered before the slab walk, and a spawner fills
    /// its declared reads into its slot *before* it checks the flag — so
    /// either this walk sees the spawner's reads, or the spawner sees
    /// the flag and checks the poison list itself.
    fn poison_writes(&self, job: &JobState, source: TaskId, label: &str, writes: &[Region]) {
        if writes.is_empty() {
            return;
        }
        if let Some(t) = &self.tracer {
            t.emit(TraceEventKind::Poisoned, source, 0, 0, writes.len() as u64);
        }
        job.has_poison.store(true, Ordering::SeqCst);
        self.has_poison.store(true, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        {
            let mut poisoned = job.poisoned.lock();
            for w in writes {
                poisoned.push(PoisonedRegion {
                    region: *w,
                    source,
                    source_label: label.to_string(),
                });
            }
        }
        self.slab.for_each_live(|_, slot| {
            let mut st = slot.state.lock();
            if st.exempt || st.completed || st.poisoned_by.is_some() {
                return;
            }
            if self.job_of(&st.job).id != job.id {
                return;
            }
            if st
                .reads
                .iter()
                .any(|r| writes.iter().any(|w| r.overlaps(w)))
            {
                st.poisoned_by = Some((source, label.to_string()));
            }
        });
    }

    /// Targeted poison recovery for one job: cleanse `region` from its
    /// poison list and unmark pending victims whose declared reads no
    /// longer overlap any remaining poison in that job. Partial overlaps
    /// leave the uncovered remainder poisoned, exactly like a partial
    /// recovery write would.
    fn clear_job_poison_region(&self, job: &JobState, region: &Region) {
        let remaining: Vec<Region> = {
            let mut poisoned = job.poisoned.lock();
            cleanse(&mut poisoned, region);
            poisoned.iter().map(|p| p.region).collect()
        };
        if remaining.is_empty() {
            job.has_poison.store(false, Ordering::SeqCst);
        }
        self.slab.for_each_live(|_, slot| {
            let mut st = slot.state.lock();
            if st.completed || st.poisoned_by.is_none() {
                return;
            }
            if self.job_of(&st.job).id != job.id {
                return;
            }
            if !st
                .reads
                .iter()
                .any(|r| remaining.iter().any(|p| p.overlaps(r)))
            {
                st.poisoned_by = None;
            }
        });
    }

    /// Forget all poison in one job's fault domain and unmark its
    /// pending victims.
    fn clear_job_poison(&self, job: &JobState) {
        job.poisoned.lock().clear();
        self.slab.for_each_live(|_, slot| {
            let mut st = slot.state.lock();
            if self.job_of(&st.job).id == job.id {
                st.poisoned_by = None;
            }
        });
        job.has_poison.store(false, Ordering::SeqCst);
    }

    /// A task just became ready: decide an `Auto` task's criticality by
    /// [`crate::criticality::OnlineCriticality::is_critical`]'s rule
    /// (every successor wired so far has raised its bottom level; later
    /// ones come too late to steer the scheduler), then hand it out.
    fn release(&self, st: &mut SlotState, slot: u32, gen: u64, body: ExecBody) -> ReadyTask {
        if st.criticality == Criticality::Auto {
            let max_bl = self.job_of(&st.job).max_bl.load(Ordering::Relaxed) as u128;
            st.criticality = if st.bl as u128 * 1000 >= CRIT_PERMILLE * max_bl {
                Criticality::Critical
            } else {
                Criticality::NonCritical
            };
        }
        if st.criticality == Criticality::Critical {
            RuntimeStats::bump(&self.stats.critical_tasks);
        }
        st.ready(slot, gen, body)
    }

    /// Settle a task that will not retry: publish its failure/poison
    /// into its job's fault domain, release its successors and retire
    /// its slot. Appends the released tasks to `released` and returns
    /// whether the task was an exempt sentinel (no job accounting) and
    /// the submitted job's handle moved out of the slot (`None`: the
    /// default job) — or `None` overall when this completion is a
    /// *duplicate*: a hedged task's losing copy arriving after the
    /// winner already settled the slot (see
    /// [`crate::task::TaskSlot::lock_live`]).
    ///
    /// A task that succeeded holds its slot lock exactly once, from the
    /// duplicate check to the retire: successors are walked in place
    /// (this is the only path that takes a second slot lock while
    /// holding one, always predecessor → successor, so it cannot cycle)
    /// and `label`/`writes` stay where they are, keeping their
    /// allocations for the slot's next tenant. Only a failure gives the
    /// lock up in between, because poisoning walks every live slot.
    fn settle(
        &self,
        task: TaskId,
        slot_idx: u32,
        gen: u64,
        panicked: Option<String>,
        released: &mut Vec<ReadyTask>,
    ) -> Option<(bool, Option<Arc<JobState>>)> {
        let slot = self.slab.slot(slot_idx);
        let mut st = slot.lock_live(gen)?;
        st.completed = true;
        let exempt = st.exempt;
        let job = st.job.take();
        let error = if let Some(msg) = panicked {
            Some(TaskError::Panicked(msg))
        } else if st.cancelled {
            RuntimeStats::bump(&self.stats.tasks_cancelled);
            Some(TaskError::Cancelled)
        } else if let Some((source, source_label)) = st.poisoned_by.take() {
            RuntimeStats::bump(&self.stats.poisoned_tasks);
            Some(TaskError::Poisoned {
                source,
                source_label,
            })
        } else {
            // Tasks that ran to success: bucket by failed attempts.
            let bucket = (st.attempts as usize).min(RETRY_HIST_BUCKETS - 1);
            RuntimeStats::bump(&self.stats.retry_hist[bucket]);
            None
        };
        if let Some(error) = error {
            RuntimeStats::bump(&self.stats.failed_tasks);
            if !exempt {
                let label = std::mem::take(&mut st.label).into_owned();
                let writes = std::mem::take(&mut st.writes);
                let attempts = st.attempts;
                drop(st);
                let job = self.job_of(&job);
                // A cancelled skip does not poison: the body never ran,
                // so nothing was half-written.
                if !matches!(error, TaskError::Cancelled) {
                    self.poison_writes(job, task, &label, &writes);
                }
                job.failed.fetch_add(1, Ordering::Relaxed);
                job.failures.lock().push(TaskFailure {
                    task,
                    label,
                    attempts,
                    error,
                });
                st = slot.state.lock();
            }
        }
        for &s in &st.succs {
            let sslot = self.slab.slot(s);
            if sslot.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let sgen = sslot.gen.load(Ordering::Relaxed);
                let mut sst = sslot.state.lock();
                let body = sst.body.take().expect("ready successor must have a body");
                if let Some(t) = &self.tracer {
                    t.emit(TraceEventKind::Ready, sst.tid, s, sgen, 0);
                }
                released.push(self.release(&mut sst, s, sgen, body));
            }
        }
        self.slab.retire(slot_idx, &mut st);
        drop(st);
        self.slab.recycle(slot_idx);
        Some((exempt, job))
    }

    /// Deadline expiry for one registered job. A job that already
    /// settled everything it spawned made its deadline; anything else is
    /// marked missed, and — for best-effort jobs only — cancelled, so
    /// its queued tasks settle as recorded skips through the normal
    /// cancel path. Guaranteed jobs are never reaped: their deadline
    /// drives EDF ordering, and expiry is only recorded.
    fn reap(&self, weak: &Weak<JobState>) {
        let Some(job) = weak.upgrade() else {
            return;
        };
        if job.in_flight() == 0 && job.spawned.sum() <= job.completed.sum() {
            return;
        }
        job.deadline_missed.store(true, Ordering::SeqCst);
        RuntimeStats::bump(&self.stats.jobs_deadline_missed);
        if let Some(fr) = &self.flight {
            fr.request_dump(crate::flight::FlightReason::DeadlineMiss {
                job: job.label.clone(),
            });
        }
        if job.qos.sheddable() {
            self.cancel_job(&job);
        }
    }

    /// Cancel `job` and, on the first cancel only, broadcast it: count
    /// it, raise `any_cancelled` for the dispatch path, and wake spawners
    /// blocked in admission so they observe the flag. True on the first
    /// call for this job.
    fn cancel_job(&self, job: &JobState) -> bool {
        let first = job.cancel();
        if first {
            RuntimeStats::bump(&self.stats.jobs_cancelled);
            self.any_cancelled.store(true, Ordering::SeqCst);
            fence(Ordering::SeqCst);
            let _g = self.admission_lock.lock();
            self.admission_cv.notify_all();
        }
        first
    }

    /// Bounded poll for global quiescence; true once nothing is
    /// outstanding. False when `deadline` passes first, or when the
    /// runtime was force-terminated: no worker is left to settle what
    /// remains, so waiting longer cannot help.
    fn wait_outstanding(&self, deadline: Option<Instant>) -> bool {
        let mut g = self.wait.lock();
        while self.outstanding.read() > 0 {
            let now = Instant::now();
            if self.terminated.load(Ordering::SeqCst) || deadline.is_some_and(|d| now >= d) {
                return false;
            }
            // Bounded: completions never notify (striped counter).
            let poll = now + QUIESCE_POLL;
            self.wait_cv
                .wait_until(&mut g, deadline.map_or(poll, |d| d.min(poll)));
        }
        true
    }

    /// The runtime's own counters merged with the pool's worker fault and
    /// park/wake counters and the scheduler's steal/overflow counters —
    /// the one place a [`StatsSnapshot`] is completed, for
    /// [`Runtime::stats`] and the telemetry snapshot alike.
    fn merged_stats(&self, queues: &ReadyQueues, pool: &PoolStatsHandle) -> StatsSnapshot {
        let mut stats = self.stats.snapshot();
        let pf = pool.fault_stats();
        stats.worker_deaths = pf.worker_deaths;
        stats.worker_respawns = pf.worker_respawns;
        stats.worker_stalls = pf.worker_stalls;
        let (steals_ok, steals_empty, injector_overflow) = queues.contention_counters();
        stats.steals_ok = steals_ok;
        stats.steals_empty = steals_empty;
        stats.injector_overflow = injector_overflow;
        let (parks, wakes) = pool.park_stats();
        stats.parks = parks;
        stats.wakes = wakes;
        stats
    }
}

/// Body of the lazily spawned deadline-reaper thread: sleep until the
/// earliest registered deadline, reap everything due, repeat. Holds the
/// heap lock only around heap surgery, not around the reaps themselves.
fn reaper_loop(shared: Arc<Shared>) {
    let mut g = shared.reaper.lock();
    loop {
        if shared.reaper_stop.load(Ordering::SeqCst) {
            return;
        }
        let now = Instant::now();
        let mut due = Vec::new();
        while g.peek().is_some_and(|e| e.at <= now) {
            due.push(g.pop().expect("peeked"));
        }
        if !due.is_empty() {
            drop(g);
            for e in &due {
                shared.reap(&e.job);
            }
            g = shared.reaper.lock();
            continue;
        }
        match g.peek().map(|e| e.at) {
            Some(at) => {
                shared.reaper_cv.wait_until(&mut g, at);
            }
            None => shared.reaper_cv.wait(&mut g),
        }
    }
}

/// Merge everything the runtime already counts with the telemetry
/// plane's histograms into one [`TelemetrySnapshot`]. Lives here (not
/// in `telemetry.rs`) because `Shared` is private to this module; the
/// sampler thread and [`Runtime::telemetry_snapshot`] both call it so
/// live reads and trigger evaluation see the same numbers.
fn assemble_snapshot(
    shared: &Shared,
    queues: &ReadyQueues,
    pool: &PoolStatsHandle,
    workers: usize,
) -> TelemetrySnapshot {
    let plane = shared
        .telemetry
        .as_ref()
        .expect("snapshot assembly requires the telemetry plane");
    let stats = shared.merged_stats(queues, pool);
    let (slab_local_frees, slab_remote_frees) = shared.slab.free_stats();
    let shed = shared
        .shed
        .as_ref()
        .map(|c| c.snapshot())
        .unwrap_or_default();
    let (queue_delay, body, job_e2e) = plane.merged();
    let tenants: Vec<TenantTelemetry> = shared
        .jobs
        .lock()
        .live()
        .iter()
        .filter(|j| !j.is_default())
        .map(|j| {
            let (queue_delay, body) = match &j.telemetry {
                Some(t) => t.snapshots(),
                None => Default::default(),
            };
            TenantTelemetry {
                id: j.id,
                label: j.label.clone(),
                qos: j.qos,
                metrics: j.metrics(),
                shed: j.shed.load(Ordering::Relaxed),
                deadline_missed: j.deadline_missed.load(Ordering::Relaxed),
                queue_delay,
                body,
            }
        })
        .collect();
    TelemetrySnapshot {
        at_ns: shared.epoch.elapsed().as_nanos() as u64,
        workers,
        alive_workers: pool.alive_workers(),
        stats,
        slab_local_frees,
        slab_remote_frees,
        shed_engaged: shed.engaged,
        shed_delay: shed.smoothed_delay,
        shed_transitions: (shed.engage_transitions, shed.recover_transitions),
        flight_dumps: shared.flight.as_ref().map_or(0, |f| f.dump_count()),
        queue_delay,
        body,
        job_e2e,
        tenants,
        per_cluster: queues.per_cluster_steals(),
    }
}

/// Body of the telemetry sampler thread: every tick, assemble a
/// snapshot, diff it against the previous one into a
/// [`TelemetryDelta`], run the [`TriggerRules`] over the movement, and
/// ask the flight recorder for a dump on every anomaly. The condvar
/// wait mirrors the reaper's stop/notify pattern so `Drop` can join
/// promptly.
fn sampler_loop(
    shared: Arc<Shared>,
    queues: Arc<ReadyQueues>,
    pool: PoolStatsHandle,
    sampler: Arc<SamplerShared>,
    rules: TriggerRules,
    workers: usize,
) {
    let mut prev = assemble_snapshot(&shared, &queues, &pool, workers);
    let mut seq = 0u64;
    // Labels that fired last tick: a persisting anomaly dumps the
    // flight rings once on its rising edge, not on every 5ms tick.
    let mut firing: Vec<&'static str> = Vec::new();
    loop {
        {
            let g = match sampler.lock.lock() {
                Ok(g) => g,
                Err(_) => return,
            };
            let _ = sampler.cv.wait_timeout(g, SAMPLE_INTERVAL);
        }
        if sampler.stop.load(Ordering::SeqCst) {
            return;
        }
        let cur = assemble_snapshot(&shared, &queues, &pool, workers);
        let anomalies = detect(&prev, &cur, &rules);
        if let Some(fr) = &shared.flight {
            for a in &anomalies {
                if !firing.contains(&a.label()) {
                    fr.request_dump(FlightReason::Anomaly { rule: a.label() });
                }
            }
        }
        firing = anomalies.iter().map(|a| a.label()).collect();
        sampler.push_delta(TelemetryDelta {
            seq,
            interval_ns: cur.at_ns.saturating_sub(prev.at_ns),
            spawned: cur.stats.spawned.saturating_sub(prev.stats.spawned),
            completed: cur.stats.completed.saturating_sub(prev.stats.completed),
            shed: cur.stats.tasks_shed.saturating_sub(prev.stats.tasks_shed),
            wakes: cur.stats.wakes.saturating_sub(prev.stats.wakes),
            steals_ok: cur.stats.steals_ok.saturating_sub(prev.stats.steals_ok),
            steals_empty: cur
                .stats
                .steals_empty
                .saturating_sub(prev.stats.steals_empty),
            queue_delay: cur.queue_delay.since(&prev.queue_delay),
            anomalies,
        });
        seq += 1;
        prev = cur;
    }
}

/// Innermost program-capture bracket: installs the thread-local stream
/// sink, times the body and, on success, files the duration and any
/// emitted events with the runtime's [`ProgramCapture`]. An unwinding
/// body records nothing (the sink guard restores the thread state and
/// discards the partial stream) — only successful attempts measure.
fn record_body(cap: &ProgramCapture, tid: TaskId, f: impl FnOnce()) {
    let guard = SinkGuard::install();
    let t0 = std::time::Instant::now();
    f();
    let ns = t0.elapsed().as_nanos() as u64;
    let events = guard.finish();
    cap.durations.lock().push((tid, ns));
    if !events.is_empty() {
        cap.streams.lock().push((tid, events));
    }
}

/// Time `f` into the telemetry plane's body histogram (global cell +
/// the task's per-job histogram). A panicking body records nothing —
/// only successful attempts measure, matching [`record_body`]. With the
/// plane off this is a single `Option` branch around a direct call.
#[inline]
fn timed_body(
    plane: Option<&crate::telemetry::TelemetryPlane>,
    jt: Option<&crate::telemetry::JobTelemetry>,
    f: impl FnOnce(),
) {
    match plane {
        Some(p) => {
            let t0 = Instant::now();
            f();
            let ns = t0.elapsed().as_nanos() as u64;
            p.record_body(ns);
            if let Some(jt) = jt {
                jt.record_body(ns);
            }
        }
        None => f(),
    }
}

/// Run `f` bracketed by trace-session callbacks: `task_start` before,
/// then `task_complete` on success or `task_fault` if `f` unwinds (via
/// an armed drop guard, so the notification survives the panic
/// propagating to the pool's `catch_unwind`).
fn run_observed(
    f: impl FnOnce(),
    session: &TraceSession,
    tid: TaskId,
    slot: u32,
    gen: u64,
    critical: bool,
) {
    if session.is_idle() {
        f();
        return;
    }
    struct FaultGuard<'a> {
        session: &'a TraceSession,
        tid: TaskId,
        slot: u32,
        gen: u64,
        armed: bool,
    }
    impl Drop for FaultGuard<'_> {
        fn drop(&mut self) {
            if self.armed {
                self.session.task_fault(self.tid, self.slot, self.gen);
            }
        }
    }
    session.task_start(tid, slot, gen, critical);
    let mut guard = FaultGuard {
        session,
        tid,
        slot,
        gen,
        armed: true,
    };
    f();
    guard.armed = false;
    drop(guard);
    session.task_complete(tid, slot, gen);
}

impl Shared {
    /// Runs on the worker thread before the user body. Returns `false`
    /// when the body must be skipped (poisoned input, or the task's job
    /// was cancelled). Cancelled skips mark the slot so `settle` can
    /// record a [`TaskError::Cancelled`].
    fn preflight(&self, tid: TaskId, slot: u32, job: &JobState) -> bool {
        let poison = self.has_poison.load(Ordering::Acquire);
        let cancel = self.any_cancelled.load(Ordering::Acquire);
        if !poison && !cancel {
            return true;
        }
        let mut st = self.slab.slot(slot).state.lock();
        if st.tid != tid {
            return true;
        }
        if cancel && job.cancelled.load(Ordering::SeqCst) {
            st.cancelled = true;
            return false;
        }
        !(poison && st.poisoned_by.is_some())
    }

    /// Fault injection for this attempt: panics or stalls per the plan.
    /// Runs *inside* the observed bracket (after `task_start`), so an
    /// injected panic reports start→fault to observers and the tracer
    /// exactly like a body panic — but still *before* the user body,
    /// which is what makes declaring such tasks idempotent sound in
    /// fault campaigns.
    fn inject(&self, tid: TaskId, slot: u32, plan: &FaultPlan) {
        let attempt = {
            let st = self.slab.slot(slot).state.lock();
            if st.tid == tid {
                st.attempts
            } else {
                0
            }
        };
        match plan.decide(tid, attempt) {
            Some(InjectedFault::Panic) => {
                panic!("injected fault: {tid:?} attempt {attempt}");
            }
            Some(InjectedFault::Stall(d)) => std::thread::sleep(d),
            None => {}
        }
    }

    /// Dispatch of a task that must look at its slot first — a submitted
    /// job's task or a hedged duplicate. Takes the admission stamp out
    /// of the slot (retries and duplicates find it gone and record
    /// nothing), feeds the admission→dispatch delay to the job's
    /// metrics and, when configured, the adaptive shed controller and
    /// the telemetry plane — and hands back the job, which must outlive
    /// a concurrent settle by the task's other copy. `None` when that
    /// copy already settled the slot.
    fn dispatch_probe(&self, slot: u32, gen: u64) -> Option<Arc<JobState>> {
        let (job, admitted_at) = {
            let mut st = self.slab.slot(slot).lock_live(gen)?;
            (Arc::clone(self.job_of(&st.job)), st.admitted_at.take())
        };
        if let Some(at) = admitted_at {
            let ns = at.elapsed().as_nanos() as u64;
            job.record_queue_delay(ns);
            if let Some(ctl) = &self.shed {
                ctl.observe(ns);
            }
            if let Some(p) = &self.telemetry {
                p.record_queue_delay(ns);
            }
        }
        Some(job)
    }
}

impl PoolClient for Shared {
    /// The whole task envelope, borrowed: dispatch probe, preflight
    /// (poison fail-fast), then — inside the trace-session bracket
    /// (tracer + observer) — fault injection, body timing (when the
    /// telemetry plane is on), program capture and the user body. A
    /// poisoned task skips without starting; an injected panic fires
    /// inside the observed bracket but *before* the user body, so under
    /// pure injection even a read-modify-write body never runs half-way.
    fn run(&self, task: &mut ReadyTask) {
        let (tid, slot, gen) = (task.id, task.slot, task.gen);
        let mut held = None;
        if task.probe {
            held = self.dispatch_probe(slot, gen);
            if held.is_none() {
                // The hedge winner settled (and its slot may already
                // serve another task): nothing left to run or account,
                // in either fault domain.
                return;
            }
        }
        let job = self.job_of(&held);
        if !task.exempt && !self.preflight(tid, slot, job) {
            job.session.task_skipped(tid, slot, gen);
            return;
        }
        let (plan, plane) = if task.exempt {
            (None, None)
        } else {
            (job.fault_plan.as_deref(), self.telemetry.as_deref())
        };
        let body = &mut task.body;
        run_observed(
            || {
                if let Some(plan) = plan {
                    self.inject(tid, slot, plan);
                }
                timed_body(plane, job.telemetry.as_deref(), || match &self.capture {
                    Some(cap) => record_body(cap, tid, || body.run()),
                    None => body.run(),
                });
            },
            &job.session,
            tid,
            slot,
            gen,
            task.critical,
        );
    }

    fn on_complete(
        &self,
        task: ReadyTask,
        panicked: Option<String>,
        released: &mut Vec<ReadyTask>,
    ) -> Option<(ReadyTask, Duration)> {
        let (tid, slot_idx) = (task.id, task.slot);
        if panicked.is_some() {
            // A hedged task's losing copy panicked after the winner
            // settled: the task is done, nothing to account.
            let mut st = self.slab.slot(slot_idx).lock_live(task.gen)?;
            RuntimeStats::bump(&self.stats.panicked);
            st.attempts += 1;
            // The retry budget is the *job's*: each tenant pays for its
            // own re-executions. Cancelled jobs and a terminated runtime
            // stop retrying immediately.
            let job = self.job_of(&st.job);
            if st.idempotent
                && task.body.is_retryable()
                && st.attempts < job.retry.max_attempts
                && !job.cancelled.load(Ordering::Relaxed)
                && !self.terminated.load(Ordering::Relaxed)
            {
                // Retry: the task stays registered and outstanding; the
                // pool re-enqueues it, as dispatched, after the backoff.
                RuntimeStats::bump(&self.stats.retried);
                if let Some(t) = &self.tracer {
                    t.emit(
                        TraceEventKind::Retry,
                        tid,
                        slot_idx,
                        task.gen,
                        st.attempts as u64,
                    );
                }
                let delay = job.retry.backoff_after(st.attempts);
                return Some((task, delay));
            }
        }
        // `None`: duplicate completion (hedge loser). The winner already
        // ran every piece of accounting below; touching any counter here
        // would double-count.
        let (exempt, job) = self.settle(tid, slot_idx, task.gen, panicked, released)?;
        self.stats.completed.add(1);
        if !exempt {
            let job = self.job_of(&job);
            // Free the admission slot *before* waking joiners and blocked
            // spawners, so anyone woken observes the capacity. The
            // default job carries no per-job counters (see `admit_many`).
            if self.track_admitted {
                self.admitted.fetch_sub(1, Ordering::SeqCst);
            }
            if !job.is_default() {
                job.completed.add(1);
                job.release_in_flight();
                // Job end-to-end latency: submit → first quiescence.
                // The one-shot latch keeps a job that spawns a second
                // wave after joining from recording twice.
                if let Some(p) = &self.telemetry {
                    if !job.e2e_recorded.load(Ordering::Relaxed)
                        && job.in_flight() == 0
                        && !job.e2e_recorded.swap(true, Ordering::Relaxed)
                    {
                        p.record_job_e2e(job.created_at.elapsed().as_nanos() as u64);
                    }
                }
            }
            if self.admission_waiters.load(Ordering::SeqCst) > 0 {
                let _g = self.admission_lock.lock();
                self.admission_cv.notify_all();
            }
        }
        // The failure (if any) is published by `settle` before this
        // decrement, so a waiter that sees the count reach zero sees it.
        // No notify here: summing the striped gauge (or even signalling
        // a condvar) on every completion would recreate the shared line
        // this counter exists to avoid — quiescence waiters poll on a
        // bounded wait instead.
        self.outstanding.dec(1);
        None
    }

    /// The watchdog found a worker stuck on `slot_idx` for `running_ns`.
    /// Hedge a duplicate iff the task is still live, idempotent, not
    /// already hedged, its job is not cancelled, and the attempt has
    /// outlived both the configured soft timeout and 4× the job's cost
    /// hint (a declared-slow task gets proportionally more patience).
    /// The duplicate is safe because settle is idempotent per task id:
    /// whichever copy finishes second is discarded as a duplicate.
    fn hedge_straggler(&self, slot_idx: u32, running_ns: u64) -> Option<ReadyTask> {
        if running_ns < self.soft_timeout_ns {
            return None;
        }
        let slot = self.slab.slot(slot_idx);
        if slot.gen.load(Ordering::Acquire).is_multiple_of(2) {
            return None; // freed: the task already settled
        }
        let mut st = slot.state.lock();
        if st.completed || st.cancelled || st.hedged || !st.idempotent {
            return None;
        }
        let job = self.job_of(&st.job);
        if job.cancelled.load(Ordering::Relaxed) {
            return None;
        }
        if running_ns < job.cost_hint.saturating_mul(4) {
            return None;
        }
        let body = st.hedge_body.as_ref()?.duplicate()?;
        st.hedged = true;
        RuntimeStats::bump(&self.stats.tasks_hedged);
        let mut dup = st.ready(slot_idx, slot.gen.load(Ordering::Relaxed), body);
        // The winner may settle while the duplicate waits in a queue.
        dup.probe = true;
        Some(dup)
    }
}

thread_local! {
    /// The spawning thread's predecessor buffers: checked out for one
    /// tracked spawn (exactly one) or batch (one per task), filled by
    /// the tracker, read by `wire_spawn` and put back, so steady-state
    /// spawns allocate none. The thread keeps as many as its last
    /// tracked batch was wide, until a narrower batch or a single spawn
    /// drops them. A spawn that finds them checked out starts afresh.
    static PRED_SCRATCH: Cell<Vec<Vec<TaskRef>>> = const { Cell::new(Vec::new()) };
}

/// The task dataflow runtime. See the crate docs for a usage example.
pub struct Runtime {
    shared: Arc<Shared>,
    pool: WorkerPool,
    queues: Arc<ReadyQueues>,
    config: RuntimeConfig,
    /// Deadline-reaper thread, spawned lazily on the first submit with a
    /// deadline and joined by `Drop`.
    reaper_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Sampler coordination block, when telemetry is on.
    sampler: Option<Arc<crate::telemetry::SamplerShared>>,
    /// Background sampler thread (with telemetry); joined by `Drop`.
    sampler_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Runtime {
    /// Start a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        let tracer = config
            .trace
            .as_ref()
            .map(|tc| Arc::new(Tracer::new(config.workers, tc)));
        // One epoch shared with the scheduler: task deadlines cross the
        // ready queues as nanoseconds since this instant.
        let epoch = Instant::now();
        // The cluster topology defaults to flat (one cluster spanning the
        // whole pool); an explicit topology must agree with the worker
        // count the pool is actually built with.
        let topology = config
            .topology
            .unwrap_or_else(|| Topology::flat(config.workers));
        assert_eq!(
            topology.workers(),
            config.workers,
            "topology worker count must match config.workers"
        );
        let queues = Arc::new(ReadyQueues::with_tracer(
            config.policy,
            topology,
            tracer.clone(),
            epoch,
        ));
        // Telemetry plane + flight recorder, both off by default. They
        // travel together: a flight dump without a snapshot to pair it
        // with is half a post-mortem.
        let plane = config
            .telemetry
            .then(|| Arc::new(crate::telemetry::TelemetryPlane::new(config.workers)));
        let flight = config
            .telemetry
            .then(|| Arc::new(crate::flight::FlightRecorder::new(config.workers)));
        // The default job inherits the runtime-level retry policy, fault
        // plan and observer: untagged spawns behave exactly as they did
        // before the job layer existed. Its per-job telemetry stays off
        // (the single-tenant hot path carries no dispatch probe), but
        // its bodies still time into the plane's worker cells.
        let session = Arc::new(TraceSession::with_flight(
            tracer.clone(),
            config.observer.clone(),
            flight.clone(),
        ));
        let default_job = Arc::new(JobState::new(
            JobId::DEFAULT,
            "default".to_string(),
            QosClass::Guaranteed,
            config.retry,
            config.fault_plan.clone(),
            session,
            None,
            None,
            0,
            None,
        ));
        let shared = Arc::new(Shared {
            slab: TaskSlab::new(),
            tracker: crate::deps::ShardedDepTracker::new(),
            epoch,
            topology,
            spm_map: Mutex::new(Vec::new()),
            spm_declared: AtomicBool::new(false),
            outstanding: StripedGauge::default(),
            wait: Mutex::new(()),
            wait_cv: Condvar::new(),
            next_id: AtomicU32::new(0),
            stats: RuntimeStats::default(),
            default_job: Arc::clone(&default_job),
            jobs: Mutex::new(JobTable::new(default_job)),
            has_poison: AtomicBool::new(false),
            any_cancelled: AtomicBool::new(false),
            lifecycle: AtomicU8::new(LIFECYCLE_RUNNING),
            terminated: AtomicBool::new(false),
            admitted: AtomicU64::new(0),
            track_admitted: config.max_in_flight.is_some(),
            admission_lock: Mutex::new(()),
            admission_cv: Condvar::new(),
            admission_waiters: AtomicUsize::new(0),
            recorded: (config.record_graph || config.record_program)
                .then(|| Mutex::new(Vec::new())),
            capture: config.record_program.then(ProgramCapture::default),
            tracer: tracer.clone(),
            shed: config
                .shed_delay_budget
                .map(crate::overload::ShedController::new),
            soft_timeout_ns: config
                .soft_timeout
                .map_or(u64::MAX, |t| (t.as_nanos() as u64).max(1)),
            reaper: Mutex::new(std::collections::BinaryHeap::new()),
            reaper_cv: Condvar::new(),
            reaper_stop: AtomicBool::new(false),
            telemetry: plane,
            flight: flight.clone(),
        });
        let pool = WorkerPool::new(
            config.workers,
            Arc::clone(&queues),
            Arc::clone(&shared) as Arc<dyn PoolClient>,
            PoolOptions {
                plan: config.fault_plan.clone(),
                watchdog: config.watchdog,
                tracer,
                soft_timeout: config.soft_timeout,
                flight,
            },
        );
        // With telemetry on, spawn the sampler eagerly: a serving
        // process wants deltas from its first tick, and an idle sampler
        // costs one condvar timeout per 5ms.
        let (sampler, sampler_thread) = if config.telemetry {
            let sampler = Arc::new(crate::telemetry::SamplerShared::new());
            let rules = crate::telemetry::TriggerRules {
                p99_slo: config.shed_delay_budget,
                ..Default::default()
            };
            let thread = {
                let shared = Arc::clone(&shared);
                let queues = Arc::clone(&queues);
                let pool = pool.stats_handle();
                let sampler = Arc::clone(&sampler);
                let workers = config.workers;
                std::thread::Builder::new()
                    .name("raa-telemetry-sampler".into())
                    .spawn(move || sampler_loop(shared, queues, pool, sampler, rules, workers))
                    .expect("failed to spawn telemetry sampler")
            };
            (Some(sampler), Some(thread))
        } else {
            (None, None)
        };
        Runtime {
            shared,
            pool,
            queues,
            config,
            reaper_thread: Mutex::new(None),
            sampler,
            sampler_thread: Mutex::new(sampler_thread),
        }
    }

    /// Spawn the deadline-reaper thread on first use.
    fn ensure_reaper(&self) {
        let mut t = self.reaper_thread.lock();
        if t.is_none() {
            let shared = Arc::clone(&self.shared);
            *t = Some(
                std::thread::Builder::new()
                    .name("raa-deadline-reaper".into())
                    .spawn(move || reaper_loop(shared))
                    .expect("failed to spawn deadline reaper"),
            );
        }
    }

    /// The task slab, for tests that inspect retired slots.
    #[cfg(test)]
    pub(crate) fn slab(&self) -> &TaskSlab {
        &self.shared.slab
    }

    /// Number of worker threads the pool was built with.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Workers currently alive (smaller than [`Runtime::workers`] after a
    /// death without respawn).
    pub fn alive_workers(&self) -> usize {
        self.pool.alive_workers()
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Register a datum with the runtime, producing a [`DataHandle`] whose
    /// region can carry dependencies.
    pub fn register<T>(&self, name: impl Into<String>, value: T) -> DataHandle<T> {
        DataHandle::new(name, value)
    }

    /// Begin building a task (in the implicit default job). A literal
    /// label is borrowed and an owned `String` moved all the way into
    /// the task's slot — neither is copied.
    pub fn task(&self, label: impl Into<Cow<'static, str>>) -> TaskBuilder<'_> {
        let job = &self.shared.default_job;
        Task::labelled(Attached { rt: self, job }, label)
    }

    /// Blocking spawn into `job`: waits out [`AdmissionError::Busy`];
    /// any other refusal (job cancelled, runtime draining, best-effort
    /// shed) silently discards the task — the returned id then refers to
    /// a task that never runs. Callers that need the distinction use
    /// `TaskBuilder::try_spawn`.
    fn spawn_blocking(&self, job: &Arc<JobState>, meta: TaskMeta, body: ExecBody) -> TaskId {
        match self.spawn_job(job, meta, body, true) {
            Ok(tid) => tid,
            Err(_) => {
                RuntimeStats::bump(&self.shared.stats.tasks_discarded);
                TaskId(self.shared.next_id.fetch_add(1, Ordering::Relaxed))
            }
        }
    }

    /// Admission-controlled spawn into `job`. With `block`, Busy waits
    /// for capacity (re-checking cancellation and drain on every retry);
    /// without it, Busy surfaces immediately.
    fn spawn_job(
        &self,
        job: &Arc<JobState>,
        meta: TaskMeta,
        body: ExecBody,
        block: bool,
    ) -> Result<TaskId, AdmissionError> {
        loop {
            match self.admit_many(job, 1) {
                Ok(()) => break,
                Err(AdmissionError::Busy) if block => self.wait_for_capacity(),
                Err(e) => return Err(e),
            }
        }
        Ok(self.spawn_scoped(job, meta, body, false))
    }

    /// Submit a whole batch of tasks (into the implicit default job) in
    /// one pass: one admission reservation, one slab claim, one
    /// ascending-order dependency sweep and one worker wake for the
    /// entire subgraph. Intra-batch dependencies resolve exactly as if
    /// the tasks had been spawned one at a time, in batch order. Blocks
    /// while the runtime is at its in-flight cap; other refusals discard
    /// the whole batch (the returned ids then refer to tasks that never
    /// run), mirroring [`TaskBuilder::spawn`].
    pub fn spawn_many(&self, tasks: Vec<BatchTask>) -> Vec<TaskId> {
        self.spawn_many_blocking(&self.shared.default_job, tasks)
    }

    /// Blocking batched spawn into `job`; see [`Runtime::spawn_many`].
    fn spawn_many_blocking(&self, job: &Arc<JobState>, mut tasks: Vec<BatchTask>) -> Vec<TaskId> {
        let shared = &*self.shared;
        let n = tasks.len();
        if n == 0 {
            return Vec::new();
        }
        assert!(
            tasks.iter().all(|t| t.body.is_some()),
            "every batch task needs a body before spawn_many()"
        );
        // A batch wider than an in-flight cap could never be reserved
        // atomically: split to the cap and admit chunk by chunk.
        let cap = self
            .config
            .max_in_flight
            .unwrap_or(usize::MAX)
            .min(job.max_in_flight.unwrap_or(usize::MAX))
            .max(1);
        if n > cap {
            let mut ids = Vec::with_capacity(n);
            while !tasks.is_empty() {
                let rest = tasks.split_off(tasks.len().min(cap));
                ids.extend(self.spawn_many_blocking(job, tasks));
                tasks = rest;
            }
            return ids;
        }
        loop {
            match self.admit_many(job, n as u64) {
                Ok(()) => break,
                Err(AdmissionError::Busy) => self.wait_for_capacity(),
                Err(_) => {
                    shared
                        .stats
                        .tasks_discarded
                        .fetch_add(n as u64, Ordering::Relaxed);
                    let start = shared.next_id.fetch_add(n as u32, Ordering::Relaxed);
                    return (0..n as u32).map(|i| TaskId(start + i)).collect();
                }
            }
        }
        self.spawn_many_scoped(job, tasks)
    }

    /// The batched spawn protocol (the caller holds `n` admission
    /// reservations). Single-spawn protocol invariants are preserved
    /// wholesale — outstanding before tracker visibility, fill → fence →
    /// poison-flag ordering, spawn counters before the guard drop — but
    /// each serialisation point is paid once per *batch*: one
    /// `next_id` bump, one slab page claim, one shard-lock sweep, one
    /// poison fence, and one wake for every ready task at the end.
    fn spawn_many_scoped(&self, job: &Arc<JobState>, tasks: Vec<BatchTask>) -> Vec<TaskId> {
        let shared = &*self.shared;
        let n = tasks.len();
        shared.outstanding.inc(n as u64);
        let first = shared.next_id.fetch_add(n as u32, Ordering::Relaxed);
        let mut slots: Vec<(u32, u64)> = Vec::with_capacity(n);
        shared.slab.alloc_many(n, &mut slots);
        let refs: Vec<TaskRef> = slots
            .iter()
            .enumerate()
            .map(|(i, &(slot, gen))| TaskRef {
                tid: TaskId(first + i as u32),
                slot,
                gen,
            })
            .collect();
        // Tasks that declare accesses publish their slots before the
        // tracker makes them discoverable; the rest fill theirs under
        // the one lock `wire_spawn` takes anyway.
        for (t, &me) in tasks.iter().zip(&refs) {
            if t.meta.tracked() {
                let mut st = shared.slab.slot(me.slot).state.lock();
                self.fill_slot(&mut st, job, &t.meta, false, me);
            }
        }
        // One ascending-order sweep over the union of the batch's
        // shards; later batch entries observe earlier ones as ordinary
        // predecessors (the scoreboard is applied in batch order under
        // the one critical section). An access-free batch skips it and
        // the scratch: every task gets the empty predecessor set.
        let tracked = tasks.iter().any(|t| t.meta.tracked());
        let mut preds_out = Vec::new();
        if tracked {
            preds_out = PRED_SCRATCH.take();
            let entries: Vec<(TaskRef, &[Access])> = refs
                .iter()
                .zip(&tasks)
                .map(|(&me, t)| (me, t.meta.accesses.as_slice()))
                .collect();
            shared
                .tracker
                .submit_batch(job.id.key(), &entries, &mut preds_out);
        }
        let total_edges: usize = preds_out.iter().map(|p| p.len()).sum();
        // Bottom levels over the batch's own edges, exact in one pass
        // from last to first (submission order is a topological order).
        // An older task's id wraps past `i`: `wire_spawn` raises those.
        let mut bl: Vec<u64> = tasks.iter().map(|t| t.meta.cost).collect();
        for (i, preds) in preds_out.iter().enumerate().rev() {
            for p in preds {
                let j = p.tid.0.wrapping_sub(first) as usize;
                if j < i {
                    bl[j] = bl[j].max(tasks[j].meta.cost.saturating_add(bl[i]));
                }
            }
        }
        job.raise_max_bl(bl.iter().copied().max().unwrap_or(0));
        shared.stats.edges.add(total_edges as u64);
        shared.stats.spawned.add(n as u64);
        if !job.is_default() {
            job.spawned.add(n as u64);
        }
        // One fence + poison-flag load for the whole batch (every task
        // shares the job, hence the flag).
        let poison = {
            fence(Ordering::SeqCst);
            job.has_poison.load(Ordering::SeqCst)
        };
        let mut ready: Vec<ReadyTask> = Vec::new();
        let mut ids = Vec::with_capacity(n);
        for (i, task) in tasks.into_iter().enumerate() {
            let me = refs[i];
            ids.push(me.tid);
            let body = task.body.expect("checked in spawn_many_blocking");
            let preds = preds_out.get(i).map_or(&[][..], Vec::as_slice);
            if let Some(t) = self.wire_spawn(job, bl[i], task.meta, body, false, me, preds, poison)
            {
                ready.push(t);
            }
        }
        if tracked {
            PRED_SCRATCH.set(preds_out);
        }
        self.pool.push_affine_batch(ready);
        ids
    }

    /// Reserve in-flight slots for `n` tasks of `job` (a single spawn is
    /// a batch of one), or say why not. Every counter moves once by `n`
    /// and the batch is admitted or refused atomically — a partial batch
    /// never leaks reservations. Reservation order: job-level caps
    /// first, the global cap last, with per-job rollback when the global
    /// reservation fails — so a refusal leaves every counter untouched.
    fn admit_many(&self, job: &Arc<JobState>, n: u64) -> Result<(), AdmissionError> {
        debug_assert!(n > 0);
        let shared = &*self.shared;
        if shared.terminated.load(Ordering::SeqCst)
            || shared.lifecycle.load(Ordering::SeqCst) == LIFECYCLE_DRAINED
        {
            return Err(AdmissionError::Draining);
        }
        if job.cancelled.load(Ordering::SeqCst) {
            return Err(AdmissionError::Cancelled);
        }
        if job.qos.sheddable() && shared.shed.as_ref().is_some_and(|ctl| ctl.should_shed()) {
            shared.stats.tasks_shed.fetch_add(n, Ordering::Relaxed);
            job.shed.fetch_add(n, Ordering::Relaxed);
            return Err(AdmissionError::Shed);
        }
        // Per-job reservation. The default job is exempt: it has no
        // handle, so nothing can join, cap or inspect it — skipping its
        // counters keeps `Runtime::task` spawns free of per-job RMWs
        // (its failure and poison bookkeeping is unaffected).
        let now = if job.is_default() {
            0
        } else if let Some(cap) = job.max_in_flight {
            // The cap is inherently one shared number: reserve against
            // the exact counter, then mirror into the striped gauge
            // joiners read.
            match job
                .reserved
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                    (v + n <= cap as u64).then_some(v + n)
                }) {
                Ok(prev) => {
                    job.in_flight.inc(n);
                    prev + n
                }
                Err(_) => {
                    RuntimeStats::bump(&shared.stats.admission_rejected);
                    return Err(AdmissionError::Busy);
                }
            }
        } else {
            // Uncapped: only the local stripe is touched. No exact
            // "current" value exists cheaply, so the high-water mark is
            // sampled lazily at `stats()` instead (now = 0 skips the
            // update below).
            job.in_flight.inc(n);
            0
        };
        if let Some(cap) = self.config.max_in_flight {
            if shared
                .admitted
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| {
                    (v + n <= cap as u64).then_some(v + n)
                })
                .is_err()
            {
                // Roll back the per-job reservation (with the joiner
                // wakeup a settle would do — a joiner may have seen the
                // transient count).
                if !job.is_default() {
                    job.release_in_flight_many(n);
                }
                RuntimeStats::bump(&shared.stats.admission_rejected);
                return Err(AdmissionError::Busy);
            }
        }
        // Cancellation re-check *after* both reservations: a cancel that
        // raced in between (e.g. the deadline reaper firing while a
        // blocking spawn waited out `Busy`) would otherwise leave this
        // reservation leaked forever — the tasks it was made for are
        // never spawned, so no completion ever releases it, and the
        // job's joiners hang on a phantom in-flight count.
        if job.cancelled.load(Ordering::SeqCst) {
            if shared.track_admitted {
                shared.admitted.fetch_sub(n, Ordering::SeqCst);
            }
            if !job.is_default() {
                job.release_in_flight_many(n);
            }
            if shared.admission_waiters.load(Ordering::SeqCst) > 0 {
                let _g = shared.admission_lock.lock();
                shared.admission_cv.notify_all();
            }
            return Err(AdmissionError::Cancelled);
        }
        // Steady state the mark is already met and this is a plain load —
        // no RMW on the spawn hot path once the job has warmed up.
        if now > job.in_flight_hwm.load(Ordering::Relaxed) {
            job.in_flight_hwm.fetch_max(now, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Park a blocked spawner until a completion frees capacity. The
    /// wait is bounded: capacity freed between the failed reservation
    /// and registering as a waiter would otherwise be a lost wakeup.
    fn wait_for_capacity(&self) {
        let shared = &*self.shared;
        shared.admission_waiters.fetch_add(1, Ordering::SeqCst);
        let mut g = shared.admission_lock.lock();
        shared
            .admission_cv
            .wait_for(&mut g, Duration::from_micros(500));
        drop(g);
        shared.admission_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// The spawn protocol proper. The caller has already reserved
    /// admission for non-exempt tasks; exempt sentinels bypass admission
    /// and job accounting entirely (both key on `st.exempt`; a submitted
    /// job's sentinel still holds the job, for its observer session).
    fn spawn_scoped(
        &self,
        job: &Arc<JobState>,
        meta: TaskMeta,
        body: ExecBody,
        exempt: bool,
    ) -> TaskId {
        let shared = &*self.shared;
        // Count the task as outstanding *before* it becomes visible in the
        // dependency table: a predecessor completing concurrently could
        // otherwise release and finish it before the increment.
        shared.outstanding.inc(1);
        let tid = TaskId(shared.next_id.fetch_add(1, Ordering::Relaxed));
        let (slot_idx, gen) = shared.slab.alloc();
        let me = TaskRef {
            tid,
            slot: slot_idx,
            gen,
        };
        // Dependency discovery: only the shards covering the declared
        // regions are locked; access-free tasks skip the tracker whole —
        // and with it the early slot fill, which exists only so that
        // whoever discovers the task through the tracker (a successor
        // wiring its edge, a poisoner) finds its slot published.
        // The job id namespaces the region table, so concurrent jobs
        // touching the same datum never serialise on false edges.
        let tracked = meta.tracked();
        let mut scratch = Vec::new();
        if tracked {
            self.fill_slot(
                &mut shared.slab.slot(slot_idx).state.lock(),
                job,
                &meta,
                exempt,
                me,
            );
            scratch = PRED_SCRATCH.take();
            if scratch.len() != 1 {
                scratch = vec![Vec::new()];
            }
            shared
                .tracker
                .submit(job.id.key(), me, &meta.accesses, &mut scratch[0]);
        }
        let preds = scratch.first().map_or(&[][..], Vec::as_slice);
        // Spawn counters must be published before the task can possibly
        // complete (i.e. before `wire_spawn` drops the submission guard):
        // a completion outrunning `spawned` would let `reap` observe
        // `spawned <= completed` with zero in-flight and settle the job
        // early.
        shared.stats.edges.add(preds.len() as u64);
        shared.stats.spawned.add(1);
        if !exempt && !job.is_default() {
            job.spawned.add(1);
        }
        let poison = !exempt && {
            fence(Ordering::SeqCst);
            job.has_poison.load(Ordering::SeqCst)
        };
        // A single spawn is a batch of one: a leaf, as deep as it costs.
        job.raise_max_bl(meta.cost);
        let ready = self.wire_spawn(job, meta.cost, meta, body, exempt, me, preds, poison);
        if tracked {
            PRED_SCRATCH.set(scratch);
        }
        if let Some(t) = ready {
            // Affine push: a task body spawning on a worker thread keeps
            // its ready children on that worker's own deque.
            self.pool.push_affine(t);
        }
        tid
    }

    /// Write a freshly allocated slot's metadata (all but the label and
    /// what only `wire_spawn` knows). For a task with declared accesses
    /// this runs *before* the task becomes visible in the dependency
    /// table, and its reads must land before the spawn path's
    /// poison-flag load — that ordering (fill, fence, flag load) pairs
    /// with the poisoner side so that a racing `poison_writes` can never
    /// miss the task.
    fn fill_slot(
        &self,
        st: &mut SlotState,
        job: &Arc<JobState>,
        meta: &TaskMeta,
        exempt: bool,
        me: TaskRef,
    ) {
        debug_assert!(
            st.job.is_none() && st.reads.is_empty() && st.writes.is_empty(),
            "slot filled twice"
        );
        st.tid = me.tid;
        st.cost = meta.cost;
        st.priority = meta.priority;
        // Best-effort jobs never claim critical status (or the fast
        // workers that come with it under CriticalityAware).
        st.criticality = if job.qos.sheddable() {
            Criticality::NonCritical
        } else {
            meta.criticality
        };
        st.idempotent = meta.idempotent;
        st.exempt = exempt;
        st.job = (!job.is_default()).then(|| Arc::clone(job));
        // Only guaranteed jobs' tasks carry an EDF deadline into the
        // scheduler: a best-effort job past its deadline is *reaped*
        // (cancelled), not raced for.
        st.deadline_ns = match job.deadline_at {
            Some(d) if !exempt && !job.qos.sheddable() => {
                d.saturating_duration_since(self.shared.epoch).as_nanos() as u64
            }
            _ => crate::scheduler::NO_DEADLINE,
        };
        st.home = self.home_cluster_for(meta);
        st.reads.extend(
            meta.accesses
                .iter()
                .filter(|a| a.mode.reads())
                .map(|a| a.region),
        );
        st.writes.extend(
            meta.accesses
                .iter()
                .filter(|a| a.mode.writes())
                .map(|a| a.region),
        );
    }

    /// Locality-aware placement: route a task to the cluster whose
    /// declared data footprint it touches. The first written region (or
    /// the first read, for read-only tasks) anchors the task; if SPM
    /// ranges were declared via [`Runtime::declare_spm_ranges`], the
    /// range containing the region's start address picks the cluster
    /// (range index modulo cluster count — one scratchpad per tile
    /// group, as in the paper's runtime-managed SPM hierarchy);
    /// otherwise the region id hashes block-cyclically. Flat topologies
    /// skip all of it: every task is homeless and lands round-robin.
    fn home_cluster_for(&self, meta: &TaskMeta) -> u32 {
        let shared = &*self.shared;
        let k = shared.topology.clusters;
        if k <= 1 {
            return NO_HOME;
        }
        let anchor = meta
            .accesses
            .iter()
            .find(|a| a.mode.writes())
            .or_else(|| meta.accesses.first());
        let Some(a) = anchor else {
            return NO_HOME;
        };
        if shared.spm_declared.load(Ordering::Acquire) {
            let map = shared.spm_map.lock();
            if let Some(idx) = map.iter().position(|&(base, bytes)| {
                a.region.range.start >= base && a.region.range.start < base.saturating_add(bytes)
            }) {
                return (idx % k) as u32;
            }
        }
        shared.topology.home_cluster(a.region.id.0) as u32
    }

    /// The tail of the spawn protocol, shared by the single and batched
    /// paths: poison handling, the slot's remaining state, edge wiring
    /// (raising each direct predecessor's bottom level under the lock
    /// the edge takes anyway) and the submission-guard drop. The caller
    /// has already made the task outstanding, run dependency discovery
    /// (filling the slot first, for a task that declares accesses) and
    /// published the spawn counters; `bl` is the task's bottom level as
    /// far as the caller knows (and has raised the job's longest to),
    /// `poison` whether the job's poison flag was observed set (after
    /// the caller's fence). Returns the task when it is ready to
    /// dispatch — no predecessor found, or every wired predecessor
    /// settled before the guard dropped — and the caller pushes it
    /// (batched callers push the whole batch under a single wake).
    #[allow(clippy::too_many_arguments)]
    fn wire_spawn(
        &self,
        job: &Arc<JobState>,
        bl: u64,
        meta: TaskMeta,
        body: ExecBody,
        exempt: bool,
        me: TaskRef,
        preds: &[TaskRef],
        poison: bool,
    ) -> Option<ReadyTask> {
        let shared = &*self.shared;
        let TaskRef {
            tid,
            slot: slot_idx,
            gen,
        } = me;
        let slot = shared.slab.slot(slot_idx);
        if let Some(rec) = &shared.recorded {
            rec.lock()
                .push((meta.clone(), preds.iter().map(|p| p.tid).collect()));
        }
        // A task reading an already-poisoned range (in its own job's
        // fault domain) is doomed at spawn; a clean task that fully
        // overwrites a poisoned range (`out` access: no read of the old
        // contents) cleanses it.
        let mut poisoned_by = None;
        if poison {
            let mut poisoned = job.poisoned.lock();
            poisoned_by = meta
                .accesses
                .iter()
                .filter(|a| a.mode.reads())
                .find_map(|a| {
                    poisoned
                        .iter()
                        .find(|p| p.region.overlaps(&a.region))
                        .map(|p| (p.source, p.source_label.clone()))
                });
            if poisoned_by.is_none() {
                for a in &meta.accesses {
                    if a.mode == AccessMode::Write {
                        cleanse(&mut poisoned, &a.region);
                    }
                }
            }
        }
        // Submitted jobs' tasks stamp their admission for the
        // first-dispatch probe; the single-tenant hot path pays nothing
        // for the serving layer.
        let admitted_at = (!exempt && !job.is_default()).then(Instant::now);
        // The one spawn-side lock of a task nothing precedes: it leaves
        // with its body and never parks it in the slot. Anything else
        // parks the body *before* its edges become visible — the
        // submission guard from `alloc` keeps `pending` above zero until
        // the wiring below is done, so nobody can take it early.
        let mut ready = None;
        {
            let mut st = slot.state.lock();
            if !meta.tracked() {
                self.fill_slot(&mut st, job, &meta, exempt, me);
            }
            // Not `= bl`: the tracker has been showing a tracked task
            // since before this lock, and a successor wired from another
            // thread may have raised it already (`retire` zeroed it).
            st.bl = st.bl.max(bl);
            st.label = meta.label;
            if poisoned_by.is_some() {
                st.poisoned_by = poisoned_by;
            }
            st.admitted_at = admitted_at;
            if !exempt && self.config.soft_timeout.is_some() {
                // An idempotent body leaves a duplicate behind for
                // straggler hedging.
                st.hedge_body = body.duplicate();
            }
            if preds.is_empty() {
                ready = Some(shared.release(&mut st, slot_idx, gen, body));
            } else {
                st.body = Some(body);
            }
        }
        // Wire edges. Every edge is counted — in one add — *before* the
        // first becomes visible in a predecessor's successor list: a
        // predecessor may settle and decrement the instant its lock
        // drops. Stale edges are returned with the guard, below.
        if !preds.is_empty() {
            slot.pending.fetch_add(preds.len() as u32, Ordering::AcqRel);
        }
        let mut live_preds = 0u32;
        let mut raised = 0u64;
        for p in preds {
            let pslot = shared.slab.slot(p.slot);
            // Generations only move forward, so one that has moved on
            // says "settled, owes us no release" without the lock.
            if pslot.gen.load(Ordering::Acquire) != p.gen {
                continue;
            }
            if let Some(mut pst) = pslot.lock_live(p.gen) {
                pst.succs.push(slot_idx);
                pst.bl = pst.bl.max(pst.cost.saturating_add(bl));
                raised = raised.max(pst.bl);
                live_preds += 1;
            }
        }
        job.raise_max_bl(raised);
        let stale = preds.len() as u32 - live_preds;
        if let Some(t) = &shared.tracer {
            // arg = predecessor count << 1 | ready-at-spawn (ready tasks
            // get no separate Ready event — spawn implies it).
            let ready = (live_preds == 0) as u64;
            t.emit(
                TraceEventKind::Spawn,
                tid,
                slot_idx,
                gen,
                ((preds.len() as u64) << 1) | ready,
            );
        }
        if live_preds == 0 {
            shared.stats.ready_at_spawn.add(1);
        }
        // Drop the submission guard and the stale edges with it; with
        // no live predecessor left — every one beat us to completion —
        // the release falls to us.
        if ready.is_none() && slot.pending.fetch_sub(1 + stale, Ordering::AcqRel) == 1 + stale {
            let mut st = slot.state.lock();
            let body = st
                .body
                .take()
                .expect("spawn-released task must still hold its body");
            if live_preds > 0 {
                if let Some(t) = &shared.tracer {
                    t.emit(TraceEventKind::Ready, tid, slot_idx, gen, 0);
                }
            }
            ready = Some(shared.release(&mut st, slot_idx, gen, body));
        }
        ready
    }

    /// OmpSs `taskwait on(...)`: block until every task spawned so far
    /// that touches `handle`'s region has completed — without waiting for
    /// unrelated tasks. Implemented the way Nanos does: submit a sentinel
    /// with an `inout` dependence on the region and wait for it alone.
    pub fn taskwait_on<T: ?Sized>(&self, handle: &DataHandle<T>) {
        self.taskwait_on_region(handle.region());
    }

    /// Like [`Runtime::taskwait_on`] for an explicit region (e.g. one
    /// block of a larger datum). Returns even when the region was
    /// poisoned by a failure — the sentinel is exempt from poison (and
    /// from fault injection), so the waiter cannot hang; inspect
    /// [`Runtime::try_taskwait`] or [`Runtime::poisoned_regions`] to
    /// learn about the failure.
    pub fn taskwait_on_region(&self, region: Region) {
        self.taskwait_on_region_for(&self.shared.default_job, region);
    }

    /// `taskwait on(region)` scoped to one job's dependency namespace:
    /// the sentinel chains on `job`'s accesses to the region only.
    fn taskwait_on_region_for(&self, job: &Arc<JobState>, region: Region) {
        if self.shared.terminated.load(Ordering::SeqCst) {
            // Forced drain: the workers are gone (or going); a sentinel
            // would never run and the wait below would hang.
            return;
        }
        let done = Arc::new((Mutex::new(false), Condvar::new()));
        let signal = Arc::clone(&done);
        let mut meta = TaskMeta::labelled("taskwait-on");
        meta.accesses.push(Access {
            region,
            mode: AccessMode::ReadWrite,
        });
        self.spawn_scoped(
            job,
            meta,
            ExecBody::once(move || {
                let (lock, cv) = &*signal;
                *lock.lock() = true;
                cv.notify_all();
            }),
            true,
        );
        let (lock, cv) = &*done;
        let mut finished = lock.lock();
        while !*finished {
            // Bounded waits so a forced drain (which cannot reach this
            // private condvar) still unblocks the caller.
            cv.wait_for(&mut finished, Duration::from_millis(5));
            if self.shared.terminated.load(Ordering::SeqCst) {
                break;
            }
        }
    }

    /// Block until every task spawned so far has completed. Panics with
    /// the full [`FaultReport`] if any task failed. Must not be called
    /// from inside a task body.
    pub fn taskwait(&self) {
        if let Err(report) = self.try_taskwait() {
            panic!("{report}");
        }
    }

    /// Like [`Runtime::taskwait`], but reports failures as a structured
    /// [`FaultReport`] (every failed task with label, attempt count and
    /// cause chain, plus a snapshot of every region range still
    /// poisoned) instead of panicking. The report covers the *default
    /// job's* fault domain; submitted jobs report through
    /// `JobHandle::try_join`.
    pub fn try_taskwait(&self) -> Result<(), FaultReport> {
        self.shared.wait_outstanding(None);
        // Quiescent: the next phase is a new TDG with its own longest path.
        self.shared.default_job.max_bl.store(0, Ordering::Relaxed);
        self.shared.default_job.take_report()
    }

    /// Region ranges currently poisoned by failed writers (in the
    /// default job's fault domain; see `JobHandle::poisoned_regions` for
    /// a submitted job's).
    pub fn poisoned_regions(&self) -> Vec<Region> {
        self.shared
            .default_job
            .poisoned
            .lock()
            .iter()
            .map(|p| p.region)
            .collect()
    }

    /// Poison `region` from *outside* the task graph — the machine-check
    /// entry point: hardware (see `raa-core`'s `MceRouter`) detected an
    /// uncorrectable error in the memory backing this region. Pending
    /// readers fail fast with a typed [`TaskError::Poisoned`] whose
    /// source is the synthetic hardware task id [`Runtime::HW_SOURCE`];
    /// a later task that fully overwrites the range (`Write` access)
    /// cleanses it — exactly how FEIR/AFEIR recovery tasks repair data
    /// lost to a DUE.
    ///
    /// Hardware faults are physical, not per-tenant: the region is
    /// poisoned in *every* live job's fault domain.
    pub fn poison_region(&self, region: Region, label: impl Into<String>) {
        let label = label.into();
        if let Some(fr) = &self.shared.flight {
            fr.request_dump(FlightReason::HardwareFault {
                region: label.clone(),
            });
        }
        let jobs = self.shared.jobs.lock().live();
        for job in &jobs {
            self.shared
                .poison_writes(job, Self::HW_SOURCE, &label, &[region]);
        }
    }

    /// Synthetic source id for failures originating in hardware rather
    /// than in a task (see [`Runtime::poison_region`]).
    pub const HW_SOURCE: TaskId = TaskId(u32::MAX);

    /// Forget all poison in every job: the caller asserts the data has
    /// been repaired out-of-band (e.g. recomputed from a checkpoint).
    /// Pending tasks that were already marked as victims are unmarked
    /// and will run.
    pub fn clear_poison(&self) {
        let jobs = self.shared.jobs.lock().live();
        for job in &jobs {
            job.poisoned.lock().clear();
            job.has_poison.store(false, Ordering::SeqCst);
        }
        self.shared.slab.for_each_live(|_, slot| {
            slot.state.lock().poisoned_by = None;
        });
        self.shared.has_poison.store(false, Ordering::SeqCst);
    }

    /// Targeted variant of [`Runtime::clear_poison`]: forget poison for
    /// one region range only (in every job), unmarking pending victims
    /// whose declared reads no longer overlap any remaining poison in
    /// their job. Partial overlaps leave the uncovered remainder
    /// poisoned.
    pub fn clear_poison_region(&self, region: Region) {
        let jobs = self.shared.jobs.lock().live();
        for job in &jobs {
            self.shared.clear_job_poison_region(job, &region);
        }
    }

    /// Runtime counters snapshot, including the pool's worker fault and
    /// park/wake counters and the scheduler's steal/overflow counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared
            .merged_stats(&self.queues, &self.pool.stats_handle())
    }

    /// Where the scaling bottlenecks are: per-victim steal hit rates,
    /// the injector's share of ready-task traffic, and the slab's
    /// remote-free ratio. Unlike [`Runtime::stats`] this allocates (the
    /// per-victim table), so it is a diagnostics call, not a hot-path
    /// one.
    pub fn contention_report(&self) -> ContentionReport {
        let (per_victim, injector_pushes, injector_overflow, dispatches) =
            self.pool.contention_data();
        let (slab_local_frees, slab_remote_frees) = self.shared.slab.free_stats();
        ContentionReport {
            per_victim,
            per_cluster: self.pool.cluster_data(),
            injector_pushes,
            injector_overflow,
            dispatches,
            slab_local_frees,
            slab_remote_frees,
        }
    }

    /// Whether event tracing was enabled at construction.
    pub fn tracing_enabled(&self) -> bool {
        self.shared.tracer.is_some()
    }

    /// Whether the telemetry plane (and with it the sampler and flight
    /// recorder) was enabled at construction.
    pub fn telemetry_enabled(&self) -> bool {
        self.shared.telemetry.is_some()
    }

    /// Aggregate the telemetry plane on demand: merge every worker
    /// cell's histograms with the runtime's always-on counters and the
    /// per-tenant breakdowns. `None` when telemetry is off. Safe to
    /// call mid-run — recording is lock-free, so a snapshot is a
    /// consistent-enough view, not a barrier.
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.shared.telemetry.as_ref()?;
        Some(assemble_snapshot(
            &self.shared,
            &self.queues,
            &self.pool.stats_handle(),
            self.config.workers,
        ))
    }

    /// Drain the sampler's accumulated per-tick deltas (at most the
    /// last 128 ticks; older ones fell off the front). Empty when
    /// telemetry is off.
    pub fn telemetry_deltas(&self) -> Vec<TelemetryDelta> {
        self.sampler
            .as_ref()
            .map(|s| s.take_deltas())
            .unwrap_or_default()
    }

    /// Anomalies the sampler's trigger rules have fired so far (the
    /// count survives [`Runtime::telemetry_deltas`] draining).
    pub fn telemetry_anomalies(&self) -> u64 {
        self.sampler.as_ref().map_or(0, |s| s.anomaly_count())
    }

    /// Materialise every pending flight-recorder dump into a
    /// post-mortem [`FlightBundle`]: the ring contents as a Chrome
    /// trace, a telemetry snapshot rendered to JSON, and the contention
    /// report — captured now, which is as close to the fault as the
    /// caller asked for. Empty when telemetry is off or nothing
    /// triggered.
    pub fn take_flight_bundles(&self) -> Vec<FlightBundle> {
        let Some(fr) = &self.shared.flight else {
            return Vec::new();
        };
        let dumps = fr.take_dumps();
        if dumps.is_empty() {
            return Vec::new();
        }
        let snapshot = self
            .telemetry_snapshot()
            .expect("flight recorder implies the telemetry plane");
        let snapshot_json = crate::export::telemetry_json(&snapshot);
        let c = self.contention_report();
        let contention = format!(
            "injector share {:.1}% ({} pushes, {} overflow) of {} dispatches; \
             slab remote-free {:.1}% ({} local / {} remote); steal hit rates {}",
            c.injector_share() * 100.0,
            c.injector_pushes,
            c.injector_overflow,
            c.dispatches,
            c.remote_free_ratio() * 100.0,
            c.slab_local_frees,
            c.slab_remote_frees,
            c.per_victim
                .iter()
                .enumerate()
                .map(|(w, v)| format!("w{w}:{:.0}%", v.hit_rate() * 100.0))
                .collect::<Vec<_>>()
                .join(" "),
        );
        dumps
            .into_iter()
            .map(|d| {
                let events = d.len();
                let trace = Trace {
                    workers: d.tracks.len(),
                    dropped: vec![0; d.tracks.len()],
                    tracks: d.tracks,
                };
                FlightBundle {
                    reason: d.reason,
                    at_ns: d.at_ns,
                    events,
                    snapshot_json: snapshot_json.clone(),
                    trace_json: crate::export::chrome_trace_json(&trace, None),
                    contention: contention.clone(),
                }
            })
            .collect()
    }

    /// Drain everything the tracer recorded since the last drain (or
    /// since construction). `None` when tracing is off. Usually called
    /// after a [`Runtime::taskwait`]; draining mid-run is safe but an
    /// event stream cut mid-task will contain unmatched starts.
    pub fn drain_trace(&self) -> Option<Trace> {
        self.shared.tracer.as_ref().map(|t| t.drain())
    }

    /// Tasks executed per worker (load-balance diagnostics).
    pub fn per_worker_executed(&self) -> Vec<u64> {
        self.pool.per_worker_executed()
    }

    /// The recorded TDG, when [`RuntimeConfig::record_graph`] was set.
    /// Reflects every task spawned so far.
    pub fn graph(&self) -> Option<TaskGraph> {
        self.shared.recorded.as_ref().map(|rec| {
            let rec = rec.lock();
            let mut g = TaskGraph::new();
            for (meta, preds) in rec.iter() {
                g.add_task(meta.clone(), preds);
            }
            g
        })
    }

    /// The recorded [`TaskProgram`], when
    /// [`RuntimeConfig::record_program`] was set: the TDG of every task
    /// spawned so far, the measured duration of every body that ran to
    /// success, and the classified reference stream of every body that
    /// emitted one (via [`crate::program::emit`]). Usually called after
    /// a [`Runtime::taskwait`].
    pub fn program(&self) -> Option<TaskProgram> {
        let cap = self.shared.capture.as_ref()?;
        let graph = self
            .graph()
            .expect("record_program implies graph recording");
        let mut prog = TaskProgram::from_graph(graph);
        for &(tid, ns) in cap.durations.lock().iter() {
            prog.set_measured(tid, ns);
        }
        for (tid, events) in cap.streams.lock().iter() {
            prog.set_stream(*tid, events.clone());
        }
        prog.set_spm_ranges(cap.spm_ranges.lock().clone());
        Some(prog)
    }

    /// Declare the SPM-mapped `(base, bytes)` ranges of the program's
    /// data layout, to be carried by the recorded [`TaskProgram`] (the
    /// machine-replay substrate needs them to route strided references).
    /// With a clustered [`Topology`] the ranges also drive locality-aware
    /// placement: tasks spawned after this call are homed on the cluster
    /// owning the SPM range their anchor region falls in (range index
    /// modulo cluster count).
    pub fn declare_spm_ranges(&self, ranges: &[(u64, u64)]) {
        if let Some(cap) = &self.shared.capture {
            let mut r = cap.spm_ranges.lock();
            r.clear();
            r.extend_from_slice(ranges);
        }
        {
            let mut m = self.shared.spm_map.lock();
            m.clear();
            m.extend_from_slice(ranges);
        }
        self.shared
            .spm_declared
            .store(!ranges.is_empty(), Ordering::Release);
    }

    // ----------------------------------------------------- job layer

    /// Open a new job: an isolated fault domain with its own retry
    /// policy, fault plan, observer session, failure list and poison
    /// set. Refused once the runtime is draining, or at the
    /// [`RuntimeConfig::max_jobs`] cap.
    pub fn submit(&self, spec: JobSpec) -> Result<JobHandle<'_>, AdmissionError> {
        let shared = &*self.shared;
        if shared.lifecycle.load(Ordering::SeqCst) != LIFECYCLE_RUNNING {
            return Err(AdmissionError::Draining);
        }
        let deadline_at = spec.deadline.map(|d| Instant::now() + d);
        let job = {
            let mut jobs = shared.jobs.lock();
            if let Some(cap) = self.config.max_jobs {
                if jobs.submitted_count() >= cap {
                    RuntimeStats::bump(&shared.stats.admission_rejected);
                    return Err(AdmissionError::Busy);
                }
            }
            let session = Arc::new(TraceSession::with_flight(
                shared.tracer.clone(),
                spec.observer
                    .clone()
                    .or_else(|| self.config.observer.clone()),
                shared.flight.clone(),
            ));
            let retry = spec.retry.unwrap_or(self.config.retry);
            let plan = spec
                .fault_plan
                .clone()
                .or_else(|| self.config.fault_plan.clone());
            // Per-tenant histograms exist only while the plane is on:
            // exact per-job breakdowns, zero cost otherwise.
            let telemetry = shared
                .telemetry
                .as_ref()
                .map(|_| Arc::new(crate::telemetry::JobTelemetry::default()));
            jobs.insert(|id| {
                Arc::new(JobState::new(
                    id,
                    spec.label.clone(),
                    spec.qos,
                    retry,
                    plan,
                    session,
                    spec.max_in_flight,
                    deadline_at,
                    spec.cost_hint.unwrap_or(0),
                    telemetry,
                ))
            })
        };
        // Deadlined jobs register with the reaper. Guaranteed jobs are
        // only *marked* at expiry (and their tasks ride the EDF lane);
        // best-effort jobs are cancelled outright (see `Shared::reap`).
        if let Some(at) = deadline_at {
            self.ensure_reaper();
            shared.reaper.lock().push(ReapAt {
                at,
                job: Arc::downgrade(&job),
            });
            shared.reaper_cv.notify_all();
        }
        RuntimeStats::bump(&shared.stats.jobs_submitted);
        Ok(JobHandle { rt: self, job })
    }

    /// Wait until `job` has no in-flight tasks (or the runtime was
    /// force-terminated). Returns false on deadline expiry.
    fn wait_job(&self, job: &JobState, deadline: Option<Instant>) -> bool {
        let mut g = job.wait.lock();
        while job.in_flight() > 0 && !self.shared.terminated.load(Ordering::SeqCst) {
            // Bounded poll: uncapped jobs' completions touch only a
            // striped line and never notify (capped jobs still notify on
            // the exact reservation counter's 1→0 edge, which just makes
            // a wakeup arrive early).
            let poll = Instant::now() + QUIESCE_POLL;
            match deadline {
                Some(d) => {
                    if Instant::now() >= d {
                        return false;
                    }
                    job.wait_cv.wait_until(&mut g, d.min(poll));
                }
                None => {
                    job.wait_cv.wait_until(&mut g, poll);
                }
            }
        }
        true
    }

    /// Wind the runtime down within `timeout`, in three phases:
    ///
    /// 1. **Graceful** — stop admitting new jobs (existing jobs may keep
    ///    spawning) and give in-flight work ¾ of the budget to finish.
    /// 2. **Cancel** — cancel every live job: queued tasks flow through
    ///    the workers as recorded skips (releasing their successors), so
    ///    quiescence converges without queue surgery.
    /// 3. **Forced** — at the deadline, mark the runtime terminated,
    ///    request pool shutdown without joining (a worker wedged in a
    ///    long body cannot hold `drain` past its deadline; `Drop` still
    ///    joins) and release every waiter.
    ///
    /// After a drain the runtime admits nothing; it exists to be
    /// dropped. Safe to call with an active fault plan killing workers:
    /// kills are ignored once shutdown has begun (see
    /// `pool::injected_death`) and the watchdog never respawns past it.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let start = Instant::now();
        let shared = &*self.shared;
        // First drainer wins the transition; latecomers just wait again.
        let _ = shared.lifecycle.compare_exchange(
            LIFECYCLE_RUNNING,
            LIFECYCLE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
        let deadline = start + timeout;
        let grace = start + timeout.mul_f64(0.75);
        let mut quiesced = shared.wait_outstanding(Some(grace));
        let mut cancelled_jobs = 0usize;
        if !quiesced {
            let jobs = shared.jobs.lock().live();
            cancelled_jobs = jobs.iter().filter(|job| shared.cancel_job(job)).count();
            self.pool.wake_all();
            quiesced = shared.wait_outstanding(Some(deadline));
        }
        let forced = !quiesced;
        if forced {
            if let Some(fr) = &shared.flight {
                fr.request_dump(FlightReason::DrainTimeout);
            }
            shared.terminated.store(true, Ordering::SeqCst);
            self.pool.request_shutdown();
            {
                let _g = shared.wait.lock();
                shared.wait_cv.notify_all();
            }
            for job in shared.jobs.lock().live() {
                let _g = job.wait.lock();
                job.wait_cv.notify_all();
            }
            {
                let _g = shared.admission_lock.lock();
                shared.admission_cv.notify_all();
            }
        }
        shared.lifecycle.store(LIFECYCLE_DRAINED, Ordering::SeqCst);
        DrainReport {
            timed_out: !quiesced,
            forced,
            cancelled_jobs,
            outstanding_at_exit: shared.outstanding.read(),
            elapsed: start.elapsed(),
        }
    }

    /// True once [`Runtime::drain`] has begun (new jobs are refused).
    pub fn is_draining(&self) -> bool {
        self.shared.lifecycle.load(Ordering::SeqCst) != LIFECYCLE_RUNNING
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        // Wait for in-flight work without propagating panics (drop must
        // not panic), then the pool's own Drop joins the workers. A
        // force-terminated runtime skips the wait: its queued tasks are
        // dropped with the queues.
        self.shared.wait_outstanding(None);
        // Stop and join the deadline reaper (if it ever spawned): the
        // flag must be published under the reaper lock so a reaper
        // mid-wait cannot miss the notify.
        self.shared.reaper_stop.store(true, Ordering::SeqCst);
        {
            let _g = self.shared.reaper.lock();
            self.shared.reaper_cv.notify_all();
        }
        if let Some(h) = self.reaper_thread.lock().take() {
            let _ = h.join();
        }
        // Same pattern for the telemetry sampler: publish stop under
        // its lock so a sampler mid-wait cannot miss the notify.
        if let Some(s) = &self.sampler {
            s.stop.store(true, Ordering::SeqCst);
            if let Ok(_g) = s.lock.lock() {
                s.cv.notify_all();
            }
        }
        if let Some(h) = self.sampler_thread.lock().take() {
            let _ = h.join();
        }
    }
}

/// A task declaration: label, dependencies, cost hints and the body.
/// The scope `S` says where it goes: [`TaskBuilder`] is attached to a
/// runtime and a job and ends in [`TaskBuilder::spawn`]; [`BatchTask`]
/// is detached, one entry of a [`TaskScope::spawn_many`] batch.
pub struct Task<S> {
    scope: S,
    meta: TaskMeta,
    body: Option<ExecBody>,
}

/// Scope of a [`BatchTask`]: no runtime yet.
pub struct Detached;

/// Scope of a [`TaskBuilder`]: the runtime and job it spawns into.
pub struct Attached<'rt> {
    rt: &'rt Runtime,
    job: &'rt Arc<JobState>,
}

/// Fluent task construction: declare label, dependencies, cost hints and
/// the body, then [`TaskBuilder::spawn`].
pub type TaskBuilder<'rt> = Task<Attached<'rt>>;

/// One entry of a [`TaskScope::spawn_many`] batch: the same declaration
/// surface as [`TaskBuilder`], detached from a runtime so whole
/// subgraphs can be described up front and submitted in one pass.
pub type BatchTask = Task<Detached>;

impl<S> Task<S> {
    fn labelled(scope: S, label: impl Into<Cow<'static, str>>) -> Self {
        Task {
            scope,
            meta: TaskMeta::labelled(label),
            body: None,
        }
    }

    /// Declare a read (`in`) dependency on a whole datum.
    pub fn reads<T: ?Sized>(mut self, h: &DataHandle<T>) -> Self {
        self.meta.accesses.push(Access {
            region: h.region(),
            mode: AccessMode::Read,
        });
        self
    }

    /// Declare a write (`out`) dependency on a whole datum.
    pub fn writes<T: ?Sized>(mut self, h: &DataHandle<T>) -> Self {
        self.meta.accesses.push(Access {
            region: h.region(),
            mode: AccessMode::Write,
        });
        self
    }

    /// Declare an `inout` dependency on a whole datum.
    pub fn updates<T: ?Sized>(mut self, h: &DataHandle<T>) -> Self {
        self.meta.accesses.push(Access {
            region: h.region(),
            mode: AccessMode::ReadWrite,
        });
        self
    }

    /// Declare a dependency on an explicit region (e.g. a block).
    pub fn region(mut self, region: Region, mode: AccessMode) -> Self {
        self.meta.accesses.push(Access { region, mode });
        self
    }

    /// Cost hint in abstract work units (used by criticality analysis).
    pub fn cost(mut self, cost: u64) -> Self {
        self.meta.cost = cost;
        self
    }

    /// Scheduling priority (higher runs earlier among ready tasks).
    pub fn priority(mut self, priority: i32) -> Self {
        self.meta.priority = priority;
        self
    }

    /// Explicit criticality annotation (§3.1: "task criticality can be
    /// simply annotated by the programmer").
    pub fn criticality(mut self, c: Criticality) -> Self {
        self.meta.criticality = c;
        self
    }

    /// The task body (one-shot; never re-executed).
    pub fn body(mut self, f: impl FnOnce() + Send + 'static) -> Self {
        self.body = Some(ExecBody::once(f));
        self
    }

    /// An idempotent task body: the programmer promises that re-running
    /// it is safe, which lets the [`RetryPolicy`] re-execute the task
    /// after a panic instead of failing it.
    pub fn idempotent(mut self, f: impl Fn() + Send + Sync + 'static) -> Self {
        self.meta.idempotent = true;
        self.body = Some(ExecBody::retryable(f));
        self
    }
}

impl BatchTask {
    /// Begin describing a batch entry.
    pub fn new(label: impl Into<Cow<'static, str>>) -> Self {
        Task::labelled(Detached, label)
    }
}

impl TaskBuilder<'_> {
    /// Submit the task. Panics if no body was provided. Blocks while the
    /// job (or runtime) is at its in-flight cap; if the job was
    /// cancelled, the runtime is draining, or the task was shed, the
    /// task is silently discarded (the id then refers to a task that
    /// never runs). Use [`TaskBuilder::try_spawn`] to observe refusals.
    pub fn spawn(self) -> TaskId {
        let body = self.body.expect("task needs a body before spawn()");
        let Attached { rt, job } = self.scope;
        rt.spawn_blocking(job, self.meta, body)
    }

    /// Submit the task without blocking: admission refusals (including
    /// `Busy` at an in-flight cap) surface as errors instead of waiting
    /// or silently discarding. Panics if no body was provided.
    pub fn try_spawn(self) -> Result<TaskId, AdmissionError> {
        let body = self.body.expect("task needs a body before try_spawn()");
        let Attached { rt, job } = self.scope;
        rt.spawn_job(job, self.meta, body, false)
    }
}

/// A live job: an isolated fault domain inside a shared [`Runtime`].
///
/// Tasks spawned through the handle are tagged with the job's
/// generation-counted [`JobId`]; their dependency tracking, retry
/// budget, failure reports, poisoned regions and observer events are
/// all scoped to this job and never leak into (or out of) other jobs.
///
/// Dropping the handle does not cancel the job; in-flight tasks finish
/// and the job's slot is reclaimed once they have.
pub struct JobHandle<'rt> {
    rt: &'rt Runtime,
    job: Arc<JobState>,
}

impl<'rt> JobHandle<'rt> {
    /// The job's generation-counted id.
    pub fn id(&self) -> JobId {
        self.job.id
    }

    /// The label given at submission.
    pub fn label(&self) -> &str {
        &self.job.label
    }

    /// The job's quality-of-service class.
    pub fn qos(&self) -> QosClass {
        self.job.qos
    }

    /// Begin building a task inside this job.
    pub fn task(&self, label: impl Into<Cow<'static, str>>) -> TaskBuilder<'_> {
        let (rt, job) = (self.rt, &self.job);
        Task::labelled(Attached { rt, job }, label)
    }

    /// Register a datum for dependency tracking (regions are global, so
    /// jobs may share handles; *dependencies* still never cross jobs).
    pub fn register<T>(&self, name: impl Into<String>, value: T) -> DataHandle<T> {
        DataHandle::new(name, value)
    }

    /// Cancel the job: new spawns are refused and queued tasks are
    /// skipped (recorded as [`TaskError::Cancelled`], successors
    /// released so the graph still quiesces). Tasks already executing
    /// run to completion. Returns true on the first call.
    pub fn cancel(&self) -> bool {
        self.rt.shared.cancel_job(&self.job)
    }

    /// Wait for every task in this job to settle, then report: `Ok` if
    /// all succeeded, otherwise the job's [`FaultReport`] (failures and
    /// still-poisoned regions). Resets the failure list.
    pub fn try_join(&self) -> Result<(), FaultReport> {
        self.rt.wait_job(&self.job, None);
        self.job.take_report()
    }

    /// [`JobHandle::try_join`] with a deadline: `None` if the job did
    /// not settle within `timeout` (no state is consumed; join again).
    pub fn join_timeout(&self, timeout: Duration) -> Option<Result<(), FaultReport>> {
        // One absolute deadline computed up front: every re-wait after a
        // spurious (or too-early) wakeup targets the *remainder* of the
        // timeout, never a fresh full one — `join_timeout(t)` returns
        // within ~t even under a notify storm.
        let deadline = Instant::now() + timeout;
        if !self.rt.wait_job(&self.job, Some(deadline)) {
            return None;
        }
        Some(self.job.take_report())
    }

    /// Wait for the job and panic on failure (test/example convenience).
    pub fn join(&self) {
        if let Err(report) = self.try_join() {
            panic!("job '{}' failed:\n{report}", self.job.label);
        }
    }

    /// Block until a specific region's chain inside this job completes.
    pub fn taskwait_on_region(&self, region: Region) {
        self.rt.taskwait_on_region_for(&self.job, region);
    }

    /// Block until the chain on `h`'s region inside this job completes.
    pub fn taskwait_on<T: ?Sized>(&self, h: &DataHandle<T>) {
        self.taskwait_on_region(h.region());
    }

    /// Regions currently poisoned in this job's fault domain.
    pub fn poisoned_regions(&self) -> Vec<Region> {
        self.job.poisoned.lock().iter().map(|p| p.region).collect()
    }

    /// Forget all of this job's poisoned regions.
    pub fn clear_poison(&self) {
        self.rt.shared.clear_job_poison(&self.job);
    }

    /// Forget poison overlapping `region` in this job (partial overlaps
    /// are split; see [`Runtime::clear_poison_region`]).
    pub fn clear_poison_region(&self, region: Region) {
        self.rt.shared.clear_job_poison_region(&self.job, &region);
    }

    /// Per-job task counters.
    pub fn job_stats(&self) -> JobStats {
        self.job.stats()
    }

    /// A point-in-time snapshot of the job's serving metrics: queue
    /// depth, running/completed/failed/shed counts, observed queue
    /// delays and whether the job's deadline has been missed. Cheap
    /// (a handful of relaxed loads) — safe to poll from a monitor.
    pub fn metrics(&self) -> crate::job::JobMetrics {
        self.job.metrics()
    }

    /// Tasks currently admitted and not yet settled.
    pub fn in_flight(&self) -> u64 {
        self.job.in_flight()
    }

    /// Submit a whole subgraph into this job in one pass; see
    /// [`Runtime::spawn_many`].
    pub fn spawn_many(&self, tasks: Vec<BatchTask>) -> Vec<TaskId> {
        self.rt.spawn_many_blocking(&self.job, tasks)
    }
}

impl Drop for JobHandle<'_> {
    fn drop(&mut self) {
        // Reclaim the job's table slot if it has fully settled; live
        // tasks hold `Arc<JobState>`s, so an active job's entry simply
        // stays until the runtime drops. Index 0 (default job) is never
        // removed.
        if self.job.id.index != 0 && self.job.in_flight() == 0 {
            self.rt.shared.jobs.lock().remove(self.job.id);
        }
    }
}

/// The task-spawning surface shared by [`Runtime`] (implicit default
/// job) and [`JobHandle`] (explicit job). Solver and benchmark code
/// written against `TaskScope` runs unchanged in either mode.
pub trait TaskScope {
    /// Begin building a task in this scope.
    fn task(&self, label: impl Into<Cow<'static, str>>) -> TaskBuilder<'_>;
    /// Submit a whole batch of tasks into this scope in one pass.
    fn spawn_many(&self, tasks: Vec<BatchTask>) -> Vec<TaskId>;
    /// Block until the chain on `region` in this scope completes.
    fn taskwait_on_region(&self, region: Region);
    /// Wait for this scope's tasks and report failures.
    fn try_wait(&self) -> Result<(), FaultReport>;
    /// Regions currently poisoned in this scope's fault domain.
    fn poisoned_regions(&self) -> Vec<Region>;
    /// Declare scratchpad ranges for replay capture.
    fn declare_spm_ranges(&self, ranges: &[(u64, u64)]);

    /// Register a datum for dependency tracking.
    fn register<T>(&self, name: impl Into<String>, value: T) -> DataHandle<T> {
        DataHandle::new(name, value)
    }

    /// Block until the chain on `h`'s region in this scope completes.
    fn taskwait_on<T: ?Sized>(&self, h: &DataHandle<T>) {
        self.taskwait_on_region(h.region());
    }
}

impl TaskScope for Runtime {
    fn task(&self, label: impl Into<Cow<'static, str>>) -> TaskBuilder<'_> {
        Runtime::task(self, label)
    }
    fn spawn_many(&self, tasks: Vec<BatchTask>) -> Vec<TaskId> {
        Runtime::spawn_many(self, tasks)
    }
    fn taskwait_on_region(&self, region: Region) {
        Runtime::taskwait_on_region(self, region);
    }
    fn try_wait(&self) -> Result<(), FaultReport> {
        self.try_taskwait()
    }
    fn poisoned_regions(&self) -> Vec<Region> {
        Runtime::poisoned_regions(self)
    }
    fn declare_spm_ranges(&self, ranges: &[(u64, u64)]) {
        Runtime::declare_spm_ranges(self, ranges);
    }
}

impl TaskScope for JobHandle<'_> {
    fn task(&self, label: impl Into<Cow<'static, str>>) -> TaskBuilder<'_> {
        JobHandle::task(self, label)
    }
    fn spawn_many(&self, tasks: Vec<BatchTask>) -> Vec<TaskId> {
        JobHandle::spawn_many(self, tasks)
    }
    fn taskwait_on_region(&self, region: Region) {
        JobHandle::taskwait_on_region(self, region);
    }
    fn try_wait(&self) -> Result<(), FaultReport> {
        self.try_join()
    }
    fn poisoned_regions(&self) -> Vec<Region> {
        JobHandle::poisoned_regions(self)
    }
    fn declare_spm_ranges(&self, ranges: &[(u64, u64)]) {
        self.rt.declare_spm_ranges(ranges);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Criticality;
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

    fn rt(workers: usize) -> Runtime {
        Runtime::new(RuntimeConfig::with_workers(workers))
    }

    #[test]
    fn spawn_many_runs_all() {
        let rt = rt(2);
        let hits = Arc::new(AtomicU64::new(0));
        let batch: Vec<BatchTask> = (0..256)
            .map(|i| {
                let h = Arc::clone(&hits);
                BatchTask::new(format!("b{i}")).body(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        let ids = rt.spawn_many(batch);
        assert_eq!(ids.len(), 256);
        // Batch ids are one contiguous claim.
        for w in ids.windows(2) {
            assert_eq!(w[1].0, w[0].0 + 1);
        }
        rt.taskwait();
        assert_eq!(hits.load(Ordering::SeqCst), 256);
        assert_eq!(rt.stats().spawned, 256);
    }

    #[test]
    fn spawn_many_wires_intra_batch_edges() {
        let rt = rt(3);
        let data = rt.register("x", 0u64);
        // writer -> 8 readers -> writer -> 8 readers, all in ONE batch:
        // every reader must observe the value of the latest preceding
        // batch-order writer, exactly as sequential spawns would wire it.
        let cell = Arc::new(AtomicU64::new(0));
        let bad = Arc::new(AtomicU64::new(0));
        let mut batch = Vec::new();
        for round in 1..=4u64 {
            let c = Arc::clone(&cell);
            batch.push(BatchTask::new("w").writes(&data).body(move || {
                c.store(round, Ordering::SeqCst);
            }));
            for _ in 0..8 {
                let c = Arc::clone(&cell);
                let b = Arc::clone(&bad);
                batch.push(BatchTask::new("r").reads(&data).body(move || {
                    if c.load(Ordering::SeqCst) != round {
                        b.fetch_add(1, Ordering::SeqCst);
                    }
                }));
            }
        }
        rt.spawn_many(batch);
        rt.taskwait();
        assert_eq!(bad.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn spawn_many_chunks_past_job_cap() {
        let rt = rt(2);
        let job = rt.submit(JobSpec::new("capped").max_in_flight(4)).unwrap();
        let hits = Arc::new(AtomicU64::new(0));
        let batch: Vec<BatchTask> = (0..64)
            .map(|_| {
                let h = Arc::clone(&hits);
                BatchTask::new("c").body(move || {
                    h.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        // 64 tasks through a cap of 4: the batch must chunk (an
        // all-or-nothing reservation of 64 could never succeed).
        let ids = job.spawn_many(batch);
        assert_eq!(ids.len(), 64);
        job.join();
        assert_eq!(hits.load(Ordering::SeqCst), 64);
        assert!(job.job_stats().in_flight_hwm <= 4);
    }

    #[test]
    fn spawn_many_into_cancelled_job_discards() {
        let rt = rt(2);
        let job = rt.submit(JobSpec::new("dead")).unwrap();
        assert!(job.cancel());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let ids = job.spawn_many(vec![
            BatchTask::new("a").body(move || {
                h.fetch_add(1, Ordering::SeqCst);
            }),
            BatchTask::new("b").body(|| {}),
        ]);
        assert_eq!(ids.len(), 2);
        rt.taskwait();
        assert_eq!(hits.load(Ordering::SeqCst), 0);
        assert_eq!(job.in_flight(), 0);
        assert_eq!(rt.stats().tasks_discarded, 2);
    }

    #[test]
    fn spawn_many_empty_batch_is_noop() {
        let rt = rt(1);
        assert!(rt.spawn_many(Vec::new()).is_empty());
        rt.taskwait();
        assert_eq!(rt.stats().spawned, 0);
    }

    #[test]
    fn wide_batch_scratch_is_dropped_by_the_next_single_spawn() {
        let rt = rt(1);
        let data = rt.register("x", 0u64);
        let kept = || {
            let scratch = PRED_SCRATCH.take();
            let n = scratch.len();
            PRED_SCRATCH.set(scratch);
            n
        };
        // An access-free batch never checks the scratch out.
        rt.spawn_many((0..8).map(|_| BatchTask::new("e").body(|| {})).collect());
        assert_eq!(kept(), 0);
        let wide = |n| (0..n).map(|_| BatchTask::new("r").reads(&data).body(|| {}));
        rt.spawn_many(wide(512).collect());
        assert_eq!(kept(), 512);
        rt.spawn_many(wide(16).collect());
        assert_eq!(kept(), 16, "a narrower batch keeps only its own");
        rt.task("w").writes(&data).body(|| {}).spawn();
        assert_eq!(kept(), 1, "a single spawn keeps one");
        rt.taskwait();
        assert_eq!(rt.stats().edges, 16 + 512);
    }

    #[test]
    fn single_task_runs() {
        let rt = rt(2);
        let hit = Arc::new(AtomicU64::new(0));
        let h = hit.clone();
        rt.task("t")
            .body(move || {
                h.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
        rt.taskwait();
        assert_eq!(hit.load(Ordering::SeqCst), 1);
        let s = rt.stats();
        assert_eq!(s.spawned, 1);
        assert_eq!(s.completed, 1);
        assert_eq!(s.ready_at_spawn, 1);
        assert_eq!(s.retry_hist[0], 1, "a clean run lands in bucket 0");
    }

    #[test]
    fn raw_ordering_enforced() {
        let rt = rt(4);
        let data = rt.register("x", 0u64);
        for i in 1..=100u64 {
            let d = data.clone();
            rt.task(format!("inc{i}"))
                .updates(&data)
                .body(move || {
                    let mut v = d.write();
                    *v += i;
                })
                .spawn();
        }
        rt.taskwait();
        assert_eq!(*data.read(), 5050);
        // All 100 inout tasks chain: 99 edges.
        assert_eq!(rt.stats().edges, 99);
    }

    #[test]
    fn independent_tasks_run_concurrently_enough() {
        // Not a strict concurrency proof, just: N independent tasks all
        // complete and none was serialised by spurious edges.
        let rt = rt(4);
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..64 {
            let c = counter.clone();
            let h = rt.register(format!("d{i}"), ());
            rt.task(format!("t{i}"))
                .writes(&h)
                .body(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                })
                .spawn();
        }
        rt.taskwait();
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert_eq!(rt.stats().edges, 0);
        assert_eq!(rt.stats().ready_at_spawn, 64);
    }

    #[test]
    fn hardware_poison_fails_readers_and_recovery_write_cleanses() {
        let rt = rt(2);
        let data = rt.register("v", vec![0.0f64; 64]);
        // Machine check: a DUE lost elements 16..32.
        rt.poison_region(data.sub(16, 32), "l2 DUE @0x1400");
        assert_eq!(rt.poisoned_regions().len(), 1);
        // A reader of the lost range fails fast, typed.
        let d = data.clone();
        rt.task("consume")
            .reads(&data)
            .body(move || {
                let _ = d.read();
            })
            .spawn();
        let report = rt.try_taskwait().expect_err("reader must be poisoned");
        assert_eq!(report.len(), 1);
        match &report.failures[0].error {
            TaskError::Poisoned {
                source,
                source_label,
            } => {
                assert_eq!(*source, Runtime::HW_SOURCE);
                assert!(source_label.contains("l2 DUE"));
            }
            e => panic!("expected hardware poison, got {e}"),
        }
        // A recovery task that fully overwrites the range cleanses it.
        let d = data.clone();
        rt.task("recover")
            .region(data.sub(16, 32), AccessMode::Write)
            .body(move || {
                let mut v = d.write();
                for e in &mut v[16..32] {
                    *e = 1.0;
                }
            })
            .spawn();
        rt.taskwait();
        assert!(rt.poisoned_regions().is_empty(), "overwrite cleanses");
        // Readers run normally again.
        let d = data.clone();
        rt.task("reread")
            .reads(&data)
            .body(move || {
                assert_eq!(d.read()[20], 1.0);
            })
            .spawn();
        assert!(rt.try_taskwait().is_ok());
    }

    #[test]
    fn producer_consumer_fan() {
        let rt = rt(4);
        let src = rt.register("src", vec![0u64; 16]);
        {
            let s = src.clone();
            rt.task("produce")
                .writes(&src)
                .body(move || {
                    for (i, v) in s.write().iter_mut().enumerate() {
                        *v = (i * i) as u64;
                    }
                })
                .spawn();
        }
        let sums: Vec<DataHandle<u64>> = (0..4).map(|i| rt.register(format!("s{i}"), 0)).collect();
        for (i, sum) in sums.iter().enumerate() {
            let (s, out) = (src.clone(), sum.clone());
            rt.task(format!("consume{i}"))
                .reads(&src)
                .writes(sum)
                .body(move || {
                    *out.write() = s.read().iter().sum::<u64>() + i as u64;
                })
                .spawn();
        }
        rt.taskwait();
        let base: u64 = (0..16u64).map(|i| i * i).sum();
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(*s.read(), base + i as u64);
        }
    }

    #[test]
    fn blocked_regions_allow_parallel_writes() {
        let rt = rt(4);
        let data = rt.register("arr", vec![0u32; 400]);
        for b in 0..4u64 {
            let d = data.clone();
            rt.task(format!("blk{b}"))
                .region(data.sub(b * 100, (b + 1) * 100), AccessMode::Write)
                .body(move || {
                    let mut v = d.write();
                    for i in (b * 100)..((b + 1) * 100) {
                        v[i as usize] = b as u32 + 1;
                    }
                })
                .spawn();
        }
        rt.taskwait();
        assert_eq!(rt.stats().edges, 0, "disjoint blocks must not serialise");
        let v = data.read();
        assert!(v[..100].iter().all(|&x| x == 1));
        assert!(v[300..].iter().all(|&x| x == 4));
    }

    #[test]
    fn diamond_ordering() {
        // a writes; b,c read then write their own outputs; d reads both.
        let rt = rt(4);
        let x = rt.register("x", 0u64);
        let y = rt.register("y", 0u64);
        let z = rt.register("z", 0u64);
        let out = rt.register("out", 0u64);
        {
            let x = x.clone();
            rt.task("a").writes(&x).body(move || *x.write() = 5).spawn();
        }
        {
            let (x, y) = (x.clone(), y.clone());
            rt.task("b")
                .reads(&x)
                .writes(&y)
                .body(move || *y.write() = *x.read() * 2)
                .spawn();
        }
        {
            let (x, z) = (x.clone(), z.clone());
            rt.task("c")
                .reads(&x)
                .writes(&z)
                .body(move || *z.write() = *x.read() + 3)
                .spawn();
        }
        {
            let (y, z, out) = (y.clone(), z.clone(), out.clone());
            rt.task("d")
                .reads(&y)
                .reads(&z)
                .writes(&out)
                .body(move || *out.write() = *y.read() + *z.read())
                .spawn();
        }
        rt.taskwait();
        assert_eq!(*out.read(), 18);
    }

    #[test]
    fn taskwait_then_more_tasks() {
        let rt = rt(2);
        let x = rt.register("x", 1u64);
        {
            let x = x.clone();
            rt.task("a")
                .updates(&x)
                .body(move || *x.write() *= 2)
                .spawn();
        }
        rt.taskwait();
        assert_eq!(*x.read(), 2);
        {
            let x = x.clone();
            rt.task("b")
                .updates(&x)
                .body(move || *x.write() *= 3)
                .spawn();
        }
        rt.taskwait();
        assert_eq!(*x.read(), 6);
    }

    #[test]
    fn panic_propagates_at_taskwait() {
        let rt = rt(2);
        rt.task("boom").body(|| panic!("kaput")).spawn();
        let err = rt.try_taskwait().unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err.failures[0].label, "boom");
        assert!(matches!(
            &err.failures[0].error,
            TaskError::Panicked(msg) if msg.contains("kaput")
        ));
        assert_eq!(rt.stats().panicked, 1);
        assert_eq!(rt.stats().failed_tasks, 1);
        // Runtime stays usable.
        let ok = Arc::new(AtomicU64::new(0));
        let o = ok.clone();
        rt.task("after")
            .body(move || {
                o.store(1, Ordering::SeqCst);
            })
            .spawn();
        rt.try_taskwait().unwrap();
        assert_eq!(ok.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "task(s) failed")]
    fn taskwait_panics_on_task_panic() {
        let rt = rt(1);
        rt.task("boom").body(|| panic!("inner")).spawn();
        rt.taskwait();
    }

    #[test]
    fn all_panics_reported_with_labels() {
        // Satellite (a): the report lists *every* panic, not just the
        // first, each with its task label.
        let rt = rt(2);
        rt.task("first-bad").body(|| panic!("one")).spawn();
        rt.task("fine").body(|| {}).spawn();
        rt.task("second-bad").body(|| panic!("two")).spawn();
        let err = rt.try_taskwait().unwrap_err();
        assert_eq!(err.len(), 2, "both panics must be reported");
        let mut labels: Vec<&str> = err.failures.iter().map(|f| f.label.as_str()).collect();
        labels.sort_unstable();
        assert_eq!(labels, vec!["first-bad", "second-bad"]);
        for f in &err.failures {
            assert!(matches!(f.error, TaskError::Panicked(_)));
            assert_eq!(f.attempts, 1);
        }
        assert_eq!(err.panicked().count(), 2);
    }

    #[test]
    fn idempotent_retry_recovers() {
        // Inject exactly two panics into the only task; with three
        // allowed retries it must recover and run the body exactly once.
        let rt = Runtime::new(
            RuntimeConfig::with_workers(2)
                .retry(RetryPolicy::retries(4))
                .fault_plan(FaultPlan::new(11).panic_rate(1.0).max_panics_per_task(2)),
        );
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        rt.task("flaky")
            .idempotent(move || {
                r.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
        rt.try_taskwait().expect("retries must recover");
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "body ran once (injected panics fire pre-body)"
        );
        let s = rt.stats();
        assert_eq!(s.panicked, 2);
        assert_eq!(s.retried, 2);
        assert_eq!(s.completed, 1);
        assert_eq!(s.failed_tasks, 0);
        assert_eq!(s.retry_hist[2], 1, "settled after two failed attempts");
    }

    #[test]
    fn exhausted_retries_fail_with_attempt_count() {
        let rt = Runtime::new(
            RuntimeConfig::with_workers(1)
                .retry(RetryPolicy::retries(1))
                .fault_plan(FaultPlan::new(5).panic_rate(1.0)),
        );
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        rt.task("doomed")
            .idempotent(move || {
                r.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
        let err = rt.try_taskwait().unwrap_err();
        assert_eq!(err.len(), 1);
        assert_eq!(err.failures[0].attempts, 2, "first run + one retry");
        assert!(matches!(
            &err.failures[0].error,
            TaskError::Panicked(msg) if msg.contains("injected fault")
        ));
        assert_eq!(runs.load(Ordering::SeqCst), 0, "injection fires pre-body");
        assert_eq!(rt.stats().retried, 1);
        assert_eq!(rt.stats().failed_tasks, 1);
    }

    #[test]
    fn non_idempotent_failure_poisons_readers_transitively() {
        let rt = rt(2);
        let x = rt.register("x", 0u64);
        let y = rt.register("y", 0u64);
        let ran = Arc::new(AtomicU64::new(0));
        {
            let x = x.clone();
            rt.task("a")
                .writes(&x)
                .body(move || {
                    *x.write() = 1;
                    panic!("a dies");
                })
                .spawn();
        }
        {
            let (x, y, ran) = (x.clone(), y.clone(), ran.clone());
            rt.task("b")
                .reads(&x)
                .writes(&y)
                .body(move || {
                    let _ = *x.read();
                    *y.write() = 2;
                    ran.fetch_add(1, Ordering::SeqCst);
                })
                .spawn();
        }
        {
            let (y, ran) = (y.clone(), ran.clone());
            rt.task("c")
                .reads(&y)
                .body(move || {
                    let _ = *y.read();
                    ran.fetch_add(1, Ordering::SeqCst);
                })
                .spawn();
        }
        let err = rt.try_taskwait().unwrap_err();
        assert_eq!(ran.load(Ordering::SeqCst), 0, "victims must not run");
        assert_eq!(err.len(), 3);
        assert_eq!(err.panicked().count(), 1);
        assert_eq!(err.poisoned().count(), 2);
        let b = err.failures.iter().find(|f| f.label == "b").unwrap();
        assert!(matches!(
            &b.error,
            TaskError::Poisoned { source_label, .. } if source_label == "a"
        ));
        let c = err.failures.iter().find(|f| f.label == "c").unwrap();
        assert!(matches!(
            &c.error,
            TaskError::Poisoned { source_label, .. } if source_label == "b"
        ));
        assert_eq!(rt.stats().poisoned_tasks, 2);
        assert_eq!(rt.stats().failed_tasks, 3);
        assert_eq!(rt.poisoned_regions().len(), 2, "x and y are poisoned");
    }

    #[test]
    fn overwriting_task_cleanses_poison() {
        let rt = rt(2);
        let x = rt.register("x", 0u64);
        {
            let x = x.clone();
            rt.task("bad-writer")
                .writes(&x)
                .body(move || {
                    *x.write() = 13;
                    panic!("corrupted");
                })
                .spawn();
        }
        let _ = rt.try_taskwait().unwrap_err();
        assert_eq!(rt.poisoned_regions().len(), 1);
        // A fresh writer overwrites the whole region: poison is gone and
        // readers work again.
        {
            let x = x.clone();
            rt.task("repair")
                .writes(&x)
                .body(move || *x.write() = 7)
                .spawn();
        }
        let seen = Arc::new(AtomicU64::new(0));
        {
            let (x, seen) = (x.clone(), seen.clone());
            rt.task("reader")
                .reads(&x)
                .body(move || {
                    seen.store(*x.read(), Ordering::SeqCst);
                })
                .spawn();
        }
        rt.try_taskwait().expect("repaired region must be clean");
        assert!(rt.poisoned_regions().is_empty());
        assert_eq!(seen.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn taskwait_on_returns_despite_poisoned_region() {
        let rt = rt(2);
        let x = rt.register("x", 0u64);
        {
            let x = x.clone();
            rt.task("bad")
                .writes(&x)
                .body(move || {
                    *x.write() = 1;
                    panic!("dead writer");
                })
                .spawn();
        }
        // The sentinel is exempt from poison: this must not hang or
        // count as a failed task.
        rt.taskwait_on(&x);
        let err = rt.try_taskwait().unwrap_err();
        assert_eq!(err.len(), 1, "only the real task failed");
        assert_eq!(err.failures[0].label, "bad");
    }

    #[test]
    fn clear_poison_unmarks_pending_victims() {
        let rt = rt(2);
        let x = rt.register("x", 0u64);
        {
            let x = x.clone();
            rt.task("bad")
                .writes(&x)
                .body(move || {
                    *x.write() = 1;
                    panic!("boom");
                })
                .spawn();
        }
        let _ = rt.try_taskwait().unwrap_err();
        rt.clear_poison();
        assert!(rt.poisoned_regions().is_empty());
        let ran = Arc::new(AtomicU64::new(0));
        {
            let (x, ran) = (x.clone(), ran.clone());
            rt.task("reader")
                .reads(&x)
                .body(move || {
                    let _ = *x.read();
                    ran.store(1, Ordering::SeqCst);
                })
                .spawn();
        }
        rt.try_taskwait().expect("poison was cleared");
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn nested_spawn_from_task_body() {
        // A task spawning tasks: the runtime handle is not Send-shareable
        // into bodies (lifetime), so nested spawning goes through a channel
        // drained by the main thread — but direct nested spawn works via
        // scoped Arc. Here we emulate the common OmpSs pattern where a
        // task spawns children through the same runtime by using Arc.
        let rt = Arc::new(rt(4));
        let counter = Arc::new(AtomicU64::new(0));
        // Note: spawning from inside a body requires 'static; we pass the
        // Arc'd runtime in. taskwait() from inside bodies is forbidden,
        // spawning is fine.
        let inner_rt = Arc::downgrade(&rt);
        let c = counter.clone();
        rt.task("parent")
            .body(move || {
                if let Some(rt) = inner_rt.upgrade() {
                    for _ in 0..10 {
                        let c = c.clone();
                        rt.task("child")
                            .body(move || {
                                c.fetch_add(1, Ordering::SeqCst);
                            })
                            .spawn();
                    }
                }
            })
            .spawn();
        // taskwait sees the children because the parent increments
        // `outstanding` before it finishes... but there is a window: wait
        // until quiescent by polling spawn counts.
        loop {
            rt.taskwait();
            let s = rt.stats();
            if s.spawned == s.completed && s.spawned == 11 {
                break;
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn per_worker_counters_account_for_every_task() {
        let rt = rt(3);
        for i in 0..60 {
            rt.task(format!("t{i}")).body(|| {}).spawn();
        }
        rt.taskwait();
        let per = rt.per_worker_executed();
        assert_eq!(per.len(), 3);
        assert_eq!(per.iter().sum::<u64>(), 60);
    }

    #[test]
    fn taskwait_on_waits_only_for_the_region() {
        let rt = rt(2);
        let fast = rt.register("fast", 0u64);
        let slow_running = Arc::new(AtomicU64::new(0));
        // A slow task on an unrelated datum.
        let slow = rt.register("slow", 0u64);
        {
            let (s, flag) = (slow.clone(), slow_running.clone());
            rt.task("slow")
                .updates(&slow)
                .body(move || {
                    flag.store(1, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(150));
                    *s.write() = 99;
                    flag.store(2, Ordering::SeqCst);
                })
                .spawn();
        }
        // A quick task on the region we will wait on.
        {
            let f = fast.clone();
            rt.task("fast")
                .updates(&fast)
                .body(move || *f.write() = 7)
                .spawn();
        }
        rt.taskwait_on(&fast);
        assert_eq!(*fast.read(), 7, "the awaited region is complete");
        assert!(
            slow_running.load(Ordering::SeqCst) < 2,
            "taskwait_on must not have waited for the slow task"
        );
        rt.taskwait();
        assert_eq!(*slow.read(), 99);
    }

    #[test]
    fn taskwait_on_region_waits_for_block_writers() {
        let rt = rt(2);
        let data = rt.register("arr", vec![0u32; 100]);
        {
            let d = data.clone();
            rt.task("blk")
                .region(data.sub(0, 50), AccessMode::Write)
                .body(move || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    d.write()[..50].fill(3);
                })
                .spawn();
        }
        rt.taskwait_on_region(data.sub(0, 50));
        assert!(data.read()[..50].iter().all(|&v| v == 3));
        rt.taskwait();
    }

    #[test]
    fn graph_recording() {
        let rt = Runtime::new(RuntimeConfig::with_workers(2).record_graph(true));
        let x = rt.register("x", 0u8);
        {
            let x = x.clone();
            rt.task("w").writes(&x).body(move || *x.write() = 1).spawn();
        }
        {
            let x = x.clone();
            rt.task("r")
                .reads(&x)
                .body(move || {
                    let _ = *x.read();
                })
                .spawn();
        }
        rt.taskwait();
        let g = rt.graph().expect("recording enabled");
        assert_eq!(g.len(), 2);
        assert_eq!(g.node(TaskId(1)).preds, vec![TaskId(0)]);
        assert!(g.to_dot().contains("w (1)"));
    }

    #[test]
    fn priorities_respected_by_priority_policy() {
        // One worker + Priority policy: spawn a blocker first so the rest
        // queue up, then check execution order follows priority.
        let rt = Runtime::new(RuntimeConfig::with_workers(1).policy(SchedulerPolicy::Priority));
        let order = Arc::new(Mutex::new(Vec::<i32>::new()));
        let gate = rt.register("gate", ());
        {
            let g = gate.clone();
            rt.task("blocker")
                .writes(&gate)
                .body(move || {
                    let _w = g.write();
                    std::thread::sleep(std::time::Duration::from_millis(50));
                })
                .spawn();
        }
        for p in [1, 3, 2] {
            let o = order.clone();
            rt.task(format!("p{p}"))
                .reads(&gate) // all wait for the blocker
                .priority(p)
                .body(move || o.lock().push(p))
                .spawn();
        }
        rt.taskwait();
        assert_eq!(*order.lock(), vec![3, 2, 1]);
    }

    #[test]
    fn lifo_policy_runs_latest_ready_first() {
        // One worker, LIFO: after the gate opens, the most recently
        // spawned dependent task runs first.
        let rt = Runtime::new(RuntimeConfig::with_workers(1).policy(SchedulerPolicy::Lifo));
        let order = Arc::new(Mutex::new(Vec::<usize>::new()));
        let gate = rt.register("gate", ());
        {
            let g = gate.clone();
            rt.task("blocker")
                .writes(&gate)
                .body(move || {
                    let _w = g.write();
                    std::thread::sleep(std::time::Duration::from_millis(40));
                })
                .spawn();
        }
        for i in 0..4 {
            let o = order.clone();
            rt.task(format!("t{i}"))
                .reads(&gate)
                .body(move || o.lock().push(i))
                .spawn();
        }
        rt.taskwait();
        let got = order.lock().clone();
        // All released together on blocker completion; LIFO pops the
        // last pushed first.
        assert_eq!(got, vec![3, 2, 1, 0]);
    }

    #[test]
    fn criticality_aware_policy_runs_everything() {
        let rt = Runtime::new(
            RuntimeConfig::with_workers(4)
                .policy(SchedulerPolicy::CriticalityAware { fast_workers: 1 }),
        );
        let n = Arc::new(AtomicU64::new(0));
        for i in 0..50 {
            let n = n.clone();
            rt.task(format!("t{i}"))
                .criticality(if i % 5 == 0 {
                    Criticality::Critical
                } else {
                    Criticality::NonCritical
                })
                .body(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
                .spawn();
        }
        rt.taskwait();
        assert_eq!(n.load(Ordering::SeqCst), 50);
        assert_eq!(rt.stats().critical_tasks, 10);
    }

    #[test]
    fn observer_sees_every_task_with_worker_ids() {
        use std::sync::Mutex as StdMutex;
        struct Recorder {
            events: StdMutex<Vec<(usize, TaskId, bool, &'static str)>>,
        }
        impl crate::runtime::TaskObserver for Recorder {
            fn on_start(&self, worker: usize, task: TaskId, critical: bool) {
                self.events
                    .lock()
                    .unwrap()
                    .push((worker, task, critical, "start"));
            }
            fn on_complete(&self, worker: usize, task: TaskId) {
                self.events
                    .lock()
                    .unwrap()
                    .push((worker, task, false, "done"));
            }
        }
        let rec = Arc::new(Recorder {
            events: StdMutex::new(Vec::new()),
        });
        let rt = Runtime::new(RuntimeConfig::with_workers(2).observer(rec.clone()));
        for i in 0..10 {
            rt.task(format!("t{i}"))
                .criticality(if i == 0 {
                    Criticality::Critical
                } else {
                    Criticality::NonCritical
                })
                .body(|| {})
                .spawn();
        }
        rt.taskwait();
        let ev = rec.events.lock().unwrap();
        assert_eq!(ev.len(), 20, "start+done per task");
        assert!(ev.iter().all(|&(w, _, _, _)| w < 2));
        // Each task's start precedes its done.
        for t in 0..10u32 {
            let s = ev
                .iter()
                .position(|&(_, id, _, k)| id == TaskId(t) && k == "start");
            let d = ev
                .iter()
                .position(|&(_, id, _, k)| id == TaskId(t) && k == "done");
            assert!(s.unwrap() < d.unwrap());
        }
        // The critical annotation reached the observer.
        assert!(ev
            .iter()
            .any(|&(_, id, c, k)| id == TaskId(0) && c && k == "start"));
    }

    #[test]
    fn observer_on_fault_fires_per_panicked_attempt() {
        #[derive(Default)]
        struct Counter {
            starts: AtomicU32,
            dones: AtomicU32,
            faults: AtomicU32,
        }
        impl crate::runtime::TaskObserver for Counter {
            fn on_start(&self, _worker: usize, _task: TaskId, _critical: bool) {
                self.starts.fetch_add(1, Ordering::SeqCst);
            }
            fn on_complete(&self, _worker: usize, _task: TaskId) {
                self.dones.fetch_add(1, Ordering::SeqCst);
            }
            fn on_fault(&self, _worker: usize, _task: TaskId) {
                self.faults.fetch_add(1, Ordering::SeqCst);
            }
        }
        let obs = Arc::new(Counter::default());
        let rt = Runtime::new(
            RuntimeConfig::with_workers(2)
                .observer(obs.clone())
                .retry(RetryPolicy::retries(2)),
        );
        // The body itself panics on the first attempt (unlike a
        // preflight-injected fault, which fires before `on_start`).
        let tries = Arc::new(AtomicU32::new(0));
        {
            let tries = Arc::clone(&tries);
            rt.task("flaky")
                .idempotent(move || {
                    if tries.fetch_add(1, Ordering::SeqCst) == 0 {
                        panic!("first attempt dies");
                    }
                })
                .spawn();
        }
        rt.taskwait();
        assert_eq!(tries.load(Ordering::SeqCst), 2);
        assert_eq!(
            obs.starts.load(Ordering::SeqCst),
            2,
            "both attempts started"
        );
        assert_eq!(
            obs.faults.load(Ordering::SeqCst),
            1,
            "first attempt faulted"
        );
        assert_eq!(obs.dones.load(Ordering::SeqCst), 1, "retry completed");
    }

    #[test]
    fn war_prevents_early_overwrite() {
        let rt = rt(4);
        let x = rt.register("x", 7u64);
        let seen = rt.register("seen", 0u64);
        {
            let (x, seen) = (x.clone(), seen.clone());
            rt.task("reader")
                .reads(&x)
                .writes(&seen)
                .body(move || {
                    // Slow reader: a WAR violation would let the writer
                    // change x to 99 before we read it.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    *seen.write() = *x.read();
                })
                .spawn();
        }
        {
            let x = x.clone();
            rt.task("writer")
                .writes(&x)
                .body(move || *x.write() = 99)
                .spawn();
        }
        rt.taskwait();
        assert_eq!(*seen.read(), 7, "WAR edge must delay the writer");
        assert_eq!(*x.read(), 99);
    }
}
