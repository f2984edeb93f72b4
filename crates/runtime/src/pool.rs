//! The worker-thread pool.
//!
//! Workers loop: pop a ready task (policy-dependent, see
//! [`crate::scheduler`]), execute it under `catch_unwind`, then hand the
//! completion to the runtime, which may return newly released tasks to
//! push and/or a retry directive (re-enqueue after a backoff).  Idle
//! workers park on a condvar after a short bounded spin; spawners and
//! completers wake them.  The wake path is lock-free while every worker
//! is busy: an atomic idle count (maintained with the Dekker-style
//! store/fence/load protocol) lets pushers skip the condvar lock
//! entirely unless somebody is actually parked.
//!
//! Fault tolerance lives in three places here:
//!
//! * every worker maintains a *heartbeat* counter and a *busy* flag;
//! * an optional **watchdog** thread (see [`crate::fault::WatchdogConfig`])
//!   scans them: a worker whose `alive` flag dropped is respawned (or the
//!   pool degrades to fewer workers), and a busy worker with a frozen
//!   heartbeat past the stall timeout is counted as stalled;
//! * a **retry timer** thread parks delayed re-executions until their
//!   backoff deadline, then pushes them back into the ready queues.
//!
//! An injected worker death (via [`crate::fault::FaultPlan::kill_worker`])
//! drains the dying worker's local deque back to the shared queues before
//! the thread exits, so queued tasks are never lost.

use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::deque::{DequeStealer, WorkerDeque};
use crate::fault::{FaultPlan, WatchdogConfig};
use crate::scheduler::{ReadyQueues, ReadyTask, WORKER_DEQUE_CAP};
use crate::trace::{TraceEventKind, Tracer, NO_TASK};

thread_local! {
    /// `(pool id, worker index)` of the pool this thread works for. The
    /// pool id disambiguates between coexisting pools: a task body on
    /// worker `w` of runtime A may spawn into runtime B (a safe public
    /// API), and B's `deques[w]` belongs to *B's* worker `w` — an
    /// owner-side push there from A's thread would race it.
    static CURRENT_WORKER: std::cell::Cell<Option<(u64, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Process-wide pool id allocator; ids are never reused, so a stale
/// thread-local can never alias a newer pool.
static NEXT_POOL_ID: AtomicU64 = AtomicU64::new(0);

/// The index of the worker thread we are currently running on, if any
/// (used by execution observers to attribute tasks to cores, and by the
/// task slab to pick a free-list shard).
pub fn current_worker() -> Option<usize> {
    CURRENT_WORKER.with(|c| c.get()).map(|(_, w)| w)
}

/// The runtime side of the pool: handed each popped task to execute,
/// told when it finished (cleanly or by panic), and responds with the
/// tasks that became ready. The spent task is handed back whole so the
/// client can re-enqueue it as a retry.
pub trait PoolClient: Send + Sync + 'static {
    /// Execute `task` on the calling worker thread, inside the pool's
    /// `catch_unwind`. The client brackets the body with whatever it
    /// instruments, borrowing its own state instead of boxing a wrapper
    /// closure per task; the default runs the bare body.
    fn run(&self, task: &mut ReadyTask) {
        task.body.run()
    }

    /// `task` finished (cleanly or by panic): append the tasks it
    /// released to `released` — a buffer the worker loop owns, drains
    /// after every call and reuses, so a completion allocates no list —
    /// and return the task with a backoff to have it re-enqueued as a
    /// retry (of a failed idempotent task).
    fn on_complete(
        &self,
        task: ReadyTask,
        panicked: Option<String>,
        released: &mut Vec<ReadyTask>,
    ) -> Option<(ReadyTask, Duration)>;

    /// The watchdog noticed a worker stuck on `slot`'s task for
    /// `running_ns`. Return a duplicate [`ReadyTask`] to enqueue as a
    /// hedge, or `None` to leave the straggler alone (the default: only
    /// clients that know the task is idempotent may hedge it).
    fn hedge_straggler(&self, slot: u32, running_ns: u64) -> Option<ReadyTask> {
        let _ = (slot, running_ns);
        None
    }
}

/// Fault-related pool counters (merged into
/// [`crate::stats::StatsSnapshot`] by `Runtime::stats`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolFaultStats {
    pub worker_deaths: u64,
    pub worker_respawns: u64,
    pub worker_stalls: u64,
}

/// Pool construction options beyond the worker count.
#[derive(Clone, Default)]
pub struct PoolOptions {
    /// Injected worker deaths (panic/stall injection happens at the task
    /// layer, in the runtime's body instrumentation).
    pub plan: Option<Arc<FaultPlan>>,
    pub watchdog: WatchdogConfig,
    /// When set, worker threads bind to their SPSC trace ring at entry
    /// and record park/unpark events.
    pub tracer: Option<Arc<Tracer>>,
    /// Straggler soft timeout: a busy worker on one task longer than
    /// this is offered to [`PoolClient::hedge_straggler`] by the
    /// watchdog (which runs even when `watchdog.enabled` is false, in a
    /// hedge-only mode). `None` disables the scan.
    pub soft_timeout: Option<Duration>,
    /// When set, an injected worker death requests a post-mortem dump
    /// from the flight recorder before the thread exits.
    pub flight: Option<Arc<crate::flight::FlightRecorder>>,
}

struct PoolShared {
    /// Unique id of this pool (from [`NEXT_POOL_ID`]), matched against
    /// the thread-local by the affinity push paths so that only *this
    /// pool's* worker threads ever take the owner-side deque shortcut.
    pool_id: u64,
    queues: Arc<ReadyQueues>,
    /// The per-worker deques, owned here (not by the worker threads) so
    /// that (a) a watchdog respawn hands the replacement thread its
    /// predecessor's deque — queued work survives the death without a
    /// drain-to-injector detour — and (b) spawn paths running *on* a
    /// worker thread of this pool can push with affinity to that
    /// worker's own deque (see [`WorkerPool::push_affine`]). The
    /// owner-side discipline (`push`/`pop` from one thread at a time)
    /// is preserved: only the thread currently registered as worker
    /// `who` *of this pool* touches `deques[who]` (the affinity paths
    /// check the pool id, not just the worker index), and a dead
    /// worker's replacement starts strictly after the predecessor's
    /// last deque access.
    deques: Vec<Arc<WorkerDeque<ReadyTask>>>,
    stealers: Vec<DequeStealer<ReadyTask>>,
    idle_lock: Mutex<()>,
    idle_cv: Condvar,
    /// Number of workers parked (or about to park) on `idle_cv`.
    /// Incremented *before* the final queue re-check so that pushers
    /// observing zero can safely skip the notify (Dekker protocol: both
    /// sides store, fence, then load the other's location).
    idle_count: AtomicUsize,
    shutdown: AtomicBool,
    /// Tasks executed per worker (load-balance diagnostics and the kill
    /// trigger for injected worker deaths).
    executed: Vec<AtomicU64>,
    /// Bumped by a worker every loop iteration and task start; the
    /// watchdog reads it to detect stalls.
    heartbeats: Vec<AtomicU64>,
    /// True while the worker is inside a task body.
    busy: Vec<AtomicBool>,
    /// Slab slot of the task each worker is currently executing
    /// (`u64::MAX` when idle), with the start time as nanoseconds since
    /// `epoch`. Written by workers around each body only when
    /// `soft_timeout` is set — the watchdog's straggler scan is the sole
    /// reader, and a wall-clock read per task is not free. Start is
    /// published *before* the slot,
    /// so a scan pairing the two can only over- never under-estimate an
    /// attempt's age — and an early hedge offer is safe (the client
    /// re-checks under the slot lock).
    current_slot: Vec<AtomicU64>,
    started_ns: Vec<AtomicU64>,
    /// Time origin for `started_ns`.
    epoch: Instant,
    /// Dropped by a dying worker; the watchdog respawns or degrades.
    alive: Vec<AtomicBool>,
    deaths: AtomicU64,
    respawns: AtomicU64,
    stalls: AtomicU64,
    /// Times a worker went to sleep on `idle_cv`.
    parks: AtomicU64,
    /// Condvar notifies actually issued (wakes skipped by the Dekker
    /// zero-idle fast path are not counted — nothing was woken).
    wakes: AtomicU64,
    tracer: Option<Arc<Tracer>>,
    plan: Option<Arc<FaultPlan>>,
    watchdog: WatchdogConfig,
    soft_timeout: Option<Duration>,
    flight: Option<Arc<crate::flight::FlightRecorder>>,
    /// Sender into the retry-timer thread; taken (disconnecting the
    /// timer) at shutdown.
    retry_tx: Mutex<Option<mpsc::Sender<(ReadyTask, Instant)>>>,
}

impl PoolShared {
    /// Wake one parked worker. Must be called *after* the work (or the
    /// shutdown flag) has been published; the fence pairs with the one in
    /// `worker_loop`'s park path so that a zero idle count is proof the
    /// racing worker will re-check the queues and see the new work.
    fn wake_one(&self) {
        fence(Ordering::SeqCst);
        if self.idle_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.wakes.fetch_add(1, Ordering::Relaxed);
        let _g = self.idle_lock.lock();
        self.idle_cv.notify_one();
    }

    fn wake_all(&self) {
        fence(Ordering::SeqCst);
        if self.idle_count.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.wakes.fetch_add(1, Ordering::Relaxed);
        let _g = self.idle_lock.lock();
        self.idle_cv.notify_all();
    }

    /// Hand a retry to the timer thread, or push it immediately when the
    /// timer is gone (shutdown in progress).
    fn schedule_retry(&self, task: ReadyTask, delay: Duration) {
        let deadline = Instant::now() + delay;
        let rejected = {
            let tx = self.retry_tx.lock();
            match tx.as_ref() {
                Some(tx) => match tx.send((task, deadline)) {
                    Ok(()) => None,
                    Err(mpsc::SendError((task, _))) => Some(task),
                },
                None => Some(task),
            }
        };
        if let Some(task) = rejected {
            self.queues.push(task, None);
            self.wake_one();
        }
    }
}

/// A fixed set of worker threads bound to a [`ReadyQueues`].
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<JoinHandle<()>>,
    timer: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `workers` threads executing tasks from `queues`, reporting
    /// completions to `client`.
    pub fn new(
        workers: usize,
        queues: Arc<ReadyQueues>,
        client: Arc<dyn PoolClient>,
        options: PoolOptions,
    ) -> Self {
        assert!(workers >= 1, "the pool needs at least one worker");
        let deques: Vec<Arc<WorkerDeque<ReadyTask>>> = (0..workers)
            .map(|_| Arc::new(WorkerDeque::new(WORKER_DEQUE_CAP)))
            .collect();
        let stealers: Vec<DequeStealer<ReadyTask>> = deques.iter().map(|d| d.stealer()).collect();
        let (retry_tx, retry_rx) = mpsc::channel();
        let shared = Arc::new(PoolShared {
            pool_id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            queues,
            deques,
            stealers,
            idle_lock: Mutex::new(()),
            idle_cv: Condvar::new(),
            idle_count: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            executed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            heartbeats: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            busy: (0..workers).map(|_| AtomicBool::new(false)).collect(),
            current_slot: (0..workers).map(|_| AtomicU64::new(u64::MAX)).collect(),
            started_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            alive: (0..workers).map(|_| AtomicBool::new(true)).collect(),
            deaths: AtomicU64::new(0),
            respawns: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            parks: AtomicU64::new(0),
            wakes: AtomicU64::new(0),
            tracer: options.tracer,
            plan: options.plan,
            watchdog: options.watchdog,
            soft_timeout: options.soft_timeout,
            flight: options.flight,
            retry_tx: Mutex::new(Some(retry_tx)),
        });
        let handles = (0..workers)
            .map(|who| {
                let shared = Arc::clone(&shared);
                let client = Arc::clone(&client);
                std::thread::Builder::new()
                    .name(format!("raa-worker-{who}"))
                    .spawn(move || worker_loop(who, shared, client))
                    .expect("failed to spawn worker thread")
            })
            .collect();
        let timer = {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("raa-retry-timer".into())
                    .spawn(move || retry_timer_loop(retry_rx, shared))
                    .expect("failed to spawn retry timer"),
            )
        };
        // The watchdog thread also runs (in a hedge-only mode) when the
        // client wants straggler hedging without fault monitoring.
        let watchdog = if shared.watchdog.enabled || shared.soft_timeout.is_some() {
            let shared = Arc::clone(&shared);
            let client = Arc::clone(&client);
            Some(
                std::thread::Builder::new()
                    .name("raa-watchdog".into())
                    .spawn(move || watchdog_loop(shared, client))
                    .expect("failed to spawn watchdog"),
            )
        } else {
            None
        };
        WorkerPool {
            shared,
            workers,
            handles,
            timer,
            watchdog,
        }
    }

    /// Number of workers the pool was built with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Tasks executed per worker so far.
    pub fn per_worker_executed(&self) -> Vec<u64> {
        self.shared
            .executed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// `(parks, wakes)` — idle-protocol counters, merged into
    /// [`crate::stats::StatsSnapshot`] by `Runtime::stats`.
    pub fn park_stats(&self) -> (u64, u64) {
        (
            self.shared.parks.load(Ordering::Relaxed),
            self.shared.wakes.load(Ordering::Relaxed),
        )
    }

    /// Worker death / respawn / stall counters.
    pub fn fault_stats(&self) -> PoolFaultStats {
        PoolFaultStats {
            worker_deaths: self.shared.deaths.load(Ordering::Relaxed),
            worker_respawns: self.shared.respawns.load(Ordering::Relaxed),
            worker_stalls: self.shared.stalls.load(Ordering::Relaxed),
        }
    }

    /// Workers currently marked alive.
    pub fn alive_workers(&self) -> usize {
        self.shared
            .alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }

    /// Push a ready task from outside the pool and wake a worker.
    pub fn push_external(&self, task: ReadyTask) {
        self.shared.queues.push(task, None);
        self.wake_one();
    }

    /// The calling thread's own deque (and worker index, for
    /// cluster-aware spill routing), but only when it is a worker of
    /// *this* pool. A worker of some other pool (a task there spawning
    /// into this runtime) must not touch `deques[w]` — that deque's
    /// owner end belongs to this pool's worker `w`, and a concurrent
    /// owner-side push from a foreign thread is a data race. Such
    /// callers fall back to the shared injector (`None`).
    fn own_deque(&self) -> Option<(&WorkerDeque<ReadyTask>, usize)> {
        CURRENT_WORKER
            .with(|c| c.get())
            .filter(|(pool, w)| *pool == self.shared.pool_id && *w < self.shared.deques.len())
            .map(|(_, w)| (&*self.shared.deques[w], w))
    }

    /// Push a ready task with spawn affinity: called from a worker
    /// thread of this pool (a task body spawning subtasks), the task
    /// lands on that worker's own deque — keeping parent-spawned work
    /// hot in the spawner's cache and off the shared injector. From any
    /// other thread (including workers of *other* pools) this degrades
    /// to [`WorkerPool::push_external`].
    pub fn push_affine(&self, task: ReadyTask) {
        self.shared.queues.push(task, self.own_deque());
        self.wake_one();
    }

    /// [`WorkerPool::push_affine`] for a whole batch under a single wake
    /// decision: every task is enqueued first (the spawner's own deque
    /// when on a worker thread of this pool), then parked siblings are
    /// woken once.
    pub fn push_affine_batch(&self, tasks: Vec<ReadyTask>) {
        let n = tasks.len();
        let local = self.own_deque();
        for t in tasks {
            self.shared.queues.push(t, local);
        }
        if n > 1 {
            self.shared.wake_all();
        } else if n == 1 {
            self.shared.wake_one();
        }
    }

    /// Per-victim steal hit/miss counters, injector traffic and total
    /// dispatch count for `Runtime::contention_report`.
    pub fn contention_data(&self) -> (Vec<crate::stats::VictimSteals>, u64, u64, u64) {
        let (pushes, overflow) = self.shared.queues.injector_traffic();
        let dispatched: u64 = self
            .shared
            .executed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum();
        (
            self.shared.queues.per_victim_steals(self.workers),
            pushes,
            overflow,
            dispatched,
        )
    }

    /// Per-cluster steal/balance counters (one entry per cluster of the
    /// scheduler's topology), for `Runtime::contention_report` and the
    /// telemetry snapshot.
    pub fn cluster_data(&self) -> Vec<crate::stats::ClusterSteals> {
        self.shared.queues.per_cluster_steals()
    }

    /// A cheap cloneable handle onto the pool's counters, for the
    /// telemetry sampler thread (which must outlive no pool borrow).
    pub(crate) fn stats_handle(&self) -> PoolStatsHandle {
        PoolStatsHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Wake one parked worker (after pushing work).
    pub fn wake_one(&self) {
        self.shared.wake_one();
    }

    /// Wake every parked worker.
    pub fn wake_all(&self) {
        self.shared.wake_all();
    }

    /// Asynchronous shutdown request: publish the flag, disconnect the
    /// retry timer and wake every parked worker — without joining
    /// anything. `Runtime::drain` uses this to bound its forced phase
    /// even when a worker is wedged inside a long task body; the
    /// eventual [`WorkerPool::shutdown`] (from `Drop`) still joins.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Disconnect the retry timer so it drains and exits.
        *self.shared.retry_tx.lock() = None;
        self.wake_all();
    }

    /// Stop accepting work and join every worker. Queued-but-unexecuted
    /// tasks are dropped.
    pub fn shutdown(&mut self) {
        self.request_shutdown();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(t) = self.timer.take() {
            let _ = t.join();
        }
        if let Some(w) = self.watchdog.take() {
            let _ = w.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// An `Arc` view of the pool counters the telemetry sampler reads each
/// tick. Holding it does not keep worker threads alive — it only pins
/// the counter block.
#[derive(Clone)]
pub(crate) struct PoolStatsHandle {
    shared: Arc<PoolShared>,
}

impl PoolStatsHandle {
    pub(crate) fn park_stats(&self) -> (u64, u64) {
        (
            self.shared.parks.load(Ordering::Relaxed),
            self.shared.wakes.load(Ordering::Relaxed),
        )
    }

    pub(crate) fn fault_stats(&self) -> PoolFaultStats {
        PoolFaultStats {
            worker_deaths: self.shared.deaths.load(Ordering::Relaxed),
            worker_respawns: self.shared.respawns.load(Ordering::Relaxed),
            worker_stalls: self.shared.stalls.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn alive_workers(&self) -> usize {
        self.shared
            .alive
            .iter()
            .filter(|a| a.load(Ordering::SeqCst))
            .count()
    }
}

fn worker_loop(who: usize, shared: Arc<PoolShared>, client: Arc<dyn PoolClient>) {
    CURRENT_WORKER.with(|c| c.set(Some((shared.pool_id, who))));
    // The deque is shared (Arc) so respawns inherit it, but only this
    // thread — the one registered as worker `who` — uses the owner end.
    let local = Some((&*shared.deques[who], who));
    if let Some(t) = &shared.tracer {
        // Claim worker `who`'s SPSC trace ring. A watchdog respawn
        // re-binds the same ring — safe, because the previous producer
        // thread is dead by the time the replacement runs.
        t.bind_worker(who);
    }
    // Bounded spin before parking: a handful of re-polls (with scheduler
    // yields so a 1-core host lets the producer run) catches work that is
    // microseconds away without paying the park/unpark round-trip.
    const SPIN_POLLS: u32 = 4;
    let mut misses = 0u32;
    let mut released = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.heartbeats[who].fetch_add(1, Ordering::Relaxed);
        if let Some(task) = shared.queues.pop(who, local, &shared.stealers) {
            misses = 0;
            run_one(task, who, local, &shared, &client, &mut released);
            if injected_death(who, &shared) {
                return;
            }
            continue;
        }
        misses += 1;
        if misses <= SPIN_POLLS {
            std::hint::spin_loop();
            std::thread::yield_now();
            continue;
        }
        misses = 0;
        // Park. Register as idle *before* the final re-check: the fence
        // pairs with the one in `PoolShared::wake_one`, so either the
        // pusher sees our idle count (and notifies under the lock, which
        // we hold until we wait) or we see its queue write here.
        let mut guard = shared.idle_lock.lock();
        shared.idle_count.fetch_add(1, Ordering::SeqCst);
        fence(Ordering::SeqCst);
        if shared.shutdown.load(Ordering::SeqCst) {
            shared.idle_count.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if let Some(task) = shared.queues.pop(who, local, &shared.stealers) {
            shared.idle_count.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            run_one(task, who, local, &shared, &client, &mut released);
            if injected_death(who, &shared) {
                return;
            }
            continue;
        }
        shared.parks.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &shared.tracer {
            t.emit(TraceEventKind::Park, NO_TASK, 0, 0, 0);
        }
        shared.idle_cv.wait(&mut guard);
        shared.idle_count.fetch_sub(1, Ordering::SeqCst);
        if let Some(t) = &shared.tracer {
            t.emit(TraceEventKind::Unpark, NO_TASK, 0, 0, 0);
        }
    }
}

/// Check the fault plan for an injected worker death; when it fires,
/// drain the local deque back to the shared queues (no task loss even if
/// no replacement ever claims the deque), mark the worker dead and tell
/// the caller to exit the thread.
fn injected_death(who: usize, shared: &PoolShared) -> bool {
    let Some(plan) = &shared.plan else {
        return false;
    };
    // A kill firing after shutdown (or a drain's forced phase) began is
    // ignored: the worker is about to exit through the shutdown path
    // anyway, and dying here would race the watchdog's respawn against
    // pool teardown — a respawn loop that can hang `drain`.
    if shared.shutdown.load(Ordering::SeqCst) {
        return false;
    }
    if !plan.should_kill(who, shared.executed[who].load(Ordering::Relaxed)) {
        return false;
    }
    // Refuse to die when nobody could pick up the remaining work: this
    // is the last alive worker and the watchdog will not respawn it.
    let others_alive = shared
        .alive
        .iter()
        .enumerate()
        .filter(|(i, a)| *i != who && a.load(Ordering::SeqCst))
        .count();
    let will_respawn = shared.watchdog.enabled && shared.watchdog.respawn;
    if others_alive == 0 && !will_respawn {
        return false;
    }
    while let Some(task) = shared.deques[who].pop() {
        shared.queues.push(task, None);
    }
    shared.alive[who].store(false, Ordering::SeqCst);
    shared.deaths.fetch_add(1, Ordering::Relaxed);
    // Capture the post-mortem while the dying worker's ring still holds
    // its final events (the respawn will keep appending to this index).
    if let Some(fr) = &shared.flight {
        fr.request_dump(crate::flight::FlightReason::WorkerDeath { worker: who });
    }
    shared.wake_all();
    true
}

fn run_one(
    mut task: ReadyTask,
    who: usize,
    local: Option<(&WorkerDeque<ReadyTask>, usize)>,
    shared: &PoolShared,
    client: &Arc<dyn PoolClient>,
    released: &mut Vec<ReadyTask>,
) {
    shared.executed[who].fetch_add(1, Ordering::Relaxed);
    shared.heartbeats[who].fetch_add(1, Ordering::Relaxed);
    shared.busy[who].store(true, Ordering::Relaxed);
    let hedging = shared.soft_timeout.is_some();
    if hedging {
        // Publish what we are running for the straggler scan: start time
        // first (Release), then the slot — see the `PoolShared` field docs.
        shared.started_ns[who].store(shared.epoch.elapsed().as_nanos() as u64, Ordering::Release);
        shared.current_slot[who].store(task.slot as u64, Ordering::Release);
    }
    let panicked = match catch_unwind(AssertUnwindSafe(|| client.run(&mut task))) {
        Ok(()) => None,
        Err(payload) => Some(panic_message(payload)),
    };
    if hedging {
        shared.current_slot[who].store(u64::MAX, Ordering::Release);
    }
    shared.busy[who].store(false, Ordering::Relaxed);
    let retry = client.on_complete(task, panicked, released);
    let n = released.len();
    let mut nonlocal = 0usize;
    for t in released.drain(..) {
        if !shared.queues.push(t, local) {
            nonlocal += 1;
        }
    }
    if let Some((t, delay)) = retry {
        shared.schedule_retry(t, delay);
    }
    if n > 1 {
        // We will run one ourselves off the local deque; wake helpers for
        // the rest.
        shared.wake_all();
    } else if nonlocal > 0 {
        shared.wake_one();
    }
    // A single release that landed on our own deque needs no wake at
    // all: we are awake and will pop it next iteration. This is the
    // wake-storm fix — a dependency chain used to notify the condvar
    // once per link (wakes ≈ tasks) just to have a sibling find nothing.
}

// ----------------------------------------------------------- retry timer

/// Heap entry ordered by deadline (earliest first under `BinaryHeap`'s
/// max-heap by reversing the comparison).
struct Delayed {
    at: Instant,
    task: ReadyTask,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at)
    }
}

fn retry_timer_loop(rx: mpsc::Receiver<(ReadyTask, Instant)>, shared: Arc<PoolShared>) {
    let mut pending: BinaryHeap<Delayed> = BinaryHeap::new();
    loop {
        let now = Instant::now();
        let mut fired = 0usize;
        while pending.peek().is_some_and(|d| d.at <= now) {
            let d = pending.pop().expect("peeked");
            shared.queues.push(d.task, None);
            fired += 1;
        }
        if fired > 1 {
            shared.wake_all();
        } else if fired == 1 {
            shared.wake_one();
        }
        let timeout = pending
            .peek()
            .map(|d| d.at.saturating_duration_since(now))
            .unwrap_or(Duration::from_millis(50))
            .max(Duration::from_micros(100));
        match rx.recv_timeout(timeout) {
            Ok((task, at)) => pending.push(Delayed { at, task }),
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    // Shutdown: release anything still parked so no task is silently
    // lost (the runtime waits for outstanding work before shutdown, so
    // this is normally empty).
    let leftover = pending.len();
    for d in pending {
        shared.queues.push(d.task, None);
    }
    if leftover > 0 {
        shared.wake_all();
    }
}

// -------------------------------------------------------------- watchdog

fn watchdog_loop(shared: Arc<PoolShared>, client: Arc<dyn PoolClient>) {
    let n = shared.alive.len();
    let mut last_beat: Vec<(u64, Instant)> = (0..n)
        .map(|i| (shared.heartbeats[i].load(Ordering::Relaxed), Instant::now()))
        .collect();
    let mut flagged_stalled = vec![false; n];
    let mut replacements: Vec<JoinHandle<()>> = Vec::new();
    // Fault monitoring (respawn/stall accounting) only runs when the
    // watchdog proper is enabled; a soft_timeout alone runs this loop in
    // hedge-only mode.
    let monitor = shared.watchdog.enabled;
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(shared.watchdog.interval);
        if let Some(soft) = shared.soft_timeout {
            hedge_scan(&shared, &client, soft);
        }
        if !monitor {
            continue;
        }
        for who in 0..n {
            if !shared.alive[who].load(Ordering::SeqCst) {
                if shared.watchdog.respawn && !shared.shutdown.load(Ordering::SeqCst) {
                    // Respawn: same worker index (counters continue) and
                    // the *same deque* — the predecessor drained it and
                    // made its last access before dropping `alive`, so
                    // the replacement inherits the owner end cleanly and
                    // runs at full locality, not injector-only.
                    shared.alive[who].store(true, Ordering::SeqCst);
                    shared.respawns.fetch_add(1, Ordering::Relaxed);
                    let s = Arc::clone(&shared);
                    let c = Arc::clone(&client);
                    let handle = std::thread::Builder::new()
                        .name(format!("raa-worker-{who}r"))
                        .spawn(move || worker_loop(who, s, c))
                        .expect("failed to respawn worker");
                    replacements.push(handle);
                }
                continue;
            }
            let beat = shared.heartbeats[who].load(Ordering::Relaxed);
            let (prev, since) = last_beat[who];
            if beat != prev {
                last_beat[who] = (beat, Instant::now());
                flagged_stalled[who] = false;
            } else if shared.busy[who].load(Ordering::Relaxed)
                && !flagged_stalled[who]
                && since.elapsed() >= shared.watchdog.stall_timeout
            {
                // Busy with a frozen heartbeat: the task is stalled. The
                // worker is not replaced (it is alive and will finish);
                // work-stealing siblings absorb the queue in the
                // meantime. One count per stall episode.
                flagged_stalled[who] = true;
                shared.stalls.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for h in replacements {
        let _ = h.join();
    }
}

/// One straggler sweep: offer every busy worker whose current attempt
/// has outlived `soft` to the client, which decides (under its own
/// locks) whether a hedged duplicate is safe; accepted hedges are
/// enqueued like any other ready task. The stale-read race on
/// slot/start is benign — the client re-validates against live task
/// state, and a duplicate completion is discarded there.
fn hedge_scan(shared: &Arc<PoolShared>, client: &Arc<dyn PoolClient>, soft: Duration) {
    let soft_ns = (soft.as_nanos() as u64).max(1);
    let now_ns = shared.epoch.elapsed().as_nanos() as u64;
    for who in 0..shared.alive.len() {
        let slot = shared.current_slot[who].load(Ordering::Acquire);
        if slot == u64::MAX {
            continue;
        }
        let started = shared.started_ns[who].load(Ordering::Acquire);
        let running_ns = now_ns.saturating_sub(started);
        if running_ns < soft_ns {
            continue;
        }
        if let Some(task) = client.hedge_straggler(slot as u32, running_ns) {
            shared.queues.push(task, None);
            shared.wake_one();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked with a non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerPolicy;
    use crate::task::{ExecBody, TaskId};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    struct CountingClient {
        done: AtomicU64,
        panics: AtomicU64,
    }

    impl PoolClient for CountingClient {
        fn on_complete(
            &self,
            _task: ReadyTask,
            panicked: Option<String>,
            _released: &mut Vec<ReadyTask>,
        ) -> Option<(ReadyTask, Duration)> {
            if panicked.is_some() {
                self.panics.fetch_add(1, Ordering::SeqCst);
            }
            self.done.fetch_add(1, Ordering::SeqCst);
            None
        }
    }

    fn counting() -> Arc<CountingClient> {
        Arc::new(CountingClient {
            done: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        })
    }

    fn wait_until(pred: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        let mut polls = 0u32;
        while !pred() {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "timed out waiting for pool"
            );
            // Bounded spin, then yield, then real sleeps: a busy poll
            // loop must not starve the pool on a single-core host.
            polls += 1;
            if polls < 64 {
                std::hint::spin_loop();
            } else if polls < 256 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    fn ready(id: u32, body: impl FnOnce() + Send + 'static) -> ReadyTask {
        ReadyTask {
            id: TaskId(id),
            slot: 0,
            gen: 0,
            priority: 0,
            critical: false,
            deadline_ns: crate::scheduler::NO_DEADLINE,
            home: crate::scheduler::NO_HOME,
            probe: false,
            exempt: false,
            seq: 0,
            body: ExecBody::once(body),
        }
    }

    #[test]
    fn executes_pushed_tasks() {
        let queues = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client = counting();
        let pool = WorkerPool::new(3, queues, client.clone(), PoolOptions::default());
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..100 {
            let hits = hits.clone();
            pool.push_external(ready(i, move || {
                hits.fetch_add(1, Ordering::SeqCst);
            }));
        }
        wait_until(|| client.done.load(Ordering::SeqCst) == 100);
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        assert_eq!(client.panics.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn cross_pool_affine_push_falls_back_to_injector() {
        // A task on runtime A spawning into runtime B is a safe public
        // API. B's `deques[w]` owner end belongs to B's worker `w`, so
        // the foreign push must ride B's injector — never the deque the
        // thread-local worker index happens to point at.
        let queues_a = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client_a = counting();
        let pool_a = WorkerPool::new(1, queues_a, client_a.clone(), PoolOptions::default());

        let queues_b = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client_b = counting();
        let pool_b = Arc::new(WorkerPool::new(
            2,
            queues_b.clone(),
            client_b.clone(),
            PoolOptions::default(),
        ));

        // Same-pool sanity: on B's own worker the affinity path engages.
        let b = pool_b.clone();
        pool_b.push_external(ready(0, move || {
            assert!(
                b.own_deque().is_some(),
                "a pool's own worker should claim its deque"
            );
        }));
        wait_until(|| client_b.done.load(Ordering::SeqCst) == 1);

        // Cross-pool: A's worker 0 has a thread-local worker index, but
        // for the wrong pool — B must refuse the owner-side shortcut.
        let b = pool_b.clone();
        pool_a.push_external(ready(1, move || {
            assert!(
                b.own_deque().is_none(),
                "a foreign pool's worker must not claim an owner deque"
            );
            b.push_affine(ready(2, || {}));
        }));
        wait_until(|| client_b.done.load(Ordering::SeqCst) == 2);
        // B can finish the pushed task before A's worker gets to account
        // for the task that pushed it.
        wait_until(|| client_a.done.load(Ordering::SeqCst) == 1);
        let (pushes, _) = queues_b.injector_traffic();
        assert!(pushes >= 1, "cross-pool spawn must ride the injector");
    }

    #[test]
    fn chained_release_on_own_deque_skips_the_wake() {
        // A dependency chain releases exactly one task per completion,
        // and that task lands on the completing worker's own deque. The
        // old code notified the idle condvar once per link (wakes ≈
        // tasks); now the completer just keeps running and siblings stay
        // parked.
        struct ChainClient {
            done: AtomicU64,
            target: u64,
        }
        impl PoolClient for ChainClient {
            fn on_complete(
                &self,
                task: ReadyTask,
                _panicked: Option<String>,
                released: &mut Vec<ReadyTask>,
            ) -> Option<(ReadyTask, Duration)> {
                let n = self.done.fetch_add(1, Ordering::SeqCst) + 1;
                if n < self.target {
                    released.push(ready(task.id.0 + 1, || {}));
                }
                None
            }
        }
        let queues = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client = Arc::new(ChainClient {
            done: AtomicU64::new(0),
            target: 200,
        });
        let pool = WorkerPool::new(2, queues, client.clone(), PoolOptions::default());
        pool.push_external(ready(0, || {}));
        wait_until(|| client.done.load(Ordering::SeqCst) == 200);
        let (_parks, wakes) = pool.park_stats();
        assert!(
            (wakes as f64) < 0.5 * 200.0,
            "chain completions must not wake per link (wakes={wakes})"
        );
    }

    #[test]
    fn panicking_task_is_reported_not_fatal() {
        let queues = Arc::new(ReadyQueues::new(SchedulerPolicy::Fifo));
        let client = counting();
        let pool = WorkerPool::new(1, queues, client.clone(), PoolOptions::default());
        pool.push_external(ready(0, || panic!("boom")));
        pool.push_external(ready(1, || {}));
        wait_until(|| client.done.load(Ordering::SeqCst) == 2);
        assert_eq!(client.panics.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn shutdown_joins_workers() {
        let queues = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client = counting();
        let mut pool = WorkerPool::new(4, queues, client, PoolOptions::default());
        pool.shutdown();
        assert_eq!(pool.handles.len(), 0);
        // Second shutdown is a no-op.
        pool.shutdown();
    }

    #[test]
    fn killed_worker_tasks_complete_via_respawn() {
        let queues = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client = counting();
        let plan = FaultPlan::new(1).kill_worker(0, 5).kill_worker(1, 5);
        let options = PoolOptions {
            plan: Some(Arc::new(plan)),
            watchdog: WatchdogConfig::enabled(),
            ..PoolOptions::default()
        };
        let pool = WorkerPool::new(2, queues, client.clone(), options);
        for i in 0..100 {
            pool.push_external(ready(i, || {}));
        }
        wait_until(|| client.done.load(Ordering::SeqCst) == 100);
        // The watchdog respawn lags the death by up to one interval.
        wait_until(|| {
            let stats = pool.fault_stats();
            stats.worker_deaths >= 1 && stats.worker_respawns == stats.worker_deaths
        });
    }

    #[test]
    fn killed_worker_degrades_without_losing_tasks() {
        // Respawn disabled: the pool degrades to one worker but still
        // finishes everything.
        let queues = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client = counting();
        let plan = FaultPlan::new(1).kill_worker(1, 3);
        let options = PoolOptions {
            plan: Some(Arc::new(plan)),
            watchdog: WatchdogConfig::enabled().respawn(false),
            ..PoolOptions::default()
        };
        let pool = WorkerPool::new(2, queues, client.clone(), options);
        for i in 0..200 {
            pool.push_external(ready(i, || std::thread::sleep(Duration::from_micros(50))));
        }
        wait_until(|| client.done.load(Ordering::SeqCst) == 200);
        let stats = pool.fault_stats();
        assert_eq!(stats.worker_respawns, 0);
        if stats.worker_deaths > 0 {
            assert_eq!(pool.alive_workers(), 1);
        }
    }

    #[test]
    fn retry_directive_reenqueues_after_backoff() {
        struct RetryOnce {
            done: AtomicU64,
            retried: AtomicU64,
        }
        impl PoolClient for RetryOnce {
            fn on_complete(
                &self,
                task: ReadyTask,
                panicked: Option<String>,
                _released: &mut Vec<ReadyTask>,
            ) -> Option<(ReadyTask, Duration)> {
                if panicked.is_some() && self.retried.load(Ordering::SeqCst) == 0 {
                    self.retried.fetch_add(1, Ordering::SeqCst);
                    return Some((task, Duration::from_millis(1)));
                }
                self.done.fetch_add(1, Ordering::SeqCst);
                None
            }
        }
        let queues = Arc::new(ReadyQueues::new(SchedulerPolicy::WorkStealing));
        let client = Arc::new(RetryOnce {
            done: AtomicU64::new(0),
            retried: AtomicU64::new(0),
        });
        let pool = WorkerPool::new(1, queues, client.clone(), PoolOptions::default());
        let runs = Arc::new(AtomicU64::new(0));
        let r = runs.clone();
        pool.push_external(ReadyTask {
            body: ExecBody::retryable(move || {
                if r.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("first attempt fails");
                }
            }),
            ..ready(0, || {})
        });
        wait_until(|| client.done.load(Ordering::SeqCst) == 1);
        assert_eq!(runs.load(Ordering::SeqCst), 2);
        assert_eq!(client.retried.load(Ordering::SeqCst), 1);
    }
}
