//! Ready-task scheduling policies.
//!
//! The runtime's ready pool is pluggable, because the paper's point is
//! precisely that *scheduling policy* is a first-class architectural
//! concern.  Policies:
//!
//! * [`SchedulerPolicy::Fifo`] — one global FIFO (the classic centralised
//!   queue; the baseline Carbon-style hardware queue would accelerate).
//! * [`SchedulerPolicy::Lifo`] — one global LIFO stack (depth-first).
//! * [`SchedulerPolicy::WorkStealing`] — per-worker steal-half deques +
//!   a lock-free bounded injector (see [`crate::deque`]), Cilk/Nanos
//!   style. The default, and the only fully lock-free hot path: thieves
//!   migrate up to half a victim's queue per claim, and worker-local
//!   spawns take the owner's own deque, so the injector only carries
//!   external submissions and spill.
//!   Tasks carrying an explicit priority go to a small overflow heap
//!   that workers consult only on steal-miss, so the priority machinery
//!   costs nothing while ordinary work is flowing.
//! * [`SchedulerPolicy::Priority`] — a global binary heap on task priority
//!   (ties broken FIFO).
//! * [`SchedulerPolicy::CriticalityAware`] — CATS-like: critical tasks go
//!   to a dedicated queue served preferentially by the designated "fast"
//!   workers; non-critical tasks are served by the rest.
//!
//! The legacy global policies (Fifo/Lifo/Priority) keep their exact
//! ordering semantics behind one mutex each — they exist to *study*
//! centralised scheduling, not to win benchmarks.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::deque::{DequeStealer, Injector, Steal, WorkerDeque};
use crate::stats::{ClusterSteals, VictimSteals};
use crate::task::{ExecBody, TaskId};
use crate::topology::Topology;
use crate::trace::{TraceEventKind, Tracer, NO_TASK};

pub use crate::topology::NO_HOME;

/// Ring capacity of the shared injectors. Bursts beyond this spill to a
/// mutex-protected overflow list (correct, slower) — sized so that only
/// pathological spawn storms ever reach the spill.
const INJECTOR_RING: usize = 1 << 15;

/// Sentinel deadline for tasks whose job carries none: sorts after every
/// real deadline, so plain-priority ordering is unchanged.
pub const NO_DEADLINE: u64 = u64::MAX;

/// A deadline within this many nanoseconds of now counts as *urgent*:
/// such tasks are routed to the overflow heap at push time and the heap
/// is consulted *before* the injector at pop time. Tasks whose deadline
/// is comfortably far ride the ordinary lock-free path — the EDF
/// machinery costs nothing until a deadline is actually at risk.
pub const EDF_URGENT_WINDOW_NS: u64 = 5_000_000;

/// Per-worker deque capacity; overflow from a completion burst goes to
/// the shared injector.
pub const WORKER_DEQUE_CAP: usize = 1 << 13;

/// Per-victim steal counters are kept in a fixed-size table (indexed
/// `victim % MAX_TRACKED_VICTIMS`) so `ReadyQueues` needs no worker
/// count at construction; pools larger than this alias counters, which
/// only blurs the attribution, never the totals.
pub const MAX_TRACKED_VICTIMS: usize = 64;

/// Consecutive intra-cluster steal misses before a worker escalates to
/// the inter-cluster balancer. One miss is noise (a thief racing us);
/// two in a row means the cluster really is dry.
pub const BALANCE_AFTER_MISSES: u64 = 2;

/// Max tasks the balancer drains from a remote cluster's injector in one
/// visit. Balancing moves batches, not single tasks — the whole point is
/// to amortise the cross-cluster trip.
pub const BALANCE_BATCH: usize = 32;

/// Atomic cell of the per-victim steal table.
#[derive(Default)]
struct VictimCell {
    ok: AtomicU64,
    empty: AtomicU64,
}

/// Atomic cell of the per-cluster steal table: intra/inter hit rates and
/// the balancer's migration volume, attributed to the *thief's* cluster.
#[derive(Default)]
struct ClusterCell {
    intra_ok: AtomicU64,
    intra_empty: AtomicU64,
    inter_ok: AtomicU64,
    inter_empty: AtomicU64,
    migrated: AtomicU64,
}

/// Scheduling policy selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SchedulerPolicy {
    Fifo,
    Lifo,
    #[default]
    WorkStealing,
    Priority,
    /// `fast_workers` = number of workers that prefer the critical queue.
    CriticalityAware {
        fast_workers: usize,
    },
}

/// Per-job quality-of-service class, consumed by the job layer's
/// admission path and by the scheduler's routing decision:
///
/// * [`QosClass::Guaranteed`] tasks are always admitted (subject only to
///   the configured in-flight caps) and keep their computed criticality.
/// * [`QosClass::BestEffort`] tasks are load-shed while the runtime's
///   overload controller is engaged (`RuntimeConfig::shed_delay_budget`),
///   and are always scheduled as non-critical — under
///   [`SchedulerPolicy::CriticalityAware`] they are served by the slow
///   workers and never displace guaranteed work from the fast ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum QosClass {
    #[default]
    Guaranteed,
    BestEffort,
}

impl QosClass {
    /// True when tasks of this class may be dropped under pressure.
    pub fn sheddable(&self) -> bool {
        matches!(self, QosClass::BestEffort)
    }
}

/// A task that is ready to run: the body, everything the scheduler
/// needs to order it, and the two bits that tell the pool client's run
/// hook whether it has to look at the task's slot at all. Label, job,
/// accesses and edges stay behind in the slot.
pub struct ReadyTask {
    pub id: TaskId,
    /// Slab slot of the task's runtime bookkeeping (see
    /// [`crate::task::TaskSlab`]); echoed back on completion.
    pub slot: u32,
    /// Slot generation at enqueue time (0 when not tracked) — lets trace
    /// consumers tell retry attempts apart from slab-slot reuse.
    pub gen: u64,
    pub priority: i32,
    pub critical: bool,
    /// Absolute deadline in nanoseconds since the runtime epoch
    /// ([`NO_DEADLINE`] when the owning job has none). Breaks priority
    /// ties earliest-deadline-first in the overflow heap and makes
    /// near-deadline tasks jump the injector.
    pub deadline_ns: u64,
    /// Home cluster derived from the task's declared SPM/region
    /// footprint ([`NO_HOME`] when it touches nothing, or the topology
    /// is flat). External pushes land on this cluster's injector, so a
    /// task starts next to the tile that owns its data.
    pub home: u32,
    /// Dispatch reads the slot first: it holds a submitted job's handle
    /// (default-job tasks resolve their job without touching the slot),
    /// or this is a hedged duplicate whose task may have settled.
    pub probe: bool,
    /// A `taskwait on` sentinel: no preflight, fault injection or body
    /// timing applies to it.
    pub exempt: bool,
    pub seq: u64,
    pub body: ExecBody,
}

impl std::fmt::Debug for ReadyTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadyTask")
            .field("id", &self.id)
            .field("priority", &self.priority)
            .field("critical", &self.critical)
            .finish()
    }
}

/// Heap ordering wrapper: max priority first, then earliest deadline,
/// then earliest submission. Tasks without a deadline carry
/// [`NO_DEADLINE`], so the deadline tie-break is inert for them and the
/// pre-deadline priority semantics are unchanged.
struct PrioEntry(ReadyTask);

impl PartialEq for PrioEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.priority == other.0.priority
            && self.0.deadline_ns == other.0.deadline_ns
            && self.0.seq == other.0.seq
    }
}
impl Eq for PrioEntry {}
impl PartialOrd for PrioEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PrioEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .priority
            .cmp(&other.0.priority)
            .then(other.0.deadline_ns.cmp(&self.0.deadline_ns))
            .then(other.0.seq.cmp(&self.0.seq))
    }
}

/// Global scheduling structures (per-worker deques live in the pool).
pub struct ReadyQueues {
    policy: SchedulerPolicy,
    /// Worker cluster map: bounds the steal sweep, routes external
    /// pushes, and gates the inter-cluster balancer. `Topology::flat`
    /// keeps every path on its pre-hierarchy behaviour.
    topology: Topology,
    /// One injector per cluster (exactly one when flat): external
    /// submissions and spill stay on the cluster that owns them, so
    /// cross-cluster traffic is the balancer's decision, not an accident
    /// of a shared MPMC queue.
    injectors: Box<[Injector<ReadyTask>]>,
    /// Round-robin cursor for external pushes with no home cluster.
    next_cluster: AtomicUsize,
    critical: Injector<ReadyTask>,
    /// Work-stealing overflow for explicitly prioritised tasks,
    /// consulted only on steal-miss.
    overflow: Mutex<BinaryHeap<PrioEntry>>,
    overflow_len: AtomicUsize,
    /// Approximate earliest deadline sitting in the overflow heap
    /// (`NO_DEADLINE` when none): `fetch_min` on push, reset only when
    /// the heap empties. May lag the heap (a stale *early* value just
    /// causes one spurious overflow poll — work-conserving either way).
    overflow_min_deadline: AtomicU64,
    /// Wall-clock origin for `deadline_ns` values; shared with the
    /// runtime so job deadlines and scheduler urgency agree.
    epoch: Instant,
    fifo: Mutex<VecDeque<ReadyTask>>,
    lifo: Mutex<Vec<ReadyTask>>,
    heap: Mutex<BinaryHeap<PrioEntry>>,
    seq: AtomicU64,
    /// Successful steals from sibling deques.
    steals_ok: AtomicU64,
    /// Full steal sweeps that found nothing (only counted when there is
    /// more than one worker to sweep).
    steals_empty: AtomicU64,
    /// Per-victim steal outcomes: `ok` counts claims satisfied from that
    /// victim's deque, `empty` counts probes that found it bare. Feeds
    /// the contention report's hit-rate table.
    victim_steals: Box<[VictimCell]>,
    /// Per-cluster steal outcomes (one cell per cluster).
    cluster_steals: Box<[ClusterCell]>,
    /// Consecutive intra-cluster steal misses per worker (indexed
    /// `who % MAX_TRACKED_VICTIMS`, like the victim table); reaching
    /// [`BALANCE_AFTER_MISSES`] arms the inter-cluster balancer.
    balance_miss: Box<[AtomicU64]>,
    tracer: Option<Arc<Tracer>>,
}

impl ReadyQueues {
    pub fn new(policy: SchedulerPolicy) -> Self {
        Self::with_tracer(policy, Topology::flat(1), None, Instant::now())
    }

    /// Like [`ReadyQueues::new`] but clustered.
    pub fn with_topology(policy: SchedulerPolicy, topology: Topology) -> Self {
        Self::with_tracer(policy, topology, None, Instant::now())
    }

    /// `epoch` is the origin against which `ReadyTask::deadline_ns` is
    /// measured; the runtime passes its own so both sides agree.
    pub fn with_tracer(
        policy: SchedulerPolicy,
        topology: Topology,
        tracer: Option<Arc<Tracer>>,
        epoch: Instant,
    ) -> Self {
        ReadyQueues {
            policy,
            topology,
            injectors: (0..topology.clusters)
                .map(|_| Injector::new(INJECTOR_RING))
                .collect(),
            next_cluster: AtomicUsize::new(0),
            critical: Injector::new(INJECTOR_RING),
            overflow: Mutex::new(BinaryHeap::new()),
            overflow_len: AtomicUsize::new(0),
            overflow_min_deadline: AtomicU64::new(NO_DEADLINE),
            epoch,
            fifo: Mutex::new(VecDeque::new()),
            lifo: Mutex::new(Vec::new()),
            heap: Mutex::new(BinaryHeap::new()),
            seq: AtomicU64::new(0),
            steals_ok: AtomicU64::new(0),
            steals_empty: AtomicU64::new(0),
            victim_steals: (0..MAX_TRACKED_VICTIMS)
                .map(|_| VictimCell::default())
                .collect(),
            cluster_steals: (0..topology.clusters)
                .map(|_| ClusterCell::default())
                .collect(),
            balance_miss: (0..MAX_TRACKED_VICTIMS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            tracer,
        }
    }

    /// The worker cluster map this scheduler routes by.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// `(steals_ok, steals_empty, injector_overflow)` — always-on relaxed
    /// counters, merged into `StatsSnapshot`.
    pub fn contention_counters(&self) -> (u64, u64, u64) {
        (
            self.steals_ok.load(Ordering::Relaxed),
            self.steals_empty.load(Ordering::Relaxed),
            self.injectors
                .iter()
                .map(|i| i.overflow_events())
                .sum::<u64>()
                + self.critical.overflow_events(),
        )
    }

    /// Per-victim steal hit/miss table for the first `n` workers (counts
    /// alias above [`MAX_TRACKED_VICTIMS`]).
    pub fn per_victim_steals(&self, n: usize) -> Vec<VictimSteals> {
        self.victim_steals
            .iter()
            .take(n.min(MAX_TRACKED_VICTIMS))
            .map(|c| VictimSteals {
                ok: c.ok.load(Ordering::Relaxed),
                empty: c.empty.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// `(pushes, overflow_events)` across the shared injectors — the
    /// contention report's "how much traffic missed the local path"
    /// signal.
    pub fn injector_traffic(&self) -> (u64, u64) {
        (
            self.injectors.iter().map(|i| i.push_events()).sum::<u64>()
                + self.critical.push_events(),
            self.injectors
                .iter()
                .map(|i| i.overflow_events())
                .sum::<u64>()
                + self.critical.overflow_events(),
        )
    }

    /// Per-cluster steal/balance counters (one entry per cluster; a flat
    /// topology yields a single entry covering the whole pool).
    pub fn per_cluster_steals(&self) -> Vec<ClusterSteals> {
        self.cluster_steals
            .iter()
            .enumerate()
            .map(|(c, cell)| ClusterSteals {
                intra_ok: cell.intra_ok.load(Ordering::Relaxed),
                intra_empty: cell.intra_empty.load(Ordering::Relaxed),
                inter_ok: cell.inter_ok.load(Ordering::Relaxed),
                inter_empty: cell.inter_empty.load(Ordering::Relaxed),
                migrated: cell.migrated.load(Ordering::Relaxed),
                injector_pushes: self.injectors[c].push_events(),
            })
            .collect()
    }

    /// Worker-only emission: scheduler events from unbound (external)
    /// threads are skipped — a ready-at-spawn task pushed from the
    /// spawning thread is already implied by its Spawn record (ready
    /// bit), and steals/pops only ever happen on workers. This keeps the
    /// external spawn hot path at one traced event per task.
    #[inline]
    fn trace(&self, kind: TraceEventKind, task: TaskId, slot: u32, gen: u64, arg: u64) {
        if let Some(t) = &self.tracer {
            t.emit_from_worker(kind, task, slot, gen, arg);
        }
    }

    pub fn policy(&self) -> SchedulerPolicy {
        self.policy
    }

    /// Stamp a ready task with a global submission sequence number.
    /// Only the policies that order on `seq` pay for the shared counter.
    pub fn stamp(&self, mut t: ReadyTask) -> ReadyTask {
        t.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        t
    }

    /// Nanoseconds elapsed since the runtime epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_overflow(&self, t: ReadyTask) {
        if t.deadline_ns != NO_DEADLINE {
            self.overflow_min_deadline
                .fetch_min(t.deadline_ns, Ordering::AcqRel);
        }
        let mut heap = self.overflow.lock();
        heap.push(PrioEntry(self.stamp(t)));
        self.overflow_len.store(heap.len(), Ordering::Release);
    }

    /// Pop the overflow heap, keeping `overflow_len` and the approximate
    /// min-deadline in sync. The min-deadline is only *reset* when the
    /// heap empties: between pops it may be stale-early, which costs at
    /// most a wasted poll.
    fn pop_overflow(&self) -> Option<ReadyTask> {
        let mut heap = self.overflow.lock();
        let t = heap.pop().map(|e| e.0);
        self.overflow_len.store(heap.len(), Ordering::Release);
        if heap.is_empty() {
            self.overflow_min_deadline
                .store(NO_DEADLINE, Ordering::Release);
        }
        t
    }

    /// True when the overflow heap (probably) holds a task whose deadline
    /// falls inside the urgency window — one relaxed load on the hot
    /// path when the heap is empty.
    #[inline]
    fn overflow_is_urgent(&self) -> bool {
        if self.overflow_len.load(Ordering::Acquire) == 0 {
            return false;
        }
        let min = self.overflow_min_deadline.load(Ordering::Acquire);
        min != NO_DEADLINE && min <= self.now_ns().saturating_add(EDF_URGENT_WINDOW_NS)
    }

    /// Cluster of worker `who`, free when the topology is flat.
    #[inline]
    fn cluster_index(&self, who: usize) -> usize {
        if self.injectors.len() == 1 {
            0
        } else {
            self.topology.cluster_of(who)
        }
    }

    /// Injector an *external* (non-worker) push of `t` should land on:
    /// the task's home cluster when it declared one, else round-robin
    /// across clusters. Flat topologies skip both and pay nothing.
    #[inline]
    fn injector_for_home(&self, home: u32) -> &Injector<ReadyTask> {
        let k = self.injectors.len();
        if k == 1 {
            return &self.injectors[0];
        }
        let c = if home == NO_HOME {
            self.next_cluster.fetch_add(1, Ordering::Relaxed) % k
        } else {
            home as usize % k
        };
        &self.injectors[c]
    }

    /// Push a ready task to the global structures. `local` is the current
    /// worker's own deque and index when the push happens on a worker
    /// thread (used by the work-stealing policy for locality).
    ///
    /// Returns `true` iff the task landed on the *caller's own* deque —
    /// the caller will pop it itself, so no wake is needed for it.
    pub fn push(&self, t: ReadyTask, local: Option<(&WorkerDeque<ReadyTask>, usize)>) -> bool {
        // Enqueue events are emitted *before* the push: once the task is
        // visible another worker can start it, and its `start` must not
        // precede the enqueue record in the trace.
        let (id, slot, gen) = (t.id, t.slot, t.gen);
        match self.policy {
            SchedulerPolicy::Fifo => {
                self.trace(TraceEventKind::EnqueueGlobal, id, slot, gen, 0);
                self.fifo.lock().push_back(self.stamp(t))
            }
            SchedulerPolicy::Lifo => {
                self.trace(TraceEventKind::EnqueueGlobal, id, slot, gen, 0);
                self.lifo.lock().push(self.stamp(t))
            }
            SchedulerPolicy::WorkStealing => {
                // Explicit priorities always take the overflow heap;
                // deadline'd tasks take it only once the deadline is
                // close enough to be at risk — far-out deadlines stay on
                // the lock-free path.
                let urgent = t.deadline_ns != NO_DEADLINE
                    && t.deadline_ns <= self.now_ns().saturating_add(EDF_URGENT_WINDOW_NS);
                if t.priority != 0 || urgent {
                    self.trace(
                        TraceEventKind::EnqueueOverflow,
                        id,
                        slot,
                        gen,
                        t.priority as u64,
                    );
                    self.push_overflow(t);
                    return false;
                }
                match local {
                    Some((deque, who)) => {
                        self.trace(TraceEventKind::EnqueueLocal, id, slot, gen, 0);
                        if let Err(t) = deque.push(t) {
                            // Spill: the task really lands on the
                            // pushing worker's own cluster injector.
                            self.trace(TraceEventKind::EnqueueInjector, id, slot, gen, 1);
                            self.injectors[self.cluster_index(who)].push(t);
                            return false;
                        }
                        return true;
                    }
                    None => {
                        self.trace(TraceEventKind::EnqueueInjector, id, slot, gen, 0);
                        self.injector_for_home(t.home).push(t)
                    }
                }
            }
            SchedulerPolicy::Priority => {
                self.trace(TraceEventKind::EnqueueGlobal, id, slot, gen, 0);
                self.heap.lock().push(PrioEntry(self.stamp(t)))
            }
            SchedulerPolicy::CriticalityAware { .. } => {
                if t.critical {
                    self.trace(TraceEventKind::EnqueueInjector, id, slot, gen, 2);
                    self.critical.push(t);
                } else {
                    self.trace(TraceEventKind::EnqueueInjector, id, slot, gen, 0);
                    self.injectors[0].push(t);
                }
            }
        }
        false
    }

    /// Pop a task for worker `who`, given its local deque and the stealers
    /// of every worker. Returns `None` when no work is visible (the caller
    /// parks).
    pub fn pop(
        &self,
        who: usize,
        local: Option<(&WorkerDeque<ReadyTask>, usize)>,
        stealers: &[DequeStealer<ReadyTask>],
    ) -> Option<ReadyTask> {
        match self.policy {
            SchedulerPolicy::Fifo => self.fifo.lock().pop_front(),
            SchedulerPolicy::Lifo => self.lifo.lock().pop(),
            SchedulerPolicy::Priority => self.heap.lock().pop().map(|e| e.0),
            SchedulerPolicy::WorkStealing => {
                if let Some(t) = local.and_then(|(d, _)| d.pop()) {
                    return Some(t);
                }
                // A near-deadline task in the overflow heap outranks the
                // injector backlog — this is what lets a critical job's
                // tasks jump the queue under overload. Plain runs pay one
                // atomic load here.
                if self.overflow_is_urgent() {
                    if let Some(t) = self.pop_overflow() {
                        return Some(t);
                    }
                }
                let n = stealers.len();
                let k = self.injectors.len();
                let c = self.cluster_index(who);
                if let Some(t) = self.injectors[c].pop() {
                    return Some(t);
                }
                // Steal inside our own cluster first, starting after
                // ourselves to spread contention. Each probe claims up to
                // half the victim's queue in one CAS: the first task is
                // returned, the rest land on our own deque (spilling to
                // our cluster injector only if we are somehow full).
                // `Retry` means another thief holds the victim's claim
                // window — moving on to the next victim beats spinning
                // on a contended head word. A flat topology's single
                // cluster spans the whole pool, so this *is* the old
                // global sweep in that case.
                let (start, end) = self.topology.cluster_span(c, n);
                let width = end.saturating_sub(start);
                let ccell = &self.cluster_steals[c];
                for off in 1..width.max(1) {
                    let victim = start + (who - start + off) % width;
                    let cell = &self.victim_steals[victim % MAX_TRACKED_VICTIMS];
                    let mut extras = 0u64;
                    let got = {
                        let mut sink = |t: ReadyTask| {
                            extras += 1;
                            match local {
                                Some((d, _)) => {
                                    if let Err(t) = d.push(t) {
                                        self.injectors[c].push(t);
                                    }
                                }
                                None => self.injectors[c].push(t),
                            }
                        };
                        stealers[victim].steal_half_with(&mut sink)
                    };
                    match got {
                        Steal::Success(t) => {
                            self.steals_ok.fetch_add(1 + extras, Ordering::Relaxed);
                            cell.ok.fetch_add(1 + extras, Ordering::Relaxed);
                            ccell.intra_ok.fetch_add(1 + extras, Ordering::Relaxed);
                            if k > 1 {
                                self.balance_miss[who % MAX_TRACKED_VICTIMS]
                                    .store(0, Ordering::Relaxed);
                            }
                            let arg = (1 + extras) << 16 | victim as u64;
                            self.trace(TraceEventKind::StealOk, t.id, t.slot, t.gen, arg);
                            return Some(t);
                        }
                        Steal::Retry => continue,
                        Steal::Empty => {
                            cell.empty.fetch_add(1, Ordering::Relaxed);
                            ccell.intra_empty.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                // Intra-cluster miss. After a few consecutive misses the
                // cluster is genuinely dry: escalate to the inter-cluster
                // balancer, which moves a *batch* from the fullest thing
                // it finds elsewhere (remote injector first, then a
                // steal-half of a remote deque). Single steals across
                // clusters are exactly the random-victim traffic this
                // refactor removes.
                if k > 1 {
                    let miss_cell = &self.balance_miss[who % MAX_TRACKED_VICTIMS];
                    let misses = miss_cell.fetch_add(1, Ordering::Relaxed) + 1;
                    if misses >= BALANCE_AFTER_MISSES {
                        if let Some(t) = self.balance_from_remote(c, local, stealers) {
                            miss_cell.store(0, Ordering::Relaxed);
                            return Some(t);
                        }
                    }
                }
                if n > 1 {
                    self.steals_empty.fetch_add(1, Ordering::Relaxed);
                    self.trace(TraceEventKind::StealEmpty, NO_TASK, 0, 0, n as u64);
                }
                // Steal-miss: consult the priority overflow heap.
                if self.overflow_len.load(Ordering::Acquire) > 0 {
                    return self.pop_overflow();
                }
                None
            }
            SchedulerPolicy::CriticalityAware { fast_workers } => {
                let fast = who < fast_workers;
                let (first, second) = if fast {
                    (&self.critical, &self.injectors[0])
                } else {
                    (&self.injectors[0], &self.critical)
                };
                first.pop().or_else(|| second.pop())
            }
        }
    }

    /// The inter-cluster balancer: called by a worker in cluster `c`
    /// whose own cluster has been dry for [`BALANCE_AFTER_MISSES`]
    /// consecutive sweeps. Visits the other clusters in ring order and
    /// migrates a *batch* of work home — up to [`BALANCE_BATCH`] tasks
    /// drained from a remote injector, or one steal-half claim from a
    /// remote deque (itself up to half that deque in one CAS). Returns
    /// the first migrated task; the rest land on the caller's deque.
    fn balance_from_remote(
        &self,
        c: usize,
        local: Option<(&WorkerDeque<ReadyTask>, usize)>,
        stealers: &[DequeStealer<ReadyTask>],
    ) -> Option<ReadyTask> {
        let k = self.injectors.len();
        let n = stealers.len();
        let ccell = &self.cluster_steals[c];
        for step in 1..k {
            let rc = (c + step) % k;
            // Spill parked on a remote injector is the cheapest thing to
            // migrate: no deque owner to race with.
            if let Some(first) = self.injectors[rc].pop() {
                let mut moved = 1u64;
                if let Some((d, _)) = local {
                    while (moved as usize) < BALANCE_BATCH {
                        match self.injectors[rc].pop() {
                            Some(t) => {
                                moved += 1;
                                if let Err(t) = d.push(t) {
                                    self.injectors[c].push(t);
                                }
                            }
                            None => break,
                        }
                    }
                }
                ccell.inter_ok.fetch_add(moved, Ordering::Relaxed);
                ccell.migrated.fetch_add(moved, Ordering::Relaxed);
                self.trace(
                    TraceEventKind::StealRemote,
                    first.id,
                    first.slot,
                    first.gen,
                    rc as u64,
                );
                return Some(first);
            }
            let (start, end) = self.topology.cluster_span(rc, n);
            for (victim, stealer) in stealers.iter().enumerate().take(end).skip(start) {
                let cell = &self.victim_steals[victim % MAX_TRACKED_VICTIMS];
                let mut extras = 0u64;
                let got = {
                    let mut sink = |t: ReadyTask| {
                        extras += 1;
                        match local {
                            Some((d, _)) => {
                                if let Err(t) = d.push(t) {
                                    self.injectors[c].push(t);
                                }
                            }
                            None => self.injectors[c].push(t),
                        }
                    };
                    stealer.steal_half_with(&mut sink)
                };
                match got {
                    Steal::Success(t) => {
                        self.steals_ok.fetch_add(1 + extras, Ordering::Relaxed);
                        cell.ok.fetch_add(1 + extras, Ordering::Relaxed);
                        ccell.inter_ok.fetch_add(1 + extras, Ordering::Relaxed);
                        ccell.migrated.fetch_add(1 + extras, Ordering::Relaxed);
                        self.trace(
                            TraceEventKind::StealRemote,
                            t.id,
                            t.slot,
                            t.gen,
                            victim as u64,
                        );
                        return Some(t);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => {
                        cell.empty.fetch_add(1, Ordering::Relaxed);
                        ccell.inter_empty.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        None
    }

    /// Best-effort emptiness check (for parking decisions).
    pub fn looks_empty(&self) -> bool {
        match self.policy {
            SchedulerPolicy::Fifo => self.fifo.lock().is_empty(),
            SchedulerPolicy::Lifo => self.lifo.lock().is_empty(),
            SchedulerPolicy::Priority => self.heap.lock().is_empty(),
            SchedulerPolicy::WorkStealing => {
                self.injectors.iter().all(|i| i.is_empty())
                    && self.overflow_len.load(Ordering::Acquire) == 0
            }
            SchedulerPolicy::CriticalityAware { .. } => {
                self.injectors[0].is_empty() && self.critical.is_empty()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt(id: u32, priority: i32, critical: bool) -> ReadyTask {
        ReadyTask {
            id: TaskId(id),
            slot: 0,
            gen: 0,
            priority,
            critical,
            deadline_ns: NO_DEADLINE,
            home: NO_HOME,
            probe: false,
            exempt: false,
            seq: 0,
            body: ExecBody::once(|| {}),
        }
    }

    fn rt_deadline(id: u32, deadline_ns: u64) -> ReadyTask {
        ReadyTask {
            deadline_ns,
            ..rt(id, 0, false)
        }
    }

    #[test]
    fn fifo_order() {
        let q = ReadyQueues::new(SchedulerPolicy::Fifo);
        q.push(rt(0, 0, false), None);
        q.push(rt(1, 0, false), None);
        q.push(rt(2, 0, false), None);
        let ids: Vec<u32> = (0..3).map(|_| q.pop(0, None, &[]).unwrap().id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(q.pop(0, None, &[]).is_none());
    }

    #[test]
    fn lifo_order() {
        let q = ReadyQueues::new(SchedulerPolicy::Lifo);
        for i in 0..3 {
            q.push(rt(i, 0, false), None);
        }
        let ids: Vec<u32> = (0..3).map(|_| q.pop(0, None, &[]).unwrap().id.0).collect();
        assert_eq!(ids, vec![2, 1, 0]);
    }

    #[test]
    fn priority_order_with_fifo_ties() {
        let q = ReadyQueues::new(SchedulerPolicy::Priority);
        q.push(rt(0, 1, false), None);
        q.push(rt(1, 5, false), None);
        q.push(rt(2, 1, false), None);
        q.push(rt(3, 5, false), None);
        let ids: Vec<u32> = (0..4).map(|_| q.pop(0, None, &[]).unwrap().id.0).collect();
        assert_eq!(ids, vec![1, 3, 0, 2], "priority desc, FIFO within ties");
    }

    #[test]
    fn work_stealing_prefers_local_then_injector() {
        let q = ReadyQueues::new(SchedulerPolicy::WorkStealing);
        let local = WorkerDeque::new(WORKER_DEQUE_CAP);
        let stealers = [local.stealer()];
        assert!(!q.push(rt(0, 0, false), None)); // goes to injector
        assert!(q.push(rt(1, 0, false), Some((&local, 0)))); // local
        let first = q.pop(0, Some((&local, 0)), &stealers).unwrap();
        assert_eq!(first.id.0, 1, "local deque first");
        let second = q.pop(0, Some((&local, 0)), &stealers).unwrap();
        assert_eq!(second.id.0, 0);
    }

    #[test]
    fn work_stealing_steals_from_sibling() {
        let q = ReadyQueues::new(SchedulerPolicy::WorkStealing);
        let w0 = WorkerDeque::new(WORKER_DEQUE_CAP);
        let w1 = WorkerDeque::new(WORKER_DEQUE_CAP);
        let stealers = [w0.stealer(), w1.stealer()];
        q.push(rt(7, 0, false), Some((&w1, 1)));
        // Worker 0 has nothing local and the injector is empty: it must
        // steal worker 1's task.
        let got = q.pop(0, Some((&w0, 0)), &stealers).unwrap();
        assert_eq!(got.id.0, 7);
    }

    #[test]
    fn work_stealing_prioritised_tasks_served_on_steal_miss() {
        let q = ReadyQueues::new(SchedulerPolicy::WorkStealing);
        let local = WorkerDeque::new(WORKER_DEQUE_CAP);
        let stealers = [local.stealer()];
        q.push(rt(0, 2, false), Some((&local, 0))); // prioritised: overflow heap
        q.push(rt(1, 5, false), Some((&local, 0)));
        q.push(rt(2, 0, false), Some((&local, 0))); // plain: local deque
        assert_eq!(q.overflow_len.load(Ordering::Relaxed), 2);
        // Plain local work first; on steal-miss the heap serves by
        // priority.
        let ids: Vec<u32> = (0..3)
            .map(|_| q.pop(0, Some((&local, 0)), &stealers).unwrap().id.0)
            .collect();
        assert_eq!(ids, vec![2, 1, 0]);
        assert!(q.looks_empty());
    }

    #[test]
    fn criticality_queue_routing() {
        let q = ReadyQueues::new(SchedulerPolicy::CriticalityAware { fast_workers: 1 });
        q.push(rt(0, 0, false), None);
        q.push(rt(1, 0, true), None);
        // Fast worker 0 sees the critical task first.
        assert_eq!(q.pop(0, None, &[]).unwrap().id.0, 1);
        // Slow worker 1 sees the normal task.
        assert_eq!(q.pop(1, None, &[]).unwrap().id.0, 0);
        assert!(q.looks_empty());
    }

    #[test]
    fn criticality_slow_worker_falls_back_to_critical() {
        let q = ReadyQueues::new(SchedulerPolicy::CriticalityAware { fast_workers: 1 });
        q.push(rt(3, 0, true), None);
        // Nothing in the normal queue: the slow worker still takes the
        // critical task rather than idling.
        assert_eq!(q.pop(5, None, &[]).unwrap().id.0, 3);
    }

    #[test]
    fn overflow_heap_breaks_priority_ties_earliest_deadline_first() {
        let q = ReadyQueues::new(SchedulerPolicy::WorkStealing);
        let local = WorkerDeque::new(WORKER_DEQUE_CAP);
        let stealers = [local.stealer()];
        // Same explicit priority, different deadlines; plus one
        // deadline-free entry that must sort last within the tie.
        q.push(
            ReadyTask {
                deadline_ns: 900,
                ..rt(0, 3, false)
            },
            Some((&local, 0)),
        );
        q.push(
            ReadyTask {
                deadline_ns: 100,
                ..rt(1, 3, false)
            },
            Some((&local, 0)),
        );
        q.push(rt(2, 3, false), Some((&local, 0))); // NO_DEADLINE
        q.push(
            ReadyTask {
                deadline_ns: 500,
                ..rt(3, 3, false)
            },
            Some((&local, 0)),
        );
        let ids: Vec<u32> = (0..4)
            .map(|_| q.pop(0, Some((&local, 0)), &stealers).unwrap().id.0)
            .collect();
        assert_eq!(ids, vec![1, 3, 0, 2], "EDF within a priority tie");
    }

    #[test]
    fn near_deadline_task_jumps_the_injector_backlog() {
        let q = ReadyQueues::new(SchedulerPolicy::WorkStealing);
        // A pile of plain work on the injector...
        for i in 0..8 {
            q.push(rt(i, 0, false), None);
        }
        // ...then a zero-priority task whose deadline is already urgent
        // (1ns past the epoch is long gone by now).
        q.push(rt_deadline(99, 1), None);
        assert_eq!(
            q.overflow_len.load(Ordering::Relaxed),
            1,
            "urgent task took the heap"
        );
        // With no local deque, the urgent task is served before the
        // injector backlog.
        assert_eq!(q.pop(0, None, &[]).unwrap().id.0, 99);
        // The rest drain in injector order.
        assert_eq!(q.pop(0, None, &[]).unwrap().id.0, 0);
    }

    #[test]
    fn far_deadline_tasks_stay_on_the_lock_free_path() {
        let q = ReadyQueues::new(SchedulerPolicy::WorkStealing);
        // Deadline an hour out: must ride the injector, not the heap.
        let far = q.now_ns() + 3_600_000_000_000;
        q.push(rt_deadline(1, far), None);
        assert_eq!(q.overflow_len.load(Ordering::Relaxed), 0);
        assert_eq!(q.pop(0, None, &[]).unwrap().id.0, 1);
    }

    #[test]
    fn overflow_min_deadline_resets_when_the_heap_empties() {
        let q = ReadyQueues::new(SchedulerPolicy::WorkStealing);
        q.push(rt_deadline(1, 1), None);
        assert!(q.overflow_is_urgent());
        q.pop(0, None, &[]).unwrap();
        assert!(!q.overflow_is_urgent());
        assert_eq!(q.overflow_min_deadline.load(Ordering::Relaxed), NO_DEADLINE);
    }

    #[test]
    fn stamp_is_monotonic() {
        let q = ReadyQueues::new(SchedulerPolicy::Fifo);
        let a = q.stamp(rt(0, 0, false));
        let b = q.stamp(rt(1, 0, false));
        assert!(b.seq > a.seq);
    }

    #[test]
    fn external_push_routes_to_home_cluster_injector() {
        // Two clusters of one worker each; a task homed on cluster 1
        // must land on worker 1's injector, not wherever the round-robin
        // cursor points.
        let q = ReadyQueues::with_topology(SchedulerPolicy::WorkStealing, Topology::new(2, 1));
        let w0 = WorkerDeque::new(WORKER_DEQUE_CAP);
        let w1 = WorkerDeque::new(WORKER_DEQUE_CAP);
        let stealers = [w0.stealer(), w1.stealer()];
        q.push(
            ReadyTask {
                home: 1,
                ..rt(42, 0, false)
            },
            None,
        );
        q.push(
            ReadyTask {
                home: 0,
                ..rt(7, 0, false)
            },
            None,
        );
        // Each worker finds its homed task on its own injector without
        // needing to steal or balance.
        assert_eq!(q.pop(1, Some((&w1, 1)), &stealers).unwrap().id.0, 42);
        assert_eq!(q.pop(0, Some((&w0, 0)), &stealers).unwrap().id.0, 7);
        assert!(q.looks_empty());
    }

    #[test]
    fn steal_sweep_stays_intra_cluster_until_balancer_arms() {
        // Two clusters of two workers; worker 3 (cluster 1) has work,
        // worker 0 (cluster 0) is dry. The intra sweep must not see it;
        // only after BALANCE_AFTER_MISSES consecutive misses does the
        // balancer cross over and migrate it.
        let q = ReadyQueues::with_topology(SchedulerPolicy::WorkStealing, Topology::new(2, 2));
        let deques: Vec<_> = (0..4)
            .map(|_| WorkerDeque::<ReadyTask>::new(WORKER_DEQUE_CAP))
            .collect();
        let stealers: Vec<_> = deques.iter().map(|d| d.stealer()).collect();
        q.push(rt(9, 0, false), Some((&deques[3], 3)));
        assert!(
            q.pop(0, Some((&deques[0], 0)), &stealers).is_none(),
            "first miss stays intra-cluster"
        );
        let got = q
            .pop(0, Some((&deques[0], 0)), &stealers)
            .expect("second miss arms the balancer");
        assert_eq!(got.id.0, 9);
        let pc = q.per_cluster_steals();
        assert_eq!(pc.len(), 2);
        assert_eq!(pc[0].inter_ok, 1, "migration attributed to the thief");
        assert_eq!(pc[0].migrated, 1);
        assert_eq!(pc[1].inter_ok, 0);
        assert!(pc[0].intra_empty > 0, "intra probes missed first");
    }

    #[test]
    fn balancer_drains_remote_injector_in_batches() {
        // Two single-worker clusters: five tasks homed on cluster 1 pile
        // up on its injector while its worker is absent. Worker 0's
        // balancer must bring the whole batch home, not one task.
        let q = ReadyQueues::with_topology(SchedulerPolicy::WorkStealing, Topology::new(2, 1));
        let w0 = WorkerDeque::new(WORKER_DEQUE_CAP);
        let w1 = WorkerDeque::new(WORKER_DEQUE_CAP);
        let stealers = [w0.stealer(), w1.stealer()];
        for i in 0..5 {
            q.push(
                ReadyTask {
                    home: 1,
                    ..rt(i, 0, false)
                },
                None,
            );
        }
        // Single-worker cluster: the intra sweep has no victims, so each
        // dry pop counts one miss.
        assert!(q.pop(0, Some((&w0, 0)), &stealers).is_none());
        let first = q
            .pop(0, Some((&w0, 0)), &stealers)
            .expect("balancer drains the remote injector");
        assert_eq!(first.id.0, 0, "injector order preserved");
        // The remaining four came along in the same visit and now sit on
        // worker 0's own deque.
        for _ in 1..5 {
            assert!(w0.pop().is_some());
        }
        assert!(w0.pop().is_none());
        let pc = q.per_cluster_steals();
        assert_eq!(pc[0].migrated, 5, "batch moved in one balance visit");
        assert!(q.looks_empty());
    }
}
