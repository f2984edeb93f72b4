//! Lightweight runtime counters.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Buckets of the retry histogram: index = failed attempts a task needed
/// before settling (0 = clean first run), last bucket clamps the tail.
pub const RETRY_HIST_BUCKETS: usize = 8;

// ------------------------------------------------------ striped counters

/// Pads its contents to two cache lines (the spatial-prefetcher pair on
/// x86), so neighbouring stripes never false-share.
#[repr(align(128))]
#[derive(Default, Debug)]
pub struct CachePadded<T>(pub T);

/// Default stripes per striped counter (the runtime-global counters).
/// Thread ids fold onto the stripes, so two workers only share a line
/// through a modulo collision.
pub const COUNTER_STRIPES: usize = 16;

/// Stripes for *per-job* counters. Jobs can be as short-lived as one
/// serving request, so their `JobState` must stay cheap to allocate and
/// zero: 4 stripes puts a job's six striped counters at ~3KB instead of
/// ~12KB, trading a higher collision probability only on counters that
/// a single job's (typically few) concurrent tasks touch.
pub const JOB_COUNTER_STRIPES: usize = 4;

static NEXT_STRIPE: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static STRIPE: std::cell::Cell<u32> = const { std::cell::Cell::new(u32::MAX) };
}

/// This thread's stripe index (assigned round-robin on first use).
#[inline]
fn stripe_id() -> usize {
    STRIPE.with(|c| {
        let v = c.get();
        if v != u32::MAX {
            return v as usize;
        }
        let id = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES as u32;
        c.set(id);
        id as usize
    })
}

/// A monotonic counter split into per-thread cache-line-padded stripes:
/// `add` touches only the calling thread's line; `sum` (the cold read
/// path) walks all of them. `N` trades contention for footprint: the
/// long-lived runtime-global counters use the default, per-job counters
/// use [`JOB_COUNTER_STRIPES`].
#[derive(Debug)]
pub struct Striped64<const N: usize = COUNTER_STRIPES> {
    stripes: [CachePadded<AtomicU64>; N],
}

impl<const N: usize> Default for Striped64<N> {
    fn default() -> Self {
        Striped64 {
            stripes: std::array::from_fn(|_| CachePadded(AtomicU64::new(0))),
        }
    }
}

impl<const N: usize> Striped64<N> {
    #[inline]
    pub fn add(&self, n: u64) {
        self.stripes[stripe_id() % N]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A striped up/down gauge built from two monotonic halves, for counts
/// that must support a *reliable* is-it-zero check (quiescence). A
/// single striped signed counter cannot: a reader can catch a task's
/// decrement on one stripe but miss its earlier increment on another and
/// report a spurious zero.
///
/// Here both halves only grow, every `dec` is preceded (in
/// happens-before order) by its `inc`, and `read` loads the *decrements
/// first*: any dec it observes has an inc that is SeqCst-ordered before
/// it, hence before the later inc pass — so `read` can under-observe
/// decs (transiently reporting high) but never under-observe a matched
/// inc (never reporting a false zero). Tasks inc'd concurrently with the
/// read may be missed entirely, which is the pre-existing `taskwait`
/// contract for spawns racing the wait.
#[derive(Debug)]
pub struct StripedGauge<const N: usize = COUNTER_STRIPES> {
    incs: [CachePadded<AtomicU64>; N],
    decs: [CachePadded<AtomicU64>; N],
}

impl<const N: usize> Default for StripedGauge<N> {
    fn default() -> Self {
        StripedGauge {
            incs: std::array::from_fn(|_| CachePadded(AtomicU64::new(0))),
            decs: std::array::from_fn(|_| CachePadded(AtomicU64::new(0))),
        }
    }
}

impl<const N: usize> StripedGauge<N> {
    #[inline]
    pub fn inc(&self, n: u64) {
        self.incs[stripe_id() % N].0.fetch_add(n, Ordering::SeqCst);
    }

    #[inline]
    pub fn dec(&self, n: u64) {
        self.decs[stripe_id() % N].0.fetch_add(n, Ordering::SeqCst);
    }

    /// Current count. Never spuriously zero (see the type docs); may
    /// transiently read high.
    pub fn read(&self) -> u64 {
        let mut decs = 0u64;
        for d in &self.decs {
            decs += d.0.load(Ordering::SeqCst);
        }
        let mut incs = 0u64;
        for i in &self.incs {
            incs += i.0.load(Ordering::SeqCst);
        }
        incs.saturating_sub(decs)
    }
}

// -------------------------------------------------- contention report

/// Per-victim steal traffic: how often thieves found work on (or came
/// away empty from) one worker's deque.
#[derive(Clone, Copy, Debug, Default)]
pub struct VictimSteals {
    pub ok: u64,
    pub empty: u64,
}

impl VictimSteals {
    pub fn hit_rate(&self) -> f64 {
        let total = self.ok + self.empty;
        if total == 0 {
            0.0
        } else {
            self.ok as f64 / total as f64
        }
    }
}

/// Per-cluster steal and balance traffic under two-level scheduling,
/// attributed to the *thief's* cluster. A flat topology reports a single
/// entry covering the whole pool (all steals count as intra).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterSteals {
    /// Tasks claimed from deques inside the thief's own cluster.
    pub intra_ok: u64,
    /// Intra-cluster probes that found the victim bare.
    pub intra_empty: u64,
    /// Tasks this cluster's balancer pulled in from other clusters
    /// (remote injector drains + remote steal-half claims).
    pub inter_ok: u64,
    /// Balancer probes of remote queues that found nothing.
    pub inter_empty: u64,
    /// Tasks physically migrated across the cluster boundary by the
    /// balancer (the batched cross-cluster traffic volume).
    pub migrated: u64,
    /// External submissions and spill routed to this cluster's injector.
    pub injector_pushes: u64,
}

impl ClusterSteals {
    /// Fraction of intra-cluster steal probes that found work.
    pub fn intra_hit_rate(&self) -> f64 {
        let total = self.intra_ok + self.intra_empty;
        if total == 0 {
            0.0
        } else {
            self.intra_ok as f64 / total as f64
        }
    }

    /// Fraction of inter-cluster balance probes that found work.
    pub fn inter_hit_rate(&self) -> f64 {
        let total = self.inter_ok + self.inter_empty;
        if total == 0 {
            0.0
        } else {
            self.inter_ok as f64 / total as f64
        }
    }
}

/// Where the scheduler's cross-worker traffic actually went — the
/// attribution summary behind `trace_report --contention`.
#[derive(Clone, Debug, Default)]
pub struct ContentionReport {
    /// Indexed by victim worker.
    pub per_victim: Vec<VictimSteals>,
    /// Indexed by cluster (single entry when the topology is flat).
    pub per_cluster: Vec<ClusterSteals>,
    /// Ready tasks routed through the shared injector (vs. worker-local
    /// deques).
    pub injector_pushes: u64,
    /// Injector pushes that missed the lock-free ring and took the
    /// overflow lock.
    pub injector_overflow: u64,
    /// Total ready-task dispatches (spawn-ready + releases).
    pub dispatches: u64,
    /// Slab slots recycled into the freeing thread's own context.
    pub slab_local_frees: u64,
    /// Slab slots pushed onto a remote owner's sideband.
    pub slab_remote_frees: u64,
}

impl ContentionReport {
    /// Share of ready-task dispatches that crossed through the shared
    /// injector.
    pub fn injector_share(&self) -> f64 {
        if self.dispatches == 0 {
            0.0
        } else {
            self.injector_pushes as f64 / self.dispatches as f64
        }
    }

    /// Share of slab frees that had to cross to another owner's sideband.
    pub fn remote_free_ratio(&self) -> f64 {
        let total = self.slab_local_frees + self.slab_remote_frees;
        if total == 0 {
            0.0
        } else {
            self.slab_remote_frees as f64 / total as f64
        }
    }
}

/// Monotonic counters maintained by the runtime. All relaxed: they are
/// diagnostics, not synchronisation.
#[derive(Default, Debug)]
pub struct RuntimeStats {
    /// Tasks submitted. Striped: bumped on every spawn, often from many
    /// workers at once.
    pub spawned: Striped64,
    /// Tasks completed. Striped: the completion path must only touch a
    /// local line.
    pub completed: Striped64,
    /// Dependency edges discovered. Striped: bumped per spawn.
    pub edges: Striped64,
    /// Tasks that were ready at submission (no pending predecessors).
    /// Striped: bumped per spawn.
    pub ready_at_spawn: Striped64,
    /// Tasks flagged critical at submission.
    pub critical_tasks: AtomicU64,
    /// Task attempts that panicked (injected or real; counts every
    /// attempt, so one task retried twice contributes two).
    pub panicked: AtomicU64,
    /// Re-executions scheduled by the retry policy.
    pub retried: AtomicU64,
    /// Tasks that settled as failed (panicked out of retries, or
    /// poisoned).
    pub failed_tasks: AtomicU64,
    /// Failed tasks that never ran: skipped due to an upstream poisoned
    /// region (subset of `failed_tasks`).
    pub poisoned_tasks: AtomicU64,
    /// Settled tasks bucketed by how many failed attempts they needed.
    pub retry_hist: [AtomicU64; RETRY_HIST_BUCKETS],
    /// Jobs accepted by `Runtime::submit`.
    pub jobs_submitted: AtomicU64,
    /// Jobs cancelled (explicitly or by `Runtime::drain`).
    pub jobs_cancelled: AtomicU64,
    /// Best-effort tasks dropped at admission by the shed controller.
    pub tasks_shed: AtomicU64,
    /// Tasks that settled as skipped because their job was cancelled
    /// (subset of `failed_tasks`).
    pub tasks_cancelled: AtomicU64,
    /// Blocking spawns silently dropped (job cancelled / runtime
    /// draining / task shed).
    pub tasks_discarded: AtomicU64,
    /// `try_spawn` reservations refused at an in-flight cap.
    pub admission_rejected: AtomicU64,
    /// Hedged duplicates dispatched for straggling idempotent tasks.
    pub tasks_hedged: AtomicU64,
    /// Jobs the deadline reaper found overdue (best-effort ones are also
    /// cancelled; guaranteed ones only get the miss mark).
    pub jobs_deadline_missed: AtomicU64,
}

impl RuntimeStats {
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut retry_hist = [0u64; RETRY_HIST_BUCKETS];
        for (out, c) in retry_hist.iter_mut().zip(&self.retry_hist) {
            *out = c.load(Ordering::Relaxed);
        }
        StatsSnapshot {
            spawned: self.spawned.sum(),
            completed: self.completed.sum(),
            edges: self.edges.sum(),
            ready_at_spawn: self.ready_at_spawn.sum(),
            critical_tasks: self.critical_tasks.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            failed_tasks: self.failed_tasks.load(Ordering::Relaxed),
            poisoned_tasks: self.poisoned_tasks.load(Ordering::Relaxed),
            retry_hist,
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_cancelled: self.jobs_cancelled.load(Ordering::Relaxed),
            tasks_shed: self.tasks_shed.load(Ordering::Relaxed),
            tasks_cancelled: self.tasks_cancelled.load(Ordering::Relaxed),
            tasks_discarded: self.tasks_discarded.load(Ordering::Relaxed),
            admission_rejected: self.admission_rejected.load(Ordering::Relaxed),
            tasks_hedged: self.tasks_hedged.load(Ordering::Relaxed),
            jobs_deadline_missed: self.jobs_deadline_missed.load(Ordering::Relaxed),
            worker_deaths: 0,
            worker_respawns: 0,
            worker_stalls: 0,
            steals_ok: 0,
            steals_empty: 0,
            injector_overflow: 0,
            parks: 0,
            wakes: 0,
        }
    }

    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`RuntimeStats`], with the worker-pool fault
/// counters merged in by `Runtime::stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub spawned: u64,
    pub completed: u64,
    pub edges: u64,
    pub ready_at_spawn: u64,
    pub critical_tasks: u64,
    pub panicked: u64,
    pub retried: u64,
    pub failed_tasks: u64,
    pub poisoned_tasks: u64,
    pub retry_hist: [u64; RETRY_HIST_BUCKETS],
    /// Jobs accepted by `Runtime::submit`.
    pub jobs_submitted: u64,
    /// Jobs cancelled (explicitly or by `Runtime::drain`).
    pub jobs_cancelled: u64,
    /// Best-effort tasks dropped at admission by the shed controller.
    pub tasks_shed: u64,
    /// Tasks settled as skipped because their job was cancelled.
    pub tasks_cancelled: u64,
    /// Blocking spawns silently dropped (cancelled/draining/shed).
    pub tasks_discarded: u64,
    /// `try_spawn` reservations refused at an in-flight cap.
    pub admission_rejected: u64,
    /// Hedged duplicates dispatched for straggling idempotent tasks.
    pub tasks_hedged: u64,
    /// Jobs the deadline reaper found overdue (best-effort ones are also
    /// cancelled; guaranteed ones only get the miss mark).
    pub jobs_deadline_missed: u64,
    /// Worker threads that died (injected or real), from the watchdog.
    pub worker_deaths: u64,
    /// Replacement workers the watchdog spawned.
    pub worker_respawns: u64,
    /// Stall episodes the watchdog flagged (busy worker, frozen
    /// heartbeat).
    pub worker_stalls: u64,
    /// Successful steals from sibling deques (work-stealing policy),
    /// from the scheduler.
    pub steals_ok: u64,
    /// Full steal sweeps that found nothing, from the scheduler.
    pub steals_empty: u64,
    /// Injector pushes that missed the lock-free ring and took the
    /// overflow lock, from the scheduler.
    pub injector_overflow: u64,
    /// Times a worker parked on the idle condvar, from the pool.
    pub parks: u64,
    /// Condvar notifies actually issued by spawners/completers, from the
    /// pool.
    pub wakes: u64,
}

impl StatsSnapshot {
    /// Average dependency edges per task.
    pub fn edges_per_task(&self) -> f64 {
        if self.spawned == 0 {
            0.0
        } else {
            self.edges as f64 / self.spawned as f64
        }
    }

    /// Fraction of steal attempts that found work.
    pub fn steal_hit_rate(&self) -> f64 {
        let total = self.steals_ok + self.steals_empty;
        if total == 0 {
            0.0
        } else {
            self.steals_ok as f64 / total as f64
        }
    }

    /// Condvar wakes issued per completed task — the wake-storm
    /// attribution number. A dependency chain that parks/unparks a
    /// worker per link sits near 1.0; a healthy saturated pool sits
    /// near 0.
    pub fn wakes_per_task(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.wakes as f64 / self.completed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = RuntimeStats::default();
        s.spawned.add(1);
        s.spawned.add(1);
        s.edges.add(1);
        let snap = s.snapshot();
        assert_eq!(snap.spawned, 2);
        assert_eq!(snap.edges, 1);
        assert!((snap.edges_per_task() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let c = std::sync::Arc::new(Striped64::<COUNTER_STRIPES>::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = c.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.add(1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sum(), 4000);
    }

    #[test]
    fn striped_gauge_never_reads_false_zero() {
        // Hammer inc-then-dec pairs from several threads while a reader
        // polls; the gauge may read high but the final read must be 0
        // and every dec'd pair must have had its inc observed.
        // The small per-job stripe width exercises the `% N` fold (the
        // round-robin thread-stripe ids exceed it).
        let g = std::sync::Arc::new(StripedGauge::<JOB_COUNTER_STRIPES>::default());
        let stop = std::sync::Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let g = g.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..5000 {
                    g.inc(1);
                    g.dec(1);
                }
            }));
        }
        let reader = {
            let g = g.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                while stop.load(Ordering::Relaxed) == 0 {
                    // read() returning u64 can never be "negative"; the
                    // invariant under test is that saturating_sub never
                    // actually saturates (decs never outrun their incs).
                    let _ = g.read();
                }
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        stop.store(1, Ordering::Relaxed);
        reader.join().unwrap();
        assert_eq!(g.read(), 0);
    }

    #[test]
    fn edges_per_task_zero_when_empty() {
        let snap = RuntimeStats::default().snapshot();
        assert_eq!(snap.edges_per_task(), 0.0);
    }

    #[test]
    fn retry_histogram_roundtrips() {
        let s = RuntimeStats::default();
        RuntimeStats::bump(&s.retry_hist[0]);
        RuntimeStats::bump(&s.retry_hist[0]);
        RuntimeStats::bump(&s.retry_hist[3]);
        let snap = s.snapshot();
        assert_eq!(snap.retry_hist[0], 2);
        assert_eq!(snap.retry_hist[3], 1);
        assert_eq!(snap.retry_hist[7], 0);
    }
}
