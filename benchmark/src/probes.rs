//! Isolated probes and stacked-layer prices, run at the end of a traced
//! run on the workload they explain.
//!
//! A probe times one public call on one thread (the dependency trackers
//! on `dep_graph`'s own access stream, the deque and the injector, a
//! hedged request on an idle runtime). A price is an A/B on public
//! configuration only: ns/task with a layer minus ns/task without it,
//! reps of the two sides alternating so drift hits both alike.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raa_runtime::deps::{DepTracker, ShardedDepTracker};
use raa_runtime::deque::{Injector, Steal, WorkerDeque};
use raa_runtime::region::Access;
use raa_runtime::task::TaskRef;
use raa_runtime::{
    BatchTask, JobSpec, Runtime, RuntimeConfig, TaskId, TaskScope, Topology, TraceConfig,
};

use crate::report::Ledger;
use crate::spans::Spans;
use crate::summary::{dist, percentile, repeat_for, Dist};
use crate::tasks::{
    dep_graph_stream, DepGraph, DepSize, Graph, Kind, Regions, Sink, SpawnBy, Tree, BATCH,
};

/// Tasks per rep of a price measurement: a quarter of a `task_flood`
/// rep, so a sub-second budget still holds several pairs.
const PRICE_TASKS: u64 = 50_000;
const PRICE_TREE_DEPTH: u32 = 14;

/// Median of `chunk`'s samples over `secs` (ten samples at least).
fn sample_for(secs: f64, chunk: impl FnMut() -> f64) -> Dist {
    dist(&repeat_for(secs, 10, chunk))
}

/// ns/task of `with` minus ns/task of `without`, medians over reps that
/// alternate between the two for `secs` (three pairs at least). A rep
/// that computed the wrong thing fails the measurement with its reason.
fn price(
    secs: f64,
    mut with: impl FnMut() -> Result<f64, String>,
    mut without: impl FnMut() -> Result<f64, String>,
) -> Result<(f64, String), String> {
    let pairs = repeat_for(secs, 3, || Ok((with()?, without()?)));
    let pairs = pairs
        .into_iter()
        .collect::<Result<Vec<(f64, f64)>, String>>()?;
    let a = dist(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
    let b = dist(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
    let how = format!(
        "with {:.1} - without {:.1} ns/task, n={} pairs",
        a.median, b.median, a.n
    );
    Ok((a.median - b.median, how))
}

fn put_price(ledger: &mut Ledger, name: &str, price: Result<(f64, String), String>) {
    match price {
        Ok((v, how)) => ledger.put_how(name, v, how),
        Err(why) => ledger.fail(format!("{name}: {why}")),
    }
}

/// One `task_flood`-shaped rep of `n` tasks through any scope's
/// `spawn_many`; returns ns/task from first spawn to `try_wait` return.
fn flood_rep<S: TaskScope>(scope: &S, n: u64) -> Result<f64, String> {
    let done = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    let mut left = n as usize;
    while left > 0 {
        let k = left.min(BATCH);
        let batch = (0..k)
            .map(|_| {
                let done = Arc::clone(&done);
                BatchTask::new("e").body(move || {
                    done.fetch_add(1, Relaxed);
                })
            })
            .collect();
        scope.spawn_many(batch);
        left -= k;
    }
    let waited = scope.try_wait();
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    match (waited, done.load(Relaxed)) {
        (Ok(()), ran) if ran == n => Ok(ns),
        (_, ran) => Err(format!("{ran} of {n} bodies ran")),
    }
}

/// The same rep through a freshly submitted job; submit, join and drop
/// are inside the timing — they are what a tenant pays for the layer.
fn job_rep(rt: &Runtime, spec: JobSpec) -> Result<f64, String> {
    let t0 = Instant::now();
    let job = rt
        .submit(spec)
        .map_err(|e| format!("submit refused: {e}"))?;
    flood_rep(&job, PRICE_TASKS)?;
    drop(job);
    Ok(t0.elapsed().as_nanos() as f64 / PRICE_TASKS as f64)
}

/// `n` tasks spawned one by one from the calling thread with the
/// single-task builder.
fn single_spawn_rep(rt: &Runtime, n: u64) -> Result<f64, String> {
    let done = Arc::new(AtomicU64::new(0));
    let t0 = Instant::now();
    for _ in 0..n {
        let done = Arc::clone(&done);
        rt.task("e")
            .body(move || {
                done.fetch_add(1, Relaxed);
            })
            .spawn();
    }
    let waited = rt.try_taskwait();
    let ns = t0.elapsed().as_nanos() as f64 / n as f64;
    match (waited, done.load(Relaxed)) {
        (Ok(()), ran) if ran == n => Ok(ns),
        (_, ran) => Err(format!("{ran} of {n} single-spawned bodies ran")),
    }
}

/// One checked rep of `g`; returns ns/task from first spawn to `taskwait`
/// return.
fn graph_rep(g: &mut dyn Graph, rt: &Arc<Runtime>) -> Result<f64, String> {
    let mut checks = Ledger::default();
    let r = crate::tasks::rep(g, rt, &mut Spans::off(), &mut checks);
    if checks.correct() {
        Ok(r.secs * 1e9 / g.tasks() as f64)
    } else {
        Err(checks.problems.join("; "))
    }
}

/// Probes of the `task_flood` run: the injector alone, and what each
/// layer stacked on the batched hot path costs per task.
pub fn flood_probes(workers: usize, budget: f64, ledger: &mut Ledger) {
    const OPS: u64 = 100_000;
    let inj = Injector::<u64>::new(1024);
    let d = sample_for(budget * 0.1, || {
        let t0 = Instant::now();
        for i in 0..OPS {
            inj.push(std::hint::black_box(i));
            std::hint::black_box(inj.pop());
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    });
    ledger.put_dist("deque.injector.push_pop.ns", d);

    let each = budget * 0.18;
    let plain = Runtime::new(RuntimeConfig::with_workers(workers));
    let base = || flood_rep(&plain, PRICE_TASKS);
    let job = || job_rep(&plain, JobSpec::new("price"));
    put_price(ledger, "job.price_ns_per_task", price(each, job, base));
    let with_deadline = || {
        let spec = JobSpec::new("price")
            .deadline(Duration::from_secs(60))
            .cost_hint(1_000);
        job_rep(&plain, spec)
    };
    put_price(
        ledger,
        "job.deadline.price_ns_per_task",
        price(each, with_deadline, job),
    );
    let single = || single_spawn_rep(&plain, PRICE_TASKS);
    put_price(
        ledger,
        "runtime.single_vs_batch.ns_per_task",
        price(each, single, base),
    );

    let telemetry = Runtime::new(RuntimeConfig::with_workers(workers).telemetry(true));
    let with_telemetry = || flood_rep(&telemetry, PRICE_TASKS);
    put_price(
        ledger,
        "telemetry.price_ns_per_task",
        price(each, with_telemetry, base),
    );
    drop(telemetry);

    // Ring sized for one rep's events; drained between reps, outside the
    // timing.
    let capacity = (PRICE_TASKS as usize * 4).next_power_of_two();
    let tracing = Runtime::new(
        RuntimeConfig::with_workers(workers).tracing(TraceConfig::with_capacity(capacity)),
    );
    let with_tracing = || {
        let ns = flood_rep(&tracing, PRICE_TASKS);
        std::hint::black_box(tracing.drain_trace());
        ns
    };
    put_price(
        ledger,
        "trace.price_ns_per_task",
        price(each, with_tracing, base),
    );
}

/// Probes of the `fork_tree` run: the owner deque and steal-half alone,
/// and the price of a clustered topology on the tree shape.
pub fn tree_probes(workers: usize, budget: f64, ledger: &mut Ledger) {
    const OPS: u64 = 100_000;
    let deque = WorkerDeque::<u64>::new(1024);
    let d = sample_for(budget * 0.12, || {
        let t0 = Instant::now();
        for i in 0..OPS {
            let _ = deque.push(std::hint::black_box(i));
            std::hint::black_box(deque.pop());
        }
        t0.elapsed().as_nanos() as f64 / OPS as f64
    });
    ledger.put_dist("deque.push_pop.ns", d);

    // A thief draining a victim that holds 512 tasks, half of what is
    // left per steal; refills are outside the timing.
    let stealer = deque.stealer();
    let d = sample_for(budget * 0.12, || {
        let (mut ns, mut stolen) = (0u128, 0u64);
        for _ in 0..64 {
            for i in 0..512 {
                let _ = deque.push(i);
            }
            let t0 = Instant::now();
            loop {
                let mut extras = 0;
                match stealer.steal_half_with(&mut |v| {
                    std::hint::black_box(v);
                    extras += 1;
                }) {
                    Steal::Success(v) => {
                        std::hint::black_box(v);
                        stolen += 1 + extras;
                    }
                    Steal::Retry => {}
                    Steal::Empty => break,
                }
            }
            ns += t0.elapsed().as_nanos();
        }
        ns as f64 / stolen as f64
    });
    ledger.put_dist("deque.steal_half.ns_per_task", d);

    if workers < 2 {
        ledger
            .notes
            .push("topology.price_ns_per_task skipped: W < 2, no second cluster to form".into());
        return;
    }
    // Two clusters against one, the same worker count on both sides.
    let per_cluster = workers / 2;
    let flat = Arc::new(Runtime::new(RuntimeConfig::with_workers(2 * per_cluster)));
    let clustered = Arc::new(Runtime::new(
        RuntimeConfig::default().topology(Topology::new(2, per_cluster)),
    ));
    let tree_rep = |rt: &Arc<Runtime>| graph_rep(&mut Tree::new(PRICE_TREE_DEPTH), rt);
    let p = price(budget * 0.7, || tree_rep(&clustered), || tree_rep(&flat));
    put_price(ledger, "topology.price_ns_per_task", p);
}

/// One `spawn_many` batch of the recorded access stream.
type AccessBatch = Vec<(TaskRef, Vec<Access>)>;

struct Collect {
    batches: Vec<AccessBatch>,
    open: AccessBatch,
    next: u32,
}

impl Sink for Collect {
    fn task(&mut self, _shape: usize, _kind: Kind, accesses: &[Access]) {
        let who = TaskRef {
            tid: TaskId(self.next),
            slot: self.next,
            gen: 1,
        };
        self.next += 1;
        self.open.push((who, accesses.to_vec()));
    }

    fn flush(&mut self) {
        if !self.open.is_empty() {
            self.batches.push(std::mem::take(&mut self.open));
        }
    }
}

/// Probes of the `dep_graph` run. The two dependency trackers alone, fed
/// the exact access stream (and batch boundaries) of one rep: the sharded
/// tracker's batched sweep against the sequential oracle's per-task
/// submit. Then what the in-repo callers' way of spawning costs on the
/// same graph: one `TaskBuilder::spawn` per task against `spawn_many`,
/// on quarter-size reps.
pub fn dep_probes(workers: usize, budget: f64, ledger: &mut Ledger) {
    let mut c = Collect {
        batches: Vec::new(),
        open: Vec::new(),
        next: 0,
    };
    dep_graph_stream(&Regions::fresh(), DepSize::FULL, &mut c, |_| {});
    let batches = c.batches;
    let accesses: usize = batches.iter().flatten().map(|(_, a)| a.len()).sum();
    let borrowed: Vec<Vec<(TaskRef, &[Access])>> = batches
        .iter()
        .map(|b| b.iter().map(|(who, a)| (*who, a.as_slice())).collect())
        .collect();

    let mut edges = (0, 0);
    let sharded = sample_for(budget * 0.3, || {
        let tracker = ShardedDepTracker::new();
        let mut preds = Vec::new();
        let t0 = Instant::now();
        for batch in &borrowed {
            tracker.submit_batch(0, batch, &mut preds);
            std::hint::black_box(&preds);
        }
        let ns = t0.elapsed().as_nanos() as f64 / accesses as f64;
        edges.0 = tracker.edges_produced();
        ns
    });
    let seq = sample_for(budget * 0.3, || {
        let mut tracker = DepTracker::new();
        let t0 = Instant::now();
        for (who, acc) in batches.iter().flatten() {
            std::hint::black_box(tracker.submit(who.tid, acc));
        }
        let ns = t0.elapsed().as_nanos() as f64 / accesses as f64;
        edges.1 = tracker.edges_produced();
        ns
    });
    ledger.put_dist("deps.sharded.ns_per_access", sharded);
    ledger.put_dist("deps.seq.ns_per_access", seq);
    ledger.attempted += 2;
    if edges.0 != edges.1 || edges.0 == 0 {
        ledger.failed += 1;
        ledger.fail(format!(
            "dependency trackers disagree: sharded found {} edges, the oracle {}",
            edges.0, edges.1
        ));
    }
    ledger.notes.push(format!(
        "deps probes: {accesses} accesses, {} edges per rep stream",
        edges.0
    ));

    let rt = Arc::new(Runtime::new(RuntimeConfig::with_workers(workers)));
    let size = DepSize::FULL.shrunk(4);
    let (mut single, mut batch) = (
        DepGraph::new(size, SpawnBy::Single),
        DepGraph::new(size, SpawnBy::Batch),
    );
    let p = price(
        budget * 0.4,
        || graph_rep(&mut single, &rt),
        || graph_rep(&mut batch, &rt),
    );
    put_price(ledger, "deps.single_vs_batch.ns_per_task", p);
}

/// Requests whose first run stalls, one at a time on an idle two-worker
/// runtime with hedging on: how long until the duplicate answers.
/// Roughly `soft_timeout` + watchdog period + service.
pub fn hedge_probe(requests: usize, ledger: &mut Ledger) {
    const STALL: Duration = Duration::from_millis(60);
    const SERVICE: Duration = Duration::from_millis(1);
    let rt = Runtime::new(RuntimeConfig::with_workers(2).soft_timeout(crate::serve::SOFT_TIMEOUT));
    let mut recover_ms = Vec::new();
    for _ in 0..requests {
        let runs = Arc::new(AtomicU64::new(0));
        let done_ns = Arc::new(AtomicU64::new(u64::MAX));
        let t0 = Instant::now();
        let job = rt
            .submit(JobSpec::new("hedge").cost_hint(SERVICE.as_nanos() as u64))
            .expect("an idle runtime admits a job");
        let (r, d) = (Arc::clone(&runs), Arc::clone(&done_ns));
        let admitted = job
            .task("req")
            .idempotent(move || {
                std::thread::sleep(if r.fetch_add(1, SeqCst) == 0 {
                    STALL
                } else {
                    SERVICE
                });
                d.fetch_min(t0.elapsed().as_nanos() as u64, SeqCst);
            })
            .try_spawn();
        ledger.attempted += 1;
        if admitted.is_err() || job.try_join().is_err() || done_ns.load(SeqCst) == u64::MAX {
            ledger.failed += 1;
            ledger.fail("hedge probe: a request was refused or failed");
            continue;
        }
        recover_ms.push(done_ns.load(SeqCst) as f64 / 1e6);
        // Let the stalled original leave its worker, so the next request
        // again finds one idle worker to hedge on.
        std::thread::sleep((STALL + SERVICE).saturating_sub(t0.elapsed()));
    }
    if !recover_ms.is_empty() {
        ledger.put_dist("runtime.hedge.recover_ms_p50", dist(&recover_ms));
    }
    ledger.notes.push(format!(
        "hedge probe: {} of {requests} stalled requests were hedged",
        rt.stats().tasks_hedged
    ));
}

/// How far past its deadline a 1 ms sleep wakes on this host when
/// nothing else runs: the floor under every open-loop number. Returns
/// the p999 overshoot in µs.
pub fn sleep_probe(secs: f64) -> f64 {
    const NAP: Duration = Duration::from_millis(1);
    let t0 = Instant::now();
    let mut over = Vec::new();
    while t0.elapsed().as_secs_f64() < secs {
        let s = Instant::now();
        std::thread::sleep(NAP);
        over.push(s.elapsed().saturating_sub(NAP).as_nanos() as f64 / 1e3);
    }
    over.sort_by(f64::total_cmp);
    percentile(&over, 0.999)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn price_is_the_difference_of_medians() {
        let (mut a, mut b) = (
            [30.0, 10.0, 20.0].into_iter().cycle(),
            [5.0, 7.0, 6.0].into_iter().cycle(),
        );
        let (v, how) = price(0.0, || Ok(a.next().unwrap()), || Ok(b.next().unwrap())).unwrap();
        assert_eq!(v, 14.0);
        assert!(how.contains("n=3 pairs"), "{how}");
        let failed = price(0.0, || Err("lost a task".into()), || Ok(1.0));
        assert_eq!(failed.unwrap_err(), "lost a task");
    }

    #[test]
    fn job_and_single_spawn_reps_run_every_body() {
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        assert!(flood_rep(&rt, 3000).unwrap() > 0.0);
        assert!(single_spawn_rep(&rt, 500).unwrap() > 0.0);
        assert!(job_rep(&rt, JobSpec::new("t").deadline(Duration::from_secs(5))).unwrap() > 0.0);
    }

    #[test]
    fn collected_stream_keeps_batch_boundaries_and_order() {
        let mut c = Collect {
            batches: Vec::new(),
            open: Vec::new(),
            next: 0,
        };
        let size = DepSize {
            cg_iters: 32,
            chain_len: 2 * BATCH as u64 + 1,
            fan_rounds: 16,
        };
        dep_graph_stream(&Regions::fresh(), size, &mut c, |_| {});
        let lens: Vec<usize> = c.batches.iter().map(Vec::len).collect();
        assert_eq!(lens, [16 * 49, 16 * 49, BATCH, BATCH, 1, 15 * 65, 65]);
        let ids: Vec<u32> = c.batches.iter().flatten().map(|(w, _)| w.tid.0).collect();
        assert!(ids.windows(2).all(|w| w[1] == w[0] + 1));
    }
}
