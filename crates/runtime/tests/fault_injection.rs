//! Cross-layer fault-injection integration tests: seeded panic injection
//! across every scheduler policy, watchdog kill/respawn/degrade through
//! the public `Runtime` façade, stall detection, and a property test
//! that retry never violates dependency order.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use raa_runtime::{
    Criticality, FaultPlan, FaultReport, JobHandle, JobSpec, RetryPolicy, Runtime, RuntimeConfig,
    SchedulerPolicy, StatsSnapshot, TaskBuilder, TaskError, TaskId, TaskObserver, WatchdogConfig,
};

const POLICIES: [SchedulerPolicy; 5] = [
    SchedulerPolicy::Fifo,
    SchedulerPolicy::Lifo,
    SchedulerPolicy::WorkStealing,
    SchedulerPolicy::Priority,
    SchedulerPolicy::CriticalityAware { fast_workers: 1 },
];

/// Run 8 dependency chains of 25 read-modify-write tasks each under the
/// given policy and plan; return the final chain values and the stats.
///
/// The bodies are RMW accumulators declared idempotent — sound because
/// injected panics fire before the body starts (crash-before-start).
fn chains_under_injection(policy: SchedulerPolicy, plan: FaultPlan) -> (Vec<u64>, StatsSnapshot) {
    const CHAINS: usize = 8;
    const LEN: u64 = 25;
    let rt = Runtime::new(
        RuntimeConfig::with_workers(3)
            .policy(policy)
            .retry(RetryPolicy::retries(3))
            .fault_plan(plan),
    );
    let handles: Vec<_> = (0..CHAINS)
        .map(|c| rt.register(format!("chain{c}"), 0u64))
        .collect();
    for step in 1..=LEN {
        for (c, h) in handles.iter().enumerate() {
            let h = h.clone();
            rt.task(format!("c{c}s{step}"))
                .updates(&h)
                .priority((c % 3) as i32)
                .criticality(if c == 0 {
                    Criticality::Critical
                } else {
                    Criticality::Auto
                })
                .idempotent(move || *h.write() += step)
                .spawn();
        }
    }
    rt.taskwait();
    let vals = handles.iter().map(|h| *h.read()).collect();
    (vals, rt.stats())
}

#[test]
fn injected_panics_with_retry_are_absorbed_under_every_policy() {
    let expected = (1..=25u64).sum::<u64>();
    for policy in POLICIES {
        let plan = FaultPlan::new(9).panic_rate(0.25).max_panics_per_task(2);
        let (vals, stats) = chains_under_injection(policy, plan);
        assert!(
            vals.iter().all(|&v| v == expected),
            "{policy:?}: chain sums {vals:?} != {expected}"
        );
        assert_eq!(stats.failed_tasks, 0, "{policy:?}: no task may fail");
        assert!(
            stats.panicked > 0,
            "{policy:?}: the plan must actually fire"
        );
        assert_eq!(
            stats.retried, stats.panicked,
            "{policy:?}: every injected panic is retried"
        );
    }
}

#[test]
fn injection_is_deterministic_per_seed_across_policies() {
    // Injection keys on task ids, which the host assigns in spawn
    // order — so the same seed injects the same faults no matter how
    // the scheduler interleaves execution.
    let counts: Vec<u64> = POLICIES
        .iter()
        .map(|&policy| {
            let plan = FaultPlan::new(1234).panic_rate(0.2).max_panics_per_task(2);
            chains_under_injection(policy, plan).1.panicked
        })
        .collect();
    assert!(counts[0] > 0);
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "same seed, same spawn order => same injected panics, got {counts:?}"
    );
}

fn run_counted_tasks(rt: &Runtime, tasks: usize, work: Duration) -> Arc<AtomicU64> {
    let done = Arc::new(AtomicU64::new(0));
    for i in 0..tasks {
        let done = Arc::clone(&done);
        rt.task(format!("t{i}"))
            .body(move || {
                std::thread::sleep(work);
                done.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
    }
    done
}

#[test]
fn killed_workers_respawn_without_losing_tasks() {
    let rt = Runtime::new(
        RuntimeConfig::with_workers(3)
            .fault_plan(FaultPlan::new(5).kill_worker(0, 30).kill_worker(1, 60))
            .watchdog(WatchdogConfig::enabled()),
    );
    let done = run_counted_tasks(&rt, 400, Duration::from_micros(20));
    rt.taskwait();
    assert_eq!(done.load(Ordering::SeqCst), 400, "no task may be lost");
    // The respawn can lag the death by a watchdog interval.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let stats = rt.stats();
        if stats.worker_deaths >= 1 && stats.worker_respawns == stats.worker_deaths {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watchdog never evened out: deaths={} respawns={}",
            stats.worker_deaths,
            stats.worker_respawns
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(rt.alive_workers(), rt.workers());
}

#[test]
fn killed_worker_degrades_the_pool_without_losing_tasks() {
    let rt = Runtime::new(
        RuntimeConfig::with_workers(3)
            .fault_plan(FaultPlan::new(5).kill_worker(1, 20))
            .watchdog(WatchdogConfig::enabled().respawn(false)),
    );
    let done = run_counted_tasks(&rt, 300, Duration::from_micros(20));
    rt.taskwait();
    assert_eq!(done.load(Ordering::SeqCst), 300, "no task may be lost");
    let stats = rt.stats();
    assert_eq!(stats.worker_deaths, 1, "the kill must fire");
    assert_eq!(stats.worker_respawns, 0, "respawn is disabled");
    assert_eq!(rt.alive_workers(), 2, "the pool runs degraded");
}

#[test]
fn stalled_workers_trip_the_heartbeat_watchdog() {
    let rt = Runtime::new(
        RuntimeConfig::with_workers(2)
            .fault_plan(FaultPlan::new(77).stall_rate(0.02, Duration::from_millis(40)))
            .watchdog(WatchdogConfig::enabled().stall_timeout(Duration::from_millis(8))),
    );
    let done = run_counted_tasks(&rt, 200, Duration::from_micros(10));
    rt.taskwait();
    assert_eq!(done.load(Ordering::SeqCst), 200);
    assert!(
        rt.stats().worker_stalls >= 1,
        "a 40ms injected stall must trip an 8ms heartbeat timeout"
    );
}

// ------------------------------------------------- dependency invariant

/// Observer recording a single global order of start/complete/fault
/// events (kind 0/1/2).
#[derive(Default)]
struct EventLog {
    events: Mutex<Vec<(u8, TaskId)>>,
}

impl TaskObserver for EventLog {
    fn on_start(&self, _worker: usize, task: TaskId, _critical: bool) {
        self.events.lock().unwrap().push((0, task));
    }
    fn on_complete(&self, _worker: usize, task: TaskId) {
        self.events.lock().unwrap().push((1, task));
    }
    fn on_fault(&self, _worker: usize, task: TaskId) {
        self.events.lock().unwrap().push((2, task));
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// Retried tasks never execute before their dependencies complete:
    /// every start event of a task — including attempts that then panic
    /// inside the body — appears after its predecessor's (unique,
    /// successful) complete event.
    #[test]
    fn retried_tasks_never_run_before_their_dependencies(
        seed in 0u64..1_000_000,
        chains in 1usize..5,
        len in 2usize..7,
    ) {
        let log = Arc::new(EventLog::default());
        let rt = Runtime::new(
            RuntimeConfig::with_workers(3)
                .observer(log.clone())
                .retry(RetryPolicy::retries(2)),
        );
        // (task, predecessor) pairs; roughly a quarter of the bodies
        // panic on their first attempt.
        let mut deps: Vec<(TaskId, TaskId)> = Vec::new();
        let mut flaky_tasks = 0u32;
        for c in 0..chains {
            let h = rt.register(format!("chain{c}"), 0u64);
            let mut prev: Option<TaskId> = None;
            for s in 0..len {
                let flaky = splitmix(seed ^ ((c * 100 + s) as u64)).is_multiple_of(4);
                flaky_tasks += flaky as u32;
                let attempts = AtomicU32::new(0);
                let h2 = h.clone();
                let tid = rt
                    .task(format!("c{c}s{s}"))
                    .updates(&h)
                    .idempotent(move || {
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 && flaky {
                            panic!("flaky first attempt");
                        }
                        *h2.write() += 1;
                    })
                    .spawn();
                if let Some(p) = prev {
                    deps.push((tid, p));
                }
                prev = Some(tid);
            }
        }
        rt.taskwait();
        let stats = rt.stats();
        prop_assert_eq!(stats.failed_tasks, 0);
        prop_assert_eq!(stats.retried as u32, flaky_tasks);

        let events = log.events.lock().unwrap();
        let completes = events.iter().filter(|&&(k, _)| k == 1).count();
        prop_assert_eq!(completes, chains * len);
        for &(task, pred) in &deps {
            let pred_done = events
                .iter()
                .position(|&(k, t)| k == 1 && t == pred)
                .expect("predecessor completed");
            let first_start = events
                .iter()
                .position(|&(k, t)| k == 0 && t == task)
                .expect("task started");
            prop_assert!(
                first_start > pred_done,
                "task {:?} started (event {}) before its dependency {:?} completed (event {})",
                task, first_start, pred, pred_done
            );
        }
    }
}

// ------------------------------------------------------ the task envelope
//
// What the runtime guarantees around every task body — preflight, the
// observed bracket, fault injection, retry, hedging, program capture —
// pinned per body kind and per fault domain, one table for all of it.

#[derive(Clone, Copy, Debug, PartialEq)]
enum Body {
    Once,
    Retryable,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Domain {
    Default,
    Submitted,
}

/// Where a cell's tasks go: the runtime's default job or a submitted one.
enum Scope<'rt> {
    Default(&'rt Runtime),
    Job(JobHandle<'rt>),
}

impl Scope<'_> {
    fn task(&self, label: &'static str) -> TaskBuilder<'_> {
        match self {
            Scope::Default(rt) => rt.task(label),
            Scope::Job(job) => job.task(label),
        }
    }

    fn wait(&self) -> Result<(), FaultReport> {
        match self {
            Scope::Default(rt) => rt.try_taskwait(),
            Scope::Job(job) => job.try_join(),
        }
    }
}

/// Observer recording one letter per hook call: `s`tart, `c`omplete,
/// `f`ault, s`k`ipped.
#[derive(Default)]
struct HookLog {
    events: Mutex<Vec<(char, TaskId)>>,
}

impl HookLog {
    fn of(&self, task: TaskId) -> String {
        let events = self.events.lock().unwrap();
        events.iter().filter(|e| e.1 == task).map(|e| e.0).collect()
    }
}

impl TaskObserver for HookLog {
    fn on_start(&self, _worker: usize, task: TaskId, _critical: bool) {
        self.events.lock().unwrap().push(('s', task));
    }
    fn on_complete(&self, _worker: usize, task: TaskId) {
        self.events.lock().unwrap().push(('c', task));
    }
    fn on_fault(&self, _worker: usize, task: TaskId) {
        self.events.lock().unwrap().push(('f', task));
    }
    fn on_skipped(&self, _worker: usize, task: TaskId) {
        self.events.lock().unwrap().push(('k', task));
    }
}

/// One table cell: a fresh runtime with `config` and the hook log, and
/// a scope in `domain`.
fn cell(config: RuntimeConfig, domain: Domain, run: impl FnOnce(&Runtime, &Scope<'_>, &HookLog)) {
    let log = Arc::new(HookLog::default());
    let rt = Runtime::new(config.observer(log.clone()));
    let scope = match domain {
        Domain::Default => Scope::Default(&rt),
        Domain::Submitted => Scope::Job(rt.submit(JobSpec::new("cell")).expect("admitted")),
    };
    run(&rt, &scope, &log);
}

/// Spawn `f` as a one-shot or an idempotent body.
fn spawn_as(kind: Body, task: TaskBuilder<'_>, f: impl Fn() + Send + Sync + 'static) -> TaskId {
    match kind {
        Body::Once => task.body(f).spawn(),
        Body::Retryable => task.idempotent(f).spawn(),
    }
}

/// A body that counts its runs.
fn counted(runs: &Arc<AtomicU64>) -> impl Fn() + Send + Sync + 'static {
    let runs = Arc::clone(runs);
    move || {
        runs.fetch_add(1, Ordering::SeqCst);
    }
}

fn workers(n: usize) -> RuntimeConfig {
    RuntimeConfig::with_workers(n)
}

fn poisoned_before_dispatch_is_skipped_only(kind: Body, domain: Domain) {
    cell(workers(2), domain, |rt, scope, log| {
        let x = rt.register("x", 0u64);
        let runs = Arc::new(AtomicU64::new(0));
        scope
            .task("bad-writer")
            .writes(&x)
            .body(|| panic!("dies"))
            .spawn();
        let reader = spawn_as(kind, scope.task("reader").reads(&x), counted(&runs));
        let report = scope.wait().expect_err("writer and reader both fail");
        assert_eq!(report.poisoned().count(), 1, "{report}");
        assert_eq!(log.of(reader), "k", "skipped, never started");
        assert_eq!(runs.load(Ordering::SeqCst), 0, "body never entered");
        assert_eq!(rt.stats().poisoned_tasks, 1);
    });
}

fn cancelled_job_records_a_skip(kind: Body, domain: Domain) {
    if domain == Domain::Default {
        return; // the default job has no handle to cancel
    }
    cell(workers(1), domain, |rt, scope, log| {
        let Scope::Job(job) = scope else {
            unreachable!()
        };
        let x = rt.register("x", 0u64);
        let (running, gate) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicBool::new(false)),
        );
        {
            let (running, gate) = (Arc::clone(&running), Arc::clone(&gate));
            job.task("head")
                .updates(&x)
                .body(move || {
                    running.store(true, Ordering::SeqCst);
                    while !gate.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                })
                .spawn();
        }
        let runs = Arc::new(AtomicU64::new(0));
        let tail = spawn_as(kind, job.task("tail").updates(&x), counted(&runs));
        while !running.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        assert!(job.cancel());
        gate.store(true, Ordering::SeqCst);
        let report = job.try_join().expect_err("the skip is a recorded failure");
        let skipped: Vec<_> = report.cancelled().map(|f| f.task).collect();
        assert_eq!(skipped, vec![tail], "{report}");
        assert_eq!(log.of(tail), "k");
        assert_eq!(runs.load(Ordering::SeqCst), 0, "body never entered");
        assert_eq!(rt.stats().tasks_cancelled, 1);
        assert!(job.poisoned_regions().is_empty(), "a skip poisons nothing");
    });
}

fn injected_panic_starts_then_faults(kind: Body, domain: Domain) {
    let config = workers(2).fault_plan(FaultPlan::new(7).panic_rate(1.0));
    cell(config, domain, |rt, scope, log| {
        let runs = Arc::new(AtomicU64::new(0));
        let t = spawn_as(kind, scope.task("victim"), counted(&runs));
        let report = scope.wait().expect_err("no retry budget");
        assert_eq!(report.len(), 1);
        assert_eq!(report.failures[0].attempts, 1);
        assert!(matches!(
            &report.failures[0].error,
            TaskError::Panicked(msg) if msg.contains("injected fault")
        ));
        assert_eq!(log.of(t), "sf", "start then fault, no complete");
        assert_eq!(runs.load(Ordering::SeqCst), 0, "injection fires pre-body");
        assert_eq!(rt.stats().panicked, 1);
    });
}

fn retry_pairs_hooks_per_attempt(kind: Body, domain: Domain) {
    let config = workers(2)
        .retry(RetryPolicy::retries(4))
        .fault_plan(FaultPlan::new(11).panic_rate(1.0).max_panics_per_task(2));
    cell(config, domain, |rt, scope, log| {
        let runs = Arc::new(AtomicU64::new(0));
        let t = spawn_as(kind, scope.task("flaky"), counted(&runs));
        let waited = scope.wait();
        let stats = rt.stats();
        match kind {
            // Two failed attempts, then the one that runs the body.
            Body::Retryable => {
                waited.expect("retries recover");
                assert_eq!(log.of(t), "sfsfsc");
                assert_eq!(runs.load(Ordering::SeqCst), 1);
                assert_eq!(
                    (stats.panicked, stats.retried, stats.failed_tasks),
                    (2, 2, 0)
                );
                assert_eq!(stats.retry_hist[2], 1);
            }
            // A one-shot body is never re-run, whatever the budget.
            Body::Once => {
                let report = waited.expect_err("one-shot bodies do not retry");
                assert_eq!(report.failures[0].attempts, 1);
                assert_eq!(log.of(t), "sf");
                assert_eq!(runs.load(Ordering::SeqCst), 0);
                assert_eq!(
                    (stats.panicked, stats.retried, stats.failed_tasks),
                    (1, 0, 1)
                );
            }
        }
        assert_eq!(stats.completed, 1);
    });
}

fn hedged_duplicate_settles_and_samples_once(kind: Body, domain: Domain) {
    let config = workers(3).soft_timeout(Duration::from_millis(10));
    cell(config, domain, |rt, scope, _log| {
        let runs = Arc::new(AtomicU64::new(0));
        let straggler_done = Arc::new(AtomicBool::new(false));
        let body = {
            let (runs, done) = (Arc::clone(&runs), Arc::clone(&straggler_done));
            move || {
                // Only the first attempt straggles.
                if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(300));
                    done.store(true, Ordering::SeqCst);
                }
            }
        };
        spawn_as(kind, scope.task("straggler"), body);
        let t0 = Instant::now();
        scope.wait().expect("clean");
        let check = |when: &str| {
            let stats = rt.stats();
            assert_eq!(stats.completed, 1, "{when}: settled exactly once");
            assert_eq!(stats.failed_tasks, 0, "{when}");
            if let Scope::Job(job) = scope {
                let m = job.metrics();
                // queued = spawned - probe samples, running = samples -
                // completed: both zero iff the probe fired exactly once.
                assert_eq!((m.spawned, m.completed), (1, 1), "{when}");
                assert_eq!((m.queued, m.running), (0, 0), "{when}: one probe sample");
            }
        };
        match kind {
            Body::Retryable => {
                assert!(
                    t0.elapsed() < Duration::from_millis(250),
                    "the hedge, not the straggler, settled the task: {:?}",
                    t0.elapsed()
                );
                assert_eq!(rt.stats().tasks_hedged, 1);
                check("winner settled");
                // Let the loser finish and hand in its completion.
                while !straggler_done.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(20));
                assert_eq!(runs.load(Ordering::SeqCst), 2);
                check("loser finished");
            }
            // A one-shot body cannot be duplicated: it just runs long.
            Body::Once => {
                assert_eq!(rt.stats().tasks_hedged, 0);
                assert_eq!(runs.load(Ordering::SeqCst), 1);
                check("straggler settled");
            }
        }
    });
}

/// The other order: with one worker the duplicate waits in the queue
/// until the straggler itself has settled the task, and is dispatched
/// onto a slot that no longer holds it. It must not run at all.
fn stale_hedged_duplicate_never_runs(kind: Body, domain: Domain) {
    let config = workers(1).soft_timeout(Duration::from_millis(10));
    cell(config, domain, |rt, scope, log| {
        let runs = Arc::new(AtomicU64::new(0));
        let body = {
            let runs = Arc::clone(&runs);
            move || {
                runs.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(60));
            }
        };
        let t = spawn_as(kind, scope.task("straggler"), body);
        scope.wait().expect("clean");
        assert_eq!(rt.stats().tasks_hedged, (kind == Body::Retryable) as u64);
        // Time for the worker to pop the duplicate (a second, 60 ms run
        // would still be going on at the checks below).
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "the duplicate never ran");
        assert_eq!(log.of(t), "sc", "no hook fired for the duplicate");
        let stats = rt.stats();
        assert_eq!((stats.completed, stats.failed_tasks), (1, 0));
        if let Scope::Job(job) = scope {
            let m = job.metrics();
            assert_eq!((m.spawned, m.completed), (1, 1));
            assert_eq!((m.queued, m.running), (0, 0), "one probe sample");
        }
    });
}

fn program_capture_files_one_duration_per_successful_body(kind: Body, domain: Domain) {
    let config = workers(2)
        .record_program(true)
        .retry(RetryPolicy::retries(2))
        .fault_plan(FaultPlan::new(3).panic_rate(1.0).max_panics_per_task(1));
    cell(config, domain, |rt, scope, _log| {
        let runs = Arc::new(AtomicU64::new(0));
        let ids: Vec<TaskId> = (0..3)
            .map(|_| spawn_as(kind, scope.task("timed"), counted(&runs)))
            .collect();
        let waited = scope.wait();
        let program = rt.program().expect("recording is on");
        match kind {
            // Each task fails once (nothing filed) and then succeeds.
            Body::Retryable => {
                waited.expect("retries recover");
                assert_eq!(program.measured_count(), 3);
                assert!(ids.iter().all(|&t| program.measured_ns(t).is_some()));
            }
            // Never past the injected panic: no body, no duration.
            Body::Once => {
                assert_eq!(waited.expect_err("no retry").len(), 3);
                assert_eq!(program.measured_count(), 0);
            }
        }
        assert_eq!(program.len(), 3, "the graph records every spawn");
    });
}

#[test]
fn the_task_envelope_holds_for_every_body_kind_in_every_domain() {
    type Case = fn(Body, Domain);
    let cases: [(&str, Case); 7] = [
        (
            "poisoned before dispatch",
            poisoned_before_dispatch_is_skipped_only,
        ),
        ("cancelled job", cancelled_job_records_a_skip),
        ("injected panic", injected_panic_starts_then_faults),
        ("retry", retry_pairs_hooks_per_attempt),
        (
            "hedged duplicate",
            hedged_duplicate_settles_and_samples_once,
        ),
        ("stale hedged duplicate", stale_hedged_duplicate_never_runs),
        (
            "program capture",
            program_capture_files_one_duration_per_successful_body,
        ),
    ];
    for (name, case) in cases {
        for kind in [Body::Once, Body::Retryable] {
            for domain in [Domain::Default, Domain::Submitted] {
                eprintln!("envelope case: {name} / {kind:?} / {domain:?}");
                case(kind, domain);
            }
        }
    }
}
