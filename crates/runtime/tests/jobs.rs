//! Multi-tenant job layer integration tests: cross-job fault isolation
//! under seeded injection, deterministic admission control and
//! backpressure, best-effort load shedding, poison-region clearing, and
//! the graceful/forced drain state machine — including a drain racing an
//! active fault plan that kills workers (the watchdog must neither
//! respawn-loop nor hang the drain).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;
use raa_runtime::{
    AdmissionError, FaultPlan, JobSpec, QosClass, RetryPolicy, Runtime, RuntimeConfig, TaskScope,
    WatchdogConfig,
};

/// Spawn a chain of `len` read-modify-write accumulator tasks into
/// `scope` over its own registered handle; returns the handle. The chain
/// value after success is `len * (len + 1) / 2`.
fn spawn_chain<S: TaskScope>(scope: &S, name: &str, len: u64) -> raa_runtime::DataHandle<u64> {
    let acc = scope.register(name, 0u64);
    for step in 1..=len {
        let h = acc.clone();
        scope
            .task(format!("{name}[{step}]"))
            .updates(&acc)
            .idempotent(move || *h.write() += step)
            .spawn();
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    /// Two tenants share one runtime; one runs under a seeded fault plan
    /// whose injected panics outlast the retry budget, poisoning its own
    /// regions. The clean tenant's result must be exactly the solo-run
    /// value, its report clean, and its poison set empty — for every
    /// seed.
    #[test]
    fn chaos_tenant_never_leaks_into_clean_job(seed in 0u64..1_000_000) {
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let clean = rt.submit(JobSpec::new("clean")).expect("runtime is running");
        let chaos = rt
            .submit(
                JobSpec::new("chaos")
                    .retry(RetryPolicy::retries(1))
                    .fault_plan(FaultPlan::new(seed).panic_rate(0.4)),
            )
            .expect("runtime is running");

        let chaos_acc = spawn_chain(&chaos, "chaos_acc", 30);
        let clean_acc = spawn_chain(&clean, "clean_acc", 40);

        let clean_res = clean.try_join();
        prop_assert!(clean_res.is_ok(), "clean tenant failed: {clean_res:?}");
        prop_assert_eq!(*clean_acc.read(), 40 * 41 / 2);
        prop_assert!(clean.poisoned_regions().is_empty());

        match chaos.try_join() {
            Ok(()) => prop_assert_eq!(*chaos_acc.read(), 30 * 31 / 2),
            Err(report) => {
                // A failed RMW chain leaves its write range poisoned, and
                // the report must carry it (all of it stays in-domain).
                prop_assert!(!report.poisoned_regions.is_empty());
                prop_assert!(!chaos.poisoned_regions().is_empty());
                prop_assert!(clean.poisoned_regions().is_empty());
            }
        }
        // The runtime itself stays reusable for the next tenant.
        prop_assert!(rt.try_taskwait().is_ok());
    }
}

#[test]
fn per_job_cap_bounds_in_flight_without_deadlock() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("capped").max_in_flight(4))
        .expect("runtime is running");
    let ran = Arc::new(AtomicU64::new(0));
    for i in 0..40 {
        let ran = Arc::clone(&ran);
        // Independent tasks: blocking spawn must wait at the cap, not
        // deadlock, and every task must eventually run.
        job.task(format!("t{i}"))
            .body(move || {
                std::thread::sleep(Duration::from_micros(200));
                ran.fetch_add(1, Ordering::SeqCst);
            })
            .spawn();
        assert!(job.in_flight() <= 4, "cap violated at spawn {i}");
    }
    assert!(job.try_join().is_ok());
    assert_eq!(ran.load(Ordering::SeqCst), 40);
    let stats = job.job_stats();
    assert_eq!(stats.spawned, 40);
    assert_eq!(stats.completed, 40);
    assert!(
        stats.in_flight_hwm <= 4,
        "high-water mark {} exceeds cap",
        stats.in_flight_hwm
    );
}

#[test]
fn try_spawn_surfaces_busy_at_the_cap() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("narrow").max_in_flight(1))
        .expect("runtime is running");
    let gate = Arc::new(AtomicU64::new(0));
    {
        let gate = Arc::clone(&gate);
        job.task("holder")
            .body(move || {
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            })
            .spawn();
    }
    let refused = job.task("overflow").body(|| {}).try_spawn();
    assert_eq!(refused.unwrap_err(), AdmissionError::Busy);
    gate.store(1, Ordering::SeqCst);
    assert!(job.try_join().is_ok());
    assert_eq!(job.job_stats().completed, 1, "refused task never ran");
    assert!(rt.stats().admission_rejected >= 1);
    // Capacity freed: the same builder chain is admitted now.
    assert!(job.task("after").body(|| {}).try_spawn().is_ok());
    assert!(job.try_join().is_ok());
}

#[test]
fn cancel_skips_queued_tasks_and_reports_them() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("doomed"))
        .expect("runtime is running");
    let gate = Arc::new(AtomicU64::new(0));
    let acc = job.register("acc", 0u64);
    {
        let (gate, h) = (Arc::clone(&gate), acc.clone());
        job.task("head")
            .updates(&acc)
            .body(move || {
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                *h.write() += 1;
            })
            .spawn();
    }
    // Queued behind the gated head on the same region.
    for i in 0..10 {
        let h = acc.clone();
        job.task(format!("tail{i}"))
            .updates(&acc)
            .body(move || *h.write() += 1_000)
            .spawn();
    }
    assert!(job.cancel(), "first cancel");
    assert!(!job.cancel(), "second cancel is a no-op");
    gate.store(1, Ordering::SeqCst);
    let report = job.try_join().expect_err("cancelled tasks are failures");
    assert!(report.cancelled().count() >= 1, "{report}");
    // Cancelled skips are not data corruption: no poison.
    assert!(job.poisoned_regions().is_empty());
    // Spawning into a cancelled job is refused.
    assert_eq!(
        job.task("late").body(|| {}).try_spawn().unwrap_err(),
        AdmissionError::Cancelled
    );
    assert!(rt.stats().tasks_cancelled >= 1);
    assert!(rt.try_taskwait().is_ok(), "default job unaffected");
}

#[test]
fn clear_poison_region_unpoisons_exactly_the_overlap() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(
            JobSpec::new("glitchy")
                .retry(RetryPolicy::retries(0))
                .fault_plan(FaultPlan::new(3).panic_rate(1.0)),
        )
        .expect("runtime is running");
    let data = job.register("data", vec![0u64; 64]);
    {
        let h = data.clone();
        job.task("writer")
            .writes(&data)
            .idempotent(move || h.write()[0] = 1)
            .spawn();
    }
    let report = job.try_join().expect_err("panic_rate 1.0, no retries");
    assert_eq!(report.poisoned_regions.len(), 1);
    let poisoned = report.poisoned_regions[0];

    // Clearing a sub-range splits the entry; the remainder stays.
    let mid = poisoned.range.start + (poisoned.range.end - poisoned.range.start) / 2;
    let mut half = poisoned;
    half.range.end = mid;
    job.clear_poison_region(half);
    let rest = job.poisoned_regions();
    assert_eq!(rest.len(), 1);
    assert_eq!(rest[0].range.start, mid);
    job.clear_poison_region(rest[0]);
    assert!(job.poisoned_regions().is_empty());
    // The hardware-fault API on the runtime clears per-job domains too.
    rt.clear_poison_region(poisoned);
    assert!(rt.poisoned_regions().is_empty());
}

#[test]
fn drain_with_idle_jobs_is_clean_and_final() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("quick"))
        .expect("runtime is running");
    let acc = spawn_chain(&job, "acc", 20);
    let report = rt.drain(Duration::from_secs(10));
    assert!(report.clean(), "{report:?}");
    assert_eq!(report.outstanding_at_exit, 0);
    assert_eq!(*acc.read(), 20 * 21 / 2, "in-flight work finished first");
    assert!(rt.is_draining());
    // Drained runtimes admit nothing, quietly.
    assert!(matches!(
        rt.submit(JobSpec::new("late")),
        Err(AdmissionError::Draining)
    ));
    assert_eq!(
        job.task("late").body(|| {}).try_spawn().unwrap_err(),
        AdmissionError::Draining
    );
}

#[test]
fn drain_cancels_stragglers_to_meet_its_deadline() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt.submit(JobSpec::new("slow")).expect("runtime is running");
    let acc = job.register("acc", 0u64);
    // A sequential chain far too slow to finish inside the drain budget.
    for i in 0..200 {
        let h = acc.clone();
        job.task(format!("s{i}"))
            .updates(&acc)
            .body(move || {
                std::thread::sleep(Duration::from_millis(5));
                *h.write() += 1;
            })
            .spawn();
    }
    let start = Instant::now();
    let report = rt.drain(Duration::from_millis(300));
    // Phase 2 cancelled the chain; the queued skips flow through the
    // workers fast enough to quiesce before the hard deadline.
    assert!(report.cancelled_jobs >= 1, "{report:?}");
    assert!(!report.timed_out, "{report:?}");
    assert!(!report.forced, "{report:?}");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain took {:?}",
        start.elapsed()
    );
    assert!(*acc.read() < 200, "the chain cannot have finished");
}

#[test]
fn forced_drain_bounds_time_with_a_wedged_task() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("wedged"))
        .expect("runtime is running");
    job.task("sleeper")
        .body(|| std::thread::sleep(Duration::from_millis(1_500)))
        .spawn();
    let start = Instant::now();
    let report = rt.drain(Duration::from_millis(200));
    assert!(report.timed_out && report.forced, "{report:?}");
    assert!(report.outstanding_at_exit >= 1);
    assert!(
        start.elapsed() < Duration::from_millis(1_000),
        "forced drain must not wait out the wedged body: {:?}",
        start.elapsed()
    );
    // join_timeout on the wedged job observes the forced termination
    // instead of hanging.
    let _ = job.join_timeout(Duration::from_millis(50));
    // Dropping the runtime joins the worker once its body returns.
}

#[test]
fn drain_after_a_forced_drain_does_not_wait_for_vanished_workers() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("wedged"))
        .expect("runtime is running");
    // Wedged until released below, so it is outstanding across both drains.
    let (release, gate) = std::sync::mpsc::channel::<()>();
    job.task("blocked")
        .body(move || {
            let _ = gate.recv();
        })
        .spawn();
    let first = rt.drain(Duration::from_millis(100));
    assert!(first.forced, "{first:?}");
    // The pool is shut down: nothing can settle the wedged task, so the
    // second drain has nothing to wait for and must say so at once
    // rather than sleep its whole budget.
    let second = rt.drain(Duration::from_secs(5));
    assert!(second.forced && second.timed_out, "{second:?}");
    assert!(second.outstanding_at_exit >= 1, "{second:?}");
    assert_eq!(second.cancelled_jobs, 0, "{second:?}");
    assert!(second.elapsed < Duration::from_secs(2), "{second:?}");
    release
        .send(())
        .expect("the wedged body still holds the gate");
}

#[test]
fn drain_survives_an_active_fault_plan_killing_workers() {
    // Satellite: a worker killed around drain time must not trigger a
    // respawn loop or hang the drain — the watchdog respawn gate and the
    // shutdown check in `injected_death` bound both.
    let rt = Runtime::new(
        RuntimeConfig::with_workers(3)
            .fault_plan(FaultPlan::new(5).kill_worker(0, 10).kill_worker(1, 25))
            .watchdog(WatchdogConfig::enabled().interval(Duration::from_millis(2))),
    );
    let job = rt
        .submit(JobSpec::new("tenant"))
        .expect("runtime is running");
    let acc = job.register("acc", 0u64);
    for i in 0..60 {
        let h = acc.clone();
        job.task(format!("t{i}"))
            .updates(&acc)
            .body(move || {
                std::thread::sleep(Duration::from_micros(500));
                *h.write() += 1;
            })
            .spawn();
        // The chain alone can run start to end on whichever worker
        // popped its head; an independent task beside each link keeps
        // the plan's victims executing too.
        job.task(format!("free{i}"))
            .body(|| std::thread::sleep(Duration::from_micros(500)))
            .spawn();
    }
    let start = Instant::now();
    let report = rt.drain(Duration::from_secs(20));
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "drain hung under worker kills: {:?}",
        start.elapsed()
    );
    assert!(!report.timed_out, "{report:?}");
    let stats = rt.stats();
    assert!(stats.worker_deaths >= 1, "the plan fired");
    assert!(
        stats.worker_respawns <= stats.worker_deaths,
        "respawn loop: {} respawns for {} deaths",
        stats.worker_respawns,
        stats.worker_deaths
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Admission reservations must drain under every interleaving of a
    /// cancel racing blocking spawns at a tight cap: a reservation taken
    /// between the admission check and the cancel flag must be rolled
    /// back (global count AND per-job in-flight), or capacity leaks for
    /// the life of the runtime.
    #[test]
    fn cancel_racing_blocking_spawns_leaks_no_reservation(
        cancel_after_us in 0u64..400,
        spawns in 4usize..24,
    ) {
        let rt = Runtime::new(RuntimeConfig::with_workers(2).max_in_flight(2));
        let job = rt.submit(JobSpec::new("victim")).expect("runtime is running");
        std::thread::scope(|s| {
            let h = &job;
            s.spawn(move || {
                for i in 0..spawns {
                    // Blocking spawn: waits at the cap, silently
                    // discarded once the cancel lands.
                    h.task(format!("t{i}"))
                        .body(|| std::thread::sleep(Duration::from_micros(50)))
                        .spawn();
                }
            });
            s.spawn(move || {
                std::thread::sleep(Duration::from_micros(cancel_after_us));
                h.cancel();
            });
        });
        let settled = job.join_timeout(Duration::from_secs(10));
        prop_assert!(settled.is_some(), "cancelled job failed to drain");
        prop_assert_eq!(job.in_flight(), 0, "per-job reservation leaked");
        // The global cap must be fully released too: a fresh tenant can
        // hold `max_in_flight` admissions without hitting Busy.
        let fresh = rt.submit(JobSpec::new("fresh")).expect("runtime is running");
        let gate = Arc::new(AtomicU64::new(0));
        for i in 0..2 {
            let gate = Arc::clone(&gate);
            let admitted = fresh
                .task(format!("probe{i}"))
                .body(move || {
                    while gate.load(Ordering::SeqCst) == 0 {
                        std::thread::yield_now();
                    }
                })
                .try_spawn();
            prop_assert!(admitted.is_ok(), "global reservation leaked: {admitted:?}");
        }
        gate.store(1, Ordering::SeqCst);
        prop_assert!(fresh.try_join().is_ok());
    }
}

#[test]
fn drain_under_active_offered_load_holds_its_deadline() {
    // Satellite: drain while a spawner keeps offering work. The drain
    // must cut the stream off with a typed refusal and still meet its
    // deadline rather than chasing quiescence forever.
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("stream"))
        .expect("runtime is running");
    std::thread::scope(|s| {
        let h = &job;
        let submitter = s.spawn(move || {
            // 200µs tasks offered every 50µs onto 2 workers: a 4x
            // oversubscription the drain cannot simply wait out.
            for i in 0.. {
                match h
                    .task(format!("t{i}"))
                    .body(|| std::thread::sleep(Duration::from_micros(200)))
                    .try_spawn()
                {
                    Ok(_) => std::thread::sleep(Duration::from_micros(50)),
                    Err(e) => return e,
                }
            }
            unreachable!()
        });
        std::thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        let report = rt.drain(Duration::from_secs(2));
        assert!(!report.timed_out, "{report:?}");
        assert!(!report.forced, "{report:?}");
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "drain blew its deadline under offered load: {:?}",
            start.elapsed()
        );
        // The spawner was refused with a typed error, not wedged.
        let refusal = submitter.join().expect("submitter exits");
        assert!(
            matches!(
                refusal,
                AdmissionError::Cancelled | AdmissionError::Draining
            ),
            "unexpected refusal: {refusal:?}"
        );
    });
    assert!(matches!(
        rt.submit(JobSpec::new("late")),
        Err(AdmissionError::Draining)
    ));
}

#[test]
fn job_metrics_expose_queue_depth_and_dispatch_delay() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("meter"))
        .expect("runtime is running");
    let gate = Arc::new(AtomicU64::new(0));
    let acc = job.register("acc", 0u64);
    {
        let (gate, h) = (Arc::clone(&gate), acc.clone());
        job.task("head")
            .updates(&acc)
            .body(move || {
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                *h.write() += 1;
            })
            .spawn();
    }
    // Three dependents queued behind the gated head on the same region:
    // admitted (spawned) but never dispatched while the gate holds.
    for i in 0..3 {
        let h = acc.clone();
        job.task(format!("tail{i}"))
            .updates(&acc)
            .body(move || *h.write() += 1)
            .spawn();
    }
    let t0 = Instant::now();
    loop {
        if job.metrics().running >= 1 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "head never dispatched"
        );
        std::thread::yield_now();
    }
    let m = job.metrics();
    assert_eq!(m.spawned, 4);
    assert_eq!(m.running, 1, "only the head is dispatched");
    assert_eq!(m.queued, 3, "dependents admitted but waiting");
    assert_eq!(m.completed, 0);
    assert!(!m.deadline_missed);
    // Hold the gate long enough that the dependents' admission→dispatch
    // delay is unambiguously visible in the metrics.
    std::thread::sleep(Duration::from_millis(20));
    gate.store(1, Ordering::SeqCst);
    assert!(job.try_join().is_ok());
    let m = job.metrics();
    assert_eq!(m.completed, 4);
    assert_eq!(m.queued, 0);
    assert_eq!(m.running, 0);
    assert_eq!(m.failed, 0);
    assert!(
        m.queue_delay_max >= Duration::from_millis(10),
        "dependents waited on the gate: {:?}",
        m.queue_delay_max
    );
    assert!(m.queue_delay_avg <= m.queue_delay_max);
    assert_eq!(*acc.read(), 4);
}

#[test]
fn deadline_reaper_cancels_overdue_best_effort_jobs() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let doomed = rt
        .submit(
            JobSpec::new("doomed")
                .qos(QosClass::BestEffort)
                .deadline(Duration::from_millis(20)),
        )
        .expect("runtime is running");
    let gate = Arc::new(AtomicU64::new(0));
    let acc = doomed.register("acc", 0u64);
    {
        let (gate, h) = (Arc::clone(&gate), acc.clone());
        doomed
            .task("head")
            .updates(&acc)
            .body(move || {
                while gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
                *h.write() += 1;
            })
            .spawn();
    }
    for i in 0..5 {
        let h = acc.clone();
        doomed
            .task(format!("tail{i}"))
            .updates(&acc)
            .body(move || *h.write() += 1_000)
            .spawn();
    }
    // The reaper fires ~20ms after submit and cancels the job. Wait for
    // the cancel itself (admission turns it into a typed refusal) so the
    // queued tails are guaranteed to skip, not merely for the miss mark.
    let t0 = Instant::now();
    loop {
        match doomed.task("probe").body(|| {}).try_spawn() {
            Err(AdmissionError::Cancelled) => break,
            _ => {
                assert!(t0.elapsed() < Duration::from_secs(5), "reaper never fired");
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }
    gate.store(1, Ordering::SeqCst);
    let report = doomed.try_join().expect_err("reaped tasks are failures");
    assert!(report.cancelled().count() >= 1, "{report}");
    assert!(doomed.metrics().deadline_missed);
    assert!(rt.stats().jobs_deadline_missed >= 1);
    // Guaranteed jobs are never reaped: an expired deadline only sets
    // the miss mark, the work itself runs to completion.
    let vip = rt
        .submit(JobSpec::new("vip").deadline(Duration::from_millis(10)))
        .expect("runtime is running");
    let vip_gate = Arc::new(AtomicU64::new(0));
    {
        let vip_gate = Arc::clone(&vip_gate);
        vip.task("hold")
            .body(move || {
                while vip_gate.load(Ordering::SeqCst) == 0 {
                    std::thread::yield_now();
                }
            })
            .spawn();
    }
    // Wait on the runtime counter, not the lazily computed metric: the
    // counter is bumped by the reaper strictly after it sets the sticky
    // per-job flag, so observing it proves the mark will survive
    // completion.
    let t0 = Instant::now();
    while rt.stats().jobs_deadline_missed < 2 {
        assert!(t0.elapsed() < Duration::from_secs(5), "miss mark never set");
        std::thread::sleep(Duration::from_millis(1));
    }
    vip_gate.store(1, Ordering::SeqCst);
    let vip_acc = spawn_chain(&vip, "vip_acc", 10);
    assert!(
        vip.try_join().is_ok(),
        "guaranteed job must not be cancelled"
    );
    assert_eq!(*vip_acc.read(), 10 * 11 / 2);
    assert!(vip.metrics().deadline_missed, "the miss mark is sticky");
}

#[test]
fn adaptive_shed_controller_sheds_best_effort_under_queue_delay() {
    // One worker and a 100µs delay budget: a burst of 2ms tasks drives
    // the admission→dispatch EWMA far past the budget, flipping the
    // controller into shedding.
    let rt =
        Runtime::new(RuntimeConfig::with_workers(1).shed_delay_budget(Duration::from_micros(100)));
    let vip = rt.submit(JobSpec::new("vip")).expect("runtime is running");
    for i in 0..32 {
        vip.task(format!("burn{i}"))
            .body(|| std::thread::sleep(Duration::from_millis(2)))
            .spawn();
    }
    assert!(vip.try_join().is_ok());
    let spot = rt
        .submit(JobSpec::new("spot").qos(QosClass::BestEffort))
        .expect("runtime is running");
    let refused = spot.task("cheap").body(|| {}).try_spawn();
    assert_eq!(refused.unwrap_err(), AdmissionError::Shed);
    assert_eq!(spot.metrics().shed, 1);
    assert_eq!(spot.job_stats().spawned, 0, "shed tasks are never admitted");
    // Guaranteed admissions are exempt from the controller.
    assert!(vip.task("still-vip").body(|| {}).try_spawn().is_ok());
    assert!(vip.try_join().is_ok());
    assert!(rt.stats().tasks_shed >= 1);
}

#[test]
fn join_timeout_holds_one_absolute_deadline() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let job = rt
        .submit(JobSpec::new("sleepy"))
        .expect("runtime is running");
    job.task("sleeper")
        .body(|| std::thread::sleep(Duration::from_millis(400)))
        .spawn();
    let t0 = Instant::now();
    let res = job.join_timeout(Duration::from_millis(100));
    let waited = t0.elapsed();
    assert!(res.is_none(), "the sleeper cannot have settled");
    assert!(
        waited >= Duration::from_millis(95),
        "returned early: {waited:?}"
    );
    assert!(
        waited < Duration::from_millis(350),
        "timeout re-armed instead of holding the absolute deadline: {waited:?}"
    );
    // No state was consumed: joining again settles cleanly.
    assert!(job.join_timeout(Duration::from_secs(10)).is_some());
    assert_eq!(job.job_stats().completed, 1);
}

#[test]
fn soft_timeout_hedges_a_straggler_without_double_counting() {
    // The first execution stalls far past the soft timeout; the hedge
    // scan re-dispatches a duplicate of the idempotent body, and the
    // race's winner settles the task exactly once.
    let rt = Runtime::new(RuntimeConfig::with_workers(3).soft_timeout(Duration::from_millis(10)));
    let job = rt
        .submit(JobSpec::new("hedged"))
        .expect("runtime is running");
    let runs = Arc::new(AtomicU64::new(0));
    {
        let runs = Arc::clone(&runs);
        // Only the first attempt stalls; the hedged duplicate is quick.
        job.task("straggler")
            .idempotent(move || {
                if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(500));
                }
            })
            .spawn();
    }
    let t0 = Instant::now();
    assert!(job.try_join().is_ok());
    assert!(
        t0.elapsed() < Duration::from_millis(400),
        "join waited for the straggler instead of its hedge: {:?}",
        t0.elapsed()
    );
    assert!(runs.load(Ordering::SeqCst) >= 2, "the hedge ran");
    let stats = job.job_stats();
    assert_eq!(stats.spawned, 1);
    assert_eq!(stats.completed, 1, "hedge loser must not settle twice");
    assert_eq!(stats.failed, 0);
    assert!(rt.stats().tasks_hedged >= 1);
    // The losing duplicate finishes inside worker teardown on drop.
}

#[test]
fn job_table_recycles_slots_across_tenants() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2).max_jobs(1));
    let first = rt.submit(JobSpec::new("a")).expect("runtime is running");
    let first_id = first.id();
    assert!(matches!(
        rt.submit(JobSpec::new("b")),
        Err(AdmissionError::Busy)
    ));
    spawn_chain(&first, "acc", 5);
    assert!(first.try_join().is_ok());
    drop(first); // settled: slot retires with the handle
    let second = rt.submit(JobSpec::new("b")).expect("slot freed");
    assert_eq!(second.id().index, first_id.index, "slot reused");
    assert_ne!(second.id(), first_id, "generation bumped");
    assert!(second.try_join().is_ok());
}
