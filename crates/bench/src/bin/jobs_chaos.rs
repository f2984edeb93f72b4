//! jobs-chaos — multi-tenant fault campaign over the persistent job
//! runtime.
//!
//! One runtime, three tenants, one fault campaign:
//!
//! * **clean-a / clean-b** — two blocked task-parallel CG solves, each in
//!   its own job, sharing the worker pool.
//! * **chaos** — a tenant whose per-job [`FaultPlan`] panics *every* task
//!   attempt past its retry budget, poisoning its regions; it also runs
//!   under a per-job in-flight cap so its blocking spawns exercise
//!   backpressure.
//!
//! The runtime-level plan kills one worker mid-campaign and the watchdog
//! respawns it (pool faults are shared infrastructure; injection plans
//! are per-tenant). The harness asserts the robustness contract:
//!
//! * both clean tenants converge and their solutions are **byte
//!   identical** to a solo run on a private runtime — scheduling noise,
//!   a dying worker and a panicking neighbour must not perturb a ULP;
//! * the chaos tenant fails **cleanly**: every one of its tasks settles,
//!   its report carries its poisoned regions, and no poison is visible
//!   from any other tenant;
//! * `Runtime::drain` completes within its timeout and the drained
//!   runtime refuses new jobs.
//!
//! stdout is deterministic for a fixed seed (CI diffs two runs); wall
//! clock and raw fault counters go to stderr.
//!
//! Usage: `cargo run --release -p raa-bench --bin jobs_chaos`
//! Env: `RAA_SCALE` (`test`|`small`|`standard`), `RAA_FAULT_SEED`
//! (default 42).

use std::sync::Arc;
use std::time::{Duration, Instant};

use raa_bench::{env_u64, rule, scale_from_env};
use raa_runtime::{
    FaultPlan, JobSpec, QosClass, RetryPolicy, Runtime, RuntimeConfig, WatchdogConfig,
};
use raa_solver::cg::{try_cg_tasks, CgResult};
use raa_solver::csr::Csr;
use raa_workloads::Scale;

const WORKERS: usize = 3;
const BLOCKS: usize = 8;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 5_000;
/// Chaos-tenant shape: rounds × (writers + readers) tasks, all doomed.
const ROUNDS: usize = 2;
const CHAIN: usize = 8;
/// Chaos tenant's in-flight cap (its spawner must block, not flood).
const CHAOS_CAP: usize = 8;

/// Run the doomed tenant's workload: `ROUNDS` rounds of a write chain
/// feeding a read fan-out over its own registered data. Every attempt
/// panics (per-job plan), so every task fails past the retry budget or
/// is skipped through a poisoned region. Returns tasks spawned.
fn chaos_workload(job: &raa_runtime::JobHandle<'_>) -> usize {
    let mut spawned = 0;
    for round in 0..ROUNDS {
        let data = job.register(format!("chaos_data{round}"), vec![0u64; 64]);
        for i in 0..CHAIN {
            let h = data.clone();
            job.task(format!("chaos_w{round}.{i}"))
                .updates(&data)
                .idempotent(move || h.write()[0] += 1)
                .spawn();
            spawned += 1;
        }
        for i in 0..CHAIN {
            let h = data.clone();
            job.task(format!("chaos_r{round}.{i}"))
                .reads(&data)
                .idempotent(move || {
                    let _ = h.read()[0];
                })
                .spawn();
            spawned += 1;
        }
    }
    spawned
}

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

fn main() {
    // Injected panics are caught by the runtime; silence their hook
    // output but keep the default hook for anything else.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected fault"));
        if !injected {
            default_hook(info);
        }
    }));

    let (nx, ny) = match scale_from_env() {
        Scale::Test => (20, 20),
        Scale::Small => (48, 48),
        Scale::Standard => (96, 96),
    };
    let seed = env_u64("RAA_FAULT_SEED", 42);
    let a = Arc::new(Csr::poisson2d(nx, ny));
    let n = a.n();
    let b: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.5 * ((i as f64) * 0.01).sin())
        .collect();

    println!(
        "jobs-chaos — multi-tenant campaign: 2 clean CG tenants ({nx}x{ny}, {n} unknowns, \
         {BLOCKS} blocks) + 1 doomed tenant, {WORKERS} workers, seed {seed}, \
         1 worker kill + watchdog respawn"
    );
    rule(86);

    // ------------------------------------------------- solo reference
    let solo = {
        let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
        let job = rt.submit(JobSpec::new("solo")).expect("fresh runtime");
        let t0 = Instant::now();
        let res = try_cg_tasks(&job, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS)
            .expect("fault-free solve");
        eprintln!(
            "[timing] solo reference: {:.3}s",
            t0.elapsed().as_secs_f64()
        );
        assert!(res.converged, "fault-free CG must converge");
        res
    };
    println!(
        "solo reference: converged=true iterations={} rel-residual={:.1e}",
        solo.iterations, solo.rel_residual
    );

    // ---------------------------------------------- concurrent tenants
    // Pool-scoped fault: one worker dies mid-campaign, the watchdog
    // respawns it. The kill plan has no panic rate, so clean tenants
    // inheriting it see no task injection.
    let rt = Runtime::new(
        RuntimeConfig::with_workers(WORKERS)
            .fault_plan(FaultPlan::new(seed).kill_worker(1, 40))
            .watchdog(WatchdogConfig::enabled().interval(Duration::from_millis(2))),
    );
    let clean_a = rt.submit(JobSpec::new("clean-a")).expect("running");
    let clean_b = rt.submit(JobSpec::new("clean-b")).expect("running");
    let chaos = rt
        .submit(
            JobSpec::new("chaos")
                .qos(QosClass::Guaranteed)
                .retry(RetryPolicy::retries(1))
                .fault_plan(FaultPlan::new(seed ^ 0x0C05).panic_rate(1.0))
                .max_in_flight(CHAOS_CAP),
        )
        .expect("running");

    let t0 = Instant::now();
    let (res_a, res_b, chaos_spawned) = std::thread::scope(|s| {
        let ta = s.spawn(|| try_cg_tasks(&clean_a, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS));
        let tb = s.spawn(|| try_cg_tasks(&clean_b, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS));
        let spawned = chaos_workload(&chaos);
        (
            ta.join().expect("clean-a solver thread"),
            tb.join().expect("clean-b solver thread"),
            spawned,
        )
    });
    let concurrent_secs = t0.elapsed().as_secs_f64();

    let report = |label: &str,
                  res: &Result<CgResult, raa_runtime::FaultReport>,
                  job: &raa_runtime::JobHandle<'_>| {
        let res = res.as_ref().unwrap_or_else(|r| panic!("{label} died: {r}"));
        println!(
            "{label} : converged={} iterations={} byte-identical-to-solo={} poison-clean={}",
            res.converged,
            res.iterations,
            bits(&res.x) == bits(&solo.x),
            job.poisoned_regions().is_empty(),
        );
    };
    report("clean-a", &res_a, &clean_a);
    report("clean-b", &res_b, &clean_b);

    let chaos_report = chaos
        .try_join()
        .expect_err("every chaos attempt panics past the retry budget");
    let chaos_stats = chaos.job_stats();
    println!(
        "chaos   : failed=true failures={} all-settled={} cap-honored={} poisoned={} \
         poison-confined={}",
        chaos_report.len(),
        chaos_report.len() == chaos_spawned && chaos_stats.completed == chaos_spawned as u64,
        chaos_stats.in_flight_hwm <= CHAOS_CAP as u64,
        !chaos_report.poisoned_regions.is_empty(),
        clean_a.poisoned_regions().is_empty() && clean_b.poisoned_regions().is_empty(),
    );

    let stats = rt.stats();
    println!(
        "pool    : worker-killed={} respawn-bounded={}",
        stats.worker_deaths >= 1,
        stats.worker_respawns <= stats.worker_deaths,
    );
    eprintln!(
        "[detail] concurrent campaign: {concurrent_secs:.3}s, deaths={} respawns={} \
         panics={} retried={} failed-tasks={} jobs={}",
        stats.worker_deaths,
        stats.worker_respawns,
        stats.panicked,
        stats.retried,
        stats.failed_tasks,
        stats.jobs_submitted,
    );

    // --------------------------------------------------------- drain
    let timeout = Duration::from_secs(5);
    let t0 = Instant::now();
    let drain = rt.drain(timeout);
    let bounded = t0.elapsed() <= timeout + Duration::from_millis(500);
    println!(
        "drain   : clean={} bounded={} cancelled-jobs={} outstanding=0:{}",
        drain.clean(),
        bounded,
        drain.cancelled_jobs,
        drain.outstanding_at_exit == 0,
    );
    println!(
        "post-drain-submit-refused={}",
        rt.submit(JobSpec::new("late")).is_err(),
    );
    eprintln!("[timing] drain: {:?}", drain.elapsed);

    rule(86);
    println!("contract:");
    println!("  isolation : a tenant panicking past its retry budget poisons only its own");
    println!("              fault domain; clean tenants' solutions stay byte-identical.");
    println!("  service   : admission caps bound the chaos tenant's in-flight tasks; one");
    println!("              worker kill is absorbed by the watchdog; drain stays bounded.");
}
