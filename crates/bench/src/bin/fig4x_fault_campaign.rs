//! Fig. 4x — cross-crate fault-injection campaign over the blocked
//! task-parallel CG.
//!
//! Where `fig4_resilient_cg` reproduces the paper's single-DUE
//! convergence traces, this harness stresses the *runtime's* fault
//! tolerance: a seeded [`FaultPlan`] panics or stalls task attempts and
//! kills worker threads, while the runtime's retry policy, poisoned-region
//! propagation and watchdog keep the solve alive. Four campaigns:
//!
//! 1. **Panic-rate sweep** — inject panics at increasing per-attempt
//!    rates; idempotent tasks retry (3 attempts). A task that draws a
//!    panic on every attempt fails and poisons its writes, killing the
//!    run. Reports survival rate, retry histogram and (stderr) overhead.
//! 2. **Worker death** — the plan kills worker threads mid-solve; the
//!    watchdog respawns them (or degrades the pool) without losing tasks.
//! 3. **Stall detection** — injected stalls trip the watchdog's
//!    heartbeat monitor.
//! 4. **AFEIR + DUE combo** — the solver-level DUE machinery (block wipe
//!    / multi-bit DUE / silent bit flip) runs *under* runtime-level panic
//!    injection, so algorithmic recovery tasks are themselves retried.
//!
//! stdout is deterministic for a fixed seed (CI diffs two runs); wall
//! clock and raw fault counters go to stderr.
//!
//! Usage: `cargo run --release -p raa-bench --bin fig4x_fault_campaign`
//! Env: `RAA_SCALE` (`test`|`small`|`standard`), `RAA_FAULT_SEED`
//! (default 42), `RAA_FAULT_TRIALS` (runs per rate, default 3).
//!
//! `--trace <path>` runs one *extra* solve under panic injection with
//! runtime tracing on and writes its Chrome-trace JSON (fault and retry
//! events included) to `<path>`. The extra run reports on stderr only,
//! keeping stdout byte-identical with and without the flag.

use std::sync::Arc;
use std::time::{Duration, Instant};

use raa_bench::{env_u64, fmt_pct, rel_residual, rule, scale_from_env};
use raa_runtime::{FaultPlan, RetryPolicy, Runtime, RuntimeConfig, WatchdogConfig};
use raa_solver::afeir_tasks::{cg_afeir_tasks, AfeirTasksCfg};
use raa_solver::cg::{cg_tasks, try_cg_tasks};
use raa_solver::csr::Csr;
use raa_solver::fault::{FaultMode, FaultSpec, FaultTarget};
use raa_workloads::Scale;

const WORKERS: usize = 3;
const BLOCKS: usize = 8;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 5_000;
/// Per-attempt panic probabilities swept in campaign 1.
const RATES: &[f64] = &[0.0, 0.01, 0.05, 0.10, 0.20];

fn retry_policy() -> RetryPolicy {
    RetryPolicy::retries(2).backoff(Duration::from_micros(50), 2.0, Duration::from_millis(1))
}

fn main() {
    // Injected panics happen by the hundreds and are caught by the
    // runtime; silence their hook output but keep the default hook for
    // anything else so genuine bugs still print.
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
    let trials = env_u64("RAA_FAULT_TRIALS", 3) as usize;
    let a = Arc::new(Csr::poisson2d(nx, ny));
    let n = a.n();
    let b: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.5 * ((i as f64) * 0.01).sin())
        .collect();

    println!(
        "Fig. 4x — fault-injection campaign: blocked task CG on a {nx}x{ny} \
         Poisson system ({n} unknowns), {BLOCKS} blocks, {WORKERS} workers, \
         seed {seed}, {trials} trial(s)/rate, retry=3 attempts"
    );
    rule(86);

    // ---------------------------------------------- fault-free reference
    let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS).retry(retry_policy()));
    let t0 = Instant::now();
    let reference = cg_tasks(&rt, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS);
    let base_secs = t0.elapsed().as_secs_f64();
    drop(rt);
    assert!(reference.converged, "fault-free CG must converge");
    println!(
        "fault-free reference: converged=true iterations={} rel-residual={:.1e}",
        reference.iterations, reference.rel_residual
    );
    eprintln!("[timing] fault-free reference: {base_secs:.3}s");

    // Optional traced solve: everything it prints goes to stderr so the
    // CI determinism diff of stdout is unaffected.
    if let Some(path) = raa_bench::arg_value("--trace") {
        use raa_runtime::{chrome_trace_json, TraceConfig};
        let plan = FaultPlan::new(seed ^ 0x7ace)
            .panic_rate(0.05)
            .max_panics_per_task(2);
        let rt = Runtime::new(
            RuntimeConfig::with_workers(WORKERS)
                .retry(retry_policy())
                .fault_plan(plan)
                .record_graph(true)
                .tracing(TraceConfig::with_capacity(1 << 18)),
        );
        let res = cg_tasks(&rt, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS);
        let stats = rt.stats();
        let trace = rt.drain_trace().expect("tracing configured");
        let graph = rt.graph();
        std::fs::write(&path, chrome_trace_json(&trace, graph.as_ref()))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
        eprintln!(
            "[trace] wrote {path}: {} events ({} dropped), converged={}, \
             panics={} retries={} faults-in-trace={}",
            trace.len(),
            trace.dropped_total(),
            res.converged,
            stats.panicked,
            stats.retried,
            trace.count(raa_runtime::TraceEventKind::Fault),
        );
    }

    // ---------------------------------------------- 1. panic-rate sweep
    println!();
    println!("campaign 1 — injected panic-rate sweep (idempotent retry, 3 attempts):");
    println!(
        "{:>8} {:>10} {:>10} {:>9} {:>10}  retry histogram [attempts-used: count]",
        "rate", "survived", "panics", "retries", "max|dx|"
    );
    for (ri, &rate) in RATES.iter().enumerate() {
        let mut survived = 0usize;
        let mut panics = 0u64;
        let mut retries = 0u64;
        let mut hist = [0u64; raa_runtime::stats::RETRY_HIST_BUCKETS];
        let mut max_dev = 0.0f64;
        let mut secs = 0.0f64;
        for trial in 0..trials {
            let plan = FaultPlan::new(seed.wrapping_add((ri * 1_000 + trial) as u64))
                .panic_rate(rate)
                .max_panics_per_task(3);
            let rt = Runtime::new(
                RuntimeConfig::with_workers(WORKERS)
                    .retry(retry_policy())
                    .fault_plan(plan),
            );
            let t0 = Instant::now();
            let res = try_cg_tasks(&rt, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS);
            secs += t0.elapsed().as_secs_f64();
            let stats = rt.stats();
            match res {
                Ok(res) => {
                    assert!(res.converged, "a surviving run must converge");
                    survived += 1;
                    // Stats of *failed* runs depend on how far the host
                    // raced ahead of the first poisoned region, so only
                    // surviving runs feed the deterministic aggregates.
                    panics += stats.panicked;
                    retries += stats.retried;
                    for (h, s) in hist.iter_mut().zip(stats.retry_hist.iter()) {
                        *h += s;
                    }
                    for (got, want) in res.x.iter().zip(&reference.x) {
                        max_dev = max_dev.max((got - want).abs());
                    }
                }
                Err(report) => {
                    eprintln!(
                        "[detail] rate {rate:.2} trial {trial}: died with {} failure(s); first: {}",
                        report.len(),
                        report.failures[0]
                    );
                }
            }
        }
        let hist_cells: Vec<String> = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(attempts, c)| format!("{}:{c}", attempts + 1))
            .collect();
        println!(
            "{:>7.0}% {:>7}/{:<2} {:>10} {:>9} {:>10}  [{}]",
            rate * 100.0,
            survived,
            trials,
            panics,
            retries,
            if survived > 0 {
                format!("{max_dev:.1e}")
            } else {
                "-".into()
            },
            hist_cells.join(" ")
        );
        eprintln!(
            "[timing] rate {rate:.2}: mean {:.3}s/run, overhead vs fault-free {}",
            secs / trials as f64,
            fmt_pct(secs / trials as f64 / base_secs - 1.0)
        );
    }

    // ---------------------------------------------- 2. worker death
    println!();
    println!("campaign 2 — worker death (watchdog respawn / degraded pool):");
    {
        let plan = FaultPlan::new(seed).kill_worker(1, 40).kill_worker(2, 60);
        let rt = Runtime::new(
            RuntimeConfig::with_workers(WORKERS)
                .retry(retry_policy())
                .fault_plan(plan)
                .watchdog(WatchdogConfig::enabled()),
        );
        let t0 = Instant::now();
        let res = cg_tasks(&rt, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS);
        let secs = t0.elapsed().as_secs_f64();
        let stats = rt.stats();
        let mut max_dev = 0.0f64;
        for (got, want) in res.x.iter().zip(&reference.x) {
            max_dev = max_dev.max((got - want).abs());
        }
        println!(
            "  respawn : completed=true converged={} workers-recovered={} \
             solution-matches={} max|dx|={max_dev:.1e}",
            res.converged,
            stats.worker_deaths == stats.worker_respawns && stats.worker_deaths > 0,
            max_dev < 1e-9,
        );
        eprintln!(
            "[detail] respawn: deaths={} respawns={} wall={secs:.3}s",
            stats.worker_deaths, stats.worker_respawns
        );
    }
    {
        let plan = FaultPlan::new(seed).kill_worker(2, 40);
        let rt = Runtime::new(
            RuntimeConfig::with_workers(WORKERS)
                .retry(retry_policy())
                .fault_plan(plan)
                .watchdog(WatchdogConfig::enabled().respawn(false)),
        );
        let t0 = Instant::now();
        let res = cg_tasks(&rt, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS);
        let secs = t0.elapsed().as_secs_f64();
        let stats = rt.stats();
        println!(
            "  degrade : completed=true converged={} pool-degraded={} no-respawn={}",
            res.converged,
            rt.alive_workers() < rt.workers(),
            stats.worker_respawns == 0,
        );
        eprintln!(
            "[detail] degrade: deaths={} alive={}/{} wall={secs:.3}s",
            stats.worker_deaths,
            rt.alive_workers(),
            rt.workers()
        );
    }

    // ---------------------------------------------- 3. stall detection
    println!();
    println!("campaign 3 — stall detection (heartbeat watchdog):");
    {
        let plan = FaultPlan::new(seed).stall_rate(0.002, Duration::from_millis(60));
        let rt = Runtime::new(
            RuntimeConfig::with_workers(WORKERS)
                .retry(retry_policy())
                .fault_plan(plan)
                .watchdog(WatchdogConfig::enabled().stall_timeout(Duration::from_millis(10))),
        );
        let t0 = Instant::now();
        let res = cg_tasks(&rt, Arc::clone(&a), &b, BLOCKS, TOL, MAX_ITERS);
        let secs = t0.elapsed().as_secs_f64();
        let stats = rt.stats();
        println!(
            "  stalls  : completed=true converged={} stalls-detected={}",
            res.converged,
            stats.worker_stalls > 0,
        );
        eprintln!(
            "[detail] stalls: detected={} wall={secs:.3}s",
            stats.worker_stalls
        );
    }

    // ------------------------------------- 4. AFEIR + DUE under injection
    // The solver's algorithmic recovery (and the silent-corruption case
    // that must NOT trigger it) running while the runtime also panics
    // task attempts: recovery tasks are retried like any other task. The
    // panic cap (2) stays below the attempt budget (3), so injection
    // alone can never exhaust a retry — the combo isolates the
    // *interaction*, not attrition.
    println!();
    println!("campaign 4 — solver DUE/SDC machinery under runtime panic injection:");
    let due_iter = 15;
    let block = (n / 3)..(n / 3 + n / 8);
    let modes = [
        ("block-wipe DUE", FaultMode::BlockWipe),
        ("multi-bit DUE", FaultMode::MultiBitDue { words: 5 }),
        ("bit-flip SDC", FaultMode::BitFlip { bit: 51 }),
    ];
    for (label, mode) in modes {
        let fault = FaultSpec::new(due_iter, block.clone(), FaultTarget::X).mode(mode);
        let recovers = fault.mode.is_detected();
        let plan = FaultPlan::new(seed ^ 0x5eed)
            .panic_rate(0.02)
            .max_panics_per_task(2);
        let rt = Runtime::new(
            RuntimeConfig::with_workers(WORKERS)
                .retry(retry_policy())
                .fault_plan(plan),
        );
        let t0 = Instant::now();
        let res = cg_afeir_tasks(
            &rt,
            Arc::clone(&a),
            &b,
            fault,
            &AfeirTasksCfg {
                blocks: BLOCKS,
                tol: TOL,
                max_iters: MAX_ITERS,
                local_tol: 1e-13,
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        let stats = rt.stats();
        println!(
            "  {label:<15}: converged={} iterations={:<5} recovery-spawned={} \
             rel-residual={:.1e}",
            res.converged,
            res.iterations,
            recovers,
            rel_residual(&a, &b, &res.x),
        );
        eprintln!(
            "[detail] {label}: panics={} retries={} tasks={} wall={secs:.3}s",
            stats.panicked, stats.retried, res.tasks
        );
    }

    rule(86);
    println!("paper-vs-measured:");
    println!("  paper : §4 argues task-level recovery (FEIR/AFEIR) keeps DUE overhead near");
    println!("          zero because the runtime re-executes or reconstructs only lost work.");
    println!("  here  : injected panics are absorbed by idempotent retry until the attempt");
    println!("          budget is exhausted, dead workers respawn or degrade without losing");
    println!("          tasks, and algorithmic DUE recovery survives concurrent injection.");
}
