//! serving-load — seeded open-loop A/B chaos campaign for the overload
//! protections of the job runtime, plus a long-running serving demo.
//! (Serving latency is *measured* by `benchmark/`'s `serve_steady` and
//! `serve_overload` workloads; this binary is a test and a demo.)
//!
//! The campaign drives a Poisson arrival process (open loop: arrival
//! times are precomputed from the seed, a late runtime does not slow the
//! clients down) through a mixed job palette:
//!
//! * **critical** — Guaranteed single-task requests with a per-job
//!   deadline and a cost hint (1ms service); a few are *stragglers*
//!   whose first execution stalls far past the soft timeout, exercising
//!   hedged re-execution.
//! * **batch** — BestEffort single-task requests (3ms service) with a
//!   deadline the reaper enforces, offered at ~2x capacity.
//! * **batch-cg** — every 16th batch request is a blocked-CG-shaped
//!   dependency graph (49 tasks) instead of a single task, so the
//!   palette covers TDG-shaped requests, not just independent ones.
//!
//! **`--chaos`** runs that palette twice at ~2x overload with a
//! worker kill mid-load and two doomed tenants, and prints only
//! seed-deterministic booleans (CI diffs two runs):
//!
//! * phase **A** (protections on: adaptive shed controller, deadlines +
//!   reaper, soft-timeout hedging) must keep critical p99 within the
//!   SLO while best-effort work is shed, doomed tenants are reaped and
//!   stragglers are hedged;
//! * phase **B** (protections off, same seed and arrivals) must blow
//!   the same SLO — the protections, not luck, carry the contract.
//!
//! **`--chaos --telemetry`** additionally runs the campaign with the
//! live telemetry plane and flight recorder on, and appends
//! seed-deterministic `TELEMETRY(A/B)` boolean lines: the snapshot was
//! taken, tenants and latency histograms populated, the sampler emitted
//! deltas, and the injected worker kill produced a flight bundle. With
//! `--out <dir>` the snapshot JSON, Prometheus text, flight-bundle
//! Chrome trace and contention report are written per phase.
//!
//! **`--serve`** turns the binary into a long-running serving process
//! with three persistent tenants (interactive / batch / analytics)
//! under steady load, refreshing `telemetry.prom` + `telemetry.json`
//! in `--out <dir>` (default `target/telemetry`) every wave — the feed
//! `raa_top` renders live. `RAA_SERVE_SECS` bounds the run (0 = until
//! killed).
//!
//! Usage: `cargo run --release -p raa-bench --bin serving_load --
//! (--chaos [--telemetry] | --serve) [--out <dir>]`; with neither mode
//! flag it prints this usage and exits 2.
//! Env: `RAA_SCALE` (`test`|`small`|`standard`), `RAA_FAULT_SEED`
//! (default 42), `RAA_SERVE_SECS` (serve-mode duration, default 0).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raa_bench::{arg_value, env_u64, rule, scale_from_env, spawn_cg_shape};
use raa_runtime::{
    prometheus_text, telemetry_json, AdmissionError, FaultPlan, FlightBundle, FlightReason,
    JobSpec, QosClass, Runtime, RuntimeConfig, WatchdogConfig,
};
use raa_workloads::Scale;

const WORKERS: usize = 3;
/// Critical-tenant latency SLO asserted by the chaos campaign. The
/// protected phase measures p99 ~13-30ms (the EDF urgency bound:
/// critical deadline + hedge latency); the unprotected phase ~450ms.
/// The line sits between with margin for noisy shared CI runners.
const SLO: Duration = Duration::from_millis(75);
/// Mean inter-arrival gaps (Poisson processes).
const CRITICAL_GAP_NS: u64 = 2_500_000;
const BATCH_GAP_CHAOS_NS: u64 = 660_000;
/// Service times (the task bodies sleep).
const CRITICAL_SERVICE: Duration = Duration::from_millis(1);
const BATCH_SERVICE: Duration = Duration::from_millis(3);
/// Per-job deadlines when protections are on.
const CRITICAL_DEADLINE: Duration = Duration::from_millis(15);
const BATCH_DEADLINE: Duration = Duration::from_millis(25);
const DOOMED_DEADLINE: Duration = Duration::from_millis(10);
/// Adaptive shed controller budget (≈ one batch service time of
/// queueing — tighter and the controller sheds on scheduling noise at
/// every load level) and hedging soft timeout.
const SHED_BUDGET: Duration = Duration::from_millis(2);
const SOFT_TIMEOUT: Duration = Duration::from_millis(10);
/// Every 40th critical request stalls on its first execution.
const STRAGGLER_FIRST_RUN: Duration = Duration::from_millis(120);
/// Doomed tenants (chaos mode): head blocks past the job deadline.
const DOOMED_JOBS: usize = 2;
const DOOMED_HEAD: Duration = Duration::from_millis(30);

// ---------------------------------------------------------------- load

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One exponential inter-arrival gap, capped at 8x the mean so a
    /// single draw cannot park the whole arrival process.
    fn exp_gap(&mut self, mean_ns: u64) -> u64 {
        let g = (-(mean_ns as f64) * (1.0 - self.next_f64()).ln()) as u64;
        g.min(mean_ns * 8)
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Critical { straggler: bool },
    Batch,
    BatchCg,
}

#[derive(Clone, Copy)]
struct Arrival {
    at_ns: u64,
    kind: Kind,
    idx: usize,
}

/// Precompute the merged arrival schedule: `n_critical` critical
/// requests at the fixed critical rate, batch requests at `batch_gap_ns`
/// filling the same window. Fully determined by the seed.
fn schedule(seed: u64, n_critical: usize, batch_gap_ns: u64) -> Vec<Arrival> {
    let mut rng = SplitMix64(seed);
    let mut arrivals = Vec::new();
    let mut t = 0u64;
    for i in 0..n_critical {
        t += rng.exp_gap(CRITICAL_GAP_NS);
        arrivals.push(Arrival {
            at_ns: t,
            kind: Kind::Critical {
                straggler: i % 40 == 20,
            },
            idx: i,
        });
    }
    let window = t;
    let mut t = 0u64;
    let mut i = 0;
    loop {
        t += rng.exp_gap(batch_gap_ns);
        if t >= window {
            break;
        }
        let kind = if i % 16 == 3 {
            Kind::BatchCg
        } else {
            Kind::Batch
        };
        arrivals.push(Arrival {
            at_ns: t,
            kind,
            idx: i,
        });
        i += 1;
    }
    arrivals.sort_by_key(|a| a.at_ns);
    arrivals
}

// --------------------------------------------------------------- phase

struct PhaseResult {
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    goodput_rps: f64,
    shed: usize,
    offered_batch: usize,
    critical_ok: bool,
    doomed_reaped: usize,
    hedged: u64,
    worker_deaths: u64,
    worker_respawns: u64,
    drain_clean: bool,
    drain_bounded: bool,
    telem: Option<TelemetryObs>,
}

/// What the telemetry plane observed during a phase, captured while
/// every tenant handle is still live (dropping a settled handle retires
/// the tenant from the snapshot).
struct TelemetryObs {
    snapshot_json: String,
    prom: String,
    tenants: usize,
    queue_delay_samples: u64,
    body_samples: u64,
    deltas: usize,
    kill_bundle: Option<FlightBundle>,
}

fn pct(sorted_ns: &[u64], q: f64) -> f64 {
    let idx = ((sorted_ns.len() as f64 - 1.0) * q).round() as usize;
    sorted_ns[idx.min(sorted_ns.len() - 1)] as f64 / 1e6
}

/// Run one phase of the campaign: drive the precomputed arrivals through
/// a fresh runtime, join the critical tenant, settle the doomed tenants,
/// drain, and fold the outcome into a [`PhaseResult`].
///
/// `protect` switches the serving stack (shed controller, deadlines +
/// reaper, hedging) on or off; the worker-kill plan and the doomed
/// tenants are there in both phases.
fn run_phase(
    protect: bool,
    telemetry: bool,
    seed: u64,
    arrivals: &[Arrival],
    n_critical: usize,
) -> PhaseResult {
    let mut config = RuntimeConfig::with_workers(WORKERS)
        .telemetry(telemetry)
        .fault_plan(FaultPlan::new(seed).kill_worker(1, 40))
        .watchdog(WatchdogConfig::enabled().interval(Duration::from_millis(2)));
    if protect {
        config = config
            .shed_delay_budget(SHED_BUDGET)
            .soft_timeout(SOFT_TIMEOUT);
    }
    let rt = Runtime::new(config);

    // Doomed tenants go in before the load window: the controller's EWMA
    // starts at zero, so their admission cannot be shed. Each holds a
    // worker past its own deadline with a queued dependent behind it —
    // the reaper must cancel the job and record the dependent as a skip.
    let doomed: Vec<_> = (0..DOOMED_JOBS)
        .map(|d| {
            let mut spec = JobSpec::new(format!("doomed{d}")).qos(QosClass::BestEffort);
            if protect {
                spec = spec.deadline(DOOMED_DEADLINE);
            }
            let job = rt.submit(spec).expect("runtime is running");
            let data = job.register("d", 0u64);
            {
                let h = data.clone();
                job.task("head")
                    .updates(&data)
                    .idempotent(move || {
                        std::thread::sleep(DOOMED_HEAD);
                        *h.write() += 1;
                    })
                    .spawn();
            }
            let h = data.clone();
            job.task("tail")
                .updates(&data)
                .idempotent(move || *h.write() += 1)
                .spawn();
            job
        })
        .collect();

    let lat: Arc<Vec<AtomicU64>> =
        Arc::new((0..n_critical).map(|_| AtomicU64::new(u64::MAX)).collect());
    let mut critical_jobs = Vec::with_capacity(n_critical);
    let mut batch_jobs = Vec::new();
    let mut offered_batch = 0usize;
    let start = Instant::now();

    for a in arrivals {
        let target = start + Duration::from_nanos(a.at_ns);
        let now = Instant::now();
        if now < target {
            std::thread::sleep(target - now);
        }
        match a.kind {
            Kind::Critical { straggler } => {
                let mut spec = JobSpec::new(format!("crit{}", a.idx));
                if protect {
                    spec = spec
                        .deadline(CRITICAL_DEADLINE)
                        .cost_hint(CRITICAL_SERVICE.as_nanos() as u64);
                }
                let job = rt.submit(spec).expect("runtime is running");
                let lat = Arc::clone(&lat);
                let (idx, at_ns) = (a.idx, a.at_ns);
                let runs = Arc::new(AtomicU64::new(0));
                let admitted = job
                    .task("req")
                    .idempotent(move || {
                        let service = if straggler && runs.fetch_add(1, Ordering::SeqCst) == 0 {
                            STRAGGLER_FIRST_RUN
                        } else {
                            CRITICAL_SERVICE
                        };
                        std::thread::sleep(service);
                        let done = start.elapsed().as_nanos() as u64;
                        // fetch_min: when a hedge duplicate wins the
                        // race, the straggling original must not
                        // overwrite the request's real latency.
                        lat[idx].fetch_min(done.saturating_sub(at_ns), Ordering::SeqCst);
                    })
                    .try_spawn();
                assert!(admitted.is_ok(), "critical admission failed: {admitted:?}");
                critical_jobs.push(job);
            }
            Kind::Batch => {
                offered_batch += 1;
                let mut spec = JobSpec::new(format!("batch{}", a.idx)).qos(QosClass::BestEffort);
                if protect {
                    spec = spec.deadline(BATCH_DEADLINE);
                }
                let job = rt.submit(spec).expect("runtime is running");
                match job
                    .task("req")
                    .idempotent(|| std::thread::sleep(BATCH_SERVICE))
                    .try_spawn()
                {
                    // Sheds are tallied from the job metrics below, with
                    // the whole-graph sheds of the cg palette.
                    Ok(_) | Err(AdmissionError::Shed) => {}
                    Err(e) => panic!("unexpected batch refusal: {e:?}"),
                }
                batch_jobs.push(job);
            }
            Kind::BatchCg => {
                offered_batch += 1;
                let mut spec = JobSpec::new(format!("cg{}", a.idx)).qos(QosClass::BestEffort);
                if protect {
                    spec = spec.deadline(BATCH_DEADLINE);
                }
                let job = rt.submit(spec).expect("runtime is running");
                // Blocking spawns: under shedding these are silently
                // discarded per task; a fully shed graph shows up as
                // spawned == 0 below.
                spawn_cg_shape(&job, 1);
                batch_jobs.push(job);
            }
        }
    }
    let window_secs = arrivals.last().expect("non-empty schedule").at_ns as f64 / 1e9;

    // Settle the critical tenant first — its latency is the product.
    let mut critical_ok = true;
    for job in &critical_jobs {
        critical_ok &= matches!(job.join_timeout(Duration::from_secs(30)), Some(Ok(())));
    }
    let mut lats: Vec<u64> = lat.iter().map(|l| l.load(Ordering::SeqCst)).collect();
    critical_ok &= !lats.contains(&u64::MAX);
    lats.sort_unstable();

    // Doomed tenants: reaped (cancelled skips) when protections are on,
    // plain completions when they are off.
    let mut doomed_reaped = 0usize;
    for job in &doomed {
        let reaped = matches!(
            job.join_timeout(Duration::from_secs(30)),
            Some(Err(ref report)) if report.cancelled().count() >= 1
        );
        if reaped && job.metrics().deadline_missed {
            doomed_reaped += 1;
        }
    }

    // Batch accounting over the per-job serving metrics.
    let mut completed_batch = 0usize;
    let mut fully_shed = 0usize;
    for job in &batch_jobs {
        let m = job.metrics();
        if m.spawned == 0 && m.shed > 0 {
            fully_shed += 1;
        } else if m.spawned > 0 && m.completed == m.spawned && m.failed == 0 {
            completed_batch += 1;
        }
    }

    // Telemetry is observed before drain, while the critical, batch and
    // doomed handles are all still alive and therefore in the snapshot.
    let telem = telemetry.then(|| {
        let snap = rt.telemetry_snapshot().expect("telemetry is enabled");
        let bundles = rt.take_flight_bundles();
        TelemetryObs {
            snapshot_json: telemetry_json(&snap),
            prom: prometheus_text(&snap),
            tenants: snap.tenants.len(),
            queue_delay_samples: snap.queue_delay.count(),
            body_samples: snap.body.count(),
            deltas: rt.telemetry_deltas().len(),
            kill_bundle: bundles
                .into_iter()
                .find(|b| matches!(b.reason, FlightReason::WorkerDeath { .. })),
        }
    });

    let timeout = Duration::from_secs(10);
    let t0 = Instant::now();
    let drain = rt.drain(timeout);
    let drain_bounded = t0.elapsed() <= timeout + Duration::from_millis(500);
    let stats = rt.stats();

    PhaseResult {
        p50_ms: pct(&lats, 0.50),
        p99_ms: pct(&lats, 0.99),
        p999_ms: pct(&lats, 0.999),
        goodput_rps: (n_critical + completed_batch) as f64 / window_secs,
        shed: fully_shed,
        offered_batch,
        critical_ok,
        doomed_reaped,
        hedged: stats.tasks_hedged,
        worker_deaths: stats.worker_deaths,
        worker_respawns: stats.worker_respawns,
        drain_clean: drain.clean(),
        drain_bounded,
        telem,
    }
}

// ---------------------------------------------------------------- main

/// Deterministic boolean summary of one phase's telemetry observation,
/// plus the artefact files when `--out <dir>` was given. CI diffs two
/// campaign runs, so every printed value must be seed-stable.
fn report_telemetry(phase: &str, obs: &TelemetryObs) {
    println!(
        "TELEMETRY({phase})  : snapshot-taken={} tenants-observed={} queue-delay-recorded={} \
         body-recorded={} deltas-emitted={} flight-on-worker-kill={} bundle-artifacts-valid={}",
        !obs.snapshot_json.is_empty(),
        obs.tenants > 0,
        obs.queue_delay_samples > 0,
        obs.body_samples > 0,
        obs.deltas > 0,
        obs.kill_bundle.is_some(),
        obs.kill_bundle.as_ref().is_some_and(|b| {
            b.events > 0
                && b.snapshot_json.starts_with('{')
                && b.trace_json.starts_with('{')
                && b.contention.contains("injector share")
        }),
    );
    if let Some(dir) = arg_value("--out") {
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {dir}: {e}"));
        let write = |name: &str, body: &str| {
            let path = format!("{dir}/{phase}-{name}");
            std::fs::write(&path, body).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        };
        write("snapshot.json", &obs.snapshot_json);
        write("telemetry.prom", &obs.prom);
        if let Some(b) = &obs.kill_bundle {
            write("flight-worker-death.trace.json", &b.trace_json);
            write("flight-worker-death.snapshot.json", &b.snapshot_json);
            write("flight-worker-death.contention.txt", &b.contention);
        }
    }
}

fn chaos_campaign(seed: u64, n_critical: usize, telemetry: bool) {
    let arrivals = schedule(seed, n_critical, BATCH_GAP_CHAOS_NS);
    let offered_batch = arrivals
        .iter()
        .filter(|a| !matches!(a.kind, Kind::Critical { .. }))
        .count();
    println!(
        "serving-chaos — open-loop A/B campaign: {n_critical} critical + {offered_batch} \
         best-effort requests, {WORKERS} workers, seed {seed}, 1 worker kill, \
         {DOOMED_JOBS} doomed tenants, SLO p99 <= {}ms",
        SLO.as_millis()
    );
    rule(86);

    let a = run_phase(true, telemetry, seed, &arrivals, n_critical);
    eprintln!(
        "[detail] A: p50={:.2}ms p99={:.2}ms p999={:.2}ms goodput={:.0}rps shed={}/{} \
         missed-doomed={} hedged={} deaths={} respawns={}",
        a.p50_ms,
        a.p99_ms,
        a.p999_ms,
        a.goodput_rps,
        a.shed,
        a.offered_batch,
        a.doomed_reaped,
        a.hedged,
        a.worker_deaths,
        a.worker_respawns,
    );
    println!(
        "A(protect=on) : critical-ok={} critical-p99-within-slo={} best-effort-shed={} \
         deadline-misses-reaped={} stragglers-hedged={} worker-killed={} respawn-bounded={} \
         drain-clean={} drain-bounded={}",
        a.critical_ok,
        a.p99_ms <= SLO.as_millis() as f64,
        a.shed >= 1,
        a.doomed_reaped == DOOMED_JOBS,
        a.hedged >= 1,
        a.worker_deaths >= 1,
        a.worker_respawns <= a.worker_deaths,
        a.drain_clean,
        a.drain_bounded,
    );

    let b = run_phase(false, telemetry, seed, &arrivals, n_critical);
    eprintln!(
        "[detail] B: p50={:.2}ms p99={:.2}ms p999={:.2}ms goodput={:.0}rps shed={}/{} \
         hedged={} deaths={}",
        b.p50_ms,
        b.p99_ms,
        b.p999_ms,
        b.goodput_rps,
        b.shed,
        b.offered_batch,
        b.hedged,
        b.worker_deaths,
    );
    println!(
        "B(protect=off): critical-ok={} critical-p99-within-slo={} best-effort-shed={} \
         deadline-misses-reaped={} stragglers-hedged={} worker-killed={} drain-bounded={}",
        b.critical_ok,
        b.p99_ms <= SLO.as_millis() as f64,
        b.shed >= 1,
        b.doomed_reaped >= 1,
        b.hedged >= 1,
        b.worker_deaths >= 1,
        b.drain_bounded,
    );
    println!(
        "delta         : protection-lowers-critical-p99={}",
        a.p99_ms < b.p99_ms
    );
    if let (Some(oa), Some(ob)) = (&a.telem, &b.telem) {
        report_telemetry("A", oa);
        report_telemetry("B", ob);
    }
    rule(86);
    println!("contract:");
    println!("  slo      : with the serving stack on, the critical tenant's p99 holds under");
    println!("             ~2x overload, a worker kill, stalled stragglers and doomed tenants;");
    println!("             the same offered load without it blows the same SLO.");
    println!("  pressure : overload lands on best-effort admissions (shed, reaped), never on");
    println!("             guaranteed completions; stragglers are hedged, not waited out.");

    // The campaign is also a test: fail loudly, not just in the text.
    assert!(a.critical_ok && b.critical_ok, "critical tenant failed");
    assert!(
        a.p99_ms <= SLO.as_millis() as f64,
        "protected p99 {:.2}ms blew the {}ms SLO",
        a.p99_ms,
        SLO.as_millis()
    );
    assert!(
        b.p99_ms > SLO.as_millis() as f64,
        "unprotected p99 {:.2}ms met the SLO — the campaign is not stressing anything",
        b.p99_ms
    );
    assert!(a.shed >= 1 && b.shed == 0, "shed controller A/B mismatch");
    assert_eq!(
        a.doomed_reaped, DOOMED_JOBS,
        "reaper missed a doomed tenant"
    );
    assert!(a.hedged >= 1 && b.hedged == 0, "hedging A/B mismatch");
    assert!(a.worker_deaths >= 1, "the kill plan never fired");
    for (phase, r) in [("A", &a), ("B", &b)] {
        if let Some(obs) = &r.telem {
            assert!(
                obs.kill_bundle.is_some(),
                "{phase}: worker kill produced no flight bundle"
            );
            assert!(
                obs.tenants > 0 && obs.deltas > 0 && obs.body_samples > 0,
                "{phase}: telemetry plane observed nothing"
            );
        }
    }
}

/// Long-running serving process: three persistent tenants under steady
/// load, telemetry exposition refreshed on every wave for `raa_top`.
fn serve(seed: u64) {
    let dir = arg_value("--out").unwrap_or_else(|| "target/telemetry".into());
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("mkdir {dir}: {e}"));
    let secs = env_u64("RAA_SERVE_SECS", 0);
    let rt = Runtime::new(
        RuntimeConfig::with_workers(WORKERS)
            .shed_delay_budget(SHED_BUDGET)
            .soft_timeout(SOFT_TIMEOUT)
            .watchdog(WatchdogConfig::enabled())
            .telemetry(true),
    );
    // Persistent tenants: handles stay alive for the whole run, so the
    // snapshot's per-tenant breakdowns accumulate across waves.
    let interactive = rt
        .submit(JobSpec::new("interactive").cost_hint(CRITICAL_SERVICE.as_nanos() as u64))
        .expect("admission");
    let batch = rt
        .submit(JobSpec::new("batch").qos(QosClass::BestEffort))
        .expect("admission");
    let analytics = rt
        .submit(JobSpec::new("analytics").qos(QosClass::BestEffort))
        .expect("admission");

    println!(
        "serving_load --serve: {WORKERS} workers, tenants interactive/batch/analytics, \
         exposition at {dir}/telemetry.{{prom,json}}{}",
        if secs == 0 {
            " — run until killed".to_string()
        } else {
            format!(" for {secs}s")
        }
    );

    // tmp + rename: `raa_top` polls the file and must never read a
    // half-written exposition.
    let publish = |name: &str, body: &str| {
        let tmp = format!("{dir}/.{name}.tmp");
        let dst = format!("{dir}/{name}");
        if std::fs::write(&tmp, body).is_ok() {
            let _ = std::fs::rename(&tmp, &dst);
        }
    };

    let mut rng = SplitMix64(seed);
    let started = Instant::now();
    let mut wave = 0u64;
    loop {
        wave += 1;
        for _ in 0..4 {
            interactive
                .task("req")
                .idempotent(|| std::thread::sleep(CRITICAL_SERVICE))
                .spawn();
        }
        for _ in 0..4 {
            match batch
                .task("req")
                .idempotent(|| std::thread::sleep(BATCH_SERVICE))
                .try_spawn()
            {
                Ok(_) | Err(AdmissionError::Shed) => {}
                Err(e) => panic!("unexpected batch refusal: {e:?}"),
            }
        }
        if wave.is_multiple_of(8) {
            spawn_cg_shape(&analytics, 1);
        }
        // Jittered pacing keeps the load noisy enough that the sampler
        // and shed controller have something to watch.
        std::thread::sleep(Duration::from_millis(15 + rng.next_u64() % 30));

        if let Some(snap) = rt.telemetry_snapshot() {
            publish("telemetry.prom", &prometheus_text(&snap));
            publish("telemetry.json", &telemetry_json(&snap));
        }
        for (i, b) in rt.take_flight_bundles().into_iter().enumerate() {
            publish(
                &format!("flight-{wave}-{i}-{}.trace.json", b.reason.label()),
                &b.trace_json,
            );
        }
        if secs > 0 && started.elapsed() >= Duration::from_secs(secs) {
            break;
        }
    }

    // Final publication happens while the tenant handles are still
    // alive — dropping a settled handle retires its tenant from the
    // snapshot, and the last frame should still show the fleet.
    let drain = rt.drain(Duration::from_secs(10));
    if let Some(snap) = rt.telemetry_snapshot() {
        publish("telemetry.prom", &prometheus_text(&snap));
        publish("telemetry.json", &telemetry_json(&snap));
    }
    drop((interactive, batch, analytics));
    println!(
        "serve: {wave} waves in {:.1}s, drain clean={}",
        started.elapsed().as_secs_f64(),
        drain.clean()
    );
}

fn main() {
    let seed = env_u64("RAA_FAULT_SEED", 42);
    let n_critical = match scale_from_env() {
        Scale::Test => 160,
        Scale::Small => 240,
        Scale::Standard => 320,
    };
    let has = |flag: &str| std::env::args().any(|a| a == flag);
    if has("--serve") {
        serve(seed);
    } else if has("--chaos") {
        chaos_campaign(seed, n_critical, has("--telemetry"));
    } else {
        eprintln!(
            "usage: serving_load (--chaos [--telemetry] | --serve) [--out <dir>]\n\
             serving latency is measured by benchmark/run.sh (serve_steady, serve_overload)"
        );
        std::process::exit(2);
    }
}
