//! Trace-driven runtime introspection report.
//!
//! Runs the blocked-CG-shaped task graph ([`raa_bench::spawn_cg_shape`])
//! with tracing + TDG recording, then prints:
//!
//! * the aggregated [`MetricsReport`] (steal hit-rate, park ratio,
//!   injector overflow, per-queue residency, retry histogram),
//! * a per-worker event/slice summary, and
//! * the measured critical path replayed against the recorded TDG,
//!   compared with the bottom-level estimator's online predictions.
//!
//! What tracing costs is measured by `benchmark/` (`trace_overhead_frac`,
//! `trace.price_ns_per_task`), not here.
//!
//! Env: `RAA_BENCH_TASKS` (target tasks, default 20000),
//! `RAA_TRACE_WORKERS` (default 4). `--trace <path>` additionally writes
//! the Chrome-trace JSON (`devtools/trace-check.sh` validates it).
//! `--contention` appends the scheduler/memory
//! contention section: per-victim steal hit-rates, the share of ready
//! dispatches that crossed the shared injector (and how many of those
//! overflowed the ring), and the slab's remote-free ratio.
//!
//! **`--from-telemetry <file>`** skips the live run entirely and
//! reports from a Prometheus exposition captured by the telemetry plane
//! (a `serving_load --serve` publication or a chaos-campaign `--out`
//! artefact) — the trace pipeline and the telemetry pipeline meet in
//! one reporting tool.

use raa_bench::telemetry_text::{
    hist_quantile, parse_prometheus, sample_value, sample_value_labeled,
};
use raa_runtime::{
    chrome_trace_json, critical_path_attribution, MetricsReport, Runtime, RuntimeConfig,
    SchedulerPolicy, Topology, TraceConfig, TraceEventKind,
};

/// Offline report from a telemetry-plane Prometheus exposition.
fn report_from_telemetry(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let s = parse_prometheus(&text);
    let ms = |ns: f64| {
        if ns.is_infinite() {
            ">max".to_string()
        } else {
            format!("{:.3}ms", ns / 1e6)
        }
    };

    println!("trace_report — from telemetry exposition {path}");
    raa_bench::rule(72);
    println!(
        "runtime: {:.0}/{:.0} workers alive, snapshot at {:.1}s, {:.0} flight dumps",
        sample_value(&s, "raa_alive_workers"),
        sample_value(&s, "raa_workers"),
        sample_value(&s, "raa_snapshot_at_ns") / 1e9,
        sample_value(&s, "raa_flight_dumps_total"),
    );
    let spawned = sample_value(&s, "raa_tasks_spawned_total");
    println!(
        "tasks: {spawned:.0} spawned, {:.0} completed, {:.0} shed, {:.0} hedged, \
         {:.0} retried, {:.0} failed",
        sample_value(&s, "raa_tasks_completed_total"),
        sample_value(&s, "raa_tasks_shed_total"),
        sample_value(&s, "raa_tasks_hedged_total"),
        sample_value(&s, "raa_tasks_retried_total"),
        sample_value(&s, "raa_tasks_failed_total"),
    );
    let ok = sample_value(&s, "raa_steals_ok_total");
    let empty = sample_value(&s, "raa_steals_empty_total");
    let wakes = sample_value(&s, "raa_wakes_total");
    println!(
        "scheduler: steal hit-rate {:.1}% ({ok:.0} ok / {empty:.0} empty), \
         wakes/task {:.3}, {:.0} parks, {:.0} injector overflows",
        if ok + empty > 0.0 {
            100.0 * ok / (ok + empty)
        } else {
            0.0
        },
        if spawned > 0.0 { wakes / spawned } else { 0.0 },
        sample_value(&s, "raa_parks_total"),
        sample_value(&s, "raa_injector_overflow_total"),
    );
    let local = sample_value_labeled(&s, "raa_slab_frees_total", "kind", "local");
    let remote = sample_value_labeled(&s, "raa_slab_frees_total", "kind", "remote");
    println!(
        "memory: slab frees {local:.0} local / {remote:.0} remote (remote-free ratio {:.1}%)",
        if local + remote > 0.0 {
            100.0 * remote / (local + remote)
        } else {
            0.0
        },
    );
    println!("latency (log-bucket upper bounds):");
    for (label, name) in [
        ("queue delay", "raa_queue_delay_ns"),
        ("task body  ", "raa_body_ns"),
        ("job e2e    ", "raa_job_e2e_ns"),
    ] {
        println!(
            "  {label}  p50 {:>10}  p99 {:>10}  ({:.0} samples)",
            ms(hist_quantile(&s, name, 0.50)),
            ms(hist_quantile(&s, name, 0.99)),
            sample_value(&s, &format!("{name}_count")),
        );
    }
    let mut tenant_rows: Vec<(String, f64, f64, f64)> = s
        .iter()
        .filter(|x| x.name == "raa_tenant_completed_total")
        .filter_map(|x| {
            let job = x.label("job")?.to_string();
            let shed = sample_value_labeled(&s, "raa_tenant_shed_total", "job", &job);
            let p99 = sample_value_labeled(&s, "raa_tenant_body_p99_ns", "job", &job);
            Some((job, x.value, shed, p99))
        })
        .collect();
    tenant_rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    if !tenant_rows.is_empty() {
        println!("tenants:");
        for (job, completed, shed, p99) in &tenant_rows {
            println!(
                "  {job:<20} {completed:>8.0} completed {shed:>7.0} shed  body p99 {}",
                ms(*p99)
            );
        }
    }
}

fn main() {
    if let Some(path) = raa_bench::arg_value("--from-telemetry") {
        report_from_telemetry(&path);
        return;
    }
    let env_usize = |key, default: usize| raa_bench::env_u64(key, default as u64) as usize;
    let target = env_usize("RAA_BENCH_TASKS", 20_000);
    let workers = env_usize("RAA_TRACE_WORKERS", 4).max(1);
    // Cluster the pool for the per-cluster contention section:
    // `RAA_TRACE_CLUSTERS` (default 2 once the pool is big enough),
    // clamped down to the largest divisor of the worker count so the
    // topology tiles the pool exactly.
    let mut clusters =
        env_usize("RAA_TRACE_CLUSTERS", if workers >= 4 { 2 } else { 1 }).clamp(1, workers);
    while !workers.is_multiple_of(clusters) {
        clusters -= 1;
    }
    let topology = Topology::new(clusters, workers / clusters);
    let iters = (target / raa_bench::CG_TASKS_PER_ITER).max(1);

    println!(
        "trace_report — blocked-CG shape, {} tasks ({iters} iterations), {workers} workers \
         ({topology:?} topology)",
        iters * raa_bench::CG_TASKS_PER_ITER
    );
    raa_bench::rule(72);

    // Traced + recorded run: the subject of the report.
    let rt = Runtime::new(
        RuntimeConfig::with_workers(workers)
            .policy(SchedulerPolicy::WorkStealing)
            .topology(topology)
            .record_graph(true)
            .tracing(TraceConfig::with_capacity(raa_bench::trace_capacity_for(
                target,
            ))),
    );
    raa_bench::spawn_cg_shape(&rt, iters);
    rt.taskwait();
    let stats = rt.stats();
    let contention = rt.contention_report();
    let trace = rt.drain_trace().expect("tracing configured");
    let graph = rt.graph().expect("recording configured");

    println!("{}", MetricsReport::build(&trace, &stats));

    println!("per-worker activity:");
    for (t, track) in trace.tracks.iter().enumerate() {
        let name = if t == trace.workers {
            "external".to_string()
        } else {
            format!("worker-{t}")
        };
        let slices = track
            .iter()
            .filter(|e| e.kind == TraceEventKind::Complete)
            .count();
        let steals = track
            .iter()
            .filter(|e| e.kind == TraceEventKind::StealOk)
            .count();
        println!(
            "  {name:<9} {:>8} events, {slices:>7} tasks run, {steals:>6} steals",
            track.len()
        );
    }
    println!();

    match critical_path_attribution(&trace, &graph) {
        Some(report) => print!("{report}"),
        None => println!("no timed tasks in the trace — critical path unavailable"),
    }

    if std::env::args().any(|a| a == "--contention") {
        println!();
        println!("contention (traced run):");
        println!(
            "  injector: {} pushes / {} dispatches ({:.1}% of ready traffic), \
             {} ring overflows",
            contention.injector_pushes,
            contention.dispatches,
            contention.injector_share() * 100.0,
            contention.injector_overflow,
        );
        println!(
            "  slab frees: {} local, {} remote (remote-free ratio {:.1}%)",
            contention.slab_local_frees,
            contention.slab_remote_frees,
            contention.remote_free_ratio() * 100.0,
        );
        println!("  per-victim steals (hit = steal found work on that victim's deque):");
        for (v, s) in contention.per_victim.iter().enumerate() {
            println!(
                "    worker-{v:<3} {:>8} hits {:>8} misses  hit-rate {:>5.1}%",
                s.ok,
                s.empty,
                s.hit_rate() * 100.0
            );
        }
        println!("  per-cluster steals ({topology:?} topology; inter = balancer traffic):");
        for (c, s) in contention.per_cluster.iter().enumerate() {
            let share = if contention.dispatches > 0 {
                s.injector_pushes as f64 / contention.dispatches as f64
            } else {
                0.0
            };
            println!(
                "    cluster-{c:<2} intra {:>8} ok {:>8} empty ({:>5.1}%)  \
                 inter {:>6} ok {:>6} empty ({:>5.1}%)  \
                 migrated {:>6}  injector {:>7} pushes ({:>4.1}% of dispatches)",
                s.intra_ok,
                s.intra_empty,
                s.intra_hit_rate() * 100.0,
                s.inter_ok,
                s.inter_empty,
                s.inter_hit_rate() * 100.0,
                s.migrated,
                s.injector_pushes,
                share * 100.0,
            );
        }
    }

    if let Some(path) = raa_bench::arg_value("--trace") {
        let json = chrome_trace_json(&trace, Some(&graph));
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!();
        println!(
            "wrote Chrome trace to {path} ({} events, {} dropped)",
            trace.len(),
            trace.dropped_total()
        );
    }
}
