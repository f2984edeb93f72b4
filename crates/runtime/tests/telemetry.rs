//! Telemetry-plane integration tests through the public `Runtime`
//! façade: disabled-is-free, per-tenant snapshot correctness, export
//! well-formedness, histogram bucket properties, and flight-recorder
//! trigger determinism under a seeded fault plan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use raa_runtime::telemetry::bucket_bounds;
use raa_runtime::{
    prometheus_text, telemetry_json, FaultPlan, FlightReason, HistSnapshot, JobSpec, LogHistogram,
    QosClass, Runtime, RuntimeConfig, WatchdogConfig,
};

/// Minimal recursive-descent JSON well-formedness check (mirrors the
/// validator used by the export unit tests — no serde in this repo).
fn json_ok(s: &str) -> bool {
    fn skip_ws(b: &[u8], mut i: usize) -> usize {
        while i < b.len() && (b[i] as char).is_whitespace() {
            i += 1;
        }
        i
    }
    fn value(b: &[u8], i: usize) -> Option<usize> {
        let i = skip_ws(b, i);
        match *b.get(i)? {
            b'{' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b'}') {
                    return Some(i + 1);
                }
                loop {
                    i = string(b, skip_ws(b, i))?;
                    i = skip_ws(b, i);
                    if b.get(i) != Some(&b':') {
                        return None;
                    }
                    i = value(b, i + 1)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b'}' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'[' => {
                let mut i = skip_ws(b, i + 1);
                if b.get(i) == Some(&b']') {
                    return Some(i + 1);
                }
                loop {
                    i = value(b, i)?;
                    i = skip_ws(b, i);
                    match b.get(i)? {
                        b',' => i += 1,
                        b']' => return Some(i + 1),
                        _ => return None,
                    }
                }
            }
            b'"' => string(b, i),
            b't' => b[i..].starts_with(b"true").then_some(i + 4),
            b'f' => b[i..].starts_with(b"false").then_some(i + 5),
            b'n' => b[i..].starts_with(b"null").then_some(i + 4),
            _ => number(b, i),
        }
    }
    fn string(b: &[u8], i: usize) -> Option<usize> {
        if b.get(i) != Some(&b'"') {
            return None;
        }
        let mut i = i + 1;
        while i < b.len() {
            match b[i] {
                b'\\' => i += 2,
                b'"' => return Some(i + 1),
                _ => i += 1,
            }
        }
        None
    }
    fn number(b: &[u8], mut i: usize) -> Option<usize> {
        let start = i;
        if b.get(i) == Some(&b'-') {
            i += 1;
        }
        while i < b.len() && (b[i].is_ascii_digit() || b"+-.eE".contains(&b[i])) {
            i += 1;
        }
        (i > start).then_some(i)
    }
    let b = s.as_bytes();
    match value(b, 0) {
        Some(end) => skip_ws(b, end) == b.len(),
        None => false,
    }
}

/// Run a small job and return its handle's metrics plus runtime stats.
fn run_job(rt: &Runtime, label: &str, tasks: usize) -> raa_runtime::JobMetrics {
    let job = rt
        .submit(JobSpec::new(label).qos(QosClass::BestEffort))
        .expect("admission");
    let hits = Arc::new(AtomicU64::new(0));
    for i in 0..tasks {
        let hits = hits.clone();
        job.task(format!("t{i}"))
            .body(move || {
                // Burn a deterministic smidgen of time so body latency
                // lands in a nonzero histogram bucket.
                let mut acc = i as u64;
                for k in 0..2_000u64 {
                    acc = acc.wrapping_mul(0x9E37_79B9).wrapping_add(k);
                }
                std::hint::black_box(acc);
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .spawn();
    }
    job.try_join().expect("job succeeds");
    assert_eq!(hits.load(Ordering::Relaxed), tasks as u64);
    job.metrics()
}

#[test]
fn disabled_telemetry_is_free() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    assert!(!rt.telemetry_enabled());

    let m = run_job(&rt, "silent", 64);
    assert_eq!(m.completed, 64);

    // No plane, no sampler, no flight recorder: every telemetry surface
    // is empty and the quantile fields stay at their zero default.
    assert!(rt.telemetry_snapshot().is_none());
    assert!(rt.telemetry_deltas().is_empty());
    assert_eq!(rt.telemetry_anomalies(), 0);
    assert!(rt.take_flight_bundles().is_empty());
    assert_eq!(m.queue_delay_p50, Duration::ZERO);
    assert_eq!(m.queue_delay_p99, Duration::ZERO);
    assert_eq!(m.body_p50, Duration::ZERO);
    assert_eq!(m.body_p99, Duration::ZERO);
}

#[test]
fn enabled_telemetry_reports_per_tenant_breakdowns() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2).telemetry(true));
    assert!(rt.telemetry_enabled());

    // Keep the handle alive across the snapshot: dropping a settled
    // `JobHandle` retires the tenant from the job table.
    let job = rt
        .submit(JobSpec::new("tenant-a").qos(QosClass::BestEffort))
        .expect("admission");
    for i in 0..128 {
        job.task(format!("t{i}"))
            .body(move || {
                let mut acc = i as u64;
                for k in 0..2_000u64 {
                    acc = acc.wrapping_mul(0x9E37_79B9).wrapping_add(k);
                }
                std::hint::black_box(acc);
            })
            .spawn();
    }
    job.try_join().expect("job succeeds");
    let m = job.metrics();
    assert_eq!(m.completed, 128);
    // Histogram-backed quantiles are live: p99 bounds p50 above.
    assert!(m.body_p99 > Duration::ZERO, "body histogram recorded");
    assert!(m.body_p99 >= m.body_p50);
    assert!(m.queue_delay_p99 >= m.queue_delay_p50);

    let snap = rt.telemetry_snapshot().expect("plane is on");
    assert_eq!(snap.workers, 2);
    assert!(snap.alive_workers >= 1);
    assert!(snap.stats.completed >= 128);
    assert!(snap.body.count() >= 128, "global body histogram populated");

    let tenant = snap
        .tenants
        .iter()
        .find(|t| t.label == "tenant-a")
        .expect("tenant appears in the snapshot");
    assert_eq!(tenant.qos, QosClass::BestEffort);
    assert_eq!(tenant.metrics.completed, 128);
    assert_eq!(tenant.body.count(), 128);

    // Both exposition formats are well-formed and carry the tenant.
    let json = telemetry_json(&snap);
    assert!(json_ok(&json), "telemetry_json is valid JSON:\n{json}");
    assert!(json.contains("\"tenant-a\""));
    let prom = prometheus_text(&snap);
    assert!(prom.contains("raa_up 1"));
    assert!(prom.contains("raa_tasks_completed_total"));
    assert!(prom.contains("raa_tenant_completed_total{job=\"tenant-a\""));
    for line in prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let mut parts = line.rsplitn(2, ' ');
        let val = parts.next().unwrap();
        assert!(
            val.parse::<f64>().is_ok(),
            "prometheus sample value parses: {line}"
        );
    }
}

#[test]
fn sampler_emits_deltas_while_running() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2).telemetry(true));
    for round in 0..4 {
        let _ = run_job(&rt, &format!("wave{round}"), 32);
        std::thread::sleep(Duration::from_millis(8));
    }
    let deltas = rt.telemetry_deltas();
    assert!(!deltas.is_empty(), "sampler produced periodic deltas");
    let spawned: u64 = deltas.iter().map(|d| d.spawned).sum();
    assert!(spawned > 0, "deltas attribute spawned tasks");
    for pair in deltas.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "delta sequence is monotone");
    }
}

/// Flight-recorder trigger determinism: the same seeded fault plan
/// produces a worker-death bundle on every run, and the bundle's
/// artefacts are well-formed.
#[test]
fn worker_kill_dumps_a_flight_bundle_deterministically() {
    for run in 0..2 {
        let rt = Runtime::new(
            RuntimeConfig::with_workers(3)
                .telemetry(true)
                .fault_plan(FaultPlan::new(5).kill_worker(1, 20))
                .watchdog(WatchdogConfig::enabled().respawn(false)),
        );
        // Timed (not spin-count) bodies: the kill fires after worker 1
        // has executed 20 tasks, so the pool must stay busy long enough
        // for every worker to get well past that — the idiom
        // `fault_injection.rs` uses with this exact plan.
        let job = rt.submit(JobSpec::new("victim")).expect("admission");
        for i in 0..300 {
            job.task(format!("t{i}"))
                .body(|| std::thread::sleep(Duration::from_micros(20)))
                .spawn();
        }
        job.try_join()
            .expect("the dying worker drains its queue; no task is lost");
        let stats = rt.stats();
        assert_eq!(stats.worker_deaths, 1, "run {run}: plan fired once");

        // Wait for the sampler's first idle tick: an anomaly dump it
        // raises over the burst is then pending before the first take,
        // not between the two.
        let _ = rt.telemetry_deltas();
        while !rt.telemetry_deltas().iter().any(|d| d.completed == 0) {
            std::thread::sleep(Duration::from_millis(1));
        }
        let bundles = rt.take_flight_bundles();
        let death = bundles
            .iter()
            .find(|b| matches!(b.reason, FlightReason::WorkerDeath { .. }))
            .unwrap_or_else(|| panic!("run {run}: worker-death bundle present"));
        assert_eq!(death.reason, FlightReason::WorkerDeath { worker: 1 });
        assert!(death.events > 0, "run {run}: ring captured events");
        assert!(
            json_ok(&death.snapshot_json),
            "run {run}: snapshot JSON valid"
        );
        assert!(json_ok(&death.trace_json), "run {run}: trace JSON valid");
        assert!(
            death.contention.contains("injector share"),
            "run {run}: contention report rendered"
        );
        // Taking the bundles drains them.
        assert!(rt.take_flight_bundles().is_empty());
    }
}

#[test]
fn hardware_fault_and_drain_triggers_capture_dumps() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2).telemetry(true));
    let _ = run_job(&rt, "steady", 64);
    let h = rt.register("zone", vec![0u8; 16]);
    rt.poison_region(h.region(), "due@zone");
    let bundles = rt.take_flight_bundles();
    assert!(
        bundles
            .iter()
            .any(|b| matches!(&b.reason, FlightReason::HardwareFault { region } if region.contains("due@zone"))),
        "poison_region raises a hardware-fault dump"
    );
}

proptest! {
    /// Every recorded value lands in a bucket whose bounds contain it.
    #[test]
    fn histogram_buckets_contain_their_values(vals in proptest::collection::vec(any::<u64>(), 1..64)) {
        let h = LogHistogram::default();
        for &v in &vals {
            h.record(v);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count(), vals.len() as u64);
        for (i, &n) in snap.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (lo, hi) = bucket_bounds(i);
            let in_range = vals.iter().filter(|&&v| v >= lo && v <= hi).count() as u64;
            prop_assert_eq!(n, in_range, "bucket {} [{}, {}] holds exactly its values", i, lo, hi);
        }
        // Quantiles are bucket upper bounds: p50 <= p99 always.
        prop_assert!(snap.p50() <= snap.p99());
    }

    /// Merge is associative and commutative (elementwise addition).
    #[test]
    fn histogram_merge_is_associative(
        a in proptest::collection::vec(0u64..1 << 48, 0..32),
        b in proptest::collection::vec(0u64..1 << 48, 0..32),
        c in proptest::collection::vec(0u64..1 << 48, 0..32),
    ) {
        let snap = |vals: &[u64]| {
            let h = LogHistogram::default();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        let mut left = sa;
        left.merge(&sb);
        left.merge(&sc);
        let mut right_inner = sb;
        right_inner.merge(&sc);
        let mut right = sa;
        right.merge(&right_inner);
        prop_assert_eq!(left.buckets, right.buckets);
        prop_assert_eq!(left.sum, right.sum);
        let mut flipped = sb;
        flipped.merge(&sa);
        let mut ab = sa;
        ab.merge(&sb);
        prop_assert_eq!(ab.buckets, flipped.buckets);
        // since() inverts merge: (a ⊕ b) ∖ b == a.
        let mut diff = ab;
        diff = HistSnapshot::since(&diff, &sb);
        prop_assert_eq!(diff.buckets, sa.buckets);
        prop_assert_eq!(diff.count(), sa.count());
    }
}
