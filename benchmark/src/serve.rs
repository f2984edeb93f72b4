//! The two open-loop serving workloads: a seeded Poisson schedule of
//! critical and batch requests offered to a two-worker runtime whether or
//! not it keeps up — `serve_steady` below the knee, `serve_overload`
//! above it.
//!
//! Every request is one `submit(JobSpec)` plus one `try_spawn` (a
//! `spawn_many` for the cg-shaped batch requests) and is timed from the
//! instant it was *due*, not sent: a stalled generator delays the
//! requests behind it and that wait is theirs. One thread generates the
//! load and, between arrivals, joins and drops the handles of finished
//! requests.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering::SeqCst};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raa_runtime::region::Access;
use raa_runtime::{
    AdmissionError, BatchTask, JobHandle, JobSpec, QosClass, Runtime, RuntimeConfig,
    TelemetrySnapshot,
};

use crate::probes;
use crate::report::Ledger;
use crate::rng::SplitMix64;
use crate::spans::{Spans, NONE};
use crate::summary::{dist, median, percentile, ratio, windowed_percentile};
use crate::tasks::{cg_shape, counters, put_counter_metrics, Counters, Kind, Regions, Sink};
use crate::Ctx;

const WORKERS: usize = 2;
const CRIT_RPS: f64 = 500.0;
pub const STEADY_BATCH_RPS: f64 = 200.0;
pub const OVERLOAD_BATCH_RPS: f64 = 700.0;
/// Bodies sleep: per-task hot-path cost (µs) is invisible behind them,
/// which is the point of these workloads.
const CRIT_BODY: Duration = Duration::from_millis(1);
const BATCH_BODY: Duration = Duration::from_millis(3);
const CRIT_DEADLINE: Duration = Duration::from_millis(15);
const BATCH_DEADLINE: Duration = Duration::from_millis(25);
const SHED_BUDGET: Duration = Duration::from_millis(4);
pub const SOFT_TIMEOUT: Duration = Duration::from_millis(10);
/// Every 16th batch request is one cg-shaped iteration (49 tasks).
const CG_EVERY: u64 = 16;
const CG_TASKS: u32 = 49;
/// Warm-up: the first stretch of the schedule (about 50 critical and 20
/// to 70 batch requests), offered like the rest and left out of every
/// number. Bounded by schedule time, not by count, so that `setup_s`
/// measures the set-up and not the seed's arrival draw; short, so that
/// `Runtime::new` and first-use costs are a visible share of it.
const WARMUP: Duration = Duration::from_millis(100);
/// Percentiles are taken per window of this length and the median over
/// windows reported. On the reference host a whole-run p99 swung 5.5 →
/// 408 ms between runs: one 50-300 ms host stall owns the tail. 1 s
/// windows beat 2 s windows because a stall spoils one window of many.
const WINDOW: Duration = Duration::from_secs(1);

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Class {
    Critical,
    Batch,
    BatchCg,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_ns: u64,
    pub class: Class,
}

impl Class {
    fn deadline(self) -> Duration {
        match self {
            Class::Critical => CRIT_DEADLINE,
            Class::Batch | Class::BatchCg => BATCH_DEADLINE,
        }
    }
}

/// The merged arrival schedule up to `horizon_ns`: a Poisson stream of
/// critical requests and one of batch requests, fixed by the seed.
pub fn schedule(seed: u64, batch_rps: f64, horizon_ns: u64) -> Vec<Arrival> {
    let mut rng = SplitMix64::new(seed);
    let mut arrivals = Vec::new();
    let mut stream = |rps: f64, class_of: &dyn Fn(u64) -> Class| {
        let (mut t, mut i) = (0u64, 0u64);
        loop {
            t += rng.exp_gap(1e9 / rps);
            if t >= horizon_ns {
                break;
            }
            arrivals.push(Arrival {
                due_ns: t,
                class: class_of(i),
            });
            i += 1;
        }
    };
    stream(CRIT_RPS, &|_| Class::Critical);
    stream(batch_rps, &|i| {
        if i % CG_EVERY == 3 {
            Class::BatchCg
        } else {
            Class::Batch
        }
    });
    arrivals.sort_by_key(|a| a.due_ns);
    arrivals
}

/// What the worker side stamps on a request.
struct Mark {
    /// First body start / last body end, ns since the origin.
    start_ns: AtomicU64,
    done_ns: AtomicU64,
    /// Bodies of a cg-shaped request that have run.
    bodies: AtomicU32,
}

struct Shared {
    origin: Instant,
    marks: Vec<Mark>,
}

impl Shared {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// How a request ended. Every offered request ends as exactly one.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Fate {
    Pending,
    InDeadline,
    /// Finished after its deadline, or reaped at it.
    Late,
    Shed,
    /// Refused, errored or never finished: a hard failure.
    Failed,
}

/// What the generator side stamps on a request.
#[derive(Clone, Copy)]
struct Sent {
    sent_ns: u64,
    submitted_ns: u64,
    spawned_ns: u64,
    settle: (u64, u64),
    fate: Fate,
}

struct CgSink {
    shared: Arc<Shared>,
    idx: usize,
    batch: Vec<BatchTask>,
}

impl Sink for CgSink {
    fn task(&mut self, _shape: usize, _kind: Kind, accesses: &[Access]) {
        let (shared, idx) = (Arc::clone(&self.shared), self.idx);
        let mut t = BatchTask::new("cg");
        for a in accesses {
            t = t.region(a.region, a.mode);
        }
        self.batch.push(t.body(move || {
            let m = &shared.marks[idx];
            m.start_ns.fetch_min(shared.now(), SeqCst);
            if m.bodies.fetch_add(1, SeqCst) + 1 == CG_TASKS {
                m.done_ns.fetch_min(shared.now(), SeqCst);
            }
        }));
    }

    fn flush(&mut self) {}
}

struct Driver<'rt> {
    rt: &'rt Runtime,
    arrivals: &'rt [Arrival],
    shared: Arc<Shared>,
    sent: Vec<Sent>,
    pending: VecDeque<(usize, JobHandle<'rt>)>,
    next: usize,
}

impl<'rt> Driver<'rt> {
    fn new(rt: &'rt Runtime, arrivals: &'rt [Arrival]) -> Self {
        let mark = |_| Mark {
            start_ns: AtomicU64::new(u64::MAX),
            done_ns: AtomicU64::new(u64::MAX),
            bodies: AtomicU32::new(0),
        };
        let blank = Sent {
            sent_ns: 0,
            submitted_ns: 0,
            spawned_ns: 0,
            settle: (0, 0),
            fate: Fate::Pending,
        };
        Driver {
            rt,
            arrivals,
            shared: Arc::new(Shared {
                origin: Instant::now(),
                marks: (0..arrivals.len()).map(mark).collect(),
            }),
            sent: vec![blank; arrivals.len()],
            pending: VecDeque::new(),
            next: 0,
        }
    }

    /// Offer arrivals `next..upto`, each at its due time.
    fn offer(&mut self, upto: usize) {
        while self.next < upto {
            let idx = self.next;
            self.next += 1;
            let a = self.arrivals[idx];
            let due = self.shared.origin + Duration::from_nanos(a.due_ns);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            self.send(idx, a.class);
            self.reap();
        }
    }

    fn send(&mut self, idx: usize, class: Class) {
        let spec = match class {
            Class::Critical => JobSpec::new("crit")
                .deadline(CRIT_DEADLINE)
                .cost_hint(CRIT_BODY.as_nanos() as u64),
            Class::Batch | Class::BatchCg => JobSpec::new("batch")
                .qos(QosClass::BestEffort)
                .deadline(BATCH_DEADLINE),
        };
        let sent_ns = self.shared.now();
        let job = self.rt.submit(spec);
        let submitted_ns = self.shared.now();
        let admitted = job.map(|job| {
            let admitted = match class {
                Class::BatchCg => {
                    let mut sink = CgSink {
                        shared: Arc::clone(&self.shared),
                        idx,
                        batch: Vec::with_capacity(CG_TASKS as usize),
                    };
                    cg_shape(&Regions::fresh(), 1, &mut sink);
                    job.spawn_many(sink.batch);
                    // A shed batch is discarded whole.
                    if job.metrics().spawned == 0 {
                        Err(AdmissionError::Shed)
                    } else {
                        Ok(())
                    }
                }
                Class::Critical | Class::Batch => {
                    let shared = Arc::clone(&self.shared);
                    let service = if class == Class::Critical {
                        CRIT_BODY
                    } else {
                        BATCH_BODY
                    };
                    job.task("req")
                        .idempotent(move || {
                            let m = &shared.marks[idx];
                            m.start_ns.fetch_min(shared.now(), SeqCst);
                            std::thread::sleep(service);
                            // fetch_min: when a hedged duplicate wins,
                            // the straggler must not overwrite the answer.
                            m.done_ns.fetch_min(shared.now(), SeqCst);
                        })
                        .try_spawn()
                        .map(drop)
                }
            };
            (job, admitted)
        });
        let s = &mut self.sent[idx];
        (s.sent_ns, s.submitted_ns, s.spawned_ns) = (sent_ns, submitted_ns, self.shared.now());
        match admitted {
            Ok((job, Ok(()))) => self.pending.push_back((idx, job)),
            Ok((_, Err(AdmissionError::Shed))) if class != Class::Critical => s.fate = Fate::Shed,
            _ => s.fate = Fate::Failed,
        }
    }

    /// Join and drop every handle whose request has finished.
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].1.in_flight() == 0 {
                let (idx, job) = self.pending.swap_remove_back(i).expect("index is in range");
                self.settle(idx, job, false);
            } else {
                i += 1;
            }
        }
    }

    /// Join the request's job, drop its handle and record how it ended.
    /// With `wait` the join blocks (bounded); a request that still does
    /// not finish is a failure.
    fn settle(&mut self, idx: usize, job: JobHandle<'rt>, wait: bool) {
        let s0 = self.shared.now();
        let joined = if wait {
            job.join_timeout(Duration::from_secs(10))
        } else {
            Some(job.try_join())
        };
        let reaped = job.metrics().deadline_missed;
        drop(job);
        let s1 = self.shared.now();
        let a = self.arrivals[idx];
        let done = self.shared.marks[idx].done_ns.load(SeqCst);
        let s = &mut self.sent[idx];
        s.settle = if wait { (0, 0) } else { (s0, s1) };
        s.fate = match joined {
            Some(Ok(())) if done != u64::MAX => {
                if done.saturating_sub(a.due_ns) <= a.class.deadline().as_nanos() as u64 {
                    Fate::InDeadline
                } else {
                    Fate::Late
                }
            }
            // A best-effort job cancelled by the deadline reaper.
            Some(Err(_)) if a.class != Class::Critical && reaped => Fate::Late,
            _ => Fate::Failed,
        };
    }

    fn finish(&mut self) {
        while let Some((idx, job)) = self.pending.pop_front() {
            self.settle(idx, job, true);
        }
    }
}

/// One stretch of the workload as it was driven: what was offered, what
/// both sides stamped, and the runtime's counters around the measured
/// part.
struct Stretch {
    /// Entry → the last warm-up request sent.
    setup_s: f64,
    arrivals: Vec<Arrival>,
    /// Requests before this index are warm-up.
    measured_from: usize,
    seconds: f64,
    sent: Vec<Sent>,
    shared: Arc<Shared>,
    /// First measured request due → every measured request settled.
    pass_s: f64,
    counters: (Counters, Counters),
    snapshot: Option<TelemetrySnapshot>,
}

/// Set up a runtime, offer the warm-up stretch of the schedule and then
/// the measured `seconds` after it. `telemetry` turns the telemetry plane
/// on (the traced stretch reads its histograms).
fn drive(seed: u64, batch_rps: f64, seconds: f64, telemetry: bool, ledger: &mut Ledger) -> Stretch {
    let entry = Instant::now();
    let warm_ns = WARMUP.as_nanos() as u64;
    let arrivals = schedule(seed, batch_rps, warm_ns + (seconds * 1e9) as u64);
    let measured_from = arrivals.partition_point(|a| a.due_ns < warm_ns);
    let rt = Runtime::new(
        RuntimeConfig::with_workers(WORKERS)
            .shed_delay_budget(SHED_BUDGET)
            .soft_timeout(SOFT_TIMEOUT)
            .telemetry(telemetry),
    );
    let (setup_s, pass_s, before, after, snapshot, shared, sent) = {
        let mut d = Driver::new(&rt, &arrivals);
        d.offer(measured_from);
        let setup_s = entry.elapsed().as_secs_f64();
        let before = counters(&rt);
        d.offer(arrivals.len());
        d.finish();
        let pass_s = (d.shared.now() - warm_ns) as f64 / 1e9;
        (
            setup_s,
            pass_s,
            before,
            counters(&rt),
            rt.telemetry_snapshot(),
            d.shared,
            d.sent,
        )
    };
    let drained = rt.drain(Duration::from_secs(5));
    if !drained.clean() {
        ledger.fail(format!("drain after the run was not clean: {drained:?}"));
    }
    Stretch {
        setup_s,
        arrivals,
        measured_from,
        seconds,
        sent,
        shared,
        pass_s,
        counters: (before, after),
        snapshot,
    }
}

/// Set-up alone: runtime, schedule and warm-up, nothing measured after.
fn setup_only(seed: u64, batch_rps: f64, ledger: &mut Ledger) -> f64 {
    drive(seed, batch_rps, 0.0, false, ledger).setup_s
}

/// The end-to-end numbers of one stretch.
struct Served {
    /// Per-window percentiles of critical due→done latency (ms).
    p50_windows: Vec<f64>,
    p99_windows: Vec<f64>,
    goodput_rps: f64,
}

/// Account for every measured request of `st`, check the accounting, and
/// fold the stamps into the end-to-end numbers. With `spans` enabled
/// also record the per-request spans and put the serving layer metrics
/// into the ledger.
fn summarise(st: &Stretch, spans: &mut Spans, ledger: &mut Ledger) -> Served {
    let t0_ns = WARMUP.as_nanos() as u64;
    let span_ns = (st.seconds * 1e9) as u64;
    // Windows: whole multiples of WINDOW, or the whole stretch when it is
    // shorter than one.
    let window_ns = (WINDOW.as_nanos() as u64).min(span_ns);
    let windows = (span_ns / window_ns) as usize;
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let mut crit = Vec::new();
    let mut fates = [0u64; 5];
    let (mut crit_offered, mut crit_hit, mut batch_offered) = (0u64, 0u64, 0u64);
    let (mut queue_ms, mut body_ms, mut late_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut submit_us, mut spawn_us, mut settle_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut request_ns, mut children_ns) = (0u64, 0u64);
    for i in st.measured_from..st.arrivals.len() {
        let (a, s, m) = (st.arrivals[i], st.sent[i], &st.shared.marks[i]);
        let (start, done) = (m.start_ns.load(SeqCst), m.done_ns.load(SeqCst));
        let at = a.due_ns - t0_ns;
        fates[s.fate as usize] += 1;
        late_us.push(us(s.sent_ns.saturating_sub(a.due_ns)));
        submit_us.push(us(s.submitted_ns - s.sent_ns));
        spawn_us.push(us(s.spawned_ns - s.submitted_ns));
        if s.settle.1 > 0 {
            settle_us.push(us(s.settle.1 - s.settle.0));
        }
        let answered = matches!(s.fate, Fate::InDeadline | Fate::Late) && done != u64::MAX;
        if a.class == Class::Critical {
            crit_offered += 1;
            crit_hit += (s.fate == Fate::InDeadline) as u64;
            // Refused, failed or unfinished: it missed every limit.
            let latency = if answered {
                ms(done.saturating_sub(a.due_ns))
            } else {
                f64::INFINITY
            };
            crit.push((at, latency));
            if answered {
                queue_ms.push(ms(start.saturating_sub(a.due_ns)));
                body_ms.push(ms(done.saturating_sub(start)));
            }
        } else {
            batch_offered += 1;
        }
        if spans.enabled() {
            // The request as the client sees it, and the calls and waits
            // it is made of, end to end from the due instant.
            let request = i as u64 + 1;
            let sent_at = s.sent_ns.max(a.due_ns);
            let end = if answered { done } else { s.spawned_ns };
            let root = spans.add("request", a.due_ns, end, NONE, request);
            let mut kids = vec![
                ("late", a.due_ns, sent_at),
                ("submit", sent_at, s.submitted_ns),
                ("try_spawn", s.submitted_ns, s.spawned_ns),
            ];
            if answered {
                kids.push(("queue", s.spawned_ns, start.max(s.spawned_ns)));
                kids.push(("body", start, done));
            }
            for (name, from, to) in kids {
                spans.add(name, from, to, root, request);
                children_ns += to.saturating_sub(from);
            }
            request_ns += end.saturating_sub(a.due_ns);
            if s.settle.1 > 0 {
                spans.add("settle", s.settle.0, s.settle.1, NONE, request);
            }
        }
    }

    let [pending, in_deadline, late, shed, failed] = fates;
    let offered = (st.arrivals.len() - st.measured_from) as u64;
    ledger.attempted += offered;
    ledger.failed += failed + pending;
    if pending > 0 {
        ledger.fail(format!(
            "{pending} requests were offered and never accounted for"
        ));
    }
    if failed > 0 {
        ledger.fail(format!(
            "{failed} requests were refused, errored or never finished"
        ));
    }
    let served = Served {
        p50_windows: windowed_percentile(&crit, window_ns, windows, 0.50),
        p99_windows: windowed_percentile(&crit, window_ns, windows, 0.99),
        goodput_rps: in_deadline as f64 / st.seconds,
    };
    ledger.notes.push(format!(
        "requests: offered {offered} (critical {crit_offered}, batch {batch_offered}) = in-deadline {in_deadline} \
         + late {late} + shed {shed} + failed {failed}; {windows} window(s) of {:.1} s, ~{} critical samples each; \
         critical p99 per window (ms): {:.2?}",
        window_ns as f64 / 1e9,
        crit.len() / windows,
        served.p99_windows,
    ));
    if !spans.enabled() {
        return served;
    }

    let mut put = |name: &str, samples: &mut Vec<f64>, q: f64| {
        samples.sort_by(f64::total_cmp);
        if !samples.is_empty() {
            ledger.put_how(name, percentile(samples, q), format!("n={}", samples.len()));
        }
    };
    put("runtime.submit.us_p50", &mut submit_us, 0.5);
    put("runtime.try_spawn.us_p50", &mut spawn_us, 0.5);
    put("runtime.settle.us_p50", &mut settle_us, 0.5);
    put("serve.queue_ms_p50", &mut queue_ms, 0.5);
    put("serve.queue_ms_p99", &mut queue_ms, 0.99);
    put("serve.body_ms_p50", &mut body_ms, 0.5);
    put("loadgen.late_p99_us", &mut late_us, 0.99);
    put("loadgen.late_max_us", &mut late_us, 1.0);
    let share = |name: &str, part: u64, whole: u64, of: &str, ledger: &mut Ledger| {
        ledger.put_how(name, ratio(part, whole), format!("{part} of {whole} {of}"));
    };
    share(
        "overload.shed_frac",
        shed,
        batch_offered,
        "batch requests",
        ledger,
    );
    share("job.deadline_miss_frac", late, offered, "requests", ledger);
    share(
        "job.crit_deadline_hit_frac",
        crit_hit,
        crit_offered,
        "critical requests",
        ledger,
    );
    let (before, after) = &st.counters;
    put_counter_metrics(ledger, before, after);
    ledger.put("runtime.hedged", after.hedged_since(before) as f64);
    if let Some(snap) = &st.snapshot {
        let (engaged, recovered) = snap.shed_transitions;
        ledger.put_how(
            "overload.transitions",
            (engaged + recovered) as f64,
            format!("{engaged} engage + {recovered} recover"),
        );
        let hist =
            |h: &raa_runtime::HistSnapshot| (h.p99() as f64 / 1e3, format!("n={}", h.count()));
        let (v, how) = hist(&snap.queue_delay);
        ledger.put_how("job.queue_delay_p99_us", v, how);
        let (v, how) = hist(&snap.body);
        ledger.put_how("job.body_p99_us", v, how);
    }
    // By construction the children tile the request span; they only
    // overlap when a worker starts the body before `try_spawn` returns.
    let cover = ratio(children_ns, request_ns);
    ledger.notes.push(format!(
        "request child spans cover {cover:.4} of the request spans"
    ));
    if (cover - 1.0).abs() > 0.05 {
        ledger.fail(format!(
            "request child spans sum to {cover:.3} of the request spans (limit 5 %)"
        ));
    }
    served
}

pub fn run(ctx: &Ctx, batch_rps: f64, ledger: &mut Ledger) {
    ledger.notes.push(format!(
        "workers: {WORKERS}; open loop, critical {CRIT_RPS} rps + batch {batch_rps} rps, seeded Poisson; \
         offered load {:.2} of capacity",
        (CRIT_RPS * CRIT_BODY.as_secs_f64() + batch_rps * BATCH_BODY.as_secs_f64()) / WORKERS as f64,
    ));
    if !ctx.traced {
        // Set-up several times over; only the last goes on to measure.
        let mut setups = Vec::new();
        while ctx.another_setup(&setups) {
            setups.push(setup_only(ctx.seed, batch_rps, ledger));
        }
        let st = drive(ctx.seed, batch_rps, ctx.seconds, false, ledger);
        let s = summarise(&st, &mut Spans::off(), ledger);
        setups.push(st.setup_s);
        ledger.put_dist("setup_s", dist(&setups));
        ledger.put_dist("crit_p50_ms", dist(&s.p50_windows));
        // The median over windows, never a quieter quantile: a stall the
        // runtime itself causes every few seconds must stay visible.
        let tail = dist(&s.p99_windows);
        ledger.put_dist("crit_p99_ms", tail);
        ledger.note_if_noisy("crit_p99_ms", "per-window p99s", tail);
        ledger.put_how(
            "goodput_rps",
            s.goodput_rps,
            "requests answered inside their deadline per second",
        );
        // A request is the unit of work a tenant hands over.
        ledger.put_alias(
            "tasks_per_s",
            s.goodput_rps,
            "goodput_rps",
            "one unit of work per request",
        );
        ledger.put_alias(
            "pass_s",
            1.0 / s.goodput_rps,
            "goodput_rps",
            "seconds per request answered in its deadline",
        );
        ledger.notes.push(format!(
            "first measured request due -> all settled: {:.3} s",
            st.pass_s
        ));
        return;
    }

    // Traced run: an untraced stretch on a plain runtime, then a traced
    // one (telemetry plane on, request spans recorded) on another.
    let plain = drive(ctx.seed, batch_rps, ctx.seconds * 0.3, false, ledger);
    let plain = summarise(&plain, &mut Spans::off(), ledger);
    let mut spans = Spans::on(ctx.origin);
    let traced = drive(ctx.seed, batch_rps, ctx.seconds * 0.45, true, ledger);
    let traced = summarise(&traced, &mut spans, ledger);
    // Latency is lower-better: the overhead is the share it grew by.
    let (untraced_p50, traced_p50) = (median(&plain.p50_windows), median(&traced.p50_windows));
    ledger.put(
        "trace_overhead_frac",
        (traced_p50 - untraced_p50) / untraced_p50,
    );

    let overshoot = probes::sleep_probe((ctx.seconds * 0.08).max(0.3));
    ledger.put("loadgen.sleep_overshoot_p999_us", overshoot);
    if overshoot > 10_000.0 {
        ledger
            .notes
            .push("noisy-host: an idle 1 ms sleep overshot by more than 10 ms (p999)".into());
    }
    if batch_rps == STEADY_BATCH_RPS {
        probes::hedge_probe(8, ledger);
    }
    ctx.write_trace(&spans, ledger);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_depends_on_the_seed_and_nothing_else() {
        let a = schedule(42, STEADY_BATCH_RPS, 3_000_000_000);
        assert_eq!(a, schedule(42, STEADY_BATCH_RPS, 3_000_000_000));
        assert_ne!(a, schedule(43, STEADY_BATCH_RPS, 3_000_000_000));
        assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        // A longer horizon extends each stream without moving what came
        // before it.
        let longer = schedule(42, STEADY_BATCH_RPS, 4_000_000_000);
        let crit = |v: &[Arrival]| {
            v.iter()
                .filter(|a| a.class == Class::Critical)
                .map(|a| a.due_ns)
                .collect::<Vec<_>>()
        };
        assert_eq!(crit(&longer)[..crit(&a).len()], crit(&a)[..]);
    }

    #[test]
    fn schedule_offers_the_stated_rates_and_mix() {
        let secs = 20.0;
        let a = schedule(7, OVERLOAD_BATCH_RPS, (secs * 1e9) as u64);
        let count = |c: Class| a.iter().filter(|a| a.class == c).count() as f64;
        let batch = count(Class::Batch) + count(Class::BatchCg);
        assert!((count(Class::Critical) / secs / CRIT_RPS - 1.0).abs() < 0.05);
        assert!((batch / secs / OVERLOAD_BATCH_RPS - 1.0).abs() < 0.05);
        assert!((count(Class::BatchCg) / batch - 1.0 / CG_EVERY as f64).abs() < 0.005);
    }

    #[test]
    fn a_short_steady_stretch_accounts_for_every_request() {
        let mut ledger = Ledger::default();
        let mut spans = Spans::on(Instant::now());
        let st = drive(42, STEADY_BATCH_RPS, 0.5, true, &mut ledger);
        let s = summarise(&st, &mut spans, &mut ledger);
        assert!(ledger.correct(), "{:?}", ledger.problems);
        assert!(ledger.attempted > 200);
        assert_eq!((s.p50_windows.len(), s.p99_windows.len()), (1, 1));
        assert!(
            s.p50_windows[0] >= 1.0,
            "a critical request sleeps 1 ms: {:?}",
            s.p50_windows
        );
        assert!(s.goodput_rps > 0.0 && st.pass_s > 0.4);
        for want in [
            "runtime.submit.us_p50",
            "serve.queue_ms_p99",
            "overload.shed_frac",
            "job.body_p99_us",
            "pool.wakes_per_task",
        ] {
            assert!(ledger.get(want).is_some(), "{want} was not measured");
        }
        // Spans of one request share its id and hang under its request span.
        let first = spans.all().iter().find(|s| s.name == "request").unwrap();
        let kids: Vec<_> = spans
            .all()
            .iter()
            .filter(|s| s.parent == first.id)
            .collect();
        assert!(kids.len() >= 3 && kids.iter().all(|k| k.request == first.request));
    }
}
