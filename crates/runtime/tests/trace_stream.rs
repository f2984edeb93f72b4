//! Property tests for the tracing subsystem: arbitrary region-dependency
//! graphs executed under work stealing must produce *well-formed* event
//! streams — every start paired with exactly one completion on the same
//! `(task, slot, gen)` attempt, per-track timestamps monotone, lifecycle
//! counts agreeing with the always-on stats — and tracing must be
//! strictly pay-for-use: a runtime without a `TraceConfig` records
//! nothing while observers keep working.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proptest::prelude::*;
use raa_runtime::{
    AccessMode, Runtime, RuntimeConfig, SchedulerPolicy, TaskId, TaskObserver, TraceConfig,
    TraceEventKind,
};

/// One generated task: accesses over a small pool of data, as
/// (datum, start, len, mode) tuples.
type SpecAccess = (usize, u64, u64, u8);

fn mode_of(m: u8) -> AccessMode {
    match m % 3 {
        0 => AccessMode::Read,
        1 => AccessMode::Write,
        _ => AccessMode::ReadWrite,
    }
}

fn task_strategy(data: usize) -> impl Strategy<Value = Vec<SpecAccess>> {
    prop::collection::vec((0..data, 0u64..96, 1u64..48, 0u8..3), 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Every traced run yields a well-formed stream: exactly one Spawn,
    /// Start, and Complete per task (attempt keys matching), per-track
    /// timestamps monotone, zero drops at ample capacity, and counts
    /// agreeing with the stats snapshot.
    #[test]
    fn traced_runs_emit_well_formed_streams(
        specs in prop::collection::vec(task_strategy(3), 2..40),
        workers in 2usize..5,
    ) {
        let rt = Runtime::new(
            RuntimeConfig::with_workers(workers)
                .policy(SchedulerPolicy::WorkStealing)
                .tracing(TraceConfig::default()),
        );
        let handles: Vec<_> = (0..3)
            .map(|d| rt.register(format!("d{d}"), vec![0u8; 256]))
            .collect();
        for (i, spec) in specs.iter().enumerate() {
            let mut b = rt.task(format!("t{i}"));
            for &(d, start, len, m) in spec {
                b = b.region(handles[d].sub(start, start + len), mode_of(m));
            }
            b.body(|| {}).spawn();
        }
        rt.taskwait();
        let stats = rt.stats();
        let trace = rt.drain_trace().expect("tracing is configured");
        let n = specs.len() as u64;

        prop_assert_eq!(trace.dropped_total(), 0, "64Ki rings never fill here");
        prop_assert_eq!(trace.count(TraceEventKind::Spawn), n);
        prop_assert_eq!(trace.count(TraceEventKind::Start), n);
        prop_assert_eq!(trace.count(TraceEventKind::Complete), n);
        prop_assert_eq!(trace.count(TraceEventKind::Fault), 0);
        prop_assert_eq!(stats.spawned, n);
        prop_assert_eq!(stats.completed, n);
        // One event per steal, carrying how many tasks it moved (a
        // steal-half takes several); the counter counts the tasks.
        let stolen: u64 = trace
            .events()
            .filter(|e| e.kind == TraceEventKind::StealOk)
            .map(|e| u64::from(e.arg >> 16))
            .sum();
        prop_assert_eq!(
            stolen, stats.steals_ok,
            "ring steal events match the scheduler counter when nothing drops"
        );

        // Per-track timestamps are monotone non-decreasing.
        for (t, track) in trace.tracks.iter().enumerate() {
            for pair in track.windows(2) {
                prop_assert!(
                    pair[0].ts_ns <= pair[1].ts_ns,
                    "track {t} timestamps regressed: {} then {}",
                    pair[0].ts_ns, pair[1].ts_ns
                );
            }
        }

        // Starts and completes pair 1:1 on the same attempt key, start
        // first (same track: a task runs start→complete on one worker).
        let mut open: HashMap<(u32, u32, u32), usize> = HashMap::new();
        let mut completed = 0usize;
        for track in &trace.tracks {
            for ev in track {
                let key = (ev.task.0, ev.slot, ev.gen);
                match ev.kind {
                    TraceEventKind::Start => {
                        prop_assert!(
                            open.insert(key, 1).is_none(),
                            "attempt {key:?} started twice"
                        );
                    }
                    TraceEventKind::Complete => {
                        prop_assert!(
                            open.remove(&key).is_some(),
                            "attempt {key:?} completed without a start on its worker"
                        );
                        completed += 1;
                    }
                    _ => {}
                }
            }
        }
        prop_assert!(open.is_empty(), "unmatched starts: {open:?}");
        prop_assert_eq!(completed, specs.len());

        // A second drain holds no task lifecycle: the rings were emptied
        // (idle workers may still park/unpark between the two drains).
        let again = rt.drain_trace().expect("still configured");
        prop_assert_eq!(again.count(TraceEventKind::Start), 0);
        prop_assert_eq!(again.count(TraceEventKind::Complete), 0);
    }
}

/// Counting observer used to show observers work without tracing.
#[derive(Default)]
struct Counter {
    starts: AtomicU64,
    completes: AtomicU64,
}

impl TaskObserver for Counter {
    fn on_start(&self, _worker: usize, _task: TaskId, _critical: bool) {
        self.starts.fetch_add(1, Ordering::SeqCst);
    }
    fn on_complete(&self, _worker: usize, _task: TaskId) {
        self.completes.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn tracing_disabled_records_nothing_and_observers_still_fire() {
    let obs = Arc::new(Counter::default());
    let rt = Runtime::new(RuntimeConfig::with_workers(2).observer(obs.clone()));
    assert!(!rt.tracing_enabled());
    for i in 0..32 {
        rt.task(format!("t{i}")).body(|| {}).spawn();
    }
    rt.taskwait();
    assert!(rt.drain_trace().is_none(), "no TraceConfig, no trace");
    assert_eq!(obs.starts.load(Ordering::SeqCst), 32);
    assert_eq!(obs.completes.load(Ordering::SeqCst), 32);
    // The always-on counters still populate.
    let stats = rt.stats();
    assert_eq!(stats.completed, 32);
}

#[test]
fn overflowing_rings_count_drops_and_keep_events_well_formed() {
    // 8-slot rings against hundreds of tasks: most events drop, the
    // counter says so, and whatever survives still parses as events on
    // the right tracks.
    let rt = Runtime::new(RuntimeConfig::with_workers(2).tracing(TraceConfig::with_capacity(8)));
    for i in 0..300 {
        rt.task(format!("t{i}")).body(|| {}).spawn();
    }
    rt.taskwait();
    let trace = rt.drain_trace().expect("tracing is configured");
    assert!(
        trace.dropped_total() > 0,
        "300 tasks cannot fit 8-slot rings"
    );
    assert!(!trace.is_empty(), "the rings still kept their capacity");
    assert_eq!(trace.tracks.len(), 3, "2 workers + external track");
    for track in &trace.tracks {
        assert!(track.len() <= 8, "drained more than ring capacity");
        for pair in track.windows(2) {
            assert!(pair[0].ts_ns <= pair[1].ts_ns);
        }
    }
    // Stats stay exact regardless of ring overflow.
    assert_eq!(rt.stats().completed, 300);
}

#[test]
fn tracing_and_observer_see_the_same_lifecycle() {
    let obs = Arc::new(Counter::default());
    let rt = Runtime::new(
        RuntimeConfig::with_workers(3)
            .observer(obs.clone())
            .tracing(TraceConfig::default()),
    );
    let x = rt.register("x", 0u64);
    for i in 0..64 {
        let x = x.clone();
        rt.task(format!("t{i}"))
            .updates(&x)
            .body(move || *x.write() += 1)
            .spawn();
    }
    rt.taskwait();
    assert_eq!(*x.read(), 64);
    let trace = rt.drain_trace().unwrap();
    assert_eq!(
        trace.count(TraceEventKind::Start),
        obs.starts.load(Ordering::SeqCst)
    );
    assert_eq!(
        trace.count(TraceEventKind::Complete),
        obs.completes.load(Ordering::SeqCst)
    );
}
