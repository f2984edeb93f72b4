//! The batched `pending` accounting of `wire_spawn`, table-driven and
//! timing-free: one add for all of a task's edges, stale edges returned
//! with the submission guard.
//!
//! A subject task reads two data whose last writers are, per case,
//! already retired (a `taskwait` settled them; the tracker still names
//! them), live (queued behind a gate task that occupies the lone
//! worker), one of each, or one and the same task. Whatever the mix, the
//! subject runs exactly once and only after its last live predecessor,
//! and `stats()` counts its edges and its readiness at spawn the same
//! way: an edge is what the tracker reports, ready-at-spawn means no
//! *live* predecessor was left to wire.
//!
//! The subject outranks its predecessors under the Priority policy, so a
//! release that came too early would also run it too early; one that
//! never came fails the final drain; a second one trips the runtime's
//! "must still hold its body" check.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use raa_runtime::{BatchTask, DataHandle, Runtime, RuntimeConfig, SchedulerPolicy};

/// Who last wrote the subject's two inputs.
#[derive(Clone, Copy, Debug)]
enum Writer {
    /// Settled by a `taskwait` before the subject is spawned.
    Retired,
    /// Queued behind the gate while the subject is spawned.
    Live,
    /// `b` only: written by `a`'s live writer, one task for both.
    SameAsA,
}

struct Case {
    name: &'static str,
    a: Writer,
    b: Writer,
    /// What the subject's spawn adds to `stats().edges`.
    edges: u64,
    ready_at_spawn: bool,
}

const CASES: [Case; 4] = [
    Case {
        name: "all live",
        a: Writer::Live,
        b: Writer::Live,
        edges: 2,
        ready_at_spawn: false,
    },
    Case {
        name: "all retired",
        a: Writer::Retired,
        b: Writer::Retired,
        edges: 2,
        ready_at_spawn: true,
    },
    Case {
        name: "retired + live",
        a: Writer::Retired,
        b: Writer::Live,
        edges: 2,
        ready_at_spawn: false,
    },
    Case {
        name: "one writer, two regions",
        a: Writer::Live,
        b: Writer::SameAsA,
        edges: 1,
        ready_at_spawn: false,
    },
];

/// Bodies stamp the order they ran in (1-based; 0 = never ran).
#[derive(Default)]
struct Stamp {
    clock: AtomicU32,
}

impl Stamp {
    fn body(
        self: &Arc<Self>,
        slot: &Arc<AtomicU32>,
        runs: &Arc<AtomicU32>,
    ) -> impl FnOnce() + Send {
        let (stamp, slot, runs) = (Arc::clone(self), Arc::clone(slot), Arc::clone(runs));
        move || {
            slot.store(
                stamp.clock.fetch_add(1, Ordering::SeqCst) + 1,
                Ordering::SeqCst,
            );
            runs.fetch_add(1, Ordering::SeqCst);
        }
    }
}

fn run_case(case: &Case, batched: bool) {
    let what = format!(
        "{} ({})",
        case.name,
        if batched { "spawn_many" } else { "spawn" }
    );
    let rt = Runtime::new(RuntimeConfig::with_workers(1).policy(SchedulerPolicy::Priority));
    let a = rt.register("a", 0u64);
    let b = rt.register("b", 0u64);
    let stamp = Arc::new(Stamp::default());
    let ignored = Arc::new(AtomicU32::new(0));
    let writer = |data: &[&DataHandle<u64>], at: &Arc<AtomicU32>| {
        let mut t = rt.task("writer");
        for d in data {
            t = t.writes(d);
        }
        t.body(stamp.body(at, &ignored)).spawn();
    };

    let (a_at, b_at) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    if matches!(case.a, Writer::Retired) {
        writer(&[&a], &a_at);
    }
    if matches!(case.b, Writer::Retired) {
        writer(&[&b], &b_at);
    }
    rt.taskwait();

    // The gate occupies the lone worker before anything else is spawned.
    let (entered, open) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    {
        let (entered, open) = (Arc::clone(&entered), Arc::clone(&open));
        rt.task("gate")
            .body(move || {
                entered.store(true, Ordering::SeqCst);
                while !open.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            })
            .spawn();
    }
    while !entered.load(Ordering::SeqCst) {
        std::thread::yield_now();
    }
    match (case.a, case.b) {
        (Writer::Live, Writer::SameAsA) => writer(&[&a, &b], &a_at),
        (wa, wb) => {
            if matches!(wa, Writer::Live) {
                writer(&[&a], &a_at);
            }
            if matches!(wb, Writer::Live) {
                writer(&[&b], &b_at);
            }
        }
    }

    let before = rt.stats();
    let (subject_at, subject_runs) = (Arc::new(AtomicU32::new(0)), Arc::new(AtomicU32::new(0)));
    let body = stamp.body(&subject_at, &subject_runs);
    if batched {
        let subject = BatchTask::new("subject").reads(&a).reads(&b).priority(10);
        rt.spawn_many(vec![subject.body(body)]);
    } else {
        rt.task("subject")
            .reads(&a)
            .reads(&b)
            .priority(10)
            .body(body)
            .spawn();
    }
    let after = rt.stats();
    assert_eq!(after.edges - before.edges, case.edges, "{what}: edges");
    assert_eq!(
        after.ready_at_spawn - before.ready_at_spawn,
        case.ready_at_spawn as u64,
        "{what}: ready at spawn"
    );
    assert_eq!(
        subject_runs.load(Ordering::SeqCst),
        0,
        "{what}: ran past the gate"
    );

    open.store(true, Ordering::SeqCst);
    // The timeout bounds a failure, not a success: quiescence ends it.
    let drained = rt.drain(Duration::from_secs(30));
    assert!(drained.clean(), "{what}: never released ({drained:?})");
    assert_eq!(subject_runs.load(Ordering::SeqCst), 1, "{what}: runs");
    let ran_at = subject_at.load(Ordering::SeqCst);
    for (input, writer_at) in [("a", &a_at), ("b", &b_at)] {
        let writer_at = writer_at.load(Ordering::SeqCst);
        assert!(
            writer_at < ran_at,
            "{what}: ran {ran_at}th, the writer of {input} {writer_at}th"
        );
    }
}

#[test]
fn a_task_runs_once_after_its_last_live_predecessor_whatever_the_stale_mix() {
    for case in &CASES {
        for batched in [false, true] {
            run_case(case, batched);
        }
    }
}
