//! The live criticality estimator against its oracle: what
//! `TaskObserver::on_start` reports for `Criticality::Auto` tasks must be
//! what `OnlineCriticality` says about the TDG the runtime itself
//! recorded — exactly within one `spawn_many` batch, to the documented
//! one-hop horizon for single spawns — and annotations, best-effort jobs,
//! retries and hedges must be reported as promised.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use raa_runtime::criticality::{OnlineCriticality, CRITICALITY_THRESHOLD};
use raa_runtime::graph::generators::{annotated_chain_with_fans, chain_with_fans, random_layered};
use raa_runtime::{
    BatchTask, Criticality, DataHandle, JobSpec, QosClass, RetryPolicy, Runtime, RuntimeConfig,
    TaskGraph, TaskId, TaskObserver, TaskProgram,
};

/// Every `on_start`, in arrival order.
#[derive(Default)]
struct Starts(Mutex<Vec<(TaskId, bool)>>);

impl TaskObserver for Starts {
    fn on_start(&self, _worker: usize, task: TaskId, critical: bool) {
        self.0.lock().unwrap().push((task, critical));
    }
    fn on_complete(&self, _worker: usize, _task: TaskId) {}
}

impl Starts {
    /// Task → the flag of each of its attempts.
    fn by_task(&self) -> HashMap<TaskId, Vec<bool>> {
        let mut map: HashMap<TaskId, Vec<bool>> = HashMap::new();
        for &(task, critical) in self.0.lock().unwrap().iter() {
            map.entry(task).or_default().push(critical);
        }
        map
    }
}

/// `g` as one batch, its explicit edges encoded the way
/// `TaskProgram::spawn_on` encodes them: a task writes a region of its
/// own and reads its predecessors'.
fn batch_of(g: &TaskGraph) -> Vec<BatchTask> {
    let handles: Vec<DataHandle<()>> = g
        .nodes()
        .map(|n| DataHandle::new(n.meta.label.clone(), ()))
        .collect();
    g.nodes()
        .map(|n| {
            let mut t = BatchTask::new(n.meta.label.clone())
                .cost(n.meta.cost)
                .criticality(n.meta.criticality)
                .writes(&handles[n.id.index()]);
            for p in &n.preds {
                t = t.reads(&handles[p.index()]);
            }
            t.body(|| {})
        })
        .collect()
}

#[test]
fn one_batch_is_classified_exactly_as_the_oracle_classifies_it() {
    for g in [
        chain_with_fans(30, 3, 100, 10),
        random_layered(8, 6, 1..40, 7),
        random_layered(12, 4, 5..200, 11),
    ] {
        let starts = Arc::new(Starts::default());
        let config = RuntimeConfig::with_workers(2)
            .record_graph(true)
            .observer(starts.clone());
        let rt = Runtime::new(config);
        let ids = rt.spawn_many(batch_of(&g));
        rt.taskwait();

        // The oracle sees the tracker's edges, not the generator's.
        let recorded = rt.graph().expect("record_graph is on");
        assert_eq!(recorded.len(), g.len());
        let mut oracle = OnlineCriticality::new(CRITICALITY_THRESHOLD);
        for n in recorded.nodes() {
            oracle.submit(n.id, n.meta.cost, &n.preds);
        }
        let seen = starts.by_task();
        let mut critical = 0;
        for &id in &ids {
            let flags = &seen[&id];
            assert_eq!(flags.len(), 1, "{id:?} started once");
            assert_eq!(
                flags[0],
                oracle.is_critical(id),
                "{id:?} ({}): bottom level {} of {}",
                recorded.node(id).meta.label,
                oracle.bottom_level(id),
                oracle.max_bottom_level()
            );
            critical += flags[0] as u64;
        }
        assert!(
            critical > 1 && (critical as usize) < g.len(),
            "a trivial classification proves nothing: {critical} of {}",
            g.len()
        );
        assert_eq!(rt.stats().critical_tasks, critical);
    }
}

/// A runtime whose only worker is held inside a gate task until the
/// returned sender fires — nothing spawned meanwhile can run, so every
/// successor is wired before its predecessor is released.
fn gated_runtime(config: RuntimeConfig) -> (Runtime, mpsc::Sender<()>) {
    let rt = Runtime::new(config);
    let (open, gate) = mpsc::channel::<()>();
    let (entered_tx, entered) = mpsc::channel::<()>();
    rt.task("gate")
        .body(move || {
            entered_tx.send(()).unwrap();
            gate.recv().unwrap();
        })
        .spawn();
    entered.recv().unwrap();
    (rt, open)
}

#[test]
fn single_spawns_see_one_hop_ahead() {
    let starts = Arc::new(Starts::default());
    let (rt, open) = gated_runtime(RuntimeConfig::with_workers(1).observer(starts.clone()));
    let g = chain_with_fans(10, 3, 100, 10);
    let ids = TaskProgram::from_graph(g.clone()).spawn_on(&rt, |_| Box::new(|| {}));
    open.send(()).unwrap();
    rt.taskwait();

    let seen = starts.by_task();
    let last_link = g
        .nodes()
        .filter(|n| n.meta.label.starts_with("link"))
        .last()
        .expect("the chain has links")
        .id;
    for n in g.nodes() {
        // A link knows its next link (2 × 100 = the longest level any
        // task gets to see); the last link and the fans know nothing
        // beyond themselves.
        let want = n.meta.label.starts_with("link") && n.id != last_link;
        assert_eq!(seen[&ids[n.id.index()]], vec![want], "{}", n.meta.label);
    }
}

#[test]
fn a_later_phase_is_measured_against_its_own_longest_path() {
    let rt = Runtime::new(RuntimeConfig::with_workers(2));
    let x = rt.register("x", 0u64);
    let chain = |links: usize| -> Vec<BatchTask> {
        (0..links)
            .map(|_| BatchTask::new("link").updates(&x).body(|| {}))
            .collect()
    };
    rt.spawn_many(chain(200));
    rt.taskwait();
    let after_first = rt.stats().critical_tasks;
    assert!(after_first > 0);
    rt.spawn_many(chain(10));
    rt.taskwait();
    assert!(
        rt.stats().critical_tasks > after_first,
        "the 200-link phase must not make a 10-link phase look short forever"
    );
}

#[test]
fn annotations_and_best_effort_jobs_are_reported_as_declared() {
    // Annotated against what the shape says: links off the critical
    // path, fans on it.
    let starts = Arc::new(Starts::default());
    let rt = Runtime::new(RuntimeConfig::with_workers(2).observer(starts.clone()));
    let g = annotated_chain_with_fans(
        6,
        2,
        100,
        10,
        Criticality::NonCritical,
        Criticality::Critical,
    );
    let ids = rt.spawn_many(batch_of(&g));
    rt.taskwait();
    let seen = starts.by_task();
    for n in g.nodes() {
        assert_eq!(
            seen[&ids[n.id.index()]],
            vec![n.meta.criticality == Criticality::Critical],
            "{}",
            n.meta.label
        );
    }

    // A sheddable job's tasks are never critical, whatever they claim.
    let tenant = Arc::new(Starts::default());
    let job = rt
        .submit(
            JobSpec::new("batch-tenant")
                .qos(QosClass::BestEffort)
                .observer(tenant.clone()),
        )
        .expect("admitted");
    let y = job.register("y", 0u64);
    for c in [Criticality::Critical, Criticality::Auto, Criticality::Auto] {
        job.task("t")
            .updates(&y)
            .cost(100)
            .criticality(c)
            .body(|| {})
            .spawn();
    }
    job.join();
    let seen = tenant.by_task();
    assert_eq!(seen.len(), 3);
    assert!(seen.values().all(|flags| flags == &[false]), "{seen:?}");
}

#[test]
fn retries_and_hedges_report_the_first_decision_again() {
    // Retry: the head of a three-link batch (critical: the whole chain
    // hangs off it) and its tail (not critical) each fail once.
    let starts = Arc::new(Starts::default());
    let rt = Runtime::new(
        RuntimeConfig::with_workers(2)
            .retry(RetryPolicy::retries(2))
            .observer(starts.clone()),
    );
    let x = rt.register("x", 0u64);
    let flaky = || {
        let runs = AtomicU64::new(0);
        move || {
            if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt fails");
            }
        }
    };
    let ids = rt.spawn_many(vec![
        BatchTask::new("head")
            .updates(&x)
            .cost(100)
            .idempotent(flaky()),
        BatchTask::new("mid").updates(&x).cost(100).body(|| {}),
        BatchTask::new("tail")
            .updates(&x)
            .cost(100)
            .idempotent(flaky()),
    ]);
    rt.taskwait();
    let seen = starts.by_task();
    assert_eq!(seen[&ids[0]], vec![true, true]);
    assert_eq!(seen[&ids[1]], vec![false]);
    assert_eq!(seen[&ids[2]], vec![false, false]);

    // Hedge: a straggler that was the longest path when it was released
    // is no longer when its duplicate is dispatched.
    let starts = Arc::new(Starts::default());
    let rt = Runtime::new(
        RuntimeConfig::with_workers(3)
            .soft_timeout(Duration::from_millis(10))
            .observer(starts.clone()),
    );
    let (entered_tx, entered) = mpsc::channel::<()>();
    let entered_tx = Mutex::new(entered_tx);
    let runs = AtomicU64::new(0);
    let straggler = rt
        .task("straggler")
        .cost(10)
        .idempotent(move || {
            if runs.fetch_add(1, Ordering::SeqCst) == 0 {
                entered_tx.lock().unwrap().send(()).unwrap();
                std::thread::sleep(Duration::from_millis(500));
            }
        })
        .spawn();
    entered.recv().unwrap();
    rt.task("long").cost(1_000).body(|| {}).spawn();
    rt.taskwait();
    assert!(rt.stats().tasks_hedged >= 1, "the straggler was hedged");
    assert_eq!(starts.by_task()[&straggler], vec![true, true]);
}
