//! The closed-loop task workloads: one client hands the runtime a whole
//! graph (a *rep*), blocks in `taskwait`, checks what the graph computed,
//! and starts the next.
//!
//! * `task_flood` — independent tasks through `spawn_many`: admission,
//!   slab, injector and dispatch do all the work, the dependency tracker
//!   and stealing none.
//! * `fork_tree` — every task spawns its two children from inside its
//!   body: the single-spawn path, the owner deque and steal-half.
//! * `dep_graph` — cg-shaped iterations, a serial chain and fan-outs
//!   through `spawn_many`: the dependency tracker's batched sweep, edge
//!   wiring and successor release.
//! * `solver_cg` — raa-solver's task-parallel CG as it is (see
//!   `solver.rs`): single spawns with dependencies from the client
//!   thread, the path every in-repo caller takes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use raa_runtime::region::Access;
use raa_runtime::{
    AccessMode, BatchTask, ContentionReport, DataHandle, Runtime, RuntimeConfig, StatsSnapshot,
};

use crate::report::Ledger;
use crate::solver::SolverCg;
use crate::spans::{Spans, NONE};
use crate::summary::{dist, median, ratio, repeat_for};
use crate::{probes, Ctx};

/// Tasks per `spawn_many` call.
pub const BATCH: usize = 1024;
const WARMUP_REPS: usize = 3;
/// A warm-up rep is a measured one shrunk by this factor: enough to start
/// the workers, fault in the first slab pages and run every code path
/// once, small enough that `Runtime::new` and first-use costs are a
/// visible share of `setup_s` instead of 0.5 % of it.
const WARMUP_SHRINK: u64 = 16;
pub const FLOOD_TASKS: u64 = 200_000;
/// Root at depth 0, leaves at depth 17: 2^18 − 1 tasks.
pub const TREE_DEPTH: u32 = 17;
pub const CG_BLOCKS: u64 = 16;
const CG_ITERS: u64 = 1024;
const CG_ITERS_PER_BATCH: u64 = 16;
const CHAIN_LEN: u64 = 50_000;
const FAN_ROUNDS: u64 = 768;
const FAN: u64 = 64;
const FAN_ROUNDS_PER_BATCH: u64 = 15;
/// `fork_tree` times one spawn call in this many when tracing.
const SPAWN_SAMPLE: u64 = 64;

/// One rep's graph: how to spawn it and how to know it ran correctly.
pub trait Graph {
    /// Tasks of one rep (of the last one run, where reps can differ).
    fn tasks(&self) -> u64;
    /// Spawn the whole graph; `rep` is the span to hang `spawn_many`
    /// spans under.
    fn spawn(&mut self, rt: &Arc<Runtime>, spans: &mut Spans, rep: u32);
    /// After `taskwait`: did the graph compute what it must?
    fn check(&mut self) -> Result<(), String>;
    /// Per-rep samples of layer metrics (median over reps is reported).
    fn rep_samples(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Whether `spawn` returns with tasks still in flight, so that the
    /// `taskwait` after it has a tail worth reporting.
    fn leaves_a_tail(&self) -> bool {
        true
    }
    /// Switch body-side timing on for the traced stretch.
    fn set_tracing(&mut self, _on: bool) {}
    /// Layer metrics accumulated over the traced stretch.
    fn layer_totals(&self, _ledger: &mut Ledger) {}
}

// ------------------------------------------------------------ task_flood

pub struct Flood {
    done: &'static AtomicU64,
    tasks: u64,
}

impl Flood {
    pub fn new(tasks: u64) -> Self {
        // Bodies are 'static: the counter they bump lives as long as the
        // process (one small leak per set-up, not per rep).
        Flood {
            done: Box::leak(Box::new(AtomicU64::new(0))),
            tasks,
        }
    }
}

impl Graph for Flood {
    fn tasks(&self) -> u64 {
        self.tasks
    }

    fn spawn(&mut self, rt: &Arc<Runtime>, spans: &mut Spans, rep: u32) {
        self.done.store(0, Relaxed);
        let done = self.done;
        let mut left = self.tasks as usize;
        while left > 0 {
            let n = left.min(BATCH);
            let batch = (0..n)
                .map(|_| {
                    BatchTask::new("e").body(move || {
                        done.fetch_add(1, Relaxed);
                    })
                })
                .collect();
            let s0 = spans.stamp();
            rt.spawn_many(batch);
            spans.add("spawn_many", s0, spans.stamp(), rep, 0);
            left -= n;
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let ran = self.done.load(Relaxed);
        (ran == self.tasks).then_some(()).ok_or(format!(
            "task_flood: {ran} bodies ran, {} spawned",
            self.tasks
        ))
    }
}

// ------------------------------------------------------------- fork_tree

struct TreeCounters {
    nodes: AtomicU64,
    leaves: AtomicU64,
    timing: AtomicBool,
    spawn_ns: AtomicU64,
    spawn_calls: AtomicU64,
}

pub struct Tree {
    c: &'static TreeCounters,
    depth: u32,
}

impl Tree {
    pub fn new(depth: u32) -> Self {
        Tree {
            c: Box::leak(Box::new(TreeCounters {
                nodes: AtomicU64::new(0),
                leaves: AtomicU64::new(0),
                timing: AtomicBool::new(false),
                spawn_ns: AtomicU64::new(0),
                spawn_calls: AtomicU64::new(0),
            })),
            depth,
        }
    }
}

/// Body of tree node `idx` (heap numbering from 1) with `below` levels
/// under it: count itself, then spawn both children from inside the
/// body with the single-task builder.
fn tree_node(rt: Arc<Runtime>, c: &'static TreeCounters, below: u32, idx: u64) {
    c.nodes.fetch_add(1, Relaxed);
    if below == 0 {
        c.leaves.fetch_add(1, Relaxed);
        return;
    }
    let timed = idx % SPAWN_SAMPLE == 1 && c.timing.load(Relaxed);
    for child in 0..2 {
        let rt2 = Arc::clone(&rt);
        let t0 = timed.then(Instant::now);
        rt.task("n")
            .body(move || tree_node(rt2, c, below - 1, idx * 2 + child))
            .spawn();
        if let Some(t0) = t0 {
            c.spawn_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
            c.spawn_calls.fetch_add(1, Relaxed);
        }
    }
}

impl Graph for Tree {
    fn tasks(&self) -> u64 {
        (1 << (self.depth + 1)) - 1
    }

    fn spawn(&mut self, rt: &Arc<Runtime>, _spans: &mut Spans, _rep: u32) {
        self.c.nodes.store(0, Relaxed);
        self.c.leaves.store(0, Relaxed);
        let (rt2, c, depth) = (Arc::clone(rt), self.c, self.depth);
        rt.task("n")
            .body(move || tree_node(rt2, c, depth, 1))
            .spawn();
    }

    fn check(&mut self) -> Result<(), String> {
        let (nodes, leaves) = (self.c.nodes.load(Relaxed), self.c.leaves.load(Relaxed));
        (nodes == self.tasks() && leaves == 1 << self.depth)
            .then_some(())
            .ok_or(format!(
                "fork_tree: {nodes} nodes and {leaves} leaves ran, expected {} and {}",
                self.tasks(),
                1u64 << self.depth
            ))
    }

    fn set_tracing(&mut self, on: bool) {
        self.c.timing.store(on, Relaxed);
    }

    fn layer_totals(&self, ledger: &mut Ledger) {
        let calls = self.c.spawn_calls.load(Relaxed);
        if calls > 0 {
            ledger.put_how(
                "runtime.spawn.ns_per_task",
                self.c.spawn_ns.load(Relaxed) as f64 / calls as f64,
                format!("mean of n={calls} sampled spawn calls (1 node in {SPAWN_SAMPLE})"),
            );
        }
    }
}

// ------------------------------------------------------------- dep_graph

/// What a `dep_graph` task does to the values behind its regions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    Spmv(usize),
    Dot,
    Scale,
    Axpy(usize),
    Chain,
    FanWriter,
    FanReader,
}

pub const SHAPES: [&str; 3] = ["cg", "chain", "fanout"];

/// Receiver of a generated task stream: the workload turns each task
/// into a `BatchTask`, the tracker probe keeps only the accesses.
pub trait Sink {
    fn task(&mut self, shape: usize, kind: Kind, accesses: &[Access]);
    /// End of a `spawn_many` batch (may be empty).
    fn flush(&mut self);
}

/// The dependency regions of one rep (fresh ids every rep).
pub struct Regions {
    x: DataHandle<()>,
    q: DataHandle<()>,
    acc: DataHandle<()>,
    chain: DataHandle<()>,
    fan: DataHandle<()>,
}

impl Regions {
    pub fn fresh() -> Self {
        Regions {
            x: DataHandle::new("x", ()),
            q: DataHandle::new("q", ()),
            acc: DataHandle::new("acc", ()),
            chain: DataHandle::new("chain", ()),
            fan: DataHandle::new("fan", ()),
        }
    }
}

fn access(region: raa_runtime::Region, mode: AccessMode) -> Access {
    Access { region, mode }
}

/// `iters` iterations of the blocked-CG shape (`spawn_cg_shape`'s graph):
/// per block spmv (`R x[b]`, `W q[b]`), per block dot (`R q[b]`, `RW
/// acc` — a reduction serialised on the scalar), one scale (`RW acc`),
/// per block axpy (`R acc`, `RW x[b]`). 49 tasks per iteration.
pub fn cg_shape(r: &Regions, iters: u64, sink: &mut dyn Sink) {
    use AccessMode::{Read, ReadWrite, Write};
    for it in 0..iters {
        for b in 0..CG_BLOCKS {
            let acc = [
                access(r.x.sub(b, b + 1), Read),
                access(r.q.sub(b, b + 1), Write),
            ];
            sink.task(0, Kind::Spmv(b as usize), &acc);
        }
        for b in 0..CG_BLOCKS {
            let acc = [
                access(r.q.sub(b, b + 1), Read),
                access(r.acc.region(), ReadWrite),
            ];
            sink.task(0, Kind::Dot, &acc);
        }
        sink.task(0, Kind::Scale, &[access(r.acc.region(), ReadWrite)]);
        for b in 0..CG_BLOCKS {
            let acc = [
                access(r.acc.region(), Read),
                access(r.x.sub(b, b + 1), ReadWrite),
            ];
            sink.task(0, Kind::Axpy(b as usize), &acc);
        }
        if (it + 1) % CG_ITERS_PER_BATCH == 0 {
            sink.flush();
        }
    }
    sink.flush();
}

/// A serial chain: `len` tasks `inout` on one region.
fn chain_shape(r: &Regions, len: u64, sink: &mut dyn Sink) {
    for i in 0..len {
        sink.task(
            1,
            Kind::Chain,
            &[access(r.chain.region(), AccessMode::ReadWrite)],
        );
        if (i + 1) % BATCH as u64 == 0 {
            sink.flush();
        }
    }
    sink.flush();
}

/// `rounds` × (one writer releasing 64 readers of the same region).
fn fanout_shape(r: &Regions, rounds: u64, sink: &mut dyn Sink) {
    for round in 0..rounds {
        sink.task(
            2,
            Kind::FanWriter,
            &[access(r.fan.region(), AccessMode::Write)],
        );
        for _ in 0..FAN {
            sink.task(
                2,
                Kind::FanReader,
                &[access(r.fan.region(), AccessMode::Read)],
            );
        }
        if (round + 1) % FAN_ROUNDS_PER_BATCH == 0 {
            sink.flush();
        }
    }
    sink.flush();
}

/// Sizes of one `dep_graph` rep.
#[derive(Clone, Copy)]
pub struct DepSize {
    pub cg_iters: u64,
    pub chain_len: u64,
    pub fan_rounds: u64,
}

impl DepSize {
    pub const FULL: DepSize = DepSize {
        cg_iters: CG_ITERS,
        chain_len: CHAIN_LEN,
        fan_rounds: FAN_ROUNDS,
    };

    pub fn shrunk(self, by: u64) -> DepSize {
        DepSize {
            cg_iters: self.cg_iters / by,
            chain_len: self.chain_len / by,
            fan_rounds: self.fan_rounds / by,
        }
    }

    fn shape_tasks(&self) -> [u64; 3] {
        [
            self.cg_iters * (3 * CG_BLOCKS + 1),
            self.chain_len,
            self.fan_rounds * (FAN + 1),
        ]
    }
}

/// The whole rep's task stream, shape after shape. `before_shape` runs
/// ahead of each shape's first task.
pub fn dep_graph_stream(
    r: &Regions,
    size: DepSize,
    sink: &mut dyn Sink,
    mut before_shape: impl FnMut(usize),
) {
    before_shape(0);
    cg_shape(r, size.cg_iters, sink);
    before_shape(1);
    chain_shape(r, size.chain_len, sink);
    before_shape(2);
    fanout_shape(r, size.fan_rounds, sink);
}

/// The values the bodies bump, and per shape the instant its last body
/// ran.
struct DepVals {
    origin: Instant,
    x: [AtomicU64; CG_BLOCKS as usize],
    q: [AtomicU64; CG_BLOCKS as usize],
    acc: AtomicU64,
    chain: AtomicU64,
    fan_writes: AtomicU64,
    fan_reads: AtomicU64,
    shape_left: [AtomicU64; 3],
    shape_end_ns: [AtomicU64; 3],
}

/// Bump a value the way a task that owns it may: load, then store. If
/// the runtime ever let two tasks that declared the same region run at
/// once, updates would be lost and the final value would come up short.
fn bump(v: &AtomicU64) {
    v.store(v.load(Relaxed) + 1, Relaxed);
}

impl DepVals {
    fn run(&self, shape: usize, kind: Kind) {
        match kind {
            Kind::Spmv(b) => bump(&self.q[b]),
            Kind::Dot | Kind::Scale => bump(&self.acc),
            Kind::Axpy(b) => bump(&self.x[b]),
            Kind::Chain => bump(&self.chain),
            Kind::FanWriter => bump(&self.fan_writes),
            // Readers of one round run concurrently: a real atomic add.
            Kind::FanReader => {
                self.fan_reads.fetch_add(1, Relaxed);
            }
        }
        if self.shape_left[shape].fetch_sub(1, Relaxed) == 1 {
            self.shape_end_ns[shape].store(self.origin.elapsed().as_nanos() as u64, Relaxed);
        }
    }
}

/// How `dep_graph`'s tasks reach the runtime.
#[derive(Clone, Copy, PartialEq)]
pub enum SpawnBy {
    /// `spawn_many`, about a thousand tasks a call: the workload.
    Batch,
    /// One `TaskBuilder::spawn` per task, as raa-solver and raa-apps do:
    /// the other side of `deps.single_vs_batch.ns_per_task`.
    Single,
}

pub struct DepGraph {
    v: &'static DepVals,
    size: DepSize,
    by: SpawnBy,
    shape_start_ns: [u64; 3],
}

impl DepGraph {
    pub fn new(size: DepSize, by: SpawnBy) -> Self {
        fn zeros<const N: usize>() -> [AtomicU64; N] {
            std::array::from_fn(|_| AtomicU64::new(0))
        }
        DepGraph {
            v: Box::leak(Box::new(DepVals {
                origin: Instant::now(),
                x: zeros(),
                q: zeros(),
                acc: AtomicU64::new(0),
                chain: AtomicU64::new(0),
                fan_writes: AtomicU64::new(0),
                fan_reads: AtomicU64::new(0),
                shape_left: zeros(),
                shape_end_ns: zeros(),
            })),
            size,
            by,
            shape_start_ns: [0; 3],
        }
    }
}

struct SpawnSink<'a> {
    rt: &'a Runtime,
    v: &'static DepVals,
    by: SpawnBy,
    batch: Vec<BatchTask>,
    spans: &'a mut Spans,
    rep: u32,
}

impl Sink for SpawnSink<'_> {
    fn task(&mut self, shape: usize, kind: Kind, accesses: &[Access]) {
        let v = self.v;
        if self.by == SpawnBy::Single {
            let mut t = self.rt.task(SHAPES[shape]);
            for a in accesses {
                t = t.region(a.region, a.mode);
            }
            t.body(move || v.run(shape, kind)).spawn();
            return;
        }
        let mut t = BatchTask::new(SHAPES[shape]);
        for a in accesses {
            t = t.region(a.region, a.mode);
        }
        self.batch.push(t.body(move || v.run(shape, kind)));
    }

    fn flush(&mut self) {
        if !self.batch.is_empty() {
            let batch = std::mem::replace(&mut self.batch, Vec::with_capacity(BATCH));
            let s0 = self.spans.stamp();
            self.rt.spawn_many(batch);
            self.spans
                .add("spawn_many", s0, self.spans.stamp(), self.rep, 0);
        }
    }
}

impl Graph for DepGraph {
    fn tasks(&self) -> u64 {
        self.size.shape_tasks().iter().sum()
    }

    fn spawn(&mut self, rt: &Arc<Runtime>, spans: &mut Spans, rep: u32) {
        let v = self.v;
        for a in
            v.x.iter()
                .chain(&v.q)
                .chain([&v.acc, &v.chain, &v.fan_writes, &v.fan_reads])
        {
            a.store(0, Relaxed);
        }
        for (left, n) in v.shape_left.iter().zip(self.size.shape_tasks()) {
            left.store(n, Relaxed);
        }
        let regions = Regions::fresh();
        let starts = &mut self.shape_start_ns;
        let mut sink = SpawnSink {
            rt,
            v,
            by: self.by,
            batch: Vec::with_capacity(BATCH),
            spans,
            rep,
        };
        dep_graph_stream(&regions, self.size, &mut sink, |shape| {
            starts[shape] = v.origin.elapsed().as_nanos() as u64;
        });
    }

    fn check(&mut self) -> Result<(), String> {
        let (v, s) = (self.v, self.size);
        let mut wrong = Vec::new();
        let mut expect = |what: &str, got: u64, want: u64| {
            if got != want {
                wrong.push(format!("{what} = {got}, expected {want}"));
            }
        };
        for b in 0..CG_BLOCKS as usize {
            expect(&format!("cg q[{b}]"), v.q[b].load(Relaxed), s.cg_iters);
            expect(&format!("cg x[{b}]"), v.x[b].load(Relaxed), s.cg_iters);
        }
        expect("cg acc", v.acc.load(Relaxed), s.cg_iters * (CG_BLOCKS + 1));
        expect("chain value", v.chain.load(Relaxed), s.chain_len);
        expect("fan-out writes", v.fan_writes.load(Relaxed), s.fan_rounds);
        expect(
            "fan-out reads",
            v.fan_reads.load(Relaxed),
            s.fan_rounds * FAN,
        );
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!("dep_graph: {}", wrong.join("; ")))
        }
    }

    fn rep_samples(&self) -> Vec<(&'static str, f64)> {
        const NAMES: [&str; 3] = [
            "runtime.shape.cg.tasks_per_s",
            "runtime.shape.chain.tasks_per_s",
            "runtime.shape.fanout.tasks_per_s",
        ];
        (0..3)
            .map(|s| {
                let ns = self.v.shape_end_ns[s]
                    .load(Relaxed)
                    .saturating_sub(self.shape_start_ns[s]);
                (
                    NAMES[s],
                    self.size.shape_tasks()[s] as f64 / (ns.max(1) as f64 / 1e9),
                )
            })
            .collect()
    }
}

// ------------------------------------------------------- the closed loop

/// One timed rep.
pub struct Rep {
    /// First spawn → `taskwait` return.
    pub secs: f64,
    /// Last spawn return → `taskwait` return.
    pub tail_s: f64,
    pub samples: Vec<(&'static str, f64)>,
}

pub fn rep(g: &mut dyn Graph, rt: &Arc<Runtime>, spans: &mut Spans, ledger: &mut Ledger) -> Rep {
    let t0 = Instant::now();
    let id = spans.open("rep", NONE, 0);
    g.spawn(rt, spans, id);
    let spawned = Instant::now();
    let w0 = spans.stamp();
    let waited = rt.try_taskwait();
    let end = Instant::now();
    spans.add("taskwait", w0, spans.stamp(), id, 0);
    spans.close(id);
    ledger.attempted += g.tasks();
    if let Err(report) = waited {
        ledger.failed += report.len() as u64;
        ledger.fail(format!("taskwait reported {} failed task(s)", report.len()));
    }
    if let Err(why) = g.check() {
        ledger.failed += 1;
        ledger.fail(why);
    }
    Rep {
        secs: (end - t0).as_secs_f64(),
        tail_s: (end - spawned).as_secs_f64(),
        samples: g.rep_samples(),
    }
}

/// Reps until `secs` have passed (three at least).
fn reps_for(
    g: &mut dyn Graph,
    rt: &Arc<Runtime>,
    secs: f64,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Vec<Rep> {
    repeat_for(secs, 3, || rep(g, rt, spans, ledger))
}

/// The runtime's public counters at one instant.
pub struct Counters {
    stats: StatsSnapshot,
    contention: ContentionReport,
}

impl Counters {
    /// Hedged duplicates enqueued since `earlier`.
    pub fn hedged_since(&self, earlier: &Counters) -> u64 {
        self.stats.tasks_hedged - earlier.stats.tasks_hedged
    }
}

pub fn counters(rt: &Runtime) -> Counters {
    Counters {
        stats: rt.stats(),
        contention: rt.contention_report(),
    }
}

/// Layer metrics that are ratios of the runtime's own counters over the
/// interval `before`..`after`.
pub fn put_counter_metrics(ledger: &mut Ledger, before: &Counters, after: &Counters) {
    let (b, a) = (&before.stats, &after.stats);
    let (cb, ca) = (&before.contention, &after.contention);
    let spawned = a.spawned - b.spawned;
    let completed = a.completed - b.completed;
    let (ok, empty) = (a.steals_ok - b.steals_ok, a.steals_empty - b.steals_empty);
    ledger.put(
        "runtime.ready_at_spawn_frac",
        ratio(a.ready_at_spawn - b.ready_at_spawn, spawned),
    );
    ledger.put("deps.edges_per_task", ratio(a.edges - b.edges, spawned));
    ledger.put("pool.steals_ok_per_ktask", 1e3 * ratio(ok, completed));
    ledger.put("pool.steal_hit_frac", ratio(ok, ok + empty));
    ledger.put("pool.wakes_per_task", ratio(a.wakes - b.wakes, spawned));
    ledger.put(
        "pool.parks_per_ktask",
        1e3 * ratio(a.parks - b.parks, completed),
    );
    ledger.put(
        "scheduler.injector_share",
        ratio(
            ca.injector_pushes - cb.injector_pushes,
            ca.dispatches - cb.dispatches,
        ),
    );
    ledger.put(
        "scheduler.injector_overflow",
        (ca.injector_overflow - cb.injector_overflow) as f64,
    );
    let (local, remote) = (
        ca.slab_local_frees - cb.slab_local_frees,
        ca.slab_remote_frees - cb.slab_remote_frees,
    );
    ledger.put(
        "runtime.slab_remote_free_frac",
        ratio(remote, local + remote),
    );
}

#[derive(Clone, Copy, PartialEq)]
pub enum Which {
    Flood,
    Tree,
    Dep,
    Solver,
}

impl Which {
    /// Workers for a host whose load cap is `w`: the generator thread is
    /// busy while workers run on `task_flood` and `dep_graph`, so they
    /// leave it a core; on `fork_tree` main only blocks. `solver_cg` is
    /// one client and one worker on one cpu, whatever the host.
    pub fn workers(self, w: usize) -> usize {
        match self {
            Which::Tree => w,
            Which::Flood | Which::Dep => (w - 1).max(1),
            Which::Solver => 1,
        }
    }

    /// Warm-up of one set-up: how many reps, of graphs shrunk by how much.
    /// A solve cannot be shrunk (it runs to convergence), so `solver_cg`
    /// warms up with one whole solve.
    fn warmup(self) -> (usize, u64) {
        match self {
            Which::Solver => (1, 1),
            _ => (WARMUP_REPS, WARMUP_SHRINK),
        }
    }

    /// One rep's graph, shrunk by `shrink` (a power of two).
    fn graph(self, seed: u64, shrink: u64) -> Box<dyn Graph> {
        match self {
            Which::Flood => Box::new(Flood::new(FLOOD_TASKS / shrink)),
            Which::Tree => Box::new(Tree::new(TREE_DEPTH - shrink.ilog2())),
            Which::Dep => Box::new(DepGraph::new(DepSize::FULL.shrunk(shrink), SpawnBy::Batch)),
            Which::Solver => Box::new(SolverCg::new(seed)),
        }
    }
}

pub fn run(ctx: &Ctx, which: Which, ledger: &mut Ledger) {
    let workers = which.workers(ctx.load_cap);
    ledger
        .notes
        .push(format!("workers: {workers} (load cap W={})", ctx.load_cap));
    if which == Which::Solver {
        // Before any `Runtime::new`: its workers inherit the mask.
        ledger
            .notes
            .push(match crate::solver::confine_to_one_cpu() {
                Some(cpu) => format!("client and worker confined to cpu {cpu}"),
                None => "could not confine the run to one cpu: it runs free".into(),
            });
    }

    // Set-up = graph state + `Runtime::new` + count-bounded warm-up.
    let set_up = |ledger: &mut Ledger| {
        let t0 = Instant::now();
        let rt = Arc::new(Runtime::new(RuntimeConfig::with_workers(workers)));
        let (reps, shrink) = which.warmup();
        let mut warm = which.graph(ctx.seed, shrink);
        for _ in 0..reps {
            rep(warm.as_mut(), &rt, &mut Spans::off(), ledger);
        }
        let g = which.graph(ctx.seed, 1);
        (t0.elapsed().as_secs_f64(), g, rt)
    };
    let (first, mut g, rt) = set_up(ledger);

    if !ctx.traced {
        // The first set-up's runtime is the one measured. The other
        // set-ups come at even distances through the measured stretch, on
        // a runtime of their own while the measured one idles, so that
        // `setup_s` is a median over the whole run like the throughput
        // beside it: set-ups done back to back sample the host's first
        // second and a half, and whole batches of runs moved by a quarter
        // with it.
        let mut setups = vec![first];
        let share = ctx.seconds / ctx.setups_for(first) as f64;
        let (mut secs, mut measured) = (Vec::new(), 0.0);
        while secs.len() < 3 || measured < ctx.seconds {
            let r = rep(g.as_mut(), &rt, &mut Spans::off(), ledger);
            measured += r.secs;
            secs.push(r.secs);
            if measured >= share * setups.len() as f64 && measured < ctx.seconds {
                // Its runtime is dropped, and its workers joined, here:
                // outside its own timing and outside every rep's.
                setups.push(set_up(ledger).0);
            }
        }
        ledger.put_closed_loop("tasks_per_s", &setups, &secs, g.tasks() as f64);
        return;
    }

    // Traced run: an untraced stretch, a traced one on the same runtime,
    // then this workload's isolated probes.
    let plain = reps_for(
        g.as_mut(),
        &rt,
        ctx.seconds * 0.2,
        &mut Spans::off(),
        ledger,
    );
    let mut spans = Spans::on(ctx.origin);
    g.set_tracing(true);
    let before = counters(&rt);
    let traced = reps_for(g.as_mut(), &rt, ctx.seconds * 0.35, &mut spans, ledger);
    let after = counters(&rt);
    g.set_tracing(false);

    let tasks = g.tasks();
    let rate =
        |reps: &[Rep]| tasks as f64 / median(&reps.iter().map(|r| r.secs).collect::<Vec<_>>());
    let (untraced_rate, traced_rate) = (rate(&plain), rate(&traced));
    ledger.put(
        "trace_overhead_frac",
        (untraced_rate - traced_rate) / untraced_rate,
    );
    put_counter_metrics(ledger, &before, &after);
    let (spawn_ns, calls) = spans.total("spawn_many");
    if calls > 0 {
        let tasks = traced.len() as u64 * tasks;
        ledger.put_how(
            "runtime.spawn_many.ns_per_task",
            spawn_ns as f64 / tasks as f64,
            format!("{calls} calls over n={} reps", traced.len()),
        );
    }
    if g.leaves_a_tail() {
        ledger.put_dist(
            "runtime.taskwait.tail_ms",
            dist(&traced.iter().map(|r| r.tail_s * 1e3).collect::<Vec<_>>()),
        );
    }
    for (i, &(name, _)) in traced[0].samples.iter().enumerate() {
        ledger.put_dist(
            name,
            dist(&traced.iter().map(|r| r.samples[i].1).collect::<Vec<_>>()),
        );
    }
    g.layer_totals(ledger);
    drop((g, rt));

    let budget = ctx.seconds * 0.4;
    match which {
        Which::Flood => probes::flood_probes(workers, budget, ledger),
        Which::Tree => probes::tree_probes(workers, budget, ledger),
        Which::Dep => probes::dep_probes(workers, budget, ledger),
        Which::Solver => {}
    }
    ctx.write_trace(&spans, ledger);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_rt(workers: usize) -> Arc<Runtime> {
        Arc::new(Runtime::new(RuntimeConfig::with_workers(workers)))
    }

    #[test]
    fn every_graph_passes_its_own_check() {
        let rt = small_rt(2);
        let mut ledger = Ledger::default();
        let size = DepSize {
            cg_iters: 20,
            chain_len: 300,
            fan_rounds: 17,
        };
        let graphs: [Box<dyn Graph>; 4] = [
            Box::new(Flood::new(3000)),
            Box::new(Tree::new(8)),
            Box::new(DepGraph::new(size, SpawnBy::Batch)),
            Box::new(DepGraph::new(size, SpawnBy::Single)),
        ];
        for mut g in graphs {
            for _ in 0..2 {
                rep(g.as_mut(), &rt, &mut Spans::off(), &mut ledger);
            }
        }
        assert!(ledger.correct(), "{:?}", ledger.problems);
        assert_eq!(
            ledger.attempted,
            2 * (3000 + 511 + 2 * (20 * 49 + 300 + 17 * 65))
        );
    }

    #[test]
    fn checks_catch_a_wrong_result() {
        let rt = small_rt(1);
        let mut ledger = Ledger::default();
        let mut g = Flood::new(100);
        g.spawn(&rt, &mut Spans::off(), NONE);
        rt.taskwait();
        g.done.fetch_add(1, Relaxed); // a body that ran twice
        assert!(g.check().is_err());
        let size = DepSize {
            cg_iters: 2,
            chain_len: 10,
            fan_rounds: 2,
        };
        let mut d = DepGraph::new(size, SpawnBy::Batch);
        d.spawn(&rt, &mut Spans::off(), NONE);
        rt.taskwait();
        d.v.chain.store(9, Relaxed); // a lost update
        let why = d.check().unwrap_err();
        assert!(why.contains("chain value = 9, expected 10"), "{why}");
        rep(&mut d, &rt, &mut Spans::off(), &mut ledger);
        assert!(ledger.correct());
    }

    #[test]
    fn traced_rep_records_spawn_and_wait_spans_under_the_rep() {
        let rt = small_rt(1);
        let mut spans = Spans::on(Instant::now());
        let mut g = Flood::new(2 * BATCH as u64 + 5);
        let r = rep(&mut g, &rt, &mut spans, &mut Ledger::default());
        let names: Vec<_> = spans.all().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("rep", 0),
                ("spawn_many", 1),
                ("spawn_many", 1),
                ("spawn_many", 1),
                ("taskwait", 1)
            ]
        );
        assert!(r.tail_s <= r.secs);
        let selfs = spans.self_times();
        let rep_span = &spans.all()[0];
        assert!(selfs[0] < rep_span.end_ns - rep_span.start_ns);
    }

    #[test]
    fn dep_graph_stream_has_the_declared_shape() {
        struct Count(Vec<u64>, u64, u64);
        impl Sink for Count {
            fn task(&mut self, shape: usize, _: Kind, accesses: &[Access]) {
                self.0[shape] += 1;
                self.1 += accesses.len() as u64;
            }
            fn flush(&mut self) {
                self.2 += 1;
            }
        }
        let mut c = Count(vec![0; 3], 0, 0);
        dep_graph_stream(&Regions::fresh(), DepSize::FULL, &mut c, |_| {});
        assert_eq!(c.0, vec![50_176, 50_000, 49_920]);
        assert_eq!(c.0.iter().sum::<u64>(), 150_096);
        // 97 accesses per cg iteration, one per chain link and fan task.
        assert_eq!(c.1, 1024 * 97 + 50_000 + 49_920);
    }
}
