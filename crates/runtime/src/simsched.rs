//! Deterministic TDG schedule simulation with DVFS and power accounting.
//!
//! This is the "virtual machine" for the paper's power-wall experiments:
//! a list scheduler that executes a [`TaskGraph`] on `N` virtual cores in
//! virtual time. Each core has a DVFS frequency; a task of cost `c`
//! (cycles at nominal frequency 1.0) takes `c / f` time units on a core at
//! frequency `f`.  Dynamic power follows the classic cube law
//! (`P_dyn ∝ f³`, since voltage scales with frequency), so energy per task
//! is `c_dyn · cost · f²` — running non-critical tasks slowly saves energy
//! quadratically while, on the right TDGs, costing no makespan.
//!
//! Frequency changes are arbitrated either by a **software** path (a
//! global lock — requests serialise, so reconfiguration stalls grow with
//! core count) or by the paper's **Runtime Support Unit (RSU)** (fixed
//! small hardware latency, no serialisation).  This is exactly the
//! comparison motivating Fig. 2.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::criticality;
use crate::graph::TaskGraph;
use crate::program::TaskProgram;
use crate::task::{Criticality, TaskId};
use crate::topology::{ClusterSchedule, StealCosts};

/// A set of virtual cores with individual DVFS frequencies.
#[derive(Clone, Debug)]
pub struct CorePool {
    /// Current frequency of each core (multiplier of nominal).
    pub freqs: Vec<f64>,
}

impl CorePool {
    /// `n` homogeneous cores at frequency `f`.
    pub fn homogeneous(n: usize, f: f64) -> Self {
        assert!(n >= 1 && f > 0.0);
        CorePool { freqs: vec![f; n] }
    }

    /// Heterogeneous pool from explicit frequencies.
    pub fn heterogeneous(freqs: Vec<f64>) -> Self {
        assert!(!freqs.is_empty() && freqs.iter().all(|&f| f > 0.0));
        CorePool { freqs }
    }

    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }
}

/// How frequency-change requests are arbitrated.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DvfsArbiter {
    /// No frequency changes ever happen (static machine).
    None,
    /// Software path: requests serialise on a global lock; each change
    /// occupies the lock for `lock_cost` time units.
    Software { lock_cost: f64 },
    /// Runtime Support Unit: fixed `latency` per change, fully parallel.
    Rsu { latency: f64 },
}

/// Scheduling / DVFS policy for the simulator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SimPolicy {
    /// FIFO ready order, every core stays at its configured frequency.
    Fifo,
    /// Ready tasks ordered by bottom level (longest path to exit first);
    /// frequencies stay static. The classic HEFT-style list scheduler.
    BottomLevel,
    /// Criticality-aware DVFS (§3.1): critical tasks request `f_high`,
    /// non-critical request `f_low`, subject to the power budget; ready
    /// order is bottom level. `arbiter` models who performs the change.
    CriticalityDvfs {
        f_high: f64,
        f_low: f64,
        arbiter: DvfsArbiter,
    },
    /// Criticality-aware *placement* on a heterogeneous (big.LITTLE)
    /// pool: no frequency changes, but critical tasks take the fastest
    /// idle core and non-critical tasks the slowest — "critical tasks can
    /// be run in faster or accelerated cores while non critical tasks can
    /// be scheduled to slow cores" (§3.1).
    CriticalityPlacement,
    /// Adversarial baseline: ready tasks in a deterministic pseudo-random
    /// order (seeded) — what criticality-blind scheduling degrades to on
    /// irregular graphs.
    RandomOrder { seed: u64 },
    /// Locality-aware placement: bottom-level ready order, but each task
    /// prefers the idle core where most of its predecessors ran — the
    /// runtime-guided data-motion management the paper calls for
    /// ("to manage data motion among these memory hierarchies … is going
    /// to be a major challenge"). Pays off when
    /// [`ScheduleSimulator::comm_cost`] is non-zero.
    LocalityAware,
}

fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Power model constants. Dynamic power at frequency `f` is
/// `c_dyn · f³`; static (leakage) power is `c_static` per core while the
/// simulation runs; an idle core additionally burns `c_idle`.
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    pub c_dyn: f64,
    pub c_static: f64,
    pub c_idle: f64,
    /// Total power budget; `CriticalityDvfs` demotes requests to `f_low`
    /// when granting `f_high` would exceed it. `f64::INFINITY` disables.
    pub budget: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            c_dyn: 1.0,
            c_static: 0.1,
            c_idle: 0.05,
            budget: f64::INFINITY,
        }
    }
}

/// The outcome of one simulated execution.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Total virtual time to drain the TDG.
    pub makespan: f64,
    /// Dynamic + static + idle energy.
    pub energy: f64,
    /// Energy-delay product (the §3.1 metric).
    pub edp: f64,
    /// Busy time per core.
    pub core_busy: Vec<f64>,
    /// Number of frequency changes performed.
    pub reconfigs: u64,
    /// Total time tasks waited on the DVFS arbiter.
    pub reconfig_stall: f64,
    /// Total start-delay attributable to cross-core data transfers.
    pub comm_delay: f64,
    /// Total dispatch overhead charged by the cluster schedule's victim
    /// probing (zero without [`ScheduleSimulator::with_cluster_schedule`]).
    pub probe_overhead: f64,
    /// Tasks a cluster schedule had to place outside their preferred
    /// cluster (every such placement also pays the migrate cost).
    pub migrations: u64,
    /// Start time of each task, indexed by task id.
    pub start_times: Vec<f64>,
    /// Execution duration of each task (cost ÷ granted frequency).
    pub durations: Vec<f64>,
    /// Core each task ran on.
    pub placements: Vec<usize>,
}

impl SimReport {
    /// Parallel efficiency: total work / (makespan × cores).
    pub fn efficiency(&self, total_work: f64) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        total_work / (self.makespan * self.core_busy.len() as f64)
    }

    /// Speedup of this schedule over another (makespan ratio).
    pub fn speedup_over(&self, other: &SimReport) -> f64 {
        other.makespan / self.makespan
    }

    /// ASCII Gantt chart: one row per core, `width` columns across the
    /// makespan; `#` marks busy time, `.` idle. A quick visual check of
    /// pipelining and load balance.
    pub fn gantt(&self, width: usize) -> String {
        use std::fmt::Write as _;
        let cores = self.core_busy.len();
        let mut rows = vec![vec![b'.'; width]; cores];
        if self.makespan > 0.0 {
            for (i, (&s, &d)) in self.start_times.iter().zip(&self.durations).enumerate() {
                let core = self.placements[i];
                if core == usize::MAX {
                    continue;
                }
                let c0 = ((s / self.makespan) * width as f64) as usize;
                let c1 = (((s + d) / self.makespan) * width as f64).ceil() as usize;
                for cell in &mut rows[core][c0.min(width - 1)..c1.min(width)] {
                    *cell = b'#';
                }
            }
        }
        let mut out = String::new();
        for (c, row) in rows.into_iter().enumerate() {
            let _ = writeln!(
                out,
                "core {c:>3} |{}|",
                String::from_utf8(row).expect("ascii")
            );
        }
        out
    }
}

/// Deterministic list-schedule simulator. Construct once per (graph,
/// cores, policy) combination and call [`ScheduleSimulator::run`].
///
/// The graph is held as a [`Cow`]: borrow one with
/// [`ScheduleSimulator::new`], or hand over ownership with
/// [`ScheduleSimulator::owned`] / [`ScheduleSimulator::for_program`]
/// (the `'static` variants every IR consumer uses).
pub struct ScheduleSimulator<'g> {
    graph: Cow<'g, TaskGraph>,
    cores: CorePool,
    policy: SimPolicy,
    power: PowerModel,
    /// Slack for the criticality analysis feeding `CriticalityDvfs`.
    pub criticality_slack: u64,
    /// Data-transfer cost charged on every dependency whose producer ran
    /// on a different core (cache-to-cache / SPM-to-SPM move). Zero by
    /// default.
    pub comm_cost: f64,
    /// Optional two-level cluster schedule (the flat-vs-hierarchical A/B
    /// switch): charges per-dispatch probe overhead scaling with the
    /// schedule's probe domain, steers tasks toward the cluster holding
    /// their predecessors' data, and scales `comm_cost` by the
    /// schedule's intra/inter factor. `None` reproduces the historic
    /// behaviour exactly.
    cluster: Option<(Arc<dyn ClusterSchedule>, StealCosts)>,
}

#[derive(PartialEq)]
struct ReadyEntry {
    /// Sort key, larger = run first.
    key: u64,
    /// Tie break: smaller id first (deterministic).
    id: TaskId,
}

impl Eq for ReadyEntry {}
impl PartialOrd for ReadyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ReadyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then(Reverse(self.id).cmp(&Reverse(other.id)))
    }
}

#[derive(PartialEq)]
struct FinishEvent {
    time: f64,
    task: TaskId,
    core: usize,
}
impl Eq for FinishEvent {}
impl PartialOrd for FinishEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FinishEvent {
    // Min-heap by time via Reverse at the call site; here: total order on
    // (time, task) with NaN-free times.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .partial_cmp(&other.time)
            .expect("simulation times are never NaN")
            .then(self.task.cmp(&other.task))
    }
}

/// The idle cores of a run, in three views kept in step.
///
/// `order` is the list the simulator has always kept — a finished core is
/// pushed at the back, a picked one leaves by `swap_remove` — and its
/// order is part of the schedule: `LocalityAware` and the two
/// `Criticality*` policies scan it and break ties by position, so it
/// must evolve exactly as it always did. `pos[core]` is the core's index
/// in `order` (meaningless while the core is busy) and `bits` has bit
/// `core` set iff the core is in `order`, so the agnostic policies'
/// "lowest idle core", over the whole machine or over one cluster's
/// span, is a find-first-set followed by `pos[core]` instead of a scan
/// of `order`.
struct IdleCores {
    order: Vec<usize>,
    pos: Vec<usize>,
    bits: Vec<u64>,
}

impl IdleCores {
    fn all(ncores: usize) -> Self {
        let mut bits = vec![0u64; ncores.div_ceil(64)];
        for core in 0..ncores {
            bits[core / 64] |= 1 << (core % 64);
        }
        IdleCores {
            order: (0..ncores).collect(),
            pos: (0..ncores).collect(),
            bits,
        }
    }

    fn push(&mut self, core: usize) {
        self.pos[core] = self.order.len();
        self.order.push(core);
        self.bits[core / 64] |= 1 << (core % 64);
    }

    /// Remove and return the core at index `pick` of `order`.
    fn swap_remove(&mut self, pick: usize) -> usize {
        let core = self.order.swap_remove(pick);
        if let Some(&moved) = self.order.get(pick) {
            self.pos[moved] = pick;
        }
        self.bits[core / 64] &= !(1 << (core % 64));
        core
    }

    /// Index in `order` of the lowest idle core in `[lo, hi)`.
    fn lowest_in(&self, lo: usize, hi: usize) -> Option<usize> {
        (lo / 64..hi.div_ceil(64)).find_map(|w| {
            let above = !0u64 << lo.saturating_sub(w * 64);
            let below = !0u64 >> (64 - (hi - w * 64).min(64));
            let word = self.bits[w] & above & below;
            (word != 0).then(|| self.pos[w * 64 + word.trailing_zeros() as usize])
        })
    }
}

impl<'g> ScheduleSimulator<'g> {
    pub fn new(graph: &'g TaskGraph, cores: CorePool, policy: SimPolicy) -> Self {
        ScheduleSimulator {
            graph: Cow::Borrowed(graph),
            cores,
            policy,
            power: PowerModel::default(),
            criticality_slack: 0,
            comm_cost: 0.0,
            cluster: None,
        }
    }

    /// Take ownership of the graph — no borrow to outlive, so callers can
    /// build a derived graph (e.g. [`TaskProgram::scheduling_graph`]) and
    /// simulate it in one expression.
    pub fn owned(
        graph: TaskGraph,
        cores: CorePool,
        policy: SimPolicy,
    ) -> ScheduleSimulator<'static> {
        ScheduleSimulator {
            graph: Cow::Owned(graph),
            cores,
            policy,
            power: PowerModel::default(),
            criticality_slack: 0,
            comm_cost: 0.0,
            cluster: None,
        }
    }

    /// Simulate a recorded [`TaskProgram`]: schedules its
    /// [`TaskProgram::scheduling_graph`] (measured durations as costs
    /// where the recording has them, hints elsewhere).
    pub fn for_program(
        program: &TaskProgram,
        cores: CorePool,
        policy: SimPolicy,
    ) -> ScheduleSimulator<'static> {
        Self::owned(program.scheduling_graph(), cores, policy)
    }

    /// Builder-style communication-cost override.
    pub fn with_comm_cost(mut self, comm_cost: f64) -> Self {
        self.comm_cost = comm_cost;
        self
    }

    /// Attach a [`ClusterSchedule`] — flat or hierarchical over the same
    /// simulated machine — turning the steal-policy comparison into an
    /// A/B switch. Three effects, all deterministic:
    ///
    /// * every dispatch is delayed by `probe_cost · log2(probe domain)`
    ///   — the victim sweep a thief pays before finding work (a flat
    ///   schedule probes the whole machine, a hierarchical one its own
    ///   cluster first);
    /// * non-criticality policies place each task on the lowest idle
    ///   core of the cluster its predecessors' data lives in (the
    ///   schedule's [`ClusterSchedule::preferred_cluster`]); when that
    ///   cluster has no idle core the task migrates — lowest idle core
    ///   anywhere — and additionally pays `migrate_cost`;
    /// * cross-core dependency transfers scale [`Self::comm_cost`] by
    ///   [`ClusterSchedule::comm_factor`] (intra-cluster 1.0, inter
    ///   the schedule's penalty).
    ///
    /// The schedule's topology must span exactly the simulated core
    /// count.
    pub fn with_cluster_schedule(
        mut self,
        schedule: Arc<dyn ClusterSchedule>,
        costs: StealCosts,
    ) -> Self {
        assert_eq!(
            schedule.topology().workers(),
            self.cores.len(),
            "cluster schedule topology must span the simulated cores"
        );
        self.cluster = Some((schedule, costs));
        self
    }

    /// Override the power model.
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }

    fn ready_key(&self, id: TaskId, bottom: &[u64]) -> u64 {
        match self.policy {
            SimPolicy::Fifo => u64::MAX - id.0 as u64, // FIFO: earlier id first
            SimPolicy::RandomOrder { seed } => mix64(seed ^ id.0 as u64),
            SimPolicy::BottomLevel
            | SimPolicy::CriticalityDvfs { .. }
            | SimPolicy::CriticalityPlacement
            | SimPolicy::LocalityAware => bottom[id.index()],
        }
    }

    /// Execute the TDG and return the schedule report.
    pub fn run(&self) -> SimReport {
        let n = self.graph.len();
        let bottom = if n > 0 {
            self.graph.bottom_levels()
        } else {
            Vec::new()
        };
        // Criticality flags for the DVFS policy: explicit annotations win,
        // Auto falls back to the exact analysis.
        let critical: Vec<bool> = match self.policy {
            SimPolicy::CriticalityDvfs { .. } | SimPolicy::CriticalityPlacement => {
                let auto = criticality::analyze(&self.graph, self.criticality_slack);
                self.graph
                    .nodes()
                    .map(|node| match node.meta.criticality {
                        Criticality::Critical => true,
                        Criticality::NonCritical => false,
                        Criticality::Auto => auto.critical[node.id.index()],
                    })
                    .collect()
            }
            _ => vec![false; n],
        };

        let mut pending: Vec<usize> = self.graph.nodes().map(|t| t.preds.len()).collect();
        let mut ready: BinaryHeap<ReadyEntry> = BinaryHeap::new();
        for node in self.graph.nodes() {
            if node.preds.is_empty() {
                ready.push(ReadyEntry {
                    key: self.ready_key(node.id, &bottom),
                    id: node.id,
                });
            }
        }

        let ncores = self.cores.len();
        let mut freq = self.cores.freqs.clone();
        let mut core_free_at = vec![0.0f64; ncores];
        let mut core_busy = vec![0.0f64; ncores];
        let mut idle = IdleCores::all(ncores);
        // Per-cluster predecessor weights of the task being placed.
        let mut weights: Vec<u64> = Vec::new();
        let mut events: BinaryHeap<Reverse<FinishEvent>> = BinaryHeap::new();
        let mut now = 0.0f64;
        let mut remaining = n;
        let mut dyn_energy = 0.0f64;
        let mut reconfigs = 0u64;
        let mut reconfig_stall = 0.0f64;
        let mut dvfs_lock_free_at = 0.0f64;
        let mut start_times = vec![0.0f64; n];
        let mut durations = vec![0.0f64; n];
        let mut finish_times = vec![0.0f64; n];
        let mut placements = vec![usize::MAX; n];
        let mut comm_delay_total = 0.0f64;
        let mut probe_overhead_total = 0.0f64;
        let mut migrations = 0u64;
        // Track current total dynamic power for the budget check:
        // sum over busy cores of c_dyn * f^3.
        let mut power_in_use = 0.0f64;

        while remaining > 0 {
            // Assign as many ready tasks as there are idle cores.
            while !ready.is_empty() && !idle.order.is_empty() {
                let entry = ready.pop().expect("checked non-empty");
                let tid = entry.id;
                let node = self.graph.node(tid);
                let is_crit = critical[tid.index()];

                // Core choice: criticality-aware policies send critical
                // tasks to the fastest idle core and non-critical tasks
                // to the slowest; agnostic policies take any idle core
                // (index order) — they do not know criticality exists.
                let aware = matches!(
                    self.policy,
                    SimPolicy::CriticalityDvfs { .. } | SimPolicy::CriticalityPlacement
                );
                let mut migrated = false;
                let pick = if let (false, Some((cs, _))) = (aware, self.cluster.as_ref()) {
                    // Two-level placement: weigh each cluster by the cost
                    // of the predecessors whose outputs live there, ask
                    // the schedule which cluster to prefer, and take its
                    // lowest idle core. No idle core there (or no
                    // preference) → lowest idle core anywhere; the former
                    // is a migration and pays the schedule's cost.
                    let topo = cs.topology();
                    weights.clear();
                    weights.resize(topo.clusters, 0);
                    for p in &node.preds {
                        let pc = placements[p.index()];
                        if pc != usize::MAX {
                            weights[topo.cluster_of(pc)] += self.graph.node(*p).meta.cost;
                        }
                    }
                    let anywhere = || idle.lowest_in(0, ncores).expect("idle non-empty");
                    match cs.preferred_cluster(&weights) {
                        Some(want) => {
                            let (lo, hi) = topo.cluster_span(want, ncores);
                            idle.lowest_in(lo, hi).unwrap_or_else(|| {
                                migrated = true;
                                anywhere()
                            })
                        }
                        None => anywhere(),
                    }
                } else if self.policy == SimPolicy::LocalityAware {
                    // Affinity: cost-weighted predecessors resident per
                    // idle core.
                    idle.order
                        .iter()
                        .enumerate()
                        .max_by_key(|&(_, &c)| {
                            node.preds
                                .iter()
                                .filter(|p| placements[p.index()] == c)
                                .map(|p| self.graph.node(*p).meta.cost)
                                .sum::<u64>()
                        })
                        .map(|(i, _)| i)
                        .expect("idle non-empty")
                } else if !aware {
                    idle.lowest_in(0, ncores).expect("idle non-empty")
                } else if is_crit {
                    idle.order
                        .iter()
                        .enumerate()
                        .max_by(|a, b| freq[*a.1].total_cmp(&freq[*b.1]))
                        .map(|(i, _)| i)
                        .expect("idle non-empty")
                } else {
                    idle.order
                        .iter()
                        .enumerate()
                        .min_by(|a, b| freq[*a.1].total_cmp(&freq[*b.1]))
                        .map(|(i, _)| i)
                        .expect("idle non-empty")
                };
                let core = idle.swap_remove(pick);

                // Frequency request under the DVFS policy.
                let mut start = now;
                if let SimPolicy::CriticalityDvfs {
                    f_high,
                    f_low,
                    arbiter,
                } = self.policy
                {
                    // Budget check with a demotion ladder: a critical task
                    // that cannot get turbo still runs at the core's base
                    // (nominal) frequency before falling to f_low.
                    let base = self.cores.freqs[core];
                    let candidates: [f64; 3] = if is_crit {
                        [f_high, base, f_low]
                    } else {
                        [f_low, f_low, f_low]
                    };
                    let mut want = f_low;
                    for cand in candidates {
                        let p_new = self.power.c_dyn * cand.powi(3);
                        if power_in_use + p_new <= self.power.budget {
                            want = cand;
                            break;
                        }
                    }
                    if (freq[core] - want).abs() > 1e-12 {
                        reconfigs += 1;
                        match arbiter {
                            DvfsArbiter::None => {}
                            DvfsArbiter::Software { lock_cost } => {
                                let lock_at = dvfs_lock_free_at.max(now);
                                let done = lock_at + lock_cost;
                                dvfs_lock_free_at = done;
                                reconfig_stall += done - now;
                                start = start.max(done);
                            }
                            DvfsArbiter::Rsu { latency } => {
                                reconfig_stall += latency;
                                start = start.max(now + latency);
                            }
                        }
                        freq[core] = want;
                    }
                }

                // Dispatch overhead under a cluster schedule: the victim
                // sweep a thief performs before finding this task, one
                // log2 of its probe domain — the whole machine for a flat
                // schedule, one cluster for a hierarchical one. This is
                // the term that makes flat stealing fall off with core
                // count while hierarchy holds.
                if let Some((cs, costs)) = self.cluster.as_ref() {
                    let domain = cs.probe_domain(core).max(1) as f64;
                    let mut ovh = costs.probe_cost * domain.log2();
                    if migrated {
                        ovh += costs.migrate_cost;
                        migrations += 1;
                    }
                    probe_overhead_total += ovh;
                    start += ovh;
                }

                // Remote-producer transfers delay the start.
                if self.comm_cost > 0.0 {
                    let mut earliest = start;
                    for p in &node.preds {
                        let pcore = placements[p.index()];
                        if pcore != core {
                            let factor = self
                                .cluster
                                .as_ref()
                                .map_or(1.0, |(cs, _)| cs.comm_factor(pcore, core));
                            let avail = finish_times[p.index()] + self.comm_cost * factor;
                            if avail > earliest {
                                earliest = avail;
                            }
                        }
                    }
                    comm_delay_total += earliest - start;
                    start = earliest;
                }
                let f = freq[core];
                let dur = node.meta.cost as f64 / f;
                let finish = start + dur;
                start_times[tid.index()] = start;
                durations[tid.index()] = dur;
                finish_times[tid.index()] = finish;
                placements[tid.index()] = core;
                core_busy[core] += dur;
                core_free_at[core] = finish;
                dyn_energy += self.power.c_dyn * node.meta.cost as f64 * f * f;
                power_in_use += self.power.c_dyn * f.powi(3);
                events.push(Reverse(FinishEvent {
                    time: finish,
                    task: tid,
                    core,
                }));
            }

            // Advance to the next completion.
            let Reverse(ev) = events.pop().expect("tasks remain, so events remain");
            now = ev.time;
            remaining -= 1;
            idle.push(ev.core);
            power_in_use -= self.power.c_dyn * freq[ev.core].powi(3);
            for &succ in &self.graph.node(ev.task).succs {
                pending[succ.index()] -= 1;
                if pending[succ.index()] == 0 {
                    ready.push(ReadyEntry {
                        key: self.ready_key(succ, &bottom),
                        id: succ,
                    });
                }
            }
            // Collect any other completions at the same instant so that
            // assignment sees the full idle set (determinism).
            while let Some(Reverse(peek)) = events.peek() {
                if peek.time > now {
                    break;
                }
                let Reverse(ev) = events.pop().expect("peeked");
                remaining -= 1;
                idle.push(ev.core);
                power_in_use -= self.power.c_dyn * freq[ev.core].powi(3);
                for &succ in &self.graph.node(ev.task).succs {
                    pending[succ.index()] -= 1;
                    if pending[succ.index()] == 0 {
                        ready.push(ReadyEntry {
                            key: self.ready_key(succ, &bottom),
                            id: succ,
                        });
                    }
                }
            }
        }

        let makespan = now;
        let busy_total: f64 = core_busy.iter().sum();
        let idle_total = makespan * ncores as f64 - busy_total;
        let energy = dyn_energy
            + self.power.c_static * makespan * ncores as f64
            + self.power.c_idle * idle_total;
        SimReport {
            makespan,
            energy,
            edp: energy * makespan,
            core_busy,
            reconfigs,
            reconfig_stall,
            comm_delay: comm_delay_total,
            probe_overhead: probe_overhead_total,
            migrations,
            start_times,
            durations,
            placements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators;

    fn static_sim(g: &TaskGraph, cores: usize) -> SimReport {
        ScheduleSimulator::new(g, CorePool::homogeneous(cores, 1.0), SimPolicy::BottomLevel).run()
    }

    #[test]
    fn chain_takes_serial_time_regardless_of_cores() {
        let g = generators::chain(10, 7);
        for cores in [1, 4, 16] {
            let r = static_sim(&g, cores);
            assert!((r.makespan - 70.0).abs() < 1e-9, "cores={cores}");
        }
    }

    #[test]
    fn fork_join_scales_with_cores() {
        let g = generators::fork_join(8, 10);
        let r1 = static_sim(&g, 1);
        let r8 = static_sim(&g, 8);
        assert!((r1.makespan - 100.0).abs() < 1e-9);
        // 8 cores: fork(10) + parallel mids(10) + join(10).
        assert!((r8.makespan - 30.0).abs() < 1e-9);
        assert!(r8.speedup_over(&r1) > 3.0);
    }

    #[test]
    fn schedule_respects_dependencies() {
        let g = generators::random_layered(8, 6, 5..50, 3);
        let r = static_sim(&g, 4);
        for node in g.nodes() {
            for &p in &node.preds {
                let p_end = r.start_times[p.index()] + g.node(p).meta.cost as f64;
                assert!(
                    r.start_times[node.id.index()] >= p_end - 1e-9,
                    "task {:?} started before pred {:?} finished",
                    node.id,
                    p
                );
            }
        }
    }

    #[test]
    fn no_core_runs_two_tasks_at_once() {
        let g = generators::random_layered(6, 8, 5..40, 11);
        let r = static_sim(&g, 3);
        // Build per-core interval lists and check for overlap.
        let mut per_core: Vec<Vec<(f64, f64)>> = vec![Vec::new(); 3];
        for node in g.nodes() {
            let s = r.start_times[node.id.index()];
            per_core[r.placements[node.id.index()]].push((s, s + node.meta.cost as f64));
        }
        for ivs in &mut per_core {
            ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
            for w in ivs.windows(2) {
                assert!(w[0].1 <= w[1].0 + 1e-9, "core overlap: {w:?}");
            }
        }
    }

    #[test]
    fn faster_cores_shorten_makespan() {
        let g = generators::fork_join(4, 100);
        let slow = ScheduleSimulator::new(&g, CorePool::homogeneous(4, 1.0), SimPolicy::Fifo).run();
        let fast = ScheduleSimulator::new(&g, CorePool::homogeneous(4, 2.0), SimPolicy::Fifo).run();
        assert!((fast.makespan - slow.makespan / 2.0).abs() < 1e-9);
    }

    #[test]
    fn energy_grows_quadratically_with_frequency() {
        let g = generators::chain(1, 100);
        let pm = PowerModel {
            c_dyn: 1.0,
            c_static: 0.0,
            c_idle: 0.0,
            budget: f64::INFINITY,
        };
        let e1 = ScheduleSimulator::new(&g, CorePool::homogeneous(1, 1.0), SimPolicy::Fifo)
            .with_power(pm)
            .run();
        let e2 = ScheduleSimulator::new(&g, CorePool::homogeneous(1, 2.0), SimPolicy::Fifo)
            .with_power(pm)
            .run();
        // E = c_dyn * cost * f²: 100 vs 400.
        assert!((e1.energy - 100.0).abs() < 1e-9);
        assert!((e2.energy - 400.0).abs() < 1e-9);
        // But EDP: 100*100 vs 400*50 — the faster run can still lose EDP.
        assert!(e2.edp > e1.edp);
    }

    #[test]
    fn criticality_dvfs_beats_static_on_chain_with_fans() {
        // The §3.1 shape: accelerate the chain, decelerate the fans.
        let g = generators::chain_with_fans(20, 6, 100, 40);
        let pm = PowerModel::default();
        let cores = 8;
        let static_r = ScheduleSimulator::new(
            &g,
            CorePool::homogeneous(cores, 1.0),
            SimPolicy::BottomLevel,
        )
        .with_power(pm)
        .run();
        let dvfs_r = ScheduleSimulator::new(
            &g,
            CorePool::homogeneous(cores, 1.0),
            SimPolicy::CriticalityDvfs {
                f_high: 1.5,
                f_low: 0.8,
                arbiter: DvfsArbiter::Rsu { latency: 0.0 },
            },
        )
        .with_power(pm)
        .run();
        assert!(
            dvfs_r.makespan < static_r.makespan,
            "criticality DVFS must shorten the critical chain: {} vs {}",
            dvfs_r.makespan,
            static_r.makespan
        );
        assert!(
            dvfs_r.edp < static_r.edp,
            "EDP must improve: {} vs {}",
            dvfs_r.edp,
            static_r.edp
        );
    }

    #[test]
    fn criticality_placement_wins_on_big_little() {
        // 12 slow + 4 fast cores; a strong critical chain. The aware
        // policy keeps the chain on fast cores; the agnostic one fills
        // cores in index order (slow first, as a naive round-robin over
        // an arbitrary core enumeration does) and strands the chain on
        // slow cores.
        let g = generators::chain_with_fans(24, 8, 100, 60);
        let mut freqs = vec![0.8; 12];
        freqs.extend(vec![2.0; 4]);
        let aware = ScheduleSimulator::new(
            &g,
            CorePool::heterogeneous(freqs.clone()),
            SimPolicy::CriticalityPlacement,
        )
        .run();
        let agnostic =
            ScheduleSimulator::new(&g, CorePool::heterogeneous(freqs), SimPolicy::BottomLevel)
                .run();
        assert!(
            aware.makespan < agnostic.makespan * 0.75,
            "criticality placement must exploit the fast cores: {} vs {}",
            aware.makespan,
            agnostic.makespan
        );
        assert_eq!(aware.reconfigs, 0, "placement changes no frequencies");
    }

    #[test]
    fn software_arbiter_stalls_more_than_rsu() {
        let g = generators::random_layered(10, 16, 20..80, 21);
        let mk = |arbiter| {
            ScheduleSimulator::new(
                &g,
                CorePool::homogeneous(16, 1.0),
                SimPolicy::CriticalityDvfs {
                    f_high: 1.5,
                    f_low: 0.8,
                    arbiter,
                },
            )
            .run()
        };
        let sw = mk(DvfsArbiter::Software { lock_cost: 5.0 });
        let rsu = mk(DvfsArbiter::Rsu { latency: 0.5 });
        assert!(sw.reconfig_stall > rsu.reconfig_stall);
        assert!(sw.makespan >= rsu.makespan);
    }

    #[test]
    fn power_budget_demotes_requests() {
        // Budget that fits only ~2 cores at f_high³ = 3.375 each.
        let g = generators::fork_join(16, 50);
        let pm = PowerModel {
            c_dyn: 1.0,
            c_static: 0.0,
            c_idle: 0.0,
            budget: 8.0,
        };
        let r = ScheduleSimulator::new(
            &g,
            CorePool::homogeneous(16, 1.0),
            SimPolicy::CriticalityDvfs {
                f_high: 1.5,
                f_low: 1.0,
                // slack so every mid task counts as critical
                arbiter: DvfsArbiter::None,
            },
        )
        .with_power(pm)
        .run();
        // With an unlimited budget all 16 mids would run at 1.5; with
        // budget 8 most run at 1.0, so makespan sits between the two
        // extremes.
        let fast = 50.0 / 1.5;
        assert!(r.makespan > 2.0 * fast, "budget must have demoted tasks");
    }

    #[test]
    fn report_efficiency_bounds() {
        let g = generators::fork_join(8, 10);
        let r = static_sim(&g, 4);
        let eff = r.efficiency(g.total_work() as f64);
        assert!(eff > 0.0 && eff <= 1.0 + 1e-9, "eff={eff}");
    }

    #[test]
    fn empty_graph_is_a_noop() {
        let g = TaskGraph::new();
        let r = static_sim(&g, 2);
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.energy, 0.0);
    }

    #[test]
    fn locality_awareness_pays_under_communication_costs() {
        // Independent block-chains: each chain's tasks share data, so a
        // locality-aware scheduler keeps a chain on one core while the
        // agnostic one scatters it and pays the transfer on every edge.
        let mut g = TaskGraph::new();
        for b in 0..8 {
            let mut prev = None;
            for s in 0..12 {
                let mut m = crate::task::TaskMeta::new(format!("c{b}s{s}"));
                m.cost = 50;
                let preds: Vec<_> = prev.into_iter().collect();
                prev = Some(g.add_task(m, &preds));
            }
        }
        let run = |policy| {
            ScheduleSimulator::new(&g, CorePool::homogeneous(8, 1.0), policy)
                .with_comm_cost(40.0)
                .run()
        };
        let local = run(SimPolicy::LocalityAware);
        let blind = run(SimPolicy::RandomOrder { seed: 7 });
        assert!(
            local.comm_delay < blind.comm_delay,
            "locality must reduce transfers: {} vs {}",
            local.comm_delay,
            blind.comm_delay
        );
        assert!(
            local.makespan <= blind.makespan,
            "{} vs {}",
            local.makespan,
            blind.makespan
        );
        // With zero comm cost the policies tie on this graph.
        let free =
            ScheduleSimulator::new(&g, CorePool::homogeneous(8, 1.0), SimPolicy::LocalityAware)
                .run();
        assert_eq!(free.comm_delay, 0.0);
        assert!((free.makespan - 600.0).abs() < 1e-9, "8 chains on 8 cores");
    }

    #[test]
    fn bottom_level_no_worse_than_random_order() {
        let g = generators::random_layered(12, 10, 5..200, 5);
        let bl = static_sim(&g, 4);
        let worst = (0..8u64)
            .map(|seed| {
                ScheduleSimulator::new(
                    &g,
                    CorePool::homogeneous(4, 1.0),
                    SimPolicy::RandomOrder { seed },
                )
                .run()
                .makespan
            })
            .fold(0.0f64, f64::max);
        assert!(
            bl.makespan <= worst + 1e-9,
            "bottom-level must not lose to the worst random order: {} vs {}",
            bl.makespan,
            worst
        );
    }

    #[test]
    fn gantt_renders_busy_and_idle() {
        let g = generators::fork_join(2, 10);
        let r = static_sim(&g, 2);
        let gantt = r.gantt(40);
        assert_eq!(gantt.lines().count(), 2);
        assert!(gantt.contains('#'));
        assert!(gantt.contains('.'), "the join leaves core 1 idle");
        // Durations recorded for every task.
        assert!(r.durations.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = generators::random_layered(8, 8, 5..60, 17);
        let a = static_sim(&g, 5);
        let b = static_sim(&g, 5);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.start_times, b.start_times);
        assert_eq!(a.placements, b.placements);
    }

    fn clustered_sim(
        g: &TaskGraph,
        sched: Arc<dyn ClusterSchedule>,
        costs: StealCosts,
        comm: f64,
    ) -> SimReport {
        let cores = sched.topology().workers();
        ScheduleSimulator::new(g, CorePool::homogeneous(cores, 1.0), SimPolicy::BottomLevel)
            .with_comm_cost(comm)
            .with_cluster_schedule(sched, costs)
            .run()
    }

    #[test]
    fn single_cluster_hierarchy_is_byte_identical_to_flat() {
        use crate::topology::{FlatSchedule, HierarchicalSchedule, Topology};
        // The A/B switch must be a no-op when there is nothing to be
        // aware of: one cluster spanning the machine. Byte-identical,
        // not approximately equal — same picks, same times.
        let g = generators::random_layered(10, 12, 5..90, 23);
        let topo = Topology::flat(16);
        let costs = StealCosts {
            probe_cost: 2.0,
            migrate_cost: 3.0,
        };
        let flat = clustered_sim(
            &g,
            Arc::new(FlatSchedule {
                topo,
                inter_penalty: 4.0,
            }),
            costs,
            10.0,
        );
        let hier = clustered_sim(
            &g,
            Arc::new(HierarchicalSchedule {
                topo,
                inter_penalty: 4.0,
            }),
            costs,
            10.0,
        );
        assert_eq!(flat.makespan.to_bits(), hier.makespan.to_bits());
        assert_eq!(flat.start_times, hier.start_times);
        assert_eq!(flat.placements, hier.placements);
        assert_eq!(flat.probe_overhead.to_bits(), hier.probe_overhead.to_bits());
        assert_eq!(flat.comm_delay.to_bits(), hier.comm_delay.to_bits());
        assert_eq!(hier.migrations, 0);
    }

    #[test]
    fn hierarchy_holds_where_flat_stealing_falls_off() {
        use crate::topology::{FlatSchedule, HierarchicalSchedule, Topology};
        // Same machine (4 clusters × 64 cores), same interconnect, same
        // graph — the only difference is whether the scheduler sees the
        // hierarchy. Flat thieves probe 256 victims (log2 = 8) on every
        // dispatch and scatter producer-consumer chains across the
        // interconnect; hierarchical thieves probe 64 (log2 = 6) and
        // keep chains clustered.
        let g = generators::random_layered(24, 48, 20..200, 31);
        let topo = Topology::new(4, 64);
        let costs = StealCosts {
            probe_cost: 2.0,
            migrate_cost: 1.0,
        };
        let flat = clustered_sim(
            &g,
            Arc::new(FlatSchedule {
                topo,
                inter_penalty: 4.0,
            }),
            costs,
            15.0,
        );
        let hier = clustered_sim(
            &g,
            Arc::new(HierarchicalSchedule {
                topo,
                inter_penalty: 4.0,
            }),
            costs,
            15.0,
        );
        assert!(
            hier.makespan < flat.makespan,
            "hierarchy must win on a clustered 256-core machine: {} vs {}",
            hier.makespan,
            flat.makespan
        );
        assert!(
            hier.probe_overhead < flat.probe_overhead,
            "cluster-bounded probing must cost less: {} vs {}",
            hier.probe_overhead,
            flat.probe_overhead
        );
    }
    /// A seeded layered DAG drawn from `mix64` rather than `rand` (the
    /// offline stub and the published crate draw different sequences), so
    /// the pins below hold under both.
    fn pinned_graph() -> TaskGraph {
        let (layers, width) = (6usize, 300usize);
        let mut z = 0x5EED_u64;
        let mut draw = move || {
            z = mix64(z);
            z
        };
        let mut g = TaskGraph::new();
        let mut prev: Vec<TaskId> = Vec::new();
        for l in 0..layers {
            let mut cur = Vec::with_capacity(width);
            for w in 0..width {
                let mut m = crate::task::TaskMeta::new(format!("l{l}w{w}"));
                m.cost = 5 + draw() % 90;
                let mut preds: Vec<TaskId> = Vec::new();
                if !prev.is_empty() {
                    for _ in 0..1 + draw() % 3 {
                        let p = prev[(draw() % width as u64) as usize];
                        if !preds.contains(&p) {
                            preds.push(p);
                        }
                    }
                }
                cur.push(g.add_task(m, &preds));
            }
            prev = cur;
        }
        g
    }

    /// `[makespan bits, energy bits, migrations, FNV-1a of placements]`
    /// of every policy × cluster schedule × core count, recorded from the
    /// commit before the idle-core bitmap (linear `min_by_key` picks).
    /// Rows: cores 8 then 200; within a core count the six policies in
    /// `pinned_policies` order; within a policy no schedule, flat,
    /// hierarchical.
    #[rustfmt::skip]
    const PINNED_SCHEDULES: [[u64; 4]; 36] = [
        [0x40bf450000000000, 0x410c8fceba06d3a5, 0, 0x5d1ec6d54142db2b],
        [0x40c2779555555559, 0x410c2efacda740e7, 0, 0xe3c20d01ce70123e],
        [0x40c19f4000000002, 0x410c5156b69d036f, 734, 0xba6f304e8da3b02a],
        [0x40bf0a4000000000, 0x410c92edc6d3a072, 0, 0x8c332c6165399930],
        [0x40c2668000000000, 0x410c2b0a33333330, 0, 0xe03bc30c68f51bb6],
        [0x40c18a2000000000, 0x410c4c0bcda740e0, 766, 0xadbd95d4533e3ccb],
        [0x40cb152000000000, 0x40f0cefa88888881, 0, 0x4d6139714f2258b8],
        [0x40cdb94aaaaaaaab, 0x40f134675555554e, 0, 0x2d1fe5b771e26de7],
        [0x40ccd7eaaaaaaaab, 0x40f11298eeeeeee8, 0, 0x2e998e9298cd98d7],
        [0x40bf090000000005, 0x410c935192c5f931, 0, 0xf2f512b117a067e0],
        [0x40c263e000000000, 0x410c3430e8f5c28c, 0, 0xd57390d6fd5dfc75],
        [0x40c16f2000000000, 0x410c563ba58bf25c, 0, 0x2dc296ab122c28cd],
        [0x40bf7e3555555557, 0x410c887340000003, 0, 0xc671f480fe22b02a],
        [0x40c31daaaaaaaaab, 0x410c33f80b17e4bb, 0, 0xae120f8f2113b73b],
        [0x40c2a7eaaaaaaaab, 0x410c0f1b0f5c28f9, 489, 0xbc627e17206b86b0],
        [0x40bf090000000005, 0x410c933f62fc9635, 0, 0xb0fcddbbc14d7676],
        [0x40c2668000000000, 0x410c2b0a33333330, 0, 0xe03bc30c68f51bb6],
        [0x40c18a2000000000, 0x410c4c0bcda740e0, 766, 0xadbd95d4533e3ccb],
        [0x4080b15555555555, 0x410c9852eaaaaaa2, 0, 0x22867a91884c9969],
        [0x4084a3822cbd80c6, 0x410c1d25abe8dfc5, 0, 0x2934e3bcffe5e033],
        [0x408262e7b471b3a9, 0x410bfaf2e9b4af36, 756, 0x3d8c05998d8fbe5b],
        [0x4083e20000000000, 0x410cd98ea8f5c286, 0, 0x0da97387d2bad082],
        [0x4086bfcf68e36753, 0x410c0dd4869c91a9, 0, 0x15020060727deb96],
        [0x4085ffcf68e36753, 0x410c39903c5f2102, 612, 0x0e88614ba74ca904],
        [0x4082e60000000000, 0x40f12cea88888881, 0, 0x4652adfc5df3c134],
        [0x4086fbcf68e36754, 0x40f22207251dd4b9, 0, 0x2f1a6b8b5f7b85bf],
        [0x40861c1ca5094de1, 0x40f1ed993f36b6c1, 0, 0x9799150a422f38ce],
        [0x4082e60000000000, 0x4107590cd70a3d7b, 0, 0xc29466ba91279801],
        [0x4085d9822cbd80c5, 0x41092f6b3f894cf6, 0, 0x2016b16b54b3c90c],
        [0x408525822cbd80c5, 0x4108ff85c13e3520, 0, 0x411ec3b72b919f32],
        [0x40809daaaaaaaaaa, 0x410c6793a4b17e4c, 0, 0x1f5773dda2983c2d],
        [0x4085222cd7682b70, 0x410c287714dea253, 0, 0x3c82981b362161b0],
        [0x4083977a138e11fe, 0x410c2f1734b10c83, 462, 0xcdb4d7ba38e91bb6],
        [0x4082660000000000, 0x410b7fbae8f5c28d, 0, 0x6410419b7b303f90],
        [0x4086bfcf68e36753, 0x410c0dd4869c91a9, 0, 0x15020060727deb96],
        [0x4085ffcf68e36753, 0x410c39903c5f2102, 612, 0x0e88614ba74ca904],
    ];

    fn pinned_policies() -> [SimPolicy; 6] {
        [
            SimPolicy::Fifo,
            SimPolicy::BottomLevel,
            SimPolicy::CriticalityDvfs {
                f_high: 1.5,
                f_low: 0.8,
                arbiter: DvfsArbiter::Rsu { latency: 0.5 },
            },
            SimPolicy::CriticalityPlacement,
            SimPolicy::RandomOrder { seed: 7 },
            SimPolicy::LocalityAware,
        ]
    }

    #[test]
    fn every_policy_and_schedule_is_pinned_at_8_and_200_cores() {
        use crate::topology::{FlatSchedule, HierarchicalSchedule, Topology};
        let g = pinned_graph();
        let costs = StealCosts {
            probe_cost: 2.0,
            migrate_cost: 0.5,
        };
        let mut rows = Vec::new();
        // 200 cores: four 50-core clusters, none aligned to a bitmap word.
        for (cores, topo) in [(8, Topology::new(2, 4)), (200, Topology::new(4, 50))] {
            // Heterogeneous, so the criticality policies' picks differ.
            let pool =
                CorePool::heterogeneous((0..cores).map(|c| 0.8 + 0.4 * (c % 4) as f64).collect());
            let inter_penalty = 4.0;
            let schedules: [Option<Arc<dyn ClusterSchedule>>; 3] = [
                None,
                Some(Arc::new(FlatSchedule {
                    topo,
                    inter_penalty,
                })),
                Some(Arc::new(HierarchicalSchedule {
                    topo,
                    inter_penalty,
                })),
            ];
            for policy in pinned_policies() {
                for schedule in &schedules {
                    let mut sim =
                        ScheduleSimulator::new(&g, pool.clone(), policy).with_comm_cost(6.0);
                    if let Some(schedule) = schedule {
                        sim = sim.with_cluster_schedule(schedule.clone(), costs);
                    }
                    let r = sim.run();
                    let placed = r.placements.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &c| {
                        (h ^ c as u64).wrapping_mul(0x0000_0100_0000_01b3)
                    });
                    rows.push([
                        r.makespan.to_bits(),
                        r.energy.to_bits(),
                        r.migrations,
                        placed,
                    ]);
                }
            }
        }
        assert_eq!(rows, PINNED_SCHEDULES, "a simulated schedule moved");
    }
}
