//! `sim_pipeline`: the figure pipeline's three simulators on one thread,
//! with no `Runtime` anywhere — runtime changes predict no movement here,
//! simulator changes predict none anywhere else.
//!
//! One pass = raa-sim `Machine::run_kernel` over the six NAS kernels
//! (hybrid and cache-only, 64 cores) + `ScheduleSimulator::run` of a
//! blocked-CG task graph at 64 and 1,024 cores (flat, and hierarchical
//! where it differs) + every `all_sorters()` sorter on seeded keys. The
//! three stages are sized to take about a third of a pass each.

use std::sync::Arc;
use std::time::Instant;

use raa_runtime::{
    AccessMode, ClusterSchedule, CorePool, FlatSchedule, HierarchicalSchedule, Region, RegionId,
    RegionRange, ScheduleSimulator, SimPolicy, StealCosts, TaskGraph, TaskMeta, Topology,
};
use raa_sim::{HierarchyMode, Machine, MachineConfig};
use raa_vector::{all_sorters, EngineCfg};
use raa_workloads::{all_kernels, Kernel, KernelCfg, Scale};

use crate::report::Ledger;
use crate::rng::SplitMix64;
use crate::spans::{Spans, NONE};
use crate::summary::{dist, repeat_for};
use crate::Ctx;

const SIM_CORES: usize = 64;
/// Blocked-CG graph handed to simsched: wide enough (1,024 blocks) that
/// 1,024 virtual cores have work.
const CG_BLOCKS: u64 = 1024;
const CG_ITERS: u64 = 16;
/// Cores per cluster of the clustered schedules (the fig6 replay's).
const CLUSTER: usize = 64;
const SORT_KEYS: usize = 1 << 16;
/// `(metric suffix, cores, hierarchical)` of the simsched configurations.
/// At 64 cores one cluster spans the machine and the two schedules are
/// the same schedule, so hierarchical runs at 1,024 only.
const SIMSCHED: [(&str, usize, bool); 3] = [
    ("c64.flat", 64, false),
    ("c1024.flat", 1024, false),
    ("c1024.hier", 1024, true),
];

/// Everything a pass consumes, generated from the seed before timing.
pub struct Inputs {
    kernels: Vec<Box<dyn Kernel>>,
    graph: TaskGraph,
    keys: Vec<u64>,
}

pub fn generate(seed: u64) -> Inputs {
    let mut rng = SplitMix64::new(seed);
    let kernels = all_kernels(KernelCfg {
        cores: SIM_CORES,
        scale: Scale::Small,
        seed: rng.next_u64(),
    });
    let graph = blocked_cg_graph(&mut rng);
    let keys = (0..SORT_KEYS).map(|_| rng.next_u64() >> 32).collect();
    Inputs {
        kernels,
        graph,
        keys,
    }
}

/// The TDG of a blocked CG (per iteration and block: spmv, dot, axpy;
/// one scale per iteration; the dots serialised on the scalar), built by
/// the same dependency discovery the online runtime uses. Task costs
/// carry a seeded jitter so the schedule is an input, not a constant.
fn blocked_cg_graph(rng: &mut SplitMix64) -> TaskGraph {
    let block = |id: u64, b: u64| Region::new(RegionId(id), RegionRange::new(b, b + 1));
    let scalar = Region::new(RegionId(3), RegionRange::new(0, 1));
    let mut tasks = Vec::new();
    let mut task = |label: &str, cost: u64, accesses: &[(Region, AccessMode)]| {
        let mut meta = TaskMeta::new(label);
        meta.cost = cost;
        meta.accesses = accesses
            .iter()
            .map(|&(region, mode)| raa_runtime::region::Access { region, mode })
            .collect();
        tasks.push(meta);
    };
    for _ in 0..CG_ITERS {
        for b in 0..CG_BLOCKS {
            let cost = 24 + rng.next_u64() % 16;
            task(
                "spmv",
                cost,
                &[
                    (block(1, b), AccessMode::Read),
                    (block(2, b), AccessMode::Write),
                ],
            );
        }
        for b in 0..CG_BLOCKS {
            task(
                "dot",
                1,
                &[
                    (block(2, b), AccessMode::Read),
                    (scalar, AccessMode::ReadWrite),
                ],
            );
        }
        task("scale", 2, &[(scalar, AccessMode::ReadWrite)]);
        for b in 0..CG_BLOCKS {
            let cost = 6 + rng.next_u64() % 4;
            task(
                "axpy",
                cost,
                &[
                    (scalar, AccessMode::Read),
                    (block(1, b), AccessMode::ReadWrite),
                ],
            );
        }
    }
    TaskGraph::from_accesses(tasks)
}

/// FNV-1a over 64-bit words: the digest of every simulated statistic.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folded to 48 bits so the value survives a trip through a JSON
    /// number (an f64) exactly.
    pub fn value(self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & ((1 << 48) - 1)
    }
}

/// Host seconds per stage item of one pass, and what the pass computed.
struct Pass {
    secs: f64,
    digest: u64,
    /// Per kernel: simulated memory accesses and host seconds (both
    /// hierarchy modes together).
    kernels: Vec<(u64, f64)>,
    simsched_secs: [f64; 3],
    vector_secs: Vec<f64>,
    sorted: bool,
}

fn pass(inp: &Inputs, spans: &mut Spans) -> Pass {
    let t0 = Instant::now();
    let root = spans.open("pass", NONE, 0);
    let mut digest = Digest::new();

    let stage = spans.open("sim", root, 0);
    let mut kernels = Vec::new();
    for kernel in &inp.kernels {
        let k0 = Instant::now();
        let span = spans.open("run_kernel", stage, 0);
        let mut accesses = 0;
        for mode in [HierarchyMode::Hybrid, HierarchyMode::CacheOnly] {
            let mut m = Machine::new(
                MachineConfig::tiled(SIM_CORES, mode),
                kernel.space().spm_ranges(),
            );
            let r = std::hint::black_box(m.run_kernel(kernel.as_ref()));
            accesses += r.mem_refs;
            for w in [
                r.cycles,
                r.energy.total().to_bits(),
                r.noc_flits,
                r.noc_flit_hops,
                r.mem_refs,
                r.l1_hits,
                r.l1_misses,
                r.l2_hits,
                r.l2_misses,
                r.spm_hits,
                r.spm_fills,
                r.dram_accesses,
                r.invalidations,
            ] {
                digest.word(w);
            }
        }
        spans.close(span);
        kernels.push((accesses, k0.elapsed().as_secs_f64()));
    }
    spans.close(stage);

    let stage = spans.open("simsched", root, 0);
    let mut simsched_secs = [0.0; 3];
    for (slot, &(_, cores, hier)) in simsched_secs.iter_mut().zip(&SIMSCHED) {
        let k0 = Instant::now();
        let span = spans.open("simsched_run", stage, 0);
        let topo = Topology::new(cores / CLUSTER, CLUSTER);
        let schedule: Arc<dyn ClusterSchedule> = if hier {
            Arc::new(HierarchicalSchedule {
                topo,
                inter_penalty: 4.0,
            })
        } else {
            Arc::new(FlatSchedule {
                topo,
                inter_penalty: 4.0,
            })
        };
        let costs = StealCosts {
            probe_cost: 2.0,
            migrate_cost: 0.5,
        };
        let r = ScheduleSimulator::new(
            &inp.graph,
            CorePool::homogeneous(cores, 1.0),
            SimPolicy::BottomLevel,
        )
        .with_comm_cost(8.0)
        .with_cluster_schedule(schedule, costs)
        .run();
        let r = std::hint::black_box(r);
        for w in [
            r.makespan.to_bits(),
            r.energy.to_bits(),
            r.comm_delay.to_bits(),
            r.migrations,
        ] {
            digest.word(w);
        }
        spans.close(span);
        *slot = k0.elapsed().as_secs_f64();
    }
    spans.close(stage);

    let stage = spans.open("vector", root, 0);
    let mut vector_secs = Vec::new();
    let mut sorted = true;
    for sorter in all_sorters() {
        let mut keys = inp.keys.clone();
        let k0 = Instant::now();
        let span = spans.open("sort", stage, 0);
        let cycles = sorter.sort(EngineCfg::new(64, 4), std::hint::black_box(&mut keys));
        spans.close(span);
        vector_secs.push(k0.elapsed().as_secs_f64());
        digest.word(cycles); // cycles ÷ keys is the figure's CPT
        sorted &= keys.windows(2).all(|w| w[0] <= w[1]) && keys.len() == inp.keys.len();
    }
    spans.close(stage);
    spans.close(root);
    Pass {
        secs: t0.elapsed().as_secs_f64(),
        digest: digest.value(),
        kernels,
        simsched_secs,
        vector_secs,
        sorted,
    }
}

/// Ops of one pass: two machine runs per kernel, the simsched runs, the
/// sorts.
fn ops_per_pass(inp: &Inputs) -> u64 {
    (inp.kernels.len() * 2 + SIMSCHED.len() + all_sorters().len()) as u64
}

/// Output check: every pass sorted its keys and simulated the same
/// statistics as the first.
fn check(passes: &[Pass], ops: u64, ledger: &mut Ledger) {
    ledger.attempted += passes.len() as u64 * ops;
    for (i, p) in passes.iter().enumerate() {
        if p.digest != passes[0].digest {
            ledger.failed += 1;
            ledger.fail(format!(
                "pass {i}: sim.stats_digest {} differs from pass 0's {}",
                p.digest, passes[0].digest
            ));
        }
        if !p.sorted {
            ledger.failed += 1;
            ledger.fail(format!("pass {i}: a sorter returned unsorted keys"));
        }
    }
}

pub fn run(ctx: &Ctx, ledger: &mut Ledger) {
    ledger
        .notes
        .push("workers: none (single thread, no Runtime)".into());
    // Set-up = input generation, several times over for a steady median
    // (the untraced run reports it). No warm-up pass: a single-threaded
    // simulator keeps nothing warm between passes, and a pass inside the
    // set-up would hide work moved from the pass into generation.
    let mut setups = Vec::new();
    let mut inputs = None;
    while ctx.another_setup(&setups) {
        let t0 = Instant::now();
        inputs = Some(std::hint::black_box(generate(ctx.seed)));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let inp = inputs.expect("at least one set-up");
    let ops = ops_per_pass(&inp);
    let sim_tasks = (inp.graph.len() * SIMSCHED.len()) as f64;

    if !ctx.traced {
        let passes = repeat_for(ctx.seconds, 3, || pass(&inp, &mut Spans::off()));
        check(&passes, ops, ledger);
        let secs: Vec<f64> = passes.iter().map(|p| p.secs).collect();
        ledger.put_closed_loop("pass_s", &setups, &secs, sim_tasks);
        return;
    }

    // Traced run: an untraced stretch, then a traced one; per-stage
    // numbers come from the traced passes' spans.
    let plain = repeat_for(ctx.seconds * 0.3, 3, || pass(&inp, &mut Spans::off()));
    let mut spans = Spans::on(ctx.origin);
    let traced = repeat_for(ctx.seconds * 0.5, 3, || pass(&inp, &mut spans));
    check(&plain, ops, ledger);
    check(&traced, ops, ledger);
    if plain[0].digest != traced[0].digest {
        ledger.fail("sim.stats_digest differs between the untraced and the traced passes");
    }
    let med = |f: &dyn Fn(&Pass) -> f64, ps: &[Pass]| dist(&ps.iter().map(f).collect::<Vec<_>>());
    let untraced_s = med(&|p| p.secs, &plain).median;
    let traced_s = med(&|p| p.secs, &traced).median;
    // Throughput is 1/pass time, so the overhead is the rate lost.
    ledger.put("trace_overhead_frac", 1.0 - untraced_s / traced_s);
    ledger.put("sim.stats_digest", traced[0].digest as f64);

    let mut all_accesses = 0.0;
    let mut all_secs = Vec::new();
    for (k, kernel) in inp.kernels.iter().enumerate() {
        let accesses = traced[0].kernels[k].0 as f64;
        all_accesses += accesses;
        let name = format!("sim.accesses_per_s.{}", kernel.name().to_lowercase());
        ledger.put_dist(name, med(&|p| accesses / p.kernels[k].1, &traced));
    }
    for p in &traced {
        all_secs.push(all_accesses / p.kernels.iter().map(|k| k.1).sum::<f64>());
    }
    ledger.put_dist("sim.accesses_per_s", dist(&all_secs));
    for (c, &(suffix, ..)) in SIMSCHED.iter().enumerate() {
        let tasks = inp.graph.len() as f64;
        ledger.put_dist(
            format!("simsched.tasks_per_s.{suffix}"),
            med(&|p| tasks / p.simsched_secs[c], &traced),
        );
    }
    for (s, sorter) in all_sorters().iter().enumerate() {
        let name = format!("vector.elems_per_s.{}", sorter.name());
        ledger.put_dist(name, med(&|p| SORT_KEYS as f64 / p.vector_secs[s], &traced));
    }

    // Isolated probe: kernel trace generation alone (the part of a
    // machine run that is the workload generator, not the simulator).
    let rates = repeat_for(ctx.seconds * 0.1, 3, || {
        let k0 = Instant::now();
        let mut events = 0u64;
        for kernel in &inp.kernels {
            for core in 0..kernel.cores() {
                events += std::hint::black_box(kernel.core_trace(core)).count() as u64;
            }
        }
        events as f64 / k0.elapsed().as_secs_f64()
    });
    ledger.put_dist("workloads.trace_events_per_s", dist(&rates));
    ctx.write_trace(&spans, ledger);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let of = |words: &[u64]| {
            let mut d = Digest::new();
            words.iter().for_each(|&w| d.word(w));
            d.value()
        };
        assert_eq!(of(&[1, 2, 3]), of(&[1, 2, 3]));
        assert_ne!(of(&[1, 2, 3]), of(&[3, 2, 1]));
        assert_ne!(of(&[0]), of(&[]));
        assert!(of(&[u64::MAX; 4]) < 1 << 48);
        // Pinned: a changed hash would silently break run-to-run comparison.
        assert_eq!(of(&[]), 0x9ce4_8422_2325 ^ 0xcbf2);
    }

    #[test]
    fn graph_is_seeded_and_cg_shaped() {
        let a = blocked_cg_graph(&mut SplitMix64::new(7));
        let b = blocked_cg_graph(&mut SplitMix64::new(7));
        let c = blocked_cg_graph(&mut SplitMix64::new(8));
        assert_eq!(a.len() as u64, CG_ITERS * (3 * CG_BLOCKS + 1));
        assert_eq!(a.total_work(), b.total_work());
        assert_ne!(a.total_work(), c.total_work());
        assert!(a.edge_count() > a.len());
    }
}
