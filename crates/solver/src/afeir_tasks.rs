//! Fully task-based AFEIR: the recovery is just another dataflow task.
//!
//! §4: "we can lever the asynchrony of task-based programming models to
//! perform our recoveries' interpolations simultaneously with the normal
//! workload of the solver … by scheduling the recoveries in tasks that
//! are placed out of the critical path of the solver."
//!
//! This module is a driver over the one blocked task-parallel CG program
//! (`BlockedCg` in [`crate::cg`]): the iteration's tasks — labels,
//! accesses, cost hints, reference streams — are that program's, and
//! what is written here is only the DUE and its recovery. When the DUE
//! strikes, the driver submits two tasks instead of stalling:
//!
//! 1. a **snapshot** task — cheap — that copies the algebraic inputs the
//!    recovery needs (`r[block]`, `x` outside the block) into a private
//!    buffer. Only this task carries WAR edges against the solver's
//!    updates, so the solver is released after a memcpy;
//! 2. the **recovery** task — the expensive local solve — that reads
//!    only the private snapshot and writes `x[block]`. Every subsequent
//!    task touching `x[block]` waits on it through the ordinary
//!    dependence system; everything else streams past.

use std::sync::Arc;

use raa_runtime::{AccessMode, Runtime};

use crate::cg::{rows, BlockedCg};
use crate::csr::Csr;
use crate::fault::FaultSpec;
use crate::recovery::recover_x_block;

/// Outcome of the task-based resilient solve.
#[derive(Clone, Debug)]
pub struct AfeirTasksResult {
    pub x: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// Tasks this solve spawned (recovery included) — not the runtime's
    /// lifetime total.
    pub tasks: u64,
    /// Dependency edges the runtime discovered among them.
    pub edges: u64,
}

/// Solver parameters for [`cg_afeir_tasks`].
#[derive(Clone, Debug)]
pub struct AfeirTasksCfg {
    /// Row-block count of the blocked CG.
    pub blocks: usize,
    /// Relative residual tolerance.
    pub tol: f64,
    pub max_iters: usize,
    /// Inner tolerance of the recovery solve.
    pub local_tol: f64,
}

impl Default for AfeirTasksCfg {
    fn default() -> Self {
        AfeirTasksCfg {
            blocks: 8,
            tol: 1e-9,
            max_iters: 10_000,
            local_tol: 1e-13,
        }
    }
}

/// Blocked CG with an injected DUE recovered by dataflow tasks.
///
/// The fault wipes `fault.block` of `x` right after iteration
/// `fault.at_iter`'s taskwait; recovery proceeds concurrently with the
/// following iterations.
pub fn cg_afeir_tasks(
    rt: &Runtime,
    a: Arc<Csr>,
    b: &[f64],
    fault: FaultSpec,
    cfg: &AfeirTasksCfg,
) -> AfeirTasksResult {
    let AfeirTasksCfg {
        blocks,
        tol,
        max_iters,
        local_tol,
    } = *cfg;
    assert!(fault.block.end <= a.n());
    let before = rt.stats();
    let cg = BlockedCg::new(rt, Arc::clone(&a), b, blocks);
    let b_vec = Arc::new(b.to_vec());

    let mut injected = false;
    let mut iter = 0usize;
    let mut rr = cg.scalars.read().rr;
    while iter < max_iters && cg.rel(rr) > tol {
        // --- the DUE + its task-based recovery ---
        if !injected && iter == fault.at_iter {
            injected = true;
            inject_and_recover(
                rt,
                Arc::clone(&a),
                Arc::clone(&b_vec),
                &cg.x,
                &cg.r,
                &fault,
                local_tol,
            );
        }
        cg.spawn_iteration(rt, || {});
        // `taskwait on(scalars)`: only the scalar chain is awaited, so
        // the recovery task overlaps freely across iterations — the §4
        // asynchrony, provided by the dependence system alone.
        rt.taskwait_on(&cg.scalars);
        rr = cg.scalars.read().rr;
        iter += 1;
    }
    rt.taskwait();
    let stats = rt.stats();
    let x_final = cg.x.read().clone();
    AfeirTasksResult {
        converged: cg.rel(rr) <= tol,
        x: x_final,
        iterations: iter,
        tasks: stats.spawned - before.spawned,
        edges: stats.edges - before.edges,
    }
}

/// Corrupt `x` per the spec, then — for *detected* faults — submit
/// snapshot + recovery tasks. A silent fault ([`crate::fault::FaultMode`]
/// `BitFlip`) injects the corruption and returns: the solver was never
/// told, so no recovery may run (that is what makes it an SDC).
///
/// Important detail: the DUE is injected *between* iterations (the state
/// is algebraically consistent: `r = b − A·x`), so the snapshot task —
/// which the tracker orders against the surrounding iteration tasks via
/// ordinary RAW/WAR edges — captures exactly the state the exact-
/// recovery algebra needs. The x-update of the lost block in following
/// iterations is ordered **after** the recovery's write through the
/// region dependence, so no accumulator machinery is needed here: the
/// dependence system provides it.
fn inject_and_recover(
    rt: &Runtime,
    a: Arc<Csr>,
    b: Arc<Vec<f64>>,
    x: &raa_runtime::DataHandle<Vec<f64>>,
    r: &raa_runtime::DataHandle<Vec<f64>>,
    fault: &FaultSpec,
    local_tol: f64,
) {
    // The fault itself: done inline — the "hardware" corrupted the data;
    // this is not a task.
    {
        let mut xv = x.write();
        fault.inject(&mut xv);
    }
    if !fault.mode.is_detected() {
        return;
    }
    let block = fault.block.clone();
    // Snapshot task: cheap copy of r[block] and x-outside. Carries the
    // WAR edges so the solver only waits a memcpy.
    let snap = rt.register("recovery-snapshot", (Vec::new(), Vec::new()));
    {
        let (x, r, snap, block) = (x.clone(), r.clone(), snap.clone(), block.clone());
        rt.task("afeir-snapshot")
            .reads(&x)
            .region(rows(&r, &block), AccessMode::Read)
            .writes(&snap)
            .idempotent(move || {
                let xv = x.read();
                let rv = r.read();
                *snap.write() = (xv.clone(), rv[block.clone()].to_vec());
            })
            .spawn();
    }
    // Recovery task: the long local solve, reading only the snapshot and
    // writing the lost block. Downstream tasks on x[block] wait on this
    // through the ordinary dependence system.
    {
        let (x, snap, block) = (x.clone(), snap.clone(), block.clone());
        rt.task("afeir-recovery")
            .reads(&snap)
            .region(rows(&x, &block), AccessMode::Write)
            .idempotent(move || {
                let (x_snap, r_block) = snap.read().clone();
                // Rebuild the full-r view the algebra expects: only
                // r[block] is read by recover_x_block.
                let mut r_full = vec![0.0; x_snap.len()];
                r_full[block.clone()].copy_from_slice(&r_block);
                let rec = recover_x_block(&a, &b, &r_full, &x_snap, block.clone(), local_tol);
                x.write()[block.clone()].copy_from_slice(&rec);
            })
            .spawn();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::fault::FaultTarget;
    use crate::fixtures::system;
    use raa_runtime::RuntimeConfig;

    #[test]
    fn task_based_afeir_converges_on_ideal_trajectory() {
        let (a, b) = system(24);
        let ideal = cg(&a, &b, 1e-9, 4000, |_, _| {});
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let fault = FaultSpec::new(40, 200..320, FaultTarget::X);
        let cfg = AfeirTasksCfg {
            blocks: 6,
            tol: 1e-9,
            max_iters: 4000,
            local_tol: 1e-13,
        };
        let res = cg_afeir_tasks(&rt, Arc::clone(&a), &b, fault, &cfg);
        assert!(res.converged);
        assert!(
            res.iterations.abs_diff(ideal.iterations) <= 2,
            "task-based exact recovery must stay on trajectory: {} vs {}",
            res.iterations,
            ideal.iterations
        );
        // The answer actually solves the system.
        let rel = a.residual_inf(&res.x, &b) / b.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(rel < 1e-6, "true residual {rel}");
        // Recovery added exactly 2 tasks beyond the iteration structure.
        assert!(res.tasks > 0 && res.edges > 0);
    }

    #[test]
    fn task_and_edge_counts_are_the_solves_own() {
        let (a, b) = system(12);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let fault = FaultSpec::new(10, 30..60, FaultTarget::X);
        let cfg = AfeirTasksCfg {
            blocks: 4,
            ..Default::default()
        };
        let first = cg_afeir_tasks(&rt, Arc::clone(&a), &b, fault.clone(), &cfg);
        let second = cg_afeir_tasks(&rt, Arc::clone(&a), &b, fault, &cfg);
        assert!(first.converged && second.converged);
        assert_eq!(first.iterations, second.iterations);
        assert_eq!(
            (first.tasks, first.edges),
            (second.tasks, second.edges),
            "a second solve on the same runtime reports its own counts"
        );
    }

    #[test]
    fn recovery_block_alignment_is_not_required() {
        // The lost block need not match the CG blocking.
        let (a, b) = system(20);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let fault = FaultSpec::new(25, 130..250, FaultTarget::X);
        let cfg = AfeirTasksCfg {
            blocks: 5,
            tol: 1e-8,
            max_iters: 3000,
            ..Default::default()
        };
        let res = cg_afeir_tasks(&rt, Arc::clone(&a), &b, fault, &cfg);
        assert!(res.converged);
    }

    #[test]
    fn fault_on_first_iteration() {
        let (a, b) = system(16);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let fault = FaultSpec::new(0, 0..64, FaultTarget::X);
        let cfg = AfeirTasksCfg {
            blocks: 4,
            tol: 1e-8,
            max_iters: 3000,
            ..Default::default()
        };
        let res = cg_afeir_tasks(&rt, a, &b, fault, &cfg);
        assert!(res.converged);
    }
}
