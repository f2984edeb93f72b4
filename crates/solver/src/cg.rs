//! Conjugate Gradient: sequential and blocked task-parallel.

use std::ops::Range;
use std::sync::Arc;

use raa_runtime::{program, AccessMode, DataHandle, FaultReport, Region, TaskScope};
use raa_workloads::{AddressSpace, ArrayDecl, MemRef, RefClass, TraceEvent};

use crate::blas::{axpy, block_ranges, dot, norm2, xpby};
use crate::csr::Csr;

/// Outcome of a CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    pub x: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// Final relative residual ‖r‖/‖b‖.
    pub rel_residual: f64,
}

/// Sequential CG for SPD systems. `on_iter(iter, abs_residual_norm)` is
/// called after every iteration (the Fig. 4 traces hang off this hook).
pub fn cg(
    a: &Csr,
    b: &[f64],
    tol: f64,
    max_iters: usize,
    mut on_iter: impl FnMut(usize, f64),
) -> CgResult {
    let n = a.n();
    assert_eq!(b.len(), n);
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut rr = dot(&r, &r);
    let mut iter = 0;
    while iter < max_iters && rr.sqrt() / bnorm > tol {
        a.spmv(&p, &mut q);
        let alpha = rr / dot(&p, &q);
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &q, &mut r);
        let rr_new = dot(&r, &r);
        let beta = rr_new / rr;
        xpby(&r, beta, &mut p);
        rr = rr_new;
        iter += 1;
        on_iter(iter, rr.sqrt());
    }
    CgResult {
        x,
        iterations: iter,
        converged: rr.sqrt() / bnorm <= tol,
        rel_residual: rr.sqrt() / bnorm,
    }
}

/// Jacobi-preconditioned CG: M = diag(A). One extra element-wise solve
/// per iteration buys a visible iteration-count reduction on stiff
/// systems; the resilience algebra is untouched (r = b − A·x still
/// holds, so FEIR recovery applies identically).
pub fn pcg(
    a: &Csr,
    b: &[f64],
    tol: f64,
    max_iters: usize,
    mut on_iter: impl FnMut(usize, f64),
) -> CgResult {
    let n = a.n();
    assert_eq!(b.len(), n);
    let bnorm = norm2(b).max(f64::MIN_POSITIVE);
    // Inverse diagonal.
    let minv: Vec<f64> = (0..n)
        .map(|i| {
            let (cols, vals) = a.row(i);
            let d = cols
                .iter()
                .position(|&c| c == i)
                .map(|k| vals[k])
                .expect("SPD matrices have non-zero diagonals");
            1.0 / d
        })
        .collect();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z: Vec<f64> = r.iter().zip(&minv).map(|(ri, mi)| ri * mi).collect();
    let mut p = z.clone();
    let mut q = vec![0.0; n];
    let mut rz = dot(&r, &z);
    let mut iter = 0;
    while iter < max_iters && norm2(&r) / bnorm > tol {
        a.spmv(&p, &mut q);
        let alpha = rz / dot(&p, &q);
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &q, &mut r);
        for ((zi, ri), mi) in z.iter_mut().zip(&r).zip(&minv) {
            *zi = ri * mi;
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        xpby(&z, beta, &mut p);
        rz = rz_new;
        iter += 1;
        on_iter(iter, norm2(&r));
    }
    CgResult {
        converged: norm2(&r) / bnorm <= tol,
        rel_residual: norm2(&r) / bnorm,
        x,
        iterations: iter,
    }
}

/// Blocked task-parallel CG on the dataflow runtime: every vector is
/// split into `blocks` row blocks; SpMV, AXPY and partial dot products
/// are tasks with per-block dependencies, exactly the OmpSs formulation
/// the paper's resilience work (§4) schedules its recoveries into.
///
/// Every task is declared **idempotent**, so a `RetryPolicy` can
/// re-execute attempts killed by injected faults. That declaration is
/// sound under the runtime's fault injection because injected panics
/// fire in the preflight, *before* the body runs — an attempt either
/// never touches its data or runs to completion. (Some bodies, e.g. the
/// `x += αp` update, are read-modify-write and would not survive a
/// mid-body crash; the injection model is crash-before-start.)
///
/// Generic over [`TaskScope`]: pass a `&Runtime` to solve in the
/// implicit default job, or a `&JobHandle` to confine the solve (and
/// any faults injected into it) to one job's fault domain.
pub fn cg_tasks<S: TaskScope>(
    rt: &S,
    a: Arc<Csr>,
    b: &[f64],
    blocks: usize,
    tol: f64,
    max_iters: usize,
) -> CgResult {
    match try_cg_tasks(rt, a, b, blocks, tol, max_iters) {
        Ok(res) => res,
        Err(report) => panic!("{report}"),
    }
}

/// Address-space picture of the blocked CG working set, for the
/// classified reference streams a recording runtime captures into its
/// [`raa_runtime::TaskProgram`]. The classification mirrors
/// `raa_workloads::kernels::cg`: the CSR row structures and the vectors
/// each block owns stream with stride 1 (SPM-mapped); `p` is gathered
/// by every SpMV task, so the compiler keeps it in the cache hierarchy
/// where read-sharing replicates for free.
#[derive(Clone, Debug)]
struct CgLayout {
    rowptr: ArrayDecl,
    colidx: ArrayDecl,
    vals: ArrayDecl,
    x: ArrayDecl,
    r: ArrayDecl,
    q: ArrayDecl,
    p: ArrayDecl,
    parts: ArrayDecl,
    spm_ranges: Vec<(u64, u64)>,
}

impl CgLayout {
    fn new(n: usize, nnz: usize, blocks: usize) -> Self {
        let (n, nnz) = (n as u64, nnz as u64);
        let mut space = AddressSpace::new();
        let rowptr = space.alloc("rowptr", (n + 1) * 8, true);
        let colidx = space.alloc("colidx", nnz * 4, true);
        let vals = space.alloc("vals", nnz * 8, true);
        let x = space.alloc("x", n * 8, true);
        let r = space.alloc("r", n * 8, true);
        let q = space.alloc("q", n * 8, true);
        let p = space.alloc("p", n * 8, false);
        let parts = space.alloc("parts", (blocks as u64).max(1) * 8, false);
        let decl = |id| space.get(id).clone();
        CgLayout {
            rowptr: decl(rowptr),
            colidx: decl(colidx),
            vals: decl(vals),
            x: decl(x),
            r: decl(r),
            q: decl(q),
            p: decl(p),
            parts: decl(parts),
            spm_ranges: space.spm_ranges(),
        }
    }

    /// SpMV over `rows`, gathering `p` at the matrix's *real* column
    /// indices — the [`RefClass::RandomUnknown`] case the hybrid
    /// memory protocol exists for.
    fn emit_spmv(&self, a: &Csr, rows: &Range<usize>) {
        if !program::recording() {
            return;
        }
        for i in rows.clone() {
            program::emit(TraceEvent::Mem(MemRef::load(
                self.rowptr.elem(i as u64, 8),
                8,
                RefClass::Strided,
            )));
            let (cols, _) = a.row(i);
            let k0 = a.row_range(i).start as u64;
            for (j, &col) in cols.iter().enumerate() {
                let k = k0 + j as u64;
                program::emit(TraceEvent::Mem(MemRef::load(
                    self.colidx.elem(k, 4),
                    4,
                    RefClass::Strided,
                )));
                program::emit(TraceEvent::Mem(MemRef::load(
                    self.vals.elem(k, 8),
                    8,
                    RefClass::Strided,
                )));
                program::emit(TraceEvent::Mem(MemRef::load(
                    self.p.elem(col as u64, 8),
                    8,
                    RefClass::RandomUnknown,
                )));
                program::emit(TraceEvent::Compute(2));
            }
            program::emit(TraceEvent::Mem(MemRef::store(
                self.q.elem(i as u64, 8),
                8,
                RefClass::Strided,
            )));
        }
    }

    /// A streaming sweep over `rows`: one strided load per array in
    /// `loads`, one strided store per array in `stores`, `flops` cycles
    /// of compute — the shape of every vector kernel in the iteration.
    fn emit_sweep(
        &self,
        loads: &[&ArrayDecl],
        stores: &[&ArrayDecl],
        flops: u32,
        rows: &Range<usize>,
    ) {
        if !program::recording() {
            return;
        }
        for i in rows.clone() {
            for arr in loads {
                program::emit(TraceEvent::Mem(MemRef::load(
                    arr.elem(i as u64, 8),
                    8,
                    RefClass::Strided,
                )));
            }
            program::emit(TraceEvent::Compute(flops));
            for arr in stores {
                program::emit(TraceEvent::Mem(MemRef::store(
                    arr.elem(i as u64, 8),
                    8,
                    RefClass::Strided,
                )));
            }
        }
    }

    /// A scalar reduction over the `blocks` partial results.
    fn emit_reduce(&self, blocks: usize) {
        if !program::recording() {
            return;
        }
        for bi in 0..blocks {
            program::emit(TraceEvent::Mem(MemRef::load(
                self.parts.elem(bi as u64, 8),
                8,
                RefClass::Strided,
            )));
        }
        program::emit(TraceEvent::Compute(blocks.max(1) as u32));
    }
}

/// The row block `range` of a solver vector, as a dependency region.
pub(crate) fn rows(v: &DataHandle<Vec<f64>>, range: &Range<usize>) -> Region {
    v.sub(range.start as u64, range.end as u64)
}

/// The blocked task-parallel CG program, declared once: the seven data
/// of the solve, the [`CgLayout`] its bodies emit their reference
/// streams against, and one iteration's tasks. [`try_cg_tasks`],
/// [`crate::afeir_tasks::cg_afeir_tasks`] and
/// [`crate::abft::cg_abft_tasks`] are drivers over it: each owns its
/// convergence loop and what it adds around the iteration, none restates
/// a task.
pub(crate) struct BlockedCg {
    a: Arc<Csr>,
    blocks: usize,
    ranges: Vec<Range<usize>>,
    pub(crate) x: DataHandle<Vec<f64>>,
    pub(crate) r: DataHandle<Vec<f64>>,
    pub(crate) p: DataHandle<Vec<f64>>,
    pub(crate) q: DataHandle<Vec<f64>>,
    // Per-block partial dot products, reduced by a join task.
    pq_parts: DataHandle<Vec<f64>>,
    rr_parts: DataHandle<Vec<f64>>,
    pub(crate) scalars: DataHandle<CgScalars>,
    layout: Arc<CgLayout>,
    pub(crate) bnorm: f64,
}

impl BlockedCg {
    /// Register the solve's data in `rt` (x = 0, r = p = b) and declare
    /// its SPM-mappable ranges.
    pub(crate) fn new<S: TaskScope>(rt: &S, a: Arc<Csr>, b: &[f64], blocks: usize) -> Self {
        let n = a.n();
        assert_eq!(b.len(), n);
        // The classified address-space picture of the solve. When the
        // runtime records a program, each task body emits its reference
        // stream against these addresses (a no-op otherwise), and the
        // SPM-mappable ranges ride along for hybrid-machine replay.
        let layout = Arc::new(CgLayout::new(n, a.nnz(), blocks));
        rt.declare_spm_ranges(&layout.spm_ranges);
        BlockedCg {
            blocks,
            ranges: block_ranges(n, blocks),
            x: rt.register("x", vec![0.0f64; n]),
            r: rt.register("r", b.to_vec()),
            p: rt.register("p", b.to_vec()),
            q: rt.register("q", vec![0.0f64; n]),
            pq_parts: rt.register("pq_parts", vec![0.0f64; blocks]),
            rr_parts: rt.register("rr_parts", vec![0.0f64; blocks]),
            scalars: rt.register("scalars", CgScalars::new(dot(b, b))),
            layout,
            bnorm: norm2(b).max(f64::MIN_POSITIVE),
            a,
        }
    }

    /// Relative residual `√rr / ‖b‖` of a recurrence value `rr`.
    pub(crate) fn rel(&self, rr: f64) -> f64 {
        rr.sqrt() / self.bnorm
    }

    /// Spawn one CG iteration into `rt`. `after_spmv` runs on the
    /// spawning thread between the SpMV tasks and the `pᵀq` dots — where
    /// a task a driver spawns from it sees the whole `p` and `q` of
    /// this iteration (ABFT's checksum sums; the other two drivers pass
    /// an empty closure).
    pub(crate) fn spawn_iteration<S: TaskScope>(&self, rt: &S, after_spmv: impl FnOnce()) {
        let BlockedCg {
            a,
            ranges,
            x,
            r,
            p,
            q,
            pq_parts,
            rr_parts,
            scalars,
            layout,
            ..
        } = self;
        let blocks = self.blocks;
        // q = A p (one task per row block; each depends on all of p).
        for (bi, range) in ranges.iter().enumerate() {
            let (a, p, q, range) = (Arc::clone(a), p.clone(), q.clone(), range.clone());
            let lay = Arc::clone(layout);
            rt.task(format!("spmv[{bi}]"))
                .reads(&p)
                .region(rows(&q, &range), AccessMode::Write)
                .cost((range.len() * 5) as u64)
                .idempotent(move || {
                    let pv = p.read();
                    let mut qv = q.write();
                    a.spmv_rows(range.clone(), &pv, &mut qv);
                    lay.emit_spmv(&a, &range);
                })
                .spawn();
        }
        after_spmv();
        // Partial dots pᵀq.
        for (bi, range) in ranges.iter().enumerate() {
            let (p, q, parts, range) = (p.clone(), q.clone(), pq_parts.clone(), range.clone());
            let lay = Arc::clone(layout);
            rt.task(format!("dot_pq[{bi}]"))
                .region(rows(&p, &range), AccessMode::Read)
                .region(rows(&q, &range), AccessMode::Read)
                .region(pq_parts.sub(bi as u64, bi as u64 + 1), AccessMode::Write)
                .cost(range.len() as u64)
                .idempotent(move || {
                    let pv = p.read();
                    let qv = q.read();
                    parts.write()[bi] = dot(&pv[range.clone()], &qv[range.clone()]);
                    lay.emit_sweep(&[&lay.p, &lay.q], &[], 1, &range);
                })
                .spawn();
        }
        // alpha = rr / sum(parts)
        {
            let (parts, scalars) = (pq_parts.clone(), scalars.clone());
            let lay = Arc::clone(layout);
            rt.task("alpha")
                .reads(pq_parts)
                .updates(&scalars)
                .cost(blocks as u64)
                .idempotent(move || {
                    let pq: f64 = parts.read().iter().sum();
                    let mut s = scalars.write();
                    s.alpha = s.rr / pq;
                    lay.emit_reduce(blocks);
                })
                .spawn();
        }
        // x += alpha p ; r -= alpha q (per block, after alpha).
        for (bi, range) in ranges.iter().enumerate() {
            let (x, r, p, q, scalars, range) = (
                x.clone(),
                r.clone(),
                p.clone(),
                q.clone(),
                scalars.clone(),
                range.clone(),
            );
            let lay = Arc::clone(layout);
            rt.task(format!("update_xr[{bi}]"))
                .reads(&scalars)
                .region(rows(&p, &range), AccessMode::Read)
                .region(rows(&q, &range), AccessMode::Read)
                .region(rows(&x, &range), AccessMode::ReadWrite)
                .region(rows(&r, &range), AccessMode::ReadWrite)
                .cost(range.len() as u64 * 2)
                .idempotent(move || {
                    let alpha = scalars.read().alpha;
                    let pv = p.read();
                    let qv = q.read();
                    axpy(alpha, &pv[range.clone()], &mut x.write()[range.clone()]);
                    axpy(-alpha, &qv[range.clone()], &mut r.write()[range.clone()]);
                    lay.emit_sweep(
                        &[&lay.p, &lay.q, &lay.x, &lay.r],
                        &[&lay.x, &lay.r],
                        2,
                        &range,
                    );
                })
                .spawn();
        }
        // Partial dots rᵀr.
        for (bi, range) in ranges.iter().enumerate() {
            let (r, parts, range) = (r.clone(), rr_parts.clone(), range.clone());
            let lay = Arc::clone(layout);
            rt.task(format!("dot_rr[{bi}]"))
                .region(rows(&r, &range), AccessMode::Read)
                .region(rr_parts.sub(bi as u64, bi as u64 + 1), AccessMode::Write)
                .cost(range.len() as u64)
                .idempotent(move || {
                    let rv = r.read();
                    parts.write()[bi] = dot(&rv[range.clone()], &rv[range.clone()]);
                    lay.emit_sweep(&[&lay.r], &[], 1, &range);
                })
                .spawn();
        }
        // beta + p update need the new rr.
        {
            let (parts, scalars) = (rr_parts.clone(), scalars.clone());
            let lay = Arc::clone(layout);
            rt.task("beta")
                .reads(rr_parts)
                .updates(&scalars)
                .cost(blocks as u64)
                .idempotent(move || {
                    let rr_new: f64 = parts.read().iter().sum();
                    let mut s = scalars.write();
                    s.beta = rr_new / s.rr;
                    s.rr = rr_new;
                    lay.emit_reduce(blocks);
                })
                .spawn();
        }
        for (bi, range) in ranges.iter().enumerate() {
            let (r, p, scalars, range) = (r.clone(), p.clone(), scalars.clone(), range.clone());
            let lay = Arc::clone(layout);
            rt.task(format!("update_p[{bi}]"))
                .reads(&scalars)
                .region(rows(&r, &range), AccessMode::Read)
                .region(rows(&p, &range), AccessMode::ReadWrite)
                .cost(range.len() as u64)
                .idempotent(move || {
                    let beta = scalars.read().beta;
                    let rv = r.read();
                    xpby(&rv[range.clone()], beta, &mut p.write()[range.clone()]);
                    lay.emit_sweep(&[&lay.r, &lay.p], &[&lay.p], 1, &range);
                })
                .spawn();
        }
    }
}

/// [`cg_tasks`], but task failures (exhausted retries under fault
/// injection, poisoned downstream reads) surface as a typed
/// [`FaultReport`] instead of a panic — the entry point fault-injection
/// campaigns drive.
pub fn try_cg_tasks<S: TaskScope>(
    rt: &S,
    a: Arc<Csr>,
    b: &[f64],
    blocks: usize,
    tol: f64,
    max_iters: usize,
) -> Result<CgResult, FaultReport> {
    let cg = BlockedCg::new(rt, a, b, blocks);
    let mut iter = 0;
    let mut rr = cg.scalars.read().rr;
    while iter < max_iters && cg.rel(rr) > tol {
        cg.spawn_iteration(rt, || {});
        // The scalar recurrence needs rr on the host: wait only for the
        // scalar chain (OmpSs `taskwait on`), so long-running tasks from
        // earlier iterations — e.g. an AFEIR recovery — keep overlapping.
        rt.taskwait_on(&cg.scalars);
        // A poisoned region means a task exhausted its retries: the
        // scalar recurrence can no longer be trusted, so stop spawning
        // iterations and let `try_taskwait` assemble the report.
        if !rt.poisoned_regions().is_empty() {
            break;
        }
        rr = cg.scalars.read().rr;
        iter += 1;
    }
    rt.try_wait()?;
    let xv = cg.x.read().clone();
    Ok(CgResult {
        converged: cg.rel(rr) <= tol,
        rel_residual: cg.rel(rr),
        x: xv,
        iterations: iter,
    })
}

/// Host-visible CG scalar state shared between reduction tasks.
#[derive(Clone, Debug)]
pub struct CgScalars {
    pub alpha: f64,
    pub beta: f64,
    pub rr: f64,
}

impl CgScalars {
    /// Fresh scalar state with `rr0 = bᵀb`.
    pub fn new(rr0: f64) -> Self {
        CgScalars {
            alpha: 0.0,
            beta: 0.0,
            rr: rr0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_runtime::{Runtime, RuntimeConfig};

    fn poisson_system(nx: usize, ny: usize) -> (Csr, Vec<f64>, Vec<f64>) {
        let a = Csr::poisson2d(nx, ny);
        let n = a.n();
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7 + 3) % 11) as f64 - 5.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        (a, b, x_true)
    }

    #[test]
    fn sequential_cg_solves_poisson() {
        let (a, b, x_true) = poisson_system(16, 16);
        let res = cg(&a, &b, 1e-10, 2000, |_, _| {});
        assert!(res.converged, "rel={}", res.rel_residual);
        let err: f64 = res
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "max err {err}");
    }

    #[test]
    fn residual_decreases_monotonically_enough() {
        let (a, b, _) = poisson_system(12, 12);
        let mut last = f64::INFINITY;
        let mut increases = 0;
        cg(&a, &b, 1e-10, 1000, |_, rnorm| {
            if rnorm > last {
                increases += 1;
            }
            last = rnorm;
        });
        // CG residuals may wiggle slightly but must broadly decay.
        assert!(increases < 5, "{increases} residual increases");
    }

    #[test]
    fn iteration_count_scales_with_grid_size() {
        let iters = |nx| {
            let (a, b, _) = poisson_system(nx, nx);
            cg(&a, &b, 1e-8, 10_000, |_, _| {}).iterations
        };
        let small = iters(8);
        let large = iters(32);
        assert!(
            large > small,
            "CG iterations grow with condition number: {small} vs {large}"
        );
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = Csr::poisson2d(4, 4);
        let res = cg(&a, &[0.0; 16], 1e-12, 100, |_, _| {});
        assert_eq!(res.iterations, 0);
        assert!(res.converged);
        assert!(res.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pcg_solves_and_matches_cg_solution() {
        let (a, b, x_true) = poisson_system(16, 16);
        let res = pcg(&a, &b, 1e-10, 2000, |_, _| {});
        assert!(res.converged);
        let err: f64 = res
            .x
            .iter()
            .zip(&x_true)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-6, "max err {err}");
    }

    #[test]
    fn jacobi_preconditioning_helps_on_scaled_systems() {
        // Badly scaled SPD system: CG struggles, Jacobi-PCG normalises.
        let base = Csr::poisson2d(16, 16);
        let n = base.n();
        let scale = |i: usize| 1.0 + (i % 7) as f64 * 40.0;
        let mut t = Vec::new();
        for i in 0..n {
            let (cols, vals) = base.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                // D A D keeps symmetry and positive-definiteness.
                t.push((i, c, v * scale(i).sqrt() * scale(c).sqrt()));
            }
        }
        let a = Csr::from_triplets(n, &t);
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 9) as f64) - 4.0).collect();
        let mut b = vec![0.0; n];
        a.spmv(&x_true, &mut b);
        let plain = cg(&a, &b, 1e-9, 5000, |_, _| {});
        let pre = pcg(&a, &b, 1e-9, 5000, |_, _| {});
        assert!(plain.converged && pre.converged);
        assert!(
            pre.iterations * 3 < plain.iterations * 2,
            "PCG should cut iterations by >1/3: {} vs {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn task_parallel_cg_matches_sequential() {
        let (a, b, _) = poisson_system(16, 16);
        let seq = cg(&a, &b, 1e-9, 2000, |_, _| {});
        let rt = Runtime::new(RuntimeConfig::with_workers(4));
        let par = cg_tasks(&rt, Arc::new(a), &b, 8, 1e-9, 2000);
        assert!(par.converged);
        // Blocked reductions round differently, so allow a 1-iteration
        // wobble around the sequential count.
        assert!(
            seq.iterations.abs_diff(par.iterations) <= 1,
            "iteration counts diverged: {} vs {}",
            seq.iterations,
            par.iterations
        );
        let diff: f64 = seq
            .x
            .iter()
            .zip(&par.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff < 1e-8, "max diff {diff}");
    }

    #[test]
    fn recorded_program_carries_classified_streams() {
        let (a, b, _) = poisson_system(8, 8);
        let rt = Runtime::new(RuntimeConfig::with_workers(2).record_program(true));
        let res = cg_tasks(&rt, Arc::new(a), &b, 4, 1e-8, 1000);
        assert!(res.converged);
        let prog = rt.program().expect("recording enabled");
        assert!(prog.stream_count() > 0, "task bodies emitted streams");
        assert!(
            !prog.spm_ranges().is_empty(),
            "SPM-mappable ranges declared"
        );
        let sum = prog.trace_summary();
        // The SpMV gather is the RandomUnknown case; the vector sweeps
        // are strided. Both classes must appear in a real recording.
        assert!(sum.random_unknown > 0, "{sum:?}");
        assert!(sum.strided > sum.random_unknown, "{sum:?}");
        assert_eq!(sum.barriers, 0, "per-task streams never barrier");
        // Every spawned task that ran a body has a stream (exempt
        // taskwait sentinels do not).
        assert!(prog.stream_count() <= prog.len());
        assert!(prog.measured_count() >= prog.stream_count());
    }

    #[test]
    fn three_drivers_run_one_program() {
        use crate::abft::{cg_abft_tasks, AbftCfg};
        use crate::afeir_tasks::{cg_afeir_tasks, AfeirTasksCfg};
        use crate::fault::{FaultSpec, FaultTarget};

        let (a, b) = crate::fixtures::system(12);
        let (blocks, tol, max_iters) = (4, 1e-9, 2000);
        // A DUE scheduled past the last iteration: it never fires.
        let never = FaultSpec::new(usize::MAX, 0..1, FaultTarget::X);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for workers in [1, 3] {
            let rt = || Runtime::new(RuntimeConfig::with_workers(workers));
            let plain_rt = rt();
            let plain = cg_tasks(&plain_rt, Arc::clone(&a), &b, blocks, tol, max_iters);
            let plain_tasks = plain_rt.stats().spawned;
            assert!(plain.converged);
            let afeir_cfg = AfeirTasksCfg {
                blocks,
                tol,
                max_iters,
                ..Default::default()
            };
            let afeir = cg_afeir_tasks(&rt(), Arc::clone(&a), &b, never.clone(), &afeir_cfg);
            let abft_cfg = AbftCfg {
                blocks,
                tol,
                max_iters,
                ..Default::default()
            };
            let abft = cg_abft_tasks(&rt(), Arc::clone(&a), &b, None, &abft_cfg);
            // Partial dots are summed in block order, so the arithmetic
            // is the same under any schedule: bit-identical, not close.
            assert_eq!(bits(&afeir.x), bits(&plain.x), "{workers} workers");
            assert_eq!(bits(&abft.x), bits(&plain.x), "{workers} workers");
            assert_eq!(afeir.iterations, plain.iterations);
            assert_eq!(abft.iterations, plain.iterations);
            assert_eq!(afeir.tasks, plain_tasks);
            // ABFT's hook adds exactly its one sums task per iteration.
            assert_eq!(abft.tasks, plain_tasks + plain.iterations as u64);
        }
        // The shared iteration carries the reference streams, so an AFEIR
        // solve is replayable like the plain one.
        let rt = Runtime::new(RuntimeConfig::with_workers(2).record_program(true));
        let res = cg_afeir_tasks(&rt, a, &b, never, &AfeirTasksCfg::default());
        assert!(res.converged);
        let prog = rt.program().expect("recording enabled");
        assert!(prog.stream_count() > 0, "AFEIR task bodies emitted streams");
        assert!(!prog.spm_ranges().is_empty());
    }

    #[test]
    fn task_parallel_cg_single_block_degenerate() {
        let (a, b, _) = poisson_system(8, 8);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let res = cg_tasks(&rt, Arc::new(a), &b, 1, 1e-8, 1000);
        assert!(res.converged);
    }
}
