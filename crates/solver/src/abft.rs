//! ABFT-checksummed task CG: silent corruption *detected*, recovery
//! *spawned from the detector*.
//!
//! PR 1's campaign measured the hole in the paper's §4 story: a single
//! bit flip in `x` is an SDC — no hardware event, no poisoned region —
//! and CG "converges" to a wrong answer (true residual 6.7e-1 while the
//! recurrence residual reads 1e-9). [`crate::afeir_tasks`] only recovers
//! because the *injector* tells it what broke; that is detection
//! asserted, not earned. This module earns it algorithmically:
//!
//! * **Column-checksum SpMV** (classic Huang–Abraham ABFT): with
//!   `c = A·1` (row sums = column sums for symmetric `A`), every product
//!   `q = A·p` must satisfy `Σq = cᵀp`. An `abft` task computes both
//!   sides each iteration, ordered between the SpMV and the `p` update
//!   by ordinary region dependences. It is the one task this module
//!   adds to the shared CG program (`BlockedCg` in [`crate::cg`], which
//!   declares the iteration's seven task kinds for all three drivers):
//!   the program's `after_spmv` hook is where it is spawned.
//! * **Running solution/residual checksums**: the CG updates imply
//!   `Σx += α·Σp` and `Σr −= α·(cᵀp)` per iteration. The solver
//!   maintains these *recurrences* and periodically compares them
//!   against the directly summed vectors — a flipped bit in `x` or `r`
//!   shifts the direct sum away from the recurrence by the flip's
//!   magnitude and stays there.
//! * **True-residual probe**: every `probe_every` iterations the solver
//!   pays one SpMV to form `d = r − (b − A·x)`. Clean CG keeps `d ≈ 0`;
//!   after an SDC in `x`, `d = A·e` exactly — nonzero *and localized*
//!   (the stencil envelope of the corrupted entries), because the CG
//!   recurrences for `r`, `p`, `q` never read `x`: they continue on the
//!   ideal trajectory while `x` carries a constant offset `e`.
//!
//! That last fact is what makes recovery exact: FEIR's algebra
//! (`A_ll·x_l = b_l − r_l − A_lo·x_o`, [`crate::recovery`]) fed with the
//! *recurrence* residual reconstructs the **ideal** `x` over the
//! localized block, putting the solver back on its fault-free
//! trajectory. The recovery runs AFEIR-style — a dataflow task writing
//! `x[block]`, off the critical path — and the detector's checksums are
//! recalibrated at the next quiescent boundary. Corruption attributed to
//! `r` is repaired by direct recomputation (`r := b − A·x`) with a
//! conjugacy restart (`p := r`).
//!
//! Detection thresholds are relative (`detect_tol`): flips far below
//! them — low mantissa bits — also perturb the solution far below the
//! convergence tolerance, so "undetected" coincides with "harmless" by
//! construction. The `fig4y_ecc_campaign` bench sweeps bit positions to
//! demonstrate exactly that boundary.

use std::ops::Range;
use std::sync::Arc;

use raa_runtime::{AccessMode, Runtime};

use crate::blas::dot;
use crate::cg::{rows, BlockedCg};
use crate::csr::Csr;
use crate::fault::{FaultSpec, FaultTarget};
use crate::recovery::recover_x_block;

/// Which structure the detector attributed a corruption to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectedIn {
    /// Solution checksum mismatch: FEIR recovery task spawned.
    X,
    /// Residual checksum mismatch: `r` recomputed, direction restarted.
    R,
    /// SpMV checksum (`Σq ≠ cᵀp`) or invariant probe with both vector
    /// checksums clean: conservative residual recomputation + restart.
    Invariant,
}

/// One detector firing.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Iteration whose boundary check fired (0-based).
    pub iter: usize,
    pub kind: DetectedIn,
    /// Element envelope the corruption was localized to (whole vector
    /// for non-localized kinds).
    pub block: Range<usize>,
}

/// Solver parameters for [`cg_abft_tasks`].
#[derive(Clone, Debug)]
pub struct AbftCfg {
    /// Row-block count of the blocked CG.
    pub blocks: usize,
    /// Relative residual tolerance.
    pub tol: f64,
    pub max_iters: usize,
    /// Inner tolerance of the FEIR recovery solve.
    pub local_tol: f64,
    /// Compare running checksums against direct sums every this many
    /// iterations (O(n) per check).
    pub check_every: usize,
    /// Pay one SpMV for the true-residual invariant probe every this
    /// many iterations.
    pub probe_every: usize,
    /// Relative detection threshold: generous against floating-point
    /// checksum drift, tiny against any flip that could move the
    /// solution above the convergence tolerance.
    pub detect_tol: f64,
}

impl Default for AbftCfg {
    fn default() -> Self {
        AbftCfg {
            blocks: 8,
            tol: 1e-9,
            max_iters: 10_000,
            local_tol: 1e-13,
            check_every: 4,
            probe_every: 16,
            detect_tol: 1e-7,
        }
    }
}

/// Outcome of the ABFT-protected solve.
#[derive(Clone, Debug)]
pub struct AbftResult {
    pub x: Vec<f64>,
    pub iterations: usize,
    pub converged: bool,
    /// Detector firings, in order.
    pub detections: Vec<Detection>,
    /// FEIR recovery tasks spawned (subset of detections).
    pub recoveries: u64,
    /// Checksum comparisons performed.
    pub checksum_checks: u64,
    /// True-residual probes performed.
    pub probes: u64,
    /// Tasks this solve spawned and the dependency edges among them —
    /// not the runtime's lifetime totals.
    pub tasks: u64,
    pub edges: u64,
}

/// Blocked task-parallel CG protected by ABFT checksums, with recovery
/// driven *only* by the detector.
///
/// `fault`, when given, is injected silently at its iteration — whatever
/// its mode, the solver is never told (contrast
/// [`crate::afeir_tasks::cg_afeir_tasks`], which consults
/// `FaultMode::is_detected`). If the corruption matters, the checksums
/// or the probe must catch it; that is the experiment.
pub fn cg_abft_tasks(
    rt: &Runtime,
    a: Arc<Csr>,
    b: &[f64],
    fault: Option<FaultSpec>,
    cfg: &AbftCfg,
) -> AbftResult {
    let AbftCfg {
        blocks,
        tol,
        max_iters,
        local_tol,
        check_every,
        probe_every,
        detect_tol,
    } = *cfg;
    assert!(check_every >= 1 && probe_every >= 1);
    let n = a.n();

    // Column checksum c = A·1 (row sums; equal to column sums for the
    // symmetric matrices CG applies to).
    let colsum: Vec<f64> = {
        let ones = vec![1.0; n];
        let mut c = vec![0.0; n];
        a.spmv(&ones, &mut c);
        c
    };
    let colsum = Arc::new(colsum);

    let before = rt.stats();
    let cg = BlockedCg::new(rt, Arc::clone(&a), b, blocks);
    let (x, r, p, q, scalars) = (&cg.x, &cg.r, &cg.p, &cg.q, &cg.scalars);
    // (Σp, Σq, cᵀp) of the current iteration, filled by the abft task.
    let abft_sums = rt.register("abft_sums", [0.0f64; 3]);
    let b_vec = Arc::new(b.to_vec());

    // Running checksums (the recurrences the direct sums are checked
    // against). x starts at 0, r starts at b.
    let mut s_x = 0.0f64;
    let mut s_r: f64 = b.iter().sum();

    let mut detections: Vec<Detection> = Vec::new();
    let mut recoveries = 0u64;
    let mut checksum_checks = 0u64;
    let mut probes = 0u64;
    // While a recovery task is in flight the checksums are stale; checks
    // are suppressed until this boundary, where they are recalibrated.
    let mut recalibrate_after: Option<usize> = None;

    let mut injected = false;
    let mut iter = 0usize;
    let mut rr = scalars.read().rr;
    while iter < max_iters && cg.rel(rr) > tol {
        // --- silent fault injection (the solver is NOT told) ---
        if let Some(f) = &fault {
            if !injected && iter == f.at_iter {
                injected = true;
                match f.target {
                    FaultTarget::X => {
                        f.inject(&mut x.write());
                    }
                    FaultTarget::R => {
                        f.inject(&mut r.write());
                    }
                }
            }
        }

        // --- one blocked CG iteration, plus the ABFT sums task: it reads
        // the full p and q of *this* iteration (after every spmv block,
        // before update_p overwrites p — both orderings fall out of the
        // region dependences).
        cg.spawn_iteration(rt, || {
            let (p, q, sums, c) = (p.clone(), q.clone(), abft_sums.clone(), Arc::clone(&colsum));
            rt.task("abft")
                .reads(&p)
                .reads(&q)
                .writes(&abft_sums)
                .idempotent(move || {
                    let pv = p.read();
                    let qv = q.read();
                    let sp: f64 = pv.iter().sum();
                    let sq: f64 = qv.iter().sum();
                    let cp = dot(&c, &pv);
                    *sums.write() = [sp, sq, cp];
                })
                .spawn();
        });
        // Quiescent boundary: the sentinel's inout on `scalars` orders it
        // after update_p (a scalars reader), which transitively closes
        // the whole iteration — host reads below are deterministic.
        rt.taskwait_on(scalars);
        let (alpha, rr_new) = {
            let s = scalars.read();
            (s.alpha, s.rr)
        };
        rr = rr_new;
        let [sum_p, sum_q, ctp] = *abft_sums.read();

        // --- advance the running checksums by the recurrences ---
        // x += α·p  ⇒  Σx += α·Σp;   r −= α·q  ⇒  Σr −= α·(cᵀp).
        // Using cᵀp (not Σq) keeps s_r on pure checksum lineage: a
        // corrupted q shifts Σr away from s_r instead of following it.
        s_x += alpha * sum_p;
        s_r -= alpha * ctp;

        let k = iter;
        iter += 1;

        // --- detector ---
        if let Some(after) = recalibrate_after {
            if k < after {
                continue;
            }
            // The recovery task finished at least one sentinel ago (its
            // x[block] write precedes the next update_xr there); make it
            // certain, then restart the checksums from the repaired
            // state.
            recalibrate_after = None;
            let (sx, sr) = {
                let xv = x.read();
                let rv = r.read();
                (xv.iter().sum::<f64>(), rv.iter().sum::<f64>())
            };
            s_x = sx;
            s_r = sr;
            continue;
        }
        let check_due = (k + 1).is_multiple_of(check_every);
        let probe_due = (k + 1).is_multiple_of(probe_every);
        if !check_due && !probe_due {
            continue;
        }

        let (sum_x, sum_r) = {
            let xv = x.read();
            let rv = r.read();
            (xv.iter().sum::<f64>(), rv.iter().sum::<f64>())
        };
        checksum_checks += 1;
        let mism = |have: f64, want: f64| {
            (have - want).abs() > detect_tol * (1.0 + have.abs() + want.abs())
        };
        let mx = mism(sum_x, s_x);
        let mr = mism(sum_r, s_r);
        let ms = mism(sum_q, ctp);
        if !(mx || mr || ms || probe_due) {
            continue;
        }

        // Invariant probe: d = r − (b − A·x). Clean CG keeps d ≈ 0;
        // after an SDC in x, d = A·e exactly (the recurrences for r, p,
        // q never read x, so they stay on the ideal trajectory).
        probes += 1;
        let (d, r_true) = {
            let xv = x.read();
            let rv = r.read();
            let mut ax = vec![0.0; n];
            a.spmv(&xv, &mut ax);
            let r_true: Vec<f64> = b_vec.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            let d: Vec<f64> = rv.iter().zip(&r_true).map(|(ri, ti)| ri - ti).collect();
            (d, r_true)
        };
        let dmax = d.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let probe_hit = dmax > detect_tol * (1.0 + cg.bnorm);
        if !(mx || mr || ms || probe_hit) {
            continue; // clean probe
        }

        if mx && probe_hit {
            // --- SDC in x: localize the stencil envelope of A·e and
            // spawn the FEIR recovery as a dataflow task (AFEIR). ---
            let thresh = (1e-2 * dmax).max(detect_tol * (1.0 + cg.bnorm) * 1e-3);
            let lo = d.iter().position(|&v| v.abs() > thresh).unwrap_or(0);
            let hi = n - d.iter().rev().position(|&v| v.abs() > thresh).unwrap_or(0);
            let block = lo..hi.max(lo + 1);
            detections.push(Detection {
                iter: k,
                kind: DetectedIn::X,
                block: block.clone(),
            });
            recoveries += 1;
            // Snapshot inline — the state is quiescent here. The
            // recurrence r restores the *ideal* x over the block.
            let x_snap = {
                let xv = x.read();
                let mut s = xv.clone();
                for e in &mut s[block.clone()] {
                    *e = 0.0;
                }
                s
            };
            let r_snap = r.read().clone();
            {
                let (a, b_vec, x, block) =
                    (Arc::clone(&a), Arc::clone(&b_vec), x.clone(), block.clone());
                rt.task("abft-feir-recovery")
                    .region(rows(&x, &block), AccessMode::Write)
                    .idempotent(move || {
                        let rec =
                            recover_x_block(&a, &b_vec, &r_snap, &x_snap, block.clone(), local_tol);
                        x.write()[block.clone()].copy_from_slice(&rec);
                    })
                    .spawn();
            }
            recalibrate_after = Some(k + 1);
        } else {
            // --- corruption in r / q / offsetting case: r is directly
            // recomputable from x (r := b − A·x), at the cost of a
            // conjugacy restart (p := r). ---
            let kind = if mr {
                DetectedIn::R
            } else {
                DetectedIn::Invariant
            };
            detections.push(Detection {
                iter: k,
                kind,
                block: 0..n,
            });
            {
                let mut rv = r.write();
                rv.copy_from_slice(&r_true);
            }
            {
                let mut pv = p.write();
                pv.copy_from_slice(&r_true);
            }
            let rr_fixed = dot(&r_true, &r_true);
            scalars.write().rr = rr_fixed;
            rr = rr_fixed;
            s_r = r_true.iter().sum();
            s_x = sum_x;
        }
    }
    rt.taskwait();
    let stats = rt.stats();
    let x_final = x.read().clone();
    AbftResult {
        converged: cg.rel(rr) <= tol,
        x: x_final,
        iterations: iter,
        detections,
        recoveries,
        checksum_checks,
        probes,
        tasks: stats.spawned - before.spawned,
        edges: stats.edges - before.edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::fault::FaultMode;
    use crate::fixtures::system;
    use raa_runtime::{Runtime, RuntimeConfig};

    fn true_rel_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
        a.residual_inf(x, b) / b.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    #[test]
    fn clean_run_never_fires_the_detector() {
        let (a, b) = system(20);
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, None, &AbftCfg::default());
        assert!(res.converged);
        assert!(
            res.detections.is_empty(),
            "false positive: {:?}",
            res.detections
        );
        assert!(res.checksum_checks > 0 && res.probes > 0);
        assert!(true_rel_residual(&a, &b, &res.x) < 1e-6);
    }

    #[test]
    fn fig4x_silent_bit_flip_is_detected_and_recovered() {
        // The exact case PR 1 measured as the SDC gap: bit 51 of
        // x[n/3], flipped after iteration 15, previously "converged"
        // with true residual 6.7e-1.
        let (a, b) = system(20);
        let n = a.n();
        let ideal = cg(&a, &b, 1e-9, 4000, |_, _| {});
        let fault = FaultSpec::new(15, n / 3..n / 3 + n / 8, FaultTarget::X)
            .mode(FaultMode::BitFlip { bit: 51 });
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, Some(fault), &AbftCfg::default());
        assert!(res.converged, "must still converge");
        assert_eq!(res.detections.len(), 1, "exactly one detector firing");
        let det = &res.detections[0];
        assert_eq!(det.kind, DetectedIn::X);
        assert!(det.iter >= 15, "cannot detect before injection");
        assert!(
            det.iter - 15 <= AbftCfg::default().check_every + 1,
            "detection latency {} too large",
            det.iter - 15
        );
        assert!(
            det.block.contains(&(n / 3)),
            "localization {:?} must contain the flipped element {}",
            det.block,
            n / 3
        );
        assert_eq!(res.recoveries, 1);
        let rel = true_rel_residual(&a, &b, &res.x);
        assert!(rel <= 1e-6, "gap must be closed, true residual {rel:.3e}");
        // Exact recovery restores the ideal trajectory.
        assert!(
            res.iterations.abs_diff(ideal.iterations) <= 3,
            "trajectory: {} vs ideal {}",
            res.iterations,
            ideal.iterations
        );
    }

    #[test]
    fn residual_bit_flip_detected_and_recomputed() {
        let (a, b) = system(16);
        let n = a.n();
        let fault = FaultSpec::new(10, n / 2..n / 2 + 8, FaultTarget::R)
            .mode(FaultMode::BitFlip { bit: 51 });
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, Some(fault), &AbftCfg::default());
        assert!(res.converged);
        assert!(!res.detections.is_empty());
        assert_eq!(res.detections[0].kind, DetectedIn::R);
        assert_eq!(res.recoveries, 0, "r repairs by recomputation, not FEIR");
        assert!(true_rel_residual(&a, &b, &res.x) <= 1e-6);
    }

    #[test]
    fn low_mantissa_flip_is_harmless_by_construction() {
        // Bit 20 perturbs x by ~1e-10 relative: below the detection
        // threshold AND below the harm threshold — undetected coincides
        // with harmless.
        let (a, b) = system(16);
        let n = a.n();
        let fault = FaultSpec::new(10, n / 3..n / 3 + 8, FaultTarget::X)
            .mode(FaultMode::BitFlip { bit: 20 });
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, Some(fault), &AbftCfg::default());
        assert!(res.converged);
        assert!(true_rel_residual(&a, &b, &res.x) <= 1e-6);
    }

    #[test]
    fn block_wipe_due_class_also_caught_by_detector() {
        // A whole lost block (the PR 1 DUE model) without any hardware
        // report: the detector alone must catch and recover it.
        let (a, b) = system(16);
        let n = a.n();
        let fault = FaultSpec::new(12, n / 4..n / 4 + n / 8, FaultTarget::X);
        let rt = Runtime::new(RuntimeConfig::with_workers(3));
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, Some(fault), &AbftCfg::default());
        assert!(res.converged);
        assert_eq!(res.detections.len(), 1);
        assert_eq!(res.detections[0].kind, DetectedIn::X);
        assert!(true_rel_residual(&a, &b, &res.x) <= 1e-6);
    }

    #[test]
    fn task_and_edge_counts_are_the_solves_own() {
        let (a, b) = system(12);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let cfg = AbftCfg {
            blocks: 4,
            ..Default::default()
        };
        let first = cg_abft_tasks(&rt, Arc::clone(&a), &b, None, &cfg);
        let second = cg_abft_tasks(&rt, Arc::clone(&a), &b, None, &cfg);
        assert!(first.converged && second.converged);
        assert_eq!(first.iterations, second.iterations);
        assert_eq!(
            (first.tasks, first.edges),
            (second.tasks, second.edges),
            "a second solve on the same runtime reports its own counts"
        );
    }

    #[test]
    fn abft_overhead_is_bounded_tasks() {
        // The checksummed solve adds one abft task per iteration plus
        // the recovery machinery; it must not blow up the task count.
        let (a, b) = system(12);
        let rt = Runtime::new(RuntimeConfig::with_workers(2));
        let cfg = AbftCfg {
            blocks: 4,
            ..Default::default()
        };
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, None, &cfg);
        assert!(res.converged);
        // Per iteration: 5 block stages × 4 blocks + alpha + beta +
        // abft + sentinel = 25.
        let per_iter = (res.tasks as f64) / (res.iterations as f64);
        assert!(
            per_iter <= 26.0,
            "unexpected task inflation: {per_iter:.1}/iter"
        );
    }
}
