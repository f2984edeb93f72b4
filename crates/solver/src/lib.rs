//! # raa-solver — resilient sparse iterative solvers (the Resilience Wall)
//!
//! §4 of the paper mitigates Detected-but-Uncorrected Errors (DUEs) in
//! iterative solvers with *algorithmic* forward recovery: when a block of
//! solver state is lost, the identity `r = b − A·x` restricted to the
//! lost rows lets the solver **interpolate the lost data exactly**
//! (FEIR), and the task runtime's asynchrony hides the recovery off the
//! critical path (AFEIR).  Fig. 4 compares these against checkpointing
//! and a lossy restart on a Conjugate Gradient run disturbed by one DUE.
//!
//! This crate provides the full apparatus:
//!
//! * [`csr::Csr`] — CSR sparse matrices, SpMV, principal submatrices, and
//!   a 2-D Poisson generator standing in for SuiteSparse `thermal2`
//!   (see DESIGN.md §4 for the substitution argument);
//! * [`cg`] — sequential CG and a blocked task-parallel CG running on
//!   [`raa_runtime`];
//! * [`fault`] — DUE injection (block granularity, iteration- or
//!   time-triggered);
//! * [`recovery`] — the exact interpolation algebra shared by FEIR and
//!   AFEIR, plus residual recomputation for the lossy restart;
//! * [`resilient`] — the Fig. 4 driver: one CG execution per scheme
//!   (Ideal / Checkpoint / LossyRestart / FEIR / AFEIR), producing
//!   `(time, iteration, residual)` convergence traces.

//! ## Example
//!
//! ```
//! use raa_solver::csr::Csr;
//! use raa_solver::recovery::{recompute_residual, recover_x_block};
//!
//! let a = Csr::poisson2d(10, 10);
//! let x_true: Vec<f64> = (0..a.n()).map(|i| i as f64 * 0.1).collect();
//! let mut b = vec![0.0; a.n()];
//! a.spmv(&x_true, &mut b);
//!
//! // Solve, then lose a block of the iterate…
//! let mut x = raa_solver::cg(&a, &b, 1e-12, 1000, |_, _| {}).x;
//! let r = recompute_residual(&a, &b, &x);
//! let lost = x[40..60].to_vec();
//! x[40..60].fill(0.0);
//!
//! // …and reconstruct it *exactly* from r = b − A·x.
//! let rec = recover_x_block(&a, &b, &r, &x, 40..60, 1e-13);
//! for (got, want) in rec.iter().zip(&lost) {
//!     assert!((got - want).abs() < 1e-9);
//! }
//! ```

pub mod abft;
pub mod afeir_tasks;
pub mod blas;
pub mod cg;
pub mod csr;
pub mod fault;
pub mod monitor;
pub mod recovery;
pub mod resilient;

pub use abft::{cg_abft_tasks, AbftCfg, AbftResult, DetectedIn, Detection};
pub use afeir_tasks::{cg_afeir_tasks, AfeirTasksCfg, AfeirTasksResult};
pub use cg::{cg, pcg, try_cg_tasks, CgResult};
pub use csr::Csr;
pub use fault::{FaultMode, FaultSpec, FaultTarget};
pub use monitor::ConvergenceTrace;
pub use resilient::{run_scheme, run_scheme_multi, ResilientCfg, Scheme};

/// The system the task-CG drivers' unit tests share.
#[cfg(test)]
pub(crate) mod fixtures {
    use std::sync::Arc;

    use crate::csr::Csr;

    /// `nx`×`nx` Poisson matrix with a right-hand side that is no
    /// eigenvector, so CG takes its full iteration count.
    pub(crate) fn system(nx: usize) -> (Arc<Csr>, Vec<f64>) {
        let a = Csr::poisson2d(nx, nx);
        let n = a.n();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i % 11) as f64) * 0.3).collect();
        (Arc::new(a), b)
    }
}
