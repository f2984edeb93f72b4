//! `solver_cg`: the task runtime under its in-repo user, run as it is.
//!
//! raa-solver's `cg.rs`, `abft.rs`, `afeir_tasks.rs` and raa-apps'
//! `exec.rs` hold every task-graph call site in the repository outside
//! the benchmarks, and all of them build their graphs the same way: one
//! `TaskBuilder::spawn` per task from the client thread, every task
//! declaring its regions, and the client blocking on a region between
//! iterations. None calls `spawn_many`. So one rep here is one call of
//! `raa_solver::cg::try_cg_tasks` itself — the blocked CG that the fig6
//! replay, the fault campaigns and `whatif` run — on a seeded system of
//! the size those callers use: per iteration `5·blocks + 2` single spawns
//! with real bodies (spmv, dots, axpys on 100-row blocks), then
//! `taskwait_on(scalars)`, which is a sentinel task of its own.
//!
//! The client and the one worker are confined to one cpu. The worker
//! outruns the producer and parks after two tasks in three, so on two
//! cpus of a shared host the solve spends half its time in wake-ups that
//! cross to a sleeping virtual cpu, and what moves from run to run is the
//! host's interrupt latency, not the program (see README, "Why `solver_cg`
//! is confined to one cpu").

use std::sync::Arc;
use std::time::Instant;

use raa_runtime::Runtime;
use raa_solver::cg::{cg, try_cg_tasks, CgResult};
use raa_solver::csr::Csr;

use crate::rng::SplitMix64;
use crate::spans::Spans;
use crate::tasks::Graph;

/// fig6's `Scale::Standard` system: a 40 × 40 Poisson grid in 16 row
/// blocks, solved to 1e-8.
const GRID: usize = 40;
const BLOCKS: usize = 16;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 1600;

/// The kernel's `cpu_set_t`: one bit per cpu, 1,024 of them.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The cpus the calling thread may run on.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Option<CpuSet> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    (rc == 0).then_some(set)
}

/// Confine the calling thread, and every thread it starts from now on
/// (a `Runtime`'s workers inherit their creator's mask), to the
/// highest-numbered cpu it may run on; the lowest is the one a small
/// virtual machine takes its interrupts on. Returns that cpu, or `None`
/// where the host cannot say or do it (the run then goes on unconfined).
#[cfg(target_os = "linux")]
pub fn confine_to_one_cpu() -> Option<usize> {
    let allowed = allowed_cpus()?;
    let word = allowed.iter().rposition(|&w| w != 0)?;
    let bit = 63 - allowed[word].leading_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live `cpu_set_t` of the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    (rc == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn confine_to_one_cpu() -> Option<usize> {
    None
}

pub struct SolverCg {
    a: Arc<Csr>,
    b: Vec<f64>,
    /// The sequential solver's answer to the same system: the oracle.
    reference: CgResult,
    last: Option<Result<CgResult, String>>,
    /// Tasks the last solve spawned, by the runtime's own counter.
    spawned: u64,
    /// Iterations of the first solve: the blocked reduction order is
    /// fixed, so every solve of one system must take as many.
    iterations: Option<usize>,
    secs: f64,
}

impl SolverCg {
    /// The system `A·x = b` for a seeded `x`, and the sequential answer.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let a = Csr::poisson2d(GRID, GRID);
        let x_true: Vec<f64> = (0..a.n()).map(|_| rng.next_f64() * 16.0 - 8.0).collect();
        let mut b = vec![0.0; a.n()];
        a.spmv(&x_true, &mut b);
        let reference = cg(&a, &b, TOL, MAX_ITERS, |_, _| {});
        SolverCg {
            a: Arc::new(a),
            b,
            reference,
            last: None,
            spawned: 0,
            iterations: None,
            secs: 0.0,
        }
    }

    /// Per iteration: five kernels per block, the two scalar reductions
    /// and the `taskwait_on` sentinel.
    const TASKS_PER_ITERATION: usize = 5 * BLOCKS + 3;

    fn tasks_of(iterations: usize) -> u64 {
        (iterations * Self::TASKS_PER_ITERATION) as u64
    }
}

impl Graph for SolverCg {
    /// Exact once a solve has run; the sequential solver's iteration count
    /// (at most two off) before that.
    fn tasks(&self) -> u64 {
        if self.spawned > 0 {
            self.spawned
        } else {
            Self::tasks_of(self.reference.iterations)
        }
    }

    /// The whole solve: `try_cg_tasks` spawns, waits per iteration and
    /// ends in `try_wait`, so the `taskwait` after it finds nothing left.
    fn spawn(&mut self, rt: &Arc<Runtime>, spans: &mut Spans, rep: u32) {
        let before = rt.stats().spawned;
        let (s0, t0) = (spans.stamp(), Instant::now());
        let solved = try_cg_tasks(
            rt.as_ref(),
            Arc::clone(&self.a),
            &self.b,
            BLOCKS,
            TOL,
            MAX_ITERS,
        );
        self.secs = t0.elapsed().as_secs_f64();
        spans.add("cg_tasks", s0, spans.stamp(), rep, 0);
        self.spawned = rt.stats().spawned - before;
        self.last = Some(solved.map_err(|report| format!("{} task(s) failed", report.len())));
    }

    fn check(&mut self) -> Result<(), String> {
        let solved = match self.last.take() {
            Some(Ok(solved)) => solved,
            Some(Err(why)) => return Err(format!("solver_cg: {why}")),
            None => return Err("solver_cg: checked before any solve".into()),
        };
        let mut wrong = Vec::new();
        if !solved.converged {
            wrong.push(format!(
                "did not converge (rel. residual {:e})",
                solved.rel_residual
            ));
        }
        // The residual as the harness computes it, not as the solver's
        // scalar recurrence reports it.
        let mut ax = vec![0.0; self.b.len()];
        self.a.spmv(&solved.x, &mut ax);
        let norm = |v: &mut dyn Iterator<Item = f64>| v.map(|x| x * x).sum::<f64>().sqrt();
        let residual = norm(&mut self.b.iter().zip(&ax).map(|(b, ax)| b - ax))
            / norm(&mut self.b.iter().copied());
        if residual.is_nan() || residual > 10.0 * TOL {
            wrong.push(format!("true relative residual {residual:e}"));
        }
        let apart = solved
            .x
            .iter()
            .zip(&self.reference.x)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max);
        if apart.is_nan() || apart > 1e-5 {
            wrong.push(format!("x is {apart:e} away from the sequential solver's"));
        }
        let first = *self.iterations.get_or_insert(solved.iterations);
        if solved.iterations != first || first.abs_diff(self.reference.iterations) > 2 {
            wrong.push(format!(
                "{} iterations, {first} on the first solve, {} sequentially",
                solved.iterations, self.reference.iterations
            ));
        }
        if self.spawned != Self::tasks_of(solved.iterations) {
            wrong.push(format!(
                "{} tasks spawned, expected {}",
                self.spawned,
                Self::tasks_of(solved.iterations)
            ));
        }
        if wrong.is_empty() {
            Ok(())
        } else {
            Err(format!("solver_cg: {}", wrong.join("; ")))
        }
    }

    fn leaves_a_tail(&self) -> bool {
        false
    }

    fn rep_samples(&self) -> Vec<(&'static str, f64)> {
        let iterations = self.iterations.unwrap_or(self.reference.iterations).max(1);
        vec![("solver.iter_us", self.secs * 1e6 / iterations as f64)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Ledger;
    use raa_runtime::RuntimeConfig;

    #[test]
    fn solves_match_the_oracle_and_a_wrong_answer_is_caught() {
        let rt = Arc::new(Runtime::new(RuntimeConfig::with_workers(2)));
        let mut g = SolverCg::new(42);
        let mut ledger = Ledger::default();
        for _ in 0..2 {
            let r = crate::tasks::rep(&mut g, &rt, &mut Spans::off(), &mut ledger);
            assert!(r.samples[0].1 > 0.0);
        }
        assert!(ledger.correct(), "{:?}", ledger.problems);
        assert_eq!(ledger.attempted, 2 * g.tasks());
        assert_eq!(g.tasks() % SolverCg::TASKS_PER_ITERATION as u64, 0);

        g.spawn(&rt, &mut Spans::off(), 0);
        if let Some(Ok(solved)) = &mut g.last {
            solved.x[7] += 1e-3; // one element off
        }
        let why = g.check().unwrap_err();
        assert!(why.contains("away from the sequential"), "{why}");
        assert!(why.contains("true relative residual"), "{why}");
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn confinement_leaves_one_cpu_and_is_inherited() {
        // In a thread of its own: the mask is per thread, and the test
        // harness's other threads keep theirs.
        let (cpu, own, child) = std::thread::spawn(|| {
            let cpu = confine_to_one_cpu().expect("the host allows it");
            let own = allowed_cpus().unwrap();
            let child = std::thread::spawn(allowed_cpus).join().unwrap().unwrap();
            (cpu, own, child)
        })
        .join()
        .unwrap();
        let mut expected: CpuSet = [0; 16];
        expected[cpu / 64] = 1 << (cpu % 64);
        assert_eq!(own, expected);
        assert_eq!(child, expected);
    }

    #[test]
    fn the_system_depends_on_the_seed() {
        assert_eq!(SolverCg::new(5).b, SolverCg::new(5).b);
        assert_ne!(SolverCg::new(5).b, SolverCg::new(6).b);
    }
}
