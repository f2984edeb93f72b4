//! Shared helpers for the figure-regeneration harnesses.
//!
//! Each `fig*` binary regenerates one figure/table of the paper's
//! evaluation and prints the same series the paper reports, plus a
//! `paper-vs-measured` footer. Problem scale is selected with the
//! `RAA_SCALE` environment variable (`test`, `small`, `standard`;
//! default `standard` — the Fig. 1 configuration).

use raa_runtime::{AccessMode, BatchTask, TaskScope};
use raa_solver::csr::Csr;
use raa_workloads::Scale;

pub mod fig6;
pub mod telemetry_text;

/// Tasks per iteration of [`spawn_cg_shape`]: spmv + dot per block, one
/// scale, axpy per block, with 16 blocks.
pub const CG_TASKS_PER_ITER: usize = 49;

/// Iterations batched into one `spawn_many` call by [`spawn_cg_shape`]:
/// enough tasks (~800) to amortise the per-batch admission reservation
/// and shard-lock sweep, small enough to keep the pending-batch
/// allocation bounded.
const CG_ITERS_PER_BATCH: usize = 16;

/// Spawn `iters` iterations of the blocked-CG-shaped task graph (the TDG
/// shape of `raa-solver`'s task CG, with empty bodies) into any
/// [`TaskScope`] — the whole runtime or one tenant's job: per iteration,
/// per-block spmv (`R x[b]`, `W q[b]`), a dot-product reduction
/// serialised on a scalar, one scale step, and per-block axpy. Shared by
/// `trace_report` and `serving_load` (the dependency-shaped requests of
/// its job palette). Iterations are submitted through
/// [`TaskScope::spawn_many`] in multi-iteration batches — one admission
/// reservation, slab claim and dependency sweep per ~16 iterations;
/// intra-batch edges wire identically to sequential spawns. Returns the
/// number of tasks spawned.
pub fn spawn_cg_shape<S: TaskScope>(scope: &S, iters: usize) -> u64 {
    const B: u64 = 16;
    let x = scope.register("x", ());
    let q = scope.register("q", ());
    let acc = scope.register("acc", ());
    let mut batch: Vec<BatchTask> = Vec::with_capacity(CG_ITERS_PER_BATCH * CG_TASKS_PER_ITER);
    for it in 0..iters {
        for b in 0..B {
            batch.push(
                BatchTask::new("spmv")
                    .region(x.sub(b, b + 1), AccessMode::Read)
                    .region(q.sub(b, b + 1), AccessMode::Write)
                    .body(|| {}),
            );
        }
        for b in 0..B {
            batch.push(
                BatchTask::new("dot")
                    .region(q.sub(b, b + 1), AccessMode::Read)
                    .updates(&acc)
                    .body(|| {}),
            );
        }
        batch.push(BatchTask::new("scale").updates(&acc).body(|| {}));
        for b in 0..B {
            batch.push(
                BatchTask::new("axpy")
                    .reads(&acc)
                    .region(x.sub(b, b + 1), AccessMode::ReadWrite)
                    .body(|| {}),
            );
        }
        if (it + 1) % CG_ITERS_PER_BATCH == 0 {
            scope.spawn_many(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        scope.spawn_many(batch);
    }
    (iters * CG_TASKS_PER_ITER) as u64
}

/// Ring capacity for a one-shot traced run of roughly `tasks` tasks:
/// enough for the few events each task generates on every ring, power of
/// two, capped so the rings stay tens of megabytes. Overflow is counted,
/// not fatal.
pub fn trace_capacity_for(tasks: usize) -> usize {
    (tasks * 2).next_power_of_two().clamp(1 << 14, 1 << 19)
}

/// Value following `--<flag>` in this process's argv.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

/// Problem scale named by `RAA_SCALE`'s value (`None`: unset).
fn parse_scale(value: Option<&str>) -> Result<Scale, String> {
    match value {
        Some("test") => Ok(Scale::Test),
        Some("small") => Ok(Scale::Small),
        Some("standard") | None => Ok(Scale::Standard),
        Some(other) => Err(format!(
            "RAA_SCALE={other}: expected test, small or standard (unset means standard)"
        )),
    }
}

/// `key`'s value (`None`: unset) through `parse`; a refused value ends
/// the process with status 2 and `parse`'s message on stderr, so a typo
/// never runs as the default.
fn env_or_exit<T>(key: &str, parse: impl FnOnce(Option<&str>) -> Result<T, String>) -> T {
    let value = std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    parse(value.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Problem scale from the environment; a value that names no scale ends
/// the process with status 2 rather than running the largest size.
pub fn scale_from_env() -> Scale {
    env_or_exit("RAA_SCALE", parse_scale)
}

/// The unsigned integer `key` is set to (`None`: unset, so `default`).
fn parse_u64(key: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| {
            format!("{key}={v}: expected an unsigned integer (unset means {default})")
        }),
    }
}

/// Unsigned integer knob (seed, trial count, size) from the environment;
/// a value that does not parse ends the process with status 2 rather
/// than running the default under the wrong name.
pub fn env_u64(key: &str, default: u64) -> u64 {
    env_or_exit(key, |value| parse_u64(key, value, default))
}

/// Relative true residual ‖b − A·x‖ / ‖b‖ of a candidate solution.
pub fn rel_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.spmv(x, &mut ax);
    let (mut rr, mut bb) = (0.0, 0.0);
    for i in 0..b.len() {
        rr += (b[i] - ax[i]) * (b[i] - ax[i]);
        bb += b[i] * b[i];
    }
    (rr / bb.max(f64::MIN_POSITIVE)).sqrt()
}

/// Print a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// Format a speedup as `1.23x`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Format a fraction as a signed percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:+.1}%", v * 100.0)
}

/// A crude fixed-width column printer for the harness tables.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_x(1.234), "1.23x");
        assert_eq!(fmt_pct(0.147), "+14.7%");
        assert_eq!(fmt_pct(-0.05), "-5.0%");
    }

    #[test]
    fn scale_names_parse_and_a_typo_is_refused() {
        assert!(matches!(parse_scale(None), Ok(Scale::Standard)));
        assert!(matches!(parse_scale(Some("test")), Ok(Scale::Test)));
        assert!(matches!(parse_scale(Some("small")), Ok(Scale::Small)));
        assert!(matches!(parse_scale(Some("standard")), Ok(Scale::Standard)));
        for bad in ["smal", "", "Test", "standard "] {
            let err = parse_scale(Some(bad)).expect_err(bad);
            assert!(err.contains("test, small or standard"), "{err}");
        }
    }

    #[test]
    fn integer_knobs_parse_and_a_typo_is_refused() {
        assert_eq!(parse_u64("RAA_FAULT_SEED", None, 42), Ok(42));
        assert_eq!(parse_u64("RAA_FAULT_SEED", Some("7"), 42), Ok(7));
        assert_eq!(
            parse_u64("K", Some("18446744073709551615"), 0),
            Ok(u64::MAX)
        );
        for bad in ["4x2", "", " 42", "-1", "4.2", "18446744073709551616"] {
            let err = parse_u64("RAA_FAULT_SEED", Some(bad), 42).expect_err(bad);
            assert!(err.starts_with(&format!("RAA_FAULT_SEED={bad}:")), "{err}");
            assert!(err.contains("unset means 42"), "{err}");
        }
    }

    #[test]
    fn row_aligns_right() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
