//! The repo benchmark: one workload per invocation, end-to-end metrics
//! untraced, per-layer metrics from a separate traced run. Everything is
//! measured from outside the crates — timing calls into public functions
//! and reading public counters. See `benchmark/README.md`.
//!
//! `raa-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! [--out DIR]` prints every metric by name with its unit and, as the
//! last line of stdout, one JSON object `{correct, attempted, failed,
//! metrics}`; `DIR/detail.<workload>.<trace>.json` keeps the provenance
//! and only the metrics the run measured. Exit code 0 only when every
//! output check held. `raa-benchmark --primaries` lists, per workload,
//! the end-to-end metrics it measures itself.

mod probes;
mod report;
mod rng;
mod serve;
mod sim;
mod solver;
mod spans;
mod summary;
mod tasks;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{primaries, Ledger, END_TO_END, PER_LAYER, WORKLOADS};

/// What every workload is told.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured stretch.
    pub seconds: f64,
    pub traced: bool,
    /// `W = min(cpus, 4)`: the most busy threads a workload may run.
    pub load_cap: usize,
    /// Zero of every span timestamp.
    pub origin: Instant,
    out_dir: PathBuf,
}

impl Ctx {
    /// Whether to set up once more, given the set-up times so far. The
    /// untraced run reports the median of at least five set-ups, more
    /// while they are cheap, so that `setup_s` is steady enough to carry a
    /// bound; the traced run reports no set-up time and sets up once.
    pub fn another_setup(&self, times: &[f64]) -> bool {
        if self.traced {
            times.is_empty()
        } else {
            times.len() < 5 || (times.len() < 25 && times.iter().sum::<f64>() < 1.5)
        }
    }

    /// How many set-ups a closed-loop task workload spreads through its
    /// measured stretch, given what the first one took: as many as fit in
    /// a tenth of the stretch, five at least, twenty-five at most.
    pub fn setups_for(&self, first: f64) -> usize {
        ((0.1 * self.seconds / first).ceil() as usize).clamp(5, 25)
    }

    /// Write `text` to `name` in the output directory.
    fn write_out(&self, name: &str, text: &str) -> std::io::Result<PathBuf> {
        let path = self.out_dir.join(name);
        std::fs::create_dir_all(&self.out_dir)?;
        std::fs::write(&path, text)?;
        Ok(path)
    }

    /// Write the traced run's spans as Chrome-trace JSON.
    pub fn write_trace(&self, spans: &spans::Spans, ledger: &mut Ledger) {
        let name = format!("trace.{}.json", self.workload);
        match self.write_out(&name, &spans.chrome_json()) {
            Ok(path) => ledger.notes.push(format!(
                "trace: {} spans written to {}",
                spans.all().len(),
                path.display()
            )),
            Err(e) => ledger.fail(format!("writing {name}: {e}")),
        }
    }
}

const USAGE: &str = "usage: raa-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       raa-benchmark --primaries";

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 42,
        seconds: 16.0,
        traced: false,
        load_cap: std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(4),
        origin: Instant::now(),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or(format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value {value:?} for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => ctx.workload = value,
            "--seed" => ctx.seed = value.parse().map_err(|_| bad())?,
            "--seconds" | "--secs" => {
                ctx.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (0.2..=600.0).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                ctx.traced = matches!(value.as_str(), "0" | "1")
                    .then_some(value == "1")
                    .ok_or_else(bad)?
            }
            "--out" => ctx.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}\n{USAGE}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}\n{USAGE}"));
    }
    Ok(ctx)
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--primaries") {
        for w in WORKLOADS {
            println!("{w} {}", primaries(w).join(" "));
        }
        return ExitCode::SUCCESS;
    }
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Workers per workload, sample counts and quartiles are printed with
    // the metrics they belong to.
    let provenance = [
        ("workload", ctx.workload.clone()),
        ("seed", ctx.seed.to_string()),
        ("seconds", ctx.seconds.to_string()),
        ("trace", (ctx.traced as u8).to_string()),
        ("cpus", cpus.to_string()),
        ("commit", env("RAA_BENCH_COMMIT")),
        ("rustc", env("RAA_BENCH_RUSTC")),
        ("date", env("RAA_BENCH_DATE")),
    ];
    let line: Vec<String> = provenance
        .iter()
        .map(|(k, v)| format!("{k}={v:?}"))
        .collect();
    println!("raa-benchmark {}", line.join(" "));

    let mut ledger = Ledger::default();
    match ctx.workload.as_str() {
        "task_flood" => tasks::run(&ctx, tasks::Which::Flood, &mut ledger),
        "fork_tree" => tasks::run(&ctx, tasks::Which::Tree, &mut ledger),
        "dep_graph" => tasks::run(&ctx, tasks::Which::Dep, &mut ledger),
        "solver_cg" => tasks::run(&ctx, tasks::Which::Solver, &mut ledger),
        "serve_steady" => serve::run(&ctx, serve::STEADY_BATCH_RPS, &mut ledger),
        "serve_overload" => serve::run(&ctx, serve::OVERLOAD_BATCH_RPS, &mut ledger),
        "sim_pipeline" => sim::run(&ctx, &mut ledger),
        other => unreachable!("{other} passed the workload check"),
    }
    let catalogue = if ctx.traced {
        ledger.put("proc.peak_rss_mb", report::peak_rss_mb());
        PER_LAYER
    } else {
        END_TO_END
    };
    let detail = format!("detail.{}.{}.json", ctx.workload, ctx.traced as u8);
    if let Err(e) = ctx.write_out(&detail, &ledger.detail_json(&provenance, catalogue)) {
        ledger.fail(format!("writing {detail}: {e}"));
    }
    print!("{}", ledger.report(catalogue));
    println!("{}", ledger.result_line(catalogue));
    if ledger.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
