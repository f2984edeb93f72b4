//! Metric catalogue, the per-run ledger, the result line and the detail
//! file.
//!
//! `BENCHMARK.json` lists the same names and units; a unit test keeps the
//! two in step. The result line must carry every metric of its catalogue
//! as a number, so a per-layer metric the workload does not exercise
//! reads 0 there; the printed report and the detail file list only what
//! was measured, which is how `check.sh` tells "not measured" from
//! "measured zero".

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::summary::{dist, Dist};

/// `(name, unit)` of every end-to-end metric, reported by every untraced
/// run. A workload measures the ones [`primaries`] lists for it; the rest
/// are aliases, exact functions of one of those.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("tasks_per_s", "tasks/s"),
    ("crit_p50_ms", "ms"),
    ("crit_p99_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("pass_s", "s"),
];

/// `(name, unit)` of every per-layer metric, reported by every traced
/// run. The layer is the part of the name before the first dot.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace_overhead_frac", "frac"),
    ("proc.peak_rss_mb", "MiB"),
    ("runtime.spawn_many.ns_per_task", "ns/task"),
    ("runtime.spawn.ns_per_task", "ns/task"),
    ("runtime.taskwait.tail_ms", "ms"),
    ("runtime.ready_at_spawn_frac", "frac"),
    ("deps.edges_per_task", "count"),
    ("runtime.shape.cg.tasks_per_s", "tasks/s"),
    ("runtime.shape.chain.tasks_per_s", "tasks/s"),
    ("runtime.shape.fanout.tasks_per_s", "tasks/s"),
    ("pool.steals_ok_per_ktask", "count"),
    ("pool.steal_hit_frac", "frac"),
    ("pool.wakes_per_task", "count"),
    ("pool.parks_per_ktask", "count"),
    ("scheduler.injector_share", "frac"),
    ("scheduler.injector_overflow", "count"),
    ("runtime.slab_remote_free_frac", "frac"),
    ("runtime.submit.us_p50", "us"),
    ("runtime.try_spawn.us_p50", "us"),
    ("runtime.settle.us_p50", "us"),
    ("serve.queue_ms_p50", "ms"),
    ("serve.queue_ms_p99", "ms"),
    ("serve.body_ms_p50", "ms"),
    ("job.queue_delay_p99_us", "us"),
    ("job.body_p99_us", "us"),
    ("overload.shed_frac", "frac"),
    ("overload.transitions", "count"),
    ("job.deadline_miss_frac", "frac"),
    ("job.crit_deadline_hit_frac", "frac"),
    ("runtime.hedged", "count"),
    ("loadgen.late_p99_us", "us"),
    ("loadgen.late_max_us", "us"),
    ("loadgen.sleep_overshoot_p999_us", "us"),
    ("deps.sharded.ns_per_access", "ns"),
    ("deps.seq.ns_per_access", "ns"),
    ("deque.push_pop.ns", "ns"),
    ("deque.steal_half.ns_per_task", "ns/task"),
    ("deque.injector.push_pop.ns", "ns"),
    ("runtime.hedge.recover_ms_p50", "ms"),
    ("sim.accesses_per_s", "1/s"),
    ("sim.accesses_per_s.cg", "1/s"),
    ("sim.accesses_per_s.ep", "1/s"),
    ("sim.accesses_per_s.ft", "1/s"),
    ("sim.accesses_per_s.is", "1/s"),
    ("sim.accesses_per_s.mg", "1/s"),
    ("sim.accesses_per_s.sp", "1/s"),
    ("workloads.trace_events_per_s", "1/s"),
    ("simsched.tasks_per_s.c64.flat", "tasks/s"),
    ("simsched.tasks_per_s.c1024.flat", "tasks/s"),
    ("simsched.tasks_per_s.c1024.hier", "tasks/s"),
    ("vector.elems_per_s.vsr", "1/s"),
    ("vector.elems_per_s.vradix", "1/s"),
    ("vector.elems_per_s.bitonic", "1/s"),
    ("vector.elems_per_s.vquick", "1/s"),
    ("vector.elems_per_s.scalar-quicksort", "1/s"),
    ("vector.elems_per_s.scalar-radix", "1/s"),
    ("sim.stats_digest", "count"),
    ("job.price_ns_per_task", "ns/task"),
    ("job.deadline.price_ns_per_task", "ns/task"),
    ("telemetry.price_ns_per_task", "ns/task"),
    ("trace.price_ns_per_task", "ns/task"),
    ("topology.price_ns_per_task", "ns/task"),
    ("runtime.single_vs_batch.ns_per_task", "ns/task"),
    ("deps.single_vs_batch.ns_per_task", "ns/task"),
    ("solver.iter_us", "us"),
];

pub const WORKLOADS: &[&str] = &[
    "task_flood",
    "fork_tree",
    "dep_graph",
    "solver_cg",
    "serve_steady",
    "serve_overload",
    "sim_pipeline",
];

/// Half of every end-to-end bound in `BENCHMARK.json` (0.25).
const NOISY_ERROR: f64 = 0.125;

/// The end-to-end metrics `workload` measures itself: what its users wait
/// for. Every other end-to-end name is reported there as an alias (the
/// driver wants every name from every workload) and is not a second
/// measurement: `check.sh` judges only these pairs.
pub fn primaries(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve_steady" | "serve_overload" => {
            &["setup_s", "crit_p50_ms", "crit_p99_ms", "goodput_rps"]
        }
        "sim_pipeline" => &["setup_s", "pass_s"],
        _ => &["setup_s", "tasks_per_s"],
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<String, (f64, String)>,
    /// Operations attempted (tasks, requests or pass items) and the ones
    /// that failed hard: lost or errored task, refused critical request,
    /// wrong output.
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Free-form provenance lines printed with the report.
    pub notes: Vec<String>,
}

impl Ledger {
    /// Record a metric measured once.
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), (value, String::new()));
    }

    /// Record a metric that is the median of samples, keeping the sample
    /// count and quartiles for the report.
    pub fn put_dist(&mut self, name: impl Into<String>, d: Dist) {
        let how = format!("n={} q1={:.6} q3={:.6}", d.n, d.q1, d.q3);
        self.values.insert(name.into(), (d.median, how));
    }

    /// Like [`Ledger::put`] with a remark on how the value was taken.
    pub fn put_how(&mut self, name: impl Into<String>, value: f64, how: impl Into<String>) {
        self.values.insert(name.into(), (value, how.into()));
    }

    /// Record an alias: an exact function of the primary metric `of`,
    /// reported under another end-to-end name.
    pub fn put_alias(&mut self, name: &str, value: f64, of: &str, formula: &str) {
        self.put_how(name, value, format!("alias of {of}: {formula}"));
    }

    /// The end-to-end metrics of a closed-loop workload, whose operation
    /// is a rep (or a pass) of `work` tasks: the median operation time is
    /// the one measurement, reported as `primary` (`tasks_per_s` or
    /// `pass_s`); every other name is an exact function of it.
    pub fn put_closed_loop(&mut self, primary: &str, setups: &[f64], secs: &[f64], work: f64) {
        let per_op = dist(secs);
        let t = per_op.median;
        self.put_dist("setup_s", dist(setups));
        let how = format!(
            "median of n={} operations of {work} tasks (seconds per operation: q1={:.6} q3={:.6})",
            per_op.n, per_op.q1, per_op.q3
        );
        let mut put = |name: &str, value: f64, formula: &str| {
            if name == primary {
                self.put_how(name, value, how.clone());
            } else {
                self.put_alias(name, value, primary, formula);
            }
        };
        put(
            "tasks_per_s",
            work / t,
            "tasks per operation / median operation time",
        );
        put("pass_s", t, "median operation time");
        put("crit_p50_ms", t * 1e3, "median operation time");
        put(
            "crit_p99_ms",
            t * 1e3,
            "median operation time (an operation has no request tail)",
        );
        put("goodput_rps", 1.0 / t, "operations per second");
        self.note_if_noisy(primary, "operation times", per_op);
    }

    /// A run whose median is itself uncertain by a good part of the
    /// regression bound cannot resolve a change of that size: say so in
    /// the notes, so that its number is held as unresolved. The
    /// uncertainty is the standard error of a median of `n` samples,
    /// estimated from the samples' own quartiles (σ ≈ IQR / 1.349,
    /// SE ≈ 1.2533 σ / √n), as a share of the median.
    pub fn note_if_noisy(&mut self, metric: &str, what: &str, samples: Dist) {
        let sigma = (samples.q3 - samples.q1) / 1.349;
        let error = 1.2533 * sigma / (samples.n as f64).sqrt() / samples.median;
        if error > NOISY_ERROR {
            self.notes.push(format!(
                "noisy-host: the n={} {what} behind {metric} (q1 {:.6}, q3 {:.6}) leave their median \
                 uncertain by {error:.3} of its value; hold {metric} of this run as unresolved, not as a change",
                samples.n, samples.q1, samples.q3
            ));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The human report: every catalogue metric by name with its unit.
    pub fn report(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let mut absent = 0;
        for &(name, unit) in catalogue {
            match self.values.get(name) {
                Some((value, how)) => {
                    let _ = writeln!(out, "  {name:<40} {value:>18.6} {unit:<8} {how}");
                }
                None => absent += 1,
            }
        }
        if absent > 0 {
            let _ = writeln!(
                out,
                "  ({absent} metrics this workload does not exercise: 0 in the result line, absent from the detail file)"
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "  PROBLEM: {p}");
        }
        let _ = writeln!(
            out,
            "  ops_attempted={} ops_failed={} correct={}",
            self.attempted,
            self.failed,
            self.correct()
        );
        out
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`, every catalogue metric
    /// present with all the digits it was measured with.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = json_num(self.get(name).unwrap_or(0.0));
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail file: provenance, then only the metrics this run
    /// measured, each with how it was taken (sample count, quartiles, or
    /// the primary it is an alias of), the notes and the failed checks.
    pub fn detail_json(&self, provenance: &[(&str, String)], catalogue: &[(&str, &str)]) -> String {
        let list = |items: &[String]| {
            let quoted: Vec<String> = items.iter().map(|s| json_str(s)).collect();
            format!("[{}]", quoted.join(", "))
        };
        let prov: Vec<String> = provenance
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let metrics: Vec<String> = catalogue
            .iter()
            .filter_map(|&(name, unit)| {
                let (value, how) = self.values.get(name)?;
                Some(format!(
                    "{}: {{\"value\": {}, \"unit\": {}, \"how\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit),
                    json_str(how)
                ))
            })
            .collect();
        format!(
            "{{\"provenance\": {{{}}}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"notes\": {}, \"problems\": {}}}\n",
            prov.join(", "),
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", "),
            list(&self.notes),
            list(&self.problems),
        )
    }
}

/// A JSON number with all the digits it was measured with. JSON has no
/// infinity: an unbounded latency (a request that never finished) prints
/// as a value no run reaches.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "1e300".into()
    }
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where
/// `/proc` does not offer it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_catalogue_metric() {
        let mut l = Ledger {
            attempted: 12,
            ..Ledger::default()
        };
        for &(name, _) in END_TO_END {
            l.put(name, 1.25);
        }
        let line = l.result_line(END_TO_END);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        for &(name, unit) in END_TO_END {
            assert!(line.contains(&format!(
                "\"{name}\": {{\"value\": 1.25, \"unit\": \"{unit}\"}}"
            )));
        }
        // Absent per-layer metrics read 0; infinities stay valid JSON.
        l.put("serve.queue_ms_p99", f64::INFINITY);
        let line = l.result_line(PER_LAYER);
        assert!(line.contains("\"serve.queue_ms_p99\": {\"value\": 1e300,"));
        assert!(line.contains("\"sim.stats_digest\": {\"value\": 0, \"unit\": \"count\"}"));
        l.failed = 1;
        assert!(l.result_line(END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn aliases_are_exact_functions_of_the_one_measurement() {
        let mut l = Ledger::default();
        // Median operation time 0.5 s, 1,000 tasks per operation.
        l.put_closed_loop("tasks_per_s", &[0.1, 0.3, 0.2], &[0.4, 0.5, 0.9], 1000.0);
        let got = |name: &str| l.get(name).unwrap();
        assert_eq!(got("setup_s"), 0.2);
        assert_eq!(got("tasks_per_s"), 2000.0);
        assert_eq!((got("pass_s"), got("goodput_rps")), (0.5, 2.0));
        assert_eq!((got("crit_p50_ms"), got("crit_p99_ms")), (500.0, 500.0));
        // Everything but the workload's own metrics says whose alias it is.
        for &(name, _) in END_TO_END {
            let how = &l.values[name].1;
            let own = primaries("task_flood").contains(&name);
            assert_eq!(
                how.starts_with("alias of tasks_per_s"),
                !own,
                "{name}: {how}"
            );
        }
        for w in WORKLOADS {
            let own = primaries(w);
            assert!(own.contains(&"setup_s") && own.len() >= 2);
            assert!(own.iter().all(|m| END_TO_END.iter().any(|e| e.0 == *m)));
        }
    }

    #[test]
    fn only_a_run_that_cannot_resolve_half_a_bound_is_called_noisy() {
        let mut l = Ledger::default();
        // 16 windows, quartiles 30 % of the median apart: SE of the median
        // is 1.2533 * (0.3 / 1.349) / 4 = 0.07 of it.
        let quiet = Dist {
            n: 16,
            q1: 4.5,
            median: 5.0,
            q3: 6.0,
        };
        l.note_if_noisy("crit_p99_ms", "per-window p99s", quiet);
        assert!(l.notes.is_empty());
        let stalled = Dist { q3: 8.5, ..quiet }; // 0.8 apart: SE 0.186
        l.note_if_noisy("crit_p99_ms", "per-window p99s", stalled);
        assert!(l.notes[0].starts_with("noisy-host: the n=16 per-window p99s"));
        assert!(l.notes[0].contains("uncertain by 0.186"), "{}", l.notes[0]);
        assert!(l.correct(), "a noisy run is labelled, not failed");
    }

    #[test]
    fn detail_file_lists_only_what_was_measured() {
        let mut l = Ledger {
            attempted: 3,
            ..Ledger::default()
        };
        l.put("deps.edges_per_task", 0.0);
        l.put_how("overload.shed_frac", 0.5, "1 of 2 \"batch\" requests");
        l.notes.push("workers: 2".into());
        let text = l.detail_json(&[("seed", "42".into())], PER_LAYER);
        assert!(text.contains("\"provenance\": {\"seed\": \"42\"}"));
        assert!(text.contains(
            "\"deps.edges_per_task\": {\"value\": 0, \"unit\": \"count\", \"how\": \"\"}"
        ));
        assert!(text.contains("\"how\": \"1 of 2 \\\"batch\\\" requests\""));
        assert!(!text.contains("pool.steals_ok_per_ktask"));
        assert!(text.contains("\"notes\": [\"workers: 2\"], \"problems\": []"));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step with
    /// what the program prints.
    #[test]
    fn manifest_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let flat: String = text.split_whitespace().collect();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                flat.contains(&format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",")),
                "{name} [{unit}] missing from BENCHMARK.json"
            );
        }
        for w in WORKLOADS {
            assert!(
                flat.contains(&format!("{{\"name\":\"{w}\",\"why\":")),
                "{w} missing"
            );
        }
        let listed = flat.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        assert_eq!(flat.matches("\"why\":").count(), WORKLOADS.len());
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb() > 0.0);
        }
    }
}
