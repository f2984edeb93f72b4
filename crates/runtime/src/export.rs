//! Consumers of a drained [`Trace`]: Chrome-trace/Perfetto JSON export,
//! an aggregated [`MetricsReport`], and post-hoc critical-path
//! attribution against the recorded TDG.
//!
//! The JSON exporter emits the Chrome Trace Event Format (the
//! `{"traceEvents": [...]}` envelope Perfetto and `chrome://tracing`
//! load): one thread track per worker plus one for external threads,
//! `"X"` complete events for each task execution (paired `start` →
//! `complete`/`fault` on the same `(task, slot, gen)` attempt key),
//! `"i"` instants for scheduling events, and `"s"`/`"f"` flow arrows
//! along the dependency edges of the recorded graph.
//!
//! Everything here is hand-written string assembly: the workspace
//! deliberately has no serde dependency, and the format is simple enough
//! that a small escaper suffices.

use std::collections::HashMap;
use std::fmt;

use crate::graph::TaskGraph;
use crate::stats::{StatsSnapshot, RETRY_HIST_BUCKETS};
use crate::task::TaskId;
use crate::telemetry::{bucket_bounds, HistSnapshot, TelemetrySnapshot};
use crate::trace::{Trace, TraceEvent, TraceEventKind, EXTERNAL_WORKER};

/// Attempt key: one task execution attempt on one slab slot generation.
type AttemptKey = (u32, u32, u32);

fn key_of(ev: &TraceEvent) -> AttemptKey {
    (ev.task.0, ev.slot, ev.gen)
}

/// Track index (Chrome `tid`) for an event: worker index, or the extra
/// trailing track for external threads.
fn tid_of(ev: &TraceEvent, workers: usize) -> usize {
    if ev.worker == EXTERNAL_WORKER {
        workers
    } else {
        ev.worker as usize
    }
}

/// All events of every track, globally sorted by timestamp (stable, so
/// per-track order survives ties).
fn sorted_events(trace: &Trace) -> Vec<TraceEvent> {
    let mut evs: Vec<TraceEvent> = trace.events().copied().collect();
    evs.sort_by_key(|e| e.ts_ns);
    evs
}

/// Escape a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Chrome-trace timestamps are microseconds; keep ns resolution as
/// fractional digits.
fn us(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1000.0)
}

fn label_of(task: TaskId, graph: Option<&TaskGraph>) -> String {
    match graph {
        Some(g) if task.index() < g.len() => {
            let l = &g.node(task).meta.label;
            if l.is_empty() {
                format!("t{}", task.0)
            } else {
                l.to_string()
            }
        }
        _ => format!("t{}", task.0),
    }
}

/// Render a drained trace as Chrome Trace Event Format JSON. When the
/// recorded [`TaskGraph`] is supplied, task slices carry their labels
/// and dependency edges become flow arrows.
pub fn chrome_trace_json(trace: &Trace, graph: Option<&TaskGraph>) -> String {
    let workers = trace.workers;
    let mut events: Vec<String> = Vec::with_capacity(workers + 2);
    // Timestamped records carry their ns key so the final array can be
    // emitted time-sorted — viewers don't require it, but it lets
    // downstream validators stream the file checking per-track
    // monotonicity without buffering.
    let mut timed: Vec<(u64, String)> = Vec::with_capacity(trace.len());
    events.push(
        "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{\"name\":\"raa-runtime\"}}"
            .to_string(),
    );
    for t in 0..=workers {
        let name = if t == workers {
            "external".to_string()
        } else {
            format!("worker-{t}")
        };
        events.push(format!(
            "{{\"ph\":\"M\",\"pid\":0,\"tid\":{t},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    // Pair starts with completes/faults into "X" slices; everything else
    // becomes an "i" instant on its worker track.
    struct Open {
        ts_ns: u64,
        tid: usize,
        critical: bool,
    }
    let evs = sorted_events(trace);
    let mut open: HashMap<AttemptKey, Open> = HashMap::new();
    // Per-task first start / last end (with their tracks), for flows.
    let mut first_start: HashMap<u32, (u64, usize)> = HashMap::new();
    let mut last_end: HashMap<u32, (u64, usize)> = HashMap::new();
    for ev in &evs {
        let tid = tid_of(ev, workers);
        match ev.kind {
            TraceEventKind::Start => {
                first_start.entry(ev.task.0).or_insert((ev.ts_ns, tid));
                open.insert(
                    key_of(ev),
                    Open {
                        ts_ns: ev.ts_ns,
                        tid,
                        critical: ev.arg != 0,
                    },
                );
            }
            TraceEventKind::Complete | TraceEventKind::Fault => {
                let outcome = if ev.kind == TraceEventKind::Fault {
                    "fault"
                } else {
                    "ok"
                };
                if let Some(o) = open.remove(&key_of(ev)) {
                    last_end.insert(ev.task.0, (ev.ts_ns, o.tid));
                    timed.push((
                        o.ts_ns,
                        format!(
                            "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\
                         \"name\":\"{}\",\"cat\":\"task\",\"args\":{{\"task\":{},\
                         \"slot\":{},\"gen\":{},\"critical\":{},\"outcome\":\"{}\"}}}}",
                            o.tid,
                            us(o.ts_ns),
                            us(ev.ts_ns.saturating_sub(o.ts_ns)),
                            esc(&label_of(ev.task, graph)),
                            ev.task.0,
                            ev.slot,
                            ev.gen,
                            o.critical,
                            outcome,
                        ),
                    ));
                } else {
                    // Start lost to ring overflow: keep the end visible.
                    timed.push((ev.ts_ns, instant(ev, tid, outcome)));
                }
            }
            _ => timed.push((ev.ts_ns, instant(ev, tid, ev.kind.name()))),
        }
    }
    // Starts whose end was lost (overflow, or a drain cut mid-task).
    for (key, o) in open {
        timed.push((
            o.ts_ns,
            format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"s\":\"t\",\
                 \"name\":\"start (unmatched)\",\"cat\":\"task\",\
                 \"args\":{{\"task\":{},\"slot\":{},\"gen\":{}}}}}",
                o.tid,
                us(o.ts_ns),
                key.0,
                key.1,
                key.2,
            ),
        ));
    }

    // Flow arrows along dependency edges: from the predecessor's last
    // end to the successor's first start.
    if let Some(g) = graph {
        let mut flow = 0u64;
        for node in g.nodes() {
            let Some(&(start_ts, start_tid)) = first_start.get(&node.id.0) else {
                continue;
            };
            for p in &node.preds {
                let Some(&(end_ts, end_tid)) = last_end.get(&p.0) else {
                    continue;
                };
                timed.push((
                    end_ts,
                    format!(
                        "{{\"ph\":\"s\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\
                         \"name\":\"dep\",\"cat\":\"dep\"}}",
                        end_tid,
                        us(end_ts),
                        flow,
                    ),
                ));
                timed.push((
                    start_ts.max(end_ts),
                    format!(
                        "{{\"ph\":\"f\",\"pid\":0,\"tid\":{},\"ts\":{},\"id\":{},\
                         \"bp\":\"e\",\"name\":\"dep\",\"cat\":\"dep\"}}",
                        start_tid,
                        us(start_ts.max(end_ts)),
                        flow,
                    ),
                ));
                flow += 1;
            }
        }
    }

    // Stable by timestamp: records pushed in causal order (slice before
    // its outgoing flow, flow start before finish) keep that order on ties.
    timed.sort_by_key(|(ts, _)| *ts);
    events.extend(timed.into_iter().map(|(_, e)| e));

    let mut out = String::with_capacity(events.iter().map(|e| e.len() + 2).sum::<usize>() + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

/// Render a recorded [`TaskProgram`](crate::TaskProgram) as JSON: one
/// record per task carrying its annotations, dependency edges, measured
/// duration and reference-stream summary, plus the program-wide
/// SPM-mappable address ranges. Hand-written assembly like the Chrome
/// exporter — the workspace has no serde.
pub fn program_json(program: &crate::TaskProgram) -> String {
    use raa_workloads::trace::TraceSummary;

    let g = program.graph();
    let mut tasks: Vec<String> = Vec::with_capacity(g.len());
    for node in g.nodes() {
        let preds = node
            .preds
            .iter()
            .map(|p| p.0.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut rec = format!(
            "{{\"id\":{},\"label\":\"{}\",\"cost\":{},\"criticality\":\"{:?}\",\
             \"priority\":{},\"preds\":[{}]",
            node.id.0,
            esc(&node.meta.label),
            node.meta.cost,
            node.meta.criticality,
            node.meta.priority,
            preds,
        );
        if let Some(ns) = program.measured_ns(node.id) {
            rec.push_str(&format!(",\"measured_ns\":{ns}"));
        }
        let stream = program.stream(node.id);
        if !stream.is_empty() {
            let s = TraceSummary::of(stream.iter().copied());
            rec.push_str(&format!(
                ",\"stream\":{{\"mem_refs\":{},\"loads\":{},\"stores\":{},\
                 \"strided\":{},\"random_noalias\":{},\"random_unknown\":{},\
                 \"compute_cycles\":{}}}",
                s.mem_refs,
                s.loads,
                s.stores,
                s.strided,
                s.random_noalias,
                s.random_unknown,
                s.compute_cycles,
            ));
        }
        rec.push('}');
        tasks.push(rec);
    }
    let spm = program
        .spm_ranges()
        .iter()
        .map(|&(lo, hi)| format!("[{lo},{hi}]"))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"tasks\":[\n{}\n],\"spm_ranges\":[{}],\"measured\":{},\"streams\":{}}}\n",
        tasks.join(",\n"),
        spm,
        program.measured_count(),
        program.stream_count(),
    )
}

fn instant(ev: &TraceEvent, tid: usize, name: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":0,\"tid\":{},\"ts\":{},\"s\":\"t\",\"name\":\"{}\",\
         \"cat\":\"sched\",\"args\":{{\"task\":{},\"slot\":{},\"gen\":{},\"arg\":{}}}}}",
        tid,
        us(ev.ts_ns),
        esc(name),
        ev.task.0 as i64,
        ev.slot,
        ev.gen,
        ev.arg,
    )
}

/// Time tasks spent between their last enqueue and their start, split by
/// the queue they were popped from.
#[derive(Clone, Copy, Debug, Default)]
pub struct QueueResidency {
    pub target: &'static str,
    pub count: u64,
    pub total_ns: u64,
}

impl QueueResidency {
    pub fn avg_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Aggregated view of a drained trace, merged with the always-on
/// counters of [`StatsSnapshot`] (which are authoritative: they are not
/// subject to ring overflow).
#[derive(Clone, Debug)]
pub struct MetricsReport {
    /// Events drained / events dropped to ring overflow.
    pub events: u64,
    pub dropped: u64,
    /// Lifecycle counts seen in the trace.
    pub spawns: u64,
    pub starts: u64,
    pub completes: u64,
    pub faults: u64,
    pub skipped: u64,
    pub retries: u64,
    /// Scheduler/pool counters from the stats snapshot.
    pub steals_ok: u64,
    pub steals_empty: u64,
    pub injector_overflow: u64,
    pub parks: u64,
    pub wakes: u64,
    pub completed_tasks: u64,
    /// Ready→start residency per enqueue target (local / injector /
    /// overflow / global, plus `at-spawn` for ready-at-spawn tasks
    /// pushed from external threads, whose latency is spawn→start).
    pub residency: Vec<QueueResidency>,
    /// Settled tasks bucketed by failed attempts (from the stats).
    pub retry_hist: [u64; RETRY_HIST_BUCKETS],
}

impl MetricsReport {
    pub fn build(trace: &Trace, stats: &StatsSnapshot) -> Self {
        let mut residency = [
            QueueResidency {
                target: "local",
                ..Default::default()
            },
            QueueResidency {
                target: "injector",
                ..Default::default()
            },
            QueueResidency {
                target: "overflow",
                ..Default::default()
            },
            QueueResidency {
                target: "global",
                ..Default::default()
            },
            QueueResidency {
                target: "at-spawn",
                ..Default::default()
            },
        ];
        let mut pending: HashMap<AttemptKey, (usize, u64)> = HashMap::new();
        let mut counts: HashMap<TraceEventKind, u64> = HashMap::new();
        for ev in sorted_events(trace) {
            *counts.entry(ev.kind).or_insert(0) += 1;
            let bucket = match ev.kind {
                TraceEventKind::EnqueueLocal => Some(0),
                TraceEventKind::EnqueueInjector => Some(1),
                TraceEventKind::EnqueueOverflow => Some(2),
                TraceEventKind::EnqueueGlobal => Some(3),
                // Ready-at-spawn tasks pushed from an external thread get
                // no explicit enqueue event — their Spawn record (ready
                // bit set) marks the push, or their Ready record when a
                // live predecessor settled before the spawner dropped
                // its guard and the release fell to the spawner. A
                // worker-side enqueue, when present, overwrites this
                // below.
                TraceEventKind::Spawn if ev.arg & 1 == 1 => Some(4),
                TraceEventKind::Ready => Some(4),
                _ => None,
            };
            if let Some(b) = bucket {
                // Last enqueue wins: a local push that spilled to the
                // injector charges the injector.
                pending.insert(key_of(&ev), (b, ev.ts_ns));
            } else if ev.kind == TraceEventKind::Start {
                if let Some((b, enq_ts)) = pending.remove(&key_of(&ev)) {
                    residency[b].count += 1;
                    residency[b].total_ns += ev.ts_ns.saturating_sub(enq_ts);
                }
            }
        }
        let count = |k: TraceEventKind| counts.get(&k).copied().unwrap_or(0);
        MetricsReport {
            events: trace.len() as u64,
            dropped: trace.dropped_total(),
            spawns: count(TraceEventKind::Spawn),
            starts: count(TraceEventKind::Start),
            completes: count(TraceEventKind::Complete),
            faults: count(TraceEventKind::Fault),
            skipped: count(TraceEventKind::Skipped),
            retries: count(TraceEventKind::Retry),
            steals_ok: stats.steals_ok,
            steals_empty: stats.steals_empty,
            injector_overflow: stats.injector_overflow,
            parks: stats.parks,
            wakes: stats.wakes,
            completed_tasks: stats.completed,
            residency: residency.into_iter().filter(|r| r.count > 0).collect(),
            retry_hist: stats.retry_hist,
        }
    }

    /// Fraction of steal attempts that found work.
    pub fn steal_hit_rate(&self) -> f64 {
        let total = self.steals_ok + self.steals_empty;
        if total == 0 {
            0.0
        } else {
            self.steals_ok as f64 / total as f64
        }
    }

    /// Parks per completed task — the "workers kept starving" signal.
    pub fn park_ratio(&self) -> f64 {
        if self.completed_tasks == 0 {
            0.0
        } else {
            self.parks as f64 / self.completed_tasks as f64
        }
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 10_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events ({} dropped)",
            self.events, self.dropped
        )?;
        writeln!(
            f,
            "tasks: {} spawned, {} started, {} completed, {} faulted, {} skipped, {} retried",
            self.spawns, self.starts, self.completes, self.faults, self.skipped, self.retries
        )?;
        writeln!(
            f,
            "steals: {} hits / {} empty sweeps (hit rate {:.1}%)",
            self.steals_ok,
            self.steals_empty,
            self.steal_hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "parking: {} parks, {} wakes ({:.4} parks/task)",
            self.parks,
            self.wakes,
            self.park_ratio()
        )?;
        writeln!(f, "injector overflow pushes: {}", self.injector_overflow)?;
        if !self.residency.is_empty() {
            writeln!(f, "queue residency (ready -> start):")?;
            for r in &self.residency {
                writeln!(
                    f,
                    "  {:<9} {:>8} tasks, avg {}",
                    r.target,
                    r.count,
                    fmt_ns(r.avg_ns())
                )?;
            }
        }
        write!(f, "retry histogram [failed attempts: tasks]")?;
        for (i, n) in self.retry_hist.iter().enumerate() {
            if *n > 0 {
                write!(f, " {i}:{n}")?;
            }
        }
        writeln!(f)
    }
}

/// One task on the measured critical path.
#[derive(Clone, Debug)]
pub struct CriticalPathStep {
    pub task: TaskId,
    pub label: String,
    /// Worker the task started on ([`EXTERNAL_WORKER`] never appears:
    /// starts are always on workers).
    pub worker: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether the runtime's online bounded bottom-level estimator
    /// flagged this task critical at start time.
    pub predicted_critical: bool,
}

impl CriticalPathStep {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The measured critical path of a traced run, replayed against the
/// recorded TDG, with the online estimator's predictions alongside.
#[derive(Clone, Debug)]
pub struct CriticalPathReport {
    /// Gating chain, in execution order (each step's task is a TDG
    /// predecessor of the next, chosen as the last-finishing one).
    pub steps: Vec<CriticalPathStep>,
    /// Wall-clock span of the whole traced run (first start → last end
    /// over all tasks).
    pub wall_ns: u64,
    /// Time actually spent executing path tasks.
    pub path_busy_ns: u64,
    /// Path tasks the online estimator had flagged critical.
    pub predicted_on_path: usize,
    /// Tasks flagged critical anywhere in the run.
    pub predicted_total: usize,
    /// The static estimator's critical path over the recorded TDG
    /// (cost-weighted), for comparison.
    pub estimator_path: Vec<TaskId>,
    /// Measured-path tasks that also sit on the static path.
    pub estimator_overlap: usize,
}

impl CriticalPathReport {
    /// Span of the measured path itself (first path start → last path
    /// end).
    pub fn path_span_ns(&self) -> u64 {
        match (self.steps.first(), self.steps.last()) {
            (Some(a), Some(b)) => b.end_ns.saturating_sub(a.start_ns),
            _ => 0,
        }
    }

    /// Fraction of the path span spent executing (the rest is queueing /
    /// scheduling gaps).
    pub fn busy_fraction(&self) -> f64 {
        let span = self.path_span_ns();
        if span == 0 {
            0.0
        } else {
            self.path_busy_ns as f64 / span as f64
        }
    }
}

impl fmt::Display for CriticalPathReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "measured critical path: {} tasks, span {} ({} executing, {:.0}% busy), wall {}",
            self.steps.len(),
            fmt_ns(self.path_span_ns()),
            fmt_ns(self.path_busy_ns),
            self.busy_fraction() * 100.0,
            fmt_ns(self.wall_ns),
        )?;
        writeln!(
            f,
            "estimator: {}/{} path tasks were predicted critical online; \
             {}/{} lie on the static cost-weighted path ({} tasks)",
            self.predicted_on_path,
            self.steps.len(),
            self.estimator_overlap,
            self.steps.len(),
            self.estimator_path.len(),
        )?;
        const HEAD: usize = 10;
        const TAIL: usize = 4;
        let n = self.steps.len();
        for (i, s) in self.steps.iter().enumerate() {
            if n > HEAD + TAIL + 1 && i == HEAD {
                writeln!(f, "  ... {} more ...", n - HEAD - TAIL)?;
            }
            if n > HEAD + TAIL + 1 && (HEAD..n - TAIL).contains(&i) {
                continue;
            }
            writeln!(
                f,
                "  [{i:>3}] {:<20} worker {:<2} start {:>12} dur {:>9}{}",
                s.label,
                s.worker,
                fmt_ns(s.start_ns),
                fmt_ns(s.duration_ns()),
                if s.predicted_critical {
                    "  (predicted critical)"
                } else {
                    ""
                },
            )?;
        }
        Ok(())
    }
}

/// Replay a drained trace against the recorded TDG: find the measured
/// gating chain (backtracking from the last task to finish through its
/// last-finishing predecessors) and compare it with what the bounded
/// bottom-level estimator predicted. Returns `None` when the trace holds
/// no timed task that appears in the graph.
pub fn critical_path_attribution(trace: &Trace, graph: &TaskGraph) -> Option<CriticalPathReport> {
    struct Timing {
        start_ns: u64,
        end_ns: u64,
        worker: u32,
        predicted: bool,
    }
    let mut timing: HashMap<u32, Timing> = HashMap::new();
    for ev in sorted_events(trace) {
        if ev.task.index() >= graph.len() {
            continue;
        }
        match ev.kind {
            TraceEventKind::Start => {
                timing.entry(ev.task.0).or_insert(Timing {
                    start_ns: ev.ts_ns,
                    end_ns: ev.ts_ns,
                    worker: ev.worker,
                    predicted: ev.arg != 0,
                });
            }
            TraceEventKind::Complete | TraceEventKind::Fault => {
                if let Some(t) = timing.get_mut(&ev.task.0) {
                    t.end_ns = t.end_ns.max(ev.ts_ns);
                }
            }
            _ => {}
        }
    }
    if timing.is_empty() {
        return None;
    }
    let wall_start = timing.values().map(|t| t.start_ns).min().unwrap_or(0);
    let wall_end = timing.values().map(|t| t.end_ns).max().unwrap_or(0);
    // Backtrack from the last finisher through its latest-finishing
    // predecessor: the chain of tasks that gated the makespan.
    let mut cur = *timing
        .iter()
        .max_by_key(|(_, t)| t.end_ns)
        .map(|(id, _)| id)
        .expect("timing is non-empty");
    let mut chain = vec![cur];
    loop {
        let gating = graph
            .node(TaskId(cur))
            .preds
            .iter()
            .filter_map(|p| timing.get(&p.0).map(|t| (p.0, t.end_ns)))
            .max_by_key(|&(_, end)| end);
        match gating {
            Some((p, _)) => {
                chain.push(p);
                cur = p;
            }
            None => break,
        }
    }
    chain.reverse();
    let steps: Vec<CriticalPathStep> = chain
        .iter()
        .map(|&id| {
            let t = &timing[&id];
            CriticalPathStep {
                task: TaskId(id),
                label: label_of(TaskId(id), Some(graph)),
                worker: t.worker,
                start_ns: t.start_ns,
                end_ns: t.end_ns,
                predicted_critical: t.predicted,
            }
        })
        .collect();
    let (_, est_path) = graph.critical_path();
    let on_static: std::collections::HashSet<u32> = est_path.iter().map(|t| t.0).collect();
    Some(CriticalPathReport {
        path_busy_ns: steps.iter().map(|s| s.duration_ns()).sum(),
        predicted_on_path: steps.iter().filter(|s| s.predicted_critical).count(),
        predicted_total: timing.values().filter(|t| t.predicted).count(),
        estimator_overlap: steps
            .iter()
            .filter(|s| on_static.contains(&s.task.0))
            .count(),
        estimator_path: est_path,
        wall_ns: wall_end.saturating_sub(wall_start),
        steps,
    })
}

/// One histogram as JSON: exact count/sum/mean, bucketed quantiles, and
/// the sparse bucket list as `[lo, hi, n]` triples (empty buckets are
/// omitted — at 64 log2 buckets the dense form would be mostly zeros).
fn hist_json(h: &HistSnapshot) -> String {
    let mut buckets = String::new();
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            if !buckets.is_empty() {
                buckets.push(',');
            }
            let (lo, hi) = bucket_bounds(i);
            buckets.push_str(&format!("[{lo},{hi},{n}]"));
        }
    }
    format!(
        "{{\"count\":{},\"sum\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{},\"buckets\":[{buckets}]}}",
        h.count(),
        h.sum,
        h.mean(),
        h.p50(),
        h.p99(),
    )
}

/// Render a [`TelemetrySnapshot`] as a self-contained JSON object:
/// runtime counters, the shed controller and slab state, the three
/// global histograms, and one entry per tenant. Hand-written like every
/// exporter here — the workspace has no serde.
pub fn telemetry_json(snap: &TelemetrySnapshot) -> String {
    let s = &snap.stats;
    let mut clusters = String::new();
    for (i, c) in snap.per_cluster.iter().enumerate() {
        if !clusters.is_empty() {
            clusters.push(',');
        }
        clusters.push_str(&format!(
            "{{\"cluster\":{},\"intra_ok\":{},\"intra_empty\":{},\
             \"inter_ok\":{},\"inter_empty\":{},\"migrated\":{},\
             \"injector_pushes\":{},\
             \"intra_hit_rate\":{:.4},\"inter_hit_rate\":{:.4}}}",
            i,
            c.intra_ok,
            c.intra_empty,
            c.inter_ok,
            c.inter_empty,
            c.migrated,
            c.injector_pushes,
            c.intra_hit_rate(),
            c.inter_hit_rate(),
        ));
    }
    let mut tenants = String::new();
    for t in &snap.tenants {
        if !tenants.is_empty() {
            tenants.push(',');
        }
        let m = &t.metrics;
        tenants.push_str(&format!(
            "{{\"id\":\"{:?}\",\"label\":\"{}\",\"qos\":\"{:?}\",\
             \"spawned\":{},\"completed\":{},\"failed\":{},\"shed\":{},\
             \"queued\":{},\"running\":{},\"deadline_missed\":{},\
             \"queue_delay_p50_ns\":{},\"queue_delay_p99_ns\":{},\
             \"body_p50_ns\":{},\"body_p99_ns\":{},\
             \"queue_delay\":{},\"body\":{}}}",
            t.id,
            esc(&t.label),
            t.qos,
            m.spawned,
            m.completed,
            m.failed,
            m.shed,
            m.queued,
            m.running,
            t.deadline_missed,
            m.queue_delay_p50.as_nanos(),
            m.queue_delay_p99.as_nanos(),
            m.body_p50.as_nanos(),
            m.body_p99.as_nanos(),
            hist_json(&t.queue_delay),
            hist_json(&t.body),
        ));
    }
    format!(
        "{{\"at_ns\":{},\"workers\":{},\"alive_workers\":{},\
         \"counters\":{{\"spawned\":{},\"completed\":{},\"edges\":{},\
         \"failed\":{},\"panicked\":{},\"retried\":{},\"poisoned\":{},\
         \"shed\":{},\"cancelled\":{},\"discarded\":{},\"hedged\":{},\
         \"jobs_submitted\":{},\"jobs_cancelled\":{},\"jobs_deadline_missed\":{},\
         \"worker_deaths\":{},\"worker_respawns\":{},\"worker_stalls\":{},\
         \"steals_ok\":{},\"steals_empty\":{},\"injector_overflow\":{},\
         \"parks\":{},\"wakes\":{}}},\
         \"wakes_per_task\":{:.4},\
         \"slab\":{{\"local_frees\":{},\"remote_frees\":{},\"remote_free_ratio\":{:.4}}},\
         \"shed\":{{\"engaged\":{},\"smoothed_delay_ns\":{},\"engage_transitions\":{},\
         \"recover_transitions\":{},\"rate\":{:.4}}},\
         \"flight_dumps\":{},\
         \"queue_delay\":{},\"body\":{},\"job_e2e\":{},\
         \"clusters\":[{clusters}],\
         \"tenants\":[{tenants}]}}",
        snap.at_ns,
        snap.workers,
        snap.alive_workers,
        s.spawned,
        s.completed,
        s.edges,
        s.failed_tasks,
        s.panicked,
        s.retried,
        s.poisoned_tasks,
        s.tasks_shed,
        s.tasks_cancelled,
        s.tasks_discarded,
        s.tasks_hedged,
        s.jobs_submitted,
        s.jobs_cancelled,
        s.jobs_deadline_missed,
        s.worker_deaths,
        s.worker_respawns,
        s.worker_stalls,
        s.steals_ok,
        s.steals_empty,
        s.injector_overflow,
        s.parks,
        s.wakes,
        s.wakes_per_task(),
        snap.slab_local_frees,
        snap.slab_remote_frees,
        snap.slab_remote_free_ratio(),
        snap.shed_engaged,
        snap.shed_delay.as_nanos(),
        snap.shed_transitions.0,
        snap.shed_transitions.1,
        snap.shed_rate(),
        snap.flight_dumps,
        hist_json(&snap.queue_delay),
        hist_json(&snap.body),
        hist_json(&snap.job_e2e),
    )
}

/// Escape a Prometheus label value (`\`, `"` and newline).
fn prom_esc(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Append one histogram in Prometheus exposition format: cumulative
/// `_bucket{le=...}` series over the non-empty log2 buckets, then
/// `_sum` and `_count`.
fn prom_hist(out: &mut String, name: &str, h: &HistSnapshot) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    let mut cum = 0u64;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            cum += n;
            let (_, hi) = bucket_bounds(i);
            out.push_str(&format!("{name}_bucket{{le=\"{hi}\"}} {cum}\n"));
        }
    }
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cum}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum));
    out.push_str(&format!("{name}_count {}\n", h.count()));
}

/// Render a [`TelemetrySnapshot`] in the Prometheus text exposition
/// format (version 0.0.4). This doubles as the runtime's file
/// interchange format: `serving_load --serve` writes it periodically
/// and `raa_top` / `trace_report --from-telemetry` read it back with a
/// two-token line parser.
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let s = &snap.stats;
    let mut out = String::with_capacity(4096);
    let counter = |out: &mut String, name: &str, v: u64| {
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    };
    let gauge = |out: &mut String, name: &str, v: u64| {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    };
    gauge(&mut out, "raa_up", 1);
    gauge(&mut out, "raa_snapshot_at_ns", snap.at_ns);
    gauge(&mut out, "raa_workers", snap.workers as u64);
    gauge(&mut out, "raa_alive_workers", snap.alive_workers as u64);
    counter(&mut out, "raa_tasks_spawned_total", s.spawned);
    counter(&mut out, "raa_tasks_completed_total", s.completed);
    counter(&mut out, "raa_tasks_failed_total", s.failed_tasks);
    counter(&mut out, "raa_tasks_shed_total", s.tasks_shed);
    counter(&mut out, "raa_tasks_cancelled_total", s.tasks_cancelled);
    counter(&mut out, "raa_tasks_hedged_total", s.tasks_hedged);
    counter(&mut out, "raa_tasks_retried_total", s.retried);
    counter(&mut out, "raa_jobs_submitted_total", s.jobs_submitted);
    counter(&mut out, "raa_jobs_cancelled_total", s.jobs_cancelled);
    counter(
        &mut out,
        "raa_jobs_deadline_missed_total",
        s.jobs_deadline_missed,
    );
    counter(&mut out, "raa_worker_deaths_total", s.worker_deaths);
    counter(&mut out, "raa_worker_respawns_total", s.worker_respawns);
    counter(&mut out, "raa_worker_stalls_total", s.worker_stalls);
    counter(&mut out, "raa_steals_ok_total", s.steals_ok);
    counter(&mut out, "raa_steals_empty_total", s.steals_empty);
    counter(&mut out, "raa_injector_overflow_total", s.injector_overflow);
    counter(&mut out, "raa_parks_total", s.parks);
    counter(&mut out, "raa_wakes_total", s.wakes);
    out.push_str("# TYPE raa_slab_frees_total counter\n");
    out.push_str(&format!(
        "raa_slab_frees_total{{kind=\"local\"}} {}\n",
        snap.slab_local_frees
    ));
    out.push_str(&format!(
        "raa_slab_frees_total{{kind=\"remote\"}} {}\n",
        snap.slab_remote_frees
    ));
    gauge(&mut out, "raa_shed_engaged", snap.shed_engaged as u64);
    gauge(
        &mut out,
        "raa_shed_delay_ns",
        snap.shed_delay.as_nanos() as u64,
    );
    out.push_str("# TYPE raa_shed_transitions_total counter\n");
    out.push_str(&format!(
        "raa_shed_transitions_total{{dir=\"engage\"}} {}\n",
        snap.shed_transitions.0
    ));
    out.push_str(&format!(
        "raa_shed_transitions_total{{dir=\"recover\"}} {}\n",
        snap.shed_transitions.1
    ));
    counter(&mut out, "raa_flight_dumps_total", snap.flight_dumps);
    if !snap.per_cluster.is_empty() {
        out.push_str("# TYPE raa_cluster_steals_total counter\n");
        for (i, c) in snap.per_cluster.iter().enumerate() {
            for (kind, v) in [
                ("intra_ok", c.intra_ok),
                ("intra_empty", c.intra_empty),
                ("inter_ok", c.inter_ok),
                ("inter_empty", c.inter_empty),
            ] {
                out.push_str(&format!(
                    "raa_cluster_steals_total{{cluster=\"{i}\",kind=\"{kind}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# TYPE raa_cluster_migrations_total counter\n");
        out.push_str("# TYPE raa_cluster_injector_pushes_total counter\n");
        for (i, c) in snap.per_cluster.iter().enumerate() {
            out.push_str(&format!(
                "raa_cluster_migrations_total{{cluster=\"{i}\"}} {}\n",
                c.migrated
            ));
            out.push_str(&format!(
                "raa_cluster_injector_pushes_total{{cluster=\"{i}\"}} {}\n",
                c.injector_pushes
            ));
        }
    }
    prom_hist(&mut out, "raa_queue_delay_ns", &snap.queue_delay);
    prom_hist(&mut out, "raa_body_ns", &snap.body);
    prom_hist(&mut out, "raa_job_e2e_ns", &snap.job_e2e);
    if !snap.tenants.is_empty() {
        for ty in [
            "spawned_total",
            "completed_total",
            "failed_total",
            "shed_total",
        ] {
            out.push_str(&format!("# TYPE raa_tenant_{ty} counter\n"));
        }
        for g in [
            "queued",
            "running",
            "deadline_missed",
            "queue_delay_p50_ns",
            "queue_delay_p99_ns",
            "body_p50_ns",
            "body_p99_ns",
        ] {
            out.push_str(&format!("# TYPE raa_tenant_{g} gauge\n"));
        }
        for t in &snap.tenants {
            let m = &t.metrics;
            let lab = format!(
                "{{job=\"{}\",id=\"{:?}\",qos=\"{:?}\"}}",
                prom_esc(&t.label),
                t.id,
                t.qos
            );
            out.push_str(&format!("raa_tenant_spawned_total{lab} {}\n", m.spawned));
            out.push_str(&format!(
                "raa_tenant_completed_total{lab} {}\n",
                m.completed
            ));
            out.push_str(&format!("raa_tenant_failed_total{lab} {}\n", m.failed));
            out.push_str(&format!("raa_tenant_shed_total{lab} {}\n", m.shed));
            out.push_str(&format!("raa_tenant_queued{lab} {}\n", m.queued));
            out.push_str(&format!("raa_tenant_running{lab} {}\n", m.running));
            out.push_str(&format!(
                "raa_tenant_deadline_missed{lab} {}\n",
                t.deadline_missed as u64
            ));
            out.push_str(&format!(
                "raa_tenant_queue_delay_p50_ns{lab} {}\n",
                m.queue_delay_p50.as_nanos()
            ));
            out.push_str(&format!(
                "raa_tenant_queue_delay_p99_ns{lab} {}\n",
                m.queue_delay_p99.as_nanos()
            ));
            out.push_str(&format!(
                "raa_tenant_body_p50_ns{lab} {}\n",
                m.body_p50.as_nanos()
            ));
            out.push_str(&format!(
                "raa_tenant_body_p99_ns{lab} {}\n",
                m.body_p99.as_nanos()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, RuntimeConfig};
    use crate::trace::TraceConfig;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Minimal recursive-descent JSON syntax checker — enough to assert
    /// the exporter emits well-formed JSON without a serde dependency.
    fn json_ok(s: &str) -> bool {
        fn skip_ws(b: &[u8], mut i: usize) -> usize {
            while i < b.len() && (b[i] as char).is_whitespace() {
                i += 1;
            }
            i
        }
        fn value(b: &[u8], i: usize) -> Option<usize> {
            let i = skip_ws(b, i);
            match *b.get(i)? {
                b'{' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b'}') {
                        return Some(i + 1);
                    }
                    loop {
                        i = string(b, skip_ws(b, i))?;
                        i = skip_ws(b, i);
                        if b.get(i) != Some(&b':') {
                            return None;
                        }
                        i = value(b, i + 1)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b'}' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'[' => {
                    let mut i = skip_ws(b, i + 1);
                    if b.get(i) == Some(&b']') {
                        return Some(i + 1);
                    }
                    loop {
                        i = value(b, i)?;
                        i = skip_ws(b, i);
                        match b.get(i)? {
                            b',' => i += 1,
                            b']' => return Some(i + 1),
                            _ => return None,
                        }
                    }
                }
                b'"' => string(b, i),
                b't' => b[i..].starts_with(b"true").then_some(i + 4),
                b'f' => b[i..].starts_with(b"false").then_some(i + 5),
                b'n' => b[i..].starts_with(b"null").then_some(i + 4),
                _ => number(b, i),
            }
        }
        fn string(b: &[u8], i: usize) -> Option<usize> {
            if b.get(i) != Some(&b'"') {
                return None;
            }
            let mut i = i + 1;
            while i < b.len() {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => return Some(i + 1),
                    _ => i += 1,
                }
            }
            None
        }
        fn number(b: &[u8], mut i: usize) -> Option<usize> {
            let start = i;
            if b.get(i) == Some(&b'-') {
                i += 1;
            }
            while i < b.len() && (b[i].is_ascii_digit() || b"+-.eE".contains(&b[i])) {
                i += 1;
            }
            (i > start).then_some(i)
        }
        let b = s.as_bytes();
        match value(b, 0) {
            Some(end) => skip_ws(b, end) == b.len(),
            None => false,
        }
    }

    fn traced_chain(n: usize) -> (Trace, TaskGraph, StatsSnapshot) {
        let rt = Runtime::new(
            RuntimeConfig::with_workers(2)
                .record_graph(true)
                .tracing(TraceConfig::default()),
        );
        let x = rt.register("x", 0u64);
        let hits = Arc::new(AtomicU64::new(0));
        for i in 0..n {
            let (x, h) = (x.clone(), hits.clone());
            rt.task(format!("link{i}"))
                .updates(&x)
                .body(move || {
                    *x.write() += 1;
                    h.fetch_add(1, Ordering::SeqCst);
                })
                .spawn();
        }
        rt.taskwait();
        assert_eq!(hits.load(Ordering::SeqCst), n as u64);
        let trace = rt.drain_trace().expect("tracing is on");
        let graph = rt.graph().expect("recording is on");
        (trace, graph, rt.stats())
    }

    #[test]
    fn chrome_trace_is_well_formed_json_with_slices_and_flows() {
        let (trace, graph, _) = traced_chain(8);
        let json = chrome_trace_json(&trace, Some(&graph));
        assert!(json_ok(&json), "exporter emitted malformed JSON:\n{json}");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"thread_name\""));
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            8,
            "one slice per task"
        );
        assert_eq!(
            json.matches("\"ph\":\"s\"").count(),
            7,
            "one flow arrow per chain edge"
        );
        assert_eq!(
            json.matches("\"ph\":\"s\"").count(),
            json.matches("\"ph\":\"f\"").count()
        );
        assert!(json.contains("link3"), "slices carry graph labels");
    }

    #[test]
    fn labels_are_escaped() {
        let rt = Runtime::new(
            RuntimeConfig::with_workers(1)
                .record_graph(true)
                .tracing(TraceConfig::default()),
        );
        rt.task("evil \"quote\"\\backslash").body(|| {}).spawn();
        rt.taskwait();
        let json = chrome_trace_json(&rt.drain_trace().unwrap(), rt.graph().as_ref());
        assert!(json_ok(&json), "escaping failed:\n{json}");
        assert!(json.contains("evil \\\"quote\\\"\\\\backslash"));
    }

    #[test]
    fn metrics_report_matches_stats() {
        let (trace, _, stats) = traced_chain(16);
        let m = MetricsReport::build(&trace, &stats);
        assert_eq!(m.spawns, 16);
        assert_eq!(m.starts, 16);
        assert_eq!(m.completes, 16);
        assert_eq!(m.faults, 0);
        assert_eq!(m.completed_tasks, stats.completed);
        assert_eq!(m.dropped, 0);
        let residency_total: u64 = m.residency.iter().map(|r| r.count).sum();
        assert_eq!(residency_total, 16, "every start had a prior enqueue");
        // Display renders without panicking and mentions the key counters.
        let text = m.to_string();
        assert!(text.contains("16 started"));
        assert!(text.contains("retry histogram"));
    }

    /// A task whose live predecessor settles between the edge push and
    /// the guard drop is released by its (external) spawner: Spawn
    /// without the ready bit, Ready, no enqueue event, Start.
    #[test]
    fn residency_counts_a_task_released_by_its_external_spawner() {
        let ev = |kind, ts_ns, arg, worker| TraceEvent {
            ts_ns,
            task: TaskId(7),
            slot: 3,
            gen: 1,
            arg,
            worker,
            kind,
        };
        let trace = Trace {
            workers: 1,
            tracks: vec![
                vec![ev(TraceEventKind::Start, 30, 0, 0)],
                vec![
                    ev(TraceEventKind::Spawn, 10, 1 << 1, EXTERNAL_WORKER),
                    ev(TraceEventKind::Ready, 20, 0, EXTERNAL_WORKER),
                ],
            ],
            dropped: vec![0, 0],
        };
        let m = MetricsReport::build(&trace, &StatsSnapshot::default());
        assert_eq!(m.residency.len(), 1);
        let r = &m.residency[0];
        assert_eq!((r.target, r.count, r.total_ns), ("at-spawn", 1, 10));
    }

    #[test]
    fn critical_path_of_a_chain_is_the_whole_chain() {
        let (trace, graph, _) = traced_chain(12);
        let report = critical_path_attribution(&trace, &graph).expect("timed tasks exist");
        assert_eq!(report.steps.len(), 12, "a chain gates on every link");
        for (i, s) in report.steps.iter().enumerate() {
            assert_eq!(s.label, format!("link{i}"), "path follows spawn order");
        }
        for pair in report.steps.windows(2) {
            assert!(pair[0].end_ns <= pair[1].end_ns, "chain ends are ordered");
        }
        assert_eq!(
            report.estimator_overlap, 12,
            "the static path of a chain is the chain"
        );
        assert!(report.path_busy_ns <= report.wall_ns.max(1) * 2);
        let text = report.to_string();
        assert!(text.contains("measured critical path: 12 tasks"));
    }

    #[test]
    fn program_json_is_well_formed_and_complete() {
        use crate::TaskProgram;
        use raa_workloads::{MemRef, RefClass, TraceEvent as WlEvent};

        let g = crate::graph::generators::chain_with_fans(3, 2, 50, 5);
        let mut p = TaskProgram::from_graph(g);
        p.set_measured(TaskId(0), 1234);
        p.set_stream(
            TaskId(0),
            vec![
                WlEvent::Mem(MemRef::load(4096, 8, RefClass::Strided)),
                WlEvent::Compute(7),
            ],
        );
        p.set_spm_ranges(vec![(4096, 8192)]);
        let json = program_json(&p);
        assert!(json_ok(&json), "malformed program JSON:\n{json}");
        assert!(json.contains("\"measured_ns\":1234"));
        assert!(json.contains("\"compute_cycles\":7"));
        assert!(json.contains("\"spm_ranges\":[[4096,8192]]"));
        assert!(json.contains("link[1]"), "labels survive export");
        assert_eq!(json.matches("\"id\":").count(), p.len());
    }

    #[test]
    fn attribution_without_timed_tasks_is_none() {
        let trace = Trace::default();
        let graph = TaskGraph::new();
        assert!(critical_path_attribution(&trace, &graph).is_none());
    }
}
