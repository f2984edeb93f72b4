//! The harness's own spans: one per call into a layer, kept in memory
//! and written as Chrome-trace JSON when the run ends.
//!
//! Spans are recorded from the benchmark's side of the public API only
//! (`rep` → `spawn_many`/`taskwait`; `request` → `late`, `submit`,
//! `try_spawn`, `queue`, `body`; `pass` → `sim`, `simsched`, `vector`).
//! Spans inside the program are a later issue; these fix the names they
//! will be compared against.

use std::fmt::Write as _;
use std::time::Instant;

/// Id of "no span": the parent of a root, and what a disabled recorder
/// hands out.
pub const NONE: u32 = 0;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    /// Request the span belongs to (`0` = none); spans of one request
    /// share it.
    pub request: u64,
}

/// Single-threaded span recorder. Disabled (the untraced run) it takes
/// no timestamps and stores nothing, so end-to-end metrics never pay for
/// it.
pub struct Spans {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn off() -> Self {
        Spans {
            origin: None,
            spans: Vec::new(),
        }
    }

    /// A live recorder whose timestamps count from `origin`.
    pub fn on(origin: Instant) -> Self {
        Spans {
            origin: Some(origin),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.origin.is_some()
    }

    /// Nanoseconds since the origin, or 0 when disabled.
    pub fn stamp(&self) -> u64 {
        self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
    }

    /// Record a finished span; returns its id ([`NONE`] when disabled).
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        if self.origin.is_none() {
            return NONE;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            id,
            parent,
            request,
        });
        id
    }

    /// Open a span now; [`Spans::close`] stamps its end. Lets children
    /// name their parent before the parent has finished.
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = self.stamp();
        self.add(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: u32) {
        if id != NONE {
            let now = self.stamp();
            self.spans[id as usize - 1].end_ns = now;
        }
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Self time per span (indexed like [`Spans::all`]): its duration
    /// minus the part of its interval that its children cover. Children
    /// are clipped to the parent and their overlaps counted once.
    pub fn self_times(&self) -> Vec<u64> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                let p = &self.spans[s.parent as usize - 1];
                let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
                if a < b {
                    kids[s.parent as usize - 1].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(kids)
            .map(|(s, mut iv)| {
                iv.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in iv {
                    if b > reach {
                        covered += b - a.max(reach);
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
    /// complete events in microseconds with id, parent, request and self
    /// time as arguments. Rows (`tid`) are assigned so that spans on one
    /// row nest and never partially overlap: a span sits on its
    /// parent's row when it fits inside what that row already shows,
    /// else on the first row free at its start.
    pub fn chrome_json(&self) -> String {
        let selfs = self.self_times();
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| {
            (
                self.spans[i].start_ns,
                std::cmp::Reverse(self.spans[i].end_ns),
            )
        });
        // Per row: stack of the end times of the spans open on it.
        let mut rows: Vec<Vec<u64>> = Vec::new();
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (k, &i) in order.iter().enumerate() {
            let s = &self.spans[i];
            let row = rows
                .iter_mut()
                .position(|open| {
                    while open.last().is_some_and(|&e| e <= s.start_ns) {
                        open.pop();
                    }
                    open.last().is_none_or(|&e| s.end_ns <= e)
                })
                .unwrap_or_else(|| {
                    rows.push(Vec::new());
                    rows.len() - 1
                });
            rows[row].push(s.end_ns);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"self_us\":{:.3}}}}}",
                if k == 0 { "" } else { ",\n" },
                s.name,
                row,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
                s.request,
                selfs[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder() -> Spans {
        Spans::on(Instant::now())
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.stamp(), 0);
        assert_eq!(s.add("rep", 0, 10, NONE, 0), NONE);
        let id = s.open("rep", NONE, 0);
        s.close(id);
        assert!(s.all().is_empty());
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut s = recorder();
        let rep = s.add("rep", 0, 100, NONE, 0);
        let spawn = s.add("spawn_many", 10, 40, rep, 0);
        s.add("inner", 20, 30, spawn, 0); // grandchild: not rep's child
        s.add("taskwait", 60, 90, rep, 0);
        assert_eq!(s.self_times(), vec![100 - 30 - 30, 30 - 10, 10, 30]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once_and_clips() {
        let mut s = recorder();
        let req = s.add("request", 100, 200, NONE, 7);
        s.add("try_spawn", 110, 150, req, 7);
        s.add("body", 140, 180, req, 7); // overlaps try_spawn by 10
        s.add("queue", 190, 260, req, 7); // sticks out: clipped to 190..200
        s.add("late", 50, 90, req, 7); // entirely outside: ignored
                                       // covered = [110,180) + [190,200) = 80
        assert_eq!(s.self_times()[0], 20);
        // A child identical to its parent leaves no self time.
        let mut s = recorder();
        let p = s.add("pass", 0, 50, NONE, 0);
        s.add("sim", 0, 50, p, 0);
        assert_eq!(s.self_times(), vec![0, 50]);
    }

    #[test]
    fn totals_group_by_name() {
        let mut s = recorder();
        s.add("spawn_many", 0, 10, NONE, 0);
        s.add("spawn_many", 20, 25, NONE, 0);
        s.add("taskwait", 25, 100, NONE, 0);
        assert_eq!(s.total("spawn_many"), (15, 2));
        assert_eq!(s.total("absent"), (0, 0));
    }

    #[test]
    fn chrome_rows_never_partially_overlap() {
        let mut s = recorder();
        let a = s.add("request", 0, 100, NONE, 1);
        s.add("body", 10, 90, a, 1);
        let b = s.add("request", 50, 150, NONE, 2); // overlaps request 1
        s.add("body", 60, 140, b, 2);
        let json = s.chrome_json();
        assert!(json.starts_with('{') && json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        // Request 1 and its body share row 0; request 2 and its body row 1.
        assert_eq!(json.matches("\"tid\":0").count(), 2);
        assert_eq!(json.matches("\"tid\":1").count(), 2);
        assert!(json.contains("\"args\":{\"id\":1,\"parent\":0,\"request\":1,\"self_us\":0.020}"));
    }
}
