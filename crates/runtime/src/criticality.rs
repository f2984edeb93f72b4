//! Task criticality analysis (offline and online).
//!
//! §3.1 of the paper exploits *task criticality*: tasks on the critical
//! path of the TDG run on fast cores / high frequency while the rest run
//! slow, trading no performance for substantial energy savings.  Two
//! analyses are provided:
//!
//! * [`analyze`] — exact offline analysis of a complete [`TaskGraph`]
//!   (bottom/top levels, critical set).
//! * [`OnlineCriticality`] — a CATS-style incremental estimator that keeps
//!   bottom levels for the partially known TDG the runtime builds online.

use crate::graph::TaskGraph;
use crate::task::TaskId;

/// The result of an offline criticality analysis.
#[derive(Clone, Debug)]
pub struct Analysis {
    /// Bottom level (inclusive longest path to a sink) per task.
    pub bottom_levels: Vec<u64>,
    /// Top level (earliest start on infinite cores) per task.
    pub top_levels: Vec<u64>,
    /// Critical-path length.
    pub critical_path: u64,
    /// Tasks flagged critical under the given slack.
    pub critical: Vec<bool>,
}

impl Analysis {
    /// Fraction of tasks flagged critical.
    pub fn critical_fraction(&self) -> f64 {
        if self.critical.is_empty() {
            return 0.0;
        }
        self.critical.iter().filter(|&&c| c).count() as f64 / self.critical.len() as f64
    }
}

/// Exact criticality analysis of a complete TDG. A task is critical when
/// the longest source→sink chain passing through it is within `slack` of
/// the critical path length.
pub fn analyze(graph: &TaskGraph, slack: u64) -> Analysis {
    let bottom_levels = graph.bottom_levels();
    let top_levels = graph.top_levels();
    let (critical_path, _) = graph.critical_path();
    let critical = graph
        .nodes()
        .map(|n| {
            let through = top_levels[n.id.index()] + bottom_levels[n.id.index()];
            critical_path.saturating_sub(through) <= slack
        })
        .collect();
    Analysis {
        bottom_levels,
        top_levels,
        critical_path,
        critical,
    }
}

/// The threshold the live runtime classifies with: an `Auto` task is
/// critical when its bottom level reaches this fraction of the longest
/// one seen in its job ([`OnlineCriticality::is_critical`]'s rule),
/// decided once, when the task becomes ready. Levels are exact within a
/// `spawn_many` batch, one hop deep across batches and for single spawns.
pub const CRITICALITY_THRESHOLD: f64 = 0.9;

/// Incremental bottom-level estimation over a TDG under construction,
/// in the spirit of Criticality-Aware Task Scheduling (CATS): when a new
/// task arrives, the bottom levels of its (transitive) predecessors grow,
/// and the tasks whose estimate is within a relative threshold of the
/// current maximum are deemed critical.
pub struct OnlineCriticality {
    /// Estimated bottom level per task (grows monotonically).
    bl: Vec<u64>,
    cost: Vec<u64>,
    preds: Vec<Vec<TaskId>>,
    max_bl: u64,
    /// A task is critical when `bl >= threshold_num/threshold_den * max_bl`.
    threshold_num: u64,
    threshold_den: u64,
}

impl OnlineCriticality {
    /// `threshold` in [0,1]: fraction of the current longest path a task's
    /// bottom level must reach to be called critical. CATS uses the
    /// last-level heuristic; 0.9 is a good default.
    pub fn new(threshold: f64) -> Self {
        assert!((0.0..=1.0).contains(&threshold));
        OnlineCriticality {
            bl: Vec::new(),
            cost: Vec::new(),
            preds: Vec::new(),
            max_bl: 0,
            threshold_num: (threshold * 1000.0).round() as u64,
            threshold_den: 1000,
        }
    }

    /// Register a submitted task; `id` must be dense (next index).
    /// Updates ancestor bottom levels.
    pub fn submit(&mut self, id: TaskId, cost: u64, preds: &[TaskId]) {
        assert_eq!(id.index(), self.bl.len(), "task ids must be dense");
        self.bl.push(cost);
        self.cost.push(cost);
        self.preds.push(preds.to_vec());
        self.max_bl = self.max_bl.max(cost);
        // Relax ancestors: bl[p] >= cost[p] + bl[child].
        let mut stack: Vec<(TaskId, u64)> = preds.iter().map(|&p| (p, cost)).collect();
        while let Some((p, child_bl)) = stack.pop() {
            let cand = self.cost[p.index()] + child_bl;
            if cand > self.bl[p.index()] {
                self.bl[p.index()] = cand;
                self.max_bl = self.max_bl.max(cand);
                for &pp in &self.preds[p.index()] {
                    stack.push((pp, cand));
                }
            }
        }
    }

    /// Current bottom-level estimate of a task.
    pub fn bottom_level(&self, id: TaskId) -> u64 {
        self.bl[id.index()]
    }

    /// Current longest-path estimate over the known TDG.
    pub fn max_bottom_level(&self) -> u64 {
        self.max_bl
    }

    /// Is the task currently considered critical?
    pub fn is_critical(&self, id: TaskId) -> bool {
        self.bl[id.index()] * self.threshold_den >= self.threshold_num * self.max_bl
    }

    /// Number of tasks registered.
    pub fn len(&self) -> usize {
        self.bl.len()
    }

    /// True when no tasks have been registered.
    pub fn is_empty(&self) -> bool {
        self.bl.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators;
    use crate::task::TaskMeta;

    #[test]
    fn offline_matches_graph_methods() {
        let g = generators::chain_with_fans(4, 2, 50, 5);
        let a = analyze(&g, 0);
        let (cp, _) = g.critical_path();
        assert_eq!(a.critical_path, cp);
        assert_eq!(a.bottom_levels, g.bottom_levels());
        assert!(a.critical_fraction() > 0.0 && a.critical_fraction() < 1.0);
    }

    #[test]
    fn offline_chain_is_fully_critical() {
        let g = generators::chain(6, 10);
        let a = analyze(&g, 0);
        assert!(a.critical.iter().all(|&c| c));
        assert!((a.critical_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn online_estimates_grow_toward_exact() {
        // Build a chain online; after each submit the head's bottom level
        // must equal the chain length so far.
        let mut oc = OnlineCriticality::new(0.9);
        oc.submit(TaskId(0), 10, &[]);
        assert_eq!(oc.bottom_level(TaskId(0)), 10);
        oc.submit(TaskId(1), 10, &[TaskId(0)]);
        assert_eq!(oc.bottom_level(TaskId(0)), 20);
        oc.submit(TaskId(2), 10, &[TaskId(1)]);
        assert_eq!(oc.bottom_level(TaskId(0)), 30);
        assert_eq!(oc.max_bottom_level(), 30);
        assert!(oc.is_critical(TaskId(0)));
        assert!(!oc.is_critical(TaskId(2)));
    }

    #[test]
    fn online_agrees_with_offline_on_complete_graph() {
        let g = generators::random_layered(5, 6, 1..40, 99);
        let mut oc = OnlineCriticality::new(1.0);
        for n in g.nodes() {
            oc.submit(n.id, n.meta.cost, &n.preds);
        }
        let exact = g.bottom_levels();
        for n in g.nodes() {
            assert_eq!(
                oc.bottom_level(n.id),
                exact[n.id.index()],
                "online bottom level must converge to exact once the whole \
                 graph is known (task {:?})",
                n.id
            );
        }
    }

    #[test]
    fn online_fan_tasks_not_critical() {
        let mut oc = OnlineCriticality::new(0.5);
        // link0 -> {fan x3, link1 -> ...}
        oc.submit(TaskId(0), 100, &[]);
        oc.submit(TaskId(1), 1, &[TaskId(0)]); // fan
        oc.submit(TaskId(2), 100, &[TaskId(0)]); // link
        oc.submit(TaskId(3), 100, &[TaskId(2)]); // link
        assert!(oc.is_critical(TaskId(0)));
        assert!(!oc.is_critical(TaskId(1)));
        assert!(oc.is_critical(TaskId(2)));
    }

    #[test]
    fn analysis_on_from_accesses_graph() {
        let g = TaskGraph::from_accesses(vec![TaskMeta::new("a"), TaskMeta::new("b")]);
        let a = analyze(&g, 0);
        // Two independent unit tasks: both critical (both chains == cp).
        assert_eq!(a.critical_path, 1);
        assert!(a.critical.iter().all(|&c| c));
    }
}
