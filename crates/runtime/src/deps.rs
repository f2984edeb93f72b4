//! Online dependency tracking.
//!
//! For every registered datum the tracker maintains a sorted list of
//! disjoint segments, each carrying the id of its *last writer* and the
//! *readers since that write*.  A new access splits segments at its range
//! boundaries and collects edges exactly as a register scoreboard would:
//!
//! * a **read** depends on the last writer of every overlapped segment
//!   (RAW);
//! * a **write** depends on the last writer (WAW) *and* on every reader
//!   since that write (WAR), then becomes the segment's last writer.
//!
//! This mirrors how OmpSs/Nanos builds the Task Dependency Graph from
//! `in`/`out`/`inout` clauses at submission time.
//!
//! Two trackers share the segment machinery:
//!
//! * [`DepTracker`] — the original single-threaded tracker, keyed by
//!   [`TaskId`] (used by analysis tools, benches and property tests);
//! * [`ShardedDepTracker`] — the runtime's concurrent tracker: the
//!   datum map is sharded by region-id hash, so spawns and completions
//!   touching disjoint data never contend on a lock, and a sweep costs
//!   its accesses: no allocation, no SipHash. Owners are
//!   [`TaskRef`]s (slot + generation), letting the runtime detect stale
//!   entries for already-completed predecessors without ever cleaning
//!   the tracker from the completion path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::region::{Access, RegionId, RegionRange};
use crate::task::{TaskId, TaskRef};

/// One dependency-tracking segment: a half-open range plus its access
/// history summary. `O` identifies the owning task (`TaskId` or
/// `TaskRef`).
#[derive(Clone, Debug)]
struct Segment<O> {
    range: RegionRange,
    last_writer: Option<O>,
    readers: Vec<O>,
}

impl<O> Segment<O> {
    fn fresh(range: RegionRange) -> Self {
        Segment {
            range,
            last_writer: None,
            readers: Vec::new(),
        }
    }
}

/// Per-datum segment list. Invariants: segments are sorted by `start`,
/// disjoint, and jointly cover `[0, u64::MAX)`.
#[derive(Clone, Debug)]
struct RegionState<O> {
    segments: Vec<Segment<O>>,
}

impl<O: Copy + PartialEq> RegionState<O> {
    fn new() -> Self {
        RegionState {
            segments: vec![Segment::fresh(RegionRange::ALL)],
        }
    }

    /// Scoreboard update for one access: collect RAW/WAR/WAW edges into
    /// `preds` and record `owner` as writer or reader.
    fn apply(&mut self, owner: O, access: &Access, preds: &mut Vec<O>) {
        // The overlapped segments are those between the two cuts (the
        // second lands at or after the first, so `lo` stays put).
        let lo = self.split_at(access.region.range.start);
        let hi = self.split_at(access.region.range.end);
        for seg in &mut self.segments[lo..hi] {
            debug_assert!(access.region.range.contains(&seg.range));
            preds.extend(seg.last_writer);
            if access.mode.writes() {
                preds.extend_from_slice(&seg.readers);
                seg.last_writer = Some(owner);
                seg.readers.clear();
            } else if seg.readers.last() != Some(&owner) {
                // The last entry is the only one to check: nobody else
                // touches this list while a task's accesses are applied
                // (the sharded sweep holds its locks throughout), so all
                // of a task's pushes onto it are consecutive. A split
                // clones the list with the tail, so both halves agree.
                seg.readers.push(owner);
            }
        }
        self.coalesce(lo..hi);
    }

    /// Split segments so that `at` is a segment boundary; returns the
    /// index of the segment starting there (the length for `u64::MAX`).
    fn split_at(&mut self, at: u64) -> usize {
        // First segment whose end lies beyond `at`; since the segments
        // jointly cover [0, u64::MAX), it contains `at` unless `at` is
        // already one of its boundaries (or the end of the line).
        let idx = self.segments.partition_point(|s| s.range.end <= at);
        if idx == self.segments.len() || self.segments[idx].range.start >= at {
            return idx;
        }
        let seg = &self.segments[idx];
        let mut right = seg.clone();
        right.range = RegionRange::new(at, seg.range.end);
        self.segments[idx].range = RegionRange::new(seg.range.start, at);
        self.segments.insert(idx + 1, right);
        idx + 1
    }

    /// Merge adjacent segments with identical state to bound growth, in
    /// place. Only the boundaries of the segments an access updated
    /// (`touched`, split ends included) can have become mergeable.
    fn coalesce(&mut self, touched: std::ops::Range<usize>) {
        let start = touched.start.saturating_sub(1);
        let end = (touched.end + 1).min(self.segments.len());
        let mut kept = start;
        for next in start + 1..end {
            let (head, tail) = self.segments.split_at_mut(next);
            let (prev, seg) = (&mut head[kept], &mut tail[0]);
            if prev.last_writer == seg.last_writer && prev.readers == seg.readers {
                prev.range = RegionRange::new(prev.range.start, seg.range.end);
            } else {
                kept += 1;
                self.segments.swap(kept, next);
            }
        }
        self.segments.drain(kept + 1..end);
    }
}

/// The dependency tracker: datum id → segment list.
#[derive(Default)]
pub struct DepTracker {
    regions: HashMap<RegionId, RegionState<TaskId>>,
    /// Total number of edges ever produced (for stats).
    edges_produced: u64,
}

impl DepTracker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the declared accesses of a newly submitted task and return
    /// its predecessor set (deduplicated, self-edges removed).
    pub fn submit(&mut self, task: TaskId, accesses: &[Access]) -> Vec<TaskId> {
        let mut preds: Vec<TaskId> = Vec::new();
        for access in accesses {
            if access.region.range.is_empty() {
                continue;
            }
            self.regions
                .entry(access.region.id)
                .or_insert_with(RegionState::new)
                .apply(task, access, &mut preds);
        }
        preds.sort_unstable();
        preds.dedup();
        preds.retain(|&p| p != task);
        self.edges_produced += preds.len() as u64;
        preds
    }

    /// Number of dependency edges produced so far.
    pub fn edges_produced(&self) -> u64 {
        self.edges_produced
    }

    /// Number of datums ever touched.
    pub fn tracked_regions(&self) -> usize {
        self.regions.len()
    }

    /// Drop all history (e.g. between benchmark repetitions).
    pub fn reset(&mut self) {
        self.regions.clear();
        self.edges_produced = 0;
    }
}

/// Concurrent dependency tracker, sharded by region-id hash. The hot
/// path of [`crate::Runtime`]: a spawn declaring accesses to disjoint
/// data takes only the shard locks its regions hash to, so unrelated
/// spawns proceed in parallel; completions never touch the tracker at
/// all (stale owner entries are detected via [`TaskRef`] generations).
///
/// Region state is keyed by `(namespace, region)`. The job layer passes
/// each job's generation-counted id as the namespace, so two tenants
/// touching the same region neither serialise on dependency edges nor
/// observe each other's access history; single-job callers pass 0.
pub struct ShardedDepTracker {
    shards: Box<[Mutex<Shard>]>,
    mask: u64,
    edges: AtomicU64,
}

/// One shard's slice of the `(namespace, region)` table. Never iterated,
/// so the hasher cannot show in any output.
type Shard = HashMap<Key, RegionState<TaskRef>, BuildHasherDefault<Premixed>>;

/// A region-table key carrying the one multiply-mix of itself that
/// picks both its shard and its place in that shard's map: the keys are
/// this program's own sequential ids, which SipHash protected from
/// nobody.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    mix: u64,
    ns: u64,
    id: RegionId,
}

impl Key {
    fn new(ns: u64, id: RegionId) -> Self {
        // Fibonacci hash: region ids are sequential, a multiply by the
        // golden ratio spreads them over the high bits. The namespace is
        // folded in with a second odd multiplier so one job's regions do
        // not all collide with another job's on the same shard.
        let mixed = id.0 ^ ns.wrapping_mul(0xA24B_AED4_963E_E407);
        Key {
            mix: mixed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ns,
            id,
        }
    }
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.mix);
    }
}

/// Hasher of the shard maps: a [`Key`]'s mix, turned half round.
/// hashbrown buckets by a hash's low bits and tags by its top seven; a
/// multiply mixes upward and the mix's top six bits are the shard index,
/// the same for every key of one map, so buckets come from bits 32 up
/// and tags from bits 25 to 31.
#[derive(Default)]
struct Premixed(u64);

impl Hasher for Premixed {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard key hashes as its mix");
    }

    fn write_u64(&mut self, mix: u64) {
        self.0 = mix.rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ShardedDepTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedDepTracker {
    pub fn new() -> Self {
        Self::with_shards(64)
    }

    pub fn with_shards(n: usize) -> Self {
        // A sweep keeps its involved-shard set in one `u64`.
        assert!(n.is_power_of_two() && n <= 64);
        ShardedDepTracker {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            mask: n as u64 - 1,
            edges: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &Key) -> usize {
        ((key.mix >> 58) & self.mask) as usize
    }

    /// Record the declared accesses of `who` (within dependency
    /// namespace `ns`) and leave its predecessor set (deduplicated by
    /// task id, self-edges removed) in `preds`, whose allocation is
    /// reused: a [`ShardedDepTracker::submit_batch`] of one.
    pub fn submit(&self, ns: u64, who: TaskRef, accesses: &[Access], preds: &mut Vec<TaskRef>) {
        self.sweep(ns, &[(who, accesses)], std::slice::from_mut(preds));
    }

    /// Number of dependency edges produced so far.
    pub fn edges_produced(&self) -> u64 {
        self.edges.load(Ordering::Relaxed)
    }

    /// Record the declared accesses of an ordered *batch* of tasks in one
    /// locked sweep, so intra-batch edges (task *i* depending on an
    /// earlier task *j* of the same batch) fall out of the scoreboard
    /// exactly as if the tasks had been submitted one at a time, at one
    /// lock round-trip per *batch* instead of per task. `preds_out[i]`
    /// receives task *i*'s predecessor set (sorted, deduplicated,
    /// self-edges removed); the inner buffers of a reused `preds_out`
    /// keep their allocations.
    pub fn submit_batch(
        &self,
        ns: u64,
        tasks: &[(TaskRef, &[Access])],
        preds_out: &mut Vec<Vec<TaskRef>>,
    ) {
        preds_out.resize_with(tasks.len(), Vec::new);
        self.sweep(ns, tasks, preds_out);
    }

    /// The one sweep behind both entry points; allocates nothing beyond
    /// what `apply` grows in the region table and in `preds_out`.
    ///
    /// Every shard involved is locked *simultaneously*, in ascending
    /// index order (the set is a bit mask, walked from bit 0). Per-access
    /// locking would let two tasks observe each other in opposite orders
    /// on different regions and deadlock the TDG with an A→B, B→A cycle;
    /// ascending acquisition keeps the simultaneous locking
    /// deadlock-free. The locks must all be held before the first
    /// `apply`, hence two passes; each makes its access's [`Key`] anew
    /// (one multiply) rather than carry it across in a buffer.
    fn sweep(&self, ns: u64, tasks: &[(TaskRef, &[Access])], preds_out: &mut [Vec<TaskRef>]) {
        let live = |a: &&Access| !a.region.range.is_empty();
        let mut involved = 0u64;
        for (_, accesses) in tasks {
            for a in accesses.iter().filter(live) {
                involved |= 1 << self.shard_of(&Key::new(ns, a.region.id));
            }
        }
        let mut guards: [Option<MutexGuard<'_, Shard>>; 64] = [const { None }; 64];
        let mut rest = involved;
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            guards[s] = Some(self.shards[s].lock());
            rest &= rest - 1;
        }
        let mut total_edges = 0u64;
        for (&(who, accesses), preds) in tasks.iter().zip(preds_out) {
            preds.clear();
            for access in accesses.iter().filter(live) {
                let key = Key::new(ns, access.region.id);
                guards[self.shard_of(&key)]
                    .as_mut()
                    .expect("shard was locked above")
                    .entry(key)
                    .or_insert_with(RegionState::new)
                    .apply(who, access, preds);
            }
            preds.sort_unstable_by_key(|r| r.tid);
            preds.dedup_by_key(|r| r.tid);
            preds.retain(|r| r.tid != who.tid);
            total_edges += preds.len() as u64;
        }
        drop(guards);
        self.edges.fetch_add(total_edges, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{Access, AccessMode, Region, RegionId};

    fn acc(id: u64, start: u64, end: u64, mode: AccessMode) -> Access {
        Access {
            region: Region::new(RegionId(id), RegionRange::new(start, end)),
            mode,
        }
    }

    #[test]
    fn raw_dependency() {
        let mut t = DepTracker::new();
        let p = t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        assert!(p.is_empty());
        let p = t.submit(TaskId(1), &[acc(0, 0, 10, AccessMode::Read)]);
        assert_eq!(p, vec![TaskId(0)]);
    }

    #[test]
    fn war_dependency() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Read)]);
        t.submit(TaskId(1), &[acc(0, 0, 10, AccessMode::Read)]);
        let p = t.submit(TaskId(2), &[acc(0, 0, 10, AccessMode::Write)]);
        assert_eq!(p, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn waw_dependency() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        let p = t.submit(TaskId(1), &[acc(0, 0, 10, AccessMode::Write)]);
        assert_eq!(p, vec![TaskId(0)]);
    }

    #[test]
    fn readers_cleared_after_write() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Read)]);
        t.submit(TaskId(1), &[acc(0, 0, 10, AccessMode::Write)]);
        // The next writer must depend only on t1 (WAW), not on the stale
        // reader t0.
        let p = t.submit(TaskId(2), &[acc(0, 0, 10, AccessMode::Write)]);
        assert_eq!(p, vec![TaskId(1)]);
    }

    #[test]
    fn disjoint_ranges_are_independent() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        let p = t.submit(TaskId(1), &[acc(0, 10, 20, AccessMode::Write)]);
        assert!(p.is_empty(), "disjoint blocks must not conflict: {p:?}");
    }

    #[test]
    fn partial_overlap_splits_segments() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        t.submit(TaskId(1), &[acc(0, 10, 20, AccessMode::Write)]);
        // Range straddling both writers depends on both.
        let p = t.submit(TaskId(2), &[acc(0, 5, 15, AccessMode::Read)]);
        assert_eq!(p, vec![TaskId(0), TaskId(1)]);
        // Writing the straddle creates WAR on t2 and WAW on t0/t1 only in
        // the overlapped parts.
        let p = t.submit(TaskId(3), &[acc(0, 5, 15, AccessMode::Write)]);
        assert_eq!(p, vec![TaskId(0), TaskId(1), TaskId(2)]);
        // A reader of [0,5) still depends on t0, not t3.
        let p = t.submit(TaskId(4), &[acc(0, 0, 5, AccessMode::Read)]);
        assert_eq!(p, vec![TaskId(0)]);
        // A reader of [5,8) now depends on t3.
        let p = t.submit(TaskId(5), &[acc(0, 5, 8, AccessMode::Read)]);
        assert_eq!(p, vec![TaskId(3)]);
    }

    #[test]
    fn different_region_ids_never_conflict() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        let p = t.submit(TaskId(1), &[acc(1, 0, 10, AccessMode::ReadWrite)]);
        assert!(p.is_empty());
        assert_eq!(t.tracked_regions(), 2);
    }

    #[test]
    fn inout_behaves_as_read_and_write() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        let p = t.submit(TaskId(1), &[acc(0, 0, 10, AccessMode::ReadWrite)]);
        assert_eq!(p, vec![TaskId(0)]);
        let p = t.submit(TaskId(2), &[acc(0, 0, 10, AccessMode::ReadWrite)]);
        assert_eq!(p, vec![TaskId(1)], "inout chains serialise");
    }

    #[test]
    fn duplicate_predecessors_are_deduped() {
        let mut t = DepTracker::new();
        t.submit(
            TaskId(0),
            &[
                acc(0, 0, 10, AccessMode::Write),
                acc(1, 0, 10, AccessMode::Write),
            ],
        );
        let p = t.submit(
            TaskId(1),
            &[
                acc(0, 0, 10, AccessMode::Read),
                acc(1, 0, 10, AccessMode::Read),
            ],
        );
        assert_eq!(p, vec![TaskId(0)]);
        assert_eq!(t.edges_produced(), 1);
    }

    #[test]
    fn empty_range_is_ignored() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        let p = t.submit(TaskId(1), &[acc(0, 5, 5, AccessMode::Write)]);
        assert!(p.is_empty());
    }

    #[test]
    fn full_range_access_conflicts_with_blocks() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 16, AccessMode::Write)]);
        t.submit(TaskId(1), &[acc(0, 16, 32, AccessMode::Write)]);
        let whole = Access {
            region: Region::new(RegionId(0), RegionRange::ALL),
            mode: AccessMode::Read,
        };
        let p = t.submit(TaskId(2), &[whole]);
        assert_eq!(p, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn reset_clears_history() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Write)]);
        t.reset();
        let p = t.submit(TaskId(1), &[acc(0, 0, 10, AccessMode::Read)]);
        assert!(p.is_empty());
        assert_eq!(t.edges_produced(), 0);
    }

    #[test]
    fn repeated_reader_not_duplicated_in_segment() {
        let mut t = DepTracker::new();
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Read)]);
        t.submit(TaskId(0), &[acc(0, 0, 10, AccessMode::Read)]);
        let p = t.submit(TaskId(1), &[acc(0, 0, 10, AccessMode::Write)]);
        assert_eq!(p, vec![TaskId(0)]);
    }

    fn tref(tid: u32) -> TaskRef {
        TaskRef {
            tid: TaskId(tid),
            slot: tid,
            gen: 1,
        }
    }

    #[test]
    fn sharded_tracker_agrees_with_single_threaded() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        let mut single = DepTracker::new();
        let sharded = ShardedDepTracker::with_shards(8);
        let mut out = Vec::new();
        for tid in 0..200u32 {
            let mut accesses = Vec::new();
            for _ in 0..rng.gen_range(1..=3) {
                let id = rng.gen_range(0..6u64);
                let start = rng.gen_range(0..32u64);
                let end = rng.gen_range(start..=32u64);
                let mode = match rng.gen_range(0..3) {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    _ => AccessMode::ReadWrite,
                };
                accesses.push(acc(id, start, end, mode));
            }
            let want = single.submit(TaskId(tid), &accesses);
            sharded.submit(0, tref(tid), &accesses, &mut out);
            let got: Vec<TaskId> = out.iter().map(|r| r.tid).collect();
            assert_eq!(got, want, "tid={tid}");
        }
        assert_eq!(sharded.edges_produced(), single.edges_produced());
    }

    #[test]
    fn submit_batch_agrees_with_sequential_submits() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xF00D);
        let sequential = ShardedDepTracker::with_shards(8);
        let batched = ShardedDepTracker::with_shards(8);
        let mut tid = 0u32;
        let mut out = Vec::new();
        for _ in 0..20 {
            // Random batch of 1..=12 tasks, each with 0..=3 accesses.
            let batch: Vec<(TaskRef, Vec<Access>)> = (0..rng.gen_range(1..=12))
                .map(|_| {
                    let accesses: Vec<Access> = (0..rng.gen_range(0..=3))
                        .map(|_| {
                            let id = rng.gen_range(0..5u64);
                            let start = rng.gen_range(0..24u64);
                            let end = rng.gen_range(start..=24u64);
                            let mode = match rng.gen_range(0..3) {
                                0 => AccessMode::Read,
                                1 => AccessMode::Write,
                                _ => AccessMode::ReadWrite,
                            };
                            acc(id, start, end, mode)
                        })
                        .collect();
                    tid += 1;
                    (tref(tid), accesses)
                })
                .collect();
            let want: Vec<Vec<TaskRef>> = batch
                .iter()
                .map(|(who, accesses)| {
                    sequential.submit(0, *who, accesses, &mut out);
                    out.clone()
                })
                .collect();
            let entries: Vec<(TaskRef, &[Access])> = batch
                .iter()
                .map(|(who, accesses)| (*who, accesses.as_slice()))
                .collect();
            let mut got = Vec::new();
            batched.submit_batch(0, &entries, &mut got);
            let got_ids: Vec<Vec<TaskId>> = got
                .iter()
                .map(|p| p.iter().map(|r| r.tid).collect())
                .collect();
            let want_ids: Vec<Vec<TaskId>> = want
                .iter()
                .map(|p| p.iter().map(|r| r.tid).collect())
                .collect();
            assert_eq!(got_ids, want_ids);
        }
        assert_eq!(batched.edges_produced(), sequential.edges_produced());
    }

    #[test]
    fn submit_batch_wires_intra_batch_chain() {
        let t = ShardedDepTracker::new();
        // w(0) -> r(1), r(2) -> w(3): all four in one batch.
        let a_w = [acc(0, 0, 8, AccessMode::Write)];
        let a_r = [acc(0, 0, 8, AccessMode::Read)];
        let entries: Vec<(TaskRef, &[Access])> = vec![
            (tref(0), &a_w),
            (tref(1), &a_r),
            (tref(2), &a_r),
            (tref(3), &a_w),
        ];
        let mut preds = Vec::new();
        t.submit_batch(7, &entries, &mut preds);
        let ids: Vec<Vec<u32>> = preds
            .iter()
            .map(|p| p.iter().map(|r| r.tid.0).collect())
            .collect();
        assert_eq!(ids, vec![vec![], vec![0], vec![0], vec![0, 1, 2]]);
        assert_eq!(t.edges_produced(), 5);
    }

    #[test]
    fn sharded_tracker_disjoint_regions_from_threads() {
        use std::sync::Arc;
        let t = Arc::new(ShardedDepTracker::new());
        let handles: Vec<_> = (0..4u64)
            .map(|lane| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || {
                    let mut preds = Vec::new();
                    for i in 0..500u32 {
                        let tid = lane as u32 * 1000 + i;
                        t.submit(
                            0,
                            tref(tid),
                            &[acc(lane, 0, 64, AccessMode::ReadWrite)],
                            &mut preds,
                        );
                        // Every task in a lane chains on the previous one.
                        if i == 0 {
                            assert!(preds.is_empty());
                        } else {
                            assert_eq!(preds.len(), 1);
                            assert_eq!(preds[0].tid, TaskId(tid - 1));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.edges_produced(), 4 * 499);
    }

    #[test]
    fn sharded_tracker_namespaces_are_isolated() {
        let t = ShardedDepTracker::with_shards(8);
        let mut preds = Vec::new();
        // Namespace 1 writes region 0; namespace 2's writer to the same
        // region must see no predecessor — jobs do not serialise on
        // shared region ids.
        t.submit(1, tref(0), &[acc(0, 0, 64, AccessMode::Write)], &mut preds);
        assert!(preds.is_empty());
        t.submit(2, tref(1), &[acc(0, 0, 64, AccessMode::Write)], &mut preds);
        assert!(preds.is_empty(), "cross-namespace WAW must not appear");
        // Within a namespace the ordering is intact.
        t.submit(1, tref(2), &[acc(0, 0, 64, AccessMode::Read)], &mut preds);
        assert_eq!(preds.len(), 1);
        assert_eq!(preds[0].tid, TaskId(0));
        assert_eq!(t.edges_produced(), 1);
    }

    /// The mask-ordered locking's version of the ascending-order
    /// argument. Two threads write the same two regions (on different
    /// shards), declared in opposite orders: locking in declaration
    /// order would deadlock, locking per access would let two tasks see
    /// each other in opposite orders on the two regions. Every task
    /// overwrites both, so "ordered the same way on both" reads: at most
    /// one predecessor, and the predecessors form one chain.
    #[test]
    fn opposite_declaration_orders_neither_deadlock_nor_cycle() {
        const ROUNDS: u32 = 10_000;
        let t = ShardedDepTracker::new();
        let shard = |id| t.shard_of(&Key::new(0, RegionId(id)));
        let b = (1..).find(|&id| shard(id) != shard(0)).unwrap();
        let go = std::sync::Barrier::new(2);
        let run = |lane: u32, first: u64, second: u64| {
            let mut pred_of = Vec::with_capacity(ROUNDS as usize);
            let mut preds = Vec::new();
            go.wait();
            for round in 0..ROUNDS {
                let who = tref(2 * round + lane);
                let accesses = [
                    acc(first, 0, 8, AccessMode::Write),
                    acc(second, 0, 8, AccessMode::Write),
                ];
                t.submit(0, who, &accesses, &mut preds);
                assert!(preds.len() <= 1, "{who:?} ordered differently: {preds:?}");
                pred_of.push((who.tid, preds.first().map(|p| p.tid)));
            }
            pred_of
        };
        let (ab, ba) = std::thread::scope(|s| {
            let ab = s.spawn(|| run(0, 0, b));
            let ba = s.spawn(|| run(1, b, 0));
            (ab.join().unwrap(), ba.join().unwrap())
        });
        let pred_of: HashMap<TaskId, Option<TaskId>> = ab.into_iter().chain(ba).collect();
        // One chain through all of them: walking back from the last
        // writer reaches the first after visiting everybody once.
        let heads: std::collections::HashSet<_> = pred_of.values().flatten().collect();
        let last = pred_of.keys().find(|t| !heads.contains(t)).unwrap();
        let mut seen = 1;
        let mut at = *last;
        while let Some(p) = pred_of[&at] {
            at = p;
            seen += 1;
            assert!(seen <= 2 * ROUNDS, "cycle through {at:?}");
        }
        assert_eq!(seen, 2 * ROUNDS);
    }

    /// hashbrown buckets by a hash's low bits and tags by its top seven;
    /// both, and the shard index, must come out near-uniform for what
    /// the runtime feeds them: sequential region ids under a few jobs.
    #[test]
    fn shard_map_hash_spreads_sequential_ids() {
        use std::hash::BuildHasher;
        let t = ShardedDepTracker::new();
        let build = BuildHasherDefault::<Premixed>::default();
        let (mut low, mut top, mut shard) = ([0u32; 128], [0u32; 128], [0u32; 64]);
        for job in 0..4u64 {
            for id in 0..100_000 {
                let ns = job << 32 | 1;
                let key = Key::new(ns, RegionId(id));
                let h = build.hash_one(key);
                low[(h % 128) as usize] += 1;
                top[(h >> 57) as usize] += 1;
                shard[t.shard_of(&key)] += 1;
            }
        }
        for (what, counts) in [("low", &low[..]), ("top", &top[..]), ("shard", &shard[..])] {
            let mean = 400_000.0 / counts.len() as f64;
            let worst = counts
                .iter()
                .map(|&c| (c as f64 - mean).abs() / mean)
                .fold(0.0, f64::max);
            assert!(
                worst < 0.05,
                "{what} bits: a bucket is {worst:.3} off the mean"
            );
        }
    }

    /// The O(1) duplicate-reader guard looks at the tail only; a task
    /// reading one segment through two overlapping accesses — the second
    /// one splitting what the first one left — must still be on each
    /// reader list once.
    #[test]
    fn overlapping_reads_of_one_task_list_it_once() {
        let mut state: RegionState<TaskId> = RegionState::new();
        let mut preds = Vec::new();
        state.apply(TaskId(0), &acc(7, 0, 32, AccessMode::Write), &mut preds);
        state.apply(TaskId(1), &acc(7, 0, 16, AccessMode::Read), &mut preds);
        for (start, end) in [(0, 10), (5, 15), (0, 10), (8, 40), (0, u64::MAX)] {
            state.apply(TaskId(2), &acc(7, start, end, AccessMode::Read), &mut preds);
            for seg in &state.segments {
                let twos = seg.readers.iter().filter(|&&r| r == TaskId(2)).count();
                assert!(twos <= 1, "[{start},{end}): {:?}", state.segments);
            }
        }
        assert_eq!(state.segments[0].readers, [TaskId(1), TaskId(2)]);
    }

    /// Oracle cross-check: a naive per-element tracker must agree with the
    /// segment implementation on random access sequences.
    #[test]
    fn matches_naive_oracle_on_random_sequences() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for _ in 0..50 {
            let mut fast = DepTracker::new();
            // element -> (last_writer, readers)
            let mut slow: Vec<(Option<TaskId>, Vec<TaskId>)> = vec![(None, Vec::new()); 64];
            for tid in 0..40u32 {
                let start = rng.gen_range(0..64u64);
                let end = rng.gen_range(start..=64u64);
                let mode = match rng.gen_range(0..3) {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    _ => AccessMode::ReadWrite,
                };
                let got = fast.submit(TaskId(tid), &[acc(7, start, end, mode)]);
                let mut want: Vec<TaskId> = Vec::new();
                for e in start..end {
                    let cell = &mut slow[e as usize];
                    if mode.writes() {
                        if let Some(w) = cell.0 {
                            want.push(w);
                        }
                        want.extend_from_slice(&cell.1);
                        cell.0 = Some(TaskId(tid));
                        cell.1.clear();
                    } else {
                        if let Some(w) = cell.0 {
                            want.push(w);
                        }
                        cell.1.push(TaskId(tid));
                    }
                }
                want.sort_unstable();
                want.dedup();
                want.retain(|&p| p != TaskId(tid));
                assert_eq!(got, want, "tid={tid} [{start},{end}) {mode:?}");
            }
        }
    }

    /// The merge looks only at the boundaries an access touched; the
    /// whole list must still come out as a full rebuild would leave it.
    #[test]
    fn segment_list_stays_canonical_after_every_apply() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(0x5E6);
        for _ in 0..50 {
            let mut state: RegionState<TaskId> = RegionState::new();
            for step in 0..200u32 {
                let start = rng.gen_range(0..64u64);
                let end = match rng.gen_range(0..8) {
                    0 => u64::MAX,
                    _ => rng.gen_range(start + 1..=64u64),
                };
                let mode = match rng.gen_range(0..3) {
                    0 => AccessMode::Read,
                    1 => AccessMode::Write,
                    _ => AccessMode::ReadWrite,
                };
                // Few owners, so readers repeat and equal states recur.
                let owner = TaskId(rng.gen_range(0..4));
                state.apply(owner, &acc(7, start, end, mode), &mut Vec::new());
                let segs = &state.segments;
                assert_eq!(segs[0].range.start, 0, "step {step}");
                assert_eq!(segs[segs.len() - 1].range.end, u64::MAX, "step {step}");
                for s in segs {
                    assert!(s.range.start < s.range.end, "step {step}: {segs:?}");
                }
                for pair in segs.windows(2) {
                    assert_eq!(
                        pair[0].range.end, pair[1].range.start,
                        "step {step}: sorted, disjoint, gap-free: {segs:?}"
                    );
                    assert!(
                        pair[0].last_writer != pair[1].last_writer
                            || pair[0].readers != pair[1].readers,
                        "step {step}: adjacent segments with equal state: {segs:?}"
                    );
                }
            }
        }
    }
}
