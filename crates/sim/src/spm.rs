//! Per-tile scratchpad state: the compiler's tiling software cache.
//!
//! The compiler transforms strided loops to work on SPM-resident,
//! *packed* tiles filled by a gather-capable DMA engine (Cell-style):
//! whatever the stride, the DMA packs the next `tile_lines` lines of the
//! access stream into the scratchpad.  For trace-driven simulation we
//! therefore track residency at **line** granularity with LRU over the
//! SPM capacity, and report fills/writebacks so the machine can charge
//! the (amortised) DMA setup, bulk NoC traffic and energy.

use crate::linemap::LineMap;

/// Result of an SPM reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpmAccess {
    /// The line is resident.
    Hit,
    /// The line had to be DMA-streamed in; `evicted` reports a replaced
    /// line as `(line, dirty)` — dirty lines need a writeback transfer,
    /// and either way the SPM directory must drop the residency record.
    Fill { evicted: Option<(u64, bool)> },
}

/// End of the recency list / no neighbour.
const NIL: u32 = u32::MAX;

/// What the residency map holds per line.
#[derive(Clone, Copy, Debug)]
struct Resident {
    /// The line's node in `links`.
    node: u32,
    dirty: bool,
}

/// A node of the recency list threaded through `links`.
#[derive(Clone, Copy, Debug)]
struct Link {
    /// Neighbour towards the least recently used end.
    older: u32,
    /// Neighbour towards the most recently used end.
    newer: u32,
}

/// One core's scratchpad: a software-managed line store with LRU
/// replacement (the double-buffered tile schedule the compiler emits).
///
/// Residency is a map from line to a list node; recency is a doubly
/// linked list through `links`, oldest first, so the LRU victim is the
/// list's head. Only the owning core's [`SpmState::access`] moves a line to the
/// young end: a remote core's [`SpmState::touch_remote`] leaves recency
/// alone — the tile schedule is the owner's, and a remote read must not
/// keep a tile the owner has finished with.
#[derive(Clone, Debug)]
pub struct SpmState {
    capacity_lines: usize,
    lines: LineMap<Resident>,
    /// The recency list, oldest first. Kept apart from the line numbers
    /// so the part a hit rewrites stays small (eight bytes a line).
    links: Vec<Link>,
    /// Line held by each node; read only to name a victim.
    line_of: Vec<u64>,
    /// Nodes not holding a line.
    free: Vec<u32>,
    oldest: u32,
    newest: u32,
    pub hits: u64,
    pub fills: u64,
    pub writebacks: u64,
}

impl SpmState {
    pub fn new(spm_bytes: usize, line_bytes: u64) -> Self {
        assert!(line_bytes > 0 && spm_bytes as u64 >= line_bytes);
        SpmState {
            capacity_lines: (spm_bytes as u64 / line_bytes) as usize,
            lines: LineMap::default(),
            links: Vec::new(),
            line_of: Vec::new(),
            free: Vec::new(),
            oldest: NIL,
            newest: NIL,
            hits: 0,
            fills: 0,
            writebacks: 0,
        }
    }

    /// Take node `i` out of the recency list.
    fn unlink(&mut self, i: u32) {
        let Link { older, newer } = self.links[i as usize];
        match older {
            NIL => self.oldest = newer,
            o => self.links[o as usize].newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            n => self.links[n as usize].older = older,
        }
    }

    /// Append node `i` at the most recently used end.
    fn push_newest(&mut self, i: u32) {
        self.links[i as usize] = Link {
            older: self.newest,
            newer: NIL,
        };
        match self.newest {
            NIL => self.oldest = i,
            n => self.links[n as usize].newer = i,
        }
        self.newest = i;
    }

    /// Reference the line containing byte address `addr`; `store` marks
    /// it dirty.
    pub fn access(&mut self, addr: u64, store: bool) -> SpmAccess {
        let line = addr >> 6;
        if let Some(r) = self.lines.get_mut(&line) {
            r.dirty |= store;
            let i = r.node;
            if i != self.newest {
                self.unlink(i);
                self.push_newest(i);
            }
            self.hits += 1;
            return SpmAccess::Hit;
        }
        let mut evicted = None;
        if self.lines.len() >= self.capacity_lines {
            let victim = self.line_of[self.oldest as usize];
            let dirty = self
                .invalidate(victim)
                .expect("the oldest line is resident");
            if dirty {
                self.writebacks += 1;
            }
            evicted = Some((victim, dirty));
        }
        let node = match self.free.pop() {
            Some(i) => {
                self.line_of[i as usize] = line;
                i
            }
            None => {
                self.line_of.push(line);
                self.links.push(Link {
                    older: NIL,
                    newer: NIL,
                });
                (self.links.len() - 1) as u32
            }
        };
        self.push_newest(node);
        self.lines.insert(line, Resident { node, dirty: store });
        self.fills += 1;
        SpmAccess::Fill { evicted }
    }

    /// Is the line containing `addr` resident?
    pub fn resident(&self, addr: u64) -> bool {
        self.lines.contains_key(&(addr >> 6))
    }

    /// Access a resident line on behalf of a *remote* core (the hybrid
    /// protocol's unknown-alias path). Returns false when not resident
    /// (stale directory entry). Does not refresh the line's recency.
    pub fn touch_remote(&mut self, addr: u64, store: bool) -> bool {
        match self.lines.get_mut(&(addr >> 6)) {
            Some(r) => {
                r.dirty |= store;
                self.hits += 1;
                true
            }
            None => false,
        }
    }

    /// Drop a line (cross-SPM invalidation when another core writes
    /// it). Returns `Some(dirty)` when it was resident.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let r = self.lines.remove(&line)?;
        self.unlink(r.node);
        self.free.push(r.node);
        Some(r.dirty)
    }

    /// Resident line numbers, least recently used first (for consistency
    /// checks).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        let mut at = self.oldest;
        std::iter::from_fn(move || {
            // `NIL` indexes past every node: the end of the list.
            let line = *self.line_of.get(at as usize)?;
            at = self.links[at as usize].newer;
            Some(line)
        })
    }

    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_stride_stream_hits_within_lines() {
        let mut s = SpmState::new(4096, 64);
        // 8 consecutive 8-byte refs share one line: 1 fill + 7 hits.
        for a in (0..64).step_by(8) {
            s.access(a, false);
        }
        assert_eq!(s.fills, 1);
        assert_eq!(s.hits, 7);
    }

    #[test]
    fn large_strides_fill_once_per_line() {
        let mut s = SpmState::new(64 * 1024, 64);
        // Stride of 1 KiB: every access a distinct line, but each line
        // is fetched exactly once even when revisited.
        for rep in 0..2 {
            for i in 0..32u64 {
                let r = s.access(i * 1024, false);
                if rep == 0 {
                    assert!(matches!(r, SpmAccess::Fill { .. }));
                } else {
                    assert_eq!(r, SpmAccess::Hit);
                }
            }
        }
        assert_eq!(s.fills, 32);
    }

    #[test]
    fn capacity_eviction_is_lru() {
        let mut s = SpmState::new(128, 64); // 2 lines
        s.access(0, false);
        s.access(64, false);
        s.access(0, false); // touch line 0
        match s.access(128, false) {
            SpmAccess::Fill {
                evicted: Some((line, dirty)),
            } => {
                assert_eq!(line, 1, "LRU evicts line 1");
                assert!(!dirty);
            }
            r => panic!("expected eviction, got {r:?}"),
        }
        assert!(s.resident(0) && s.resident(128) && !s.resident(64));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut s = SpmState::new(64, 64); // 1 line
        s.access(0, true);
        match s.access(64, false) {
            SpmAccess::Fill {
                evicted: Some((line, dirty)),
            } => {
                assert_eq!(line, 0);
                assert!(dirty);
            }
            r => panic!("expected dirty eviction, got {r:?}"),
        }
        assert_eq!(s.writebacks, 1);
    }

    #[test]
    fn invalidate_drops_line() {
        let mut s = SpmState::new(256, 64);
        s.access(0, true);
        s.access(64, false);
        assert_eq!(s.invalidate(0), Some(true));
        assert_eq!(s.invalidate(1), Some(false));
        assert_eq!(s.invalidate(9), None);
        assert!(!s.resident(0));
    }

    #[test]
    fn remote_touch_requires_residency() {
        let mut s = SpmState::new(128, 64);
        assert!(!s.touch_remote(8, true));
        s.access(0, false);
        assert!(s.touch_remote(8, true), "same line, different offset");
        // The remote store dirtied the line.
        s.access(64, false);
        match s.access(128, false) {
            SpmAccess::Fill {
                evicted: Some((line, dirty)),
            } => {
                assert_eq!(line, 0);
                assert!(dirty, "remote store must dirty the line");
            }
            r => panic!("expected eviction, got {r:?}"),
        }
    }
    /// The scratchpad this module had before the recency list — a map of
    /// LRU stamps and a `min_by_key` scan for the victim — kept as the
    /// oracle.
    struct StampedSpm {
        capacity_lines: usize,
        lines: std::collections::HashMap<u64, (bool, u64)>,
        clock: u64,
        hits: u64,
        fills: u64,
        writebacks: u64,
    }

    impl StampedSpm {
        fn access(&mut self, addr: u64, store: bool) -> SpmAccess {
            self.clock += 1;
            let line = addr >> 6;
            if let Some(l) = self.lines.get_mut(&line) {
                *l = (l.0 | store, self.clock);
                self.hits += 1;
                return SpmAccess::Hit;
            }
            let mut evicted = None;
            if self.lines.len() >= self.capacity_lines {
                let (&victim, _) = self.lines.iter().min_by_key(|(_, l)| l.1).unwrap();
                let (dirty, _) = self.lines.remove(&victim).unwrap();
                self.writebacks += dirty as u64;
                evicted = Some((victim, dirty));
            }
            self.lines.insert(line, (store, self.clock));
            self.fills += 1;
            SpmAccess::Fill { evicted }
        }

        fn touch_remote(&mut self, addr: u64, store: bool) -> bool {
            match self.lines.get_mut(&(addr >> 6)) {
                Some(l) => {
                    l.0 |= store;
                    self.hits += 1;
                    true
                }
                None => false,
            }
        }

        fn invalidate(&mut self, line: u64) -> Option<bool> {
            self.lines.remove(&line).map(|l| l.0)
        }
    }

    proptest::proptest! {
        /// Test (ii): the O(1)-victim scratchpad against the scan it
        /// replaced, over random owner accesses, remote touches and
        /// invalidations on a working set of 1.5× the capacity.
        #[test]
        fn recency_list_evicts_what_the_stamp_scan_evicted(
            capacity in 4usize..=16,
            ops in proptest::collection::vec((0u8..10, 0u64..24, proptest::prelude::any::<bool>()), 1..400),
        ) {
            let mut spm = SpmState::new(capacity * 64, 64);
            let mut oracle = StampedSpm {
                capacity_lines: capacity,
                lines: Default::default(),
                clock: 0,
                hits: 0,
                fills: 0,
                writebacks: 0,
            };
            for (kind, pick, store) in ops {
                // Lines 0..1.5×capacity, a byte offset inside the line.
                let line = pick % (capacity as u64 * 3 / 2);
                let addr = line * 64 + pick;
                match kind {
                    0..=5 => proptest::prop_assert_eq!(
                        spm.access(addr, store),
                        oracle.access(addr, store)
                    ),
                    6..=7 => proptest::prop_assert_eq!(
                        spm.touch_remote(addr, store),
                        oracle.touch_remote(addr, store)
                    ),
                    _ => proptest::prop_assert_eq!(spm.invalidate(line), oracle.invalidate(line)),
                }
                proptest::prop_assert_eq!(
                    (spm.hits, spm.fills, spm.writebacks),
                    (oracle.hits, oracle.fills, oracle.writebacks)
                );
            }
            // Same residents, and the list really is in stamp order.
            let mut by_stamp: Vec<(u64, u64)> =
                oracle.lines.iter().map(|(&line, l)| (l.1, line)).collect();
            by_stamp.sort_unstable();
            let want: Vec<u64> = by_stamp.into_iter().map(|(_, line)| line).collect();
            proptest::prop_assert_eq!(spm.resident_lines().collect::<Vec<_>>(), want);
        }
    }
}
