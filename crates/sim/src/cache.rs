//! Set-associative write-back cache with LRU replacement.
//!
//! The cache tracks line *presence and dirtiness* only — trace-driven
//! simulation needs hit/miss/eviction behaviour, not data contents.

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    Hit,
    /// Miss; the victim (if any) is reported so the caller can generate
    /// writeback traffic for dirty lines.
    Miss {
        evicted: Option<Victim>,
    },
}

/// An evicted line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Victim {
    pub line: u64,
    pub dirty: bool,
}

#[derive(Clone, Copy, Debug)]
struct Way {
    line: u64,
    valid: bool,
    dirty: bool,
    /// Coherence-exclusive (MESI E): a store may upgrade silently.
    excl: bool,
    /// LRU stamp; larger = more recently used.
    lru: u64,
}

const INVALID: Way = Way {
    line: 0,
    valid: false,
    dirty: false,
    excl: false,
    lru: 0,
};

/// A set-associative cache over 64-byte lines.
#[derive(Clone, Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    data: Vec<Way>,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

impl Cache {
    /// A cache with `lines` total lines and `ways` associativity.
    /// `lines` must be a multiple of `ways` and sets a power of two.
    pub fn new(lines: usize, ways: usize) -> Self {
        assert!(ways >= 1 && lines >= ways && lines.is_multiple_of(ways));
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets,
            ways,
            data: vec![INVALID; lines],
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set_of(&self, line: u64) -> usize {
        // XOR-folded (skewed) index: breaks pathological power-of-two
        // stride conflicts, as padded layouts / hashed indexing do in
        // real designs.
        let bits = self.sets.trailing_zeros();
        ((line ^ (line >> bits) ^ (line >> (2 * bits))) as usize) & (self.sets - 1)
    }

    fn set_slice(&mut self, set: usize) -> &mut [Way] {
        let lo = set * self.ways;
        &mut self.data[lo..lo + self.ways]
    }

    /// Access `line`; `store` marks the line dirty on hit or fill.
    pub fn access(&mut self, line: u64, store: bool) -> AccessResult {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_of(line);
        let ways = self.set_slice(set);
        // Hit?
        for w in ways.iter_mut() {
            if w.valid && w.line == line {
                w.lru = clock;
                w.dirty |= store;
                self.hits += 1;
                return AccessResult::Hit;
            }
        }
        // Miss: pick invalid way or LRU victim.
        let victim_idx = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| if w.valid { w.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("ways >= 1");
        let v = ways[victim_idx];
        let evicted = (v.valid).then_some(Victim {
            line: v.line,
            dirty: v.dirty,
        });
        ways[victim_idx] = Way {
            line,
            valid: true,
            dirty: store,
            excl: false,
            lru: clock,
        };
        if matches!(evicted, Some(e) if e.dirty) {
            self.writebacks += 1;
        }
        self.misses += 1;
        AccessResult::Miss { evicted }
    }

    /// The hit half of [`Cache::access`] in one pass over the set: when
    /// `line` is present, count the hit, refresh its LRU stamp, apply
    /// `store`, and return the `(dirty, exclusive)` state it had before —
    /// the MESI write-permission check. A miss changes nothing (not even
    /// the clock), so the caller can do its miss handling and then fill
    /// through `access`.
    pub fn touch(&mut self, line: u64, store: bool) -> Option<(bool, bool)> {
        let set = self.set_of(line);
        let clock = self.clock + 1;
        let w = self
            .set_slice(set)
            .iter_mut()
            .find(|w| w.valid && w.line == line)?;
        let before = (w.dirty, w.excl);
        w.lru = clock;
        w.dirty |= store;
        self.clock = clock;
        self.hits += 1;
        Some(before)
    }

    /// Probe without touching LRU or stats: `Some(dirty)` when present.
    pub fn probe(&self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        let lo = set * self.ways;
        self.data[lo..lo + self.ways]
            .iter()
            .find(|w| w.valid && w.line == line)
            .map(|w| w.dirty)
    }

    /// Probe `(dirty, exclusive)` — the MESI write-permission check.
    pub fn probe_state(&self, line: u64) -> Option<(bool, bool)> {
        let set = self.set_of(line);
        let lo = set * self.ways;
        self.data[lo..lo + self.ways]
            .iter()
            .find(|w| w.valid && w.line == line)
            .map(|w| (w.dirty, w.excl))
    }

    /// Grant MESI-Exclusive to a resident line (set on a fill whose
    /// directory response carried exclusivity).
    pub fn set_exclusive(&mut self, line: u64) {
        let set = self.set_of(line);
        let lo = set * self.ways;
        if let Some(w) = self.data[lo..lo + self.ways]
            .iter_mut()
            .find(|w| w.valid && w.line == line)
        {
            w.excl = true;
        }
    }

    /// Does the cache currently hold `line`?
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let lo = set * self.ways;
        self.data[lo..lo + self.ways]
            .iter()
            .any(|w| w.valid && w.line == line)
    }

    /// Invalidate `line` (coherence). Returns whether it was present and
    /// dirty (needs writeback).
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set_of(line);
        let lo = set * self.ways;
        for w in &mut self.data[lo..lo + self.ways] {
            if w.valid && w.line == line {
                let dirty = w.dirty;
                *w = INVALID;
                return Some(dirty);
            }
        }
        None
    }

    /// Downgrade `line` to Shared (M→S or E→S on a remote read): clears
    /// dirtiness and exclusivity. Returns true when it was dirty.
    pub fn clean(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let lo = set * self.ways;
        for w in &mut self.data[lo..lo + self.ways] {
            if w.valid && w.line == line {
                let was_dirty = w.dirty;
                w.dirty = false;
                w.excl = false;
                return was_dirty;
            }
        }
        false
    }

    /// Currently valid lines, in way order — the fault-injection /
    /// patrol-scrub population (what ECC actually protects is whatever
    /// is resident right now).
    pub fn resident_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.data.iter().filter(|w| w.valid).map(|w| w.line)
    }

    /// Miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_after_fill() {
        let mut c = Cache::new(64, 4);
        assert!(matches!(c.access(7, false), AccessResult::Miss { .. }));
        assert_eq!(c.access(7, false), AccessResult::Hit);
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set × 2 ways: lines 0 and 16 map to set 0 with 16 sets? Use a
        // direct 2-way single-set cache: lines all map to set 0.
        let mut c = Cache::new(2, 2);
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 0 more recent than 1
        match c.access(2, false) {
            AccessResult::Miss { evicted: Some(v) } => assert_eq!(v.line, 1),
            r => panic!("expected eviction of line 1, got {r:?}"),
        }
        assert!(c.contains(0) && c.contains(2) && !c.contains(1));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(1, 1);
        c.access(5, true);
        match c.access(9, false) {
            AccessResult::Miss { evicted: Some(v) } => {
                assert_eq!(v.line, 5);
                assert!(v.dirty);
            }
            r => panic!("unexpected {r:?}"),
        }
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn store_hit_marks_dirty() {
        let mut c = Cache::new(1, 1);
        c.access(5, false);
        c.access(5, true);
        match c.access(6, false) {
            AccessResult::Miss { evicted: Some(v) } => assert!(v.dirty),
            r => panic!("unexpected {r:?}"),
        }
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(4, 2);
        c.access(3, true);
        assert_eq!(c.invalidate(3), Some(true));
        assert!(!c.contains(3));
        assert_eq!(c.invalidate(3), None);
    }

    #[test]
    fn exclusive_grant_and_silent_upgrade_state() {
        let mut c = Cache::new(4, 2);
        c.access(9, false);
        assert_eq!(c.probe_state(9), Some((false, false)));
        c.set_exclusive(9);
        assert_eq!(c.probe_state(9), Some((false, true)));
        // A store keeps exclusivity and sets dirty.
        c.access(9, true);
        assert_eq!(c.probe_state(9), Some((true, true)));
        // A downgrade clears both.
        c.clean(9);
        assert_eq!(c.probe_state(9), Some((false, false)));
        assert_eq!(c.probe_state(77), None);
    }

    #[test]
    fn touch_is_probe_state_then_access_on_a_hit_and_nothing_on_a_miss() {
        let mut a = Cache::new(8, 2);
        let mut b = a.clone();
        for (line, store) in [(3, false), (5, true), (3, true), (9, false), (3, false)] {
            let before = b.probe_state(line);
            assert_eq!(a.touch(line, store), before);
            if before.is_none() {
                // A miss left `a` untouched: the fill happens here.
                a.access(line, store);
            }
            b.access(line, store);
            assert_eq!((a.hits, a.misses, a.clock), (b.hits, b.misses, b.clock));
            assert_eq!(a.probe_state(line), b.probe_state(line));
        }
        // Same LRU order: both evict the same victim from line 3's set.
        let victims = |c: &mut Cache| (16..32).map(|l| c.access(l, false)).collect::<Vec<_>>();
        assert_eq!(victims(&mut a), victims(&mut b));
    }

    #[test]
    fn clean_downgrades_dirty() {
        let mut c = Cache::new(4, 2);
        c.access(3, true);
        assert!(c.clean(3));
        assert!(!c.clean(3), "already clean");
        // Clean eviction: no writeback.
        let before = c.writebacks;
        c.invalidate(3);
        assert_eq!(c.writebacks, before);
    }

    #[test]
    fn consecutive_lines_map_to_distinct_sets() {
        let mut c = Cache::new(8, 1); // 8 direct-mapped sets
        for l in 0..8u64 {
            c.access(l, false);
        }
        // XOR folding keeps consecutive lines conflict-free.
        for l in 0..8u64 {
            assert!(c.contains(l), "line {l} evicted by a different set");
        }
    }

    #[test]
    fn power_of_two_strides_do_not_thrash() {
        // 128 sets × 4 ways; 32-set strides would classically alias into
        // 4 sets. The hashed index must spread them.
        let mut c = Cache::new(512, 4);
        for rep in 0..2 {
            for i in 0..64u64 {
                c.access(i * 32, false);
            }
            if rep == 1 {
                continue;
            }
        }
        // Second sweep should be mostly hits.
        assert!(
            c.hits >= 48,
            "hashed indexing should retain most of the 64-line stream, hits={}",
            c.hits
        );
    }

    #[test]
    fn resident_lines_tracks_fills_and_invalidations() {
        let mut c = Cache::new(8, 2);
        for l in [3u64, 9, 17] {
            c.access(l, false);
        }
        let mut lines: Vec<u64> = c.resident_lines().collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![3, 9, 17]);
        c.invalidate(9);
        assert_eq!(c.resident_lines().count(), 2);
    }

    #[test]
    fn streaming_miss_ratio_matches_line_reuse() {
        // 8 consecutive 8-byte refs share a line; here we access lines
        // directly so a pure stream misses every time.
        let mut c = Cache::new(64, 4);
        for l in 0..1000u64 {
            c.access(l, false);
        }
        assert!((c.miss_ratio() - 1.0).abs() < 1e-12);
    }
}
