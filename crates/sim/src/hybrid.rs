//! The hybrid hierarchy's SPM directory and alias filter (§2 of the
//! paper; Alvarez et al., ISCA'15).
//!
//! The compiler maps strided arrays to the scratchpads, but random
//! references with *unknown aliasing hazards* might touch the same data.
//! The hardware therefore keeps:
//!
//! * a **filter** of the address ranges the compiler declared
//!   SPM-mappable — a cheap first-level check consulted by every
//!   unknown-alias access, and
//! * an **SPM directory (SDIR)** tracking which tiles are *currently*
//!   resident in which scratchpad, so the access is served by the memory
//!   that holds the valid copy.

use crate::linemap::LineMap;

/// Filter + SDIR. Residency is tracked in `tile_bytes`-aligned units
/// (64-byte lines for the packed-DMA software cache), matching the
/// per-core [`crate::spm::SpmState`] granularity.
#[derive(Clone, Debug, Default)]
pub struct SpmDirectory {
    /// Sorted, disjoint `(base, end)` ranges the compiler mapped to SPMs.
    mapped: Vec<(u64, u64)>,
    tile_bytes: u64,
    /// tile base → owning core.
    resident: LineMap<u16>,
    pub filter_lookups: u64,
    pub sdir_hits: u64,
    pub sdir_misses: u64,
}

impl SpmDirectory {
    /// Program the filter with the compiler's SPM-mapped ranges.
    pub fn new(mut ranges: Vec<(u64, u64)>, tile_bytes: u64) -> Self {
        ranges.sort_unstable();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "SPM ranges must be disjoint");
        }
        SpmDirectory {
            mapped: ranges,
            tile_bytes,
            resident: LineMap::default(),
            filter_lookups: 0,
            sdir_hits: 0,
            sdir_misses: 0,
        }
    }

    fn tile_of(&self, addr: u64) -> u64 {
        addr / self.tile_bytes * self.tile_bytes
    }

    /// Filter check: could `addr` be SPM-mapped at all? (Pure range
    /// membership; counts a lookup.)
    pub fn filter_check(&mut self, addr: u64) -> bool {
        self.filter_lookups += 1;
        self.in_mapped_range(addr)
    }

    /// Range membership without counting (for tests / setup).
    pub fn in_mapped_range(&self, addr: u64) -> bool {
        match self.mapped.partition_point(|&(_, end)| end <= addr) {
            i if i < self.mapped.len() => {
                let (base, end) = self.mapped[i];
                addr >= base && addr < end
            }
            _ => false,
        }
    }

    /// SDIR lookup: which core's SPM currently holds the tile containing
    /// `addr`, if any? Counts hit/miss statistics.
    pub fn lookup_owner(&mut self, addr: u64) -> Option<u16> {
        let owner = self.resident.get(&self.tile_of(addr)).copied();
        match owner {
            Some(_) => self.sdir_hits += 1,
            None => self.sdir_misses += 1,
        }
        owner
    }

    /// Record that `core` DMA-filled the tile containing `addr`.
    pub fn set_resident(&mut self, addr: u64, core: u16) {
        let t = self.tile_of(addr);
        self.resident.insert(t, core);
    }

    /// Record that the tile containing `addr` left `core`'s SPM.
    pub fn clear_resident(&mut self, addr: u64, core: u16) {
        let t = self.tile_of(addr);
        if self.resident.get(&t) == Some(&core) {
            self.resident.remove(&t);
        }
    }

    /// Number of currently resident tiles (across all SPMs).
    pub fn resident_tiles(&self) -> usize {
        self.resident.len()
    }

    /// Consume the directory, returning the programmed mapped ranges.
    pub fn into_ranges(self) -> Vec<(u64, u64)> {
        self.mapped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sdir() -> SpmDirectory {
        SpmDirectory::new(vec![(4096, 8192), (16384, 32768)], 1024)
    }

    #[test]
    fn filter_membership() {
        let mut d = sdir();
        assert!(d.filter_check(4096));
        assert!(d.filter_check(8191));
        assert!(!d.filter_check(8192));
        assert!(!d.filter_check(0));
        assert!(d.filter_check(20000));
        assert_eq!(d.filter_lookups, 5);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_ranges_rejected() {
        SpmDirectory::new(vec![(0, 100), (50, 200)], 64);
    }

    #[test]
    fn residency_tracking() {
        let mut d = sdir();
        assert_eq!(d.lookup_owner(5000), None);
        d.set_resident(5000, 3);
        assert_eq!(d.lookup_owner(5000), Some(3));
        // Same tile, different offset.
        assert_eq!(d.lookup_owner(4100), Some(3));
        // Neighbouring tile is separate.
        assert_eq!(d.lookup_owner(6200), None);
        assert_eq!(d.sdir_hits, 2);
        assert_eq!(d.sdir_misses, 2);
    }

    #[test]
    fn clear_requires_matching_owner() {
        let mut d = sdir();
        d.set_resident(5000, 3);
        d.clear_resident(5000, 7); // wrong owner: no-op
        assert_eq!(d.lookup_owner(5000), Some(3));
        d.clear_resident(5000, 3);
        assert_eq!(d.lookup_owner(5000), None);
        assert_eq!(d.resident_tiles(), 0);
    }
}
