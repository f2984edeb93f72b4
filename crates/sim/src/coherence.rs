//! Directory-based MESI coherence for the private L1 caches.
//!
//! The directory lives with the L2 banks and tracks, per line, whether
//! the line is uncached, **exclusive** in one L1 (clean, sole copy),
//! shared by a set of L1s, or **modified** in exactly one L1.  The E
//! state is what makes private data cheap: the first reader is granted
//! exclusivity and its subsequent store upgrades silently, with no
//! directory round trip or invalidations.  The machine charges NoC
//! messages and latencies based on the actions this module reports
//! (owner downgrades, invalidations).

use crate::linemap::LineMap;

/// The cores named by a sharer/holder mask, lowest first.
pub(crate) fn cores_in(mut mask: u128) -> impl Iterator<Item = u16> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let core = mask.trailing_zeros() as u16;
            mask &= mask - 1;
            core
        })
    })
}

/// Directory state of one line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineState {
    Uncached,
    /// Sole clean copy in one L1 (silent-upgrade permission).
    Exclusive(u16),
    /// Bitmask of sharer cores (supports up to 128 tiles).
    Shared(u128),
    /// Single owner with write permission.
    Modified(u16),
}

/// What a read miss requires before data can be returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadActions {
    /// An owner whose dirty copy must be downgraded/written back first.
    pub downgrade_owner: Option<u16>,
}

/// What a write (exclusive request) requires.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteActions {
    /// Sharers (other than the requester) to invalidate.
    pub invalidate: Vec<u16>,
    /// A modified owner whose copy must be fetched & invalidated.
    pub fetch_owner: Option<u16>,
}

/// The coherence directory.
#[derive(Clone, Debug, Default)]
pub struct Directory {
    lines: LineMap<LineState>,
    pub read_misses: u64,
    pub write_misses: u64,
    pub invalidations: u64,
    pub downgrades: u64,
}

impl Directory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Core `who` gains a copy of `line`: Exclusive when it is the only
    /// holder, Shared otherwise.
    pub fn read(&mut self, line: u64, who: u16) -> ReadActions {
        self.read_misses += 1;
        let st = self.lines.entry(line).or_insert(LineState::Uncached);
        match *st {
            LineState::Uncached => {
                *st = LineState::Exclusive(who);
                ReadActions {
                    downgrade_owner: None,
                }
            }
            LineState::Exclusive(holder) => {
                if holder == who {
                    ReadActions {
                        downgrade_owner: None,
                    }
                } else {
                    // E→S: the holder's copy is clean, no writeback.
                    *st = LineState::Shared((1u128 << holder) | (1u128 << who));
                    ReadActions {
                        downgrade_owner: None,
                    }
                }
            }
            LineState::Shared(mask) => {
                *st = LineState::Shared(mask | (1u128 << who));
                ReadActions {
                    downgrade_owner: None,
                }
            }
            LineState::Modified(owner) => {
                if owner == who {
                    // Silent hit in the owner; directory unchanged.
                    ReadActions {
                        downgrade_owner: None,
                    }
                } else {
                    self.downgrades += 1;
                    *st = LineState::Shared((1u128 << owner) | (1u128 << who));
                    ReadActions {
                        downgrade_owner: Some(owner),
                    }
                }
            }
        }
    }

    /// Core `who` gains exclusive (modified) ownership of `line`.
    pub fn write(&mut self, line: u64, who: u16) -> WriteActions {
        self.write_misses += 1;
        let st = self.lines.entry(line).or_insert(LineState::Uncached);
        let actions = match *st {
            LineState::Uncached => WriteActions {
                invalidate: Vec::new(),
                fetch_owner: None,
            },
            LineState::Exclusive(holder) => {
                if holder == who {
                    // The silent E→M upgrade: no traffic at all.
                    WriteActions {
                        invalidate: Vec::new(),
                        fetch_owner: None,
                    }
                } else {
                    self.invalidations += 1;
                    WriteActions {
                        invalidate: vec![holder],
                        fetch_owner: None,
                    }
                }
            }
            LineState::Shared(mask) => {
                let inval: Vec<u16> = cores_in(mask & !(1u128 << who)).collect();
                self.invalidations += inval.len() as u64;
                WriteActions {
                    invalidate: inval,
                    fetch_owner: None,
                }
            }
            LineState::Modified(owner) => {
                if owner == who {
                    WriteActions {
                        invalidate: Vec::new(),
                        fetch_owner: None,
                    }
                } else {
                    self.invalidations += 1;
                    WriteActions {
                        invalidate: Vec::new(),
                        fetch_owner: Some(owner),
                    }
                }
            }
        };
        *st = LineState::Modified(who);
        actions
    }

    /// Core `who` silently drops its copy (L1 eviction).
    pub fn evict(&mut self, line: u64, who: u16) {
        if let Some(st) = self.lines.get_mut(&line) {
            match *st {
                LineState::Shared(mask) => {
                    let m = mask & !(1u128 << who);
                    *st = if m == 0 {
                        LineState::Uncached
                    } else {
                        LineState::Shared(m)
                    };
                }
                LineState::Exclusive(holder) if holder == who => {
                    *st = LineState::Uncached;
                }
                LineState::Modified(owner) if owner == who => {
                    *st = LineState::Uncached;
                }
                _ => {}
            }
        }
    }

    /// Remove all directory state for `line`, returning every core that
    /// held a copy (used when a DMA fill pulls a line into an SPM and the
    /// cached copies must be invalidated).
    pub fn purge(&mut self, line: u64) -> Vec<u16> {
        match self.lines.remove(&line) {
            None | Some(LineState::Uncached) => Vec::new(),
            Some(LineState::Exclusive(holder)) => {
                self.invalidations += 1;
                vec![holder]
            }
            Some(LineState::Shared(mask)) => {
                let holders: Vec<u16> = cores_in(mask).collect();
                self.invalidations += holders.len() as u64;
                holders
            }
            Some(LineState::Modified(owner)) => {
                self.invalidations += 1;
                vec![owner]
            }
        }
    }

    /// Current state of a line (for tests/inspection).
    pub fn state(&self, line: u64) -> LineState {
        self.lines
            .get(&line)
            .copied()
            .unwrap_or(LineState::Uncached)
    }

    /// Number of lines with directory state.
    pub fn tracked(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_reader_gets_exclusive_then_shares() {
        let mut d = Directory::new();
        assert_eq!(d.read(10, 0).downgrade_owner, None);
        assert_eq!(d.state(10), LineState::Exclusive(0));
        assert_eq!(d.read(10, 3).downgrade_owner, None);
        assert_eq!(d.state(10), LineState::Shared(0b1001));
    }

    #[test]
    fn exclusive_upgrades_silently() {
        let mut d = Directory::new();
        d.read(10, 5);
        let a = d.write(10, 5);
        assert!(a.invalidate.is_empty(), "E→M is silent");
        assert_eq!(a.fetch_owner, None);
        assert_eq!(d.state(10), LineState::Modified(5));
        assert_eq!(d.invalidations, 0);
    }

    #[test]
    fn foreign_write_invalidates_exclusive_holder() {
        let mut d = Directory::new();
        d.read(10, 5);
        let a = d.write(10, 2);
        assert_eq!(a.invalidate, vec![5]);
        assert_eq!(d.state(10), LineState::Modified(2));
    }

    #[test]
    fn exclusive_holder_eviction_clears() {
        let mut d = Directory::new();
        d.read(10, 4);
        d.evict(10, 4);
        assert_eq!(d.state(10), LineState::Uncached);
        // Purge of an exclusive line reports the holder.
        d.read(11, 6);
        assert_eq!(d.purge(11), vec![6]);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        d.read(10, 0);
        d.read(10, 1);
        d.read(10, 2);
        let a = d.write(10, 1);
        assert_eq!(a.invalidate, vec![0, 2]);
        assert_eq!(a.fetch_owner, None);
        assert_eq!(d.state(10), LineState::Modified(1));
        assert_eq!(d.invalidations, 2);
    }

    #[test]
    fn remote_read_downgrades_owner() {
        let mut d = Directory::new();
        d.write(10, 5);
        let a = d.read(10, 2);
        assert_eq!(a.downgrade_owner, Some(5));
        assert_eq!(d.state(10), LineState::Shared((1 << 5) | (1 << 2)));
        assert_eq!(d.downgrades, 1);
    }

    #[test]
    fn owner_reads_own_modified_line_silently() {
        let mut d = Directory::new();
        d.write(10, 5);
        let a = d.read(10, 5);
        assert_eq!(a.downgrade_owner, None);
        assert_eq!(d.state(10), LineState::Modified(5));
    }

    #[test]
    fn write_steals_modified_line() {
        let mut d = Directory::new();
        d.write(10, 0);
        let a = d.write(10, 1);
        assert_eq!(a.fetch_owner, Some(0));
        assert_eq!(d.state(10), LineState::Modified(1));
    }

    #[test]
    fn eviction_clears_state() {
        let mut d = Directory::new();
        d.read(10, 0);
        d.read(10, 1);
        d.evict(10, 0);
        assert_eq!(d.state(10), LineState::Shared(0b10));
        d.evict(10, 1);
        assert_eq!(d.state(10), LineState::Uncached);
        // Evicting a modified line.
        d.write(11, 4);
        d.evict(11, 4);
        assert_eq!(d.state(11), LineState::Uncached);
        // Foreign eviction does not clobber the owner.
        d.write(12, 4);
        d.evict(12, 5);
        assert_eq!(d.state(12), LineState::Modified(4));
    }

    #[test]
    fn self_write_on_own_modified_is_free() {
        let mut d = Directory::new();
        d.write(10, 7);
        let a = d.write(10, 7);
        assert!(a.invalidate.is_empty());
        assert_eq!(a.fetch_owner, None);
    }
}
