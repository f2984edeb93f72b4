//! Hashing for the simulator's line-keyed maps.
//!
//! The directory, the scratchpads, the SPM directory and the machine's
//! holder/alias sets are all keyed by a line number (or a line-aligned
//! address) the simulator computed itself, and are looked up once or more
//! per simulated reference. SipHash's protection against crafted keys
//! buys nothing there and costs more than the rest of an SPM hit.
//!
//! No simulated number can depend on the hash: nothing iterates these
//! maps except [`crate::spm::SpmState::resident_lines`], which walks the
//! scratchpad's recency list instead.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-mix hasher for one `u64` key: a Fibonacci multiply, folded so
/// the well-mixed high half also decides the low (bucket-index) bits —
/// line-aligned addresses have their low six bits clear.
#[derive(Clone, Copy, Debug, Default)]
pub struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("line maps hash exactly one u64");
    }

    fn write_u64(&mut self, key: u64) {
        let m = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = m ^ (m >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;
pub(crate) type LineSet = HashSet<u64, BuildHasherDefault<LineHasher>>;
