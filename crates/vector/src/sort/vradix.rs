//! Classic vectorised radix sort (Zagha & Blelloch style) — the
//! comparison point VSR improves on.
//!
//! Without VPI/VLU, intra-register bucket conflicts are avoided by
//! **replicating the bookkeeping per vector element**: counter table
//! `rep[digit][slot]`, with each vector slot processing its own
//! contiguous chunk of the input.  The replication costs:
//!
//! * the radix must shrink so `R × MVL` counters stay manageable — 4-bit
//!   digits here, so **8 passes** instead of VSR's 4 (the worse `k`);
//! * every pass pays an `R × MVL` reduction/scan between the phases.

use crate::engine::{EngineCfg, VectorEngine};
use crate::sort::Sorter;

/// Radix bits per pass (replication forces a small radix).
const RBITS: u32 = 4;
const R: usize = 1 << RBITS;
/// Passes for 32-bit keys.
const PASSES: u32 = 8;

/// The classic vectorised radix sorter.
pub struct VRadixSort;

impl Sorter for VRadixSort {
    fn name(&self) -> &'static str {
        "vradix"
    }

    fn sort(&self, cfg: EngineCfg, keys: &mut Vec<u64>) -> u64 {
        let mut e = VectorEngine::new(cfg);
        vradix_sort(&mut e, keys);
        e.cycles()
    }
}

/// Sort through the engine. Keys must be 32-bit values in u64 slots.
pub fn vradix_sort(e: &mut VectorEngine, keys: &mut Vec<u64>) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let mvl = e.mvl();
    // Pad so every slot owns an equal chunk; u32::MAX padding sorts to
    // the end and is truncated afterwards.
    let chunk = n.div_ceil(mvl);
    let padded = chunk * mvl;
    let mut src = std::mem::take(keys);
    src.resize(padded, u32::MAX as u64);
    let mut dst = vec![0u64; padded];

    for pass in 0..PASSES {
        let shift = pass * RBITS;
        // -------- phase 1: replicated histogram --------
        // rep[d * mvl + slot] = count of digit d seen by slot.
        let mut rep = vec![0u64; R * mvl];
        e.set_vl(mvl);
        let dm = e.splat((R - 1) as u64);
        let slots = e.iota();
        let ones = e.splat(1);
        let mvl_shift = mvl.trailing_zeros();
        debug_assert!(mvl.is_power_of_two(), "engine MVLs are powers of two");
        for t in 0..chunk {
            // Slot j reads src[j*chunk + t]: constant stride `chunk`.
            let k = e.load_strided(&src, t, chunk);
            let sh = e.shr(&k, shift);
            let d = e.and(&sh, &dm);
            let row = e.shl(&d, mvl_shift);
            let idx = e.add(&row, &slots);
            let cur = e.gather(&rep, &idx);
            let inc = e.add(&cur, &ones);
            e.scatter(&mut rep, &idx, &inc); // conflict-free by construction
            e.scalar_ops(2);
            for dead in [k, sh, d, row, idx, cur, inc] {
                e.recycle(dead);
            }
        }
        // -------- phase 2: scan of the replicated table --------
        // Exclusive prefix over (digit-major, then slot) order; scalar
        // semantics, but charged as the vectorised two-sweep scan over
        // R*MVL elements the original algorithm performs.
        let mut offsets = vec![0u64; R * mvl];
        let mut acc = 0u64;
        for d in 0..R {
            for s in 0..mvl {
                offsets[d * mvl + s] = acc;
                acc += rep[d * mvl + s];
            }
        }
        let scan_strips = (R * mvl).div_ceil(mvl) as u64;
        for _ in 0..2 * scan_strips {
            // up-sweep + down-sweep passes: load + add + store per strip
            let v = e.splat(0);
            let w = e.add(&v, &v);
            let _ = e.reduce_sum(&w);
            e.recycle(v);
            e.recycle(w);
        }
        // -------- phase 3: permute --------
        for t in 0..chunk {
            let k = e.load_strided(&src, t, chunk);
            let sh = e.shr(&k, shift);
            let d = e.and(&sh, &dm);
            let row = e.shl(&d, mvl_shift);
            let idx = e.add(&row, &slots);
            let pos = e.gather(&offsets, &idx);
            e.scatter(&mut dst, &pos, &k);
            let next = e.add(&pos, &ones);
            e.scatter(&mut offsets, &idx, &next);
            e.scalar_ops(2);
            for dead in [k, sh, d, row, idx, pos, next] {
                e.recycle(dead);
            }
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src.truncate(n);
    *keys = src;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::testutil::*;
    use crate::sort::vsr::VsrSort;

    #[test]
    fn sorts_correctly() {
        for n in [3usize, 64, 65, 777, 4096] {
            let mut k = random_keys(n, n as u64);
            let mut want = k.clone();
            want.sort_unstable();
            VRadixSort.sort(EngineCfg::new(16, 2), &mut k);
            assert_eq!(k, want, "n={n}");
        }
    }

    #[test]
    fn handles_max_keys_with_padding() {
        // Padding uses u32::MAX; real MAX keys must still sort correctly.
        let mut k = vec![u32::MAX as u64; 100];
        k.extend(0..50u64);
        let mut want = k.clone();
        want.sort_unstable();
        VRadixSort.sort(EngineCfg::new(32, 1), &mut k);
        assert_eq!(k, want);
        assert_eq!(k.len(), 150);
    }

    #[test]
    fn slower_than_vsr_on_same_hardware() {
        let keys = random_keys(1 << 13, 21);
        let cfg = EngineCfg::new(64, 4);
        let mut k1 = keys.clone();
        let vsr = VsrSort.sort(cfg, &mut k1);
        let mut k2 = keys.clone();
        let vr = VRadixSort.sort(cfg, &mut k2);
        assert_eq!(k1, k2);
        assert!(
            vr as f64 > 1.3 * vsr as f64,
            "replicated bookkeeping + 8 passes must cost: vsr={vsr} vradix={vr}"
        );
    }

    #[test]
    fn no_vpi_vlu_needed() {
        let mut e = VectorEngine::new(EngineCfg::new(16, 1));
        let mut k = random_keys(512, 5);
        vradix_sort(&mut e, &mut k);
        assert_eq!(e.counts().vpi, 0);
        assert_eq!(e.counts().vlu, 0);
        assert!(e.counts().mem_indexed > 0);
    }
}
