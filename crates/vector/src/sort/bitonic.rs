//! Vectorised bitonic mergesort.
//!
//! The textbook data-parallel sort: a fixed O(n log² n) network of
//! compare-exchange stages, each perfectly vectorisable with unit-stride
//! loads (partner distance is constant within a block).  Great lane
//! utilisation, but the asymptotic factor loses to radix sorts at scale —
//! which is exactly its role in the Fig. 3 comparison.

use crate::engine::{EngineCfg, VectorEngine};
use crate::sort::Sorter;

/// The bitonic sorter.
pub struct BitonicSort;

impl Sorter for BitonicSort {
    fn name(&self) -> &'static str {
        "bitonic"
    }

    fn sort(&self, cfg: EngineCfg, keys: &mut Vec<u64>) -> u64 {
        let mut e = VectorEngine::new(cfg);
        bitonic_sort(&mut e, keys);
        e.cycles()
    }
}

/// Sort through the engine.
pub fn bitonic_sort(e: &mut VectorEngine, keys: &mut Vec<u64>) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    // Pad to a power of two with MAX sentinels (truncated afterwards).
    let padded = n.next_power_of_two();
    let mut a = std::mem::take(keys);
    a.resize(padded, u64::MAX);

    let mut k = 2usize;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            // Pairs (i, i+j) for every i with bit j clear; direction
            // (ascending iff bit k of i is clear) is constant within each
            // 2j-aligned block when j < k, and within k-blocks otherwise.
            let mut base = 0usize;
            while base < padded {
                let ascending = base & k == 0;
                // Compare-exchange the run [base, base+j) against
                // [base+j, base+2j) in vl-sized strips.
                let mut t = 0usize;
                while t < j {
                    let vl = e.set_vl(j - t);
                    let lo = base + t;
                    let hi = base + j + t;
                    let x = e.load(&a[lo..]);
                    let y = e.load(&a[hi..]);
                    let mn = e.min(&x, &y);
                    let mx = e.max(&x, &y);
                    let (first, second) = if ascending { (mn, mx) } else { (mx, mn) };
                    e.store(&mut a[lo..], &first);
                    e.store(&mut a[hi..], &second);
                    e.scalar_ops(2);
                    for dead in [x, y, first, second] {
                        e.recycle(dead);
                    }
                    t += vl;
                }
                base += 2 * j;
            }
            j /= 2;
        }
        k *= 2;
    }
    a.truncate(n);
    *keys = a;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::testutil::*;

    #[test]
    fn sorts_power_of_two_and_ragged() {
        for n in [2usize, 4, 16, 100, 255, 1024] {
            let mut k = random_keys(n, n as u64 + 1);
            let mut want = k.clone();
            want.sort_unstable();
            BitonicSort.sort(EngineCfg::new(16, 2), &mut k);
            assert_eq!(k, want, "n={n}");
        }
    }

    #[test]
    fn network_cost_matches_n_log2_squared() {
        // Cycles should scale ~ n·log²n: quadrupling n from 1k to 4k
        // raises log² from 100 to 144, i.e. ~5.76x cycles.
        let run = |n: usize| {
            let mut k = random_keys(n, 7);
            BitonicSort.sort(EngineCfg::new(64, 1), &mut k) as f64
        };
        let c1 = run(1 << 10);
        let c2 = run(1 << 12);
        let ratio = c2 / c1;
        assert!(
            (4.0..8.0).contains(&ratio),
            "expected ~5.8x growth, got {ratio:.2}"
        );
    }

    #[test]
    fn uses_only_unit_stride_memory() {
        let mut e = VectorEngine::new(EngineCfg::new(16, 1));
        let mut k = random_keys(256, 3);
        bitonic_sort(&mut e, &mut k);
        let c = e.counts();
        assert!(c.mem_unit > 0);
        assert_eq!(c.mem_indexed, 0, "bitonic never gathers");
        assert_eq!(c.vpi, 0);
    }

    #[test]
    fn max_sentinel_padding_safe_with_real_max_keys() {
        let mut k = vec![u64::from(u32::MAX), 3, u64::from(u32::MAX), 1, 2];
        let mut want = k.clone();
        want.sort_unstable();
        BitonicSort.sort(EngineCfg::new(8, 1), &mut k);
        assert_eq!(k, want);
    }
}
