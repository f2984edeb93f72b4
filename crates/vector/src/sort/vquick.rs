//! Vectorised quicksort: compress-based three-way partitioning.
//!
//! Each partitioning pass streams the segment through the vector unit:
//! compare against the pivot, then *compress* the `<`, `=` and `>`
//! elements into packed buffers.  Small segments finish on the scalar
//! core.  O(n log n) with good vector utilisation, but it gathers no
//! benefit from VPI/VLU — the "very different vectorised sorting
//! algorithm" class of the Fig. 3 comparison.

use crate::engine::{EngineCfg, VectorEngine};
use crate::sort::Sorter;

/// Segments at or below this multiple of MVL are finished by the scalar
/// core (insertion-sort cost model).
const SCALAR_CUTOFF_MVLS: usize = 2;

/// The vectorised quicksorter.
pub struct VQuickSort;

impl Sorter for VQuickSort {
    fn name(&self) -> &'static str {
        "vquick"
    }

    fn sort(&self, cfg: EngineCfg, keys: &mut Vec<u64>) -> u64 {
        let mut e = VectorEngine::new(cfg);
        vquick_sort(&mut e, keys);
        e.cycles()
    }
}

/// Sort through the engine.
pub fn vquick_sort(e: &mut VectorEngine, keys: &mut [u64]) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let cutoff = (SCALAR_CUTOFF_MVLS * e.mvl()).max(8);
    let mut stack: Vec<(usize, usize)> = vec![(0, n)];
    let mut lt_buf: Vec<u64> = Vec::with_capacity(n);
    let mut eq_buf: Vec<u64> = Vec::with_capacity(n);
    let mut gt_buf: Vec<u64> = Vec::with_capacity(n);

    while let Some((lo, hi)) = stack.pop() {
        let len = hi - lo;
        if len <= 1 {
            continue;
        }
        if len <= cutoff {
            // Scalar insertion sort: ~4 ops per comparison/shift, n²/4
            // average comparisons for random data, capped by the cutoff.
            let seg = &mut keys[lo..hi];
            e.scalar_ops((len * len / 4 + 6 * len) as u64);
            seg.sort_unstable();
            continue;
        }
        // Median-of-three pivot on the scalar core.
        let a = keys[lo];
        let b = keys[lo + len / 2];
        let c = keys[hi - 1];
        let pivot = a.max(b).min(a.min(b).max(c));
        e.scalar_ops(8);

        lt_buf.clear();
        eq_buf.clear();
        gt_buf.clear();
        let mut i = lo;
        while i < hi {
            let vl = e.set_vl(hi - i);
            let k = e.load(&keys[i..]);
            let pv = e.splat(pivot);
            let lt = e.cmp_lt(&k, &pv);
            let gt = e.cmp_lt(&pv, &k);
            let (l, nl) = e.compress(&k, &lt);
            let (g, ng) = e.compress(&k, &gt);
            // eq = !(lt | gt): two mask ops + compress.
            let nlt = e.mask_not(&lt);
            let both =
                crate::engine::Mask(nlt.0.iter().zip(&gt.0).map(|(&a, &b)| a && !b).collect());
            e.scalar_ops(1);
            let (q, nq) = e.compress(&k, &both);
            lt_buf.extend_from_slice(&l.as_slice()[..nl]);
            gt_buf.extend_from_slice(&g.as_slice()[..ng]);
            eq_buf.extend_from_slice(&q.as_slice()[..nq]);
            // The packed stores back to the partition buffers.
            e.scalar_ops(2);
            for dead in [k, pv, l, g, q] {
                e.recycle(dead);
            }
            for dead in [lt, gt, nlt, both] {
                e.recycle_mask(dead);
            }
            i += vl;
        }
        // Unit-stride writeback of the three runs.
        let mut w = lo;
        for buf in [&lt_buf, &eq_buf, &gt_buf] {
            let mut t = 0;
            while t < buf.len() {
                let vl = e.set_vl(buf.len() - t);
                let v = e.load(&buf[t..]);
                e.store(&mut keys[w + t..], &v);
                e.recycle(v);
                t += vl;
            }
            w += buf.len();
        }
        let nl = lt_buf.len();
        let ng = gt_buf.len();
        if nl > 1 {
            stack.push((lo, lo + nl));
        }
        if ng > 1 {
            stack.push((hi - ng, hi));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::testutil::*;

    #[test]
    fn sorts_various_sizes() {
        for n in [2usize, 10, 100, 1000, 5000] {
            let mut k = random_keys(n, n as u64);
            let mut want = k.clone();
            want.sort_unstable();
            VQuickSort.sort(EngineCfg::new(16, 2), &mut k);
            assert_eq!(k, want, "n={n}");
        }
    }

    #[test]
    fn all_equal_terminates() {
        // Three-way partitioning: the equal run never recurses.
        let mut k = vec![42u64; 10_000];
        let c = VQuickSort.sort(EngineCfg::new(32, 2), &mut k);
        assert!(k.iter().all(|&x| x == 42));
        assert!(c > 0);
    }

    #[test]
    fn organ_pipe_input() {
        let mut k: Vec<u64> = (0..500).chain((0..500).rev()).collect();
        let mut want = k.clone();
        want.sort_unstable();
        VQuickSort.sort(EngineCfg::new(64, 4), &mut k);
        assert_eq!(k, want);
    }

    #[test]
    fn uses_compress_not_gather() {
        let mut e = VectorEngine::new(EngineCfg::new(16, 1));
        let mut k = random_keys(2048, 6);
        vquick_sort(&mut e, &mut k);
        let c = e.counts();
        assert!(c.compress > 0, "partitioning uses compress");
        assert_eq!(c.mem_indexed, 0);
        assert_eq!(c.vpi, 0);
    }
}
