//! VSR sort — the paper's vectorised radix sort (Hayes et al., HPCA'15).
//!
//! LSD radix with 8-bit digits.  Each pass runs two vectorised phases
//! over the keys:
//!
//! 1. **histogram** — gather current bucket counts, add each element's
//!    *prior instances* (VPI) + 1, and write back only the *last unique*
//!    (VLU) lane of each digit, resolving all intra-register conflicts in
//!    two instructions;
//! 2. **permute** — gather bucket offsets, add VPI for stable unique
//!    positions, scatter the keys, and bump the offsets at the VLU lanes.
//!
//! Unlike the classic vectorised radix sort, no bookkeeping is
//! replicated per vector element, so the full 256-bucket digit fits and
//! only ⌈32/8⌉ = 4 passes are needed — the `k` in the paper's O(k·n).

use crate::engine::{EngineCfg, VectorEngine};
use crate::sort::Sorter;

/// Radix bits per pass.
const RBITS: u32 = 8;
/// Buckets per pass.
const R: usize = 1 << RBITS;
/// Passes for 32-bit keys.
const PASSES: u32 = 4;

/// The VSR sorter.
pub struct VsrSort;

impl Sorter for VsrSort {
    fn name(&self) -> &'static str {
        "vsr"
    }

    fn sort(&self, cfg: EngineCfg, keys: &mut Vec<u64>) -> u64 {
        let mut e = VectorEngine::new(cfg);
        vsr_sort(&mut e, keys);
        e.cycles()
    }
}

/// Sort `keys` (32-bit values in u64 slots) through the engine:
/// 4 passes of 8-bit digits, histogram + permute per pass (see the
/// module docs). Delegates to the shared generic implementation.
pub fn vsr_sort(e: &mut VectorEngine, keys: &mut Vec<u64>) {
    debug_assert!(
        keys.iter().all(|&k| k <= u32::MAX as u64),
        "vsr_sort is configured for 32-bit key values; use vsr_sort_u64"
    );
    vsr_sort_generic(e, keys, None, PASSES);
}

/// VSR for full 64-bit key values: same algorithm, ⌈64/8⌉ = 8 passes.
/// The paper's O(k·n): doubling the key width doubles k, CPT scales
/// accordingly but stays flat in n.
pub fn vsr_sort_u64(e: &mut VectorEngine, keys: &mut Vec<u64>) {
    vsr_sort_generic(e, keys, None, 8);
}

/// VSR over (key, payload) tuples — the paper's "cycles per tuple"
/// actually sorts records: the permute phase moves the payload with its
/// key (one extra gather-free scatter per strip).
pub fn vsr_sort_pairs(e: &mut VectorEngine, keys: &mut Vec<u64>, payloads: &mut Vec<u64>) {
    assert_eq!(keys.len(), payloads.len());
    let mut p = std::mem::take(payloads);
    vsr_sort_generic(e, keys, Some(&mut p), PASSES);
    *payloads = p;
}

/// Shared implementation: LSD radix over `passes` 8-bit digits,
/// optionally carrying a payload array through the permutation.
fn vsr_sort_generic(
    e: &mut VectorEngine,
    keys: &mut Vec<u64>,
    mut payloads: Option<&mut Vec<u64>>,
    passes: u32,
) {
    let n = keys.len();
    if n <= 1 {
        return;
    }
    let mut src = std::mem::take(keys);
    let mut dst = vec![0u64; n];
    let (mut psrc, mut pdst) = match payloads.as_deref_mut() {
        Some(p) => (std::mem::take(p), vec![0u64; n]),
        None => (Vec::new(), Vec::new()),
    };
    for pass in 0..passes {
        let shift = pass * RBITS;
        let mut hist = vec![0u64; R];
        e.set_vl(e.mvl());
        let digit_mask = e.splat((R - 1) as u64);
        let ones = e.splat(1);
        let mut i = 0;
        while i < n {
            let vl = e.set_vl(n - i);
            // The last, shorter strip needs constants of its own length.
            let tail;
            let (dm, on) = if vl == digit_mask.len() {
                (&digit_mask, &ones)
            } else {
                tail = (e.splat((R - 1) as u64), e.splat(1));
                (&tail.0, &tail.1)
            };
            let k = e.load(&src[i..]);
            let sh = e.shr(&k, shift);
            let d = e.and(&sh, dm);
            let cur = e.gather(&hist, &d);
            let prior = e.vpi(&d);
            let sum = e.add(&cur, &prior);
            let newc = e.add(&sum, on);
            let last = e.vlu(&d);
            e.scatter_masked(&mut hist, &d, &newc, &last);
            e.scalar_ops(2);
            for dead in [k, sh, d, cur, prior, sum, newc] {
                e.recycle(dead);
            }
            e.recycle_mask(last);
            i += vl;
        }
        let mut offsets = vec![0u64; R];
        let mut acc = 0u64;
        for b in 0..R {
            offsets[b] = acc;
            acc += hist[b];
        }
        e.scalar_ops(2 * R as u64);
        e.set_vl(e.mvl());
        let digit_mask = e.splat((R - 1) as u64);
        let ones = e.splat(1);
        let mut i = 0;
        while i < n {
            let vl = e.set_vl(n - i);
            // The last, shorter strip needs constants of its own length.
            let tail;
            let (dm, on) = if vl == digit_mask.len() {
                (&digit_mask, &ones)
            } else {
                tail = (e.splat((R - 1) as u64), e.splat(1));
                (&tail.0, &tail.1)
            };
            let k = e.load(&src[i..]);
            let sh = e.shr(&k, shift);
            let d = e.and(&sh, dm);
            let base = e.gather(&offsets, &d);
            let prior = e.vpi(&d);
            let pos = e.add(&base, &prior);
            e.scatter(&mut dst, &pos, &k);
            if payloads.is_some() {
                let pv = e.load(&psrc[i..]);
                e.scatter(&mut pdst, &pos, &pv);
                e.recycle(pv);
            }
            let next = e.add(&pos, on);
            let last = e.vlu(&d);
            e.scatter_masked(&mut offsets, &d, &next, &last);
            e.scalar_ops(2);
            for dead in [k, sh, d, base, prior, pos, next] {
                e.recycle(dead);
            }
            e.recycle_mask(last);
            i += vl;
        }
        std::mem::swap(&mut src, &mut dst);
        if payloads.is_some() {
            std::mem::swap(&mut psrc, &mut pdst);
        }
    }
    if passes % 2 == 1 {
        // Odd pass counts leave the result in what is now `dst`'s slot.
        std::mem::swap(&mut src, &mut dst);
        std::mem::swap(&mut psrc, &mut pdst);
    }
    *keys = src;
    if let Some(p) = payloads {
        *p = psrc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sort::testutil::*;

    #[test]
    fn sorts_and_is_stable_radix() {
        let mut keys = random_keys(4096, 11);
        let mut want = keys.clone();
        want.sort_unstable();
        let c = VsrSort.sort(EngineCfg::new(32, 2), &mut keys);
        assert_eq!(keys, want);
        assert!(c > 0);
    }

    #[test]
    fn uses_vpi_and_vlu() {
        let cfg = EngineCfg::new(16, 1);
        let mut e = VectorEngine::new(cfg);
        let mut keys = random_keys(512, 2);
        vsr_sort(&mut e, &mut keys);
        let counts = e.counts();
        assert!(counts.vpi > 0, "VSR must use VPI");
        assert!(counts.vlu > 0, "VSR must use VLU");
        // Two VPIs per strip (histogram + permute), 32 strips, 4 passes.
        assert_eq!(counts.vpi, 2 * 32 * 4);
        assert_eq!(counts.vlu, counts.vpi);
    }

    #[test]
    fn single_element_and_empty() {
        let mut k: Vec<u64> = vec![];
        assert_eq!(VsrSort.sort(EngineCfg::new(8, 1), &mut k), 0);
        let mut k = vec![5u64];
        assert_eq!(VsrSort.sort(EngineCfg::new(8, 1), &mut k), 0);
        assert_eq!(k, vec![5]);
    }

    #[test]
    fn all_equal_keys() {
        let mut k = vec![77u64; 1000];
        VsrSort.sort(EngineCfg::new(64, 4), &mut k);
        assert!(k.iter().all(|&x| x == 77));
        assert_eq!(k.len(), 1000);
    }

    #[test]
    fn max_u32_keys() {
        let mut k = vec![u32::MAX as u64, 0, u32::MAX as u64, 1];
        VsrSort.sort(EngineCfg::new(8, 1), &mut k);
        assert_eq!(k, vec![0, 1, u32::MAX as u64, u32::MAX as u64]);
    }

    #[test]
    fn odd_sizes_with_partial_strips() {
        for n in [17, 63, 65, 129, 1001] {
            let mut k = dup_keys(n, 50, n as u64);
            let mut want = k.clone();
            want.sort_unstable();
            VsrSort.sort(EngineCfg::new(64, 4), &mut k);
            assert_eq!(k, want, "n={n}");
        }
    }

    #[test]
    fn u64_variant_sorts_full_width_keys() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(3);
        let mut keys: Vec<u64> = (0..2000).map(|_| rng.gen()).collect();
        let mut want = keys.clone();
        want.sort_unstable();
        let mut e = VectorEngine::new(EngineCfg::new(32, 2));
        vsr_sort_u64(&mut e, &mut keys);
        assert_eq!(keys, want);
    }

    #[test]
    fn u64_costs_about_twice_u32() {
        // O(k·n): 8 passes vs 4 passes.
        let keys32 = random_keys(4096, 5);
        let mut e32 = VectorEngine::new(EngineCfg::new(64, 2));
        let mut k = keys32.clone();
        vsr_sort(&mut e32, &mut k);
        let mut e64 = VectorEngine::new(EngineCfg::new(64, 2));
        let mut k = keys32.clone();
        vsr_sort_u64(&mut e64, &mut k);
        let ratio = e64.cycles() as f64 / e32.cycles() as f64;
        assert!(
            (1.8..2.2).contains(&ratio),
            "8 passes should cost ~2x 4 passes, got {ratio:.2}"
        );
    }

    #[test]
    fn pair_sort_carries_payloads() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(4);
        let n = 3000;
        let mut keys: Vec<u64> = (0..n).map(|_| rng.gen_range(0..500u64)).collect();
        // payload[i] = original index: after the stable sort, payloads of
        // equal keys must stay in input order.
        let mut payloads: Vec<u64> = (0..n as u64).collect();
        let reference: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> =
                keys.iter().copied().zip(payloads.iter().copied()).collect();
            v.sort_by_key(|&(k, _)| k); // std stable sort
            v
        };
        let mut e = VectorEngine::new(EngineCfg::new(64, 4));
        vsr_sort_pairs(&mut e, &mut keys, &mut payloads);
        let got: Vec<(u64, u64)> = keys.into_iter().zip(payloads).collect();
        assert_eq!(got, reference, "radix must be stable on tuples");
    }

    #[test]
    fn pair_sort_costs_one_extra_stream() {
        let base = random_keys(4096, 6);
        let mut e1 = VectorEngine::new(EngineCfg::new(64, 2));
        let mut k = base.clone();
        vsr_sort(&mut e1, &mut k);
        let mut e2 = VectorEngine::new(EngineCfg::new(64, 2));
        let mut k = base.clone();
        let mut p: Vec<u64> = (0..4096).collect();
        vsr_sort_pairs(&mut e2, &mut k, &mut p);
        let ratio = e2.cycles() as f64 / e1.cycles() as f64;
        assert!(
            (1.1..1.6).contains(&ratio),
            "payload adds a load+scatter per strip, got {ratio:.2}x"
        );
    }

    #[test]
    fn serial_vs_parallel_vpi_hardware() {
        use crate::engine::VpiImpl;
        let keys = random_keys(4096, 4);
        let mut k1 = keys.clone();
        let serial = VsrSort.sort(EngineCfg::new(64, 4), &mut k1);
        let mut k2 = keys.clone();
        let parallel = VsrSort.sort(EngineCfg::new(64, 4).with_vpi(VpiImpl::Parallel), &mut k2);
        assert_eq!(k1, k2);
        assert!(
            parallel < serial,
            "parallel VPI hardware must help at 4 lanes: {parallel} vs {serial}"
        );
    }
}
