//! The sorting algorithms of the Fig. 3 comparison.
//!
//! Every vectorised sort executes *through the engine* (so cycle counts
//! come from the timing model) and really sorts its input; the scalar
//! baselines count their own operations against an in-order core model.

pub mod bitonic;
pub mod scalar;
pub mod vquick;
pub mod vradix;
pub mod vsr;

use crate::engine::{EngineCfg, VectorEngine};

/// A sorting algorithm measured in cycles.
pub trait Sorter {
    /// Display name ("vsr", "vquick", ...).
    fn name(&self) -> &'static str;

    /// Sort `keys` ascending and return the simulated cycle count.
    fn sort(&self, cfg: EngineCfg, keys: &mut Vec<u64>) -> u64;

    /// True for algorithms that use the vector engine (false for scalar
    /// baselines, which ignore the engine configuration).
    fn is_vector(&self) -> bool {
        true
    }
}

/// Cycles per tuple: the paper's figure-of-merit for Fig. 3.
pub fn cycles_per_tuple(cycles: u64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        cycles as f64 / n as f64
    }
}

/// All sorters in the Fig. 3 comparison: VSR, the three vectorised
/// baselines, and the two scalar baselines.
pub fn all_sorters() -> Vec<Box<dyn Sorter>> {
    vec![
        Box::new(vsr::VsrSort),
        Box::new(vradix::VRadixSort),
        Box::new(bitonic::BitonicSort),
        Box::new(vquick::VQuickSort),
        Box::new(scalar::ScalarQuicksort),
        Box::new(scalar::ScalarRadix),
    ]
}

/// Run a vector sort body with a fresh engine and return the cycle
/// count (convenience for callers measuring ad-hoc kernels).
pub fn with_engine(cfg: EngineCfg, f: impl FnOnce(&mut VectorEngine)) -> u64 {
    let mut e = VectorEngine::new(cfg);
    f(&mut e);
    e.cycles()
}

#[cfg(test)]
pub(crate) mod testutil {
    use rand::prelude::*;

    /// Deterministic random 32-bit keys widened to u64.
    pub fn random_keys(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen::<u32>() as u64).collect()
    }

    /// Keys with heavy duplication (stress for VPI/VLU paths).
    pub fn dup_keys(n: usize, distinct: u64, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..distinct)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;

    #[test]
    fn all_sorters_sort_random_input() {
        for s in all_sorters() {
            for &n in &[0usize, 1, 2, 7, 64, 257, 1000] {
                let mut keys = random_keys(n, 42);
                let mut want = keys.clone();
                want.sort_unstable();
                let cycles = s.sort(EngineCfg::new(16, 2), &mut keys);
                assert_eq!(keys, want, "{} failed on n={}", s.name(), n);
                if n > 1 {
                    assert!(cycles > 0, "{} reported zero cycles", s.name());
                }
            }
        }
    }

    #[test]
    fn all_sorters_handle_duplicates() {
        for s in all_sorters() {
            let mut keys = dup_keys(500, 7, 1);
            let mut want = keys.clone();
            want.sort_unstable();
            s.sort(EngineCfg::new(32, 4), &mut keys);
            assert_eq!(keys, want, "{} failed on duplicate-heavy input", s.name());
        }
    }

    #[test]
    fn all_sorters_handle_presorted_and_reverse() {
        for s in all_sorters() {
            let mut asc: Vec<u64> = (0..300).collect();
            let want = asc.clone();
            s.sort(EngineCfg::new(16, 1), &mut asc);
            assert_eq!(asc, want, "{} broke sorted input", s.name());

            let mut desc: Vec<u64> = (0..300).rev().collect();
            s.sort(EngineCfg::new(16, 1), &mut desc);
            assert_eq!(desc, want, "{} failed reverse input", s.name());
        }
    }

    #[test]
    fn vsr_is_fastest_vector_sort_at_scale() {
        let cfg = EngineCfg::new(64, 4);
        let keys = random_keys(1 << 14, 3);
        let mut best: Option<(&'static str, u64)> = None;
        let mut vsr_cycles = 0;
        for s in all_sorters().iter().filter(|s| s.is_vector()) {
            let mut k = keys.clone();
            let c = s.sort(cfg, &mut k);
            if s.name() == "vsr" {
                vsr_cycles = c;
            }
            if best.is_none() || c < best.unwrap().1 {
                best = Some((s.name(), c));
            }
        }
        assert_eq!(
            best.unwrap().0,
            "vsr",
            "VSR must be the fastest vector sort ({best:?})"
        );
        assert!(vsr_cycles > 0);
    }

    #[test]
    fn vsr_beats_scalar_by_large_factor() {
        let n = 1 << 14;
        let keys = random_keys(n, 9);
        let mut k1 = keys.clone();
        let vsr = vsr::VsrSort.sort(EngineCfg::new(64, 1), &mut k1);
        let mut k2 = keys.clone();
        let sq = scalar::ScalarQuicksort.sort(EngineCfg::new(64, 1), &mut k2);
        let speedup = sq as f64 / vsr as f64;
        assert!(
            speedup > 5.0,
            "single-lane VSR should be >5x over scalar, got {speedup:.1}"
        );
    }

    #[test]
    fn vsr_cpt_is_flat_in_n() {
        // The paper's O(k·n) claim: CPT constant as input grows.
        let cfg = EngineCfg::new(64, 2);
        let cpt = |n: usize| {
            let mut k = random_keys(n, 5);
            cycles_per_tuple(vsr::VsrSort.sort(cfg, &mut k), n)
        };
        let small = cpt(1 << 12);
        let large = cpt(1 << 16);
        assert!(
            (large - small).abs() / small < 0.05,
            "CPT must be flat: {small:.1} vs {large:.1}"
        );
    }

    #[test]
    fn scalar_quicksort_cpt_grows_with_n() {
        let cpt = |n: usize| {
            let mut k = random_keys(n, 5);
            cycles_per_tuple(
                scalar::ScalarQuicksort.sort(EngineCfg::new(8, 1), &mut k),
                n,
            )
        };
        assert!(cpt(1 << 14) > cpt(1 << 10) * 1.15);
    }

    #[test]
    fn more_lanes_speed_up_vsr() {
        let keys = random_keys(1 << 13, 8);
        let run = |lanes| {
            let mut k = keys.clone();
            vsr::VsrSort.sort(EngineCfg::new(64, lanes), &mut k)
        };
        let l1 = run(1);
        let l2 = run(2);
        let l4 = run(4);
        assert!(l1 > l2 && l2 > l4, "lanes must help: {l1} {l2} {l4}");
    }

    #[test]
    fn longer_mvl_speeds_up_vsr() {
        let keys = random_keys(1 << 13, 8);
        let run = |mvl| {
            let mut k = keys.clone();
            vsr::VsrSort.sort(EngineCfg::new(mvl, 1), &mut k)
        };
        let m8 = run(8);
        let m64 = run(64);
        assert!(m8 > m64, "MVL amortises startup: {m8} vs {m64}");
    }
    /// Seeded 32-bit keys drawn from splitmix64 rather than `rand` (the
    /// offline stub and the published crate draw different sequences, and
    /// vquick's and the scalar quicksort's cycles depend on the keys).
    fn pinned_keys(n: usize) -> Vec<u64> {
        let mut z = 7u64;
        (0..n)
            .map(|_| {
                z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut x = z;
                x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (x ^ (x >> 31)) >> 32
            })
            .collect()
    }

    type EngineSort = fn(&mut VectorEngine, &mut Vec<u64>);

    /// The engine's accounting — cycles and instruction counts of every
    /// sorter on 4,096 seeded keys — recorded from the commit before the
    /// array attribution, the register free list and the scratch map.
    #[test]
    fn engine_accounting_is_pinned() {
        use crate::timing::{InstrClass, InstrCounts};
        const CLASSES: [InstrClass; 9] = [
            InstrClass::Arith,
            InstrClass::MaskOp,
            InstrClass::MemUnit,
            InstrClass::MemIndexed,
            InstrClass::Compress,
            InstrClass::Reduce,
            InstrClass::Vpi,
            InstrClass::Vlu,
            InstrClass::Scalar,
        ];
        let vector: [(&str, EngineSort); 4] = [
            ("vsr", vsr::vsr_sort),
            ("vradix", vradix::vradix_sort),
            ("bitonic", bitonic::bitonic_sort),
            ("vquick", |e, k| vquick::vquick_sort(e, k)),
        ];
        // (cycles, [arith, mask_op, mem_unit, mem_indexed, compress,
        // reduce, vpi, vlu, scalar]) per sorter, at (64, 4) then (16, 2).
        #[rustfmt::skip]
        let pinned: [[(u64, [u64; 9]); 4]; 2] = [
            [
                (115_232, [2064, 0, 512, 1280, 0, 0, 512, 512, 3072]),
                (164_912, [5656, 0, 1024, 2560, 0, 256, 0, 0, 2048]),
                (891_712, [90_816, 0, 181_632, 0, 0, 0, 0, 0, 90_816]),
                (174_709, [1299, 433, 1447, 0, 1299, 0, 0, 0, 116_584]),
            ],
            [
                (184_352, [8208, 0, 2048, 5120, 0, 0, 2048, 2048, 6144]),
                (229_168, [21_016, 0, 4096, 10_240, 0, 256, 0, 0, 8192]),
                (1_038_848, [95_744, 0, 191_488, 0, 0, 0, 0, 0, 95_744]),
                (231_456, [6801, 2267, 7331, 0, 6801, 0, 0, 0, 53_796]),
            ],
        ];
        // The scalar baselines ignore the engine configuration.
        let scalar = [1_230_347u64, 559_104];
        let counts = |c: [u64; 9]| InstrCounts {
            arith: c[0],
            mask_op: c[1],
            mem_unit: c[2],
            mem_indexed: c[3],
            compress: c[4],
            reduce: c[5],
            vpi: c[6],
            vlu: c[7],
            scalar: c[8],
        };
        let keys = pinned_keys(1 << 12);
        for (c, cfg) in [EngineCfg::new(64, 4), EngineCfg::new(16, 2)]
            .into_iter()
            .enumerate()
        {
            let mut e = VectorEngine::new(cfg);
            for (s, (name, sort)) in vector.iter().enumerate() {
                e.reset();
                let mut k = keys.clone();
                sort(&mut e, &mut k);
                let first = (e.cycles(), e.counts());
                let (cycles, by_count) = pinned[c][s];
                assert_eq!(first, (cycles, counts(by_count)), "{name} at {cfg:?}");
                let by_class: u64 = CLASSES.iter().map(|&cl| e.class_cycles(cl)).sum();
                assert_eq!(by_class, e.cycles(), "{name}: class cycles must add up");
                // Same engine again: the free list and the scratch map
                // carry no state from one sort into the next.
                e.reset();
                let mut k = keys.clone();
                sort(&mut e, &mut k);
                assert_eq!((e.cycles(), e.counts()), first, "{name} on a reused engine");
            }
            let quick = scalar::ScalarQuicksort.sort(cfg, &mut keys.clone());
            let radix = scalar::ScalarRadix.sort(cfg, &mut keys.clone());
            assert_eq!([quick, radix], scalar, "scalar baselines at {cfg:?}");
        }
    }
}
