//! The interpreted vector engine.
//!
//! Registers are value types ([`Vreg`], [`Mask`]) whose length equals the
//! current vector length; every operation charges the [`Timing`] model
//! and updates instruction counts.  The two paper instructions:
//!
//! * [`VectorEngine::vpi`] — *vector prior instances*: output element `i`
//!   is the number of `j < i` with `v[j] == v[i]`.
//! * [`VectorEngine::vlu`] — *vector last unique*: mask element `i` is
//!   true iff no `j > i` has `v[j] == v[i]`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::timing::{InstrClass, InstrCounts, Timing};

/// Which VPI/VLU hardware variant the engine models.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VpiImpl {
    /// Element-serial unit: `vl` cycles, lane-count independent.
    #[default]
    Serial,
    /// Lane-parallel unit with a conflict-resolution network.
    Parallel,
}

/// Engine configuration: the Fig. 3 sweep axes.
#[derive(Clone, Copy, Debug)]
pub struct EngineCfg {
    /// Maximum vector length in elements.
    pub mvl: usize,
    /// Parallel lockstepped lanes.
    pub lanes: usize,
    /// VPI/VLU hardware variant.
    pub vpi: VpiImpl,
    /// Timing constants.
    pub timing: Timing,
}

impl EngineCfg {
    pub fn new(mvl: usize, lanes: usize) -> Self {
        assert!(mvl >= 1 && lanes >= 1 && lanes <= mvl);
        EngineCfg {
            mvl,
            lanes,
            vpi: VpiImpl::Serial,
            timing: Timing::default(),
        }
    }

    pub fn with_vpi(mut self, vpi: VpiImpl) -> Self {
        self.vpi = vpi;
        self
    }
}

/// A vector register value (length = the vl at creation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Vreg(pub Vec<u64>);

impl Vreg {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn as_slice(&self) -> &[u64] {
        &self.0
    }
}

/// A mask register value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mask(pub Vec<bool>);

impl Mask {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of set bits.
    pub fn popcount(&self) -> usize {
        self.0.iter().filter(|&&b| b).count()
    }
}

/// Multiply-mix hasher for the VPI/VLU scratch map's `u64` element
/// values (radix digits, mostly): the values come from the simulated
/// program, not from outside, and SipHash cost more than the rest of the
/// instruction.
#[derive(Default)]
struct ElemHasher(u64);

impl Hasher for ElemHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the scratch map hashes exactly one u64");
    }

    fn write_u64(&mut self, x: u64) {
        let m = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = m ^ (m >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The engine: executes operations, accumulates cycles.
pub struct VectorEngine {
    cfg: EngineCfg,
    vl: usize,
    cycles: u64,
    counts: InstrCounts,
    /// Per-class cycle attribution (for the CPT breakdown table),
    /// indexed by `InstrClass as usize`.
    class_cycles: [u64; 9],
    /// Buffers of recycled registers, handed to the next results.
    free_regs: Vec<Vec<u64>>,
    free_masks: Vec<Vec<bool>>,
    /// VPI/VLU scratch: element value → instances so far / last index.
    /// Empty between instructions.
    seen: HashMap<u64, u64, BuildHasherDefault<ElemHasher>>,
}

impl VectorEngine {
    pub fn new(cfg: EngineCfg) -> Self {
        VectorEngine {
            vl: cfg.mvl,
            cfg,
            cycles: 0,
            counts: InstrCounts::default(),
            class_cycles: [0; 9],
            free_regs: Vec::new(),
            free_masks: Vec::new(),
            seen: HashMap::default(),
        }
    }

    fn charge(&mut self, class: InstrClass) {
        self.charge_spill(class, false);
    }

    fn charge_spill(&mut self, class: InstrClass, spill: bool) {
        let c = self.cfg.timing.cost(
            class,
            self.vl,
            self.cfg.lanes,
            self.cfg.vpi == VpiImpl::Parallel,
            spill,
        );
        self.cycles += c;
        self.counts.bump(class);
        self.class_cycles[class as usize] += c;
    }

    /// Does a table of `len` u64 elements spill the engine-local buffer?
    fn spills(&self, len: usize) -> bool {
        len * 8 > self.cfg.timing.spill_bytes
    }

    /// Charge `n` scalar bookkeeping instructions.
    pub fn scalar_ops(&mut self, n: u64) {
        let c = n * self.cfg.timing.scalar_op;
        self.cycles += c;
        self.counts.scalar += n;
        self.class_cycles[InstrClass::Scalar as usize] += c;
    }

    /// Set the vector length (clamped to MVL); returns the value set.
    pub fn set_vl(&mut self, n: usize) -> usize {
        self.vl = n.min(self.cfg.mvl).max(1);
        self.vl
    }

    pub fn vl(&self) -> usize {
        self.vl
    }

    pub fn mvl(&self) -> usize {
        self.cfg.mvl
    }

    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    pub fn counts(&self) -> InstrCounts {
        self.counts
    }

    /// Cycles attributed to one instruction class.
    pub fn class_cycles(&self, class: InstrClass) -> u64 {
        self.class_cycles[class as usize]
    }

    pub fn reset(&mut self) {
        self.cycles = 0;
        self.counts = InstrCounts::default();
        self.class_cycles = [0; 9];
        self.vl = self.cfg.mvl;
    }

    fn assert_vl(&self, r: usize) {
        assert_eq!(r, self.vl, "register length must equal the current vl");
    }

    // ---- register buffers ----

    /// Hand a dead register's buffer back: a later result reuses it
    /// instead of allocating. Only host memory is recycled — nothing is
    /// charged, and a result never depends on what the buffer held.
    pub fn recycle(&mut self, v: Vreg) {
        self.free_regs.push(v.0);
    }

    /// [`VectorEngine::recycle`] for a mask register.
    pub fn recycle_mask(&mut self, m: Mask) {
        self.free_masks.push(m.0);
    }

    /// A result register holding `elems`, in a recycled buffer if any.
    fn reg(&mut self, elems: impl Iterator<Item = u64>) -> Vreg {
        let mut buf = self.free_regs.pop().unwrap_or_default();
        buf.clear();
        buf.extend(elems);
        Vreg(buf)
    }

    /// A result mask holding `bits`, in a recycled buffer if any.
    fn mask(&mut self, bits: impl Iterator<Item = bool>) -> Mask {
        let mut buf = self.free_masks.pop().unwrap_or_default();
        buf.clear();
        buf.extend(bits);
        Mask(buf)
    }

    // ---- memory ----

    /// Unit-stride load of the current vl elements from `src`.
    pub fn load(&mut self, src: &[u64]) -> Vreg {
        assert!(src.len() >= self.vl, "load source shorter than vl");
        self.charge(InstrClass::MemUnit);
        self.reg(src[..self.vl].iter().copied())
    }

    /// Unit-stride store of `v` into `dst`.
    pub fn store(&mut self, dst: &mut [u64], v: &Vreg) {
        self.assert_vl(v.len());
        assert!(dst.len() >= self.vl, "store destination shorter than vl");
        self.charge(InstrClass::MemUnit);
        dst[..self.vl].copy_from_slice(&v.0);
    }

    /// Constant-stride load: `out[i] = src[start + i*stride]`.
    pub fn load_strided(&mut self, src: &[u64], start: usize, stride: usize) -> Vreg {
        assert!(stride >= 1 && start + (self.vl - 1) * stride < src.len());
        self.charge(InstrClass::MemUnit);
        self.reg((0..self.vl).map(|i| src[start + i * stride]))
    }

    /// Constant-stride store: `dst[start + i*stride] = v[i]`.
    pub fn store_strided(&mut self, dst: &mut [u64], start: usize, stride: usize, v: &Vreg) {
        self.assert_vl(v.len());
        assert!(stride >= 1 && start + (self.vl - 1) * stride < dst.len());
        self.charge(InstrClass::MemUnit);
        for (i, &x) in v.0.iter().enumerate() {
            dst[start + i * stride] = x;
        }
    }

    /// Indexed gather: `out[i] = table[idx[i]]`.
    pub fn gather(&mut self, table: &[u64], idx: &Vreg) -> Vreg {
        self.assert_vl(idx.len());
        self.charge_spill(InstrClass::MemIndexed, self.spills(table.len()));
        self.reg(idx.0.iter().map(|&i| table[i as usize]))
    }

    /// Indexed scatter: `table[idx[i]] = vals[i]`. Overlapping indices
    /// write in element order (highest index wins), matching a
    /// sequentially-consistent scatter.
    pub fn scatter(&mut self, table: &mut [u64], idx: &Vreg, vals: &Vreg) {
        self.assert_vl(idx.len());
        self.assert_vl(vals.len());
        self.charge_spill(InstrClass::MemIndexed, self.spills(table.len()));
        for (&i, &v) in idx.0.iter().zip(&vals.0) {
            table[i as usize] = v;
        }
    }

    /// Masked scatter: only elements with a set mask bit write.
    pub fn scatter_masked(&mut self, table: &mut [u64], idx: &Vreg, vals: &Vreg, mask: &Mask) {
        self.assert_vl(idx.len());
        self.assert_vl(mask.len());
        self.charge_spill(InstrClass::MemIndexed, self.spills(table.len()));
        for ((&i, &v), &m) in idx.0.iter().zip(&vals.0).zip(&mask.0) {
            if m {
                table[i as usize] = v;
            }
        }
    }

    // ---- element-wise ----

    /// Broadcast a scalar.
    pub fn splat(&mut self, x: u64) -> Vreg {
        self.charge(InstrClass::Arith);
        self.reg(std::iter::repeat_n(x, self.vl))
    }

    /// `0, 1, 2, …, vl-1`.
    pub fn iota(&mut self) -> Vreg {
        self.charge(InstrClass::Arith);
        self.reg(0..self.vl as u64)
    }

    fn binop(&mut self, a: &Vreg, b: &Vreg, f: impl Fn(u64, u64) -> u64) -> Vreg {
        self.assert_vl(a.len());
        self.assert_vl(b.len());
        self.charge(InstrClass::Arith);
        self.reg(a.0.iter().zip(&b.0).map(|(&x, &y)| f(x, y)))
    }

    pub fn add(&mut self, a: &Vreg, b: &Vreg) -> Vreg {
        self.binop(a, b, |x, y| x.wrapping_add(y))
    }

    pub fn sub(&mut self, a: &Vreg, b: &Vreg) -> Vreg {
        self.binop(a, b, |x, y| x.wrapping_sub(y))
    }

    pub fn and(&mut self, a: &Vreg, b: &Vreg) -> Vreg {
        self.binop(a, b, |x, y| x & y)
    }

    /// Logical shift right; shifts ≥ 64 yield 0 (well-defined, unlike
    /// the host's UB-adjacent semantics).
    pub fn shr(&mut self, a: &Vreg, shift: u32) -> Vreg {
        self.charge(InstrClass::Arith);
        self.reg(a.0.iter().map(|&x| x.checked_shr(shift).unwrap_or(0)))
    }

    /// Logical shift left; shifts ≥ 64 yield 0.
    pub fn shl(&mut self, a: &Vreg, shift: u32) -> Vreg {
        self.charge(InstrClass::Arith);
        self.reg(a.0.iter().map(|&x| x.checked_shl(shift).unwrap_or(0)))
    }

    pub fn min(&mut self, a: &Vreg, b: &Vreg) -> Vreg {
        self.binop(a, b, |x, y| x.min(y))
    }

    pub fn max(&mut self, a: &Vreg, b: &Vreg) -> Vreg {
        self.binop(a, b, |x, y| x.max(y))
    }

    /// `mask[i] = a[i] < b[i]`.
    pub fn cmp_lt(&mut self, a: &Vreg, b: &Vreg) -> Mask {
        self.assert_vl(a.len());
        self.assert_vl(b.len());
        self.charge(InstrClass::Arith);
        self.mask(a.0.iter().zip(&b.0).map(|(&x, &y)| x < y))
    }

    /// Select `a` where mask set, else `b`.
    pub fn merge(&mut self, a: &Vreg, b: &Vreg, mask: &Mask) -> Vreg {
        self.assert_vl(a.len());
        self.assert_vl(mask.len());
        self.charge(InstrClass::Arith);
        let picks = a.0.iter().zip(&b.0).zip(&mask.0);
        self.reg(picks.map(|((&x, &y), &m)| if m { x } else { y }))
    }

    /// Invert a mask.
    pub fn mask_not(&mut self, m: &Mask) -> Mask {
        self.assert_vl(m.len());
        self.charge(InstrClass::MaskOp);
        self.mask(m.0.iter().map(|&b| !b))
    }

    /// Population count of a mask (scalar result).
    pub fn mask_popcount(&mut self, m: &Mask) -> u64 {
        self.assert_vl(m.len());
        self.charge(InstrClass::MaskOp);
        m.popcount() as u64
    }

    /// Compress the elements with set mask bits to the front; returns the
    /// packed register (logical length = popcount, padded with zeros to
    /// vl) and the element count.
    pub fn compress(&mut self, v: &Vreg, mask: &Mask) -> (Vreg, usize) {
        self.assert_vl(v.len());
        self.assert_vl(mask.len());
        self.charge(InstrClass::Compress);
        let kept = v.0.iter().zip(&mask.0).filter(|&(_, &m)| m);
        let mut out = self.reg(kept.map(|(&x, _)| x));
        let n = out.len();
        out.0.resize(self.vl, 0);
        (out, n)
    }

    /// Sum-reduce to a scalar.
    pub fn reduce_sum(&mut self, v: &Vreg) -> u64 {
        self.assert_vl(v.len());
        self.charge(InstrClass::Reduce);
        v.0.iter().copied().fold(0u64, u64::wrapping_add)
    }

    /// Max-reduce to a scalar.
    pub fn reduce_max(&mut self, v: &Vreg) -> u64 {
        self.assert_vl(v.len());
        self.charge(InstrClass::Reduce);
        v.0.iter().copied().max().unwrap_or(0)
    }

    // ---- the paper's instructions ----

    /// **Vector Prior Instances**: `out[i] = |{ j < i : v[j] == v[i] }|`.
    pub fn vpi(&mut self, v: &Vreg) -> Vreg {
        self.assert_vl(v.len());
        self.charge(InstrClass::Vpi);
        let mut seen = std::mem::take(&mut self.seen);
        let out = self.reg(v.0.iter().map(|&x| {
            let c = seen.entry(x).or_insert(0);
            *c += 1;
            *c - 1
        }));
        seen.clear();
        self.seen = seen;
        out
    }

    /// **Vector Last Unique**: `mask[i] = (∄ j > i : v[j] == v[i])`.
    pub fn vlu(&mut self, v: &Vreg) -> Mask {
        self.assert_vl(v.len());
        self.charge(InstrClass::Vlu);
        let mut last = std::mem::take(&mut self.seen);
        for (i, &x) in v.0.iter().enumerate() {
            last.insert(x, i as u64);
        }
        let out = self.mask(v.0.iter().enumerate().map(|(i, &x)| last[&x] == i as u64));
        last.clear();
        self.seen = last;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eng(mvl: usize, lanes: usize) -> VectorEngine {
        VectorEngine::new(EngineCfg::new(mvl, lanes))
    }

    #[test]
    fn vpi_semantics_match_paper_definition() {
        let mut e = eng(8, 1);
        e.set_vl(8);
        let v = Vreg(vec![3, 1, 3, 3, 1, 7, 3, 1]);
        let p = e.vpi(&v);
        assert_eq!(p.0, vec![0, 0, 1, 2, 1, 0, 3, 2]);
    }

    #[test]
    fn vlu_marks_last_instances() {
        let mut e = eng(8, 1);
        e.set_vl(8);
        let v = Vreg(vec![3, 1, 3, 3, 1, 7, 3, 1]);
        let m = e.vlu(&v);
        assert_eq!(
            m.0,
            vec![false, false, false, false, false, true, true, true]
        );
        assert_eq!(m.popcount(), 3, "three distinct values");
    }

    #[test]
    fn vpi_of_distinct_values_is_zero() {
        let mut e = eng(4, 2);
        e.set_vl(4);
        let p = e.vpi(&Vreg(vec![9, 8, 7, 6]));
        assert_eq!(p.0, vec![0, 0, 0, 0]);
        let m = e.vlu(&Vreg(vec![9, 8, 7, 6]));
        assert!(m.0.iter().all(|&b| b));
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let mut e = eng(4, 1);
        e.set_vl(4);
        let mut table = vec![0u64; 16];
        let idx = Vreg(vec![3, 1, 15, 7]);
        let vals = Vreg(vec![30, 10, 150, 70]);
        e.scatter(&mut table, &idx, &vals);
        let got = e.gather(&table, &idx);
        assert_eq!(got.0, vals.0);
    }

    #[test]
    fn masked_scatter_skips_clear_bits() {
        let mut e = eng(4, 1);
        e.set_vl(4);
        let mut table = vec![0u64; 8];
        e.scatter_masked(
            &mut table,
            &Vreg(vec![0, 1, 2, 3]),
            &Vreg(vec![5, 6, 7, 8]),
            &Mask(vec![true, false, true, false]),
        );
        assert_eq!(&table[..4], &[5, 0, 7, 0]);
    }

    #[test]
    fn compress_packs_and_counts() {
        let mut e = eng(8, 1);
        e.set_vl(8);
        let v = Vreg(vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let m = Mask(vec![true, false, true, false, true, false, false, true]);
        let (packed, n) = e.compress(&v, &m);
        assert_eq!(n, 4);
        assert_eq!(&packed.0[..4], &[1, 3, 5, 8]);
    }

    #[test]
    fn cycles_accumulate_per_timing_model() {
        let mut e = eng(64, 1);
        e.set_vl(64);
        let a = e.splat(1); // chained ALU: startup only
        let b = e.splat(2);
        let _ = e.add(&a, &b);
        assert_eq!(e.cycles(), 3 * 2, "ALU ops chain: startup only");
        assert_eq!(e.counts().arith, 3);
        let src = vec![0u64; 64];
        let _ = e.load(&src); // memory pays per element: 2 + 64
        assert_eq!(e.cycles(), 6 + 66);
        e.reset();
        assert_eq!(e.cycles(), 0);
    }

    #[test]
    fn serial_vpi_slower_than_parallel() {
        let run = |vpi| {
            let mut e = VectorEngine::new(EngineCfg::new(64, 4).with_vpi(vpi));
            e.set_vl(64);
            let v = e.iota();
            let _ = e.vpi(&v);
            e.cycles()
        };
        assert!(run(VpiImpl::Serial) > run(VpiImpl::Parallel));
    }

    #[test]
    fn set_vl_clamps_to_mvl() {
        let mut e = eng(16, 2);
        assert_eq!(e.set_vl(100), 16);
        assert_eq!(e.set_vl(5), 5);
        assert_eq!(e.set_vl(0), 1);
    }

    #[test]
    #[should_panic(expected = "register length must equal")]
    fn stale_register_rejected() {
        let mut e = eng(8, 1);
        e.set_vl(8);
        let v = e.iota();
        e.set_vl(4);
        let _ = e.vpi(&v); // vl mismatch
    }

    #[test]
    fn scalar_ops_charge_scalar_cycles() {
        let mut e = eng(8, 1);
        e.scalar_ops(10);
        assert_eq!(e.cycles(), 10);
        assert_eq!(e.counts().scalar, 10);
    }

    #[test]
    fn merge_selects_by_mask() {
        let mut e = eng(4, 1);
        e.set_vl(4);
        let a = Vreg(vec![1, 2, 3, 4]);
        let b = Vreg(vec![9, 9, 9, 9]);
        let m = Mask(vec![true, false, false, true]);
        assert_eq!(e.merge(&a, &b, &m).0, vec![1, 9, 9, 4]);
    }

    #[test]
    fn oversized_shifts_are_zero() {
        let mut e = eng(4, 1);
        e.set_vl(4);
        let v = Vreg(vec![u64::MAX; 4]);
        assert_eq!(e.shr(&v, 64).0, vec![0; 4]);
        assert_eq!(e.shl(&v, 100).0, vec![0; 4]);
        assert_eq!(e.shr(&v, 63).0, vec![1; 4]);
    }

    #[test]
    fn reduce_ops() {
        let mut e = eng(4, 4);
        e.set_vl(4);
        let v = Vreg(vec![5, 2, 9, 1]);
        assert_eq!(e.reduce_sum(&v), 17);
        assert_eq!(e.reduce_max(&v), 9);
    }
}
