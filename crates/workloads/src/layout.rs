//! Address-space layout for kernel arrays.
//!
//! Kernels declare their arrays once; the [`AddressSpace`] places them at
//! page-aligned base addresses.  Declarations carry the compiler's verdict
//! on whether the array is *SPM-mappable* (its accesses are strided and
//! can be tiled into the scratchpad) — the hybrid machine uses this to
//! program its SPM directory ranges.

/// Index of an array within an [`AddressSpace`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ArrayId(pub usize);

/// One placed array.
#[derive(Clone, Debug)]
pub struct ArrayDecl {
    pub id: ArrayId,
    pub name: String,
    /// Base byte address (page aligned).
    pub base: u64,
    /// Size in bytes.
    pub bytes: u64,
    /// True when the compiler maps this array's strided accesses to SPMs.
    pub spm_mapped: bool,
}

impl ArrayDecl {
    /// Byte address of element `i` with element size `esz`.
    pub fn elem(&self, i: u64, esz: u64) -> u64 {
        debug_assert!(
            (i + 1) * esz <= self.bytes,
            "{}[{}] out of bounds",
            self.name,
            i
        );
        self.base + i * esz
    }

    /// Does `addr` fall inside this array?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.bytes
    }
}

const PAGE: u64 = 4096;

/// A growing address space that places arrays at page-aligned bases,
/// starting above the zero page.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    arrays: Vec<ArrayDecl>,
    next_base: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace {
            arrays: Vec::new(),
            next_base: PAGE,
        }
    }

    /// Place an array of `bytes` bytes. Returns its declaration.
    pub fn alloc(&mut self, name: impl Into<String>, bytes: u64, spm_mapped: bool) -> ArrayId {
        let id = ArrayId(self.arrays.len());
        let base = self.next_base;
        let padded = bytes.div_ceil(PAGE) * PAGE;
        self.next_base += padded.max(PAGE);
        self.arrays.push(ArrayDecl {
            id,
            name: name.into(),
            base,
            bytes,
            spm_mapped,
        });
        id
    }

    pub fn get(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0]
    }

    pub fn arrays(&self) -> &[ArrayDecl] {
        &self.arrays
    }

    /// The SPM-mapped address ranges `(base, end)`, for programming the
    /// hybrid machine's SPM directory.
    pub fn spm_ranges(&self) -> Vec<(u64, u64)> {
        self.arrays
            .iter()
            .filter(|a| a.spm_mapped)
            .map(|a| (a.base, a.base + a.bytes))
            .collect()
    }

    /// Total footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.next_base - PAGE
    }

    /// Which array contains `addr`, if any.
    pub fn locate(&self, addr: u64) -> Option<&ArrayDecl> {
        self.arrays.iter().find(|a| a.contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_are_page_aligned_and_disjoint() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc("a", 100, true);
        let b = asp.alloc("b", 5000, false);
        let c = asp.alloc("c", 4096, true);
        let (a, b, c) = (asp.get(a).clone(), asp.get(b).clone(), asp.get(c).clone());
        for d in [&a, &b, &c] {
            assert_eq!(d.base % PAGE, 0, "{} not page aligned", d.name);
        }
        assert!(a.base + a.bytes <= b.base);
        assert!(b.base + b.bytes <= c.base);
        assert!(a.base >= PAGE, "zero page is never allocated");
    }

    #[test]
    fn elem_addressing() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc("x", 80, true);
        let d = asp.get(a);
        assert_eq!(d.elem(0, 8), d.base);
        assert_eq!(d.elem(9, 8), d.base + 72);
    }

    // The bounds check is a `debug_assert!` (it sits in every kernel's
    // trace generator), so there is nothing to observe in release.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn elem_bounds_checked_in_debug() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc("x", 80, true);
        let _ = asp.get(a).elem(10, 8);
    }

    #[test]
    fn spm_ranges_filters_mapped_arrays() {
        let mut asp = AddressSpace::new();
        asp.alloc("s1", 100, true);
        asp.alloc("r", 100, false);
        asp.alloc("s2", 100, true);
        let ranges = asp.spm_ranges();
        assert_eq!(ranges.len(), 2);
        for (lo, hi) in ranges {
            assert!(lo < hi);
        }
    }

    #[test]
    fn locate_finds_owner() {
        let mut asp = AddressSpace::new();
        let a = asp.alloc("a", 100, true);
        let base = asp.get(a).base;
        assert_eq!(asp.locate(base + 50).unwrap().name, "a");
        assert!(asp.locate(0).is_none());
        assert!(asp.locate(base + 100).is_none(), "end is exclusive");
    }

    #[test]
    fn footprint_accumulates() {
        let mut asp = AddressSpace::new();
        assert_eq!(asp.footprint(), 0);
        asp.alloc("a", 1, false);
        assert_eq!(asp.footprint(), PAGE);
        asp.alloc("b", PAGE + 1, false);
        assert_eq!(asp.footprint(), 3 * PAGE);
    }
}
