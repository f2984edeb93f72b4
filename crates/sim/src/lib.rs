//! # raa-sim — a trace-driven tiled-manycore memory-hierarchy simulator
//!
//! The Fig. 1 experiment of the paper compares a conventional cache-only
//! 64-core processor against the proposed **hybrid memory hierarchy**
//! (per-tile scratchpads + caches, with a coherence protocol that lets the
//! compiler map strided accesses to the scratchpads even in the presence
//! of unknown aliasing hazards).  This crate is the simulator substrate
//! for that comparison:
//!
//! * [`cache::Cache`] — set-associative write-back caches with LRU.
//! * [`coherence::Directory`] — directory MESI for the private L1s.
//! * [`noc::Mesh`] — 2-D mesh with XY routing, hop latency and flit
//!   accounting (the paper's NoC-traffic metric).
//! * [`dram::Dram`] — banked memory latency/energy model.
//! * [`spm::SpmState`] — per-tile scratchpads fed by tiling DMA (the
//!   compiler's software cache).
//! * [`hybrid::SpmDirectory`] — the SPM map directory + alias filter that
//!   serve [`raa_workloads::RefClass::RandomUnknown`] accesses from
//!   whichever memory holds the valid copy.
//! * [`machine::Machine`] — the per-core trace executor tying it together.
//! * [`linemap::LineHasher`] — the hasher of the line-keyed maps above.
//!
//! The simulator is cycle-approximate: cores are in-order, contention is
//! not queued, but every latency, energy and traffic constant is relative
//! and CACTI-class, which is what the *relative* claims of Fig. 1 rest
//! on.  See DESIGN.md §4 for the substitution argument.

//! ## Example
//!
//! ```
//! use raa_sim::{HierarchyMode, Machine, MachineConfig};
//! use raa_workloads::synthetic;
//!
//! // A 4-tile machine in each mode, fed the same strided stream.
//! let run = |mode| {
//!     let mut m = Machine::new(MachineConfig::tiled(4, mode), vec![(4096, 1 << 20)]);
//!     m.run_streams(vec![Box::new(synthetic::strided_sweep(4096, 4000, 4)) as _])
//! };
//! let cache = run(HierarchyMode::CacheOnly);
//! let hybrid = run(HierarchyMode::Hybrid);
//! assert!(hybrid.energy.total() < cache.energy.total());
//! assert!(hybrid.noc_flits < cache.noc_flits);
//! ```

pub mod cache;
pub mod coherence;
pub mod config;
pub mod dram;
pub mod energy;
pub mod fault;
pub mod hybrid;
pub mod linemap;
pub mod machine;
pub mod noc;
pub mod spm;

pub use config::{HierarchyMode, MachineConfig};
pub use energy::EnergyBreakdown;
pub use fault::{
    BitFaultPlan, CrcLink, EccDomain, EccEvent, EccStats, EccVerdict, MemStructure, ScrubSummary,
};
pub use machine::{Machine, MachineReport};
