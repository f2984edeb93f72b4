//! The tiled-CMP trace executor.
//!
//! A [`Machine`] holds one tile per core (core + private L1 + SPM), a
//! shared banked L2 with a coherence directory, the SPM directory/filter
//! of the hybrid protocol, a 2-D mesh and DRAM behind the mesh corners.
//! [`Machine::run_kernel`] pulls every core's trace in (approximate)
//! global time order and routes each reference:
//!
//! * **cache-only mode** — every reference takes the L1 → directory/L2 →
//!   DRAM path with MESI coherence;
//! * **hybrid mode** — strided references to compiler-mapped ranges hit
//!   the local SPM (DMA-tiled), random-no-alias references take the cache
//!   path, and unknown-alias references consult the filter + SPM
//!   directory and are served by whichever memory holds the valid copy.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use raa_workloads::{Kernel, MemRef, RefClass, TraceEvent};

use crate::cache::{AccessResult, Cache};
use crate::coherence::{cores_in, Directory, LineState};
use crate::config::{HierarchyMode, MachineConfig};
use crate::dram::Dram;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::hybrid::SpmDirectory;
use crate::linemap::{LineMap, LineSet};
use crate::noc::Mesh;
use crate::spm::{SpmAccess, SpmState};

/// Wheel slots of the run loop's [`Calendar`]. Not a tuning knob: every
/// size (a power of two, at least 64) pops in the same order, the size
/// only decides how many events take the far heap. 1,024 covers every
/// latency of the memory system; only long `Compute` phases go far.
const WHEEL_SLOTS: usize = 1024;

/// The run loop's event queue: the pending `(time, core)` of every core
/// that is neither drained nor waiting at a barrier, popped smallest
/// first — a min-heap's order, at a bit scan per operation.
///
/// Events less than `slots.len()` cycles ahead of the cursor sit in a
/// wheel: slot `t % len` holds the mask of cores due at `t`, `occupied`
/// has a bit per non-empty slot. The rest wait in `far` and move into
/// the wheel as the cursor gets within its span of them.
///
/// It pops in exactly the order of a `BinaryHeap<Reverse<(u64, usize)>>`
/// given the run loop's two guarantees. (1) A core has at most one
/// pending event, so a mask bit per core loses nothing. (2) While the
/// calendar is non-empty no push is earlier than the last pop — a
/// reference takes `lat.max(1)`, `Compute(0)` re-enters the slot under
/// the cursor — so nothing lands behind the cursor and every wheel time
/// lies in `[now, now + len)`, one per slot. A barrier (or the drain of
/// the last running core) releases its waiters into an *empty* calendar,
/// possibly at an earlier time than the last pop; a push into an empty
/// calendar moves the cursor. Within a slot the lowest set bit is the
/// smallest core: the heap's tie-break.
struct Calendar {
    slots: Vec<u128>,
    occupied: Vec<u64>,
    far: BinaryHeap<Reverse<(u64, usize)>>,
    /// Time of the last pop: the wheel covers `[now, now + slots.len())`.
    now: u64,
    len: usize,
}

impl Calendar {
    fn new(slots: usize) -> Self {
        assert!(slots.is_power_of_two() && slots >= 64);
        Calendar {
            slots: vec![0; slots],
            occupied: vec![0; slots / 64],
            far: BinaryHeap::new(),
            now: 0,
            len: 0,
        }
    }

    fn push(&mut self, time: u64, core: usize) {
        if self.len == 0 {
            self.now = time;
        }
        debug_assert!(time >= self.now, "push behind the cursor");
        self.len += 1;
        if time - self.now < self.slots.len() as u64 {
            self.insert(time, core);
        } else {
            self.far.push(Reverse((time, core)));
        }
    }

    fn insert(&mut self, time: u64, core: usize) {
        let slot = time as usize & (self.slots.len() - 1);
        debug_assert_eq!(self.slots[slot] & (1u128 << core), 0, "one event per core");
        self.slots[slot] |= 1u128 << core;
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Time of the earliest wheel event: the first occupied slot at or
    /// after the cursor's, wrapping round.
    fn next_in_wheel(&self) -> Option<u64> {
        let mask = self.slots.len() - 1;
        let start = self.now as usize & mask;
        let (word, bit) = (start / 64, start % 64);
        let words = self.occupied.len();
        let from_cursor = self.occupied[word] & (!0u64 << bit);
        let slot = if from_cursor != 0 {
            word * 64 + from_cursor.trailing_zeros() as usize
        } else {
            // The following words, then the cursor word's low bits.
            let w = (1..=words)
                .map(|i| (word + i) % words)
                .find(|&w| self.occupied[w] != 0)?;
            w * 64 + self.occupied[w].trailing_zeros() as usize
        };
        Some(self.now + (slot.wrapping_sub(start) & mask) as u64)
    }

    fn pop(&mut self) -> Option<(u64, usize)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let far = self.far.peek().map(|&Reverse((t, _))| t);
        self.now = (self.next_in_wheel().into_iter().chain(far))
            .min()
            .expect("len counts the wheel and the far heap");
        // Far events now within the wheel's span join it — in particular
        // those due at `now`, which tie-break against the wheel's.
        while let Some(&Reverse((t, core))) = self.far.peek() {
            if t - self.now >= self.slots.len() as u64 {
                break;
            }
            self.far.pop();
            self.insert(t, core);
        }
        let slot = self.now as usize & (self.slots.len() - 1);
        let core = self.slots[slot].trailing_zeros() as usize;
        self.slots[slot] &= self.slots[slot] - 1;
        if self.slots[slot] == 0 {
            self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        }
        Some((self.now, core))
    }
}

/// One tracked prefetch stream.
#[derive(Clone, Copy, Debug)]
struct StreamEntry {
    last: u64,
    delta: i64,
}

/// Execution report: the three Fig. 1 metrics plus component detail.
#[derive(Clone, Debug)]
pub struct MachineReport {
    /// Execution time: the slowest core's cycle count.
    pub cycles: u64,
    /// Energy breakdown (leakage included).
    pub energy: EnergyBreakdown,
    /// Total NoC flits injected (the Fig. 1 traffic metric).
    pub noc_flits: u64,
    /// Flits × hops (energy-weighted traffic).
    pub noc_flit_hops: u64,
    pub mem_refs: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub spm_hits: u64,
    pub spm_fills: u64,
    pub remote_spm_refs: u64,
    pub dram_accesses: u64,
    pub invalidations: u64,
    /// Cross-SPM single-writer invalidations (hybrid mode).
    pub spm_invalidations: u64,
    /// Baseline stride-prefetcher coverage (misses whose line was in
    /// flight).
    pub prefetch_hits: u64,
    pub per_core_cycles: Vec<u64>,
}

impl std::fmt::Display for MachineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cycles       {:>14}", self.cycles)?;
        writeln!(f, "energy (nJ)  {:>14.1}", self.energy.total())?;
        writeln!(f, "NoC flits    {:>14}", self.noc_flits)?;
        writeln!(
            f,
            "L1           {:>14} hits / {} misses",
            self.l1_hits, self.l1_misses
        )?;
        writeln!(
            f,
            "SPM          {:>14} hits / {} fills ({} remote)",
            self.spm_hits, self.spm_fills, self.remote_spm_refs
        )?;
        writeln!(f, "DRAM         {:>14} accesses", self.dram_accesses)?;
        writeln!(
            f,
            "utilisation  {:>14.1}% (min core {:.1}%, max core {:.1}%)",
            100.0 * self.utilization(),
            100.0 * self.core_utilizations().fold(f64::INFINITY, f64::min),
            100.0 * self.core_utilizations().fold(0.0f64, f64::max),
        )
    }
}

impl MachineReport {
    /// Mean busy fraction across cores.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 || self.per_core_cycles.is_empty() {
            return 0.0;
        }
        self.per_core_cycles
            .iter()
            .map(|&c| c as f64 / self.cycles as f64)
            .sum::<f64>()
            / self.per_core_cycles.len() as f64
    }

    /// Per-core busy fractions.
    pub fn core_utilizations(&self) -> impl Iterator<Item = f64> + '_ {
        let total = self.cycles.max(1) as f64;
        self.per_core_cycles.iter().map(move |&c| c as f64 / total)
    }

    /// Execution-time speedup of `self` over `base` (higher = faster).
    pub fn time_speedup_over(&self, base: &MachineReport) -> f64 {
        base.cycles as f64 / self.cycles as f64
    }

    /// Energy "speedup" (reduction factor) over `base`.
    pub fn energy_speedup_over(&self, base: &MachineReport) -> f64 {
        base.energy.total() / self.energy.total()
    }

    /// NoC traffic reduction factor over `base`.
    pub fn traffic_speedup_over(&self, base: &MachineReport) -> f64 {
        base.noc_flits as f64 / self.noc_flits as f64
    }
}

/// The simulated machine. See the module docs.
pub struct Machine {
    cfg: MachineConfig,
    em: EnergyModel,
    l1: Vec<Cache>,
    spm: Vec<SpmState>,
    l2: Cache,
    dir: Directory,
    sdir: SpmDirectory,
    mesh: Mesh,
    dram: Dram,
    energy: EnergyBreakdown,
    /// Lines from SPM-mapped ranges that currently sit in some L1 via the
    /// unknown-alias cache path (must be purged when a DMA fill claims
    /// their line).
    cached_mapped_lines: LineSet,
    /// Stride-prefetcher state: a small per-core stream table.
    pref_streams: Vec<Vec<StreamEntry>>,
    /// DMA fill / writeback counters per core, for setup amortisation
    /// over the tile quantum.
    dma_fills: Vec<u64>,
    dma_wbs: Vec<u64>,
    /// Per-L2-bank busy-until timestamps (bank-contention model).
    bank_busy_until: Vec<u64>,
    /// Total cycles lost to bank queueing.
    pub bank_stall: u64,
    /// Global time of the reference currently being served (set by
    /// `run_streams` before each `mem_access`).
    now: u64,
    /// Which cores' SPMs hold each line (single-writer coherence for
    /// the software cache: a strided store invalidates other holders).
    spm_holders: LineMap<u128>,
    pub spm_invalidations: u64,
    pub prefetch_hits: u64,
    mem_refs: u64,
    remote_spm_refs: u64,
}

impl Machine {
    /// Build a machine; `spm_ranges` are the compiler's SPM-mapped
    /// address ranges (ignored in cache-only mode).
    pub fn new(cfg: MachineConfig, spm_ranges: Vec<(u64, u64)>) -> Self {
        assert!(
            cfg.cores <= 128,
            "{} cores: directory sharer masks, SPM holder masks and the run \
             loop's calendar slots are u128, one bit per core",
            cfg.cores
        );
        let ranges = match cfg.mode {
            HierarchyMode::CacheOnly => Vec::new(),
            HierarchyMode::Hybrid => spm_ranges,
        };
        let cfg_cores = cfg.cores;
        let l1 = (0..cfg.cores)
            .map(|_| Cache::new(cfg.l1_lines(), cfg.l1_ways))
            .collect();
        let spm = (0..cfg.cores)
            .map(|_| SpmState::new(cfg.spm_bytes, cfg.line_bytes))
            .collect();
        let l2 = Cache::new(cfg.l2_lines(), cfg.l2_ways);
        let mesh = Mesh::new(cfg.mesh_width(), cfg.noc_hop_lat);
        let dram = Dram::new(8, cfg.dram_lat);
        let sdir = SpmDirectory::new(ranges, cfg.line_bytes);
        Machine {
            cfg,
            em: EnergyModel::default(),
            l1,
            spm,
            l2,
            dir: Directory::new(),
            sdir,
            mesh,
            dram,
            energy: EnergyBreakdown::default(),
            cached_mapped_lines: LineSet::default(),
            pref_streams: vec![Vec::new(); cfg_cores],
            dma_fills: vec![0; cfg_cores],
            dma_wbs: vec![0; cfg_cores],
            bank_busy_until: vec![0; cfg_cores],
            bank_stall: 0,
            now: 0,
            spm_holders: LineMap::default(),
            spm_invalidations: 0,
            prefetch_hits: 0,
            mem_refs: 0,
            remote_spm_refs: 0,
        }
    }

    /// Override the energy model.
    pub fn with_energy_model(mut self, em: EnergyModel) -> Self {
        self.em = em;
        self
    }

    /// Home L2 bank (tile index) of a line: low-order interleaving.
    fn home(&self, line: u64) -> usize {
        (line as usize) % self.cfg.cores
    }

    /// Bank-queueing delay for an access to bank `bank` at the current
    /// global time (no-op unless `l2_bank_contention` is on).
    fn bank_wait(&mut self, bank: usize) -> u64 {
        if !self.cfg.l2_bank_contention {
            return 0;
        }
        let free_at = self.bank_busy_until[bank];
        let start = free_at.max(self.now);
        self.bank_busy_until[bank] = start + self.cfg.l2_service_lat;
        let wait = start - self.now;
        self.bank_stall += wait;
        wait
    }

    /// Stride-prediction-table prefetcher (16 streams per core, LRU):
    /// a miss continuing a detected constant-stride stream counts as
    /// covered (the line was in flight).
    fn prefetcher_covers(&mut self, core: usize, line: u64) -> bool {
        if !self.cfg.prefetcher {
            return false;
        }
        const TABLE: usize = 16;
        /// A stream match window: a miss within this many lines of a
        /// tracked stream trains it.
        const WINDOW: i64 = 256;
        let table = &mut self.pref_streams[core];
        // 1) continuation of a trained stream?
        for i in 0..table.len() {
            let e = table[i];
            if e.delta != 0 && line as i64 == e.last as i64 + e.delta {
                table[i].last = line;
                let e = table.remove(i);
                table.push(e); // LRU to back
                self.prefetch_hits += 1;
                return true;
            }
        }
        // 2) train the nearest stream within the window.
        let mut best: Option<(usize, i64)> = None;
        for (i, e) in table.iter().enumerate() {
            let d = line as i64 - e.last as i64;
            if d != 0
                && d.abs() <= WINDOW
                && (best.is_none() || d.abs() < best.expect("set").1.abs())
            {
                best = Some((i, d));
            }
        }
        if let Some((i, d)) = best {
            table[i].last = line;
            table[i].delta = d;
            let e = table.remove(i);
            table.push(e);
            return false;
        }
        // 3) allocate a fresh stream.
        if table.len() >= TABLE {
            table.remove(0);
        }
        table.push(StreamEntry {
            last: line,
            delta: 0,
        });
        false
    }

    /// Run a kernel: one trace per core, interleaved in global time
    /// order.
    pub fn run_kernel(&mut self, kernel: &dyn Kernel) -> MachineReport {
        assert_eq!(
            kernel.cores(),
            self.cfg.cores,
            "kernel partitioning must match the machine"
        );
        let streams: Vec<_> = (0..kernel.cores()).map(|c| kernel.core_trace(c)).collect();
        self.run_streams(streams)
    }

    /// Run explicit per-core streams (synthetic workloads, tests).
    pub fn run_streams<'a>(
        &mut self,
        mut streams: Vec<Box<dyn Iterator<Item = TraceEvent> + Send + 'a>>,
    ) -> MachineReport {
        assert!(
            streams.len() <= self.cfg.cores,
            "more streams than cores ({} > {})",
            streams.len(),
            self.cfg.cores
        );
        let n = streams.len();
        let mut times = vec![0u64; n];
        // Barrier bookkeeping: cores that reached the current barrier
        // wait until every live core arrives, then all resume at the
        // latest arrival time (BSP semantics).
        let mut at_barrier: Vec<bool> = vec![false; n];
        let mut live = n;
        let mut waiting = 0usize;
        // Smallest (time, core) first: approximate global ordering.
        let mut due = Calendar::new(WHEEL_SLOTS);
        for c in 0..n {
            due.push(0, c);
        }
        loop {
            // Release a completed barrier episode.
            if live > 0 && waiting == live {
                let release = times
                    .iter()
                    .zip(&at_barrier)
                    .filter(|&(_, &w)| w)
                    .map(|(&t, _)| t)
                    .max()
                    .unwrap_or(0);
                for c in 0..n {
                    if at_barrier[c] {
                        at_barrier[c] = false;
                        times[c] = release;
                        due.push(release, c);
                    }
                }
                waiting = 0;
            }
            let Some((t, c)) = due.pop() else {
                break;
            };
            match streams[c].next() {
                None => {
                    // Stream drained: stop participating in barriers.
                    live -= 1;
                }
                Some(TraceEvent::Barrier) => {
                    at_barrier[c] = true;
                    waiting += 1;
                }
                Some(TraceEvent::Compute(cy)) => {
                    times[c] = t + cy as u64;
                    due.push(times[c], c);
                }
                Some(TraceEvent::Mem(m)) => {
                    self.now = t;
                    let lat = self.mem_access(c, &m);
                    times[c] = t + lat.max(1);
                    due.push(times[c], c);
                }
            }
        }
        self.report(&times)
    }

    /// Route one memory reference; returns its latency in cycles.
    pub fn mem_access(&mut self, core: usize, m: &MemRef) -> u64 {
        self.mem_refs += 1;
        match (self.cfg.mode, m.class) {
            (HierarchyMode::CacheOnly, _) => self.cache_path(core, m.line(), m.is_store),
            (HierarchyMode::Hybrid, RefClass::Strided) => {
                if self.sdir.in_mapped_range(m.addr) {
                    self.spm_path(core, m.addr, m.is_store)
                } else {
                    self.cache_path(core, m.line(), m.is_store)
                }
            }
            (HierarchyMode::Hybrid, RefClass::RandomNoAlias) => {
                self.cache_path(core, m.line(), m.is_store)
            }
            (HierarchyMode::Hybrid, RefClass::RandomUnknown) => {
                self.unknown_path(core, m.addr, m.is_store)
            }
        }
    }

    /// Conventional L1 → directory/L2 → DRAM path.
    fn cache_path(&mut self, core: usize, line: u64, store: bool) -> u64 {
        self.energy.l1 += self.em.l1_access;
        // Hit path. A store to a clean Shared line needs the S→M upgrade
        // round trip; an Exclusive line upgrades silently (MESI's point).
        if let Some((was_dirty, excl)) = self.l1[core].touch(line, store) {
            let mut lat = self.cfg.l1_hit_lat;
            if store && !was_dirty {
                if excl {
                    // Silent E→M: inform the directory bookkeeping only.
                    self.dir.write(line, core as u16);
                } else {
                    let home = self.home(line);
                    lat +=
                        self.mesh
                            .round_trip(core, home, self.cfg.ctrl_flits, self.cfg.ctrl_flits);
                    self.energy.directory += self.em.dir_lookup;
                    let acts = self.dir.write(line, core as u16);
                    for c in acts.invalidate {
                        self.mesh.send(home, c as usize, self.cfg.ctrl_flits);
                        self.mesh.send(c as usize, home, self.cfg.ctrl_flits);
                        self.l1[c as usize].invalidate(line);
                    }
                }
                // fetch_owner cannot occur: we held a copy.
            }
            return lat;
        }

        // Miss: request to the home bank's directory. If the stride
        // prefetcher already has the line in flight, the core observes
        // only a short fill delay — but all directory/L2/DRAM work and
        // traffic below still happens (the prefetch performed it).
        let home = self.home(line);
        let prefetched = self.prefetcher_covers(core, line);
        let trip = self
            .mesh
            .round_trip(core, home, self.cfg.ctrl_flits, self.cfg.data_flits);
        let mut lat = self.cfg.l1_hit_lat
            + if prefetched {
                self.cfg.prefetch_hit_lat
            } else {
                trip
            };
        self.energy.directory += self.em.dir_lookup;
        if store {
            let acts = self.dir.write(line, core as u16);
            for c in &acts.invalidate {
                self.mesh.send(home, *c as usize, self.cfg.ctrl_flits);
                self.mesh.send(*c as usize, home, self.cfg.ctrl_flits);
                self.l1[*c as usize].invalidate(line);
            }
            if let Some(o) = acts.fetch_owner {
                lat += self.mesh.round_trip(
                    home,
                    o as usize,
                    self.cfg.ctrl_flits,
                    self.cfg.data_flits,
                );
                self.l1[o as usize].invalidate(line);
                // The dirty data merges at the L2 on its way over.
                self.touch_l2(line, true);
            }
        } else {
            let acts = self.dir.read(line, core as u16);
            if let Some(o) = acts.downgrade_owner {
                lat += self.mesh.round_trip(
                    home,
                    o as usize,
                    self.cfg.ctrl_flits,
                    self.cfg.data_flits,
                );
                self.l1[o as usize].clean(line);
                self.touch_l2(line, true);
            }
            // An E→S transition on a remote holder costs nothing here but
            // must clear the holder's silent-upgrade permission.
            if let LineState::Shared(mask) = self.dir.state(line) {
                for o in cores_in(mask & !(1u128 << core)) {
                    self.l1[o as usize].clean(line);
                }
            }
        }

        // L2 lookup at the home bank (optionally queued).
        let bank_wait = self.bank_wait(home);
        lat += bank_wait;
        self.energy.l2 += self.em.l2_access;
        match self.l2.access(line, false) {
            AccessResult::Hit => {
                if !prefetched {
                    lat += self.cfg.l2_hit_lat;
                }
            }
            AccessResult::Miss { evicted } => {
                let corner = self.mesh.nearest_corner(home);
                let dram_lat = self.dram.access(line);
                if !prefetched {
                    lat += self.cfg.l2_hit_lat
                        + self.mesh.round_trip(
                            home,
                            corner,
                            self.cfg.ctrl_flits,
                            self.cfg.data_flits,
                        )
                        + dram_lat;
                } else {
                    // Traffic still flows for the prefetched line.
                    self.mesh
                        .round_trip(home, corner, self.cfg.ctrl_flits, self.cfg.data_flits);
                }
                self.energy.dram += self.em.dram_access;
                if let Some(v) = evicted {
                    if v.dirty {
                        // L2 victim writeback to DRAM.
                        self.mesh.send(home, corner, self.cfg.data_flits);
                        self.dram.access(v.line);
                        self.energy.dram += self.em.dram_access;
                    }
                }
            }
        }

        // L1 fill (+ victim writeback).
        if let AccessResult::Miss {
            evicted: Some(v), ..
        } = self.l1[core].access(line, store)
        {
            self.dir.evict(v.line, core as u16);
            self.cached_mapped_lines.remove(&v.line);
            if v.dirty {
                let vh = self.home(v.line);
                self.mesh.send(core, vh, self.cfg.data_flits);
                self.touch_l2(v.line, true);
            }
        }
        // Exclusive grant: a read whose directory response says we are
        // the sole holder fills in E, enabling the silent upgrade later.
        if !store {
            if let LineState::Exclusive(holder) = self.dir.state(line) {
                if holder == core as u16 {
                    self.l1[core].set_exclusive(line);
                }
            }
        }
        lat
    }

    /// Write-allocate a line into the L2 (writeback sink), spilling dirty
    /// victims to DRAM.
    fn touch_l2(&mut self, line: u64, dirty: bool) {
        self.energy.l2 += self.em.l2_access;
        if let AccessResult::Miss {
            evicted: Some(v), ..
        } = self.l2.access(line, dirty)
        {
            if v.dirty {
                let home = self.home(v.line);
                let corner = self.mesh.nearest_corner(home);
                self.mesh.send(home, corner, self.cfg.data_flits);
                self.dram.access(v.line);
                self.energy.dram += self.em.dram_access;
            }
        }
    }

    /// Strided reference through the local SPM (packed-DMA software
    /// cache, line-granular residency).
    fn spm_path(&mut self, core: usize, addr: u64, store: bool) -> u64 {
        self.energy.spm += self.em.spm_access;
        let line = addr >> 6;
        if store {
            self.spm_store_invalidate(core, line);
        }
        match self.spm[core].access(addr, store) {
            SpmAccess::Hit => self.cfg.spm_lat,
            SpmAccess::Fill { evicted } => {
                if let Some((vline, dirty)) = evicted {
                    self.sdir.clear_resident(vline << 6, core as u16);
                    self.drop_holder(vline, core);
                    if dirty {
                        self.dma_writeback_line(core, vline);
                    }
                }
                self.dma_fill_line(core, line);
                self.sdir.set_resident(addr, core as u16);
                *self.spm_holders.entry(line).or_insert(0) |= 1u128 << core;
                // Double-buffered streaming DMA: the core observes the
                // pipelined per-line cost, plus the programming cost once
                // per tile quantum.
                self.dma_fills[core] += 1;
                let setup = if self.dma_fills[core] % self.cfg.tile_lines() == 1 {
                    self.cfg.dma_setup_lat
                } else {
                    0
                };
                self.cfg.spm_lat + self.cfg.dma_per_line_lat + setup
            }
        }
    }

    fn drop_holder(&mut self, line: u64, core: usize) {
        if let Some(mask) = self.spm_holders.get_mut(&line) {
            *mask &= !(1u128 << core);
            if *mask == 0 {
                self.spm_holders.remove(&line);
            }
        }
    }

    /// Single-writer discipline for SPM-mapped data: a store invalidates
    /// every other SPM's copy of the line (invalidation messages are
    /// charged; the stale copies are dropped without writeback).
    fn spm_store_invalidate(&mut self, core: usize, line: u64) {
        let Some(&mask) = self.spm_holders.get(&line) else {
            return;
        };
        let others = mask & !(1u128 << core);
        if others == 0 {
            return;
        }
        for o in cores_in(others) {
            self.spm[o as usize].invalidate(line);
            self.sdir.clear_resident(line << 6, o);
            self.mesh.send(core, o as usize, self.cfg.ctrl_flits);
            self.spm_invalidations += 1;
        }
        self.spm_holders.insert(line, 1u128 << core);
    }

    /// DMA-stream one line from the memory system into `core`'s SPM.
    /// Header/ programming traffic is amortised over the tile quantum.
    fn dma_fill_line(&mut self, core: usize, line: u64) {
        let home = self.home(line);
        if self.dma_fills[core].is_multiple_of(self.cfg.tile_lines()) {
            // New DMA program: request message + energy.
            self.energy.dma += self.em.dma_setup;
            self.mesh.send(core, home, self.cfg.ctrl_flits);
        }
        // Payload without per-line headers (bulk stream).
        self.mesh.send(home, core, self.cfg.data_flits - 1);
        // Invalidate stale cached copies (unknown-alias leftovers).
        if self.cached_mapped_lines.remove(&line) {
            for holder in self.dir.purge(line) {
                self.mesh.send(home, holder as usize, self.cfg.ctrl_flits);
                if let Some(true) = self.l1[holder as usize].invalidate(line) {
                    self.mesh.send(holder as usize, home, self.cfg.data_flits);
                    self.touch_l2(line, true);
                }
            }
        }
        self.energy.l2 += self.em.l2_access;
        if let AccessResult::Miss { evicted } = self.l2.access(line, false) {
            let corner = self.mesh.nearest_corner(home);
            self.dram.access(line);
            self.energy.dram += self.em.dram_access;
            self.mesh.send(corner, home, self.cfg.data_flits);
            if let Some(v) = evicted {
                if v.dirty {
                    self.mesh.send(home, corner, self.cfg.data_flits);
                    self.dram.access(v.line);
                    self.energy.dram += self.em.dram_access;
                }
            }
        }
    }

    /// DMA-stream a dirty line back from `core`'s SPM.
    fn dma_writeback_line(&mut self, core: usize, line: u64) {
        let home = self.home(line);
        self.dma_wbs[core] += 1;
        if self.dma_wbs[core] % self.cfg.tile_lines() == 1 {
            self.energy.dma += self.em.dma_setup;
            self.mesh.send(core, home, self.cfg.ctrl_flits);
        }
        self.mesh.send(core, home, self.cfg.data_flits - 1);
        self.touch_l2(line, true);
    }

    /// Unknown-alias reference: filter, then SDIR, then the memory that
    /// holds the valid copy.
    fn unknown_path(&mut self, core: usize, addr: u64, store: bool) -> u64 {
        self.energy.filter += self.em.filter_lookup;
        // The filter is consulted in parallel with the L1 tag lookup, so
        // misses to the cache side pay no extra latency; SPM-side hits
        // pay one cycle of redirection.
        let mut lat = 1;
        if !self.sdir.filter_check(addr) {
            // Cannot alias SPM data: plain cache path (filter hidden).
            return self.cache_path(core, addr >> 6, store);
        }
        match self.sdir.lookup_owner(addr) {
            Some(o) if o as usize == core => {
                if self.spm[core].touch_remote(addr, store) {
                    self.energy.spm += self.em.spm_access;
                    lat + self.cfg.spm_lat
                } else {
                    // Stale SDIR entry: repair and fall back.
                    self.sdir.clear_resident(addr, o);
                    lat += self.cache_path(core, addr >> 6, store);
                    self.cached_mapped_lines.insert(addr >> 6);
                    lat
                }
            }
            Some(o) => {
                // Valid copy lives in a remote SPM: word-granularity NoC
                // round trip.
                if self.spm[o as usize].touch_remote(addr, store) {
                    self.remote_spm_refs += 1;
                    self.energy.spm += self.em.spm_access;
                    lat += self
                        .mesh
                        .round_trip(core, o as usize, self.cfg.ctrl_flits, 2)
                        + self.cfg.spm_lat;
                    lat
                } else {
                    self.sdir.clear_resident(addr, o);
                    lat += self.cache_path(core, addr >> 6, store);
                    self.cached_mapped_lines.insert(addr >> 6);
                    lat
                }
            }
            None => {
                // Not SPM-resident right now: the caches hold the valid
                // copy (filter lookup hidden under the cache access);
                // remember the line for invalidation-on-DMA.
                let l = self.cache_path(core, addr >> 6, store);
                self.cached_mapped_lines.insert(addr >> 6);
                l
            }
        }
    }

    fn report(&self, times: &[u64]) -> MachineReport {
        let cycles = times.iter().copied().max().unwrap_or(0);
        let mut energy = self.energy;
        energy.noc = self.em.noc_flit_hop * self.mesh.flit_hops as f64;
        energy.leakage = self.em.leak_core_cycle * cycles as f64 * self.cfg.cores as f64;
        MachineReport {
            cycles,
            energy,
            noc_flits: self.mesh.flits,
            noc_flit_hops: self.mesh.flit_hops,
            mem_refs: self.mem_refs,
            l1_hits: self.l1.iter().map(|c| c.hits).sum(),
            l1_misses: self.l1.iter().map(|c| c.misses).sum(),
            l2_hits: self.l2.hits,
            l2_misses: self.l2.misses,
            spm_hits: self.spm.iter().map(|s| s.hits).sum(),
            spm_fills: self.spm.iter().map(|s| s.fills).sum(),
            remote_spm_refs: self.remote_spm_refs,
            dram_accesses: self.dram.accesses,
            invalidations: self.dir.invalidations,
            spm_invalidations: self.spm_invalidations,
            prefetch_hits: self.prefetch_hits,
            per_core_cycles: times.to_vec(),
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Reset all state and statistics (reuse across runs; cheaper than
    /// reconstructing for repeated sweeps).
    pub fn reset(&mut self) {
        let cfg = self.cfg.clone();
        let ranges = std::mem::take(&mut self.sdir);
        let ranges = ranges.into_ranges();
        *self = Machine::new(cfg, ranges).with_energy_model(self.em);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raa_workloads::synthetic;
    use raa_workloads::{KernelCfg, Scale};

    fn machine(cores: usize, mode: HierarchyMode, ranges: Vec<(u64, u64)>) -> Machine {
        Machine::new(MachineConfig::tiled(cores, mode), ranges)
    }

    #[test]
    fn strided_stream_cache_only_misses_once_per_line() {
        let mut m = machine(1, HierarchyMode::CacheOnly, vec![]);
        let stream = synthetic::strided_sweep(4096, 800, 0); // 100 lines
        let r = m.run_streams(vec![Box::new(stream)]);
        assert_eq!(r.mem_refs, 800);
        assert_eq!(r.l1_misses, 100, "one compulsory miss per 64B line");
        assert_eq!(r.l1_hits, 700);
        assert!(r.cycles > 800);
    }

    #[test]
    fn hybrid_serves_mapped_strided_from_spm() {
        let mut m = machine(1, HierarchyMode::Hybrid, vec![(4096, 4096 + 6400)]);
        let stream = synthetic::strided_sweep(4096, 800, 0);
        let r = m.run_streams(vec![Box::new(stream)]);
        assert_eq!(r.spm_hits + r.spm_fills, 800);
        assert_eq!(r.l1_hits + r.l1_misses, 0, "no cache traffic at all");
        // 800 × 8B = 6400 B = 100 lines: one streamed fill per line.
        assert_eq!(r.spm_fills, 100);
    }

    #[test]
    fn hybrid_beats_cache_only_on_strided_streams() {
        let run = |mode| {
            let mut m = machine(4, mode, vec![(4096, 4096 + (1 << 22))]);
            let streams: Vec<Box<dyn Iterator<Item = TraceEvent> + Send>> = (0..4)
                .map(|c| Box::new(synthetic::strided_sweep(4096 + c * 1024 * 512, 20_000, 4)) as _)
                .collect();
            m.run_streams(streams)
        };
        let cache = run(HierarchyMode::CacheOnly);
        let hybrid = run(HierarchyMode::Hybrid);
        // On purely private strided data a MESI-E + prefetcher baseline
        // is latency-competitive; the hybrid hierarchy's wins there are
        // energy and traffic (the Fig. 1 gains come from shared/streamed
        // working sets, not this microbenchmark).
        assert!(
            (hybrid.cycles as f64) < cache.cycles as f64 * 1.10,
            "hybrid must stay within 10% on private streams: {} vs {}",
            hybrid.cycles,
            cache.cycles
        );
        assert!(hybrid.energy.total() < cache.energy.total());
        assert!(hybrid.noc_flits < cache.noc_flits);
    }

    #[test]
    fn unmapped_strided_refs_use_the_cache_even_in_hybrid() {
        let mut m = machine(1, HierarchyMode::Hybrid, vec![]);
        let stream = synthetic::strided_sweep(4096, 100, 0);
        let r = m.run_streams(vec![Box::new(stream)]);
        assert_eq!(r.spm_hits + r.spm_fills, 0);
        assert!(r.l1_hits > 0);
    }

    #[test]
    fn unknown_refs_follow_the_valid_copy() {
        // Map a range, DMA a tile in via a strided access, then hit the
        // same tile with an unknown-alias access: it must be served by
        // the SPM, not the cache.
        let mut m = machine(1, HierarchyMode::Hybrid, vec![(4096, 8192)]);
        use raa_workloads::trace::{MemRef, TraceEvent};
        let events = vec![
            TraceEvent::Mem(MemRef::load(4096, 8, RefClass::Strided)),
            TraceEvent::Mem(MemRef::load(4100, 4, RefClass::RandomUnknown)),
            // Outside the mapped range: cache path.
            TraceEvent::Mem(MemRef::load(16384, 8, RefClass::RandomUnknown)),
        ];
        let r = m.run_streams(vec![Box::new(events.into_iter())]);
        assert_eq!(r.spm_fills, 1);
        assert_eq!(r.spm_hits, 1, "unknown ref served by the SPM");
        assert_eq!(r.l1_misses, 1, "only the unmapped ref used the cache");
    }

    #[test]
    fn coherence_read_write_sharing_generates_invalidations() {
        use raa_workloads::trace::{MemRef, TraceEvent};
        // Core 0 and 1 read the same line, then core 1 writes it.
        let mk = |evs: Vec<TraceEvent>| Box::new(evs.into_iter()) as _;
        let mut m = machine(4, HierarchyMode::CacheOnly, vec![]);
        let shared = 65536u64;
        let r = m.run_streams(vec![
            mk(vec![TraceEvent::Mem(MemRef::load(
                shared,
                8,
                RefClass::Strided,
            ))]),
            mk(vec![
                TraceEvent::Compute(1000), // let core 0 read first
                TraceEvent::Mem(MemRef::load(shared, 8, RefClass::Strided)),
                TraceEvent::Mem(MemRef::store(shared, 8, RefClass::Strided)),
            ]),
        ]);
        assert!(r.invalidations >= 1, "store must invalidate the sharer");
    }

    #[test]
    fn ep_like_traces_are_mode_insensitive() {
        // EP's tiny footprint must yield ~1.0 speedups (the paper's
        // "no degradation" claim).
        let kcfg = KernelCfg::new(4, Scale::Small);
        let run = |mode| {
            let k = raa_workloads::kernels::ep::Ep::new(kcfg);
            let mut m = machine(4, mode, k.space().spm_ranges());
            m.run_kernel(&k)
        };
        let cache = run(HierarchyMode::CacheOnly);
        let hybrid = run(HierarchyMode::Hybrid);
        let speedup = hybrid.time_speedup_over(&cache);
        assert!(
            (speedup - 1.0).abs() < 0.05,
            "EP speedup should be ~1.0, got {speedup}"
        );
    }

    #[test]
    fn all_nas_kernels_run_on_the_paper_machine_scaled_down() {
        let kcfg = KernelCfg::new(4, Scale::Test);
        for k in raa_workloads::all_kernels(kcfg) {
            for mode in [HierarchyMode::CacheOnly, HierarchyMode::Hybrid] {
                let mut m = machine(4, mode, k.space().spm_ranges());
                let r = m.run_kernel(k.as_ref());
                assert!(r.cycles > 0, "{} produced no cycles", k.name());
                assert!(r.energy.total() > 0.0);
                // Conservation: every reference is served by the L1 path
                // or the SPM path (remote SPM refs count as SPM hits).
                assert_eq!(
                    r.l1_hits + r.l1_misses + r.spm_hits + r.spm_fills,
                    r.mem_refs,
                    "{} lost references in {:?}",
                    k.name(),
                    mode
                );
            }
        }
    }

    #[test]
    fn disabling_the_prefetcher_slows_the_baseline() {
        let stream = || -> Vec<Box<dyn Iterator<Item = TraceEvent> + Send>> {
            vec![Box::new(synthetic::strided_sweep(4096, 20_000, 0)) as _]
        };
        let mut on = machine(1, HierarchyMode::CacheOnly, vec![]);
        let with = on.run_streams(stream());
        let mut cfg = MachineConfig::tiled(1, HierarchyMode::CacheOnly);
        cfg.prefetcher = false;
        let mut off_m = Machine::new(cfg, vec![]);
        let without = off_m.run_streams(stream());
        assert!(with.prefetch_hits > 0);
        assert_eq!(without.prefetch_hits, 0);
        assert!(
            without.cycles > with.cycles,
            "prefetching must pay on streams: {} vs {}",
            without.cycles,
            with.cycles
        );
    }

    #[test]
    fn bank_contention_slows_conflicting_cores() {
        // Four cores hammer lines that all live in bank 0 (line % cores
        // == 0): with contention on, they queue.
        let mk_streams = || -> Vec<Box<dyn Iterator<Item = TraceEvent> + Send>> {
            (0..4)
                .map(|c| {
                    let evs: Vec<TraceEvent> = (0..200u64)
                        .map(|i| {
                            // Distinct lines, same home bank, no reuse.
                            let line = (c as u64 * 1000 + i) * 4;
                            TraceEvent::Mem(MemRef::load(line * 64, 8, RefClass::RandomNoAlias))
                        })
                        .collect();
                    Box::new(evs.into_iter()) as _
                })
                .collect()
        };
        let mut free = machine(4, HierarchyMode::CacheOnly, vec![]);
        let base = free.run_streams(mk_streams());
        let mut cfg = MachineConfig::tiled(4, HierarchyMode::CacheOnly);
        cfg.l2_bank_contention = true;
        cfg.l2_service_lat = 16;
        let mut contended = Machine::new(cfg, vec![]);
        let queued = contended.run_streams(mk_streams());
        assert!(contended.bank_stall > 0, "queueing must be visible");
        assert!(
            queued.cycles > base.cycles,
            "contention must cost time: {} vs {}",
            queued.cycles,
            base.cycles
        );
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut m = machine(2, HierarchyMode::Hybrid, vec![(4096, 1 << 16)]);
        let first = m.run_streams(vec![Box::new(synthetic::strided_sweep(4096, 500, 4)) as _]);
        assert!(first.mem_refs > 0);
        m.reset();
        let second = m.run_streams(vec![Box::new(synthetic::strided_sweep(4096, 500, 4)) as _]);
        assert_eq!(first.cycles, second.cycles, "reset must be complete");
        assert_eq!(first.noc_flits, second.noc_flits);
        assert_eq!(first.spm_fills, second.spm_fills);
    }

    #[test]
    fn report_display_and_utilization() {
        let mut m = machine(2, HierarchyMode::CacheOnly, vec![]);
        let streams: Vec<Box<dyn Iterator<Item = TraceEvent> + Send>> = vec![
            Box::new(synthetic::strided_sweep(4096, 400, 0)) as _,
            Box::new(synthetic::strided_sweep(1 << 20, 100, 0)) as _,
        ];
        let r = m.run_streams(streams);
        let u = r.utilization();
        assert!(u > 0.0 && u <= 1.0);
        // The shorter stream leaves its core underutilised.
        let utils: Vec<f64> = r.core_utilizations().collect();
        assert!(utils[1] < utils[0]);
        let text = format!("{r}");
        assert!(text.contains("cycles"));
        assert!(text.contains("utilisation"));
    }

    #[test]
    fn report_speedup_helpers() {
        let mut a = machine(1, HierarchyMode::CacheOnly, vec![]);
        let ra = a.run_streams(vec![Box::new(synthetic::strided_sweep(4096, 100, 0)) as _]);
        let mut b = machine(1, HierarchyMode::CacheOnly, vec![]);
        let rb = b.run_streams(vec![Box::new(synthetic::strided_sweep(4096, 200, 0)) as _]);
        assert!(rb.time_speedup_over(&ra) < 1.0);
        assert!(ra.time_speedup_over(&rb) > 1.0);
    }
    #[test]
    #[should_panic(expected = "masks")]
    fn more_cores_than_a_mask_has_bits_is_rejected() {
        machine(129, HierarchyMode::CacheOnly, vec![]);
    }

    #[test]
    fn a_drained_core_releases_the_barrier_at_the_waiters_arrival() {
        use raa_workloads::trace::{MemRef, TraceEvent};
        // Core 0 waits at a barrier from cycle ~100; core 1 computes to
        // cycle 5,000 (through the far heap) and ends without ever
        // arriving. The release puts core 0 back at its own arrival
        // time, earlier than the last pop.
        let load = |a| TraceEvent::Mem(MemRef::load(a, 8, RefClass::RandomNoAlias));
        let mut m = machine(2, HierarchyMode::CacheOnly, vec![]);
        let r = m.run_streams(vec![
            Box::new(vec![load(4096), TraceEvent::Barrier, load(4096)].into_iter()),
            Box::new(vec![TraceEvent::Compute(5000)].into_iter()),
        ]);
        let miss = r.per_core_cycles[0] - m.config().l1_hit_lat;
        assert!(miss < 5000, "core 0 resumed at its arrival, not at 5,000");
        assert_eq!(r.per_core_cycles[1], 5000);
        assert_eq!((r.l1_misses, r.l1_hits), (1, 1));
    }

    proptest::proptest! {
        /// Test (i): the calendar against the heap it replaced, under the
        /// run loop's preconditions — one pending event per core, no push
        /// behind the cursor unless the queue is empty. Deltas reach past
        /// the wheel (far heap, wrap-around); a 64-slot wheel must pop
        /// the same order as the 1,024-slot one.
        #[test]
        fn calendar_pops_in_heap_order(
            cores in 1usize..=128,
            ops in proptest::collection::vec((0u8..3, 0usize..128, 0u8..4, 0u64..=5000), 1..600),
        ) {
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
            let mut wheels = [Calendar::new(WHEEL_SLOTS), Calendar::new(64)];
            let mut pending = vec![false; cores];
            // No push may be earlier than this: the last pop, or the
            // first push into an empty queue.
            let mut floor = 0u64;
            for (kind, core, spread, delta) in ops {
                let core = core % cores;
                if kind > 0 && !pending[core] {
                    let delta = delta % [3, 70, 1100, 5001][spread as usize];
                    let time = if heap.is_empty() { delta } else { floor + delta };
                    if heap.is_empty() {
                        floor = time;
                    }
                    pending[core] = true;
                    heap.push(Reverse((time, core)));
                    wheels.iter_mut().for_each(|w| w.push(time, core));
                } else {
                    let want = heap.pop().map(|Reverse(e)| e);
                    for w in &mut wheels {
                        proptest::prop_assert_eq!(w.pop(), want);
                    }
                    if let Some((time, core)) = want {
                        floor = time;
                        pending[core] = false;
                    }
                }
            }
            while let Some(Reverse(want)) = heap.pop() {
                for w in &mut wheels {
                    proptest::prop_assert_eq!(w.pop(), Some(want));
                }
            }
            proptest::prop_assert!(wheels.iter_mut().all(|w| w.pop().is_none()));
        }
    }
}
