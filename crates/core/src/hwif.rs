//! The runtime ↔ hardware interface.
//!
//! The narrow waist the paper advocates: instead of exposing hardware
//! complexity to applications, the *runtime* talks to the hardware
//! through a few verbs — criticality notifications and frequency
//! requests in, grants and budget state out.  [`SimulatedHardware`]
//! implements the interface over the [`crate::rsu::Rsu`] model; a real
//! RAA chip would implement it in the Runtime Support Unit.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::dvfs::{DvfsTable, FreqState};
use crate::power::PowerParams;
use crate::rsu::Rsu;
use raa_runtime::{Criticality, Region, RegionRange, Runtime, TaskId, TaskObserver};
use raa_sim::fault::{EccEvent, EccVerdict, MemStructure};

/// What the runtime can ask of runtime-aware hardware.
pub trait HardwareInterface: Send + Sync {
    /// Inform the hardware that `task` (about to run on `core`) has the
    /// given criticality; returns the operating point granted for it.
    fn notify_task(&self, core: usize, task: TaskId, criticality: Criticality) -> FreqState;

    /// Inform the hardware that `core` finished its task.
    fn task_done(&self, core: usize);

    /// Remaining power headroom.
    fn power_headroom(&self) -> f64;
}

/// The simulated RAA hardware: an [`Rsu`] behind the interface.
pub struct SimulatedHardware {
    rsu: Mutex<Rsu>,
    table: DvfsTable,
}

impl SimulatedHardware {
    pub fn new(cores: usize, table: DvfsTable, power: PowerParams) -> Self {
        SimulatedHardware {
            rsu: Mutex::new(Rsu::new(cores, table.clone(), power)),
            table,
        }
    }

    /// Total frequency-change grants issued (diagnostics).
    pub fn grants(&self) -> u64 {
        self.rsu.lock().grants
    }

    /// Budget-forced demotions (diagnostics).
    pub fn demotions(&self) -> u64 {
        self.rsu.lock().demotions
    }
}

impl HardwareInterface for SimulatedHardware {
    fn notify_task(&self, core: usize, _task: TaskId, criticality: Criticality) -> FreqState {
        let want = match criticality {
            Criticality::Critical => self.table.highest(),
            Criticality::NonCritical => self.table.lowest(),
            // Unknown criticality runs at the nominal point.
            Criticality::Auto => self.table.at_least(1.0),
        };
        self.rsu.lock().request(core, want)
    }

    fn task_done(&self, core: usize) {
        self.rsu.lock().release(core);
    }

    fn power_headroom(&self) -> f64 {
        let rsu = self.rsu.lock();
        rsu.budget() - rsu.power_in_use()
    }
}

/// The end-to-end loop the paper advocates: a [`TaskObserver`] plugged
/// into the *real* [`raa_runtime::Runtime`] that forwards every task
/// start/completion to the simulated RSU, which grants frequencies
/// under the power budget.  Attach with
/// `RuntimeConfig::with_workers(n).observer(driver)`.
pub struct RsuDriver {
    hw: SimulatedHardware,
    /// Turbo grants observed (task started at the highest state).
    pub turbo_grants: AtomicU64,
    /// Low-power grants observed.
    pub low_grants: AtomicU64,
    /// All other grants.
    pub other_grants: AtomicU64,
    /// Attempts that panicked after their grant was issued; each one
    /// released its core so a retried attempt re-negotiates from a
    /// clean RSU state instead of leaking the budget share.
    pub fault_events: AtomicU64,
    /// Tasks skipped due to upstream poison; they never started, so no
    /// grant was issued and none must be released.
    pub skipped_events: AtomicU64,
}

impl RsuDriver {
    pub fn new(cores: usize) -> Arc<Self> {
        Arc::new(RsuDriver {
            hw: SimulatedHardware::new(
                cores,
                DvfsTable::low_nominal_turbo(),
                PowerParams::nominal_budget(cores),
            ),
            turbo_grants: AtomicU64::new(0),
            low_grants: AtomicU64::new(0),
            other_grants: AtomicU64::new(0),
            fault_events: AtomicU64::new(0),
            skipped_events: AtomicU64::new(0),
        })
    }

    pub fn hardware(&self) -> &SimulatedHardware {
        &self.hw
    }

    /// Total grants routed through the RSU.
    pub fn grants(&self) -> u64 {
        self.turbo_grants.load(Ordering::Relaxed)
            + self.low_grants.load(Ordering::Relaxed)
            + self.other_grants.load(Ordering::Relaxed)
    }
}

impl TaskObserver for RsuDriver {
    fn on_start(&self, worker: usize, task: TaskId, critical: bool) {
        let crit = if critical {
            Criticality::Critical
        } else {
            Criticality::NonCritical
        };
        let granted = self.hw.notify_task(worker, task, crit);
        let table = DvfsTable::low_nominal_turbo();
        if (granted.freq - table.highest().freq).abs() < 1e-9 {
            self.turbo_grants.fetch_add(1, Ordering::Relaxed);
        } else if (granted.freq - table.lowest().freq).abs() < 1e-9 {
            self.low_grants.fetch_add(1, Ordering::Relaxed);
        } else {
            self.other_grants.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn on_complete(&self, worker: usize, _task: TaskId) {
        self.hw.task_done(worker);
    }

    fn on_fault(&self, worker: usize, _task: TaskId) {
        // A panicked attempt never reaches `on_complete`; without this
        // release the core's frequency grant would leak across retries
        // and the RSU budget would slowly starve the healthy workers.
        self.fault_events.fetch_add(1, Ordering::Relaxed);
        self.hw.task_done(worker);
    }

    fn on_skipped(&self, _worker: usize, _task: TaskId) {
        // A skipped task never reached `on_start`, so there is no grant
        // to release — counting it is all there is to do. Calling
        // `task_done` here would double-release whichever task the
        // worker ran previously.
        self.skipped_events.fetch_add(1, Ordering::Relaxed);
    }
}

// --------------------------------------------------------- machine checks

/// How bad a machine-check event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MceSeverity {
    /// ECC fixed it; data intact. Logged for health telemetry only.
    Corrected,
    /// Detected-uncorrectable: the word is lost, and the hardware says
    /// *which* word — the runtime must act before anyone consumes it.
    Due,
}

/// A machine-check event: the hardware-error half of the narrow waist.
///
/// `raa-sim`'s ECC domains classify raw bit upsets; everything the
/// decoder can *see* (corrected singles, DUE doubles) surfaces here with
/// its physical address and structure. What never arrives is the ≥3-bit
/// silent class — closing that gap is the ABFT layer's job in
/// `raa-solver`, not the hardware's.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MachineCheck {
    pub structure: MemStructure,
    /// Physical word address (8-byte words, matching the ECC granule).
    pub addr: u64,
    pub severity: MceSeverity,
}

impl MachineCheck {
    /// Lift a simulator ECC event into a machine check. `Clean` produces
    /// nothing; `Silent` *must* produce nothing — the hardware does not
    /// know about it (that is what "silent" means).
    pub fn from_ecc(e: &EccEvent) -> Option<MachineCheck> {
        let severity = match e.verdict {
            EccVerdict::Corrected => MceSeverity::Corrected,
            EccVerdict::Due => MceSeverity::Due,
            EccVerdict::Clean | EccVerdict::Silent => return None,
        };
        Some(MachineCheck {
            structure: e.structure,
            addr: e.addr,
            severity,
        })
    }
}

/// The machine-check observer hook — the delivery point for hardware
/// error events, symmetric to [`TaskObserver`] on the execution side.
pub trait MachineCheckObserver: Send + Sync {
    fn on_machine_check(&self, mce: MachineCheck);
}

/// One physical-address window backed by a runtime datum.
struct MapEntry {
    structure: MemStructure,
    /// Word-address window (8-byte words, ECC granule).
    words: Range<u64>,
    /// The mapped datum's region id + the element index its first word
    /// corresponds to.
    region: Region,
    /// Words per element (1 for f64 vectors).
    words_per_elem: u64,
    label: String,
}

/// Address → region translation: which `DataHandle` region a physical
/// word belongs to, at element granularity. The runtime half of a
/// machine-check handler needs exactly this to turn "word 0x1400 of L2
/// is lost" into "elements 16..17 of `x` are poisoned".
#[derive(Default)]
pub struct RegionMap {
    entries: Vec<MapEntry>,
}

impl RegionMap {
    pub fn new() -> Self {
        RegionMap::default()
    }

    /// Map `words` (word addresses in `structure`) onto `region`,
    /// `words_per_elem` words per element. The window length must match
    /// the region's element count times `words_per_elem`.
    pub fn insert(
        &mut self,
        structure: MemStructure,
        words: Range<u64>,
        region: Region,
        words_per_elem: u64,
        label: impl Into<String>,
    ) {
        assert!(words_per_elem >= 1);
        assert_eq!(
            words.end - words.start,
            (region.range.end - region.range.start) * words_per_elem,
            "address window and region must cover the same elements"
        );
        self.entries.push(MapEntry {
            structure,
            words,
            region,
            words_per_elem,
            label: label.into(),
        });
    }

    /// The single-element region containing physical word `addr` of
    /// `structure`, with the mapping's label.
    pub fn resolve(&self, structure: MemStructure, addr: u64) -> Option<(Region, &str)> {
        self.entries
            .iter()
            .find(|e| e.structure == structure && e.words.contains(&addr))
            .map(|e| {
                let elem = e.region.range.start + (addr - e.words.start) / e.words_per_elem;
                (
                    Region::new(e.region.id, RegionRange::new(elem, elem + 1)),
                    e.label.as_str(),
                )
            })
    }
}

/// The machine-check router: translates hardware DUEs into poisoned
/// runtime regions, closing the loop the paper assumes ("DUEs arrive
/// detected"). Corrected events are only counted — data is intact.
///
/// Wiring: build the router, [`MceRouter::map_region`] each datum the
/// hardware backs, [`MceRouter::attach_runtime`], then deliver events
/// (directly or via [`MceRouter::deliver_ecc`] from a simulator ECC
/// domain). A DUE in a mapped word poisons its element-granular region:
/// pending readers fail with a typed `TaskError::Poisoned`, and a
/// recovery task that overwrites the range cleanses it — PR 1's
/// machinery, now driven by the hardware model instead of the injector.
pub struct MceRouter {
    map: Mutex<RegionMap>,
    runtime: Mutex<Option<Weak<Runtime>>>,
    pub corrected: AtomicU64,
    pub due: AtomicU64,
    /// DUEs in addresses no datum claims (logged, nothing to poison —
    /// e.g. a scrubbed line whose data was already evicted).
    pub unmapped: AtomicU64,
}

impl MceRouter {
    pub fn new() -> Arc<Self> {
        Arc::new(MceRouter {
            map: Mutex::new(RegionMap::new()),
            runtime: Mutex::new(None),
            corrected: AtomicU64::new(0),
            due: AtomicU64::new(0),
            unmapped: AtomicU64::new(0),
        })
    }

    /// Attach the runtime whose regions DUEs should poison. Held weakly:
    /// the router never keeps a dropped runtime alive.
    pub fn attach_runtime(&self, rt: &Arc<Runtime>) {
        *self.runtime.lock() = Some(Arc::downgrade(rt));
    }

    /// Register an address window (see [`RegionMap::insert`]).
    pub fn map_region(
        &self,
        structure: MemStructure,
        words: Range<u64>,
        region: Region,
        words_per_elem: u64,
        label: impl Into<String>,
    ) {
        self.map
            .lock()
            .insert(structure, words, region, words_per_elem, label);
    }

    /// Deliver simulator ECC events (demand checks or a scrub sweep's
    /// DUE list); silent events cannot arrive by construction.
    pub fn deliver_ecc(&self, events: impl IntoIterator<Item = EccEvent>) {
        for e in events {
            if let Some(mce) = MachineCheck::from_ecc(&e) {
                self.on_machine_check(mce);
            }
        }
    }
}

impl MachineCheckObserver for MceRouter {
    fn on_machine_check(&self, mce: MachineCheck) {
        match mce.severity {
            MceSeverity::Corrected => {
                self.corrected.fetch_add(1, Ordering::Relaxed);
            }
            MceSeverity::Due => {
                self.due.fetch_add(1, Ordering::Relaxed);
                let map = self.map.lock();
                let Some((region, label)) = map.resolve(mce.structure, mce.addr) else {
                    self.unmapped.fetch_add(1, Ordering::Relaxed);
                    return;
                };
                let label = format!(
                    "{:?} DUE @word {:#x} -> '{}'[{}]",
                    mce.structure, mce.addr, label, region.range.start
                );
                drop(map);
                let rt = self.runtime.lock().as_ref().and_then(Weak::upgrade);
                if let Some(rt) = rt {
                    rt.poison_region(region, label);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw(cores: usize) -> SimulatedHardware {
        SimulatedHardware::new(
            cores,
            DvfsTable::low_nominal_turbo(),
            PowerParams::nominal_budget(cores),
        )
    }

    #[test]
    fn critical_tasks_get_the_fastest_state() {
        let h = hw(8);
        let g = h.notify_task(0, TaskId(1), Criticality::Critical);
        assert!((g.freq - 1.3).abs() < 1e-9);
        let g = h.notify_task(1, TaskId(2), Criticality::NonCritical);
        assert!((g.freq - 0.8).abs() < 1e-9);
        let g = h.notify_task(2, TaskId(3), Criticality::Auto);
        assert!((g.freq - 1.0).abs() < 1e-9);
        assert_eq!(h.grants(), 3);
    }

    #[test]
    fn headroom_shrinks_and_recovers() {
        let h = hw(4);
        let before = h.power_headroom();
        h.notify_task(0, TaskId(0), Criticality::Critical);
        let during = h.power_headroom();
        assert!(during < before);
        h.task_done(0);
        assert!((h.power_headroom() - before).abs() < 1e-9);
    }

    #[test]
    fn budget_demotes_excess_critical_tasks() {
        let h = hw(4);
        for c in 0..4 {
            h.notify_task(c, TaskId(c as u32), Criticality::Critical);
        }
        assert!(h.demotions() >= 1);
        assert!(h.power_headroom() >= -1e-9);
    }

    #[test]
    fn rsu_driver_observes_a_real_runtime() {
        use raa_runtime::{Criticality as C, Runtime, RuntimeConfig};
        // Budget sized for 4 cores, two of them running tasks.
        let driver = RsuDriver::new(4);
        let rt = Runtime::new(RuntimeConfig::with_workers(2).observer(driver.clone()));
        for i in 0..40 {
            rt.task(format!("t{i}"))
                .criticality(if i % 4 == 0 {
                    C::Critical
                } else {
                    C::NonCritical
                })
                .body(std::thread::yield_now)
                .spawn();
        }
        rt.taskwait();
        // Only one turbo grant fits the budget at a time, so how many of
        // the ten critical tasks get turbo depends on how the two
        // workers interleave. What holds for every interleaving:
        let turbo = driver.turbo_grants.load(Ordering::Relaxed);
        let low = driver.low_grants.load(Ordering::Relaxed);
        let other = driver.other_grants.load(Ordering::Relaxed);
        let demoted = driver.hardware().demotions();
        assert_eq!(driver.grants(), 40, "one grant per task");
        assert_eq!(driver.hardware().grants(), 40, "each through the RSU");
        assert_eq!(
            turbo + demoted,
            10,
            "a critical task gets turbo or is counted as demoted"
        );
        assert!(turbo >= 1, "the first critical task finds the budget free");
        // A non-critical task asks for the lowest state and always gets
        // it: nothing but a demoted critical task adds to low + other,
        // so critical tasks are never granted below non-critical ones.
        assert_eq!(low + other, 30 + demoted);
        assert!(low >= 30, "non-critical tasks run low-power");
        // Every grant released: the budget is back to an idle chip's.
        let idle = RsuDriver::new(4).hardware().power_headroom();
        assert!((driver.hardware().power_headroom() - idle).abs() < 1e-9);
    }

    #[test]
    fn panicking_task_releases_its_grant() {
        use raa_runtime::{Runtime, RuntimeConfig};
        let driver = RsuDriver::new(4);
        let rt = Runtime::new(RuntimeConfig::with_workers(2).observer(driver.clone()));
        let full = driver.hardware().power_headroom();
        rt.task("boom").body(|| panic!("kaput")).spawn();
        rt.task("fine").body(|| {}).spawn();
        let report = rt.try_taskwait().unwrap_err();
        assert_eq!(report.len(), 1);
        assert_eq!(driver.fault_events.load(Ordering::Relaxed), 1);
        assert!(
            (driver.hardware().power_headroom() - full).abs() < 1e-9,
            "the panicked attempt must release its core's grant"
        );
    }

    #[test]
    fn skipped_task_leaks_no_grant() {
        use raa_runtime::{Runtime, RuntimeConfig};
        let driver = RsuDriver::new(4);
        let rt = Runtime::new(RuntimeConfig::with_workers(2).observer(driver.clone()));
        let full = driver.hardware().power_headroom();
        let data = rt.register("v", vec![0.0f64; 8]);
        rt.poison_region(data.region(), "test DUE");
        let d = data.clone();
        rt.task("consume")
            .reads(&data)
            .body(move || {
                let _ = d.read();
            })
            .spawn();
        let report = rt.try_taskwait().unwrap_err();
        assert_eq!(report.len(), 1);
        assert_eq!(driver.skipped_events.load(Ordering::Relaxed), 1);
        assert_eq!(driver.grants(), 0, "the body never ran, no grant issued");
        assert!(
            (driver.hardware().power_headroom() - full).abs() < 1e-9,
            "a skip must not release (or hold) any core's grant"
        );
    }

    #[test]
    fn machine_check_lifts_only_visible_ecc_events() {
        let mk = |verdict| EccEvent {
            structure: MemStructure::L2,
            addr: 0x40,
            verdict,
        };
        assert_eq!(
            MachineCheck::from_ecc(&mk(EccVerdict::Corrected)).map(|m| m.severity),
            Some(MceSeverity::Corrected)
        );
        assert_eq!(
            MachineCheck::from_ecc(&mk(EccVerdict::Due)).map(|m| m.severity),
            Some(MceSeverity::Due)
        );
        assert!(MachineCheck::from_ecc(&mk(EccVerdict::Clean)).is_none());
        assert!(
            MachineCheck::from_ecc(&mk(EccVerdict::Silent)).is_none(),
            "silent corruption must never reach the machine-check path"
        );
    }

    #[test]
    fn region_map_resolves_to_element_granularity() {
        use raa_runtime::{RegionId, RegionRange};
        let mut map = RegionMap::new();
        // 64 elements of 'x' live at words 0x100..0x140 of DRAM.
        map.insert(
            MemStructure::Dram,
            0x100..0x140,
            Region::new(RegionId(7), RegionRange::new(0, 64)),
            1,
            "x",
        );
        let (r, label) = map.resolve(MemStructure::Dram, 0x11a).expect("mapped");
        assert_eq!(label, "x");
        assert_eq!(r.id, RegionId(7));
        assert_eq!((r.range.start, r.range.end), (0x1a, 0x1b));
        // Same address in another structure, or outside the window: no hit.
        assert!(map.resolve(MemStructure::L1, 0x11a).is_none());
        assert!(map.resolve(MemStructure::Dram, 0x140).is_none());
    }

    #[test]
    fn due_poisons_mapped_region_and_recovery_cleanses() {
        use raa_runtime::{RuntimeConfig, TaskError};
        let router = MceRouter::new();
        let rt = Arc::new(Runtime::new(RuntimeConfig::with_workers(2)));
        router.attach_runtime(&rt);
        let x = rt.register("x", vec![1.0f64; 32]);
        router.map_region(MemStructure::Dram, 0x200..0x220, x.sub(0, 32), 1, "x");
        // Corrected: telemetry only, nothing poisoned.
        router.on_machine_check(MachineCheck {
            structure: MemStructure::Dram,
            addr: 0x205,
            severity: MceSeverity::Corrected,
        });
        assert!(rt.poisoned_regions().is_empty());
        // DUE: element 5 of x is poisoned through the PR 1 machinery.
        router.on_machine_check(MachineCheck {
            structure: MemStructure::Dram,
            addr: 0x205,
            severity: MceSeverity::Due,
        });
        assert_eq!(rt.poisoned_regions().len(), 1);
        let xr = x.clone();
        rt.task("consume")
            .reads(&x)
            .body(move || {
                let _ = xr.read();
            })
            .spawn();
        let report = rt.try_taskwait().expect_err("reader of lost data fails");
        match &report.failures[0].error {
            TaskError::Poisoned {
                source,
                source_label,
            } => {
                assert_eq!(*source, Runtime::HW_SOURCE);
                assert!(source_label.contains("Dram DUE"), "got '{source_label}'");
            }
            e => panic!("expected poison, got {e}"),
        }
        // FEIR-style repair: overwrite the lost element, poison gone.
        let xw = x.clone();
        rt.task("repair")
            .region(x.sub(5, 6), raa_runtime::AccessMode::Write)
            .body(move || {
                xw.write()[5] = 0.0;
            })
            .spawn();
        rt.taskwait();
        assert!(rt.poisoned_regions().is_empty());
        assert_eq!(router.corrected.load(Ordering::Relaxed), 1);
        assert_eq!(router.due.load(Ordering::Relaxed), 1);
        assert_eq!(router.unmapped.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn unmapped_due_is_counted_not_fatal() {
        let router = MceRouter::new();
        let rt = Arc::new(Runtime::new(raa_runtime::RuntimeConfig::with_workers(1)));
        router.attach_runtime(&rt);
        router.on_machine_check(MachineCheck {
            structure: MemStructure::L1,
            addr: 0xdead,
            severity: MceSeverity::Due,
        });
        assert_eq!(router.unmapped.load(Ordering::Relaxed), 1);
        assert!(rt.poisoned_regions().is_empty());
    }

    #[test]
    fn simulated_due_surfaces_through_deliver_ecc() {
        use raa_sim::energy::{EnergyBreakdown, EnergyModel};
        use raa_sim::fault::EccDomain;
        // A double-bit upset in a simulated SPM word, detected on demand
        // access, ends up poisoning the mapped runtime region — the full
        // hardware → machine check → poison vertical.
        let router = MceRouter::new();
        let rt = Arc::new(Runtime::new(raa_runtime::RuntimeConfig::with_workers(2)));
        router.attach_runtime(&rt);
        let v = rt.register("v", vec![0.0f64; 8]);
        router.map_region(MemStructure::Spm, 0x10..0x18, v.sub(0, 8), 1, "v");
        let mut dom = EccDomain::new(MemStructure::Spm, (0x10..0x18).collect());
        dom.inject_word(0x13, (1 << 9) | (1 << 41));
        let model = EnergyModel::default();
        let mut energy = EnergyBreakdown::default();
        let events: Vec<EccEvent> = dom
            .population()
            .to_vec()
            .into_iter()
            .map(|w| dom.access(w, &model, &mut energy))
            .collect();
        router.deliver_ecc(events);
        assert_eq!(router.due.load(Ordering::Relaxed), 1);
        let poisoned = rt.poisoned_regions();
        assert_eq!(poisoned.len(), 1);
        assert_eq!((poisoned[0].range.start, poisoned[0].range.end), (3, 4));
    }
}
