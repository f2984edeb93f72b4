//! Always-compiled, off-by-default runtime tracing.
//!
//! Every scheduling decision the lock-free hot path makes — spawn, ready,
//! enqueue target, steal outcome, park/unpark, start, complete, fault,
//! retry, poison — can be recorded as a fixed-size POD [`TraceEvent`]
//! into a per-worker bounded SPSC ring buffer. Workers write lock-free to
//! their own ring; threads that are not workers of this runtime (the main
//! thread spawning, the retry timer, watchdog respawns racing a drain)
//! fall back to a mutex-guarded *external* ring so the per-worker rings
//! stay strictly single-producer. Rings are bounded: when one fills, new
//! events are counted as dropped rather than blocking the hot path.
//!
//! Timestamps are captured as raw TSC ticks on x86_64 (an `Instant` read
//! costs ~25ns — too much for a ~600ns/task spawn path) and rescaled to
//! nanoseconds since the tracer's epoch at drain time. Per-track streams
//! are clamped monotone during the drain so exporters can rely on ordered
//! tracks.
//!
//! The consumer side is [`Trace`] (drained event tracks, one per worker
//! plus the external track) and [`TraceSession`], which fans task
//! lifecycle notifications out to both the tracer and the pre-existing
//! [`TaskObserver`] — the observer API is now just another trace consumer
//! and `RsuDriver`/`TimingRecorder` keep working unchanged.

use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::runtime::TaskObserver;
use crate::task::TaskId;

/// Sentinel task id for events not tied to a task (park/unpark, steal miss).
pub const NO_TASK: TaskId = TaskId(u32::MAX);

/// Worker id recorded on events emitted by threads that are not workers of
/// the traced runtime (main thread, retry timer, watchdog).
pub const EXTERNAL_WORKER: u32 = u32::MAX;

/// What happened. One byte; the rest of the event is the same POD shape
/// for every kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// Task submitted. `arg` = `preds << 1 | ready_at_spawn`.
    Spawn,
    /// Last predecessor completed; task became ready. `arg` unused.
    Ready,
    /// Ready task pushed onto the spawning/completing worker's own deque.
    EnqueueLocal,
    /// Ready task pushed onto the shared injector (`arg` = 1 if it was a
    /// spill after the local deque filled, 0 for a direct push).
    EnqueueInjector,
    /// Prioritised task pushed onto the overflow heap. `arg` = priority.
    EnqueueOverflow,
    /// Ready task pushed onto a global (fifo/lifo/heap policy) queue.
    EnqueueGlobal,
    /// A steal attempt succeeded. `arg` = tasks moved << 16 | victim
    /// worker: a steal-half is one event however many tasks it takes,
    /// while the `steals_ok` counter counts the tasks.
    StealOk,
    /// A full steal sweep found nothing. `arg` = number of workers swept.
    StealEmpty,
    /// The inter-cluster balancer migrated work across a cluster
    /// boundary. `arg` = the remote cluster (injector drain) or remote
    /// victim worker (deque steal) the batch came from.
    StealRemote,
    /// Worker went to sleep on the idle condvar.
    Park,
    /// Worker woke from the idle condvar.
    Unpark,
    /// Task body started executing. `arg` = 1 if predicted critical.
    Start,
    /// Task body finished successfully.
    Complete,
    /// Task body panicked (this attempt).
    Fault,
    /// Faulted task re-enqueued for another attempt. `arg` = attempts so far.
    Retry,
    /// Task skipped without running because an input region was poisoned.
    Skipped,
    /// A faulted task poisoned its output regions. `arg` = region count.
    Poisoned,
}

impl TraceEventKind {
    /// Short stable name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceEventKind::Spawn => "spawn",
            TraceEventKind::Ready => "ready",
            TraceEventKind::EnqueueLocal => "enqueue-local",
            TraceEventKind::EnqueueInjector => "enqueue-injector",
            TraceEventKind::EnqueueOverflow => "enqueue-overflow",
            TraceEventKind::EnqueueGlobal => "enqueue-global",
            TraceEventKind::StealOk => "steal-ok",
            TraceEventKind::StealEmpty => "steal-empty",
            TraceEventKind::StealRemote => "steal-remote",
            TraceEventKind::Park => "park",
            TraceEventKind::Unpark => "unpark",
            TraceEventKind::Start => "start",
            TraceEventKind::Complete => "complete",
            TraceEventKind::Fault => "fault",
            TraceEventKind::Retry => "retry",
            TraceEventKind::Skipped => "skipped",
            TraceEventKind::Poisoned => "poisoned",
        }
    }
}

/// One fixed-size POD trace record (32 bytes — two per cache line, so a
/// traced hot path streams half the memory a naive layout would).
///
/// `ts_ns` is raw clock ticks until [`Tracer::drain`] rescales it to
/// nanoseconds since the tracer epoch. `(slot, gen)` is the task's slab
/// reference at emit time, so exporters can tell retry attempts of the
/// same `TaskId` apart from slab-slot reuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the tracer epoch (raw ticks pre-drain).
    pub ts_ns: u64,
    /// Task this event concerns, or [`NO_TASK`].
    pub task: TaskId,
    /// Slab slot index, or 0 when unknown.
    pub slot: u32,
    /// Low 32 bits of the slab slot generation (odd = live), or 0 when
    /// unknown — ample to disambiguate attempts between drains.
    pub gen: u32,
    /// Kind-specific argument (see [`TraceEventKind`] docs).
    pub arg: u32,
    /// Worker that emitted the event, or [`EXTERNAL_WORKER`].
    pub worker: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

/// Bounded single-producer single-consumer ring of [`TraceEvent`]s.
///
/// The producer side is lock-free: one `Release` store per push. When the
/// ring is full the event is dropped and counted — tracing must never
/// block or grow on the hot path.
struct EventRing {
    slots: Box<[UnsafeCell<TraceEvent>]>,
    mask: usize,
    /// Producer cursor (written only by the producer).
    tail: AtomicUsize,
    /// Consumer cursor (written only by the consumer).
    head: AtomicUsize,
    /// Producer-private snapshot of `head`, refreshed only when the ring
    /// looks full — keeps the common push off the consumer's cache line.
    head_cache: Cell<usize>,
    dropped: AtomicU64,
}

// Safety: head/tail form the usual SPSC protocol — the producer only
// writes a slot before publishing it with a Release store of `tail`, the
// consumer only reads slots below an Acquire-loaded `tail`. `head_cache`
// is producer-private (a conservative snapshot of `head`). External
// callers uphold single-producer (one bound worker per ring; the external
// ring's producers serialise on `Tracer::ext_lock`).
unsafe impl Send for EventRing {}
unsafe impl Sync for EventRing {}

impl EventRing {
    fn new(capacity: usize) -> Self {
        assert!(capacity.is_power_of_two());
        let zero = TraceEvent {
            ts_ns: 0,
            task: NO_TASK,
            slot: 0,
            gen: 0,
            arg: 0,
            worker: 0,
            kind: TraceEventKind::Spawn,
        };
        EventRing {
            slots: (0..capacity).map(|_| UnsafeCell::new(zero)).collect(),
            mask: capacity - 1,
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            head_cache: Cell::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Producer side. Drops (and counts) the event when the ring is full.
    #[inline]
    fn push(&self, ev: TraceEvent) {
        let tail = self.tail.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.head_cache.get()) > self.mask {
            // Looks full against the snapshot — reload the live head
            // (the consumer may have drained since we last looked).
            self.head_cache.set(self.head.load(Ordering::Acquire));
            if tail.wrapping_sub(self.head_cache.get()) > self.mask {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        unsafe { *self.slots[tail & self.mask].get() = ev };
        // Rings are written once front-to-back in steady state, so every
        // other push opens a cold cache line and eats the
        // read-for-ownership miss. Prefetch a few lines ahead (events are
        // 32 B, two per line) to overlap that miss with runtime work —
        // this is what keeps traced empty-task throughput within the
        // ≤15% overhead budget on a DRAM-sized ring. (Non-temporal
        // streaming stores were tried instead and were 3x worse here:
        // the per-push sfence they need for a concurrent drain flushes
        // half-filled write-combining buffers synchronously.)
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_ET0};
            let ahead = tail.wrapping_add(8) & self.mask;
            _mm_prefetch::<_MM_HINT_ET0>(self.slots[ahead].get() as *const i8);
        }
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
    }

    /// Consumer side: copy out everything published so far.
    fn drain_into(&self, out: &mut Vec<TraceEvent>) {
        let tail = self.tail.load(Ordering::Acquire);
        let mut head = self.head.load(Ordering::Relaxed);
        while head != tail {
            out.push(unsafe { *self.slots[head & self.mask].get() });
            head = head.wrapping_add(1);
        }
        self.head.store(head, Ordering::Release);
    }
}

/// Cheap high-resolution clock: raw TSC reads on x86_64 (rescaled to
/// nanoseconds at drain time), `Instant` elapsed-ns elsewhere.
struct Clock {
    epoch: Instant,
    #[cfg(target_arch = "x86_64")]
    base: u64,
}

impl Clock {
    fn new() -> Self {
        Clock {
            epoch: Instant::now(),
            #[cfg(target_arch = "x86_64")]
            base: unsafe { core::arch::x86_64::_rdtsc() },
        }
    }

    /// Raw timestamp — ticks on x86_64, nanoseconds elsewhere.
    #[inline]
    fn raw(&self) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            unsafe { core::arch::x86_64::_rdtsc() }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self.epoch.elapsed().as_nanos() as u64
        }
    }

    /// Nanoseconds-per-raw-unit conversion factor, measured against the
    /// `Instant` epoch at drain time.
    fn ns_per_raw(&self) -> f64 {
        #[cfg(target_arch = "x86_64")]
        {
            let ns = self.epoch.elapsed().as_nanos() as f64;
            let ticks = self.raw().saturating_sub(self.base) as f64;
            if ticks > 0.0 && ns > 0.0 {
                ns / ticks
            } else {
                1.0
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            1.0
        }
    }

    /// Rescale a raw timestamp to nanoseconds since the epoch.
    fn rebase(&self, raw: u64, ns_per_raw: f64) -> u64 {
        #[cfg(target_arch = "x86_64")]
        {
            (raw.saturating_sub(self.base) as f64 * ns_per_raw) as u64
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = ns_per_raw;
            raw
        }
    }
}

/// Tracing configuration, set on `RuntimeConfig::tracing`.
#[derive(Clone, Debug)]
pub struct TraceConfig {
    /// Events buffered per worker ring (power of two). When a ring fills
    /// before the next drain, further events on that ring are dropped and
    /// counted in [`Trace::dropped`].
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 16 }
    }
}

impl TraceConfig {
    /// Config with an explicit per-ring capacity (power of two, >= 8).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= 8,
            "trace ring capacity must be a power of two >= 8"
        );
        TraceConfig { capacity }
    }
}

thread_local! {
    /// (tracer token, worker index) this thread is bound to, if any.
    /// The token check stops a worker of runtime A that spawns into
    /// runtime B from claiming one of B's SPSC rings.
    static BOUND: Cell<Option<(u64, u32)>> = const { Cell::new(None) };
}

/// The event sink: one SPSC ring per worker plus a shared external ring.
pub struct Tracer {
    /// Unique per-tracer id matched against the thread-local binding.
    token: u64,
    workers: usize,
    clock: Clock,
    /// `workers + 1` rings; index `workers` is the external ring.
    rings: Vec<EventRing>,
    /// Serialises producers on the external ring (keeping it SPSC).
    ext_lock: Mutex<()>,
    /// Serialises concurrent drains (each ring is single-consumer).
    drain_lock: Mutex<()>,
}

impl Tracer {
    pub fn new(workers: usize, config: &TraceConfig) -> Self {
        static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);
        Tracer {
            token: NEXT_TOKEN.fetch_add(1, Ordering::Relaxed),
            workers,
            clock: Clock::new(),
            rings: (0..=workers)
                .map(|_| EventRing::new(config.capacity))
                .collect(),
            ext_lock: Mutex::new(()),
            drain_lock: Mutex::new(()),
        }
    }

    /// Number of worker tracks (the drained [`Trace`] has one more, for
    /// external threads).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bind the calling thread as the single producer of worker `who`'s
    /// ring. Called from the worker loop on thread entry (including
    /// watchdog respawns, which take over the dead worker's ring — the
    /// dead thread is gone, so single-producer is preserved).
    pub(crate) fn bind_worker(&self, who: usize) {
        if who < self.workers {
            BOUND.with(|b| b.set(Some((self.token, who as u32))));
        }
    }

    /// Record one event. Lock-free when the calling thread is a bound
    /// worker of this tracer; other threads serialise on the external
    /// ring's mutex.
    #[inline]
    pub fn emit(&self, kind: TraceEventKind, task: TaskId, slot: u32, gen: u64, arg: u64) {
        let ts_ns = self.clock.raw();
        match BOUND.with(|b| b.get()) {
            Some((token, w)) if token == self.token => self.rings[w as usize].push(TraceEvent {
                ts_ns,
                task,
                slot,
                gen: gen as u32,
                arg: arg as u32,
                worker: w,
                kind,
            }),
            _ => {
                let _guard = self.ext_lock.lock().unwrap();
                self.rings[self.workers].push(TraceEvent {
                    ts_ns,
                    task,
                    slot,
                    gen: gen as u32,
                    arg: arg as u32,
                    worker: EXTERNAL_WORKER,
                    kind,
                });
            }
        }
    }

    /// Record one event only when the calling thread is a bound worker
    /// of this tracer; unbound threads skip it entirely (no clock read,
    /// no lock). Used for scheduler-side events whose external case is
    /// implied by the task's Spawn record — a ready-at-spawn task pushed
    /// from the spawning thread needs no separate enqueue event, and
    /// skipping it keeps the external spawn path at one traced event per
    /// task.
    #[inline]
    pub fn emit_from_worker(
        &self,
        kind: TraceEventKind,
        task: TaskId,
        slot: u32,
        gen: u64,
        arg: u64,
    ) {
        if let Some((token, w)) = BOUND.with(|b| b.get()) {
            if token == self.token {
                self.rings[w as usize].push(TraceEvent {
                    ts_ns: self.clock.raw(),
                    task,
                    slot,
                    gen: gen as u32,
                    arg: arg as u32,
                    worker: w,
                    kind,
                });
            }
        }
    }

    /// Copy out everything recorded since the last drain, rescaling raw
    /// timestamps to nanoseconds since the tracer epoch and clamping each
    /// track monotone.
    pub fn drain(&self) -> Trace {
        let _guard = self.drain_lock.lock().unwrap();
        let ns_per_raw = self.clock.ns_per_raw();
        let mut tracks = Vec::with_capacity(self.rings.len());
        let mut dropped = Vec::with_capacity(self.rings.len());
        for ring in &self.rings {
            let mut track = Vec::new();
            ring.drain_into(&mut track);
            let mut prev = 0u64;
            for ev in &mut track {
                let ns = self.clock.rebase(ev.ts_ns, ns_per_raw).max(prev);
                ev.ts_ns = ns;
                prev = ns;
            }
            tracks.push(track);
            dropped.push(ring.dropped.load(Ordering::Relaxed));
        }
        Trace {
            workers: self.workers,
            tracks,
            dropped,
        }
    }
}

/// A drained set of event tracks: one per worker, plus one trailing track
/// for external (non-worker) threads. Events within a track are in
/// emission order with monotone non-decreasing timestamps.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Worker count; `tracks[workers]` is the external track.
    pub workers: usize,
    pub tracks: Vec<Vec<TraceEvent>>,
    /// Cumulative per-ring dropped-event counts (ring full at emit time).
    pub dropped: Vec<u64>,
}

impl Trace {
    /// All events across all tracks, track-major.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.tracks.iter().flatten()
    }

    /// Total drained event count.
    pub fn len(&self) -> usize {
        self.tracks.iter().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.tracks.iter().all(Vec::is_empty)
    }

    /// Total events dropped to ring overflow since the tracer was built.
    pub fn dropped_total(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Count of events of one kind.
    pub fn count(&self, kind: TraceEventKind) -> u64 {
        self.events().filter(|e| e.kind == kind).count() as u64
    }

    /// Append a later drain from the same tracer, preserving per-track
    /// timestamp monotonicity. Dropped counts are cumulative, so the
    /// later drain's counts replace (not add to) ours.
    pub fn merge(&mut self, other: Trace) {
        assert_eq!(
            self.workers, other.workers,
            "merging traces from different tracers"
        );
        if self.tracks.is_empty() {
            *self = other;
            return;
        }
        for (dst, src) in self.tracks.iter_mut().zip(other.tracks) {
            let mut prev = dst.last().map(|e| e.ts_ns).unwrap_or(0);
            for mut ev in src {
                ev.ts_ns = ev.ts_ns.max(prev);
                prev = ev.ts_ns;
                dst.push(ev);
            }
        }
        self.dropped = other.dropped;
    }
}

/// Fans task lifecycle notifications out to the tracer (if tracing is
/// enabled), the user's [`TaskObserver`] (if one is installed), and the
/// [flight recorder](crate::flight::FlightRecorder) (if telemetry is
/// on). This is what the execution path calls; every consumer is
/// optional and the no-consumer fast path is three `Option` checks.
pub struct TraceSession {
    tracer: Option<Arc<Tracer>>,
    observer: Option<Arc<dyn TaskObserver>>,
    flight: Option<Arc<crate::flight::FlightRecorder>>,
}

impl TraceSession {
    pub fn new(tracer: Option<Arc<Tracer>>, observer: Option<Arc<dyn TaskObserver>>) -> Self {
        TraceSession {
            tracer,
            observer,
            flight: None,
        }
    }

    /// A session that also feeds the flight recorder's per-worker rings
    /// (sampled for high-rate kinds; faults and skips always).
    pub(crate) fn with_flight(
        tracer: Option<Arc<Tracer>>,
        observer: Option<Arc<dyn TaskObserver>>,
        flight: Option<Arc<crate::flight::FlightRecorder>>,
    ) -> Self {
        TraceSession {
            tracer,
            observer,
            flight,
        }
    }

    /// True when no consumer at all is installed.
    pub fn is_idle(&self) -> bool {
        self.tracer.is_none() && self.observer.is_none() && self.flight.is_none()
    }

    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.tracer.as_ref()
    }

    #[inline]
    fn worker() -> usize {
        crate::pool::current_worker().unwrap_or(0)
    }

    #[inline]
    pub fn task_start(&self, task: TaskId, slot: u32, gen: u64, critical: bool) {
        if let Some(t) = &self.tracer {
            t.emit(TraceEventKind::Start, task, slot, gen, critical as u64);
        }
        if let Some(o) = &self.observer {
            o.on_start(Self::worker(), task, critical);
        }
        if let Some(f) = &self.flight {
            if crate::flight::FlightRecorder::sampled(task) {
                f.record(TraceEventKind::Start, task, slot, gen, critical as u64);
            }
        }
    }

    #[inline]
    pub fn task_complete(&self, task: TaskId, slot: u32, gen: u64) {
        if let Some(t) = &self.tracer {
            t.emit(TraceEventKind::Complete, task, slot, gen, 0);
        }
        if let Some(o) = &self.observer {
            o.on_complete(Self::worker(), task);
        }
        if let Some(f) = &self.flight {
            if crate::flight::FlightRecorder::sampled(task) {
                f.record(TraceEventKind::Complete, task, slot, gen, 0);
            }
        }
    }

    #[inline]
    pub fn task_fault(&self, task: TaskId, slot: u32, gen: u64) {
        if let Some(t) = &self.tracer {
            t.emit(TraceEventKind::Fault, task, slot, gen, 0);
        }
        if let Some(o) = &self.observer {
            o.on_fault(Self::worker(), task);
        }
        if let Some(f) = &self.flight {
            f.record(TraceEventKind::Fault, task, slot, gen, 0);
        }
    }

    #[inline]
    pub fn task_skipped(&self, task: TaskId, slot: u32, gen: u64) {
        if let Some(t) = &self.tracer {
            t.emit(TraceEventKind::Skipped, task, slot, gen, 0);
        }
        if let Some(o) = &self.observer {
            o.on_skipped(Self::worker(), task);
        }
        if let Some(f) = &self.flight {
            f.record(TraceEventKind::Skipped, task, slot, gen, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer(workers: usize, capacity: usize) -> Tracer {
        Tracer::new(workers, &TraceConfig::with_capacity(capacity))
    }

    #[test]
    fn unbound_threads_write_the_external_ring() {
        let t = tracer(2, 64);
        t.emit(TraceEventKind::Spawn, TaskId(7), 3, 1, 0);
        let trace = t.drain();
        assert_eq!(trace.tracks.len(), 3);
        assert!(trace.tracks[0].is_empty());
        assert!(trace.tracks[1].is_empty());
        assert_eq!(trace.tracks[2].len(), 1);
        let ev = trace.tracks[2][0];
        assert_eq!(ev.task, TaskId(7));
        assert_eq!(ev.slot, 3);
        assert_eq!(ev.gen, 1);
        assert_eq!(ev.worker, EXTERNAL_WORKER);
    }

    #[test]
    fn bound_workers_write_their_own_ring() {
        let t = Arc::new(tracer(2, 64));
        let t2 = t.clone();
        std::thread::spawn(move || {
            t2.bind_worker(1);
            t2.emit(TraceEventKind::Start, TaskId(1), 0, 1, 0);
            t2.emit(TraceEventKind::Complete, TaskId(1), 0, 1, 0);
        })
        .join()
        .unwrap();
        let trace = t.drain();
        assert_eq!(trace.tracks[1].len(), 2);
        assert!(trace.tracks[0].is_empty());
        assert!(trace.tracks[2].is_empty());
        assert_eq!(trace.tracks[1][0].worker, 1);
        assert!(trace.tracks[1][0].ts_ns <= trace.tracks[1][1].ts_ns);
    }

    #[test]
    fn a_binding_for_another_tracer_does_not_leak_into_this_one() {
        let a = Arc::new(tracer(1, 64));
        let b = Arc::new(tracer(1, 64));
        let (a2, b2) = (a.clone(), b.clone());
        std::thread::spawn(move || {
            a2.bind_worker(0);
            // This thread is a worker of `a`, but emits into `b`: the
            // token mismatch must route to b's external ring, not claim
            // b's worker-0 SPSC ring.
            b2.emit(TraceEventKind::Spawn, TaskId(0), 0, 1, 0);
        })
        .join()
        .unwrap();
        let tb = b.drain();
        assert!(tb.tracks[0].is_empty());
        assert_eq!(tb.tracks[1].len(), 1);
        assert!(a.drain().is_empty());
    }

    #[test]
    fn full_ring_drops_are_counted_not_lost_silently() {
        let t = tracer(0, 8);
        for i in 0..20 {
            t.emit(TraceEventKind::Spawn, TaskId(i), 0, 1, 0);
        }
        let trace = t.drain();
        assert_eq!(trace.len(), 8);
        assert_eq!(trace.dropped_total(), 12);
        // After a drain the ring has room again.
        t.emit(TraceEventKind::Spawn, TaskId(99), 0, 1, 0);
        let again = t.drain();
        assert_eq!(again.len(), 1);
        assert_eq!(again.tracks[0][0].task, TaskId(99));
    }

    #[test]
    fn drained_tracks_are_monotone_and_merge_preserves_that() {
        let t = tracer(0, 64);
        for i in 0..10 {
            t.emit(TraceEventKind::Spawn, TaskId(i), 0, 1, 0);
        }
        let mut first = t.drain();
        for i in 10..20 {
            t.emit(TraceEventKind::Spawn, TaskId(i), 0, 1, 0);
        }
        first.merge(t.drain());
        assert_eq!(first.len(), 20);
        for track in &first.tracks {
            for pair in track.windows(2) {
                assert!(pair[0].ts_ns <= pair[1].ts_ns);
            }
        }
        let ids: Vec<u32> = first.tracks[0].iter().map(|e| e.task.0).collect();
        assert_eq!(ids, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn session_with_no_consumers_is_idle() {
        let s = TraceSession::new(None, None);
        assert!(s.is_idle());
        // Calls are harmless no-ops.
        s.task_start(TaskId(0), 0, 1, false);
        s.task_complete(TaskId(0), 0, 1);
    }
}
