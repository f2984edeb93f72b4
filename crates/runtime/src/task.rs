//! Task identity, metadata, and the in-flight task slab.

use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::region::{Access, Region};
use crate::scheduler::ReadyTask;

/// Dense task identifier, assigned in spawn order.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

impl TaskId {
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Programmer-annotated criticality, as proposed in §3.1 of the paper
/// ("task criticality can be simply annotated by the programmer").
///
/// [`Criticality::Auto`] defers to the runtime's bottom-level analysis when
/// the TDG is known (the CATS-style policy of the schedule simulator).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub enum Criticality {
    /// Let the runtime decide from the TDG shape.
    #[default]
    Auto,
    /// On the critical path: prefer fast cores / high frequency.
    Critical,
    /// Off the critical path: may run slow to save energy.
    NonCritical,
}

/// Static metadata carried by every task.
#[derive(Clone, Debug)]
pub struct TaskMeta {
    /// Human-readable label (`"spmv[3]"`, `"fft-pass"`, ...). A literal
    /// costs no allocation from builder to slot to failure report.
    pub label: Cow<'static, str>,
    /// Declared region accesses, in declaration order.
    pub accesses: Vec<Access>,
    /// Cost hint in abstract work units (cycles at nominal frequency).
    /// Used by the criticality analysis and the schedule simulator; the
    /// real executor ignores it.
    pub cost: u64,
    /// Programmer criticality annotation.
    pub criticality: Criticality,
    /// Scheduling priority; higher runs earlier among ready tasks.
    pub priority: i32,
    /// The programmer promises re-executing the body is safe; the retry
    /// policy only re-runs tasks carrying this flag.
    pub idempotent: bool,
}

impl TaskMeta {
    pub fn new(label: impl Into<String>) -> Self {
        Self::labelled(label.into())
    }

    /// Like [`TaskMeta::new`] without the copy: a `&'static str` is
    /// borrowed, an owned `String` is moved.
    pub(crate) fn labelled(label: impl Into<Cow<'static, str>>) -> Self {
        TaskMeta {
            label: label.into(),
            accesses: Vec::new(),
            cost: 1,
            criticality: Criticality::Auto,
            priority: 0,
            idempotent: false,
        }
    }

    /// The task declares accesses: it goes through the dependency
    /// tracker, so its slot is filled *before* the tracker publishes it
    /// (`Runtime::fill_slot`); any other task's slot is filled under
    /// `wire_spawn`'s lock. Every site that decides who fills asks here.
    pub(crate) fn tracked(&self) -> bool {
        !self.accesses.is_empty()
    }

    /// True when any declared access writes.
    pub fn has_writes(&self) -> bool {
        self.accesses.iter().any(|a| a.mode.writes())
    }
}

/// The closure payload of a real (executable) task.
pub type TaskBody = Box<dyn FnOnce() + Send + 'static>;

/// The executable payload a task carries through the scheduler: either a
/// one-shot closure (the default; consumed on first run) or a re-runnable
/// closure for tasks declared idempotent, which retry policies may
/// execute again after a failed attempt.
pub enum ExecBody {
    /// Runs at most once; the `Option` is taken on execution.
    Once(Option<TaskBody>),
    /// May run any number of times.
    Retryable(Arc<dyn Fn() + Send + Sync + 'static>),
}

impl ExecBody {
    /// A one-shot body.
    pub fn once(f: impl FnOnce() + Send + 'static) -> Self {
        ExecBody::Once(Some(Box::new(f)))
    }

    /// A re-runnable body.
    pub fn retryable(f: impl Fn() + Send + Sync + 'static) -> Self {
        ExecBody::Retryable(Arc::new(f))
    }

    /// Execute the payload. Panics if a [`ExecBody::Once`] body is run a
    /// second time — the runtime only re-runs retryable bodies.
    pub fn run(&mut self) {
        match self {
            ExecBody::Once(f) => (f.take().expect("a once-body must not run twice"))(),
            ExecBody::Retryable(f) => f(),
        }
    }

    /// True when the body may be executed again after a failure.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ExecBody::Retryable(_))
    }

    /// A second handle to the same payload, when the body supports
    /// concurrent re-execution. Only retryable bodies can be duplicated
    /// (the hedged-execution path clones the `Arc`); one-shot bodies
    /// return `None`.
    pub fn duplicate(&self) -> Option<ExecBody> {
        match self {
            ExecBody::Once(_) => None,
            ExecBody::Retryable(f) => Some(ExecBody::Retryable(Arc::clone(f))),
        }
    }
}

impl fmt::Debug for ExecBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecBody::Once(Some(_)) => f.write_str("ExecBody::Once"),
            ExecBody::Once(None) => f.write_str("ExecBody::Once(<spent>)"),
            ExecBody::Retryable(_) => f.write_str("ExecBody::Retryable"),
        }
    }
}

// ------------------------------------------------------------ task slab
//
// In-flight task bookkeeping lives in a paged slab instead of a global
// `Mutex<HashMap>`: spawn allocates a slot, completion frees it for
// reuse, and all cross-task traffic goes through per-slot state — two
// concurrent spawns or completions on unrelated tasks never touch the
// same lock. Reused slots keep their `Vec` capacities, killing
// per-spawn heap churn.
//
// Slot recycling is *owner-local*: every thread that allocates claims
// whole pages into a per-thread owner context whose free list only that
// thread touches (a plain mutex, uncontended by construction — two
// threads can only meet on it through a modulo collision of their
// context ids). A thread freeing a slot it does not own pushes it onto
// the owner's MPSC remote-free sideband (a Treiber stack linked through
// the slots themselves); the owner drains the sideband in bulk when its
// local list runs dry. Allocation therefore never takes a contended
// lock and never touches another thread's cache lines in steady state.

/// Slots per page (a page is allocated lazily, never freed until drop).
const PAGE_SIZE: usize = 1 << 12;
/// First-level page table size: `MAX_PAGES * PAGE_SIZE` concurrently
/// *live* tasks (slots are reused, so total task count is unbounded).
const MAX_PAGES: usize = 1 << 12;
/// Owner contexts: thread ids map onto these modulo the table size, so
/// a collision degrades to sharing (the mutex makes that safe), never
/// to corruption.
const OWNER_CTXS: usize = 64;
/// Empty remote-free sideband.
const NIL: u32 = u32::MAX;

/// A stable reference to a task occupying slab slot `slot` at generation
/// `gen`. The generation disambiguates reuse: if `slot`'s generation no
/// longer matches, the referenced task has completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskRef {
    pub tid: TaskId,
    pub slot: u32,
    pub gen: u64,
}

/// Mutable per-task state, guarded by the slot's own mutex.
#[derive(Default)]
pub struct SlotState {
    pub tid: TaskId,
    pub cost: u64,
    pub priority: i32,
    /// As annotated (`NonCritical` in a sheddable job). `Auto` lasts
    /// until the task becomes ready: the release stores its decision
    /// here, so retries and hedged duplicates reuse it.
    pub criticality: Criticality,
    /// Estimated bottom level: exact over the task's own batch, raised
    /// by every successor wired later as it joins `succs` (one hop).
    pub bl: u64,
    pub idempotent: bool,
    pub exempt: bool,
    pub completed: bool,
    /// Execution attempts that have failed so far.
    pub attempts: u32,
    /// Moved in from the task's [`TaskMeta`]; an owned label is dropped
    /// when the slot retires, a literal never touches the allocator.
    pub label: Cow<'static, str>,
    pub body: Option<ExecBody>,
    /// Slot indices of successors to release on completion.
    pub succs: Vec<u32>,
    /// Declared regions, split by direction (poison bookkeeping).
    pub reads: Vec<Region>,
    pub writes: Vec<Region>,
    /// Set when an upstream failure poisoned a region this task reads.
    pub poisoned_by: Option<(TaskId, String)>,
    /// The submitted job this task belongs to. `None` means the
    /// runtime's default job: its tasks resolve it from the runtime and
    /// never touch its reference count.
    pub(crate) job: Option<Arc<crate::job::JobState>>,
    /// When a submitted job's task was admitted; taken by its first
    /// dispatch, which samples the admission→dispatch delay — retries
    /// and hedged duplicates find `None` and record nothing.
    pub(crate) admitted_at: Option<std::time::Instant>,
    /// Set by the preflight when the task was skipped because its job
    /// was cancelled.
    pub cancelled: bool,
    /// Absolute job deadline in nanoseconds since the runtime epoch
    /// (`crate::scheduler::NO_DEADLINE` when the job has none); copied
    /// onto every [`crate::scheduler::ReadyTask`] dispatched for this
    /// slot so the EDF tie-break survives retries and releases.
    pub deadline_ns: u64,
    /// Home cluster derived from the task's declared region/SPM
    /// footprint (`crate::scheduler::NO_HOME` when it has none or the
    /// topology is flat); copied onto every dispatched `ReadyTask` so
    /// locality routing survives retries, releases and hedges.
    pub home: u32,
    /// A hedged duplicate has already been dispatched for this attempt;
    /// at most one hedge per task, ever.
    pub hedged: bool,
    /// Duplicate handle to the body, kept only for idempotent tasks when
    /// hedging is enabled — the watchdog clones it to race a straggling
    /// attempt.
    pub(crate) hedge_body: Option<ExecBody>,
}

impl SlotState {
    /// The dispatchable view of this slot's task: the scheduling keys
    /// travel with `body`, everything else stays behind in the slot.
    pub(crate) fn ready(&self, slot: u32, gen: u64, body: ExecBody) -> ReadyTask {
        ReadyTask {
            id: self.tid,
            slot,
            gen,
            priority: self.priority,
            critical: self.criticality == Criticality::Critical,
            deadline_ns: self.deadline_ns,
            home: self.home,
            probe: self.job.is_some(),
            exempt: self.exempt,
            seq: 0,
            body,
        }
    }

    /// Reset for reuse, keeping the `Vec` allocations.
    fn clear(&mut self) {
        self.tid = TaskId(0);
        self.cost = 0;
        self.priority = 0;
        self.criticality = Criticality::Auto;
        self.bl = 0;
        self.idempotent = false;
        self.exempt = false;
        self.completed = false;
        self.attempts = 0;
        self.label = Cow::Borrowed("");
        self.body = None;
        self.succs.clear();
        self.reads.clear();
        self.writes.clear();
        self.poisoned_by = None;
        self.job = None;
        self.admitted_at = None;
        self.cancelled = false;
        self.deadline_ns = crate::scheduler::NO_DEADLINE;
        self.home = crate::scheduler::NO_HOME;
        self.hedged = false;
        self.hedge_body = None;
    }
}

/// One slab slot. `gen` is even while free, odd while live; it advances
/// on every alloc and free, so a stale `(slot, gen)` pair can always be
/// detected. `pending` sits outside the mutex: it is hammered by
/// predecessors completing.
pub struct TaskSlot {
    pub gen: AtomicU64,
    /// Unfinished predecessors + 1 submission guard (held by the
    /// spawning thread until wiring is complete; until then the count
    /// also carries the edges that turn out stale).
    pub pending: AtomicU32,
    /// Intrusive link of the owner's remote-free Treiber stack; only
    /// meaningful while the slot sits on a sideband.
    free_next: AtomicU32,
    pub state: Mutex<SlotState>,
}

impl TaskSlot {
    /// Lock the state if the slot still holds the unsettled task that
    /// was live at generation `gen`; `None` once that task settled (a
    /// hedged twin got there first), whether or not the slot has been
    /// reused since. The generation moves under this lock (see
    /// [`TaskSlab::retire`]), so the answer is exact.
    pub fn lock_live(&self, gen: u64) -> Option<parking_lot::MutexGuard<'_, SlotState>> {
        let st = self.state.lock();
        (self.gen.load(Ordering::Acquire) == gen && !st.completed).then_some(st)
    }

    fn new() -> Self {
        TaskSlot {
            gen: AtomicU64::new(0),
            pending: AtomicU32::new(0),
            free_next: AtomicU32::new(NIL),
            state: Mutex::new(SlotState::default()),
        }
    }
}

struct SlabPage {
    slots: Vec<TaskSlot>,
}

/// One thread's slot-recycling context, padded to its own cache lines.
#[repr(align(128))]
struct OwnerCtx {
    /// Local free list. Only the owning thread (or a modulo-collided
    /// sibling) ever locks it, so the mutex is uncontended in steady
    /// state.
    free: Mutex<Vec<u32>>,
    /// Head of the remote-free sideband: slots freed by *other* threads,
    /// linked through [`TaskSlot::free_next`], drained in bulk by the
    /// owner.
    remote: AtomicU32,
    /// Frees this thread performed into its own list (monotonic).
    local_frees: AtomicU64,
    /// Frees this thread pushed onto some *other* owner's sideband.
    remote_frees: AtomicU64,
}

impl OwnerCtx {
    fn new() -> Self {
        OwnerCtx {
            free: Mutex::new(Vec::new()),
            remote: AtomicU32::new(NIL),
            local_frees: AtomicU64::new(0),
            remote_frees: AtomicU64::new(0),
        }
    }
}

/// Paged, generation-counted task slab with per-owner page claims.
pub struct TaskSlab {
    pages: Box<[AtomicPtr<SlabPage>]>,
    /// Owner context id of each claimed page (frees route on this).
    page_owner: Box<[AtomicU32]>,
    ctxs: Box<[OwnerCtx]>,
    /// Next unclaimed page.
    next_page: AtomicU32,
    /// Slots handed out at least once (scan bound for [`TaskSlab::for_each_live`]).
    high_water: AtomicU32,
}

impl Default for TaskSlab {
    fn default() -> Self {
        Self::new()
    }
}

static NEXT_THREAD_CTX: AtomicU32 = AtomicU32::new(0);
thread_local! {
    static THREAD_CTX: std::cell::Cell<u32> = const { std::cell::Cell::new(NIL) };
}

impl TaskSlab {
    pub fn new() -> Self {
        TaskSlab {
            pages: (0..MAX_PAGES)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            page_owner: (0..MAX_PAGES).map(|_| AtomicU32::new(0)).collect(),
            ctxs: (0..OWNER_CTXS).map(|_| OwnerCtx::new()).collect(),
            next_page: AtomicU32::new(0),
            high_water: AtomicU32::new(0),
        }
    }

    /// This thread's owner-context index (assigned on first use,
    /// process-wide, folded onto the context table).
    fn ctx_id() -> usize {
        THREAD_CTX.with(|c| {
            let v = c.get();
            if v != NIL {
                return v as usize;
            }
            let id = NEXT_THREAD_CTX.fetch_add(1, Ordering::Relaxed) % OWNER_CTXS as u32;
            c.set(id);
            id as usize
        })
    }

    fn page(&self, p: usize) -> &SlabPage {
        assert!(p < MAX_PAGES, "task slab exhausted");
        let ptr = self.pages[p].load(Ordering::Acquire);
        if !ptr.is_null() {
            return unsafe { &*ptr };
        }
        let fresh = Box::into_raw(Box::new(SlabPage {
            slots: (0..PAGE_SIZE).map(|_| TaskSlot::new()).collect(),
        }));
        match self.pages[p].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => unsafe { &*fresh },
            Err(existing) => {
                unsafe { drop(Box::from_raw(fresh)) };
                unsafe { &*existing }
            }
        }
    }

    /// The slot at `idx` (its page must have been allocated, i.e. `idx`
    /// came from [`TaskSlab::alloc`]).
    pub fn slot(&self, idx: u32) -> &TaskSlot {
        let ptr = self.pages[idx as usize / PAGE_SIZE].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        let page = unsafe { &*ptr };
        &page.slots[idx as usize % PAGE_SIZE]
    }

    /// Mark a reclaimed slot live: reset the submission guard and bump
    /// the generation to odd.
    fn make_live(&self, idx: u32) -> (u32, u64) {
        let slot = self.slot(idx);
        slot.pending.store(1, Ordering::Relaxed);
        let gen = slot.gen.fetch_add(1, Ordering::AcqRel) + 1;
        debug_assert!(gen % 2 == 1, "alloc must take a free slot");
        (idx, gen)
    }

    /// Move everything on `ctx`'s remote-free sideband into `list`.
    /// Returns how many slots arrived. One `swap` detaches the whole
    /// stack, so concurrent remote frees never block the drain.
    fn drain_remote(&self, ctx: &OwnerCtx, list: &mut Vec<u32>) -> usize {
        let mut head = ctx.remote.swap(NIL, Ordering::Acquire);
        let mut n = 0;
        while head != NIL {
            let next = self.slot(head).free_next.load(Ordering::Relaxed);
            list.push(head);
            head = next;
            n += 1;
        }
        n
    }

    /// Claim one whole fresh page for owner context `me`, pushing every
    /// slot of it (highest first, so pops come out ascending) onto
    /// `list`.
    fn claim_page(&self, me: usize, list: &mut Vec<u32>) {
        let p = self.next_page.fetch_add(1, Ordering::Relaxed) as usize;
        assert!(p < MAX_PAGES, "task slab exhausted");
        self.page(p);
        self.page_owner[p].store(me as u32, Ordering::Release);
        let base = (p * PAGE_SIZE) as u32;
        self.high_water
            .fetch_max(base + PAGE_SIZE as u32, Ordering::AcqRel);
        list.extend((base..base + PAGE_SIZE as u32).rev());
    }

    /// Allocate a live slot: `(index, live generation)`. The slot's state
    /// is cleared; `pending` starts at 1 (the submission guard).
    pub fn alloc(&self) -> (u32, u64) {
        let me = Self::ctx_id();
        let ctx = &self.ctxs[me];
        let mut list = ctx.free.lock();
        loop {
            if let Some(idx) = list.pop() {
                drop(list);
                return self.make_live(idx);
            }
            if self.drain_remote(ctx, &mut list) == 0 {
                self.claim_page(me, &mut list);
            }
        }
    }

    /// Allocate `n` live slots in one pass over the owner context: one
    /// lock of the local free list, at most one sideband drain, and at
    /// most `ceil` page claims — the slab half of the batched-spawn
    /// protocol.
    pub fn alloc_many(&self, n: usize, out: &mut Vec<(u32, u64)>) {
        let me = Self::ctx_id();
        let ctx = &self.ctxs[me];
        let start = out.len();
        let mut list = ctx.free.lock();
        while out.len() - start < n {
            if let Some(idx) = list.pop() {
                out.push((idx, 0));
            } else if self.drain_remote(ctx, &mut list) == 0 {
                self.claim_page(me, &mut list);
            }
        }
        drop(list);
        for e in &mut out[start..] {
            *e = self.make_live(e.0);
        }
    }

    /// Retire a settled task's slot under the caller's lock on its state
    /// (the caller must be the sole settler of the task): bump the
    /// generation to even and reset the state, in that order and inside
    /// one critical section — anyone holding a stale `(slot, gen)` pair
    /// who locks the state afterwards sees the moved-on generation.
    /// Follow with [`TaskSlab::recycle`] once the lock is released.
    pub fn retire(&self, idx: u32, st: &mut SlotState) {
        let slot = self.slot(idx);
        let gen = slot.gen.fetch_add(1, Ordering::AcqRel) + 1;
        debug_assert!(gen.is_multiple_of(2), "retire must release a live slot");
        st.clear();
    }

    /// Return a retired slot to the free list of the owner of its
    /// *page*: on the owning thread that is a push onto a list nobody
    /// else touches; anywhere else it is one CAS onto the owner's
    /// sideband.
    pub fn recycle(&self, idx: u32) {
        let slot = self.slot(idx);
        let owner = self.page_owner[idx as usize / PAGE_SIZE].load(Ordering::Acquire) as usize;
        let me = Self::ctx_id();
        if owner == me {
            let ctx = &self.ctxs[me];
            ctx.free.lock().push(idx);
            ctx.local_frees.fetch_add(1, Ordering::Relaxed);
        } else {
            let owner_ctx = &self.ctxs[owner];
            let mut head = owner_ctx.remote.load(Ordering::Relaxed);
            loop {
                slot.free_next.store(head, Ordering::Relaxed);
                match owner_ctx.remote.compare_exchange_weak(
                    head,
                    idx,
                    Ordering::Release,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(h) => head = h,
                }
            }
            self.ctxs[me].remote_frees.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`TaskSlab::retire`] + [`TaskSlab::recycle`] for a slot whose
    /// state the caller does not hold locked.
    #[cfg(test)]
    fn free(&self, idx: u32) {
        self.retire(idx, &mut self.slot(idx).state.lock());
        self.recycle(idx);
    }

    /// `(local_frees, remote_frees)` across every owner context — the
    /// slab's share of cross-thread recycling traffic for the contention
    /// report.
    pub fn free_stats(&self) -> (u64, u64) {
        let mut local = 0;
        let mut remote = 0;
        for ctx in self.ctxs.iter() {
            local += ctx.local_frees.load(Ordering::Relaxed);
            remote += ctx.remote_frees.load(Ordering::Relaxed);
        }
        (local, remote)
    }

    /// Visit every currently-live slot (rare path: poison marking).
    /// Mid-spawn slots may be visited with partially filled state; the
    /// spawn protocol re-checks the poison list after filling, so a miss
    /// here is never a miss overall.
    pub fn for_each_live(&self, mut f: impl FnMut(u32, &TaskSlot)) {
        let high = self.high_water.load(Ordering::Acquire);
        for idx in 0..high {
            let ptr = self.pages[idx as usize / PAGE_SIZE].load(Ordering::Acquire);
            if ptr.is_null() {
                continue;
            }
            let page = unsafe { &*ptr };
            let slot = &page.slots[idx as usize % PAGE_SIZE];
            if slot.gen.load(Ordering::Acquire) % 2 == 1 {
                f(idx, slot);
            }
        }
    }
}

impl Drop for TaskSlab {
    fn drop(&mut self) {
        for p in self.pages.iter() {
            let ptr = p.load(Ordering::Acquire);
            if !ptr.is_null() {
                unsafe { drop(Box::from_raw(ptr)) };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{AccessMode, DataHandle};

    #[test]
    fn meta_defaults() {
        let m = TaskMeta::new("t");
        assert_eq!(m.cost, 1);
        assert_eq!(m.criticality, Criticality::Auto);
        assert_eq!(m.priority, 0);
        assert!(!m.has_writes());
    }

    #[test]
    fn has_writes_detects_out_clauses() {
        let h = DataHandle::new("x", 0u8);
        let mut m = TaskMeta::new("t");
        m.accesses.push(crate::region::Access {
            region: h.region(),
            mode: AccessMode::Read,
        });
        assert!(!m.has_writes());
        m.accesses.push(crate::region::Access {
            region: h.region(),
            mode: AccessMode::ReadWrite,
        });
        assert!(m.has_writes());
    }

    #[test]
    fn task_id_debug_format() {
        assert_eq!(format!("{:?}", TaskId(42)), "t42");
    }

    #[test]
    fn slab_allocates_live_slots_and_reuses_freed_ones() {
        let slab = TaskSlab::new();
        let (a, ga) = slab.alloc();
        let (b, gb) = slab.alloc();
        assert_ne!(a, b);
        assert!(ga % 2 == 1 && gb % 2 == 1, "live generations are odd");
        assert_eq!(slab.slot(a).pending.load(Ordering::Relaxed), 1);
        slab.free(a);
        assert_eq!(slab.slot(a).gen.load(Ordering::Relaxed), ga + 1);
        let (c, gc) = slab.alloc();
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(gc, ga + 2, "generation advances across reuse");
    }

    #[test]
    fn slab_for_each_live_skips_free_slots() {
        let slab = TaskSlab::new();
        let (a, _) = slab.alloc();
        let (b, _) = slab.alloc();
        let (c, _) = slab.alloc();
        slab.free(b);
        let mut live = Vec::new();
        slab.for_each_live(|idx, _| live.push(idx));
        live.sort_unstable();
        assert_eq!(live, vec![a, c]);
    }

    #[test]
    fn slab_alloc_many_hands_out_unique_live_slots() {
        let slab = TaskSlab::new();
        let mut out = Vec::new();
        slab.alloc_many(100, &mut out);
        assert_eq!(out.len(), 100);
        let mut idxs: Vec<u32> = out.iter().map(|e| e.0).collect();
        idxs.sort_unstable();
        idxs.dedup();
        assert_eq!(idxs.len(), 100, "no duplicate slots");
        for &(idx, gen) in &out {
            assert!(gen % 2 == 1, "live generations are odd");
            assert_eq!(slab.slot(idx).pending.load(Ordering::Relaxed), 1);
        }
        // Frees recycle into the same owner context.
        for &(idx, _) in &out {
            slab.free(idx);
        }
        let mut again = Vec::new();
        slab.alloc_many(100, &mut again);
        let mut reused: Vec<u32> = again.iter().map(|e| e.0).collect();
        reused.sort_unstable();
        assert_eq!(idxs, reused, "batch alloc reuses the freed slots");
    }

    #[test]
    fn slab_remote_free_drains_back_to_page_owner() {
        let slab = std::sync::Arc::new(TaskSlab::new());
        // Exhaust the local free list so the next alloc must drain the
        // sideband (or claim a fresh page).
        let mut out = Vec::new();
        slab.alloc_many(PAGE_SIZE, &mut out);
        let victim = out[7].0;
        let s2 = std::sync::Arc::clone(&slab);
        std::thread::spawn(move || s2.free(victim)).join().unwrap();
        let (local, remote) = slab.free_stats();
        assert_eq!(local + remote, 1, "exactly one free recorded");
        let before = slab.high_water.load(Ordering::Relaxed);
        let (idx, gen) = slab.alloc();
        assert_eq!(
            idx, victim,
            "owner drains the sideband before claiming a page"
        );
        assert!(gen % 2 == 1);
        assert_eq!(
            slab.high_water.load(Ordering::Relaxed),
            before,
            "no fresh page was claimed"
        );
    }

    #[test]
    fn slab_state_capacities_survive_reuse() {
        let slab = TaskSlab::new();
        let (idx, _) = slab.alloc();
        {
            let mut s = slab.slot(idx).state.lock();
            s.label = "some-label".to_string().into();
            s.succs.extend([1, 2, 3]);
        }
        slab.free(idx);
        let (again, _) = slab.alloc();
        assert_eq!(again, idx);
        let s = slab.slot(again).state.lock();
        assert!(s.label.is_empty() && s.succs.is_empty());
        assert!(s.succs.capacity() >= 3, "reuse keeps the allocation");
        drop(s);

        // The same through a real spawn → settle → respawn cycle: what
        // the runtime's settle leaves in a retired slot is what the
        // slot's next task inherits. A writer and its reader are spawned
        // from a task body on the only worker, so the writer is still
        // pending when the reader wires its edge, and both slots are
        // freed on the thread that allocates them (LIFO reuse).
        let rt = Arc::new(crate::Runtime::new(crate::RuntimeConfig::with_workers(1)));
        let x = rt.register("x", 0u64);
        let cycle = || {
            let (inner, x) = (Arc::clone(&rt), x.clone());
            rt.task("outer")
                .body(move || {
                    inner.task("w".to_string()).writes(&x).body(|| {}).spawn();
                    inner.task("r").reads(&x).body(|| {}).spawn();
                })
                .spawn();
            rt.taskwait();
        };
        // `(generation, succs capacity, writes capacity)` of every slot
        // used so far; all of them are free (even generation) by now.
        let retired = || -> Vec<(u64, usize, usize)> {
            let slab = rt.slab();
            (0..slab.high_water.load(Ordering::Acquire))
                .map(|i| {
                    let st = slab.slot(i).state.lock();
                    let gen = slab.slot(i).gen.load(Ordering::Acquire);
                    assert!(st.label.is_empty() && st.succs.is_empty() && st.writes.is_empty());
                    (gen, st.succs.capacity(), st.writes.capacity())
                })
                .filter(|&(gen, ..)| gen > 0)
                .collect()
        };
        cycle();
        let kept = |slots: &[(u64, usize, usize)]| slots.iter().any(|&(_, s, w)| s >= 1 && w >= 1);
        assert!(
            kept(&retired()),
            "the settled writer's slot keeps its successor and write-region buffers"
        );
        cycle();
        let after = retired();
        assert!(
            after.iter().filter(|&&(gen, ..)| gen >= 4).count() >= 2,
            "the second cycle reused the first one's slots: {after:?}"
        );
        assert!(kept(&after), "and the buffers are still there");
    }
}
