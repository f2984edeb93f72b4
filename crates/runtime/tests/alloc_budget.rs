//! Heap-allocation budget of the task envelope: what one access-free,
//! literal-labelled task costs the allocator from `spawn` to settled,
//! and what one link of a dependency chain, or one task of a CG-shaped
//! phase, costs on top.
//!
//! The only allocation such a task needs is the box around its body.
//! Everything else — label, slot state, the run path's instrumentation —
//! is borrowed, moved or reused, and this test keeps it that way: a
//! per-task wrapper closure or a label copy shows up here as one more
//! allocation per task.
//!
//! One `#[test]` only: the counting allocator is process-wide, so a
//! second test running in parallel would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use raa_runtime::{AccessMode, BatchTask, JobSpec, Runtime, RuntimeConfig};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers every call to `System` unchanged; the counter is a
// relaxed atomic and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const TASKS: u64 = 10_000;

/// Allocations (on any thread) per task while `spawn_all` spawns
/// `TASKS` tasks and the runtime settles them.
fn allocs_per_task(rt: &Runtime, spawn_all: impl Fn(&'static AtomicU64)) -> f64 {
    // Each body captures one pointer, so its box is a real allocation
    // (a capture-free closure is zero-sized and boxes for free).
    let hits: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    // Warm-up: slab pages, queue segments and per-batch vectors reach
    // their steady-state sizes before anything is counted. Twice: a
    // round that claims a fresh slab page leaves part of it unused, and
    // the next round starts on those never-filled slots.
    for _ in 0..2 {
        spawn_all(hits);
        rt.taskwait();
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    spawn_all(hits);
    rt.taskwait();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(hits.load(Ordering::Relaxed), 3 * TASKS, "every body ran");
    allocs as f64 / TASKS as f64
}

#[test]
fn an_empty_task_allocates_its_body_box_and_little_else() {
    let rt = Runtime::new(RuntimeConfig::with_workers(1));

    let single = allocs_per_task(&rt, |hits| {
        for _ in 0..TASKS {
            rt.task("e")
                .body(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .spawn();
        }
    });
    assert!(
        single <= 2.0,
        "task().spawn(): {single:.2} allocations per task, budget 2"
    );

    let batched = allocs_per_task(&rt, |hits| {
        for _ in 0..TASKS / 1000 {
            let batch = (0..1000)
                .map(|_| {
                    BatchTask::new("e").body(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            rt.spawn_many(batch);
        }
    });
    assert!(
        batched <= 2.0,
        "spawn_many: {batched:.2} allocations per task, budget 2"
    );

    // A submitted job's task: 5 per task before the envelope went lean
    // (label, slot label copy, body box, instrumentation box, dispatch
    // probe box). The job layer must never cost more than that again.
    let job = rt.submit(JobSpec::new("tenant")).expect("admitted");
    let tenant = allocs_per_task(&rt, |hits| {
        for _ in 0..TASKS {
            job.task("e")
                .body(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .spawn();
        }
    });
    assert!(
        tenant <= 5.0,
        "JobHandle::task().spawn(): {tenant:.2} allocations per task, 5 before"
    );
    eprintln!("allocations per task: single {single:.3}, batched {batched:.3}, tenant {tenant:.3}");

    // Dependent tasks: a chain of `updates` on one datum. The lone
    // worker sits in a gate task while the chain is spawned, so every
    // link is wired behind an unfinished predecessor whatever the
    // machine's timing, and the count repeats.
    let x = rt.register("x", 0u64);
    let open: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let gated = |spawn_chain: &dyn Fn(&'static AtomicU64)| {
        allocs_per_task(&rt, |hits| {
            open.store(false, Ordering::Release);
            rt.task("gate")
                .body(move || {
                    while !open.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                })
                .spawn();
            spawn_chain(hits);
            open.store(true, Ordering::Release);
        })
    };
    let chain_batched = gated(&|hits| {
        for _ in 0..TASKS / 1000 {
            let batch = (0..1000)
                .map(|_| {
                    BatchTask::new("link").updates(&x).body(move || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    })
                })
                .collect();
            rt.spawn_many(batch);
        }
    });
    let chain_single = gated(&|hits| {
        for _ in 0..TASKS {
            rt.task("link")
                .updates(&x)
                .body(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                })
                .spawn();
        }
    });
    // Measured: 6.017 batched and 8.000 single while spawn walked the
    // TDG backwards (its stack) and the tracker rebuilt a region's
    // segment list on every access; 4.018 and 6.000 while every task got
    // a fresh predecessor list, every completion a fresh released list
    // and every single `submit` a shard-id and a shard-guard list; 2.007
    // and 2.000 now that the spawning thread and the worker loop own
    // those buffers. What is left: the body box and the access list.
    assert!(
        chain_batched <= 3.1,
        "spawn_many chain: {chain_batched:.2} allocations per link, budget 3"
    );
    assert!(
        chain_single <= 3.1,
        "task().updates().spawn() chain: {chain_single:.2} allocations per link, budget 3"
    );
    eprintln!("allocations per chain link: batched {chain_batched:.3}, single {chain_single:.3}");

    // CG-shaped: 16 block writers, then one task reading the whole
    // datum (16 predecessors, and one more entry on the reader list of
    // the tail no block covers), round after round. Measured: 5.47 per
    // task with the per-task lists, 2.12 without — the body box, the
    // access list, and a reader's successor list growing from 4 to 16
    // entries twice per round of 17, in a slot that last held a writer.
    let v = rt.register("v", 0u64);
    let cg_shaped = gated(&|hits| {
        for i in 0..TASKS {
            let task = match i % 17 {
                16 => rt.task("dot").reads(&v),
                block => rt
                    .task("axpy")
                    .region(v.sub(block * 64, (block + 1) * 64), AccessMode::Write),
            };
            task.body(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            })
            .spawn();
        }
    });
    assert!(
        cg_shaped <= 2.5,
        "cg-shaped phases: {cg_shaped:.2} allocations per task, budget 2.5"
    );
    eprintln!("allocations per cg-shaped task: {cg_shaped:.3}");
}
