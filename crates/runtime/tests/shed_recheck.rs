//! Regression test: a blocking spawn that parked on a full in-flight
//! cap must re-evaluate the shed controller when it retries, not consume
//! the freed capacity with a stale (pre-park) admission decision.
//!
//! Construction: a best-effort job's cap is full when the sheddable
//! spawn first tries (refused `Busy` — the controller is still open, so
//! it parks rather than sheds). While it is parked, a burst of
//! guaranteed sleepers drives the smoothed queue delay past the budget;
//! only once a probe admission on a second best-effort job has been
//! shed does the cap free. A spawner that re-runs full admission on
//! wake sheds the task; one that resumed its stale decision would admit
//! and run it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use raa_runtime::{AdmissionError, JobSpec, QosClass, Runtime, RuntimeConfig};

#[test]
fn woken_blocking_spawn_rechecks_the_shed_controller() {
    let rt =
        Runtime::new(RuntimeConfig::with_workers(2).shed_delay_budget(Duration::from_millis(4)));
    let gate_s1 = Arc::new(AtomicBool::new(false));
    let ran = Arc::new(AtomicBool::new(false));
    let best_effort = |label: &str| JobSpec::new(label).qos(QosClass::BestEffort);

    // s1 occupies the best-effort job's whole cap (and one of the two
    // workers), gated. Nothing queues behind anything yet: the
    // controller is open and s1 is admitted normally.
    let be = rt.submit(best_effort("be").max_in_flight(1)).unwrap();
    let g = Arc::clone(&gate_s1);
    be.task("s1")
        .body(move || while !g.load(Ordering::SeqCst) {})
        .spawn();

    let guaranteed = rt.submit(JobSpec::new("bg")).unwrap();
    let probe = rt.submit(best_effort("probe")).unwrap();

    std::thread::scope(|s| {
        // The contested spawn: parks on `Busy` (job cap full, controller
        // open so no shed yet).
        let spawner = s.spawn(|| {
            let r = Arc::clone(&ran);
            be.task("s2")
                .body(move || {
                    r.store(true, Ordering::SeqCst);
                })
                .spawn();
        });

        // The spawner has been refused `Busy` at least once: it is in
        // its capacity wait, having decided "not shed".
        while rt.stats().admission_rejected == 0 {
            std::thread::yield_now();
        }
        assert_eq!(rt.stats().tasks_shed, 0, "parked on the cap, not shed");

        // Push the runtime into shedding while it is parked: 64 × 1 ms
        // of guaranteed (unsheddable) work for the one free worker, so
        // each sleeper waits a millisecond longer than the last.
        for _ in 0..64 {
            guaranteed
                .task("sleeper")
                .body(|| std::thread::sleep(Duration::from_millis(1)))
                .spawn();
        }
        let give_up = Instant::now() + Duration::from_secs(30);
        while probe.task("probe").body(|| {}).try_spawn() != Err(AdmissionError::Shed) {
            assert!(Instant::now() < give_up, "the burst never engaged shedding");
            std::thread::sleep(Duration::from_micros(200));
        }

        // Free the job cap: s1 completes. The woken spawner must re-run
        // admission and shed s2 (the sleepers still queued keep the
        // smoothed delay high), not admit it into the freed slot.
        gate_s1.store(true, Ordering::SeqCst);
        spawner.join().unwrap();
    });
    // A mis-admitted s2 would have run by the time everything settled.
    rt.taskwait();

    assert!(
        !ran.load(Ordering::SeqCst),
        "sheddable task ran although the controller was shedding when its \
         blocking spawn was re-admitted"
    );
    assert_eq!(
        be.job_stats().spawned,
        1,
        "only s1 may ever be admitted into the best-effort job"
    );
    assert_eq!(be.metrics().shed, 1, "s2 must be recorded as shed");
    guaranteed.join();
    probe.join();
    be.join();
}
