//! Fig. 4y — ECC / machine-check fault substrate, wired end-to-end to
//! ABFT-triggered recovery.
//!
//! PR 1's Fig. 4x campaign closed with an honest failure: a single bit
//! flip in `x` is a *silent* data corruption — no hardware event, no
//! poisoned region, no recovery — and CG "converges" to a wrong answer
//! (true residual 6.7e-1). This campaign measures the two mechanisms
//! that close that gap and the substrate beneath them:
//!
//! 1. **Raw bit-flip rate sweep** — seeded upsets accumulate in a
//!    SECDED-protected word population; the decoder sorts them into
//!    corrected / DUE / silent classes. Silent needs ≥3 flips in one
//!    72-bit codeword, so its onset is visibly superlinear in the rate.
//! 2. **Scrub-interval sensitivity** — the same physics with a patrol
//!    scrubber racing the accumulation: frequent scrubs meet upsets
//!    alone (corrected), rare scrubs meet pairs (DUE), with the energy
//!    bill of each interval.
//! 3. **NoC CRC check/retry** — per-bit upsets on mesh transfers;
//!    corrupt packets fail CRC and retransmit (bounded), so link faults
//!    convert to latency + energy, never to silent data.
//! 4. **Machine-check vertical** — a simulator DUE travels
//!    `EccDomain → MachineCheck → MceRouter → poisoned region →
//!    typed task failure → recovery write cleanses`: the hardware model
//!    drives PR 1's recovery machinery end to end.
//! 5. **ABFT bit sweep** — the Fig. 4x injection replayed against the
//!    checksummed CG (`cg_abft_tasks`): detection latency, localization
//!    and recovery for harmful bits, and the undetected-but-harmless
//!    regime for low mantissa bits. The previously-silent bit-51 case
//!    is the headline.
//!
//! stdout is deterministic for a fixed seed (CI diffs two runs); wall
//! clock goes to stderr.
//!
//! Usage: `cargo run --release -p raa-bench --bin fig4y_ecc_campaign`
//! Env: `RAA_SCALE` (`test`|`small`|`standard`), `RAA_FAULT_SEED`
//! (default 42).

use std::sync::Arc;
use std::time::Instant;

use raa_bench::{env_u64, rel_residual, rule, scale_from_env};
use raa_core::MceRouter;
use raa_runtime::{Runtime, RuntimeConfig};
use raa_sim::energy::{EnergyBreakdown, EnergyModel};
use raa_sim::noc::Mesh;
use raa_sim::{BitFaultPlan, CrcLink, EccDomain, MemStructure};
use raa_solver::abft::{cg_abft_tasks, AbftCfg};
use raa_solver::csr::Csr;
use raa_solver::fault::{FaultMode, FaultSpec, FaultTarget};
use raa_workloads::Scale;

const WORKERS: usize = 3;
const BLOCKS: usize = 8;
const TOL: f64 = 1e-8;
const MAX_ITERS: usize = 5_000;

fn main() {
    let scale = scale_from_env();
    let (nx, ny, words, epochs) = match scale {
        Scale::Test => (20, 20, 2_048usize, 64u64),
        Scale::Small => (48, 48, 16_384, 128),
        Scale::Standard => (96, 96, 65_536, 256),
    };
    let seed = env_u64("RAA_FAULT_SEED", 42);
    let model = EnergyModel::default();

    println!(
        "Fig. 4y — ECC/machine-check campaign: SECDED substrate ({words} words), \
         patrol scrub, NoC CRC, and ABFT-protected CG on a {nx}x{ny} Poisson \
         system, seed {seed}"
    );
    rule(92);

    // ------------------------------------------ 1. raw bit-flip rate sweep
    println!();
    println!(
        "campaign 1 — SECDED verdicts vs raw upset rate ({epochs} epochs, demand check at end):"
    );
    println!(
        "{:>12} {:>8} {:>10} {:>8} {:>8} {:>10}",
        "rate/bit/ep", "upsets", "corrected", "DUE", "silent", "ecc energy"
    );
    for &rate in &[1e-6, 1e-5, 1e-4, 5e-4, 2e-3] {
        let plan = BitFaultPlan::new(seed, rate);
        let mut dom = EccDomain::new(MemStructure::Dram, (0..words as u64).collect());
        let mut upsets = 0u64;
        for epoch in 0..epochs {
            upsets += dom.inject(&plan, epoch);
        }
        let mut energy = EnergyBreakdown::default();
        for addr in 0..words as u64 {
            dom.access(addr, &model, &mut energy);
        }
        println!(
            "{:>12.0e} {:>8} {:>10} {:>8} {:>8} {:>9.1}pJ",
            rate, upsets, dom.stats.corrected, dom.stats.due, dom.stats.silent, energy.ecc
        );
    }

    // -------------------------------------- 2. scrub-interval sensitivity
    // Fixed rate in the regime where single epochs almost never pair
    // flips but unscrubbed accumulation over the full run does.
    println!();
    let scrub_rate = 2e-4;
    println!(
        "campaign 2 — patrol scrub interval vs verdicts (rate {scrub_rate:.0e}/bit/epoch, \
         {epochs} epochs):"
    );
    println!(
        "{:>10} {:>10} {:>8} {:>8} {:>12} {:>11}",
        "interval", "corrected", "DUE", "silent", "scrub energy", "ecc energy"
    );
    for &interval in &[1u64, 4, 16, 64, u64::MAX] {
        let plan = BitFaultPlan::new(seed ^ 0x5c4b, scrub_rate);
        let mut dom = EccDomain::new(MemStructure::Dram, (0..words as u64).collect());
        let mut energy = EnergyBreakdown::default();
        for epoch in 0..epochs {
            dom.inject(&plan, epoch);
            if interval != u64::MAX && (epoch + 1) % interval == 0 {
                dom.scrub(&model, &mut energy);
            }
        }
        // Final demand sweep classifies whatever survived the scrubber.
        for addr in 0..words as u64 {
            dom.access(addr, &model, &mut energy);
        }
        let label = if interval == u64::MAX {
            "none".to_string()
        } else {
            format!("{interval}")
        };
        println!(
            "{:>10} {:>10} {:>8} {:>8} {:>11.1}pJ {:>10.1}pJ",
            label, dom.stats.corrected, dom.stats.due, dom.stats.silent, energy.scrub, energy.ecc
        );
    }

    // ----------------------------------------------- 3. NoC CRC retry
    println!();
    let (mesh_w, packets, flits) = (4usize, 4_000u64, 8u64);
    println!(
        "campaign 3 — NoC CRC check/retry ({mesh_w}x{mesh_w} mesh, {packets} packets x {flits} flits):"
    );
    println!(
        "{:>12} {:>10} {:>8} {:>8} {:>10} {:>11}",
        "rate/bit/try", "delivered", "corrupt", "retries", "dropped", "crc energy"
    );
    for &rate in &[1e-9, 1e-7, 1e-6, 1e-5, 1e-4] {
        let mut mesh = Mesh::new(mesh_w, 1);
        let mut link = CrcLink::new(seed);
        let mut energy = EnergyBreakdown::default();
        let mut delivered = 0u64;
        let tiles = (mesh_w * mesh_w) as u64;
        for p in 0..packets {
            let from = (p % tiles) as usize;
            let to = ((p * 7 + 3) % tiles) as usize;
            let (_lat, ok) =
                link.send_checked(&mut mesh, &model, &mut energy, from, to, flits, p, rate);
            delivered += ok as u64;
        }
        println!(
            "{:>12.0e} {:>10} {:>8} {:>8} {:>10} {:>10.1}pJ",
            rate, delivered, link.corrupted, link.retries, link.failed, energy.crc
        );
    }

    // ------------------------------------ 4. machine-check vertical slice
    // A DRAM double-bit upset under a mapped vector: the scrubber finds
    // it, the router poisons the element, the reader fails *typed*, and
    // a recovery write cleanses — PR 1's machinery driven by hardware.
    println!();
    println!("campaign 4 — machine-check vertical (sim DUE -> poisoned region -> typed failure -> recovery):");
    {
        let rt = Arc::new(Runtime::new(RuntimeConfig::with_workers(WORKERS)));
        let elems = 64u64;
        let data = rt.register("v", vec![7.0f64; elems as usize]);
        let router = MceRouter::new();
        router.attach_runtime(&rt);
        // One f64 element per protected word, window at DRAM words
        // 0x400..0x440.
        router.map_region(
            MemStructure::Dram,
            0x400..0x400 + elems,
            data.sub(0, elems),
            1,
            "v",
        );
        let mut dom = EccDomain::new(MemStructure::Dram, (0x400..0x400 + elems).collect());
        // Double-bit upset in the word backing element 17: uncorrectable.
        dom.inject_word(0x400 + 17, 0b11 << 20);
        let mut energy = EnergyBreakdown::default();
        let (summary, events) = dom.scrub(&model, &mut energy);
        router.deliver_ecc(events);
        let poisoned = rt.poisoned_regions();
        // A reader crossing the poisoned element fails with a typed
        // error after exhausting retries.
        {
            let d = data.clone();
            rt.task("reader")
                .reads(&data)
                .idempotent(move || {
                    let _sum: f64 = d.read().iter().sum();
                })
                .spawn();
        }
        let report = rt.try_taskwait();
        let failed = report.as_ref().err().map(|r| r.failures.len()).unwrap_or(0);
        let first = report
            .err()
            .map(|r| format!("{}", r.failures[0]))
            .unwrap_or_default();
        // Recovery task: a Write over the element range cleanses the
        // poison at spawn time (the runtime's region machinery).
        {
            let d = data.clone();
            rt.task("recovery")
                .region(data.sub(0, elems), raa_runtime::AccessMode::Write)
                .idempotent(move || {
                    for v in d.write().iter_mut() {
                        *v = 7.0;
                    }
                })
                .spawn();
        }
        let recovered = rt.try_taskwait().is_ok() && rt.poisoned_regions().is_empty();
        println!(
            "  scrub found     : {} DUE in {} scanned words",
            summary.due, summary.scanned
        );
        println!(
            "  router          : due={} unmapped={} -> poisoned regions={}",
            router.due.load(std::sync::atomic::Ordering::Relaxed),
            router.unmapped.load(std::sync::atomic::Ordering::Relaxed),
            poisoned.len()
        );
        println!("  reader          : failures={failed} first=\"{first}\"");
        println!("  recovery write  : cleansed={recovered}");
    }

    // ------------------------------------------------ 5. ABFT bit sweep
    println!();
    println!("campaign 5 — ABFT-protected CG vs the Fig. 4x silent injection (flip at iter 15):");
    let a = Arc::new(Csr::poisson2d(nx, ny));
    let n = a.n();
    let b: Vec<f64> = (0..n)
        .map(|i| 1.0 + 0.5 * ((i as f64) * 0.01).sin())
        .collect();
    let block = (n / 3)..(n / 3 + n / 8);
    let cfg = AbftCfg {
        blocks: BLOCKS,
        tol: TOL,
        max_iters: MAX_ITERS,
        ..AbftCfg::default()
    };
    // Fault-free reference: the detector must stay quiet.
    {
        let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
        let t0 = Instant::now();
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, None, &cfg);
        eprintln!(
            "[timing] abft fault-free: {:.3}s",
            t0.elapsed().as_secs_f64()
        );
        println!(
            "  fault-free      : converged={} iterations={} detections={} \
             checks={} probes={} true-residual={:.1e}",
            res.converged,
            res.iterations,
            res.detections.len(),
            res.checksum_checks,
            res.probes,
            rel_residual(&a, &b, &res.x)
        );
    }
    println!(
        "  {:<16} {:>9} {:>6} {:>7} {:>8} {:>9} {:>13}  verdict",
        "injection", "converged", "iters", "detect", "latency", "recovery", "true-residual"
    );
    let cases: Vec<(String, FaultMode)> = vec![
        ("bit-flip b51".into(), FaultMode::BitFlip { bit: 51 }),
        ("bit-flip b44".into(), FaultMode::BitFlip { bit: 44 }),
        ("bit-flip b33".into(), FaultMode::BitFlip { bit: 33 }),
        ("bit-flip b20".into(), FaultMode::BitFlip { bit: 20 }),
        ("block-wipe DUE".into(), FaultMode::BlockWipe),
    ];
    let mut bit51_closed = false;
    for (label, mode) in cases {
        let fault = FaultSpec::new(15, block.clone(), FaultTarget::X).mode(mode);
        let rt = Runtime::new(RuntimeConfig::with_workers(WORKERS));
        let t0 = Instant::now();
        let res = cg_abft_tasks(&rt, Arc::clone(&a), &b, Some(fault), &cfg);
        eprintln!("[timing] abft {label}: {:.3}s", t0.elapsed().as_secs_f64());
        let rel = rel_residual(&a, &b, &res.x);
        let detected = !res.detections.is_empty();
        let (kind, latency) = res
            .detections
            .first()
            .map(|d| {
                (
                    format!("{:?}", d.kind),
                    format!("+{}", d.iter.saturating_sub(15)),
                )
            })
            .unwrap_or(("-".into(), "-".into()));
        let verdict = if detected && rel <= 1e-6 {
            "detected + recovered"
        } else if !detected && rel <= 1e-6 {
            "undetected, harmless"
        } else {
            "GAP: wrong answer"
        };
        if label == "bit-flip b51" && detected && rel <= 1e-6 {
            bit51_closed = true;
        }
        println!(
            "  {:<16} {:>9} {:>6} {:>7} {:>8} {:>9} {:>13.1e}  {}",
            label, res.converged, res.iterations, kind, latency, res.recoveries, rel, verdict
        );
    }

    rule(92);
    println!("paper-vs-measured:");
    println!("  paper : §4 assumes corruptions announce themselves as DUEs; SDCs that slip");
    println!("          past ECC were out of scope — exactly the case Fig. 4x measured open.");
    if bit51_closed {
        println!(
            "  here  : the previously-silent bit-51 flip (true residual 6.7e-1 in Fig. 4x) \
             is now"
        );
        println!(
            "          caught by the ABFT checksums and recovered by detector-driven FEIR — \
             the SDC gap is closed."
        );
    } else {
        println!("  here  : WARNING — the bit-51 case was NOT closed; see the table above.");
    }
    println!("          ≥3-bit silent words remain below SECDED's floor (campaign 1), which is");
    println!("          why the algorithmic layer exists; scrubbing (campaign 2) buys down DUE");
    println!("          frequency with energy, and CRC retry (campaign 3) keeps the NoC clean.");
}
