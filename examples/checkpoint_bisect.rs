//! Checkpoint workflows end to end: interrupt a pressured simulation,
//! write the checkpoint to disk, resume it in a "new process" (a fresh
//! `Sim` built from the file bytes alone), then bisect the first diverging
//! cycle window between two swap latencies.
//!
//! Run with `cargo run --release --example checkpoint_bisect`. It exits
//! non-zero when the resumed run differs from the uninterrupted one or the
//! bisection finds no divergence.

use svmsyn::app::{Application, ApplicationBuilder, ArgSpec};
use svmsyn::checkpoint::{bisect_divergence, BisectSide};
use svmsyn::flow::{synthesize, Placement};
use svmsyn::platform::{Platform, PressurePoint};
use svmsyn::sim::{simulate, RunProgress, Sim, SimConfig};
use svmsyn::Checkpoint;
use svmsyn_hls::builder::KernelBuilder;
use svmsyn_hls::ir::{BinOp, CmpOp, Kernel, Width};
use svmsyn_sim::Cycle;

/// `dst[i] = src[i] * 3` over `n` `u32`s — two live buffers, so a tight
/// frame budget forces reclaim and swap traffic.
fn scale_kernel() -> Kernel {
    let mut b = KernelBuilder::new("scale", 3);
    let entry = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let src = b.arg(0);
    let dst = b.arg(1);
    let n = b.arg(2);
    let zero = b.constant(0);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi();
    let c = b.cmp(CmpOp::Lt, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    let four = b.constant(4);
    let off = b.bin(BinOp::Mul, i, four);
    let sa = b.bin(BinOp::Add, src, off);
    let da = b.bin(BinOp::Add, dst, off);
    let v = b.load(sa, Width::W32);
    let three = b.constant(3);
    let v3 = b.bin(BinOp::Mul, v, three);
    b.store(da, v3, Width::W32);
    let one = b.constant(1);
    let i2 = b.bin(BinOp::Add, i, one);
    b.jump(header);
    b.switch_to(exit);
    b.ret(None);
    b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
    b.finish().expect("scale kernel is well-formed")
}

fn scale_app(n: u64) -> Application {
    let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
    ApplicationBuilder::new("bisect-demo")
        .buffer("src", n * 4, init, false)
        .buffer("dst", n * 4, vec![], false)
        .thread(
            "scaler",
            scale_kernel(),
            vec![
                ArgSpec::Buffer(0, 0),
                ArgSpec::Buffer(1, 0),
                ArgSpec::Value(n as i64),
            ],
            true,
        )
        .build()
        .expect("application is well-formed")
}

fn main() {
    let n = 2048u64;
    let app = scale_app(n);
    let mut base = Platform::default();
    base.os.frame_budget = Some(4); // over-committed: reclaim + swap ahead
    let cfg = SimConfig::default();

    // ── 1. Interrupt, persist, resume across a "process boundary" ──────
    let design = synthesize(&app, &base, &[Placement::Hardware]).expect("synthesis");
    let reference = simulate(&design, &cfg).expect("reference run");
    let mut sim = Sim::new(&design, &cfg).expect("setup");
    sim.run_until(Cycle(reference.makespan.0 / 2))
        .expect("first half");
    let path = std::env::temp_dir().join("checkpoint_bisect_demo.ckpt");
    sim.snapshot().write_to(&path).expect("write checkpoint");
    println!(
        "paused at cycle {} after {} events; checkpoint: {} bytes -> {}",
        sim.now().0,
        sim.events_fired(),
        sim.snapshot().len(),
        path.display()
    );
    drop(sim); // the old "process" is gone; only the file survives

    let cp = Checkpoint::read_from(&path).expect("read checkpoint");
    let _ = std::fs::remove_file(&path);
    let mut resumed = Sim::restore(&design, &cfg, &cp).expect("restore");
    while !matches!(resumed.run().expect("resumed run"), RunProgress::Complete) {}
    let outcome = resumed.finish().expect("resumed finish");
    let identical = outcome.makespan == reference.makespan;
    println!(
        "resumed to completion: makespan {} (uninterrupted: {}) -> {}",
        outcome.makespan.0,
        reference.makespan.0,
        if identical {
            "bit-identical"
        } else {
            "DIVERGED (bug!)"
        }
    );
    if !identical {
        std::process::exit(1);
    }

    // ── 2. Bisect where two operating points part ways ─────────────────
    let slow = base.with_pressure(PressurePoint {
        swap_latency: 50_000,
        ..base.pressure_point()
    });
    let design_slow = synthesize(&app, &slow, &[Placement::Hardware]).expect("variant");
    let horizon = Cycle(
        reference
            .makespan
            .0
            .max(simulate(&design_slow, &cfg).expect("slow run").makespan.0)
            + 1,
    );
    let birth = Sim::new(&design, &cfg).expect("setup").snapshot();
    let a = BisectSide {
        design: &design,
        cfg: &cfg,
        checkpoint: &birth,
    };
    let b = BisectSide {
        design: &design_slow,
        cfg: &cfg,
        checkpoint: &birth,
    };
    match bisect_divergence(a, b, horizon).expect("bisect") {
        Some(d) => println!(
            "\nbisected divergence: states agree at cycle {}, differ at {} \
             (digests {:#018x} vs {:#018x})",
            d.last_agree.0, d.first_diverge.0, d.digest_a, d.digest_b
        ),
        None => {
            println!("\nno divergence up to cycle {horizon:?} (unexpected here)");
            std::process::exit(1);
        }
    }
}
