//! Chaos kill-and-resume suite: kill a simulation at a proptest-chosen
//! cycle — mid-walk, mid-line-fill, mid-reclaim, mid-shootdown, wherever
//! the axe lands — serialize the checkpoint through bytes, restore, run to
//! completion, and require the resumed run to be indistinguishable from an
//! uninterrupted one: identical final buffers, identical statistics,
//! identical cycle counts.
//!
//! Also covers what the divergence bisector relies on: a checkpoint
//! restored under a different swap latency must equal that latency's cold
//! start, and the bisector must localize the first diverging cycle window
//! between two runs.
//!
//! Reproducing failures: every property failure prints its root seed; set
//! `PROPTEST_SEED=<printed value>` to replay the identical case sequence.

use proptest::prelude::*;
use svmsyn::app::{Application, ApplicationBuilder, ArgSpec};
use svmsyn::checkpoint::{bisect_divergence, BisectSide};
use svmsyn::flow::{synthesize, Placement};
use svmsyn::platform::{Platform, PressurePoint};
use svmsyn::sim::{simulate, RunProgress, Sim, SimConfig, SimError, SimOutcome};
use svmsyn::Checkpoint;
use svmsyn_hls::builder::KernelBuilder;
use svmsyn_hls::ir::{BinOp, CmpOp, Kernel, Width};
use svmsyn_os::AllocPolicy;
use svmsyn_sim::Cycle;
use svmsyn_workloads::default_suite;

/// `dst[i] = src[i] * 3` for `i in 0..n` — the canonical streaming kernel;
/// two live buffers, so small frame budgets force reclaim and shootdowns.
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
    b.finish().unwrap()
}

fn scale_app(n: u64) -> Application {
    let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
    ApplicationBuilder::new("resume-scale")
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
        .unwrap()
}

/// Every observable surface of an outcome, for equality assertions.
fn fingerprint_outcome(o: &SimOutcome, n: u64) -> (u64, u64, Vec<u8>, Vec<(String, f64)>) {
    let mut dst = vec![0u8; (n * 4) as usize];
    o.read_buffer(1, &mut dst);
    let stats = o.stats().iter().map(|(k, v)| (k.to_string(), v)).collect();
    (o.makespan.0, o.shootdowns, dst, stats)
}

fn resume_to_end(mut sim: Sim<'_>) -> Result<SimOutcome, SimError> {
    while !matches!(sim.run()?, RunProgress::Complete) {}
    sim.finish()
}

proptest! {
    /// The core chaos property: kill anywhere — including deep inside
    /// reclaim/swap storms — round-trip the checkpoint through raw bytes
    /// (as a crash/exec boundary would), resume, and the outcome is
    /// indistinguishable from never having been killed. A second kill
    /// during the resumed run must also be survivable.
    #[test]
    fn kill_and_resume_is_invisible(
        pages in 1u64..4,
        budget_sel in 0u64..4,
        eager in any::<bool>(),
        hw in any::<bool>(),
        swap_latency in 100u64..20_000,
        cut_frac in 1u64..100,
        second_cut_frac in 1u64..100,
    ) {
        let n = pages * 256;
        let app = scale_app(n);
        let platform = Platform::default().with_pressure(PressurePoint {
            frame_budget: match budget_sel {
                0 => None,
                1 => Some(5),
                2 => Some(6),
                _ => Some(8),
            },
            policy: if eager { AllocPolicy::Eager } else { AllocPolicy::Lazy },
            swap_latency,
        });
        let placement = if hw { Placement::Hardware } else { Placement::Software };
        let design = synthesize(&app, &platform, &[placement])
            .map_err(|e| format!("synthesis must not fail: {e}"))?;
        let cfg = SimConfig { max_events: 2_000_000, ..SimConfig::default() };

        // The uninterrupted reference. Budget errors are pressure_chaos's
        // territory; this property only studies runs that complete.
        let reference = match simulate(&design, &cfg) {
            Ok(o) => o,
            Err(SimError::Thrashing { .. } | SimError::Os(_) | SimError::Segv { .. }) => {
                return Ok(());
            }
            Err(e) => return Err(format!("unexpected reference error: {e}")),
        };
        let expected = fingerprint_outcome(&reference, n);

        // Kill one: somewhere in (0, makespan).
        let cut = Cycle((reference.makespan.0 * cut_frac) / 100);
        let mut sim = Sim::new(&design, &cfg).map_err(|e| e.to_string())?;
        sim.run_until(cut).map_err(|e| e.to_string())?;
        let image = sim.snapshot().as_bytes().to_vec();
        drop(sim); // the "crash": only the bytes survive

        let mut resumed = Sim::restore(&design, &cfg, &Checkpoint::from_bytes(image))
            .map_err(|e| format!("restore failed: {e}"))?;

        // Kill two: somewhere in the remaining run.
        let span = reference.makespan.0.saturating_sub(cut.0);
        let cut2 = Cycle(cut.0 + (span * second_cut_frac) / 100);
        resumed.run_until(cut2).map_err(|e| e.to_string())?;
        let image2 = resumed.snapshot().as_bytes().to_vec();
        drop(resumed);

        let revived = Sim::restore(&design, &cfg, &Checkpoint::from_bytes(image2))
            .map_err(|e| format!("second restore failed: {e}"))?;
        let outcome = resume_to_end(revived).map_err(|e| format!("resumed run failed: {e}"))?;
        let got = fingerprint_outcome(&outcome, n);
        prop_assert_eq!(
            got, expected,
            "twice-killed run diverged (cut {} then {})", cut.0, cut2.0
        );
    }

    /// Graceful interruption under pressure: `checkpoint_every` pauses and
    /// transparent resumption must not perturb a reclaim-heavy run.
    #[test]
    fn periodic_pauses_do_not_perturb_pressured_runs(
        every in 5u64..200,
        pages in 1u64..4,
        hw in any::<bool>(),
    ) {
        let n = pages * 256;
        let app = scale_app(n);
        let mut platform = Platform::default();
        platform.os.frame_budget = Some(6);
        let placement = if hw { Placement::Hardware } else { Placement::Software };
        let design = synthesize(&app, &platform, &[placement])
            .map_err(|e| format!("synthesis must not fail: {e}"))?;
        let base = SimConfig { max_events: 2_000_000, ..SimConfig::default() };
        let paused_cfg = SimConfig { checkpoint_every: every, ..base };
        let reference = match simulate(&design, &base) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        let paused = simulate(&design, &paused_cfg)
            .map_err(|e| format!("paused run failed where reference succeeded: {e}"))?;
        prop_assert_eq!(fingerprint_outcome(&paused, n), fingerprint_outcome(&reference, n));
    }
}

/// Pause transparency over the whole default suite, all-HW and all-SW:
/// pausing every `events / 64` events and resuming by hand, and restoring
/// from the middle pause's checkpoint, both end exactly like the unpaused
/// run — makespan, every `stats()` entry and every buffer.
#[test]
fn suite_wide_pauses_and_mid_run_restore_are_invisible() {
    let platform = Platform::default();
    let base = SimConfig::default();
    let surface = |o: &SimOutcome, app: &Application| {
        let buffers: Vec<Vec<u8>> = (0..app.buffers.len())
            .map(|i| {
                let mut b = vec![0u8; app.buffers[i].len as usize];
                o.read_buffer(i, &mut b);
                b
            })
            .collect();
        let stats: Vec<(String, f64)> = o.stats().iter().map(|(k, v)| (k.to_string(), v)).collect();
        (o.makespan, stats, buffers)
    };
    for placement in [Placement::Hardware, Placement::Software] {
        for w in default_suite(2024) {
            let name = format!("{}/{placement:?}", w.name);
            let placements = vec![placement; w.app.threads.len()];
            let design = synthesize(&w.app, &platform, &placements).unwrap();
            let mut sim = Sim::new(&design, &base).unwrap();
            assert!(matches!(sim.run().unwrap(), RunProgress::Complete));
            let cfg = SimConfig {
                checkpoint_every: (sim.events_fired() / 64).max(1),
                ..base
            };
            let (makespan, stats, buffers) = surface(&sim.finish().unwrap(), &w.app);
            let check = |o: &SimOutcome, run: &str| {
                let got = surface(o, &w.app);
                assert_eq!(got.0, makespan, "{name}: {run} makespan");
                assert_eq!(got.1, stats, "{name}: {run} stats");
                assert!(got.2 == buffers, "{name}: {run} buffers");
            };

            // Run A: pause every interval, hand-resume to the end.
            let mut sim = Sim::new(&design, &cfg).unwrap();
            let mut pauses = Vec::new();
            while let RunProgress::Paused(cp) = sim.run().unwrap() {
                pauses.push(cp);
            }
            assert!(pauses.len() >= 2, "{name}: only {} pauses", pauses.len());
            check(&sim.finish().unwrap(), "paused run");

            // Run B: restore from run A's middle pause and run to the end.
            let mid = &pauses[pauses.len() / 2];
            check(
                &resume_to_end(Sim::restore(&design, &cfg, mid).unwrap()).unwrap(),
                "restored run",
            );
        }
    }
}

/// A checkpoint restores into a design whose OS config differs, because
/// `design_fingerprint` leaves the OS config out: taken under the default
/// swap latency before the first reclaim, it is restored under four others,
/// and each restored run must equal that latency's cold start.
#[test]
fn restore_under_swap_latency_variant_equals_cold_start() {
    let n = 8192u64;
    let app = scale_app(n);
    let mut base = Platform::default();
    base.os.frame_budget = Some(16);
    let placements = [Placement::Hardware];
    let cfg = SimConfig::default();

    // The first pause of an 8-event cadence (cycle 5,584) comes before the
    // first reclaim, so nothing up to it depends on the swap latency.
    let design = synthesize(&app, &base, &placements).unwrap();
    let paused_cfg = SimConfig {
        checkpoint_every: 8,
        ..cfg
    };
    let mut sim = Sim::new(&design, &paused_cfg).unwrap();
    let RunProgress::Paused(cp) = sim.run().unwrap() else {
        panic!("the run must pause after 8 events");
    };

    let mut cold_makespans = Vec::new();
    for swap_latency in [500u64, 5_000, 20_000, 80_000] {
        let variant = base.with_pressure(PressurePoint {
            swap_latency,
            ..base.pressure_point()
        });
        let design = synthesize(&app, &variant, &placements).unwrap();
        let cold = simulate(&design, &cfg).unwrap();
        let restored = resume_to_end(Sim::restore(&design, &cfg, &cp).unwrap()).unwrap();
        assert_eq!(
            fingerprint_outcome(&restored, n),
            fingerprint_outcome(&cold, n),
            "swap_latency={swap_latency}: restored run diverged from cold start"
        );
        cold_makespans.push(cold.makespan.0);
    }
    // Every latency moved the makespan, so the runs really swapped.
    let distinct: std::collections::HashSet<u64> = cold_makespans.iter().copied().collect();
    assert_eq!(distinct.len(), cold_makespans.len(), "{cold_makespans:?}");
}

/// Identical sides: the bisector must report no divergence.
#[test]
fn bisector_reports_none_for_identical_runs() {
    let app = scale_app(512);
    let design = synthesize(&app, &Platform::default(), &[Placement::Hardware]).unwrap();
    let cfg = SimConfig::default();
    let horizon = simulate(&design, &cfg).unwrap().makespan;
    let mut sim = Sim::new(&design, &cfg).unwrap();
    sim.run_until(Cycle(horizon.0 / 4)).unwrap();
    let cp = sim.snapshot();
    let side = BisectSide {
        design: &design,
        cfg: &cfg,
        checkpoint: &cp,
    };
    assert_eq!(bisect_divergence(side, side, horizon).unwrap(), None);
}

/// Two quantum configs resumed from one SW checkpoint: the bisector must
/// find the first cycle window where the schedules part ways, and the
/// window must be tight (no event fires between `last_agree` and
/// `first_diverge`).
#[test]
fn bisector_localizes_quantum_divergence() {
    let app = scale_app(1024);
    let design = synthesize(&app, &Platform::default(), &[Placement::Software]).unwrap();
    let cfg_a = SimConfig::default();
    let cfg_b = SimConfig {
        quantum: cfg_a.quantum / 2,
        ..cfg_a
    };
    let end_a = simulate(&design, &cfg_a).unwrap().makespan;
    let end_b = simulate(&design, &cfg_b).unwrap().makespan;
    let horizon = Cycle(end_a.0.max(end_b.0) + 1);

    let mut sim = Sim::new(&design, &cfg_a).unwrap();
    sim.run_until(Cycle(end_a.0 / 8)).unwrap();
    let cp = sim.snapshot();
    let start = sim.now();

    let a = BisectSide {
        design: &design,
        cfg: &cfg_a,
        checkpoint: &cp,
    };
    let b = BisectSide {
        design: &design,
        cfg: &cfg_b,
        checkpoint: &cp,
    };
    let d = bisect_divergence(a, b, horizon)
        .unwrap()
        .expect("halved quantum must diverge");
    assert!(d.digest_a != d.digest_b);
    assert!(d.last_agree < d.first_diverge);
    assert!(d.first_diverge - d.last_agree == Cycle(1) || d.last_agree == start);
}

/// Swap-latency platform variants share a fingerprint (OS config is
/// excluded by design), so one pressured checkpoint restores into both —
/// and the bisector pins the divergence to the swap activity.
#[test]
fn bisector_localizes_swap_latency_divergence() {
    let app = scale_app(2048);
    let mut base = Platform::default();
    base.os.frame_budget = Some(4);
    let fast = base.with_pressure(PressurePoint {
        swap_latency: 1_000,
        ..base.pressure_point()
    });
    let slow = base.with_pressure(PressurePoint {
        swap_latency: 50_000,
        ..base.pressure_point()
    });
    let design_fast = synthesize(&app, &fast, &[Placement::Hardware]).unwrap();
    let design_slow = synthesize(&app, &slow, &[Placement::Hardware]).unwrap();
    let cfg = SimConfig::default();
    let end_fast = simulate(&design_fast, &cfg).unwrap();
    assert!(
        end_fast.stats().get("pressure.reclaims").unwrap() >= 1.0,
        "scenario must actually swap"
    );
    let end_slow = simulate(&design_slow, &cfg).unwrap().makespan;
    let horizon = Cycle(end_fast.makespan.0.max(end_slow.0) + 1);

    // Checkpoint taken under the fast platform, before any divergence can
    // have accumulated (cycle 0 side effects only).
    let sim = Sim::new(&design_fast, &cfg).unwrap();
    let cp = sim.snapshot();

    let a = BisectSide {
        design: &design_fast,
        cfg: &cfg,
        checkpoint: &cp,
    };
    let b = BisectSide {
        design: &design_slow,
        cfg: &cfg,
        checkpoint: &cp,
    };
    let d = bisect_divergence(a, b, horizon)
        .unwrap()
        .expect("different swap latencies must diverge");
    assert!(d.last_agree < d.first_diverge);
    assert!(d.digest_a != d.digest_b);
}
