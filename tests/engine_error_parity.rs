//! Engine error parity: the serial engine and the sharded engine — in both
//! its `SingleWheel` oracle mode and its `Parallel` mode, at 2 shards — end
//! a failing run with the same [`SimError`] variant charged to the same
//! thread(s).
//!
//! Each case is a small design with two hardware threads, so the planner
//! grants both shards. Cycle and event counts are deliberately not
//! compared: sharded fault service is delivered at window barriers, which
//! shifts timing but must never change *which* error a run ends in.

use svmsyn::app::{Application, ApplicationBuilder, ArgSpec, SyncAction, SyncSpec};
use svmsyn::flow::{synthesize, Placement, SystemDesign};
use svmsyn::platform::Platform;
use svmsyn::sim::{simulate, SimConfig, SimError};
use svmsyn::{planned_shards, simulate_sharded, ExecMode};
use svmsyn_hls::builder::KernelBuilder;
use svmsyn_hls::ir::{BinOp, CmpOp, Kernel, Width};

/// dst[i] = src[i] * 3 for i in 0..n.
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

/// One W64 load at `arg0`, returned.
fn load_kernel() -> Kernel {
    let mut b = KernelBuilder::new("load", 1);
    let a = b.arg(0);
    let v = b.load(a, Width::W64);
    b.ret(Some(v));
    b.finish().unwrap()
}

/// Returns a constant without touching memory.
fn idle_kernel() -> Kernel {
    let mut b = KernelBuilder::new("idle", 0);
    let v = b.constant(7);
    b.ret(Some(v));
    b.finish().unwrap()
}

/// Two scalers over disjoint `n`-element buffer pairs.
fn scale_pair(n: u64) -> Application {
    let init: Vec<u8> = (0..n as u32).flat_map(|i| i.to_le_bytes()).collect();
    let mut b = ApplicationBuilder::new("scale-pair");
    for t in 0..2usize {
        b = b
            .buffer(format!("src{t}"), n * 4, init.clone(), false)
            .buffer(format!("dst{t}"), n * 4, vec![], false)
            .thread(
                format!("scaler{t}"),
                scale_kernel(),
                vec![
                    ArgSpec::Buffer(2 * t, 0),
                    ArgSpec::Buffer(2 * t + 1, 0),
                    ArgSpec::Value(n as i64),
                ],
                true,
            );
    }
    b.build().unwrap()
}

/// All-hardware design on the default platform, optionally with a frame
/// budget (page tables included).
fn hw_design(app: &Application, frame_budget: Option<u64>) -> SystemDesign {
    let mut platform = Platform::default();
    platform.os.frame_budget = frame_budget;
    let placements = vec![Placement::Hardware; app.threads.len()];
    synthesize(app, &platform, &placements).unwrap()
}

/// The engine-independent shape of an error: its variant and the thread
/// name(s) it charges.
fn shape(e: &SimError) -> (&'static str, Vec<String>) {
    match e {
        SimError::Segv { thread, .. } => ("Segv", vec![thread.clone()]),
        SimError::Deadlock { blocked } => ("Deadlock", blocked.clone()),
        SimError::EventLimit { runnable, .. } => ("EventLimit", runnable.clone()),
        SimError::Thrashing { thread, .. } => ("Thrashing", vec![thread.clone()]),
        SimError::Os(_) => ("Os", vec![]),
        SimError::Snapshot(_) => ("Snapshot", vec![]),
    }
}

/// Runs `design` on all three engines, requires each to fail with the
/// `expected` shape, and requires budget errors to carry a resumable
/// checkpoint on every engine.
fn assert_parity(case: &str, design: &SystemDesign, cfg: SimConfig, expected: (&str, &[&str])) {
    let sharded = SimConfig { shards: 2, ..cfg };
    assert_eq!(
        planned_shards(design, &sharded),
        2,
        "{case}: the planner must grant 2 shards"
    );
    let runs = [
        ("serial", simulate(design, &SimConfig { shards: 1, ..cfg })),
        (
            "single-wheel",
            simulate_sharded(design, &sharded, ExecMode::SingleWheel),
        ),
        (
            "parallel",
            simulate_sharded(design, &sharded, ExecMode::Parallel),
        ),
    ];
    let expected = (
        expected.0,
        expected.1.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    for (engine, result) in runs {
        let err = match result {
            Ok(_) => panic!("{case}: the {engine} engine completed instead of failing"),
            Err(e) => e,
        };
        assert_eq!(shape(&err), expected, "{case}: {engine} engine: {err}");
        if matches!(
            err,
            SimError::EventLimit { .. } | SimError::Thrashing { .. }
        ) {
            assert!(
                err.checkpoint().is_some(),
                "{case}: {engine} engine: budget error without a checkpoint"
            );
        }
    }
}

#[test]
fn per_access_thrash_is_charged_to_the_straddling_thread() {
    // The budget holds the root table, one L2 table and ONE data frame,
    // but the load straddles two pages: every retry's fault service evicts
    // the other half, until the per-access retry budget trips.
    let app = ApplicationBuilder::new("straddle")
        .buffer("buf", 8192, vec![], false)
        .thread(
            "straddler",
            load_kernel(),
            vec![ArgSpec::Buffer(0, 4092)],
            true,
        )
        .thread("idler", idle_kernel(), vec![], true)
        .build()
        .unwrap();
    let design = hw_design(&app, Some(3));
    assert_parity(
        "per-access thrash",
        &design,
        SimConfig::default(),
        ("Thrashing", &["straddler"]),
    );
}

#[test]
fn fault_rate_watchdog_trips_as_system() {
    // One data frame for two streaming scalers: nearly every access faults,
    // and the fault-rate watchdog calls the run hopeless.
    let design = hw_design(&scale_pair(2048), Some(3));
    let cfg = SimConfig {
        thrash_window: 1 << 40,
        thrash_fault_limit: 16,
        ..SimConfig::default()
    };
    assert_parity(
        "fault-rate watchdog",
        &design,
        cfg,
        ("Thrashing", &["system"]),
    );
}

#[test]
fn event_cap_names_both_runnable_threads() {
    let design = hw_design(&scale_pair(512), None);
    let cfg = SimConfig {
        max_events: 10,
        ..SimConfig::default()
    };
    assert_parity(
        "event cap",
        &design,
        cfg,
        ("EventLimit", &["scaler0", "scaler1"]),
    );
}

#[test]
fn segv_is_charged_to_the_faulting_thread() {
    // The load targets an address no buffer maps.
    let app = ApplicationBuilder::new("segv")
        .buffer("buf", 4096, vec![], false)
        .thread("idler", idle_kernel(), vec![], true)
        .thread("wild", load_kernel(), vec![ArgSpec::Value(0x10)], true)
        .build()
        .unwrap();
    let design = hw_design(&app, None);
    assert_parity("segv", &design, SimConfig::default(), ("Segv", &["wild"]));
}

#[test]
fn deadlock_names_both_blocked_threads() {
    let app = ApplicationBuilder::new("dead")
        .sync(SyncSpec::Semaphore(0))
        .thread_full(
            "waiter0",
            idle_kernel(),
            vec![],
            vec![SyncAction::SemWait(0)],
            vec![],
            true,
        )
        .thread_full(
            "waiter1",
            idle_kernel(),
            vec![],
            vec![SyncAction::SemWait(0)],
            vec![],
            true,
        )
        .build()
        .unwrap();
    let design = hw_design(&app, None);
    assert_parity(
        "deadlock",
        &design,
        SimConfig::default(),
        ("Deadlock", &["waiter0", "waiter1"]),
    );
}
