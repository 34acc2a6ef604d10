//! The `ExecMode::Parallel` worker crew lives for one `ShardedSim::run`
//! call. A `checkpoint_every` pause returns from `run`, which stops and
//! joins the crew; the next `run` on the same instance starts a new one.
//! Pausing must be invisible: a run driven through many pauses ends
//! exactly where an uninterrupted one does.

use svmsyn::flow::{synthesize, Placement, SystemDesign};
use svmsyn::platform::Platform;
use svmsyn::sim::{SimConfig, SimOutcome};
use svmsyn::{simulate_sharded, ExecMode, RunProgress, ShardedSim};
use svmsyn_workloads::streaming::fanout_vecadd;

fn read_buffers(design: &SystemDesign, outcome: &SimOutcome) -> Vec<Vec<u8>> {
    design
        .app
        .buffers
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let mut buf = vec![0u8; b.len as usize];
            outcome.read_buffer(i, &mut buf);
            buf
        })
        .collect()
}

/// Repeated `run()` calls on one `Parallel` instance, pausing every 40
/// events (about twenty crews per run), end with the makespan, stats and
/// buffer bytes of an uninterrupted `Parallel` run, at 2 and at 4 shards.
#[test]
fn parallel_run_resumed_on_one_instance_matches_uninterrupted() {
    let w = fanout_vecadd(4, 4096, 0xC3E3);
    let design = synthesize(&w.app, &Platform::default(), &[Placement::Hardware; 4]).unwrap();
    for shards in [2, 4] {
        let whole = SimConfig {
            shards,
            max_events: 50_000_000,
            ..SimConfig::default()
        };
        let reference = simulate_sharded(&design, &whole, ExecMode::Parallel).unwrap();

        let paused = SimConfig {
            checkpoint_every: 40,
            ..whole
        };
        let mut sim = ShardedSim::new(&design, &paused, ExecMode::Parallel).unwrap();
        let mut pauses = 0;
        while let RunProgress::Paused(_) = sim.run().unwrap() {
            pauses += 1;
        }
        let resumed = sim.finish().unwrap();
        assert!(pauses >= 10, "x{shards}: only {pauses} pauses");

        w.verify(&resumed).unwrap();
        assert_eq!(resumed.makespan, reference.makespan, "x{shards}: makespan");
        assert_eq!(resumed.stats(), reference.stats(), "x{shards}: stats");
        assert_eq!(resumed.sync, reference.sync, "x{shards}: sync stats");
        assert_eq!(
            read_buffers(&design, &resumed),
            read_buffers(&design, &reference),
            "x{shards}: buffer bytes"
        );
    }
}
