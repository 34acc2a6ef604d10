//! Snapshot/restore conformance: `restore(snapshot(s))` must be
//! bit-identical — same re-snapshot bytes, same clock, same event count —
//! at an arbitrary cycle of any workload × placement × pressure-policy
//! combination, and damaged images must be rejected with typed errors,
//! never a panic or a silent misparse.
//!
//! Reproducing failures: every property failure prints its root seed; set
//! `PROPTEST_SEED=<printed value>` to replay the identical case sequence.

use proptest::prelude::*;
use svmsyn::flow::{synthesize, Placement, SystemDesign};
use svmsyn::platform::{Platform, PressurePoint};
use svmsyn::sim::{simulate, RunProgress, Sim, SimConfig, SimError, SNAPSHOT_VERSION};
use svmsyn::{Checkpoint, ExecMode, ShardedSim};
use svmsyn_os::AllocPolicy;
use svmsyn_sim::Cycle;
use svmsyn_snap::SnapError;
use svmsyn_workloads::small_suite;

const SUITE_LEN: usize = 8;

/// One synthesized design from the small workload suite under a generated
/// pressure point. Returns `None` when the combination cannot synthesize
/// (it never should — the suite is hardware-eligible by construction).
fn build_design(
    wl: usize,
    hw: bool,
    budget_sel: u64,
    eager: bool,
    swap_latency: u64,
) -> Option<(SystemDesign, &'static str)> {
    let suite = small_suite(0x5EED);
    assert_eq!(suite.len(), SUITE_LEN, "SUITE_LEN drifted from small_suite");
    let w = &suite[wl % suite.len()];
    let platform = Platform::default().with_pressure(PressurePoint {
        // `None` = unpressured; small budgets force reclaim/swap so the
        // snapshot lands mid-walk / mid-fill / mid-reclaim / mid-shootdown.
        frame_budget: match budget_sel {
            0 => None,
            1 => Some(6),
            2 => Some(8),
            _ => Some(12),
        },
        policy: if eager {
            AllocPolicy::Eager
        } else {
            AllocPolicy::Lazy
        },
        swap_latency,
    });
    let placement = if hw {
        Placement::Hardware
    } else {
        Placement::Software
    };
    let name: &'static str = match wl % SUITE_LEN {
        0 => "vecadd",
        1 => "saxpy",
        2 => "matmul",
        3 => "sobel",
        4 => "histogram",
        5 => "spmv",
        6 => "chase",
        _ => "oesort",
    };
    synthesize(&w.app, &platform, &[placement])
        .ok()
        .map(|d| (d, name))
}

proptest! {
    /// The core roundtrip property: pause anywhere, snapshot, restore —
    /// the restored simulation is at the same cycle, has fired the same
    /// number of events, and re-snapshots to the byte-identical image.
    #[test]
    fn restore_is_bit_identical_at_random_cycle(
        wl in 0usize..SUITE_LEN,
        hw in any::<bool>(),
        budget_sel in 0u64..4,
        eager in any::<bool>(),
        swap_latency in 100u64..20_000,
        cut in 1u64..200_000,
    ) {
        let Some((design, name)) = build_design(wl, hw, budget_sel, eager, swap_latency) else {
            return Err("synthesis must not fail for the small suite".to_string());
        };
        let cfg = SimConfig { max_events: 2_000_000, ..SimConfig::default() };
        let mut sim = match Sim::new(&design, &cfg) {
            Ok(s) => s,
            // Tiny budgets can refuse setup (OOM for page tables) — a
            // typed error, which is all this property asks of setup.
            Err(SimError::Os(_)) => return Ok(()),
            Err(e) => return Err(format!("{name}: setup failed oddly: {e}")),
        };
        match sim.run_until(Cycle(cut)) {
            Ok(_) => {}
            // The run may thrash before the cut under a starved budget;
            // budget errors carry their own checkpoint, exercised below.
            Err(e) => {
                prop_assert!(
                    matches!(e, SimError::Thrashing { .. } | SimError::Segv { .. } | SimError::Os(_)),
                    "{name}: unexpected pre-cut error: {e}"
                );
                return Ok(());
            }
        }
        let cp = sim.snapshot();
        let restored = match Sim::restore(&design, &cfg, &cp) {
            Ok(r) => r,
            Err(e) => return Err(format!("{name}: restore rejected a fresh snapshot: {e}")),
        };
        prop_assert_eq!(restored.now(), sim.now());
        prop_assert_eq!(restored.events_fired(), sim.events_fired());
        prop_assert!(
            restored.snapshot().as_bytes() == cp.as_bytes(),
            "{name}: re-snapshot differs at cycle {} ({} bytes)", sim.now().0, cp.len()
        );
    }

    /// Damage property: flipping any single byte of a valid image makes
    /// restore fail with a typed error — never `Ok`, never a panic.
    #[test]
    fn any_single_bitflip_is_rejected(
        pos_frac in 0u64..10_000,
        bit in 0u8..8,
    ) {
        let (design, _) = build_design(0, true, 0, false, 1000)
            .ok_or("synthesis must not fail".to_string())?;
        let cfg = SimConfig::default();
        let mut sim = Sim::new(&design, &cfg).map_err(|e| e.to_string())?;
        sim.run_until(Cycle(5_000)).map_err(|e| e.to_string())?;
        let cp = sim.snapshot();
        let mut bytes = cp.as_bytes().to_vec();
        let pos = (pos_frac as usize * bytes.len()) / 10_000;
        bytes[pos] ^= 1 << bit;
        if bytes == cp.as_bytes() {
            return Ok(()); // degenerate: xor with 0 cannot happen, but be safe
        }
        match Sim::restore(&design, &cfg, &Checkpoint::from_bytes(bytes)) {
            Ok(_) => Err(format!("flip at byte {pos} bit {bit} restored successfully")),
            Err(SimError::Snapshot(_)) => Ok(()),
            Err(e) => Err(format!("expected SimError::Snapshot, got {e:?}")),
        }?;
    }

    /// Truncation property: every proper prefix of a valid image is
    /// rejected with a typed error.
    #[test]
    fn any_truncation_is_rejected(len_frac in 0u64..10_000) {
        let (design, _) = build_design(1, false, 0, false, 1000)
            .ok_or("synthesis must not fail".to_string())?;
        let cfg = SimConfig::default();
        let mut sim = Sim::new(&design, &cfg).map_err(|e| e.to_string())?;
        sim.run_until(Cycle(5_000)).map_err(|e| e.to_string())?;
        let cp = sim.snapshot();
        let keep = (len_frac as usize * (cp.len() - 1)) / 10_000;
        let cut = Checkpoint::from_bytes(cp.as_bytes()[..keep].to_vec());
        match Sim::restore(&design, &cfg, &cut) {
            Ok(_) => Err(format!("prefix of {keep}/{} bytes restored successfully", cp.len())),
            Err(SimError::Snapshot(_)) => Ok(()),
            Err(e) => Err(format!("expected SimError::Snapshot, got {e:?}")),
        }?;
    }
}

/// A mid-run checkpoint of a small unpressured hardware run, plus its
/// design (the suite's vecadd).
fn sample_checkpoint() -> (SystemDesign, SimConfig, Checkpoint) {
    let (design, _) = build_design(0, true, 0, false, 1000).unwrap();
    let cfg = SimConfig::default();
    let mut sim = Sim::new(&design, &cfg).unwrap();
    assert!(
        sim.run_until(Cycle(5_000)).unwrap(),
        "run finished before the cut"
    );
    let cp = sim.snapshot();
    (design, cfg, cp)
}

#[test]
fn bad_magic_is_rejected_as_bad_magic() {
    let (design, cfg, cp) = sample_checkpoint();
    let mut bytes = cp.as_bytes().to_vec();
    bytes[0] = b'X';
    let err = Sim::restore(&design, &cfg, &Checkpoint::from_bytes(bytes)).unwrap_err();
    assert!(matches!(err, SimError::Snapshot(SnapError::BadMagic)));
}

#[test]
fn version_mismatch_is_rejected_with_both_versions() {
    let (design, cfg, cp) = sample_checkpoint();
    let mut bytes = cp.as_bytes().to_vec();
    // The version field sits at offset 8..12 (little-endian u32).
    bytes[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    let err = Sim::restore(&design, &cfg, &Checkpoint::from_bytes(bytes)).unwrap_err();
    match err {
        SimError::Snapshot(SnapError::Version { found, expected }) => {
            assert_eq!(found, SNAPSHOT_VERSION + 1);
            assert_eq!(expected, SNAPSHOT_VERSION);
        }
        other => panic!("expected Version error, got {other:?}"),
    }
}

#[test]
fn payload_corruption_is_rejected_as_checksum_mismatch() {
    let (design, cfg, cp) = sample_checkpoint();
    let mut bytes = cp.as_bytes().to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    let err = Sim::restore(&design, &cfg, &Checkpoint::from_bytes(bytes)).unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(SnapError::Checksum { .. })),
        "got {err:?}"
    );
}

#[test]
fn empty_and_tiny_images_are_rejected_as_truncated() {
    let (design, cfg, _) = sample_checkpoint();
    for len in [0usize, 1, 8, 27] {
        let err = Sim::restore(&design, &cfg, &Checkpoint::from_bytes(vec![0u8; len])).unwrap_err();
        assert!(
            matches!(err, SimError::Snapshot(SnapError::Truncated { .. })),
            "len {len}: got {err:?}"
        );
    }
}

#[test]
fn foreign_design_is_rejected_as_design_mismatch() {
    let (design_a, cfg, cp) = sample_checkpoint();
    // A genuinely different design: another workload entirely.
    let (design_b, _) = build_design(2, true, 0, false, 1000).unwrap();
    let err = Sim::restore(&design_b, &cfg, &cp).unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(SnapError::DesignMismatch { .. })),
        "got {err:?}"
    );
    // And the checkpoint still restores fine into its own design.
    assert!(Sim::restore(&design_a, &cfg, &cp).is_ok());
}

/// A well-formed image whose pending-step list names one thread twice —
/// the last entry appended again, with its own seq or a fresh one below
/// `next_step_seq` — is rejected as corrupt instead of resuming into a run
/// that ends early with a wrong makespan.
#[test]
fn duplicate_pending_step_is_rejected_as_corrupt() {
    let cfg = SimConfig::default();
    let u64_at = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    for w in &small_suite(1)[..3] {
        assert_eq!(w.app.threads.len(), 1, "{}: one thread, one step", w.name);
        for placement in [Placement::Hardware, Placement::Software] {
            let name = format!("{}/{placement:?}", w.name);
            let design = synthesize(&w.app, &Platform::default(), &[placement]).unwrap();
            let half = Cycle(simulate(&design, &cfg).unwrap().makespan.0 / 2);
            let mut sim = Sim::new(&design, &cfg).unwrap();
            assert!(
                sim.run_until(half).unwrap(),
                "{name}: finished before the cut"
            );
            let image = sim.snapshot();
            let (fingerprint, payload) =
                svmsyn_snap::read_image(image.as_bytes(), SNAPSHOT_VERSION).unwrap();
            // The payload ends with `next_step_seq`, the step count, and one
            // `(at, seq, thread)` entry of 8 + 8 + 4 bytes.
            let len = payload.len();
            assert_eq!(u64_at(payload, len - 28), 1, "{name}: pending-step count");
            let next_seq = u64_at(payload, len - 36);
            let entry = &payload[len - 20..];
            let seq = u64_at(entry, 8);
            for dup_seq in [seq, seq - 1] {
                assert!(dup_seq < next_seq, "{name}: seq {dup_seq} must stay valid");
                let mut forged = payload.to_vec();
                forged[len - 28..len - 20].copy_from_slice(&2u64.to_le_bytes());
                forged.extend_from_slice(&entry[..8]);
                forged.extend_from_slice(&dup_seq.to_le_bytes());
                forged.extend_from_slice(&entry[16..]);
                let forged = Checkpoint::from_bytes(svmsyn_snap::write_image(
                    SNAPSHOT_VERSION,
                    fingerprint,
                    &forged,
                ));
                let err = Sim::restore(&design, &cfg, &forged).unwrap_err();
                assert!(
                    matches!(err, SimError::Snapshot(SnapError::Corrupt(_))),
                    "{name}: duplicate step with seq {dup_seq}: got {err:?}"
                );
            }
        }
    }
}

/// An image's scheduled-event count is `fired + pending` in every run
/// either engine writes; a well-formed image that says otherwise is
/// rejected by both engines, instead of resuming into a run whose
/// re-snapshot differs from its source.
#[test]
fn forged_scheduled_count_is_rejected_as_corrupt() {
    let (design, cfg, cp) = sample_checkpoint();
    let (fingerprint, payload) = svmsyn_snap::read_image(cp.as_bytes(), SNAPSHOT_VERSION).unwrap();
    // The payload opens with `now`, `fired` and `scheduled`, 8 bytes each.
    let scheduled = u64::from_le_bytes(payload[16..24].try_into().unwrap());
    let forge = |count: u64| {
        let mut forged = payload.to_vec();
        forged[16..24].copy_from_slice(&count.to_le_bytes());
        Checkpoint::from_bytes(svmsyn_snap::write_image(
            SNAPSHOT_VERSION,
            fingerprint,
            &forged,
        ))
    };
    assert_eq!(forge(scheduled).as_bytes(), cp.as_bytes());
    for count in [scheduled - 1, scheduled + 1] {
        let serial = Sim::restore(&design, &cfg, &forge(count)).err();
        let sharded =
            ShardedSim::restore(&design, &cfg, ExecMode::SingleWheel, &forge(count)).err();
        for err in [serial, sharded] {
            let err = err.expect("a forged scheduled count restored");
            assert!(
                matches!(err, SimError::Snapshot(SnapError::Corrupt(_))),
                "scheduled {count} (image {scheduled}): got {err:?}"
            );
        }
    }
}

#[test]
fn checkpoint_survives_disk_roundtrip() {
    let (design, cfg, cp) = sample_checkpoint();
    let path = std::env::temp_dir().join("svmsyn_snapshot_roundtrip_test.ckpt");
    cp.write_to(&path).unwrap();
    let back = Checkpoint::read_from(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(back.as_bytes(), cp.as_bytes());
    assert!(Sim::restore(&design, &cfg, &back).is_ok());
}

#[test]
fn read_from_zero_length_file_loads_then_restore_rejects_truncated() {
    let (design, cfg, _) = sample_checkpoint();
    let path = std::env::temp_dir().join("svmsyn_snapshot_zero_len_test.ckpt");
    std::fs::write(&path, b"").unwrap();
    // Loading is pure I/O — contents are validated at restore, so an
    // empty file loads fine…
    let cp = Checkpoint::read_from(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert!(cp.is_empty());
    // …and restore then rejects it with a typed error, never a panic.
    let err = Sim::restore(&design, &cfg, &cp).unwrap_err();
    assert!(
        matches!(err, SimError::Snapshot(SnapError::Truncated { .. })),
        "got {err:?}"
    );
}

#[test]
fn read_from_truncated_at_every_header_boundary_is_typed() {
    let (design, cfg, cp) = sample_checkpoint();
    let path = std::env::temp_dir().join("svmsyn_snapshot_truncation_test.ckpt");
    // Header layout: magic (8) | version (4) | fingerprint (8) |
    // payload_len (8), then payload, then a checksum trailer (8). Cut the
    // on-disk image at each field edge, one byte past, one byte short of
    // the minimum viable image, at the minimum itself (payload missing),
    // and mid-payload. Every cut must load (I/O is not validation) and
    // then fail restore with a typed snapshot error.
    for cut in [8usize, 9, 12, 20, 28, 35, 36, cp.len() / 2] {
        let bytes = &cp.as_bytes()[..cut];
        std::fs::write(&path, bytes).unwrap();
        let loaded = Checkpoint::read_from(&path).unwrap();
        assert_eq!(
            loaded.as_bytes(),
            bytes,
            "cut {cut}: disk roundtrip drifted"
        );
        let err = Sim::restore(&design, &cfg, &loaded).unwrap_err();
        match err {
            SimError::Snapshot(SnapError::Truncated { .. }) => {}
            // A mid-payload cut may be caught by the checksum first —
            // still typed, still never a panic.
            SimError::Snapshot(SnapError::Checksum { .. }) if cut > 36 => {}
            other => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn read_from_directory_path_is_io_error() {
    let dir = std::env::temp_dir();
    let err = Checkpoint::read_from(&dir).unwrap_err();
    // Reading a directory is an I/O error surfaced as such, not a panic
    // and not a silently empty checkpoint.
    assert_ne!(err.kind(), std::io::ErrorKind::NotFound, "got {err:?}");

    let missing = dir.join("svmsyn_snapshot_no_such_file.ckpt");
    let err = Checkpoint::read_from(&missing).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "got {err:?}");
}

/// A multi-thread hardware design for the sharded-engine snapshot tests,
/// plus the sharded config that pauses at barriers every ~2000 events.
fn sharded_fixture() -> (SystemDesign, SimConfig, svmsyn_workloads::Workload) {
    let w = svmsyn_workloads::streaming::fanout_vecadd(4, 512, 0x5A17);
    let design = synthesize(&w.app, &Platform::default(), &[Placement::Hardware; 4]).unwrap();
    let cfg = SimConfig {
        shards: 4,
        checkpoint_every: 40,
        max_events: 50_000_000,
        ..SimConfig::default()
    };
    (design, cfg, w)
}

/// Runs a sharded sim to its first barrier pause and returns the
/// checkpoint (the run must not complete before pausing).
fn first_pause(design: &SystemDesign, cfg: &SimConfig, mode: ExecMode) -> Checkpoint {
    let mut sim = ShardedSim::new(design, cfg, mode).unwrap();
    match sim.run().unwrap() {
        RunProgress::Paused(cp) => cp,
        RunProgress::Complete => panic!("run completed before the first pause"),
    }
}

/// The engines' snapshot images agree: a parallel run's barrier snapshot
/// is byte-identical to the single-wheel oracle's at the same barrier —
/// host-thread interleaving leaves no trace in the image.
#[test]
fn sharded_barrier_snapshot_matches_oracle_snapshot() {
    let (design, cfg, _) = sharded_fixture();
    let parallel = first_pause(&design, &cfg, ExecMode::Parallel);
    let oracle = first_pause(&design, &cfg, ExecMode::SingleWheel);
    assert!(!parallel.is_empty());
    assert_eq!(
        parallel.as_bytes(),
        oracle.as_bytes(),
        "parallel and oracle barrier snapshots diverge ({} vs {} bytes)",
        parallel.len(),
        oracle.len()
    );
}

/// Completes a run from a checkpoint at the given shard count (1 = the
/// serial engine) and returns the verified output buffers.
fn resume_outputs(
    design: &SystemDesign,
    cfg: &SimConfig,
    shards: u32,
    cp: &Checkpoint,
    w: &svmsyn_workloads::Workload,
) -> Vec<Vec<u8>> {
    let cfg = SimConfig {
        shards,
        // No further pauses: run straight to completion.
        checkpoint_every: 0,
        ..*cfg
    };
    let outcome = if shards > 1 {
        let mut sim = ShardedSim::restore(design, &cfg, ExecMode::Parallel, cp).unwrap();
        while !matches!(sim.run().unwrap(), svmsyn::RunProgress::Complete) {}
        sim.finish().unwrap()
    } else {
        let mut sim = Sim::restore(design, &cfg, cp).unwrap();
        while !matches!(sim.run().unwrap(), svmsyn::RunProgress::Complete) {}
        sim.finish().unwrap()
    };
    w.verify(&outcome)
        .unwrap_or_else(|e| panic!("resume at {shards} shards computed wrong output: {e}"));
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

/// A barrier checkpoint is shard-count-agnostic: it resumes on the serial
/// engine and on sharded engines of any width, and every resumption
/// computes the same verified output bytes.
#[test]
fn sharded_checkpoint_restores_at_any_shard_count() {
    let (design, cfg, w) = sharded_fixture();
    let cp = first_pause(&design, &cfg, ExecMode::Parallel);
    let reference = resume_outputs(&design, &cfg, 1, &cp, &w);
    for shards in [2u32, 3, 4] {
        assert_eq!(
            resume_outputs(&design, &cfg, shards, &cp, &w),
            reference,
            "resume at {shards} shards diverged from the serial resume"
        );
    }
}

/// The reverse direction: a checkpoint written by the *serial* engine
/// mid-run restores into the sharded engine and completes correctly.
#[test]
fn serial_checkpoint_restores_into_sharded_engine() {
    let (design, cfg, w) = sharded_fixture();
    let serial_cfg = SimConfig { shards: 1, ..cfg };
    let mut sim = Sim::new(&design, &serial_cfg).unwrap();
    let cp = match sim.run().unwrap() {
        svmsyn::RunProgress::Paused(cp) => cp,
        svmsyn::RunProgress::Complete => panic!("run completed before the first pause"),
    };
    let reference = resume_outputs(&design, &cfg, 1, &cp, &w);
    for shards in [2u32, 4] {
        assert_eq!(
            resume_outputs(&design, &cfg, shards, &cp, &w),
            reference,
            "sharded resume at {shards} shards diverged from the serial resume"
        );
    }
}

/// The pending-step count a payload ends with: `next_step_seq`, the count,
/// then one `(at, seq, thread)` entry of 8 + 8 + 4 bytes per step.
fn pending_steps(image: &Checkpoint, steps: usize) -> u64 {
    let (_, payload) = svmsyn_snap::read_image(image.as_bytes(), SNAPSHOT_VERSION).unwrap();
    let at = payload.len() - 20 * steps - 8;
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

/// The images [`snapshot_bytes_are_pinned`] pins, in this order: the
/// default suite (seed 1) all-HW and all-SW, each without a frame budget
/// and under 8 frames, at half makespan; then the 4-thread fanout vecadd
/// all-HW on the serial engine at half makespan and on 4 parallel shards
/// at the first `checkpoint_every = 40` pause.
fn pinned_images() -> Vec<(String, Checkpoint)> {
    let cfg = SimConfig::default();
    let half_makespan_image = |design: &SystemDesign| {
        let half = Cycle(simulate(design, &cfg).unwrap().makespan.0 / 2);
        let mut sim = Sim::new(design, &cfg).unwrap();
        assert!(sim.run_until(half).unwrap(), "finished before the cut");
        sim.snapshot()
    };
    let mut images = Vec::new();
    for w in svmsyn_workloads::default_suite(1) {
        for (pl, placement) in [("hw", Placement::Hardware), ("sw", Placement::Software)] {
            for (bl, budget) in [("none", None), ("8", Some(8))] {
                let mut platform = Platform::default();
                platform.os.frame_budget = budget;
                let placements = vec![placement; w.app.threads.len()];
                let design = synthesize(&w.app, &platform, &placements).unwrap();
                images.push((
                    format!("{}/{pl}/{bl}", w.name),
                    half_makespan_image(&design),
                ));
            }
        }
    }
    let (design, sharded_cfg, _) = sharded_fixture();
    let serial = half_makespan_image(&design);
    let parallel = first_pause(&design, &sharded_cfg, ExecMode::Parallel);
    for image in [&serial, &parallel] {
        assert_eq!(pending_steps(image, 4), 4, "fanout image step count");
    }
    images.push(("fanout-vecadd-x4/serial".to_string(), serial));
    images.push(("fanout-vecadd-x4/parallel4".to_string(), parallel));
    images
}

/// `Fnv1a` digests of the [`pinned_images`], recorded against the engine
/// that wrote every existing checkpoint. A change that claims to leave
/// snapshot bytes alone must leave this table alone too.
const PINNED_IMAGE_DIGESTS: &[(&str, u64)] = &[
    ("vecadd/hw/none", 0x8ca36dd4001ada17),
    ("vecadd/hw/8", 0x35416ec2cb741aad),
    ("vecadd/sw/none", 0x3c97091dd2d5650e),
    ("vecadd/sw/8", 0x54a73cda4e8e6210),
    ("saxpy/hw/none", 0x9d48586cd8b2af1d),
    ("saxpy/hw/8", 0x70ba8b7fdcbbff05),
    ("saxpy/sw/none", 0x3158dc93a6b6b153),
    ("saxpy/sw/8", 0x33a53b693deced7f),
    ("matmul/hw/none", 0x0321bc5dd33e324f),
    ("matmul/hw/8", 0x72a18ea064d7cfdb),
    ("matmul/sw/none", 0x93c02e9953c19785),
    ("matmul/sw/8", 0x9605499f86a48e00),
    ("sobel/hw/none", 0x75c5ebae3a8b8391),
    ("sobel/hw/8", 0x95bf2f9040c58e00),
    ("sobel/sw/none", 0x6c70d5021b417de0),
    ("sobel/sw/8", 0xd0c1f8765729cd95),
    ("histogram/hw/none", 0xb3bbdcb1bd5432a6),
    ("histogram/hw/8", 0x111e6d22e495b740),
    ("histogram/sw/none", 0x070786ebe252eb6b),
    ("histogram/sw/8", 0xf18938799a5dfe4c),
    ("spmv/hw/none", 0x95516980328e1fd9),
    ("spmv/hw/8", 0x74ab79016793e38f),
    ("spmv/sw/none", 0x7f3963d5086e1c84),
    ("spmv/sw/8", 0xd09fb0a84391480e),
    ("chase/hw/none", 0xa93bc4f6d59e67bc),
    ("chase/hw/8", 0x95f6108363eda1d8),
    ("chase/sw/none", 0xafbe225f2c8a8b12),
    ("chase/sw/8", 0xb3f72ba0ebcbb47c),
    ("oesort/hw/none", 0x0e42a173d6d6928d),
    ("oesort/hw/8", 0x83f53a47773e19b1),
    ("oesort/sw/none", 0xf06d11af074d9778),
    ("oesort/sw/8", 0x7498a54e4a599750),
    ("fanout-vecadd-x4/serial", 0x49f7cb1541d75f4c),
    ("fanout-vecadd-x4/parallel4", 0xa02edd6a140addfd),
];

/// The snapshot bytes of a fixed set of runs are pinned: the engine may
/// change how it keeps pending steps, but not what an image records.
#[test]
fn snapshot_bytes_are_pinned() {
    let found: Vec<(String, u64)> = pinned_images()
        .into_iter()
        .map(|(name, image)| (name, svmsyn_snap::fnv1a(image.as_bytes())))
        .collect();
    let names: Vec<&str> = found.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINNED_IMAGE_DIGESTS.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "pinned image set");
    let moved: Vec<&str> = found
        .iter()
        .zip(PINNED_IMAGE_DIGESTS)
        .filter(|((_, d), &(_, want))| *d != want)
        .map(|((n, _), _)| n.as_str())
        .collect();
    assert!(moved.is_empty(), "snapshot bytes moved: {moved:?}");
}

/// Satellite audit: `SimError` is a real `std::error::Error` — every
/// variant Displays non-empty, and wrapper variants expose their cause
/// through `source()`.
#[test]
fn sim_error_source_chain_and_display() {
    use std::error::Error as _;

    let (design, cfg, cp) = sample_checkpoint();
    let mut bytes = cp.as_bytes().to_vec();
    bytes[0] = b'X';
    let err = Sim::restore(&design, &cfg, &Checkpoint::from_bytes(bytes)).unwrap_err();
    assert!(!err.to_string().is_empty());
    let src = err.source().expect("Snapshot must expose its SnapError");
    assert_eq!(src.to_string(), SnapError::BadMagic.to_string());

    // SnapError itself terminates the chain.
    assert!(src.source().is_none());
}
