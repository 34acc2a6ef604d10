//! Canonical content fingerprints for applications and platforms.
//!
//! The content-addressed result store (`svmsyn-store`) keys evaluations by
//! `(app fingerprint, platform fingerprint, variant, placements)`, and those
//! keys must collide exactly when the inputs are the same *content* — across
//! processes, across hosts, across builds. So fingerprints here are fnv1a-64
//! digests of canonical snap encodings: every semantically relevant field is
//! written with fixed tags and little-endian scalars, in declaration order,
//! with collection lengths prefixed. Nothing depends on pointer values,
//! hash-map iteration order, or `Debug` formatting (the crate-private
//! `checkpoint::design_fingerprint` precedent hashes Debug strings, which
//! is fine for same-process snapshot guards but not for a shared on-disk
//! store).
//!
//! Names are included deliberately: an application's buffer/thread names and
//! a kernel's name are part of its declared content (two apps that differ
//! only in name are different submissions and may diverge later). The one
//! exception is [`Platform::name`], which is cosmetic — `with_walker` and
//! friends clone it unchanged across materially different variants — so the
//! platform fingerprint excludes it, mirroring what `design_fingerprint`
//! does for `SystemDesign::name`.

use svmsyn_snap::{fnv1a, SnapWriter};

use crate::app::{Application, ArgSpec, BufferSpec, SyncAction, SyncSpec, ThreadSpec};
use crate::platform::Platform;

/// Bumped when the canonical encoding changes shape; mixed into both
/// fingerprints so stale store records from an older encoding never match.
pub const FINGERPRINT_VERSION: u32 = 1;

/// The canonical fingerprint of an application: a content hash of its
/// buffers, sync objects, and threads (kernel IR included). Two
/// applications built independently — in different processes — from the
/// same description produce the same value.
pub fn app_fingerprint(app: &Application) -> u64 {
    let mut w = SnapWriter::new();
    encode_application(app, &mut w);
    fnv1a(&w.into_bytes())
}

/// The canonical fingerprint of a platform: a content hash of every
/// parameter that affects synthesis or simulation. The cosmetic `name` is
/// excluded (variant constructors copy it across different configurations).
pub fn platform_fingerprint(platform: &Platform) -> u64 {
    let mut w = SnapWriter::new();
    encode_platform(platform, &mut w);
    fnv1a(&w.into_bytes())
}

/// Writes the application's canonical encoding into `w` (exposed so tests
/// can compare whole encodings byte-for-byte across processes).
pub fn encode_application(app: &Application, w: &mut SnapWriter) {
    w.put_u32(FINGERPRINT_VERSION);
    w.put_str(&app.name);
    w.put_usize(app.buffers.len());
    for b in &app.buffers {
        encode_buffer(b, w);
    }
    w.put_usize(app.sync_objects.len());
    for s in &app.sync_objects {
        encode_sync_spec(s, w);
    }
    w.put_usize(app.threads.len());
    for t in &app.threads {
        encode_thread(t, w);
    }
}

/// Writes the platform's canonical encoding into `w`.
pub fn encode_platform(p: &Platform, w: &mut SnapWriter) {
    w.put_u32(FINGERPRINT_VERSION);
    // Fabric budget + clock. f64 → raw bits: total order not needed, only
    // bit-equality, and the bits are what the config actually holds.
    w.put_u64(p.fabric.lut);
    w.put_u64(p.fabric.ff);
    w.put_u64(p.fabric.dsp);
    w.put_u64(p.fabric.bram36);
    w.put_u64(p.fabric_mhz.to_bits());
    // Memory system.
    w.put_u64(p.mem.size_bytes);
    w.put_u64(p.mem.fabric.width_bytes);
    w.put_u64(p.mem.fabric.arb_cycles);
    w.put_u32(p.mem.fabric.window);
    w.put_u32(p.mem.fabric.mshrs);
    w.put_u64(p.mem.fabric.mshr_line_bytes);
    w.put_u32(p.mem.dram.banks);
    w.put_u64(p.mem.dram.row_bytes);
    w.put_u64(p.mem.dram.t_row_hit);
    w.put_u64(p.mem.dram.t_row_miss);
    w.put_u64(p.mem.dram.width_bytes);
    w.put_u64(p.mem.max_burst_bytes);
    // OS: cores, the full cost model, frame economics.
    w.put_usize(p.os.cores);
    w.put_u64(p.os.costs.interrupt_entry);
    w.put_u64(p.os.costs.delegate_wakeup);
    w.put_u64(p.os.costs.syscall);
    w.put_u64(p.os.costs.fault_service);
    w.put_u64(p.os.costs.page_zero);
    w.put_u64(p.os.costs.context_switch);
    w.put_u64(p.os.costs.timeslice);
    w.put_u64(p.os.costs.osif_transfer);
    w.put_u64(p.os.costs.swap_out);
    w.put_u64(p.os.costs.swap_in);
    w.put_u64(p.os.costs.reclaim_scan);
    w.put_u64(p.os.reserved_frames);
    match p.os.frame_budget {
        None => w.put_u8(0),
        Some(n) => {
            w.put_u8(1);
            w.put_u64(n);
        }
    }
    w.put_u8(match p.os.alloc_policy {
        svmsyn_os::AllocPolicy::Lazy => 0,
        svmsyn_os::AllocPolicy::Eager => 1,
    });
    // HLS options.
    w.put_usize(p.hls.fu.alu);
    w.put_usize(p.hls.fu.mul);
    w.put_usize(p.hls.fu.div);
    w.put_usize(p.hls.fu.mem_ports);
    w.put_bool(p.hls.pipeline_loops);
    w.put_bool(p.hls.optimize);
    // MEMIF geometry.
    w.put_u64(p.memif.line_bytes);
    w.put_usize(p.memif.cache_lines);
    w.put_usize(p.memif.mmu.tlb.entries);
    w.put_usize(p.memif.mmu.tlb.ways);
    w.put_u8(match p.memif.mmu.tlb.replacement {
        svmsyn_vm::tlb::Replacement::Lru => 0,
        svmsyn_vm::tlb::Replacement::Fifo => 1,
        svmsyn_vm::tlb::Replacement::Random => 2,
    });
    w.put_u64(p.memif.mmu.tlb.hit_cycles);
    w.put_usize(p.memif.mmu.walker.l1_entries);
    w.put_usize(p.memif.mmu.walker.l2_entries);
    w.put_u8(match p.memif.mode {
        svmsyn_hwt::memif::MemifMode::Virtual => 0,
        svmsyn_hwt::memif::MemifMode::Physical => 1,
    });
    w.put_u32(p.memif.miss_depth);
    w.put_usize(p.max_hw_threads);
}

fn encode_buffer(b: &BufferSpec, w: &mut SnapWriter) {
    w.put_str(&b.name);
    w.put_u64(b.len);
    w.put_bytes(&b.init);
    w.put_bool(b.populate);
}

fn encode_sync_spec(s: &SyncSpec, w: &mut SnapWriter) {
    match s {
        SyncSpec::Mutex => w.put_u8(0),
        SyncSpec::Semaphore(n) => {
            w.put_u8(1);
            w.put_i64(*n);
        }
        SyncSpec::Barrier(n) => {
            w.put_u8(2);
            w.put_u32(*n);
        }
        SyncSpec::Mbox(cap) => {
            w.put_u8(3);
            w.put_usize(*cap);
        }
    }
}

fn encode_thread(t: &ThreadSpec, w: &mut SnapWriter) {
    w.put_str(&t.name);
    // The kernel IR is the content; `decoded` is derived from it
    // deterministically, so it is excluded.
    t.kernel.encode_canonical(w);
    w.put_usize(t.args.len());
    for a in &t.args {
        match a {
            ArgSpec::Buffer(i, off) => {
                w.put_u8(0);
                w.put_usize(*i);
                w.put_u64(*off);
            }
            ArgSpec::Value(v) => {
                w.put_u8(1);
                w.put_i64(*v);
            }
        }
    }
    w.put_usize(t.pre.len());
    for a in &t.pre {
        encode_sync_action(a, w);
    }
    w.put_usize(t.post.len());
    for a in &t.post {
        encode_sync_action(a, w);
    }
    w.put_bool(t.hw_eligible);
}

fn encode_sync_action(a: &SyncAction, w: &mut SnapWriter) {
    match a {
        SyncAction::MutexLock(i) => {
            w.put_u8(0);
            w.put_usize(*i);
        }
        SyncAction::MutexUnlock(i) => {
            w.put_u8(1);
            w.put_usize(*i);
        }
        SyncAction::SemWait(i) => {
            w.put_u8(2);
            w.put_usize(*i);
        }
        SyncAction::SemPost(i) => {
            w.put_u8(3);
            w.put_usize(*i);
        }
        SyncAction::BarrierWait(i) => {
            w.put_u8(4);
            w.put_usize(*i);
        }
        SyncAction::MboxPut(i, v) => {
            w.put_u8(5);
            w.put_usize(*i);
            w.put_u64(*v);
        }
        SyncAction::MboxGet(i) => {
            w.put_u8(6);
            w.put_usize(*i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use svmsyn_hls::builder::KernelBuilder;
    use svmsyn_hls::ir::BinOp;

    use crate::app::ApplicationBuilder;

    fn build_app(name: &str, n: u64, seed: i64) -> Application {
        let mut kb = KernelBuilder::new("k", 2);
        let a = kb.arg(0);
        let b = kb.arg(1);
        let s = kb.bin(BinOp::Add, a, b);
        kb.ret(Some(s));
        let kernel = kb.finish().unwrap();
        ApplicationBuilder::new(name)
            .buffer("data", n, vec![1, 2, 3], false)
            .sync(SyncSpec::Semaphore(seed))
            .thread(
                "worker",
                kernel,
                vec![ArgSpec::Buffer(0, 0), ArgSpec::Value(seed)],
                true,
            )
            .build()
            .unwrap()
    }

    #[test]
    fn identical_apps_collide_distinct_apps_do_not() {
        // Two independent builds of the same description → same digest.
        assert_eq!(
            app_fingerprint(&build_app("a", 4096, 7)),
            app_fingerprint(&build_app("a", 4096, 7))
        );
        // Any content difference → different digest.
        let base = app_fingerprint(&build_app("a", 4096, 7));
        assert_ne!(base, app_fingerprint(&build_app("b", 4096, 7)));
        assert_ne!(base, app_fingerprint(&build_app("a", 8192, 7)));
        assert_ne!(base, app_fingerprint(&build_app("a", 4096, 8)));
    }

    #[test]
    fn platform_name_is_cosmetic_but_variants_are_not() {
        let p = Platform::default();
        let mut renamed = p.clone();
        renamed.name = "same-soc-other-label".into();
        assert_eq!(platform_fingerprint(&p), platform_fingerprint(&renamed));

        let base = platform_fingerprint(&p);
        assert_ne!(base, platform_fingerprint(&Platform::small()));
        assert_ne!(base, platform_fingerprint(&p.with_miss_depth(1)));
        assert_ne!(
            base,
            platform_fingerprint(&p.with_walker(svmsyn_vm::walker::WalkerConfig {
                l1_entries: 2,
                l2_entries: 2,
            }))
        );
        let mut pressured = p.pressure_point();
        pressured.frame_budget = Some(64);
        assert_ne!(base, platform_fingerprint(&p.with_pressure(pressured)));
    }

    #[test]
    fn encoding_is_stable_under_clone() {
        // Cloning shares Arc'd decode state and moves allocations — none of
        // that may leak into the encoding.
        let app = build_app("a", 4096, 7);
        let clone = app.clone();
        let mut w1 = SnapWriter::new();
        let mut w2 = SnapWriter::new();
        encode_application(&app, &mut w1);
        encode_application(&clone, &mut w2);
        assert_eq!(w1.into_bytes(), w2.into_bytes());
    }

    proptest! {
        #[test]
        fn fingerprint_is_pure_function_of_content(
            n in 1u64..1_000_000,
            seed in -1_000_000i64..1_000_000,
            depth in 1u32..64,
        ) {
            let a1 = build_app("p", n, seed);
            let a2 = build_app("p", n, seed);
            prop_assert_eq!(app_fingerprint(&a1), app_fingerprint(&a2));

            let p1 = Platform::default().with_miss_depth(depth);
            let p2 = Platform::default().with_miss_depth(depth);
            prop_assert_eq!(platform_fingerprint(&p1), platform_fingerprint(&p2));
            if depth != Platform::default().memif.miss_depth {
                prop_assert!(
                    platform_fingerprint(&p1) != platform_fingerprint(&Platform::default())
                );
            }
        }
    }
}
