//! The hooked dispatch loop against the yield-per-event loop.
//!
//! `Interp::run_hooked_dep` hands every block change, load and store to
//! hooks inside the dispatch loop; `next_mem_dep` yields each one to its
//! caller. For every default-suite kernel, as built and as the HLS pipeline
//! optimizes it for hardware threads, hooks that record each event with its
//! dependence token and serve loads from a `SliceMemory` must see exactly
//! the sequence the `next_mem_dep` + `provide_load_dep` loop sees, and both
//! runs must end with the same return value, memory image and `steps()`.
//! The same holds for `run_hooked` against `next_mem`, where every token
//! is `0`.
//!
//! The hooks also stop and decline events on a fixed rhythm, and the test
//! loop replays each declined event through the same hook, so the resume
//! paths of the dispatch loop are covered as well.

use std::sync::Arc;

use svmsyn::app::ArgSpec;
use svmsyn_hls::fsmd::{compile, HlsConfig};
use svmsyn_hls::interp::{DataPort, Flow, Interp, InterpEvent, InterpHooks, SliceMemory};
use svmsyn_hls::ir::{BlockId, Kernel, Width};
use svmsyn_workloads::{default_suite, Workload};

/// The dependence token the `n`-th load (from 0) is served with: every
/// third load's data is "in hand" (token 0), the others ride a fill.
/// Non-zero tokens increase with `n`, as the interpreter requires.
fn token(n: u32) -> u32 {
    if n.is_multiple_of(3) {
        0
    } else {
        n
    }
}

type Trace = Vec<(InterpEvent, u32)>;

/// Records every event it handles and serves loads from a flat image.
/// Of the events offered to it, every seventh (from the fourth) is
/// declined and every fifth handled one stops the run.
struct Recorder<'a> {
    mem: SliceMemory<'a>,
    trace: Trace,
    loads: u32,
    offered: u64,
}

impl Recorder<'_> {
    /// Whether to decline the event now offered.
    fn declines(&mut self) -> bool {
        self.offered += 1;
        self.offered % 7 == 4
    }

    /// Records a handled event; stops on every fifth.
    fn handled<T>(&mut self, ev: InterpEvent, dep: u32, v: T) -> Flow<T> {
        self.trace.push((ev, dep));
        if self.trace.len().is_multiple_of(5) {
            Flow::Stop(v)
        } else {
            Flow::Continue(v)
        }
    }
}

impl InterpHooks for Recorder<'_> {
    fn block_change(&mut self, from: BlockId, to: BlockId, dep: u32) -> Flow {
        if self.declines() {
            return Flow::Decline;
        }
        self.handled(InterpEvent::BlockChange { from, to }, dep, ())
    }

    fn load(&mut self, addr: u64, width: Width, dep: u32) -> Flow<(u64, u32)> {
        if self.declines() {
            return Flow::Decline;
        }
        let data = (self.mem.read(addr, width), token(self.loads));
        self.loads += 1;
        self.handled(InterpEvent::Load { addr, width }, dep, data)
    }

    fn store(&mut self, addr: u64, width: Width, value: u64, dep: u32) -> Flow {
        if self.declines() {
            return Flow::Decline;
        }
        self.mem.write(addr, width, value);
        self.handled(InterpEvent::Store { addr, width, value }, dep, ())
    }
}

/// The yield-per-event loop: returns the trace, final image and steps.
fn yielded(kernel: &Kernel, args: &[i64], image: &[u8], track: bool) -> (Trace, Vec<u8>, u64) {
    let mut mem = image.to_vec();
    let mut interp = Interp::new(Arc::new(kernel.clone()), args);
    let mut trace = Vec::new();
    let mut loads = 0;
    loop {
        let (ev, dep) = if track {
            interp.next_mem_dep()
        } else {
            (interp.next_mem(), 0)
        };
        trace.push((ev, dep));
        match ev {
            InterpEvent::Load { addr, width } => {
                let raw = SliceMemory(&mut mem).read(addr, width);
                interp.provide_load_dep(raw, token(loads));
                loads += 1;
            }
            InterpEvent::Store { addr, width, value } => {
                SliceMemory(&mut mem).write(addr, width, value);
            }
            InterpEvent::Done { .. } => break,
            _ => {}
        }
    }
    (trace, mem, interp.steps())
}

/// The hooked loop, resuming after every stop and replaying every declined
/// event through the same hook: returns the trace, final image and steps.
fn hooked(kernel: &Kernel, args: &[i64], image: &[u8], track: bool) -> (Trace, Vec<u8>, u64) {
    let mut mem = image.to_vec();
    let mut interp = Interp::new(Arc::new(kernel.clone()), args);
    let mut rec = Recorder {
        mem: SliceMemory(&mut mem),
        trace: Vec::new(),
        loads: 0,
        offered: 0,
    };
    loop {
        let end = if track {
            interp.run_hooked_dep(&mut rec)
        } else {
            interp.run_hooked(&mut rec)
        };
        let Some((ev, dep)) = end else {
            continue;
        };
        // A declined event comes back here; `declines` never refuses two
        // offers in a row, so the replay is handled.
        let replay = match ev {
            InterpEvent::Done { .. } => {
                rec.trace.push((ev, dep));
                break;
            }
            InterpEvent::Load { addr, width } => match rec.load(addr, width, dep) {
                Flow::Continue((raw, tok)) | Flow::Stop((raw, tok)) => {
                    interp.provide_load_dep(raw, tok);
                    true
                }
                Flow::Decline => false,
            },
            InterpEvent::Store { addr, width, value } => {
                rec.store(addr, width, value, dep) != Flow::Decline
            }
            InterpEvent::BlockChange { from, to } => {
                rec.block_change(from, to, dep) != Flow::Decline
            }
            InterpEvent::Op(_) => panic!("hooked runs never yield compute ops"),
        };
        assert!(replay, "{}: a replayed event was declined", kernel.name);
    }
    let trace = std::mem::take(&mut rec.trace);
    (trace, mem, interp.steps())
}

/// Lays a workload's buffers into a flat image at `gap`-byte strides and
/// resolves its launch arguments against that layout.
fn workload_layout(w: &Workload, gap: u64) -> (Vec<i64>, Vec<u8>) {
    let mut image = vec![0u8; gap as usize * w.app.buffers.len()];
    for (i, b) in w.app.buffers.iter().enumerate() {
        assert!(b.len <= gap, "buffer {i} larger than the gap");
        let base = i * gap as usize;
        image[base..base + b.init.len()].copy_from_slice(&b.init);
    }
    let args = w.app.threads[0]
        .args
        .iter()
        .map(|a| match a {
            ArgSpec::Buffer(bi, off) => (*bi as u64 * gap + off) as i64,
            ArgSpec::Value(v) => *v,
        })
        .collect();
    (args, image)
}

#[test]
fn hooks_see_the_yielded_event_sequence_on_every_suite_kernel() {
    const GAP: u64 = 1 << 20;
    for w in default_suite(11) {
        let (args, image) = workload_layout(&w, GAP);
        let built = w.app.threads[0].kernel.clone();
        let optimized = compile(&built, &HlsConfig::default()).kernel.clone();
        for (form, kernel) in [("built", &built), ("optimized", &optimized)] {
            for track in [true, false] {
                let ctx = format!("{} ({form}, tracked: {track})", w.name);
                let (want, want_mem, want_steps) = yielded(kernel, &args, &image, track);
                let (got, got_mem, got_steps) = hooked(kernel, &args, &image, track);
                assert!(want.len() > 100, "{ctx}: trace too short to mean much");
                if let Some(i) = (0..want.len().min(got.len())).find(|&i| want[i] != got[i]) {
                    panic!(
                        "{ctx}: event #{i}: yielded {:?}, hooked {:?}",
                        want[i], got[i]
                    );
                }
                assert_eq!(got.len(), want.len(), "{ctx}: trace length");
                assert_eq!(got_steps, want_steps, "{ctx}: steps");
                assert!(got_mem == want_mem, "{ctx}: final memory diverged");
                if track {
                    assert!(
                        want.iter().any(|&(_, dep)| dep != 0),
                        "{ctx}: no dependences"
                    );
                }
            }
        }
    }
}
