//! Differential suite for event-driven completion delivery.
//!
//! Fabric completions drive the discrete-event engine: consumers park on
//! an outstanding transaction (a registered waiter per `(master, TxnId)`)
//! and the step queue wakes them at the exact completion cycle, instead of
//! analytically polling `poll()` and charging the stall in place. Three
//! contracts lock the wake path down:
//!
//! 1. **Delivery identity.** Multi-master blocking-discipline streams
//!    produce *cycle-identical* per-transaction completions whether each
//!    master analytically polls (a hand-rolled `(time, insertion order)`
//!    loop) or parks on a registered waiter and is woken through the
//!    [`StepQueue`]'s wake path — for the blocking fabric configuration
//!    *and* the windowed one. Lost or drifting wakeups would break the
//!    equality.
//! 2. **Exact-cycle wakes.** A hardware thread that parks a dependent
//!    micro-op on a miss reports a wake cycle at which the fabric's
//!    registered waiter fires — never one cycle early, never late.
//! 3. **Degenerate API identity.** The non-blocking MEMIF consumed in the
//!    blocking discipline (wait for `done` before the next access) is
//!    cycle-identical to the pre-existing blocking wrappers, on random
//!    mixed read/write streams.
//!
//! It also holds the non-blocking MEMIF's payoff: on a mixed pointer-chase +
//! streaming kernel, depth 4 beats the blocking configuration by ≥ 1.15× in
//! simulated cycles.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use proptest::prelude::*;

use svmsyn_hls::builder::KernelBuilder;
use svmsyn_hls::fsmd::{compile, HlsConfig};
use svmsyn_hls::ir::{BinOp, CmpOp, Width};
use svmsyn_hwt::memif::{Memif, MemifConfig};
use svmsyn_hwt::thread::{HwStep, HwThread, HwThreadConfig};
use svmsyn_mem::{
    FabricConfig, MasterId, MemConfig, MemorySystem, PhysAddr, TxnDesc, TxnId, TxnKind, VirtAddr,
};
use svmsyn_sim::{Cycle, StepQueue, Xoshiro256ss};
use svmsyn_vm::pte::{DirEntry, Pte, PteFlags};
use svmsyn_vm::tlb::Asid;
use svmsyn_workloads::chase::{chase_data, chase_stream_kernel};

const MASTERS: usize = 3;

/// One generated request: `(master, address selector, length selector,
/// think-time before the master's next request, is_write)`.
type GenTxn = (u8, u64, u64, u64, bool);

fn desc_of(&(m, addr_sel, len_sel, _, write): &GenTxn) -> TxnDesc {
    let addr = (addr_sel % 32) * 520; // crosses line and bank boundaries
    let bytes = [4u64, 8, 32, 64, 128, 256][(len_sel % 6) as usize];
    TxnDesc {
        master: MasterId(m as u16 % MASTERS as u16),
        addr: PhysAddr(addr),
        bytes,
        kind: if write { TxnKind::Write } else { TxnKind::Read },
    }
}

/// Splits a generated stream into per-master queues (preserving order).
fn per_master(stream: &[GenTxn]) -> Vec<Vec<GenTxn>> {
    let mut queues = vec![Vec::new(); MASTERS];
    for txn in stream {
        queues[(txn.0 as usize) % MASTERS].push(*txn);
    }
    queues
}

fn small_mem(fabric: FabricConfig) -> MemorySystem {
    MemorySystem::new(MemConfig {
        size_bytes: 1 << 20,
        fabric,
        ..MemConfig::default()
    })
}

/// Mode A — **analytic polling**: every master round-trips its stream
/// (issue at arrival, next arrival = completion + think), with the global
/// issue order resolved by a hand-rolled `(time, insertion seq)` priority
/// queue — the exact total order the event scheduler would produce, but
/// with the stall charged by polling `completion()` in place.
fn run_analytic(fabric: FabricConfig, queues: &[Vec<GenTxn>]) -> (Vec<Vec<Cycle>>, u64) {
    let mut mem = small_mem(fabric);
    let mut done: Vec<Vec<Cycle>> = vec![Vec::new(); MASTERS];
    let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut seq = 0u64;
    for (m, q) in queues.iter().enumerate() {
        if let Some(&(_, _, _, think, _)) = q.first() {
            heap.push(Reverse((think, seq, m)));
            seq += 1;
        }
    }
    while let Some(Reverse((arrival, _, m))) = heap.pop() {
        let idx = done[m].len();
        let desc = desc_of(&queues[m][idx]);
        let id = mem.issue(desc, Cycle(arrival));
        let completion = mem.completion(id);
        mem.drain_completions(desc.master, completion);
        done[m].push(completion);
        if let Some(&(_, _, _, think, _)) = queues[m].get(idx + 1) {
            heap.push(Reverse((completion.0 + think, seq, m)));
            seq += 1;
        }
    }
    let busy = mem.fabric().busy_cycles();
    (done, busy)
}

/// Mode B — **event-driven delivery**: each queue entry means "master `m`
/// acts next". An unparked master issues its next request, registers a
/// completion waiter, parks, and books its wake at the waiter's exact
/// cycle; the wake confirms delivery via `drain_woken` and books the next
/// issue after the think time.
fn run_event_driven(fabric: FabricConfig, queues: &[Vec<GenTxn>]) -> (Vec<Vec<Cycle>>, u64) {
    let mut mem = small_mem(fabric);
    let mut done: Vec<Vec<Cycle>> = vec![Vec::new(); MASTERS];
    // The transaction each master is parked on: its next entry is a wake
    // when set, an issue otherwise.
    let mut parked: Vec<Option<(TxnDesc, TxnId)>> = vec![None; MASTERS];
    let mut q = StepQueue::new(Cycle::ZERO, 0, 0, 1);
    for (m, queue) in queues.iter().enumerate() {
        if let Some(&(_, _, _, think, _)) = queue.first() {
            q.push(Cycle(think), m as u32);
        }
    }
    while let Some((now, m)) = q.pop() {
        let m = m as usize;
        match parked[m].take() {
            None => {
                let desc = desc_of(&queues[m][done[m].len()]);
                let id = mem.issue(desc, now);
                let wake = mem.register_waiter(desc.master, id);
                done[m].push(wake);
                parked[m] = Some((desc, id));
                q.push_wake(wake, m as u32);
            }
            Some((desc, id)) => {
                // The wake fires at the registered completion cycle, never
                // early or late: the waiter must surface exactly now.
                let woken = mem.drain_woken(desc.master, now);
                assert_eq!(woken, vec![(id, now)], "wake drift for {desc:?}");
                if let Some(&(_, _, _, think, _)) = queues[m].get(done[m].len()) {
                    q.push(now + Cycle(think), m as u32);
                }
            }
        }
    }
    let busy = mem.fabric().busy_cycles();
    (done, busy)
}

proptest! {
    /// Contract 1, blocking configuration: event-driven delivery is
    /// cycle-identical to analytic polling — the stall-at-next-access
    /// timing bug is a *delivery* change, not a timing-model change.
    #[test]
    fn blocking_config_identical_under_event_delivery(
        stream in prop::collection::vec(
            (0u8..MASTERS as u8, 0u64..64, 0u64..6, 1u64..300, any::<bool>()),
            1..120,
        ),
    ) {
        let queues = per_master(&stream);
        let (analytic, busy_a) = run_analytic(FabricConfig::blocking(), &queues);
        let (event, busy_b) = run_event_driven(FabricConfig::blocking(), &queues);
        prop_assert_eq!(&analytic, &event, "per-transaction completions diverged");
        prop_assert_eq!(busy_a, busy_b);
    }

    /// Contract 1, windowed configuration: the wake path does not drift on
    /// the split fabric either (MSHR merges included).
    #[test]
    fn split_config_identical_under_event_delivery(
        stream in prop::collection::vec(
            (0u8..MASTERS as u8, 0u64..16, 0u64..6, 1u64..120, any::<bool>()),
            1..120,
        ),
    ) {
        let queues = per_master(&stream);
        let (analytic, busy_a) = run_analytic(FabricConfig::default(), &queues);
        let (event, busy_b) = run_event_driven(FabricConfig::default(), &queues);
        prop_assert_eq!(&analytic, &event, "per-transaction completions diverged");
        prop_assert_eq!(busy_a, busy_b);
    }

    /// Contract 3: the non-blocking MEMIF consumed in the blocking
    /// discipline is cycle-identical to the blocking wrappers.
    #[test]
    fn nb_memif_degenerates_to_the_blocking_api(
        stream in prop::collection::vec(
            (0u64..2000, 0u64..4, any::<bool>()),
            1..150,
        ),
    ) {
        let (mut mem_a, root) = mapped_memory();
        let (mut mem_b, _) = mapped_memory();
        let mut memif_a = Memif::new(MemifConfig::default(), MasterId(3));
        let mut memif_b = Memif::new(MemifConfig::default(), MasterId(3));
        memif_a.set_context(Asid(1), root);
        memif_b.set_context(Asid(1), root);
        let mut ta = Cycle(0);
        let mut tb = Cycle(0);
        for (i, &(addr_sel, width_sel, write)) in stream.iter().enumerate() {
            let va = VirtAddr((addr_sel * 36) % (16 * 4096 - 8));
            let width = [Width::W8, Width::W16, Width::W32, Width::W64][width_sel as usize % 4];
            if write {
                ta = memif_a.write(&mut mem_a, va, width, i as u64, ta).unwrap();
                let acc = memif_b.write_nb(&mut mem_b, va, width, i as u64, tb).unwrap();
                tb = acc.done;
            } else {
                let (raw_a, done_a) = memif_a.read(&mut mem_a, va, width, ta).unwrap();
                ta = done_a;
                let acc = memif_b.read_nb(&mut mem_b, va, width, tb).unwrap();
                prop_assert_eq!(raw_a, acc.raw, "access {} value diverged", i);
                tb = acc.done;
            }
            prop_assert_eq!(ta, tb, "access {} completion diverged", i);
        }
    }
}

/// Identity-maps VA pages `0..16` to PFNs `100..116`.
fn mapped_memory() -> (MemorySystem, PhysAddr) {
    let mut mem = MemorySystem::new(MemConfig::default());
    let root = PhysAddr::from_frame(5);
    mem.poke_u32(root, DirEntry::table(6).encode());
    let flags = PteFlags {
        writable: true,
        user: true,
        ..PteFlags::default()
    };
    for p in 0..16u64 {
        mem.poke_u32(
            PhysAddr::from_frame(6).offset(4 * p),
            Pte::leaf(100 + p, flags).encode(),
        );
    }
    (mem, root)
}

/// chase(base, n): `p = base; repeat n times { p = load64(p) }; return p` —
/// every load's address depends on the previous load, the worst case for a
/// blocking interface and the canonical park/wake exercise.
fn chase_kernel() -> svmsyn_hls::ir::Kernel {
    let mut b = KernelBuilder::new("chase", 2);
    let entry = b.current_block();
    let header = b.new_block();
    let body = b.new_block();
    let exit = b.new_block();
    let base = b.arg(0);
    let n = b.arg(1);
    let zero = b.constant(0);
    b.jump(header);
    b.switch_to(header);
    let i = b.phi();
    let p = b.phi();
    let c = b.cmp(CmpOp::Lt, i, n);
    b.branch(c, body, exit);
    b.switch_to(body);
    let next = b.load(p, Width::W64);
    let one = b.constant(1);
    let i2 = b.bin(BinOp::Add, i, one);
    b.jump(header);
    b.switch_to(exit);
    b.ret(Some(p));
    b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
    b.set_phi_incoming(p, &[(entry, base), (body, next)]);
    b.finish().unwrap()
}

/// Contract 2: a thread parked on a miss wakes at exactly the fabric
/// completion cycle of the fill it depends on — the registered waiter
/// surfaces at `wake` and at no earlier cycle.
#[test]
fn parked_thread_wakes_at_the_exact_fill_completion() {
    let (mut mem, root) = mapped_memory();
    // A pointer chain striding 136 B (fresh line every hop, one page).
    let hops = 24u64;
    for h in 0..hops {
        let at = h * 136;
        let next = (h + 1) * 136;
        mem.poke_u64(PhysAddr::from_frame(100).offset(at), next);
    }
    let ck = Arc::new(compile(&chase_kernel(), &HlsConfig::default()));
    let master = MasterId(7);
    let mut t = HwThread::new(ck, &[0, hops as i64], &HwThreadConfig::default(), master);
    t.set_context(Asid(1), root);

    let mut now = Cycle(0);
    let mut parks = 0u64;
    let ret = loop {
        match t.advance(&mut mem, now, u64::MAX) {
            HwStep::Parked { wake } => {
                parks += 1;
                // No early wake: nothing registered fires before `wake`...
                let early = mem.drain_woken(master, wake - Cycle(1));
                assert!(
                    early.iter().all(|&(_, done)| done < wake),
                    "waiter surfaced early"
                );
                // ...and the dep fill's waiter fires at exactly `wake`.
                let woken = mem.drain_woken(master, wake);
                assert_eq!(
                    woken.last().map(|&(_, done)| done),
                    Some(wake),
                    "park wake {wake} is not a registered fabric completion"
                );
                now = wake;
            }
            HwStep::Yielded { now: n } => now = n,
            HwStep::Finished { ret, .. } => break ret,
            HwStep::PageFault { fault, .. } => panic!("unexpected fault: {fault}"),
        }
    };
    assert_eq!(
        ret,
        Some((hops * 136) as i64),
        "chase must land on the tail"
    );
    assert!(
        parks >= hops / 2,
        "a dependent chase must park on most hops (parked {parks} of {hops})"
    );
    let s = t.stats();
    assert_eq!(s.get("miss_parks"), Some(parks as f64));
}

/// The blocking MEMIF configuration (`miss_depth == 1`) never parks and
/// reports zero overlap — it *is* the pre-event-delivery analytic path.
#[test]
fn blocking_memif_config_never_parks() {
    let (mut mem, root) = mapped_memory();
    let hops = 16u64;
    for h in 0..hops {
        mem.poke_u64(PhysAddr::from_frame(100).offset(h * 136), (h + 1) * 136);
    }
    let ck = Arc::new(compile(&chase_kernel(), &HlsConfig::default()));
    let cfg = HwThreadConfig {
        memif: MemifConfig {
            miss_depth: 1,
            ..MemifConfig::default()
        },
    };
    let mut t = HwThread::new(ck, &[0, hops as i64], &cfg, MasterId(7));
    t.set_context(Asid(1), root);
    let mut now = Cycle(0);
    loop {
        match t.advance(&mut mem, now, 5_000) {
            HwStep::Parked { wake } => panic!("blocking config parked at {wake}"),
            HwStep::Yielded { now: n } => now = n,
            HwStep::Finished { .. } => break,
            HwStep::PageFault { fault, .. } => panic!("unexpected fault: {fault}"),
        }
    }
    let s = t.stats();
    assert_eq!(s.get("miss_parks"), Some(0.0));
    assert_eq!(s.get("memif.miss_overlap_cycles"), Some(0.0));
    assert_eq!(s.get("memif.hit_under_miss"), Some(0.0));
}

/// Simulated cycles of `chase_stream_kernel` at `miss_depth`: a 1024-hop
/// chase around a 2048-node ring at VA 0 (16 KiB, 4× the burst cache, so
/// hops keep missing), streaming `c[i] = a[i] + b[i]` at VA `0x8000`,
/// `0x9000` and `0xA000`.
fn chase_stream_cycles(miss_depth: u32) -> u64 {
    const HOPS: u64 = 1024; // each stream array fills exactly one page
    let (mut mem, root) = mapped_memory();
    let mut rng = Xoshiro256ss::new(0xC0FFEE);
    let (words, _) = chase_data(2048, HOPS, &mut rng);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    mem.load(PhysAddr::from_frame(100), &bytes);
    for i in 0..HOPS {
        mem.poke_u32(PhysAddr::from_frame(108).offset(4 * i), i as u32);
        mem.poke_u32(PhysAddr::from_frame(109).offset(4 * i), 2 * i as u32);
    }
    let ck = Arc::new(compile(&chase_stream_kernel(), &HlsConfig::default()));
    let cfg = HwThreadConfig {
        memif: MemifConfig {
            miss_depth,
            ..MemifConfig::default()
        },
    };
    let args = [0, 0x8000, 0x9000, 0xA000, HOPS as i64];
    let mut t = HwThread::new(ck, &args, &cfg, MasterId(2));
    t.set_context(Asid(1), root);
    let mut now = Cycle(0);
    loop {
        match t.advance(&mut mem, now, 100_000) {
            HwStep::Yielded { now: n } => now = n,
            HwStep::Parked { wake } => now = wake,
            HwStep::Finished { now: end, .. } => return end.0,
            HwStep::PageFault { fault, .. } => panic!("unexpected fault: {fault}"),
        }
    }
}

/// Hit-under-miss pays: while a chase hop's fill is outstanding, only the
/// dependent next hop parks and the streaming element retires under the
/// miss, so depth 4 finishes the mixed kernel ≥ 1.15× sooner than the
/// blocking configuration. Simulated cycles are deterministic, so the bar
/// is exact.
#[test]
fn hit_under_miss_beats_blocking_by_1_15x() {
    let blocking = chase_stream_cycles(1);
    let overlapped = chase_stream_cycles(4);
    let speedup = blocking as f64 / overlapped as f64;
    assert!(
        speedup >= 1.15,
        "hit-under-miss speedup {speedup:.3}x below the 1.15x bar \
         (blocking {blocking}, depth 4 {overlapped})"
    );
}
