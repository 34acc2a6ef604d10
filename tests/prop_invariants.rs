//! Property-based invariants across the substrates.

use proptest::prelude::*;

use svmsyn_hls::builder::KernelBuilder;
use svmsyn_hls::interp::{run, SliceMemory};
use svmsyn_hls::ir::{BinOp, CmpOp};
use svmsyn_hls::opt::optimize;
use svmsyn_mem::{split_at_page_boundaries, VirtAddr, PAGE_SIZE};
use svmsyn_os::frame::FrameAllocator;
use svmsyn_sim::{Cycle, HeapScheduler, Scheduler};
use svmsyn_vm::pte::{Pte, PteFlags};
use svmsyn_vm::tlb::{Asid, Replacement, Tlb, TlbConfig};

/// The firing trace of one scheduler run: `(cycle, event id)` pairs.
type SchedTrace = Vec<(u64, u32)>;

/// One generated event: fired at its scheduled cycle, it logs itself and
/// respawns `fanout` children at deterministic delays — a mix of zero-delay
/// same-cycle ties, short near-future hops, and far jumps that cross any
/// realistic wheel window. The far jump is id-derived, or with `fixed_far`
/// the fixed [`FAR_DELAY`], which lands the far children of same-cycle
/// parents on one overflow cycle. Children stop respawning once ids grow
/// past the depth bound, so every program terminates.
fn child_delay(id: u32, k: u8, fixed_far: bool) -> u64 {
    match k % 3 {
        0 => 0,                                    // same-cycle tie
        1 => (id as u64 * 37 + k as u64) % 61 + 1, // near future
        _ if fixed_far => FAR_DELAY,               // overflow-level ties
        _ => (id as u64 * 131 + 7) % 9000 + 64,    // beyond small wheels
    }
}

/// A far-future delay beyond every tested wheel window (at most 2^12).
const FAR_DELAY: u64 = 6_000;

const RESPAWN_BOUND: u32 = 4_000;

type WheelEvent = Box<dyn FnOnce(&mut SchedTrace, &mut Scheduler<SchedTrace>) + Send>;
type HeapEvent = Box<dyn FnOnce(&mut SchedTrace, &mut HeapScheduler<SchedTrace>)>;

fn wheel_prog_event(id: u32, fanout: u8, fixed_far: bool) -> WheelEvent {
    Box::new(move |m: &mut SchedTrace, s: &mut Scheduler<SchedTrace>| {
        m.push((s.now().0, id));
        if id < RESPAWN_BOUND {
            for k in 0..fanout {
                s.schedule_in(
                    Cycle(child_delay(id, k, fixed_far)),
                    wheel_prog_event(id + 1000 + k as u32, fanout, fixed_far),
                );
            }
        }
    })
}

fn heap_prog_event(id: u32, fanout: u8, fixed_far: bool) -> HeapEvent {
    Box::new(
        move |m: &mut SchedTrace, s: &mut HeapScheduler<SchedTrace>| {
            m.push((s.now().0, id));
            if id < RESPAWN_BOUND {
                for k in 0..fanout {
                    s.schedule_in(
                        Cycle(child_delay(id, k, fixed_far)),
                        heap_prog_event(id + 1000 + k as u32, fanout, fixed_far),
                    );
                }
            }
        },
    )
}

proptest! {
    /// The timing-wheel scheduler fires an arbitrary schedule in the exact
    /// `(time, insertion order)` sequence the retired heap engine produced,
    /// including same-cycle ties, pop-then-reschedule chains, and overflow
    /// promotion across wheel windows of every size. With `fixed_far`, far
    /// children tie on overflow cycles, and once both engines drain, the
    /// roots are booked again past the window into the empty queue (a fault
    /// wake under memory pressure) and run a second time.
    #[test]
    fn timing_wheel_matches_heap_scheduler(
        roots in prop::collection::vec((0u64..5_000, 0u8..4), 1..32),
        wheel_bits in 6u32..13,
        fixed_far in any::<bool>(),
    ) {
        let mut wheel: Scheduler<SchedTrace> = Scheduler::with_wheel_bits(wheel_bits);
        let mut heap: HeapScheduler<SchedTrace> = HeapScheduler::new();
        for (i, &(t, fanout)) in roots.iter().enumerate() {
            wheel.schedule_at(Cycle(t), wheel_prog_event(i as u32, fanout, fixed_far));
            heap.schedule_at(Cycle(t), heap_prog_event(i as u32, fanout, fixed_far));
        }
        let mut wheel_trace = SchedTrace::new();
        let mut heap_trace = SchedTrace::new();
        wheel.run(&mut wheel_trace);
        heap.run(&mut heap_trace);
        if fixed_far {
            for (i, &(t, fanout)) in roots.iter().enumerate() {
                let delay = Cycle(FAR_DELAY + t);
                wheel.schedule_in(delay, wheel_prog_event(i as u32, fanout, true));
                heap.schedule_in(delay, heap_prog_event(i as u32, fanout, true));
            }
        }
        let wheel_end = wheel.run(&mut wheel_trace);
        let heap_end = heap.run(&mut heap_trace);
        prop_assert_eq!(wheel.events_fired(), heap.events_fired());
        prop_assert_eq!(wheel_end, heap_end);
        prop_assert_eq!(wheel_trace, heap_trace);
        // Both drained completely.
        prop_assert_eq!(wheel.pending(), 0);
        prop_assert_eq!(heap.pending(), 0);
    }

    #[test]
    fn pte_roundtrips(pfn in 0u64..(1 << 20), bits in 0u8..32) {
        let flags = PteFlags {
            writable: bits & 1 != 0,
            user: bits & 2 != 0,
            accessed: bits & 4 != 0,
            dirty: bits & 8 != 0,
            pinned: bits & 16 != 0,
        };
        let back = Pte::decode(Pte::leaf(pfn, flags).encode());
        prop_assert!(back.is_valid());
        prop_assert_eq!(back.pfn(), pfn);
        prop_assert_eq!(back.flags(), flags);
    }

    #[test]
    fn page_splits_cover_exactly(addr in 0u64..(1 << 30), len in 0u64..(4 * PAGE_SIZE)) {
        let chunks = split_at_page_boundaries(VirtAddr(addr), len);
        let total: u64 = chunks.iter().map(|c| c.2).sum();
        prop_assert_eq!(total, len);
        let mut cursor = addr;
        for (va, off, n) in &chunks {
            prop_assert_eq!(va.0, cursor);
            prop_assert_eq!(*off, va.0 - addr);
            // No chunk crosses a page boundary.
            prop_assert!(va.page_offset() + n <= PAGE_SIZE);
            cursor += n;
        }
    }

    #[test]
    fn tlb_never_returns_invalidated_translation(
        ops in prop::collection::vec((0u64..64, 0u64..32, any::<bool>()), 1..200),
        entries_log in 1u32..6,
        policy in 0u8..3,
    ) {
        let replacement = match policy {
            0 => Replacement::Lru,
            1 => Replacement::Fifo,
            _ => Replacement::Random,
        };
        let entries = 1usize << entries_log;
        let mut tlb = Tlb::new(TlbConfig { entries, ways: entries, replacement, hit_cycles: 1 });
        // Shadow model of what must NOT be present.
        let mut invalidated: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for (vpn, pfn, invalidate) in ops {
            if invalidate {
                tlb.invalidate_page(Asid(1), vpn);
                invalidated.insert(vpn);
            } else {
                tlb.insert(Asid(1), vpn, pfn, PteFlags::default());
                invalidated.remove(&vpn);
            }
            for &dead in &invalidated {
                prop_assert!(
                    tlb.lookup(Asid(1), dead).is_none(),
                    "stale translation for vpn {dead}"
                );
            }
        }
        prop_assert!(tlb.occupancy() <= entries);
    }

    #[test]
    fn frame_allocator_never_double_allocates(
        ops in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let mut fa = FrameAllocator::new(0, 128);
        let mut live: Vec<u64> = Vec::new();
        let mut seen_live: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for alloc in ops {
            if alloc {
                if let Ok(f) = fa.alloc() {
                    prop_assert!(seen_live.insert(f), "frame {f} handed out twice");
                    live.push(f);
                }
            } else if let Some(f) = live.pop() {
                seen_live.remove(&f);
                fa.free(f);
            }
        }
        prop_assert_eq!(fa.allocated(), live.len() as u64);
    }

    /// Random straight-line arithmetic programs compute the same result
    /// before and after the optimization pipeline.
    #[test]
    fn optimizer_preserves_straight_line_semantics(
        seeds in prop::collection::vec((0u8..6, 0usize..64, 0usize..64), 1..40),
        args in prop::collection::vec(-1000i64..1000, 2..4),
    ) {
        let mut b = KernelBuilder::new("p", args.len() as u16);
        let mut vals = Vec::new();
        for i in 0..args.len() as u16 {
            vals.push(b.arg(i));
        }
        vals.push(b.constant(3));
        vals.push(b.constant(-7));
        for (op, x, y) in seeds {
            let a = vals[x % vals.len()];
            let c = vals[y % vals.len()];
            let v = match op {
                0 => b.bin(BinOp::Add, a, c),
                1 => b.bin(BinOp::Sub, a, c),
                2 => b.bin(BinOp::Mul, a, c),
                3 => b.bin(BinOp::Xor, a, c),
                4 => b.cmp(CmpOp::Lt, a, c),
                _ => b.bin(BinOp::Min, a, c),
            };
            vals.push(v);
        }
        let ret = *vals.last().expect("nonempty");
        b.ret(Some(ret));
        let kernel = b.finish().expect("well-formed random kernel");

        let mut none = [0u8; 0];
        let before = run(&kernel, &args, &mut SliceMemory(&mut none), 1_000_000).ret;
        let mut optimized = kernel.clone();
        optimize(&mut optimized);
        let after = run(&optimized, &args, &mut SliceMemory(&mut none), 1_000_000).ret;
        prop_assert_eq!(before, after);
        prop_assert!(optimized.blocks[0].instrs.len() <= kernel.blocks[0].instrs.len());
    }

    /// The odd-even sort kernel sorts arbitrary inputs (interpreter-level).
    #[test]
    fn oesort_sorts_random_vectors(data in prop::collection::vec(-10_000i32..10_000, 1..48)) {
        let kernel = svmsyn_workloads::oesort::oesort_kernel();
        let mut image: Vec<u8> = data.iter().flat_map(|v| v.to_le_bytes()).collect();
        run(
            &kernel,
            &[0, data.len() as i64],
            &mut SliceMemory(&mut image),
            50_000_000,
        );
        let got: Vec<i32> = image
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        let mut want = data.clone();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// List schedules respect dependences and never exceed the FU budget.
    #[test]
    fn list_schedule_respects_budget(seeds in prop::collection::vec((0u8..4, 0usize..32, 0usize..32), 1..24)) {
        use svmsyn_hls::ir::OpClass;
        use svmsyn_hls::resource::{initiation_interval, FuBudget};
        use svmsyn_hls::sched::{block_deps, list_schedule};

        let mut b = KernelBuilder::new("s", 2);
        let mut vals = vec![b.arg(0), b.arg(1)];
        for (op, x, y) in seeds {
            let a = vals[x % vals.len()];
            let c = vals[y % vals.len()];
            let v = match op {
                0 => b.bin(BinOp::Add, a, c),
                1 => b.bin(BinOp::Mul, a, c),
                2 => b.bin(BinOp::Div, a, c),
                _ => b.bin(BinOp::Xor, a, c),
            };
            vals.push(v);
        }
        let ret = *vals.last().expect("nonempty");
        b.ret(Some(ret));
        let kernel = b.finish().expect("well-formed");
        let budget = FuBudget { alu: 1, mul: 1, div: 1, mem_ports: 1 };
        let block = svmsyn_hls::ir::BlockId(0);
        let sched = list_schedule(&kernel, block, &budget);
        prop_assert_eq!(&sched, &svmsyn_hls::sched::reference::list_schedule(&kernel, block, &budget));
        // Dependences hold.
        for e in block_deps(&kernel, block) {
            prop_assert!(sched.start_of(e.from) + e.min_delay <= sched.start_of(e.to));
        }
        // Per-cycle FU occupancy within budget.
        let mut use_per_cycle: std::collections::HashMap<(OpClass, u32), usize> =
            std::collections::HashMap::new();
        for (&v, &s) in &sched.start {
            let class = kernel.instr(v).op.class();
            if class == OpClass::Free {
                continue;
            }
            for k in 0..initiation_interval(class) {
                *use_per_cycle.entry((class, s + k)).or_insert(0) += 1;
            }
        }
        for ((class, _), n) in use_per_cycle {
            prop_assert!(n <= budget.of(class), "{class:?} oversubscribed: {n}");
        }
    }
}
