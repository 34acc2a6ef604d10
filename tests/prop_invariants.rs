//! Property-based invariants across the substrates.

use proptest::prelude::*;

use svmsyn_hls::builder::KernelBuilder;
use svmsyn_hls::interp::{run, SliceMemory};
use svmsyn_hls::ir::{BinOp, CmpOp};
use svmsyn_hls::opt::optimize;
use svmsyn_mem::{split_at_page_boundaries, VirtAddr, PAGE_SIZE};
use svmsyn_os::frame::FrameAllocator;
use svmsyn_sim::{Cycle, StepQueue};
use svmsyn_vm::pte::{Pte, PteFlags};
use svmsyn_vm::tlb::{Asid, Replacement, Tlb, TlbConfig};

/// The reference the step queue is checked against: a `Vec` kept sorted
/// by `(time, seq)`, popped from the front.
struct SortedVecQueue {
    entries: Vec<(Cycle, u64, u32)>,
    now: Cycle,
    fired: u64,
    next_seq: u64,
    stride: u64,
}

impl SortedVecQueue {
    fn push(&mut self, at: Cycle, thread: u32) {
        assert!(at >= self.now);
        self.entries.push((at, self.next_seq, thread));
        self.next_seq += self.stride;
        self.entries.sort_unstable();
    }

    fn pop(&mut self) -> Option<(Cycle, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        let (at, _, thread) = self.entries.remove(0);
        self.now = at;
        self.fired += 1;
        Some((at, thread))
    }
}

proptest! {
    /// The step queue pops any schedule in the `(time, seq)` order of a
    /// sorted-`Vec` reference: pushes at the current cycle (same-cycle ties
    /// and zero-delay re-pushes after a pop), near and far-future pushes,
    /// wakes booked in the past (clamped to now) and in the future, all
    /// interleaved with pops, on a lane of any start and stride. The pop
    /// trace, the clock, the fired count and the pending count agree after
    /// every operation, and again once both are drained.
    #[test]
    fn step_queue_matches_sorted_vec_reference(
        ops in prop::collection::vec((0u8..8, 0u64..2_000), 1..400),
        start in 0u64..1_000,
        fired in 0u64..1_000,
        next_seq in 0u64..1_000,
        stride in 1u64..5,
    ) {
        let mut q = StepQueue::new(Cycle(start), fired, next_seq, stride);
        let mut reference = SortedVecQueue {
            entries: Vec::new(),
            now: Cycle(start),
            fired,
            next_seq,
            stride,
        };
        let (mut trace, mut ref_trace) = (Vec::new(), Vec::new());
        for (thread, &(kind, v)) in ops.iter().enumerate() {
            let (thread, now) = (thread as u32, reference.now);
            match kind {
                0 | 1 => {
                    trace.push(q.pop());
                    ref_trace.push(reference.pop());
                }
                2 => {
                    q.push(now, thread);
                    reference.push(now, thread);
                }
                3 => {
                    q.push(now + Cycle(v % 4), thread);
                    reference.push(now + Cycle(v % 4), thread);
                }
                4 => {
                    q.push(now + Cycle(v), thread);
                    reference.push(now + Cycle(v), thread);
                }
                5 => {
                    let far = now + Cycle((v + 1) << 24);
                    q.push(far, thread);
                    reference.push(far, thread);
                }
                6 => {
                    q.push_wake(Cycle(now.0.saturating_sub(v)), thread);
                    reference.push(now, thread);
                }
                _ => {
                    q.push_wake(now + Cycle(v), thread);
                    reference.push(now + Cycle(v), thread);
                }
            }
            prop_assert_eq!(q.now(), reference.now);
            prop_assert_eq!(q.events_fired(), reference.fired);
            prop_assert_eq!(q.pending(), reference.entries.len());
            prop_assert_eq!(q.next_seq(), reference.next_seq);
            prop_assert_eq!(q.peek_time(), reference.entries.first().map(|e| e.0));
        }
        let mut pending: Vec<_> = q.iter().collect();
        pending.sort_unstable();
        prop_assert_eq!(&pending, &reference.entries);
        trace.extend(std::iter::from_fn(|| q.pop()).map(Some));
        ref_trace.extend(std::iter::from_fn(|| reference.pop()).map(Some));
        prop_assert_eq!(trace, ref_trace);
        prop_assert_eq!(q.now(), reference.now);
        prop_assert_eq!(q.events_fired(), reference.fired);
        prop_assert_eq!(q.pending(), 0);
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
