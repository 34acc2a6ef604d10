//! Per-block operation scheduling: ASAP, ALAP, mobility, and
//! resource-constrained list scheduling.
//!
//! Scheduling is per basic block (the FSM executes one block's schedule,
//! then transitions). Dependences are data edges between same-block values
//! plus a conservative program-order chain over memory operations (one
//! memory port, no reordering — matching the MEMIF).
//!
//! Every pass runs on one dependence graph per block, indexed by *position*
//! in the block: edges name positions and point forward, grouped by
//! consumer, so ASAP, ALAP and mobility are single array passes and a
//! block's predecessors are one slice. [`list_schedule`] builds the graph
//! once, keeps each class's busy-until times in an array and marks
//! scheduled ops with a flag; values reappear only in the returned
//! [`BlockSchedule::start`]. The original value-keyed scheduler is kept as
//! [`mod@reference`], and tests require both to return equal schedules.

use std::collections::HashMap;

use crate::ir::{BlockId, Kernel, Op, OpClass, Value};
use crate::resource::{initiation_interval, latency, unit_index, FuBudget, UNIT_CLASSES};

/// A dependence edge inside one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Producer instruction.
    pub from: Value,
    /// Consumer instruction.
    pub to: Value,
    /// Minimum cycles between their start times.
    pub min_delay: u32,
}

/// Builds the intra-block dependence edges for `block`.
pub fn block_deps(kernel: &Kernel, block: BlockId) -> Vec<DepEdge> {
    let g = BlockGraph::new(kernel, block);
    g.edges
        .iter()
        .map(|e| DepEdge {
            from: g.values[e.from as usize],
            to: g.values[e.to as usize],
            min_delay: e.delay,
        })
        .collect()
}

/// The schedule of one basic block.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockSchedule {
    /// Start cycle of each instruction in the block.
    pub start: HashMap<Value, u32>,
    /// Total cycles (states) the block occupies; at least 1 for non-empty
    /// control flow.
    pub length: u32,
}

impl BlockSchedule {
    /// Start cycle of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` was not scheduled in this block.
    pub fn start_of(&self, v: Value) -> u32 {
        self.start[&v]
    }

    /// The largest number of operations that share one cycle (FSM state
    /// width, used by the Fmax heuristic). Free ops are excluded.
    pub fn max_ops_per_cycle(&self, kernel: &Kernel) -> u32 {
        let mut per_cycle: HashMap<u32, u32> = HashMap::new();
        for (&v, &c) in &self.start {
            if kernel.instr(v).op.class() != OpClass::Free {
                *per_cycle.entry(c).or_insert(0) += 1;
            }
        }
        per_cycle.values().copied().max().unwrap_or(0)
    }
}

/// Marks a value outside the block in a value-to-position map.
const ABSENT: u32 = u32::MAX;

/// A dependence edge between positions in one block.
#[derive(Debug, Clone, Copy)]
struct PosEdge {
    from: u32,
    to: u32,
    delay: u32,
}

/// One block's dependence graph, indexed by position in the block.
struct BlockGraph<'k> {
    /// The block's ops in program order.
    values: &'k [Value],
    /// Each op's latency.
    latency: Vec<u32>,
    /// Each op's index in [`UNIT_CLASSES`] (`None` for free ops).
    units: Vec<Option<usize>>,
    /// [`block_deps`] order: grouped by consumer in program order, and
    /// every edge points forward.
    edges: Vec<PosEdge>,
    /// `edges[first_in[p]..first_in[p + 1]]` are the edges into `p`.
    first_in: Vec<u32>,
}

impl<'k> BlockGraph<'k> {
    fn new(kernel: &'k Kernel, block: BlockId) -> BlockGraph<'k> {
        let values = &kernel.block(block).instrs[..];
        let mut pos = vec![ABSENT; kernel.len()];
        for (p, v) in (0u32..).zip(values) {
            pos[v.0 as usize] = p;
        }
        let mut edges = Vec::new();
        let mut first_in = Vec::with_capacity(values.len() + 1);
        let mut last_mem: Option<u32> = None;
        for (to, &v) in (0u32..).zip(values) {
            first_in.push(edges.len() as u32);
            let op = &kernel.instr(v).op;
            // Phis read values from the *previous* block; no intra-block edges.
            if matches!(op, Op::Phi(_)) {
                continue;
            }
            op.for_each_operand(|u| {
                // `ABSENT` is never below a position.
                let from = pos.get(u.0 as usize).copied().unwrap_or(ABSENT);
                if from < to {
                    let delay = latency(kernel.instr(u).op.class());
                    edges.push(PosEdge { from, to, delay });
                }
            });
            if op.is_mem() {
                if let Some(from) = last_mem {
                    let delay = latency(OpClass::Mem);
                    edges.push(PosEdge { from, to, delay });
                }
                last_mem = Some(to);
            }
        }
        first_in.push(edges.len() as u32);
        let classes = values.iter().map(|&v| kernel.instr(v).op.class());
        BlockGraph {
            values,
            latency: classes.clone().map(latency).collect(),
            units: classes.map(unit_index).collect(),
            edges,
            first_in,
        }
    }

    /// The edges into position `p`.
    fn preds(&self, p: usize) -> &[PosEdge] {
        &self.edges[self.first_in[p] as usize..self.first_in[p + 1] as usize]
    }

    /// As-soon-as-possible start times. Edges point forward and come in
    /// consumer order, so one pass reaches the fixed point.
    fn asap(&self) -> Vec<u32> {
        let mut start = vec![0u32; self.values.len()];
        for e in &self.edges {
            let s = start[e.from as usize] + e.delay;
            if s > start[e.to as usize] {
                start[e.to as usize] = s;
            }
        }
        start
    }

    /// As-late-as-possible start times for `length`: one backward pass, for
    /// the same reason as [`asap`](Self::asap).
    fn alap(&self, length: u32) -> Vec<u32> {
        let mut start: Vec<u32> = self
            .latency
            .iter()
            .map(|&lat| length.saturating_sub(lat.max(1)))
            .collect();
        for e in self.edges.iter().rev() {
            let limit = start[e.to as usize].saturating_sub(e.delay);
            if limit < start[e.from as usize] {
                start[e.from as usize] = limit;
            }
        }
        start
    }

    /// `alap - asap` at the ASAP length.
    fn mobility(&self) -> Vec<u32> {
        let asap = self.asap();
        let alap = self.alap(self.length(&asap));
        alap.iter()
            .zip(&asap)
            .map(|(&l, &a)| l.saturating_sub(a))
            .collect()
    }

    /// Cycles the block occupies under `start` (at least 1).
    fn length(&self, start: &[u32]) -> u32 {
        start
            .iter()
            .zip(&self.latency)
            .map(|(&s, &lat)| s + lat.max(1))
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Keys per-position times by value.
    fn by_value(&self, times: Vec<u32>) -> HashMap<Value, u32> {
        self.values.iter().copied().zip(times).collect()
    }
}

/// As-soon-as-possible start times (unbounded resources).
pub fn asap(kernel: &Kernel, block: BlockId) -> BlockSchedule {
    let g = BlockGraph::new(kernel, block);
    let start = g.asap();
    BlockSchedule {
        length: g.length(&start),
        start: g.by_value(start),
    }
}

/// As-late-as-possible start times for a given `length` (must be at least the
/// ASAP length).
pub fn alap(kernel: &Kernel, block: BlockId, length: u32) -> BlockSchedule {
    let g = BlockGraph::new(kernel, block);
    BlockSchedule {
        start: g.by_value(g.alap(length)),
        length,
    }
}

/// Per-instruction mobility (`alap - asap`): zero-mobility ops are on the
/// critical path.
pub fn mobility(kernel: &Kernel, block: BlockId) -> HashMap<Value, u32> {
    let g = BlockGraph::new(kernel, block);
    g.by_value(g.mobility())
}

/// Resource-constrained list scheduling of one block.
///
/// Ready operations are prioritized by mobility (critical path first), then
/// program order. Functional units are reserved for their initiation
/// interval; pipelined units accept one new op per cycle.
///
/// # Panics
///
/// Panics if an op in the block belongs to a class with zero units in
/// `budget`: it could never be placed.
pub fn list_schedule(kernel: &Kernel, block: BlockId, budget: &FuBudget) -> BlockSchedule {
    let instrs = &kernel.block(block).instrs;
    budget.assert_covers(kernel, instrs.iter().copied());
    if instrs.is_empty() {
        return BlockSchedule {
            start: HashMap::new(),
            length: 1,
        };
    }
    let g = BlockGraph::new(kernel, block);
    let mob = g.mobility();
    let n = g.values.len();
    let mut start = vec![0u32; n];
    let mut scheduled = vec![false; n];
    let mut left = n;
    // Busy-until time of each FU instance, per class.
    let mut busy_until = UNIT_CLASSES.map(|class| vec![0u32; budget.of(class).min(64)]);
    let mut ready: Vec<usize> = Vec::with_capacity(n);
    let mut cycle: u32 = 0;
    while left > 0 {
        // Schedule repeatedly within the cycle: zero-latency producers
        // (constants, arguments, phis) enable their consumers in the same
        // cycle — they are wires, not registers.
        loop {
            // Ready = all predecessors scheduled and their results available.
            ready.clear();
            ready.extend((0..n).filter(|&p| {
                !scheduled[p]
                    && g.preds(p).iter().all(|e| {
                        scheduled[e.from as usize] && start[e.from as usize] + e.delay <= cycle
                    })
            }));
            // Value ids are unique, so the unstable sort is deterministic.
            ready.sort_unstable_by_key(|&p| (mob[p], g.values[p].0));

            let mut progressed = false;
            for &p in &ready {
                if let Some(u) = g.units[p] {
                    let Some(unit) = busy_until[u].iter_mut().find(|busy| **busy <= cycle) else {
                        continue;
                    };
                    *unit = cycle + initiation_interval(UNIT_CLASSES[u]);
                }
                start[p] = cycle;
                scheduled[p] = true;
                left -= 1;
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        cycle += 1;
        assert!(
            cycle < 1_000_000,
            "list scheduling did not converge (cyclic deps?)"
        );
    }
    BlockSchedule {
        length: g.length(&start),
        start: g.by_value(start),
    }
}

/// The original value-keyed list scheduler, kept verbatim as the oracle
/// for the position-indexed one above.
///
/// It rebuilds the block's dependence edges for ASAP, for ALAP and for the
/// schedule itself, keys every table by [`Value`] through a `HashMap`, and
/// removes each scheduled op from a `Vec` of the rest. Differential tests
/// require [`reference::list_schedule`] and [`list_schedule`] to return
/// equal schedules on every block and budget; it is not used outside tests.
pub mod reference {
    use std::collections::HashMap;

    use super::{BlockSchedule, DepEdge};
    use crate::ir::{BlockId, Kernel, OpClass, Value};
    use crate::resource::{initiation_interval, latency, FuBudget};

    /// Builds the intra-block dependence edges for `block`.
    fn block_deps(kernel: &Kernel, block: BlockId) -> Vec<DepEdge> {
        let instrs = &kernel.block(block).instrs;
        let in_block: HashMap<Value, usize> =
            instrs.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut edges = Vec::new();
        let mut last_mem: Option<Value> = None;
        for &v in instrs {
            let op = &kernel.instr(v).op;
            // Phis read values from the *previous* block; no intra-block edges.
            if matches!(op, crate::ir::Op::Phi(_)) {
                continue;
            }
            for u in op.operands() {
                if in_block.contains_key(&u) && in_block[&u] < in_block[&v] {
                    let lat = latency(kernel.instr(u).op.class());
                    edges.push(DepEdge {
                        from: u,
                        to: v,
                        min_delay: lat,
                    });
                }
            }
            if op.is_mem() {
                if let Some(prev) = last_mem {
                    edges.push(DepEdge {
                        from: prev,
                        to: v,
                        min_delay: latency(OpClass::Mem),
                    });
                }
                last_mem = Some(v);
            }
        }
        edges
    }

    /// As-soon-as-possible start times (unbounded resources).
    fn asap(kernel: &Kernel, block: BlockId) -> BlockSchedule {
        let instrs = &kernel.block(block).instrs;
        let edges = block_deps(kernel, block);
        let mut start: HashMap<Value, u32> = instrs.iter().map(|&v| (v, 0)).collect();
        // Instructions are in program order, so one forward pass suffices
        // (edges always point forward).
        for _ in 0..2 {
            for e in &edges {
                let s = start[&e.from] + e.min_delay;
                if s > start[&e.to] {
                    start.insert(e.to, s);
                }
            }
        }
        let length = schedule_length(kernel, &start);
        BlockSchedule { start, length }
    }

    /// As-late-as-possible start times for a given `length` (must be at least the
    /// ASAP length).
    fn alap(kernel: &Kernel, block: BlockId, length: u32) -> BlockSchedule {
        let instrs = &kernel.block(block).instrs;
        let edges = block_deps(kernel, block);
        let mut start: HashMap<Value, u32> = instrs
            .iter()
            .map(|&v| {
                let lat = latency(kernel.instr(v).op.class());
                (v, length.saturating_sub(lat.max(1)))
            })
            .collect();
        for _ in 0..2 {
            for e in edges.iter().rev() {
                let limit = start[&e.to].saturating_sub(e.min_delay);
                if limit < start[&e.from] {
                    start.insert(e.from, limit);
                }
            }
        }
        BlockSchedule { start, length }
    }

    /// Per-instruction mobility (`alap - asap`): zero-mobility ops are on the
    /// critical path.
    fn mobility(kernel: &Kernel, block: BlockId) -> HashMap<Value, u32> {
        let a = asap(kernel, block);
        let l = alap(kernel, block, a.length);
        a.start
            .iter()
            .map(|(&v, &s)| (v, l.start[&v].saturating_sub(s)))
            .collect()
    }

    fn schedule_length(kernel: &Kernel, start: &HashMap<Value, u32>) -> u32 {
        start
            .iter()
            .map(|(&v, &s)| s + latency(kernel.instr(v).op.class()).max(1))
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Resource-constrained list scheduling of one block.
    ///
    /// Ready operations are prioritized by mobility (critical path first), then
    /// program order. Functional units are reserved for their initiation
    /// interval; pipelined units accept one new op per cycle.
    pub fn list_schedule(kernel: &Kernel, block: BlockId, budget: &FuBudget) -> BlockSchedule {
        let instrs = &kernel.block(block).instrs;
        if instrs.is_empty() {
            return BlockSchedule {
                start: HashMap::new(),
                length: 1,
            };
        }
        let edges = block_deps(kernel, block);
        let mob = mobility(kernel, block);
        let mut preds: HashMap<Value, Vec<(Value, u32)>> = HashMap::new();
        for e in &edges {
            preds.entry(e.to).or_default().push((e.from, e.min_delay));
        }

        let mut start: HashMap<Value, u32> = HashMap::new();
        // Busy-until time of each FU instance per class.
        let mut fu_free: HashMap<OpClass, Vec<u32>> = HashMap::new();
        for class in [OpClass::Alu, OpClass::Mul, OpClass::Div, OpClass::Mem] {
            fu_free.insert(class, vec![0; budget.of(class).min(64)]);
        }

        let mut remaining: Vec<Value> = instrs.clone();
        let mut cycle: u32 = 0;
        while !remaining.is_empty() {
            // Schedule repeatedly within the cycle: zero-latency producers
            // (constants, arguments, phis) enable their consumers in the same
            // cycle — they are wires, not registers.
            loop {
                // Ready = all predecessors scheduled and their results available.
                let mut ready: Vec<Value> = remaining
                    .iter()
                    .copied()
                    .filter(|v| {
                        preds.get(v).is_none_or(|ps| {
                            ps.iter()
                                .all(|(p, d)| start.get(p).is_some_and(|&s| s + d <= cycle))
                        })
                    })
                    .collect();
                ready.sort_by_key(|v| (mob.get(v).copied().unwrap_or(0), v.0));

                let mut progressed = false;
                for v in ready {
                    let class = kernel.instr(v).op.class();
                    if class == OpClass::Free {
                        start.insert(v, cycle);
                        remaining.retain(|&x| x != v);
                        progressed = true;
                        continue;
                    }
                    let ii = initiation_interval(class);
                    let units = fu_free.get_mut(&class).expect("class present");
                    if let Some(slot) = units.iter_mut().find(|busy_until| **busy_until <= cycle) {
                        *slot = cycle + ii;
                        start.insert(v, cycle);
                        remaining.retain(|&x| x != v);
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
            cycle += 1;
            assert!(
                cycle < 1_000_000,
                "list scheduling did not converge (cyclic deps?)"
            );
        }
        let length = schedule_length(kernel, &start);
        BlockSchedule { start, length }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{BinOp, Width};

    /// a*b + c*d + e*f: three muls feeding two adds.
    fn mul_tree() -> Kernel {
        let mut b = KernelBuilder::new("tree", 6);
        let a0 = b.arg(0);
        let a1 = b.arg(1);
        let a2 = b.arg(2);
        let a3 = b.arg(3);
        let a4 = b.arg(4);
        let a5 = b.arg(5);
        let m0 = b.bin(BinOp::Mul, a0, a1);
        let m1 = b.bin(BinOp::Mul, a2, a3);
        let m2 = b.bin(BinOp::Mul, a4, a5);
        let s0 = b.bin(BinOp::Add, m0, m1);
        let s1 = b.bin(BinOp::Add, s0, m2);
        b.ret(Some(s1));
        b.finish().unwrap()
    }

    #[test]
    fn asap_respects_data_deps() {
        let k = mul_tree();
        let s = asap(&k, BlockId(0));
        // args at 0, muls at 0, first add after mul latency (3), second after 4.
        let muls: Vec<u32> = k
            .block(BlockId(0))
            .instrs
            .iter()
            .filter(|&&v| matches!(k.instr(v).op, crate::ir::Op::Bin(BinOp::Mul, ..)))
            .map(|&v| s.start_of(v))
            .collect();
        assert_eq!(muls, vec![0, 0, 0]);
        assert_eq!(s.length, 5); // 0..3 mul, 3 add, 4 add, done at 5
    }

    #[test]
    fn alap_pushes_ops_late_but_keeps_length() {
        let k = mul_tree();
        let a = asap(&k, BlockId(0));
        let l = alap(&k, BlockId(0), a.length);
        assert_eq!(l.length, a.length);
        for (&v, &s_asap) in &a.start {
            assert!(l.start[&v] >= s_asap, "ALAP must not precede ASAP for {v}");
        }
    }

    #[test]
    fn mobility_zero_on_critical_path() {
        let k = mul_tree();
        let mob = mobility(&k, BlockId(0));
        // The adds are on the critical path (mobility 0); the third mul can
        // slide one cycle.
        let block = k.block(BlockId(0));
        let adds: Vec<_> = block
            .instrs
            .iter()
            .filter(|&&v| matches!(k.instr(v).op, crate::ir::Op::Bin(BinOp::Add, ..)))
            .collect();
        for &v in adds {
            assert_eq!(mob[&v], 0);
        }
    }

    #[test]
    fn single_multiplier_serializes() {
        let k = mul_tree();
        let budget = FuBudget {
            mul: 1,
            ..FuBudget::default()
        };
        let s = list_schedule(&k, BlockId(0), &budget);
        let mut mul_starts: Vec<u32> = k
            .block(BlockId(0))
            .instrs
            .iter()
            .filter(|&&v| matches!(k.instr(v).op, crate::ir::Op::Bin(BinOp::Mul, ..)))
            .map(|&v| s.start_of(v))
            .collect();
        mul_starts.sort_unstable();
        // Pipelined multiplier: one issue per cycle.
        assert_eq!(mul_starts, vec![0, 1, 2]);
        assert!(s.length >= asap(&k, BlockId(0)).length);
    }

    #[test]
    fn more_multipliers_shorten_schedule() {
        let k = mul_tree();
        let narrow = list_schedule(
            &k,
            BlockId(0),
            &FuBudget {
                mul: 1,
                ..FuBudget::default()
            },
        );
        let wide = list_schedule(
            &k,
            BlockId(0),
            &FuBudget {
                mul: 3,
                ..FuBudget::default()
            },
        );
        assert!(wide.length <= narrow.length);
        assert_eq!(wide.length, asap(&k, BlockId(0)).length);
    }

    #[test]
    fn memory_ops_chain_in_program_order() {
        let mut b = KernelBuilder::new("mem", 1);
        let p = b.arg(0);
        let c4 = b.constant(4);
        let q = b.bin(BinOp::Add, p, c4);
        let x = b.load(p, Width::W32);
        let y = b.load(q, Width::W32);
        let s = b.bin(BinOp::Add, x, y);
        b.store(p, s, Width::W32);
        b.ret(None);
        let k = b.finish().unwrap();
        let sched = list_schedule(&k, BlockId(0), &FuBudget::default());
        let loads: Vec<Value> = k
            .block(BlockId(0))
            .instrs
            .iter()
            .copied()
            .filter(|&v| matches!(k.instr(v).op, crate::ir::Op::Load { .. }))
            .collect();
        let store = k
            .block(BlockId(0))
            .instrs
            .iter()
            .copied()
            .find(|&v| matches!(k.instr(v).op, crate::ir::Op::Store { .. }))
            .unwrap();
        assert!(sched.start_of(loads[0]) < sched.start_of(loads[1]));
        assert!(sched.start_of(loads[1]) < sched.start_of(store));
    }

    #[test]
    fn divider_occupies_unit_for_its_latency() {
        let mut b = KernelBuilder::new("divs", 4);
        let a0 = b.arg(0);
        let a1 = b.arg(1);
        let a2 = b.arg(2);
        let a3 = b.arg(3);
        let d0 = b.bin(BinOp::Div, a0, a1);
        let d1 = b.bin(BinOp::Div, a2, a3);
        let s = b.bin(BinOp::Add, d0, d1);
        b.ret(Some(s));
        let k = b.finish().unwrap();
        let sched = list_schedule(
            &k,
            BlockId(0),
            &FuBudget {
                div: 1,
                ..FuBudget::default()
            },
        );
        let divs: Vec<u32> = k
            .block(BlockId(0))
            .instrs
            .iter()
            .filter(|&&v| matches!(k.instr(v).op, crate::ir::Op::Bin(BinOp::Div, ..)))
            .map(|&v| sched.start_of(v))
            .collect();
        let gap = divs[0].abs_diff(divs[1]);
        assert!(gap >= 16, "second div must wait for the iterative unit");
    }

    #[test]
    fn empty_block_schedules_to_one_state() {
        let mut b = KernelBuilder::new("e", 0);
        let next = b.new_block();
        b.jump(next);
        b.switch_to(next);
        b.ret(None);
        let k = b.finish().unwrap();
        let s = list_schedule(&k, BlockId(0), &FuBudget::default());
        assert_eq!(s.length, 1);
    }

    #[test]
    fn max_ops_per_cycle_counts_costed_ops() {
        let k = mul_tree();
        let s = list_schedule(
            &k,
            BlockId(0),
            &FuBudget {
                mul: 3,
                ..FuBudget::default()
            },
        );
        assert_eq!(s.max_ops_per_cycle(&k), 3);
    }
}
