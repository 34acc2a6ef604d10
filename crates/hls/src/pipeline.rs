//! Loop pipelining via iterative modulo scheduling.
//!
//! Innermost loops of at most two blocks (header + optional latch body) are
//! software-pipelined: the scheduler finds the smallest initiation interval
//! II such that dependence constraints
//! `start(use) ≥ start(def) + latency(def) − II·distance` hold and the
//! modulo reservation table respects the FU budget. The FSMD executor then
//! charges II cycles per steady-state iteration instead of the full block
//! schedule length — the standard HLS `#pragma pipeline` effect.
//!
//! The scheduler indexes ops by *position* in the iteration (header ops
//! first, then the body's): dependence edges name positions, start times
//! and floors are `Vec<u32>`s, and the modulo reservation table is one flat
//! `[class][slot]` array. Nothing on the search path hashes a [`Value`];
//! values reappear only in the returned [`LoopPipeline::starts`]. The
//! original value-keyed scheduler is kept as [`mod@reference`], and tests
//! require both to return equal results on every loop.

use std::collections::HashMap;

use crate::cfg::NaturalLoop;
use crate::ir::{BlockId, Kernel, Op, OpClass, Value};
use crate::resource::{initiation_interval, latency, unit_index, FuBudget, UNIT_CLASSES};

/// A successfully pipelined loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopPipeline {
    /// The loop header block.
    pub header: BlockId,
    /// All blocks in the loop.
    pub blocks: Vec<BlockId>,
    /// Achieved initiation interval.
    pub ii: u32,
    /// Schedule depth: cycles until the first iteration's last result.
    pub depth: u32,
    /// Start offsets of each iteration instruction.
    pub starts: HashMap<Value, u32>,
    /// The resource-limited lower bound the search started from.
    pub res_mii: u32,
}

impl LoopPipeline {
    /// Estimated cycles for `trips` iterations in steady state.
    pub fn cycles_for(&self, trips: u64) -> u64 {
        if trips == 0 {
            0
        } else {
            self.depth as u64 + (trips - 1) * self.ii as u64
        }
    }
}

/// Why a loop could not be pipelined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// The loop has more blocks than the pipeliner supports.
    TooManyBlocks {
        /// Blocks found in the loop.
        found: usize,
    },
    /// No feasible II was found within the search bound.
    NoFeasibleIi {
        /// The largest II tried.
        tried_up_to: u32,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::TooManyBlocks { found } => {
                write!(f, "loop has {found} blocks; pipeliner supports at most 2")
            }
            PipelineError::NoFeasibleIi { tried_up_to } => {
                write!(f, "no feasible initiation interval up to {tried_up_to}")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// Marks a value outside the iteration in a value-to-position map.
const ABSENT: u32 = u32::MAX;

/// A dependence edge of the iteration graph, between positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IterEdge {
    from: u32,
    to: u32,
    delay: u32,
    /// Iteration distance (0 = same iteration, 1 = next iteration).
    distance: u32,
}

impl IterEdge {
    /// The earliest start of `to` that this edge allows at `ii`.
    fn reach(&self, start: &[u32], ii: u32) -> i64 {
        start[self.from as usize] as i64 + self.delay as i64 - ii as i64 * self.distance as i64
    }
}

/// One loop iteration, indexed by position: the header's ops, then the
/// other block's (if any) — the per-iteration execution order.
struct Iteration {
    /// The op at each position.
    values: Vec<Value>,
    /// Each op's index in [`UNIT_CLASSES`] (`None` for free ops).
    units: Vec<Option<usize>>,
    /// Data edges within and across iterations, then the memory chain.
    edges: Vec<IterEdge>,
}

impl Iteration {
    fn new(kernel: &Kernel, lp: &NaturalLoop) -> Iteration {
        let mut values: Vec<Value> = kernel.block(lp.header).instrs.clone();
        for &b in &lp.blocks {
            if b != lp.header {
                values.extend(kernel.block(b).instrs.iter().copied());
            }
        }
        let mut pos = vec![ABSENT; kernel.len()];
        for (p, v) in (0u32..).zip(&values) {
            pos[v.0 as usize] = p;
        }
        let pos_of = |v: Value| pos.get(v.0 as usize).copied().unwrap_or(ABSENT);
        let delay = |v: Value| latency(kernel.instr(v).op.class());
        let mut edges = Vec::new();
        let mut mems: Vec<u32> = Vec::new();
        for (to, &v) in (0u32..).zip(&values) {
            let op = &kernel.instr(v).op;
            match op {
                Op::Phi(incoming) => {
                    // Loop-carried: the value flowing in from inside the loop.
                    for &(pred, val) in incoming {
                        let from = pos_of(val);
                        if lp.contains(pred) && from != ABSENT {
                            edges.push(IterEdge {
                                from,
                                to,
                                delay: delay(val),
                                distance: 1,
                            });
                        }
                    }
                }
                _ => op.for_each_operand(|u| {
                    // `ABSENT` is never below a position.
                    let from = pos_of(u);
                    if from < to {
                        edges.push(IterEdge {
                            from,
                            to,
                            delay: delay(u),
                            distance: 0,
                        });
                    }
                }),
            }
            if op.is_mem() {
                mems.push(to);
            }
        }
        // Memory program order within the iteration, and wrap-around to the
        // next iteration (single in-order memory port).
        for w in mems.windows(2) {
            edges.push(IterEdge {
                from: w[0],
                to: w[1],
                delay: latency(OpClass::Mem),
                distance: 0,
            });
        }
        if let (Some(&last), Some(&first)) = (mems.last(), mems.first()) {
            edges.push(IterEdge {
                from: last,
                to: first,
                delay: latency(OpClass::Mem),
                distance: 1,
            });
        }
        let units = values
            .iter()
            .map(|&v| unit_index(kernel.instr(v).op.class()))
            .collect();
        Iteration {
            values,
            units,
            edges,
        }
    }

    /// Resource-limited lower bound on the initiation interval.
    fn res_mii(&self, caps: &[u32; UNIT_CLASSES.len()]) -> u32 {
        let mut occupied = [0u32; UNIT_CLASSES.len()];
        for &u in self.units.iter().flatten() {
            occupied[u] += initiation_interval(UNIT_CLASSES[u]);
        }
        (0..UNIT_CLASSES.len())
            .filter(|&u| occupied[u] > 0)
            .map(|u| occupied[u].div_ceil(caps[u]))
            .max()
            .unwrap_or(1)
            .max(1)
    }
}

/// Units the scheduler may use per class, capped at 64 like the
/// reservation table always was.
fn unit_caps(budget: &FuBudget) -> [u32; UNIT_CLASSES.len()] {
    UNIT_CLASSES.map(|class| budget.of(class).min(64) as u32)
}

/// Panics unless `budget` has a unit for every op in the loop's blocks.
fn assert_budget(kernel: &Kernel, lp: &NaturalLoop, budget: &FuBudget) {
    let ops = lp
        .blocks
        .iter()
        .flat_map(|&b| kernel.block(b).instrs.iter());
    budget.assert_covers(kernel, ops.copied());
}

/// Resource-limited lower bound on the initiation interval.
///
/// # Panics
///
/// Panics if an op in the loop belongs to a class with zero units in
/// `budget`.
pub fn res_mii(kernel: &Kernel, lp: &NaturalLoop, budget: &FuBudget) -> u32 {
    assert_budget(kernel, lp, budget);
    Iteration::new(kernel, lp).res_mii(&unit_caps(budget))
}

/// Relaxes start times, reset to `floor`, against dependence edges
/// (Bellman-Ford style). Returns `false` on a positive cycle (recurrence
/// cannot meet this II).
fn relax(edges: &[IterEdge], ii: u32, floor: &[u32], start: &mut Vec<u32>) -> bool {
    start.clear();
    start.extend_from_slice(floor);
    let n = floor.len();
    let bound = 64 * (n as u32 + 4) + 16 * ii;
    for _round in 0..n + 2 {
        let mut changed = false;
        for e in edges {
            let lhs = e.reach(start, ii);
            if lhs > start[e.to as usize] as i64 {
                start[e.to as usize] = lhs as u32;
                changed = true;
            }
        }
        if !changed {
            return true;
        }
        if start.iter().any(|&s| s > bound) {
            return false;
        }
    }
    // One more sweep to detect non-convergence.
    edges
        .iter()
        .all(|e| e.reach(start, ii) <= start[e.to as usize] as i64)
}

/// Iterative modulo scheduling at a fixed II: relax, then resolve modulo
/// reservation conflicts by pushing the conflicting op later and
/// re-relaxing, until a conflict-free schedule emerges or the iteration
/// budget runs out.
fn try_ii(it: &Iteration, caps: &[u32; UNIT_CLASSES.len()], ii: u32) -> Option<Vec<u32>> {
    let n = it.values.len();
    let slots = ii as usize;
    let spans = UNIT_CLASSES.map(|class| initiation_interval(class).min(ii));
    let mut floor = vec![0u32; n];
    let mut start = Vec::with_capacity(n);
    // The modulo reservation table, one row of `ii` slots per class.
    let mut mrt = vec![0u32; UNIT_CLASSES.len() * slots];
    // Costed ops only: free ops reserve nothing.
    let mut order: Vec<u32> = (0..n as u32)
        .filter(|&p| it.units[p as usize].is_some())
        .collect();
    let max_rounds = 4 * n + 8;
    'outer: for _round in 0..max_rounds {
        if !relax(&it.edges, ii, &floor, &mut start) {
            return None;
        }
        mrt.fill(0);
        // Value ids are unique, so the unstable sort is deterministic.
        order.sort_unstable_by_key(|&p| (start[p as usize], it.values[p as usize].0));
        for &p in &order {
            let u = it.units[p as usize].expect("order holds costed ops only");
            let row = &mut mrt[u * slots..(u + 1) * slots];
            let (cap, span) = (caps[u], spans[u]);
            let s = start[p as usize];
            // Search the modulo frame for a feasible offset from `s`.
            let fits = |delta: u32| (0..span).all(|k| row[((s + delta + k) % ii) as usize] < cap);
            match (0..ii).find(|&delta| fits(delta)) {
                Some(0) => {
                    for k in 0..span {
                        row[((s + k) % ii) as usize] += 1;
                    }
                }
                Some(delta) => {
                    // Push the op later and redo dependence relaxation.
                    floor[p as usize] = s + delta;
                    continue 'outer;
                }
                // Every slot of the frame is saturated for this class.
                None => return None,
            }
        }
        return Some(start);
    }
    None
}

/// Attempts to pipeline `lp` under `budget`.
///
/// # Errors
///
/// Returns [`PipelineError`] when the loop shape is unsupported or no II up
/// to `res_mii + 64` is feasible.
///
/// # Panics
///
/// Panics if an op in the loop belongs to a class with zero units in
/// `budget`: no II could place it.
pub fn pipeline_loop(
    kernel: &Kernel,
    lp: &NaturalLoop,
    budget: &FuBudget,
) -> Result<LoopPipeline, PipelineError> {
    assert_budget(kernel, lp, budget);
    if lp.blocks.len() > 2 {
        return Err(PipelineError::TooManyBlocks {
            found: lp.blocks.len(),
        });
    }
    let it = Iteration::new(kernel, lp);
    let caps = unit_caps(budget);
    let mii = it.res_mii(&caps);
    let max_ii = mii + 64;
    for ii in mii..=max_ii {
        if let Some(start) = try_ii(&it, &caps, ii) {
            let depth = it
                .values
                .iter()
                .zip(&start)
                .map(|(&v, &s)| s + latency(kernel.instr(v).op.class()).max(1))
                .max()
                .unwrap_or(1);
            return Ok(LoopPipeline {
                header: lp.header,
                blocks: lp.blocks.clone(),
                ii,
                depth,
                starts: it.values.iter().copied().zip(start).collect(),
                res_mii: mii,
            });
        }
    }
    Err(PipelineError::NoFeasibleIi {
        tried_up_to: max_ii,
    })
}

/// The original value-keyed modulo scheduler, kept verbatim as the oracle
/// for the position-indexed one above.
///
/// Every map here is a `HashMap` keyed by [`Value`], so each relaxation
/// step, reservation probe and sort key costs a hash. Differential tests
/// require [`reference::pipeline_loop`] and [`pipeline_loop`] to return
/// equal results on every loop and budget; it is not used outside tests.
pub mod reference {
    use std::collections::HashMap;

    use super::{LoopPipeline, PipelineError};
    use crate::cfg::NaturalLoop;
    use crate::ir::{Kernel, Op, OpClass, Value};
    use crate::resource::{initiation_interval, latency, FuBudget};

    /// A dependence edge of the iteration graph.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct IterEdge {
        from: Value,
        to: Value,
        delay: u32,
        /// Iteration distance (0 = same iteration, 1 = next iteration).
        distance: u32,
    }

    fn iteration_instrs(kernel: &Kernel, lp: &NaturalLoop) -> Vec<Value> {
        // Header first, then the other block (if any) — the per-iteration
        // execution order.
        let mut seq: Vec<Value> = kernel.block(lp.header).instrs.clone();
        for &b in &lp.blocks {
            if b != lp.header {
                seq.extend(kernel.block(b).instrs.iter().copied());
            }
        }
        seq
    }

    fn iteration_edges(kernel: &Kernel, lp: &NaturalLoop, seq: &[Value]) -> Vec<IterEdge> {
        let pos: HashMap<Value, usize> = seq.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut edges = Vec::new();
        let mut mems: Vec<Value> = Vec::new();
        for &v in seq {
            let op = &kernel.instr(v).op;
            match op {
                Op::Phi(incoming) => {
                    // Loop-carried: the value flowing in from inside the loop.
                    for (pred, val) in incoming {
                        if lp.contains(*pred) && pos.contains_key(val) {
                            edges.push(IterEdge {
                                from: *val,
                                to: v,
                                delay: latency(kernel.instr(*val).op.class()),
                                distance: 1,
                            });
                        }
                    }
                }
                _ => {
                    for u in op.operands() {
                        if let Some(&pu) = pos.get(&u) {
                            if pu < pos[&v] {
                                edges.push(IterEdge {
                                    from: u,
                                    to: v,
                                    delay: latency(kernel.instr(u).op.class()),
                                    distance: 0,
                                });
                            }
                        }
                    }
                }
            }
            if op.is_mem() {
                mems.push(v);
            }
        }
        // Memory program order within the iteration, and wrap-around to the next
        // iteration (single in-order memory port).
        for w in mems.windows(2) {
            edges.push(IterEdge {
                from: w[0],
                to: w[1],
                delay: latency(OpClass::Mem),
                distance: 0,
            });
        }
        if let (Some(&last), Some(&first)) = (mems.last(), mems.first()) {
            edges.push(IterEdge {
                from: last,
                to: first,
                delay: latency(OpClass::Mem),
                distance: 1,
            });
        }
        edges
    }

    /// Resource-limited lower bound on the initiation interval.
    fn res_mii(kernel: &Kernel, lp: &NaturalLoop, budget: &FuBudget) -> u32 {
        let seq = iteration_instrs(kernel, lp);
        let mut counts: HashMap<OpClass, u32> = HashMap::new();
        for &v in &seq {
            let class = kernel.instr(v).op.class();
            if class != OpClass::Free {
                *counts.entry(class).or_insert(0) += initiation_interval(class);
            }
        }
        counts
            .into_iter()
            .map(|(class, occupied)| occupied.div_ceil(budget.of(class).min(64) as u32))
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Relaxes start times against dependence edges (Bellman-Ford style).
    /// Returns `None` on a positive cycle (recurrence cannot meet this II).
    fn relax(
        seq: &[Value],
        edges: &[IterEdge],
        ii: u32,
        floor: &HashMap<Value, u32>,
    ) -> Option<HashMap<Value, u32>> {
        let mut start: HashMap<Value, u32> = seq
            .iter()
            .map(|&v| (v, floor.get(&v).copied().unwrap_or(0)))
            .collect();
        let bound = 64 * (seq.len() as u32 + 4) + 16 * ii;
        for _round in 0..seq.len() + 2 {
            let mut changed = false;
            for e in edges {
                let lhs = start[&e.from] as i64 + e.delay as i64 - (ii as i64) * e.distance as i64;
                if lhs > start[&e.to] as i64 {
                    start.insert(e.to, lhs as u32);
                    changed = true;
                }
            }
            if !changed {
                return Some(start);
            }
            if start.values().any(|&s| s > bound) {
                return None;
            }
        }
        // One more sweep to detect non-convergence.
        for e in edges {
            let lhs = start[&e.from] as i64 + e.delay as i64 - (ii as i64) * e.distance as i64;
            if lhs > start[&e.to] as i64 {
                return None;
            }
        }
        Some(start)
    }

    /// Iterative modulo scheduling at a fixed II: relax, then resolve modulo
    /// reservation conflicts by pushing the conflicting op later and
    /// re-relaxing, until a conflict-free schedule emerges or the iteration
    /// budget runs out.
    fn try_ii(
        kernel: &Kernel,
        seq: &[Value],
        edges: &[IterEdge],
        budget: &FuBudget,
        ii: u32,
    ) -> Option<HashMap<Value, u32>> {
        let mut floor: HashMap<Value, u32> = HashMap::new();
        let max_rounds = 4 * seq.len() + 8;
        'outer: for _round in 0..max_rounds {
            let start = relax(seq, edges, ii, &floor)?;
            let mut mrt: HashMap<(OpClass, u32), u32> = HashMap::new();
            let mut order: Vec<Value> = seq.to_vec();
            order.sort_by_key(|v| (start[v], v.0));
            for v in order {
                let class = kernel.instr(v).op.class();
                if class == OpClass::Free {
                    continue;
                }
                let cap = budget.of(class).min(64) as u32;
                let span = initiation_interval(class).min(ii);
                let s = start[&v];
                // Search the modulo frame for a feasible offset from `s`.
                let mut placed = false;
                for delta in 0..ii {
                    let cand = s + delta;
                    let fits = (0..span)
                        .all(|k| mrt.get(&(class, (cand + k) % ii)).copied().unwrap_or(0) < cap);
                    if fits {
                        if delta == 0 {
                            for k in 0..span {
                                *mrt.entry((class, (s + k) % ii)).or_insert(0) += 1;
                            }
                            placed = true;
                            break;
                        }
                        // Push the op later and redo dependence relaxation.
                        floor.insert(v, cand);
                        continue 'outer;
                    }
                }
                if !placed {
                    // Every slot of the frame is saturated for this class.
                    return None;
                }
            }
            return Some(start);
        }
        None
    }

    /// Attempts to pipeline `lp` under `budget`.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError`] when the loop shape is unsupported or no II up
    /// to `res_mii + 64` is feasible.
    pub fn pipeline_loop(
        kernel: &Kernel,
        lp: &NaturalLoop,
        budget: &FuBudget,
    ) -> Result<LoopPipeline, PipelineError> {
        if lp.blocks.len() > 2 {
            return Err(PipelineError::TooManyBlocks {
                found: lp.blocks.len(),
            });
        }
        let seq = iteration_instrs(kernel, lp);
        let edges = iteration_edges(kernel, lp, &seq);
        let mii = res_mii(kernel, lp, budget);
        let max_ii = mii + 64;
        for ii in mii..=max_ii {
            if let Some(start) = try_ii(kernel, &seq, &edges, budget, ii) {
                let depth = seq
                    .iter()
                    .map(|&v| start[&v] + latency(kernel.instr(v).op.class()).max(1))
                    .max()
                    .unwrap_or(1);
                return Ok(LoopPipeline {
                    header: lp.header,
                    blocks: lp.blocks.clone(),
                    ii,
                    depth,
                    starts: start,
                    res_mii: mii,
                });
            }
        }
        Err(PipelineError::NoFeasibleIi {
            tried_up_to: max_ii,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::cfg::Cfg;
    use crate::ir::{BinOp, CmpOp, Width};

    /// sum-of-array loop: header+body, one load per iteration.
    fn sum_kernel() -> Kernel {
        let mut b = KernelBuilder::new("sum", 2);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let base = b.arg(0);
        let n = b.arg(1);
        let zero = b.constant(0);
        let four = b.constant(4);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let acc = b.phi();
        let cont = b.cmp(CmpOp::Lt, i, n);
        b.branch(cont, body, exit);
        b.switch_to(body);
        let off = b.bin(BinOp::Mul, i, four);
        let addr = b.bin(BinOp::Add, base, off);
        let elem = b.load(addr, Width::W32);
        let acc2 = b.bin(BinOp::Add, acc, elem);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.set_phi_incoming(acc, &[(entry, zero), (body, acc2)]);
        b.finish().unwrap()
    }

    fn the_loop(k: &Kernel) -> NaturalLoop {
        Cfg::new(k).natural_loops().into_iter().next().unwrap()
    }

    #[test]
    fn res_mii_counts_mem_port() {
        let k = sum_kernel();
        let lp = the_loop(&k);
        // One load, one mem port -> mem contributes ceil(2/1)=2 (latency 2 II);
        // ALU ops dominate otherwise.
        let mii = res_mii(&k, &lp, &FuBudget::default());
        assert!(mii >= 2);
    }

    #[test]
    fn pipelines_to_small_ii() {
        let k = sum_kernel();
        let lp = the_loop(&k);
        let p = pipeline_loop(&k, &lp, &FuBudget::default()).unwrap();
        assert!(p.ii >= p.res_mii);
        assert!(
            p.ii <= 8,
            "sum loop should pipeline tightly, got II={}",
            p.ii
        );
        assert!(p.depth >= p.ii);
        // steady-state estimate: II per trip
        assert_eq!(p.cycles_for(1), p.depth as u64);
        assert_eq!(p.cycles_for(100), p.depth as u64 + 99 * p.ii as u64);
        assert_eq!(p.cycles_for(0), 0);
    }

    #[test]
    fn pipeline_beats_sequential_blocks() {
        let k = sum_kernel();
        let lp = the_loop(&k);
        let p = pipeline_loop(&k, &lp, &FuBudget::default()).unwrap();
        // Sequential: header + body schedule lengths per trip.
        let seq_len: u32 = lp
            .blocks
            .iter()
            .map(|&b| crate::sched::list_schedule(&k, b, &FuBudget::default()).length)
            .sum();
        assert!(
            p.ii < seq_len,
            "II {} must beat sequential per-trip length {seq_len}",
            p.ii
        );
    }

    #[test]
    fn starts_respect_dependences() {
        let k = sum_kernel();
        let lp = the_loop(&k);
        let p = pipeline_loop(&k, &lp, &FuBudget::default()).unwrap();
        let it = Iteration::new(&k, &lp);
        let start: Vec<u32> = it.values.iter().map(|v| p.starts[v]).collect();
        for e in &it.edges {
            let lhs = e.reach(&start, p.ii);
            assert!(lhs <= start[e.to as usize] as i64, "edge {:?} violated", e);
        }
    }

    #[test]
    fn rejects_wide_loops() {
        // Build a loop with an if/else inside: header -> {a, b} -> latch -> header.
        let mut bld = KernelBuilder::new("wide", 1);
        let entry = bld.current_block();
        let header = bld.new_block();
        let t = bld.new_block();
        let f = bld.new_block();
        let latch = bld.new_block();
        let exit = bld.new_block();
        let n = bld.arg(0);
        let zero = bld.constant(0);
        bld.jump(header);
        bld.switch_to(header);
        let i = bld.phi();
        let c = bld.cmp(CmpOp::Lt, i, n);
        bld.branch(c, t, exit);
        bld.switch_to(t);
        let two = bld.constant(2);
        let odd = bld.bin(BinOp::And, i, two);
        bld.branch(odd, f, latch);
        bld.switch_to(f);
        bld.jump(latch);
        bld.switch_to(latch);
        let one = bld.constant(1);
        let i2 = bld.bin(BinOp::Add, i, one);
        bld.jump(header);
        bld.switch_to(exit);
        bld.ret(None);
        bld.set_phi_incoming(i, &[(entry, zero), (latch, i2)]);
        let k = bld.finish().unwrap();
        let lp = the_loop(&k);
        let err = pipeline_loop(&k, &lp, &FuBudget::default()).unwrap_err();
        assert!(matches!(err, PipelineError::TooManyBlocks { .. }));
        assert!(err.to_string().contains("blocks"));
    }

    #[test]
    fn recurrence_bounds_ii() {
        // acc = acc * x each trip: loop-carried mul (latency 3) forces II >= 3.
        let mut b = KernelBuilder::new("prod", 2);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let x = b.arg(0);
        let n = b.arg(1);
        let zero = b.constant(0);
        let one_e = b.constant(1);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let acc = b.phi();
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let acc2 = b.bin(BinOp::Mul, acc, x);
        let one = b.constant(1);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(Some(acc));
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        b.set_phi_incoming(acc, &[(entry, one_e), (body, acc2)]);
        let k = b.finish().unwrap();
        let lp = the_loop(&k);
        let p = pipeline_loop(&k, &lp, &FuBudget::default()).unwrap();
        assert!(p.ii >= 3, "mul recurrence must force II >= 3, got {}", p.ii);
    }
}
