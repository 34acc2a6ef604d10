//! Binding: functional-unit allocation and register binding (left-edge).
//!
//! After scheduling, binding decides how many physical FUs and registers the
//! datapath needs — the numbers behind the area estimate. FU counts come
//! from peak per-cycle concurrency (and per-modulo-slot concurrency for
//! pipelined loops); registers come from a left-edge pass over per-block
//! live intervals plus dedicated registers for values that are live across
//! block boundaries.

use std::collections::HashMap;

use crate::ir::{BlockId, Kernel, Op, Terminator, Value};
use crate::pipeline::LoopPipeline;
use crate::resource::{unit_index, BindingReport, UNIT_CLASSES};
use crate::sched::BlockSchedule;

/// Per-class tallies of ops and peak concurrency.
#[derive(Default)]
struct FuTally {
    /// Costed ops seen per class.
    ops: [usize; UNIT_CLASSES.len()],
    /// Most ops of one class sharing one cycle (or modulo slot).
    peak: [usize; UNIT_CLASSES.len()],
    /// `(class, cycle)` of every op in the current group.
    keys: Vec<(usize, u32)>,
}

impl FuTally {
    /// Counts the costed ops of one schedule, `(value, cycle)` each, with
    /// ops in the same cycle sharing units.
    fn add(&mut self, kernel: &Kernel, ops: impl IntoIterator<Item = (Value, u32)>) {
        self.keys.clear();
        for (v, c) in ops {
            if let Some(u) = unit_index(kernel.instr(v).op.class()) {
                self.ops[u] += 1;
                self.keys.push((u, c));
            }
        }
        self.keys.sort_unstable();
        for same in self.keys.chunk_by(|a, b| a == b) {
            let u = same[0].0;
            self.peak[u] = self.peak[u].max(same.len());
        }
    }
}

/// Computes the binding report for a scheduled kernel.
pub fn bind(
    kernel: &Kernel,
    schedules: &[BlockSchedule],
    pipelines: &HashMap<BlockId, LoopPipeline>,
) -> BindingReport {
    let mut pipelined = vec![false; kernel.blocks.len()];
    for b in pipelines.values().flat_map(|p| &p.blocks) {
        pipelined[b.0 as usize] = true;
    }

    // --- FU allocation: peak concurrency per class -----------------------
    let mut fu = FuTally::default();
    for b in kernel.block_ids() {
        if pipelined[b.0 as usize] {
            continue; // counted via the pipeline's modulo table below
        }
        let sched = &schedules[b.0 as usize];
        fu.add(kernel, sched.start.iter().map(|(&v, &c)| (v, c)));
    }
    for p in pipelines.values() {
        fu.add(kernel, p.starts.iter().map(|(&v, &s)| (v, s % p.ii)));
    }

    // --- Register binding -------------------------------------------------
    // Values live across blocks (used in a different block than their def,
    // by a phi, or by a terminator) get dedicated registers.
    let mut def_block: Vec<Option<BlockId>> = vec![None; kernel.len()];
    for b in kernel.block_ids() {
        for &v in &kernel.block(b).instrs {
            def_block[v.0 as usize] = Some(b);
        }
    }
    let mut cross_block = vec![false; kernel.len()];
    for b in kernel.block_ids() {
        for &v in &kernel.block(b).instrs {
            let op = &kernel.instr(v).op;
            if let Op::Phi(incoming) = op {
                cross_block[v.0 as usize] = true;
                for (_, pv) in incoming {
                    cross_block[pv.0 as usize] = true;
                }
                continue;
            }
            op.for_each_operand(|u| {
                if def_block[u.0 as usize] != Some(b) {
                    cross_block[u.0 as usize] = true;
                }
            });
        }
        match &kernel.block(b).term {
            Terminator::Branch { cond, .. } => {
                cross_block[cond.0 as usize] = true;
            }
            Terminator::Return(Some(v)) => {
                cross_block[v.0 as usize] = true;
            }
            _ => {}
        }
    }

    // Left-edge over intra-block temporaries per block.
    let mut shared_registers = 0usize;
    // Latest start of a same-block user of each value (its own start if
    // none): one pass over the block's uses.
    let mut last_use: Vec<Option<u32>> = vec![None; kernel.len()];
    let mut intervals: Vec<(u32, u32)> = Vec::new();
    for b in kernel.block_ids() {
        let sched = &schedules[b.0 as usize];
        let block = kernel.block(b);
        for &v in &block.instrs {
            last_use[v.0 as usize] = sched.start.get(&v).copied();
        }
        for &u in &block.instrs {
            let Some(&s) = sched.start.get(&u) else {
                continue;
            };
            kernel.instr(u).op.for_each_operand(|v| {
                if let Some(last) = &mut last_use[v.0 as usize] {
                    *last = (*last).max(s);
                }
            });
        }
        // live interval: (def_end, last_use_start)
        intervals.clear();
        for &v in &block.instrs {
            if cross_block[v.0 as usize] || !kernel.instr(v).op.defines_value() {
                continue;
            }
            let (Some(&def), Some(last)) = (sched.start.get(&v), last_use[v.0 as usize]) else {
                continue;
            };
            if last > def {
                intervals.push((def, last));
            }
        }
        intervals.sort_unstable();
        // Greedy left-edge: registers as rows of non-overlapping intervals.
        let mut rows: Vec<u32> = Vec::new(); // end time of each row
        for &(start, end) in &intervals {
            match rows.iter_mut().find(|rend| **rend <= start) {
                Some(rend) => *rend = end,
                None => rows.push(end),
            }
        }
        shared_registers = shared_registers.max(rows.len());
    }
    let registers = cross_block.iter().filter(|&&c| c).count() + shared_registers;

    // --- Mux estimate ------------------------------------------------------
    // Each shared FU with k ops bound to it needs (k-1) extra mux inputs per
    // operand port (2 ports).
    let mut mux_inputs = 0usize;
    for (&n_ops, &peak) in fu.ops.iter().zip(&fu.peak) {
        let units = peak.max(1);
        if n_ops > units {
            mux_inputs += 2 * (n_ops - units);
        }
    }

    // In `UNIT_CLASSES` order.
    let [alu_units, mul_units, div_units, mem_ports] = fu.peak;
    BindingReport {
        alu_units,
        mul_units,
        div_units,
        mem_ports: mem_ports.max(1),
        registers,
        mux_inputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::BinOp;
    use crate::resource::FuBudget;
    use crate::sched::list_schedule;

    fn schedules_for(k: &Kernel, budget: &FuBudget) -> Vec<BlockSchedule> {
        k.block_ids().map(|b| list_schedule(k, b, budget)).collect()
    }

    #[test]
    fn fu_counts_track_peak_concurrency() {
        let mut b = KernelBuilder::new("k", 4);
        let a0 = b.arg(0);
        let a1 = b.arg(1);
        let a2 = b.arg(2);
        let a3 = b.arg(3);
        let s0 = b.bin(BinOp::Add, a0, a1);
        let s1 = b.bin(BinOp::Add, a2, a3);
        let s = b.bin(BinOp::Add, s0, s1);
        b.ret(Some(s));
        let k = b.finish().unwrap();
        let budget = FuBudget {
            alu: 2,
            ..FuBudget::default()
        };
        let scheds = schedules_for(&k, &budget);
        let report = bind(&k, &scheds, &HashMap::new());
        assert_eq!(report.alu_units, 2, "two adds run in parallel");
        assert_eq!(report.mul_units, 0);
        assert_eq!(report.mem_ports, 1, "memif port always present");
    }

    #[test]
    fn narrow_budget_fewer_units_more_muxes() {
        let mut b = KernelBuilder::new("k", 4);
        let a0 = b.arg(0);
        let a1 = b.arg(1);
        let a2 = b.arg(2);
        let a3 = b.arg(3);
        let s0 = b.bin(BinOp::Add, a0, a1);
        let s1 = b.bin(BinOp::Add, a2, a3);
        let s2 = b.bin(BinOp::Add, s0, s1);
        let s3 = b.bin(BinOp::Add, s2, a0);
        b.ret(Some(s3));
        let k = b.finish().unwrap();
        let narrow = schedules_for(
            &k,
            &FuBudget {
                alu: 1,
                ..FuBudget::default()
            },
        );
        let report = bind(&k, &narrow, &HashMap::new());
        assert_eq!(report.alu_units, 1);
        assert!(report.mux_inputs > 0, "sharing needs steering muxes");
    }

    #[test]
    fn cross_block_values_get_registers() {
        let mut b = KernelBuilder::new("k", 1);
        let next = b.new_block();
        let x = b.arg(0);
        let one = b.constant(1);
        let y = b.bin(BinOp::Add, x, one);
        b.jump(next);
        b.switch_to(next);
        let z = b.bin(BinOp::Add, y, y); // y crosses the block boundary
        b.ret(Some(z));
        let k = b.finish().unwrap();
        let scheds = schedules_for(&k, &FuBudget::default());
        let report = bind(&k, &scheds, &HashMap::new());
        assert!(report.registers >= 2, "y and z need registers: {report:?}");
    }

    #[test]
    fn empty_kernel_binds_minimally() {
        let mut b = KernelBuilder::new("k", 0);
        b.ret(None);
        let k = b.finish().unwrap();
        let scheds = schedules_for(&k, &FuBudget::default());
        let report = bind(&k, &scheds, &HashMap::new());
        assert_eq!(report.alu_units, 0);
        assert_eq!(report.mem_ports, 1);
        assert_eq!(report.mux_inputs, 0);
    }
}
