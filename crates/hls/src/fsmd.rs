//! The compile driver: IR → optimized IR → schedules → binding → estimates.
//!
//! [`compile`] produces a [`CompiledKernel`], the package the rest of the
//! stack consumes:
//!
//! * the execution engine in `svmsyn-hwt` drives the interpreter for
//!   *semantics* and asks [`CompiledKernel::enter_cost`] for the FSM
//!   *timing* of each control transfer;
//! * the system-level partitioner reads [`CompiledKernel::resources`] and
//!   `fmax_mhz`;
//! * Table 2 prints everything.

use std::collections::HashMap;
use std::sync::Arc;

use svmsyn_sim::FabricResources;

use crate::bind::bind;
use crate::cfg::Cfg;
use crate::decode::DecodedKernel;
use crate::ir::{BlockId, Kernel};
use crate::opt::{optimize, PassStats};
use crate::pipeline::{pipeline_loop, LoopPipeline};
use crate::resource::{kernel_cost, kernel_fmax_mhz, BindingReport, FuBudget};
use crate::sched::{list_schedule, BlockSchedule};

/// HLS compilation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HlsConfig {
    /// Functional-unit budget for scheduling.
    pub fu: FuBudget,
    /// Attempt modulo scheduling of eligible innermost loops.
    pub pipeline_loops: bool,
    /// Run the optimization pipeline first.
    pub optimize: bool,
}

impl Default for HlsConfig {
    /// Optimize and pipeline with the default FU budget.
    fn default() -> Self {
        HlsConfig {
            fu: FuBudget::default(),
            pipeline_loops: true,
            optimize: true,
        }
    }
}

/// A fully compiled kernel: schedules, binding, and estimates.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The (optimized) kernel.
    pub kernel: Kernel,
    /// The kernel pre-decoded to micro-ops, shared by every execution of
    /// this compilation (decode once, run many times).
    pub decoded: Arc<DecodedKernel>,
    /// [`enter_cost`][Self::enter_cost] flattened to a `(from + 1) × to`
    /// matrix (row 0 = kernel start), built once here so execution engines
    /// index it directly on every block transition.
    pub enter_costs: Box<[u64]>,
    /// Per-block list schedules, indexed by block id.
    pub schedules: Vec<BlockSchedule>,
    /// Successfully pipelined loops, keyed by header block.
    pub pipelines: HashMap<BlockId, LoopPipeline>,
    /// Binding results.
    pub binding: BindingReport,
    /// Estimated datapath + FSM fabric cost (MMU/MEMIF not included).
    pub resources: FabricResources,
    /// Estimated maximum clock in MHz.
    pub fmax_mhz: f64,
    /// FSM state count.
    pub states: u32,
    /// What the optimizer changed.
    pub pass_stats: PassStats,
}

impl CompiledKernel {
    /// Which pipeline (if any) covers block `b`.
    pub fn pipeline_for(&self, b: BlockId) -> Option<&LoopPipeline> {
        self.pipelines
            .values()
            .find(|p| p.blocks.binary_search(&b).is_ok())
    }

    /// FSM cycles charged when control enters `to` from `from`
    /// (`None` = kernel start).
    ///
    /// The policy implements standard pipelined-loop timing:
    ///
    /// * entering a pipelined loop from outside charges the pipeline depth
    ///   (first iteration fill + drain),
    /// * each back edge inside the pipeline charges one initiation interval,
    /// * other intra-pipeline transfers are free (they are the same
    ///   overlapped iteration),
    /// * any other block charges its list-schedule length.
    pub fn enter_cost(&self, from: Option<BlockId>, to: BlockId) -> u64 {
        if let Some(p) = self.pipeline_for(to) {
            let from_inside = from.is_some_and(|f| p.blocks.binary_search(&f).is_ok());
            if !from_inside {
                return p.depth as u64;
            }
            if to == p.header {
                return p.ii as u64; // back edge: next overlapped iteration
            }
            return 0;
        }
        self.schedules[to.0 as usize].length as u64
    }
}

/// Compiles a kernel.
///
/// # Panics
///
/// Panics if the kernel (after optimization) has an op whose class has zero
/// units in `cfg.fu`; see [`list_schedule`] and [`pipeline_loop`].
///
/// # Example
///
/// ```
/// use svmsyn_hls::builder::KernelBuilder;
/// use svmsyn_hls::fsmd::{compile, HlsConfig};
/// use svmsyn_hls::ir::BinOp;
///
/// let mut b = KernelBuilder::new("mac", 3);
/// let x = b.arg(0);
/// let y = b.arg(1);
/// let z = b.arg(2);
/// let m = b.bin(BinOp::Mul, x, y);
/// let s = b.bin(BinOp::Add, m, z);
/// b.ret(Some(s));
/// let ck = compile(&b.finish().unwrap(), &HlsConfig::default());
/// assert!(ck.resources.dsp >= 3, "multiplier maps to DSPs");
/// assert!(ck.fmax_mhz > 0.0);
/// ```
pub fn compile(kernel: &Kernel, cfg: &HlsConfig) -> CompiledKernel {
    let mut kernel = kernel.clone();
    let pass_stats = if cfg.optimize {
        optimize(&mut kernel)
    } else {
        PassStats::default()
    };

    let mut pipelines: HashMap<BlockId, LoopPipeline> = HashMap::new();
    if cfg.pipeline_loops {
        let loops = Cfg::new(&kernel).natural_loops();
        for lp in &loops {
            // Innermost only: skip loops containing another loop's header.
            let inner = loops
                .iter()
                .filter(|other| other.header != lp.header)
                .all(|other| !lp.contains(other.header));
            if !inner {
                continue;
            }
            if let Ok(p) = pipeline_loop(&kernel, lp, &cfg.fu) {
                pipelines.insert(lp.header, p);
            }
        }
    }

    let schedules: Vec<BlockSchedule> = kernel
        .block_ids()
        .map(|b| list_schedule(&kernel, b, &cfg.fu))
        .collect();

    let binding = bind(&kernel, &schedules, &pipelines);

    // FSM states: pipelined loops contribute their II (steady-state states);
    // other blocks their schedule length.
    let mut pipelined = vec![false; kernel.blocks.len()];
    for b in pipelines.values().flat_map(|p| &p.blocks) {
        pipelined[b.0 as usize] = true;
    }
    let mut states: u32 = 0;
    for b in kernel.block_ids() {
        if !pipelined[b.0 as usize] {
            states += schedules[b.0 as usize].length;
        }
    }
    for p in pipelines.values() {
        states += p.ii + 2; // steady state + prologue/epilogue control
    }
    states = states.max(1);

    let max_ops = schedules
        .iter()
        .map(|s| s.max_ops_per_cycle(&kernel))
        .max()
        .unwrap_or(0);
    let resources = kernel_cost(&binding, states);
    let fmax_mhz = kernel_fmax_mhz(&binding, max_ops);

    let decoded = Arc::new(DecodedKernel::decode(&kernel));
    let mut ck = CompiledKernel {
        kernel,
        decoded,
        enter_costs: Box::new([]),
        schedules,
        pipelines,
        binding,
        resources,
        fmax_mhz,
        states,
        pass_stats,
    };
    let nblocks = ck.kernel.blocks.len();
    let mut enter_costs = vec![0u64; (nblocks + 1) * nblocks];
    for to in 0..nblocks {
        enter_costs[to] = ck.enter_cost(None, BlockId(to as u32));
        for from in 0..nblocks {
            enter_costs[(from + 1) * nblocks + to] =
                ck.enter_cost(Some(BlockId(from as u32)), BlockId(to as u32));
        }
    }
    ck.enter_costs = enter_costs.into_boxed_slice();
    ck
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::ir::{BinOp, CmpOp, Width};

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

    #[test]
    fn compile_pipelines_the_loop() {
        let ck = compile(&sum_kernel(), &HlsConfig::default());
        assert_eq!(ck.pipelines.len(), 1);
        let header = *ck.pipelines.keys().next().unwrap();
        let p = &ck.pipelines[&header];
        assert!(p.ii < ck.schedules[header.0 as usize].length + 4);
        assert!(ck.states > 0);
        assert!(ck.resources.lut > 0);
    }

    #[test]
    fn pipeline_off_means_no_pipelines() {
        let ck = compile(
            &sum_kernel(),
            &HlsConfig {
                pipeline_loops: false,
                ..HlsConfig::default()
            },
        );
        assert!(ck.pipelines.is_empty());
    }

    #[test]
    fn enter_cost_policy() {
        let ck = compile(&sum_kernel(), &HlsConfig::default());
        let header = *ck.pipelines.keys().next().unwrap();
        let p = ck.pipelines[&header].clone();
        let body = *p.blocks.iter().find(|&&b| b != header).unwrap();
        // Entering the loop from the entry block: depth.
        assert_eq!(ck.enter_cost(Some(BlockId(0)), header), p.depth as u64);
        // Back edge body -> header: II.
        assert_eq!(ck.enter_cost(Some(body), header), p.ii as u64);
        // header -> body inside the pipeline: free.
        assert_eq!(ck.enter_cost(Some(header), body), 0);
        // Exit block: its schedule length.
        let exit = BlockId(3);
        assert_eq!(
            ck.enter_cost(Some(header), exit),
            ck.schedules[3].length as u64
        );
        // Kernel start.
        assert_eq!(
            ck.enter_cost(None, BlockId(0)),
            ck.schedules[0].length as u64
        );
    }

    #[test]
    fn pipelining_reduces_steady_state_cost() {
        let on = compile(&sum_kernel(), &HlsConfig::default());
        let off = compile(
            &sum_kernel(),
            &HlsConfig {
                pipeline_loops: false,
                ..HlsConfig::default()
            },
        );
        let header = *on.pipelines.keys().next().unwrap();
        let body = *on.pipelines[&header]
            .blocks
            .iter()
            .find(|&&b| b != header)
            .unwrap();
        let per_iter_on = on.enter_cost(Some(body), header) + on.enter_cost(Some(header), body);
        let per_iter_off = off.enter_cost(Some(body), header) + off.enter_cost(Some(header), body);
        assert!(
            per_iter_on < per_iter_off,
            "pipelined per-iteration cost {per_iter_on} must beat {per_iter_off}"
        );
    }

    #[test]
    fn optimizer_runs_by_default() {
        let mut b = KernelBuilder::new("c", 0);
        let two = b.constant(2);
        let four = b.bin(BinOp::Add, two, two);
        b.ret(Some(four));
        let ck = compile(&b.finish().unwrap(), &HlsConfig::default());
        assert!(ck.pass_stats.folded >= 1);
    }

    #[test]
    fn straight_line_kernel_compiles() {
        let mut b = KernelBuilder::new("s", 2);
        let x = b.arg(0);
        let y = b.arg(1);
        let d = b.bin(BinOp::Div, x, y);
        b.ret(Some(d));
        let ck = compile(&b.finish().unwrap(), &HlsConfig::default());
        assert_eq!(ck.binding.div_units, 1);
        assert!(ck.fmax_mhz <= 140.0, "divider caps the clock");
        assert!(ck.pipelines.is_empty());
    }
}
