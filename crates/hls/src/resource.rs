//! Functional-unit latency/area tables and whole-kernel resource estimation.
//!
//! The tables are first-order models in the range HLS reports print for
//! Zynq-7000-class parts: a 64-bit adder-class ALU is LUT logic, a multiplier
//! maps to DSP slices, a divider is a large iterative block, and registers
//! and FSM decode contribute FF/LUT proportional to binding results. As with
//! `svmsyn-vm::cost`, the *trends* drive the evaluation, not the absolute
//! numbers.

use svmsyn_sim::FabricResources;

use crate::ir::{Kernel, OpClass, Value};

/// Latency in cycles of each operation class (result available after this
/// many cycles).
pub fn latency(class: OpClass) -> u32 {
    match class {
        OpClass::Free => 0,
        OpClass::Alu => 1,
        OpClass::Mul => 3,
        OpClass::Div => 16,
        // Static schedules reserve the issue + ack handshake; the real
        // latency is dynamic (bus + TLB) and modeled at execution time.
        OpClass::Mem => 2,
    }
}

/// Initiation interval of each class's functional unit: how many cycles the
/// unit is occupied per operation (pipelined units have II 1).
pub fn initiation_interval(class: OpClass) -> u32 {
    match class {
        OpClass::Free => 0,
        OpClass::Alu => 1,
        OpClass::Mul => 1,  // fully pipelined
        OpClass::Div => 16, // iterative, not pipelined
        OpClass::Mem => 1,  // issue slot; completion is dynamic
    }
}

/// Fabric cost of one functional-unit instance.
pub fn fu_cost(class: OpClass) -> FabricResources {
    match class {
        OpClass::Free => FabricResources::ZERO,
        OpClass::Alu => FabricResources::new(80, 60, 0, 0),
        OpClass::Mul => FabricResources::new(40, 50, 3, 0),
        OpClass::Div => FabricResources::new(900, 700, 0, 0),
        // The memory port itself (request/ack regs); the burst engine is
        // costed in svmsyn-hwt.
        OpClass::Mem => FabricResources::new(120, 140, 0, 0),
    }
}

/// How many functional units of each class the scheduler may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuBudget {
    /// Single-cycle ALUs.
    pub alu: usize,
    /// Pipelined multipliers.
    pub mul: usize,
    /// Iterative dividers.
    pub div: usize,
    /// Memory ports (the MEMIF has one request channel by default).
    pub mem_ports: usize,
}

impl Default for FuBudget {
    /// The default allocation used throughout the evaluation.
    fn default() -> Self {
        FuBudget {
            alu: 2,
            mul: 1,
            div: 1,
            mem_ports: 1,
        }
    }
}

impl FuBudget {
    /// The budget for `class` (`usize::MAX` for free ops).
    pub fn of(&self, class: OpClass) -> usize {
        match class {
            OpClass::Free => usize::MAX,
            OpClass::Alu => self.alu,
            OpClass::Mul => self.mul,
            OpClass::Div => self.div,
            OpClass::Mem => self.mem_ports,
        }
    }

    /// Panics unless the budget grants at least one unit to the class of
    /// every op in `ops`: a scheduler can never place an op whose class has
    /// no unit. A class no op uses may have zero units.
    pub(crate) fn assert_covers(&self, kernel: &Kernel, ops: impl IntoIterator<Item = Value>) {
        for v in ops {
            let class = kernel.instr(v).op.class();
            assert!(
                self.of(class) > 0,
                "FuBudget has 0 {class:?} units, but {v} needs one"
            );
        }
    }
}

/// The classes that occupy a functional unit, in the order per-class arrays
/// index them.
pub(crate) const UNIT_CLASSES: [OpClass; 4] =
    [OpClass::Alu, OpClass::Mul, OpClass::Div, OpClass::Mem];

/// Index of `class` in [`UNIT_CLASSES`]; `None` for free ops.
pub(crate) fn unit_index(class: OpClass) -> Option<usize> {
    match class {
        OpClass::Free => None,
        OpClass::Alu => Some(0),
        OpClass::Mul => Some(1),
        OpClass::Div => Some(2),
        OpClass::Mem => Some(3),
    }
}

/// Binding results that feed area estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BindingReport {
    /// Functional units actually instantiated per class.
    pub alu_units: usize,
    /// Multipliers instantiated.
    pub mul_units: usize,
    /// Dividers instantiated.
    pub div_units: usize,
    /// Memory ports instantiated.
    pub mem_ports: usize,
    /// Datapath registers after register binding.
    pub registers: usize,
    /// Total mux inputs across shared resources (steering logic).
    pub mux_inputs: usize,
}

/// Estimated fabric cost of a compiled kernel's datapath + FSM.
///
/// `states` is the FSM state count; 64-bit registers cost 64 FF plus mux
/// steering LUTs per extra source.
pub fn kernel_cost(binding: &BindingReport, states: u32) -> FabricResources {
    let fus = fu_cost(OpClass::Alu) * binding.alu_units as u64
        + fu_cost(OpClass::Mul) * binding.mul_units as u64
        + fu_cost(OpClass::Div) * binding.div_units as u64
        + fu_cost(OpClass::Mem) * binding.mem_ports as u64;
    let regs = FabricResources::new(
        8 * binding.registers as u64, // address/steering logic per register
        64 * binding.registers as u64,
        0,
        0,
    );
    let muxes = FabricResources::new(16 * binding.mux_inputs as u64, 0, 0, 0);
    let fsm = FabricResources::new(
        2 * states as u64 + 40,
        (32 - u32::leading_zeros(states.max(1))) as u64 + 8,
        0,
        0,
    );
    fus + regs + muxes + fsm
}

/// Estimated maximum clock of the kernel datapath in MHz.
///
/// Sharing (mux depth) and wide states lengthen the critical path; dividers
/// set a floor on achievable clock.
pub fn kernel_fmax_mhz(binding: &BindingReport, max_ops_per_state: u32) -> f64 {
    let mut f = 170.0;
    f -= 1.5 * max_ops_per_state as f64;
    f -= 0.02 * binding.mux_inputs as f64;
    if binding.div_units > 0 {
        f = f.min(140.0);
    }
    f.max(75.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_table_sane() {
        assert_eq!(latency(OpClass::Free), 0);
        assert!(latency(OpClass::Alu) < latency(OpClass::Mul));
        assert!(latency(OpClass::Mul) < latency(OpClass::Div));
    }

    #[test]
    fn pipelined_units_have_ii_one() {
        assert_eq!(initiation_interval(OpClass::Mul), 1);
        assert_eq!(initiation_interval(OpClass::Div), latency(OpClass::Div));
    }

    #[test]
    fn budget_lookup() {
        let b = FuBudget::default();
        assert_eq!(b.of(OpClass::Alu), 2);
        assert_eq!(b.of(OpClass::Free), usize::MAX);
        assert_eq!(b.of(OpClass::Mem), 1);
        assert_eq!(b.of(OpClass::Div), 1);
        assert_eq!(b.of(OpClass::Mul), 1);
    }

    #[test]
    fn cost_scales_with_binding() {
        let small = BindingReport {
            alu_units: 1,
            registers: 4,
            ..BindingReport::default()
        };
        let big = BindingReport {
            alu_units: 4,
            mul_units: 2,
            registers: 32,
            mux_inputs: 40,
            ..BindingReport::default()
        };
        let cs = kernel_cost(&small, 4);
        let cb = kernel_cost(&big, 4);
        assert!(cb.lut > cs.lut && cb.ff > cs.ff);
        assert_eq!(cb.dsp, 6);
    }

    #[test]
    fn fmax_degrades_with_sharing_and_floors() {
        let lean = BindingReport::default();
        let heavy = BindingReport {
            mux_inputs: 500,
            div_units: 1,
            ..BindingReport::default()
        };
        assert!(kernel_fmax_mhz(&heavy, 8) < kernel_fmax_mhz(&lean, 2));
        assert!(kernel_fmax_mhz(&heavy, 100) >= 75.0);
    }

    #[test]
    fn fsm_cost_grows_with_states() {
        let b = BindingReport::default();
        assert!(kernel_cost(&b, 100).lut > kernel_cost(&b, 4).lut);
    }
}
