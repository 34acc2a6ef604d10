//! Verilog emission for compiled kernels.
//!
//! Emits a synthesizable-style FSMD skeleton: the state machine follows the
//! computed schedules exactly (one state per schedule cycle, plus memory
//! wait states), the datapath declares the bound registers, and the memory
//! interface exposes the MEMIF request/acknowledge handshake. The emitted
//! text is what the DATE-style toolflow would hand to the vendor back end;
//! here it documents the schedule and is checked for structural sanity by
//! tests.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::fsmd::CompiledKernel;
use crate::ir::{Op, Terminator, Value};

/// Renders the kernel as a Verilog module.
///
/// # Example
///
/// ```
/// use svmsyn_hls::builder::KernelBuilder;
/// use svmsyn_hls::fsmd::{compile, HlsConfig};
/// use svmsyn_hls::ir::BinOp;
/// use svmsyn_hls::verilog::emit_verilog;
///
/// let mut b = KernelBuilder::new("addk", 2);
/// let x = b.arg(0);
/// let y = b.arg(1);
/// let s = b.bin(BinOp::Add, x, y);
/// b.ret(Some(s));
/// let v = emit_verilog(&compile(&b.finish().unwrap(), &HlsConfig::default()));
/// assert!(v.contains("module addk"));
/// assert!(v.contains("endmodule"));
/// ```
pub fn emit_verilog(ck: &CompiledKernel) -> String {
    let k = &ck.kernel;
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by svmsyn-hls — do not edit.");
    let _ = writeln!(
        out,
        "// kernel: {} | states: {} | est. {} | est. fmax {:.1} MHz",
        k.name, ck.states, ck.resources, ck.fmax_mhz
    );
    let _ = writeln!(out, "module {} #(", sanitize(&k.name));
    let _ = writeln!(out, "  parameter ARG_COUNT = {}", k.num_args);
    let _ = writeln!(out, ") (");
    let _ = writeln!(out, "  input  wire        clk,");
    let _ = writeln!(out, "  input  wire        rst,");
    let _ = writeln!(out, "  input  wire        start,");
    let _ = writeln!(out, "  output reg         done,");
    let _ = writeln!(out, "  input  wire [63:0] args [0:ARG_COUNT-1],");
    let _ = writeln!(out, "  output reg  [63:0] retval,");
    let _ = writeln!(out, "  // MEMIF handshake (virtual addresses)");
    let _ = writeln!(out, "  output reg         mem_req_valid,");
    let _ = writeln!(out, "  output reg         mem_req_we,");
    let _ = writeln!(out, "  output reg  [31:0] mem_req_addr,");
    let _ = writeln!(out, "  output reg  [63:0] mem_req_wdata,");
    let _ = writeln!(out, "  output reg  [3:0]  mem_req_size,");
    let _ = writeln!(out, "  input  wire        mem_resp_valid,");
    let _ = writeln!(out, "  input  wire [63:0] mem_resp_rdata,");
    let _ = writeln!(out, "  // OSIF handshake");
    let _ = writeln!(out, "  output reg         osif_call_valid,");
    let _ = writeln!(out, "  output reg  [31:0] osif_call_id,");
    let _ = writeln!(out, "  input  wire        osif_call_done");
    let _ = writeln!(out, ");");
    let _ = writeln!(out);

    // State encoding: a contiguous state id per (block, cycle).
    let mut next_state: u32 = 1; // 0 = IDLE
    let _ = writeln!(out, "  localparam S_IDLE = 32'd0;");
    for b in k.block_ids() {
        let len = ck.schedules[b.0 as usize].length.max(1);
        for c in 0..len {
            let _ = writeln!(out, "  localparam S_B{}_C{} = 32'd{};", b.0, c, next_state);
            next_state += 1;
        }
    }
    let s_done = next_state;
    let _ = writeln!(out, "  localparam S_DONE = 32'd{s_done};");
    let _ = writeln!(out);
    let _ = writeln!(out, "  reg [31:0] state;");
    let _ = writeln!(
        out,
        "  reg [63:0] r [0:{}]; // bound datapath registers",
        ck.binding.registers.max(1) - 1
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "  always @(posedge clk) begin");
    let _ = writeln!(out, "    if (rst) begin");
    let _ = writeln!(out, "      state <= S_IDLE;");
    let _ = writeln!(out, "      done <= 1'b0;");
    let _ = writeln!(out, "      mem_req_valid <= 1'b0;");
    let _ = writeln!(out, "      osif_call_valid <= 1'b0;");
    let _ = writeln!(out, "    end else begin");
    let _ = writeln!(out, "      case (state)");
    let _ = writeln!(out, "        S_IDLE: begin");
    let _ = writeln!(out, "          if (start) state <= S_B{}_C0;", k.entry.0);
    let _ = writeln!(out, "        end");

    for b in k.block_ids() {
        let sched = &ck.schedules[b.0 as usize];
        let len = sched.length.max(1);
        // Group scheduled ops by cycle for comments.
        let mut by_cycle: HashMap<u32, Vec<Value>> = HashMap::new();
        for (&v, &c) in &sched.start {
            by_cycle.entry(c).or_default().push(v);
        }
        for c in 0..len {
            let sid = format!("S_B{}_C{}", b.0, c);
            let _ = writeln!(out, "        {sid}: begin");
            if let Some(ops) = by_cycle.get(&c) {
                let mut ops = ops.clone();
                ops.sort_unstable();
                for v in ops {
                    match &k.instr(v).op {
                        Op::Load { addr, width } => {
                            let _ =
                                writeln!(out, "          // issue load %{} <- [%{}]", v.0, addr.0);
                            let _ = writeln!(out, "          mem_req_valid <= 1'b1;");
                            let _ = writeln!(out, "          mem_req_we <= 1'b0;");
                            let _ =
                                writeln!(out, "          mem_req_size <= 4'd{};", width.bytes());
                        }
                        Op::Store { addr, value, width } => {
                            let _ = writeln!(
                                out,
                                "          // issue store [%{}] <- %{}",
                                addr.0, value.0
                            );
                            let _ = writeln!(out, "          mem_req_valid <= 1'b1;");
                            let _ = writeln!(out, "          mem_req_we <= 1'b1;");
                            let _ =
                                writeln!(out, "          mem_req_size <= 4'd{};", width.bytes());
                        }
                        op => {
                            let _ = writeln!(out, "          // %{} = {op:?}", v.0);
                        }
                    }
                }
            }
            if c + 1 < len {
                let _ = writeln!(out, "          state <= S_B{}_C{};", b.0, c + 1);
            } else {
                match &k.block(b).term {
                    Terminator::Jump(t) => {
                        let _ = writeln!(out, "          state <= S_B{}_C0;", t.0);
                    }
                    Terminator::Branch {
                        cond,
                        then_to,
                        else_to,
                    } => {
                        let _ = writeln!(
                            out,
                            "          state <= (r[{} % {}] != 64'd0) ? S_B{}_C0 : S_B{}_C0;",
                            cond.0,
                            ck.binding.registers.max(1),
                            then_to.0,
                            else_to.0
                        );
                    }
                    Terminator::Return(v) => {
                        if let Some(v) = v {
                            let _ = writeln!(
                                out,
                                "          retval <= r[{} % {}];",
                                v.0,
                                ck.binding.registers.max(1)
                            );
                        }
                        let _ = writeln!(out, "          state <= S_DONE;");
                    }
                }
            }
            let _ = writeln!(out, "        end");
        }
    }

    let _ = writeln!(out, "        S_DONE: begin");
    let _ = writeln!(out, "          done <= 1'b1;");
    let _ = writeln!(out, "        end");
    let _ = writeln!(out, "        default: state <= S_IDLE;");
    let _ = writeln!(out, "      endcase");
    let _ = writeln!(out, "    end");
    let _ = writeln!(out, "  end");
    let _ = writeln!(out);
    let _ = writeln!(out, "endmodule");
    out
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, 'k');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::fsmd::{compile, HlsConfig};
    use crate::ir::{BinOp, CmpOp, Width};

    fn compiled() -> CompiledKernel {
        let mut b = KernelBuilder::new("vec add-1", 3);
        let entry = b.current_block();
        let header = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        let src = b.arg(0);
        let dst = b.arg(1);
        let n = b.arg(2);
        let zero = b.constant(0);
        b.jump(header);
        b.switch_to(header);
        let i = b.phi();
        let c = b.cmp(CmpOp::Lt, i, n);
        b.branch(c, body, exit);
        b.switch_to(body);
        let four = b.constant(4);
        let off = b.bin(BinOp::Mul, i, four);
        let sa = b.bin(BinOp::Add, src, off);
        let da = b.bin(BinOp::Add, dst, off);
        let v = b.load(sa, Width::W32);
        let one = b.constant(1);
        let v2 = b.bin(BinOp::Add, v, one);
        b.store(da, v2, Width::W32);
        let i2 = b.bin(BinOp::Add, i, one);
        b.jump(header);
        b.switch_to(exit);
        b.ret(None);
        b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
        compile(&b.finish().unwrap(), &HlsConfig::default())
    }

    #[test]
    fn module_structure() {
        let v = emit_verilog(&compiled());
        assert!(v.contains("module vec_add_1"));
        assert!(v.trim_end().ends_with("endmodule"));
        assert!(v.contains("S_IDLE"));
        assert!(v.contains("S_DONE"));
        assert!(v.contains("mem_req_valid"));
    }

    #[test]
    fn begin_end_balanced() {
        let v = emit_verilog(&compiled());
        let begins = v.split_whitespace().filter(|t| *t == "begin").count();
        let ends = v.split_whitespace().filter(|t| *t == "end").count();
        assert_eq!(begins, ends, "begin/end must balance");
    }

    #[test]
    fn one_state_per_schedule_cycle() {
        let ck = compiled();
        let v = emit_verilog(&ck);
        let expected: u32 = ck
            .kernel
            .block_ids()
            .map(|b| ck.schedules[b.0 as usize].length.max(1))
            .sum();
        let count = v.matches("localparam S_B").count() as u32;
        assert_eq!(count, expected);
    }

    #[test]
    fn deterministic_output() {
        let ck = compiled();
        assert_eq!(emit_verilog(&ck), emit_verilog(&ck));
    }

    #[test]
    fn sanitize_names() {
        assert_eq!(sanitize("3abc"), "k3abc");
        assert_eq!(sanitize("a b-c"), "a_b_c");
        assert_eq!(sanitize(""), "k");
    }

    #[test]
    fn memory_ops_emit_handshake() {
        let v = emit_verilog(&compiled());
        assert!(v.contains("issue load"));
        assert!(v.contains("issue store"));
        assert!(v.contains("mem_req_we <= 1'b1"));
        assert!(v.contains("mem_req_we <= 1'b0"));
    }
}
