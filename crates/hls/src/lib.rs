//! # svmsyn-hls — the high-level synthesis core
//!
//! A from-scratch HLS pipeline sized for the reproduction: kernels are small
//! SSA functions ([`ir`]), built with [`builder::KernelBuilder`], verified
//! ([`verify`](mod@verify)), optimized ([`opt`]), scheduled per block
//! ([`sched`]) with modulo-scheduled loop pipelining ([`pipeline`]), bound
//! to functional units and registers ([`bind`]), estimated in fabric
//! resources and Fmax ([`resource`]), and packaged as a
//! [`fsmd::CompiledKernel`] for the execution engine.
//! [`verilog::emit_verilog`] renders the FSMD as RTL text.
//!
//! Functional semantics come from one place — the resumable interpreter in
//! [`interp`] — which both the software (CPU) and hardware (FSMD) execution
//! models drive, so a kernel computes identical bytes on either side.
//!
//! # Example
//!
//! ```
//! use svmsyn_hls::builder::KernelBuilder;
//! use svmsyn_hls::fsmd::{compile, HlsConfig};
//! use svmsyn_hls::interp::{run, SliceMemory};
//! use svmsyn_hls::ir::BinOp;
//!
//! // (x + y) * x
//! let mut b = KernelBuilder::new("poly", 2);
//! let x = b.arg(0);
//! let y = b.arg(1);
//! let s = b.bin(BinOp::Add, x, y);
//! let p = b.bin(BinOp::Mul, s, x);
//! b.ret(Some(p));
//! let kernel = b.finish().unwrap();
//!
//! // Functional result...
//! let mut none = [0u8; 0];
//! assert_eq!(run(&kernel, &[3, 4], &mut SliceMemory(&mut none), 100).ret, Some(21));
//!
//! // ...and hardware estimates from the same kernel.
//! let compiled = compile(&kernel, &HlsConfig::default());
//! assert!(compiled.states >= 1);
//! assert!(compiled.resources.dsp > 0);
//! ```

pub mod bind;
pub mod builder;
pub mod cfg;
pub mod decode;
pub mod fsmd;
pub mod interp;
pub mod ir;
pub mod opt;
pub mod pipeline;
pub mod resource;
pub mod sched;
pub mod verify;
pub mod verilog;

pub use builder::KernelBuilder;
pub use decode::DecodedKernel;
pub use fsmd::{compile, CompiledKernel, HlsConfig};
pub use interp::{DataPort, Interp, InterpEvent, RunSummary, SliceMemory};
pub use ir::{BinOp, Block, BlockId, CmpOp, Instr, Kernel, Op, OpClass, Terminator, Value, Width};
pub use resource::{BindingReport, FuBudget};
pub use verify::{verify, VerifyError};
