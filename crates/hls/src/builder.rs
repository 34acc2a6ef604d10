//! The kernel builder: the ergonomic way to construct IR.
//!
//! The builder keeps a current insertion block, hands out [`Value`]s, and
//! runs the [verifier](mod@crate::verify) when finished so malformed kernels
//! are rejected at construction time rather than deep inside the scheduler.

use crate::ir::{BinOp, Block, BlockId, CmpOp, Instr, Kernel, Op, Terminator, Value, Width};
use crate::verify::{verify, VerifyError};

/// Incrementally builds a [`Kernel`].
///
/// # Example
///
/// Build `sum(base, n)`: loop over an `i32` array accumulating into a scalar.
///
/// ```
/// use svmsyn_hls::builder::KernelBuilder;
/// use svmsyn_hls::ir::{BinOp, CmpOp, Width};
///
/// let mut b = KernelBuilder::new("sum", 2);
/// let entry = b.current_block();
/// let header = b.new_block();
/// let body = b.new_block();
/// let exit = b.new_block();
///
/// let base = b.arg(0);
/// let n = b.arg(1);
/// let zero = b.constant(0);
/// let four = b.constant(4);
/// b.jump(header);
///
/// b.switch_to(header);
/// let i = b.phi();
/// let acc = b.phi();
/// let cont = b.cmp(CmpOp::Lt, i, n);
/// b.branch(cont, body, exit);
///
/// b.switch_to(body);
/// let off = b.bin(BinOp::Mul, i, four);
/// let addr = b.bin(BinOp::Add, base, off);
/// let elem = b.load(addr, Width::W32);
/// let acc2 = b.bin(BinOp::Add, acc, elem);
/// let one = b.constant(1);
/// let i2 = b.bin(BinOp::Add, i, one);
/// b.jump(header);
///
/// b.switch_to(exit);
/// b.ret(Some(acc));
///
/// b.set_phi_incoming(i, &[(entry, zero), (body, i2)]);
/// b.set_phi_incoming(acc, &[(entry, zero), (body, acc2)]);
/// let kernel = b.finish().unwrap();
/// assert_eq!(kernel.num_args, 2);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    num_args: u16,
    instrs: Vec<Instr>,
    blocks: Vec<(Vec<Value>, Option<Terminator>)>,
    current: BlockId,
}

impl KernelBuilder {
    /// Starts a kernel with `num_args` launch arguments; the entry block is
    /// created and selected.
    pub fn new(name: impl Into<String>, num_args: u16) -> Self {
        KernelBuilder {
            name: name.into(),
            num_args,
            instrs: Vec::new(),
            blocks: vec![(Vec::new(), None)],
            current: BlockId(0),
        }
    }

    /// The block instructions are currently appended to.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Creates a new, empty block (does not switch to it).
    pub fn new_block(&mut self) -> BlockId {
        self.blocks.push((Vec::new(), None));
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Makes `block` the insertion point.
    ///
    /// # Panics
    ///
    /// Panics if `block` is unknown or already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        let b = &self.blocks[block.0 as usize];
        assert!(b.1.is_none(), "{block} is already terminated");
        self.current = block;
    }

    fn push(&mut self, op: Op) -> Value {
        let v = Value(self.instrs.len() as u32);
        self.instrs.push(Instr { op });
        self.blocks[self.current.0 as usize].0.push(v);
        v
    }

    /// Emits a constant.
    pub fn constant(&mut self, c: i64) -> Value {
        self.push(Op::Const(c))
    }

    /// References launch argument `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the declared argument count.
    pub fn arg(&mut self, n: u16) -> Value {
        assert!(n < self.num_args, "argument {n} out of range");
        self.push(Op::Arg(n))
    }

    /// Emits a binary operation.
    pub fn bin(&mut self, op: BinOp, a: Value, b: Value) -> Value {
        self.push(Op::Bin(op, a, b))
    }

    /// Emits a comparison.
    pub fn cmp(&mut self, op: CmpOp, a: Value, b: Value) -> Value {
        self.push(Op::Cmp(op, a, b))
    }

    /// Emits a select (`cond != 0 ? a : b`).
    pub fn select(&mut self, cond: Value, a: Value, b: Value) -> Value {
        self.push(Op::Select(cond, a, b))
    }

    /// Emits a load.
    pub fn load(&mut self, addr: Value, width: Width) -> Value {
        self.push(Op::Load { addr, width })
    }

    /// Emits a store.
    pub fn store(&mut self, addr: Value, value: Value, width: Width) {
        self.push(Op::Store { addr, value, width });
    }

    /// Emits an empty phi whose incoming edges are provided later via
    /// [`set_phi_incoming`](Self::set_phi_incoming) (loop-carried values are
    /// only known after the latch is built).
    pub fn phi(&mut self) -> Value {
        self.push(Op::Phi(Vec::new()))
    }

    /// Fills in a phi's incoming `(predecessor, value)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `phi` does not name a phi instruction.
    pub fn set_phi_incoming(&mut self, phi: Value, incoming: &[(BlockId, Value)]) {
        match &mut self.instrs[phi.0 as usize].op {
            Op::Phi(inc) => *inc = incoming.to_vec(),
            other => panic!("{phi} is not a phi (found {other:?})"),
        }
    }

    fn terminate(&mut self, t: Terminator) {
        let b = &mut self.blocks[self.current.0 as usize];
        assert!(b.1.is_none(), "block already terminated");
        b.1 = Some(t);
    }

    /// Terminates the current block with an unconditional jump.
    pub fn jump(&mut self, to: BlockId) {
        self.terminate(Terminator::Jump(to));
    }

    /// Terminates the current block with a conditional branch.
    pub fn branch(&mut self, cond: Value, then_to: BlockId, else_to: BlockId) {
        self.terminate(Terminator::Branch {
            cond,
            then_to,
            else_to,
        });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, value: Option<Value>) {
        self.terminate(Terminator::Return(value));
    }

    /// Finishes and verifies the kernel.
    ///
    /// # Errors
    ///
    /// Returns a [`VerifyError`] if any block lacks a terminator or the IR
    /// violates SSA/structural rules.
    pub fn finish(self) -> Result<Kernel, VerifyError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (i, (instrs, term)) in self.blocks.into_iter().enumerate() {
            let term = term.ok_or(VerifyError::MissingTerminator {
                block: BlockId(i as u32),
            })?;
            blocks.push(Block { instrs, term });
        }
        let kernel = Kernel {
            name: self.name,
            num_args: self.num_args,
            instrs: self.instrs,
            blocks,
            entry: BlockId(0),
        };
        verify(&kernel)?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_kernel() {
        let mut b = KernelBuilder::new("k", 2);
        let x = b.arg(0);
        let y = b.arg(1);
        let s = b.bin(BinOp::Add, x, y);
        b.ret(Some(s));
        let k = b.finish().unwrap();
        assert_eq!(k.blocks.len(), 1);
        assert_eq!(k.len(), 3);
        assert!(!k.is_empty());
        assert!(k.to_string().contains("kernel k"));
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let mut b = KernelBuilder::new("k", 0);
        b.constant(1);
        let err = b.finish().unwrap_err();
        assert!(matches!(err, VerifyError::MissingTerminator { .. }));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arg_out_of_range_panics() {
        let mut b = KernelBuilder::new("k", 1);
        b.arg(1);
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut b = KernelBuilder::new("k", 0);
        b.ret(None);
        b.ret(None);
    }

    #[test]
    #[should_panic(expected = "is not a phi")]
    fn set_incoming_on_non_phi_panics() {
        let mut b = KernelBuilder::new("k", 0);
        let c = b.constant(0);
        b.set_phi_incoming(c, &[]);
    }

    #[test]
    fn branchy_kernel_builds() {
        let mut b = KernelBuilder::new("abs", 1);
        let neg = b.new_block();
        let join = b.new_block();
        let x = b.arg(0);
        let zero = b.constant(0);
        let isneg = b.cmp(CmpOp::Lt, x, zero);
        b.branch(isneg, neg, join);
        b.switch_to(neg);
        let negx = b.bin(BinOp::Sub, zero, x);
        b.jump(join);
        b.switch_to(join);
        let r = b.phi();
        b.ret(Some(r));
        b.set_phi_incoming(r, &[(BlockId(0), x), (neg, negx)]);
        let k = b.finish().unwrap();
        assert_eq!(k.blocks.len(), 3);
    }

    #[test]
    fn store_and_select() {
        let mut b = KernelBuilder::new("k", 2);
        let p = b.arg(0);
        let x = b.arg(1);
        let zero = b.constant(0);
        let c = b.cmp(CmpOp::Gt, x, zero);
        let v = b.select(c, x, zero);
        b.store(p, v, Width::W32);
        b.ret(None);
        let k = b.finish().unwrap();
        assert_eq!(k.block(BlockId(0)).instrs.len(), 6);
    }
}
