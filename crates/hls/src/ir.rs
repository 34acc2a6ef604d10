//! The kernel intermediate representation.
//!
//! Kernels are small SSA functions: a flat arena of instructions, partitioned
//! into basic blocks, each ending in exactly one terminator. Every
//! instruction defines at most one 64-bit value named by its arena index
//! ([`Value`]). Memory is reached only through [`Op::Load`]/[`Op::Store`]
//! with explicit access widths — there are no local arrays, because a
//! virtual-memory hardware thread keeps *all* data in the shared address
//! space (that is the paper's point).

use std::fmt;

/// An SSA value: the index of the instruction that defines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(pub u32);

/// A basic-block identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// 1 byte.
    W8,
    /// 2 bytes.
    W16,
    /// 4 bytes.
    W32,
    /// 8 bytes.
    W64,
}

impl Width {
    /// Access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
        }
    }

    /// Sign-extends a raw little-endian load of this width to `i64`.
    pub fn sign_extend(self, raw: u64) -> i64 {
        match self {
            Width::W8 => raw as u8 as i8 as i64,
            Width::W16 => raw as u16 as i16 as i64,
            Width::W32 => raw as u32 as i32 as i64,
            Width::W64 => raw as i64,
        }
    }

    /// Truncates a value to this width for storing.
    pub fn truncate(self, v: i64) -> u64 {
        match self {
            Width::W8 => v as u64 & 0xFF,
            Width::W16 => v as u64 & 0xFFFF,
            Width::W32 => v as u64 & 0xFFFF_FFFF,
            Width::W64 => v as u64,
        }
    }
}

impl svmsyn_snap::Snap for BlockId {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_u32(self.0);
    }

    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(BlockId(r.take_u32()?))
    }
}

impl svmsyn_snap::Snap for OpClass {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_u8(match self {
            OpClass::Free => 0,
            OpClass::Alu => 1,
            OpClass::Mul => 2,
            OpClass::Div => 3,
            OpClass::Mem => 4,
        });
    }

    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(match r.take_u8()? {
            0 => OpClass::Free,
            1 => OpClass::Alu,
            2 => OpClass::Mul,
            3 => OpClass::Div,
            4 => OpClass::Mem,
            _ => return Err(svmsyn_snap::SnapError::Corrupt("op-class tag")),
        })
    }
}

impl svmsyn_snap::Snap for Width {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_u8(match self {
            Width::W8 => 0,
            Width::W16 => 1,
            Width::W32 => 2,
            Width::W64 => 3,
        });
    }

    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(match r.take_u8()? {
            0 => Width::W8,
            1 => Width::W16,
            2 => Width::W32,
            3 => Width::W64,
            _ => return Err(svmsyn_snap::SnapError::Corrupt("access-width tag")),
        })
    }
}

/// Two-operand arithmetic/logic operations (64-bit two's complement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Signed division; division by zero yields 0 (hardware convention).
    Div,
    /// Signed remainder; remainder by zero yields 0.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (by `rhs & 63`).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sra,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
}

impl BinOp {
    /// Applies the operation with the IR's defined semantics.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::Div => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_div(b)
                }
            }
            BinOp::Rem => {
                if b == 0 {
                    0
                } else {
                    a.wrapping_rem(b)
                }
            }
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => ((a as u64) << (b as u64 & 63)) as i64,
            BinOp::Shr => ((a as u64) >> (b as u64 & 63)) as i64,
            BinOp::Sra => a >> (b as u64 & 63),
            BinOp::Min => a.min(b),
            BinOp::Max => a.max(b),
        }
    }

    /// Whether the operation is commutative (used by CSE canonicalization).
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Min | BinOp::Max
        )
    }
}

/// Comparison operations producing 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned less-or-equal.
    Ule,
}

impl CmpOp {
    /// Applies the comparison.
    pub fn eval(self, a: i64, b: i64) -> i64 {
        let r = match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Ult => (a as u64) < (b as u64),
            CmpOp::Ule => (a as u64) <= (b as u64),
        };
        r as i64
    }
}

/// The functional-unit class an operation occupies, used by the scheduler,
/// the binder and the CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// Free: constants, arguments, phis (wires/registers).
    Free,
    /// Single-cycle ALU (add/sub/logic/compare/select/shift/min/max).
    Alu,
    /// Pipelined multiplier.
    Mul,
    /// Iterative divider.
    Div,
    /// Memory port operation (load/store).
    Mem,
}

/// An instruction's operation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// A 64-bit constant.
    Const(i64),
    /// The `n`-th kernel argument (scalar or pointer, provided at launch).
    Arg(u16),
    /// Two-operand ALU/multiplier/divider operation.
    Bin(BinOp, Value, Value),
    /// Comparison producing 0/1.
    Cmp(CmpOp, Value, Value),
    /// `cond != 0 ? a : b`.
    Select(Value, Value, Value),
    /// Memory load from a virtual address.
    Load {
        /// Address operand.
        addr: Value,
        /// Access width.
        width: Width,
    },
    /// Memory store to a virtual address. Defines no value.
    Store {
        /// Address operand.
        addr: Value,
        /// Value operand.
        value: Value,
        /// Access width.
        width: Width,
    },
    /// SSA phi: one `(predecessor, value)` pair per incoming edge.
    Phi(Vec<(BlockId, Value)>),
}

impl Op {
    /// The functional-unit class this operation occupies.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Const(_) | Op::Arg(_) | Op::Phi(_) => OpClass::Free,
            Op::Bin(BinOp::Mul, _, _) => OpClass::Mul,
            Op::Bin(BinOp::Div, _, _) | Op::Bin(BinOp::Rem, _, _) => OpClass::Div,
            Op::Bin(..) | Op::Cmp(..) | Op::Select(..) => OpClass::Alu,
            Op::Load { .. } | Op::Store { .. } => OpClass::Mem,
        }
    }

    /// Whether the instruction defines an SSA value.
    pub fn defines_value(&self) -> bool {
        !matches!(self, Op::Store { .. })
    }

    /// Whether the instruction touches memory.
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// Iterates over the value operands (phi operands included).
    pub fn operands(&self) -> Vec<Value> {
        let mut out = Vec::new();
        self.for_each_operand(|v| out.push(v));
        out
    }

    /// Calls `f` on each value operand, in [`operands`](Self::operands)
    /// order, without allocating.
    pub(crate) fn for_each_operand(&self, mut f: impl FnMut(Value)) {
        match self {
            Op::Const(_) | Op::Arg(_) => {}
            Op::Bin(_, a, b) | Op::Cmp(_, a, b) => {
                f(*a);
                f(*b);
            }
            Op::Select(c, a, b) => {
                f(*c);
                f(*a);
                f(*b);
            }
            Op::Load { addr, .. } => f(*addr),
            Op::Store { addr, value, .. } => {
                f(*addr);
                f(*value);
            }
            Op::Phi(inc) => inc.iter().for_each(|(_, v)| f(*v)),
        }
    }
}

/// A basic block's terminator.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way branch on `cond != 0`.
    Branch {
        /// Condition value.
        cond: Value,
        /// Target when the condition is non-zero.
        then_to: BlockId,
        /// Target when the condition is zero.
        else_to: BlockId,
    },
    /// Kernel return with an optional result value.
    Return(Option<Value>),
}

impl Terminator {
    /// The blocks this terminator can transfer to.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(b) => vec![*b],
            Terminator::Branch {
                then_to, else_to, ..
            } => vec![*then_to, *else_to],
            Terminator::Return(_) => vec![],
        }
    }
}

/// One instruction in the arena.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instr {
    /// The operation.
    pub op: Op,
}

/// A basic block: instruction ids in program order plus a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Instruction ids in program order (phis first).
    pub instrs: Vec<Value>,
    /// The block terminator.
    pub term: Terminator,
}

/// A kernel: the unit HLS compiles into one hardware thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Kernel name (used in reports and emitted RTL).
    pub name: String,
    /// Number of launch arguments.
    pub num_args: u16,
    /// The instruction arena; [`Value`]`(i)` names `instrs[i]`'s result.
    pub instrs: Vec<Instr>,
    /// Basic blocks; `BlockId(i)` names `blocks[i]`.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
}

impl Kernel {
    /// The instruction defining `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn instr(&self, v: Value) -> &Instr {
        &self.instrs[v.0 as usize]
    }

    /// The block named by `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Iterates over all block ids.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Total instruction count (including unreferenced/dead entries).
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the kernel has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Writes a canonical binary encoding of the kernel into `w`.
    ///
    /// Every field that affects synthesis or execution is encoded with fixed
    /// tags and little-endian scalars — the bytes are a pure function of the
    /// kernel's content, so two processes that build the same kernel produce
    /// identical encodings. This is what content-addressed store keys hash;
    /// there is no matching decoder because the store never needs to
    /// reconstruct a kernel from its key.
    pub fn encode_canonical(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_str(&self.name);
        w.put_u16(self.num_args);
        w.put_usize(self.instrs.len());
        for instr in &self.instrs {
            encode_op(&instr.op, w);
        }
        w.put_usize(self.blocks.len());
        for block in &self.blocks {
            w.put_usize(block.instrs.len());
            for v in &block.instrs {
                w.put_u32(v.0);
            }
            encode_terminator(&block.term, w);
        }
        w.put_u32(self.entry.0);
    }
}

fn encode_op(op: &Op, w: &mut svmsyn_snap::SnapWriter) {
    match op {
        Op::Const(v) => {
            w.put_u8(0);
            w.put_i64(*v);
        }
        Op::Arg(n) => {
            w.put_u8(1);
            w.put_u16(*n);
        }
        Op::Bin(op, a, b) => {
            w.put_u8(2);
            w.put_u8(binop_tag(*op));
            w.put_u32(a.0);
            w.put_u32(b.0);
        }
        Op::Cmp(op, a, b) => {
            w.put_u8(3);
            w.put_u8(cmpop_tag(*op));
            w.put_u32(a.0);
            w.put_u32(b.0);
        }
        Op::Select(c, a, b) => {
            w.put_u8(4);
            w.put_u32(c.0);
            w.put_u32(a.0);
            w.put_u32(b.0);
        }
        Op::Load { addr, width } => {
            w.put_u8(5);
            w.put_u32(addr.0);
            svmsyn_snap::Snap::save(width, w);
        }
        Op::Store { addr, value, width } => {
            w.put_u8(6);
            w.put_u32(addr.0);
            w.put_u32(value.0);
            svmsyn_snap::Snap::save(width, w);
        }
        Op::Phi(incoming) => {
            w.put_u8(7);
            w.put_usize(incoming.len());
            for (block, v) in incoming {
                w.put_u32(block.0);
                w.put_u32(v.0);
            }
        }
    }
}

fn encode_terminator(term: &Terminator, w: &mut svmsyn_snap::SnapWriter) {
    match term {
        Terminator::Jump(b) => {
            w.put_u8(0);
            w.put_u32(b.0);
        }
        Terminator::Branch {
            cond,
            then_to,
            else_to,
        } => {
            w.put_u8(1);
            w.put_u32(cond.0);
            w.put_u32(then_to.0);
            w.put_u32(else_to.0);
        }
        Terminator::Return(v) => {
            w.put_u8(2);
            match v {
                Some(v) => {
                    w.put_u8(1);
                    w.put_u32(v.0);
                }
                None => w.put_u8(0),
            }
        }
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Rem => 4,
        BinOp::And => 5,
        BinOp::Or => 6,
        BinOp::Xor => 7,
        BinOp::Shl => 8,
        BinOp::Shr => 9,
        BinOp::Sra => 10,
        BinOp::Min => 11,
        BinOp::Max => 12,
    }
}

fn cmpop_tag(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Lt => 2,
        CmpOp::Le => 3,
        CmpOp::Gt => 4,
        CmpOp::Ge => 5,
        CmpOp::Ult => 6,
        CmpOp::Ule => 7,
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "kernel {}({} args) {{", self.name, self.num_args)?;
        for b in self.block_ids() {
            writeln!(f, "{b}:")?;
            let block = self.block(b);
            for &v in &block.instrs {
                let instr = self.instr(v);
                match &instr.op {
                    Op::Store { addr, value, width } => {
                        writeln!(f, "  store.{} {value} -> [{addr}]", width.bytes() * 8)?
                    }
                    Op::Load { addr, width } => {
                        writeln!(f, "  {v} = load.{} [{addr}]", width.bytes() * 8)?
                    }
                    op => writeln!(f, "  {v} = {op:?}")?,
                }
            }
            match &block.term {
                Terminator::Jump(t) => writeln!(f, "  jump {t}")?,
                Terminator::Branch {
                    cond,
                    then_to,
                    else_to,
                } => writeln!(f, "  br {cond} ? {then_to} : {else_to}")?,
                Terminator::Return(Some(v)) => writeln!(f, "  ret {v}")?,
                Terminator::Return(None) => writeln!(f, "  ret")?,
            }
        }
        writeln!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_codec() {
        assert_eq!(Width::W8.bytes(), 1);
        assert_eq!(Width::W64.bytes(), 8);
        assert_eq!(Width::W8.sign_extend(0xFF), -1);
        assert_eq!(Width::W16.sign_extend(0x7FFF), 32767);
        assert_eq!(Width::W32.sign_extend(0x8000_0000), i32::MIN as i64);
        assert_eq!(Width::W8.truncate(-1), 0xFF);
        assert_eq!(Width::W32.truncate(-1), 0xFFFF_FFFF);
    }

    #[test]
    fn binop_semantics() {
        assert_eq!(BinOp::Add.eval(i64::MAX, 1), i64::MIN); // wrapping
        assert_eq!(BinOp::Div.eval(7, 2), 3);
        assert_eq!(BinOp::Div.eval(7, 0), 0); // defined, no panic
        assert_eq!(BinOp::Rem.eval(7, 0), 0);
        assert_eq!(BinOp::Shl.eval(1, 65), 2); // shift masked to 6 bits
        assert_eq!(BinOp::Sra.eval(-8, 1), -4);
        assert_eq!(BinOp::Shr.eval(-8, 1), ((-8i64) as u64 >> 1) as i64);
        assert_eq!(BinOp::Min.eval(-3, 5), -3);
        assert_eq!(BinOp::Max.eval(-3, 5), 5);
    }

    #[test]
    fn cmp_semantics() {
        assert_eq!(CmpOp::Lt.eval(-1, 0), 1);
        assert_eq!(CmpOp::Ult.eval(-1, 0), 0); // -1 is huge unsigned
        assert_eq!(CmpOp::Eq.eval(4, 4), 1);
        assert_eq!(CmpOp::Ne.eval(4, 4), 0);
        assert_eq!(CmpOp::Ge.eval(4, 4), 1);
        assert_eq!(CmpOp::Ule.eval(3, 3), 1);
        assert_eq!(CmpOp::Gt.eval(5, 4), 1);
        assert_eq!(CmpOp::Le.eval(5, 4), 0);
    }

    #[test]
    fn op_classes() {
        assert_eq!(Op::Const(1).class(), OpClass::Free);
        assert_eq!(Op::Arg(0).class(), OpClass::Free);
        assert_eq!(
            Op::Bin(BinOp::Add, Value(0), Value(1)).class(),
            OpClass::Alu
        );
        assert_eq!(
            Op::Bin(BinOp::Mul, Value(0), Value(1)).class(),
            OpClass::Mul
        );
        assert_eq!(
            Op::Bin(BinOp::Rem, Value(0), Value(1)).class(),
            OpClass::Div
        );
        assert_eq!(
            Op::Load {
                addr: Value(0),
                width: Width::W32
            }
            .class(),
            OpClass::Mem
        );
    }

    #[test]
    fn operands_and_defines() {
        let store = Op::Store {
            addr: Value(0),
            value: Value(1),
            width: Width::W32,
        };
        assert!(!store.defines_value());
        assert!(store.is_mem());
        assert_eq!(store.operands(), vec![Value(0), Value(1)]);
        let phi = Op::Phi(vec![(BlockId(0), Value(2)), (BlockId(1), Value(3))]);
        assert_eq!(phi.operands(), vec![Value(2), Value(3)]);
        assert!(phi.defines_value());
        let sel = Op::Select(Value(0), Value(1), Value(2));
        assert_eq!(sel.operands().len(), 3);
    }

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Jump(BlockId(3)).successors(), vec![BlockId(3)]);
        assert_eq!(Terminator::Return(None).successors(), vec![]);
        let br = Terminator::Branch {
            cond: Value(0),
            then_to: BlockId(1),
            else_to: BlockId(2),
        };
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
    }

    #[test]
    fn commutativity() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Shl.is_commutative());
        assert!(BinOp::Xor.is_commutative());
    }
}
