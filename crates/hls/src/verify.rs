//! The IR verifier.
//!
//! Rejects malformed kernels before they reach the scheduler: dangling
//! value/block references, phis outside block headers, phi edges that do not
//! match the predecessors, uses that are not dominated by their definitions,
//! and unreachable blocks.

use crate::cfg::Cfg;
use crate::ir::{BlockId, Kernel, Op, Terminator, Value};

/// Why a kernel failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A block was never terminated (builder-level error).
    MissingTerminator {
        /// The offending block.
        block: BlockId,
    },
    /// A value operand names no instruction.
    DanglingValue {
        /// The offending reference.
        value: Value,
    },
    /// A block reference names no block.
    DanglingBlock {
        /// The offending reference.
        block: BlockId,
    },
    /// An argument index is out of range.
    BadArgIndex {
        /// The offending index.
        index: u16,
    },
    /// A value is used where a value-defining instruction is required, but
    /// the instruction (a store) defines none.
    UseOfNonValue {
        /// The offending reference.
        value: Value,
    },
    /// A phi appears after a non-phi instruction in its block.
    PhiNotAtBlockStart {
        /// The block.
        block: BlockId,
        /// The offending phi.
        value: Value,
    },
    /// A phi's incoming edges do not match the block's predecessors.
    PhiEdgesMismatch {
        /// The block.
        block: BlockId,
        /// The offending phi.
        value: Value,
    },
    /// A use is not dominated by its definition.
    UseNotDominated {
        /// The using block.
        block: BlockId,
        /// The used value.
        value: Value,
    },
    /// A block is unreachable from the entry.
    UnreachableBlock {
        /// The offending block.
        block: BlockId,
    },
    /// An instruction is listed in more than one block (arena corruption).
    InstructionReused {
        /// The offending instruction.
        value: Value,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::MissingTerminator { block } => write!(f, "{block} has no terminator"),
            VerifyError::DanglingValue { value } => write!(f, "{value} names no instruction"),
            VerifyError::DanglingBlock { block } => write!(f, "{block} names no block"),
            VerifyError::BadArgIndex { index } => write!(f, "argument {index} out of range"),
            VerifyError::UseOfNonValue { value } => {
                write!(f, "{value} does not define a value (store)")
            }
            VerifyError::PhiNotAtBlockStart { block, value } => {
                write!(f, "phi {value} is not at the start of {block}")
            }
            VerifyError::PhiEdgesMismatch { block, value } => {
                write!(f, "phi {value} edges do not match predecessors of {block}")
            }
            VerifyError::UseNotDominated { block, value } => {
                write!(
                    f,
                    "use of {value} in {block} is not dominated by its definition"
                )
            }
            VerifyError::UnreachableBlock { block } => write!(f, "{block} is unreachable"),
            VerifyError::InstructionReused { value } => {
                write!(f, "{value} appears in more than one block")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies structural and SSA well-formedness.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found; a `Ok(())` kernel is safe for
/// every later pass.
pub fn verify(kernel: &Kernel) -> Result<(), VerifyError> {
    let nvals = kernel.instrs.len() as u32;
    let nblocks = kernel.blocks.len() as u32;

    let check_val = |v: Value| {
        if v.0 >= nvals {
            Err(VerifyError::DanglingValue { value: v })
        } else if !kernel.instr(v).op.defines_value() {
            Err(VerifyError::UseOfNonValue { value: v })
        } else {
            Ok(())
        }
    };
    let check_block = |b: BlockId| {
        if b.0 >= nblocks {
            Err(VerifyError::DanglingBlock { block: b })
        } else {
            Ok(())
        }
    };

    // Terminator targets must be valid before the CFG can be built at all.
    for b in kernel.block_ids() {
        for s in kernel.block(b).term.successors() {
            check_block(s)?;
        }
    }

    // Each instruction may belong to exactly one block; build def-block map.
    let mut def_block: Vec<Option<BlockId>> = vec![None; nvals as usize];
    for b in kernel.block_ids() {
        for &v in &kernel.block(b).instrs {
            if v.0 >= nvals {
                return Err(VerifyError::DanglingValue { value: v });
            }
            if def_block[v.0 as usize].is_some() {
                return Err(VerifyError::InstructionReused { value: v });
            }
            def_block[v.0 as usize] = Some(b);
        }
    }

    let cfg = Cfg::new(kernel);
    for b in kernel.block_ids() {
        if !cfg.is_reachable(b) {
            return Err(VerifyError::UnreachableBlock { block: b });
        }
    }

    for b in kernel.block_ids() {
        let block = kernel.block(b);
        let mut seen_non_phi = false;
        for &v in &block.instrs {
            let instr = kernel.instr(v);
            match &instr.op {
                Op::Phi(incoming) => {
                    if seen_non_phi {
                        return Err(VerifyError::PhiNotAtBlockStart { block: b, value: v });
                    }
                    // Edge set must equal the predecessor set.
                    let mut from: Vec<BlockId> = incoming.iter().map(|(p, _)| *p).collect();
                    from.sort_unstable();
                    from.dedup();
                    let mut preds: Vec<BlockId> = cfg.preds(b).to_vec();
                    preds.sort_unstable();
                    preds.dedup();
                    if from != preds {
                        return Err(VerifyError::PhiEdgesMismatch { block: b, value: v });
                    }
                    for (p, pv) in incoming {
                        check_block(*p)?;
                        check_val(*pv)?;
                        // A phi operand must be dominated by its def at the
                        // *end of the predecessor*, i.e. def dominates pred.
                        let db = def_block[pv.0 as usize]
                            .ok_or(VerifyError::DanglingValue { value: *pv })?;
                        if !cfg.dominates(db, *p) {
                            return Err(VerifyError::UseNotDominated {
                                block: b,
                                value: *pv,
                            });
                        }
                    }
                }
                Op::Arg(n) => {
                    if *n >= kernel.num_args {
                        return Err(VerifyError::BadArgIndex { index: *n });
                    }
                    seen_non_phi = true;
                }
                op => {
                    seen_non_phi = true;
                    for u in op.operands() {
                        check_val(u)?;
                        let db = def_block[u.0 as usize]
                            .ok_or(VerifyError::DanglingValue { value: u })?;
                        // Same-block uses: def must come earlier in program
                        // order; cross-block: def block must dominate user.
                        if db == b {
                            let pos_def = block.instrs.iter().position(|&x| x == u);
                            let pos_use = block.instrs.iter().position(|&x| x == v);
                            if pos_def >= pos_use {
                                return Err(VerifyError::UseNotDominated { block: b, value: u });
                            }
                        } else if !cfg.dominates(db, b) {
                            return Err(VerifyError::UseNotDominated { block: b, value: u });
                        }
                    }
                }
            }
        }
        match &block.term {
            Terminator::Jump(t) => check_block(*t)?,
            Terminator::Branch {
                cond,
                then_to,
                else_to,
            } => {
                check_val(*cond)?;
                let db = def_block[cond.0 as usize]
                    .ok_or(VerifyError::DanglingValue { value: *cond })?;
                if db != b && !cfg.dominates(db, b) {
                    return Err(VerifyError::UseNotDominated {
                        block: b,
                        value: *cond,
                    });
                }
                check_block(*then_to)?;
                check_block(*else_to)?;
            }
            Terminator::Return(Some(v)) => {
                check_val(*v)?;
                let db = def_block[v.0 as usize].ok_or(VerifyError::DanglingValue { value: *v })?;
                if db != b && !cfg.dominates(db, b) {
                    return Err(VerifyError::UseNotDominated {
                        block: b,
                        value: *v,
                    });
                }
            }
            Terminator::Return(None) => {}
        }
    }

    // Instructions not attached to any block must not be referenced — they
    // are dead arena slots left by passes, which is fine.
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{BinOp, Block, Instr};

    fn k(instrs: Vec<Instr>, blocks: Vec<Block>) -> Kernel {
        Kernel {
            name: "t".into(),
            num_args: 1,
            instrs,
            blocks,
            entry: BlockId(0),
        }
    }

    #[test]
    fn dangling_value_rejected() {
        let kernel = k(
            vec![Instr {
                op: Op::Bin(BinOp::Add, Value(5), Value(6)),
            }],
            vec![Block {
                instrs: vec![Value(0)],
                term: Terminator::Return(None),
            }],
        );
        assert!(matches!(
            verify(&kernel),
            Err(VerifyError::DanglingValue { .. })
        ));
    }

    #[test]
    fn use_before_def_rejected() {
        let kernel = k(
            vec![
                Instr {
                    op: Op::Bin(BinOp::Add, Value(1), Value(1)),
                },
                Instr { op: Op::Const(1) },
            ],
            vec![Block {
                instrs: vec![Value(0), Value(1)], // add uses const defined after it
                term: Terminator::Return(None),
            }],
        );
        assert!(matches!(
            verify(&kernel),
            Err(VerifyError::UseNotDominated { .. })
        ));
    }

    #[test]
    fn store_result_cannot_be_used() {
        let kernel = k(
            vec![
                Instr { op: Op::Const(0) },
                Instr {
                    op: Op::Store {
                        addr: Value(0),
                        value: Value(0),
                        width: crate::ir::Width::W32,
                    },
                },
                Instr {
                    op: Op::Bin(BinOp::Add, Value(1), Value(0)),
                },
            ],
            vec![Block {
                instrs: vec![Value(0), Value(1), Value(2)],
                term: Terminator::Return(None),
            }],
        );
        assert!(matches!(
            verify(&kernel),
            Err(VerifyError::UseOfNonValue { .. })
        ));
    }

    #[test]
    fn unreachable_block_rejected() {
        let kernel = k(
            vec![],
            vec![
                Block {
                    instrs: vec![],
                    term: Terminator::Return(None),
                },
                Block {
                    instrs: vec![],
                    term: Terminator::Return(None),
                },
            ],
        );
        assert!(matches!(
            verify(&kernel),
            Err(VerifyError::UnreachableBlock { .. })
        ));
    }

    #[test]
    fn bad_arg_index_rejected() {
        let kernel = k(
            vec![Instr { op: Op::Arg(7) }],
            vec![Block {
                instrs: vec![Value(0)],
                term: Terminator::Return(None),
            }],
        );
        assert!(matches!(
            verify(&kernel),
            Err(VerifyError::BadArgIndex { index: 7 })
        ));
    }

    #[test]
    fn phi_in_entry_with_no_preds_must_be_empty() {
        // A phi with edges in a block with no predecessors mismatches.
        let kernel = k(
            vec![
                Instr { op: Op::Const(0) },
                Instr {
                    op: Op::Phi(vec![(BlockId(0), Value(0))]),
                },
            ],
            vec![Block {
                instrs: vec![Value(0), Value(1)],
                term: Terminator::Return(None),
            }],
        );
        // Phi is also after a non-phi, either error is acceptable; check it fails.
        assert!(verify(&kernel).is_err());
    }

    #[test]
    fn dangling_jump_target_rejected() {
        let kernel = k(
            vec![],
            vec![Block {
                instrs: vec![],
                term: Terminator::Jump(BlockId(9)),
            }],
        );
        assert!(matches!(
            verify(&kernel),
            Err(VerifyError::DanglingBlock { .. })
        ));
    }

    #[test]
    fn errors_render() {
        let e = VerifyError::UseNotDominated {
            block: BlockId(1),
            value: Value(2),
        };
        assert!(e.to_string().contains("dominated"));
    }
}
