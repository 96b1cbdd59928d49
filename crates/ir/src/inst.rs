//! Instructions of the register machine.

use crate::function::BlockId;
use crate::reg::Reg;
use std::fmt;

/// Binary ALU operations (the RV32IM arithmetic/logic subset).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AluOp {
    /// Addition (`add`/`addi`).
    Add,
    /// Subtraction (`sub`).
    Sub,
    /// Bitwise and (`and`/`andi`).
    And,
    /// Bitwise or (`or`/`ori`).
    Or,
    /// Bitwise exclusive or (`xor`/`xori`).
    Xor,
    /// Logical shift left (`sll`/`slli`).
    Sll,
    /// Logical shift right (`srl`/`srli`).
    Srl,
    /// Arithmetic shift right (`sra`/`srai`).
    Sra,
    /// Signed set-less-than (`slt`/`slti`).
    Slt,
    /// Unsigned set-less-than (`sltu`/`sltiu`).
    Sltu,
    /// Multiplication, low word (`mul`).
    Mul,
    /// Signed×signed multiplication, high word (`mulh`).
    Mulh,
    /// Unsigned multiplication, high word (`mulhu`).
    Mulhu,
    /// Signed division (`div`).
    Div,
    /// Unsigned division (`divu`).
    Divu,
    /// Signed remainder (`rem`).
    Rem,
    /// Unsigned remainder (`remu`).
    Remu,
}

impl AluOp {
    /// Whether the operation has an immediate form in the assembly syntax
    /// (`addi`, `andi`, …). `sub`, multiplication and division do not.
    pub fn has_imm_form(self) -> bool {
        use AluOp::*;
        matches!(self, Add | And | Or | Xor | Sll | Srl | Sra | Slt | Sltu)
    }

    /// The assembly mnemonic of the register-register form.
    pub fn mnemonic(self) -> &'static str {
        use AluOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            Slt => "slt",
            Sltu => "sltu",
            Mul => "mul",
            Mulh => "mulh",
            Mulhu => "mulhu",
            Div => "div",
            Divu => "divu",
            Rem => "rem",
            Remu => "remu",
        }
    }
}

/// Memory access width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte (`lb`/`lbu`/`sb`).
    Byte,
    /// Two bytes (`lh`/`lhu`/`sh`).
    Half,
    /// Four bytes (`lw`/`sw`).
    Word,
}

impl MemWidth {
    /// The access size in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// Branch conditions (`beq`, `bne`, `blt`, `bge`, `bltu`, `bgeu`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// The branch mnemonic (`beq`, `bne`, …).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        }
    }
}

/// A non-terminator instruction.
///
/// Every variant is a *program point* in the paper's sense: it has a read
/// set, a write set, and bit-level semantics that the analysis abstracts.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Three-address ALU operation `op rd, rs1, rs2`.
    Alu { op: AluOp, rd: Reg, rs1: Reg, rs2: Reg },
    /// ALU operation with immediate `op rd, rs1, imm`.
    AluImm { op: AluOp, rd: Reg, rs1: Reg, imm: i64 },
    /// Load immediate `li rd, imm`.
    Li { rd: Reg, imm: i64 },
    /// Load the address of a global `la rd, @name` (resolved at link time).
    La { rd: Reg, global: String },
    /// Register move `mv rd, rs`.
    Mv { rd: Reg, rs: Reg },
    /// Arithmetic negation `neg rd, rs` (i.e. `0 - rs`).
    Neg { rd: Reg, rs: Reg },
    /// Set-if-zero `seqz rd, rs` (`rd := (rs == 0) ? 1 : 0`).
    Seqz { rd: Reg, rs: Reg },
    /// Set-if-nonzero `snez rd, rs` (`rd := (rs != 0) ? 1 : 0`).
    Snez { rd: Reg, rs: Reg },
    /// Memory load `rd := mem[rs1 + offset]`.
    Load { rd: Reg, base: Reg, offset: i64, width: MemWidth, signed: bool },
    /// Memory store `mem[base + offset] := rs`.
    Store { rs: Reg, base: Reg, offset: i64, width: MemWidth },
    /// Call of another function by name. Argument/return registers follow
    /// the callee's signature; caller-saved registers are clobbered.
    Call { callee: String },
    /// Observable output of one register value (the simulator records it in
    /// the execution trace; a stand-in for an output `ecall`).
    Print { rs: Reg },
    /// No operation (used by the scheduler's padding tests).
    Nop,
}

impl Inst {
    /// Registers read by this instruction. The hardwired zero register is
    /// still reported here; callers that build fault spaces filter it.
    ///
    /// For `Call`, the reads are the callee's argument registers and must be
    /// obtained through [`crate::function::Signature`]-aware helpers on
    /// [`crate::program::Program`]; this method reports an empty set for
    /// calls.
    pub fn reads(&self) -> Vec<Reg> {
        match self {
            Inst::Alu { rs1, rs2, .. } => vec![*rs1, *rs2],
            Inst::AluImm { rs1, .. } => vec![*rs1],
            Inst::Li { .. } | Inst::La { .. } | Inst::Nop | Inst::Call { .. } => vec![],
            Inst::Mv { rs, .. }
            | Inst::Neg { rs, .. }
            | Inst::Seqz { rs, .. }
            | Inst::Snez { rs, .. } => vec![*rs],
            Inst::Load { base, .. } => vec![*base],
            Inst::Store { rs, base, .. } => vec![*rs, *base],
            Inst::Print { rs } => vec![*rs],
        }
    }

    /// Registers written by this instruction (empty for stores, prints and
    /// nops; call write sets are signature-dependent, see
    /// [`crate::program::Program::call_effects`]).
    pub fn writes(&self) -> Vec<Reg> {
        match self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Li { rd, .. }
            | Inst::La { rd, .. }
            | Inst::Mv { rd, .. }
            | Inst::Neg { rd, .. }
            | Inst::Seqz { rd, .. }
            | Inst::Snez { rd, .. }
            | Inst::Load { rd, .. } => vec![*rd],
            Inst::Store { .. } | Inst::Call { .. } | Inst::Print { rs: _ } | Inst::Nop => vec![],
        }
    }

    /// Rewrites every register operand through `f` (used by the register
    /// allocator when assigning physical registers).
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            Inst::Alu { rd, rs1, rs2, .. } => {
                *rd = f(*rd);
                *rs1 = f(*rs1);
                *rs2 = f(*rs2);
            }
            Inst::AluImm { rd, rs1, .. } => {
                *rd = f(*rd);
                *rs1 = f(*rs1);
            }
            Inst::Li { rd, .. } | Inst::La { rd, .. } => *rd = f(*rd),
            Inst::Mv { rd, rs }
            | Inst::Neg { rd, rs }
            | Inst::Seqz { rd, rs }
            | Inst::Snez { rd, rs } => {
                *rd = f(*rd);
                *rs = f(*rs);
            }
            Inst::Load { rd, base, .. } => {
                *rd = f(*rd);
                *base = f(*base);
            }
            Inst::Store { rs, base, .. } => {
                *rs = f(*rs);
                *base = f(*base);
            }
            Inst::Print { rs } => *rs = f(*rs),
            Inst::Call { .. } | Inst::Nop => {}
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic())
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                // RISC-V spells the unsigned compare immediate `sltiu`.
                let m = match op {
                    AluOp::Sltu => "sltiu".to_owned(),
                    other => format!("{}i", other.mnemonic()),
                };
                write!(f, "{m} {rd}, {rs1}, {imm}")
            }
            Inst::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::La { rd, global } => write!(f, "la {rd}, @{global}"),
            Inst::Mv { rd, rs } => write!(f, "mv {rd}, {rs}"),
            Inst::Neg { rd, rs } => write!(f, "neg {rd}, {rs}"),
            Inst::Seqz { rd, rs } => write!(f, "seqz {rd}, {rs}"),
            Inst::Snez { rd, rs } => write!(f, "snez {rd}, {rs}"),
            Inst::Load { rd, base, offset, width, signed } => {
                let m = match (width, signed) {
                    (MemWidth::Byte, true) => "lb",
                    (MemWidth::Byte, false) => "lbu",
                    (MemWidth::Half, true) => "lh",
                    (MemWidth::Half, false) => "lhu",
                    (MemWidth::Word, _) => "lw",
                };
                write!(f, "{m} {rd}, {offset}({base})")
            }
            Inst::Store { rs, base, offset, width } => {
                let m = match width {
                    MemWidth::Byte => "sb",
                    MemWidth::Half => "sh",
                    MemWidth::Word => "sw",
                };
                write!(f, "{m} {rs}, {offset}({base})")
            }
            Inst::Call { callee } => write!(f, "call @{callee}"),
            Inst::Print { rs } => write!(f, "print {rs}"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

/// A terminator ends a basic block. It is also a program point.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum TerminatorKind {
    /// Unconditional jump.
    Jump { target: BlockId },
    /// Conditional branch. `rs2 = None` encodes the compare-with-zero forms
    /// (`beqz`, `bnez`, …), which exist even on machines without a hardwired
    /// zero register (the paper's 4-bit example uses `bnez`).
    Branch { cond: Cond, rs1: Reg, rs2: Option<Reg>, taken: BlockId, fallthrough: BlockId },
    /// Function return. `reads` lists the registers whose values are live-out
    /// (the ABI return registers, or explicit registers in toy examples).
    Ret { reads: Vec<Reg> },
    /// Program halt (only meaningful in the entry function).
    Exit,
}

impl TerminatorKind {
    /// Registers read by the terminator.
    pub fn reads(&self) -> Vec<Reg> {
        match self {
            TerminatorKind::Jump { .. } | TerminatorKind::Exit => vec![],
            TerminatorKind::Branch { rs1, rs2, .. } => {
                let mut v = vec![*rs1];
                v.extend(rs2.iter().copied());
                v
            }
            TerminatorKind::Ret { reads } => reads.clone(),
        }
    }

    /// Successor blocks in control-flow order (taken edge first).
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            TerminatorKind::Jump { target } => vec![*target],
            TerminatorKind::Branch { taken, fallthrough, .. } => vec![*taken, *fallthrough],
            TerminatorKind::Ret { .. } | TerminatorKind::Exit => vec![],
        }
    }

    /// Rewrites register operands through `f`.
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        match self {
            TerminatorKind::Branch { rs1, rs2, .. } => {
                *rs1 = f(*rs1);
                if let Some(r) = rs2 {
                    *r = f(*r);
                }
            }
            TerminatorKind::Ret { reads } => {
                for r in reads {
                    *r = f(*r);
                }
            }
            TerminatorKind::Jump { .. } | TerminatorKind::Exit => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_sets() {
        let i = Inst::Alu { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, rs2: Reg::A1 };
        assert_eq!(i.reads(), vec![Reg::A0, Reg::A1]);
        assert_eq!(i.writes(), vec![Reg::A0]);

        let s = Inst::Store { rs: Reg::T0, base: Reg::SP, offset: 4, width: MemWidth::Word };
        assert_eq!(s.reads(), vec![Reg::T0, Reg::SP]);
        assert!(s.writes().is_empty());
    }

    #[test]
    fn display_forms() {
        let i = Inst::AluImm { op: AluOp::And, rd: Reg::T0, rs1: Reg::T1, imm: 1 };
        assert_eq!(i.to_string(), "andi t0, t1, 1");
        let l = Inst::Load {
            rd: Reg::A0,
            base: Reg::SP,
            offset: -8,
            width: MemWidth::Word,
            signed: true,
        };
        assert_eq!(l.to_string(), "lw a0, -8(sp)");
    }

    #[test]
    fn map_regs_rewrites_all_operands() {
        let mut i =
            Inst::Alu { op: AluOp::Xor, rd: Reg::virt(0), rs1: Reg::virt(1), rs2: Reg::virt(2) };
        i.map_regs(|r| Reg::phys(r.index() + 10));
        assert_eq!(i.reads(), vec![Reg::A1, Reg::phys(12)]);
        assert_eq!(i.writes(), vec![Reg::A0]);
    }

    #[test]
    fn branch_successors_order_taken_first() {
        let t = TerminatorKind::Branch {
            cond: Cond::Ne,
            rs1: Reg::T0,
            rs2: None,
            taken: BlockId(1),
            fallthrough: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
    }
}
