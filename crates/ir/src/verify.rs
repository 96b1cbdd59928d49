//! Structural verification of machine programs.

use crate::error::IrError;
use crate::inst::Inst;
use crate::point::PointLayout;
use crate::program::Program;
use crate::reg::Reg;

/// The widest register file [`verify_program`] admits: one bit per
/// register in a [`crate::RegMask`].
const MAX_REGS: u32 = 64;

/// Checks a program's structural invariants before it is handed to the
/// analysis or the simulator:
///
/// * the entry function exists;
/// * the register file has at most 64 registers (the bit-level analyses
///   and the simulator keep register sets as one bit each of a
///   [`crate::RegMask`]);
/// * every register is physical and within the register file;
/// * shift immediates fit the word width;
/// * every call targets a defined function;
/// * every `la` targets a defined global;
/// * every branch target is a valid block id.
///
/// # Errors
///
/// Returns the first violated invariant as an [`IrError`].
pub fn verify_program(p: &Program) -> Result<(), IrError> {
    if p.config.num_regs > MAX_REGS {
        return Err(IrError::new(format!(
            "{} registers exceed the {MAX_REGS}-register limit",
            p.config.num_regs
        )));
    }
    if p.function(&p.entry).is_none() {
        return Err(IrError::new(format!("entry function `@{}` not found", p.entry)));
    }
    for (i, f) in p.functions.iter().enumerate() {
        if p.functions.iter().skip(i + 1).any(|g| g.name == f.name) {
            return Err(IrError::new(format!("duplicate function `@{}`", f.name)));
        }
    }
    for f in &p.functions {
        verify_function(p, f)?;
    }
    Ok(())
}

fn verify_function(p: &Program, f: &crate::function::Function) -> Result<(), IrError> {
    let err = |msg: String| Err(IrError::new(format!("in @{}: {msg}", f.name)));
    if f.blocks.is_empty() {
        return err("function has no blocks".into());
    }
    if f.sig.args > 8 {
        return err("more than 8 register arguments".into());
    }
    let layout = PointLayout::of(f);
    let check_reg = |r: Reg| -> Result<(), IrError> {
        if r.is_virtual() {
            return Err(IrError::new(format!(
                "in @{}: virtual register {r:?} in machine program",
                f.name
            )));
        }
        if r.index() >= p.config.num_regs {
            return Err(IrError::new(format!(
                "in @{}: register {r:?} outside the {}-register file",
                f.name, p.config.num_regs
            )));
        }
        Ok(())
    };
    for pt in layout.iter() {
        let pi = layout.resolve(f, pt);
        if let Some(inst) = pi.as_inst() {
            for r in inst.reads().into_iter().chain(inst.writes()) {
                check_reg(r)?;
            }
            use crate::inst::AluOp;
            match inst {
                Inst::AluImm { op: AluOp::Sll | AluOp::Srl | AluOp::Sra, imm, .. }
                    if *imm < 0 || *imm >= p.config.xlen as i64 =>
                {
                    return err(format!("shift amount {imm} outside 0..{}", p.config.xlen));
                }
                Inst::Call { callee } if p.function(callee).is_none() => {
                    return err(format!("call to undefined function `@{callee}`"));
                }
                Inst::La { global, .. } if p.global_address(global).is_none() => {
                    return err(format!("`la` of undefined global `@{global}`"));
                }
                _ => {}
            }
        }
        if let Some(t) = pi.as_term() {
            for r in t.reads() {
                check_reg(r)?;
            }
            for s in t.successors() {
                if s.index() >= f.blocks.len() {
                    return err(format!("branch to out-of-range block {s:?}"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::config::MachineConfig;
    use crate::function::Signature;

    #[test]
    fn accepts_valid_program() {
        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.li(Reg::T0, 1);
        fb.exit();
        fb.finish();
        assert!(verify_program(&pb.finish()).is_ok());
    }

    #[test]
    fn rejects_missing_entry() {
        let pb = ProgramBuilder::new(MachineConfig::rv32());
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message().contains("entry function"));
    }

    #[test]
    fn rejects_virtual_registers() {
        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.li(Reg::virt(0), 1);
        fb.exit();
        fb.finish();
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message().contains("virtual register"));
    }

    #[test]
    fn rejects_out_of_file_registers() {
        let mut pb = ProgramBuilder::new(MachineConfig::example4());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.li(Reg::phys(4), 1); // file has r0..r3
        fb.exit();
        fb.finish();
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message().contains("register file"));
    }

    #[test]
    fn rejects_oversized_shift() {
        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.slli(Reg::T0, Reg::T0, 32);
        fb.exit();
        fb.finish();
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message().contains("shift amount"));
    }

    #[test]
    fn rejects_undefined_callee_and_global() {
        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.call("ghost");
        fb.exit();
        fb.finish();
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message().contains("undefined function"));

        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.la(Reg::T0, "ghost");
        fb.exit();
        fb.finish();
        let e = verify_program(&pb.finish()).unwrap_err();
        assert!(e.message().contains("undefined global"));
    }
}
