//! Concrete evaluation of ALU operations, comparisons and branches.
//!
//! This is the single source of truth for instruction semantics: both the
//! simulator (`bec-sim`) and the abstract transfer functions' constant
//! folding (`bec-core`) call into it, so the abstract and the concrete
//! worlds cannot drift apart.
//!
//! RISC-V conventions are followed for the corner cases: division by zero
//! yields all-ones (`div`) / the dividend (`rem`); signed overflow of
//! `div`/`rem` (`MIN / -1`) yields `MIN` / `0`; shift amounts are masked to
//! the word width.

use crate::config::MachineConfig;
use crate::inst::{AluOp, Cond};

/// Evaluates `op a, b` on `xlen`-bit values. Inputs and outputs are
/// truncated to the machine word.
#[inline]
pub fn eval_alu(c: &MachineConfig, op: AluOp, a: u64, b: u64) -> u64 {
    let a = c.truncate(a);
    let b = c.truncate(b);
    let sa = c.sign_extend(a);
    let sb = c.sign_extend(b);
    let w = c.xlen;
    let r = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.checked_shl(c.shamt(b)).unwrap_or(0),
        AluOp::Srl => a.checked_shr(c.shamt(b)).unwrap_or(0),
        AluOp::Sra => (sa >> c.shamt(b)) as u64,
        AluOp::Slt => u64::from(sa < sb),
        AluOp::Sltu => u64::from(a < b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulh => {
            // Widen to 128-bit to capture the high word exactly.
            let p = (sa as i128) * (sb as i128);
            (p >> w) as u64
        }
        AluOp::Mulhu => {
            let p = (a as u128) * (b as u128);
            (p >> w) as u64
        }
        AluOp::Div => {
            if b == 0 {
                u64::MAX // all ones
            } else if sa == min_signed(w) && sb == -1 {
                a // overflow: MIN / -1 = MIN
            } else {
                (sa.wrapping_div(sb)) as u64
            }
        }
        AluOp::Divu => a.checked_div(b).unwrap_or(u64::MAX),
        AluOp::Rem => {
            if b == 0 {
                a
            } else if sa == min_signed(w) && sb == -1 {
                0
            } else {
                (sa.wrapping_rem(sb)) as u64
            }
        }
        AluOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    };
    c.truncate(r)
}

fn min_signed(width: u32) -> i64 {
    if width >= 64 {
        i64::MIN
    } else {
        -(1i64 << (width - 1))
    }
}

/// Evaluates a branch condition on `xlen`-bit values.
#[inline]
pub fn eval_cond(c: &MachineConfig, cond: Cond, a: u64, b: u64) -> bool {
    let a = c.truncate(a);
    let b = c.truncate(b);
    match cond {
        Cond::Eq => a == b,
        Cond::Ne => a != b,
        Cond::Lt => c.sign_extend(a) < c.sign_extend(b),
        Cond::Ge => c.sign_extend(a) >= c.sign_extend(b),
        Cond::Ltu => a < b,
        Cond::Geu => a >= b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn riscv_division_corner_cases() {
        let c = MachineConfig::rv32();
        assert_eq!(eval_alu(&c, AluOp::Div, 10, 0), 0xffff_ffff);
        assert_eq!(eval_alu(&c, AluOp::Rem, 10, 0), 10);
        let min = 0x8000_0000u64;
        let neg1 = 0xffff_ffffu64;
        assert_eq!(eval_alu(&c, AluOp::Div, min, neg1), min);
        assert_eq!(eval_alu(&c, AluOp::Rem, min, neg1), 0);
        assert_eq!(eval_alu(&c, AluOp::Divu, 7, 2), 3);
        assert_eq!(eval_alu(&c, AluOp::Remu, 7, 2), 1);
    }

    #[test]
    fn shifts_mask_amounts() {
        let c = MachineConfig::rv32();
        assert_eq!(eval_alu(&c, AluOp::Sll, 1, 33), 2);
        assert_eq!(eval_alu(&c, AluOp::Srl, 0x8000_0000, 31), 1);
        assert_eq!(eval_alu(&c, AluOp::Sra, 0x8000_0000, 31), 0xffff_ffff);
    }

    #[test]
    fn mulh_variants() {
        let c = MachineConfig::rv32();
        assert_eq!(eval_alu(&c, AluOp::Mulhu, 0xffff_ffff, 0xffff_ffff), 0xffff_fffe);
        // (-1) * (-1) = 1 → high word 0.
        assert_eq!(eval_alu(&c, AluOp::Mulh, 0xffff_ffff, 0xffff_ffff), 0);
        assert_eq!(eval_alu(&c, AluOp::Mul, 0x1_0001, 0x1_0001), (0x2_0001 & 0xffff_ffff));
    }

    #[test]
    fn small_width_semantics() {
        let c = MachineConfig::example4();
        assert_eq!(eval_alu(&c, AluOp::Add, 15, 1), 0);
        assert_eq!(eval_alu(&c, AluOp::Slt, 0b1000, 0), 1); // -8 < 0
        assert_eq!(eval_alu(&c, AluOp::Sltu, 0b1000, 0), 0);
        assert!(eval_cond(&c, Cond::Lt, 0b1111, 1)); // -1 < 1 signed
        assert!(!eval_cond(&c, Cond::Ltu, 0b1111, 1));
    }

    #[test]
    fn conditions() {
        let c = MachineConfig::rv32();
        assert!(eval_cond(&c, Cond::Eq, 5, 5));
        assert!(eval_cond(&c, Cond::Ne, 5, 6));
        assert!(eval_cond(&c, Cond::Ge, 5, 5));
        assert!(eval_cond(&c, Cond::Geu, 0xffff_ffff, 5));
        assert!(!eval_cond(&c, Cond::Ge, 0xffff_ffff, 5)); // -1 < 5 signed
    }
}
