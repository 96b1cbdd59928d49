//! Machine state: register file, memory, and the fault-injection hook.

use bec_ir::program::{DATA_BASE, STACK_TOP};
use bec_ir::{MachineConfig, Program, Reg};

/// A single-event upset: flip `bit` of `reg` immediately before the
/// instruction at `cycle` executes.
///
/// Cycle numbering counts executed instructions (unconditional jumps are
/// zero-cost fallthroughs and do not consume cycles — DESIGN.md §2). The
/// fault-site window "after point `p`" therefore corresponds to
/// `cycle = cycle_of(p) + 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Cycle before which the bit flips.
    pub cycle: u64,
    /// Target register.
    pub reg: Reg,
    /// Bit position (LSB = 0).
    pub bit: u32,
}

/// Byte-addressed flat memory with bounds checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Memory {
    bytes: Vec<u8>,
}

impl Memory {
    /// Memory initialized from the program's global data segment.
    pub fn for_program(program: &Program) -> Memory {
        let limit = if program.config.xlen >= 20 {
            STACK_TOP as usize
        } else {
            1usize << program.config.xlen
        };
        let mut bytes = vec![0u8; limit];
        let mut addr = DATA_BASE as usize;
        for g in &program.globals {
            if addr + g.size as usize <= bytes.len() {
                bytes[addr..addr + g.init.len()].copy_from_slice(&g.init);
            }
            addr += ((g.size + 3) & !3) as usize;
        }
        Memory { bytes }
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the memory has zero size.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Little-endian load of `size` bytes (1, 2 or 4). `None` on a bounds
    /// violation.
    pub fn load(&self, addr: u64, size: u64) -> Option<u64> {
        let addr = addr as usize;
        let b = self.bytes.get(addr..addr.checked_add(size as usize)?)?;
        Some(match *b {
            [b0] => u64::from(b0),
            [b0, b1] => u64::from(u16::from_le_bytes([b0, b1])),
            [b0, b1, b2, b3] => u64::from(u32::from_le_bytes([b0, b1, b2, b3])),
            _ => b.iter().rev().fold(0, |v, &x| v << 8 | u64::from(x)),
        })
    }

    /// The aligned 32-bit word at word index `widx` (little-endian). Bytes
    /// past the end of a tiny memory read as zero, so word-granular
    /// checkpoint deltas work on machines whose memory is smaller than one
    /// word.
    pub fn word(&self, widx: u32) -> u32 {
        let base = widx as usize * 4;
        if let Some(&[b0, b1, b2, b3]) = self.bytes.get(base..base + 4) {
            return u32::from_le_bytes([b0, b1, b2, b3]);
        }
        let mut v = 0u32;
        for i in (0..4).rev() {
            let byte = self.bytes.get(base + i).copied().unwrap_or(0);
            v = v << 8 | u32::from(byte);
        }
        v
    }

    /// Overwrites the aligned 32-bit word at word index `widx`, ignoring
    /// bytes past the end of the memory (mirror of [`Memory::word`]).
    pub fn set_word(&mut self, widx: u32, value: u32) {
        let base = widx as usize * 4;
        if let Some(b) = self.bytes.get_mut(base..base + 4) {
            b.copy_from_slice(&value.to_le_bytes());
            return;
        }
        for i in 0..4 {
            if let Some(b) = self.bytes.get_mut(base + i) {
                *b = (value >> (8 * i)) as u8;
            }
        }
    }

    /// Little-endian store of `size` bytes. `false` on a bounds violation.
    pub fn store(&mut self, addr: u64, size: u64, value: u64) -> bool {
        let addr = addr as usize;
        let Some(b) = addr.checked_add(size as usize).and_then(|end| self.bytes.get_mut(addr..end))
        else {
            return false;
        };
        let le = value.to_le_bytes();
        match b.len() {
            1 => b[0] = le[0],
            2 => b.copy_from_slice(&le[..2]),
            4 => b.copy_from_slice(&le[..4]),
            n => b.copy_from_slice(&le[..n]),
        }
        true
    }
}

/// The architectural machine state.
#[derive(Clone, Debug)]
pub struct Machine {
    config: MachineConfig,
    regs: Vec<u64>,
    /// Byte-addressed memory.
    pub memory: Memory,
}

impl Machine {
    /// Fresh state for `program`: registers zeroed, memory holding the
    /// global data, `sp` at the stack top on 32-register machines.
    pub fn new(program: &Program) -> Machine {
        let config = program.config;
        let mut m = Machine {
            config,
            regs: vec![0; config.num_regs as usize],
            memory: Memory::for_program(program),
        };
        if config.num_regs == 32 {
            m.write(Reg::SP, config.truncate(STACK_TOP));
        }
        m
    }

    /// Reads a register (the hardwired zero register reads 0).
    pub fn read(&self, r: Reg) -> u64 {
        if self.config.is_zero_reg(r) {
            return 0;
        }
        self.regs[r.index() as usize]
    }

    /// Writes a register (writes to the hardwired zero register vanish).
    pub fn write(&mut self, r: Reg, v: u64) {
        if self.config.is_zero_reg(r) {
            return;
        }
        self.regs[r.index() as usize] = self.config.truncate(v);
    }

    /// Injects a fault: flips `bit` of `reg`. Flips into the hardwired zero
    /// register are physically impossible and ignored.
    pub fn flip(&mut self, reg: Reg, bit: u32) {
        if self.config.is_zero_reg(reg) || bit >= self.config.xlen {
            return;
        }
        let i = reg.index() as usize;
        self.regs[i] ^= 1 << bit;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The full register file, for checkpoint capture and state comparison.
    pub fn regs(&self) -> &[u64] {
        &self.regs
    }

    /// Restores the register file from a checkpoint snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `regs` was captured on a machine with a different register
    /// count.
    pub fn restore_regs(&mut self, regs: &[u64]) {
        assert_eq!(regs.len(), self.regs.len(), "register snapshot from a different machine");
        self.regs.copy_from_slice(regs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::program::Global;

    fn program_with_global() -> Program {
        let mut p = Program::new(MachineConfig::rv32());
        p.globals.push(Global::words("g", &[0xdead_beef]));
        p.functions.push(bec_ir::Function::new("main", bec_ir::Signature::void(0)));
        p
    }

    #[test]
    fn memory_initializes_globals() {
        let m = Memory::for_program(&program_with_global());
        assert_eq!(m.load(DATA_BASE, 4), Some(0xdead_beef));
        assert_eq!(m.load(DATA_BASE, 1), Some(0xef));
        assert_eq!(m.load(DATA_BASE + 2, 2), Some(0xdead));
    }

    #[test]
    fn memory_bounds_are_checked() {
        let mut m = Memory::for_program(&program_with_global());
        let end = m.len() as u64;
        assert_eq!(m.load(end - 4, 4), Some(0));
        assert_eq!(m.load(end - 3, 4), None);
        assert!(!m.store(end, 1, 1));
        assert!(m.store(end - 4, 4, 7));
        assert_eq!(m.load(end - 4, 4), Some(7));
    }

    #[test]
    fn zero_register_semantics() {
        let p = program_with_global();
        let mut m = Machine::new(&p);
        m.write(Reg::ZERO, 99);
        assert_eq!(m.read(Reg::ZERO), 0);
        m.flip(Reg::ZERO, 3);
        assert_eq!(m.read(Reg::ZERO), 0);
        m.write(Reg::T0, 5);
        m.flip(Reg::T0, 1);
        assert_eq!(m.read(Reg::T0), 7);
    }

    #[test]
    fn writes_truncate_to_xlen() {
        let mut p = program_with_global();
        p.config = MachineConfig::example4();
        p.globals.clear();
        let mut m = Machine::new(&p);
        m.write(Reg::phys(1), 0x13);
        assert_eq!(m.read(Reg::phys(1)), 3);
    }

    #[test]
    fn small_machines_get_small_memory() {
        let mut p = program_with_global();
        p.config = MachineConfig::example4();
        p.globals.clear();
        let m = Memory::for_program(&p);
        assert_eq!(m.len(), 16);
    }
}
