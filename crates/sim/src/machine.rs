//! Machine state: the initial register image, memory, and the fault
//! specification.

use bec_ir::program::{DATA_BASE, STACK_TOP};
use bec_ir::{Program, Reg};

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

/// A program's machine at its entry: the memory a run executes on, and the
/// register file it starts from.
#[derive(Clone, Debug)]
pub struct Machine {
    regs: Vec<u64>,
    /// Byte-addressed memory.
    pub memory: Memory,
}

impl Machine {
    /// Fresh state for `program`: registers zeroed, memory holding the
    /// global data, `sp` at the stack top on 32-register machines.
    pub fn new(program: &Program) -> Machine {
        let config = program.config;
        let mut regs = vec![0; config.num_regs as usize];
        if config.num_regs == 32 {
            regs[Reg::SP.index() as usize] = config.truncate(STACK_TOP);
        }
        Machine { regs, memory: Memory::for_program(program) }
    }

    /// The register file at the program entry.
    pub fn initial_regs(&self) -> &[u64] {
        &self.regs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use bec_ir::program::Global;
    use bec_ir::{parse_program, MachineConfig};

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

    /// Writes to the hardwired zero register vanish and flips into it are
    /// ignored; a flip of any other register lands.
    #[test]
    fn zero_register_semantics() {
        let p = parse_program(
            "func @main(args=0, ret=none) {\nentry:\n    li zero, 99\n    li t0, 5\n    \
             mv t1, zero\n    print t1\n    print t0\n    exit\n}\n",
        )
        .unwrap();
        let sim = Simulator::new(&p);
        assert_eq!(sim.run_golden().outputs(), &[0, 5]);
        // Cycle 2 is the boundary before `mv t1, zero`.
        let zero = sim.run_with_fault(FaultSpec { cycle: 2, reg: Reg::ZERO, bit: 3 });
        assert_eq!(zero.outputs(), &[0, 5]);
        let t0 = sim.run_with_fault(FaultSpec { cycle: 2, reg: Reg::T0, bit: 1 });
        assert_eq!(t0.outputs(), &[0, 7]);
        // A flip past the machine word is ignored too.
        let wide = sim.run_with_fault(FaultSpec { cycle: 2, reg: Reg::T0, bit: 32 });
        assert_eq!(wide.outputs(), &[0, 5]);
        assert_eq!(Machine::new(&p).initial_regs()[Reg::SP.index() as usize], STACK_TOP);
    }

    #[test]
    fn writes_truncate_to_xlen() {
        let p = parse_program(
            "machine xlen=4 regs=4 zero=none\nfunc @main(args=0, ret=none) {\nentry:\n    \
             li r1, -1\n    addi r1, r1, 4\n    print r1\n    exit\n}\n",
        )
        .unwrap();
        bec_ir::verify_program(&p).unwrap();
        assert_eq!(Machine::new(&p).initial_regs(), &[0; 4]);
        assert_eq!(Simulator::new(&p).run_golden().outputs(), &[3]);
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
