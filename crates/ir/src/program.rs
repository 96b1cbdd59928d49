//! Whole programs: functions, global data, and ABI summaries for calls.

use crate::config::MachineConfig;
use crate::function::Function;
use crate::reg::Reg;
use std::collections::HashMap;

/// Base address of the global data segment in the simulated address space.
pub const DATA_BASE: u64 = 0x1000;

/// Initial stack pointer (stack grows down from here).
pub const STACK_TOP: u64 = 0x8_0000;

/// A global data object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Global {
    /// Name (without the `@` sigil).
    pub name: String,
    /// Object size in bytes.
    pub size: u64,
    /// Initial contents; shorter than `size` means zero-fill.
    pub init: Vec<u8>,
}

impl Global {
    /// A zero-initialized global of `size` bytes.
    pub fn zeroed(name: impl Into<String>, size: u64) -> Global {
        Global { name: name.into(), size, init: Vec::new() }
    }

    /// A global holding little-endian 32-bit words.
    pub fn words(name: impl Into<String>, words: &[u32]) -> Global {
        let mut init = Vec::with_capacity(words.len() * 4);
        for w in words {
            init.extend_from_slice(&w.to_le_bytes());
        }
        Global { name: name.into(), size: init.len() as u64, init }
    }
}

/// ABI effects of a call instruction as seen by the caller.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CallEffects {
    /// Registers read by the call (the callee's argument registers).
    pub reads: Vec<Reg>,
    /// Registers defined/clobbered by the call: `ra`, the return value
    /// register (if any), and every caller-saved register.
    pub writes: Vec<Reg>,
}

/// A complete program: machine configuration, globals and functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// Machine geometry the program targets.
    pub config: MachineConfig,
    /// Global data objects, laid out consecutively from [`DATA_BASE`].
    pub globals: Vec<Global>,
    /// Functions; the entry function is named by `entry`.
    pub functions: Vec<Function>,
    /// Name of the entry function (defaults to `main`).
    pub entry: String,
}

impl Program {
    /// Creates an empty program for the given machine.
    pub fn new(config: MachineConfig) -> Program {
        Program { config, globals: Vec::new(), functions: Vec::new(), entry: "main".to_owned() }
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Index of a function by name.
    pub fn function_index(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// The entry function.
    ///
    /// # Panics
    ///
    /// Panics if the entry function does not exist; [`crate::verify_program`]
    /// reports this as an error beforehand.
    pub fn entry_function(&self) -> &Function {
        self.function(&self.entry).expect("entry function exists")
    }

    /// The address of each global, assigned consecutively (4-byte aligned)
    /// from [`DATA_BASE`].
    pub fn global_addresses(&self) -> HashMap<String, u64> {
        let mut out = HashMap::new();
        let mut addr = DATA_BASE;
        for g in &self.globals {
            out.insert(g.name.clone(), addr);
            addr += (g.size + 3) & !3;
        }
        out
    }

    /// The address of one global, if it exists.
    pub fn global_address(&self, name: &str) -> Option<u64> {
        let mut addr = DATA_BASE;
        for g in &self.globals {
            if g.name == name {
                return Some(addr);
            }
            addr += (g.size + 3) & !3;
        }
        None
    }

    /// ABI read/write summary of a call to `callee`.
    ///
    /// Reads comprise the argument registers *and* every callee-saved
    /// register the callee (transitively) writes: the callee's prologue
    /// saves those registers to the stack, which observes — and therefore
    /// propagates — any fault residing in them. Treating them as read keeps
    /// the fault-site analysis sound across calls (a window spanning a call
    /// gets an arrival with no coalescing rules and never merges).
    ///
    /// Unknown callees are summarized maximally (no reads, all caller-saved
    /// clobbered); the verifier rejects unknown callees, so this only matters
    /// for partially constructed programs.
    pub fn call_effects(&self, callee: &str) -> CallEffects {
        let sig = self.function(callee).map(|f| f.sig);
        let mut reads = sig.map(|s| s.arg_regs()).unwrap_or_default();
        for r in self.transitively_saved(callee) {
            if !reads.contains(&r) {
                reads.push(r);
            }
        }
        let mut writes = vec![Reg::RA];
        if sig.map(|s| s.has_ret).unwrap_or(true) {
            writes.push(Reg::A0);
        }
        if self.config.num_regs == 32 {
            for i in 0..self.config.num_regs {
                let r = Reg::phys(i);
                if r.is_caller_saved() && !writes.contains(&r) {
                    writes.push(r);
                }
            }
        }
        CallEffects { reads, writes }
    }

    /// The callee-saved registers written (and hence saved/restored) by
    /// `callee` or any function it can transitively call.
    pub fn transitively_saved(&self, callee: &str) -> Vec<Reg> {
        let mut saved: Vec<Reg> = Vec::new();
        let mut visited: Vec<&str> = Vec::new();
        let mut stack = vec![callee];
        while let Some(name) = stack.pop() {
            if visited.contains(&name) {
                continue;
            }
            visited.push(name);
            let Some(f) = self.function(name) else { continue };
            for inst in f.insts() {
                if let crate::inst::Inst::Call { callee: next } = inst {
                    stack.push(next);
                }
                for w in inst.writes() {
                    if w != Reg::SP && w.is_callee_saved() && !saved.contains(&w) {
                        saved.push(w);
                    }
                }
            }
        }
        saved.sort();
        saved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::Signature;

    #[test]
    fn global_layout_is_consecutive_and_aligned() {
        let mut p = Program::new(MachineConfig::rv32());
        p.globals.push(Global::zeroed("a", 6));
        p.globals.push(Global::words("b", &[1, 2]));
        let addrs = p.global_addresses();
        assert_eq!(addrs["a"], DATA_BASE);
        assert_eq!(addrs["b"], DATA_BASE + 8); // 6 rounded up to 8
        assert_eq!(p.global_address("b"), Some(DATA_BASE + 8));
        assert_eq!(p.global_address("c"), None);
    }

    #[test]
    fn call_effects_follow_signature() {
        let mut p = Program::new(MachineConfig::rv32());
        p.functions.push(Function::new("f", Signature::returning(2)));
        let fx = p.call_effects("f");
        assert_eq!(fx.reads, vec![Reg::A0, Reg::A1]);
        assert!(fx.writes.contains(&Reg::RA));
        assert!(fx.writes.contains(&Reg::A0));
        // t0 is caller-saved and must be clobbered.
        assert!(fx.writes.contains(&Reg::T0));
        // s0 is callee-saved and must not be.
        assert!(!fx.writes.contains(&Reg::S0));
    }

    #[test]
    fn words_global_encodes_little_endian() {
        let g = Global::words("t", &[0x0102_0304]);
        assert_eq!(g.init, vec![4, 3, 2, 1]);
        assert_eq!(g.size, 4);
    }
}
