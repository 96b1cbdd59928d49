//! Functions, basic blocks and terminators.

use crate::inst::{Inst, TerminatorKind};
use crate::reg::Reg;
use std::fmt;

/// Identifier of a basic block within its function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`Function::blocks`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Re-export: terminators live in [`crate::inst`] but are part of the block
/// structure, so the alias keeps call sites readable.
pub type Terminator = TerminatorKind;

/// A basic block: a label, straight-line instructions, and one terminator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Block {
    /// Human-readable label (unique within the function).
    pub label: String,
    /// Straight-line body.
    pub insts: Vec<Inst>,
    /// The block terminator.
    pub term: Terminator,
}

impl Block {
    /// Creates an empty block that falls into nothing (placeholder `Exit`
    /// terminator; builders replace it).
    pub fn new(label: impl Into<String>) -> Block {
        Block { label: label.into(), insts: Vec::new(), term: Terminator::Exit }
    }

    /// Number of program points contributed by this block
    /// (instructions plus the terminator).
    pub fn point_count(&self) -> usize {
        self.insts.len() + 1
    }
}

/// ABI signature of a function: how many register arguments it takes
/// (passed in `a0..a{n-1}`) and whether it returns a value in `a0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Number of register arguments (≤ 8 under the RISC-V ABI).
    pub args: u8,
    /// Whether a value is returned in `a0`.
    pub has_ret: bool,
}

impl Signature {
    /// Signature with `args` arguments and a return value.
    pub fn returning(args: u8) -> Signature {
        Signature { args, has_ret: true }
    }

    /// Signature with `args` arguments and no return value.
    pub fn void(args: u8) -> Signature {
        Signature { args, has_ret: false }
    }

    /// The argument registers implied by the signature.
    pub fn arg_regs(&self) -> Vec<Reg> {
        (0..self.args as u32).map(Reg::arg).collect()
    }
}

impl Default for Signature {
    fn default() -> Self {
        Signature::void(0)
    }
}

/// A function: named, with a signature and a list of basic blocks.
/// Block 0 is the entry block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Function {
    /// Function name (without the `@` sigil).
    pub name: String,
    /// ABI signature.
    pub sig: Signature,
    /// Basic blocks; `BlockId(i)` indexes this vector. Block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>, sig: Signature) -> Function {
        Function { name: name.into(), sig, blocks: Vec::new() }
    }

    /// The entry block id.
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Looks up a block by label.
    pub fn block_by_label(&self, label: &str) -> Option<BlockId> {
        self.blocks.iter().position(|b| b.label == label).map(|i| BlockId(i as u32))
    }

    /// Shared access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Total number of program points (instructions + terminators).
    pub fn point_count(&self) -> usize {
        self.blocks.iter().map(Block::point_count).sum()
    }

    /// Iterates over every instruction in block order (terminators excluded).
    pub fn insts(&self) -> impl Iterator<Item = &Inst> {
        self.blocks.iter().flat_map(|b| b.insts.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn point_count_includes_terminators() {
        let mut f = Function::new("f", Signature::void(0));
        let mut b = Block::new("entry");
        b.insts.push(Inst::Nop);
        b.insts.push(Inst::Nop);
        f.blocks.push(b);
        f.blocks.push(Block::new("exit"));
        assert_eq!(f.point_count(), 4);
    }

    #[test]
    fn block_lookup_by_label() {
        let mut f = Function::new("f", Signature::void(0));
        f.blocks.push(Block::new("entry"));
        f.blocks.push(Block::new("loop"));
        assert_eq!(f.block_by_label("loop"), Some(BlockId(1)));
        assert_eq!(f.block_by_label("nope"), None);
    }

    #[test]
    fn signature_arg_regs() {
        assert_eq!(Signature::returning(2).arg_regs(), vec![Reg::A0, Reg::A1]);
        assert!(Signature::void(0).arg_regs().is_empty());
    }
}
