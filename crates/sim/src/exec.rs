//! The instruction interpreters.
//!
//! Programs are pre-decoded into a flat per-function step stream
//! (`FlatProgram`): block bodies and terminators laid out contiguously,
//! unconditional jumps turned into zero-cost gotos on flat indices, call
//! targets and global addresses resolved to indices/addresses up front.
//! Execution is a `(function index, flat pc)` walk with no per-step
//! `BlockId`/`PointLayout` lookups and no per-call name resolution.
//!
//! The interpreters run against a caller-provided [`Machine`] and record
//! every written memory word into a dirty list, so a campaign worker can
//! reuse one scratch machine across millions of runs (undoing only the
//! dirty words) instead of allocating a fresh address space per fault.
//!
//! Two loops share one definition of every instruction effect (the
//! semantics in [`bec_ir::semantics`] plus the memory, extension and call
//! token helpers below):
//!
//! * `run` serves every instrumented mode:
//!   * **golden**: full instrumentation (profile, cycle map) and optional
//!     periodic [`Checkpoint`] capture;
//!   * **from-scratch fault run**: execute from cycle 0 with one injected
//!     bit flip;
//!   * **resumed fault run**: restore the nearest checkpoint at or before
//!     the injection cycle, execute only the suffix, and after the
//!     injection compare state against the golden checkpoints at aligned
//!     cycles; full equality (modulo dynamically dead registers) proves
//!     the remaining trace is the golden suffix and the run early-exits as
//!     converged (classified Benign by the caller).
//! * `run_tail` runs the tail of a forked bitsliced lane to its end. It
//!   walks a dense op array decoded once per program (`Op`: absolute op
//!   indices across functions, register-file slots, pre-truncated
//!   immediates, one variant per ALU operation and branch condition, so
//!   each op costs one dispatch) over a local register file (`OpState`),
//!   with none of the capture, tape, profile, cycle-map, resume or digest
//!   machinery, and may skip the trace hash of a lane whose trace already
//!   diverged. Each op executes in `FlatProgram::exec`, which the
//!   bitsliced engine's golden replay (`crate::bitslice`) runs its steps
//!   through too.

use crate::checkpoint::{mem_mix, Checkpoint, CheckpointLog, FrameSnap};
use crate::machine::{FaultSpec, Machine, Memory};
use crate::trace::TraceHash;
use bec_core::ExecProfile;
use bec_ir::semantics::{eval_alu, eval_cond};
use bec_ir::{
    AluOp, Cond, Inst, MachineConfig, MemWidth, PointId, PointLayout, Program, Reg, RegMask,
    Terminator,
};

/// Why a run trapped.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashKind {
    /// Memory access outside the address space.
    MemOutOfBounds,
    /// Misaligned memory access.
    Misaligned,
    /// `ret` with a corrupted return address.
    WildReturn,
    /// Call stack exceeded its depth limit.
    StackOverflow,
}

/// Terminal state of a simulated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecOutcome {
    /// The program reached `exit` (or returned from the entry function).
    Completed,
    /// The machine trapped.
    Crashed(CrashKind),
    /// The cycle budget was exhausted.
    Timeout,
}

/// One pre-decoded execution step.
#[derive(Clone, Debug)]
pub(crate) enum FlatStep<'p> {
    /// An ordinary instruction (anything but calls and `la`, which are
    /// pre-resolved below).
    Inst { point: PointId, inst: &'p Inst },
    /// A call with the callee resolved to its function index.
    Call { point: PointId, callee: u32 },
    /// `la` with the global's address resolved.
    La { point: PointId, rd: Reg, addr: u64 },
    /// Zero-cost unconditional jump to a flat index (no cycle, no trace
    /// event).
    Goto { target: u32 },
    /// Conditional branch between two flat indices.
    Branch {
        point: PointId,
        cond: Cond,
        rs1: Reg,
        rs2: Option<Reg>,
        taken: u32,
        fall: u32,
        edges: Edges,
    },
    /// Program exit.
    Exit { point: PointId },
    /// Function return.
    Ret { point: PointId, reads: &'p [Reg] },
}

/// Where a branch's two edges lead, followed through any gotos: what a
/// run whose branch condition flips has in common with the unflipped run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Edges {
    /// Both edges reach the same step through the same number of gotos:
    /// the flipped run's state is the unflipped run's.
    Same,
    /// Both edges reach the same step through different numbers of gotos:
    /// the trace is the same, the step count is not.
    Rejoin,
    /// The edges reach different steps (or a goto cycle): the flipped
    /// run's next trace token differs.
    Split,
}

impl FlatStep<'_> {
    /// The program point of a cycle-consuming step.
    pub(crate) fn point(&self) -> PointId {
        match self {
            FlatStep::Inst { point, .. }
            | FlatStep::Call { point, .. }
            | FlatStep::La { point, .. }
            | FlatStep::Branch { point, .. }
            | FlatStep::Exit { point }
            | FlatStep::Ret { point, .. } => *point,
            FlatStep::Goto { .. } => unreachable!("gotos are resolved before use"),
        }
    }
}

/// One function, flattened.
#[derive(Clone, Debug)]
pub(crate) struct FlatFunc<'p> {
    pub(crate) steps: Vec<FlatStep<'p>>,
    pub(crate) entry_pc: u32,
    /// Flat start index of each block, ascending — the block-entry grain
    /// aligned checkpoint capture snaps to (machine state at a block-entry
    /// boundary is invariant under in-block instruction scheduling).
    pub(crate) block_starts: Vec<u32>,
}

impl FlatFunc<'_> {
    /// Whether flat index `pc` is the first slot of a block.
    pub(crate) fn is_block_entry(&self, pc: u32) -> bool {
        self.block_starts.binary_search(&pc).is_ok()
    }
}

/// The whole program, pre-decoded for the interpreters.
#[derive(Clone, Debug)]
pub(crate) struct FlatProgram<'p> {
    pub(crate) funcs: Vec<FlatFunc<'p>>,
    pub(crate) entry: u32,
    /// Every function's steps decoded into one dense array for
    /// [`run_tail`] and the batched replay (empty on machines whose
    /// registers do not fit the byte slots below [`SINK_SLOT`]; their
    /// campaigns never batch, so they never run tails).
    pub(crate) ops: Vec<Op>,
    /// The registers each op of `ops` reads and writes.
    pub(crate) regs: Vec<OpRegs>,
    /// Index of each function's first op in `ops`.
    pub(crate) bases: Vec<u32>,
    /// Register-file slots entry returns read, indexed by `OpKind::Ret`.
    pub(crate) ret_reads: Vec<u8>,
}

impl<'p> FlatProgram<'p> {
    /// Pre-decodes `program`.
    ///
    /// # Panics
    ///
    /// Panics on a missing entry function, callee or global — run
    /// [`bec_ir::verify_program`] first.
    pub(crate) fn of(program: &'p Program) -> FlatProgram<'p> {
        let entry = program.function_index(&program.entry).expect("entry exists") as u32;
        let funcs: Vec<FlatFunc<'p>> =
            program.functions.iter().map(|f| flatten(program, f)).collect();
        let mut bases = Vec::with_capacity(funcs.len());
        let mut n = 0u32;
        for f in &funcs {
            bases.push(n);
            n += f.steps.len() as u32;
        }
        let mut flat = FlatProgram {
            funcs,
            entry,
            ops: Vec::new(),
            regs: Vec::new(),
            bases,
            ret_reads: Vec::new(),
        };
        if program.config.num_regs <= u32::from(SINK_SLOT) {
            flat.decode(&program.config);
        }
        flat
    }

    /// Decodes every step into `ops`: absolute op indices across
    /// functions, register-file slots, pre-truncated immediates and `la`
    /// addresses, and each cycle-consuming op's trace token; and into
    /// `regs`, the registers each op reads and writes.
    fn decode(&mut self, cfg: &MachineConfig) {
        let mask = cfg.mask();
        let rd = |r: Reg| write_slot(cfg, r);
        let rs = |r: Reg| read_slot(cfg, r);
        let n = self.funcs.iter().map(|f| f.steps.len()).sum();
        let mut ops = Vec::with_capacity(n);
        let mut regs = Vec::with_capacity(n);
        for (fi, f) in self.funcs.iter().enumerate() {
            let base = self.bases[fi];
            for (pc, step) in f.steps.iter().enumerate() {
                regs.push(OpRegs::of(cfg, step));
                let kind = match *step {
                    FlatStep::Goto { target } => OpKind::Goto { target: base + target },
                    FlatStep::Inst { inst, .. } => match *inst {
                        Inst::Alu { op, rd: d, rs1, rs2 } => {
                            OpKind::alu(op, rd(d), rs(rs1), rs(rs2))
                        }
                        Inst::AluImm { op, rd: d, rs1, imm } => {
                            OpKind::alu_imm(op, rd(d), rs(rs1), imm as u64 & mask)
                        }
                        Inst::Li { rd: d, imm } => OpKind::Li { rd: rd(d), imm: imm as u64 & mask },
                        Inst::Mv { rd: d, rs: s } => OpKind::Mv { rd: rd(d), rs: rs(s) },
                        Inst::Neg { rd: d, rs: s } => OpKind::Neg { rd: rd(d), rs: rs(s) },
                        Inst::Seqz { rd: d, rs: s } => OpKind::Seqz { rd: rd(d), rs: rs(s) },
                        Inst::Snez { rd: d, rs: s } => OpKind::Snez { rd: rd(d), rs: rs(s) },
                        Inst::Load { rd: d, base: b, offset, width, signed } => OpKind::Load {
                            rd: rd(d),
                            base: rs(b),
                            width,
                            signed,
                            offset: offset as u64 & mask,
                        },
                        Inst::Store { rs: s, base: b, offset, width } => OpKind::Store {
                            rs: rs(s),
                            base: rs(b),
                            width,
                            offset: offset as u64 & mask,
                        },
                        Inst::Print { rs: s } => OpKind::Print { rs: rs(s) },
                        Inst::Nop => OpKind::Nop,
                        Inst::La { .. } | Inst::Call { .. } => {
                            unreachable!("pre-resolved during flattening")
                        }
                    },
                    FlatStep::La { rd: d, addr, .. } => OpKind::Li { rd: rd(d), imm: addr & mask },
                    FlatStep::Call { point, callee } => OpKind::Call {
                        entry: self.bases[callee as usize] + self.funcs[callee as usize].entry_pc,
                        func: fi as u32,
                        ret_pc: pc as u32 + 1,
                        seed: call_seed(point),
                    },
                    FlatStep::Branch { cond, rs1, rs2, taken, fall, .. } => OpKind::branch(
                        cond,
                        rs(rs1),
                        rs2.map_or(ZERO_SLOT, rs),
                        base + taken,
                        base + fall,
                    ),
                    FlatStep::Exit { .. } => OpKind::Exit,
                    FlatStep::Ret { reads, .. } => {
                        let at = self.ret_reads.len() as u32;
                        self.ret_reads.extend(reads.iter().map(|&r| rs(r)));
                        OpKind::Ret { reads: at, count: reads.len() as u32 }
                    }
                };
                let token = match step {
                    FlatStep::Goto { .. } => 0,
                    _ => trace_token(fi as u32, step.point()),
                };
                ops.push(Op { token, kind });
            }
        }
        self.ops = ops;
        self.regs = regs;
    }
}

fn flatten<'p>(program: &'p Program, f: &'p bec_ir::Function) -> FlatFunc<'p> {
    let layout = PointLayout::of(f);
    // Flat start index of each block: bodies plus one terminator slot each.
    let mut starts = Vec::with_capacity(f.blocks.len());
    let mut n = 0u32;
    for b in &f.blocks {
        starts.push(n);
        n += b.insts.len() as u32 + 1;
    }
    let mut steps = Vec::with_capacity(n as usize);
    for (i, b) in f.blocks.iter().enumerate() {
        let block = bec_ir::BlockId(i as u32);
        for (o, inst) in b.insts.iter().enumerate() {
            let point = layout.point(block, o);
            steps.push(match inst {
                Inst::Call { callee } => {
                    let idx = program.function_index(callee).expect("verified callee") as u32;
                    FlatStep::Call { point, callee: idx }
                }
                Inst::La { rd, global } => {
                    let addr = program.global_address(global).expect("verified global");
                    FlatStep::La { point, rd: *rd, addr }
                }
                _ => FlatStep::Inst { point, inst },
            });
        }
        let point = layout.point(block, b.insts.len());
        steps.push(match &b.term {
            Terminator::Jump { target } => FlatStep::Goto { target: starts[target.index()] },
            Terminator::Branch { cond, rs1, rs2, taken, fallthrough } => FlatStep::Branch {
                point,
                cond: *cond,
                rs1: *rs1,
                rs2: *rs2,
                taken: starts[taken.index()],
                fall: starts[fallthrough.index()],
                edges: Edges::Split,
            },
            Terminator::Exit => FlatStep::Exit { point },
            Terminator::Ret { reads } => FlatStep::Ret { point, reads },
        });
    }
    // The step an edge lands on and the gotos it passes; a goto cycle
    // lands nowhere.
    let landing = |mut pc: u32| {
        for gotos in 0..steps.len() {
            match steps[pc as usize] {
                FlatStep::Goto { target } => pc = target,
                _ => return Some((pc, gotos)),
            }
        }
        None
    };
    let edges: Vec<Edges> = steps
        .iter()
        .map(|s| match *s {
            FlatStep::Branch { taken, fall, .. } => match (landing(taken), landing(fall)) {
                (Some(t), Some(f)) if t == f => Edges::Same,
                (Some((t, _)), Some((f, _))) if t == f => Edges::Rejoin,
                _ => Edges::Split,
            },
            _ => Edges::Split,
        })
        .collect();
    for (s, e) in steps.iter_mut().zip(edges) {
        if let FlatStep::Branch { edges, .. } = s {
            *edges = e;
        }
    }
    FlatFunc { steps, entry_pc: starts[f.entry().index()], block_starts: starts }
}

/// The trace token of the step at `point` of function `func`: the first
/// word every cycle absorbs into the trace hash.
pub(crate) fn trace_token(func: u32, point: PointId) -> u64 {
    (func as u64) << 32 | point.0 as u64
}

/// The local register-file slot reads of the hardwired zero register, and
/// a branch's missing `rs2`, use: never written, so always 0.
const ZERO_SLOT: u8 = u8::MAX;

/// The local register-file slot writes to the hardwired zero register
/// use: written, never read.
pub(crate) const SINK_SLOT: u8 = u8::MAX - 1;

/// The local register-file slot a read of `r` uses.
pub(crate) fn read_slot(cfg: &MachineConfig, r: Reg) -> u8 {
    if cfg.is_zero_reg(r) {
        ZERO_SLOT
    } else {
        r.index() as u8
    }
}

/// The local register-file slot a write to `r` uses.
fn write_slot(cfg: &MachineConfig, r: Reg) -> u8 {
    if cfg.is_zero_reg(r) {
        SINK_SLOT
    } else {
        r.index() as u8
    }
}

/// One decoded op of [`run_tail`] and the batched replay.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    /// The trace token a cycle-consuming op absorbs (0 for gotos).
    pub(crate) token: u64,
    pub(crate) kind: OpKind,
}

/// The registers one op reads and writes, as masks over register indices
/// (bit `i`: register `i`), for the batched replay's taint test. The zero
/// register is in neither: it is never tainted. A branch whose edges are
/// one and the same path reads nothing here, since flipping its condition
/// changes nothing; an entry return's output reads are not listed (the
/// replay checks them when the program ends). Meaningful on machines of at
/// most 64 registers, the only ones that batch.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OpRegs {
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    /// A branch whose edges lead to different steps ([`Edges::Split`]).
    pub(crate) split: bool,
}

impl OpRegs {
    fn of(cfg: &MachineConfig, step: &FlatStep<'_>) -> OpRegs {
        let bit = |r: Reg| if cfg.is_zero_reg(r) { 0 } else { reg_bit(r).0 };
        let none = OpRegs::default();
        match *step {
            FlatStep::Inst { inst, .. } => {
                let rw = inst_rw(inst, cfg.mask());
                let regs = |m: RegMask| m.iter().fold(0, |acc, r| acc | bit(r));
                OpRegs { reads: regs(rw.reads), writes: regs(rw.writes), split: false }
            }
            FlatStep::La { rd, .. } => OpRegs { writes: bit(rd), ..none },
            FlatStep::Call { .. } => OpRegs { writes: bit(Reg::RA), ..none },
            FlatStep::Branch { edges: Edges::Same, .. } => none,
            FlatStep::Branch { rs1, rs2, edges, .. } => OpRegs {
                reads: bit(rs1) | rs2.map_or(0, bit),
                split: edges == Edges::Split,
                ..none
            },
            // A non-entry return checks the link register's token.
            FlatStep::Ret { .. } if cfg.num_regs == 32 => OpRegs { reads: bit(Reg::RA), ..none },
            FlatStep::Ret { .. } | FlatStep::Exit { .. } | FlatStep::Goto { .. } => none,
        }
    }
}

/// Invokes `$then!` with the one list of ops [`run_tail`] dispatches on
/// directly: every ALU op with the names of its register- and
/// immediate-form [`OpKind`] variants, then every branch condition with
/// its variant's. The op enum, its decoder and the tail loop's match are
/// all generated from this list, so they cannot miss or mismatch an op,
/// and each tail arm calls [`eval_alu`]/[`eval_cond`] with a constant op:
/// one jump per op, and [`bec_ir::semantics`] stays the only definition
/// of ALU and branch semantics.
macro_rules! with_tail_ops {
    ($then:ident! { $($args:tt)* }) => {
        $then! {
            $($args)*
            alu: [
                Add AddR AddI, Sub SubR SubI, And AndR AndI, Or OrR OrI, Xor XorR XorI,
                Sll SllR SllI, Srl SrlR SrlI, Sra SraR SraI, Slt SltR SltI,
                Sltu SltuR SltuI, Mul MulR MulI, Mulh MulhR MulhI, Mulhu MulhuR MulhuI,
                Div DivR DivI, Divu DivuR DivuI, Rem RemR RemI, Remu RemuR RemuI
            ]
            cond: [Eq BrEq, Ne BrNe, Lt BrLt, Ge BrGe, Ltu BrLtu, Geu BrGeu]
        }
    };
}

/// Defines [`OpKind`] and its ALU and branch decoders from the list of
/// [`with_tail_ops!`].
macro_rules! define_op_kind {
    (
        alu: [$($op:ident $reg:ident $imm:ident),*]
        cond: [$($cond:ident $br:ident),*]
    ) => {
        /// What an [`Op`] does. Register operands are local register-file
        /// slots, control targets are absolute op indices, and immediates,
        /// offsets and `la` addresses (decoded as `Li`) are truncated to the
        /// machine word. ALU ops and branches name their operation in the
        /// variant itself (`AddR`: `add rd, rs1, rs2`; `AddI`: `addi rd,
        /// rs1, imm`; `BrEq`: `beq rs1, rs2`).
        #[derive(Clone, Copy, Debug)]
        pub(crate) enum OpKind {
            $(
                $reg { rd: u8, rs1: u8, rs2: u8 },
                $imm { rd: u8, rs1: u8, imm: u64 },
            )*
            $($br { rs1: u8, rs2: u8, taken: u32, fall: u32 },)*
            Li { rd: u8, imm: u64 },
            Mv { rd: u8, rs: u8 },
            Neg { rd: u8, rs: u8 },
            Seqz { rd: u8, rs: u8 },
            Snez { rd: u8, rs: u8 },
            Load { rd: u8, base: u8, width: MemWidth, signed: bool, offset: u64 },
            Store { rs: u8, base: u8, width: MemWidth, offset: u64 },
            Print { rs: u8 },
            Nop,
            /// A call: the callee's entry op, then the caller function and
            /// return pc a [`FrameSnap`] records, and the call's
            /// return-address token seed (see [`call_token`]).
            Call { entry: u32, func: u32, ret_pc: u32, seed: u32 },
            Goto { target: u32 },
            Exit,
            /// A return; an entry return outputs `ret_reads[reads..][..count]`.
            Ret { reads: u32, count: u32 },
        }

        impl OpKind {
            /// `op rd, rs1, rs2`.
            fn alu(op: AluOp, rd: u8, rs1: u8, rs2: u8) -> OpKind {
                match op {
                    $(AluOp::$op => OpKind::$reg { rd, rs1, rs2 },)*
                }
            }

            /// `op rd, rs1, imm`.
            fn alu_imm(op: AluOp, rd: u8, rs1: u8, imm: u64) -> OpKind {
                match op {
                    $(AluOp::$op => OpKind::$imm { rd, rs1, imm },)*
                }
            }

            /// A branch on `cond rs1, rs2` to `taken`, else `fall`.
            fn branch(cond: Cond, rs1: u8, rs2: u8, taken: u32, fall: u32) -> OpKind {
                match cond {
                    $(Cond::$cond => OpKind::$br { rs1, rs2, taken, fall },)*
                }
            }
        }

        /// Every ALU op, in list order (complete: the decoders match on
        /// the list exhaustively).
        #[cfg(test)]
        const TAIL_ALU_OPS: &[AluOp] = &[$(AluOp::$op),*];

        /// Every branch condition, in list order.
        #[cfg(test)]
        const TAIL_CONDS: &[Cond] = &[$(Cond::$cond),*];
    };
}

pub(crate) use with_tail_ops;

with_tail_ops!(define_op_kind! {});

/// [`FlatProgram::exec`]'s match on `$kind`: the ALU and branch arms
/// generated from the list of [`with_tail_ops!`] over the register file
/// `$regs`, machine `$cfg` and op index `$pc`, then the hand-written
/// `$rest` arms.
macro_rules! tail_match {
    (
        $kind:expr, $cfg:ident, $regs:ident, $pc:expr, { $($rest:tt)* }
        alu: [$($op:ident $reg:ident $imm:ident),*]
        cond: [$($cond:ident $br:ident),*]
    ) => {
        match $kind {
            $(
                OpKind::$reg { rd, rs1, rs2 } => {
                    let (a, b) = ($regs[rs1 as usize], $regs[rs2 as usize]);
                    $regs[rd as usize] = eval_alu(&$cfg, AluOp::$op, a, b);
                }
                OpKind::$imm { rd, rs1, imm } => {
                    $regs[rd as usize] = eval_alu(&$cfg, AluOp::$op, $regs[rs1 as usize], imm);
                }
            )*
            $(
                OpKind::$br { rs1, rs2, taken, fall } => {
                    let (a, b) = ($regs[rs1 as usize], $regs[rs2 as usize]);
                    $pc = if eval_cond(&$cfg, Cond::$cond, a, b) { taken } else { fall };
                }
            )*
            $($rest)*
        }
    };
}

impl FlatProgram<'_> {
    /// Executes the cycle-consuming op `op` (anything but a goto) at
    /// `s.pc` on `s` and `memory`, logging every written memory word in
    /// `dirty`: absorbs the op's trace token and events into the trace
    /// hash iff `HASH`, and leaves `s.pc` at the next op. Returns the
    /// run's outcome when the op ends it. Every run over decoded ops —
    /// forked-lane tails and the batched golden replay — executes its
    /// ops here.
    #[inline(always)]
    pub(crate) fn exec<const HASH: bool>(
        &self,
        cfg: MachineConfig,
        op: Op,
        s: &mut OpState,
        memory: &mut Memory,
        dirty: &mut Vec<(u32, u32)>,
    ) -> Option<ExecOutcome> {
        let mask = cfg.mask();
        if HASH {
            s.hash.update(op.token);
        }
        s.pc += 1;
        let regs = &mut s.regs;
        // One jump per op: the ALU and branch arms are generated per op.
        with_tail_ops!(tail_match! { op.kind, cfg, regs, s.pc, {
            OpKind::Li { rd, imm } => regs[rd as usize] = imm,
            OpKind::Mv { rd, rs } => regs[rd as usize] = regs[rs as usize],
            OpKind::Neg { rd, rs } => {
                regs[rd as usize] = 0u64.wrapping_sub(regs[rs as usize]) & mask
            }
            OpKind::Seqz { rd, rs } => regs[rd as usize] = u64::from(regs[rs as usize] == 0),
            OpKind::Snez { rd, rs } => regs[rd as usize] = u64::from(regs[rs as usize] != 0),
            OpKind::Load { rd, base, width, signed, offset } => {
                let addr = effective_address(regs[base as usize], offset, mask);
                let size = width.bytes();
                let raw = match load(memory, addr, size) {
                    Ok(raw) => raw,
                    Err(kind) => return Some(ExecOutcome::Crashed(kind)),
                };
                if HASH {
                    s.hash.update(access_event(LOAD_EVENT, addr));
                    s.hash.update(raw);
                }
                regs[rd as usize] = extend_load(raw, signed, size) & mask;
            }
            OpKind::Store { rs, base, width, offset } => {
                let addr = effective_address(regs[base as usize], offset, mask);
                let size = width.bytes();
                let value = regs[rs as usize] & width_mask(size);
                if let Err(kind) = store(memory, addr, size, value, dirty) {
                    return Some(ExecOutcome::Crashed(kind));
                }
                if HASH {
                    s.hash.update(access_event(STORE_EVENT, addr));
                    s.hash.update(value);
                }
            }
            OpKind::Print { rs } => {
                let v = regs[rs as usize];
                if HASH {
                    s.hash.update(PRINT_EVENT);
                    s.hash.update(v);
                }
                s.outputs.push(v);
            }
            OpKind::Nop => {}
            OpKind::Call { entry, func, ret_pc, seed } => {
                if s.stack.len() >= MAX_CALL_DEPTH {
                    return Some(ExecOutcome::Crashed(CrashKind::StackOverflow));
                }
                let ra_token = call_token(seed, s.stack.len(), mask);
                regs[write_slot(&cfg, Reg::RA) as usize] = ra_token;
                s.stack.push(FrameSnap { func, ret_pc, ra_token });
                s.pc = entry;
            }
            OpKind::Exit => return Some(ExecOutcome::Completed),
            OpKind::Ret { reads, count } => match s.stack.pop() {
                None => {
                    for &slot in &self.ret_reads[reads as usize..][..count as usize] {
                        let v = regs[slot as usize];
                        if HASH {
                            s.hash.update(OUTPUT_EVENT);
                            s.hash.update(v);
                        }
                        s.outputs.push(v);
                    }
                    return Some(ExecOutcome::Completed);
                }
                Some(frame) => {
                    // Returns check the token only where `ra` is the ABI
                    // link register.
                    let ra = regs[read_slot(&cfg, Reg::RA) as usize];
                    if cfg.num_regs == 32 && ra != frame.ra_token {
                        return Some(ExecOutcome::Crashed(CrashKind::WildReturn));
                    }
                    s.pc = self.bases[frame.func as usize] + frame.ret_pc;
                }
            },
            OpKind::Goto { .. } => unreachable!("gotos take no cycle"),
        }});
        None
    }
}

/// The effective address of a memory access: base plus offset, wrapped to
/// the machine word.
pub(crate) fn effective_address(base: u64, offset: u64, xlen_mask: u64) -> u64 {
    base.wrapping_add(offset) & xlen_mask
}

/// The low bits a memory access of `size` bytes moves.
pub(crate) fn width_mask(size: u64) -> u64 {
    if size >= 8 {
        u64::MAX
    } else {
        (1 << (size * 8)) - 1
    }
}

/// A loaded value: the raw bits of a `size`-byte access, sign-extended
/// from the access width when `signed` (truncation to the machine word is
/// left to the register write).
pub(crate) fn extend_load(raw: u64, signed: bool, size: u64) -> u64 {
    if signed && raw >> (size * 8 - 1) & 1 != 0 {
        raw | !width_mask(size)
    } else {
        raw
    }
}

/// The size-aligned load of `size` bytes at `addr`, or the trap it takes.
fn load(memory: &Memory, addr: u64, size: u64) -> Result<u64, CrashKind> {
    if !addr.is_multiple_of(size) {
        return Err(CrashKind::Misaligned);
    }
    memory.load(addr, size).ok_or(CrashKind::MemOutOfBounds)
}

/// The size-aligned store of the `size`-byte `value` at `addr`, logging
/// the touched word's previous value in `dirty`. Returns the word index
/// and that previous value (a size-aligned store of ≤4 bytes changes
/// exactly one word), or the trap the store takes.
fn store(
    memory: &mut Memory,
    addr: u64,
    size: u64,
    value: u64,
    dirty: &mut Vec<(u32, u32)>,
) -> Result<(u32, u32), CrashKind> {
    if !addr.is_multiple_of(size) {
        return Err(CrashKind::Misaligned);
    }
    let widx = (addr >> 2) as u32;
    let old = memory.word(widx);
    if !memory.store(addr, size, value) {
        return Err(CrashKind::MemOutOfBounds);
    }
    dirty.push((widx, old));
    Ok((widx, old))
}

/// The trace-hash word opening a load or store event at `addr`; the
/// loaded or stored bits follow it.
fn access_event(kind: u64, addr: u64) -> u64 {
    kind ^ addr.rotate_left(8)
}

/// Event kinds of [`access_event`].
const LOAD_EVENT: u64 = 0x10;
const STORE_EVENT: u64 = 0x20;
/// The trace-hash word preceding a printed value.
const PRINT_EVENT: u64 = 0x30;
/// The trace-hash word preceding each value an entry return outputs.
const OUTPUT_EVENT: u64 = 0x40;

/// Call depth at which a further call traps as a stack overflow.
pub(crate) const MAX_CALL_DEPTH: usize = 512;

/// The return-address token seed of a call at `point`.
pub(crate) fn call_seed(point: PointId) -> u32 {
    0x4000_0000 ^ point.0
}

/// The synthetic return-address token a call with seed `seed` made at call
/// depth `depth` leaves in `ra`; the matching return checks it.
pub(crate) fn call_token(seed: u32, depth: usize, xlen_mask: u64) -> u64 {
    (seed as u64 ^ (depth as u64) << 16) & xlen_mask
}

/// The per-cycle word stream of a recording run's trace hash: everything
/// the run fed into [`TraceHash::update`], segmented by cycle. Word 0 of
/// each cycle is the executed point's token; the rest are the cycle's
/// memory/output payload words. The shared golden substrate
/// (`crate::substrate`) replays this tape in a scheduled variant's cycle
/// order to derive the variant's hash states without re-simulating.
#[derive(Clone, Debug, Default)]
pub(crate) struct HashTape {
    /// All absorbed words, in absorption order.
    pub(crate) words: Vec<u64>,
    /// `starts[c]` = index into `words` where cycle `c`'s words begin
    /// (cycle `c` spans `starts[c]..starts[c + 1]`, the last cycle runs to
    /// `words.len()`).
    pub(crate) starts: Vec<u32>,
}

impl HashTape {
    /// The words cycle `c` absorbed (token first).
    pub(crate) fn cycle_words(&self, c: usize) -> &[u64] {
        let lo = self.starts[c] as usize;
        let hi = self.starts.get(c + 1).map(|&i| i as usize).unwrap_or(self.words.len());
        &self.words[lo..hi]
    }
}

/// Appends `w` to the open cycle of a recording tape, if one is attached.
fn tape_push(tape: &mut Option<&mut HashTape>, w: u64) {
    if let Some(t) = tape.as_deref_mut() {
        t.words.push(w);
    }
}

/// Everything a single completed run produces.
pub(crate) struct RawRun {
    pub outcome: ExecOutcome,
    pub outputs: Vec<u64>,
    pub cycles: u64,
    pub hash: TraceHash,
    /// Terminal memory digest relative to the initial image (0 unless the
    /// run tracked it: recording/golden runs and checkpointed fault runs).
    pub mem_digest: u128,
    pub profile: Option<ExecProfile>,
    pub cycle_map: Option<Vec<(u32, PointId, u32)>>,
    /// Per-cycle read/write events, recorded while capturing checkpoints
    /// (feeds the per-bit dynamic-liveness backward pass).
    pub rw_map: Option<Vec<RwEvent>>,
}

/// How precisely one cycle's register reads propagate liveness backwards.
///
/// The conservative rule makes every read register fully live. Bitwise
/// operations are refined to per-bit propagation: bit `i` of the result
/// depends only on bit `i` of each source, so a source bit is live only
/// when the corresponding destination bit is live *after* the instruction
/// (and, for masking immediates, only when the immediate keeps it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum ReadPrecision {
    /// Every read register is live in all xlen bits.
    Full,
    /// The reads feed `rd` bit-for-bit under `mask`:
    /// `live_in(src) ⊇ live_out(rd) & mask` and nothing more (bitwise
    /// AND/OR/XOR with a register or immediate, and `mv`).
    PerBit { rd: Reg, mask: u64 },
    /// A store: the value register `rs` is observed only in its low
    /// `width × 8` bits (`mask`); every other read (the base address)
    /// stays fully live.
    StoreValue { rs: Reg, mask: u64 },
}

/// Registers one executed cycle read and wrote, with the per-bit
/// refinement used by the liveness backward pass.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RwEvent {
    pub(crate) reads: RegMask,
    pub(crate) writes: RegMask,
    pub(crate) precision: ReadPrecision,
}

impl RwEvent {
    fn full(reads: RegMask, writes: RegMask) -> RwEvent {
        RwEvent { reads, writes, precision: ReadPrecision::Full }
    }

    fn empty() -> RwEvent {
        RwEvent::full(RegMask::empty(), RegMask::empty())
    }
}

/// How a run ended: normally, or by provable re-convergence with the
/// golden run.
pub(crate) enum RunVerdict {
    /// The run executed to a terminal state.
    Finished(RawRun),
    /// The faulted run's state became equal to the golden run's at an
    /// aligned `cycle`: the remaining trace is the golden suffix, the run
    /// is Benign, and the tail was skipped.
    Converged {
        /// The aligned cycle equality was established at.
        cycle: u64,
        /// Cycles actually simulated (from the restored checkpoint).
        simulated: u64,
    },
}

/// Resume context of a checkpointed fault run.
pub(crate) struct ResumeCtx<'a> {
    /// The golden run's checkpoints.
    pub log: &'a CheckpointLog,
    /// The golden run's outputs (the restored run inherits the prefix).
    pub golden_outputs: &'a [u64],
}

/// The live executor state next to the caller-provided [`Machine`].
///
/// Crate-visible so the bitsliced engine (`crate::bitslice`) can maintain
/// an identical replay state and hand a forked lane's state to
/// [`run_tail`].
pub(crate) struct ExecState {
    pub(crate) hash: TraceHash,
    pub(crate) outputs: Vec<u64>,
    pub(crate) cycle: u64,
    pub(crate) steps: u64,
    pub(crate) func: u32,
    pub(crate) pc: u32,
    pub(crate) stack: Vec<FrameSnap>,
    /// Incremental memory digest relative to the initial image.
    pub(crate) mem_digest: u128,
}

impl ExecState {
    /// The state at the program entry, before the first step.
    pub(crate) fn fresh(flat: &FlatProgram<'_>) -> ExecState {
        ExecState {
            hash: TraceHash::new(),
            outputs: Vec::new(),
            cycle: 0,
            steps: 0,
            func: flat.entry,
            pc: flat.funcs[flat.entry as usize].entry_pc,
            stack: Vec::new(),
            mem_digest: 0,
        }
    }

    /// Restores checkpoint `idx` of `log` into `machine` (which must be in
    /// initial state): applies the checkpoint's cumulative memory image
    /// (recording each word's previous value in `dirty`), restores the
    /// captured registers, and inherits the golden output prefix. `steps`
    /// is set one below the boundary value so the loop-top increment
    /// reproduces it exactly.
    pub(crate) fn restore(
        log: &CheckpointLog,
        idx: usize,
        golden_outputs: &[u64],
        machine: &mut Machine,
        dirty: &mut Vec<(u32, u32)>,
    ) -> ExecState {
        let ck = &log.checkpoints[idx];
        for &(w, v) in &ck.mem_image {
            dirty.push((w, machine.memory.word(w)));
            machine.memory.set_word(w, v);
        }
        machine.restore_regs(&ck.regs);
        ExecState {
            hash: ck.hash,
            outputs: golden_outputs[..ck.outputs_len as usize].to_vec(),
            cycle: ck.cycle,
            steps: ck.steps - 1,
            func: ck.pos.0,
            pc: ck.pos.1,
            stack: ck.stack.clone(),
            mem_digest: ck.mem_digest,
        }
    }

    /// Whether this state equals the golden checkpoint `ck` in every
    /// component the executor's future depends on. Register *bits* the
    /// golden suffix overwrites before reading (`ck.live_bits`) may differ
    /// — they cannot influence anything before they die.
    fn matches(&self, machine: &Machine, ck: &Checkpoint) -> bool {
        self.steps == ck.steps
            && (self.func, self.pc) == ck.pos
            && self.hash == ck.hash
            && self.mem_digest == ck.mem_digest
            && self.outputs.len() == ck.outputs_len as usize
            && self.stack == ck.stack
            && regs_match(machine.regs(), &ck.regs, &ck.live_bits)
    }
}

/// Register-file equality modulo dynamically dead *bits*: register `i` may
/// differ exactly in the bits clear in `live[i]`.
fn regs_match(mine: &[u64], golden: &[u64], live: &[u64]) -> bool {
    debug_assert_eq!(mine.len(), golden.len());
    debug_assert_eq!(mine.len(), live.len());
    mine.iter().zip(golden).zip(live).all(|((a, b), m)| (a ^ b) & m == 0)
}

/// The register mask of `r` in a read/write mask (registers past the mask
/// width contribute nothing; the liveness pass keeps them fully live so
/// convergence compares them exactly).
fn reg_bit(r: Reg) -> RegMask {
    RegMask::of_saturating(r)
}

/// The read/write event of one instruction: read/written register masks
/// plus the per-bit refinement of how the reads feed the result.
pub(crate) fn inst_rw(inst: &Inst, xlen_mask: u64) -> RwEvent {
    let full = RwEvent::full;
    let per_bit = |reads: RegMask, rd: Reg, mask: u64| RwEvent {
        reads,
        writes: reg_bit(rd),
        precision: ReadPrecision::PerBit { rd, mask },
    };
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            let reads = reg_bit(*rs1).union(reg_bit(*rs2));
            match op {
                // Bit i of the result depends only on bit i of each source.
                AluOp::And | AluOp::Or | AluOp::Xor => per_bit(reads, *rd, xlen_mask),
                _ => full(reads, reg_bit(*rd)),
            }
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let reads = reg_bit(*rs1);
            let imm = *imm as u64 & xlen_mask;
            match op {
                // `andi` keeps only the bits set in the immediate; `ori`
                // forces the bits set in the immediate, so only the clear
                // ones still come from the source.
                AluOp::And => per_bit(reads, *rd, imm),
                AluOp::Or => per_bit(reads, *rd, !imm & xlen_mask),
                AluOp::Xor => per_bit(reads, *rd, xlen_mask),
                _ => full(reads, reg_bit(*rd)),
            }
        }
        Inst::Li { rd, .. } | Inst::La { rd, .. } => full(RegMask::empty(), reg_bit(*rd)),
        Inst::Mv { rd, rs } => per_bit(reg_bit(*rs), *rd, xlen_mask),
        Inst::Neg { rd, rs } | Inst::Seqz { rd, rs } | Inst::Snez { rd, rs } => {
            full(reg_bit(*rs), reg_bit(*rd))
        }
        Inst::Load { rd, base, .. } => full(reg_bit(*base), reg_bit(*rd)),
        Inst::Store { rs, base, width, .. } => {
            let width_mask = match width.bytes() {
                b if b >= 8 => xlen_mask,
                b => (1u64 << (b * 8)) - 1,
            };
            RwEvent {
                reads: reg_bit(*rs).union(reg_bit(*base)),
                writes: RegMask::empty(),
                // When the value register is also the base, the address
                // needs all of it live — fall back to the full rule.
                precision: if rs == base {
                    ReadPrecision::Full
                } else {
                    ReadPrecision::StoreValue { rs: *rs, mask: width_mask & xlen_mask }
                },
            }
        }
        Inst::Print { rs } => full(reg_bit(*rs), RegMask::empty()),
        Inst::Call { .. } | Inst::Nop => RwEvent::empty(),
    }
}

/// Folds one executed cycle into the running backward-liveness vector
/// (`live[i]` = bits of register `i` the suffix observes before
/// overwriting). Gen masks derive from the liveness *after* the
/// instruction, so they are computed before the kill — a register that is
/// both read and written (e.g. `addi t0, t0, -1`) stays live.
pub(crate) fn apply_rw_backward(live: &mut [u64], ev: &RwEvent, xlen_mask: u64) {
    // The shared gen mask is derived from post-instruction liveness, so it
    // is computed before the kill (PerBit writes exactly `rd`; the other
    // precisions don't read `live` at all).
    let shared_gen = match ev.precision {
        ReadPrecision::Full | ReadPrecision::StoreValue { .. } => xlen_mask,
        ReadPrecision::PerBit { rd, mask } => {
            live.get(rd.index() as usize).copied().unwrap_or(u64::MAX) & mask
        }
    };
    for w in ev.writes.iter() {
        if let Some(m) = live.get_mut(w.index() as usize) {
            *m = 0;
        }
    }
    for r in ev.reads.iter() {
        let g = match ev.precision {
            ReadPrecision::StoreValue { rs, mask } if r == rs => mask,
            _ => shared_gen,
        };
        if let Some(m) = live.get_mut(r.index() as usize) {
            *m |= g;
        }
    }
}

/// Runs `program` on `machine` (which must be in initial state) from its
/// entry function, or from a restored checkpoint.
///
/// Every memory word the run writes — including restored checkpoint
/// deltas — is appended to `dirty`, so the caller can undo the run and
/// reuse the machine.
///
/// `fault` optionally injects one bit flip before the instruction at the
/// given cycle. `record` enables the golden-run instrumentation (execution
/// profile and cycle→point map). `capture` records checkpoints into the
/// given log under its spacing policy (golden runs; a log with
/// `Uniform(0)` spacing records nothing but still enables digest
/// tracking). `tape` additionally records every absorbed trace-hash word,
/// segmented per cycle (substrate recording runs). `resume` restores the
/// nearest checkpoint at or before the fault cycle and enables the
/// convergence early-exit (fault runs; requires `fault`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run(
    flat: &FlatProgram<'_>,
    max_cycles: u64,
    fault: Option<FaultSpec>,
    record: bool,
    mut capture: Option<&mut CheckpointLog>,
    mut tape: Option<&mut HashTape>,
    resume: Option<ResumeCtx<'_>>,
    machine: &mut Machine,
    dirty: &mut Vec<(u32, u32)>,
) -> RunVerdict {
    let mut profile = record.then(ExecProfile::new);
    let mut cycle_map = record.then(Vec::new);
    let mut rw_map = capture.as_deref().is_some_and(CheckpointLog::captures).then(Vec::new);
    let step_limit = max_cycles.saturating_mul(2) + 1024;

    // Maintain the incremental memory digest only when checkpoints are in
    // play; plain runs skip the per-store mixing.
    let capturing = capture.is_some();
    let converging = resume.as_ref().is_some_and(|r| r.log.is_enabled());
    // Recording (golden) runs track the digest too: the terminal digest is
    // the memory-equality side of the scheduler's semantic-equivalence
    // check (`bec study`), and golden runs happen once per campaign.
    let track_digest = capturing || converging || record;
    // Watermark into `dirty` marking the start of the current checkpoint
    // interval (capture never drains the list — the caller owns it), plus
    // the running cumulative dirty-word image captured checkpoints store.
    let mut delta_start = dirty.len();
    let mut cum_image: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();

    let mut st = match &resume {
        Some(ctx) if ctx.log.is_enabled() => {
            let f = fault.expect("resumed runs inject a fault");
            let idx = ctx.log.nearest_at_or_before(f.cycle);
            ExecState::restore(ctx.log, idx, ctx.golden_outputs, machine, dirty)
        }
        _ => ExecState::fresh(flat),
    };
    let start_cycle = st.cycle;

    // A convergence early-exit claims the run finishes exactly like the
    // golden suffix — only valid if that suffix itself fits this run's
    // budget (the golden run may have been recorded under different
    // limits).
    let early_exit_ok = resume.as_ref().is_some_and(|r| {
        r.log.completed && r.log.final_cycles <= max_cycles && r.log.final_steps < step_limit
    });

    enum LoopEnd {
        Outcome(ExecOutcome),
        Converged(u64),
    }

    let end = 'run: loop {
        st.steps += 1;
        if st.cycle >= max_cycles || st.steps >= step_limit {
            break LoopEnd::Outcome(ExecOutcome::Timeout);
        }
        let step = &flat.funcs[st.func as usize].steps[st.pc as usize];

        // Zero-cost fallthrough: unconditional jumps take no cycle and
        // leave no trace event (block layout is not modeled; DESIGN.md §2).
        if let FlatStep::Goto { target } = step {
            st.pc = *target;
            continue;
        }

        // Canonical cycle boundary: the next step consumes a cycle.
        if let Some(log) = capture.as_deref_mut() {
            let at_block_entry = || flat.funcs[st.func as usize].is_block_entry(st.pc);
            if log.capture_due(st.cycle, at_block_entry) {
                for &(w, _) in &dirty[delta_start..] {
                    cum_image.insert(w, machine.memory.word(w));
                }
                delta_start = dirty.len();
                log.checkpoints.push(Checkpoint {
                    cycle: st.cycle,
                    steps: st.steps,
                    pos: (st.func, st.pc),
                    stack: st.stack.clone(),
                    regs: machine.regs().to_vec(),
                    hash: st.hash,
                    mem_digest: st.mem_digest,
                    outputs_len: st.outputs.len() as u32,
                    mem_image: cum_image.iter().map(|(&w, &v)| (w, v)).collect(),
                    // Exact comparison until the liveness pass runs.
                    live_bits: vec![u64::MAX; machine.regs().len()],
                });
                log.note_captured(st.cycle);
            }
        }
        if early_exit_ok {
            if let (Some(ctx), Some(f)) = (&resume, fault) {
                if st.cycle > f.cycle {
                    if let Some(ck) = ctx.log.at_cycle(st.cycle) {
                        if st.matches(machine, ck) {
                            break 'run LoopEnd::Converged(st.cycle);
                        }
                    }
                }
            }
        }

        // Fault injection happens on the cycle boundary, before execution.
        if let Some(fs) = fault {
            if fs.cycle == st.cycle {
                machine.flip(fs.reg, fs.bit);
            }
        }

        // Trace: the executed point.
        let point = step.point();
        let token = trace_token(st.func, point);
        st.hash.update(token);
        if let Some(t) = tape.as_deref_mut() {
            t.starts.push(t.words.len() as u32);
            t.words.push(token);
        }
        if let Some(p) = profile.as_mut() {
            p.add(st.func as usize, point, 1);
        }
        if let Some(m) = cycle_map.as_mut() {
            m.push((st.func, point, st.stack.len() as u32));
        }
        st.cycle += 1;

        // Per-cycle read/write events feed the liveness backward pass; the
        // derivation is only paid on capturing (golden) runs — `track_rw`
        // is false in the campaign hot path.
        let track_rw = rw_map.is_some();
        let xlen_mask = machine.config().truncate(u64::MAX);
        let rw: RwEvent;
        match step {
            FlatStep::Goto { .. } => unreachable!("handled above"),
            FlatStep::Inst { inst, .. } => {
                rw = if track_rw { inst_rw(inst, xlen_mask) } else { RwEvent::empty() };
                let digest = track_digest.then_some(&mut st.mem_digest);
                let t = tape.as_deref_mut().map(|t| &mut t.words);
                match step_inst(machine, inst, &mut st.hash, &mut st.outputs, digest, t, dirty) {
                    StepResult::Next => st.pc += 1,
                    StepResult::Trap(kind) => break LoopEnd::Outcome(ExecOutcome::Crashed(kind)),
                }
            }
            FlatStep::La { rd, addr, .. } => {
                rw = RwEvent::full(RegMask::empty(), reg_bit(*rd));
                machine.write(*rd, *addr);
                st.pc += 1;
            }
            FlatStep::Call { callee, .. } => {
                rw = RwEvent::full(RegMask::empty(), reg_bit(Reg::RA));
                if st.stack.len() >= MAX_CALL_DEPTH {
                    break LoopEnd::Outcome(ExecOutcome::Crashed(CrashKind::StackOverflow));
                }
                let token = call_token(call_seed(point), st.stack.len(), xlen_mask);
                machine.write(Reg::RA, token);
                st.stack.push(FrameSnap { func: st.func, ret_pc: st.pc + 1, ra_token: token });
                st.func = *callee;
                st.pc = flat.funcs[*callee as usize].entry_pc;
            }
            FlatStep::Branch { cond, rs1, rs2, taken, fall, .. } => {
                rw = RwEvent::full(
                    rs2.map(reg_bit).unwrap_or_default().union(reg_bit(*rs1)),
                    RegMask::empty(),
                );
                let a = machine.read(*rs1);
                let b = rs2.map(|r| machine.read(r)).unwrap_or(0);
                st.pc = if eval_cond(machine.config(), *cond, a, b) { *taken } else { *fall };
            }
            FlatStep::Exit { .. } => break LoopEnd::Outcome(ExecOutcome::Completed),
            FlatStep::Ret { reads, .. } => match st.stack.pop() {
                None => {
                    // The entry function's return values are the program's
                    // observable outcome.
                    let mut r_mask = RegMask::empty();
                    for r in *reads {
                        r_mask = r_mask.union(reg_bit(*r));
                        let v = machine.read(*r);
                        st.hash.update(OUTPUT_EVENT);
                        st.hash.update(v);
                        tape_push(&mut tape, OUTPUT_EVENT);
                        tape_push(&mut tape, v);
                        st.outputs.push(v);
                    }
                    if let Some(m) = rw_map.as_mut() {
                        m.push(RwEvent::full(r_mask, RegMask::empty()));
                    }
                    break LoopEnd::Outcome(ExecOutcome::Completed);
                }
                Some(frame) => {
                    let have_ra = machine.config().num_regs == 32;
                    rw = RwEvent::full(
                        if have_ra { reg_bit(Reg::RA) } else { RegMask::empty() },
                        RegMask::empty(),
                    );
                    if have_ra && machine.read(Reg::RA) != frame.ra_token {
                        break 'run LoopEnd::Outcome(ExecOutcome::Crashed(CrashKind::WildReturn));
                    }
                    st.func = frame.func;
                    st.pc = frame.ret_pc;
                }
            },
        }
        if let Some(m) = rw_map.as_mut() {
            m.push(rw);
        }
    };

    match end {
        LoopEnd::Converged(cycle) => {
            RunVerdict::Converged { cycle, simulated: cycle - start_cycle }
        }
        LoopEnd::Outcome(outcome) => {
            if let Some(log) = capture {
                log.final_cycles = st.cycle;
                log.final_steps = st.steps;
                log.completed = outcome == ExecOutcome::Completed;
            }
            RunVerdict::Finished(RawRun {
                outcome,
                outputs: st.outputs,
                cycles: st.cycle,
                hash: st.hash,
                mem_digest: st.mem_digest,
                profile,
                cycle_map,
                rw_map,
            })
        }
    }
}

/// The state a run over decoded ops keeps besides memory: a local
/// register file indexed by register-file slot (byte slots index it with
/// no bounds checks), the absolute index of the next op, and the trace,
/// output and call-stack state.
#[derive(Clone)]
pub(crate) struct OpState {
    pub(crate) regs: [u64; 256],
    pub(crate) pc: u32,
    pub(crate) cycle: u64,
    pub(crate) steps: u64,
    pub(crate) hash: TraceHash,
    pub(crate) outputs: Vec<u64>,
    pub(crate) stack: Vec<FrameSnap>,
}

impl OpState {
    /// The op-level form of the executor state `state` over the register
    /// file `regs`.
    pub(crate) fn new(flat: &FlatProgram<'_>, state: ExecState, regs: &[u64]) -> OpState {
        let ExecState { hash, outputs, cycle, steps, func, pc, stack, .. } = state;
        let mut file = [0u64; 256];
        file[..regs.len()].copy_from_slice(regs);
        OpState {
            regs: file,
            pc: flat.bases[func as usize] + pc,
            cycle,
            steps,
            hash,
            outputs,
            stack,
        }
    }
}

/// Runs the tail of a forked bitsliced lane: `s` and `memory` hold the
/// lane's exact mid-run state (as the scalar engine would have reached
/// it), and the run executes to a terminal outcome with no convergence
/// checks — a forked lane has already left the golden control path, so it
/// can never match a golden checkpoint again.
///
/// The tail walks the decoded ops and ends in exactly the state [`run`]
/// would: `s` holds the final registers, outputs, cycle count and trace
/// hash, `memory` the final memory, and every written word is logged in
/// `dirty`. With `keep_hash` false the trace hash is left untouched, so
/// the final hash is the start state's. Callers pass false only for a
/// lane whose trace already differs from the golden run's, and classify
/// it by outcome and outputs alone.
pub(crate) fn run_tail(
    flat: &FlatProgram<'_>,
    cfg: MachineConfig,
    max_cycles: u64,
    s: &mut OpState,
    memory: &mut Memory,
    dirty: &mut Vec<(u32, u32)>,
    keep_hash: bool,
) -> ExecOutcome {
    if keep_hash {
        tail::<true>(flat, cfg, max_cycles, s, memory, dirty)
    } else {
        tail::<false>(flat, cfg, max_cycles, s, memory, dirty)
    }
}

/// The tail loop of [`run_tail`], with the trace hash updated iff `HASH`.
fn tail<const HASH: bool>(
    flat: &FlatProgram<'_>,
    cfg: MachineConfig,
    max_cycles: u64,
    s: &mut OpState,
    memory: &mut Memory,
    dirty: &mut Vec<(u32, u32)>,
) -> ExecOutcome {
    assert!(!flat.ops.is_empty(), "tails run on machines with decoded ops");
    let step_limit = max_cycles.saturating_mul(2) + 1024;
    loop {
        s.steps += 1;
        if s.cycle >= max_cycles || s.steps >= step_limit {
            return ExecOutcome::Timeout;
        }
        let op = flat.ops[s.pc as usize];
        if let OpKind::Goto { target } = op.kind {
            s.pc = target;
            continue;
        }
        s.cycle += 1;
        if let Some(outcome) = flat.exec::<HASH>(cfg, op, s, memory, dirty) {
            return outcome;
        }
    }
}

enum StepResult {
    Next,
    Trap(CrashKind),
}

fn step_inst(
    m: &mut Machine,
    inst: &Inst,
    hash: &mut TraceHash,
    outputs: &mut Vec<u64>,
    digest: Option<&mut u128>,
    mut tape: Option<&mut Vec<u64>>,
    dirty: &mut Vec<(u32, u32)>,
) -> StepResult {
    // Mirrors every `hash.update` with a tape append (substrate recording).
    let mut note = |hash: &mut TraceHash, w: u64| {
        hash.update(w);
        if let Some(t) = tape.as_deref_mut() {
            t.push(w);
        }
    };
    let c = *m.config();
    match inst {
        Inst::Li { rd, imm } => m.write(*rd, *imm as u64),
        Inst::La { .. } | Inst::Call { .. } => {
            unreachable!("pre-resolved during flattening")
        }
        Inst::Mv { rd, rs } => m.write(*rd, m.read(*rs)),
        Inst::Neg { rd, rs } => m.write(*rd, 0u64.wrapping_sub(m.read(*rs))),
        Inst::Seqz { rd, rs } => m.write(*rd, u64::from(m.read(*rs) == 0)),
        Inst::Snez { rd, rs } => m.write(*rd, u64::from(m.read(*rs) != 0)),
        Inst::Alu { op, rd, rs1, rs2 } => {
            m.write(*rd, eval_alu(&c, *op, m.read(*rs1), m.read(*rs2)));
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            m.write(*rd, eval_alu(&c, *op, m.read(*rs1), *imm as u64));
        }
        Inst::Load { rd, base, offset, width, signed } => {
            let addr = effective_address(m.read(*base), *offset as u64, c.mask());
            let size = width.bytes();
            let raw = match load(&m.memory, addr, size) {
                Ok(raw) => raw,
                Err(kind) => return StepResult::Trap(kind),
            };
            note(hash, access_event(LOAD_EVENT, addr));
            note(hash, raw);
            m.write(*rd, extend_load(raw, *signed, size));
        }
        Inst::Store { rs, base, offset, width } => {
            let addr = effective_address(m.read(*base), *offset as u64, c.mask());
            let size = width.bytes();
            let value = m.read(*rs) & width_mask(size);
            let (widx, old) = match store(&mut m.memory, addr, size, value, dirty) {
                Ok(touched) => touched,
                Err(kind) => return StepResult::Trap(kind),
            };
            if let Some(d) = digest {
                *d ^= mem_mix(widx, old) ^ mem_mix(widx, m.memory.word(widx));
            }
            note(hash, access_event(STORE_EVENT, addr));
            note(hash, value);
        }
        Inst::Print { rs } => {
            let v = m.read(*rs);
            note(hash, PRINT_EVENT);
            note(hash, v);
            outputs.push(v);
        }
        Inst::Nop => {}
    }
    StepResult::Next
}

#[cfg(test)]
mod tail_differential;

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::{AluOp, MemWidth};

    /// `inst_rw` duplicates `Inst::reads`/`Inst::writes` as bitmasks for
    /// the liveness hot path; this pins the two definitions together so a
    /// new instruction cannot update one and silently skip the other.
    #[test]
    fn inst_rw_agrees_with_ir_read_write_sets() {
        let r = Reg::phys;
        let insts = [
            Inst::Alu { op: AluOp::Add, rd: r(1), rs1: r(2), rs2: r(3) },
            Inst::AluImm { op: AluOp::And, rd: r(4), rs1: r(5), imm: 3 },
            Inst::Li { rd: r(6), imm: 7 },
            Inst::La { rd: r(7), global: "g".into() },
            Inst::Mv { rd: r(8), rs: r(9) },
            Inst::Neg { rd: r(10), rs: r(11) },
            Inst::Seqz { rd: r(12), rs: r(13) },
            Inst::Snez { rd: r(14), rs: r(15) },
            Inst::Load { rd: r(16), base: r(17), offset: 0, width: MemWidth::Word, signed: false },
            Inst::Store { rs: r(18), base: r(19), offset: 4, width: MemWidth::Half },
            Inst::Store { rs: r(21), base: r(21), offset: 0, width: MemWidth::Word },
            Inst::Call { callee: "f".into() },
            Inst::Print { rs: r(20) },
            Inst::Nop,
        ];
        let mask = |regs: &[Reg]| regs.iter().fold(RegMask::empty(), |m, &r| m.union(reg_bit(r)));
        for inst in &insts {
            let ev = inst_rw(inst, u64::MAX);
            assert_eq!(ev.reads, mask(&inst.reads()), "{inst:?}: reads");
            assert_eq!(ev.writes, mask(&inst.writes()), "{inst:?}: writes");
        }
    }

    /// The per-bit refinements: masking immediates propagate exactly the
    /// surviving bits; a store observes only the stored width; a store
    /// whose value doubles as the base falls back to fully-live.
    #[test]
    fn inst_rw_per_bit_precision() {
        let r = Reg::phys;
        let xlen = 0xffff_ffffu64;
        let andi = Inst::AluImm { op: AluOp::And, rd: r(1), rs1: r(2), imm: 0b101 };
        assert_eq!(inst_rw(&andi, xlen).precision, ReadPrecision::PerBit { rd: r(1), mask: 0b101 });
        let ori = Inst::AluImm { op: AluOp::Or, rd: r(1), rs1: r(2), imm: 0xff };
        assert_eq!(
            inst_rw(&ori, xlen).precision,
            ReadPrecision::PerBit { rd: r(1), mask: 0xffff_ff00 }
        );
        let xor = Inst::Alu { op: AluOp::Xor, rd: r(1), rs1: r(2), rs2: r(3) };
        assert_eq!(inst_rw(&xor, xlen).precision, ReadPrecision::PerBit { rd: r(1), mask: xlen });
        let sb = Inst::Store { rs: r(4), base: r(5), offset: 0, width: MemWidth::Byte };
        assert_eq!(
            inst_rw(&sb, xlen).precision,
            ReadPrecision::StoreValue { rs: r(4), mask: 0xff }
        );
        let self_store = Inst::Store { rs: r(6), base: r(6), offset: 0, width: MemWidth::Byte };
        assert_eq!(inst_rw(&self_store, xlen).precision, ReadPrecision::Full);
        let add = Inst::Alu { op: AluOp::Add, rd: r(1), rs1: r(2), rs2: r(3) };
        assert_eq!(inst_rw(&add, xlen).precision, ReadPrecision::Full);
    }
}
