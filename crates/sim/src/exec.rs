//! The instruction interpreter.
//!
//! Programs are decoded once into a dense op array (`FlatProgram::ops`):
//! every function's block bodies and terminators laid out contiguously,
//! control targets as absolute op indices across functions, registers as
//! register-file slots, immediates, offsets and `la` addresses truncated to
//! the machine word, unconditional jumps as zero-cost gotos, and one op
//! variant per ALU operation and branch condition, so each op costs one
//! dispatch.
//!
//! One function executes every op: `FlatProgram::exec`, over a local
//! register file indexed by slot (`OpState`) and a caller-provided
//! [`Memory`]. It logs every written memory word in a dirty list, so a
//! campaign worker can reuse one scratch memory across millions of runs
//! (undoing only the dirty words) instead of allocating a fresh address
//! space per fault, and it feeds the trace words to a `HashSink` type
//! parameter (skip, hash, or hash and tape), so each loop below compiles
//! its own copy. Three loops drive it:
//!
//! * `run` serves every instrumented mode (`RunMode`), with the
//!   instrumentation in the loop around `exec`:
//!   * **golden**: the cycle map (from each op's trace token and the call
//!     depth), the memory digest (from the dirty entry a store pushes),
//!     optional periodic [`Checkpoint`] capture with the per-cycle liveness
//!     events it needs (one read/write table decoded with the ops), and an
//!     optional per-cycle hash tape (the golden substrate);
//!   * **from-scratch fault run**: execute from cycle 0 with one injected
//!     bit flip;
//!   * **resumed fault run**: start from the nearest checkpoint at or
//!     before the injection cycle, execute only the suffix, and after the
//!     injection compare state against the golden checkpoints at aligned
//!     cycles; full equality (modulo dynamically dead register bits)
//!     proves the remaining trace is the golden suffix and the run
//!     early-exits as converged (classified Benign by the caller).
//! * `run_tail` runs the tail of a forked bitsliced lane to its end,
//!   with none of that instrumentation, and skips the trace hash of a lane
//!   whose trace already diverged.
//! * The bitsliced engine's golden replay (`crate::bitslice`) steps the
//!   same ops through `exec`.
//!
//! So a forked lane's verdict compares two runs of one interpreter.

use crate::checkpoint::{mem_mix, Checkpoint, CheckpointLog, FrameSnap};
use crate::machine::{FaultSpec, Memory};
use crate::trace::TraceHash;
use bec_ir::semantics::{eval_alu, eval_cond};
use bec_ir::{
    AluOp, Cond, Inst, MachineConfig, MemWidth, PointId, PointLayout, Program, Reg, RegMask,
    Terminator,
};
use std::collections::BTreeMap;

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

/// One step of a flattened function, before decoding.
#[derive(Clone, Debug)]
enum FlatStep<'p> {
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
enum Edges {
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
    fn point(&self) -> PointId {
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

    /// The registers the step reads and writes, with the per-bit
    /// refinement of the liveness pass. A return lists the reads of an
    /// entry return: its outputs.
    fn rw(&self, xlen_mask: u64) -> RwEvent {
        let of = RegMask::of;
        match *self {
            FlatStep::Inst { inst, .. } => inst_rw(inst, xlen_mask),
            FlatStep::La { rd, .. } => RwEvent::full(RegMask::empty(), of(rd)),
            FlatStep::Call { .. } => RwEvent::full(RegMask::empty(), of(Reg::RA)),
            FlatStep::Branch { rs1, rs2, .. } => {
                RwEvent::full(rs2.map(of).unwrap_or_default().union(of(rs1)), RegMask::empty())
            }
            FlatStep::Ret { reads, .. } => RwEvent::full(
                reads.iter().fold(RegMask::empty(), |m, &r| m.union(of(r))),
                RegMask::empty(),
            ),
            FlatStep::Exit { .. } | FlatStep::Goto { .. } => RwEvent::empty(),
        }
    }
}

/// One function, flattened.
struct FlatFunc<'p> {
    steps: Vec<FlatStep<'p>>,
    entry_pc: u32,
    /// Flat start index of each block, ascending.
    block_starts: Vec<u32>,
}

/// The whole program, decoded for the interpreter.
#[derive(Clone, Debug)]
pub(crate) struct FlatProgram {
    /// The machine the program runs on.
    pub(crate) cfg: MachineConfig,
    /// Every function's steps decoded into one dense array.
    pub(crate) ops: Vec<Op>,
    /// The registers each op of `ops` reads and writes.
    pub(crate) regs: Vec<OpRegs>,
    /// The liveness event of each op of `ops` (see [`FlatStep::rw`]).
    rw: Vec<RwEvent>,
    /// Index of the entry function's first executed op.
    entry: u32,
    /// Index of each block's first op, ascending — the block-entry grain
    /// aligned checkpoint capture snaps to (machine state at a block-entry
    /// boundary is invariant under in-block instruction scheduling).
    block_starts: Vec<u32>,
    /// Register-file slots entry returns read, indexed by `OpKind::Ret`.
    pub(crate) ret_reads: Vec<u8>,
}

impl FlatProgram {
    /// Decodes `program`: absolute op indices across functions,
    /// register-file slots, pre-truncated immediates and `la` addresses,
    /// and each cycle-consuming op's trace token; the registers each op
    /// reads and writes; and its liveness event.
    ///
    /// # Panics
    ///
    /// Panics on a missing entry function, callee or global, or a register
    /// file wider than 64 — run [`bec_ir::verify_program`] first.
    pub(crate) fn of(program: &Program) -> FlatProgram {
        let cfg = program.config;
        assert!(cfg.num_regs <= 64, "register files wider than 64 — verify the program first");
        let mask = cfg.mask();
        let rd = |r: Reg| write_slot(&cfg, r);
        let rs = |r: Reg| read_slot(&cfg, r);
        let funcs: Vec<FlatFunc<'_>> =
            program.functions.iter().map(|f| flatten(program, f)).collect();
        let mut bases = Vec::with_capacity(funcs.len());
        let mut n = 0u32;
        for f in &funcs {
            bases.push(n);
            n += f.steps.len() as u32;
        }
        let entry_fn = program.function_index(&program.entry).expect("entry exists");
        let mut flat = FlatProgram {
            cfg,
            ops: Vec::with_capacity(n as usize),
            regs: Vec::with_capacity(n as usize),
            rw: Vec::with_capacity(n as usize),
            entry: bases[entry_fn] + funcs[entry_fn].entry_pc,
            block_starts: Vec::new(),
            ret_reads: Vec::new(),
        };
        for (fi, f) in funcs.iter().enumerate() {
            let base = bases[fi];
            flat.block_starts.extend(f.block_starts.iter().map(|&b| base + b));
            for (pc, step) in f.steps.iter().enumerate() {
                let rw = step.rw(mask);
                flat.regs.push(OpRegs::of(&cfg, step, &rw));
                flat.rw.push(rw);
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
                        entry: bases[callee as usize] + funcs[callee as usize].entry_pc,
                        ret: base + pc as u32 + 1,
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
                        let at = flat.ret_reads.len() as u32;
                        flat.ret_reads.extend(reads.iter().map(|&r| rs(r)));
                        OpKind::Ret { reads: at, count: reads.len() as u32 }
                    }
                };
                let token = match step {
                    FlatStep::Goto { .. } => 0,
                    _ => trace_token(fi as u32, step.point()),
                };
                flat.ops.push(Op { token, kind });
            }
        }
        flat
    }

    /// Whether op `pc` is the first op of a block.
    fn is_block_entry(&self, pc: u32) -> bool {
        self.block_starts.binary_search(&pc).is_ok()
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
fn trace_token(func: u32, point: PointId) -> u64 {
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

/// One decoded op.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Op {
    /// The trace token a cycle-consuming op absorbs (0 for gotos):
    /// `function index << 32 | point`.
    pub(crate) token: u64,
    pub(crate) kind: OpKind,
}

/// The registers one op reads and writes, as masks over register indices
/// (bit `i`: register `i`), for the batched replay's taint test. The zero
/// register is in neither: it is never tainted. A branch whose edges are
/// one and the same path reads nothing here, since flipping its condition
/// changes nothing; an entry return's output reads are not listed (the
/// replay checks them when the program ends).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OpRegs {
    pub(crate) reads: u64,
    pub(crate) writes: u64,
    /// A branch whose edges lead to different steps ([`Edges::Split`]).
    pub(crate) split: bool,
}

impl OpRegs {
    /// The taint masks of `step`, whose liveness event is `rw`.
    fn of(cfg: &MachineConfig, step: &FlatStep<'_>, rw: &RwEvent) -> OpRegs {
        let nonzero = !cfg.zero_reg.map_or(0, |z| RegMask::of(z).0);
        let none = OpRegs::default();
        match *step {
            FlatStep::Branch { edges: Edges::Same, .. } => none,
            // A non-entry return checks the link register's token.
            FlatStep::Ret { .. } if cfg.num_regs == 32 => {
                OpRegs { reads: RegMask::of(Reg::RA).0 & nonzero, ..none }
            }
            FlatStep::Ret { .. } => none,
            FlatStep::Branch { edges, .. } => {
                OpRegs { reads: rw.reads.0 & nonzero, split: edges == Edges::Split, ..none }
            }
            _ => {
                OpRegs { reads: rw.reads.0 & nonzero, writes: rw.writes.0 & nonzero, split: false }
            }
        }
    }
}

/// Invokes `$then!` with the one list of ops [`FlatProgram::exec`]
/// dispatches on directly: every ALU op with the names of its register-
/// and immediate-form [`OpKind`] variants, then every branch condition
/// with its variant's. The op enum, its decoder and `exec`'s match are all
/// generated from this list, so they cannot miss or mismatch an op, and
/// each arm calls [`eval_alu`]/[`eval_cond`] with a constant op: one jump
/// per op, and [`bec_ir::semantics`] stays the only definition of ALU and
/// branch semantics.
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
            /// A call: the callee's entry op, the op its return resumes at,
            /// and the call's return-address token seed (see
            /// [`call_token`]).
            Call { entry: u32, ret: u32, seed: u32 },
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

/// Where [`FlatProgram::exec`] sends the words a cycle absorbs into the
/// trace hash. `exec` is generic over the sink, so each choice compiles to
/// its own loop and a skipped hash costs nothing.
pub(crate) trait HashSink {
    /// Absorbs trace word `w`.
    fn absorb(&mut self, hash: &mut TraceHash, w: u64);

    /// Opens the next cycle's words.
    fn open_cycle(&mut self) {}
}

/// Leaves the trace hash untouched: a tail whose trace already diverged.
struct NoHash;

impl HashSink for NoHash {
    #[inline(always)]
    fn absorb(&mut self, _: &mut TraceHash, _: u64) {}
}

/// Absorbs every word into the trace hash.
pub(crate) struct Hashed;

impl HashSink for Hashed {
    #[inline(always)]
    fn absorb(&mut self, hash: &mut TraceHash, w: u64) {
        hash.update(w);
    }
}

/// Absorbs every word into the trace hash and records it on a tape,
/// segmented by cycle.
struct Taped<'a>(&'a mut HashTape);

impl HashSink for Taped<'_> {
    #[inline(always)]
    fn absorb(&mut self, hash: &mut TraceHash, w: u64) {
        hash.update(w);
        self.0.words.push(w);
    }

    fn open_cycle(&mut self) {
        self.0.starts.push(self.0.words.len() as u32);
    }
}

impl FlatProgram {
    /// Executes the cycle-consuming op `op` (anything but a goto) at
    /// `s.pc` on `s` and `memory`, logging every written memory word in
    /// `dirty` (a store pushes one entry: the word's index and previous
    /// value): feeds the op's trace token and events to `sink`, and leaves
    /// `s.pc` at the next op. Returns the run's outcome when the op ends
    /// it. Every run executes its ops here.
    #[inline(always)]
    pub(crate) fn exec<H: HashSink>(
        &self,
        cfg: MachineConfig,
        op: Op,
        s: &mut OpState,
        memory: &mut Memory,
        dirty: &mut Vec<(u32, u32)>,
        sink: &mut H,
    ) -> Option<ExecOutcome> {
        let mask = cfg.mask();
        sink.absorb(&mut s.hash, op.token);
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
                sink.absorb(&mut s.hash, access_event(LOAD_EVENT, addr));
                sink.absorb(&mut s.hash, raw);
                regs[rd as usize] = extend_load(raw, signed, size) & mask;
            }
            OpKind::Store { rs, base, width, offset } => {
                let addr = effective_address(regs[base as usize], offset, mask);
                let size = width.bytes();
                let value = regs[rs as usize] & width_mask(size);
                if let Err(kind) = store(memory, addr, size, value, dirty) {
                    return Some(ExecOutcome::Crashed(kind));
                }
                sink.absorb(&mut s.hash, access_event(STORE_EVENT, addr));
                sink.absorb(&mut s.hash, value);
            }
            OpKind::Print { rs } => {
                let v = regs[rs as usize];
                sink.absorb(&mut s.hash, PRINT_EVENT);
                sink.absorb(&mut s.hash, v);
                s.outputs.push(v);
            }
            OpKind::Nop => {}
            OpKind::Call { entry, ret, seed } => {
                if s.stack.len() >= MAX_CALL_DEPTH {
                    return Some(ExecOutcome::Crashed(CrashKind::StackOverflow));
                }
                let ra_token = call_token(seed, s.stack.len(), mask);
                regs[write_slot(&cfg, Reg::RA) as usize] = ra_token;
                s.stack.push(FrameSnap { ret, ra_token });
                s.pc = entry;
            }
            OpKind::Exit => return Some(ExecOutcome::Completed),
            OpKind::Ret { reads, count } => match s.stack.pop() {
                None => {
                    // The entry function's return values are the
                    // program's observable outcome.
                    for &slot in &self.ret_reads[reads as usize..][..count as usize] {
                        let v = regs[slot as usize];
                        sink.absorb(&mut s.hash, OUTPUT_EVENT);
                        sink.absorb(&mut s.hash, v);
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
                    s.pc = frame.ret;
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
/// the touched word's previous value in `dirty` (a size-aligned store of
/// ≤4 bytes changes exactly one word), or the trap the store takes.
fn store(
    memory: &mut Memory,
    addr: u64,
    size: u64,
    value: u64,
    dirty: &mut Vec<(u32, u32)>,
) -> Result<(), CrashKind> {
    if !addr.is_multiple_of(size) {
        return Err(CrashKind::Misaligned);
    }
    let widx = (addr >> 2) as u32;
    let old = memory.word(widx);
    if !memory.store(addr, size, value) {
        return Err(CrashKind::MemOutOfBounds);
    }
    dirty.push((widx, old));
    Ok(())
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
const MAX_CALL_DEPTH: usize = 512;

/// The return-address token seed of a call at `point`.
fn call_seed(point: PointId) -> u32 {
    0x4000_0000 ^ point.0
}

/// The synthetic return-address token a call with seed `seed` made at call
/// depth `depth` leaves in `ra`; the matching return checks it.
fn call_token(seed: u32, depth: usize, xlen_mask: u64) -> u64 {
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

/// How precisely one cycle's register reads propagate liveness backwards.
///
/// The conservative rule makes every read register fully live. Bitwise
/// operations are refined to per-bit propagation: bit `i` of the result
/// depends only on bit `i` of each source, so a source bit is live only
/// when the corresponding destination bit is live *after* the instruction
/// (and, for masking immediates, only when the immediate keeps it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReadPrecision {
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
struct RwEvent {
    reads: RegMask,
    writes: RegMask,
    precision: ReadPrecision,
}

impl RwEvent {
    fn full(reads: RegMask, writes: RegMask) -> RwEvent {
        RwEvent { reads, writes, precision: ReadPrecision::Full }
    }

    fn empty() -> RwEvent {
        RwEvent::full(RegMask::empty(), RegMask::empty())
    }
}

/// The read/write event of one instruction: read/written register masks
/// plus the per-bit refinement of how the reads feed the result.
fn inst_rw(inst: &Inst, xlen_mask: u64) -> RwEvent {
    let full = RwEvent::full;
    let of = RegMask::of;
    let per_bit = |reads: RegMask, rd: Reg, mask: u64| RwEvent {
        reads,
        writes: of(rd),
        precision: ReadPrecision::PerBit { rd, mask },
    };
    match inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            let reads = of(*rs1).union(of(*rs2));
            match op {
                // Bit i of the result depends only on bit i of each source.
                AluOp::And | AluOp::Or | AluOp::Xor => per_bit(reads, *rd, xlen_mask),
                _ => full(reads, of(*rd)),
            }
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let reads = of(*rs1);
            let imm = *imm as u64 & xlen_mask;
            match op {
                // `andi` keeps only the bits set in the immediate; `ori`
                // forces the bits set in the immediate, so only the clear
                // ones still come from the source.
                AluOp::And => per_bit(reads, *rd, imm),
                AluOp::Or => per_bit(reads, *rd, !imm & xlen_mask),
                AluOp::Xor => per_bit(reads, *rd, xlen_mask),
                _ => full(reads, of(*rd)),
            }
        }
        Inst::Li { rd, .. } | Inst::La { rd, .. } => full(RegMask::empty(), of(*rd)),
        Inst::Mv { rd, rs } => per_bit(of(*rs), *rd, xlen_mask),
        Inst::Neg { rd, rs } | Inst::Seqz { rd, rs } | Inst::Snez { rd, rs } => {
            full(of(*rs), of(*rd))
        }
        Inst::Load { rd, base, .. } => full(of(*base), of(*rd)),
        Inst::Store { rs, base, width, .. } => {
            let width_mask = match width.bytes() {
                b if b >= 8 => xlen_mask,
                b => (1u64 << (b * 8)) - 1,
            };
            RwEvent {
                reads: of(*rs).union(of(*base)),
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
        Inst::Print { rs } => full(of(*rs), RegMask::empty()),
        Inst::Call { .. } | Inst::Nop => RwEvent::empty(),
    }
}

/// Folds one executed cycle into the running backward-liveness vector
/// (`live[i]` = bits of register `i` the suffix observes before
/// overwriting). Gen masks derive from the liveness *after* the
/// instruction, so they are computed before the kill — a register that is
/// both read and written (e.g. `addi t0, t0, -1`) stays live.
fn apply_rw_backward(live: &mut [u64], ev: &RwEvent, xlen_mask: u64) {
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

/// Backward dynamic-liveness pass, at bit granularity: which register
/// *bits* does the suffix from each checkpoint of `log` observe before
/// overwriting? Anything else may differ at convergence time without
/// influencing the future. Walks the per-cycle events `rw` of the run that
/// captured `log` once in reverse, snapshotting the running live vector at
/// each checkpoint cycle: O(trace) time, O(regs) extra space.
fn fill_live_bits(log: &mut CheckpointLog, rw: &[RwEvent], nregs: usize, xlen_mask: u64) {
    let mut live = vec![0u64; nregs];
    let mut next_ck = log.checkpoints.len();
    for c in (0..rw.len()).rev() {
        apply_rw_backward(&mut live, &rw[c], xlen_mask);
        // `live` now holds liveness at the boundary *before* the
        // instruction at cycle `c` — exactly what a checkpoint captured at
        // cycle `c` compares against.
        while next_ck > 0 && log.checkpoints[next_ck - 1].cycle == c as u64 {
            next_ck -= 1;
            log.checkpoints[next_ck].live_bits.copy_from_slice(&live);
        }
    }
}

/// What an instrumented [`run`] records, and how its fault is placed.
pub(crate) enum RunMode<'a> {
    /// A run with `fault` injected, if any, and no instrumentation.
    Plain(Option<FaultSpec>),
    /// A fault-free run that also tracks the memory digest.
    Digest,
    /// The golden run: tracks the memory digest and records every cycle's
    /// `(function index, point, call depth)` into `cycle_map`; records
    /// checkpoints (with their live bits) into `capture` under its spacing
    /// policy, and every absorbed trace-hash word into `tape`, when given.
    Golden {
        cycle_map: &'a mut Vec<(u32, PointId, u32)>,
        capture: Option<&'a mut CheckpointLog>,
        tape: Option<&'a mut HashTape>,
    },
    /// A fault run restored from a checkpoint of `log`: tracks the memory
    /// digest and, after the injection, early-exits once its state matches
    /// the golden checkpoint at an aligned cycle.
    Resume { fault: FaultSpec, log: &'a CheckpointLog },
}

/// How a [`run`] ended: normally, or by provable re-convergence with the
/// golden run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RunEnd {
    /// The run executed to a terminal state.
    Finished(ExecOutcome),
    /// The faulted run's state became equal to the golden run's at this
    /// aligned cycle: the remaining trace is the golden suffix, the run is
    /// Benign, and the tail was skipped.
    Converged(u64),
}

/// Runs the program from the state `s` on `memory` under `mode`, until it
/// ends, exhausts `max_cycles` or converges; `s` holds the final state.
///
/// Every memory word the run writes is appended to `dirty`, so the caller
/// can undo the run and reuse the memory.
pub(crate) fn run(
    flat: &FlatProgram,
    max_cycles: u64,
    mut mode: RunMode<'_>,
    s: &mut OpState,
    memory: &mut Memory,
    dirty: &mut Vec<(u32, u32)>,
) -> RunEnd {
    if let RunMode::Golden { tape, .. } = &mut mode {
        if let Some(tape) = tape.take() {
            return run_with(flat, max_cycles, mode, s, memory, dirty, &mut Taped(tape));
        }
    }
    run_with(flat, max_cycles, mode, s, memory, dirty, &mut Hashed)
}

/// [`run`] with its trace words sent to `sink`.
fn run_with<H: HashSink>(
    flat: &FlatProgram,
    max_cycles: u64,
    mode: RunMode<'_>,
    s: &mut OpState,
    memory: &mut Memory,
    dirty: &mut Vec<(u32, u32)>,
    sink: &mut H,
) -> RunEnd {
    let cfg = flat.cfg;
    let step_limit = max_cycles.saturating_mul(2) + 1024;
    let (fault, track_digest, mut cycle_map, mut capture, resume) = match mode {
        RunMode::Plain(fault) => (fault, false, None, None, None),
        RunMode::Digest => (None, true, None, None, None),
        RunMode::Golden { cycle_map, capture, .. } => (None, true, Some(cycle_map), capture, None),
        RunMode::Resume { fault, log } => (Some(fault), true, None, None, Some(log)),
    };
    let mut rw_map = capture.as_deref().is_some_and(CheckpointLog::captures).then(Vec::new);
    // The golden checkpoints a converging run compares its state against:
    // those strictly after the injection cycle, in cycle order (the run
    // meets every cycle boundary once, in order). A convergence early-exit
    // claims the run finishes exactly like the golden suffix — only valid
    // if that suffix itself fits this run's budget (the golden run may have
    // been recorded under different limits).
    let mut ahead: &[Checkpoint] = match (resume, fault) {
        (Some(log), Some(f))
            if log.completed && log.final_cycles <= max_cycles && log.final_steps < step_limit =>
        {
            let after = log.checkpoints.partition_point(|ck| ck.cycle <= f.cycle);
            &log.checkpoints[after..]
        }
        _ => &[],
    };
    // Watermark into `dirty` marking the start of the current checkpoint
    // interval (capture never drains the list — the caller owns it), plus
    // the running cumulative dirty-word image captured checkpoints store.
    let mut delta_start = dirty.len();
    let mut cum_image: BTreeMap<u32, u32> = BTreeMap::new();

    let end = loop {
        s.steps += 1;
        if s.cycle >= max_cycles || s.steps >= step_limit {
            break RunEnd::Finished(ExecOutcome::Timeout);
        }
        let pc = s.pc as usize;
        let op = flat.ops[pc];
        // Zero-cost fallthrough: unconditional jumps take no cycle and
        // leave no trace event (block layout is not modeled; DESIGN.md §2).
        if let OpKind::Goto { target } = op.kind {
            s.pc = target;
            continue;
        }

        // Canonical cycle boundary: the next op consumes a cycle.
        if let Some(log) = capture.as_deref_mut() {
            if log.capture_due(s.cycle, || flat.is_block_entry(s.pc)) {
                for &(w, _) in &dirty[delta_start..] {
                    cum_image.insert(w, memory.word(w));
                }
                delta_start = dirty.len();
                let n = cfg.num_regs as usize;
                log.checkpoints.push(Checkpoint {
                    cycle: s.cycle,
                    steps: s.steps,
                    pos: s.pc,
                    stack: s.stack.clone(),
                    regs: s.regs[..n].to_vec(),
                    hash: s.hash,
                    mem_digest: s.mem_digest,
                    outputs_len: s.outputs.len() as u32,
                    mem_image: cum_image.iter().map(|(&w, &v)| (w, v)).collect(),
                    // Exact comparison until the liveness pass runs.
                    live_bits: vec![u64::MAX; n],
                });
                log.note_captured(s.cycle);
            }
        }
        if let Some((ck, rest)) = ahead.split_first() {
            if ck.cycle == s.cycle {
                if s.matches(ck) {
                    break RunEnd::Converged(s.cycle);
                }
                ahead = rest;
            }
        }
        // Fault injection happens on the cycle boundary, before execution.
        if let Some(f) = fault {
            if f.cycle == s.cycle {
                s.flip(&cfg, f.reg, f.bit);
            }
        }

        if let Some(m) = cycle_map.as_deref_mut() {
            m.push(((op.token >> 32) as u32, PointId(op.token as u32), s.stack.len() as u32));
        }
        if let Some(m) = rw_map.as_mut() {
            m.push(match op.kind {
                // A return to a caller reads only the link register, and
                // only where it is the ABI one.
                OpKind::Ret { .. } if !s.stack.is_empty() => {
                    let ra =
                        if cfg.num_regs == 32 { RegMask::of(Reg::RA) } else { RegMask::empty() };
                    RwEvent::full(ra, RegMask::empty())
                }
                _ => flat.rw[pc],
            });
        }
        sink.open_cycle();
        s.cycle += 1;
        let stored = dirty.len();
        let outcome = flat.exec(cfg, op, s, memory, dirty, sink);
        if track_digest {
            if let Some(&(w, old)) = dirty.get(stored) {
                s.mem_digest ^= mem_mix(w, old) ^ mem_mix(w, memory.word(w));
            }
        }
        if let Some(outcome) = outcome {
            break RunEnd::Finished(outcome);
        }
    };

    if let (RunEnd::Finished(outcome), Some(log)) = (end, capture) {
        log.final_cycles = s.cycle;
        log.final_steps = s.steps;
        log.completed = outcome == ExecOutcome::Completed;
        if let Some(rw) = rw_map {
            fill_live_bits(log, &rw, cfg.num_regs as usize, cfg.mask());
        }
    }
    end
}

/// The state a run keeps besides memory: a local register file indexed by
/// register-file slot (byte slots index it with no bounds checks), the
/// absolute index of the next op, and the counter, trace, output,
/// call-stack and memory-digest state.
#[derive(Clone)]
pub(crate) struct OpState {
    pub(crate) regs: [u64; 256],
    pub(crate) pc: u32,
    pub(crate) cycle: u64,
    pub(crate) steps: u64,
    pub(crate) hash: TraceHash,
    pub(crate) outputs: Vec<u64>,
    pub(crate) stack: Vec<FrameSnap>,
    /// Incremental memory digest relative to the initial image (kept only
    /// by runs that track it).
    pub(crate) mem_digest: u128,
}

impl OpState {
    /// The state at the program entry, before the first step, over the
    /// initial register image `regs`.
    pub(crate) fn fresh(flat: &FlatProgram, regs: &[u64]) -> OpState {
        let mut file = [0u64; 256];
        file[..regs.len()].copy_from_slice(regs);
        OpState {
            regs: file,
            pc: flat.entry,
            cycle: 0,
            steps: 0,
            hash: TraceHash::new(),
            outputs: Vec::new(),
            stack: Vec::new(),
            mem_digest: 0,
        }
    }

    /// Restores checkpoint `idx` of `log` onto `memory` (which must be in
    /// initial state): applies the checkpoint's cumulative memory image
    /// (recording each word's previous value in `dirty`), and returns the
    /// captured state, with the golden output prefix. `steps` is set one
    /// below the boundary value so the loop-top increment reproduces it
    /// exactly.
    pub(crate) fn restore(
        log: &CheckpointLog,
        idx: usize,
        golden_outputs: &[u64],
        memory: &mut Memory,
        dirty: &mut Vec<(u32, u32)>,
    ) -> OpState {
        let ck = &log.checkpoints[idx];
        for &(w, v) in ck.mem_image.iter() {
            dirty.push((w, memory.word(w)));
            memory.set_word(w, v);
        }
        let mut regs = [0u64; 256];
        regs[..ck.regs.len()].copy_from_slice(&ck.regs);
        OpState {
            regs,
            pc: ck.pos,
            cycle: ck.cycle,
            steps: ck.steps - 1,
            hash: ck.hash,
            outputs: golden_outputs[..ck.outputs_len as usize].to_vec(),
            stack: ck.stack.clone(),
            mem_digest: ck.mem_digest,
        }
    }

    /// Whether this state equals the golden checkpoint `ck` in every
    /// component the run's future depends on. Register *bits* the golden
    /// suffix overwrites before reading (`ck.live_bits`) may differ — they
    /// cannot influence anything before they die.
    fn matches(&self, ck: &Checkpoint) -> bool {
        self.steps == ck.steps
            && self.pc == ck.pos
            && self.hash == ck.hash
            && self.mem_digest == ck.mem_digest
            && self.outputs.len() == ck.outputs_len as usize
            && self.stack == ck.stack
            && self.regs.iter().zip(&ck.regs).zip(&ck.live_bits).all(|((a, b), m)| (a ^ b) & m == 0)
    }

    /// Injects a fault: flips `bit` of `reg`. Flips into the hardwired zero
    /// register or past the machine word are physically impossible and
    /// ignored.
    pub(crate) fn flip(&mut self, cfg: &MachineConfig, reg: Reg, bit: u32) {
        if cfg.is_zero_reg(reg) || bit >= cfg.xlen {
            return;
        }
        self.regs[reg.index() as usize] ^= 1 << bit;
    }
}

/// Runs the tail of a forked bitsliced lane: `s` and `memory` hold the
/// lane's exact mid-run state (as the scalar engine would have reached
/// it), and the run executes to a terminal outcome with no convergence
/// checks — a forked lane has already left the golden control path, so it
/// can never match a golden checkpoint again.
///
/// The tail ends in exactly the state [`run`] would: `s` holds the final
/// registers, outputs, cycle count and trace hash, `memory` the final
/// memory, and every written word is logged in `dirty`. With `keep_hash`
/// false the trace hash is left untouched, so the final hash is the start
/// state's. Callers pass false only for a lane whose trace already differs
/// from the golden run's, and classify it by outcome and outputs alone.
pub(crate) fn run_tail(
    flat: &FlatProgram,
    max_cycles: u64,
    s: &mut OpState,
    memory: &mut Memory,
    dirty: &mut Vec<(u32, u32)>,
    keep_hash: bool,
) -> ExecOutcome {
    if keep_hash {
        tail(flat, max_cycles, s, memory, dirty, &mut Hashed)
    } else {
        tail(flat, max_cycles, s, memory, dirty, &mut NoHash)
    }
}

/// The tail loop of [`run_tail`], with the trace words sent to `sink`.
fn tail<H: HashSink>(
    flat: &FlatProgram,
    max_cycles: u64,
    s: &mut OpState,
    memory: &mut Memory,
    dirty: &mut Vec<(u32, u32)>,
    sink: &mut H,
) -> ExecOutcome {
    let cfg = flat.cfg;
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
        if let Some(outcome) = flat.exec(cfg, op, s, memory, dirty, sink) {
            return outcome;
        }
    }
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
        let mask =
            |regs: &[Reg]| regs.iter().fold(RegMask::empty(), |m, &r| m.union(RegMask::of(r)));
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
