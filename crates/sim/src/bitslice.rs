//! The bitsliced fault engine: up to 64 single-bit faults execute as
//! *lanes* of a single shared golden replay.
//!
//! A shard's faults are sorted by injection cycle and cut into batches of
//! 64 consecutive lanes. A batch restores the checkpoint nearest before
//! its first lane's cycle and replays the golden trace **once**; each lane
//! *joins* the replay when it reaches that lane's injection cycle. Until
//! then the lane is *pending*: not injected yet, so golden by
//! construction, and carrying it costs nothing. Injected lanes differ
//! from the golden run only in their register and bit, and follow the
//! golden control path until (if ever) their flipped bit reaches a branch
//! condition, an effective address, or an observable output. The batch
//! replays the golden trace while each lane carries only its
//! *taint* — the set of registers whose lane value differs from the
//! golden value, plus those values — and a sparse memory *overlay* — the
//! memory words whose lane value differs from the shared memory.
//! Arithmetic steps recompute tainted lanes against the golden sources in
//! registers; loads and stores of a lane with a divergent address, value
//! or overlay word go through the lane's own view of memory; control flow
//! and the trace hash are shared. When every lane that joined has retired
//! and the next pending lane's checkpoint lies ahead, the batch *skips the
//! gap*: it rewinds the scratch memory and restores that checkpoint
//! instead of replaying golden cycles no lane needs. Lanes still pending
//! when the program ends (faults at the final cycle boundary, which the
//! scalar run never reaches) join uninjected and complete Benign.
//!
//! **Soundness: a lane leaves the batch before its control path can differ
//! from the modeled scalar run.** The batch only ever executes steps whose
//! control effect is identical for every resident lane, and it tracks each
//! lane's registers (taint) and memory (overlay) exactly. The moment a
//! lane's *would-be* control flow diverges — a branch condition flips and
//! the branch's edges are not one and the same path — the lane is
//! *forked*: its full scalar state (golden replay state with its tainted
//! registers and overlay words patched in) is handed to the scalar tail
//! interpreter (`exec::run_tail`, a loop over ops decoded once per
//! program), which executes the tail exactly as the scalar engine would
//! have from the same cycle. A lane whose trace already differs from the
//! golden run's — flagged below, or forked onto a branch edge that leads
//! to a different step — cannot end Benign, so its tail skips the trace
//! hash and is classified by outcome and outputs; any other fork keeps the
//! hash and is classified like a scalar run. Divergent addresses that
//! are misaligned or out of bounds retire the lane directly as a crash —
//! the same trap the scalar run takes on that instruction. Every other
//! divergence stays batched: a divergent `print` (flagged SDC, output patch
//! recorded), a divergent load (the lane reads its own view of memory) and
//! a divergent store (the lane's view of the written words goes into its
//! overlay). Each of these feeds a different event into the trace hash —
//! the store event hashes both address and value, so only a lane whose
//! trace already diverged ever holds an overlay word — and permanently
//! marks the lane's trace hash as diverged. That excludes it from Benign
//! convergence — exactly the scalar engine's hash-equality convergence
//! requirement — so no per-lane memory digest is needed, and bounds its
//! verdict at Deviation (Sdc once outputs differ). A batch whose only
//! remaining lane is trace-diverged, with no lane pending, hands that lane
//! to the scalar tail at once: it can no longer converge, and one lane
//! replays faster scalar-ly. A trace-diverged lane that holds no overlay
//! word and whose registers match the golden run's at an aligned
//! checkpoint retires there: its control position, stack, memory and
//! live register bits are golden, so it completes exactly like the golden
//! run — an SDC if it printed a divergent value, else a Deviation — and
//! accounts its cycles to the golden run's end, as its scalar run (which
//! never converges: its trace hash differs) does. Per-lane convergence
//! applies the scalar engine's own per-bit dynamic-liveness check at
//! every aligned checkpoint cycle strictly after the lane's injection
//! cycle, and each lane accounts its cycles from the checkpoint its own
//! scalar run restores, so verdicts, early-exit counts and per-fault cycle
//! accounting are identical to the scalar engine's —
//! `tests/bitslice_equivalence.rs` pins report byte-identity across
//! engines and worker counts.
//!
//! **The replay loop.** The replay runs on the op array the tail
//! interpreter decodes (`exec::FlatProgram::ops`), over its own register
//! file indexed by register-file slot, and executes every op through the
//! tail's own `FlatProgram::exec`: the golden side of a step is one
//! dispatch. Each op carries masks of the registers it reads and writes
//! (`exec::OpRegs`). A step whose reads miss every tainted register —
//! and, for a load or store, whose golden word no resident lane holds in
//! its overlay — is the same in every lane: the *clean fast path* runs it
//! golden only and clears its destination's taint with one mask
//! operation. Only the other steps run lane kernels: one loop over the
//! lanes the step affects, generated per ALU op and branch condition from
//! the same `with_tail_ops!` list as the tail's arms, each calling
//! [`eval_alu`] or [`eval_cond`] with a constant op, and fused: a lane
//! computes its result and keeps its taint in one pass, exactly where its
//! result differs from the golden one. Lane bookkeeping — convergence and
//! settling, gap skips, the single-lane handoff, joins and the budget
//! check — runs on *event* boundaries only: an event cursor holds the
//! nearer of the next checkpoint and the next pending lane's cycle, and
//! the boundary after a step that retired or flagged a lane is an event
//! too. Between events, the loop is ops only. `campaign.replay_clean_steps`
//! counts the fast path's steps. Overlay lookups hash nothing: a dense
//! index maps every memory word to its overlay entry, and a batch's end
//! resets only the slots it used. `docs/oracle.md` records the cost per
//! replay step.

use crate::checkpoint::{Checkpoint, CheckpointLog};
use crate::exec::{
    effective_address, extend_load, read_slot, run_tail, width_mask, with_tail_ops, Hashed, Op,
    OpKind, OpState, SINK_SLOT,
};
use crate::machine::Memory;
use crate::runner::{GoldenRun, RunResult, Simulator};
use crate::shard::SitedFault;
use crate::trace::FaultClass;
use crate::ExecOutcome;
use bec_ir::semantics::{eval_alu, eval_cond};
use bec_ir::{AluOp, Cond, Reg};
use bec_telemetry::Histogram;
use std::time::{Duration, Instant};

/// Lanes per batch: one per bit of the `u64` taint masks.
const LANES: usize = 64;

/// Which per-fault execution engine the campaign pool runs. Never changes
/// a report byte — the bitsliced engine is a wall-clock lever, exactly
/// like the checkpoint interval.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// One scalar checkpointed run per fault (the PR 6 engine).
    Scalar,
    /// Faults batched 64 at a time, in injection-cycle order, into the
    /// lanes of one shared golden replay that each lane joins at its own
    /// injection cycle.
    #[default]
    Bitsliced,
}

impl Engine {
    /// The CLI / metrics name.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Scalar => "scalar",
            Engine::Bitsliced => "bitsliced",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "scalar" => Some(Engine::Scalar),
            "bitsliced" => Some(Engine::Bitsliced),
            _ => None,
        }
    }
}

/// Per-fault outcome of the bitsliced engine — the same fields of
/// [`crate::FaultRun`] the pool's telemetry observes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LaneRun {
    pub class: FaultClass,
    pub converged_at: Option<u64>,
    pub simulated_cycles: u64,
    pub restored_at: u64,
}

/// Batch-level counters a worker accumulates locally and merges into the
/// telemetry registry once (worker-count independent, like every other
/// `campaign.*` metric).
#[derive(Clone, Debug, Default)]
pub(crate) struct BatchCounters {
    /// Batches executed.
    pub batches: u64,
    /// Lanes executed inside batches (= faults routed through the
    /// bitsliced engine).
    pub batched_lanes: u64,
    /// Lanes forked out to a scalar tail on branch divergence.
    pub forked_lanes: u64,
    /// Lanes handed to a scalar tail as the last lane of a batch that can
    /// no longer converge.
    pub handoff_lanes: u64,
    /// Cycles the scalar tails of forked and handed-off lanes executed.
    pub tail_cycles: u64,
    /// Wall time spent in those tails (nondeterministic; telemetry only).
    pub tail_time: Duration,
    /// Cycles the shared batch replays executed (once per batch, however
    /// many lanes rode along).
    pub replay_steps: u64,
    /// Those of `replay_steps` that read no tainted register and touched
    /// no word a resident lane holds: executed golden only.
    pub replay_clean_steps: u64,
    /// Lanes-per-batch distribution.
    pub occupancy: Histogram,
}

/// Whether shards of this campaign can run batched: batching replays the
/// golden trace and proves per-lane convergence against it, which is only
/// meaningful under exactly the conditions the scalar engine's early-exit
/// requires (enabled checkpoints; a completed golden run that fits the
/// fault-run budget).
pub(crate) fn batch_eligible(sim: &Simulator<'_>, ckpts: &CheckpointLog) -> bool {
    let max_cycles = sim.limits.max_cycles;
    let step_limit = max_cycles.saturating_mul(2) + 1024;
    ckpts.is_enabled()
        && ckpts.completed
        && ckpts.final_cycles <= max_cycles
        && ckpts.final_steps < step_limit
}

/// One lane's fault.
#[derive(Clone, Copy)]
struct LaneFault {
    /// Injection cycle.
    cycle: u64,
    reg: Reg,
    bit: u32,
    /// Position of the fault in its shard.
    slot: u32,
}

/// The lane state of the batch in flight: lane `i` carries `faults[i]`.
/// Lanes before `next` have joined the replay; lanes `next..` are pending.
struct Lanes<'a> {
    /// The batch's faults in injection-cycle order.
    faults: &'a [LaneFault],
    /// The first pending lane.
    next: usize,
    /// Cycle of the checkpoint each joined lane's scalar run restores: its
    /// cycle accounting starts there, whichever checkpoint the batch
    /// restored.
    restored_at: [u64; LANES],
    /// Joined lanes still resident in the batch.
    active: u64,
    /// Lanes whose observable outputs already diverged (tainted print):
    /// still batched, but excluded from convergence and classified SDC at
    /// retirement.
    sdc: u64,
    /// Lanes whose trace hash diverged (divergent print, load or store):
    /// still batched — their registers and memory are tracked exactly —
    /// but permanently out of the Benign convergence set, mirroring the
    /// scalar engine's hash-equality convergence requirement, and at best
    /// a Deviation at retirement.
    hash_div: u64,
}

impl Lanes<'_> {
    /// Lanes that may still converge Benign.
    fn candidates(&self) -> u64 {
        self.active & !(self.sdc | self.hash_div)
    }

    /// Whether the batch is over: no lane resident and none pending.
    fn done(&self) -> bool {
        self.active == 0 && self.next == self.faults.len()
    }

    /// Admits the first pending lane into the batch and returns it.
    fn admit(&mut self, ckpts: &CheckpointLog) -> usize {
        let lane = self.next;
        self.next += 1;
        self.active |= 1u64 << lane;
        let idx = ckpts.nearest_at_or_before(self.faults[lane].cycle);
        self.restored_at[lane] = ckpts.checkpoints[idx].cycle;
        lane
    }

    /// Records the run of every lane of `mask` — `class`, stopping at
    /// cycle `stop`, early-exited there when `converged` — and removes
    /// them from the batch.
    fn retire(
        &mut self,
        out: &mut [LaneRun],
        mask: u64,
        class: FaultClass,
        stop: u64,
        converged: bool,
    ) {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            out[self.faults[lane].slot as usize] = LaneRun {
                class,
                converged_at: converged.then_some(stop),
                simulated_cycles: stop - self.restored_at[lane],
                restored_at: self.restored_at[lane],
            };
        }
        self.active &= !mask;
    }

    /// Retires the lanes of `mask`, whose runs end with the step at
    /// `cycle` (a trap, or program completion).
    fn end(&mut self, out: &mut [LaneRun], mask: u64, class: FaultClass, cycle: u64) {
        self.retire(out, mask, class, cycle + 1, false);
    }

    /// Retires the trace-diverged lanes of `mask`, whose state matches
    /// the golden run's: each completes exactly like the golden run, at
    /// its final cycle `end`, with a trace that cannot be Benign. A lane
    /// that printed a divergent value is an SDC, any other a Deviation.
    /// They are not early exits: their scalar runs never converge (the
    /// trace hash differs), so they account every cycle up to `end`.
    fn settle(&mut self, out: &mut [LaneRun], mask: u64, end: u64) {
        let diverged = mask & self.active & (self.sdc | self.hash_div);
        self.retire(out, diverged & self.sdc, FaultClass::Sdc, end, false);
        self.retire(out, diverged & !self.sdc, FaultClass::Deviation, end, false);
    }

    /// Program completion with the step at `cycle`, where the lanes of
    /// `bad` emit divergent output. Lanes still pending inject at a
    /// boundary the run never reaches: their scalar runs are the golden
    /// run, so they join uninjected. Every lane then completes exactly
    /// like the golden run: divergent outputs make it an SDC, a divergent
    /// trace with intact outputs a Deviation, anything else is Benign.
    fn finish(&mut self, out: &mut [LaneRun], ckpts: &CheckpointLog, bad: u64, cycle: u64) {
        while self.next < self.faults.len() {
            self.admit(ckpts);
        }
        self.end(out, self.active & (bad | self.sdc), FaultClass::Sdc, cycle);
        self.end(out, self.active & self.hash_div, FaultClass::Deviation, cycle);
        self.end(out, self.active, FaultClass::Benign, cycle);
    }
}

/// The lanes' private memory words: for each memory word a divergent
/// store touched, the lanes holding their own word there and each
/// holder's word. A lane's memory is the shared machine memory with its
/// own words on top. Sparse, because only words a divergent store touched
/// ever differ, and reused across batches. Lookups hash nothing: a dense
/// index maps every memory word to its entry.
struct Overlay {
    /// Memory word index → 1 + position in `words`, or 0 when the word
    /// has no entry: one slot per memory word (512 KiB on rv32).
    index: Vec<u32>,
    /// `(word index, holder lanes, per-lane word)`.
    words: Vec<(u32, u64, [u32; LANES])>,
    /// Lanes that ever held a word in this batch (a superset of the
    /// current holders).
    lanes: u64,
}

impl Overlay {
    /// An empty overlay over `mem` (a memory smaller than one word still
    /// has word 0).
    fn new(mem: &Memory) -> Overlay {
        Overlay { index: vec![0; mem.len() / 4 + 1], words: Vec::new(), lanes: 0 }
    }

    /// Drops every entry, resetting only the index slots in use.
    fn clear(&mut self) {
        for &(widx, ..) in &self.words {
            self.index[widx as usize] = 0;
        }
        self.words.clear();
        self.lanes = 0;
    }

    /// Position in `words` of the entry of the word at `widx`, if any.
    fn slot(&self, widx: u32) -> Option<usize> {
        (self.index[widx as usize] as usize).checked_sub(1)
    }

    /// Lanes holding their own word anywhere.
    fn holding(&self) -> u64 {
        if self.lanes == 0 {
            return 0;
        }
        self.words.iter().fold(0, |acc, w| acc | w.1)
    }

    /// Lanes holding their own word at `widx`.
    fn holders(&self, widx: u32) -> u64 {
        if self.lanes == 0 {
            return 0;
        }
        self.slot(widx).map_or(0, |i| self.words[i].1)
    }

    /// Lane `lane`'s view of the memory word at `widx`.
    fn view(&self, mem: &Memory, widx: u32, lane: usize) -> u32 {
        if self.lanes >> lane & 1 != 0 {
            if let Some(i) = self.slot(widx) {
                let (_, held, words) = &self.words[i];
                if held >> lane & 1 != 0 {
                    return words[lane];
                }
            }
        }
        mem.word(widx)
    }

    /// Sets lane `lane`'s view of the word at `widx` to `word`, where the
    /// shared memory holds `shared`: a view equal to the shared word needs
    /// no overlay entry.
    fn set(&mut self, widx: u32, lane: usize, word: u32, shared: u32) {
        let bit = 1u64 << lane;
        let slot = self.slot(widx);
        if word == shared {
            if let Some(i) = slot {
                self.words[i].1 &= !bit;
            }
            return;
        }
        let i = slot.unwrap_or_else(|| {
            self.words.push((widx, 0, [0; LANES]));
            self.index[widx as usize] = self.words.len() as u32;
            self.words.len() - 1
        });
        self.words[i].1 |= bit;
        self.words[i].2[lane] = word;
        self.lanes |= bit;
    }
}

/// [`BatchRunner::tainted_step`]'s match on `$kind`: the lane arms of
/// every ALU op and branch condition, generated from the list of
/// [`with_tail_ops!`] over the runner `$runner`, the golden register file
/// `$regs`, the resident lanes `$active` and machine `$cfg`, then the
/// hand-written `$rest` arms. Each generated arm calls a lane kernel with
/// a constant op, as the tail's arms do, so [`eval_alu`] and
/// [`eval_cond`] inline with the op match folded away. ALU arms evaluate
/// to no lanes, branch arms to the lanes whose condition flips.
macro_rules! lane_match {
    (
        $kind:expr, $runner:ident, $regs:ident, $active:expr, $cfg:ident, { $($rest:tt)* }
        alu: [$($op:ident $reg:ident $imm:ident),*]
        cond: [$($cond:ident $br:ident),*]
    ) => {
        match $kind {
            $(
                OpKind::$reg { rd, rs1, rs2 } => {
                    $runner.lane_binary($regs, rd, rs1, rs2, |a, b| {
                        eval_alu(&$cfg, AluOp::$op, a, b)
                    });
                    0
                }
                OpKind::$imm { rd, rs1, imm } => {
                    $runner.lane_unary($regs, rd, rs1, |v| eval_alu(&$cfg, AluOp::$op, v, imm));
                    0
                }
            )*
            $(
                OpKind::$br { rs1, rs2, .. } => {
                    $runner.flips($regs, $active, rs1, rs2, |a, b| {
                        eval_cond(&$cfg, Cond::$cond, a, b)
                    })
                }
            )*
            $($rest)*
        }
    };
}

/// Lane `lane`'s value of a register whose lane values are `vals` and
/// taint mask `taint`, given its golden value.
#[inline(always)]
fn pick(taint: u64, lane: usize, vals: &[u64; LANES], golden: u64) -> u64 {
    if taint >> lane & 1 != 0 {
        vals[lane]
    } else {
        golden
    }
}

/// What a tainted step leaves to do after the shared golden execution.
enum Commit {
    /// Nothing: its lanes are done.
    None,
    /// A load into slot `rd`, where the lanes of `divergent` read their
    /// own views of memory (their values are in `lane_results`) and every
    /// other lane reads the golden value.
    Load { rd: u8, divergent: u64 },
    /// A store whose divergent lanes' views of the touched words are in
    /// `store_views`.
    Store,
}

/// The reusable batch execution context of one worker: one scratch
/// memory, the dirty-word undo log, and the lane state arrays, reused
/// across every batch the worker runs.
pub(crate) struct BatchRunner<'p, 's> {
    sim: &'s Simulator<'p>,
    golden: &'s GoldenRun,
    ckpts: &'s CheckpointLog,
    /// The replay's shared memory.
    memory: Memory,
    dirty: Vec<(u32, u32)>,
    /// `taint[r]` bit L set ⇔ lane L's value of the register in
    /// register-file slot `r` differs from the golden value in the
    /// replay's register file. The zero register's slots are never
    /// tainted, so byte slots index this with no bounds checks.
    taint: [u64; 256],
    /// Bit `r` set ⇔ `taint[r] != 0` (fast iteration over tainted regs).
    tainted_regs: u64,
    /// Lane values, `vals[r][lane]` for register-file slot `r`, valid iff
    /// the taint bit is set. Always truncated to xlen. One row per slot,
    /// so byte slots index it with no bounds checks.
    vals: Box<[[u64; LANES]; 256]>,
    /// Per-lane memory words that differ from the shared memory.
    overlay: Overlay,
    /// `(output index, lane, value)` patches of SDC-flagged lanes: outputs
    /// whose lane value differs from the golden value printed there.
    out_patches: Vec<(u32, u8, u64)>,
    /// Per-lane values the current `Load` reads from the lanes' own views
    /// of memory.
    lane_results: [u64; LANES],
    /// `(lane, word index, word)` views the current `Store` leaves its
    /// divergent lanes with, applied to the overlay after the shared
    /// store.
    store_views: Vec<(u8, u32, u32)>,
}

impl<'p, 's> BatchRunner<'p, 's> {
    /// A runner for the campaign whose golden run and checkpoints are
    /// `golden` and `ckpts`.
    pub(crate) fn new(
        sim: &'s Simulator<'p>,
        golden: &'s GoldenRun,
        ckpts: &'s CheckpointLog,
    ) -> BatchRunner<'p, 's> {
        let memory = Memory::for_program(sim.program());
        BatchRunner {
            sim,
            golden,
            ckpts,
            overlay: Overlay::new(&memory),
            memory,
            dirty: Vec::new(),
            taint: [0; 256],
            tainted_regs: 0,
            vals: vec![[0; LANES]; 256].into_boxed_slice().try_into().expect("256 rows"),
            out_patches: Vec::new(),
            lane_results: [0; LANES],
            store_views: Vec::new(),
        }
    }

    /// Runs every fault of one shard through the batch engine, writing one
    /// [`LaneRun`] per fault in shard order. Faults are sorted by
    /// `(injection cycle, shard slot)` — lanes of one batch may fault
    /// different registers at different cycles — and the sorted list is
    /// cut into consecutive batches of [`LANES`] lanes.
    pub(crate) fn run_shard(
        &mut self,
        faults: &[SitedFault],
        counters: &mut BatchCounters,
        out: &mut Vec<LaneRun>,
    ) {
        out.clear();
        out.resize(
            faults.len(),
            LaneRun {
                class: FaultClass::Benign,
                converged_at: None,
                simulated_cycles: 0,
                restored_at: 0,
            },
        );
        let mut order: Vec<LaneFault> = faults
            .iter()
            .enumerate()
            .map(|(i, f)| LaneFault {
                cycle: f.spec.cycle,
                reg: f.spec.reg,
                bit: f.spec.bit,
                slot: i as u32,
            })
            .collect();
        // Stable: equal cycles keep shard order.
        order.sort_by_key(|f| f.cycle);
        for chunk in order.chunks(LANES) {
            counters.batches += 1;
            counters.batched_lanes += chunk.len() as u64;
            counters.occupancy.observe(chunk.len() as u64);
            self.run_batch(chunk, counters, out);
        }
    }

    /// Replaces the taint of slot `rd` with `mask` (callers store the lane
    /// values first). Writes to the zero register vanish, so its taint
    /// stays empty.
    fn set_taint(&mut self, rd: u8, mask: u64) {
        if rd == SINK_SLOT {
            return;
        }
        self.taint[rd as usize] = mask;
        if mask == 0 {
            self.tainted_regs &= !(1u64 << rd);
        } else {
            self.tainted_regs |= 1u64 << rd;
        }
    }

    /// Removes retired lanes from every taint mask.
    fn clear_lanes(&mut self, lanes: u64) {
        let mut t = self.tainted_regs;
        while t != 0 {
            let r = t.trailing_zeros() as usize;
            t &= t - 1;
            self.taint[r] &= !lanes;
            if self.taint[r] == 0 {
                self.tainted_regs &= !(1u64 << r);
            }
        }
    }

    /// The effective address of a memory access in lane `lane`, and
    /// whether the access traps there (misaligned or out of bounds).
    /// `golden` is the golden replay's address, which never traps.
    fn lane_addr(&self, base: u8, offset: u64, size: u64, lane: usize, golden: u64) -> (u64, bool) {
        if self.taint[base as usize] >> lane & 1 == 0 {
            return (golden, false);
        }
        let mask = self.sim.flat.cfg.mask();
        let addr = effective_address(self.vals[base as usize][lane], offset, mask);
        let trap = !addr.is_multiple_of(size)
            || addr.checked_add(size).is_none_or(|end| end > self.memory.len() as u64);
        (addr, trap)
    }

    /// Whether a resident lane holds its own word where the memory op
    /// `kind` accesses golden memory (false for any other op).
    fn holds_golden_word(&self, kind: OpKind, regs: &[u64; 256], active: u64) -> bool {
        let (OpKind::Load { base, offset, .. } | OpKind::Store { base, offset, .. }) = kind else {
            return false;
        };
        let addr = effective_address(regs[base as usize], offset, self.sim.flat.cfg.mask());
        self.overlay.holders((addr >> 2) as u32) & active != 0
    }

    /// Forks lane `lane` out of the batch at the boundary state `s`: the
    /// lane's scalar state — its tainted registers and overlay words — is
    /// patched onto a copy of the replay state and the shared memory, its
    /// tail runs to a terminal outcome through the scalar tail
    /// interpreter, and the memory is restored for the replay to
    /// continue. `split` marks a fork at a branch whose edges lead to
    /// different steps. Returns the lane's class and the cycle its run
    /// stopped at.
    fn fork_lane(
        &mut self,
        s: &OpState,
        lanes: &Lanes<'_>,
        lane: usize,
        split: bool,
        counters: &mut BatchCounters,
    ) -> (FaultClass, u64) {
        let bit = 1u64 << lane;
        let mark = self.dirty.len();
        let mut tail = s.clone();
        // The scalar loop-top increment reproduces this boundary's step
        // count exactly.
        tail.steps -= 1;
        let mut t = self.tainted_regs;
        while t != 0 {
            let r = t.trailing_zeros() as usize;
            t &= t - 1;
            if self.taint[r] & bit != 0 {
                tail.regs[r] = self.vals[r][lane];
            }
        }
        // Overlay words go through the dirty log, so the undo below
        // restores the shared memory as well.
        if self.overlay.lanes & bit != 0 {
            for (widx, held, words) in &self.overlay.words {
                if held & bit != 0 {
                    self.dirty.push((*widx, self.memory.word(*widx)));
                    self.memory.set_word(*widx, words[lane]);
                }
            }
        }
        let sdc = lanes.sdc & bit != 0;
        if sdc {
            for &(idx, l, v) in &self.out_patches {
                if l as usize == lane {
                    tail.outputs[idx as usize] = v;
                }
            }
        }
        // A lane whose trace already differs from the golden run's — a
        // divergent print, load or store, or a branch onto another path —
        // cannot end Benign, so its tail skips the trace hash.
        let trace_diverged = sdc || lanes.hash_div & bit != 0 || split;
        let started = Instant::now();
        let outcome = run_tail(
            &self.sim.flat,
            self.sim.limits.max_cycles,
            &mut tail,
            &mut self.memory,
            &mut self.dirty,
            !trace_diverged,
        );
        counters.tail_time += started.elapsed();
        // Undo the tail: pop its dirty words in reverse, leaving the
        // shared memory exactly at the boundary again.
        while self.dirty.len() > mark {
            let (w, old) = self.dirty.pop().expect("watermarked");
            self.memory.set_word(w, old);
        }
        counters.tail_cycles += tail.cycle - s.cycle;
        let result = RunResult::of(outcome, tail);
        let class = if trace_diverged {
            // Classify from the outcome and the outputs alone: a completed
            // run cannot be Benign (its trace differs), and is a Deviation
            // exactly when its outputs still match the golden run's (never
            // the case once a divergent print was emitted).
            match result.outcome {
                ExecOutcome::Crashed(_) => FaultClass::Crash,
                ExecOutcome::Timeout => FaultClass::Hang,
                ExecOutcome::Completed => {
                    if result.outputs == self.golden.result.outputs {
                        FaultClass::Deviation
                    } else {
                        FaultClass::Sdc
                    }
                }
            }
        } else {
            result.classify(&self.golden.result)
        };
        (class, result.cycles)
    }

    /// Undoes every write to the scratch memory since it was last in
    /// initial state: pops the dirty log in reverse.
    fn rewind(&mut self) {
        while let Some((w, old)) = self.dirty.pop() {
            self.memory.set_word(w, old);
        }
    }

    /// Restores checkpoint `idx` onto the scratch memory, which must be in
    /// initial state (its cumulative memory image applies onto the
    /// initial memory), with no lane resident; returns the replay state
    /// there.
    fn restore(&mut self, idx: usize) -> OpState {
        debug_assert!(self.dirty.is_empty(), "restore onto a rewound memory");
        debug_assert_eq!(self.tainted_regs, 0, "no lane resident");
        self.out_patches.clear();
        self.overlay.clear();
        OpState::restore(self.ckpts, idx, self.golden.outputs(), &mut self.memory, &mut self.dirty)
    }

    /// Per-lane convergence at the aligned checkpoint `ck`, exactly like
    /// the scalar engine's: the lanes whose live register bits match the
    /// golden run's retire. All non-register state of a convergence
    /// candidate equals the golden replay's (a lane with overlay words is
    /// trace-diverged), so the check reduces to the per-bit register
    /// comparison. Candidates converge Benign; trace-diverged lanes that
    /// hold no overlay word settle (see [`Lanes::settle`]).
    fn converge(
        &mut self,
        ck: &Checkpoint,
        s: &OpState,
        lanes: &mut Lanes<'_>,
        out: &mut [LaneRun],
    ) {
        let mut ok = lanes.active & !self.overlay.holding();
        let mut t = self.tainted_regs;
        while ok != 0 && t != 0 {
            let r = t.trailing_zeros() as usize;
            t &= t - 1;
            let live = ck.live_bits[r];
            let g = s.regs[r];
            let mut m = self.taint[r] & ok;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                if (self.vals[r][lane] ^ g) & live != 0 {
                    ok &= !(1u64 << lane);
                }
            }
        }
        if ok != 0 {
            lanes.retire(out, ok & lanes.candidates(), FaultClass::Benign, s.cycle, true);
            lanes.settle(out, ok, self.ckpts.final_cycles);
            self.clear_lanes(ok);
        }
    }

    /// Runs one batch: `faults` in injection-cycle order, each joining the
    /// shared replay at its own cycle.
    ///
    /// The replay walks the decoded ops over its own register file. A
    /// step that reads no tainted register — and, for a load or store,
    /// touches no word a resident lane holds in its overlay — is the same
    /// in every lane: it runs golden only and clears its destination's
    /// taint. Every other step first runs its lane kernels
    /// ([`Self::tainted_step`]). Lane bookkeeping — convergence, gap
    /// skips, the single-lane handoff, joins and the budget check — runs
    /// only on the boundaries that can need it: the next checkpoint, the
    /// next pending lane's cycle, and the boundary after a step that
    /// retired or flagged a lane.
    fn run_batch(
        &mut self,
        faults: &[LaneFault],
        counters: &mut BatchCounters,
        out: &mut [LaneRun],
    ) {
        let (sim, ckpts) = (self.sim, self.ckpts);
        let flat = &sim.flat;
        let cfg = flat.cfg;
        let max_cycles = sim.limits.max_cycles;
        let step_limit = max_cycles.saturating_mul(2) + 1024;
        let idx = ckpts.nearest_at_or_before(faults[0].cycle);
        let mut s = self.restore(idx);
        // First cycle of the replay segment in flight (a gap skip starts
        // a new one).
        let mut segment = s.cycle;
        let mut lanes =
            Lanes { faults, next: 0, restored_at: [0; LANES], active: 0, sdc: 0, hash_div: 0 };
        // Forward cursor over the checkpoints: the replay visits every
        // cycle boundary once, in order, and the cursor steps past each
        // checkpoint it reaches, so between boundaries it points at the
        // first checkpoint ahead.
        let mut next_ck = idx;
        // The next boundary lane bookkeeping must visit: the nearer of the
        // next checkpoint and the next pending lane's cycle, or the
        // boundary after a step that retired or flagged a lane.
        let mut next_event = s.cycle;
        let mut clean_steps = 0;

        let end = 'replay: loop {
            s.steps += 1;
            let op = flat.ops[s.pc as usize];
            if let OpKind::Goto { target } = op.kind {
                s.pc = target;
                continue;
            }

            if s.cycle == next_event {
                // The replay follows the golden run, which completed
                // within the budget (`batch_eligible`).
                assert!(
                    s.cycle < max_cycles && s.steps < step_limit,
                    "golden replay exceeded the budget it was recorded under"
                );
                // Per-lane convergence first, exactly like the scalar
                // engine: at checkpoint-aligned cycles only, before this
                // boundary's lanes join — so a lane is checked strictly
                // after its injection cycle.
                if ckpts.checkpoints.get(next_ck).is_some_and(|c| c.cycle == s.cycle) {
                    self.converge(&ckpts.checkpoints[next_ck], &s, &mut lanes, out);
                    next_ck += 1;
                }
                if lanes.active == 0 {
                    let Some(pending) = faults.get(lanes.next) else { break 'replay s.cycle };
                    debug_assert!(pending.cycle >= s.cycle, "the replay never passes a lane");
                    // Gap skip: with no lane resident, the golden cycles
                    // up to the next pending lane's checkpoint are needed
                    // by nobody. Rewind and restore that checkpoint
                    // instead of replaying.
                    if ckpts.checkpoints.get(next_ck).is_some_and(|c| c.cycle <= pending.cycle) {
                        counters.replay_steps += s.cycle - segment;
                        let idx = ckpts.nearest_at_or_before(pending.cycle);
                        self.rewind();
                        s = self.restore(idx);
                        segment = s.cycle;
                        next_ck = idx;
                        next_event = s.cycle;
                        continue 'replay;
                    }
                }
                // Single-lane handoff: a lone lane that can no longer
                // converge, with no lane left to join, gains nothing from
                // the batch, and the scalar interpreter runs one lane
                // faster than the replay does.
                if lanes.next == faults.len()
                    && lanes.active.is_power_of_two()
                    && lanes.candidates() == 0
                {
                    let lane = lanes.active.trailing_zeros() as usize;
                    let (class, stop) = self.fork_lane(&s, &lanes, lane, false, counters);
                    counters.handoff_lanes += 1;
                    lanes.retire(out, lanes.active, class, stop, false);
                    break 'replay s.cycle;
                }
                // Fault injection on the boundary: the lanes of this cycle
                // join, mirroring `OpState::flip`: flips into the zero
                // register or past xlen are physically impossible and
                // leave the lane clean. Lanes may fault different
                // registers; a flipped bit always differs from the golden
                // value, so the taint bit is always set.
                while faults.get(lanes.next).is_some_and(|f| f.cycle == s.cycle) {
                    let lane = lanes.admit(ckpts);
                    let LaneFault { reg, bit, .. } = faults[lane];
                    if cfg.is_zero_reg(reg) || bit >= cfg.xlen {
                        continue;
                    }
                    let i = reg.index() as usize;
                    self.vals[i][lane] = s.regs[i] ^ (1u64 << bit);
                    self.taint[i] |= 1u64 << lane;
                    self.tainted_regs |= 1u64 << i;
                }
                let ck = ckpts.checkpoints.get(next_ck).map_or(u64::MAX, |c| c.cycle);
                next_event = faults.get(lanes.next).map_or(ck, |f| f.cycle.min(ck));
            }

            let regs = flat.regs[s.pc as usize];
            let clean = regs.reads & self.tainted_regs == 0
                && (self.overlay.lanes & lanes.active == 0
                    || !self.holds_golden_word(op.kind, &s.regs, lanes.active));
            let commit = if clean {
                Commit::None
            } else {
                // The lane side of the step, *before* the shared
                // execution mutates anything: a diverging lane's scalar
                // state is exactly this boundary state, so it forks (or
                // retires) here and the shared step then executes the
                // golden behavior for the rest.
                let before = (lanes.active, lanes.sdc | lanes.hash_div);
                let commit = self.tainted_step(op, regs.split, &s, &mut lanes, out, counters);
                if (lanes.active, lanes.sdc | lanes.hash_div) != before {
                    if lanes.done() {
                        break 'replay s.cycle;
                    }
                    self.clear_lanes(!lanes.active);
                    next_event = s.cycle + 1;
                }
                commit
            };

            // The shared golden execution: the tail interpreter's own op
            // semantics, so hash, outputs and dirty accounting stay
            // bit-identical. No memory digest: nothing reads it — batch
            // convergence compares registers only, and tails never check
            // convergence.
            let at = s.cycle;
            s.cycle += 1;
            let memory = &mut self.memory;
            if let Some(outcome) = flat.exec(cfg, op, &mut s, memory, &mut self.dirty, &mut Hashed)
            {
                // The program ends here (the golden run cannot trap). An
                // entry return's read registers become outputs, so a lane
                // with any of them tainted emits divergent output.
                debug_assert_eq!(outcome, ExecOutcome::Completed, "the golden replay cannot trap");
                let bad = match op.kind {
                    OpKind::Ret { reads, count } => flat.ret_reads[reads as usize..]
                        [..count as usize]
                        .iter()
                        .fold(0, |bad, &slot| bad | self.taint[slot as usize]),
                    _ => 0,
                };
                lanes.finish(out, ckpts, bad, at);
                break 'replay at;
            }
            if clean {
                clean_steps += 1;
                let w = regs.writes & self.tainted_regs;
                if w != 0 {
                    self.tainted_regs &= !w;
                    self.taint[w.trailing_zeros() as usize] = 0;
                }
            } else {
                self.commit(commit, &s);
            }
        };
        counters.replay_steps += end - segment;
        counters.replay_clean_steps += clean_steps;

        // Undo the batch, leaving the scratch memory in initial state.
        self.rewind();
        self.clear_lanes(u64::MAX);
    }

    /// The lane side of a step that reads a tainted register or touches a
    /// word a resident lane holds: runs the step's lane kernel, forks the
    /// lanes whose branch condition flips, retires lanes whose memory
    /// access traps or whose return address is corrupt, routes divergent
    /// loads and stores through the lanes' own views of memory, and flags
    /// lanes printing a divergent value. Returns what is left to do after
    /// the shared execution.
    fn tainted_step(
        &mut self,
        op: Op,
        split: bool,
        s: &OpState,
        lanes: &mut Lanes<'_>,
        out: &mut [LaneRun],
        counters: &mut BatchCounters,
    ) -> Commit {
        let cfg = self.sim.flat.cfg;
        let mask = cfg.mask();
        let regs = &s.regs;
        let flips = with_tail_ops!(lane_match! { op.kind, self, regs, lanes.active, cfg, {
            OpKind::Mv { rd, rs } => {
                self.lane_unary(regs, rd, rs, |v| v);
                0
            }
            OpKind::Neg { rd, rs } => {
                self.lane_unary(regs, rd, rs, |v| 0u64.wrapping_sub(v) & mask);
                0
            }
            OpKind::Seqz { rd, rs } => {
                self.lane_unary(regs, rd, rs, |v| u64::from(v == 0));
                0
            }
            OpKind::Snez { rd, rs } => {
                self.lane_unary(regs, rd, rs, |v| u64::from(v != 0));
                0
            }
            OpKind::Load { rd, base, width, signed, offset } => {
                // A tainted base yields a *different* effective address in
                // that lane (truncation is injective on xlen-bit values):
                // the lane either traps right here — retired as the crash
                // the scalar run takes — or reads its own view of memory,
                // and its trace hash diverges for good (the load event
                // records the address). A lane holding its own word at the
                // golden address reads that word instead.
                let size = width.bytes();
                let g_addr = effective_address(regs[base as usize], offset, mask);
                let held = self.overlay.holders((g_addr >> 2) as u32);
                let mut divergent = 0;
                let mut m = (self.taint[base as usize] | held) & lanes.active;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    let bit = 1u64 << lane;
                    m &= m - 1;
                    let (addr, trap) = self.lane_addr(base, offset, size, lane, g_addr);
                    if trap {
                        lanes.end(out, bit, FaultClass::Crash, s.cycle);
                        continue;
                    }
                    let word = self.overlay.view(&self.memory, (addr >> 2) as u32, lane);
                    let raw = (word as u64 >> ((addr & 3) * 8)) & width_mask(size);
                    self.lane_results[lane] = extend_load(raw, signed, size) & mask;
                    divergent |= bit;
                    if addr != g_addr {
                        lanes.hash_div |= bit;
                    }
                }
                return Commit::Load { rd, divergent };
            }
            OpKind::Store { rs, base, width, offset } => {
                // A lane whose store differs from the golden one — in
                // address or in the stored low `width` bytes — or that
                // holds its own word at the golden address keeps its
                // resulting view of the touched words in its overlay. A
                // divergent address either traps here (retired as the
                // crash the scalar run takes) or leaves the golden target
                // word unchanged in the lane.
                self.store_views.clear();
                let size = width.bytes();
                let wmask = width_mask(size);
                let g_rs = regs[rs as usize];
                let g_val = g_rs & wmask;
                let g_addr = effective_address(regs[base as usize], offset, mask);
                let g_widx = (g_addr >> 2) as u32;
                let held = self.overlay.holders(g_widx);
                let t_rs = self.taint[rs as usize];
                let mut m = (self.taint[base as usize] | t_rs | held) & lanes.active;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    let bit = 1u64 << lane;
                    m &= m - 1;
                    let (addr, trap) = self.lane_addr(base, offset, size, lane, g_addr);
                    if trap {
                        lanes.end(out, bit, FaultClass::Crash, s.cycle);
                        continue;
                    }
                    let v = if t_rs & bit != 0 { self.vals[rs as usize][lane] } else { g_rs };
                    let val = v & wmask;
                    if (addr, val) != (g_addr, g_val) {
                        // The store event hashes address and value.
                        lanes.hash_div |= bit;
                    } else if held & bit == 0 {
                        continue;
                    }
                    let mem = &self.memory;
                    let widx = (addr >> 2) as u32;
                    if widx != g_widx {
                        let keep = self.overlay.view(mem, g_widx, lane);
                        self.store_views.push((lane as u8, g_widx, keep));
                    }
                    let shift = (addr & 3) * 8;
                    let old = self.overlay.view(mem, widx, lane);
                    let new = (old & !((wmask << shift) as u32)) | (val << shift) as u32;
                    self.store_views.push((lane as u8, widx, new));
                }
                return Commit::Store;
            }
            OpKind::Print { rs } => {
                // Printing doesn't mutate machine state, so divergent
                // lanes stay batched — flagged, with the output recorded
                // for an eventual fork.
                let mut m = self.taint[rs as usize] & lanes.active;
                lanes.sdc |= m;
                lanes.hash_div |= m;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let v = self.vals[rs as usize][lane];
                    self.out_patches.push((s.outputs.len() as u32, lane as u8, v));
                }
                0
            }
            OpKind::Ret { .. } => {
                // Non-entry return: the golden RA holds the frame's token,
                // so a tainted RA *is* a wild return. (An entry return's
                // outputs are checked when the program ends.)
                if !s.stack.is_empty() && cfg.num_regs == 32 {
                    let bad = self.taint[read_slot(&cfg, Reg::RA) as usize] & lanes.active;
                    lanes.end(out, bad, FaultClass::Crash, s.cycle);
                }
                0
            }
            // These read no register: never tainted.
            OpKind::Li { .. }
            | OpKind::Nop
            | OpKind::Call { .. }
            | OpKind::Goto { .. }
            | OpKind::Exit => 0,
        }});
        // A lane whose branch condition flips forks; on split edges its
        // next trace token already differs from the golden run's.
        let mut m = flips;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let (class, stop) = self.fork_lane(s, lanes, lane, split, counters);
            counters.forked_lanes += 1;
            lanes.retire(out, 1u64 << lane, class, stop, false);
        }
        Commit::None
    }

    /// Finishes a tainted step after the shared execution `s` ran it: a
    /// load's lanes keep their own values where they differ from the
    /// golden one, a store's divergent lanes their views in the overlay.
    fn commit(&mut self, commit: Commit, s: &OpState) {
        match commit {
            Commit::None => {}
            Commit::Load { rd, .. } if rd == SINK_SLOT => {}
            Commit::Load { rd, divergent } => {
                let g = s.regs[rd as usize];
                let mut taint = 0u64;
                let mut m = divergent;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.lane_results[lane] != g {
                        self.vals[rd as usize][lane] = self.lane_results[lane];
                        taint |= 1u64 << lane;
                    }
                }
                self.set_taint(rd, taint);
            }
            Commit::Store => {
                for &(lane, widx, word) in &self.store_views {
                    let shared = self.memory.word(widx);
                    self.overlay.set(widx, lane as usize, word, shared);
                }
            }
        }
    }

    /// The lane kernel of a unary operation `f` from slot `rs` into slot
    /// `rd` over the golden register file `regs`: each lane tainted in
    /// `rs` computes its own result and stays tainted in `rd` exactly
    /// where that result differs from the golden one; every other lane
    /// gets the golden result.
    #[inline(always)]
    fn lane_unary(&mut self, regs: &[u64; 256], rd: u8, rs: u8, f: impl Fn(u64) -> u64) {
        let src = rs as usize;
        self.kernel(rd, self.taint[src], f(regs[src]), |vals, lane| f(vals[src][lane]));
    }

    /// The lane kernel of a binary operation `f` of slots `rs1` and `rs2`
    /// into slot `rd`, as [`Self::lane_unary`]: the lanes where either
    /// source is tainted read their own value of a tainted source and the
    /// golden value of a clean one.
    #[inline(always)]
    fn lane_binary(
        &mut self,
        regs: &[u64; 256],
        rd: u8,
        rs1: u8,
        rs2: u8,
        f: impl Fn(u64, u64) -> u64,
    ) {
        let (s1, s2) = (rs1 as usize, rs2 as usize);
        let (a_g, b_g) = (regs[s1], regs[s2]);
        let (ta, tb) = (self.taint[s1], self.taint[s2]);
        self.kernel(rd, ta | tb, f(a_g, b_g), |vals, lane| {
            f(pick(ta, lane, &vals[s1], a_g), pick(tb, lane, &vals[s2], b_g))
        });
    }

    /// The loop of every lane kernel: each lane of `lanes` computes its
    /// `value` of slot `rd` and stays tainted there exactly where it
    /// differs from the golden value `g`; every other lane gets `g`.
    #[inline(always)]
    fn kernel(
        &mut self,
        rd: u8,
        lanes: u64,
        g: u64,
        value: impl Fn(&[[u64; LANES]; 256], usize) -> u64,
    ) {
        // Writes to the zero register vanish: its taint stays empty.
        if rd == SINK_SLOT {
            return;
        }
        let mut taint = 0u64;
        let mut m = lanes;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let v = value(&self.vals, lane);
            // Branch-free: a lane whose result is golden stores a value
            // its cleared taint bit marks invalid.
            self.vals[rd as usize][lane] = v;
            taint |= u64::from(v != g) << lane;
        }
        self.set_taint(rd, taint);
    }

    /// The lanes of `active` whose condition `cond` over slots `rs1` and
    /// `rs2` differs from the golden one.
    #[inline(always)]
    fn flips(
        &self,
        regs: &[u64; 256],
        active: u64,
        rs1: u8,
        rs2: u8,
        cond: impl Fn(u64, u64) -> bool,
    ) -> u64 {
        let (a_g, b_g) = (regs[rs1 as usize], regs[rs2 as usize]);
        let taken = cond(a_g, b_g);
        let (ta, tb) = (self.taint[rs1 as usize], self.taint[rs2 as usize]);
        let mut flips = 0u64;
        let mut m = (ta | tb) & active;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let a = pick(ta, lane, &self.vals[rs1 as usize], a_g);
            let b = pick(tb, lane, &self.vals[rs2 as usize], b_g);
            flips |= u64::from(cond(a, b) != taken) << lane;
        }
        flips
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::{MachineConfig, Program};

    fn memory(xlen: u32) -> Memory {
        let config = MachineConfig { xlen, num_regs: 4, zero_reg: None };
        Memory::for_program(&Program::new(config))
    }

    #[test]
    fn overlay_view_set_back_to_the_shared_word_drops_its_holder() {
        let mem = memory(32);
        let mut overlay = Overlay::new(&mem);
        let shared = mem.word(0x400);
        overlay.set(0x400, 3, 7, shared);
        overlay.set(0x400, 5, 9, shared);
        assert_eq!(overlay.holders(0x400), 1 << 3 | 1 << 5);
        assert_eq!(overlay.view(&mem, 0x400, 3), 7);
        overlay.set(0x400, 3, shared, shared);
        assert_eq!(overlay.holders(0x400), 1 << 5);
        assert_eq!(overlay.view(&mem, 0x400, 3), shared);
        assert_eq!(overlay.view(&mem, 0x400, 5), 9);
        // A view equal to the shared word never creates an entry.
        overlay.set(0x401, 3, mem.word(0x401), mem.word(0x401));
        assert_eq!(overlay.slot(0x401), None);
    }

    #[test]
    fn cleared_overlay_leaves_no_stale_slot() {
        let mem = memory(32);
        let mut overlay = Overlay::new(&mem);
        overlay.set(10, 0, 1, 0);
        overlay.set(20, 1, 2, 0);
        overlay.clear();
        assert!(overlay.index.iter().all(|&s| s == 0), "index reset");
        // The next batch's first word takes the first entry again; the
        // words of the previous batch must not resolve to it.
        overlay.set(30, 0, 3, 0);
        assert_eq!(overlay.holders(30), 1);
        assert_eq!(overlay.holders(10), 0);
        assert_eq!(overlay.holders(20), 0);
        assert_eq!(overlay.view(&mem, 10, 0), mem.word(10));
        overlay.set(20, 1, 4, 0);
        assert_eq!(overlay.holders(20), 1 << 1);
        assert_eq!(overlay.view(&mem, 20, 1), 4);
        assert_eq!(overlay.view(&mem, 30, 0), 3);
    }

    #[test]
    fn overlay_reaches_the_last_word_of_every_memory_size() {
        // rv32, 16- and 4-bit machines, and memories of one word or less.
        for xlen in [32, 16, 4, 2, 1] {
            let mem = memory(xlen);
            let last = ((mem.len() - 1) / 4) as u32;
            let mut overlay = Overlay::new(&mem);
            overlay.set(last, 63, 0xdead_beef, mem.word(last));
            assert_eq!(overlay.holders(last), 1 << 63, "xlen {xlen}");
            assert_eq!(overlay.view(&mem, last, 63), 0xdead_beef, "xlen {xlen}");
            assert_eq!(overlay.view(&mem, last, 0), mem.word(last), "xlen {xlen}");
        }
    }
}
