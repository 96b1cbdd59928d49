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
//! condition, an effective address, or an observable output. The scratch
//! machine replays the golden trace while each lane carries only its
//! *taint* — the set of registers whose lane value differs from the
//! golden value, plus those values — and a sparse memory *overlay* — the
//! memory words whose lane value differs from the shared memory.
//! Arithmetic steps recompute tainted lanes against the golden sources in
//! registers; loads and stores of a lane with a divergent address, value
//! or overlay word go through the lane's own view of memory; control flow
//! and the trace hash are shared. When every lane that joined has retired
//! and the next pending lane's checkpoint lies ahead, the batch *skips the
//! gap*: it rewinds the scratch machine and restores that checkpoint
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
//! replays faster scalar-ly. Per-lane convergence applies the scalar
//! engine's own per-bit dynamic-liveness check at every aligned checkpoint
//! cycle strictly after the lane's injection cycle, and each lane accounts
//! its cycles from the checkpoint its own scalar run restores, so
//! verdicts, early-exit counts and per-fault cycle accounting are
//! identical to the scalar engine's — `tests/bitslice_equivalence.rs` pins
//! report byte-identity across engines and worker counts.
//!
//! **Lane kernels.** The per-lane work of a replay step is one loop over
//! the lanes the step affects. An ALU step matches its op once and then
//! runs a loop specialised to that op: each loop calls [`eval_alu`], the
//! one definition of ALU semantics, inlined with a constant op, reads lane
//! values straight from the value array, and takes its operands' taint
//! masks once per step.
//! Overlay lookups hash nothing: a dense index maps every memory word to
//! its overlay entry, and a batch's end resets only the slots it used.
//! `docs/oracle.md` records the before/after cost per replay step.

use crate::checkpoint::CheckpointLog;
use crate::exec::{
    call_seed, call_token, effective_address, extend_load, run_tail, step_inst, trace_token,
    width_mask, Edges, ExecState, FlatStep, StepResult, MAX_CALL_DEPTH,
};
use crate::machine::{Machine, Memory};
use crate::runner::{GoldenRun, Simulator};
use crate::shard::SitedFault;
use crate::trace::FaultClass;
use crate::ExecOutcome;
use bec_ir::semantics::{eval_alu, eval_cond};
use bec_ir::{AluOp, Inst, Reg};
use bec_telemetry::Histogram;
use std::time::{Duration, Instant};

/// Lanes per batch: one per bit of the `u64` taint masks.
const LANES: usize = 64;

/// Evaluates `$body` with `$k` bound to the constant [`AluOp`] equal to
/// `$op`: one copy of `$body` per op, so a lane loop that calls
/// [`eval_alu`] with `$k` inlines it with the op match folded away.
macro_rules! with_alu_op {
    ($op:expr, |$k:ident| $body:block) => {
        with_alu_op!(@arms $op, $k, $body,
            Add Sub And Or Xor Sll Srl Sra Slt Sltu Mul Mulh Mulhu Div Divu Rem Remu)
    };
    (@arms $op:expr, $k:ident, $body:block, $($v:ident)*) => {
        match $op {
            $(AluOp::$v => {
                let $k = AluOp::$v;
                $body
            })*
        }
    };
}

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
    /// Lanes-per-batch distribution.
    pub occupancy: Histogram,
}

/// Whether shards of this campaign can run batched: batching replays the
/// golden trace and proves per-lane convergence against it, which is only
/// meaningful under exactly the conditions the scalar engine's early-exit
/// requires (enabled checkpoints; a completed golden run that fits the
/// fault-run budget). Exotic machines with more registers than taint-mask
/// bits fall back to the scalar engine.
pub(crate) fn batch_eligible(sim: &Simulator<'_>, ckpts: &CheckpointLog) -> bool {
    let max_cycles = sim.limits.max_cycles;
    let step_limit = max_cycles.saturating_mul(2) + 1024;
    ckpts.is_enabled()
        && ckpts.completed
        && ckpts.final_cycles <= max_cycles
        && ckpts.final_steps < step_limit
        && sim.program().config.num_regs as usize <= LANES
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

/// The reusable batch execution context of one worker: one scratch
/// machine, the dirty-word undo log, and the lane state arrays, reused
/// across every batch the worker runs.
pub(crate) struct BatchRunner<'p, 's> {
    sim: &'s Simulator<'p>,
    machine: Machine,
    initial_regs: Vec<u64>,
    dirty: Vec<(u32, u32)>,
    /// `taint[r]` bit L set ⇔ lane L's value of register `r` differs from
    /// the golden value currently in the machine.
    taint: Vec<u64>,
    /// Bit `r` set ⇔ `taint[r] != 0` (fast iteration over tainted regs).
    tainted_regs: u64,
    /// Lane values, `vals[r * LANES + lane]`, valid iff the taint bit is
    /// set. Always truncated to xlen.
    vals: Vec<u64>,
    /// Per-lane memory words that differ from the shared memory.
    overlay: Overlay,
    /// Register-file snapshot scratch used around lane forks.
    reg_snap: Vec<u64>,
    /// `(output index, lane, value)` patches of SDC-flagged lanes: outputs
    /// whose lane value differs from the golden value printed there.
    out_patches: Vec<(u32, u8, u64)>,
    /// Per-lane results of the current instruction, valid for the lanes
    /// it affects (loads fill them during detection).
    lane_results: [u64; LANES],
    /// Lanes of the current `Load` reading their own view of memory.
    load_divergent: u64,
    /// `(lane, word index, word)` views the current `Store` leaves its
    /// divergent lanes with, applied to the overlay after the shared
    /// store.
    store_views: Vec<(u8, u32, u32)>,
}

impl<'p, 's> BatchRunner<'p, 's> {
    pub(crate) fn new(sim: &'s Simulator<'p>) -> BatchRunner<'p, 's> {
        let machine = Machine::new(sim.program());
        let nregs = machine.regs().len();
        BatchRunner {
            sim,
            initial_regs: machine.regs().to_vec(),
            overlay: Overlay::new(&machine.memory),
            machine,
            dirty: Vec::new(),
            taint: vec![0; nregs],
            tainted_regs: 0,
            vals: vec![0; nregs * LANES],
            reg_snap: vec![0; nregs],
            out_patches: Vec::new(),
            lane_results: [0; LANES],
            load_divergent: 0,
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
        golden: &GoldenRun,
        ckpts: &CheckpointLog,
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
            self.run_batch(golden, ckpts, chunk, counters, out);
        }
    }

    /// Bits of `taint[r]`, tolerating the hardwired zero register (whose
    /// taint is never set).
    fn taint_of(&self, r: Reg) -> u64 {
        self.taint[r.index() as usize]
    }

    /// Lane L's value of `r`, given the golden value in the machine.
    fn lane_value(&self, r: Reg, lane: usize, golden: u64) -> u64 {
        if self.taint_of(r) >> lane & 1 != 0 {
            self.vals[r.index() as usize * LANES + lane]
        } else {
            golden
        }
    }

    /// Replaces the taint of `rd` with `mask` (callers store the lane
    /// values first). Writes to the zero register vanish, so its taint
    /// stays empty.
    fn set_taint(&mut self, rd: Reg, mask: u64) {
        if self.machine.config().is_zero_reg(rd) {
            return;
        }
        let i = rd.index() as usize;
        self.taint[i] = mask;
        if mask == 0 {
            self.tainted_regs &= !(1u64 << i);
        } else {
            self.tainted_regs |= 1u64 << i;
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
    fn lane_addr(
        &self,
        base: Reg,
        offset: i64,
        size: u64,
        lane: usize,
        golden: u64,
    ) -> (u64, bool) {
        if self.taint_of(base) >> lane & 1 == 0 {
            return (golden, false);
        }
        let mask = self.machine.config().mask();
        let addr =
            effective_address(self.vals[base.index() as usize * LANES + lane], offset as u64, mask);
        let trap = !addr.is_multiple_of(size)
            || addr.checked_add(size).is_none_or(|end| end > self.machine.memory.len() as u64);
        (addr, trap)
    }

    /// Forks lane `lane` out of the batch at the boundary state `st`: the
    /// lane's scalar state — its tainted registers and overlay words — is
    /// materialized on the shared machine, its tail runs to a terminal
    /// outcome through the scalar tail interpreter, and the machine is
    /// restored for the replay to continue. `split` marks a fork at a
    /// branch whose edges lead to different steps. Returns the lane's
    /// class and the cycle its run stopped at.
    fn fork_lane(
        &mut self,
        golden: &GoldenRun,
        st: &ExecState,
        lanes: &Lanes<'_>,
        lane: usize,
        split: bool,
        counters: &mut BatchCounters,
    ) -> (FaultClass, u64) {
        let bit = 1u64 << lane;
        let mark = self.dirty.len();
        self.reg_snap.copy_from_slice(self.machine.regs());
        let mut t = self.tainted_regs;
        while t != 0 {
            let r = t.trailing_zeros() as usize;
            t &= t - 1;
            if self.taint[r] & bit != 0 {
                self.machine.write(Reg::phys(r as u32), self.vals[r * LANES + lane]);
            }
        }
        // Overlay words go through the dirty log, so the undo below
        // restores the shared memory as well.
        if self.overlay.lanes & bit != 0 {
            for (widx, held, words) in &self.overlay.words {
                if held & bit != 0 {
                    self.dirty.push((*widx, self.machine.memory.word(*widx)));
                    self.machine.memory.set_word(*widx, words[lane]);
                }
            }
        }
        let sdc = lanes.sdc & bit != 0;
        let mut outputs = st.outputs.clone();
        if sdc {
            for &(idx, l, v) in &self.out_patches {
                if l as usize == lane {
                    outputs[idx as usize] = v;
                }
            }
        }
        // A lane whose trace already differs from the golden run's — a
        // divergent print, load or store, or a branch onto another path —
        // cannot end Benign, so its tail skips the trace hash.
        let trace_diverged = sdc || lanes.hash_div & bit != 0 || split;
        let state = ExecState {
            hash: st.hash,
            outputs,
            cycle: st.cycle,
            // The scalar loop-top increment reproduces this boundary's
            // step count exactly.
            steps: st.steps - 1,
            func: st.func,
            pc: st.pc,
            stack: st.stack.clone(),
            // Tails track no digest: they never check convergence.
            mem_digest: 0,
        };
        let started = Instant::now();
        let result = run_tail(
            &self.sim.flat,
            self.sim.limits.max_cycles,
            state,
            &mut self.machine,
            &mut self.dirty,
            !trace_diverged,
        );
        counters.tail_time += started.elapsed();
        // Undo the tail: pop its dirty words in reverse and restore the
        // replay's register file, leaving the shared state exactly at the
        // boundary again.
        while self.dirty.len() > mark {
            let (w, old) = self.dirty.pop().expect("watermarked");
            self.machine.memory.set_word(w, old);
        }
        self.machine.restore_regs(&self.reg_snap);
        counters.tail_cycles += result.cycles - st.cycle;
        let class = if trace_diverged {
            // Classify from the outcome and the outputs alone: a completed
            // run cannot be Benign (its trace differs), and is a Deviation
            // exactly when its outputs still match the golden run's (never
            // the case once a divergent print was emitted).
            match result.outcome {
                ExecOutcome::Crashed(_) => FaultClass::Crash,
                ExecOutcome::Timeout => FaultClass::Hang,
                ExecOutcome::Completed => {
                    if result.outputs == golden.result.outputs {
                        FaultClass::Deviation
                    } else {
                        FaultClass::Sdc
                    }
                }
            }
        } else {
            result.classify(&golden.result)
        };
        (class, result.cycles)
    }

    /// Undoes every write to the scratch machine since it was last in
    /// initial state: pops the dirty log in reverse and resets the
    /// register file.
    fn rewind(&mut self) {
        self.machine.restore_regs(&self.initial_regs);
        while let Some((w, old)) = self.dirty.pop() {
            self.machine.memory.set_word(w, old);
        }
    }

    /// Restores checkpoint `idx` onto the scratch machine, which must be in
    /// initial state (its cumulative memory image applies onto the
    /// initial memory), with no lane resident.
    fn restore(&mut self, golden: &GoldenRun, ckpts: &CheckpointLog, idx: usize) -> ExecState {
        debug_assert!(self.dirty.is_empty(), "restore onto a rewound machine");
        debug_assert_eq!(self.tainted_regs, 0, "no lane resident");
        self.out_patches.clear();
        self.overlay.clear();
        ExecState::restore(ckpts, idx, golden.outputs(), &mut self.machine, &mut self.dirty)
    }

    /// Runs one batch: `faults` in injection-cycle order, each joining the
    /// shared replay at its own cycle.
    fn run_batch(
        &mut self,
        golden: &GoldenRun,
        ckpts: &CheckpointLog,
        faults: &[LaneFault],
        counters: &mut BatchCounters,
        out: &mut [LaneRun],
    ) {
        let cfg = *self.machine.config();
        let max_cycles = self.sim.limits.max_cycles;
        let step_limit = max_cycles.saturating_mul(2) + 1024;
        let idx = ckpts.nearest_at_or_before(faults[0].cycle);
        let mut st = self.restore(golden, ckpts, idx);
        // First cycle of the replay segment in flight (a gap skip starts
        // a new one).
        let mut segment = st.cycle;
        let mut lanes =
            Lanes { faults, next: 0, restored_at: [0; LANES], active: 0, sdc: 0, hash_div: 0 };
        // Forward cursor over the checkpoints: the replay visits every
        // cycle boundary once, in order, and the cursor steps past each
        // checkpoint it reaches, so between boundaries it points at the
        // first checkpoint ahead.
        let mut next_ck = idx;

        'replay: loop {
            st.steps += 1;
            assert!(
                st.cycle < max_cycles && st.steps < step_limit,
                "golden replay exceeded the budget it was recorded under"
            );
            let step = &self.sim.flat.funcs[st.func as usize].steps[st.pc as usize];
            if let FlatStep::Goto { target } = step {
                st.pc = *target;
                continue;
            }

            // Cycle boundary. Per-lane convergence first, exactly like the
            // scalar engine: at checkpoint-aligned cycles only, before this
            // boundary's lanes join — so a lane is checked strictly after
            // its injection cycle. All non-register state of a
            // convergence candidate equals the golden replay's (a lane with
            // overlay words is trace-diverged), so the check reduces to the
            // per-bit register comparison.
            if ckpts.checkpoints.get(next_ck).is_some_and(|c| c.cycle == st.cycle) {
                let ck = &ckpts.checkpoints[next_ck];
                next_ck += 1;
                let mut ok = lanes.candidates();
                let mut t = self.tainted_regs;
                while ok != 0 && t != 0 {
                    let r = t.trailing_zeros() as usize;
                    t &= t - 1;
                    let live = ck.live_bits[r];
                    let g = self.machine.regs()[r];
                    let mut m = self.taint[r] & ok;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        if (self.vals[r * LANES + lane] ^ g) & live != 0 {
                            ok &= !(1u64 << lane);
                        }
                    }
                }
                if ok != 0 {
                    lanes.retire(out, ok, FaultClass::Benign, st.cycle, true);
                    self.clear_lanes(ok);
                }
            }

            if lanes.active == 0 {
                let Some(pending) = faults.get(lanes.next) else { break 'replay };
                debug_assert!(pending.cycle >= st.cycle, "the replay never passes a lane");
                // Gap skip: with no lane resident, the golden cycles up to
                // the next pending lane's checkpoint are needed by nobody.
                // Rewind and restore that checkpoint instead of replaying.
                if ckpts.checkpoints.get(next_ck).is_some_and(|c| c.cycle <= pending.cycle) {
                    counters.replay_steps += st.cycle - segment;
                    let idx = ckpts.nearest_at_or_before(pending.cycle);
                    self.rewind();
                    st = self.restore(golden, ckpts, idx);
                    segment = st.cycle;
                    next_ck = idx;
                    continue 'replay;
                }
            }

            // Single-lane handoff: a lone lane that can no longer converge,
            // with no lane left to join, gains nothing from the batch, and
            // the scalar interpreter runs one lane faster than the replay
            // does.
            if lanes.next == faults.len()
                && lanes.active.is_power_of_two()
                && lanes.candidates() == 0
            {
                let lane = lanes.active.trailing_zeros() as usize;
                let (class, stop) = self.fork_lane(golden, &st, &lanes, lane, false, counters);
                counters.handoff_lanes += 1;
                lanes.retire(out, lanes.active, class, stop, false);
                break 'replay;
            }

            // Fault injection on the boundary: the lanes of this cycle
            // join, mirroring `Machine::flip`: flips into the zero
            // register or past xlen are physically impossible and leave
            // the lane clean. Lanes may fault different registers; a
            // flipped bit always differs from the golden value, so the
            // taint bit is always set.
            while faults.get(lanes.next).is_some_and(|f| f.cycle == st.cycle) {
                let lane = lanes.admit(ckpts);
                let LaneFault { reg, bit, .. } = faults[lane];
                if cfg.is_zero_reg(reg) || bit >= cfg.xlen {
                    continue;
                }
                let i = reg.index() as usize;
                self.vals[i * LANES + lane] = self.machine.read(reg) ^ (1u64 << bit);
                self.taint[i] |= 1u64 << lane;
                self.tainted_regs |= 1u64 << i;
            }

            // Divergence detection, *before* the shared execution mutates
            // anything: a diverging lane's scalar state is exactly this
            // boundary state, so it forks (or retires) here and the shared
            // step then executes the golden behavior for the rest.
            match step {
                FlatStep::Goto { .. } => unreachable!("handled above"),
                FlatStep::Exit { .. } => {
                    lanes.finish(out, ckpts, 0, st.cycle);
                    break 'replay;
                }
                FlatStep::Ret { reads, .. } if st.stack.is_empty() => {
                    // Entry return: the read registers become outputs, so a
                    // lane with any of them tainted emits divergent output.
                    let mut bad = 0;
                    for r in *reads {
                        bad |= self.taint_of(*r);
                    }
                    lanes.finish(out, ckpts, bad, st.cycle);
                    break 'replay;
                }
                FlatStep::Ret { .. } => {
                    // Non-entry return: the golden RA holds the frame's
                    // token, so a tainted RA *is* a wild return.
                    if cfg.num_regs == 32 {
                        let bad = self.taint_of(Reg::RA) & lanes.active;
                        if bad != 0 {
                            lanes.end(out, bad, FaultClass::Crash, st.cycle);
                            self.clear_lanes(bad);
                        }
                    }
                }
                // A flipped condition changes nothing when both edges are
                // the same path: the lane stays batched.
                FlatStep::Branch { edges: Edges::Same, .. } => {}
                FlatStep::Branch { cond, rs1, rs2, edges, .. } => {
                    let a_g = self.machine.read(*rs1);
                    let b_g = rs2.map(|r| self.machine.read(r)).unwrap_or(0);
                    let taken_g = eval_cond(&cfg, *cond, a_g, b_g);
                    let mut m = (self.taint_of(*rs1) | rs2.map(|r| self.taint_of(r)).unwrap_or(0))
                        & lanes.active;
                    while m != 0 {
                        let lane = m.trailing_zeros() as usize;
                        m &= m - 1;
                        let a = self.lane_value(*rs1, lane, a_g);
                        let b = rs2.map(|r| self.lane_value(r, lane, b_g)).unwrap_or(0);
                        if eval_cond(&cfg, *cond, a, b) != taken_g {
                            // On split edges the lane's next trace token
                            // already differs from the golden run's.
                            let split = *edges == Edges::Split;
                            let (class, stop) =
                                self.fork_lane(golden, &st, &lanes, lane, split, counters);
                            counters.forked_lanes += 1;
                            lanes.retire(out, 1u64 << lane, class, stop, false);
                        }
                    }
                    self.clear_lanes(!lanes.active);
                }
                FlatStep::Inst { inst, .. } => self.detect_inst(inst, &st, &mut lanes, out),
                FlatStep::Call { .. } | FlatStep::La { .. } => {}
            }
            if lanes.done() {
                break 'replay;
            }

            // Shared golden execution of the step — the scalar
            // interpreter's own code wherever possible, so hash, outputs
            // and dirty accounting stay bit-identical.
            let point = step.point();
            st.hash.update(trace_token(st.func, point));
            st.cycle += 1;
            match step {
                FlatStep::Goto { .. } | FlatStep::Exit { .. } => unreachable!("handled above"),
                FlatStep::Inst { inst, .. } => {
                    self.exec_inst(inst, &mut st);
                }
                FlatStep::La { rd, addr, .. } => {
                    self.machine.write(*rd, *addr);
                    self.set_taint(*rd, 0);
                    st.pc += 1;
                }
                FlatStep::Call { callee, .. } => {
                    // The golden run cannot overflow the stack (it
                    // completed), and the token only depends on shared
                    // state, so every lane's RA becomes the same token.
                    debug_assert!(st.stack.len() < MAX_CALL_DEPTH, "golden replay cannot overflow");
                    let token = call_token(call_seed(point), st.stack.len(), cfg.mask());
                    self.machine.write(Reg::RA, token);
                    self.set_taint(Reg::RA, 0);
                    st.stack.push(crate::checkpoint::FrameSnap {
                        func: st.func,
                        ret_pc: st.pc + 1,
                        ra_token: token,
                    });
                    st.func = *callee;
                    st.pc = self.sim.flat.funcs[*callee as usize].entry_pc;
                }
                FlatStep::Branch { cond, rs1, rs2, taken, fall, .. } => {
                    let a = self.machine.read(*rs1);
                    let b = rs2.map(|r| self.machine.read(r)).unwrap_or(0);
                    st.pc = if eval_cond(&cfg, *cond, a, b) { *taken } else { *fall };
                }
                FlatStep::Ret { .. } => {
                    let frame = st.stack.pop().expect("entry returns retired the batch");
                    st.func = frame.func;
                    st.pc = frame.ret_pc;
                }
            }
        }
        counters.replay_steps += st.cycle - segment;

        // Undo the batch, leaving the scratch machine in initial state.
        self.rewind();
        self.clear_lanes(u64::MAX);
    }

    /// Divergence detection of one ordinary instruction: retires lanes
    /// whose memory access traps, routes divergent loads and stores
    /// through the lanes' own views of memory, and flags lanes printing a
    /// divergent value.
    fn detect_inst(
        &mut self,
        inst: &Inst,
        st: &ExecState,
        lanes: &mut Lanes<'_>,
        out: &mut [LaneRun],
    ) {
        let cfg = *self.machine.config();
        match inst {
            Inst::Load { base, offset, width, signed, .. } => {
                // A tainted base yields a *different* effective address in
                // that lane (truncation is injective on xlen-bit values):
                // the lane either traps right here — retired as the crash
                // the scalar run takes — or reads its own view of memory,
                // and its trace hash diverges for good (the load event
                // records the address). A lane holding its own word at the
                // golden address reads that word instead.
                self.load_divergent = 0;
                let size = width.bytes();
                let g_addr =
                    effective_address(self.machine.read(*base), *offset as u64, cfg.mask());
                let held = self.overlay.holders((g_addr >> 2) as u32);
                let mut m = (self.taint_of(*base) | held) & lanes.active;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let (addr, trap) = self.lane_addr(*base, *offset, size, lane, g_addr);
                    if trap {
                        lanes.end(out, 1u64 << lane, FaultClass::Crash, st.cycle);
                        continue;
                    }
                    let word = self.overlay.view(&self.machine.memory, (addr >> 2) as u32, lane);
                    let raw = (word as u64 >> ((addr & 3) * 8)) & width_mask(size);
                    self.lane_results[lane] = cfg.truncate(extend_load(raw, *signed, size));
                    self.load_divergent |= 1u64 << lane;
                    if addr != g_addr {
                        lanes.hash_div |= 1u64 << lane;
                    }
                }
                self.clear_lanes(!lanes.active);
            }
            Inst::Store { rs, base, offset, width } => {
                // A lane whose store differs from the golden one — in
                // address or in the stored low `width` bytes — or that
                // holds its own word at the golden address keeps its
                // resulting view of the touched words in its overlay. A
                // divergent address either traps here (retired as the
                // crash the scalar run takes) or leaves the golden target
                // word unchanged in the lane.
                self.store_views.clear();
                let size = width.bytes();
                let mask = width_mask(size);
                let g_rs = self.machine.read(*rs);
                let g_val = g_rs & mask;
                let g_addr =
                    effective_address(self.machine.read(*base), *offset as u64, cfg.mask());
                let g_widx = (g_addr >> 2) as u32;
                let held = self.overlay.holders(g_widx);
                let mut m = (self.taint_of(*base) | self.taint_of(*rs) | held) & lanes.active;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    let bit = 1u64 << lane;
                    m &= m - 1;
                    let (addr, trap) = self.lane_addr(*base, *offset, size, lane, g_addr);
                    if trap {
                        lanes.end(out, bit, FaultClass::Crash, st.cycle);
                        continue;
                    }
                    let val = self.lane_value(*rs, lane, g_rs) & mask;
                    if (addr, val) != (g_addr, g_val) {
                        // The store event hashes address and value.
                        lanes.hash_div |= bit;
                    } else if held & bit == 0 {
                        continue;
                    }
                    let mem = &self.machine.memory;
                    let widx = (addr >> 2) as u32;
                    if widx != g_widx {
                        let keep = self.overlay.view(mem, g_widx, lane);
                        self.store_views.push((lane as u8, g_widx, keep));
                    }
                    let shift = (addr & 3) * 8;
                    let old = self.overlay.view(mem, widx, lane);
                    let new = (old & !((mask << shift) as u32)) | (val << shift) as u32;
                    self.store_views.push((lane as u8, widx, new));
                }
                self.clear_lanes(!lanes.active);
            }
            Inst::Print { rs } => {
                // Printing doesn't mutate machine state, so divergent
                // lanes stay batched — flagged, with the output recorded
                // for an eventual fork.
                let mut m = self.taint_of(*rs) & lanes.active;
                lanes.sdc |= m;
                lanes.hash_div |= m;
                while m != 0 {
                    let lane = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let v = self.vals[rs.index() as usize * LANES + lane];
                    self.out_patches.push((st.outputs.len() as u32, lane as u8, v));
                }
            }
            _ => {}
        }
    }

    /// Shared execution of one ordinary instruction plus the lane taint
    /// and overlay update: tainted lanes recompute the result from their
    /// own source values; a lane whose result equals the golden one drops
    /// its taint.
    fn exec_inst(&mut self, inst: &Inst, st: &mut ExecState) {
        let cfg = *self.machine.config();
        // (rd, lanes-with-a-possibly-divergent-result) of arithmetic steps.
        let pending: Option<(Reg, u64)> = match inst {
            Inst::Li { rd, .. } | Inst::La { rd, .. } => Some((*rd, 0)),
            // Lanes reading their own view of memory got their (extended)
            // values during detection; everyone else gets the golden load
            // and drops any stale `rd` taint.
            Inst::Load { rd, .. } => Some((*rd, self.load_divergent)),
            Inst::Mv { rd, rs } => Some((*rd, self.lane_unary(*rs, |v| v))),
            Inst::Neg { rd, rs } => {
                Some((*rd, self.lane_unary(*rs, |v| cfg.truncate(0u64.wrapping_sub(v)))))
            }
            Inst::Seqz { rd, rs } => Some((*rd, self.lane_unary(*rs, |v| u64::from(v == 0)))),
            Inst::Snez { rd, rs } => Some((*rd, self.lane_unary(*rs, |v| u64::from(v != 0)))),
            // One lane loop per op: the op is matched once per step, not
            // once per lane.
            Inst::AluImm { op, rd, rs1, imm } => {
                let imm = *imm as u64;
                let affected =
                    with_alu_op!(*op, |k| { self.lane_unary(*rs1, |v| eval_alu(&cfg, k, v, imm)) });
                Some((*rd, affected))
            }
            Inst::Alu { op, rd, rs1, rs2 } => {
                let affected = with_alu_op!(*op, |k| {
                    self.lane_binary(*rs1, *rs2, |a, b| eval_alu(&cfg, k, a, b))
                });
                Some((*rd, affected))
            }
            Inst::Store { .. } | Inst::Print { .. } | Inst::Nop => None,
            Inst::Call { .. } => unreachable!("pre-resolved during flattening"),
        };

        // No memory digest: nothing reads it — batch convergence compares
        // registers only, and tails never check convergence.
        let step = step_inst(
            &mut self.machine,
            inst,
            &mut st.hash,
            &mut st.outputs,
            None,
            None,
            &mut self.dirty,
        );
        let StepResult::Next = step else {
            unreachable!("the golden replay cannot trap");
        };
        st.pc += 1;

        if let Inst::Store { .. } = inst {
            for &(lane, widx, word) in &self.store_views {
                let shared = self.machine.memory.word(widx);
                self.overlay.set(widx, lane as usize, word, shared);
            }
        }
        if let Some((rd, affected)) = pending {
            // A write to the zero register vanishes: `set_taint` keeps
            // its taint empty.
            let g_rd = self.machine.read(rd);
            let mut taint = 0u64;
            let mut m = affected;
            while m != 0 {
                let lane = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.lane_results[lane] != g_rd {
                    self.vals[rd.index() as usize * LANES + lane] = self.lane_results[lane];
                    taint |= 1u64 << lane;
                }
            }
            self.set_taint(rd, taint);
        }
    }

    /// Computes lane results of a unary operation over the tainted lanes
    /// of `rs`; returns the affected-lane mask.
    #[inline(always)]
    fn lane_unary(&mut self, rs: Reg, f: impl Fn(u64) -> u64) -> u64 {
        let affected = self.taint_of(rs);
        let base = rs.index() as usize * LANES;
        let mut m = affected;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            self.lane_results[lane] = f(self.vals[base + lane]);
        }
        affected
    }

    /// Computes lane results of a binary operation over the lanes where
    /// `rs1` or `rs2` is tainted, each reading its own value of a tainted
    /// source and the golden value of a clean one; returns the
    /// affected-lane mask.
    #[inline(always)]
    fn lane_binary(&mut self, rs1: Reg, rs2: Reg, f: impl Fn(u64, u64) -> u64) -> u64 {
        let (ta, tb) = (self.taint_of(rs1), self.taint_of(rs2));
        let (a_g, b_g) = (self.machine.read(rs1), self.machine.read(rs2));
        let va = &self.vals[rs1.index() as usize * LANES..][..LANES];
        let vb = &self.vals[rs2.index() as usize * LANES..][..LANES];
        let mut m = ta | tb;
        while m != 0 {
            let lane = m.trailing_zeros() as usize;
            m &= m - 1;
            let a = if ta >> lane & 1 != 0 { va[lane] } else { a_g };
            let b = if tb >> lane & 1 != 0 { vb[lane] } else { b_g };
            self.lane_results[lane] = f(a, b);
        }
        ta | tb
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
