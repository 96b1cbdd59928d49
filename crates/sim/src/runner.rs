//! The public simulator API: golden runs and fault-injection runs, with
//! optional checkpointing and convergence early-exit (see
//! [`crate::checkpoint`]).

use crate::checkpoint::CheckpointLog;
use crate::exec::{run, run_tail, ExecOutcome, FlatProgram, HashTape, OpState, RunEnd, RunMode};
use crate::machine::{FaultSpec, Machine};
use crate::trace::{FaultClass, TraceHash};
use bec_core::ExecProfile;
use bec_ir::{PointId, Program};
use std::collections::HashMap;
use std::sync::Arc;

/// Resource limits for a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimLimits {
    /// Maximum executed instructions before the run is classified as a hang.
    pub max_cycles: u64,
}

impl Default for SimLimits {
    fn default() -> Self {
        SimLimits { max_cycles: 2_000_000 }
    }
}

/// The outcome of one simulated run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Terminal state.
    pub outcome: ExecOutcome,
    /// Values printed by the program, in order.
    pub outputs: Vec<u64>,
    /// Executed instruction count.
    pub cycles: u64,
    /// Trace hash (executed points, memory side effects, outputs).
    pub hash: TraceHash,
}

impl RunResult {
    /// The result of a run that ended with `outcome` in state `s`.
    pub(crate) fn of(outcome: ExecOutcome, s: OpState) -> RunResult {
        RunResult { outcome, outputs: s.outputs, cycles: s.cycle, hash: s.hash }
    }

    /// The observable outputs.
    pub fn outputs(&self) -> &[u64] {
        &self.outputs
    }

    /// Classifies this (fault-injected) run against the golden run.
    pub fn classify(&self, golden: &RunResult) -> FaultClass {
        match self.outcome {
            ExecOutcome::Crashed(_) => FaultClass::Crash,
            ExecOutcome::Timeout => FaultClass::Hang,
            ExecOutcome::Completed => {
                if self.hash == golden.hash {
                    FaultClass::Benign
                } else if self.outputs == golden.outputs {
                    FaultClass::Deviation
                } else {
                    FaultClass::Sdc
                }
            }
        }
    }
}

/// `(function index, point) → the cycles it executed at` — the golden
/// run's precomputed site-occurrence index.
pub type OccurrenceIndex = HashMap<(usize, PointId), Vec<u64>>;

/// A golden (fault-free) run with full instrumentation.
#[derive(Clone, Debug)]
pub struct GoldenRun {
    /// The run's result (outcome must be `Completed` for meaningful
    /// campaigns; callers should check).
    pub result: RunResult,
    /// Execution counts per point, for the Table III/IV accountings.
    pub profile: ExecProfile,
    /// For each cycle, the `(function index, point, call depth)` that
    /// executed.
    pub(crate) cycle_map: Vec<(u32, PointId, u32)>,
    /// For each cycle, the next cycle executing at the same call depth
    /// (`cycles()` when none) — the moment the fault-site window after that
    /// cycle's instruction opens. For ordinary instructions this is the
    /// next cycle; for calls it is the cycle execution returns to the
    /// caller.
    pub(crate) next_same_depth: Vec<u64>,
    /// `(func, point) → cycles it executed at`, precomputed once so
    /// fault-space enumeration is O(trace) total instead of rescanning the
    /// cycle map per queried site. Shared, not copied, by the golden runs
    /// the golden substrate derives.
    pub(crate) occurrence_index: Arc<OccurrenceIndex>,
    /// The register file at the end of the run.
    pub(crate) terminal_regs: Vec<u64>,
    /// Terminal memory digest relative to the initial image (XOR of
    /// `mem_mix` over the words the run changed).
    pub(crate) mem_digest: u128,
}

impl GoldenRun {
    /// The observable outputs.
    pub fn outputs(&self) -> &[u64] {
        &self.result.outputs
    }

    /// Number of executed instructions.
    pub fn cycles(&self) -> u64 {
        self.result.cycles
    }

    /// The `(function, point)` executed at `cycle`.
    pub fn point_at(&self, cycle: u64) -> Option<(usize, PointId)> {
        self.cycle_map.get(cycle as usize).map(|&(f, p, _)| (f as usize, p))
    }

    /// The call depth at `cycle`.
    pub fn depth_at(&self, cycle: u64) -> Option<u32> {
        self.cycle_map.get(cycle as usize).map(|&(.., d)| d)
    }

    /// The cycle at which the fault-site window opened by the instruction
    /// at `cycle` starts: the next cycle executing at the same call depth.
    /// Returns `cycles()` (one past the end, a no-op injection point) when
    /// execution never returns to this depth.
    pub fn window_open_cycle(&self, cycle: u64) -> u64 {
        self.next_same_depth.get(cycle as usize).copied().unwrap_or_else(|| self.cycles())
    }

    /// All cycles at which `(func, point)` executed, in order (an O(1)
    /// lookup into the precomputed occurrence index).
    pub fn occurrences(&self, func: usize, point: PointId) -> &[u64] {
        self.occurrence_index.get(&(func, point)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The full `(func, point) → occurrence cycles` index, built once when
    /// the golden run is constructed.
    pub fn occurrence_index(&self) -> &OccurrenceIndex {
        &self.occurrence_index
    }

    /// The register file at the end of the run. Together with
    /// [`GoldenRun::mem_digest`], the outputs and the cycle count this is
    /// the semantic-equivalence fingerprint scheduled variants are checked
    /// against (trace hashes are order-sensitive by design, so a legally
    /// reordered program hashes differently while ending in the same
    /// state).
    pub fn terminal_regs(&self) -> &[u64] {
        &self.terminal_regs
    }

    /// Terminal memory digest relative to the program's initial image: the
    /// XOR of a per-word mix over every word the run changed (0 when the
    /// run wrote nothing). Equal digests mean equal final memory, with the
    /// same 128-bit confidence the trace hash already carries.
    pub fn mem_digest(&self) -> u128 {
        self.mem_digest
    }
}

/// The outcome of one checkpointed fault-injection run.
#[derive(Clone, Debug)]
pub struct FaultRun {
    /// Classification against the golden run.
    pub class: FaultClass,
    /// `Some(cycle)` when the run early-exited by provably re-converging
    /// with the golden run at that aligned cycle (always `Benign`).
    pub converged_at: Option<u64>,
    /// Cycles actually simulated (suffix only when a checkpoint was
    /// restored).
    pub simulated_cycles: u64,
    /// Cycle of the checkpoint this run restored from (0 when the
    /// from-scratch engine ran). `fault.cycle - restored_at` is the
    /// restore distance the telemetry histograms.
    pub restored_at: u64,
    /// The completed run, `None` when the tail was skipped by convergence.
    pub result: Option<RunResult>,
}

/// The simulator: executes one program under configurable limits, over a
/// pre-decoded flat instruction stream.
#[derive(Clone, Debug)]
pub struct Simulator<'p> {
    program: &'p Program,
    pub(crate) flat: FlatProgram,
    pub(crate) limits: SimLimits,
}

impl<'p> Simulator<'p> {
    /// A simulator with default limits.
    ///
    /// # Panics
    ///
    /// Panics if the program's entry function is missing; run
    /// [`bec_ir::verify_program`] first.
    pub fn new(program: &'p Program) -> Simulator<'p> {
        Simulator::with_limits(program, SimLimits::default())
    }

    /// A simulator with explicit limits.
    pub fn with_limits(program: &'p Program, limits: SimLimits) -> Simulator<'p> {
        assert!(
            program.function_index(&program.entry).is_some(),
            "entry function `@{}` missing — verify the program first",
            program.entry
        );
        let flat = FlatProgram::of(program);
        Simulator { program, flat, limits }
    }

    /// The program under simulation.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The resource limits every run executes under.
    pub fn limits(&self) -> SimLimits {
        self.limits
    }

    /// Runs without faults, recording the execution profile and the
    /// cycle→point map.
    pub fn run_golden(&self) -> GoldenRun {
        self.golden_run(None, None)
    }

    /// Runs without faults like [`Simulator::run_golden`], additionally
    /// recording a checkpoint every `interval` cycles (0 records none and
    /// skips the capture instrumentation entirely). The returned log powers
    /// [`Simulator::run_with_fault_checkpointed`].
    pub fn run_golden_checkpointed(&self, interval: u64) -> (GoldenRun, CheckpointLog) {
        let mut log = CheckpointLog::new(interval);
        let capture = (interval > 0).then_some(&mut log);
        let golden = self.golden_run(capture, None);
        (golden, log)
    }

    /// Runs without faults with the adaptive block-boundary-aligned
    /// checkpoint policy: spacing starts small and doubles whenever the log
    /// outgrows its cap, and every checkpoint lands on a block-entry cycle.
    /// Aligned grids are schedule-invariant across a benchmark's variants
    /// (block entry cycles survive intra-block reordering), which is what
    /// lets [`crate::substrate::GoldenSubstrate`] share one machine-state
    /// log across every scheduled variant.
    pub fn run_golden_aligned(&self) -> (GoldenRun, CheckpointLog) {
        let mut log = CheckpointLog::aligned();
        let golden = self.golden_run(Some(&mut log), None);
        (golden, log)
    }

    /// [`Simulator::run_golden_aligned`] plus the raw per-cycle artifact a
    /// [`crate::substrate::GoldenSubstrate`] needs to *derive* other
    /// variants' golden state instead of re-simulating: the segmented
    /// trace-hash word tape (order-sensitive hash replay).
    pub(crate) fn run_golden_substrate(&self) -> (GoldenRun, CheckpointLog, HashTape) {
        let mut log = CheckpointLog::aligned();
        let mut tape = HashTape::default();
        let golden = self.golden_run(Some(&mut log), Some(&mut tape));
        (golden, log, tape)
    }

    /// A fault-free run for its observable result alone: the outcome and
    /// the printed values, exactly as [`Simulator::run_golden`] reports
    /// them, without its profile, cycle map, memory digest or trace hash
    /// (`exec::run_tail` from the program entry).
    pub fn run_outputs(&self) -> (ExecOutcome, Vec<u64>) {
        let mut machine = Machine::new(self.program);
        let mut s = OpState::fresh(&self.flat, machine.initial_regs());
        let max = self.limits.max_cycles;
        let outcome =
            run_tail(&self.flat, max, &mut s, &mut machine.memory, &mut Vec::new(), false);
        (outcome, s.outputs)
    }

    /// A plain fault-free run that still tracks the memory digest:
    /// `(result, terminal registers, mem digest)`. Debug-only verification
    /// net for substrate-derived golden runs — cheaper than
    /// [`Simulator::run_golden`] (no cycle map, no liveness).
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn run_plain_verify(&self) -> (RunResult, Vec<u64>, u128) {
        let (outcome, s) = self.run_from_entry(RunMode::Digest);
        let regs = s.regs[..self.program.config.num_regs as usize].to_vec();
        let digest = s.mem_digest;
        (RunResult::of(outcome, s), regs, digest)
    }

    /// Runs `mode` from the program entry on a fresh machine: the outcome
    /// and the final state.
    fn run_from_entry(&self, mode: RunMode<'_>) -> (ExecOutcome, OpState) {
        let mut machine = Machine::new(self.program);
        let mut s = OpState::fresh(&self.flat, machine.initial_regs());
        let max = self.limits.max_cycles;
        let end = run(&self.flat, max, mode, &mut s, &mut machine.memory, &mut Vec::new());
        let RunEnd::Finished(outcome) = end else {
            unreachable!("runs without a checkpoint log cannot converge-exit")
        };
        (outcome, s)
    }

    fn golden_run(
        &self,
        capture: Option<&mut CheckpointLog>,
        tape: Option<&mut HashTape>,
    ) -> GoldenRun {
        let mut cycle_map = Vec::new();
        let mode = RunMode::Golden { cycle_map: &mut cycle_map, capture, tape };
        let (outcome, s) = self.run_from_entry(mode);
        // The lookup structures derived from the cycle map: the next cycle
        // at the same call depth (fault-site windows, one backward pass),
        // the `(func, point) → occurrence cycles` index, and the execution
        // profile (the occurrence counts).
        let n = cycle_map.len();
        let mut next_same_depth = vec![n as u64; n];
        let mut last_at_depth: Vec<u64> = Vec::new();
        for c in (0..n).rev() {
            let d = cycle_map[c].2 as usize;
            if last_at_depth.len() <= d {
                last_at_depth.resize(d + 1, n as u64);
            }
            next_same_depth[c] = last_at_depth[d];
            last_at_depth[d] = c as u64;
        }
        let mut occurrence_index: OccurrenceIndex = HashMap::new();
        for (c, &(f, p, _)) in cycle_map.iter().enumerate() {
            occurrence_index.entry((f as usize, p)).or_default().push(c as u64);
        }
        let mut profile = ExecProfile::new();
        for (&(f, p), cycles) in &occurrence_index {
            profile.set(f, p, cycles.len() as u64);
        }
        GoldenRun {
            terminal_regs: s.regs[..self.program.config.num_regs as usize].to_vec(),
            mem_digest: s.mem_digest,
            result: RunResult::of(outcome, s),
            profile,
            cycle_map,
            next_same_depth,
            occurrence_index: Arc::new(occurrence_index),
        }
    }

    /// Runs with a single injected bit flip, from scratch (cycle 0).
    pub fn run_with_fault(&self, fault: FaultSpec) -> RunResult {
        let (outcome, s) = self.run_from_entry(RunMode::Plain(Some(fault)));
        RunResult::of(outcome, s)
    }

    /// A reusable fault-injection context (scratch memory + dirty-word
    /// undo log). Campaign workers create one per thread and run millions
    /// of faults without re-allocating the address space.
    pub fn injector(&self) -> Injector<'p, '_> {
        Injector { sim: self, machine: Machine::new(self.program), dirty: Vec::new() }
    }

    /// Runs one fault through a fresh [`Injector`]; see
    /// [`Injector::run_fault`]. Campaign loops should hold their own
    /// injector instead of paying the setup per call.
    pub fn run_with_fault_checkpointed(
        &self,
        golden: &GoldenRun,
        ckpts: &CheckpointLog,
        fault: FaultSpec,
    ) -> FaultRun {
        self.injector().run_fault(golden, ckpts, fault)
    }
}

/// A reusable fault-injection context: one scratch [`Machine`] whose
/// memory is undone through the dirty log, which records each written
/// word's previous value — popping it in reverse restores the exact pre-run
/// image with no pristine copy held.
pub struct Injector<'p, 's> {
    sim: &'s Simulator<'p>,
    machine: Machine,
    dirty: Vec<(u32, u32)>,
}

impl Injector<'_, '_> {
    /// Runs with a single injected bit flip using `ckpts`: execution starts
    /// at the nearest checkpoint at or before the injection cycle, and the
    /// run early-exits as `Benign` as soon as its state provably
    /// re-converges with the golden run. With a disabled/empty log this is
    /// exactly [`Simulator::run_with_fault`] plus classification.
    ///
    /// The classification is identical to classifying a from-scratch run
    /// against `golden` — checkpoint interval and convergence never change
    /// a verdict (asserted by `tests/checkpoint_equivalence.rs`).
    pub fn run_fault(
        &mut self,
        golden: &GoldenRun,
        ckpts: &CheckpointLog,
        fault: FaultSpec,
    ) -> FaultRun {
        let sim = self.sim;
        let (mut s, mode) = if ckpts.is_enabled() {
            let idx = ckpts.nearest_at_or_before(fault.cycle);
            let memory = &mut self.machine.memory;
            let s = OpState::restore(ckpts, idx, golden.outputs(), memory, &mut self.dirty);
            (s, RunMode::Resume { fault, log: ckpts })
        } else {
            (OpState::fresh(&sim.flat, self.machine.initial_regs()), RunMode::Plain(Some(fault)))
        };
        let memory = &mut self.machine.memory;
        let start_cycle = s.cycle;
        let end = run(&sim.flat, sim.limits.max_cycles, mode, &mut s, memory, &mut self.dirty);
        // Undo the run: pop the dirty log in reverse, restoring each
        // word's recorded previous value, leaving the scratch memory in
        // initial state for the next fault.
        while let Some((w, old)) = self.dirty.pop() {
            memory.set_word(w, old);
        }
        match end {
            RunEnd::Converged(cycle) => FaultRun {
                class: FaultClass::Benign,
                converged_at: Some(cycle),
                simulated_cycles: cycle - start_cycle,
                restored_at: start_cycle,
                result: None,
            },
            RunEnd::Finished(outcome) => {
                let result = RunResult::of(outcome, s);
                FaultRun {
                    class: result.classify(&golden.result),
                    converged_at: None,
                    simulated_cycles: result.cycles.saturating_sub(start_cycle),
                    restored_at: start_cycle,
                    result: Some(result),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::{parse_program, Reg};

    #[test]
    fn golden_run_counts_and_outputs() {
        let p = parse_program(
            r#"
func @main(args=0, ret=none) {
entry:
    li t0, 3
    li t1, 0
    j loop
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
exit:
    print t1
    exit
}
"#,
        )
        .unwrap();
        let sim = Simulator::new(&p);
        let g = sim.run_golden();
        assert_eq!(g.result.outcome, ExecOutcome::Completed);
        assert_eq!(g.outputs(), &[6]); // 3+2+1
                                       // Cycles: 2 (li) + 3×3 (loop, jump free) + 2 (print, exit) = 13.
        assert_eq!(g.cycles(), 13);
        // The loop add executed 3 times.
        let f = p.entry_function();
        let layout = bec_ir::PointLayout::of(f);
        let lp = f.block_by_label("loop").unwrap();
        let add_pt = layout.block_first(lp);
        assert_eq!(g.profile.count(0, add_pt), 3);
        assert_eq!(g.occurrences(0, add_pt).len(), 3);
    }

    #[test]
    fn fault_masked_when_overwritten() {
        let p = parse_program(
            "func @main(args=0, ret=none) {\nentry:\n    li t0, 1\n    li t0, 2\n    print t0\n    exit\n}\n",
        )
        .unwrap();
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        // Flip t0 after the first li (cycle 1 = before second li): masked.
        let r = sim.run_with_fault(FaultSpec { cycle: 1, reg: Reg::T0, bit: 0 });
        assert_eq!(r.classify(&golden.result), crate::trace::FaultClass::Benign);
        // Flip t0 after the second li (cycle 2 = before print): SDC.
        let r = sim.run_with_fault(FaultSpec { cycle: 2, reg: Reg::T0, bit: 0 });
        assert_eq!(r.classify(&golden.result), crate::trace::FaultClass::Sdc);
        assert_eq!(r.outputs(), &[3]);
    }

    #[test]
    fn corrupted_branch_condition_diverts_control_flow() {
        let p = parse_program(
            r#"
func @main(args=0, ret=none) {
entry:
    li t0, 0
    beqz t0, yes, no
yes:
    li a0, 1
    print a0
    exit
no:
    li a0, 2
    print a0
    exit
}
"#,
        )
        .unwrap();
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        assert_eq!(golden.outputs(), &[1]);
        let r = sim.run_with_fault(FaultSpec { cycle: 1, reg: Reg::T0, bit: 3 });
        assert_eq!(r.outputs(), &[2]);
        assert_eq!(r.classify(&golden.result), crate::trace::FaultClass::Sdc);
    }

    #[test]
    fn calls_and_returns_work() {
        let p = parse_program(
            r#"
func @double(args=1, ret=a0) {
entry:
    slli a0, a0, 1
    ret a0
}
func @main(args=0, ret=none) {
entry:
    li a0, 21
    call @double
    print a0
    exit
}
"#,
        )
        .unwrap();
        let sim = Simulator::new(&p);
        let g = sim.run_golden();
        assert_eq!(g.result.outcome, ExecOutcome::Completed);
        assert_eq!(g.outputs(), &[42]);
    }

    #[test]
    fn corrupted_return_address_crashes() {
        let p = parse_program(
            r#"
func @id(args=1, ret=a0) {
entry:
    nop
    ret a0
}
func @main(args=0, ret=none) {
entry:
    li a0, 7
    call @id
    print a0
    exit
}
"#,
        )
        .unwrap();
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        // Cycle 2 is the nop inside @id; flip a bit of ra before it.
        let r = sim.run_with_fault(FaultSpec { cycle: 2, reg: Reg::RA, bit: 5 });
        assert_eq!(r.outcome, ExecOutcome::Crashed(crate::exec::CrashKind::WildReturn));
        assert_eq!(r.classify(&golden.result), crate::trace::FaultClass::Crash);
    }

    #[test]
    fn memory_fault_detection() {
        let p = parse_program(
            r#"
global buf: word[2] = { 5, 6 }
func @main(args=0, ret=none) {
entry:
    la t0, @buf
    lw t1, 4(t0)
    print t1
    exit
}
"#,
        )
        .unwrap();
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        assert_eq!(golden.outputs(), &[6]);
        // Corrupt a high bit of the base address: out-of-bounds crash.
        let r = sim.run_with_fault(FaultSpec { cycle: 1, reg: Reg::T0, bit: 30 });
        assert_eq!(r.outcome, ExecOutcome::Crashed(crate::exec::CrashKind::MemOutOfBounds));
        // Corrupt bit 0 of the address: misaligned.
        let r = sim.run_with_fault(FaultSpec { cycle: 1, reg: Reg::T0, bit: 0 });
        assert_eq!(r.outcome, ExecOutcome::Crashed(crate::exec::CrashKind::Misaligned));
    }

    #[test]
    fn infinite_loop_times_out() {
        let p = parse_program(
            "func @main(args=0, ret=none) {\nentry:\n    li t0, 1\n    j spin\nspin:\n    addi t0, t0, 1\n    j spin\n}\n",
        )
        .unwrap();
        let sim = Simulator::with_limits(&p, SimLimits { max_cycles: 1000 });
        let g = sim.run_golden();
        assert_eq!(g.result.outcome, ExecOutcome::Timeout);
    }

    #[test]
    fn deviation_same_output_different_path() {
        // Both paths print 9; a diverted branch is a trace deviation, not SDC.
        let p = parse_program(
            r#"
func @main(args=0, ret=none) {
entry:
    li t0, 0
    beqz t0, a, b
a:
    li a0, 9
    print a0
    exit
b:
    li a0, 9
    print a0
    exit
}
"#,
        )
        .unwrap();
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let r = sim.run_with_fault(FaultSpec { cycle: 1, reg: Reg::T0, bit: 2 });
        assert_eq!(r.classify(&golden.result), crate::trace::FaultClass::Deviation);
    }
}
