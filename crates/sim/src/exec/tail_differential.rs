//! Differential tests of the interpreter's loops. `every_op_agrees` holds
//! both [`run_tail`] and [`run`] to an independent oracle: the output list
//! computed next to its program with [`eval_alu`]/[`eval_cond`] on the
//! program's constants. The other tests run the tail against the
//! instrumented [`run`] (golden mode, recording a hash tape) from the same
//! states — the program entry and golden checkpoints with and without an
//! injected bit flip — comparing outcome, outputs, cycles, the dirty log,
//! the final registers and memory, and the trace hash wherever the tail
//! keeps it; `run`'s tape must rehash to its final hash.

use super::*;
use crate::machine::Machine;
use crate::runner::{SimLimits, Simulator};
use bec_testutil::Rng;
use std::sync::mpsc;
use std::time::Duration;

/// Everything both loops must agree on at the end of a run (the final
/// memory is compared separately, without printing it).
#[derive(Debug, PartialEq)]
struct End {
    outcome: ExecOutcome,
    outputs: Vec<u64>,
    cycles: u64,
    hash: TraceHash,
    dirty: Vec<(u32, u32)>,
    regs: Vec<u64>,
}

impl End {
    fn of(outcome: ExecOutcome, s: OpState, dirty: Vec<(u32, u32)>, cfg: &MachineConfig) -> End {
        let regs = s.regs[..cfg.num_regs as usize].to_vec();
        End { outcome, outputs: s.outputs, cycles: s.cycle, hash: s.hash, dirty, regs }
    }
}

/// Where both loops start.
#[derive(Clone, Copy, Debug)]
enum Start {
    /// The program entry.
    Entry,
    /// Golden checkpoint `idx`, with `flip = (reg, bit)` injected at its
    /// boundary.
    Checkpoint { idx: usize, flip: Option<(Reg, u32)> },
}

/// The state, memory and dirty log both loops start from at `start`.
fn start_state(
    sim: &Simulator<'_>,
    log: &CheckpointLog,
    golden_outputs: &[u64],
    start: Start,
) -> (OpState, Memory, Vec<(u32, u32)>) {
    let mut machine = Machine::new(sim.program());
    let mut dirty = Vec::new();
    let s = match start {
        Start::Entry => OpState::fresh(&sim.flat, machine.initial_regs()),
        Start::Checkpoint { idx, flip } => {
            let memory = &mut machine.memory;
            let mut s = OpState::restore(log, idx, golden_outputs, memory, &mut dirty);
            if let Some((reg, bit)) = flip {
                s.flip(&sim.flat.cfg, reg, bit);
            }
            s
        }
    };
    (s, machine.memory, dirty)
}

/// Runs `start` through [`run`] in golden mode with a hash tape, and
/// checks the tape and cycle map it records against the run.
fn reference(
    sim: &Simulator<'_>,
    log: &CheckpointLog,
    golden_outputs: &[u64],
    start: Start,
) -> (End, Memory) {
    let (mut s, mut memory, mut dirty) = start_state(sim, log, golden_outputs, start);
    let (start_hash, start_cycle) = (s.hash, s.cycle);
    let mut cycle_map = Vec::new();
    let mut tape = HashTape::default();
    let mode = RunMode::Golden { cycle_map: &mut cycle_map, capture: None, tape: Some(&mut tape) };
    let max = sim.limits.max_cycles;
    let RunEnd::Finished(outcome) = run(&sim.flat, max, mode, &mut s, &mut memory, &mut dirty)
    else {
        unreachable!("runs without a checkpoint log cannot converge-exit")
    };
    let mut rehash = start_hash;
    for &w in &tape.words {
        rehash.update(w);
    }
    assert_eq!(rehash, s.hash, "{start:?}: the tape does not rehash to the run's hash");
    assert_eq!(tape.starts.len() as u64, s.cycle - start_cycle, "{start:?}: tape cycles");
    assert_eq!(cycle_map.len(), tape.starts.len(), "{start:?}: cycle map length");
    (End::of(outcome, s, dirty, &sim.flat.cfg), memory)
}

/// Runs `start` through [`run_tail`].
fn tail_end(
    sim: &Simulator<'_>,
    log: &CheckpointLog,
    golden_outputs: &[u64],
    start: Start,
    keep_hash: bool,
) -> (End, Memory) {
    let (mut s, mut memory, mut dirty) = start_state(sim, log, golden_outputs, start);
    let max = sim.limits.max_cycles;
    let outcome = run_tail(&sim.flat, max, &mut s, &mut memory, &mut dirty, keep_hash);
    (End::of(outcome, s, dirty, &sim.flat.cfg), memory)
}

/// Asserts both loops agree from `start`, with the tail's hash kept and
/// skipped; returns the outcome.
fn assert_agree(
    label: &str,
    sim: &Simulator<'_>,
    log: &CheckpointLog,
    golden_outputs: &[u64],
    start: Start,
) -> ExecOutcome {
    let (want, want_mem) = reference(sim, log, golden_outputs, start);
    let (got, got_mem) = tail_end(sim, log, golden_outputs, start, true);
    assert_eq!(got, want, "{label}: {start:?}");
    assert!(got_mem == want_mem, "{label}: {start:?}: final memory differs");

    let start_hash = start_state(sim, log, golden_outputs, start).0.hash;
    let (skipped, skipped_mem) = tail_end(sim, log, golden_outputs, start, false);
    assert_eq!(skipped.hash, start_hash, "{label}: {start:?}: a skipped hash moved");
    assert_eq!(End { hash: want.hash, ..skipped }, want, "{label}: {start:?} (hash skipped)");
    assert!(skipped_mem == want_mem, "{label}: {start:?}: final memory differs (hash skipped)");
    want.outcome
}

/// Runs the differential from the entry and from about `points`
/// checkpoints, each unflipped and with `flips` seeded register-bit
/// flips. The budget is twice the golden run plus slack, so corrupted
/// loops time out. Returns every outcome seen.
fn differential(label: &str, program: &Program, points: u64, flips: usize) -> Vec<ExecOutcome> {
    let probe = Simulator::new(program).run_golden();
    let budget = probe.cycles() * 2 + 100;
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });
    let (golden, log) = sim.run_golden_checkpointed((probe.cycles() / points).max(1));
    let cfg = program.config;
    let mut rng = Rng::seeded(probe.cycles() ^ 0x7a11);
    let mut outcomes = vec![assert_agree(label, &sim, &log, golden.outputs(), Start::Entry)];
    for idx in 0..log.checkpoints.len() {
        let mut starts = vec![Start::Checkpoint { idx, flip: None }];
        for _ in 0..flips {
            let reg = Reg::phys(rng.range_u64(0, cfg.num_regs as u64) as u32);
            let bit = rng.range_u64(0, cfg.xlen as u64) as u32;
            starts.push(Start::Checkpoint { idx, flip: Some((reg, bit)) });
        }
        for start in starts {
            outcomes.push(assert_agree(label, &sim, &log, golden.outputs(), start));
        }
    }
    outcomes
}

fn example(name: &str) -> Program {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("example exists");
    bec_rv32::parse_asm(&text).expect("example assembles")
}

fn ir(text: &str) -> Program {
    let p = bec_ir::parse_program(text).expect("parses");
    bec_ir::verify_program(&p).expect("verifies");
    p
}

#[test]
fn suite_fault_points_agree() {
    for b in bec_suite::all() {
        let program = b.compile().expect("compiles");
        differential(b.name, &program, 6, 2);
    }
    for name in ["countyears.s", "gcd.s", "memcopy.s", "bench_crc32.s"] {
        differential(name, &example(name), 8, 3);
    }
}

#[test]
fn generated_programs_agree() {
    let mut outcomes = Vec::new();
    for seed in 0..24u64 {
        let generated = bec_fuzzgen::generate(seed, &bec_fuzzgen::GenConfig::full());
        outcomes.extend(differential(&format!("fuzzgen-{seed}"), &generated.program, 8, 4));
    }
    assert!(outcomes.iter().any(|o| matches!(o, ExecOutcome::Crashed(_))), "no tail trapped");
}

/// Sub-word memory, sign extension, negation, nested calls that expose
/// their return-address tokens, and a loop whose gotos outnumber its
/// cycles, so the step limit ends it before the cycle budget does.
#[test]
fn kitchen_sink_agrees() {
    let p = ir(r#"
global bytes: word[2] = { 0x7f80ff01, 0x00008001 }
func @leaf(args=0, ret=none) {
entry:
    mv   a0, ra
    print a0
    ret
}
func @mid(args=0, ret=none) {
entry:
    addi sp, sp, -16
    sw   ra, 12(sp)
    call @leaf
    lw   ra, 12(sp)
    addi sp, sp, 16
    ret
}
func @main(args=0, ret=none) {
entry:
    la   s0, @bytes
    lb   a1, 1(s0)
    lbu  a2, 1(s0)
    lh   a3, 4(s0)
    lb   a4, 3(s0)
    print a1
    print a2
    print a3
    print a4
    neg  a5, a1
    print a5
    li   t0, 5
    neg  t1, t0
    sb   t1, 2(s0)
    sh   t1, 6(s0)
    lw   a6, 4(s0)
    print a6
    call @mid
    call @leaf
    li   t2, 0
    j    spin
spin:
    addi t2, t2, 1
    j    hop
hop:
    j    back
back:
    blt  t2, t0, spin, done
done:
    seqz a7, t2
    snez a0, t2
    print a7
    ret a0
}
"#);
    differential("kitchen-sink", &p, 16, 6);

    // The goto-heavy loop alone: four steps per cycle reach the step
    // limit well before the cycle budget.
    let spin = ir(r#"
func @main(args=0, ret=none) {
entry:
    li   t0, 0
    j    spin
spin:
    addi t0, t0, 1
    j    hop
hop:
    j    back
back:
    j    spin
}
"#);
    let sim = Simulator::with_limits(&spin, SimLimits { max_cycles: 1000 });
    let log = CheckpointLog::disabled();
    assert_eq!(assert_agree("goto-heavy", &sim, &log, &[], Start::Entry), ExecOutcome::Timeout);
    let (end, _) = tail_end(&sim, &log, &[], Start::Entry, true);
    assert!(end.cycles < 1000, "the step limit, not the cycle budget, ends the loop");
}

/// A tiny-machine program: 4-bit words, four registers, no zero register.
#[test]
fn tiny_machine_agrees() {
    let p = ir(r#"
machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r1, 6
    li r0, 0
    j loop
loop:
    andi r2, r1, 1
    add  r0, r0, r2
    neg  r3, r1
    xor  r0, r0, r3
    addi r1, r1, -1
    bnez r1, loop, exit
exit:
    print r0
    ret r0
}
"#);
    differential("xlen4", &p, 8, 6);
}

/// A loop of gotos alone never consumes a cycle: only counting goto steps
/// ends it, at the step limit. Run on a watchdog thread so a tail that
/// stopped counting fails instead of spinning forever.
#[test]
fn goto_only_loop_times_out_at_the_step_limit() {
    let p = ir(r#"
func @main(args=0, ret=none) {
entry:
    li   t0, 1
    j    spin
spin:
    j    spin
}
"#);
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let sim = Simulator::with_limits(&p, SimLimits { max_cycles: 5000 });
        let log = CheckpointLog::disabled();
        let outcome = assert_agree("goto-only", &sim, &log, &[], Start::Entry);
        let (end, _) = tail_end(&sim, &log, &[], Start::Entry, true);
        tx.send((outcome, end.cycles)).expect("receiver waits");
    });
    let ended = rx.recv_timeout(Duration::from_secs(60));
    assert!(
        !matches!(ended, Err(mpsc::RecvTimeoutError::Timeout)),
        "the goto-only loop never timed out"
    );
    if let Err(panic) = runner.join() {
        std::panic::resume_unwind(panic);
    }
    let (outcome, cycles) = ended.expect("the runner sent before it ended");
    assert_eq!((outcome, cycles), (ExecOutcome::Timeout, 1));
}

#[test]
fn unbounded_recursion_overflows_the_stack() {
    let p = ir(r#"
func @down(args=0, ret=none) {
entry:
    call @down
    ret
}
func @main(args=0, ret=none) {
entry:
    call @down
    exit
}
"#);
    let sim = Simulator::new(&p);
    let log = CheckpointLog::disabled();
    assert_eq!(
        assert_agree("recursion", &sim, &log, &[], Start::Entry),
        ExecOutcome::Crashed(CrashKind::StackOverflow)
    );
}

#[test]
fn corrupted_return_address_is_a_wild_return() {
    let p = ir(r#"
func @f(args=0, ret=none) {
entry:
    addi ra, ra, 4
    ret
}
func @main(args=0, ret=none) {
entry:
    call @f
    exit
}
"#);
    let sim = Simulator::new(&p);
    let log = CheckpointLog::disabled();
    assert_eq!(
        assert_agree("wild-return", &sim, &log, &[], Start::Entry),
        ExecOutcome::Crashed(CrashKind::WildReturn)
    );
}

/// A program that runs every ALU op in register and immediate form and
/// every branch condition, on `cfg`, from the entry with no calls, and the
/// outputs it must print, computed from its constants.
///
/// Each operand pair runs every op as `op d, a, b` and `op d, a, imm`,
/// then with the destination aliasing `rs1`, aliasing `rs2`, `rs1 == rs2`,
/// and the zero register as the destination, printing every result. The
/// pairs include division and remainder by zero, `MIN / -1` and register
/// shift amounts at and past `xlen` (`verify` keeps shift immediates
/// below it); every condition branches both ways.
fn every_op_program(cfg: MachineConfig) -> (Program, Vec<u64>) {
    let (a, b, d) = (Reg::phys(5), Reg::phys(6), Reg::phys(7));
    let zero = cfg.zero_reg.expect("the program writes the zero register");
    let mask = cfg.mask();
    let min = 1u64 << (cfg.xlen - 1);
    let xlen = u64::from(cfg.xlen);
    let pairs = [
        // Mixed signs, so signed and unsigned ops disagree.
        (min | 0x1235, 7),
        (0x0123 & mask, mask - 0x40),
        (0x4d, 0),
        (min, mask),
        (0x5a5a & mask, xlen),
        (min | 0x3, xlen + 3),
        (0x7001 & mask, mask),
    ];
    let imm = |v: u64| cfg.sign_extend(v);
    let op_imm = |op: AluOp, v: u64| match op {
        AluOp::Sll | AluOp::Srl | AluOp::Sra => (v % xlen) as i64,
        _ => imm(v),
    };
    let mut pb = bec_ir::ProgramBuilder::new(cfg);
    let mut fb = pb.function("main", bec_ir::Signature::void(0));
    fb.block("entry");
    let mut want = Vec::new();
    for &(x, y) in &pairs {
        assert!(x <= mask && y <= mask, "operands fit the word");
        for &op in TAIL_ALU_OPS {
            // The immediate operand: shift amounts wrap to the word width,
            // every other immediate is `y` itself.
            let iy = op_imm(op, y) as u64 & mask;
            let (xy, xi) = (eval_alu(&cfg, op, x, y), eval_alu(&cfg, op, x, iy));
            want.extend([xy, xi, eval_alu(&cfg, op, x, x), xy, xy, xi, 0, 0]);
            fb.li(a, imm(x)).li(b, imm(y));
            fb.alu(op, d, a, b).print(d);
            fb.alu_imm(op, d, a, op_imm(op, y)).print(d);
            fb.alu(op, d, a, a).print(d);
            fb.alu(op, a, a, b).print(a);
            fb.li(a, imm(x));
            fb.alu(op, b, a, b).print(b);
            fb.li(b, imm(y));
            fb.alu_imm(op, a, a, op_imm(op, y)).print(a);
            fb.alu(op, zero, a, b).print(zero);
            fb.alu_imm(op, zero, a, op_imm(op, y)).print(zero);
        }
    }
    // Each condition on (x, y), (y, x), (x, x), x against a missing `rs2`,
    // and the zero register against x: both outcomes for every condition.
    let (x, y) = (min | 0x11, 0x22);
    let mut branch = 0;
    for &cond in TAIL_CONDS {
        let mut taken = [false; 2];
        for (p, q) in [(Some(x), y), (Some(y), x), (Some(x), x), (Some(x), 0), (None, x)] {
            let lhs = p.unwrap_or(0);
            let took = eval_cond(&cfg, cond, lhs, q);
            taken[usize::from(took)] = true;
            want.push(if took { 1 } else { 2 });
            fb.li(a, imm(lhs)).li(b, imm(q));
            let (t, f, next) = (format!("t{branch}"), format!("f{branch}"), format!("n{branch}"));
            match p {
                Some(_) if q == 0 => fb.branch_zero(cond, a, &t, &f),
                Some(_) => fb.branch(cond, a, b, &t, &f),
                None => fb.branch(cond, zero, b, &t, &f),
            }
            for (label, mark) in [(&t, 1), (&f, 2)] {
                fb.block(label.as_str());
                fb.li(d, mark).print(d);
                fb.jump(next.as_str());
            }
            fb.block(next.as_str());
            branch += 1;
        }
        assert_eq!(taken, [true; 2], "{cond:?} does not branch both ways");
    }
    fb.exit();
    fb.finish();
    let p = pb.finish();
    bec_ir::verify_program(&p).expect("verifies");
    (p, want)
}

/// Asserts `got` equals the oracle's `want`, naming the first output that
/// differs.
fn assert_outputs(label: &str, got: &[u64], want: &[u64]) {
    if let Some(i) = got.iter().zip(want).position(|(g, w)| g != w) {
        panic!("{label}: output {i} is {:#x}, the oracle says {:#x}", got[i], want[i]);
    }
    assert_eq!(got.len(), want.len(), "{label}: output count");
}

/// Every decoded ALU and branch arm, through both the tail and `run`,
/// against the oracle's outputs on rv32 and on a 16-bit machine: a swapped
/// decode arm changes an output or a path.
#[test]
fn every_op_agrees() {
    let half = MachineConfig { xlen: 16, num_regs: 16, zero_reg: Some(Reg::ZERO) };
    for (label, cfg) in [("rv32", MachineConfig::rv32()), ("xlen16", half)] {
        let (p, want) = every_op_program(cfg);
        let sim = Simulator::new(&p);
        let log = CheckpointLog::disabled();
        let (tail, _) = tail_end(&sim, &log, &[], Start::Entry, true);
        assert_eq!(tail.outcome, ExecOutcome::Completed, "{label}: tail outcome");
        assert_outputs(&format!("{label}: tail"), &tail.outputs, &want);
        let (run, _) = reference(&sim, &log, &[], Start::Entry);
        assert_eq!(run.outcome, ExecOutcome::Completed, "{label}: run outcome");
        assert_outputs(&format!("{label}: run"), &run.outputs, &want);
        differential(label, &p, 16, 4);
    }
}
