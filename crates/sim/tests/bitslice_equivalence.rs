//! Engine-equivalence contract of the bitsliced campaign engine: for any
//! worker count, the serialized [`bec_sim::CampaignReport`] of an
//! exhaustive differential campaign on the bitsliced engine is
//! byte-identical to the scalar engine's, and the per-fault early-exit
//! accounting (`PoolStats::early_exits`) agrees across engines — a
//! bitsliced batch with N converged lanes counts N, exactly like N scalar
//! runs. Lanes whose stores diverge stay batched on a per-lane memory
//! overlay; the overlay cases below pin that path against the scalar
//! engine too. A batch takes 64 consecutive faults of its shard in
//! injection-cycle order, and each lane joins the shared replay at its own
//! cycle; the staggered-batch cases pin lane joining, gap skips and
//! program-end admission.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::{AluOp, MachineConfig, Program, ProgramBuilder, Reg, Signature};
use bec_sim::shard::{site_fault_space, CampaignSpec, ShardPlan, SitedFault};
use bec_sim::{
    default_checkpoint_interval, pool, CheckpointLog, Engine, ExecOutcome, FaultClass, GoldenRun,
    PoolStats, SimLimits, Simulator,
};
use bec_telemetry::{MetricsSnapshot, Telemetry};

fn example(name: &str) -> Program {
    let path = format!("{}/../../examples/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("example exists");
    bec_rv32::parse_asm(&text).expect("example assembles")
}

/// Exhaustive campaign reports and early-exit counts must not depend on
/// the engine or the worker count.
fn assert_cross_engine(label: &str, program: &Program) {
    let (stats, _) = assert_engines_agree(label, program, CampaignSpec::exhaustive(16), &[1, 2, 8]);
    assert!(stats.forked_lanes > 0, "{label}: no lane ever forked — divergence handling untested");
    assert!(stats.early_exits > 0, "{label}: no run ever converged early");
}

#[test]
fn countyears_reports_match_across_engines() {
    assert_cross_engine("countyears", &example("countyears.s"));
}

#[test]
fn gcd_reports_match_across_engines() {
    assert_cross_engine("gcd", &example("gcd.s"));
}

#[test]
fn crc32_reports_match_across_engines() {
    let b = bec_suite::crc32::scaled(1);
    assert_cross_engine("crc32", &b.compile().expect("compiles"));
}

/// Regression test for the per-bit dynamic-liveness convergence fix: a
/// fault in a *dead bit* of a register that stays live (but is only ever
/// observed through `andi ..., 1`) must converge — the whole-register
/// comparison used to block the Benign early-exit forever, because the
/// faulted register is never overwritten.
#[test]
fn masked_bit_of_live_register_converges() {
    let p = bec_ir::parse_program(
        r#"
func @main(args=0, ret=none) {
entry:
    li t0, 4
    li t1, 32
    li t3, 0
    j loop
loop:
    andi t2, t0, 1
    add t3, t3, t2
    addi t1, t1, -1
    bnez t1, loop
exit:
    print t3
    exit
}
"#,
    )
    .unwrap();
    let sim = Simulator::new(&p);
    let (golden, ckpts) = sim.run_golden_checkpointed(16);
    assert_eq!(golden.result.outcome, ExecOutcome::Completed);

    // Flip bit 2 of t0 (value 4 -> 0) early in the loop: t0 is live for
    // the whole run, but only its bit 0 is ever observed, so the faulted
    // run re-converges at the first aligned boundary after the injection.
    let fault = bec_sim::FaultSpec { cycle: 5, reg: bec_ir::Reg::T0, bit: 2 };
    let run = sim.run_with_fault_checkpointed(&golden, &ckpts, fault);
    assert_eq!(run.class, FaultClass::Benign);
    assert!(
        run.converged_at.is_some(),
        "dead-bit fault in a live register must converge (per-bit liveness)"
    );
    assert!(run.simulated_cycles < golden.cycles(), "the tail was skipped");

    // A flip of the *live* bit corrupts the sum and must not converge.
    let live = bec_sim::FaultSpec { cycle: 5, reg: bec_ir::Reg::T0, bit: 0 };
    let run = sim.run_with_fault_checkpointed(&golden, &ckpts, live);
    assert_eq!(run.class, FaultClass::Sdc);
    assert!(run.converged_at.is_none());
}

/// Where a golden run captures its checkpoints.
#[derive(Clone, Copy)]
enum Grid {
    /// The fixed grid `bec campaign` picks for the trace length.
    Default,
    /// A fixed grid of this interval (`--checkpoint-interval`).
    Every(u64),
    /// The block-entry-aligned adaptive grid studies use.
    Aligned,
}

/// The campaign inputs of one program: a simulator whose budget the
/// golden run fits, its checkpointed golden run and the classified fault
/// space.
struct Setup<'p> {
    sim: Simulator<'p>,
    golden: GoldenRun,
    ckpts: CheckpointLog,
    space: Vec<SitedFault>,
}

impl<'p> Setup<'p> {
    fn new(label: &str, program: &'p Program, grid: Grid) -> Setup<'p> {
        let probe = Simulator::new(program).run_golden();
        assert_eq!(probe.result.outcome, ExecOutcome::Completed, "{label}: golden completes");
        let budget = probe.cycles() * 2 + 100;
        let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });
        let (golden, ckpts) = match grid {
            Grid::Default => {
                sim.run_golden_checkpointed(default_checkpoint_interval(probe.cycles()))
            }
            Grid::Every(n) => sim.run_golden_checkpointed(n),
            Grid::Aligned => sim.run_golden_aligned(),
        };
        let bec = BecAnalysis::analyze(program, &BecOptions::paper());
        let space = site_fault_space(program, &bec, &golden);
        Setup { sim, golden, ckpts, space }
    }
}

/// Runs `spec` over `program` (default checkpoints) on the scalar engine
/// (two workers) and on both engines at every count in `workers`; see
/// [`assert_plan_agrees`].
fn assert_engines_agree(
    label: &str,
    program: &Program,
    spec: CampaignSpec,
    workers: &[usize],
) -> (PoolStats, MetricsSnapshot) {
    let setup = Setup::new(label, program, Grid::Default);
    let plan = ShardPlan::build(setup.space.clone(), spec);
    assert_plan_agrees(label, &setup, &plan, workers)
}

/// Runs `plan` on the scalar engine (two workers) and on both engines at
/// every count in `workers`, and asserts every run agrees with the scalar
/// one on the report bytes, the early-exit count (early exits count
/// individual faults on both engines) and the per-fault cycle accounting
/// (`campaign.simulated_cycles` and the `campaign.run_cycles` and
/// `campaign.restore_distance` histograms). Returns the last bitsliced
/// run's stats and metrics.
fn assert_plan_agrees(
    label: &str,
    setup: &Setup<'_>,
    plan: &ShardPlan,
    workers: &[usize],
) -> (PoolStats, MetricsSnapshot) {
    let Setup { sim, golden, ckpts, .. } = setup;
    let run = |engine: Engine, workers: usize| {
        let tel = Telemetry::enabled();
        let (report, stats) =
            pool::run_sharded_engine(sim, golden, ckpts, plan, workers, None, label, engine, &tel)
                .expect("pool runs");
        (report, stats, tel.snapshot())
    };
    let (baseline, base_stats, base_snap) = run(Engine::Scalar, 2);
    let baseline_bytes = baseline.to_json().render();
    assert_eq!(base_stats.batches, 0, "{label}: scalar engine never batches");
    assert_eq!(base_stats.batched_lanes, 0, "{label}: scalar engine has no lanes");

    let mut last = None;
    for engine in [Engine::Scalar, Engine::Bitsliced] {
        for &w in workers {
            let (report, stats, snap) = run(engine, w);
            let what = format!("{label}: {} × {w} workers", engine.name());
            assert_eq!(report.to_json().render(), baseline_bytes, "{what}: report deviates");
            assert_eq!(stats.early_exits, base_stats.early_exits, "{what}: early exits deviate");
            for name in ["campaign.runs", "campaign.simulated_cycles", "campaign.saved_cycles"] {
                assert_eq!(snap.counter(name), base_snap.counter(name), "{what}: {name} deviates");
            }
            for name in ["campaign.run_cycles", "campaign.restore_distance"] {
                assert_eq!(
                    snap.histogram(name),
                    base_snap.histogram(name),
                    "{what}: per-fault cycle accounting ({name}) deviates"
                );
            }
            if engine == Engine::Bitsliced {
                assert!(stats.batches > 0, "{what}: never batched");
                assert_eq!(stats.batched_lanes, report.runs(), "{what}: a fault skipped the lanes");
                last = Some((stats, snap));
            }
        }
    }
    last.expect("at least one worker count")
}

/// Tainted `sb`/`sh`/`sw` values into a scratch global, each from its own
/// register, read back through partial loads of every width: a fault in
/// a byte some load observes is an SDC, one in a stored byte nobody reads
/// (or one overwritten by a later clean store) a Deviation. No branch
/// depends on a stored value, so every lane stays batched — the divergent
/// words ride along in the lanes' overlays instead of forking.
#[test]
fn divergent_store_values_stay_batched() {
    let p = bec_ir::parse_program(
        r#"
global scratch: word[4] = { 0x11223344, 0, 0, 0 }
func @main(args=0, ret=none) {
entry:
    la   s0, @scratch
    li   t0, 0x1234
    li   t1, 0xab
    li   t2, 0x5678
    li   t3, 0xcd
    li   t4, 0x9abc
    sb   t1, 1(s0)
    sh   t0, 2(s0)
    sw   t2, 4(s0)
    sb   t3, 8(s0)
    sh   t4, 12(s0)
    li   t0, 0
    li   t1, 0
    li   t2, 0
    li   t3, 0
    li   t4, 0
    lbu  a1, 3(s0)
    lhu  a2, 4(s0)
    lb   a3, 7(s0)
    lw   a4, 8(s0)
    lbu  a5, 13(s0)
    li   t5, 0x99
    sb   t5, 1(s0)
    lbu  a6, 1(s0)
    print a1
    add  a7, a2, a3
    print a7
    print a4
    print a5
    print a6
    exit
}
"#,
    )
    .unwrap();
    let (stats, snap) = assert_engines_agree("store-values", &p, CampaignSpec::exhaustive(8), &[2]);
    assert!(snap.counter("campaign.outcome.deviation").unwrap_or(0) > 0);
    assert!(snap.counter("campaign.outcome.sdc").unwrap_or(0) > 0);
    assert_eq!(stats.forked_lanes, 0, "a divergent store value must not fork");
}

/// A program with a divergent in-bounds store address (faults in the pointer `s1`),
/// loads of both the lane's own and the golden address, a loop whose
/// bound is reloaded from the stored word — so lanes fork on a reloaded
/// value and their tails must see their overlay words — and a tail loop
/// bounded by a word only a divergent store address can change.
fn divergent_address_program() -> Program {
    bec_ir::parse_program(
        r#"
global buf: word[8] = { 3, 0, 0, 0, 0, 0, 0, 0 }
func @main(args=0, ret=none) {
entry:
    la   s0, @buf
    li   t0, 5
    addi s1, s0, 4
    sw   t0, 0(s1)
    lw   a0, 0(s1)
    lw   a1, 4(s0)
    add  a2, a0, a1
    print a2
    li   t2, 0
    j    count
count:
    addi t2, t2, 1
    lw   a3, 4(s0)
    blt  t2, a3, count, done
done:
    lw   t4, 0(s0)
    j    drain
drain:
    addi t4, t4, -1
    bnez t4, drain, out
out:
    lw   a4, 8(s0)
    print a4
    exit
}
"#,
    )
    .unwrap()
}

/// The divergent-address program's reports match across engines.
#[test]
fn overlays_follow_divergent_addresses_into_forks() {
    let p = divergent_address_program();
    let (stats, snap) =
        assert_engines_agree("store-addresses", &p, CampaignSpec::exhaustive(8), &[2]);
    assert!(stats.forked_lanes > 0, "no lane forked on a reloaded value");
    assert!(snap.counter("campaign.tail_cycles").unwrap_or(0) > 0);
}

/// Branches whose condition a fault flips although both edges reach the
/// same block. With equal targets the path is the same, so the lane stays
/// batched and converges exactly when its scalar run does. With one edge
/// through an extra goto only the step count differs: the lane forks,
/// never converges (nor does its scalar run), and its tail must keep the
/// trace hash to end Benign like the scalar run.
#[test]
fn same_target_branches_match_across_engines() {
    for (label, fall) in [("same-edges", "next"), ("rejoining-edges", "hop")] {
        let p = bec_ir::parse_program(&format!(
            r#"
func @main(args=0, ret=none) {{
entry:
    li   s0, 0
    li   s1, 40
    j    loop
loop:
    li   t0, 1
    li   t1, 0
    beq  t0, t1, next, {fall}
hop:
    j    next
next:
    li   t0, 7
    addi s0, s0, 3
    addi s1, s1, -1
    bnez s1, loop, done
done:
    print s0
    exit
}}
"#
        ))
        .unwrap();
        let setup = Setup::new(label, &p, Grid::Every(4));
        // The faults flipping `beq`'s condition: bit 0 of t0 or of t1,
        // injected right before it.
        let flips: Vec<SitedFault> = setup
            .space
            .iter()
            .filter(|f| f.spec.bit == 0 && [bec_ir::Reg::T0, bec_ir::Reg::T1].contains(&f.spec.reg))
            .copied()
            .collect();
        assert!(!flips.is_empty());
        let plan = ShardPlan::build(setup.space.clone(), CampaignSpec::exhaustive(4));
        assert_plan_agrees(label, &setup, &plan, &[1, 2]);
        let plan = ShardPlan::build(flips, CampaignSpec::exhaustive(1));
        let (stats, snap) = assert_plan_agrees(label, &setup, &plan, &[1]);
        assert!(snap.counter("campaign.outcome.benign").unwrap_or(0) > 0);
        assert!(stats.early_exits > 0);
        if fall == "next" {
            assert_eq!(stats.forked_lanes, 0, "{label}: a lane forked off an unchanged path");
        } else {
            assert!(stats.forked_lanes > 0, "{label}: no lane forked at the rejoining branch");
        }
    }
}

/// Generated full-surface programs (diamonds, loops, calls, scratch
/// memory on a 16-bit machine): sampled reports are byte-identical across
/// engines — on the default grid, and sampled sparsely into two shards on
/// aligned checkpoints, where lanes join across calls, returns and loop
/// iterations, and batches empty out between distant lanes.
#[test]
fn generated_programs_match_across_engines() {
    let mut batched = 0;
    for seed in 0..24u64 {
        let generated = bec_fuzzgen::generate(seed, &bec_fuzzgen::GenConfig::full());
        let label = format!("fuzzgen-{seed}");
        let (stats, _) = assert_engines_agree(
            &label,
            &generated.program,
            CampaignSpec::sampled(seed, 600, 8),
            &[2],
        );
        batched += stats.batched_lanes;
        let setup = Setup::new(&label, &generated.program, Grid::Aligned);
        let plan = ShardPlan::build(setup.space.clone(), CampaignSpec::sampled(seed, 160, 2));
        assert_plan_agrees(&label, &setup, &plan, &[2]);
    }
    assert!(batched > 0);
}

/// Generated full-surface programs (diamonds, loops, calls, scratch
/// memory on a 16-bit machine), run exhaustively: every fault of every
/// site, so every taint path of the replay's clean fast path and lane
/// kernels meets the scalar engine.
#[test]
fn generated_programs_match_exhaustively() {
    let (mut forked, mut clean) = (0, 0);
    for seed in 0..48u64 {
        let generated = bec_fuzzgen::generate(seed, &bec_fuzzgen::GenConfig::full());
        let label = format!("fuzzgen-{seed}");
        let (stats, snap) =
            assert_engines_agree(&label, &generated.program, CampaignSpec::exhaustive(8), &[2]);
        forked += stats.forked_lanes;
        clean += snap.counter("campaign.replay_clean_steps").unwrap_or(0);
    }
    assert!(forked > 0, "no lane ever forked");
    assert!(clean > 0, "no replay step took the clean path");
}

/// A checkpoint at every cycle: every boundary is an event — convergence,
/// settling and gap skips are checked on every cycle — on programs with
/// calls, loops, branches and divergent stores.
#[test]
fn every_cycle_checkpoints_match_across_engines() {
    let mut programs = vec![
        ("countyears".to_string(), example("countyears.s")),
        ("gcd".to_string(), example("gcd.s")),
        ("store-addresses".to_string(), divergent_address_program()),
    ];
    for seed in [1u64, 2, 11] {
        let program = bec_fuzzgen::generate(seed, &bec_fuzzgen::GenConfig::full()).program;
        programs.push((format!("fuzzgen-{seed}"), program));
    }
    for (label, program) in &programs {
        let setup = Setup::new(label, program, Grid::Every(1));
        let plan = ShardPlan::build(setup.space.clone(), CampaignSpec::exhaustive(8));
        let (stats, _) = assert_plan_agrees(label, &setup, &plan, &[2]);
        assert!(stats.early_exits > 0, "{label}: no lane converged");
    }
}

/// Lane bookkeeping runs only on event boundaries, and the boundary after
/// a step that flags or retires a lane is one: a lone lane whose print
/// diverges is handed off to the scalar tail on the very next boundary,
/// although no checkpoint or pending lane comes for hundreds of cycles.
#[test]
fn a_flagged_lone_lane_is_handed_off_at_once() {
    let p = bec_ir::parse_program(
        r#"
func @main(args=0, ret=none) {
entry:
    li   t0, 5
    print t0
    li   t1, 300
    j    loop
loop:
    addi t1, t1, -1
    bnez t1, loop, done
done:
    exit
}
"#,
    )
    .unwrap();
    let setup = Setup::new("lone", &p, Grid::Every(100_000));
    // Bit 0 of t0, flipped between its definition and the print.
    let fault: Vec<SitedFault> = setup
        .space
        .iter()
        .filter(|f| (f.spec.reg, f.spec.bit, f.spec.cycle) == (bec_ir::Reg::T0, 0, 1))
        .copied()
        .collect();
    assert_eq!(fault.len(), 1);
    let plan = ShardPlan::build(fault, CampaignSpec::exhaustive(1));
    let (_, snap) = assert_plan_agrees("lone", &setup, &plan, &[1]);
    assert_eq!(snap.counter("campaign.outcome.sdc"), Some(1));
    assert_eq!(snap.counter("campaign.handoff_lanes"), Some(1), "the lane was not handed off");
    // Restored at cycle 0, joined at cycle 1, printed there: handed off at
    // boundary 2.
    assert_eq!(snap.counter("campaign.replay_steps"), Some(2), "handed off late");
}

/// A sampled `bench_sha` campaign: the suite program with the most store
/// divergences.
#[test]
fn sampled_sha_matches_across_engines() {
    let (stats, snap) = assert_engines_agree(
        "bench_sha",
        &example("bench_sha.s"),
        CampaignSpec::sampled(7, 3000, 16),
        &[2],
    );
    assert!(stats.forked_lanes > 0);
    assert!(snap.counter("campaign.handoff_lanes").unwrap_or(0) > 0, "no lone lane handed off");
}

/// Distinct injection cycles summed over the shards of `plan`.
fn shard_cycles(plan: &ShardPlan) -> u64 {
    (0..plan.shard_count())
        .map(|i| {
            let mut cycles: Vec<u64> = plan.shard(i).iter().map(|f| f.spec.cycle).collect();
            cycles.sort_unstable();
            cycles.dedup();
            cycles.len() as u64
        })
        .sum()
}

/// A sampled campaign on the study's aligned checkpoints: every batch
/// holds lanes of many injection cycles, each joining the replay at its
/// own cycle and accounting its cycles from its own checkpoint.
#[test]
fn sampled_batches_span_many_cycles() {
    let program = bec_suite::bitcount::benchmark().compile().expect("compiles");
    let setup = Setup::new("bitcount", &program, Grid::Aligned);
    let plan = ShardPlan::build(setup.space.clone(), CampaignSpec::sampled(3052, 2000, 4));
    let (stats, _) = assert_plan_agrees("bitcount", &setup, &plan, &[1, 2]);
    assert_eq!(stats.batches, 4 * 8, "500-fault shards fill eight batches each");
    assert!(shard_cycles(&plan) > 10 * stats.batches, "batches must span many cycles");
}

/// Faults whose window opens at the final cycle boundary (cycle == the
/// golden cycle count: a call whose callee exits never returns to the
/// caller's depth) are never injected by their scalar runs, which
/// complete Benign. Their lanes are still pending when the replay reaches
/// the program's end and join there.
#[test]
fn final_boundary_faults_join_at_program_end() {
    let exits_in_callee = bec_ir::parse_program(
        r#"
func @finish(args=1, ret=none) {
entry:
    print a0
    exit
}
func @main(args=0, ret=none) {
entry:
    li   a0, 0
    li   t0, 40
    j    loop
loop:
    add  a0, a0, t0
    addi t0, t0, -1
    bnez t0, loop, done
done:
    call @finish
    ret
}
"#,
    )
    .unwrap();
    let bitcount = bec_suite::bitcount::benchmark().compile().expect("compiles");
    for (label, program) in [("exits-in-callee", &exits_in_callee), ("bitcount", &bitcount)] {
        let setup = Setup::new(label, program, Grid::Default);
        let end = setup.golden.cycles();
        let at_end = setup.space.iter().filter(|f| f.spec.cycle == end).count();
        assert!(at_end > 0, "{label}: no fault at the final boundary");
        // The latest faults of the trace, in one shard: batches hold the
        // final-boundary lanes behind lanes that join earlier.
        let mut late = setup.space.clone();
        late.sort_by_key(|f| f.spec.cycle);
        let late = late.split_off(late.len().saturating_sub(at_end + 100));
        assert!(late[0].spec.cycle < end, "{label}: only final-boundary faults");
        let plan = ShardPlan::build(late, CampaignSpec::exhaustive(1));
        assert_plan_agrees(label, &setup, &plan, &[1]);
    }
}

/// Lanes far apart in one batch: each converges soon after it joins, so
/// the batch empties between lanes and skips the gap — rewinds and
/// restores the next lane's checkpoint — instead of replaying golden
/// cycles no lane needs.
#[test]
fn distant_lanes_skip_the_gaps_between_them() {
    let program = bec_ir::parse_program(
        r#"
func @main(args=0, ret=none) {
entry:
    li   t0, 0
    li   t1, 3000
    la   s0, @acc
    j    loop
loop:
    andi t2, t1, 3
    add  t0, t0, t2
    sw   t0, 0(s0)
    addi t1, t1, -1
    bnez t1, loop, done
done:
    lw   a0, 0(s0)
    print a0
    exit
}
global acc: word[1] = { 0 }
"#,
    )
    .unwrap();
    let setup = Setup::new("gaps", &program, Grid::Every(16));
    // Statically masked faults converge at the first checkpoint after
    // their cycle; take 40 of them spread over the whole trace.
    let mut masked: Vec<SitedFault> = setup.space.iter().filter(|f| f.masked).copied().collect();
    masked.sort_by_key(|f| f.spec.cycle);
    let stride = masked.len() / 40;
    let distant: Vec<SitedFault> = masked.iter().step_by(stride).take(40).copied().collect();
    let span = distant.last().unwrap().spec.cycle - distant[0].spec.cycle;
    assert!(span > setup.golden.cycles() / 2, "lanes spread over the trace");
    let plan = ShardPlan::build(distant, CampaignSpec::exhaustive(1));
    let (stats, snap) = assert_plan_agrees("gaps", &setup, &plan, &[1]);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.early_exits, 40, "every masked lane converges");
    let replayed = snap.counter("campaign.replay_steps").unwrap();
    assert!(replayed < span / 4, "replayed {replayed} of a {span}-cycle span: no gap skipped");
}

/// Every [`AluOp`], in register form and in `alu_imm` form, over three
/// operand pairs: a negative value with low bits a shift pushes out, `MIN`
/// and −1 (the signed `div`/`rem` overflow), and a zero divisor. Before
/// each op its source is copied into a register nothing else reads, so a
/// fault there reaches only that op: masked exactly when the op's result
/// ignores the flipped bit. Register-form destinations alias `rs1`, then
/// `rs2`, then neither; a copy of each op also writes the zero register,
/// whose (vanished) result a later read must not see.
fn every_alu_op_program(config: MachineConfig) -> Program {
    use AluOp::*;
    let min = 1i64 << (config.xlen - 1);
    let (a, b, t, u, c) = (Reg::S0, Reg::S1, Reg::T0, Reg::T1, Reg::A0);
    let mut pb = ProgramBuilder::new(config);
    let mut f = pb.function("main", Signature::void(0));
    f.block("entry");
    for (pair, (x, y)) in [(min | 0xf0, 4), (min, -1), (0x1234, 0)].into_iter().enumerate() {
        f.li(a, x).li(b, y);
        for op in [
            Add, Sub, And, Or, Xor, Sll, Srl, Sra, Slt, Sltu, Mul, Mulh, Mulhu, Div, Divu, Rem,
            Remu,
        ] {
            let rd = [t, u, c][pair];
            f.mv(t, a).mv(u, b).alu(op, rd, t, u).print(rd);
            let imm =
                if matches!(op, Sll | Srl | Sra) { y.rem_euclid(config.xlen.into()) } else { y };
            f.mv(t, a).alu_imm(op, t, t, imm).print(t);
            f.mv(t, a).alu(op, Reg::ZERO, t, b).add(c, Reg::ZERO, b).print(c);
        }
    }
    f.exit();
    f.finish();
    pb.finish()
}

/// The lane kernels of every op agree with the scalar engine, on rv32 and
/// on a 16-bit machine.
#[test]
fn every_alu_op_matches_across_engines() {
    let narrow = MachineConfig { xlen: 16, num_regs: 16, zero_reg: Some(Reg::ZERO) };
    for (label, config) in [("every-op-rv32", MachineConfig::rv32()), ("every-op-16", narrow)] {
        let program = every_alu_op_program(config);
        bec_ir::verify_program(&program).expect("valid program");
        let (_, snap) = assert_engines_agree(label, &program, CampaignSpec::exhaustive(8), &[2]);
        assert!(snap.counter("campaign.outcome.benign").unwrap_or(0) > 0, "{label}: none masked");
        assert!(snap.counter("campaign.outcome.sdc").unwrap_or(0) > 0, "{label}: none observed");
    }
}
