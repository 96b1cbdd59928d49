//! Engine-equivalence contract of the bitsliced campaign engine: for any
//! worker count, the serialized [`bec_sim::CampaignReport`] of an
//! exhaustive differential campaign on the bitsliced engine is
//! byte-identical to the scalar engine's, and the per-fault early-exit
//! accounting (`PoolStats::early_exits`) agrees across engines — a
//! bitsliced batch with N converged lanes counts N, exactly like N scalar
//! runs. Lanes whose stores diverge stay batched on a per-lane memory
//! overlay; the overlay cases below pin that path against the scalar
//! engine too.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sim::shard::{site_fault_space, CampaignSpec, ShardPlan};
use bec_sim::{
    default_checkpoint_interval, pool, Engine, ExecOutcome, FaultClass, PoolStats, SimLimits,
    Simulator,
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

/// Runs `spec` over `program` on the scalar engine (two workers) and on
/// both engines at every count in `workers`, and asserts every run agrees
/// with the scalar one on the report bytes, the early-exit count (early
/// exits count individual faults on both engines) and the per-fault cycle
/// accounting (`campaign.simulated_cycles` and the `campaign.run_cycles`
/// histogram). Returns the last bitsliced run's stats and metrics.
fn assert_engines_agree(
    label: &str,
    program: &Program,
    spec: CampaignSpec,
    workers: &[usize],
) -> (PoolStats, MetricsSnapshot) {
    let probe = Simulator::new(program).run_golden();
    assert_eq!(probe.result.outcome, ExecOutcome::Completed, "{label}: golden completes");
    let budget = probe.cycles() * 2 + 100;
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });
    let (golden, ckpts) = sim.run_golden_checkpointed(default_checkpoint_interval(probe.cycles()));
    let bec = BecAnalysis::analyze(program, &BecOptions::paper());
    let plan = ShardPlan::build(site_fault_space(program, &bec, &golden), spec);

    let run = |engine: Engine, workers: usize| {
        let tel = Telemetry::enabled();
        let (report, stats) = pool::run_sharded_engine(
            &sim, &golden, &ckpts, &plan, workers, None, label, engine, &tel,
        )
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
            assert_eq!(
                snap.histogram("campaign.run_cycles"),
                base_snap.histogram("campaign.run_cycles"),
                "{what}: per-fault cycle accounting deviates"
            );
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

/// A divergent in-bounds store address (faults in the pointer `s1`),
/// loads of both the lane's own and the golden address, a loop whose
/// bound is reloaded from the stored word — so lanes fork on a reloaded
/// value and their tails must see their overlay words — and a tail loop
/// bounded by a word only a divergent store address can change.
#[test]
fn overlays_follow_divergent_addresses_into_forks() {
    let p = bec_ir::parse_program(
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
    .unwrap();
    let (stats, snap) =
        assert_engines_agree("store-addresses", &p, CampaignSpec::exhaustive(8), &[2]);
    assert!(stats.forked_lanes > 0, "no lane forked on a reloaded value");
    assert!(snap.counter("campaign.tail_cycles").unwrap_or(0) > 0);
}

/// Generated full-surface programs (diamonds, loops, calls, scratch
/// memory on a 16-bit machine): sampled reports are byte-identical across
/// engines.
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
    }
    assert!(batched > 0);
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
