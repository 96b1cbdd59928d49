//! Determinism contract of the sharded campaign engine: for a fixed
//! (program, seed, sample, shard count, cycle budget), the serialized
//! [`bec_sim::CampaignReport`] is byte-identical for any worker count and
//! for any resume split — scheduling, thread interleaving and wall-clock
//! never leak into the report.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::Program;
use bec_sim::json::Json;
use bec_sim::shard::{site_fault_space, CampaignReport, CampaignSpec, ShardPlan};
use bec_sim::{pool, CheckpointLog, Engine, GoldenRun, PoolStats, SimLimits, Simulator};
use bec_telemetry::Telemetry;

fn countyears() -> Program {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/countyears.s");
    bec_rv32::parse_asm(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn setup(program: &Program) -> (Simulator<'_>, GoldenRun) {
    let golden = Simulator::new(program).run_golden();
    let budget = golden.cycles() * 2 + 100;
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });
    (sim, golden)
}

/// The from-scratch pool on the default engine, uninstrumented.
fn run(
    sim: &Simulator<'_>,
    golden: &GoldenRun,
    plan: &ShardPlan,
    workers: usize,
    resume: Option<CampaignReport>,
    label: &str,
) -> (CampaignReport, PoolStats) {
    let (ckpts, tel) = (CheckpointLog::disabled(), Telemetry::disabled());
    pool::run_sharded(sim, golden, &ckpts, plan, workers, resume, label, Engine::default(), &tel)
        .unwrap()
}

#[test]
fn report_bytes_are_identical_for_any_worker_count() {
    let p = countyears();
    let (sim, golden) = setup(&p);
    let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
    let plan =
        ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::sampled(42, 400, 8));

    let mut renders = Vec::new();
    for workers in [1, 2, 8] {
        let (report, stats) = run(&sim, &golden, &plan, workers, None, "countyears");
        assert_eq!(stats.workers, workers);
        renders.push(report.to_json().render());
    }
    assert_eq!(renders[0], renders[1], "1 vs 2 workers");
    assert_eq!(renders[0], renders[2], "1 vs 8 workers");
    // And the bytes survive a parse round-trip.
    let back = CampaignReport::from_json(&Json::parse(&renders[0]).unwrap()).unwrap();
    assert_eq!(back.to_json().render(), renders[0]);
}

#[test]
fn resumed_campaign_reproduces_the_uninterrupted_bytes() {
    let p = countyears();
    let (sim, golden) = setup(&p);
    let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
    let plan =
        ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::sampled(7, 300, 6));

    let (full, _) = run(&sim, &golden, &plan, 2, None, "countyears");
    // Interrupt after an arbitrary subset of shards, round-trip the partial
    // report through its JSON form (as the CLI's --report/--resume does),
    // and finish with a different worker count.
    let mut partial = full.clone();
    partial.shards[0] = None;
    partial.shards[3] = None;
    partial.shards[5] = None;
    let reloaded =
        CampaignReport::from_json(&Json::parse(&partial.to_json().render()).unwrap()).unwrap();
    let (resumed, stats) = run(&sim, &golden, &plan, 8, Some(reloaded), "countyears");
    assert_eq!(stats.executed_shards, 3);
    assert_eq!(stats.resumed_shards, 3);
    assert_eq!(resumed.to_json().render(), full.to_json().render());
}

#[test]
fn exhaustive_reports_agree_across_worker_counts() {
    let p = countyears();
    let (sim, golden) = setup(&p);
    let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
    let plan = ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(16));
    let (a, _) = run(&sim, &golden, &plan, 1, None, "countyears");
    let (b, _) = run(&sim, &golden, &plan, 4, None, "countyears");
    assert_eq!(a, b);
    assert_eq!(a.to_json().render(), b.to_json().render());
}

/// Wall-clock scaling probe for the acceptance criterion "≥2x speedup with
/// ≥4 workers on an 8-core runner". Ignored by default: it is a performance
/// measurement, meaningless on saturated or single-core CI hosts. Run with
/// `cargo test -p bec-sim --release --test determinism -- --ignored`.
#[test]
#[ignore = "timing-sensitive; requires an idle multi-core host"]
fn four_workers_give_at_least_2x_speedup() {
    let b = bec_suite::crc32::scaled(1);
    let p = b.compile().unwrap();
    let (sim, golden) = setup(&p);
    let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
    let plan = ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(64));

    let time = |workers: usize| {
        let started = std::time::Instant::now();
        let (report, _) = run(&sim, &golden, &plan, workers, None, "crc32");
        assert!(report.is_complete());
        started.elapsed()
    };
    time(1); // warm-up
    let serial = time(1);
    let parallel = time(4);
    assert!(
        parallel.as_secs_f64() * 2.0 <= serial.as_secs_f64(),
        "expected ≥2x speedup: serial {serial:?}, 4 workers {parallel:?}"
    );
}
