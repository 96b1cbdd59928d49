//! The campaign worker pool: executes a [`ShardPlan`] on `std::thread`
//! workers that steal whole shards from a shared queue and stream batched
//! [`ShardResult`]s back over an `mpsc` channel.
//!
//! Workers never share mutable simulator state — each run restores its own
//! machine from the read-only golden checkpoints (or re-executes from
//! scratch when checkpointing is disabled) — so the pool scales linearly
//! until the machine runs out of cores. Determinism is preserved by
//! construction: results are slotted by shard index and the per-fault
//! classification is independent of the checkpoint interval, so any worker
//! count, interleaving or interval assembles the same [`CampaignReport`]:
//!
//! ```
//! use bec_sim::{pool, site_fault_space, CampaignSpec, CheckpointLog, Engine, ShardPlan, Simulator};
//! use bec_core::{BecAnalysis, BecOptions};
//! use bec_telemetry::Telemetry;
//! use bec_ir::parse_program;
//!
//! let p = parse_program(r#"
//! func @main(args=0, ret=none) {
//! entry:
//!     li t0, 2
//!     slli t0, t0, 1
//!     print t0
//!     exit
//! }
//! "#)?;
//! let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
//! let sim = Simulator::new(&p);
//! let golden = sim.run_golden();
//! let plan = ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(4));
//! let (ck, tel) = (CheckpointLog::disabled(), Telemetry::disabled());
//! let run = |workers| {
//!     pool::run_sharded(&sim, &golden, &ck, &plan, workers, None, "ex", Engine::default(), &tel)
//! };
//! let (one, _) = run(1).unwrap();
//! let (four, _) = run(4).unwrap();
//! assert_eq!(one, four); // report bytes never depend on the worker count
//! # Ok::<(), bec_ir::IrError>(())
//! ```

use crate::bitslice::{batch_eligible, BatchCounters, BatchRunner, Engine, LaneRun};
use crate::checkpoint::CheckpointLog;
use crate::runner::{GoldenRun, Simulator};
use crate::shard::{CampaignReport, FaultOutcome, ShardPlan, ShardResult};
use bec_telemetry::{Histogram, Telemetry};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Execution metadata of one pool run — everything that must *not* end up
/// in the deterministic report.
#[derive(Clone, Copy, Debug)]
pub struct PoolStats {
    /// Wall-clock time of the pool run.
    pub wall: Duration,
    /// Workers the pool ran with.
    pub workers: usize,
    /// Shards executed by this run (excludes shards taken from a resumed
    /// report).
    pub executed_shards: usize,
    /// Shards reused from the resumed report.
    pub resumed_shards: usize,
    /// Individual fault runs that early-exited by converging with the
    /// golden run (always 0 with a disabled checkpoint log). Counted per
    /// fault on both engines — a bitsliced batch with 32 converged lanes
    /// contributes 32 — so scalar and bitsliced campaigns report the same
    /// number.
    pub early_exits: u64,
    /// Bitsliced batches executed (0 on the scalar engine).
    pub batches: u64,
    /// Faults executed as bitsliced lanes (0 on the scalar engine).
    pub batched_lanes: u64,
    /// Lanes forked out to a scalar tail on branch divergence (0 on the
    /// scalar engine).
    pub forked_lanes: u64,
}

impl PoolStats {
    /// Publishes the execution metadata onto the metric registry. The
    /// wall time goes in as a (nondeterministic) timing, summed over every
    /// campaign the registry sees; everything else is deterministic for a
    /// fixed plan and checkpoint interval.
    pub fn record(&self, tel: &Telemetry) {
        tel.add_time_ms("campaign.wall_ms", self.wall.as_secs_f64() * 1e3);
        tel.gauge("pool.workers", self.workers as u64);
        tel.gauge("pool.executed_shards", self.executed_shards as u64);
        tel.gauge("pool.resumed_shards", self.resumed_shards as u64);
    }
}

/// Executes `plan` on `workers` threads with the per-fault execution
/// `engine`, resuming from `resume` when given (only its missing shards
/// are re-run).
///
/// `ckpts` is the golden run's checkpoint log: workers start each fault
/// run at the nearest checkpoint before the injection cycle and early-exit
/// on provable re-convergence. Pass [`CheckpointLog::disabled`] for the
/// from-scratch engine; the report bytes are identical either way, and
/// across engines and worker counts (`tests/bitslice_equivalence.rs`).
/// The bitsliced engine silently falls back to the scalar one when the
/// campaign cannot batch (disabled checkpoints, an incomplete or
/// over-budget golden run, or more registers than lanes).
///
/// `label` becomes [`CampaignReport::program`]. `tel` receives spans
/// (`campaign`, one `shard` span per executed shard on its worker's
/// timeline), logical `campaign.*` counters/histograms merged
/// worker-count-independently, `pool.*` gauges and a throttled live
/// progress meter on stderr; pass [`Telemetry::disabled`] when not
/// instrumenting.
///
/// # Errors
///
/// Fails when `resume` was recorded for a different campaign: its label,
/// spec or fault-space size disagrees with `plan`/`label`.
#[allow(clippy::too_many_arguments)]
pub fn run_sharded(
    sim: &Simulator<'_>,
    golden: &GoldenRun,
    ckpts: &CheckpointLog,
    plan: &ShardPlan,
    workers: usize,
    resume: Option<CampaignReport>,
    label: &str,
    engine: Engine,
    tel: &Telemetry,
) -> Result<(CampaignReport, PoolStats), String> {
    let mut report = match resume {
        Some(prev) => {
            prev.validate_resume(label, plan, sim.limits().max_cycles)?;
            prev
        }
        None => CampaignReport::empty(label, plan, sim.limits().max_cycles),
    };
    let started = Instant::now();
    let workers = workers.max(1);

    let pending = report.pending_shards();
    let resumed_shards = plan.shard_count() - pending.len();
    let planned_runs: u64 = pending.iter().map(|&s| plan.shard(s).len() as u64).sum();
    let next = AtomicUsize::new(0);
    let early = AtomicU64::new(0);
    let batches = AtomicU64::new(0);
    let batched_lanes = AtomicU64::new(0);
    let forked_lanes = AtomicU64::new(0);
    let tail_ns = AtomicU64::new(0);
    // One decision for the whole pool: batching requires exactly the
    // conditions the scalar convergence early-exit needs.
    let use_batch = engine == Engine::Bitsliced && batch_eligible(sim, ckpts);
    let (tx, rx) = std::sync::mpsc::channel::<ShardResult>();

    let _span = tel
        .span("campaign")
        .arg("label", label)
        .arg("shards", plan.shard_count())
        .arg("runs", planned_runs);
    tel.gauge("pool.pending_shards", pending.len() as u64);
    tel.gauge("campaign.fault_space", plan.fault_space());
    tel.gauge("campaign.golden_cycles", golden.cycles());
    let mut meter = tel.meter(&format!("campaign {label}"), planned_runs);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let early = &early;
            let pending = &pending;
            let batches = &batches;
            let batched_lanes = &batched_lanes;
            let forked_lanes = &forked_lanes;
            let tail_ns = &tail_ns;
            scope.spawn(move || {
                // One scratch machine per worker, reused across all runs —
                // a scalar injector or a bitsliced batch runner.
                let mut injector = (!use_batch).then(|| sim.injector());
                let mut batcher = use_batch.then(|| BatchRunner::new(sim, golden, ckpts));
                let mut lane_runs: Vec<LaneRun> = Vec::new();
                let mut counters = BatchCounters::default();
                // Telemetry is aggregated locally and merged once per
                // worker: the merge is associative and commutative, so the
                // registry totals are independent of the worker count.
                let tid = w as u32 + 1;
                let mut run_cycles = Histogram::default();
                let mut restore_distance = Histogram::default();
                let mut exits = 0u64;
                let mut saved = 0u64;
                loop {
                    // Steal the next unclaimed shard.
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&shard) = pending.get(slot) else { break };
                    let faults = plan.shard(shard);
                    let _shard_span =
                        tel.span_on(tid, "shard").arg("shard", shard).arg("runs", faults.len());
                    let mut converged = 0u64;
                    // Per-fault accounting is engine-independent: a lane
                    // observes exactly what its scalar run would have.
                    let mut observe = |fault: &crate::shard::SitedFault, run: &LaneRun| {
                        run_cycles.observe(run.simulated_cycles);
                        restore_distance.observe(fault.spec.cycle.saturating_sub(run.restored_at));
                        if run.converged_at.is_some() {
                            converged += 1;
                            saved += golden.cycles().saturating_sub(run.simulated_cycles);
                        }
                        FaultOutcome { fault: *fault, class: run.class }
                    };
                    let outcomes: Vec<FaultOutcome> = if let Some(b) = batcher.as_mut() {
                        b.run_shard(faults, &mut counters, &mut lane_runs);
                        faults.iter().zip(&lane_runs).map(|(f, r)| observe(f, r)).collect()
                    } else {
                        let injector = injector.as_mut().expect("scalar worker");
                        faults
                            .iter()
                            .map(|fault| {
                                let run = injector.run_fault(golden, ckpts, fault.spec);
                                observe(
                                    fault,
                                    &LaneRun {
                                        class: run.class,
                                        converged_at: run.converged_at,
                                        simulated_cycles: run.simulated_cycles,
                                        restored_at: run.restored_at,
                                    },
                                )
                            })
                            .collect()
                    };
                    exits += converged;
                    early.fetch_add(converged, Ordering::Relaxed);
                    // One batched send per shard; a dropped receiver means
                    // the collector is gone and the worker just stops.
                    if tx.send(ShardResult { shard: shard as u32, outcomes }).is_err() {
                        break;
                    }
                }
                tel.merge_hist("campaign.run_cycles", &run_cycles);
                tel.merge_hist("campaign.restore_distance", &restore_distance);
                tel.add("campaign.runs", run_cycles.count);
                tel.add("campaign.simulated_cycles", run_cycles.sum);
                tel.add("campaign.early_exits", exits);
                tel.add("campaign.saved_cycles", saved);
                if use_batch {
                    tel.merge_hist("campaign.lane_occupancy", &counters.occupancy);
                    tel.add("campaign.batches", counters.batches);
                    tel.add("campaign.batched_lanes", counters.batched_lanes);
                    tel.add("campaign.forked_lanes", counters.forked_lanes);
                    tel.add("campaign.handoff_lanes", counters.handoff_lanes);
                    tel.add("campaign.replay_steps", counters.replay_steps);
                    tel.add("campaign.replay_clean_steps", counters.replay_clean_steps);
                    tel.add("campaign.tail_cycles", counters.tail_cycles);
                    batches.fetch_add(counters.batches, Ordering::Relaxed);
                    batched_lanes.fetch_add(counters.batched_lanes, Ordering::Relaxed);
                    forked_lanes.fetch_add(counters.forked_lanes, Ordering::Relaxed);
                    tail_ns.fetch_add(counters.tail_time.as_nanos() as u64, Ordering::Relaxed);
                }
            });
        }
        drop(tx);

        let mut done_runs = 0u64;
        for result in rx {
            let slot = result.shard as usize;
            debug_assert!(report.shards[slot].is_none(), "shard {slot} executed twice");
            let runs = result.outcomes.len();
            done_runs += runs as u64;
            report.shards[slot] = Some(result);
            meter.update(done_runs, &[("early_exits", early.load(Ordering::Relaxed))]);
        }
    });

    if use_batch {
        // Tail time summed over workers (and, like the wall time, over
        // every campaign of the process): a timing.
        tel.add_time_ms("campaign.tail_wall_ms", tail_ns.load(Ordering::Relaxed) as f64 / 1e6);
    }
    // Outcome tallies cover the whole (possibly resumed) report, matching
    // what the CLI prints — deterministic for a fixed plan.
    for (i, &count) in report.outcome_counts().iter().enumerate() {
        tel.add(&format!("campaign.outcome.{}", crate::FaultClass::ALL[i].name()), count);
    }

    let stats = PoolStats {
        wall: started.elapsed(),
        workers,
        executed_shards: pending.len(),
        resumed_shards,
        early_exits: early.load(Ordering::Relaxed),
        batches: batches.load(Ordering::Relaxed),
        batched_lanes: batched_lanes.load(Ordering::Relaxed),
        forked_lanes: forked_lanes.load(Ordering::Relaxed),
    };
    stats.record(tel);
    Ok((report, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{site_fault_space, CampaignSpec, ShardPlan};
    use bec_core::{BecAnalysis, BecOptions};
    use bec_ir::parse_program;

    fn toy() -> bec_ir::Program {
        parse_program(
            r#"
machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r1, 6
    j loop
loop:
    andi r2, r1, 1
    add  r0, r0, r2
    addi r1, r1, -1
    bnez r1, loop
exit:
    ret r0
}
"#,
        )
        .unwrap()
    }

    /// The from-scratch scalar pool without instrumentation.
    fn run_scratch(
        sim: &Simulator<'_>,
        golden: &GoldenRun,
        plan: &ShardPlan,
        workers: usize,
        resume: Option<CampaignReport>,
        label: &str,
    ) -> Result<(CampaignReport, PoolStats), String> {
        let (ckpts, tel) = (CheckpointLog::disabled(), Telemetry::disabled());
        run_sharded(sim, golden, &ckpts, plan, workers, resume, label, Engine::Scalar, &tel)
    }

    #[test]
    fn pool_matches_sequential_execution() {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let plan =
            ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(6));
        let (seq, _) = run_scratch(&sim, &golden, &plan, 1, None, "toy").unwrap();
        let (par, stats) = run_scratch(&sim, &golden, &plan, 4, None, "toy").unwrap();
        assert_eq!(seq, par);
        assert!(seq.is_complete());
        assert_eq!(stats.executed_shards, 6);
        assert_eq!(seq.runs(), plan.runs() as u64);
    }

    #[test]
    fn resume_runs_only_missing_shards() {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let plan =
            ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(5));
        let (full, _) = run_scratch(&sim, &golden, &plan, 2, None, "toy").unwrap();
        let mut partial = full.clone();
        partial.shards[1] = None;
        partial.shards[4] = None;
        let (resumed, stats) = run_scratch(&sim, &golden, &plan, 3, Some(partial), "toy").unwrap();
        assert_eq!(resumed, full);
        assert_eq!(stats.executed_shards, 2);
        assert_eq!(stats.resumed_shards, 3);
    }

    #[test]
    fn telemetry_totals_are_worker_count_independent() {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let (golden, ckpts) = sim.run_golden_checkpointed(4);
        let plan =
            ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(6));

        let snapshots: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&w| {
                let tel = Telemetry::enabled();
                let (report, stats) = run_sharded(
                    &sim,
                    &golden,
                    &ckpts,
                    &plan,
                    w,
                    None,
                    "toy",
                    Engine::default(),
                    &tel,
                )
                .unwrap();
                let snap = tel.snapshot();
                // The registry agrees with the report and the pool stats.
                assert_eq!(snap.counter("campaign.runs"), Some(report.runs()));
                assert_eq!(snap.counter("campaign.early_exits"), Some(stats.early_exits));
                assert_eq!(snap.gauge("pool.workers"), Some(w as u64));
                snap
            })
            .collect();

        // Every logical (worker-count-independent) metric must be
        // byte-identical across worker counts; only the `pool.workers`
        // gauge and the wall-time metric may differ.
        for name in [
            "campaign.runs",
            "campaign.early_exits",
            "campaign.simulated_cycles",
            "campaign.saved_cycles",
            "campaign.batches",
            "campaign.batched_lanes",
            "campaign.forked_lanes",
            "campaign.handoff_lanes",
            "campaign.replay_steps",
            "campaign.replay_clean_steps",
            "campaign.tail_cycles",
            "campaign.outcome.benign",
            "campaign.outcome.sdc",
            "campaign.outcome.crash",
            "campaign.outcome.hang",
            "campaign.fault_space",
            "campaign.golden_cycles",
            "pool.pending_shards",
        ] {
            let values: Vec<_> = snapshots.iter().map(|s| s.metric(name).cloned()).collect();
            assert!(values[0].is_some(), "metric {name} missing");
            assert!(values.windows(2).all(|w| w[0] == w[1]), "{name} varies: {values:?}");
        }
        let hists: Vec<_> =
            snapshots.iter().map(|s| s.histogram("campaign.run_cycles").cloned()).collect();
        assert!(hists[0].is_some());
        assert!(hists.windows(2).all(|w| w[0] == w[1]), "run_cycles histogram varies");
        // With checkpointing on, some runs restore mid-trace.
        assert!(snapshots[0].histogram("campaign.restore_distance").unwrap().count > 0);
    }

    /// A process running several campaigns (a study) reports their summed
    /// pool and tail times, not the last campaign's.
    #[test]
    fn campaign_timings_add_up_over_campaigns() {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let (golden, ckpts) = sim.run_golden_checkpointed(4);
        let plan =
            ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(3));
        let tel = Telemetry::enabled();
        let timings = || {
            let snap = tel.snapshot();
            let time = |name| snap.time_ms(name).expect("recorded");
            (time("campaign.wall_ms"), time("campaign.tail_wall_ms"))
        };
        let run = || {
            run_sharded(&sim, &golden, &ckpts, &plan, 2, None, "toy", Engine::default(), &tel)
                .unwrap()
        };
        let (_, first) = run();
        let (wall1, tail1) = timings();
        assert_eq!(wall1, first.wall.as_secs_f64() * 1e3);
        let (_, second) = run();
        let (wall2, tail2) = timings();
        assert_eq!(wall2, wall1 + second.wall.as_secs_f64() * 1e3);
        assert!(tail1 > 0.0 && tail2 > tail1, "tail times {tail1} then {tail2}");
    }

    #[test]
    fn sampled_shards_fill_whole_batches() {
        // A batch takes 64 consecutive faults of its shard in
        // injection-cycle order, whatever their cycles: a shard of n runs
        // executes ⌈n / 64⌉ batches.
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let (golden, ckpts) = sim.run_golden_checkpointed(4);
        let plan =
            ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::sampled(5, 140, 2));
        assert!(plan.runs() < plan.fault_space() as usize, "sampled");
        let expected: u64 =
            (0..plan.shard_count()).map(|s| plan.shard(s).len().div_ceil(64) as u64).sum();
        assert_eq!(expected, 4, "two 70-run shards");
        let tel = Telemetry::enabled();
        let (_, stats) =
            run_sharded(&sim, &golden, &ckpts, &plan, 2, None, "toy", Engine::default(), &tel)
                .unwrap();
        assert_eq!(tel.snapshot().counter("campaign.batches"), Some(expected));
        assert_eq!(stats.batches, expected);
        assert_eq!(stats.batched_lanes, 140);
    }

    #[test]
    fn resume_rejects_mismatched_reports() {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let plan =
            ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::exhaustive(4));
        let (full, _) = run_scratch(&sim, &golden, &plan, 2, None, "toy").unwrap();

        let err = run_scratch(&sim, &golden, &plan, 2, Some(full.clone()), "other").unwrap_err();
        assert!(err.contains("resume report is for"), "{err}");

        let other_plan =
            ShardPlan::build(site_fault_space(&p, &bec, &golden), CampaignSpec::sampled(1, 10, 4));
        let err = run_scratch(&sim, &golden, &other_plan, 2, Some(full), "toy").unwrap_err();
        assert!(err.contains("disagrees"), "{err}");
    }
}
