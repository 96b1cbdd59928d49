//! Scaling measurements of the sharded campaign engine: worker scaling and
//! the from-scratch vs checkpointed vs bitsliced engine comparison.
//!
//! Runs the differential campaign on tiny suite workloads, asserts every
//! report is byte-identical to the single-worker from-scratch scalar bytes
//! (worker count, checkpoint interval, engine and early-exit never leak
//! into the report), and prints wall time, runs/sec and speedups. Each
//! bitsliced row also reports the cost of its forked lanes' scalar tails:
//! tail wall time (`campaign.tail_wall_ms`) per tail cycle, `tail_ns_per_cycle`
//! (a gauge rounded to whole nanoseconds in the JSON baseline), and the
//! cost of its shared batch replay: the rest of the bitsliced wall time per
//! replayed cycle (`campaign.replay_steps`), `replay_ns_per_step` (rounded
//! the same way).
//!
//! ```text
//! cargo run -p bec-bench --release --bin campaign_scaling -- \
//!     [--json BENCH_campaign.json] [--assert-crc32-speedup 3] \
//!     [--assert-crc32-bitsliced-speedup 10]
//! ```
//!
//! `--json` writes a machine-readable baseline in the
//! [`bec_telemetry::MetricsSnapshot`] schema shared with `bec
//! --metrics-out`; `--assert-crc32-speedup X` exits non-zero unless the
//! checkpointed scalar engine beats the from-scratch engine by at least
//! `X`× on the exhaustive crc32 campaign, and
//! `--assert-crc32-bitsliced-speedup X` does the same for the bitsliced
//! engine against the from-scratch scalar engine (the CI perf-smoke
//! gates).

use bec_core::report::{format_table, group_digits};
use bec_core::{BecAnalysis, BecOptions};
use bec_sim::shard::{CampaignSpec, SiteTable};
use bec_sim::{
    default_checkpoint_interval, pool, CheckpointLog, Engine, SimLimits, Simulator, SiteVerdicts,
};
use bec_telemetry::Telemetry;
use std::time::Instant;

struct EngineRow {
    name: &'static str,
    runs: u64,
    interval: u64,
    scratch_ms: f64,
    checkpointed_ms: f64,
    bitsliced_ms: f64,
    early_exits: u64,
    batches: u64,
    batched_lanes: u64,
    forked_lanes: u64,
    handoff_lanes: u64,
    replay_steps: u64,
    tail_cycles: u64,
    tail_ms: f64,
}

impl EngineRow {
    /// Checkpointed scalar vs from-scratch scalar.
    fn ckpt_speedup(&self) -> f64 {
        self.scratch_ms / self.checkpointed_ms
    }
    /// Bitsliced vs from-scratch scalar — the headline engine gain.
    fn bitsliced_speedup(&self) -> f64 {
        self.scratch_ms / self.bitsliced_ms
    }
    /// Mean faults per 64-lane batch (64 = perfectly packed).
    fn lane_occupancy(&self) -> f64 {
        self.batched_lanes as f64 / self.batches.max(1) as f64
    }
    /// Fraction of lanes that forked to a scalar tail on branch
    /// divergence.
    fn fork_rate(&self) -> f64 {
        self.forked_lanes as f64 / self.batched_lanes.max(1) as f64
    }
    /// Scalar tail cost: tail wall time per tail cycle, in nanoseconds.
    fn tail_ns_per_cycle(&self) -> f64 {
        self.tail_ms * 1e6 / self.tail_cycles.max(1) as f64
    }
    /// Batched replay cost: bitsliced wall time outside the tails per
    /// replay step, in nanoseconds.
    fn replay_ns_per_step(&self) -> f64 {
        (self.bitsliced_ms - self.tail_ms) * 1e6 / self.replay_steps.max(1) as f64
    }
}

fn main() {
    let mut json_path = None;
    let mut min_crc32_speedup = None;
    let mut min_crc32_bitsliced = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json_path = Some(args.next().expect("--json needs a path")),
            "--assert-crc32-speedup" => {
                let v = args.next().expect("--assert-crc32-speedup needs a value");
                min_crc32_speedup = Some(v.parse::<f64>().expect("numeric speedup"));
            }
            "--assert-crc32-bitsliced-speedup" => {
                let v = args.next().expect("--assert-crc32-bitsliced-speedup needs a value");
                min_crc32_bitsliced = Some(v.parse::<f64>().expect("numeric speedup"));
            }
            other => panic!("unknown flag `{other}`"),
        }
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("campaign scaling ({cores} cores available)\n");

    let mut worker_rows = Vec::new();
    let mut engine_rows = Vec::new();
    // The Table I tiny workloads, with crc32 at a 32-byte message: the
    // 8-byte tiny variant's 92-cycle trace is all per-run fixed cost, which
    // measures the harness rather than the engine.
    let workloads = vec![
        (bec_suite::bitcount::scaled(2), CampaignSpec::exhaustive(64)),
        (bec_suite::crc32::scaled(8), CampaignSpec::exhaustive(64)),
        (bec_suite::rsa::scaled(3233, 65, 7), CampaignSpec::exhaustive(64)),
        // aes's exhaustive space is ~910k sites — far past a smoke run. A
        // seeded sample keeps the wall time bounded while still exercising
        // the bitsliced engine on its 12.6k-cycle golden trace.
        (bec_suite::aes::benchmark(), CampaignSpec::sampled(0, 10_000, 64)),
        // sha, sampled the same way: the suite program whose forked lanes
        // run the most scalar tail cycles through calls and sub-word
        // memory.
        (bec_suite::sha::benchmark(), CampaignSpec::sampled(0, 10_000, 64)),
    ];
    for (b, campaign_spec) in workloads {
        let program = b.compile().expect("benchmark compiles");
        let bec = BecAnalysis::analyze(&program, &BecOptions::paper());
        let probe = Simulator::new(&program);
        let golden = probe.run_golden();
        // Same per-run budget policy as the differential suite: twice the
        // golden length classifies every non-converging run quickly.
        let budget = golden.cycles() * 2 + 100;
        let sim = Simulator::with_limits(&program, SimLimits { max_cycles: budget });
        let interval = default_checkpoint_interval(golden.cycles());
        let (golden, ckpts) = sim.run_golden_checkpointed(interval);
        let verdicts = SiteVerdicts::of(&program, &bec);
        let plan = SiteTable::new(&verdicts, &golden).plan(campaign_spec);

        // Engine comparison at one worker: from-scratch scalar vs
        // checkpointed scalar vs bitsliced. Each run carries its own
        // telemetry registry; the logical numbers (early exits, lane
        // counters) are read back from the snapshot rather than from
        // ad-hoc stats fields, so the baseline and `--metrics-out` agree
        // by construction.
        let time_engine = |log: &CheckpointLog, engine: Engine| {
            let tel = Telemetry::enabled();
            let started = Instant::now();
            let (report, _stats) =
                pool::run_sharded(&sim, &golden, log, &plan, 1, None, b.name, engine, &tel)
                    .expect("pool runs");
            assert!(report.violations().is_empty(), "{}: soundness violation", b.name);
            (started.elapsed().as_secs_f64(), report.to_json().render(), tel.snapshot())
        };
        let (scratch_wall, baseline, _) = time_engine(&CheckpointLog::disabled(), Engine::Scalar);
        let (ck_wall, ck_bytes, ck_snap) = time_engine(&ckpts, Engine::Scalar);
        let (bs_wall, bs_bytes, bs_snap) = time_engine(&ckpts, Engine::Bitsliced);
        assert_eq!(baseline, ck_bytes, "{}: engines disagree on report bytes", b.name);
        assert_eq!(baseline, bs_bytes, "{}: bitsliced report bytes deviate", b.name);
        let early_exits = ck_snap.counter("campaign.early_exits").unwrap_or(0);
        // Early exits count individual faults on both engines, so the
        // numbers must agree exactly.
        assert_eq!(
            bs_snap.counter("campaign.early_exits").unwrap_or(0),
            early_exits,
            "{}: early-exit counts disagree across engines",
            b.name
        );
        engine_rows.push(EngineRow {
            name: b.name,
            runs: plan.runs() as u64,
            interval,
            scratch_ms: scratch_wall * 1e3,
            checkpointed_ms: ck_wall * 1e3,
            bitsliced_ms: bs_wall * 1e3,
            early_exits,
            batches: bs_snap.counter("campaign.batches").unwrap_or(0),
            batched_lanes: bs_snap.counter("campaign.batched_lanes").unwrap_or(0),
            forked_lanes: bs_snap.counter("campaign.forked_lanes").unwrap_or(0),
            handoff_lanes: bs_snap.counter("campaign.handoff_lanes").unwrap_or(0),
            replay_steps: bs_snap.counter("campaign.replay_steps").unwrap_or(0),
            tail_cycles: bs_snap.counter("campaign.tail_cycles").unwrap_or(0),
            tail_ms: bs_snap.time_ms("campaign.tail_wall_ms").unwrap_or(0.0),
        });

        // Worker scaling of the default (bitsliced, checkpointed) engine.
        let mut serial_wall = 0.0;
        let (engine, tel) = (Engine::default(), Telemetry::disabled());
        for workers in [1usize, 2, 4, 8] {
            let (report, stats) = pool::run_sharded(
                &sim, &golden, &ckpts, &plan, workers, None, b.name, engine, &tel,
            )
            .expect("pool runs");
            assert_eq!(
                report.to_json().render(),
                baseline,
                "{}: report depends on workers",
                b.name
            );
            let wall = stats.wall.as_secs_f64();
            if workers == 1 {
                serial_wall = wall;
            }
            worker_rows.push(vec![
                b.name.to_owned(),
                group_digits(report.runs()),
                workers.to_string(),
                format!("{:.1} ms", wall * 1e3),
                format!("{:.2}x", serial_wall / wall),
            ]);
        }
    }

    print!(
        "{}",
        format_table(&["Benchmark", "FI runs", "Workers", "Wall", "Speedup"], &worker_rows)
    );
    println!("\nengine comparison (1 worker):\n");
    print!(
        "{}",
        format_table(
            &[
                "Benchmark",
                "FI runs",
                "Interval",
                "From-scratch",
                "Checkpointed",
                "Bitsliced",
                "Early exits",
                "Ckpt speedup",
                "Lane speedup",
                "Occupancy",
                "Fork rate",
                "Replay ns/step",
                "Tail ns/cycle"
            ],
            &engine_rows
                .iter()
                .map(|r| vec![
                    r.name.to_owned(),
                    group_digits(r.runs),
                    r.interval.to_string(),
                    format!("{:.1} ms", r.scratch_ms),
                    format!("{:.1} ms", r.checkpointed_ms),
                    format!("{:.1} ms", r.bitsliced_ms),
                    group_digits(r.early_exits),
                    format!("{:.2}x", r.ckpt_speedup()),
                    format!("{:.2}x", r.bitsliced_speedup()),
                    format!("{:.1}/64", r.lane_occupancy()),
                    format!("{:.1} %", r.fork_rate() * 1e2),
                    format!("{:.1}", r.replay_ns_per_step()),
                    format!("{:.1}", r.tail_ns_per_cycle()),
                ])
                .collect::<Vec<_>>(),
        )
    );
    println!(
        "\nall reports byte-identical across engines and worker counts\n(expect ≥2x at 4 workers, ≥3x checkpointed-vs-scratch and ≥10x\nbitsliced-vs-scratch on an idle host)"
    );

    if let Some(path) = json_path {
        // The baseline is a MetricsSnapshot — the `--metrics-out` schema —
        // with one `campaign_scaling.<benchmark>.*` family per workload.
        // Timings are `time_ms` metrics (nondeterministic by nature; this
        // baseline is informational, not byte-gated).
        let base = Telemetry::enabled();
        for r in &engine_rows {
            let prefix = format!("campaign_scaling.{}", r.name);
            let rps = |ms: f64| (r.runs as f64 / (ms / 1e3)) as u64;
            base.gauge(&format!("{prefix}.runs"), r.runs);
            base.gauge(&format!("{prefix}.checkpoint_interval"), r.interval);
            base.gauge(&format!("{prefix}.early_exits"), r.early_exits);
            base.gauge(&format!("{prefix}.from_scratch_runs_per_sec"), rps(r.scratch_ms));
            base.gauge(&format!("{prefix}.checkpointed_runs_per_sec"), rps(r.checkpointed_ms));
            base.gauge(&format!("{prefix}.bitsliced_runs_per_sec"), rps(r.bitsliced_ms));
            base.gauge(&format!("{prefix}.batches"), r.batches);
            base.gauge(&format!("{prefix}.batched_lanes"), r.batched_lanes);
            base.gauge(&format!("{prefix}.forked_lanes"), r.forked_lanes);
            base.gauge(&format!("{prefix}.handoff_lanes"), r.handoff_lanes);
            base.gauge(&format!("{prefix}.replay_steps"), r.replay_steps);
            base.gauge(&format!("{prefix}.tail_cycles"), r.tail_cycles);
            base.gauge(
                &format!("{prefix}.replay_ns_per_step"),
                r.replay_ns_per_step().round() as u64,
            );
            base.gauge(
                &format!("{prefix}.tail_ns_per_cycle"),
                r.tail_ns_per_cycle().round() as u64,
            );
            base.time_ms(&format!("{prefix}.from_scratch_wall_ms"), r.scratch_ms);
            base.time_ms(&format!("{prefix}.checkpointed_wall_ms"), r.checkpointed_ms);
            base.time_ms(&format!("{prefix}.bitsliced_wall_ms"), r.bitsliced_ms);
            base.time_ms(&format!("{prefix}.tail_wall_ms"), r.tail_ms);
        }
        base.write_metrics(&path).expect("baseline written");
        println!("\nwrote {path}");
    }

    let crc32_row = || engine_rows.iter().find(|r| r.name == "crc32").expect("crc32 in tiny suite");
    if let Some(min) = min_crc32_speedup {
        let crc = crc32_row();
        assert!(
            crc.ckpt_speedup() >= min,
            "checkpointed crc32 campaign only {:.2}x faster than from-scratch (need ≥{min}x)",
            crc.ckpt_speedup()
        );
        println!("crc32 speedup gate passed: {:.2}x ≥ {min}x", crc.ckpt_speedup());
    }
    if let Some(min) = min_crc32_bitsliced {
        let crc = crc32_row();
        assert!(
            crc.bitsliced_speedup() >= min,
            "bitsliced crc32 campaign only {:.2}x faster than from-scratch scalar (need ≥{min}x)",
            crc.bitsliced_speedup()
        );
        println!("crc32 bitsliced speedup gate passed: {:.2}x ≥ {min}x", crc.bitsliced_speedup());
    }
}
