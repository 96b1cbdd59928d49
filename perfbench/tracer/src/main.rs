//! Traced replay of the perfbench workloads.
//!
//! Replays `bec study` and `bec campaign` (optionally resuming a report)
//! through the public functions of each layer, in the order the CLI calls
//! them, and opens one `bec-telemetry` span around every call into a
//! layer. The spans are the benchmark's own: the library calls receive a
//! separate enabled handle, exactly as the CLI passes one, whose records
//! are never exported. At exit the tool writes the Chrome trace of its own
//! spans to `--trace-out` and prints one JSON line on stdout with the
//! deterministic per-layer counts and the facts the benchmark checks.
//!
//! ```text
//! bec-perfbench-tracer study --sample N --seed S --workers W --trace-out T
//! bec-perfbench-tracer campaign FILE --workers W [--sample N --seed S]
//!                      [--resume R --report R2] --trace-out T
//! ```
//!
//! Span names are `<layer>.<call>`; `perfbench/run.py` maps them to the
//! per-layer metrics and computes self times from the trace.

use bec_core::{BecAnalysis, BecOptions};
use bec_ir::{MachineConfig, Program};
use bec_sched::{Criterion, Scheduler};
use bec_sim::json::Json;
use bec_sim::shard::{CampaignReport, CampaignSpec, ShardPlan};
use bec_sim::study::{
    run_prepared, BenchmarkStudy, CampaignRun, EquivalenceRecord, ScoringRecord, StudyReport,
    StudySpec, VariantRecord, DEFAULT_SHARDS,
};
use bec_sim::{
    ExecOutcome, FaultClass, GoldenRun, GoldenSubstrate, PreparedCampaign, SimLimits, Simulator,
    SiteVerdicts,
};
use bec_telemetry::Telemetry;
use std::time::Instant;

/// The golden-probe cycle limit the CLI uses when `--max-cycles` is unset.
const PROBE_LIMIT: u64 = 100_000_000;

/// Deterministic per-layer counts plus the pool's CPU accounting.
#[derive(Default)]
struct Counts {
    analyses: u64,
    solver_visits: u64,
    variants: u64,
    golden_cycles: u64,
    derived: u64,
    fault_space: u64,
    runs: u64,
    batches: u64,
    batched_lanes: u64,
    forked_lanes: u64,
    early_exits: u64,
    resumed_shards: u64,
    workers: u64,
    pool_wall_us: u64,
    pool_cpu_us: u64,
    decode_bytes: u64,
    encode_bytes: u64,
    /// Wall time of the scoring analyses that run inside
    /// `Scheduler::new` (moved from `sched` to `core` by the runner).
    scoring_analysis_us: u64,
}

impl Counts {
    fn count_analysis(&mut self, bec: &BecAnalysis) {
        self.analyses += 1;
        self.solver_visits += bec.stats().solver_visits;
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("core.analyses", Json::UInt(self.analyses)),
            ("core.solver_visits", Json::UInt(self.solver_visits)),
            ("sched.variants", Json::UInt(self.variants)),
            ("sim.golden.golden_cycles", Json::UInt(self.golden_cycles)),
            ("sim.golden.derived", Json::UInt(self.derived)),
            ("sim.shard.fault_space", Json::UInt(self.fault_space)),
            ("sim.pool.runs", Json::UInt(self.runs)),
            ("sim.pool.batches", Json::UInt(self.batches)),
            ("sim.pool.batched_lanes", Json::UInt(self.batched_lanes)),
            ("sim.pool.forked_lanes", Json::UInt(self.forked_lanes)),
            ("sim.pool.early_exits", Json::UInt(self.early_exits)),
            ("sim.pool.resumed_shards", Json::UInt(self.resumed_shards)),
            ("sim.pool.workers", Json::UInt(self.workers)),
            ("sim.pool.wall_us", Json::UInt(self.pool_wall_us)),
            ("sim.pool.cpu_us", Json::UInt(self.pool_cpu_us)),
            ("sim.json.decode_bytes", Json::UInt(self.decode_bytes)),
            ("sim.json.encode_bytes", Json::UInt(self.encode_bytes)),
            ("scoring_analysis_us", Json::UInt(self.scoring_analysis_us)),
        ])
    }
}

/// User plus system CPU microseconds of this process, from
/// `/proc/self/stat` (fields 14 and 15, in USER_HZ = 100 ticks per
/// second); 0 where the file is unavailable.
fn process_cpu_us() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else { return 0 };
    let Some((_, rest)) = stat.rsplit_once(')') else { return 0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) * 10_000
}

struct Replay<'t> {
    /// The benchmark's own spans, exported as the Chrome trace.
    tel: &'t Telemetry,
    /// Handed to library calls, as the CLI hands them its handle.
    sink: Telemetry,
    counts: Counts,
}

impl<'t> Replay<'t> {
    fn new(tel: &'t Telemetry) -> Replay<'t> {
        Replay { tel, sink: Telemetry::enabled(), counts: Counts::default() }
    }

    /// The prepare phase of one campaign, as `bec_sim::study::
    /// prepare_campaign` runs it under the adaptive checkpoint policy,
    /// split into its golden and planning layers.
    fn prepare(
        &mut self,
        label: &str,
        program: &Program,
        verdicts: &SiteVerdicts,
        spec: &StudySpec,
        shared: Option<(&GoldenSubstrate, &[Vec<u32>])>,
    ) -> Result<PreparedCampaign, String> {
        let golden_span = self.tel.span("sim.golden.record");
        let (golden, ckpts) = match shared.and_then(|(s, perm)| s.derive(program, perm)) {
            Some(d) => {
                self.counts.derived += 1;
                (d.golden, d.ckpts)
            }
            None => Simulator::with_limits(program, SimLimits { max_cycles: PROBE_LIMIT })
                .run_golden_aligned(),
        };
        drop(golden_span);
        if golden.result.outcome != ExecOutcome::Completed {
            return Err(format!("{label}: program did not run to completion"));
        }
        self.counts.golden_cycles += golden.cycles();
        let budget = golden.cycles().saturating_mul(100).saturating_add(10_000);

        let plan_span = self.tel.span("sim.shard.plan");
        let cspec = CampaignSpec { seed: spec.seed, sample: spec.sample, shards: spec.shards };
        let plan = ShardPlan::build(verdicts.fault_space(&golden), cspec);
        drop(plan_span);
        self.counts.fault_space += plan.fault_space();
        let interval = ckpts.interval();
        Ok(PreparedCampaign { golden, ckpts, interval, budget, plan })
    }

    /// The pool phase: `run_prepared`, with its statistics and CPU time.
    fn run_pool(
        &mut self,
        label: &str,
        program: &Program,
        prep: PreparedCampaign,
        spec: &StudySpec,
        resume: Option<CampaignReport>,
    ) -> Result<CampaignRun, String> {
        let resumed_runs = resume.as_ref().map_or(0, CampaignReport::runs);
        let cpu = process_cpu_us();
        let started = Instant::now();
        let span = self.tel.span("sim.pool.run");
        let run = run_prepared(label, program, prep, spec, resume, &self.sink)?;
        drop(span);
        self.counts.pool_wall_us += started.elapsed().as_micros() as u64;
        self.counts.pool_cpu_us += process_cpu_us().saturating_sub(cpu);
        let c = &mut self.counts;
        c.runs += run.report.runs() - resumed_runs;
        c.batches += run.stats.batches;
        c.batched_lanes += run.stats.batched_lanes;
        c.forked_lanes += run.stats.forked_lanes;
        c.early_exits += run.stats.early_exits;
        c.resumed_shards += run.stats.resumed_shards as u64;
        c.workers = run.stats.workers as u64;
        Ok(run)
    }

    /// `bec campaign FILE`: parse, analyze, prepare, pool; with `resume`,
    /// decode that report first and encode the result to `report_out`.
    fn campaign(
        &mut self,
        file: &str,
        spec: &StudySpec,
        resume: Option<&str>,
        report_out: Option<&str>,
    ) -> Result<Json, String> {
        let parse_span = self.tel.span("rv32.parse");
        let text =
            std::fs::read_to_string(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
        let program = bec_rv32::parse_asm(&text).map_err(|e| format!("{file}: {e}"))?;
        drop(parse_span);

        let prior = match resume {
            Some(path) => {
                let _span = self.tel.span("sim.json.decode");
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read `{path}`: {e}"))?;
                self.counts.decode_bytes += text.len() as u64;
                let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
                Some(CampaignReport::from_json(&doc).map_err(|e| format!("{path}: {e}"))?)
            }
            None => None,
        };

        let analyze_span = self.tel.span("core.analyze");
        let bec = BecAnalysis::analyze(&program, &BecOptions::paper());
        let verdicts = SiteVerdicts::of(&program, &bec);
        drop(analyze_span);
        self.counts.count_analysis(&bec);

        let prep = self.prepare(file, &program, &verdicts, spec, None)?;
        let run = self.run_pool(file, &program, prep, spec, prior)?;

        if let Some(path) = report_out {
            let _span = self.tel.span("sim.json.encode");
            let bytes = run.report.to_json().render() + "\n";
            self.counts.encode_bytes += bytes.len() as u64;
            std::fs::write(path, bytes).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        }

        let counts = run.report.outcome_counts();
        let outcomes =
            FaultClass::ALL.iter().map(|c| (c.name().to_owned(), Json::UInt(counts[c.index()])));
        Ok(Json::obj(vec![
            ("runs", Json::UInt(run.report.runs())),
            ("fault_space", Json::UInt(run.report.fault_space)),
            ("outcomes", Json::Obj(outcomes.collect())),
            ("masked", Json::UInt(run.report.masked_runs())),
            ("violations", Json::UInt(run.report.violations().len() as u64)),
        ]))
    }

    /// `bec study`: every suite benchmark, scheduled, verified, analyzed
    /// and campaigned per variant, in the order `bec::study` runs them.
    fn study(&mut self, spec: &StudySpec) -> Result<Json, String> {
        let options = BecOptions::paper();
        let mut report = StudyReport::empty("paper", spec);
        let names: Vec<&str> = bec_suite::all().iter().map(|b| b.name).collect();
        for name in names {
            let _bench_span = self.tel.span("benchmark").arg("name", name);
            let compile_span = self.tel.span("lang.compile");
            let bench = bec_suite::benchmark(name).ok_or("suite benchmark vanished")?;
            let program = bench.compile().map_err(|e| format!("{name}: {e}"))?;
            drop(compile_span);

            let schedule_span = self.tel.span("sched.schedule");
            let scheduler = Scheduler::new(&program, &options);
            let scheduled = scheduler.variants();
            drop(schedule_span);
            let stats = scheduler.analysis().stats();
            self.counts.scoring_analysis_us += stats.wall.as_micros() as u64;
            self.counts.count_analysis(scheduler.analysis());
            self.counts.variants += scheduled.len() as u64;
            let scoring = ScoringRecord {
                analyses: scheduler.analyses_run(),
                points: stats.points,
                solver_visits: stats.solver_visits,
                coalesce_passes: stats.coalesce_passes,
                uf_nodes: stats.uf_nodes,
            };

            let substrate_span = self.tel.span("sim.golden.record");
            let substrate =
                GoldenSubstrate::record(&program, SimLimits { max_cycles: PROBE_LIMIT }).ok();
            drop(substrate_span);

            let mut variants = Vec::new();
            let mut baseline: Option<GoldenRun> = None;
            for variant in scheduled {
                let criterion = variant.criterion;
                let _variant_span = self.tel.span("variant").arg("criterion", criterion.name());
                let verify_span = self.tel.span("study.verify");
                bec_ir::verify_program(&variant.program).map_err(|e| format!("{name}: {e}"))?;
                drop(verify_span);

                let analyze_span = self.tel.span("core.analyze");
                let fresh;
                let vbec: &BecAnalysis = if criterion == Criterion::Original {
                    scheduler.analysis()
                } else {
                    fresh = BecAnalysis::analyze(&variant.program, &options);
                    &fresh
                };
                let verdicts = SiteVerdicts::of(&variant.program, vbec);
                drop(analyze_span);
                if criterion != Criterion::Original {
                    self.counts.count_analysis(vbec);
                }

                let label = format!("study:{name}:{}", criterion.name());
                let shared = substrate.as_ref().map(|s| (s, variant.permutation.as_slice()));
                let prep = self.prepare(&label, &variant.program, &verdicts, spec, shared)?;
                let crun = self.run_pool(&label, &variant.program, prep, spec, None)?;

                let verify_span = self.tel.span("study.verify");
                let equivalence = check_equivalence(
                    &bench.expected,
                    baseline.as_ref(),
                    &variant.program,
                    &crun.golden,
                );
                drop(verify_span);

                let surface_span = self.tel.span("core.surface");
                let counts = vbec.site_counts(&variant.program);
                let surface = bec_core::surface::surface_row(
                    name,
                    &variant.program,
                    vbec,
                    &crun.golden.profile,
                );
                drop(surface_span);
                if baseline.is_none() {
                    baseline = Some(crun.golden);
                }
                variants.push(VariantRecord {
                    criterion: criterion.name().to_owned(),
                    coverage_gated: criterion.improves_reliability(),
                    permutation: variant.permutation,
                    total_site_bits: counts.total_site_bits,
                    masked_site_bits: counts.masked_site_bits,
                    live_surface: surface.live_sites,
                    total_surface: surface.total_fault_space,
                    equivalence,
                    campaign: crun.report,
                });
            }
            report.benchmarks.push(BenchmarkStudy { name: name.to_owned(), scoring, variants });
        }

        let runs: Vec<Json> = report
            .benchmarks
            .iter()
            .flat_map(|b| &b.variants)
            .map(|v| Json::UInt(v.campaign.runs()))
            .collect();
        let violations: u64 = report.violations().iter().map(|(_, _, n)| n).sum();
        Ok(Json::obj(vec![
            ("benchmarks", Json::UInt(report.benchmarks.len() as u64)),
            ("runs", Json::Arr(runs)),
            ("violations", Json::UInt(violations)),
            ("coverage_ok", Json::Bool(report.coverage_regressions().is_empty())),
            ("equivalence_ok", Json::Bool(report.equivalence_failures().is_empty())),
        ]))
    }
}

/// The semantic-equivalence evidence `bec study` records for a variant:
/// outputs against the suite oracle and the baseline, terminal state
/// against the baseline, and the RV32 encode → lift → re-run round trip.
fn check_equivalence(
    expected: &[u64],
    baseline: Option<&GoldenRun>,
    program: &Program,
    golden: &GoldenRun,
) -> EquivalenceRecord {
    let outputs_match =
        golden.outputs() == expected && baseline.is_none_or(|b| golden.outputs() == b.outputs());
    EquivalenceRecord {
        cycles: golden.cycles(),
        outputs_match,
        terminal_regs_match: baseline.is_none_or(|b| golden.terminal_regs() == b.terminal_regs()),
        mem_digest_match: baseline.is_none_or(|b| golden.mem_digest() == b.mem_digest()),
        reencode_outputs_match: reencode_matches(program, expected),
    }
}

fn reencode_matches(program: &Program, expected: &[u64]) -> Option<bool> {
    if program.config != MachineConfig::rv32() {
        return None;
    }
    let Ok(image) = bec_rv32::encode_program(program) else { return Some(false) };
    let Ok(mut lifted) = bec_rv32::lift_image(&image) else { return Some(false) };
    lifted.globals = program.globals.clone();
    let sim = Simulator::with_limits(&lifted, SimLimits { max_cycles: PROBE_LIMIT });
    Some(sim.run_golden().outputs() == expected)
}

struct Args {
    command: String,
    file: Option<String>,
    spec: StudySpec,
    resume: Option<String>,
    report: Option<String>,
    trace_out: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or("expected `study` or `campaign`")?.clone();
    let mut args = Args {
        command,
        file: None,
        spec: StudySpec { shards: DEFAULT_SHARDS, ..StudySpec::default() },
        resume: None,
        report: None,
        trace_out: String::new(),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
        match flag.as_str() {
            "--sample" => args.spec.sample = Some(number(value()?)?),
            "--seed" => args.spec.seed = number(value()?)?,
            "--workers" => args.spec.workers = number(value()?)?.max(1) as usize,
            "--resume" => args.resume = Some(value()?),
            "--report" => args.report = Some(value()?),
            "--trace-out" => args.trace_out = value()?,
            f if !f.starts_with("--") && args.file.is_none() => args.file = Some(f.to_owned()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.trace_out.is_empty() {
        return Err("--trace-out is required".into());
    }
    Ok(args)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bec-perfbench-tracer: {e}");
            std::process::exit(2);
        }
    };
    let tel = Telemetry::enabled();
    let mut replay = Replay::new(&tel);
    let root = tel.span("replay").arg("command", &args.command);
    let facts = match (args.command.as_str(), &args.file) {
        ("study", None) => replay.study(&args.spec),
        ("campaign", Some(file)) => {
            replay.campaign(file, &args.spec, args.resume.as_deref(), args.report.as_deref())
        }
        _ => Err("usage: study [flags] | campaign FILE [flags]".to_owned()),
    };
    drop(root);
    let facts = match facts {
        Ok(f) => f,
        Err(e) => {
            eprintln!("bec-perfbench-tracer: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = tel.write_trace(&args.trace_out) {
        eprintln!("bec-perfbench-tracer: cannot write `{}`: {e}", args.trace_out);
        std::process::exit(1);
    }
    let out = Json::obj(vec![("facts", facts), ("counts", replay.counts.to_json())]);
    println!("{}", out.render());
}
