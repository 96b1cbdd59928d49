//! `bec campaign-worker` — the hidden worker half of `bec campaign
//! --spawn` (and of `bec study --spawn`).
//!
//! A worker re-derives the campaign's prepared inputs from the same
//! deterministic sources as its parent (program file or suite variant,
//! rule set, spec), executes only the shard slice it was handed, writes
//! its partial report as JSON to `--partial-out`, and speaks the spawn
//! protocol on stdout: one `shard <index> <runs>` line per completed
//! shard, one final `done <executed> <early_exits>` line. Stdout carries
//! nothing else — telemetry is disabled so no meter can interleave with
//! the protocol. `--cache-dir` is forwarded so workers share the parent's
//! artifact store instead of re-analyzing.

use super::{input, rule_options, write_report, CliError};
use bec::artifacts::ArtifactStore;
use bec::spawn::run_worker_slice;
use bec_core::BecAnalysis;
use bec_sim::study::{prepare_campaign, StudySpec, DEFAULT_SEED, DEFAULT_SHARDS};
use bec_sim::{Engine, PreparedCampaign, SimLimits, Simulator, SiteVerdicts};
use bec_telemetry::Telemetry;

struct WorkerArgs {
    file: Option<String>,
    suite: Option<String>,
    criterion: Option<String>,
    rules: String,
    cache_dir: Option<String>,
    slice: Vec<usize>,
    partial_out: String,
    spec: StudySpec,
}

fn parse(raw: &[String]) -> Result<WorkerArgs, CliError> {
    let mut a = WorkerArgs {
        file: None,
        suite: None,
        criterion: None,
        rules: "paper".into(),
        cache_dir: None,
        slice: Vec::new(),
        partial_out: String::new(),
        spec: StudySpec {
            seed: DEFAULT_SEED,
            sample: None,
            shards: DEFAULT_SHARDS,
            workers: 1,
            max_cycles: None,
            checkpoint_interval: None,
            engine: Engine::default(),
            golden_reuse: true,
        },
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| CliError::usage(format!("{name} needs a value"))).cloned()
        };
        let parse_u64 = |name: &str, v: String| {
            v.parse::<u64>().map_err(|_| CliError::usage(format!("bad {name} `{v}`")))
        };
        match flag.as_str() {
            "--suite" => a.suite = Some(value("--suite")?),
            "--criterion" => a.criterion = Some(value("--criterion")?),
            "--rules" => a.rules = value("--rules")?,
            "--cache-dir" => a.cache_dir = Some(value("--cache-dir")?),
            "--seed" => a.spec.seed = parse_u64("--seed", value("--seed")?)?,
            "--sample" => a.spec.sample = Some(parse_u64("--sample", value("--sample")?)?),
            "--shards" => a.spec.shards = parse_u64("--shards", value("--shards")?)? as u32,
            "--workers" => {
                a.spec.workers = parse_u64("--workers", value("--workers")?)?.max(1) as usize;
            }
            "--max-cycles" => {
                a.spec.max_cycles = Some(parse_u64("--max-cycles", value("--max-cycles")?)?);
            }
            "--checkpoint-interval" => {
                a.spec.checkpoint_interval =
                    Some(parse_u64("--checkpoint-interval", value("--checkpoint-interval")?)?);
            }
            "--engine" => {
                let v = value("--engine")?;
                a.spec.engine = Engine::parse(&v)
                    .ok_or_else(|| CliError::usage(format!("unknown engine `{v}`")))?;
            }
            "--slice" => {
                let v = value("--slice")?;
                a.slice = v
                    .split(',')
                    .map(|s| {
                        s.parse::<usize>()
                            .map_err(|_| CliError::usage(format!("bad slice entry `{s}`")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--partial-out" => a.partial_out = value("--partial-out")?,
            other if !other.starts_with("--") && a.file.is_none() => {
                a.file = Some(other.to_owned());
            }
            other => return Err(CliError::usage(format!("unknown worker flag `{other}`"))),
        }
    }
    if a.partial_out.is_empty() {
        return Err(CliError::usage("campaign-worker needs --partial-out"));
    }
    Ok(a)
}

/// Re-derives the prepared campaign of one suite study variant, exactly as
/// `bec::study::study_benchmark` does for the parent: compile, schedule
/// with one shared analysis, select the variant by criterion name, analyze
/// it, and prepare. The substrate-derived golden the parent may have used
/// equals the variant's own aligned golden (pinned by
/// `tests/substrate_equivalence.rs`), so probing here re-derives an
/// identical plan.
fn prepare_suite_variant(
    bench: &str,
    criterion: &str,
    rules: &str,
    store: Option<&ArtifactStore>,
    spec: &StudySpec,
    tel: &Telemetry,
) -> Result<(bec_ir::Program, String, PreparedCampaign), CliError> {
    let options = rule_options(rules)?;
    let def = bec_suite::benchmark(bench)
        .ok_or_else(|| CliError::failed(format!("unknown suite benchmark `{bench}`")))?;
    let program = def
        .compile()
        .map_err(|e| CliError::failed(format!("{bench}: benchmark failed to compile: {e}")))?;
    let scheduler = bec_sched::Scheduler::new(&program, &options);
    let variant =
        scheduler.variants().into_iter().find(|v| v.criterion.name() == criterion).ok_or_else(
            || CliError::failed(format!("unknown scheduling criterion `{criterion}`")),
        )?;
    let fresh;
    let vbec: &BecAnalysis = if variant.criterion == bec_sched::Criterion::Original {
        scheduler.analysis()
    } else {
        fresh = BecAnalysis::analyze(&variant.program, &options);
        &fresh
    };
    let label = format!("study:{bench}:{criterion}");
    // In-memory variants have no file to key on; the printed IR is the
    // canonical content.
    let text = bec_ir::print_program(&variant.program);
    let compute_verdicts = || SiteVerdicts::of(&variant.program, vbec);
    let probe_limit = spec.max_cycles.unwrap_or(100_000_000);
    let (verdicts, golden_override) = match store {
        Some(s) => {
            let verdicts = s.verdicts_or(rules, text.as_bytes(), tel, compute_verdicts);
            let golden = match spec.checkpoint_interval {
                None => Some(s.golden_or(text.as_bytes(), probe_limit, tel, || {
                    Simulator::with_limits(&variant.program, SimLimits { max_cycles: probe_limit })
                        .run_golden_aligned()
                })),
                Some(_) => None,
            };
            (verdicts, golden)
        }
        None => (compute_verdicts(), None),
    };
    let prep =
        prepare_campaign(&label, &variant.program, &verdicts, spec, golden_override, None, tel)
            .map_err(CliError::failed)?;
    Ok((variant.program, label, prep))
}

pub fn run(raw: &[String]) -> Result<(), CliError> {
    let a = parse(raw)?;
    // Stdout is the spawn protocol; keep telemetry (and its stderr meter)
    // out of the worker entirely — the parent owns progress rendering.
    let tel = Telemetry::disabled();
    let store = match &a.cache_dir {
        Some(dir) => Some(ArtifactStore::open(dir).map_err(CliError::failed)?),
        None => None,
    };
    let (program, label, prep) = match (&a.file, &a.suite) {
        (Some(file), None) => {
            let program = input::load_program(file)?;
            let options = rule_options(&a.rules)?;
            let prep = super::campaign::prepare_cached(
                file,
                &program,
                &options,
                &a.rules,
                store.as_ref(),
                &a.spec,
                &tel,
            )
            .map_err(CliError::failed)?;
            (program, file.clone(), prep)
        }
        (None, Some(bench)) => {
            let criterion = a
                .criterion
                .as_deref()
                .ok_or_else(|| CliError::usage("--suite needs --criterion"))?;
            prepare_suite_variant(bench, criterion, &a.rules, store.as_ref(), &a.spec, &tel)?
        }
        _ => {
            return Err(CliError::usage(
                "campaign-worker needs an input file or --suite BENCH --criterion CRIT",
            ))
        }
    };
    let (report, stats) =
        run_worker_slice(&program, &prep, &a.spec, &a.slice, &label).map_err(CliError::failed)?;
    write_report(&a.partial_out, || report.render(), &tel)?;
    println!("done {} {}", stats.executed_shards, stats.early_exits);
    Ok(())
}
