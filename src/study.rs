//! The scheduled-variant reliability study pipeline (`bec study`).
//!
//! This is the layer that finally connects the three subsystems the
//! repository grew in PRs 1–4 into one experiment, the empirical
//! counterpart of the paper's Table IV:
//!
//! 1. **Schedule** — each suite benchmark is compiled and handed to
//!    [`bec_sched::Scheduler`], which runs *one* BEC analysis and derives
//!    the baseline plus one scheduled variant per [`bec_sched::Criterion`]
//!    from the shared scores ([`Scheduler::analyses_run`] is recorded in
//!    the report and pinned to 1 by the tests and CI).
//! 2. **Verify** — every variant must be semantically equivalent to the
//!    baseline: same observable outputs (also checked against the suite
//!    oracle), same terminal register file, same terminal memory digest,
//!    same cycle count; RV32-configured programs are additionally encoded
//!    to machine words, lifted back and re-run to prove the schedule
//!    survives machine-code emission. Any mismatch aborts the study — an
//!    inequivalent variant is a scheduler bug, not a study result.
//! 3. **Measure** — each variant is re-analyzed (its own static verdicts
//!    are the campaign provenance), its fault surface is computed, and a
//!    checkpointed differential campaign runs over its classified fault
//!    space ([`bec_sim::study::run_campaign`]). Under the default
//!    adaptive checkpoint policy the baseline's golden run is recorded
//!    once per benchmark as a [`bec_sim::GoldenSubstrate`] and every
//!    scheduled variant's golden inputs are *derived* through its point
//!    permutation instead of re-simulated — a pure wall-clock lever whose
//!    report bytes are pinned identical either way.
//!
//! The resulting [`StudyReport`] is deterministic for a fixed
//! (benchmarks, rules, seed, sample, shards, max-cycles) tuple and
//! resumable per variant: re-running with a partially filled report
//! re-executes only the missing campaign shards. Two gates ride on it:
//!
//! * **soundness** — no statically-masked fault may corrupt any variant's
//!   execution ([`StudyReport::violations`]);
//! * **coverage** — no reliability-improving variant may shrink the
//!   statically-proven masking coverage, i.e. grow the live fault surface
//!   over the baseline ([`StudyReport::coverage_regressions`]; the
//!   deliberately pessimal `worst` bound is exempt).

use bec_core::{BecAnalysis, BecOptions, SiteCounts, SurfaceRow};
use bec_ir::{MachineConfig, Program};
use bec_sched::{Criterion, ScheduledVariant, Scheduler};
use bec_sim::study::{
    plan_campaign, prepare_golden, run_prepared, BenchmarkStudy, CampaignGolden, EquivalenceRecord,
    ScoringRecord, StudyReport, StudySpec, VariantRecord,
};
use bec_sim::{GoldenRun, GoldenSubstrate, SharedGolden, SimLimits, Simulator, SiteVerdicts};
use bec_suite::Benchmark;
use bec_telemetry::{Phase, ProgressEvent, Telemetry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// What to study: which benchmarks, under which rule set, with which
/// campaign spec.
#[derive(Clone, Debug)]
pub struct StudyConfig {
    /// Coalescing rule set.
    pub options: BecOptions,
    /// Name of the rule set, recorded in the report (`paper`, …).
    pub rules: String,
    /// Campaign knobs applied to every variant.
    pub spec: StudySpec,
    /// Suite benchmark names to study, in order. Empty = all eight, in
    /// the paper's Table III column order.
    pub benchmarks: Vec<String>,
}

impl StudyConfig {
    /// The default study: all eight suite benchmarks under the paper rule
    /// set and `spec`.
    pub fn suite(spec: StudySpec) -> StudyConfig {
        StudyConfig {
            options: BecOptions::paper(),
            rules: "paper".into(),
            spec,
            benchmarks: Vec::new(),
        }
    }

    fn benchmark_names(&self) -> Vec<String> {
        if self.benchmarks.is_empty() {
            bec_suite::all().iter().map(|b| b.name.to_owned()).collect()
        } else {
            self.benchmarks.clone()
        }
    }
}

/// Runs the study described by `cfg`, resuming completed variant
/// campaigns from `resume` when given (each campaign is moved out of it).
///
/// The work before each campaign runs as fork-join phases on the
/// `cfg.spec.workers` threads: the calling thread plus at most
/// `workers − 1` scoped helpers, all joined before the next campaign
/// starts (`workers = 1` spawns none). Every benchmark is compiled up
/// front; per benchmark, the golden substrate is recorded while the
/// scheduler scores, and the variants are prepared concurrently. The
/// campaigns themselves run one at a time, in criterion order.
///
/// `progress` receives typed [`ProgressEvent`]s as the pipeline advances:
/// one [`Phase::Schedule`] event per benchmark (variant count, scoring
/// counters) and one [`Phase::Verify`] plus one [`Phase::Campaign`] event
/// per variant (runs, early exits, live surface, wall time, workers). The
/// CLI renders them to stderr lines; by convention only the `wall_ms` and
/// `workers` counters are nondeterministic, so everything else may be
/// echoed into deterministic output. `tel` collects the study's spans and
/// metrics; pass [`Telemetry::disabled`] when not instrumenting.
///
/// # Errors
///
/// Fails on unknown benchmark names, a resume report recorded for a
/// different study spec, any semantic-equivalence failure of a scheduled
/// variant, or a campaign-level error. Errors surface in benchmark and
/// criterion order, after the progress events of everything before them.
pub fn run_study(
    cfg: &StudyConfig,
    mut resume: Option<StudyReport>,
    tel: &Telemetry,
    mut progress: impl FnMut(&ProgressEvent),
) -> Result<StudyReport, String> {
    if let Some(prev) = &resume {
        if !prev.matches(&cfg.rules, &cfg.spec) {
            return Err(
                "resume report was recorded for a different study (rules/seed/sample/shards)"
                    .into(),
            );
        }
    }
    let names = cfg.benchmark_names();
    let _study_span = tel.span("study").arg("benchmarks", names.len());
    tel.gauge("study.benchmarks", names.len() as u64);
    let compiled = fork_join(&names, cfg.spec.workers, |name, tid| {
        let _compile_span = tel.span_on(tid, "compile").arg("benchmark", name);
        let bench = bec_suite::benchmark(name)
            .ok_or_else(|| format!("unknown suite benchmark `{name}`"))?;
        let program =
            bench.compile().map_err(|e| format!("{name}: benchmark failed to compile: {e}"))?;
        Ok::<_, String>((bench, program))
    });
    let mut report = StudyReport::empty(&cfg.rules, &cfg.spec);
    for compiled in compiled {
        let (bench, program) = compiled?;
        report.benchmarks.push(study_benchmark(
            cfg,
            &bench,
            &program,
            resume.as_mut(),
            tel,
            &mut progress,
        )?);
    }
    Ok(report)
}

/// Studies one compiled benchmark: shared-analysis scoring and the
/// substrate recording, concurrent variant preparation, then each
/// variant's plan, campaign and equivalence verdict in criterion order.
fn study_benchmark(
    cfg: &StudyConfig,
    bench: &Benchmark,
    program: &Program,
    mut resume: Option<&mut StudyReport>,
    tel: &Telemetry,
    progress: &mut impl FnMut(&ProgressEvent),
) -> Result<BenchmarkStudy, String> {
    let (name, expected) = (bench.name, &bench.expected[..]);
    let _bench_span = tel.span("benchmark").arg("name", name);
    // The shared golden substrate: record the baseline's aligned-checkpoint
    // golden run once and derive every variant's campaign inputs from it
    // through the schedule permutation. Recording only pays off under the
    // adaptive checkpoint policy (an explicit interval forces per-variant
    // grids), and `--no-golden-reuse` opts out entirely; a benchmark whose
    // baseline fails to record simply falls back to independent goldens.
    let record = cfg.spec.golden_reuse && cfg.spec.checkpoint_interval.is_none();
    let substrate = OnceLock::new();
    let substrate_of = |tid: u32| {
        substrate
            .get_or_init(|| {
                record.then(|| {
                    let _substrate_span = tel.span_on(tid, "substrate").arg("benchmark", name);
                    let limits =
                        SimLimits { max_cycles: cfg.spec.max_cycles.unwrap_or(100_000_000) };
                    GoldenSubstrate::record(program, limits).ok()
                })?
            })
            .as_ref()
    };
    // One BecAnalysis scores every candidate schedule (the shared-analysis
    // refactor this pipeline exists to exercise).
    let scheduler = OnceLock::new();
    let scheduler_of = |tid: u32| {
        scheduler.get_or_init(|| {
            let _schedule_span = tel.span_on(tid, "schedule").arg("benchmark", name);
            Scheduler::new(program, &cfg.options)
        })
    };
    // One fork-join prepares the variants, so a helper that starts late
    // still finds work. The calling thread records the substrate first: it
    // lives through the benchmark's campaigns, and allocated on a helper
    // it would pin memory in that thread's allocator arena, raising the
    // study's peak RSS. A helper scores the schedules meanwhile; whichever
    // thread needs the other's result first computes it or waits for it.
    let prepared = fork_join(&Criterion::ALL, cfg.spec.workers, |&criterion, tid| {
        let (substrate, scheduler) = if tid == 0 {
            let substrate = substrate_of(tid);
            (substrate, scheduler_of(tid))
        } else {
            let scheduler = scheduler_of(tid);
            (substrate_of(tid), scheduler)
        };
        prepare_variant(cfg, bench, scheduler, substrate, criterion, tel, tid)
    });
    let scheduler = scheduler.into_inner().expect("every variant was scheduled");
    let stats = scheduler.analysis().stats();
    let scoring = ScoringRecord {
        analyses: scheduler.analyses_run(),
        points: stats.points,
        solver_visits: stats.solver_visits,
        coalesce_passes: stats.coalesce_passes,
        uf_nodes: stats.uf_nodes,
    };
    drop(scheduler);
    debug_assert_eq!(scoring.analyses, 1, "variant scoring must reuse one analysis");
    tel.add("study.scoring_analyses", scoring.analyses);
    progress(&ProgressEvent {
        benchmark: name.to_owned(),
        variant: String::new(),
        phase: Phase::Schedule,
        counters: vec![
            ("variants", Criterion::ALL.len() as u64),
            ("points", scoring.points),
            ("solver_visits", scoring.solver_visits),
        ],
    });

    let mut variants = Vec::new();
    // The baseline golden run everything is compared against; filled by
    // the first (Original) variant.
    let mut baseline: Option<GoldenRun> = None;
    for prepared in prepared {
        let PreparedVariant { variant, label, verdicts, golden, reencode, counts, surface } =
            prepared?;
        let criterion = variant.criterion;
        let _variant_span =
            tel.span("variant").arg("benchmark", name).arg("criterion", criterion.name());
        let prior =
            resume.as_deref_mut().and_then(|r| r.take_prior_campaign(name, criterion.name()));
        let prep = plan_campaign(&label, &verdicts, &cfg.spec, golden, tel);
        let crun = run_prepared(&label, &variant.program, prep, &cfg.spec, prior, tel)?;

        let equivalence = check_equivalence(expected, baseline.as_ref(), &crun.golden, reencode);
        let baseline_cycles =
            baseline.as_ref().map(GoldenRun::cycles).unwrap_or_else(|| crun.golden.cycles());
        if !equivalence.holds(baseline_cycles) {
            return Err(format!(
                "{name}/{}: scheduled variant is not semantically equivalent to the baseline \
                 ({equivalence:?})",
                criterion.name()
            ));
        }
        progress(&ProgressEvent {
            benchmark: name.to_owned(),
            variant: criterion.name().to_owned(),
            phase: Phase::Verify,
            counters: vec![("cycles", equivalence.cycles)],
        });

        tel.add("study.variants", 1);
        progress(&ProgressEvent {
            benchmark: name.to_owned(),
            variant: criterion.name().to_owned(),
            phase: Phase::Campaign,
            counters: vec![
                ("runs", crun.report.runs()),
                ("early_exits", crun.stats.early_exits),
                ("surface", surface.live_sites),
                ("wall_ms", crun.stats.wall.as_millis() as u64),
                ("workers", crun.stats.workers as u64),
            ],
        });
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
    Ok(BenchmarkStudy { name: name.to_owned(), scoring, variants })
}

/// One variant's campaign inputs and static accounting, computed before
/// any of the benchmark's campaigns runs.
struct PreparedVariant {
    variant: ScheduledVariant,
    label: String,
    verdicts: SiteVerdicts,
    golden: CampaignGolden,
    /// The RV32 re-encode probe (see [`reencode_matches`]).
    reencode: Option<bool>,
    counts: SiteCounts,
    surface: SurfaceRow,
}

/// Prepares one variant on trace timeline `tid`: its schedule under
/// `criterion` and program check, its own analysis and verdicts, its
/// golden run, the re-encode probe and the surface accounting.
fn prepare_variant(
    cfg: &StudyConfig,
    bench: &Benchmark,
    scheduler: &Scheduler<'_>,
    substrate: Option<&GoldenSubstrate>,
    criterion: Criterion,
    tel: &Telemetry,
    tid: u32,
) -> Result<PreparedVariant, String> {
    let (name, expected) = (bench.name, &bench.expected[..]);
    let _prepare_span =
        tel.span_on(tid, "prepare").arg("benchmark", name).arg("criterion", criterion.name());
    let variant = scheduler.schedule(criterion);
    let criterion = criterion.name();
    bec_ir::verify_program(&variant.program)
        .map_err(|e| format!("{name}/{criterion}: scheduler broke the program: {e}"))?;

    // The variant's own analysis: its verdicts are the campaign's static
    // provenance and its surface is the coverage-gate metric. The baseline
    // variant IS the original program, so its analysis is the scheduler's
    // shared one — only real reschedules re-analyze.
    let analysis_span =
        tel.span_on(tid, "analysis").arg("benchmark", name).arg("criterion", criterion);
    let fresh;
    let vbec: &BecAnalysis = if variant.criterion == Criterion::Original {
        scheduler.analysis()
    } else {
        fresh = BecAnalysis::analyze(&variant.program, &cfg.options);
        &fresh
    };
    let verdicts = SiteVerdicts::of(&variant.program, vbec);
    drop(analysis_span);

    let label = format!("study:{name}:{criterion}");
    let shared =
        substrate.map(|s| SharedGolden { substrate: s, permutation: &variant.permutation });
    let golden = prepare_golden(&label, &variant.program, &cfg.spec, shared, tel, tid)?;

    let verify_span = tel.span_on(tid, "verify").arg("benchmark", name).arg("criterion", criterion);
    let reencode = reencode_matches(&variant.program, expected);
    drop(verify_span);

    let surface_span =
        tel.span_on(tid, "surface").arg("benchmark", name).arg("criterion", criterion);
    let counts = vbec.site_counts(&variant.program);
    let surface =
        bec_core::surface::surface_row(name, &variant.program, vbec, &golden.golden.profile);
    drop(surface_span);
    Ok(PreparedVariant { variant, label, verdicts, golden, reencode, counts, surface })
}

/// Runs `job` on every item: on the calling thread (trace timeline 0)
/// and at most `workers − 1` scoped helpers (timelines 1, 2, …), each
/// taking the next unclaimed item. Returns the results in item order;
/// every helper is joined before it returns.
fn fork_join<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    job: impl Fn(&I, u32) -> T + Sync,
) -> Vec<T> {
    let helpers = workers.saturating_sub(1).min(items.len().saturating_sub(1));
    let next = AtomicUsize::new(0);
    let drain = |tid: u32| {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break done };
            done.push((i, job(item, tid)));
        }
    };
    let mut slots: Vec<Option<T>> = items.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (1..=helpers as u32).map(|tid| scope.spawn(move || drain(tid))).collect();
        let mut done = drain(0);
        for h in handles {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        for (i, result) in done {
            slots[i] = Some(result);
        }
    });
    slots.into_iter().map(|s| s.expect("every item prepared")).collect()
}

/// Establishes the semantic-equivalence evidence of one variant golden run
/// against the baseline (and the suite oracle), given the variant's
/// re-encode probe result. `baseline` is `None` for the baseline variant
/// itself, which is compared against the oracle only.
fn check_equivalence(
    expected: &[u64],
    baseline: Option<&GoldenRun>,
    golden: &GoldenRun,
    reencode_outputs_match: Option<bool>,
) -> EquivalenceRecord {
    let outputs_match = golden.outputs() == expected
        && baseline.map(|b| golden.outputs() == b.outputs()).unwrap_or(true);
    EquivalenceRecord {
        cycles: golden.cycles(),
        outputs_match,
        terminal_regs_match: baseline
            .map(|b| golden.terminal_regs() == b.terminal_regs())
            .unwrap_or(true),
        mem_digest_match: baseline.map(|b| golden.mem_digest() == b.mem_digest()).unwrap_or(true),
        reencode_outputs_match,
    }
}

/// Round-trips `program` through the RV32 machine-code layer — encode to
/// words, lift back, re-run — and checks the lifted program still produces
/// `expected`. The flat text image does not carry the data segment, so the
/// original globals are reattached before running (the same contract the
/// `bec-rv32` roundtrip property test uses). `None` strictly means the
/// check does not apply (the machine config has no RV32 encoding, e.g. the
/// 4-bit toy machine); an encode or lift failure on an RV32 program is a
/// mismatch (`Some(false)`), never a silent pass.
fn reencode_matches(program: &Program, expected: &[u64]) -> Option<bool> {
    if program.config != MachineConfig::rv32() {
        return None;
    }
    let Ok(image) = bec_rv32::encode_program(program) else { return Some(false) };
    let Ok(mut lifted) = bec_rv32::lift_image(&image) else { return Some(false) };
    lifted.globals = program.globals.clone();
    // Pseudo expansion may lengthen the lifted trace; a generous fixed
    // budget keeps this a pure correctness probe.
    let sim = Simulator::with_limits(&lifted, SimLimits { max_cycles: 100_000_000 });
    Some(sim.run_outputs().1 == expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_study_end_to_end() {
        let spec = StudySpec { sample: Some(120), shards: 8, ..StudySpec::default() };
        let cfg = StudyConfig { benchmarks: vec!["crc32".into()], ..StudyConfig::suite(spec) };
        let mut events: Vec<ProgressEvent> = Vec::new();
        let report =
            run_study(&cfg, None, &Telemetry::disabled(), |e| events.push(e.clone())).unwrap();
        assert!(report.is_complete());
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert!(report.coverage_regressions().is_empty());
        assert!(report.equivalence_failures().is_empty());
        let b = report.benchmark("crc32").unwrap();
        assert_eq!(b.scoring.analyses, 1, "one shared analysis per benchmark");
        assert_eq!(b.variants.len(), Criterion::ALL.len());
        assert_eq!(b.variants[0].criterion, "original");
        // The fault space is schedule-invariant: every instruction keeps
        // its accesses and execution counts.
        let spaces: Vec<u64> = b.variants.iter().map(|v| v.campaign.fault_space).collect();
        assert!(spaces.windows(2).all(|w| w[0] == w[1]), "{spaces:?}");
        // The RV32 re-encode check ran on every variant.
        assert!(b.variants.iter().all(|v| v.equivalence.reencode_outputs_match == Some(true)));
        // The coverage gate applies to `best` only.
        let gated: Vec<&str> =
            b.variants.iter().filter(|v| v.coverage_gated).map(|v| v.criterion.as_str()).collect();
        assert_eq!(gated, ["best"]);
        // The typed progress stream: one schedule event per benchmark,
        // then verify + campaign per variant, in pipeline order.
        let schedules: Vec<&ProgressEvent> =
            events.iter().filter(|e| e.phase == Phase::Schedule).collect();
        assert_eq!(schedules.len(), 1);
        assert_eq!(schedules[0].benchmark, "crc32");
        assert_eq!(schedules[0].counter("variants"), Some(Criterion::ALL.len() as u64));
        for phase in [Phase::Verify, Phase::Campaign] {
            let per_variant: Vec<&ProgressEvent> =
                events.iter().filter(|e| e.phase == phase).collect();
            assert_eq!(per_variant.len(), Criterion::ALL.len(), "{phase:?}");
        }
        for e in events.iter().filter(|e| e.phase == Phase::Campaign) {
            assert_eq!(e.counter("runs"), Some(120), "{}", e.render());
            assert!(e.counter("early_exits").is_some());
            assert!(e.counter("surface").is_some());
        }
    }

    #[test]
    fn study_telemetry_registers_spans_and_logical_counters() {
        let spec = StudySpec { sample: Some(40), shards: 4, ..StudySpec::default() };
        let cfg = StudyConfig { benchmarks: vec!["crc32".into()], ..StudyConfig::suite(spec) };
        let tel = Telemetry::enabled();
        let report = run_study(&cfg, None, &tel, |_| {}).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.gauge("study.benchmarks"), Some(1));
        assert_eq!(snap.counter("study.variants"), Some(Criterion::ALL.len() as u64));
        assert_eq!(snap.counter("study.scoring_analyses"), Some(1));
        // Golden reuse is on by default: all three variants (including the
        // identity baseline) derive their golden from the shared substrate,
        // and only the two real reschedules pay a (deterministic) replay.
        assert_eq!(snap.counter("study.golden_substrate_hits"), Some(Criterion::ALL.len() as u64));
        assert!(snap.counter("study.golden_replay_cycles").unwrap_or(0) > 0);
        let total_runs: u64 =
            report.benchmarks.iter().flat_map(|b| &b.variants).map(|v| v.campaign.runs()).sum();
        assert_eq!(snap.counter("campaign.runs"), Some(total_runs));
        assert_eq!(snap.histogram("campaign.run_cycles").map(|h| h.count), Some(total_runs));
        let trace = tel.trace_json();
        for span in [
            "\"study\"",
            "\"benchmark\"",
            "\"schedule\"",
            "\"substrate\"",
            "\"variant\"",
            "\"verify\"",
            "\"golden\"",
            "\"campaign\"",
            "\"shard\"",
        ] {
            assert!(trace.contains(span), "trace missing {span}");
        }
    }

    #[test]
    fn resume_reproduces_bytes_and_skips_completed_shards() {
        let spec = StudySpec { sample: Some(60), shards: 6, ..StudySpec::default() };
        let cfg = StudyConfig { benchmarks: vec!["crc32".into()], ..StudyConfig::suite(spec) };
        let full = run_study(&cfg, None, &Telemetry::disabled(), |_| {}).unwrap();
        // Drop some shards of one variant's campaign and resume.
        let mut partial = full.clone();
        partial.benchmarks[0].variants[1].campaign.shards[2] = None;
        partial.benchmarks[0].variants[1].campaign.shards[4] = None;
        let resumed = run_study(&cfg, Some(partial), &Telemetry::disabled(), |_| {}).unwrap();
        assert_eq!(resumed, full);
        assert_eq!(resumed.to_json().render(), full.to_json().render());
        // A mismatched spec is rejected.
        let other = StudyConfig {
            benchmarks: vec!["crc32".into()],
            ..StudyConfig::suite(StudySpec { seed: 1, ..spec })
        };
        assert!(run_study(&other, Some(full), &Telemetry::disabled(), |_| {}).is_err());
    }

    #[test]
    fn unknown_benchmarks_are_rejected() {
        let cfg = StudyConfig {
            benchmarks: vec!["nope".into()],
            ..StudyConfig::suite(StudySpec::default())
        };
        assert!(run_study(&cfg, None, &Telemetry::disabled(), |_| {})
            .unwrap_err()
            .contains("unknown suite benchmark"));
    }

    #[test]
    fn errors_surface_in_benchmark_order() {
        // Every benchmark compiles up front, but a bad name still fails
        // only after the benchmarks before it are studied, and nothing
        // after it runs.
        let spec = StudySpec { sample: Some(8), shards: 2, workers: 2, ..StudySpec::default() };
        let cfg = StudyConfig {
            benchmarks: vec!["crc32".into(), "nope".into(), "rsa".into()],
            ..StudyConfig::suite(spec)
        };
        let mut seen: Vec<String> = Vec::new();
        let err = run_study(&cfg, None, &Telemetry::disabled(), |e| seen.push(e.benchmark.clone()))
            .unwrap_err();
        assert!(err.contains("unknown suite benchmark `nope`"), "{err}");
        assert!(seen.iter().any(|b| b == "crc32"), "{seen:?}");
        assert!(seen.iter().all(|b| b != "rsa"), "{seen:?}");
    }
}
