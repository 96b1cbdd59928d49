//! The scheduled-variant reliability study engine: checkpointed
//! differential campaigns over a set of program variants, aggregated into
//! one resumable, Table IV-style [`StudyReport`].
//!
//! A *study* runs the campaign oracle (see [`crate::shard`]) once per
//! scheduled variant of each benchmark and records, next to every
//! [`CampaignReport`], the variant's static provenance: its scheduling
//! criterion, the per-point permutation that reproduces the schedule, its
//! static masking coverage, and the semantic-equivalence evidence
//! (outputs, terminal registers, memory digest, cycle count against the
//! baseline golden run). The report answers the paper's Table IV question
//! empirically — how does BEC-guided scheduling shift the masked /
//! corrupting balance? — while simultaneously re-checking the soundness
//! invariant (statically masked ⇒ never corrupting) on every variant.
//!
//! This module is deliberately scheduler-agnostic: variants arrive as
//! plain programs plus metadata strings, so `bec-sim` stays independent of
//! `bec-sched`. The orchestration that produces the variants lives in the
//! root crate (`bec::study`); the driver here owns everything campaign:
//! golden probing, budget derivation, checkpointing, sharded execution,
//! and the report container with its JSON round-trip.
//!
//! ```
//! use bec_sim::study::{run_campaign, StudySpec};
//! use bec_core::{BecAnalysis, BecOptions};
//! use bec_ir::parse_program;
//!
//! let p = parse_program(r#"
//! func @main(args=0, ret=none) {
//! entry:
//!     li t0, 5
//!     addi t0, t0, 1
//!     print t0
//!     exit
//! }
//! "#)?;
//! let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
//! let spec = StudySpec { sample: Some(16), shards: 4, ..StudySpec::default() };
//! let run = run_campaign("toy", &p, &bec, &spec, None).unwrap();
//! assert!(run.report.is_complete());
//! assert_eq!(run.report.runs(), 16);
//! assert!(run.report.violations().is_empty());
//! # Ok::<(), bec_ir::IrError>(())
//! ```

use crate::bitslice::Engine;
use crate::checkpoint::CheckpointLog;
use crate::json::{
    read_document, read_list, read_object, Checked, Json, Members, Sink, Source, Token,
    TreeBuilder, TreeCursor, Writer,
};
use crate::persist::SiteVerdicts;
use crate::pool::{self, PoolStats};
use crate::runner::{GoldenRun, SimLimits, Simulator};
use crate::shard::{CampaignReport, CampaignSpec, ShardPlan, SiteTable};
use crate::substrate::GoldenSubstrate;
use crate::trace::FaultClass;
use bec_core::BecAnalysis;
use bec_ir::Program;
use bec_telemetry::Telemetry;

/// Default sampling seed of studies (same as `bec campaign`).
pub const DEFAULT_SEED: u64 = 0xbec;

/// Default shard count (fixed so report bytes are host-independent).
pub const DEFAULT_SHARDS: u32 = 64;

/// The knobs of a study, applied identically to every variant campaign.
///
/// Only `seed`, `sample` and `shards` shape the report bytes; `workers`
/// and `checkpoint_interval` are pure wall-clock levers, and `max_cycles`
/// defaults to a budget derived per program from its golden trace length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StudySpec {
    /// Seed of the per-variant fault-space sampling.
    pub seed: u64,
    /// `Some(n)`: sample `n` faults per variant; `None`: exhaustive.
    pub sample: Option<u64>,
    /// Shards per variant campaign.
    pub shards: u32,
    /// Worker threads (never influences report bytes).
    pub workers: usize,
    /// Per-run cycle budget; `None` derives `100 × golden + 10k`.
    pub max_cycles: Option<u64>,
    /// Checkpoint spacing; `None` runs the adaptive block-boundary-aligned
    /// policy, 0 runs the from-scratch engine. Never influences report
    /// bytes.
    pub checkpoint_interval: Option<u64>,
    /// Per-fault execution engine. Never influences report bytes.
    pub engine: Engine,
    /// Whether a study may derive variant goldens from the benchmark's
    /// shared [`GoldenSubstrate`] instead of re-recording each one (only
    /// effective with the adaptive checkpoint policy). A pure wall-clock
    /// lever: never influences report bytes.
    pub golden_reuse: bool,
}

impl Default for StudySpec {
    fn default() -> StudySpec {
        StudySpec {
            seed: DEFAULT_SEED,
            sample: None,
            shards: DEFAULT_SHARDS,
            workers: 1,
            max_cycles: None,
            checkpoint_interval: None,
            engine: Engine::default(),
            golden_reuse: true,
        }
    }
}

/// The result of one variant campaign: the report plus the execution
/// context a study wants to keep (golden run for surface accounting, pool
/// stats for the progress line).
pub struct CampaignRun {
    /// The deterministic, resumable campaign report.
    pub report: CampaignReport,
    /// Pool execution metadata (wall time, workers, early exits).
    pub stats: PoolStats,
    /// The checkpoint interval the campaign ran with.
    pub interval: u64,
    /// The golden run of the program under campaign.
    pub golden: GoldenRun,
}

/// Runs one differential campaign over `program`, labelled `label` in the
/// report: golden probe, derived budget, checkpointed engine, sharded
/// pool. This is the per-variant building block of a study and the same
/// flow `bec campaign` runs for a single program.
///
/// # Errors
///
/// Fails when the program does not run to completion, or when `resume`
/// disagrees with the campaign derived from (`label`, `program`, `spec`).
pub fn run_campaign(
    label: &str,
    program: &Program,
    bec: &BecAnalysis,
    spec: &StudySpec,
    resume: Option<CampaignReport>,
) -> Result<CampaignRun, String> {
    run_campaign_with(label, program, bec, spec, resume, &Telemetry::disabled())
}

/// The instrumented form of [`run_campaign`]: identical semantics and
/// identical report bytes, plus a `golden` span around the probe/checkpoint
/// phase, `campaign.checkpoint_interval` / `campaign.budget_cycles` gauges,
/// and everything [`pool::run_sharded_with`] records.
pub fn run_campaign_with(
    label: &str,
    program: &Program,
    bec: &BecAnalysis,
    spec: &StudySpec,
    resume: Option<CampaignReport>,
    tel: &Telemetry,
) -> Result<CampaignRun, String> {
    run_campaign_shared(label, program, bec, spec, resume, None, tel)
}

/// A benchmark's shared golden substrate plus the schedule permutation of
/// the variant under campaign — what [`run_campaign_shared`] needs to
/// derive the variant's golden run and checkpoint log instead of
/// re-simulating them.
#[derive(Clone, Copy)]
pub struct SharedGolden<'a> {
    /// The substrate recorded from the benchmark's baseline variant.
    pub substrate: &'a GoldenSubstrate,
    /// The per-function point permutation of the variant under campaign.
    pub permutation: &'a [Vec<u32>],
}

/// [`run_campaign_with`] plus an optional shared golden substrate: when
/// `shared` is given, the adaptive checkpoint policy is in effect and the
/// variant passes the substrate's static admission check, the golden probe
/// is *derived* through the schedule permutation (a cheap replay) instead
/// of re-simulated — report bytes are identical either way (pinned by
/// `tests/substrate_equivalence.rs`). Derivations count into the
/// `study.golden_substrate_hits` / `study.golden_replay_cycles` telemetry
/// counters.
pub fn run_campaign_shared(
    label: &str,
    program: &Program,
    bec: &BecAnalysis,
    spec: &StudySpec,
    resume: Option<CampaignReport>,
    shared: Option<SharedGolden<'_>>,
    tel: &Telemetry,
) -> Result<CampaignRun, String> {
    let verdicts = SiteVerdicts::of(program, bec);
    let prep = prepare_campaign(label, program, &verdicts, spec, None, shared, tel)?;
    run_prepared(label, program, prep, spec, resume, tel)
}

/// Everything a campaign needs before the sharded pool starts: the golden
/// pair, the derived per-run budget, and the shard plan. This is exactly
/// the phase `bec --cache-dir` persists (its inputs are the analysis
/// verdicts and the golden pair) and the phase a `bec campaign --spawn`
/// parent runs once before shipping plan slices to worker processes.
pub struct PreparedCampaign {
    /// The golden (fault-free) run of the program under campaign.
    pub golden: GoldenRun,
    /// The golden run's checkpoint log.
    pub ckpts: CheckpointLog,
    /// The checkpoint interval in effect (0 = disabled).
    pub interval: u64,
    /// The per-run cycle budget.
    pub budget: u64,
    /// The sharded, possibly sampled fault plan.
    pub plan: ShardPlan,
}

/// The pre-pool phase of [`run_campaign_shared`]: golden probe (or reuse),
/// completion check, budget derivation and shard planning.
///
/// `golden_override` short-circuits the golden probe with a previously
/// recorded pair — the cache layer's warm path. It is only consulted under
/// the adaptive checkpoint policy (`spec.checkpoint_interval == None`),
/// the policy it was recorded under; the caller guarantees the pair
/// belongs to exactly this `program` (the cache keys it by program
/// content). An explicit interval always re-probes, so `--cache-dir` plus
/// `--checkpoint-interval` stays correct, merely uncached.
///
/// # Errors
///
/// Fails when the (possibly reused) golden run did not complete.
#[allow(clippy::too_many_arguments)]
pub fn prepare_campaign(
    label: &str,
    program: &Program,
    verdicts: &SiteVerdicts,
    spec: &StudySpec,
    golden_override: Option<(GoldenRun, CheckpointLog)>,
    shared: Option<SharedGolden<'_>>,
    tel: &Telemetry,
) -> Result<PreparedCampaign, String> {
    let probe = Simulator::with_limits(
        program,
        SimLimits { max_cycles: spec.max_cycles.unwrap_or(100_000_000) },
    );
    let golden_span = tel.span("golden").arg("label", label);
    let (golden, ckpts) = match spec.checkpoint_interval {
        Some(0) => (probe.run_golden(), CheckpointLog::disabled()),
        Some(n) => probe.run_golden_checkpointed(n),
        None => match golden_override {
            Some(pair) => pair,
            None => {
                let derived = shared.and_then(|s| s.substrate.derive(program, s.permutation));
                match derived {
                    Some(d) => {
                        tel.add("study.golden_substrate_hits", 1);
                        tel.add("study.golden_replay_cycles", d.replay_cycles);
                        (d.golden, d.ckpts)
                    }
                    None => probe.run_golden_aligned(),
                }
            }
        },
    };
    let interval = ckpts.interval();
    drop(golden_span);
    if golden.result.outcome != crate::ExecOutcome::Completed {
        return Err(format!(
            "{label}: program did not run to completion: {:?}",
            golden.result.outcome
        ));
    }
    let budget = spec
        .max_cycles
        .unwrap_or_else(|| golden.cycles().saturating_mul(100).saturating_add(10_000));
    tel.gauge("campaign.checkpoint_interval", interval);
    tel.gauge("campaign.budget_cycles", budget);

    let cspec = CampaignSpec { seed: spec.seed, sample: spec.sample, shards: spec.shards };
    let plan_span = tel.span("plan").arg("label", label);
    let plan = SiteTable::new(verdicts, &golden).plan(cspec);
    drop(plan_span.arg("fault_space", plan.fault_space()).arg("runs", plan.runs()));
    Ok(PreparedCampaign { golden, ckpts, interval, budget, plan })
}

/// The pool phase of [`run_campaign_shared`]: executes a prepared
/// campaign's plan in-process on `spec.workers` threads.
///
/// # Errors
///
/// Fails when `resume` disagrees with the prepared campaign.
pub fn run_prepared(
    label: &str,
    program: &Program,
    prep: PreparedCampaign,
    spec: &StudySpec,
    resume: Option<CampaignReport>,
    tel: &Telemetry,
) -> Result<CampaignRun, String> {
    let PreparedCampaign { golden, ckpts, interval, budget, plan } = prep;
    let sim = Simulator::with_limits(program, SimLimits { max_cycles: budget });
    let (report, stats) = pool::run_sharded_engine(
        &sim,
        &golden,
        &ckpts,
        &plan,
        spec.workers,
        resume,
        label,
        spec.engine,
        tel,
    )?;
    Ok(CampaignRun { report, stats, interval, golden })
}

/// The static-verdict × dynamic-outcome cross-table of one campaign: row 0
/// counts faults the analysis claimed masked, row 1 the live ones, columns
/// follow [`FaultClass::ALL`]. Cell `(masked, non-benign)` being zero *is*
/// the soundness invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CrossTable {
    counts: [[u64; 5]; 2],
}

impl CrossTable {
    /// Tabulates every recorded outcome of `report`.
    pub fn of_report(report: &CampaignReport) -> CrossTable {
        let mut t = CrossTable::default();
        for o in report.outcomes() {
            t.counts[usize::from(!o.fault.masked)][o.class.index()] += 1;
        }
        t
    }

    /// Count of one cell.
    pub fn count(&self, masked: bool, class: FaultClass) -> u64 {
        self.counts[usize::from(!masked)][class.index()]
    }

    /// One row, in [`FaultClass::ALL`] order.
    pub fn row(&self, masked: bool) -> [u64; 5] {
        self.counts[usize::from(!masked)]
    }

    /// Total runs of one row.
    pub fn row_total(&self, masked: bool) -> u64 {
        self.row(masked).iter().sum()
    }

    /// Sums another table into this one (suite-level aggregation).
    pub fn merge(&mut self, other: &CrossTable) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            for (a, b) in mine.iter_mut().zip(theirs) {
                *a += b;
            }
        }
    }

    /// Statically-masked runs observed as anything but benign — must be 0.
    pub fn masked_corrupting(&self) -> u64 {
        self.row_total(true) - self.count(true, FaultClass::Benign)
    }

    /// JSON rendering: `{"masked": {...}, "live": {...}}` with one count
    /// per fault class.
    pub fn to_json(&self) -> Json {
        let row = |masked: bool| {
            Json::Obj(
                FaultClass::ALL
                    .iter()
                    .map(|&c| (c.name().to_owned(), Json::UInt(self.count(masked, c))))
                    .collect(),
            )
        };
        Json::obj(vec![("masked", row(true)), ("live", row(false))])
    }
}

/// Semantic-equivalence evidence of one variant against the baseline
/// golden run. Trace hashes are order-sensitive (they absorb executed
/// points), so a legally rescheduled program hashes differently while
/// being semantically identical; equivalence is therefore established on
/// the schedule-invariant fingerprint: observable outputs, terminal
/// register file, terminal memory digest and cycle count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EquivalenceRecord {
    /// The variant golden run's cycle count (must equal the baseline's —
    /// scheduling permutes instructions, it never adds or removes any).
    pub cycles: u64,
    /// Observable outputs byte-equal to the baseline's.
    pub outputs_match: bool,
    /// Terminal register file equal to the baseline's.
    pub terminal_regs_match: bool,
    /// Terminal memory digest equal to the baseline's.
    pub mem_digest_match: bool,
    /// Whether the variant survived machine-code re-encoding: the program
    /// was encoded to RV32 words, lifted back, re-run, and its observable
    /// outputs still match (`None` when the variant's machine config has
    /// no RV32 encoding).
    pub reencode_outputs_match: Option<bool>,
}

impl EquivalenceRecord {
    /// Whether every checked component matched.
    pub fn holds(&self, baseline_cycles: u64) -> bool {
        self.cycles == baseline_cycles
            && self.outputs_match
            && self.terminal_regs_match
            && self.mem_digest_match
            && self.reencode_outputs_match.unwrap_or(true)
    }
}

/// One variant of one benchmark inside a study.
#[derive(Clone, Debug, PartialEq)]
pub struct VariantRecord {
    /// Criterion name (`original` / `best` / `worst`).
    pub criterion: String,
    /// Whether the coverage gate applies to this variant (set by the
    /// orchestrator for reliability-improving criteria; the deliberately
    /// pessimal `worst` bound is exempt).
    pub coverage_gated: bool,
    /// Per-function point permutations reproducing the schedule.
    pub permutation: Vec<Vec<u32>>,
    /// Static site-bit accounting of the variant's own analysis.
    pub total_site_bits: u64,
    /// Site bits the variant's analysis proved masked.
    pub masked_site_bits: u64,
    /// Dynamic fault surface (live site bits weighted over the trace).
    pub live_surface: u64,
    /// Total dynamic fault space (cycles × register-file bits).
    pub total_surface: u64,
    /// Semantic-equivalence evidence vs the baseline.
    pub equivalence: EquivalenceRecord,
    /// The variant's differential campaign.
    pub campaign: CampaignReport,
}

impl VariantRecord {
    /// The statically-proven masking coverage of the dynamic fault space,
    /// in percent.
    pub fn coverage_pct(&self) -> f64 {
        if self.total_surface == 0 {
            return 0.0;
        }
        100.0 * (self.total_surface - self.live_surface) as f64 / self.total_surface as f64
    }

    /// Fraction of campaign runs observed benign, in percent.
    pub fn benign_pct(&self) -> f64 {
        let runs = self.campaign.runs();
        if runs == 0 {
            return 0.0;
        }
        100.0 * self.campaign.outcome_counts()[FaultClass::Benign.index()] as f64 / runs as f64
    }
}

/// Deterministic scoring statistics of the one shared analysis that scored
/// every variant of a benchmark (a subset of [`bec_core::AnalysisStats`]:
/// the worker count and wall time stay out of the report bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScoringRecord {
    /// `BecAnalysis` runs performed for scoring — the study invariant
    /// pins this to exactly 1.
    pub analyses: u64,
    /// Program points of the scoring analysis.
    pub points: u64,
    /// Bit-value solver worklist visits.
    pub solver_visits: u64,
    /// Coalescing fixpoint passes.
    pub coalesce_passes: u64,
    /// Union-find nodes allocated.
    pub uf_nodes: u64,
}

/// One benchmark of a study: the scoring statistics plus one
/// [`VariantRecord`] per criterion (baseline first).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchmarkStudy {
    /// Benchmark name.
    pub name: String,
    /// Shared-analysis scoring statistics.
    pub scoring: ScoringRecord,
    /// Variants, baseline (`original`) first.
    pub variants: Vec<VariantRecord>,
}

impl BenchmarkStudy {
    /// The baseline (`original`) variant.
    pub fn baseline(&self) -> Option<&VariantRecord> {
        self.variants.iter().find(|v| v.criterion == "original")
    }
}

/// A whole study: the deterministic spec header plus one
/// [`BenchmarkStudy`] per benchmark. Streams to the resumable JSON
/// artifact `bec study --report` writes ([`StudyReport::render`]) and back
/// ([`StudyReport::parse`]); bytes depend only on the
/// benchmarks, the rule set and (seed, sample, shards, max-cycles) — never
/// on worker count, checkpoint interval or timing.
#[derive(Clone, Debug, PartialEq)]
pub struct StudyReport {
    /// Coalescing rule set name (`paper` / `extended` / `branches-only`).
    pub rules: String,
    /// Sampling seed.
    pub seed: u64,
    /// Per-variant sample size (`None` = exhaustive).
    pub sample: Option<u64>,
    /// Shards per variant campaign.
    pub shards: u32,
    /// Per-benchmark results.
    pub benchmarks: Vec<BenchmarkStudy>,
}

impl StudyReport {
    /// An empty report carrying the deterministic spec header.
    pub fn empty(rules: impl Into<String>, spec: &StudySpec) -> StudyReport {
        StudyReport {
            rules: rules.into(),
            seed: spec.seed,
            sample: spec.sample,
            shards: spec.shards,
            benchmarks: Vec::new(),
        }
    }

    /// Whether `spec` (and `rules`) describe the same study this report
    /// was recorded for — the resume precondition.
    pub fn matches(&self, rules: &str, spec: &StudySpec) -> bool {
        self.rules == rules
            && self.seed == spec.seed
            && self.sample == spec.sample
            && self.shards == spec.shards
    }

    /// The record of `benchmark`, if present.
    pub fn benchmark(&self, name: &str) -> Option<&BenchmarkStudy> {
        self.benchmarks.iter().find(|b| b.name == name)
    }

    /// Moves the previously recorded campaign for `(benchmark, criterion)`
    /// out of this report — the per-variant resume seed — removing its
    /// variant record.
    pub fn take_prior_campaign(
        &mut self,
        benchmark: &str,
        criterion: &str,
    ) -> Option<CampaignReport> {
        let variants = &mut self.benchmarks.iter_mut().find(|b| b.name == benchmark)?.variants;
        let at = variants.iter().position(|v| v.criterion == criterion)?;
        Some(variants.remove(at).campaign)
    }

    /// Whether every variant campaign of every benchmark is complete.
    pub fn is_complete(&self) -> bool {
        self.benchmarks.iter().all(|b| b.variants.iter().all(|v| v.campaign.is_complete()))
    }

    /// Soundness violations across all variant campaigns, as
    /// `(benchmark, criterion, count)` triples.
    pub fn violations(&self) -> Vec<(String, String, u64)> {
        let mut out = Vec::new();
        for b in &self.benchmarks {
            for v in &b.variants {
                let n = v.campaign.violations().len() as u64;
                if n > 0 {
                    out.push((b.name.clone(), v.criterion.clone(), n));
                }
            }
        }
        out
    }

    /// Coverage-gate failures: gated variants whose statically-proven
    /// masking coverage fell below the baseline's (i.e. the live fault
    /// surface grew), as `(benchmark, criterion)` pairs.
    pub fn coverage_regressions(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for b in &self.benchmarks {
            let Some(base) = b.baseline() else { continue };
            for v in &b.variants {
                if v.coverage_gated && v.live_surface > base.live_surface {
                    out.push((b.name.clone(), v.criterion.clone()));
                }
            }
        }
        out
    }

    /// Variants whose semantic-equivalence evidence does not hold against
    /// their benchmark baseline, as `(benchmark, criterion)` pairs.
    pub fn equivalence_failures(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for b in &self.benchmarks {
            let Some(base) = b.baseline() else { continue };
            for v in &b.variants {
                if !v.equivalence.holds(base.equivalence.cycles) {
                    out.push((b.name.clone(), v.criterion.clone()));
                }
            }
        }
        out
    }

    /// Writes the report to `out` — the one definition of the study
    /// format; each variant's `campaign` member is
    /// [`CampaignReport::encode`]. Benchmarks and variants come in recorded
    /// order, so equal reports encode to identical bytes.
    pub fn encode(&self, out: &mut impl Sink) {
        out.begin_obj();
        out.field_uint("version", 1);
        out.field_str("rules", &self.rules);
        out.field_uint("seed", self.seed);
        if let Some(n) = self.sample {
            out.field_uint("sample", n);
        }
        out.field_uint("shards", u64::from(self.shards));
        out.key("benchmarks");
        out.begin_arr();
        for b in &self.benchmarks {
            encode_benchmark(b, out);
        }
        out.end_arr();
        out.end_obj();
    }

    /// The rendered report, written in one pass into a buffer sized for
    /// it (with room for the newline a report file ends with).
    pub fn render(&self) -> String {
        let hint = self
            .benchmarks
            .iter()
            .flat_map(|b| &b.variants)
            .map(|v| 1024 + v.campaign.rendered_len_hint())
            .sum();
        let mut out = Writer::with_capacity(hint);
        self.encode(&mut out);
        out.finish()
    }

    /// The report as a [`Json`] tree ([`StudyReport::encode`] into a
    /// [`TreeBuilder`]).
    pub fn to_json(&self) -> Json {
        let mut tree = TreeBuilder::default();
        self.encode(&mut tree);
        tree.finish()
    }

    /// Reads a report written by [`StudyReport::encode`] from `src` — the
    /// one definition of the reader, with each variant's campaign read by
    /// [`CampaignReport::decode`]. Members may come in any order; the first
    /// occurrence of a key counts and unknown keys are ignored.
    ///
    /// # Errors
    ///
    /// The outer error is a syntax error of the source; the inner one
    /// names the malformed field (see [`Checked`]).
    pub fn decode<'a>(src: &mut impl Source<'a>) -> Result<Checked<StudyReport>, String> {
        let mut header = Members::new(["version", "rules", "seed", "sample", "shards"]);
        let mut benchmarks = None;
        read_object(src, |src, key| match key {
            "benchmarks" if benchmarks.is_none() => {
                benchmarks = Some(read_list(src, decode_benchmark)?);
                Ok(())
            }
            _ => header.read(src, key),
        })?;
        Ok(study_from_parts(&header, benchmarks))
    }

    /// Parses report text — the streaming reader behind `bec study
    /// --resume`; no [`Json`] tree is built.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error or, for a well-formed document, a
    /// message naming the malformed field.
    pub fn parse(text: &str) -> Result<StudyReport, String> {
        read_document(text, StudyReport::decode)?
    }

    /// Reads a report from a [`Json`] tree ([`StudyReport::decode`] over a
    /// [`TreeCursor`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(doc: &Json) -> Result<StudyReport, String> {
        StudyReport::decode(&mut TreeCursor::new(doc))?
    }
}

/// Checks the members [`StudyReport::decode`] read, in a fixed order:
/// version, benchmarks, rules, seed, sample and shards.
fn study_from_parts(
    header: &Members<'_, 5>,
    benchmarks: Option<Option<Checked<Vec<BenchmarkStudy>>>>,
) -> Checked<StudyReport> {
    let uint = |k: &str| header.uint(k).ok_or_else(|| format!("missing uint field `{k}`"));
    if uint("version")? != 1 {
        return Err("unsupported study report version".into());
    }
    let benchmarks = benchmarks.flatten().ok_or("missing field `benchmarks`")??;
    Ok(StudyReport {
        rules: header
            .get("rules")
            .and_then(Token::as_str)
            .ok_or("missing field `rules`")?
            .to_owned(),
        seed: uint("seed")?,
        sample: match header.get("sample") {
            Some(v) => Some(v.as_u64().ok_or("field `sample` not a uint")?),
            None => None,
        },
        shards: fits_u32("shards", uint("shards")?)?,
        benchmarks,
    })
}

/// `v` as a `u32`, or an error naming `field`.
fn fits_u32(field: &str, v: u64) -> Checked<u32> {
    u32::try_from(v).map_err(|_| format!("field `{field}` holds {v}, above u32::MAX"))
}

const SCORING_FIELDS: [&str; 5] =
    ["analyses", "points", "solver_visits", "coalesce_passes", "uf_nodes"];

fn encode_benchmark(b: &BenchmarkStudy, out: &mut impl Sink) {
    out.begin_obj();
    out.field_str("name", &b.name);
    out.key("scoring");
    out.begin_obj();
    let s = &b.scoring;
    let values = [s.analyses, s.points, s.solver_visits, s.coalesce_passes, s.uf_nodes];
    for (k, v) in SCORING_FIELDS.into_iter().zip(values) {
        out.field_uint(k, v);
    }
    out.end_obj();
    out.key("variants");
    out.begin_arr();
    for v in &b.variants {
        encode_variant(v, out);
    }
    out.end_arr();
    out.end_obj();
}

fn encode_variant(v: &VariantRecord, out: &mut impl Sink) {
    let eq = &v.equivalence;
    out.begin_obj();
    out.field_str("criterion", &v.criterion);
    out.field_bool("coverage_gated", v.coverage_gated);
    out.field_uint("total_site_bits", v.total_site_bits);
    out.field_uint("masked_site_bits", v.masked_site_bits);
    out.field_uint("live_surface", v.live_surface);
    out.field_uint("total_surface", v.total_surface);
    out.key("equivalence");
    out.begin_obj();
    out.field_uint("cycles", eq.cycles);
    out.field_bool("outputs_match", eq.outputs_match);
    out.field_bool("terminal_regs_match", eq.terminal_regs_match);
    out.field_bool("mem_digest_match", eq.mem_digest_match);
    if let Some(m) = eq.reencode_outputs_match {
        out.field_bool("reencode_outputs_match", m);
    }
    out.end_obj();
    out.key("permutation");
    out.begin_arr();
    for f in &v.permutation {
        out.begin_arr();
        for &p in f {
            out.uint(u64::from(p));
        }
        out.end_arr();
    }
    out.end_arr();
    out.key("campaign");
    v.campaign.encode(out);
    out.end_obj();
}

/// Reads one benchmark; checks `scoring` (present), `name`, the scoring
/// fields and `variants`, in that order.
fn decode_benchmark<'a>(src: &mut impl Source<'a>) -> Result<Checked<BenchmarkStudy>, String> {
    let mut name = None;
    let mut scoring = None;
    let mut variants = None;
    read_object(src, |src, key| {
        match key {
            "name" if name.is_none() => name = Some(src.scalar()?),
            "scoring" if scoring.is_none() => {
                let mut fields = Members::new(SCORING_FIELDS);
                read_object(src, |src, key| fields.read(src, key))?;
                scoring = Some(fields);
            }
            "variants" if variants.is_none() => variants = Some(read_list(src, decode_variant)?),
            _ => {
                src.scalar()?;
            }
        }
        Ok(())
    })?;
    Ok(benchmark_from_parts(name, scoring, variants))
}

fn benchmark_from_parts(
    name: Option<Token<'_>>,
    scoring: Option<Members<'_, 5>>,
    variants: Option<Option<Checked<Vec<VariantRecord>>>>,
) -> Checked<BenchmarkStudy> {
    let scoring = scoring.ok_or("benchmark without `scoring`")?;
    let suint = |k: &str| scoring.uint(k).ok_or_else(|| format!("missing scoring field `{k}`"));
    Ok(BenchmarkStudy {
        name: name.as_ref().and_then(Token::as_str).ok_or("benchmark without `name`")?.to_owned(),
        scoring: ScoringRecord {
            analyses: suint("analyses")?,
            points: suint("points")?,
            solver_visits: suint("solver_visits")?,
            coalesce_passes: suint("coalesce_passes")?,
            uf_nodes: suint("uf_nodes")?,
        },
        variants: variants.flatten().ok_or("benchmark without `variants`")??,
    })
}

/// Reads one variant; checks `equivalence` (present), `permutation`,
/// `criterion`, `coverage_gated`, the surface counts, the equivalence
/// fields and `campaign`, in that order.
fn decode_variant<'a>(src: &mut impl Source<'a>) -> Result<Checked<VariantRecord>, String> {
    let mut fields = Members::new([
        "criterion",
        "coverage_gated",
        "total_site_bits",
        "masked_site_bits",
        "live_surface",
        "total_surface",
    ]);
    let mut eq = None;
    let mut permutation = None;
    let mut campaign = None;
    read_object(src, |src, key| match key {
        "equivalence" if eq.is_none() => {
            let mut m = Members::new([
                "cycles",
                "outputs_match",
                "terminal_regs_match",
                "mem_digest_match",
                "reencode_outputs_match",
            ]);
            read_object(src, |src, key| m.read(src, key))?;
            eq = Some(m);
            Ok(())
        }
        "permutation" if permutation.is_none() => {
            permutation = Some(read_list(src, decode_permutation_entry)?);
            Ok(())
        }
        "campaign" if campaign.is_none() => {
            campaign = Some(CampaignReport::decode(src)?);
            Ok(())
        }
        _ => fields.read(src, key),
    })?;
    Ok(variant_from_parts(&fields, eq, permutation, campaign))
}

fn variant_from_parts(
    fields: &Members<'_, 6>,
    eq: Option<Members<'_, 5>>,
    permutation: Option<Option<Checked<Vec<Vec<u32>>>>>,
    campaign: Option<Checked<CampaignReport>>,
) -> Checked<VariantRecord> {
    let uint = |k: &str| fields.uint(k).ok_or_else(|| format!("missing variant field `{k}`"));
    let eq = eq.ok_or("variant without `equivalence`")?;
    let eq_bool = |k: &str| {
        eq.get(k).and_then(Token::as_bool).ok_or_else(|| format!("missing equivalence field `{k}`"))
    };
    let permutation = permutation.flatten().ok_or("variant without `permutation`")??;
    Ok(VariantRecord {
        criterion: fields
            .get("criterion")
            .and_then(Token::as_str)
            .ok_or("variant without `criterion`")?
            .to_owned(),
        coverage_gated: fields
            .get("coverage_gated")
            .and_then(Token::as_bool)
            .ok_or("variant without `coverage_gated`")?,
        permutation,
        total_site_bits: uint("total_site_bits")?,
        masked_site_bits: uint("masked_site_bits")?,
        live_surface: uint("live_surface")?,
        total_surface: uint("total_surface")?,
        equivalence: EquivalenceRecord {
            cycles: eq.uint("cycles").ok_or("missing equivalence field `cycles`")?,
            outputs_match: eq_bool("outputs_match")?,
            terminal_regs_match: eq_bool("terminal_regs_match")?,
            mem_digest_match: eq_bool("mem_digest_match")?,
            reencode_outputs_match: match eq.get("reencode_outputs_match") {
                Some(v) => Some(v.as_bool().ok_or("field `reencode_outputs_match` not a bool")?),
                None => None,
            },
        },
        campaign: campaign.ok_or("variant without `campaign`")??,
    })
}

/// Reads one function's point permutation.
fn decode_permutation_entry<'a>(src: &mut impl Source<'a>) -> Result<Checked<Vec<u32>>, String> {
    let points = read_list(src, |src| {
        Ok(match src.scalar()?.as_u64() {
            Some(p) => fits_u32("permutation", p),
            None => Err("permutation point not a uint".into()),
        })
    })?;
    Ok(points.unwrap_or_else(|| Err("permutation entry not an array".into())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_core::BecOptions;
    use bec_ir::parse_program;

    fn toy() -> Program {
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

    fn toy_campaign(spec: &StudySpec) -> CampaignRun {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        run_campaign("toy", &p, &bec, spec, None).unwrap()
    }

    fn toy_record(criterion: &str, gated: bool, campaign: CampaignReport) -> VariantRecord {
        VariantRecord {
            criterion: criterion.to_owned(),
            coverage_gated: gated,
            permutation: vec![vec![0, 1, 2, 3, 4, 5, 6]],
            total_site_bits: 40,
            masked_site_bits: 12,
            live_surface: 100,
            total_surface: 400,
            equivalence: EquivalenceRecord {
                cycles: 26,
                outputs_match: true,
                terminal_regs_match: true,
                mem_digest_match: true,
                reencode_outputs_match: None,
            },
            campaign,
        }
    }

    #[test]
    fn campaign_driver_matches_interval_and_worker_variations() {
        let base = StudySpec { sample: Some(30), shards: 5, ..StudySpec::default() };
        let a = toy_campaign(&base);
        let b = toy_campaign(&StudySpec { workers: 4, checkpoint_interval: Some(0), ..base });
        let c = toy_campaign(&StudySpec { checkpoint_interval: Some(4), ..base });
        let d = toy_campaign(&StudySpec { engine: Engine::Scalar, ..base });
        assert_eq!(a.report, b.report);
        assert_eq!(a.report, c.report);
        assert_eq!(a.report, d.report);
        assert_eq!(a.report.to_json().render(), b.report.to_json().render());
        assert!(a.report.is_complete());
        assert_eq!(a.report.runs(), 30);
    }

    #[test]
    fn campaign_driver_resumes_partial_reports() {
        let spec = StudySpec { sample: Some(24), shards: 4, ..StudySpec::default() };
        let full = toy_campaign(&spec);
        let mut partial = full.report.clone();
        partial.shards[2] = None;
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let resumed = run_campaign("toy", &p, &bec, &spec, Some(partial)).unwrap();
        assert_eq!(resumed.report, full.report);
        assert_eq!(resumed.stats.resumed_shards, 3);
    }

    #[test]
    fn cross_table_tabulates_provenance_against_outcomes() {
        let run = toy_campaign(&StudySpec { sample: Some(50), shards: 4, ..StudySpec::default() });
        let t = CrossTable::of_report(&run.report);
        assert_eq!(t.row_total(true) + t.row_total(false), 50);
        assert_eq!(t.masked_corrupting(), 0, "soundness invariant");
        let counts = run.report.outcome_counts();
        for c in FaultClass::ALL {
            assert_eq!(t.count(true, c) + t.count(false, c), counts[c.index()]);
        }
        let mut agg = t;
        agg.merge(&t);
        assert_eq!(agg.row_total(true), 2 * t.row_total(true));
    }

    #[test]
    fn study_report_json_roundtrips() {
        let spec = StudySpec { sample: Some(20), shards: 3, ..StudySpec::default() };
        let run = toy_campaign(&spec);
        let mut report = StudyReport::empty("paper", &spec);
        report.benchmarks.push(BenchmarkStudy {
            name: "toy".into(),
            scoring: ScoringRecord {
                analyses: 1,
                points: 7,
                solver_visits: 20,
                coalesce_passes: 2,
                uf_nodes: 100,
            },
            variants: vec![
                toy_record("original", false, run.report.clone()),
                toy_record("best", true, run.report.clone()),
            ],
        });
        assert!(report.is_complete());
        assert!(report.matches("paper", &spec));
        assert!(!report.matches("extended", &spec));
        let text = report.to_json().render();
        let back = StudyReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().render(), text);
        let mut resume = report.clone();
        let prior = resume.take_prior_campaign("toy", "best");
        assert_eq!(prior.map(|c| c.runs()), Some(run.report.runs()));
        assert!(resume.take_prior_campaign("toy", "best").is_none(), "moved out, not copied");
        assert!(resume.take_prior_campaign("toy", "worst").is_none());
        assert!(resume.take_prior_campaign("toy", "original").is_some());
    }

    #[test]
    fn gates_report_regressions_and_equivalence_failures() {
        let spec = StudySpec { sample: Some(10), shards: 2, ..StudySpec::default() };
        let run = toy_campaign(&spec);
        let mut report = StudyReport::empty("paper", &spec);
        let base = toy_record("original", false, run.report.clone());
        let mut good = toy_record("best", true, run.report.clone());
        good.live_surface = 90;
        let mut bad = toy_record("worst", true, run.report.clone());
        bad.live_surface = 150;
        let mut broken = toy_record("broken", false, run.report.clone());
        broken.equivalence.cycles = 99;
        broken.equivalence.outputs_match = false;
        report.benchmarks.push(BenchmarkStudy {
            name: "toy".into(),
            scoring: ScoringRecord {
                analyses: 1,
                points: 7,
                solver_visits: 20,
                coalesce_passes: 2,
                uf_nodes: 100,
            },
            variants: vec![base, good, bad, broken],
        });
        assert_eq!(report.coverage_regressions(), vec![("toy".to_owned(), "worst".to_owned())]);
        assert_eq!(report.equivalence_failures(), vec![("toy".to_owned(), "broken".to_owned())]);
        assert!(report.violations().is_empty());
    }

    /// A one-variant study report, as text.
    fn toy_study_text() -> String {
        let spec = StudySpec { sample: Some(8), shards: 2, ..StudySpec::default() };
        let run = toy_campaign(&spec);
        let mut report = StudyReport::empty("paper", &spec);
        report.benchmarks.push(BenchmarkStudy {
            name: "toy".into(),
            scoring: ScoringRecord {
                analyses: 1,
                points: 7,
                solver_visits: 20,
                coalesce_passes: 2,
                uf_nodes: 100,
            },
            variants: vec![toy_record("original", false, run.report)],
        });
        let text = report.render();
        assert_eq!(StudyReport::parse(&text), Ok(report));
        text
    }

    /// Reads `text` through the streaming and the tree path, which must
    /// agree.
    fn read_both(text: &str) -> Result<StudyReport, String> {
        let streamed = StudyReport::parse(text);
        assert_eq!(StudyReport::from_json(&Json::parse(text).unwrap()), streamed);
        streamed
    }

    #[test]
    fn u32_fields_above_u32_max_are_rejected_by_name() {
        // 4294967360 = 2^32 + 64 once wrapped to 64 and passed `matches`.
        let text = toy_study_text();
        let wide = text.replacen("\"shards\": 2,", "\"shards\": 4294967360,", 1);
        assert_ne!(wide, text);
        let err = read_both(&wide).unwrap_err();
        assert!(err.contains("`shards`") && err.contains("4294967360"), "{err}");

        let at = text.find("\"permutation\"").unwrap();
        let point = |v: &str| format!("{}{}", &text[..at], text[at..].replacen(" 0,", v, 1));
        let wide = point(" 4294967360,");
        assert_ne!(wide, text);
        let err = read_both(&wide).unwrap_err();
        assert!(err.contains("`permutation`") && err.contains("4294967360"), "{err}");

        // u32::MAX itself still fits.
        let edge = point(" 4294967295,");
        let back = read_both(&edge).unwrap();
        assert_eq!(back.benchmarks[0].variants[0].permutation[0][0], u32::MAX);
    }
}
