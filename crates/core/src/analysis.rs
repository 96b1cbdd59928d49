//! The BEC analysis orchestrator: per-function bit-value analysis plus
//! fault-index coalescing, with the paper's optional rule extensions.
//!
//! Functions are independent analysis units, so the orchestrator can run
//! them on a scoped `std::thread` pool ([`BecAnalysis::analyze_with_workers`]).
//! Workers pull function indices from a shared counter and the results are
//! re-slotted by index, so the analysis — including every
//! [`SiteVerdict`] — is byte-identical at any worker count.

use crate::bitvalue::BitValues;
use crate::coalesce::Coalescing;
use bec_ir::{AccessTable, Cfg, DefUse, Function, Liveness, PointId, PointLayout, Program, Reg};
use bec_telemetry::Telemetry;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Toggles for the coalescing rule set.
///
/// The defaults match the paper: `eval`-equivalence runs on branches and the
/// compare-like operations (`slt`, `sltu`, `seqz`, `snez` — Algorithm 3,
/// line 36), and both extensions beyond the paper are off. The extensions
/// are sound and are measured separately by the ablation benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BecOptions {
    /// Apply `eval`-equivalence to compare-like ops in addition to branches.
    pub eval_compare_ops: bool,
    /// Extension: a flip that provably reproduces the golden outcome of a
    /// branch/compare is masked through that use.
    pub golden_masking: bool,
    /// Extension: `eval`-equivalence across the two operands of a branch
    /// (the paper restricts equivalence to bits of the same operand).
    pub cross_operand_eval: bool,
}

impl Default for BecOptions {
    fn default() -> Self {
        BecOptions { eval_compare_ops: true, golden_masking: false, cross_operand_eval: false }
    }
}

impl BecOptions {
    /// The paper's rule set (same as `default`).
    pub fn paper() -> BecOptions {
        BecOptions::default()
    }

    /// All sound extensions enabled (upper bound for the ablation study).
    pub fn extended() -> BecOptions {
        BecOptions { eval_compare_ops: true, golden_masking: true, cross_operand_eval: true }
    }

    /// Value-level degenerate mode used as an ablation data point: no
    /// eval-equivalence on compare-like ops.
    pub fn branches_only() -> BecOptions {
        BecOptions { eval_compare_ops: false, golden_masking: false, cross_operand_eval: false }
    }
}

/// The static verdict of the BEC analysis for one fault site — the query
/// interface that differential fault-injection validation checks against
/// (`bec_sim`'s campaign engine treats `Masked` as a hard guarantee: a
/// masked site observed corrupting the execution is a soundness violation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SiteVerdict {
    /// The site is in `[s0]`: any flip of this bit in this window provably
    /// leaves the execution trace unchanged.
    Masked,
    /// The site is live; `class` is its function-local equivalence-class
    /// representative (all members of a class produce identical traces at
    /// corresponding occurrences).
    Live {
        /// Union-find representative within the function's node table.
        class: usize,
    },
}

impl SiteVerdict {
    /// Whether the verdict claims the fault can never corrupt the trace.
    pub fn is_masked(self) -> bool {
        matches!(self, SiteVerdict::Masked)
    }
}

/// Analysis results for one function.
#[derive(Clone, Debug)]
pub struct FunctionAnalysis {
    /// The function's name.
    pub name: String,
    /// Point numbering.
    pub layout: PointLayout,
    /// Per-point register accesses, the table the results below were
    /// solved over.
    pub access: AccessTable,
    /// Per-point liveness.
    pub liveness: Liveness,
    /// Def–use chains (`def(p, v)` and `use(p, v)` of §II).
    pub defuse: DefUse,
    /// Global abstract bit values `k(p, v)` (Algorithm 1).
    pub values: BitValues,
    /// Fault-index coalescing result (Algorithms 2–3).
    pub coalescing: Coalescing,
}

/// Deterministic solver statistics of one whole-program analysis, plus the
/// (non-deterministic) wall time. Everything except `wall` is independent
/// of the worker count and of the host, so reports may print the counters
/// into byte-compared output and keep the timing on stderr.
#[derive(Clone, Copy, Debug)]
pub struct AnalysisStats {
    /// Program points analyzed, across all functions.
    pub points: u64,
    /// Bit-value solver worklist pops until the fixpoint.
    pub solver_visits: u64,
    /// Inter-instruction coalescing fixpoint passes, summed over functions.
    pub coalesce_passes: u64,
    /// Union-find nodes allocated (`s0` + sites + arrivals), summed.
    pub uf_nodes: u64,
    /// Workers the analysis ran with.
    pub workers: usize,
    /// Wall-clock time of the whole analysis.
    pub wall: Duration,
}

impl AnalysisStats {
    /// Publishes the statistics onto the shared metric registry: the
    /// deterministic solver counters as `analysis.*` counters, the worker
    /// count as a gauge and the wall time as a (nondeterministic)
    /// `analysis.wall_ms` timing. This is the one source every exporter,
    /// bench bin and CLI report reads solver numbers from.
    pub fn record(&self, tel: &Telemetry) {
        tel.add("analysis.points", self.points);
        tel.add("analysis.solver_visits", self.solver_visits);
        tel.add("analysis.coalesce_passes", self.coalesce_passes);
        tel.add("analysis.uf_nodes", self.uf_nodes);
        tel.gauge("analysis.workers", self.workers as u64);
        tel.time_ms("analysis.wall_ms", self.wall.as_secs_f64() * 1e3);
    }
}

/// Whole-program BEC analysis results.
#[derive(Clone, Debug)]
pub struct BecAnalysis {
    functions: Vec<FunctionAnalysis>,
    options: BecOptions,
    stats: AnalysisStats,
}

fn analyze_function(program: &Program, f: &Function, options: &BecOptions) -> FunctionAnalysis {
    let layout = PointLayout::of(f);
    let cfg = Cfg::of(f);
    let access = AccessTable::of(program, f, &layout);
    let liveness = Liveness::compute_with(f, program, &layout, &cfg, &access);
    let defuse = DefUse::compute_with(f, program, &layout, &cfg, &access);
    let values = BitValues::compute_with(program, f, &layout, &cfg, &access, &defuse);
    let coalescing = Coalescing::compute_with(
        program, f, &layout, &access, &liveness, &defuse, &values, options,
    );
    FunctionAnalysis { name: f.name.clone(), layout, access, liveness, defuse, values, coalescing }
}

impl BecAnalysis {
    /// Analyzes every function of `program` on one worker.
    ///
    /// The program must be a verified machine program
    /// ([`bec_ir::verify_program`]); virtual registers or dangling calls
    /// make the underlying analyses panic.
    pub fn analyze(program: &Program, options: &BecOptions) -> BecAnalysis {
        BecAnalysis::analyze_with_workers(program, options, 1)
    }

    /// [`BecAnalysis::analyze`] on a scoped thread pool of `workers`
    /// threads (0 and 1 both mean sequential). Functions are independent
    /// analysis units distributed over a shared counter; results are
    /// slotted back by function index, so the analysis — classes, verdicts,
    /// statistics — is identical at any worker count.
    pub fn analyze_with_workers(
        program: &Program,
        options: &BecOptions,
        workers: usize,
    ) -> BecAnalysis {
        BecAnalysis::analyze_instrumented(program, options, workers, &Telemetry::disabled())
    }

    /// [`BecAnalysis::analyze_with_workers`] with instrumentation: records
    /// an `analyze` span with one `analyze-fn` child span per function (on
    /// the worker's trace timeline) and publishes [`AnalysisStats`] onto
    /// `tel`'s shared metric registry under the `analysis.*` names. With a
    /// disabled handle this is exactly `analyze_with_workers`.
    pub fn analyze_instrumented(
        program: &Program,
        options: &BecOptions,
        workers: usize,
        tel: &Telemetry,
    ) -> BecAnalysis {
        let started = Instant::now();
        let span = tel.span("analyze").arg("functions", program.functions.len());
        let nf = program.functions.len();
        let workers = workers.max(1).min(nf.max(1));
        let functions: Vec<FunctionAnalysis> = if workers <= 1 {
            program
                .functions
                .iter()
                .map(|f| {
                    let _fn_span = tel.span("analyze-fn").arg("name", &f.name);
                    analyze_function(program, f, options)
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let mut slots: Vec<Option<FunctionAnalysis>> = (0..nf).map(|_| None).collect();
            let (tx, rx) = std::sync::mpsc::channel::<(usize, FunctionAnalysis)>();
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let next = &next;
                    scope.spawn(move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(f) = program.functions.get(i) else { break };
                        let fa = {
                            let _fn_span =
                                tel.span_on(w as u32 + 1, "analyze-fn").arg("name", &f.name);
                            analyze_function(program, f, options)
                        };
                        if tx.send((i, fa)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, fa) in rx {
                    debug_assert!(slots[i].is_none(), "function {i} analyzed twice");
                    slots[i] = Some(fa);
                }
            });
            slots.into_iter().map(|s| s.expect("every function analyzed")).collect()
        };

        let stats = AnalysisStats {
            points: functions.iter().map(|f| f.layout.len() as u64).sum(),
            solver_visits: functions.iter().map(|f| f.values.visits()).sum(),
            coalesce_passes: functions.iter().map(|f| f.coalescing.passes() as u64).sum(),
            uf_nodes: functions.iter().map(|f| f.coalescing.node_count() as u64).sum(),
            workers,
            wall: started.elapsed(),
        };
        stats.record(tel);
        tel.add("analysis.functions", nf as u64);
        drop(span);
        BecAnalysis { functions, options: *options, stats }
    }

    /// Per-function results, in program order.
    pub fn functions(&self) -> &[FunctionAnalysis] {
        &self.functions
    }

    /// Results for the function named `name`.
    pub fn function_by_name(&self, name: &str) -> Option<&FunctionAnalysis> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Results for the `i`-th function.
    pub fn function(&self, i: usize) -> &FunctionAnalysis {
        &self.functions[i]
    }

    /// The options the analysis ran with.
    pub fn options(&self) -> &BecOptions {
        &self.options
    }

    /// Solver statistics of this analysis run.
    pub fn stats(&self) -> &AnalysisStats {
        &self.stats
    }

    /// The static verdict for fault site `(point, reg, bit)` of the `func`-th
    /// function: `Masked` when the coalescing proved the flip harmless,
    /// `Live { class }` otherwise.
    ///
    /// Returns `None` when `func` is out of range or `reg` is not accessed at
    /// `point` (the pair is then not a fault site of the analysis and no
    /// claim is made about it).
    pub fn site_verdict(
        &self,
        func: usize,
        point: PointId,
        reg: Reg,
        bit: u32,
    ) -> Option<SiteVerdict> {
        let fa = self.functions.get(func)?;
        let class = fa.coalescing.class_of(point, reg, bit)?;
        Some(if class == fa.coalescing.s0_class() {
            SiteVerdict::Masked
        } else {
            SiteVerdict::Live { class }
        })
    }

    /// The masked claims of one function, in canonical site order: every
    /// accessed `(point, register)` pair with at least one masked bit,
    /// carrying the mask of bits proven masked (bit `b` set ⇔ the verdict
    /// for bit `b` is `Masked`).
    ///
    /// This is the per-site re-verdict query the fuzzer's minimizer leans
    /// on: after every candidate shrink it re-analyzes the program and
    /// re-enumerates exactly the claims a violation witness must be drawn
    /// from, without materializing a full fault space.
    ///
    /// Returns an empty list when `func` is out of range.
    pub fn masked_sites(&self, program: &Program, func: usize) -> Vec<(PointId, Reg, u64)> {
        let Some(fa) = self.functions.get(func) else { return Vec::new() };
        let xlen = program.config.xlen;
        let mut out = Vec::new();
        for (p, r) in fa.coalescing.nodes().site_pairs() {
            let mut mask = 0u64;
            for bit in 0..xlen {
                let masked =
                    self.site_verdict(func, p, r, bit).expect("enumerated site").is_masked();
                mask |= u64::from(masked) << bit;
            }
            if mask != 0 {
                out.push((p, r, mask));
            }
        }
        out
    }

    /// Total number of equivalence classes across all functions (including
    /// each function's `[s0]`).
    pub fn class_count(&self) -> usize {
        self.functions.iter().map(|f| f.coalescing.class_count()).sum()
    }

    /// Whole-program site-bit accounting: how many fault-site bits the
    /// analysis classified, and how many of them it proved masked. This is
    /// the static masking-coverage figure variant studies compare across
    /// schedules (the site *set* is schedule-invariant — every instruction
    /// keeps its accesses — only the masked subset moves).
    pub fn site_counts(&self, program: &Program) -> SiteCounts {
        let mut counts = SiteCounts { total_site_bits: 0, masked_site_bits: 0 };
        for fa in &self.functions {
            for (p, r) in fa.coalescing.nodes().site_pairs() {
                counts.total_site_bits += u64::from(program.config.xlen);
                let masked = fa.coalescing.masked_bits(p, r).expect("enumerated site");
                counts.masked_site_bits += u64::from(masked.count_ones());
            }
        }
        counts
    }
}

/// Site-bit totals of one analysis (see [`BecAnalysis::site_counts`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SiteCounts {
    /// Fault-site bits classified (accessed `(point, reg)` pairs × xlen).
    pub total_site_bits: u64,
    /// Site bits proven masked (in `[s0]`).
    pub masked_site_bits: u64,
}
