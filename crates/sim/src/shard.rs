//! Campaign sharding: deterministic partitioning of the statically
//! classified fault space into work units, seeded sub-exhaustive sampling
//! (planned from a per-point [`SiteTable`] in O(sites + sample), without
//! collecting the space), and the resumable [`CampaignReport`].
//!
//! The fault space is the paper's `F = P × V` made temporal: every bit of
//! every accessed `(point, register)` pair at every dynamic occurrence of
//! the access. Each fault carries its static provenance — the site it
//! exercises and the BEC verdict for that site — so a campaign doubles as a
//! differential soundness oracle: a statically-masked fault observed as
//! anything but [`FaultClass::Benign`] is a [`CampaignReport::violations`]
//! entry and a hard failure of the analysis.
//!
//! Determinism contract: the report depends only on the program, the
//! [`CampaignSpec`] (seed, sample size, shard count) and the simulator
//! limits — never on worker count, scheduling order or wall-clock. The
//! [`crate::pool`] executor preserves this by aggregating per shard.
//!
//! ```
//! use bec_sim::{site_fault_space, CampaignSpec, ShardPlan, Simulator, SiteTable, SiteVerdicts};
//! use bec_core::{BecAnalysis, BecOptions};
//! use bec_ir::parse_program;
//!
//! let p = parse_program(r#"
//! func @main(args=0, ret=none) {
//! entry:
//!     li t0, 3
//!     addi t0, t0, -1
//!     print t0
//!     exit
//! }
//! "#)?;
//! let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
//! let golden = Simulator::new(&p).run_golden();
//! // Every bit of every accessed (point, register) pair, every occurrence,
//! // each carrying its static verdict (`masked`).
//! let space = site_fault_space(&p, &bec, &golden);
//! assert!(space.iter().any(|f| f.masked) && space.iter().any(|f| !f.masked));
//! // A seeded sample is a reproducible subsequence, split into shards.
//! let plan = ShardPlan::build(space.clone(), CampaignSpec::sampled(7, 10, 2));
//! assert_eq!(plan.runs(), 10);
//! assert_eq!(plan.shard_count(), 2);
//! // The same plan, decoded from the site table without the full list.
//! let verdicts = SiteVerdicts::of(&p, &bec);
//! let table = SiteTable::new(&verdicts, &golden);
//! let decoded = table.plan(CampaignSpec::sampled(7, 10, 2));
//! assert_eq!(table.len(), space.len() as u64);
//! assert!((0..2).all(|i| decoded.shard(i) == plan.shard(i)));
//! # Ok::<(), bec_ir::IrError>(())
//! ```

use crate::json::{
    push_uint, read_document, read_list, read_object, Checked, Json, Members, Sink, Source, Token,
    TreeBuilder, TreeCursor, Writer,
};
use crate::machine::FaultSpec;
use crate::persist::SiteVerdicts;
use crate::runner::GoldenRun;
use crate::trace::FaultClass;
use bec_core::BecAnalysis;
use bec_ir::{PointId, Program, Reg};
use bec_testutil::Rng;

/// One concrete injection drawn from the classified fault space, annotated
/// with its static provenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SitedFault {
    /// The injection: flip `spec.bit` of `spec.reg` before `spec.cycle`.
    pub spec: FaultSpec,
    /// Function index of the access point.
    pub func: u32,
    /// The access point whose window the fault lands in.
    pub point: PointId,
    /// Which dynamic occurrence of `point` opened the window (0-based).
    pub occurrence: u32,
    /// The BEC verdict: `true` when the analysis claims the flip is masked.
    pub masked: bool,
}

/// The outcome of injecting one [`SitedFault`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultOutcome {
    /// The injected fault.
    pub fault: SitedFault,
    /// Observed classification against the golden run.
    pub class: FaultClass,
}

impl FaultOutcome {
    /// Whether this run refutes the static analysis: claimed masked, but the
    /// trace changed.
    pub fn is_violation(&self) -> bool {
        self.fault.masked && self.class != FaultClass::Benign
    }
}

/// Enumerates the full statically-classified fault space of `program`, in
/// canonical order (function, point, occurrence, register, bit).
///
/// Unlike [`crate::campaign::value_level_faults`], dead (statically masked)
/// sites are included — they are exactly the claims a differential campaign
/// must test.
///
/// The order is part of the report format: sampling draws from it, shards
/// are contiguous chunks of it and report rows follow it. Execution order
/// is free — the bitsliced engine sorts each shard by injection cycle to
/// fill its batches — so the report bytes never depend on the engine.
pub fn site_fault_space(
    program: &Program,
    bec: &BecAnalysis,
    golden: &GoldenRun,
) -> Vec<SitedFault> {
    // The extraction and the enumeration are split so the verdict half can
    // be persisted (`bec --cache-dir`) and replayed against a golden run
    // without the analysis.
    SiteVerdicts::of(program, bec).fault_space(golden)
}

/// The classified fault space of one program as a per-point prefix table.
///
/// One entry per executed access point holds the canonical index of the
/// point's first fault, its registers with their masked-bit masks and its
/// occurrence cycles — O(sites) memory, with the occurrence cycles
/// borrowed from the golden run. The table enumerates the space lazily in
/// canonical order ([`SiteTable::iter`]) and decodes any canonical index
/// into its fault ([`SiteTable::fault`]), so a sampled plan
/// ([`SiteTable::plan`]) costs O(sites + sample) instead of the size of
/// the space.
///
/// Within a point, faults are laid out occurrence-major, then register in
/// site order, then bit: the point's block is `occurrences × registers ×
/// xlen` faults long.
pub struct SiteTable<'a> {
    xlen: u32,
    golden: &'a GoldenRun,
    /// Points with at least one occurrence, in canonical order.
    points: Vec<PointSites<'a>>,
    /// Size of the whole fault space.
    len: u64,
}

/// One point of a [`SiteTable`].
struct PointSites<'a> {
    /// Canonical index of the point's first fault.
    first: u64,
    func: u32,
    point: PointId,
    /// Registers in site order, each with the mask of its masked bits.
    regs: &'a [(Reg, u64)],
    /// Golden cycles at which the point executed.
    cycles: &'a [u64],
}

impl PointSites<'_> {
    fn fault(
        &self,
        occurrence: usize,
        cycle: u64,
        (reg, mask): (Reg, u64),
        bit: u32,
    ) -> SitedFault {
        SitedFault {
            spec: FaultSpec { cycle, reg, bit },
            func: self.func,
            point: self.point,
            occurrence: occurrence as u32,
            masked: (mask >> bit) & 1 == 1,
        }
    }
}

impl<'a> SiteTable<'a> {
    /// Builds the table of `verdicts` over `golden`'s occurrence index.
    pub fn new(verdicts: &'a SiteVerdicts, golden: &'a GoldenRun) -> SiteTable<'a> {
        let xlen = verdicts.xlen;
        let mut points = Vec::new();
        let mut len = 0u64;
        for (fi, func_points) in verdicts.funcs.iter().enumerate() {
            for (p, regs) in func_points {
                let cycles = golden.occurrences(fi, *p);
                if cycles.is_empty() || regs.is_empty() {
                    continue;
                }
                points.push(PointSites { first: len, func: fi as u32, point: *p, regs, cycles });
                len += cycles.len() as u64 * regs.len() as u64 * u64::from(xlen);
            }
        }
        SiteTable { xlen, golden, points, len }
    }

    /// Size of the fault space.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the space is empty (no accessed site ever executed).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The whole space in canonical order, one fault at a time.
    pub fn iter(&self) -> impl Iterator<Item = SitedFault> + '_ {
        let (xlen, golden) = (self.xlen, self.golden);
        self.points.iter().flat_map(move |p| {
            p.cycles.iter().enumerate().flat_map(move |(k, &c)| {
                let cycle = golden.window_open_cycle(c);
                p.regs
                    .iter()
                    .flat_map(move |&r| (0..xlen).map(move |bit| p.fault(k, cycle, r, bit)))
            })
        })
    }

    /// The whole space, collected ([`SiteVerdicts::fault_space`]).
    pub fn to_vec(&self) -> Vec<SitedFault> {
        let mut out = Vec::with_capacity(self.len as usize);
        out.extend(self.iter());
        out
    }

    /// The fault at canonical position `index` — `iter().nth(index)` in
    /// O(log points).
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    pub fn fault(&self, index: u64) -> SitedFault {
        assert!(index < self.len, "fault {index} outside a space of {}", self.len);
        let p = &self.points[self.points.partition_point(|p| p.first <= index) - 1];
        let xlen = u64::from(self.xlen);
        let per_occurrence = p.regs.len() as u64 * xlen;
        let offset = index - p.first;
        let k = (offset / per_occurrence) as usize;
        let r = ((offset % per_occurrence) / xlen) as usize;
        let bit = (offset % xlen) as u32;
        p.fault(k, self.golden.window_open_cycle(p.cycles[k]), p.regs[r], bit)
    }

    /// The plan [`ShardPlan::build`] makes from the collected space, built
    /// without collecting it when `spec` samples fewer faults than the
    /// space holds: the sampled indices are drawn, sorted and decoded one
    /// by one. An exhaustive plan enumerates the space.
    pub fn plan(&self, spec: CampaignSpec) -> ShardPlan {
        match spec.sample {
            Some(n) if n < self.len => {
                let faults = sample_positions(spec.seed, self.len as usize, n as usize)
                    .into_iter()
                    .map(|i| self.fault(i as u64))
                    .collect();
                ShardPlan::split(faults, self.len, spec)
            }
            _ => ShardPlan::build(self.to_vec(), spec),
        }
    }
}

/// The canonical positions of a seeded sample of `n` of `len` faults, in
/// canonical (ascending) order. Draws exactly `n` values from the seeded
/// PRNG ([`Rng::sample_indices`]'s contract), which is what keeps report
/// bytes stable across releases for a fixed spec.
fn sample_positions(seed: u64, len: usize, n: usize) -> Vec<usize> {
    let mut idx = Rng::seeded(seed).sample_indices(len, n);
    idx.sort_unstable();
    idx
}

/// The deterministic inputs of a campaign. Two campaigns with equal specs
/// over the same program produce byte-identical reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CampaignSpec {
    /// Seed for the sampling PRNG (ignored for exhaustive campaigns but
    /// still recorded in the report).
    pub seed: u64,
    /// `Some(n)`: run a seeded sample of `n` faults; `None`: exhaustive.
    pub sample: Option<u64>,
    /// Number of shards the fault list is split into. More shards give the
    /// worker pool finer-grained stealing; the report is identical for any
    /// worker count at a fixed shard count.
    pub shards: u32,
}

impl CampaignSpec {
    /// An exhaustive campaign over `shards` shards.
    pub fn exhaustive(shards: u32) -> CampaignSpec {
        CampaignSpec { seed: 0, sample: None, shards }
    }

    /// A seeded sub-exhaustive campaign of `n` faults.
    pub fn sampled(seed: u64, n: u64, shards: u32) -> CampaignSpec {
        CampaignSpec { seed, sample: Some(n), shards }
    }
}

/// A sharded, possibly sampled campaign over a concrete fault list.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    spec: CampaignSpec,
    fault_space: u64,
    faults: Vec<SitedFault>,
    /// Half-open `(start, end)` index ranges into `faults`, one per shard.
    bounds: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Builds the plan: samples `spec.sample` faults without replacement
    /// (seeded sparse Fisher–Yates, then restored to canonical order) and
    /// splits the list into `spec.shards` contiguous chunks.
    ///
    /// [`SiteTable::plan`] builds the same plan without the full list.
    pub fn build(all: Vec<SitedFault>, spec: CampaignSpec) -> ShardPlan {
        let fault_space = all.len() as u64;
        let faults = match spec.sample {
            Some(n) if n < fault_space => sample_positions(spec.seed, all.len(), n as usize)
                .into_iter()
                .map(|i| all[i])
                .collect(),
            _ => all,
        };
        ShardPlan::split(faults, fault_space, spec)
    }

    /// Splits the planned `faults` (drawn from a space of `fault_space`)
    /// into `spec.shards` contiguous chunks whose sizes differ by at most
    /// one.
    fn split(faults: Vec<SitedFault>, fault_space: u64, spec: CampaignSpec) -> ShardPlan {
        let shards = spec.shards.max(1) as usize;
        let per = faults.len() / shards;
        let extra = faults.len() % shards;
        let mut bounds = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let len = per + usize::from(s < extra);
            bounds.push((start, start + len));
            start += len;
        }
        ShardPlan { spec, fault_space, faults, bounds }
    }

    /// The spec the plan was built from.
    pub fn spec(&self) -> CampaignSpec {
        self.spec
    }

    /// Size of the fault space before sampling.
    pub fn fault_space(&self) -> u64 {
        self.fault_space
    }

    /// Number of faults the campaign will run.
    pub fn runs(&self) -> usize {
        self.faults.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.bounds.len()
    }

    /// The faults of shard `i`, in canonical order.
    pub fn shard(&self, i: usize) -> &[SitedFault] {
        let (s, e) = self.bounds[i];
        &self.faults[s..e]
    }
}

/// The aggregated outcomes of one shard — the batched unit workers send
/// back over the result channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardResult {
    /// Shard index within the plan.
    pub shard: u32,
    /// Per-fault outcomes, in the shard's canonical fault order.
    pub outcomes: Vec<FaultOutcome>,
}

/// A resumable campaign report: one slot per shard, `None` while the shard
/// has not completed. Streams to JSON text ([`CampaignReport::render`]) and
/// back ([`CampaignReport::parse`]), or to and from a [`Json`] tree
/// ([`CampaignReport::to_json`], [`CampaignReport::from_json`]); all four
/// share the one format definition, [`CampaignReport::encode`] /
/// [`CampaignReport::decode`]. An interrupted campaign resumes by
/// re-running only the `None` slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CampaignReport {
    /// Label of the program under campaign (the CLI stores the input path;
    /// resuming against a different label is rejected).
    pub program: String,
    /// The deterministic campaign inputs.
    pub spec: CampaignSpec,
    /// The per-run cycle budget the outcomes were classified under (a
    /// different budget moves the hang boundary, so resuming across budgets
    /// is rejected).
    pub max_cycles: u64,
    /// Size of the fault space before sampling.
    pub fault_space: u64,
    /// Per-shard results (`None` = not yet executed).
    pub shards: Vec<Option<ShardResult>>,
}

impl CampaignReport {
    /// An empty (no shard executed) report for `plan`, to be filled by runs
    /// with a `max_cycles` budget.
    pub fn empty(program: impl Into<String>, plan: &ShardPlan, max_cycles: u64) -> CampaignReport {
        CampaignReport {
            program: program.into(),
            spec: plan.spec(),
            max_cycles,
            fault_space: plan.fault_space(),
            shards: vec![None; plan.shard_count()],
        }
    }

    /// Checks that this (possibly partial) report was recorded for exactly
    /// the campaign described by `label`/`plan`/`max_cycles`, so its shards
    /// may be reused by a resume or merged from a spawned worker.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first disagreement: label, spec,
    /// fault-space size, cycle budget, shard count, or a completed shard
    /// whose faults differ from the planned ones.
    pub fn validate_resume(
        &self,
        label: &str,
        plan: &ShardPlan,
        max_cycles: u64,
    ) -> Result<(), String> {
        if self.program != label {
            return Err(format!("resume report is for `{}`, not `{label}`", self.program));
        }
        if self.spec != plan.spec() || self.fault_space != plan.fault_space() {
            return Err("resume report disagrees with the campaign spec".into());
        }
        if self.max_cycles != max_cycles {
            return Err(format!(
                "resume report used a {}-cycle budget, this run uses {max_cycles}",
                self.max_cycles
            ));
        }
        if self.shards.len() != plan.shard_count() {
            return Err("resume report has a different shard count".into());
        }
        // Consistency guard: a resumed shard must contain exactly the
        // planned faults — a stale report silently mixing campaigns would
        // otherwise corrupt the differential verdict.
        for (i, slot) in self.shards.iter().enumerate() {
            if let Some(s) = slot {
                let planned = plan.shard(i);
                if s.outcomes.len() != planned.len()
                    || s.outcomes.iter().zip(planned).any(|(o, f)| o.fault != *f)
                {
                    return Err(format!("resumed shard {i} does not match the plan"));
                }
            }
        }
        Ok(())
    }

    /// Whether every shard has completed.
    pub fn is_complete(&self) -> bool {
        self.shards.iter().all(Option::is_some)
    }

    /// Indices of shards still missing.
    pub fn pending_shards(&self) -> Vec<usize> {
        (0..self.shards.len()).filter(|&i| self.shards[i].is_none()).collect()
    }

    /// Number of runs recorded so far.
    pub fn runs(&self) -> u64 {
        self.shards.iter().flatten().map(|s| s.outcomes.len() as u64).sum()
    }

    /// Outcome counts indexed like [`FaultClass::ALL`].
    pub fn outcome_counts(&self) -> [u64; 5] {
        let mut counts = [0u64; 5];
        for o in self.outcomes() {
            counts[o.class.index()] += 1;
        }
        counts
    }

    /// All recorded outcomes, in shard order.
    pub fn outcomes(&self) -> impl Iterator<Item = &FaultOutcome> {
        self.shards.iter().flatten().flat_map(|s| s.outcomes.iter())
    }

    /// Soundness violations: statically-masked faults whose run was not
    /// benign. An empty list on a complete campaign is the differential
    /// validation verdict the paper's §V claims.
    pub fn violations(&self) -> Vec<&FaultOutcome> {
        self.outcomes().filter(|o| o.is_violation()).collect()
    }

    /// Runs the analysis claimed masked (and therefore prunable).
    pub fn masked_runs(&self) -> u64 {
        self.outcomes().filter(|o| o.fault.masked).count() as u64
    }

    /// Writes the report to `out` — the one definition of the report
    /// format. The encoding is canonical: shards in index order, faults in
    /// shard order, no timing or worker-count data — equal reports encode
    /// to identical bytes.
    pub fn encode(&self, out: &mut impl Sink) {
        out.begin_obj();
        out.field_uint("version", 1);
        out.field_str("salt", bec_cache::VERSION_SALT);
        out.field_str("program", &self.program);
        out.field_uint("seed", self.spec.seed);
        if let Some(n) = self.spec.sample {
            out.field_uint("sample", n);
        }
        out.field_uint("shard_count", u64::from(self.spec.shards));
        out.field_uint("max_cycles", self.max_cycles);
        out.field_uint("fault_space", self.fault_space);
        out.field_bool("complete", self.is_complete());
        out.field_uint("runs", self.runs());
        out.key("outcome_counts");
        out.begin_obj();
        for (c, n) in FaultClass::ALL.iter().zip(self.outcome_counts()) {
            out.field_uint(c.name(), n);
        }
        out.end_obj();
        out.field_uint("violations", self.outcomes().filter(|o| o.is_violation()).count() as u64);
        out.key("shards");
        out.begin_arr();
        for (i, s) in self.shards.iter().enumerate() {
            let Some(s) = s else { continue };
            debug_assert_eq!(i as u32, s.shard);
            out.begin_obj();
            out.field_uint("shard", u64::from(s.shard));
            out.key("outcomes");
            out.begin_arr();
            for o in &s.outcomes {
                out.plain_str(|row| encode_outcome(row, o));
            }
            out.end_arr();
            out.end_obj();
        }
        out.end_arr();
        out.end_obj();
    }

    /// The rendered report, written in one pass into a buffer sized for
    /// it (with room for the newline a report file ends with).
    pub fn render(&self) -> String {
        let mut out = Writer::with_capacity(self.rendered_len_hint());
        self.encode(&mut out);
        out.finish()
    }

    /// A generous estimate of the rendered size.
    pub(crate) fn rendered_len_hint(&self) -> usize {
        1024 + 64 * self.shards.len() + ROW_BYTES_HINT * self.runs() as usize
    }

    /// The report as a [`Json`] tree ([`CampaignReport::encode`] into a
    /// [`TreeBuilder`]): `to_json().render()` equals
    /// [`CampaignReport::render`].
    pub fn to_json(&self) -> Json {
        let mut tree = TreeBuilder::default();
        self.encode(&mut tree);
        tree.finish()
    }

    /// Reads a report written by [`CampaignReport::encode`] from `src` —
    /// the one definition of the reader. Members may come in any order;
    /// the first occurrence of a key counts and unknown keys are ignored.
    /// Outcome rows are decoded straight from the row text into a vector
    /// pre-sized from the shard size the header plans.
    ///
    /// # Errors
    ///
    /// The outer error is a syntax error of the source; the inner one
    /// names the malformed field (see [`Checked`]).
    pub fn decode<'a>(src: &mut impl Source<'a>) -> Result<Checked<CampaignReport>, String> {
        let mut header = Members::new([
            "version",
            "salt",
            "program",
            "seed",
            "sample",
            "shard_count",
            "max_cycles",
            "fault_space",
        ]);
        let mut shards = None;
        read_object(src, |src, key| match key {
            "shards" if shards.is_none() => {
                let rows = planned_shard_len(&header);
                shards = Some(read_list(src, |src| read_shard_entry(src, rows).map(Ok))?);
                Ok(())
            }
            _ => header.read(src, key),
        })?;
        Ok(campaign_from_parts(&header, shards))
    }

    /// Parses report text — the streaming reader behind `--resume` and the
    /// `--spawn` partial merge; no [`Json`] tree is built.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error or, for a well-formed document, a
    /// message naming the malformed field.
    pub fn parse(text: &str) -> Result<CampaignReport, String> {
        read_document(text, CampaignReport::decode)?
    }

    /// Reads a report from a [`Json`] tree ([`CampaignReport::decode`]
    /// over a [`TreeCursor`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the malformed field.
    pub fn from_json(doc: &Json) -> Result<CampaignReport, String> {
        CampaignReport::decode(&mut TreeCursor::new(doc))?
    }
}

/// Bytes per outcome row assumed when sizing a rendered report: the row
/// text, its quotes, separator and the indentation of a study report.
const ROW_BYTES_HINT: usize = 56;

/// The fewest bytes an outcome row takes in report text (`"0:ra:0:0:0:0:m:sdc"`
/// and a separator), which bounds how many rows the rest of a document can
/// hold.
const ROW_MIN_BYTES: usize = 16;

/// One `shards` entry as read, checked once the header is known.
struct ShardEntry {
    /// The `shard` member, if it is an unsigned integer.
    index: Option<u64>,
    outcomes: Checked<Vec<FaultOutcome>>,
}

/// The per-shard row count the report's header plans (0 when the header
/// is incomplete or has not been read yet).
fn planned_shard_len(header: &Members<'_, 8>) -> usize {
    let (Some(space), Some(shards)) = (header.uint("fault_space"), header.uint("shard_count"))
    else {
        return 0;
    };
    let runs = header.uint("sample").map_or(space, |n| n.min(space));
    usize::try_from(runs.div_ceil(shards.max(1))).unwrap_or(0)
}

fn read_shard_entry<'a>(src: &mut impl Source<'a>, planned: usize) -> Result<ShardEntry, String> {
    let mut index = None;
    let mut outcomes = None;
    read_object(src, |src, key| {
        match key {
            "shard" if index.is_none() => index = Some(src.scalar()?.as_u64()),
            "outcomes" if outcomes.is_none() => outcomes = Some(read_rows(src, planned)?),
            _ => {
                src.scalar()?;
            }
        }
        Ok(())
    })?;
    Ok(ShardEntry {
        index: index.flatten(),
        outcomes: outcomes.unwrap_or_else(|| Err("shard entry without outcomes".into())),
    })
}

/// Reads a shard's outcome rows into a vector of `planned` rows (bounded
/// by what the rest of the source can hold); the first malformed row is
/// the error and later rows are only skipped.
fn read_rows<'a>(
    src: &mut impl Source<'a>,
    planned: usize,
) -> Result<Checked<Vec<FaultOutcome>>, String> {
    if !src.enter_array()? {
        return Ok(Err("shard entry without outcomes".into()));
    }
    let mut rows = Ok(Vec::with_capacity(planned.min(src.items_hint(ROW_MIN_BYTES))));
    while src.item()? {
        let token = src.scalar()?;
        let Ok(list) = &mut rows else { continue };
        match token.as_str() {
            Some(row) => match decode_row(row) {
                Some(o) => list.push(o),
                None => rows = Err(format!("malformed outcome row `{row}`")),
            },
            None => rows = Err("outcome row not a string".into()),
        }
    }
    Ok(rows)
}

/// Checks the members [`CampaignReport::decode`] read, in a fixed order:
/// version, salt, program, shard count, seed, sample, shards, budget and
/// fault-space size. `shards` is `None` when the member is missing and
/// `Some(None)` when it is not an array.
fn campaign_from_parts(
    header: &Members<'_, 8>,
    shards: Option<Option<Checked<Vec<ShardEntry>>>>,
) -> Checked<CampaignReport> {
    let field = |k: &str| header.get(k).ok_or_else(|| format!("missing field `{k}`"));
    let uint = |k: &str| field(k)?.as_u64().ok_or_else(|| format!("field `{k}` not a uint"));
    if uint("version")? != 1 {
        return Err("unsupported report version".into());
    }
    // A report is only resumable/mergeable by a binary with the same
    // artifact salt: outcomes classified by a different analysis or
    // engine generation must be recomputed, not trusted.
    let salt = header.get("salt").and_then(Token::as_str).unwrap_or("<none>");
    if salt != bec_cache::VERSION_SALT {
        return Err(format!(
            "report version salt `{salt}` does not match this binary's `{}`; \
             rerun the campaign instead of resuming",
            bec_cache::VERSION_SALT
        ));
    }
    let program = field("program")?.as_str().ok_or("field `program` not a string")?.to_owned();
    let shard_count = uint("shard_count")?;
    // Bound the allocation below before trusting the field: a corrupted
    // file must fail with a clean error, not an abort on a huge `vec!`.
    const MAX_SHARDS: u64 = 1 << 20;
    if shard_count == 0 || shard_count > MAX_SHARDS {
        return Err(format!("implausible shard_count {shard_count}"));
    }
    let spec = CampaignSpec {
        seed: uint("seed")?,
        sample: match header.get("sample") {
            Some(v) => Some(v.as_u64().ok_or("field `sample` not a uint")?),
            None => None,
        },
        shards: shard_count as u32,
    };
    let entries = shards.ok_or("missing field `shards`")?.ok_or("field `shards` not an array")?;
    let mut shards: Vec<Option<ShardResult>> = vec![None; spec.shards as usize];
    for entry in entries? {
        let idx = entry.index.ok_or("shard entry without index")? as usize;
        let slot = shards.get_mut(idx).ok_or_else(|| format!("shard {idx} out of range"))?;
        *slot = Some(ShardResult { shard: idx as u32, outcomes: entry.outcomes? });
    }
    Ok(CampaignReport {
        program,
        spec,
        max_cycles: uint("max_cycles")?,
        fault_space: uint("fault_space")?,
        shards,
    })
}

/// Appends the compact row encoding of one outcome:
/// `cycle:reg:bit:func:point:occurrence:verdict:class` where `reg` is the
/// register's ABI name and `verdict` is `m` (statically masked) or `l`
/// (live).
fn encode_outcome(out: &mut String, o: &FaultOutcome) {
    let f = &o.fault;
    push_uint(out, f.spec.cycle);
    out.push(':');
    match f.spec.reg.abi_str() {
        Some(name) => out.push_str(name),
        None => {
            out.push(if f.spec.reg.is_virtual() { 'v' } else { 'r' });
            push_uint(out, u64::from(f.spec.reg.index()));
        }
    }
    for v in [f.spec.bit, f.func, f.point.0, f.occurrence] {
        out.push(':');
        push_uint(out, u64::from(v));
    }
    out.push_str(if f.masked { ":m:" } else { ":l:" });
    out.push_str(o.class.name());
}

/// One left-to-right pass over an outcome row's bytes. Numbers follow
/// Rust's unsigned-integer grammar (an optional `+`, then digits); the
/// class is the rest of the row, so a ninth field makes it unknown.
fn decode_row(row: &str) -> Option<FaultOutcome> {
    let bytes = row.as_bytes();
    let mut at = 0;
    let cycle = uint_field(bytes, &mut at)?;
    let reg_end = at + bytes[at..].iter().position(|&b| b == b':')?;
    let reg = Reg::parse(&row[at..reg_end])?;
    at = reg_end + 1;
    let mut small = || u32::try_from(uint_field(bytes, &mut at)?).ok();
    let (bit, func, point, occurrence) = (small()?, small()?, small()?, small()?);
    let masked = match bytes.get(at..at + 2)? {
        [b'm', b':'] => true,
        [b'l', b':'] => false,
        _ => return None,
    };
    let class = FaultClass::parse(&row[at + 2..])?;
    Some(FaultOutcome {
        fault: SitedFault {
            spec: FaultSpec { cycle, reg, bit },
            func,
            point: PointId(point),
            occurrence,
            masked,
        },
        class,
    })
}

/// Reads the decimal field at `bytes[*at..]` and the `:` that ends it,
/// moving `at` past both.
fn uint_field(bytes: &[u8], at: &mut usize) -> Option<u64> {
    let mut i = *at + usize::from(bytes.get(*at) == Some(&b'+'));
    let digits = i;
    let mut value = 0u64;
    while let Some(digit) = bytes.get(i).map(|b| b.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
        i += 1;
    }
    if i == digits || bytes.get(i) != Some(&b':') {
        return None;
    }
    *at = i + 1;
    Some(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Simulator;
    use bec_core::{BecAnalysis, BecOptions};
    use bec_ir::parse_program;

    fn toy() -> Program {
        parse_program(
            r#"
machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r0, 0
    li r1, 7
    j loop
loop:
    andi r2, r1, 1
    andi r3, r1, 3
    addi r1, r1, -1
    seqz r2, r2
    snez r3, r3
    and  r2, r2, r3
    add  r0, r0, r2
    bnez r1, loop
exit:
    ret r0
}
"#,
        )
        .unwrap()
    }

    fn toy_space() -> (Program, Vec<SitedFault>) {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let space = site_fault_space(&p, &bec, &golden);
        (p, space)
    }

    #[test]
    fn fault_space_covers_live_and_masked_sites() {
        let (_, space) = toy_space();
        // The motivating example has 288 value-live runs; the classified
        // space additionally contains every dead/masked site occurrence.
        assert!(space.len() > 288, "{}", space.len());
        assert!(space.iter().any(|f| f.masked));
        assert!(space.iter().any(|f| !f.masked));
        // Canonical order is strictly increasing on the provenance key.
        let key = |f: &SitedFault| (f.func, f.point.0, f.occurrence, f.spec.reg, f.spec.bit);
        assert!(space.windows(2).all(|w| key(&w[0]) < key(&w[1])));
    }

    #[test]
    fn site_table_decodes_every_canonical_index() {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let golden = Simulator::new(&p).run_golden();
        let verdicts = SiteVerdicts::of(&p, &bec);
        let table = SiteTable::new(&verdicts, &golden);
        let space = site_fault_space(&p, &bec, &golden);
        assert_eq!(table.len(), space.len() as u64);
        assert_eq!(table.iter().collect::<Vec<_>>(), space);
        for (i, f) in space.iter().enumerate() {
            assert_eq!(table.fault(i as u64), *f, "canonical index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "outside a space")]
    fn site_table_rejects_indices_past_the_space() {
        let (p, space) = toy_space();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let golden = Simulator::new(&p).run_golden();
        let verdicts = SiteVerdicts::of(&p, &bec);
        SiteTable::new(&verdicts, &golden).fault(space.len() as u64);
    }

    #[test]
    fn sharding_partitions_without_loss() {
        let (_, space) = toy_space();
        let n = space.len();
        let plan = ShardPlan::build(space.clone(), CampaignSpec::exhaustive(7));
        assert_eq!(plan.shard_count(), 7);
        assert_eq!(plan.runs(), n);
        let glued: Vec<SitedFault> =
            (0..plan.shard_count()).flat_map(|i| plan.shard(i).to_vec()).collect();
        assert_eq!(glued, space);
        // Shard sizes differ by at most one.
        let sizes: Vec<usize> = (0..7).map(|i| plan.shard(i).len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn sampling_is_seeded_and_order_preserving() {
        let (_, space) = toy_space();
        let a = ShardPlan::build(space.clone(), CampaignSpec::sampled(9, 40, 4));
        let b = ShardPlan::build(space.clone(), CampaignSpec::sampled(9, 40, 4));
        let c = ShardPlan::build(space.clone(), CampaignSpec::sampled(10, 40, 4));
        assert_eq!(a.runs(), 40);
        assert_eq!(a.faults, b.faults, "same seed, same sample");
        assert_ne!(a.faults, c.faults, "different seed, different sample");
        // The sample is a subsequence of the canonical order.
        let mut it = space.iter();
        assert!(a.faults.iter().all(|f| it.any(|g| g == f)), "sample preserves canonical order");
        // Oversampling falls back to exhaustive.
        let d = ShardPlan::build(space.clone(), CampaignSpec::sampled(1, 1 << 40, 4));
        assert_eq!(d.runs(), space.len());
    }

    #[test]
    fn report_json_roundtrips() {
        let (p, space) = toy_space();
        let plan = ShardPlan::build(space, CampaignSpec::sampled(3, 25, 3));
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let mut report = CampaignReport::empty("toy", &plan, 2_000_000);
        for i in 0..plan.shard_count() {
            let outcomes = plan
                .shard(i)
                .iter()
                .map(|&fault| FaultOutcome {
                    fault,
                    class: sim.run_with_fault(fault.spec).classify(&golden.result),
                })
                .collect();
            report.shards[i] = Some(ShardResult { shard: i as u32, outcomes });
        }
        assert!(report.is_complete());
        assert_eq!(report.runs(), 25);
        let text = report.to_json().render();
        let back = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn from_json_rejects_implausible_shard_counts() {
        for count in ["0", "4000000000"] {
            let text = format!(
                "{{\"version\": 1, \"salt\": \"{}\", \"program\": \"x\", \"seed\": 0, \
                 \"shard_count\": {count}, \"max_cycles\": 10, \"fault_space\": 1, \
                 \"shards\": []}}",
                bec_cache::VERSION_SALT
            );
            let err = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("implausible"), "{err}");
        }
    }

    #[test]
    fn from_json_rejects_foreign_or_missing_version_salts() {
        // A report from a binary with a different artifact generation (or
        // from before salting existed) must not be resumed: its outcomes
        // were classified by a different analysis/engine version.
        for salt in ["\"salt\": \"bec-artifacts-v0\", ", ""] {
            let text = format!(
                "{{\"version\": 1, {salt}\"program\": \"x\", \"seed\": 0, \"shard_count\": 1, \
                 \"max_cycles\": 10, \"fault_space\": 1, \"shards\": []}}"
            );
            let err = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap_err();
            assert!(err.contains("salt"), "{err}");
        }
        let good = CampaignReport {
            program: "x".into(),
            spec: CampaignSpec::exhaustive(1),
            max_cycles: 10,
            fault_space: 1,
            shards: vec![None],
        };
        let back = CampaignReport::from_json(&good.to_json()).unwrap();
        assert_eq!(back, good);
    }

    #[test]
    fn partial_report_knows_pending_shards() {
        let (_, space) = toy_space();
        let plan = ShardPlan::build(space, CampaignSpec::exhaustive(5));
        let mut report = CampaignReport::empty("toy", &plan, 2_000_000);
        assert_eq!(report.pending_shards(), vec![0, 1, 2, 3, 4]);
        report.shards[2] = Some(ShardResult { shard: 2, outcomes: Vec::new() });
        assert_eq!(report.pending_shards(), vec![0, 1, 3, 4]);
        assert!(!report.is_complete());
        let text = report.to_json().render();
        let back = CampaignReport::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.pending_shards(), vec![0, 1, 3, 4]);
    }

    fn toy_report_text() -> (CampaignReport, String) {
        let (p, space) = toy_space();
        let plan = ShardPlan::build(space, CampaignSpec::sampled(3, 12, 3));
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let mut report = CampaignReport::empty("toy", &plan, 2_000_000);
        for i in 0..plan.shard_count() {
            let outcomes = plan
                .shard(i)
                .iter()
                .map(|&fault| FaultOutcome {
                    fault,
                    class: sim.run_with_fault(fault.spec).classify(&golden.result),
                })
                .collect();
            report.shards[i] = Some(ShardResult { shard: i as u32, outcomes });
        }
        let text = report.render();
        assert_eq!(report.to_json().render(), text);
        (report, text)
    }

    #[test]
    fn decode_is_order_independent_and_first_key_wins() {
        let (report, text) = toy_report_text();
        // Move `shards` ahead of the header and repeat a header key with a
        // different value: the first occurrence counts.
        let (head, shards) = text.split_once(",\n  \"shards\": ").unwrap();
        let moved = format!(
            "{{\n  \"shards\": {}, {}, \"program\": \"other\", \"extra\": [{{}}]\n}}",
            shards.trim_end().strip_suffix('}').unwrap().trim_end(),
            head.strip_prefix('{').unwrap()
        );
        assert_eq!(CampaignReport::parse(&moved), Ok(report.clone()));
        assert_eq!(CampaignReport::from_json(&Json::parse(&moved).unwrap()), Ok(report));
    }

    #[test]
    fn syntax_errors_win_and_fields_are_checked_in_a_fixed_order() {
        let (_, text) = toy_report_text();
        let row = text.split('"').find(|s| s.matches(':').count() == 7).unwrap();
        let bad_row = text.replacen(row, "1:zz:0:0:0:0:m:benign", 1);
        assert_eq!(
            CampaignReport::parse(&bad_row).unwrap_err(),
            "malformed outcome row `1:zz:0:0:0:0:m:benign`"
        );
        // A foreign salt is reported before the malformed row it precedes
        // in the check order, wherever the two sit in the document.
        let salted = bad_row.replacen(bec_cache::VERSION_SALT, "bec-artifacts-v0", 1);
        assert!(CampaignReport::parse(&salted).unwrap_err().contains("salt"));
        // A syntax error anywhere beats every semantic error.
        let broken = salted.trim_end().strip_suffix('}').unwrap().to_owned() + ",}";
        let err = CampaignReport::parse(&broken).unwrap_err();
        assert!(err.starts_with("expected `\"` at byte"), "{err}");
        assert_eq!(Json::parse(&broken).unwrap_err(), err);
    }
}
