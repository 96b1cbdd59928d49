//! Delta-debugging minimizer for soundness-violation reproducers.
//!
//! A fuzzing finding is only useful once it is small: the minimizer takes a
//! program on which a *violation predicate* holds — a statically-masked
//! fault observed non-benign — and greedily shrinks the program while
//! re-checking the predicate after every candidate edit. Shrinking happens
//! at the *text* level, on [`bec_ir::print_program`] output: every edit
//! produces candidate source lines, and [`bec_ir::parse_program`] +
//! [`bec_ir::verify_program`] act as the validity filter (the printer/parser
//! round trip is property-tested in `bec-ir`, so the printed form is a
//! faithful mutation substrate). Edits that produce unparseable or
//! unverifiable text are simply rejected, which keeps the edit rules
//! trivially simple and the search obviously sound.
//!
//! Four edit passes run coarse-to-fine to a fixpoint:
//!
//! 1. **drop function** — remove an entire uncalled function;
//! 2. **drop block** — remove a basic block, retargeting branches that
//!    referenced its label to the removed block's own jump target;
//! 3. **branch → jump** — collapse a conditional branch to either arm;
//! 4. **drop line** — remove a single instruction, `global` or `entry`
//!    line.
//!
//! The search is fully deterministic: candidate order is a pure function of
//! the current text, so a fixed input minimizes to fixed bytes. Two caps
//! bound it, both counted rather than timed so they cannot break that: at
//! most `CANDIDATE_CAP` candidate checks, and at most a fixed budget of
//! simulated cycles over all checks ([`CYCLE_BUDGET`]). Past
//! either, the smallest reproducer found so far is returned. The result
//! carries the final violation [`Witness`], and
//! [`Minimized::reproducer`] renders a standalone `.bec` file whose header
//! comment holds the exact `bec sim <file> --fault <cycle>:<reg>:<bit>`
//! replay command.

use crate::machine::FaultSpec;
use crate::runner::{SimLimits, Simulator};
use crate::shard::SiteTable;
use crate::shard::SiteVerdicts;
use crate::trace::FaultClass;
use bec_core::{BecAnalysis, BecOptions};
use bec_ir::{parse_program, print_program, verify_program, PointId, Program};

/// Which masked-claim source drives the violation predicate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Oracle {
    /// The real analysis verdicts: a violation is a statically-masked fault
    /// whose run is not benign. On a sound analysis this never fires.
    Analysis,
    /// Test-only hook: *every* accessed site bit is claimed masked — a
    /// deliberately unsound oracle guaranteeing violations, used to
    /// exercise the minimizer and the findings pipeline end to end.
    AssumeAllMasked,
}

/// A concrete violation: one fault whose injection contradicted the masked
/// claim of the active [`Oracle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Witness {
    /// The injection replaying the violation
    /// (`bec sim <file> --fault cycle:reg:bit`).
    pub fault: FaultSpec,
    /// Function index of the access point.
    pub func: u32,
    /// The access point whose fault window the injection lands in.
    pub point: PointId,
    /// Which dynamic occurrence of `point` opened the window (0-based).
    pub occurrence: u32,
    /// The observed (non-benign) outcome class.
    pub observed: FaultClass,
}

/// A minimization result: the shrunk program, its source text, the
/// violation witness that still holds on it, and search statistics.
#[derive(Clone, Debug)]
pub struct Minimized {
    /// The shrunk program.
    pub program: Program,
    /// Its printed source (what [`Minimized::reproducer`] embeds).
    pub source: String,
    /// A violation witness valid on `program`.
    pub witness: Witness,
    /// Program points (instructions + terminators) of the shrunk program.
    pub instructions: u64,
    /// Program points of the input program, for shrink accounting.
    pub initial_instructions: u64,
    /// Candidate edits tried.
    pub candidates: u64,
    /// Candidate edits accepted.
    pub shrinks: u64,
    /// Cycles simulated by all checks (golden and fault runs), the input's
    /// own check included.
    pub cycles: u64,
}

impl Minimized {
    /// Renders a standalone reproducer file: the shrunk source preceded by
    /// a comment header carrying the exact replay command. The parser
    /// ignores `#` comments, so the file round-trips through
    /// `parse_program` and feeds `bec sim` directly.
    pub fn reproducer(&self) -> String {
        let f = &self.witness.fault;
        format!(
            "# minimized soundness-violation reproducer ({} instructions)\n\
             # replay: bec sim <this-file> --fault {}:{}:{}\n\
             # expected: {} (a statically-masked fault must be benign)\n{}",
            self.instructions,
            f.cycle,
            f.reg,
            f.bit,
            self.witness.observed.name(),
            self.source
        )
    }
}

/// Safety valve: the search stops accepting new candidates past this many
/// predicate evaluations (generated programs finish in a few hundred).
const CANDIDATE_CAP: u64 = 20_000;

/// Default total of simulated cycles the checks of one minimization may
/// spend. Each check runs a golden run and one run of up to the per-run
/// budget per claimed-masked fault before the first violation, so the
/// candidate cap alone lets a slow predicate stall a fuzz session (one
/// generated program spent over 2·10⁹ cycles in three checks). Most generated
/// programs minimize in under 10⁷ cycles, the slowest seen in under 10⁸.
pub const CYCLE_BUDGET: u64 = 200_000_000;

/// The delta-debugging minimizer. Construction is cheap; all state lives
/// on the stack of [`Minimizer::minimize`].
pub struct Minimizer<'a> {
    options: &'a BecOptions,
    oracle: Oracle,
    limits: SimLimits,
}

impl<'a> Minimizer<'a> {
    /// A minimizer checking violations against `options` under `oracle`,
    /// with a 200k-cycle per-run budget (generous for generated programs;
    /// runs past it classify as hangs, which are violations anyway).
    pub fn new(options: &'a BecOptions, oracle: Oracle) -> Minimizer<'a> {
        Minimizer { options, oracle, limits: SimLimits { max_cycles: 200_000 } }
    }

    /// Overrides the per-run cycle budget.
    pub fn with_limits(mut self, limits: SimLimits) -> Minimizer<'a> {
        self.limits = limits;
        self
    }

    /// Scans the claimed-masked fault space of `program` in canonical
    /// order and returns the first fault observed non-benign, or `None`
    /// when every claimed-masked injection is benign (or the golden run
    /// does not complete — nothing can be claimed about such a program).
    pub fn find_violation(&self, program: &Program) -> Option<Witness> {
        self.scan(program, &mut 0, u64::MAX)
    }

    /// [`Minimizer::find_violation`], adding every simulated cycle to
    /// `spent` and starting no run once `spent` reaches `budget` (the scan
    /// then reports no violation).
    fn scan(&self, program: &Program, spent: &mut u64, budget: u64) -> Option<Witness> {
        if *spent >= budget {
            return None;
        }
        let bec = BecAnalysis::analyze(program, self.options);
        let sim = Simulator::with_limits(program, self.limits);
        let golden = sim.run_golden();
        *spent += golden.cycles();
        if golden.result.outcome != crate::exec::ExecOutcome::Completed {
            return None;
        }
        let verdicts = SiteVerdicts::of(program, &bec);
        for f in SiteTable::new(&verdicts, &golden).iter() {
            let claimed_masked = match self.oracle {
                Oracle::Analysis => f.masked,
                Oracle::AssumeAllMasked => true,
            };
            if !claimed_masked {
                continue;
            }
            if *spent >= budget {
                return None;
            }
            let run = sim.run_with_fault(f.spec);
            *spent += run.cycles;
            let observed = run.classify(&golden.result);
            if observed != FaultClass::Benign {
                return Some(Witness {
                    fault: f.spec,
                    func: f.func,
                    point: f.point,
                    occurrence: f.occurrence,
                    observed,
                });
            }
        }
        None
    }

    /// Shrinks `program` while [`Minimizer::find_violation`] keeps firing.
    /// Returns `None` when the input has no violation to begin with, or
    /// none within [`CYCLE_BUDGET`]. Every check, the input's included,
    /// draws on the one budget; a candidate check cut short by it counts
    /// as a rejection and ends the search.
    pub fn minimize(&self, program: &Program) -> Option<Minimized> {
        self.minimize_within(program, CYCLE_BUDGET)
    }

    /// [`Minimizer::minimize`] with a total budget of `budget` cycles.
    fn minimize_within(&self, program: &Program, budget: u64) -> Option<Minimized> {
        let mut lines: Vec<String> = print_program(program).lines().map(str::to_owned).collect();
        let mut spent = 0u64;
        let (mut current, mut witness) = self.check(&lines, &mut spent, budget)?;
        let initial_instructions = point_count(&current);
        let mut candidates = 0u64;
        let mut shrinks = 0u64;

        type Pass = fn(&[String], usize) -> Option<Vec<String>>;
        let passes: [Pass; 4] = [drop_func, drop_block, branch_to_jump, drop_line];
        loop {
            let mut changed = false;
            for pass in passes {
                let mut i = 0;
                while let Some(cand) = pass(&lines, i) {
                    if candidates >= CANDIDATE_CAP || spent >= budget {
                        break;
                    }
                    candidates += 1;
                    if let Some((p, w)) = self.check(&cand, &mut spent, budget) {
                        // Accepted: keep the index — position `i` now names
                        // the next candidate of the shrunk text.
                        lines = cand;
                        current = p;
                        witness = w;
                        shrinks += 1;
                        changed = true;
                    } else {
                        i += 1;
                    }
                }
            }
            if !changed || candidates >= CANDIDATE_CAP || spent >= budget {
                break;
            }
        }

        let mut source = lines.join("\n");
        source.push('\n');
        Some(Minimized {
            instructions: point_count(&current),
            initial_instructions,
            program: current,
            source,
            witness,
            candidates,
            shrinks,
            cycles: spent,
        })
    }

    /// The predicate: candidate lines must parse, verify and still violate
    /// within the cycle budget (see [`Minimizer::scan`]).
    fn check(&self, lines: &[String], spent: &mut u64, budget: u64) -> Option<(Program, Witness)> {
        let src = lines.join("\n");
        let p = parse_program(&src).ok()?;
        verify_program(&p).ok()?;
        let w = self.scan(&p, spent, budget)?;
        Some((p, w))
    }
}

/// Program points (instructions plus one terminator per block).
fn point_count(p: &Program) -> u64 {
    p.functions.iter().flat_map(|f| &f.blocks).map(|b| b.insts.len() as u64 + 1).sum()
}

/// The instruction body of an indented line.
fn inst_body(line: &str) -> Option<&str> {
    line.strip_prefix("    ")
}

/// The label of a `label:` line (column 0, trailing colon).
fn label_name(line: &str) -> Option<&str> {
    if line.starts_with(' ') {
        return None;
    }
    line.strip_suffix(':')
}

/// Splits an instruction body into mnemonic and comma-separated operands.
fn split_inst(body: &str) -> (&str, Vec<&str>) {
    match body.split_once(char::is_whitespace) {
        Some((mn, rest)) => (mn, rest.split(',').map(str::trim).collect()),
        None => (body, Vec::new()),
    }
}

/// The control-flow label operands of an instruction body: the sole
/// operand of `j`, the last two operands of a `b*` branch (the printer
/// always renders both targets), and nothing otherwise.
fn control_targets(body: &str) -> Vec<&str> {
    let (mn, ops) = split_inst(body);
    if mn == "j" {
        ops
    } else if mn.starts_with('b') && ops.len() >= 2 {
        ops[ops.len() - 2..].to_vec()
    } else {
        Vec::new()
    }
}

/// Rewrites the control-target operands of `line`, mapping `from` to `to`.
fn retarget(line: &str, from: &str, to: &str) -> String {
    let Some(body) = inst_body(line) else { return line.to_owned() };
    let (mn, ops) = split_inst(body);
    let first_label = if mn == "j" { 0 } else { ops.len().saturating_sub(2) };
    let ops: Vec<&str> = ops
        .iter()
        .enumerate()
        .map(|(i, &o)| if i >= first_label && o == from { to } else { o })
        .collect();
    format!("    {mn} {}", ops.join(", "))
}

/// Whether `line` mentions the symbol `@name` (call/entry/la reference),
/// with a non-identifier character or end-of-line after the match.
fn mentions_symbol(line: &str, name: &str) -> bool {
    let pat = format!("@{name}");
    let mut rest = line;
    while let Some(at) = rest.find(&pat) {
        let after = &rest[at + pat.len()..];
        match after.chars().next() {
            Some(c) if c.is_alphanumeric() || c == '_' => rest = &rest[at + 1..],
            _ => return true,
        }
    }
    false
}

/// The `[header, closing-brace]` line span of the `n`-th droppable
/// function: one whose name is referenced nowhere outside the span.
fn drop_func(lines: &[String], n: usize) -> Option<Vec<String>> {
    let mut seen = 0;
    for (start, line) in lines.iter().enumerate() {
        let Some(rest) = line.strip_prefix("func @") else { continue };
        let name = &rest[..rest.find('(').unwrap_or(rest.len())];
        let end = (start..lines.len()).find(|&j| lines[j] == "}")?;
        let referenced = lines
            .iter()
            .enumerate()
            .any(|(j, l)| (j < start || j > end) && mentions_symbol(l, name));
        if referenced {
            continue;
        }
        if seen == n {
            let mut out = lines[..start].to_vec();
            out.extend_from_slice(&lines[end + 1..]);
            return Some(out);
        }
        seen += 1;
    }
    None
}

/// Drops the `n`-th droppable basic block. A block is droppable when it is
/// unreferenced, or when it ends in an unconditional `j target` — then
/// every branch into it is retargeted to `target` instead.
fn drop_block(lines: &[String], n: usize) -> Option<Vec<String>> {
    let mut seen = 0;
    for (start, line) in lines.iter().enumerate() {
        let Some(label) = label_name(line) else { continue };
        // Block extent: label line through the line before the next label
        // or the function's closing brace.
        let end = (start + 1..lines.len())
            .find(|&j| inst_body(&lines[j]).is_none())
            .unwrap_or(lines.len());
        let inside = start..end;
        let refs: Vec<usize> = lines
            .iter()
            .enumerate()
            .filter(|&(j, l)| {
                !inside.contains(&j)
                    && inst_body(l).is_some_and(|b| control_targets(b).contains(&label))
            })
            .map(|(j, _)| j)
            .collect();
        let forward = match inst_body(&lines[end - 1]).map(split_inst) {
            Some(("j", ops)) if ops.len() == 1 && ops[0] != label => Some(ops[0].to_owned()),
            _ => None,
        };
        if !refs.is_empty() && forward.is_none() {
            continue;
        }
        if seen == n {
            let mut out: Vec<String> = Vec::with_capacity(lines.len());
            for (j, l) in lines.iter().enumerate() {
                if inside.contains(&j) {
                    continue;
                }
                match (&forward, refs.contains(&j)) {
                    (Some(t), true) => out.push(retarget(l, label, t)),
                    _ => out.push(l.clone()),
                }
            }
            return Some(out);
        }
        seen += 1;
    }
    None
}

/// Collapses the `n`-th (branch, arm) pair to an unconditional jump.
fn branch_to_jump(lines: &[String], n: usize) -> Option<Vec<String>> {
    let mut seen = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(body) = inst_body(line) else { continue };
        let (mn, _) = split_inst(body);
        if !mn.starts_with('b') {
            continue;
        }
        for target in control_targets(body) {
            if seen == n {
                let mut out = lines.to_vec();
                out[i] = format!("    j {target}");
                return Some(out);
            }
            seen += 1;
        }
    }
    None
}

/// Drops the `n`-th single droppable line: any indented instruction or
/// terminator, or a `global`/`entry` header line.
fn drop_line(lines: &[String], n: usize) -> Option<Vec<String>> {
    let mut seen = 0;
    for (i, line) in lines.iter().enumerate() {
        let droppable =
            inst_body(line).is_some() || line.starts_with("global ") || line.starts_with("entry ");
        if !droppable {
            continue;
        }
        if seen == n {
            let mut out = lines.to_vec();
            out.remove(i);
            return Some(out);
        }
        seen += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_fuzzgen::{generate, GenConfig};

    #[test]
    fn cycle_budget_stops_expensive_checks() {
        // Each check of this program simulates ~100k cycles, so a budget
        // of a few checks' worth stops the search early: fewer candidates,
        // a larger but still valid reproducer.
        let g = generate(15, &GenConfig::full());
        let options = BecOptions::paper();
        let minimizer = Minimizer::new(&options, Oracle::AssumeAllMasked);
        let full = minimizer.minimize(&g.program).unwrap();
        assert!(full.cycles / full.candidates > 50_000, "checks too cheap: {} cycles", full.cycles);

        let budget = 400_000;
        let cut = minimizer.minimize_within(&g.program, budget).expect("input check fits");
        assert!(cut.candidates < full.candidates, "{} vs {}", cut.candidates, full.candidates);
        assert!(cut.cycles < full.cycles);
        assert!(cut.instructions >= full.instructions);
        assert!(cut.instructions <= cut.initial_instructions);
        assert_eq!(minimizer.find_violation(&cut.program), Some(cut.witness));
        // Cycles, not time: the cut lands on the same candidate every run.
        let again = minimizer.minimize_within(&g.program, budget).unwrap();
        assert_eq!(
            (again.source, again.candidates, again.cycles),
            (cut.source, cut.candidates, cut.cycles)
        );
        // A budget the input's own check overruns yields no reproducer.
        assert!(minimizer.minimize_within(&g.program, 1).is_none());
    }

    #[test]
    fn retarget_rewrites_only_label_operands() {
        assert_eq!(retarget("    bnez t0, a, b", "a", "exit"), "    bnez t0, exit, b");
        assert_eq!(retarget("    j a", "a", "b"), "    j b");
        // A register operand spelled like the label is left alone.
        assert_eq!(retarget("    beq a, t1, a, b", "a", "c"), "    beq a, t1, c, b");
    }

    #[test]
    fn symbol_mentions_respect_identifier_boundaries() {
        assert!(mentions_symbol("    call @h1", "h1"));
        assert!(!mentions_symbol("    call @h10", "h1"));
        assert!(mentions_symbol("entry @main", "main"));
        assert!(!mentions_symbol("    li t0, 4", "main"));
    }

    #[test]
    fn control_targets_cover_jumps_and_branches() {
        assert_eq!(control_targets("j done"), vec!["done"]);
        assert_eq!(control_targets("beq t0, t1, a, b"), vec!["a", "b"]);
        assert_eq!(control_targets("bnez t0, a, b"), vec!["a", "b"]);
        assert!(control_targets("add t0, t1, t2").is_empty());
        assert!(control_targets("ret").is_empty());
    }
}
