//! Empirical validation of the BEC analysis (§V, Table II).
//!
//! For every value-live fault site and every dynamic occurrence, a fault is
//! injected and the trace recorded. The analysis is:
//!
//! * **sound and precise** for a class whose members produce identical
//!   traces at corresponding occurrences;
//! * **sound but imprecise** where two *different* classes produce identical
//!   traces (dynamic information the static analysis cannot see);
//! * **unsound** if members of one class differ — the paper observed no such
//!   case, and this reproduction's property tests assert the same.
//!
//! Masked sites (`[s0]`) are validated against the golden trace itself.

use crate::machine::FaultSpec;
use crate::runner::Simulator;
use bec_core::{BecAnalysis, BecOptions};
use bec_ir::{PointId, Program, Reg};
use std::collections::HashMap;

/// How a fault-injection run contradicted the static analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MismatchKind {
    /// A statically-masked site changed the execution trace.
    MaskedViolation,
    /// A member of an equivalence class produced a trace different from its
    /// class representative.
    ClassDivergence,
}

/// One empirical contradiction, pinned to the exact injection that exposed
/// it: the instruction, the faulted bit index and the injection cycle (not
/// just the instruction id — the same point covers `xlen` bits over many
/// dynamic occurrences, and only the full coordinate replays the run).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// What claim the run contradicted.
    pub kind: MismatchKind,
    /// Function index of the access point.
    pub func: usize,
    /// The access point (instruction id) opening the fault window.
    pub point: PointId,
    /// The faulted register.
    pub reg: Reg,
    /// The faulted bit index (LSB = 0).
    pub bit: u32,
    /// The cycle the bit was flipped at (replay with
    /// `bec sim <file> --fault <cycle>:<reg>:<bit>`).
    pub cycle: u64,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let claim = match self.kind {
            MismatchKind::MaskedViolation => "statically-masked site changed the trace",
            MismatchKind::ClassDivergence => "class member diverged from its representative",
        };
        write!(
            f,
            "{claim}: func {} {} reg {} bit {} flipped at cycle {}",
            self.func, self.point, self.reg, self.bit, self.cycle
        )
    }
}

/// Outcome of the §V validation for one program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// Fault-injection runs performed.
    pub runs: u64,
    /// Runs in multi-member class groups whose traces all agreed.
    pub sound_precise: u64,
    /// Runs violating a class-equality claim (must be 0).
    pub unsound: u64,
    /// Masked (s0-class) runs whose trace equals the golden trace.
    pub masked_confirmed: u64,
    /// Masked runs that changed the trace (must be 0).
    pub masked_violations: u64,
    /// Pairs of distinct classes that produced identical traces at the same
    /// occurrence — sound but imprecise (missed merge opportunities).
    pub imprecise_pairs: u64,
    /// Every unsound/masked-violation run, with the faulted bit index and
    /// injection cycle needed to replay it.
    pub mismatches: Vec<Mismatch>,
}

impl ValidationReport {
    /// Whether the analysis was empirically sound on this program.
    pub fn is_sound(&self) -> bool {
        self.unsound == 0 && self.masked_violations == 0
    }
}

/// Runs the full §V validation for `program`.
///
/// Every value-live site bit is injected at every dynamic occurrence; the
/// runs are grouped by `(equivalence class, occurrence index)` and checked
/// for trace agreement.
pub fn validate_program(program: &Program, options: &BecOptions) -> ValidationReport {
    let bec = BecAnalysis::analyze(program, options);
    let sim = Simulator::new(program);
    let golden = sim.run_golden();
    let golden_digest = golden.result.hash.digest();

    let mut report = ValidationReport::default();
    // (class representative, occurrence index) → member runs: the trace
    // digest plus the injection coordinate, kept so a divergence can be
    // reported as a replayable (point, reg, bit, cycle) mismatch.
    type MemberRun = (u128, PointId, Reg, u32, u64);
    let mut groups: HashMap<(usize, usize, u64), Vec<MemberRun>> = HashMap::new();

    for (fi, fa) in bec.functions().iter().enumerate() {
        let s0 = fa.coalescing.s0_class();
        for (p, r) in fa.coalescing.nodes().site_pairs() {
            if !fa.liveness.is_live_after(p, r) {
                continue;
            }
            let cycles = golden.occurrences(fi, p);
            for bit in 0..program.config.xlen {
                let class = fa.coalescing.class_of(p, r, bit).expect("accessed site");
                for (k, &c) in cycles.iter().enumerate() {
                    let open = golden.window_open_cycle(c);
                    let run = sim.run_with_fault(FaultSpec { cycle: open, reg: r, bit });
                    report.runs += 1;
                    let digest = run.hash.digest();
                    if class == s0 {
                        if digest == golden_digest {
                            report.masked_confirmed += 1;
                        } else {
                            report.masked_violations += 1;
                            report.mismatches.push(Mismatch {
                                kind: MismatchKind::MaskedViolation,
                                func: fi,
                                point: p,
                                reg: r,
                                bit,
                                cycle: open,
                            });
                        }
                    } else {
                        groups
                            .entry((fi, class, k as u64))
                            .or_default()
                            .push((digest, p, r, bit, open));
                    }
                }
            }
        }
    }

    // Class agreement per occurrence index.
    let mut by_trace: HashMap<(usize, u64, u128), Vec<usize>> = HashMap::new();
    for ((fi, class, k), members) in &groups {
        let first = members[0].0;
        if members.iter().all(|(d, ..)| *d == first) {
            report.sound_precise += members.len() as u64;
        } else {
            for &(_, point, reg, bit, cycle) in members.iter().filter(|(d, ..)| *d != first) {
                report.unsound += 1;
                report.mismatches.push(Mismatch {
                    kind: MismatchKind::ClassDivergence,
                    func: *fi,
                    point,
                    reg,
                    bit,
                    cycle,
                });
            }
        }
        // Imprecision: distinct classes with identical traces.
        for (d, ..) in members {
            let entry = by_trace.entry((*fi, *k, *d)).or_default();
            if !entry.contains(class) {
                entry.push(*class);
            }
        }
    }
    for (_, classes) in by_trace {
        report.imprecise_pairs += (classes.len() as u64).saturating_sub(1);
    }
    report.mismatches.sort_by_key(|m| (m.func, m.point, m.reg, m.bit, m.cycle, m.kind as u8));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::parse_program;

    #[test]
    fn motivating_example_is_sound() {
        let p = parse_program(
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
        .unwrap();
        let report = validate_program(&p, &BecOptions::paper());
        assert_eq!(report.runs, 288);
        assert!(report.is_sound(), "unsound: {report:?}");
        assert_eq!(report.masked_violations, 0);
        assert_eq!(report.unsound, 0);
        assert!(report.mismatches.is_empty(), "sound runs record no mismatches: {report:?}");
        assert!(report.masked_confirmed >= 42, "all masked bits confirmed: {report:?}");
        assert!(report.sound_precise > 0);
    }

    #[test]
    fn extended_options_remain_sound() {
        let p = parse_program(
            r#"
machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r1, 5
    j loop
loop:
    andi r2, r1, 3
    seqz r2, r2
    add  r0, r0, r2
    addi r1, r1, -1
    bnez r1, loop
exit:
    ret r0
}
"#,
        )
        .unwrap();
        let report = validate_program(&p, &BecOptions::extended());
        assert!(report.is_sound(), "extended rules unsound: {report:?}");
    }

    #[test]
    fn xor_heavy_kernel_is_sound() {
        // xor propagation is the unconditional coalescing rule; validate it.
        let p = parse_program(
            r#"
func @main(args=0, ret=none) {
entry:
    li t0, 0x5a
    li t1, 0x33
    li t2, 3
    j loop
loop:
    xor  t0, t0, t1
    slli t1, t1, 1
    andi t1, t1, 0xff
    addi t2, t2, -1
    bnez t2, loop
exit:
    print t0
    exit
}
"#,
        )
        .unwrap();
        let report = validate_program(&p, &BecOptions::paper());
        assert!(report.is_sound(), "unsound: {report:?}");
    }

    #[test]
    fn mismatch_reports_bit_and_cycle() {
        // The message must carry the full replay coordinate — register, bit
        // index and injection cycle — not just the instruction id.
        let m = Mismatch {
            kind: MismatchKind::MaskedViolation,
            func: 0,
            point: PointId(4),
            reg: Reg::T0,
            bit: 17,
            cycle: 93,
        };
        let text = m.to_string();
        assert!(text.contains("bit 17"), "{text}");
        assert!(text.contains("cycle 93"), "{text}");
        assert!(text.contains("t0"), "{text}");
    }
}
