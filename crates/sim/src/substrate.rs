//! The variant-shared golden substrate: record the baseline variant's
//! golden run once per benchmark, then *derive* every scheduled variant's
//! campaign inputs (golden run + checkpoint log) by mapping through the
//! schedule permutation instead of re-simulating.
//!
//! # Why this is sound
//!
//! Scheduling permutes instructions within basic blocks and never across a
//! call (calls and prints have externally visible effects; see
//! `bec-sched`'s dependency graphs). Two consequences carry the whole
//! design:
//!
//! * **Machine state at block-entry boundaries is schedule-invariant.** A
//!   reordered block body is the same multiset of instructions with every
//!   data dependency preserved, so registers, memory, the call stack and
//!   the output stream agree at every block entry — and the adaptive
//!   checkpoint grid (`CheckpointLog::aligned`) captures *only* at
//!   block-entry cycles, on a capture-decision sequence that is itself
//!   schedule-invariant. One recorded log therefore holds the machine
//!   state of every variant's checkpoints; only two derived artifacts
//!   actually depend on the schedule:
//! * **Only the trace hash is order-sensitive.** It is re-derived per
//!   variant by a cheap *replay* over the recorded substrate — an O(trace)
//!   walk over prerecorded event words (`HashTape`), never
//!   a new simulation. The per-checkpoint dynamic-liveness masks, although
//!   computed backward over the event stream, are themselves
//!   schedule-invariant at block-entry cycles: the backward transfer of
//!   one instruction is `live' = (live & !writes) | reads`, and two
//!   instructions a legal schedule may swap share no read/write register
//!   conflict (that is what makes the swap legal), so their transfers
//!   commute and every checkpoint's `live_bits` carry over verbatim.
//!
//! The cycle translation is static: point `p` of function `f` in the
//! variant holds the baseline instruction at point `perm[f][p]`, and
//! because the slots of one call-free run of straight-line code execute at
//! consecutive cycles, the variant's cycle `c` re-enacts baseline cycle
//! `c + (perm[f][p] - p)` where `(f, p)` is the (position-invariant) point
//! executed at `c`. Everything positional — the cycle→point map, the
//! occurrence index, the execution profile, the fault-site windows — is
//! shared verbatim: the variant executes the *same point numbers* at the
//! same cycles; only the instruction living at each point moved.
//!
//! A static precondition guards all of this before any derivation
//! ([`GoldenSubstrate::derive`] returns `None` and the caller falls back
//! to an independent golden run when it fails): the permutation must be a
//! bijection that stays within *segments* — maximal runs of in-block slots
//! uninterrupted by calls — with terminators and calls as fixed points,
//! and the variant's instruction at every point must equal the baseline's
//! instruction at the permuted point (the rest of the program byte-equal).
//! Debug builds additionally re-simulate each derived variant and assert
//! the derived hash, outputs, terminal registers and memory digest; the
//! release-mode safety net is the campaign itself, which classifies every
//! masked fault against the derived golden and fails loudly on soundness
//! violations.

use crate::checkpoint::CheckpointLog;
use crate::exec::{ExecOutcome, HashTape};
use crate::runner::{GoldenRun, SimLimits, Simulator};
use crate::trace::TraceHash;
use bec_ir::{Inst, PointLayout, Program};

/// One benchmark's recorded golden substrate: the baseline golden run with
/// an aligned checkpoint log, plus the raw per-cycle trace words needed to
/// translate the only schedule-dependent state (the trace hash) to any
/// scheduled variant.
pub struct GoldenSubstrate {
    /// The baseline program the substrate was recorded from.
    baseline: Program,
    /// Per-function segment id of every point: permutations must map each
    /// point within its segment (same block, no call crossed).
    seg_of: Vec<Vec<u32>>,
    golden: GoldenRun,
    ckpts: CheckpointLog,
    /// Per-cycle trace-hash words (token first, payload after).
    tape: HashTape,
    /// Run limits for the debug-only verification re-simulation.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    limits: SimLimits,
}

/// A variant's campaign inputs derived from a [`GoldenSubstrate`].
pub struct DerivedGolden {
    /// The variant's golden run (shared positional state, translated
    /// trace hash).
    pub golden: GoldenRun,
    /// The variant's checkpoint log (shared machine state, translated
    /// per-checkpoint hash and liveness masks).
    pub ckpts: CheckpointLog,
    /// Cycles replayed to translate the order-sensitive state — 0 for the
    /// identity permutation, the golden cycle count otherwise (one forward
    /// hash replay; checkpoint liveness masks are schedule-invariant and
    /// need none). Telemetry material.
    pub replay_cycles: u64,
}

/// Segment map of one function: a fresh id at each block start, a unique
/// id for every call slot (and a fresh run after it), a unique id for the
/// terminator. Two points may trade places under scheduling only when they
/// share a segment.
fn segment_map(f: &bec_ir::Function) -> Vec<u32> {
    let mut seg_of = Vec::with_capacity(PointLayout::of(f).len());
    let mut next = 0u32;
    for b in &f.blocks {
        let mut cur = next;
        next += 1;
        for inst in &b.insts {
            if matches!(inst, Inst::Call { .. }) {
                // A call is its own (singleton) segment: callee cycles
                // interleave, so nothing may cross it and it cannot move.
                seg_of.push(next);
                next += 2;
                cur = next - 1;
            } else {
                seg_of.push(cur);
            }
        }
        // The terminator is a fixed point of every schedule.
        seg_of.push(next);
        next += 1;
    }
    seg_of
}

impl GoldenSubstrate {
    /// Records the substrate of `program` (the baseline variant): one
    /// golden run with aligned checkpoints, the read/write event stream
    /// and the trace-hash word tape.
    ///
    /// # Errors
    ///
    /// Fails when the program does not run to completion within `limits`.
    pub fn record(program: &Program, limits: SimLimits) -> Result<GoldenSubstrate, String> {
        let sim = Simulator::with_limits(program, limits);
        let (golden, ckpts, tape) = sim.run_golden_substrate();
        if golden.result.outcome != ExecOutcome::Completed {
            return Err(format!(
                "substrate: program did not run to completion: {:?}",
                golden.result.outcome
            ));
        }
        let seg_of = program.functions.iter().map(segment_map).collect();
        Ok(GoldenSubstrate { baseline: program.clone(), seg_of, golden, ckpts, tape, limits })
    }

    /// The recorded baseline golden run.
    pub fn golden(&self) -> &GoldenRun {
        &self.golden
    }

    /// The recorded baseline checkpoint log.
    pub fn ckpts(&self) -> &CheckpointLog {
        &self.ckpts
    }

    /// Derives `variant`'s golden run and checkpoint log through
    /// `permutation` (entry `k` of function `f` = original point index of
    /// the instruction now at point `k`; the [`crate::study`] docs and
    /// `bec-sched`'s `ScheduledVariant` define the format).
    ///
    /// Returns `None` when the static precondition fails — the permutation
    /// is not a within-segment bijection, or the variant is not the
    /// baseline program re-ordered by exactly that permutation — in which
    /// case the caller must record the variant independently. `Some`
    /// results are byte-exact: campaigns driven by a derived golden
    /// produce the same report bytes as campaigns driven by an
    /// independently recorded one.
    pub fn derive(&self, variant: &Program, permutation: &[Vec<u32>]) -> Option<DerivedGolden> {
        if !self.check_precondition(variant, permutation) {
            return None;
        }
        if permutation.iter().all(|f| f.iter().enumerate().all(|(i, &p)| i as u32 == p)) {
            // Identity: the baseline substrate *is* the variant's golden.
            return Some(DerivedGolden {
                golden: self.golden.clone(),
                ckpts: self.ckpts.clone(),
                replay_cycles: 0,
            });
        }

        let cycles = self.golden.cycles() as usize;
        let mut ckpts = self.ckpts.clone();

        // Forward hash replay, the only per-variant O(trace) work: the
        // variant's cycle c absorbs its own point token (position-invariant
        // — word 0 of the baseline's cycle c) followed by the payload words
        // of the instruction it actually executes, recorded at the baseline
        // source cycle `c + (perm[f][p] - p)`. The cloned checkpoints keep
        // their machine state and liveness masks (both schedule-invariant
        // at block entries); only their hash states are rewritten here.
        let tape = &self.tape;
        let mut hash = TraceHash::new();
        let absorb =
            |hash: &mut TraceHash, words: &[u64]| words.iter().for_each(|&w| hash.update(w));
        // Unmoved points (the common case) take token and payload from
        // their own cycle, so a run of unmoved cycles is one contiguous
        // slice of the tape: `pending` is where the run not yet absorbed
        // starts.
        let mut pending = 0;
        let mut next_ck = 0;
        // Checkpoint capture cycles are strictly increasing, so a single
        // "next capture" cursor replaces a per-cycle scan.
        let mut next_ck_cycle = ckpts.checkpoints.first().map_or(u64::MAX, |ck| ck.cycle);
        for (c, &(f, p, _)) in self.golden.cycle_map.iter().enumerate() {
            let start = tape.starts[c] as usize;
            if c as u64 == next_ck_cycle {
                absorb(&mut hash, &tape.words[pending..start]);
                pending = start;
                while next_ck < ckpts.checkpoints.len()
                    && ckpts.checkpoints[next_ck].cycle == c as u64
                {
                    ckpts.checkpoints[next_ck].hash = hash;
                    next_ck += 1;
                }
                next_ck_cycle = ckpts.checkpoints.get(next_ck).map_or(u64::MAX, |ck| ck.cycle);
            }
            let delta = permutation[f as usize][p.index()] as i64 - p.index() as i64;
            if delta == 0 {
                continue;
            }
            let sc = c as i64 + delta;
            if sc as u64 >= cycles as u64 {
                return None; // defensive: precondition guarantees in-range
            }
            // The pending run and this cycle's token, then the payload of
            // the instruction the variant executes here.
            absorb(&mut hash, &tape.words[pending..=start]);
            absorb(&mut hash, &tape.cycle_words(sc as usize)[1..]);
            pending = start + tape.cycle_words(c).len();
        }
        absorb(&mut hash, &tape.words[pending..]);

        let mut golden = self.golden.clone();
        golden.result.hash = hash;

        // Debug net: re-simulate the variant (plain run, no
        // instrumentation) and hold the derivation to it. A mismatch here
        // is a derivation bug, never a legal schedule effect — the static
        // precondition already admitted the variant.
        #[cfg(debug_assertions)]
        {
            let probe = Simulator::with_limits(variant, self.limits);
            let (res, regs, digest) = probe.run_plain_verify();
            debug_assert_eq!(res.hash, golden.result.hash, "derived trace hash deviates");
            debug_assert_eq!(res.outputs, golden.result.outputs, "derived outputs deviate");
            debug_assert_eq!(res.cycles, golden.cycles(), "derived cycle count deviates");
            debug_assert_eq!(regs, golden.terminal_regs, "derived terminal registers deviate");
            debug_assert_eq!(digest, golden.mem_digest, "derived memory digest deviates");
        }
        Some(DerivedGolden { golden, ckpts, replay_cycles: cycles as u64 })
    }

    /// The static admission check: `variant` must be `self.baseline` with
    /// each function's points re-ordered by exactly `permutation`, every
    /// mapping staying within one segment.
    fn check_precondition(&self, variant: &Program, permutation: &[Vec<u32>]) -> bool {
        let base = &self.baseline;
        // Everything but the in-block instruction order must be byte-equal:
        // machine config, globals, entry, signatures, labels, terminators.
        if variant.functions.len() != base.functions.len()
            || permutation.len() != base.functions.len()
            || variant.config != base.config
            || variant.entry != base.entry
            || variant.globals != base.globals
        {
            return false;
        }
        for (fi, vf) in variant.functions.iter().enumerate() {
            let bf = &base.functions[fi];
            let perm = &permutation[fi];
            let seg = &self.seg_of[fi];
            if vf.name != bf.name
                || vf.sig != bf.sig
                || vf.blocks.len() != bf.blocks.len()
                || perm.len() != seg.len()
            {
                return false;
            }
            let mut seen = vec![false; perm.len()];
            for (k, &o) in perm.iter().enumerate() {
                let o = o as usize;
                if o >= seg.len() || std::mem::replace(&mut seen[o], true) || seg[k] != seg[o] {
                    return false;
                }
            }
            let mut start = 0usize;
            for (bi, vb) in vf.blocks.iter().enumerate() {
                let bb = &bf.blocks[bi];
                let m = vb.insts.len();
                if m != bb.insts.len() || vb.label != bb.label || vb.term != bb.term {
                    return false;
                }
                // The variant's instruction at point start+j must be the
                // baseline's at original offset perm[start+j]-start. The
                // terminator slot (point start+m) is a fixed point by the
                // segment check above.
                for (j, inst) in vb.insts.iter().enumerate() {
                    let o = perm[start + j] as usize;
                    if o < start || o >= start + m || *inst != bb.insts[o - start] {
                        return false;
                    }
                }
                start += m + 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::parse_program;

    fn toy() -> Program {
        parse_program(
            r#"
global buf: word[2] = { 5, 6 }
func @main(args=0, ret=none) {
entry:
    la t0, @buf
    lw t1, 0(t0)
    lw t2, 4(t0)
    add t3, t1, t2
    print t3
    exit
}
"#,
        )
        .unwrap()
    }

    /// Swap the two (commuting) loads of `toy` and build the matching
    /// permutation. Loads carry address/value payload words in the trace
    /// hash, so the two orders hash differently — the interesting case.
    fn swapped() -> (Program, Vec<Vec<u32>>) {
        let mut p = toy();
        p.functions[0].blocks[0].insts.swap(1, 2);
        (p, vec![vec![0, 2, 1, 3, 4, 5]])
    }

    #[test]
    fn identity_derivation_is_the_recorded_substrate() {
        let p = toy();
        let sub = GoldenSubstrate::record(&p, SimLimits::default()).unwrap();
        let perm = vec![(0..6).collect::<Vec<u32>>()];
        let d = sub.derive(&p, &perm).expect("identity admits");
        assert_eq!(d.replay_cycles, 0);
        assert_eq!(d.golden.result.hash, sub.golden().result.hash);
        assert_eq!(d.ckpts, *sub.ckpts());
    }

    #[test]
    fn swapped_variant_derives_the_true_golden() {
        let (v, perm) = swapped();
        let sub = GoldenSubstrate::record(&toy(), SimLimits::default()).unwrap();
        let d = sub.derive(&v, &perm).expect("swap admits");
        assert_eq!(d.replay_cycles, sub.golden().cycles());
        // The derived hash equals a real recording of the variant; the
        // positional state is shared verbatim.
        let real = Simulator::new(&v).run_golden();
        assert_eq!(d.golden.result.hash, real.result.hash);
        assert_ne!(d.golden.result.hash, sub.golden().result.hash);
        assert_eq!(d.golden.result.outputs, real.result.outputs);
        assert_eq!(d.golden.occurrence_index(), real.occurrence_index());
        assert_eq!(d.golden.terminal_regs(), real.terminal_regs());
    }

    /// The golden run, the uninstrumented run on the decoded ops and the
    /// digest-tracking verification run agree on the 4-register `example4`
    /// machine, a 16-bit machine and rv32, and the substrate's tape
    /// rehashes to the golden hash.
    #[test]
    fn golden_paths_agree_on_every_machine_shape() {
        let example4 = parse_program(
            r#"
machine xlen=4 regs=4 zero=none
func @main(args=0, ret=none) {
entry:
    li r1, 6
    li r0, 0
    li r3, 4
    j loop
loop:
    andi r2, r1, 1
    add  r0, r0, r2
    sb   r0, 1(r3)
    lbu  r2, 1(r3)
    addi r1, r1, -1
    bnez r1, loop, exit
exit:
    print r2
    ret r0
}
"#,
        )
        .unwrap();
        assert_eq!(example4.config, bec_ir::MachineConfig::example4());
        let half = parse_program(
            r#"
machine xlen=16 regs=16 zero=r0
global buf: word[2] = { 5, 0x8006 }
func @twice(args=1, ret=a0) {
entry:
    add a0, a0, a0
    ret a0
}
func @main(args=0, ret=a0) {
entry:
    la t0, @buf
    lh a0, 4(t0)
    call @twice
    sh a0, 0(t0)
    lw a1, 0(t0)
    print a1
    ret a0
}
"#,
        )
        .unwrap();
        let crc32 = bec_suite::crc32::scaled(8).compile().unwrap();
        for (label, p) in
            [("example4", example4), ("xlen16", half), ("toy", toy()), ("crc32", crc32)]
        {
            bec_ir::verify_program(&p).unwrap();
            let sim = Simulator::new(&p);
            let golden = sim.run_golden();
            assert_eq!(golden.result.outcome, ExecOutcome::Completed, "{label}");
            let (outcome, outputs) = sim.run_outputs();
            assert_eq!(
                (outcome, outputs.as_slice()),
                (ExecOutcome::Completed, golden.outputs()),
                "{label}"
            );
            let (plain, regs, digest) = sim.run_plain_verify();
            assert_eq!(plain.outcome, golden.result.outcome, "{label}: outcome");
            assert_eq!(plain.outputs, golden.result.outputs, "{label}: outputs");
            assert_eq!(plain.cycles, golden.cycles(), "{label}: cycles");
            assert_eq!(plain.hash, golden.result.hash, "{label}: hash");
            assert_eq!(regs, golden.terminal_regs, "{label}: terminal registers");
            assert_eq!(digest, golden.mem_digest, "{label}: memory digest");

            let sub = GoldenSubstrate::record(&p, SimLimits::default()).unwrap();
            assert_eq!(sub.golden().result.hash, golden.result.hash, "{label}: substrate hash");
            assert_eq!(sub.tape.starts.len() as u64, golden.cycles(), "{label}: tape cycles");
            let mut rehash = TraceHash::new();
            for &w in &sub.tape.words {
                rehash.update(w);
            }
            assert_eq!(rehash, golden.result.hash, "{label}: the tape rehashes to the golden hash");
        }
    }

    #[test]
    fn precondition_rejects_mismatched_variants() {
        let p = toy();
        let sub = GoldenSubstrate::record(&p, SimLimits::default()).unwrap();
        // Not a permutation.
        assert!(sub.derive(&p, &[vec![0, 0, 2, 3, 4, 5]]).is_none());
        // Permutation says swap, program does not.
        assert!(sub.derive(&p, &[vec![0, 2, 1, 3, 4, 5]]).is_none());
        // Terminator moved (out of segment).
        assert!(sub.derive(&p, &[vec![0, 1, 2, 3, 5, 4]]).is_none());
        // A genuinely different program.
        let mut other = p.clone();
        other.functions[0].blocks[0].insts[0] = Inst::Nop;
        assert!(sub.derive(&other, &[(0..6).collect()]).is_none());
    }
}
