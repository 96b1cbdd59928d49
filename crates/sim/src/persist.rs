//! Persisted campaign artifacts: the byte codecs behind the
//! `bec --cache-dir` content-addressed store (`bec-cache`).
//!
//! Three artifacts cover the whole pre-campaign phase, which is exactly
//! the work a warm cache skips:
//!
//! * [`SiteVerdicts`] — the projection of a [`BecAnalysis`] a campaign
//!   actually consumes: per function, the accessed `(point, register)`
//!   site pairs in canonical order with one per-bit masked/live verdict
//!   mask each. [`SiteVerdicts::fault_space`] reproduces
//!   [`crate::shard::site_fault_space`] bit-for-bit, so a campaign driven
//!   by decoded verdicts plans the identical shard layout. Campaigns plan
//!   through a [`crate::shard::SiteTable`] over the verdicts.
//! * The golden pair — a completed [`GoldenRun`] plus its
//!   [`CheckpointLog`]. Only the raw per-cycle state is persisted; the
//!   derived lookup indexes (fault-site windows, occurrence index) are
//!   recomputed on decode through the same `derive_cycle_indexes` helper
//!   the recording path uses.
//! * The substrate triple — the golden pair plus the trace-hash word tape,
//!   rebuilding a [`GoldenSubstrate`] for `bec study`'s variant-shared
//!   derivation.
//!
//! Decoding is total and paranoid: any structural inconsistency returns an
//! error, which the cache layer translates into an eviction plus a
//! recompute — a corrupted artifact can never corrupt a report. The
//! encodings have no version field of their own; layout changes are
//! versioned through [`bec_cache::VERSION_SALT`], which is folded into
//! every cache key (old entries simply stop hitting).

use crate::checkpoint::{Checkpoint, CheckpointLog, FrameSnap, Spacing};
use crate::exec::{ExecOutcome, HashTape};
use crate::runner::{derive_cycle_indexes, GoldenRun, RunResult, SimLimits};
use crate::shard::{SiteTable, SitedFault};
use crate::substrate::GoldenSubstrate;
use crate::trace::TraceHash;
use bec_cache::wire::{ByteReader, ByteWriter};
use bec_core::{BecAnalysis, ExecProfile};
use bec_ir::{PointId, Program, Reg};

/// The campaign-facing projection of a [`BecAnalysis`]: per function, the
/// accessed `(point, register)` site pairs in canonical (first-appearance)
/// order, each register carrying a bit mask of its statically-masked bits.
/// Everything [`crate::shard::site_fault_space`] reads from an analysis,
/// nothing more — which is what makes it small enough to persist and
/// sufficient to re-plan a byte-identical campaign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteVerdicts {
    /// Register width in bits (≤ 64; registers are `u64`).
    pub(crate) xlen: u32,
    /// Per function: `(point, registers-in-site-order)`, each register with
    /// the mask of bits the analysis proved masked (bit `b` set ⇔ the
    /// verdict for bit `b` is masked).
    pub(crate) funcs: Vec<FuncSites>,
}

/// One function's verdicts: `(point, registers-in-site-order)` pairs, each
/// register carrying its statically-masked bit mask.
type FuncSites = Vec<(PointId, Vec<(Reg, u64)>)>;

impl SiteVerdicts {
    /// Extracts the verdicts of `bec` over `program`, in the exact order
    /// [`crate::shard::site_fault_space`] enumerates them.
    ///
    /// # Panics
    ///
    /// Panics when an accessed site has no verdict — the same invariant
    /// `site_fault_space` asserts.
    pub fn of(program: &Program, bec: &BecAnalysis) -> SiteVerdicts {
        let xlen = program.config.xlen;
        assert!(xlen <= 64, "register bits beyond u64 are not representable");
        let funcs = bec
            .functions()
            .iter()
            .map(|fa| {
                // Regroup the (point, register) site pairs by point,
                // preserving first-appearance order — the canonical
                // fault-space order.
                let mut points: Vec<(PointId, Vec<(Reg, u64)>)> = Vec::new();
                for (p, r) in fa.coalescing.nodes().site_pairs() {
                    let mask =
                        fa.coalescing.masked_bits(p, r).expect("accessed site has a verdict");
                    match points.last_mut() {
                        Some((lp, regs)) if *lp == p => regs.push((r, mask)),
                        _ => points.push((p, vec![(r, mask)])),
                    }
                }
                points
            })
            .collect();
        SiteVerdicts { xlen, funcs }
    }

    /// Enumerates the classified fault space over `golden` — the decoded
    /// twin of [`crate::shard::site_fault_space`], bit-for-bit identical
    /// for verdicts extracted from the same analysis. Collects
    /// [`SiteTable::iter`]; planning a sample goes through
    /// [`SiteTable::plan`] instead, which never builds this list.
    pub fn fault_space(&self, golden: &GoldenRun) -> Vec<SitedFault> {
        SiteTable::new(self, golden).to_vec()
    }
}

fn put_reg(w: &mut ByteWriter, r: Reg) {
    w.u8(u8::from(r.is_virtual()));
    w.u32(r.index());
}

fn get_reg(r: &mut ByteReader<'_>) -> Result<Reg, String> {
    let virt = r.u8()? != 0;
    let idx = r.u32()?;
    if idx >= 1 << 31 {
        return Err(format!("implausible register index {idx}"));
    }
    Ok(if virt { Reg::virt(idx) } else { Reg::phys(idx) })
}

/// Encodes a [`SiteVerdicts`].
pub fn encode_verdicts(v: &SiteVerdicts) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(v.xlen);
    w.usize(v.funcs.len());
    for points in &v.funcs {
        w.usize(points.len());
        for (p, regs) in points {
            w.u32(p.0);
            w.usize(regs.len());
            for &(r, mask) in regs {
                put_reg(&mut w, r);
                w.u64(mask);
            }
        }
    }
    w.finish()
}

/// Decodes a [`SiteVerdicts`].
///
/// # Errors
///
/// Returns a message on any truncation or implausible length.
pub fn decode_verdicts(bytes: &[u8]) -> Result<SiteVerdicts, String> {
    let mut r = ByteReader::new(bytes);
    let xlen = r.u32()?;
    if xlen == 0 || xlen > 64 {
        return Err(format!("implausible xlen {xlen}"));
    }
    let nfuncs = r.len_prefix(8)?;
    let mut funcs = Vec::with_capacity(nfuncs);
    for _ in 0..nfuncs {
        let npoints = r.len_prefix(8)?;
        let mut points = Vec::with_capacity(npoints);
        for _ in 0..npoints {
            let p = PointId(r.u32()?);
            let nregs = r.len_prefix(13)?;
            let mut regs = Vec::with_capacity(nregs);
            for _ in 0..nregs {
                let reg = get_reg(&mut r)?;
                regs.push((reg, r.u64()?));
            }
            points.push((p, regs));
        }
        funcs.push(points);
    }
    r.done()?;
    Ok(SiteVerdicts { xlen, funcs })
}

fn put_hash(w: &mut ByteWriter, h: TraceHash) {
    let (a, b) = h.parts();
    w.u64(a);
    w.u64(b);
}

fn get_hash(r: &mut ByteReader<'_>) -> Result<TraceHash, String> {
    Ok(TraceHash::from_parts(r.u64()?, r.u64()?))
}

fn put_u64s(w: &mut ByteWriter, vs: &[u64]) {
    w.usize(vs.len());
    for &v in vs {
        w.u64(v);
    }
}

fn get_u64s(r: &mut ByteReader<'_>) -> Result<Vec<u64>, String> {
    let n = r.len_prefix(8)?;
    (0..n).map(|_| r.u64()).collect()
}

fn put_golden(w: &mut ByteWriter, golden: &GoldenRun) {
    put_u64s(w, &golden.result.outputs);
    w.u64(golden.result.cycles);
    put_hash(w, golden.result.hash);
    w.u128(golden.mem_digest);
    put_u64s(w, &golden.terminal_regs);
    // Profile entries sorted by key so the encoding is canonical.
    let mut entries: Vec<((usize, PointId), u64)> = golden.profile.iter().collect();
    entries.sort_unstable_by_key(|&((f, p), _)| (f, p.0));
    w.usize(entries.len());
    for ((f, p), n) in entries {
        w.usize(f);
        w.u32(p.0);
        w.u64(n);
    }
    w.usize(golden.cycle_map.len());
    for &(f, p, d) in &golden.cycle_map {
        w.u32(f);
        w.u32(p.0);
        w.u32(d);
    }
}

fn get_golden(r: &mut ByteReader<'_>) -> Result<GoldenRun, String> {
    let outputs = get_u64s(r)?;
    let cycles = r.u64()?;
    let hash = get_hash(r)?;
    let mem_digest = r.u128()?;
    let terminal_regs = get_u64s(r)?;
    let nprofile = r.len_prefix(20)?;
    let mut profile = ExecProfile::new();
    for _ in 0..nprofile {
        let f = r.usize()?;
        let p = PointId(r.u32()?);
        profile.set(f, p, r.u64()?);
    }
    let ncycles = r.len_prefix(12)?;
    if ncycles as u64 != cycles {
        return Err(format!("cycle map length {ncycles} disagrees with cycle count {cycles}"));
    }
    let mut cycle_map = Vec::with_capacity(ncycles);
    for _ in 0..ncycles {
        cycle_map.push((r.u32()?, PointId(r.u32()?), r.u32()?));
    }
    let (next_same_depth, occurrence_index) = derive_cycle_indexes(&cycle_map);
    Ok(GoldenRun {
        // Only completed golden runs are ever persisted (encoders assert,
        // cache writers check): a timeout/crash golden cannot anchor a
        // campaign, so the outcome needs no wire representation.
        result: RunResult { outcome: ExecOutcome::Completed, outputs, cycles, hash },
        profile,
        cycle_map,
        next_same_depth,
        occurrence_index,
        terminal_regs,
        mem_digest,
    })
}

fn put_ckpts(w: &mut ByteWriter, log: &CheckpointLog) {
    match log.spacing {
        Spacing::Uniform(n) => {
            w.u8(0);
            w.u64(n);
            w.u64(0);
        }
        Spacing::Aligned { spacing, next } => {
            w.u8(1);
            w.u64(spacing);
            w.u64(next);
        }
    }
    w.u64(log.final_cycles);
    w.u64(log.final_steps);
    w.u8(u8::from(log.completed));
    w.usize(log.checkpoints.len());
    for ck in &log.checkpoints {
        w.u64(ck.cycle);
        w.u64(ck.steps);
        w.u32(ck.pos.0);
        w.u32(ck.pos.1);
        w.usize(ck.stack.len());
        for f in &ck.stack {
            w.u32(f.func);
            w.u32(f.ret_pc);
            w.u64(f.ra_token);
        }
        put_u64s(w, &ck.regs);
        put_hash(w, ck.hash);
        w.u128(ck.mem_digest);
        w.u32(ck.outputs_len);
        w.usize(ck.mem_image.len());
        for &(widx, word) in &ck.mem_image {
            w.u32(widx);
            w.u32(word);
        }
        put_u64s(w, &ck.live_bits);
    }
}

fn get_ckpts(r: &mut ByteReader<'_>) -> Result<CheckpointLog, String> {
    let spacing = match r.u8()? {
        0 => {
            let n = r.u64()?;
            let _ = r.u64()?;
            Spacing::Uniform(n)
        }
        1 => Spacing::Aligned { spacing: r.u64()?, next: r.u64()? },
        t => return Err(format!("unknown spacing tag {t}")),
    };
    let final_cycles = r.u64()?;
    let final_steps = r.u64()?;
    let completed = r.u8()? != 0;
    let ncks = r.len_prefix(8)?;
    let mut checkpoints = Vec::with_capacity(ncks);
    for _ in 0..ncks {
        let cycle = r.u64()?;
        let steps = r.u64()?;
        let pos = (r.u32()?, r.u32()?);
        let nstack = r.len_prefix(16)?;
        let mut stack = Vec::with_capacity(nstack);
        for _ in 0..nstack {
            stack.push(FrameSnap { func: r.u32()?, ret_pc: r.u32()?, ra_token: r.u64()? });
        }
        let regs = get_u64s(r)?;
        let hash = get_hash(r)?;
        let mem_digest = r.u128()?;
        let outputs_len = r.u32()?;
        let nimage = r.len_prefix(8)?;
        let mut mem_image = Vec::with_capacity(nimage);
        for _ in 0..nimage {
            mem_image.push((r.u32()?, r.u32()?));
        }
        let live_bits = get_u64s(r)?;
        checkpoints.push(Checkpoint {
            cycle,
            steps,
            pos,
            stack,
            regs,
            hash,
            mem_digest,
            outputs_len,
            mem_image,
            live_bits,
        });
    }
    if checkpoints.windows(2).any(|w| w[0].cycle >= w[1].cycle) {
        return Err("checkpoint cycles not strictly increasing".into());
    }
    Ok(CheckpointLog { spacing, checkpoints, final_cycles, final_steps, completed })
}

/// Encodes a golden pair (a *completed* golden run plus its checkpoint
/// log).
///
/// # Panics
///
/// Panics when the golden run did not complete — incomplete goldens are
/// campaign errors upstream and must never be persisted.
pub fn encode_golden(golden: &GoldenRun, ckpts: &CheckpointLog) -> Vec<u8> {
    assert_eq!(golden.result.outcome, ExecOutcome::Completed, "only completed goldens persist");
    let mut w = ByteWriter::new();
    put_golden(&mut w, golden);
    put_ckpts(&mut w, ckpts);
    w.finish()
}

/// Decodes a golden pair written by [`encode_golden`].
///
/// # Errors
///
/// Returns a message on any truncation or structural inconsistency.
pub fn decode_golden(bytes: &[u8]) -> Result<(GoldenRun, CheckpointLog), String> {
    let mut r = ByteReader::new(bytes);
    let golden = get_golden(&mut r)?;
    let ckpts = get_ckpts(&mut r)?;
    r.done()?;
    Ok((golden, ckpts))
}

/// Encodes a [`GoldenSubstrate`]: the golden pair plus the trace-hash word
/// tape. The baseline program itself is *not* persisted — it is an input
/// of the cache key, so the decoder receives it from the caller.
pub fn encode_substrate(sub: &GoldenSubstrate) -> Vec<u8> {
    let (golden, ckpts, tape) = sub.parts();
    let mut w = ByteWriter::new();
    put_golden(&mut w, golden);
    put_ckpts(&mut w, ckpts);
    put_u64s(&mut w, &tape.words);
    w.usize(tape.starts.len());
    for &s in &tape.starts {
        w.u32(s);
    }
    w.finish()
}

/// Decodes a substrate written by [`encode_substrate`], rebuilding the
/// segment map from `program` (which the cache key guarantees is the
/// recorded baseline).
///
/// # Errors
///
/// Returns a message on any truncation or structural inconsistency.
pub fn decode_substrate(
    bytes: &[u8],
    program: &Program,
    limits: SimLimits,
) -> Result<GoldenSubstrate, String> {
    let mut r = ByteReader::new(bytes);
    let golden = get_golden(&mut r)?;
    let ckpts = get_ckpts(&mut r)?;
    let words = get_u64s(&mut r)?;
    let nstarts = r.len_prefix(4)?;
    let mut starts = Vec::with_capacity(nstarts);
    for _ in 0..nstarts {
        let s = r.u32()?;
        if s as usize > words.len() {
            return Err(format!("tape start {s} past {} words", words.len()));
        }
        starts.push(s);
    }
    if starts.len() as u64 != golden.cycles() {
        return Err("tape cycle count disagrees with golden run".into());
    }
    r.done()?;
    let tape = HashTape { words, starts };
    Ok(GoldenSubstrate::from_parts(program, golden, ckpts, tape, limits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Simulator;
    use crate::shard::site_fault_space;
    use bec_core::BecOptions;
    use bec_ir::parse_program;

    fn toy() -> Program {
        parse_program(
            r#"
global buf: word[2] = { 5, 6 }
func @main(args=0, ret=none) {
entry:
    la t0, @buf
    li t1, 3
    j loop
loop:
    lw t2, 0(t0)
    add t2, t2, t1
    sw t2, 0(t0)
    addi t1, t1, -1
    bnez t1, loop
exit:
    lw t3, 0(t0)
    print t3
    exit
}
"#,
        )
        .unwrap()
    }

    #[test]
    fn verdicts_reproduce_the_fault_space_exactly() {
        let p = toy();
        let bec = BecAnalysis::analyze(&p, &BecOptions::paper());
        let sim = Simulator::new(&p);
        let golden = sim.run_golden();
        let direct = site_fault_space(&p, &bec, &golden);
        let v = SiteVerdicts::of(&p, &bec);
        assert_eq!(v.fault_space(&golden), direct);
        let decoded = decode_verdicts(&encode_verdicts(&v)).unwrap();
        assert_eq!(decoded, v);
        assert_eq!(decoded.fault_space(&golden), direct);
    }

    #[test]
    fn golden_pair_roundtrips_through_the_codec() {
        let p = toy();
        let sim = Simulator::new(&p);
        let (golden, ckpts) = sim.run_golden_aligned();
        let bytes = encode_golden(&golden, &ckpts);
        let (g2, c2) = decode_golden(&bytes).unwrap();
        assert_eq!(g2.result.outcome, golden.result.outcome);
        assert_eq!(g2.result.outputs, golden.result.outputs);
        assert_eq!(g2.result.hash, golden.result.hash);
        assert_eq!(g2.cycles(), golden.cycles());
        assert_eq!(g2.cycle_map, golden.cycle_map);
        assert_eq!(g2.next_same_depth, golden.next_same_depth);
        assert_eq!(g2.occurrence_index, golden.occurrence_index);
        assert_eq!(g2.terminal_regs, golden.terminal_regs);
        assert_eq!(g2.mem_digest, golden.mem_digest);
        assert_eq!(
            g2.profile.iter().collect::<std::collections::HashMap<_, _>>(),
            golden.profile.iter().collect::<std::collections::HashMap<_, _>>()
        );
        assert_eq!(c2, ckpts);
    }

    #[test]
    fn substrate_roundtrip_still_derives_variants() {
        let mut v = toy();
        // Swap the two independent instructions of the entry block.
        v.functions[0].blocks[0].insts.swap(0, 1);
        let perm = vec![vec![1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 10]];
        let p = toy();
        let sub = GoldenSubstrate::record(&p, SimLimits::default()).unwrap();
        let d1 = sub.derive(&v, &perm).expect("swap admits");
        let back = decode_substrate(&encode_substrate(&sub), &p, SimLimits::default()).unwrap();
        let d2 = back.derive(&v, &perm).expect("decoded substrate still admits");
        assert_eq!(d1.golden.result.hash, d2.golden.result.hash);
        assert_eq!(d1.ckpts, d2.ckpts);
        assert_eq!(d1.replay_cycles, d2.replay_cycles);
    }

    #[test]
    fn truncated_artifacts_fail_to_decode() {
        let p = toy();
        let sim = Simulator::new(&p);
        let (golden, ckpts) = sim.run_golden_aligned();
        let bytes = encode_golden(&golden, &ckpts);
        for cut in [0, 1, 7, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_golden(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        // Trailing garbage is rejected too.
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_golden(&long).is_err());
    }
}
