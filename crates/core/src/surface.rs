//! Use case 2: the fault-surface metric (§III-B, §VI-B, Table IV).
//!
//! The *fault surface* of a program run is the number of live fault sites in
//! bits summed over every executed program point: at each point, every live
//! register contributes its bits that are not provably masked. A returned
//! value escapes the function and contributes all its bits at the `ret`
//! point (this reproduces the paper's 681-site count for Fig. 2b).
//!
//! # The OR-mask pass
//!
//! A register's bits after point `p` are covered by the fault-site windows
//! of its most recent accesses on the paths reaching `p`; a bit is live
//! when any covering access leaves it unmasked (its coalescing class is not
//! `[s0]`), and every bit is live when no access covers `p` at all (a
//! live-in argument). Rather than collect the covering access points per
//! register, [`function_surface`] maps each access `d` of `r` to its
//! live-bit mask `mask(d, r)` once, from the analysis's
//! [`bec_ir::AccessTable`] ([`FunctionAnalysis::access`]), and carries per
//! register only a `reached` flag and the OR of the masks of the reaching
//! accesses. The join ORs flags and masks; an access of `r` at `p` resets
//! `r`'s state to `(true, mask(p, r))`. A block fixpoint in reverse
//! postorder, then one walk per block, sums `exec(p) × Σ popcount` (or
//! `xlen` when unreached) over the registers live after each point.
//!
//! This is the image of the set-based "last access" fixpoint under the map
//! `∪ ↦ |`, `{d} ↦ mask(d)`, which commutes with both the join and the
//! transfer, so every count is identical by construction; the set-based
//! form stays in `crate::reference` as the oracle
//! (`tests/surface_equivalence.rs`).

use crate::analysis::{BecAnalysis, FunctionAnalysis};
use crate::profile::ExecProfile;
use bec_ir::{BlockId, Cfg, Function, PointId, Program, RegMask, Terminator};

/// Fault-surface statistics for one program (one column of Table IV).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SurfaceRow {
    /// Benchmark / program name.
    pub name: String,
    /// Total fault space: trace cycles × register-file bits.
    pub total_fault_space: u64,
    /// Live (non-masked) fault sites over the trace — the vulnerability
    /// metric minimized by reliability-aware scheduling.
    pub live_sites: u64,
}

/// A collection of [`SurfaceRow`]s (Table IV rows for one scheduling
/// policy).
#[derive(Clone, Debug, Default)]
pub struct SurfaceReport {
    /// One row per benchmark.
    pub rows: Vec<SurfaceRow>,
}

/// Computes the fault surface of a program under an execution profile.
pub fn surface_row(
    name: &str,
    program: &Program,
    bec: &BecAnalysis,
    profile: &ExecProfile,
) -> SurfaceRow {
    let mut live_sites = 0u64;
    for (fi, fa) in bec.functions().iter().enumerate() {
        let func = &program.functions[fi];
        live_sites += function_surface(program, func, fa, |p| profile.count(fi, p));
    }
    SurfaceRow {
        name: name.to_owned(),
        total_fault_space: profile.total_cycles() * program.config.fault_bits(),
        live_sites,
    }
}

/// Fault surface of one function, weighting each point by `exec`.
///
/// One forward pass over the function's [`bec_ir::AccessTable`] (see the
/// module docs): a block fixpoint over per-register cover states in
/// reverse postorder, then one walk per block that sums each executed
/// point's live bits.
pub fn function_surface(
    program: &Program,
    func: &Function,
    fa: &FunctionAnalysis,
    exec: impl Fn(PointId) -> u64,
) -> u64 {
    let w = program.config.xlen;
    let layout = &fa.layout;
    let cfg = Cfg::of(func);
    let zero = program.config.zero_reg.map_or(RegMask::empty(), RegMask::of);
    let width = program.config.mask();

    let accessed = |p: PointId| fa.access.access_mask(p).difference(zero);
    // The live-bit mask of every accessed (point, register) pair, in point
    // order and, within a point, in ascending register order.
    let mut off = Vec::with_capacity(layout.len() + 1);
    let mut masks = Vec::new();
    off.push(0);
    for p in layout.iter() {
        for r in accessed(p).iter() {
            masks.push(!fa.coalescing.masked_bits(p, r).unwrap_or(0) & width);
        }
        off.push(masks.len());
    }
    // Applies the accesses at `p`: each accessed register's window now
    // starts at `p`.
    let access_at = |state: &mut Cover, p: PointId| {
        let regs = accessed(p);
        state.reached.union_with(regs);
        for (r, &m) in regs.iter().zip(&masks[off[p.index()]..off[p.index() + 1]]) {
            state.live[r.index() as usize] = m;
        }
    };
    let block_in = |out: &[Cover], b: BlockId| {
        let mut state = Cover::default();
        for &pr in cfg.predecessors(b) {
            state.join(&out[pr.index()]);
        }
        state
    };

    // Block fixpoint: the cover state reaching each block's end.
    let mut out = vec![Cover::default(); func.blocks.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for &b in cfg.reverse_postorder() {
            let mut state = block_in(&out, b);
            for p in layout.block_points(b) {
                access_at(&mut state, p);
            }
            if out[b.index()] != state {
                out[b.index()] = state;
                changed = true;
            }
        }
    }

    let mut total = 0u64;
    for bi in 0..func.blocks.len() {
        let b = BlockId(bi as u32);
        let mut state = block_in(&out, b);
        for p in layout.block_points(b) {
            access_at(&mut state, p);
            let n = exec(p);
            if n == 0 {
                continue;
            }
            let mut bits_here = 0u64;
            for v in fa.liveness.live_after(p) {
                bits_here += if state.reached.contains(v) {
                    u64::from(state.live[v.index() as usize].count_ones())
                } else {
                    // Live-in value with no access yet (function argument):
                    // nothing is known about masking, count every bit.
                    u64::from(w)
                };
            }
            // Returned values escape to the caller: their window stays live
            // through the ret point.
            if let Some(Terminator::Ret { reads }) = layout.resolve(func, p).as_term() {
                let distinct = reads.iter().fold(RegMask::empty(), |m, &r| m.union(RegMask::of(r)));
                bits_here += u64::from(w) * distinct.count() as u64;
            }
            total += n * bits_here;
        }
    }
    total
}

/// The per-register cover state at one moment: which registers some access
/// reaches on a path to it, and the OR of the live-bit masks of those
/// reaching accesses.
#[derive(Clone, PartialEq)]
struct Cover {
    reached: RegMask,
    live: [u64; 64],
}

impl Default for Cover {
    fn default() -> Cover {
        Cover { reached: RegMask::empty(), live: [0; 64] }
    }
}

impl Cover {
    /// Control-flow join: the union of the reaching access sets, mapped.
    fn join(&mut self, other: &Cover) {
        self.reached.union_with(other.reached);
        for (a, b) in self.live.iter_mut().zip(&other.live) {
            *a |= b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::BecOptions;
    use bec_ir::parse_program;

    /// `f`'s surface with only point `at` executed, once.
    fn surface_at(src: &str, at: u32) -> u64 {
        let program = parse_program(src).unwrap();
        let bec = BecAnalysis::analyze(&program, &BecOptions::paper());
        let fi = program.function_index("f").unwrap();
        let got = function_surface(&program, &program.functions[fi], bec.function(fi), |p| {
            u64::from(p == PointId(at))
        });
        let want = crate::reference::function_surface(
            &program,
            &program.functions[fi],
            bec.function(fi),
            |p| u64::from(p == PointId(at)),
        );
        assert_eq!(got, want, "reference disagrees at p{at}");
        got
    }

    const MAIN: &str = "func @main(args=0, ret=none) {\nentry:\n    li a0, 7\n    call @f\n    print a0\n    exit\n}\n";

    #[test]
    fn live_in_register_without_access_counts_every_bit() {
        // At p0 the argument `a0` is live but no access has opened a
        // window for it yet. Only bit 0 survives the `andi` at p1, yet the
        // window before it is unknown territory: all 32 bits count.
        let src = format!(
            "func @f(args=1, ret=a0) {{\nentry:\n    nop\n    andi a0, a0, 1\n    ret a0\n}}\n{MAIN}"
        );
        assert_eq!(surface_at(&src, 0), 32);
    }

    #[test]
    fn returned_value_escapes_at_ret() {
        // At the `ret`, the returned `a0` counts twice: its window opened
        // by the `andi` (all 32 bits reach the caller's `print`), and the
        // escape term, all 32 bits again.
        let src = format!(
            "func @f(args=1, ret=a0) {{\nentry:\n    andi a0, a0, 1\n    ret a0\n}}\n{MAIN}"
        );
        assert_eq!(surface_at(&src, 1), 64);
    }
}
