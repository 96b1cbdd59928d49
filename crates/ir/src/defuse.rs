//! Definition–use chains at (program point, register) granularity.
//!
//! Following §II of the paper:
//! * `def(p, v)` — the definitions of `v` that reach the read of `v` at `p`
//!   along some CFG path with no intervening redefinition.
//! * `use(p, v)` — for `v` *accessed* at `p`, the reads of `v` reachable from
//!   `p` along some path with no intervening redefinition. These are the
//!   observers of the fault-site window that opens after `p`.
//!
//! Data flow is not restricted to SSA: `|def(p, v)| > 1` is common after SSA
//! deconstruction.
//!
//! Representation: the per-register fixpoints run over dense bitsets of the
//! register's definition (resp. read) points — one or two `u64` words for
//! real functions — and the final chains live in flat CSR arrays indexed
//! arithmetically by `point_idx * num_regs + reg_idx`. No hashing, no
//! per-block set allocation, no re-resolving of instruction operands.

use crate::access::AccessTable;
use crate::cfg::Cfg;
use crate::function::Function;
use crate::point::{PointId, PointLayout};
use crate::program::Program;
use crate::reg::{Reg, RegMask};

/// Def–use chains of one function, in dense CSR storage.
#[derive(Clone, Debug)]
pub struct DefUse {
    nregs: u32,
    /// Per `(point, reg)`: `(offset, len)` into `def_data` (reads only).
    def_ranges: Vec<(u32, u32)>,
    /// Per `(point, reg)`: `(offset, len)` into `use_data` (accesses only).
    use_ranges: Vec<(u32, u32)>,
    def_data: Vec<PointId>,
    use_data: Vec<PointId>,
    /// Per-point read masks (minus the zero register): `is_read_site`.
    read_mask: Vec<RegMask>,
}

/// A tiny fixed-width bitset over `&mut [u64]` slices (the per-register
/// fixpoints own one contiguous buffer of `blocks × words`).
mod bits {
    pub fn insert(w: &mut [u64], i: usize) {
        w[i / 64] |= 1u64 << (i % 64);
    }
    pub fn clear(w: &mut [u64]) {
        w.fill(0);
    }
    pub fn union_into(dst: &mut [u64], src: &[u64]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d |= s;
        }
    }
    pub fn equals(a: &[u64], b: &[u64]) -> bool {
        a == b
    }
    pub fn iter_ones(w: &[u64]) -> impl Iterator<Item = usize> + '_ {
        w.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

impl DefUse {
    /// Computes def–use chains for `f`.
    ///
    /// The hardwired zero register carries no data flow and is skipped.
    pub fn compute(f: &Function, program: &Program) -> DefUse {
        let layout = PointLayout::of(f);
        let cfg = Cfg::of(f);
        let access = AccessTable::of(program, f, &layout);
        DefUse::compute_with(f, program, &layout, &cfg, &access)
    }

    /// [`DefUse::compute`] with the shared per-function context precomputed
    /// by the caller.
    pub fn compute_with(
        f: &Function,
        program: &Program,
        layout: &PointLayout,
        cfg: &Cfg,
        access: &AccessTable,
    ) -> DefUse {
        let nregs = program.config.num_regs;
        let zero = match program.config.zero_reg {
            Some(z) => RegMask::of(z),
            None => RegMask::empty(),
        };
        let np = layout.len();
        let mut du = DefUse {
            nregs,
            def_ranges: vec![(0, 0); np * nregs as usize],
            use_ranges: vec![(0, 0); np * nregs as usize],
            def_data: Vec::new(),
            use_data: Vec::new(),
            read_mask: (0..np)
                .map(|i| access.read_mask(PointId(i as u32)).difference(zero))
                .collect(),
        };
        for r in access.mentioned().difference(zero).iter() {
            du.chain_one_reg(f, layout, cfg, access, zero, r);
        }
        du
    }

    fn slot(&self, p: PointId, r: Reg) -> Option<usize> {
        (!r.is_virtual() && r.index() < self.nregs)
            .then(|| p.index() * self.nregs as usize + r.index() as usize)
    }

    fn chain_one_reg(
        &mut self,
        f: &Function,
        layout: &PointLayout,
        cfg: &Cfg,
        access: &AccessTable,
        zero: RegMask,
        r: Reg,
    ) {
        let nb = f.blocks.len();
        let reads = |p: PointId| access.read_mask(p).difference(zero).contains(r);
        let writes = |p: PointId| access.write_mask(p).contains(r);

        // Dense numbering of r's definition and read points.
        let mut def_points: Vec<PointId> = Vec::new();
        let mut read_points: Vec<PointId> = Vec::new();
        for p in layout.iter() {
            if writes(p) {
                def_points.push(p);
            }
            if reads(p) {
                read_points.push(p);
            }
        }
        let def_id = |p: PointId| def_points.binary_search(&p).expect("definition point");
        let read_id = |p: PointId| read_points.binary_search(&p).expect("read point");

        // --- Forward: reaching definitions of r. ---
        // Block transfer: a block with a definition exports exactly its last
        // def; a block without one passes the union of its predecessors.
        let dwords = def_points.len().div_ceil(64).max(1);
        let mut last_def: Vec<Option<usize>> = vec![None; nb];
        for (i, &d) in def_points.iter().enumerate() {
            last_def[layout.block_of(d).index()] = Some(i);
        }
        let mut block_out = vec![0u64; nb * dwords];
        let mut scratch = vec![0u64; dwords];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.reverse_postorder() {
                let bi = b.index();
                bits::clear(&mut scratch);
                if let Some(d) = last_def[bi] {
                    bits::insert(&mut scratch, d);
                } else {
                    for &pr in cfg.predecessors(b) {
                        let (lo, hi) = (pr.index() * dwords, (pr.index() + 1) * dwords);
                        // Split borrow: scratch is separate storage.
                        bits::union_into(&mut scratch, &block_out[lo..hi]);
                    }
                }
                let out = &mut block_out[bi * dwords..(bi + 1) * dwords];
                if !bits::equals(out, &scratch) {
                    out.copy_from_slice(&scratch);
                    changed = true;
                }
            }
        }
        // Local walk to answer def(p, r) per read.
        let mut cur = vec![0u64; dwords];
        for (bi, blk) in f.blocks.iter().enumerate() {
            let b = crate::function::BlockId(bi as u32);
            bits::clear(&mut cur);
            for &pr in cfg.predecessors(b) {
                bits::union_into(
                    &mut cur,
                    &block_out[pr.index() * dwords..(pr.index() + 1) * dwords],
                );
            }
            for off in 0..blk.point_count() {
                let p = layout.point(b, off);
                if reads(p) {
                    let start = self.def_data.len() as u32;
                    self.def_data.extend(bits::iter_ones(&cur).map(|i| def_points[i]));
                    let len = self.def_data.len() as u32 - start;
                    let slot = self.slot(p, r).expect("machine register");
                    self.def_ranges[slot] = (start, len);
                }
                if writes(p) {
                    bits::clear(&mut cur);
                    bits::insert(&mut cur, def_id(p));
                }
            }
        }

        // --- Backward: readers reachable without redefinition. ---
        let rwords = read_points.len().div_ceil(64).max(1);
        let mut block_in = vec![0u64; nb * rwords];
        let mut scratch = vec![0u64; rwords];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.postorder() {
                let bi = b.index();
                bits::clear(&mut scratch);
                for &s in cfg.successors(b) {
                    bits::union_into(
                        &mut scratch,
                        &block_in[s.index() * rwords..(s.index() + 1) * rwords],
                    );
                }
                let blk = f.block(b);
                for off in (0..blk.point_count()).rev() {
                    let p = layout.point(b, off);
                    if writes(p) {
                        bits::clear(&mut scratch);
                    }
                    if reads(p) {
                        bits::insert(&mut scratch, read_id(p));
                    }
                }
                let inb = &mut block_in[bi * rwords..(bi + 1) * rwords];
                if !bits::equals(inb, &scratch) {
                    inb.copy_from_slice(&scratch);
                    changed = true;
                }
            }
        }
        // Local walk to answer use(p, r) per access.
        let mut cur = vec![0u64; rwords];
        for (bi, blk) in f.blocks.iter().enumerate() {
            let b = crate::function::BlockId(bi as u32);
            bits::clear(&mut cur);
            for &s in cfg.successors(b) {
                bits::union_into(&mut cur, &block_in[s.index() * rwords..(s.index() + 1) * rwords]);
            }
            for off in (0..blk.point_count()).rev() {
                let p = layout.point(b, off);
                if reads(p) || writes(p) {
                    // use(p, r): readers *after* p — the state before this
                    // backward step.
                    let start = self.use_data.len() as u32;
                    self.use_data.extend(bits::iter_ones(&cur).map(|i| read_points[i]));
                    let len = self.use_data.len() as u32 - start;
                    let slot = self.slot(p, r).expect("machine register");
                    self.use_ranges[slot] = (start, len);
                }
                if writes(p) {
                    bits::clear(&mut cur);
                }
                if reads(p) {
                    bits::insert(&mut cur, read_id(p));
                }
            }
        }
    }

    /// `def(p, v)`: definitions reaching the read of `v` at `p`. An empty
    /// slice means the value flows in from outside the function (an
    /// argument or uninitialized register), which analyses treat as unknown.
    pub fn defs(&self, p: PointId, v: Reg) -> &[PointId] {
        match self.slot(p, v) {
            Some(s) => {
                let (start, len) = self.def_ranges[s];
                &self.def_data[start as usize..(start + len) as usize]
            }
            None => &[],
        }
    }

    /// `use(p, v)`: reads of `v` reachable from `p` (exclusive) without an
    /// intervening redefinition. Only meaningful when `v` is accessed at `p`.
    pub fn uses(&self, p: PointId, v: Reg) -> &[PointId] {
        match self.slot(p, v) {
            Some(s) => {
                let (start, len) = self.use_ranges[s];
                &self.use_data[start as usize..(start + len) as usize]
            }
            None => &[],
        }
    }

    /// Whether the pair `(p, v)` is a recorded read site.
    pub fn is_read_site(&self, p: PointId, v: Reg) -> bool {
        self.read_mask[p.index()].contains(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::config::MachineConfig;
    use crate::function::Signature;
    use crate::reg::Reg;

    /// The paper's Fig. 4 CFG shape: a φ-join followed by a fork.
    ///
    /// ```text
    /// p0: li   t0, 5        (a = ...)
    /// p1: j join            -- modelled as straight line: v := t0
    /// p2: mv   t1, t0       (v = phi)
    /// p3: andi t2, t1, 1    (m = andi v, 1)
    /// p4: beqz t2, even     (fork)
    /// even: p5: slli t3, t1, 3 ; exit
    /// odd:  p6: slli t3, t1, 2 ; exit
    /// ```
    fn fork_fn() -> Program {
        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.li(Reg::T0, 5);
        fb.mv(Reg::T1, Reg::T0);
        fb.andi(Reg::T2, Reg::T1, 1);
        fb.beqz(Reg::T2, "even", "odd");
        fb.block("even");
        fb.slli(Reg::phys(28), Reg::T1, 3);
        fb.print(Reg::phys(28));
        fb.exit();
        fb.block("odd");
        fb.slli(Reg::phys(28), Reg::T1, 2);
        fb.print(Reg::phys(28));
        fb.exit();
        fb.finish();
        pb.finish()
    }

    #[test]
    fn uses_cross_basic_blocks() {
        let p = fork_fn();
        let f = p.entry_function();
        let du = DefUse::compute(f, &p);
        // t1 written at p1 (mv), read at p3 (andi... wait p2) and both slli.
        // Points: p0 li, p1 mv, p2 andi, p3 beqz, p4 slli(even), p5 print,
        // p6 exit, p7 slli(odd), p8 print, p9 exit.
        let uses = du.uses(PointId(1), Reg::T1);
        assert_eq!(uses, &[PointId(2), PointId(4), PointId(7)]);
        // After its read at the andi, t1 still reaches both shifts.
        let uses = du.uses(PointId(2), Reg::T1);
        assert_eq!(uses, &[PointId(4), PointId(7)]);
    }

    #[test]
    fn defs_report_reaching_definitions() {
        let p = fork_fn();
        let f = p.entry_function();
        let du = DefUse::compute(f, &p);
        assert_eq!(du.defs(PointId(2), Reg::T1), &[PointId(1)]);
        assert_eq!(du.defs(PointId(1), Reg::T0), &[PointId(0)]);
        assert!(du.is_read_site(PointId(1), Reg::T0));
        assert!(!du.is_read_site(PointId(0), Reg::T0));
    }

    #[test]
    fn multiple_defs_reach_a_join() {
        // if/else defining t0 on both arms, joined read.
        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.li(Reg::T1, 3);
        fb.beqz(Reg::T1, "a", "b");
        fb.block("a");
        fb.li(Reg::T0, 1);
        fb.jump("join");
        fb.block("b");
        fb.li(Reg::T0, 2);
        fb.jump("join");
        fb.block("join");
        fb.print(Reg::T0);
        fb.exit();
        fb.finish();
        let p = pb.finish();
        let f = p.entry_function();
        let du = DefUse::compute(f, &p);
        // print is the read; both li's reach it.
        let layout = PointLayout::of(f);
        let print_pt = layout.block_first(f.block_by_label("join").unwrap());
        assert_eq!(du.defs(print_pt, Reg::T0).len(), 2);
    }

    #[test]
    fn loop_reads_see_defs_from_prior_iterations() {
        let mut pb = ProgramBuilder::new(MachineConfig::rv32());
        let mut fb = pb.function("main", Signature::void(0));
        fb.block("entry");
        fb.li(Reg::T0, 7);
        fb.jump("loop");
        fb.block("loop");
        fb.addi(Reg::T0, Reg::T0, -1); // reads + writes t0
        fb.bnez(Reg::T0, "loop", "exit");
        fb.block("exit");
        fb.exit();
        fb.finish();
        let p = pb.finish();
        let f = p.entry_function();
        let du = DefUse::compute(f, &p);
        let layout = PointLayout::of(f);
        let addi = layout.block_first(f.block_by_label("loop").unwrap());
        // The addi's read sees the initial li and its own previous iteration.
        assert_eq!(du.defs(addi, Reg::T0).len(), 2);
        // The addi's window is observed by the branch and the next addi.
        assert_eq!(du.uses(addi, Reg::T0).len(), 2);
    }
}
