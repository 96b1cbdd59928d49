//! The retained *reference* solver: the seed repository's naive, map-based
//! analysis pipeline, kept verbatim-in-spirit as the oracle for the dense
//! engine.
//!
//! The dense engine (`bitvalue`, `fault`, `coalesce`) replaced hashed
//! per-pair storage, FIFO worklists and per-visit allocations with flat
//! arrays, an RPO priority worklist and arena node ids. This module keeps
//! the old data layout alive — `HashMap<(PointId, Reg), …>` values,
//! `BTreeSet` def–use fixpoints, node-interning maps, interned-universe
//! liveness bitsets — for two jobs:
//!
//! 1. **Equivalence**: `crates/core/tests/dense_equivalence.rs` pins that
//!    both engines produce the same [`SiteVerdict`] for every fault site of
//!    every suite benchmark (the intra-instruction rules themselves are
//!    shared through the [`ValueQuery`]/[`NodeQuery`] traits, so the test
//!    isolates exactly the parts that were rewritten).
//! 2. **Benchmarking**: `analysis_scaling` measures dense-vs-reference
//!    end-to-end analysis throughput; the reference is the seed baseline.
//!
//! [`function_surface`] keeps the set-based fault-surface algorithm the
//! same way: a per-register `BTreeSet<PointId>` "last access" fixpoint and
//! a union-find lookup per bit, per covering access. The workspace's
//! `tests/surface_equivalence.rs` pins [`crate::surface::function_surface`]
//! (the one-pass OR-mask form) to it.
//!
//! Nothing here is exported from the crate root; the module is `#[doc
//! (hidden)]` and not part of the supported API.

use crate::analysis::{BecOptions, FunctionAnalysis, SiteVerdict};
use crate::arrival::IntraRules;
use crate::bitvalue::{transfer, ValueQuery};
use crate::fault::{NodeQuery, S0};
use bec_dataflow::{AbsValue, UnionFind};
use bec_ir::{Cfg, Function, MachineConfig, PointId, PointLayout, Program, Reg, Terminator};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// The seed liveness analysis: an interned register universe with
/// heap-allocated bitsets per point (the layout `bec_ir::Liveness` replaced
/// with one `RegMask` word per point). Retained so the liveness rewrite is
/// *inside* the equivalence oracle, not on both sides of it.
#[derive(Clone, Debug, Default)]
struct RefRegUniverse {
    regs: Vec<Reg>,
    index: HashMap<Reg, usize>,
}

impl RefRegUniverse {
    fn of(f: &Function, program: &Program) -> RefRegUniverse {
        let mut u = RefRegUniverse::default();
        let layout = PointLayout::of(f);
        for p in layout.iter() {
            let pi = layout.resolve(f, p);
            for r in pi.reads(program).into_iter().chain(pi.writes(program)) {
                u.intern(r);
            }
        }
        for r in f.sig.arg_regs() {
            u.intern(r);
        }
        u
    }

    fn intern(&mut self, r: Reg) -> usize {
        if let Some(&i) = self.index.get(&r) {
            return i;
        }
        let i = self.regs.len();
        self.regs.push(r);
        self.index.insert(r, i);
        i
    }

    fn id(&self, r: Reg) -> Option<usize> {
        self.index.get(&r).copied()
    }

    fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.regs.iter().copied()
    }

    fn len(&self) -> usize {
        self.regs.len()
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct RefRegSet {
    words: Vec<u64>,
}

impl RefRegSet {
    fn empty(n: usize) -> RefRegSet {
        RefRegSet { words: vec![0; n.div_ceil(64)] }
    }

    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn union_with(&mut self, other: &RefRegSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }
}

/// Seed per-point liveness (backward dataflow over `RefRegSet`s).
#[derive(Clone, Debug)]
pub struct RefLiveness {
    universe: RefRegUniverse,
    live_after: Vec<RefRegSet>,
}

impl RefLiveness {
    /// Computes per-point liveness for `f` (seed algorithm).
    pub fn compute(f: &Function, program: &Program) -> RefLiveness {
        let universe = RefRegUniverse::of(f, program);
        let layout = PointLayout::of(f);
        let cfg = Cfg::of(f);
        let n = universe.len();
        let zero = program.config.zero_reg;

        let reg_ids = |regs: Vec<Reg>| -> Vec<usize> {
            regs.into_iter().filter(|r| Some(*r) != zero).filter_map(|r| universe.id(r)).collect()
        };

        // Registers live out of a `ret`: the ABI-preserved set plus the
        // return-value registers. Empty for the entry function.
        let mut ret_seed = RefRegSet::empty(n);
        if f.name != program.entry {
            for r in universe.iter() {
                if (r == Reg::RA || r.is_callee_saved()) && Some(r) != zero {
                    ret_seed.insert(universe.id(r).expect("universe member"));
                }
            }
        }
        let exit_seeds: Vec<Option<RefRegSet>> = f
            .blocks
            .iter()
            .map(|blk| {
                if f.name == program.entry {
                    return None;
                }
                match &blk.term {
                    bec_ir::inst::TerminatorKind::Ret { reads } => {
                        let mut seed = ret_seed.clone();
                        for id in reg_ids(reads.clone()) {
                            seed.insert(id);
                        }
                        Some(seed)
                    }
                    _ => None,
                }
            })
            .collect();
        let block_exit_live =
            |b: bec_ir::BlockId| -> Option<&RefRegSet> { exit_seeds[b.index()].as_ref() };

        // Block-level fixpoint on live-in sets.
        let nb = f.blocks.len();
        let mut block_live_in = vec![RefRegSet::empty(n); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.postorder() {
                let mut live = RefRegSet::empty(n);
                for &s in cfg.successors(b) {
                    live.union_with(&block_live_in[s.index()]);
                }
                if let Some(seed) = block_exit_live(b) {
                    live.union_with(seed);
                }
                let blk = f.block(b);
                for off in (0..blk.point_count()).rev() {
                    let p = layout.point(b, off);
                    let pi = layout.resolve(f, p);
                    for w in reg_ids(pi.writes(program)) {
                        live.remove(w);
                    }
                    for r in reg_ids(pi.reads(program)) {
                        live.insert(r);
                    }
                }
                if block_live_in[b.index()] != live {
                    block_live_in[b.index()] = live;
                    changed = true;
                }
            }
        }

        // Final pass: record live-after per point.
        let mut live_after = vec![RefRegSet::empty(n); layout.len()];
        for (bi, blk) in f.blocks.iter().enumerate() {
            let b = bec_ir::BlockId(bi as u32);
            let mut live = RefRegSet::empty(n);
            for &s in cfg.successors(b) {
                live.union_with(&block_live_in[s.index()]);
            }
            if let Some(seed) = block_exit_live(b) {
                live.union_with(seed);
            }
            for off in (0..blk.point_count()).rev() {
                let p = layout.point(b, off);
                live_after[p.index()] = live.clone();
                let pi = layout.resolve(f, p);
                for w in reg_ids(pi.writes(program)) {
                    live.remove(w);
                }
                for r in reg_ids(pi.reads(program)) {
                    live.insert(r);
                }
            }
        }

        RefLiveness { universe, live_after }
    }

    /// Whether `r` is live immediately after point `p` (seed semantics).
    pub fn is_live_after(&self, p: PointId, r: Reg) -> bool {
        self.universe.id(r).is_some_and(|i| self.live_after[p.index()].contains(i))
    }
}

/// Def–use chains in the seed layout: hash maps of sorted vectors, computed
/// by per-register `BTreeSet` fixpoints that re-resolve instruction
/// operands on every visit.
#[derive(Clone, Debug)]
pub struct RefDefUse {
    reaching: HashMap<(PointId, Reg), Vec<PointId>>,
    users: HashMap<(PointId, Reg), Vec<PointId>>,
}

impl RefDefUse {
    /// Computes def–use chains for `f` (seed algorithm).
    pub fn compute(f: &Function, program: &Program) -> RefDefUse {
        let layout = PointLayout::of(f);
        let cfg = Cfg::of(f);
        let zero = program.config.zero_reg;

        let mut regs: BTreeSet<Reg> = BTreeSet::new();
        for p in layout.iter() {
            let pi = layout.resolve(f, p);
            regs.extend(pi.reads(program));
            regs.extend(pi.writes(program));
        }
        if let Some(z) = zero {
            regs.remove(&z);
        }

        let mut du = RefDefUse { reaching: HashMap::new(), users: HashMap::new() };
        for &r in &regs {
            du.chain_one_reg(f, program, &layout, &cfg, r);
        }
        du
    }

    fn chain_one_reg(
        &mut self,
        f: &Function,
        program: &Program,
        layout: &PointLayout,
        cfg: &Cfg,
        r: Reg,
    ) {
        let nb = f.blocks.len();

        // --- Forward: reaching definitions of r. ---
        let mut block_out: Vec<BTreeSet<PointId>> = vec![BTreeSet::new(); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.reverse_postorder() {
                let mut defs: BTreeSet<PointId> = BTreeSet::new();
                for &pr in cfg.predecessors(b) {
                    defs.extend(block_out[pr.index()].iter().copied());
                }
                let blk = f.block(b);
                for off in 0..blk.point_count() {
                    let p = layout.point(b, off);
                    let pi = layout.resolve(f, p);
                    if pi.writes(program).contains(&r) {
                        defs.clear();
                        defs.insert(p);
                    }
                }
                if block_out[b.index()] != defs {
                    block_out[b.index()] = defs;
                    changed = true;
                }
            }
        }
        for (bi, blk) in f.blocks.iter().enumerate() {
            let b = bec_ir::BlockId(bi as u32);
            let mut defs: BTreeSet<PointId> = BTreeSet::new();
            for &pr in cfg.predecessors(b) {
                defs.extend(block_out[pr.index()].iter().copied());
            }
            for off in 0..blk.point_count() {
                let p = layout.point(b, off);
                let pi = layout.resolve(f, p);
                if pi.reads(program).contains(&r) {
                    self.reaching.insert((p, r), defs.iter().copied().collect());
                }
                if pi.writes(program).contains(&r) {
                    defs.clear();
                    defs.insert(p);
                }
            }
        }

        // --- Backward: readers reachable without redefinition. ---
        let mut block_in: Vec<BTreeSet<PointId>> = vec![BTreeSet::new(); nb];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &cfg.postorder() {
                let mut rd: BTreeSet<PointId> = BTreeSet::new();
                for &s in cfg.successors(b) {
                    rd.extend(block_in[s.index()].iter().copied());
                }
                let blk = f.block(b);
                for off in (0..blk.point_count()).rev() {
                    let p = layout.point(b, off);
                    let pi = layout.resolve(f, p);
                    if pi.writes(program).contains(&r) {
                        rd.clear();
                    }
                    if pi.reads(program).contains(&r) {
                        rd.insert(p);
                    }
                }
                if block_in[b.index()] != rd {
                    block_in[b.index()] = rd;
                    changed = true;
                }
            }
        }
        for (bi, blk) in f.blocks.iter().enumerate() {
            let b = bec_ir::BlockId(bi as u32);
            let mut rd: BTreeSet<PointId> = BTreeSet::new();
            for &s in cfg.successors(b) {
                rd.extend(block_in[s.index()].iter().copied());
            }
            for off in (0..blk.point_count()).rev() {
                let p = layout.point(b, off);
                let pi = layout.resolve(f, p);
                let accesses = pi.reads(program).contains(&r) || pi.writes(program).contains(&r);
                if accesses {
                    self.users.insert((p, r), rd.iter().copied().collect());
                }
                if pi.writes(program).contains(&r) {
                    rd.clear();
                }
                if pi.reads(program).contains(&r) {
                    rd.insert(p);
                }
            }
        }
    }

    /// `def(p, v)` (seed semantics).
    pub fn defs(&self, p: PointId, v: Reg) -> &[PointId] {
        self.reaching.get(&(p, v)).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `use(p, v)` (seed semantics).
    pub fn uses(&self, p: PointId, v: Reg) -> &[PointId] {
        self.users.get(&(p, v)).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// The seed bit-value solver: hashed in/out maps and a FIFO worklist.
#[derive(Clone, Debug)]
pub struct RefBitValues {
    width: u32,
    in_vals: HashMap<(PointId, Reg), AbsValue>,
    out_vals: HashMap<(PointId, Reg), AbsValue>,
}

impl RefBitValues {
    /// Runs the seed fixpoint on `func` of `program`.
    pub fn compute(program: &Program, func: &Function, du: &RefDefUse) -> RefBitValues {
        let config = &program.config;
        let layout = PointLayout::of(func);
        let width = config.xlen;
        let mut bv = RefBitValues { width, in_vals: HashMap::new(), out_vals: HashMap::new() };

        let mut queue: VecDeque<PointId> = layout.iter().collect();
        let mut queued: Vec<bool> = vec![true; layout.len()];
        while let Some(p) = queue.pop_front() {
            queued[p.index()] = false;
            let pi = layout.resolve(func, p);

            let reads = pi.reads(program);
            for &u in &reads {
                let v = bv.incoming(config, du, p, u);
                bv.in_vals.insert((p, u), v);
            }

            // Fresh buffer per visit: the seed transfer returned a new
            // `Vec`, and the reference keeps that allocation profile.
            let mut writes = Vec::new();
            transfer(config, program, pi, |r| bv.read_val(config, p, r), &mut writes);
            for (r, val) in writes {
                if config.is_zero_reg(r) {
                    continue;
                }
                let slot = bv.out_vals.entry((p, r)).or_insert_with(|| AbsValue::bottom(width));
                let new = slot.meet(&val);
                if new != *slot {
                    *slot = new;
                    for &q in du.uses(p, r) {
                        if !queued[q.index()] {
                            queued[q.index()] = true;
                            queue.push_back(q);
                        }
                    }
                }
            }
        }
        bv
    }

    fn incoming(&self, config: &MachineConfig, du: &RefDefUse, p: PointId, u: Reg) -> AbsValue {
        if config.is_zero_reg(u) {
            return AbsValue::constant(self.width, 0);
        }
        let defs = du.defs(p, u);
        if defs.is_empty() {
            return AbsValue::top(self.width);
        }
        let mut acc = AbsValue::bottom(self.width);
        for &d in defs {
            let dv =
                self.out_vals.get(&(d, u)).copied().unwrap_or_else(|| AbsValue::bottom(self.width));
            acc = acc.meet(&dv);
        }
        acc
    }

    fn read_val(&self, config: &MachineConfig, p: PointId, r: Reg) -> AbsValue {
        if config.is_zero_reg(r) {
            return AbsValue::constant(self.width, 0);
        }
        self.in_vals.get(&(p, r)).copied().unwrap_or_else(|| AbsValue::top(self.width))
    }

    /// `k(p, v)` for `v` read at `p` (seed semantics).
    pub fn value_in(&self, p: PointId, r: Reg) -> AbsValue {
        self.in_vals.get(&(p, r)).copied().unwrap_or_else(|| AbsValue::top(self.width))
    }

    /// `k(p, v)` after `p` (seed semantics).
    pub fn value_after(&self, p: PointId, r: Reg) -> AbsValue {
        self.out_vals
            .get(&(p, r))
            .or_else(|| self.in_vals.get(&(p, r)))
            .copied()
            .unwrap_or_else(|| AbsValue::top(self.width))
    }
}

impl ValueQuery for RefBitValues {
    fn value_in(&self, p: PointId, r: Reg) -> AbsValue {
        RefBitValues::value_in(self, p, r)
    }
}

/// The seed node table: interning hash maps from `(point, reg)` to node
/// range bases.
#[derive(Clone, Debug)]
pub struct RefNodeTable {
    width: u32,
    site_base: HashMap<(PointId, Reg), u32>,
    arrival_base: HashMap<(PointId, Reg), u32>,
    site_of_base: Vec<(PointId, Reg)>,
    len: usize,
}

impl RefNodeTable {
    /// Allocates nodes in the seed's interning order (reads then writes per
    /// point) — the same order the dense table uses, so node ids agree.
    pub fn build(program: &Program, func: &Function, layout: &PointLayout) -> RefNodeTable {
        let width = program.config.xlen;
        let mut t = RefNodeTable {
            width,
            site_base: HashMap::new(),
            arrival_base: HashMap::new(),
            site_of_base: Vec::new(),
            len: 1, // node 0 = s0
        };
        for p in layout.iter() {
            let pi = layout.resolve(func, p);
            let reads = pi.reads(program);
            let writes = pi.writes(program);
            let mut accessed: Vec<Reg> = Vec::new();
            for r in reads.iter().chain(writes.iter()) {
                if program.config.is_zero_reg(*r) || accessed.contains(r) {
                    continue;
                }
                accessed.push(*r);
            }
            for r in accessed {
                t.site_base.insert((p, r), t.len as u32);
                t.site_of_base.push((p, r));
                t.len += width as usize;
            }
            for r in reads {
                if program.config.is_zero_reg(r) || t.arrival_base.contains_key(&(p, r)) {
                    continue;
                }
                t.arrival_base.insert((p, r), t.len as u32);
                t.len += width as usize;
            }
        }
        t
    }

    /// Total number of nodes including `s0`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether only `s0` exists.
    pub fn is_empty(&self) -> bool {
        self.len <= 1
    }

    /// Node id of fault site `(p, reg, bit)`.
    pub fn site(&self, p: PointId, reg: Reg, bit: u32) -> Option<usize> {
        self.site_base.get(&(p, reg)).map(|b| *b as usize + bit as usize)
    }

    /// Node id of the arrival `(q, reg, bit)`.
    pub fn arrival(&self, q: PointId, reg: Reg, bit: u32) -> Option<usize> {
        self.arrival_base.get(&(q, reg)).map(|b| *b as usize + bit as usize)
    }

    /// All site `(point, reg)` pairs in (point, register) order.
    pub fn site_pairs(&self) -> Vec<(PointId, Reg)> {
        let mut pairs = self.site_of_base.clone();
        pairs.sort();
        pairs
    }
}

impl NodeQuery for RefNodeTable {
    fn site(&self, p: PointId, reg: Reg, bit: u32) -> Option<usize> {
        RefNodeTable::site(self, p, reg, bit)
    }

    fn arrival(&self, q: PointId, reg: Reg, bit: u32) -> Option<usize> {
        RefNodeTable::arrival(self, q, reg, bit)
    }
}

/// Reference analysis results for one function.
pub struct RefFunctionAnalysis {
    /// Point numbering.
    pub layout: PointLayout,
    /// Seed def–use chains.
    pub defuse: RefDefUse,
    /// Seed bit values.
    pub values: RefBitValues,
    /// Seed node numbering.
    pub nodes: RefNodeTable,
    uf: UnionFind,
}

impl RefFunctionAnalysis {
    /// Class representative of site `(p, reg, bit)`.
    pub fn class_of(&self, p: PointId, reg: Reg, bit: u32) -> Option<usize> {
        self.nodes.site(p, reg, bit).map(|n| self.uf.find_imm(n))
    }

    /// The `[s0]` representative.
    pub fn s0_class(&self) -> usize {
        self.uf.find_imm(S0)
    }

    /// The verdict for site `(p, reg, bit)` (mirrors
    /// [`crate::BecAnalysis::site_verdict`]).
    pub fn site_verdict(&self, p: PointId, reg: Reg, bit: u32) -> Option<SiteVerdict> {
        let class = self.class_of(p, reg, bit)?;
        Some(if class == self.s0_class() {
            SiteVerdict::Masked
        } else {
            SiteVerdict::Live { class }
        })
    }
}

/// Runs the whole seed pipeline — liveness, map-based def–use, hashed
/// bit-value fixpoint, interned node table, coalescing to the fixpoint —
/// on one function.
pub fn analyze_function(
    program: &Program,
    func: &Function,
    options: &BecOptions,
) -> RefFunctionAnalysis {
    let layout = PointLayout::of(func);
    let liveness = RefLiveness::compute(func, program);
    let defuse = RefDefUse::compute(func, program);
    let values = RefBitValues::compute(program, func, &defuse);
    let nodes = RefNodeTable::build(program, func, &layout);

    let w = nodes.width;
    let mut uf = UnionFind::new(nodes.len());

    // Initialization: killed sites are masked (Alg. 2 lines 4-5).
    for &(p, r) in &nodes.site_pairs() {
        if !liveness.is_live_after(p, r) {
            for i in 0..w {
                uf.union(nodes.site(p, r, i).expect("site exists"), S0);
            }
        }
    }

    // Intra-instruction rules, shared with the dense engine.
    let intra =
        IntraRules { program, func, layout: &layout, values: &values, nodes: &nodes, options };
    intra.apply(&mut |a, b| {
        uf.union(a, b);
    });

    // Inter-instruction fixpoint, seed formulation (uncompressed finds).
    let site_pairs = nodes.site_pairs();
    loop {
        let before = uf.merge_count();
        for &(p, r) in &site_pairs {
            let users = defuse.uses(p, r);
            if users.is_empty() {
                continue;
            }
            let aligned_single_use = users.len() == 1 && {
                let q = users[0];
                layout.block_of(q) == layout.block_of(p) && q > p
            };
            for i in 0..w {
                let site = nodes.site(p, r, i).expect("site exists");
                let s0_rep = uf.find(S0);
                let all_masked = users
                    .iter()
                    .all(|&q| nodes.arrival(q, r, i).is_some_and(|a| uf.find_imm(a) == s0_rep));
                if all_masked {
                    uf.union(site, S0);
                } else if aligned_single_use {
                    if let Some(a) = nodes.arrival(users[0], r, i) {
                        uf.union(site, a);
                    }
                }
            }
        }
        if uf.merge_count() == before {
            break;
        }
    }

    RefFunctionAnalysis { layout, defuse, values, nodes, uf }
}

/// Reference analysis of every function of `program`, in program order.
pub fn analyze_program(program: &Program, options: &BecOptions) -> Vec<RefFunctionAnalysis> {
    program.functions.iter().map(|f| analyze_function(program, f, options)).collect()
}

/// The set-based fault surface of one function, weighting each point by
/// `exec`: for every live register after each executed point, the bits that
/// any access covering that moment leaves unmasked (all bits when no access
/// covers it), plus the full width of each distinct returned register at a
/// `ret`.
pub fn function_surface(
    program: &Program,
    func: &Function,
    fa: &FunctionAnalysis,
    exec: impl Fn(PointId) -> u64,
) -> u64 {
    let w = program.config.xlen;
    let cover = CoverMap::compute(program, func, &fa.layout);
    let s0 = fa.coalescing.s0_class();
    let mut total = 0u64;
    for p in fa.layout.iter() {
        let n = exec(p);
        if n == 0 {
            continue;
        }
        let mut bits_here = 0u64;
        for v in fa.liveness.live_after(p) {
            let covering = cover.cover(p, v);
            if covering.is_empty() {
                bits_here += w as u64;
                continue;
            }
            for bit in 0..w {
                let live = covering.iter().any(|&d| fa.coalescing.class_of(d, v, bit) != Some(s0));
                if live {
                    bits_here += 1;
                }
            }
        }
        if let Some(Terminator::Ret { reads }) = fa.layout.resolve(func, p).as_term() {
            let distinct: BTreeSet<Reg> = reads.iter().copied().collect();
            bits_here += w as u64 * distinct.len() as u64;
        }
        total += n * bits_here;
    }
    total
}

/// For each `(point, register)`: the access points of the register whose
/// fault-site window can cover this point (the most recent accesses on
/// some access-free path).
struct CoverMap {
    map: HashMap<(PointId, Reg), Vec<PointId>>,
}

impl CoverMap {
    /// Forward "last access" analysis per register.
    fn compute(program: &Program, func: &Function, layout: &PointLayout) -> CoverMap {
        let cfg = Cfg::of(func);
        let zero = program.config.zero_reg;

        // Registers that appear anywhere.
        let mut regs: BTreeSet<Reg> = BTreeSet::new();
        for p in layout.iter() {
            let pi = layout.resolve(func, p);
            regs.extend(pi.reads(program));
            regs.extend(pi.writes(program));
        }
        if let Some(z) = zero {
            regs.remove(&z);
        }

        let nb = func.blocks.len();
        let mut map = HashMap::new();
        for &r in &regs {
            // Block-level fixpoint: set of access points reaching block end.
            let mut out: Vec<BTreeSet<PointId>> = vec![BTreeSet::new(); nb];
            let mut changed = true;
            while changed {
                changed = false;
                for &b in cfg.reverse_postorder() {
                    let mut acc: BTreeSet<PointId> = BTreeSet::new();
                    for &pr in cfg.predecessors(b) {
                        acc.extend(out[pr.index()].iter().copied());
                    }
                    let blk = func.block(b);
                    for off in 0..blk.point_count() {
                        let p = layout.point(b, off);
                        let pi = layout.resolve(func, p);
                        if pi.reads(program).contains(&r) || pi.writes(program).contains(&r) {
                            acc.clear();
                            acc.insert(p);
                        }
                    }
                    if out[b.index()] != acc {
                        out[b.index()] = acc;
                        changed = true;
                    }
                }
            }
            // Local walk: cover after each point.
            for (bi, blk) in func.blocks.iter().enumerate() {
                let b = bec_ir::BlockId(bi as u32);
                let mut acc: BTreeSet<PointId> = BTreeSet::new();
                for &pr in cfg.predecessors(b) {
                    acc.extend(out[pr.index()].iter().copied());
                }
                for off in 0..blk.point_count() {
                    let p = layout.point(b, off);
                    let pi = layout.resolve(func, p);
                    if pi.reads(program).contains(&r) || pi.writes(program).contains(&r) {
                        acc.clear();
                        acc.insert(p);
                    }
                    map.insert((p, r), acc.iter().copied().collect());
                }
            }
        }
        CoverMap { map }
    }

    /// The access points covering `(p, v)`; empty for registers never
    /// accessed on any path to `p`.
    fn cover(&self, p: PointId, v: Reg) -> &[PointId] {
        self.map.get(&(p, v)).map(Vec::as_slice).unwrap_or(&[])
    }
}
