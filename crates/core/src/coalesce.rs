//! Fault-index coalescing (Algorithm 2 of the paper).
//!
//! The equivalence relation `R = S/∼` is a union-find over the node universe
//! of [`crate::fault::NodeTable`]: `s0`, every fault site, and every arrival.
//!
//! * **Initialization** (lines 1–7): sites of registers dead after their
//!   access point join `[s0]`; everything else starts a singleton.
//! * **Intra-instruction coalescing** (line 10 / Algorithm 3): the arrival
//!   merges of [`crate::arrival::IntraRules`], applied once — they do not
//!   depend on `R`.
//! * **Inter-instruction coalescing** (line 12): site `(p, v, i)` joins the
//!   class of its arrivals `{arr(q, v, i) | q ∈ use(p, v)}` when they all
//!   already share one class. Equivalence classes are disjoint, so "the
//!   intersection of the use classes is nonempty" is exactly "all arrival
//!   classes coincide". Iterated to the least fixpoint; union-find merges
//!   are monotone, so termination is by Knaster–Tarski.
//!
//! The fixpoint runs over the dense node numbering: per-pair node bases
//! resolve arithmetically and every class query is a path-compressed
//! union-find find — the passes do no hashing and no allocation beyond one
//! reused scratch vector.

use crate::analysis::BecOptions;
use crate::arrival::IntraRules;
use crate::bitvalue::BitValues;
use crate::fault::{FaultSite, NodeTable, S0};
use bec_dataflow::UnionFind;
use bec_ir::{AccessTable, DefUse, Function, Liveness, PointId, PointLayout, Program, Reg};

/// The coalescing result for one function.
#[derive(Clone, Debug)]
pub struct Coalescing {
    nodes: NodeTable,
    uf: UnionFind,
    /// Number of inter-instruction fixpoint passes taken.
    passes: u32,
}

impl Coalescing {
    /// Runs initialization, intra-instruction and inter-instruction
    /// coalescing to the fixpoint.
    pub fn compute(
        program: &Program,
        func: &Function,
        layout: &PointLayout,
        liveness: &Liveness,
        du: &DefUse,
        values: &BitValues,
        options: &BecOptions,
    ) -> Coalescing {
        let access = AccessTable::of(program, func, layout);
        Coalescing::compute_with(program, func, layout, &access, liveness, du, values, options)
    }

    /// [`Coalescing::compute`] with the per-function access table
    /// precomputed by the caller.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_with(
        program: &Program,
        func: &Function,
        layout: &PointLayout,
        access: &AccessTable,
        liveness: &Liveness,
        du: &DefUse,
        values: &BitValues,
        options: &BecOptions,
    ) -> Coalescing {
        let nodes = NodeTable::build_with(program, layout, access);
        let w = nodes.width();
        let mut uf = UnionFind::new(nodes.len());

        // --- Initialization: killed sites are masked (Alg. 2 lines 4-5). ---
        for (p, r) in nodes.site_pairs() {
            if !liveness.is_live_after(p, r) {
                let base = nodes.site_base(p, r).expect("site exists") as usize;
                for i in 0..w as usize {
                    uf.union(base + i, S0);
                }
            }
        }

        // --- Intra-instruction rules (arrival merges; Alg. 3). ---
        let intra = IntraRules { program, func, layout, values, nodes: &nodes, options };
        intra.apply(&mut |a, b| {
            uf.union(a, b);
        });

        // --- Inter-instruction fixpoint (Alg. 2 line 12). ---
        //
        // Site (p, v, i) may merge with the common class of its arrivals
        // {arr(q, v, i) | q ∈ use(p, v)} under one of two temporal-alignment
        // guards (DESIGN.md §2):
        //
        // * the common class is [s0] — masking holds at *every* dynamic
        //   arrival, so re-arrivals across loop iterations are harmless; or
        // * there is exactly one use in the same basic block, strictly after
        //   `p` — the window then opens and closes within one block
        //   execution, so the site's occurrences align 1:1 with the
        //   arrival's dynamic instances (a window wrapping a back edge, or
        //   spanning blocks with different trip counts, is rejected: its
        //   fault would arrive at a *different* dynamic instance of `q` than
        //   an injection at `q`'s own window, which is empirically
        //   distinguishable — the validation suite exercises exactly this).
        let site_pairs: Vec<(PointId, Reg)> = nodes.site_pairs().collect();
        let mut arr_bases: Vec<Option<u32>> = Vec::new();
        let mut passes = 0;
        loop {
            passes += 1;
            let before = uf.merge_count();
            for &(p, r) in &site_pairs {
                let users = du.uses(p, r);
                if users.is_empty() {
                    continue; // killed: already in [s0]
                }
                let aligned_single_use = users.len() == 1 && {
                    let q = users[0];
                    layout.block_of(q) == layout.block_of(p) && q > p
                };
                let site_base = nodes.site_base(p, r).expect("site exists") as usize;
                arr_bases.clear();
                arr_bases.extend(users.iter().map(|&q| nodes.arrival_base(q, r)));
                for i in 0..w {
                    let site = site_base + i as usize;
                    let s0_rep = uf.find(S0);
                    let all_masked = arr_bases.iter().all(|b| {
                        b.is_some_and(|base| uf.find(base as usize + i as usize) == s0_rep)
                    });
                    if all_masked {
                        uf.union(site, S0);
                    } else if aligned_single_use {
                        if let Some(base) = arr_bases[0] {
                            uf.union(site, base as usize + i as usize);
                        }
                    }
                }
            }
            if uf.merge_count() == before {
                break;
            }
        }

        Coalescing { nodes, uf, passes }
    }

    /// The node table (fault-space numbering).
    pub fn nodes(&self) -> &NodeTable {
        &self.nodes
    }

    /// Canonical class representative of fault site `(p, reg, bit)`, if the
    /// register is accessed at `p`.
    pub fn class_of(&self, p: PointId, reg: Reg, bit: u32) -> Option<usize> {
        self.nodes.site(p, reg, bit).map(|n| self.uf.find_imm(n))
    }

    /// Whether a fault at site `(p, reg, bit)` is masked (equivalent to the
    /// intact execution `s0`).
    ///
    /// Returns `None` when `reg` is not accessed at `p` (not a fault site of
    /// the initialization).
    pub fn is_masked(&self, p: PointId, reg: Reg, bit: u32) -> Option<bool> {
        self.class_of(p, reg, bit).map(|c| c == self.uf.find_imm(S0))
    }

    /// The bits of site `(p, reg)` proven masked: bit `b` is set iff
    /// [`Coalescing::is_masked`] holds for `(p, reg, b)`. `None` when `reg`
    /// is not accessed at `p`.
    pub fn masked_bits(&self, p: PointId, reg: Reg) -> Option<u64> {
        let base = self.nodes.site_base(p, reg)? as usize;
        let s0 = self.s0_class();
        let masked = (0..self.nodes.width())
            .filter(|&bit| self.uf.find_imm(base + bit as usize) == s0)
            .fold(0u64, |m, bit| m | 1 << bit);
        Some(masked)
    }

    /// The representative of the `[s0]` class.
    pub fn s0_class(&self) -> usize {
        self.uf.find_imm(S0)
    }

    /// Groups all *site* nodes by equivalence class. The `[s0]` class is
    /// included (its sites are the masked ones). Classes are keyed by
    /// representative; members are sorted by (point, reg, bit).
    pub fn site_classes(&self) -> Vec<(usize, Vec<FaultSite>)> {
        let w = self.nodes.width();
        // Sites are enumerated in (point, reg, bit) order, so a stable sort
        // by representative alone leaves each class's members sorted.
        let mut tagged: Vec<(usize, FaultSite)> = Vec::new();
        for (p, r) in self.nodes.site_pairs() {
            let base = self.nodes.site_base(p, r).expect("site exists") as usize;
            for i in 0..w {
                tagged.push((
                    self.uf.find_imm(base + i as usize),
                    FaultSite { point: p, reg: r, bit: i },
                ));
            }
        }
        tagged.sort_by_key(|&(rep, site)| (rep, site));
        let mut out: Vec<(usize, Vec<FaultSite>)> = Vec::new();
        for (rep, site) in tagged {
            match out.last_mut() {
                Some((r, members)) if *r == rep => members.push(site),
                _ => out.push((rep, vec![site])),
            }
        }
        out
    }

    /// Number of distinct classes among all nodes (including `[s0]`).
    pub fn class_count(&self) -> usize {
        self.uf.class_count()
    }

    /// Number of inter-instruction fixpoint passes that were needed.
    pub fn passes(&self) -> u32 {
        self.passes
    }

    /// Total number of coalescing nodes (`s0` + sites + arrivals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether two sites are provably equivalent.
    pub fn same_class(&self, a: FaultSite, b: FaultSite) -> bool {
        match (self.class_of(a.point, a.reg, a.bit), self.class_of(b.point, b.reg, b.bit)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }
}
