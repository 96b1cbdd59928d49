//! The fault space `F = P × V` and its dense node numbering.
//!
//! Following §II of the paper, a *fault site* `(p, vⁱ)` is bit `i` of
//! register `v` in the time window that opens after program point `p`
//! executes (where `p` accesses `v`) and closes at the next access of `v`.
//!
//! The coalescing analysis additionally materializes one *arrival* node per
//! `(read point, operand register, bit)`: the effect, through that read's
//! computation only, of the bit being corrupted when it is read. Arrivals
//! realize the paper's temporary relation `R′` (Algorithm 3) without copying
//! the equivalence relation — see DESIGN.md §2.
//!
//! Node ids resolve arithmetically: per `(point, register)` pair the table
//! holds one base id in a flat array indexed `point_idx * num_regs +
//! reg_idx`, and bit `i` lives at `base + i`. The solver hot paths never
//! hash.

use bec_ir::{AccessTable, PointId, PointLayout, Program, Reg, RegMask};

/// A spatial+temporal fault site within one function: bit `bit` of register
/// `reg` in the window after point `point`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FaultSite {
    /// The access point opening the window.
    pub point: PointId,
    /// The register holding the bit.
    pub reg: Reg,
    /// Bit position (LSB = 0).
    pub bit: u32,
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}^{})", self.point, self.reg, self.bit)
    }
}

/// The lookup interface the intra-instruction rules need: site and arrival
/// node ids. Implemented by the dense [`NodeTable`] and by the retained
/// reference solver's map-based table.
pub trait NodeQuery {
    /// Node id of fault site `(p, reg, bit)`, if `reg` is accessed at `p`.
    fn site(&self, p: PointId, reg: Reg, bit: u32) -> Option<usize>;
    /// Node id of the arrival `(q, reg, bit)`, if `reg` is read at `q`.
    fn arrival(&self, q: PointId, reg: Reg, bit: u32) -> Option<usize>;
}

/// Sentinel for "no node range allocated for this (point, register)".
const NONE: u32 = u32::MAX;

/// Dense numbering of coalescing nodes for one function.
///
/// Node 0 is `s0` (the intact execution). Sites and arrivals occupy `width`
/// consecutive ids per (point, register) pair; per-pair base ids live in
/// flat arrays indexed `point_idx * num_regs + reg_idx`.
#[derive(Clone, Debug)]
pub struct NodeTable {
    width: u32,
    nregs: u32,
    site_bases: Vec<u32>,
    arrival_bases: Vec<u32>,
    /// Per-point accessed (site-bearing) registers, for iteration.
    accessed: Vec<RegMask>,
    /// Reverse map for sites: base-assignment order → (point, reg).
    site_of_base: Vec<(PointId, Reg)>,
    site_bases_sorted: Vec<u32>,
    len: usize,
}

/// The node id of `s0` (intact semantics).
pub const S0: usize = 0;

impl NodeTable {
    /// Allocates nodes for every accessed `(point, register)` pair of the
    /// function (sites for reads and writes, arrivals for reads), skipping
    /// the hardwired zero register.
    pub fn build(program: &Program, func: &bec_ir::Function, layout: &PointLayout) -> NodeTable {
        let access = AccessTable::of(program, func, layout);
        NodeTable::build_with(program, layout, &access)
    }

    /// [`NodeTable::build`] with the per-function access table precomputed
    /// by the caller.
    pub fn build_with(program: &Program, layout: &PointLayout, access: &AccessTable) -> NodeTable {
        let width = program.config.xlen;
        let nregs = program.config.num_regs;
        let zero = match program.config.zero_reg {
            Some(z) => RegMask::of(z),
            None => RegMask::empty(),
        };
        let np = layout.len();
        let mut t = NodeTable {
            width,
            nregs,
            site_bases: vec![NONE; np * nregs as usize],
            arrival_bases: vec![NONE; np * nregs as usize],
            accessed: Vec::with_capacity(np),
            site_of_base: Vec::new(),
            site_bases_sorted: Vec::new(),
            len: 1, // node 0 = s0
        };
        for p in layout.iter() {
            // Site ranges in first-access order (reads, then writes).
            for &r in access.reads(p).iter().chain(access.writes(p)) {
                let Some(slot) = t.slot(p, r) else { continue };
                if zero.contains(r) || t.site_bases[slot] != NONE {
                    continue;
                }
                t.site_bases[slot] = t.len as u32;
                t.site_of_base.push((p, r));
                t.site_bases_sorted.push(t.len as u32);
                t.len += width as usize;
            }
            t.accessed.push(access.access_mask(p).difference(zero));
            // Arrival ranges for reads.
            for &r in access.reads(p) {
                let Some(slot) = t.slot(p, r) else { continue };
                if zero.contains(r) || t.arrival_bases[slot] != NONE {
                    continue;
                }
                t.arrival_bases[slot] = t.len as u32;
                t.len += width as usize;
            }
        }
        t
    }

    fn slot(&self, p: PointId, r: Reg) -> Option<usize> {
        (!r.is_virtual() && r.index() < self.nregs)
            .then(|| p.index() * self.nregs as usize + r.index() as usize)
    }

    /// Total number of nodes including `s0`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether only `s0` exists.
    pub fn is_empty(&self) -> bool {
        self.len <= 1
    }

    /// The machine word width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Base node id of the site range of `(p, reg)`, if accessed.
    pub fn site_base(&self, p: PointId, reg: Reg) -> Option<u32> {
        let b = self.site_bases[self.slot(p, reg)?];
        (b != NONE).then_some(b)
    }

    /// Base node id of the arrival range of `(q, reg)`, if read.
    pub fn arrival_base(&self, q: PointId, reg: Reg) -> Option<u32> {
        let b = self.arrival_bases[self.slot(q, reg)?];
        (b != NONE).then_some(b)
    }

    /// Node id of fault site `(p, reg, bit)`, if `reg` is accessed at `p`.
    pub fn site(&self, p: PointId, reg: Reg, bit: u32) -> Option<usize> {
        debug_assert!(bit < self.width);
        self.site_base(p, reg).map(|b| b as usize + bit as usize)
    }

    /// Node id of the arrival `(q, reg, bit)`, if `reg` is read at `q`.
    pub fn arrival(&self, q: PointId, reg: Reg, bit: u32) -> Option<usize> {
        debug_assert!(bit < self.width);
        self.arrival_base(q, reg).map(|b| b as usize + bit as usize)
    }

    /// Iterates over all site `(point, reg)` pairs in (point, register)
    /// order.
    pub fn site_pairs(&self) -> impl Iterator<Item = (PointId, Reg)> + '_ {
        self.accessed
            .iter()
            .enumerate()
            .flat_map(|(pi, m)| m.iter().map(move |r| (PointId(pi as u32), r)))
    }

    /// Reverse lookup: if `node` is a site node, its fault site.
    pub fn site_of_node(&self, node: usize) -> Option<FaultSite> {
        if node == S0 || node >= self.len {
            return None;
        }
        let node = node as u32;
        // Find the greatest site base ≤ node among site bases.
        let idx = match self.site_bases_sorted.binary_search(&node) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let base = self.site_bases_sorted[idx];
        if node < base + self.width {
            let (point, reg) = self.site_of_base[idx];
            Some(FaultSite { point, reg, bit: node - base })
        } else {
            None // falls into an arrival range
        }
    }
}

impl NodeQuery for NodeTable {
    fn site(&self, p: PointId, reg: Reg, bit: u32) -> Option<usize> {
        NodeTable::site(self, p, reg, bit)
    }

    fn arrival(&self, q: PointId, reg: Reg, bit: u32) -> Option<usize> {
        NodeTable::arrival(self, q, reg, bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bec_ir::{parse_program, PointLayout};

    fn table() -> (bec_ir::Program, NodeTable) {
        let p = parse_program(
            "machine xlen=4 regs=4 zero=none\nfunc @main(args=0, ret=none) {\nentry:\n    andi r2, r1, 1\n    print r2\n    exit\n}\n",
        )
        .unwrap();
        let f = p.entry_function();
        let layout = PointLayout::of(f);
        let t = NodeTable::build(&p, f, &layout);
        (p.clone(), t)
    }

    #[test]
    fn allocates_sites_and_arrivals() {
        let (_, t) = table();
        // p0 accesses r2 (write) and r1 (read) → 2 site ranges + 1 arrival.
        // p1 accesses r2 (read) → 1 site + 1 arrival.
        // p2 (exit) → nothing.
        assert_eq!(t.len(), 1 + 5 * 4);
        let r1 = Reg::phys(1);
        let r2 = Reg::phys(2);
        assert!(t.site(PointId(0), r1, 0).is_some());
        assert!(t.site(PointId(0), r2, 3).is_some());
        assert!(t.arrival(PointId(0), r1, 0).is_some());
        assert!(t.arrival(PointId(0), r2, 0).is_none()); // r2 only written
        assert!(t.site(PointId(1), r2, 0).is_some());
        assert!(t.arrival(PointId(1), r2, 0).is_some());
        assert!(t.site(PointId(2), r1, 0).is_none());
    }

    #[test]
    fn node_ids_resolve_arithmetically() {
        let (_, t) = table();
        let r1 = Reg::phys(1);
        let base = t.site_base(PointId(0), r1).unwrap() as usize;
        for bit in 0..4 {
            assert_eq!(t.site(PointId(0), r1, bit), Some(base + bit as usize));
        }
        let abase = t.arrival_base(PointId(0), r1).unwrap() as usize;
        for bit in 0..4 {
            assert_eq!(t.arrival(PointId(0), r1, bit), Some(abase + bit as usize));
        }
    }

    #[test]
    fn reverse_lookup_roundtrips() {
        let (_, t) = table();
        for (p, r) in t.site_pairs() {
            for bit in 0..4 {
                let node = t.site(p, r, bit).unwrap();
                let fs = t.site_of_node(node).unwrap();
                assert_eq!((fs.point, fs.reg, fs.bit), (p, r, bit));
            }
        }
        // s0 and arrival nodes are not sites.
        assert!(t.site_of_node(S0).is_none());
        let arr = t.arrival(PointId(0), Reg::phys(1), 2).unwrap();
        assert!(t.site_of_node(arr).is_none());
    }

    #[test]
    fn zero_reg_is_excluded() {
        let p = parse_program(
            "func @main(args=0, ret=none) {\nentry:\n    mv t0, zero\n    print t0\n    exit\n}\n",
        )
        .unwrap();
        let f = p.entry_function();
        let layout = PointLayout::of(f);
        let t = NodeTable::build(&p, f, &layout);
        assert!(t.site(PointId(0), Reg::ZERO, 0).is_none());
        assert!(t.arrival(PointId(0), Reg::ZERO, 0).is_none());
        assert!(t.site(PointId(0), Reg::T0, 0).is_some());
    }

    #[test]
    fn site_pairs_are_point_register_sorted() {
        let (_, t) = table();
        let pairs: Vec<_> = t.site_pairs().collect();
        let mut sorted = pairs.clone();
        sorted.sort();
        assert_eq!(pairs, sorted);
    }
}
