//! Register naming and classification.

use std::fmt;

/// A register operand.
///
/// Registers are either *physical* (an index into the machine register file)
/// or *virtual* (an unbounded temporary produced by `bec-lang` before
/// register allocation). Machine programs handed to the BEC analysis or the
/// simulator must only contain physical registers; [`crate::verify_program`]
/// enforces this.
///
/// ```
/// use bec_ir::Reg;
/// assert_eq!(Reg::A0.index(), 10);
/// assert!(Reg::virt(3).is_virtual());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u32);

const VIRT_BIT: u32 = 1 << 31;

impl Reg {
    /// The RISC-V hardwired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return address register `ra` (`x1`).
    pub const RA: Reg = Reg(1);
    /// Stack pointer `sp` (`x2`).
    pub const SP: Reg = Reg(2);
    /// Global pointer `gp` (`x3`).
    pub const GP: Reg = Reg(3);
    /// Thread pointer `tp` (`x4`).
    pub const TP: Reg = Reg(4);
    /// First argument / return value register `a0` (`x10`).
    pub const A0: Reg = Reg(10);
    /// Second argument register `a1` (`x11`).
    pub const A1: Reg = Reg(11);
    /// Temporary `t0` (`x5`).
    pub const T0: Reg = Reg(5);
    /// Temporary `t1` (`x6`).
    pub const T1: Reg = Reg(6);
    /// Temporary `t2` (`x7`).
    pub const T2: Reg = Reg(7);
    /// Callee-saved `s0` (`x8`).
    pub const S0: Reg = Reg(8);
    /// Callee-saved `s1` (`x9`).
    pub const S1: Reg = Reg(9);

    /// Creates a physical register with the given register-file index.
    ///
    /// # Panics
    ///
    /// Panics if `index` collides with the virtual-register encoding
    /// (indices must be below 2^31).
    pub fn phys(index: u32) -> Reg {
        assert!(index < VIRT_BIT, "physical register index out of range");
        Reg(index)
    }

    /// Creates a virtual register (pre-register-allocation temporary).
    pub fn virt(index: u32) -> Reg {
        assert!(index < VIRT_BIT, "virtual register index out of range");
        Reg(index | VIRT_BIT)
    }

    /// The register-file index (physical) or temporary number (virtual).
    pub fn index(self) -> u32 {
        self.0 & !VIRT_BIT
    }

    /// Whether this is a virtual (pre-allocation) register.
    pub fn is_virtual(self) -> bool {
        self.0 & VIRT_BIT != 0
    }

    /// The `n`-th RISC-V argument register `a{n}` (n < 8).
    ///
    /// # Panics
    ///
    /// Panics if `n >= 8`.
    pub fn arg(n: u32) -> Reg {
        assert!(n < 8, "RISC-V passes at most 8 register arguments");
        Reg(10 + n)
    }

    /// The `n`-th RISC-V callee-saved register: `s0..s11`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 12`.
    pub fn saved(n: u32) -> Reg {
        assert!(n < 12);
        match n {
            0 => Reg(8),
            1 => Reg(9),
            _ => Reg(18 + (n - 2)),
        }
    }

    /// The `n`-th RISC-V temporary register: `t0..t6`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 7`.
    pub fn temp(n: u32) -> Reg {
        assert!(n < 7);
        match n {
            0..=2 => Reg(5 + n),
            _ => Reg(28 + (n - 3)),
        }
    }

    /// Whether this register is caller-saved under the RISC-V ABI
    /// (`ra`, `t0..t6`, `a0..a7`). Only meaningful for 32-register configs.
    pub fn is_caller_saved(self) -> bool {
        let i = self.index();
        !self.is_virtual()
            && (i == 1 || (5..=7).contains(&i) || (10..=17).contains(&i) || (28..=31).contains(&i))
    }

    /// Whether this register is callee-saved under the RISC-V ABI
    /// (`sp`, `s0..s11`). Only meaningful for 32-register configs.
    pub fn is_callee_saved(self) -> bool {
        let i = self.index();
        !self.is_virtual() && (i == 2 || i == 8 || i == 9 || (18..=27).contains(&i))
    }

    /// The canonical RISC-V ABI name (`zero`, `ra`, `sp`, …) for 32-register
    /// machines, or `r{i}` / `v{i}` otherwise.
    pub fn abi_name(self) -> String {
        match self.abi_str() {
            Some(name) => name.to_owned(),
            None if self.is_virtual() => format!("v{}", self.index()),
            None => format!("r{}", self.index()),
        }
    }

    /// The ABI name of a physical register `x0`..`x31` from a static
    /// table, without allocating; `None` for any other register.
    pub fn abi_str(self) -> Option<&'static str> {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        if self.is_virtual() {
            return None;
        }
        NAMES.get(self.index() as usize).copied()
    }

    /// Parses a register name: ABI names (`a0`, `t3`, `zero`), `x{i}`,
    /// `r{i}`, or virtual `v{i}`. Returns `None` for unknown names.
    pub fn parse(name: &str) -> Option<Reg> {
        let tail_index = |s: &str| s.parse::<u32>().ok();
        match name {
            "zero" => return Some(Reg(0)),
            "ra" => return Some(Reg(1)),
            "sp" => return Some(Reg(2)),
            "gp" => return Some(Reg(3)),
            "tp" => return Some(Reg(4)),
            "fp" => return Some(Reg(8)),
            _ => {}
        }
        // Checked: an empty or multi-byte-leading name (e.g. a corrupted
        // report row) is unknown, not a slicing panic.
        let (prefix, rest) = name.split_at_checked(1)?;
        let n = tail_index(rest)?;
        match prefix {
            "x" | "r" => (n < VIRT_BIT).then(|| Reg::phys(n)),
            "v" => (n < VIRT_BIT).then(|| Reg::virt(n)),
            "t" => (n < 7).then(|| Reg::temp(n)),
            "s" => (n < 12).then(|| Reg::saved(n)),
            "a" => (n < 8).then(|| Reg::arg(n)),
            _ => None,
        }
    }
}

/// A set of physical registers as a single `u64` bitmask (bit `i` =
/// register index `i`).
///
/// RV32 has 32 architectural registers and [`crate::verify_program`]
/// rejects register files wider than 64, so one word covers every
/// register set the analyses and the simulator handle;
/// all set algebra is branch-free mask arithmetic. The analysis paths
/// (liveness, def–use, checkpoint convergence) use this instead of heap
/// bitsets or hash sets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegMask(pub u64);

impl RegMask {
    /// The empty set.
    pub const fn empty() -> RegMask {
        RegMask(0)
    }

    /// The set containing exactly `r`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `r` is virtual or its index is ≥ 64.
    pub fn of(r: Reg) -> RegMask {
        debug_assert!(!r.is_virtual() && r.index() < 64, "RegMask holds physical regs < 64");
        RegMask(1u64 << r.index())
    }

    /// Inserts `r`; returns whether it was new.
    pub fn insert(&mut self, r: Reg) -> bool {
        let bit = RegMask::of(r).0;
        let new = self.0 & bit == 0;
        self.0 |= bit;
        new
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: Reg) {
        self.0 &= !RegMask::of(r).0;
    }

    /// Membership test.
    pub fn contains(self, r: Reg) -> bool {
        !r.is_virtual() && r.index() < 64 && self.0 & (1u64 << r.index()) != 0
    }

    /// Set union.
    pub fn union(self, other: RegMask) -> RegMask {
        RegMask(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersect(self, other: RegMask) -> RegMask {
        RegMask(self.0 & other.0)
    }

    /// Set difference (`self \ other`).
    pub fn difference(self, other: RegMask) -> RegMask {
        RegMask(self.0 & !other.0)
    }

    /// In-place union; returns whether `self` grew.
    pub fn union_with(&mut self, other: RegMask) -> bool {
        let old = self.0;
        self.0 |= other.0;
        self.0 != old
    }

    /// Whether no register is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of members.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates members in ascending register-index order.
    pub fn iter(self) -> impl Iterator<Item = Reg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let i = bits.trailing_zeros();
            bits &= bits - 1;
            Some(Reg::phys(i))
        })
    }
}

impl FromIterator<Reg> for RegMask {
    fn from_iter<T: IntoIterator<Item = Reg>>(iter: T) -> RegMask {
        let mut m = RegMask::empty();
        for r in iter {
            m.insert(r);
        }
        m
    }
}

impl fmt::Debug for RegMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_virtual() {
            write!(f, "v{}", self.index())
        } else {
            write!(f, "x{}", self.index())
        }
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.abi_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_roundtrip() {
        for i in 0..32 {
            let r = Reg::phys(i);
            assert_eq!(Reg::parse(&r.abi_name()), Some(r), "name {}", r.abi_name());
            assert_eq!(r.abi_str(), Some(r.abi_name().as_str()));
        }
        assert_eq!(Reg::phys(40).abi_name(), "r40");
        assert_eq!(Reg::virt(3).abi_name(), "v3");
        assert_eq!((Reg::phys(40).abi_str(), Reg::virt(3).abi_str()), (None, None));
    }

    #[test]
    fn x_and_r_names_parse() {
        assert_eq!(Reg::parse("x10"), Some(Reg::A0));
        assert_eq!(Reg::parse("r3"), Some(Reg::GP));
        assert_eq!(Reg::parse("v7"), Some(Reg::virt(7)));
    }

    #[test]
    fn malformed_names_are_unknown() {
        for name in ["", "é", "€1", "a", "x", "t7", "s12", "a8", "q1", "x2147483648", "v2147483648"]
        {
            assert_eq!(Reg::parse(name), None, "{name:?}");
        }
    }

    #[test]
    fn temp_and_saved_indices() {
        assert_eq!(Reg::temp(3).index(), 28);
        assert_eq!(Reg::temp(6).index(), 31);
        assert_eq!(Reg::saved(2).index(), 18);
        assert_eq!(Reg::saved(11).index(), 27);
    }

    #[test]
    fn caller_callee_partition_covers_all_but_special() {
        // Every register except zero/gp/tp is exactly one of caller/callee saved.
        for i in 0..32u32 {
            let r = Reg::phys(i);
            if [0, 3, 4].contains(&i) {
                assert!(!r.is_caller_saved() && !r.is_callee_saved());
            } else {
                assert!(r.is_caller_saved() ^ r.is_callee_saved(), "reg {r}");
            }
        }
    }

    #[test]
    fn virtual_regs_are_distinct_from_physical() {
        assert_ne!(Reg::virt(5), Reg::phys(5));
        assert!(Reg::virt(5).is_virtual());
        assert!(!Reg::phys(5).is_virtual());
    }

    #[test]
    #[should_panic]
    fn arg_index_out_of_range_panics() {
        let _ = Reg::arg(8);
    }

    #[test]
    fn regmask_set_algebra() {
        let mut m = RegMask::empty();
        assert!(m.insert(Reg::T0));
        assert!(!m.insert(Reg::T0));
        assert!(m.insert(Reg::A0));
        assert!(m.contains(Reg::T0) && m.contains(Reg::A0));
        assert_eq!(m.count(), 2);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![Reg::T0, Reg::A0]);
        m.remove(Reg::T0);
        assert!(!m.contains(Reg::T0));
        let other = RegMask::of(Reg::SP).union(RegMask::of(Reg::A0));
        assert_eq!(m.union(other).count(), 2);
        assert_eq!(m.intersect(other), RegMask::of(Reg::A0));
        assert_eq!(other.difference(m), RegMask::of(Reg::SP));
        assert!(!m.contains(Reg::virt(10)));
        let collected: RegMask = [Reg::T1, Reg::T2, Reg::T1].into_iter().collect();
        assert_eq!(collected.count(), 2);
    }
}
