//! Architectural registers and dense register sets.
//!
//! The ISA has 16 general-purpose 64-bit registers (`R0`..`R15`) plus one
//! architectural flags register (`FLAGS`). The flags register is modelled
//! as an ordinary dataflow register so that the backward dataflow walk used
//! by dependence-chain extraction treats condition codes uniformly: a `cmp`
//! *writes* `FLAGS`, a conditional branch *reads* `FLAGS` — exactly the
//! "condition code register" handling described in §4.3 of the paper.

use std::fmt;

/// Number of architectural registers, including the flags register.
pub const NUM_ARCH_REGS: usize = 17;

/// An architectural register name.
///
/// `ArchReg(0)`..`ArchReg(15)` are the general-purpose registers; index 16
/// is the flags pseudo-register (`FLAGS`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArchReg(u8);

/// The architectural flags (condition-code) register.
pub(crate) const FLAGS: ArchReg = ArchReg(16);

/// General-purpose register `R0`.
pub const R0: ArchReg = ArchReg(0);
/// General-purpose register `R1`.
pub const R1: ArchReg = ArchReg(1);
/// General-purpose register `R2`.
pub const R2: ArchReg = ArchReg(2);
/// General-purpose register `R3`.
pub const R3: ArchReg = ArchReg(3);
/// General-purpose register `R4`.
pub const R4: ArchReg = ArchReg(4);
/// General-purpose register `R5`.
pub const R5: ArchReg = ArchReg(5);
/// General-purpose register `R6`.
pub const R6: ArchReg = ArchReg(6);
/// General-purpose register `R7`.
pub const R7: ArchReg = ArchReg(7);
/// General-purpose register `R8`.
pub const R8: ArchReg = ArchReg(8);
/// General-purpose register `R9`.
pub const R9: ArchReg = ArchReg(9);
/// General-purpose register `R10`.
pub const R10: ArchReg = ArchReg(10);
/// General-purpose register `R11`.
pub const R11: ArchReg = ArchReg(11);
/// General-purpose register `R12`.
pub const R12: ArchReg = ArchReg(12);
/// General-purpose register `R13`.
pub const R13: ArchReg = ArchReg(13);
/// General-purpose register `R14`.
pub const R14: ArchReg = ArchReg(14);
/// General-purpose register `R15`.
pub const R15: ArchReg = ArchReg(15);

impl ArchReg {
    /// Creates a register from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= NUM_ARCH_REGS`.
    #[must_use]
    pub fn new(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_ARCH_REGS,
            "register index {index} out of range"
        );
        ArchReg(index)
    }

    /// The raw index of this register (`0..NUM_ARCH_REGS`).
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the flags pseudo-register.
    #[must_use]
    pub(crate) fn is_flags(self) -> bool {
        self == FLAGS
    }

    /// Iterates over the general-purpose registers only.
    pub fn gprs() -> impl Iterator<Item = ArchReg> {
        (0..16u8).map(ArchReg)
    }
}

impl fmt::Debug for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_flags() {
            write!(f, "flags")
        } else {
            write!(f, "r{}", self.0)
        }
    }
}

/// A dense set of architectural registers, stored as a bitmask.
///
/// Used throughout dependence-chain extraction as the "search list" of the
/// backward dataflow walk (the `LIV` set in Figure 9 of the paper) and as
/// the *dest sets* produced by the merge-point predictor.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct RegSet(u32);

impl RegSet {
    /// The empty register set.
    #[must_use]
    pub fn empty() -> Self {
        RegSet(0)
    }

    /// A set containing a single register.
    #[must_use]
    pub fn single(r: ArchReg) -> Self {
        RegSet(1 << r.index())
    }

    /// Whether `r` is a member.
    #[must_use]
    pub fn contains(self, r: ArchReg) -> bool {
        self.0 & (1 << r.index()) != 0
    }

    /// Inserts `r`, returning whether it was newly added.
    pub fn insert(&mut self, r: ArchReg) -> bool {
        let bit = 1 << r.index();
        let added = self.0 & bit == 0;
        self.0 |= bit;
        added
    }

    /// Removes `r`, returning whether it was present.
    pub fn remove(&mut self, r: ArchReg) -> bool {
        let bit = 1 << r.index();
        let present = self.0 & bit != 0;
        self.0 &= !bit;
        present
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: RegSet) -> RegSet {
        RegSet(self.0 | other.0)
    }

    /// Set difference (`self` minus `other`).
    #[must_use]
    pub fn difference(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Whether the two sets share any register.
    #[must_use]
    pub fn intersects(self, other: RegSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over the members in index order, one step per set bit.
    pub fn iter(self) -> impl Iterator<Item = ArchReg> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let index = bits.trailing_zeros();
            bits &= bits.wrapping_sub(1);
            (index < u32::BITS).then_some(ArchReg(index as u8))
        })
    }
}

impl FromIterator<ArchReg> for RegSet {
    fn from_iter<T: IntoIterator<Item = ArchReg>>(iter: T) -> Self {
        let mut s = RegSet::empty();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<ArchReg> for RegSet {
    fn extend<T: IntoIterator<Item = ArchReg>>(&mut self, iter: T) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Debug for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ArchReg {
        /// Iterates over every architectural register, including `FLAGS`.
        pub(crate) fn all() -> impl Iterator<Item = ArchReg> {
            (0..NUM_ARCH_REGS as u8).map(ArchReg)
        }
    }

    impl RegSet {
        /// Whether the set contains no registers.
        #[must_use]
        pub(crate) fn is_empty(self) -> bool {
            self.0 == 0
        }

        /// Number of registers in the set.
        #[must_use]
        pub(crate) fn len(self) -> usize {
            self.0.count_ones() as usize
        }

        /// Set intersection.
        #[must_use]
        pub(crate) fn intersection(self, other: RegSet) -> RegSet {
            RegSet(self.0 & other.0)
        }
    }

    #[test]
    fn reg_indices_round_trip() {
        for r in ArchReg::all() {
            assert_eq!(ArchReg::new(r.index() as u8), r);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_index_out_of_range_panics() {
        let _ = ArchReg::new(17);
    }

    #[test]
    fn flags_is_not_a_gpr() {
        assert!(FLAGS.is_flags());
        assert!(ArchReg::gprs().all(|r| !r.is_flags()));
        assert_eq!(ArchReg::gprs().count(), 16);
        assert_eq!(ArchReg::all().count(), NUM_ARCH_REGS);
    }

    #[test]
    fn regset_insert_remove() {
        let mut s = RegSet::empty();
        assert!(s.is_empty());
        assert!(s.insert(R3));
        assert!(!s.insert(R3));
        assert!(s.contains(R3));
        assert_eq!(s.len(), 1);
        assert!(s.remove(R3));
        assert!(!s.remove(R3));
        assert!(s.is_empty());
    }

    #[test]
    fn regset_algebra() {
        let a: RegSet = [R0, R1, FLAGS].into_iter().collect();
        let b: RegSet = [R1, R2].into_iter().collect();
        assert_eq!(a.union(b).len(), 4);
        assert_eq!(a.intersection(b), RegSet::single(R1));
        assert_eq!(a.difference(b), [R0, FLAGS].into_iter().collect());
        assert!(a.intersects(b));
        assert!(!a.difference(b).intersects(b));
    }

    #[test]
    fn regset_display_nonempty() {
        let s: RegSet = [R0, FLAGS].into_iter().collect();
        assert_eq!(s.to_string(), "{r0, flags}");
        assert_eq!(RegSet::empty().to_string(), "{}");
    }

    #[test]
    fn regset_iter_sorted() {
        let s: RegSet = [R9, R1, R4].into_iter().collect();
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![R1, R4, R9]);
    }

    #[test]
    fn regset_iter_walks_the_set_bits_in_index_order() {
        // Every mask over the 17 registers: the set-bit walk must equal
        // the filtered scan of all registers, order included.
        for mask in 0..1u32 << NUM_ARCH_REGS {
            let s = RegSet(mask);
            let scan: Vec<_> = ArchReg::all().filter(|&r| s.contains(r)).collect();
            assert!(s.iter().eq(scan.iter().copied()), "mask {mask:#x}");
        }
    }
}
