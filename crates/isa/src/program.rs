//! Static program representation.

use std::fmt;

use crate::error::IsaError;
use crate::uop::{Pc, Uop, UopKind};

/// A validated, immutable sequence of micro-ops.
///
/// PCs are uop indices; the fall-through successor of `pc` is `pc + 1`.
/// Construct programs with [`crate::ProgramBuilder`].
#[derive(Clone, PartialEq, Eq)]
pub struct Program {
    uops: Vec<Uop>,
}

impl Program {
    /// Validates and wraps a uop sequence.
    ///
    /// # Errors
    ///
    /// Returns [`IsaError::BadBranchTarget`] if any branch or jump targets
    /// a PC outside the program.
    pub(crate) fn new(uops: Vec<Uop>) -> Result<Self, IsaError> {
        let len = uops.len() as Pc;
        for u in &uops {
            let target = match u.kind {
                UopKind::Branch { target, .. } | UopKind::Jump { target } => Some(target),
                _ => None,
            };
            if let Some(t) = target {
                if t >= len {
                    return Err(IsaError::BadBranchTarget {
                        pc: u.pc,
                        target: t,
                    });
                }
            }
        }
        Ok(Program { uops })
    }

    /// The uop at `pc`, if within the program.
    #[must_use]
    pub fn fetch(&self, pc: Pc) -> Option<&Uop> {
        self.uops.get(pc as usize)
    }

    /// Number of static uops.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.uops.len()
    }

    /// Iterates over all static uops in PC order.
    pub fn iter(&self) -> impl Iterator<Item = &Uop> {
        self.uops.iter()
    }

    /// Number of static conditional branches.
    #[must_use]
    pub(crate) fn cond_branch_count(&self) -> usize {
        self.uops.iter().filter(|u| u.is_cond_branch()).count()
    }
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("uops", &self.uops.len())
            .field("cond_branches", &self.cond_branch_count())
            .finish()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for u in &self.uops {
            writeln!(f, "{u}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::uop::Cond;

    fn uop(pc: Pc, kind: UopKind) -> Uop {
        Uop { pc, kind }
    }

    #[test]
    fn valid_program_builds() {
        let p = Program::new(vec![
            uop(0, UopKind::Nop),
            uop(
                1,
                UopKind::Branch {
                    cond: Cond::Eq,
                    target: 0,
                },
            ),
            uop(2, UopKind::Halt),
        ])
        .unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.cond_branch_count(), 1);
        assert!(p.fetch(1).unwrap().is_cond_branch());
        assert!(p.fetch(3).is_none());
    }

    #[test]
    fn out_of_range_target_rejected() {
        let err = Program::new(vec![uop(0, UopKind::Jump { target: 7 })]).unwrap_err();
        assert_eq!(err, IsaError::BadBranchTarget { pc: 0, target: 7 });
    }

    #[test]
    fn empty_program_is_valid() {
        let p = Program::new(vec![]).unwrap();
        assert_eq!(p.len(), 0);
    }
}
