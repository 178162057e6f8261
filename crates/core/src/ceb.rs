//! The Chain Extraction Buffer (§4.3, Figure 9): a circular buffer of the
//! most recently retired micro-ops, searched backwards by chain extraction.

use std::collections::VecDeque;

use br_isa::{RegSet, Uop, Width};
use br_ooo::RetiredUop;

/// A retired uop as held in the CEB: the static uop plus the dynamic facts
/// extraction needs (memory address, branch direction).
#[derive(Clone, Copy, Debug)]
pub(crate) struct CebRecord {
    /// Dynamic sequence number (monotonic).
    pub(crate) seq: u64,
    /// The static uop.
    pub(crate) uop: Uop,
    /// Registers written.
    pub(crate) dsts: RegSet,
    /// Registers read.
    pub(crate) srcs: RegSet,
    /// Memory access: `(address, width, is_store)`.
    pub(crate) mem: Option<(u64, Width, bool)>,
    /// Resolved direction for conditional branches.
    pub(crate) taken: Option<bool>,
}

impl CebRecord {
    /// Builds a record from a retired uop.
    #[must_use]
    pub(crate) fn from_retired(r: &RetiredUop) -> Self {
        CebRecord {
            seq: r.seq,
            uop: r.uop,
            dsts: r.uop.dsts(),
            srcs: r.uop.srcs(),
            mem: r.rec.mem.map(|m| (m.addr, m.width, m.is_store)),
            taken: if r.uop.is_cond_branch() {
                r.rec.branch.map(|b| b.actual_taken)
            } else {
                None
            },
        }
    }
}

/// The circular retired-uop buffer (512 entries in the Mini config).
#[derive(Clone, Debug)]
pub(crate) struct ChainExtractionBuffer {
    capacity: usize,
    buf: VecDeque<CebRecord>,
}

impl ChainExtractionBuffer {
    /// Creates a buffer holding the last `capacity` retired uops.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "CEB capacity must be nonzero");
        ChainExtractionBuffer {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a retired uop, evicting the oldest if full.
    pub(crate) fn push(&mut self, rec: CebRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec);
    }

    /// The records, oldest first.
    #[must_use]
    pub(crate) fn as_slices(&self) -> (&[CebRecord], &[CebRecord]) {
        self.buf.as_slices()
    }

    /// Validates structural invariants: occupancy within capacity and
    /// circular ordering (sequence numbers strictly increase oldest to
    /// newest).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if self.buf.len() > self.capacity {
            return Err(format!(
                "ceb: {} records exceed capacity {}",
                self.buf.len(),
                self.capacity
            ));
        }
        let mut prev: Option<u64> = None;
        for r in &self.buf {
            if let Some(p) = prev {
                if r.seq <= p {
                    return Err(format!(
                        "ceb: sequence {} not after {p} (circular order broken)",
                        r.seq
                    ));
                }
            }
            prev = Some(r.seq);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use br_isa::Pc;

    impl ChainExtractionBuffer {
        /// Number of buffered uops.
        #[must_use]
        pub(crate) fn len(&self) -> usize {
            self.buf.len()
        }
    }
    use br_isa::UopKind;

    fn rec(seq: u64, pc: Pc) -> CebRecord {
        CebRecord {
            seq,
            uop: Uop {
                pc,
                kind: UopKind::Nop,
            },
            dsts: RegSet::empty(),
            srcs: RegSet::empty(),
            mem: None,
            taken: None,
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ceb = ChainExtractionBuffer::new(3);
        for i in 0..5 {
            ceb.push(rec(i, i));
        }
        assert_eq!(ceb.len(), 3);
        let pcs: Vec<Pc> = ceb.buf.iter().rev().map(|r| r.uop.pc).collect();
        assert_eq!(pcs, vec![4, 3, 2]);
    }
}
