//! Miss Status Holding Registers: outstanding-miss tracking and merging.

/// Result of trying to record a miss in the MSHR file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MshrOutcome {
    /// A new entry was allocated; the caller must issue the lower-level
    /// request.
    Allocated,
    /// An entry for this line already exists; the request was merged and
    /// will complete when the original fill returns.
    Merged,
    /// No entry free; the requester must retry later.
    Full,
}

/// A fixed-capacity MSHR file keyed by line address. Each entry carries the
/// opaque request ids merged onto it. The file holds at most a handful of
/// entries (the hardware MSHR count), so lookups are linear scans and the
/// per-entry id buffers are recycled through a small pool instead of being
/// reallocated per miss.
#[derive(Clone, Debug)]
pub(crate) struct MshrFile {
    capacity: usize,
    entries: Vec<(u64, Vec<u64>)>,
    pool: Vec<Vec<u64>>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be nonzero");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
            pool: Vec::with_capacity(capacity),
        }
    }

    /// Records a miss on `line` for request `id`.
    pub(crate) fn allocate(&mut self, line: u64, id: u64) -> MshrOutcome {
        if let Some((_, ids)) = self.entries.iter_mut().find(|(l, _)| *l == line) {
            ids.push(id);
            return MshrOutcome::Merged;
        }
        if self.entries.len() >= self.capacity {
            return MshrOutcome::Full;
        }
        let mut ids = self.pool.pop().unwrap_or_default();
        ids.clear();
        ids.push(id);
        self.entries.push((line, ids));
        MshrOutcome::Allocated
    }

    /// Completes the miss on `line`, writing every merged request id into
    /// `out` (cleared first; left empty if no entry exists, e.g. a prefetch
    /// fill) and keeping the entry's id buffer for reuse.
    pub(crate) fn complete_into(&mut self, line: u64, out: &mut Vec<u64>) {
        out.clear();
        if let Some(p) = self.entries.iter().position(|(l, _)| *l == line) {
            let (_, ids) = self.entries.swap_remove(p);
            out.extend_from_slice(&ids);
            self.pool.push(ids);
        }
    }

    /// Number of occupied entries.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.allocate(0x10, 1), MshrOutcome::Allocated);
        assert_eq!(m.allocate(0x10, 2), MshrOutcome::Merged);
        assert_eq!(m.allocate(0x20, 3), MshrOutcome::Allocated);
        assert_eq!(m.allocate(0x30, 4), MshrOutcome::Full);
        let pending = |m: &MshrFile, line| m.entries.iter().any(|(l, _)| *l == line);
        assert!(pending(&m, 0x10));
        let mut ids = Vec::new();
        m.complete_into(0x10, &mut ids);
        assert_eq!(ids, vec![1, 2]);
        assert!(!pending(&m, 0x10));
        assert_eq!(m.len(), 1);
        assert_eq!(m.allocate(0x30, 4), MshrOutcome::Allocated);
    }

    #[test]
    fn complete_unknown_line_is_empty() {
        let mut m = MshrFile::new(1);
        let mut ids = vec![7];
        m.complete_into(0x99, &mut ids);
        assert!(ids.is_empty());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        let _ = MshrFile::new(0);
    }
}
