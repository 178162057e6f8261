//! Data TLB model.
//!
//! The paper's DCE "shares the D-Cache and D-TLB with the core" (§4.2).
//! This TLB is a fully-associative LRU array of page translations; a miss
//! adds a fixed page-walk latency to the access that triggered it. The
//! simulator is physically-mapped, so the TLB models *timing only*.

/// Number of entries.
const ENTRIES: usize = 64;
/// log2 page size in bytes (4 KB pages).
const PAGE_LOG2: u32 = 12;
/// Page-walk latency in cycles added to a missing access.
const WALK_LATENCY: u64 = 25;

/// TLB statistics.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TlbStats {
    /// Accesses that hit.
    pub(crate) hits: u64,
    /// Accesses that missed (paid the walk).
    pub(crate) misses: u64,
}
crate::counters!(TlbStats { hits, misses });

/// A fully-associative, LRU data TLB.
#[derive(Clone, Debug)]
pub(crate) struct Tlb {
    /// (page number, lru tick)
    entries: Vec<(u64, u64)>,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    #[must_use]
    pub(crate) fn new() -> Self {
        Tlb {
            entries: Vec::new(),
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// Translates `addr`; returns the extra latency this access pays
    /// (0 on a hit, the walk latency on a miss, which also fills).
    pub(crate) fn access(&mut self, addr: u64) -> u64 {
        self.tick += 1;
        let page = addr >> PAGE_LOG2;
        if let Some(e) = self.entries.iter_mut().find(|(p, _)| *p == page) {
            e.1 = self.tick;
            self.stats.hits += 1;
            return 0;
        }
        self.stats.misses += 1;
        if self.entries.len() >= ENTRIES {
            let victim = self
                .entries
                .iter_mut()
                .min_by_key(|(_, lru)| *lru)
                .expect("nonempty at capacity");
            *victim = (page, self.tick);
        } else {
            self.entries.push((page, self.tick));
        }
        WALK_LATENCY
    }

    /// Accumulated statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> TlbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_same_page() {
        let mut t = Tlb::new();
        assert_eq!(t.access(0x1234), 25);
        assert_eq!(t.access(0x1FFF), 0, "same 4KB page");
        assert_eq!(t.access(0x2000), 25, "next page misses");
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn lru_eviction_at_capacity() {
        let mut t = Tlb::new();
        let page = |p: usize| (p as u64) << PAGE_LOG2;
        for p in 0..ENTRIES {
            t.access(page(p));
        }
        t.access(page(0)); // refresh page 0
        t.access(page(ENTRIES)); // evicts page 1
        assert_eq!(t.access(page(0)), 0);
        assert_eq!(t.access(page(1)), WALK_LATENCY, "page 1 was evicted");
    }
}
