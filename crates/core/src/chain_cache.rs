//! The Dependence Chain Cache (§4.2): extracted chains awaiting initiation.

use std::sync::Arc;

use br_isa::Pc;

use crate::chain::DependenceChain;

#[derive(Clone, Debug)]
struct CacheEntry {
    chain: Arc<DependenceChain>,
    lru: u64,
}

/// A small fully-associative LRU cache of dependence chains, indexed by
/// initiation tag at lookup time. Multiple chains may share a tag (e.g.
/// both branch A's and branch B's chains can be initiated by `<A, NT>`);
/// a lookup returns all of them, matching §4.1 "initiate all matching
/// chains".
#[derive(Clone, Debug)]
pub struct DependenceChainCache {
    capacity: usize,
    entries: Vec<CacheEntry>,
    tick: u64,
    lookups: u64,
    hits: u64,
}

impl DependenceChainCache {
    /// Creates a cache holding `capacity` chains (32 in the Mini config).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "chain cache capacity must be nonzero");
        DependenceChainCache {
            capacity,
            entries: Vec::new(),
            tick: 0,
            lookups: 0,
            hits: 0,
        }
    }

    /// Installs a chain, replacing any existing chain with the same tag
    /// and target branch, or evicting the LRU entry when full.
    pub(crate) fn install(&mut self, chain: DependenceChain) -> Arc<DependenceChain> {
        self.tick += 1;
        let arc = Arc::new(chain);
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.chain.tag == arc.tag && e.chain.branch_pc == arc.branch_pc)
        {
            e.chain = Arc::clone(&arc);
            e.lru = self.tick;
            return arc;
        }
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter_mut()
                .min_by_key(|e| e.lru)
                .expect("nonempty at capacity");
            *victim = CacheEntry {
                chain: Arc::clone(&arc),
                lru: self.tick,
            };
        } else {
            self.entries.push(CacheEntry {
                chain: Arc::clone(&arc),
                lru: self.tick,
            });
        }
        arc
    }

    /// Allocation-free [`DependenceChainCache::lookup`]: clears `out` and
    /// fills it with the matching chains (the hot path reuses one buffer).
    pub(crate) fn lookup_into(
        &mut self,
        pc: Pc,
        outcome: bool,
        out: &mut Vec<Arc<DependenceChain>>,
    ) {
        out.clear();
        self.tick += 1;
        self.lookups += 1;
        let tick = self.tick;
        for e in &mut self.entries {
            if e.chain.tag.matches(pc, outcome) {
                e.lru = tick;
                out.push(Arc::clone(&e.chain));
            }
        }
        if !out.is_empty() {
            self.hits += 1;
        }
    }

    /// Whether any cached chain would match the `(pc, outcome)` event
    /// (no LRU side effects).
    #[must_use]
    pub(crate) fn has_match(&self, pc: Pc, outcome: bool) -> bool {
        self.entries
            .iter()
            .any(|e| e.chain.tag.matches(pc, outcome))
    }

    /// Whether some cached chain pre-computes the branch at `pc` (i.e.
    /// `pc` is a *covered* branch — drives Figure 12's denominator).
    #[must_use]
    pub(crate) fn covers_branch(&self, pc: Pc) -> bool {
        self.entries.iter().any(|e| e.chain.branch_pc == pc)
    }

    /// Iterates over the cached chains.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<DependenceChain>> {
        self.entries.iter().map(|e| &e.chain)
    }

    /// Number of cached chains.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Lifetime `(lookups, hits)` where a hit is a lookup matching at
    /// least one chain. Telemetry turns the deltas into an interval hit
    /// rate.
    #[must_use]
    pub(crate) fn lookup_stats(&self) -> (u64, u64) {
        (self.lookups, self.hits)
    }

    /// Fault injection: evicts the entry at position `sel % len`
    /// (models a spurious capacity eviction — the chain must be
    /// re-extracted, a pure performance event). Returns whether anything
    /// was evicted.
    pub(crate) fn chaos_evict(&mut self, sel: u64) -> bool {
        if self.entries.is_empty() {
            return false;
        }
        let idx = (sel % self.entries.len() as u64) as usize;
        self.entries.swap_remove(idx);
        true
    }

    /// Validates structural invariants: entry count within capacity and
    /// LRU stamps not exceeding the access tick.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        if self.entries.len() > self.capacity {
            return Err(format!(
                "chain cache: {} entries exceed capacity {}",
                self.entries.len(),
                self.capacity
            ));
        }
        for e in &self.entries {
            if e.lru > self.tick {
                return Err(format!(
                    "chain cache[{:#x}]: LRU stamp {} ahead of tick {}",
                    e.chain.branch_pc, e.lru, self.tick
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DependenceChainCache {
        /// All chains whose tag matches the `(pc, outcome)` event, refreshing
        /// their LRU position.
        pub(crate) fn lookup(&mut self, pc: Pc, outcome: bool) -> Vec<Arc<DependenceChain>> {
            let mut chains = Vec::new();
            self.lookup_into(pc, outcome, &mut chains);
            chains
        }
    }
    use crate::chain::{ChainOp, ChainSrc, ChainTag};
    use br_isa::Cond;

    fn chain(tag_pc: Pc, outcome: Option<bool>, branch_pc: Pc) -> DependenceChain {
        let tag = ChainTag {
            pc: tag_pc,
            outcome,
        };
        let r1 = br_isa::reg::R1;
        let ops = vec![ChainOp::Cmp {
            src1: ChainSrc::LiveIn(r1),
            src2: ChainSrc::Imm(0),
        }];
        DependenceChain::new(tag, branch_pc, Cond::Eq, ops, 1 << r1.index(), vec![])
    }

    #[test]
    fn lookup_matches_wildcard_and_outcome() {
        let mut cc = DependenceChainCache::new(8);
        cc.install(chain(0x10, None, 0x10)); // <A,*> -> A
        cc.install(chain(0x10, Some(false), 0x20)); // <A,NT> -> B
        assert_eq!(cc.lookup(0x10, false).len(), 2);
        assert_eq!(cc.lookup(0x10, true).len(), 1);
        assert!(cc.covers_branch(0x20));
        assert!(!cc.covers_branch(0x30));
    }

    #[test]
    fn reinstall_replaces_same_identity() {
        let mut cc = DependenceChainCache::new(8);
        cc.install(chain(0x10, None, 0x10));
        let mut c2 = chain(0x10, None, 0x10);
        c2.eliminated_uops = 5;
        cc.install(c2);
        assert_eq!(cc.len(), 1);
        assert_eq!(cc.lookup(0x10, true)[0].eliminated_uops, 5);
    }

    #[test]
    fn lru_eviction() {
        let mut cc = DependenceChainCache::new(2);
        cc.install(chain(0x10, None, 0x10));
        cc.install(chain(0x20, None, 0x20));
        let _ = cc.lookup(0x10, true); // refresh 0x10
        cc.install(chain(0x30, None, 0x30)); // evicts 0x20
        assert!(cc.covers_branch(0x10));
        assert!(!cc.covers_branch(0x20));
        assert!(cc.covers_branch(0x30));
        assert_eq!(cc.len(), 2);
    }
}
