//! Set-associative write-back cache tag store with LRU replacement.

use crate::LINE_BYTES;

/// Geometry of a [`Cache`]; every cache has [`LINE_BYTES`] lines.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// 32 KB, 8-way, 64 B lines — the paper's L1 (Table 1).
    #[must_use]
    pub(crate) fn l1() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
        }
    }

    /// 2 MB — the paper's L2 (Table 1). The paper specifies 12 ways;
    /// we use 16 so the set count stays a power of two (same capacity,
    /// same latency — the associativity difference is immaterial for the
    /// latency-distribution role the L2 plays here).
    #[must_use]
    pub(crate) fn l2() -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024,
            ways: 16,
        }
    }

    /// Checks the geometry [`Cache::new`] asserts on.
    ///
    /// # Errors
    ///
    /// Names a zero size or way count, or a size that is not a
    /// power-of-two number of whole sets.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.ways == 0 {
            return Err(format!(
                "cache size and ways must be nonzero, got {} B, {} ways",
                self.size_bytes, self.ways
            ));
        }
        let set_bytes = LINE_BYTES.saturating_mul(self.ways as u64);
        let sets = self.size_bytes / set_bytes;
        if sets.is_power_of_two() && sets * set_bytes == self.size_bytes {
            Ok(())
        } else {
            Err(format!(
                "cache size must be a power-of-two number of sets of ways x line size, \
                 got {} B for {} ways of {LINE_BYTES} B lines",
                self.size_bytes, self.ways
            ))
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a nonzero power of two (a size that
    /// does not divide evenly is rounded down; [`Self::validate`] rejects
    /// it).
    #[must_use]
    pub(crate) fn sets(&self) -> usize {
        let lines = self.size_bytes / LINE_BYTES;
        let sets = (lines / self.ways as u64) as usize;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "cache sets must be a nonzero power of two, got {sets}"
        );
        sets
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// Outcome of a cache access or fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty victim line's *byte* address, if the access/fill evicted one.
    pub(crate) writeback: Option<u64>,
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines filled.
    pub(crate) fills: u64,
    /// Dirty evictions.
    pub(crate) writebacks: u64,
}
crate::counters!(CacheStats {
    hits,
    misses,
    fills,
    writebacks
});

impl CacheStats {
    /// Miss ratio over demand accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A tag-only set-associative cache model.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every set's ways back to back: set `s` is
    /// `ways[s * cfg.ways..(s + 1) * cfg.ways]`.
    ways: Vec<Way>,
    sets_log2: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from `cfg`.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            ways: vec![Way::default(); sets * cfg.ways],
            sets_log2: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / LINE_BYTES;
        let set = (line as usize) & ((1 << self.sets_log2) - 1);
        (set, line >> self.sets_log2)
    }

    fn set(&self, set: usize) -> &[Way] {
        &self.ways[set * self.cfg.ways..(set + 1) * self.cfg.ways]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Way] {
        &mut self.ways[set * self.cfg.ways..(set + 1) * self.cfg.ways]
    }

    /// Whether `addr`'s line is present (no LRU or stats side effects).
    #[must_use]
    pub(crate) fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.set(set).iter().any(|w| w.valid && w.tag == tag)
    }

    /// Demand access. On a hit the line's LRU is refreshed and, for writes,
    /// the dirty bit set. Misses do *not* fill — the caller fills after the
    /// lower level responds (see [`Cache::fill`]).
    pub fn access(&mut self, addr: u64, is_write: bool) -> CacheAccess {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        for w in self.set_mut(set) {
            if w.valid && w.tag == tag {
                w.lru = tick;
                if is_write {
                    w.dirty = true;
                }
                self.stats.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: None,
                };
            }
        }
        self.stats.misses += 1;
        CacheAccess {
            hit: false,
            writeback: None,
        }
    }

    /// Installs `addr`'s line, evicting the LRU way. Returns the dirty
    /// victim's address, if any. `dirty` marks the new line dirty
    /// immediately (write-allocate store miss).
    pub fn fill(&mut self, addr: u64, dirty: bool) -> CacheAccess {
        self.tick += 1;
        self.stats.fills += 1;
        let (set, tag) = self.set_and_tag(addr);
        let (sets_log2, tick) = (self.sets_log2, self.tick);
        let set_ways = self.set_mut(set);
        // Already present (e.g. prefetch raced a demand fill): refresh.
        if let Some(w) = set_ways.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = tick;
            w.dirty |= dirty;
            return CacheAccess {
                hit: true,
                writeback: None,
            };
        }
        let victim = set_ways
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru } else { 0 })
            .expect("ways is nonempty");
        let mut writeback = None;
        let mut evicted_dirty = false;
        if victim.valid && victim.dirty {
            let line = (victim.tag << sets_log2) | set as u64;
            writeback = Some(line * LINE_BYTES);
            evicted_dirty = true;
        }
        *victim = Way {
            valid: true,
            dirty,
            tag,
            lru: tick,
        };
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).hit);
        c.fill(0x100, false);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x13f, false).hit, "same line, different offset");
        assert!(!c.access(0x140, false).hit, "next line misses");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (64B lines, 4 sets → stride 256).
        c.fill(0x000, false);
        c.fill(0x400, false);
        assert!(c.access(0x000, false).hit); // refresh 0x000
        c.fill(0x800, false); // evicts 0x400
        assert!(c.probe(0x000));
        assert!(!c.probe(0x400));
        assert!(c.probe(0x800));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x000, false);
        assert!(c.access(0x000, true).hit);
        c.fill(0x400, false);
        let res = c.fill(0x800, false);
        assert_eq!(res.writeback, Some(0x000), "dirty LRU victim written back");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn store_miss_fill_marks_dirty() {
        let mut c = tiny();
        c.fill(0x000, true);
        c.fill(0x400, false);
        let res = c.fill(0x800, false);
        assert_eq!(res.writeback, Some(0x000));
    }

    #[test]
    fn duplicate_fill_is_idempotent() {
        let mut c = tiny();
        c.fill(0x100, false);
        let res = c.fill(0x100, true);
        assert!(res.hit);
        assert!(c.probe(0x100));
    }

    #[test]
    fn paper_geometries_validate() {
        assert_eq!(CacheConfig::l1().validate(), Ok(()));
        assert_eq!(CacheConfig::l2().validate(), Ok(()));
        assert_eq!(CacheConfig::l1().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 2048);
        assert!(!Cache::new(CacheConfig::l2()).probe(0));
    }

    #[test]
    fn stats_accumulate() {
        let mut c = tiny();
        c.access(0x0, false);
        c.fill(0x0, false);
        c.access(0x0, false);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 1, 1));
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
