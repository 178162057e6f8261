//! TAGE: TAgged GEometric-history-length branch predictor.
//!
//! A from-scratch implementation of the TAGE component of TAGE-SC-L
//! (Seznec, CBP-2016 winner): a bimodal base predictor plus `N` tagged
//! tables indexed by geometrically increasing folded global history.
//! Includes the standard machinery — alternate prediction, the
//! `use_alt_on_na` newly-allocated policy, useful-bit management with
//! periodic graceful reset, and randomized entry allocation on
//! mispredictions.

use br_isa::Pc;

use crate::history::{GlobalHistory, HistoryCheckpoint};
use crate::inline_vec::InlineVec;

/// Hard cap on tagged tables: sized for the unlimited (MTAGE-like)
/// configuration so [`TageMeta`]'s per-table lists stay inline.
pub(crate) const MAX_TAGE_TABLES: usize = 20;

/// Configuration for a [`Tage`] predictor.
#[derive(Clone, Debug)]
pub(crate) struct TageConfig {
    /// Number of tagged tables.
    pub(crate) num_tables: usize,
    /// Shortest geometric history length.
    pub(crate) min_hist: u32,
    /// Longest geometric history length.
    pub(crate) max_hist: u32,
    /// log2 entries of each tagged table.
    pub(crate) table_log2: u32,
    /// Tag width in bits for tagged tables.
    pub(crate) tag_bits: u32,
    /// log2 entries of the bimodal base table.
    pub(crate) bimodal_log2: u32,
    /// Graceful useful-bit reset period (in updates).
    pub(crate) reset_period: u64,
    /// Capacity of the global history ring (power of two, > 2×max_hist).
    pub(crate) history_capacity: usize,
}

impl TageConfig {
    /// A ~64 KB-class configuration (12 tables, histories 4..1000).
    #[must_use]
    pub(crate) fn kb64() -> Self {
        TageConfig {
            num_tables: 12,
            min_hist: 4,
            max_hist: 1000,
            table_log2: 11,
            tag_bits: 12,
            bimodal_log2: 14,
            reset_period: 256 * 1024,
            history_capacity: 4096,
        }
    }

    /// A ~80 KB-class configuration: the 64 KB tables scaled up ~25%.
    /// The paper uses this to show that *more TAGE storage barely helps*
    /// on data-dependent branches (§5.2).
    #[must_use]
    pub(crate) fn kb80() -> Self {
        TageConfig {
            num_tables: 13,
            min_hist: 4,
            max_hist: 1200,
            table_log2: 11,
            tag_bits: 13,
            bimodal_log2: 15,
            reset_period: 256 * 1024,
            history_capacity: 4096,
        }
    }

    /// An MTAGE-like unlimited-storage configuration (CBP-2016 unlimited
    /// track winner analogue): many large, wide-tagged tables and very
    /// long histories.
    #[must_use]
    pub(crate) fn unlimited() -> Self {
        TageConfig {
            num_tables: 20,
            min_hist: 4,
            max_hist: 3000,
            table_log2: 16,
            tag_bits: 16,
            bimodal_log2: 18,
            reset_period: 1024 * 1024,
            history_capacity: 8192,
        }
    }

    /// The geometric history length of tagged table `i` (0-based, shortest
    /// first).
    #[must_use]
    pub(crate) fn history_length(&self, i: usize) -> u32 {
        if self.num_tables == 1 {
            return self.min_hist;
        }
        let ratio = f64::from(self.max_hist) / f64::from(self.min_hist);
        let exp = i as f64 / (self.num_tables - 1) as f64;
        (f64::from(self.min_hist) * ratio.powf(exp)).round() as u32
    }

    /// Total storage in KiB implied by this configuration.
    #[must_use]
    pub(crate) fn storage_kib(&self) -> f64 {
        let tagged_bits =
            self.num_tables as u64 * (1u64 << self.table_log2) * (u64::from(self.tag_bits) + 3 + 2);
        let bimodal_bits = (1u64 << self.bimodal_log2) * 2;
        (tagged_bits + bimodal_bits) as f64 / 8.0 / 1024.0
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TaggedEntry {
    ctr: i8, // 3-bit signed: -4..=3
    tag: u16,
    u: u8, // 2-bit useful
}

/// Prediction-time metadata latched for training. Kept `Copy` (inline
/// per-table lists) so predicting never allocates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TageMeta {
    /// Per-table indices computed at prediction time.
    pub(crate) indices: InlineVec<u32, MAX_TAGE_TABLES>,
    /// Per-table tags computed at prediction time.
    pub(crate) tags: InlineVec<u16, MAX_TAGE_TABLES>,
    /// Provider table (`None` = bimodal provided).
    pub(crate) provider: Option<usize>,
    /// Alternate-prediction table (`None` = bimodal).
    pub(crate) alt_table: Option<usize>,
    /// Direction the provider gave.
    pub(crate) provider_taken: bool,
    /// Direction the alternate gave.
    pub(crate) alt_taken: bool,
    /// Whether the final TAGE output used the alternate.
    pub(crate) used_alt: bool,
    /// Bimodal index.
    pub(crate) bimodal_index: usize,
    /// Whether the provider entry was a weak (newly-allocated-like) one.
    pub(crate) weak_provider: bool,
}

/// The TAGE predictor. See module docs.
pub(crate) struct Tage {
    cfg: TageConfig,
    bimodal: Vec<u8>, // 2-bit counters
    tables: Vec<Vec<TaggedEntry>>,
    hist: GlobalHistory,
    idx_fold: Vec<usize>,
    tag_fold0: Vec<usize>,
    tag_fold1: Vec<usize>,
    /// Per table, the mask of the path-history bits its index mixes in:
    /// the low `min(history length, 16)` bits.
    path_mask: Vec<u64>,
    use_alt_on_na: i8, // 4-bit signed counter
    lfsr: u32,
    updates: u64,
}

impl std::fmt::Debug for Tage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tage")
            .field("tables", &self.cfg.num_tables)
            .field("updates", &self.updates)
            .finish()
    }
}

impl Tage {
    /// Builds a TAGE predictor from `cfg`.
    #[must_use]
    pub(crate) fn new(cfg: TageConfig) -> Self {
        assert!(
            cfg.num_tables <= MAX_TAGE_TABLES,
            "at most {MAX_TAGE_TABLES} tagged tables supported"
        );
        let mut hist = GlobalHistory::new(cfg.history_capacity);
        let mut idx_fold = Vec::new();
        let mut tag_fold0 = Vec::new();
        let mut tag_fold1 = Vec::new();
        let mut path_mask = Vec::new();
        for i in 0..cfg.num_tables {
            let hl = cfg.history_length(i);
            idx_fold.push(hist.add_folded(hl, cfg.table_log2));
            tag_fold0.push(hist.add_folded(hl, cfg.tag_bits));
            tag_fold1.push(hist.add_folded(hl, cfg.tag_bits - 1));
            path_mask.push((1 << hl.min(16)) - 1);
        }
        Tage {
            bimodal: vec![2; 1 << cfg.bimodal_log2], // weakly taken
            tables: vec![vec![TaggedEntry::default(); 1 << cfg.table_log2]; cfg.num_tables],
            hist,
            idx_fold,
            tag_fold0,
            tag_fold1,
            path_mask,
            use_alt_on_na: 0,
            lfsr: 0xace1,
            updates: 0,
            cfg,
        }
    }

    fn rand_bit(&mut self) -> bool {
        // 16-bit Galois LFSR: deterministic, cheap allocation tie-breaking.
        let lsb = self.lfsr & 1;
        self.lfsr >>= 1;
        if lsb != 0 {
            self.lfsr ^= 0xB400;
        }
        lsb != 0
    }

    fn table_index(&self, pc: Pc, i: usize) -> usize {
        let mask = (1usize << self.cfg.table_log2) - 1;
        let folded = u64::from(self.hist.folded(self.idx_fold[i]));
        let path = self.hist.path() & self.path_mask[i];
        ((pc ^ (pc >> (self.cfg.table_log2 as u64 - i as u64 % 4))
            ^ folded
            ^ (path >> (i as u64 & 3))) as usize)
            & mask
    }

    fn table_tag(&self, pc: Pc, i: usize) -> u16 {
        let mask = (1u32 << self.cfg.tag_bits) - 1;
        let f0 = self.hist.folded(self.tag_fold0[i]);
        let f1 = self.hist.folded(self.tag_fold1[i]) << 1;
        ((pc as u32) ^ f0 ^ f1) as u16 & mask as u16
    }

    fn bimodal_index(&self, pc: Pc) -> usize {
        (pc as usize) & ((1 << self.cfg.bimodal_log2) - 1)
    }

    fn bimodal_taken(&self, idx: usize) -> bool {
        self.bimodal[idx] >= 2
    }

    /// Computes the metadata and raw TAGE decision for `pc` without
    /// touching any state. Exposed so TAGE-SC-L can wrap it.
    #[must_use]
    pub(crate) fn lookup(&self, pc: Pc) -> (bool, TageMeta) {
        let n = self.cfg.num_tables;
        let mut indices = InlineVec::new();
        let mut tags = InlineVec::new();
        for i in 0..n {
            indices.push(self.table_index(pc, i) as u32);
            tags.push(self.table_tag(pc, i));
        }
        // Longest-history match provides; next match (or bimodal) is alt.
        let mut provider = None;
        let mut alt_table = None;
        for i in (0..n).rev() {
            if self.tables[i][indices[i] as usize].tag == tags[i] {
                if provider.is_none() {
                    provider = Some(i);
                } else {
                    alt_table = Some(i);
                    break;
                }
            }
        }
        let bimodal_index = self.bimodal_index(pc);
        let bimodal_dir = self.bimodal_taken(bimodal_index);
        let alt_taken = alt_table.map_or(bimodal_dir, |t| {
            self.tables[t][indices[t] as usize].ctr >= 0
        });
        let (provider_taken, weak_provider) = match provider {
            Some(t) => {
                let e = &self.tables[t][indices[t] as usize];
                (e.ctr >= 0, (2 * i32::from(e.ctr) + 1).abs() == 1)
            }
            None => (bimodal_dir, false),
        };
        let used_alt = provider.is_some() && weak_provider && self.use_alt_on_na >= 0;
        let taken = if provider.is_none() {
            bimodal_dir
        } else if used_alt {
            alt_taken
        } else {
            provider_taken
        };
        (
            taken,
            TageMeta {
                indices,
                tags,
                provider,
                alt_table,
                provider_taken,
                alt_taken,
                used_alt,
                bimodal_index,
                weak_provider,
            },
        )
    }

    fn update_bimodal(&mut self, idx: usize, taken: bool) {
        let c = &mut self.bimodal[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn update_ctr(e: &mut TaggedEntry, taken: bool) {
        if taken {
            e.ctr = (e.ctr + 1).min(3);
        } else {
            e.ctr = (e.ctr - 1).max(-4);
        }
    }

    /// Trains TAGE with the resolved outcome using prediction-time `meta`.
    /// `final_taken` is the direction TAGE itself predicted (for useful-bit
    /// bookkeeping).
    pub(crate) fn train(&mut self, taken: bool, tage_taken: bool, meta: &TageMeta) {
        self.updates += 1;
        // Graceful useful-bit reset.
        if self.updates.is_multiple_of(self.cfg.reset_period) {
            let phase_hi = (self.updates / self.cfg.reset_period).is_multiple_of(2);
            for t in &mut self.tables {
                for e in t.iter_mut() {
                    e.u &= if phase_hi { 0b01 } else { 0b10 };
                }
            }
        }

        // use_alt_on_na: track whether alt beats a weak provider.
        if let Some(p) = meta.provider {
            if meta.weak_provider && meta.provider_taken != meta.alt_taken {
                let delta = if meta.alt_taken == taken { 1 } else { -1 };
                self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
            }
            // Useful bit: provider differed from alt and was right.
            if meta.provider_taken != meta.alt_taken {
                let e = &mut self.tables[p][meta.indices[p] as usize];
                if meta.provider_taken == taken {
                    e.u = (e.u + 1).min(3);
                } else {
                    e.u = e.u.saturating_sub(1);
                }
            }
            // Train provider counter; train alt too if provider was weak
            // and alt was used.
            let e = &mut self.tables[p][meta.indices[p] as usize];
            Self::update_ctr(e, taken);
            if meta.used_alt {
                match meta.alt_table {
                    Some(a) => {
                        Self::update_ctr(&mut self.tables[a][meta.indices[a] as usize], taken);
                    }
                    None => self.update_bimodal(meta.bimodal_index, taken),
                }
            }
        } else {
            self.update_bimodal(meta.bimodal_index, taken);
        }

        // Allocate on a misprediction, in a table with longer history.
        if tage_taken != taken {
            let start = meta.provider.map_or(0, |p| p + 1);
            if start < self.cfg.num_tables {
                // Random skip of up to 2 tables avoids ping-pong allocation.
                let mut first = start;
                if self.rand_bit() && first + 1 < self.cfg.num_tables {
                    first += 1;
                    if self.rand_bit() && first + 1 < self.cfg.num_tables {
                        first += 1;
                    }
                }
                let mut allocated = false;
                for i in first..self.cfg.num_tables {
                    let idx = meta.indices[i] as usize;
                    if self.tables[i][idx].u == 0 {
                        self.tables[i][idx] = TaggedEntry {
                            ctr: if taken { 0 } else { -1 },
                            tag: meta.tags[i],
                            u: 0,
                        };
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    for i in start..self.cfg.num_tables {
                        let idx = meta.indices[i] as usize;
                        let e = &mut self.tables[i][idx];
                        e.u = e.u.saturating_sub(1);
                    }
                }
            }
        }
    }

    /// The configuration this predictor was built with.
    #[must_use]
    pub(crate) fn config(&self) -> &TageConfig {
        &self.cfg
    }

    /// Pushes a speculative outcome into the global history.
    pub(crate) fn push_history(&mut self, pc: Pc, taken: bool) {
        self.hist.push(pc, taken);
    }

    /// Checkpoints the speculative history into an existing buffer.
    pub(crate) fn history_checkpoint_into(&self, cp: &mut HistoryCheckpoint) {
        self.hist.checkpoint_into(cp);
    }

    /// Restores a speculative-history checkpoint.
    pub(crate) fn restore_history(&mut self, cp: &HistoryCheckpoint) {
        self.hist.restore(cp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Tage {
        Tage::new(TageConfig {
            num_tables: 6,
            min_hist: 4,
            max_hist: 128,
            table_log2: 9,
            tag_bits: 9,
            bimodal_log2: 10,
            reset_period: 1 << 20,
            history_capacity: 1024,
        })
    }

    /// Drives the full fetch protocol for one branch outcome.
    fn step(p: &mut Tage, pc: Pc, taken: bool) -> bool {
        let (pred, meta) = p.lookup(pc);
        p.push_history(pc, taken);
        p.train(taken, pred, &meta);
        pred == taken
    }

    #[test]
    fn geometric_lengths_monotonic() {
        let cfg = TageConfig::kb64();
        let mut prev = 0;
        for i in 0..cfg.num_tables {
            let l = cfg.history_length(i);
            assert!(l > prev, "table {i} length {l} not > {prev}");
            prev = l;
        }
        assert_eq!(cfg.history_length(0), cfg.min_hist);
        assert_eq!(cfg.history_length(cfg.num_tables - 1), cfg.max_hist);
    }

    #[test]
    fn storage_estimates_sane() {
        assert!((50.0..90.0).contains(&TageConfig::kb64().storage_kib()));
        assert!(TageConfig::kb80().storage_kib() > TageConfig::kb64().storage_kib());
        assert!(TageConfig::unlimited().storage_kib() > 1000.0);
    }

    #[test]
    fn learns_biased_branch() {
        let mut p = small();
        let mut correct = 0;
        for i in 0..200 {
            if step(&mut p, 0x40, true) && i >= 8 {
                correct += 1;
            }
        }
        assert!(correct >= 190, "biased branch learned slowly: {correct}");
    }

    #[test]
    fn learns_history_pattern_bimodal_cannot() {
        // Alternating T/N branch: bimodal ~50%, TAGE should approach 100%.
        let mut p = small();
        let mut correct = 0;
        for i in 0..2000 {
            let taken = i % 2 == 0;
            if step(&mut p, 0x88, taken) && i >= 1000 {
                correct += 1;
            }
        }
        assert!(correct >= 950, "pattern not learned: {correct}/1000");
    }

    #[test]
    fn learns_long_correlation() {
        // Branch B's outcome equals branch A's outcome 8 branches earlier.
        let mut p = small();
        let mut x: u64 = 12345;
        let mut pending = std::collections::VecDeque::new();
        let mut correct = 0;
        let mut total = 0;
        for i in 0..6000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let a_taken = x & 1 == 1;
            step(&mut p, 0x100, a_taken);
            pending.push_back(a_taken);
            // 6 noise-free filler branches.
            for f in 0..6 {
                step(&mut p, 0x200 + f, true);
            }
            if pending.len() > 1 {
                let b_taken = pending.pop_front().unwrap();
                let hit = step(&mut p, 0x300, b_taken);
                if i >= 3000 {
                    total += 1;
                    if hit {
                        correct += 1;
                    }
                }
            }
        }
        // The signal (one history bit 14 back) is learnable but the two
        // interleaved random branches churn this deliberately small
        // configuration's tables; well above chance is the requirement.
        assert!(
            correct as f64 / total as f64 > 0.8,
            "correlated branch: {correct}/{total}"
        );
    }

    #[test]
    fn cannot_learn_data_dependent_random() {
        // The motivating case: outcomes are uncorrelated to history.
        let mut p = small();
        let mut x: u64 = 999;
        let mut correct = 0;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // ~50/50 random direction.
            if step(&mut p, 0x500, x & 2 == 2) {
                correct += 1;
            }
        }
        let rate = correct as f64 / 4000.0;
        assert!(
            (0.40..0.62).contains(&rate),
            "TAGE should be near chance on random branches, got {rate}"
        );
    }

    #[test]
    fn checkpoint_restore_round_trips_prediction() {
        let mut p = small();
        for i in 0..300 {
            step(&mut p, 0x40 + (i % 7), i % 3 == 0);
        }
        let mut cp = HistoryCheckpoint::default();
        p.history_checkpoint_into(&mut cp);
        let before = p.lookup(0x77).0;
        for i in 0..40 {
            p.push_history(0x600 + i, i % 2 == 0);
        }
        p.restore_history(&cp);
        let after = p.lookup(0x77).0;
        assert_eq!(before, after);
    }
}
