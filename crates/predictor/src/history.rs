//! Speculative global branch history with incrementally folded views.
//!
//! TAGE needs the global history folded down to each table's index and tag
//! widths. Folding is maintained incrementally ([`FoldedHistory`]) as bits
//! are inserted, and the whole folded state is cheap to checkpoint — the
//! underlying bit ring is *not* part of the checkpoint because restored
//! positions always point into bits that have not been overwritten (the
//! ring is sized far beyond maximum history + maximum in-flight branches).

/// A circular-buffer compressed (folded) view of the most recent `olength`
/// history bits, `clength` bits wide. Standard CBP-style implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct FoldedHistory {
    comp: u32,
    clength: u32,
    olength: u32,
    outpoint: u32,
}

impl FoldedHistory {
    /// Creates a folded view of the last `olength` bits, `clength` wide.
    ///
    /// # Panics
    ///
    /// Panics if `clength` is 0 or greater than 31.
    #[must_use]
    pub(crate) fn new(olength: u32, clength: u32) -> Self {
        assert!(clength > 0 && clength < 32, "bad folded width {clength}");
        FoldedHistory {
            comp: 0,
            clength,
            olength,
            outpoint: olength % clength,
        }
    }

    /// Folds in the newest bit and folds out the bit leaving the window.
    pub(crate) fn update(&mut self, new_bit: bool, out_bit: bool) {
        self.comp = (self.comp << 1) | u32::from(new_bit);
        self.comp ^= u32::from(out_bit) << self.outpoint;
        self.comp ^= self.comp >> self.clength;
        self.comp &= (1 << self.clength) - 1;
    }

    /// The folded value.
    #[must_use]
    pub(crate) fn value(self) -> u32 {
        self.comp
    }

    /// The original (unfolded) history length.
    #[must_use]
    pub(crate) fn history_length(self) -> u32 {
        self.olength
    }
}

/// Snapshot of the speculative history state; restored on mispredictions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct HistoryCheckpoint {
    head: u64,
    path: u64,
    folded: Vec<FoldedHistory>,
}

/// Speculative global history: a large bit ring, a path-history register,
/// and a set of registered folded views.
#[derive(Clone, Debug)]
pub(crate) struct GlobalHistory {
    bits: Vec<bool>,
    /// Monotonic count of bits ever inserted; `head & mask` is the slot
    /// the *next* bit will occupy.
    head: u64,
    /// `bits.len() - 1`; the ring's length is a power of two.
    mask: u64,
    path: u64,
    folded: Vec<FoldedHistory>,
}

impl GlobalHistory {
    /// Creates a history ring of `capacity` bits (power of two enforced).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a power of two or is smaller than 64.
    #[must_use]
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(
            capacity.is_power_of_two() && capacity >= 64,
            "history capacity must be a power of two >= 64"
        );
        GlobalHistory {
            bits: vec![false; capacity],
            head: 0,
            mask: capacity as u64 - 1,
            path: 0,
            folded: Vec::new(),
        }
    }

    /// Registers a folded view; returns its handle index.
    pub(crate) fn add_folded(&mut self, olength: u32, clength: u32) -> usize {
        assert!(
            (olength as usize) < self.bits.len() / 2,
            "history length {olength} too close to ring capacity {}",
            self.bits.len()
        );
        self.folded.push(FoldedHistory::new(olength, clength));
        self.folded.len() - 1
    }

    /// The folded value for handle `h`.
    #[must_use]
    pub(crate) fn folded(&self, h: usize) -> u32 {
        self.folded[h].value()
    }

    /// Path history (low bits of branch PCs, shifted per branch).
    #[must_use]
    pub(crate) fn path(&self) -> u64 {
        self.path
    }

    /// Pushes a branch outcome (and its PC into path history).
    pub(crate) fn push(&mut self, pc: u64, taken: bool) {
        for f in &mut self.folded {
            let out_idx = self.head.checked_sub(u64::from(f.history_length()));
            let out_bit = match out_idx {
                Some(i) => self.bits[(i & self.mask) as usize],
                None => false,
            };
            f.update(taken, out_bit);
        }
        self.bits[(self.head & self.mask) as usize] = taken;
        self.head += 1;
        self.path = (self.path << 1) ^ (pc & 0x3f);
    }

    /// Captures the current speculative position into an existing
    /// checkpoint buffer, reusing its folded-view allocation.
    pub(crate) fn checkpoint_into(&self, cp: &mut HistoryCheckpoint) {
        cp.head = self.head;
        cp.path = self.path;
        cp.folded.clone_from(&self.folded);
    }

    /// Restores a checkpoint taken earlier on this history.
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint registers a different number of folded
    /// views (checkpoints are only valid for the history they came from).
    pub(crate) fn restore(&mut self, cp: &HistoryCheckpoint) {
        assert_eq!(
            cp.folded.len(),
            self.folded.len(),
            "checkpoint from a different history configuration"
        );
        self.head = cp.head;
        self.path = cp.path;
        self.folded.clone_from(&cp.folded);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GlobalHistory {
        /// The `n` most recent history bits packed into a u64 (bit 0 newest).
        #[must_use]
        pub(crate) fn recent(&self, n: u32) -> u64 {
            debug_assert!(n <= 64);
            let mut v = 0u64;
            for i in 0..u64::from(n) {
                if self.head > i {
                    let idx = ((self.head - 1 - i) & self.mask) as usize;
                    v |= u64::from(self.bits[idx]) << i;
                }
            }
            v
        }
    }

    /// Reference: brute-force fold of the last `olength` bits.
    fn brute_fold(bits: &[bool], olength: u32, clength: u32) -> u32 {
        let mut comp = 0u32;
        let n = bits.len();
        let take = olength.min(n as u32) as usize;
        // Oldest-first insertion mirrors the incremental update order.
        for i in (0..take).rev() {
            let bit = bits[n - 1 - i];
            comp = (comp << 1) | u32::from(bit);
            comp ^= comp >> clength;
            comp &= (1 << clength) - 1;
        }
        comp
    }

    #[test]
    fn folded_matches_brute_force() {
        let mut gh = GlobalHistory::new(1024);
        let h = gh.add_folded(37, 11);
        let mut all = Vec::new();
        let mut x: u64 = 0x1234_5678_9abc_def0;
        for i in 0..500 {
            // xorshift for a deterministic pseudo-random pattern
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 1;
            gh.push(i, taken);
            all.push(taken);
            assert_eq!(
                gh.folded(h),
                brute_fold(&all, 37, 11),
                "mismatch after {} pushes",
                i + 1
            );
        }
    }

    #[test]
    fn checkpoint_restore_replays_identically() {
        let mut gh = GlobalHistory::new(512);
        let h0 = gh.add_folded(13, 7);
        let h1 = gh.add_folded(64, 9);
        for i in 0..100 {
            gh.push(i, i % 3 == 0);
        }
        let mut cp = HistoryCheckpoint::default();
        gh.checkpoint_into(&mut cp);
        let f0 = gh.folded(h0);
        let f1 = gh.folded(h1);
        let recent = gh.recent(32);
        // Wander down a wrong path.
        for i in 0..50 {
            gh.push(1000 + i, i % 2 == 0);
        }
        gh.restore(&cp);
        assert_eq!(gh.folded(h0), f0);
        assert_eq!(gh.folded(h1), f1);
        assert_eq!(gh.recent(32), recent);
        // Re-execution produces the same folded state as a fresh history fed
        // the same total sequence.
        gh.push(7, true);
        let mut fresh = GlobalHistory::new(512);
        let g0 = fresh.add_folded(13, 7);
        for i in 0..100 {
            fresh.push(i, i % 3 == 0);
        }
        fresh.push(7, true);
        assert_eq!(gh.folded(h0), fresh.folded(g0));
    }

    #[test]
    fn recent_orders_newest_first() {
        let mut gh = GlobalHistory::new(64);
        gh.push(0, true);
        gh.push(0, false);
        gh.push(0, true);
        // newest (taken=1) in bit 0, then 0, then 1
        assert_eq!(gh.recent(3), 0b101);
    }

    #[test]
    fn path_history_changes_with_pc() {
        let mut a = GlobalHistory::new(64);
        let mut b = GlobalHistory::new(64);
        a.push(0x10, true);
        b.push(0x24, true);
        assert_ne!(a.path(), b.path());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_capacity_panics() {
        let _ = GlobalHistory::new(100);
    }

    #[test]
    #[should_panic(expected = "too close to ring capacity")]
    fn overlong_history_rejected() {
        let mut gh = GlobalHistory::new(64);
        let _ = gh.add_folded(40, 10);
    }
}
