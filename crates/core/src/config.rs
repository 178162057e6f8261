//! Branch Runahead configurations (paper Table 2).

use crate::extract::LOCAL_REGS;

/// Chain initiation policy (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum InitiationMode {
    /// A chain must finish execution before initiating successors.
    NonSpeculative,
    /// Wildcard-tagged successors initiate as soon as the predecessor
    /// *initiates*; non-wildcard successors wait for its outcome.
    IndependentEarly,
    /// Non-wildcard successors are initiated early using a per-branch
    /// 3-bit counter prediction; mispredicted initiations are flushed.
    Predictive,
}

/// Parameters of the Branch Runahead hardware (Table 2 presets below).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchRunaheadConfig {
    /// Display name.
    pub name: &'static str,
    /// Dependence chain cache entries (LRU).
    pub chain_cache_entries: usize,
    /// Concurrent dynamic chain instances (local RF + RS pairs). This is
    /// the "window size" of Figure 13.
    pub window_instances: usize,
    /// Dedicated DCE ALUs; 0 = Core-Only (shares the core's FUs, executing
    /// only in issue slots the core leaves idle).
    pub dce_alus: usize,
    /// DCE outstanding-miss budget.
    pub dce_mshrs: usize,
    /// Number of per-branch prediction queues.
    pub num_queues: usize,
    /// Entries per prediction queue.
    pub queue_entries: usize,
    /// Hard Branch Table entries.
    pub hbt_entries: usize,
    /// Chain Extraction Buffer entries (retired uops).
    pub ceb_entries: usize,
    /// Maximum dependence-chain length in uops (§1: < 16).
    pub max_chain_len: usize,
    /// Chain initiation policy.
    pub initiation: InitiationMode,
    /// Schedule chain uops in order instead of out of order (§4.2 reports
    /// in-order scheduling cannot expose enough MLP; kept as an ablation).
    pub dce_in_order: bool,
    /// Detect and use affector/guard relationships (§4.4; disabling this
    /// is the ablation for the paper's second contribution bullet).
    pub enable_affector_guards: bool,
}

impl BranchRunaheadConfig {
    /// Core-Only (9 KB): shares reservation stations, physical registers
    /// and functional units with the core.
    #[must_use]
    pub fn core_only() -> Self {
        BranchRunaheadConfig {
            name: "core-only",
            chain_cache_entries: 32,
            window_instances: 8,
            dce_alus: 0,
            dce_mshrs: 48,
            num_queues: 16,
            queue_entries: 256,
            hbt_entries: 64,
            ceb_entries: 512,
            max_chain_len: 16,
            initiation: InitiationMode::Predictive,
            dce_in_order: false,
            enable_affector_guards: true,
        }
    }

    /// Mini (17 KB): 64 local register files and reservation stations.
    #[must_use]
    pub fn mini() -> Self {
        BranchRunaheadConfig {
            name: "mini",
            window_instances: 64,
            dce_alus: 2,
            ..Self::core_only()
        }
    }

    /// Big (unlimited): parameters raised far beyond reasonable limits to
    /// expose the technique's ceiling (§5.2).
    #[must_use]
    pub fn big() -> Self {
        BranchRunaheadConfig {
            name: "big",
            chain_cache_entries: 1024,
            window_instances: 1024,
            dce_alus: 4,
            dce_mshrs: 64,
            num_queues: 1024,
            queue_entries: 256,
            hbt_entries: 1024,
            ceb_entries: 2048,
            max_chain_len: 16,
            ..Self::mini()
        }
    }

    /// Approximate storage in KiB (chain cache + window + queues + HBT +
    /// CEB), mirroring the paper's 9 KB / 17 KB labels.
    #[must_use]
    pub fn storage_kib(&self) -> f64 {
        let chain_cache = self.chain_cache_entries * self.max_chain_len * 4; // 4B/uop
        let window = self.window_instances * (LOCAL_REGS * 8 + 16); // RF + RS tags
        let queues = self.num_queues * self.queue_entries / 8; // ~1 bit/entry + ctl
        let hbt = self.hbt_entries * 16;
        let ceb = self.ceb_entries * 4;
        (chain_cache + window + queues + hbt + ceb) as f64 / 1024.0
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Names the first zero-sized structure or a chain length cap
    /// outside `1..=128`.
    pub fn validate(&self) -> Result<(), String> {
        let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        let chain_len_ok = (1..=128).contains(&self.max_chain_len);
        ensure(self.chain_cache_entries > 0, "chain cache must be nonzero")?;
        ensure(self.window_instances > 0, "window must be nonzero")?;
        ensure(self.num_queues > 0, "queues must be nonzero")?;
        ensure(self.queue_entries > 0, "queues must be nonzero")?;
        ensure(self.hbt_entries > 0, "HBT must be nonzero")?;
        ensure(self.ceb_entries > 0, "CEB must be nonzero")?;
        ensure(chain_len_ok, "chain length cap out of range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl InitiationMode {
        /// All three policies, in increasing aggressiveness (Figure 11 bottom).
        pub(crate) const ALL: [InitiationMode; 3] = [
            InitiationMode::NonSpeculative,
            InitiationMode::IndependentEarly,
            InitiationMode::Predictive,
        ];
    }

    #[test]
    fn presets_validate_and_scale() {
        for cfg in [
            BranchRunaheadConfig::core_only(),
            BranchRunaheadConfig::mini(),
            BranchRunaheadConfig::big(),
        ] {
            assert_eq!(cfg.validate(), Ok(()));
        }
        let co = BranchRunaheadConfig::core_only().storage_kib();
        let mini = BranchRunaheadConfig::mini().storage_kib();
        let big = BranchRunaheadConfig::big().storage_kib();
        assert!(co < mini && mini < big);
        assert!(co < 12.0, "core-only should be ~9KB class: {co}");
        assert!((10.0..30.0).contains(&mini), "mini ~17KB class: {mini}");
    }

    #[test]
    fn initiation_modes_enumerated() {
        assert_eq!(InitiationMode::ALL.len(), 3);
    }
}
