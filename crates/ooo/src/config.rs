//! Core configuration (paper Table 1 defaults).

use br_mem::CacheConfig;

/// Parameters of the out-of-order core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instruction-cache size in bytes (Table 1: 32 KB).
    pub icache_bytes: u64,
    /// I-cache associativity.
    pub icache_ways: usize,
    /// Fetch-stall cycles on an I-cache miss (L2 service).
    pub(crate) icache_miss_latency: u64,
    /// Uops fetched per cycle (fetch breaks on a taken branch).
    pub(crate) fetch_width: usize,
    /// Uops issued to functional units per cycle.
    pub issue_width: usize,
    /// Uops retired per cycle.
    pub retire_width: usize,
    /// Reorder-buffer capacity.
    pub rob_entries: usize,
    /// Reservation-station capacity.
    pub rs_entries: usize,
    /// Number of ALUs.
    pub num_alus: usize,
    /// L1D ports usable per cycle (loads); leftovers go to the DCE.
    pub load_ports: usize,
    /// Front-end depth: cycles between fetch and issue eligibility.
    pub frontend_depth: u64,
    /// Extra cycles before fetch resumes after a misprediction redirect.
    pub redirect_latency: u64,
    /// Store-to-load forwarding latency in cycles.
    pub(crate) forward_latency: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        // Table 1: 4-wide issue, 256-entry ROB, 92-entry RS, 3.2 GHz.
        CoreConfig {
            icache_bytes: 32 * 1024,
            icache_ways: 8,
            icache_miss_latency: 15,
            fetch_width: 4,
            issue_width: 4,
            retire_width: 4,
            rob_entries: 256,
            rs_entries: 92,
            num_alus: 4,
            load_ports: 2,
            frontend_depth: 6,
            redirect_latency: 4,
            forward_latency: 2,
        }
    }
}

impl CoreConfig {
    /// The I-cache geometry (64 B lines).
    #[must_use]
    pub(crate) fn icache(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.icache_bytes,
            ways: self.icache_ways,
            line_bytes: 64,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Names the first zero width or capacity, an RS larger than the ROB,
    /// or a bad I-cache geometry.
    pub fn validate(&self) -> Result<(), String> {
        self.icache()
            .validate()
            .map_err(|e| format!("I-cache: {e}"))?;
        let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        let rs_fits = self.rs_entries <= self.rob_entries;
        ensure(self.fetch_width > 0, "fetch width must be nonzero")?;
        ensure(self.issue_width > 0, "issue width must be nonzero")?;
        ensure(self.retire_width > 0, "retire width must be nonzero")?;
        ensure(self.rob_entries > 0, "ROB must be nonzero")?;
        ensure(self.rs_entries > 0, "RS must be nonzero")?;
        ensure(rs_fits, "RS larger than ROB makes no sense")?;
        ensure(self.num_alus > 0, "need at least one ALU")?;
        ensure(self.load_ports > 0, "need at least one load port")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CoreConfig::default();
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.issue_width, 4);
        assert_eq!(c.rob_entries, 256);
        assert_eq!(c.rs_entries, 92);
    }

    #[test]
    fn rs_bigger_than_rob_rejected() {
        let err = CoreConfig {
            rs_entries: 300,
            ..CoreConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(err.contains("RS larger than ROB"), "{err}");
    }

    #[test]
    fn zero_icache_size_or_ways_rejected() {
        for c in [
            CoreConfig {
                icache_bytes: 0,
                ..CoreConfig::default()
            },
            CoreConfig {
                icache_ways: 0,
                ..CoreConfig::default()
            },
        ] {
            let err = c.validate().unwrap_err();
            assert!(err.contains("I-cache"), "{err}");
        }
    }
}
