//! Core configuration (paper Table 1 defaults).

/// Parameters of the out-of-order core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
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
}

impl Default for CoreConfig {
    fn default() -> Self {
        // Table 1: 4-wide issue, 256-entry ROB, 92-entry RS, 3.2 GHz.
        CoreConfig {
            issue_width: 4,
            retire_width: 4,
            rob_entries: 256,
            rs_entries: 92,
            num_alus: 4,
            load_ports: 2,
            frontend_depth: 6,
            redirect_latency: 4,
        }
    }
}

impl CoreConfig {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Names the first zero width or capacity, or an RS larger than the
    /// ROB.
    pub fn validate(&self) -> Result<(), String> {
        let ensure = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
        let rs_fits = self.rs_entries <= self.rob_entries;
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
}
