//! Interval samples: the time-series face of telemetry.

/// One snapshot taken every N retired uops. Rates (`ipc`, `mpki`,
/// `*_rate`) are computed over the *interval* since the previous sample,
/// not cumulatively, so phase behavior is visible; `cycle` and
/// `retired_uops` are cumulative positions on the two time axes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sample {
    /// Simulated cycle at the sample point (cumulative).
    pub cycle: u64,
    /// Retired uops at the sample point (cumulative).
    pub retired_uops: u64,
    /// Interval instructions per cycle.
    pub ipc: f64,
    /// Interval mispredictions per kilo-uop.
    pub mpki: f64,
    /// Interval L1D miss rate (misses / accesses).
    pub l1_miss_rate: f64,
    /// MSHRs in flight at the sample point.
    pub mshr_in_use: u64,
    /// DCE chain instances in flight at the sample point.
    pub dce_active: u64,
    /// Live prediction-queue slots (allocated, not yet retired) at the
    /// sample point.
    pub queue_slots: u64,
    /// Chains resident in the dependence chain cache.
    pub cached_chains: u64,
    /// Interval chain-cache hit rate (lookups that matched ≥1 chain).
    pub chain_cache_hit_rate: f64,
    /// Interval fraction of retired conditional branches that were
    /// covered by a cached chain (Figure 12's denominator, over time).
    pub coverage_rate: f64,
    /// Interval fraction of covered retires whose prediction arrived too
    /// late.
    pub late_rate: f64,
    /// Interval fraction of covered retires suppressed by throttling.
    pub throttle_rate: f64,
    /// Interval fraction of covered retires with a correct DCE
    /// prediction.
    pub correct_rate: f64,
    /// Interval fraction of covered retires with a wrong DCE prediction.
    pub incorrect_rate: f64,
}

/// Formats an `f64` as a JSON-safe number (finite shortest-roundtrip
/// form; non-finite values become 0 so exports always parse).
#[must_use]
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

impl Sample {
    /// The sample as a JSON object body (without a job label).
    #[must_use]
    pub(crate) fn json_fields(&self) -> String {
        format!(
            "\"cycle\":{},\"retired_uops\":{},\"ipc\":{},\"mpki\":{},\"l1_miss_rate\":{},\
             \"mshr_in_use\":{},\"dce_active\":{},\"queue_slots\":{},\"cached_chains\":{},\
             \"chain_cache_hit_rate\":{},\"coverage_rate\":{},\"late_rate\":{},\
             \"throttle_rate\":{},\"correct_rate\":{},\"incorrect_rate\":{}",
            self.cycle,
            self.retired_uops,
            json_f64(self.ipc),
            json_f64(self.mpki),
            json_f64(self.l1_miss_rate),
            self.mshr_in_use,
            self.dce_active,
            self.queue_slots,
            self.cached_chains,
            json_f64(self.chain_cache_hit_rate),
            json_f64(self.coverage_rate),
            json_f64(self.late_rate),
            json_f64(self.throttle_rate),
            json_f64(self.correct_rate),
            json_f64(self.incorrect_rate),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_never_emits_nonfinite() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(f64::INFINITY), "0");
        assert_eq!(json_f64(0.5), "0.5");
    }

    #[test]
    fn json_fields_are_parseable_shape() {
        let s = Sample {
            cycle: 100,
            ipc: 1.25,
            ..Sample::default()
        };
        let j = s.json_fields();
        assert!(j.contains("\"cycle\":100"));
        assert!(j.contains("\"ipc\":1.25"));
        assert!(!j.contains("NaN"));
    }
}
