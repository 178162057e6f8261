//! Text rendering of experiment results (one table per figure).

use std::fmt;

use br_telemetry::export::escape_json;

/// How the summary row aggregates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MeanKind {
    /// Arithmetic mean (the paper's MPKI-improvement summaries).
    Arithmetic,
    /// Geometric mean over `1 + x/100` (the paper's IPC summaries).
    GeometricPct,
}

/// A figure/table result: one row per workload, one column per series.
#[derive(Clone, Debug)]
pub struct ExpTable {
    /// Title, e.g. `"Figure 10: IPC improvement (%)"`.
    pub(crate) title: String,
    /// Column (series) names.
    pub series: Vec<String>,
    /// `(workload, values)` rows.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Aggregation for the summary row.
    pub(crate) mean: MeanKind,
}

impl ExpTable {
    /// Creates an empty table.
    #[must_use]
    pub(crate) fn new(title: impl Into<String>, series: Vec<String>, mean: MeanKind) -> Self {
        ExpTable {
            title: title.into(),
            series,
            rows: Vec::new(),
            mean,
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the value count does not match the series count.
    pub(crate) fn push_row(&mut self, workload: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "row arity mismatch");
        self.rows.push((workload.into(), values));
    }

    /// The summary (mean) row values.
    #[must_use]
    pub fn mean_row(&self) -> Vec<f64> {
        if self.rows.is_empty() {
            return vec![0.0; self.series.len()];
        }
        (0..self.series.len())
            .map(|c| {
                let vals = self.rows.iter().map(|(_, v)| v[c]);
                match self.mean {
                    MeanKind::Arithmetic => vals.sum::<f64>() / self.rows.len() as f64,
                    MeanKind::GeometricPct => {
                        let prod: f64 = vals.map(|v| (1.0 + v / 100.0).max(1e-9).ln()).sum();
                        ((prod / self.rows.len() as f64).exp() - 1.0) * 100.0
                    }
                }
            })
            .collect()
    }

    /// The value at `(workload, series)`, if present.
    #[must_use]
    pub fn value(&self, workload: &str, series: &str) -> Option<f64> {
        let c = self.series.iter().position(|s| s == series)?;
        let (_, v) = self.rows.iter().find(|(w, _)| w == workload)?;
        Some(v[c])
    }

    /// Renders the table as a small JSON document (hand-rolled to avoid a
    /// JSON dependency): `{"title", "series", "rows": {wl: [..]}, "mean"}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v:.4}")
            } else {
                "null".to_string()
            }
        }
        let series: Vec<String> = self
            .series
            .iter()
            .map(|s| format!("\"{}\"", escape_json(s)))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(w, vals)| {
                let vs: Vec<String> = vals.iter().map(|v| num(*v)).collect();
                format!("\"{}\": [{}]", escape_json(w), vs.join(", "))
            })
            .collect();
        let mean: Vec<String> = self.mean_row().iter().map(|v| num(*v)).collect();
        format!(
            "{{\"title\": \"{}\", \"series\": [{}], \"rows\": {{{}}}, \"mean\": [{}]}}",
            escape_json(&self.title),
            series.join(", "),
            rows.join(", "),
            mean.join(", ")
        )
    }
}

impl fmt::Display for ExpTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        write!(f, "{:<14}", "workload")?;
        for s in &self.series {
            write!(f, " {s:>16}")?;
        }
        writeln!(f)?;
        for (w, vals) in &self.rows {
            write!(f, "{w:<14}")?;
            for v in vals {
                write!(f, " {v:>16.2}")?;
            }
            writeln!(f)?;
        }
        let label = match self.mean {
            MeanKind::Arithmetic => "mean",
            MeanKind::GeometricPct => "gmean",
        };
        write!(f, "{label:<14}")?;
        for v in self.mean_row() {
            write!(f, " {v:>16.2}")?;
        }
        writeln!(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_mean() {
        let mut t = ExpTable::new("t", vec!["a".into()], MeanKind::Arithmetic);
        t.push_row("w1", vec![10.0]);
        t.push_row("w2", vec![20.0]);
        assert_eq!(t.mean_row(), vec![15.0]);
        assert_eq!(t.value("w2", "a"), Some(20.0));
        assert_eq!(t.value("w2", "b"), None);
    }

    #[test]
    fn geometric_mean_pct() {
        let mut t = ExpTable::new("t", vec!["a".into()], MeanKind::GeometricPct);
        t.push_row("w1", vec![0.0]);
        t.push_row("w2", vec![21.0]);
        let g = t.mean_row()[0];
        // sqrt(1.21) = 1.1 → 10%
        assert!((g - 10.0).abs() < 0.01, "{g}");
    }

    #[test]
    fn render_includes_everything() {
        let mut t = ExpTable::new(
            "Figure X",
            vec!["s1".into(), "s2".into()],
            MeanKind::Arithmetic,
        );
        t.push_row("leela_17", vec![1.0, 2.0]);
        let s = t.to_string();
        assert!(s.contains("Figure X") && s.contains("leela_17") && s.contains("mean"));
    }

    #[test]
    fn json_rendering_well_formed() {
        let mut t = ExpTable::new(
            "Figure \"X\"",
            vec!["s1".into(), "s2".into()],
            MeanKind::Arithmetic,
        );
        t.push_row("leela_17", vec![1.5, -2.0]);
        let j = t.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"leela_17\": [1.5000, -2.0000]"), "{j}");
        assert!(j.contains("\\\"X\\\""), "title quotes escaped: {j}");
        assert!(j.contains("\"mean\": [1.5000, -2.0000]"), "{j}");
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        let mut t = ExpTable::new("t", vec!["a".into()], MeanKind::Arithmetic);
        t.push_row("w", vec![1.0, 2.0]);
    }
}
