//! Sample summaries, the metric list a run reports, and the JSON the
//! driver reads.

use std::fmt::Write as _;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `samples` (sorted in
/// place); `0.0` for an empty sample.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&mut samples.to_vec(), 0.5)
}

/// How many samples lie strictly above the `q` quantile — the check
/// that a reported percentile has at least ten samples beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(&mut samples.to_vec(), q);
    samples.iter().filter(|&&s| s > cut).count()
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Contract name, e.g. `job_ups` or `router.call_p99_us`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// A JSON number with all its digits. JSON has no infinities or NaN;
/// those only arise when every job of a phase failed, which the result
/// already reports, so they are written as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&mut s, 0.0), 1.0);
        assert_eq!(quantile(&mut s, 1.0), 4.0);
        assert!((quantile(&mut s, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&s, 0.99), 10);
    }

    #[test]
    fn json_has_the_four_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let j = result_json(true, 3, 0, &m);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
