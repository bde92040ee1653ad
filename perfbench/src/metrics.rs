//! Named metrics, the order statistics behind them, and the one-line
//! JSON result the benchmark ends with.

use std::fmt::Write;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The value as measured, never rounded.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered set of metrics with unique names.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics if the name is already present or the value is not
    /// finite: either would be a bug in the benchmark.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.push(Metric { name, value, unit });
    }

    /// The value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Every metric, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
            .expect("writing to a String cannot fail");
        }
        s.push('}');
        s
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics.to_json()
    )
}

/// Median of the samples (mean of the two middle ones for an even
/// count); `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Exact nearest-rank percentile of sorted samples: the smallest value
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&[7], 0.9), 7);
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.push("host_s", 0.123456789012, "s");
        m.push("tasks", 3.0, "count");
        assert_eq!(
            result_line(true, 2, 0, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \"metrics\": {\"host_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \"tasks\": {\"value\": 3.0, \"unit\": \"count\"}}}"
        );
    }
}
