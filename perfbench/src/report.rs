//! The run's output: a human-readable report (one line per metric with
//! its unit and the counts it rests on), then, as the last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// The counts the value rests on (sample count, ratio bases).
    pub basis: String,
}

/// Metrics in the order they were added.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// Every metric.
    pub list: Vec<Metric>,
}

impl Metrics {
    /// Adds a metric. Non-finite values are recorded as 0 with the
    /// basis saying so (JSON has no NaN).
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str, basis: String) {
        let (value, basis) = if value.is_finite() {
            (value, basis)
        } else {
            (0.0, format!("{basis} (not finite: {value})"))
        };
        self.list.push(Metric {
            name: name.into(),
            value,
            unit,
            basis,
        });
    }

    /// Adds `num / den` with both bases shown.
    pub fn ratio(&mut self, name: impl Into<String>, num: f64, den: f64, unit: &'static str) {
        let v = crate::measure::ratio(num, den);
        self.add(name, v, unit, format!("{num} / {den}"));
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.list.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// One `name = value unit  [basis]` line per metric.
    pub fn report_lines(&self) -> Vec<String> {
        self.list
            .iter()
            .map(|m| {
                format!(
                    "  {:<40} {:>16.6} {:<8} [{}]",
                    m.name, m.value, m.unit, m.basis
                )
            })
            .collect()
    }

    /// The result line.
    pub fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let metrics: Vec<String> = self
            .list
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
             \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

/// A finite float as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exact_keys() {
        let mut m = Metrics::default();
        m.add("latency_ms", 1.25, "ms", "n=4".into());
        m.add("odd", f64::NAN, "s", "n=0".into());
        let line = m.json(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"odd\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_number(1e-7), "1e-7");
        assert_eq!(json_number(3.0), "3.0");
    }
}
