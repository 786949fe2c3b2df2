//! Percentiles and the result record every workload fills in.

/// Percentiles a tail is chosen from, highest last.
const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// A timing distribution: its median, a tail percentile and its maximum.
#[derive(Debug, Clone, Copy)]
pub struct Dist {
    pub n: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
    pub max: f64,
}

impl Dist {
    /// The tail is the highest percentile of [`LADDER`] with at least ten
    /// samples beyond it (the maximum when there are too few samples).
    pub fn of(values: &[f64]) -> Dist {
        let n = values.len() as f64;
        let pct = LADDER
            .iter()
            .rev()
            .copied()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .unwrap_or(100.0);
        Dist::at(values, pct)
    }

    /// The tail at a fixed percentile. A metric reported run after run
    /// uses one fixed percentile, chosen by the ten-beyond rule for the
    /// sample counts its runs produce: a percentile that moved with the
    /// count would make runs incomparable.
    pub fn at(values: &[f64], tail_pct: f64) -> Dist {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Dist {
            n: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// Samples strictly beyond the tail.
    pub fn beyond(&self) -> usize {
        ((1.0 - self.tail_pct / 100.0) * self.n as f64).floor() as usize
    }

    /// `p50 X · p99 Y · max Z (n=N)` in the given unit.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit} · p{} {:.3} {unit} · max {:.3} {unit} (n={})",
            self.p50, self.tail_pct, self.tail, self.max, self.n
        )
    }
}

/// One named number of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Where the number comes from: sample count, percentile, clock.
    pub note: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate mismatches, one line each.
    pub mismatches: Vec<String>,
    /// The metrics the result line carries.
    pub metrics: Vec<Metric>,
    /// Numbers printed in the report only.
    pub extra: Vec<Metric>,
    /// Free-form report lines (header, ledgers).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn extra(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.extra.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Count one checked operation; a failed check also records why.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(why());
        }
    }

    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.extra)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Every digit the float carries; non-finite values (a metric that could
/// not be measured) become `null` so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!(d.tail_pct, 99.0);
        assert_eq!(d.tail, 990.0);
        assert_eq!(d.p50, 500.0);
        let few = Dist::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.tail_pct, few.tail), (100.0, 3.0));
    }
}
