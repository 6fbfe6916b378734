//! Quantiles, process memory and the result line.

use std::fmt::Write as _;

/// Nearest-rank quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// A `/proc/self/status` field in bytes (`VmHWM`, `VmRSS`).
pub fn proc_status_bytes(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"))
}

/// Named metrics in insertion order, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// Human-readable table, one metric a line.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, unit) in &self.0 {
            let _ = writeln!(s, "  {name:<32} {value:>18.6} {unit}");
        }
        s
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        )
    }
}

/// Answers folded into one printed number, so no timed call can be
/// optimised away.
pub struct Checksum(u64);

impl Checksum {
    pub fn new() -> Checksum {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    #[inline]
    pub fn fold(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn value(&self) -> u64 {
        std::hint::black_box(self.0)
    }
}
