//! Timing samples and the percentile reporting rule.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; the median is always reported. Every summary
//! carries its sample count.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank order statistic: the `ceil(p/100 · n)`-th smallest
    /// sample, and how many samples lie strictly beyond it.
    fn rank(&mut self, p: f64) -> Option<(f64, usize)> {
        let n = self.values.len();
        if n == 0 {
            return None;
        }
        self.sort();
        let k = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
        Some((self.values[k - 1], n - k))
    }

    /// The median (nearest rank), reported at any sample count.
    pub fn median(&mut self) -> Option<f64> {
        self.rank(50.0).map(|(v, _)| v)
    }

    /// Percentile `p`, withheld (`None`) unless at least [`MIN_BEYOND`]
    /// samples lie beyond it — so p99 needs at least 1000 samples.
    pub fn tail(&mut self, p: f64) -> Option<f64> {
        self.rank(p)
            .and_then(|(v, beyond)| (beyond >= MIN_BEYOND).then_some(v))
    }

    /// `"p50=… p99=… (n=…)"`, naming the withheld tail and the highest
    /// percentile the samples do support.
    pub fn describe(&mut self, tail_p: f64, unit: &str) -> String {
        let n = self.len();
        let Some(p50) = self.median() else {
            return "no samples (n=0)".into();
        };
        let tail = match self.tail(tail_p) {
            Some(v) => format!("p{tail_p}={v:.3} {unit}"),
            None => {
                let supported = [95.0, 90.0, 75.0]
                    .into_iter()
                    .find_map(|p| self.tail(p).map(|v| format!("; p{p}={v:.3} {unit}")))
                    .unwrap_or_default();
                format!("p{tail_p} withheld (<{MIN_BEYOND} samples beyond){supported}")
            }
        };
        format!("p50={p50:.3} {unit} {tail} (n={n})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: usize) -> Samples {
        let mut s = Samples::new();
        // Pushed in reverse so the helper must sort.
        for i in (1..=n).rev() {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p99_withheld_below_1000_samples() {
        assert_eq!(filled(999).tail(99.0), None);
        assert_eq!(filled(10).tail(99.0), None);
        assert_eq!(filled(1000).tail(99.0), Some(990.0));
        assert!(filled(999).describe(99.0, "ms").contains("withheld"));
    }

    #[test]
    fn picks_the_nearest_rank_order_statistic() {
        // n = 2000: rank ceil(0.99 · 2000) = 1980, 20 samples beyond.
        assert_eq!(filled(2000).tail(99.0), Some(1980.0));
        // n = 1001: rank ceil(990.99) = 991, 10 beyond.
        assert_eq!(filled(1001).tail(99.0), Some(991.0));
        assert_eq!(filled(200).tail(95.0), Some(190.0));
        assert_eq!(filled(199).tail(95.0), None);
        assert_eq!(filled(5).median(), Some(3.0));
        assert_eq!(filled(4).median(), Some(2.0));
        assert_eq!(filled(1).median(), Some(1.0));
        assert_eq!(Samples::new().median(), None);
    }

    #[test]
    fn describe_always_prints_the_count() {
        let mut s = filled(12);
        let text = s.describe(99.0, "ms");
        assert!(text.contains("(n=12)"), "{text}");
        assert!(text.starts_with("p50=6.000 ms"), "{text}");
    }
}
