//! Order statistics and the name-keyed accumulator the ledger is built on.

use std::collections::BTreeMap;

/// The `q`-quantile of `values` by nearest rank (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The mean of `values` without the lowest and highest `trim` share.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = (sorted.len() as f64 * trim).floor() as usize;
    mean(&sorted[cut..sorted.len() - cut])
}

/// `num / den`, or 0 when `den` is 0: a layer a workload leaves idle
/// reads 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Interquartile range as a share of the median (0 when the median is 0).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mid = median(values);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / mid
}

/// Named sums and sample lists, merged across rounds and finalized into
/// metrics at the end of a run.
#[derive(Debug, Default, Clone)]
pub struct Bag {
    sums: BTreeMap<String, f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Bag {
    pub fn add(&mut self, name: &str, value: f64) {
        *self.sums.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn push(&mut self, name: &str, value: f64) {
        self.samples
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// `sum(num) / sum(den)`, or 0 when the denominator is 0.
    pub fn ratio(&self, num: &str, den: &str) -> f64 {
        ratio(self.sum(num), self.sum(den))
    }

    pub fn merge(&mut self, other: Bag) {
        for (k, v) in other.sums {
            *self.sums.entry(k).or_insert(0.0) += v;
        }
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 3.0);
        let w: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(trimmed_mean(&w, 0.1), 5.5);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }
}
