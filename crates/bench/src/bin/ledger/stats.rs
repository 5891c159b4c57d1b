//! Order statistics over samples.

use std::collections::BTreeMap;

/// Named sample series collected during a run.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    /// The median of a series (0 for a series never pushed to).
    pub fn median(&self, name: &str) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            median(v)
        }
    }

    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            quantile(v, q)
        }
    }

    pub fn mean(&self, name: &str) -> f64 {
        let v = self.get(name);
        if v.is_empty() {
            0.0
        } else {
            mean(v)
        }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }
}

/// Index of the `q`-quantile in a sorted sample of `n` values under the
/// nearest-rank rule: the smallest index `i` such that at least `q·n`
/// samples are `≤ sorted[i]`, i.e. `⌈q·n⌉ − 1`, clamped to `0..n`. The
/// median of an even-sized sample is therefore its lower middle value —
/// always an observed sample, never an interpolation.
pub fn rank_index(q: f64, n: usize) -> usize {
    assert!(n > 0, "quantile of an empty sample");
    let rank = (q * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The `q`-quantile of `values` (nearest rank; see [`rank_index`]).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    let i = rank_index(q, v.len());
    *v.select_nth_unstable_by(i, f64::total_cmp).1
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(max − min) / median`: how far apart repeated measurements landed,
/// as a share of their typical value (0 for identical values).
pub fn relative_spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mid = median(values);
    if hi == lo {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sorted-array oracle: the nearest-rank quantile is the smallest
    /// sample `x` with at least `q·n` samples `≤ x`.
    fn oracle(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let need = q * values.len() as f64;
        *sorted
            .iter()
            .find(|&&x| sorted.iter().filter(|&&y| y <= x).count() as f64 >= need)
            .expect("the maximum always qualifies")
    }

    #[test]
    fn quantiles_match_the_sorted_array_oracle() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for n in 1..60usize {
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state % 23) as f64 // many ties
                })
                .collect();
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(quantile(&values, q), oracle(&values, q), "n={n} q={q}");
            }
        }
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(rank_index(0.9, 10), 8);
        assert_eq!(rank_index(0.0, 5), 0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(relative_spread(&[5.0, 5.0]), 0.0);
        assert!((relative_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
