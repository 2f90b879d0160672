//! Order statistics over job latencies.
//!
//! Medians are never taken over a pool of mixed circuit sizes: the pooled
//! median of a suite flips between size clusters from run to run. Each
//! class (circuit × flow × `c`, or serve request kind) gets its own
//! median and classes combine by geometric mean.

use std::collections::BTreeMap;

/// Median of `xs` (mean of the two middle values for even lengths);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Geometric mean of strictly positive values; `None` when empty.
fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// Geometric mean over classes of each class's median.
pub fn geomean_of_class_medians<'a>(
    samples: impl IntoIterator<Item = (&'a str, f64)>,
) -> Option<f64> {
    let mut by_class: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (class, x) in samples {
        by_class.entry(class).or_default().push(x);
    }
    let medians: Vec<f64> = by_class.values().filter_map(|v| median(v)).collect();
    geomean(&medians)
}

/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest value. `None` with fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<f64> {
    if xs.len() < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[v.len() - 11])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn class_medians_combine_geometrically() {
        let samples = [("a", 1.0), ("a", 1.0), ("a", 100.0), ("b", 4.0)];
        let g = geomean_of_class_medians(samples.iter().map(|&(c, x)| (c, x))).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), Some(10.0));
        assert_eq!(tail(&xs[..10]), None);
    }
}
