//! Feature-scaling helpers shared by dataset pipelines.
//!
//! The DSE dataset features (`M`, `N`, `K` up to 1677) span several orders
//! of magnitude, and latencies span many more; all learned models in this
//! repository train on standardised features and log-scaled targets. The
//! [`Standardizer`] records the statistics at fit time so that held-out
//! workloads are transformed identically at inference time.

use serde::{Deserialize, Serialize};

use crate::Tensor;

/// Per-column mean/std scaler for 2-D feature matrices (z-score).
///
/// # Example
///
/// ```
/// use ai2_tensor::{stats::Standardizer, Tensor};
///
/// let train = Tensor::from_rows(&[&[0.0, 10.0], &[2.0, 30.0]]);
/// let s = Standardizer::fit(&train);
/// let z = s.transform(&train);
/// assert!(z.mean().abs() < 1e-6);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl Standardizer {
    /// Computes per-column statistics from `data` (`[n, d]`).
    ///
    /// Columns with a standard deviation below `1e-8` get `std = 1` so the
    /// transform is a no-op for constant features.
    ///
    /// # Panics
    ///
    /// Panics if `data` has zero rows.
    pub fn fit(data: &Tensor) -> Standardizer {
        let (n, d) = (data.rows(), data.cols());
        assert!(n > 0, "Standardizer::fit: zero rows");
        let mean = data.mean_axis0();
        let mut var = vec![0.0f32; d];
        for i in 0..n {
            for (j, (&x, &mu)) in data.row(i).iter().zip(mean.as_slice()).enumerate() {
                var[j] += (x - mu) * (x - mu);
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|v| {
                let s = (v / n as f32).sqrt();
                if s < 1e-8 {
                    1.0
                } else {
                    s
                }
            })
            .collect();
        Standardizer {
            mean: mean.into_vec(),
            std,
        }
    }

    /// Applies the transform `(x - mean) / std` column-wise.
    ///
    /// # Panics
    ///
    /// Panics if the column count differs from the fitted data.
    pub fn transform(&self, data: &Tensor) -> Tensor {
        let (n, d) = (data.rows(), data.cols());
        assert_eq!(d, self.mean.len(), "Standardizer: feature count mismatch");
        let mut out = data.clone();
        for i in 0..n {
            self.transform_row(out.row_mut(i));
        }
        out
    }

    /// Applies the transform to one row in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the fitted feature count.
    pub fn transform_row(&self, row: &mut [f32]) {
        assert_eq!(
            row.len(),
            self.mean.len(),
            "Standardizer: feature count mismatch"
        );
        for ((x, &mu), &sd) in row.iter_mut().zip(&self.mean).zip(&self.std) {
            *x = (*x - mu) / sd;
        }
    }

    /// Inverts the transform for a single row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the fitted feature count.
    pub fn inverse_row(&self, row: &[f32]) -> Vec<f32> {
        assert_eq!(
            row.len(),
            self.mean.len(),
            "Standardizer: feature count mismatch"
        );
        row.iter()
            .enumerate()
            .map(|(j, &x)| x * self.std[j] + self.mean[j])
            .collect()
    }

    /// Fitted per-column means.
    pub fn mean(&self) -> &[f32] {
        &self.mean
    }

    /// Fitted per-column standard deviations.
    pub fn std(&self) -> &[f32] {
        &self.std
    }
}

/// Min-max scaling of a slice to `[0, 1]`; constant slices map to `0.5`.
pub fn minmax_normalize(values: &[f32]) -> Vec<f32> {
    let lo = values.iter().copied().fold(f32::INFINITY, f32::min);
    let hi = values.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    if !(hi - lo).is_normal() {
        return vec![0.5; values.len()];
    }
    values.iter().map(|v| (v - lo) / (hi - lo)).collect()
}

/// Sample mean and (population) standard deviation of a slice.
pub fn mean_std(values: &[f32]) -> (f32, f32) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f32;
    let mean = values.iter().sum::<f32>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    (mean, var.sqrt())
}

/// Linearly interpolated percentile of a sample, `q` in `[0, 100]`
/// (the numpy `linear` convention: rank `q/100 · (n-1)` interpolated
/// between its floor and ceiling order statistics). Used by the serving
/// stats endpoint for p50/p95/p99 latency. `NaN` for an empty sample.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 100]` or any value is NaN.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return percentile_sorted(values, q);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile: NaN in sample"));
    percentile_sorted(&sorted, q)
}

/// [`percentile`] over an already ascending-sorted sample — callers
/// reading several percentiles off one sample (p50/p95/p99 of a latency
/// window) sort once and index, instead of re-sorting per quantile.
///
/// Returns `NaN` for an empty sample; callers that must never emit NaN
/// (JSON serializers — NaN is not legal JSON) should use
/// [`try_percentile_sorted`] instead.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    try_percentile_sorted(sorted, q).unwrap_or(f64::NAN)
}

/// [`percentile_sorted`] with the empty-sample case made explicit:
/// `None` instead of `NaN`.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 100]`.
pub fn try_percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&q), "percentile: q={q} out of range");
    if sorted.is_empty() {
        return None;
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// A uniform-bin histogram over `[lo, hi]` (degenerate samples collapse
/// to a single-bin range). The last bin is closed so `hi` itself is
/// counted.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub lo: f64,
    /// Right edge of the last bin.
    pub hi: f64,
    /// Per-bin counts, `bins` entries.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Total counted samples.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }
}

/// Bins a sample into `bins` uniform buckets spanning its min..=max.
/// Every finite value lands in exactly one bin.
///
/// # Panics
///
/// Panics if `bins` is zero or any value is non-finite.
pub fn histogram(values: &[f64], bins: usize) -> Histogram {
    assert!(bins > 0, "histogram: zero bins");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "histogram: non-finite value"
    );
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if values.is_empty() || lo == hi {
        let mut counts = vec![0; bins];
        counts[0] = values.len();
        let base = if values.is_empty() { 0.0 } else { lo };
        return Histogram {
            lo: base,
            hi: base,
            counts,
        };
    }
    let mut counts = vec![0usize; bins];
    let scale = bins as f64 / (hi - lo);
    for &v in values {
        let idx = (((v - lo) * scale) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    Histogram { lo, hi, counts }
}

/// Pearson correlation of two equal-length slices (0 when degenerate).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    let (ma, sa) = mean_std(a);
    let (mb, sb) = mean_std(b);
    if sa < 1e-12 || sb < 1e-12 {
        return 0.0;
    }
    let cov = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x - ma) * (y - mb))
        .sum::<f32>()
        / a.len() as f32;
    cov / (sa * sb)
}

/// Spearman rank correlation of two equal-length slices.
///
/// Used to validate the stage-1 performance predictor: the paper's encoder
/// must *order* configurations by latency, which rank correlation measures
/// directly.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn spearman(a: &[f32], b: &[f32]) -> f32 {
    let ra = ranks(a);
    let rb = ranks(b);
    pearson(&ra, &rb)
}

fn ranks(values: &[f32]) -> Vec<f32> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&i, &j| values[i].partial_cmp(&values[j]).expect("finite values"));
    let mut out = vec![0.0f32; values.len()];
    let mut i = 0;
    while i < idx.len() {
        // average ranks over ties
        let mut j = i;
        while j + 1 < idx.len() && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j) as f32 / 2.0;
        for &k in &idx[i..=j] {
            out[k] = avg;
        }
        i = j + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standardizer_zero_mean_unit_std() {
        let data = Tensor::from_rows(&[&[1.0, 100.0], &[3.0, 300.0], &[5.0, 500.0]]);
        let s = Standardizer::fit(&data);
        let z = s.transform(&data);
        for j in 0..2 {
            let col: Vec<f32> = (0..3).map(|i| z[(i, j)]).collect();
            let (m, sd) = mean_std(&col);
            assert!(m.abs() < 1e-5);
            assert!((sd - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn standardizer_roundtrip() {
        let data = Tensor::from_rows(&[&[1.0, -5.0], &[2.0, 7.0], &[4.0, 0.0]]);
        let s = Standardizer::fit(&data);
        let z = s.transform(&data);
        let back = s.inverse_row(z.row(1));
        assert!((back[0] - 2.0).abs() < 1e-5);
        assert!((back[1] - 7.0).abs() < 1e-4);
    }

    #[test]
    fn standardizer_constant_column() {
        let data = Tensor::from_rows(&[&[5.0, 1.0], &[5.0, 2.0]]);
        let s = Standardizer::fit(&data);
        let z = s.transform(&data);
        assert_eq!(z[(0, 0)], 0.0);
        assert_eq!(z[(1, 0)], 0.0);
        assert!(z.all_finite());
    }

    #[test]
    fn minmax_basics() {
        assert_eq!(minmax_normalize(&[2.0, 4.0]), vec![0.0, 1.0]);
        assert_eq!(minmax_normalize(&[3.0, 3.0]), vec![0.5, 0.5]);
    }

    #[test]
    fn percentile_hand_computed_values() {
        // sorted: [1, 2, 3, 4]; ranks at n-1 = 3
        let v = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        // p50 → rank 1.5 → midpoint of 2 and 3
        assert_eq!(percentile(&v, 50.0), 2.5);
        // p25 → rank 0.75 → 1 + 0.75·(2-1)
        assert_eq!(percentile(&v, 25.0), 1.75);
        // five elements: p95 → rank 3.8 → 4 + 0.8·(5-4)
        let w = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((percentile(&w, 95.0) - 4.8).abs() < 1e-12);
        // singletons and empties
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(try_percentile_sorted(&[], 50.0), None);
        assert_eq!(try_percentile_sorted(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_bad_q() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn histogram_hand_computed_counts() {
        // range [0, 10], 5 bins of width 2
        let v = [0.0, 1.9, 2.0, 5.0, 9.9, 10.0, 10.0];
        let h = histogram(&v, 5);
        assert_eq!(h.lo, 0.0);
        assert_eq!(h.hi, 10.0);
        assert_eq!(h.bin_width(), 2.0);
        // 0.0,1.9 → bin 0; 2.0 → bin 1; 5.0 → bin 2; 9.9,10,10 → bin 4
        assert_eq!(h.counts, vec![2, 1, 1, 0, 3]);
        assert_eq!(h.total(), v.len());
    }

    #[test]
    fn histogram_degenerate_samples() {
        let constant = histogram(&[3.0, 3.0, 3.0], 4);
        assert_eq!(constant.counts, vec![3, 0, 0, 0]);
        assert_eq!(constant.lo, constant.hi);
        let empty = histogram(&[], 2);
        assert_eq!(empty.total(), 0);
        assert_eq!(empty.counts.len(), 2);
    }

    #[test]
    fn pearson_perfect_and_anti() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-5);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-5);
        assert_eq!(pearson(&a, &[1.0, 1.0, 1.0, 1.0]), 0.0);
    }

    #[test]
    fn spearman_monotone_nonlinear() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 8.0, 27.0, 64.0, 125.0]; // cubic: nonlinear but monotone
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn spearman_handles_ties() {
        let a = [1.0, 1.0, 2.0, 3.0];
        let b = [1.0, 1.0, 2.0, 3.0];
        assert!((spearman(&a, &b) - 1.0).abs() < 1e-5);
    }
}
