//! Output-representation codecs: UOV, one-hot classification, and pure
//! regression, behind one interface.

use serde::{Deserialize, Serialize};

use crate::discretization::{Discretization, DiscretizationKind};

/// A reversible mapping between a discrete design choice (`0..C`) and the
/// vector a network head is trained to produce.
pub trait ConfigCodec {
    /// Length of the encoded vector (the head's output width).
    fn width(&self) -> usize;

    /// Number of discrete choices `C`.
    fn num_choices(&self) -> usize;

    /// Encodes the ground-truth choice `index` as a training target.
    ///
    /// # Panics
    ///
    /// Implementations panic if `index ≥ num_choices()`.
    fn encode(&self, index: usize) -> Vec<f32>;

    /// Decodes a (possibly noisy) prediction back to a choice index.
    ///
    /// # Panics
    ///
    /// Implementations panic if `prediction.len() != width()`.
    fn decode(&self, prediction: &[f32]) -> usize;
}

/// The paper's Unified Ordinal Vector codec (Algorithm 1).
///
/// Encoding happens in the bucket-normalized coordinate `t ∈ [0, K)`
/// provided by [`Discretization`]; `β` controls the sharpness of the
/// exponential `f` in Eq. 2. Decoding is the exact reverse of
/// Algorithm 1, implemented as a least-squares fit of the coordinate:
/// the recovered `t` simultaneously classifies the bucket (its integer
/// part) and regresses the position within it (its fraction).
#[derive(Debug, Clone, PartialEq)]
pub struct UovCodec {
    disc: Discretization,
    beta: f32,
    /// Clean encodings of the decoder's `10K + 1` coarse grid points
    /// `t_s = s·K / 10K`, bucket-major: `coarse[i·S + s]` is bucket `i`
    /// of the encoding of `t_s`, with `S` the point count rounded up to
    /// whole [`LANES`] groups (padding is +∞, which never wins the fit).
    /// Built with the same expression as [`ConfigCodec::encode`], so a
    /// lookup equals the value the fit would compute.
    coarse: Vec<f32>,
}

/// Coarse grid points scored together; each lane accumulates its own
/// residual in bucket order, so the result matches a point-by-point
/// scan bit for bit.
const LANES: usize = 8;

/// Algorithm 1's ordinal value of the bucket anchored at `r` for the
/// coordinate `t`.
#[inline]
fn ordinal(beta: f32, t: f32, r: f32) -> f32 {
    if t >= r {
        1.0 - (-beta * (t - r)).exp()
    } else {
        0.0
    }
}

impl UovCodec {
    /// Default sharpness of the ordinal decay.
    pub const DEFAULT_BETA: f32 = 1.5;

    /// UOV codec with `num_buckets` space-increasing buckets over
    /// `num_choices` options.
    pub fn new(num_buckets: usize, num_choices: usize) -> Self {
        Self::with_kind(
            DiscretizationKind::SpaceIncreasing,
            num_buckets,
            num_choices,
        )
    }

    /// UOV codec with an explicit discretization kind.
    pub fn with_kind(kind: DiscretizationKind, num_buckets: usize, num_choices: usize) -> Self {
        Self::build(
            Discretization::new(kind, num_buckets, num_choices),
            Self::DEFAULT_BETA,
        )
    }

    fn build(disc: Discretization, beta: f32) -> Self {
        let k = disc.num_buckets();
        let steps = Self::coarse_steps(k);
        let points = Self::padded_points(k);
        let mut coarse = vec![f32::INFINITY; k * points];
        for (i, row) in coarse.chunks_exact_mut(points).enumerate() {
            for (s, o) in row.iter_mut().enumerate().take(steps + 1) {
                let t = s as f32 * k as f32 / steps as f32;
                *o = ordinal(beta, t, i as f32);
            }
        }
        UovCodec { disc, beta, coarse }
    }

    /// Intervals of the decoder's coarse grid over `[0, K]`.
    fn coarse_steps(k: usize) -> usize {
        (k * 10).max(10)
    }

    /// Coarse grid points per bucket row of the table, padded to whole
    /// lane groups.
    fn padded_points(k: usize) -> usize {
        (Self::coarse_steps(k) + 1).div_ceil(LANES) * LANES
    }

    /// Overrides the decay sharpness `β`.
    ///
    /// # Panics
    ///
    /// Panics unless `beta > 0`.
    pub fn with_beta(self, beta: f32) -> Self {
        assert!(beta > 0.0, "UovCodec: beta must be positive");
        Self::build(self.disc, beta)
    }

    /// The underlying discretization.
    pub fn discretization(&self) -> &Discretization {
        &self.disc
    }

    /// Number of buckets `K` (also the head width).
    pub fn num_buckets(&self) -> usize {
        self.disc.num_buckets()
    }

    /// The bucket index the codec assigns to a ground-truth choice —
    /// the classification label used for contrastive positives (§III-C).
    pub fn bucket_of(&self, index: usize) -> usize {
        self.disc.bucket_of(index)
    }
}

impl ConfigCodec for UovCodec {
    fn width(&self) -> usize {
        self.disc.num_buckets()
    }

    fn num_choices(&self) -> usize {
        self.disc.num_choices()
    }

    fn encode(&self, index: usize) -> Vec<f32> {
        let t = self.disc.coordinate_of(index);
        (0..self.disc.num_buckets())
            .map(|i| ordinal(self.beta, t, i as f32))
            .collect()
    }

    fn decode(&self, prediction: &[f32]) -> usize {
        assert_eq!(
            prediction.len(),
            self.width(),
            "UovCodec::decode: prediction width {} != {}",
            prediction.len(),
            self.width()
        );
        // Reverse of Algorithm 1 as a least-squares fit: find the
        // coordinate t whose clean encoding best matches the prediction.
        // This jointly performs the classification (which bucket t falls
        // in) and the regression (where inside it) and is robust to
        // noisy head outputs.
        let k = self.disc.num_buckets();
        // Coarse grid (tabulated encodings) then local refinement. Both
        // accumulate each residual in bucket order and keep the first
        // strict minimum.
        let steps = Self::coarse_steps(k);
        let points = Self::padded_points(k);
        let mut best_s = 0usize;
        let mut best_r = f32::INFINITY;
        for s0 in (0..points).step_by(LANES) {
            let mut acc = [0.0f32; LANES];
            for (row, &u) in self.coarse.chunks_exact(points).zip(prediction) {
                let u = u.clamp(0.0, 1.0);
                for (a, &o) in acc.iter_mut().zip(&row[s0..s0 + LANES]) {
                    let d = u - o;
                    *a += d * d;
                }
            }
            for (l, &r) in acc.iter().enumerate() {
                if r < best_r {
                    best_r = r;
                    best_s = s0 + l;
                }
            }
        }
        let mut best_t = best_s as f32 * k as f32 / steps as f32;
        let step = k as f32 / steps as f32;
        let (lo, hi) = (best_t - step, best_t + step);
        let refine_t = |s: usize| lo + (hi - lo) * s as f32 / 40.0;
        // Every refine point lies in [max(lo, 0), refine_t(40)] and so does
        // the coarse winner; `index_of_coordinate` is monotone, so when both
        // ends map to one choice the refinement cannot change the answer.
        let first = self.disc.index_of_coordinate(lo.max(0.0));
        if first == self.disc.index_of_coordinate(refine_t(40).max(best_t)) {
            return first;
        }
        for s in 0..=40 {
            let t = refine_t(s);
            if t < 0.0 {
                continue;
            }
            let mut r = 0.0f32;
            for (i, &u) in prediction.iter().enumerate() {
                let d = u.clamp(0.0, 1.0) - ordinal(self.beta, t, i as f32);
                r += d * d;
            }
            if r < best_r {
                best_r = r;
                best_t = t;
            }
        }
        self.disc.index_of_coordinate(best_t)
    }
}

/// Pure classification codec: one-hot targets, argmax decoding — the
/// AIrchitect v1 output head.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneHotCodec {
    num_choices: usize,
}

impl OneHotCodec {
    /// One-hot codec over `num_choices` options.
    ///
    /// # Panics
    ///
    /// Panics if `num_choices` is zero.
    pub fn new(num_choices: usize) -> Self {
        assert!(num_choices > 0, "OneHotCodec: zero choices");
        OneHotCodec { num_choices }
    }
}

impl ConfigCodec for OneHotCodec {
    fn width(&self) -> usize {
        self.num_choices
    }

    fn num_choices(&self) -> usize {
        self.num_choices
    }

    fn encode(&self, index: usize) -> Vec<f32> {
        assert!(index < self.num_choices, "OneHotCodec: index out of range");
        let mut v = vec![0.0; self.num_choices];
        v[index] = 1.0;
        v
    }

    fn decode(&self, prediction: &[f32]) -> usize {
        assert_eq!(
            prediction.len(),
            self.num_choices,
            "OneHotCodec: width mismatch"
        );
        let mut best = 0;
        for (i, &p) in prediction.iter().enumerate() {
            if p > prediction[best] {
                best = i;
            }
        }
        best
    }
}

/// Pure regression codec: a single scalar in `[0, 1]`, rounded to the
/// nearest choice on decode — the K = 1 end of the paper's Fig. 8b.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegressionCodec {
    num_choices: usize,
}

impl RegressionCodec {
    /// Regression codec over `num_choices` options.
    ///
    /// # Panics
    ///
    /// Panics if `num_choices` is zero.
    pub fn new(num_choices: usize) -> Self {
        assert!(num_choices > 0, "RegressionCodec: zero choices");
        RegressionCodec { num_choices }
    }
}

impl ConfigCodec for RegressionCodec {
    fn width(&self) -> usize {
        1
    }

    fn num_choices(&self) -> usize {
        self.num_choices
    }

    fn encode(&self, index: usize) -> Vec<f32> {
        assert!(
            index < self.num_choices,
            "RegressionCodec: index out of range"
        );
        if self.num_choices == 1 {
            return vec![0.0];
        }
        vec![index as f32 / (self.num_choices - 1) as f32]
    }

    fn decode(&self, prediction: &[f32]) -> usize {
        assert_eq!(prediction.len(), 1, "RegressionCodec: width mismatch");
        let x = prediction[0].clamp(0.0, 1.0);
        (x * (self.num_choices - 1) as f32).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uov_roundtrip_all_choices_and_bucket_counts() {
        for c in [12usize, 64] {
            for k in [1usize, 4, 8, 16, 32] {
                let codec = UovCodec::new(k, c);
                for i in 0..c {
                    let v = codec.encode(i);
                    assert_eq!(codec.decode(&v), i, "k={k}, c={c}, i={i}");
                }
            }
        }
    }

    #[test]
    fn uov_structure_matches_algorithm_one() {
        let codec = UovCodec::new(8, 64);
        let v = codec.encode(40);
        let n = codec.bucket_of(40);
        // zero above the target bucket
        for (i, &x) in v.iter().enumerate() {
            if i > n {
                assert_eq!(x, 0.0, "bucket {i} above target {n} must be 0");
            }
        }
        // increasing with distance below the target (paper: "monotonically
        // increasing" toward earlier buckets)
        for i in 1..n {
            assert!(
                v[i - 1] > v[i],
                "ordinal values should decay toward the target bucket: {v:?}"
            );
        }
        assert!(v[0] > 0.9, "far-below bucket saturates: {v:?}");
    }

    #[test]
    fn uov_decode_tolerates_noise() {
        let codec = UovCodec::new(16, 64);
        let mut wrong = 0;
        for i in 0..64 {
            let mut v = codec.encode(i);
            // ±0.05 deterministic pseudo-noise
            for (j, x) in v.iter_mut().enumerate() {
                let noise = 0.05 * ((i * 31 + j * 17) % 7_usize) as f32 / 7.0
                    * if (i + j) % 2 == 0 { 1.0 } else { -1.0 };
                *x = (*x + noise).clamp(0.0, 1.0);
            }
            let d = codec.decode(&v);
            if d.abs_diff(i) > 2 {
                wrong += 1;
            }
        }
        assert!(wrong <= 3, "noise broke {wrong} of 64 decodes");
    }

    #[test]
    fn uov_all_zero_prediction_falls_back() {
        let codec = UovCodec::new(8, 64);
        let idx = codec.decode(&[0.0; 8]);
        assert!(idx < 64);
    }

    #[test]
    fn single_bucket_uov_behaves_like_regression() {
        let codec = UovCodec::new(1, 64);
        assert_eq!(codec.width(), 1);
        for i in [0usize, 13, 40, 63] {
            assert_eq!(codec.decode(&codec.encode(i)), i);
        }
    }

    #[test]
    fn one_hot_roundtrip_and_argmax() {
        let c = OneHotCodec::new(5);
        assert_eq!(c.width(), 5);
        for i in 0..5 {
            assert_eq!(c.decode(&c.encode(i)), i);
        }
        assert_eq!(c.decode(&[0.1, 0.9, 0.3, 0.0, 0.2]), 1);
    }

    #[test]
    fn regression_roundtrip() {
        let c = RegressionCodec::new(12);
        assert_eq!(c.width(), 1);
        for i in 0..12 {
            assert_eq!(c.decode(&c.encode(i)), i);
        }
        // out-of-range predictions clamp
        assert_eq!(c.decode(&[2.0]), 11);
        assert_eq!(c.decode(&[-1.0]), 0);
    }

    #[test]
    fn uov_beta_controls_sharpness() {
        let soft = UovCodec::new(8, 64).with_beta(0.5);
        let sharp = UovCodec::new(8, 64).with_beta(4.0);
        let vs = soft.encode(60);
        let vh = sharp.encode(60);
        // sharp codec saturates earlier buckets harder
        assert!(vh[0] > vs[0]);
    }
}
