//! Property-based tests for the UOV representation invariants.
//!
//! Written as seeded random sweeps (the `proptest` crate is unavailable
//! offline); each test draws many `(k, c, idx)` combinations from a
//! fixed-seed LCG covering the same ranges as the original strategies.

use ai2_uov::{ConfigCodec, DiscretizationKind, OneHotCodec, RegressionCodec, UovCodec};

const CASES: usize = 128;

/// Tiny standalone LCG so this crate needs no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo)
    }

    fn frac(&mut self) -> f64 {
        (self.next_u64() % 1_000_000) as f64 / 1_000_000.0
    }
}

fn pick_idx(g: &mut Lcg, c: usize) -> usize {
    ((c - 1) as f64 * g.frac()).round() as usize
}

#[test]
fn uov_roundtrip_is_lossless() {
    let mut g = Lcg(0x0071);
    for _ in 0..CASES {
        let k = g.range(1, 33);
        let c = g.range(2, 128);
        let idx = pick_idx(&mut g, c);
        let codec = UovCodec::new(k, c);
        let v = codec.encode(idx);
        assert_eq!(codec.decode(&v), idx, "k={k} c={c} idx={idx}");
    }
}

#[test]
fn uov_is_zero_above_target_and_positive_below() {
    let mut g = Lcg(0x0072);
    for _ in 0..CASES {
        let k = g.range(2, 17);
        let c = g.range(8, 65);
        let idx = pick_idx(&mut g, c);
        let codec = UovCodec::new(k, c);
        let n = codec.bucket_of(idx);
        let v = codec.encode(idx);
        for (i, &x) in v.iter().enumerate() {
            if i > n {
                assert_eq!(x, 0.0);
            }
            if i < n {
                assert!(x > 0.0);
            }
            assert!((0.0..=1.0).contains(&x));
        }
    }
}

#[test]
fn uov_preserves_ordering() {
    let mut g = Lcg(0x0073);
    for _ in 0..CASES {
        // a larger choice never encodes to an elementwise-smaller UOV
        let k = g.range(2, 17);
        let c = g.range(8, 65);
        let a = pick_idx(&mut g, c);
        let b = pick_idx(&mut g, c);
        let codec = UovCodec::new(k, c);
        let (lo, hi) = (a.min(b), a.max(b));
        let vlo = codec.encode(lo);
        let vhi = codec.encode(hi);
        for (l, h) in vlo.iter().zip(&vhi) {
            assert!(h >= l, "ordering violated: {vlo:?} vs {vhi:?}");
        }
    }
}

#[test]
fn uov_decode_small_noise_stays_within_one_choice() {
    let mut g = Lcg(0x0074);
    for _ in 0..CASES {
        let k = g.range(4, 17);
        let c = g.range(12, 65);
        let idx = pick_idx(&mut g, c);
        let seed = g.range(0, 500);
        let codec = UovCodec::new(k, c);
        let mut v = codec.encode(idx);
        // deterministic ±0.02 perturbation
        for (j, x) in v.iter_mut().enumerate() {
            let s = ((seed + j * 13) % 5) as f32 / 5.0 - 0.4;
            *x = (*x + 0.05 * s).clamp(0.0, 1.0);
        }
        let d = codec.decode(&v);
        // small head noise may move the estimate within the bucket but
        // never to a distant choice
        let tol = (c / k).max(1) + 1;
        assert!(d.abs_diff(idx) <= tol, "decoded {d} from {idx} (tol {tol})");
    }
}

#[test]
fn uniform_and_sid_both_roundtrip() {
    let mut g = Lcg(0x0075);
    for _ in 0..CASES {
        let k = g.range(1, 17);
        let c = g.range(2, 65);
        let idx = pick_idx(&mut g, c);
        for kind in [
            DiscretizationKind::Uniform,
            DiscretizationKind::SpaceIncreasing,
        ] {
            let codec = UovCodec::with_kind(kind, k, c);
            assert_eq!(codec.decode(&codec.encode(idx)), idx);
        }
    }
}

#[test]
fn every_choice_lives_in_its_own_bucket_for_many_k_c_pairs() {
    // the f32 boundary accumulation used to drift for large C, letting
    // the final boundary miss C exactly and the top choices fall outside
    // the last bucket; every index 0..C must encode/decode through its
    // own bucket for both kinds
    use ai2_uov::Discretization;
    let mut g = Lcg(0x0077);
    let mut cases: Vec<(usize, usize)> = (0..CASES)
        .map(|_| {
            let c = g.range(2, 3000);
            let k = g.range(1, c + 1);
            (k, c)
        })
        .collect();
    // pinned stress shapes: many buckets over a huge axis (worst f32
    // accumulation drift), degenerate one-per-choice, single bucket
    cases.extend([(512, 4096), (1000, 1001), (4096, 4096), (1, 4096)]);
    for (k, c) in cases {
        for kind in [
            DiscretizationKind::Uniform,
            DiscretizationKind::SpaceIncreasing,
        ] {
            let d = Discretization::new(kind, k, c);
            assert_eq!(d.num_choices(), c);
            // boundaries end exactly at C and strictly ascend
            let anchors = d.anchors();
            assert_eq!(anchors[0], 0.0, "kind {kind:?} k {k} c {c}");
            assert!(
                anchors.windows(2).all(|w| w[0] < w[1]),
                "anchors not ascending: kind {kind:?} k {k} c {c}"
            );
            let mut prev_bucket = 0usize;
            for i in 0..c {
                let b = d.bucket_of(i);
                assert!(b < d.num_buckets(), "kind {kind:?} k {k} c {c} i {i}");
                assert!(b >= prev_bucket, "buckets not monotone at {i}");
                prev_bucket = b;
                let t = d.coordinate_of(i);
                assert!(
                    t.is_finite() && (0.0..d.num_buckets() as f32).contains(&t),
                    "coordinate {t} out of range: kind {kind:?} k {k} c {c} i {i}"
                );
                assert_eq!(
                    d.index_of_coordinate(t),
                    i,
                    "roundtrip failed: kind {kind:?} k {k} c {c} i {i}"
                );
            }
            // the extremes land in the first and last bucket
            assert_eq!(d.bucket_of(0), 0);
            assert_eq!(d.bucket_of(c - 1), d.num_buckets() - 1);
        }
    }
}

#[test]
fn one_hot_and_regression_roundtrip() {
    let mut g = Lcg(0x0076);
    for _ in 0..CASES {
        let c = g.range(1, 200);
        let idx = pick_idx(&mut g, c.max(2));
        let idx = idx.min(c - 1);
        let oh = OneHotCodec::new(c);
        assert_eq!(oh.decode(&oh.encode(idx)), idx);
        let rg = RegressionCodec::new(c);
        assert_eq!(rg.decode(&rg.encode(idx)), idx);
    }
}

/// The direct grid-search decode the codec's tabulated decode must
/// reproduce: every coarse point's clean encoding is computed on the fly.
fn reference_decode(codec: &UovCodec, beta: f32, prediction: &[f32]) -> usize {
    let disc = codec.discretization();
    let k = disc.num_buckets();
    let residual = |t: f32| -> f32 {
        let mut acc = 0.0f32;
        for (i, &u) in prediction.iter().enumerate() {
            let r = i as f32;
            let o = if t >= r {
                1.0 - (-beta * (t - r)).exp()
            } else {
                0.0
            };
            let d = u.clamp(0.0, 1.0) - o;
            acc += d * d;
        }
        acc
    };
    let mut best_t = 0.0f32;
    let mut best_r = f32::INFINITY;
    let coarse = (k * 10).max(10);
    for s in 0..=coarse {
        let t = s as f32 * k as f32 / coarse as f32;
        let r = residual(t);
        if r < best_r {
            best_r = r;
            best_t = t;
        }
    }
    let step = k as f32 / coarse as f32;
    let (lo, hi) = (best_t - step, best_t + step);
    for s in 0..=40 {
        let t = lo + (hi - lo) * s as f32 / 40.0;
        if t < 0.0 {
            continue;
        }
        let r = residual(t);
        if r < best_r {
            best_r = r;
            best_t = t;
        }
    }
    disc.index_of_coordinate(best_t)
}

#[test]
fn tabulated_decode_matches_reference_grid_search() {
    let mut g = Lcg(0x0078);
    for k in [1usize, 4, 12, 16, 32] {
        for kind in [
            DiscretizationKind::Uniform,
            DiscretizationKind::SpaceIncreasing,
        ] {
            for beta in [UovCodec::DEFAULT_BETA, 0.7] {
                let c = g.range(k.max(2), 97);
                let codec = UovCodec::with_kind(kind, k, c).with_beta(beta);
                let w = codec.width();
                let check = |v: &[f32]| {
                    assert_eq!(
                        codec.decode(v),
                        reference_decode(&codec, beta, v),
                        "kind {kind:?} k {k} c {c} beta {beta} prediction {v:?}"
                    );
                };
                for _ in 0..CASES {
                    // seeded random head outputs, including values outside
                    // [0, 1] that the decoder clamps
                    let v: Vec<f32> = (0..w).map(|_| g.frac() as f32 * 1.2 - 0.1).collect();
                    check(&v);
                    // noisy clean encodings
                    let idx = pick_idx(&mut g, c);
                    let mut v = codec.encode(idx);
                    for x in &mut v {
                        *x += (g.frac() as f32 - 0.5) * 0.2;
                    }
                    check(&v);
                    // monotone (non-increasing) sigmoid-like outputs
                    let mut level = 1.0f32;
                    let v: Vec<f32> = (0..w)
                        .map(|_| {
                            level *= g.frac() as f32;
                            level
                        })
                        .collect();
                    check(&v);
                }
            }
        }
    }
}
