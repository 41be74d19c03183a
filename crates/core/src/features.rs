//! Input featurization and target preparation shared by AIrchitect v2
//! and every learning-based baseline, so that all methods in Table III
//! train on identical tensors.

use ai2_dse::{DseDataset, DseTask};
use ai2_tensor::stats::Standardizer;
use ai2_tensor::Tensor;
use ai2_uov::{ConfigCodec, UovCodec};
use ai2_workloads::generator::DseInput;
use serde::{Deserialize, Serialize};

/// Number of input features after encoding: `ln M`, `ln N`, `ln K`
/// (standardised) plus a 3-way dataflow one-hot.
pub const NUM_FEATURES: usize = 6;

/// Maps raw DSE inputs to standardized network features and latency
/// scores to standardized regression targets. Fitted on the training
/// split only.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureEncoder {
    dims: Standardizer,
    perf_mean: f32,
    perf_std: f32,
}

impl FeatureEncoder {
    /// Fits feature and performance statistics on the training set.
    ///
    /// # Panics
    ///
    /// Panics if `train` is empty.
    pub fn fit(train: &DseDataset) -> FeatureEncoder {
        assert!(!train.is_empty(), "FeatureEncoder::fit: empty dataset");
        let rows: Vec<Tensor> = train
            .samples
            .iter()
            .map(|s| Tensor::from_slice(&[(s.m as f32).ln(), (s.n as f32).ln(), (s.k as f32).ln()]))
            .collect();
        let dims = Standardizer::fit(&Tensor::stack_rows(&rows));
        let perf: Vec<f32> = train
            .samples
            .iter()
            .map(|s| (s.best_score as f32).max(1.0).ln())
            .collect();
        let (perf_mean, perf_std) = ai2_tensor::stats::mean_std(&perf);
        FeatureEncoder {
            dims,
            perf_mean,
            perf_std: perf_std.max(1e-6),
        }
    }

    /// Encodes one DSE input as a feature row.
    pub fn encode_input(&self, input: &DseInput) -> [f32; NUM_FEATURES] {
        let mut out = [0.0f32; NUM_FEATURES];
        out[..3].copy_from_slice(&[
            (input.gemm.m as f32).ln(),
            (input.gemm.n as f32).ln(),
            (input.gemm.k as f32).ln(),
        ]);
        self.dims.transform_row(&mut out[..3]);
        out[3 + input.dataflow.index()] = 1.0;
        out
    }

    /// Encodes a batch of inputs as `[n, NUM_FEATURES]`.
    pub fn encode_inputs(&self, inputs: &[DseInput]) -> Tensor {
        let mut out = Tensor::default();
        self.encode_inputs_into(inputs, &mut out);
        out
    }

    /// [`FeatureEncoder::encode_inputs`] into a caller-held tensor, whose
    /// buffer is reused (no allocation once it is large enough).
    pub fn encode_inputs_into(&self, inputs: &[DseInput], out: &mut Tensor) {
        out.reset_zeros(&[inputs.len(), NUM_FEATURES]);
        for (row, input) in out
            .as_mut_slice()
            .chunks_exact_mut(NUM_FEATURES)
            .zip(inputs)
        {
            row.copy_from_slice(&self.encode_input(input));
        }
    }

    /// Standardised log-latency target for the performance predictor.
    pub fn encode_perf(&self, score: f64) -> f32 {
        ((score as f32).max(1.0).ln() - self.perf_mean) / self.perf_std
    }

    /// Inverse of [`FeatureEncoder::encode_perf`].
    pub fn decode_perf(&self, z: f32) -> f64 {
        (z * self.perf_std + self.perf_mean).exp() as f64
    }
}

/// A dataset rendered into training tensors for one (model, codec)
/// combination.
#[derive(Debug, Clone)]
pub struct PreparedDataset {
    /// `[n, NUM_FEATURES]` standardized inputs.
    pub features: Tensor,
    /// `[n, 1]` standardized log-latency targets.
    pub perf: Tensor,
    /// Ground-truth PE choice indices.
    pub pe_targets: Vec<usize>,
    /// Ground-truth buffer choice indices.
    pub buf_targets: Vec<usize>,
    /// `[n, pe_codec.width()]` encoded PE targets.
    pub pe_encoded: Tensor,
    /// `[n, buf_codec.width()]` encoded buffer targets.
    pub buf_encoded: Tensor,
    /// Joint UOV-bucket class of each sample — the contrastive label of
    /// §III-C ("configurations that belong to the same UOV buckets").
    pub contrastive_labels: Vec<u32>,
}

impl PreparedDataset {
    /// Renders a dataset with the given codecs. The contrastive labels
    /// always come from UOV bucketization of the task's axes (with the
    /// provided bucket count) regardless of the head codec, matching the
    /// paper's stage-1 definition.
    pub fn build(
        ds: &DseDataset,
        task: &DseTask,
        enc: &FeatureEncoder,
        pe_codec: &dyn ConfigCodec,
        buf_codec: &dyn ConfigCodec,
        contrastive_buckets: usize,
    ) -> PreparedDataset {
        let n = ds.len();
        assert!(n > 0, "PreparedDataset::build: empty dataset");
        let inputs: Vec<DseInput> = ds.samples.iter().map(|s| s.input()).collect();
        let features = enc.encode_inputs(&inputs);
        let perf_rows: Vec<Tensor> = ds
            .samples
            .iter()
            .map(|s| Tensor::from_slice(&[enc.encode_perf(s.best_score)]))
            .collect();
        let perf = Tensor::stack_rows(&perf_rows);

        let pe_targets: Vec<usize> = ds.samples.iter().map(|s| s.optimal.pe_idx).collect();
        let buf_targets: Vec<usize> = ds.samples.iter().map(|s| s.optimal.buf_idx).collect();

        let encode_all = |codec: &dyn ConfigCodec, targets: &[usize]| {
            let rows: Vec<Tensor> = targets
                .iter()
                .map(|&t| Tensor::from_slice(&codec.encode(t)))
                .collect();
            Tensor::stack_rows(&rows)
        };
        let pe_encoded = encode_all(pe_codec, &pe_targets);
        let buf_encoded = encode_all(buf_codec, &buf_targets);

        let pe_bucketizer = UovCodec::new(contrastive_buckets, task.space().num_pe_choices());
        let buf_bucketizer = UovCodec::new(contrastive_buckets, task.space().num_buf_choices());
        let nbuf = buf_bucketizer.num_buckets() as u32;
        let contrastive_labels: Vec<u32> = pe_targets
            .iter()
            .zip(&buf_targets)
            .map(|(&p, &b)| {
                pe_bucketizer.bucket_of(p) as u32 * nbuf + buf_bucketizer.bucket_of(b) as u32
            })
            .collect();

        PreparedDataset {
            features,
            perf,
            pe_targets,
            buf_targets,
            pe_encoded,
            buf_encoded,
            contrastive_labels,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.features.rows()
    }

    /// Whether the prepared set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Extracts rows `idx` as a minibatch (features, perf, pe, buf,
    /// labels).
    pub fn batch(&self, idx: &[usize]) -> PreparedBatch {
        let pick_rows = |t: &Tensor| {
            let rows: Vec<Tensor> = idx.iter().map(|&i| Tensor::from_slice(t.row(i))).collect();
            Tensor::stack_rows(&rows)
        };
        PreparedBatch {
            features: pick_rows(&self.features),
            perf: pick_rows(&self.perf),
            pe_encoded: pick_rows(&self.pe_encoded),
            buf_encoded: pick_rows(&self.buf_encoded),
            pe_targets: idx.iter().map(|&i| self.pe_targets[i]).collect(),
            buf_targets: idx.iter().map(|&i| self.buf_targets[i]).collect(),
            labels: idx.iter().map(|&i| self.contrastive_labels[i]).collect(),
        }
    }
}

/// One minibatch of prepared tensors.
#[derive(Debug, Clone)]
pub struct PreparedBatch {
    /// `[b, NUM_FEATURES]`.
    pub features: Tensor,
    /// `[b, 1]`.
    pub perf: Tensor,
    /// `[b, pe_width]`.
    pub pe_encoded: Tensor,
    /// `[b, buf_width]`.
    pub buf_encoded: Tensor,
    /// Ground-truth PE choice indices (classification heads).
    pub pe_targets: Vec<usize>,
    /// Ground-truth buffer choice indices (classification heads).
    pub buf_targets: Vec<usize>,
    /// Contrastive class per row.
    pub labels: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_dse::GenerateConfig;
    use ai2_uov::OneHotCodec;

    fn tiny() -> (DseTask, DseDataset) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 40,
                seed: 3,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        (task, ds)
    }

    #[test]
    fn features_are_standardised_and_one_hot() {
        let (_, ds) = tiny();
        let enc = FeatureEncoder::fit(&ds);
        let inputs: Vec<DseInput> = ds.samples.iter().map(|s| s.input()).collect();
        let f = enc.encode_inputs(&inputs);
        assert_eq!(f.shape(), &[40, NUM_FEATURES]);
        for i in 0..f.rows() {
            let onehot: f32 = f.row(i)[3..].iter().sum();
            assert_eq!(onehot, 1.0);
        }
        // standardized numeric columns
        for j in 0..3 {
            let col: Vec<f32> = (0..f.rows()).map(|i| f[(i, j)]).collect();
            let (m, s) = ai2_tensor::stats::mean_std(&col);
            assert!(m.abs() < 0.2, "col {j} mean {m}");
            assert!(s > 0.5 && s < 1.5, "col {j} std {s}");
        }
    }

    #[test]
    fn perf_roundtrip() {
        let (_, ds) = tiny();
        let enc = FeatureEncoder::fit(&ds);
        let score = ds.samples[0].best_score;
        let z = enc.encode_perf(score);
        let back = enc.decode_perf(z);
        assert!((back - score).abs() / score < 1e-3, "{back} vs {score}");
    }

    #[test]
    fn prepared_dataset_shapes_and_labels() {
        let (task, ds) = tiny();
        let enc = FeatureEncoder::fit(&ds);
        let pe_codec = UovCodec::new(16, 64);
        let buf_codec = UovCodec::new(16, 12);
        let prep = PreparedDataset::build(&ds, &task, &enc, &pe_codec, &buf_codec, 16);
        assert_eq!(prep.len(), 40);
        assert_eq!(prep.pe_encoded.shape(), &[40, 16]);
        assert_eq!(prep.buf_encoded.shape(), &[40, 12]); // 16 clamps to 12 choices
        assert_eq!(prep.contrastive_labels.len(), 40);
        // labels reproducible from targets
        for (i, s) in ds.samples.iter().enumerate() {
            assert_eq!(prep.pe_targets[i], s.optimal.pe_idx);
        }
    }

    #[test]
    fn batch_extracts_requested_rows() {
        let (task, ds) = tiny();
        let enc = FeatureEncoder::fit(&ds);
        let pe_codec = OneHotCodec::new(64);
        let buf_codec = OneHotCodec::new(12);
        let prep = PreparedDataset::build(&ds, &task, &enc, &pe_codec, &buf_codec, 16);
        let b = prep.batch(&[3, 7]);
        assert_eq!(b.features.shape(), &[2, NUM_FEATURES]);
        assert_eq!(b.features.row(0), prep.features.row(3));
        assert_eq!(b.labels[1], prep.contrastive_labels[7]);
    }
}
