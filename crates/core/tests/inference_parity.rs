//! Pins the direct inference forward to the training tape.
//!
//! For the tiny and default configurations, in the `f32` and int8
//! decoder flavors, at batch sizes on both sides of the internal tile
//! size, the sigmoided head outputs of [`Airchitect2::forward_into`]
//! must match a [`Graph::new`] tape of the same network within kernel
//! rounding, and decode to the same design points. The int8 tape runs
//! each decoder matmul through [`QuantizedLinear::forward_into`] and
//! everything else as recorded graph ops.
//!
//! Run under `AI2_KERNEL=scalar` as well as the detected SIMD level.

use ai2_dse::{DesignPoint, DseDataset, DseTask, GenerateConfig};
use ai2_nn::quant::QuantizedLinear;
use ai2_nn::{Graph, VarId};
use ai2_tensor::{rng, Tensor};
use ai2_workloads::generator::DseInput;
use airchitect::{Airchitect2, InferenceScratch, ModelConfig, QuantBlob};

const BATCHES: [usize; 4] = [1, 7, 32, 600];

fn setup(cfg: &ModelConfig, samples: usize) -> (Airchitect2, Vec<DseInput>) {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: samples,
            seed: 21,
            threads: 2,
            ..GenerateConfig::default()
        },
    );
    let mut model = Airchitect2::new(cfg, &task, &ds);
    // Perturb every parameter so biases, positional encodings and norm
    // gains (zero or one at init) all take part.
    let mut r = rng::seeded(cfg.d_model as u64);
    let ids: Vec<_> = model.store().iter().map(|(id, _, _)| id).collect();
    for id in ids {
        let p = model.store_mut().get_mut(id);
        let noise = rng::rand_uniform(&mut r, p.shape(), -0.2, 0.2);
        *p = p.add(&noise);
    }
    let inputs = ds.samples.iter().map(|s| s.input()).collect();
    (model, inputs)
}

/// `n` inputs cycled from the dataset's.
fn batch(inputs: &[DseInput], n: usize) -> Vec<DseInput> {
    inputs.iter().cycle().take(n).copied().collect()
}

/// The f32 network recorded on a training tape.
fn f32_tape(model: &Airchitect2, features: &Tensor) -> (Tensor, Tensor) {
    let mut g = Graph::new(model.store());
    let x = g.constant(features.clone());
    let z = model.forward_encoder(&mut g, x);
    let (pe, buf) = model.forward_decoder(&mut g, z);
    let (pe, buf) = (g.sigmoid(pe), g.sigmoid(buf));
    (g.value(pe).clone(), g.value(buf).clone())
}

/// The int8-decoder network on a training tape, rebuilt from the
/// parameter names: every decoder matmul goes through the blob's
/// [`QuantizedLinear`], the rest through graph ops.
struct Int8Tape<'a> {
    model: &'a Airchitect2,
    blob: &'a QuantBlob,
}

impl Int8Tape<'_> {
    fn param(&self, g: &mut Graph<'_>, name: &str) -> VarId {
        let id = self.model.store().find(name).expect(name);
        g.param(id)
    }

    fn linear(&self, g: &mut Graph<'_>, x: VarId, name: &str) -> VarId {
        let q: QuantizedLinear = self.blob.tensors[&format!("{name}.w")].to_linear();
        let rows = g.value(x).rows();
        let mut out = vec![0.0f32; rows * q.out_dim()];
        q.forward_into(g.value(x).as_slice(), rows, &mut out, &mut Vec::new());
        let y = g.constant(Tensor::from_vec(out, &[rows, q.out_dim()]).unwrap());
        match self.model.store().find(&format!("{name}.b")) {
            Some(b) => {
                let b = g.param(b);
                g.add_row(y, b)
            }
            None => y,
        }
    }

    fn layer_norm(&self, g: &mut Graph<'_>, x: VarId, name: &str) -> VarId {
        let gamma = self.param(g, &format!("{name}.gamma"));
        let beta = self.param(g, &format!("{name}.beta"));
        g.layer_norm(x, gamma, beta, 1e-5)
    }

    fn run(&self, features: &Tensor) -> (Tensor, Tensor) {
        let cfg = *self.model.config();
        let mut g = Graph::new(self.model.store());
        let x = g.constant(features.clone());
        let z = self.model.forward_encoder(&mut g, x);
        let b = features.rows();
        let h = self.linear(&mut g, z, "dec.in");
        let pos = self.param(&mut g, "dec.pos");
        let h = g.add_row(h, pos);
        let mut h = g.reshape(h, &[b * cfg.tokens, cfg.d_model]);
        for i in 0..cfg.layers {
            let p = format!("dec.blk{i}");
            let n = self.layer_norm(&mut g, h, &format!("{p}.ln1"));
            let [q, k, v] =
                ["wq", "wk", "wv"].map(|w| self.linear(&mut g, n, &format!("{p}.attn.{w}")));
            let a = g.attention(q, k, v, b, cfg.heads, cfg.tokens);
            let a = self.linear(&mut g, a, &format!("{p}.attn.wo"));
            h = g.add(h, a);
            let n = self.layer_norm(&mut g, h, &format!("{p}.ln2"));
            let f = self.linear(&mut g, n, &format!("{p}.ffn.ff1"));
            let f = g.gelu(f);
            let f = self.linear(&mut g, f, &format!("{p}.ffn.ff2"));
            h = g.add(h, f);
        }
        let h = self.layer_norm(&mut g, h, "dec.ln");
        let pooled = g.mean_pool_tokens(h, cfg.tokens);
        let pe = self.linear(&mut g, pooled, "dec.head_pe");
        let buf = self.linear(&mut g, pooled, "dec.head_buf");
        let (pe, buf) = (g.sigmoid(pe), g.sigmoid(buf));
        (g.value(pe).clone(), g.value(buf).clone())
    }
}

fn decode(model: &Airchitect2, pe: &Tensor, buf: &Tensor) -> Vec<DesignPoint> {
    (0..pe.rows())
        .map(|i| DesignPoint {
            pe_idx: model.pe_codec().decode(pe.row(i)),
            buf_idx: model.buf_codec().decode(buf.row(i)),
        })
        .collect()
}

/// Checks the direct forward against `tape` at every batch size.
fn check(
    model: &Airchitect2,
    inputs: &[DseInput],
    tol: f32,
    tape: impl Fn(&Tensor) -> (Tensor, Tensor),
) {
    let mut scratch = InferenceScratch::new();
    for n in BATCHES {
        let inputs = batch(inputs, n);
        let features = model.feature_encoder().encode_inputs(&inputs);
        let (want_pe, want_buf) = tape(&features);
        let (pe, buf) = model.forward_into(&features, &mut scratch);
        assert_eq!(pe.shape(), want_pe.shape());
        assert_eq!(buf.shape(), want_buf.shape());
        let diff = pe.max_abs_diff(&want_pe).max(buf.max_abs_diff(&want_buf));
        assert!(
            diff <= tol,
            "batch {n}: heads differ from the tape by {diff}"
        );
        let (pe, buf) = (pe.clone(), buf.clone());
        assert_eq!(
            model.predict_with(&inputs, &mut scratch),
            decode(model, &want_pe, &want_buf),
            "batch {n}: decoded points differ from the tape's"
        );
        assert_eq!(
            decode(model, &pe, &buf),
            model.predict(&inputs),
            "batch {n}: a fresh scratch answers differently"
        );
    }
}

/// Every row's outputs are independent of the batch it rides in: the
/// tiled forward over 600 rows equals 600 single-row passes bit for bit.
fn check_rows_are_independent(model: &Airchitect2, inputs: &[DseInput]) {
    let inputs = batch(inputs, 600);
    let features = model.feature_encoder().encode_inputs(&inputs);
    let mut scratch = InferenceScratch::new();
    let (pe, buf) = model.forward_into(&features, &mut scratch);
    let (pe, buf) = (pe.clone(), buf.clone());
    let mut one = InferenceScratch::new();
    for (i, input) in inputs.iter().enumerate() {
        let f = model
            .feature_encoder()
            .encode_inputs(std::slice::from_ref(input));
        let (p, b) = model.forward_into(&f, &mut one);
        assert_eq!(p.row(0), pe.row(i), "row {i}: pe head depends on the batch");
        assert_eq!(
            b.row(0),
            buf.row(i),
            "row {i}: buf head depends on the batch"
        );
    }
}

fn check_config(cfg: &ModelConfig) {
    let (mut model, inputs) = setup(cfg, 48);
    check(&model, &inputs, 1e-5, |f| f32_tape(&model, f));
    check_rows_are_independent(&model, &inputs);

    let blob = model.quantize_decoder();
    let tape = Int8Tape {
        model: &model,
        blob: &blob,
    };
    // A rounding-level difference upstream can move an activation across
    // an int8 quantization step (1/127 of its row's range), which moves
    // a head output by about that much.
    check(&model, &inputs, 1e-2, |f| tape.run(f));
    check_rows_are_independent(&model, &inputs);
}

#[test]
fn tiny_config_matches_the_tape() {
    check_config(&ModelConfig::tiny());
}

#[test]
fn default_config_matches_the_tape() {
    check_config(&ModelConfig::default());
}
