//! Neural-network modules: linear, layer-norm, multi-head self-attention,
//! feed-forward, and the pre-norm transformer block used by both the
//! AIrchitect v2 encoder and decoder.
//!
//! Modules are plain structs holding [`ParamId`]s; `forward` records ops
//! onto a [`Graph`] for training. `infer` computes the same function
//! without a tape: it reads the weights in place from the [`ParamStore`]
//! (or from int8 [`QuantizedLinear`] views), writes into caller-held
//! buffers, and runs the same kernels in the same per-element order as
//! the tape; only its layer norm rounds once where the tape's rounds
//! twice. Constructing a module registers its
//! parameters in the given [`ParamStore`] under `"{prefix}.{field}"`
//! names, which become the checkpoint keys.

use ai2_tensor::kernel;

use crate::graph::{attend, Graph, VarId};
use crate::params::{ParamId, ParamStore};
use crate::quant::{
    QuantError, QuantSource, QuantizedAttention, QuantizedBlock, QuantizedFeedForward,
    QuantizedLinear,
};

/// Fully connected layer `y = x W (+ b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: Option<ParamId>,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Registers a `[in_dim, out_dim]` Xavier-initialised weight (and a
    /// zero bias when `bias` is true) under `prefix`.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        in_dim: usize,
        out_dim: usize,
        bias: bool,
    ) -> Self {
        let w = store.add_xavier(format!("{prefix}.w"), in_dim, out_dim);
        let b = bias.then(|| store.add_zeros(format!("{prefix}.b"), &[out_dim]));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Applies the layer to `[batch, in_dim]` input.
    pub fn forward(&self, g: &mut Graph<'_>, x: VarId) -> VarId {
        let w = g.param(self.w);
        let y = g.matmul(x, w);
        match self.b {
            Some(b) => {
                let bv = g.param(b);
                g.add_row(y, bv)
            }
            None => y,
        }
    }

    /// `out = x W` for `rows` rows of `x`, through int8 weights when `q`
    /// is given (`qrow` is the int8 activation scratch).
    fn matmul_into(
        &self,
        store: &ParamStore,
        q: Option<&QuantizedLinear>,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        qrow: &mut Vec<i8>,
    ) {
        match q {
            Some(q) => q.forward_into(x, rows, out, qrow),
            None => {
                out.fill(0.0);
                let w = store.get(self.w).as_slice();
                kernel::gemm(kernel::active(), x, w, out, rows, self.in_dim, self.out_dim);
            }
        }
    }

    /// Inference forward: `out = x W (+ b)` over `rows` rows, with int8
    /// weights when `q` is given (the bias stays `f32`).
    pub fn infer(
        &self,
        store: &ParamStore,
        q: Option<&QuantizedLinear>,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        qrow: &mut Vec<i8>,
    ) {
        self.matmul_into(store, q, x, rows, out, qrow);
        if let Some(b) = self.b {
            add_row_in_place(out, store.get(b).as_slice());
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The weight parameter handle (checkpoint / quantization bookkeeping).
    pub fn weight_id(&self) -> ParamId {
        self.w
    }

    /// Builds the int8 view of this layer's weight through `src`,
    /// validating the produced dimensions.
    ///
    /// # Errors
    ///
    /// Propagates the source's error, or reports a shape mismatch.
    pub fn quantized(
        &self,
        store: &ParamStore,
        src: &mut QuantSource<'_>,
    ) -> Result<QuantizedLinear, QuantError> {
        let name = store.name(self.w);
        let q = src(name, store.get(self.w))?;
        if (q.in_dim(), q.out_dim()) != (self.in_dim, self.out_dim) {
            return Err(QuantError::ShapeMismatch {
                name: name.to_string(),
                expected: (self.in_dim, self.out_dim),
                found: (q.in_dim(), q.out_dim()),
            });
        }
        Ok(q)
    }
}

/// Adds `bias` to every `bias.len()`-wide row of `x`.
pub fn add_row_in_place(x: &mut [f32], bias: &[f32]) {
    for row in x.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Layer normalisation with learned gain and bias.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    gamma: ParamId,
    beta: ParamId,
    eps: f32,
}

impl LayerNorm {
    /// Registers unit gain / zero bias of width `dim` under `prefix`.
    pub fn new(store: &mut ParamStore, prefix: &str, dim: usize) -> Self {
        LayerNorm {
            gamma: store.add_ones(format!("{prefix}.gamma"), &[dim]),
            beta: store.add_zeros(format!("{prefix}.beta"), &[dim]),
            eps: 1e-5,
        }
    }

    /// Normalises each row of `[batch, dim]`.
    pub fn forward(&self, g: &mut Graph<'_>, x: VarId) -> VarId {
        let gamma = g.param(self.gamma);
        let beta = g.param(self.beta);
        g.layer_norm(x, gamma, beta, self.eps)
    }

    /// Inference forward: normalises each row of `x` into `out`.
    pub fn infer(&self, store: &ParamStore, x: &[f32], out: &mut [f32]) {
        let kn = kernel::active();
        let gm = store.get(self.gamma).as_slice();
        let bt = store.get(self.beta).as_slice();
        let c = gm.len();
        for (row, orow) in x.chunks_exact(c).zip(out.chunks_exact_mut(c)) {
            let mu = kernel::sum(kn, row) / c as f32;
            let var = kernel::sq_dev_sum(kn, row, mu) / c as f32;
            let is = 1.0 / (var + self.eps).sqrt();
            kernel::layernorm_row(kn, row, gm, bt, mu, is, orow);
        }
    }
}

/// Activation functions selectable by the MLP-style modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// GELU (tanh approximation) — the transformer default here.
    #[default]
    Gelu,
    /// Hyperbolic tangent.
    Tanh,
    /// Leaky ReLU with slope 0.2 (GAN discriminators).
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation.
    Identity,
}

impl Activation {
    /// Records the activation on the graph.
    pub fn apply(self, g: &mut Graph<'_>, x: VarId) -> VarId {
        match self {
            Activation::Relu => g.relu(x),
            Activation::Gelu => g.gelu(x),
            Activation::Tanh => g.tanh(x),
            Activation::LeakyRelu => g.leaky_relu(x, 0.2),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Identity => x,
        }
    }
}

/// Two-layer position-wise feed-forward network.
#[derive(Debug, Clone)]
pub struct FeedForward {
    lin1: Linear,
    lin2: Linear,
    act: Activation,
}

impl FeedForward {
    /// `d_model → d_hidden → d_model` with the given activation.
    pub fn new(
        store: &mut ParamStore,
        prefix: &str,
        d_model: usize,
        d_hidden: usize,
        act: Activation,
    ) -> Self {
        FeedForward {
            lin1: Linear::new(store, &format!("{prefix}.ff1"), d_model, d_hidden, true),
            lin2: Linear::new(store, &format!("{prefix}.ff2"), d_hidden, d_model, true),
            act,
        }
    }

    /// Applies both layers.
    pub fn forward(&self, g: &mut Graph<'_>, x: VarId) -> VarId {
        let h = self.lin1.forward(g, x);
        let h = self.act.apply(g, h);
        self.lin2.forward(g, h)
    }

    /// Int8 views of both layers' weights.
    ///
    /// # Errors
    ///
    /// Propagates the source's error.
    pub fn quantized(
        &self,
        store: &ParamStore,
        src: &mut QuantSource<'_>,
    ) -> Result<QuantizedFeedForward, QuantError> {
        Ok(QuantizedFeedForward {
            l1: self.lin1.quantized(store, src)?,
            l2: self.lin2.quantized(store, src)?,
        })
    }

    /// Inference forward of `rows` rows into `out`, with int8 weights
    /// when `q` is given. The first layer's bias and the activation run
    /// in one pass over each row of its output.
    ///
    /// # Panics
    ///
    /// Panics unless the activation is GELU (the transformer blocks' FFN).
    pub(crate) fn infer(
        &self,
        store: &ParamStore,
        q: Option<&QuantizedFeedForward>,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        s: &mut FeedForwardScratch,
    ) {
        assert_eq!(self.act, Activation::Gelu, "FeedForward::infer: GELU only");
        let hd = self.lin1.out_dim;
        let pre = grown(&mut s.pre, rows * hd);
        let act = grown(&mut s.act, rows * hd);
        self.lin1
            .matmul_into(store, q.map(|q| &q.l1), x, rows, pre, &mut s.qrow);
        let kn = kernel::active();
        let b1 = self.lin1.b.map(|b| store.get(b).as_slice());
        for (prow, arow) in pre.chunks_exact_mut(hd).zip(act.chunks_exact_mut(hd)) {
            if let Some(b1) = b1 {
                add_row_in_place(prow, b1);
            }
            kernel::gelu_to(kn, prow, arow);
        }
        self.lin2
            .infer(store, q.map(|q| &q.l2), act, rows, out, &mut s.qrow);
    }
}

/// The first `len` values of `buf`, growing it when it is shorter (warm
/// calls reuse the allocation). The contents are stale: callers
/// overwrite every value.
pub fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// Activation buffers of [`FeedForward::infer`].
#[derive(Debug, Default)]
pub(crate) struct FeedForwardScratch {
    pre: Vec<f32>,
    act: Vec<f32>,
    qrow: Vec<i8>,
}

/// Activation buffers of [`MultiHeadSelfAttention::infer`].
#[derive(Debug, Default)]
pub(crate) struct AttentionScratch {
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    att: Vec<f32>,
    scores: Vec<f32>,
    qrow: Vec<i8>,
}

/// Activation buffers of [`TransformerBlock::infer`].
#[derive(Debug, Default)]
pub struct BlockScratch {
    normed: Vec<f32>,
    branch: Vec<f32>,
    attn: AttentionScratch,
    ffn: FeedForwardScratch,
}

/// Multi-head self-attention with learned Q/K/V/output projections.
#[derive(Debug, Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
}

impl MultiHeadSelfAttention {
    /// `d_model` must be divisible by `heads`.
    ///
    /// # Panics
    ///
    /// Panics if `d_model % heads != 0`.
    pub fn new(store: &mut ParamStore, prefix: &str, d_model: usize, heads: usize) -> Self {
        assert_eq!(
            d_model % heads,
            0,
            "MultiHeadSelfAttention: d_model {d_model} not divisible by heads {heads}"
        );
        MultiHeadSelfAttention {
            wq: Linear::new(store, &format!("{prefix}.wq"), d_model, d_model, false),
            wk: Linear::new(store, &format!("{prefix}.wk"), d_model, d_model, false),
            wv: Linear::new(store, &format!("{prefix}.wv"), d_model, d_model, false),
            wo: Linear::new(store, &format!("{prefix}.wo"), d_model, d_model, true),
            heads,
        }
    }

    /// Attends over `tokens` positions within each of `batch` samples;
    /// `x` is `[batch·tokens, d_model]`.
    pub fn forward(&self, g: &mut Graph<'_>, x: VarId, batch: usize, tokens: usize) -> VarId {
        let q = self.wq.forward(g, x);
        let k = self.wk.forward(g, x);
        let v = self.wv.forward(g, x);
        let a = g.attention(q, k, v, batch, self.heads, tokens);
        self.wo.forward(g, a)
    }

    /// Int8 views of the four projection weights.
    ///
    /// # Errors
    ///
    /// Propagates the source's error.
    pub fn quantized(
        &self,
        store: &ParamStore,
        src: &mut QuantSource<'_>,
    ) -> Result<QuantizedAttention, QuantError> {
        Ok(QuantizedAttention {
            wq: self.wq.quantized(store, src)?,
            wk: self.wk.quantized(store, src)?,
            wv: self.wv.quantized(store, src)?,
            wo: self.wo.quantized(store, src)?,
        })
    }

    /// Inference forward of `[batch·tokens, d_model]` rows into `out`,
    /// with int8 projection weights when `qw` is given (the softmax·V
    /// core stays `f32`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn infer(
        &self,
        store: &ParamStore,
        qw: Option<&QuantizedAttention>,
        x: &[f32],
        batch: usize,
        tokens: usize,
        out: &mut [f32],
        s: &mut AttentionScratch,
    ) {
        let rows = batch * tokens;
        let n = rows * self.wq.out_dim;
        let (q, k, v) = (grown(&mut s.q, n), grown(&mut s.k, n), grown(&mut s.v, n));
        self.wq
            .infer(store, qw.map(|w| &w.wq), x, rows, q, &mut s.qrow);
        self.wk
            .infer(store, qw.map(|w| &w.wk), x, rows, k, &mut s.qrow);
        self.wv
            .infer(store, qw.map(|w| &w.wv), x, rows, v, &mut s.qrow);
        let att = grown(&mut s.att, n);
        att.fill(0.0);
        let scores = grown(&mut s.scores, tokens);
        attend(q, k, v, [batch, self.heads, tokens], att, scores, None);
        self.wo
            .infer(store, qw.map(|w| &w.wo), att, rows, out, &mut s.qrow);
    }
}

/// Pre-norm transformer block: `x + Attn(LN(x))` then `x + FFN(LN(x))`.
///
/// This is the `L ×` stacked unit of the paper's encoder and decoder
/// (Fig. 2: self-attention → add & norm → linear).
#[derive(Debug, Clone)]
pub struct TransformerBlock {
    ln1: LayerNorm,
    attn: MultiHeadSelfAttention,
    ln2: LayerNorm,
    ffn: FeedForward,
}

impl TransformerBlock {
    /// Builds a block of width `d_model` with `heads` attention heads and
    /// an FFN hidden width of `4·d_model`.
    pub fn new(store: &mut ParamStore, prefix: &str, d_model: usize, heads: usize) -> Self {
        TransformerBlock {
            ln1: LayerNorm::new(store, &format!("{prefix}.ln1"), d_model),
            attn: MultiHeadSelfAttention::new(store, &format!("{prefix}.attn"), d_model, heads),
            ln2: LayerNorm::new(store, &format!("{prefix}.ln2"), d_model),
            ffn: FeedForward::new(
                store,
                &format!("{prefix}.ffn"),
                d_model,
                4 * d_model,
                Activation::Gelu,
            ),
        }
    }

    /// Applies the block to `[batch·tokens, d_model]`.
    pub fn forward(&self, g: &mut Graph<'_>, x: VarId, batch: usize, tokens: usize) -> VarId {
        let h = self.ln1.forward(g, x);
        let h = self.attn.forward(g, h, batch, tokens);
        let x = g.add(x, h);
        let h = self.ln2.forward(g, x);
        let h = self.ffn.forward(g, h);
        g.add(x, h)
    }

    /// Int8 views of every matmul weight in the block (layer-norm
    /// parameters stay `f32`).
    ///
    /// # Errors
    ///
    /// Propagates the source's error.
    pub fn quantized(
        &self,
        store: &ParamStore,
        src: &mut QuantSource<'_>,
    ) -> Result<QuantizedBlock, QuantError> {
        Ok(QuantizedBlock {
            attn: self.attn.quantized(store, src)?,
            ffn: self.ffn.quantized(store, src)?,
        })
    }

    /// Inference forward: updates the `[batch·tokens, d_model]` residual
    /// stream `x` in place, with int8 matmul weights when `q` is given.
    pub fn infer(
        &self,
        store: &ParamStore,
        q: Option<&QuantizedBlock>,
        x: &mut [f32],
        batch: usize,
        tokens: usize,
        s: &mut BlockScratch,
    ) {
        let rows = batch * tokens;
        let normed = grown(&mut s.normed, x.len());
        let branch = grown(&mut s.branch, x.len());
        self.ln1.infer(store, x, normed);
        self.attn.infer(
            store,
            q.map(|q| &q.attn),
            normed,
            batch,
            tokens,
            branch,
            &mut s.attn,
        );
        add_in_place(x, branch);
        self.ln2.infer(store, x, normed);
        self.ffn
            .infer(store, q.map(|q| &q.ffn), normed, rows, branch, &mut s.ffn);
        add_in_place(x, branch);
    }
}

/// `x += y`, elementwise.
fn add_in_place(x: &mut [f32], y: &[f32]) {
    for (a, &b) in x.iter_mut().zip(y) {
        *a += b;
    }
}

/// A plain multi-layer perceptron (the AIrchitect v1 baseline backbone).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    act: Activation,
}

impl Mlp {
    /// Builds an MLP with the given layer widths, e.g. `[4, 128, 128, 76]`.
    /// The activation is applied between layers but not after the last.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(store: &mut ParamStore, prefix: &str, widths: &[usize], act: Activation) -> Self {
        assert!(
            widths.len() >= 2,
            "Mlp: need at least input and output widths"
        );
        let layers = widths
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, &format!("{prefix}.l{i}"), w[0], w[1], true))
            .collect();
        Mlp { layers, act }
    }

    /// Applies all layers.
    pub fn forward(&self, g: &mut Graph<'_>, x: VarId) -> VarId {
        let mut h = x;
        for (i, l) in self.layers.iter().enumerate() {
            h = l.forward(g, h);
            if i + 1 < self.layers.len() {
                h = self.act.apply(g, h);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_tensor::Tensor;

    #[test]
    fn linear_shapes() {
        let mut s = ParamStore::new(1);
        let lin = Linear::new(&mut s, "l", 3, 5, true);
        assert_eq!(lin.in_dim(), 3);
        assert_eq!(lin.out_dim(), 5);
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::zeros(&[2, 3]));
        let y = lin.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[2, 5]);
    }

    #[test]
    fn layernorm_output_is_standardised() {
        let mut s = ParamStore::new(1);
        let ln = LayerNorm::new(&mut s, "ln", 4);
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        let y = ln.forward(&mut g, x);
        let row = g.value(y).row(0);
        let mean: f32 = row.iter().sum::<f32>() / 4.0;
        let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn transformer_block_preserves_shape() {
        let mut s = ParamStore::new(2);
        let blk = TransformerBlock::new(&mut s, "blk", 8, 2);
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::ones(&[2 * 3, 8])); // batch 2, tokens 3
        let y = blk.forward(&mut g, x, 2, 3);
        assert_eq!(g.value(y).shape(), &[6, 8]);
        assert!(g.value(y).all_finite());
    }

    #[test]
    fn mlp_depth_and_shapes() {
        let mut s = ParamStore::new(3);
        let mlp = Mlp::new(&mut s, "mlp", &[4, 16, 16, 2], Activation::Relu);
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::zeros(&[5, 4]));
        let y = mlp.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), &[5, 2]);
        // 3 linear layers → 6 parameters
        assert_eq!(s.len(), 6);
    }

    #[test]
    fn infer_matches_the_tape() {
        let mut s = ParamStore::new(5);
        let lin = Linear::new(&mut s, "lin", 8, 8, true);
        let blk = TransformerBlock::new(&mut s, "blk", 8, 2);
        // non-trivial biases, norm gains and offsets
        let mut r = ai2_tensor::rng::seeded(6);
        let ids: Vec<ParamId> = s.iter().map(|(id, _, _)| id).collect();
        for id in ids {
            let p = s.get_mut(id);
            *p = p.add(&ai2_tensor::rng::rand_uniform(&mut r, p.shape(), -0.3, 0.3));
        }
        let (batch, tokens) = (3, 4);
        let x = ai2_tensor::rng::rand_uniform(&mut r, &[batch * tokens, 8], -1.0, 1.0);
        let mut g = Graph::new(&s);
        let xv = g.constant(x.clone());
        let want_lin = lin.forward(&mut g, xv);
        let want_blk = blk.forward(&mut g, xv, batch, tokens);

        // a linear layer is the same GEMM and bias add: bit-identical
        let mut got = vec![0.0f32; x.len()];
        lin.infer(
            &s,
            None,
            x.as_slice(),
            batch * tokens,
            &mut got,
            &mut Vec::new(),
        );
        assert_eq!(got, g.value(want_lin).as_slice());

        // a block differs only by the tape's two-step layer-norm rounding
        let mut got = x.as_slice().to_vec();
        blk.infer(
            &s,
            None,
            &mut got,
            batch,
            tokens,
            &mut BlockScratch::default(),
        );
        let got = Tensor::from_vec(got, x.shape()).unwrap();
        assert!(got.max_abs_diff(g.value(want_blk)) <= 1e-5);
    }

    #[test]
    fn attention_module_trains_toward_target() {
        use crate::optim::{Adam, Optimizer};
        let mut s = ParamStore::new(4);
        let attn = MultiHeadSelfAttention::new(&mut s, "a", 8, 2);
        let mut opt = Adam::new(5e-3);
        let x = Tensor::ones(&[4, 8]); // 1 sample, 4 tokens
        let target = Tensor::full(&[4, 8], 0.25);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut g = Graph::new(&s);
            let xv = g.constant(x.clone());
            let y = attn.forward(&mut g, xv, 1, 4);
            let loss = g.mse_loss(y, target.clone());
            last = g.scalar(loss);
            first.get_or_insert(last);
            let grads = g.backward(loss);
            opt.step(&mut s, &grads);
        }
        assert!(
            last < first.unwrap() * 0.1,
            "loss did not decrease: {} → {last}",
            first.unwrap()
        );
    }
}
