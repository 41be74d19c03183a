//! The autograd tape: a flat arena of nodes recorded during the forward
//! pass and differentiated in reverse.
//!
//! Activations flow as 2-D tensors. Sequence data (the paper's 4-token
//! workload embedding) is kept flattened as `[batch·tokens, d_model]`;
//! the token-aware ops ([`Graph::attention`], [`Graph::mean_pool_tokens`],
//! [`Graph::repeat_tokens`]) take the geometry as explicit arguments.

use std::collections::HashMap;

use ai2_tensor::kernel;
use ai2_tensor::Tensor;

use crate::params::{ParamId, ParamStore};

/// Handle to a node (value) in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

#[derive(Debug)]
enum Op {
    Leaf,
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Mul(VarId, VarId),
    AddRow(VarId, VarId),
    Scale(VarId, f32),
    AddScalar(VarId),
    Matmul(VarId, VarId),
    Relu(VarId),
    LeakyRelu(VarId, f32),
    Gelu(VarId),
    Tanh(VarId),
    Sigmoid(VarId),
    Exp(VarId),
    SoftmaxRows(VarId),
    LayerNorm {
        x: VarId,
        gamma: VarId,
        beta: VarId,
    },
    NormalizeRows(VarId),
    MeanPoolTokens {
        x: VarId,
        tokens: usize,
    },
    RepeatTokens {
        x: VarId,
        tokens: usize,
    },
    Attention {
        q: VarId,
        k: VarId,
        v: VarId,
        batch: usize,
        heads: usize,
        tokens: usize,
    },
    Reshape(VarId),
    MeanAll(VarId),
    CrossEntropyLoss {
        x: VarId,
        targets: Vec<usize>,
    },
    MseLoss(VarId),
    L1Loss(VarId),
    BceWithLogitsLoss(VarId),
    InfoNceLoss {
        z: VarId,
        tau: f32,
    },
    UnificationLoss {
        x: VarId,
        alpha: f32,
        gamma: f32,
    },
}

struct Node {
    value: Tensor,
    op: Op,
    /// Auxiliary tensors captured at forward time for the backward pass
    /// (softmax outputs, attention probabilities, loss targets, …).
    saved: Vec<Tensor>,
    needs_grad: bool,
    param: Option<ParamId>,
}

/// Gradients of one backward pass, keyed by [`ParamId`].
#[derive(Debug, Default)]
pub struct Gradients {
    by_param: HashMap<ParamId, Tensor>,
}

impl Gradients {
    /// Gradient for `id`, if the parameter participated in the loss.
    pub fn get(&self, id: ParamId) -> Option<&Tensor> {
        self.by_param.get(&id)
    }

    /// Number of parameters with gradients.
    pub fn len(&self) -> usize {
        self.by_param.len()
    }

    /// Whether no parameter received a gradient.
    pub fn is_empty(&self) -> bool {
        self.by_param.is_empty()
    }

    /// Iterates over `(param, gradient)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Tensor)> {
        self.by_param.iter().map(|(k, v)| (*k, v))
    }

    /// Global L2 norm over all gradients (for clipping / diagnostics).
    pub fn global_norm(&self) -> f32 {
        self.by_param
            .values()
            .map(|g| {
                let n = g.norm();
                n * n
            })
            .sum::<f32>()
            .sqrt()
    }

    /// Scales every gradient in place (gradient clipping).
    pub fn scale_all(&mut self, factor: f32) {
        for g in self.by_param.values_mut() {
            g.map_inplace(|v| v * factor);
        }
    }
}

/// A single forward/backward tape over a [`ParamStore`].
///
/// Create one `Graph` per training step; recording is cheap relative to
/// the tensor math. See the crate-level example. Inference does not use
/// a tape: the layer modules' `infer` methods compute straight from the
/// weights.
pub struct Graph<'s> {
    store: &'s ParamStore,
    nodes: Vec<Node>,
    param_cache: HashMap<ParamId, VarId>,
}

impl<'s> Graph<'s> {
    /// Starts an empty tape over `store`.
    pub fn new(store: &'s ParamStore) -> Self {
        Graph {
            store,
            nodes: Vec::with_capacity(64),
            param_cache: HashMap::new(),
        }
    }

    /// A zeroed buffer shaped like node `v`.
    fn buf_like(&self, v: VarId) -> Tensor {
        Tensor::zeros(self.nodes[v.0].value.shape())
    }

    fn push(&mut self, value: Tensor, op: Op, saved: Vec<Tensor>, needs_grad: bool) -> VarId {
        self.nodes.push(Node {
            value,
            op,
            saved,
            needs_grad,
            param: None,
        });
        VarId(self.nodes.len() - 1)
    }

    fn ng(&self, v: VarId) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Inserts a non-trainable input (no gradient is tracked).
    pub fn constant(&mut self, value: Tensor) -> VarId {
        self.push(value, Op::Leaf, vec![], false)
    }

    /// Inserts (or reuses) the leaf node for a trainable parameter.
    pub fn param(&mut self, id: ParamId) -> VarId {
        if let Some(&v) = self.param_cache.get(&id) {
            return v;
        }
        let v = self.push(self.store.get(id).clone(), Op::Leaf, vec![], true);
        self.nodes[v.0].param = Some(id);
        self.param_cache.insert(id, v);
        v
    }

    /// Value computed for `v` during the forward pass.
    pub fn value(&self, v: VarId) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Scalar value of a rank-1, length-1 node (losses).
    ///
    /// # Panics
    ///
    /// Panics if the node holds more than one element.
    pub fn scalar(&self, v: VarId) -> f32 {
        let t = self.value(v);
        assert_eq!(t.len(), 1, "scalar: node has {} elements", t.len());
        t.at(0)
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    // ---- elementwise & linear ops -------------------------------------

    /// Elementwise binary op into a fresh buffer.
    fn ew_binary(&mut self, a: VarId, b: VarId, op: Op, f: impl Fn(f32, f32) -> f32) -> VarId {
        assert_eq!(
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape(),
            "elementwise op: shape mismatch"
        );
        let mut out = self.buf_like(a);
        {
            let av = self.nodes[a.0].value.as_slice();
            let bv = self.nodes[b.0].value.as_slice();
            for ((o, &x), &y) in out.as_mut_slice().iter_mut().zip(av).zip(bv) {
                *o = f(x, y);
            }
        }
        let ng = self.ng(a) || self.ng(b);
        self.push(out, op, vec![], ng)
    }

    /// Elementwise unary op into a fresh buffer.
    fn ew_unary(&mut self, a: VarId, op: Op, f: impl Fn(f32) -> f32) -> VarId {
        let mut out = self.buf_like(a);
        {
            let av = self.nodes[a.0].value.as_slice();
            for (o, &x) in out.as_mut_slice().iter_mut().zip(av) {
                *o = f(x);
            }
        }
        let ng = self.ng(a);
        self.push(out, op, vec![], ng)
    }

    /// Elementwise sum.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.ew_binary(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Elementwise difference `a - b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.ew_binary(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Elementwise product.
    pub fn mul(&mut self, a: VarId, b: VarId) -> VarId {
        self.ew_binary(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Adds a row vector `b` (`[C]`) to every row of `a` (`[R, C]`).
    pub fn add_row(&mut self, a: VarId, b: VarId) -> VarId {
        let c = self.nodes[a.0].value.cols();
        assert_eq!(
            self.nodes[b.0].value.len(),
            c,
            "add_row: row length {} != cols {c}",
            self.nodes[b.0].value.len()
        );
        let mut out = self.buf_like(a);
        {
            let av = self.nodes[a.0].value.as_slice();
            let rv = self.nodes[b.0].value.as_slice();
            for (orow, arow) in out.as_mut_slice().chunks_mut(c).zip(av.chunks(c)) {
                for ((o, &x), &y) in orow.iter_mut().zip(arow).zip(rv) {
                    *o = x + y;
                }
            }
        }
        let ng = self.ng(a) || self.ng(b);
        self.push(out, Op::AddRow(a, b), vec![], ng)
    }

    /// Multiplies every element by a compile-time constant.
    pub fn scale(&mut self, a: VarId, c: f32) -> VarId {
        self.ew_unary(a, Op::Scale(a, c), |x| x * c)
    }

    /// Adds a constant to every element.
    pub fn add_scalar(&mut self, a: VarId, c: f32) -> VarId {
        self.ew_unary(a, Op::AddScalar(a), |x| x + c)
    }

    /// Matrix product `a × b`, through the runtime-dispatched SIMD GEMM.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let (m, k) = (self.nodes[a.0].value.rows(), self.nodes[a.0].value.cols());
        let (k2, n) = (self.nodes[b.0].value.rows(), self.nodes[b.0].value.cols());
        assert_eq!(
            k,
            k2,
            "matmul: inner dimensions differ: {:?} × {:?}",
            self.nodes[a.0].value.shape(),
            self.nodes[b.0].value.shape()
        );
        let mut out = Tensor::zeros(&[m, n]);
        kernel::gemm(
            kernel::active(),
            self.nodes[a.0].value.as_slice(),
            self.nodes[b.0].value.as_slice(),
            out.as_mut_slice(),
            m,
            k,
            n,
        );
        let ng = self.ng(a) || self.ng(b);
        self.push(out, Op::Matmul(a, b), vec![], ng)
    }

    // ---- activations ----------------------------------------------------

    /// Rectified linear unit (vectorized; bit-exact across kernel levels).
    pub fn relu(&mut self, a: VarId) -> VarId {
        let mut out = self.buf_like(a);
        kernel::relu_to(
            kernel::active(),
            self.nodes[a.0].value.as_slice(),
            out.as_mut_slice(),
        );
        let ng = self.ng(a);
        self.push(out, Op::Relu(a), vec![], ng)
    }

    /// Leaky ReLU with negative slope `slope` (used by the GANDSE baseline).
    pub fn leaky_relu(&mut self, a: VarId, slope: f32) -> VarId {
        let mut out = self.buf_like(a);
        kernel::leaky_relu_to(
            kernel::active(),
            self.nodes[a.0].value.as_slice(),
            slope,
            out.as_mut_slice(),
        );
        let ng = self.ng(a);
        self.push(out, Op::LeakyRelu(a, slope), vec![], ng)
    }

    /// Gaussian error linear unit (tanh approximation, vectorized).
    pub fn gelu(&mut self, a: VarId) -> VarId {
        let mut out = self.buf_like(a);
        kernel::gelu_to(
            kernel::active(),
            self.nodes[a.0].value.as_slice(),
            out.as_mut_slice(),
        );
        let ng = self.ng(a);
        self.push(out, Op::Gelu(a), vec![], ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        self.ew_unary(a, Op::Tanh(a), f32::tanh)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        self.ew_unary(a, Op::Sigmoid(a), sigmoid)
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: VarId) -> VarId {
        self.ew_unary(a, Op::Exp(a), f32::exp)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(&mut self, a: VarId) -> VarId {
        let mut out = self.buf_like(a);
        {
            let xv = self.nodes[a.0].value.as_slice();
            let c = self.nodes[a.0].value.cols();
            for (orow, xrow) in out.as_mut_slice().chunks_mut(c).zip(xv.chunks(c)) {
                let m = xrow.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut z = 0.0;
                for (o, &x) in orow.iter_mut().zip(xrow) {
                    *o = (x - m).exp();
                    z += *o;
                }
                for o in orow.iter_mut() {
                    *o /= z;
                }
            }
        }
        let ng = self.ng(a);
        let saved = vec![out.clone()];
        self.push(out, Op::SoftmaxRows(a), saved, ng)
    }

    // ---- normalisation ---------------------------------------------------

    /// Layer normalisation over each row, with gain `gamma` and bias
    /// `beta` (both `[C]`). Row reductions (mean, variance) run through
    /// the vectorized kernels.
    pub fn layer_norm(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f32) -> VarId {
        let (r, c) = {
            let xv = &self.nodes[x.0].value;
            (xv.rows(), xv.cols())
        };
        let kn = kernel::active();
        let ng = self.ng(x) || self.ng(gamma) || self.ng(beta);
        let mut out = Tensor::zeros(&[r, c]);
        // also materialise x̂ and 1/σ for backward
        let mut xhat = Tensor::zeros(&[r, c]);
        let mut inv_std = Tensor::zeros(&[r]);
        {
            let xv = &self.nodes[x.0].value;
            let gm = &self.nodes[gamma.0].value;
            let bt = &self.nodes[beta.0].value;
            for i in 0..r {
                let row = xv.row(i);
                let mu = kernel::sum(kn, row) / c as f32;
                let var = kernel::sq_dev_sum(kn, row, mu) / c as f32;
                let is = 1.0 / (var + eps).sqrt();
                inv_std.as_mut_slice()[i] = is;
                for j in 0..c {
                    let xh = (row[j] - mu) * is;
                    xhat[(i, j)] = xh;
                    out[(i, j)] = gm.at(j) * xh + bt.at(j);
                }
            }
        }
        self.push(
            out,
            Op::LayerNorm { x, gamma, beta },
            vec![xhat, inv_std],
            ng,
        )
    }

    /// Normalises each row to unit L2 norm (contrastive embeddings).
    pub fn normalize_rows(&mut self, a: VarId) -> VarId {
        let r = self.nodes[a.0].value.rows();
        let mut norms = Tensor::zeros(&[r]);
        let mut out = self.buf_like(a);
        {
            let xv = &self.nodes[a.0].value;
            let c = xv.cols();
            for (i, (orow, nslot)) in out
                .as_mut_slice()
                .chunks_mut(c)
                .zip(norms.as_mut_slice())
                .enumerate()
            {
                let row = xv.row(i);
                let n = row.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
                *nslot = n;
                for (o, &v) in orow.iter_mut().zip(row) {
                    *o = v / n;
                }
            }
        }
        let ng = self.ng(a);
        let saved = vec![out.clone(), norms];
        self.push(out, Op::NormalizeRows(a), saved, ng)
    }

    // ---- token geometry ----------------------------------------------------

    /// Mean-pools `[batch·tokens, d]` to `[batch, d]`.
    ///
    /// # Panics
    ///
    /// Panics if the row count is not a multiple of `tokens`.
    pub fn mean_pool_tokens(&mut self, x: VarId, tokens: usize) -> VarId {
        let (rt, d) = {
            let xv = &self.nodes[x.0].value;
            (xv.rows(), xv.cols())
        };
        assert_eq!(
            rt % tokens,
            0,
            "mean_pool_tokens: {rt} rows not divisible by {tokens}"
        );
        let b = rt / tokens;
        let mut out = Tensor::zeros(&[b, d]);
        {
            let xv = &self.nodes[x.0].value;
            for (bi, orow) in out.as_mut_slice().chunks_mut(d).enumerate() {
                for t in 0..tokens {
                    let row = xv.row(bi * tokens + t);
                    for (o, &v) in orow.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                for o in orow.iter_mut() {
                    *o /= tokens as f32;
                }
            }
        }
        let ng = self.ng(x);
        self.push(out, Op::MeanPoolTokens { x, tokens }, vec![], ng)
    }

    /// Repeats each row of `[batch, d]` `tokens` times → `[batch·tokens, d]`
    /// (the decoder's upsampling stage).
    pub fn repeat_tokens(&mut self, x: VarId, tokens: usize) -> VarId {
        let (b, d) = {
            let xv = &self.nodes[x.0].value;
            (xv.rows(), xv.cols())
        };
        let mut out = Tensor::zeros(&[b * tokens, d]);
        {
            let xv = &self.nodes[x.0].value;
            for (r, orow) in out.as_mut_slice().chunks_mut(d).enumerate() {
                orow.copy_from_slice(xv.row(r / tokens));
            }
        }
        let ng = self.ng(x);
        self.push(out, Op::RepeatTokens { x, tokens }, vec![], ng)
    }

    /// Scaled dot-product multi-head self-attention.
    ///
    /// `q`, `k`, `v` are `[batch·tokens, d_model]` with
    /// `d_model = heads · head_dim`. Attention is computed independently
    /// per sample and head over the `tokens` positions.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent with `batch`, `heads`,
    /// `tokens`.
    pub fn attention(
        &mut self,
        q: VarId,
        k: VarId,
        v: VarId,
        batch: usize,
        heads: usize,
        tokens: usize,
    ) -> VarId {
        let d = {
            let qv = &self.nodes[q.0].value;
            let kv = &self.nodes[k.0].value;
            let vv = &self.nodes[v.0].value;
            let d = qv.cols();
            assert_eq!(qv.rows(), batch * tokens, "attention: q rows");
            assert_eq!(kv.shape(), qv.shape(), "attention: k shape");
            assert_eq!(vv.shape(), qv.shape(), "attention: v shape");
            assert_eq!(
                d % heads,
                0,
                "attention: d_model {d} not divisible by {heads} heads"
            );
            d
        };
        let mut out = Tensor::zeros(&[batch * tokens, d]);
        let mut probs = Tensor::zeros(&[batch * heads * tokens, tokens]);
        let mut scores = vec![0.0f32; tokens];
        attend(
            self.nodes[q.0].value.as_slice(),
            self.nodes[k.0].value.as_slice(),
            self.nodes[v.0].value.as_slice(),
            [batch, heads, tokens],
            out.as_mut_slice(),
            &mut scores,
            Some(probs.as_mut_slice()),
        );
        let ng = self.ng(q) || self.ng(k) || self.ng(v);
        let saved = vec![probs];
        self.push(
            out,
            Op::Attention {
                q,
                k,
                v,
                batch,
                heads,
                tokens,
            },
            saved,
            ng,
        )
    }

    /// Reinterprets the (row-major contiguous) value under a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element count changes.
    pub fn reshape(&mut self, a: VarId, shape: &[usize]) -> VarId {
        assert_eq!(
            self.nodes[a.0].value.len(),
            shape.iter().product::<usize>(),
            "reshape: cannot view {:?} as {:?}",
            self.nodes[a.0].value.shape(),
            shape
        );
        let mut out = Tensor::zeros(shape);
        out.as_mut_slice()
            .copy_from_slice(self.nodes[a.0].value.as_slice());
        let ng = self.ng(a);
        self.push(out, Op::Reshape(a), vec![], ng)
    }

    // ---- reductions & losses ----------------------------------------------

    /// Softmax cross-entropy against integer class targets, averaged over
    /// rows — the classification loss of the AIrchitect v1 baseline.
    ///
    /// # Panics
    ///
    /// Panics if `targets.len()` differs from the number of rows or any
    /// target is out of range.
    pub fn cross_entropy_loss(&mut self, x: VarId, targets: &[usize]) -> VarId {
        let xv = self.value(x);
        let (r, c) = (xv.rows(), xv.cols());
        assert_eq!(
            targets.len(),
            r,
            "cross_entropy_loss: targets/rows mismatch"
        );
        assert!(
            targets.iter().all(|&t| t < c),
            "cross_entropy_loss: target class out of range"
        );
        let probs = xv.softmax_rows();
        let mut acc = 0.0f64;
        for (i, &t) in targets.iter().enumerate() {
            acc -= (probs[(i, t)].max(1e-12) as f64).ln();
        }
        let loss = (acc / r as f64) as f32;
        let ng = self.ng(x);
        self.push(
            Tensor::from_slice(&[loss]),
            Op::CrossEntropyLoss {
                x,
                targets: targets.to_vec(),
            },
            vec![probs],
            ng,
        )
    }

    /// Mean over all elements, producing a scalar node.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let v = Tensor::from_slice(&[self.value(a).mean()]);
        let ng = self.ng(a);
        self.push(v, Op::MeanAll(a), vec![], ng)
    }

    /// Mean-squared-error loss against a constant target of the same shape.
    pub fn mse_loss(&mut self, x: VarId, target: Tensor) -> VarId {
        let xv = self.value(x);
        assert_eq!(xv.shape(), target.shape(), "mse_loss: shape mismatch");
        let loss = xv.sub(&target).map(|d| d * d).mean();
        let ng = self.ng(x);
        self.push(
            Tensor::from_slice(&[loss]),
            Op::MseLoss(x),
            vec![target],
            ng,
        )
    }

    /// Mean-absolute-error (L1) loss — the paper's performance-prediction
    /// loss `L_perf`.
    pub fn l1_loss(&mut self, x: VarId, target: Tensor) -> VarId {
        let xv = self.value(x);
        assert_eq!(xv.shape(), target.shape(), "l1_loss: shape mismatch");
        let loss = xv.sub(&target).map(f32::abs).mean();
        let ng = self.ng(x);
        self.push(Tensor::from_slice(&[loss]), Op::L1Loss(x), vec![target], ng)
    }

    /// Numerically stable binary cross-entropy on logits, averaged over all
    /// elements.
    pub fn bce_with_logits_loss(&mut self, x: VarId, target: Tensor) -> VarId {
        let xv = self.value(x);
        assert_eq!(
            xv.shape(),
            target.shape(),
            "bce_with_logits_loss: shape mismatch"
        );
        let mut acc = 0.0f64;
        for (&l, &t) in xv.as_slice().iter().zip(target.as_slice()) {
            // max(l,0) - l t + ln(1 + e^{-|l|})
            acc += (l.max(0.0) - l * t + (-l.abs()).exp().ln_1p()) as f64;
        }
        let loss = (acc / xv.len() as f64) as f32;
        let ng = self.ng(x);
        self.push(
            Tensor::from_slice(&[loss]),
            Op::BceWithLogitsLoss(x),
            vec![target],
            ng,
        )
    }

    /// Supervised infoNCE contrastive loss (paper Eq. 1).
    ///
    /// `z` holds one embedding per row (pre-normalised rows are expected —
    /// compose with [`Graph::normalize_rows`]); `labels[i]` is the UOV
    /// bucket class of sample `i`. For each anchor `p`, rows with the same
    /// label are positives `p⁺` and all other rows are negatives `p⁻`:
    ///
    /// `L = −log ( Σ_{p⁺} e^{z·z⁺/τ} / (Σ_{p⁺} e^{z·z⁺/τ} + Σ_{p⁻} e^{z·z⁻/τ}) )`
    ///
    /// averaged over anchors that have at least one positive; anchors
    /// without positives contribute nothing.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of rows.
    pub fn info_nce_loss(&mut self, z: VarId, labels: &[u32], tau: f32) -> VarId {
        let zv = self.value(z);
        let n = zv.rows();
        assert_eq!(labels.len(), n, "info_nce_loss: labels/rows mismatch");
        // Pairwise similarity exponentials e[i][j] = exp(z_i·z_j / tau)
        let sim = zv.matmul_nt(zv); // [n, n]
        let e = sim.map(|s| (s / tau).exp());
        let mut loss = 0.0f64;
        let mut anchors = 0usize;
        for i in 0..n {
            let mut s_pos = 0.0f64;
            let mut s_all = 0.0f64;
            for j in 0..n {
                if j == i {
                    continue;
                }
                let eij = e[(i, j)] as f64;
                s_all += eij;
                if labels[j] == labels[i] {
                    s_pos += eij;
                }
            }
            if s_pos > 0.0 && s_all > 0.0 {
                loss -= (s_pos / s_all).ln();
                anchors += 1;
            }
        }
        let loss = if anchors > 0 {
            (loss / anchors as f64) as f32
        } else {
            0.0
        };
        let labels_t = Tensor::from_vec(labels.iter().map(|&l| l as f32).collect(), &[n])
            .expect("label length checked");
        let ng = self.ng(z);
        self.push(
            Tensor::from_slice(&[loss]),
            Op::InfoNceLoss { z, tau },
            vec![e, labels_t],
            ng,
        )
    }

    /// Unification loss for UOV heads (paper Eq. 3).
    ///
    /// `x` are raw logits `[B, K]`; `target` is the ground-truth UOV
    /// `q ∈ [0, 1]^{B×K}`. With `u = σ(x)`:
    ///
    /// * where `q > 0`:  `α · |q − u|^γ · BCE(u, q)`
    /// * where `q = 0`:  `(1 − α) · u^γ · BCE(u, q)`
    ///
    /// averaged over the batch (summed over the K buckets, matching the
    /// paper's `Σ_{i=0}^{K−1}`).
    pub fn unification_loss(&mut self, x: VarId, target: Tensor, alpha: f32, gamma: f32) -> VarId {
        let xv = self.value(x);
        assert_eq!(
            xv.shape(),
            target.shape(),
            "unification_loss: shape mismatch"
        );
        let b = xv.rows() as f64;
        let mut acc = 0.0f64;
        for (&l, &q) in xv.as_slice().iter().zip(target.as_slice()) {
            let u = sigmoid(l).clamp(UOV_EPS, 1.0 - UOV_EPS);
            let bce = -(q * u.ln() + (1.0 - q) * (1.0 - u).ln());
            let w = if q > 0.0 {
                alpha * (q - u).abs().powf(gamma)
            } else {
                (1.0 - alpha) * u.powf(gamma)
            };
            acc += (w * bce) as f64;
        }
        let loss = (acc / b) as f32;
        let ng = self.ng(x);
        self.push(
            Tensor::from_slice(&[loss]),
            Op::UnificationLoss { x, alpha, gamma },
            vec![target],
            ng,
        )
    }

    // ---- backward ---------------------------------------------------------

    /// Reverse-mode differentiation from scalar node `loss`.
    ///
    /// Returns the gradients of every parameter that participated in the
    /// computation. The tape remains valid afterwards (values can still be
    /// read), but gradients are not accumulated across calls.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element node.
    pub fn backward(&mut self, loss: VarId) -> Gradients {
        assert_eq!(
            self.value(loss).len(),
            1,
            "backward: loss must be scalar, got {:?}",
            self.value(loss).shape()
        );
        let n = self.nodes.len();
        let mut grads: Vec<Option<Tensor>> = (0..n).map(|_| None).collect();
        grads[loss.0] = Some(Tensor::ones(&[1]));

        for idx in (0..n).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            let Some(g) = grads[idx].take() else { continue };
            self.backprop_node(idx, &g, &mut grads);
            grads[idx] = Some(g);
        }

        let mut out = Gradients::default();
        for (pid, vid) in &self.param_cache {
            if let Some(g) = grads[vid.0].take() {
                out.by_param.insert(*pid, g);
            }
        }
        out
    }

    fn backprop_node(&self, idx: usize, g: &Tensor, grads: &mut [Option<Tensor>]) {
        let node = &self.nodes[idx];
        let accum = |grads: &mut [Option<Tensor>], v: VarId, delta: Tensor| {
            if !self.nodes[v.0].needs_grad {
                return;
            }
            match &mut grads[v.0] {
                Some(existing) => {
                    *existing = existing.add(&delta);
                }
                slot @ None => *slot = Some(delta),
            }
        };
        match &node.op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                accum(grads, *a, g.clone());
                accum(grads, *b, g.clone());
            }
            Op::Sub(a, b) => {
                accum(grads, *a, g.clone());
                accum(grads, *b, g.scale(-1.0));
            }
            Op::Mul(a, b) => {
                accum(grads, *a, g.mul(self.value(*b)));
                accum(grads, *b, g.mul(self.value(*a)));
            }
            Op::AddRow(a, b) => {
                accum(grads, *a, g.clone());
                accum(grads, *b, g.sum_axis0());
            }
            Op::Scale(a, c) => accum(grads, *a, g.scale(*c)),
            Op::AddScalar(a) => accum(grads, *a, g.clone()),
            Op::Matmul(a, b) => {
                // dA = g Bᵀ ; dB = Aᵀ g
                accum(grads, *a, g.matmul_nt(self.value(*b)));
                accum(grads, *b, self.value(*a).matmul_tn(g));
            }
            Op::Relu(a) => {
                let d = self
                    .value(*a)
                    .zip_map(g, |x, gg| if x > 0.0 { gg } else { 0.0 });
                accum(grads, *a, d);
            }
            Op::LeakyRelu(a, s) => {
                let s = *s;
                let d = self
                    .value(*a)
                    .zip_map(g, |x, gg| if x >= 0.0 { gg } else { s * gg });
                accum(grads, *a, d);
            }
            Op::Gelu(a) => {
                let d = self.value(*a).zip_map(g, |x, gg| gg * gelu_grad(x));
                accum(grads, *a, d);
            }
            Op::Tanh(a) => {
                // y = tanh(x); dy/dx = 1 - y²
                let d = node.value.zip_map(g, |y, gg| gg * (1.0 - y * y));
                accum(grads, *a, d);
            }
            Op::Sigmoid(a) => {
                let d = node.value.zip_map(g, |y, gg| gg * y * (1.0 - y));
                accum(grads, *a, d);
            }
            Op::Exp(a) => {
                let d = node.value.mul(g);
                accum(grads, *a, d);
            }
            Op::SoftmaxRows(a) => {
                let p = &node.saved[0];
                let (r, c) = (p.rows(), p.cols());
                let mut d = Tensor::zeros(&[r, c]);
                for i in 0..r {
                    let prow = p.row(i);
                    let grow = g.row(i);
                    let dot: f32 = prow.iter().zip(grow).map(|(a, b)| a * b).sum();
                    for j in 0..c {
                        d[(i, j)] = prow[j] * (grow[j] - dot);
                    }
                }
                accum(grads, *a, d);
            }
            Op::LayerNorm { x, gamma, beta } => {
                let xhat = &node.saved[0];
                let inv_std = &node.saved[1];
                let gm = self.value(*gamma);
                let (r, c) = (xhat.rows(), xhat.cols());
                let mut dx = Tensor::zeros(&[r, c]);
                let mut dgamma = Tensor::zeros(&[c]);
                let mut dbeta = Tensor::zeros(&[c]);
                for i in 0..r {
                    let xh = xhat.row(i);
                    let grow = g.row(i);
                    let is = inv_std.at(i);
                    let mut mean_gy = 0.0f32;
                    let mut mean_gy_xh = 0.0f32;
                    for j in 0..c {
                        let gy = grow[j] * gm.at(j);
                        mean_gy += gy;
                        mean_gy_xh += gy * xh[j];
                    }
                    mean_gy /= c as f32;
                    mean_gy_xh /= c as f32;
                    for j in 0..c {
                        let gy = grow[j] * gm.at(j);
                        dx[(i, j)] = (gy - mean_gy - xh[j] * mean_gy_xh) * is;
                        dgamma.as_mut_slice()[j] += grow[j] * xh[j];
                        dbeta.as_mut_slice()[j] += grow[j];
                    }
                }
                accum(grads, *x, dx);
                accum(grads, *gamma, dgamma);
                accum(grads, *beta, dbeta);
            }
            Op::NormalizeRows(a) => {
                let y = &node.saved[0];
                let norms = &node.saved[1];
                let (r, c) = (y.rows(), y.cols());
                let mut d = Tensor::zeros(&[r, c]);
                for i in 0..r {
                    let yr = y.row(i);
                    let gr = g.row(i);
                    let dot: f32 = yr.iter().zip(gr).map(|(a, b)| a * b).sum();
                    let n = norms.at(i);
                    for j in 0..c {
                        d[(i, j)] = (gr[j] - yr[j] * dot) / n;
                    }
                }
                accum(grads, *a, d);
            }
            Op::MeanPoolTokens { x, tokens } => {
                let xv = self.value(*x);
                let (rt, c) = (xv.rows(), xv.cols());
                let mut d = Tensor::zeros(&[rt, c]);
                let b = rt / tokens;
                for bi in 0..b {
                    let grow = g.row(bi);
                    for t in 0..*tokens {
                        for (o, &gg) in d.row_mut(bi * tokens + t).iter_mut().zip(grow) {
                            *o = gg / *tokens as f32;
                        }
                    }
                }
                accum(grads, *x, d);
            }
            Op::RepeatTokens { x, tokens } => {
                let xv = self.value(*x);
                let (b, c) = (xv.rows(), xv.cols());
                let mut d = Tensor::zeros(&[b, c]);
                for bi in 0..b {
                    for t in 0..*tokens {
                        let grow = g.row(bi * tokens + t);
                        for (o, &gg) in d.row_mut(bi).iter_mut().zip(grow) {
                            *o += gg;
                        }
                    }
                }
                accum(grads, *x, d);
            }
            Op::Attention {
                q,
                k,
                v,
                batch,
                heads,
                tokens,
            } => {
                let (batch, heads, tokens) = (*batch, *heads, *tokens);
                let probs = &node.saved[0];
                let qv = self.value(*q);
                let kv = self.value(*k);
                let vv = self.value(*v);
                let d = qv.cols();
                let dh = d / heads;
                let scale = 1.0 / (dh as f32).sqrt();
                let mut dq = Tensor::zeros(&[batch * tokens, d]);
                let mut dk = Tensor::zeros(&[batch * tokens, d]);
                let mut dv = Tensor::zeros(&[batch * tokens, d]);
                let mut dprobs = vec![0.0f32; tokens];
                let mut dscores = vec![0.0f32; tokens];
                for b in 0..batch {
                    for h in 0..heads {
                        let hs = h * dh;
                        for i in 0..tokens {
                            let grow = &g.row(b * tokens + i)[hs..hs + dh];
                            let prow = probs.row((b * heads + h) * tokens + i);
                            // dV and dProbs
                            for j in 0..tokens {
                                let vrow = &vv.row(b * tokens + j)[hs..hs + dh];
                                dprobs[j] = grow.iter().zip(vrow).map(|(a, b)| a * b).sum();
                                let dvrow = &mut dv.row_mut(b * tokens + j)[hs..hs + dh];
                                for (o, &gg) in dvrow.iter_mut().zip(grow) {
                                    *o += prow[j] * gg;
                                }
                            }
                            // softmax backward
                            let dot: f32 = prow.iter().zip(&dprobs).map(|(a, b)| a * b).sum();
                            #[allow(clippy::needless_range_loop)]
                            for j in 0..tokens {
                                dscores[j] = prow[j] * (dprobs[j] - dot);
                            }
                            // dQ_i += Σ_j dS_ij K_j · scale ; dK_j += dS_ij Q_i · scale
                            let qrow: Vec<f32> = qv.row(b * tokens + i)[hs..hs + dh].to_vec();
                            let dqrow = &mut dq.row_mut(b * tokens + i)[hs..hs + dh];
                            #[allow(clippy::needless_range_loop)]
                            for j in 0..tokens {
                                let ds = dscores[j] * scale;
                                if ds == 0.0 {
                                    continue;
                                }
                                let krow = &kv.row(b * tokens + j)[hs..hs + dh];
                                for (o, &kk) in dqrow.iter_mut().zip(krow) {
                                    *o += ds * kk;
                                }
                                let dkrow = &mut dk.row_mut(b * tokens + j)[hs..hs + dh];
                                for (o, &qq) in dkrow.iter_mut().zip(&qrow) {
                                    *o += ds * qq;
                                }
                            }
                        }
                    }
                }
                accum(grads, *q, dq);
                accum(grads, *k, dk);
                accum(grads, *v, dv);
            }
            Op::Reshape(a) => {
                let d = g.reshape(self.value(*a).shape());
                accum(grads, *a, d);
            }
            Op::CrossEntropyLoss { x, targets } => {
                let probs = &node.saved[0];
                let (r, c) = (probs.rows(), probs.cols());
                let gg = g.at(0) / r as f32;
                let mut d = probs.scale(gg);
                for (i, &t) in targets.iter().enumerate() {
                    d[(i, t)] -= gg;
                    let _ = c;
                }
                accum(grads, *x, d);
            }
            Op::MeanAll(a) => {
                let xv = self.value(*a);
                let gg = g.at(0) / xv.len() as f32;
                accum(grads, *a, Tensor::full(xv.shape(), gg));
            }
            Op::MseLoss(x) => {
                let xv = self.value(*x);
                let t = &node.saved[0];
                let gg = g.at(0) * 2.0 / xv.len() as f32;
                accum(grads, *x, xv.sub(t).scale(gg));
            }
            Op::L1Loss(x) => {
                let xv = self.value(*x);
                let t = &node.saved[0];
                let gg = g.at(0) / xv.len() as f32;
                let d = xv.zip_map(t, |a, b| (a - b).signum() * gg);
                accum(grads, *x, d);
            }
            Op::BceWithLogitsLoss(x) => {
                let xv = self.value(*x);
                let t = &node.saved[0];
                let gg = g.at(0) / xv.len() as f32;
                let d = xv.zip_map(t, |l, tt| (sigmoid(l) - tt) * gg);
                accum(grads, *x, d);
            }
            Op::InfoNceLoss { z, tau } => {
                let e = &node.saved[0];
                let labels = &node.saved[1];
                let zv = self.value(*z);
                let n = zv.rows();
                // per-anchor sums
                let mut s_pos = vec![0.0f64; n];
                let mut s_all = vec![0.0f64; n];
                for i in 0..n {
                    for j in 0..n {
                        if j == i {
                            continue;
                        }
                        let eij = e[(i, j)] as f64;
                        s_all[i] += eij;
                        if labels.at(j) == labels.at(i) {
                            s_pos[i] += eij;
                        }
                    }
                }
                let anchors = s_pos.iter().filter(|&&p| p > 0.0).count();
                if anchors == 0 {
                    return;
                }
                let gg = g.at(0) / anchors as f32;
                // dL/ds_ij (i anchor): positives: e_ij (1/S_all - 1/S_pos);
                //                       negatives: e_ij / S_all
                // s_ij = z_i · z_j / tau  →  dz_i += coeff · z_j / tau, dz_j += coeff · z_i / tau
                let mut dz = Tensor::zeros(&[n, zv.cols()]);
                for i in 0..n {
                    if s_pos[i] == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        if j == i {
                            continue;
                        }
                        let eij = e[(i, j)] as f64;
                        let coeff = if labels.at(j) == labels.at(i) {
                            eij * (1.0 / s_all[i] - 1.0 / s_pos[i])
                        } else {
                            eij / s_all[i]
                        } as f32
                            * gg
                            / tau;
                        if coeff == 0.0 {
                            continue;
                        }
                        let zj = zv.row(j);
                        let zi = zv.row(i);
                        // split borrows: rows i and j of dz
                        for (c, (&a, &b)) in zj.iter().zip(zi).enumerate() {
                            dz[(i, c)] += coeff * a;
                            dz[(j, c)] += coeff * b;
                        }
                    }
                }
                accum(grads, *z, dz);
            }
            Op::UnificationLoss { x, alpha, gamma } => {
                let xv = self.value(*x);
                let t = &node.saved[0];
                let b = xv.rows() as f32;
                let gg = g.at(0) / b;
                let (alpha, gamma) = (*alpha, *gamma);
                let d = xv.zip_map(t, |l, q| {
                    let u = sigmoid(l).clamp(UOV_EPS, 1.0 - UOV_EPS);
                    let du = u * (1.0 - u); // dσ/dx
                    let bce = -(q * u.ln() + (1.0 - q) * (1.0 - u).ln());
                    let dbce_dx = u - q; // d(BCE)/dx through the sigmoid
                    let (w, dw_dx) = if q > 0.0 {
                        let diff = q - u;
                        let w = alpha * diff.abs().powf(gamma);
                        // d|q-u|^γ/dx = γ|q-u|^{γ-1} · sign(q-u) · (-du)
                        let dw = if diff.abs() > UOV_EPS {
                            alpha * gamma * diff.abs().powf(gamma - 1.0) * diff.signum() * (-du)
                        } else {
                            0.0
                        };
                        (w, dw)
                    } else {
                        let w = (1.0 - alpha) * u.powf(gamma);
                        let dw = (1.0 - alpha) * gamma * u.powf(gamma - 1.0) * du;
                        (w, dw)
                    };
                    gg * (dw_dx * bce + w * dbce_dx)
                });
                accum(grads, *x, d);
            }
        }
    }
}

/// Clamp bound keeping `σ(x)` away from {0, 1} inside the unification
/// loss, so `ln` and `pow` stay finite.
const UOV_EPS: f32 = 1e-6;

/// Scaled dot-product multi-head self-attention over `[batch·tokens, d]`
/// rows laid out as `geom = [batch, heads, tokens]`:
/// `out += softmax(q·kᵀ/√dh)·v` per sample and head, so `out` must come
/// in zeroed. `scores` is `tokens` values of scratch. When `probs` is
/// given, the attention probabilities are also stored there as
/// `[batch·heads·tokens, tokens]` for the backward pass.
pub(crate) fn attend(
    q: &[f32],
    k: &[f32],
    v: &[f32],
    geom: [usize; 3],
    out: &mut [f32],
    scores: &mut [f32],
    mut probs: Option<&mut [f32]>,
) {
    let [batch, heads, tokens] = geom;
    let d = q.len() / (batch * tokens);
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    let kn = kernel::active();
    for b in 0..batch {
        for h in 0..heads {
            // this head's columns of row `r`
            let cols = |r: usize| r * d + h * dh..r * d + (h + 1) * dh;
            for i in 0..tokens {
                let qrow = &q[cols(b * tokens + i)];
                for (j, s) in scores.iter_mut().enumerate() {
                    *s = kernel::dot(kn, qrow, &k[cols(b * tokens + j)]) * scale;
                }
                // softmax
                let m = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut z = 0.0;
                for s in scores.iter_mut() {
                    *s = (*s - m).exp();
                    z += *s;
                }
                for s in scores.iter_mut() {
                    *s /= z;
                }
                if let Some(p) = probs.as_deref_mut() {
                    let r = (b * heads + h) * tokens + i;
                    p[r * tokens..(r + 1) * tokens].copy_from_slice(scores);
                }
                // out_i = Σ_j p_ij v_j
                let orow = &mut out[cols(b * tokens + i)];
                for (j, &p) in scores.iter().enumerate() {
                    for (o, &x) in orow.iter_mut().zip(&v[cols(b * tokens + j)]) {
                        *o += p * x;
                    }
                }
            }
        }
    }
}

/// Logistic sigmoid, evaluated without overflow for either sign.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

fn gelu_grad(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = u.tanh();
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * C * (1.0 + 3.0 * 0.044715 * x * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParamStore {
        ParamStore::new(7)
    }

    #[test]
    fn forward_values_are_recorded() {
        let s = store();
        let mut g = Graph::new(&s);
        let a = g.constant(Tensor::from_slice(&[1.0, 2.0]).reshape(&[1, 2]));
        let b = g.constant(Tensor::from_slice(&[3.0, 4.0]).reshape(&[1, 2]));
        let c = g.add(a, b);
        assert_eq!(g.value(c).as_slice(), &[4.0, 6.0]);
        let d = g.mul(a, b);
        assert_eq!(g.value(d).as_slice(), &[3.0, 8.0]);
    }

    #[test]
    fn param_nodes_are_cached() {
        let mut s = store();
        let w = s.add_zeros("w", &[2, 2]);
        let mut g = Graph::new(&s);
        let v1 = g.param(w);
        let v2 = g.param(w);
        assert_eq!(v1, v2);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn simple_linear_gradient() {
        // loss = mean((x·w)²) for x = [1, 2], w = [w0, w1]ᵀ, w = [0.5, -1]
        // y = 0.5 - 2 = -1.5; loss = y²; dL/dw = 2y·x = [-3, -6]
        let mut s = store();
        let w = s.add("w", Tensor::from_vec(vec![0.5, -1.0], &[2, 1]).unwrap());
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        let wv = g.param(w);
        let y = g.matmul(x, wv);
        let loss = g.mse_loss(y, Tensor::zeros(&[1, 1]));
        assert!((g.scalar(loss) - 2.25).abs() < 1e-6);
        let grads = g.backward(loss);
        let gw = grads.get(w).unwrap();
        assert!((gw.at(0) + 3.0).abs() < 1e-5, "{:?}", gw.as_slice());
        assert!((gw.at(1) + 6.0).abs() < 1e-5);
    }

    #[test]
    fn gradient_accumulates_over_reused_nodes() {
        // loss = mean((w + w)²) = 4w² → dL/dw = 8w
        let mut s = store();
        let w = s.add("w", Tensor::from_slice(&[3.0]));
        let mut g = Graph::new(&s);
        let wv = g.param(w);
        let two_w = g.add(wv, wv);
        let loss = g.mse_loss(two_w, Tensor::zeros(&[1]));
        let grads = g.backward(loss);
        assert!((grads.get(w).unwrap().at(0) - 24.0).abs() < 1e-4);
    }

    #[test]
    fn constants_get_no_gradient() {
        let mut s = store();
        let w = s.add("w", Tensor::from_slice(&[1.0]));
        let mut g = Graph::new(&s);
        let c = g.constant(Tensor::from_slice(&[5.0]));
        let wv = g.param(w);
        let y = g.mul(c, wv);
        let loss = g.mse_loss(y, Tensor::zeros(&[1]));
        let grads = g.backward(loss);
        assert_eq!(grads.len(), 1);
        assert!((grads.get(w).unwrap().at(0) - 50.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_backward_is_zero_sum() {
        let s = store();
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let p = g.softmax_rows(x);
        let total: f32 = g.value(p).as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn info_nce_prefers_aligned_positives() {
        // two classes; anchors aligned with their class direction
        let s = store();
        let mut g = Graph::new(&s);
        let aligned = Tensor::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0], &[0.0, 1.0]]);
        let z = g.constant(aligned);
        let loss_good = g.info_nce_loss(z, &[0, 0, 1, 1], 0.4);

        let mut g2 = Graph::new(&s);
        let mixed = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[0.0, 1.0]]);
        let z2 = g2.constant(mixed);
        let loss_bad = g2.info_nce_loss(z2, &[0, 0, 1, 1], 0.4);

        assert!(g.scalar(loss_good) < g2.scalar(loss_bad));
    }

    #[test]
    fn info_nce_no_positives_is_zero() {
        let s = store();
        let mut g = Graph::new(&s);
        let z = g.constant(Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]));
        let loss = g.info_nce_loss(z, &[0, 1], 0.4);
        assert_eq!(g.scalar(loss), 0.0);
    }

    #[test]
    fn unification_loss_zero_at_perfect_prediction() {
        let s = store();
        let mut g = Graph::new(&s);
        // logits that sigmoid to ≈ the target
        let target = Tensor::from_rows(&[&[0.9, 0.5, 0.0]]);
        let logits = Tensor::from_rows(&[&[(0.9f32 / 0.1).ln(), 0.0, -20.0]]);
        let x = g.constant(logits);
        let loss = g.unification_loss(x, target, 0.75, 1.0);
        assert!(g.scalar(loss) < 0.05, "loss {}", g.scalar(loss));
    }

    #[test]
    fn unification_loss_penalises_far_buckets_more() {
        let s = store();
        // target: bucket 1 of 4 (UOV [0.8, 0, 0, 0] say)
        let target = Tensor::from_rows(&[&[0.8, 0.0, 0.0, 0.0]]);
        // prediction A: mass on bucket 1 (close) vs B: mass on bucket 3 (far)
        let mut ga = Graph::new(&s);
        let xa = ga.constant(Tensor::from_rows(&[&[2.0, -4.0, -4.0, -4.0]]));
        let la = ga.unification_loss(xa, target.clone(), 0.75, 1.0);
        let mut gb = Graph::new(&s);
        let xb = gb.constant(Tensor::from_rows(&[&[-4.0, -4.0, -4.0, 2.0]]));
        let lb = gb.unification_loss(xb, target, 0.75, 1.0);
        assert!(ga.scalar(la) < gb.scalar(lb));
    }

    #[test]
    fn attention_uniform_when_query_is_zero() {
        let s = store();
        let mut g = Graph::new(&s);
        let tokens = 3;
        let q = g.constant(Tensor::zeros(&[tokens, 4]));
        let k = g.constant(Tensor::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
        ]));
        let v = g.constant(Tensor::from_rows(&[
            &[3.0, 0.0, 0.0, 0.0],
            &[0.0, 3.0, 0.0, 0.0],
            &[0.0, 0.0, 3.0, 0.0],
        ]));
        let out = g.attention(q, k, v, 1, 1, tokens);
        // zero queries → uniform attention → mean of V rows
        for t in 0..tokens {
            let row = g.value(out).row(t);
            assert!((row[0] - 1.0).abs() < 1e-5);
            assert!((row[1] - 1.0).abs() < 1e-5);
            assert!((row[2] - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn token_pool_and_repeat_shapes() {
        let s = store();
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::from_rows(&[
            &[1.0, 2.0],
            &[3.0, 4.0],
            &[5.0, 6.0],
            &[7.0, 8.0],
        ]));
        let pooled = g.mean_pool_tokens(x, 2);
        assert_eq!(g.value(pooled).shape(), &[2, 2]);
        assert_eq!(g.value(pooled).row(0), &[2.0, 3.0]);
        let rep = g.repeat_tokens(pooled, 2);
        assert_eq!(g.value(rep).shape(), &[4, 2]);
        assert_eq!(g.value(rep).row(1), &[2.0, 3.0]);
    }

    #[test]
    fn bce_matches_manual_value() {
        let s = store();
        let mut g = Graph::new(&s);
        let x = g.constant(Tensor::from_slice(&[0.0]));
        let loss = g.bce_with_logits_loss(x, Tensor::from_slice(&[1.0]));
        // -ln(σ(0)) = ln 2
        assert!((g.scalar(loss) - std::f32::consts::LN_2).abs() < 1e-6);
    }

    #[test]
    fn grad_norm_and_clip() {
        let mut s = store();
        let w = s.add("w", Tensor::from_slice(&[3.0, 4.0]));
        let mut g = Graph::new(&s);
        let wv = g.param(w);
        let loss = g.mse_loss(wv, Tensor::zeros(&[2]));
        let mut grads = g.backward(loss);
        let n = grads.global_norm();
        assert!(n > 0.0);
        grads.scale_all(1.0 / n);
        assert!((grads.global_norm() - 1.0).abs() < 1e-4);
    }
}
