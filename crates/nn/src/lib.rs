//! Tape-based automatic differentiation, transformer building blocks,
//! losses and optimizers — the PyTorch substitute for the AIrchitect v2
//! reproduction.
//!
//! # Architecture
//!
//! * [`ParamStore`] owns all trainable tensors of a model; modules hold
//!   [`ParamId`] handles into it.
//! * [`Graph`] is a per-step tape. A forward pass records nodes; calling
//!   [`Graph::backward`] walks the tape in reverse and returns a
//!   [`Gradients`] map from parameter to gradient tensor.
//! * [`layers`] provides [`layers::Linear`], [`layers::LayerNorm`],
//!   [`layers::MultiHeadSelfAttention`], [`layers::FeedForward`] and
//!   [`layers::TransformerBlock`] (pre-norm residual blocks as used by the
//!   paper's encoder and decoder). Each has a `forward` that records onto
//!   a [`Graph`] for training and an `infer` that serves without a tape:
//!   it reads the weights in place from the [`ParamStore`] (or from int8
//!   [`quant::QuantizedLinear`] views) and writes into caller-held
//!   buffers ([`layers::BlockScratch`]), so a warm inference pass
//!   performs no heap allocation. `infer` runs the same kernels in the
//!   same accumulation order as the tape, so both agree to the rounding
//!   of the tape's two-step layer norm.
//! * [`optim`] provides SGD and Adam with learning-rate schedules.
//! * Losses include the paper's three specials: the supervised infoNCE
//!   contrastive loss (Eq. 1), the L1 performance-prediction loss, and the
//!   focal-style unification loss for UOV heads (Eq. 3).
//!
//! # Example: one training step
//!
//! ```
//! use ai2_nn::{Graph, ParamStore, layers::Linear, optim::{Adam, Optimizer}};
//! use ai2_tensor::Tensor;
//!
//! let mut store = ParamStore::new(42);
//! let lin = Linear::new(&mut store, "lin", 2, 1, true);
//! let mut opt = Adam::new(1e-2);
//!
//! let x = Tensor::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let t = Tensor::from_rows(&[&[1.0], &[0.0]]);
//!
//! let mut g = Graph::new(&store);
//! let xv = g.constant(x);
//! let y = lin.forward(&mut g, xv);
//! let loss = g.mse_loss(y, t);
//! let grads = g.backward(loss);
//! opt.step(&mut store, &grads);
//! ```

mod graph;
mod params;

pub mod checkpoint;
pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod quant;

pub use graph::{sigmoid, Gradients, Graph, VarId};
pub use params::{ParamId, ParamStore};
