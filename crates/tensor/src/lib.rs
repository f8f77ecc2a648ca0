//! Minimal dense `f32` tensor library built from scratch for the DNN-MCTS
//! reproduction — now with a throughput-tuned inference path.
//!
//! The paper's DNN (5 convolution layers + 3 fully-connected layers on a
//! 15×15 board) is small by deep-learning standards, but it is evaluated
//! millions of times per search, so the hot kernels are engineered rather
//! than generic:
//!
//! * **[`ops::gemm`]** — a BLIS-style packed, register-blocked kernel: both
//!   operands are packed into `MR`/`NR` panels (normalizing all four
//!   transpose variants into one layout), the inner loop computes a 4×8
//!   tile of C entirely in registers, and an optional bias/ReLU epilogue
//!   ([`ops::gemm_ep`]) is fused into the tile write-back. Above a flop
//!   threshold the M dimension is partitioned into strips across a small
//!   persistent worker [`pool`] ([`ops::gemm_mt`] forces this), with
//!   bitwise-identical results. The previous scalar kernel is retained as
//!   [`ops::baseline`] for parity tests and before/after benchmarks.
//! * **[`conv`]** — im2col/col2im convolution where the forward pass
//!   unfolds the whole `[B, C, H, W]` batch into one
//!   `[col_rows, B·col_cols]` matrix and issues **one GEMM per layer call**
//!   instead of one per image.
//! * **[`quant`]** — the int8 inference tier: per-channel quantized
//!   weights, activations quantized once per sample, convolutions whose
//!   GEMM panels are gathered straight from u8 planes (no im2col matrix),
//!   and a `vpdpbusd` / AVX2 / scalar micro-kernel chosen at run time.
//! * **[`workspace::Workspace`]** — a reusable scratch arena (im2col
//!   matrix, GEMM staging, quantized activations, recycled activation
//!   buffers) threaded through the forward path so steady-state inference
//!   performs zero heap allocations.
//! * contiguous row-major storage, `f32` only; deterministic parameter
//!   [`init`]ialization given a seed.
//!
//! Threading: the worker pool sizes itself from `available_parallelism()`
//! capped at 8; setting `TENSOR_THREADS` overrides that sizing exactly
//! (uncapped). The pool is only consulted for GEMMs above
//! [`ops::MT_FLOP_THRESHOLD`].
//!
//! # Example
//!
//! ```
//! use tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

pub mod conv;
pub mod init;
pub mod ops;
pub mod pool;
pub mod quant;
pub mod shape;
pub mod tensor;
pub mod workspace;

pub use crate::tensor::Tensor;
pub use shape::Shape;
pub use workspace::Workspace;
