//! Neural-network substrate for the DNN-MCTS reproduction.
//!
//! The paper's benchmark network is "5 convolution layers and 3
//! fully-connected layers" on a 15×15 Gomoku board (§5.1). The standard
//! Gomoku-AlphaZero architecture with exactly that layer budget is:
//!
//! ```text
//! trunk:  conv3x3(4→32) → ReLU → conv3x3(32→64) → ReLU → conv3x3(64→128) → ReLU
//! policy: conv1x1(128→4) → ReLU → flatten → FC(4·H·W → H·W)            [logits]
//! value:  conv1x1(128→2) → ReLU → flatten → FC(2·H·W → 64) → ReLU → FC(64 → 1) → tanh
//! ```
//!
//! (= 5 convs + 3 FCs). [`model::PolicyValueNet`] implements it generically
//! over board shape so small test games reuse the same code, and over
//! [`model::Architecture`], so the AlphaZero residual tower
//! ([`resnet::ResNetConfig`]) is the same type with other layers.
//!
//! Everything needed for the full training pipeline is here: cached forward
//! passes, exact backward passes (validated against finite differences),
//! the AlphaZero loss of Eq. 2, and SGD/Adam optimizers.
//!
//! # Performance notes (inference)
//!
//! A net has one inference entry,
//! [`PolicyValueNet::predict_into`](model::PolicyValueNet::predict_into),
//! and its int8 snapshot one more,
//! [`QuantPolicyValueNet::predict_into`](quant::QuantPolicyValueNet::predict_into).
//! Every server runs them: the CPU evaluator, the accelerator's streams and
//! the profiler. Training runs `forward_train`. The forward rides the
//! `tensor` crate's fast path:
//!
//! * **Batched convolutions** — each `Conv2d` forward issues **one GEMM per
//!   batch** (the whole `[B, C, H, W]` input is unfolded at once), so
//!   batching leaf evaluations pays off inside the network, not just at the
//!   search boundary.
//! * **Workspace reuse** — [`layer::forward_stack_ws`] and `predict_into`
//!   lease every intermediate activation (and the im2col/staging scratch)
//!   from a `tensor::Workspace`, so steady-state forward passes allocate
//!   nothing.
//! * **Epilogue fusion** — `Conv2d`/`Linear` followed by `ReLU` execute as
//!   a single GEMM with bias+ReLU fused into the output loop (numerically
//!   identical to the separate passes, which [`layer::forward_stack`] keeps
//!   as the test oracle).
//! * **Conv+BN folding** — [`fuse`] folds inference-mode batch norms into
//!   the preceding convolution;
//!   [`PolicyValueNet::folded_for_inference`](model::PolicyValueNet::folded_for_inference)
//!   snapshots a whole net. Folded layers are inference-only;
//!   `forward_train` on the *original* layers is untouched.

pub mod fuse;
pub mod layer;
pub mod loss;
pub mod model;
pub mod norm;
pub mod optim;
pub mod quant;
pub mod residual;
pub mod resnet;
pub mod schedule;
pub mod serialize;

pub use layer::{Conv2d, Layer, LayerKind, Linear};
pub use loss::{alphazero_loss, LossParts};
pub use model::{Architecture, NetConfig, PolicyValueNet};
pub use optim::{Adam, Optimizer, Sgd};
pub use schedule::LrSchedule;
