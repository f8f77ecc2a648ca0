//! Simulated DNN-inference accelerator ("GPU") for the adaptive-parallel
//! DNN-MCTS reproduction.
//!
//! The paper offloads batched node evaluations to an NVIDIA A6000 over
//! PCIe 4.0 (§3.3). This environment has no GPU, so this crate implements a
//! behavioural substitute that preserves the two properties the paper's
//! design exploration depends on:
//!
//! 1. **Batching amortizes a fixed per-submission cost.** Every batch
//!    submission pays a modeled kernel-launch latency plus a PCIe transfer
//!    latency `bytes / bandwidth`, then the batch is computed at a modeled
//!    per-sample compute rate that improves with batch size (up to a
//!    saturation point), exactly the monotone pieces of the paper's Eq. 6.
//! 2. **Requests are decoupled from completion.** Clients submit
//!    evaluation requests into a queue ([`Device::submit`]) and block on a
//!    completion handle, so a master thread (local-tree scheme) can keep
//!    producing in-tree work while inference is "on the device", and
//!    worker threads (shared-tree scheme) naturally form full batches.
//!
//! The *numerical* results are exact: each device stream runs the real
//! [`nn::PolicyValueNet`] — of either architecture — on the submitted
//! inputs through the same `predict_into` the CPU evaluator serves, on a
//! workspace of its own; only the *timing* is simulated (optionally — zero
//! latency parameters make it a plain batched CPU evaluator).

pub mod device;
pub mod latency;

pub use device::{
    Device, DeviceClient, DeviceConfig, DeviceStats, EvalRequest, EvalResponse, ReplyTo,
    TaggedResponse,
};
pub use latency::LatencyModel;
