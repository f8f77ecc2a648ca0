//! Binary checkpoint format for network parameters.
//!
//! A tiny self-describing little-endian format (magic, version, tensor
//! count, then `rank, dims…, f32 data…` per tensor) built on the `bytes`
//! crate. Only tensor *values* are stored: a net's parameters followed by
//! its running statistics (none for the paper's net). The architecture
//! comes from the net's config, so loading checks that shapes line up —
//! all of them, before anything is written.

use crate::model::{Architecture, PolicyValueNet};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use tensor::Tensor;

const MAGIC: u32 = 0x4D43_5453; // "MCTS"
const VERSION: u32 = 1;

/// Errors produced while decoding a checkpoint.
#[derive(Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Buffer too short or corrupt.
    Truncated,
    /// Magic number mismatch: not a checkpoint.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// Tensor count or a tensor shape differs from the target network.
    ShapeMismatch { index: usize },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "bad magic number"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CheckpointError::ShapeMismatch { index } => {
                write!(f, "tensor {index} shape mismatch")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Serialize an arbitrary tensor list in checkpoint order. This is the
/// model-agnostic core: a model checkpoint is just its parameter tensors
/// (plus any running statistics) flattened into a deterministic order.
pub fn save_tensor_list(tensors: &[&Tensor]) -> Bytes {
    let payload: usize = tensors
        .iter()
        .map(|p| 4 + 8 * p.dims().len() + 4 * p.numel())
        .sum();
    let mut buf = BytesMut::with_capacity(16 + payload);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(tensors.len() as u32);
    for p in tensors {
        buf.put_u32_le(p.dims().len() as u32);
        for &d in p.dims() {
            buf.put_u64_le(d as u64);
        }
        for &v in p.data() {
            buf.put_f32_le(v);
        }
    }
    buf.freeze()
}

/// Check a checkpoint against the expected tensor shapes without writing
/// anything: header, count, every rank and shape, and every payload
/// length. Returns each tensor's f32 payload bytes, in order.
fn validate<'a>(mut data: &'a [u8], shapes: &[&[usize]]) -> Result<Vec<&'a [u8]>, CheckpointError> {
    if data.remaining() < 12 {
        return Err(CheckpointError::Truncated);
    }
    if data.get_u32_le() != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = data.get_u32_le();
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    if data.get_u32_le() as usize != shapes.len() {
        return Err(CheckpointError::ShapeMismatch { index: 0 });
    }
    let mut payloads = Vec::with_capacity(shapes.len());
    for (index, dims) in shapes.iter().enumerate() {
        if data.remaining() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let rank = data.get_u32_le() as usize;
        if data.remaining() / 8 < rank {
            return Err(CheckpointError::Truncated);
        }
        let mut stored = (0..rank).map(|_| data.get_u64_le());
        if rank != dims.len() || !dims.iter().all(|&d| stored.next() == Some(d as u64)) {
            return Err(CheckpointError::ShapeMismatch { index });
        }
        let len = 4 * dims.iter().product::<usize>();
        if data.remaining() < len {
            return Err(CheckpointError::Truncated);
        }
        let (payload, rest) = data.split_at(len);
        payloads.push(payload);
        data = rest;
    }
    Ok(payloads)
}

/// Write validated payloads into their tensors.
fn fill<'t>(tensors: impl IntoIterator<Item = &'t mut Tensor>, payloads: &[&[u8]]) {
    for (t, &(mut payload)) in tensors.into_iter().zip(payloads) {
        for v in t.data_mut() {
            *v = payload.get_f32_le();
        }
    }
}

/// Load a tensor list saved by [`save_tensor_list`] into pre-shaped
/// destination tensors (count and every shape must match). On error no
/// tensor has been written.
pub fn load_tensor_list(tensors: &mut [&mut Tensor], data: &[u8]) -> Result<(), CheckpointError> {
    let shapes: Vec<&[usize]> = tensors.iter().map(|t| t.dims()).collect();
    let payloads = validate(data, &shapes)?;
    fill(tensors.iter_mut().map(|t| &mut **t), &payloads);
    Ok(())
}

/// Serialize a network: its parameters, then its running statistics.
pub fn save_params<A: Architecture>(net: &PolicyValueNet<A>) -> Bytes {
    let mut tensors = net.params();
    tensors.extend(net.state_tensors());
    save_tensor_list(&tensors)
}

/// Load a checkpoint saved by [`save_params`] into a network of the same
/// architecture. The whole buffer is checked first, so on error the net
/// is untouched.
pub fn load_params<A: Architecture>(
    net: &mut PolicyValueNet<A>,
    data: &[u8],
) -> Result<(), CheckpointError> {
    let (params, states) = (net.params(), net.state_tensors());
    let shapes: Vec<&[usize]> = params.iter().chain(&states).map(|t| t.dims()).collect();
    let payloads = validate(data, &shapes)?;
    let (param_bytes, state_bytes) = payloads.split_at(params.len());
    fill(net.params_mut(), param_bytes);
    fill(net.state_tensors_mut(), state_bytes);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetConfig;
    use crate::resnet::{ResNetConfig, ResNetPolicyValueNet};
    use tensor::{Tensor, Workspace};

    fn tiny() -> PolicyValueNet {
        PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 5)
    }

    /// A tower whose running statistics are off their initial values, so
    /// a checkpoint that forgot them would show.
    fn trained_tower(seed: u64) -> ResNetPolicyValueNet {
        let mut net = ResNetPolicyValueNet::new(ResNetConfig::tiny(3, 4, 4, 16), seed);
        let caches = net.forward_train(&Tensor::ones(&[2, 3, 4, 4]));
        net.update_running_stats(&caches);
        net
    }

    fn predict<A: Architecture>(net: &PolicyValueNet<A>, x: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let (mut policy, mut values) = (Vec::new(), Vec::new());
        net.predict_into(x, &mut Workspace::new(), &mut policy, &mut values);
        (policy, values)
    }

    /// Every parameter and state tensor, as bits.
    fn bits<A: Architecture>(net: &PolicyValueNet<A>) -> Vec<Vec<u32>> {
        let (params, states) = (net.params(), net.state_tensors());
        params
            .iter()
            .chain(&states)
            .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn roundtrip_preserves_outputs() {
        let src = tiny();
        let bytes = save_params(&src);
        let mut dst = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 999);
        load_params(&mut dst, &bytes).unwrap();
        let x = Tensor::ones(&[1, 4, 3, 3]);
        assert_eq!(predict(&src, &x), predict(&dst, &x));
    }

    #[test]
    fn rejects_garbage() {
        let mut net = tiny();
        assert_eq!(
            load_params(&mut net, b"nope"),
            Err(CheckpointError::Truncated)
        );
        let mut bad = vec![0u8; 64];
        bad[0] = 0xFF;
        assert_eq!(load_params(&mut net, &bad), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn rejects_wrong_architecture() {
        let src = tiny();
        let bytes = save_params(&src);
        let mut other = PolicyValueNet::new(NetConfig::tiny(4, 4, 4, 16), 5);
        assert!(matches!(
            load_params(&mut other, &bytes),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn tower_roundtrip_preserves_outputs_and_running_stats() {
        let src = trained_tower(1);
        let bytes = save_params(&src);
        let mut dst = ResNetPolicyValueNet::new(ResNetConfig::tiny(3, 4, 4, 16), 999);
        load_params(&mut dst, &bytes).unwrap();
        assert_eq!(bits(&src), bits(&dst));
        let x = Tensor::ones(&[2, 3, 4, 4]);
        assert_eq!(predict(&src, &x), predict(&dst, &x));
    }

    #[test]
    fn tower_rejects_plain_param_checkpoint() {
        let src = ResNetPolicyValueNet::new(ResNetConfig::tiny(3, 4, 4, 16), 1);
        // A tensor list missing the running stats must be rejected.
        let bytes = save_tensor_list(&src.params());
        let mut dst = ResNetPolicyValueNet::new(ResNetConfig::tiny(3, 4, 4, 16), 2);
        assert!(matches!(
            load_params(&mut dst, &bytes),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    /// Byte offsets at which each tensor's record starts, and the end.
    fn tensor_boundaries<A: Architecture>(net: &PolicyValueNet<A>) -> Vec<usize> {
        let (params, states) = (net.params(), net.state_tensors());
        let mut at = 12;
        let mut out = vec![at];
        for t in params.iter().chain(&states) {
            at += 4 + 8 * t.dims().len() + 4 * t.numel();
            out.push(at);
        }
        out
    }

    /// Loads of `src`'s checkpoint cut at and around every tensor
    /// boundary all fail as truncated, one with a wrong dim in the last
    /// tensor fails as a shape mismatch, and each leaves `dst` bit for
    /// bit as it was.
    fn failed_loads_leave_net_untouched<A: Architecture>(
        src: &PolicyValueNet<A>,
        mut dst: PolicyValueNet<A>,
    ) {
        let bytes = save_params(src);
        let before = bits(&dst);
        let boundaries = tensor_boundaries(src);
        assert_eq!(*boundaries.last().unwrap(), bytes.len());
        let cuts = boundaries
            .iter()
            .flat_map(|&b| [b - 1, b, b + 1])
            .filter(|&c| c < bytes.len());
        for cut in cuts {
            assert_eq!(
                load_params(&mut dst, &bytes[..cut]),
                Err(CheckpointError::Truncated),
                "cut at {cut}"
            );
            assert!(bits(&dst) == before, "cut at {cut} wrote into the net");
        }
        // The first dim of the last tensor, off by one.
        let mut wrong = bytes.to_vec();
        let last = boundaries[boundaries.len() - 2] + 4;
        wrong[last] ^= 1;
        let index = boundaries.len() - 2;
        assert_eq!(
            load_params(&mut dst, &wrong),
            Err(CheckpointError::ShapeMismatch { index })
        );
        assert!(bits(&dst) == before, "a wrong last dim wrote into the net");
    }

    #[test]
    fn failed_plain_loads_leave_the_net_untouched() {
        failed_loads_leave_net_untouched(
            &PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 6),
            tiny(),
        );
    }

    #[test]
    fn failed_tower_loads_leave_the_net_untouched() {
        failed_loads_leave_net_untouched(&trained_tower(1), trained_tower(2));
    }

    #[test]
    fn tensor_list_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let b = Tensor::from_vec(vec![4.0, 5.0, 6.0, 7.0], &[2, 2]);
        let bytes = save_tensor_list(&[&a, &b]);
        let mut a2 = Tensor::zeros(&[3]);
        let mut b2 = Tensor::zeros(&[2, 2]);
        load_tensor_list(&mut [&mut a2, &mut b2], &bytes).unwrap();
        assert_eq!(a.data(), a2.data());
        assert_eq!(b.data(), b2.data());
        // Cut inside `b`: `a` is not written either.
        let mut a3 = Tensor::zeros(&[3]);
        let cut = &bytes[..bytes.len() - 1];
        assert!(load_tensor_list(&mut [&mut a3, &mut b2], cut).is_err());
        assert_eq!(a3.data(), &[0.0; 3]);
    }

    #[test]
    fn rejects_future_version() {
        let src = tiny();
        let mut raw = save_params(&src).to_vec();
        raw[4] = 99; // bump version field
        let mut dst = tiny();
        assert_eq!(
            load_params(&mut dst, &raw),
            Err(CheckpointError::BadVersion(99))
        );
    }
}
