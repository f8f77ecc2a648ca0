//! Int8 inference snapshot of a policy-value net.
//!
//! [`QuantPolicyValueNet`] is the quantized sibling of the folded f32
//! snapshot ([`crate::model::PolicyValueNet::folded_for_inference`]): built
//! once at snapshot time from the *folded* stacks (so batch-norm scales are
//! already inside the conv weights), it holds every conv/linear weight in
//! the pre-packed per-output-channel int8 form of
//! [`tensor::quant::QuantizedWeights`] and runs every layer through one
//! call — [`tensor::quant::qconv2d`] or [`tensor::quant::qlinear`] — that
//! quantizes each sample of its input once, multiplies in int8 and writes
//! the layer's `[B, ..]` output directly, dequant/bias/ReLU fused in the
//! epilogue. Activations stay f32 between layers and are quantized
//! dynamically with one scale **per sample**, so there is no calibration
//! step, no accumulated inter-layer quantization state, and row `r` of a
//! batched forward equals the forward of sample `r` alone, bit for bit.
//!
//! The policy and value heads each open with a 1×1 conv on the trunk
//! output; the snapshot stacks the two into one conv, so the trunk output
//! is quantized and gathered once, and splits its output per sample into
//! the two heads' linear inputs. Quantization is per row and per sample,
//! so the merged conv's outputs are the two separate convs', bit for bit.
//!
//! The accuracy contract (pinned by the parity tests): per-layer weight
//! round-off is bounded by half the per-channel scale, activation round-off
//! by half the per-sample scale; through the 5-conv/3-linear nets this yields
//! policy distributions whose argmax agrees with f32 on ≥ 99% of positions
//! and values within a few 1e-2 MAE. Anything needing exact f32 (training,
//! reference checks) keeps using the float paths.
//!
//! Only the inference-relevant layer kinds are supported (conv, linear,
//! fused ReLU, flatten, tanh, identity batch norms), and each head must
//! open with a 1×1 conv, its ReLU and a flatten. Snapshotting a net with
//! residual blocks, unfolded norms or other heads returns `None` and
//! callers fall back to the f32 snapshot.

use crate::layer::{Conv2d, LayerKind};
use crate::model::write_predictions;
use tensor::conv::Conv2dSpec;
use tensor::quant::{qconv2d, qlinear, QuantizedWeights};
use tensor::{Tensor, Workspace};

/// One quantized inference layer. ReLU is always fused into the preceding
/// GEMM's epilogue, so it never appears standalone.
#[derive(Debug, Clone)]
enum QLayer {
    Conv {
        qw: QuantizedWeights,
        bias: Vec<f32>,
        in_c: usize,
        out_c: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad: usize,
        relu: bool,
    },
    Linear {
        qw: QuantizedWeights,
        bias: Vec<f32>,
        in_dim: usize,
        out_dim: usize,
        relu: bool,
    },
    Flatten,
    Tanh,
}

/// Quantize one folded layer stack. Returns `None` on any layer kind the
/// int8 path does not support.
fn quantize_stack(layers: &[LayerKind]) -> Option<Vec<QLayer>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < layers.len() {
        let fuse_relu = matches!(layers.get(i + 1), Some(LayerKind::ReLU));
        match &layers[i] {
            LayerKind::Conv2d(c) => {
                out.push(QLayer::Conv {
                    qw: QuantizedWeights::quantize_conv(
                        c.weight.data(),
                        c.out_c,
                        c.in_c,
                        c.kh,
                        c.kw,
                    ),
                    bias: c.bias.data().to_vec(),
                    in_c: c.in_c,
                    out_c: c.out_c,
                    kh: c.kh,
                    kw: c.kw,
                    stride: c.stride,
                    pad: c.pad,
                    relu: fuse_relu,
                });
                i += if fuse_relu { 2 } else { 1 };
            }
            LayerKind::Linear(l) => {
                out.push(QLayer::Linear {
                    qw: QuantizedWeights::quantize(l.weight.data(), l.out_dim, l.in_dim),
                    bias: l.bias.data().to_vec(),
                    in_dim: l.in_dim,
                    out_dim: l.out_dim,
                    relu: fuse_relu,
                });
                i += if fuse_relu { 2 } else { 1 };
            }
            LayerKind::Flatten => {
                out.push(QLayer::Flatten);
                i += 1;
            }
            LayerKind::Tanh => {
                out.push(QLayer::Tanh);
                i += 1;
            }
            // Folded-away norms are exact identities; skip them.
            LayerKind::BatchNorm2d(bn) if bn.is_identity() => {
                i += 1;
            }
            // A ReLU not consumed by a preceding GEMM, an unfolded norm,
            // or a residual block: not representable on the int8 path.
            _ => return None,
        }
    }
    Some(out)
}

/// A policy-value net snapshotted to int8 weights, running forwards on the
/// quantized GEMM. Frozen (inference only) and thread-safe, like the
/// folded f32 snapshot it is built from.
#[derive(Debug, Clone)]
pub struct QuantPolicyValueNet {
    actions: usize,
    trunk: Vec<QLayer>,
    /// Both heads' 1×1 convs (each with its fused ReLU) as one conv: the
    /// policy head's `policy_c` rows, then the value head's. Both read the
    /// trunk output, so it is quantized and gathered once, and every row
    /// keeps its own weights, scale and bias.
    heads: QLayer,
    policy_c: usize,
    /// The policy head after its conv, ReLU and flatten.
    policy_head: Vec<QLayer>,
    /// The value head after its conv, ReLU and flatten.
    value_head: Vec<QLayer>,
}

/// Split a head stack into its opening 1×1 conv and the layers after the
/// conv's ReLU and the flatten that follows it; `None` if it does not open
/// that way.
fn head_conv(head: &[LayerKind]) -> Option<(&Conv2d, &[LayerKind])> {
    match head {
        [LayerKind::Conv2d(c), LayerKind::ReLU, LayerKind::Flatten, rest @ ..]
            if (c.kh, c.kw, c.stride, c.pad) == (1, 1, 1, 0) =>
        {
            Some((c, rest))
        }
        _ => None,
    }
}

impl QuantPolicyValueNet {
    /// Build from already-folded stacks of a net with `actions` policy
    /// outputs. `None` if any stack contains a layer kind the int8 path
    /// cannot represent, or if a head does not open with a 1×1 conv, its
    /// ReLU and a flatten.
    pub(crate) fn from_folded_stacks(
        actions: usize,
        trunk: &[LayerKind],
        policy_head: &[LayerKind],
        value_head: &[LayerKind],
    ) -> Option<Self> {
        let (pc, policy_rest) = head_conv(policy_head)?;
        let (vc, value_rest) = head_conv(value_head)?;
        if pc.in_c != vc.in_c {
            return None;
        }
        let weights = [pc.weight.data(), vc.weight.data()].concat();
        let out_c = pc.out_c + vc.out_c;
        let heads = QLayer::Conv {
            qw: QuantizedWeights::quantize_conv(&weights, out_c, pc.in_c, 1, 1),
            bias: [pc.bias.data(), vc.bias.data()].concat(),
            in_c: pc.in_c,
            out_c,
            kh: 1,
            kw: 1,
            stride: 1,
            pad: 0,
            relu: true,
        };
        Some(QuantPolicyValueNet {
            actions,
            trunk: quantize_stack(trunk)?,
            heads,
            policy_c: pc.out_c,
            policy_head: quantize_stack(policy_rest)?,
            value_head: quantize_stack(value_rest)?,
        })
    }

    /// Total bytes held in packed int8 weight panels (footprint reporting;
    /// roughly a quarter of the f32 weight bytes).
    pub fn packed_weight_bytes(&self) -> usize {
        [&self.trunk, &self.policy_head, &self.value_head]
            .into_iter()
            .flat_map(|s| s.iter())
            .chain([&self.heads])
            .map(|l| match l {
                QLayer::Conv { qw, .. } | QLayer::Linear { qw, .. } => qw.packed_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Batched prediction with the same contract as
    /// [`crate::model::PolicyValueNet::predict_into`]: softmaxed policies
    /// (`[b·A]`, row-major) into `policy`, tanh values (`[b]`) into
    /// `values`, all scratch from `ws`.
    pub fn predict_into(
        &self,
        x: &Tensor,
        ws: &mut Workspace,
        policy: &mut Vec<f32>,
        values: &mut Vec<f32>,
    ) {
        let feat = forward_stack_q(&self.trunk, x, ws);
        let heads = forward_stack_q(std::slice::from_ref(&self.heads), &feat, ws);
        ws.release(feat.into_vec());
        // `[b, policy_c + value_c, h, w]` → the flat `[b, policy_c·h·w]`
        // and `[b, value_c·h·w]` inputs of the heads' linears.
        let b = heads.dims()[0];
        let per_sample = heads.numel() / b;
        let policy_len = self.policy_c * heads.dims()[2] * heads.dims()[3];
        let value_len = per_sample - policy_len;
        let mut policy_in = Tensor::from_vec(ws.lease(b * policy_len), &[b, policy_len]);
        let mut value_in = Tensor::from_vec(ws.lease(b * value_len), &[b, value_len]);
        for ((s, p), v) in heads
            .data()
            .chunks_exact(per_sample)
            .zip(policy_in.data_mut().chunks_exact_mut(policy_len))
            .zip(value_in.data_mut().chunks_exact_mut(value_len))
        {
            p.copy_from_slice(&s[..policy_len]);
            v.copy_from_slice(&s[policy_len..]);
        }
        ws.release(heads.into_vec());
        let logits = forward_stack_q(&self.policy_head, &policy_in, ws);
        let vals = forward_stack_q(&self.value_head, &value_in, ws);
        ws.release(policy_in.into_vec());
        ws.release(value_in.into_vec());
        write_predictions(logits, vals, self.actions, ws, policy, values);
    }
}

/// Quantized mirror of [`crate::layer::forward_stack_ws`]: intermediate
/// activations leased from `ws`, ReLUs already fused into the GEMM layers.
/// One call per conv or linear layer whatever the batch: the layer's
/// quantized input lives in `ws` and its output is written in place.
fn forward_stack_q(layers: &[QLayer], x: &Tensor, ws: &mut Workspace) -> Tensor {
    let mut cur: Option<Tensor> = None;
    let release_into = |cur: &mut Option<Tensor>, ws: &mut Workspace, out: Tensor| {
        if let Some(old) = cur.take() {
            ws.release(old.into_vec());
        }
        *cur = Some(out);
    };
    for layer in layers {
        match layer {
            QLayer::Conv {
                qw,
                bias,
                in_c,
                out_c,
                kh,
                kw,
                stride,
                pad,
                relu,
            } => {
                let input = cur.as_ref().unwrap_or(x);
                let (b, _, h, w) = {
                    let d = input.dims();
                    (d[0], d[1], d[2], d[3])
                };
                let spec = Conv2dSpec {
                    in_c: *in_c,
                    out_c: *out_c,
                    in_h: h,
                    in_w: w,
                    kh: *kh,
                    kw: *kw,
                    stride: *stride,
                    pad: *pad,
                };
                spec.validate();
                let dims = [b, *out_c, spec.out_h(), spec.out_w()];
                let buf = ws.lease(dims.iter().product());
                let mut out = Tensor::from_vec(buf, &dims);
                qconv2d(
                    qw,
                    &spec,
                    input.data(),
                    out.data_mut(),
                    Some(bias),
                    *relu,
                    ws,
                );
                release_into(&mut cur, ws, out);
            }
            QLayer::Linear {
                qw,
                bias,
                in_dim,
                out_dim,
                relu,
            } => {
                let input = cur.as_ref().unwrap_or(x);
                let b = input.dims()[0];
                assert_eq!(input.dims(), &[b, *in_dim], "linear input shape");
                let buf = ws.lease(b * out_dim);
                let mut out = Tensor::from_vec(buf, &[b, *out_dim]);
                qlinear(qw, input.data(), out.data_mut(), Some(bias), *relu, ws);
                release_into(&mut cur, ws, out);
            }
            QLayer::Flatten => {
                let cur = cur.get_or_insert_with(|| {
                    let mut buf = ws.lease(x.numel());
                    buf.copy_from_slice(x.data());
                    Tensor::from_vec(buf, x.dims())
                });
                let b = cur.dims()[0];
                let rest: usize = cur.dims()[1..].iter().product();
                let reshaped = std::mem::replace(cur, Tensor::zeros(&[0]));
                *cur = reshaped.reshape(&[b, rest]);
            }
            QLayer::Tanh => {
                let cur = cur.get_or_insert_with(|| {
                    let mut buf = ws.lease(x.numel());
                    buf.copy_from_slice(x.data());
                    Tensor::from_vec(buf, x.dims())
                });
                cur.map_inplace(f32::tanh);
            }
        }
    }
    cur.unwrap_or_else(|| {
        let mut buf = ws.lease(x.numel());
        buf.copy_from_slice(x.data());
        Tensor::from_vec(buf, x.dims())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Linear;
    use crate::model::{Architecture, NetConfig, PolicyValueNet};
    use rand::SeedableRng;

    fn rand_input(cfg: &NetConfig, b: usize, seed: u64) -> Tensor {
        let len = b * cfg.in_c * cfg.h * cfg.w;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let data: Vec<f32> = (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0
            })
            .collect();
        Tensor::from_vec(data, &[b, cfg.in_c, cfg.h, cfg.w])
    }

    #[test]
    fn standard_net_quantizes() {
        let net = PolicyValueNet::new(NetConfig::tiny(3, 6, 6, 36), 1);
        assert!(net.quantized_for_inference().is_some());
    }

    #[test]
    fn quantized_predictions_track_f32() {
        let cfg = NetConfig::tiny(3, 6, 6, 36);
        let net = PolicyValueNet::new(cfg, 42);
        let qnet = net
            .quantized_for_inference()
            .expect("standard net quantizes");
        let mut ws = Workspace::new();
        let (mut fp, mut fv, mut qp, mut qv) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let a = cfg.actions;
        let mut agree = 0usize;
        let mut top3 = 0usize;
        let mut total = 0usize;
        let mut value_err = 0f32;
        for seed in 0..20u64 {
            for &b in &[1usize, 3] {
                let x = rand_input(&cfg, b, 1000 + seed);
                net.predict_into(&x, &mut ws, &mut fp, &mut fv);
                qnet.predict_into(&x, &mut ws, &mut qp, &mut qv);
                for r in 0..b {
                    let frow = &fp[r * a..(r + 1) * a];
                    let qrow = &qp[r * a..(r + 1) * a];
                    let fmax = argmax(frow);
                    let qmax = argmax(qrow);
                    total += 1;
                    if fmax == qmax {
                        agree += 1;
                    }
                    if top_k(frow, 3).contains(&qmax) {
                        top3 += 1;
                    }
                    value_err += (fv[r] - qv[r]).abs();
                }
            }
        }
        let agreement = agree as f32 / total as f32;
        let top3_rate = top3 as f32 / total as f32;
        let mae = value_err / total as f32;
        // Random untrained nets produce near-tied logits, so raw argmax is
        // fragile here: require 95% exact agreement plus 99% top-3
        // containment. The ≥ 99% exact-argmax contract is pinned on the
        // fixed game-position suite in the mcts crate's parity tests.
        assert!(agreement >= 0.95, "policy argmax agreement {agreement}");
        assert!(top3_rate >= 0.99, "policy top-3 containment {top3_rate}");
        assert!(mae <= 0.05, "value MAE {mae}");
    }

    #[test]
    fn batch_one_and_batched_forwards_agree() {
        let cfg = NetConfig::tiny(3, 6, 6, 36);
        let net = PolicyValueNet::new(cfg, 7);
        let qnet = net.quantized_for_inference().unwrap();
        let mut x3 = rand_input(&cfg, 3, 77);
        let img = cfg.in_c * cfg.h * cfg.w;
        // Samples of very different magnitude: a scale shared across the
        // batch would cost the small ones most of their resolution.
        for (r, sample) in x3.data_mut().chunks_mut(img).enumerate() {
            sample.iter_mut().for_each(|v| *v *= [1.0, 0.01, 30.0][r]);
        }
        let mut ws = Workspace::new();
        let (mut p3, mut v3, mut p1, mut v1) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        qnet.predict_into(&x3, &mut ws, &mut p3, &mut v3);
        let a = cfg.actions;
        for r in 0..3 {
            let x1 = Tensor::from_vec(
                x3.data()[r * img..(r + 1) * img].to_vec(),
                &[1, cfg.in_c, cfg.h, cfg.w],
            );
            qnet.predict_into(&x1, &mut ws, &mut p1, &mut v1);
            // Every layer quantizes each sample with that sample's own
            // scale, so a row of a batch is the forward of its sample alone.
            assert_eq!(p1, &p3[r * a..(r + 1) * a], "row {r}");
            assert_eq!(v1[0], v3[r], "row {r}");
        }
    }

    #[test]
    fn merged_head_conv_equals_the_two_head_convs_bitwise() {
        // Fresh layers have zero biases: give every head bias a value, so
        // a row that met the other head's bias, weights or scale would
        // show.
        let cfg = NetConfig::for_board(4, 9, 9, 81);
        let [trunk, mut policy, mut value] = cfg.build(&mut rand::rngs::StdRng::seed_from_u64(3));
        for (i, layer) in policy.iter_mut().chain(value.iter_mut()).enumerate() {
            if let LayerKind::Conv2d(Conv2d { bias, .. }) | LayerKind::Linear(Linear { bias, .. }) =
                layer
            {
                let noise = rand_input(&NetConfig::tiny(1, 1, bias.numel(), 1), 1, 50 + i as u64);
                bias.data_mut().copy_from_slice(noise.data());
            }
        }
        let merged =
            QuantPolicyValueNet::from_folded_stacks(cfg.actions, &trunk, &policy, &value).unwrap();
        // The oracle: each head as a stack of its own, its conv included.
        let (policy, value) = (
            quantize_stack(&policy).unwrap(),
            quantize_stack(&value).unwrap(),
        );
        let mut ws = Workspace::new();
        let x = rand_input(&cfg, 3, 11);
        let (mut got_p, mut got_v, mut want_p, mut want_v) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        merged.predict_into(&x, &mut ws, &mut got_p, &mut got_v);
        let feat = forward_stack_q(&merged.trunk, &x, &mut ws);
        let logits = forward_stack_q(&policy, &feat, &mut ws);
        let vals = forward_stack_q(&value, &feat, &mut ws);
        write_predictions(logits, vals, cfg.actions, &mut ws, &mut want_p, &mut want_v);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got_p), bits(&want_p), "policy");
        assert_eq!(bits(&got_v), bits(&want_v), "value");
    }

    fn argmax(v: &[f32]) -> usize {
        v.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap()
    }

    fn top_k(v: &[f32], k: usize) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..v.len()).collect();
        idx.sort_by(|&a, &b| v[b].partial_cmp(&v[a]).unwrap());
        idx.truncate(k);
        idx
    }
}
