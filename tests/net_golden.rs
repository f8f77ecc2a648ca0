//! Golden bits of the policy-value networks: inference, training steps,
//! checkpoints and the accelerator's responses.
//!
//! Recorded as exact f32 bits, or as one FNV-1a digest per policy row:
//! * `predict_into` at b = 1 and b = 3, f32 and int8, for the served 9×9
//!   net (`NetConfig::for_board(4, 9, 9, 81)`, seed 2) and for
//!   `NetConfig::tiny(4, 3, 3, 9)`, seed 5;
//! * the residual tower `ResNetConfig::tiny(3, 4, 4, 16)`, seed 21, after
//!   ten training-mode forwards that update its running statistics:
//!   `predict_into` of the net and of its folded snapshot;
//! * five SGD steps of losses for each architecture;
//! * checkpoint byte digests for each architecture;
//! * one `accel::Device` response (`DeviceConfig::instant(2)`) for each
//!   architecture.
//!
//! The int8 rows are the same bits whichever int8 kernel the host
//! dispatches. Every other row goes through the f32 GEMM and was recorded
//! with its AVX2 + FMA micro-kernel; on a host without it only the int8
//! rows are compared. The test prints both dispatched kernels.
//!
//! On a mismatch the actual rendering is written to
//! `$CARGO_TARGET_TMPDIR/net_golden.actual.txt`; if the change in
//! behaviour is intended, copy that file over the golden one.

use adaptive_dnn_mcts::accel::{Device, DeviceConfig};
use adaptive_dnn_mcts::nn::resnet::{ResNetConfig, ResNetPolicyValueNet};
use adaptive_dnn_mcts::nn::serialize::save_params;
use adaptive_dnn_mcts::nn::{NetConfig, PolicyValueNet};
use adaptive_dnn_mcts::tensor::{Tensor, Workspace};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/net_golden.txt");
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(xs: &[f32]) -> u64 {
    xs.iter()
        .fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

/// Uniform values in [-1, 1) from a seeded xorshift stream.
fn input(dims: &[usize], seed: u64) -> Tensor {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let data = (0..dims.iter().product::<usize>())
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
        })
        .collect();
    Tensor::from_vec(data, dims)
}

/// Rows of a policy-value target batch: normalised |noise| policies and
/// fixed outcomes.
fn targets(b: usize, actions: usize, seed: u64) -> (Tensor, Tensor) {
    let mut pi = input(&[b, actions], seed);
    for row in pi.data_mut().chunks_mut(actions) {
        row.iter_mut().for_each(|p| *p = p.abs() + 0.01);
        let sum: f32 = row.iter().sum();
        row.iter_mut().for_each(|p| *p /= sum);
    }
    let r = (0..b).map(|i| [1.0, -1.0, 0.0][i % 3]).collect();
    (pi, Tensor::from_vec(r, &[b, 1]))
}

fn write_rows(out: &mut String, tag: &str, actions: usize, policy: &[f32], values: &[f32]) {
    assert_eq!(policy.len(), values.len() * actions, "{tag}");
    for (r, v) in values.iter().enumerate() {
        writeln!(
            out,
            "{tag} row={r} policy={:016x} value={:08x}",
            digest(&policy[r * actions..(r + 1) * actions]),
            v.to_bits()
        )
        .unwrap();
    }
}

/// `predict_into` of the f32 net and of its int8 snapshot at b = 1 and 3.
fn record_plain(out: &mut String, name: &str, cfg: NetConfig, seed: u64) {
    let net = PolicyValueNet::new(cfg, seed);
    let quant = net
        .quantized_for_inference()
        .expect("the plain net has an int8 form");
    let mut ws = Workspace::new();
    let (mut policy, mut values) = (Vec::new(), Vec::new());
    for b in [1usize, 3] {
        let x = input(&[b, cfg.in_c, cfg.h, cfg.w], 100 + b as u64);
        net.predict_into(&x, &mut ws, &mut policy, &mut values);
        write_rows(
            out,
            &format!("f32 {name} b={b}"),
            cfg.actions,
            &policy,
            &values,
        );
        quant.predict_into(&x, &mut ws, &mut policy, &mut values);
        write_rows(
            out,
            &format!("int8 {name} b={b}"),
            cfg.actions,
            &policy,
            &values,
        );
    }
}

/// The tower after ten training-mode forwards that move its running
/// statistics off their initial values.
fn trained_tower() -> ResNetPolicyValueNet {
    let cfg = ResNetConfig::tiny(3, 4, 4, 16);
    let mut net = ResNetPolicyValueNet::new(cfg, 21);
    let x = input(&[4, cfg.in_c, cfg.h, cfg.w], 33);
    for _ in 0..10 {
        let caches = net.forward_train(&x);
        net.update_running_stats(&caches);
    }
    net
}

fn record_tower(out: &mut String, tower: &ResNetPolicyValueNet) {
    let cfg = tower.config;
    let folded = tower.folded_for_inference();
    let mut ws = Workspace::new();
    let (mut policy, mut values) = (Vec::new(), Vec::new());
    for b in [1usize, 3] {
        let x = input(&[b, cfg.in_c, cfg.h, cfg.w], 200 + b as u64);
        tower.predict_into(&x, &mut ws, &mut policy, &mut values);
        write_rows(
            out,
            &format!("tower net b={b}"),
            cfg.actions,
            &policy,
            &values,
        );
        folded.predict_into(&x, &mut ws, &mut policy, &mut values);
        write_rows(
            out,
            &format!("tower folded b={b}"),
            cfg.actions,
            &policy,
            &values,
        );
    }
}

fn write_loss(out: &mut String, tag: &str, step: usize, parts: &adaptive_dnn_mcts::nn::LossParts) {
    writeln!(
        out,
        "sgd {tag} step={step} total={:08x} value={:08x} policy={:08x}",
        parts.total.to_bits(),
        parts.value.to_bits(),
        parts.policy.to_bits()
    )
    .unwrap();
}

const SGD_STEPS: usize = 5;
const LR: f32 = 0.05;

/// Five SGD steps of the paper net; returns the trained net.
fn sgd_plain(out: &mut String) -> PolicyValueNet {
    let cfg = NetConfig::tiny(4, 3, 3, 9);
    let mut net = PolicyValueNet::new(cfg, 5);
    let x = input(&[4, cfg.in_c, cfg.h, cfg.w], 300);
    let (pi, r) = targets(4, cfg.actions, 301);
    let mut grads = net.grad_buffers();
    for step in 0..SGD_STEPS {
        grads.zero();
        let caches = net.forward_train(&x);
        let parts = net.backward(&caches, &pi, &r, &mut grads);
        write_loss(out, "plain", step, &parts);
        for (p, g) in net.params_mut().into_iter().zip(grads.flat()) {
            p.axpy(-LR, g);
        }
    }
    net
}

/// Five SGD steps of the tower; returns the trained net.
fn sgd_tower(out: &mut String) -> ResNetPolicyValueNet {
    let cfg = ResNetConfig::tiny(3, 4, 4, 16);
    let mut net = ResNetPolicyValueNet::new(cfg, 21);
    let x = input(&[4, cfg.in_c, cfg.h, cfg.w], 400);
    let (pi, r) = targets(4, cfg.actions, 401);
    let mut grads = net.grad_buffers();
    for step in 0..SGD_STEPS {
        grads.zero();
        let caches = net.forward_train(&x);
        let parts = net.backward(&caches, &pi, &r, &mut grads);
        write_loss(out, "tower", step, &parts);
        for (p, g) in net.params_mut().into_iter().zip(grads.flat()) {
            p.axpy(-LR, g);
        }
    }
    net
}

fn write_checkpoint(out: &mut String, tag: &str, bytes: &[u8]) {
    writeln!(
        out,
        "ckpt {tag} len={} bytes={:016x}",
        bytes.len(),
        fnv1a(FNV_OFFSET, bytes)
    )
    .unwrap();
}

fn write_response(out: &mut String, tag: &str, device: &Device) {
    let x = input(&[device.input_len()], 500);
    let response = device.evaluate(x.into_vec());
    writeln!(
        out,
        "device {tag} policy={:016x} value={:08x}",
        digest(&response.priors),
        response.value.to_bits()
    )
    .unwrap();
}

/// The f32 GEMM micro-kernel `tensor::ops` dispatches on this host.
fn f32_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        return "avx2+fma";
    }
    "scalar"
}

#[test]
fn nets_reproduce_their_recorded_bits() {
    let f32_kernel = f32_kernel();
    println!(
        "f32 kernel: {f32_kernel}, int8 kernel: {}",
        adaptive_dnn_mcts::tensor::quant::kernel_name()
    );

    let mut actual = String::new();
    record_plain(&mut actual, "served", NetConfig::for_board(4, 9, 9, 81), 2);
    record_plain(&mut actual, "tiny", NetConfig::tiny(4, 3, 3, 9), 5);
    let tower = trained_tower();
    record_tower(&mut actual, &tower);

    let plain = sgd_plain(&mut actual);
    let sgd_tower = sgd_tower(&mut actual);

    let served = PolicyValueNet::new(NetConfig::for_board(4, 9, 9, 81), 2);
    write_checkpoint(&mut actual, "plain served", &save_params(&served));
    write_checkpoint(&mut actual, "plain sgd", &save_params(&plain));
    write_checkpoint(&mut actual, "tower trained", &save_params(&tower));
    write_checkpoint(&mut actual, "tower sgd", &save_params(&sgd_tower));

    let tiny = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 5));
    write_response(
        &mut actual,
        "plain",
        &Device::new(tiny, DeviceConfig::instant(2)),
    );
    let tower = Arc::new(tower);
    write_response(
        &mut actual,
        "tower",
        &Device::new(tower, DeviceConfig::instant(2)),
    );

    // Without the recorded f32 kernel only the int8 rows carry over.
    let compared = |text: &str| -> String {
        text.lines()
            .filter(|l| f32_kernel == "avx2+fma" || l.starts_with("int8 "))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    let (actual_cmp, golden_cmp) = (compared(&actual), compared(GOLDEN));
    if actual_cmp == golden_cmp {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("net_golden.actual.txt");
    std::fs::write(&path, &actual).expect("write actual rendering");
    let line = actual_cmp
        .lines()
        .zip(golden_cmp.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual_cmp.lines().count().min(golden_cmp.lines().count()));
    panic!(
        "network bits differ from tests/golden/net_golden.txt at compared line {}:\n  actual: {}\n  golden: {}\nfull actual rendering: {}",
        line + 1,
        actual_cmp.lines().nth(line).unwrap_or("<missing>"),
        golden_cmp.lines().nth(line).unwrap_or("<missing>"),
        path.display()
    );
}
