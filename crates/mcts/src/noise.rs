//! Dirichlet root-exploration noise (the AlphaZero self-play mechanism).
//!
//! During self-play data collection, AlphaZero mixes Dirichlet noise into
//! the root priors — `P'(s,a) = (1−ε)·P(s,a) + ε·η_a`, `η ~ Dir(α)` — so
//! training games explore beyond the current policy. The paper's
//! benchmark (AlphaZero on Gomoku) inherits this; we implement it so the
//! training pipeline is faithful, with a from-scratch gamma sampler
//! (Marsaglia–Tsang) since no distribution crate is available offline.

use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide nonce so each move's root expansion draws fresh noise
/// even though search trees are rebuilt from the same config.
static NOISE_NONCE: AtomicU64 = AtomicU64::new(0);

/// Next per-tree noise nonce.
pub(crate) fn next_nonce() -> u64 {
    NOISE_NONCE.fetch_add(1, Ordering::Relaxed)
}

/// Root-noise hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootNoise {
    /// Dirichlet concentration α (AlphaZero used 0.03 for Go, ~0.3 for
    /// chess-scale action spaces; Gomoku implementations commonly use 0.3).
    pub alpha: f32,
    /// Mixing weight ε of the noise against the network prior.
    pub epsilon: f32,
    /// Seed for the per-move noise draw (deterministic searches).
    pub seed: u64,
}

impl RootNoise {
    /// The common AlphaZero-Gomoku setting.
    pub fn alphazero(seed: u64) -> Self {
        RootNoise {
            alpha: 0.3,
            epsilon: 0.25,
            seed,
        }
    }
}

/// Sample `Gamma(shape, 1)` via Marsaglia–Tsang (2000). For `shape < 1`
/// uses the boosting identity `Gamma(a) = Gamma(a+1) · U^{1/a}`.
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f32) -> f32 {
    assert!(shape > 0.0, "gamma shape must be positive");
    if shape < 1.0 {
        let boost = sample_gamma(rng, shape + 1.0);
        let u: f32 = rng.gen_range(f32::EPSILON..1.0);
        return boost * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // One standard normal via Box-Muller.
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f32 = rng.gen_range(f32::EPSILON..1.0);
        if u.ln() < 0.5 * x * x + d - d * v3 + d * v3.ln() {
            return d * v3;
        }
    }
}

/// Draw a `Dir(alpha, …, alpha)` sample of dimension `k`.
pub fn sample_dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: f32, k: usize) -> Vec<f32> {
    assert!(k > 0, "empty dirichlet");
    let mut draws: Vec<f32> = (0..k).map(|_| sample_gamma(rng, alpha)).collect();
    let sum: f32 = draws.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        // Degenerate draw (can happen for tiny alpha in f32): uniform.
        return vec![1.0 / k as f32; k];
    }
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

/// Mix Dirichlet noise into `priors` in place:
/// `p ← (1−ε)·p + ε·η`. `priors` must already be normalized.
pub fn mix_noise<R: Rng + ?Sized>(rng: &mut R, noise: &RootNoise, priors: &mut [f32]) {
    if priors.is_empty() || noise.epsilon <= 0.0 {
        return;
    }
    let eta = sample_dirichlet(rng, noise.alpha, priors.len());
    for (p, n) in priors.iter_mut().zip(eta) {
        *p = (1.0 - noise.epsilon) * *p + noise.epsilon * n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gamma_mean_matches_shape() {
        // E[Gamma(a,1)] = a.
        let mut r = rng(1);
        for shape in [0.3f32, 1.0, 2.5, 7.0] {
            let n = 20_000;
            let mean: f32 = (0..n).map(|_| sample_gamma(&mut r, shape)).sum::<f32>() / n as f32;
            assert!(
                (mean - shape).abs() < 0.15 * shape.max(1.0),
                "shape {shape}: mean {mean}"
            );
        }
    }

    #[test]
    fn gamma_is_positive() {
        let mut r = rng(2);
        for _ in 0..2_000 {
            assert!(sample_gamma(&mut r, 0.3) > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gamma_rejects_zero_shape() {
        let _ = sample_gamma(&mut rng(3), 0.0);
    }

    #[test]
    fn dirichlet_is_a_distribution() {
        let mut r = rng(4);
        for k in [1usize, 2, 9, 225] {
            let d = sample_dirichlet(&mut r, 0.3, k);
            assert_eq!(d.len(), k);
            assert!((d.iter().sum::<f32>() - 1.0).abs() < 1e-4);
            assert!(d.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn small_alpha_concentrates_mass() {
        // Dir(0.03) samples are spiky; Dir(100) samples are near-uniform.
        let mut r = rng(5);
        let spiky = sample_dirichlet(&mut r, 0.03, 20);
        let flat = sample_dirichlet(&mut r, 100.0, 20);
        let max_spiky = spiky.iter().cloned().fold(0.0f32, f32::max);
        let max_flat = flat.iter().cloned().fold(0.0f32, f32::max);
        assert!(max_spiky > max_flat, "{max_spiky} vs {max_flat}");
        assert!(max_flat < 0.15);
    }

    #[test]
    fn mix_preserves_normalization() {
        let mut r = rng(6);
        let noise = RootNoise::alphazero(0);
        let mut p = vec![0.5f32, 0.25, 0.25];
        mix_noise(&mut r, &noise, &mut p);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn epsilon_zero_is_identity() {
        let mut r = rng(7);
        let noise = RootNoise {
            alpha: 0.3,
            epsilon: 0.0,
            seed: 0,
        };
        let mut p = vec![0.7f32, 0.3];
        mix_noise(&mut r, &noise, &mut p);
        assert_eq!(p, vec![0.7, 0.3]);
    }

    #[test]
    fn noise_actually_perturbs() {
        let mut r = rng(8);
        let noise = RootNoise::alphazero(0);
        let orig = vec![0.5f32; 2];
        let mut p = orig.clone();
        mix_noise(&mut r, &noise, &mut p);
        assert_ne!(p, orig);
    }
}
