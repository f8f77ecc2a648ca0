//! Learning-rate schedules.
//!
//! AlphaZero-style training anneals the learning rate over the run; the
//! pipeline applies one of these schedules between episodes.

/// A learning-rate schedule mapping a step index to a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant rate.
    Constant(f32),
    /// Multiply by `factor` every `every` steps, floored at `min`.
    StepDecay {
        base: f32,
        factor: f32,
        every: u64,
        min: f32,
    },
    /// Cosine annealing from `base` to `min` over `period` steps, then
    /// held at `min`.
    Cosine { base: f32, min: f32, period: u64 },
    /// Linear ramp from 0 to `base` over `warmup` steps, then cosine
    /// annealing to `min` over the following `period` steps (the usual
    /// warmup-then-decay recipe for training from scratch).
    WarmupCosine {
        base: f32,
        min: f32,
        warmup: u64,
        period: u64,
    },
}

impl LrSchedule {
    /// Learning rate at step `t` (0-based).
    pub fn at(&self, t: u64) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay {
                base,
                factor,
                every,
                min,
            } => {
                assert!(every > 0, "decay interval must be positive");
                let k = (t / every) as i32;
                (base * factor.powi(k)).max(min)
            }
            LrSchedule::Cosine { base, min, period } => {
                assert!(period > 0, "cosine period must be positive");
                if t >= period {
                    return min;
                }
                let frac = t as f32 / period as f32;
                min + 0.5 * (base - min) * (1.0 + (std::f32::consts::PI * frac).cos())
            }
            LrSchedule::WarmupCosine {
                base,
                min,
                warmup,
                period,
            } => {
                assert!(warmup > 0, "warmup length must be positive");
                if t < warmup {
                    base * (t + 1) as f32 / warmup as f32
                } else {
                    LrSchedule::Cosine { base, min, period }.at(t - warmup)
                }
            }
        }
    }

    /// The schedule's initial rate.
    pub fn initial(&self) -> f32 {
        self.at(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = LrSchedule::Constant(0.01);
        assert_eq!(s.at(0), 0.01);
        assert_eq!(s.at(1_000_000), 0.01);
    }

    #[test]
    fn step_decay_halves_on_schedule() {
        let s = LrSchedule::StepDecay {
            base: 0.1,
            factor: 0.5,
            every: 10,
            min: 0.01,
        };
        assert_eq!(s.at(0), 0.1);
        assert_eq!(s.at(9), 0.1);
        assert_eq!(s.at(10), 0.05);
        assert_eq!(s.at(20), 0.025);
        // Floored at min.
        assert_eq!(s.at(1_000), 0.01);
    }

    #[test]
    fn cosine_endpoints_and_monotonicity() {
        let s = LrSchedule::Cosine {
            base: 0.1,
            min: 0.001,
            period: 100,
        };
        assert!((s.at(0) - 0.1).abs() < 1e-6);
        assert!((s.at(100) - 0.001).abs() < 1e-6);
        assert!((s.at(10_000) - 0.001).abs() < 1e-6);
        let mut prev = s.at(0);
        for t in 1..=100 {
            let cur = s.at(t);
            assert!(cur <= prev + 1e-6, "cosine must not increase");
            prev = cur;
        }
    }

    #[test]
    fn initial_matches_at_zero() {
        for s in [
            LrSchedule::Constant(0.2),
            LrSchedule::StepDecay {
                base: 0.3,
                factor: 0.1,
                every: 5,
                min: 0.0,
            },
            LrSchedule::Cosine {
                base: 0.4,
                min: 0.0,
                period: 7,
            },
        ] {
            assert_eq!(s.initial(), s.at(0));
        }
    }

    #[test]
    fn warmup_ramps_then_anneals() {
        let s = LrSchedule::WarmupCosine {
            base: 0.1,
            min: 0.001,
            warmup: 10,
            period: 100,
        };
        // Ramp: strictly increasing, hits base at the end of warmup.
        let mut prev = 0.0;
        for t in 0..10 {
            let cur = s.at(t);
            assert!(cur > prev, "warmup must increase");
            prev = cur;
        }
        assert!((s.at(9) - 0.1).abs() < 1e-6);
        assert!((s.at(10) - 0.1).abs() < 1e-6, "cosine starts at base");
        // Decay: non-increasing afterwards, ends at min.
        let mut prev = s.at(10);
        for t in 11..=110 {
            let cur = s.at(t);
            assert!(cur <= prev + 1e-6);
            prev = cur;
        }
        assert!((s.at(110) - 0.001).abs() < 1e-6);
        assert!((s.at(10_000) - 0.001).abs() < 1e-6);
    }

    #[test]
    fn warmup_first_step_is_nonzero() {
        let s = LrSchedule::WarmupCosine {
            base: 0.5,
            min: 0.0,
            warmup: 5,
            period: 10,
        };
        assert!(s.at(0) > 0.0, "step 0 must already train");
        assert!((s.at(0) - 0.1).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "decay interval")]
    fn zero_decay_interval_rejected() {
        let _ = LrSchedule::StepDecay {
            base: 0.1,
            factor: 0.5,
            every: 0,
            min: 0.0,
        }
        .at(1);
    }
}
