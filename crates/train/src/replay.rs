//! The self-play dataset: a bounded ring buffer of training samples.

use rand::Rng;
use tensor::Tensor;

/// One training datapoint `(s_t, π_t, z_t)` (paper §2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Encoded state planes (flattened `[c, h, w]`).
    pub state: Vec<f32>,
    /// MCTS visit distribution over the action space.
    pub pi: Vec<f32>,
    /// Final outcome from the perspective of the player to move at `s_t`.
    pub z: f32,
}

/// Bounded FIFO replay buffer with uniform random sampling.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    samples: Vec<Sample>,
    capacity: usize,
    /// Next overwrite position once full.
    cursor: usize,
    /// Total pushes ever (for stats).
    pushed: u64,
    state_len: usize,
    action_space: usize,
}

impl ReplayBuffer {
    /// Buffer for samples of the given shapes.
    pub fn new(capacity: usize, state_len: usize, action_space: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        ReplayBuffer {
            samples: Vec::with_capacity(capacity.min(4096)),
            capacity,
            cursor: 0,
            pushed: 0,
            state_len,
            action_space,
        }
    }

    /// Current number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total samples ever pushed (≥ `len()`).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Append a sample, evicting the oldest once at capacity.
    pub fn push(&mut self, sample: Sample) {
        assert_eq!(sample.state.len(), self.state_len, "state shape");
        assert_eq!(sample.pi.len(), self.action_space, "pi shape");
        debug_assert!((-1.0..=1.0).contains(&sample.z), "z out of range");
        self.pushed += 1;
        if self.samples.len() < self.capacity {
            self.samples.push(sample);
        } else {
            self.samples[self.cursor] = sample;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
    }

    /// Sample `k` datapoints uniformly with replacement and pack them into
    /// training tensors: `(states [k, state_len], pis [k, A], zs [k, 1])`.
    /// The caller reshapes `states` to NCHW.
    pub fn sample_batch<R: Rng + ?Sized>(&self, rng: &mut R, k: usize) -> (Tensor, Tensor, Tensor) {
        assert!(!self.is_empty(), "sampling from an empty buffer");
        assert!(k > 0);
        let mut states = Vec::with_capacity(k * self.state_len);
        let mut pis = Vec::with_capacity(k * self.action_space);
        let mut zs = Vec::with_capacity(k);
        for _ in 0..k {
            let s = &self.samples[rng.gen_range(0..self.samples.len())];
            states.extend_from_slice(&s.state);
            pis.extend_from_slice(&s.pi);
            zs.push(s.z);
        }
        (
            Tensor::from_vec(states, &[k, self.state_len]),
            Tensor::from_vec(pis, &[k, self.action_space]),
            Tensor::from_vec(zs, &[k, 1]),
        )
    }

    /// Direct access to a stored sample (for tests/inspection).
    pub fn get(&self, i: usize) -> &Sample {
        &self.samples[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn sample(tag: f32) -> Sample {
        Sample {
            state: vec![tag; 4],
            pi: vec![0.5, 0.5],
            z: 0.0,
        }
    }

    #[test]
    fn grows_until_capacity_then_evicts_fifo() {
        let mut b = ReplayBuffer::new(3, 4, 2);
        for i in 0..5 {
            b.push(sample(i as f32));
        }
        assert_eq!(b.len(), 3);
        assert_eq!(b.total_pushed(), 5);
        // Oldest (0, 1) evicted; 2, 3, 4 remain (in ring order).
        let tags: Vec<f32> = (0..3).map(|i| b.get(i).state[0]).collect();
        let mut sorted = tags.clone();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(sorted, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn batch_shapes_are_correct() {
        let mut b = ReplayBuffer::new(10, 4, 2);
        for i in 0..4 {
            b.push(sample(i as f32));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (s, p, z) = b.sample_batch(&mut rng, 7);
        assert_eq!(s.dims(), &[7, 4]);
        assert_eq!(p.dims(), &[7, 2]);
        assert_eq!(z.dims(), &[7, 1]);
    }

    #[test]
    fn batch_draws_only_stored_samples() {
        let mut b = ReplayBuffer::new(10, 4, 2);
        b.push(sample(7.0));
        b.push(sample(9.0));
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (s, _, _) = b.sample_batch(&mut rng, 20);
        for row in 0..20 {
            let v = s.data()[row * 4];
            assert!(v == 7.0 || v == 9.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sampling_empty_buffer_panics() {
        let b = ReplayBuffer::new(4, 4, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let _ = b.sample_batch(&mut rng, 1);
    }

    #[test]
    #[should_panic(expected = "state shape")]
    fn wrong_state_shape_rejected() {
        let mut b = ReplayBuffer::new(4, 4, 2);
        b.push(Sample {
            state: vec![0.0; 3],
            pi: vec![0.5, 0.5],
            z: 0.0,
        });
    }

    #[test]
    fn uniformish_sampling() {
        let mut b = ReplayBuffer::new(4, 4, 2);
        for i in 0..2 {
            b.push(sample(i as f32));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let (s, _, _) = b.sample_batch(&mut rng, 4000);
        let zeros = (0..4000).filter(|&r| s.data()[r * 4] == 0.0).count();
        let frac = zeros as f64 / 4000.0;
        assert!((frac - 0.5).abs() < 0.05, "fraction {frac}");
    }
}
