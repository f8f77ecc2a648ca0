//! Reusable scratch memory for the inference hot path.
//!
//! A [`Workspace`] owns every transient buffer a forward pass needs — the
//! batched im2col matrix and the GEMM staging buffer of the f32 path, the
//! quantized activations of the int8 path, and a recycling pool of
//! activation buffers — so steady-state inference performs **zero heap
//! allocations**: buffers grow during the first (warm-up) pass and are
//! reused verbatim afterwards.
//!
//! Two usage styles:
//!
//! * **Explicit** — long-lived inference owners (evaluators, benchmark
//!   loops) hold a `Workspace` and thread it through `*_ws` forward
//!   methods.
//! * **Thread-local** — the allocation-free convenience for APIs that must
//!   stay `&self`-pure (e.g. `Conv2d::forward`): [`Workspace::with_thread`]
//!   hands out a per-thread instance, so repeated calls on one thread reuse
//!   scratch without any synchronization.

use std::cell::RefCell;

/// Scratch arena for forward passes. See the module docs.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Batched im2col matrix (`[col_rows, batch * col_cols]`).
    col: Vec<f32>,
    /// GEMM output staging (`[out_c, batch * col_cols]`), scattered into the
    /// NCHW output afterwards.
    stage: Vec<f32>,
    /// One layer input of the int8 path, quantized once per sample
    /// (`tensor::quant`): the u8 values and one scale per sample.
    quant: Vec<u8>,
    quant_scales: Vec<f32>,
    /// Recycled activation buffers, leased and released by layer forwards.
    pool: Vec<Vec<f32>>,
    /// Number of times any buffer had to grow (diagnostic: must stop
    /// increasing after warm-up).
    grow_events: u64,
}

impl Workspace {
    /// Empty workspace; buffers are grown on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// The im2col buffer, resized to `len` (contents unspecified).
    pub fn col_buf(&mut self, len: usize) -> &mut [f32] {
        if self.col.capacity() < len {
            self.grow_events += 1;
        }
        self.col.resize(len, 0.0);
        &mut self.col[..len]
    }

    /// The im2col buffer and the GEMM staging buffer together (distinct
    /// fields, so both can be borrowed mutably at once).
    pub fn col_and_stage(&mut self, col_len: usize, stage_len: usize) -> (&mut [f32], &mut [f32]) {
        if self.col.capacity() < col_len || self.stage.capacity() < stage_len {
            self.grow_events += 1;
        }
        self.col.resize(col_len, 0.0);
        self.stage.resize(stage_len, 0.0);
        (&mut self.col[..col_len], &mut self.stage[..stage_len])
    }

    /// The int8 path's quantized-activation scratch: `bytes` u8 and one
    /// f32 scale per sample (contents unspecified).
    pub fn quant_scratch(&mut self, bytes: usize, samples: usize) -> (&mut [u8], &mut [f32]) {
        if self.quant.capacity() < bytes || self.quant_scales.capacity() < samples {
            self.grow_events += 1;
        }
        self.quant.resize(bytes, 0);
        self.quant_scales.resize(samples, 0.0);
        (&mut self.quant[..bytes], &mut self.quant_scales[..samples])
    }

    /// Lease a buffer of exactly `numel` elements from the recycling pool
    /// (best capacity fit). Contents are unspecified — callers must fully
    /// overwrite the buffer. Pair with [`Workspace::release`] to keep
    /// steady-state inference allocation-free.
    pub fn lease(&mut self, numel: usize) -> Vec<f32> {
        // Best fit: smallest pooled buffer whose capacity suffices; if none
        // fits, take the largest and let it grow (capacities converge to the
        // working set's maxima after one pass).
        let mut best: Option<usize> = None;
        let mut largest: Option<usize> = None;
        for (i, b) in self.pool.iter().enumerate() {
            if b.capacity() >= numel {
                if best.is_none_or(|j| self.pool[j].capacity() > b.capacity()) {
                    best = Some(i);
                }
            } else if largest.is_none_or(|j| self.pool[j].capacity() < b.capacity()) {
                largest = Some(i);
            }
        }
        let mut buf = match best.or(largest) {
            Some(i) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        if buf.capacity() < numel {
            self.grow_events += 1;
        }
        buf.resize(numel, 0.0);
        buf
    }

    /// Return a leased buffer to the pool for reuse.
    pub fn release(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// How many times any buffer grew. Stable across calls ⇔ steady-state
    /// forward passes are allocation-free.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Run `f` with this thread's shared workspace. Used by `&self`-pure
    /// forward APIs that cannot thread an explicit workspace.
    pub fn with_thread<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        thread_local! {
            static WS: RefCell<Workspace> = RefCell::new(Workspace::new());
        }
        WS.with(|ws| f(&mut ws.borrow_mut()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_release_roundtrip_reuses_capacity() {
        let mut ws = Workspace::new();
        let a = ws.lease(100);
        let grown = ws.grow_events();
        ws.release(a);
        let b = ws.lease(80);
        assert_eq!(b.len(), 80);
        assert_eq!(ws.grow_events(), grown, "reuse must not grow");
        ws.release(b);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let small = ws.lease(10);
        let big = ws.lease(1000);
        let small_cap = small.capacity();
        ws.release(small);
        ws.release(big);
        let got = ws.lease(8);
        assert!(got.capacity() <= small_cap.max(10), "picked the big buffer");
        ws.release(got);
    }

    #[test]
    fn col_and_stage_are_independent() {
        let mut ws = Workspace::new();
        let (c, s) = ws.col_and_stage(16, 8);
        c[0] = 1.0;
        s[0] = 2.0;
        assert_eq!(c.len(), 16);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn grow_events_stabilize() {
        let mut ws = Workspace::new();
        for _ in 0..3 {
            let (c, s) = ws.col_and_stage(64, 32);
            c[0] += 1.0;
            s[0] += 1.0;
            let (q, scales) = ws.quant_scratch(48, 2);
            q[47] = 1;
            scales[1] = 1.0;
            let b = ws.lease(128);
            ws.release(b);
        }
        let after_warmup = ws.grow_events();
        for _ in 0..10 {
            let (_, _) = ws.col_and_stage(64, 32);
            let (_, _) = ws.quant_scratch(48, 2);
            let b = ws.lease(128);
            ws.release(b);
        }
        assert_eq!(ws.grow_events(), after_warmup);
    }

    #[test]
    fn with_thread_persists_across_calls() {
        let g0 = Workspace::with_thread(|ws| {
            let b = ws.lease(256);
            ws.release(b);
            ws.grow_events()
        });
        let g1 = Workspace::with_thread(|ws| {
            let b = ws.lease(256);
            ws.release(b);
            ws.grow_events()
        });
        assert_eq!(g0, g1, "second call must reuse the pooled buffer");
    }
}
