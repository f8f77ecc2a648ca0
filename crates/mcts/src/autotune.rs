//! Measurement-driven batch tuning: an online forward-time-vs-batch-size
//! curve per backend, and the operating point (target batch + coalescing
//! window) that maximizes positions per second.
//!
//! [`BatchTuner`] keeps one EWMA forward time per power-of-two batch size
//! (7/8 old, 1/8 new). [`BatchTuner::calibrate`] seeds every bucket when
//! the backend is registered; every production forward then refines its
//! bucket. The operating point re-derives from the curve on demand by
//! **one rule**: a round of `b` callers sharing one forward delivers
//! `b / t(b)` positions per second (the paper's Eq. 4 shape: one queue, sublinear
//! batch latency); the same callers each running their own single-sample
//! forward deliver `p / t(1)`, where `p` is how many of them the host can
//! run at once (Eq. 3 shape: every worker pays `T_DNN` in parallel). The
//! best-scoring option wins:
//!
//! * **batch `b ≥ 2`** — form rounds of about `b`, and wait at most the
//!   chosen bucket's forward time `t(b)` for one to fill (while one batch
//!   is in flight, arrivals have exactly that long to fill the next);
//! * **batch 1** — a batch does not pay: callers run their singles side by
//!   side, nobody waits for anybody, so the window is **zero**.
//!
//! The rule compares *all* the options or none: while any bucket is still
//! unobserved (no calibration, and traffic has not produced that size
//! yet) the point is the max batch and one fixed window. A partial curve
//! would reinforce itself — a tuner aiming at bucket `b` only ever
//! observes batches ≤ `b` and would never discover that larger ones
//! amortize better.
//!
//! All state is atomic; `record` is wait-free and called from every
//! forward of the coalescing layer, `operating_point`/`curve` are read-side
//! only. The curve and chosen point export through `ClusterStats` as an
//! [`AutotuneReport`] so the feedback loop is observable from the outside.

use crate::error::EvalError;
use crate::evaluator::{BatchEvaluator, EvalOutput};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// EWMA blend: `new = (old * 7 + sample) / 8`.
const EWMA_OLD_WEIGHT: u64 = 7;

/// The most one sample may read, in multiples of its bucket's EWMA.
const OUTLIER_CAP: u64 = 2;

/// How long a round waits to fill while the curve is incomplete and
/// `t(b)` therefore unknown.
const UNMEASURED_WINDOW: Duration = Duration::from_micros(150);

/// Timed forwards per bucket during calibration; the fastest one seeds
/// the bucket (the first at a new size also grows the backend's scratch).
const CALIBRATION_REPEATS: usize = 3;

/// An online forward-time-vs-batch-size curve for one backend.
#[derive(Debug)]
pub struct BatchTuner {
    /// Bucket batch sizes: powers of two up to the backend's max batch
    /// (always including the max itself).
    sizes: Vec<usize>,
    /// EWMA forward nanoseconds per bucket; 0 = no observation yet.
    ewma_ns: Vec<AtomicU64>,
    /// Single-sample forwards the host can run at the same time (`p` in
    /// the module docs).
    singles: usize,
    /// Whether a calibration pass seeded the curve.
    calibrated: AtomicBool,
}

/// The tuner's current choice: assemble batches of about `batch`, waiting
/// at most `window` for them to fill. `batch == 1` always comes with
/// `window == 0`: run each caller's single on its own, wait for nobody.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperatingPoint {
    pub batch: usize,
    pub window: Duration,
}

/// Machine-readable snapshot of one backend's tuning state, exported via
/// cluster stats.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AutotuneReport {
    /// Shard index (filled in by the cluster when aggregating).
    pub shard: usize,
    /// Whether the curve was seeded by a calibration pass.
    pub calibrated: bool,
    /// Chosen target batch size; 1 = singles side by side, no rounds.
    pub batch: usize,
    /// Chosen coalescing window, microseconds; 0 whenever `batch` is 1.
    pub window_us: u64,
    /// Estimated throughput at the operating point, positions per second:
    /// `batch / t(batch)` for a round, `p / t(1)` for side-by-side singles.
    pub positions_per_sec: f64,
    /// The measured curve: `(batch_size, ewma_forward_ns)` for every
    /// bucket with at least one observation.
    pub curve: Vec<(usize, u64)>,
}

impl BatchTuner {
    /// A tuner for a backend whose hard batch cap is `max_batch`. Bucket 1
    /// is scored as `singles` single-sample forwards running side by side
    /// (`p / t(1)`): how many callers can be inside the backend at once —
    /// the smaller of the threads that call it and the cores that can run
    /// them.
    pub fn new(max_batch: usize, singles: usize) -> Self {
        let max_batch = max_batch.max(1);
        let mut sizes = Vec::new();
        let mut b = 1usize;
        while b < max_batch {
            sizes.push(b);
            b *= 2;
        }
        sizes.push(max_batch);
        let ewma_ns = sizes.iter().map(|_| AtomicU64::new(0)).collect();
        BatchTuner {
            sizes,
            ewma_ns,
            singles: singles.max(1),
            calibrated: AtomicBool::new(false),
        }
    }

    /// Largest batch the tuner will ever choose.
    pub fn max_batch(&self) -> usize {
        *self.sizes.last().unwrap()
    }

    /// Bucket index for an observed batch size: the smallest bucket that
    /// holds it (observations above the cap land in the top bucket).
    fn bucket(&self, batch: usize) -> usize {
        self.sizes
            .iter()
            .position(|&s| s >= batch)
            .unwrap_or(self.sizes.len() - 1)
    }

    /// Positions in flight while one forward of bucket `size` runs.
    fn in_flight(&self, size: usize) -> usize {
        if size == 1 {
            self.singles
        } else {
            size
        }
    }

    /// Fold one observed forward (`batch` positions in `elapsed`) into the
    /// curve. Wait-free; races between concurrent recorders lose at most
    /// one sample.
    ///
    /// A sample counts for at most twice its bucket's current time: a
    /// forward whose thread was descheduled for a millisecond says nothing
    /// about the backend, and on a busy host one in a hundred is — enough,
    /// unclipped, to throw a 100 µs bucket across any verdict every few
    /// hundred calls. A cost that really rose still gets there, an eighth
    /// of the way per forward.
    pub fn record(&self, batch: usize, elapsed: Duration) {
        if batch == 0 {
            return;
        }
        let ns = (elapsed.as_nanos() as u64).max(1);
        let slot = &self.ewma_ns[self.bucket(batch)];
        let old = slot.load(Ordering::Relaxed);
        let blended = if old == 0 {
            ns
        } else {
            (old * EWMA_OLD_WEIGHT + ns.min(old * OUTLIER_CAP)) / (EWMA_OLD_WEIGHT + 1)
        };
        slot.store(blended, Ordering::Relaxed);
    }

    /// Calibration: after one warm-up forward, time a zero-input forward
    /// three times at every bucket size and seed each bucket with the
    /// fastest, so the operating point compares the whole batch range from
    /// the first request on. Runs against `backend`
    /// directly — call it with the *raw* backend (not a resilience
    /// wrapper) so calibration cannot trip breakers or count as production
    /// traffic. A backend that returns an error or panics aborts the pass
    /// quietly and leaves the tuner as it was: uncalibrated, with whatever
    /// curve production traffic gives it.
    pub fn calibrate(&self, backend: &dyn BatchEvaluator) {
        let input_len = backend.input_len();
        let top = self.max_batch();
        let flat = vec![0.0f32; input_len * top];
        let inputs: Vec<&[f32]> = (0..top)
            .map(|s| &flat[s * input_len..(s + 1) * input_len])
            .collect();
        let mut out = vec![EvalOutput::default(); top];
        let seeds = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<u64>, EvalError> {
            backend.try_evaluate_batch(&inputs[..1], &mut out[..1])?;
            let mut seeds = Vec::with_capacity(self.sizes.len());
            for &size in &self.sizes {
                let mut fastest = u64::MAX;
                for _ in 0..CALIBRATION_REPEATS {
                    let start = Instant::now();
                    backend.try_evaluate_batch(&inputs[..size], &mut out[..size])?;
                    fastest = fastest.min((start.elapsed().as_nanos() as u64).max(1));
                }
                seeds.push(fastest);
            }
            Ok(seeds)
        }));
        if let Ok(Ok(seeds)) = seeds {
            for (slot, ns) in self.ewma_ns.iter().zip(seeds) {
                slot.store(ns, Ordering::Relaxed);
            }
            self.calibrated.store(true, Ordering::Relaxed);
        }
    }

    /// True when [`BatchTuner::calibrate`] completed successfully.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated.load(Ordering::Relaxed)
    }

    /// True when every bucket has at least one observation: the curve
    /// covers the full batch range, so the operating point is read off it
    /// (see the module docs).
    pub fn fully_observed(&self) -> bool {
        self.ewma_ns.iter().all(|ns| ns.load(Ordering::Relaxed) > 0)
    }

    /// The current operating point: the best-scoring bucket of a complete
    /// curve by the one rule of the module docs, else the max batch and
    /// the fixed window.
    pub fn operating_point(&self) -> OperatingPoint {
        let (mut batch, mut window) = (self.max_batch(), UNMEASURED_WINDOW);
        if self.fully_observed() {
            let mut best_rate = 0.0;
            for (&size, slot) in self.sizes.iter().zip(&self.ewma_ns) {
                let ns = slot.load(Ordering::Relaxed);
                let rate = self.in_flight(size) as f64 / ns as f64;
                // Strictly-greater keeps the smallest batch among equal
                // rates: same throughput at lower latency.
                if rate > best_rate {
                    best_rate = rate;
                    batch = size;
                    window = Duration::from_nanos(ns);
                }
            }
        }
        OperatingPoint {
            batch,
            // Nobody waits for a round of one.
            window: if batch == 1 { Duration::ZERO } else { window },
        }
    }

    /// The measured curve: `(batch, ewma_ns)` for every observed bucket.
    pub fn curve(&self) -> Vec<(usize, u64)> {
        self.sizes
            .iter()
            .zip(&self.ewma_ns)
            .filter_map(|(&s, ns)| {
                let v = ns.load(Ordering::Relaxed);
                (v > 0).then_some((s, v))
            })
            .collect()
    }

    /// Snapshot for stats export. `shard` is left 0; aggregators fill it.
    pub fn report(&self) -> AutotuneReport {
        let op = self.operating_point();
        let curve = self.curve();
        let positions_per_sec = curve
            .iter()
            .find(|&&(s, _)| s == op.batch)
            .map_or(0.0, |&(s, ns)| self.in_flight(s) as f64 / (ns as f64 / 1e9));
        AutotuneReport {
            shard: 0,
            calibrated: self.is_calibrated(),
            batch: op.batch,
            window_us: op.window.as_micros() as u64,
            positions_per_sec,
            curve,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::UniformEvaluator;

    #[test]
    fn buckets_are_powers_of_two_plus_cap() {
        let t = BatchTuner::new(24, 1);
        assert_eq!(t.sizes, vec![1, 2, 4, 8, 16, 24]);
        assert_eq!(t.max_batch(), 24);
        let t1 = BatchTuner::new(1, 1);
        assert_eq!(t1.sizes, vec![1]);
    }

    #[test]
    fn an_incomplete_curve_means_max_batch_and_the_fixed_window() {
        let t = BatchTuner::new(16, 2);
        let unmeasured = OperatingPoint {
            batch: 16,
            window: UNMEASURED_WINDOW,
        };
        assert_eq!(t.operating_point(), unmeasured);
        assert!(t.curve().is_empty());
        assert!(!t.is_calibrated());
        // Bucket 1 alone would win any comparison it is the only entry
        // of; the rule waits for the whole curve.
        for b in [1, 2, 4, 8] {
            t.record(b, Duration::from_micros(10 * b as u64));
            assert_eq!(t.operating_point(), unmeasured, "up to bucket {b}");
        }
        t.record(16, Duration::from_micros(160));
        assert_eq!(t.operating_point().batch, 1);
        // A bound of one has nothing to wait for either way.
        let window = BatchTuner::new(1, 2).operating_point().window;
        assert_eq!(window, Duration::ZERO);
    }

    #[test]
    fn picks_the_knee_of_a_sublinear_curve() {
        for p in [1, 2] {
            let t = BatchTuner::new(16, p);
            // Sublinear up to 8 (batching amortizes), linear after: 8 wins,
            // also against two singles side by side (2/100 < 8/240).
            t.record(1, Duration::from_micros(100));
            t.record(2, Duration::from_micros(120));
            t.record(4, Duration::from_micros(160));
            t.record(8, Duration::from_micros(240));
            t.record(16, Duration::from_micros(520));
            let op = t.operating_point();
            assert_eq!(op.batch, 8, "p = {p}");
            // Window tracks the chosen bucket's forward time.
            assert_eq!(op.window, Duration::from_micros(240));
        }
    }

    #[test]
    fn linear_curve_runs_singles_side_by_side_with_no_window() {
        // The int8 serving net on the reference host: a batch of b costs
        // b singles, so two cores do better with one single each.
        let t = BatchTuner::new(8, 2);
        t.record(1, Duration::from_micros(89));
        t.record(2, Duration::from_micros(177));
        t.record(4, Duration::from_micros(335));
        t.record(8, Duration::from_micros(773));
        assert_eq!(
            t.operating_point(),
            OperatingPoint {
                batch: 1,
                window: Duration::ZERO
            }
        );
        let r = t.report();
        assert_eq!((r.batch, r.window_us), (1, 0));
        let expect = 2.0 / 89e-6;
        assert!((r.positions_per_sec - expect).abs() / expect < 1e-9);
        // Contention between the singles is priced in: once a single
        // costs more than its share of a round, rounds win again.
        for _ in 0..60 {
            t.record(1, Duration::from_micros(200));
        }
        assert_eq!(t.operating_point().batch, 4, "2/200 < 4/335");
    }

    #[test]
    fn one_descheduled_forward_does_not_move_the_verdict() {
        let t = BatchTuner::new(8, 2);
        for (b, us) in [(1, 100), (2, 180), (4, 340), (8, 700)] {
            t.record(b, Duration::from_micros(us));
        }
        // 4 ms on a 100 µs bucket counts as 200 µs: (7·100 + 200) / 8.
        t.record(1, Duration::from_millis(4));
        assert_eq!(t.curve()[0], (1, 112_500));
        assert_eq!(t.operating_point().batch, 1);
    }

    #[test]
    fn recorded_serving_curve_keeps_its_knee_beside_two_singles() {
        // The int8 9×9 Gomoku net's forward curve as once measured on a
        // one-core host (batch 1/2/4/8: 284/358/413/1190 µs): 2/284 < 4/413.
        let t = BatchTuner::new(8, 2);
        for (b, us) in [(1, 284), (2, 358), (4, 413), (8, 1190)] {
            t.record(b, Duration::from_micros(us));
        }
        let op = t.operating_point();
        assert_eq!(op.batch, 4);
        assert_eq!(op.window, Duration::from_micros(413));
    }

    #[test]
    fn a_rounds_window_is_its_forward_time_however_long_or_short() {
        // Flat curves: the largest batch wins, and waits t(4) — no
        // ceiling over a slow backend, no floor under a fast one.
        for t4 in [Duration::from_millis(5), Duration::from_nanos(10)] {
            let t = BatchTuner::new(4, 2);
            for b in [1, 2, 4] {
                t.record(b, t4);
            }
            assert_eq!(
                t.operating_point(),
                OperatingPoint {
                    batch: 4,
                    window: t4
                }
            );
        }
    }

    #[test]
    fn ewma_converges_toward_recent_samples() {
        let t = BatchTuner::new(2, 1);
        t.record(2, Duration::from_micros(800));
        for _ in 0..60 {
            t.record(2, Duration::from_micros(100));
        }
        let (_, ns) = t.curve().pop().unwrap();
        assert!(ns < 120_000, "EWMA should approach 100µs, got {ns}ns");
    }

    #[test]
    fn oversized_observations_land_in_top_bucket() {
        let t = BatchTuner::new(8, 1);
        t.record(64, Duration::from_micros(300));
        assert_eq!(t.curve(), vec![(8, 300_000)]);
    }

    #[test]
    fn fully_observed_requires_every_bucket() {
        let t = BatchTuner::new(8, 1);
        assert!(!t.fully_observed());
        t.record(1, Duration::from_micros(50));
        t.record(2, Duration::from_micros(60));
        t.record(4, Duration::from_micros(80));
        assert!(!t.fully_observed(), "top bucket still unobserved");
        t.record(8, Duration::from_micros(120));
        assert!(t.fully_observed());
    }

    #[test]
    fn calibration_seeds_every_bucket() {
        let eval = UniformEvaluator::new(4, 9);
        let t = BatchTuner::new(8, 1);
        t.calibrate(&eval);
        assert!(t.is_calibrated());
        assert!(t.fully_observed());
        assert_eq!(t.curve().len(), 4, "buckets 1,2,4,8");
        let report = t.report();
        assert!(report.calibrated);
        assert!(report.batch >= 1);
        assert!(report.positions_per_sec > 0.0);
    }

    /// Sleeps 20 ms on the first forward at each batch size, 1 ms on the
    /// repeats; fails or panics from the `fail_from`-th forward on.
    struct ColdThenWarm {
        seen: parking_lot::Mutex<Vec<usize>>,
        fail_from: usize,
        panic: bool,
    }

    impl ColdThenWarm {
        fn new(fail_from: usize, panic: bool) -> Self {
            ColdThenWarm {
                seen: parking_lot::Mutex::new(Vec::new()),
                fail_from,
                panic,
            }
        }
    }

    impl BatchEvaluator for ColdThenWarm {
        fn input_len(&self) -> usize {
            4
        }
        fn action_space(&self) -> usize {
            2
        }
        fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
            self.try_evaluate_batch(inputs, out).unwrap();
        }
        fn try_evaluate_batch(
            &self,
            inputs: &[&[f32]],
            _out: &mut [EvalOutput],
        ) -> Result<(), EvalError> {
            let cold = {
                let mut seen = self.seen.lock();
                if seen.len() >= self.fail_from {
                    if self.panic {
                        panic!("device lost");
                    }
                    return Err(EvalError::transient("device busy"));
                }
                let cold = !seen.contains(&inputs.len());
                seen.push(inputs.len());
                cold
            };
            std::thread::sleep(Duration::from_millis(if cold { 20 } else { 1 }));
            Ok(())
        }
    }

    #[test]
    fn calibration_keeps_the_fastest_of_three_warm_repeats() {
        let eval = ColdThenWarm::new(usize::MAX, false);
        let t = BatchTuner::new(4, 1);
        t.calibrate(&eval);
        assert!(t.is_calibrated());
        // One warm-up single, then three forwards per bucket.
        assert_eq!(*eval.seen.lock(), vec![1, 1, 1, 1, 2, 2, 2, 4, 4, 4]);
        for (b, ns) in t.curve() {
            assert!(
                (1_000_000..10_000_000).contains(&ns),
                "bucket {b} seeded with a cold forward: {ns} ns"
            );
        }
    }

    #[test]
    fn a_failing_backend_leaves_the_tuner_uncalibrated() {
        for panic in [false, true] {
            // Healthy for the warm-up and bucket 1, down in bucket 2.
            let eval = ColdThenWarm::new(5, panic);
            let t = BatchTuner::new(4, 1);
            t.calibrate(&eval);
            assert!(!t.is_calibrated(), "panic = {panic}");
            assert!(t.curve().is_empty(), "no half-seeded curve");
            assert!(!t.fully_observed());
            assert_eq!(t.operating_point().batch, 4, "the incomplete-curve point");
        }
    }

    #[test]
    fn report_round_trips_operating_point() {
        let t = BatchTuner::new(4, 1);
        t.record(1, Duration::from_micros(50));
        t.record(2, Duration::from_micros(70));
        t.record(4, Duration::from_micros(80));
        let r = t.report();
        assert_eq!(r.batch, 4);
        assert_eq!(r.window_us, 80);
        assert_eq!(r.curve, vec![(1, 50_000), (2, 70_000), (4, 80_000)]);
        assert!((r.positions_per_sec - 4.0 / 80e-6).abs() / (4.0 / 80e-6) < 1e-9);
    }
}
