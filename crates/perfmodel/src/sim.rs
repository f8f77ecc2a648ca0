//! Deterministic discrete-event simulation of the two schemes' execution
//! timelines (Figures 1-b and 2-b).
//!
//! The closed-form models (Eqs. 3–6) capture steady-state bottlenecks; the
//! simulators here additionally capture pipeline fill, partial batches and
//! in-flight caps, and are used to regenerate the *shapes* of the paper's
//! Figures 3–6 under paper-like hardware parameters (64 cores, GPU) on
//! hosts that don't physically have them. Virtual time is `f64`
//! nanoseconds; no wall-clock, threads, or randomness is involved, so
//! results are exactly reproducible.
//!
//! Modeling assumptions:
//! * `cores ≥ N` as on the paper's 64-core platform — each worker (and the
//!   master) has its own hardware thread;
//! * the local tree is cache-resident (§3.1.2), so the master pays
//!   `t_select + t_backup` per iteration; the shared tree lives in DDR,
//!   so shared-tree workers pay `ddr_in_tree_factor ×` that;
//! * shared-tree workers additionally serialize on a per-iteration shared
//!   access (root virtual loss + root backup, Eq. 3's `T_shared×N` term)
//!   whose cost grows with the number of contending workers
//!   (`contention_per_worker`, modeling lock/cache-line contention);
//! * per the paper's §4.1 observation 1, the local master's per-iteration
//!   in-tree cost shrinks as the accelerator sub-batch `B` grows (new
//!   nodes appear in bursts, so selection traverses shallower trees):
//!   `t_in_tree(B) = t_in_tree / (1 + in_tree_shrink_per_batch · B)`.

use accel::LatencyModel;
use std::collections::VecDeque;

/// Hardware/algorithm parameters for a simulated move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimParams {
    /// Parallel workers `N`.
    pub workers: usize,
    /// Playouts per move (the paper uses 1600).
    pub playouts: usize,
    /// Node Selection latency per iteration (cache-resident tree), ns.
    pub t_select_ns: f64,
    /// Expansion+BackUp latency per iteration (cache-resident tree), ns.
    pub t_backup_ns: f64,
    /// Multiplier on in-tree cost when the tree lives in shared DDR
    /// (shared-tree scheme).
    pub ddr_in_tree_factor: f64,
    /// Base serialized shared-memory access per shared-tree iteration, ns.
    pub t_shared_access_ns: f64,
    /// Relative growth of the serialized access cost per contending
    /// worker (lock/cache-line contention).
    pub contention_per_worker: f64,
    /// One DNN inference on one CPU thread, ns.
    pub t_dnn_cpu_ns: f64,
    /// §4.1 observation 1: relative shrink of the local master's in-tree
    /// cost per unit of accelerator sub-batch size.
    pub in_tree_shrink_per_batch: f64,
    /// Accelerator latency model (for the CPU-GPU variants).
    pub accel: LatencyModel,
}

impl SimParams {
    /// Parameters shaped like the paper's platform (3990X + A6000, Gomoku
    /// 15×15 with the 5-conv/3-FC net, 1600-node trees of fanout 225):
    /// in-tree operations are tens of microseconds, CPU inference ~1 ms,
    /// batched GPU inference amortizes a ~20 µs launch cost.
    pub fn paper_like(workers: usize) -> Self {
        SimParams {
            workers,
            playouts: 1600,
            t_select_ns: 20_000.0,
            t_backup_ns: 10_000.0,
            ddr_in_tree_factor: 4.0 / 3.0,
            t_shared_access_ns: 1_500.0,
            contention_per_worker: 0.04,
            t_dnn_cpu_ns: 1_200_000.0,
            in_tree_shrink_per_batch: 0.08,
            accel: LatencyModel::a6000_like(4 * 15 * 15 * 4),
        }
    }

    /// In-tree per-iteration cost on a cache-resident (local) tree.
    pub fn t_in_tree(&self) -> f64 {
        self.t_select_ns + self.t_backup_ns
    }

    /// In-tree per-iteration cost on the DDR-resident shared tree.
    pub fn t_in_tree_shared(&self) -> f64 {
        self.t_in_tree() * self.ddr_in_tree_factor
    }

    /// Serialized shared-access cost under `N`-worker contention.
    pub fn sigma(&self) -> f64 {
        self.t_shared_access_ns * (1.0 + self.contention_per_worker * self.workers as f64)
    }

    /// Local-master in-tree shrink factor at sub-batch size `b` (§4.1).
    pub fn in_tree_shrink(&self, b: usize) -> f64 {
        1.0 / (1.0 + self.in_tree_shrink_per_batch * b as f64)
    }
}

/// Outcome of a simulated move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Total virtual time of the move, ns.
    pub move_ns: f64,
    /// Amortized per-worker-iteration latency (move / playouts), ns.
    pub iteration_ns: f64,
}

fn outcome(move_ns: f64, playouts: usize) -> SimOutcome {
    SimOutcome {
        move_ns,
        iteration_ns: move_ns / playouts as f64,
    }
}

/// Shared tree, CPU-only (Figure 1-b; Eq. 3 steady state).
///
/// Each worker iterates: serialized shared-memory access (contended) →
/// DDR-resident in-tree work and inference on its own thread.
pub fn simulate_shared_cpu(p: &SimParams) -> SimOutcome {
    let sigma = p.sigma();
    let service = p.t_in_tree_shared() + p.t_dnn_cpu_ns;
    let mut worker_free = vec![0.0f64; p.workers];
    let mut mem_free = 0.0f64;
    let mut finish_last = 0.0f64;
    for _ in 0..p.playouts {
        // Next playout goes to the earliest-available worker.
        let w = argmin(&worker_free);
        // Root access is serialized through shared memory.
        let start = worker_free[w].max(mem_free);
        mem_free = start + sigma;
        let done = start + sigma + service;
        worker_free[w] = done;
        finish_last = finish_last.max(done);
    }
    outcome(finish_last, p.playouts)
}

/// Shared tree, CPU+GPU with full-batch inference (batch = `N`, §3.3).
///
/// Workers run their in-tree phases (staggered by the serialized,
/// contended shared access), then all submit to the device, which
/// executes one batch of `N`; workers resume for backup when the batch
/// completes.
pub fn simulate_shared_accel(p: &SimParams) -> SimOutcome {
    let sigma = p.sigma();
    let t_select = p.t_select_ns * p.ddr_in_tree_factor;
    let t_backup = p.t_backup_ns * p.ddr_in_tree_factor;
    let mut worker_free = vec![0.0f64; p.workers];
    let mut mem_free = 0.0f64;
    let mut device_free = 0.0f64;
    let mut done = 0usize;
    let mut finish_last = 0.0f64;
    while done < p.playouts {
        let round = p.workers.min(p.playouts - done);
        // Phase 1: each participating worker performs its serialized
        // access + selection, producing a request.
        let mut last_submit = 0.0f64;
        for (w, free) in worker_free.iter().enumerate().take(round) {
            let start = free.max(mem_free);
            mem_free = start + sigma;
            let submit = start + sigma + t_select;
            last_submit = last_submit.max(submit);
            let _ = w;
        }
        // Phase 2: the device waits for the full batch, then computes.
        let batch_start = last_submit.max(device_free);
        let batch_done = batch_start + p.accel.batch_ns(round);
        device_free = batch_done;
        // Phase 3: workers back up.
        for free in worker_free.iter_mut().take(round) {
            let end = batch_done + t_backup;
            *free = end;
            finish_last = finish_last.max(end);
        }
        done += round;
    }
    outcome(finish_last, p.playouts)
}

/// Local tree, CPU-only (Figure 2-b; Eq. 5 steady state).
///
/// The master serially performs selection per iteration and backup per
/// completed evaluation; `N` workers evaluate in parallel; the master
/// blocks when `N` evaluations are in flight.
pub fn simulate_local_cpu(p: &SimParams) -> SimOutcome {
    let mut master = 0.0f64;
    let mut worker_free = vec![0.0f64; p.workers];
    // Completion times of in-flight evaluations (chronological).
    let mut in_flight: VecDeque<f64> = VecDeque::new();
    for _ in 0..p.playouts {
        // Block while the pool is saturated (Algorithm 3, lines 12-13).
        while in_flight.len() >= p.workers {
            let done = in_flight.pop_front().unwrap();
            master = master.max(done) + p.t_backup_ns;
        }
        master += p.t_select_ns;
        let w = argmin(&worker_free);
        let start = worker_free[w].max(master);
        let done = start + p.t_dnn_cpu_ns;
        worker_free[w] = done;
        // The VecDeque stays sorted because all evals take equal time and
        // start in dispatch order.
        in_flight.push_back(done);
    }
    while let Some(done) = in_flight.pop_front() {
        master = master.max(done) + p.t_backup_ns;
    }
    outcome(master, p.playouts)
}

/// Local tree, CPU+GPU with sub-batches of `B` (§3.3, Eq. 6): the master
/// accumulates `B` selections per submission; `N/B` submissions can be in
/// flight concurrently (the paper's CUDA streams); the in-flight cap is
/// `N` samples. The master's per-iteration in-tree cost shrinks with `B`
/// (§4.1 observation 1).
pub fn simulate_local_accel(p: &SimParams, batch: usize) -> SimOutcome {
    assert!(batch >= 1, "batch must be >= 1");
    let b = batch.min(p.workers).max(1);
    let shrink = p.in_tree_shrink(b);
    let t_select = p.t_select_ns * shrink;
    let t_backup = p.t_backup_ns * shrink;
    let mut master = 0.0f64;
    let mut device_free = 0.0f64;
    // (completion time, samples) of in-flight submissions.
    let mut in_flight: VecDeque<(f64, usize)> = VecDeque::new();
    let mut in_flight_samples = 0usize;
    let mut queued = 0usize; // selections accumulated toward the next batch

    let submit = |master: f64,
                  device_free: &mut f64,
                  in_flight: &mut VecDeque<(f64, usize)>,
                  count: usize| {
        let start = master.max(*device_free);
        let done = start + p.accel.batch_ns(count);
        *device_free = done;
        in_flight.push_back((done, count));
    };

    for i in 0..p.playouts {
        // Respect the N-sample in-flight cap.
        while in_flight_samples + queued >= p.workers {
            let (done, count) = in_flight.pop_front().expect("cap implies in-flight work");
            master = master.max(done) + count as f64 * t_backup;
            in_flight_samples -= count;
        }
        master += t_select;
        queued += 1;
        if queued == b || i + 1 == p.playouts {
            submit(master, &mut device_free, &mut in_flight, queued);
            in_flight_samples += queued;
            queued = 0;
        }
    }
    while let Some((done, count)) = in_flight.pop_front() {
        master = master.max(done) + count as f64 * t_backup;
    }
    outcome(master, p.playouts)
}

/// Training-throughput simulation (Figure 6): the tree-based search
/// produces samples, the trainer consumes them; with producer/consumer
/// overlap the episode time is the max of the two stages.
///
/// Returns samples/second. One "sample" is one move (1600 iterations).
pub fn simulate_training_throughput(
    search_move_ns: f64,
    train_per_sample_ns: f64,
    moves_per_episode: usize,
) -> f64 {
    let search_total = search_move_ns * moves_per_episode as f64;
    let train_total = train_per_sample_ns * moves_per_episode as f64;
    let episode_ns = search_total.max(train_total);
    moves_per_episode as f64 / (episode_ns * 1e-9)
}

fn argmin(xs: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x < xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_cpu_single_worker_is_serial() {
        let p = SimParams {
            workers: 1,
            playouts: 10,
            ..SimParams::paper_like(1)
        };
        let o = simulate_shared_cpu(&p);
        let per = p.sigma() + p.t_in_tree_shared() + p.t_dnn_cpu_ns;
        assert!((o.move_ns - 10.0 * per).abs() < 1e-6);
    }

    #[test]
    fn shared_cpu_scales_until_memory_bound() {
        let base = SimParams::paper_like(1);
        let lat = |n: usize| simulate_shared_cpu(&SimParams { workers: n, ..base }).iteration_ns;
        assert!(lat(4) < lat(1));
        assert!(lat(16) < lat(4));
        // The serialized contended access caps the gain: latency can
        // never go below the base access cost.
        assert!(lat(64) >= base.t_shared_access_ns);
    }

    #[test]
    fn local_cpu_overlaps_inference() {
        let base = SimParams::paper_like(1);
        let lat = |n: usize| simulate_local_cpu(&SimParams { workers: n, ..base }).iteration_ns;
        // DNN-bound regime: doubling workers ≈ halves iteration latency.
        assert!(lat(2) < 0.7 * lat(1));
        // In-tree-bound regime: latency floors at t_select + t_backup.
        let floor = base.t_in_tree();
        assert!(lat(512) >= floor * 0.99);
    }

    #[test]
    fn local_cpu_floor_is_in_tree_rate() {
        // With enough workers the master's serial in-tree loop is the
        // bottleneck (the paper's motivation for switching schemes).
        let p = SimParams {
            workers: 4096,
            playouts: 2000,
            ..SimParams::paper_like(1)
        };
        let o = simulate_local_cpu(&p);
        let floor = p.t_in_tree();
        assert!(o.iteration_ns >= floor * 0.99);
        assert!(o.iteration_ns <= floor * 1.25);
    }

    #[test]
    fn crossover_exists_between_schemes_cpu() {
        // Paper Figure 4: the optimal scheme differs with N — local wins
        // in the DNN-bound regime, shared wins once the serial master
        // floors out (by N = 64 with paper-like parameters).
        let lat_shared = |n: usize| simulate_shared_cpu(&SimParams::paper_like(n)).iteration_ns;
        let lat_local = |n: usize| simulate_local_cpu(&SimParams::paper_like(n)).iteration_ns;
        assert!(
            lat_local(16) < lat_shared(16),
            "local should win at N=16: {} vs {}",
            lat_local(16),
            lat_shared(16)
        );
        assert!(
            lat_shared(64) < lat_local(64),
            "shared should win at N=64: {} vs {}",
            lat_shared(64),
            lat_local(64)
        );
    }

    #[test]
    fn cpu_adaptive_speedup_near_paper_band() {
        // The paper reports up to 1.5x CPU-only adaptive speedup.
        let mut best: f64 = 1.0;
        for n in [1usize, 2, 4, 8, 16, 32, 64] {
            let p = SimParams::paper_like(n);
            let shared = simulate_shared_cpu(&p).iteration_ns;
            let local = simulate_local_cpu(&p).iteration_ns;
            best = best.max(shared.max(local) / shared.min(local));
        }
        assert!(
            best > 1.2 && best < 2.5,
            "CPU adaptive speedup {best:.2} out of band"
        );
    }

    #[test]
    fn local_accel_batch_sequence_is_v_shaped_coarsely() {
        // Paper Figure 3: extremes are worse than the interior.
        let p = SimParams::paper_like(64);
        let lat = |b: usize| simulate_local_accel(&p, b).iteration_ns;
        let b1 = lat(1);
        let bn = lat(64);
        let best = (1..=64).map(lat).fold(f64::INFINITY, f64::min);
        assert!(best < 0.5 * b1, "B=1 should be clearly suboptimal");
        assert!(best < bn, "B=N should be suboptimal at N=64");
    }

    #[test]
    fn gpu_scheme_crossover_matches_paper() {
        // Paper §5.3 / Figure 5: shared wins at N=16; tuned local wins at
        // N ∈ {32, 64}.
        let tuned_local = |n: usize| {
            let p = SimParams::paper_like(n);
            let (b, _) = crate::vsearch::find_min_vsequence(1, n, |b| {
                simulate_local_accel(&p, b).iteration_ns
            });
            simulate_local_accel(&p, b).iteration_ns
        };
        let shared = |n: usize| simulate_shared_accel(&SimParams::paper_like(n)).iteration_ns;
        assert!(
            shared(16) < tuned_local(16),
            "shared should win at N=16: {} vs {}",
            shared(16),
            tuned_local(16)
        );
        for n in [32usize, 64] {
            assert!(
                tuned_local(n) < shared(n),
                "tuned local should win at N={n}: {} vs {}",
                tuned_local(n),
                shared(n)
            );
        }
    }

    #[test]
    fn accel_beats_cpu_inference() {
        let p = SimParams::paper_like(16);
        let cpu = simulate_local_cpu(&p).iteration_ns;
        let (b, _) =
            crate::vsearch::find_min_vsequence(1, 16, |b| simulate_local_accel(&p, b).iteration_ns);
        let gpu = simulate_local_accel(&p, b).iteration_ns;
        assert!(gpu < cpu, "offload should help: {gpu} vs {cpu}");
    }

    #[test]
    fn shared_accel_full_batch_matches_structure() {
        let p = SimParams::paper_like(32);
        let o = simulate_shared_accel(&p);
        // Must take at least the device time for all batches.
        let min_device = p.accel.batch_ns(32) * (p.playouts as f64 / 32.0);
        assert!(o.move_ns >= min_device * 0.9);
    }

    #[test]
    fn throughput_hides_training_when_search_dominates() {
        let tp_slow_search = simulate_training_throughput(1e9, 1e8, 40);
        let tp_fast_search = simulate_training_throughput(1e8, 1e8, 40);
        assert!(tp_fast_search > tp_slow_search);
        // Training-bound regime: further search speedup does nothing.
        let tp_faster = simulate_training_throughput(1e7, 1e8, 40);
        assert!((tp_faster - tp_fast_search).abs() / tp_fast_search < 1e-9);
    }

    #[test]
    fn deterministic() {
        let p = SimParams::paper_like(32);
        assert_eq!(simulate_local_accel(&p, 8), simulate_local_accel(&p, 8));
        assert_eq!(simulate_shared_cpu(&p), simulate_shared_cpu(&p));
    }
}
