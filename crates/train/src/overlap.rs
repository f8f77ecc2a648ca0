//! Truly overlapped training: a dedicated trainer thread consumes samples
//! while the caller's thread keeps producing them with tree-based search.
//!
//! §5.4 of the paper describes the CPU-GPU setup: "the tree-based search
//! process produces samples and the training process (completely offloaded
//! to GPU) consumes samples. The training process execution time is hidden
//! by the tree-based search time." [`crate::pipeline::Pipeline`] models
//! that overlap in its throughput accounting; this module *implements* it
//! with a producer/consumer pair:
//!
//! * the **producer** (caller thread) plays episodes with the most recent
//!   published network snapshot and ships each episode's samples over a
//!   FIFO channel;
//! * the **trainer** thread owns the authoritative network, folds incoming
//!   samples into its replay buffer, runs SGD, and publishes a fresh
//!   snapshot after every episode's updates.
//!
//! Searches therefore use slightly stale networks — exactly the staleness
//! real asynchronous AlphaZero-style systems exhibit.

use crate::metrics::{LossPoint, LossRecorder};
use crate::pipeline::PipelineConfig;
use crate::replay::{ReplayBuffer, Sample};
use crate::selfplay::play_episode;
use games::Game;
use mcts::{BatchEvaluator, NnEvaluator};
use nn::{Optimizer, PolicyValueNet, Sgd};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Summary of an overlapped run.
#[derive(Debug, Clone)]
pub struct OverlapReport {
    /// Samples (moves) produced by self-play.
    pub samples: u64,
    /// End-to-end wall-clock duration, seconds.
    pub wall_sec: f64,
    /// Samples per wall-clock second. Because the stages overlap, this is
    /// the *true* pipeline throughput (the paper's Figure 6 metric with
    /// `max` instead of sum in the denominator).
    pub samples_per_sec: f64,
    /// SGD steps the trainer completed.
    pub sgd_steps: u64,
    /// Loss curve recorded by the trainer (Figure 7 data).
    pub loss_curve: Vec<LossPoint>,
    /// Mean total loss over the last few updates.
    pub final_loss: Option<f32>,
    /// How many episodes were searched with a stale snapshot (the trainer
    /// had not yet published the previous episode's update).
    pub stale_searches: u64,
}

/// How search evaluators are built from published network snapshots.
pub type SnapshotEvaluatorFactory = Box<dyn Fn(Arc<PolicyValueNet>) -> Arc<dyn BatchEvaluator>>;

/// Run `cfg.episodes` of self-play with training overlapped on a second
/// thread. Returns the trained network and the run report.
///
/// `evaluator_factory` turns each network snapshot into the evaluator the
/// search uses (route through an `accel::Device` to emulate GPU inference);
/// `None` uses direct CPU inference ([`NnEvaluator`]).
pub fn run_overlapped<G: Game>(
    initial: &G,
    net: PolicyValueNet,
    cfg: PipelineConfig,
    evaluator_factory: Option<SnapshotEvaluatorFactory>,
) -> (PolicyValueNet, OverlapReport) {
    assert_eq!(
        net.config.actions,
        initial.action_space(),
        "network action space must match the game"
    );
    if cfg.augment_symmetries {
        let (_, h, w) = initial.encoded_shape();
        assert_eq!(h, w, "symmetry augmentation requires a square board");
    }
    let factory =
        evaluator_factory.unwrap_or_else(|| Box::new(|snap| Arc::new(NnEvaluator::new(snap))));

    let started = Instant::now();
    // The latest published snapshot, read by the producer per episode.
    let slot: Arc<RwLock<Arc<PolicyValueNet>>> = Arc::new(RwLock::new(Arc::new(net.clone())));
    // Generation counter: lets the producer detect staleness for the report.
    let generation = Arc::new(RwLock::new(0u64));
    let (tx, rx) = crossbeam::channel::unbounded::<Vec<Sample>>();

    let trainer_slot = Arc::clone(&slot);
    let trainer_gen = Arc::clone(&generation);
    let (channels, board, _) = initial.encoded_shape();
    let state_len = initial.encoded_len();
    let action_space = initial.action_space();

    let trainer = std::thread::Builder::new()
        .name("overlap-trainer".into())
        .spawn(move || {
            let mut net = net;
            let mut optimizer = Sgd::new(&net.params(), cfg.lr, cfg.momentum, cfg.weight_decay);
            let mut replay = ReplayBuffer::new(cfg.replay_capacity, state_len, action_space);
            let mut recorder = LossRecorder::new();
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x7261_696E);
            let mut grads = net.grad_buffers();
            let mut sgd_steps = 0u64;
            let mut episodes_seen = 0u64;

            while let Ok(samples) = rx.recv() {
                for s in samples {
                    if cfg.augment_symmetries {
                        crate::augment::push_augmented(&mut replay, &s, channels, board);
                    } else {
                        replay.push(s);
                    }
                }
                if let Some(schedule) = cfg.lr_schedule {
                    optimizer.set_lr(schedule.at(episodes_seen));
                }
                episodes_seen += 1;
                if replay.len() >= cfg.batch_size.min(8) {
                    let c = net.config;
                    for _ in 0..cfg.sgd_iters {
                        let k = cfg.batch_size.min(replay.len());
                        let (states, pis, zs) = replay.sample_batch(&mut rng, k);
                        let x = states.reshape(&[k, c.in_c, c.h, c.w]);
                        grads.zero();
                        let caches = net.forward_train(&x);
                        let parts = net.backward(&caches, &pis, &zs, &mut grads);
                        let flat = grads.flat();
                        optimizer.step(&mut net.params_mut(), &flat);
                        recorder.record(parts);
                        sgd_steps += 1;
                    }
                }
                // Publish the updated snapshot for subsequent searches.
                *trainer_slot.write() = Arc::new(net.clone());
                *trainer_gen.write() += 1;
            }
            (net, recorder, sgd_steps)
        })
        .expect("spawn trainer thread");

    // ---- Producer: self-play episodes on this thread. ----
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut samples_total = 0u64;
    let mut stale_searches = 0u64;
    for episode in 0..cfg.episodes as u64 {
        let snapshot = slot.read().clone();
        if *generation.read() < episode {
            // The trainer hasn't published the previous episode's update
            // yet — this search runs on a stale network.
            stale_searches += 1;
        }
        let evaluator = factory(snapshot);
        let mut search = cfg.scheme.build::<G>(cfg.mcts, evaluator);
        let outcome = play_episode(
            initial,
            search.as_mut(),
            cfg.temperature_moves,
            cfg.max_moves,
            &mut rng,
        );
        samples_total += outcome.moves as u64;
        if tx.send(outcome.samples).is_err() {
            break; // trainer died; join below will propagate the panic
        }
    }
    drop(tx);
    let (net, recorder, sgd_steps) = trainer.join().expect("trainer thread panicked");

    let wall_sec = started.elapsed().as_secs_f64();
    let report = OverlapReport {
        samples: samples_total,
        wall_sec,
        samples_per_sec: if wall_sec > 0.0 {
            samples_total as f64 / wall_sec
        } else {
            0.0
        },
        sgd_steps,
        final_loss: recorder.recent_mean(5),
        loss_curve: recorder.points().to_vec(),
        stale_searches,
    };
    (net, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use games::tictactoe::TicTacToe;
    use mcts::Scheme;
    use nn::NetConfig;

    fn smoke_cfg(episodes: usize) -> PipelineConfig {
        let mut cfg = PipelineConfig::smoke(Scheme::Serial, 1);
        cfg.episodes = episodes;
        cfg
    }

    #[test]
    fn overlapped_run_trains_and_reports() {
        let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 41);
        let (trained, report) = run_overlapped(&TicTacToe::new(), net.clone(), smoke_cfg(3), None);
        assert!(report.samples >= 15, "3 episodes of ≥5 moves");
        assert!(report.sgd_steps > 0, "trainer must run SGD");
        assert!(!report.loss_curve.is_empty());
        assert!(report.wall_sec > 0.0 && report.samples_per_sec > 0.0);
        // Training actually changed the parameters.
        let x = tensor::Tensor::ones(&[1, 4, 3, 3]);
        assert_ne!(
            net.forward_train(&x).policy_logits.data(),
            trained.forward_train(&x).policy_logits.data()
        );
    }

    #[test]
    fn sgd_step_count_matches_config() {
        let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 42);
        let cfg = smoke_cfg(4);
        let (_, report) = run_overlapped(&TicTacToe::new(), net, cfg, None);
        // Every episode with enough replay runs exactly sgd_iters steps;
        // at most the first episode can fall short of the replay minimum.
        let per = cfg.sgd_iters as u64;
        assert!(
            report.sgd_steps >= 3 * per && report.sgd_steps <= 4 * per,
            "steps {}",
            report.sgd_steps
        );
    }

    #[test]
    fn augmentation_flows_through_overlap() {
        let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 43);
        let mut cfg = smoke_cfg(2);
        cfg.augment_symmetries = true;
        let (_, report) = run_overlapped(&TicTacToe::new(), net, cfg, None);
        assert!(report.sgd_steps > 0);
        assert!(report.final_loss.unwrap().is_finite());
    }

    #[test]
    fn custom_evaluator_factory_is_used() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let net = PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 44);
        let factory: SnapshotEvaluatorFactory = Box::new(|snap| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            Arc::new(NnEvaluator::new(snap))
        });
        let (_, report) = run_overlapped(&TicTacToe::new(), net, smoke_cfg(3), Some(factory));
        assert_eq!(CALLS.load(Ordering::Relaxed), 3, "one snapshot per episode");
        assert!(report.samples > 0);
    }

    #[test]
    #[should_panic(expected = "action space")]
    fn mismatched_network_rejected() {
        let net = PolicyValueNet::new(NetConfig::tiny(4, 4, 4, 16), 45);
        let _ = run_overlapped(&TicTacToe::new(), net, smoke_cfg(1), None);
    }
}
