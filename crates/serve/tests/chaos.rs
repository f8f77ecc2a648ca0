//! Chaos soak: a live cluster served under seeded fault injection
//! (evaluator panics, transient errors, latency spikes, stale outputs,
//! game-apply panics) while the suite asserts the fault-containment
//! contract:
//!
//! * the cluster never deadlocks — every wait below is bounded;
//! * every issued ticket reaches a terminal state (`Done`, `Cancelled`
//!   or `Failed` with a typed error) — no silent losses;
//! * accounting balances: completed + cancelled + failed equals the
//!   sessions admitted, outstanding load drains to zero;
//! * faults stay with their backend: no session of the healthy
//!   co-resident backend is shed or failed;
//! * a quiet chaos layer (all fault rates zero) is an exact
//!   pass-through — fault-free runs are seed-for-seed identical to an
//!   unwrapped backend.
//!
//! Run with `--features invariants` to additionally enable the mcts
//! crate's internal tree/accounting assertions under fault load (CI's
//! `cache_chaos_demos` job does; see `.github/workflows/ci.yml`). Set
//! `CHAOS_SMOKE=1` for the bounded smoke-mode session count.

use games::tictactoe::TicTacToe;
use games::{connect4::Connect4, Game};
use mcts::{
    BatchEvaluator, Budget, ChaosConfig, ChaosEvaluator, ChaosGame, EvalError, EvalOutput,
    MctsConfig, Scheme, SearchBuilder, UniformEvaluator,
};
use serve::{
    ClusterConfig, Priority, SearchRequest, ServeCluster, ServeConfig, TicketStatus, WaitOutcome,
};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(60);

/// What one [`BatchyUniform`] batch costs, at any size.
const BATCH_COST: Duration = Duration::from_micros(50);

/// Uniform priors with a batch preference and a fixed cost per batch
/// whatever its size — the curve on which a shared round always beats
/// singles side by side — so the chaos layer sits under a coalescing
/// layer that keeps forming rounds and injected faults hit shared
/// batches (the worst case for containment).
struct BatchyUniform {
    input_len: usize,
    priors: usize,
}

impl BatchEvaluator for BatchyUniform {
    fn input_len(&self) -> usize {
        self.input_len
    }

    fn action_space(&self) -> usize {
        self.priors
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        self.try_evaluate_batch(inputs, out).unwrap();
    }

    fn try_evaluate_batch(
        &self,
        _inputs: &[&[f32]],
        out: &mut [EvalOutput],
    ) -> Result<(), EvalError> {
        std::thread::sleep(BATCH_COST);
        let p = 1.0 / self.priors as f32;
        for o in out.iter_mut() {
            o.priors.clear();
            o.priors.resize(self.priors, p);
            o.value = 0.0;
        }
        Ok(())
    }

    fn preferred_batch(&self) -> usize {
        4
    }
}

fn soak_sessions() -> usize {
    if std::env::var("CHAOS_SMOKE").is_ok() {
        24
    } else {
        72
    }
}

#[test]
fn cluster_soak_under_injected_faults_terminates_and_balances() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: ServeConfig {
            workers: 2,
            step_quota: 16,
            retry_budget: 1,
            backoff_base: Duration::from_micros(200),
            // Breakers trip and recover during the soak: faults are
            // random, so healthy stretches close them again.
            breaker_threshold: 6,
            breaker_cooldown: Duration::from_millis(20),
            watchdog_grace: Some(Duration::from_millis(500)),
            ..Default::default()
        },
        // Generous limits: nothing sheds for rate/pending/bytes, so
        // accounting stays exact — but the byte gauge is live, so the
        // soak also proves reservations unwind through panics, typed
        // failures, watchdog reaps and cancellation races.
        admission: Some(serve::AdmissionConfig {
            playouts_per_sec: 1e9,
            burst_playouts: 1_000_000_000,
            max_pending: 4096,
            model_byte_budget: Some(u64::MAX / 2),
            ..Default::default()
        }),
    });
    let game = TicTacToe::new();
    let chaotic_eval: Arc<dyn BatchEvaluator> = Arc::new(ChaosEvaluator::new(
        Arc::new(BatchyUniform {
            input_len: game.encoded_len(),
            priors: game.action_space(),
        }),
        ChaosConfig {
            seed: 0xD15EA5E,
            panic_p: 0.03,
            error_p: 0.08,
            latency_p: 0.05,
            latency: Duration::from_micros(300),
            stale_p: 0.05,
        },
    ));
    let healthy_eval: Arc<dyn BatchEvaluator> =
        Arc::new(UniformEvaluator::for_game(&Connect4::new()));

    let n = soak_sessions();
    let mut tickets = Vec::with_capacity(n);
    let mut shed = 0u64;
    for i in 0..n {
        let prio = match i % 3 {
            0 => Priority::Low,
            1 => Priority::Normal,
            _ => Priority::High,
        };
        let healthy = i % 4 == 3;
        let submitted = if healthy {
            // A healthy co-resident model keeps flowing throughout.
            cluster.submit(
                SearchRequest::new(Connect4::new(), Arc::clone(&healthy_eval))
                    .config(MctsConfig {
                        playouts: 48,
                        ..Default::default()
                    })
                    .priority(prio),
            )
        } else {
            // Chaos-wrapped game AND evaluator: apply() panics mid-tree
            // exercise quarantine beyond the evaluator boundary.
            let root = ChaosGame::new(TicTacToe::new(), 0xBAD_5EED ^ i as u64, 0.002);
            cluster.submit(
                SearchRequest::new(root, Arc::clone(&chaotic_eval))
                    .config(MctsConfig {
                        playouts: 96,
                        ..Default::default()
                    })
                    .budget(Budget::playouts(96))
                    .priority(prio),
            )
        };
        match submitted {
            Ok(t) => tickets.push((healthy, t)),
            Err(r) => {
                assert!(!healthy, "the healthy backend was shed: {r:?}");
                shed += 1; // breaker-shed while a backend cools down
            }
        }
        if i % 7 == 6 {
            if let Some((_, t)) = tickets.last() {
                t.cancel(); // cancellation races the faults
            }
        }
    }

    // Containment contract: every issued ticket terminates (bounded
    // wait — a hang here IS the deadlock the harness exists to catch).
    let mut done = 0u64;
    let mut cancelled = 0u64;
    let mut failed = 0u64;
    for (healthy, t) in &tickets {
        let outcome = t.wait_timeout(WAIT);
        assert!(outcome.is_finished(), "soak ticket never terminated");
        match t.status() {
            TicketStatus::Done => done += 1,
            TicketStatus::Cancelled => cancelled += 1,
            TicketStatus::Failed(err) => {
                failed += 1;
                // Failures are typed, never opaque unwinds, and stay
                // with the faulty backend.
                let msg = err.to_string();
                assert!(!msg.is_empty());
                assert!(!healthy, "the healthy backend failed a session: {msg}");
            }
            other => panic!("non-terminal status after wait: {other:?}"),
        }
    }
    assert_eq!(done + cancelled + failed, tickets.len() as u64);
    assert!(done > 0, "some sessions must survive the fault rates");
    assert!(failed > 0, "fault rates are high enough that some fail");

    // Accounting balances across the shards.
    let stats = cluster.stats();
    let total = stats.total();
    assert_eq!(
        total.sessions_completed + total.sessions_cancelled + total.sessions_failed,
        tickets.len() as u64,
        "cluster accounting must match issued tickets"
    );
    assert_eq!(stats.admitted, tickets.len() as u64);
    assert_eq!(stats.shed(), shed);
    assert!(
        total.mean_eval_batch() > 1.0,
        "the faults must have met shared batches"
    );
    for (i, load) in cluster.shard_loads().iter().enumerate() {
        assert_eq!(*load, 0, "shard {i} outstanding load must drain to zero");
    }
    // Byte reservations unwind no matter how each session died. The
    // release fires on the worker thread during finalization, so give
    // the last one a bounded moment to land.
    let deadline = std::time::Instant::now() + WAIT;
    while cluster.stats().admitted_bytes != 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "leaked byte reservation after the soak: {} bytes",
            cluster.stats().admitted_bytes
        );
        std::thread::yield_now();
    }

    // The cluster is still serviceable after the storm.
    let after = cluster
        .submit(
            SearchRequest::new(Connect4::new(), Arc::clone(&healthy_eval)).config(MctsConfig {
                playouts: 32,
                ..Default::default()
            }),
        )
        .expect("healthy backend admitted after the soak");
    assert!(matches!(
        after.wait_timeout(WAIT),
        WaitOutcome::Finished(_, TicketStatus::Done)
    ));
}

#[test]
fn quiet_chaos_layer_is_seed_for_seed_identical() {
    // All fault rates zero ⇒ the chaos wrappers must be exact
    // pass-throughs: same search, same seed, bit-identical outcome.
    let game = TicTacToe::new();
    let run = |eval: Arc<dyn BatchEvaluator>| {
        let mut s = SearchBuilder::new(Scheme::Serial)
            .config(MctsConfig {
                playouts: 400,
                ..Default::default()
            })
            .evaluator(eval)
            .build::<TicTacToe>();
        s.search(&game)
    };
    let plain = run(Arc::new(UniformEvaluator::for_game(&game)));
    let quiet = run(Arc::new(ChaosEvaluator::new(
        Arc::new(UniformEvaluator::for_game(&game)),
        ChaosConfig {
            seed: 7,
            panic_p: 0.0,
            error_p: 0.0,
            latency_p: 0.0,
            latency: Duration::ZERO,
            stale_p: 0.0,
        },
    )));
    assert_eq!(plain.visits, quiet.visits, "visit-for-visit identical");
    assert_eq!(plain.probs, quiet.probs);
    assert_eq!(plain.value, quiet.value);
    assert_eq!(plain.stats.playouts, quiet.stats.playouts);
}
