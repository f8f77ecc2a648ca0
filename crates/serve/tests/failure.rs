//! Fault-containment tests: panicking sessions are quarantined without
//! taking down the worker pool, backend failures surface as typed
//! [`TicketStatus::Failed`] terminal states, the watchdog reaps stuck
//! runs, circuit breakers shed and recover, and teardown stays clean
//! with failures in flight.

use games::tictactoe::TicTacToe;
use games::Game;
use mcts::{
    BatchEvaluator, Budget, ChaosConfig, ChaosEvaluator, EvalError, EvalOutput, MctsConfig,
    SearchError, UniformEvaluator,
};
use serve::{
    BreakerState, ClusterConfig, RejectReason, SearchRequest, SearchService, ServeCluster,
    ServeConfig, StreamItem, TicketStatus, WaitOutcome,
};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(30);

fn cfg(playouts: usize) -> MctsConfig {
    MctsConfig {
        playouts,
        ..Default::default()
    }
}

fn service(serve: ServeConfig) -> SearchService {
    SearchService::new(serve)
}

fn fast_faults() -> ServeConfig {
    ServeConfig {
        workers: 2,
        step_quota: 16,
        retry_budget: 1,
        backoff_base: Duration::from_micros(200),
        breaker_threshold: 1000, // breaker out of the way unless a test wants it
        ..Default::default()
    }
}

fn uniform() -> Arc<dyn BatchEvaluator> {
    Arc::new(UniformEvaluator::for_game(&TicTacToe::new()))
}

/// Uniform priors with a switchable failure mode and a batch preference
/// (>1 so the service installs its coalescing layer).
struct SwitchableEvaluator {
    priors: usize,
    failing: AtomicBool,
    transient: bool,
    calls: AtomicU32,
}

impl SwitchableEvaluator {
    fn healthy(priors: usize) -> Self {
        SwitchableEvaluator {
            priors,
            failing: AtomicBool::new(false),
            transient: true,
            calls: AtomicU32::new(0),
        }
    }

    fn failing(priors: usize, transient: bool) -> Self {
        SwitchableEvaluator {
            priors,
            failing: AtomicBool::new(true),
            transient,
            calls: AtomicU32::new(0),
        }
    }

    fn set_failing(&self, failing: bool) {
        self.failing.store(failing, Ordering::SeqCst);
    }
}

impl BatchEvaluator for SwitchableEvaluator {
    fn input_len(&self) -> usize {
        TicTacToe::new().encoded_len()
    }

    fn action_space(&self) -> usize {
        self.priors
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        if let Err(e) = self.try_evaluate_batch(inputs, out) {
            std::panic::panic_any(SearchError::EvaluatorFailed { reason: e.reason });
        }
    }

    fn try_evaluate_batch(
        &self,
        _inputs: &[&[f32]],
        out: &mut [EvalOutput],
    ) -> Result<(), EvalError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.failing.load(Ordering::SeqCst) {
            return Err(if self.transient {
                EvalError::transient("switchable backend down")
            } else {
                EvalError::permanent("switchable backend down")
            });
        }
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

/// An evaluator that hangs long enough for the watchdog to reap its
/// session, then returns normally.
struct HangingEvaluator {
    hang: Duration,
    priors: usize,
}

impl BatchEvaluator for HangingEvaluator {
    fn input_len(&self) -> usize {
        TicTacToe::new().encoded_len()
    }

    fn action_space(&self) -> usize {
        self.priors
    }

    fn evaluate_batch(&self, _inputs: &[&[f32]], out: &mut [EvalOutput]) {
        std::thread::sleep(self.hang);
        let p = 1.0 / self.priors as f32;
        for o in out.iter_mut() {
            o.priors.clear();
            o.priors.resize(self.priors, p);
            o.value = 0.0;
        }
    }
}

#[test]
fn panicking_session_fails_typed_while_the_pool_keeps_serving() {
    let s = service(fast_faults());
    // panic_p = 1.0: the first evaluation panics with a plain &str.
    let chaotic: Arc<dyn BatchEvaluator> = Arc::new(ChaosEvaluator::new(
        uniform(),
        ChaosConfig {
            panic_p: 1.0,
            ..Default::default()
        },
    ));
    let doomed = s.submit(SearchRequest::new(TicTacToe::new(), chaotic).config(cfg(256)));
    let outcome = doomed.wait_timeout(WAIT);
    assert!(outcome.is_finished(), "failed ticket must resolve");
    assert!(doomed.status().is_failed());
    match doomed.error() {
        Some(SearchError::Panicked { payload }) => {
            assert!(payload.contains("chaos"), "payload preserved: {payload}")
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The worker that caught the panic keeps serving: a healthy session
    // completes on the same pool.
    let fine = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(64)));
    assert!(matches!(
        fine.wait_timeout(WAIT),
        WaitOutcome::Finished(_, TicketStatus::Done)
    ));
    let stats = s.stats();
    assert_eq!(stats.sessions_failed, 1);
    assert_eq!(stats.sessions_completed, 1);
}

#[test]
fn exhausted_retries_surface_as_evaluator_failed() {
    let s = service(fast_faults());
    let backend = Arc::new(SwitchableEvaluator::failing(9, true));
    let t = s.submit(
        SearchRequest::new(
            TicTacToe::new(),
            Arc::clone(&backend) as Arc<dyn BatchEvaluator>,
        )
        .config(cfg(128)),
    );
    t.wait_timeout(WAIT);
    match t.error() {
        Some(SearchError::EvaluatorFailed { reason }) => {
            assert!(
                reason.contains("switchable"),
                "original reason kept: {reason}"
            )
        }
        other => panic!("expected EvaluatorFailed, got {other:?}"),
    }
    assert_eq!(s.stats().sessions_failed, 1);
    // Calibration met the fault first and gave up at its first forward:
    // the tuner stays uncalibrated (the layer keeps forming rounds), and
    // the session still gets its own attempt plus `retry_budget` retries.
    assert!(!s.autotune_reports()[0].calibrated);
    assert_eq!(backend.calls.load(Ordering::Relaxed), 1 + 2);
}

#[test]
fn result_stream_ends_with_failed_after_partials() {
    // Healthy long enough to publish partial snapshots, then permanent
    // failure: the stream must deliver the partials and then a Final
    // item carrying Failed — never silence.
    let s = service(ServeConfig {
        workers: 1,
        step_quota: 8,
        retry_budget: 0,
        ..fast_faults()
    });
    let backend = Arc::new(SwitchableEvaluator::healthy(9));
    let t = s.submit(
        SearchRequest::new(
            TicTacToe::new(),
            Arc::clone(&backend) as Arc<dyn BatchEvaluator>,
        )
        .config(cfg(100_000)),
    );
    let mut stream = t.subscribe();
    let mut partials = 0u32;
    let mut terminal = None;
    while let Some(item) = stream.recv_timeout(WAIT) {
        match item {
            StreamItem::Partial(snap) => {
                partials += 1;
                assert!(snap.stats.seq > 0);
                if partials == 2 {
                    backend.set_failing(true);
                }
            }
            StreamItem::Final(_, status) => {
                terminal = Some(status);
                break;
            }
        }
    }
    assert!(partials >= 2, "saw {partials} partials before the fault");
    match terminal {
        Some(TicketStatus::Failed(SearchError::EvaluatorFailed { .. })) => {}
        other => panic!("stream must end Failed(EvaluatorFailed), got {other:?}"),
    }
}

#[test]
fn cancel_during_retry_storm_still_terminates() {
    let s = service(ServeConfig {
        retry_budget: 3,
        backoff_base: Duration::from_millis(5),
        ..fast_faults()
    });
    let backend: Arc<dyn BatchEvaluator> = Arc::new(SwitchableEvaluator::failing(9, true));
    let t = s.submit(SearchRequest::new(TicTacToe::new(), backend).config(cfg(4096)));
    std::thread::sleep(Duration::from_millis(2));
    t.cancel();
    let outcome = t.wait_timeout(WAIT);
    assert!(outcome.is_finished(), "ticket must not hang mid-retry");
    // Depending on who wins the race the session is observed as failed
    // (retries exhausted) or cancelled (flag seen first) — both are
    // terminal and fully accounted.
    let st = t.status();
    assert!(
        st.is_failed() || st == TicketStatus::Cancelled,
        "terminal state, got {st:?}"
    );
    assert_eq!(s.outstanding_playouts(), 0);
}

#[test]
fn watchdog_reaps_stuck_session_and_restores_capacity() {
    let s = service(ServeConfig {
        workers: 1, // the hang would otherwise pin the whole pool
        watchdog_grace: Some(Duration::from_millis(100)),
        ..fast_faults()
    });
    let hung: Arc<dyn BatchEvaluator> = Arc::new(HangingEvaluator {
        hang: Duration::from_secs(4),
        priors: 9,
    });
    let stuck = s.submit(
        SearchRequest::new(TicTacToe::new(), hung)
            .config(cfg(100_000))
            .budget(Budget::time(Duration::from_millis(50))),
    );
    let outcome = stuck.wait_timeout(Duration::from_secs(10));
    assert!(outcome.is_finished(), "reaped ticket resolves promptly");
    assert_eq!(stuck.error(), Some(SearchError::DeadlineExceeded));
    // The wedged worker was replaced: a healthy session completes even
    // though the hung evaluator is still sleeping on the old thread.
    let fine = s.submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(64)));
    let outcome = fine.wait_timeout(Duration::from_secs(10));
    assert!(matches!(
        outcome,
        WaitOutcome::Finished(_, TicketStatus::Done)
    ));
    assert_eq!(s.stats().sessions_failed, 1);
    assert_eq!(s.outstanding_playouts(), 0);
}

#[test]
fn breaker_sheds_unhealthy_backend_and_recovers_after_probe() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 1,
        shard: ServeConfig {
            retry_budget: 0,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(100),
            ..fast_faults()
        },
        admission: None,
    });
    let backend = Arc::new(SwitchableEvaluator::failing(9, true));
    let dyn_backend: Arc<dyn BatchEvaluator> = Arc::clone(&backend) as _;
    // Drive the backend to failure until its breaker opens.
    let mut failed = 0;
    for _ in 0..20 {
        match cluster
            .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&dyn_backend)).config(cfg(64)))
        {
            Ok(t) => {
                t.wait_timeout(WAIT);
                if t.status().is_failed() {
                    failed += 1;
                }
            }
            Err(rej) => {
                assert_eq!(rej.reason, RejectReason::Unhealthy);
                assert!(rej.retry_after > Duration::ZERO, "honest backoff hint");
                break;
            }
        }
    }
    assert!(failed >= 2, "breaker needs {failed} failures to trip");
    assert_eq!(cluster.backend_health(&dyn_backend), BreakerState::Open);
    assert!(cluster.stats().shed_unhealthy >= 1);
    // A healthy co-resident backend is unaffected by the open breaker.
    let healthy = cluster
        .submit(SearchRequest::new(TicTacToe::new(), uniform()).config(cfg(64)))
        .expect("healthy backend admitted while the sick one cools down");
    assert!(matches!(
        healthy.wait_timeout(WAIT),
        WaitOutcome::Finished(_, TicketStatus::Done)
    ));
    // Cooldown elapses, the backend is fixed, and the probe session
    // closes the breaker again.
    backend.set_failing(false);
    std::thread::sleep(Duration::from_millis(120));
    let probe = cluster
        .submit(SearchRequest::new(TicTacToe::new(), Arc::clone(&dyn_backend)).config(cfg(64)))
        .expect("probe-eligible breaker admits the recovery probe");
    let outcome = probe.wait_timeout(WAIT);
    assert!(matches!(
        outcome,
        WaitOutcome::Finished(_, TicketStatus::Done)
    ));
    assert_eq!(cluster.backend_health(&dyn_backend), BreakerState::Closed);
}

#[test]
fn dropping_a_cluster_with_open_breakers_and_failed_tickets_is_clean() {
    let cluster = ServeCluster::new(ClusterConfig {
        shards: 2,
        shard: ServeConfig {
            retry_budget: 0,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(60),
            ..fast_faults()
        },
        admission: None,
    });
    let sick: Arc<dyn BatchEvaluator> = Arc::new(SwitchableEvaluator::failing(9, true));
    let mut tickets = Vec::new();
    for i in 0..12 {
        let backend = if i % 2 == 0 {
            Arc::clone(&sick)
        } else {
            uniform()
        };
        match cluster.submit(SearchRequest::new(TicTacToe::new(), backend).config(cfg(512))) {
            Ok(t) => tickets.push(t),
            Err(rej) => assert_eq!(rej.reason, RejectReason::Unhealthy),
        }
    }
    // Drop with failures (and possibly running sessions) in flight: the
    // drop must terminate, and every issued ticket must be terminal
    // afterwards — no waiter left hanging.
    drop(cluster);
    for t in tickets {
        let outcome = t.wait_timeout(Duration::from_secs(5));
        assert!(outcome.is_finished(), "ticket left unresolved by drop");
    }
}
