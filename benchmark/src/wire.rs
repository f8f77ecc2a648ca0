//! The wire client's workloads: `Submit` → `Final` over loopback through
//! `net → serve → mcts → nn → tensor`, server and clients in one process.
//! `wire_unique` cycles through more positions than the evaluation cache
//! can keep, so none is still cached when it comes round again
//! (inference-bound, cache written and evicted); `wire_repeat` cycles
//! through eight cached positions (inference idle, per-request overhead
//! of `net`/`serve` and cache reads dominate).

use crate::core::{add_stats, now_ns, summarise, ClientLog, Opts, PhaseLog, Spec, Workload};
use crate::gen::{self, Position};
use crate::metrics::Metrics;
use crate::run::{Env, LayerOut, TraceCtx, MIN_REQUESTS};
use crate::trace::{Span, Tracer};
use crate::verify::check_result;
use crate::{proc, stats};
use games::gomoku::Gomoku;
use mcts::evaluator::DEFAULT_NN_BATCH;
use mcts::{BatchEvaluator, Budget, EvalOutput, MctsConfig, NnEvaluator, Precision, SearchStats};
use net::{Client, Event, Frame, GameSpec, NetServer, NetStatsSnapshot, ServerConfig, WireRequest};
use nn::{NetConfig, PolicyValueNet};
use serve::{
    AdmissionConfig, ClusterConfig, ClusterStats, SearchRequest, ServeCluster, ServeConfig,
    TicketStatus,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Evaluation-cache budget of `wire_repeat`: 32 768 entries of 81
/// priors, sixteen times the 8 × 256 it needs, so that no bucket of the
/// set-associative cache overflows whatever the seed.
pub const REPEAT_CACHE_BYTES: usize = 8 << 20;
/// Evaluation-cache budget of `wire_unique`: 2048 entries. A cycle of
/// the workload writes 16 × 256, so an entry is long evicted when its
/// position recurs.
const UNIQUE_CACHE_BYTES: usize = 512 << 10;
/// A cycle, not an endless list, so that every request has repeats to
/// take a quiet-host time from (about fifty-six in a 30 s run).
const UNIQUE_POSITIONS: usize = 16;
/// Few stones, so that the searches of a cycle differ little in cost.
const UNIQUE_MAX_STONES: usize = 12;
const REPEAT_POSITIONS: usize = 8;
/// Every repeated position has this many stones: with only eight
/// positions, a request's cost must not depend on which eight the seed
/// drew, and the legal-move count is what sets a search's tree size.
const REPEAT_STONES: usize = 12;
const SPEC: GameSpec = GameSpec::Gomoku {
    size: gen::BOARD as u8,
    win: gen::WIN as u8,
};
/// Weight seed of the served network; the weights are not an input of
/// the workload, so they do not follow `--seed`.
const NET_SEED: u64 = 2;

/// The served model: the small 9×9 policy-value net on the int8 path.
pub fn model() -> Arc<PolicyValueNet> {
    Arc::new(PolicyValueNet::new(
        NetConfig::for_board(4, gen::BOARD, gen::BOARD, gen::BOARD * gen::BOARD),
        NET_SEED,
    ))
}

/// Times every batch the serving stack hands to the model, from outside
/// the model: the `nn.evaluate_batch` span and its call/sample counts.
struct SpanEvaluator {
    inner: Arc<dyn BatchEvaluator>,
    tracer: Arc<Tracer>,
    calls: AtomicU64,
    samples: AtomicU64,
}

impl BatchEvaluator for SpanEvaluator {
    fn input_len(&self) -> usize {
        self.inner.input_len()
    }

    fn action_space(&self) -> usize {
        self.inner.action_space()
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        if !self.tracer.enabled() {
            return self.inner.evaluate_batch(inputs, out);
        }
        let t0 = now_ns();
        self.inner.evaluate_batch(inputs, out);
        self.tracer.span(0, 0, "nn.evaluate_batch", t0, now_ns());
        // Statistics only: `Relaxed` publishes nothing else.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.samples
            .fetch_add(inputs.len() as u64, Ordering::Relaxed);
    }

    fn preferred_batch(&self) -> usize {
        self.inner.preferred_batch()
    }

    fn coalesces_internally(&self) -> bool {
        self.inner.coalesces_internally()
    }
}

/// Public counters of every layer, read before and after a phase.
#[derive(Clone, Default)]
struct Counters {
    net: NetStatsSnapshot,
    cluster: ClusterStats,
    nn_calls: u64,
    nn_samples: u64,
}

/// What the clients saw during a traced phase beyond latencies.
#[derive(Default)]
struct WireSeen {
    requests: u64,
    snapshots: u64,
    bytes: u64,
    first_snapshot_ms: Vec<f64>,
}

pub struct WireEnv {
    workload: Workload,
    playouts: u64,
    log_rate: usize,
    positions: Vec<Position>,
    requests: Vec<WireRequest>,
    /// Next unused position of `wire_unique`.
    cursor: usize,
    server: NetServer,
    clients: Vec<Client>,
    /// The backend `Arc` the factory hands out: in-process submits must
    /// pass the same one to share its cache and batching layer.
    evaluator: Arc<dyn BatchEvaluator>,
    spans: Option<Arc<SpanEvaluator>>,
    tracer: Option<Arc<Tracer>>,
    /// Counters around the latest phase, and what its clients saw.
    last: (Counters, Counters),
    seen: WireSeen,
}

/// Which position client `c` sends as its `j`-th request of a phase;
/// it is also the request's slot.
fn position_index(workload: Workload, cursor: usize, clients: usize, c: usize, j: usize) -> usize {
    match workload {
        Workload::WireRepeat => (c * REPEAT_POSITIONS / clients + j) % REPEAT_POSITIONS,
        _ => (cursor + j * clients + c) % UNIQUE_POSITIONS,
    }
}

/// When a client loop stops.
#[derive(Clone, Copy)]
enum Until {
    Count(usize),
    /// At least `MIN_REQUESTS`, then until the instant.
    Time(Instant),
}

impl Until {
    fn more(self, issued: usize) -> bool {
        match self {
            Until::Count(n) => issued < n,
            Until::Time(t) => issued < MIN_REQUESTS || Instant::now() < t,
        }
    }

    /// Log entries to reserve for a client that may complete
    /// `log_rate` requests a second.
    fn capacity(self, log_rate: usize) -> usize {
        match self {
            Until::Count(n) => n,
            Until::Time(t) => {
                let left = t.saturating_duration_since(Instant::now()).as_secs_f64();
                (left * log_rate as f64) as usize + MIN_REQUESTS
            }
        }
    }
}

/// One `Submit` → terminal frame exchange. Returns the request's start
/// and end, or why it failed (`true` = the answer was wrong).
fn exchange(
    client: &mut Client,
    request: &WireRequest,
    root: &Gomoku,
    tracing: Option<(&Tracer, u64)>,
    seen: &mut WireSeen,
    scratch: &mut Vec<u8>,
) -> Result<(u64, u64), (bool, String)> {
    let io = |e: std::io::Error| (false, format!("i/o: {e}"));
    let t0 = now_ns();
    let id = client.submit(request).map_err(io)?;
    let t_submitted = if tracing.is_some() { now_ns() } else { 0 };
    let (mut t_first, mut t_first_snapshot) = (0u64, 0u64);
    let mut last_seq = 0u64;
    let mut snapshots = 0u64;
    let mut bytes = 0u64;
    let mut count = |frame: Frame| {
        scratch.clear();
        frame.encode(scratch);
        bytes += 4 + scratch.len() as u64;
    };
    if tracing.is_some() {
        count(Frame::Submit {
            id,
            spec: request.spec,
            moves: request.moves.clone(),
            playouts: request.playouts,
            time_ms: request.time_ms,
            max_nodes: request.max_nodes,
            priority: 1,
        });
    }
    let outcome = loop {
        let event = client.recv().map_err(io)?;
        if tracing.is_some() && t_first == 0 {
            t_first = now_ns();
        }
        if event.id() != id {
            // Every earlier session already had its terminal frame.
            break Err((
                true,
                format!("frame for session {} after it ended", event.id()),
            ));
        }
        match event {
            Event::Accepted { id, shard } => {
                if tracing.is_some() {
                    count(Frame::Accepted { id, shard });
                }
            }
            Event::Snapshot { id, result } => {
                if result.seq <= last_seq {
                    break Err((
                        true,
                        format!("snapshot seq {} after {last_seq}", result.seq),
                    ));
                }
                last_seq = result.seq;
                snapshots += 1;
                if tracing.is_some() {
                    if t_first_snapshot == 0 {
                        t_first_snapshot = now_ns();
                    }
                    count(Frame::Snapshot { id, result });
                }
            }
            Event::Final {
                id,
                cancelled,
                result,
            } => {
                let t1 = now_ns();
                if cancelled || result.seq < last_seq {
                    break Err((
                        true,
                        format!("final frame cancelled={cancelled} seq {}", result.seq),
                    ));
                }
                let checked = check_result(
                    root,
                    request.playouts,
                    result.playouts,
                    &result.probs,
                    result.best_action(),
                );
                if tracing.is_some() {
                    count(Frame::Final {
                        id,
                        cancelled,
                        result,
                    });
                }
                break checked.map(|()| t1).map_err(|e| (true, e));
            }
            Event::Rejected { code, .. } => break Err((false, format!("rejected: {code:?}"))),
            Event::Failed { kind, message, .. } => {
                break Err((false, format!("failed: {kind:?} {message}")))
            }
        }
    };
    let t1 = outcome?;
    if let Some((tracer, req)) = tracing {
        let parent = tracer.span(0, req, "request", t0, t1);
        tracer.span(parent, req, "net.submit", t0, t_submitted);
        tracer.span(parent, req, "net.wait_first", t_submitted, t_first);
        tracer.span(parent, req, "net.wait_final", t_first, t1);
        seen.requests += 1;
        seen.snapshots += snapshots;
        seen.bytes += bytes;
        let first = if t_first_snapshot > 0 {
            t_first_snapshot
        } else {
            t1
        };
        seen.first_snapshot_ms.push((first - t0) as f64 * 1e-6);
    }
    Ok((t0, t1))
}

impl WireEnv {
    fn counters(&self) -> Counters {
        Counters {
            net: self.server.stats(),
            cluster: self.server.cluster().stats(),
            nn_calls: self
                .spans
                .as_ref()
                .map_or(0, |s| s.calls.load(Ordering::Relaxed)),
            nn_samples: self
                .spans
                .as_ref()
                .map_or(0, |s| s.samples.load(Ordering::Relaxed)),
        }
    }

    /// Run every client's closed loop over the wire.
    fn drive(&mut self, until: Until) -> Vec<ClientLog> {
        let (workload, cursor, n) = (self.workload, self.cursor, self.clients.len());
        let (requests, positions) = (&self.requests, &self.positions);
        let capacity = until.capacity(self.log_rate);
        let tracer = self.tracer.as_deref().filter(|t| t.enabled());
        let results: Vec<(ClientLog, WireSeen, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut log = ClientLog::with_capacity(capacity);
                        let mut seen = WireSeen::default();
                        if tracer.is_some() {
                            seen.first_snapshot_ms.reserve(capacity);
                        }
                        let mut scratch = Vec::with_capacity(4096);
                        let mut j = 0;
                        while until.more(j) {
                            let i = position_index(workload, cursor, n, c, j);
                            // Request ids are unique per (client, ordinal).
                            let tracing =
                                tracer.map(|t| (t, ((c as u64) << 32) | (cursor + j) as u64));
                            match exchange(
                                client,
                                &requests[i],
                                &positions[i].root,
                                tracing,
                                &mut seen,
                                &mut scratch,
                            ) {
                                Ok((t0, t1)) => log.done(i as u32, t0, t1),
                                Err((incorrect, why)) => log.fail(incorrect, || why),
                            }
                            j += 1;
                        }
                        (log, seen, j)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut logs = Vec::with_capacity(n);
        self.seen = WireSeen::default();
        let mut issued = 0;
        for (log, seen, j) in results {
            logs.push(log);
            issued = issued.max(j);
            self.seen.requests += seen.requests;
            self.seen.snapshots += seen.snapshots;
            self.seen.bytes += seen.bytes;
            self.seen.first_snapshot_ms.extend(seen.first_snapshot_ms);
        }
        self.cursor += issued * n;
        logs
    }

    /// The same request list through `ServeCluster::submit`, no sockets:
    /// what the stack costs without `net`, and the only place the
    /// search's own phase times are visible.
    fn drive_in_process(&mut self, dur: Duration) -> (PhaseLog, InProcess) {
        let (workload, cursor, n) = (self.workload, self.cursor, self.clients.len());
        let positions = &self.positions;
        let cluster = Arc::clone(self.server.cluster());
        let evaluator = &self.evaluator;
        let playouts = self.playouts;
        let tracer = self.tracer.as_deref().filter(|t| t.enabled());
        let until = Until::Time(Instant::now() + dur);
        let capacity = until.capacity(self.log_rate);
        let cpu0 = proc::cpu_ms();
        let t_phase = Instant::now();
        let results: Vec<(ClientLog, InProcess, usize)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|c| {
                    let cluster = &cluster;
                    scope.spawn(move || {
                        let mut log = ClientLog::with_capacity(capacity);
                        let mut acc = InProcess::default();
                        acc.submit_us.reserve(capacity);
                        let mut j = 0;
                        while until.more(j) {
                            let i = position_index(workload, cursor, n, c, j);
                            let root = &positions[i].root;
                            let request = SearchRequest::new(root.clone(), Arc::clone(evaluator))
                                .config(MctsConfig {
                                    playouts: playouts as usize,
                                    ..Default::default()
                                })
                                .budget(Budget::playouts(playouts));
                            let t0 = now_ns();
                            let ticket = match cluster.submit(request) {
                                Ok(t) => t,
                                Err(r) => {
                                    log.fail(false, || format!("shed in process: {:?}", r.reason));
                                    j += 1;
                                    continue;
                                }
                            };
                            let t1 = now_ns();
                            let r = ticket.wait();
                            let t2 = now_ns();
                            let checked = match ticket.status() {
                                TicketStatus::Done => check_result(
                                    root,
                                    playouts,
                                    r.stats.playouts,
                                    &r.probs,
                                    Some(r.best_action()),
                                )
                                .map_err(|e| (true, e)),
                                other => Err((false, format!("session ended {other:?}"))),
                            };
                            match checked {
                                Ok(()) => {
                                    log.done(i as u32, t0, t2);
                                    acc.add(&r.stats, t2 - t0, t1 - t0);
                                    if let Some(t) = tracer {
                                        let req = (1 << 63) | ((c as u64) << 32) | j as u64;
                                        let parent = t.span(0, req, "request", t0, t2);
                                        t.span(parent, req, "serve.submit", t0, t1);
                                        t.span(parent, req, "serve.wait", t1, t2);
                                    }
                                }
                                Err((incorrect, why)) => log.fail(incorrect, || why),
                            }
                            j += 1;
                        }
                        (log, acc, j)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("in-process client thread"))
                .collect()
        });
        let mut total = InProcess::default();
        let mut logs = Vec::with_capacity(n);
        let mut issued = 0;
        for (log, acc, j) in results {
            logs.push(log);
            total.merge(acc);
            issued = issued.max(j);
        }
        self.cursor += issued * n;
        let log = PhaseLog {
            clients: logs,
            playouts_per_req: playouts,
            wall_s: t_phase.elapsed().as_secs_f64(),
            cpu_ms: proc::cpu_ms() - cpu0,
        };
        (log, total)
    }
}

/// Sums over the in-process phase.
#[derive(Default)]
struct InProcess {
    stats: SearchStats,
    searches: u64,
    latency_ns: u64,
    submit_us: Vec<f64>,
}

impl InProcess {
    fn add(&mut self, s: &SearchStats, latency_ns: u64, submit_ns: u64) {
        self.searches += 1;
        self.latency_ns += latency_ns;
        self.submit_us.push(submit_ns as f64 * 1e-3);
        add_stats(&mut self.stats, s);
    }

    fn merge(&mut self, o: InProcess) {
        self.searches += o.searches;
        self.latency_ns += o.latency_ns;
        self.submit_us.extend(o.submit_us);
        add_stats(&mut self.stats, &o.stats);
    }
}

impl Env for WireEnv {
    fn setup(opts: &Opts, spec: &Spec, tracer: Option<Arc<Tracer>>) -> Self {
        let (count, min_len, max_len, cache_bytes) = match opts.workload {
            Workload::WireRepeat => (
                REPEAT_POSITIONS,
                REPEAT_STONES,
                REPEAT_STONES,
                REPEAT_CACHE_BYTES,
            ),
            _ => (UNIQUE_POSITIONS, 4, UNIQUE_MAX_STONES, UNIQUE_CACHE_BYTES),
        };
        let positions = gen::positions(opts.seed, count, min_len, max_len);
        let playouts = opts.playouts();
        let requests = positions
            .iter()
            .map(|p| {
                WireRequest::new(SPEC)
                    .moves(p.moves.clone())
                    .playouts(playouts)
            })
            .collect();

        let nn: Arc<dyn BatchEvaluator> = Arc::new(NnEvaluator::with_precision(
            model(),
            DEFAULT_NN_BATCH,
            Precision::Int8,
        ));
        let spans = tracer.as_ref().map(|t| {
            Arc::new(SpanEvaluator {
                inner: Arc::clone(&nn),
                tracer: Arc::clone(t),
                calls: AtomicU64::new(0),
                samples: AtomicU64::new(0),
            })
        });
        let evaluator: Arc<dyn BatchEvaluator> = match &spans {
            Some(s) => Arc::clone(s) as Arc<dyn BatchEvaluator>,
            None => nn,
        };
        let cluster = Arc::new(ServeCluster::new(ClusterConfig {
            shards: 1,
            shard: ServeConfig {
                eval_cache_bytes: Some(cache_bytes),
                ..Default::default()
            },
            // Admission stays in the request path, with limits no
            // closed loop of two clients can reach: nothing is shed.
            admission: Some(AdmissionConfig {
                playouts_per_sec: 1e9,
                burst_playouts: 1 << 40,
                ..Default::default()
            }),
        }));
        let factory: net::EvalFactory = {
            let evaluator = Arc::clone(&evaluator);
            Box::new(move |_spec| Arc::clone(&evaluator))
        };
        let server =
            NetServer::bind_with_factory("127.0.0.1:0", cluster, ServerConfig::default(), factory)
                .expect("bind a loopback port");
        let clients = (0..spec.clients)
            .map(|_| Client::connect(server.local_addr(), "").expect("connect over loopback"))
            .collect();
        let mut env = WireEnv {
            workload: opts.workload,
            playouts,
            log_rate: spec.log_rate,
            positions,
            requests,
            cursor: 0,
            server,
            clients,
            evaluator,
            spans,
            tracer,
            last: Default::default(),
            seen: WireSeen::default(),
        };
        for log in env.drive(Until::Count(spec.warmup)) {
            assert_eq!(log.failed, 0, "warm-up: {:?}", log.first_error);
        }
        env
    }

    fn phase(&mut self, dur: Duration) -> PhaseLog {
        let before = self.counters();
        let cpu0 = proc::cpu_ms();
        let t0 = Instant::now();
        let clients = self.drive(Until::Time(t0 + dur));
        let log = PhaseLog {
            clients,
            playouts_per_req: self.playouts,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_ms: proc::cpu_ms() - cpu0,
        };
        self.last = (before, self.counters());
        log
    }

    fn layer_metrics(&mut self, ctx: &TraceCtx, m: &mut Metrics) -> LayerOut {
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
        let (before, after) = (self.last.0.clone(), self.last.1.clone());
        let (s0, s1) = (before.cluster.total(), after.cluster.total());

        // net: what the clients saw, and the front door's own counters.
        let seen = std::mem::take(&mut self.seen);
        let mut first = seen.first_snapshot_ms;
        m.set("net.bytes_per_req", ratio(seen.bytes, seen.requests));
        m.set(
            "net.snapshots_per_req",
            ratio(seen.snapshots, seen.requests),
        );
        m.set("net.first_snapshot_p50_ms", stats::median(&mut first));
        m.set(
            "net.snapshots_shed",
            (after.net.snapshots_shed - before.net.snapshots_shed) as f64,
        );
        m.set(
            "net.rejected",
            (after.net.rejected - before.net.rejected) as f64,
        );
        m.set(
            "net.decode_errors",
            (after.net.decode_errors - before.net.decode_errors) as f64,
        );

        // serve: scheduler, batching and cache counters over the phase.
        let sessions = s1.sessions_completed - s0.sessions_completed;
        m.set("serve.steps_per_req", ratio(s1.steps - s0.steps, sessions));
        m.set(
            "serve.mean_eval_batch",
            ratio(
                s1.eval_samples - s0.eval_samples,
                s1.eval_batches - s0.eval_batches,
            ),
        );
        if let Some(t) = after.cluster.autotune.first() {
            m.set("serve.tuner_batch", t.batch as f64);
            m.set("serve.tuner_window_us", t.window_us as f64);
        }
        let (hits, misses) = (
            s1.cache_hits - s0.cache_hits,
            s1.cache_misses - s0.cache_misses,
        );
        let hit_rate = ratio(hits, hits + misses);
        m.set("serve.cache_hit_rate", hit_rate);
        m.set(
            "serve.cache_evictions",
            (s1.cache_evictions - s0.cache_evictions) as f64,
        );
        m.set(
            "serve.shed",
            (after.cluster.shed() - before.cluster.shed()) as f64,
        );
        m.set(
            "serve.sessions_failed",
            (s1.sessions_failed - s0.sessions_failed) as f64,
        );

        // nn: the wrapper's counts, and the share of the phase's wall
        // time during which at least one batch was inside the model.
        let calls = after.nn_calls - before.nn_calls;
        m.set("nn.eval_calls", calls as f64);
        m.set(
            "nn.eval_mean_batch",
            ratio(after.nn_samples - before.nn_samples, calls),
        );
        let (lo, hi) = phase_bounds(ctx.traced);
        let mut batches: Vec<(u64, u64)> = ctx
            .spans
            .iter()
            .filter(|s| s.name == "nn.evaluate_batch")
            .map(|s: &Span| (s.start_ns, s.end_ns))
            .collect();
        let busy = ratio(stats::union_len(&mut batches, lo, hi), hi - lo);
        m.set("nn.eval_busy_share", busy);

        // The same requests without sockets.
        if let Some(t) = &self.tracer {
            t.set_enabled(true);
        }
        let (inproc_log, inproc) = self.drive_in_process(ctx.extra);
        if let Some(t) = &self.tracer {
            t.set_enabled(false);
        }
        let inproc_p50 = summarise(&inproc_log, ctx.spec).req_p50_ms;
        let st = inproc.stats;
        let mut submit_us = inproc.submit_us;
        m.set("serve.inproc_p50_ms", inproc_p50);
        m.set("serve.submit_us", stats::median(&mut submit_us));
        m.set(
            "serve.overhead_share",
            1.0 - ratio(st.move_ns, inproc.latency_ns),
        );
        m.set("net.wire_tax_ms", ctx.summary.req_p50_ms - inproc_p50);
        m.set(
            "mcts.select_ns_per_playout",
            ratio(st.select_ns, st.playouts),
        );
        m.set(
            "mcts.backup_ns_per_playout",
            ratio(st.backup_ns, st.playouts),
        );
        m.set("mcts.eval_ns_per_playout", ratio(st.eval_ns, st.playouts));
        m.set("mcts.nodes_per_search", ratio(st.nodes, inproc.searches));
        m.set(
            "mcts.tt_hits_per_kplayout",
            ratio(st.tt_hits * 1000, st.playouts),
        );

        let mut violations = Vec::new();
        let mut require = |ok: bool, what: String| {
            if !ok {
                violations.push(what);
            }
        };
        match self.workload {
            Workload::WireUnique => {
                require(
                    busy >= 0.5,
                    format!("wire_unique nn.eval_busy_share {busy:.3} < 0.5"),
                );
                require(
                    hit_rate <= 0.2,
                    format!("wire_unique serve.cache_hit_rate {hit_rate:.3} > 0.2"),
                );
            }
            _ => {
                require(
                    hit_rate >= 0.9,
                    format!("wire_repeat serve.cache_hit_rate {hit_rate:.3} < 0.9"),
                );
                require(
                    busy <= 0.2,
                    format!("wire_repeat nn.eval_busy_share {busy:.3} > 0.2"),
                );
            }
        }
        LayerOut {
            violations,
            in_program_ms: ratio(st.select_ns + st.backup_ns + st.eval_ns, inproc.searches) * 1e-6,
            over_the_wire: true,
            extra_logs: vec![inproc_log],
        }
    }

    fn teardown(mut self) {
        for client in self.clients.drain(..) {
            // A failed goodbye only means the socket is already closed.
            let _ = client.goodbye();
        }
        self.server.shutdown(Duration::from_secs(5));
    }
}

/// First request start and last request end of a phase.
fn phase_bounds(log: &PhaseLog) -> (u64, u64) {
    let lo = log
        .clients
        .iter()
        .filter_map(|c| c.starts_ns.first().copied())
        .min()
        .unwrap_or(0);
    let hi = log
        .clients
        .iter()
        .filter_map(|c| c.ends_ns.last().copied())
        .max()
        .unwrap_or(lo);
    (lo, hi)
}
