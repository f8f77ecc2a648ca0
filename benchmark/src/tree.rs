//! The library embedder's workloads: one thread calling `mcts` per move
//! with the uniform evaluator, so tree operations and `games` do all the
//! work. `tree_fresh` builds a new tree per request; `tree_stream` keeps
//! one `ReusableSearch` under a byte budget and re-roots it.

use crate::core::{add_stats, now_ns, ClientLog, Opts, PhaseLog, Spec, Workload};
use crate::gen::{self, Position};
use crate::metrics::Metrics;
use crate::run::{Env, LayerOut, TraceCtx, MIN_REQUESTS};
use crate::trace::Tracer;
use crate::verify::{check_result, Digest};
use crate::{proc, trace};
use games::gomoku::Gomoku;
use games::Game;
use mcts::{
    MctsConfig, ReusableSearch, Scheme, SearchBuilder, SearchResult, SearchScheme, SearchStats,
    UniformEvaluator,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct positions of `tree_fresh`; the request stream cycles through
/// them, so a 30 s run searches each about eighty times and the quiet
/// time of every one of them is well determined.
const FRESH_POSITIONS: usize = 64;
/// Distinct openings of `tree_stream`; the games played from them (the
/// search is deterministic) repeat in a cycle of about 500 requests.
const STREAM_OPENINGS: usize = 32;
/// Arena budget of `tree_stream`: small enough that a 256-playout search
/// on a 9×9 board cannot fit without recycling cold subtrees.
pub const STREAM_ARENA_BYTES: usize = 512 << 10;
/// `tree_stream` opens its games with at most this many stones and starts
/// a new one at `STREAM_MAX_STONES` even if nobody has won: with fewer
/// than 57 legal moves, 256 expansions stop overflowing the arena's
/// ~11 000 slots and the workload would stop exercising eviction.
const STREAM_MAX_OPENING: usize = 12;
const STREAM_MAX_STONES: usize = 24;

// One value per process; boxing the large variant would only add a hop.
#[allow(clippy::large_enum_variant)]
enum Searcher {
    Fresh(Box<dyn SearchScheme<Gomoku>>),
    Stream {
        search: ReusableSearch,
        game: Gomoku,
        /// Which opening `game` started from.
        opening: usize,
        result: SearchResult,
    },
}

/// Sums over the requests of the latest phase (a handful of adds per
/// request, kept on in every phase so traced and untraced phases run
/// the same harness code).
#[derive(Default, Clone, Copy)]
struct Acc {
    stats: SearchStats,
    searches: u64,
    evicted: u64,
    cycles_evicting: u64,
    advance_ns: u64,
    advances: u64,
}

pub struct TreeEnv {
    searcher: Searcher,
    playouts: u64,
    log_rate: usize,
    positions: Vec<Position>,
    next_position: usize,
    digest: Digest,
    digest_left: usize,
    tracer: Option<Arc<Tracer>>,
    requests: u64,
    acc: Acc,
}

impl TreeEnv {
    /// One request: search, check the answer, and (stream) play the move.
    fn request(&mut self, log: &mut ClientLog) {
        self.requests += 1;
        let req = self.requests;
        let tracing = self.tracer.as_deref().filter(|t| t.enabled());
        let playouts = self.playouts;
        match &mut self.searcher {
            Searcher::Fresh(search) => {
                let slot = self.next_position;
                let root = &self.positions[slot].root;
                self.next_position = (slot + 1) % self.positions.len();
                let t0 = now_ns();
                let r = search.search(root);
                let t1 = now_ns();
                let best = r.best_action();
                match check_result(root, playouts, r.stats.playouts, &r.probs, Some(best)) {
                    Ok(()) => log.done(slot as u32, t0, t1),
                    Err(e) => log.fail(true, || e),
                }
                if self.digest_left > 0 {
                    self.digest.push(best);
                    self.digest_left -= 1;
                }
                self.acc.searches += 1;
                add_stats(&mut self.acc.stats, &r.stats);
                if let Some(t) = tracing {
                    let parent = t.span(0, req, "request", t0, t1);
                    t.span(parent, req, "mcts.search", t0, t1);
                }
            }
            Searcher::Stream {
                search,
                game,
                opening,
                result,
            } => {
                // The same move of the same game is the same work.
                let slot = (*opening * STREAM_MAX_STONES + game.move_count()) as u32;
                let evicted_before = search.tree_stats().map_or(0, |s| s.evicted);
                let t0 = now_ns();
                search.search_into(game, result);
                let t1 = now_ns();
                let best = result.best_action();
                match check_result(
                    game,
                    playouts,
                    result.stats.playouts,
                    &result.probs,
                    Some(best),
                ) {
                    Ok(()) => log.done(slot, t0, t1),
                    Err(e) => log.fail(true, || e),
                }
                if self.digest_left > 0 {
                    self.digest.push(best);
                    self.digest_left -= 1;
                }
                self.acc.searches += 1;
                add_stats(&mut self.acc.stats, &result.stats);
                let evicted = search.tree_stats().map_or(0, |s| s.evicted) - evicted_before;
                self.acc.evicted += evicted;
                self.acc.cycles_evicting += (evicted > 0) as u64;

                let t2 = now_ns();
                game.apply(best);
                let over = game.status().is_terminal() || game.move_count() >= STREAM_MAX_STONES;
                if over {
                    *opening = self.next_position;
                    *game = self.positions[*opening].root.clone();
                    self.next_position = (*opening + 1) % self.positions.len();
                    search.reset();
                } else {
                    search.advance(best);
                }
                let t3 = now_ns();
                self.acc.advance_ns += t3 - t2;
                self.acc.advances += 1;
                if let Some(t) = tracing {
                    let parent = t.span(0, req, "request", t0, t3);
                    t.span(parent, req, "mcts.search", t0, t1);
                    t.span(parent, req, "mcts.advance", t2, t3);
                }
            }
        }
    }
}

impl Env for TreeEnv {
    fn setup(opts: &Opts, spec: &Spec, tracer: Option<Arc<Tracer>>) -> Self {
        let (count, max_opening) = match opts.workload {
            Workload::TreeFresh => (FRESH_POSITIONS, 24),
            _ => (STREAM_OPENINGS, STREAM_MAX_OPENING),
        };
        let positions = gen::positions(opts.seed, count, 4, max_opening);
        let playouts = opts.playouts();
        let evaluator = Arc::new(UniformEvaluator::for_game(&gen::empty_board()));
        let searcher = match opts.workload {
            Workload::TreeFresh => Searcher::Fresh(
                SearchBuilder::new(Scheme::Serial)
                    .playouts(playouts as usize)
                    .evaluator(evaluator)
                    .build::<Gomoku>(),
            ),
            _ => Searcher::Stream {
                search: ReusableSearch::new(
                    MctsConfig {
                        playouts: playouts as usize,
                        arena_budget_bytes: Some(STREAM_ARENA_BYTES),
                        ..Default::default()
                    },
                    evaluator,
                ),
                game: positions[0].root.clone(),
                opening: 0,
                result: SearchResult::default(),
            },
        };
        let mut env = TreeEnv {
            searcher,
            playouts,
            log_rate: spec.log_rate,
            next_position: matches!(opts.workload, Workload::TreeStream) as usize,
            positions,
            digest: Digest::default(),
            digest_left: spec.warmup + MIN_REQUESTS,
            tracer,
            requests: 0,
            acc: Acc::default(),
        };
        let mut warm = ClientLog::with_capacity(spec.warmup);
        for _ in 0..spec.warmup {
            env.request(&mut warm);
        }
        assert_eq!(warm.failed, 0, "warm-up: {:?}", warm.first_error);
        env
    }

    fn phase(&mut self, dur: Duration) -> PhaseLog {
        self.acc = Acc::default();
        let capacity = (dur.as_secs_f64() * self.log_rate as f64) as usize + MIN_REQUESTS;
        let mut log = ClientLog::with_capacity(capacity);
        let cpu0 = proc::cpu_ms();
        let t0 = Instant::now();
        let mut issued = 0;
        while issued < MIN_REQUESTS || t0.elapsed() < dur {
            self.request(&mut log);
            issued += 1;
        }
        PhaseLog {
            clients: vec![log],
            playouts_per_req: self.playouts,
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_ms: proc::cpu_ms() - cpu0,
        }
    }

    fn digest(&self) -> Option<u64> {
        Some(self.digest.value())
    }

    fn layer_metrics(&mut self, ctx: &TraceCtx, m: &mut Metrics) -> LayerOut {
        let a = self.acc;
        let per = |sum: u64, n: u64| if n > 0 { sum as f64 / n as f64 } else { 0.0 };
        let st = a.stats;
        m.set("mcts.select_ns_per_playout", per(st.select_ns, st.playouts));
        m.set("mcts.backup_ns_per_playout", per(st.backup_ns, st.playouts));
        m.set("mcts.eval_ns_per_playout", per(st.eval_ns, st.playouts));
        m.set("mcts.nodes_per_search", per(st.nodes, a.searches));
        m.set("mcts.evicted_per_cycle", per(a.evicted, a.searches));
        m.set("mcts.reclaimed_per_cycle", per(st.reclaimed, a.searches));
        m.set("mcts.advance_us", per(a.advance_ns, a.advances) * 1e-3);
        m.set(
            "mcts.tt_hits_per_kplayout",
            per(st.tt_hits * 1000, st.playouts),
        );

        println!(
            "{}: evicted in {} of {} cycles",
            ctx.spec.name, a.cycles_evicting, a.searches
        );
        let mut violations = Vec::new();
        let nn_spans = trace::durations_ms(ctx.spans, "nn.evaluate_batch").len();
        if nn_spans > 0 {
            violations.push(format!(
                "{nn_spans} nn.evaluate_batch spans on a tree workload"
            ));
        }
        match ctx.opts.workload {
            Workload::TreeFresh if st.reclaimed + a.evicted > 0 => {
                violations.push(format!(
                    "tree_fresh reclaimed {} nodes; it must only grow",
                    st.reclaimed + a.evicted
                ));
            }
            // A position with a win on the board ends most playouts at a
            // terminal node and may fit the arena; anything more than a
            // few of those means the budget no longer binds.
            Workload::TreeStream if a.cycles_evicting * 10 < a.searches * 9 => {
                violations.push(format!(
                    "tree_stream evicted in {} of {} cycles; it must evict in nine of ten",
                    a.cycles_evicting, a.searches
                ));
            }
            _ => {}
        }
        LayerOut {
            violations,
            // The rungs of an in-process request are the three phases
            // the search times itself; root clone, result vectors and
            // arena set-up and tear-down are the residual.
            in_program_ms: per(st.select_ns + st.backup_ns + st.eval_ns, a.searches) * 1e-6,
            over_the_wire: false,
            extra_logs: Vec::new(),
        }
    }
}
