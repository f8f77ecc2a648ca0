//! Golden differential test for searches under an evicting memory bound.
//!
//! The companion of `tests/scheme_golden.rs`: the same three-move
//! search → advance sequences over every scheme, on TicTacToe with a
//! 120-slot tree and on 9×9 Gomoku with a 2 000-slot tree, once with
//! uniform priors and once with a deterministic hash-seeded evaluator.
//! The bound is in bytes (`slots × NodeArena::slot_bytes()`) and tight
//! enough that the single-owner trees evict cold subtrees mid-search.
//! It reaches the searcher two ways: as `MctsConfig::arena_budget_bytes`
//! on the built searcher (`cfg`), and as a per-run
//! `Budget::with_max_bytes` passed to `begin` (`run`).
//!
//! Recorded exactly (`visits`, `probs`, `value`, `playouts`, `nodes`,
//! `reclaimed`): serial, serial + reuse, root-parallel (2 workers),
//! leaf-parallel and speculative. Local-tree interleaves its playouts
//! nondeterministically: `playouts` and Σ`visits` are recorded and
//! `nodes ≤ bound` is asserted. Shared-tree pre-sizes its arena and
//! never evicts, so it runs under a bound no smaller than its worst case
//! and records `playouts` and Σ`visits`.
//!
//! On a mismatch the actual rendering is written to
//! `$CARGO_TARGET_TMPDIR/bound_golden.actual.txt`; if the change in
//! behaviour is intended, copy that file over the golden one.

use adaptive_dnn_mcts::mcts::{NodeArena, StepOutcome};
use adaptive_dnn_mcts::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/bound_golden.txt");
const MOVES: usize = 3;
const WORKERS: usize = 2;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Priors and value drawn from a xorshift stream seeded by the hash of
/// the encoded input: position-dependent, repeatable and far from
/// uniform.
struct HashEval {
    input_len: usize,
    actions: usize,
}

impl HashEval {
    fn for_game<G: Game>(g: &G) -> Self {
        HashEval {
            input_len: g.encoded_len(),
            actions: g.action_space(),
        }
    }
}

impl BatchEvaluator for HashEval {
    fn input_len(&self) -> usize {
        self.input_len
    }

    fn action_space(&self) -> usize {
        self.actions
    }

    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        for (x, o) in inputs.iter().zip(out.iter_mut()) {
            assert_eq!(x.len(), self.input_len);
            let mut s = x
                .iter()
                .fold(FNV_OFFSET, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
                | 1;
            let mut next = || {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 40) as f32 / (1u64 << 24) as f32
            };
            o.priors.clear();
            o.priors.extend((0..self.actions).map(|_| next() + 0.01));
            let sum: f32 = o.priors.iter().sum();
            o.priors.iter_mut().for_each(|p| *p /= sum);
            o.value = (next() * 2.0 - 1.0) * 0.9;
        }
    }
}

/// How the byte bound reaches a searcher.
#[derive(Clone, Copy)]
enum Route {
    /// `MctsConfig::arena_budget_bytes` on the built searcher.
    Config,
    /// `Budget::with_max_bytes` on every `begin`.
    PerRun,
}

impl Route {
    fn name(self) -> &'static str {
        match self {
            Route::Config => "cfg",
            Route::PerRun => "run",
        }
    }
}

/// The seven searchers under test (the six schemes plus serial + reuse),
/// each with the slot bound it runs under.
fn searchers<G: Game>(
    root: &G,
    route: Route,
    playouts: usize,
    slots: usize,
    eval: &Arc<dyn BatchEvaluator>,
) -> Vec<(Box<dyn SearchScheme<G>>, usize)> {
    let build = |scheme: Scheme, reuse: bool| {
        let base = MctsConfig {
            playouts,
            workers: if scheme == Scheme::Serial { 1 } else { WORKERS },
            ..Default::default()
        };
        // The shared tree pre-sizes its arena and cannot evict: it gets
        // room for its worst case.
        let bound = if scheme == Scheme::SharedTree {
            base.arena_capacity(root.action_space())
        } else {
            slots
        };
        let cfg = match route {
            Route::Config => MctsConfig {
                arena_budget_bytes: Some(bound * NodeArena::slot_bytes()),
                ..base
            },
            Route::PerRun => base,
        };
        let searcher = SearchBuilder::new(scheme)
            .config(cfg)
            .reuse(reuse)
            .evaluator(Arc::clone(eval))
            .build::<G>();
        (searcher, bound)
    };
    let mut all: Vec<_> = Scheme::ALL.iter().map(|&s| build(s, false)).collect();
    all.insert(1, build(Scheme::Serial, true));
    all
}

fn run<G: Game>(s: &mut dyn SearchScheme<G>, root: &G, route: Route, bound: usize) -> SearchResult {
    let budget = match route {
        Route::Config => Budget::default(),
        Route::PerRun => Budget::default().with_max_bytes(bound * NodeArena::slot_bytes()),
    };
    s.begin(root, budget);
    while s.step(usize::MAX) == StepOutcome::Running {}
    let result = s.partial_result();
    s.cancel();
    result
}

fn record<G: Game>(out: &mut String, game: &str, root: &G, playouts: usize, slots: usize) {
    let evals: [(&str, Arc<dyn BatchEvaluator>); 2] = [
        ("uniform", Arc::new(UniformEvaluator::for_game(root))),
        ("hashed", Arc::new(HashEval::for_game(root))),
    ];
    for route in [Route::Config, Route::PerRun] {
        for (eval_name, eval) in &evals {
            for (mut s, bound) in searchers(root, route, playouts, slots, eval) {
                let name = s.name();
                let exact = !matches!(name, "shared-tree" | "local-tree");
                let mut g = root.clone();
                for mv in 0..MOVES {
                    let r = run(s.as_mut(), &g, route, bound);
                    let tag = format!("{game} {} {eval_name} {name} move={mv}", route.name());
                    write!(out, "{tag} playouts={}", r.stats.playouts).unwrap();
                    let action = if exact {
                        let probs = r
                            .probs
                            .iter()
                            .fold(FNV_OFFSET, |h, p| fnv1a(h, &p.to_bits().to_le_bytes()));
                        let visits: Vec<String> = r.visits.iter().map(u32::to_string).collect();
                        writeln!(
                            out,
                            " nodes={} reclaimed={} value={:08x} probs={probs:016x} visits={}",
                            r.stats.nodes,
                            r.stats.reclaimed,
                            r.value.to_bits(),
                            visits.join(",")
                        )
                        .unwrap();
                        r.best_action()
                    } else {
                        if name == "local-tree" {
                            assert!(
                                r.stats.nodes as usize <= bound,
                                "{tag}: {} nodes over a {bound}-slot bound",
                                r.stats.nodes
                            );
                        }
                        writeln!(out, " visit_sum={}", r.visits.iter().sum::<u32>()).unwrap();
                        // Their best action depends on thread interleaving;
                        // a fixed reply keeps the later roots repeatable.
                        g.legal_actions()[0]
                    };
                    assert!(g.is_legal(action), "{tag}");
                    s.advance(action);
                    g.apply(action);
                }
            }
        }
    }
}

#[test]
fn bounded_searches_reproduce_their_recorded_results() {
    let mut actual = String::new();
    record(&mut actual, "tictactoe", &TicTacToe::new(), 96, 120);
    record(&mut actual, "gomoku9", &Gomoku::new(9, 5), 128, 2_000);
    // The bounds must bind: every exact single-owner line that could
    // evict did, somewhere in the file.
    assert!(
        actual
            .lines()
            .any(|l| l.contains(" serial ") && !l.contains("reclaimed=0 ")),
        "the byte bounds never evicted"
    );
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("bound_golden.actual.txt");
    std::fs::write(&path, &actual).expect("write actual rendering");
    let line = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "search results differ from tests/golden/bound_golden.txt at line {}:\n  actual: {}\n  golden: {}\nfull actual rendering: {}",
        line + 1,
        actual.lines().nth(line).unwrap_or("<missing>"),
        GOLDEN.lines().nth(line).unwrap_or("<missing>"),
        path.display()
    );
}
