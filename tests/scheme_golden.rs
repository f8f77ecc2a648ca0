//! Golden differential test over every search scheme.
//!
//! Each scheme is built through [`SearchBuilder`] (plus serial with
//! `.reuse(true)`) and driven through a three-move search → advance
//! sequence on TicTacToe and 9×9 Gomoku, once with uniform priors and
//! once with a deterministic hash-seeded evaluator. The exact `visits`,
//! `probs`, `value`, `stats.playouts`, `stats.nodes` and
//! `stats.reclaimed` of every search are rendered to text and compared
//! with `tests/golden/scheme_golden.txt`, so a refactor of the playout
//! loop or the evaluator plumbing must leave every recorded value
//! bit-identical. Shared-tree and local-tree interleave their playouts
//! nondeterministically; for them only `playouts` and Σ`visits` are
//! recorded.
//!
//! On a mismatch the actual rendering is written to
//! `$CARGO_TARGET_TMPDIR/scheme_golden.actual.txt`; if the change in
//! behaviour is intended, copy that file over the golden one.

use adaptive_dnn_mcts::prelude::*;
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/scheme_golden.txt");
const MOVES: usize = 3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Priors and value drawn from a xorshift stream seeded by the hash of
/// the encoded input: position-dependent, repeatable, and far from
/// uniform, so prior masking, value backup and the speculative
/// scheme's corrections all show up in the recorded numbers.
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

/// The seven searchers under test: the six schemes plus serial + reuse.
fn searchers<G: Game>(
    playouts: usize,
    eval: &Arc<dyn BatchEvaluator>,
) -> Vec<Box<dyn SearchScheme<G>>> {
    let build = |scheme: Scheme, reuse: bool| {
        SearchBuilder::new(scheme)
            .playouts(playouts)
            .workers(if scheme == Scheme::Serial { 1 } else { 2 })
            .reuse(reuse)
            .evaluator(Arc::clone(eval))
            .build::<G>()
    };
    let mut all: Vec<_> = Scheme::ALL.iter().map(|&s| build(s, false)).collect();
    all.insert(1, build(Scheme::Serial, true));
    all
}

fn record<G: Game>(out: &mut String, game: &str, root: &G, playouts: usize) {
    let evals: [(&str, Arc<dyn BatchEvaluator>); 2] = [
        ("uniform", Arc::new(UniformEvaluator::for_game(root))),
        ("hashed", Arc::new(HashEval::for_game(root))),
    ];
    for (eval_name, eval) in &evals {
        for mut s in searchers::<G>(playouts, eval) {
            let name = s.name();
            let exact = !matches!(name, "shared-tree" | "local-tree");
            let mut g = root.clone();
            for mv in 0..MOVES {
                let r = s.search(&g);
                write!(
                    out,
                    "{game} {eval_name} {name} move={mv} playouts={}",
                    r.stats.playouts
                )
                .unwrap();
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
                    writeln!(out, " visit_sum={}", r.visits.iter().sum::<u32>()).unwrap();
                    // Their best action depends on thread interleaving;
                    // a fixed reply keeps the later roots repeatable.
                    g.legal_actions()[0]
                };
                assert!(g.is_legal(action), "{game} {eval_name} {name} move {mv}");
                s.advance(action);
                g.apply(action);
            }
        }
    }
}

#[test]
fn every_scheme_reproduces_its_recorded_searches() {
    let mut actual = String::new();
    record(&mut actual, "tictactoe", &TicTacToe::new(), 96);
    record(&mut actual, "gomoku9", &Gomoku::new(9, 5), 128);
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("scheme_golden.actual.txt");
    std::fs::write(&path, &actual).expect("write actual rendering");
    let line = actual
        .lines()
        .zip(GOLDEN.lines())
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.lines().count().min(GOLDEN.lines().count()));
    panic!(
        "search results differ from tests/golden/scheme_golden.txt at line {}:\n  actual: {}\n  golden: {}\nfull actual rendering: {}",
        line + 1,
        actual.lines().nth(line).unwrap_or("<missing>"),
        GOLDEN.lines().nth(line).unwrap_or("<missing>"),
        path.display()
    );
}
