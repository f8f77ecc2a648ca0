//! One self-play episode (Algorithm 1, lines 3–12): play a full game with
//! tree-based search choosing every move, collecting `(s, π)` pairs and
//! labeling them with the final outcome `z`.

use games::{Game, Player, Status};
use mcts::{SearchScheme, SearchStats};
use rand::Rng;

use crate::replay::Sample;

/// Result of one episode.
#[derive(Debug, Clone)]
pub struct EpisodeOutcome {
    /// Training samples in move order.
    pub samples: Vec<Sample>,
    /// Number of moves played.
    pub moves: usize,
    /// Final status of the game.
    pub status: Status,
    /// Accumulated search statistics over all moves.
    pub search_stats: SearchStats,
}

/// Play one episode from `initial` using `search` for every move.
///
/// * `temperature_moves`: moves sampled with temperature 1.0 (exploration)
///   before switching to greedy play, the standard AlphaZero schedule.
/// * `max_moves`: hard cap (states beyond get labeled as a draw), needed
///   on large boards where random-priors games can run very long.
pub fn play_episode<G: Game, R: Rng + ?Sized>(
    initial: &G,
    search: &mut dyn SearchScheme<G>,
    temperature_moves: usize,
    max_moves: usize,
    rng: &mut R,
) -> EpisodeOutcome {
    let mut game = initial.clone();
    let mut pending: Vec<(Vec<f32>, Vec<f32>, Player)> = Vec::new();
    let mut stats = SearchStats::default();
    let mut moves = 0usize;
    // A fresh episode: stateful schemes drop any tree retained from a
    // previous episode played with the same searcher.
    search.reset();

    while game.status() == Status::Ongoing && moves < max_moves {
        let result = search.search(&game);
        accumulate(&mut stats, &result.stats);

        let mut state = vec![0.0f32; game.encoded_len()];
        game.encode(&mut state);
        pending.push((state, result.probs.clone(), game.to_move()));

        let temperature = if moves < temperature_moves { 1.0 } else { 0.0 };
        let action = result.sample_action(temperature, rng);
        debug_assert!(game.is_legal(action), "search proposed illegal move");
        game.apply(action);
        // Stateful schemes (tree reuse) re-root on the played move.
        search.advance(action);
        moves += 1;
    }

    let status = game.status();
    let samples = pending
        .into_iter()
        .map(|(state, pi, player)| Sample {
            state,
            pi,
            z: status.reward_for(player),
        })
        .collect();

    EpisodeOutcome {
        samples,
        moves,
        status,
        search_stats: stats,
    }
}

fn accumulate(total: &mut SearchStats, s: &SearchStats) {
    total.playouts += s.playouts;
    total.select_ns += s.select_ns;
    total.backup_ns += s.backup_ns;
    total.eval_ns += s.eval_ns;
    total.move_ns += s.move_ns;
    total.collisions += s.collisions;
    total.nodes += s.nodes;
    // Re-rooting schemes report nodes recycled onto the arena free-list;
    // the episode total quantifies how much memory tree reuse saved.
    total.reclaimed += s.reclaimed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use games::tictactoe::TicTacToe;
    use mcts::{evaluator::UniformEvaluator, MctsConfig, ReusableSearch};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn searcher(playouts: usize) -> ReusableSearch {
        ReusableSearch::one_shot(
            MctsConfig {
                playouts,
                ..Default::default()
            },
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        )
    }

    #[test]
    fn episode_reaches_terminal_state() {
        let mut s = searcher(50);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let out = play_episode(&TicTacToe::new(), &mut s, 2, 20, &mut rng);
        assert!(out.status.is_terminal());
        assert_eq!(out.samples.len(), out.moves);
        assert!(out.moves >= 5, "TicTacToe needs ≥5 moves to finish");
    }

    #[test]
    fn outcomes_labeled_per_player_perspective() {
        let mut s = searcher(100);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..5 {
            let out = play_episode(&TicTacToe::new(), &mut s, 1, 20, &mut rng);
            match out.status {
                Status::Draw => {
                    assert!(out.samples.iter().all(|x| x.z == 0.0));
                }
                Status::Won(w) => {
                    // Alternating perspectives: samples where the winner
                    // was to move get +1, the loser's get -1.
                    for (i, sample) in out.samples.iter().enumerate() {
                        let mover = if i % 2 == 0 {
                            Player::Black
                        } else {
                            Player::White
                        };
                        let expect = if mover == w { 1.0 } else { -1.0 };
                        assert_eq!(sample.z, expect, "sample {i}");
                    }
                }
                Status::Ongoing => panic!("episode did not finish"),
            }
        }
    }

    #[test]
    fn pi_vectors_are_distributions() {
        let mut s = searcher(60);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let out = play_episode(&TicTacToe::new(), &mut s, 9, 20, &mut rng);
        for sample in &out.samples {
            let sum: f32 = sample.pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4, "pi sums to {sum}");
            assert!(sample.pi.iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn max_moves_caps_episode() {
        let mut s = searcher(20);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let out = play_episode(&TicTacToe::new(), &mut s, 9, 3, &mut rng);
        assert_eq!(out.moves, 3);
        // Capped episodes are labeled like draws (z = 0 for ongoing).
        assert!(out.samples.iter().all(|x| x.z == 0.0));
    }

    #[test]
    fn reuse_episode_reports_reclaimed_nodes() {
        let mut s = ReusableSearch::new(
            MctsConfig {
                playouts: 60,
                ..Default::default()
            },
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let out = play_episode(&TicTacToe::new(), &mut s, 2, 20, &mut rng);
        assert!(out.status.is_terminal());
        assert!(
            out.search_stats.reclaimed > 0,
            "in-place re-rooting must reclaim discarded siblings"
        );
        // The retained tree's accounting stays closed.
        let stats = s.tree_stats().expect("tree retained after episode");
        assert_eq!(stats.live + stats.free, stats.high_water);
        assert!(stats.reclaimed_total >= out.search_stats.reclaimed);
    }

    #[test]
    fn search_stats_accumulate_across_moves() {
        let mut s = searcher(30);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let out = play_episode(&TicTacToe::new(), &mut s, 2, 20, &mut rng);
        assert_eq!(out.search_stats.playouts, 30 * out.moves as u64);
        assert!(out.search_stats.move_ns > 0);
    }
}
