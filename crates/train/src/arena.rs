//! Head-to-head evaluation arena: pit two search agents against each
//! other over many games, alternating colors. Used to measure whether a
//! trained network (or a different parallel configuration) actually plays
//! better — the behavioural counterpart of Figure 7's loss curves.

use games::{Game, Player, Status};
use mcts::SearchScheme;
use rand::Rng;

/// Aggregate result of a match, from agent A's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchResult {
    /// Games won by agent A.
    pub wins_a: u32,
    /// Games won by agent B.
    pub wins_b: u32,
    /// Drawn (or length-capped) games.
    pub draws: u32,
}

impl MatchResult {
    /// Total games played.
    pub fn games(&self) -> u32 {
        self.wins_a + self.wins_b + self.draws
    }

    /// A's score in [0, 1]: wins + half-draws over games.
    pub fn score_a(&self) -> f64 {
        if self.games() == 0 {
            return 0.5;
        }
        (self.wins_a as f64 + 0.5 * self.draws as f64) / self.games() as f64
    }
}

/// The Elo rating difference implied by a match score `s ∈ (0, 1)`:
/// `diff = 400·log₁₀(s / (1 − s))`. Scores are clamped away from 0/1 so a
/// clean sweep maps to a large-but-finite difference.
pub fn elo_diff(score: f64) -> f64 {
    let s = score.clamp(1e-3, 1.0 - 1e-3);
    400.0 * (s / (1.0 - s)).log10()
}

/// Incremental Elo ratings for a league of agents (e.g. successive
/// checkpoints of a training run).
#[derive(Debug, Clone)]
pub struct EloTracker {
    ratings: Vec<f64>,
    k: f64,
}

impl EloTracker {
    /// `n` agents starting at 1500 with update factor `k` (32 is standard).
    pub fn new(n: usize, k: f64) -> Self {
        assert!(k > 0.0, "K factor must be positive");
        EloTracker {
            ratings: vec![1500.0; n],
            k,
        }
    }

    /// Current rating of agent `i`.
    pub fn rating(&self, i: usize) -> f64 {
        self.ratings[i]
    }

    /// Expected score of `i` against `j` under the logistic Elo model.
    pub fn expected(&self, i: usize, j: usize) -> f64 {
        1.0 / (1.0 + 10f64.powf((self.ratings[j] - self.ratings[i]) / 400.0))
    }

    /// Record a result: `score_i ∈ [0, 1]` is agent `i`'s score against
    /// agent `j` (1 = win, 0.5 = draw, 0 = loss; match averages work too).
    pub fn record(&mut self, i: usize, j: usize, score_i: f64) {
        assert!(i != j, "an agent cannot play itself");
        assert!((0.0..=1.0).contains(&score_i), "score in [0,1]");
        let e = self.expected(i, j);
        let delta = self.k * (score_i - e);
        self.ratings[i] += delta;
        self.ratings[j] -= delta;
    }
}

/// Play `games` between two agents, alternating who takes Black. Moves
/// are sampled with `temperature` for the first `temperature_moves` plies
/// of each game (0.0 ⇒ fully greedy, deterministic matches).
#[allow(clippy::too_many_arguments)]
pub fn play_match<G: Game, R: Rng + ?Sized>(
    initial: &G,
    agent_a: &mut dyn SearchScheme<G>,
    agent_b: &mut dyn SearchScheme<G>,
    games: u32,
    temperature: f32,
    temperature_moves: usize,
    max_moves: usize,
    rng: &mut R,
) -> MatchResult {
    let mut result = MatchResult::default();
    for round in 0..games {
        let a_is_black = round % 2 == 0;
        let mut game = initial.clone();
        let mut moves = 0usize;
        // A fresh game: stateful agents (tree reuse) must drop any tree
        // retained from the previous round.
        agent_a.reset();
        agent_b.reset();
        while game.status() == Status::Ongoing && moves < max_moves {
            let a_turn = (game.to_move() == Player::Black) == a_is_black;
            let search = if a_turn {
                agent_a.search(&game)
            } else {
                agent_b.search(&game)
            };
            let t = if moves < temperature_moves {
                temperature
            } else {
                0.0
            };
            let action = search.sample_action(t, rng);
            debug_assert!(game.is_legal(action));
            game.apply(action);
            // Both agents observe the move actually played, so reuse
            // trees track the game through the opponent's turns too.
            agent_a.advance(action);
            agent_b.advance(action);
            moves += 1;
        }
        let a_player = if a_is_black {
            Player::Black
        } else {
            Player::White
        };
        match game.status() {
            Status::Won(w) if w == a_player => result.wins_a += 1,
            Status::Won(_) => result.wins_b += 1,
            _ => result.draws += 1,
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use games::tictactoe::TicTacToe;
    use mcts::{MctsConfig, ReusableSearch, UniformEvaluator};
    use rand::SeedableRng;
    use std::sync::Arc;

    fn agent(playouts: usize) -> ReusableSearch {
        ReusableSearch::one_shot(
            MctsConfig {
                playouts,
                ..Default::default()
            },
            Arc::new(UniformEvaluator::for_game(&TicTacToe::new())),
        )
    }

    #[test]
    fn symmetric_agents_split_or_draw() {
        let mut a = agent(64);
        let mut b = agent(64);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let r = play_match(&TicTacToe::new(), &mut a, &mut b, 6, 0.8, 3, 20, &mut rng);
        assert_eq!(r.games(), 6);
        // Identical agents should land near 50%.
        assert!(
            (r.score_a() - 0.5).abs() <= 0.34,
            "symmetric match skewed: {r:?}"
        );
    }

    #[test]
    fn stronger_search_budget_wins_more() {
        // 256-playout search vs 4-playout search: A should score >= 50%.
        let mut a = agent(256);
        let mut b = agent(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let r = play_match(&TicTacToe::new(), &mut a, &mut b, 8, 0.8, 2, 20, &mut rng);
        assert!(
            r.score_a() >= 0.5,
            "deeper search should not lose the match: {r:?}"
        );
        assert!(r.wins_b <= r.wins_a, "{r:?}");
    }

    #[test]
    fn greedy_match_is_deterministic() {
        let run = || {
            let mut a = agent(32);
            let mut b = agent(32);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            play_match(&TicTacToe::new(), &mut a, &mut b, 2, 0.0, 0, 20, &mut rng)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_match_scores_half() {
        assert_eq!(MatchResult::default().score_a(), 0.5);
    }

    #[test]
    fn elo_diff_at_even_score_is_zero() {
        assert!(elo_diff(0.5).abs() < 1e-9);
    }

    #[test]
    fn elo_diff_known_anchors() {
        // 64% score ≈ +100 Elo; 76% ≈ +200 (standard table values).
        assert!((elo_diff(0.64) - 100.0).abs() < 5.0);
        assert!((elo_diff(0.76) - 200.0).abs() < 5.0);
        // Symmetry: diff(s) = -diff(1-s).
        assert!((elo_diff(0.3) + elo_diff(0.7)).abs() < 1e-9);
    }

    #[test]
    fn elo_diff_clamps_sweeps() {
        assert!(elo_diff(1.0).is_finite());
        assert!(elo_diff(0.0).is_finite());
        assert!(elo_diff(1.0) > 1000.0);
    }

    #[test]
    fn tracker_conserves_total_rating() {
        let mut t = EloTracker::new(3, 32.0);
        let total0: f64 = (0..3).map(|i| t.rating(i)).sum();
        t.record(0, 1, 1.0);
        t.record(1, 2, 0.0);
        t.record(2, 0, 0.5);
        let total1: f64 = (0..3).map(|i| t.rating(i)).sum();
        assert!((total0 - total1).abs() < 1e-9, "zero-sum updates");
    }

    #[test]
    fn winner_gains_loser_drops() {
        let mut t = EloTracker::new(2, 32.0);
        t.record(0, 1, 1.0);
        assert!(t.rating(0) > 1500.0);
        assert!(t.rating(1) < 1500.0);
        // Expected score now favors agent 0.
        assert!(t.expected(0, 1) > 0.5);
    }

    #[test]
    fn repeated_wins_converge_not_diverge() {
        // As the rating gap grows, each further win moves ratings less.
        let mut t = EloTracker::new(2, 32.0);
        let mut deltas = Vec::new();
        for _ in 0..10 {
            let before = t.rating(0);
            t.record(0, 1, 1.0);
            deltas.push(t.rating(0) - before);
        }
        for w in deltas.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "update magnitude must shrink");
        }
    }

    #[test]
    #[should_panic(expected = "cannot play itself")]
    fn self_play_rating_rejected() {
        let mut t = EloTracker::new(2, 32.0);
        t.record(1, 1, 0.5);
    }

    #[test]
    fn score_accounts_draws_as_half() {
        let r = MatchResult {
            wins_a: 1,
            wins_b: 1,
            draws: 2,
        };
        assert_eq!(r.score_a(), 0.5);
        assert_eq!(r.games(), 4);
    }
}
