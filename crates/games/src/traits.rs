//! Core environment abstractions shared by every benchmark game.
//!
//! The MCTS crates are generic over [`Game`], so any two-player, zero-sum,
//! perfect-information game with a dense action space can be plugged into the
//! search and training pipeline.

/// A move identifier. Actions are dense indices in `0..Game::action_space()`
/// so the policy head of the network can emit one probability per action.
pub type Action = u16;

/// The side to move. Games in this crate are two-player and zero-sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Player {
    /// First player (moves first from the initial position).
    Black,
    /// Second player.
    White,
}

impl Player {
    /// The opponent of `self`.
    #[inline]
    pub fn other(self) -> Player {
        match self {
            Player::Black => Player::White,
            Player::White => Player::Black,
        }
    }

    /// Index form (Black = 0, White = 1), used for plane encoding and tables.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Player::Black => 0,
            Player::White => 1,
        }
    }
}

/// Terminal status of a game state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Game still in progress.
    Ongoing,
    /// `Player` has won.
    Won(Player),
    /// No legal moves remain and nobody won.
    Draw,
}

impl Status {
    /// Whether the game has ended.
    #[inline]
    pub fn is_terminal(self) -> bool {
        !matches!(self, Status::Ongoing)
    }

    /// Reward from the perspective of `p`: +1 win, -1 loss, 0 draw/ongoing.
    #[inline]
    pub fn reward_for(self, p: Player) -> f32 {
        match self {
            Status::Won(w) if w == p => 1.0,
            Status::Won(_) => -1.0,
            _ => 0.0,
        }
    }
}

/// A two-player, zero-sum, perfect-information game environment.
///
/// Implementations must be cheap to `Clone`: tree-parallel MCTS clones the
/// state once per simulated playout (the paper's `game ← copy(environment)`,
/// Algorithm 2 line 2).
pub trait Game: Clone + Send + Sync + 'static {
    /// Total number of action indices. Legal actions are a subset.
    fn action_space(&self) -> usize;

    /// Shape of the tensor produced by [`Game::encode`]: `(channels, h, w)`.
    fn encoded_shape(&self) -> (usize, usize, usize);

    /// The player to move in this state.
    fn to_move(&self) -> Player;

    /// Terminal status of this state.
    fn status(&self) -> Status;

    /// Whether `a` may be played in this state.
    fn is_legal(&self, a: Action) -> bool;

    /// Collect the legal actions into `out` (cleared first). Using an
    /// out-parameter lets hot search loops reuse one buffer.
    fn legal_actions_into(&self, out: &mut Vec<Action>);

    /// Convenience wrapper around [`Game::legal_actions_into`].
    fn legal_actions(&self) -> Vec<Action> {
        let mut v = Vec::new();
        self.legal_actions_into(&mut v);
        v
    }

    /// Play `a` for the current player. Panics (debug) on illegal actions.
    fn apply(&mut self, a: Action);

    /// Write the NN input planes into `out`, which must have exactly
    /// `channels * h * w` elements (row-major, plane-contiguous).
    ///
    /// The canonical encoding (used by all games here) is 4 planes:
    /// 0. stones of the player to move,
    /// 1. stones of the opponent,
    /// 2. one-hot of the last move (all zeros if none),
    /// 3. constant plane: 1.0 if Black to move else 0.0.
    fn encode(&self, out: &mut [f32]);

    /// Number of `f32`s produced by [`Game::encode`].
    fn encoded_len(&self) -> usize {
        let (c, h, w) = self.encoded_shape();
        c * h * w
    }

    /// 64-bit incremental hash of the position (Zobrist), usable for
    /// transposition detection and as a deterministic state fingerprint.
    fn hash(&self) -> u64;

    /// Number of moves played from the initial position.
    fn move_count(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn player_other_roundtrip() {
        assert_eq!(Player::Black.other(), Player::White);
        assert_eq!(Player::White.other(), Player::Black);
        assert_eq!(Player::Black.other().other(), Player::Black);
    }

    #[test]
    fn player_index_distinct() {
        assert_ne!(Player::Black.index(), Player::White.index());
        assert!(Player::Black.index() < 2 && Player::White.index() < 2);
    }

    #[test]
    fn status_terminal_flags() {
        assert!(!Status::Ongoing.is_terminal());
        assert!(Status::Won(Player::Black).is_terminal());
        assert!(Status::Draw.is_terminal());
    }

    #[test]
    fn status_rewards_are_zero_sum() {
        for s in [
            Status::Won(Player::Black),
            Status::Won(Player::White),
            Status::Draw,
        ] {
            let rb = s.reward_for(Player::Black);
            let rw = s.reward_for(Player::White);
            assert_eq!(rb + rw, 0.0, "zero-sum violated for {s:?}");
        }
    }

    #[test]
    fn ongoing_reward_is_zero() {
        assert_eq!(Status::Ongoing.reward_for(Player::Black), 0.0);
        assert_eq!(Status::Ongoing.reward_for(Player::White), 0.0);
    }
}
