//! Workload inputs: seeded random legal move prefixes on 9×9 Gomoku.
//! The program under test sees only these positions, never the seed.

use games::gomoku::Gomoku;
use games::{Action, Game};
use std::collections::HashSet;

/// Board side and winning run of every position in the benchmark.
pub const BOARD: usize = 9;
pub const WIN: usize = 5;

/// SplitMix64: the benchmark's own generator, so inputs depend on
/// nothing but `--seed` (not on the vendored `rand` shim under test).
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// below 2⁻⁵⁰ and irrelevant to a workload generator.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request's input: the move prefix a wire client submits and the
/// position it leads to (what an embedder hands to `search`).
#[derive(Clone)]
pub struct Position {
    pub moves: Vec<Action>,
    pub root: Gomoku,
}

pub fn empty_board() -> Gomoku {
    Gomoku::new(BOARD, WIN)
}

/// Whether some sequence of at most two moves ends the game. A search
/// from such a position ends most of its playouts at a terminal node a
/// ply or two down and costs a fraction of a search of an open one, so a
/// workload's cost would depend on how many of them the seed draws.
fn ends_within_two(root: &Gomoku) -> bool {
    let (mut first, mut second) = (Vec::new(), Vec::new());
    root.legal_actions_into(&mut first);
    first.iter().any(|&a| {
        let mut after = root.clone();
        after.apply(a);
        if after.status().is_terminal() {
            return true;
        }
        after.legal_actions_into(&mut second);
        second.iter().any(|&b| {
            let mut end = after.clone();
            end.apply(b);
            end.status().is_terminal()
        })
    })
}

/// `count` pairwise distinct positions, each reached by a random legal
/// prefix and open: not terminal, and no two moves end the game. The
/// lengths are not drawn: position `i` has
/// `min_len + i % (max_len - min_len + 1)` moves, so every seed gives the
/// same mix of board fillings (which is what sets a search's cost) and
/// only the stones' places differ.
pub fn positions(seed: u64, count: usize, min_len: usize, max_len: usize) -> Vec<Position> {
    assert!(min_len >= 1 && min_len <= max_len && max_len < BOARD * BOARD);
    let mut rng = SplitMix64::new(seed);
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut legal = Vec::with_capacity(BOARD * BOARD);
    while out.len() < count {
        let len = min_len + out.len() % (max_len - min_len + 1);
        let mut root = empty_board();
        let mut moves = Vec::with_capacity(len);
        while moves.len() < len && !root.status().is_terminal() {
            root.legal_actions_into(&mut legal);
            let a = legal[rng.below(legal.len())];
            root.apply(a);
            moves.push(a);
        }
        // A prefix that ended or nearly ended the game, or a repeat, is
        // drawn again.
        if !root.status().is_terminal() && !ends_within_two(&root) && seen.insert(root.hash()) {
            out.push(Position { moves, root });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefixes(seed: u64) -> Vec<Vec<Action>> {
        positions(seed, 200, 4, 24)
            .into_iter()
            .map(|p| p.moves)
            .collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(prefixes(7), prefixes(7));
        assert_ne!(prefixes(7), prefixes(8));
    }

    #[test]
    fn every_prefix_is_legal_distinct_and_not_terminal() {
        let list = positions(11, 500, 4, 24);
        let mut hashes = HashSet::new();
        for (i, p) in list.iter().enumerate() {
            assert_eq!(p.moves.len(), 4 + i % 21, "lengths follow the index");
            let mut g = empty_board();
            for &m in &p.moves {
                assert!(!g.status().is_terminal());
                assert!(g.is_legal(m));
                g.apply(m);
            }
            assert!(!g.status().is_terminal());
            assert!(!ends_within_two(&g));
            assert_eq!(g.hash(), p.root.hash());
            assert!(hashes.insert(g.hash()), "positions must be distinct");
        }
    }

    #[test]
    fn a_position_one_or_two_moves_from_the_end_is_not_open() {
        // Black has four in a row on the top line, open at both ends.
        let mut g = empty_board();
        for a in [1, 10, 2, 20, 3, 30, 4] {
            g.apply(a);
        }
        assert!(!g.status().is_terminal());
        assert!(ends_within_two(&g), "white to move, black wins next");
        g.apply(40);
        assert!(ends_within_two(&g), "black to move and win");
        assert!(!ends_within_two(&empty_board()));
    }
}
