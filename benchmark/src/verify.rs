//! Output checks applied to every result, and the best-action digest of
//! the deterministic in-process workloads.

use games::gomoku::Gomoku;
use games::{Action, Game};

/// Check one finished search against the request that asked for it.
/// `probs`/`best` are what the caller received (in process or off the
/// wire); `playouts_done` is the count the result reports.
pub fn check_result(
    root: &Gomoku,
    playouts_asked: u64,
    playouts_done: u64,
    probs: &[f32],
    best: Option<Action>,
) -> Result<(), String> {
    if playouts_done != playouts_asked {
        return Err(format!(
            "result reports {playouts_done} playouts, request asked for {playouts_asked}"
        ));
    }
    if probs.len() != root.action_space() {
        return Err(format!(
            "{} probabilities for {} actions",
            probs.len(),
            root.action_space()
        ));
    }
    let sum: f64 = probs.iter().map(|&p| p as f64).sum();
    if (sum - 1.0).abs() > 1e-4 || probs.iter().any(|p| !p.is_finite() || *p < 0.0) {
        return Err(format!("probabilities sum to {sum}, not 1"));
    }
    match best {
        Some(a) if root.is_legal(a) => Ok(()),
        Some(a) => Err(format!(
            "best action {a} is illegal in the submitted position"
        )),
        None => Err("result has no best action".into()),
    }
}

/// FNV-1a over a sequence of actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, a: Action) {
        for b in a.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn check_result_catches_each_kind_of_wrong_answer() {
        let mut root = gen::empty_board();
        root.apply(40);
        let mut probs = vec![0.0f32; 81];
        probs[3] = 0.25;
        probs[4] = 0.75;
        assert!(check_result(&root, 64, 64, &probs, Some(4)).is_ok());
        assert!(check_result(&root, 64, 63, &probs, Some(4)).is_err());
        assert!(
            check_result(&root, 64, 64, &probs, Some(40)).is_err(),
            "occupied"
        );
        assert!(check_result(&root, 64, 64, &probs, None).is_err());
        assert!(check_result(&root, 64, 64, &probs[..80], Some(4)).is_err());
        probs[4] = 0.70;
        assert!(check_result(&root, 64, 64, &probs, Some(4)).is_err());
    }

    #[test]
    fn digest_depends_on_order() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.push(1);
        a.push(2);
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
        assert_ne!(a, Digest::default());
    }
}
