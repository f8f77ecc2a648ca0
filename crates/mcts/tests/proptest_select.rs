//! Differential property for the select kernels: over random child
//! blocks, every kernel compiled into this build and supported by the
//! host must pick the **same child** as the scalar oracle
//! ([`SelectKernel::SCALAR`]) and produce **bitwise-equal scores** — and
//! the oracle's own pick must be the lowest-index maximum, NaN never
//! winning. A host without a kernel's instructions skips that kernel
//! and says so (run with `--nocapture`).
//!
//! The blocks cover what a search builds and what it never should:
//! every count from 1 to 300 (all residues of the 8-lane group size),
//! mostly-unvisited children with a few visited ones, dense blocks,
//! exact ties (uniform priors, duplicated statistics), `q_init ≠ 0`,
//! both virtual-loss policies, `W` holding ±inf and NaN, and counts at
//! and past `i32::MAX` — where the vector kernel, whose lanes convert
//! counts as signed integers, hands the whole block to the scalar loop.

use mcts::tree::{ChildColumns, SelectKernel};
use mcts::{MctsConfig, VirtualLoss};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// What makes a block unusual.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Flavour {
    /// Random priors, a few visited children.
    Sparse,
    /// Uniform priors: every unvisited child ties.
    UniformPriors,
    /// Every child visited.
    Dense,
    /// Some children copy another child's statistics exactly.
    Duplicates,
    /// Some `W` are ±inf or NaN.
    NonFinite,
    /// One child's count sits at or past the signed 32-bit range.
    WideCount,
}

const FLAVOURS: [Flavour; 6] = [
    Flavour::Sparse,
    Flavour::UniformPriors,
    Flavour::Dense,
    Flavour::Duplicates,
    Flavour::NonFinite,
    Flavour::WideCount,
];

struct Block {
    prior: Vec<f32>,
    n: Vec<u32>,
    vl: Vec<u32>,
    w: Vec<f64>,
}

fn block(seed: u64, count: usize, flavour: Flavour) -> Block {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut b = Block {
        prior: (0..count).map(|_| rng.gen_range(0.0..1.0f32)).collect(),
        n: vec![0; count],
        vl: vec![0; count],
        w: vec![0.0; count],
    };
    if flavour == Flavour::UniformPriors {
        b.prior.fill(1.0 / count as f32);
    }
    // Mostly zero: a search visits about one child in 65.
    let visited = match flavour {
        Flavour::Dense => 1.0,
        _ => rng.gen_range(0.0..0.2),
    };
    for i in 0..count {
        if rng.gen_range(0.0..1.0) < visited {
            b.n[i] = rng.gen_range(0..60);
            b.vl[i] = rng.gen_range(0..4);
            b.w[i] = rng.gen_range(-1.0..1.0) * b.n[i] as f64;
        }
    }
    match flavour {
        Flavour::Duplicates => {
            for _ in 0..1 + count / 8 {
                let (from, to) = (rng.gen_range(0..count), rng.gen_range(0..count));
                b.prior[to] = b.prior[from];
                b.n[to] = b.n[from];
                b.vl[to] = b.vl[from];
                b.w[to] = b.w[from];
            }
        }
        Flavour::NonFinite => {
            for _ in 0..1 + count / 16 {
                let i = rng.gen_range(0..count);
                b.n[i] = rng.gen_range(1..9);
                b.w[i] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
            }
        }
        Flavour::WideCount => {
            let max = i32::MAX as u32;
            let edges = [
                (max - 7, 7),
                (max, 0),
                (0, max),
                (max, 1),
                (1, max),
                (3_000_000_000, 0),
            ];
            let i = rng.gen_range(0..count);
            (b.n[i], b.vl[i]) = edges[rng.gen_range(0..edges.len())];
            b.w[i] = rng.gen_range(-1.0..1.0) * b.n[i] as f64;
        }
        _ => {}
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn every_select_kernel_agrees_with_the_scalar_oracle(
        seed in 0u64..u64::MAX,
        count in 1usize..=300,
        flavour in 0usize..FLAVOURS.len(),
        policy in 0usize..3,
        q_init in -1.0f32..1.0,
        c_puct in 0.0f32..8.0,
    ) {
        let b = block(seed, count, FLAVOURS[flavour]);
        let cols = ChildColumns { prior: &b.prior, n: &b.n, vl: &b.vl, w: &b.w };
        let cfg = MctsConfig {
            c_puct,
            q_init,
            virtual_loss: [
                VirtualLoss::Constant(1.0),
                VirtualLoss::Constant(0.25),
                VirtualLoss::VisitTracking,
            ][policy],
            ..Default::default()
        };
        let mut want = vec![0f32; count];
        let pick = SelectKernel::SCALAR.pick(&cfg, cols, Some(&mut want));

        // The oracle itself: the lowest index among the maxima, a NaN
        // never winning, index 0 when nothing beats -inf.
        let naive = (0..count)
            .filter(|&i| want[i] > f32::NEG_INFINITY)
            .fold(None, |best: Option<usize>, i| match best {
                Some(b) if want[i] <= want[b] => Some(b),
                _ => Some(i),
            })
            .unwrap_or(0);
        prop_assert_eq!(pick, naive, "oracle pick {} vs naive {} in {:?}", pick, naive, want);

        for (name, kernel) in SelectKernel::compiled() {
            let Some(kernel) = kernel else { continue };
            let mut got = vec![f32::NAN; count];
            let picked = kernel.pick(&cfg, cols, Some(&mut got));
            prop_assert_eq!(
                picked, pick,
                "{} picked {} where the oracle picks {} ({:?}, {} children)",
                name, picked, pick, FLAVOURS[flavour], count
            );
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(), w.to_bits(),
                    "{}: score {} is {} where the oracle has {} ({:?})",
                    name, i, g, w, FLAVOURS[flavour]
                );
            }
            prop_assert_eq!(kernel.pick(&cfg, cols, None), pick, "{} without scores", name);
        }
    }
}

#[test]
fn says_which_kernels_this_host_covers() {
    println!(
        "select kernel dispatched on this host: {}",
        mcts::select_kernel_name()
    );
    for (name, kernel) in SelectKernel::compiled() {
        if kernel.is_none() {
            println!("host has no {name}: that kernel is skipped");
        }
    }
    assert_eq!(SelectKernel::compiled()[0].0, SelectKernel::SCALAR.name());
    assert!(SelectKernel::compiled()
        .iter()
        .any(|&(_, k)| k == Some(SelectKernel::dispatched())));
}
