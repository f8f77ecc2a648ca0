//! `stackbench`: this repository's benchmark. See `README.md` beside
//! `Cargo.toml` for what is measured and why; `src/main.rs` is the
//! command line.

pub mod core;
pub mod gen;
pub mod ladder;
pub mod metrics;
pub mod proc;
pub mod run;
pub mod stats;
pub mod trace;
pub mod tree;
pub mod verify;
pub mod wire;
