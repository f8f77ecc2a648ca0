//! Performance analysis for adaptive parallelism (paper §4).
//!
//! This crate contains the machinery that makes the parallelism *adaptive*:
//!
//! * [`model`] — the closed-form per-iteration latency models of Eqs. 3–6
//!   for the shared-tree and local-tree schemes on CPU-only and CPU+GPU
//!   platforms, and the compile-time scheme chooser built on them;
//! * [`profiler`] — design-time measurement of `T_select`, `T_backup`
//!   (a real serial search over a synthetic tree with the target
//!   fanout/depth, §4.2), `T_DNN` (random-parameter network), and the shared-
//!   memory access latency (pointer chase);
//! * [`vsearch`] — Algorithm 4: O(log N) minimum search over the
//!   "V-sequence" of per-iteration latency as a function of the
//!   accelerator sub-batch size `B`;
//! * [`sim`] — a deterministic discrete-event simulator that replays the
//!   execution timelines of Figures 1-b/2-b under arbitrary hardware
//!   parameters. This is the executable form of the paper's timeline
//!   analysis and is what regenerates the *shapes* of Figures 3–6 on hosts
//!   that lack the paper's 64-core CPU + A6000 GPU (the reference host
//!   has two vCPUs and no GPU);
//! * [`configurator`] — the end-to-end design-configuration workflow:
//!   profile → plug into models → pick scheme → tune `B`.

pub mod configurator;
pub mod model;
pub mod profiler;
pub mod sensitivity;
pub mod sim;
pub mod vsearch;

pub use configurator::{DesignChoice, DesignConfigurator};
pub use model::{choose_scheme, PerfParams, Platform};
pub use sensitivity::{crossover_workers, sweep, SweepParam, SweepPoint};
pub use sim::SimParams;
pub use vsearch::find_min_vsequence;
