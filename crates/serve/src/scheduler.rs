//! Weighted-fair session scheduling.
//!
//! The first serving iteration kept every runnable session in one global
//! `BinaryHeap` ordered by `(priority, deadline, round-robin seq)` and
//! re-pushed each session after its slice. That is O(log n) too, but it
//! gives *strict* priority: one saturated high class starves everything
//! below it, and under tens of thousands of sessions the single
//! comparator conflates urgency (deadline) with share (priority).
//!
//! [`FairScheduler`] replaces it with **stride scheduling across
//! priority classes**: each class owns a weight (see
//! [`ServeConfig::class_weights`](crate::ServeConfig::class_weights)), a
//! stride inversely proportional to that weight, and a pass value.
//! Every dispatch picks the non-empty class with the smallest pass and
//! charges it one stride, so over any window the classes' dispatch
//! counts — and therefore their playout shares, since every slice is
//! [`step_quota`](crate::ServeConfig::step_quota) playouts — converge to
//! the weight ratio instead of starving the light class
//! (`crates/serve/tests/cluster.rs` pins the convergence).
//!
//! Within a class, sessions sit in a per-class heap ordered by earliest
//! deadline first, then round-robin sequence number (re-queued slices
//! get a fresh seq, so deadline-free peers take turns). With a constant
//! number of classes a dispatch is one O(#classes) scan plus one
//! per-class heap pop: O(log n) total, no global re-sort.

use crate::backend::BackendRecord;
use crate::session::{AnySession, SessionShared};
use crate::Priority;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Pass-value numerator: strides are `STRIDE1 / weight`, so any weight
/// up to `STRIDE1` yields a distinct positive stride.
const STRIDE1: u64 = 1 << 20;

/// One runnable session owned by the scheduler (or in flight on a
/// worker between `pop` and the re-`push` of its next slice).
pub(crate) struct SessionEntry {
    pub priority: Priority,
    /// Earlier deadlines pop first within the class; `None` sorts after
    /// any real deadline.
    pub deadline: Option<Instant>,
    /// Round-robin tiebreak: smaller = submitted/re-queued earlier.
    pub seq: u64,
    /// Admitted playout budget of the session (load accounting).
    pub cost: u64,
    pub session: Box<dyn AnySession>,
    pub shared: Arc<SessionShared>,
    /// The model's record, held so that it (and the counters behind the
    /// evaluator stack `session` runs on) outlives the session.
    pub _backend: Arc<BackendRecord>,
}

impl PartialEq for SessionEntry {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for SessionEntry {}
impl PartialOrd for SessionEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for SessionEntry {
    /// Max-heap urgency: any real deadline beats none, earlier deadline
    /// beats later, then the lower round-robin seq wins.
    ///
    /// `None` is compared structurally — NOT substituted with a
    /// "far-future `Instant::now() + years`" sentinel. A sentinel
    /// recomputed per comparison differs on every call, so two
    /// deadline-free sessions would never compare `Equal`, the seq
    /// tiebreak would be unreachable, and the heap order would degrade
    /// to starvation-prone garbage (a popped long session could pin the
    /// top spot while a peer waits forever — caught by the
    /// `affinity_holds_under_concurrent_load_then_spills` test).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let by_deadline = match (self.deadline, other.deadline) {
            (Some(a), Some(b)) => b.cmp(&a),
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (None, None) => std::cmp::Ordering::Equal,
        };
        by_deadline.then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One priority class: EDF-then-round-robin heap plus stride state.
struct ClassQueue {
    stride: u64,
    pass: u64,
    heap: BinaryHeap<SessionEntry>,
    /// Sessions belonging to this class anywhere in the system: queued
    /// in `heap` *or* in flight on a worker between `pop` and the
    /// `requeue`/`retire` that follows the slice. The idle→busy pass
    /// re-sync must key on this, not on heap emptiness — a lone session
    /// being stepped leaves its heap empty, and snapping the class's
    /// pass up to `vtime` at every re-queue would erase the stride
    /// advantage its weight is supposed to buy.
    active: usize,
}

/// Stride scheduler over the priority classes (see module docs).
pub(crate) struct FairScheduler {
    classes: [ClassQueue; Priority::COUNT],
    /// Global virtual time: the pass of the most recent dispatch. A
    /// class going idle→busy resumes at `max(pass, vtime)`, so an idle
    /// class cannot bank credit and then monopolize the workers.
    vtime: u64,
    len: usize,
}

impl FairScheduler {
    /// `weights` are indexed `[Low, Normal, High]`; zero weights are
    /// treated as 1.
    pub fn new(weights: [u64; Priority::COUNT]) -> Self {
        let class = |w: u64| ClassQueue {
            stride: STRIDE1 / w.clamp(1, STRIDE1),
            pass: 0,
            heap: BinaryHeap::new(),
            active: 0,
        };
        FairScheduler {
            classes: [class(weights[0]), class(weights[1]), class(weights[2])],
            vtime: 0,
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Enter a newly submitted session. If its class was fully idle (no
    /// sessions queued *or* in flight), the class's pass re-syncs to the
    /// global virtual time so an idle class cannot bank credit.
    pub fn enqueue_new(&mut self, entry: SessionEntry) {
        let class = &mut self.classes[entry.priority.index()];
        if class.active == 0 {
            class.pass = class.pass.max(self.vtime);
        }
        class.active += 1;
        class.heap.push(entry);
        self.len += 1;
    }

    /// Re-queue a session after a scheduling slice (it stayed active the
    /// whole time, so its class's pass is left alone).
    pub fn requeue(&mut self, entry: SessionEntry) {
        self.classes[entry.priority.index()].heap.push(entry);
        self.len += 1;
    }

    /// A popped session finished (or was cancelled) instead of
    /// re-queueing: its class loses one active member.
    pub fn retire(&mut self, priority: Priority) {
        let class = &mut self.classes[priority.index()];
        class.active = class.active.saturating_sub(1);
    }

    /// Dispatch the next scheduling slice: the minimum-pass non-empty
    /// class is charged one stride and hands over its most urgent
    /// session. Ties break toward the higher priority class.
    pub fn pop(&mut self) -> Option<SessionEntry> {
        let mut best: Option<usize> = None;
        for (i, class) in self.classes.iter().enumerate() {
            if class.heap.is_empty() {
                continue;
            }
            best = match best {
                Some(b) if self.classes[b].pass < class.pass => Some(b),
                _ => Some(i),
            };
        }
        let class = &mut self.classes[best?];
        self.vtime = class.pass;
        class.pass += class.stride;
        self.len -= 1;
        class.heap.pop()
    }

    /// Remove and return every queued session (service shutdown).
    pub fn drain(&mut self) -> Vec<SessionEntry> {
        let mut out = Vec::with_capacity(self.len);
        for class in &mut self.classes {
            class.active = class.active.saturating_sub(class.heap.len());
            out.extend(class.heap.drain());
        }
        self.len = 0;
        out
    }
}
