//! [`EvalClient`]: a submit/gather handle that lets **one** thread keep
//! many leaf evaluations in flight.
//!
//! This is the executable form of Algorithm 3's FIFO communication
//! pipes, generalized over two backends:
//!
//! * **Threaded** — `N` inference worker threads serve batches assembled
//!   by the client (batch size follows
//!   [`BatchEvaluator::preferred_batch`]); used for CPU inference, where
//!   somebody has to burn the cores.
//! * **Device** — requests go straight into the [`accel::Device`] queue
//!   via its native async submit/poll interface; *zero* extra threads,
//!   the device's own streams do the batching.
//!
//! Either way, the owner thread calls [`EvalClient::submit`] with an
//! encoded state and a tag (typically the leaf node id), keeps doing
//! in-tree work, and drains finished evaluations with
//! [`EvalClient::try_gather`] / [`EvalClient::gather`].

use crate::evaluator::{BatchEvaluator, EvalOutput};
use accel::{Device, DeviceClient};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Handle for one in-flight evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Submission sequence number (unique per client).
    pub seq: u64,
    /// Caller-chosen tag (e.g. the leaf node id).
    pub tag: u64,
}

/// A finished evaluation returned by `try_gather`/`gather`.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The ticket returned by the matching [`EvalClient::submit`].
    pub ticket: Ticket,
    /// The evaluation result.
    pub output: EvalOutput,
}

type BatchMsg = Vec<(Ticket, Vec<f32>)>;

/// Internal completion message: a result, or notice that the worker's
/// `evaluate_batch` panicked for this ticket (surfaced as a panic in
/// the gathering thread instead of a silent hang).
enum Done {
    Ok(Completion),
    Poisoned(Ticket),
}

enum Backend {
    Threaded {
        pending: BatchMsg,
        max_batch: usize,
        batch_tx: Option<Sender<BatchMsg>>,
        done_rx: Receiver<Done>,
        busy_ns: Arc<AtomicU64>,
        busy_base: u64,
        handles: Vec<JoinHandle<()>>,
    },
    Device {
        client: DeviceClient,
        /// seq → (caller tag, submit time) for per-request latency.
        tags: HashMap<u64, (u64, Instant)>,
        latency_ns: u64,
    },
}

/// Submit/gather evaluation client (see module docs).
pub struct EvalClient {
    backend: Backend,
    next_seq: u64,
    in_flight: usize,
    capacity: usize,
}

impl EvalClient {
    /// CPU-threaded backend: spawn `workers` inference threads serving
    /// batches assembled by the client. With a legacy single-sample
    /// evaluator this degrades exactly to the paper's
    /// one-leaf-per-worker pipe (`preferred_batch() == 1`, in-flight
    /// bound `workers`).
    ///
    /// For batching evaluators the batch size is
    /// `min(preferred_batch, workers)` — the user's `N` stays in
    /// charge of parallelism — and the suggested in-flight bound is
    /// `2 × N`: **double buffering**, so one batch can be under
    /// evaluation while the master assembles the next and in-tree work
    /// overlaps inference. Outstanding leaves carry virtual loss, so
    /// the bound deliberately never exceeds twice the paper's `N`.
    pub fn threaded(eval: Arc<dyn BatchEvaluator>, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one inference worker");
        let max_batch = eval.preferred_batch().clamp(1, workers);
        let (batch_tx, batch_rx) = unbounded::<BatchMsg>();
        let (done_tx, done_rx) = unbounded::<Done>();
        let busy_ns = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = batch_rx.clone();
                let tx = done_tx.clone();
                let eval = Arc::clone(&eval);
                let busy = Arc::clone(&busy_ns);
                std::thread::Builder::new()
                    .name(format!("eval-client-{i}"))
                    .spawn(move || {
                        while let Ok(batch) = rx.recv() {
                            let t0 = Instant::now();
                            // Contain backend panics: the worker stays
                            // alive and the gatherer re-panics, instead
                            // of gather() hanging on lost completions.
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let inputs: Vec<&[f32]> =
                                        batch.iter().map(|(_, x)| x.as_slice()).collect();
                                    let mut out = vec![EvalOutput::default(); batch.len()];
                                    eval.evaluate_batch(&inputs, &mut out);
                                    out
                                }));
                            busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            let msgs: Vec<Done> = match result {
                                Ok(out) => batch
                                    .into_iter()
                                    .zip(out)
                                    .map(|((ticket, _), output)| {
                                        Done::Ok(Completion { ticket, output })
                                    })
                                    .collect(),
                                Err(_) => batch
                                    .into_iter()
                                    .map(|(ticket, _)| Done::Poisoned(ticket))
                                    .collect(),
                            };
                            for msg in msgs {
                                // A closed done-channel means the client
                                // was dropped mid-search; just exit.
                                if tx.send(msg).is_err() {
                                    return;
                                }
                            }
                        }
                    })
                    .expect("spawn eval-client worker")
            })
            .collect();
        EvalClient {
            backend: Backend::Threaded {
                pending: Vec::new(),
                max_batch,
                batch_tx: Some(batch_tx),
                done_rx,
                busy_ns,
                busy_base: 0,
                handles,
            },
            next_seq: 0,
            in_flight: 0,
            capacity: if max_batch == 1 { workers } else { 2 * workers },
        }
    }

    /// Accelerator backend: requests feed the device queue directly
    /// (native async submit/poll); `max_in_flight` bounds the number of
    /// outstanding leaves (the paper's `N`).
    pub fn for_device(device: Arc<Device>, max_in_flight: usize) -> Self {
        assert!(max_in_flight >= 1, "need capacity for at least one leaf");
        EvalClient {
            backend: Backend::Device {
                client: device.client(),
                tags: HashMap::new(),
                latency_ns: 0,
            },
            next_seq: 0,
            in_flight: 0,
            capacity: max_in_flight,
        }
    }

    /// Suggested bound on concurrently outstanding submissions. Not
    /// enforced — schemes use it to decide when to gather.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Submissions not yet gathered (including still-pending ones).
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Queue one evaluation; the result's [`Completion::ticket`] carries
    /// `tag` back. Auto-flushes whenever a full batch is pending.
    pub fn submit(&mut self, tag: u64, input: &[f32]) -> Ticket {
        let ticket = Ticket {
            seq: self.next_seq,
            tag,
        };
        self.next_seq += 1;
        self.in_flight += 1;
        match &mut self.backend {
            Backend::Threaded {
                pending, max_batch, ..
            } => {
                pending.push((ticket, input.to_vec()));
                if pending.len() >= *max_batch {
                    self.flush();
                }
            }
            Backend::Device { client, tags, .. } => {
                tags.insert(ticket.seq, (tag, Instant::now()));
                client.submit(ticket.seq, input.to_vec());
            }
        }
        ticket
    }

    /// Ship any partially-assembled batch to the backend now.
    pub fn flush(&mut self) {
        if let Backend::Threaded {
            pending, batch_tx, ..
        } = &mut self.backend
        {
            if !pending.is_empty() {
                let batch = std::mem::take(pending);
                batch_tx
                    .as_ref()
                    .expect("client open")
                    .send(batch)
                    .expect("eval workers alive");
            }
        }
        // Device backend: submissions already went straight to the queue.
    }

    /// Non-blocking: next finished evaluation, if any.
    pub fn try_gather(&mut self) -> Option<Completion> {
        let done = match &mut self.backend {
            Backend::Threaded { done_rx, .. } => done_rx.try_recv().ok().map(Self::unwrap_done),
            Backend::Device {
                client,
                tags,
                latency_ns,
            } => client
                .try_poll()
                .map(|t| Self::device_completion(tags, latency_ns, t)),
        };
        if done.is_some() {
            self.in_flight -= 1;
        }
        done
    }

    /// Block until the next evaluation finishes. Flushes pending work
    /// first so the wait can always make progress; panics if nothing is
    /// in flight (that wait could never end).
    pub fn gather(&mut self) -> Completion {
        assert!(self.in_flight > 0, "gather with nothing in flight");
        self.flush();
        self.in_flight -= 1;
        match &mut self.backend {
            Backend::Threaded { done_rx, .. } => {
                Self::unwrap_done(done_rx.recv().expect("eval workers alive"))
            }
            Backend::Device {
                client,
                tags,
                latency_ns,
            } => Self::device_completion(tags, latency_ns, client.poll()),
        }
    }

    /// Surface a worker-side panic in the gathering thread.
    fn unwrap_done(done: Done) -> Completion {
        match done {
            Done::Ok(c) => c,
            Done::Poisoned(t) => {
                panic!("evaluation worker panicked while serving ticket {t:?}")
            }
        }
    }

    /// Shared completion path for both device gather flavors.
    fn device_completion(
        tags: &mut HashMap<u64, (u64, Instant)>,
        latency_ns: &mut u64,
        t: accel::TaggedResponse,
    ) -> Completion {
        let (tag, submitted) = tags.remove(&t.tag).expect("tag recorded at submit");
        *latency_ns += submitted.elapsed().as_nanos() as u64;
        Completion {
            ticket: Ticket { seq: t.tag, tag },
            output: EvalOutput {
                priors: t.response.priors,
                value: t.response.value,
            },
        }
    }

    /// Drain every outstanding evaluation (flushes first).
    pub fn gather_all(&mut self) -> Vec<Completion> {
        let mut all = Vec::with_capacity(self.in_flight);
        while self.in_flight > 0 {
            all.push(self.gather());
        }
        all
    }

    /// Nanoseconds of evaluation time accumulated since the last
    /// [`EvalClient::reset_eval_ns`].
    ///
    /// Semantics follow what each route's *consumer* experiences (the
    /// same convention the pre-batch API had): the threaded backend
    /// reports worker busy time (pure inference); the device backend
    /// reports summed per-request submit→complete latency, which
    /// includes queue wait — exactly what a worker blocked on the
    /// device queue used to measure. Overlapping in-flight requests
    /// each count their full latency, so this can exceed wall-clock
    /// move time; compare eval fractions across routes with that in
    /// mind. Only **this** client's requests are counted — a device
    /// shared with other clients doesn't leak their time here.
    pub fn eval_ns(&self) -> u64 {
        match &self.backend {
            Backend::Threaded {
                busy_ns, busy_base, ..
            } => busy_ns.load(Ordering::Relaxed).saturating_sub(*busy_base),
            Backend::Device { latency_ns, .. } => *latency_ns,
        }
    }

    /// Zero the inference-time counter (call at search start).
    pub fn reset_eval_ns(&mut self) {
        match &mut self.backend {
            Backend::Threaded {
                busy_ns, busy_base, ..
            } => *busy_base = busy_ns.load(Ordering::Relaxed),
            Backend::Device { latency_ns, .. } => *latency_ns = 0,
        }
    }
}

impl Drop for EvalClient {
    fn drop(&mut self) {
        if let Backend::Threaded {
            batch_tx, handles, ..
        } = &mut self.backend
        {
            batch_tx.take(); // close the queue so workers exit
            for h in handles.drain(..) {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::{NnEvaluator, UniformEvaluator};
    use accel::DeviceConfig;
    use nn::{NetConfig, PolicyValueNet};

    fn net() -> Arc<PolicyValueNet> {
        Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 9))
    }

    #[test]
    fn threaded_roundtrip_preserves_tags() {
        let mut c = EvalClient::threaded(Arc::new(UniformEvaluator::new(4, 3)), 2);
        let inputs = [[0.0f32; 4], [1.0; 4], [2.0; 4]];
        for (i, x) in inputs.iter().enumerate() {
            let t = c.submit(100 + i as u64, x);
            assert_eq!(t.tag, 100 + i as u64);
        }
        let all = c.gather_all();
        assert_eq!(all.len(), 3);
        let mut tags: Vec<u64> = all.iter().map(|d| d.ticket.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![100, 101, 102]);
        for d in &all {
            assert_eq!(d.output.priors.len(), 3);
        }
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn threaded_batches_reach_the_network_whole() {
        let n = net();
        let eval = Arc::new(NnEvaluator::with_batch_hint(Arc::clone(&n), 4));
        let forward_probe = Arc::clone(&eval);
        let mut c = EvalClient::threaded(eval, 4);
        assert_eq!(c.capacity(), 8, "double-buffered: 2x workers");
        let input = vec![0.3f32; 36];
        for i in 0..4 {
            c.submit(i, &input);
        }
        // 4 submissions at hint 4 → exactly one auto-flushed batch.
        let all = c.gather_all();
        assert_eq!(all.len(), 4);
        assert_eq!(forward_probe.forward_calls(), 1, "one forward for 4 leaves");
    }

    #[test]
    fn partial_batch_needs_flush_or_gather() {
        let n = net();
        let eval = Arc::new(NnEvaluator::with_batch_hint(n, 8));
        let mut c = EvalClient::threaded(eval, 8);
        let input = vec![0.1f32; 36];
        c.submit(0, &input);
        c.submit(1, &input);
        // Nothing gathered yet; gather() must flush the partial batch
        // rather than deadlock.
        let first = c.gather();
        assert!(first.ticket.tag < 2);
        let rest = c.gather_all();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn device_backend_uses_native_queue() {
        let n = net();
        let dev = Arc::new(accel::Device::new(Arc::clone(&n), DeviceConfig::instant(4)));
        let mut c = EvalClient::for_device(Arc::clone(&dev), 8);
        let cpu = NnEvaluator::new(n);
        let inputs: Vec<Vec<f32>> = (0..8)
            .map(|i| (0..36).map(|j| ((i * 5 + j) % 6) as f32 / 6.0).collect())
            .collect();
        for (i, x) in inputs.iter().enumerate() {
            c.submit(i as u64, x);
        }
        let mut all = c.gather_all();
        all.sort_by_key(|d| d.ticket.tag);
        for (x, d) in inputs.iter().zip(&all) {
            let o = cpu.evaluate_one(x);
            for (a, b) in d.output.priors.iter().zip(&o.priors) {
                assert!((a - b).abs() < 1e-5);
            }
        }
        assert!(dev.stats().max_batch >= 2, "device batching bypassed");
    }

    #[test]
    fn eval_ns_accumulates_and_resets() {
        let mut c = EvalClient::threaded(Arc::new(UniformEvaluator::new(4, 2)), 1);
        c.reset_eval_ns();
        for i in 0..50 {
            c.submit(i, &[0.0; 4]);
        }
        let _ = c.gather_all();
        let measured = c.eval_ns();
        c.reset_eval_ns();
        assert!(c.eval_ns() <= measured);
    }

    #[test]
    #[should_panic(expected = "evaluation worker panicked")]
    fn worker_panic_surfaces_instead_of_hanging() {
        /// Panics on every call.
        struct Exploding;
        impl BatchEvaluator for Exploding {
            fn input_len(&self) -> usize {
                4
            }
            fn action_space(&self) -> usize {
                2
            }
            fn evaluate_batch(&self, _inputs: &[&[f32]], _out: &mut [EvalOutput]) {
                panic!("backend died");
            }
        }
        let mut c = EvalClient::threaded(Arc::new(Exploding), 2);
        c.submit(0, &[0.0; 4]);
        c.submit(1, &[0.0; 4]);
        // Must re-panic here (poisoned completion), never block forever.
        let _ = c.gather();
    }

    #[test]
    #[should_panic(expected = "nothing in flight")]
    fn gather_on_empty_client_panics() {
        let mut c = EvalClient::threaded(Arc::new(UniformEvaluator::new(4, 2)), 1);
        let _ = c.gather();
    }
}
