//! The accelerator device: a background thread that consumes evaluation
//! requests from a queue, assembles batches, and runs the policy-value
//! network on them.
//!
//! This is the executable form of the paper's §3.3: "a dedicated
//! accelerator queue for accumulating DNN inference task requests … when
//! the queue size reaches a predetermined threshold, all tasks are
//! submitted together to the GPU". A flush timeout guarantees liveness at
//! the end of a move when fewer than `batch_size` requests remain.

use crate::latency::LatencyModel;
use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use nn::{Architecture, PolicyValueNet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tensor::{Tensor, Workspace};

/// Where the device delivers a finished evaluation.
pub enum ReplyTo {
    /// Dedicated single-use channel (the blocking [`Device::evaluate`] /
    /// [`Device::submit`] path).
    Single(Sender<EvalResponse>),
    /// Shared completion queue: many in-flight requests from one client
    /// funnel into one channel, distinguished by their tag. This is the
    /// native async path ([`Device::submit_tagged`], [`DeviceClient`]).
    Shared(Sender<TaggedResponse>),
}

/// One inference request: an encoded state and a reply route.
pub struct EvalRequest {
    /// Flattened `[c, h, w]` network input.
    pub input: Vec<f32>,
    /// Caller-chosen identifier echoed back with the result.
    pub tag: u64,
    /// Where the device sends the result.
    pub reply: ReplyTo,
    /// When the request entered the queue (drives wait-time statistics).
    pub enqueued: Instant,
}

/// The result of evaluating one state.
#[derive(Debug, Clone)]
pub struct EvalResponse {
    /// Softmax policy over the full action space.
    pub priors: Vec<f32>,
    /// Value estimate in `[-1, 1]` for the player to move.
    pub value: f32,
}

/// A completion flowing back through a shared reply queue.
#[derive(Debug, Clone)]
pub struct TaggedResponse {
    /// The tag passed to [`Device::submit_tagged`].
    pub tag: u64,
    /// The evaluation result.
    pub response: EvalResponse,
}

/// Device configuration.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Batch-assembly threshold `B`. Submissions are grouped until this
    /// many requests are queued (or the flush timeout fires).
    pub batch_size: usize,
    /// Maximum time to wait for a batch to fill before flushing a partial
    /// batch. Guarantees liveness when producers stall.
    pub flush_timeout: Duration,
    /// Link/compute latency model.
    pub latency: LatencyModel,
    /// If true, the device thread sleeps for the modeled transfer time of
    /// each batch before computing, emulating PCIe + kernel-launch cost in
    /// real time. (Compute itself is the real network forward pass.)
    pub inject_transfer_latency: bool,
    /// Number of concurrent device execution streams (the paper's `N/B`
    /// CUDA streams, §3.3): each stream assembles and executes batches
    /// independently, so transfers of one batch overlap compute of
    /// another.
    pub streams: usize,
}

impl DeviceConfig {
    /// Zero-latency config with the given threshold (tests, CPU baseline).
    pub fn instant(batch_size: usize) -> Self {
        DeviceConfig {
            batch_size,
            flush_timeout: Duration::from_micros(200),
            latency: LatencyModel::zero(),
            inject_transfer_latency: false,
            streams: 1,
        }
    }
}

/// Counters exported by the device (all monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeviceStats {
    /// Number of batches executed.
    pub batches: u64,
    /// Number of samples evaluated.
    pub samples: u64,
    /// Largest batch executed.
    pub max_batch: u64,
    /// Total busy time of the device thread, nanoseconds.
    pub busy_ns: u64,
    /// Batches released by the flush timeout rather than reaching the
    /// threshold — a high ratio signals the producer is too slow for the
    /// configured `B` (§3.3's "GPU waits for the CPU" regime).
    pub timeout_flushes: u64,
    /// Total time requests spent queued before their batch launched, ns.
    pub wait_ns_total: u64,
}

impl DeviceStats {
    /// Mean executed batch size.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.samples as f64 / self.batches as f64
        }
    }

    /// Mean per-request queue wait, nanoseconds.
    pub fn avg_wait_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.wait_ns_total as f64 / self.samples as f64
        }
    }
}

#[derive(Default)]
struct StatsInner {
    batches: AtomicU64,
    samples: AtomicU64,
    max_batch: AtomicU64,
    busy_ns: AtomicU64,
    timeout_flushes: AtomicU64,
    wait_ns_total: AtomicU64,
}

/// A handle to the background accelerator. Cloneable; the device thread
/// stops when the last handle is dropped.
pub struct Device {
    tx: Sender<EvalRequest>,
    batch_size: Arc<AtomicUsize>,
    stats: Arc<StatsInner>,
    handles: Vec<JoinHandle<()>>,
    input_len: usize,
    action_space: usize,
}

impl Device {
    /// Spawn the device stream thread(s) serving `net`, of any
    /// architecture (the paper's 5-conv/3-FC net or the residual tower).
    pub fn new<A: Architecture>(net: Arc<PolicyValueNet<A>>, config: DeviceConfig) -> Self {
        assert!(config.batch_size >= 1, "batch size must be >= 1");
        assert!(config.streams >= 1, "need at least one stream");
        let (tx, rx) = unbounded::<EvalRequest>();
        let batch_size = Arc::new(AtomicUsize::new(config.batch_size));
        let stats = Arc::new(StatsInner::default());
        let (in_c, h, w) = net.config.input_shape();
        let input_len = in_c * h * w;
        let action_space = net.config.actions();

        let handles = (0..config.streams)
            .map(|i| {
                let net = Arc::clone(&net);
                let rx = rx.clone();
                let config = config.clone();
                let thread_batch = Arc::clone(&batch_size);
                let thread_stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("accel-stream-{i}"))
                    .spawn(move || device_loop(net, rx, config, thread_batch, thread_stats))
                    .expect("spawn device stream")
            })
            .collect();

        Device {
            tx,
            batch_size,
            stats,
            handles,
            input_len,
            action_space,
        }
    }

    /// Enqueue a request; returns the completion channel.
    pub fn submit(&self, input: Vec<f32>) -> Receiver<EvalResponse> {
        assert_eq!(input.len(), self.input_len, "input length mismatch");
        let (reply_tx, reply_rx) = bounded(1);
        self.tx
            .send(EvalRequest {
                input,
                tag: 0,
                reply: ReplyTo::Single(reply_tx),
                enqueued: Instant::now(),
            })
            .expect("device thread alive");
        reply_rx
    }

    /// Enqueue a request without blocking and without a dedicated reply
    /// channel: the completion is delivered as a [`TaggedResponse`] on
    /// `reply`. One submitting thread can keep arbitrarily many requests
    /// in flight and drain completions in arrival order — the paper's
    /// §3.3 queue discipline without a blocked OS thread per request.
    pub fn submit_tagged(&self, tag: u64, input: Vec<f32>, reply: &Sender<TaggedResponse>) {
        assert_eq!(input.len(), self.input_len, "input length mismatch");
        self.tx
            .send(EvalRequest {
                input,
                tag,
                reply: ReplyTo::Shared(reply.clone()),
                enqueued: Instant::now(),
            })
            .expect("device thread alive");
    }

    /// Submit and block for the result (convenience for worker threads).
    pub fn evaluate(&self, input: Vec<f32>) -> EvalResponse {
        self.submit(input).recv().expect("device reply")
    }

    /// Open an async submit/poll handle on this device.
    pub fn client(self: &Arc<Self>) -> DeviceClient {
        DeviceClient::new(Arc::clone(self))
    }

    /// Current batch-assembly threshold.
    pub fn batch_size(&self) -> usize {
        self.batch_size.load(Ordering::Relaxed)
    }

    /// Retune the batch threshold at runtime (used by Algorithm 4 search).
    pub fn set_batch_size(&self, b: usize) {
        assert!(b >= 1);
        self.batch_size.store(b, Ordering::Relaxed);
    }

    /// Snapshot of device counters.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            batches: self.stats.batches.load(Ordering::Relaxed),
            samples: self.stats.samples.load(Ordering::Relaxed),
            max_batch: self.stats.max_batch.load(Ordering::Relaxed),
            busy_ns: self.stats.busy_ns.load(Ordering::Relaxed),
            timeout_flushes: self.stats.timeout_flushes.load(Ordering::Relaxed),
            wait_ns_total: self.stats.wait_ns_total.load(Ordering::Relaxed),
        }
    }

    /// Length of a flattened input sample.
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Size of the policy output.
    pub fn action_space(&self) -> usize {
        self.action_space
    }
}

/// Async submit/poll handle over a [`Device`]: one owner thread keeps
/// many evaluations in flight through the shared device queue and drains
/// completions in arrival order, instead of parking one OS thread per
/// outstanding request. The device batches across *all* clients and
/// blocking submitters, so a single client still benefits from
/// cross-request batching.
pub struct DeviceClient {
    device: Arc<Device>,
    reply_tx: Sender<TaggedResponse>,
    reply_rx: Receiver<TaggedResponse>,
    outstanding: usize,
}

impl DeviceClient {
    /// Open a handle (usually via [`Device::client`]).
    pub fn new(device: Arc<Device>) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        DeviceClient {
            device,
            reply_tx,
            reply_rx,
            outstanding: 0,
        }
    }

    /// Fire-and-forget submission; the result arrives via `try_poll`/
    /// `poll` carrying `tag`.
    pub fn submit(&mut self, tag: u64, input: Vec<f32>) {
        self.device.submit_tagged(tag, input, &self.reply_tx);
        self.outstanding += 1;
    }

    /// Non-blocking completion check.
    pub fn try_poll(&mut self) -> Option<TaggedResponse> {
        match self.reply_rx.try_recv() {
            Ok(t) => {
                self.outstanding -= 1;
                Some(t)
            }
            Err(_) => None,
        }
    }

    /// Block until the next completion. Panics if nothing is in flight
    /// (that wait could never end).
    pub fn poll(&mut self) -> TaggedResponse {
        assert!(self.outstanding > 0, "poll with nothing in flight");
        let t = self.reply_rx.recv().expect("device streams alive");
        self.outstanding -= 1;
        t
    }

    /// Requests submitted but not yet polled.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }
}

impl Drop for Device {
    fn drop(&mut self) {
        // Closing the channel makes the device loop exit after draining.
        let (closed_tx, _) = unbounded();
        drop(std::mem::replace(&mut self.tx, closed_tx));
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn device_loop<A: Architecture>(
    net: Arc<PolicyValueNet<A>>,
    rx: Receiver<EvalRequest>,
    config: DeviceConfig,
    batch_size: Arc<AtomicUsize>,
    stats: Arc<StatsInner>,
) {
    let (in_c, h, w) = net.config.input_shape();
    let actions = net.config.actions();
    let mut batch: Vec<EvalRequest> = Vec::new();
    // The stream's own forward scratch and staging, reused batch to batch.
    let mut ws = Workspace::new();
    let (mut flat, mut policy, mut values) = (Vec::new(), Vec::new(), Vec::new());

    loop {
        // Block for the first request of the next batch.
        match rx.recv() {
            Ok(req) => batch.push(req),
            Err(_) => return, // all handles dropped
        }
        // Assemble up to the (dynamic) threshold, bounded by the flush
        // timeout so stalled producers can't deadlock consumers.
        let threshold = batch_size.load(Ordering::Relaxed).max(1);
        let deadline = Instant::now() + config.flush_timeout;
        while batch.len() < threshold {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(req) => batch.push(req),
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        if batch.len() < threshold {
            stats.timeout_flushes.fetch_add(1, Ordering::Relaxed);
        }

        let started = Instant::now();
        for req in &batch {
            let waited = started.duration_since(req.enqueued).as_nanos() as u64;
            stats.wait_ns_total.fetch_add(waited, Ordering::Relaxed);
        }
        if config.inject_transfer_latency {
            let ns = config.latency.transfer_ns(batch.len());
            std::thread::sleep(LatencyModel::to_duration(ns));
        }

        // Pack the batch and run the real network.
        let b = batch.len();
        flat.clear();
        for req in &batch {
            flat.extend_from_slice(&req.input);
        }
        let x = Tensor::from_vec(std::mem::take(&mut flat), &[b, in_c, h, w]);
        net.predict_into(&x, &mut ws, &mut policy, &mut values);
        flat = x.into_vec();

        // Update counters BEFORE delivering replies: a client that
        // returns from recv() must observe its own request in the stats.
        stats.batches.fetch_add(1, Ordering::Relaxed);
        stats.samples.fetch_add(b as u64, Ordering::Relaxed);
        stats.max_batch.fetch_max(b as u64, Ordering::Relaxed);
        stats
            .busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);

        for (i, req) in batch.drain(..).enumerate() {
            let priors = policy[i * actions..(i + 1) * actions].to_vec();
            let value = values[i];
            let response = EvalResponse { priors, value };
            // A dropped receiver just means the client gave up; ignore.
            match req.reply {
                ReplyTo::Single(tx) => {
                    let _ = tx.send(response);
                }
                ReplyTo::Shared(tx) => {
                    let _ = tx.send(TaggedResponse {
                        tag: req.tag,
                        response,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nn::NetConfig;

    /// The net's own forward of one sample: (softmax policy, value).
    fn predict_one<A: Architecture>(net: &PolicyValueNet<A>, input: &[f32]) -> (Vec<f32>, f32) {
        let (c, h, w) = net.config.input_shape();
        let x = Tensor::from_vec(input.to_vec(), &[1, c, h, w]);
        let (mut policy, mut values) = (Vec::new(), Vec::new());
        net.predict_into(&x, &mut Workspace::new(), &mut policy, &mut values);
        (policy, values[0])
    }

    fn tiny_device(batch: usize) -> (Device, Arc<PolicyValueNet>) {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 3));
        let dev = Device::new(Arc::clone(&net), DeviceConfig::instant(batch));
        (dev, net)
    }

    #[test]
    fn single_request_roundtrip() {
        let (dev, net) = tiny_device(1);
        let input = vec![0.5f32; dev.input_len()];
        let resp = dev.evaluate(input.clone());
        assert_eq!(resp.priors.len(), 9);
        assert!((resp.priors.iter().sum::<f32>() - 1.0).abs() < 1e-4);
        // A batch of one is the direct forward, bit for bit.
        assert_eq!((resp.priors, resp.value), predict_one(&net, &input));
    }

    #[test]
    fn batched_results_match_individual() {
        let (dev, net) = tiny_device(4);
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|i| {
                (0..dev.input_len())
                    .map(|j| ((i * 31 + j) % 7) as f32 / 7.0)
                    .collect()
            })
            .collect();
        let rxs: Vec<_> = inputs.iter().map(|inp| dev.submit(inp.clone())).collect();
        for (inp, rx) in inputs.iter().zip(rxs) {
            let resp = rx.recv().unwrap();
            let (pi, v) = predict_one(&net, inp);
            for (a, b) in resp.priors.iter().zip(&pi) {
                assert!((a - b).abs() < 1e-4, "batched vs single priors differ");
            }
            assert!((resp.value - v).abs() < 1e-4);
        }
    }

    #[test]
    fn batches_are_actually_formed() {
        let (dev, _) = tiny_device(8);
        let rxs: Vec<_> = (0..8)
            .map(|_| dev.submit(vec![0.0; dev.input_len()]))
            .collect();
        for rx in rxs {
            rx.recv().unwrap();
        }
        let s = dev.stats();
        assert_eq!(s.samples, 8);
        assert!(
            s.batches <= 4,
            "expected batching, got {} batches",
            s.batches
        );
        assert!(s.max_batch >= 2);
    }

    #[test]
    fn flush_timeout_preserves_liveness() {
        // Threshold 64 but only one request: the flush must release it.
        let (dev, _) = tiny_device(64);
        let t0 = Instant::now();
        let _ = dev.evaluate(vec![0.0; dev.input_len()]);
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn runtime_batch_retune() {
        let (dev, _) = tiny_device(2);
        assert_eq!(dev.batch_size(), 2);
        dev.set_batch_size(16);
        assert_eq!(dev.batch_size(), 16);
        let _ = dev.evaluate(vec![0.0; dev.input_len()]); // still live
    }

    #[test]
    fn transfer_latency_injection_slows_batches() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 3));
        let mut lat = LatencyModel::zero();
        lat.launch_ns = 20_000_000.0; // 20 ms per submission
        let dev = Device::new(
            net,
            DeviceConfig {
                batch_size: 1,
                flush_timeout: Duration::from_micros(50),
                latency: lat,
                inject_transfer_latency: true,
                streams: 1,
            },
        );
        let t0 = Instant::now();
        let _ = dev.evaluate(vec![0.0; dev.input_len()]);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn multi_stream_device_overlaps_transfer_latency() {
        // 4 batches with 20 ms injected transfer each: one stream needs
        // >= 80 ms; four streams overlap the sleeps.
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 3));
        let mut lat = LatencyModel::zero();
        lat.launch_ns = 20_000_000.0;
        let run = |streams: usize| {
            let dev = Device::new(
                Arc::clone(&net),
                DeviceConfig {
                    batch_size: 1,
                    flush_timeout: Duration::from_micros(50),
                    latency: lat,
                    inject_transfer_latency: true,
                    streams,
                },
            );
            let t0 = Instant::now();
            let rxs: Vec<_> = (0..4)
                .map(|_| dev.submit(vec![0.0; dev.input_len()]))
                .collect();
            for rx in rxs {
                rx.recv().unwrap();
            }
            t0.elapsed()
        };
        let serial = run(1);
        let parallel = run(4);
        assert!(serial >= Duration::from_millis(70), "serial {serial:?}");
        assert!(
            parallel < serial / 2,
            "streams failed to overlap: {parallel:?} vs {serial:?}"
        );
    }

    #[test]
    fn multi_stream_results_still_correct() {
        let net = Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), 3));
        let dev = Device::new(
            Arc::clone(&net),
            DeviceConfig {
                streams: 3,
                ..DeviceConfig::instant(2)
            },
        );
        let input: Vec<f32> = (0..dev.input_len()).map(|i| (i % 4) as f32 * 0.3).collect();
        let resp = dev.evaluate(input.clone());
        assert_eq!((resp.priors, resp.value), predict_one(&net, &input));
    }

    #[test]
    fn resnet_model_served_identically() {
        use nn::resnet::{ResNetConfig, ResNetPolicyValueNet};
        let net = Arc::new(ResNetPolicyValueNet::new(
            ResNetConfig::tiny(3, 4, 4, 16),
            7,
        ));
        let dev = Device::new(Arc::clone(&net), DeviceConfig::instant(2));
        assert_eq!(dev.input_len(), 3 * 4 * 4);
        assert_eq!(dev.action_space(), 16);
        let input: Vec<f32> = (0..dev.input_len()).map(|i| (i % 5) as f32 * 0.2).collect();
        let resp = dev.evaluate(input.clone());
        assert_eq!((resp.priors, resp.value), predict_one(&net, &input));
    }

    #[test]
    fn timeout_flush_counter_tracks_partial_batches() {
        // Threshold 64 with a single request: must register one timeout
        // flush and a queue wait at least as long as the flush window.
        let (dev, _) = tiny_device(64);
        let _ = dev.evaluate(vec![0.0; dev.input_len()]);
        let s = dev.stats();
        assert_eq!(s.timeout_flushes, 1);
        assert!(s.avg_wait_ns() > 0.0);
        assert!((s.avg_batch() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn full_batches_do_not_count_as_timeouts() {
        let (dev, _) = tiny_device(1);
        for _ in 0..5 {
            let _ = dev.evaluate(vec![0.0; dev.input_len()]);
        }
        let s = dev.stats();
        assert_eq!(s.timeout_flushes, 0, "threshold-1 batches fill instantly");
        assert_eq!(s.batches, 5);
    }

    #[test]
    fn stats_avg_helpers_handle_empty() {
        let s = DeviceStats::default();
        assert_eq!(s.avg_batch(), 0.0);
        assert_eq!(s.avg_wait_ns(), 0.0);
    }

    #[test]
    fn client_keeps_many_requests_in_flight_from_one_thread() {
        let (dev, net) = tiny_device(4);
        let dev = Arc::new(dev);
        let mut client = dev.client();
        let inputs: Vec<Vec<f32>> = (0..12)
            .map(|i| {
                (0..dev.input_len())
                    .map(|j| ((i * 13 + j) % 9) as f32 / 9.0)
                    .collect()
            })
            .collect();
        for (i, inp) in inputs.iter().enumerate() {
            client.submit(i as u64, inp.clone());
        }
        assert_eq!(client.outstanding(), 12);
        let mut got = [false; 12];
        while client.outstanding() > 0 {
            let t = client.poll();
            let i = t.tag as usize;
            assert!(!got[i], "duplicate completion for tag {i}");
            got[i] = true;
            // Must match a direct forward pass.
            let (pi, v) = predict_one(&net, &inputs[i]);
            for (a, b) in t.response.priors.iter().zip(&pi) {
                assert!((a - b).abs() < 1e-5);
            }
            assert!((t.response.value - v).abs() < 1e-5);
        }
        assert!(got.iter().all(|&g| g));
        // One submitting thread, threshold 4: real batches must form.
        let s = dev.stats();
        assert!(s.max_batch >= 2, "async submission failed to batch");
    }

    #[test]
    fn client_try_poll_is_nonblocking() {
        let (dev, _) = tiny_device(1);
        let dev = Arc::new(dev);
        let mut client = dev.client();
        assert!(client.try_poll().is_none(), "nothing in flight yet");
        client.submit(7, vec![0.0; dev.input_len()]);
        let deadline = Instant::now() + Duration::from_secs(5);
        let t = loop {
            if let Some(t) = client.try_poll() {
                break t;
            }
            assert!(Instant::now() < deadline, "completion never arrived");
            std::thread::yield_now();
        };
        assert_eq!(t.tag, 7);
        assert_eq!(client.outstanding(), 0);
    }

    #[test]
    fn concurrent_submitters() {
        let (dev, _) = tiny_device(4);
        let dev = Arc::new(dev);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = Arc::clone(&dev);
                s.spawn(move || {
                    for _ in 0..5 {
                        let r = d.evaluate(vec![0.1; d.input_len()]);
                        assert_eq!(r.priors.len(), 9);
                    }
                });
            }
        });
        assert_eq!(dev.stats().samples, 40);
    }
}
