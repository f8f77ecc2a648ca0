//! Cross-path consistency of the batch-first evaluation API: the CPU
//! batched path, the single-sample legacy adapter, and the accelerator
//! queue must be *numerically interchangeable* — batching may change
//! when inference happens, never what it computes. Plus scheme parity:
//! `SearchBuilder` output must match the direct constructors
//! seed-for-seed.

use adaptive_dnn_mcts::prelude::*;
use std::sync::Arc;

fn tiny_net(seed: u64) -> Arc<PolicyValueNet> {
    Arc::new(PolicyValueNet::new(NetConfig::tiny(4, 3, 3, 9), seed))
}

fn probe_inputs(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..36)
                .map(|j| ((i * 29 + j * 7) % 11) as f32 / 11.0)
                .collect()
        })
        .collect()
}

/// The pre-redesign inference path, byte for byte: one blocking
/// single-sample network call per sample, batches run as a loop.
struct OneAtATime(Arc<PolicyValueNet>);

impl BatchEvaluator for OneAtATime {
    fn input_len(&self) -> usize {
        36
    }
    fn action_space(&self) -> usize {
        9
    }
    fn evaluate_batch(&self, inputs: &[&[f32]], out: &mut [EvalOutput]) {
        for (input, o) in inputs.iter().zip(out.iter_mut()) {
            let x = tensor::Tensor::from_vec(input.to_vec(), &[1, 4, 3, 3]);
            let mut ws = tensor::Workspace::new();
            let (mut priors, mut values) = (Vec::new(), Vec::new());
            self.0.predict_into(&x, &mut ws, &mut priors, &mut values);
            *o = EvalOutput {
                priors,
                value: values[0],
            };
        }
    }
}

#[test]
fn batched_legacy_and_device_paths_agree() {
    let net = tiny_net(41);
    let inputs = probe_inputs(7);
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();

    // Path 1: native CPU batched (one forward pass for all 7).
    let nn = NnEvaluator::new(Arc::clone(&net));
    let mut batched = vec![EvalOutput::default(); 7];
    nn.evaluate_batch(&refs, &mut batched);
    assert_eq!(nn.forward_calls(), 1, "7 samples must be ONE forward pass");

    // Path 2: a single-sample backend looping over the batch.
    let legacy = OneAtATime(Arc::clone(&net));
    let mut adapted = vec![EvalOutput::default(); 7];
    legacy.evaluate_batch(&refs, &mut adapted);

    // Path 3: the accelerator queue (batch threshold 4 → two device
    // batches for 7 requests, submitted from this one thread).
    let dev = Arc::new(Device::new(Arc::clone(&net), DeviceConfig::instant(4)));
    let accel = AccelEvaluator::new(Arc::clone(&dev));
    let mut queued = vec![EvalOutput::default(); 7];
    accel.evaluate_batch(&refs, &mut queued);

    // Path 4: raw async DeviceClient submit/poll.
    let mut client = dev.client();
    for (i, x) in inputs.iter().enumerate() {
        client.submit(i as u64, x.clone());
    }
    let mut polled = vec![EvalOutput::default(); 7];
    while client.outstanding() > 0 {
        let t = client.poll();
        polled[t.tag as usize] = EvalOutput {
            priors: t.response.priors,
            value: t.response.value,
        };
    }

    for i in 0..7 {
        for (path_name, path) in [
            ("legacy-adapter", &adapted),
            ("device-queue", &queued),
            ("device-client", &polled),
        ] {
            assert_eq!(batched[i].priors.len(), path[i].priors.len());
            for (a, b) in batched[i].priors.iter().zip(&path[i].priors) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "sample {i}: {path_name} prior diverges from CPU batch: {a} vs {b}"
                );
            }
            assert!(
                (batched[i].value - path[i].value).abs() < 1e-5,
                "sample {i}: {path_name} value diverges"
            );
        }
    }
}

#[test]
fn accel_evaluator_batch_needs_no_thread_per_request() {
    // 16 in-flight requests, one submitting thread, threshold 8: if the
    // old block-per-request model were still in place this would need 16
    // OS threads to ever fill a batch. The stats prove real batches
    // formed from a single-threaded submitter.
    let net = tiny_net(42);
    let dev = Arc::new(Device::new(net, DeviceConfig::instant(8)));
    let accel = AccelEvaluator::new(Arc::clone(&dev));
    let inputs = probe_inputs(16);
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    let mut out = vec![EvalOutput::default(); 16];
    accel.evaluate_batch(&refs, &mut out);
    let s = dev.stats();
    assert_eq!(s.samples, 16);
    assert!(
        s.max_batch >= 4,
        "single-threaded submission failed to fill device batches (max {})",
        s.max_batch
    );
}

#[test]
fn builder_matches_direct_constructors_seed_for_seed() {
    use mcts::leaf_parallel::LeafParallelSearch;
    use mcts::local::LocalTreeSearch;
    use mcts::root_parallel::RootParallelSearch;
    use mcts::shared::SharedTreeSearch;
    use mcts::ReusableSearch;

    let g = TicTacToe::new();
    // One worker everywhere: every scheme is then deterministic, so
    // builder and direct construction must agree visit-for-visit.
    let cfg = MctsConfig {
        playouts: 90,
        workers: 1,
        ..Default::default()
    };
    let eval = || Arc::new(UniformEvaluator::for_game(&g));

    for scheme in Scheme::ALL {
        let built = SearchBuilder::new(scheme)
            .config(cfg)
            .evaluator(eval())
            .build::<TicTacToe>()
            .search(&g);
        let direct = match scheme {
            Scheme::Serial => {
                SearchScheme::<TicTacToe>::search(&mut ReusableSearch::one_shot(cfg, eval()), &g)
            }
            Scheme::SharedTree => {
                SearchScheme::<TicTacToe>::search(&mut SharedTreeSearch::new(cfg, eval()), &g)
            }
            Scheme::LocalTree => {
                SearchScheme::<TicTacToe>::search(&mut LocalTreeSearch::new(cfg, eval()), &g)
            }
            Scheme::LeafParallel => {
                SearchScheme::<TicTacToe>::search(&mut LeafParallelSearch::new(cfg, eval()), &g)
            }
            Scheme::RootParallel => {
                SearchScheme::<TicTacToe>::search(&mut RootParallelSearch::new(cfg, eval()), &g)
            }
            Scheme::Speculative => {
                // The builder's defaults: uniform speculative model,
                // worker-sized commit batches.
                let spec = Arc::new(UniformEvaluator::for_game(&g));
                let mut s = SpeculativeSearch::new(cfg, eval(), spec, 1);
                SearchScheme::<TicTacToe>::search(&mut s, &g)
            }
        };
        assert_eq!(
            built.visits, direct.visits,
            "{scheme}: builder and direct constructor diverge"
        );
        assert_eq!(built.stats.playouts, direct.stats.playouts, "{scheme}");
    }
}

#[test]
fn builder_with_network_matches_direct_serial_search() {
    use mcts::ReusableSearch;
    let net = tiny_net(43);
    let g = TicTacToe::new();
    let cfg = MctsConfig {
        playouts: 70,
        workers: 1,
        ..Default::default()
    };
    let built = SearchBuilder::new(Scheme::Serial)
        .config(cfg)
        .evaluator(Arc::new(NnEvaluator::new(Arc::clone(&net))))
        .build::<TicTacToe>()
        .search(&g);
    let direct = SearchScheme::<TicTacToe>::search(
        &mut ReusableSearch::one_shot(cfg, Arc::new(NnEvaluator::new(net))),
        &g,
    );
    assert_eq!(built.visits, direct.visits);
}

#[test]
fn all_schemes_search_identically_through_every_eval_route() {
    // The same deterministic 1-worker serial search through three
    // different evaluation routes must produce identical trees.
    let net = tiny_net(44);
    let g = TicTacToe::new();
    let cfg = MctsConfig {
        playouts: 60,
        workers: 1,
        ..Default::default()
    };
    let run = |search: &mut dyn SearchScheme<TicTacToe>| search.search(&g).visits;

    let cpu = run(SearchBuilder::new(Scheme::Serial)
        .config(cfg)
        .evaluator(Arc::new(NnEvaluator::new(Arc::clone(&net))))
        .build::<TicTacToe>()
        .as_mut());
    let legacy = run(SearchBuilder::new(Scheme::Serial)
        .config(cfg)
        .evaluator(Arc::new(OneAtATime(Arc::clone(&net))))
        .build::<TicTacToe>()
        .as_mut());
    let device = run(SearchBuilder::new(Scheme::Serial)
        .config(cfg)
        .device(Arc::new(Device::new(net, DeviceConfig::instant(1))))
        .build::<TicTacToe>()
        .as_mut());
    assert_eq!(cpu, legacy, "single-sample backend altered the search");
    assert_eq!(cpu, device, "device route altered the search");
}
