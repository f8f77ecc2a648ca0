//! The ladder: each layer's public entry points timed directly, one rung
//! at a time, so an end-to-end figure can be audited as a sum. The rungs
//! do not depend on the workload or the seed; every traced run measures
//! them after its server is gone.

use crate::gen;
use crate::metrics::Metrics;
use crate::stats;
use crate::wire;
use games::{Action, Game};
use mcts::{
    BatchEvaluator, EvalCache, EvalCacheConfig, EvalOutput, Scheme, SearchBuilder, SearchResult,
    UniformEvaluator,
};
use net::{Frame, GameSpec, WireResult};
use nn::NetConfig;
use perfmodel::model::{local_cpu_iteration_ns, shared_cpu_iteration_ns};
use perfmodel::{choose_scheme, PerfParams, Platform};
use serve::{AdmissionConfig, AdmissionController};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tensor::conv::{im2col_batch, Conv2dSpec};
use tensor::quant::{qgemm, QuantizedWeights};
use tensor::{Tensor, Workspace};

/// Median nanoseconds per call: `samples` timings of `calls` back-to-back
/// calls each, after one untimed round.
fn time_ns(samples: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&mut per_call)
}

/// Deterministic filler for GEMM operands in `[-1, 1)`.
fn filler(n: usize, seed: u64) -> Vec<f32> {
    let mut rng = gen::SplitMix64::new(seed);
    (0..n)
        .map(|_| (rng.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        .collect()
}

pub fn run(smoke: bool, m: &mut Metrics) {
    // (samples, scale of calls per sample)
    let (samples, scale) = if smoke { (3, 1) } else { (15, 16) };
    let positions = gen::positions(1, 8, 10, 20);
    let mid = &positions[0];

    net_rungs(samples, 64 * scale, &mid.moves, m);
    serve_rungs(samples, 256 * scale, m);
    cache_rungs(samples, 256 * scale, m);
    games_rungs(samples, 64 * scale, m);
    tensor_rungs(samples, scale, m);
    nn_rungs(samples, scale, &positions, m);
    scheme_rungs(if smoke { 1 } else { 3 }, smoke, &mid.root, m);
}

fn net_rungs(samples: usize, calls: usize, moves: &[Action], m: &mut Metrics) {
    let submit = Frame::Submit {
        id: 7,
        spec: GameSpec::Gomoku {
            size: gen::BOARD as u8,
            win: gen::WIN as u8,
        },
        moves: moves.to_vec(),
        playouts: 256,
        time_ms: 0,
        max_nodes: 0,
        priority: 1,
    };
    let actions = gen::BOARD * gen::BOARD;
    let terminal = Frame::Final {
        id: 7,
        cancelled: false,
        result: WireResult {
            seq: 4,
            playouts: 256,
            nodes: 9000,
            value: 0.125,
            visits: (0..actions as u32).collect(),
            probs: vec![1.0 / actions as f32; actions],
        },
    };
    for (frame, tag) in [(&submit, "submit"), (&terminal, "final")] {
        let mut buf = Vec::with_capacity(1024);
        let encode = time_ns(samples, calls, || {
            buf.clear();
            frame.encode(&mut buf);
            black_box(buf.len());
        });
        let decode = time_ns(samples, calls, || {
            black_box(Frame::decode(black_box(&buf)).expect("decodes what encode wrote"));
        });
        m.set(&format!("net.frame_encode_ns.{tag}"), encode);
        m.set(&format!("net.frame_decode_ns.{tag}"), decode);
    }
}

fn serve_rungs(samples: usize, calls: usize, m: &mut Metrics) {
    // The pair a session pays: admission at submit, release at its end.
    let gate = AdmissionController::new(AdmissionConfig {
        playouts_per_sec: 1e9,
        burst_playouts: 1 << 40,
        ..Default::default()
    });
    let admit = time_ns(samples, calls, || {
        gate.try_admit(0, 256).expect("limits are out of reach");
        gate.release(0);
    });
    m.set("serve.admit_ns", admit);
}

fn cache_rungs(samples: usize, calls: usize, m: &mut Metrics) {
    let actions = gen::BOARD * gen::BOARD;
    let cache = EvalCache::new(
        EvalCacheConfig::with_capacity(wire::REPEAT_CACHE_BYTES),
        actions,
    );
    let priors = vec![1.0 / actions as f32; actions];
    let mut keys = gen::SplitMix64::new(42);
    let resident: Vec<u64> = (0..4096).map(|_| keys.next_u64()).collect();
    for &k in &resident {
        cache.insert(k, &priors, 0.5);
    }
    let mut out = EvalOutput::default();
    let mut i = 0;
    let hit = time_ns(samples, calls, || {
        i = (i + 1) % resident.len();
        black_box(cache.get(resident[i], &mut out));
    });
    let miss = time_ns(samples, calls, || {
        black_box(cache.get(keys.next_u64(), &mut out));
    });
    let insert = time_ns(samples, calls, || {
        cache.insert(keys.next_u64(), &priors, 0.5);
    });
    m.set("mcts.cache_get_ns.hit", hit);
    m.set("mcts.cache_get_ns.miss", miss);
    m.set("mcts.cache_insert_ns", insert);
}

fn games_rungs(samples: usize, calls: usize, m: &mut Metrics) {
    // Forty legal moves that do not end the game, replayed from the
    // empty board: one clone amortised over forty applies.
    let line = gen::positions(3, 1, 40, 40).remove(0);
    let empty = gen::empty_board();
    let replay = time_ns(samples, calls / 16 + 1, || {
        let mut g = empty.clone();
        for &a in &line.moves {
            g.apply(a);
        }
        black_box(g.move_count());
    });
    m.set("games.apply_ns", replay / line.moves.len() as f64);

    let mid = gen::positions(1, 1, 16, 16).remove(0).root;
    let mut legal = Vec::with_capacity(mid.action_space());
    let mut planes = vec![0.0f32; mid.encoded_len()];
    m.set(
        "games.legal_actions_ns",
        time_ns(samples, calls, || {
            mid.legal_actions_into(&mut legal);
            black_box(legal.len());
        }),
    );
    m.set(
        "games.encode_ns",
        time_ns(samples, calls, || {
            mid.encode(&mut planes);
            black_box(planes[0]);
        }),
    );
    m.set(
        "games.hash_ns",
        time_ns(samples, calls * 4, || {
            black_box(black_box(&mid).hash());
        }),
    );
}

/// The widest convolution of the served net's trunk, as one GEMM.
fn trunk_conv(cfg: &NetConfig) -> Conv2dSpec {
    Conv2dSpec {
        in_c: cfg.trunk[1],
        out_c: cfg.trunk[2],
        in_h: cfg.h,
        in_w: cfg.w,
        kh: 3,
        kw: 3,
        stride: 1,
        pad: 1,
    }
}

fn tensor_rungs(samples: usize, scale: usize, m: &mut Metrics) {
    let cfg = wire::model().config;
    let conv = trunk_conv(&cfg);
    let (rows, k) = (conv.out_c, conv.col_rows());
    let weights = filler(rows * k, 1);
    let qweights = QuantizedWeights::quantize(&weights, rows, k);
    for batch in [1usize, 8] {
        let n = conv.col_cols() * batch;
        let cols = filler(k * n, 2);
        let mut out = vec![0.0f32; rows * n];
        let ops = (2 * rows * n * k) as f64;
        let f32_ns = time_ns(samples, 4 * scale, || {
            tensor::ops::gemm(
                false, false, rows, n, k, 1.0, &weights, &cols, 0.0, &mut out,
            );
            black_box(out[0]);
        });
        let int8_ns = time_ns(samples, 4 * scale, || {
            qgemm(&qweights, &cols, false, n, &mut out, None, false);
            black_box(out[0]);
        });
        m.set(&format!("tensor.gemm_f32_gflops.b{batch}"), ops / f32_ns);
        m.set(&format!("tensor.gemm_int8_gops.b{batch}"), ops / int8_ns);
    }
    let batch = 8;
    let input = filler(batch * conv.in_c * conv.in_h * conv.in_w, 3);
    let mut col = vec![0.0f32; conv.col_rows() * conv.col_cols() * batch];
    let im2col_ns = time_ns(samples, 4 * scale, || {
        im2col_batch(&conv, batch, &input, &mut col);
        black_box(col[0]);
    });
    m.set("tensor.im2col_us.b8", im2col_ns * 1e-3);

    // Computed from the layer shapes, not measured: multiply-adds × 2,
    // and int8 weights plus f32 activations in and out of every layer.
    let plane = cfg.h * cfg.w;
    let [t1, t2, t3] = cfg.trunk;
    // (inputs per output, outputs) of each GEMM-shaped layer.
    let layers = [
        (cfg.in_c * 9, t1 * plane),
        (t1 * 9, t2 * plane),
        (t2 * 9, t3 * plane),
        (t3, cfg.policy_c * plane),
        (cfg.policy_c * plane, cfg.actions),
        (t3, cfg.value_c * plane),
        (cfg.value_c * plane, cfg.value_hidden),
        (cfg.value_hidden, 1),
    ];
    let flops: usize = layers.iter().map(|&(fan_in, outs)| 2 * fan_in * outs).sum();
    let weight_bytes = (cfg.in_c * t1 + t1 * t2 + t2 * t3) * 9
        + t3 * (cfg.policy_c + cfg.value_c)
        + cfg.policy_c * plane * cfg.actions
        + cfg.value_c * plane * cfg.value_hidden
        + cfg.value_hidden;
    let activations = cfg.in_c * plane
        + 2 * (t1 + t2 + t3 + cfg.policy_c + cfg.value_c) * plane
        + cfg.actions
        + 2 * cfg.value_hidden
        + 1;
    m.set("tensor.forward_flops_per_sample", flops as f64);
    m.set(
        "tensor.forward_bytes_per_sample",
        (weight_bytes + 4 * activations) as f64,
    );
}

fn nn_rungs(samples: usize, scale: usize, positions: &[gen::Position], m: &mut Metrics) {
    let net = wire::model();
    let quantised = net
        .quantized_for_inference()
        .expect("the served net has an int8 form");
    let cfg = net.config;
    let sample_len = cfg.in_c * cfg.h * cfg.w;
    let mut ws = Workspace::new();
    let (mut policy, mut values) = (Vec::new(), Vec::new());
    for batch in [1usize, 2, 4, 8] {
        // Real board encodings, not noise: zeros and ones are what the
        // activation quantiser sees in service.
        let mut planes = vec![0.0f32; batch * sample_len];
        for (b, chunk) in planes.chunks_mut(sample_len).enumerate() {
            positions[b % positions.len()].root.encode(chunk);
        }
        let x = Tensor::from_vec(planes, &[batch, cfg.in_c, cfg.h, cfg.w]);
        let int8_ns = time_ns(samples, 2 * scale, || {
            quantised.predict_into(&x, &mut ws, &mut policy, &mut values);
            black_box(values[0]);
        });
        m.set(&format!("nn.forward_us.int8.b{batch}"), int8_ns * 1e-3);
        if batch == 1 || batch == 8 {
            let f32_ns = time_ns(samples, 2 * scale, || {
                net.predict_into(&x, &mut ws, &mut policy, &mut values);
                black_box(values[0]);
            });
            m.set(&format!("nn.forward_us.f32.b{batch}"), f32_ns * 1e-3);
        }
    }
}

/// The paper's schemes on one position with the uniform evaluator, and
/// the paper's model (Eqs. 3 and 5) fed with the serial rung's own phase
/// times. Two workers on a small shared host do not repeat; these are
/// reading aids, never gated.
fn scheme_rungs(reps: usize, smoke: bool, root: &games::gomoku::Gomoku, m: &mut Metrics) {
    let playouts = if smoke { 200 } else { 1600 };
    let evaluator: Arc<dyn BatchEvaluator> = Arc::new(UniformEvaluator::for_game(root));
    let measure = |scheme: Scheme, workers: usize| -> (f64, SearchResult) {
        let mut search = SearchBuilder::new(scheme)
            .playouts(playouts)
            .workers(workers)
            .evaluator(Arc::clone(&evaluator))
            .build::<games::gomoku::Gomoku>();
        let mut last = search.search(root);
        let mut rates: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                last = search.search(root);
                last.stats.playouts as f64 / t0.elapsed().as_secs_f64()
            })
            .collect();
        (stats::median(&mut rates), last)
    };
    let (serial, serial_result) = measure(Scheme::Serial, 1);
    let (shared, shared_result) = measure(Scheme::SharedTree, 2);
    let (local, _) = measure(Scheme::LocalTree, 2);
    m.set("mcts.serial_playouts_per_s", serial);
    m.set("mcts.shared_n2_playouts_per_s", shared);
    m.set("mcts.local_n2_playouts_per_s", local);
    let sh = shared_result.stats;
    m.set(
        "mcts.collisions_per_kplayout",
        sh.collisions as f64 * 1000.0 / sh.playouts.max(1) as f64,
    );

    let st = serial_result.stats;
    let per = |ns: u64| ns as f64 / st.playouts.max(1) as f64;
    let (buffer_mib, hops) = if smoke { (1, 10_000) } else { (16, 100_000) };
    let params = PerfParams::cpu_only(
        2,
        per(st.select_ns),
        per(st.backup_ns),
        perfmodel::profiler::profile_memory_latency(buffer_mib, hops),
        per(st.eval_ns),
    );
    m.set(
        "perfmodel.shared_pred_over_meas",
        shared_cpu_iteration_ns(&params) / (1e9 / shared),
    );
    m.set(
        "perfmodel.local_pred_over_meas",
        local_cpu_iteration_ns(&params) / (1e9 / local),
    );
    let (chosen, _, _) = choose_scheme(Platform::CpuOnly, &params);
    let faster = if local >= shared {
        Scheme::LocalTree
    } else {
        Scheme::SharedTree
    };
    m.set("perfmodel.choice_agrees", (chosen == faster) as u8 as f64);
}
