//! The run itself: cold set-ups in processes of their own (`setup_s`),
//! one measured phase, and — with `--trace 1` — an untraced reference phase,
//! a traced phase, the workload's own layer measurements and the ladder.

use crate::core::{summarise, Opts, PhaseLog, Spec, Summary, Workload};
use crate::metrics::{Metrics, Report, END_TO_END, PER_LAYER};
use crate::trace::{self, Span, Tracer};
use crate::{ladder, proc, stats, tree, wire};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cold set-ups per untraced run, half of them before the measured phase
/// and half after it; `setup_s` is their median. Each is a process of
/// its own (`--setup-only`), timed by this one from `spawn` to the line
/// the child prints when its warm-up is done and the first measured
/// request could go out: process start, page faults, lazy initialisation
/// and all, which a second set-up in a warm process would not pay. What
/// disturbs the host lasts seconds (five set-ups in a row agree within a
/// few per cent and differ by a third from the five half a minute
/// later), hence the two groups.
const COLD_SETUPS: usize = 10;
/// What a `--setup-only` child prints once it is set up.
const READY: &str = "ready";
/// Every phase issues at least this many requests per client, however
/// short: the digest and the smoke runs need a fixed floor.
pub const MIN_REQUESTS: usize = 8;
/// Spans one traced phase may keep (~50 MB if it ever filled).
const SPAN_CAPACITY: usize = 1 << 20;

/// What a workload's layer measurements hand back.
pub struct LayerOut {
    /// Separation asserts that do not hold.
    pub violations: Vec<String>,
    /// Mean time per request the program accounts for itself (the
    /// search's select + backup + eval phases), for the stack residual.
    pub in_program_ms: f64,
    /// Whether a request also pays the `net`/`serve` rungs of the ladder.
    pub over_the_wire: bool,
    /// Logs of extra phases the workload ran, for the failure count.
    pub extra_logs: Vec<PhaseLog>,
}

/// What a traced phase hands to the workload's layer measurements.
pub struct TraceCtx<'a> {
    pub opts: &'a Opts,
    pub spec: &'a Spec,
    pub spans: &'a [Span],
    pub traced: &'a PhaseLog,
    pub summary: &'a Summary,
    /// Time the workload may spend on extra phases of its own.
    pub extra: Duration,
}

/// A workload, set up and warm.
pub trait Env: Sized {
    /// Generate inputs from the seed, build what is under test and run
    /// the fixed-count warm-up. All of it is `setup_s`.
    fn setup(opts: &Opts, spec: &Spec, tracer: Option<Arc<Tracer>>) -> Self;

    /// One closed-loop phase: every client issues requests back to back
    /// for `dur`, and at least `MIN_REQUESTS` of them.
    fn phase(&mut self, dur: Duration) -> PhaseLog;

    /// Digest of the best actions of the warm-up and the first
    /// `MIN_REQUESTS` measured requests, where that is deterministic.
    fn digest(&self) -> Option<u64> {
        None
    }

    /// Fill in this workload's per-layer metrics from the traced phase
    /// (called right after it).
    fn layer_metrics(&mut self, ctx: &TraceCtx, m: &mut Metrics) -> LayerOut;

    fn teardown(self) {}
}

pub fn run(opts: &Opts) -> Report {
    match opts.workload {
        Workload::TreeFresh | Workload::TreeStream => run_env::<tree::TreeEnv>(opts),
        Workload::WireUnique | Workload::WireRepeat => run_env::<wire::WireEnv>(opts),
    }
}

fn run_env<E: Env>(opts: &Opts) -> Report {
    let spec = opts.workload.spec();
    if opts.trace {
        run_traced::<E>(opts, &spec)
    } else {
        run_untraced::<E>(opts, &spec)
    }
}

fn report(
    log: &[&PhaseLog],
    digest: Option<u64>,
    violations: &[String],
    metrics: Metrics,
) -> Report {
    for l in log {
        if let Some(e) = l.first_error() {
            eprintln!("first failure: {e}");
        }
    }
    for v in violations {
        eprintln!("separation assert failed: {v}");
    }
    if let Some(d) = digest {
        println!("digest {d:016x}");
    }
    Report {
        correct: log.iter().all(|l| l.incorrect() == 0) && violations.is_empty(),
        attempted: log.iter().map(|l| l.attempted()).sum::<u64>().max(1),
        failed: log.iter().map(|l| l.failed()).sum(),
        metrics,
    }
}

/// `--setup-only`: set up, say so, tear down.
pub fn setup_only(opts: &Opts) {
    fn go<E: Env>(opts: &Opts) {
        let env = E::setup(opts, &opts.workload.spec(), None);
        println!("{READY}");
        env.teardown();
    }
    match opts.workload {
        Workload::TreeFresh | Workload::TreeStream => go::<tree::TreeEnv>(opts),
        Workload::WireUnique | Workload::WireRepeat => go::<wire::WireEnv>(opts),
    }
}

/// Seconds from starting a `--setup-only` child to its `READY` line.
fn cold_setup_s(opts: &Opts) -> f64 {
    let exe = std::env::current_exe().expect("the path of this executable");
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", opts.workload.spec().name, "--setup-only"])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--scale-work", &opts.scale_work.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("start a set-up process");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("read the set-up process's output");
    let seconds = t0.elapsed().as_secs_f64();
    let status = child.wait().expect("wait for the set-up process");
    assert!(
        status.success() && line.trim_end() == READY,
        "set-up process: {status}, said {line:?}"
    );
    seconds
}

fn run_untraced<E: Env>(opts: &Opts, spec: &Spec) -> Report {
    let (before, after) = if opts.smoke {
        (1, 0)
    } else {
        (COLD_SETUPS / 2, COLD_SETUPS - COLD_SETUPS / 2)
    };
    let mut setup_s: Vec<f64> = (0..before).map(|_| cold_setup_s(opts)).collect();
    let mut env = E::setup(opts, spec, None);
    let log = env.phase(Duration::from_secs_f64(opts.seconds));
    let digest = env.digest();
    env.teardown();
    setup_s.extend((0..after).map(|_| cold_setup_s(opts)));

    let s = summarise(&log, spec);
    println!(
        "{}: {} requests in {:.2} s over {} slots; {} blocks of {} (quiet index {:.3}), mean {:.0} playouts/s, median of all requests {:.3} ms, p{:.1} {:.3} ms, {:.3} CPU-ms/request",
        spec.name,
        log.completed(),
        log.wall_s,
        s.slots,
        s.blocks,
        spec.block_k,
        s.quiet_index,
        s.mean_playouts_per_s,
        s.req_p50_all_ms,
        s.tail_q * 100.0,
        s.tail_ms,
        s.cpu_ms_per_req
    );
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", stats::median(&mut setup_s));
    m.set("playouts_per_s", s.playouts_per_s);
    m.set("req_p50_ms", s.req_p50_ms);
    m.set("slo_share", s.slo_share);
    m.set("peak_rss_mb", proc::peak_rss_mb());
    report(&[&log], digest, &[], m)
}

fn run_traced<E: Env>(opts: &Opts, spec: &Spec) -> Report {
    // The traced run splits its time into three equal phases, so that
    // their slots have equally many repeats to take a fastest one from:
    // a reference phase with recording off, the traced phase, and the
    // workload's own extra phase (the `tree_*` pair has none). The
    // ladder's fixed repetition counts take a few seconds on top.
    let part = |share: f64| Duration::from_secs_f64(opts.seconds * share);
    let tracer = Arc::new(Tracer::new(SPAN_CAPACITY));
    let mut env = E::setup(opts, spec, Some(Arc::clone(&tracer)));
    let reference = env.phase(part(0.3));
    tracer.set_enabled(true);
    let traced = env.phase(part(0.3));
    tracer.set_enabled(false);
    let spans = tracer.snapshot();
    let (ref_s, s) = (summarise(&reference, spec), summarise(&traced, spec));

    let mut m = Metrics::new(PER_LAYER);
    m.set("bench.mean_playouts_per_s", s.mean_playouts_per_s);
    m.set("bench.cpu_ms_per_req", s.cpu_ms_per_req);
    m.set("bench.req_p50_all_ms", s.req_p50_all_ms);
    m.set("bench.req_p95_ms", s.tail_ms);
    m.set("bench.blocks", s.blocks as f64);
    m.set("bench.quiet_index", s.quiet_index);
    m.set(
        "ladder.trace_overhead_share",
        1.0 - s.playouts_per_s / ref_s.playouts_per_s,
    );
    let mut out = env.layer_metrics(
        &TraceCtx {
            opts,
            spec,
            spans: &spans,
            traced: &traced,
            summary: &s,
            extra: part(0.3),
        },
        &mut m,
    );
    let digest = env.digest();
    env.teardown();
    ladder::run(opts.smoke, &mut m);

    // The layers must add up: what a request costs beyond the rungs
    // measured one by one, as a share of the traced phase's mean latency
    // (the search's own times are means over disturbed requests too).
    let mut rungs_ms = out.in_program_ms;
    if out.over_the_wire {
        let frames = 1.0 + m.get("net.snapshots_per_req");
        rungs_ms += (m.get("net.frame_encode_ns.submit") + m.get("net.frame_decode_ns.submit"))
            * 1e-6
            + frames
                * (m.get("net.frame_encode_ns.final") + m.get("net.frame_decode_ns.final"))
                * 1e-6
            + m.get("serve.admit_ns") * 1e-6
            + m.get("serve.submit_us") * 1e-3;
    }
    m.set("ladder.stack_residual_share", 1.0 - rungs_ms / s.mean_ms);

    // Spans of the workload's extra phases were recorded after the copy.
    let spans = tracer.snapshot();
    m.set("trace.spans", spans.len() as f64);
    m.set("trace.spans_dropped", tracer.dropped() as f64);
    if tracer.dropped() > 0 {
        out.violations
            .push(format!("{} spans did not fit the buffer", tracer.dropped()));
    }
    if opts.smoke {
        // Phases of a fraction of a second prove the output's shape, not
        // that the workload stresses its layer.
        for v in out.violations.drain(..) {
            eprintln!("(smoke, not enforced) {v}");
        }
    }
    let path = opts.out_dir.join(format!("trace_{}.jsonl", spec.name));
    if let Err(e) = trace::write_jsonl(&path, &spans) {
        // The numbers above do not depend on the file; say so and go on.
        eprintln!("could not write {}: {e}", path.display());
    }
    println!(
        "{}: traced {} requests ({} spans) after {} untraced; bench.req_p95_ms read at p{:.1}",
        spec.name,
        traced.completed(),
        spans.len(),
        reference.completed(),
        s.tail_q * 100.0
    );
    span_table(&spans);
    let mut logs = vec![&reference, &traced];
    logs.extend(out.extra_logs.iter());
    report(&logs, digest, &out.violations, m)
}

/// Per span name: count, median duration and median self time.
fn span_table(spans: &[Span]) {
    let selfs = trace::self_times(spans);
    let mut names: Vec<&'static str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (mut dur, mut own): (Vec<f64>, Vec<f64>) = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &o)| (s.dur_ns() as f64 * 1e-3, o as f64 * 1e-3))
            .unzip();
        println!(
            "span {name:<20} n {:>8}  p50 {:>12.2} us  self p50 {:>12.2} us",
            dur.len(),
            stats::median(&mut dur),
            stats::median(&mut own)
        );
    }
}
