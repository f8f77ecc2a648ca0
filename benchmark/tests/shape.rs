//! Runs the real binary in `--smoke` mode: the output must carry exactly
//! the metrics `BENCHMARK.json` names, for every workload, traced and
//! untraced, and the deterministic workloads must repeat their digest.

use bench::json::{self, Json};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["tree_fresh", "tree_stream", "wire_unique", "wire_repeat"];

fn out_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stackbench-shape-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run one smoke workload; returns (stdout, wall time).
fn smoke(workload: &str, seed: u64, trace: bool) -> (String, Duration) {
    let t0 = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "30", "--trace", if trace { "1" } else { "0" }])
        .arg("--smoke")
        .arg("--out-dir")
        .arg(out_dir())
        .output()
        .expect("run stackbench");
    let wall = t0.elapsed();
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {:?}\n{stdout}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    (stdout, wall)
}

type Object = BTreeMap<String, Json>;

fn object(v: &Json) -> &Object {
    match v {
        Json::Obj(m) => m,
        other => panic!("expected an object, not {other:?}"),
    }
}

fn string(o: &Object, key: &str) -> String {
    match &o[key] {
        Json::Str(s) => s.clone(),
        other => panic!("{key}: expected a string, not {other:?}"),
    }
}

/// The objects of the array `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<Object> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    match &object(&doc)[section] {
        Json::Arr(items) => items.iter().map(|v| object(v).clone()).collect(),
        other => panic!("{section}: expected an array, not {other:?}"),
    }
}

/// name → unit of the metrics `BENCHMARK.json` declares in `section`.
fn declared_metrics(section: &str) -> BTreeMap<String, String> {
    declared(section)
        .iter()
        .map(|o| (string(o, "name"), string(o, "unit")))
        .collect()
}

/// name → unit of the metrics in a run's last output line, which must
/// have exactly the summary's keys, be correct and count no failure.
fn printed(stdout: &str) -> BTreeMap<String, String> {
    let last = stdout.lines().last().expect("a last line");
    let doc = json::parse(last).unwrap_or_else(|e| panic!("{e}: {last}"));
    let summary = object(&doc);
    let keys: Vec<&str> = summary.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(summary["correct"], Json::Bool(true), "{last}");
    assert_eq!(summary["failed"], Json::Num(0.0), "{last}");
    assert!(matches!(summary["attempted"], Json::Num(n) if n >= 1.0 && n.fract() == 0.0));
    object(&summary["metrics"])
        .iter()
        .map(|(name, v)| {
            let m = object(v);
            assert_eq!(m.len(), 2, "{name}");
            assert!(
                matches!(m["value"], Json::Num(x) if x.is_finite()),
                "{name}"
            );
            (name.clone(), string(m, "unit"))
        })
        .collect()
}

#[test]
fn smoke_prints_every_declared_metric_for_every_workload() {
    let (end_to_end, per_layer) = (
        declared_metrics("end_to_end"),
        declared_metrics("per_layer"),
    );
    assert_eq!(end_to_end.len(), 5);
    assert!(per_layer.len() > 40);
    let declared_workloads: Vec<String> = declared("workloads")
        .iter()
        .map(|o| string(o, "name"))
        .collect();
    assert_eq!(declared_workloads, WORKLOADS);

    let mut untraced_total = Duration::ZERO;
    for workload in WORKLOADS {
        for (trace, want) in [(false, &end_to_end), (true, &per_layer)] {
            let (stdout, wall) = smoke(workload, 3, trace);
            if !trace {
                untraced_total += wall;
            }
            let got = printed(&stdout);
            assert_eq!(&got, want, "{workload} trace={trace}");
            for name in got.keys() {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
                // Each metric is also printed on a line of its own.
                assert!(
                    stdout.lines().any(|l| l.starts_with(name.as_str())),
                    "{workload}: no line for {name}"
                );
            }
        }
    }
    assert!(
        untraced_total < Duration::from_secs(10),
        "--smoke took {untraced_total:?} for the four workloads"
    );
}

#[test]
fn equal_seeds_give_equal_digests() {
    let digest = |workload: &str, seed: u64| {
        let (stdout, _) = smoke(workload, seed, false);
        stdout
            .lines()
            .find_map(|l| l.strip_prefix("digest "))
            .unwrap_or_else(|| panic!("{workload} printed no digest"))
            .to_string()
    };
    for workload in ["tree_fresh", "tree_stream"] {
        let first = digest(workload, 5);
        assert_eq!(
            first,
            digest(workload, 5),
            "{workload} is not deterministic"
        );
        assert_ne!(first, digest(workload, 6), "{workload} ignores its seed");
    }
}

#[test]
fn bad_command_lines_exit_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--seed", "1"],
        vec!["--workload", "tree_fresh"],
        vec!["--workload", "tree_fresh", "--seed", "1", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_stackbench"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
