//! Validate the `BENCH_serve.json` schema so the serving perf
//! trajectory stays machine-readable across PRs.
//!
//! Usage: `check_serve_schema <path>` (default `BENCH_serve.json`).
//! Exits non-zero with a message naming the first violation. JSON
//! parsing comes from the shared offline parser in [`bench::json`]
//! (also behind `check_search_schema`).
//!
//! Checked schema (v6):
//! * top level: objects `meta`, `shedding`, `coalescing`, `cache`,
//!   `network`; arrays `sessions`, `cluster`, `autotune`,
//!   `degradation` (non-empty);
//! * `meta.schema_version == 6`, `meta.workers`/`host_cores`/
//!   `eval_batch_hint`/`playouts_per_request` numeric;
//! * every `sessions[i]`: numeric `concurrent`, `requests_per_s`,
//!   `p50_ms`, `p99_ms`, `mean_eval_batch`, with `p99_ms >= p50_ms`
//!   (interpolated percentiles are monotone by construction — equality
//!   collapsing back to the old nearest-rank artifact is allowed only
//!   when they are truly equal);
//! * every `cluster[i]`: numeric `shards`, `total_workers`,
//!   `concurrent`, `requests_per_s`, `p50_ms`, `p99_ms`, again with
//!   `p99_ms >= p50_ms`;
//! * every `autotune[i]`: numeric `batch`, `window_us`,
//!   `positions_per_sec`, with `window_us == 0` whenever `batch == 1`
//!   (singles side by side wait for nobody); non-empty `curve` array of
//!   objects with numeric `batch`, `forward_ns`;
//! * `shedding`: numeric `offered`, `admitted`, `shed`,
//!   `mean_retry_after_ms`, `drain_ms`, with
//!   `admitted + shed == offered`;
//! * `coalescing`: numeric `burst`, `serial_mean_eval_batch`,
//!   `multi_mean_eval_batch`;
//! * `cache`: numeric `requests`, `distinct_positions`, `rounds`,
//!   `cache_off_requests_per_s`, `cache_on_requests_per_s`,
//!   `hit_rate` (in [0, 1]), `speedup`;
//! * every `degradation[i]`: numeric `fault_p` (in [0, 1]),
//!   `sessions_per_backend`, and the per-backend columns
//!   `faulty_requests_per_s`, `faulty_p99_ms`, `faulty_done`,
//!   `faulty_failed`, `faulty_shed`, `healthy_requests_per_s`,
//!   `healthy_p99_ms`, `healthy_done`, `healthy_failed`,
//!   `healthy_shed`, with each backend's
//!   `done + failed + shed == sessions_per_backend`;
//! * `network`: numeric `inprocess_requests_per_s`; `closed_loop`
//!   object and non-empty `sweep` array of loadgen points, each with
//!   numeric `clients`, `offered`, `admitted`, `shed`, `failed`,
//!   `admitted_per_s`, `p50_ms`, `p99_ms`, `mean_retry_after_ms`,
//!   `zero_hint_sheds`, satisfying
//!   `admitted + shed + failed == offered` and `p99_ms >= p50_ms`
//!   (sweep points additionally carry numeric `offered_per_s`).

use bench::json::{field, num, obj, parse, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn check_each(
    root: &BTreeMap<String, Json>,
    name: &str,
    required: &[&str],
) -> Result<usize, String> {
    let arr = match field(root, "$", name)? {
        Json::Arr(a) if !a.is_empty() => a,
        Json::Arr(_) => return Err(format!("$.{name}: must be non-empty")),
        _ => return Err(format!("$.{name}: expected array")),
    };
    for (i, item) in arr.iter().enumerate() {
        let path = format!("$.{name}[{i}]");
        let m = obj(item, &path)?;
        for key in required {
            num(m, &path, key)?;
        }
    }
    Ok(arr.len())
}

fn check(doc: &Json) -> Result<String, String> {
    let root = obj(doc, "$")?;

    let meta = obj(field(root, "$", "meta")?, "$.meta")?;
    let version = num(meta, "$.meta", "schema_version")?;
    if version != 6.0 {
        return Err(format!("$.meta.schema_version: expected 6, got {version}"));
    }
    for key in [
        "workers",
        "host_cores",
        "eval_batch_hint",
        "playouts_per_request",
    ] {
        num(meta, "$.meta", key)?;
    }

    let sessions = check_each(
        root,
        "sessions",
        &[
            "concurrent",
            "requests_per_s",
            "p50_ms",
            "p99_ms",
            "mean_eval_batch",
        ],
    )?;
    let cluster = check_each(
        root,
        "cluster",
        &[
            "shards",
            "total_workers",
            "concurrent",
            "requests_per_s",
            "p50_ms",
            "p99_ms",
        ],
    )?;
    // Percentile fidelity: interpolated percentiles are monotone in p,
    // so any row where p99 < p50 means the latency vector is bogus.
    for name in ["sessions", "cluster"] {
        if let Json::Arr(rows) = field(root, "$", name)? {
            for (i, row) in rows.iter().enumerate() {
                let path = format!("$.{name}[{i}]");
                let m = obj(row, &path)?;
                let p50 = num(m, &path, "p50_ms")?;
                let p99 = num(m, &path, "p99_ms")?;
                if p99 < p50 {
                    return Err(format!("{path}: p99_ms ({p99}) < p50_ms ({p50})"));
                }
            }
        }
    }

    let autotune = check_each(
        root,
        "autotune",
        &["batch", "window_us", "positions_per_sec"],
    )?;
    if let Json::Arr(rows) = field(root, "$", "autotune")? {
        for (i, row) in rows.iter().enumerate() {
            let path = format!("$.autotune[{i}]");
            let m = obj(row, &path)?;
            let window_us = num(m, &path, "window_us")?;
            if num(m, &path, "batch")? == 1.0 && window_us != 0.0 {
                return Err(format!(
                    "{path}: batch 1 runs singles side by side, window_us must be 0 (got {window_us})"
                ));
            }
            match field(m, &path, "calibrated")? {
                Json::Bool(_) => {}
                _ => return Err(format!("{path}.calibrated: expected bool")),
            }
            let curve = match field(m, &path, "curve")? {
                Json::Arr(c) if !c.is_empty() => c,
                Json::Arr(_) => return Err(format!("{path}.curve: must be non-empty")),
                _ => return Err(format!("{path}.curve: expected array")),
            };
            for (j, point) in curve.iter().enumerate() {
                let ppath = format!("{path}.curve[{j}]");
                let pm = obj(point, &ppath)?;
                num(pm, &ppath, "batch")?;
                num(pm, &ppath, "forward_ns")?;
            }
        }
    }

    let shed = obj(field(root, "$", "shedding")?, "$.shedding")?;
    let offered = num(shed, "$.shedding", "offered")?;
    let admitted = num(shed, "$.shedding", "admitted")?;
    let shed_n = num(shed, "$.shedding", "shed")?;
    num(shed, "$.shedding", "mean_retry_after_ms")?;
    num(shed, "$.shedding", "drain_ms")?;
    if admitted + shed_n != offered {
        return Err(format!(
            "$.shedding: admitted ({admitted}) + shed ({shed_n}) != offered ({offered})"
        ));
    }

    let coal = obj(field(root, "$", "coalescing")?, "$.coalescing")?;
    for key in ["burst", "serial_mean_eval_batch", "multi_mean_eval_batch"] {
        num(coal, "$.coalescing", key)?;
    }

    let cache = obj(field(root, "$", "cache")?, "$.cache")?;
    for key in [
        "requests",
        "distinct_positions",
        "rounds",
        "cache_off_requests_per_s",
        "cache_on_requests_per_s",
        "speedup",
    ] {
        num(cache, "$.cache", key)?;
    }
    let hit_rate = num(cache, "$.cache", "hit_rate")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("$.cache.hit_rate: {hit_rate} outside [0, 1]"));
    }

    let degradation = check_each(
        root,
        "degradation",
        &[
            "fault_p",
            "sessions_per_backend",
            "faulty_requests_per_s",
            "faulty_p99_ms",
            "faulty_done",
            "faulty_failed",
            "faulty_shed",
            "healthy_requests_per_s",
            "healthy_p99_ms",
            "healthy_done",
            "healthy_failed",
            "healthy_shed",
        ],
    )?;
    if let Json::Arr(points) = field(root, "$", "degradation")? {
        for (i, point) in points.iter().enumerate() {
            let path = format!("$.degradation[{i}]");
            let m = obj(point, &path)?;
            let fault_p = num(m, &path, "fault_p")?;
            if !(0.0..=1.0).contains(&fault_p) {
                return Err(format!("{path}.fault_p: {fault_p} outside [0, 1]"));
            }
            let per_backend = num(m, &path, "sessions_per_backend")?;
            for backend in ["faulty", "healthy"] {
                let total = num(m, &path, &format!("{backend}_done"))?
                    + num(m, &path, &format!("{backend}_failed"))?
                    + num(m, &path, &format!("{backend}_shed"))?;
                if total != per_backend {
                    return Err(format!(
                        "{path}: {backend} done + failed + shed ({total}) != sessions_per_backend ({per_backend})"
                    ));
                }
            }
        }
    }

    let network = obj(field(root, "$", "network")?, "$.network")?;
    num(network, "$.network", "inprocess_requests_per_s")?;
    let closed = obj(
        field(network, "$.network", "closed_loop")?,
        "$.network.closed_loop",
    )?;
    check_loadgen_point(closed, "$.network.closed_loop")?;
    let sweep = match field(network, "$.network", "sweep")? {
        Json::Arr(a) if !a.is_empty() => a,
        Json::Arr(_) => return Err("$.network.sweep: must be non-empty".into()),
        _ => return Err("$.network.sweep: expected array".into()),
    };
    for (i, point) in sweep.iter().enumerate() {
        let path = format!("$.network.sweep[{i}]");
        let m = obj(point, &path)?;
        num(m, &path, "offered_per_s")?;
        check_loadgen_point(m, &path)?;
    }
    let sweep_points = sweep.len();

    Ok(format!(
        "schema v6 ok: {sessions} session points, {cluster} cluster points, \
         {autotune} autotune reports, shedding {admitted}/{offered} admitted, \
         cache hit rate {hit_rate:.2}, {degradation} degradation points, \
         {sweep_points} network sweep points"
    ))
}

/// One loadgen measurement (the network closed-loop point or a sweep
/// point): numeric fields, balanced accounting, monotone percentiles.
fn check_loadgen_point(m: &BTreeMap<String, Json>, path: &str) -> Result<(), String> {
    for key in [
        "clients",
        "admitted_per_s",
        "mean_retry_after_ms",
        "zero_hint_sheds",
    ] {
        num(m, path, key)?;
    }
    let offered = num(m, path, "offered")?;
    let admitted = num(m, path, "admitted")?;
    let shed = num(m, path, "shed")?;
    let failed = num(m, path, "failed")?;
    if admitted + shed + failed != offered {
        return Err(format!(
            "{path}: admitted ({admitted}) + shed ({shed}) + failed ({failed}) != offered ({offered})"
        ));
    }
    let p50 = num(m, path, "p50_ms")?;
    let p99 = num(m, path, "p99_ms")?;
    if p99 < p50 {
        return Err(format!("{path}: p99_ms ({p99}) < p50_ms ({p50})"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_serve_schema: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match parse(&text).and_then(|doc| check(&doc)) {
        Ok(summary) => {
            println!("{path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check_serve_schema: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "meta": {"schema_version": 6, "workers": 4, "host_cores": 1, "eval_batch_hint": 32, "playouts_per_request": 48, "board": "gomoku9", "evaluator": "nn", "smoke": true},
      "sessions": [
        {"concurrent": 1, "requests_per_s": 10.0, "p50_ms": 1.0, "p99_ms": 2.0, "mean_eval_batch": 1.0}
      ],
      "cluster": [
        {"shards": 2, "total_workers": 2, "concurrent": 6, "requests_per_s": 9.5, "p50_ms": 1.0, "p99_ms": 2.0}
      ],
      "autotune": [
        {"calibrated": true, "batch": 8, "window_us": 850, "positions_per_sec": 9000.0, "curve": [{"batch": 1, "forward_ns": 210000}, {"batch": 8, "forward_ns": 855000}]}
      ],
      "shedding": {"offered": 6, "admitted": 2, "shed": 4, "mean_retry_after_ms": 12.0, "drain_ms": 80.0},
      "coalescing": {"burst": 4, "serial_mean_eval_batch": 1.0, "multi_mean_eval_batch": 1.8},
      "cache": {"requests": 6, "distinct_positions": 3, "rounds": 2, "cache_off_requests_per_s": 80.0, "cache_on_requests_per_s": 110.0, "hit_rate": 0.5, "speedup": 1.375},
      "degradation": [
        {"fault_p": 0.0, "sessions_per_backend": 3, "faulty_requests_per_s": 9.0, "faulty_p99_ms": 3.0, "faulty_done": 3, "faulty_failed": 0, "faulty_shed": 0, "healthy_requests_per_s": 9.1, "healthy_p99_ms": 3.0, "healthy_done": 3, "healthy_failed": 0, "healthy_shed": 0},
        {"fault_p": 0.2, "sessions_per_backend": 3, "faulty_requests_per_s": 4.0, "faulty_p99_ms": 9.0, "faulty_done": 1, "faulty_failed": 1, "faulty_shed": 1, "healthy_requests_per_s": 9.0, "healthy_p99_ms": 3.1, "healthy_done": 3, "healthy_failed": 0, "healthy_shed": 0}
      ],
      "network": {
        "inprocess_requests_per_s": 120.0,
        "closed_loop": {"clients": 2, "offered": 4, "admitted": 4, "shed": 0, "failed": 0, "admitted_per_s": 110.0, "p50_ms": 16.0, "p99_ms": 29.0, "mean_retry_after_ms": 0.0, "zero_hint_sheds": 0},
        "sweep": [
          {"clients": 2, "offered_per_s": 240.0, "offered": 240, "admitted": 130, "shed": 110, "failed": 0, "admitted_per_s": 125.0, "p50_ms": 7.0, "p99_ms": 45.0, "mean_retry_after_ms": 3.5, "zero_hint_sheds": 0}
        ]
      }
    }"#;

    #[test]
    fn good_document_passes() {
        check(&parse(GOOD).unwrap()).unwrap();
    }

    #[test]
    fn missing_section_fails() {
        let broken = GOOD.replace("\"cluster\"", "\"clutter\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("cluster"), "{err}");
    }

    #[test]
    fn wrong_schema_version_fails() {
        let broken = GOOD.replace("\"schema_version\": 6", "\"schema_version\": 5");
        assert!(check(&parse(&broken).unwrap()).is_err());
    }

    #[test]
    fn inverted_percentiles_fail() {
        let broken = GOOD.replace(
            "\"p50_ms\": 1.0, \"p99_ms\": 2.0, \"mean_eval_batch\"",
            "\"p50_ms\": 3.0, \"p99_ms\": 2.0, \"mean_eval_batch\"",
        );
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("p99_ms"), "{err}");
    }

    #[test]
    fn missing_autotune_section_fails() {
        let broken = GOOD.replace("\"autotune\"", "\"autoplay\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("autotune"), "{err}");
    }

    #[test]
    fn empty_autotune_curve_fails() {
        let broken = GOOD.replace(
            "\"curve\": [{\"batch\": 1, \"forward_ns\": 210000}, {\"batch\": 8, \"forward_ns\": 855000}]",
            "\"curve\": []",
        );
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("curve"), "{err}");
    }

    #[test]
    fn batch_one_with_a_window_fails() {
        let direct = GOOD.replace(
            "\"batch\": 8, \"window_us\": 850",
            "\"batch\": 1, \"window_us\": 0",
        );
        assert_ne!(direct, GOOD);
        check(&parse(&direct).unwrap()).unwrap();
        let broken = GOOD.replace("\"batch\": 8, \"window_us\"", "\"batch\": 1, \"window_us\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("window_us must be 0"), "{err}");
    }

    #[test]
    fn missing_degradation_section_fails() {
        let broken = GOOD.replace("\"degradation\"", "\"decoration\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("degradation"), "{err}");
    }

    #[test]
    fn degradation_accounting_must_balance() {
        let broken = GOOD.replace("\"faulty_done\": 1", "\"faulty_done\": 2");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("sessions_per_backend"), "{err}");
    }

    #[test]
    fn missing_cache_section_fails() {
        let broken = GOOD.replace("\"cache\"", "\"cash\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("cache"), "{err}");
    }

    #[test]
    fn hit_rate_outside_unit_interval_fails() {
        let broken = GOOD.replace("\"hit_rate\": 0.5", "\"hit_rate\": 1.5");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("hit_rate"), "{err}");
    }

    #[test]
    fn shed_accounting_must_balance() {
        let broken = GOOD.replace("\"admitted\": 2", "\"admitted\": 3");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("offered"), "{err}");
    }

    #[test]
    fn missing_network_section_fails() {
        let broken = GOOD.replace("\"network\"", "\"notwork\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("network"), "{err}");
    }

    #[test]
    fn network_accounting_must_balance() {
        let broken = GOOD.replace("\"admitted\": 130", "\"admitted\": 131");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("offered"), "{err}");
    }

    #[test]
    fn empty_network_sweep_fails() {
        let open = GOOD.find("\"sweep\": [").unwrap();
        let close = GOOD[open..].find(']').unwrap();
        let broken = format!("{}\"sweep\": [{}", &GOOD[..open], &GOOD[open + close..]);
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("sweep"), "{err}");
    }

    #[test]
    fn network_inverted_percentiles_fail() {
        let broken = GOOD.replace(
            "\"p50_ms\": 7.0, \"p99_ms\": 45.0",
            "\"p50_ms\": 50.0, \"p99_ms\": 45.0",
        );
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("p99_ms"), "{err}");
    }
}
