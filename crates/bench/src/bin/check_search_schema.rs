//! Validate the `BENCH_search.json` schema so the search-throughput
//! trajectory stays machine-readable across PRs.
//!
//! Usage: `check_search_schema <path>` (default `BENCH_search.json`).
//! Exits non-zero with a message naming the first violation. JSON
//! parsing comes from the shared offline parser in [`bench::json`].
//!
//! Checked schema:
//! * `meta`: numeric `playouts`, `workers`; bool `smoke`; string
//!   `select_kernel` (which `mcts` select kernel the host dispatched —
//!   records written before the field existed have none);
//! * `schemes`: non-empty array, every row a string `scheme` plus
//!   numeric `uniform_playouts_per_s`, `nn_playouts_per_s` (> 0);
//! * `reuse_cycle`: numeric `moves`, `uniform_playouts_per_s`;
//! * `soak` (the bounded-memory LRU streaming session): numeric
//!   `budget_bytes`, `cycles`, `playouts_per_cycle`,
//!   `first_decile_playouts_per_s`, `last_decile_playouts_per_s`,
//!   `ratio`, `evicted`, with the ratio consistent with the two rates.
//!   On full (non-smoke) records the soak must be a real long run in
//!   the recycling regime: `cycles ≥ 10_000`, `evicted > 0`,
//!   `budget_bytes ≤ 16 MiB`, and the last decile within 10% of the
//!   first (`ratio ≥ 0.9` — the bounded-memory stability acceptance).
//!   Smoke records only prove the axis runs; their timings are never
//!   gated on.

use bench::json::{field, num, obj, parse, Json};
use std::process::ExitCode;

fn check(doc: &Json) -> Result<String, String> {
    let root = obj(doc, "$")?;

    let meta = obj(field(root, "$", "meta")?, "$.meta")?;
    for key in ["playouts", "workers"] {
        num(meta, "$.meta", key)?;
    }
    let smoke = match field(meta, "$.meta", "smoke")? {
        Json::Bool(b) => *b,
        _ => return Err("$.meta.smoke: expected bool".into()),
    };
    if !matches!(meta.get("select_kernel"), None | Some(Json::Str(_))) {
        return Err("$.meta.select_kernel: expected string".into());
    }

    let schemes = match field(root, "$", "schemes")? {
        Json::Arr(a) if !a.is_empty() => a,
        Json::Arr(_) => return Err("$.schemes: must be non-empty".into()),
        _ => return Err("$.schemes: expected array".into()),
    };
    for (i, row) in schemes.iter().enumerate() {
        let path = format!("$.schemes[{i}]");
        let m = obj(row, &path)?;
        match field(m, &path, "scheme")? {
            Json::Str(_) => {}
            _ => return Err(format!("{path}.scheme: expected string")),
        }
        for key in ["uniform_playouts_per_s", "nn_playouts_per_s"] {
            let v = num(m, &path, key)?;
            if v <= 0.0 {
                return Err(format!("{path}.{key}: {v} must be positive"));
            }
        }
    }

    let reuse = obj(field(root, "$", "reuse_cycle")?, "$.reuse_cycle")?;
    num(reuse, "$.reuse_cycle", "moves")?;
    num(reuse, "$.reuse_cycle", "uniform_playouts_per_s")?;

    let soak = obj(field(root, "$", "soak")?, "$.soak")?;
    let budget = num(soak, "$.soak", "budget_bytes")?;
    let cycles = num(soak, "$.soak", "cycles")?;
    num(soak, "$.soak", "playouts_per_cycle")?;
    let first = num(soak, "$.soak", "first_decile_playouts_per_s")?;
    let last = num(soak, "$.soak", "last_decile_playouts_per_s")?;
    let ratio = num(soak, "$.soak", "ratio")?;
    let evicted = num(soak, "$.soak", "evicted")?;
    if first <= 0.0 || last <= 0.0 {
        return Err(format!(
            "$.soak: decile rates must be positive ({first}, {last})"
        ));
    }
    if (ratio - last / first).abs() > 0.01 {
        return Err(format!(
            "$.soak.ratio: {ratio} inconsistent with {last}/{first}"
        ));
    }
    if budget > (16 << 20) as f64 {
        return Err(format!(
            "$.soak.budget_bytes: {budget} exceeds the 16 MiB acceptance ceiling"
        ));
    }
    if !smoke {
        if cycles < 10_000.0 {
            return Err(format!(
                "$.soak.cycles: {cycles} < 10000 on a full (non-smoke) record"
            ));
        }
        if evicted <= 0.0 {
            return Err(
                "$.soak.evicted: a full soak must run in the recycling regime (0 evictions)".into(),
            );
        }
        if ratio < 0.9 {
            return Err(format!(
                "$.soak.ratio: {ratio} — last decile decayed more than 10% vs the first"
            ));
        }
    }

    Ok(format!(
        "schema ok: {} scheme rows, soak {} cycles under {} KiB (ratio {ratio:.3}, {evicted} evicted){}",
        schemes.len(),
        cycles,
        budget / 1024.0,
        if smoke { " [smoke]" } else { "" }
    ))
}

fn main() -> ExitCode {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_search.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check_search_schema: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match parse(&text).and_then(|doc| check(&doc)) {
        Ok(summary) => {
            println!("{path}: {summary}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("check_search_schema: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{
      "meta": {"playouts": 1600, "workers": 4, "board": "gomoku9", "smoke": false},
      "schemes": [
        {"scheme": "serial", "uniform_playouts_per_s": 200000.0, "nn_playouts_per_s": 6500.0}
      ],
      "reuse_cycle": {"scheme": "serial+reuse", "moves": 4, "uniform_playouts_per_s": 590000.0},
      "soak": {"scheme": "serial+reuse", "budget_bytes": 1048576, "cycles": 10000, "playouts_per_cycle": 256, "first_decile_playouts_per_s": 600000.0, "last_decile_playouts_per_s": 612000.0, "ratio": 1.02, "evicted": 5000}
    }"#;

    #[test]
    fn good_document_passes() {
        check(&parse(GOOD).unwrap()).unwrap();
    }

    #[test]
    fn select_kernel_is_a_string_when_present() {
        let named = GOOD.replace(
            "\"smoke\": false",
            "\"smoke\": false, \"select_kernel\": \"avx2\"",
        );
        check(&parse(&named).unwrap()).unwrap();
        let broken = named.replace("\"avx2\"", "8");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("select_kernel"), "{err}");
    }

    #[test]
    fn missing_soak_section_fails() {
        let broken = GOOD.replace("\"soak\"", "\"sock\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("soak"), "{err}");
    }

    #[test]
    fn decayed_soak_ratio_fails_on_full_records() {
        let broken = GOOD
            .replace(
                "\"last_decile_playouts_per_s\": 612000.0",
                "\"last_decile_playouts_per_s\": 480000.0",
            )
            .replace("\"ratio\": 1.02", "\"ratio\": 0.80");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("decayed"), "{err}");
    }

    #[test]
    fn decayed_soak_ratio_passes_on_smoke_records() {
        let broken = GOOD
            .replace("\"smoke\": false", "\"smoke\": true")
            .replace(
                "\"last_decile_playouts_per_s\": 612000.0",
                "\"last_decile_playouts_per_s\": 480000.0",
            )
            .replace("\"ratio\": 1.02", "\"ratio\": 0.80");
        check(&parse(&broken).unwrap()).unwrap();
    }

    #[test]
    fn inconsistent_ratio_fails() {
        let broken = GOOD.replace("\"ratio\": 1.02", "\"ratio\": 1.50");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("inconsistent"), "{err}");
    }

    #[test]
    fn eviction_free_full_soak_fails() {
        let broken = GOOD.replace("\"evicted\": 5000", "\"evicted\": 0");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("recycling regime"), "{err}");
    }

    #[test]
    fn short_full_soak_fails() {
        let broken = GOOD.replace("\"cycles\": 10000", "\"cycles\": 200");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("10000"), "{err}");
    }

    #[test]
    fn oversized_budget_fails() {
        let broken = GOOD.replace("\"budget_bytes\": 1048576", "\"budget_bytes\": 33554432");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("16 MiB"), "{err}");
    }

    #[test]
    fn missing_scheme_rows_fail() {
        let broken = GOOD.replace("\"schemes\"", "\"schemas\"");
        let err = check(&parse(&broken).unwrap()).unwrap_err();
        assert!(err.contains("schemes"), "{err}");
    }
}
