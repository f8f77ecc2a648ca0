//! `stackbench --workload <name> --seed <u64> [--seconds 30] [--trace 0|1]
//! [--smoke] [--scale-work <f>] [--out-dir <dir>]`
//!
//! Runs one workload, checks every result, prints every metric by name
//! with its unit and, as the last line, the JSON summary. Exits non-zero
//! on an incorrect result or a bad command line. (`--setup-only` is the
//! mode a run starts copies of itself in to time cold set-ups.)

use stackbench::core::{Opts, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: stackbench --workload <tree_fresh|tree_stream|wire_unique|wire_repeat> \
--seed <u64> [--seconds <s>] [--trace 0|1] [--smoke] [--scale-work <factor>] [--out-dir <dir>]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut smoke = false;
    let mut setup_only = false;
    let mut scale_work = 1.0;
    let mut out_dir = PathBuf::from("benchmark/results");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--scale-work" => {
                scale_work = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--scale-work: {e}"))?;
            }
            "--out-dir" => out_dir = PathBuf::from(value()?),
            "--smoke" => smoke = true,
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 3600.0) {
        return Err("--seconds must be in (0, 3600]".into());
    }
    if !(scale_work.is_finite() && (0.1..=10.0).contains(&scale_work)) {
        return Err("--scale-work must be in [0.1, 10]".into());
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        // A smoke run measures nothing; it only has to print the shape.
        seconds: if smoke { seconds.min(0.5) } else { seconds },
        trace,
        smoke,
        setup_only,
        scale_work,
        out_dir,
    })
}

fn main() -> ExitCode {
    // Start the shared clock before anything else happens.
    stackbench::core::now_ns();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.setup_only {
        stackbench::run::setup_only(&opts);
        return ExitCode::SUCCESS;
    }
    let report = stackbench::run::run(&opts);
    print!("{}", report.lines());
    println!("{}", report.json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("incorrect result: see the failures above");
        ExitCode::from(1)
    }
}
