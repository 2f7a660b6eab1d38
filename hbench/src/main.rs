//! `hbench` — the end-to-end benchmark of the hindex streaming engine.
//!
//! ```text
//! hbench --workload NAME|all --seed N --seconds S --trace 0|1|both
//! ```
//!
//! Runs one workload (or all four) for about `S` seconds of measuring
//! time, checks every answer against the generator's ground truth and
//! the serial replay's digest, and prints every metric by name with its
//! unit. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`,
//! both with `--trace both`. See `README.md` in this directory.

#![forbid(unsafe_code)]

mod closed;
mod env;
mod live;
mod replay;
mod run;
mod spec;
mod stats;
mod trace;

use spec::Workload;
use stats::{result_json, Metrics};
use std::process::ExitCode;

const USAGE: &str =
    "usage: hbench --workload distinct_sketch|hot_supervised|bulk_exact|live_exact|all \
                     --seed N --seconds S --trace 0|1|both";

/// Parsed command line.
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    /// Phases to run: `false` = untraced, `true` = traced.
    phases: Vec<bool>,
    /// Internal: run one job in this fresh process and print its
    /// figures (see `run::child_job`).
    child: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = spec::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut phases = vec![false];
    let mut child = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?]
                });
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                phases = match value.as_str() {
                    "0" => vec![false],
                    "1" => vec![true],
                    "both" => vec![false, true],
                    _ => return Err(format!("bad --trace `{value}`")),
                };
            }
            "--child" => child = value == "1",
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    Ok(Args {
        workloads,
        seed,
        seconds,
        phases,
        child,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("hbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return match run::child_job(args.workloads[0], args.seed) {
            Ok(out) => {
                println!("{out}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("hbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    for (key, value) in env::header(args.seed) {
        println!("env {key}: {value}");
    }
    let single = args.workloads.len() == 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut all = Metrics::default();
    for &workload in &args.workloads {
        for &traced in &args.phases {
            let rep = run::run(workload, args.seed, args.seconds, traced);
            let phase = if traced {
                "traced (per-layer)"
            } else {
                "untraced (end-to-end)"
            };
            println!("== {} — {phase}", workload.name());
            for note in &rep.notes {
                println!("   {note}");
            }
            for m in &rep.metrics.0 {
                println!("   {:<30} {:>16.6} {}", m.name, m.value, m.unit);
            }
            for problem in &rep.problems {
                println!("   FAILED: {problem}");
            }
            println!(
                "   checked {} operations, {} failed",
                rep.attempted, rep.failed
            );
            attempted += rep.attempted;
            failed += rep.failed;
            for m in rep.metrics.0 {
                let name = if single {
                    m.name
                } else {
                    format!("{}.{}", workload.name(), m.name)
                };
                all.put(&name, m.value, m.unit);
            }
        }
    }
    println!("{}", result_json(failed == 0, attempted, failed, &all));
    ExitCode::SUCCESS
}
