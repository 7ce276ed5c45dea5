//! `perfbench` — the repository's benchmark. One command runs one named
//! workload for a fixed wall-clock window and prints, as the last line of
//! standard output, one JSON object with the operations attempted and
//! failed and every metric with its unit:
//!
//! ```text
//! cargo run --release -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload coupled_g2_teams --seed 1 --seconds 8 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` is the separate traced run: it records the benchmark's spans,
//! runs the calibration probes, prints the per-layer metrics, and writes a
//! Chrome/Perfetto trace and a self-time table under `perfbench/out/`.
//! Workloads and metrics are described in `perfbench/README.md`.

mod coupled;
mod halo;
mod openloop;
mod report;
mod serve;
mod spans;
mod stats;

use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};
use spans::{self_times, to_chrome, Span};

pub const WORKLOADS: &[&str] = &[
    "coupled_g2_teams",
    "coupled_g4_mixml",
    "serve_live",
    "halo_g5_2rank",
];

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&format!("expected one of {WORKLOADS:?}"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(8.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> (Outcome, Vec<Span>) {
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "coupled_g2_teams" => coupled::run(&coupled::G2_TEAMS, seed, secs, trace),
        "coupled_g4_mixml" => coupled::run(&coupled::G4_MIXML, seed, secs, trace),
        "serve_live" => serve::run(&serve::LIVE, seed, secs, trace),
        "halo_g5_2rank" => halo::run(&halo::G5_2RANK, seed, secs, trace),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

/// Write the traced run's spans as a Chrome/Perfetto document and a
/// self-time table, and check the document. Returns whether it validated.
fn export_trace(args: &Args, spans: &[Span]) -> bool {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let stem = format!("{dir}/{}.seed{}", args.workload, args.seed);
    let doc = to_chrome(spans);
    let valid = match sunway_sim::validate_chrome(&doc) {
        Ok(stats) => {
            eprintln!(
                "perfbench: trace: {} spans on {} lanes",
                stats.begins, stats.lanes
            );
            true
        }
        Err(e) => {
            eprintln!("perfbench: trace does not validate: {e}");
            false
        }
    };
    let mut table = String::from("span                          count     total_ms      self_ms\n");
    for (name, t) in self_times(spans) {
        table.push_str(&format!(
            "{name:<28} {:>7} {:>12.3} {:>12.3}\n",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
    eprint!("{table}");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(format!("{stem}.trace.json"), doc.pretty()))
        .and_then(|()| std::fs::write(format!("{stem}.selftime.txt"), &table));
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {stem}.*: {e}");
        return false;
    }
    valid
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (t0, steal0) = (std::time::Instant::now(), stats::host_steal_s());
    let (mut out, spans) = run(&args);
    if let (Some(a), Some(b)) = (steal0, stats::host_steal_s()) {
        // Host noise to read the numbers against: the share of the
        // machine's CPU time the hypervisor gave to others.
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let wall = t0.elapsed().as_secs_f64() * cpus as f64;
        eprintln!(
            "perfbench: host steal {:.1}% of {cpus} CPUs over the run",
            100.0 * (b - a) / wall.max(1e-9)
        );
    }
    let catalogue = if args.trace {
        let ok = export_trace(&args, &spans);
        out.tally(1, u64::from(!ok));
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", out.result_line(catalogue));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload serve_live --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_live".into(),
                seed: 7,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve_live --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve_live --seconds -1")).is_err());
        assert!(parse_args(&argv("--seed 3")).is_err());
    }
}
