//! End-to-end and per-layer benchmark of the RobustHD serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|recover --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its deployment from the seed, refuses to time
//! anything until its answers are bit-exact against a reference, measures
//! for about `--seconds`, and prints its metrics. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics of a separate traced run).
//!
//! * `fleet` — a `serve_fleet` daemon over 120 tenants under a 16-model
//!   budget, Zipf tenant mix, open-loop Poisson load at 200 q/s (`light`).
//! * `recover` — a `serve` daemon over a ucihar-shaped model at 200 q/s,
//!   and identically built deployments in-process with 0.3 % of their
//!   model bits flipped before every batch (`accuracy`).
//!
//! The end-to-end metrics are set-up time, peak resident set, `light`
//! latency on the wire and accuracy. None is a throughput: on a shared
//! two-core virtual host the same CPU-bound batch took 7 to 18 ms of
//! thread CPU time from one five-second stretch to the next, so any rate
//! of CPU-bound work tracks the neighbours; and the daemon's saturated
//! wire throughput swung 3k to 20k answers/s between two-second segments,
//! its sockets leaving Nagle's algorithm on. Per-request and per-batch CPU
//! costs are per-layer metrics of the traced run instead.

mod daemon;
mod deploy;
mod openloop;
mod pipeline;
mod recover;
mod report;
mod stats;
mod trace;
mod twin;

use std::process::ExitCode;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run() -> Result<report::Report, String> {
    report::check_environment()?;
    let args = parse_args()?;
    match args.workload.as_str() {
        "fleet" => daemon::run(args.seed, args.seconds, args.trace),
        "recover" => recover::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}: fleet or recover")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
