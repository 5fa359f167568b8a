//! Coalesced vs sequential serving throughput of the `robusthdd` daemon
//! on loopback, with a wire bit-exactness cross-check before any timing.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin servebench
//! [quick|standard|full]`
//!
//! Prints a human-readable table, then the `BENCH_serve.json` body on
//! stdout (prefixed `json:`) for machine consumption in CI artifacts.

use robusthd_bench::format::{print_header, print_row};
use robusthd_bench::serve::{self, ServeBenchParams};
use robusthd_bench::Scale;
use synthdata::DatasetSpec;

fn main() {
    let scale = Scale::from_args();
    let params = ServeBenchParams::default();
    println!(
        "Daemon serving throughput (D={}, {} clients x {} requests, pipeline {}, \
         window {}us, max batch {})",
        params.dim,
        params.concurrency,
        params.requests_per_client,
        params.pipeline,
        params.config.window_us,
        params.config.max_batch,
    );
    println!("(wire answers cross-checked bit-exact against the reference engine first)\n");
    let widths = [10usize, 11, 11, 9, 9, 9, 11, 9];
    print_header(
        &[
            "dataset",
            "seq q/s",
            "coal q/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "mean batch",
            "speedup",
        ],
        &widths,
    );
    let spec = DatasetSpec::ucihar();
    let outcome = serve::run(&scale.apply(&spec), &params).expect("servebench runs on loopback");
    print_row(
        &[
            outcome.dataset.clone(),
            format!("{:.0}", outcome.sequential.qps),
            format!("{:.0}", outcome.coalesced.qps),
            format!("{:.2}", outcome.coalesced.p50_ms),
            format!("{:.2}", outcome.coalesced.p95_ms),
            format!("{:.2}", outcome.coalesced.p99_ms),
            format!("{:.1}", outcome.coalesced.mean_batch),
            format!("{:.2}x", outcome.speedup),
        ],
        &widths,
    );
    println!();
    println!("json: {}", outcome.to_json());
}
