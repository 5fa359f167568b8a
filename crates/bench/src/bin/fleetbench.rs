//! Multi-tenant fleet serving under a memory budget: bit-exactness vs
//! solo serving, wire capacity with Zipf-mixed tenants, LogHD accuracy
//! delta, and grouped-routing throughput.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin fleetbench
//! [quick|standard|full]`
//!
//! Prints a human-readable table, then the `BENCH_fleet.json` body on
//! stdout (prefixed `json:`) for machine consumption in CI artifacts.

use robusthd_bench::fleetbench::{self, options_for};
use robusthd_bench::format::{print_header, print_row};
use robusthd_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    let opts = options_for(scale);
    println!(
        "Fleet serving under budget (D={}, {} models, budget {} resident, \
         zipf {}, {} clients x {} requests)",
        opts.dim,
        opts.models,
        opts.budget_models,
        opts.zipf_exponent,
        opts.clients,
        opts.requests_per_client,
    );
    println!("(fleet answers cross-checked bit-exact against solo serving under eviction churn)\n");
    let outcome = fleetbench::run(&opts).expect("fleetbench runs on loopback");

    let widths = [10usize, 9, 11, 11, 9, 9, 11, 9];
    print_header(
        &[
            "models",
            "resident",
            "evictions",
            "rehydrate",
            "dedup",
            "wire q/s",
            "p95 ms",
            "budget",
        ],
        &widths,
    );
    let c = &outcome.capacity;
    print_row(
        &[
            format!("{}", outcome.models),
            format!("{}", c.resident_models),
            format!("{}", c.evictions),
            format!("{}", c.rehydrations),
            format!("{}", c.dedup_hits),
            format!("{:.0}", c.load.qps),
            format!("{:.2}", c.load.p95_ms),
            if c.budget_ok { "ok" } else { "OVER" }.to_owned(),
        ],
        &widths,
    );
    println!();
    println!(
        "loghd: {} tenants, accuracy {:.4} full vs {:.4} compressed \
         (delta {:+.4}, agreement {:.3}, {:.1}x class-axis compression)",
        outcome.loghd.tenants,
        outcome.loghd.accuracy_full,
        outcome.loghd.accuracy_loghd,
        outcome.loghd.delta,
        outcome.loghd.agreement,
        outcome.loghd.compression_ratio,
    );
    println!(
        "routing: {} queries, {:.0} q/s grouped vs {:.0} q/s per-query ({:.2}x)",
        outcome.routing.queries,
        outcome.routing.routed_qps,
        outcome.routing.perquery_qps,
        outcome.routing.speedup,
    );
    println!();
    println!("json: {}", outcome.to_json());
}
