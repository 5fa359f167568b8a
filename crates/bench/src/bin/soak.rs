//! Runs the chaos-soak scenario: the closed-loop resilience supervisor
//! serving under an attack campaign with a catastrophic mid-run burst.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin soak [quick|standard|full]`

use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::{soak, Scale};
use synthdata::DatasetSpec;

fn main() {
    let scale = Scale::from_args();
    println!("Chaos soak: closed-loop resilience supervisor (D=4096)");
    println!("(10-step campaign to 12% cumulative corruption, half-image burst at the midpoint)\n");
    let widths = [10usize, 10, 10, 10, 12, 10];
    print_header(
        &[
            "dataset",
            "clean",
            "final",
            "peak err",
            "escalations",
            "rollbacks",
        ],
        &widths,
    );
    for spec in DatasetSpec::all() {
        let o = soak::run(&spec, scale, 4096, 1, 10, 0.12, true);
        print_row(
            &[
                o.name.clone(),
                pct(o.clean_accuracy),
                pct(o.final_accuracy),
                pct(o.peak_error_rate),
                o.escalations.to_string(),
                o.rollbacks.to_string(),
            ],
            &widths,
        );
    }
}
