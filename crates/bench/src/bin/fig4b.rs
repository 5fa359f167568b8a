//! Regenerates Figure 4b: DRAM refresh relaxation vs error rate, energy
//! improvement, and model quality loss.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin fig4b [quick|standard|full]`

use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::{fig4b, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("Figure 4b: DRAM refresh-cycle relaxation (errors vs energy vs model quality)");
    println!("(paper: Fig. 4b — ~4%/~6% error buys ~14%/~22% energy; HDC tolerates it)\n");
    let rows = fig4b::run(scale, 1);
    let widths = [12usize, 12, 12, 10, 10];
    print_header(
        &[
            "refresh ms",
            "error rate",
            "energy gain",
            "HDC loss",
            "DNN loss",
        ],
        &widths,
    );
    for row in rows {
        print_row(
            &[
                format!("{:.0}", row.refresh_ms),
                pct(row.error_rate),
                pct(row.energy_improvement),
                pct(row.hdc_loss),
                pct(row.dnn_loss),
            ],
            &widths,
        );
    }
}
