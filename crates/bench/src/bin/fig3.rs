//! Regenerates Figure 3: impact of the confidence threshold `T_C` and the
//! substitution rate `S` on recovery dynamics.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin fig3 [quick|standard|full]`

use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::{fig3, Scale};

fn main() {
    let scale = Scale::from_args();
    println!(
        "Figure 3: recovery vs confidence threshold T_C and substitution rate S \
         (UCI HAR stand-in, {:.0}% attack)",
        fig3::ATTACK_RATE * 100.0
    );
    println!("(paper: Fig. 3 — samples to recover and final quality loss)\n");
    let points = fig3::run(scale, 4096, 1);
    let widths = [6usize, 6, 14, 12, 12, 8];
    print_header(
        &["T_C", "S", "samples2rec", "final loss", "fluct", "trust"],
        &widths,
    );
    for p in points {
        print_row(
            &[
                format!("{:.2}", p.confidence_threshold),
                format!("{:.2}", p.substitution_rate),
                p.samples_to_recover
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "-".to_owned()),
                pct(p.final_loss),
                format!("{:.4}", p.fluctuation),
                format!("{:.2}", p.trust_rate),
            ],
            &widths,
        );
    }
}
