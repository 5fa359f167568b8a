//! Runs the design-choice ablations of DESIGN.md §5/§8 and prints their
//! tables.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin ablation [quick|standard|full]`

use robusthd::SubstitutionMode;
use robusthd_bench::ablation::{self, CorruptionPattern};
use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::Scale;

fn main() {
    let scale = Scale::from_args();

    println!("Ablation 1: substitution mode x corruption pattern (6% flip budget)");
    println!("(DESIGN.md §8 finding 1: overwrite repairs concentrated damage,");
    println!(" majority counters are needed for diffuse corruption)\n");
    let rows = ablation::substitution_ablation(scale, 4096, 1);
    let widths = [10usize, 22, 12, 12];
    print_header(&["pattern", "mode", "loss before", "loss after"], &widths);
    for r in rows {
        let pattern = match r.pattern {
            CorruptionPattern::Diffuse => "diffuse",
            CorruptionPattern::RowBurst => "row burst",
        };
        let mode = match r.mode {
            SubstitutionMode::Overwrite => "overwrite (§4.3)",
            SubstitutionMode::MajorityCounter { .. } => "majority counters",
        };
        print_row(
            &[
                pattern.to_owned(),
                mode.to_owned(),
                pct(r.loss_before),
                pct(r.loss_after),
            ],
            &widths,
        );
    }

    println!("\nAblation 2: chunk count m (recovery from 10% diffuse attack)\n");
    let rows = ablation::chunk_ablation(scale, 4096, 2);
    let widths = [8usize, 12, 12];
    print_header(&["chunks", "loss after", "fault rate"], &widths);
    for r in rows {
        print_row(
            &[
                r.chunks.to_string(),
                pct(r.loss_after),
                format!("{:.4}", r.fault_rate),
            ],
            &widths,
        );
    }

    println!("\nAblation 3: level codebook (local chain vs linear thermometer)\n");
    let rows = ablation::level_ablation(scale, 4096, 4);
    let widths = [14usize, 12, 14, 16];
    print_header(
        &["codebook", "clean acc", "ambient sim", "recovered loss"],
        &widths,
    );
    for r in rows {
        print_row(
            &[
                r.codebook.clone(),
                pct(r.clean_accuracy),
                format!("{:.3}", r.ambient_similarity),
                pct(r.recovered_loss),
            ],
            &widths,
        );
    }

    println!("\nAblation 4: encoder choice\n");
    let rows = ablation::encoder_ablation(scale, 4096, 3);
    let widths = [20usize, 12, 16];
    print_header(&["encoder", "clean acc", "loss @10% flips"], &widths);
    for r in rows {
        print_row(
            &[
                r.encoder.clone(),
                pct(r.clean_accuracy),
                pct(r.loss_at_ten_percent),
            ],
            &widths,
        );
    }
}
