//! Runs the adversarial scenario engine: attack-success-vs-budget curve,
//! disagreement hunt with bit-exact replay, and the joint memory + input
//! attack soak through the resilience supervisor.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin advsim
//! [quick|standard|full]`
//!
//! Prints human-readable tables, then one JSON line per dataset on stdout
//! (prefixed `json:`) for machine consumption in CI artifacts.

use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::{advsim as advbench, Scale};
use synthdata::DatasetSpec;

fn main() {
    let scale = Scale::from_args();
    let radii = [0usize, 16, 64, 256];
    println!("Adversarial scenario engine (D=4096, trust gate at 0.45)");
    println!(
        "(blackbox margin-guided bit flips; detection = successful attack served below the gate)\n"
    );
    let widths = [10usize, 8, 9, 9, 10, 11];
    print_header(
        &[
            "dataset",
            "radius",
            "success",
            "caught",
            "avg flips",
            "avg queries",
        ],
        &widths,
    );
    let mut outcomes = Vec::new();
    for spec in DatasetSpec::all() {
        let o = advbench::run(&spec, scale, 4096, 1, &radii, 6, 0.08, 0.15, 0.45);
        for p in &o.curve {
            print_row(
                &[
                    o.name.clone(),
                    p.radius.to_string(),
                    format!("{}/{}", p.successes, p.attacks),
                    format!("{}/{}", p.detected, p.successes),
                    format!("{:.1}", p.mean_flips),
                    format!("{:.0}", p.mean_queries),
                ],
                &widths,
            );
        }
        outcomes.push(o);
    }

    println!("\nDisagreement hunt + joint memory/input soak");
    let widths = [10usize, 7, 8, 8, 10, 10, 10, 10];
    print_header(
        &[
            "dataset",
            "corpus",
            "clean",
            "final",
            "atk succ",
            "detected",
            "false al",
            "rollbacks",
        ],
        &widths,
    );
    for o in &outcomes {
        let rollbacks = o.soak.steps.iter().filter(|s| s.rolled_back).count();
        print_row(
            &[
                o.name.clone(),
                o.corpus.cases.len().to_string(),
                pct(o.clean_accuracy),
                pct(o.soak.final_accuracy()),
                pct(o.soak.attack_success_rate()),
                pct(o.soak.detection_rate()),
                pct(o.soak.false_alarm_rate()),
                rollbacks.to_string(),
            ],
            &widths,
        );
    }
    println!();
    for o in &outcomes {
        println!("json: {}", o.to_json());
    }
}
