//! Regenerates Figure 4a: PIM lifetime running DNN and HDC on
//! 10⁹-endurance NVM.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin fig4a [quick|standard|full]`

use robusthd_bench::format::{print_header, print_row};
use robusthd_bench::{fig4a, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("Figure 4a: accuracy over time on endurance-limited PIM (10^9 writes/cell)");
    println!("(paper: Fig. 4a — DNN dies in months, HDC lasts years, bigger D lasts longer)\n");
    let curves = fig4a::run(scale, 1, 16);
    for curve in &curves {
        println!(
            "{}  (wear {:.1} writes/cell/s, lifetime at <1% loss: {})",
            curve.label,
            curve.writes_per_cell_per_second,
            curve
                .lifetime_years
                .map(|y| if y < 1.0 {
                    format!("{:.1} months", y * 12.0)
                } else {
                    format!("{y:.1} years")
                })
                .unwrap_or_else(|| format!("> {} years", fig4a::HORIZON_YEARS)),
        );
    }
    println!();
    let widths = [8usize, 12, 12, 12, 12];
    let labels: Vec<String> = curves.iter().map(|c| c.label.clone()).collect();
    let mut columns = vec!["years"];
    columns.extend(labels.iter().map(|l| l.as_str()));
    print_header(&columns, &widths);
    for i in 0..curves[0].points.len() {
        let mut cells = vec![format!("{:.2}", curves[0].points[i].years)];
        for curve in &curves {
            cells.push(format!("{:.4}", curve.points[i].accuracy));
        }
        print_row(&cells, &widths);
    }
}
