//! Regenerates Table 4: HDC quality loss with and without RobustHD data
//! recovery across all six datasets.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin table4 [quick|standard|full]`

use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::{table4, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("Table 4: quality loss with/without RobustHD data recovery (D=4096)");
    println!("(paper: Table 4 — recovery driven only by unlabeled inference traffic)\n");
    let results = table4::run(scale, 4096, 1, 2);
    let widths = [18usize, 10, 10, 10, 10];
    print_header(&["setting", "clean acc", "2%", "6%", "10%"], &widths);
    for r in &results {
        let mut cells = vec![format!("{} w/o rec", r.name), pct(r.clean_accuracy)];
        cells.extend(r.without_recovery.iter().map(|l| pct(*l)));
        print_row(&cells, &widths);
        let mut cells = vec![format!("{} with rec", r.name), String::new()];
        cells.extend(r.with_recovery.iter().map(|l| pct(*l)));
        print_row(&cells, &widths);
    }
}
