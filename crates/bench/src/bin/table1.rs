//! Regenerates Table 1: HDC quality loss under random noise for different
//! dimensionalities and model precisions, against the DNN reference.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin table1 [quick|standard|full]`

use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::{table1, Scale};

fn main() {
    let scale = Scale::from_args();
    println!("Table 1: HDC quality loss under random hardware noise (UCI HAR stand-in)");
    println!("(paper: Table 1 — D in {{5k,10k}} x precision in {{1,2}} bits vs DNN)\n");
    let rows = table1::run(scale, 1, 3);
    let widths = [12usize, 8, 8, 8, 8, 8];
    let header: Vec<String> = table1::ERROR_RATES.iter().map(|r| pct(*r)).collect();
    let mut columns = vec!["model"];
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    columns.extend(header_refs);
    print_header(&columns, &widths);
    for row in rows {
        let mut cells = vec![row.label.clone()];
        cells.extend(row.losses.iter().map(|l| pct(*l)));
        print_row(&cells, &widths);
    }
}
