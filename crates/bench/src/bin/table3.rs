//! Regenerates Table 3: quality loss of DNN / SVM / AdaBoost / HDC under
//! random and targeted bit-flip attacks.
//!
//! Usage: `cargo run --release -p robusthd-bench --bin table3 [quick|standard|full]`

use robusthd_bench::format::{pct, print_header, print_row};
use robusthd_bench::table3::{self, AttackKind};
use robusthd_bench::Scale;

fn main() {
    let scale = Scale::from_args();
    println!("Table 3: quality loss under bit-flip attack (UCI HAR stand-in, 8-bit baselines, HDC D=10k)");
    println!("(paper: Table 3 — random vs targeted MSB attacks at 2-12% error)\n");
    let rows = table3::run(scale, 1, 3);
    let widths = [10usize, 10, 8, 8, 8, 8, 8, 8];
    let header: Vec<String> = table3::ERROR_RATES.iter().map(|r| pct(*r)).collect();
    let mut columns = vec!["model", "attack"];
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    columns.extend(header_refs);
    print_header(&columns, &widths);
    for row in rows {
        let attack = match row.attack {
            AttackKind::Random => "random",
            AttackKind::Targeted => "targeted",
        };
        let mut cells = vec![row.model.clone(), attack.to_owned()];
        cells.extend(row.losses.iter().map(|l| pct(*l)));
        print_row(&cells, &widths);
    }
}
