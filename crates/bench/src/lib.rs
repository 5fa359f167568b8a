//! Experiment harness regenerating every table and figure of the RobustHD
//! paper (DAC 2022).
//!
//! Each experiment module builds its workload from the synthetic dataset
//! generators, trains the models involved, applies the paper's fault
//! models, and returns typed result rows; the `src/bin` targets print them
//! in the layout of the paper's tables, and the Criterion benches in
//! `benches/` time the underlying kernels.
//!
//! The five measurement harnesses — [`throughput`], [`trainbench`],
//! [`kernelbench`], [`serve`] and [`fleetbench`] — live only here. Each
//! exposes one `run` taking explicit sizes and returning an outcome with
//! one `to_json`; its bit-exactness gate runs before any timing and
//! surfaces a divergence as an `Err`. The `src/bin` targets map a
//! [`Scale`] onto those sizes, and the `robusthd` CLI's bench
//! subcommands map their flags onto the same calls.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — HDC quality loss vs noise, dimension, precision |
//! | [`table3`] | Table 3 — DNN/SVM/AdaBoost/HDC under random & targeted attack |
//! | [`table4`] | Table 4 — quality loss with/without RobustHD recovery |
//! | [`fig2`]   | Figure 2 — PIM efficiency of DNN and HDC vs GPU |
//! | [`fig3`]   | Figure 3 — recovery vs confidence threshold and substitution rate |
//! | [`fig4a`]  | Figure 4a — PIM lifetime under endurance wear |
//! | [`fig4b`]  | Figure 4b — DRAM refresh relaxation |
//! | [`soak`]   | Extension — chaos soak of the closed-loop resilience supervisor |
//! | [`throughput`] | Extension — batched inference throughput across thread counts |
//! | [`trainbench`] | Extension — bit-sliced training throughput (bundle/retrain) across thread counts |
//! | [`kernelbench`] | Extension — execution-tier kernel throughput (reference vs wide) per kernel family |
//! | [`advsim`] | Extension — adversarial input-space attacks, disagreement hunting, joint soak |
//! | [`serve`]  | Extension — `servebench`: wire bit-exactness, then coalesced vs sequential `robusthdd` serving on loopback |
//! | [`fleetbench`] | Extension — fleet-vs-solo bit-exactness, then multi-tenant serving under a memory budget (LRU, LogHD, routing) |
//!
//! Experiments default to a laptop-scale subsample of the paper's datasets
//! (exact feature/class geometry, reduced split sizes); see
//! [`workload::Scale`].

#![forbid(unsafe_code)]

pub mod ablation;
pub mod advsim;
pub mod attack;
pub mod fig2;
pub mod fig3;
pub mod fig4a;
pub mod fig4b;
pub mod fleetbench;
pub mod format;
pub mod kernelbench;
pub mod serve;
pub mod soak;
pub mod table1;
pub mod table3;
pub mod table4;
pub mod throughput;
pub mod trainbench;
pub mod workload;

pub use workload::{EncodedWorkload, Scale};

/// Best (minimum) wall-clock seconds of `f` over `repeats` runs; each
/// run's output is dropped after the clock stops. The one timing loop
/// every throughput sweep shares.
pub fn best_seconds<T>(repeats: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let start = std::time::Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        drop(out);
    }
    best
}
