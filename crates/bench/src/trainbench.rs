//! Extension — training throughput of the parallel bit-sliced training
//! engine across thread counts, split into the two phases that compose a
//! fit:
//!
//! * **bundle** — one-shot bundling of the encoded training set into
//!   per-class accumulators (carry-save bit-plane partials sharded across
//!   the [`BatchEngine`]'s workers);
//! * **retrain** — perceptron refinement epochs, each batch-scored against
//!   the frozen per-epoch snapshot through the engine's fused popcount
//!   kernels.
//!
//! Before any timing, the sweep cross-checks the fast training path
//! against the sequential scalar reference at every thread count — down to
//! the raw `i64` accumulator counts, not just the thresholded model — so
//! the reported rates always describe the bit-exact engine. Set
//! `ROBUSTHD_TRAIN_FAST=0` to time the reference path instead (the
//! cross-check still runs; the two paths are interchangeable by
//! construction).

use crate::best_seconds;
use crate::workload::EncodedWorkload;
use robusthd::train::train_accumulators;
use robusthd::{BatchConfig, BatchEngine, TrainConfig, TrainedModel};
use std::fmt::Write as _;
use synthdata::DatasetSpec;

/// One timed point of the thread sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainBenchRow {
    /// Worker thread count used by the batch engine.
    pub threads: usize,
    /// Training samples bundled per second (one-shot phase, best repeat).
    pub bundle_qps: f64,
    /// Sample-updates applied per second across the retraining epochs
    /// (budgeted epochs × samples over the retraining wall-clock; an
    /// epoch early-exit on a separable task makes this an underestimate
    /// of the per-epoch rate). Zero when the epoch budget is zero.
    pub retrain_qps: f64,
    /// Full fit wall-clock in seconds (bundle + retrain, best repeat).
    pub fit_seconds: f64,
    /// Bundling speedup relative to the first (baseline) thread count in
    /// the sweep.
    pub speedup: f64,
}

/// The full sweep result for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainBenchOutcome {
    /// Dataset name.
    pub name: String,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Training samples per fit.
    pub samples: usize,
    /// Number of classes.
    pub classes: usize,
    /// Retraining epoch budget.
    pub epochs: usize,
    /// Shard size in samples.
    pub shard_size: usize,
    /// Timed repetitions per thread count (best wins).
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
    /// Whether the bit-sliced training fast path was active.
    pub train_fast: bool,
    /// One row per thread count, in sweep order.
    pub rows: Vec<TrainBenchRow>,
}

impl TrainBenchOutcome {
    /// Hand-written JSON rendering (no serializer dependency), stable field
    /// order for diffable CI artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dataset\": \"{}\", \"dim\": {}, \"samples\": {}, \"classes\": {}, \
             \"epochs\": {}, \"shard_size\": {}, \"repeats\": {}, \"seed\": {}, \
             \"train_fast\": {}, \"bit_exact\": true, \"sweep\": [",
            self.name,
            self.dim,
            self.samples,
            self.classes,
            self.epochs,
            self.shard_size,
            self.repeats,
            self.seed,
            self.train_fast
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"threads\": {}, \"bundle_qps\": {:.1}, \"retrain_qps\": {:.1}, \
                 \"fit_seconds\": {:.4}, \"speedup\": {:.3}}}",
                row.threads, row.bundle_qps, row.retrain_qps, row.fit_seconds, row.speedup
            );
        }
        out.push_str("]}");
        out
    }
}

/// Runs the training thread sweep on one dataset's training split (`spec`
/// carries its size).
///
/// # Errors
///
/// Returns the divergence if the fast training path ever differs from the
/// sequential scalar reference — the sweep refuses to report throughput
/// for a non-bit-exact configuration.
pub fn run(
    spec: &DatasetSpec,
    dim: usize,
    seed: u64,
    epochs: usize,
    threads: &[usize],
    shard_size: usize,
    repeats: usize,
) -> Result<TrainBenchOutcome, String> {
    assert!(!threads.is_empty(), "thread sweep must not be empty");
    assert!(shard_size > 0 && repeats > 0, "tuning must be positive");
    let workload = EncodedWorkload::sized(spec, dim, seed);
    let encoded = &workload.train_encoded;
    let labels = &workload.train_labels;
    let classes = spec.classes;

    let mut cfg_fit = workload.config.clone();
    cfg_fit.retrain_epochs = epochs;
    let mut cfg_bundle = cfg_fit.clone();
    cfg_bundle.retrain_epochs = 0;

    // Cross-check: the fast path at every swept thread count against one
    // sequential scalar-reference fit — raw accumulator counts and the
    // thresholded model both.
    let batch_config = |t: usize| {
        BatchConfig::builder()
            .threads(t)
            .shard_size(shard_size)
            .build()
            .map_err(|e| e.to_string())
    };
    let mut engine = BatchEngine::from_env();
    engine.set_config(batch_config(1)?);
    let reference = train_accumulators(
        encoded,
        labels,
        classes,
        &cfg_fit,
        &TrainConfig::reference(),
        &engine,
    );
    let reference_model = TrainedModel::from_accumulators(&reference);
    for &t in threads {
        engine.set_config(batch_config(t)?);
        let fast = train_accumulators(
            encoded,
            labels,
            classes,
            &cfg_fit,
            &TrainConfig::fast(),
            &engine,
        );
        for (c, (f, r)) in fast.iter().zip(&reference).enumerate() {
            if f.counts() != r.counts() {
                return Err(format!(
                    "class {c} accumulator counts at {t} threads diverge from the reference path"
                ));
            }
            if f != r {
                return Err(format!(
                    "class {c} accumulator at {t} threads diverges from the reference path"
                ));
            }
        }
        if TrainedModel::from_accumulators(&fast) != reference_model {
            return Err(format!(
                "trained model at {t} threads diverges from the reference path"
            ));
        }
    }

    // Time whatever path ROBUSTHD_TRAIN_FAST selected — the cross-check
    // above already proved it bit-exact.
    let train = TrainConfig::from_env();
    let mut out_rows = Vec::with_capacity(threads.len());
    let mut baseline = None;
    for &t in threads {
        engine.set_config(batch_config(t)?);
        let bundle_seconds = best_seconds(repeats, || {
            train_accumulators(encoded, labels, classes, &cfg_bundle, &train, &engine)
        });
        let fit_seconds = best_seconds(repeats, || {
            TrainedModel::from_accumulators(&train_accumulators(
                encoded, labels, classes, &cfg_fit, &train, &engine,
            ))
        });
        let bundle_qps = encoded.len() as f64 / bundle_seconds;
        let retrain_seconds = fit_seconds - bundle_seconds;
        let retrain_qps = if epochs == 0 || retrain_seconds <= 0.0 {
            0.0
        } else {
            (encoded.len() * epochs) as f64 / retrain_seconds
        };
        let base = *baseline.get_or_insert(bundle_qps);
        out_rows.push(TrainBenchRow {
            threads: t,
            bundle_qps,
            retrain_qps,
            fit_seconds,
            speedup: bundle_qps / base,
        });
    }
    Ok(TrainBenchOutcome {
        name: spec.name.to_string(),
        dim,
        samples: encoded.len(),
        classes,
        epochs,
        shard_size,
        repeats,
        seed,
        train_fast: train.fast_path,
        rows: out_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn sweep_produces_one_row_per_thread_count() {
        let spec = Scale::Quick.apply(&DatasetSpec::pecan());
        let o = run(&spec, 1024, 3, 1, &[1, 2], 16, 1).expect("bit-exact sweep");
        assert_eq!(o.rows.len(), 2);
        assert_eq!(o.rows[0].threads, 1);
        assert!((o.rows[0].speedup - 1.0).abs() < 1e-12);
        assert!(o
            .rows
            .iter()
            .all(|r| r.bundle_qps > 0.0 && r.fit_seconds > 0.0));
        assert_eq!(o.epochs, 1);
        assert!(o.samples > 0);
    }

    #[test]
    fn json_rendering_is_stable() {
        let o = TrainBenchOutcome {
            name: "ucihar".into(),
            dim: 8192,
            samples: 400,
            classes: 6,
            epochs: 2,
            shard_size: 32,
            repeats: 3,
            seed: 4,
            train_fast: true,
            rows: vec![TrainBenchRow {
                threads: 1,
                bundle_qps: 2500.0,
                retrain_qps: 1200.5,
                fit_seconds: 0.25,
                speedup: 1.0,
            }],
        };
        assert_eq!(
            o.to_json(),
            "{\"dataset\": \"ucihar\", \"dim\": 8192, \"samples\": 400, \"classes\": 6, \
             \"epochs\": 2, \"shard_size\": 32, \"repeats\": 3, \"seed\": 4, \
             \"train_fast\": true, \"bit_exact\": true, \"sweep\": [{\"threads\": 1, \"bundle_qps\": 2500.0, \
             \"retrain_qps\": 1200.5, \"fit_seconds\": 0.2500, \"speedup\": 1.000}]}"
        );
    }
}
