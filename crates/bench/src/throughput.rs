//! Extension — serving throughput of the parallel [`BatchEngine`] across
//! thread counts, split into the three phases that actually compose the
//! serving path:
//!
//! * **encode** — raw feature rows → binary hypervectors
//!   ([`BatchEngine::encode_batch`], bound-pair + carry-save fast path);
//! * **score** — pre-encoded hypervectors → predictions
//!   ([`BatchEngine::predict_batch`], fused popcount kernels);
//! * **end-to-end** — raw feature rows → predictions in one fused pass
//!   ([`BatchEngine::predict_raw_batch`], no intermediate hypervector
//!   batch).
//!
//! Earlier revisions timed only the score phase and reported it as
//! "throughput", which flattered the system: on real serving traffic the
//! queries arrive as raw features and encoding dominates. The three rates
//! are now reported as separate JSON fields so no phase can masquerade as
//! the whole pipeline.
//!
//! Before any timing, the sweep cross-checks (a) the fast-path encoder
//! against the scalar reference encoder and (b) the engine's batched and
//! fused predictions against the sequential `TrainedModel::predict` path —
//! the reported rates always describe the bit-exact engine, never a faster
//! approximation.

use crate::best_seconds;
use crate::workload::EncodedWorkload;
use robusthd::{BatchConfig, BatchEngine, EncodeConfig, Encoder, RecordEncoder};
use std::fmt::Write as _;
use synthdata::DatasetSpec;

/// One timed point of the thread sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Worker thread count used by the batch engine.
    pub threads: usize,
    /// Raw rows encoded per second (best repeat).
    pub encode_qps: f64,
    /// Pre-encoded queries scored per second (best repeat).
    pub score_qps: f64,
    /// Raw rows served end to end (encode→score, fused) per second (best
    /// repeat).
    pub end_to_end_qps: f64,
    /// End-to-end speedup relative to the first (baseline) thread count in
    /// the sweep.
    pub speedup: f64,
}

/// The full sweep result for one dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputOutcome {
    /// Dataset name.
    pub name: String,
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Queries per timed batch.
    pub queries: usize,
    /// Shard size in queries.
    pub shard_size: usize,
    /// Timed repetitions per thread count (best wins).
    pub repeats: usize,
    /// Workload seed.
    pub seed: u64,
    /// Whether the encoder's bound-pair fast path was active.
    pub encode_fast: bool,
    /// One row per thread count, in sweep order.
    pub rows: Vec<ThroughputRow>,
}

impl ThroughputOutcome {
    /// Hand-written JSON rendering (no serializer dependency), stable field
    /// order for diffable CI artifacts.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"dataset\": \"{}\", \"dim\": {}, \"queries\": {}, \"shard_size\": {}, \
             \"repeats\": {}, \"seed\": {}, \"encode_fast\": {}, \"bit_exact\": true, \
             \"sweep\": [",
            self.name,
            self.dim,
            self.queries,
            self.shard_size,
            self.repeats,
            self.seed,
            self.encode_fast
        );
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"threads\": {}, \"encode_qps\": {:.1}, \"score_qps\": {:.1}, \
                 \"end_to_end_qps\": {:.1}, \"speedup\": {:.3}}}",
                row.threads, row.encode_qps, row.score_qps, row.end_to_end_qps, row.speedup
            );
        }
        out.push_str("]}");
        out
    }
}

/// Runs the thread sweep on one dataset: the training split trains the
/// model, every test row is one timed query (`spec` carries both sizes).
///
/// # Errors
///
/// Returns the divergence if the fast-path encoder or the engine's
/// predictions ever differ from the sequential reference path — the
/// sweep refuses to report throughput for a non-bit-exact configuration.
pub fn run(
    spec: &DatasetSpec,
    dim: usize,
    seed: u64,
    threads: &[usize],
    shard_size: usize,
    repeats: usize,
) -> Result<ThroughputOutcome, String> {
    assert!(!threads.is_empty(), "thread sweep must not be empty");
    assert!(shard_size > 0 && repeats > 0, "tuning must be positive");
    let workload = EncodedWorkload::sized(spec, dim, seed);
    let rows = workload.test_rows();

    // Cross-check 1: the serving encoder (whatever ROBUSTHD_ENCODE_FAST
    // selected) against an explicit scalar-reference encoder.
    let reference_encoder = RecordEncoder::with_encode_config(
        &workload.config,
        spec.features,
        EncodeConfig::reference(),
    );
    for (row, encoded) in rows.iter().zip(&workload.test_encoded) {
        if workload.encoder.encode(row) != *encoded {
            return Err("workload encoding is not reproducible".to_owned());
        }
        if reference_encoder.encode(row) != *encoded {
            return Err("fast-path encoding diverges from the scalar reference".to_owned());
        }
    }

    // Cross-check 2: batched and fused predictions against the sequential
    // model path.
    let sequential: Vec<usize> = workload
        .test_encoded
        .iter()
        .map(|q| workload.model.predict(q))
        .collect();

    let mut engine = BatchEngine::from_env();
    let mut out_rows = Vec::with_capacity(threads.len());
    let mut baseline = None;
    for &t in threads {
        engine.set_config(
            BatchConfig::builder()
                .threads(t)
                .shard_size(shard_size)
                .build()
                .map_err(|e| e.to_string())?,
        );
        if engine.predict_batch(&workload.model, &workload.test_encoded) != sequential {
            return Err(format!(
                "batched predictions at {t} threads diverge from the sequential path"
            ));
        }
        if engine.predict_raw_batch(&workload.encoder, &workload.model, &rows) != sequential {
            return Err(format!(
                "fused raw predictions at {t} threads diverge from the sequential path"
            ));
        }

        let items = rows.len() as f64;
        let encode_qps =
            items / best_seconds(repeats, || engine.encode_batch(&workload.encoder, &rows));
        let score_qps = items
            / best_seconds(repeats, || {
                engine.predict_batch(&workload.model, &workload.test_encoded)
            });
        let end_to_end_qps = items
            / best_seconds(repeats, || {
                engine.predict_raw_batch(&workload.encoder, &workload.model, &rows)
            });
        let base = *baseline.get_or_insert(end_to_end_qps);
        out_rows.push(ThroughputRow {
            threads: t,
            encode_qps,
            score_qps,
            end_to_end_qps,
            speedup: end_to_end_qps / base,
        });
    }
    Ok(ThroughputOutcome {
        name: spec.name.to_string(),
        dim,
        queries: rows.len(),
        shard_size,
        repeats,
        seed,
        encode_fast: workload.encoder.fast_path(),
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
        let o = run(&spec, 2048, 3, &[1, 2], 16, 1).expect("bit-exact sweep");
        assert_eq!(o.rows.len(), 2);
        assert_eq!(o.rows[0].threads, 1);
        assert!((o.rows[0].speedup - 1.0).abs() < 1e-12);
        assert!(o
            .rows
            .iter()
            .all(|r| r.encode_qps > 0.0 && r.score_qps > 0.0 && r.end_to_end_qps > 0.0));
    }

    #[test]
    fn json_rendering_is_stable() {
        let o = ThroughputOutcome {
            name: "pecan".into(),
            dim: 2048,
            queries: 10,
            shard_size: 4,
            repeats: 1,
            seed: 7,
            encode_fast: true,
            rows: vec![ThroughputRow {
                threads: 1,
                encode_qps: 1500.0,
                score_qps: 80000.0,
                end_to_end_qps: 1400.0,
                speedup: 1.0,
            }],
        };
        assert_eq!(
            o.to_json(),
            "{\"dataset\": \"pecan\", \"dim\": 2048, \"queries\": 10, \"shard_size\": 4, \
             \"repeats\": 1, \"seed\": 7, \"encode_fast\": true, \"bit_exact\": true, \
             \"sweep\": [\
             {\"threads\": 1, \"encode_qps\": 1500.0, \"score_qps\": 80000.0, \
             \"end_to_end_qps\": 1400.0, \"speedup\": 1.000}]}"
        );
    }
}
