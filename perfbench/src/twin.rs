//! Replays recorded batches on a twin deployment, splitting engine time by
//! calling each layer's public functions from the benchmark: the batch
//! engine's `encode_batch` and `evaluate_batch`, then
//! `ResilienceSupervisor::serve_batch` on the same encoded queries (which
//! serves bit-identically to the daemon's raw-row path). The supervisor's
//! self time is its `serve_batch` minus the live `evaluate_batch` it
//! repeats inside.

use crate::openloop::Answer;
use crate::report::Report;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use robusthd::diagnostics::HealthVerdict;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{persist, BatchReport, BatchScore, HdcConfig, RecordEncoder, TrainedModel};

/// Per-layer tallies of a twin replay.
#[derive(Debug, Default)]
pub struct TwinStats {
    pub rows: usize,
    pub batches: usize,
    pub encode_ns: u64,
    pub score_ns: u64,
    /// Engine calls per batch (live score, canary pass, re-score).
    pub engine_calls: usize,
    pub healthy_self_us: Vec<f64>,
    pub degraded_self_us: Vec<f64>,
    pub bits_repaired: usize,
    pub rollbacks: usize,
    pub escalations: usize,
    pub checkpoints: usize,
}

/// Engine passes one served batch cost, inferred from its report: the live
/// score, a canary pass whenever the live window looked healthy, and on a
/// degraded verdict a re-score plus a second judgement. A batch that stayed
/// degraded with a canary alarm counts one canary pass, a lower bound.
pub fn engine_calls(r: &BatchReport) -> usize {
    use HealthVerdict::{Degraded, Healthy};
    let mut calls = 1;
    match r.verdict {
        Healthy => calls += 1,
        Degraded => {
            calls += 1; // re-score of the repaired model
            let canary = match r.post_verdict {
                Healthy => 1 + usize::from(r.canary_alarm),
                Degraded => usize::from(r.canary_alarm),
                HealthVerdict::InsufficientTraffic => usize::from(r.canary_alarm),
            };
            calls += canary;
        }
        HealthVerdict::InsufficientTraffic => {}
    }
    calls
}

/// One supervisor deployment under replay.
#[derive(Debug)]
pub struct Twin<'a> {
    pub encoder: &'a RecordEncoder,
    pub model: &'a mut TrainedModel,
    pub supervisor: &'a mut ResilienceSupervisor,
}

impl Twin<'_> {
    /// Serves `rows` split into encode, score and supervisor spans under
    /// `parent`, returning the report and the live scores.
    pub fn serve(
        &mut self,
        tracer: &mut Tracer,
        stats: &mut TwinStats,
        request: Option<u64>,
        rows: &[&[f64]],
    ) -> (BatchReport, Vec<BatchScore>) {
        let engine = self.supervisor.batch_engine().clone();
        let beta = self.supervisor.hdc_config().softmax_beta;
        let parent = tracer.open("twin.batch", request);
        let t0 = tracer.now_ns();
        let queries = engine.encode_batch(self.encoder, rows);
        let t1 = tracer.now_ns();
        let scores = engine.evaluate_batch(self.model, &queries, beta);
        let t2 = tracer.now_ns();
        let report = self.supervisor.serve_batch(self.model, &queries);
        let t3 = tracer.now_ns();
        tracer.record("encode.encode_batch", t0, t1, parent, request);
        tracer.record("batch.evaluate_batch", t1, t2, parent, request);
        tracer.record("supervisor.serve_batch", t2, t3, parent, request);
        tracer.close(parent);

        stats.rows += rows.len();
        stats.batches += 1;
        stats.encode_ns += t1 - t0;
        stats.score_ns += t2 - t1;
        stats.engine_calls += engine_calls(&report);
        let self_us = (t3 - t2).saturating_sub(t2 - t1) as f64 / 1e3;
        match report.verdict {
            HealthVerdict::Degraded => stats.degraded_self_us.push(self_us),
            _ => stats.healthy_self_us.push(self_us),
        }
        stats.bits_repaired += report.bits_repaired;
        stats.rollbacks += usize::from(report.rolled_back);
        stats.escalations += usize::from(report.escalated);
        stats.checkpoints += usize::from(report.checkpointed);
        (report, scores)
    }
}

/// Times `pairs` checkpoint writes and reads of `model` through the RHD2
/// codec the supervisor checkpoints and the fleet evicts with; returns
/// per-call microseconds (save, load).
pub fn time_persist(
    tracer: &mut Tracer,
    config: &HdcConfig,
    features: usize,
    model: &TrainedModel,
    pairs: usize,
) -> (Vec<f64>, Vec<f64>) {
    let mut save = Vec::with_capacity(pairs);
    let mut load = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let t0 = tracer.now_ns();
        let mut bytes = Vec::new();
        persist::save_model(&mut bytes, config, features, model).expect("save to memory");
        let t1 = tracer.now_ns();
        let loaded = persist::load_model(bytes.as_slice()).expect("checkpoint loads");
        let t2 = tracer.now_ns();
        assert!(
            loaded.model == *model,
            "checkpoint round trip changed the model"
        );
        tracer.record("persist.save_model", t0, t1, None, None);
        tracer.record("persist.load_model", t1, t2, None, None);
        save.push((t1 - t0) as f64 / 1e3);
        load.push((t2 - t1) as f64 / 1e3);
    }
    (save, load)
}

/// Reports the per-layer metrics of a twin replay plus the persist
/// timings; with no degraded batch, the degraded self time is omitted.
pub fn report_metrics(
    report: &mut Report,
    stats: &TwinStats,
    features: usize,
    persist: (Vec<f64>, Vec<f64>),
) {
    let rows = stats.rows.max(1) as f64;
    report.metric(
        "encode.us_per_row",
        stats.encode_ns as f64 / 1e3 / rows,
        "us",
        stats.rows,
    );
    report.metric(
        "encode.gather_bytes_per_row",
        crate::deploy::gather_bytes_per_row(features),
        "bytes",
        1,
    );
    report.metric(
        "batch.score_us_per_row",
        stats.score_ns as f64 / 1e3 / rows,
        "us",
        stats.rows,
    );
    report.metric(
        "batch.calls_per_batch",
        stats.engine_calls as f64 / stats.batches.max(1) as f64,
        "count",
        stats.batches,
    );
    report.metric(
        "supervisor.healthy_us_per_batch",
        mean(&stats.healthy_self_us),
        "us",
        stats.healthy_self_us.len(),
    );
    if stats.degraded_self_us.is_empty() {
        report.omit(
            "supervisor.degraded_us_per_batch",
            "us",
            "no batch was judged degraded: clean traffic on a clean model",
        );
    } else {
        report.metric(
            "supervisor.degraded_us_per_batch",
            mean(&stats.degraded_self_us),
            "us",
            stats.degraded_self_us.len(),
        );
    }
    report.metric(
        "supervisor.degraded_share",
        stats.degraded_self_us.len() as f64 / stats.batches.max(1) as f64,
        "ratio",
        stats.batches,
    );
    report.metric(
        "supervisor.bits_repaired",
        stats.bits_repaired as f64,
        "count",
        1,
    );
    report.metric("supervisor.rollbacks", stats.rollbacks as f64, "count", 1);
    report.metric(
        "supervisor.escalations",
        stats.escalations as f64,
        "count",
        1,
    );
    report.metric(
        "supervisor.checkpoints",
        stats.checkpoints as f64,
        "count",
        1,
    );
    report.metric("persist.save_us", median(&persist.0), "us", persist.0.len());
    report.metric("persist.load_us", median(&persist.1), "us", persist.1.len());
}

/// The answers a served batch gave: label and confidence bits per row.
pub fn answers(report: &BatchReport, scores: &[BatchScore]) -> Vec<Answer> {
    report
        .answers
        .iter()
        .zip(scores)
        .map(|(&label, s)| Answer {
            label,
            bits: s.confidence.confidence.to_bits(),
        })
        .collect()
}

/// The metrics only a model registry has, with their units.
pub const FLEET_METRICS: [(&str, &str); 5] = [
    ("fleet.rehydrations_per_kreq", "count"),
    ("fleet.evictions_per_kreq", "count"),
    ("fleet.resident_hit_share", "ratio"),
    ("fleet.tenants_per_batch", "count"),
    ("fleet.serve_us_per_batch", "us"),
];
