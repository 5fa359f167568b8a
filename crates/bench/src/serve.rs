//! Extension — coalesced vs sequential serving throughput of the
//! `robusthdd` daemon on loopback: the `servebench` harness behind
//! `BENCH_serve.json`.
//!
//! Builds one workload and runs three phases, each against a **fresh**
//! daemon over an identically calibrated deployment (identical
//! construction → identical initial state):
//!
//! 1. **Bit-exactness cross-check** — every benchmark row is served once
//!    through the wire (pipelined NDJSON client) and once through a
//!    reference engine's sequential single-query path; labels must match
//!    and confidences must be [`f64::to_bits`]-identical *through the JSON
//!    roundtrip*. The timing phases refuse to run if this fails: a fast
//!    wrong daemon is not a result.
//! 2. **Sequential baseline** — one client, one request in flight: every
//!    query pays the full per-call supervisor overhead (canary probe,
//!    checkpoint cadence) alone.
//! 3. **Coalesced run** — `concurrency` pipelined clients; the coalescer
//!    amortises that per-call overhead across each micro-batch.
//!
//! The headline number is `speedup = coalesced.qps / sequential.qps`; the
//! CI gate expects ≥ 2 at concurrency ≥ 32.

use crate::workload::EncodedWorkload;
use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{BatchConfig, RecoveryConfig, ServeConfig, SubstitutionMode, SupervisorConfig};
use robusthd_serve::json::Json;
use robusthd_serve::loadgen::{run_loadgen, LoadOptions, LoadReport};
use robusthd_serve::protocol::{self, Request, Response, StatsSnapshot};
use robusthd_serve::{serve, ServeEngine};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use synthdata::DatasetSpec;

/// Tuning for one serving benchmark run.
#[derive(Debug, Clone)]
pub struct ServeBenchParams {
    /// Hypervector dimensionality.
    pub dim: usize,
    /// Workload seed.
    pub seed: u64,
    /// Concurrent clients in the coalesced phase.
    pub concurrency: usize,
    /// Classify requests per client in the coalesced phase.
    pub requests_per_client: usize,
    /// Max requests in flight per client.
    pub pipeline: usize,
    /// Supervisor health-verdict window.
    pub monitor_window: usize,
    /// Checkpoint every N healthy batches.
    pub checkpoint: usize,
    /// Leading test rows withheld as supervisor canaries (the benchmark
    /// rows are never also calibration data).
    pub canaries: usize,
    /// Daemon coalescer tuning (window, max batch, queue depth).
    pub config: ServeConfig,
    /// Batch-engine tuning for the deployment.
    pub batch: BatchConfig,
}

impl Default for ServeBenchParams {
    fn default() -> Self {
        Self {
            dim: 2048,
            seed: 0,
            concurrency: 32,
            requests_per_client: 32,
            pipeline: 4,
            monitor_window: 64,
            checkpoint: 16,
            canaries: 128,
            config: ServeConfig::from_env(),
            batch: BatchConfig::from_env(),
        }
    }
}

/// One timed phase of the benchmark.
#[derive(Debug, Clone)]
pub struct PhaseOutcome {
    /// Requests sent.
    pub requests: u64,
    /// `result` responses (must equal `requests` for a clean phase).
    pub results: u64,
    /// `overloaded` responses (admission sheds).
    pub overloaded: u64,
    /// Responses per second.
    pub qps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, milliseconds.
    pub p95_ms: f64,
    /// 99th percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean queries per drained micro-batch (1.0 for the sequential phase).
    pub mean_batch: f64,
}

/// The full `BENCH_serve.json` payload.
#[derive(Debug, Clone)]
pub struct ServeBenchOutcome {
    /// Dataset label.
    pub dataset: String,
    /// Hypervector dimensionality of the deployment.
    pub dim: usize,
    /// Feature count per query.
    pub features: usize,
    /// Class count.
    pub classes: usize,
    /// Concurrent clients in the coalesced phase.
    pub concurrency: usize,
    /// Coalescing window, microseconds.
    pub window_us: u64,
    /// Batch ceiling.
    pub max_batch: usize,
    /// Admission queue depth.
    pub queue_depth: usize,
    /// Batch-engine worker threads.
    pub threads: usize,
    /// Whether the wire answers matched the reference engine bit-for-bit.
    pub bit_exact: bool,
    /// One-client, lockstep phase.
    pub sequential: PhaseOutcome,
    /// Many-client, pipelined phase.
    pub coalesced: PhaseOutcome,
    /// `coalesced.qps / sequential.qps`.
    pub speedup: f64,
}

impl PhaseOutcome {
    fn from_load(report: &LoadReport, mean_batch: f64) -> Self {
        Self {
            requests: report.sent,
            results: report.results,
            overloaded: report.overloaded,
            qps: report.qps,
            p50_ms: report.p50_ms,
            p95_ms: report.p95_ms,
            p99_ms: report.p99_ms,
            mean_batch,
        }
    }

    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("requests".to_owned(), Json::Number(self.requests as f64)),
            ("results".to_owned(), Json::Number(self.results as f64)),
            (
                "overloaded".to_owned(),
                Json::Number(self.overloaded as f64),
            ),
            ("qps".to_owned(), Json::Number(self.qps)),
            ("p50_ms".to_owned(), Json::Number(self.p50_ms)),
            ("p95_ms".to_owned(), Json::Number(self.p95_ms)),
            ("p99_ms".to_owned(), Json::Number(self.p99_ms)),
            ("mean_batch".to_owned(), Json::Number(self.mean_batch)),
        ])
    }
}

impl ServeBenchOutcome {
    /// Serialises the outcome as the single-line `BENCH_serve.json` body.
    pub fn to_json(&self) -> String {
        Json::Object(vec![
            ("dataset".to_owned(), Json::String(self.dataset.clone())),
            ("dim".to_owned(), Json::Number(self.dim as f64)),
            ("features".to_owned(), Json::Number(self.features as f64)),
            ("classes".to_owned(), Json::Number(self.classes as f64)),
            (
                "concurrency".to_owned(),
                Json::Number(self.concurrency as f64),
            ),
            ("window_us".to_owned(), Json::Number(self.window_us as f64)),
            ("max_batch".to_owned(), Json::Number(self.max_batch as f64)),
            (
                "queue_depth".to_owned(),
                Json::Number(self.queue_depth as f64),
            ),
            ("threads".to_owned(), Json::Number(self.threads as f64)),
            ("bit_exact".to_owned(), Json::Bool(self.bit_exact)),
            ("sequential".to_owned(), self.sequential.to_json()),
            ("coalesced".to_owned(), self.coalesced.to_json()),
            ("speedup".to_owned(), Json::Number(self.speedup)),
        ])
        .to_string_compact()
    }
}

/// Sends every row once over one pipelined connection and returns the
/// `(label, confidence)` pairs in request order, as decoded off the wire.
fn wire_answers(
    addr: SocketAddr,
    rows: &[Vec<f64>],
    pipeline: usize,
) -> io::Result<Vec<(Option<usize>, f64)>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = BufWriter::new(stream.try_clone()?);
    let mut reader = BufReader::new(stream);
    let mut answers = Vec::with_capacity(rows.len());
    let mut sent = 0usize;
    let mut line = String::new();
    while answers.len() < rows.len() {
        while sent < rows.len() && sent - answers.len() < pipeline.max(1) {
            let mut msg = protocol::encode_request(&Request::Classify {
                id: sent as u64,
                model: None,
                features: rows[sent].clone(),
            });
            msg.push('\n');
            writer.write_all(msg.as_bytes())?;
            sent += 1;
        }
        writer.flush()?;
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed",
            ));
        }
        match protocol::decode_response(line.trim_end()) {
            Ok(Response::Result {
                id,
                label,
                confidence,
            }) => {
                if id != answers.len() as u64 {
                    return Err(io::Error::other(format!(
                        "out-of-order response: expected id {}, got {id}",
                        answers.len()
                    )));
                }
                answers.push((label, confidence));
            }
            Ok(other) => {
                return Err(io::Error::other(format!(
                    "expected a result response, got {}",
                    protocol::encode_response(&other)
                )))
            }
            Err(e) => {
                return Err(io::Error::other(format!(
                    "undecodable response: {}",
                    e.message
                )))
            }
        }
    }
    Ok(answers)
}

fn mean_batch_of(stats: &StatsSnapshot) -> f64 {
    if stats.batches == 0 {
        0.0
    } else {
        stats.coalesced as f64 / stats.batches as f64
    }
}

/// Builds one calibrated [`ServeEngine`] deployment from the workload:
/// fresh supervisor, recovery policy at the soak defaults, canaries =
/// the first `canaries` encoded test queries. Every phase builds its own,
/// so earlier traffic cannot leak supervisor state into later timings.
fn build_engine(workload: &EncodedWorkload, params: &ServeBenchParams) -> ServeEngine {
    let base = RecoveryConfig::builder()
        .confidence_threshold(0.45)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(params.seed ^ 0x5EE4)
        .build()
        .expect("valid recovery config");
    let policy = SupervisorConfig::builder()
        .window(params.monitor_window)
        .checkpoint_interval(params.checkpoint)
        .build()
        .expect("valid supervisor config");
    let features = workload.data.train[0].features.len();
    let mut supervisor = ResilienceSupervisor::new(&workload.config, base, policy, features);
    let model = workload.model.clone();
    supervisor.calibrate(&model, &workload.test_encoded[..params.canaries]);
    let mut engine = ServeEngine::new(workload.encoder.clone(), model, supervisor);
    engine.set_batch_config(params.batch.clone());
    engine
}

/// Runs the three-phase serving benchmark on one dataset: the training
/// split trains the deployment, the first `params.canaries` test rows
/// calibrate it and the rest are the benchmark rows (`spec` carries both
/// split sizes).
///
/// # Errors
///
/// Returns an error if any daemon fails to start, any client connection
/// fails, or — most importantly — the wire answers diverge from the
/// reference engine's sequential answers.
///
/// # Panics
///
/// Panics if the test split leaves no benchmark rows beyond the canary
/// reservation.
pub fn run(spec: &DatasetSpec, params: &ServeBenchParams) -> io::Result<ServeBenchOutcome> {
    let workload = EncodedWorkload::sized(spec, params.dim, params.seed);
    assert!(
        workload.data.test.len() > params.canaries,
        "the test split leaves no benchmark rows beyond the {} canaries",
        params.canaries
    );
    let rows: Vec<Vec<f64>> = workload.data.test[params.canaries..]
        .iter()
        .map(|s| s.features.clone())
        .collect();
    let mk_engine = || build_engine(&workload, params);
    let config = params.config;

    // Phase 1: bit-exactness through the wire, before any timing.
    let mut reference = mk_engine();
    let handle = serve(("127.0.0.1", 0), config, mk_engine())?;
    let wire = wire_answers(handle.addr(), &rows, params.pipeline)?;
    drop(handle.shutdown());
    for (i, (row, (wire_label, wire_confidence))) in rows.iter().zip(&wire).enumerate() {
        let expected = reference.serve(&[row.as_slice()])[0];
        if expected.label != *wire_label
            || expected.confidence.to_bits() != wire_confidence.to_bits()
        {
            return Err(io::Error::other(format!(
                "bit-exactness violation at row {i}: wire ({wire_label:?}, {:#018x}) vs \
                 reference ({:?}, {:#018x})",
                wire_confidence.to_bits(),
                expected.label,
                expected.confidence.to_bits(),
            )));
        }
    }

    // Phases 2 and 3 do identical total work: the sequential client sends
    // every request the coalesced clients share.
    let timed = |load: LoadOptions| -> io::Result<PhaseOutcome> {
        let handle = serve(("127.0.0.1", 0), config, mk_engine())?;
        let report = run_loadgen(handle.addr(), &rows, load)?;
        let (_engine, stats) = handle.shutdown();
        Ok(PhaseOutcome::from_load(&report, mean_batch_of(&stats)))
    };
    let sequential = timed(LoadOptions {
        clients: 1,
        requests_per_client: params.concurrency * params.requests_per_client,
        pipeline: 1,
    })?;
    let coalesced = timed(LoadOptions {
        clients: params.concurrency,
        requests_per_client: params.requests_per_client,
        pipeline: params.pipeline,
    })?;

    let speedup = if sequential.qps > 0.0 {
        coalesced.qps / sequential.qps
    } else {
        0.0
    };
    Ok(ServeBenchOutcome {
        dataset: spec.name.to_string(),
        dim: reference.dim(),
        features: reference.features(),
        classes: reference.num_classes(),
        concurrency: params.concurrency,
        window_us: config.window_us,
        max_batch: config.max_batch,
        queue_depth: config.queue_depth,
        threads: params.batch.threads,
        bit_exact: true,
        sequential,
        coalesced,
        speedup,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn quick_bench_is_bit_exact_and_reports_both_phases() {
        let params = ServeBenchParams {
            dim: 512,
            concurrency: 4,
            requests_per_client: 4,
            canaries: 16,
            ..ServeBenchParams::default()
        };
        let spec = Scale::Quick.apply(&DatasetSpec::pecan());
        let o = run(&spec, &params).expect("bench runs");
        assert!(o.bit_exact);
        assert_eq!(o.concurrency, 4);
        assert!(o.sequential.qps > 0.0 && o.coalesced.qps > 0.0);
        assert!(o.speedup > 0.0);
        let json = o.to_json();
        assert!(json.contains("\"bit_exact\":true"), "{json}");
        assert!(json.contains("\"speedup\""), "{json}");
    }
}
