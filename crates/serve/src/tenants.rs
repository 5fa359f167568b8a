//! The synthetic multi-tenant fleet: [`FleetBenchOptions`] describes its
//! geometry and [`build_fleet_tenants`] trains it — clustered per-tenant
//! workloads, encoder cohorts, and clone tenants so image deduplication is
//! exercised. The fleet benchmarks build their registries and daemons
//! from it.

use hypervector::BinaryHypervector;
use robusthd::{BatchConfig, Encoder, HdcConfig, RecordEncoder, ServeConfig, TrainedModel};

/// Fleet benchmark shape.
#[derive(Debug, Clone)]
pub struct FleetBenchOptions {
    /// Tenants to register (the acceptance run uses >= 100).
    pub models: usize,
    /// Distinct encoder cohorts: tenants within a cohort share codebook
    /// parameters, so the registry keeps one encoder per cohort.
    pub cohorts: usize,
    /// Hypervector dimensionality of every tenant.
    pub dim: usize,
    /// Feature count of every tenant (the wire mixer requires one shape).
    pub features: usize,
    /// Classes per tenant model.
    pub classes: usize,
    /// Training/query rows per class per tenant.
    pub rows_per_class: usize,
    /// Memory budget expressed in resident models (converted to bytes from
    /// the actual per-model hot cost).
    pub budget_models: usize,
    /// Workload seed.
    pub seed: u64,
    /// Daemon coalescer tuning for the wire phase.
    pub config: ServeConfig,
    /// Batch-engine tuning (threads echoed into the report).
    pub batch: BatchConfig,
    /// Concurrent wire clients.
    pub clients: usize,
    /// Classify requests per wire client.
    pub requests_per_client: usize,
    /// Requests in flight per wire client.
    pub pipeline: usize,
    /// Zipf exponent of the tenant mixer (1.0 = classic skew).
    pub zipf_exponent: f64,
}

impl Default for FleetBenchOptions {
    fn default() -> Self {
        Self {
            models: 120,
            cohorts: 8,
            dim: 2048,
            features: 16,
            classes: 6,
            rows_per_class: 8,
            budget_models: 16,
            seed: 0,
            config: ServeConfig::from_env(),
            batch: BatchConfig::from_env(),
            clients: 16,
            requests_per_client: 64,
            pipeline: 4,
            zipf_exponent: 1.0,
        }
    }
}

/// One synthetic tenant: its pipeline parameters, trained model, and the
/// labeled rows both benchmark phases and supervisors draw from.
#[derive(Debug, Clone)]
pub struct FleetTenant {
    /// Registry id.
    pub id: String,
    /// Pipeline config (cohort seed decides encoder sharing).
    pub config: HdcConfig,
    /// Trained class-vector model.
    pub model: TrainedModel,
    /// Raw labeled query rows (also the training set).
    pub rows: Vec<Vec<f64>>,
    /// Ground-truth labels aligned with `rows`.
    pub labels: Vec<usize>,
    /// Encoded calibration canaries for the supervisor.
    pub canaries: Vec<BinaryHypervector>,
}

/// Builds the synthetic fleet: per-tenant clustered workloads (separable
/// classes, so LogHD's accuracy delta is meaningful), `cohorts` encoder
/// cohorts, and every 10th tenant a byte-identical clone of an earlier
/// one so image deduplication is exercised.
pub fn build_fleet_tenants(opts: &FleetBenchOptions) -> Vec<FleetTenant> {
    let mut tenants: Vec<FleetTenant> = Vec::with_capacity(opts.models);
    for t in 0..opts.models {
        if t % 10 == 9 && t >= 9 {
            // A clone tenant: identical model bytes, distinct identity —
            // the registry should share one image between them.
            let source = tenants[t - 9].clone();
            tenants.push(FleetTenant {
                id: format!("tenant-{t:04}"),
                ..source
            });
            continue;
        }
        let config = HdcConfig::builder()
            .dimension(opts.dim)
            .seed(opts.seed + (t % opts.cohorts.max(1)) as u64)
            .build()
            .expect("valid tenant config");
        let encoder = RecordEncoder::new(&config, opts.features);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for c in 0..opts.classes {
            for s in 0..opts.rows_per_class {
                rows.push(
                    (0..opts.features)
                        .map(|f| {
                            let center = ((c * 31 + f * 17 + t * 7) % 97) as f64 / 97.0;
                            let jitter = ((s * 13 + f * 7 + t * 3) % 5) as f64 / 500.0;
                            (center + jitter).min(1.0)
                        })
                        .collect::<Vec<f64>>(),
                );
                labels.push(c);
            }
        }
        let refs: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        let encoded = encoder.encode_batch_refs(&refs);
        let model = TrainedModel::train(&encoded, &labels, opts.classes, &config);
        let canaries = encoded;
        tenants.push(FleetTenant {
            id: format!("tenant-{t:04}"),
            config,
            model,
            rows,
            labels,
            canaries,
        });
    }
    tenants
}
