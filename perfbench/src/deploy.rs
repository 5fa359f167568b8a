//! The deployments the workloads serve, built from the seed exactly as the
//! repository's own serving benchmarks build them.

use robusthd::supervisor::ResilienceSupervisor;
use robusthd::{
    BatchConfig, Encoder, FleetConfig, HdcConfig, ModelRegistry, RecordEncoder, RecoveryConfig,
    ServeConfig, SubstitutionMode, SupervisorConfig, TrainedModel,
};
use robusthd_serve::engine::ServeEngine;
use robusthd_serve::{build_fleet_tenants, FleetBenchOptions, FleetTenant};
use synthdata::{DatasetSpec, GeneratorConfig};

/// Seed of every deployment's data, encoders and recovery generator. The
/// deployment is fixed; `--seed` varies the traffic and the faults, so runs
/// with different seeds compare the same model under different inputs.
pub const DEPLOY_SEED: u64 = 0x5EED;
/// Hypervector dimensionality of every deployment.
pub const DIM: usize = 2048;
/// Class count of the solo deployment.
pub const SOLO_CLASSES: usize = 12;
/// Test rows of the solo deployment withheld as supervisor canaries.
pub const CANARIES: usize = 128;
/// Train/test split sizes of the ucihar-shaped solo dataset.
const SOLO_SPLIT: (usize, usize) = (1200, 600);

/// Fleet shape: tenants, encoder cohorts, features, classes, and the
/// memory budget in resident models.
pub const FLEET_TENANTS: usize = 120;
pub const FLEET_COHORTS: usize = 8;
pub const FLEET_FEATURES: usize = 16;
pub const FLEET_CLASSES: usize = 6;
pub const FLEET_BUDGET_MODELS: usize = 16;

/// Recovery operating point and supervisor policy shared by every
/// deployment: 64-query health window, checkpoint every 16 healthy
/// batches.
pub fn supervision() -> (RecoveryConfig, SupervisorConfig) {
    let recovery = RecoveryConfig::builder()
        .confidence_threshold(0.45)
        .substitution_rate(0.5)
        .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
        .seed(DEPLOY_SEED ^ 0x5EE4)
        .build()
        .expect("valid recovery config");
    let policy = SupervisorConfig::builder()
        .window(64)
        .checkpoint_interval(16)
        .build()
        .expect("valid supervisor config");
    (recovery, policy)
}

/// The ucihar-shaped solo deployment (561 features, 12 classes): a
/// calibrated supervisor over a freshly trained model, plus the served rows
/// (the test rows that are not canaries) and their true labels.
#[derive(Debug)]
pub struct Solo {
    pub config: HdcConfig,
    pub encoder: RecordEncoder,
    pub model: TrainedModel,
    pub supervisor: ResilienceSupervisor,
    pub rows: Vec<Vec<f64>>,
    pub labels: Vec<usize>,
}

impl Solo {
    /// Generates the data, trains the model and calibrates the supervisor.
    pub fn build(batch: &BatchConfig) -> Self {
        let spec = DatasetSpec::ucihar().with_sizes(SOLO_SPLIT.0, SOLO_SPLIT.1);
        assert_eq!(spec.classes, SOLO_CLASSES);
        let data = GeneratorConfig::new(DEPLOY_SEED).generate(&spec);
        let config = HdcConfig::builder()
            .dimension(DIM)
            .seed(DEPLOY_SEED ^ 0xabcd)
            .build()
            .expect("valid HDC config");
        let encoder = RecordEncoder::new(&config, spec.features);
        let train: Vec<&[f64]> = data.train.iter().map(|s| s.features.as_slice()).collect();
        let train_labels: Vec<usize> = data.train.iter().map(|s| s.label).collect();
        let model = TrainedModel::train(
            &encoder.encode_batch_refs(&train),
            &train_labels,
            spec.classes,
            &config,
        );
        let canary_rows: Vec<&[f64]> = data.test[..CANARIES]
            .iter()
            .map(|s| s.features.as_slice())
            .collect();
        let canaries = encoder.encode_batch_refs(&canary_rows);
        let (recovery, policy) = supervision();
        let mut supervisor = ResilienceSupervisor::new(&config, recovery, policy, spec.features);
        supervisor.set_batch_config(batch.clone());
        supervisor.calibrate(&model, &canaries);
        let served = &data.test[CANARIES..];
        Self {
            config,
            encoder,
            model,
            supervisor,
            rows: served.iter().map(|s| s.features.clone()).collect(),
            labels: served.iter().map(|s| s.label).collect(),
        }
    }

    /// The deployment as a daemon engine, with its served rows and labels.
    pub fn into_engine(self) -> (ServeEngine, Vec<Vec<f64>>, Vec<usize>) {
        (
            ServeEngine::new(self.encoder, self.model, self.supervisor),
            self.rows,
            self.labels,
        )
    }
}

/// The multi-tenant deployment: 120 tenants (16 features, 6 classes) in 8
/// encoder cohorts, every 10th a clone of an earlier one, under a budget
/// of 16 resident models.
#[derive(Debug)]
pub struct Fleet {
    pub tenants: Vec<FleetTenant>,
    pub registry: ModelRegistry,
}

pub fn fleet_options() -> FleetBenchOptions {
    FleetBenchOptions {
        models: FLEET_TENANTS,
        cohorts: FLEET_COHORTS,
        dim: DIM,
        features: FLEET_FEATURES,
        classes: FLEET_CLASSES,
        rows_per_class: 8,
        budget_models: FLEET_BUDGET_MODELS,
        seed: DEPLOY_SEED,
        config: ServeConfig::default(),
        batch: BatchConfig::default(),
        ..FleetBenchOptions::default()
    }
}

/// Hot bytes of one resident model: class vectors plus the fused scoring
/// arena.
pub fn model_hot_bytes() -> usize {
    2 * FLEET_CLASSES * DIM.div_ceil(64) * 8
}

impl Fleet {
    /// Trains every tenant, registers it and calibrates its supervisor on
    /// its own rows.
    pub fn build(batch: &BatchConfig) -> Self {
        let tenants = build_fleet_tenants(&fleet_options());
        let config = FleetConfig::builder()
            .budget_bytes(FLEET_BUDGET_MODELS * model_hot_bytes())
            .build()
            .expect("valid fleet config");
        let mut registry = ModelRegistry::new(config);
        registry.set_batch_config(batch.clone());
        for t in &tenants {
            registry
                .register_trained(&t.id, &t.config, FLEET_FEATURES, &t.model)
                .expect("tenant registers");
        }
        let (recovery, policy) = supervision();
        for t in &tenants {
            registry
                .calibrate(&t.id, recovery.clone(), policy.clone(), &t.canaries)
                .expect("tenant calibrates");
        }
        Self { tenants, registry }
    }
}

/// A standalone supervisor for one fleet tenant, calibrated exactly as the
/// registry calibrates it: the reference the fleet must agree with.
pub fn solo_tenant(
    tenant: &FleetTenant,
    batch: &BatchConfig,
) -> (RecordEncoder, TrainedModel, ResilienceSupervisor) {
    let (recovery, policy) = supervision();
    let encoder = RecordEncoder::new(&tenant.config, FLEET_FEATURES);
    let mut supervisor =
        ResilienceSupervisor::new(&tenant.config, recovery, policy, FLEET_FEATURES);
    supervisor.set_batch_config(batch.clone());
    supervisor.calibrate(&tenant.model, &tenant.canaries);
    (encoder, tenant.model.clone(), supervisor)
}

/// Memory footprint of the codebook entries one encoded row gathers:
/// features × D/8 bytes (computed from sizes, not measured).
pub fn gather_bytes_per_row(features: usize) -> f64 {
    (features * DIM / 8) as f64
}
