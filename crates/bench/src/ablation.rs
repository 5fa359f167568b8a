//! Ablations of the design choices DESIGN.md §5 and §8 call out:
//!
//! * **Substitution mode × corruption pattern** — the paper-literal
//!   overwrite vs the majority-counter extension, against diffuse random
//!   flips and against concentrated row bursts. This is the experimental
//!   backing of DESIGN.md §8 finding 1.
//! * **Chunk count `m`** — detection granularity vs reliability.
//! * **Level-codebook correlation** — the local chain vs the classic
//!   linear thermometer (DESIGN.md §8 finding 3).
//! * **Encoder choice** — record binding vs random projection.

use crate::attack::attack_hdc;
use crate::workload::{EncodedWorkload, Scale};
use faultsim::Attacker;
use robusthd::{
    accuracy, quality_loss, Encoder, HdcConfig, RandomProjectionEncoder, RecordEncoder,
    RecoveryConfig, RecoveryEngine, SubstitutionMode, TrainedModel,
};
use synthdata::DatasetSpec;

/// How the attack distributes its flips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionPattern {
    /// Uniform random flips over the whole model image.
    Diffuse,
    /// Whole 256-bit rows wiped (Row-Hammer / dead-row style), totalling
    /// roughly the same number of flipped bits.
    RowBurst,
}

/// One row of the substitution-mode ablation.
#[derive(Debug, Clone)]
pub struct SubstitutionAblationRow {
    /// Corruption pattern applied.
    pub pattern: CorruptionPattern,
    /// Substitution operator used for recovery.
    pub mode: SubstitutionMode,
    /// Quality loss before recovery.
    pub loss_before: f64,
    /// Quality loss after recovery.
    pub loss_after: f64,
}

fn attack_rows(model: &TrainedModel, rows: usize, seed: u64) -> TrainedModel {
    let mut image = model.to_memory_image();
    let bits = image.len();
    Attacker::seed_from(seed).row_burst(image.words_mut(), bits, 256, rows);
    image.mask_tail();
    let mut attacked = model.clone();
    attacked.load_memory_image(&image);
    attacked
}

/// Substitution-mode × corruption-pattern ablation at a 6% flip budget.
///
/// Six percent keeps enough of the model intact that the recovery loop
/// still sees mostly-correct trusted traffic — with a whole-row wipe the
/// same bit budget is far more damaging than diffuse flips, which is
/// itself part of the finding.
pub fn substitution_ablation(scale: Scale, dim: usize, seed: u64) -> Vec<SubstitutionAblationRow> {
    let w = EncodedWorkload::build(&DatasetSpec::ucihar(), scale, dim, seed);
    let clean = w.clean_accuracy();
    let total_bits = w.model.num_classes() * w.model.dim();
    // A row burst wiping ~6% of the stored bits.
    let burst_rows = total_bits * 6 / 100 / 256;

    let mut rows = Vec::new();
    for pattern in [CorruptionPattern::Diffuse, CorruptionPattern::RowBurst] {
        let attacked = match pattern {
            CorruptionPattern::Diffuse => attack_hdc(&w.model, 0.06, seed ^ 0x5150),
            CorruptionPattern::RowBurst => attack_rows(&w.model, burst_rows, seed ^ 0x5150),
        };
        let loss_before = quality_loss(clean, accuracy(&attacked, &w.test_encoded, &w.test_labels));
        for mode in [
            SubstitutionMode::Overwrite,
            SubstitutionMode::MajorityCounter { saturation: 3 },
        ] {
            let mut model = attacked.clone();
            let config = RecoveryConfig::builder()
                .confidence_threshold(0.45)
                .substitution_rate(0.5)
                .substitution(mode)
                .seed(seed)
                .build()
                .expect("valid recovery config");
            let mut engine = RecoveryEngine::new(config, w.config.softmax_beta);
            for _ in 0..16 {
                engine.run_stream(&mut model, &w.test_encoded);
            }
            let loss_after = quality_loss(clean, accuracy(&model, &w.test_encoded, &w.test_labels));
            rows.push(SubstitutionAblationRow {
                pattern,
                mode,
                loss_before,
                loss_after,
            });
        }
    }
    rows
}

/// One row of the chunk-count ablation.
#[derive(Debug, Clone)]
pub struct ChunkAblationRow {
    /// Number of chunks `m`.
    pub chunks: usize,
    /// Quality loss after recovery from a 10% diffuse attack.
    pub loss_after: f64,
    /// Fraction of inspected chunks flagged faulty.
    pub fault_rate: f64,
}

/// Chunk-count ablation: recovery quality vs detection granularity.
pub fn chunk_ablation(scale: Scale, dim: usize, seed: u64) -> Vec<ChunkAblationRow> {
    let w = EncodedWorkload::build(&DatasetSpec::ucihar(), scale, dim, seed);
    let clean = w.clean_accuracy();
    [4usize, 10, 20, 40, 80]
        .iter()
        .map(|&chunks| {
            let mut model = attack_hdc(&w.model, 0.10, seed ^ 0x5151);
            let config = RecoveryConfig::builder()
                .chunks(chunks)
                .confidence_threshold(0.45)
                .substitution_rate(0.5)
                .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
                .seed(seed)
                .build()
                .expect("valid recovery config");
            let mut engine = RecoveryEngine::new(config, w.config.softmax_beta);
            for _ in 0..16 {
                engine.run_stream(&mut model, &w.test_encoded);
            }
            ChunkAblationRow {
                chunks,
                loss_after: quality_loss(clean, accuracy(&model, &w.test_encoded, &w.test_labels)),
                fault_rate: engine.stats().fault_rate(),
            }
        })
        .collect()
}

/// One row of the encoder ablation.
#[derive(Debug, Clone)]
pub struct EncoderAblationRow {
    /// Encoder label.
    pub encoder: String,
    /// Clean test accuracy.
    pub clean_accuracy: f64,
    /// Quality loss at a 10% random model attack.
    pub loss_at_ten_percent: f64,
}

/// Encoder ablation: the record-binding encoder vs the random-projection
/// encoder, on accuracy and on attack robustness.
pub fn encoder_ablation(scale: Scale, dim: usize, seed: u64) -> Vec<EncoderAblationRow> {
    let spec = scale.apply(&DatasetSpec::ucihar());
    let data = synthdata::GeneratorConfig::new(seed).generate(&spec);
    let config = HdcConfig::builder()
        .dimension(dim)
        .seed(seed ^ 0xabcd)
        .build()
        .expect("valid config");

    let evaluate = |label: &str,
                    encoded_train: Vec<hypervector::BinaryHypervector>,
                    encoded_test: Vec<hypervector::BinaryHypervector>|
     -> EncoderAblationRow {
        let train_labels: Vec<_> = data.train.iter().map(|s| s.label).collect();
        let test_labels: Vec<_> = data.test.iter().map(|s| s.label).collect();
        let model = TrainedModel::train(&encoded_train, &train_labels, spec.classes, &config);
        let clean = accuracy(&model, &encoded_test, &test_labels);
        let attacked = attack_hdc(&model, 0.10, seed ^ 0x5152);
        let loss = quality_loss(clean, accuracy(&attacked, &encoded_test, &test_labels));
        EncoderAblationRow {
            encoder: label.to_owned(),
            clean_accuracy: clean,
            loss_at_ten_percent: loss,
        }
    };

    let record = RecordEncoder::new(&config, spec.features);
    let projection = RandomProjectionEncoder::new(&config, spec.features, 8);
    vec![
        evaluate(
            "record-binding",
            data.train
                .iter()
                .map(|s| record.encode(&s.features))
                .collect(),
            data.test
                .iter()
                .map(|s| record.encode(&s.features))
                .collect(),
        ),
        evaluate(
            "random-projection",
            data.train
                .iter()
                .map(|s| projection.encode(&s.features))
                .collect(),
            data.test
                .iter()
                .map(|s| projection.encode(&s.features))
                .collect(),
        ),
    ]
}

/// One row of the level-codebook ablation.
#[derive(Debug, Clone)]
pub struct LevelAblationRow {
    /// Codebook label.
    pub codebook: String,
    /// Clean test accuracy.
    pub clean_accuracy: f64,
    /// Mean ambient similarity between encodings of *different* classes.
    pub ambient_similarity: f64,
    /// Quality loss after recovery from a 10% diffuse attack.
    pub recovered_loss: f64,
}

/// Level-codebook ablation (DESIGN.md §8 finding 3): the locally-correlated
/// chain vs the classic linear thermometer, measured on ambient
/// correlation and on recovery stability.
pub fn level_ablation(scale: Scale, dim: usize, seed: u64) -> Vec<LevelAblationRow> {
    let spec = scale.apply(&DatasetSpec::ucihar());
    let data = synthdata::GeneratorConfig::new(seed).generate(&spec);
    let config = HdcConfig::builder()
        .dimension(dim)
        .seed(seed ^ 0xabcd)
        .build()
        .expect("valid config");
    let train_labels: Vec<_> = data.train.iter().map(|s| s.label).collect();
    let test_labels: Vec<_> = data.test.iter().map(|s| s.label).collect();

    let evaluate = |codebook: &str, encoder: RecordEncoder| -> LevelAblationRow {
        let encoded_train: Vec<_> = data
            .train
            .iter()
            .map(|s| encoder.encode(&s.features))
            .collect();
        let encoded_test: Vec<_> = data
            .test
            .iter()
            .map(|s| encoder.encode(&s.features))
            .collect();
        let model = TrainedModel::train(&encoded_train, &train_labels, spec.classes, &config);
        let clean = accuracy(&model, &encoded_test, &test_labels);

        // Ambient correlation: encodings of samples from different classes.
        let mut ambient = 0.0;
        let mut pairs = 0.0f64;
        for i in 0..encoded_test.len().min(40) {
            for j in (i + 1)..encoded_test.len().min(40) {
                if test_labels[i] != test_labels[j] {
                    ambient += encoded_test[i].similarity(&encoded_test[j]);
                    pairs += 1.0;
                }
            }
        }

        // Recovery from a 10% diffuse attack at the Table 4 operating point.
        let mut attacked = attack_hdc(&model, 0.10, seed ^ 0x5153);
        let recovery = RecoveryConfig::builder()
            .confidence_threshold(0.45)
            .substitution_rate(0.5)
            .substitution(SubstitutionMode::MajorityCounter { saturation: 3 })
            .seed(seed)
            .build()
            .expect("valid recovery config");
        let mut engine = RecoveryEngine::new(recovery, config.softmax_beta);
        for _ in 0..16 {
            engine.run_stream(&mut attacked, &encoded_test);
        }
        LevelAblationRow {
            codebook: codebook.to_owned(),
            clean_accuracy: clean,
            ambient_similarity: ambient / pairs.max(1.0),
            recovered_loss: quality_loss(clean, accuracy(&attacked, &encoded_test, &test_labels)),
        }
    };

    vec![
        evaluate("local chain", RecordEncoder::new(&config, spec.features)),
        evaluate(
            "linear chain",
            RecordEncoder::with_linear_levels(&config, spec.features),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overwrite_wins_on_concentrated_damage() {
        // DESIGN.md §8 finding 1, measured: against a row burst the
        // paper-literal overwrite repairs a large share of the loss.
        let rows = substitution_ablation(Scale::Quick, 4096, 1);
        assert_eq!(rows.len(), 4);
        let burst_overwrite = rows
            .iter()
            .find(|r| {
                r.pattern == CorruptionPattern::RowBurst && r.mode == SubstitutionMode::Overwrite
            })
            .expect("row exists");
        assert!(
            burst_overwrite.loss_after <= burst_overwrite.loss_before,
            "overwrite must not worsen burst damage: {} -> {}",
            burst_overwrite.loss_before,
            burst_overwrite.loss_after
        );
    }

    #[test]
    fn chunk_ablation_produces_monotone_fault_granularity() {
        let rows = chunk_ablation(Scale::Quick, 2048, 2);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.fault_rate <= 1.0));
    }

    #[test]
    fn linear_chain_has_higher_ambient_correlation() {
        let rows = level_ablation(Scale::Quick, 2048, 4);
        assert_eq!(rows.len(), 2);
        let local = &rows[0];
        let linear = &rows[1];
        assert!(
            linear.ambient_similarity > local.ambient_similarity + 0.03,
            "linear {} vs local {}",
            linear.ambient_similarity,
            local.ambient_similarity
        );
    }

    #[test]
    fn record_encoder_is_at_least_as_accurate_as_projection() {
        let rows = encoder_ablation(Scale::Quick, 2048, 3);
        assert_eq!(rows.len(), 2);
        let record = &rows[0];
        let projection = &rows[1];
        assert!(record.clean_accuracy > 0.8);
        assert!(record.clean_accuracy + 0.05 >= projection.clean_accuracy);
    }
}
