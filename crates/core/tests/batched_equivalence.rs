//! Property tests: the staged population-batched kernel pipeline
//! (`MoscemSampler::run_controlled` / `run_with_seed`) is **bit-identical**
//! to the per-member reference (`MoscemSampler::run_reference_with_seed`),
//! whose candidates come from one fused per-member launch (mutation → CCD
//! → scoring through `Mutator::mutate_into`,
//! `CcdCloser::close_with_scratch` and `MultiScorer::evaluate_with`) while
//! the shared trajectory driver does the rest — across every executor
//! backend (scalar / parallel / SIMD when compiled in), several CCD block
//! widths (lanes in flight), multi-segment populations, both objective
//! modes (3- and 4-objective), the single-objective and weighted-sum
//! baselines, multiple seeds and targets.
//!
//! This is the contract that makes the SoA arena refactor and the pluggable
//! backend API safe: the staged launches (`mutate`, `close`, `rebuild`,
//! `score`) reorganise *execution*, never *computation* — every member
//! draws the same `(member, iteration)` random stream and sees the same
//! floating-point operation sequence as the fused per-member step,
//! whatever backend or block width runs it.  Every new
//! backend must join [`equivalence_executors`] to ship.

use lms_core::{MoscemSampler, ObjectiveMode, SamplerConfig, TrajectoryResult};
use lms_protein::BenchmarkLibrary;
use lms_scoring::{KnowledgeBase, KnowledgeBaseConfig, Objective};
use lms_simt::{Executor, ExecutorConfig};
use std::sync::Arc;

/// The full backend × block-width equivalence matrix.  Every backend the
/// build knows about appears here — adding an executor backend without
/// extending this harness is a bug.
fn equivalence_executors() -> Vec<Executor> {
    #[cfg_attr(not(feature = "simd"), allow(unused_mut))]
    let mut executors = vec![
        ExecutorConfig::scalar().build().unwrap(),
        ExecutorConfig::parallel().build().unwrap(),
        ExecutorConfig::parallel().threads(2).build().unwrap(),
        // Block widths off the default 8: a divisor of the population, a
        // non-divisor (ragged final block), and single-member blocks.
        ExecutorConfig::scalar().ccd_block_width(4).build().unwrap(),
        ExecutorConfig::parallel()
            .threads(2)
            .ccd_block_width(5)
            .build()
            .unwrap(),
        ExecutorConfig::scalar().ccd_block_width(1).build().unwrap(),
    ];
    #[cfg(feature = "simd")]
    {
        executors.push(ExecutorConfig::simd().build().unwrap());
        executors.push(
            ExecutorConfig::simd()
                .threads(2)
                .ccd_block_width(12)
                .build()
                .unwrap(),
        );
        // Widths that leave the lane-major spine rebuild with ragged
        // 4-lane groups (6 = 4+2, 7 = 4+3) so its masked-tail path — the
        // last group repeating a lane — is exercised, not just full
        // groups.
        executors.push(ExecutorConfig::simd().ccd_block_width(6).build().unwrap());
        executors.push(
            ExecutorConfig::simd()
                .threads(2)
                .ccd_block_width(7)
                .build()
                .unwrap(),
        );
    }
    executors
}

/// Label an executor for assertion messages.
fn describe(executor: &Executor) -> String {
    let caps = executor.capabilities();
    format!("{} w={}", caps.name, caps.ccd_block_width)
}

fn fast_kb() -> Arc<KnowledgeBase> {
    KnowledgeBase::build(KnowledgeBaseConfig::fast())
}

fn sampler(name: &str, cfg: SamplerConfig) -> MoscemSampler {
    let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
    MoscemSampler::new(target, fast_kb(), cfg)
}

fn base_config() -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(16)
        .n_complexes(2)
        .iterations(3)
        .snapshot_iterations(vec![0, 2, 3])
        .build()
        .expect("valid test config")
}

/// Bitwise equality of everything the sampling computation determines
/// (timings and profiler rows are measurements and excluded).
fn assert_bit_identical(batched: &TrajectoryResult, reference: &TrajectoryResult, label: &str) {
    assert_eq!(
        batched.population.len(),
        reference.population.len(),
        "{label}: population size"
    );
    for (i, (b, r)) in batched
        .population
        .iter()
        .zip(reference.population.iter())
        .enumerate()
    {
        assert_eq!(b.torsions, r.torsions, "{label}: member {i} torsions");
        assert_eq!(b.scores, r.scores, "{label}: member {i} scores");
        assert_eq!(
            b.fitness.to_bits(),
            r.fitness.to_bits(),
            "{label}: member {i} fitness"
        );
        assert_eq!(
            b.closure_deviation.to_bits(),
            r.closure_deviation.to_bits(),
            "{label}: member {i} closure deviation"
        );
        assert_eq!(
            b.rmsd_to_native.to_bits(),
            r.rmsd_to_native.to_bits(),
            "{label}: member {i} rmsd"
        );
        assert_eq!(
            (b.accepted_moves, b.proposed_moves),
            (r.accepted_moves, r.proposed_moves),
            "{label}: member {i} move counts"
        );
    }
    assert_eq!(
        batched.final_temperature.to_bits(),
        reference.final_temperature.to_bits(),
        "{label}: final temperature"
    );
    assert_eq!(
        batched.acceptance_rate.to_bits(),
        reference.acceptance_rate.to_bits(),
        "{label}: acceptance rate"
    );
    assert_eq!(
        batched.complex_traces, reference.complex_traces,
        "{label}: complex traces"
    );
    assert_eq!(
        batched.snapshots.len(),
        reference.snapshots.len(),
        "{label}: snapshot count"
    );
    for (b, r) in batched.snapshots.iter().zip(reference.snapshots.iter()) {
        assert_eq!(b.iteration, r.iteration, "{label}: snapshot iteration");
        assert_eq!(
            b.non_dominated_count, r.non_dominated_count,
            "{label}: snapshot front size"
        );
        assert_eq!(b.front, r.front, "{label}: snapshot front");
        assert_eq!(
            b.best_rmsd.to_bits(),
            r.best_rmsd.to_bits(),
            "{label}: snapshot best rmsd"
        );
        assert_eq!(
            b.temperature.to_bits(),
            r.temperature.to_bits(),
            "{label}: snapshot temperature"
        );
    }
}

#[test]
fn batched_pipeline_matches_reference_across_executors_and_seeds() {
    let executors = equivalence_executors();
    for name in ["1cex", "5pti"] {
        let s = sampler(name, base_config());
        for seed in [1u64, 42, 2010] {
            // The reference run itself is executor-invariant; compute it once
            // per seed on the scalar baseline.
            let reference =
                s.run_reference_with_seed(&ExecutorConfig::scalar().build().unwrap(), seed);
            for executor in &executors {
                let batched = s.run_with_seed(executor, seed);
                assert_bit_identical(
                    &batched,
                    &reference,
                    &format!("{name} seed {seed} on {}", describe(executor)),
                );
            }
        }
    }
}

#[test]
fn multi_segment_populations_match_reference() {
    // 200 members span several closure segments (8 blocks of in-flight
    // lanes each): 64 + 64 + 64 + 8 at width 8 and 5 × 40 at width 5, so
    // lanes are refilled across many sweep boundaries, the last segment is
    // ragged at width 8, and dynamic claims hand segments to workers in
    // varying order.
    let cfg = base_config()
        .to_builder()
        .population_size(200)
        .n_complexes(4)
        .iterations(1)
        .snapshot_iterations(vec![1])
        .build()
        .expect("valid multi-segment config");
    let s = sampler("1cex", cfg);
    let reference = s.run_reference_with_seed(&ExecutorConfig::scalar().build().unwrap(), 31);
    for width in [8usize, 5] {
        #[cfg_attr(not(feature = "simd"), allow(unused_mut))]
        let mut configs = vec![
            ExecutorConfig::scalar(),
            ExecutorConfig::parallel().threads(2),
        ];
        #[cfg(feature = "simd")]
        configs.push(ExecutorConfig::simd().threads(2));
        for config in configs {
            let executor = config.ccd_block_width(width).build().unwrap();
            let batched = s.run_with_seed(&executor, 31);
            assert_bit_identical(
                &batched,
                &reference,
                &format!("200 members on {}", describe(&executor)),
            );
        }
    }
}

#[test]
fn batched_pipeline_matches_reference_in_four_objective_mode() {
    let cfg = base_config()
        .to_builder()
        .burial_objective(true)
        .build()
        .expect("valid burial config");
    // 1xyz is the buried target: the burial objective is non-trivial there.
    let s = sampler("1xyz", cfg);
    for seed in [7u64, 99] {
        let reference = s.run_reference_with_seed(&ExecutorConfig::scalar().build().unwrap(), seed);
        #[cfg_attr(not(feature = "simd"), allow(unused_mut))]
        let mut executors = vec![
            ExecutorConfig::scalar().build().unwrap(),
            ExecutorConfig::parallel()
                .threads(2)
                .ccd_block_width(6)
                .build()
                .unwrap(),
        ];
        #[cfg(feature = "simd")]
        executors.push(ExecutorConfig::simd().build().unwrap());
        for executor in executors {
            let batched = s.run_with_seed(&executor, seed);
            assert_bit_identical(
                &batched,
                &reference,
                &format!("burial seed {seed} on {}", describe(&executor)),
            );
        }
        // The burial slot is genuinely active (not reduced to the
        // three-objective pipeline).
        assert!(
            reference
                .population
                .iter()
                .any(|c| c.scores.burial() != 0.0),
            "burial objective inactive on the buried target"
        );
    }
}

#[test]
fn batched_pipeline_matches_reference_in_baseline_objective_modes() {
    for (label, mode) in [
        ("single-vdw", ObjectiveMode::Single(Objective::Vdw)),
        ("single-dist", ObjectiveMode::Single(Objective::Dist)),
        (
            "weighted-sum",
            ObjectiveMode::WeightedSum([0.5, 0.3, 0.2, 0.0]),
        ),
    ] {
        let cfg = base_config()
            .to_builder()
            .objective_mode(mode)
            .build()
            .expect("valid baseline config");
        let s = sampler("1akz", cfg);
        let reference = s.run_reference_with_seed(&ExecutorConfig::scalar().build().unwrap(), 5);
        let batched = s.run_with_seed(&ExecutorConfig::parallel().build().unwrap(), 5);
        assert_bit_identical(&batched, &reference, label);
    }
}

#[test]
fn uniform_random_init_mode_matches_reference() {
    // The init retry rounds (unclosed members redrawing from their own
    // streams) are exercised hardest by uniform-random starts.
    let cfg = base_config()
        .to_builder()
        .init_mode(lms_core::InitMode::UniformRandom)
        .build()
        .expect("valid config");
    let s = sampler("1cex", cfg);
    for seed in [3u64, 11] {
        let reference = s.run_reference_with_seed(&ExecutorConfig::scalar().build().unwrap(), seed);
        let batched = s.run_with_seed(
            &ExecutorConfig::parallel().threads(3).build().unwrap(),
            seed,
        );
        assert_bit_identical(&batched, &reference, &format!("uniform-init seed {seed}"));
    }
}
