//! Integration tests of the batch job engine through the facade prelude:
//! the bit-identity contract (an N-job batch equals N sequential sampler
//! runs), cooperative cancellation, streaming delivery, and the typed
//! error surface.

use lms::prelude::*;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The benchmark loops batched jobs cycle through (different lengths, so
/// jobs genuinely differ).
const NAMES: [&str; 3] = ["1cex", "5pti", "3pte"];

fn shared_kb() -> Arc<KnowledgeBase> {
    static KB: OnceLock<Arc<KnowledgeBase>> = OnceLock::new();
    Arc::clone(KB.get_or_init(|| KnowledgeBase::build(KnowledgeBaseConfig::fast())))
}

fn shared_engine() -> &'static LoopModelingEngine {
    static ENGINE: OnceLock<LoopModelingEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        LoopModelingEngine::builder(shared_kb())
            .executor(ExecutorConfig::parallel())
            .concurrency(3)
            .build()
            .expect("valid engine config")
    })
}

fn small_config(seed: u64) -> SamplerConfig {
    SamplerConfig::builder()
        .population_size(12)
        .n_complexes(2)
        .iterations(2)
        .seed(seed)
        .build()
        .expect("valid test config")
}

fn job_for(name: &str, seed: u64) -> Job {
    let target = BenchmarkLibrary::standard()
        .target_by_name(name)
        .expect("benchmark target");
    Job::builder(target)
        .config(small_config(seed))
        .seed(seed)
        .build()
        .expect("valid job")
}

/// Run one batch of jobs (cycling through `NAMES`) on `engine` and check
/// each job against `MoscemSampler::run_with_seed` of the same seed on its
/// own executor built from `executor`.
fn assert_batch_matches_sequential(
    engine: &LoopModelingEngine,
    executor: ExecutorConfig,
    seeds: &[u64],
) -> Result<(), TestCaseError> {
    let jobs: Vec<Job> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| job_for(NAMES[i % NAMES.len()], seed))
        .collect();
    let results = engine.submit(jobs).join();
    prop_assert_eq!(results.len(), seeds.len());

    for (i, (result, &seed)) in results.iter().zip(seeds.iter()).enumerate() {
        prop_assert_eq!(result.seed, seed);
        let batched = match &result.outcome {
            Ok(t) => t,
            Err(e) => return Err(TestCaseError::Fail(format!("job {i} failed: {e}"))),
        };
        let target = BenchmarkLibrary::standard()
            .target_by_name(NAMES[i % NAMES.len()])
            .unwrap();
        let sampler =
            MoscemSampler::try_new(target, shared_kb(), small_config(seed)).expect("valid config");
        let reference =
            sampler.run_with_seed(&executor.build().expect("valid executor config"), seed);
        prop_assert_eq!(batched.population.len(), reference.population.len());
        for (a, b) in batched.population.iter().zip(reference.population.iter()) {
            prop_assert_eq!(&a.torsions, &b.torsions);
            prop_assert_eq!(a.scores, b.scores);
            prop_assert_eq!(a.fitness, b.fitness);
            prop_assert_eq!(a.rmsd_to_native, b.rmsd_to_native);
            prop_assert_eq!(a.accepted_moves, b.accepted_moves);
        }
        prop_assert_eq!(batched.acceptance_rate, reference.acceptance_rate);
        prop_assert_eq!(batched.final_temperature, reference.final_temperature);
    }
    Ok(())
}

// The acceptance contract: whatever seeds the jobs carry, running them as
// one concurrent batch produces bit-identical trajectories to running each
// through `MoscemSampler::run_with_seed` on its own.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn batch_is_bit_identical_to_sequential_runs(raw_seeds in prop::collection::vec(0usize..100_000, 4)) {
        let seeds: Vec<u64> = raw_seeds.iter().map(|&s| s as u64).collect();
        assert_batch_matches_sequential(shared_engine(), ExecutorConfig::parallel(), &seeds)?;
    }
}

/// The wide-lane backend on two threads, with two jobs in flight at once:
/// concurrent jobs share the machine but not their closure scratch (and so
/// not their trig rows), so each still equals its sequential run.  Two
/// cases: an unoptimised build runs the wide backend ~25× slower than the
/// parallel one.
#[cfg(feature = "simd")]
fn shared_simd_engine() -> &'static LoopModelingEngine {
    static ENGINE: OnceLock<LoopModelingEngine> = OnceLock::new();
    ENGINE.get_or_init(|| {
        LoopModelingEngine::builder(shared_kb())
            .executor(ExecutorConfig::simd().threads(2))
            .concurrency(2)
            .build()
            .expect("valid engine config")
    })
}

#[cfg(feature = "simd")]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn simd_batch_is_bit_identical_to_sequential_runs(raw_seeds in prop::collection::vec(0usize..100_000, 4)) {
        let seeds: Vec<u64> = raw_seeds.iter().map(|&s| s as u64).collect();
        assert_batch_matches_sequential(
            shared_simd_engine(),
            ExecutorConfig::simd().threads(2),
            &seeds,
        )?;
    }
}

#[test]
fn cancelled_job_stops_while_the_rest_of_the_batch_completes() {
    let engine = LoopModelingEngine::builder(shared_kb())
        .executor(ExecutorConfig::parallel())
        .concurrency(2)
        .build()
        .expect("valid engine config");

    // One job long enough that it cannot finish before the cancel lands
    // (it is stopped at an iteration boundary), plus three normal jobs.
    let marathon_iterations = 50_000;
    let marathon = {
        let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
        Job::builder(target)
            .config(
                SamplerConfig::builder()
                    .population_size(16)
                    .n_complexes(2)
                    .iterations(marathon_iterations)
                    .build()
                    .unwrap(),
            )
            .label("marathon")
            .build()
            .unwrap()
    };
    let mut jobs = vec![marathon];
    jobs.extend(NAMES.iter().enumerate().map(|(i, n)| job_for(n, i as u64)));
    let handle = engine.submit(jobs);
    let marathon_id = handle.job_ids()[0];

    // Wait until the marathon is actually running, then cancel it.
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.progress()[0].status == JobStatus::Queued && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(handle.cancel(marathon_id), "cancel should reach a live job");

    let results = handle.join();
    assert_eq!(results.len(), 4);
    let cancelled = &results[0];
    assert_eq!(cancelled.id, marathon_id);
    assert!(cancelled.is_cancelled());
    match &cancelled.outcome {
        Err(Error::Cancelled {
            completed_iterations,
        }) => assert!(
            *completed_iterations < marathon_iterations,
            "cancelled job claims to have finished all iterations"
        ),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    // Every other job finished normally.
    for result in &results[1..] {
        let trajectory = result.outcome.as_ref().expect("short jobs must complete");
        assert_eq!(trajectory.population.len(), 12);
    }
    // Terminal statuses are reflected in the progress snapshot.
    // (The handle was consumed by join; re-check through a fresh batch.)
}

#[test]
fn results_stream_in_completion_order_with_live_progress() {
    let engine = shared_engine();
    let jobs: Vec<Job> = (0..3).map(|i| job_for(NAMES[i], 400 + i as u64)).collect();
    let mut handle = engine.submit(jobs);
    let mut seen = 0;
    while let Some(result) = handle.next_result() {
        seen += 1;
        assert!(result.outcome.is_ok());
        // Progress snapshots stay coherent while streaming.
        for p in handle.progress() {
            assert!(p.iterations_done <= p.total_iterations);
        }
    }
    assert_eq!(seen, 3);
    assert!(handle.next_result().is_none(), "stream must terminate");
}

#[test]
fn typed_errors_surface_through_the_facade() {
    // Builder rejects impossible configs with a specific variant…
    let err = SamplerConfig::builder()
        .population_size(4)
        .n_complexes(9)
        .build()
        .unwrap_err();
    assert!(matches!(
        err,
        ConfigError::ComplexesExceedPopulation {
            n_complexes: 9,
            population_size: 4
        }
    ));
    // …that displays the offending values and converts into the run error.
    assert!(err.to_string().contains('9'));
    let run_err: Error = err.into();
    assert!(std::error::Error::source(&run_err).is_some());

    // try_new propagates the same typed error instead of panicking.  (The
    // struct is #[non_exhaustive], so the fields stay writable even though
    // literal construction must go through the builder.)
    let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
    let mut cfg = SamplerConfig::default();
    cfg.population_size = 0;
    let err = MoscemSampler::try_new(target, shared_kb(), cfg).unwrap_err();
    assert_eq!(err, ConfigError::ZeroPopulation);
}
