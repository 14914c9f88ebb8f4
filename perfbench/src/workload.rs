//! The three workloads: the inputs a seed generates, the set-up, one unit
//! of work through the public entry points, and the output checks.

use crate::report::mean;
use lms::core::Conformation;
use lms::prelude::*;
use lms::protein::standard_specs;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads the load may use (the benchmark host's `nproc`).
pub const THREADS: usize = 2;
/// Lockstep CCD block width of every executor.
pub const BLOCK_WIDTH: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client running 1cex(40:51) trajectories back to back.
    Traj1cex,
    /// One client submitting the 53-loop library as one engine batch.
    Batch53,
    /// 1xyz trajectories in a 100× environment with the burial objective.
    DenseBurial,
}

/// Size of a workload's jobs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub population: usize,
    pub n_complexes: usize,
    pub iterations: usize,
    pub burial: bool,
    /// Environment density multiplier (`lms_bench::scaled_env_target`).
    pub env_factor: usize,
    /// Units whose mean best RMSD is `best_rmsd_a`; every run completes
    /// at least these, so the metric is a pure function of the seed.
    pub quality_units: usize,
    /// Jobs running at once (engine concurrency; 1 for a direct call).
    pub workers: usize,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Traj1cex, Workload::Batch53, Workload::DenseBurial];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Traj1cex => "traj-1cex",
            Workload::Batch53 => "batch-53",
            Workload::DenseBurial => "dense-burial",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn shape(self) -> Shape {
        match self {
            Workload::Traj1cex => Shape {
                population: 1024,
                n_complexes: 8,
                iterations: 10,
                burial: false,
                env_factor: 1,
                quality_units: 12,
                workers: 1,
            },
            Workload::Batch53 => Shape {
                population: 64,
                n_complexes: 1,
                iterations: 8,
                burial: false,
                env_factor: 1,
                quality_units: 2,
                workers: THREADS,
            },
            Workload::DenseBurial => Shape {
                population: 256,
                n_complexes: 2,
                iterations: 10,
                burial: true,
                env_factor: 100,
                quality_units: 24,
                workers: 1,
            },
        }
    }

    /// Library targets the workload samples, by name.
    pub fn target_names(self) -> Vec<&'static str> {
        match self {
            Workload::Traj1cex => vec!["1cex"],
            Workload::Batch53 => standard_specs().iter().map(|s| s.name).collect(),
            Workload::DenseBurial => vec!["1xyz"],
        }
    }
}

/// One job of a unit: which target, which sampler seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobInput {
    pub target: usize,
    pub seed: u64,
}

/// Distinct units a seed generates; a run that outlasts them starts over.
pub const PLAN_UNITS: usize = 128;

/// Everything a seed generates: the jobs of each distinct unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    pub units: Vec<Vec<JobInput>>,
}

/// SplitMix64: the benchmark's seed expander.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The inputs of one run, a pure function of workload and seed.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let n_targets = workload.target_names().len();
    let mut state = seed ^ (workload as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let units = (0..PLAN_UNITS)
        .map(|_| {
            (0..n_targets)
                .map(|target| JobInput {
                    target,
                    seed: splitmix(&mut state),
                })
                .collect()
        })
        .collect();
    Plan { units }
}

/// The built stack a workload runs on.
pub struct Stack {
    pub workload: Workload,
    pub kb: Arc<KnowledgeBase>,
    pub targets: Vec<LoopTarget>,
    pub config: SamplerConfig,
    /// The workload's executor (simd × 2 threads); batch jobs run on
    /// the engine's split of it.
    pub executor: Executor,
    pub engine: Option<LoopModelingEngine>,
    pub samplers: Vec<MoscemSampler>,
}

/// Start and end of each set-up phase.
#[derive(Debug, Clone, Copy)]
pub struct SetupPhases {
    pub kb_build: (Instant, Instant),
    pub targets: (Instant, Instant),
    pub env_scale: (Instant, Instant),
    pub engine_build: (Instant, Instant),
}

impl SetupPhases {
    pub fn total(&self) -> Duration {
        self.engine_build.1 - self.kb_build.0
    }

    pub fn named(&self) -> [(&'static str, (Instant, Instant)); 4] {
        [
            ("setup.kb_build", self.kb_build),
            ("setup.targets", self.targets),
            ("setup.env_scale", self.env_scale),
            ("setup.engine_build", self.engine_build),
        ]
    }
}

pub fn executor_config(threads: usize) -> ExecutorConfig {
    ExecutorConfig::simd()
        .threads(threads)
        .ccd_block_width(BLOCK_WIDTH)
}

/// Build the stack: knowledge base (default config), targets, environment
/// preparation (density scaling where the workload asks for it, then each
/// target's candidate cache), executor, engine and samplers.
pub fn set_up(workload: Workload) -> Result<(Stack, SetupPhases), String> {
    let shape = workload.shape();
    let t0 = Instant::now();
    let kb = KnowledgeBase::build(KnowledgeBaseConfig::default());
    let t1 = Instant::now();
    let library = BenchmarkLibrary::standard();
    let mut targets = workload
        .target_names()
        .into_iter()
        .map(|name| {
            library
                .target_by_name(name)
                .ok_or_else(|| format!("target {name} is not in the library"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let t2 = Instant::now();
    if shape.env_factor > 1 {
        targets = targets
            .iter()
            .map(|t| lms_bench::scaled_env_target(t, shape.env_factor))
            .collect();
    }
    for t in &targets {
        std::hint::black_box(t.env_candidates().len());
    }
    let t3 = Instant::now();
    let config = SamplerConfig::builder()
        .population_size(shape.population)
        .n_complexes(shape.n_complexes)
        .iterations(shape.iterations)
        .burial_objective(shape.burial)
        .build()
        .map_err(|e| format!("sampler config: {e}"))?;
    let executor = executor_config(THREADS)
        .build()
        .map_err(|e| format!("executor: {e}"))?;
    let (engine, samplers) = if workload == Workload::Batch53 {
        let engine = LoopModelingEngine::builder(Arc::clone(&kb))
            .executor(executor_config(THREADS))
            .concurrency(shape.workers)
            .build()
            .map_err(|e| format!("engine: {e}"))?;
        (Some(engine), Vec::new())
    } else {
        let samplers = targets
            .iter()
            .map(|t| MoscemSampler::try_new(t.clone(), Arc::clone(&kb), config.clone()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("sampler: {e}"))?;
        (None, samplers)
    };
    let t4 = Instant::now();
    let stack = Stack {
        workload,
        kb,
        targets,
        config,
        executor,
        engine,
        samplers,
    };
    let phases = SetupPhases {
        kb_build: (t0, t1),
        targets: (t1, t2),
        env_scale: (t2, t3),
        engine_build: (t3, t4),
    };
    Ok((stack, phases))
}

/// A finished unit's harvest of one job into its own decoy set.
pub struct Harvest {
    pub start: Instant,
    pub end: Instant,
    /// Members handed to `harvest_into`.
    pub offered: usize,
    pub kept: usize,
    pub set: DecoySet,
}

/// One job of a unit, as seen from outside the library.
pub struct JobRun {
    pub input: JobInput,
    /// Call (trajectory) or submission (batch) time.
    pub start: Instant,
    /// Return (trajectory) or arrival in the result stream (batch).
    pub end: Instant,
    pub outcome: Result<TrajectoryResult, Error>,
    pub retries: usize,
    pub harvest: Option<Harvest>,
}

/// One unit of work: a trajectory, or a whole batch.
pub struct UnitRun {
    pub start: Instant,
    pub end: Instant,
    pub jobs: Vec<JobRun>,
}

impl UnitRun {
    pub fn wall(&self) -> Duration {
        self.end - self.start
    }
}

fn harvest(stack: &Stack, trajectory: &TrajectoryResult, index: usize) -> Harvest {
    let mut set = DecoySet::new(stack.config.distinct_threshold_deg)
        .with_max_closure_deviation(stack.config.max_closure_deviation);
    let start = Instant::now();
    let kept = trajectory.harvest_into(&mut set, index);
    Harvest {
        start,
        end: Instant::now(),
        offered: trajectory.population.len(),
        kept,
        set,
    }
}

/// Run one unit through the public entry points: `run_controlled` with
/// empty controls (exactly `run_with_seed`, with the error returned
/// instead of raised) for the trajectory workloads; one
/// `LoopModelingEngine::submit` for the batch, harvesting each result as
/// it streams back.
pub fn run_unit(stack: &Stack, unit: &[JobInput]) -> UnitRun {
    let start = Instant::now();
    let mut jobs = Vec::with_capacity(unit.len());
    if let Some(engine) = &stack.engine {
        let batch: Vec<Job> = unit
            .iter()
            .enumerate()
            .map(|(j, input)| {
                Job::builder(stack.targets[input.target].clone())
                    .config(stack.config.clone())
                    .seed(input.seed)
                    .label(j.to_string())
                    .build()
                    .expect("the set-up config validated")
            })
            .collect();
        for result in engine.submit(batch) {
            let end = Instant::now();
            let j: usize = result.label.parse().expect("labels are job indices");
            let harvest = result.outcome.as_ref().ok().map(|t| harvest(stack, t, j));
            jobs.push(JobRun {
                input: unit[j],
                start,
                end,
                retries: result
                    .attempts
                    .len()
                    .saturating_sub(usize::from(result.outcome.is_err())),
                outcome: result.outcome,
                harvest,
            });
        }
    } else {
        for (j, input) in unit.iter().enumerate() {
            let call = Instant::now();
            let outcome = stack.samplers[input.target].run_controlled(
                &stack.executor,
                input.seed,
                &RunControls::new(),
            );
            let end = Instant::now();
            let harvest = outcome.as_ref().ok().map(|t| harvest(stack, t, j));
            jobs.push(JobRun {
                input: *input,
                start: call,
                end,
                outcome,
                retries: 0,
                harvest,
            });
        }
    }
    UnitRun {
        start,
        end: Instant::now(),
        jobs,
    }
}

/// FNV-1a over the bit patterns of every member's torsions and scores.
pub fn digest(population: &[Conformation]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bits: u64| {
        for b in bits.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for c in population {
        for &a in c.torsions.as_slice() {
            eat(a.to_bits());
        }
        for k in 0..NUM_OBJECTIVES {
            eat(c.scores.component(k).to_bits());
        }
    }
    h
}

/// Why a job failed its checks, or `None` when it passed.
fn job_fault(stack: &Stack, job: &JobRun) -> Option<String> {
    let t = match &job.outcome {
        Ok(t) => t,
        Err(e) => return Some(format!("job error: {e}")),
    };
    if t.population.len() != stack.config.population_size {
        return Some(format!("population of {}", t.population.len()));
    }
    for (i, c) in t.population.iter().enumerate() {
        let finite = c.torsions.as_slice().iter().all(|a| a.is_finite())
            && (0..NUM_OBJECTIVES).all(|k| c.scores.component(k).is_finite())
            && c.rmsd_to_native.is_finite();
        if !finite {
            return Some(format!("member {i} is not finite"));
        }
    }
    let target = &stack.targets[job.input.target];
    let builder = LoopBuilder::default();
    let h = job.harvest.as_ref()?;
    for d in h.set.decoys() {
        let dev = target.closure_deviation(&target.build(&builder, &d.torsions));
        // NaN-aware: a NaN deviation fails the check too.
        if dev.is_nan() || dev > stack.config.max_closure_deviation {
            return Some(format!("decoy closure deviation {dev}"));
        }
    }
    None
}

/// The correctness ledger of one run: every checked job, and the digest
/// each (unit, job) input produced the first time it ran.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failed: usize,
    pub faults: Vec<String>,
    pub digests: BTreeMap<(usize, usize), u64>,
    pub best_rmsd: BTreeMap<(usize, usize), f64>,
}

impl Ledger {
    /// Check every job of a run of distinct unit `u`.
    pub fn check_unit(&mut self, stack: &Stack, u: usize, run: &UnitRun) {
        for job in &run.jobs {
            let j = job.input.target;
            let mut fault = job_fault(stack, job);
            if fault.is_none() {
                let t = job.outcome.as_ref().expect("job_fault checked the outcome");
                fault = self
                    .check_digest(u, j, digest(&t.population), "repeat of the same seed")
                    .err();
                if u < stack.workload.shape().quality_units {
                    self.best_rmsd
                        .entry((u, j))
                        .or_insert_with(|| t.best_rmsd());
                }
            }
            self.record(fault);
        }
        if run.jobs.len() != stack.targets.len() {
            self.record(Some(format!("unit {u} returned {} jobs", run.jobs.len())));
        }
    }

    /// Compare a digest with the first one seen for the same input.
    pub fn check_digest(&mut self, u: usize, j: usize, d: u64, what: &str) -> Result<(), String> {
        match self.digests.get(&(u, j)) {
            Some(&first) if first != d => Err(format!(
                "unit {u} job {j}: digest {d:016x} differs from {first:016x} ({what})"
            )),
            Some(_) => Ok(()),
            None => {
                self.digests.insert((u, j), d);
                Ok(())
            }
        }
    }

    pub fn record(&mut self, fault: Option<String>) {
        self.attempted += 1;
        if let Some(f) = fault {
            self.failed += 1;
            self.faults.push(f);
        }
    }

    /// Mean best RMSD over the quality units' jobs: deterministic per seed.
    pub fn mean_best_rmsd(&self) -> f64 {
        mean(&self.best_rmsd.values().copied().collect::<Vec<_>>())
    }

    /// One digest over all inputs, in input order.
    pub fn combined_digest(&self) -> u64 {
        self.digests.values().fold(0xcbf2_9ce4_8422_2325, |h, d| {
            (h ^ d).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_plans_the_same_inputs() {
        for w in Workload::ALL {
            assert_eq!(plan(w, 7), plan(w, 7));
            assert_ne!(plan(w, 7), plan(w, 8));
            let p = plan(w, 7);
            assert_eq!(p.units.len(), PLAN_UNITS);
            assert!(w.shape().quality_units <= PLAN_UNITS);
            assert!(p.units.iter().all(|u| u.len() == w.target_names().len()));
        }
    }

    #[test]
    fn batch_covers_the_53_loop_library() {
        let names = Workload::Batch53.target_names();
        assert_eq!(names.len(), 53);
        let lens: Vec<usize> = standard_specs().iter().map(|s| s.len).collect();
        assert_eq!(lens.iter().filter(|&&l| l == 10).count(), 27);
        assert_eq!(lens.iter().filter(|&&l| l == 11).count(), 17);
        assert_eq!(lens.iter().filter(|&&l| l == 12).count(), 9);
        assert_eq!(standard_specs().iter().filter(|s| s.buried).count(), 1);
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn the_digest_repeats_for_a_seed_and_changes_with_it() {
        let target = BenchmarkLibrary::standard()
            .target_by_name("1cex")
            .expect("1cex");
        let config = SamplerConfig::builder()
            .population_size(16)
            .n_complexes(1)
            .iterations(2)
            .build()
            .expect("valid config");
        let kb = KnowledgeBase::build(KnowledgeBaseConfig::fast());
        let sampler = MoscemSampler::try_new(target, kb, config).expect("valid sampler");
        let executor = executor_config(THREADS).build().expect("simd executor");
        let run = |seed| digest(&sampler.run_with_seed(&executor, seed).population);
        let seeds = plan(Workload::Traj1cex, 3).units;
        assert_ne!(seeds[0], seeds[1]);
        let (a, b) = (seeds[0][0].seed, seeds[1][0].seed);
        assert_eq!(run(a), run(a));
        assert_ne!(run(a), run(b));
    }
}
