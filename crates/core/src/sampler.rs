//! The MOSCEM multi-scoring-functions loop sampler.
//!
//! This module is the paper's core contribution: a population-based
//! multi-objective MCMC sampler over the loop torsion space.  One sampling
//! *trajectory* follows the paper's pseudo-code:
//!
//! 1. **Initialization** — every population member gets random torsions,
//!    is closed with CCD and scored with the three scoring functions.
//! 2. **Iterations** — fitness assignment (Eq. 1) over the population,
//!    sorting and stride-partition into complexes (host side), then the
//!    per-conformation evolution kernel (mutation → CCD → scoring →
//!    Metropolis against the complex), reassembly, and adaptive temperature
//!    adjustment.
//!
//! The per-conformation work is expressed as kernels over the population and
//! executed by an [`Executor`] — sequentially (the CPU baseline) or
//! data-parallel (the device role) — while every launch is also fed to the
//! analytic device/host [`TimingModel`] so the experiment harness can report
//! the paper's modeled GPU-vs-CPU timings alongside the measured host times.
//!
//! One driver runs every trajectory.  Production candidates come from the
//! staged launches (`mutate`, `close`, `rebuild`, `score`) over the SoA
//! [`PopulationArena`]; the bit-identity oracle
//! [`MoscemSampler::run_reference_with_seed`] swaps in one fused
//! per-member launch (mutation → CCD → scoring) writing the same candidate
//! lanes.  Health, Metropolis, select, fitness, temperature, traces,
//! snapshots and the timing accounting are shared by both.

use crate::arena::{segment_range, MemberSlot, PopulationArena, MAX_CCD_SEGMENT_LEN};
use crate::config::{InitMode, NumericGuard, ObjectiveMode, SamplerConfig};
use crate::conformation::Conformation;
use crate::decoyset::DecoySet;
use crate::error::{ConfigError, Error};
use crate::mutation::Mutator;
use crate::pareto::{fitness_against, non_dominated_indices};
use lms_closure::{CcdCloser, CcdLane};
use lms_geometry::{random_torsion, StreamRngFactory};
use lms_protein::{LoopBuilder, LoopTarget, RamaClass, RamaLibrary, Torsions};
use lms_scoring::{KnowledgeBase, MultiScorer, ScoreVector, ScratchPool};
use lms_simt::{
    Executor, KernelKind, LaunchConfig, Profiler, SharedLanes, TimingModel, TransferKind,
};
use rand::Rng;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative controls threaded through one trajectory run: an optional
/// cancellation flag (checked between iterations), an optional per-iteration
/// progress callback, and an optional [`ScratchPool`] to lease the
/// population's scoring workspaces from (the engine passes its shared pool
/// here so consecutive jobs reuse warm buffers).
///
/// `RunControls::default()` is a no-op: with no controls set,
/// [`MoscemSampler::run_controlled`] behaves exactly like
/// [`MoscemSampler::run_with_seed`], failing only when the config's
/// [`JobLimits`](crate::JobLimits) or [`NumericGuard`] abort the run.
#[derive(Clone, Copy, Default)]
pub struct RunControls<'a> {
    cancel: Option<&'a AtomicBool>,
    progress: Option<&'a (dyn Fn(usize, usize) + Sync)>,
    scratch_pool: Option<&'a ScratchPool>,
}

impl fmt::Debug for RunControls<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunControls")
            .field("cancel", &self.cancel.map(|c| c.load(Ordering::Relaxed)))
            .field("progress", &self.progress.is_some())
            .field("scratch_pool", &self.scratch_pool.is_some())
            .finish()
    }
}

impl<'a> RunControls<'a> {
    /// No controls: equivalent to an unconditional run.
    pub fn new() -> Self {
        RunControls::default()
    }

    /// Observe `flag` between iterations; when it becomes `true` the run
    /// stops and returns [`Error::Cancelled`].
    #[must_use]
    pub fn cancel_flag(mut self, flag: &'a AtomicBool) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Call `f(completed_iterations, total_iterations)` after initialisation
    /// and after every completed iteration.
    #[must_use]
    pub fn progress(mut self, f: &'a (dyn Fn(usize, usize) + Sync)) -> Self {
        self.progress = Some(f);
        self
    }

    /// Lease the population's scoring scratches from `pool` instead of
    /// allocating fresh ones, returning them when the run ends (including
    /// on cancellation).
    #[must_use]
    pub fn scratch_pool(mut self, pool: &'a ScratchPool) -> Self {
        self.scratch_pool = Some(pool);
        self
    }
}

/// Host-measured time spent in each algorithm component, summed over all
/// population members (the quantity behind the paper's Figure 1 pie chart).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ComponentTimes {
    /// Time in CCD loop closure (µs).
    pub ccd_us: f64,
    /// Time in the three scoring-function evaluations (µs).
    pub scoring_us: f64,
    /// Time in fitness assignment (µs).
    pub fitness_us: f64,
    /// Everything else: initialization bookkeeping, sorting, partitioning,
    /// assembling, temperature control (µs).
    pub other_us: f64,
}

impl ComponentTimes {
    /// Total accounted time (µs).
    pub fn total_us(&self) -> f64 {
        self.ccd_us + self.scoring_us + self.fitness_us + self.other_us
    }

    /// Fractions of the total in the order (CCD, scoring, fitness, other).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total_us().max(1e-12);
        [
            self.ccd_us / t,
            self.scoring_us / t,
            self.fitness_us / t,
            self.other_us / t,
        ]
    }
}

/// A snapshot of the population at a chosen iteration (Figure 5 data).
#[derive(Debug, Clone, PartialEq)]
pub struct IterationSnapshot {
    /// Iteration index (0 = the initial population).
    pub iteration: usize,
    /// Number of non-dominated conformations in the population.
    pub non_dominated_count: usize,
    /// `(scores, rmsd_to_native)` of each non-dominated conformation.
    pub front: Vec<(ScoreVector, f64)>,
    /// Best RMSD to native anywhere in the population (Å).
    pub best_rmsd: f64,
    /// Metropolis temperature at the snapshot.
    pub temperature: f64,
}

/// The result of one sampling trajectory.
#[derive(Debug, Clone)]
#[must_use]
pub struct TrajectoryResult {
    /// Final population.
    pub population: Vec<Conformation>,
    /// Snapshots at the configured iterations.
    pub snapshots: Vec<IterationSnapshot>,
    /// Host-measured component times (Figure 1).
    pub component_times: ComponentTimes,
    /// Modeled device time of the whole trajectory (µs) — the "CPU-GPU
    /// implementation" column of Figure 4 / Table I.
    pub modeled_gpu_us: f64,
    /// Modeled single-core CPU time of the whole trajectory (µs) — the
    /// "CPU implementation" column of Figure 4 / Table I.
    pub modeled_cpu_us: f64,
    /// Measured wall-clock duration of the trajectory on the host.
    pub host_wall: Duration,
    /// Final Metropolis temperature.
    pub final_temperature: f64,
    /// Overall acceptance rate across all proposals.
    pub acceptance_rate: f64,
    /// The device profiler with per-kernel and per-memcpy statistics
    /// (Tables II and III).
    pub profiler: Arc<Profiler>,
    /// Per-complex trace of the mean VDW score after every iteration; the
    /// complexes act as parallel chains for convergence diagnostics.
    pub complex_traces: Vec<Vec<f64>>,
}

impl TrajectoryResult {
    /// Number of non-dominated conformations in the final population.
    pub fn non_dominated_count(&self) -> usize {
        let scores: Vec<ScoreVector> = self.population.iter().map(|c| c.scores).collect();
        non_dominated_indices(&scores).len()
    }

    /// Best RMSD to native anywhere in the final population (Å).
    pub fn best_rmsd(&self) -> f64 {
        self.population
            .iter()
            .map(|c| c.rmsd_to_native)
            .fold(f64::INFINITY, f64::min)
    }

    /// Modeled GPU-over-CPU speedup for the trajectory.
    pub fn modeled_speedup(&self) -> f64 {
        self.modeled_cpu_us / self.modeled_gpu_us.max(1e-12)
    }

    /// Harvest this trajectory's distinct non-dominated conformations into a
    /// decoy set, tagging them with `trajectory_index`.
    pub fn harvest_into(&self, set: &mut DecoySet, trajectory_index: usize) -> usize {
        set.harvest_population(&self.population, trajectory_index)
    }

    /// Gelman–Rubin R̂ of the per-complex mean VDW traces — the "MCMC
    /// equilibrium analysis" the paper alludes to.  `None` when the run had
    /// fewer than two complexes or two iterations.
    pub fn gelman_rubin_vdw(&self) -> Option<f64> {
        crate::convergence::gelman_rubin(&self.complex_traces)
    }
}

/// Outcome of the decoy-production protocol (repeated trajectories until
/// the decoy set reaches its target size).
#[derive(Debug)]
#[must_use]
pub struct DecoyProduction {
    /// The accumulated decoy set.
    pub decoys: DecoySet,
    /// Number of trajectories that were run.
    pub trajectories_run: usize,
    /// Per-trajectory results.
    pub trajectories: Vec<TrajectoryResult>,
}

/// Abstract work-unit model of one conformation's kernels on a given target,
/// used to convert measured work into modeled device/CPU time.
#[derive(Debug, Clone, Copy)]
struct WorkModel {
    /// Atom placements per CCD rotation (rebuild of the whole loop).
    ccd_per_rotation: f64,
    /// Scored atom pairs for DIST.
    dist_work: f64,
    /// Examined contacts for VDW.
    vdw_work: f64,
    /// Table lookups for TRIPLET.
    trip_work: f64,
    /// Atom placements of the RMSD / candidate-lane readback.
    rebuild_work: f64,
}

impl WorkModel {
    fn for_target(target: &LoopTarget) -> WorkModel {
        let n = target.n_residues();
        // CCD rebuilds only the suffix from the rotated torsion onward
        // (LoopBuilder::rebuild_from); rotations are spread over the sweep,
        // so the expected rebuild is half the loop's 5 placements/residue.
        let ccd_per_rotation = (n * 5) as f64 * 0.5;
        // DIST: 16 atom-kind pairs per residue pair at separation >= 2.
        let res_pairs_sep2: usize = (2..n).map(|d| n - d).sum();
        let dist_work = (res_pairs_sep2 * 16) as f64;
        // VDW: intra-loop sites plus environment contacts near the loop.
        let centroids = target.sequence.iter().filter(|a| !a.is_glycine()).count();
        let sites = (4 * n + centroids) as f64;
        let env_neighbors: f64 = {
            let atoms = target.native_structure.backbone_atoms();
            let total: usize = atoms
                .iter()
                .map(|a| target.environment.burial_count(*a, 7.0))
                .sum();
            total as f64 / atoms.len().max(1) as f64
        };
        let vdw_work = sites * (sites - 1.0) / 2.0 + sites * env_neighbors;
        WorkModel {
            ccd_per_rotation,
            dist_work,
            vdw_work,
            trip_work: n as f64,
            rebuild_work: (4 * n) as f64,
        }
    }
}

/// The timing accounting of one trajectory: measured host time per
/// algorithm component, the modeled device and single-core CPU totals,
/// and the per-kernel / per-memcpy [`Profiler`] rows.
struct Ledger<'a> {
    timing: &'a TimingModel,
    launch_cfg: LaunchConfig,
    population: usize,
    work: WorkModel,
    profiler: Arc<Profiler>,
    component: ComponentTimes,
    modeled_gpu: f64,
    modeled_cpu: f64,
}

impl<'a> Ledger<'a> {
    fn new(
        timing: &'a TimingModel,
        target: &LoopTarget,
        population: usize,
        threads_per_block: usize,
    ) -> Self {
        Ledger {
            timing,
            launch_cfg: LaunchConfig::with_block_size(population, threads_per_block),
            population,
            work: WorkModel::for_target(target),
            profiler: Arc::new(Profiler::new()),
            component: ComponentTimes::default(),
            modeled_gpu: 0.0,
            modeled_cpu: 0.0,
        }
    }

    /// Record one population-wide kernel launch: modeled device/CPU time
    /// from the work model plus the measured host time.
    fn kernel(&mut self, kind: KernelKind, per_thread_work: f64, host_us: f64) {
        let occ = self.launch_cfg.occupancy(&self.timing.device, kind);
        let gpu_us = self
            .timing
            .kernel_time_us(kind, self.launch_cfg, per_thread_work);
        let cpu_us = self
            .timing
            .cpu_time_us(kind, self.population, per_thread_work);
        let total_work = per_thread_work * self.population as f64;
        self.profiler
            .record_kernel(kind, gpu_us, host_us, total_work, occ);
        self.modeled_gpu += gpu_us;
        self.modeled_cpu += cpu_us;
    }

    /// Record one close launch that applied `rotations` (one entry per
    /// member) in `host_us` of measured CCD time.
    fn close(&mut self, rotations: &[f64], host_us: f64) {
        self.component.ccd_us += host_us;
        let mean = rotations.iter().sum::<f64>() / rotations.len().max(1) as f64;
        let per_thread_work = (mean + 1.0) * self.work.ccd_per_rotation;
        self.kernel(KernelKind::Ccd, per_thread_work, host_us);
    }

    /// Record one modeled host/device memory transfer.
    fn transfer(&self, kind: TransferKind, bytes: usize) {
        self.profiler
            .record_transfer(&self.timing.device, kind, bytes);
    }

    /// Record a [`MoscemSampler::fused_step`] as the staged kernels it
    /// stands in for (`Ccd`, `Rebuild` and the three `Eval` kernels, with
    /// the same modeled work), so both candidate paths feed the same
    /// modeled totals.  The measured CCD time lands on `Ccd`; the measured
    /// scoring time is split across the evaluation kernels in proportion
    /// to their modeled work.
    fn fused(&mut self, rotations: &[f64], lanes: &[FusedLane]) {
        self.close(rotations, lanes.iter().map(|l| l.ccd_us).sum());
        let scoring_us: f64 = lanes.iter().map(|l| l.scoring_us).sum();
        self.component.scoring_us += scoring_us;
        let w = self.work;
        let eval_us = |k: f64| scoring_us * k / (w.vdw_work + w.dist_work + w.trip_work);
        self.kernel(KernelKind::Rebuild, w.rebuild_work, 0.0);
        self.kernel(KernelKind::EvalVdw, w.vdw_work, eval_us(w.vdw_work));
        self.kernel(KernelKind::EvalDist, w.dist_work, eval_us(w.dist_work));
        self.kernel(KernelKind::EvalTrip, w.trip_work, eval_us(w.trip_work));
    }
}

/// How a trajectory's candidates are produced.  Everything else in the
/// driver is shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Candidates {
    /// The production staged launches: `mutate`, `close`, `rebuild`,
    /// `score`.
    Staged,
    /// The per-member reference: one fused launch per phase (see
    /// [`MoscemSampler::fused_step`]).
    Fused,
}

/// What the fused reference step keeps per member beyond the arena lanes:
/// the current torsions as a vector for [`Mutator::mutate_into`], and the
/// member's measured CCD and scoring time.
struct FusedLane {
    current: Torsions,
    ccd_us: f64,
    scoring_us: f64,
}

/// The MOSCEM multi-scoring-functions loop sampler.
#[derive(Debug, Clone)]
pub struct MoscemSampler {
    target: LoopTarget,
    scorer: MultiScorer,
    config: SamplerConfig,
    builder: LoopBuilder,
    mutator: Mutator,
    timing: TimingModel,
}

impl MoscemSampler {
    /// Create a sampler for one target over a pre-built knowledge base,
    /// rejecting invalid configurations with a typed error.
    pub fn try_new(
        target: LoopTarget,
        kb: Arc<KnowledgeBase>,
        config: SamplerConfig,
    ) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(MoscemSampler {
            target,
            scorer: MultiScorer::new(kb).with_burial(config.burial_objective),
            mutator: Mutator::new(config.mutation.clone()),
            config,
            builder: LoopBuilder::default(),
            timing: TimingModel::default(),
        })
    }

    /// Create a sampler for one target over a pre-built knowledge base.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; use
    /// [`MoscemSampler::try_new`] for a `Result`.
    pub fn new(target: LoopTarget, kb: Arc<KnowledgeBase>, config: SamplerConfig) -> Self {
        Self::try_new(target, kb, config).expect("invalid sampler configuration")
    }

    /// The sampling configuration.
    pub fn config(&self) -> &SamplerConfig {
        &self.config
    }

    /// The loop target being sampled.
    pub fn target(&self) -> &LoopTarget {
        &self.target
    }

    /// Replace the timing model (e.g. to model a different device).
    pub fn with_timing_model(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Run one sampling trajectory with the configured seed.
    pub fn run(&self, executor: &Executor) -> TrajectoryResult {
        self.run_with_seed(executor, self.config.seed)
    }

    /// Run one sampling trajectory with an explicit seed (used when
    /// repeating trajectories to fill a decoy set).
    ///
    /// # Panics
    ///
    /// With default [`JobLimits`](crate::JobLimits) and
    /// [`NumericGuard`] settings this cannot fail;
    /// when the config sets limits or the guard aborts the run, the typed
    /// error surfaces as a panic here — use
    /// [`MoscemSampler::run_controlled`] to handle those errors.
    pub fn run_with_seed(&self, executor: &Executor, seed: u64) -> TrajectoryResult {
        self.run_controlled(executor, seed, &RunControls::new())
            .expect("a run without controls can only fail when JobLimits or NumericGuard abort it")
    }

    /// Run one sampling trajectory through the **per-member reference
    /// arithmetic**: each iteration's candidates come from one fused launch
    /// in which every member runs mutation → CCD → scoring back to back
    /// through the independent per-member routines
    /// ([`Mutator::mutate_into`], [`CcdCloser::close_with_scratch`],
    /// [`MultiScorer::evaluate_with`]), instead of the staged launches.
    /// The rest of the trajectory runs through the same driver as
    /// [`MoscemSampler::run_controlled`].
    ///
    /// The production path is the staged pipeline; this reference is kept
    /// because the per-(member, iteration) RNG stream discipline makes the
    /// two **bit-identical**, which the batched-pipeline equivalence tests
    /// (`tests/batched_equivalence.rs`) verify against it.
    ///
    /// # Panics
    ///
    /// As [`MoscemSampler::run_with_seed`].
    pub fn run_reference_with_seed(&self, executor: &Executor, seed: u64) -> TrajectoryResult {
        self.drive(executor, seed, &RunControls::new(), Candidates::Fused)
            .expect("a run without controls can only fail when JobLimits or NumericGuard abort it")
    }

    /// Run one sampling trajectory under cooperative [`RunControls`]
    /// through the **staged population-batched kernel pipeline**: all member
    /// state lives in the flat SoA [`PopulationArena`] and every iteration
    /// issues one population-wide kernel launch per stage — `mutate`
    /// ([`KernelKind::Reproduction`]), `close` ([`KernelKind::Ccd`],
    /// segments of lockstep lanes in flight, refilled as lanes converge,
    /// with batched optimal-rotation inner products),
    /// `rebuild` ([`KernelKind::Rebuild`], observable readback), `score`
    /// (one launch per objective kernel), `metropolis` and `select` — via
    /// [`Executor::launch`], exactly the paper's device execution shape.
    ///
    /// Because every conformation draws all randomness from its own
    /// `(member, iteration)` stream, the staged pipeline is
    /// **bit-identical** to the per-member reference arithmetic
    /// ([`MoscemSampler::run_reference_with_seed`]); the equivalence is
    /// property-tested across executors and objective modes in
    /// `tests/batched_equivalence.rs`.  With empty controls this is exactly
    /// [`MoscemSampler::run_with_seed`] — the controls never touch the
    /// random streams.
    ///
    /// After the first iteration warms the arena up, a whole staged
    /// iteration performs no heap allocation (`tests/zero_alloc.rs`).
    pub fn run_controlled(
        &self,
        executor: &Executor,
        seed: u64,
        controls: &RunControls,
    ) -> Result<TrajectoryResult, Error> {
        self.drive(executor, seed, controls, Candidates::Staged)
    }

    /// The trajectory driver behind [`MoscemSampler::run_controlled`] and
    /// [`MoscemSampler::run_reference_with_seed`]; `candidates` picks how
    /// each phase's candidate lanes are produced.
    fn drive(
        &self,
        executor: &Executor,
        seed: u64,
        controls: &RunControls,
        candidates: Candidates,
    ) -> Result<TrajectoryResult, Error> {
        let fused = candidates == Candidates::Fused;
        let cfg = &self.config;
        let n = cfg.population_size;
        let n_res = self.target.n_residues();
        let classes: Vec<RamaClass> = self
            .target
            .sequence
            .iter()
            .map(|aa| aa.rama_class())
            .collect();
        let factory = StreamRngFactory::new(seed);
        let capabilities = executor.capabilities();
        let mut ledger = Ledger::new(&self.timing, &self.target, n, cfg.threads_per_block);
        ledger.profiler.set_executor(capabilities);
        // A backend reporting wide lanes gets the explicit wide-f64 CCD and
        // VDW kernels — bit-identical to the scalar loops, so this flips
        // only the instruction mix, never the trajectory.  The backend's
        // block width is the number of CCD lanes kept in flight.  The fused
        // reference keeps the scalar kernels.
        let wide = !fused && capabilities.lane_width > 1;
        let closer = CcdCloser::new(self.builder, cfg.ccd)
            .with_wide_lanes(wide)
            .with_lanes_in_flight(executor.ccd_block_width());
        let scorer = self.scorer.clone().with_wide_lanes(wide);

        let wall_start = Instant::now();
        let limits = cfg.limits;
        let deadline = limits.deadline.map(|d| (wall_start + d, d));
        let mut stall_streak = 0usize;
        let mut snapshots = Vec::new();
        let mut total_proposed = 0usize;
        let mut total_accepted = 0usize;

        // --- Stage the pre-calculated data onto the device (texture /
        // constant memory), as the paper does at program start. ------------
        let kb_bytes = 27 * 36 * 36 * 4 + 16 * 3 * 32 * 4;
        for _ in 0..8 {
            ledger.transfer(TransferKind::HtoA, kb_bytes / 8);
        }
        ledger.transfer(TransferKind::HtoA, self.target.environment.len() * 16);
        ledger.transfer(TransferKind::HtoA, n_res * 8);
        ledger.transfer(TransferKind::HtoD, n * 2 * n_res * 4);

        if let Some(e) = Self::interruption(controls, deadline, 0) {
            return Err(e);
        }
        // Warm the per-target environment-candidate cache on the host thread
        // before the population kernels fan out, then allocate the arena —
        // the only allocations of the whole trajectory.
        self.target.env_candidates();
        let mut arena = PopulationArena::new(
            n,
            n_res,
            cfg.mutation.max_mutations,
            cfg.n_complexes,
            controls.scratch_pool,
            executor.ccd_block_width(),
        );
        let stride = arena.stride();
        let mut fused_lanes: Vec<FusedLane> = if fused {
            (0..n)
                .map(|_| FusedLane {
                    current: Torsions::zeros(n_res),
                    ccd_us: 0.0,
                    scoring_us: 0.0,
                })
                .collect()
        } else {
            Vec::new()
        };

        // --- Initialization: sample, close and score the whole population.
        let init_factory = factory.derive(0xC0);
        let rama = RamaLibrary::default();
        let init_mode = cfg.init_mode;
        let max_closure = cfg.max_closure_deviation;
        let mutate_work = cfg.mutation.max_mutations as f64 * 5.0;

        if fused {
            self.fused_step(
                executor,
                &mut arena,
                &mut fused_lanes,
                &closer,
                &classes,
                &rama,
                &init_factory,
                0,
            );
            ledger.fused(&arena.ccd_rotations, &fused_lanes);
        } else {
            // Staged sample/close rounds over the whole population, then the
            // rebuild/score kernels.
            arena.segment_ccd_us.iter_mut().for_each(|t| *t = 0.0);
            for round in 0..4usize {
                // The loop-closure condition gates everything downstream; a
                // member redraws (deterministically from its own stream)
                // while CCD stalls above the bound, up to three times — the
                // fused step's retry discipline, expressed as masked
                // population-wide rounds.
                if round > 0 && arena.cand_closure_dev.iter().all(|&d| d <= max_closure) {
                    break;
                }
                {
                    let slots = SharedLanes::new(&mut arena.slots);
                    let rngs = SharedLanes::new(&mut arena.rngs);
                    let devs = &arena.cand_closure_dev;
                    let sample = executor.launch(KernelKind::Reproduction, n, |i| {
                        if round > 0 && devs[i] <= max_closure {
                            return;
                        }
                        // SAFETY: kernel i touches only member i's slot/stream.
                        let slot = unsafe { slots.item_mut(i) };
                        let rng = unsafe { rngs.item_mut(i) };
                        if round == 0 {
                            *rng = init_factory.stream(i as u64, 0);
                        }
                        sample_initial_torsions(init_mode, &classes, &rama, &mut slot.cand, rng);
                        #[cfg(feature = "fault-injection")]
                        if lms_simt::fault::take_nan() {
                            slot.cand.set_angle(0, f64::NAN);
                        }
                    });
                    // The fused step times redraw sampling inside its CCD
                    // span; mirror that attribution.
                    if round == 0 {
                        ledger.component.other_us += sample.host_us();
                    } else {
                        ledger.component.ccd_us += sample.host_us();
                    }
                }
                self.stage_close(
                    executor,
                    &mut arena,
                    &closer,
                    if round > 0 { Some(max_closure) } else { None },
                    Some(cfg.ccd.start_index),
                    true,
                );
            }
            ledger.close(&arena.ccd_rotations, arena.segment_ccd_us.iter().sum());
            self.stage_rebuild_and_score(executor, &mut arena, &scorer, &mut ledger);
        }
        // Numerical health sweep over the freshly scored candidates before
        // they become the population.
        if let Err(e) = self.stage_health(executor, &mut arena, 0, &mut ledger) {
            arena.release_scratches(controls.scratch_pool);
            return Err(e);
        }
        // Initialization writes the population: the closed, scored
        // candidates become the members' current state.
        arena.torsions.copy_from_slice(&arena.cand_torsions);
        arena.scores.copy_from_slice(&arena.cand_scores);
        arena.closure_dev.copy_from_slice(&arena.cand_closure_dev);
        arena.rmsd.copy_from_slice(&arena.cand_rmsd);

        // --- Initial fitness + snapshot 0 ----------------------------------
        let mut temperature_controller = cfg.effective_temperature_schedule().controller();
        let mut temperature = temperature_controller.temperature();
        let mut schedule_rng = factory.derive(0xA7).stream(0, 0);
        // `vec![v; n]` clones would drop the reserved capacity — build each
        // trace buffer explicitly so steady-state pushes never reallocate.
        let mut complex_traces: Vec<Vec<f64>> = (0..cfg.n_complexes)
            .map(|_| Vec::with_capacity(cfg.iterations))
            .collect();
        self.stage_fitness(executor, &mut arena, &mut ledger);
        if cfg.snapshot_iterations.contains(&0) {
            snapshots.push(self.snapshot_arena(0, &arena, temperature));
        }
        if let Some(report) = controls.progress {
            report(0, cfg.iterations);
        }

        // --- MCMC iterations ------------------------------------------------
        let evo_factory = factory.derive(1);
        let mode = cfg.objective_mode;
        let m_complexes = cfg.n_complexes;
        let complex_work = 2.0 * cfg.complex_size() as f64 * cfg.active_objectives() as f64;
        for iter in 1..=cfg.iterations {
            if let Some(e) = Self::interruption(controls, deadline, iter - 1) {
                arena.release_scratches(controls.scratch_pool);
                return Err(e);
            }
            let other_start = Instant::now();
            // Sorting (best fitness first) and stride partition into
            // complexes stay on the host, writing the arena's reusable
            // order / CSR-partition buffers.  The unstable sort breaks
            // fitness ties by member index, which is a stable sort's
            // permutation.
            {
                let (order, fitness) = (&mut arena.order, &arena.fitness);
                order.clear();
                order.extend(0..n);
                order.sort_unstable_by(|&a, &b| {
                    fitness[a]
                        .partial_cmp(&fitness[b])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
            for (pos, &idx) in arena.order.iter().enumerate() {
                let c = pos % m_complexes;
                arena.complex_of[idx] = c;
                arena.complex_scores[arena.complex_offsets[c] + pos / m_complexes] =
                    arena.scores[idx];
            }
            ledger.component.other_us += other_start.elapsed().as_secs_f64() * 1e6;

            if fused {
                // The fused reference step: mutate, close and score every
                // member back to back in one launch.
                self.fused_step(
                    executor,
                    &mut arena,
                    &mut fused_lanes,
                    &closer,
                    &classes,
                    &rama,
                    &evo_factory,
                    iter,
                );
                ledger.kernel(KernelKind::Reproduction, mutate_work, 0.0);
                ledger.fused(&arena.ccd_rotations, &fused_lanes);
            } else {
                // Stage 1 — mutate: seed the (member, iteration) stream, load
                // the member's torsion lane and propose a candidate.
                {
                    let slots = SharedLanes::new(&mut arena.slots);
                    let rngs = SharedLanes::new(&mut arena.rngs);
                    let starts = SharedLanes::new(&mut arena.ccd_start);
                    let cur = &arena.torsions;
                    let mutate = executor.launch(KernelKind::Reproduction, n, |i| {
                        // SAFETY: kernel i touches only member i's lanes.
                        let slot = unsafe { slots.item_mut(i) };
                        let rng = unsafe { rngs.item_mut(i) };
                        *rng = evo_factory.stream(i as u64, iter as u64);
                        slot.cand.copy_from_flat(&cur[i * stride..(i + 1) * stride]);
                        let start = self.mutator.mutate_in_place(
                            &mut slot.cand,
                            &classes,
                            rng,
                            &mut slot.mut_indices,
                        );
                        *unsafe { starts.item_mut(i) } = start;
                        #[cfg(feature = "fault-injection")]
                        if lms_simt::fault::take_nan() {
                            slot.cand.set_angle(0, f64::NAN);
                        }
                    });
                    ledger.component.other_us += mutate.host_us();
                    ledger.kernel(KernelKind::Reproduction, mutate_work, mutate.host_us());
                }

                // Stage 2 — close: CCD segments, each keeping one block of
                // lanes in flight with batched optimal-rotation inner products.
                self.stage_close(executor, &mut arena, &closer, None, None, false);
                ledger.close(&arena.ccd_rotations, arena.segment_ccd_us.iter().sum());
            }
            // Closure stall guard: a streak of iterations in which not a
            // single member's CCD converged means the sampler is burning
            // its budget without making progress.
            if let Some(limit) = limits.max_closure_stall {
                if arena.cand_converged.iter().any(|&c| c) {
                    stall_streak = 0;
                } else {
                    stall_streak += 1;
                    if stall_streak >= limit {
                        arena.release_scratches(controls.scratch_pool);
                        return Err(Error::Stalled {
                            streak: stall_streak,
                            limit,
                            completed_iterations: iter - 1,
                        });
                    }
                }
            }

            // Stages 3 + 4 — rebuild (observable readback) and the three
            // scoring kernels, one population-wide launch each.
            if !fused {
                self.stage_rebuild_and_score(executor, &mut arena, &scorer, &mut ledger);
            }

            // Numerical health sweep: poisoned candidates are quarantined
            // (force-rejected without touching the member's stream) or fail
            // the job, per the configured guard policy — before the
            // Metropolis stage can let NaN into the population.
            if let Err(e) = self.stage_health(executor, &mut arena, iter, &mut ledger) {
                arena.release_scratches(controls.scratch_pool);
                return Err(e);
            }

            // Stage 5 — Metropolis against the member's complex snapshot,
            // on the stream the mutate stage advanced.
            {
                let rngs = SharedLanes::new(&mut arena.rngs);
                let accepted = SharedLanes::new(&mut arena.accepted);
                let scores = &arena.scores;
                let cand_scores = &arena.cand_scores;
                let cand_dev = &arena.cand_closure_dev;
                let complex_of = &arena.complex_of;
                let complex_scores = &arena.complex_scores;
                let offsets = &arena.complex_offsets;
                let temperature_now = temperature;
                let met = executor.launch(KernelKind::Metropolis, n, |i| {
                    // Candidates that CCD could not bring back to the anchor
                    // are rejected outright (an open loop scores deceptively
                    // well by drifting off the protein).
                    let accept = if cand_dev[i] > max_closure {
                        false
                    } else {
                        let c = complex_of[i];
                        let reference = &complex_scores[offsets[c]..offsets[c + 1]];
                        let cand_fit = candidate_fitness(mode, &cand_scores[i], reference);
                        let curr_fit = candidate_fitness(mode, &scores[i], reference);
                        if cand_fit <= curr_fit {
                            true
                        } else {
                            let p = ((curr_fit - cand_fit) / temperature_now).exp();
                            // SAFETY: kernel i touches only member i's stream.
                            unsafe { rngs.item_mut(i) }.gen::<f64>() < p
                        }
                    };
                    *unsafe { accepted.item_mut(i) } = accept;
                });
                ledger.component.other_us += met.host_us();
                ledger.kernel(KernelKind::Metropolis, 2.0, met.host_us());
                ledger.kernel(KernelKind::FitAssgComplex, complex_work, 0.0);
            }

            // Stage 6 — select: accepted candidates overwrite their
            // members' lanes.
            {
                let cur = SharedLanes::new(&mut arena.torsions);
                let scores = SharedLanes::new(&mut arena.scores);
                let devs = SharedLanes::new(&mut arena.closure_dev);
                let rmsds = SharedLanes::new(&mut arena.rmsd);
                let proposed = SharedLanes::new(&mut arena.proposed_moves);
                let accepted_moves = SharedLanes::new(&mut arena.accepted_moves);
                let accepted = &arena.accepted;
                let cand = &arena.cand_torsions;
                let cand_scores = &arena.cand_scores;
                let cand_dev = &arena.cand_closure_dev;
                let cand_rmsd = &arena.cand_rmsd;
                let select = executor.launch(KernelKind::Select, n, |i| {
                    // SAFETY: kernel i touches only member i's lanes.
                    *unsafe { proposed.item_mut(i) } += 1;
                    if accepted[i] {
                        unsafe { cur.lane_mut(i * stride, stride) }
                            .copy_from_slice(&cand[i * stride..(i + 1) * stride]);
                        *unsafe { scores.item_mut(i) } = cand_scores[i];
                        *unsafe { devs.item_mut(i) } = cand_dev[i];
                        *unsafe { rmsds.item_mut(i) } = cand_rmsd[i];
                        *unsafe { accepted_moves.item_mut(i) } += 1;
                    }
                });
                ledger.component.other_us += select.host_us();
                ledger.kernel(KernelKind::Select, stride as f64, select.host_us());
            }

            // Acceptance statistics and adaptive temperature.
            let other_start = Instant::now();
            let accepted_now = arena.accepted.iter().filter(|&&a| a).count();
            total_accepted += accepted_now;
            total_proposed += n;
            let rate = accepted_now as f64 / n as f64;
            temperature = temperature_controller.update(rate, &mut schedule_rng);

            // Per-complex mean VDW trace for convergence diagnostics.
            for s in arena.trace_sums.iter_mut() {
                *s = (0.0, 0);
            }
            for i in 0..n {
                let c = arena.complex_of[i];
                arena.trace_sums[c].0 += arena.scores[i].vdw();
                arena.trace_sums[c].1 += 1;
            }
            for (c, &(sum, count)) in arena.trace_sums.iter().enumerate() {
                complex_traces[c].push(if count == 0 { 0.0 } else { sum / count as f64 });
            }

            // Per-iteration host/device traffic mirroring the paper's
            // Table II memcpy pattern.
            let conf_bytes = n * 2 * n_res * 4;
            let score_bytes = n * cfg.active_objectives() * 4;
            for _ in 0..5 {
                ledger.transfer(TransferKind::HtoD, 64);
            }
            ledger.transfer(TransferKind::DtoA, conf_bytes);
            ledger.transfer(TransferKind::DtoA, score_bytes);
            for _ in 0..7 {
                ledger.transfer(TransferKind::DtoH, score_bytes);
            }
            for _ in 0..3 {
                ledger.transfer(TransferKind::DtoD, score_bytes);
            }
            ledger.component.other_us += other_start.elapsed().as_secs_f64() * 1e6;

            // Population-wide fitness for the next iteration's sorting.
            self.stage_fitness(executor, &mut arena, &mut ledger);

            if cfg.snapshot_iterations.contains(&iter) {
                snapshots.push(self.snapshot_arena(iter, &arena, temperature));
            }
            if let Some(report) = controls.progress {
                report(iter, cfg.iterations);
            }
        }

        // Include modeled transfer time in the GPU total.
        let transfer_us: f64 = ledger
            .profiler
            .transfer_stats()
            .values()
            .map(|t| t.device_us)
            .sum();

        arena.release_scratches(controls.scratch_pool);
        Ok(TrajectoryResult {
            population: arena.into_population(),
            snapshots,
            component_times: ledger.component,
            modeled_gpu_us: ledger.modeled_gpu + transfer_us,
            modeled_cpu_us: ledger.modeled_cpu,
            host_wall: wall_start.elapsed(),
            final_temperature: temperature,
            acceptance_rate: if total_proposed == 0 {
                0.0
            } else {
                total_accepted as f64 / total_proposed as f64
            },
            profiler: ledger.profiler,
            complex_traces,
        })
    }

    /// The staged `close` kernel: one launch over the arena's closure
    /// segments.  Each segment hands up to
    /// [`segment_len`](PopulationArena::segment_len) queued members to one
    /// `close_batch` call, which keeps the executor backend's reported
    /// [`ccd_block_width`](PopulationArena::ccd_block_width) of them in
    /// flight and refills converged lanes from the rest of the segment.
    ///
    /// `mask_above` restricts the queue to members whose candidate closure
    /// deviation still exceeds the bound (the init retry rounds), packed
    /// into the leading segments; `start_override` forces one CCD start
    /// index for every lane (init) instead of the per-member mutated index;
    /// `accumulate` adds rotations and segment times onto the arena's
    /// counters instead of overwriting them (init rounds share one recorded
    /// kernel).
    fn stage_close(
        &self,
        executor: &Executor,
        arena: &mut PopulationArena,
        closer: &CcdCloser,
        mask_above: Option<f64>,
        start_override: Option<usize>,
        accumulate: bool,
    ) {
        let n = arena.n_members();
        let n_segments = arena.n_segments();
        let segment_len = arena.segment_len();
        // The stack staging below relies on this bound for soundness.
        assert!(segment_len <= MAX_CCD_SEGMENT_LEN);
        if !accumulate {
            arena.segment_ccd_us.iter_mut().for_each(|t| *t = 0.0);
        }
        arena.ccd_queue.clear();
        let devs = &arena.cand_closure_dev;
        arena
            .ccd_queue
            .extend((0..n).filter(|&i| mask_above.is_none_or(|bound| devs[i] > bound)));
        let slots = SharedLanes::new(&mut arena.slots);
        let segments = SharedLanes::new(&mut arena.ccd_segments);
        let segment_us = SharedLanes::new(&mut arena.segment_ccd_us);
        let devs = SharedLanes::new(&mut arena.cand_closure_dev);
        let rotations = SharedLanes::new(&mut arena.ccd_rotations);
        let converged = SharedLanes::new(&mut arena.cand_converged);
        let starts = &arena.ccd_start;
        let queue = &arena.ccd_queue;
        let _ = executor.launch(KernelKind::Ccd, n_segments, |s| {
            let members = &queue[segment_range(s, segment_len, queue.len())];
            if members.is_empty() {
                return;
            }
            let t = Instant::now();
            // SAFETY: kernel s touches only segment s's scratch and the
            // slots/lanes of the members at its queue positions; the queue
            // holds each member at most once.
            let scratch = unsafe { segments.item_mut(s) };
            // Stack staging is sized for the longest configurable segment
            // (ExecutorConfig validation caps the block width at
            // MAX_CCD_BLOCK_WIDTH); only the first `members.len()` entries
            // are ever touched.
            let mut store: [MaybeUninit<CcdLane>; MAX_CCD_SEGMENT_LEN] =
                [const { MaybeUninit::uninit() }; MAX_CCD_SEGMENT_LEN];
            for (entry, &i) in store.iter_mut().zip(members) {
                let MemberSlot {
                    cand, structure, ..
                } = unsafe { slots.item_mut(i) };
                *entry = MaybeUninit::new(CcdLane {
                    torsions: cand,
                    structure,
                    start_index: start_override.unwrap_or(starts[i]),
                });
            }
            // SAFETY: the first `members.len()` entries are initialised, and
            // `CcdLane` holds only references (no Drop obligations).
            let lanes = unsafe {
                std::slice::from_raw_parts_mut(store.as_mut_ptr().cast::<CcdLane>(), members.len())
            };
            closer.close_batch(&self.target.frame, &self.target.sequence, lanes, scratch);
            for (res, &i) in scratch.results().iter().zip(members) {
                *unsafe { devs.item_mut(i) } = res.final_deviation;
                *unsafe { converged.item_mut(i) } = res.converged;
                let r = unsafe { rotations.item_mut(i) };
                if accumulate {
                    *r += res.rotations_applied as f64;
                } else {
                    *r = res.rotations_applied as f64;
                }
            }
            #[cfg(feature = "fault-injection")]
            if lms_simt::fault::take_nan() {
                *unsafe { devs.item_mut(members[0]) } = f64::NAN;
            }
            *unsafe { segment_us.item_mut(s) } += t.elapsed().as_secs_f64() * 1e6;
        });
    }

    /// The staged `rebuild` and `score` kernels: observable readback (RMSD
    /// to native, candidate-lane writeback) followed by one population-wide
    /// launch per objective kernel, each recorded with its own measured
    /// host time.  The VDW kernel stages the shared Cα table (and, with the
    /// burial objective on, the contact counts) its successors consume from
    /// the member's scratch.
    fn stage_rebuild_and_score(
        &self,
        executor: &Executor,
        arena: &mut PopulationArena,
        scorer: &MultiScorer,
        ledger: &mut Ledger,
    ) {
        let n = arena.n_members();
        let stride = arena.stride();
        // Rebuild: RMSD observable + candidate torsion lane readback.
        {
            let slots = SharedLanes::new(&mut arena.slots);
            let rmsds = SharedLanes::new(&mut arena.cand_rmsd);
            let cand_flat = SharedLanes::new(&mut arena.cand_torsions);
            let times = SharedLanes::new(&mut arena.stage_us);
            let _ = executor.launch(KernelKind::Rebuild, n, |i| {
                let t = Instant::now();
                // SAFETY: kernel i touches only member i's slot and lanes.
                let slot = unsafe { slots.item_mut(i) };
                *unsafe { rmsds.item_mut(i) } = self.target.rmsd_to_native(&slot.structure);
                unsafe { cand_flat.lane_mut(i * stride, stride) }
                    .copy_from_slice(slot.cand.as_slice());
                #[cfg(feature = "fault-injection")]
                if lms_simt::fault::take_nan() {
                    *unsafe { rmsds.item_mut(i) } = f64::NAN;
                }
                *unsafe { times.item_mut(i) } = t.elapsed().as_secs_f64() * 1e6;
            });
        }
        let rebuild_us: f64 = arena.stage_us.iter().sum();
        ledger.component.scoring_us += rebuild_us;
        ledger.kernel(KernelKind::Rebuild, ledger.work.rebuild_work, rebuild_us);

        // Score: one launch per objective kernel in canonical order.
        for (kind, per_thread_work) in [
            (KernelKind::EvalVdw, ledger.work.vdw_work),
            (KernelKind::EvalDist, ledger.work.dist_work),
            (KernelKind::EvalTrip, ledger.work.trip_work),
        ] {
            {
                let slots = SharedLanes::new(&mut arena.slots);
                let outs = SharedLanes::new(&mut arena.cand_scores);
                let times = SharedLanes::new(&mut arena.stage_us);
                let _ = executor.launch(kind, n, |i| {
                    let t = Instant::now();
                    // SAFETY: kernel i touches only member i's slot/lanes.
                    let slot = unsafe { slots.item_mut(i) };
                    let MemberSlot {
                        structure,
                        scratch,
                        cand,
                        ..
                    } = slot;
                    let sv = unsafe { outs.item_mut(i) };
                    let mut a = sv.as_array();
                    match kind {
                        KernelKind::EvalVdw => {
                            let (vdw, burial) = scorer.vdw_pass(&self.target, structure, scratch);
                            a[0] = vdw;
                            a[3] = burial;
                        }
                        KernelKind::EvalDist => {
                            a[1] = scorer.dist_pass(&self.target, structure, scratch);
                        }
                        KernelKind::EvalTrip => {
                            a[2] = scorer.triplet_pass(&self.target, structure, cand, scratch);
                        }
                        _ => unreachable!("score stage launches only Eval kernels"),
                    }
                    #[cfg(feature = "fault-injection")]
                    if lms_simt::fault::take_nan() {
                        match kind {
                            KernelKind::EvalVdw => a[0] = f64::NAN,
                            KernelKind::EvalDist => a[1] = f64::NAN,
                            _ => a[2] = f64::NAN,
                        }
                    }
                    *sv = ScoreVector::from_array(a);
                    *unsafe { times.item_mut(i) } = t.elapsed().as_secs_f64() * 1e6;
                });
            }
            let kernel_us: f64 = arena.stage_us.iter().sum();
            ledger.component.scoring_us += kernel_us;
            ledger.kernel(kind, per_thread_work, kernel_us);
        }
    }

    /// The per-member reference's candidate step: one launch in which each
    /// member runs its whole candidate chain back to back through the
    /// independent per-member routines — at `iteration` 0 sample →
    /// [`CcdCloser::close_with_scratch`] (redrawing up to three times while
    /// the closure bound is missed), later [`Mutator::mutate_into`] →
    /// `close_with_scratch` — then [`MultiScorer::evaluate_with`] and the
    /// RMSD to native.  It writes the same candidate lanes, rotation counts,
    /// convergence flags and stream state as the staged `mutate`/`close`/
    /// `rebuild`/`score` launches, so the rest of the driver cannot tell
    /// the two apart.
    #[allow(clippy::too_many_arguments)]
    fn fused_step(
        &self,
        executor: &Executor,
        arena: &mut PopulationArena,
        lanes: &mut [FusedLane],
        closer: &CcdCloser,
        classes: &[RamaClass],
        rama: &RamaLibrary,
        factory: &StreamRngFactory,
        iteration: usize,
    ) {
        let cfg = &self.config;
        let (frame, sequence) = (&self.target.frame, &self.target.sequence);
        let n = arena.n_members();
        let stride = arena.stride();
        let slots = SharedLanes::new(&mut arena.slots);
        let fused = SharedLanes::new(lanes);
        let rngs = SharedLanes::new(&mut arena.rngs);
        let cand_flat = SharedLanes::new(&mut arena.cand_torsions);
        let scores = SharedLanes::new(&mut arena.cand_scores);
        let devs = SharedLanes::new(&mut arena.cand_closure_dev);
        let rmsds = SharedLanes::new(&mut arena.cand_rmsd);
        let rotations = SharedLanes::new(&mut arena.ccd_rotations);
        let converged = SharedLanes::new(&mut arena.cand_converged);
        let cur = &arena.torsions;
        let _ = executor.launch(KernelKind::Ccd, n, |i| {
            // SAFETY: kernel i touches only member i's slot, stream and lanes.
            let slot = unsafe { slots.item_mut(i) };
            let lane = unsafe { fused.item_mut(i) };
            let rng = unsafe { rngs.item_mut(i) };
            *rng = factory.stream(i as u64, iteration as u64);
            let start = if iteration == 0 {
                sample_initial_torsions(cfg.init_mode, classes, rama, &mut slot.cand, rng);
                cfg.ccd.start_index
            } else {
                lane.current
                    .copy_from_flat(&cur[i * stride..(i + 1) * stride]);
                self.mutator.mutate_into(
                    &lane.current,
                    classes,
                    rng,
                    &mut slot.cand,
                    &mut slot.mut_indices,
                )
            };
            let t_ccd = Instant::now();
            let mut ccd = closer.close_with_scratch(
                frame,
                sequence,
                &mut slot.cand,
                start,
                &mut slot.structure,
            );
            let mut n_rotations = ccd.rotations_applied;
            // An initial draw that CCD cannot close redraws from the same
            // stream, up to three times.
            let redraws = if iteration == 0 { 3 } else { 0 };
            for _ in 0..redraws {
                if ccd.final_deviation <= cfg.max_closure_deviation {
                    break;
                }
                sample_initial_torsions(cfg.init_mode, classes, rama, &mut slot.cand, rng);
                ccd = closer.close_with_scratch(
                    frame,
                    sequence,
                    &mut slot.cand,
                    start,
                    &mut slot.structure,
                );
                n_rotations += ccd.rotations_applied;
            }
            lane.ccd_us = t_ccd.elapsed().as_secs_f64() * 1e6;

            // CCD leaves the structure built from the final torsions, so
            // scoring needs no rebuild.
            let t_score = Instant::now();
            *unsafe { scores.item_mut(i) } = self.scorer.evaluate_with(
                &self.target,
                &slot.structure,
                &slot.cand,
                &mut slot.scratch,
            );
            *unsafe { rmsds.item_mut(i) } = self.target.rmsd_to_native(&slot.structure);
            lane.scoring_us = t_score.elapsed().as_secs_f64() * 1e6;

            unsafe { cand_flat.lane_mut(i * stride, stride) }.copy_from_slice(slot.cand.as_slice());
            *unsafe { devs.item_mut(i) } = ccd.final_deviation;
            *unsafe { converged.item_mut(i) } = ccd.converged;
            *unsafe { rotations.item_mut(i) } = n_rotations as f64;
        });
    }

    /// Population-wide fitness assignment (Eq. 1) over the arena's score
    /// lanes, executed as two data-parallel passes of the
    /// `[FitAssg] within Population` kernel writing the arena's
    /// strength/front/fitness buffers in place.
    fn stage_fitness(&self, executor: &Executor, arena: &mut PopulationArena, ledger: &mut Ledger) {
        let n = arena.n_members();
        let start = Instant::now();
        match self.config.objective_mode {
            ObjectiveMode::MultiScoring => {
                // Pass 1: strength and non-dominated flag per member.
                {
                    let scores = &arena.scores;
                    let strength = SharedLanes::new(&mut arena.strength);
                    let front = SharedLanes::new(&mut arena.front);
                    let _ = executor.launch(KernelKind::FitAssgPopulation, n, |i| {
                        let si = &scores[i];
                        let dominated = scores.iter().filter(|sj| si.dominates(sj)).count();
                        let is_nd = !scores
                            .iter()
                            .enumerate()
                            .any(|(j, sj)| j != i && sj.dominates(si));
                        // SAFETY: kernel i touches only member i's slots.
                        *unsafe { strength.item_mut(i) } = dominated as f64 / n as f64;
                        *unsafe { front.item_mut(i) } = is_nd;
                    });
                }
                // Pass 2: Eq. 1.
                {
                    let scores = &arena.scores;
                    let strength = &arena.strength;
                    let front = &arena.front;
                    let fitness = SharedLanes::new(&mut arena.fitness);
                    let _ = executor.launch(KernelKind::FitAssgPopulation, n, |i| {
                        let si = &scores[i];
                        let value = if front[i] {
                            strength[i]
                        } else {
                            1.0 + scores
                                .iter()
                                .enumerate()
                                .filter(|(j, sj)| front[*j] && sj.dominates(si))
                                .map(|(j, _)| strength[j])
                                .sum::<f64>()
                        };
                        // SAFETY: kernel i touches only member i's slot.
                        *unsafe { fitness.item_mut(i) } = value;
                    });
                }
            }
            ObjectiveMode::Single(obj) => {
                let scores = &arena.scores;
                let fitness = SharedLanes::new(&mut arena.fitness);
                let _ = executor.launch(KernelKind::FitAssgPopulation, n, |i| {
                    *unsafe { fitness.item_mut(i) } = obj.value(&scores[i]);
                });
            }
            ObjectiveMode::WeightedSum(w) => {
                let scores = &arena.scores;
                let fitness = SharedLanes::new(&mut arena.fitness);
                let _ = executor.launch(KernelKind::FitAssgPopulation, n, |i| {
                    *unsafe { fitness.item_mut(i) } = weighted_sum(&w, &scores[i]);
                });
            }
        }
        let host_us = start.elapsed().as_secs_f64() * 1e6;
        ledger.component.fitness_us += host_us;
        let work_per_thread = 2.0 * n as f64 * self.config.active_objectives() as f64;
        ledger.kernel(KernelKind::FitAssgPopulation, work_per_thread, host_us);
    }

    /// The staged `health` kernel: one population-wide `[HealthSweep]`
    /// launch classifying every member's candidate lanes as finite or
    /// poisoned, followed by the host-side [`NumericGuard`] policy verdict
    /// ([`MoscemSampler::quarantine_or_fail`]).
    ///
    /// The sweep is a robustness stage of this implementation, not a paper
    /// task: it is deliberately *not* recorded into the profiler or the
    /// modeled GPU/CPU totals, which cover only the paper's kernels.  Its
    /// measured host time
    /// lands in [`ComponentTimes::other_us`], and the CI perf gate bounds
    /// it below 3% of a staged iteration.
    fn stage_health(
        &self,
        executor: &Executor,
        arena: &mut PopulationArena,
        iteration: usize,
        ledger: &mut Ledger,
    ) -> Result<(), Error> {
        let n = arena.n_members();
        let stride = arena.stride();
        let start = Instant::now();
        {
            let healthy = SharedLanes::new(&mut arena.healthy);
            let scores = &arena.cand_scores;
            let torsions = &arena.cand_torsions;
            let devs = &arena.cand_closure_dev;
            let rmsds = &arena.cand_rmsd;
            let _ = executor.launch(KernelKind::HealthSweep, n, |i| {
                // SAFETY: kernel i touches only member i's verdict slot.
                *unsafe { healthy.item_mut(i) } = crate::health::member_is_finite(
                    &scores[i],
                    &torsions[i * stride..(i + 1) * stride],
                    devs[i],
                    rmsds[i],
                );
            });
        }
        ledger.component.other_us += start.elapsed().as_secs_f64() * 1e6;
        if arena.healthy.iter().all(|&h| h) {
            return Ok(());
        }
        self.quarantine_or_fail(arena, iteration)
    }

    /// The [`NumericGuard`] verdict on a health sweep that flagged at least
    /// one poisoned member: fail the job with a typed
    /// [`Error::NumericalFault`], or quarantine the poisoned members and
    /// keep sampling.  A fully poisoned population fails regardless of the
    /// policy — there is no sound state left to continue from.
    fn quarantine_or_fail(
        &self,
        arena: &mut PopulationArena,
        iteration: usize,
    ) -> Result<(), Error> {
        let first_bad = arena
            .healthy
            .iter()
            .position(|&h| !h)
            .expect("caller flagged at least one poisoned member");
        let donor = arena.healthy.iter().position(|&h| h);
        if matches!(self.config.numeric_guard, NumericGuard::Fail) || donor.is_none() {
            return Err(self.numeric_fault(arena, first_bad, iteration));
        }
        let stride = arena.stride();
        if iteration == 0 {
            // Initialisation has no current state to fall back on: re-seed
            // each poisoned member's candidate lanes from the first healthy
            // donor before the candidates become the population.
            let donor = donor.expect("guard handled the all-poisoned case");
            for i in 0..arena.n_members() {
                if arena.healthy[i] {
                    continue;
                }
                arena
                    .cand_torsions
                    .copy_within(donor * stride..(donor + 1) * stride, i * stride);
                arena.cand_scores[i] = arena.cand_scores[donor];
                arena.cand_closure_dev[i] = arena.cand_closure_dev[donor];
                arena.cand_rmsd[i] = arena.cand_rmsd[donor];
                arena.healthy[i] = true;
            }
        } else {
            // Mid-run, quarantine is one write: an infinite closure
            // deviation makes the Metropolis gate reject the candidate
            // *without drawing from the member's stream*, so the member
            // keeps its last sound state and the trajectory's random
            // streams — hence same-seed bit-identity — are untouched.
            for i in 0..arena.n_members() {
                if !arena.healthy[i] {
                    arena.cand_closure_dev[i] = f64::INFINITY;
                    arena.healthy[i] = true;
                }
            }
        }
        Ok(())
    }

    /// Build the typed [`Error::NumericalFault`] naming the poisoned
    /// member, the iteration and (when the poison sat in a score slot) the
    /// offending objective.
    fn numeric_fault(&self, arena: &PopulationArena, member: usize, iteration: usize) -> Error {
        let stride = arena.stride();
        let poison = crate::health::member_poison(
            &arena.cand_scores[member],
            &arena.cand_torsions[member * stride..(member + 1) * stride],
            arena.cand_closure_dev[member],
            arena.cand_rmsd[member],
        );
        Error::NumericalFault {
            member,
            iteration,
            objective: poison.and_then(|p| p.objective()),
        }
    }

    /// A [`IterationSnapshot`] of the arena's current population.
    fn snapshot_arena(
        &self,
        iteration: usize,
        arena: &PopulationArena,
        temperature: f64,
    ) -> IterationSnapshot {
        let nd = non_dominated_indices(&arena.scores);
        let front: Vec<(ScoreVector, f64)> = nd
            .iter()
            .map(|&i| (arena.scores[i], arena.rmsd[i]))
            .collect();
        let best_rmsd = arena.rmsd.iter().copied().fold(f64::INFINITY, f64::min);
        IterationSnapshot {
            iteration,
            non_dominated_count: nd.len(),
            front,
            best_rmsd,
            temperature,
        }
    }

    /// The error that stops a run after `completed_iterations`, if any: a
    /// raised cancel flag first, then a passed deadline.
    fn interruption(
        controls: &RunControls,
        deadline: Option<(Instant, Duration)>,
        completed_iterations: usize,
    ) -> Option<Error> {
        if controls
            .cancel
            .is_some_and(|flag| flag.load(Ordering::Relaxed))
        {
            return Some(Error::Cancelled {
                completed_iterations,
            });
        }
        let (at, limit) = deadline?;
        (Instant::now() >= at).then_some(Error::DeadlineExceeded {
            limit,
            completed_iterations,
        })
    }

    /// Run repeated trajectories (fresh seed each time) harvesting distinct
    /// non-dominated decoys until the set reaches `target_decoys` or
    /// `max_trajectories` have been run — the paper's decoy-production
    /// protocol.
    pub fn produce_decoys(
        &self,
        executor: &Executor,
        target_decoys: usize,
        max_trajectories: usize,
    ) -> DecoyProduction {
        let mut decoys = DecoySet::new(self.config.distinct_threshold_deg)
            .with_max_closure_deviation(self.config.max_closure_deviation);
        let mut trajectories = Vec::new();
        let mut t = 0usize;
        while decoys.len() < target_decoys && t < max_trajectories {
            let seed = StreamRngFactory::new(self.config.seed)
                .derive(t as u64 + 1)
                .master_seed();
            let result = self.run_with_seed(executor, seed);
            result.harvest_into(&mut decoys, t);
            trajectories.push(result);
            t += 1;
        }
        DecoyProduction {
            decoys,
            trajectories_run: t,
            trajectories,
        }
    }
}

/// Draw one member's initial torsions under the configured init mode.
/// Shared by the fused reference step and the staged pipeline's init
/// kernel: bit-identity between the two depends on identical draw
/// sequences, so there is exactly one sampling implementation to drift.
fn sample_initial_torsions<R: Rng + ?Sized>(
    init_mode: InitMode,
    classes: &[RamaClass],
    rama: &RamaLibrary,
    torsions: &mut Torsions,
    rng: &mut R,
) {
    match init_mode {
        InitMode::UniformRandom => {
            for k in 0..torsions.n_angles() {
                torsions.set_angle(k, random_torsion(rng));
            }
        }
        InitMode::Ramachandran => {
            for (r, &class) in classes.iter().enumerate() {
                let (phi, psi) = rama.model(class).sample(rng);
                torsions.set_phi(r, phi);
                torsions.set_psi(r, psi);
            }
        }
    }
}

/// Fixed weighted sum over all objective slots (left-to-right accumulation,
/// so the value is deterministic across call sites).
fn weighted_sum(w: &[f64; lms_scoring::NUM_OBJECTIVES], s: &ScoreVector) -> f64 {
    let a = s.as_array();
    let mut total = w[0] * a[0];
    for i in 1..lms_scoring::NUM_OBJECTIVES {
        total += w[i] * a[i];
    }
    total
}

/// Fitness of a candidate against a reference set under the configured
/// objective handling.
fn candidate_fitness(mode: ObjectiveMode, scores: &ScoreVector, reference: &[ScoreVector]) -> f64 {
    match mode {
        ObjectiveMode::MultiScoring => fitness_against(scores, reference),
        ObjectiveMode::Single(obj) => obj.value(scores),
        ObjectiveMode::WeightedSum(w) => weighted_sum(&w, scores),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lms_protein::BenchmarkLibrary;
    use lms_scoring::{KnowledgeBaseConfig, Objective};

    fn fast_kb() -> Arc<KnowledgeBase> {
        KnowledgeBase::build(KnowledgeBaseConfig::fast())
    }

    fn scalar() -> Executor {
        lms_simt::ExecutorConfig::scalar()
            .build()
            .expect("valid config")
    }

    fn parallel() -> Executor {
        lms_simt::ExecutorConfig::parallel()
            .build()
            .expect("valid config")
    }

    fn small_sampler(name: &str, cfg: SamplerConfig) -> MoscemSampler {
        let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
        MoscemSampler::new(target, fast_kb(), cfg)
    }

    #[test]
    fn trajectory_produces_closed_scored_population() {
        let cfg = SamplerConfig {
            population_size: 24,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", cfg);
        let result = sampler.run(&scalar());
        assert_eq!(result.population.len(), 24);
        for c in &result.population {
            assert!(c.scores.is_finite());
            assert!(c.closure_deviation.is_finite());
            assert!(
                c.closure_deviation <= 1.5,
                "population member far from closure: {}",
                c.closure_deviation
            );
            assert!(c.rmsd_to_native.is_finite());
            assert!(c.proposed_moves >= 3);
        }
        assert!(result.non_dominated_count() >= 1);
        assert!(result.best_rmsd().is_finite());
        assert!(result.acceptance_rate >= 0.0 && result.acceptance_rate <= 1.0);
    }

    #[test]
    fn scalar_and_parallel_executors_agree_exactly() {
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 2,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("5pti", cfg);
        let a = sampler.run(&scalar());
        let b = sampler.run(&parallel());
        assert_eq!(a.population.len(), b.population.len());
        for (x, y) in a.population.iter().zip(b.population.iter()) {
            assert_eq!(
                x.torsions, y.torsions,
                "executor changed the sampled trajectory"
            );
            assert_eq!(x.scores, y.scores);
            assert_eq!(x.accepted_moves, y.accepted_moves);
        }
        assert_eq!(a.final_temperature, b.final_temperature);
        assert_eq!(a.acceptance_rate, b.acceptance_rate);
    }

    #[test]
    fn staged_fitness_is_eq1_of_the_final_scores() {
        // The driver's `stage_fitness` launches are the only Eq. 1 path a
        // trajectory runs; they must agree bit for bit with the
        // `pareto::fitness_assignment` definition on the final population.
        let cfg = SamplerConfig {
            population_size: 20,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        assert_eq!(cfg.objective_mode, ObjectiveMode::MultiScoring);
        let sampler = small_sampler("1cex", cfg);
        let two_threads = lms_simt::ExecutorConfig::parallel()
            .threads(2)
            .build()
            .expect("valid config");
        for executor in [scalar(), two_threads] {
            for seed in [3u64, 17] {
                let result = sampler.run_with_seed(&executor, seed);
                let scores: Vec<ScoreVector> = result.population.iter().map(|c| c.scores).collect();
                let expected = crate::pareto::fitness_assignment(&scores);
                for (i, (c, f)) in result.population.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        c.fitness.to_bits(),
                        f.to_bits(),
                        "{} seed {seed}: member {i} fitness",
                        executor.name()
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_give_different_populations() {
        let cfg = SamplerConfig {
            population_size: 12,
            n_complexes: 2,
            iterations: 2,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("3pte", cfg);
        let a = sampler.run_with_seed(&scalar(), 1);
        let b = sampler.run_with_seed(&scalar(), 2);
        assert_ne!(
            a.population.iter().map(|c| c.scores).collect::<Vec<_>>(),
            b.population.iter().map(|c| c.scores).collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshots_are_recorded_at_requested_iterations() {
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 4,
            snapshot_iterations: vec![0, 2, 4],
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1akz", cfg);
        let result = sampler.run(&scalar());
        assert_eq!(result.snapshots.len(), 3);
        assert_eq!(result.snapshots[0].iteration, 0);
        assert_eq!(result.snapshots[1].iteration, 2);
        assert_eq!(result.snapshots[2].iteration, 4);
        for s in &result.snapshots {
            assert!(s.non_dominated_count >= 1);
            assert_eq!(s.front.len(), s.non_dominated_count);
            assert!(s.best_rmsd.is_finite());
        }
    }

    #[test]
    fn component_times_are_dominated_by_ccd_and_scoring() {
        // The paper's Figure 1: loop closure and scoring evaluation occupy
        // ~99% of the CPU-only run.
        let cfg = SamplerConfig {
            population_size: 24,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", cfg);
        let result = sampler.run(&scalar());
        let f = result.component_times.fractions();
        let heavy = f[0] + f[1];
        assert!(
            heavy > 0.80,
            "CCD+scoring fraction {heavy} too small: {f:?}"
        );
        assert!(f[0] > f[1], "CCD should dominate scoring: {f:?}");
    }

    #[test]
    fn modeled_times_favor_the_device_at_large_population() {
        let cfg = SamplerConfig {
            population_size: 128,
            n_complexes: 2,
            iterations: 1,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1dim", cfg);
        let result = sampler.run(&parallel());
        assert!(result.modeled_cpu_us > 0.0);
        assert!(result.modeled_gpu_us > 0.0);
        assert!(result.modeled_speedup() > 1.0);
    }

    #[test]
    fn profiler_records_the_papers_kernels_and_transfers() {
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 2,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1ixh", cfg);
        let result = sampler.run(&scalar());
        let kernels = result.profiler.kernel_stats();
        for kind in [
            KernelKind::Ccd,
            KernelKind::EvalDist,
            KernelKind::EvalVdw,
            KernelKind::EvalTrip,
            KernelKind::FitAssgPopulation,
            KernelKind::FitAssgComplex,
        ] {
            assert!(kernels.contains_key(&kind), "missing kernel {kind:?}");
        }
        // CCD dominates device time, TRIPLET is negligible — Table II shape.
        assert!(kernels[&KernelKind::Ccd].device_us > kernels[&KernelKind::EvalDist].device_us);
        assert!(
            kernels[&KernelKind::EvalDist].device_us > kernels[&KernelKind::EvalTrip].device_us
        );
        let transfers = result.profiler.transfer_stats();
        assert!(transfers.contains_key(&TransferKind::HtoA));
        assert!(transfers.contains_key(&TransferKind::DtoH));
        // Transfers are a small share of total device time.
        let transfer_us: f64 = transfers.values().map(|t| t.device_us).sum();
        assert!(transfer_us < 0.05 * result.profiler.total_device_us());
    }

    #[test]
    fn sampling_improves_the_population() {
        // After a few iterations the population should contain better
        // (lower) scores than the random initialisation on at least one
        // objective, and usually a better best-RMSD.
        let cfg = SamplerConfig {
            population_size: 32,
            n_complexes: 2,
            iterations: 8,
            snapshot_iterations: vec![0, 8],
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", cfg);
        let result = sampler.run(&parallel());
        let first = &result.snapshots[0];
        let last = &result.snapshots[1];
        // The front should not collapse, and the best decoy should not get
        // substantially worse (Metropolis allows bounded uphill moves).
        assert!(last.non_dominated_count >= 1);
        assert!(
            last.non_dominated_count * 3 >= first.non_dominated_count,
            "front collapsed: {} -> {}",
            first.non_dominated_count,
            last.non_dominated_count
        );
        // RMSD is never part of the acceptance rule, so the single best
        // member is free to drift; only gross blow-up would indicate a bug.
        assert!(
            last.best_rmsd <= first.best_rmsd + 1.0,
            "best RMSD should not blow up"
        );
        // The median VDW of the population improves as clashes are resolved.
        let median_vdw = |snap: &IterationSnapshot| {
            let mut v: Vec<f64> = snap.front.iter().map(|(s, _)| s.vdw()).collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v[v.len() / 2]
        };
        assert!(median_vdw(last) <= median_vdw(first) * 2.0 + 1e-9);
    }

    #[test]
    fn single_objective_mode_runs_and_differs_from_multi() {
        let base = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 3,
            ..SamplerConfig::test_scale()
        };
        let multi = small_sampler("153l", base.clone());
        let single = small_sampler(
            "153l",
            SamplerConfig {
                objective_mode: ObjectiveMode::Single(Objective::Vdw),
                ..base
            },
        );
        let a = multi.run(&scalar());
        let b = single.run(&scalar());
        // Different acceptance dynamics ⇒ different trajectories.
        assert_ne!(
            a.population.iter().map(|c| c.scores).collect::<Vec<_>>(),
            b.population.iter().map(|c| c.scores).collect::<Vec<_>>()
        );
    }

    #[test]
    fn convergence_traces_and_schedule_override() {
        use crate::annealing::TemperatureSchedule;
        let base = SamplerConfig {
            population_size: 24,
            n_complexes: 3,
            iterations: 6,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1cex", base.clone());
        let result = sampler.run(&parallel());
        // One trace per complex, one point per iteration.
        assert_eq!(result.complex_traces.len(), 3);
        for trace in &result.complex_traces {
            assert_eq!(trace.len(), 6);
            assert!(trace.iter().all(|v| v.is_finite()));
        }
        assert!(result.gelman_rubin_vdw().is_some());

        // A geometric schedule ends colder than it starts and overrides the
        // adaptive default.
        let annealed_cfg = SamplerConfig {
            temperature_schedule: Some(TemperatureSchedule::Geometric {
                initial: 1.0,
                ratio: 0.5,
                min: 0.01,
            }),
            ..base
        };
        let annealed = small_sampler("1cex", annealed_cfg).run(&parallel());
        assert!(annealed.final_temperature < 0.1);
    }

    #[test]
    fn produce_decoys_accumulates_distinct_decoys() {
        let cfg = SamplerConfig {
            population_size: 16,
            n_complexes: 2,
            iterations: 2,
            ..SamplerConfig::test_scale()
        };
        let sampler = small_sampler("1bhe", cfg);
        let production = sampler.produce_decoys(&parallel(), 6, 4);
        assert!(production.trajectories_run >= 1);
        assert!(production.trajectories_run <= 4);
        assert!(!production.decoys.is_empty());
        assert_eq!(production.trajectories.len(), production.trajectories_run);
        // Every harvested decoy respects the 30-degree distinctness rule.
        let decoys = production.decoys.decoys();
        for (i, a) in decoys.iter().enumerate() {
            for b in &decoys[(i + 1)..] {
                assert!(a.torsions.max_deviation_deg(&b.torsions) >= 30.0 - 1e-9);
            }
        }
    }
}
