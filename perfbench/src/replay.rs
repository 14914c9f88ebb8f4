//! Layer replay: one staged iteration rebuilt from a trajectory's final
//! population, each stage timed from outside the library.
//!
//! Mutation (`Mutator::mutate_into`) → lockstep closure
//! (`CcdCloser::close_batch` in blocks of the executor's width, dispatched
//! through `Executor::launch` with this module's own timed kernel) →
//! `LoopTarget::build_into` / `rmsd_to_native` → environment gathers
//! (`EnvCandidates::gather_within`) → the staged scoring passes
//! (`MultiScorer::vdw_pass` / `dist_pass` / `triplet_pass`) →
//! `fitness_assignment`.  Same target, population, block width and seed
//! stream as the workload: members draw from stream `(member, iterations + 1)`
//! of the trajectory seed's evolution family, as the sampler's next
//! iteration would.

use crate::metrics::BlockSweeps;
use crate::trace::{thread_id, Span, SpanId, Tracer};
use lms::closure::{CcdBatchScratch, CcdLane};
use lms::core::{fitness_assignment, Conformation, Mutator};
use lms::geometry::StreamRngFactory;
use lms::prelude::*;
use lms::protein::RamaClass;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Members scored per staged chunk (one scratch each).
const SCORE_CHUNK: usize = 64;

/// One lockstep CCD block of the replay.
struct Block {
    torsions: Vec<Torsions>,
    structures: Vec<LoopStructure>,
    starts: Vec<usize>,
    scratch: CcdBatchScratch,
    sweeps: BlockSweeps,
    finite: bool,
    span: (u64, u64, u64),
}

/// What the replay needs from the workload.
pub struct ReplayInput<'a> {
    pub target: &'a LoopTarget,
    pub kb: &'a Arc<KnowledgeBase>,
    pub config: &'a SamplerConfig,
    pub executor: &'a Executor,
    pub seed: u64,
    pub population: &'a [Conformation],
}

/// Replay one staged iteration under `parent`; returns a fault when any
/// stage produced a non-finite value.
pub fn replay(tracer: &mut Tracer, parent: SpanId, input: &ReplayInput) -> Option<String> {
    let ReplayInput {
        target,
        kb,
        config,
        executor,
        seed,
        population,
    } = *input;
    let n = population.len();
    let n_res = target.n_residues();
    let classes: Vec<RamaClass> = target.sequence.iter().map(|aa| aa.rama_class()).collect();
    let root = tracer.open("bench.replay", Some(parent));

    // Mutate.
    let mutator = Mutator::new(config.mutation.clone());
    let evolution = StreamRngFactory::new(seed).derive(1);
    let iteration = config.iterations as u64 + 1;
    let mut cands: Vec<Torsions> = population.iter().map(|c| c.torsions.clone()).collect();
    let mut starts = vec![0usize; n];
    let mut indices = Vec::with_capacity(config.mutation.max_mutations.max(1));
    tracer.time("core.mutation.mutate_into", Some(root), n as u64, || {
        for (i, c) in population.iter().enumerate() {
            let mut rng = evolution.stream(i as u64, iteration);
            starts[i] =
                mutator.mutate_into(&c.torsions, &classes, &mut rng, &mut cands[i], &mut indices);
        }
    });

    // Close: lockstep blocks through the executor, each block timed by
    // the kernel itself on whichever thread ran it.
    let width = executor.ccd_block_width();
    let closer = CcdCloser::new(LoopBuilder::default(), config.ccd)
        .with_wide_lanes(executor.lane_width() > 1);
    let mut blocks: Vec<Mutex<Block>> = Vec::new();
    let mut pending = cands.into_iter().zip(starts).peekable();
    while pending.peek().is_some() {
        let (torsions, starts): (Vec<_>, Vec<_>) = pending.by_ref().take(width).unzip();
        blocks.push(Mutex::new(Block {
            structures: vec![LoopStructure::with_capacity(n_res); torsions.len()],
            torsions,
            starts,
            scratch: CcdBatchScratch::new(),
            sweeps: BlockSweeps::default(),
            finite: true,
            span: (0, 0, 0),
        }));
    }
    let launch = tracer.open("simt.executor.launch", Some(root));
    {
        let tracer = &*tracer;
        let _ = executor.launch(KernelKind::Ccd, blocks.len(), |b| {
            let mut guard = blocks[b].lock().expect("a replay block is locked once");
            let block = &mut *guard;
            let mut lanes: Vec<CcdLane> = block
                .torsions
                .iter_mut()
                .zip(block.structures.iter_mut())
                .zip(&block.starts)
                .map(|((torsions, structure), &start_index)| CcdLane {
                    torsions,
                    structure,
                    start_index,
                })
                .collect();
            let t0 = Instant::now();
            closer.close_batch(
                &target.frame,
                &target.sequence,
                &mut lanes,
                &mut block.scratch,
            );
            let t1 = Instant::now();
            let results = block.scratch.results();
            block.sweeps = BlockSweeps::from_results(width, results);
            block.finite = results.iter().all(|r| r.final_deviation.is_finite());
            block.span = (thread_id(), tracer.at(t0), tracer.at(t1));
        });
    }
    tracer.close(
        launch,
        blocks.len() as u64,
        &[("threads", executor.thread_count() as f64)],
    );
    let mut closed = Vec::with_capacity(n);
    let mut fault = None;
    for block in blocks {
        let block = block.into_inner().expect("no replay block panicked");
        let (thread, start_ns, end_ns) = block.span;
        tracer.push(Span {
            name: "closure.batch.close_batch",
            parent: Some(launch),
            thread,
            start_ns,
            end_ns,
            count: block.sweeps.lanes as u64,
            counters: block.sweeps.counters().to_vec(),
        });
        if !block.finite {
            fault = Some("non-finite closure deviation in the replay".to_string());
        }
        closed.extend(block.torsions);
    }

    // Build and RMSD.
    let builder = LoopBuilder::default();
    let mut built = vec![LoopStructure::with_capacity(n_res); n];
    tracer.time("protein.backbone.build_into", Some(root), n as u64, || {
        for (t, s) in closed.iter().zip(built.iter_mut()) {
            target.build_into(&builder, t, s);
        }
    });
    let rmsd: Vec<f64> = tracer.time(
        "protein.backbone.rmsd_to_native",
        Some(root),
        n as u64,
        || built.iter().map(|s| target.rmsd_to_native(s)).collect(),
    );
    if !rmsd.iter().all(|r| r.is_finite()) {
        fault = Some("non-finite RMSD in the replay".to_string());
    }

    // Environment gathers: one window per residue, anchored on its Cα and
    // sized to reach every own atom plus a contact distance.
    let env = target.env_candidates();
    let windows: Vec<(lms::geometry::Vec3, f64)> = built
        .iter()
        .flat_map(|s| s.residues.iter())
        .map(|r| {
            let own = r
                .backbone()
                .into_iter()
                .chain(r.centroid)
                .map(|a| a.distance(r.ca))
                .fold(0.0, f64::max);
            (r.ca, own + 2.0 * env.max_radius())
        })
        .collect();
    let gather = tracer.open("protein.environment.gather_within", Some(root));
    let mut buf = Vec::with_capacity(env.len());
    let mut candidates = 0usize;
    for &(ca, radius) in &windows {
        buf.clear();
        candidates += env.gather_within(ca, radius, &mut buf);
    }
    tracer.close(
        gather,
        windows.len() as u64,
        &[("candidates", candidates as f64)],
    );

    // Score in staged chunks: every VDW pass of the chunk, then every DIST
    // pass (which reads the VDW pass's staging), then every TRIPLET pass.
    let scorer = MultiScorer::new(Arc::clone(kb))
        .with_burial(config.burial_objective)
        .with_wide_lanes(executor.lane_width() > 1);
    let mut scratches: Vec<ScoreScratch> = (0..SCORE_CHUNK.min(n))
        .map(|_| ScoreScratch::for_loop_len(n_res))
        .collect();
    // Untimed warm-up sizes every scratch buffer.
    for (s, scratch) in built.iter().zip(scratches.iter_mut()) {
        std::hint::black_box(scorer.vdw_pass(target, s, scratch));
    }
    let mut scores = Vec::with_capacity(n);
    for lo in (0..n).step_by(SCORE_CHUNK) {
        let hi = (lo + SCORE_CHUNK).min(n);
        let chunk = &built[lo..hi];
        let scratch = &mut scratches[..hi - lo];
        let count = (hi - lo) as u64;
        let vdw: Vec<(f64, f64)> = tracer.time("scoring.vdw_pass", Some(root), count, || {
            chunk
                .iter()
                .zip(scratch.iter_mut())
                .map(|(s, w)| scorer.vdw_pass(target, s, w))
                .collect()
        });
        let dist: Vec<f64> = tracer.time("scoring.dist_pass", Some(root), count, || {
            chunk
                .iter()
                .zip(scratch.iter_mut())
                .map(|(s, w)| scorer.dist_pass(target, s, w))
                .collect()
        });
        let triplet: Vec<f64> = tracer.time("scoring.triplet_pass", Some(root), count, || {
            chunk
                .iter()
                .zip(&closed[lo..hi])
                .zip(scratch.iter_mut())
                .map(|((s, t), w)| scorer.triplet_pass(target, s, t, w))
                .collect()
        });
        for k in 0..chunk.len() {
            let (v, burial) = vdw[k];
            scores.push(ScoreVector::new(v, dist[k], triplet[k]).with_burial(burial));
        }
    }
    let finite_scores = scores
        .iter()
        .all(|s| (0..NUM_OBJECTIVES).all(|k| s.component(k).is_finite()));
    if !finite_scores {
        fault = Some("non-finite score in the replay".to_string());
    }

    // Population-wide Pareto fitness.
    let fitness = tracer.time(
        "core.pareto.fitness_assignment",
        Some(root),
        n as u64,
        || fitness_assignment(&scores),
    );
    if fitness.len() != n || !fitness.iter().all(|f| f.is_finite()) {
        fault = Some("non-finite fitness in the replay".to_string());
    }
    tracer.close(root, n as u64, &[]);
    fault
}
