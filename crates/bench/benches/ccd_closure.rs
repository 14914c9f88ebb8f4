//! Benchmark of the two per-conformation hot-path optimizations landed
//! after the zero-allocation pipeline:
//!
//! * **CCD closure**: the pre-incremental sweep (full NeRF rebuild of the
//!   whole loop after every accepted rotation, reproduced verbatim in
//!   [`full_rebuild`]) against the production sweep
//!   (`CcdCloser::close_with_scratch`, suffix-only `rebuild_from`), at
//!   loop lengths 4, 8 and 12.  Both run the identical rotation schedule —
//!   the results are bit-identical — so the ratio isolates the rebuild
//!   cost.
//! * **VDW environment term**: the exhaustive linear candidate scan
//!   against the production per-residue-window cell-list pass (one shared
//!   gather per residue) and the older per-site cell-list query it
//!   replaced, on environments scaled 1×/10×/100× at roughly constant
//!   *local* density (extra atoms fill the candidate reach sphere,
//!   emulating a full-size protein around the loop).  The linear scan
//!   degrades with the total candidate count; the cell-list passes should
//!   stay near-flat, with the windowed pass amortizing the query cost
//!   across each residue's sites.
//! * **Lockstep CCD blocks**: the population-batched `close_batch` swept
//!   over CCD block widths, on the scalar backend and (with the `simd`
//!   feature) the wide-lane backend whose sweeps now run the lane-major
//!   spine rebuild.  Alongside it, two isolated scalar-vs-wide
//!   comparisons: the batched optimal-rotation kernel, and the lane-major
//!   NeRF spine rebuild itself — the cost that dominates `close_batch` and
//!   previously kept the closure-level ratio flat.
//!
//! Besides the criterion groups, the harness writes `BENCH_ccd.json` at
//! the workspace root recording the comparisons (and, under the `simd`
//! feature, the wide-lane `simd` section with the executor capabilities
//! that produced it) for the perf trajectory.

use criterion::{criterion_group, Criterion};
use lms_bench::scaled_env_target;
use lms_closure::{optimal_rotation_batch, CcdBatchScratch, CcdCloser, CcdLane};
use lms_geometry::{StreamRngFactory, Vec3};
use lms_protein::{
    AminoAcid, BenchmarkLibrary, LoopBuilder, LoopFrame, LoopStructure, LoopTarget, TargetSpec,
    Torsions,
};
use lms_scoring::{ScoreScratch, VdwScore};
use lms_simt::ExecutorConfig;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The pre-incremental CCD sweep, kept as the benchmark baseline after
/// production closure moved to suffix-only rebuilds: identical maths and
/// rotation schedule, but `build_into` over the whole loop after every
/// accepted rotation.
mod full_rebuild {
    use super::*;

    fn optimal_rotation(moving: &[Vec3; 3], targets: &[Vec3; 3], pivot: Vec3, axis: Vec3) -> f64 {
        let mut a = 0.0;
        let mut b = 0.0;
        for (m, t) in moving.iter().zip(targets.iter()) {
            let m_rel = *m - pivot;
            let t_rel = *t - pivot;
            let r = m_rel - axis * m_rel.dot(axis);
            let f = t_rel - axis * t_rel.dot(axis);
            a += f.dot(r);
            b += f.dot(axis.cross(r));
        }
        if a.abs() < 1e-15 && b.abs() < 1e-15 {
            0.0
        } else {
            b.atan2(a)
        }
    }

    /// One closure with a full rebuild per accepted rotation; mirrors
    /// `CcdCloser::close_with_scratch` with default `CcdConfig` (the
    /// schedule parameters are read from it, so config tuning cannot
    /// silently desynchronise the two sides of the comparison).
    pub fn close(
        builder: &LoopBuilder,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
        scratch: &mut LoopStructure,
    ) -> (bool, usize) {
        let config = lms_closure::CcdConfig::default();
        let max_sweeps = config.max_sweeps;
        let tolerance = config.tolerance;
        let targets = frame.c_anchor.atoms();
        builder.build_into(frame, sequence, torsions, scratch);
        let mut deviation = builder.closure_deviation(frame, scratch);
        let mut sweeps = 0;
        let mut rotations = 0usize;
        while deviation > tolerance && sweeps < max_sweeps {
            sweeps += 1;
            for k in 0..torsions.n_angles() {
                let (residue, kind) = Torsions::describe_angle(k);
                let res_atoms = &scratch.residues[residue];
                let (pivot, axis_end) = match kind {
                    lms_protein::TorsionKind::Phi => (res_atoms.n, res_atoms.ca),
                    lms_protein::TorsionKind::Psi => (res_atoms.ca, res_atoms.c),
                };
                let Some(axis) = (axis_end - pivot).try_normalize() else {
                    continue;
                };
                let moving = scratch.end_frame.atoms();
                let delta = optimal_rotation(&moving, &targets, pivot, axis);
                if delta.abs() < 1e-9 {
                    continue;
                }
                torsions.rotate_angle(k, delta);
                rotations += 1;
                builder.build_into(frame, sequence, torsions, scratch);
            }
            deviation = builder.closure_deviation(frame, scratch);
        }
        (deviation <= tolerance, rotations)
    }
}

/// Loop lengths the closure comparison runs at.
const LOOP_LENGTHS: [usize; 3] = [4, 8, 12];

/// Environment scale factors for the VDW comparison.
const ENV_FACTORS: [usize; 3] = [1, 10, 100];

/// CCD block widths the lockstep-closure sweep runs at.
const BLOCK_WIDTHS: [usize; 3] = [4, 8, 16];

/// Lane counts the isolated rotation-kernel comparison runs at.
const KERNEL_WIDTHS: [usize; 4] = [4, 8, 16, 32];

/// Members in the lockstep-closure population.
const BLOCK_POPULATION: usize = 16;

fn target_of_len(len: usize) -> LoopTarget {
    let spec = TargetSpec {
        name: "1cex",
        start: 40,
        len,
        buried: false,
    };
    BenchmarkLibrary::standard().generate(&spec)
}

/// Perturbed-native torsion starts: far enough from closure that CCD does
/// real work, close enough that it reliably converges at every length.
fn starts(target: &LoopTarget, count: usize) -> Vec<Torsions> {
    let factory = StreamRngFactory::new(31);
    (0..count)
        .map(|i| {
            let mut rng = factory.stream(i as u64, 0);
            let mut t = target.native_torsions.clone();
            for k in 0..t.n_angles() {
                t.rotate_angle(k, lms_geometry::random_torsion(&mut rng) * 0.25);
            }
            t
        })
        .collect()
}

/// Deterministic synthetic inputs for `width` lanes of the batched
/// optimal-rotation kernel: protein-magnitude coordinates on gentle
/// trigonometric walks, unit axes — enough variation that no lane's
/// arithmetic folds away, with no RNG in the timing loop.
fn kernel_inputs(width: usize) -> (Vec<[Vec3; 3]>, [Vec3; 3], Vec<Vec3>, Vec<Vec3>) {
    let targets = [
        Vec3::new(1.2, 0.4, -0.8),
        Vec3::new(2.6, 1.5, 0.3),
        Vec3::new(3.9, 0.9, 1.1),
    ];
    let mut moving = Vec::with_capacity(width);
    let mut pivots = Vec::with_capacity(width);
    let mut axes = Vec::with_capacity(width);
    for j in 0..width {
        let p = j as f64 * 0.37;
        moving.push([
            Vec3::new(1.0 + p.sin(), 0.2 + p.cos(), -0.5 + 0.1 * p),
            Vec3::new(2.4 + (p * 1.7).sin(), 1.1 + (p * 0.9).cos(), 0.4 - 0.05 * p),
            Vec3::new(3.6 + (p * 0.6).cos(), 0.7 + (p * 1.3).sin(), 1.3 + 0.02 * p),
        ]);
        pivots.push(Vec3::new(0.3 * p.cos(), 0.2 * p.sin(), 0.1 * p));
        axes.push(
            Vec3::new((p * 0.8).cos(), (p * 1.1).sin(), 0.7)
                .try_normalize()
                .expect("non-degenerate axis"),
        );
    }
    (moving, targets, pivots, axes)
}

/// Close a population in lockstep blocks of `width`, resetting every member
/// to its start torsions first.  Mirrors the sampler's `stage_close` block
/// partition (ragged final block included) over reused buffers.
fn close_population(
    closer: &CcdCloser,
    target: &LoopTarget,
    starts: &[Torsions],
    width: usize,
    torsions: &mut [Torsions],
    structures: &mut [LoopStructure],
    scratch: &mut CcdBatchScratch,
) {
    for (t, s) in torsions.iter_mut().zip(starts.iter()) {
        t.clone_from(s);
    }
    for (t_block, s_block) in torsions.chunks_mut(width).zip(structures.chunks_mut(width)) {
        let mut lanes: Vec<CcdLane> = t_block
            .iter_mut()
            .zip(s_block.iter_mut())
            .map(|(t, s)| CcdLane {
                torsions: t,
                structure: s,
                start_index: 0,
            })
            .collect();
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, scratch);
    }
}

fn bench_ccd_closure(c: &mut Criterion) {
    let builder = LoopBuilder::default();
    let mut group = c.benchmark_group("ccd_closure");
    group.sample_size(12);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &len in &LOOP_LENGTHS {
        let target = target_of_len(len);
        let torsions = starts(&target, 16);
        let closer = CcdCloser::default();

        group.bench_function(format!("full/len{len}"), |b| {
            let mut scratch = LoopStructure::with_capacity(len);
            let mut i = 0usize;
            b.iter(|| {
                let mut t = torsions[i % torsions.len()].clone();
                i += 1;
                black_box(full_rebuild::close(
                    &builder,
                    &target.frame,
                    &target.sequence,
                    &mut t,
                    &mut scratch,
                ))
            })
        });

        group.bench_function(format!("incremental/len{len}"), |b| {
            let mut scratch = LoopStructure::with_capacity(len);
            let mut i = 0usize;
            b.iter(|| {
                let mut t = torsions[i % torsions.len()].clone();
                i += 1;
                black_box(closer.close_with_scratch(
                    &target.frame,
                    &target.sequence,
                    &mut t,
                    0,
                    &mut scratch,
                ))
            })
        });
    }
    group.finish();
}

fn bench_vdw_environment(c: &mut Criterion) {
    let builder = LoopBuilder::default();
    let vdw = VdwScore::default();
    let base = target_of_len(12);
    let mut group = c.benchmark_group("vdw_env");
    group.sample_size(12);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    for &factor in &ENV_FACTORS {
        let target = scaled_env_target(&base, factor);
        let structure = target.build(&builder, &target.native_torsions);
        target.env_candidates();

        group.bench_function(format!("linear/x{factor}"), |b| {
            let mut scratch = ScoreScratch::for_loop_len(12);
            b.iter(|| black_box(vdw.environment_term_linear(&target, &structure, &mut scratch)))
        });
        group.bench_function(format!("per_site/x{factor}"), |b| {
            let mut scratch = ScoreScratch::for_loop_len(12);
            b.iter(|| black_box(vdw.environment_term_per_site(&target, &structure, &mut scratch)))
        });
        group.bench_function(format!("windows/x{factor}"), |b| {
            let mut scratch = ScoreScratch::for_loop_len(12);
            b.iter(|| black_box(vdw.environment_term(&target, &structure, &mut scratch)))
        });
    }
    group.finish();
}

fn bench_rotation_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("ccd_rotation_kernel");
    group.sample_size(12);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(200));

    for &width in &KERNEL_WIDTHS {
        let (moving, targets, pivots, axes) = kernel_inputs(width);
        group.bench_function(format!("scalar/w{width}"), |b| {
            let mut thetas = Vec::with_capacity(width);
            b.iter(|| {
                optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut thetas);
                black_box(&thetas);
            })
        });
        #[cfg(feature = "simd")]
        group.bench_function(format!("wide/w{width}"), |b| {
            let mut thetas = Vec::with_capacity(width);
            b.iter(|| {
                lms_closure::optimal_rotation_batch_wide(
                    &moving,
                    &targets,
                    &pivots,
                    &axes,
                    &mut thetas,
                );
                black_box(&thetas);
            })
        });
    }
    group.finish();
}

/// Median ns/call of a closure over `samples` timed batches.
fn median_ns<F: FnMut()>(mut f: F, iters: u32, samples: u32) -> f64 {
    let mut results: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    results.sort_by(|a, b| a.partial_cmp(b).unwrap());
    results[results.len() / 2]
}

/// The capabilities of the executor backend this bench run's lockstep
/// sweep corresponds to, rendered as JSON metadata so the artifact's
/// numbers stay attributable to a backend.
fn executor_metadata() -> String {
    #[cfg(feature = "simd")]
    let executor = ExecutorConfig::simd()
        .threads(1)
        .build()
        .expect("simd backend available under the simd feature");
    #[cfg(not(feature = "simd"))]
    let executor = ExecutorConfig::scalar()
        .build()
        .expect("scalar backend is always available");
    let caps = executor.capabilities();
    format!(
        "{{\"backend\": \"{}\", \"lane_width\": {}, \"threads\": {}, \
         \"ccd_block_width\": {}, \"isa\": \"{}\"}}",
        caps.name, caps.lane_width, caps.threads, caps.ccd_block_width, caps.isa
    )
}

/// Measure the isolated scalar-vs-lane-major NeRF spine rebuild — the cost
/// that dominates `close_batch` — and render the `"rebuild"` JSON section.
/// Every member rebuilds the full suffix from the first angle (the
/// worst-case, and the common case early in a CCD sweep); bit-identity of
/// the rebuilt spines and end frames is asserted before timing.  The
/// lane-major side reads its ψ/φ `(sin, cos)` from a trig table filled
/// outside the timed loop, as `close_batch` does at admission, so the ratio
/// includes the cache: the scalar side evaluates `sin_cos` per residue.
#[cfg(feature = "simd")]
fn rebuild_section() -> String {
    use lms_closure::{rebuild_spine_from_batch, LaneTrigTable};
    use lms_protein::SpineKernel;

    /// Member counts the rebuild comparison runs at (4-lane groups: one
    /// full group, two, four).
    const REBUILD_WIDTHS: [usize; 3] = [4, 8, 16];

    let builder = LoopBuilder::default();
    let target = target_of_len(12);
    let kernel = SpineKernel::new(builder.geometry(), &target.frame);
    let isa = ExecutorConfig::simd()
        .build()
        .expect("simd backend available")
        .capabilities()
        .isa;
    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    for &width in &REBUILD_WIDTHS {
        let member_starts = starts(&target, width);
        let accepted: Vec<usize> = (0..width).collect();

        let torsions = member_starts.clone();
        let mut structures: Vec<LoopStructure> = member_starts
            .iter()
            .map(|t| target.build(&builder, t))
            .collect();
        let mut wide_torsions = member_starts.clone();
        let mut wide_structures: Vec<LoopStructure> = member_starts
            .iter()
            .map(|t| target.build(&builder, t))
            .collect();
        let mut lanes: Vec<CcdLane> = wide_torsions
            .iter_mut()
            .zip(wide_structures.iter_mut())
            .map(|(t, s)| CcdLane {
                torsions: t,
                structure: s,
                start_index: 0,
            })
            .collect();
        let mut trig = LaneTrigTable::new();
        trig.reset(width, width, target.native_torsions.n_angles());
        for (j, lane) in lanes.iter().enumerate() {
            trig.admit(j, lane.torsions);
        }

        // Bit-identity sanity check before timing anything.
        rebuild_spine_from_batch(
            &builder,
            &kernel,
            &target.frame,
            &target.sequence,
            &mut lanes,
            &trig,
            &accepted,
            0,
        );
        let same = |a: Vec3, b: Vec3| {
            a.x.to_bits() == b.x.to_bits()
                && a.y.to_bits() == b.y.to_bits()
                && a.z.to_bits() == b.z.to_bits()
        };
        for j in 0..width {
            builder.rebuild_spine_from(
                &target.frame,
                &target.sequence,
                &torsions[j],
                0,
                &mut structures[j],
            );
            let wide_structure = &*lanes[j].structure;
            for (w, r) in wide_structure
                .residues
                .iter()
                .zip(structures[j].residues.iter())
            {
                assert!(
                    same(w.n, r.n) && same(w.ca, r.ca) && same(w.c, r.c),
                    "lane-major rebuild diverged from scalar (member {j})"
                );
            }
            for (w, r) in wide_structure
                .end_frame
                .atoms()
                .iter()
                .zip(structures[j].end_frame.atoms().iter())
            {
                assert!(same(*w, *r), "lane-major end frame diverged (member {j})");
            }
        }

        let iters = 20_000u32;
        let scalar = median_ns(
            || {
                for j in 0..width {
                    builder.rebuild_spine_from(
                        &target.frame,
                        &target.sequence,
                        &torsions[j],
                        0,
                        &mut structures[j],
                    );
                }
                black_box(&structures);
            },
            iters,
            9,
        ) / width as f64;
        let wide = median_ns(
            || {
                rebuild_spine_from_batch(
                    &builder,
                    &kernel,
                    &target.frame,
                    &target.sequence,
                    &mut lanes,
                    &trig,
                    &accepted,
                    0,
                );
                black_box(&lanes);
            },
            iters,
            9,
        ) / width as f64;
        let speedup = scalar / wide;
        speedups.push(speedup);
        println!(
            "spine_rebuild members={width}: scalar {scalar:.0} ns/member, \
             lane-major {wide:.0} ns/member, speedup {speedup:.2}x"
        );
        entries.push(format!(
            "      {{\"members\": {width}, \"scalar_ns_per_member\": {scalar:.1}, \
             \"wide_ns_per_member\": {wide:.1}, \"speedup\": {speedup:.3}}}"
        ));
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = speedups[speedups.len() / 2];
    println!("spine_rebuild median lane-major speedup: {median:.2}x (isa {isa})");
    format!(
        ",\n  \"rebuild\": {{\n    \
         \"comparison\": \"scalar per-member NeRF spine rebuild vs lane-major f64x4 rebuild from a prefilled torsion sin/cos table (bit-identical, full suffix, loop_len 12)\",\n    \
         \"isa\": \"{isa}\",\n    \"results\": [\n{}\n    ],\n    \
         \"speedup\": {median:.3}\n  }}",
        entries.join(",\n")
    )
}

/// Without the `simd` feature there is no lane-major rebuild to compare;
/// the artifact has no `"rebuild"` section and the perf gate treats its
/// metrics as optional until both sides carry them.
#[cfg(not(feature = "simd"))]
fn rebuild_section() -> String {
    String::new()
}

/// Measure the isolated scalar-vs-wide optimal-rotation kernel across lane
/// counts and render the `"simd"` JSON section the perf gate tracks.  The
/// kernel-level ratio is the gated number because the closure-level sweep
/// is dominated by NeRF rebuild cost, which the wide lanes do not touch.
#[cfg(feature = "simd")]
fn simd_kernel_section() -> String {
    let lane_width = ExecutorConfig::simd()
        .build()
        .expect("simd backend available")
        .capabilities()
        .lane_width;
    let mut entries = Vec::new();
    let mut speedups = Vec::new();
    for &width in &KERNEL_WIDTHS {
        let (moving, targets, pivots, axes) = kernel_inputs(width);
        // Bit-identity sanity check before timing anything.
        let mut scalar_thetas = Vec::new();
        let mut wide_thetas = Vec::new();
        optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut scalar_thetas);
        lms_closure::optimal_rotation_batch_wide(
            &moving,
            &targets,
            &pivots,
            &axes,
            &mut wide_thetas,
        );
        assert_eq!(scalar_thetas.len(), wide_thetas.len());
        for (s, w) in scalar_thetas.iter().zip(wide_thetas.iter()) {
            assert_eq!(s.to_bits(), w.to_bits(), "wide kernel diverged from scalar");
        }

        let iters = 8_000u32;
        let mut thetas = Vec::with_capacity(width);
        let scalar = median_ns(
            || {
                optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut thetas);
                black_box(&thetas);
            },
            iters,
            9,
        ) / width as f64;
        let wide = median_ns(
            || {
                lms_closure::optimal_rotation_batch_wide(
                    &moving,
                    &targets,
                    &pivots,
                    &axes,
                    &mut thetas,
                );
                black_box(&thetas);
            },
            iters,
            9,
        ) / width as f64;
        let speedup = scalar / wide;
        speedups.push(speedup);
        println!(
            "ccd_rotation_kernel w={width}: scalar {scalar:.2} ns/lane, \
             wide {wide:.2} ns/lane, speedup {speedup:.2}x"
        );
        entries.push(format!(
            "      {{\"lanes\": {width}, \"scalar_ns_per_lane\": {scalar:.2}, \
             \"wide_ns_per_lane\": {wide:.2}, \"speedup\": {speedup:.3}}}"
        ));
    }
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = speedups[speedups.len() / 2];
    println!("ccd_rotation_kernel median wide-lane speedup: {median:.2}x");
    format!(
        ",\n  \"simd\": {{\n    \
         \"comparison\": \"scalar vs wide-f64 batched optimal-rotation kernel (bit-identical)\",\n    \
         \"lane_width\": {lane_width},\n    \"results\": [\n{}\n    ],\n    \
         \"speedup\": {median:.3}\n  }}",
        entries.join(",\n")
    )
}

/// Without the `simd` feature the artifact simply has no `"simd"` section;
/// the perf gate treats the metric as optional until both sides carry it.
#[cfg(not(feature = "simd"))]
fn simd_kernel_section() -> String {
    String::new()
}

/// Measure both comparisons and write `BENCH_ccd.json` at the workspace
/// root.
fn write_bench_json() {
    let builder = LoopBuilder::default();

    // --- CCD: full rebuild vs incremental -----------------------------
    let mut ccd_entries = Vec::new();
    for &len in &LOOP_LENGTHS {
        let target = target_of_len(len);
        let torsions = starts(&target, 16);
        let closer = CcdCloser::default();
        let iters = 60u32;

        let mut scratch = LoopStructure::with_capacity(len);
        let mut i = 0usize;
        let full = median_ns(
            || {
                let mut t = torsions[i % torsions.len()].clone();
                i += 1;
                black_box(full_rebuild::close(
                    &builder,
                    &target.frame,
                    &target.sequence,
                    &mut t,
                    &mut scratch,
                ));
            },
            iters,
            9,
        );

        let mut j = 0usize;
        let incremental = median_ns(
            || {
                let mut t = torsions[j % torsions.len()].clone();
                j += 1;
                black_box(closer.close_with_scratch(
                    &target.frame,
                    &target.sequence,
                    &mut t,
                    0,
                    &mut scratch,
                ));
            },
            iters,
            9,
        );

        let speedup = full / incremental;
        println!(
            "ccd_closure len={len}: full {full:.0} ns/closure, \
             incremental {incremental:.0} ns/closure, speedup {speedup:.2}x"
        );
        ccd_entries.push(format!(
            "      {{\"loop_len\": {len}, \"full_ns_per_closure\": {full:.1}, \
             \"incremental_ns_per_closure\": {incremental:.1}, \"speedup\": {speedup:.3}}}"
        ));
    }

    // --- VDW environment: linear scan vs cell list ---------------------
    let vdw = VdwScore::default();
    let base = target_of_len(12);
    let mut env_entries = Vec::new();
    let mut cells_by_factor = Vec::new();
    let mut window_speedups = Vec::new();
    for &factor in &ENV_FACTORS {
        let target = scaled_env_target(&base, factor);
        let structure = target.build(&builder, &target.native_torsions);
        let candidates = target.env_candidates().len();
        let iters = (40_000 / factor as u32).max(200);

        let mut scratch = ScoreScratch::for_loop_len(12);
        let linear = median_ns(
            || {
                black_box(vdw.environment_term_linear(&target, &structure, &mut scratch));
            },
            iters,
            9,
        );
        let per_site = median_ns(
            || {
                black_box(vdw.environment_term_per_site(&target, &structure, &mut scratch));
            },
            iters,
            9,
        );
        let cells = median_ns(
            || {
                black_box(vdw.environment_term(&target, &structure, &mut scratch));
            },
            iters,
            9,
        );
        cells_by_factor.push(cells);
        let speedup = linear / cells;
        let window_speedup = per_site / cells;
        window_speedups.push(window_speedup);
        println!(
            "vdw_env x{factor}: {candidates} candidates, linear {linear:.0} ns/eval, \
             per-site {per_site:.0} ns/eval, windows {cells:.0} ns/eval, \
             speedup vs linear {speedup:.2}x, vs per-site {window_speedup:.2}x"
        );
        env_entries.push(format!(
            "      {{\"env_factor\": {factor}, \"candidates\": {candidates}, \
             \"linear_ns_per_eval\": {linear:.1}, \"per_site_ns_per_eval\": {per_site:.1}, \
             \"cells_ns_per_eval\": {cells:.1}, \"speedup\": {speedup:.3}, \
             \"window_speedup\": {window_speedup:.3}}}"
        ));
    }
    let growth = cells_by_factor[2] / cells_by_factor[0];
    println!("vdw_env cell-list cost growth 100x/1x: {growth:.2}x");
    window_speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let window_speedup = window_speedups[window_speedups.len() / 2];
    println!("vdw_env median per-residue-window speedup over per-site: {window_speedup:.2}x");

    // --- Lockstep CCD blocks: block-width / backend sweep --------------
    let target = target_of_len(8);
    let member_starts = starts(&target, BLOCK_POPULATION);
    let mut member_torsions = member_starts.clone();
    let mut member_structures: Vec<LoopStructure> = (0..BLOCK_POPULATION)
        .map(|_| LoopStructure::with_capacity(8))
        .collect();
    let mut batch_scratch = CcdBatchScratch::default();
    let mut block_entries = Vec::new();
    for &width in &BLOCK_WIDTHS {
        let scalar_closer = CcdCloser::default();
        let scalar = median_ns(
            || {
                close_population(
                    &scalar_closer,
                    &target,
                    &member_starts,
                    width,
                    &mut member_torsions,
                    &mut member_structures,
                    &mut batch_scratch,
                );
            },
            2,
            5,
        ) / BLOCK_POPULATION as f64;
        #[cfg(feature = "simd")]
        {
            let wide_closer = CcdCloser::default().with_wide_lanes(true);
            let wide = median_ns(
                || {
                    close_population(
                        &wide_closer,
                        &target,
                        &member_starts,
                        width,
                        &mut member_torsions,
                        &mut member_structures,
                        &mut batch_scratch,
                    );
                },
                2,
                5,
            ) / BLOCK_POPULATION as f64;
            let speedup = scalar / wide;
            println!(
                "ccd_blocks w={width}: scalar {scalar:.0} ns/member, \
                 wide {wide:.0} ns/member, speedup {speedup:.2}x"
            );
            block_entries.push(format!(
                "      {{\"block_width\": {width}, \"scalar_ns_per_member\": {scalar:.1}, \
                 \"wide_ns_per_member\": {wide:.1}, \"speedup\": {speedup:.3}}}"
            ));
        }
        #[cfg(not(feature = "simd"))]
        {
            println!("ccd_blocks w={width}: scalar {scalar:.0} ns/member");
            block_entries.push(format!(
                "      {{\"block_width\": {width}, \"scalar_ns_per_member\": {scalar:.1}}}"
            ));
        }
    }

    let json = format!(
        "{{\n  \"benchmark\": \"ccd_closure\",\n  \"unit\": \"ns\",\n  \
         \"executor\": {},\n  \"ccd\": {{\n    \
         \"comparison\": \"full NeRF rebuild per rotation vs suffix-only rebuild_from\",\n    \
         \"results\": [\n{}\n    ]\n  }},\n  \"vdw_env\": {{\n    \
         \"comparison\": \"linear candidate scan vs per-site cell-list queries vs per-residue candidate windows\",\n    \
         \"results\": [\n{}\n    ],\n    \"cells_cost_growth_100x_over_1x\": {growth:.3},\n    \
         \"window_speedup\": {window_speedup:.3}\n  }},\n  \
         \"blocks\": {{\n    \
         \"comparison\": \"lockstep close_batch over a {BLOCK_POPULATION}-member population, per CCD block width\",\n    \
         \"results\": [\n{}\n    ]\n  }}{}{}\n}}\n",
        executor_metadata(),
        ccd_entries.join(",\n"),
        env_entries.join(",\n"),
        block_entries.join(",\n"),
        rebuild_section(),
        simd_kernel_section()
    );
    let root = std::env::var("CARGO_MANIFEST_DIR")
        .map(|d| format!("{d}/../.."))
        .unwrap_or_else(|_| ".".to_string());
    let path = format!("{root}/BENCH_ccd.json");
    std::fs::write(&path, json).expect("write BENCH_ccd.json");
    println!("wrote {path}");
}

criterion_group!(
    benches,
    bench_ccd_closure,
    bench_vdw_environment,
    bench_rotation_kernel
);

fn main() {
    let mut criterion = Criterion::default();
    benches(&mut criterion);
    write_bench_json();
}
