//! Cyclic Coordinate Descent (CCD) loop closure.
//!
//! After a torsion mutation the rebuilt loop no longer connects to the
//! fixed C-terminal anchor.  CCD (Canutescu & Dunbrack, 2003) restores the
//! connection by sweeping over the loop's rotatable torsions and, for each
//! one, analytically choosing the rotation that minimises the summed squared
//! distance between the three *moving* end-anchor atoms (N, Cα, C' of the
//! residue after the loop) and their fixed target positions.  The optimal
//! angle for one torsion has the closed form `θ* = atan2(b, a)` with
//! `a = Σ fᵢ·rᵢ` and `b = Σ fᵢ·(û×rᵢ)`, where `rᵢ` is the moving atom's
//! radius vector about the rotation axis and `fᵢ` the target's.
//!
//! This is the dominant cost of the whole sampling pipeline (84 % of the
//! CPU-only run time in the paper's Figure 1, 75 % of device time in its
//! Table II), which is why the sampler offloads it to the SIMT executor.
//!
//! ## Incremental rebuilds
//!
//! CCD rebuilds the loop after every accepted rotation — hundreds of times
//! per closure.  A rotation at flat torsion index `k` leaves every atom
//! before that torsion's pivot bit-exactly where it was (NeRF is a strict
//! left-to-right recurrence), so the sweep rebuilds only the suffix with
//! [`LoopBuilder::rebuild_from`] instead of re-running NeRF over the whole
//! loop.  Because the sweep walks torsions in ascending order, successive
//! rebuilds share maximal prefixes: on average half the per-rotation NeRF
//! work disappears, and the closed-loop results stay **bit-identical** to
//! the full-rebuild implementation (property-tested in
//! `lms-protein/tests/incremental_rebuild.rs`; the full-rebuild baseline is
//! preserved in `lms-bench`'s `ccd_closure` benchmark).

use lms_geometry::Vec3;
use lms_protein::{AminoAcid, LoopBuilder, LoopFrame, LoopStructure, Torsions};

/// Configuration of the CCD closure run.
///
/// `#[non_exhaustive]`: construct via [`CcdConfig::new`] (or `default()`)
/// and the `with_*` setters, e.g.
/// `CcdConfig::new().with_max_sweeps(32).with_tolerance(0.2)`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct CcdConfig {
    /// Maximum number of full sweeps over the torsions.
    pub max_sweeps: usize,
    /// Convergence tolerance on the anchor RMS deviation (Å).
    pub tolerance: f64,
    /// First flat torsion index eligible for adjustment.  The paper starts
    /// CCD "from the immediate torsion angle after the mutated ones"; the
    /// sampler passes that index here.  Use 0 to adjust every torsion.
    pub start_index: usize,
}

impl Default for CcdConfig {
    fn default() -> Self {
        // CCD converges geometrically but slowly once the gap is small; for
        // 10-12 residue loops ~200 sweeps is enough even from a fully random
        // start, and the tolerance of 0.1 A keeps the closed loop visually
        // and energetically indistinguishable from an exactly closed one.
        CcdConfig {
            max_sweeps: 256,
            tolerance: 0.1,
            start_index: 0,
        }
    }
}

impl CcdConfig {
    /// The default configuration, as a starting point for the `with_*`
    /// setters.
    pub fn new() -> Self {
        CcdConfig::default()
    }

    /// Set the maximum number of full sweeps over the torsions.
    #[must_use]
    pub fn with_max_sweeps(mut self, max_sweeps: usize) -> Self {
        self.max_sweeps = max_sweeps;
        self
    }

    /// Set the convergence tolerance on the anchor RMS deviation (Å).
    #[must_use]
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Set the first flat torsion index eligible for adjustment.
    #[must_use]
    pub fn with_start_index(mut self, start_index: usize) -> Self {
        self.start_index = start_index;
        self
    }
}

/// Outcome of a CCD closure run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CcdResult {
    /// Whether the anchor deviation reached the tolerance.
    pub converged: bool,
    /// Number of sweeps performed.
    pub sweeps: usize,
    /// Anchor RMS deviation before closure (Å).
    pub initial_deviation: f64,
    /// Anchor RMS deviation after closure (Å).
    pub final_deviation: f64,
    /// Number of individual torsion rotations applied.
    pub rotations_applied: usize,
}

/// The CCD closure engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcdCloser {
    builder: LoopBuilder,
    config: CcdConfig,
    wide: bool,
    /// Lanes [`CcdCloser::close_batch`] keeps sweeping at once (0 = every
    /// lane handed in).
    in_flight: usize,
}

impl CcdCloser {
    /// Create a closer with an explicit builder and configuration.
    pub fn new(builder: LoopBuilder, config: CcdConfig) -> Self {
        CcdCloser {
            builder,
            config,
            wide: false,
            in_flight: 0,
        }
    }

    /// Create a closer with the default builder and the given configuration.
    pub fn with_config(config: CcdConfig) -> Self {
        CcdCloser {
            builder: LoopBuilder::default(),
            config,
            wide: false,
            in_flight: 0,
        }
    }

    /// Enable explicit wide-`f64` lanes in the batched rotation kernel
    /// ([`CcdCloser::close_batch`]).  The wide kernel applies the same IEEE
    /// operations in the same per-lane order as the scalar one, so results
    /// are bit-identical either way.  Without the `simd` cargo feature this
    /// is a no-op (the scalar kernel runs regardless); the sequential entry
    /// points are always scalar.
    #[must_use]
    pub fn with_wide_lanes(mut self, wide: bool) -> Self {
        self.wide = wide;
        self
    }

    /// Whether the batched rotation kernel uses wide lanes.
    pub fn wide_lanes(&self) -> bool {
        self.wide
    }

    /// Keep at most `width` lanes sweeping at once in
    /// [`CcdCloser::close_batch`]; a lane that finishes hands its slot to
    /// the next pending lane at the following sweep boundary.  Every lane's
    /// arithmetic is independent of the others, so results are
    /// bit-identical for every width.  `0` (the default) puts every lane
    /// handed in in flight at once.
    #[must_use]
    pub fn with_lanes_in_flight(mut self, width: usize) -> Self {
        self.in_flight = width;
        self
    }

    /// The in-flight lane width of [`CcdCloser::close_batch`] (`None` when
    /// every lane handed in sweeps at once).
    pub fn lanes_in_flight(&self) -> Option<usize> {
        (self.in_flight > 0).then_some(self.in_flight)
    }

    /// The configuration in use.
    pub fn config(&self) -> &CcdConfig {
        &self.config
    }

    /// The loop builder in use (shared with the batched closure path).
    pub(crate) fn builder(&self) -> &LoopBuilder {
        &self.builder
    }

    /// Close the loop *in place*: `torsions` is modified so that the built
    /// structure's end frame approaches the fixed C-anchor.  Returns the
    /// closure statistics; the caller rebuilds the structure afterwards (or
    /// uses [`CcdCloser::close_and_build`]).
    pub fn close(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
    ) -> CcdResult {
        self.close_with_start(frame, sequence, torsions, self.config.start_index)
    }

    /// [`CcdCloser::close`] with an explicit start torsion index overriding
    /// the configured one.
    pub fn close_with_start(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
        start_index: usize,
    ) -> CcdResult {
        let mut structure = LoopStructure::with_capacity(sequence.len());
        self.close_with_scratch(frame, sequence, torsions, start_index, &mut structure)
    }

    /// [`CcdCloser::close_with_start`] writing every intermediate rebuild
    /// into a caller-owned scratch structure.
    ///
    /// CCD rebuilds the loop after every applied rotation (hundreds of times
    /// per closure), so reusing one structure buffer removes the single
    /// largest allocation source of the whole sampling pipeline.  On return
    /// `scratch` holds the structure built from the final torsions, letting
    /// the caller score it without rebuilding.
    pub fn close_with_scratch(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
        start_index: usize,
        scratch: &mut LoopStructure,
    ) -> CcdResult {
        let targets = frame.c_anchor.atoms();
        self.builder.build_into(frame, sequence, torsions, scratch);
        let initial_deviation = self.builder.closure_deviation(frame, scratch);
        let mut deviation = initial_deviation;
        let mut sweeps = 0;
        let mut rotations_applied = 0;

        let n_angles = torsions.n_angles();
        let start = start_index.min(n_angles);

        while deviation > self.config.tolerance && sweeps < self.config.max_sweeps {
            sweeps += 1;
            for k in start..n_angles {
                let (residue, kind) = Torsions::describe_angle(k);
                let res_atoms = &scratch.residues[residue];
                // Rotation axis of this torsion: phi spins about N->CA,
                // psi about CA->C'.
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
                rotations_applied += 1;
                // Rebuild so the next torsion sees up-to-date coordinates.
                // Only angle `k` changed and `scratch` is exact for the
                // pre-rotation torsions, so a suffix-only rebuild from `k`
                // reproduces the full rebuild bit for bit at ~half the cost.
                // Only the backbone spine and the end frame feed the sweep
                // (rotation pivots/axes and the deviation metric), so the
                // rebuild additionally skips the O/centroid placements —
                // the same discipline as the batched path; the full rebuild
                // below recovers them bit-identically.
                self.builder
                    .rebuild_spine_from(frame, sequence, torsions, k, scratch);
            }
            deviation = self.builder.closure_deviation(frame, scratch);
        }

        // The sweeps rebuilt spines only; one full rebuild restores the O
        // atoms and centroids so `scratch` holds the exact structure of the
        // final torsions (a full build from the final torsions equals the
        // incremental chain — property-tested in
        // `lms-protein/tests/incremental_rebuild.rs`).  With zero rotations
        // `scratch` still holds its exact initial full build.
        if rotations_applied > 0 {
            self.builder.build_into(frame, sequence, torsions, scratch);
        }

        CcdResult {
            converged: deviation <= self.config.tolerance,
            sweeps,
            initial_deviation,
            final_deviation: deviation,
            rotations_applied,
        }
    }

    /// Close the loop and return both the statistics and the final built
    /// structure.
    pub fn close_and_build(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
    ) -> (CcdResult, LoopStructure) {
        let result = self.close(frame, sequence, torsions);
        let structure = self.builder.build(frame, sequence, torsions);
        (result, structure)
    }
}

/// The closed-form optimal rotation about `axis` through `pivot` that
/// minimises Σ |targetᵢ − R(θ)·movingᵢ|², following Canutescu & Dunbrack.
///
/// `#[inline]` so the population-batched caller
/// ([`crate::batch::optimal_rotation_batch`]) compiles into one tight loop
/// over the gathered SoA arrays.
#[inline]
pub(crate) fn optimal_rotation(
    moving: &[Vec3; 3],
    targets: &[Vec3; 3],
    pivot: Vec3,
    axis: Vec3,
) -> f64 {
    let mut a = 0.0;
    let mut b = 0.0;
    for (m, t) in moving.iter().zip(targets.iter()) {
        let m_rel = *m - pivot;
        let t_rel = *t - pivot;
        // Components perpendicular to the axis.
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

#[cfg(test)]
mod tests {
    use super::*;
    use lms_geometry::{deg_to_rad, Rotation};
    use lms_protein::BenchmarkLibrary;
    use rand::Rng;

    fn target_and_perturbed(
        name: &str,
        perturb_deg: f64,
        seed: u64,
    ) -> (lms_protein::LoopTarget, Torsions) {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name(name).unwrap();
        let mut torsions = target.native_torsions.clone();
        let mut rng = lms_geometry::StreamRngFactory::new(seed).stream(0, 0);
        for k in 0..torsions.n_angles() {
            let delta = deg_to_rad((rng.gen::<f64>() * 2.0 - 1.0) * perturb_deg);
            torsions.rotate_angle(k, delta);
        }
        (target, torsions)
    }

    #[test]
    fn optimal_rotation_recovers_known_angle() {
        // Rotate three points about the z axis by a known angle; the optimal
        // rotation must rotate them back.
        let targets = [
            Vec3::new(2.0, 0.0, 1.0),
            Vec3::new(0.0, 3.0, -1.0),
            Vec3::new(1.5, 1.5, 0.5),
        ];
        let applied = deg_to_rad(40.0);
        let rot = Rotation::about_axis(Vec3::Z, applied);
        let moving = [
            rot.apply(targets[0]),
            rot.apply(targets[1]),
            rot.apply(targets[2]),
        ];
        let theta = optimal_rotation(&moving, &targets, Vec3::ZERO, Vec3::Z);
        assert!(
            (theta + applied).abs() < 1e-9,
            "expected {} got {theta}",
            -applied
        );
    }

    #[test]
    fn optimal_rotation_degenerate_geometry_returns_zero() {
        // Moving atoms on the axis: no rotation can help.
        let moving = [Vec3::ZERO, Vec3::Z, Vec3::Z * 2.0];
        let targets = [Vec3::X, Vec3::X + Vec3::Z, Vec3::X + Vec3::Z * 2.0];
        let theta = optimal_rotation(&moving, &targets, Vec3::ZERO, Vec3::Z);
        assert_eq!(theta, 0.0);
    }

    #[test]
    fn ccd_closes_a_mildly_perturbed_loop() {
        let (target, mut torsions) = target_and_perturbed("1cex", 25.0, 42);
        let closer = CcdCloser::default();
        let before = {
            let s = target.build(&LoopBuilder::default(), &torsions);
            target.closure_deviation(&s)
        };
        assert!(
            before > 0.5,
            "perturbation should break closure (gap {before})"
        );
        let result = closer.close(&target.frame, &target.sequence, &mut torsions);
        assert!(result.converged, "CCD failed to converge: {result:?}");
        assert!(result.final_deviation <= closer.config().tolerance);
        assert!(result.final_deviation < result.initial_deviation);
        // The closed structure really does meet the anchor.
        let closed = target.build(&LoopBuilder::default(), &torsions);
        assert!(target.closure_deviation(&closed) <= closer.config().tolerance + 1e-9);
    }

    #[test]
    fn ccd_closes_heavily_randomised_loops() {
        // Fully random torsions (the sampler's initialisation case).  CCD's
        // convergence is geometric with a long tail: the hardest random
        // 12-residue starts take ~2000 sweeps to reach the 0.1 A tolerance.
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("1akz").unwrap();
        let closer = CcdCloser::with_config(CcdConfig {
            max_sweeps: 2048,
            ..CcdConfig::default()
        });
        let mut converged = 0;
        let trials = 8;
        for seed in 0..trials {
            let mut rng = lms_geometry::StreamRngFactory::new(seed).stream(7, 0);
            let mut torsions = Torsions::zeros(target.n_residues());
            for k in 0..torsions.n_angles() {
                torsions.set_angle(k, lms_geometry::random_torsion(&mut rng));
            }
            let result = closer.close(&target.frame, &target.sequence, &mut torsions);
            assert!(
                result.final_deviation <= result.initial_deviation + 1e-9,
                "CCD must never worsen the gap"
            );
            if result.converged {
                converged += 1;
            }
        }
        assert!(
            converged >= trials - 2,
            "only {converged}/{trials} random 12-residue loops closed"
        );
    }

    #[test]
    fn already_closed_loop_is_untouched() {
        let lib = BenchmarkLibrary::standard();
        let target = lib.target_by_name("5pti").unwrap();
        let mut torsions = target.native_torsions.clone();
        let closer = CcdCloser::default();
        let result = closer.close(&target.frame, &target.sequence, &mut torsions);
        assert!(result.converged);
        assert_eq!(
            result.sweeps, 0,
            "native is already closed; no sweeps needed"
        );
        assert_eq!(result.rotations_applied, 0);
        assert_eq!(torsions, target.native_torsions);
    }

    #[test]
    fn start_index_freezes_upstream_torsions() {
        let (target, mut torsions) = target_and_perturbed("1ixh", 20.0, 3);
        let original = torsions.clone();
        let start = 6; // freeze the first three residues' torsions
        let closer = CcdCloser::default();
        let result = closer.close_with_start(&target.frame, &target.sequence, &mut torsions, start);
        for k in 0..start {
            assert_eq!(
                torsions.angle(k),
                original.angle(k),
                "torsion {k} must not move"
            );
        }
        // Downstream torsions did move (closure required work).
        assert!(result.rotations_applied > 0);
        assert!(result.final_deviation < result.initial_deviation);
    }

    #[test]
    fn close_and_build_returns_consistent_structure() {
        let (target, mut torsions) = target_and_perturbed("153l", 30.0, 9);
        let closer = CcdCloser::default();
        let (result, structure) =
            closer.close_and_build(&target.frame, &target.sequence, &mut torsions);
        let rebuilt = target.build(&LoopBuilder::default(), &torsions);
        assert_eq!(structure, rebuilt);
        assert!((target.closure_deviation(&structure) - result.final_deviation).abs() < 1e-9);
    }

    /// The pre-incremental CCD sweep: identical maths, but a full NeRF
    /// rebuild after every accepted rotation.  Kept as the bit-equivalence
    /// reference for the suffix-only rebuild path.
    fn close_full_rebuild(
        closer: &CcdCloser,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        torsions: &mut Torsions,
    ) -> CcdResult {
        let builder = closer.builder;
        let targets = frame.c_anchor.atoms();
        let mut scratch = LoopStructure::with_capacity(sequence.len());
        builder.build_into(frame, sequence, torsions, &mut scratch);
        let initial_deviation = builder.closure_deviation(frame, &scratch);
        let mut deviation = initial_deviation;
        let mut sweeps = 0;
        let mut rotations_applied = 0;
        while deviation > closer.config.tolerance && sweeps < closer.config.max_sweeps {
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
                rotations_applied += 1;
                builder.build_into(frame, sequence, torsions, &mut scratch);
            }
            deviation = builder.closure_deviation(frame, &scratch);
        }
        CcdResult {
            converged: deviation <= closer.config.tolerance,
            sweeps,
            initial_deviation,
            final_deviation: deviation,
            rotations_applied,
        }
    }

    #[test]
    fn incremental_rebuild_closure_is_bit_identical_to_full_rebuild() {
        for (name, perturb, seed) in [("1cex", 30.0, 11), ("1akz", 45.0, 2), ("5pti", 20.0, 8)] {
            let (target, torsions0) = target_and_perturbed(name, perturb, seed);
            let closer = CcdCloser::default();
            let mut incremental = torsions0.clone();
            let mut full = torsions0.clone();
            let ri = closer.close(&target.frame, &target.sequence, &mut incremental);
            let rf = close_full_rebuild(&closer, &target.frame, &target.sequence, &mut full);
            assert_eq!(incremental, full, "{name}: torsion trajectories diverged");
            assert_eq!(ri, rf, "{name}: closure statistics diverged");
        }
    }

    #[test]
    fn spine_only_sweeps_leave_a_fully_built_scratch_structure() {
        // The sweeps rebuild spines only; on return the scratch structure
        // must nevertheless be the exact full build of the final torsions
        // (O atoms and centroids included), because callers score it
        // directly.  Include an untouched native loop (zero rotations).
        for (name, perturb, seed) in [("1cex", 30.0, 11), ("1akz", 45.0, 2), ("5pti", 0.0, 8)] {
            let (target, mut torsions) = target_and_perturbed(name, perturb, seed);
            let closer = CcdCloser::default();
            let mut scratch = LoopStructure::with_capacity(target.n_residues());
            let result = closer.close_with_scratch(
                &target.frame,
                &target.sequence,
                &mut torsions,
                0,
                &mut scratch,
            );
            let full = target.build(&LoopBuilder::default(), &torsions);
            assert_eq!(scratch, full, "{name}: scratch is not the full build");
            assert!(
                (target.closure_deviation(&scratch) - result.final_deviation).abs() < 1e-12,
                "{name}: deviation inconsistent with returned structure"
            );
        }
    }

    #[test]
    fn ccd_is_deterministic() {
        let (target, torsions0) = target_and_perturbed("1dim", 35.0, 5);
        let closer = CcdCloser::default();
        let mut t1 = torsions0.clone();
        let mut t2 = torsions0.clone();
        let r1 = closer.close(&target.frame, &target.sequence, &mut t1);
        let r2 = closer.close(&target.frame, &target.sequence, &mut t2);
        assert_eq!(t1, t2);
        assert_eq!(r1, r2);
    }

    #[test]
    fn tight_tolerance_costs_more_sweeps() {
        let (target, torsions0) = target_and_perturbed("1cex", 40.0, 17);
        let loose = CcdCloser::with_config(CcdConfig {
            tolerance: 0.5,
            ..CcdConfig::default()
        });
        let tight = CcdCloser::with_config(CcdConfig {
            tolerance: 0.01,
            max_sweeps: 256,
            ..CcdConfig::default()
        });
        let mut tl = torsions0.clone();
        let mut tt = torsions0.clone();
        let rl = loose.close(&target.frame, &target.sequence, &mut tl);
        let rt = tight.close(&target.frame, &target.sequence, &mut tt);
        assert!(rl.sweeps <= rt.sweeps);
        if rt.converged {
            assert!(rt.final_deviation <= 0.01);
        }
    }
}
