//! Population-batched CCD closure: lockstep sweeps over lanes in flight.
//!
//! The paper closes every conformation of the population concurrently — one
//! device thread per conformation, all threads executing the same CCD sweep
//! with divergence handled by masking.  [`CcdCloser::close_batch`]
//! reproduces that execution shape on the host for a queue of members: at
//! most the closer's in-flight width of lanes advance through the same
//! `(sweep, torsion)` schedule in lockstep, lanes whose start index
//! excludes a torsion are masked out, and the per-torsion optimal-rotation
//! inner products are gathered into flat SoA arrays and evaluated in one
//! tight batched loop ([`optimal_rotation_batch`]) instead of being
//! interleaved with structure traversal.
//!
//! **Lanes in flight + refill.**  Masking alone would keep a converged lane
//! idle until the slowest lane of its block finished.  Instead, at every
//! sweep boundary each in-flight lane whose own `while` condition
//! (`deviation > tolerance && sweeps < max_sweeps`) fails is retired — its
//! final full build done — and its slot is refilled with the next pending
//! lane, the host form of the GPU "persistent threads" answer to warp
//! divergence.  Unset ([`CcdCloser::with_lanes_in_flight`]), every lane
//! handed in is in flight at once, which is the plain masked block.
//!
//! **Torsion trig table.**  On the wide-lane path each in-flight lane
//! holds a row of a `LaneTrigTable`: the `f64::sin_cos` of every one of
//! its torsions, filled when the lane is admitted and refreshed at one
//! entry after each accepted rotation.  The lane-major suffix rebuild packs
//! its ψ/φ lanes from that row instead of re-evaluating `sin_cos` on every
//! suffix residue — the same bits of the same stored angles, with only the
//! changed angle recomputed.  Rows belong to slots, not to queued lanes: a
//! retired lane hands its row to the next admission.
//!
//! **Bit-identity.**  Each member's computation depends only on its own
//! state, and the lockstep schedule performs, per member, exactly the same
//! operations in exactly the same order as the sequential
//! [`CcdCloser::close_with_scratch`]: build → (check; sweep over eligible
//! torsions: axis, optimal rotation, conditional apply + suffix rebuild) →
//! deviation.  When a lane is admitted or which slot it occupies changes
//! nothing about its arithmetic.  The batched inner products call the
//! identical scalar kernel per gathered lane, so every rotation angle — and
//! therefore every closed loop — matches the per-member reference bit for
//! bit at every in-flight width (property-tested in this module and in
//! `lms-core`'s batched-pipeline equivalence tests).

use crate::ccd::{optimal_rotation, CcdCloser, CcdResult};
use lms_geometry::Vec3;
use lms_protein::{AminoAcid, LoopFrame, LoopStructure, Torsions};
#[cfg(feature = "simd")]
use lms_protein::{AnchorFrame, LoopBuilder, SpineKernel, WideVec3};
#[cfg(feature = "simd")]
use wide::f64x4;

/// One member's view into a population-batched closure: its candidate
/// torsions, its reusable structure buffer, and the first torsion CCD may
/// adjust (the smallest mutated index).
#[derive(Debug)]
pub struct CcdLane<'a> {
    /// The torsion vector CCD adjusts in place.
    pub torsions: &'a mut Torsions,
    /// The member's persistent structure buffer; on return it holds the
    /// structure built from the final torsions (ready for scoring).
    pub structure: &'a mut LoopStructure,
    /// First flat torsion index eligible for adjustment.
    pub start_index: usize,
}

/// Reusable SoA workspace of one closure queue: per-lane sweep state, the
/// in-flight lane list, the gather buffers of the batched optimal-rotation
/// kernel and, on the wide-lane path, the `LaneTrigTable` of the lanes in
/// flight (`min(in-flight width, queue length) × n_angles` `(sin, cos)`
/// pairs).  All buffers warm up to the queue length on first use;
/// afterwards a `close_batch` call performs no heap allocation.
#[derive(Debug, Clone, Default)]
pub struct CcdBatchScratch {
    deviation: Vec<f64>,
    initial: Vec<f64>,
    sweeps: Vec<usize>,
    rotations: Vec<usize>,
    // Lanes currently sweeping, in slot order.
    flight: Vec<usize>,
    results: Vec<CcdResult>,
    // Gathered per-rotation inputs, member-major SoA.
    g_lane: Vec<usize>,
    g_pivot: Vec<Vec3>,
    g_axis: Vec<Vec3>,
    g_moving: Vec<[Vec3; 3]>,
    g_theta: Vec<f64>,
    // Lanes whose rotation was accepted this torsion — the rebuild
    // worklist the lane-major spine driver chunks into wide groups.
    g_accept: Vec<usize>,
    // Torsion `(sin, cos)` rows of the in-flight lanes (wide path only).
    #[cfg(feature = "simd")]
    trig: LaneTrigTable,
}

impl CcdBatchScratch {
    /// Create an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        CcdBatchScratch::default()
    }

    /// Per-lane closure statistics of the most recent
    /// [`CcdCloser::close_batch`] call, in lane order.
    pub fn results(&self) -> &[CcdResult] {
        &self.results
    }

    /// How many of the first `lanes` results of the most recent batch
    /// failed to converge (final deviation above the CCD tolerance).  The
    /// sampler's stall guard aggregates this per iteration: a long streak
    /// of all-lanes non-convergence is what `Error::Stalled` reports.
    pub fn non_converged(&self, lanes: usize) -> usize {
        self.results
            .iter()
            .take(lanes)
            .filter(|r| !r.converged)
            .count()
    }

    fn reset(&mut self, lanes: usize) {
        self.deviation.clear();
        self.deviation.resize(lanes, 0.0);
        self.initial.clear();
        self.initial.resize(lanes, 0.0);
        self.sweeps.clear();
        self.sweeps.resize(lanes, 0);
        self.rotations.clear();
        self.rotations.resize(lanes, 0);
        self.flight.clear();
        if self.flight.capacity() < lanes {
            self.flight.reserve(lanes);
        }
        self.results.clear();
        self.g_lane.clear();
        if self.g_lane.capacity() < lanes {
            self.g_lane.reserve(lanes);
            self.g_pivot.reserve(lanes);
            self.g_axis.reserve(lanes);
            self.g_moving.reserve(lanes);
            self.g_theta.reserve(lanes);
        }
        self.g_accept.clear();
        if self.g_accept.capacity() < lanes {
            self.g_accept.reserve(lanes);
        }
    }
}

/// The torsion `(sin, cos)` table of the lanes in flight: one row of
/// `n_angles` pairs per in-flight slot, holding `f64::sin_cos` of each
/// torsion its lane currently stores.  A lane takes a free row when it is
/// admitted ([`admit`](LaneTrigTable::admit), which fills the whole row),
/// keeps it current one entry per accepted rotation
/// ([`refresh`](LaneTrigTable::refresh)), and gives it back at retirement
/// ([`retire`](LaneTrigTable::retire)).  The lane-major spine rebuild reads
/// its ψ/φ lanes from here, so its transcendentals are the same
/// `f64::sin_cos` bits the scalar rebuild computes inline — evaluated once
/// per angle change instead of once per suffix residue.
#[cfg(feature = "simd")]
#[derive(Debug, Clone, Default)]
pub struct LaneTrigTable {
    n_angles: usize,
    // `rows × n_angles` pairs, row-major.
    sin_cos: Vec<(f64, f64)>,
    // The row each queued lane holds while it is in flight.
    row_of: Vec<usize>,
    // Rows no lane holds, popped by the next admission.
    free: Vec<usize>,
}

#[cfg(feature = "simd")]
impl LaneTrigTable {
    /// Create an empty table; [`reset`](LaneTrigTable::reset) sizes it.
    pub fn new() -> Self {
        LaneTrigTable::default()
    }

    /// Size the table for a queue of `lanes` lanes over `n_angles`
    /// torsions with at most `rows` of them in flight at once.  Every row
    /// starts free; no allocation once the buffers have warmed up.
    pub fn reset(&mut self, lanes: usize, rows: usize, n_angles: usize) {
        self.n_angles = n_angles;
        self.sin_cos.clear();
        self.sin_cos.resize(rows * n_angles, (0.0, 0.0));
        self.row_of.clear();
        self.row_of.resize(lanes, usize::MAX);
        self.free.clear();
        self.free.extend((0..rows).rev());
    }

    /// Give `lane` a free row and fill it with the `sin_cos` of every
    /// angle of `torsions`.
    ///
    /// # Panics
    ///
    /// Panics if no row is free (more lanes in flight than `reset` sized).
    pub fn admit(&mut self, lane: usize, torsions: &Torsions) {
        let row = self.free.pop().expect("more lanes in flight than rows");
        self.row_of[lane] = row;
        let n = self.n_angles;
        for (entry, angle) in self.sin_cos[row * n..(row + 1) * n]
            .iter_mut()
            .zip(torsions.as_slice())
        {
            *entry = angle.sin_cos();
        }
    }

    /// Re-evaluate entry `k` of `lane`'s row from its new stored (wrapped)
    /// angle — call right after `rotate_angle(k, δ)`.
    #[inline]
    pub fn refresh(&mut self, lane: usize, k: usize, angle: f64) {
        self.sin_cos[self.row_of[lane] * self.n_angles + k] = angle.sin_cos();
    }

    /// Return `lane`'s row to the free list.
    pub fn retire(&mut self, lane: usize) {
        self.free.push(self.row_of[lane]);
    }

    /// Pack angle `k` of four lanes into `(sin, cos)` lane registers.
    #[inline(always)]
    fn lanes(&self, lanes: [usize; 4], k: usize) -> (f64x4, f64x4) {
        let sc = lanes.map(|j| self.sin_cos[self.row_of[j] * self.n_angles + k]);
        (
            f64x4::from_array([sc[0].0, sc[1].0, sc[2].0, sc[3].0]),
            f64x4::from_array([sc[0].1, sc[1].1, sc[2].1, sc[3].1]),
        )
    }
}

/// The batched optimal-rotation kernel: one tight loop over the gathered
/// member-major SoA arrays, with nothing between the inner products — the
/// lane iterations are independent, so the compiler is free to vectorise
/// across members.  Each lane's angle is computed by the *identical* scalar
/// closed form the sequential sweep uses, so the batch is bit-identical to
/// per-member evaluation by construction.
pub fn optimal_rotation_batch(
    moving: &[[Vec3; 3]],
    targets: &[Vec3; 3],
    pivots: &[Vec3],
    axes: &[Vec3],
    thetas: &mut Vec<f64>,
) {
    debug_assert_eq!(moving.len(), pivots.len());
    debug_assert_eq!(moving.len(), axes.len());
    thetas.clear();
    for j in 0..moving.len() {
        thetas.push(optimal_rotation(&moving[j], targets, pivots[j], axes[j]));
    }
}

/// The explicitly-wide optimal-rotation kernel: the gathered lanes are
/// processed four at a time in wide-`f64` registers (the vendored
/// portable-SIMD shim), with a scalar tail for the remainder.
///
/// **Bit-identity.**  The wide path transposes each chunk of four lanes
/// into SoA component registers and then performs, per lane, *exactly* the
/// scalar kernel's operation sequence — the same left-associated dot
/// products, the same projection and cross-product component expressions,
/// the same serial accumulation over the three anchor-atom pairs — using
/// element-wise IEEE operations (no FMA, no reassociation).  Only the
/// final `atan2` runs scalar per lane.  Every lane therefore matches
/// [`optimal_rotation_batch`] bit for bit (asserted by the tests below and
/// by the cross-backend pipeline equivalence harness in `lms-core`).
#[cfg(feature = "simd")]
pub fn optimal_rotation_batch_wide(
    moving: &[[Vec3; 3]],
    targets: &[Vec3; 3],
    pivots: &[Vec3],
    axes: &[Vec3],
    thetas: &mut Vec<f64>,
) {
    const W: usize = wide::f64x4::LANES;
    debug_assert_eq!(moving.len(), pivots.len());
    debug_assert_eq!(moving.len(), axes.len());
    thetas.clear();
    let n = moving.len();
    let chunks = n / W;
    for c in 0..chunks {
        wide_kernel::optimal_rotation_chunk(moving, targets, pivots, axes, c * W, thetas);
    }
    for j in chunks * W..n {
        thetas.push(optimal_rotation(&moving[j], targets, pivots[j], axes[j]));
    }
}

#[cfg(feature = "simd")]
mod wide_kernel {
    use lms_geometry::Vec3;
    use wide::f64x4;

    /// Wide 3-vector: one component register per coordinate, four lanes
    /// (population members) each.  Every method mirrors the corresponding
    /// `Vec3` operation's exact component expressions and association so
    /// per-lane results are bit-identical to the scalar kernel.
    #[derive(Clone, Copy)]
    struct WVec3 {
        x: f64x4,
        y: f64x4,
        z: f64x4,
    }

    impl WVec3 {
        /// Transpose four consecutive gathered vectors into SoA registers.
        #[inline(always)]
        fn gather(vs: &[Vec3], base: usize) -> WVec3 {
            WVec3 {
                x: f64x4::from_array([vs[base].x, vs[base + 1].x, vs[base + 2].x, vs[base + 3].x]),
                y: f64x4::from_array([vs[base].y, vs[base + 1].y, vs[base + 2].y, vs[base + 3].y]),
                z: f64x4::from_array([vs[base].z, vs[base + 1].z, vs[base + 2].z, vs[base + 3].z]),
            }
        }

        /// Transpose anchor-atom pair `p` of four consecutive lanes.
        #[inline(always)]
        fn gather_pair(moving: &[[Vec3; 3]], base: usize, p: usize) -> WVec3 {
            WVec3 {
                x: f64x4::from_array([
                    moving[base][p].x,
                    moving[base + 1][p].x,
                    moving[base + 2][p].x,
                    moving[base + 3][p].x,
                ]),
                y: f64x4::from_array([
                    moving[base][p].y,
                    moving[base + 1][p].y,
                    moving[base + 2][p].y,
                    moving[base + 3][p].y,
                ]),
                z: f64x4::from_array([
                    moving[base][p].z,
                    moving[base + 1][p].z,
                    moving[base + 2][p].z,
                    moving[base + 3][p].z,
                ]),
            }
        }

        /// Broadcast one vector (the shared anchor target) to all lanes.
        #[inline(always)]
        fn splat(v: Vec3) -> WVec3 {
            WVec3 {
                x: f64x4::splat(v.x),
                y: f64x4::splat(v.y),
                z: f64x4::splat(v.z),
            }
        }

        #[inline(always)]
        fn sub(self, o: WVec3) -> WVec3 {
            WVec3 {
                x: self.x - o.x,
                y: self.y - o.y,
                z: self.z - o.z,
            }
        }

        #[inline(always)]
        fn scale(self, s: f64x4) -> WVec3 {
            WVec3 {
                x: self.x * s,
                y: self.y * s,
                z: self.z * s,
            }
        }

        /// Same left-to-right association as `Vec3::dot`.
        #[inline(always)]
        fn dot(self, o: WVec3) -> f64x4 {
            self.x * o.x + self.y * o.y + self.z * o.z
        }

        /// Same component expressions as `Vec3::cross`.
        #[inline(always)]
        fn cross(self, o: WVec3) -> WVec3 {
            WVec3 {
                x: self.y * o.z - self.z * o.y,
                y: self.z * o.x - self.x * o.z,
                z: self.x * o.y - self.y * o.x,
            }
        }
    }

    /// One four-lane chunk of the Canutescu–Dunbrack closed form: the
    /// scalar `optimal_rotation`, lane-parallel.
    pub(super) fn optimal_rotation_chunk(
        moving: &[[Vec3; 3]],
        targets: &[Vec3; 3],
        pivots: &[Vec3],
        axes: &[Vec3],
        base: usize,
        thetas: &mut Vec<f64>,
    ) {
        let pivot = WVec3::gather(pivots, base);
        let axis = WVec3::gather(axes, base);
        let mut a = f64x4::ZERO;
        let mut b = f64x4::ZERO;
        // Serial accumulation over the three anchor-atom pairs, exactly as
        // the scalar kernel's `for (m, t) in moving.zip(targets)` loop.
        for (p, target) in targets.iter().enumerate() {
            let m_rel = WVec3::gather_pair(moving, base, p).sub(pivot);
            let t_rel = WVec3::splat(*target).sub(pivot);
            // Components perpendicular to the axis.
            let r = m_rel.sub(axis.scale(m_rel.dot(axis)));
            let f = t_rel.sub(axis.scale(t_rel.dot(axis)));
            a += f.dot(r);
            b += f.dot(axis.cross(r));
        }
        let (aa, bb) = (a.to_array(), b.to_array());
        for l in 0..f64x4::LANES {
            thetas.push(if aa[l].abs() < 1e-15 && bb[l].abs() < 1e-15 {
                0.0
            } else {
                bb[l].atan2(aa[l])
            });
        }
    }
}

/// The lane-major (member-transposed) NeRF spine rebuild: every accepted
/// lane of one torsion step rebuilds from the *same* changed angle — and
/// therefore from the same first residue over the same suffix — so the
/// driver chunks the accepted lanes into `f64x4` groups and marches each
/// group through [`SpineKernel::place_spine`] with one member per SIMD
/// lane.  Per lane the kernel performs exactly the scalar
/// [`LoopBuilder::rebuild_spine_from`] operation sequence (see
/// `lms_protein::backbone_wide`), so the rebuilt spines and end frames are
/// bit-identical to the scalar driver's.  Groups in which any lane would
/// take a scalar degeneracy branch fall back to the scalar rebuild per
/// member, which restarts from the untouched prefix and overwrites any
/// partially scattered suffix — bit-identical either way.
///
/// The ψ/φ `(sin, cos)` lanes come from `trig`, which must hold a current
/// row for every accepted lane (see [`LaneTrigTable`]); the N-anchor ψ of a
/// rebuild from residue 0 comes from the kernel's hoisted constants.
///
/// On `x86_64` the drive loop dispatches at runtime to an
/// `#[target_feature(enable = "avx2")]` clone when the host CPU supports
/// AVX2 (`wide::runtime_avx2`), re-compiling the inlined lane arithmetic
/// with the AVX ISA available; the portable/SSE2 path is the fallback.
///
/// Public so the CCD benchmark can time the lane-major rebuild in
/// isolation against the scalar per-member driver; production code reaches
/// it through [`CcdCloser::close_batch`].
#[cfg(feature = "simd")]
#[allow(clippy::too_many_arguments)] // the spine context plus the lanes, their trig rows and the worklist
pub fn rebuild_spine_from_batch(
    builder: &LoopBuilder,
    kernel: &SpineKernel,
    frame: &LoopFrame,
    sequence: &[AminoAcid],
    lanes: &mut [CcdLane<'_>],
    trig: &LaneTrigTable,
    accepted: &[usize],
    changed_angle: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if wide::runtime_avx2() {
        // SAFETY: AVX2 support on the running CPU was just verified.
        unsafe {
            rebuild_spine_from_batch_avx2(
                builder,
                kernel,
                frame,
                sequence,
                lanes,
                trig,
                accepted,
                changed_angle,
            );
        }
        return;
    }
    rebuild_spine_from_batch_generic(
        builder,
        kernel,
        frame,
        sequence,
        lanes,
        trig,
        accepted,
        changed_angle,
    );
}

/// The AVX2-featured clone of the rebuild drive loop: identical code,
/// compiled with the AVX ISA enabled so the `#[inline(always)]` lane
/// arithmetic underneath picks up VEX encodings.  Results are bit-identical
/// to the generic path (every lane operation is the same IEEE instruction
/// either way); only the instruction selection differs.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn rebuild_spine_from_batch_avx2(
    builder: &LoopBuilder,
    kernel: &SpineKernel,
    frame: &LoopFrame,
    sequence: &[AminoAcid],
    lanes: &mut [CcdLane<'_>],
    trig: &LaneTrigTable,
    accepted: &[usize],
    changed_angle: usize,
) {
    rebuild_spine_from_batch_generic(
        builder,
        kernel,
        frame,
        sequence,
        lanes,
        trig,
        accepted,
        changed_angle,
    );
}

#[cfg(feature = "simd")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rebuild_spine_from_batch_generic(
    builder: &LoopBuilder,
    kernel: &SpineKernel,
    frame: &LoopFrame,
    sequence: &[AminoAcid],
    lanes: &mut [CcdLane<'_>],
    trig: &LaneTrigTable,
    accepted: &[usize],
    changed_angle: usize,
) {
    for group in accepted.chunks(wide::f64x4::LANES) {
        rebuild_spine_group(
            builder,
            kernel,
            frame,
            sequence,
            lanes,
            trig,
            group,
            changed_angle,
        );
    }
}

/// Rebuild one group of up to four accepted lanes in lockstep.  Ragged
/// groups pad by replicating the first lane's indices (the pad lanes
/// compute real arithmetic but never scatter), so raggedness cannot change
/// any member's bits.
#[cfg(feature = "simd")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rebuild_spine_group(
    builder: &LoopBuilder,
    kernel: &SpineKernel,
    frame: &LoopFrame,
    sequence: &[AminoAcid],
    lanes: &mut [CcdLane<'_>],
    trig: &LaneTrigTable,
    group: &[usize],
    changed_angle: usize,
) {
    debug_assert!(!group.is_empty() && group.len() <= wide::f64x4::LANES);
    let len = sequence.len();
    let (first, _) = Torsions::describe_angle(changed_angle);
    let idx: [usize; 4] = core::array::from_fn(|l| group[l.min(group.len() - 1)]);

    let scalar_fallback = |lanes: &mut [CcdLane<'_>]| {
        for &j in group {
            let lane = &mut lanes[j];
            builder.rebuild_spine_from(
                frame,
                sequence,
                lane.torsions,
                changed_angle,
                lane.structure,
            );
        }
    };

    // The rebuild context: the shared N-anchor frame for a prefix rebuild
    // (identical in every lane), or each lane's own residue `first - 1`
    // (untouched by this torsion step, so still current).  The ψ/φ
    // `(sin, cos)` lanes come from the trig table: ψ of residue `i` is flat
    // angle `2i + 1`, φ is `2i`.
    let (mut prev_n, mut prev_ca, mut prev_c, (mut psi_sin, mut psi_cos)) = if first == 0 {
        (
            WideVec3::splat(frame.n_anchor.n),
            WideVec3::splat(frame.n_anchor.ca),
            WideVec3::splat(frame.n_anchor.c),
            kernel.n_anchor_psi(),
        )
    } else {
        (
            WideVec3::from_lanes(core::array::from_fn(|l| {
                lanes[idx[l]].structure.residues[first - 1].n
            })),
            WideVec3::from_lanes(core::array::from_fn(|l| {
                lanes[idx[l]].structure.residues[first - 1].ca
            })),
            WideVec3::from_lanes(core::array::from_fn(|l| {
                lanes[idx[l]].structure.residues[first - 1].c
            })),
            trig.lanes(idx, 2 * first - 1),
        )
    };

    for i in first..len {
        let (phi_sin, phi_cos) = trig.lanes(idx, 2 * i);
        let Some((n, ca, c)) =
            kernel.place_spine(prev_n, prev_ca, prev_c, psi_sin, psi_cos, phi_sin, phi_cos)
        else {
            scalar_fallback(lanes);
            return;
        };
        for (l, &j) in group.iter().enumerate() {
            let r = &mut lanes[j].structure.residues[i];
            r.n = n.lane(l);
            r.ca = ca.lane(l);
            r.c = c.lane(l);
        }
        prev_n = n;
        prev_ca = ca;
        prev_c = c;
        (psi_sin, psi_cos) = trig.lanes(idx, 2 * i + 1);
    }

    match kernel.place_end_frame(prev_n, prev_ca, prev_c, psi_sin, psi_cos) {
        Some((n, ca, c)) => {
            for (l, &j) in group.iter().enumerate() {
                lanes[j].structure.end_frame = AnchorFrame::new(n.lane(l), ca.lane(l), c.lane(l));
            }
        }
        None => scalar_fallback(lanes),
    }
}

impl CcdCloser {
    /// Close every lane of one queue, at most
    /// [`lanes_in_flight`](CcdCloser::lanes_in_flight) of them in lockstep
    /// at a time (all of them when unset).
    ///
    /// In-flight lanes march through the same `(sweep, torsion)` schedule,
    /// with out-of-range torsions masked.  At each sweep boundary a lane
    /// whose own `deviation > tolerance && sweeps < max_sweeps` test fails
    /// is retired with its final full build, and the next pending lane (in
    /// lane order) takes its slot.  Per-lane statistics land in
    /// `scratch.results()` (lane order) and each lane's structure buffer
    /// holds the final built candidate, exactly as after a per-member
    /// [`CcdCloser::close_with_scratch`] call.
    ///
    /// # Panics
    ///
    /// Panics if the lanes disagree on torsion count (a queue always comes
    /// from one population over one target).
    pub fn close_batch(
        &self,
        frame: &LoopFrame,
        sequence: &[AminoAcid],
        lanes: &mut [CcdLane<'_>],
        scratch: &mut CcdBatchScratch,
    ) {
        let builder = *self.builder();
        let config = *self.config();
        let targets = frame.c_anchor.atoms();
        // Hoist the lane-major spine kernel's constants (bond-angle
        // products, ω, N-anchor-ψ and C-anchor-φ sin/cos) once per call.
        #[cfg(feature = "simd")]
        let spine_kernel = self
            .wide_lanes()
            .then(|| SpineKernel::new(builder.geometry(), frame));
        scratch.reset(lanes.len());
        if lanes.is_empty() {
            return;
        }
        let n_angles = lanes[0].torsions.n_angles();
        for lane in lanes.iter() {
            assert_eq!(
                lane.torsions.n_angles(),
                n_angles,
                "all lanes of a closure queue must share the loop length"
            );
        }
        let width = self.lanes_in_flight().unwrap_or(lanes.len());
        // The wide path keeps one trig row per in-flight slot.
        #[cfg(feature = "simd")]
        let wide = spine_kernel.is_some();
        #[cfg(feature = "simd")]
        if wide {
            scratch
                .trig
                .reset(lanes.len(), width.min(lanes.len()), n_angles);
        }
        let sweeps_more = |deviation: f64, sweeps: usize| {
            deviation > config.tolerance && sweeps < config.max_sweeps
        };
        let mut pending = 0..lanes.len();

        loop {
            // Sweep boundary: retire every lane whose own `while` condition
            // fails.  The sweeps rebuilt spines only; one full rebuild per
            // rotated lane restores the O atoms and centroids, bit-identical
            // to the sequential path's final state (a full build from the
            // final torsions equals the incremental chain — property-tested
            // in `lms-protein/tests/incremental_rebuild.rs`).  Unrotated
            // lanes still hold their exact initial full build.
            scratch.flight.retain(|&j| {
                if sweeps_more(scratch.deviation[j], scratch.sweeps[j]) {
                    return true;
                }
                #[cfg(feature = "simd")]
                if wide {
                    scratch.trig.retire(j);
                }
                if scratch.rotations[j] > 0 {
                    let lane = &mut lanes[j];
                    builder.build_into(frame, sequence, lane.torsions, lane.structure);
                }
                false
            });

            // Refill the freed slots from the pending queue: initial build
            // + deviation, exactly as the sequential path.  A lane that is
            // already closed at admission retires on the spot; one that
            // sweeps takes a trig row on the wide path.
            while scratch.flight.len() < width {
                let Some(j) = pending.next() else { break };
                let lane = &mut lanes[j];
                builder.build_into(frame, sequence, lane.torsions, lane.structure);
                let dev = builder.closure_deviation(frame, lane.structure);
                scratch.initial[j] = dev;
                scratch.deviation[j] = dev;
                if sweeps_more(dev, 0) {
                    #[cfg(feature = "simd")]
                    if wide {
                        scratch.trig.admit(j, lane.torsions);
                    }
                    scratch.flight.push(j);
                }
            }
            if scratch.flight.is_empty() {
                break;
            }
            for &j in &scratch.flight {
                scratch.sweeps[j] += 1;
            }

            for k in 0..n_angles {
                // Gather phase: every in-flight lane whose start index
                // admits torsion `k` contributes its pivot, axis and moving
                // end frame to the SoA arrays.
                scratch.g_lane.clear();
                scratch.g_pivot.clear();
                scratch.g_axis.clear();
                scratch.g_moving.clear();
                let (residue, kind) = Torsions::describe_angle(k);
                for &j in &scratch.flight {
                    let lane = &lanes[j];
                    if k < lane.start_index.min(n_angles) {
                        continue;
                    }
                    let res_atoms = &lane.structure.residues[residue];
                    let (pivot, axis_end) = match kind {
                        lms_protein::TorsionKind::Phi => (res_atoms.n, res_atoms.ca),
                        lms_protein::TorsionKind::Psi => (res_atoms.ca, res_atoms.c),
                    };
                    let Some(axis) = (axis_end - pivot).try_normalize() else {
                        continue;
                    };
                    scratch.g_lane.push(j);
                    scratch.g_pivot.push(pivot);
                    scratch.g_axis.push(axis);
                    scratch.g_moving.push(lane.structure.end_frame.atoms());
                }

                // Batched inner products across the gathered members —
                // wide-`f64` lanes when the closer (i.e. the SIMD executor
                // backend) asks for them, the scalar kernel otherwise;
                // bit-identical either way.
                #[cfg(feature = "simd")]
                if self.wide_lanes() {
                    optimal_rotation_batch_wide(
                        &scratch.g_moving,
                        &targets,
                        &scratch.g_pivot,
                        &scratch.g_axis,
                        &mut scratch.g_theta,
                    );
                } else {
                    optimal_rotation_batch(
                        &scratch.g_moving,
                        &targets,
                        &scratch.g_pivot,
                        &scratch.g_axis,
                        &mut scratch.g_theta,
                    );
                }
                #[cfg(not(feature = "simd"))]
                optimal_rotation_batch(
                    &scratch.g_moving,
                    &targets,
                    &scratch.g_pivot,
                    &scratch.g_axis,
                    &mut scratch.g_theta,
                );

                // Apply phase: accepted rotations mutate their lane and
                // suffix-rebuild its structure.  Only the backbone spine and
                // the end frame feed the sweep (rotation pivots/axes and the
                // deviation metric), so the rebuild skips the O/centroid
                // placements; the full rebuild at retirement recovers them
                // bit-identically.  Rotations land first so the rebuild
                // worklist can be driven lane-major: all accepted lanes
                // rebuild from the same changed angle `k`.
                scratch.g_accept.clear();
                for (g, &j) in scratch.g_lane.iter().enumerate() {
                    let delta = scratch.g_theta[g];
                    if delta.abs() < 1e-9 {
                        continue;
                    }
                    lanes[j].torsions.rotate_angle(k, delta);
                    #[cfg(feature = "simd")]
                    if wide {
                        scratch.trig.refresh(j, k, lanes[j].torsions.angle(k));
                    }
                    scratch.rotations[j] += 1;
                    scratch.g_accept.push(j);
                }
                #[cfg(feature = "simd")]
                if let Some(kernel) = &spine_kernel {
                    rebuild_spine_from_batch(
                        &builder,
                        kernel,
                        frame,
                        sequence,
                        lanes,
                        &scratch.trig,
                        &scratch.g_accept,
                        k,
                    );
                } else {
                    for &j in &scratch.g_accept {
                        let lane = &mut lanes[j];
                        builder.rebuild_spine_from(
                            frame,
                            sequence,
                            lane.torsions,
                            k,
                            lane.structure,
                        );
                    }
                }
                #[cfg(not(feature = "simd"))]
                for &j in &scratch.g_accept {
                    let lane = &mut lanes[j];
                    builder.rebuild_spine_from(frame, sequence, lane.torsions, k, lane.structure);
                }
            }

            // Post-sweep deviation for the lanes that swept.
            for &j in &scratch.flight {
                scratch.deviation[j] = builder.closure_deviation(frame, lanes[j].structure);
            }
        }

        for j in 0..lanes.len() {
            scratch.results.push(CcdResult {
                converged: scratch.deviation[j] <= config.tolerance,
                sweeps: scratch.sweeps[j],
                initial_deviation: scratch.initial[j],
                final_deviation: scratch.deviation[j],
                rotations_applied: scratch.rotations[j],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ccd::CcdConfig;
    use lms_geometry::deg_to_rad;
    use lms_protein::BenchmarkLibrary;
    use rand::Rng;

    fn perturbed(name: &str, count: usize, seed: u64) -> (lms_protein::LoopTarget, Vec<Torsions>) {
        let target = BenchmarkLibrary::standard().target_by_name(name).unwrap();
        let factory = lms_geometry::StreamRngFactory::new(seed);
        let members = (0..count)
            .map(|m| {
                let mut rng = factory.stream(m as u64, 0);
                let mut t = target.native_torsions.clone();
                for k in 0..t.n_angles() {
                    t.rotate_angle(k, deg_to_rad((rng.gen::<f64>() * 2.0 - 1.0) * 40.0));
                }
                t
            })
            .collect();
        (target, members)
    }

    /// Per-lane outcome of closing a queue: final torsions, structures and
    /// closure statistics, in lane order.
    type Closed = (Vec<Torsions>, Vec<LoopStructure>, Vec<CcdResult>);

    /// Close `queue` (torsions, start index) member by member through the
    /// sequential `close_with_scratch` — the reference every batch matches.
    fn close_each(
        closer: CcdCloser,
        target: &lms_protein::LoopTarget,
        queue: &[(Torsions, usize)],
    ) -> Closed {
        let mut closed = (Vec::new(), Vec::new(), Vec::new());
        for (t, start) in queue {
            let mut t = t.clone();
            let mut s = LoopStructure::with_capacity(target.n_residues());
            let r =
                closer.close_with_scratch(&target.frame, &target.sequence, &mut t, *start, &mut s);
            closed.0.push(t);
            closed.1.push(s);
            closed.2.push(r);
        }
        closed
    }

    /// Close `queue` as one `close_batch` call on `scratch`.
    fn close_queue(
        closer: CcdCloser,
        target: &lms_protein::LoopTarget,
        queue: &[(Torsions, usize)],
        scratch: &mut CcdBatchScratch,
    ) -> Closed {
        let mut torsions: Vec<Torsions> = queue.iter().map(|(t, _)| t.clone()).collect();
        let mut structures: Vec<LoopStructure> = (0..queue.len())
            .map(|_| LoopStructure::with_capacity(target.n_residues()))
            .collect();
        let mut lanes: Vec<CcdLane> = torsions
            .iter_mut()
            .zip(structures.iter_mut())
            .zip(queue)
            .map(|((t, s), &(_, start_index))| CcdLane {
                torsions: t,
                structure: s,
                start_index,
            })
            .collect();
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, scratch);
        drop(lanes);
        (torsions, structures, scratch.results().to_vec())
    }

    #[test]
    fn batch_closure_is_bit_identical_to_per_member() {
        for (name, seed) in [("1cex", 3u64), ("5pti", 11)] {
            let (target, members) = perturbed(name, 7, seed);
            let closer = CcdCloser::with_config(CcdConfig::new().with_max_sweeps(64));
            let n_res = target.n_residues();

            // Per-member reference.
            let mut ref_torsions = members.clone();
            let mut ref_results = Vec::new();
            let mut ref_structures = Vec::new();
            for (m, t) in ref_torsions.iter_mut().enumerate() {
                let mut s = LoopStructure::with_capacity(n_res);
                let start = m % 5; // exercise heterogeneous start indices
                ref_results.push(closer.close_with_scratch(
                    &target.frame,
                    &target.sequence,
                    t,
                    start,
                    &mut s,
                ));
                ref_structures.push(s);
            }

            // One lockstep block over the same members.
            let mut batch_torsions = members.clone();
            let mut structures: Vec<LoopStructure> = (0..members.len())
                .map(|_| LoopStructure::with_capacity(n_res))
                .collect();
            let mut lanes: Vec<CcdLane> = batch_torsions
                .iter_mut()
                .zip(structures.iter_mut())
                .enumerate()
                .map(|(m, (t, s))| CcdLane {
                    torsions: t,
                    structure: s,
                    start_index: m % 5,
                })
                .collect();
            let mut scratch = CcdBatchScratch::new();
            closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
            drop(lanes);

            assert_eq!(batch_torsions, ref_torsions, "{name}: torsions diverged");
            assert_eq!(
                scratch.results(),
                &ref_results[..],
                "{name}: stats diverged"
            );
            assert_eq!(structures, ref_structures, "{name}: structures diverged");
        }
    }

    #[test]
    fn block_partitioning_does_not_change_results() {
        // Closing the same population in blocks of 1, 3 and all-at-once
        // gives identical trajectories: lanes are fully independent.
        let (target, members) = perturbed("1akz", 6, 17);
        let closer = CcdCloser::with_config(CcdConfig::new().with_max_sweeps(48));
        let n_res = target.n_residues();
        let close_in_blocks = |width: usize| -> Vec<Torsions> {
            let mut torsions = members.clone();
            let mut structures: Vec<LoopStructure> = (0..members.len())
                .map(|_| LoopStructure::with_capacity(n_res))
                .collect();
            let mut scratch = CcdBatchScratch::new();
            for (ts, ss) in torsions.chunks_mut(width).zip(structures.chunks_mut(width)) {
                let mut lanes: Vec<CcdLane> = ts
                    .iter_mut()
                    .zip(ss.iter_mut())
                    .map(|(t, s)| CcdLane {
                        torsions: t,
                        structure: s,
                        start_index: 0,
                    })
                    .collect();
                closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
            }
            torsions
        };
        let one = close_in_blocks(1);
        let three = close_in_blocks(3);
        let all = close_in_blocks(members.len());
        assert_eq!(one, three);
        assert_eq!(one, all);
    }

    #[test]
    fn lane_refill_is_bit_identical_at_every_in_flight_width() {
        // Queues of 0, 1, 13 and 40 lanes closed with 1, 3, 4 and 8 lanes
        // in flight match per-member closure and the all-in-flight block:
        // whichever slot a lane sweeps in, and whenever it is admitted,
        // its arithmetic is its own.  The mix includes lanes that are
        // already closed at admission (native torsions) and lanes whose
        // start index excludes every torsion.
        let (target, perturbed_members) = perturbed("1cex", 40, 29);
        let n_angles = target.native_torsions.n_angles();
        let members: Vec<(Torsions, usize)> = perturbed_members
            .into_iter()
            .enumerate()
            .map(|(m, t)| match m % 9 {
                2 => (target.native_torsions.clone(), 0),
                5 => (t, n_angles + m % 2),
                _ => (t, m % 4),
            })
            .collect();
        let config = CcdConfig::new().with_max_sweeps(24);
        let close = |closer: CcdCloser, queue: &[(Torsions, usize)]| {
            close_queue(closer, &target, queue, &mut CcdBatchScratch::new())
        };
        let wide_modes: &[bool] = if cfg!(feature = "simd") {
            &[false, true]
        } else {
            &[false]
        };
        for &len in &[0usize, 1, 13, 40] {
            let queue = &members[..len];
            let reference = close_each(CcdCloser::with_config(config), &target, queue);
            if len == 40 {
                assert!(reference.2.iter().any(|r| r.sweeps == 0 && r.converged));
                assert!(reference
                    .2
                    .iter()
                    .any(|r| r.sweeps > 0 && r.rotations_applied == 0));
            }
            for &wide in wide_modes {
                let closer = CcdCloser::with_config(config).with_wide_lanes(wide);
                assert_eq!(
                    close(closer, queue),
                    reference,
                    "all in flight, {len} lanes"
                );
                for width in [1usize, 3, 4, 8] {
                    let refill = closer.with_lanes_in_flight(width);
                    assert_eq!(refill.lanes_in_flight(), Some(width));
                    assert_eq!(
                        close(refill, queue),
                        reference,
                        "{width} in flight, {len} lanes, wide {wide}"
                    );
                }
            }
        }
    }

    #[cfg(feature = "simd")]
    #[test]
    fn trig_rows_never_go_stale_across_scratch_reuse() {
        // One scratch closes 1cex, then 5pti (another loop length), then
        // 1cex again, on wide lanes at several in-flight widths.  Each
        // queue mixes lanes closed at admission (native torsions, which
        // never take a trig row) with sweeping lanes of varied start
        // index, so rows are handed from lane to lane, from queue to queue
        // and across a change of row length: a row read by the lane-major
        // rebuild must always be its own lane's, current to its last
        // rotation.
        let config = CcdConfig::new().with_max_sweeps(24);
        let queues: Vec<_> = [("1cex", 41u64), ("5pti", 43), ("1cex", 47)]
            .into_iter()
            .map(|(name, seed)| {
                let (target, members) = perturbed(name, 11, seed);
                let queue: Vec<(Torsions, usize)> = members
                    .into_iter()
                    .enumerate()
                    .map(|(m, t)| match m % 4 {
                        1 => (target.native_torsions.clone(), 0),
                        _ => (t, m % 3),
                    })
                    .collect();
                (target, queue)
            })
            .collect();
        assert_ne!(queues[0].0.n_residues(), queues[1].0.n_residues());
        for width in [1usize, 3, 8] {
            let closer = CcdCloser::with_config(config)
                .with_wide_lanes(true)
                .with_lanes_in_flight(width);
            let mut scratch = CcdBatchScratch::new();
            for (target, queue) in &queues {
                let reference = close_each(CcdCloser::with_config(config), target, queue);
                assert!(reference.2.iter().any(|r| r.sweeps == 0 && r.converged));
                assert!(reference.2.iter().any(|r| r.rotations_applied > 0));
                assert_eq!(
                    close_queue(closer, target, queue, &mut scratch),
                    reference,
                    "{} at {width} in flight",
                    target.name
                );
            }
        }
    }

    #[test]
    fn batch_rotation_kernel_matches_scalar() {
        let targets = [
            Vec3::new(2.0, 0.5, 1.0),
            Vec3::new(-1.0, 3.0, -1.0),
            Vec3::new(1.5, 1.5, 0.5),
        ];
        let moving: Vec<[Vec3; 3]> = (0..16)
            .map(|i| {
                let s = i as f64 * 0.37;
                [
                    Vec3::new(2.0 + s, 0.5 - s, 1.0),
                    Vec3::new(-1.0, 3.0 + s, -1.0 + s),
                    Vec3::new(1.5 - s, 1.5, 0.5 + s),
                ]
            })
            .collect();
        let pivots: Vec<Vec3> = (0..16)
            .map(|i| Vec3::new(0.1 * i as f64, 0.0, 0.0))
            .collect();
        let axes: Vec<Vec3> = (0..16)
            .map(|i| Vec3::new(0.2 * i as f64, 1.0, 0.5).try_normalize().unwrap())
            .collect();
        let mut thetas = Vec::new();
        optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut thetas);
        for j in 0..16 {
            let scalar = optimal_rotation(&moving[j], &targets, pivots[j], axes[j]);
            assert_eq!(thetas[j].to_bits(), scalar.to_bits(), "lane {j}");
        }
    }

    #[cfg(feature = "simd")]
    #[test]
    fn wide_rotation_kernel_is_bit_identical_to_scalar() {
        // 19 lanes: four full wide chunks plus a 3-lane scalar tail.
        let targets = [
            Vec3::new(2.0, 0.5, 1.0),
            Vec3::new(-1.0, 3.0, -1.0),
            Vec3::new(1.5, 1.5, 0.5),
        ];
        let n = 19;
        let moving: Vec<[Vec3; 3]> = (0..n)
            .map(|i| {
                let s = i as f64 * 0.31 - 2.0;
                [
                    Vec3::new(2.0 + s, 0.5 - s, 1.0 + 0.1 * s),
                    Vec3::new(-1.0 - s, 3.0 + s, -1.0 + s),
                    Vec3::new(1.5 - s, 1.5 + 0.3 * s, 0.5 + s),
                ]
            })
            .collect();
        let pivots: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new(0.1 * i as f64, -0.05 * i as f64, 0.2))
            .collect();
        let axes: Vec<Vec3> = (0..n)
            .map(|i| {
                Vec3::new(0.2 * i as f64 - 1.0, 1.0, 0.5)
                    .try_normalize()
                    .unwrap()
            })
            .collect();
        let mut scalar = Vec::new();
        let mut wide = Vec::new();
        optimal_rotation_batch(&moving, &targets, &pivots, &axes, &mut scalar);
        optimal_rotation_batch_wide(&moving, &targets, &pivots, &axes, &mut wide);
        assert_eq!(scalar.len(), wide.len());
        for j in 0..n {
            assert_eq!(wide[j].to_bits(), scalar[j].to_bits(), "lane {j}");
        }
    }

    #[cfg(feature = "simd")]
    #[test]
    fn wide_close_batch_is_bit_identical_to_scalar_close_batch() {
        for (name, seed) in [("1cex", 3u64), ("1akz", 23)] {
            let (target, members) = perturbed(name, 9, seed);
            let n_res = target.n_residues();
            let config = CcdConfig::new().with_max_sweeps(64);
            let run = |wide: bool| {
                let closer = CcdCloser::with_config(config).with_wide_lanes(wide);
                let mut torsions = members.clone();
                let mut structures: Vec<LoopStructure> = (0..members.len())
                    .map(|_| LoopStructure::with_capacity(n_res))
                    .collect();
                let mut lanes: Vec<CcdLane> = torsions
                    .iter_mut()
                    .zip(structures.iter_mut())
                    .enumerate()
                    .map(|(m, (t, s))| CcdLane {
                        torsions: t,
                        structure: s,
                        start_index: m % 3,
                    })
                    .collect();
                let mut scratch = CcdBatchScratch::new();
                closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
                drop(lanes);
                (torsions, structures, scratch.results().to_vec())
            };
            let (st, ss, sr) = run(false);
            let (wt, ws, wr) = run(true);
            assert_eq!(st, wt, "{name}: torsions diverged");
            assert_eq!(ss, ws, "{name}: structures diverged");
            assert_eq!(sr, wr, "{name}: stats diverged");
        }
    }

    #[test]
    fn empty_and_converged_blocks_are_noops() {
        let mut scratch = CcdBatchScratch::new();
        let closer = CcdCloser::default();
        let target = BenchmarkLibrary::standard().target_by_name("5pti").unwrap();
        let mut lanes: Vec<CcdLane> = Vec::new();
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
        assert!(scratch.results().is_empty());

        // A native (already closed) lane performs zero sweeps.
        let mut t = target.native_torsions.clone();
        let mut s = LoopStructure::with_capacity(target.n_residues());
        let mut lanes = vec![CcdLane {
            torsions: &mut t,
            structure: &mut s,
            start_index: 0,
        }];
        closer.close_batch(&target.frame, &target.sequence, &mut lanes, &mut scratch);
        drop(lanes);
        assert_eq!(scratch.results().len(), 1);
        assert!(scratch.results()[0].converged);
        assert_eq!(scratch.results()[0].sweeps, 0);
        assert_eq!(scratch.results()[0].rotations_applied, 0);
        assert_eq!(scratch.non_converged(1), 0);
        assert_eq!(t, target.native_torsions);
    }
}
