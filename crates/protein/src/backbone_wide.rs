//! Lane-major (member-transposed) NeRF spine math: the wide counterpart of
//! [`LoopBuilder::rebuild_spine_from`]'s placement chain.
//!
//! The lockstep-CCD batch driver marches up to four population members —
//! all rebuilding from the *same* changed torsion, and therefore from the
//! same first residue over the same suffix — through the NeRF recurrence
//! with each member's arithmetic confined to its own `f64x4` lane.  Every
//! operation here mirrors the exact scalar expression of
//! [`place_atom`](lms_geometry::place_atom) / `LoopBuilder::place_spine`:
//! the same left-associated dot products, the same cross-product component
//! expressions, the same `norm = dot(self).sqrt()` normalization, the same
//! `((c + bc·dx) + m·dy) + n·dz` association — using element-wise IEEE
//! lane operations (no FMA, no reassociation).  A wide rebuild is therefore
//! **bit-identical to the scalar rebuild by construction** whenever every
//! lane stays on the scalar fast path.
//!
//! # Degeneracy guard
//!
//! The scalar `place_atom` has two rare branches (a near-zero `bc` bond
//! direction and a collinear-context normal fallback).  Branching per lane
//! would break the lockstep shape, so the wide kernel instead applies a
//! *whole-group* guard: if any lane's normalization fails the scalar
//! `norm > 1e-12` test, the group returns `None` and the driver re-runs
//! each member through the scalar `rebuild_spine_from` (which restarts from
//! the untouched prefix, overwriting any partially scattered suffix).
//! Either way every member gets exactly the scalar result.
//!
//! # Constant pre-computation
//!
//! The three bond angles of a spine step and the ω torsion are covalent
//! constants, and the N-anchor ψ and C-anchor φ are fixed per closure
//! frame; their `sin_cos` values (and the `-L·cosθ` / `L·sinθ` products
//! `place_atom` derives from them) are identical on every call, so
//! [`SpineKernel`] computes them once per batch with the same
//! `f64::sin_cos` the scalar path calls.  Only the loop's own ψ and φ vary
//! per lane, and the kernel takes their `(sin, cos)` ready-made: the CCD
//! batch driver keeps a table of each in-flight member's torsion
//! `f64::sin_cos` results, refreshing one entry per accepted rotation, so
//! the wide rebuild calls no libm at all while handing every lane the bits
//! the scalar path's inline calls produce.

use crate::backbone::{BackboneGeometry, LoopFrame};
use lms_geometry::Vec3;
use wide::f64x4;

/// Wide 3-vector: one component register per coordinate, four lanes
/// (population members) each.  Methods mirror the corresponding [`Vec3`]
/// operation's exact component expressions and association.
#[derive(Clone, Copy, Debug)]
pub struct WideVec3 {
    /// X components, one lane per member.
    pub x: f64x4,
    /// Y components, one lane per member.
    pub y: f64x4,
    /// Z components, one lane per member.
    pub z: f64x4,
}

impl WideVec3 {
    /// Broadcast one vector to all lanes.
    #[inline(always)]
    pub fn splat(v: Vec3) -> WideVec3 {
        WideVec3 {
            x: f64x4::splat(v.x),
            y: f64x4::splat(v.y),
            z: f64x4::splat(v.z),
        }
    }

    /// Transpose four per-member vectors into SoA lane registers.
    #[inline(always)]
    pub fn from_lanes(vs: [Vec3; 4]) -> WideVec3 {
        WideVec3 {
            x: f64x4::from_array([vs[0].x, vs[1].x, vs[2].x, vs[3].x]),
            y: f64x4::from_array([vs[0].y, vs[1].y, vs[2].y, vs[3].y]),
            z: f64x4::from_array([vs[0].z, vs[1].z, vs[2].z, vs[3].z]),
        }
    }

    /// Extract one member's vector.
    #[inline(always)]
    pub fn lane(&self, l: usize) -> Vec3 {
        Vec3::new(
            self.x.as_array_ref()[l],
            self.y.as_array_ref()[l],
            self.z.as_array_ref()[l],
        )
    }

    /// Component-wise `self + o` (as `Vec3::add`).
    #[inline(always)]
    fn add(self, o: WideVec3) -> WideVec3 {
        WideVec3 {
            x: self.x + o.x,
            y: self.y + o.y,
            z: self.z + o.z,
        }
    }

    /// Component-wise `self - o` (as `Vec3::sub`).
    #[inline(always)]
    fn sub(self, o: WideVec3) -> WideVec3 {
        WideVec3 {
            x: self.x - o.x,
            y: self.y - o.y,
            z: self.z - o.z,
        }
    }

    /// Per-lane scale (as `Vec3 * f64`, component-wise).
    #[inline(always)]
    fn scale(self, s: f64x4) -> WideVec3 {
        WideVec3 {
            x: self.x * s,
            y: self.y * s,
            z: self.z * s,
        }
    }

    /// Same left-to-right association as `Vec3::dot`.
    #[inline(always)]
    fn dot(self, o: WideVec3) -> f64x4 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Same component expressions as `Vec3::cross`.
    #[inline(always)]
    fn cross(self, o: WideVec3) -> WideVec3 {
        WideVec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    /// The wide `Vec3::try_normalize`: `norm = dot(self).sqrt()`, then the
    /// scalar `norm > 1e-12` test applied as a whole-group guard — `None`
    /// unless *every* lane passes — then the component-wise division
    /// `self / norm`.  Per-lane bits match the scalar path exactly on
    /// `Some`.
    #[inline(always)]
    fn try_normalize(self) -> Option<WideVec3> {
        let n = self.dot(self).sqrt();
        if !n.all_gt(1e-12) {
            return None;
        }
        Some(WideVec3 {
            x: self.x / n,
            y: self.y / n,
            z: self.z / n,
        })
    }
}

/// The constant factors of one NeRF placement step: `place_atom` computes
/// `d_local = (-L·cosθ, (L·sinθ)·cosφ, (L·sinθ)·sinφ)` with the bond angle
/// θ fixed by covalent geometry, so `-L·cosθ` and `L·sinθ` are the same
/// bits on every call and can be hoisted out of the recurrence.
#[derive(Clone, Copy, Debug)]
struct StepConsts {
    /// `-bond_length * cos(bond_angle)`, the local-frame x displacement.
    neg_l_cos_t: f64,
    /// `bond_length * sin(bond_angle)`, the factor of both the y and z
    /// local displacements (scalar `place_atom` multiplies it by the
    /// dihedral's cos/sin, left-associated — exactly what hoisting gives).
    l_sin_t: f64,
}

impl StepConsts {
    fn new(bond_length: f64, bond_angle: f64) -> StepConsts {
        let (sin_t, cos_t) = bond_angle.sin_cos();
        StepConsts {
            neg_l_cos_t: -bond_length * cos_t,
            l_sin_t: bond_length * sin_t,
        }
    }
}

/// Precomputed constants of a lane-major spine rebuild over one closure
/// frame: the three per-step bond constants, the ω `sin_cos`, the N-anchor
/// ψ `sin_cos` and the C-anchor φ `sin_cos`.  Build once per `close_batch`
/// call; reuse for every rebuild group of the block.
#[derive(Clone, Copy, Debug)]
pub struct SpineKernel {
    /// N_i step: bond C'→N, angle Cα-C'-N, dihedral = previous ψ.
    n_step: StepConsts,
    /// Cα_i step: bond N→Cα, angle C'-N-Cα, dihedral = ω (constant).
    ca_step: StepConsts,
    /// C'_i step: bond Cα→C', angle N-Cα-C', dihedral = φ_i.
    c_step: StepConsts,
    omega_sin: f64,
    omega_cos: f64,
    n_anchor_psi_sin: f64,
    n_anchor_psi_cos: f64,
    c_anchor_phi_sin: f64,
    c_anchor_phi_cos: f64,
}

impl SpineKernel {
    /// Precompute the placement constants for one geometry and closure
    /// frame.  Uses the same `f64::sin_cos` the scalar placements call, so
    /// the hoisted values are the bits the scalar path recomputes inline.
    pub fn new(geometry: &BackboneGeometry, frame: &LoopFrame) -> SpineKernel {
        let (omega_sin, omega_cos) = geometry.omega.sin_cos();
        let (n_anchor_psi_sin, n_anchor_psi_cos) = frame.n_anchor_psi.sin_cos();
        let (c_anchor_phi_sin, c_anchor_phi_cos) = frame.c_anchor_phi.sin_cos();
        SpineKernel {
            n_step: StepConsts::new(geometry.len_c_n, geometry.ang_ca_c_n),
            ca_step: StepConsts::new(geometry.len_n_ca, geometry.ang_c_n_ca),
            c_step: StepConsts::new(geometry.len_ca_c, geometry.ang_n_ca_c),
            omega_sin,
            omega_cos,
            n_anchor_psi_sin,
            n_anchor_psi_cos,
            c_anchor_phi_sin,
            c_anchor_phi_cos,
        }
    }

    /// The N-anchor ψ `(sin, cos)` splatted to every lane: the dihedral of
    /// the first residue's N placement when a rebuild starts at residue 0.
    #[inline(always)]
    pub fn n_anchor_psi(&self) -> (f64x4, f64x4) {
        (
            f64x4::splat(self.n_anchor_psi_sin),
            f64x4::splat(self.n_anchor_psi_cos),
        )
    }

    /// The wide `place_atom`: same operation sequence as the scalar
    /// (`bc` normalize → context normal → in-plane axis → local
    /// displacement → left-associated accumulation), with the bond-angle
    /// products splatted from the precomputed constants and the dihedral
    /// `sin`/`cos` supplied per lane.  `None` if any lane would take a
    /// scalar fallback branch.
    #[inline(always)]
    fn place_atom(
        a: WideVec3,
        b: WideVec3,
        c: WideVec3,
        step: StepConsts,
        sin_p: f64x4,
        cos_p: f64x4,
    ) -> Option<WideVec3> {
        let bc = c.sub(b).try_normalize()?;
        let ab = b.sub(a);
        let n = ab.cross(bc).try_normalize()?;
        let m = n.cross(bc);
        let d_x = f64x4::splat(step.neg_l_cos_t);
        let d_y = f64x4::splat(step.l_sin_t) * cos_p;
        let d_z = f64x4::splat(step.l_sin_t) * sin_p;
        Some(c.add(bc.scale(d_x)).add(m.scale(d_y)).add(n.scale(d_z)))
    }

    /// Place one residue's N, Cα and C' for up to four members at once —
    /// the lane-major `LoopBuilder::place_spine`.  `psi_*` are the previous
    /// residues' ψ `sin_cos` lanes, `phi_*` this residue's φ lanes.
    /// Returns `None` (rebuild the group through the scalar path) if any
    /// lane hits a degeneracy branch.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)] // the NeRF lane context is 3 wide points + 2 wide angles
    pub fn place_spine(
        &self,
        prev_n: WideVec3,
        prev_ca: WideVec3,
        prev_c: WideVec3,
        psi_sin: f64x4,
        psi_cos: f64x4,
        phi_sin: f64x4,
        phi_cos: f64x4,
    ) -> Option<(WideVec3, WideVec3, WideVec3)> {
        let n = Self::place_atom(prev_n, prev_ca, prev_c, self.n_step, psi_sin, psi_cos)?;
        let ca = Self::place_atom(
            prev_ca,
            prev_c,
            n,
            self.ca_step,
            f64x4::splat(self.omega_sin),
            f64x4::splat(self.omega_cos),
        )?;
        let c = Self::place_atom(prev_c, n, ca, self.c_step, phi_sin, phi_cos)?;
        Some((n, ca, c))
    }

    /// Place the moving C-anchor frames — the lane-major
    /// `LoopBuilder::place_end_frame`, which is the spine step with the
    /// fixed C-anchor φ as the final dihedral.
    #[inline(always)]
    pub fn place_end_frame(
        &self,
        prev_n: WideVec3,
        prev_ca: WideVec3,
        prev_c: WideVec3,
        psi_sin: f64x4,
        psi_cos: f64x4,
    ) -> Option<(WideVec3, WideVec3, WideVec3)> {
        self.place_spine(
            prev_n,
            prev_ca,
            prev_c,
            psi_sin,
            psi_cos,
            f64x4::splat(self.c_anchor_phi_sin),
            f64x4::splat(self.c_anchor_phi_cos),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backbone::{LoopBuilder, LoopStructure};
    use crate::benchmark::BenchmarkLibrary;
    use lms_geometry::deg_to_rad;

    /// Pack per-lane `f64::sin_cos` results into `(sin, cos)` lane
    /// registers — the values the scalar rebuild computes inline.
    fn sin_cos_lanes(angles: [f64; 4]) -> (f64x4, f64x4) {
        let sc = angles.map(f64::sin_cos);
        (
            f64x4::from_array([sc[0].0, sc[1].0, sc[2].0, sc[3].0]),
            f64x4::from_array([sc[0].1, sc[1].1, sc[2].1, sc[3].1]),
        )
    }

    /// Four members rebuilt lane-major from the same changed torsion match
    /// the scalar `rebuild_spine_from` bit for bit on every spine atom and
    /// the end frame.
    #[test]
    fn lane_major_spine_matches_scalar_rebuild() {
        let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
        let builder = LoopBuilder::default();
        let kernel = SpineKernel::new(builder.geometry(), &target.frame);
        let n_res = target.n_residues();

        // Four members: the native torsions nudged differently per lane.
        let torsions: Vec<_> = (0..4)
            .map(|l| {
                let mut t = target.native_torsions.clone();
                for k in 0..t.n_angles() {
                    t.rotate_angle(k, deg_to_rad((l as f64 + 1.0) * 3.0 + k as f64));
                }
                t
            })
            .collect();

        for changed_angle in [0usize, 1, 5, 2 * n_res - 1] {
            // Scalar reference structures.
            let mut scalar: Vec<LoopStructure> = torsions
                .iter()
                .map(|t| {
                    let mut s = target.build(&builder, t);
                    builder.rebuild_spine_from(
                        &target.frame,
                        &target.sequence,
                        t,
                        changed_angle,
                        &mut s,
                    );
                    s
                })
                .collect();

            // Lane-major rebuild of the same suffix.
            let (first, _) = crate::Torsions::describe_angle(changed_angle);
            let mut wide: Vec<LoopStructure> =
                torsions.iter().map(|t| target.build(&builder, t)).collect();
            let (mut prev_n, mut prev_ca, mut prev_c, mut prev_psi) = if first == 0 {
                (
                    WideVec3::splat(target.frame.n_anchor.n),
                    WideVec3::splat(target.frame.n_anchor.ca),
                    WideVec3::splat(target.frame.n_anchor.c),
                    [target.frame.n_anchor_psi; 4],
                )
            } else {
                (
                    WideVec3::from_lanes(core::array::from_fn(|l| wide[l].residues[first - 1].n)),
                    WideVec3::from_lanes(core::array::from_fn(|l| wide[l].residues[first - 1].ca)),
                    WideVec3::from_lanes(core::array::from_fn(|l| wide[l].residues[first - 1].c)),
                    core::array::from_fn(|l| torsions[l].psi(first - 1)),
                )
            };
            for i in first..n_res {
                let (psi_sin, psi_cos) = sin_cos_lanes(prev_psi);
                let (phi_sin, phi_cos) =
                    sin_cos_lanes(core::array::from_fn(|l| torsions[l].phi(i)));
                let (n, ca, c) = kernel
                    .place_spine(prev_n, prev_ca, prev_c, psi_sin, psi_cos, phi_sin, phi_cos)
                    .expect("benchmark geometry is non-degenerate");
                for (l, w) in wide.iter_mut().enumerate() {
                    w.residues[i].n = n.lane(l);
                    w.residues[i].ca = ca.lane(l);
                    w.residues[i].c = c.lane(l);
                }
                prev_n = n;
                prev_ca = ca;
                prev_c = c;
                prev_psi = core::array::from_fn(|l| torsions[l].psi(i));
            }
            let (psi_sin, psi_cos) = sin_cos_lanes(prev_psi);
            let (n, ca, c) = kernel
                .place_end_frame(prev_n, prev_ca, prev_c, psi_sin, psi_cos)
                .expect("non-degenerate");
            for (l, w) in wide.iter_mut().enumerate() {
                w.end_frame = crate::AnchorFrame::new(n.lane(l), ca.lane(l), c.lane(l));
            }

            for l in 0..4 {
                for i in 0..n_res {
                    let (ws, ss) = (&wide[l].residues[i], &scalar[l].residues[i]);
                    assert_eq!(ws.n, ss.n, "angle {changed_angle} lane {l} residue {i} N");
                    assert_eq!(
                        ws.ca, ss.ca,
                        "angle {changed_angle} lane {l} residue {i} CA"
                    );
                    assert_eq!(ws.c, ss.c, "angle {changed_angle} lane {l} residue {i} C");
                }
                assert_eq!(
                    wide[l].end_frame.atoms(),
                    scalar[l].end_frame.atoms(),
                    "angle {changed_angle} lane {l} end frame"
                );
            }
            // Keep `scalar` alive past the comparisons for clarity.
            scalar.clear();
        }
    }

    /// A degenerate context (zero-length bond direction in some lane)
    /// makes the whole group decline rather than diverge from the scalar
    /// branch structure.
    #[test]
    fn degenerate_lane_fails_the_whole_group() {
        let target = BenchmarkLibrary::standard().target_by_name("5pti").unwrap();
        let builder = LoopBuilder::default();
        let kernel = SpineKernel::new(builder.geometry(), &target.frame);
        let p = WideVec3::splat(target.frame.n_anchor.n);
        // prev_ca == prev_c collapses the bc bond direction in every lane.
        let (s, c) = sin_cos_lanes([0.1, 0.2, 0.3, 0.4]);
        assert!(kernel.place_spine(p, p, p, s, c, s, c).is_none());
    }
}
