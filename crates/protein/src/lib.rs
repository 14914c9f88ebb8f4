//! # lms-protein
//!
//! Protein model substrate for the loop-modeling suite: amino-acid types,
//! torsion-angle loop representation, NeRF backbone construction, the fixed
//! protein environment with a spatial index, Ramachandran torsion
//! statistics, the 53-target synthetic long-loop benchmark library, and a
//! minimal PDB writer/reader.
//!
//! ## Quick example
//!
//! ```
//! use lms_protein::{BenchmarkLibrary, LoopBuilder};
//!
//! // Generate the paper's 1cex(40:51) target (synthetic stand-in) and
//! // rebuild its native loop from its torsion vector.
//! let library = BenchmarkLibrary::standard();
//! let target = library.target_by_name("1cex").expect("1cex is in the benchmark");
//! let builder = LoopBuilder::default();
//! let native = target.build(&builder, &target.native_torsions);
//! assert!(target.rmsd_to_native(&native) < 1e-9);
//! assert!(target.closure_deviation(&native) < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod amino;
pub mod backbone;
#[cfg(feature = "simd")]
pub mod backbone_wide;
pub mod benchmark;
pub mod environment;
pub mod loop_def;
pub mod pdb;
pub mod ramachandran;
pub mod torsions;

pub use amino::{format_sequence, parse_sequence, AminoAcid, RamaClass};
pub use backbone::{
    build_segment_de_novo, AnchorFrame, BackboneGeometry, LoopBuilder, LoopFrame, LoopStructure,
    ResidueAtoms,
};
#[cfg(feature = "simd")]
pub use backbone_wide::{SpineKernel, WideVec3};
pub use benchmark::{standard_specs, BenchmarkLibrary, TargetSpec};
pub use environment::{EnvAtom, EnvCandidates, Environment};
pub use loop_def::{LoopTarget, ENV_CONTACT_MARGIN};
pub use pdb::{parse_pdb_atoms, to_pdb, PdbAtom};
pub use ramachandran::{RamaBasin, RamaLibrary, RamaModel};
pub use torsions::{TorsionKind, Torsions};
