//! # lms-closure
//!
//! Cyclic Coordinate Descent (CCD) loop closure for torsion-space loop
//! models (Canutescu & Dunbrack, 2003).  Given a loop whose torsions were
//! just mutated, [`CcdCloser`] sweeps over the rotatable torsions and
//! analytically minimises the distance between the loop's moving end frame
//! and the fixed C-terminal anchor until the loop closure condition is met.
//!
//! ## Quick example
//!
//! ```
//! use lms_closure::{CcdCloser, CcdConfig};
//! use lms_protein::BenchmarkLibrary;
//! use lms_geometry::deg_to_rad;
//!
//! let target = BenchmarkLibrary::standard().target_by_name("1cex").unwrap();
//! // Perturb the native torsions, breaking closure.
//! let mut torsions = target.native_torsions.clone();
//! torsions.rotate_angle(5, deg_to_rad(35.0));
//! // CCD repairs the break.
//! let closer = CcdCloser::with_config(CcdConfig::default());
//! let result = closer.close(&target.frame, &target.sequence, &mut torsions);
//! assert!(result.converged);
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod ccd;

#[cfg(feature = "simd")]
pub use batch::optimal_rotation_batch_wide;
pub use batch::{optimal_rotation_batch, CcdBatchScratch, CcdLane};
#[cfg(feature = "simd")]
pub use batch::{rebuild_spine_from_batch, LaneTrigTable};
pub use ccd::{CcdCloser, CcdConfig, CcdResult};
