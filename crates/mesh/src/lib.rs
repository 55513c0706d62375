//! # hetero-mesh
//!
//! Structured 3-D hexahedral meshes for the `hetero-hpc` reproduction of
//! *Experiences with Target-Platform Heterogeneity in Clouds, Grids, and
//! On-Premises Resources* (Slawinski et al., 2012).
//!
//! The paper's two CFD test cases are both posed on a cube discretized by a
//! structured mesh whose per-process size is held at `20^3` elements for the
//! weak-scaling study. This crate provides:
//!
//! * [`Point3`] / [`Index3`] — geometric and lattice primitives;
//! * [`StructuredHexMesh`] — an `nx x ny x nz` hexahedral mesh over an
//!   axis-aligned box, with cell/corner indexing, boundary queries, and
//!   corner connectivity;
//! * [`DistributedMesh`] — the view a single rank holds after partitioning:
//!   owned cells, neighbouring ranks, and shared-interface footprints;
//! * [`quality::load_imbalance`] — the paper's load-balance criterion.
//!
//! Element *order* (Q1 trilinear vs Q2 triquadratic) is a property of the FEM
//! discretization, not of the geometry, so degree-of-freedom lattices live in
//! `hetero-fem`; this crate deals in cells and geometric corners only.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod hex;
pub mod point;
pub mod quality;

pub use distributed::DistributedMesh;
pub use hex::{BoundaryFace, StructuredHexMesh};
pub use point::{Index3, Point3};
