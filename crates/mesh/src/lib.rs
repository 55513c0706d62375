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
//!   axis-aligned box, with cell indexing and geometry;
//! * [`DistributedMesh`] — the view a single rank holds after partitioning:
//!   its owned cells and the owner of every shared lattice node.
//!
//! Element *order* (Q1 trilinear vs Q2 triquadratic) is a property of the FEM
//! discretization, not of the geometry, so degree-of-freedom lattices live in
//! `hetero-fem`; this crate deals in cells, and in lattice nodes only to
//! say which rank owns one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;
pub mod hex;
pub mod point;

pub use distributed::DistributedMesh;
pub use hex::StructuredHexMesh;
pub use point::{Index3, Point3};
