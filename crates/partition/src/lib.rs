//! # hetero-partition
//!
//! Mesh partitioning for the `hetero-hpc` reproduction — the stand-in for
//! ParMETIS in the paper's software stack ("this splitting is achieved by
//! resorting to graph partitioning algorithms, such as those implemented in
//! the library ParMETIS, guaranteeing a proper load balancing among
//! processes. The load is measured as the number of mesh elements assigned to
//! each process.").
//!
//! Provided algorithms:
//!
//! * [`BlockPartitioner`] — structured `px x py x pz` block decomposition
//!   with closed-form layout queries ([`BlockLayout`]), the workhorse for the
//!   weak-scaling experiments (the paper's `k^3`-rank runs decompose the cube
//!   into `k^3` sub-cubes) and the only layout the modeled execution engine
//!   needs at 1000 ranks;
//! * [`RcbPartitioner`] — recursive coordinate bisection over cell
//!   centroids, the geometry-only alternative a checkpoint is restarted onto
//!   to show snapshots are partition-independent.
//!
//! Load balance — the paper's criterion — is measured with
//! [`hetero_mesh::quality::load_imbalance`]. There is no dual-graph
//! partitioner: every run decomposes the paper's cube structurally, so a
//! graph-growing/refinement stack would have no caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod rcb;

pub use block::{BlockLayout, BlockPartitioner};
pub use rcb::RcbPartitioner;

use hetero_mesh::StructuredHexMesh;

/// A mesh partitioner: assigns every cell of `mesh` to one of `num_parts`
/// parts, returning the cell-to-part map in linear cell order.
pub trait Partitioner {
    /// Computes the assignment. Implementations must return a vector of
    /// length `mesh.num_cells()` with every entry `< num_parts`, and must be
    /// deterministic for a given input.
    fn partition(&self, mesh: &StructuredHexMesh, num_parts: usize) -> Vec<usize>;

    /// Human-readable algorithm name for reports.
    fn name(&self) -> &'static str;
}
