//! # hetero-partition
//!
//! Mesh partitioning for the `hetero-hpc` reproduction — the stand-in for
//! ParMETIS in the paper's software stack ("this splitting is achieved by
//! resorting to graph partitioning algorithms, such as those implemented in
//! the library ParMETIS, guaranteeing a proper load balancing among
//! processes. The load is measured as the number of mesh elements assigned to
//! each process.").
//!
//! Every run decomposes the paper's cube structurally: [`BlockLayout`] is a
//! `px x py x pz` block decomposition with closed-form queries (the paper's
//! `k^3`-rank runs split the cube into `k^3` sub-cubes), and
//! [`block::near_cubic_factors`] picks the part grid for a rank count. The
//! numerical engine expands a layout into a cell-to-rank assignment; the
//! modeled engine reads its neighbour sets in closed form at 1000 ranks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;

pub use block::BlockLayout;
