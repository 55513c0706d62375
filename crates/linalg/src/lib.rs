//! # hetero-linalg
//!
//! Distributed sparse linear algebra for the `hetero-hpc` reproduction — the
//! stand-in for Trilinos (Epetra distributed data structures, AztecOO Krylov
//! solvers, Ifpack preconditioners) in the paper's software stack:
//! "matrices and vectors are distributed and need to be updated via a message
//! passing interface … we use iterative preconditioned methods".
//!
//! * [`CsrMatrix`] — local compressed-sparse-row storage with a
//!   duplicate-summing triplet builder (FEM assembly produces triplets);
//! * [`DistVector`] / [`ExchangePlan`] — row-distributed vectors with ghost
//!   entries refreshed by one neighbour exchange per update
//!   ([`hetero_simmpi::SimComm::exchange`]);
//! * [`DistMatrix`] — row-distributed sparse matrices whose SpMV performs
//!   the ghost update and charges roofline work;
//! * [`solver`] — preconditioned CG, BiCGStab, and restarted GMRES;
//! * [`precond`] — Jacobi, symmetric Gauss–Seidel (SSOR), and local ILU(0)
//!   (additive Schwarz across ranks).
//!
//! Every operation charges its analytic operation count to the simulator, so
//! solver phases acquire platform-dependent simulated durations while
//! computing real, verifiable numbers.
//!
//! CSR is the only sparse format: every Krylov iteration, preconditioner
//! build, and assembly refresh runs on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod distmat;
pub mod precond;
pub mod solver;
pub mod vector;
pub mod work_costs;

pub use csr::{CsrMatrix, SparsityPattern, TripletBuilder};
pub use distmat::DistMatrix;
pub use precond::{IluZero, Jacobi, Preconditioner, Ssor};
pub use solver::{
    bicgstab, bicgstab_with_workspace, cg, gmres, gmres_with_workspace, SolveOptions, SolveStats,
    SolverVariant, SolverWorkspace,
};
pub use vector::{fused_dots, DistVector, ExchangePlan};
