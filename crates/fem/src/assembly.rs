//! Distributed FEM assembly — the paper's step (ii).
//!
//! Each rank integrates over **its own cells only** and ships contributions
//! to rows owned by other ranks to their owners (Trilinos'
//! `GlobalAssemble`). This makes the assembly phase the most
//! communication-heavy of the three measured phases, matching the paper's
//! observation that "the assembly phase needs more data than preconditioning
//! which needs more data than the solver".
//!
//! Because the meshes are uniform bricks, the reference element matrices
//! are identical for every cell; [`ElementKernels`] precomputes them once.
//! The simulator is nevertheless charged the full per-cell quadrature cost
//! (see [`crate::profile`]), because a general-geometry code — like the
//! paper's — recomputes them per cell.
//!
//! One serial walk over the owned cells writes each cell's entries, in
//! cell order, straight into the triplet (or value) buffer and the
//! per-neighbour remote buffers. [`MatrixAssembly`] additionally caches the
//! symbolic structure (sparsity pattern + scatter permutation) across time
//! steps, so BDF2 stepping stops re-sorting triplets every step.

use crate::dofmap::DofMap;
use crate::element::ElementOrder;
use crate::profile;
use crate::quadrature::{GaussRule3d, ShapeTable};
use hetero_linalg::csr::{SparsityPattern, TripletBuilder};
use hetero_linalg::precond::OwnedBlockSymbolic;
use hetero_linalg::{DistMatrix, DistVector};
use hetero_mesh::Point3;
use hetero_simmpi::{Payload, SimComm};
use std::sync::{Arc, OnceLock};

const TAG_MAT_IDX: u64 = 9_600;
const TAG_MAT_VAL: u64 = 9_601;
const TAG_VEC_IDX: u64 = 9_602;
const TAG_VEC_VAL: u64 = 9_603;

/// Precomputed element matrices for a uniform brick cell of size
/// `(hx, hy, hz)`, stored row-major `npe x npe` (or `npe_row x npe_col` for
/// mixed-space kernels).
#[derive(Debug, Clone)]
pub struct ElementKernels {
    /// `int phi_a phi_b` over one cell.
    pub mass: Vec<f64>,
    /// `int grad(phi_a) . grad(phi_b)`.
    pub stiffness: Vec<f64>,
    /// `int phi_a` (constant-forcing load vector).
    pub load: Vec<f64>,
    /// Nodes per element.
    pub npe: usize,
}

/// Builds the scalar kernels for `order` on a cell of size `h`.
pub fn scalar_kernels(order: ElementOrder, h: Point3) -> ElementKernels {
    let npe = order.nodes_per_element();
    let rule = GaussRule3d::new(order.quadrature_points_per_axis());
    let tab = ShapeTable::new(order, &rule, h);
    let vol = h.x * h.y * h.z;
    let mut mass = vec![0.0; npe * npe];
    let mut stiffness = vec![0.0; npe * npe];
    let mut load = vec![0.0; npe];
    for (qi, &w) in tab.weights.iter().enumerate() {
        let shapes = tab.shapes_at(qi);
        let grads = tab.grads_at(qi);
        for a in 0..npe {
            load[a] += w * vol * shapes[a];
            for b in 0..npe {
                mass[a * npe + b] += w * vol * shapes[a] * shapes[b];
                stiffness[a * npe + b] += w
                    * vol
                    * (grads[a][0] * grads[b][0]
                        + grads[a][1] * grads[b][1]
                        + grads[a][2] * grads[b][2]);
            }
        }
    }
    ElementKernels {
        mass,
        stiffness,
        load,
        npe,
    }
}

/// Builds the mixed gradient kernel `G_d[a][b] = int phi^row_a
/// d(phi^col_b)/dx_d` for direction `d`, `npe_row x npe_col` row-major.
/// Used for the pressure-gradient (row = velocity space, col = pressure
/// space) and divergence (transposed roles) operators.
pub fn gradient_kernel(
    row_order: ElementOrder,
    col_order: ElementOrder,
    dir: usize,
    h: Point3,
) -> Vec<f64> {
    assert!(dir < 3);
    let nr = row_order.nodes_per_element();
    let nc = col_order.nodes_per_element();
    let npts = row_order
        .quadrature_points_per_axis()
        .max(col_order.quadrature_points_per_axis());
    let rule = GaussRule3d::new(npts);
    let row_tab = ShapeTable::new(row_order, &rule, h);
    let col_tab = ShapeTable::new(col_order, &rule, h);
    let vol = h.x * h.y * h.z;
    let mut out = vec![0.0; nr * nc];
    for (qi, &w) in rule.weights.iter().enumerate() {
        for a in 0..nr {
            let na = row_tab.shape(qi, a);
            for b in 0..nc {
                // The tabulated gradient is already physical (scaled 1/h_d).
                out[a * nc + b] += w * vol * na * col_tab.grad(qi, b)[dir];
            }
        }
    }
    out
}

/// The cached structure of a repeated matrix assembly: the sparsity
/// pattern (with its triplet scatter permutation) plus the wire size of
/// the structural index batch shipped to each neighbour.
///
/// Immutable once built, so it can be `Arc`-shared across the assemblies
/// and steps of one run that use the same `(row_map, col_map)` pair.
pub struct AssemblyStructure {
    pattern: SparsityPattern,
    /// Per plan-neighbour modeled bytes of the `(global row, global col)`
    /// batch the first call sent; every later call is priced the same.
    send_idx_bytes: Vec<f64>,
    /// Per plan-neighbour sent-value counts: later calls allocate their send
    /// buffers exactly, since buffers grown by doubling left enough spare
    /// capacity across a 512-rank job to raise its resident set.
    send_counts: Vec<usize>,
    /// Per plan-neighbour received-value counts.
    recv_counts: Vec<usize>,
    ncells: usize,
    /// The preconditioners' symbolic analysis of this pattern's owned
    /// block, built on first use (never, for Jacobi or unpreconditioned
    /// runs) and then shared by every step of the run.
    owned_block: OnceLock<Arc<OwnedBlockSymbolic>>,
}

impl AssemblyStructure {
    /// The SSOR / ILU(0) symbolic analysis of every matrix built from this
    /// structure, computed from the sparsity pattern on first call and kept
    /// here — so every later step and every assembly sharing the structure
    /// within the run only refactorizes numerically.
    ///
    /// # Panics
    /// Panics if the pattern has a row without a stored diagonal.
    pub fn owned_block_symbolic(&self) -> Arc<OwnedBlockSymbolic> {
        Arc::clone(
            self.owned_block
                .get_or_init(|| Arc::new(OwnedBlockSymbolic::from_pattern(&self.pattern))),
        )
    }

    /// A newly allocated operator holding the gathered `tvals`.
    fn fresh_matrix(&self, col_map: &DofMap, tvals: &[f64]) -> DistMatrix {
        DistMatrix::rectangular(
            self.pattern.numeric(tvals),
            col_map.plan().clone(),
            col_map.n_owned(),
        )
    }
}

/// A reusable distributed matrix assembly (Trilinos' `FECrsMatrix` reuse
/// idiom): the first [`MatrixAssembly::assemble`] call performs the full
/// symbolic build — cell walk, remote exchange, triplet sort — and caches
/// the sparsity pattern plus scatter permutation; later calls with the
/// same maps only re-integrate values and scatter them through the cached
/// pattern, skipping the per-step sort entirely.
///
/// The wire traffic (index and value batches per neighbour) and the
/// simulated compute charge are identical on every call, so simulated
/// phase times are unaffected by the caching; only host time improves.
/// The cached numeric path reproduces a from-scratch
/// [`TripletBuilder::build`] bitwise (see `hetero_linalg::csr`).
pub struct MatrixAssembly {
    charged_ops: usize,
    structure: Option<Arc<AssemblyStructure>>,
    /// The live operator of the per-step path ([`Self::assemble_in_place`]):
    /// kept across steps so refreshes reuse its value buffer, exchange plan,
    /// and interior/boundary row split instead of rebuilding them.
    retained: Option<DistMatrix>,
}

impl MatrixAssembly {
    /// A fresh assembly charging `charged_ops` operator terms per cell
    /// (see [`profile::assembly_matrix_work`]).
    pub fn new(charged_ops: usize) -> Self {
        MatrixAssembly {
            charged_ops,
            structure: None,
            retained: None,
        }
    }

    /// An assembly preloaded with a structure built by an earlier assembly
    /// over the same maps: the first assemble call takes the cached numeric
    /// path directly, skipping the symbolic build. The wire traffic and the
    /// simulated compute charge of the cached path are identical to a first
    /// call (see `AssemblyStructure::gather_values`), so preloading never
    /// changes a simulated clock — only host time.
    pub fn with_structure(charged_ops: usize, structure: Arc<AssemblyStructure>) -> Self {
        MatrixAssembly {
            structure: Some(structure),
            ..MatrixAssembly::new(charged_ops)
        }
    }

    /// The symbolic structure, shareable with other assemblies over the
    /// same maps (`None` before the first assemble call).
    pub fn shared_structure(&self) -> Option<Arc<AssemblyStructure>> {
        self.structure.clone()
    }

    /// Assembles a fresh distributed matrix: `cell_matrix(i, out)` fills
    /// the `npe_row x npe_col` local matrix of the `i`-th owned cell
    /// (row-major). Collective: all ranks must call with consistent
    /// closures. Off-rank row contributions are shipped to their owners.
    ///
    /// This is the one-shot builder (mass, gradient and divergence
    /// operators); a time stepper's per-step operator goes through
    /// [`Self::assemble_in_place`] instead. Every call must use the same
    /// maps (same mesh partition); the structure cached by the first call
    /// is reused afterwards.
    pub fn assemble<F>(
        &mut self,
        row_map: &DofMap,
        col_map: &DofMap,
        comm: &mut SimComm,
        cell_matrix: F,
    ) -> DistMatrix
    where
        F: Fn(usize, &mut [f64]),
    {
        match &self.structure {
            None => self.assemble_first(row_map, col_map, comm, &cell_matrix),
            Some(s) => {
                let tvals = self.gather_values(s, row_map, col_map, comm, &cell_matrix);
                s.fresh_matrix(col_map, &tvals)
            }
        }
    }

    /// The cell walk both builders share: integrates every owned cell in
    /// cell order, handing each owned-row entry to `owned(row, col, value)`
    /// and every other one to `remote(neighbour, row, col, value)` (local
    /// ids; `neighbour` indexes the row map's plan), then charges the
    /// quadrature + scatter cost of the cells integrated.
    fn integrate<F>(
        &self,
        row_map: &DofMap,
        col_map: &DofMap,
        comm: &mut SimComm,
        cell_matrix: &F,
        mut owned: impl FnMut(usize, usize, f64),
        mut remote: impl FnMut(usize, usize, usize, f64),
    ) where
        F: Fn(usize, &mut [f64]),
    {
        assert_eq!(
            row_map.num_cells(),
            col_map.num_cells(),
            "maps must share the mesh partition"
        );
        let rank = comm.rank();
        let nc = col_map.order().nodes_per_element();
        let neighbors = &row_map.plan().neighbors;
        let mut local = vec![0.0; row_map.order().nodes_per_element() * nc];
        for i in 0..row_map.num_cells() {
            local.fill(0.0);
            cell_matrix(i, &mut local);
            let cols = col_map.cell_dofs(i);
            for (&r_loc, row) in row_map.cell_dofs(i).iter().zip(local.chunks_exact(nc)) {
                let owner = row_map.owner(r_loc);
                if owner == rank {
                    debug_assert!(r_loc < row_map.n_owned());
                    for (&c_loc, &v) in cols.iter().zip(row) {
                        owned(r_loc, c_loc, v);
                    }
                } else {
                    let nb = neighbors
                        .iter()
                        .position(|&n| n == owner)
                        .expect("contribution shipped to a non-neighbour rank");
                    for (&c_loc, &v) in cols.iter().zip(row) {
                        remote(nb, r_loc, c_loc, v);
                    }
                }
            }
        }
        comm.compute(
            profile::assembly_matrix_work(row_map.order(), col_map.order(), self.charged_ops)
                * row_map.num_cells() as f64,
        );
    }

    /// First call: full symbolic + numeric build, caching the structure.
    fn assemble_first<F>(
        &mut self,
        row_map: &DofMap,
        col_map: &DofMap,
        comm: &mut SimComm,
        cell_matrix: &F,
    ) -> DistMatrix
    where
        F: Fn(usize, &mut [f64]),
    {
        let ncells = row_map.num_cells();
        let neighbors = &row_map.plan().neighbors;
        // Owned-row triplets in cell order, then the received ones in
        // neighbour order. Every cell entry is an owned triplet or a
        // shipped one, so the walk fits the cells' entry count; the
        // received triplets are reserved exactly once their count is
        // known, since an estimate they exceeded would double a
        // multi-megabyte buffer on every symbolic assembly.
        let cell_entries =
            row_map.order().nodes_per_element() * col_map.order().nodes_per_element();
        let mut triplets = TripletBuilder::with_capacity(
            row_map.n_owned(),
            col_map.n_local(),
            ncells * cell_entries,
        );
        let mut send_idx: Vec<Vec<usize>> = vec![Vec::new(); neighbors.len()];
        let mut send_vals: Vec<Vec<f64>> = vec![Vec::new(); neighbors.len()];
        self.integrate(
            row_map,
            col_map,
            comm,
            cell_matrix,
            |r, c, v| triplets.add(r, c, v),
            |nb, r, c, v| {
                send_idx[nb].push(row_map.global_id(r));
                send_idx[nb].push(col_map.global_id(c));
                send_vals[nb].push(v);
            },
        );

        // Ship remote contributions: one (possibly empty) batch per plan
        // neighbour, both directions.
        let send_counts = send_vals.iter().map(Vec::len).collect();
        let mut send_idx_bytes = Vec::with_capacity(neighbors.len());
        for ((&nb, idx), vals) in neighbors.iter().zip(send_idx).zip(send_vals) {
            let idx = Payload::Usize(idx);
            send_idx_bytes.push(idx.wire_bytes());
            comm.send(nb, TAG_MAT_IDX, idx);
            comm.send(nb, TAG_MAT_VAL, Payload::F64(vals));
        }
        let received: Vec<(Vec<usize>, Vec<f64>)> = neighbors
            .iter()
            .map(|&nb| {
                let idx = comm.recv_usize(nb, TAG_MAT_IDX);
                (idx, comm.recv_f64(nb, TAG_MAT_VAL))
            })
            .collect();

        triplets.reserve(received.iter().map(|(_, vals)| vals.len()).sum());
        let mut recv_counts = Vec::with_capacity(neighbors.len());
        for (idx, vals) in received {
            assert_eq!(idx.len(), 2 * vals.len());
            recv_counts.push(vals.len());
            for (pair, &v) in idx.chunks_exact(2).zip(&vals) {
                let r_loc = row_map
                    .local_id(pair[0])
                    .expect("shipped row must be locally known");
                debug_assert!(r_loc < row_map.n_owned(), "shipped row must be owned here");
                let c_loc = col_map
                    .local_id(pair[1])
                    .expect("shipped column must be in the local stencil");
                triplets.add(r_loc, c_loc, v);
            }
        }

        let (pattern, matrix) = triplets.into_parts();
        self.structure = Some(Arc::new(AssemblyStructure {
            pattern,
            send_idx_bytes,
            send_counts,
            recv_counts,
            ncells,
            owned_block: OnceLock::new(),
        }));
        DistMatrix::rectangular(matrix, col_map.plan().clone(), col_map.n_owned())
    }

    /// The numeric half of every assembly after the first: walks the cells
    /// into the owned-row values (cell order) and each neighbour's remote
    /// values, ships those and appends the values received — the triplet
    /// order the cached pattern's scatter expects. The receivers cached
    /// where the index batches land, so each is sent as an empty message
    /// priced at the batch's size: the wire traffic — and hence the
    /// simulated assembly time — matches the first call exactly.
    fn gather_values<F>(
        &self,
        s: &AssemblyStructure,
        row_map: &DofMap,
        col_map: &DofMap,
        comm: &mut SimComm,
        cell_matrix: &F,
    ) -> Vec<f64>
    where
        F: Fn(usize, &mut [f64]),
    {
        assert_eq!(
            s.ncells,
            row_map.num_cells(),
            "cached assembly reused with a different mesh partition"
        );
        let neighbors = &row_map.plan().neighbors;
        let mut tvals = Vec::with_capacity(s.pattern.num_triplets());
        let mut send_vals: Vec<Vec<f64>> = s
            .send_counts
            .iter()
            .map(|&n| Vec::with_capacity(n))
            .collect();
        self.integrate(
            row_map,
            col_map,
            comm,
            cell_matrix,
            |_, _, v| tvals.push(v),
            |nb, _, _, v| send_vals[nb].push(v),
        );
        for ((&nb, &idx_bytes), vals) in neighbors.iter().zip(&s.send_idx_bytes).zip(send_vals) {
            comm.send_with_modeled_bytes(nb, TAG_MAT_IDX, Payload::Empty, idx_bytes);
            comm.send(nb, TAG_MAT_VAL, Payload::F64(vals));
        }
        for (&nb, &count) in neighbors.iter().zip(&s.recv_counts) {
            let idx = comm.recv(nb, TAG_MAT_IDX);
            assert_eq!(idx, Payload::Empty, "a cached index batch carries no data");
            let vals = comm.recv_f64(nb, TAG_MAT_VAL);
            assert_eq!(
                vals.len(),
                count,
                "cached assembly structure changed between calls"
            );
            tvals.extend_from_slice(&vals);
        }
        assert_eq!(tvals.len(), s.pattern.num_triplets());
        tvals
    }

    /// One time step's operator, refreshed in place
    /// ([`Self::assemble_in_place`]). The operator stays with this assembly
    /// until the next call; it comes back together with the shared
    /// structure, so the caller can constrain and solve with the one while
    /// a preconditioner takes its cached symbolic analysis from the other.
    pub fn assemble_step<F>(
        &mut self,
        row_map: &DofMap,
        col_map: &DofMap,
        comm: &mut SimComm,
        cell_matrix: F,
    ) -> (&mut DistMatrix, &AssemblyStructure)
    where
        F: Fn(usize, &mut [f64]),
    {
        self.assemble_in_place(row_map, col_map, comm, cell_matrix);
        (
            self.retained.as_mut().expect("operator assembled above"),
            self.structure.as_deref().expect("structure cached above"),
        )
    }

    /// The per-step path: assembles into a matrix *retained across calls*,
    /// so solve-heavy steps skip the global CSR rebuild entirely — no
    /// value-array allocation, no pattern `row_ptr`/`col_idx` clones, no
    /// exchange-plan clone, no interior/boundary row rescan. Per-cell local
    /// matrices flow from the cell walk straight into the live
    /// value buffer through the frozen sorted scatter
    /// ([`SparsityPattern::numeric_into`]).
    ///
    /// The cell walk, the per-neighbour wire traffic, and the charged
    /// quadrature work are exactly those of [`Self::assemble`], and the
    /// scatter accumulates in the same sorted order, so the refreshed
    /// operator — and every simulated clock — is bitwise identical to a
    /// fresh build. Callers may constrain the
    /// returned matrix freely (Dirichlet row/column surgery); the next
    /// refresh overwrites every stored value.
    pub fn assemble_in_place<F>(
        &mut self,
        row_map: &DofMap,
        col_map: &DofMap,
        comm: &mut SimComm,
        cell_matrix: F,
    ) -> &mut DistMatrix
    where
        F: Fn(usize, &mut [f64]),
    {
        match self.structure.as_deref() {
            None => {
                self.retained = Some(self.assemble_first(row_map, col_map, comm, &cell_matrix));
            }
            Some(s) => {
                let tvals = self.gather_values(s, row_map, col_map, comm, &cell_matrix);
                match &mut self.retained {
                    Some(m) => s.pattern.numeric_into(&tvals, m.local_mut().values_mut()),
                    // Structure preloaded (shared from another assembly
                    // over the same maps) but no live operator yet.
                    None => self.retained = Some(s.fresh_matrix(col_map, &tvals)),
                }
            }
        }
        self.retained
            .as_mut()
            .expect("retained operator exists after the first call")
    }
}

/// Assembles a distributed vector: `cell_vector(i, out)` fills the `npe`
/// local load vector of the `i`-th owned cell. Collective, like
/// [`MatrixAssembly::assemble`]: one walk in cell order adds owned-row
/// entries straight into the vector and collects the rest per neighbour.
pub fn assemble_vector<F>(dm: &DofMap, comm: &mut SimComm, cell_vector: F) -> DistVector
where
    F: Fn(usize, &mut [f64]),
{
    let rank = comm.rank();
    let ncells = dm.num_cells();
    let neighbors = &dm.plan().neighbors;
    let mut out = dm.new_vector();
    let mut send_idx: Vec<Vec<usize>> = vec![Vec::new(); neighbors.len()];
    let mut send_vals: Vec<Vec<f64>> = vec![Vec::new(); neighbors.len()];
    let mut local = vec![0.0; dm.order().nodes_per_element()];
    for i in 0..ncells {
        local.fill(0.0);
        cell_vector(i, &mut local);
        for (&r_loc, &v) in dm.cell_dofs(i).iter().zip(&local) {
            let owner = dm.owner(r_loc);
            if owner == rank {
                out.owned_mut()[r_loc] += v;
            } else {
                let nb = neighbors
                    .iter()
                    .position(|&n| n == owner)
                    .expect("contribution shipped to a non-neighbour rank");
                send_idx[nb].push(dm.global_id(r_loc));
                send_vals[nb].push(v);
            }
        }
    }
    comm.compute(profile::assembly_vector_work(dm.order()) * ncells as f64);

    for ((&nb, idx), vals) in neighbors.iter().zip(send_idx).zip(send_vals) {
        comm.send(nb, TAG_VEC_IDX, Payload::Usize(idx));
        comm.send(nb, TAG_VEC_VAL, Payload::F64(vals));
    }
    for &nb in neighbors {
        let idx = comm.recv_usize(nb, TAG_VEC_IDX);
        let vals = comm.recv_f64(nb, TAG_VEC_VAL);
        for (&g, &v) in idx.iter().zip(&vals) {
            let r_loc = dm.local_id(g).expect("shipped row must be local");
            debug_assert!(r_loc < dm.n_owned());
            out.owned_mut()[r_loc] += v;
        }
    }
    out
}

/// Symmetrically imposes constrained values (Dirichlet conditions or a
/// pinned pressure dof): moves known values to the right-hand side, zeroes
/// the constrained rows *and columns*, places 1 on constrained diagonals,
/// and sets the right-hand side to the constrained value — preserving
/// symmetry for CG.
///
/// `mask`/`values` cover all local dofs (owned + ghost), so each rank can
/// eliminate ghost columns without communication.
pub fn constrain_system(
    a: &mut DistMatrix,
    b: &mut DistVector,
    mask: &[bool],
    values: &[f64],
    comm: &mut SimComm,
) {
    constrain_system_multi(a, &mut [(b, values)], mask, comm);
}

/// Imposes Dirichlet data on one matrix shared by several right-hand sides
/// (e.g. the three velocity components of a momentum solve, each with its
/// own boundary trace). All right-hand-side lifts are computed against the
/// *original* matrix before its constrained rows/columns are zeroed —
/// constraining the matrix first and fixing the other right-hand sides
/// afterwards would silently drop their boundary contributions.
pub fn constrain_system_multi(
    a: &mut DistMatrix,
    systems: &mut [(&mut DistVector, &[f64])],
    mask: &[bool],
    comm: &mut SimComm,
) {
    let n_owned = a.n_owned();
    let n_local = a.n_local();
    assert_eq!(mask.len(), n_local);
    for (b, values) in systems.iter() {
        assert_eq!(values.len(), n_local);
        assert_eq!(b.n_owned(), n_owned);
    }

    // Lift every right-hand side against the unmodified matrix.
    {
        let local = a.local();
        for (b, values) in systems.iter_mut() {
            for r in 0..n_owned {
                if mask[r] {
                    continue;
                }
                let (cols, vals) = local.row(r);
                let mut shift = 0.0;
                for (&c, &v) in cols.iter().zip(vals) {
                    let c = c as usize;
                    if mask[c] {
                        shift += v * values[c];
                    }
                }
                b.owned_mut()[r] -= shift;
            }
        }
    }
    // Zero constrained rows/columns once; pin the right-hand sides.
    let nnz = a.nnz();
    let local = a.local_mut();
    for r in 0..n_owned {
        if mask[r] {
            local.set_dirichlet_row(r, 1.0);
            for (b, values) in systems.iter_mut() {
                b.owned_mut()[r] = values[r];
            }
        } else {
            let (cols, vals) = local.row_values_mut(r);
            for (i, &c) in cols.iter().enumerate() {
                if mask[c as usize] {
                    vals[i] = 0.0;
                }
            }
        }
    }
    comm.compute(hetero_simmpi::Work::new(
        (systems.len() + 1) as f64 * nnz as f64,
        (systems.len() + 1) as f64 * 20.0 * nnz as f64,
    ));
}

/// Builds the Dirichlet mask/values for the whole domain boundary from `g`
/// and applies [`constrain_system`].
pub fn apply_dirichlet(
    a: &mut DistMatrix,
    b: &mut DistVector,
    dm: &DofMap,
    g: impl Fn(Point3) -> f64,
    comm: &mut SimComm,
) {
    let n_local = dm.n_local();
    let mut mask = vec![false; n_local];
    let mut values = vec![0.0; n_local];
    for l in 0..n_local {
        if dm.on_boundary(l) {
            mask[l] = true;
            values[l] = g(dm.coord(l));
        }
    }
    constrain_system(a, b, &mask, &values, comm);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_linalg::precond::Identity;
    use hetero_linalg::solver::{cg, SolveOptions};
    use hetero_mesh::{DistributedMesh, StructuredHexMesh};
    use hetero_partition::block::near_cubic_factors;
    use hetero_partition::BlockLayout;
    use hetero_simmpi::{
        run_spmd, run_spmd_opts, ClusterTopology, ComputeModel, EngineOpts, FaultPlan,
        NetworkModel, SpmdConfig,
    };
    use std::sync::Arc;

    fn cfg(size: usize) -> SpmdConfig {
        SpmdConfig {
            size,
            topo: ClusterTopology::uniform(size, 1),
            net: NetworkModel::ideal(),
            compute: ComputeModel::new(1e9, 4e9),
            seed: 0,
        }
    }

    fn run_fem<T: Send + 'static>(
        n: usize,
        p: usize,
        order: ElementOrder,
        f: impl Fn(&DofMap, &mut SimComm) -> T + Send + Sync,
    ) -> Vec<T> {
        run_fem_on(0, n, p, order, f)
    }

    /// [`run_fem`] on `workers` scheduler worker threads (0 = auto).
    fn run_fem_on<T: Send + 'static>(
        workers: usize,
        n: usize,
        p: usize,
        order: ElementOrder,
        f: impl Fn(&DofMap, &mut SimComm) -> T + Send + Sync,
    ) -> Vec<T> {
        let mesh = StructuredHexMesh::unit_cube(n);
        let assignment =
            Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(p)).assignment());
        let opts = EngineOpts::cooperative(workers);
        run_spmd_opts(cfg(p), opts, FaultPlan::none(), None, move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), p);
            let dm = DofMap::build(&dmesh, order, comm);
            f(&dm, comm)
        })
        .0
        .expect("a trivial fault plan cannot fail a rank")
        .into_iter()
        .map(|r| r.value)
        .collect()
    }

    #[test]
    fn element_mass_kernel_integrates_volume() {
        for order in [ElementOrder::Q1, ElementOrder::Q2] {
            let h = Point3::new(0.5, 0.25, 0.2);
            let k = scalar_kernels(order, h);
            // Sum of all mass entries = int 1*1 = cell volume.
            let total: f64 = k.mass.iter().sum();
            assert!((total - 0.025).abs() < 1e-14, "{order:?}: {total}");
            // Load vector sums to the volume too.
            let load: f64 = k.load.iter().sum();
            assert!((load - 0.025).abs() < 1e-14);
        }
    }

    #[test]
    fn element_stiffness_annihilates_constants() {
        for order in [ElementOrder::Q1, ElementOrder::Q2] {
            let k = scalar_kernels(order, Point3::splat(0.5));
            let npe = k.npe;
            for a in 0..npe {
                let row_sum: f64 = (0..npe).map(|b| k.stiffness[a * npe + b]).sum();
                assert!(row_sum.abs() < 1e-13, "{order:?} row {a}: {row_sum}");
            }
        }
    }

    #[test]
    fn gradient_kernel_exact_on_linear_pressure() {
        // For p = x, int phi_a dp/dx = int phi_a = load vector.
        let h = Point3::splat(0.5);
        let g0 = gradient_kernel(ElementOrder::Q2, ElementOrder::Q1, 0, h);
        let kern = scalar_kernels(ElementOrder::Q2, h);
        let nc = 8;
        // p nodal values for p = x on the reference cell corners.
        let p_vals: Vec<f64> = (0..nc)
            .map(|b| ElementOrder::Q1.node_point(b)[0] * h.x)
            .collect();
        for a in 0..27 {
            let v: f64 = (0..nc).map(|b| g0[a * nc + b] * p_vals[b]).sum();
            assert!(
                (v - kern.load[a]).abs() < 1e-14,
                "row {a}: {v} vs {}",
                kern.load[a]
            );
        }
    }

    #[test]
    fn assembled_mass_matrix_row_sums_to_volume() {
        // Global mass matrix rows sum (over all columns) to int phi_a; the
        // grand total over all ranks is the domain volume 1.
        for order in [ElementOrder::Q1, ElementOrder::Q2] {
            for p in [1usize, 4] {
                let r = run_fem(3, p, order, move |dm, comm| {
                    let mesh_h = Point3::splat(1.0 / 3.0);
                    let kern = scalar_kernels(order, mesh_h);
                    let m = MatrixAssembly::new(1).assemble(dm, dm, comm, |_i, out| {
                        out.copy_from_slice(&kern.mass);
                    });
                    let local_total: f64 = m.local().iter().map(|(_, _, v)| v).sum();
                    comm.allreduce_scalar(hetero_simmpi::collectives::ReduceOp::Sum, local_total)
                });
                for &total in &r {
                    assert!(
                        (total - 1.0).abs() < 1e-12,
                        "order {order:?} p = {p}: {total}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_assembly_matches_serial() {
        // Assemble the stiffness matrix on 1 and 8 ranks and compare the
        // action A*v on a deterministic vector via gather.
        let order = ElementOrder::Q1;
        let n = 4;
        let action = |p: usize| -> Vec<f64> {
            let mesh = StructuredHexMesh::unit_cube(n);
            let assignment =
                Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(p)).assignment());
            let results = run_spmd(cfg(p), move |comm| {
                let dmesh =
                    DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), p);
                let dm = DofMap::build(&dmesh, order, comm);
                let kern = scalar_kernels(order, mesh.cell_size());
                let a = MatrixAssembly::new(1).assemble(&dm, &dm, comm, |_i, out| {
                    out.copy_from_slice(&kern.stiffness);
                });
                let mut x = dm.interpolate(|pt| (3.1 * pt.x).sin() + pt.y * pt.z);
                let mut y = a.new_vector();
                a.spmv(&mut x, &mut y, comm);
                // Return (global_id, value) pairs for owned dofs.
                let pairs: Vec<f64> = (0..dm.n_owned())
                    .flat_map(|l| [dm.global_id(l) as f64, y.owned()[l]])
                    .collect();
                pairs
            });
            let mut global = vec![0.0; (n + 1) * (n + 1) * (n + 1)];
            for r in results {
                for pair in r.value.chunks_exact(2) {
                    global[pair[0] as usize] = pair[1];
                }
            }
            global
        };
        let serial = action(1);
        let dist = action(8);
        for (i, (s, d)) in serial.iter().zip(&dist).enumerate() {
            assert!((s - d).abs() < 1e-12, "dof {i}: serial {s} vs dist {d}");
        }
    }

    #[test]
    fn assembled_vector_matches_serial() {
        let order = ElementOrder::Q2;
        let n = 2;
        let build = |p: usize| -> Vec<f64> {
            let mesh = StructuredHexMesh::unit_cube(n);
            let assignment =
                Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(p)).assignment());
            let results = run_spmd(cfg(p), move |comm| {
                let dmesh =
                    DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), p);
                let dm = DofMap::build(&dmesh, order, comm);
                let kern = scalar_kernels(order, mesh.cell_size());
                let v = assemble_vector(&dm, comm, |_i, out| out.copy_from_slice(&kern.load));
                (0..dm.n_owned())
                    .flat_map(|l| [dm.global_id(l) as f64, v.owned()[l]])
                    .collect::<Vec<f64>>()
            });
            let mut global = vec![0.0; (2 * n + 1usize).pow(3)];
            for r in results {
                for pair in r.value.chunks_exact(2) {
                    global[pair[0] as usize] = pair[1];
                }
            }
            global
        };
        let serial = build(1);
        let dist = build(8);
        for (s, d) in serial.iter().zip(&dist) {
            assert!((s - d).abs() < 1e-13);
        }
        // Total load = volume.
        let total: f64 = serial.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn poisson_with_dirichlet_reproduces_linear_solution() {
        // -lap(u) = 0 with u = x on the boundary has exact solution u = x,
        // representable in Q1: the solve must reproduce it to tolerance.
        for p in [1usize, 8] {
            let r = run_fem(3, p, ElementOrder::Q1, move |dm, comm| {
                let h = Point3::splat(1.0 / 3.0);
                let kern = scalar_kernels(ElementOrder::Q1, h);
                let mut a = MatrixAssembly::new(1).assemble(dm, dm, comm, |_i, out| {
                    out.copy_from_slice(&kern.stiffness);
                });
                let mut b = dm.new_vector();
                apply_dirichlet(&mut a, &mut b, dm, |pt| pt.x, comm);
                let mut x = a.new_vector();
                let stats = cg(&a, &b, &mut x, &Identity, SolveOptions::default(), comm);
                assert!(stats.converged, "{stats:?}");
                dm.nodal_linf_error(&x, |pt| pt.x, comm)
            });
            for &err in &r {
                assert!(err < 1e-7, "p = {p}: err = {err}");
            }
        }
    }

    #[test]
    fn cached_assembly_matches_from_scratch_bitwise() {
        // After the structural first call, numeric-only rebuilds through the
        // cached pattern must reproduce a from-scratch build exactly.
        let order = ElementOrder::Q1;
        run_fem(3, 2, order, move |dm, comm| {
            let kern = scalar_kernels(order, Point3::splat(1.0 / 3.0));
            let mut asm = MatrixAssembly::new(2);
            let _warm = asm.assemble(dm, dm, comm, |_i, out| {
                for (o, (m, k)) in out.iter_mut().zip(kern.mass.iter().zip(&kern.stiffness)) {
                    *o = 3.0 * m + 0.5 * k;
                }
            });
            assert!(asm.shared_structure().is_some());
            let cell = |_i: usize, out: &mut [f64]| {
                for (o, (m, k)) in out.iter_mut().zip(kern.mass.iter().zip(&kern.stiffness)) {
                    *o = 7.25 * m - 1.5 * k;
                }
            };
            let cached = asm.assemble(dm, dm, comm, cell);
            let scratch = MatrixAssembly::new(2).assemble(dm, dm, comm, cell);
            let (a, b) = (cached.local(), scratch.local());
            assert_eq!(a.nnz(), b.nnz());
            for ((r1, c1, v1), (r2, c2, v2)) in a.iter().zip(b.iter()) {
                assert_eq!((r1, c1, v1.to_bits()), (r2, c2, v2.to_bits()));
            }
        });
    }

    #[test]
    fn in_place_assembly_matches_from_scratch_bitwise() {
        // The per-step refresh path must reproduce a from-scratch build
        // exactly on every step, including the structural first one.
        let order = ElementOrder::Q1;
        run_fem(3, 2, order, move |dm, comm| {
            let kern = scalar_kernels(order, Point3::splat(1.0 / 3.0));
            let mut asm = MatrixAssembly::new(2);
            for step in 0..3 {
                let mc = 1.0 + 0.75 * step as f64;
                let kc = 0.5 - 0.125 * step as f64;
                let cell = |_i: usize, out: &mut [f64]| {
                    for (o, (m, k)) in out.iter_mut().zip(kern.mass.iter().zip(&kern.stiffness)) {
                        *o = mc * m + kc * k;
                    }
                };
                let scratch = MatrixAssembly::new(2).assemble(dm, dm, comm, cell);
                let retained = asm.assemble_in_place(dm, dm, comm, cell);
                let (a, b) = (retained.local(), scratch.local());
                assert_eq!(a.nnz(), b.nnz());
                for ((r1, c1, v1), (r2, c2, v2)) in a.iter().zip(b.iter()) {
                    assert_eq!(
                        (r1, c1, v1.to_bits()),
                        (r2, c2, v2.to_bits()),
                        "step {step}"
                    );
                }
            }
        });
    }

    #[test]
    fn in_place_assembly_is_bitwise_identical_across_thread_counts() {
        // The refresh path ships remote values between ranks every step;
        // its scattered values are a function of the data alone, whatever
        // the number of scheduler worker threads interleaving the ranks.
        let order = ElementOrder::Q1;
        let bits = |workers: usize| -> Vec<Vec<Vec<u64>>> {
            run_fem_on(workers, 4, 2, order, move |dm, comm| {
                let kern = scalar_kernels(order, Point3::splat(0.25));
                let mut asm = MatrixAssembly::new(2);
                let mut out = Vec::new();
                for step in 0..2 {
                    let mc = 2.0 + step as f64;
                    let a = asm.assemble_in_place(dm, dm, comm, |_i, vals| {
                        for (o, (m, k)) in
                            vals.iter_mut().zip(kern.mass.iter().zip(&kern.stiffness))
                        {
                            *o = mc * m + 0.25 * k;
                        }
                    });
                    out.push(
                        a.local()
                            .iter()
                            .map(|(_, _, x)| x.to_bits())
                            .collect::<Vec<u64>>(),
                    );
                }
                out
            })
        };
        let one = bits(1);
        for workers in [2usize, 4] {
            assert_eq!(one, bits(workers), "workers = {workers}");
        }
    }

    #[test]
    fn assembly_is_bitwise_identical_across_thread_counts() {
        // Matrix and vector assembly exchange off-rank contributions; the
        // assembled values do not depend on how many scheduler worker
        // threads interleave the ranks.
        let order = ElementOrder::Q1;
        let bits = |workers: usize| -> Vec<Vec<u64>> {
            run_fem_on(workers, 5, 2, order, move |dm, comm| {
                let kern = scalar_kernels(order, Point3::splat(0.2));
                let a = MatrixAssembly::new(1).assemble(dm, dm, comm, |_i, out| {
                    out.copy_from_slice(&kern.stiffness);
                });
                let v = assemble_vector(dm, comm, |_i, out| {
                    out.copy_from_slice(&kern.load);
                });
                let mut out: Vec<u64> = a.local().iter().map(|(_, _, x)| x.to_bits()).collect();
                out.extend(v.owned().iter().map(|x| x.to_bits()));
                out
            })
        };
        let one = bits(1);
        for workers in [2usize, 4] {
            assert_eq!(one, bits(workers), "workers = {workers}");
        }
    }

    #[test]
    fn constrain_preserves_symmetry() {
        run_fem(2, 1, ElementOrder::Q1, |dm, comm| {
            let kern = scalar_kernels(ElementOrder::Q1, Point3::splat(0.5));
            let mut a = MatrixAssembly::new(1).assemble(dm, dm, comm, |_i, out| {
                out.copy_from_slice(&kern.stiffness);
            });
            let mut b = dm.new_vector();
            apply_dirichlet(&mut a, &mut b, dm, |p| p.norm_sq(), comm);
            // Check symmetry of the local (serial) matrix.
            let local = a.local();
            for (r, c, v) in local.iter() {
                assert!(
                    (local.get(c, r) - v).abs() < 1e-13,
                    "asymmetry at ({r}, {c})"
                );
            }
        });
    }
}
