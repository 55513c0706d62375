//! Distributed degree-of-freedom numbering and halo-exchange plans.
//!
//! An order-`q` discretization places DoFs on the global tensor lattice with
//! `q * n + 1` nodes per axis. Each rank:
//!
//! * **owns** the lattice nodes the partition's ownership rule assigns to it
//!   (see [`hetero_mesh::DistributedMesh::node_owner`]);
//! * holds **ghost** copies of (a) every DoF of its owned cells and (b)
//!   every DoF coupled through a cell to one of its owned DoFs — exactly the
//!   column space of its owned matrix rows (a Trilinos/Epetra column map);
//! * builds a symmetric [`ExchangePlan`] by requesting its ghost lists from
//!   their owners at setup time, the way production codes bootstrap their
//!   import/export structures.

use crate::element::ElementOrder;
use hetero_linalg::{DistVector, ExchangePlan};
use hetero_mesh::distributed::cells_touching_node;
use hetero_mesh::{DistributedMesh, Index3, Point3};
use hetero_simmpi::{Payload, SimComm, Work};
use std::collections::{BTreeMap, BTreeSet};

/// Tag used by the one-time ghost-request protocol.
const TAG_DOF_REQUEST: u64 = 9_500;

/// A rank's view of the distributed DoF space of one element order.
#[derive(Debug, Clone)]
pub struct DofMap {
    order: ElementOrder,
    dof_dims: (usize, usize, usize),
    /// This rank's id (used by assembly to split owned vs shipped rows).
    pub(crate) rank: usize,
    n_owned: usize,
    /// Local -> global dof ids: owned ascending, then ghosts ascending.
    global_ids: Vec<usize>,
    /// Local dof ids of each owned cell's nodes (stride = nodes/element),
    /// cell order matching `DistributedMesh::owned_cells`.
    cell_dofs: Vec<usize>,
    /// Owner rank per local dof.
    owners: Vec<usize>,
    /// Whether each local dof lies on the domain boundary.
    boundary: Vec<bool>,
    /// Physical coordinates per local dof.
    coords: Vec<Point3>,
    plan: ExchangePlan,
}

impl DofMap {
    /// Builds the DoF map collectively (all ranks of `comm` must call this
    /// with their own `dmesh` views and the same `order`).
    pub fn build(dmesh: &DistributedMesh, order: ElementOrder, comm: &mut SimComm) -> Self {
        let mesh = dmesh.mesh();
        let q = order.q();
        let cell_dims = mesh.cell_dims();
        let (nx, ny, nz) = cell_dims;
        let dof_dims = (q * nx + 1, q * ny + 1, q * nz + 1);
        let npe = order.nodes_per_element();
        let rank = dmesh.rank();

        // Global dof ids of one cell, tensor order.
        let nodes_of_cell = move |c: Index3| {
            (0..=q).flat_map(move |dc| {
                (0..=q).flat_map(move |db| {
                    (0..=q).map(move |da| {
                        Index3::new(q * c.i + da, q * c.j + db, q * c.k + dc).linear(dof_dims)
                    })
                })
            })
        };

        // 1. Owned dofs: nodes of owned cells whose owner is this rank.
        let mut cell_global: Vec<usize> = Vec::with_capacity(dmesh.owned_cells().len() * npe);
        for &cell in dmesh.owned_cells() {
            cell_global.extend(nodes_of_cell(mesh.cell_index(cell)));
        }
        let mut owned = cell_global.clone();
        owned.sort_unstable();
        owned.dedup();
        owned.retain(|&g| dmesh.node_owner(q, Index3::from_linear(g, dof_dims)) == rank);

        // 2. Local set: dofs of owned cells plus everything coupled to an
        //    owned dof, i.e. the dofs of the owned cells and of every cell
        //    touching an owned dof.
        let mut cells: Vec<usize> = dmesh.owned_cells().to_vec();
        for &g in &owned {
            let node = Index3::from_linear(g, dof_dims);
            cells.extend(
                cells_touching_node(cell_dims, q, node)
                    .into_iter()
                    .map(|c| c.linear(cell_dims)),
            );
        }
        cells.sort_unstable();
        cells.dedup();
        let mut local: Vec<usize> = Vec::with_capacity(cells.len() * npe);
        for &c in &cells {
            local.extend(nodes_of_cell(Index3::from_linear(c, cell_dims)));
        }
        local.sort_unstable();
        local.dedup();

        // 3. Local numbering: owned ascending, then ghosts ascending (the
        //    owned set is a subset of the local set).
        let n_owned = owned.len();
        let mut global_ids = Vec::with_capacity(local.len());
        global_ids.extend_from_slice(&owned);
        let mut owned_iter = owned.iter().peekable();
        global_ids.extend(local.iter().filter(|g| owned_iter.next_if_eq(g).is_none()));

        // 4. Per-dof metadata.
        let mut owners = Vec::with_capacity(global_ids.len());
        let mut boundary = Vec::with_capacity(global_ids.len());
        let mut coords = Vec::with_capacity(global_ids.len());
        let cell_size = mesh.cell_size();
        let lo = mesh.lo();
        for (l, &g) in global_ids.iter().enumerate() {
            let node = Index3::from_linear(g, dof_dims);
            owners.push(if l < n_owned {
                rank
            } else {
                dmesh.node_owner(q, node)
            });
            boundary.push(
                node.i == 0
                    || node.i + 1 == dof_dims.0
                    || node.j == 0
                    || node.j + 1 == dof_dims.1
                    || node.k == 0
                    || node.k + 1 == dof_dims.2,
            );
            coords.push(Point3::new(
                lo.x + cell_size.x * node.i as f64 / q as f64,
                lo.y + cell_size.y * node.j as f64 / q as f64,
                lo.z + cell_size.z * node.k as f64 / q as f64,
            ));
        }

        let local_id = |g: usize| local_id(&global_ids, n_owned, g);
        let cell_dofs: Vec<usize> = cell_global
            .iter()
            .map(|&g| local_id(g).expect("a cell dof is local"))
            .collect();

        // 5. Exchange plan via the request protocol.
        let mut requests: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (slot, &g) in global_ids.iter().enumerate().skip(n_owned) {
            requests.entry(owners[slot]).or_default().push(g);
        }
        // Everyone announces whom they request from.
        let my_targets: Vec<usize> = requests.keys().copied().collect();
        let all_targets = comm.allgather_usize(&my_targets);
        let requesters: Vec<usize> = all_targets
            .iter()
            .enumerate()
            .filter(|&(r, targets)| r != rank && targets.contains(&rank))
            .map(|(r, _)| r)
            .collect();
        // Send my wanted-lists; receive others' wanted-lists.
        for (&owner, wanted) in &requests {
            comm.send(owner, TAG_DOF_REQUEST, Payload::Usize(wanted.clone()));
        }
        let mut send_map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &req in &requesters {
            let wanted = comm.recv_usize(req, TAG_DOF_REQUEST);
            let locals: Vec<usize> = wanted
                .iter()
                .map(|&g| {
                    let l = local_id(g)
                        .unwrap_or_else(|| panic!("rank {req} asked for unknown dof {g}"));
                    assert!(l < n_owned, "rank {req} requested non-owned dof {g}");
                    l
                })
                .collect();
            send_map.insert(req, locals);
        }
        // Neighbours are the union of the ranks I pull ghosts from and the
        // ranks pulling from me (almost always the same set; one-sided
        // entries get an empty list on the other side).
        let neighbor_set: BTreeSet<usize> =
            requests.keys().chain(send_map.keys()).copied().collect();
        let neighbors: Vec<usize> = neighbor_set.into_iter().collect();
        let plan = ExchangePlan {
            neighbors: neighbors.clone(),
            send_indices: neighbors
                .iter()
                .map(|r| send_map.get(r).cloned().unwrap_or_default())
                .collect(),
            recv_indices: neighbors
                .iter()
                .map(|r| {
                    requests
                        .get(r)
                        .map(|gs| {
                            gs.iter()
                                .map(|&g| local_id(g).expect("a requested ghost is local"))
                                .collect()
                        })
                        .unwrap_or_default()
                })
                .collect(),
        };
        plan.validate(n_owned, global_ids.len());

        // Charge the setup cost (sorting/hashing the local space).
        comm.compute(Work::new(
            20.0 * global_ids.len() as f64,
            64.0 * global_ids.len() as f64,
        ));

        DofMap {
            order,
            dof_dims,
            rank,
            n_owned,
            global_ids,
            cell_dofs,
            owners,
            boundary,
            coords,
            plan,
        }
    }

    /// Element order of this space.
    #[inline]
    pub fn order(&self) -> ElementOrder {
        self.order
    }

    /// The rank whose view this is.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Owned DoF count on this rank.
    #[inline]
    pub fn n_owned(&self) -> usize {
        self.n_owned
    }

    /// Owned + ghost DoF count.
    #[inline]
    pub fn n_local(&self) -> usize {
        self.global_ids.len()
    }

    /// Global DoF count across all ranks.
    #[inline]
    pub fn n_global(&self) -> usize {
        self.dof_dims.0 * self.dof_dims.1 * self.dof_dims.2
    }

    /// Global lattice dimensions.
    #[inline]
    pub fn dof_dims(&self) -> (usize, usize, usize) {
        self.dof_dims
    }

    /// Global id of local dof `l`.
    #[inline]
    pub fn global_id(&self, l: usize) -> usize {
        self.global_ids[l]
    }

    /// Local id of global dof `g`, if present on this rank.
    #[inline]
    pub fn local_id(&self, g: usize) -> Option<usize> {
        local_id(&self.global_ids, self.n_owned, g)
    }

    /// Owner rank of local dof `l`.
    #[inline]
    pub fn owner(&self, l: usize) -> usize {
        self.owners[l]
    }

    /// Whether local dof `l` lies on the domain boundary.
    #[inline]
    pub fn on_boundary(&self, l: usize) -> bool {
        self.boundary[l]
    }

    /// Coordinates of local dof `l`.
    #[inline]
    pub fn coord(&self, l: usize) -> Point3 {
        self.coords[l]
    }

    /// Local dof ids of the `i`-th owned cell (tensor order), `i` indexing
    /// `DistributedMesh::owned_cells`.
    #[inline]
    pub fn cell_dofs(&self, i: usize) -> &[usize] {
        let npe = self.order.nodes_per_element();
        &self.cell_dofs[i * npe..(i + 1) * npe]
    }

    /// Number of owned cells (rows of `cell_dofs`).
    #[inline]
    pub fn num_cells(&self) -> usize {
        self.cell_dofs.len() / self.order.nodes_per_element()
    }

    /// The halo-exchange plan for vectors on this space.
    #[inline]
    pub fn plan(&self) -> &ExchangePlan {
        &self.plan
    }

    /// A zero vector on this space (owned + ghosts).
    pub fn new_vector(&self) -> DistVector {
        DistVector::zeros(self.n_owned, self.n_local() - self.n_owned)
    }

    /// Nodal interpolation of `f` into a vector (owned and ghost slots are
    /// both filled directly — no communication needed).
    pub fn interpolate<F: Fn(Point3) -> f64>(&self, f: F) -> DistVector {
        let values: Vec<f64> = self.coords.iter().map(|&p| f(p)).collect();
        DistVector::from_values(values, self.n_owned)
    }

    /// Max-norm of `v - f` over owned dofs, reduced across ranks.
    pub fn nodal_linf_error<F: Fn(Point3) -> f64>(
        &self,
        v: &DistVector,
        f: F,
        comm: &mut SimComm,
    ) -> f64 {
        let local = v
            .owned()
            .iter()
            .zip(&self.coords)
            .map(|(&vi, &p)| (vi - f(p)).abs())
            .fold(0.0f64, f64::max);
        comm.allreduce_scalar(hetero_simmpi::collectives::ReduceOp::Max, local)
    }

    /// Discrete (lattice-weighted) L2 error `sqrt(sum (v - f)^2 / N)` over
    /// all owned dofs, reduced across ranks.
    pub fn nodal_l2_error<F: Fn(Point3) -> f64>(
        &self,
        v: &DistVector,
        f: F,
        comm: &mut SimComm,
    ) -> f64 {
        let local: f64 = v
            .owned()
            .iter()
            .zip(&self.coords)
            .map(|(&vi, &p)| (vi - f(p)).powi(2))
            .sum();
        let global = comm.allreduce_scalar(hetero_simmpi::collectives::ReduceOp::Sum, local);
        (global / self.n_global() as f64).sqrt()
    }
}

/// Local id of global dof `g` in `global_ids` (owned ascending, then
/// ghosts ascending): a binary search of each sorted half.
fn local_id(global_ids: &[usize], n_owned: usize, g: usize) -> Option<usize> {
    let (owned, ghosts) = global_ids.split_at(n_owned);
    owned
        .binary_search(&g)
        .ok()
        .or_else(|| ghosts.binary_search(&g).ok().map(|l| n_owned + l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_mesh::StructuredHexMesh;
    use hetero_partition::block::near_cubic_factors;
    use hetero_partition::{BlockPartitioner, Partitioner, RcbPartitioner};
    use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};
    use proptest::prelude::*;
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

    fn with_dofmaps<T: Send + 'static>(
        n: usize,
        p: usize,
        order: ElementOrder,
        f: impl Fn(&DofMap, &mut SimComm) -> T + Send + Sync,
    ) -> Vec<T> {
        let mesh = StructuredHexMesh::unit_cube(n);
        let assignment = Arc::new(BlockPartitioner.partition(&mesh, p));
        let results = run_spmd(cfg(p), move |comm| {
            let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), p);
            let dm = DofMap::build(&dmesh, order, comm);
            f(&dm, comm)
        });
        results.into_iter().map(|r| r.value).collect()
    }

    #[test]
    fn owned_dofs_partition_global_space() {
        for order in [ElementOrder::Q1, ElementOrder::Q2] {
            for p in [1usize, 2, 4, 8] {
                let owned = with_dofmaps(4, p, order, |dm, _| {
                    (
                        dm.n_owned(),
                        dm.n_global(),
                        (0..dm.n_owned())
                            .map(|l| dm.global_id(l))
                            .collect::<Vec<_>>(),
                    )
                });
                let total: usize = owned.iter().map(|(n, _, _)| n).sum();
                assert_eq!(total, owned[0].1, "order {order:?} p = {p}");
                // No dof owned twice.
                let mut all: Vec<usize> =
                    owned.iter().flat_map(|(_, _, ids)| ids.clone()).collect();
                all.sort_unstable();
                all.dedup();
                assert_eq!(all.len(), owned[0].1);
            }
        }
    }

    #[test]
    fn q1_and_q2_global_counts() {
        let q1 = with_dofmaps(3, 1, ElementOrder::Q1, |dm, _| dm.n_global());
        assert_eq!(q1[0], 64); // 4^3
        let q2 = with_dofmaps(3, 1, ElementOrder::Q2, |dm, _| dm.n_global());
        assert_eq!(q2[0], 343); // 7^3
    }

    #[test]
    fn serial_map_has_no_ghosts() {
        let r = with_dofmaps(3, 1, ElementOrder::Q2, |dm, _| {
            (dm.n_owned(), dm.n_local(), dm.plan().neighbors.len())
        });
        assert_eq!(r[0].0, r[0].1);
        assert_eq!(r[0].2, 0);
    }

    #[test]
    fn cell_dofs_are_local_and_complete() {
        let r = with_dofmaps(4, 8, ElementOrder::Q2, |dm, _| {
            let npe = dm.order().nodes_per_element();
            let mut ok = true;
            for i in 0..dm.num_cells() {
                let dofs = dm.cell_dofs(i);
                ok &= dofs.len() == npe;
                ok &= dofs.iter().all(|&d| d < dm.n_local());
            }
            ok
        });
        assert!(r.iter().all(|&ok| ok));
    }

    #[test]
    fn ghost_exchange_delivers_owner_values() {
        // Fill each dof with its global id (owned only), exchange, and
        // check ghosts received the right values.
        for order in [ElementOrder::Q1, ElementOrder::Q2] {
            let r = with_dofmaps(4, 8, order, move |dm, comm| {
                let mut v = dm.new_vector();
                for l in 0..dm.n_owned() {
                    v.owned_mut()[l] = dm.global_id(l) as f64;
                }
                v.update_ghosts(dm.plan(), comm);
                let mut errors = 0;
                for l in dm.n_owned()..dm.n_local() {
                    if v.as_slice()[l] != dm.global_id(l) as f64 {
                        errors += 1;
                    }
                }
                errors
            });
            assert!(r.iter().all(|&e| e == 0), "order {order:?}");
        }
    }

    #[test]
    fn interpolation_is_exact_at_nodes() {
        let r = with_dofmaps(3, 8, ElementOrder::Q2, |dm, comm| {
            let v = dm.interpolate(|p| p.x + 2.0 * p.y - p.z);
            dm.nodal_linf_error(&v, |p| p.x + 2.0 * p.y - p.z, comm)
        });
        assert!(r.iter().all(|&e| e < 1e-14));
    }

    #[test]
    fn boundary_flags_match_geometry() {
        let r = with_dofmaps(3, 8, ElementOrder::Q1, |dm, _| {
            (0..dm.n_local()).all(|l| {
                let p = dm.coord(l);
                let on_geom = [p.x, p.y, p.z]
                    .iter()
                    .any(|&c| c.abs() < 1e-12 || (c - 1.0).abs() < 1e-12);
                on_geom == dm.on_boundary(l)
            })
        });
        assert!(r.iter().all(|&ok| ok));
    }

    #[test]
    fn l2_error_of_interpolant_is_zero() {
        let r = with_dofmaps(2, 2, ElementOrder::Q1, |dm, comm| {
            let v = dm.interpolate(|p| p.norm_sq());
            dm.nodal_l2_error(&v, |p| p.norm_sq(), comm)
        });
        assert!(r.iter().all(|&e| e < 1e-14));
    }

    #[test]
    fn neighbor_plans_are_symmetric_in_size() {
        let r = with_dofmaps(4, 8, ElementOrder::Q1, |dm, _| {
            dm.plan()
                .neighbors
                .iter()
                .enumerate()
                .map(|(i, &nb)| {
                    (
                        nb,
                        dm.plan().send_indices[i].len(),
                        dm.plan().recv_indices[i].len(),
                    )
                })
                .collect::<Vec<_>>()
        });
        // For every (a -> b, send s), the matching (b -> a) entry has recv s.
        for (a, plan) in r.iter().enumerate() {
            for &(b, s, rx) in plan {
                let back = r[b].iter().find(|&&(t, _, _)| t == a).expect("symmetric");
                assert_eq!(back.2, s, "send {a}->{b}");
                assert_eq!(back.1, rx, "recv {a}<-{b}");
            }
        }
    }

    /// The `BTreeSet` construction `DofMap::build` replaced, kept as its
    /// oracle: node-by-node set inserts, a hash map for global -> local.
    fn btreeset_build(dmesh: &DistributedMesh, order: ElementOrder, comm: &mut SimComm) -> DofMap {
        use std::collections::HashMap;
        let mesh = dmesh.mesh();
        let q = order.q();
        let (nx, ny, nz) = mesh.cell_dims();
        let dof_dims = (q * nx + 1, q * ny + 1, q * nz + 1);
        let rank = dmesh.rank();
        let nodes_of_cell = |c: Index3| -> Vec<usize> {
            let mut out = Vec::new();
            for dc in 0..=q {
                for db in 0..=q {
                    for da in 0..=q {
                        let node = Index3::new(q * c.i + da, q * c.j + db, q * c.k + dc);
                        out.push(node.linear(dof_dims));
                    }
                }
            }
            out
        };
        let mut owned: BTreeSet<usize> = BTreeSet::new();
        let mut cell_global: Vec<usize> = Vec::new();
        for &cell in dmesh.owned_cells() {
            for g in nodes_of_cell(mesh.cell_index(cell)) {
                if dmesh.node_owner(q, Index3::from_linear(g, dof_dims)) == rank {
                    owned.insert(g);
                }
                cell_global.push(g);
            }
        }
        let mut local_set: BTreeSet<usize> = cell_global.iter().copied().collect();
        for &g in &owned {
            let node = Index3::from_linear(g, dof_dims);
            for cell in cells_touching_node(mesh.cell_dims(), q, node) {
                local_set.extend(nodes_of_cell(cell));
            }
        }
        let mut global_ids: Vec<usize> = owned.iter().copied().collect();
        let n_owned = global_ids.len();
        global_ids.extend(local_set.difference(&owned).copied());
        let global_to_local: HashMap<usize, usize> = global_ids
            .iter()
            .enumerate()
            .map(|(l, &g)| (g, l))
            .collect();
        let (cell_size, lo) = (mesh.cell_size(), mesh.lo());
        let mut owners = Vec::new();
        let mut boundary = Vec::new();
        let mut coords = Vec::new();
        for &g in &global_ids {
            let node = Index3::from_linear(g, dof_dims);
            owners.push(dmesh.node_owner(q, node));
            boundary.push(
                node.i == 0
                    || node.i + 1 == dof_dims.0
                    || node.j == 0
                    || node.j + 1 == dof_dims.1
                    || node.k == 0
                    || node.k + 1 == dof_dims.2,
            );
            coords.push(Point3::new(
                lo.x + cell_size.x * node.i as f64 / q as f64,
                lo.y + cell_size.y * node.j as f64 / q as f64,
                lo.z + cell_size.z * node.k as f64 / q as f64,
            ));
        }
        let cell_dofs: Vec<usize> = cell_global.iter().map(|g| global_to_local[g]).collect();
        let mut requests: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (slot, &g) in global_ids.iter().enumerate().skip(n_owned) {
            requests.entry(owners[slot]).or_default().push(g);
        }
        let my_targets: Vec<usize> = requests.keys().copied().collect();
        let all_targets = comm.allgather_usize(&my_targets);
        let requesters: Vec<usize> = all_targets
            .iter()
            .enumerate()
            .filter(|&(r, targets)| r != rank && targets.contains(&rank))
            .map(|(r, _)| r)
            .collect();
        for (&owner, wanted) in &requests {
            comm.send(owner, TAG_DOF_REQUEST, Payload::Usize(wanted.clone()));
        }
        let mut send_map: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &req in &requesters {
            let wanted = comm.recv_usize(req, TAG_DOF_REQUEST);
            send_map.insert(req, wanted.iter().map(|g| global_to_local[g]).collect());
        }
        let neighbors: Vec<usize> = requests
            .keys()
            .chain(send_map.keys())
            .copied()
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        let plan = ExchangePlan {
            neighbors: neighbors.clone(),
            send_indices: neighbors
                .iter()
                .map(|r| send_map.get(r).cloned().unwrap_or_default())
                .collect(),
            recv_indices: neighbors
                .iter()
                .map(|r| {
                    requests
                        .get(r)
                        .map(|gs| gs.iter().map(|g| global_to_local[g]).collect())
                        .unwrap_or_default()
                })
                .collect(),
        };
        DofMap {
            order,
            dof_dims,
            rank,
            n_owned,
            global_ids,
            cell_dofs,
            owners,
            boundary,
            coords,
            plan,
        }
    }

    /// Every field of two maps, coordinates by bits.
    fn same_map(a: &DofMap, b: &DofMap) -> bool {
        let bits = |m: &DofMap| -> Vec<[u64; 3]> {
            m.coords
                .iter()
                .map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
                .collect()
        };
        a.order == b.order
            && a.dof_dims == b.dof_dims
            && a.rank == b.rank
            && a.n_owned == b.n_owned
            && a.global_ids == b.global_ids
            && a.cell_dofs == b.cell_dofs
            && a.owners == b.owners
            && a.boundary == b.boundary
            && bits(a) == bits(b)
            && a.plan == b.plan
    }

    /// A random structured mesh, a Block or RCB layout of it over 1–8
    /// ranks, and an element order.
    fn layout_case() -> impl Strategy<Value = (StructuredHexMesh, Vec<usize>, usize, ElementOrder)>
    {
        (
            1usize..=8,
            any::<bool>(),
            (0usize..=3, 0usize..=3, 0usize..=3),
            prop_oneof![Just(ElementOrder::Q1), Just(ElementOrder::Q2)],
        )
            .prop_map(|(p, block, (ex, ey, ez), order)| {
                let (px, py, pz) = near_cubic_factors(p);
                let (lo, hi) = (Point3::splat(0.0), Point3::new(1.0, 2.0, 0.5));
                if block {
                    let mesh = StructuredHexMesh::new(px + ex, py + ey, pz + ez, lo, hi);
                    let assignment = BlockPartitioner.partition(&mesh, p);
                    (mesh, assignment, p, order)
                } else {
                    let mesh = StructuredHexMesh::new(2 + ex, 2 + ey, 2 + ez, lo, hi);
                    let assignment = RcbPartitioner.partition(&mesh, p);
                    (mesh, assignment, p, order)
                }
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The sorted-vector construction reproduces the `BTreeSet` one:
        /// numbering, cell dofs, owners, boundary flags, coordinates and
        /// exchange plan.
        #[test]
        fn sorted_vector_build_matches_btreeset_oracle(
            (mesh, assignment, p, order) in layout_case()
        ) {
            let assignment = Arc::new(assignment);
            let same = run_spmd(cfg(p), move |comm| {
                let dmesh = DistributedMesh::new(mesh.clone(), Arc::clone(&assignment), comm.rank(), p);
                let built = DofMap::build(&dmesh, order, comm);
                let oracle = btreeset_build(&dmesh, order, comm);
                same_map(&built, &oracle)
            });
            for (rank, r) in same.iter().enumerate() {
                prop_assert!(r.value, "rank {} of {} differs from the oracle", rank, p);
            }
        }
    }
}
