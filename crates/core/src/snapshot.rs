//! Solution snapshots — the role HDF5 plays in the paper's stack ("for the
//! storage of large data on file").
//!
//! A [`Snapshot`] collects a distributed field (owned DoF values keyed by
//! global ids) onto rank 0, which can serialize it to disk and later
//! redistribute it onto a *different* partition — the checkpoint/restart
//! and postprocessing-export workflow of the paper's applications (their
//! step (iv) hands solutions to ParaView through exactly such files).

use hetero_fem::dofmap::DofMap;
use hetero_linalg::DistVector;
use hetero_simmpi::SimComm;
use serde::{Deserialize, Serialize};

/// One named scalar field captured at a simulation time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FieldSnapshot {
    /// Field name ("u", "velocity_x", "pressure"...).
    pub name: String,
    /// Global DoF count of the field's space.
    pub n_global: usize,
    /// Dense global values, indexed by global DoF id.
    pub values: Vec<f64>,
}

/// A collection of fields at one time/step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Application name.
    pub app: String,
    /// Simulation time.
    pub time: f64,
    /// Time-step index.
    pub step: usize,
    /// Captured fields.
    pub fields: Vec<FieldSnapshot>,
}

impl Snapshot {
    /// Creates an empty snapshot header.
    pub fn new(app: &str, time: f64, step: usize) -> Self {
        Snapshot {
            app: app.into(),
            time,
            step,
            fields: Vec::new(),
        }
    }

    /// Gathers a distributed field onto rank 0 and appends it (collective;
    /// non-root ranks append nothing). The transfer is charged to the
    /// simulated clock like any other communication.
    pub fn capture(&mut self, name: &str, dm: &DofMap, v: &DistVector, comm: &mut SimComm) {
        // Interleave (global id, value) pairs; rank 0 scatters them into a
        // dense array.
        let pairs: Vec<f64> = (0..dm.n_owned())
            .flat_map(|l| [dm.global_id(l) as f64, v.owned()[l]])
            .collect();
        if let Some(all) = comm.gather(0, &pairs) {
            let mut values = vec![0.0; dm.n_global()];
            let mut seen = 0usize;
            for rank_pairs in all {
                for chunk in rank_pairs.chunks_exact(2) {
                    values[chunk[0] as usize] = chunk[1];
                    seen += 1;
                }
            }
            assert_eq!(seen, dm.n_global(), "owned dofs must tile the global space");
            self.fields.push(FieldSnapshot {
                name: name.into(),
                n_global: dm.n_global(),
                values,
            });
        }
    }

    /// Looks a captured field up by name.
    pub fn field(&self, name: &str) -> Option<&FieldSnapshot> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Restores a field into a vector on a (possibly different) partition:
    /// rank 0 broadcasts the dense data; every rank fills its owned and
    /// ghost slots. Collective.
    pub fn restore(&self, name: &str, dm: &DofMap, comm: &mut SimComm) -> DistVector {
        let data = if comm.rank() == 0 {
            self.field(name)
                .unwrap_or_else(|| panic!("snapshot has no field {name}"))
                .values
                .clone()
        } else {
            Vec::new()
        };
        let data = comm.bcast(0, data);
        assert_eq!(data.len(), dm.n_global(), "snapshot space mismatch");
        let mut v = dm.new_vector();
        for l in 0..dm.n_local() {
            v.as_mut_slice()[l] = data[dm.global_id(l)];
        }
        v
    }

    /// Serializes to the on-disk format (pretty JSON; the role HDF5 plays
    /// for LifeV).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }

    /// Parses the on-disk format.
    ///
    /// # Errors
    /// Returns the underlying JSON error on malformed input.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_fem::element::ElementOrder;
    use hetero_mesh::{DistributedMesh, StructuredHexMesh};
    use hetero_partition::block::near_cubic_factors;
    use hetero_partition::BlockLayout;
    use hetero_simmpi::{run_spmd, ClusterTopology, ComputeModel, NetworkModel, SpmdConfig};
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

    #[test]
    fn capture_then_restore_roundtrips_across_partitions() {
        // Capture on the near-cubic blocks, restore on x slabs: the field
        // must survive the re-distribution exactly.
        let mesh = StructuredHexMesh::unit_cube(4);
        let block =
            Arc::new(BlockLayout::new(mesh.cell_dims(), near_cubic_factors(4)).assignment());
        let slabs = Arc::new(BlockLayout::new(mesh.cell_dims(), (4, 1, 1)).assignment());
        let f = |p: hetero_mesh::Point3| 1.0 + p.x + 2.0 * p.y * p.z;

        let results = run_spmd(cfg(4), move |comm| {
            let d1 = DistributedMesh::new(mesh.clone(), Arc::clone(&block), comm.rank(), 4);
            let m1 = DofMap::build(&d1, ElementOrder::Q2, comm);
            let v1 = m1.interpolate(f);
            let mut snap = Snapshot::new("RD", 1.25, 7);
            snap.capture("u", &m1, &v1, comm);

            // Ship the snapshot "to disk and back" on rank 0.
            let snap = if comm.rank() == 0 {
                Snapshot::from_json(&snap.to_json()).unwrap()
            } else {
                snap
            };

            let d2 = DistributedMesh::new(mesh.clone(), Arc::clone(&slabs), comm.rank(), 4);
            let m2 = DofMap::build(&d2, ElementOrder::Q2, comm);
            let v2 = snap.restore("u", &m2, comm);
            m2.nodal_linf_error(&v2, f, comm)
        });
        for r in &results {
            assert!(r.value < 1e-14, "restore error {}", r.value);
        }
    }

    #[test]
    fn snapshot_header_and_lookup() {
        let mut s = Snapshot::new("NS", 0.5, 3);
        assert_eq!(s.app, "NS");
        s.fields.push(FieldSnapshot {
            name: "p".into(),
            n_global: 8,
            values: vec![0.0; 8],
        });
        assert!(s.field("p").is_some());
        assert!(s.field("q").is_none());
    }

    #[test]
    fn json_roundtrip_is_lossless() {
        let mut s = Snapshot::new("RD", 2.0, 11);
        s.fields.push(FieldSnapshot {
            name: "u".into(),
            n_global: 3,
            values: vec![1.5, -2.25, 0.125],
        });
        let parsed = Snapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Snapshot::from_json("{not json").is_err());
    }

    #[test]
    #[should_panic(expected = "no field missing")]
    fn restoring_a_missing_field_panics() {
        let mesh = StructuredHexMesh::unit_cube(2);
        let asg = Arc::new(vec![0usize; mesh.num_cells()]);
        run_spmd(cfg(1), move |comm| {
            let d = DistributedMesh::new(mesh.clone(), Arc::clone(&asg), 0, 1);
            let m = DofMap::build(&d, ElementOrder::Q1, comm);
            let s = Snapshot::new("RD", 0.0, 0);
            let _ = s.restore("missing", &m, comm);
        });
    }
}
