//! Billing models and the paper's exact rates.
//!
//! The paper's cost analysis (Figures 6 and 7, Table II) rests on one
//! asymmetry: traditional resources charge per *core*-hour, while "Amazon
//! charges the users for the entire machine" — whole 16-core instances —
//! so under-filling nodes inflates the EC2 cost, visible in the first two
//! points of both cost figures.

use serde::{Deserialize, Serialize};

/// How a platform charges for compute.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Billing {
    /// Dollars per core per hour, charged for exactly the cores used.
    PerCoreHour(f64),
    /// Dollars per node per hour, charged for whole nodes.
    PerNodeHour {
        /// Node-hour rate in dollars.
        rate: f64,
        /// Cores on each billed node.
        cores_per_node: usize,
    },
    /// Internal resource with an *estimated* (capital + operating) rate per
    /// core-hour, not actually invoiced.
    EstimatedPerCoreHour(f64),
}

/// A platform's cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// The billing scheme.
    pub billing: Billing,
    /// Human-readable provenance of the rate ("flat university rate",
    /// "EUR 0.15/core-h at 2012 exchange rates", ...).
    pub note: String,
}

impl CostModel {
    /// Dollars charged for running `ranks` ranks for `seconds` of wall time
    /// (one rank per core).
    pub fn cost(&self, ranks: usize, seconds: f64) -> f64 {
        let hours = seconds / 3600.0;
        match self.billing {
            Billing::PerCoreHour(rate) | Billing::EstimatedPerCoreHour(rate) => {
                rate * ranks as f64 * hours
            }
            Billing::PerNodeHour {
                rate,
                cores_per_node,
            } => rate * ranks.div_ceil(cores_per_node) as f64 * hours,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_billed() -> CostModel {
        CostModel {
            billing: Billing::PerNodeHour {
                rate: 2.40,
                cores_per_node: 16,
            },
            note: String::new(),
        }
    }

    #[test]
    fn per_core_hour_scales_linearly() {
        let m = CostModel {
            billing: Billing::PerCoreHour(0.05),
            note: String::new(),
        };
        assert!((m.cost(100, 3600.0) - 5.0).abs() < 1e-12);
        assert!((m.cost(100, 1800.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn whole_node_billing_rounds_up() {
        let m = node_billed();
        // 17 ranks need 2 instances.
        assert!((m.cost(17, 3600.0) - 4.80).abs() < 1e-12);
        assert!((m.cost(16, 3600.0) - 2.40).abs() < 1e-12);
        assert!((m.cost(1, 3600.0) - 2.40).abs() < 1e-12);
    }

    #[test]
    fn table_ii_costs_reproduce() {
        // Table II, full configuration: 1000 ranks on 63 instances at
        // $2.40/h for 162.09 s per iteration -> $6.8077.
        let m = node_billed();
        let c = m.cost(1000, 162.09);
        assert!((c - 6.8077).abs() < 0.005, "{c}");
        // And the single-rank row: 4.83 s -> $0.0032.
        let c1 = m.cost(1, 4.83);
        assert!((c1 - 0.0032).abs() < 0.0002, "{c1}");
        // Spot estimate column: $0.54/instance-hour, 148.98 s -> $1.4079.
        let spot = CostModel {
            billing: Billing::PerNodeHour {
                rate: 0.54,
                cores_per_node: 16,
            },
            note: String::new(),
        };
        let cs = spot.cost(1000, 148.98);
        assert!((cs - 1.4079).abs() < 0.003, "{cs}");
    }

    #[test]
    fn effective_rate_penalizes_underfilled_nodes() {
        let m = node_billed();
        // Dollars per core-hour at a given rank count.
        let per_core_hour = |ranks: usize| m.cost(ranks, 3600.0) / ranks as f64;
        // A single rank pays the whole 16-core instance: 2.40/core-h.
        assert!((per_core_hour(1) - 2.40).abs() < 1e-12);
        // A full instance amortizes to 15 c/core-h (the paper's figure).
        assert!((per_core_hour(16) - 0.15).abs() < 1e-12);
        assert!((per_core_hour(1000) - 63.0 * 2.40 / 1000.0).abs() < 1e-12);
    }
}
