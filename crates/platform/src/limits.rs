//! The execution limits the paper ran into.
//!
//! "The former machine \[ellipse\] was not natively configured to execute the
//! parallel jobs and our tasks spanning above 512 processes could not be
//! launched (mpiexec was unable to initialize a huge number of remote MPI
//! daemons). On the \[latter\] target \[lagrange\], our simulation codes reached
//! the configured limit of data volume sent by the IB network adapters. As
//! a result, we could not execute tasks bigger than 343 processes there."

use serde::{Deserialize, Serialize};

/// Why a run cannot execute on a platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LimitViolation {
    /// The job needs more cores than the machine has.
    InsufficientCapacity {
        /// Cores requested.
        requested: usize,
        /// Cores available.
        available: usize,
    },
    /// The launcher cannot spawn this many remote daemons (ellipse's
    /// mpiexec failure above 512 processes).
    LauncherFailure {
        /// Ranks requested.
        requested: usize,
        /// Maximum launchable.
        max_ranks: usize,
    },
    /// Per-adapter data-volume cap exceeded (lagrange's InfiniBand limit).
    AdapterVolumeExceeded {
        /// Estimated bytes per node per iteration.
        estimated: f64,
        /// Configured cap.
        cap: f64,
    },
    /// The request asks for none of something every run needs at least
    /// one of: ranks, cells along a rank's axis, time steps, or cores
    /// per node.
    DegenerateRequest {
        /// The request field that is zero.
        field: String,
    },
    /// A numerically executed run asks for more ranks than the simulator
    /// runs in one job; the modeled engine prices any rank count.
    SimulatorRankCeiling {
        /// Ranks requested.
        requested: usize,
        /// The simulator's rank ceiling.
        max_ranks: usize,
    },
}

impl std::fmt::Display for LimitViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LimitViolation::InsufficientCapacity {
                requested,
                available,
            } => {
                write!(f, "requested {requested} cores but only {available} exist")
            }
            LimitViolation::LauncherFailure {
                requested,
                max_ranks,
            } => write!(
                f,
                "mpiexec cannot initialize {requested} remote daemons (limit ~{max_ranks})"
            ),
            LimitViolation::AdapterVolumeExceeded { estimated, cap } => write!(
                f,
                "estimated {estimated:.2e} B/node/iter exceeds the adapter volume cap {cap:.2e}"
            ),
            LimitViolation::DegenerateRequest { field } => {
                write!(f, "{field} is 0, but a run needs at least one")
            }
            LimitViolation::SimulatorRankCeiling {
                requested,
                max_ranks,
            } => write!(
                f,
                "{requested} ranks exceed the simulator's rank ceiling ({max_ranks}) for a \
                 numerical run; request Fidelity::Modeled"
            ),
        }
    }
}

/// A platform's execution limits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionLimits {
    /// Hard core capacity (nodes x cores/node x allocable fraction).
    pub max_cores: usize,
    /// Launcher rank cap, if any (ellipse).
    pub max_launchable_ranks: Option<usize>,
    /// Per-node per-iteration traffic cap in bytes, if any (lagrange).
    pub adapter_volume_cap: Option<f64>,
}

impl ExecutionLimits {
    /// No limits beyond capacity.
    pub fn capacity_only(max_cores: usize) -> Self {
        ExecutionLimits {
            max_cores,
            max_launchable_ranks: None,
            adapter_volume_cap: None,
        }
    }

    /// Checks whether a job of `ranks` ranks, moving an estimated
    /// `bytes_per_node_per_iter` through each node's adapter per iteration,
    /// can run.
    pub fn check(&self, ranks: usize, bytes_per_node_per_iter: f64) -> Result<(), LimitViolation> {
        if ranks > self.max_cores {
            return Err(LimitViolation::InsufficientCapacity {
                requested: ranks,
                available: self.max_cores,
            });
        }
        if let Some(max) = self.max_launchable_ranks {
            if ranks > max {
                return Err(LimitViolation::LauncherFailure {
                    requested: ranks,
                    max_ranks: max,
                });
            }
        }
        if let Some(cap) = self.adapter_volume_cap {
            if bytes_per_node_per_iter > cap {
                return Err(LimitViolation::AdapterVolumeExceeded {
                    estimated: bytes_per_node_per_iter,
                    cap,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_check() {
        let l = ExecutionLimits::capacity_only(128);
        assert!(l.check(125, 0.0).is_ok());
        assert!(matches!(
            l.check(216, 0.0),
            Err(LimitViolation::InsufficientCapacity {
                requested: 216,
                available: 128
            })
        ));
    }

    #[test]
    fn launcher_cap() {
        let l = ExecutionLimits {
            max_cores: 1024,
            max_launchable_ranks: Some(512),
            adapter_volume_cap: None,
        };
        assert!(l.check(512, 0.0).is_ok());
        assert!(matches!(
            l.check(729, 0.0),
            Err(LimitViolation::LauncherFailure { .. })
        ));
    }

    #[test]
    fn adapter_volume_cap() {
        let l = ExecutionLimits {
            max_cores: 10_000,
            max_launchable_ranks: None,
            adapter_volume_cap: Some(1e9),
        };
        assert!(l.check(343, 0.9e9).is_ok());
        assert!(matches!(
            l.check(512, 1.4e9),
            Err(LimitViolation::AdapterVolumeExceeded { .. })
        ));
    }

    #[test]
    fn violations_display() {
        let v = LimitViolation::LauncherFailure {
            requested: 729,
            max_ranks: 512,
        };
        assert!(v.to_string().contains("729"));
    }
}
