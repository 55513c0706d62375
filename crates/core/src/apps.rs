//! The two benchmark applications, as the harness sees them.

use hetero_fem::element::ElementOrder;
use hetero_fem::ns::NsConfig;
use hetero_fem::rd::{PrecondKind, RdConfig};
use hetero_linalg::SolverVariant;
use serde::{Deserialize, Serialize};

/// One of the paper's applications with its configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum App {
    /// The reaction–diffusion test (paper Section IV-A).
    Rd(RdConfig),
    /// The Navier–Stokes / Ethier–Steinman test (Section IV-B).
    Ns(NsConfig),
}

impl App {
    /// The paper's RD configuration: order-2 elements, BDF2, ILU(0)
    /// preconditioning (a visible "preconditioner" phase, as in Figure 4).
    pub fn paper_rd(steps: usize) -> App {
        App::Rd(RdConfig {
            order: ElementOrder::Q2,
            precond: PrecondKind::Ilu0,
            steps,
            ..RdConfig::default()
        })
    }

    /// The paper's NS configuration: order-2 velocity / order-1 pressure,
    /// BDF2, Jacobi on the momentum blocks, ILU(0) on the pressure Poisson.
    pub fn paper_ns(steps: usize) -> App {
        App::Ns(NsConfig {
            precond_p: PrecondKind::Ilu0,
            steps,
            ..NsConfig::default()
        })
    }

    /// A cheap configuration for tests: order-1 RD.
    pub fn smoke_rd(steps: usize) -> App {
        App::Rd(RdConfig {
            order: ElementOrder::Q1,
            steps,
            ..RdConfig::default()
        })
    }

    /// Display name ("RD" / "NS").
    pub fn name(&self) -> &'static str {
        match self {
            App::Rd(_) => "RD",
            App::Ns(_) => "NS",
        }
    }

    /// Number of time steps (measured iterations).
    pub fn steps(&self) -> usize {
        match self {
            App::Rd(c) => c.steps,
            App::Ns(c) => c.steps,
        }
    }

    /// Returns a copy with the step count replaced.
    pub fn with_steps(&self, steps: usize) -> App {
        match self {
            App::Rd(c) => App::Rd(RdConfig { steps, ..c.clone() }),
            App::Ns(c) => App::Ns(NsConfig { steps, ..c.clone() }),
        }
    }

    /// The element order of the primary unknown (drives halo sizes).
    pub fn primary_order(&self) -> ElementOrder {
        match self {
            App::Rd(c) => c.order,
            App::Ns(c) => c.vel_order,
        }
    }

    /// Returns a copy with every Krylov solve switched to `variant`
    /// (RD: the CG solve; NS: momentum and pressure solves alike).
    pub fn with_solver_variant(&self, variant: SolverVariant) -> App {
        match self {
            App::Rd(c) => {
                let mut c = c.clone();
                c.solve.variant = variant;
                App::Rd(c)
            }
            App::Ns(c) => {
                let mut c = c.clone();
                c.solve_vel.variant = variant;
                c.solve_p.variant = variant;
                App::Ns(c)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_the_text() {
        let rd = App::paper_rd(10);
        assert_eq!(rd.name(), "RD");
        assert_eq!(rd.steps(), 10);
        assert_eq!(rd.primary_order(), ElementOrder::Q2);
        let ns = App::paper_ns(5);
        match &ns {
            App::Ns(c) => {
                assert_eq!(c.vel_order, ElementOrder::Q2);
                assert_eq!(c.p_order, ElementOrder::Q1);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn with_steps_overrides() {
        let a = App::paper_rd(10).with_steps(3);
        assert_eq!(a.steps(), 3);
    }
}
