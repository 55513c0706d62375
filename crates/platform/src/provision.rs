//! The provisioning planner: Table I and Section VI as executable logic.
//!
//! The paper's porting exercise is a dependency-resolution problem: the
//! LifeV application needs a closed set of packages (Section IV-D) plus a
//! working parallel execution environment, each platform starts with a
//! different subset (Table I), and the cheapest remediation differs by
//! platform (reuse > vendor library > package manager [root only] > source
//! build). The planner reproduces both the *plans* (which coloured cell of
//! Table I gets which fix) and the *effort totals* ("about 8 man-hours" on
//! ellipse and lagrange, about a day on EC2, none on puma).

use crate::scheduler::SchedulerKind;
use serde::{Deserialize, Serialize};

/// The software packages of the LifeV stack (paper Section IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Pkg {
    /// GNU make + binutils etc.
    BuildTools,
    /// Autoconf/automake/libtool.
    Autotools,
    /// C/C++ compiler (GCC >= 4).
    Gcc,
    /// Fortran compiler compatible with C++.
    Gfortran,
    /// CMake >= 2.8 (required by Trilinos).
    CMake,
    /// MPI implementation (e.g. Open MPI).
    Mpi,
    /// BLAS/LAPACK (generic or vendor).
    BlasLapack,
    /// Boost C++ libraries.
    Boost,
    /// HDF5 (1.6 interface).
    Hdf5,
    /// ParMETIS mesh partitioner.
    ParMetis,
    /// SuiteSparse.
    SuiteSparse,
    /// Trilinos.
    Trilinos,
    /// The LifeV library itself plus the applications.
    LifeV,
}

impl Pkg {
    /// All packages, in a valid install order.
    const ALL: [Pkg; 13] = [
        Pkg::BuildTools,
        Pkg::Autotools,
        Pkg::Gcc,
        Pkg::Gfortran,
        Pkg::CMake,
        Pkg::Mpi,
        Pkg::BlasLapack,
        Pkg::Boost,
        Pkg::Hdf5,
        Pkg::ParMetis,
        Pkg::SuiteSparse,
        Pkg::Trilinos,
        Pkg::LifeV,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Pkg::BuildTools => "GNU make/build tools",
            Pkg::Autotools => "Autotools",
            Pkg::Gcc => "GCC (C/C++)",
            Pkg::Gfortran => "GFortran",
            Pkg::CMake => "CMake >= 2.8",
            Pkg::Mpi => "Open MPI",
            Pkg::BlasLapack => "BLAS/LAPACK",
            Pkg::Boost => "Boost",
            Pkg::Hdf5 => "HDF5",
            Pkg::ParMetis => "ParMETIS",
            Pkg::SuiteSparse => "SuiteSparse",
            Pkg::Trilinos => "Trilinos",
            Pkg::LifeV => "LifeV + applications",
        }
    }
}

/// How a missing capability gets provided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Action {
    /// Already usable as found.
    Preinstalled,
    /// Use the CPU vendor's library (ACML, MKL).
    VendorLibrary(String),
    /// Install from the system package repository (requires root).
    PackageManager,
    /// Download sources and build in user space.
    SourceBuild,
    /// Ask the system administrators (quota raise, configuration).
    AdminRequest(String),
    /// Reconfigure the system (ssh keys, security groups, partitions) —
    /// requires root or service-console access.
    SystemConfig(String),
    /// Let Open MPI liaise with a serial-only SGE to run parallel jobs.
    SgeLiaison,
}

impl Action {
    /// Man-hours this action takes, for package `pkg` where applicable.
    pub fn hours(&self, pkg: Option<Pkg>) -> f64 {
        match self {
            Action::Preinstalled => 0.0,
            Action::VendorLibrary(_) => 0.25,
            Action::PackageManager => 0.1,
            // Configure, compile, install and smoke-test in user space, by
            // an experienced developer.
            Action::SourceBuild => match pkg.expect("source builds are per package") {
                Pkg::BuildTools => 1.0,
                Pkg::Autotools => 0.5,
                Pkg::Gcc => 4.0, // bootstrap from source: last resort
                Pkg::Gfortran => 1.0,
                Pkg::CMake => 0.5,
                Pkg::Mpi => 1.5,
                Pkg::BlasLapack => 1.25, // GotoBLAS2 + LAPACK
                Pkg::Boost => 1.0,
                Pkg::Hdf5 => 0.75,
                Pkg::ParMetis => 0.5,
                Pkg::SuiteSparse => 0.75,
                Pkg::Trilinos => 2.5,
                Pkg::LifeV => 0.5, // the team's own Makefile-driven build
            },
            Action::AdminRequest(_) => 0.5,
            Action::SystemConfig(_) => 0.5,
            Action::SgeLiaison => 0.5,
        }
    }

    /// Short label for reports (colour-coded cells of Table I).
    pub fn label(&self) -> String {
        match self {
            Action::Preinstalled => "preinstalled".into(),
            Action::VendorLibrary(v) => format!("vendor lib ({v})"),
            Action::PackageManager => "yum install".into(),
            Action::SourceBuild => "source install".into(),
            Action::AdminRequest(what) => format!("admin request: {what}"),
            Action::SystemConfig(what) => format!("system config: {what}"),
            Action::SgeLiaison => "Open MPI <-> SGE liaison".into(),
        }
    }
}

/// A platform's initial software environment (the "before porting" state of
/// Table I).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformEnvironment {
    /// Platform key.
    pub key: String,
    /// Packages already usable.
    pub preinstalled: Vec<Pkg>,
    /// CPU-vendor BLAS/LAPACK available ("ACML", "MKL").
    pub vendor_blas: Option<String>,
    /// Root access with a working package manager (EC2's yum).
    pub root_package_manager: bool,
    /// Packages the package manager can provide (when rooted). CMake 2.8
    /// was *not* in EC2's repos — the paper built it from source.
    pub pkg_manager_has: Vec<Pkg>,
    /// Scratch/storage adequate out of the box.
    pub scratch_sufficient: bool,
    /// The storage remediation if insufficient.
    pub scratch_fix: Option<Action>,
    /// Scheduler (drives the parallel-execution remediation).
    pub scheduler: SchedulerKind,
    /// IaaS-only setup chores (ssh mutual auth, open intranet ports,
    /// image preparation).
    pub iaas_setup: Vec<Action>,
    /// Level of on-site support (Table I "support" row), for reporting.
    pub support: String,
}

/// The four platforms' initial environments, per Section VI.
pub fn environment_of(key: &str) -> Option<PlatformEnvironment> {
    match key {
        "puma" => Some(PlatformEnvironment {
            key: "puma".into(),
            preinstalled: Pkg::ALL.to_vec(), // the home environment
            vendor_blas: None,
            root_package_manager: false,
            pkg_manager_has: vec![],
            scratch_sufficient: true,
            scratch_fix: None,
            scheduler: SchedulerKind::PbsTorque,
            iaas_setup: vec![],
            support: "full".into(),
        }),
        "ellipse" => Some(PlatformEnvironment {
            key: "ellipse".into(),
            preinstalled: vec![
                Pkg::BuildTools,
                Pkg::Autotools,
                Pkg::Gcc,
                Pkg::Gfortran,
                Pkg::CMake,
            ],
            vendor_blas: Some("ACML".into()),
            root_package_manager: false,
            pkg_manager_has: vec![],
            scratch_sufficient: false,
            scratch_fix: Some(Action::AdminRequest("raise disk quota".into())),
            scheduler: SchedulerKind::SgeSerialOnly,
            iaas_setup: vec![],
            support: "very limited".into(),
        }),
        "lagrange" => Some(PlatformEnvironment {
            key: "lagrange".into(),
            preinstalled: vec![
                Pkg::BuildTools,
                Pkg::Autotools,
                Pkg::Gcc,
                Pkg::Gfortran,
                Pkg::CMake,
                Pkg::Mpi,
            ],
            vendor_blas: Some("MKL".into()),
            root_package_manager: false,
            pkg_manager_has: vec![],
            scratch_sufficient: true,
            scratch_fix: None,
            scheduler: SchedulerKind::PbsPro,
            iaas_setup: vec![],
            support: "limited".into(),
        }),
        "ec2" => Some(PlatformEnvironment {
            key: "ec2".into(),
            preinstalled: vec![],
            vendor_blas: None,
            root_package_manager: true,
            pkg_manager_has: vec![
                Pkg::BuildTools,
                Pkg::Autotools,
                Pkg::Gcc,
                Pkg::Gfortran,
                Pkg::Mpi,
            ],
            scratch_sufficient: false,
            scratch_fix: Some(Action::SystemConfig("resize boot partition".into())),
            scheduler: SchedulerKind::DirectShell,
            iaas_setup: vec![
                Action::SystemConfig("generate + distribute ssh host keys".into()),
                Action::SystemConfig("open intranet TCP ports in the security group".into()),
                Action::SystemConfig("save the preconditioned private image".into()),
            ],
            support: "none".into(),
        }),
        _ => None,
    }
}

/// One planned remediation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// What is being provided.
    pub item: String,
    /// How.
    pub action: Action,
    /// Man-hours.
    pub hours: f64,
}

/// A full provisioning plan for one platform.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProvisionPlan {
    /// Platform key.
    pub platform: String,
    /// Ordered steps (dependencies before dependents).
    pub steps: Vec<PlanStep>,
}

impl ProvisionPlan {
    /// Total man-hours.
    pub fn total_hours(&self) -> f64 {
        // `0.0 +` normalizes the empty-plan sum (which can be -0.0) so
        // reports never print "-0.0 h".
        0.0 + self.steps.iter().map(|s| s.hours).sum::<f64>()
    }

    /// Renders a human-readable plan.
    pub fn render(&self) -> String {
        let mut out = format!("Provisioning plan for {}\n", self.platform);
        for s in &self.steps {
            out.push_str(&format!(
                "  {:<28} {:<38} {:>5.2} h\n",
                s.item,
                s.action.label(),
                s.hours
            ));
        }
        out.push_str(&format!(
            "  {:<28} {:<38} {:>5.2} h\n",
            "TOTAL",
            "",
            self.total_hours()
        ));
        out
    }
}

/// Errors from planning.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A package cannot be provided by any mechanism.
    Unsatisfiable(Pkg),
}

/// Picks the cheapest action that can provide `pkg` on `env` (reuse >
/// vendor library > package manager > source build).
fn best_action(pkg: Pkg, env: &PlatformEnvironment) -> Action {
    if env.preinstalled.contains(&pkg) {
        return Action::Preinstalled;
    }
    if pkg == Pkg::BlasLapack {
        if let Some(vendor) = &env.vendor_blas {
            return Action::VendorLibrary(vendor.clone());
        }
    }
    if env.root_package_manager && env.pkg_manager_has.contains(&pkg) {
        return Action::PackageManager;
    }
    Action::SourceBuild
}

/// Computes the provisioning plan that takes `env` to a state able to build
/// and run the LifeV applications in parallel.
pub fn plan(env: &PlatformEnvironment) -> Result<ProvisionPlan, PlanError> {
    let mut steps = Vec::new();

    // Packages in dependency (topological) order: Pkg::ALL is already a
    // valid order for this DAG; assert it in tests.
    for pkg in Pkg::ALL {
        let action = best_action(pkg, env);
        if action == Action::SourceBuild {
            // A source build needs a compiler and build tools from
            // somewhere; Gcc itself falling back to a source build without
            // any compiler is unsatisfiable.
            if pkg == Pkg::Gcc && !env.root_package_manager {
                return Err(PlanError::Unsatisfiable(Pkg::Gcc));
            }
        }
        let hours = action.hours(Some(pkg));
        if action != Action::Preinstalled {
            steps.push(PlanStep {
                item: pkg.name().into(),
                action,
                hours,
            });
        }
    }

    // Storage.
    if !env.scratch_sufficient {
        let action = env
            .scratch_fix
            .clone()
            .unwrap_or(Action::AdminRequest("storage remediation".into()));
        let hours = action.hours(None);
        steps.push(PlanStep {
            item: "scratch space".into(),
            action,
            hours,
        });
    }

    // Parallel execution environment.
    match env.scheduler {
        SchedulerKind::PbsTorque | SchedulerKind::PbsPro => {}
        SchedulerKind::SgeSerialOnly => {
            steps.push(PlanStep {
                item: "parallel job launch".into(),
                action: Action::SgeLiaison,
                hours: Action::SgeLiaison.hours(None),
            });
        }
        SchedulerKind::DirectShell => {
            for action in &env.iaas_setup {
                steps.push(PlanStep {
                    item: "execution environment".into(),
                    action: action.clone(),
                    hours: action.hours(None),
                });
            }
        }
    }

    // Application build against the assembled stack (trivial at home where
    // LifeV itself is preinstalled).
    if !env.preinstalled.contains(&Pkg::LifeV) {
        steps.push(PlanStep {
            item: "application Makefile update".into(),
            action: Action::SystemConfig("adapt Makefile to the new prefix layout".into()),
            hours: 0.25,
        });
    }

    Ok(ProvisionPlan {
        platform: env.key.clone(),
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_for(key: &str) -> ProvisionPlan {
        plan(&environment_of(key).unwrap()).unwrap()
    }

    /// Build-time dependencies: the DAG that `Pkg::ALL` and every plan
    /// must order.
    fn deps(pkg: Pkg) -> &'static [Pkg] {
        match pkg {
            Pkg::BuildTools | Pkg::Gcc => &[],
            Pkg::Autotools | Pkg::Gfortran => &[Pkg::BuildTools],
            Pkg::CMake => &[Pkg::Gcc, Pkg::BuildTools],
            Pkg::Mpi => &[Pkg::Gcc, Pkg::BuildTools],
            Pkg::BlasLapack => &[Pkg::Gcc, Pkg::Gfortran, Pkg::BuildTools],
            Pkg::Boost => &[Pkg::Gcc, Pkg::BuildTools],
            Pkg::Hdf5 => &[Pkg::Mpi, Pkg::Gcc, Pkg::BuildTools],
            Pkg::ParMetis => &[Pkg::Mpi, Pkg::Gcc, Pkg::BuildTools],
            Pkg::SuiteSparse => &[Pkg::BlasLapack, Pkg::Gcc, Pkg::BuildTools],
            Pkg::Trilinos => &[Pkg::BlasLapack, Pkg::Mpi, Pkg::CMake, Pkg::Gcc],
            Pkg::LifeV => &[
                Pkg::Trilinos,
                Pkg::ParMetis,
                Pkg::SuiteSparse,
                Pkg::Hdf5,
                Pkg::Boost,
                Pkg::Mpi,
                Pkg::Autotools,
                Pkg::Gcc,
            ],
        }
    }

    #[test]
    fn pkg_all_is_a_topological_order() {
        for (i, pkg) in Pkg::ALL.iter().enumerate() {
            for dep in deps(*pkg) {
                let j = Pkg::ALL.iter().position(|p| p == dep).unwrap();
                assert!(j < i, "{dep:?} must precede {pkg:?}");
            }
        }
    }

    #[test]
    fn every_platform_plan_is_dependency_ordered() {
        for key in ["puma", "ellipse", "lagrange", "ec2"] {
            let p = plan_for(key);
            // If both a package and one of its dependencies appear as steps,
            // the dependency comes first.
            let pos = |name: &str| p.steps.iter().position(|s| s.item == name);
            for pkg in Pkg::ALL {
                if let Some(i) = pos(pkg.name()) {
                    for dep in deps(pkg) {
                        if let Some(j) = pos(dep.name()) {
                            assert!(j < i, "{key}: {} must precede {}", dep.name(), pkg.name());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn home_platform_needs_no_work() {
        let p = plan_for("puma");
        assert_eq!(p.total_hours(), 0.0, "{}", p.render());
        assert!(p.steps.is_empty());
    }

    #[test]
    fn ellipse_takes_about_eight_hours() {
        // Paper Section VI-B: "about 8 man-hours of work by an experienced
        // member of the LifeV developers team".
        let p = plan_for("ellipse");
        let h = p.total_hours();
        assert!((7.0..=9.5).contains(&h), "{h} h\n{}", p.render());
        // MPI must be a source build; BLAS must come from ACML.
        assert!(p
            .steps
            .iter()
            .any(|s| s.item.contains("Open MPI") && s.action == Action::SourceBuild));
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(&s.action, Action::VendorLibrary(v) if v == "ACML")));
        // SGE needs the liaison.
        assert!(p.steps.iter().any(|s| s.action == Action::SgeLiaison));
    }

    #[test]
    fn lagrange_takes_about_eight_hours() {
        // Paper Section VI-C: "about 8 man-hours for the LifeV developer".
        let p = plan_for("lagrange");
        let h = p.total_hours();
        assert!((6.0..=9.5).contains(&h), "{h} h\n{}", p.render());
        // MPI is preinstalled there; Trilinos is the big source build.
        assert!(!p.steps.iter().any(|s| s.item.contains("Open MPI")));
        assert!(p
            .steps
            .iter()
            .any(|s| s.item.contains("Trilinos") && s.action == Action::SourceBuild));
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(&s.action, Action::VendorLibrary(v) if v == "MKL")));
    }

    #[test]
    fn ec2_takes_about_a_day() {
        // Paper Section VI-D + VIII: "provisioning of a machine took about
        // a day"; EC2 needed the most work.
        let p = plan_for("ec2");
        let h = p.total_hours();
        assert!((8.5..=12.0).contains(&h), "{h} h\n{}", p.render());
        // Compilers come from yum; CMake from source (not in the repos).
        assert!(p
            .steps
            .iter()
            .any(|s| s.item.contains("GCC") && s.action == Action::PackageManager));
        assert!(p
            .steps
            .iter()
            .any(|s| s.item.contains("CMake") && s.action == Action::SourceBuild));
        // Cloud-specific system configuration shows up.
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(&s.action, Action::SystemConfig(w) if w.contains("ssh"))));
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(&s.action, Action::SystemConfig(w) if w.contains("security group"))));
    }

    #[test]
    fn effort_ordering_matches_the_paper() {
        let puma = plan_for("puma").total_hours();
        let ellipse = plan_for("ellipse").total_hours();
        let lagrange = plan_for("lagrange").total_hours();
        let ec2 = plan_for("ec2").total_hours();
        assert!(puma < lagrange);
        assert!(lagrange <= ellipse, "{lagrange} vs {ellipse}");
        assert!(ellipse < ec2, "{ellipse} vs {ec2}");
    }

    #[test]
    fn unknown_platform_has_no_environment() {
        assert!(environment_of("azure").is_none());
    }

    #[test]
    fn bare_user_space_without_compiler_is_unsatisfiable() {
        let env = PlatformEnvironment {
            key: "bare".into(),
            preinstalled: vec![],
            vendor_blas: None,
            root_package_manager: false,
            pkg_manager_has: vec![],
            scratch_sufficient: true,
            scratch_fix: None,
            scheduler: SchedulerKind::PbsTorque,
            iaas_setup: vec![],
            support: "none".into(),
        };
        assert!(matches!(
            plan(&env),
            Err(PlanError::Unsatisfiable(Pkg::Gcc))
        ));
    }

    #[test]
    fn render_mentions_every_step() {
        let p = plan_for("ec2");
        let text = p.render();
        assert!(text.contains("Trilinos"));
        assert!(text.contains("TOTAL"));
    }
}
