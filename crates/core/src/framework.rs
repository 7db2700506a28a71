//! The framework proper: a registry of pluggable backends and the
//! generated operator-support matrix (the paper's Table II).

use crate::backend::GpuBackend;
use crate::ops::DbOperator;
use gpu_sim::{Device, DeviceSpec};
use std::fmt::Write as _;

/// Registry of plugged-in GPU libraries and custom code.
///
/// "We develop a framework to show the support of GPU libraries for
/// database operations that allows a user to plug-in new libraries and
/// custom-written code." — §I. [`Framework::register`] is that plug-in
/// point; anything implementing [`GpuBackend`] participates in the support
/// matrix and the benchmark harness.
#[derive(Default)]
pub struct Framework {
    backends: Vec<Box<dyn GpuBackend>>,
}

impl std::fmt::Debug for Framework {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.backends.iter().map(|b| b.name()).collect();
        f.debug_struct("Framework")
            .field("backends", &names)
            .finish()
    }
}

impl Framework {
    /// An empty framework.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the paper's configuration: the three surveyed libraries plus
    /// the handwritten baseline, each on its own instance of `spec` (so
    /// per-library statistics don't mix).
    pub fn with_all_backends(spec: &DeviceSpec) -> Self {
        let mut fw = Framework::new();
        for name in crate::backends::PAPER_BACKENDS {
            fw.register(crate::backends::make_backend(
                name,
                &Device::new(spec.clone()),
            ));
        }
        fw
    }

    /// Build exactly one paper backend (by [`PAPER_BACKENDS`]
    /// name) on a fresh instance of `spec` — the per-cell constructor for
    /// independent benchmark jobs. Equivalent in state to the same-named
    /// backend of [`Framework::with_all_backends`].
    ///
    /// [`PAPER_BACKENDS`]: crate::backends::PAPER_BACKENDS
    pub fn single_backend(spec: &DeviceSpec, name: &str) -> Box<dyn GpuBackend> {
        crate::backends::make_backend(name, &Device::new(spec.clone()))
    }

    /// [`Framework::single_backend`] wrapped in a
    /// [`ResilientBackend`](crate::resilient::ResilientBackend): each
    /// operator call retries transient faults under `policy` — the
    /// per-cell constructor for fault-injection jobs. With no fault plan
    /// installed it behaves (and times) identically to the bare backend.
    pub fn single_backend_resilient(
        spec: &DeviceSpec,
        name: &str,
        policy: crate::resilient::RetryPolicy,
    ) -> Box<dyn GpuBackend> {
        Box::new(crate::resilient::ResilientBackend::with_policy(
            Framework::single_backend(spec, name),
            policy,
        ))
    }

    /// Plug in a backend.
    pub fn register(&mut self, backend: Box<dyn GpuBackend>) {
        self.backends.push(backend);
    }

    /// All registered backends.
    pub fn backends(&self) -> &[Box<dyn GpuBackend>] {
        &self.backends
    }

    /// Look a backend up by name.
    pub fn backend(&self, name: &str) -> Option<&dyn GpuBackend> {
        self.backends
            .iter()
            .find(|b| b.name() == name)
            .map(|b| b.as_ref())
    }

    /// Backends that are libraries (excludes the handwritten baseline) —
    /// the columns of Table II.
    pub fn library_backends(&self) -> impl Iterator<Item = &dyn GpuBackend> {
        self.backends
            .iter()
            .map(|b| b.as_ref())
            .filter(|b| b.name() != "Handwritten")
    }

    /// Render Table II: operator-support matrix with the realising
    /// library calls, generated from backend introspection.
    pub fn support_matrix(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "TABLE II: Mapping of library functions to database operators"
        );
        let _ = writeln!(out, "(+ full support; ~ partial support; – no support)\n");
        let libs: Vec<&dyn GpuBackend> = self.library_backends().collect();
        let _ = write!(out, "{:<26}", "Database operator");
        for b in &libs {
            let _ = write!(
                out,
                " | {:^4} {:<42}",
                "S",
                format!("{} function", b.name())
            );
        }
        let _ = writeln!(out);
        let width = 26 + libs.len() * 52;
        let _ = writeln!(out, "{}", "-".repeat(width));
        for op in DbOperator::ALL {
            let _ = write!(out, "{:<26}", op.label());
            for b in &libs {
                let _ = write!(
                    out,
                    " | {:^4} {:<42}",
                    b.support(op).glyph(),
                    b.realization(op)
                );
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Support;

    #[test]
    fn with_all_backends_registers_four() {
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        assert_eq!(fw.backends().len(), 4);
        assert!(fw.backend("Thrust").is_some());
        assert!(fw.backend("Boost.Compute").is_some());
        assert!(fw.backend("ArrayFire").is_some());
        assert!(fw.backend("Handwritten").is_some());
        assert!(fw.backend("cuDF").is_none());
        assert_eq!(fw.library_backends().count(), 3);
    }

    #[test]
    fn support_matrix_reproduces_table_ii_headlines() {
        let fw = Framework::with_all_backends(&DeviceSpec::gtx1080());
        let table = fw.support_matrix();
        assert!(table.contains("TABLE II"));
        // Headline finding: hash join unsupported by every library.
        for lib in fw.library_backends() {
            assert_eq!(
                lib.support(DbOperator::HashJoin),
                Support::None,
                "{}",
                lib.name()
            );
            assert_eq!(
                lib.support(DbOperator::MergeJoin),
                Support::None,
                "{}",
                lib.name()
            );
        }
        // Hash join row shows only dashes in library columns.
        let hash_row = table
            .lines()
            .find(|l| l.starts_with("Hash Join"))
            .expect("hash join row");
        assert!(!hash_row.contains('+'), "{hash_row}");
        // Selection row: ArrayFire is partial, Thrust/Boost full.
        let sel_row = table
            .lines()
            .find(|l| l.starts_with("Selection"))
            .expect("selection row");
        assert!(sel_row.contains('~') && sel_row.contains('+'), "{sel_row}");
        assert!(table.contains("where(operator())"));
        assert!(table.contains("reduce_by_key()"));
    }

    #[test]
    fn custom_backend_plugs_in() {
        // The plug-in point accepts any GpuBackend implementation; reuse a
        // second Thrust instance as a stand-in for user code.
        let mut fw = Framework::new();
        fw.register(Box::new(crate::backends::ThrustBackend::new(
            &Device::with_defaults(),
        )));
        assert_eq!(fw.backends().len(), 1);
    }
}
