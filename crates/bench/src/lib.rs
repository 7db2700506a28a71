//! # bench — the experiment harness
//!
//! One row per experiment of DESIGN.md's index in
//! [`experiments::TABLE`]; the full regeneration ([`grid`], the
//! `all_experiments` binary), the lint replay ([`traced`]) and
//! [`experiments::run_serial`] all read it. `all_experiments` prints
//! every experiment's table (and writes `<id>.csv` files when given
//! `--csv DIR`). Four `fig_*` binaries do what it does not: rerun a
//! row on other devices or settings (E16, E17b), print another column
//! of one (E15's launches), or draw Q6's device timeline.
//! All measurements are **simulated nanoseconds** from the deterministic
//! device clock — rerunning an experiment reproduces it bit-for-bit.

#![warn(missing_docs)]

pub mod ablations;
pub mod experiments;
pub mod extensions;
pub mod grid;
pub mod operators;
pub mod plan_lint;
pub mod plangen;
pub mod queries;
pub mod report;
pub mod traced;

use proto_core::framework::Framework;

/// The device every experiment runs on (the paper's GTX-1080-class card).
pub fn paper_device() -> gpu_sim::DeviceSpec {
    gpu_sim::DeviceSpec::gtx1080()
}

/// The paper's backend line-up on the default device.
pub fn paper_framework() -> Framework {
    Framework::with_all_backends(&paper_device())
}

/// Default row-count sweep for scaling figures: 2^16 … 2^22.
pub(crate) fn default_sizes() -> Vec<usize> {
    vec![1 << 16, 1 << 18, 1 << 20, 1 << 22]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framework_and_sizes_sane() {
        let fw = paper_framework();
        assert_eq!(fw.backends().len(), 4);
        let sizes = default_sizes();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }
}
