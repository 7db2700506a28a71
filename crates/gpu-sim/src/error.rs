//! Error type for simulator operations.
//!
//! The simulator mirrors the failure modes of a real GPU runtime: device
//! memory is finite (`OutOfMemory`), launches must be well-formed
//! (`InvalidLaunch`), buffer shapes must agree (`SizeMismatch`), and — with
//! a [`crate::fault::FaultPlan`] installed — transient runtime faults occur
//! (`DeviceLost`, `TransferTimeout`, pressure-induced `OutOfMemory`).
//!
//! [`SimError::is_transient`] is the contract between the simulator and
//! resilience layers: transient errors are worth retrying, everything else
//! is a programming or capacity error that retrying cannot fix.

use crate::buffer::BufferId;
use std::fmt;

/// Result alias used throughout the simulator and the library crates.
pub type Result<T> = std::result::Result<T, SimError>;

/// Errors surfaced by the simulated device.
///
/// Marked `#[non_exhaustive]`: the fault-injection layer grows new failure
/// modes over time (PR 1 added `DeviceLost` and `TransferTimeout`), so
/// out-of-crate matches must keep a wildcard arm. Classify with
/// [`SimError::is_transient`] instead of matching variants where possible.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A device allocation exceeded the remaining global memory.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: u64,
        /// Bytes still available on the device.
        available: u64,
    },
    /// A kernel was launched with an invalid configuration
    /// (e.g. zero-sized block, grid exceeding device limits).
    InvalidLaunch(String),
    /// Two buffers that must have equal lengths did not.
    SizeMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// An index-typed buffer referenced an out-of-range element.
    IndexOutOfBounds {
        /// The offending index value.
        index: usize,
        /// The length of the indexed buffer.
        len: usize,
    },
    /// A library-level precondition was violated (e.g. merge join on
    /// unsorted input).
    Unsupported(String),
    /// The device context was lost mid-launch (the CUDA "sticky error"
    /// shape). Injected by the fault layer at kernel sites; carries the
    /// kernel name. Transient: re-running the operator recreates the
    /// context.
    DeviceLost(String),
    /// A PCIe/DMA transfer timed out after `bytes` bytes were requested.
    /// Injected by the fault layer at transfer sites. Transient.
    TransferTimeout {
        /// Size of the transfer that timed out.
        bytes: u64,
    },
    /// A download, or a kernel body, would read a shape-only buffer: one a
    /// dry scope made, which holds a length and no data.
    ShapeOnly {
        /// The buffer.
        buf: BufferId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
            SimError::InvalidLaunch(msg) => write!(f, "invalid kernel launch: {msg}"),
            SimError::SizeMismatch { left, right } => {
                write!(f, "buffer size mismatch: {left} vs {right}")
            }
            SimError::IndexOutOfBounds { index, len } => {
                write!(f, "index {index} out of bounds for buffer of length {len}")
            }
            SimError::Unsupported(msg) => write!(f, "unsupported operation: {msg}"),
            SimError::DeviceLost(kernel) => {
                write!(f, "device lost during kernel launch: {kernel}")
            }
            SimError::TransferTimeout { bytes } => {
                write!(f, "transfer of {bytes} bytes timed out")
            }
            SimError::ShapeOnly { buf } => {
                write!(f, "buffer {buf} is shape-only: it has a length and no data")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl SimError {
    /// Whether retrying the failed operation can plausibly succeed.
    ///
    /// `DeviceLost` and `TransferTimeout` only ever originate from the
    /// fault-injection layer, which models *transient* runtime conditions;
    /// a later attempt draws a fresh fault decision. `OutOfMemory` is
    /// deliberately **not** classified transient here even though the fault
    /// layer can inject pressure-induced OOM: capacity OOM and pressure OOM
    /// are indistinguishable to the caller, so resilience layers decide
    /// OOM handling by policy (retry and/or batch splitting) rather than by
    /// this predicate. The remaining variants are programming errors —
    /// retrying them is never useful.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::DeviceLost(_) | SimError::TransferTimeout { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::OutOfMemory {
            requested: 1024,
            available: 512,
        };
        let s = e.to_string();
        assert!(s.contains("1024") && s.contains("512"));

        let e = SimError::SizeMismatch { left: 3, right: 7 };
        assert!(e.to_string().contains("3 vs 7"));

        let e = SimError::IndexOutOfBounds { index: 9, len: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
    }

    #[test]
    fn transience_classification() {
        assert!(SimError::DeviceLost("k".into()).is_transient());
        assert!(SimError::TransferTimeout { bytes: 64 }.is_transient());
        assert!(!SimError::OutOfMemory {
            requested: 1,
            available: 0
        }
        .is_transient());
        assert!(!SimError::InvalidLaunch("x".into()).is_transient());
        assert!(!SimError::SizeMismatch { left: 1, right: 2 }.is_transient());
        assert!(!SimError::IndexOutOfBounds { index: 1, len: 1 }.is_transient());
        assert!(!SimError::Unsupported("x".into()).is_transient());
        let shape_only = SimError::ShapeOnly { buf: BufferId(7) };
        assert!(!shape_only.is_transient());
        assert!(shape_only.to_string().contains("b7 is shape-only"));
    }

    #[test]
    fn new_variants_display() {
        let e = SimError::DeviceLost("thrust::scan".into());
        assert!(e.to_string().contains("thrust::scan"));
        let e = SimError::TransferTimeout { bytes: 4096 };
        assert!(e.to_string().contains("4096"));
        // The std::error::Error impl is usable through a trait object.
        let boxed: Box<dyn std::error::Error> = Box::new(e);
        assert!(boxed.to_string().contains("timed out"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            SimError::InvalidLaunch("x".into()),
            SimError::InvalidLaunch("x".into())
        );
        assert_ne!(
            SimError::InvalidLaunch("x".into()),
            SimError::Unsupported("x".into())
        );
    }
}
