//! # tpch — deterministic TPC-H data and the studied queries
//!
//! A `dbgen`-equivalent columnar generator (cardinalities, key
//! relationships and value domains of the official tool; text columns the
//! studied queries never read are omitted) plus the evaluation queries of
//! the paper's §IV, each lowered onto the `proto_core` operator framework
//! so it runs identically on Thrust, Boost.Compute, ArrayFire and the
//! handwritten baseline:
//!
//! * [`queries::q1`] — pricing summary (grouped aggregation stress),
//! * [`queries::q3`] — shipping priority (two joins + aggregation),
//! * [`queries::q4`] — order priority (semi join, column-vs-column filter),
//! * [`queries::q5`] — local supplier volume (four joins),
//! * [`queries::q6`] — revenue forecast (selection + product + reduction),
//! * [`queries::q14`] — promotion effect (dimension join, CASE aggregate).
//!
//! ```
//! use tpch::{gen, queries::q6};
//! use proto_core::prelude::*;
//!
//! let db = gen::generate(0.001); // SF 0.001 — tiny, fast
//! let backend = HandwrittenBackend::new(&gpu_sim::Device::with_defaults());
//! let data = q6::Q6Data::upload(&backend, &db).unwrap();
//! let revenue = data.execute(&backend).unwrap();
//! assert!((revenue - q6::reference(&db)).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo
    )
)]

pub mod dates;
pub mod gen;
pub mod queries;
pub mod schema;
pub mod tbl;

pub use gen::{cached, generate, generate_seeded};
pub use schema::Database;
