//! # qgp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! evaluation section (Section 7) of *"Adding Counting Quantifiers to Graph
//! Patterns"* (SIGMOD 2016).
//!
//! * [`workloads`] — the standard datasets (Pokec-like, YAGO2-like,
//!   synthetic small-world) and the `|Q| = (|V_Q|, |E_Q|, p_a, |E⁻_Q|)`
//!   pattern workloads,
//! * [`experiments`] — one function per figure: Fig. 8(a) through Fig. 8(l)
//!   and the Exp-3 QGAR study,
//! * [`report`] — plain-text / markdown tables.
//!
//! Run the whole experiment suite with:
//!
//! ```text
//! cargo run --release --bin experiments -- all
//! ```
//!
//! This crate regenerates figures; it does not measure performance.  The
//! repository's one benchmark is `benchmark/` (`bash benchmark/run.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod workloads;

pub use report::Table;
pub use workloads::{Dataset, ExperimentScale};
