//! Quantified matching algorithms (Sections 4 of the paper).
//!
//! * [`MatchSession`] — the resumable per-candidate session around the one
//!   decision kernel of `QMatch` (and, through [`MatchConfig`], of the
//!   `QMatchn` and `Enum` variants evaluated in Section 7) that every
//!   execution mode of [`crate::engine`] schedules,
//! * [`reference::evaluate_reference`] — a naive, brute-force oracle used for
//!   testing.

mod candidates;
pub(crate) mod compiled;
mod config;
mod generic;
mod qmatch;
mod quantified;
pub mod reference;
mod resolved;
mod session;
mod simulation;
mod stats;

pub(crate) use candidates::CandidateFilter;
pub(crate) use session::SessionCore;

pub use config::MatchConfig;
pub use qmatch::QueryAnswer;
pub use session::{CountMode, MatchSession};
pub use stats::MatchStats;
