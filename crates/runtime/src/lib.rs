//! # qgp-runtime
//!
//! The shared work-stealing executor every parallel workload of the QGP
//! stack schedules through: `PQMatch` focus-candidate verification, `DPar`
//! neighborhood scans, and QGAR seed-rule mining.
//!
//! ## Design
//!
//! The unit of scheduling is an **index range** over a flat task list, not a
//! boxed closure.  Each worker owns one Chase-Lev-style deque collapsed to
//! its minimal form: a single atomic `(lo, hi)` range packed into a `u64`.
//! The owner claims grain-sized blocks from the bottom (`lo`), idle workers
//! steal the upper half from the top (`hi`) with one CAS — the classic
//! lazy-binary-splitting scheme.  Because tasks are plain indices, a steal
//! victim "splits its remaining candidates" for free: no task objects exist
//! until an index is executed.
//!
//! Every worker carries **per-worker scratch state** created once when the
//! worker starts and reused across every block it claims or steals — this is
//! where `PQMatch` keeps its per-fragment matcher sessions and `DPar` its
//! BFS scratch, instead of rebuilding them per chunk.  The states are
//! returned to the caller after the join so statistics can be aggregated.
//!
//! Wall-clock speedups on a multi-core host follow the paper's Fig. 8
//! curves; on a single-core CI container the executor still interleaves real
//! OS threads (so concurrency bugs surface) and the per-worker busy times in
//! [`MapOutcome::worker_busy`] expose the *critical path* — the wall clock an
//! n-core deployment would observe.  A worker's busy time is the wall time
//! of the task blocks it executed, read through `sync::now()`, so a map
//! reads no file to measure itself; on an oversubscribed host it
//! includes time a preempted worker spent waiting for a core.
//!
//! ```
//! use qgp_runtime::Runtime;
//!
//! let rt = Runtime::new(4);
//! // Square 0..100 in parallel, each worker counting how many items it ran.
//! let outcome = rt.map_with(100, || 0usize, |count, i| {
//!     *count += 1;
//!     i * i
//! });
//! assert_eq!(outcome.outputs[7], 49);
//! assert_eq!(outcome.states.iter().sum::<usize>(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod budget;
mod cancel;
mod deque;
mod executor;
pub mod faults;
pub mod sync;

pub use budget::{BudgetStop, ExecBudget};
pub use cancel::CancelToken;
pub use deque::RangeQueue;
pub use executor::{MapOutcome, Runtime, TaskError};
