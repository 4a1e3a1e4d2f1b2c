//! The one way the test suites ask the engine for `Q(x_o, G)`: shared by
//! the unit tests of `qgp-core` and `qgp-parallel` (as `test_support`) and
//! by their integration tests (as `common`).  What the answers are compared
//! *to* is `matching::reference::evaluate_reference`, never another
//! optimized path.

#![allow(dead_code)]

use qgp_core::engine::{Engine, ExecOptions};
use qgp_core::matching::{MatchConfig, QueryAnswer};
use qgp_core::pattern::Pattern;
use qgp_core::MatchError;
use qgp_graph::Graph;

/// One engine execution of `pattern` on `graph` under `opts`.
pub fn run(
    graph: &Graph,
    pattern: &Pattern,
    opts: ExecOptions<'_>,
) -> Result<QueryAnswer, MatchError> {
    Engine::new(graph).prepare(pattern)?.run(opts)
}

/// A sequential execution of a valid pattern under `config`.
pub fn engine_match(graph: &Graph, pattern: &Pattern, config: &MatchConfig) -> QueryAnswer {
    run(
        graph,
        pattern,
        ExecOptions::sequential().with_config(*config),
    )
    .expect("a valid pattern runs sequentially without error")
}
