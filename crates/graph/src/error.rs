//! Error types for graph construction and manipulation.

use std::fmt;

use crate::graph::NodeId;
use crate::labels::LabelId;

/// Errors raised while building or mutating a [`crate::Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a node id that does not exist in the graph.
    NodeOutOfBounds {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes currently in the graph.
        node_count: usize,
    },
    /// The same directed, identically-labeled edge was inserted twice.
    DuplicateEdge {
        /// Source node of the duplicate edge.
        from: NodeId,
        /// Target node of the duplicate edge.
        to: NodeId,
    },
    /// An edge op named an edge label id the graph's vocabulary never
    /// interned.
    UnknownEdgeLabel {
        /// The offending label id.
        label: LabelId,
        /// Number of edge labels the vocabulary holds.
        label_count: usize,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfBounds { node, node_count } => write!(
                f,
                "node id {} is out of bounds (graph has {} nodes)",
                node.index(),
                node_count
            ),
            GraphError::DuplicateEdge { from, to } => write!(
                f,
                "duplicate edge from node {} to node {} with identical label",
                from.index(),
                to.index()
            ),
            GraphError::UnknownEdgeLabel { label, label_count } => write!(
                f,
                "edge label id {} is not interned (graph has {} edge labels)",
                label.index(),
                label_count
            ),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = GraphError::NodeOutOfBounds {
            node: NodeId::new(7),
            node_count: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains('7'));
        assert!(msg.contains('3'));

        let e = GraphError::DuplicateEdge {
            from: NodeId::new(1),
            to: NodeId::new(2),
        };
        assert!(e.to_string().contains("duplicate"));

        let e = GraphError::UnknownEdgeLabel {
            label: LabelId(9),
            label_count: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('9'));
        assert!(msg.contains('2'));
    }
}
