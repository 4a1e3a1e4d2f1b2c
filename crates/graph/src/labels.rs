//! Label interning.
//!
//! Node and edge labels in social and knowledge graphs are drawn from small
//! alphabets (Pokec has 269 node types and 11 edge types, YAGO2 has 13 node
//! types and 36 edge types — Section 7 of the paper), while graphs have
//! millions of nodes.  Labels are therefore interned into dense `u32` ids so
//! the matching inner loops compare integers instead of strings.

use std::collections::HashMap;

/// A dense, interned label identifier.
///
/// Node labels and edge labels live in separate namespaces (see
/// [`LabelSet`]); a `LabelId` is only meaningful together with the namespace
/// it was interned in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelId(pub u32);

impl LabelId {
    /// Returns the raw index of this label.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interner for node labels and edge labels.
///
/// The two namespaces are kept separate because a string such as `"likes"`
/// may legitimately appear both as a node label and as an edge label without
/// the two being related.
#[derive(Debug, Clone, Default)]
pub struct LabelSet {
    node_names: Vec<String>,
    edge_names: Vec<String>,
    node_index: HashMap<String, LabelId>,
    edge_index: HashMap<String, LabelId>,
}

impl LabelSet {
    /// Creates an empty label set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a node label, returning its id.
    pub fn intern_node_label(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.node_index.get(name) {
            return id;
        }
        let id = LabelId(self.node_names.len() as u32);
        self.node_names.push(name.to_owned());
        self.node_index.insert(name.to_owned(), id);
        id
    }

    /// Interns an edge label, returning its id.
    pub fn intern_edge_label(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.edge_index.get(name) {
            return id;
        }
        let id = LabelId(self.edge_names.len() as u32);
        self.edge_names.push(name.to_owned());
        self.edge_index.insert(name.to_owned(), id);
        id
    }

    /// Looks up a node label by name without interning it.
    pub fn node_label(&self, name: &str) -> Option<LabelId> {
        self.node_index.get(name).copied()
    }

    /// Looks up an edge label by name without interning it.
    pub fn edge_label(&self, name: &str) -> Option<LabelId> {
        self.edge_index.get(name).copied()
    }

    /// Returns the string name of a node label.
    pub fn node_label_name(&self, id: LabelId) -> Option<&str> {
        self.node_names.get(id.index()).map(String::as_str)
    }

    /// Returns the string name of an edge label.
    pub fn edge_label_name(&self, id: LabelId) -> Option<&str> {
        self.edge_names.get(id.index()).map(String::as_str)
    }

    /// Number of distinct node labels interned so far.
    pub fn node_label_count(&self) -> usize {
        self.node_names.len()
    }

    /// Number of distinct edge labels interned so far.
    pub fn edge_label_count(&self) -> usize {
        self.edge_names.len()
    }

    /// Iterates over all node labels as `(id, name)` pairs.
    pub fn node_labels(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.node_names
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), s.as_str()))
    }

    /// Iterates over all edge labels as `(id, name)` pairs.
    pub fn edge_labels(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.edge_names
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut ls = LabelSet::new();
        let a = ls.intern_node_label("person");
        let b = ls.intern_node_label("person");
        assert_eq!(a, b);
        assert_eq!(ls.node_label_count(), 1);
    }

    #[test]
    fn node_and_edge_namespaces_are_separate() {
        let mut ls = LabelSet::new();
        let n = ls.intern_node_label("likes");
        let e = ls.intern_edge_label("likes");
        // Both start numbering at zero, so the ids collide numerically but
        // the lookups are namespace-specific.
        assert_eq!(n.index(), 0);
        assert_eq!(e.index(), 0);
        assert_eq!(ls.node_label_name(n), Some("likes"));
        assert_eq!(ls.edge_label_name(e), Some("likes"));
        assert_eq!(ls.node_label_count(), 1);
        assert_eq!(ls.edge_label_count(), 1);
    }

    #[test]
    fn lookup_without_interning_returns_none_for_unknown() {
        let mut ls = LabelSet::new();
        ls.intern_node_label("person");
        assert!(ls.node_label("robot").is_none());
        assert!(ls.edge_label("person").is_none());
    }

    #[test]
    fn ids_are_dense_and_ordered_by_insertion() {
        let mut ls = LabelSet::new();
        let ids: Vec<_> = ["a", "b", "c", "d"]
            .iter()
            .map(|s| ls.intern_edge_label(s))
            .collect();
        assert_eq!(ids, vec![LabelId(0), LabelId(1), LabelId(2), LabelId(3)]);
        let names: Vec<_> = ls.edge_labels().map(|(_, n)| n.to_owned()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"]);
    }
}
