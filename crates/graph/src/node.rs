//! Node identifiers and identifier allocation.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node of a [`crate::DynamicGraph`].
///
/// Identifiers are plain `u64` values wrapped in a newtype so they cannot be
/// confused with indices into a [`crate::Snapshot`] (which are `usize` positions
/// in a compacted array). Identifiers are never reused by a
/// [`NodeIdAllocator`], which makes it safe to keep per-node bookkeeping (birth
/// times, informed flags, …) keyed by `NodeId` across node deaths.
///
/// # Example
///
/// ```
/// use churn_graph::NodeId;
///
/// let id = NodeId::new(42);
/// assert_eq!(id.raw(), 42);
/// assert_eq!(format!("{id}"), "v42");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from its raw value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw `u64` value of this identifier.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "NodeId({})", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId::new(raw)
    }
}

impl From<NodeId> for u64 {
    fn from(id: NodeId) -> Self {
        id.raw()
    }
}

/// Monotone allocator of fresh [`NodeId`]s.
///
/// The allocator never hands out the same identifier twice, so identifiers of
/// dead nodes remain usable as stable keys in caller-side maps.
///
/// # Example
///
/// ```
/// use churn_graph::{NodeId, NodeIdAllocator};
///
/// let mut alloc = NodeIdAllocator::new();
/// let a = alloc.next_id();
/// let b = alloc.next_id();
/// assert_ne!(a, b);
/// assert_eq!(alloc.peek(), NodeId::new(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeIdAllocator {
    next: u64,
}

impl NodeIdAllocator {
    /// Creates an allocator whose first identifier is `NodeId::new(0)`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh, never-before-returned identifier.
    pub fn next_id(&mut self) -> NodeId {
        let id = NodeId::new(self.next);
        self.next += 1;
        id
    }

    /// Peeks at the identifier the next call to [`Self::next_id`] will return.
    #[must_use]
    pub fn peek(&self) -> NodeId {
        NodeId::new(self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_id_round_trips_raw_value() {
        for raw in [0u64, 1, 17, u64::MAX] {
            assert_eq!(NodeId::new(raw).raw(), raw);
            assert_eq!(u64::from(NodeId::from(raw)), raw);
        }
    }

    #[test]
    fn node_id_display_and_debug_are_nonempty() {
        let id = NodeId::new(7);
        assert_eq!(id.to_string(), "v7");
        assert_eq!(format!("{id:?}"), "NodeId(7)");
    }

    #[test]
    fn node_id_ordering_follows_raw_values() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert!(NodeId::new(100) > NodeId::new(2));
        assert_eq!(NodeId::new(5), NodeId::new(5));
    }

    #[test]
    fn allocator_returns_distinct_monotone_ids() {
        let mut alloc = NodeIdAllocator::new();
        let ids: Vec<NodeId> = (0..100).map(|_| alloc.next_id()).collect();
        let set: HashSet<NodeId> = ids.iter().copied().collect();
        assert_eq!(set.len(), ids.len(), "all ids must be distinct");
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "ids must be monotonically increasing");
        }
        assert_eq!(alloc.peek(), NodeId::new(100));
    }

    #[test]
    fn allocator_peek_does_not_consume() {
        let mut alloc = NodeIdAllocator::new();
        let p = alloc.peek();
        assert_eq!(alloc.next_id(), p);
    }
}
