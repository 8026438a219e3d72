//! Node identifiers and compact node sets.
//!
//! The paper manipulates sets of nodes throughout: the site membership
//! view `Vs`, the joining/leaving sets `Vj`/`Vl`, the failed set `Fs`
//! and the *reception history vector* `V_RHV` agreed by the RHA
//! micro-protocol. [`NodeSet`] represents all of them as a 64-bit mask,
//! which also matches the wire encoding: an RHV travels as the 8-byte
//! data field of a CAN data frame.

use std::fmt;
use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, Not, Sub, SubAssign};

/// Maximum number of nodes addressable by the stack (one bit each in a
/// [`NodeSet`], one byte payload budget for the vector).
pub const MAX_NODES: usize = 64;

/// Identifier of a node (station) on the CAN bus.
///
/// CANELy node identifiers are small integers carried in the low bits
/// of the message control field ([`crate::Mid`]).
///
/// # Examples
///
/// ```
/// use can_types::NodeId;
///
/// let n = NodeId::new(7);
/// assert_eq!(n.as_usize(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u8);

impl NodeId {
    /// Creates a node identifier.
    ///
    /// # Panics
    ///
    /// Panics if `id >= MAX_NODES`.
    #[inline]
    pub const fn new(id: u8) -> Self {
        assert!((id as usize) < MAX_NODES, "node id out of range");
        NodeId(id)
    }

    /// The raw identifier value.
    #[inline]
    pub const fn as_u8(self) -> u8 {
        self.0
    }

    /// The identifier as an index.
    #[inline]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for u8 {
    #[inline]
    fn from(id: NodeId) -> u8 {
        id.0
    }
}

/// A set of nodes, represented as a 64-bit mask.
///
/// This is the paper's `V` (view / vector) abstraction. The wire form
/// of a reception history vector is exactly [`NodeSet::to_bytes`].
///
/// # Examples
///
/// ```
/// use can_types::{NodeId, NodeSet};
///
/// let mut view = NodeSet::EMPTY;
/// view.insert(NodeId::new(0));
/// view.insert(NodeId::new(5));
/// assert_eq!(view.len(), 2);
/// assert!(view.contains(NodeId::new(5)));
///
/// let joined: NodeSet = [NodeId::new(1), NodeId::new(2)].into_iter().collect();
/// let merged = view | joined;
/// assert_eq!(merged.len(), 4);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct NodeSet(u64);

impl NodeSet {
    /// The empty set (the paper's ∅).
    pub const EMPTY: NodeSet = NodeSet(0);

    /// The universe `U` of all addressable nodes.
    pub const ALL: NodeSet = NodeSet(u64::MAX);

    /// Creates a set from a raw bit mask (bit *i* ⇔ node *i*).
    #[inline]
    pub const fn from_bits(bits: u64) -> Self {
        NodeSet(bits)
    }

    /// The raw bit mask.
    #[inline]
    pub const fn bits(self) -> u64 {
        self.0
    }

    /// The set `{0, 1, …, n-1}` of the first `n` node identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_NODES`.
    #[inline]
    pub const fn first_n(n: usize) -> Self {
        assert!(n <= MAX_NODES, "set size out of range");
        if n == MAX_NODES {
            NodeSet::ALL
        } else {
            NodeSet((1u64 << n) - 1)
        }
    }

    /// The singleton set `{node}`.
    #[inline]
    pub const fn singleton(node: NodeId) -> Self {
        NodeSet(1u64 << node.as_u8())
    }

    /// Whether `node` is a member.
    #[inline]
    pub const fn contains(self, node: NodeId) -> bool {
        self.0 & (1u64 << node.as_u8()) != 0
    }

    /// Inserts `node`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let fresh = !self.contains(node);
        self.0 |= 1u64 << node.as_u8();
        fresh
    }

    /// Removes `node`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let present = self.contains(node);
        self.0 &= !(1u64 << node.as_u8());
        present
    }

    /// Number of members (the paper's `#V`).
    #[inline]
    pub const fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the set is empty.
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether `self ⊆ other`.
    #[inline]
    pub const fn is_subset(self, other: NodeSet) -> bool {
        self.0 & other.0 == self.0
    }

    /// Set intersection `self ∩ other`.
    #[inline]
    pub const fn intersection(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & other.0)
    }

    /// Set union `self ∪ other`.
    #[inline]
    pub const fn union(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 | other.0)
    }

    /// Set difference `self − other`.
    #[inline]
    pub const fn difference(self, other: NodeSet) -> NodeSet {
        NodeSet(self.0 & !other.0)
    }

    /// Iterates over the members in increasing identifier order.
    #[inline]
    pub fn iter(self) -> Iter {
        Iter { bits: self.0 }
    }

    /// Wire encoding: 8 bytes, little-endian bit mask. This is the data
    /// field of an RHV signal frame.
    #[inline]
    pub const fn to_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }

    /// Decodes the wire form produced by [`NodeSet::to_bytes`].
    #[inline]
    pub const fn from_bytes(bytes: [u8; 8]) -> Self {
        NodeSet(u64::from_le_bytes(bytes))
    }
}

impl BitOr for NodeSet {
    type Output = NodeSet;
    #[inline]
    fn bitor(self, rhs: NodeSet) -> NodeSet {
        self.union(rhs)
    }
}

impl BitOrAssign for NodeSet {
    #[inline]
    fn bitor_assign(&mut self, rhs: NodeSet) {
        self.0 |= rhs.0;
    }
}

impl BitAnd for NodeSet {
    type Output = NodeSet;
    #[inline]
    fn bitand(self, rhs: NodeSet) -> NodeSet {
        self.intersection(rhs)
    }
}

impl BitAndAssign for NodeSet {
    #[inline]
    fn bitand_assign(&mut self, rhs: NodeSet) {
        self.0 &= rhs.0;
    }
}

impl Sub for NodeSet {
    type Output = NodeSet;
    #[inline]
    fn sub(self, rhs: NodeSet) -> NodeSet {
        self.difference(rhs)
    }
}

impl SubAssign for NodeSet {
    #[inline]
    fn sub_assign(&mut self, rhs: NodeSet) {
        self.0 &= !rhs.0;
    }
}

impl Not for NodeSet {
    type Output = NodeSet;
    #[inline]
    fn not(self) -> NodeSet {
        NodeSet(!self.0)
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let mut set = NodeSet::EMPTY;
        for node in iter {
            set.insert(node);
        }
        set
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        for node in iter {
            self.insert(node);
        }
    }
}

impl IntoIterator for NodeSet {
    type Item = NodeId;
    type IntoIter = Iter;
    #[inline]
    fn into_iter(self) -> Iter {
        self.iter()
    }
}

/// Iterator over the members of a [`NodeSet`].
#[derive(Debug, Clone)]
pub struct Iter {
    bits: u64,
}

impl Iterator for Iter {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        if self.bits == 0 {
            return None;
        }
        let idx = self.bits.trailing_zeros() as u8;
        self.bits &= self.bits - 1;
        Some(NodeId::new(idx))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.bits.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter {}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, node) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", node.as_u8())?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::EMPTY;
        assert!(s.insert(NodeId::new(3)));
        assert!(!s.insert(NodeId::new(3)));
        assert!(s.contains(NodeId::new(3)));
        assert!(s.remove(NodeId::new(3)));
        assert!(!s.remove(NodeId::new(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn first_n_boundaries() {
        assert_eq!(NodeSet::first_n(0), NodeSet::EMPTY);
        assert_eq!(NodeSet::first_n(64), NodeSet::ALL);
        assert_eq!(NodeSet::first_n(3).len(), 3);
        assert!(NodeSet::first_n(32).contains(NodeId::new(31)));
        assert!(!NodeSet::first_n(32).contains(NodeId::new(32)));
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_bits(0b1011);
        let b = NodeSet::from_bits(0b0110);
        assert_eq!((a | b).bits(), 0b1111);
        assert_eq!((a & b).bits(), 0b0010);
        assert_eq!((a - b).bits(), 0b1001);
        assert!(NodeSet::from_bits(0b0010).is_subset(a));
        assert!(!a.is_subset(b));
    }

    #[test]
    fn iteration_order_is_ascending() {
        let s = NodeSet::from_bits(0b1010_0001);
        let ids: Vec<u8> = s.iter().map(NodeId::as_u8).collect();
        assert_eq!(ids, vec![0, 5, 7]);
        assert_eq!(s.iter().len(), 3);
    }

    #[test]
    fn wire_round_trip() {
        let s = NodeSet::from_bits(0xDEAD_BEEF_0102_0304);
        assert_eq!(NodeSet::from_bytes(s.to_bytes()), s);
    }

    #[test]
    fn collect_and_extend() {
        let s: NodeSet = (0..5).map(NodeId::new).collect();
        assert_eq!(s, NodeSet::first_n(5));
        let mut t = NodeSet::EMPTY;
        t.extend([NodeId::new(9), NodeId::new(1)]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn display_and_debug_never_empty() {
        assert_eq!(NodeSet::EMPTY.to_string(), "{}");
        assert_eq!(format!("{:?}", NodeSet::EMPTY), "{}");
        assert_eq!(NodeSet::from_bits(0b101).to_string(), "{0,2}");
    }

    #[test]
    #[should_panic(expected = "node id out of range")]
    fn node_id_range_checked() {
        let _ = NodeId::new(64);
    }

    #[test]
    fn complement_respects_universe() {
        let s = NodeSet::first_n(10);
        let c = !s;
        assert!((s & c).is_empty());
        assert_eq!(s | c, NodeSet::ALL);
    }
}
