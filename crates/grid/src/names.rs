//! Stable node-name ↔ node-index mapping.
//!
//! Grids built by [`GridSpec`](crate::GridSpec) identify nodes by bare
//! indices, but grids imported from a netlist have real names
//! (`n1_123_456`, `vddcore_17`, …). [`NodeMap`] records the bijection chosen
//! at import time so that every downstream report can translate between the
//! engine's indices and the deck's names — and so that an exported deck can
//! be re-imported with the *same* index assignment, which is what makes
//! export → parse → stamp round trips bit-identical.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher, RandomState};

/// A bijection between node names and the `0..n` node indices of a
/// [`PowerGrid`](crate::PowerGrid).
///
/// Insertion order defines the index assignment: the first name inserted is
/// node `0`, the second node `1`, and so on. Lookups run in `O(1)` both
/// ways.
///
/// Every name is stored once, back to back in one buffer. The index maps
/// each name's hash to the first node that hashed to it and compares the
/// name itself on a hit, so a name is hashed once per lookup and never
/// copied into the index. The hash keys are random per map, so a deck
/// cannot be crafted to make names collide.
///
/// # Example
///
/// ```
/// use opera_grid::NodeMap;
///
/// let mut map = NodeMap::new();
/// assert_eq!(map.get_or_insert("n1_0_0"), 0);
/// assert_eq!(map.get_or_insert("n1_0_1"), 1);
/// assert_eq!(map.get_or_insert("n1_0_0"), 0); // already known
/// assert_eq!(map.name(1), Some("n1_0_1"));
/// assert_eq!(map.index("n1_0_1"), Some(1));
/// assert_eq!(map.len(), 2);
/// ```
#[derive(Clone, Default)]
pub struct NodeMap {
    /// Every name, in index order, back to back.
    text: String,
    /// `ends[i]` is the end of name `i` in `text`; it starts where name
    /// `i − 1` ends.
    ends: Vec<usize>,
    state: RandomState,
    /// A name's hash → the first index whose name has that hash.
    first: HashMap<u64, usize, BuildHasherDefault<Prehashed>>,
}

/// Passes a key that is already a hash through unchanged, so [`NodeMap`]'s
/// index does not hash its names' hashes a second time.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl NodeMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        NodeMap::default()
    }

    /// Creates a map with the synthetic names `n0`, `n1`, …, `n{count-1}` —
    /// the naming scheme the netlist exporter uses for grids that were never
    /// imported from a deck.
    ///
    /// # Example
    ///
    /// ```
    /// use opera_grid::NodeMap;
    ///
    /// let map = NodeMap::numbered(3);
    /// assert_eq!(map.name(2), Some("n2"));
    /// assert_eq!(map.index("n1"), Some(1));
    /// ```
    pub fn numbered(count: usize) -> Self {
        let mut map = NodeMap::new();
        for i in 0..count {
            map.get_or_insert(&format!("n{i}"));
        }
        map
    }

    /// Returns the index of `name`, inserting it as the next fresh index if
    /// it is not yet known.
    pub fn get_or_insert(&mut self, name: &str) -> usize {
        let next = self.len();
        let first = *self.first.entry(self.state.hash_one(name)).or_insert(next);
        if first != next {
            if self.name_at(first) == name {
                return first;
            }
            // Another name with the same 64-bit hash: look the name up the
            // slow way.
            if let Some(index) = self.position(name) {
                return index;
            }
        }
        self.text.push_str(name);
        self.ends.push(self.text.len());
        next
    }

    /// The name of node `index`, or `None` if the index is out of range.
    pub fn name(&self, index: usize) -> Option<&str> {
        (index < self.len()).then(|| self.name_at(index))
    }

    /// The index of `name`, or `None` if the name is unknown.
    pub fn index(&self, name: &str) -> Option<usize> {
        let first = *self.first.get(&self.state.hash_one(name))?;
        if self.name_at(first) == name {
            Some(first)
        } else {
            self.position(name)
        }
    }

    /// Number of mapped nodes.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when no node has been mapped yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(index, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str)> + '_ {
        (0..self.len()).map(|i| (i, self.name_at(i)))
    }

    /// Name `index`, which must be in range.
    fn name_at(&self, index: usize) -> &str {
        let start = index.checked_sub(1).map_or(0, |i| self.ends[i]);
        &self.text[start..self.ends[index]]
    }

    /// The index of `name` by a scan over every name.
    fn position(&self, name: &str) -> Option<usize> {
        (0..self.len()).find(|&i| self.name_at(i) == name)
    }
}

/// Two maps are equal when they hold the same names at the same indices.
impl PartialEq for NodeMap {
    fn eq(&self, other: &Self) -> bool {
        self.ends == other.ends && self.text == other.text
    }
}

impl fmt::Debug for NodeMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|(_, name)| name))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_defines_indices() {
        let mut map = NodeMap::new();
        assert!(map.is_empty());
        assert_eq!(map.get_or_insert("b"), 0);
        assert_eq!(map.get_or_insert("a"), 1);
        assert_eq!(map.get_or_insert("b"), 0);
        assert_eq!(map.len(), 2);
        assert_eq!(map.name(0), Some("b"));
        assert_eq!(map.name(2), None);
        assert_eq!(map.index("a"), Some(1));
        assert_eq!(map.index("zz"), None);
        let pairs: Vec<_> = map.iter().collect();
        assert_eq!(pairs, vec![(0, "b"), (1, "a")]);
    }

    #[test]
    fn names_sharing_a_hash_slot_are_told_apart() {
        let mut map = NodeMap::new();
        map.get_or_insert("a");
        map.get_or_insert("b");
        // Point "b" and "c"'s hashes at node 0, as a 64-bit collision with
        // "a" would.
        for name in ["b", "c"] {
            map.first.insert(map.state.hash_one(name), 0);
        }
        assert_eq!(map.index("b"), Some(1));
        assert_eq!(map.get_or_insert("b"), 1);
        assert_eq!(map.index("c"), None);
        assert_eq!(map.get_or_insert("c"), 2);
        assert_eq!(map.get_or_insert("c"), 2);
        assert_eq!(map.index("a"), Some(0));
        assert_eq!(map, {
            let mut fresh = NodeMap::new();
            for name in ["a", "b", "c"] {
                fresh.get_or_insert(name);
            }
            fresh
        });
        assert_eq!(format!("{map:?}"), r#"["a", "b", "c"]"#);
    }

    #[test]
    fn numbered_names_round_trip() {
        let map = NodeMap::numbered(5);
        assert_eq!(map.len(), 5);
        for i in 0..5 {
            assert_eq!(map.index(&format!("n{i}")), Some(i));
        }
    }
}
