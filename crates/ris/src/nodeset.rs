//! A dense bitset over node ids, used for membership tests in coverage
//! queries (e.g. "is this RR-set member in `T_{i-1} ∖ {u_i}`?"), and over
//! target slots (indices into a target list) by the walk-segment pools.

use atpm_graph::Node;

/// Dense bitset over `0..n` node ids with O(1) insert/remove/contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSet {
    words: Vec<u64>,
    len: usize,
}

impl NodeSet {
    /// An empty set over the universe `0..n`.
    pub fn new(n: usize) -> Self {
        NodeSet {
            words: vec![0; n.div_ceil(64)],
            len: 0,
        }
    }

    /// Builds a set from an iterator of node ids.
    pub fn from_iter(n: usize, nodes: impl IntoIterator<Item = Node>) -> Self {
        let mut s = NodeSet::new(n);
        for u in nodes {
            s.insert(u);
        }
        s
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, u: Node) -> bool {
        let (w, b) = (u as usize / 64, u as usize % 64);
        self.words.get(w).is_some_and(|word| word & (1 << b) != 0)
    }

    /// Inserts `u`; returns true if newly inserted.
    #[inline]
    pub fn insert(&mut self, u: Node) -> bool {
        let (w, b) = (u as usize / 64, u as usize % 64);
        let word = &mut self.words[w];
        if *word & (1 << b) == 0 {
            *word |= 1 << b;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `u`; returns true if it was present.
    #[inline]
    pub fn remove(&mut self, u: Node) -> bool {
        let (w, b) = (u as usize / 64, u as usize % 64);
        let word = &mut self.words[w];
        if *word & (1 << b) != 0 {
            *word &= !(1 << b);
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Removes every member.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// Iterates members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Node> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((w * 64) as Node + b)
                }
            })
        })
    }

    /// Whether any node in `slice` is a member.
    #[inline]
    pub fn intersects(&self, slice: &[Node]) -> bool {
        slice.iter().any(|&u| self.contains(u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "double insert reports false");
        assert_eq!(s.len(), 3);
        assert!(s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let s = NodeSet::from_iter(200, [5, 199, 0, 63, 64]);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![0, 5, 63, 64, 199]);
    }

    #[test]
    fn intersects_and_count() {
        let s = NodeSet::from_iter(100, [10, 20, 30]);
        assert!(s.intersects(&[1, 2, 20]));
        assert!(!s.intersects(&[1, 2, 3]));
    }

    #[test]
    fn clear_resets() {
        let mut s = NodeSet::from_iter(10, [1, 2]);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(1));
    }

    #[test]
    fn contains_out_of_universe_is_false() {
        let s = NodeSet::new(10);
        assert!(!s.contains(1000));
    }
}
