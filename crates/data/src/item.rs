//! Items and itemsets.
//!
//! The paper works over a domain of `m` individual items (atomic patterns).
//! We identify items by dense integer ids `0..m`, which is both what the
//! IBM Quest generator produces and what lets the OSSM use direct addressing
//! ("no searching involved", Section 3 of the paper).

use std::fmt;

/// Identifier of a single item (atomic pattern) in the domain `0..m`.
///
/// Item ids double as the *canonical enumeration* used to break support
/// ties in segment configurations (footnote 4 of the paper): smaller id
/// wins ties.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u32);

impl ItemId {
    /// The id as a `usize` index, for direct addressing into support vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

impl fmt::Display for ItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for ItemId {
    fn from(v: u32) -> Self {
        ItemId(v)
    }
}

/// A set of items, stored as a sorted, duplicate-free vector of ids.
///
/// This is the representation of both transactions ("market baskets") and
/// candidate patterns. Sortedness makes subset testing a linear merge and
/// gives every itemset a unique canonical form, which the Apriori join
/// (prefix match on the first `k-1` items) relies on.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Itemset {
    items: Vec<ItemId>,
}

impl Itemset {
    /// The empty itemset.
    pub fn empty() -> Self {
        Itemset { items: Vec::new() }
    }

    /// Builds an itemset from arbitrary ids: sorts and deduplicates.
    pub fn new<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut items: Vec<ItemId> = ids.into_iter().map(ItemId).collect();
        items.sort_unstable();
        items.dedup();
        Itemset { items }
    }

    /// Builds an itemset from a vector that is already sorted and unique.
    ///
    /// # Panics
    /// In debug builds, panics if the input is not strictly increasing.
    pub fn from_sorted(items: Vec<ItemId>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "items must be strictly increasing"
        );
        Itemset { items }
    }

    /// A singleton itemset `{item}`.
    pub fn singleton(item: ItemId) -> Self {
        Itemset { items: vec![item] }
    }

    /// Number of items (the itemset's cardinality, `k` in `k`-itemset).
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the itemset is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The items in increasing id order.
    #[inline]
    pub fn items(&self) -> &[ItemId] {
        &self.items
    }

    /// Whether `item` is a member (binary search).
    #[inline]
    pub fn contains(&self, item: ItemId) -> bool {
        self.items.binary_search(&item).is_ok()
    }

    /// Whether `self ⊆ other`, by a linear merge over the two sorted lists.
    pub fn is_subset_of(&self, other: &Itemset) -> bool {
        is_sorted_subset(&self.items, &other.items)
    }

    /// Union of two itemsets.
    pub fn union(&self, other: &Itemset) -> Itemset {
        let mut items = Vec::with_capacity(self.items.len() + other.items.len());
        let (mut a, mut b) = (self.items.iter().peekable(), other.items.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&x), Some(&&y)) => {
                    if x < y {
                        items.push(x);
                        a.next();
                    } else if y < x {
                        items.push(y);
                        b.next();
                    } else {
                        items.push(x);
                        a.next();
                        b.next();
                    }
                }
                (Some(&&x), None) => {
                    items.push(x);
                    a.next();
                }
                (None, Some(&&y)) => {
                    items.push(y);
                    b.next();
                }
                (None, None) => break,
            }
        }
        Itemset { items }
    }

    /// The itemset with `item` added (no-op if already present).
    pub fn with(&self, item: ItemId) -> Itemset {
        match self.items.binary_search(&item) {
            Ok(_) => self.clone(),
            Err(pos) => {
                let mut items = Vec::with_capacity(self.items.len() + 1);
                items.extend_from_slice(&self.items[..pos]);
                items.push(item);
                items.extend_from_slice(&self.items[pos..]);
                Itemset { items }
            }
        }
    }

    /// The itemset with `item` removed (no-op if absent).
    pub fn without(&self, item: ItemId) -> Itemset {
        match self.items.binary_search(&item) {
            Ok(pos) => {
                let mut items = self.items.clone();
                items.remove(pos);
                Itemset { items }
            }
            Err(_) => self.clone(),
        }
    }

    /// All `(k-1)`-subsets of this `k`-itemset, i.e. one per dropped item.
    ///
    /// Used by the Apriori prune step: a candidate is viable only if all its
    /// maximal proper subsets were frequent at the previous level.
    pub fn proper_subsets(&self) -> impl Iterator<Item = Itemset> + '_ {
        (0..self.items.len()).map(move |drop| {
            let mut items = Vec::with_capacity(self.items.len() - 1);
            items.extend_from_slice(&self.items[..drop]);
            items.extend_from_slice(&self.items[drop + 1..]);
            Itemset { items }
        })
    }

    /// Apriori join: if `self` and `other` are `k`-itemsets sharing their
    /// first `k-1` items, returns the `(k+1)`-itemset union; otherwise `None`.
    pub fn apriori_join(&self, other: &Itemset) -> Option<Itemset> {
        let k = self.items.len();
        if k == 0 || other.items.len() != k {
            return None;
        }
        if self.items[..k - 1] != other.items[..k - 1] {
            return None;
        }
        let (last_a, last_b) = (self.items[k - 1], other.items[k - 1]);
        if last_a >= last_b {
            return None;
        }
        let mut items = Vec::with_capacity(k + 1);
        items.extend_from_slice(&self.items);
        items.push(last_b);
        Some(Itemset { items })
    }
}

impl fmt::Debug for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, it) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{it}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for Itemset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<u32> for Itemset {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        Itemset::new(iter)
    }
}

/// `a ⊆ b` for strictly increasing slices, by linear merge.
pub fn is_sorted_subset(a: &[ItemId], b: &[ItemId]) -> bool {
    if a.len() > b.len() {
        return false;
    }
    let mut bi = 0;
    'outer: for &x in a {
        while bi < b.len() {
            if b[bi] == x {
                bi += 1;
                continue 'outer;
            }
            if b[bi] > x {
                return false;
            }
            bi += 1;
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> Itemset {
        Itemset::new(ids.iter().copied())
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = set(&[3, 1, 2, 3, 1]);
        assert_eq!(s.items(), &[ItemId(1), ItemId(2), ItemId(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn empty_set_properties() {
        let e = Itemset::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset_of(&set(&[1, 2])));
        assert!(!e.contains(ItemId(0)));
    }

    #[test]
    fn contains_uses_membership() {
        let s = set(&[1, 5, 9]);
        assert!(s.contains(ItemId(5)));
        assert!(!s.contains(ItemId(4)));
        assert!(!s.contains(ItemId(10)));
    }

    #[test]
    fn subset_relation() {
        assert!(set(&[1, 3]).is_subset_of(&set(&[1, 2, 3])));
        assert!(!set(&[1, 4]).is_subset_of(&set(&[1, 2, 3])));
        assert!(set(&[]).is_subset_of(&set(&[])));
        assert!(!set(&[1, 2, 3]).is_subset_of(&set(&[1, 2])));
        assert!(set(&[2]).is_subset_of(&set(&[0, 1, 2])));
    }

    #[test]
    fn union_merges() {
        assert_eq!(set(&[1, 3]).union(&set(&[2, 3, 5])), set(&[1, 2, 3, 5]));
        assert_eq!(set(&[]).union(&set(&[7])), set(&[7]));
    }

    #[test]
    fn with_and_without() {
        let s = set(&[1, 3]);
        assert_eq!(s.with(ItemId(2)), set(&[1, 2, 3]));
        assert_eq!(s.with(ItemId(3)), s);
        assert_eq!(s.without(ItemId(1)), set(&[3]));
        assert_eq!(s.without(ItemId(2)), s);
    }

    #[test]
    fn proper_subsets_of_triple() {
        let s = set(&[1, 2, 3]);
        let subs: Vec<Itemset> = s.proper_subsets().collect();
        assert_eq!(subs, vec![set(&[2, 3]), set(&[1, 3]), set(&[1, 2])]);
    }

    #[test]
    fn apriori_join_requires_shared_prefix() {
        assert_eq!(
            set(&[1, 2]).apriori_join(&set(&[1, 3])),
            Some(set(&[1, 2, 3]))
        );
        assert_eq!(
            set(&[1, 3]).apriori_join(&set(&[1, 2])),
            None,
            "join only in order"
        );
        assert_eq!(
            set(&[1, 2]).apriori_join(&set(&[2, 3])),
            None,
            "prefix differs"
        );
        assert_eq!(set(&[1]).apriori_join(&set(&[2])), Some(set(&[1, 2])));
        assert_eq!(Itemset::empty().apriori_join(&Itemset::empty()), None);
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", set(&[1, 2])), "{1,2}");
        assert_eq!(format!("{:?}", ItemId(4)), "i4");
    }
}
