//! A dynamic interval tree.
//!
//! Rollback (`as of t`) is a stabbing query: *which rows' transaction
//! periods contain the instant t?*  A linear scan is Θ(n); this tree
//! answers in O(log n + k).
//!
//! The structure is a treap (randomized BST) keyed by
//! `(start, end, sequence)` with a `max_end` augmentation per subtree.
//! Priorities come from a deterministic xorshift generator so behaviour
//! is reproducible; expected height is logarithmic regardless of
//! insertion order.

use chronos_core::period::Period;
use chronos_core::timepoint::TimePoint;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

struct Node<V> {
    period: Period,
    value: V,
    seq: u64,
    priority: u64,
    max_end: TimePoint,
    left: Option<Box<Node<V>>>,
    right: Option<Box<Node<V>>>,
}

impl<V> Node<V> {
    fn key(&self) -> (i128, i128, u64) {
        (
            self.period.start().order_key(),
            self.period.end().order_key(),
            self.seq,
        )
    }

    fn update(&mut self) {
        let mut m = self.period.end();
        if let Some(l) = &self.left {
            m = m.max_of(l.max_end);
        }
        if let Some(r) = &self.right {
            m = m.max_of(r.max_end);
        }
        self.max_end = m;
    }
}

/// A multiset of `(Period, V)` entries supporting stabbing and overlap
/// queries.
pub struct IntervalTree<V> {
    root: Option<Box<Node<V>>>,
    len: usize,
    rng: XorShift,
    next_seq: u64,
}

impl<V: PartialEq> Default for IntervalTree<V> {
    fn default() -> Self {
        IntervalTree::new()
    }
}

impl<V: PartialEq> IntervalTree<V> {
    /// Creates an empty tree.
    pub fn new() -> IntervalTree<V> {
        IntervalTree {
            root: None,
            len: 0,
            rng: XorShift(0x9E37_79B9_7F4A_7C15),
            next_seq: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts an entry.  Empty periods are stored but never match any
    /// query.
    pub fn insert(&mut self, period: Period, value: V) {
        let node = Box::new(Node {
            period,
            value,
            seq: self.next_seq,
            priority: self.rng.next(),
            max_end: period.end(),
            left: None,
            right: None,
        });
        self.next_seq += 1;
        let root = self.root.take();
        self.root = Some(Self::insert_node(root, node));
        self.len += 1;
    }

    fn insert_node(tree: Option<Box<Node<V>>>, node: Box<Node<V>>) -> Box<Node<V>> {
        match tree {
            None => node,
            Some(mut t) => {
                if node.priority > t.priority {
                    // Split t around node's key.
                    let (l, r) = Self::split(Some(t), &node.key());
                    let mut n = node;
                    n.left = l;
                    n.right = r;
                    n.update();
                    n
                } else {
                    if node.key() < t.key() {
                        t.left = Some(Self::insert_node(t.left.take(), node));
                    } else {
                        t.right = Some(Self::insert_node(t.right.take(), node));
                    }
                    t.update();
                    t
                }
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn split(
        tree: Option<Box<Node<V>>>,
        key: &(i128, i128, u64),
    ) -> (Option<Box<Node<V>>>, Option<Box<Node<V>>>) {
        match tree {
            None => (None, None),
            Some(mut t) => {
                if &t.key() < key {
                    let (l, r) = Self::split(t.right.take(), key);
                    t.right = l;
                    t.update();
                    (Some(t), r)
                } else {
                    let (l, r) = Self::split(t.left.take(), key);
                    t.left = r;
                    t.update();
                    (l, Some(t))
                }
            }
        }
    }

    /// Removes one entry equal to `(period, value)`, returning whether an
    /// entry was removed.
    pub fn remove(&mut self, period: Period, value: &V) -> bool {
        let root = self.root.take();
        let (root, removed) = Self::remove_rec(root, period, value);
        self.root = root;
        if removed {
            self.len -= 1;
        }
        removed
    }

    #[allow(clippy::type_complexity)]
    fn remove_rec(
        tree: Option<Box<Node<V>>>,
        period: Period,
        value: &V,
    ) -> (Option<Box<Node<V>>>, bool) {
        let Some(mut t) = tree else {
            return (None, false);
        };
        let pkey = (period.start().order_key(), period.end().order_key());
        let tkey = (t.period.start().order_key(), t.period.end().order_key());
        if pkey == tkey && &t.value == value {
            // Merge children and drop this node.
            let merged = Self::merge(t.left.take(), t.right.take());
            return (merged, true);
        }
        let removed = match pkey.cmp(&tkey) {
            std::cmp::Ordering::Less => {
                let (l, rem) = Self::remove_rec(t.left.take(), period, value);
                t.left = l;
                rem
            }
            std::cmp::Ordering::Greater => {
                let (r, rem) = Self::remove_rec(t.right.take(), period, value);
                t.right = r;
                rem
            }
            std::cmp::Ordering::Equal => {
                // Equal (start, end) keys may sit on either side because
                // the sequence number breaks ties: search left, then right.
                let (l, rem) = Self::remove_rec(t.left.take(), period, value);
                t.left = l;
                if rem {
                    true
                } else {
                    let (r, rem2) = Self::remove_rec(t.right.take(), period, value);
                    t.right = r;
                    rem2
                }
            }
        };
        t.update();
        (Some(t), removed)
    }

    fn merge(l: Option<Box<Node<V>>>, r: Option<Box<Node<V>>>) -> Option<Box<Node<V>>> {
        match (l, r) {
            (None, r) => r,
            (l, None) => l,
            (Some(mut a), Some(mut b)) => {
                if a.priority > b.priority {
                    a.right = Self::merge(a.right.take(), Some(b));
                    a.update();
                    Some(a)
                } else {
                    b.left = Self::merge(Some(a), b.left.take());
                    b.update();
                    Some(b)
                }
            }
        }
    }

    /// Visits every value whose period contains the instant `t`.
    pub fn stab<'a>(&'a self, t: TimePoint, mut f: impl FnMut(Period, &'a V)) {
        Self::stab_rec(&self.root, t, &mut f);
    }

    fn stab_rec<'a>(
        node: &'a Option<Box<Node<V>>>,
        t: TimePoint,
        f: &mut impl FnMut(Period, &'a V),
    ) {
        let Some(n) = node else { return };
        // Prune: nothing in this subtree can contain t.  A period
        // contains `+∞` only when its end is `+∞` (see
        // `Period::contains_point`), so at `t = +∞` prune only subtrees
        // with no open-ended period.
        let prune = match t {
            TimePoint::PlusInfinity => n.max_end != TimePoint::PlusInfinity,
            _ => n.max_end <= t,
        };
        if prune {
            return;
        }
        Self::stab_rec(&n.left, t, f);
        if n.period.contains_point(t) {
            f(n.period, &n.value);
        }
        // Keys to the right start at or after this node's start; if that
        // start is already past t, nothing to the right can contain t.
        if n.period.start() <= t {
            Self::stab_rec(&n.right, t, f);
        }
    }

    /// Visits every value whose period overlaps `q`.
    pub fn overlapping<'a>(&'a self, q: Period, mut f: impl FnMut(Period, &'a V)) {
        if q.is_empty() {
            return;
        }
        Self::overlap_rec(&self.root, q, &mut f);
    }

    fn overlap_rec<'a>(
        node: &'a Option<Box<Node<V>>>,
        q: Period,
        f: &mut impl FnMut(Period, &'a V),
    ) {
        let Some(n) = node else { return };
        if n.max_end <= q.start() {
            return;
        }
        Self::overlap_rec(&n.left, q, f);
        if n.period.overlaps(q) {
            f(n.period, &n.value);
        }
        if n.period.start() < q.end() {
            Self::overlap_rec(&n.right, q, f);
        }
    }

    /// Collects stabbing results into a vector (convenience).
    pub fn stab_values(&self, t: TimePoint) -> Vec<&V> {
        let mut out = Vec::new();
        self.stab(t, |_, v| out.push(v));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::chronon::Chronon;

    fn p(a: i64, b: i64) -> Period {
        Period::new(Chronon::new(a), Chronon::new(b)).unwrap()
    }

    fn tp(t: i64) -> TimePoint {
        TimePoint::at(Chronon::new(t))
    }

    #[test]
    fn stab_finds_exactly_containing() {
        let mut t = IntervalTree::new();
        t.insert(p(0, 10), "a");
        t.insert(p(5, 15), "b");
        t.insert(p(12, 20), "c");
        t.insert(Period::from_start(Chronon::new(8)), "open");
        let mut hits: Vec<&&str> = t.stab_values(tp(7));
        hits.sort();
        assert_eq!(hits, [&"a", &"b"]);
        let mut hits = t.stab_values(tp(13));
        hits.sort();
        assert_eq!(hits, [&"b", &"c", &"open"]);
        assert!(t.stab_values(tp(-1)).is_empty());
        // +∞ stabs only open periods.
        assert_eq!(t.stab_values(TimePoint::INFINITY), [&"open"]);
    }

    #[test]
    fn overlap_queries() {
        let mut t = IntervalTree::new();
        t.insert(p(0, 5), 1);
        t.insert(p(5, 10), 2);
        t.insert(p(20, 30), 3);
        let mut got = Vec::new();
        t.overlapping(p(4, 6), |_, v| got.push(*v));
        got.sort();
        assert_eq!(got, [1, 2]);
        let mut got = Vec::new();
        t.overlapping(p(10, 20), |_, v| got.push(*v));
        assert!(got.is_empty());
        t.overlapping(Period::EMPTY, |_, v| got.push(*v));
        assert!(got.is_empty());
    }

    #[test]
    fn remove_specific_entries() {
        let mut t = IntervalTree::new();
        t.insert(p(0, 10), "x");
        t.insert(p(0, 10), "y"); // same period, different value
        assert_eq!(t.len(), 2);
        assert!(t.remove(p(0, 10), &"x"));
        assert!(!t.remove(p(0, 10), &"x"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.stab_values(tp(5)), [&"y"]);
    }

    #[test]
    fn agrees_with_linear_scan_on_random_data() {
        let mut rng = XorShift(42);
        let mut tree = IntervalTree::new();
        let mut entries: Vec<(Period, u64)> = Vec::new();
        for i in 0..2000u64 {
            let a = (rng.next() % 1000) as i64;
            let len = (rng.next() % 50) as i64 + 1;
            let per = p(a, a + len);
            tree.insert(per, i);
            entries.push((per, i));
            // Occasionally remove a random existing entry.
            if i % 7 == 0 && !entries.is_empty() {
                let idx = (rng.next() as usize) % entries.len();
                let (rp, rv) = entries.swap_remove(idx);
                assert!(tree.remove(rp, &rv));
            }
        }
        assert_eq!(tree.len(), entries.len());
        for probe in (0..1050).step_by(13) {
            let mut got: Vec<u64> = tree.stab_values(tp(probe)).into_iter().copied().collect();
            got.sort_unstable();
            let mut want: Vec<u64> = entries
                .iter()
                .filter(|(per, _)| per.contains(Chronon::new(probe)))
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "stab at {probe}");
        }
        for lo in (0..1000).step_by(97) {
            let q = p(lo, lo + 40);
            let mut got = Vec::new();
            tree.overlapping(q, |_, v| got.push(*v));
            got.sort_unstable();
            let mut want: Vec<u64> = entries
                .iter()
                .filter(|(per, _)| per.overlaps(q))
                .map(|(_, v)| *v)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want, "overlap at {lo}");
        }
    }

    #[test]
    fn handles_open_ended_transaction_periods() {
        // The rollback access path: tx periods with ∞ ends.
        let mut t = IntervalTree::new();
        t.insert(Period::from_start(Chronon::new(100)), "v1-closed-later");
        t.insert(Period::from_start(Chronon::new(200)), "v2");
        // Close v1 at 200 (as a Remove+reinsert, the way the table does).
        assert!(t.remove(Period::from_start(Chronon::new(100)), &"v1-closed-later"));
        t.insert(p(100, 200), "v1");
        assert_eq!(t.stab_values(tp(150)), [&"v1"]);
        let mut hits = t.stab_values(tp(250));
        hits.sort();
        assert_eq!(hits, [&"v2"]);
    }
}
