//! Typed record values.
//!
//! Doppel records have typed values and each type supports one or more
//! operations (§3). The value types needed by the paper's operations are:
//!
//! * integers — `Max`, `Min`, `Add`, `Mult`, `Put`, `Get`;
//! * byte strings — `Put`, `Get`;
//! * ordered tuples — `OPut`, `Get`;
//! * top-K sets — `TopKInsert`, `Get`.

use crate::CoreId;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The order component of an [`OrderedTuple`] or top-K entry.
///
/// The paper allows the order to be "a number (or several numbers in
/// lexicographic order)" (§4). `OrderKey` in this crate is re-exported from
/// [`crate::ops`]; this module only consumes it.
pub use crate::ops::OrderKey;

/// An ordered tuple `(order, core_id, payload)` as used by `OPut` (§4).
///
/// The order and core-id components make `OPut` commutative: when two cores
/// write the same key, the tuple with the larger order wins, and ties are
/// broken by the larger core id. Absent records behave as if they held a
/// tuple with order −∞.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderedTuple {
    /// The order (e.g. `[bid_amount, timestamp]` for RUBiS' max bidder).
    pub order: OrderKey,
    /// Id of the core that wrote the tuple; the commutativity tie-breaker.
    pub core: CoreId,
    /// Arbitrary byte-string payload.
    pub payload: Bytes,
}

impl OrderedTuple {
    /// Creates a new ordered tuple.
    pub fn new(order: OrderKey, core: CoreId, payload: impl Into<Bytes>) -> Self {
        OrderedTuple { order, core, payload: payload.into() }
    }

    /// Returns true if `self` should replace `other` under `OPut` semantics:
    /// strictly greater `(order, core, payload)`, compared lexicographically.
    ///
    /// The core id is the cross-core commutativity tie-breaker (§4); the
    /// payload comparison extends the tie-break to tuples the *same* core
    /// wrote with equal order, so that replacement is a total order on
    /// distinct tuples and `OPut` / `TopKInsert` commute unconditionally —
    /// without it, the first-applied tuple would win and the outcome would
    /// depend on application order.
    pub fn supersedes(&self, other: &OrderedTuple) -> bool {
        (&self.order, self.core, self.payload.as_ref())
            > (&other.order, other.core, other.payload.as_ref())
    }
}

/// A bounded set of ordered tuples, as used by `TopKInsert` (§4).
///
/// The set contains at most `k` tuples. At most one tuple per order value is
/// allowed: in case of duplicate order, the tuple with the highest core id is
/// kept. When more than `k` tuples are present, the tuple with the smallest
/// order is dropped.
///
/// # Examples
///
/// ```
/// use doppel_common::{OrderKey, TopKSet};
///
/// let mut top = TopKSet::new(2);
/// top.insert(OrderKey::from(10), 0, b"a".as_ref());
/// top.insert(OrderKey::from(20), 0, b"b".as_ref());
/// top.insert(OrderKey::from(15), 1, b"c".as_ref());
/// // Capacity 2: order 10 was evicted, 15 and 20 remain.
/// let orders: Vec<i64> = top.iter().map(|t| t.order.primary()).collect();
/// assert_eq!(orders, vec![20, 15]);
/// ```
///
/// The entry vector is shared copy-on-write (`Arc` + [`Arc::make_mut`]):
/// cloning a `TopKSet` — which every stamped read of a top-K record does —
/// bumps a refcount instead of deep-copying `K` tuples, and mutation only
/// copies when a reader still holds the previous version.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TopKSet {
    k: usize,
    /// Entries sorted descending by (order, core).
    entries: Arc<Vec<OrderedTuple>>,
}

impl TopKSet {
    /// Creates an empty top-K set with capacity `k`.
    pub fn new(k: usize) -> Self {
        TopKSet { k, entries: Arc::new(Vec::new()) }
    }

    /// The configured capacity `K`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Number of tuples currently held (≤ `K`).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the set holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Inserts a tuple, applying the dedup-by-order and bounded-size rules.
    ///
    /// Returns `true` if the set changed.
    pub fn insert(&mut self, order: OrderKey, core: CoreId, payload: impl Into<Bytes>) -> bool {
        self.insert_tuple(OrderedTuple::new(order, core, payload))
    }

    /// Inserts an already-constructed tuple. See [`TopKSet::insert`].
    pub fn insert_tuple(&mut self, tuple: OrderedTuple) -> bool {
        // Dedup by order: keep the superseding tuple (highest core id, ties
        // broken by payload so insertion order never matters).
        if let Some(pos) = self.entries.iter().position(|e| e.order == tuple.order) {
            if tuple.supersedes(&self.entries[pos]) {
                Arc::make_mut(&mut self.entries)[pos] = tuple;
                return true;
            }
            return false;
        }
        let entries = Arc::make_mut(&mut self.entries);
        entries.push(tuple);
        entries.sort_by(|a, b| b.order.cmp(&a.order).then(b.core.cmp(&a.core)));
        if entries.len() > self.k {
            entries.truncate(self.k);
            // The inserted tuple may itself have been the one dropped.
        }
        true
    }

    /// Merges another top-K set into this one (used during reconciliation).
    pub fn merge_from(&mut self, other: &TopKSet) {
        if self.entries.is_empty() && other.entries.len() <= self.k {
            // O(1) adoption: the other side is already sorted and fits.
            self.entries = Arc::clone(&other.entries);
            return;
        }
        for t in other.entries.iter() {
            self.insert_tuple(t.clone());
        }
    }

    /// True if no other handle shares this set's entries (a clone does until
    /// it is dropped or written).
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.entries) == 1
    }

    /// Iterates over the tuples in descending order.
    pub fn iter(&self) -> impl Iterator<Item = &OrderedTuple> {
        self.entries.iter()
    }

    /// The tuple with the largest order, if any.
    pub fn max(&self) -> Option<&OrderedTuple> {
        self.entries.first()
    }

    /// The tuple with the smallest retained order, if any.
    pub fn min(&self) -> Option<&OrderedTuple> {
        self.entries.last()
    }

    /// True if a tuple with exactly this order is present.
    pub fn contains_order(&self, order: &OrderKey) -> bool {
        self.entries.iter().any(|e| &e.order == order)
    }
}

/// A sorted set of 64-bit integers, as used by `SetUnion`.
///
/// `SetUnion` makes distinct-element accumulation (unique visitors, distinct
/// badge holders, …) a splittable operation: set union is commutative,
/// associative and idempotent, so per-core partial sets can be merged in any
/// order. The set's size is bounded by the number of *distinct* elements ever
/// inserted, not by the number of operations, which keeps reconciliation cost
/// independent of the split phase's operation count (§4 guideline 4).
///
/// Like [`TopKSet`], the element vector is shared copy-on-write so that
/// cloning a set-valued record (every stamped read) is a refcount bump, not
/// an O(n) copy.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IntSet {
    /// Elements in ascending order, no duplicates.
    elems: Arc<Vec<i64>>,
}

impl IntSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        IntSet::default()
    }

    /// Creates a set holding exactly one element.
    pub fn singleton(e: i64) -> Self {
        IntSet { elems: Arc::new(vec![e]) }
    }

    /// Number of distinct elements.
    pub fn len(&self) -> usize {
        self.elems.len()
    }

    /// True when the set holds no elements.
    pub fn is_empty(&self) -> bool {
        self.elems.is_empty()
    }

    /// True if `e` is in the set.
    pub fn contains(&self, e: i64) -> bool {
        self.elems.binary_search(&e).is_ok()
    }

    /// Inserts an element; returns `true` if the set changed.
    pub fn insert(&mut self, e: i64) -> bool {
        match self.elems.binary_search(&e) {
            Ok(_) => false,
            Err(pos) => {
                Arc::make_mut(&mut self.elems).insert(pos, e);
                true
            }
        }
    }

    /// Unions another set into this one.
    pub fn union_with(&mut self, other: &IntSet) {
        if other.elems.is_empty() {
            return;
        }
        if self.elems.is_empty() {
            // O(1) adoption of the other side's shared vector.
            self.elems = Arc::clone(&other.elems);
            return;
        }
        // Single-element unions (the common `set_insert` case) stay a binary
        // search + insert; larger ones get a linear two-way sorted merge
        // instead of per-element O(n) vector shifts.
        if other.elems.len() == 1 {
            self.insert(other.elems[0]);
            return;
        }
        let mut merged = Vec::with_capacity(self.elems.len() + other.elems.len());
        let (mut i, mut j) = (0, 0);
        while i < self.elems.len() && j < other.elems.len() {
            match self.elems[i].cmp(&other.elems[j]) {
                std::cmp::Ordering::Less => {
                    merged.push(self.elems[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    merged.push(other.elems[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    merged.push(self.elems[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        merged.extend_from_slice(&self.elems[i..]);
        merged.extend_from_slice(&other.elems[j..]);
        self.elems = Arc::new(merged);
    }

    /// Iterates over the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        self.elems.iter().copied()
    }
}

impl FromIterator<i64> for IntSet {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        let mut set = IntSet::new();
        for e in iter {
            set.insert(e);
        }
        set
    }
}

/// Discriminant of a [`Value`], used in error reporting and type checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ValueKind {
    /// 64-bit signed integer.
    Int,
    /// Opaque byte string.
    Bytes,
    /// Ordered tuple (order, core, payload).
    Tuple,
    /// Bounded top-K set of ordered tuples.
    TopK,
    /// Sorted set of distinct 64-bit integers.
    Set,
}

/// A typed record value.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Value {
    /// 64-bit signed integer (counters, maxima, ratings, …).
    Int(i64),
    /// Opaque byte string (serialized rows).
    Bytes(Bytes),
    /// Ordered tuple written by `OPut`.
    Tuple(OrderedTuple),
    /// Bounded top-K set written by `TopKInsert`.
    TopK(TopKSet),
    /// Distinct-integer set written by `SetUnion`.
    Set(IntSet),
}

impl Value {
    /// Integer zero, the default initial value for counter records.
    pub const ZERO: Value = Value::Int(0);

    /// The discriminant of this value.
    pub fn kind(&self) -> ValueKind {
        match self {
            Value::Int(_) => ValueKind::Int,
            Value::Bytes(_) => ValueKind::Bytes,
            Value::Tuple(_) => ValueKind::Tuple,
            Value::TopK(_) => ValueKind::TopK,
            Value::Set(_) => ValueKind::Set,
        }
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the byte-string payload, if this is a [`Value::Bytes`].
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the ordered tuple, if this is a [`Value::Tuple`].
    pub fn as_tuple(&self) -> Option<&OrderedTuple> {
        match self {
            Value::Tuple(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the top-K set, if this is a [`Value::TopK`].
    pub fn as_topk(&self) -> Option<&TopKSet> {
        match self {
            Value::TopK(t) => Some(t),
            _ => None,
        }
    }

    /// Returns the integer set, if this is a [`Value::Set`].
    pub fn as_set(&self) -> Option<&IntSet> {
        match self {
            Value::Set(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes, used by store statistics.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Int(_) => 8,
            Value::Bytes(b) => b.len(),
            Value::Tuple(t) => 24 + t.payload.len(),
            Value::TopK(t) => t.entries.iter().map(|e| 24 + e.payload.len()).sum::<usize>() + 16,
            Value::Set(s) => 8 * s.len() + 16,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::Tuple(t) => write!(f, "tuple(order={:?}, core={})", t.order, t.core),
            Value::TopK(t) => write!(f, "topk[{}/{}]", t.len(), t.capacity()),
            Value::Set(s) => write!(f, "set[{}]", s.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

impl From<Bytes> for Value {
    fn from(b: Bytes) -> Self {
        Value::Bytes(b)
    }
}

impl From<Vec<u8>> for Value {
    fn from(b: Vec<u8>) -> Self {
        Value::Bytes(Bytes::from(b))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Bytes(Bytes::copy_from_slice(s.as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ord(n: i64) -> OrderKey {
        OrderKey::from(n)
    }

    #[test]
    fn ordered_tuple_supersedes_by_order_then_core() {
        let a = OrderedTuple::new(ord(10), 1, "a");
        let b = OrderedTuple::new(ord(11), 0, "b");
        let c = OrderedTuple::new(ord(10), 2, "c");
        assert!(b.supersedes(&a));
        assert!(!a.supersedes(&b));
        assert!(c.supersedes(&a));
        assert!(!a.supersedes(&c));
        assert!(!a.supersedes(&a));
    }

    #[test]
    fn topk_keeps_largest_k() {
        let mut t = TopKSet::new(3);
        for i in 0..10 {
            t.insert(ord(i), 0, format!("v{i}").into_bytes());
        }
        assert_eq!(t.len(), 3);
        let orders: Vec<i64> = t.iter().map(|e| e.order.primary()).collect();
        assert_eq!(orders, vec![9, 8, 7]);
        assert_eq!(t.max().unwrap().order, ord(9));
        assert_eq!(t.min().unwrap().order, ord(7));
    }

    #[test]
    fn topk_duplicate_order_keeps_highest_core() {
        let mut t = TopKSet::new(4);
        assert!(t.insert(ord(5), 1, "core1"));
        assert!(!t.insert(ord(5), 0, "core0"));
        assert!(t.insert(ord(5), 3, "core3"));
        assert_eq!(t.len(), 1);
        assert_eq!(t.max().unwrap().core, 3);
        assert_eq!(t.max().unwrap().payload, Bytes::from_static(b"core3"));
    }

    #[test]
    fn topk_insert_below_min_when_full_is_dropped() {
        let mut t = TopKSet::new(2);
        t.insert(ord(10), 0, "a");
        t.insert(ord(20), 0, "b");
        t.insert(ord(1), 0, "tiny");
        assert_eq!(t.len(), 2);
        assert!(!t.contains_order(&ord(1)));
    }

    #[test]
    fn topk_merge_is_same_as_inserting_everything() {
        let mut a = TopKSet::new(3);
        let mut b = TopKSet::new(3);
        let mut all = TopKSet::new(3);
        for (i, n) in [5, 9, 1, 7, 3, 8].iter().enumerate() {
            let target = if i % 2 == 0 { &mut a } else { &mut b };
            target.insert(ord(*n), i, format!("{n}").into_bytes());
            all.insert(ord(*n), i, format!("{n}").into_bytes());
        }
        a.merge_from(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).kind(), ValueKind::Int);
        assert!(Value::from("hi").as_bytes().is_some());
        assert!(Value::Int(1).as_bytes().is_none());
        let t = Value::Tuple(OrderedTuple::new(ord(1), 0, "x"));
        assert!(t.as_tuple().is_some());
        assert!(t.as_int().is_none());
        let k = Value::TopK(TopKSet::new(5));
        assert!(k.as_topk().is_some());
    }

    #[test]
    fn value_display_and_size() {
        assert_eq!(format!("{}", Value::Int(3)), "3");
        assert_eq!(Value::Int(3).approx_size(), 8);
        assert_eq!(Value::from("abcd").approx_size(), 4);
        assert!(format!("{}", Value::from("abcd")).contains("bytes[4]"));
    }

    #[test]
    fn int_set_semantics() {
        let mut s = IntSet::new();
        assert!(s.is_empty());
        assert!(s.insert(5));
        assert!(s.insert(1));
        assert!(!s.insert(5), "duplicate insert does not change the set");
        assert_eq!(s.len(), 2);
        assert!(s.contains(1));
        assert!(!s.contains(2));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5], "iteration is sorted");

        let other: IntSet = [5, 9, -3].into_iter().collect();
        s.union_with(&other);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![-3, 1, 5, 9]);

        // Union into an empty set clones the other side.
        let mut empty = IntSet::new();
        empty.union_with(&s);
        assert_eq!(empty, s);
        assert_eq!(IntSet::singleton(7).iter().collect::<Vec<_>>(), vec![7]);
    }

    #[test]
    fn int_set_union_is_commutative() {
        let a: IntSet = [1, 2, 3].into_iter().collect();
        let b: IntSet = [3, 4].into_iter().collect();
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn set_value_accessors() {
        let v = Value::Set(IntSet::singleton(4));
        assert_eq!(v.kind(), ValueKind::Set);
        assert!(v.as_set().unwrap().contains(4));
        assert!(v.as_int().is_none());
        assert_eq!(format!("{v}"), "set[1]");
        assert_eq!(v.approx_size(), 24);
    }

    #[test]
    fn serde_roundtrip() {
        let vals = vec![
            Value::Int(-4),
            Value::from("payload"),
            Value::Tuple(OrderedTuple::new(ord(9), 3, "p")),
            Value::TopK({
                let mut t = TopKSet::new(2);
                t.insert(ord(1), 0, "x");
                t
            }),
            Value::Set([3, 1, 4].into_iter().collect()),
        ];
        for v in vals {
            let s = serde_json::to_string(&v).unwrap();
            let back: Value = serde_json::from_str(&s).unwrap();
            assert_eq!(back, v);
        }
    }
}
