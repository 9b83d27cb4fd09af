//! Database operations.
//!
//! Transactions interact with the database via calls to operations (§3). Each
//! operation accesses exactly one record. `Get` and `Put` are the ordinary
//! read/write operations; the remaining operations are the *splittable*
//! commutative updates of §4:
//!
//! * they commute with themselves,
//! * they return nothing,
//! * one splittable operation is selected per split record per split phase,
//! * the per-core slice they produce has size independent of how many
//!   operations were applied.

use crate::value::{IntSet, Value};
use crate::CoreId;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned when an [`OrderKey`] is constructed from no components.
///
/// Order keys are compared lexicographically, so an empty key would compare
/// below every other key and `primary()` would have nothing to return.
/// Workload code building keys from external data should handle this error
/// instead of panicking inside a worker thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EmptyOrderKey;

impl fmt::Display for EmptyOrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "order key must have at least one component")
    }
}

impl std::error::Error for EmptyOrderKey {}

/// A lexicographic order key used by `OPut` and `TopKInsert`.
///
/// The paper allows the order to be "a number (or several numbers in
/// lexicographic order)" (§4). RUBiS uses `[bid_amount, timestamp]` so that
/// the max-bidder record is determined by the highest bid, ties broken by
/// time.
///
/// Keys of one or two components — every key this workspace builds — are held
/// inline, so constructing, cloning and decoding them never touches the heap;
/// longer keys spill to a boxed slice. Ordering, equality, hashing, `Display`
/// and the serde form are those of the component sequence, whichever way it
/// is held, and the type is no larger than the `Vec<i64>` it used to be.
#[derive(Clone)]
pub struct OrderKey(Repr);

#[derive(Clone)]
enum Repr {
    One([i64; 1]),
    Two([i64; 2]),
    Heap(Box<[i64]>),
}

const _: () = assert!(std::mem::size_of::<OrderKey>() == 24);

impl OrderKey {
    /// Creates an order key from its components (compared lexicographically).
    ///
    /// Returns [`EmptyOrderKey`] when `components` is empty, so that
    /// malformed workload data surfaces as an error the caller can handle
    /// rather than a panic that aborts a worker thread.
    pub fn new(components: impl IntoIterator<Item = i64>) -> Result<Self, EmptyOrderKey> {
        let mut rest = components.into_iter();
        let Some(a) = rest.next() else {
            return Err(EmptyOrderKey);
        };
        let Some(b) = rest.next() else {
            return Ok(OrderKey::from(a));
        };
        Ok(match rest.next() {
            None => OrderKey::pair(a, b),
            Some(c) => OrderKey(Repr::Heap([a, b, c].into_iter().chain(rest).collect())),
        })
    }

    /// Creates a two-component order key.
    pub fn pair(a: i64, b: i64) -> Self {
        OrderKey(Repr::Two([a, b]))
    }

    /// The first (most significant) component.
    pub fn primary(&self) -> i64 {
        self.components()[0]
    }

    /// All components (at least one).
    pub fn components(&self) -> &[i64] {
        match &self.0 {
            Repr::One(c) => c,
            Repr::Two(c) => c,
            Repr::Heap(c) => c,
        }
    }
}

impl From<i64> for OrderKey {
    fn from(n: i64) -> Self {
        OrderKey(Repr::One([n]))
    }
}

impl PartialEq for OrderKey {
    fn eq(&self, other: &Self) -> bool {
        self.components() == other.components()
    }
}

impl Eq for OrderKey {}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.components().cmp(other.components())
    }
}

impl std::hash::Hash for OrderKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.components().hash(state);
    }
}

impl fmt::Debug for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OrderKey({:?})", self.components())
    }
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.components())
    }
}

impl Serialize for OrderKey {
    fn serialize_json(&self) -> serde::Json {
        self.components().serialize_json()
    }
}

impl Deserialize for OrderKey {
    fn deserialize_json(j: &serde::Json) -> Result<Self, serde::JsonError> {
        OrderKey::new(Vec::<i64>::deserialize_json(j)?)
            .map_err(|_| serde::JsonError::msg("order key must have at least one component"))
    }
}

/// The kind of an operation, without its arguments.
///
/// `OpKind` is what Doppel's classifier tracks per record: a record is split
/// *for a particular operation kind*, and during a split phase any operation
/// of a different kind on that record causes the transaction to be stashed
/// (§4 guideline 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Read a record.
    Get,
    /// Overwrite a record (blind write); not splittable because it does not
    /// commute.
    Put,
    /// Replace an integer with the max of itself and the argument.
    Max,
    /// Replace an integer with the min of itself and the argument.
    Min,
    /// Add the argument to an integer.
    Add,
    /// Multiply an integer by the argument (the "more operations could easily
    /// be added (for instance, multiply)" extension from §4).
    Mult,
    /// Ordered put on ordered-tuple records.
    OPut,
    /// Insert into a bounded top-K set.
    TopKInsert,
    /// OR the argument's bits into an integer (flag accumulation).
    BitOr,
    /// Add the argument to an integer, saturating at a per-record bound
    /// (rate-limiting counters).
    BoundedAdd,
    /// Union the argument's elements into a distinct-integer set.
    SetUnion,
}

impl OpKind {
    /// True if records may be split for this operation kind.
    ///
    /// Splittable operations commute with themselves and return nothing (§4).
    /// The answer is delegated to the [`crate::split_op`] registry: an
    /// operation kind is splittable exactly when a [`crate::SplitOp`]
    /// implementation is registered for it.
    pub fn splittable(&self) -> bool {
        crate::split_op::split_ops().is_splittable(*self)
    }

    /// True if the operation modifies the database.
    pub fn is_write(&self) -> bool {
        !matches!(self, OpKind::Get)
    }

    /// All operation kinds (for tests and exhaustive tables).
    pub const ALL: &'static [OpKind] = &[
        OpKind::Get,
        OpKind::Put,
        OpKind::Max,
        OpKind::Min,
        OpKind::Add,
        OpKind::Mult,
        OpKind::OPut,
        OpKind::TopKInsert,
        OpKind::BitOr,
        OpKind::BoundedAdd,
        OpKind::SetUnion,
    ];
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A write operation with its arguments (the read operation `Get` is handled
/// separately by the transaction interface because it returns a value).
///
/// `Op` values are buffered in transaction write sets and applied at commit
/// time, or — for splittable operations on split records during a split
/// phase — applied to the local core's slice.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Blind overwrite with a new value.
    Put(Value),
    /// `v[k] ← max(v[k], n)` on integer records.
    Max(i64),
    /// `v[k] ← min(v[k], n)` on integer records.
    Min(i64),
    /// `v[k] ← v[k] + n` on integer records.
    Add(i64),
    /// `v[k] ← v[k] * n` on integer records.
    Mult(i64),
    /// Ordered put: replace the tuple if `(order, core)` is larger.
    OPut {
        /// Order of the new tuple.
        order: OrderKey,
        /// Id of the writing core (commutativity tie-breaker).
        core: CoreId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Insert `(order, core, payload)` into a top-K set of capacity `k`.
    TopKInsert {
        /// Order of the inserted tuple.
        order: OrderKey,
        /// Id of the writing core (dedup tie-breaker).
        core: CoreId,
        /// Payload bytes.
        payload: Bytes,
        /// Capacity of the top-K set (used when the record is created lazily).
        k: usize,
    },
    /// `v[k] ← v[k] | n` on integer records (bitwise OR).
    BitOr(i64),
    /// `v[k] ← min(bound, v[k] + max(n, 0))` on integer records: a counter
    /// that saturates at `bound`.
    ///
    /// Negative deltas are treated as 0 — only non-negative increments keep
    /// the saturating semantics commutative. Like `TopKInsert`'s capacity,
    /// the bound is a static property of the record: all `BoundedAdd`
    /// operations on one key must agree on it.
    BoundedAdd {
        /// The (non-negative) increment.
        n: i64,
        /// The saturation bound.
        bound: i64,
    },
    /// `v[k] ← v[k] ∪ elems` on distinct-integer-set records.
    SetUnion(IntSet),
}

impl Op {
    /// The kind of this operation.
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Put(_) => OpKind::Put,
            Op::Max(_) => OpKind::Max,
            Op::Min(_) => OpKind::Min,
            Op::Add(_) => OpKind::Add,
            Op::Mult(_) => OpKind::Mult,
            Op::OPut { .. } => OpKind::OPut,
            Op::TopKInsert { .. } => OpKind::TopKInsert,
            Op::BitOr(_) => OpKind::BitOr,
            Op::BoundedAdd { .. } => OpKind::BoundedAdd,
            Op::SetUnion(_) => OpKind::SetUnion,
        }
    }

    /// Applies this operation to a value in place, returning the new value.
    ///
    /// `current` is `None` when the record does not exist yet; each operation
    /// defines its behaviour on absent records:
    ///
    /// * `Put` creates the record;
    /// * `Max`/`Min`/`Add`/`Mult` treat the record as the integer identity of
    ///   the operation (−∞ / +∞ / 0 / 1 respectively), i.e. the argument (or
    ///   for `Mult`, the value 1 × n);
    /// * `OPut` treats absent records as order −∞ (§4);
    /// * `TopKInsert` creates an empty top-K set first.
    ///
    /// This is the *global-store* semantics used by the joined phase and by
    /// the OCC / 2PL baselines; the split phase applies operations to
    /// per-core slices instead and merges them later, with the same overall
    /// effect (§4).
    ///
    /// For every operation except `Put`, the semantics live in the
    /// operation's [`crate::SplitOp`] implementation, so the global-store
    /// path, the per-core slice path and the reconciliation merge are
    /// guaranteed to agree — a new splittable operation defines all three in
    /// one place.
    pub fn apply_to(&self, current: Option<&Value>) -> Result<Value, crate::TxError> {
        match self {
            Op::Put(v) => Ok(v.clone()),
            op => crate::split_op::split_ops()
                .get(op.kind())
                .expect("every non-Put operation has a registered SplitOp implementation")
                .apply(op, current),
        }
    }

    /// Read-your-writes for a lent read: lends `f` the `committed` value as
    /// the transaction sees it, with its `own` buffered write (if any)
    /// applied.
    pub fn lend_applied(
        own: Option<&Op>,
        committed: Option<&Value>,
        f: &mut dyn FnMut(Option<&Value>),
    ) -> Result<(), crate::TxError> {
        match own {
            Some(op) => f(Some(&op.apply_to(committed)?)),
            None => f(committed),
        }
        Ok(())
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Put(v) => write!(f, "Put({v})"),
            Op::Max(n) => write!(f, "Max({n})"),
            Op::Min(n) => write!(f, "Min({n})"),
            Op::Add(n) => write!(f, "Add({n})"),
            Op::Mult(n) => write!(f, "Mult({n})"),
            Op::OPut { order, core, .. } => write!(f, "OPut(order={order}, core={core})"),
            Op::TopKInsert { order, core, k, .. } => {
                write!(f, "TopKInsert(order={order}, core={core}, k={k})")
            }
            Op::BitOr(n) => write!(f, "BitOr({n:#x})"),
            Op::BoundedAdd { n, bound } => write!(f, "BoundedAdd({n}, bound={bound})"),
            Op::SetUnion(s) => write!(f, "SetUnion[{}]", s.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TxError;

    #[test]
    fn order_key_lexicographic() {
        assert!(OrderKey::pair(1, 9) < OrderKey::pair(2, 0));
        assert!(OrderKey::pair(2, 1) < OrderKey::pair(2, 3));
        assert_eq!(OrderKey::from(5).primary(), 5);
        assert_eq!(OrderKey::pair(5, 6).components(), &[5, 6]);
        assert_eq!(OrderKey::new(vec![4, 2]).unwrap(), OrderKey::pair(4, 2));
    }

    #[test]
    fn empty_order_key_is_an_error_not_a_panic() {
        assert_eq!(OrderKey::new(vec![]), Err(EmptyOrderKey));
        assert!(format!("{EmptyOrderKey}").contains("at least one component"));
    }

    #[test]
    fn splittability_matches_paper() {
        assert!(!OpKind::Get.splittable());
        assert!(!OpKind::Put.splittable());
        for k in [
            OpKind::Max,
            OpKind::Min,
            OpKind::Add,
            OpKind::Mult,
            OpKind::OPut,
            OpKind::TopKInsert,
            OpKind::BitOr,
            OpKind::BoundedAdd,
            OpKind::SetUnion,
        ] {
            assert!(k.splittable(), "{k} must be splittable");
        }
    }

    #[test]
    fn writes_vs_reads() {
        assert!(!OpKind::Get.is_write());
        assert!(OpKind::Put.is_write());
        assert!(OpKind::Add.is_write());
    }

    #[test]
    fn apply_max_min_add_mult() {
        assert_eq!(Op::Max(5).apply_to(Some(&Value::Int(3))).unwrap(), Value::Int(5));
        assert_eq!(Op::Max(5).apply_to(Some(&Value::Int(9))).unwrap(), Value::Int(9));
        assert_eq!(Op::Max(5).apply_to(None).unwrap(), Value::Int(5));
        assert_eq!(Op::Min(5).apply_to(Some(&Value::Int(9))).unwrap(), Value::Int(5));
        assert_eq!(Op::Min(5).apply_to(None).unwrap(), Value::Int(5));
        assert_eq!(Op::Add(5).apply_to(Some(&Value::Int(2))).unwrap(), Value::Int(7));
        assert_eq!(Op::Add(5).apply_to(None).unwrap(), Value::Int(5));
        assert_eq!(Op::Mult(5).apply_to(Some(&Value::Int(3))).unwrap(), Value::Int(15));
        assert_eq!(Op::Mult(5).apply_to(None).unwrap(), Value::Int(5));
    }

    #[test]
    fn apply_bitor_accumulates_flags() {
        assert_eq!(Op::BitOr(0b0101).apply_to(None).unwrap(), Value::Int(0b0101));
        assert_eq!(
            Op::BitOr(0b0011).apply_to(Some(&Value::Int(0b0101))).unwrap(),
            Value::Int(0b0111)
        );
        let err = Op::BitOr(1).apply_to(Some(&Value::from("str"))).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
    }

    #[test]
    fn apply_bounded_add_saturates() {
        let op = |n| Op::BoundedAdd { n, bound: 10 };
        assert_eq!(op(4).apply_to(None).unwrap(), Value::Int(4));
        assert_eq!(op(4).apply_to(Some(&Value::Int(4))).unwrap(), Value::Int(8));
        assert_eq!(op(4).apply_to(Some(&Value::Int(8))).unwrap(), Value::Int(10));
        assert_eq!(op(4).apply_to(Some(&Value::Int(10))).unwrap(), Value::Int(10));
        // Negative deltas are clamped to 0 to preserve commutativity.
        assert_eq!(op(-7).apply_to(Some(&Value::Int(3))).unwrap(), Value::Int(3));
    }

    #[test]
    fn apply_set_union_deduplicates() {
        let v = Op::SetUnion(IntSet::singleton(3)).apply_to(None).unwrap();
        let v = Op::SetUnion([3, 8].into_iter().collect()).apply_to(Some(&v)).unwrap();
        assert_eq!(v.as_set().unwrap().iter().collect::<Vec<_>>(), vec![3, 8]);
        let err = Op::SetUnion(IntSet::new()).apply_to(Some(&Value::Int(1))).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
    }

    #[test]
    fn apply_put_overwrites_any_type() {
        let v = Op::Put(Value::from("new")).apply_to(Some(&Value::Int(1))).unwrap();
        assert_eq!(v, Value::from("new"));
        let v = Op::Put(Value::Int(2)).apply_to(None).unwrap();
        assert_eq!(v, Value::Int(2));
    }

    #[test]
    fn apply_oput_semantics() {
        let op_hi = Op::OPut { order: OrderKey::from(10), core: 1, payload: Bytes::from_static(b"hi") };
        let op_lo = Op::OPut { order: OrderKey::from(3), core: 9, payload: Bytes::from_static(b"lo") };
        let v1 = op_hi.apply_to(None).unwrap();
        let v2 = op_lo.apply_to(Some(&v1)).unwrap();
        // Lower order does not replace.
        assert_eq!(v2.as_tuple().unwrap().payload, Bytes::from_static(b"hi"));
        // Equal order, higher core replaces.
        let op_tie = Op::OPut { order: OrderKey::from(10), core: 2, payload: Bytes::from_static(b"tie") };
        let v3 = op_tie.apply_to(Some(&v1)).unwrap();
        assert_eq!(v3.as_tuple().unwrap().core, 2);
    }

    #[test]
    fn apply_topk_creates_and_bounds() {
        let mk = |o: i64| Op::TopKInsert {
            order: OrderKey::from(o),
            core: 0,
            payload: Bytes::from_static(b"x"),
            k: 2,
        };
        let v = mk(1).apply_to(None).unwrap();
        let v = mk(5).apply_to(Some(&v)).unwrap();
        let v = mk(3).apply_to(Some(&v)).unwrap();
        let set = v.as_topk().unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.max().unwrap().order, OrderKey::from(5));
    }

    #[test]
    fn type_mismatch_errors() {
        let err = Op::Add(1).apply_to(Some(&Value::from("str"))).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
        let err = Op::OPut { order: OrderKey::from(1), core: 0, payload: Bytes::new() }
            .apply_to(Some(&Value::Int(3)))
            .unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
        let err = Op::TopKInsert { order: OrderKey::from(1), core: 0, payload: Bytes::new(), k: 3 }
            .apply_to(Some(&Value::Int(3)))
            .unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
    }

    #[test]
    fn op_kind_roundtrip_and_display() {
        assert_eq!(Op::Add(1).kind(), OpKind::Add);
        assert_eq!(Op::Put(Value::Int(0)).kind(), OpKind::Put);
        assert_eq!(format!("{}", Op::Add(3)), "Add(3)");
        assert_eq!(format!("{}", OpKind::Max), "Max");
    }

    /// Property: the integer splittable operations commute with themselves —
    /// applying a batch in any order yields the same final value (§4
    /// guideline 1). The full battery lives in `tests/split_op_laws.rs`.
    #[test]
    fn commutativity_smoke() {
        let args = [3i64, -7, 42, 0, 13];
        let makers: [fn(i64) -> Op; 6] = [
            Op::Max,
            Op::Min,
            Op::Add,
            Op::Mult,
            Op::BitOr,
            |n| Op::BoundedAdd { n, bound: 40 },
        ];
        for make in makers {
            let forward = args.iter().fold(Value::Int(1), |acc, &n| {
                make(n).apply_to(Some(&acc)).unwrap()
            });
            let backward = args.iter().rev().fold(Value::Int(1), |acc, &n| {
                make(n).apply_to(Some(&acc)).unwrap()
            });
            assert_eq!(forward, backward);
        }
    }
}
