//! The open splittable-operation framework.
//!
//! The paper's §4 characterises the operations Doppel can split: they commute
//! with themselves, return nothing, and admit per-core *slices* whose size is
//! independent of how many operations were applied. The original prototype —
//! and the first version of this reproduction — hard-coded that set (`Add`,
//! `Max`, `Min`, `Mult`, `OPut`, `TopKInsert`) as enum arms threaded through
//! the value types, the slice logic, the classifier and the reconciliation
//! merge, so adding an operation meant editing five files in lockstep.
//!
//! This module replaces those hard-coded arms with a trait: a [`SplitOp`]
//! bundles *all* of an operation's semantics —
//!
//! * **apply**: the global-store semantics used by joined phases and by the
//!   OCC / 2PL / Atomic baselines ([`crate::Op::apply_to`] delegates here);
//! * **fold**: how one operation is absorbed into a per-core slice
//!   accumulator ("slice-apply" in Figure 3) — defaults to `apply`, which is
//!   correct whenever the slice state *is* a partial value of the record's
//!   type;
//! * **merge_into**: how a finished accumulator is converted back into
//!   operations applied to the global record at reconciliation ("merge-apply"
//!   in Figure 4);
//! * the **compatibility class** ([`SplitOp::value_kind`]): the value type
//!   records split for this operation must hold, used for error reporting and
//!   registry sanity checks.
//!
//! Implementations are registered in a [`SplitOpRegistry`]; the process-wide
//! [`split_ops`] registry holds the built-in operations and is what
//! [`crate::OpKind::splittable`], the Doppel classifier, the split set and
//! the per-core slices consult. Adding a splittable operation is now: add the
//! `Op`/`OpKind` variants (data only), implement `SplitOp` for them here, and
//! list the implementation in [`SplitOpRegistry::builtin`] — every engine,
//! the classifier and reconciliation pick it up from the registry. The
//! `split_op_laws` integration test enumerates the registry, so a new
//! operation is automatically subjected to the commutativity and
//! merge-order-independence battery.

use crate::error::TxError;
use crate::ops::{Op, OpKind};
use crate::value::{IntSet, OrderedTuple, TopKSet, Value, ValueKind};

/// Semantics of one splittable commutative operation (§4).
///
/// Implementations must uphold the §4 laws — the `tests/split_op_laws.rs`
/// battery checks them for every registered operation:
///
/// * **commutativity**: `apply` over any permutation of a batch of
///   operations of this kind yields the same final value;
/// * **slice/merge equivalence**: folding a batch into per-core accumulators
///   (any assignment of operations to cores) and merging the accumulators
///   (in any order) equals applying the batch directly;
/// * **identity**: an accumulator into which nothing was folded merges as a
///   no-op (the slice layer guarantees this by never creating empty
///   accumulators).
pub trait SplitOp: Send + Sync + std::fmt::Debug {
    /// The operation kind this implementation handles.
    fn kind(&self) -> OpKind;

    /// The compatibility class: the value kind records split for this
    /// operation hold. Used for error reporting and sanity checks.
    fn value_kind(&self) -> ValueKind;

    /// Global-store semantics: the new value after applying `op` to
    /// `current` (`None` = the record does not exist yet, i.e. the
    /// operation's identity).
    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError>;

    /// Slice semantics: folds `op` into a per-core accumulator in place
    /// (`*state` is `None` before the first fold, `Some` afterwards).
    ///
    /// On `Err`, implementations must leave `state` unchanged — the slice
    /// layer relies on this so a rejected operation cannot wipe out the
    /// updates already folded this phase.
    ///
    /// The default — apply the operation to the partial state as if it were
    /// the record — is correct whenever the accumulator is a partial value of
    /// the record's own type (`Max` keeps a running maximum, …). Override it
    /// when the accumulator must differ from the stored value
    /// ([`BoundedAddOp`] accumulates the *unclamped* delta sum so clamping
    /// happens exactly once, at merge time) or to mutate a container
    /// accumulator without cloning it ([`TopKInsertOp`], [`SetUnionOp`]).
    fn fold(&self, state: &mut Option<Value>, op: &Op) -> Result<(), TxError> {
        *state = Some(self.apply(op, state.as_ref())?);
        Ok(())
    }

    /// True when `op` agrees with `first` (the first operation folded into a
    /// slice) on any static per-record parameters. Operations whose merge
    /// reads a parameter from the first folded op — [`BoundedAddOp`]'s bound,
    /// [`TopKInsertOp`]'s capacity — override this; the slice layer
    /// debug-asserts it so a workload mixing parameters on one key fails
    /// loudly in tests instead of silently diverging between engines.
    fn params_match(&self, _first: &Op, _op: &Op) -> bool {
        true
    }

    /// Merge semantics: converts a finished accumulator into the operations
    /// to apply to the global record at reconciliation. `first` is a copy of
    /// the first operation folded into the accumulator; it carries any static
    /// parameters the merge needs (`TopKInsert`'s capacity, `BoundedAdd`'s
    /// bound). Appending nothing skips the merge (the accumulator is the
    /// operation's absorbing identity, e.g. an `Add` slice that summed to
    /// zero). Operations go into a caller-owned buffer so that a worker
    /// reconciling every few milliseconds reuses one allocation.
    fn merge_into(&self, state: Value, first: &Op, out: &mut Vec<Op>);

    /// [`SplitOp::merge_into`] into a fresh vector.
    fn merge_ops(&self, state: Value, first: &Op) -> Vec<Op> {
        let mut out = Vec::new();
        self.merge_into(state, first, &mut out);
        out
    }
}

/// Helper for integer-typed operations: extracts the current integer, using
/// `identity` for absent records.
fn int_state(kind: OpKind, current: Option<&Value>, identity: i64) -> Result<i64, TxError> {
    match current {
        None => Ok(identity),
        Some(Value::Int(n)) => Ok(*n),
        Some(v) => Err(TxError::type_mismatch(kind, v.kind())),
    }
}

/// Helper: the argument of an operation, or a type error naming this
/// implementation's value kind if the operation is of the wrong kind (a
/// logic error upstream).
macro_rules! expect_op {
    ($op:expr, $pat:pat => $out:expr, $vk:expr) => {
        match $op {
            $pat => $out,
            other => return Err(TxError::type_mismatch(other.kind(), $vk)),
        }
    };
}

/// `Max`: running maximum. Identity: −∞ (absent records take the argument).
#[derive(Debug)]
pub struct MaxOp;

impl SplitOp for MaxOp {
    fn kind(&self) -> OpKind {
        OpKind::Max
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Int
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let n = expect_op!(op, Op::Max(n) => *n, ValueKind::Int);
        Ok(Value::Int(int_state(OpKind::Max, current, i64::MIN)?.max(n)))
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        out.extend(state.as_int().map(Op::Max));
    }
}

/// `Min`: running minimum. Identity: +∞.
#[derive(Debug)]
pub struct MinOp;

impl SplitOp for MinOp {
    fn kind(&self) -> OpKind {
        OpKind::Min
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Int
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let n = expect_op!(op, Op::Min(n) => *n, ValueKind::Int);
        Ok(Value::Int(int_state(OpKind::Min, current, i64::MAX)?.min(n)))
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        out.extend(state.as_int().map(Op::Min));
    }
}

/// `Add`: wrapping sum. Identity: 0 (a zero-sum slice merges as a no-op).
#[derive(Debug)]
pub struct AddOp;

impl SplitOp for AddOp {
    fn kind(&self) -> OpKind {
        OpKind::Add
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Int
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let n = expect_op!(op, Op::Add(n) => *n, ValueKind::Int);
        Ok(Value::Int(int_state(OpKind::Add, current, 0)?.wrapping_add(n)))
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        out.extend(state.as_int().filter(|n| *n != 0).map(Op::Add));
    }
}

/// `Mult`: wrapping product. Identity: 1 (a unit-product slice merges as a
/// no-op).
#[derive(Debug)]
pub struct MultOp;

impl SplitOp for MultOp {
    fn kind(&self) -> OpKind {
        OpKind::Mult
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Int
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let n = expect_op!(op, Op::Mult(n) => *n, ValueKind::Int);
        Ok(Value::Int(int_state(OpKind::Mult, current, 1)?.wrapping_mul(n)))
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        out.extend(state.as_int().filter(|n| *n != 1).map(Op::Mult));
    }
}

/// `OPut`: ordered put — the tuple with the largest `(order, core)` wins.
/// Identity: order −∞ (absent records take any tuple).
#[derive(Debug)]
pub struct OPutOp;

impl SplitOp for OPutOp {
    fn kind(&self) -> OpKind {
        OpKind::OPut
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Tuple
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let mut state = current.cloned();
        self.fold(&mut state, op)?;
        Ok(state.expect("fold always leaves a value on success"))
    }

    fn fold(&self, state: &mut Option<Value>, op: &Op) -> Result<(), TxError> {
        // The single copy of the OPut semantics; `apply` delegates here with
        // a cloned current value, the slice path passes its accumulator so
        // the winning tuple is replaced in place.
        let (order, core, payload) = expect_op!(
            op,
            Op::OPut { order, core, payload } => (order, core, payload),
            ValueKind::Tuple
        );
        let new = OrderedTuple::new(order.clone(), *core, payload.clone());
        match state {
            None => {
                *state = Some(Value::Tuple(new));
                Ok(())
            }
            Some(Value::Tuple(cur)) => {
                if new.supersedes(cur) {
                    *cur = new;
                }
                Ok(())
            }
            Some(v) => Err(TxError::type_mismatch(OpKind::OPut, v.kind())),
        }
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        if let Value::Tuple(t) = state {
            out.push(Op::OPut { order: t.order, core: t.core, payload: t.payload });
        }
    }
}

/// `TopKInsert`: bounded top-K set insertion. A slice is a local top-K set,
/// so its size — and the reconciliation cost — is bounded by K regardless of
/// how many operations ran during the split phase (§4 guideline 4).
#[derive(Debug)]
pub struct TopKInsertOp;

impl SplitOp for TopKInsertOp {
    fn kind(&self) -> OpKind {
        OpKind::TopKInsert
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::TopK
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let mut state = current.cloned();
        self.fold(&mut state, op)?;
        Ok(state.expect("fold always leaves a value on success"))
    }

    fn fold(&self, state: &mut Option<Value>, op: &Op) -> Result<(), TxError> {
        // The single copy of the TopKInsert semantics; `apply` delegates here
        // with a cloned current value, the slice path passes its accumulator
        // so the local top-K set is mutated in place.
        let (order, core, payload, k) = expect_op!(
            op,
            Op::TopKInsert { order, core, payload, k } => (order, core, payload, *k),
            ValueKind::TopK
        );
        match state {
            None => {
                let mut set = TopKSet::new(k);
                set.insert(order.clone(), *core, payload.clone());
                *state = Some(Value::TopK(set));
                Ok(())
            }
            Some(Value::TopK(cur)) => {
                cur.insert(order.clone(), *core, payload.clone());
                Ok(())
            }
            Some(v) => Err(TxError::type_mismatch(OpKind::TopKInsert, v.kind())),
        }
    }

    fn params_match(&self, first: &Op, op: &Op) -> bool {
        matches!(
            (first, op),
            (Op::TopKInsert { k: a, .. }, Op::TopKInsert { k: b, .. }) if a == b
        )
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        if let Value::TopK(set) = state {
            let k = set.capacity();
            out.extend(set.iter().map(|t| Op::TopKInsert {
                order: t.order.clone(),
                core: t.core,
                payload: t.payload.clone(),
                k,
            }));
        }
    }
}

/// `BitOr`: flag accumulation — bitwise OR is commutative, associative and
/// idempotent. Identity: 0.
#[derive(Debug)]
pub struct BitOrOp;

impl SplitOp for BitOrOp {
    fn kind(&self) -> OpKind {
        OpKind::BitOr
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Int
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let n = expect_op!(op, Op::BitOr(n) => *n, ValueKind::Int);
        Ok(Value::Int(int_state(OpKind::BitOr, current, 0)? | n))
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        out.extend(state.as_int().filter(|n| *n != 0).map(Op::BitOr));
    }
}

/// `BoundedAdd`: a counter saturating at a per-record bound (rate limiting,
/// strike counters).
///
/// Only *non-negative* increments keep clamp-at-a-bound commutative, so
/// negative arguments are treated as 0. The slice accumulator is the
/// **unclamped** sum of deltas — clamping per fold would bake the bound into
/// the partial sums and break merge equivalence for records whose stored
/// value is negative; clamping once at merge time gives exactly
/// `min(bound, v + Σdeltas)`, which equals direct per-operation application
/// for every starting value `v`.
#[derive(Debug)]
pub struct BoundedAddOp;

impl SplitOp for BoundedAddOp {
    fn kind(&self) -> OpKind {
        OpKind::BoundedAdd
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Int
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let (n, bound) = expect_op!(
            op,
            Op::BoundedAdd { n, bound } => (*n, *bound),
            ValueKind::Int
        );
        let cur = int_state(OpKind::BoundedAdd, current, 0)?;
        Ok(Value::Int(cur.saturating_add(n.max(0)).min(bound)))
    }

    fn fold(&self, state: &mut Option<Value>, op: &Op) -> Result<(), TxError> {
        let n = expect_op!(op, Op::BoundedAdd { n, .. } => *n, ValueKind::Int);
        let sum = int_state(OpKind::BoundedAdd, state.as_ref(), 0)?;
        *state = Some(Value::Int(sum.saturating_add(n.max(0))));
        Ok(())
    }

    fn params_match(&self, first: &Op, op: &Op) -> bool {
        matches!(
            (first, op),
            (Op::BoundedAdd { bound: a, .. }, Op::BoundedAdd { bound: b, .. }) if a == b
        )
    }

    fn merge_into(&self, state: Value, first: &Op, out: &mut Vec<Op>) {
        // Unlike `Add`, a zero sum is not skippable: `BoundedAdd(0)` still
        // clamps a record whose loaded value exceeds the bound.
        if let (Op::BoundedAdd { bound, .. }, Some(n)) = (first, state.as_int()) {
            out.push(Op::BoundedAdd { n, bound: *bound });
        }
    }
}

/// `SetUnion`: distinct-element accumulation. Union is commutative,
/// associative and idempotent; the identity is the empty set. A slice is the
/// set of elements this core saw, merged with one `SetUnion` operation.
#[derive(Debug)]
pub struct SetUnionOp;

impl SplitOp for SetUnionOp {
    fn kind(&self) -> OpKind {
        OpKind::SetUnion
    }

    fn value_kind(&self) -> ValueKind {
        ValueKind::Set
    }

    fn apply(&self, op: &Op, current: Option<&Value>) -> Result<Value, TxError> {
        let mut state = current.cloned();
        self.fold(&mut state, op)?;
        Ok(state.expect("fold always leaves a value on success"))
    }

    fn fold(&self, state: &mut Option<Value>, op: &Op) -> Result<(), TxError> {
        // The single copy of the SetUnion semantics; `apply` delegates here
        // with a cloned current value, the slice path passes its accumulator
        // in place — cloning the accumulated set on every fold would turn a
        // split phase's inserts into quadratic work.
        let elems = expect_op!(op, Op::SetUnion(s) => s, ValueKind::Set);
        match state {
            None => {
                let mut set = IntSet::new();
                set.union_with(elems);
                *state = Some(Value::Set(set));
                Ok(())
            }
            Some(Value::Set(cur)) => {
                cur.union_with(elems);
                Ok(())
            }
            Some(v) => Err(TxError::type_mismatch(OpKind::SetUnion, v.kind())),
        }
    }

    fn merge_into(&self, state: Value, _first: &Op, out: &mut Vec<Op>) {
        if let Value::Set(s) = state {
            if !s.is_empty() {
                out.push(Op::SetUnion(s));
            }
        }
    }
}

/// A registry of [`SplitOp`] implementations, indexed by [`OpKind`].
///
/// The registry is the single source of truth for which operation kinds are
/// splittable: the classifier, the split set and the slice layer all consult
/// it. [`split_ops`] returns the process-wide registry of built-in
/// operations; tests exercising custom operations can build their own with
/// [`SplitOpRegistry::builtin`] + [`SplitOpRegistry::register`].
#[derive(Debug)]
pub struct SplitOpRegistry {
    /// Implementations indexed by `OpKind` discriminant, so the lookup on
    /// every engine's apply path is a single array access.
    ops: [Option<&'static dyn SplitOp>; OpKind::ALL.len()],
}

impl Default for SplitOpRegistry {
    fn default() -> Self {
        SplitOpRegistry { ops: [None; OpKind::ALL.len()] }
    }
}

impl SplitOpRegistry {
    /// An empty registry (nothing is splittable).
    pub fn empty() -> Self {
        SplitOpRegistry::default()
    }

    /// The registry of built-in splittable operations: the paper's §4 set
    /// plus the `BitOr` / `BoundedAdd` / `SetUnion` extensions.
    pub fn builtin() -> Self {
        let mut r = SplitOpRegistry::empty();
        r.register(&MaxOp);
        r.register(&MinOp);
        r.register(&AddOp);
        r.register(&MultOp);
        r.register(&OPutOp);
        r.register(&TopKInsertOp);
        r.register(&BitOrOp);
        r.register(&BoundedAddOp);
        r.register(&SetUnionOp);
        r
    }

    /// Registers an implementation, replacing any previous one for the same
    /// kind.
    pub fn register(&mut self, op: &'static dyn SplitOp) {
        self.ops[op.kind() as usize] = Some(op);
    }

    /// The implementation for `kind`, or `None` when `kind` is not
    /// splittable.
    #[inline]
    pub fn get(&self, kind: OpKind) -> Option<&'static dyn SplitOp> {
        self.ops[kind as usize]
    }

    /// True when records may be split for `kind`.
    #[inline]
    pub fn is_splittable(&self, kind: OpKind) -> bool {
        self.get(kind).is_some()
    }

    /// Iterates over the registered implementations.
    pub fn iter(&self) -> impl Iterator<Item = &'static dyn SplitOp> + '_ {
        self.ops.iter().copied().flatten()
    }

    /// Number of registered operations.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

/// The process-wide registry of built-in splittable operations.
pub fn split_ops() -> &'static SplitOpRegistry {
    static REGISTRY: std::sync::OnceLock<SplitOpRegistry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(SplitOpRegistry::builtin)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_splittable_kind() {
        let reg = split_ops();
        assert_eq!(reg.len(), 9);
        assert!(!reg.is_empty());
        for kind in OpKind::ALL {
            assert_eq!(
                reg.is_splittable(*kind),
                kind.splittable(),
                "registry and OpKind::splittable disagree on {kind}"
            );
            if let Some(op) = reg.get(*kind) {
                assert_eq!(op.kind(), *kind, "registered under the wrong kind");
            }
        }
        assert!(reg.get(OpKind::Get).is_none());
        assert!(reg.get(OpKind::Put).is_none());
    }

    #[test]
    fn register_replaces_existing_kind() {
        let mut reg = SplitOpRegistry::empty();
        reg.register(&AddOp);
        reg.register(&AddOp);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.iter().count(), 1);
    }

    #[test]
    fn apply_rejects_foreign_op() {
        // Handing an op of the wrong kind to an implementation is a logic
        // error upstream, reported as a type mismatch rather than a panic.
        let err = AddOp.apply(&Op::Max(3), None).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
        let err = SetUnionOp.apply(&Op::Add(1), None).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
    }

    #[test]
    fn bounded_add_fold_accumulates_unclamped() {
        let op = Op::BoundedAdd { n: 8, bound: 10 };
        let mut state = None;
        BoundedAddOp.fold(&mut state, &op).unwrap();
        BoundedAddOp.fold(&mut state, &op).unwrap();
        // The accumulator exceeds the bound: clamping is deferred to merge.
        assert_eq!(state, Some(Value::Int(16)));
        let merge = BoundedAddOp.merge_ops(state.unwrap(), &op);
        assert_eq!(merge, vec![Op::BoundedAdd { n: 16, bound: 10 }]);
        // Merging into a negative stored value stays exact.
        assert_eq!(merge[0].apply_to(Some(&Value::Int(-20))).unwrap(), Value::Int(-4));
    }

    #[test]
    fn failed_fold_leaves_state_untouched() {
        // A fold that rejects its input must not wipe the accumulator.
        let mut state = Some(Value::Int(5));
        let err = SetUnionOp.fold(&mut state, &Op::SetUnion(IntSet::singleton(1))).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
        assert_eq!(state, Some(Value::Int(5)));
    }

    #[test]
    fn params_match_detects_mixed_static_parameters() {
        let a = Op::BoundedAdd { n: 1, bound: 10 };
        let b = Op::BoundedAdd { n: 2, bound: 99 };
        assert!(BoundedAddOp.params_match(&a, &a));
        assert!(!BoundedAddOp.params_match(&a, &b));
        let t = |k| Op::TopKInsert {
            order: crate::OrderKey::from(1),
            core: 0,
            payload: bytes::Bytes::new(),
            k,
        };
        assert!(TopKInsertOp.params_match(&t(4), &t(4)));
        assert!(!TopKInsertOp.params_match(&t(4), &t(8)));
        // Operations without static parameters always match.
        assert!(AddOp.params_match(&Op::Add(1), &Op::Add(2)));
    }

    #[test]
    fn absorbing_identities_merge_to_nothing() {
        let probe = Op::Add(0);
        assert!(AddOp.merge_ops(Value::Int(0), &probe).is_empty());
        assert!(MultOp.merge_ops(Value::Int(1), &probe).is_empty());
        assert!(BitOrOp.merge_ops(Value::Int(0), &probe).is_empty());
        assert!(SetUnionOp.merge_ops(Value::Set(IntSet::new()), &probe).is_empty());
        // BoundedAdd deliberately merges even a zero sum (it still clamps).
        assert_eq!(
            BoundedAddOp.merge_ops(Value::Int(0), &Op::BoundedAdd { n: 0, bound: 5 }).len(),
            1
        );
    }
}
