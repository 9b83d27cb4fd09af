//! Per-core slices for split records (§4).
//!
//! During a split phase, all operations on a split record are applied to the
//! executing core's *slice* of that record instead of the global store. The
//! design requirements from §4 are encoded here:
//!
//! * slices are quick to initialize (no read of the global value is needed:
//!   every slice starts as the *identity* of its operation and the merge
//!   combines it with the global value, which is equivalent to initializing
//!   the slice from the global value and overwriting at merge);
//! * operations on slices are fast (a single in-place update);
//! * the size of a slice is independent of the number of operations applied
//!   to it (guideline 4), so merging costs O(cores), not O(operations).
//!
//! A [`Slice`] is no longer an enum with one arm per operation: it is a
//! generic accumulator driven by the operation's
//! [`doppel_common::SplitOp`] implementation from the
//! [`doppel_common::split_ops`] registry. The fold logic ("slice-apply" in
//! Figure 3) and the merge logic ("merge-apply" in Figure 4 / the merge
//! functions of Figure 5) both live on the trait, so registering a new
//! splittable operation automatically gives it a working slice.

use doppel_common::{split_ops, Op, OpKind, SplitOp, TxError, Value};

/// A per-core slice of one split record, specialised to the record's selected
/// operation for the current split phase.
#[derive(Clone, Debug)]
pub struct Slice {
    /// The selected operation's semantics, resolved from the registry once at
    /// slice creation.
    op: &'static dyn SplitOp,
    /// The folded accumulator; `None` until the first operation arrives
    /// (the operation's identity).
    state: Option<Value>,
    /// A copy of the first folded operation: carries static parameters the
    /// merge needs (top-K capacity, `BoundedAdd` bound).
    first: Option<Op>,
    /// Number of operations folded into this slice.
    count: u64,
}

impl Slice {
    /// Creates the identity slice for the selected operation kind.
    ///
    /// # Panics
    ///
    /// Panics if `kind` has no registered [`SplitOp`] — the classifier never
    /// selects such operations (§4 guideline 1).
    pub fn new(kind: OpKind) -> Slice {
        let op = split_ops()
            .get(kind)
            .unwrap_or_else(|| panic!("operation {kind} is not splittable"));
        Slice { op, state: None, first: None, count: 0 }
    }

    /// The operation kind this slice accepts.
    pub fn kind(&self) -> OpKind {
        self.op.kind()
    }

    /// Number of operations folded into this slice.
    pub fn op_count(&self) -> u64 {
        self.count
    }

    /// The current accumulator state (`None` before the first fold). Exposed
    /// for tests and diagnostics.
    pub fn state(&self) -> Option<&Value> {
        self.state.as_ref()
    }

    /// Applies one operation to the slice ("slice-apply" in Figure 3).
    ///
    /// Returns an error if the operation kind does not match the slice; the
    /// caller (the split-phase commit path) only applies operations that
    /// matched the record's selected kind, so a mismatch indicates a logic
    /// error upstream.
    pub fn apply(&mut self, op: &Op) -> Result<(), TxError> {
        if op.kind() != self.op.kind() {
            return Err(TxError::type_mismatch(op.kind(), self.op.value_kind()));
        }
        debug_assert!(
            self.first.as_ref().is_none_or(|first| self.op.params_match(first, op)),
            "{op} disagrees with this slice's first operation on a static per-record \
             parameter (e.g. BoundedAdd bound, TopKInsert capacity)"
        );
        // `fold` mutates in place and leaves the state untouched on error, so
        // a rejected operation cannot discard previously folded updates.
        self.op.fold(&mut self.state, op)?;
        if self.first.is_none() {
            self.first = Some(op.clone());
        }
        self.count += 1;
        Ok(())
    }

    /// Empties the slice back to its identity, appending to `out` the
    /// operations to apply to the global record at reconciliation
    /// ("merge-apply" in Figure 4 / the merge functions of Figure 5). Appends
    /// nothing if the accumulator is still (or has returned to) the
    /// operation's absorbing identity — merging it would be a no-op.
    pub fn drain_merge_ops(&mut self, out: &mut Vec<Op>) {
        self.count = 0;
        if let (Some(state), Some(first)) = (self.state.take(), self.first.take()) {
            self.op.merge_into(state, &first, out);
        }
    }

    /// [`Slice::drain_merge_ops`] into a fresh vector, consuming the slice.
    pub fn into_merge_ops(mut self) -> Vec<Op> {
        let mut out = Vec::new();
        self.drain_merge_ops(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{IntSet, OrderKey, Value};

    #[test]
    fn identity_slices() {
        for kind in [
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
            let s = Slice::new(kind);
            assert_eq!(s.kind(), kind);
            assert_eq!(s.op_count(), 0);
            assert!(s.state().is_none());
            assert!(s.into_merge_ops().is_empty(), "empty {kind} slice merges to nothing");
        }
    }

    #[test]
    #[should_panic(expected = "not splittable")]
    fn identity_of_put_panics() {
        let _ = Slice::new(OpKind::Put);
    }

    #[test]
    fn max_slice_accumulates() {
        let mut s = Slice::new(OpKind::Max);
        assert!(s.clone().into_merge_ops().is_empty(), "empty slice merges to nothing");
        s.apply(&Op::Max(5)).unwrap();
        s.apply(&Op::Max(3)).unwrap();
        s.apply(&Op::Max(9)).unwrap();
        assert_eq!(s.op_count(), 3);
        assert_eq!(s.into_merge_ops(), vec![Op::Max(9)]);
    }

    #[test]
    fn min_slice_accumulates() {
        let mut s = Slice::new(OpKind::Min);
        s.apply(&Op::Min(5)).unwrap();
        s.apply(&Op::Min(12)).unwrap();
        s.apply(&Op::Min(-2)).unwrap();
        assert_eq!(s.into_merge_ops(), vec![Op::Min(-2)]);
    }

    #[test]
    fn add_slice_sums_deltas() {
        let mut s = Slice::new(OpKind::Add);
        for _ in 0..100 {
            s.apply(&Op::Add(2)).unwrap();
        }
        s.apply(&Op::Add(-50)).unwrap();
        // Draining hands the sum over and leaves the identity slice behind.
        let mut ops = vec![Op::Max(1)];
        s.drain_merge_ops(&mut ops);
        assert_eq!(ops, vec![Op::Max(1), Op::Add(150)]);
        assert_eq!(s.op_count(), 0);
        assert!(s.into_merge_ops().is_empty());
        // A zero-sum slice merges to nothing.
        let mut z = Slice::new(OpKind::Add);
        z.apply(&Op::Add(4)).unwrap();
        z.apply(&Op::Add(-4)).unwrap();
        assert!(z.into_merge_ops().is_empty());
    }

    #[test]
    fn mult_slice_multiplies_factors() {
        let mut s = Slice::new(OpKind::Mult);
        s.apply(&Op::Mult(2)).unwrap();
        s.apply(&Op::Mult(3)).unwrap();
        assert_eq!(s.into_merge_ops(), vec![Op::Mult(6)]);
        assert!(Slice::new(OpKind::Mult).into_merge_ops().is_empty());
    }

    #[test]
    fn oput_slice_keeps_winning_tuple() {
        let mut s = Slice::new(OpKind::OPut);
        s.apply(&Op::OPut { order: OrderKey::from(5), core: 1, payload: "a".into() }).unwrap();
        s.apply(&Op::OPut { order: OrderKey::from(3), core: 2, payload: "b".into() }).unwrap();
        s.apply(&Op::OPut { order: OrderKey::from(5), core: 3, payload: "c".into() }).unwrap();
        match s.into_merge_ops().as_slice() {
            [Op::OPut { order, core, payload }] => {
                assert_eq!(*order, OrderKey::from(5));
                assert_eq!(*core, 3);
                assert_eq!(*payload, bytes::Bytes::from("c"));
            }
            other => panic!("unexpected merge ops {other:?}"),
        }
    }

    #[test]
    fn topk_slice_bounds_size() {
        let mut s = Slice::new(OpKind::TopKInsert);
        for i in 0..50 {
            s.apply(&Op::TopKInsert {
                order: OrderKey::from(i),
                core: 0,
                payload: "x".into(),
                k: 3,
            })
            .unwrap();
        }
        // Guideline 4: slice size stays bounded by K regardless of op count.
        let ops = s.into_merge_ops();
        assert_eq!(ops.len(), 3);
        let orders: Vec<i64> = ops
            .iter()
            .map(|op| match op {
                Op::TopKInsert { order, .. } => order.primary(),
                other => panic!("unexpected merge op {other:?}"),
            })
            .collect();
        assert!(orders.contains(&49));
        assert!(orders.contains(&48));
        assert!(orders.contains(&47));
    }

    #[test]
    fn bitor_slice_ors_flags() {
        let mut s = Slice::new(OpKind::BitOr);
        s.apply(&Op::BitOr(0b0001)).unwrap();
        s.apply(&Op::BitOr(0b0100)).unwrap();
        s.apply(&Op::BitOr(0b0001)).unwrap();
        assert_eq!(s.into_merge_ops(), vec![Op::BitOr(0b0101)]);
        // An all-zero slice merges to nothing.
        let mut z = Slice::new(OpKind::BitOr);
        z.apply(&Op::BitOr(0)).unwrap();
        assert!(z.into_merge_ops().is_empty());
    }

    #[test]
    fn bounded_add_slice_defers_clamping_to_merge() {
        let mut s = Slice::new(OpKind::BoundedAdd);
        for _ in 0..5 {
            s.apply(&Op::BoundedAdd { n: 4, bound: 10 }).unwrap();
        }
        // The accumulator is the raw sum (20), above the bound.
        assert_eq!(s.state(), Some(&Value::Int(20)));
        let ops = s.into_merge_ops();
        assert_eq!(ops, vec![Op::BoundedAdd { n: 20, bound: 10 }]);
        // Merging clamps exactly once.
        assert_eq!(ops[0].apply_to(Some(&Value::Int(3))).unwrap(), Value::Int(10));
    }

    #[test]
    fn set_union_slice_accumulates_distinct_elements() {
        let mut s = Slice::new(OpKind::SetUnion);
        for e in [3, 9, 3, 7, 9] {
            s.apply(&Op::SetUnion(IntSet::singleton(e))).unwrap();
        }
        match s.into_merge_ops().as_slice() {
            [Op::SetUnion(set)] => {
                assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 7, 9]);
            }
            other => panic!("unexpected merge ops {other:?}"),
        }
    }

    #[test]
    fn mismatched_op_is_rejected() {
        let mut s = Slice::new(OpKind::Add);
        let err = s.apply(&Op::Max(3)).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
        assert_eq!(s.op_count(), 0, "a rejected op must not count as folded");
    }

    /// The core commutativity property (§4): applying a set of operations to
    /// per-core slices and merging gives the same result as applying them to
    /// the global value directly, for any assignment of operations to cores.
    #[test]
    fn slice_then_merge_equals_direct_application() {
        let ops: Vec<Op> = vec![Op::Add(5), Op::Add(-2), Op::Add(11), Op::Add(7), Op::Add(-9)];
        let direct = ops
            .iter()
            .fold(Value::Int(100), |acc, op| op.apply_to(Some(&acc)).unwrap());

        // Distribute across 3 "cores" in an arbitrary pattern.
        let mut slices = vec![Slice::new(OpKind::Add); 3];
        for (i, op) in ops.iter().enumerate() {
            slices[i % 3].apply(op).unwrap();
        }
        let mut merged = Value::Int(100);
        for s in slices {
            for op in s.into_merge_ops() {
                merged = op.apply_to(Some(&merged)).unwrap();
            }
        }
        assert_eq!(merged, direct);
    }
}
