//! Model-based tests of the record/version-word protocol the OCC and
//! reconciliation paths rely on. The concurrent side is in
//! `invisible_reads.rs`.

use doppel_common::{Key, Op, Tid, TidGenerator, Value};
use doppel_store::Store;
use proptest::prelude::*;

proptest! {
    /// Model check: a sequence of lock/apply/publish operations through the
    /// record equals folding the same operations over a plain value.
    #[test]
    fn record_apply_matches_model(args in prop::collection::vec((-100i64..100, 0u8..4), 1..40)) {
        let store = Store::new(1);
        store.load(Key::raw(0), Value::Int(0));
        let mut session = store.register();
        let record = store.get(&session, &Key::raw(0)).unwrap();
        let mut gen = TidGenerator::new(0);
        let mut model = Value::Int(0);
        for (n, kind) in args {
            let op = match kind {
                0 => Op::Add(n),
                1 => Op::Max(n),
                2 => Op::Min(n),
                _ => Op::Put(Value::Int(n)),
            };
            model = op.apply_to(Some(&model)).unwrap();
            let mut locked = record.lock_spin();
            locked.apply(&op, &mut session).unwrap();
            locked.publish(gen.next());
        }
        prop_assert_eq!(record.read(&session, |v| v.cloned()).unwrap().1, Some(model));
        prop_assert!(!record.is_locked());
    }

    /// Validation accepts exactly the TID that was last published.
    #[test]
    fn validation_tracks_published_tid(seqs in prop::collection::vec(1u64..1_000, 1..20)) {
        let store = Store::new(1);
        let mut session = store.register();
        let record = store.get_or_create(&session, Key::raw(0));
        let mut last = Tid::ZERO;
        for (i, seq) in seqs.iter().enumerate() {
            let mut locked = record.lock_spin();
            let tid = Tid::from_parts(*seq + i as u64 * 1_000, 1);
            locked.apply(&Op::Add(1), &mut session).unwrap();
            locked.publish(tid);
            prop_assert!(record.validate(tid, false));
            if last != Tid::ZERO {
                prop_assert!(!record.validate(last, false), "stale TID must not validate");
            }
            last = tid;
        }
    }
}
