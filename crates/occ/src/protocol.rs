//! The OCC commit protocol (Figure 2 of the paper).
//!
//! This function is shared: the OCC baseline engine calls it directly, and
//! Doppel calls it for the reconciled (non-split) part of every transaction
//! in both joined and split phases (Figures 2 and 3 differ only in the extra
//! split-write-set application that Doppel performs afterwards).

use crate::rwsets::{ReadSet, WriteSet};
use doppel_common::{CommitSink, LogReceipt, Tid, TidGenerator, TxError};
use doppel_store::Session;

/// Runs the three-part OCC commit protocol over the given read and write
/// sets, returning the commit TID on success.
///
/// * **Part 1** — lock every write-set record in global key order; abort with
///   [`TxError::LockBusy`] if any is already locked.
/// * **TID generation** — produce a TID larger than every TID observed in the
///   read set and every TID this worker generated before.
/// * **Part 2** — validate the read set: each record must still carry the TID
///   observed when it was read and must not be locked by another transaction;
///   abort with [`TxError::Conflict`] otherwise. This reads one word per
///   entry and writes nothing.
/// * **Part 3** — apply the buffered operations (retiring the values they
///   replace on `session`), publish the commit TID and release the locks.
///
/// On abort every lock taken in part 1 is released and the store is left
/// untouched.
pub fn commit(
    read_set: &ReadSet<'_>,
    write_set: &mut WriteSet<'_>,
    tid_gen: &mut TidGenerator,
    session: &mut Session,
) -> Result<Tid, TxError> {
    commit_durable(read_set, write_set, tid_gen, None, session).map(|(tid, _)| tid)
}

/// [`commit`] with write-ahead logging: when `sink` is given, the write set
/// is logged **while the write locks are still held** — after validation and
/// value application, before TID publication — so the log's append order is
/// a valid serialization order (two conflicting transactions cannot log in
/// the opposite order of their TIDs).
pub fn commit_durable(
    read_set: &ReadSet<'_>,
    write_set: &mut WriteSet<'_>,
    tid_gen: &mut TidGenerator,
    sink: Option<&dyn CommitSink>,
    session: &mut Session,
) -> Result<(Tid, LogReceipt), TxError> {
    let result = commit_locked(read_set, write_set, tid_gen, sink, session);
    // An abort leaves its locks in the write set: release them here, once.
    write_set.release();
    result
}

fn commit_locked(
    read_set: &ReadSet<'_>,
    write_set: &mut WriteSet<'_>,
    tid_gen: &mut TidGenerator,
    sink: Option<&dyn CommitSink>,
    session: &mut Session,
) -> Result<(Tid, LogReceipt), TxError> {
    // Part 1: lock the write set in key order to prevent deadlock.
    write_set.sort();
    for entry in write_set.entries_mut() {
        entry.lock = Some(entry.record.try_lock().ok_or(TxError::LockBusy { key: entry.key })?);
    }

    // Generate the commit TID from local state and observed TIDs.
    let written = write_set.entries().iter().map(|e| e.record.tid());
    let commit_tid = tid_gen.next_after(read_set.tids().chain(written));

    // Part 2: validate the read set.
    for read in read_set.entries() {
        if !read.record.validate(read.tid, write_set.contains(read.record)) {
            return Err(TxError::Conflict { key: read.key });
        }
    }

    // Part 3: apply writes, log them, publish the TID, release the locks. A
    // type mismatch surfaces at apply time, before anything is logged:
    // records already applied stay applied (under a version of their own, see
    // `Locked`) — a partial failure the paper's model excludes (procedures
    // are type-checked by construction), but the library must not deadlock
    // on malformed input.
    for entry in write_set.entries_mut() {
        entry.lock.as_mut().expect("locked in part 1").apply(&entry.op, session)?;
    }
    // Log straight out of the write set, with the locks held: log order
    // matches the serialization order of conflicting transactions.
    let receipt = match sink {
        Some(sink) => {
            sink.log_commit(commit_tid, &mut write_set.entries().iter().map(|e| (e.key, &e.op)))
        }
        None => LogReceipt::default(),
    };
    for entry in write_set.entries_mut() {
        entry.lock.take().expect("locked in part 1").publish(commit_tid);
    }
    Ok((commit_tid, receipt))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{Key, Op, Tid, Value};
    use doppel_store::Store;

    fn setup() -> (Store, TidGenerator) {
        let s = Store::new(16);
        for i in 0..10 {
            s.load(Key::raw(i), Value::Int(0));
        }
        (s, TidGenerator::new(1))
    }

    fn tid_of(r: &doppel_store::Record, session: &Session) -> Tid {
        r.read(session, |_| ()).unwrap().0
    }

    #[test]
    fn commit_applies_writes_and_bumps_tids() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        let r = s.get(&session, &Key::raw(1)).unwrap();
        let mut rs = ReadSet::new();
        let mut ws = WriteSet::new();
        rs.record(Key::raw(1), r, tid_of(r, &session));
        ws.buffer(Key::raw(1), r, Op::Put(Value::Int(99)));
        let commit_tid = commit(&rs, &mut ws, &mut gen, &mut session).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(1)), Some(Value::Int(99)));
        assert_eq!(r.tid(), commit_tid);
        assert!(!r.is_locked());
    }

    #[test]
    fn stale_read_aborts() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        let r = s.get(&session, &Key::raw(1)).unwrap();
        let r2 = s.get(&session, &Key::raw(2)).unwrap();
        let tid = tid_of(r, &session);

        // Another transaction commits in between.
        let mut other_gen = TidGenerator::new(2);
        let mut ws2 = WriteSet::new();
        ws2.buffer(Key::raw(1), r, Op::Add(1));
        commit(&ReadSet::new(), &mut ws2, &mut other_gen, &mut session).unwrap();

        let mut rs = ReadSet::new();
        let mut ws = WriteSet::new();
        rs.record(Key::raw(1), r, tid);
        ws.buffer(Key::raw(2), r2, Op::Add(1));
        let err = commit(&rs, &mut ws, &mut gen, &mut session).unwrap_err();
        assert_eq!(err, TxError::Conflict { key: Key::raw(1) });
        // Aborted commit released all locks and left key 2 unchanged.
        assert!(!r2.is_locked());
        assert_eq!(r2.tid(), Tid::ZERO);
        assert_eq!(s.read_unlocked(&Key::raw(2)), Some(Value::Int(0)));
    }

    #[test]
    fn locked_write_target_aborts_and_releases() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        let r1 = s.get(&session, &Key::raw(1)).unwrap();
        let r2 = s.get(&session, &Key::raw(2)).unwrap();
        // Someone else holds key 2's lock.
        let held = r2.try_lock().unwrap();

        let mut ws = WriteSet::new();
        ws.buffer(Key::raw(1), r1, Op::Add(1));
        ws.buffer(Key::raw(2), r2, Op::Add(1));
        let err = commit(&ReadSet::new(), &mut ws, &mut gen, &mut session).unwrap_err();
        assert_eq!(err, TxError::LockBusy { key: Key::raw(2) });
        // Key 1's lock (taken in part 1) was released on abort.
        assert!(!r1.is_locked());
        drop(held);
    }

    #[test]
    fn read_own_write_key_validates() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        let r = s.get(&session, &Key::raw(3)).unwrap();
        let mut rs = ReadSet::new();
        let mut ws = WriteSet::new();
        rs.record(Key::raw(3), r, tid_of(r, &session));
        // The same key is also written: validation must accept our own lock.
        ws.buffer(Key::raw(3), r, Op::Add(7));
        commit(&rs, &mut ws, &mut gen, &mut session).unwrap();
        assert_eq!(s.read_unlocked(&Key::raw(3)), Some(Value::Int(7)));
    }

    #[test]
    fn type_error_at_apply_releases_every_lock() {
        let (s, mut gen) = setup();
        let mut session = s.register();
        s.load(Key::raw(2), Value::from("text"));
        let [r1, r2, r3] = [1, 2, 3].map(|k| s.get(&session, &Key::raw(k)).unwrap());
        let mut ws = WriteSet::new();
        for (k, r) in [(1, r1), (2, r2), (3, r3)] {
            ws.buffer(Key::raw(k), r, Op::Add(1));
        }
        let err = commit(&ReadSet::new(), &mut ws, &mut gen, &mut session).unwrap_err();
        assert!(matches!(err, TxError::TypeMismatch { .. }));
        assert!(![r1, r2, r3].iter().any(|r| r.is_locked()));
        assert_eq!(r3.tid(), Tid::ZERO, "never applied: TID kept");
        assert_eq!(s.read_unlocked(&Key::raw(2)), Some(Value::from("text")));
    }

    #[test]
    fn commit_tid_exceeds_observed_tids() {
        let (s, _) = setup();
        let mut session = s.register();
        let r = s.get(&session, &Key::raw(4)).unwrap();
        // Pre-write the record with a high TID from another core.
        let mut locked = r.lock_spin();
        locked.apply(&Op::Add(1), &mut session).unwrap();
        locked.publish(Tid::from_parts(1000, 3));

        let mut gen = TidGenerator::new(1);
        let mut rs = ReadSet::new();
        let mut ws = WriteSet::new();
        rs.record(Key::raw(4), r, tid_of(r, &session));
        ws.buffer(Key::raw(4), r, Op::Add(1));
        let commit_tid = commit(&rs, &mut ws, &mut gen, &mut session).unwrap();
        assert!(commit_tid.seq() > 1000);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let s = Store::new(16);
        s.load(Key::raw(0), Value::Int(0));
        let (threads, per_thread) = (4, 300);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = &s;
                scope.spawn(move || {
                    let mut session = s.register();
                    let mut gen = TidGenerator::new(t + 1);
                    let r = s.get(&session, &Key::raw(0)).unwrap();
                    let mut done = 0;
                    while done < per_thread {
                        session.quiesce(false);
                        let Ok((tid, cur)) = r.read(&session, |v| v.unwrap().as_int().unwrap())
                        else {
                            continue;
                        };
                        let mut rs = ReadSet::new();
                        let mut ws = WriteSet::new();
                        rs.record(Key::raw(0), r, tid);
                        ws.buffer(Key::raw(0), r, Op::Put(Value::Int(cur + 1)));
                        if commit(&rs, &mut ws, &mut gen, &mut session).is_ok() {
                            done += 1;
                        }
                    }
                });
            }
        });
        assert_eq!(
            s.read_unlocked(&Key::raw(0)),
            Some(Value::Int((threads * per_thread) as i64))
        );
    }
}
