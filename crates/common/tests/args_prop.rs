//! Property tests of the argument-vector codec (`doppel_common::proc`): every
//! element kind round trips, owned and borrowed accessors agree, and no byte
//! string — random, truncated, re-tagged, with a lying count or length or
//! invalid UTF-8 — makes validation do anything but return `Err`, without a
//! panic and without an allocation. The `OrderKey` half pins that a key
//! behaves the same whether it is held inline or on the heap.

use doppel_common::codec::{
    decode_value, encode_key, encode_value, put_slice, put_u32, put_u8, Dec,
};
use doppel_common::proc::{INDEXED_ARGS, INLINE_ARG_BYTES};
use doppel_common::{
    ArgValue, Args, ArgsRef, CountingAlloc, EmptyOrderKey, Key, OrderKey, OrderedTuple, Table,
    ThreadAllocCheckpoint, TopKSet, TxError, Value,
};
use proptest::prelude::*;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![Just(0), Just(-1), Just(i64::MIN), Just(i64::MAX), any::<i64>()]
}

fn key() -> impl Strategy<Value = Key> {
    (0usize..Table::ALL.len(), any::<u64>(), any::<u32>())
        .prop_map(|(t, id, sub)| Key::new(Table::ALL[t], id, sub))
}

/// Empty, short and 64 KiB.
fn blob() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(any::<u8>(), 0..40),
        Just(vec![0xA5; 64 * 1024]),
    ]
}

/// Empty, ASCII, any scalar values (mostly non-ASCII), and 64 KiB.
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        prop::collection::vec(0x20u8..0x7f, 0..40).prop_map(|b| String::from_utf8(b).unwrap()),
        prop::collection::vec(any::<u32>(), 0..40)
            .prop_map(|cs| cs.into_iter().filter_map(|c| char::from_u32(c % 0x11_0000)).collect()),
        Just("ü".repeat(32 * 1024)),
    ]
}

/// One, two (inline) and up to five (heap) components.
fn order() -> impl Strategy<Value = OrderKey> {
    prop::collection::vec(int(), 1..6).prop_map(|c| OrderKey::new(c).unwrap())
}

fn tuple() -> impl Strategy<Value = OrderedTuple> {
    (order(), 0usize..64, prop::collection::vec(any::<u8>(), 0..24))
        .prop_map(|(order, core, payload)| OrderedTuple::new(order, core, payload))
}

fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        int().prop_map(Value::Int),
        blob().prop_map(Value::from),
        tuple().prop_map(Value::Tuple),
        (1usize..8, prop::collection::vec(tuple(), 0..8)).prop_map(|(k, tuples)| {
            let mut set = TopKSet::new(k);
            for t in tuples {
                set.insert_tuple(t);
            }
            Value::TopK(set)
        }),
        prop::collection::vec(int(), 0..12).prop_map(|e| Value::Set(e.into_iter().collect())),
    ]
}

fn element() -> impl Strategy<Value = ArgValue> {
    prop_oneof![
        int().prop_map(ArgValue::Int),
        key().prop_map(ArgValue::Key),
        value().prop_map(ArgValue::Value),
        blob().prop_map(|b| ArgValue::Bytes(b.into())),
        text().prop_map(ArgValue::Str),
    ]
}

/// Vectors of 0, 1, a few and 64 elements.
fn elements() -> impl Strategy<Value = Vec<ArgValue>> {
    prop_oneof![
        Just(Vec::new()),
        prop::collection::vec(element(), 1),
        prop::collection::vec(element(), 2..12),
        prop::collection::vec(element(), 64),
    ]
}

fn encoded(args: &Args) -> Vec<u8> {
    let mut buf = Vec::new();
    args.encode(&mut buf);
    buf
}

fn decode(bytes: &[u8]) -> Result<(ArgsRef<'_>, bool), doppel_common::codec::CodecError> {
    let mut d = Dec::new(bytes);
    let view = ArgsRef::decode(&mut d)?;
    Ok((view, d.is_done()))
}

/// Every accessor at every index up to one past the end: none panics, each
/// is `Ok` exactly for its own kind, and owned and borrowed agree.
fn check_accessors(args: &Args, view: ArgsRef<'_>, vals: &[ArgValue]) {
    assert_eq!((args.len(), view.len(), args.is_empty()), (vals.len(), vals.len(), vals.is_empty()));
    // The footprint: the keys among the indexed elements, in order.
    let indexed = vals.iter().take(INDEXED_ARGS);
    let keys: Vec<Key> = indexed.filter_map(|v| if let ArgValue::Key(k) = v { Some(*k) } else { None }).collect();
    assert_eq!(view.keys().collect::<Vec<_>>(), keys);
    for i in 0..=vals.len() {
        let want = vals.get(i);
        assert_eq!(view.get(i).as_ref(), want);
        assert_eq!(args.get(i).as_ref(), want);
        let abort = |r: Result<(), TxError>| match r {
            Err(TxError::UserAbort { .. }) => false,
            Ok(()) => true,
            Err(other) => panic!("accessor failed with {other:?}, not a typed user abort"),
        };
        let is = |kind: &str| want.is_some_and(|v| v.kind_name() == kind);
        assert_eq!(view.get_int(i), args.get_int(i));
        assert_eq!(abort(view.get_int(i).map(drop)), is("int"));
        assert_eq!(view.get_u64(i), args.get_u64(i));
        assert_eq!(view.get_key(i), args.get_key(i));
        assert_eq!(abort(view.get_key(i).map(drop)), is("key"));
        assert_eq!(view.get_value(i), args.get_value(i));
        assert_eq!(abort(view.get_value(i).map(drop)), is("value"));
        assert_eq!(view.get_bytes(i), args.get_bytes(i));
        assert_eq!(abort(view.get_bytes(i).map(drop)), is("bytes"));
        assert_eq!(view.get_str(i), args.get_str(i));
        assert_eq!(abort(view.get_str(i).map(drop)), is("str"));
        match want {
            Some(ArgValue::Int(n)) => {
                assert_eq!(view.get_int(i), Ok(*n));
                assert_eq!(view.get_u64(i).ok(), u64::try_from(*n).ok());
            }
            Some(ArgValue::Key(k)) => assert_eq!(view.get_key(i), Ok(*k)),
            Some(ArgValue::Value(v)) => assert_eq!(view.get_value(i).as_ref(), Ok(v)),
            Some(ArgValue::Bytes(b)) => assert_eq!(view.get_bytes(i), Ok(b.as_ref())),
            Some(ArgValue::Str(s)) => assert_eq!(view.get_str(i), Ok(s.as_str())),
            None => {}
        }
    }
}

proptest! {
    /// Build → encode → validate → read back, element-wise and through every
    /// typed accessor, owned and borrowed.
    #[test]
    fn vectors_round_trip_and_accessors_agree(vals in elements()) {
        let args = Args::from_vec(vals.clone());
        let bytes = encoded(&args);
        let (view, done) = decode(&bytes).expect("a built vector validates");
        prop_assert!(done, "decoding consumes exactly the encoding");
        prop_assert_eq!(view, args.as_ref());
        prop_assert_eq!(&view.to_owned(), &args);
        prop_assert_eq!(encoded(&view.to_owned()), bytes.clone());
        let mut again = Vec::new();
        view.encode(&mut again);
        prop_assert_eq!(again, bytes);
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), vals.clone());
        prop_assert_eq!(args.iter().collect::<Vec<_>>(), vals.clone());
        check_accessors(&args, view, &vals);
    }

    /// Every strict prefix of a valid encoding is an error.
    #[test]
    fn every_truncation_is_an_error(vals in prop::collection::vec(element(), 1..10)) {
        let bytes = encoded(&Args::from_vec(vals));
        // 64 KiB elements make the full sweep quadratic; sample long ones.
        let step = (bytes.len() / 2048).max(1);
        for cut in (0..bytes.len()).step_by(step).chain(bytes.len().saturating_sub(64)..bytes.len()) {
            prop_assert!(decode(&bytes[..cut]).is_err(), "prefix of {} of {}", cut, bytes.len());
        }
    }

    /// Arbitrary bytes validate or they do not; what validates can be read
    /// without a panic, and neither outcome allocates.
    #[test]
    fn arbitrary_bytes_never_panic_or_allocate(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        count in 0u32..6,
        tag in 0u8..6,
    ) {
        // Raw noise almost never gets past the count; lead some cases with a
        // small count and a plausible tag so the element walk sees noise too.
        let mut seeded = Vec::new();
        put_u32(&mut seeded, count);
        put_u8(&mut seeded, tag);
        seeded.extend_from_slice(&bytes);
        for input in [&bytes, &seeded] {
            let before = ThreadAllocCheckpoint::now();
            let parsed = decode(input);
            prop_assert_eq!(before.delta().0, 0, "validation allocated");
            if let Ok((view, _)) = parsed {
                let vals: Vec<ArgValue> = view.iter().collect();
                prop_assert_eq!(vals.len(), view.len());
                check_accessors(&view.to_owned(), view, &vals);
            }
        }
    }

    /// One byte of a valid encoding changed: still `Err` or a readable
    /// vector, never a panic.
    #[test]
    fn a_flipped_byte_never_panics(
        vals in prop::collection::vec(element(), 1..6),
        at in any::<usize>(),
        to in any::<u8>(),
    ) {
        let mut bytes = encoded(&Args::from_vec(vals));
        let at = at % bytes.len().min(4096);
        bytes[at] = to;
        if let Ok((view, _)) = decode(&bytes) {
            let vals: Vec<ArgValue> = view.iter().collect();
            check_accessors(&view.to_owned(), view, &vals);
        }
    }

    /// An order key is its component sequence, inline (1 or 2 components) or
    /// on the heap (more): same ordering, equality, hash, text, serde form and
    /// codec bytes as the sequence itself.
    #[test]
    fn order_keys_behave_like_their_components(
        a in prop::collection::vec(-3i64..3, 1..6),
        b in prop::collection::vec(-3i64..3, 1..6),
    ) {
        let (ka, kb) = (OrderKey::new(a.clone()).unwrap(), OrderKey::new(b.clone()).unwrap());
        prop_assert_eq!(ka.components(), &a[..]);
        prop_assert_eq!(ka.primary(), a[0]);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka == kb, a == b);
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut s = DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        prop_assert_eq!(hash(&|s| ka.hash(s)), hash(&|s| a.hash(s)));
        prop_assert_eq!(format!("{ka}"), format!("{a:?}"));
        prop_assert_eq!(format!("{ka:?}"), format!("OrderKey({a:?})"));
        prop_assert_eq!(serde_json::to_string(&ka).unwrap(), serde_json::to_string(&a).unwrap());
        let back: OrderKey = serde_json::from_str(&serde_json::to_string(&ka).unwrap()).unwrap();
        prop_assert_eq!(&back, &ka);
        prop_assert_eq!(&ka.clone(), &ka);
        let v = Value::Tuple(OrderedTuple::new(ka, 3, b"p".as_ref()));
        let mut buf = Vec::new();
        encode_value(&mut buf, &v);
        prop_assert_eq!(decode_value(&mut Dec::new(&buf)).unwrap(), v);
    }
}

#[test]
fn order_key_shapes() {
    assert_eq!(OrderKey::new(vec![]), Err(EmptyOrderKey));
    assert!(serde_json::from_str::<OrderKey>("[]").is_err());
    assert_eq!(OrderKey::new([7]).unwrap(), OrderKey::from(7));
    assert_eq!(OrderKey::new([7, 8]).unwrap(), OrderKey::pair(7, 8));
    assert!(OrderKey::pair(7, 8) < OrderKey::new([7, 8, i64::MIN]).unwrap(), "a prefix sorts first");
    assert!(OrderKey::from(7) < OrderKey::pair(7, i64::MIN));
    // One and two components never touch the heap; five do.
    let before = ThreadAllocCheckpoint::now();
    let (one, two) = (OrderKey::from(1), OrderKey::pair(1, 2));
    let copies = (one.clone(), two.clone(), OrderKey::new([3, 4]).unwrap());
    assert_eq!(before.delta().0, 0, "inline order keys allocated");
    let five = OrderKey::new([1, 2, 3, 4, 5]).unwrap();
    assert!(before.delta().0 > 0);
    assert_eq!(five.components(), &[1, 2, 3, 4, 5]);
    drop(copies);
}

#[test]
fn the_inline_limit_is_where_the_heap_starts() {
    // `n` element bytes: one blob of n - 5 payload bytes.
    let blob = |n: usize| Args::new().bytes(vec![7u8; n - 5]);
    let payload = [7u8; INLINE_ARG_BYTES];
    let before = ThreadAllocCheckpoint::now();
    for n in [INLINE_ARG_BYTES - 1, INLINE_ARG_BYTES] {
        let args = Args::new().bytes(&payload[..n - 5]);
        let copy = args.clone();
        assert_eq!(copy.get_bytes(0).unwrap().len(), n - 5);
        assert_eq!(copy.as_ref().to_owned(), args);
    }
    // What the issue names: two ints, a key and an int, one `Value::Int`,
    // and RUBiS's six-int `store_bid`.
    let _ = Args::new().int(1).int(2);
    let _ = Args::new().key(Key::raw(1)).int(2);
    let _ = Args::new().value(Value::Int(9));
    let _ = Args::new().uint(1).uint(2).uint(3).int(4).int(5).int(6);
    assert_eq!(before.delta().0, 0, "a vector within the inline limit allocated");
    let over = Args::new().bytes(&payload[..INLINE_ARG_BYTES + 1 - 5]);
    assert!(before.delta().0 > 0, "one byte past the limit lives on the heap");
    for n in [INLINE_ARG_BYTES - 1, INLINE_ARG_BYTES, INLINE_ARG_BYTES + 1] {
        let args = blob(n);
        let bytes = encoded(&args);
        assert_eq!(bytes.len(), 4 + n);
        let (view, done) = decode(&bytes).unwrap();
        assert!(done);
        assert_eq!(view.to_owned(), args);
    }
    assert_eq!(over, blob(INLINE_ARG_BYTES + 1));
}

#[test]
fn elements_past_the_index_are_reached_by_walking() {
    let vals: Vec<ArgValue> = (0..INDEXED_ARGS as i64 + 4)
        .map(|i| if i % 3 == 0 { ArgValue::Str(format!("s{i}")) } else { ArgValue::Int(i) })
        .collect();
    let args = Args::from_vec(vals.clone());
    check_accessors(&args, args.as_ref(), &vals);
}

#[test]
fn hostile_shapes_are_errors_not_panics_or_allocations() {
    let valid = encoded(&Args::new().int(1).str("ab").bytes(b"xy"));
    let mut cases: Vec<(&str, Vec<u8>)> = Vec::new();
    // A count the bytes cannot hold (with and without bytes behind it).
    cases.push(("count u32::MAX, no bytes", u32::MAX.to_le_bytes().to_vec()));
    let mut big = valid.clone();
    big[..4].copy_from_slice(&(1u32 << 30).to_le_bytes());
    cases.push(("count 2^30 over three elements", big));
    let mut one_more = valid.clone();
    one_more[..4].copy_from_slice(&4u32.to_le_bytes());
    cases.push(("count one more than present", one_more));
    // An unknown tag.
    let mut tag = valid.clone();
    tag[4] = 5;
    cases.push(("unknown element tag", tag));
    // A length pointing past the end (str and blob).
    let mut len = Vec::new();
    put_u32(&mut len, 1);
    put_u8(&mut len, 4);
    put_u32(&mut len, u32::MAX);
    len.extend_from_slice(b"ab");
    cases.push(("string length past the end", len.clone()));
    len[4] = 3;
    cases.push(("blob length past the end", len));
    // Invalid UTF-8.
    let mut utf8 = Vec::new();
    put_u32(&mut utf8, 1);
    put_u8(&mut utf8, 4);
    put_slice(&mut utf8, &[0xFF, 0xFE]);
    cases.push(("invalid utf-8", utf8));
    // A key whose table tag is unknown.
    let mut key = Vec::new();
    put_u32(&mut key, 1);
    put_u8(&mut key, 1);
    encode_key(&mut key, Key::raw(1));
    key[5] = 0xEE;
    cases.push(("unknown table tag", key));
    // Nested values: unknown tag, a set and a top-K claiming u32::MAX
    // members, a tuple with no order components.
    for (what, body) in [
        ("unknown value tag", vec![9u8]),
        ("set of u32::MAX", vec![4, 0xFF, 0xFF, 0xFF, 0xFF, 1]),
        ("top-k of u32::MAX", [&[3u8][..], &4u64.to_le_bytes(), &u32::MAX.to_le_bytes()].concat()),
        ("tuple without an order", vec![2, 0, 0, 0, 0]),
    ] {
        let mut v = Vec::new();
        put_u32(&mut v, 1);
        put_u8(&mut v, 2);
        v.extend_from_slice(&body);
        cases.push((what, v));
    }

    let before = ThreadAllocCheckpoint::now();
    let errs = cases.iter().filter(|(_, bytes)| decode(bytes).is_err()).count();
    assert_eq!(before.delta().0, 0, "rejecting hostile input allocated");
    for (what, bytes) in &cases {
        assert!(decode(bytes).is_err(), "{what} must not validate");
    }
    assert_eq!(errs, cases.len());
    assert!(decode(&valid).is_ok());
}

#[test]
fn the_encoding_is_the_parents() {
    // Produced by the parent commit's `wal::codec::encode_args` (a
    // `Vec<ArgValue>` walked element by element) for this vector. The wire,
    // `loadgen.input_hash` and any logged call depend on these bytes.
    let args = Args::new()
        .int(-5)
        .uint(9)
        .key(Key::new(Table::RubisMaxBid, 0x0102_0304_0506_0708, 3))
        .value(Value::Tuple(OrderedTuple::new(OrderKey::pair(700, 2), 1, b"pay".as_ref())))
        .bytes(b"blob")
        .str("n\u{e4}me");
    #[rustfmt::skip]
    let golden: &[u8] = &[
        6, 0, 0, 0,
        0, 251, 255, 255, 255, 255, 255, 255, 255,
        0, 9, 0, 0, 0, 0, 0, 0, 0,
        1, 23, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 3, 0, 0, 0,
        2, 2, 2, 0, 0, 0, 188, 2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
              1, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 112, 97, 121,
        3, 4, 0, 0, 0, 98, 108, 111, 98,
        4, 5, 0, 0, 0, 110, 195, 164, 109, 101,
    ];
    assert_eq!(encoded(&args), golden);
    let (view, done) = decode(golden).unwrap();
    assert!(done);
    assert_eq!(view.to_owned(), args);
}
