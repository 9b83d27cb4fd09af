//! Registered-procedure equivalence: invoking a RUBiS transaction through
//! the [`doppel_common::ProcRegistry`] (the networked path: typed `Args`
//! through the registry dispatch) must leave the store in exactly the same
//! final state as executing the original closure-style procedure — for every
//! engine and for both transaction styles.
//!
//! Also fuzzes the `Args`/`ProcResult` codec: arbitrary argument vectors
//! must round-trip byte-exactly, and truncated encodings must fail with
//! typed errors.

use doppel_bench::engines::{build_engine, EngineKind, EngineParams};
use doppel_common::{ArgValue, Args, Engine, Key, Outcome, Procedure, Value};
use doppel_rubis::procs::{args as rubis_args, rubis_registry, RubisProcs};
use doppel_rubis::txns::{RegisterUser, StoreBid, StoreBuyNow, StoreComment, StoreItem};
use doppel_rubis::{RubisData, RubisScale, TxnStyle};
use doppel_wal::codec::{decode_args, encode_args, Dec};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------- generators

const USERS: u64 = 20;
const ITEMS: u64 = 6;
const CATEGORIES: u64 = 3;
const REGIONS: u64 = 2;

fn scale() -> RubisScale {
    RubisScale { users: USERS, items: ITEMS, categories: CATEGORIES, regions: REGIONS }
}

/// One RUBiS write transaction, small id spaces so streams collide on the
/// contended auction metadata.
#[derive(Clone, Debug)]
enum RubisOp {
    Bid { item: u64, bidder: u64, amount: i64 },
    Comment { author: u64, about: u64, item: u64, rating: i64 },
    Register { region: u64 },
    NewItem { seller: u64, category: u64, region: u64, price: i64 },
    BuyNow { item: u64, buyer: u64 },
}

fn arb_stream() -> impl Strategy<Value = (Vec<RubisOp>, bool)> {
    let op = (0u8..8, 0u64..USERS, 0u64..USERS, 0u64..ITEMS, 1i64..5_000).prop_map(
        |(kind, a, b, item, n)| match kind {
            // Bids dominate, as in RUBiS-C.
            0..=3 => RubisOp::Bid { item, bidder: a, amount: 100 + n },
            4 => RubisOp::Comment { author: a, about: b, item, rating: n % 6 - 1 },
            5 => RubisOp::Register { region: a % REGIONS },
            6 => RubisOp::NewItem {
                seller: a,
                category: b % CATEGORIES,
                region: a % REGIONS,
                price: 100 + n,
            },
            _ => RubisOp::BuyNow { item, buyer: b },
        },
    );
    (prop::collection::vec(op, 0..60), any::<bool>())
}

/// The closure-style procedure for op `i` of a stream.
fn closure_proc(op: &RubisOp, i: usize, style: TxnStyle) -> Arc<dyn Procedure> {
    let id = (1u64 << 40) | i as u64;
    let clock = i as i64;
    match op.clone() {
        RubisOp::Bid { item, bidder, amount } => {
            Arc::new(StoreBid { bid_id: id, bidder, item, amount, now: clock, style })
        }
        RubisOp::Comment { author, about, item, rating } => Arc::new(StoreComment {
            comment_id: id,
            author,
            about_user: about,
            item,
            rating,
            text: "prop".into(),
            style,
        }),
        RubisOp::Register { region } => Arc::new(RegisterUser {
            user_id: id,
            nickname: format!("prop-{i}"),
            region,
            now: clock,
        }),
        RubisOp::NewItem { seller, category, region, price } => Arc::new(StoreItem {
            item_id: id,
            seller,
            category,
            region,
            name: format!("item-{i}"),
            initial_price: price,
            end_date: clock + 1_000_000,
            style,
        }),
        RubisOp::BuyNow { item, buyer } => {
            Arc::new(StoreBuyNow { buy_now_id: id, item, buyer, quantity: 1, now: clock })
        }
    }
}

/// The registered-procedure invocation for op `i` of the same stream.
fn registered_call(op: &RubisOp, i: usize, style: TxnStyle, procs: &RubisProcs) -> (doppel_common::ProcId, Args) {
    let id = (1u64 << 40) | i as u64;
    let clock = i as i64;
    match op.clone() {
        RubisOp::Bid { item, bidder, amount } => {
            (procs.store_bid, rubis_args::store_bid(id, bidder, item, amount, clock, style))
        }
        RubisOp::Comment { author, about, item, rating } => (
            procs.store_comment,
            rubis_args::store_comment(id, author, about, item, rating, "prop", style),
        ),
        RubisOp::Register { region } => (
            procs.register_user,
            rubis_args::register_user(id, &format!("prop-{i}"), region, clock),
        ),
        RubisOp::NewItem { seller, category, region, price } => (
            procs.store_item,
            rubis_args::store_item(
                id,
                seller,
                category,
                region,
                &format!("item-{i}"),
                price,
                clock + 1_000_000,
                style,
            ),
        ),
        RubisOp::BuyNow { item, buyer } => {
            (procs.store_buy_now, rubis_args::store_buy_now(id, item, buyer, 1, clock))
        }
    }
}

// ----------------------------------------------------------------- execution

/// Executes one procedure to completion on a direct handle (retrying
/// retryable aborts, driving stash replays through safepoints).
fn execute_to_completion(handle: &mut dyn doppel_common::TxHandle, proc: Arc<dyn Procedure>) {
    let mut attempts = 0;
    loop {
        match handle.execute(Arc::clone(&proc)) {
            Outcome::Committed(_) => return,
            Outcome::Aborted(e) if e.is_retryable() && attempts < 1_000 => attempts += 1,
            Outcome::Aborted(e) => panic!("execution aborted: {e}"),
            Outcome::Stashed(_) => {
                let deadline = Instant::now() + Duration::from_secs(10);
                loop {
                    handle.safepoint();
                    let completions = handle.take_completions();
                    if !completions.is_empty() {
                        assert!(completions[0].result.is_ok(), "stash replay aborted");
                        return;
                    }
                    assert!(Instant::now() < deadline, "stash never replayed");
                    std::thread::sleep(Duration::from_micros(100));
                }
            }
        }
    }
}

/// Full-store snapshot for exact comparison.
fn snapshot(engine: &dyn Engine) -> BTreeMap<Key, Value> {
    let mut map = BTreeMap::new();
    engine.for_each_record(&mut |k, v| {
        map.insert(k, v.clone());
    });
    map
}

fn run_closure_path(engine: &dyn Engine, ops: &[RubisOp], style: TxnStyle) -> BTreeMap<Key, Value> {
    RubisData::new(scale()).load(engine);
    let mut handle = engine.handle(0);
    for (i, op) in ops.iter().enumerate() {
        execute_to_completion(handle.as_mut(), closure_proc(op, i, style));
    }
    drop(handle);
    engine.shutdown();
    snapshot(engine)
}

fn run_proc_path(engine: &dyn Engine, ops: &[RubisOp], style: TxnStyle) -> BTreeMap<Key, Value> {
    RubisData::new(scale()).load(engine);
    let registry = rubis_registry();
    let procs = RubisProcs::resolve(&registry);
    let mut handle = engine.handle(0);
    for (i, op) in ops.iter().enumerate() {
        let (proc, args) = registered_call(op, i, style, &procs);
        execute_to_completion(handle.as_mut(), registry.call(proc, args));
    }
    drop(handle);
    engine.shutdown();
    // Every execution attempt was counted by the registry.
    let invocations: u64 = registry.stats().iter().map(|s| s.invocations).sum();
    assert!(invocations >= ops.len() as u64, "registry missed invocations");
    snapshot(engine)
}

proptest! {
    /// The same RUBiS stream through the registered-procedure path and the
    /// closure path yields identical final stores on all four engines, in
    /// both transaction styles.
    #[test]
    fn proc_path_equals_closure_path_on_all_engines((ops, doppel_style) in arb_stream()) {
        let style = if doppel_style { TxnStyle::Doppel } else { TxnStyle::Classic };
        let params = EngineParams { workers: 1, shards: 64, ..EngineParams::default() };
        for kind in EngineKind::ALL {
            let closure_engine = build_engine(*kind, &params);
            let via_closures = run_closure_path(closure_engine.as_ref(), &ops, style);

            let proc_engine = build_engine(*kind, &params);
            let via_procs = run_proc_path(proc_engine.as_ref(), &ops, style);

            prop_assert_eq!(
                &via_procs, &via_closures,
                "{} [{:?}]: registered-procedure path diverged from closure path",
                kind.label(), style
            );
        }
    }
}

// -------------------------------------------------------------- codec fuzzing

fn arb_arg() -> impl Strategy<Value = ArgValue> {
    (0u8..6, any::<i64>(), 0u64..1u64 << 40, 0usize..24).prop_map(|(kind, n, id, len)| match kind {
        0 => ArgValue::Int(n),
        1 => ArgValue::Key(Key::raw(id)),
        2 => ArgValue::Value(Value::Int(n)),
        3 => ArgValue::Value(Value::Set((0..len as i64).map(|e| e.wrapping_add(n)).collect())),
        4 => ArgValue::Bytes(n.to_le_bytes().repeat(len.max(1) % 8 + 1).into()),
        _ => ArgValue::Str(format!("s{n:x}-{id}")),
    })
}

proptest! {
    /// The borrowed `InvokeProc` codec the client and the serving loops use
    /// is byte-identical to the owned-message codec, in both directions.
    #[test]
    fn borrowed_invoke_codec_equals_the_owned_one(
        (id, name_ix, vals) in (any::<u64>(), 0usize..4, prop::collection::vec(arb_arg(), 0..16))
    ) {
        use doppel_service::wire::{decode_client, decode_invoke, encode_client_into, encode_invoke_into};
        let name = ["kv.add", "rubis.store_bid", "", "näme with spaces"][name_ix];
        let args = Args::from_vec(vals);
        let owned = doppel_service::ClientMsg::InvokeProc { id, proc: name.to_string(), args: args.clone() };
        let (mut via_owned, mut via_borrowed) = (vec![1u8], vec![2u8, 3]);
        encode_client_into(&owned, &mut via_owned);
        encode_invoke_into(id, name, &args, &mut via_borrowed);
        prop_assert_eq!(&via_borrowed, &via_owned);
        prop_assert_eq!(decode_invoke(&via_owned).expect("decodes"), Some((id, name, args.as_ref())));
        prop_assert_eq!(decode_client(&via_borrowed).expect("decodes"), owned);
        // Every strict prefix is an error (or, when empty, "not an invoke").
        for cut in 0..via_owned.len() {
            prop_assert!(!matches!(decode_invoke(&via_owned[..cut]), Ok(Some(_))));
        }
    }

    /// Arbitrary argument vectors round-trip byte-exactly through the wire
    /// codec.
    #[test]
    fn args_codec_roundtrips(vals in prop::collection::vec(arb_arg(), 0..16)) {
        let args = Args::from_vec(vals);
        let mut buf = Vec::new();
        encode_args(&mut buf, &args);
        let mut d = Dec::new(&buf);
        let back = decode_args(&mut d).expect("well-formed encoding decodes");
        prop_assert!(d.is_done(), "decode must consume the whole encoding");
        prop_assert_eq!(back, args);
    }

    /// Every strict prefix of an encoding fails with a typed error — never a
    /// panic, never a silent partial decode.
    #[test]
    fn truncated_args_encodings_error(vals in prop::collection::vec(arb_arg(), 1..8)) {
        let args = Args::from_vec(vals);
        let mut buf = Vec::new();
        encode_args(&mut buf, &args);
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            if let Ok(decoded) = decode_args(&mut d) {
                // A prefix may decode only if the cursor consumed everything
                // and the result is a strict prefix situation impossible
                // here: the element count is fixed up front, so any cut
                // drops bytes some element needs.
                prop_assert!(false, "prefix of length {} decoded as {:?}", cut, decoded);
            }
        }
    }
}
