//! Networked RUBiS: drive the auction application on a `doppel-server` over
//! TCP through registered procedures.
//!
//! The flow demonstrated here is the paper's transaction model made
//! networked — procedures known to the system in advance, invoked by name:
//!
//! 1. connect a [`doppel_service::RemoteClient`] to a server with the
//!    `rubis` procedure pack — the address in `DOPPEL_SERVER_ADDR` if set
//!    (e.g. `doppel-server --procs rubis --rubis-scale small`), otherwise an
//!    in-process [`doppel_service::Server`] on an ephemeral localhost port
//!    (still real TCP) with the dataset preloaded;
//! 2. read an item page (`rubis.view_item` returns the `max_bid` /
//!    `num_bids` aggregates as a typed [`doppel_common::ProcResult`]);
//! 3. pipeline a burst of `rubis.store_bid` invocations with
//!    [`doppel_service::RemoteClient::submit_batch`] — one network round
//!    trip for the whole window. `StoreBid` reads-then-writes contended
//!    auction metadata, which a raw statement list cannot express: this
//!    transaction *requires* the procedure path to run remotely;
//! 4. read the page back and check the aggregates advanced by exactly the
//!    committed bids;
//! 5. invoke an unregistered name and observe the typed `UnknownProc` abort.
//!
//! Run with: `cargo run --release --example rubis_remote`
//! Or against a live server:
//! `DOPPEL_SERVER_ADDR=127.0.0.1:7777 cargo run --release --example rubis_remote`

use doppel_common::Args;
use doppel_rubis::procs::{args as rubis_args, rubis_registry};
use doppel_rubis::{RubisData, RubisScale, TxnStyle};
use doppel_service::{RemoteClient, RemoteOutcome, Server, ServerEngine, ServiceConfig, WireAbort};

const ITEM: u64 = 0;
const BIDS: usize = 40;

fn main() {
    // A server of our own with the rubis pack and preloaded data, unless the
    // environment points at a live one (CI starts
    // `doppel-server --procs rubis --rubis-scale small` separately).
    let external = std::env::var("DOPPEL_SERVER_ADDR").ok();
    let local_server = if external.is_none() {
        // Item 0 is the auction this example hammers; the tuner splits its
        // aggregates if they turn out to contend, as `doppel-server` does.
        let engine = ServerEngine::build("doppel", 2, 5, 256)
            .expect("doppel engine")
            .with_procs(rubis_registry())
            .with_adaptive(true);
        RubisData::new(RubisScale::small()).load(engine.engine.as_ref());
        Some(Server::start(engine, ServiceConfig::default(), "127.0.0.1:0").expect("bind"))
    } else {
        None
    };
    let addr = external
        .clone()
        .unwrap_or_else(|| local_server.as_ref().unwrap().local_addr().to_string());
    println!("connecting to {addr}");
    let mut client = RemoteClient::connect(&*addr).expect("connect to doppel-server");
    client.ping().expect("server answers ping");

    // The item page before bidding: typed aggregates straight off the wire.
    let view = client.call("rubis.view_item", rubis_args::view_item(ITEM)).expect("view_item");
    let result = view.proc_result().expect("view_item returns aggregates").clone();
    let (start_max, start_bids) =
        (result.get_int(0).expect("max_bid"), result.get_int(1).expect("num_bids"));
    println!("item {ITEM}: max_bid={start_max}, num_bids={start_bids}");

    // Bid ids must not collide with earlier runs against a long-lived
    // server; derive a unique base from the wall clock and process id.
    let base = {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos() as u64;
        (1 << 41) | ((nanos ^ ((std::process::id() as u64) << 32)) % (1 << 40))
    };

    // A pipelined burst of bids: every frame is written before the first
    // completion is awaited — one round trip for the whole window.
    let calls: Vec<(&str, Args)> = (0..BIDS)
        .map(|i| {
            let amount = start_max + 1 + i as i64;
            let bidder = (i % 50) as u64;
            (
                "rubis.store_bid",
                rubis_args::store_bid(base + i as u64, bidder, ITEM, amount, i as i64, TxnStyle::Doppel),
            )
        })
        .collect();
    let ids = client.submit_batch(&calls).expect("submit bid batch");
    let mut committed = 0i64;
    let mut deferred_bids = 0u32;
    let mut retries: Vec<usize> = Vec::new();
    for (i, id) in ids.iter().enumerate() {
        match client.wait(*id).expect("bid completion") {
            RemoteOutcome::Committed { deferred, .. } => {
                committed += 1;
                deferred_bids += deferred as u32;
            }
            // Concurrent bids on one hot auction conflict under plain
            // concurrency control — the retryable abort is part of the
            // workload (the paper's harness retries with backoff).
            RemoteOutcome::Aborted { code, .. } if code.is_retryable() => retries.push(i),
            RemoteOutcome::Aborted { code, .. } => panic!("bid aborted: {code:?}"),
            RemoteOutcome::Rejected { .. } => panic!("bid rejected"),
        }
    }
    for i in retries {
        let (name, args) = &calls[i];
        loop {
            match client.call(name, args.clone()).expect("bid retry") {
                RemoteOutcome::Committed { deferred, .. } => {
                    committed += 1;
                    deferred_bids += deferred as u32;
                    break;
                }
                RemoteOutcome::Aborted { code, .. } if code.is_retryable() => continue,
                other => panic!("bid retry failed: {other:?}"),
            }
        }
    }
    if deferred_bids > 0 {
        println!("{deferred_bids} bid(s) were stash-deferred by a split phase and replayed");
    }
    println!("committed {committed} pipelined bids on item {ITEM}");

    // The page after: the aggregates advanced by exactly this run's bids.
    let view = client.call("rubis.view_item", rubis_args::view_item(ITEM)).expect("view_item");
    let result = view.proc_result().expect("aggregates").clone();
    let (end_max, end_bids) =
        (result.get_int(0).expect("max_bid"), result.get_int(1).expect("num_bids"));
    println!("item {ITEM}: max_bid={end_max}, num_bids={end_bids}");
    assert_eq!(
        end_bids - start_bids,
        committed,
        "num_bids must advance by exactly the committed bids"
    );
    assert!(
        end_max >= start_max + committed,
        "max_bid must reflect the highest pipelined bid"
    );

    // The bid history index lists the new bids too.
    let history =
        client.call("rubis.view_bid_history", rubis_args::view_bid_history(ITEM)).expect("history");
    let listed = history.proc_result().expect("history count").get_int(0).expect("count");
    println!("bid history lists {listed} bids");
    assert!(listed > 0, "the bids-per-item index must list the new bids");

    // Unknown procedure names are a typed, non-retryable abort — not a hang,
    // not a dropped connection.
    match client.call("rubis.not_a_procedure", Args::new()).expect("reply arrives") {
        RemoteOutcome::Aborted { code: WireAbort::UnknownProc, .. } => {
            println!("unknown procedure rejected with UnknownProc, as typed");
        }
        other => panic!("expected UnknownProc, got {other:?}"),
    }

    println!("networked RUBiS example finished");
}
