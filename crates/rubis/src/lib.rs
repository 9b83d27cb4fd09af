//! A port of the RUBiS auction benchmark to the Doppel framework (§7, §8.8).
//!
//! "We used RUBiS, an auction website modeled after eBay, to evaluate Doppel
//! on a realistic application. RUBiS users can register items for auction,
//! place bids, make comments, and browse listings. RUBiS has 7 tables (users,
//! items, categories, regions, bids, buy now, and comments) and 26
//! interactions based on 17 database transactions."
//!
//! The implementation follows the paper's port:
//!
//! * the materialized aggregates `maxBid`, `maxBidder` and `numBids` per item
//!   and `userRating` per user are separate records;
//! * `StoreBid`, `StoreComment` and `StoreItem` exist in two forms: the
//!   *classic* read-modify-write form (Figure 6) and the *Doppel* form
//!   (Figure 7) that uses the commutative `Max`, `Add`, `OPut` and
//!   `TopKInsert` operations so the transactions can run in split phases;
//! * top-K set indexes (`itemsByCategory`, `itemsByRegion`, `bidsPerItem`)
//!   accelerate the browsing transactions;
//! * the workload mixes RUBiS-B (the standard bidding mix, ~7% writes,
//!   uniform item popularity) and RUBiS-C (50% bids on Zipfian-popular items)
//!   drive the whole application through the same [`doppel_workloads::Driver`]
//!   harness as the microbenchmarks.
//!
//! As in the paper, "the implementation includes only the database
//! transactions; there are no web servers or browsers."

pub mod data;
pub mod procs;
pub mod rows;
pub mod schema;
pub mod txns;
pub mod workload;

pub use data::{RubisData, RubisScale};
pub use procs::{register_rubis, rubis_registry, RubisProcs, RUBIS_PROCS};
pub use rows::{BidRow, BuyNowRow, CommentRow, ItemRow, UserRow};
pub use schema::keys;
pub use txns::TxnStyle;
pub use workload::{RubisCall, RubisCallGenerator, RubisMix, RubisWorkload};
