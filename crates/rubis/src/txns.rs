//! The 17 RUBiS database transactions.
//!
//! The write transactions that touch contended auction metadata exist in two
//! styles:
//!
//! * [`TxnStyle::Classic`] — the original read-modify-write form (Figure 6 of
//!   the paper): read the current max bid / bid count / index, compute, write
//!   back with `Put`. These cannot be split, so under contention every engine
//!   serializes them.
//! * [`TxnStyle::Doppel`] — the commutative form (Figure 7): `Max` for the
//!   highest bid, `OPut` (ordered by `[amount, timestamp]`) for the highest
//!   bidder, `Add` for the bid count and rating, `TopKInsert` for the
//!   indexes. Doppel can mark all of these records split and execute
//!   concurrent bids on popular auctions in parallel.
//!
//! Read-only transactions are shared between the two styles.

use crate::rows::{
    encode_bid, encode_buy_now, encode_comment, encode_item, encode_user, row_bytes, BidView,
    CommentView, ItemView, UserView,
};
use crate::schema::{id_payload, index_id, keys, INDEX_TOP_K};
use bytes::Bytes;
use doppel_common::{Key, OrderKey, Procedure, TopKSet, Tx, TxError, Value};

/// Which form of the contended write transactions to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnStyle {
    /// Read-modify-write `Get`/`Put` (Figure 6) — not splittable.
    Classic,
    /// Commutative operations (Figure 7) — splittable by Doppel.
    Doppel,
}

// ---------------------------------------------------------------------------
// Write transactions
//
// Each body is a function over borrowed fields, called by the transaction's
// `Procedure` struct and by its registered form in `crate::procs`: a string
// argument goes from the caller's buffer into the stored row once.
// ---------------------------------------------------------------------------

/// Transaction 1: register a new user.
pub struct RegisterUser {
    /// New user id (allocated by the caller).
    pub user_id: u64,
    /// Nickname.
    pub nickname: String,
    /// Home region.
    pub region: u64,
    /// Registration timestamp.
    pub now: i64,
}

/// The body of [`RegisterUser`].
pub fn register_user(
    tx: &mut dyn Tx,
    user_id: u64,
    nickname: &str,
    region: u64,
    now: i64,
) -> Result<(), TxError> {
    tx.put(keys::user(user_id), encode_user(user_id, region, now, nickname))?;
    tx.put(keys::user_rating(user_id), Value::Int(0))
}

impl Procedure for RegisterUser {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        register_user(tx, self.user_id, &self.nickname, self.region, self.now)
    }

    fn name(&self) -> &'static str {
        "RegisterUser"
    }
}

/// Transaction 2: put a new item up for auction (`StoreItem` / `RegisterItem`).
pub struct StoreItem {
    /// New item id (allocated by the caller).
    pub item_id: u64,
    /// Seller.
    pub seller: u64,
    /// Category the item is listed under.
    pub category: u64,
    /// Region the seller lives in.
    pub region: u64,
    /// Item name.
    pub name: String,
    /// Starting price in cents.
    pub initial_price: i64,
    /// Auction end timestamp.
    pub end_date: i64,
    /// Classic or Doppel index maintenance.
    pub style: TxnStyle,
}

/// The body of [`StoreItem`].
#[allow(clippy::too_many_arguments)]
pub fn store_item(
    tx: &mut dyn Tx,
    item_id: u64,
    seller: u64,
    category: u64,
    region: u64,
    name: &str,
    initial_price: i64,
    end_date: i64,
    style: TxnStyle,
) -> Result<(), TxError> {
    let row = encode_item(item_id, seller, category, initial_price, 0, end_date, name);
    tx.put(keys::item(item_id), row)?;
    tx.put(keys::max_bid(item_id), Value::Int(initial_price))?;
    tx.put(keys::num_bids(item_id), Value::Int(0))?;

    // Insert the item into the category and region browse indexes, ordered
    // by item id so newer items rank first. Both entries share one payload.
    let order = OrderKey::from(item_id as i64);
    let payload = id_payload(item_id);
    match style {
        TxnStyle::Doppel => {
            tx.topk_insert(keys::items_by_category(category), order.clone(), payload.clone(), INDEX_TOP_K)?;
            tx.topk_insert(keys::items_by_region(region), order, payload, INDEX_TOP_K)?;
        }
        TxnStyle::Classic => {
            classic_topk_insert(tx, keys::items_by_category(category), order.clone(), payload.clone())?;
            classic_topk_insert(tx, keys::items_by_region(region), order, payload)?;
        }
    }
    Ok(())
}

impl Procedure for StoreItem {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        store_item(
            tx,
            self.item_id,
            self.seller,
            self.category,
            self.region,
            &self.name,
            self.initial_price,
            self.end_date,
            self.style,
        )
    }

    fn name(&self) -> &'static str {
        "StoreItem"
    }
}

/// Transaction 3: place a bid (`StoreBid`, Figures 6 and 7 of the paper).
pub struct StoreBid {
    /// New bid id (allocated by the caller).
    pub bid_id: u64,
    /// The bidding user.
    pub bidder: u64,
    /// The auctioned item.
    pub item: u64,
    /// Bid amount in cents.
    pub amount: i64,
    /// Coarse-grained timestamp used as the `OPut` tie-breaker.
    pub now: i64,
    /// Classic or Doppel auction-metadata maintenance.
    pub style: TxnStyle,
}

/// The body of [`StoreBid`].
pub fn store_bid(
    tx: &mut dyn Tx,
    bid_id: u64,
    bidder: u64,
    item: u64,
    amount: i64,
    now: i64,
    style: TxnStyle,
) -> Result<(), TxError> {
    // Insert the bid row itself (never contended: fresh key).
    tx.put(keys::bid(bid_id), encode_bid(bid_id, item, bidder, amount, now))?;

    let index_order = OrderKey::pair(amount, bid_id as i64);
    match style {
        TxnStyle::Doppel => {
            // Figure 7: commutative operations only — no reads of the
            // contended auction metadata, so Doppel can run this in a
            // split phase.
            tx.max(keys::max_bid(item), amount)?;
            tx.oput(keys::max_bidder(item), OrderKey::pair(amount, now), id_payload(bidder))?;
            tx.add(keys::num_bids(item), 1)?;
            tx.topk_insert(keys::bids_per_item(item), index_order, id_payload(bid_id), INDEX_TOP_K)?;
        }
        TxnStyle::Classic => {
            // Figure 6: read the current values, compare, write back.
            let highest = tx.get_int(keys::max_bid(item))?;
            if amount > highest {
                tx.put(keys::max_bid(item), Value::Int(amount))?;
                tx.put(keys::max_bidder(item), Value::Int(bidder as i64))?;
            }
            let num = tx.get_int(keys::num_bids(item))?;
            tx.put(keys::num_bids(item), Value::Int(num + 1))?;
            classic_topk_insert(tx, keys::bids_per_item(item), index_order, id_payload(bid_id))?;
        }
    }
    Ok(())
}

impl Procedure for StoreBid {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        store_bid(tx, self.bid_id, self.bidder, self.item, self.amount, self.now, self.style)
    }

    fn name(&self) -> &'static str {
        "StoreBid"
    }
}

/// Transaction 4: buy an item outright (`StoreBuyNow`).
pub struct StoreBuyNow {
    /// New buy-now id (allocated by the caller).
    pub buy_now_id: u64,
    /// The purchased item.
    pub item: u64,
    /// The buyer.
    pub buyer: u64,
    /// Quantity purchased.
    pub quantity: i64,
    /// Purchase timestamp.
    pub now: i64,
}

/// The body of [`StoreBuyNow`].
pub fn store_buy_now(
    tx: &mut dyn Tx,
    buy_now_id: u64,
    item: u64,
    buyer: u64,
    quantity: i64,
    now: i64,
) -> Result<(), TxError> {
    tx.put(keys::buy_now(buy_now_id), encode_buy_now(buy_now_id, item, buyer, quantity, now))
}

impl Procedure for StoreBuyNow {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        store_buy_now(tx, self.buy_now_id, self.item, self.buyer, self.quantity, self.now)
    }

    fn name(&self) -> &'static str {
        "StoreBuyNow"
    }
}

/// Transaction 5: comment on a user after an auction (`StoreComment`).
pub struct StoreComment {
    /// New comment id (allocated by the caller).
    pub comment_id: u64,
    /// The commenting user.
    pub author: u64,
    /// The user being rated (the auction's seller).
    pub about_user: u64,
    /// The related item.
    pub item: u64,
    /// Rating delta.
    pub rating: i64,
    /// Comment text.
    pub text: String,
    /// Classic or Doppel rating maintenance.
    pub style: TxnStyle,
}

/// The body of [`StoreComment`].
#[allow(clippy::too_many_arguments)]
pub fn store_comment(
    tx: &mut dyn Tx,
    comment_id: u64,
    author: u64,
    about_user: u64,
    item: u64,
    rating: i64,
    text: &str,
    style: TxnStyle,
) -> Result<(), TxError> {
    let row = encode_comment(comment_id, author, about_user, item, rating, text);
    tx.put(keys::comment(comment_id), row)?;
    let order = OrderKey::from(comment_id as i64);
    let payload = id_payload(comment_id);
    match style {
        TxnStyle::Doppel => {
            tx.add(keys::user_rating(about_user), rating)?;
            tx.topk_insert(keys::comments_by_user(about_user), order, payload, INDEX_TOP_K)?;
        }
        TxnStyle::Classic => {
            let current = tx.get_int(keys::user_rating(about_user))?;
            tx.put(keys::user_rating(about_user), Value::Int(current + rating))?;
            classic_topk_insert(tx, keys::comments_by_user(about_user), order, payload)?;
        }
    }
    Ok(())
}

impl Procedure for StoreComment {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        store_comment(
            tx,
            self.comment_id,
            self.author,
            self.about_user,
            self.item,
            self.rating,
            &self.text,
            self.style,
        )
    }

    fn name(&self) -> &'static str {
        "StoreComment"
    }
}

/// Read-modify-write maintenance of a top-K index record, used by the classic
/// transaction style.
fn classic_topk_insert(
    tx: &mut dyn Tx,
    key: Key,
    order: OrderKey,
    payload: Bytes,
) -> Result<(), TxError> {
    let mut set = match tx.get(key)? {
        Some(Value::TopK(set)) => set,
        _ => TopKSet::new(INDEX_TOP_K),
    };
    set.insert(order, tx.core(), payload);
    tx.put(key, Value::TopK(set))
}

// ---------------------------------------------------------------------------
// Read-only transactions
//
// A page checks each row it shows where the store's bytes lie — `Tx::read`
// lends the stored value, `XView::parse` looks at it — and copies nothing
// out, so what it allocates does not depend on how many rows it lists, and
// reading a row writes nothing another core can see. A row that is missing
// or does not parse changes no result: an index entry counts as listed
// either way.
// ---------------------------------------------------------------------------

/// Reads the row at `key` in place and checks it with `valid`.
fn read_row(tx: &mut dyn Tx, key: Key, valid: impl Fn(&[u8]) -> bool) -> Result<(), TxError> {
    tx.read(key, &mut |row| {
        let _valid = row_bytes(row).is_some_and(&valid);
    })
}

fn read_item(tx: &mut dyn Tx, item: u64) -> Result<(), TxError> {
    read_row(tx, keys::item(item), |b| ItemView::parse(b).is_some())
}

fn read_user(tx: &mut dyn Tx, user: u64) -> Result<(), TxError> {
    read_row(tx, keys::user(user), |b| UserView::parse(b).is_some())
}

/// Transaction 6: view an item page (metadata plus auction aggregates).
pub struct ViewItem {
    /// The item to view.
    pub item: u64,
}

impl ViewItem {
    /// The page's reads; returns `(max_bid, num_bids)` so the registered
    /// procedure form can ship the aggregates back to a remote client. The
    /// read set is exactly [`Procedure::run`]'s.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<(i64, i64), TxError> {
        read_item(tx, self.item)?;
        let max_bid = tx.get_int(keys::max_bid(self.item))?;
        let num_bids = tx.get_int(keys::num_bids(self.item))?;
        tx.read(keys::max_bidder(self.item), &mut |_max_bidder| ())?;
        Ok((max_bid, num_bids))
    }
}

impl Procedure for ViewItem {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "ViewItem"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 7: view a user's profile.
pub struct ViewUserInfo {
    /// The user to view.
    pub user: u64,
}

impl ViewUserInfo {
    /// The page's reads; returns the user's rating.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<i64, TxError> {
        read_user(tx, self.user)?;
        let rating = tx.get_int(keys::user_rating(self.user))?;
        tx.read(keys::comments_by_user(self.user), &mut |_comments| ())?;
        Ok(rating)
    }
}

impl Procedure for ViewUserInfo {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "ViewUserInfo"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 8: view the bid history of an item (reads the top-K bid index
/// and then the referenced bid rows).
pub struct ViewBidHistory {
    /// The item whose bids are listed.
    pub item: u64,
}

impl ViewBidHistory {
    /// The page's reads; returns the number of bids listed.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<i64, TxError> {
        read_index(tx, keys::bids_per_item(self.item), keys::bid, |b| BidView::parse(b).is_some())
    }
}

impl Procedure for ViewBidHistory {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "ViewBidHistory"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 9: list items in a category (reads the top-K index and the
/// referenced item rows).
pub struct SearchItemsByCategory {
    /// The category browsed.
    pub category: u64,
}

impl SearchItemsByCategory {
    /// The page's reads; returns the number of items listed.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<i64, TxError> {
        read_item_index(tx, keys::items_by_category(self.category))
    }
}

impl Procedure for SearchItemsByCategory {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "SearchItemsByCategory"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 10: list items in a region.
pub struct SearchItemsByRegion {
    /// The region browsed.
    pub region: u64,
}

impl SearchItemsByRegion {
    /// The page's reads; returns the number of items listed.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<i64, TxError> {
        read_item_index(tx, keys::items_by_region(self.region))
    }
}

impl Procedure for SearchItemsByRegion {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "SearchItemsByRegion"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

fn read_item_index(tx: &mut dyn Tx, index: Key) -> Result<i64, TxError> {
    read_index(tx, index, keys::item, |b| ItemView::parse(b).is_some())
}

/// Reads a top-K index and the row each entry points at, checking every row
/// where it lies with `valid`; returns the number of entries listed. An entry
/// is listed whatever its row turns out to be; one whose payload is not a row
/// id reads no row at all.
fn read_index(
    tx: &mut dyn Tx,
    index: Key,
    row_key: impl Fn(u64) -> Key,
    valid: impl Fn(&[u8]) -> bool,
) -> Result<i64, TxError> {
    // The one copy a page takes: the index's entry list (a shared handle),
    // so that the transaction is free to read the rows while walking it.
    let mut entries = None;
    tx.read(index, &mut |v| entries = v.and_then(Value::as_topk).cloned())?;
    let mut listed = 0i64;
    for entry in entries.iter().flat_map(TopKSet::iter) {
        if let Some(id) = index_id(entry) {
            read_row(tx, row_key(id), &valid)?;
        }
        listed += 1;
    }
    Ok(listed)
}

/// Transaction 11: browse the category list.
pub struct BrowseCategories {
    /// Number of categories in the database.
    pub categories: u64,
}

impl BrowseCategories {
    /// The page's reads; returns the number of category rows found.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<i64, TxError> {
        let mut found = 0i64;
        for c in 0..self.categories.min(20) {
            tx.read(keys::category(c), &mut |row| found += i64::from(row.is_some()))?;
        }
        Ok(found)
    }
}

impl Procedure for BrowseCategories {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "BrowseCategories"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 12: browse the region list.
pub struct BrowseRegions {
    /// Number of regions in the database.
    pub regions: u64,
}

impl BrowseRegions {
    /// The page's reads; returns the number of region rows found.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<i64, TxError> {
        let mut found = 0i64;
        for r in 0..self.regions.min(62) {
            tx.read(keys::region(r), &mut |row| found += i64::from(row.is_some()))?;
        }
        Ok(found)
    }
}

impl Procedure for BrowseRegions {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "BrowseRegions"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 13: the "About Me" page — a user's profile, rating and
/// received comments.
pub struct AboutMe {
    /// The logged-in user.
    pub user: u64,
}

impl AboutMe {
    /// The page's reads; returns `(rating, comments listed)`.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<(i64, i64), TxError> {
        read_user(tx, self.user)?;
        let rating = tx.get_int(keys::user_rating(self.user))?;
        let listed = read_comment_index(tx, self.user)?;
        Ok((rating, listed))
    }
}

impl Procedure for AboutMe {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "AboutMe"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

fn read_comment_index(tx: &mut dyn Tx, user: u64) -> Result<i64, TxError> {
    read_index(tx, keys::comments_by_user(user), keys::comment, |b| CommentView::parse(b).is_some())
}

/// Transaction 14: the page shown before placing a bid (item details plus
/// current auction state).
pub struct PutBidView {
    /// The item about to be bid on.
    pub item: u64,
}

impl PutBidView {
    /// The page's reads; returns `(max_bid, num_bids)` — what a bidder sees
    /// before choosing an amount.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<(i64, i64), TxError> {
        read_item(tx, self.item)?;
        let max_bid = tx.get_int(keys::max_bid(self.item))?;
        let num_bids = tx.get_int(keys::num_bids(self.item))?;
        Ok((max_bid, num_bids))
    }
}

impl Procedure for PutBidView {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "PutBidView"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 15: the page shown before leaving a comment.
pub struct PutCommentView {
    /// The user being commented on.
    pub about_user: u64,
    /// The related item.
    pub item: u64,
}

impl Procedure for PutCommentView {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        read_item(tx, self.item)?;
        read_user(tx, self.about_user)
    }

    fn name(&self) -> &'static str {
        "PutCommentView"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 16: the buy-now confirmation page.
pub struct BuyNowView {
    /// The item being purchased.
    pub item: u64,
}

impl Procedure for BuyNowView {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        read_item(tx, self.item)
    }

    fn name(&self) -> &'static str {
        "BuyNowView"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

/// Transaction 17: list the comments written about a user.
pub struct ViewUserComments {
    /// The user whose received comments are listed.
    pub user: u64,
}

impl ViewUserComments {
    /// The page's reads; returns the number of comments listed.
    pub fn view(&self, tx: &mut dyn Tx) -> Result<i64, TxError> {
        read_comment_index(tx, self.user)
    }
}

impl Procedure for ViewUserComments {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        self.view(tx).map(|_| ())
    }

    fn name(&self) -> &'static str {
        "ViewUserComments"
    }

    fn is_read_only(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{RubisData, RubisScale};
    use doppel_common::Engine;
    use doppel_occ::OccEngine;
    use std::sync::Arc;

    fn engine_with_data() -> OccEngine {
        let engine = OccEngine::new(1, 64);
        RubisData::new(RubisScale::small()).load(&engine);
        engine
    }

    fn bid(style: TxnStyle, id: u64, bidder: u64, item: u64, amount: i64, now: i64) -> Arc<StoreBid> {
        Arc::new(StoreBid { bid_id: id, bidder, item, amount, now, style })
    }

    #[test]
    fn store_bid_updates_aggregates_in_both_styles() {
        for style in [TxnStyle::Classic, TxnStyle::Doppel] {
            let engine = engine_with_data();
            let mut h = engine.handle(0);
            let item = 7u64;
            let start = engine.global_get(keys::max_bid(item)).unwrap().as_int().unwrap();
            assert!(h.execute(bid(style, 1_000, 3, item, start + 50, 1)).is_committed());
            assert!(h.execute(bid(style, 1_001, 4, item, start + 20, 2)).is_committed());

            assert_eq!(
                engine.global_get(keys::max_bid(item)).unwrap().as_int().unwrap(),
                start + 50,
                "style {style:?}: max bid"
            );
            assert_eq!(
                engine.global_get(keys::num_bids(item)).unwrap().as_int().unwrap(),
                2,
                "style {style:?}: bid count"
            );
            // Both bid rows exist.
            assert!(engine.global_get(keys::bid(1_000)).is_some());
            assert!(engine.global_get(keys::bid(1_001)).is_some());
            // The bids-per-item index holds both bids.
            let idx = engine.global_get(keys::bids_per_item(item)).unwrap();
            assert_eq!(idx.as_topk().unwrap().len(), 2, "style {style:?}: index size");
        }
    }

    #[test]
    fn doppel_style_max_bidder_is_highest_amount() {
        let engine = engine_with_data();
        let mut h = engine.handle(0);
        let item = 3u64;
        let base = engine.global_get(keys::max_bid(item)).unwrap().as_int().unwrap();
        h.execute(bid(TxnStyle::Doppel, 1, 10, item, base + 300, 5));
        h.execute(bid(TxnStyle::Doppel, 2, 11, item, base + 100, 6));
        let winner = engine.global_get(keys::max_bidder(item)).unwrap();
        let tuple = winner.as_tuple().unwrap();
        let bidder = u64::from_le_bytes(tuple.payload.as_ref().try_into().unwrap());
        assert_eq!(bidder, 10);
        assert_eq!(tuple.order.primary(), base + 300);
    }

    #[test]
    fn store_comment_updates_rating() {
        for style in [TxnStyle::Classic, TxnStyle::Doppel] {
            let engine = engine_with_data();
            let mut h = engine.handle(0);
            let c = Arc::new(StoreComment {
                comment_id: 500,
                author: 1,
                about_user: 2,
                item: 3,
                rating: 5,
                text: "great".into(),
                style,
            });
            assert!(h.execute(c).is_committed());
            assert_eq!(
                engine.global_get(keys::user_rating(2)).unwrap().as_int().unwrap(),
                5,
                "style {style:?}"
            );
            assert!(engine.global_get(keys::comment(500)).is_some());
            assert!(engine.global_get(keys::comments_by_user(2)).is_some());
        }
    }

    #[test]
    fn store_item_inserts_into_indexes() {
        for style in [TxnStyle::Classic, TxnStyle::Doppel] {
            let engine = engine_with_data();
            let mut h = engine.handle(0);
            let item = Arc::new(StoreItem {
                item_id: 90_000,
                seller: 1,
                category: 2,
                region: 3,
                name: "new lamp".into(),
                initial_price: 500,
                end_date: 99,
                style,
            });
            assert!(h.execute(item).is_committed());
            assert!(engine.global_get(keys::item(90_000)).is_some());
            assert_eq!(engine.global_get(keys::num_bids(90_000)), Some(Value::Int(0)));
            let cat_idx = engine.global_get(keys::items_by_category(2)).unwrap();
            assert!(cat_idx.as_topk().unwrap().iter().any(|e| {
                u64::from_le_bytes(e.payload.as_ref().try_into().unwrap()) == 90_000
            }));
            assert!(engine.global_get(keys::items_by_region(3)).is_some());
        }
    }

    #[test]
    fn register_user_and_buy_now() {
        let engine = engine_with_data();
        let mut h = engine.handle(0);
        assert!(h
            .execute(Arc::new(RegisterUser {
                user_id: 70_000,
                nickname: "newbie".into(),
                region: 1,
                now: 5,
            }))
            .is_committed());
        assert!(engine.global_get(keys::user(70_000)).is_some());
        assert_eq!(engine.global_get(keys::user_rating(70_000)), Some(Value::Int(0)));

        assert!(h
            .execute(Arc::new(StoreBuyNow {
                buy_now_id: 1,
                item: 5,
                buyer: 70_000,
                quantity: 1,
                now: 6,
            }))
            .is_committed());
        assert!(engine.global_get(keys::buy_now(1)).is_some());
    }

    /// A transaction over a map that records which keys it was asked for.
    struct RecordingTx {
        records: std::collections::HashMap<Key, Value>,
        reads: Vec<Key>,
    }

    impl Tx for RecordingTx {
        fn core(&self) -> doppel_common::CoreId {
            0
        }
        fn read(&mut self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
            self.reads.push(k);
            f(self.records.get(&k));
            Ok(())
        }
        fn write_op(&mut self, _k: Key, _op: doppel_common::Op) -> Result<(), TxError> {
            unreachable!("the pages under test only read")
        }
    }

    /// Runs `page` over an index of three entries — a good one, one with a
    /// 3-byte payload (which used to be read as row 0) and one pointing at a
    /// row that is not there.
    fn check_malformed_entry(
        index_key: Key,
        row_key: fn(u64) -> Key,
        page: impl Fn(&mut RecordingTx) -> i64,
    ) {
        let mut index = TopKSet::new(INDEX_TOP_K);
        index.insert(OrderKey::from(3), 0, id_payload(41));
        index.insert(OrderKey::from(2), 0, vec![1u8, 2, 3]);
        index.insert(OrderKey::from(1), 0, id_payload(42));
        // What a row holds changes no count, so every table gets bid rows.
        let records = [
            (index_key, Value::TopK(index)),
            (row_key(41), encode_bid(41, 9, 1, 100, 1)),
            (row_key(0), encode_bid(0, 9, 1, 100, 1)),
        ];
        let mut tx = RecordingTx { records: records.into_iter().collect(), reads: Vec::new() };
        assert_eq!(page(&mut tx), 3, "all three entries are listed");
        assert!(tx.reads.contains(&row_key(41)) && tx.reads.contains(&row_key(42)));
        assert!(!tx.reads.contains(&row_key(0)), "row 0 joined the read set");
    }

    #[test]
    fn malformed_index_payload_is_listed_but_reads_no_row() {
        check_malformed_entry(keys::bids_per_item(9), keys::bid, |tx| {
            ViewBidHistory { item: 9 }.view(tx).unwrap()
        });
        check_malformed_entry(keys::items_by_category(9), keys::item, |tx| {
            SearchItemsByCategory { category: 9 }.view(tx).unwrap()
        });
        check_malformed_entry(keys::comments_by_user(9), keys::comment, |tx| {
            AboutMe { user: 9 }.view(tx).unwrap().1
        });
        check_malformed_entry(keys::comments_by_user(9), keys::comment, |tx| {
            ViewUserComments { user: 9 }.view(tx).unwrap()
        });
    }

    #[test]
    fn read_transactions_run_against_loaded_data() {
        let engine = engine_with_data();
        let mut h = engine.handle(0);
        // Seed some activity so the indexes exist.
        h.execute(bid(TxnStyle::Doppel, 1, 1, 2, 10_000, 1));
        h.execute(Arc::new(StoreComment {
            comment_id: 1,
            author: 1,
            about_user: 2,
            item: 2,
            rating: 3,
            text: "ok".into(),
            style: TxnStyle::Doppel,
        }));

        let reads: Vec<Arc<dyn Procedure>> = vec![
            Arc::new(ViewItem { item: 2 }),
            Arc::new(ViewUserInfo { user: 2 }),
            Arc::new(ViewBidHistory { item: 2 }),
            Arc::new(SearchItemsByCategory { category: 0 }),
            Arc::new(SearchItemsByRegion { region: 0 }),
            Arc::new(BrowseCategories { categories: 5 }),
            Arc::new(BrowseRegions { regions: 4 }),
            Arc::new(AboutMe { user: 2 }),
            Arc::new(PutBidView { item: 2 }),
            Arc::new(PutCommentView { about_user: 2, item: 2 }),
            Arc::new(BuyNowView { item: 2 }),
            Arc::new(ViewUserComments { user: 2 }),
        ];
        for proc in reads {
            assert!(proc.is_read_only(), "{} must be read-only", proc.name());
            assert!(h.execute(proc.clone()).is_committed(), "{} failed", proc.name());
        }
    }
}
