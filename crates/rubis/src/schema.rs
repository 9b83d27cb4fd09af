//! RUBiS key schema.
//!
//! RUBiS has 7 base tables plus the materialized aggregates and top-K indexes
//! the paper's port adds. Every record is addressed by a [`Key`] built by one
//! of the constructors in [`keys`].

use bytes::Bytes;
use doppel_common::{Key, OrderedTuple, Table};

/// Capacity of the top-K index records (items per category/region, bids per
/// item). The original RUBiS pages show 20–25 entries per listing page.
pub const INDEX_TOP_K: usize = 25;

/// The payload of an index entry (and of the max-bidder tuple): the row id
/// it points at, as 8 little-endian bytes.
pub fn id_payload(id: u64) -> Bytes {
    Bytes::copy_from_slice(&id.to_le_bytes())
}

/// The row id an index entry points at; `None` when its payload is not the
/// 8 bytes [`id_payload`] writes, so that a malformed entry reads no row
/// instead of row 0.
pub fn index_id(entry: &OrderedTuple) -> Option<u64> {
    Some(u64::from_le_bytes(entry.payload.as_ref().try_into().ok()?))
}

/// Key constructors for every RUBiS table, aggregate and index.
pub mod keys {
    use super::*;

    /// Users table row.
    pub fn user(id: u64) -> Key {
        Key::new(Table::RubisUser, id, 0)
    }

    /// Items table row.
    pub fn item(id: u64) -> Key {
        Key::new(Table::RubisItem, id, 0)
    }

    /// Categories table row.
    pub fn category(id: u64) -> Key {
        Key::new(Table::RubisCategory, id, 0)
    }

    /// Regions table row.
    pub fn region(id: u64) -> Key {
        Key::new(Table::RubisRegion, id, 0)
    }

    /// Bids table row.
    pub fn bid(id: u64) -> Key {
        Key::new(Table::RubisBid, id, 0)
    }

    /// Buy-now table row.
    pub fn buy_now(id: u64) -> Key {
        Key::new(Table::RubisBuyNow, id, 0)
    }

    /// Comments table row.
    pub fn comment(id: u64) -> Key {
        Key::new(Table::RubisComment, id, 0)
    }

    /// Materialized highest bid for an item (integer, updated with `Max`).
    pub fn max_bid(item: u64) -> Key {
        Key::new(Table::RubisMaxBid, item, 0)
    }

    /// Materialized highest bidder for an item (ordered tuple, updated with
    /// `OPut` ordered by `[amount, timestamp]`).
    pub fn max_bidder(item: u64) -> Key {
        Key::new(Table::RubisMaxBidder, item, 0)
    }

    /// Materialized number of bids on an item (integer, updated with `Add`).
    pub fn num_bids(item: u64) -> Key {
        Key::new(Table::RubisNumBids, item, 0)
    }

    /// Materialized rating of a user (integer, updated with `Add`).
    pub fn user_rating(user: u64) -> Key {
        Key::new(Table::RubisUserRating, user, 0)
    }

    /// Top-K index of items in a category (ordered by item id, i.e. newest
    /// items first).
    pub fn items_by_category(category: u64) -> Key {
        Key::new(Table::RubisItemsByCategory, category, 0)
    }

    /// Top-K index of items in a region.
    pub fn items_by_region(region: u64) -> Key {
        Key::new(Table::RubisItemsByRegion, region, 0)
    }

    /// Top-K index of the bids on an item (ordered by amount).
    pub fn bids_per_item(item: u64) -> Key {
        Key::new(Table::RubisBidsPerItem, item, 0)
    }

    /// Top-K index of the comments received by a user (ordered by time).
    pub fn comments_by_user(user: u64) -> Key {
        Key::new(Table::RubisCommentsByUser, user, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::{id_payload, index_id, keys};
    use doppel_common::{OrderKey, OrderedTuple, Table};

    #[test]
    fn index_payload_round_trips_and_rejects_other_lengths() {
        let entry = |payload: &[u8]| OrderedTuple::new(OrderKey::from(1), 0, payload.to_vec());
        assert_eq!(index_id(&entry(&id_payload(u64::MAX - 1))), Some(u64::MAX - 1));
        assert_eq!(index_id(&entry(&[7, 0, 0, 0, 0, 0, 0, 0])), Some(7));
        assert_eq!(index_id(&entry(&[1, 2, 3])), None);
        assert_eq!(index_id(&entry(&[0; 9])), None);
        assert_eq!(index_id(&entry(&[])), None);
    }

    #[test]
    fn keys_land_in_their_tables() {
        assert_eq!(keys::user(1).table(), Table::RubisUser);
        assert_eq!(keys::item(1).table(), Table::RubisItem);
        assert_eq!(keys::category(1).table(), Table::RubisCategory);
        assert_eq!(keys::region(1).table(), Table::RubisRegion);
        assert_eq!(keys::bid(1).table(), Table::RubisBid);
        assert_eq!(keys::buy_now(1).table(), Table::RubisBuyNow);
        assert_eq!(keys::comment(1).table(), Table::RubisComment);
        assert_eq!(keys::max_bid(1).table(), Table::RubisMaxBid);
        assert_eq!(keys::max_bidder(1).table(), Table::RubisMaxBidder);
        assert_eq!(keys::num_bids(1).table(), Table::RubisNumBids);
        assert_eq!(keys::user_rating(1).table(), Table::RubisUserRating);
        assert_eq!(keys::items_by_category(1).table(), Table::RubisItemsByCategory);
        assert_eq!(keys::items_by_region(1).table(), Table::RubisItemsByRegion);
        assert_eq!(keys::bids_per_item(1).table(), Table::RubisBidsPerItem);
        assert_eq!(keys::comments_by_user(1).table(), Table::RubisCommentsByUser);
    }

    #[test]
    fn same_id_different_tables_are_distinct() {
        assert_ne!(keys::user(5), keys::item(5));
        assert_ne!(keys::max_bid(5), keys::num_bids(5));
        assert_eq!(keys::user(5), keys::user(5));
    }
}
