//! RUBiS database sizing and initial population.

use crate::rows::{encode_item, encode_user};
use crate::schema::keys;
use doppel_common::{Engine, Value};

/// Sizes of the RUBiS tables.
///
/// The paper's RUBiS-B experiment uses "1M users bidding on 33K auctions"
/// with the standard RUBiS category/region counts; [`RubisScale::paper`]
/// reproduces that, while [`RubisScale::small`] is a scaled-down version for
/// tests and CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RubisScale {
    /// Number of registered users.
    pub users: u64,
    /// Number of open auctions (items).
    pub items: u64,
    /// Number of item categories.
    pub categories: u64,
    /// Number of user regions.
    pub regions: u64,
}

impl RubisScale {
    /// The sizes used in §8.8 of the paper.
    pub fn paper() -> Self {
        RubisScale { users: 1_000_000, items: 33_000, categories: 20, regions: 62 }
    }

    /// A small configuration suitable for unit tests.
    pub fn small() -> Self {
        RubisScale { users: 200, items: 50, categories: 5, regions: 4 }
    }

    /// Validates that the scale is internally consistent.
    pub fn validate(&self) -> Result<(), String> {
        if self.users == 0 || self.items == 0 || self.categories == 0 || self.regions == 0 {
            return Err("all RUBiS table sizes must be non-zero".into());
        }
        Ok(())
    }
}

impl Default for RubisScale {
    fn default() -> Self {
        RubisScale::paper()
    }
}

/// Initial data loader.
pub struct RubisData {
    /// Table sizes.
    pub scale: RubisScale,
}

impl RubisData {
    /// Creates a loader for the given scale.
    pub fn new(scale: RubisScale) -> Self {
        scale.validate().expect("invalid RUBiS scale");
        RubisData { scale }
    }

    /// Populates the engine's store with users, items, categories, regions
    /// and zeroed aggregates, bypassing concurrency control (benchmark
    /// pre-population, §8.1).
    pub fn load(&self, engine: &dyn Engine) {
        let s = &self.scale;
        for c in 0..s.categories {
            engine.load(keys::category(c), Value::from(format!("category-{c}").as_str()));
        }
        for r in 0..s.regions {
            engine.load(keys::region(r), Value::from(format!("region-{r}").as_str()));
        }
        for u in 0..s.users {
            engine.load(keys::user(u), encode_user(u, u % s.regions, 0, &format!("user{u}")));
            engine.load(keys::user_rating(u), Value::Int(0));
        }
        for i in 0..s.items {
            let initial_price = 100 + (i as i64 % 900);
            let buy_now_price = if i % 5 == 0 { 5_000 } else { 0 };
            let row = encode_item(
                i,
                i % s.users,
                i % s.categories,
                initial_price,
                buy_now_price,
                1_000_000,
                &format!("item{i}"),
            );
            engine.load(keys::item(i), row);
            engine.load(keys::max_bid(i), Value::Int(initial_price));
            engine.load(keys::num_bids(i), Value::Int(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::{decode, ItemRow, UserRow};
    use doppel_occ::OccEngine;

    #[test]
    fn scales() {
        assert_eq!(RubisScale::paper().users, 1_000_000);
        assert_eq!(RubisScale::default(), RubisScale::paper());
        assert!(RubisScale::small().validate().is_ok());
        let bad = RubisScale { users: 0, ..RubisScale::small() };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn load_populates_all_tables() {
        let engine = OccEngine::new(1, 64);
        let scale = RubisScale::small();
        RubisData::new(scale).load(&engine);

        let user: UserRow = decode(engine.global_get(keys::user(10)).as_ref()).unwrap();
        assert_eq!(user.id, 10);
        assert!(user.region < scale.regions);

        let item: ItemRow = decode(engine.global_get(keys::item(3)).as_ref()).unwrap();
        assert_eq!(item.id, 3);
        assert!(item.category < scale.categories);

        assert_eq!(engine.global_get(keys::num_bids(3)), Some(Value::Int(0)));
        assert_eq!(
            engine.global_get(keys::max_bid(3)).unwrap().as_int().unwrap(),
            item.initial_price
        );
        assert_eq!(engine.global_get(keys::user_rating(10)), Some(Value::Int(0)));
        assert!(engine.global_get(keys::category(0)).is_some());
        assert!(engine.global_get(keys::region(0)).is_some());
        // Indexes start absent and are created lazily by TopKInsert.
        assert!(engine.global_get(keys::items_by_category(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "invalid RUBiS scale")]
    fn zero_scale_panics() {
        let _ = RubisData::new(RubisScale { users: 0, items: 1, categories: 1, regions: 1 });
    }
}
