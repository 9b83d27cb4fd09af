//! RUBiS as a registered procedure pack.
//!
//! The paper's model is transactions known to the system in advance; this
//! module registers all 17 RUBiS database transactions in a
//! [`ProcRegistry`], so the whole auction application is invocable *by name*
//! — locally through the transaction service, or over TCP via the wire
//! protocol's `InvokeProc` message. The bodies call the functions the
//! transaction structs in [`crate::txns`] call, with fields borrowed from the
//! argument vector, so a registered invocation and the original
//! closure-style procedure are the same code operating on the same keys.
//!
//! Write procedures whose contended-record maintenance exists in two forms
//! (Figures 6 and 7 of the paper) take a trailing *style* argument:
//! `0` = classic read-modify-write, `1` = commutative Doppel operations.
//! The [`args`] module builds well-formed argument vectors for every
//! procedure, and [`RubisProcs`] resolves the pack's [`ProcId`]s once for
//! hot-path invocation without name lookups.

use crate::txns::{
    self, AboutMe, BrowseCategories, BrowseRegions, BuyNowView, PutBidView, PutCommentView,
    SearchItemsByCategory, SearchItemsByRegion, TxnStyle, ViewBidHistory, ViewItem,
    ViewUserComments, ViewUserInfo,
};
use doppel_common::{Args, ArgsRef, ProcId, ProcRegistry, ProcResult, TxError};
use std::sync::Arc;

/// Names of the procedures [`register_rubis`] adds, in registration order
/// (for `--help` output and tests).
pub const RUBIS_PROCS: &[&str] = &[
    "rubis.register_user",
    "rubis.store_item",
    "rubis.store_bid",
    "rubis.store_buy_now",
    "rubis.store_comment",
    "rubis.view_item",
    "rubis.view_user_info",
    "rubis.view_bid_history",
    "rubis.search_items_by_category",
    "rubis.search_items_by_region",
    "rubis.browse_categories",
    "rubis.browse_regions",
    "rubis.about_me",
    "rubis.put_bid_view",
    "rubis.put_comment_view",
    "rubis.buy_now_view",
    "rubis.view_user_comments",
];

fn style_arg(args: ArgsRef<'_>, i: usize) -> Result<TxnStyle, TxError> {
    match args.get_int(i)? {
        0 => Ok(TxnStyle::Classic),
        1 => Ok(TxnStyle::Doppel),
        _ => Err(TxError::UserAbort { reason: "rubis: style must be 0 (classic) or 1 (doppel)" }),
    }
}

/// Encodes a [`TxnStyle`] as its wire integer.
pub fn style_code(style: TxnStyle) -> i64 {
    match style {
        TxnStyle::Classic => 0,
        TxnStyle::Doppel => 1,
    }
}

/// Registers the 17 RUBiS transactions. See [`args`] for each procedure's
/// argument vector; read procedures return the page's aggregates:
///
/// * `rubis.view_item` / `rubis.put_bid_view` → `[max_bid, num_bids]`
/// * `rubis.view_user_info` → `[rating]`
/// * `rubis.about_me` → `[rating, comments_listed]`
/// * the index/browse reads → `[rows_listed]`
pub fn register_rubis(reg: &mut ProcRegistry) {
    reg.register("rubis.register_user", |ctx, a| {
        txns::register_user(ctx.tx(), a.get_u64(0)?, a.get_str(1)?, a.get_u64(2)?, a.get_int(3)?)?;
        Ok(ProcResult::new())
    });
    reg.register("rubis.store_item", |ctx, a| {
        txns::store_item(
            ctx.tx(),
            a.get_u64(0)?,
            a.get_u64(1)?,
            a.get_u64(2)?,
            a.get_u64(3)?,
            a.get_str(4)?,
            a.get_int(5)?,
            a.get_int(6)?,
            style_arg(a, 7)?,
        )?;
        Ok(ProcResult::new())
    });
    reg.register("rubis.store_bid", |ctx, a| {
        txns::store_bid(
            ctx.tx(),
            a.get_u64(0)?,
            a.get_u64(1)?,
            a.get_u64(2)?,
            a.get_int(3)?,
            a.get_int(4)?,
            style_arg(a, 5)?,
        )?;
        Ok(ProcResult::new())
    });
    reg.register("rubis.store_buy_now", |ctx, a| {
        txns::store_buy_now(
            ctx.tx(),
            a.get_u64(0)?,
            a.get_u64(1)?,
            a.get_u64(2)?,
            a.get_int(3)?,
            a.get_int(4)?,
        )?;
        Ok(ProcResult::new())
    });
    reg.register("rubis.store_comment", |ctx, a| {
        txns::store_comment(
            ctx.tx(),
            a.get_u64(0)?,
            a.get_u64(1)?,
            a.get_u64(2)?,
            a.get_u64(3)?,
            a.get_int(4)?,
            a.get_str(5)?,
            style_arg(a, 6)?,
        )?;
        Ok(ProcResult::new())
    });

    reg.register_read_only("rubis.view_item", |ctx, a| {
        let (max_bid, num_bids) = ViewItem { item: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(max_bid).int(num_bids))
    });
    reg.register_read_only("rubis.view_user_info", |ctx, a| {
        let rating = ViewUserInfo { user: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(rating))
    });
    reg.register_read_only("rubis.view_bid_history", |ctx, a| {
        let listed = ViewBidHistory { item: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(listed))
    });
    reg.register_read_only("rubis.search_items_by_category", |ctx, a| {
        let listed = SearchItemsByCategory { category: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(listed))
    });
    reg.register_read_only("rubis.search_items_by_region", |ctx, a| {
        let listed = SearchItemsByRegion { region: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(listed))
    });
    reg.register_read_only("rubis.browse_categories", |ctx, a| {
        let found = BrowseCategories { categories: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(found))
    });
    reg.register_read_only("rubis.browse_regions", |ctx, a| {
        let found = BrowseRegions { regions: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(found))
    });
    reg.register_read_only("rubis.about_me", |ctx, a| {
        let (rating, listed) = AboutMe { user: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(rating).int(listed))
    });
    reg.register_read_only("rubis.put_bid_view", |ctx, a| {
        let (max_bid, num_bids) = PutBidView { item: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(max_bid).int(num_bids))
    });
    reg.register_read_only("rubis.put_comment_view", |ctx, a| {
        let p = PutCommentView { about_user: a.get_u64(0)?, item: a.get_u64(1)? };
        doppel_common::Procedure::run(&p, ctx.tx())?;
        Ok(ProcResult::new())
    });
    reg.register_read_only("rubis.buy_now_view", |ctx, a| {
        let p = BuyNowView { item: a.get_u64(0)? };
        doppel_common::Procedure::run(&p, ctx.tx())?;
        Ok(ProcResult::new())
    });
    reg.register_read_only("rubis.view_user_comments", |ctx, a| {
        let listed = ViewUserComments { user: a.get_u64(0)? }.view(ctx.tx())?;
        Ok(ProcResult::new().int(listed))
    });
}

/// A fresh shared registry holding only the RUBiS pack.
pub fn rubis_registry() -> Arc<ProcRegistry> {
    let mut reg = ProcRegistry::new();
    register_rubis(&mut reg);
    Arc::new(reg)
}

/// The pack's procedure ids, resolved once so hot paths (workload
/// generators) invoke without per-transaction name lookups.
#[derive(Clone, Copy, Debug)]
pub struct RubisProcs {
    /// `rubis.register_user`.
    pub register_user: ProcId,
    /// `rubis.store_item`.
    pub store_item: ProcId,
    /// `rubis.store_bid`.
    pub store_bid: ProcId,
    /// `rubis.store_buy_now`.
    pub store_buy_now: ProcId,
    /// `rubis.store_comment`.
    pub store_comment: ProcId,
    /// `rubis.view_item`.
    pub view_item: ProcId,
    /// `rubis.view_user_info`.
    pub view_user_info: ProcId,
    /// `rubis.view_bid_history`.
    pub view_bid_history: ProcId,
    /// `rubis.search_items_by_category`.
    pub search_items_by_category: ProcId,
    /// `rubis.search_items_by_region`.
    pub search_items_by_region: ProcId,
    /// `rubis.browse_categories`.
    pub browse_categories: ProcId,
    /// `rubis.browse_regions`.
    pub browse_regions: ProcId,
    /// `rubis.about_me`.
    pub about_me: ProcId,
    /// `rubis.put_bid_view`.
    pub put_bid_view: ProcId,
    /// `rubis.put_comment_view`.
    pub put_comment_view: ProcId,
    /// `rubis.buy_now_view`.
    pub buy_now_view: ProcId,
    /// `rubis.view_user_comments`.
    pub view_user_comments: ProcId,
}

impl RubisProcs {
    /// Resolves every pack procedure in `reg`.
    ///
    /// # Panics
    ///
    /// Panics if the RUBiS pack was not registered in `reg`.
    pub fn resolve(reg: &ProcRegistry) -> RubisProcs {
        let get = |name: &str| reg.lookup(name).unwrap_or_else(|| panic!("{name} not registered"));
        RubisProcs {
            register_user: get("rubis.register_user"),
            store_item: get("rubis.store_item"),
            store_bid: get("rubis.store_bid"),
            store_buy_now: get("rubis.store_buy_now"),
            store_comment: get("rubis.store_comment"),
            view_item: get("rubis.view_item"),
            view_user_info: get("rubis.view_user_info"),
            view_bid_history: get("rubis.view_bid_history"),
            search_items_by_category: get("rubis.search_items_by_category"),
            search_items_by_region: get("rubis.search_items_by_region"),
            browse_categories: get("rubis.browse_categories"),
            browse_regions: get("rubis.browse_regions"),
            about_me: get("rubis.about_me"),
            put_bid_view: get("rubis.put_bid_view"),
            put_comment_view: get("rubis.put_comment_view"),
            buy_now_view: get("rubis.buy_now_view"),
            view_user_comments: get("rubis.view_user_comments"),
        }
    }
}

/// Argument-vector builders, one per registered procedure. These are the
/// single source of truth for each procedure's calling convention: the
/// workload generator, the networked example and the benchmark all build
/// their invocations here.
pub mod args {
    use super::*;

    /// `rubis.register_user(user_id, nickname, region, now)`.
    pub fn register_user(user_id: u64, nickname: &str, region: u64, now: i64) -> Args {
        Args::new().uint(user_id).str(nickname).uint(region).int(now)
    }

    /// `rubis.store_item(item_id, seller, category, region, name, initial_price, end_date, style)`.
    #[allow(clippy::too_many_arguments)]
    pub fn store_item(
        item_id: u64,
        seller: u64,
        category: u64,
        region: u64,
        name: &str,
        initial_price: i64,
        end_date: i64,
        style: TxnStyle,
    ) -> Args {
        Args::new()
            .uint(item_id)
            .uint(seller)
            .uint(category)
            .uint(region)
            .str(name)
            .int(initial_price)
            .int(end_date)
            .int(style_code(style))
    }

    /// `rubis.store_bid(bid_id, bidder, item, amount, now, style)`.
    pub fn store_bid(
        bid_id: u64,
        bidder: u64,
        item: u64,
        amount: i64,
        now: i64,
        style: TxnStyle,
    ) -> Args {
        Args::new()
            .uint(bid_id)
            .uint(bidder)
            .uint(item)
            .int(amount)
            .int(now)
            .int(style_code(style))
    }

    /// `rubis.store_buy_now(buy_now_id, item, buyer, quantity, now)`.
    pub fn store_buy_now(buy_now_id: u64, item: u64, buyer: u64, quantity: i64, now: i64) -> Args {
        Args::new().uint(buy_now_id).uint(item).uint(buyer).int(quantity).int(now)
    }

    /// `rubis.store_comment(comment_id, author, about_user, item, rating, text, style)`.
    pub fn store_comment(
        comment_id: u64,
        author: u64,
        about_user: u64,
        item: u64,
        rating: i64,
        text: &str,
        style: TxnStyle,
    ) -> Args {
        Args::new()
            .uint(comment_id)
            .uint(author)
            .uint(about_user)
            .uint(item)
            .int(rating)
            .str(text)
            .int(style_code(style))
    }

    /// `rubis.view_item(item)`.
    pub fn view_item(item: u64) -> Args {
        Args::new().uint(item)
    }

    /// `rubis.view_user_info(user)`.
    pub fn view_user_info(user: u64) -> Args {
        Args::new().uint(user)
    }

    /// `rubis.view_bid_history(item)`.
    pub fn view_bid_history(item: u64) -> Args {
        Args::new().uint(item)
    }

    /// `rubis.search_items_by_category(category)`.
    pub fn search_items_by_category(category: u64) -> Args {
        Args::new().uint(category)
    }

    /// `rubis.search_items_by_region(region)`.
    pub fn search_items_by_region(region: u64) -> Args {
        Args::new().uint(region)
    }

    /// `rubis.browse_categories(categories)`.
    pub fn browse_categories(categories: u64) -> Args {
        Args::new().uint(categories)
    }

    /// `rubis.browse_regions(regions)`.
    pub fn browse_regions(regions: u64) -> Args {
        Args::new().uint(regions)
    }

    /// `rubis.about_me(user)`.
    pub fn about_me(user: u64) -> Args {
        Args::new().uint(user)
    }

    /// `rubis.put_bid_view(item)`.
    pub fn put_bid_view(item: u64) -> Args {
        Args::new().uint(item)
    }

    /// `rubis.put_comment_view(about_user, item)`.
    pub fn put_comment_view(about_user: u64, item: u64) -> Args {
        Args::new().uint(about_user).uint(item)
    }

    /// `rubis.buy_now_view(item)`.
    pub fn buy_now_view(item: u64) -> Args {
        Args::new().uint(item)
    }

    /// `rubis.view_user_comments(user)`.
    pub fn view_user_comments(user: u64) -> Args {
        Args::new().uint(user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{RubisData, RubisScale};
    use crate::schema::keys;
    use doppel_common::{Engine, Procedure};
    use doppel_occ::OccEngine;

    fn loaded_engine() -> OccEngine {
        let engine = OccEngine::new(1, 64);
        RubisData::new(RubisScale::small()).load(&engine);
        engine
    }

    #[test]
    fn pack_names_and_read_only_flags() {
        let reg = rubis_registry();
        assert_eq!(reg.names(), RUBIS_PROCS);
        let procs = RubisProcs::resolve(&reg);
        assert!(!reg.is_read_only(procs.store_bid));
        assert!(reg.is_read_only(procs.view_item));
        assert!(reg.is_read_only(procs.view_user_comments));
    }

    #[test]
    fn store_bid_proc_updates_aggregates_and_view_item_reads_them() {
        for style in [TxnStyle::Classic, TxnStyle::Doppel] {
            let engine = loaded_engine();
            let reg = rubis_registry();
            let procs = RubisProcs::resolve(&reg);
            let mut h = engine.handle(0);
            let item = 7u64;
            let start = engine.global_get(keys::max_bid(item)).unwrap().as_int().unwrap();

            let bid = reg.call(procs.store_bid, args::store_bid(1_000, 3, item, start + 50, 1, style));
            assert!(h.execute(bid).is_committed(), "style {style:?}");
            let bid = reg.call(procs.store_bid, args::store_bid(1_001, 4, item, start + 20, 2, style));
            assert!(h.execute(bid).is_committed());

            let view = reg.call(procs.view_item, args::view_item(item));
            assert!(h.execute(Arc::clone(&view) as _).is_committed());
            let result = view.take_result().expect("view_item returns aggregates");
            assert_eq!(result.get_int(0).unwrap(), start + 50, "style {style:?}: max bid");
            assert_eq!(result.get_int(1).unwrap(), 2, "style {style:?}: bid count");
        }
    }

    #[test]
    fn bad_style_and_bad_args_abort_cleanly() {
        let engine = loaded_engine();
        let reg = rubis_registry();
        let procs = RubisProcs::resolve(&reg);
        let mut h = engine.handle(0);
        // Style 7 is not a TxnStyle.
        let bad = reg.call(procs.store_bid, args::store_bid(1, 1, 1, 100, 1, TxnStyle::Classic));
        // Rebuild with a corrupt style int by hand:
        let corrupt = reg.call(
            procs.store_bid,
            Args::new().uint(1).uint(1).uint(1).int(100).int(1).int(7),
        );
        match h.execute(corrupt) {
            doppel_common::Outcome::Aborted(TxError::UserAbort { reason }) => {
                assert!(reason.contains("style"));
            }
            other => panic!("expected a style abort, got {other:?}"),
        }
        // Too few arguments.
        let short = reg.call(procs.store_bid, Args::new().uint(1));
        assert!(matches!(
            h.execute(short),
            doppel_common::Outcome::Aborted(TxError::UserAbort { .. })
        ));
        // The well-formed call still works.
        assert!(h.execute(bad).is_committed());
    }

    #[test]
    fn every_read_proc_commits_against_loaded_data() {
        let engine = loaded_engine();
        let reg = rubis_registry();
        let mut h = engine.handle(0);
        let scale = RubisScale::small();
        let reads: Vec<(&str, Args)> = vec![
            ("rubis.view_item", args::view_item(2)),
            ("rubis.view_user_info", args::view_user_info(2)),
            ("rubis.view_bid_history", args::view_bid_history(2)),
            ("rubis.search_items_by_category", args::search_items_by_category(0)),
            ("rubis.search_items_by_region", args::search_items_by_region(0)),
            ("rubis.browse_categories", args::browse_categories(scale.categories)),
            ("rubis.browse_regions", args::browse_regions(scale.regions)),
            ("rubis.about_me", args::about_me(2)),
            ("rubis.put_bid_view", args::put_bid_view(2)),
            ("rubis.put_comment_view", args::put_comment_view(2, 2)),
            ("rubis.buy_now_view", args::buy_now_view(2)),
            ("rubis.view_user_comments", args::view_user_comments(2)),
        ];
        for (name, a) in reads {
            let call = reg.call_by_name(name, a).unwrap();
            assert!(call.is_read_only(), "{name} must be read-only");
            assert!(h.execute(call).is_committed(), "{name} failed");
        }
    }
}
