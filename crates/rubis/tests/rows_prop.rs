//! Property tests of the row codec (`doppel_rubis::rows`): every table round
//! trips, a view's accessors agree with the owned struct, and no byte string
//! — random, truncated, re-tagged, with a lying length or invalid UTF-8 —
//! makes `parse` do anything but return `None`.

use doppel_common::Value;
use doppel_rubis::rows::{
    decode, encode, row_bytes, BidRow, BidView, BuyNowRow, BuyNowView, CommentRow, CommentView,
    ItemRow, ItemView, Row, UserRow, UserView,
};
use proptest::prelude::*;

fn id() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0),
        Just(u64::MAX),
        Just(i64::MAX as u64 + 1),
        any::<u64>()
    ]
}

fn int() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0),
        Just(-1),
        Just(i64::MIN),
        Just(i64::MAX),
        any::<i64>()
    ]
}

/// Empty, ASCII, any scalar values (mostly non-ASCII), and 64 KiB.
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        prop::collection::vec(0x20u8..0x7f, 0..40).prop_map(|b| String::from_utf8(b).unwrap()),
        prop::collection::vec(any::<u32>(), 0..40).prop_map(|cs| cs
            .into_iter()
            .filter_map(|c| char::from_u32(c % 0x11_0000))
            .collect()),
        Just("ü".repeat(32 * 1024)),
    ]
}

fn user() -> impl Strategy<Value = UserRow> {
    (id(), text(), id(), int()).prop_map(|(id, nickname, region, created_at)| UserRow {
        id,
        nickname,
        region,
        created_at,
    })
}

fn item() -> impl Strategy<Value = ItemRow> {
    ((id(), text(), id(), id()), (int(), int(), int())).prop_map(
        |((id, name, seller, category), (initial_price, buy_now_price, end_date))| ItemRow {
            id,
            name,
            seller,
            category,
            initial_price,
            buy_now_price,
            end_date,
        },
    )
}

fn bid() -> impl Strategy<Value = BidRow> {
    (id(), id(), id(), int(), int()).prop_map(|(id, item, bidder, amount, placed_at)| BidRow {
        id,
        item,
        bidder,
        amount,
        placed_at,
    })
}

fn comment() -> impl Strategy<Value = CommentRow> {
    (id(), id(), id(), id(), int(), text()).prop_map(
        |(id, author, about_user, item, rating, text)| CommentRow {
            id,
            author,
            about_user,
            item,
            rating,
            text,
        },
    )
}

fn buy_now() -> impl Strategy<Value = BuyNowRow> {
    (id(), id(), id(), int(), int()).prop_map(|(id, item, buyer, quantity, bought_at)| BuyNowRow {
        id,
        item,
        buyer,
        quantity,
        bought_at,
    })
}

fn stored(value: &Value) -> &[u8] {
    row_bytes(Some(value)).expect("a row encodes to bytes")
}

/// Which of the five tables' parsers accept `bytes`.
fn parse_all(bytes: &[u8]) -> [bool; 5] {
    [
        UserView::parse(bytes).is_some(),
        ItemView::parse(bytes).is_some(),
        BidView::parse(bytes).is_some(),
        CommentView::parse(bytes).is_some(),
        BuyNowView::parse(bytes).is_some(),
    ]
}

fn assert_no_table_parses(bytes: &[u8]) {
    assert_eq!(parse_all(bytes), [false; 5]);
}

/// What must hold for a valid stored row of any table: it round trips, every
/// proper prefix and every extension is rejected by all five parsers, and so
/// is the same row under any other tag.
fn check_row<T: Row + PartialEq + std::fmt::Debug>(row: &T) {
    let value = encode(row);
    assert_eq!(decode::<T>(Some(&value)).as_ref(), Some(row));
    let bytes = stored(&value);
    assert_eq!(
        parse_all(bytes).iter().filter(|ok| **ok).count(),
        1,
        "one table owns a row"
    );

    // Every truncation; of a 64 KiB row, those that end in or just past its
    // fixed part and those that lose its last bytes.
    let len = bytes.len();
    let cuts: Vec<usize> = if len <= 4096 {
        (0..len).collect()
    } else {
        (0..80).chain(len - 4..len).collect()
    };
    for cut in cuts {
        assert_no_table_parses(&bytes[..cut]);
    }
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert_no_table_parses(&longer);

    let mut retagged = bytes.to_vec();
    for tag in [0u8, 6, 0x7b, 0xff] {
        retagged[0] = tag;
        assert_no_table_parses(&retagged);
    }
    for tag in 1u8..=5 {
        if tag != bytes[0] {
            retagged[0] = tag;
            assert!(
                T::from_bytes(&retagged).is_none(),
                "tag {tag} is another table's"
            );
        }
    }
}

/// Bytes that parse as a `T` are exactly what that `T` encodes to.
fn check_reencodes<T: Row>(bytes: &[u8]) {
    if let Some(row) = T::from_bytes(bytes) {
        assert_eq!(stored(&encode(&row)), bytes);
    }
}

/// For the three tables with a text column: the length prefix, which sits
/// right before the text, must account for exactly the bytes that follow,
/// and those must be UTF-8.
fn check_text_row(value: &Value, text_len: usize) {
    let bytes = stored(value);
    let at = bytes.len() - text_len - 4;
    assert_eq!(bytes[at..at + 4], (text_len as u32).to_le_bytes());
    for lie in [
        text_len as u32 + 1,
        (text_len as u32).wrapping_sub(1),
        u32::MAX,
        1 << 31,
    ] {
        let mut lying = bytes.to_vec();
        lying[at..at + 4].copy_from_slice(&lie.to_le_bytes());
        assert_no_table_parses(&lying);
    }
    for bad in [&[0xffu8][..], &[0xc3], &[0xed, 0xa0, 0x80], &[b'a', 0x80]] {
        let mut invalid = bytes[..at].to_vec();
        invalid.extend_from_slice(&(bad.len() as u32).to_le_bytes());
        invalid.extend_from_slice(bad);
        assert_no_table_parses(&invalid);
    }
}

proptest! {
    #[test]
    fn user_rows_round_trip_and_reject_damage(row in user()) {
        check_row(&row);
        let value = encode(&row);
        let view = UserView::parse(stored(&value)).expect("a valid row");
        prop_assert_eq!(
            (view.id(), view.nickname(), view.region(), view.created_at()),
            (row.id, row.nickname.as_str(), row.region, row.created_at)
        );
        prop_assert_eq!(UserRow::from(view), row.clone());
        check_text_row(&value, row.nickname.len());
    }

    #[test]
    fn item_rows_round_trip_and_reject_damage(row in item()) {
        check_row(&row);
        let value = encode(&row);
        let view = ItemView::parse(stored(&value)).expect("a valid row");
        prop_assert_eq!(
            (view.id(), view.name(), view.seller(), view.category()),
            (row.id, row.name.as_str(), row.seller, row.category)
        );
        prop_assert_eq!(
            (view.initial_price(), view.buy_now_price(), view.end_date()),
            (row.initial_price, row.buy_now_price, row.end_date)
        );
        prop_assert_eq!(ItemRow::from(view), row.clone());
        check_text_row(&value, row.name.len());
    }

    #[test]
    fn bid_rows_round_trip_and_reject_damage(row in bid()) {
        check_row(&row);
        let value = encode(&row);
        let view = BidView::parse(stored(&value)).expect("a valid row");
        prop_assert_eq!(
            (view.id(), view.item(), view.bidder(), view.amount(), view.placed_at()),
            (row.id, row.item, row.bidder, row.amount, row.placed_at)
        );
        prop_assert_eq!(BidRow::from(view), row);
    }

    #[test]
    fn comment_rows_round_trip_and_reject_damage(row in comment()) {
        check_row(&row);
        let value = encode(&row);
        let view = CommentView::parse(stored(&value)).expect("a valid row");
        prop_assert_eq!(
            (view.id(), view.author(), view.about_user(), view.item(), view.rating(), view.text()),
            (row.id, row.author, row.about_user, row.item, row.rating, row.text.as_str())
        );
        prop_assert_eq!(CommentRow::from(view), row.clone());
        check_text_row(&value, row.text.len());
    }

    #[test]
    fn buy_now_rows_round_trip_and_reject_damage(row in buy_now()) {
        check_row(&row);
        let value = encode(&row);
        let view = BuyNowView::parse(stored(&value)).expect("a valid row");
        prop_assert_eq!(
            (view.id(), view.item(), view.buyer(), view.quantity(), view.bought_at()),
            (row.id, row.item, row.buyer, row.quantity, row.bought_at)
        );
        prop_assert_eq!(BuyNowRow::from(view), row);
    }

    /// Arbitrary bytes never panic a parser, with or without a plausible tag
    /// in front (40 bytes after a tag is the size of a bid or buy-now row);
    /// whatever does parse re-encodes to exactly those bytes.
    #[test]
    fn arbitrary_bytes_never_panic(
        tag in 0u8..8,
        body in prop_oneof![
            prop::collection::vec(any::<u8>(), 0..120),
            prop::collection::vec(any::<u8>(), 40),
        ],
        tagged in any::<bool>(),
    ) {
        let mut bytes = body;
        if tagged {
            bytes.insert(0, tag);
        }
        check_reencodes::<UserRow>(&bytes);
        check_reencodes::<ItemRow>(&bytes);
        check_reencodes::<BidRow>(&bytes);
        check_reencodes::<CommentRow>(&bytes);
        check_reencodes::<BuyNowRow>(&bytes);
    }
}
