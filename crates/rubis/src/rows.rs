//! RUBiS rows: one fixed little-endian layout per table, read in place.
//!
//! A row is stored as a [`Value::Bytes`] record laid out as
//!
//! ```text
//! [tag: u8] [8-byte little-endian integer fields, in the order below] [u32 length + UTF-8 text]
//! ```
//!
//! where the text part exists only for the tables that have a string column
//! and is always last, so every integer sits at a constant offset
//! (`1 + 8 * index`):
//!
//! | table    | tag | integer fields (offset)                                                                        | text (offset)   | size      |
//! |----------|-----|------------------------------------------------------------------------------------------------|-----------------|-----------|
//! | users    | 1   | `id` 1, `region` 9, `created_at` 17                                                            | `nickname` 25   | 29 + text |
//! | items    | 2   | `id` 1, `seller` 9, `category` 17, `initial_price` 25, `buy_now_price` 33, `end_date` 41       | `name` 49       | 53 + text |
//! | bids     | 3   | `id` 1, `item` 9, `bidder` 17, `amount` 25, `placed_at` 33                                     | —               | 41        |
//! | comments | 4   | `id` 1, `author` 9, `about_user` 17, `item` 25, `rating` 33                                    | `text` 41       | 45 + text |
//! | buy-now  | 5   | `id` 1, `item` 9, `buyer` 17, `quantity` 25, `bought_at` 33                                    | —               | 41        |
//!
//! The `table!` invocations below are this table in code: each declares a
//! table's fields once, in stored order, and its encoder, view and owned row
//! are generated from that list. WAL records and checkpoints persist these
//! bytes, so the layout is pinned by one golden-bytes test per table.
//!
//! **Why not JSON.** The rows used to be JSON, on the argument that
//! serialization cost is the same for every engine and cancels out of the
//! comparisons. It does not cancel out of an absolute end-to-end number: a
//! browse page lists 25 items, and parsing each into a tree and then into an
//! owned struct — which the page then drops unread — was most of what a
//! RUBiS transaction cost. Procedures now read a row through a borrowed
//! *view* ([`ItemView`], [`UserView`], [`BidView`], [`CommentView`],
//! [`BuyNowView`]) over the `Arc`-backed bytes the store hands them, which
//! materialises nothing; writing a row ([`encode_item`] and friends) is one
//! allocation.
//!
//! **Hostile input.** Stored bytes come back from disk, so a view is built by
//! exactly one `parse`, which checks the tag, the exact total length and the
//! text's UTF-8 once, without ever indexing past what it has checked; anything
//! else — truncated, over-long, wrong tag, a length pointing past the end —
//! is `None`, never a panic. Accessors on a parsed view cannot fail.
//!
//! The owned [`UserRow`] … [`BuyNowRow`] structs are conveniences for checkers
//! and tests, built from a view; [`decode`] and [`encode`] go through the same
//! functions, so there is one codec.

use bytes::Bytes;
use doppel_common::Value;
use std::cell::RefCell;

/// Width of every integer field.
const WORD: usize = 8;
/// Width of the text length prefix.
const LEN: usize = 4;

thread_local! {
    /// Where a row is assembled before its one exact-size copy into a
    /// [`Bytes`]; kept per thread so a warm encode allocates only that copy.
    static SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Lays out one row from its integer fields' little-endian bytes.
fn encode_row(tag: u8, words: &[[u8; WORD]], text: Option<&str>) -> Value {
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        buf.reserve(1 + words.len() * WORD + text.map_or(0, |t| LEN + t.len()));
        buf.push(tag);
        buf.extend_from_slice(words.as_flattened());
        if let Some(text) = text {
            // Wire frames, the only outside source of row text, are capped at 16 MiB.
            let len = u32::try_from(text.len()).expect("row text is shorter than 4 GiB");
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(text.as_bytes());
        }
        Value::Bytes(Bytes::copy_from_slice(buf))
    })
}

/// The one place stored bytes are checked: `N` bytes of tag and integer
/// fields starting with `tag`, then — for a table with a text column — a
/// length that accounts for every remaining byte and that much UTF-8, or —
/// for one without — nothing. Returns the fixed part and the text (`""` for
/// a table that has none).
fn parse_row<const N: usize>(bytes: &[u8], tag: u8, has_text: bool) -> Option<(&[u8; N], &str)> {
    let (fixed, rest) = bytes.split_first_chunk::<N>()?;
    if fixed[0] != tag {
        return None;
    }
    if !has_text {
        return rest.is_empty().then_some((fixed, ""));
    }
    let (len, text) = rest.split_first_chunk::<LEN>()?;
    if u32::from_le_bytes(*len) as usize != text.len() {
        return None;
    }
    Some((fixed, std::str::from_utf8(text).ok()?))
}

/// The bytes of the integer field at `index` of a parsed row's fixed part.
#[inline]
fn word<const N: usize>(fixed: &[u8; N], index: usize) -> [u8; WORD] {
    let at = 1 + index * WORD;
    fixed[at..at + WORD].try_into().expect("a WORD-long slice")
}

/// The stored bytes of a row, `None` for a missing or non-byte value.
pub fn row_bytes(value: Option<&Value>) -> Option<&[u8]> {
    match value {
        Some(Value::Bytes(b)) => Some(b),
        _ => None,
    }
}

/// An owned row struct with a stored form.
pub trait Row: Sized {
    /// Parses the stored form; `None` for anything that is not a valid row
    /// of this table.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;

    /// The stored form.
    fn to_value(&self) -> Value;
}

/// Encodes a row struct into a [`Value::Bytes`].
pub fn encode<T: Row>(row: &T) -> Value {
    row.to_value()
}

/// Decodes a row struct from a [`Value`], returning `None` for missing or
/// non-byte values and for bytes that are not a valid row of that table.
pub fn decode<T: Row>(value: Option<&Value>) -> Option<T> {
    row_bytes(value).and_then(T::from_bytes)
}

/// Defines one table from one field list — integer fields in stored order,
/// then the text column if there is one — so that its encoder (`$encode`,
/// arguments in that order), its borrowed view (`$View`, one accessor per
/// field) and its owned row (`$Row`) cannot disagree about the layout.
macro_rules! table {
    (
        tag $tag:literal;
        $(#[$encode_doc:meta])* encode $encode:ident;
        $(#[$view_doc:meta])* view $View:ident;
        $(#[$row_doc:meta])* row $Row:ident;
        ints { $($(#[$int_doc:meta])* $int:ident: $int_ty:ty,)+ }
        $(text { $(#[$text_doc:meta])* $text:ident })?
    ) => {
        $(#[$encode_doc])*
        pub fn $encode($($int: $int_ty,)+ $($text: &str)?) -> Value {
            encode_row($tag, &[$($int.to_le_bytes()),+], table!(@text $($text)?))
        }

        $(#[$view_doc])*
        #[derive(Clone, Copy, Debug)]
        pub struct $View<'a> {
            fixed: &'a [u8; 1 + WORD * [$(stringify!($int)),+].len()],
            $($text: &'a str,)?
        }

        impl<'a> $View<'a> {
            /// Checks `bytes` as a stored row of this table.
            pub fn parse(bytes: &'a [u8]) -> Option<Self> {
                let (fixed, _text) = parse_row(bytes, $tag, table!(@has $($text)?))?;
                Some($View { fixed, $($text: _text,)? })
            }

            $(
                $(#[$text_doc])*
                pub fn $text(&self) -> &'a str {
                    self.$text
                }
            )?
        }

        table!(@accessors $View 0; $($(#[$int_doc])* $int: $int_ty,)+);

        $(#[$row_doc])*
        #[derive(Clone, Debug, PartialEq, Eq)]
        pub struct $Row {
            $($(#[$int_doc])* pub $int: $int_ty,)+
            $($(#[$text_doc])* pub $text: String,)?
        }

        impl From<$View<'_>> for $Row {
            fn from(v: $View<'_>) -> Self {
                $Row { $($int: v.$int(),)+ $($text: v.$text().to_string(),)? }
            }
        }

        impl Row for $Row {
            fn from_bytes(bytes: &[u8]) -> Option<Self> {
                $View::parse(bytes).map(Into::into)
            }

            fn to_value(&self) -> Value {
                $encode($(self.$int,)+ $(&self.$text)?)
            }
        }
    };
    (@has) => { false };
    (@has $text:ident) => { true };
    (@text) => { None };
    (@text $text:ident) => { Some($text) };
    // One accessor per integer field, `$index` counting up from 0.
    (@accessors $View:ident $index:expr;) => {};
    (@accessors $View:ident $index:expr; $(#[$doc:meta])* $int:ident: $ty:ty, $($rest:tt)*) => {
        impl $View<'_> {
            $(#[$doc])*
            pub fn $int(&self) -> $ty {
                <$ty>::from_le_bytes(word(self.fixed, $index))
            }
        }
        table!(@accessors $View $index + 1; $($rest)*);
    };
}

table! {
    tag 1;
    /// Encodes a users-table row.
    encode encode_user;
    /// A users-table row read in place.
    view UserView;
    /// A row in the users table.
    row UserRow;
    ints {
        /// Primary key.
        id: u64,
        /// Home region (foreign key into the regions table).
        region: u64,
        /// Account creation timestamp (logical).
        created_at: i64,
    }
    text {
        /// Login name.
        nickname
    }
}

table! {
    tag 2;
    /// Encodes an items-table row.
    encode encode_item;
    /// An items-table row read in place.
    view ItemView;
    /// A row in the items table.
    row ItemRow;
    ints {
        /// Primary key.
        id: u64,
        /// Seller (foreign key into the users table).
        seller: u64,
        /// Category (foreign key).
        category: u64,
        /// Starting price in cents.
        initial_price: i64,
        /// Buy-now price in cents (0 = none).
        buy_now_price: i64,
        /// Auction end timestamp (logical).
        end_date: i64,
    }
    text {
        /// Auction title.
        name
    }
}

table! {
    tag 3;
    /// Encodes a bids-table row.
    encode encode_bid;
    /// A bids-table row read in place.
    view BidView;
    /// A row in the bids table.
    row BidRow;
    ints {
        /// Primary key.
        id: u64,
        /// The item being bid on.
        item: u64,
        /// The bidding user.
        bidder: u64,
        /// Bid amount in cents.
        amount: i64,
        /// Bid timestamp (logical).
        placed_at: i64,
    }
}

table! {
    tag 4;
    /// Encodes a comments-table row.
    encode encode_comment;
    /// A comments-table row read in place.
    view CommentView;
    /// A row in the comments table.
    row CommentRow;
    ints {
        /// Primary key.
        id: u64,
        /// The commenting user.
        author: u64,
        /// The user being commented on (an auction's seller).
        about_user: u64,
        /// The item the comment refers to.
        item: u64,
        /// Rating delta in [-5, 5].
        rating: i64,
    }
    text {
        /// Comment text.
        text
    }
}

table! {
    tag 5;
    /// Encodes a buy-now-table row.
    encode encode_buy_now;
    /// A buy-now-table row read in place.
    view BuyNowView;
    /// A row in the buy-now table.
    row BuyNowRow;
    ints {
        /// Primary key.
        id: u64,
        /// The purchased item.
        item: u64,
        /// The buying user.
        buyer: u64,
        /// Quantity purchased.
        quantity: i64,
        /// Purchase timestamp (logical).
        bought_at: i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stored(value: &Value) -> &[u8] {
        row_bytes(Some(value)).expect("rows encode to bytes")
    }

    // One golden test per table, its bytes spelled out by hand: these are
    // what WAL records and checkpoints hold.

    #[test]
    fn user_layout_is_pinned() {
        let v = encode(&UserRow { id: 7, region: 3, created_at: -2, nickname: "al".into() });
        #[rustfmt::skip]
        let expected = [
            1,
            7, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            2, 0, 0, 0, b'a', b'l',
        ];
        assert_eq!(stored(&v), expected);
    }

    #[test]
    fn item_layout_is_pinned() {
        let row = ItemRow {
            id: 0x0102_0304_0506_0708,
            seller: 2,
            category: 3,
            initial_price: 1500,
            buy_now_price: 0,
            end_date: i64::MIN,
            name: "é".into(),
        };
        #[rustfmt::skip]
        let expected = [
            2,
            8, 7, 6, 5, 4, 3, 2, 1,
            2, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            0xdc, 5, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0x80,
            2, 0, 0, 0, 0xc3, 0xa9,
        ];
        assert_eq!(stored(&encode(&row)), expected);
    }

    #[test]
    fn bid_layout_is_pinned() {
        let v = encode(&BidRow { id: 1, item: 2, bidder: 3, amount: 500, placed_at: 10 });
        #[rustfmt::skip]
        let expected = [
            3,
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            0xf4, 1, 0, 0, 0, 0, 0, 0,
            10, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(stored(&v), expected);
    }

    #[test]
    fn comment_layout_is_pinned() {
        let row =
            CommentRow { id: 1, author: 2, about_user: 3, item: 4, rating: -5, text: "ok".into() };
        #[rustfmt::skip]
        let expected = [
            4,
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            4, 0, 0, 0, 0, 0, 0, 0,
            0xfb, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            2, 0, 0, 0, b'o', b'k',
        ];
        assert_eq!(stored(&encode(&row)), expected);
        // An empty text still has its length.
        let empty = encode(&CommentRow { text: String::new(), ..row });
        assert_eq!((&stored(&empty)[..41], &stored(&empty)[41..]), (&expected[..41], &[0u8; 4][..]));
    }

    #[test]
    fn buy_now_layout_is_pinned() {
        let v = encode(&BuyNowRow { id: 1, item: 2, buyer: 3, quantity: 1, bought_at: 9 });
        #[rustfmt::skip]
        let expected = [
            5,
            1, 0, 0, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
            3, 0, 0, 0, 0, 0, 0, 0,
            1, 0, 0, 0, 0, 0, 0, 0,
            9, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(stored(&v), expected);
    }

    #[test]
    fn decode_handles_missing_wrong_types_and_other_tables() {
        assert_eq!(decode::<UserRow>(None), None);
        assert_eq!(decode::<UserRow>(Some(&Value::Int(3))), None);
        assert_eq!(decode::<UserRow>(Some(&Value::from("not a row"))), None);
        // The rows JSON used to produce are not read any more.
        let json = br#"{"id":1,"item":2,"bidder":3,"amount":500,"placed_at":10}"#;
        assert_eq!(decode::<BidRow>(Some(&Value::Bytes(Bytes::from_static(json)))), None);
        // A bid and a buy-now row have the same shape; the tag tells them apart.
        let row = BidRow { id: 1, item: 2, bidder: 3, amount: 500, placed_at: 10 };
        let bid = encode(&row);
        assert_eq!(decode::<BuyNowRow>(Some(&bid)), None);
        assert_eq!(decode::<BidRow>(Some(&bid)), Some(row));
    }

    #[test]
    fn malformed_text_rows_are_rejected() {
        let value = encode_user(1, 2, 3, "bob");
        let good = stored(&value).to_vec();
        assert_eq!(UserView::parse(&good).map(|v| v.nickname()), Some("bob"));
        // The length (at offset 25) one short of, one past and far past the
        // bytes that follow.
        for lie in [2u32, 4, u32::MAX] {
            let mut lying = good.clone();
            lying[25..29].copy_from_slice(&lie.to_le_bytes());
            assert!(UserView::parse(&lying).is_none(), "length {lie}");
        }
        // Invalid UTF-8.
        let mut invalid = good.clone();
        invalid[29] = 0xff;
        assert!(UserView::parse(&invalid).is_none());
        // Every truncation, and one trailing byte.
        for cut in 0..good.len() {
            assert!(UserView::parse(&good[..cut]).is_none(), "cut at {cut}");
        }
        let mut trailing = good;
        trailing.push(0);
        assert!(UserView::parse(&trailing).is_none());
    }
}
