//! Binary serialization of keys, operations and values.
//!
//! The log stores *logical* write records — `(Key, Op)` pairs — so that every
//! operation registered in the [`doppel_common::split_ops`] registry (Add,
//! Max, Min, Mult, OPut, TopKInsert, BitOr, BoundedAdd, SetUnion) can be
//! replayed through its own [`doppel_common::Op::apply_to`] semantics at
//! recovery. Checkpoints store *physical* `(Key, Value)` pairs.
//!
//! The encoding is a fixed little-endian format, not serde: the log must be
//! byte-stable across runs (CRCs are computed over these bytes) and torn
//! records must be detectable by length alone. Keys, values and the
//! primitives live in [`doppel_common::codec`] (argument vectors are held in
//! that form) and are re-exported here; this module adds the operations.

use doppel_common::{Args, ArgsRef, IntSet, Op};

pub use doppel_common::codec::{
    decode_key, decode_value, encode_key, encode_value, put_i64, put_slice, put_u32, put_u64,
    put_u8, CodecError, Dec,
};
use doppel_common::codec::{decode_tuple, encode_tuple, put_i64s};

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------- operations

const OP_PUT: u8 = 0;
const OP_MAX: u8 = 1;
const OP_MIN: u8 = 2;
const OP_ADD: u8 = 3;
const OP_MULT: u8 = 4;
const OP_OPUT: u8 = 5;
const OP_TOPK: u8 = 6;
const OP_BITOR: u8 = 7;
const OP_BOUNDED_ADD: u8 = 8;
const OP_SET_UNION: u8 = 9;

/// Encodes an operation. Every registered splittable operation plus `Put` is
/// covered; an operation kind added tomorrow fails to compile here, which is
/// exactly the reminder to extend the log format.
pub fn encode_op(buf: &mut Vec<u8>, op: &Op) {
    match op {
        Op::Put(v) => {
            put_u8(buf, OP_PUT);
            encode_value(buf, v);
        }
        Op::Max(n) => {
            put_u8(buf, OP_MAX);
            put_i64(buf, *n);
        }
        Op::Min(n) => {
            put_u8(buf, OP_MIN);
            put_i64(buf, *n);
        }
        Op::Add(n) => {
            put_u8(buf, OP_ADD);
            put_i64(buf, *n);
        }
        Op::Mult(n) => {
            put_u8(buf, OP_MULT);
            put_i64(buf, *n);
        }
        Op::OPut { order, core, payload } => {
            put_u8(buf, OP_OPUT);
            encode_tuple(buf, order, *core, payload);
        }
        Op::TopKInsert { order, core, payload, k } => {
            put_u8(buf, OP_TOPK);
            put_u64(buf, *k as u64);
            encode_tuple(buf, order, *core, payload);
        }
        Op::BitOr(n) => {
            put_u8(buf, OP_BITOR);
            put_i64(buf, *n);
        }
        Op::BoundedAdd { n, bound } => {
            put_u8(buf, OP_BOUNDED_ADD);
            put_i64(buf, *n);
            put_i64(buf, *bound);
        }
        Op::SetUnion(s) => {
            put_u8(buf, OP_SET_UNION);
            put_i64s(buf, s.len(), s.iter());
        }
    }
}

/// Decodes an operation.
pub fn decode_op(d: &mut Dec<'_>) -> Result<Op> {
    match d.u8()? {
        OP_PUT => Ok(Op::Put(decode_value(d)?)),
        OP_MAX => Ok(Op::Max(d.i64()?)),
        OP_MIN => Ok(Op::Min(d.i64()?)),
        OP_ADD => Ok(Op::Add(d.i64()?)),
        OP_MULT => Ok(Op::Mult(d.i64()?)),
        OP_OPUT => {
            let (order, core, payload) = decode_tuple(d)?;
            Ok(Op::OPut { order, core, payload })
        }
        OP_TOPK => {
            let k = d.u64()? as usize;
            let (order, core, payload) = decode_tuple(d)?;
            Ok(Op::TopKInsert { order, core, payload, k })
        }
        OP_BITOR => Ok(Op::BitOr(d.i64()?)),
        OP_BOUNDED_ADD => {
            let n = d.i64()?;
            let bound = d.i64()?;
            Ok(Op::BoundedAdd { n, bound })
        }
        OP_SET_UNION => Ok(Op::SetUnion(d.i64s()?.collect::<IntSet>())),
        _ => Err(CodecError("unknown op tag")),
    }
}

// --------------------------------------------------- procedure args/results

/// Appends a procedure argument / result vector. An [`Args`] is held in its
/// wire form (see [`doppel_common::proc`]), so this is the count and one copy
/// of the element bytes.
pub fn encode_args(buf: &mut Vec<u8>, args: &Args) {
    args.encode(buf);
}

/// Decodes (and validates) a procedure argument / result vector into an
/// owned [`Args`]; [`ArgsRef::decode`] is the borrowed form.
pub fn decode_args(d: &mut Dec<'_>) -> Result<Args> {
    Ok(ArgsRef::decode(d)?.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use doppel_common::{Key, OpKind, OrderKey, Table, Value};

    fn roundtrip_op(op: &Op) -> Op {
        let mut buf = Vec::new();
        encode_op(&mut buf, op);
        let mut d = Dec::new(&buf);
        let back = decode_op(&mut d).unwrap();
        assert!(d.is_done(), "{op:?} left trailing bytes");
        back
    }

    /// One concrete op per registered splittable kind (plus Put), so the
    /// roundtrip test enumerates the registry rather than a hand-kept list.
    fn op_for_kind(kind: OpKind) -> Op {
        match kind {
            OpKind::Max => Op::Max(-3),
            OpKind::Min => Op::Min(12),
            OpKind::Add => Op::Add(7),
            OpKind::Mult => Op::Mult(2),
            OpKind::BitOr => Op::BitOr(0b1010),
            OpKind::BoundedAdd => Op::BoundedAdd { n: 4, bound: 100 },
            OpKind::SetUnion => Op::SetUnion([5, -2, 9].into_iter().collect()),
            OpKind::OPut => Op::OPut {
                order: OrderKey::pair(10, 3),
                core: 2,
                payload: Bytes::copy_from_slice(b"payload"),
            },
            OpKind::TopKInsert => Op::TopKInsert {
                order: OrderKey::from(8),
                core: 1,
                payload: Bytes::copy_from_slice(b"t"),
                k: 5,
            },
            other => panic!("{other} has no splittable encoding"),
        }
    }

    #[test]
    fn every_registered_split_op_roundtrips() {
        for kind in OpKind::ALL.iter().filter(|k| k.splittable()) {
            let op = op_for_kind(*kind);
            assert_eq!(roundtrip_op(&op), op, "{kind} must roundtrip");
        }
        let put = Op::Put(Value::from("row"));
        assert_eq!(roundtrip_op(&put), put);
    }

    #[test]
    fn truncated_bytes_error_instead_of_panicking() {
        let mut buf = Vec::new();
        encode_op(&mut buf, &Op::SetUnion([1, 2, 3].into_iter().collect()));
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            assert!(decode_op(&mut d).is_err(), "prefix of length {cut} must fail");
        }
    }

    #[test]
    fn unknown_tags_are_errors() {
        let mut d = Dec::new(&[0xFF]);
        assert_eq!(decode_op(&mut d), Err(CodecError("unknown op tag")));
    }

    #[test]
    fn args_roundtrip_every_element_kind() {
        let args = Args::new()
            .int(-77)
            .key(Key::new(Table::RubisMaxBid, 9, 1))
            .value(Value::Set([3, 5].into_iter().collect()))
            .bytes(b"blob".as_ref())
            .str("rubis.store_bid");
        let mut buf = Vec::new();
        encode_args(&mut buf, &args);
        let mut d = Dec::new(&buf);
        assert_eq!(decode_args(&mut d).unwrap(), args);
        assert!(d.is_done());

        let empty = Args::new();
        let mut buf = Vec::new();
        encode_args(&mut buf, &empty);
        assert_eq!(decode_args(&mut Dec::new(&buf)).unwrap(), empty);
    }

    #[test]
    fn truncated_args_error_instead_of_panicking() {
        let args = Args::new().str("name").int(4).bytes(b"xy".as_ref());
        let mut buf = Vec::new();
        encode_args(&mut buf, &args);
        for cut in 0..buf.len() {
            let mut d = Dec::new(&buf[..cut]);
            assert!(decode_args(&mut d).is_err(), "prefix of length {cut} must fail");
        }
        // Corrupt count and bad utf-8 are typed errors.
        let mut d = Dec::new(&[0xFF, 0xFF, 0xFF, 0xFF]);
        assert!(decode_args(&mut d).is_err());
        let bad_utf8 = [1, 0, 0, 0, 4, 2, 0, 0, 0, 0xFF, 0xFE];
        assert!(decode_args(&mut Dec::new(&bad_utf8)).is_err());
    }

    #[test]
    fn empty_order_key_is_rejected() {
        // count = 0 components.
        let buf = [OP_OPUT, 0, 0, 0, 0];
        let mut d = Dec::new(&buf);
        assert!(decode_op(&mut d).is_err());
    }
}
