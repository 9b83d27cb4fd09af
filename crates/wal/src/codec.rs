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
//! records must be detectable by length alone.

use bytes::Bytes;
use doppel_common::{ArgValue, Args, IntSet, Key, Op, OrderKey, Table, TopKSet, Value};
use std::fmt;

/// Decoding error: corrupt or truncated bytes.
///
/// During recovery a `CodecError` in the *last* record of the log is a torn
/// write (expected after a crash); anywhere else it is corruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub &'static str);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type Result<T> = std::result::Result<T, CodecError>;

// ---------------------------------------------------------------- primitives

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_slice(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

fn put_i64s(buf: &mut Vec<u8>, len: usize, it: impl Iterator<Item = i64>) {
    put_u32(buf, len as u32);
    for v in it {
        put_i64(buf, v);
    }
}

/// A cursor over encoded bytes.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    pub fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Bytes left to decode (used for corrupt-length sanity caps).
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(CodecError("unexpected end of record"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn bytes(&mut self) -> Result<Bytes> {
        Ok(Bytes::copy_from_slice(self.slice()?))
    }

    /// A length-prefixed byte string borrowed from the input (no copy).
    pub fn slice(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn i64s(&mut self) -> Result<Vec<i64>> {
        let len = self.u32()? as usize;
        // Cheap sanity bound so a corrupt length cannot trigger a huge
        // allocation before the CRC check would have caught it.
        if len > self.buf.len() - self.pos {
            return Err(CodecError("integer sequence longer than record"));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.i64()?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------- keys

pub fn encode_key(buf: &mut Vec<u8>, k: Key) {
    put_u32(buf, k.table() as u32);
    put_u64(buf, k.id());
    put_u32(buf, k.sub());
}

fn table_from_u32(tag: u32) -> Result<Table> {
    Table::ALL
        .iter()
        .copied()
        .find(|t| *t as u32 == tag)
        .ok_or(CodecError("unknown table tag"))
}

pub fn decode_key(d: &mut Dec<'_>) -> Result<Key> {
    let table = table_from_u32(d.u32()?)?;
    let id = d.u64()?;
    let sub = d.u32()?;
    Ok(Key::new(table, id, sub))
}

// -------------------------------------------------------------------- values

const VAL_INT: u8 = 0;
const VAL_BYTES: u8 = 1;
const VAL_TUPLE: u8 = 2;
const VAL_TOPK: u8 = 3;
const VAL_SET: u8 = 4;

fn encode_order_key(buf: &mut Vec<u8>, o: &OrderKey) {
    put_i64s(buf, o.components().len(), o.components().iter().copied());
}

fn decode_order_key(d: &mut Dec<'_>) -> Result<OrderKey> {
    OrderKey::new(d.i64s()?).map_err(|_| CodecError("empty order key"))
}

fn encode_tuple(buf: &mut Vec<u8>, order: &OrderKey, core: usize, payload: &Bytes) {
    encode_order_key(buf, order);
    put_u64(buf, core as u64);
    put_slice(buf, payload.as_ref());
}

fn decode_tuple(d: &mut Dec<'_>) -> Result<(OrderKey, usize, Bytes)> {
    let order = decode_order_key(d)?;
    let core = d.u64()? as usize;
    let payload = d.bytes()?;
    Ok((order, core, payload))
}

/// Encodes a value (checkpoint entries, `Put` arguments).
pub fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int(n) => {
            put_u8(buf, VAL_INT);
            put_i64(buf, *n);
        }
        Value::Bytes(b) => {
            put_u8(buf, VAL_BYTES);
            put_slice(buf, b.as_ref());
        }
        Value::Tuple(t) => {
            put_u8(buf, VAL_TUPLE);
            encode_tuple(buf, &t.order, t.core, &t.payload);
        }
        Value::TopK(t) => {
            put_u8(buf, VAL_TOPK);
            put_u64(buf, t.capacity() as u64);
            put_u32(buf, t.len() as u32);
            for e in t.iter() {
                encode_tuple(buf, &e.order, e.core, &e.payload);
            }
        }
        Value::Set(s) => {
            put_u8(buf, VAL_SET);
            put_i64s(buf, s.len(), s.iter());
        }
    }
}

/// Decodes a value.
pub fn decode_value(d: &mut Dec<'_>) -> Result<Value> {
    match d.u8()? {
        VAL_INT => Ok(Value::Int(d.i64()?)),
        VAL_BYTES => Ok(Value::Bytes(d.bytes()?)),
        VAL_TUPLE => {
            let (order, core, payload) = decode_tuple(d)?;
            Ok(Value::Tuple(doppel_common::OrderedTuple::new(order, core, payload)))
        }
        VAL_TOPK => {
            let k = d.u64()? as usize;
            let n = d.u32()?;
            let mut set = TopKSet::new(k);
            for _ in 0..n {
                let (order, core, payload) = decode_tuple(d)?;
                set.insert(order, core, payload);
            }
            Ok(Value::TopK(set))
        }
        VAL_SET => Ok(Value::Set(d.i64s()?.into_iter().collect::<IntSet>())),
        _ => Err(CodecError("unknown value tag")),
    }
}

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
        OP_SET_UNION => Ok(Op::SetUnion(d.i64s()?.into_iter().collect::<IntSet>())),
        _ => Err(CodecError("unknown op tag")),
    }
}

// --------------------------------------------------- procedure args/results

const ARG_INT: u8 = 0;
const ARG_KEY: u8 = 1;
const ARG_VALUE: u8 = 2;
const ARG_BYTES: u8 = 3;
const ARG_STR: u8 = 4;

/// Encodes one element of an argument / result vector.
pub fn encode_arg(buf: &mut Vec<u8>, a: &ArgValue) {
    match a {
        ArgValue::Int(n) => {
            put_u8(buf, ARG_INT);
            put_i64(buf, *n);
        }
        ArgValue::Key(k) => {
            put_u8(buf, ARG_KEY);
            encode_key(buf, *k);
        }
        ArgValue::Value(v) => {
            put_u8(buf, ARG_VALUE);
            encode_value(buf, v);
        }
        ArgValue::Bytes(b) => {
            put_u8(buf, ARG_BYTES);
            put_slice(buf, b.as_ref());
        }
        ArgValue::Str(s) => {
            put_u8(buf, ARG_STR);
            put_slice(buf, s.as_bytes());
        }
    }
}

/// Decodes one element of an argument / result vector.
pub fn decode_arg(d: &mut Dec<'_>) -> Result<ArgValue> {
    match d.u8()? {
        ARG_INT => Ok(ArgValue::Int(d.i64()?)),
        ARG_KEY => Ok(ArgValue::Key(decode_key(d)?)),
        ARG_VALUE => Ok(ArgValue::Value(decode_value(d)?)),
        ARG_BYTES => Ok(ArgValue::Bytes(d.bytes()?)),
        ARG_STR => {
            let b = d.bytes()?;
            String::from_utf8(b.to_vec())
                .map(ArgValue::Str)
                .map_err(|_| CodecError("argument string is not utf-8"))
        }
        _ => Err(CodecError("unknown argument tag")),
    }
}

/// Encodes a self-describing procedure argument / result vector
/// ([`doppel_common::Args`] / [`doppel_common::ProcResult`]).
pub fn encode_args(buf: &mut Vec<u8>, args: &Args) {
    put_u32(buf, args.len() as u32);
    for a in args.iter() {
        encode_arg(buf, a);
    }
}

/// Decodes a procedure argument / result vector.
pub fn decode_args(d: &mut Dec<'_>) -> Result<Args> {
    let n = d.u32()? as usize;
    // The smallest element (an empty Bytes/Str) encodes to 5 bytes, so a
    // count the buffer cannot possibly hold is corrupt. Unlike the WAL
    // paths there is no CRC upstream of a wire `InvokeProc`, so this cap is
    // what keeps a hostile count header from reserving gigabytes before the
    // first element fails to decode.
    if n > d.remaining() / 5 {
        return Err(CodecError("argument count longer than record"));
    }
    let mut vals = Vec::with_capacity(n);
    for _ in 0..n {
        vals.push(decode_arg(d)?);
    }
    Ok(Args::from_vec(vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doppel_common::{OpKind, OrderedTuple};

    fn roundtrip_op(op: &Op) -> Op {
        let mut buf = Vec::new();
        encode_op(&mut buf, op);
        let mut d = Dec::new(&buf);
        let back = decode_op(&mut d).unwrap();
        assert!(d.is_done(), "{op:?} left trailing bytes");
        back
    }

    fn roundtrip_value(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&mut buf, v);
        let mut d = Dec::new(&buf);
        let back = decode_value(&mut d).unwrap();
        assert!(d.is_done());
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
    fn values_roundtrip() {
        let mut topk = TopKSet::new(3);
        topk.insert(OrderKey::pair(5, 1), 0, b"a".as_ref());
        topk.insert(OrderKey::pair(9, 0), 2, b"b".as_ref());
        let values = vec![
            Value::Int(-99),
            Value::from("bytes-value"),
            Value::Tuple(OrderedTuple::new(OrderKey::from(4), 3, b"p".as_ref())),
            Value::TopK(topk),
            Value::Set([1, 2, 3].into_iter().collect()),
        ];
        for v in values {
            assert_eq!(roundtrip_value(&v), v);
        }
    }

    #[test]
    fn keys_roundtrip_across_tables() {
        for table in Table::ALL {
            let k = Key::new(*table, 0xDEAD_BEEF, 7);
            let mut buf = Vec::new();
            encode_key(&mut buf, k);
            let mut d = Dec::new(&buf);
            assert_eq!(decode_key(&mut d).unwrap(), k);
        }
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
        let mut d = Dec::new(&[0xFF]);
        assert_eq!(decode_value(&mut d), Err(CodecError("unknown value tag")));
        let mut d = Dec::new(&[0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(decode_key(&mut d).is_err());
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
        let bad_utf8 = [1, 0, 0, 0, ARG_STR, 2, 0, 0, 0, 0xFF, 0xFE];
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
