//! Byte encoding of keys and values.
//!
//! A fixed little-endian format, not serde: the write-ahead log computes CRCs
//! over these bytes, the wire protocol ships them, and procedure argument
//! vectors ([`crate::proc`]) are *held* in this form, so it must be
//! byte-stable across runs and torn or hostile input must be detectable by
//! tag and length alone. `doppel_wal::codec` re-exports everything here and
//! adds the operation codec on top.

use crate::key::{Key, Table};
use crate::ops::OrderKey;
use crate::value::{IntSet, OrderedTuple, TopKSet, Value};
use bytes::Bytes;
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

/// Where encoded bytes go: a `Vec<u8>`, or the inline buffer of an
/// [`crate::Args`].
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

pub fn put_u8(buf: &mut impl Sink, v: u8) {
    buf.put(&[v]);
}

pub fn put_u32(buf: &mut impl Sink, v: u32) {
    buf.put(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut impl Sink, v: u64) {
    buf.put(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut impl Sink, v: i64) {
    buf.put(&v.to_le_bytes());
}

pub fn put_slice(buf: &mut impl Sink, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.put(v);
}

/// A count followed by that many integers.
pub fn put_i64s(buf: &mut impl Sink, len: usize, it: impl Iterator<Item = i64>) {
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

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The bytes consumed since [`Dec::position`] was `start`.
    pub fn since(&self, start: usize) -> &'a [u8] {
        &self.buf[start.min(self.pos)..self.pos]
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

    /// A count followed by that many integers, borrowed from the input as
    /// their raw bytes (`8 * count` of them): the bound on the count is the
    /// input itself, so a corrupt length cannot trigger a huge allocation.
    fn i64s_raw(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        let bytes = len.checked_mul(8).ok_or(CodecError("integer sequence longer than record"))?;
        self.take(bytes).map_err(|_| CodecError("integer sequence longer than record"))
    }

    /// A count followed by that many integers.
    pub fn i64s(&mut self) -> Result<impl ExactSizeIterator<Item = i64> + 'a> {
        Ok(self
            .i64s_raw()?
            .chunks_exact(8)
            .map(|c| i64::from_le_bytes(c.try_into().expect("8 bytes"))))
    }
}

// ---------------------------------------------------------------------- keys

pub fn encode_key(buf: &mut impl Sink, k: Key) {
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

/// Encodes an ordered tuple's parts (also the body of `OPut` / `TopKInsert`).
pub fn encode_tuple(buf: &mut impl Sink, order: &OrderKey, core: usize, payload: &Bytes) {
    put_i64s(buf, order.components().len(), order.components().iter().copied());
    put_u64(buf, core as u64);
    put_slice(buf, payload.as_ref());
}

/// Decodes an ordered tuple's parts.
pub fn decode_tuple(d: &mut Dec<'_>) -> Result<(OrderKey, usize, Bytes)> {
    let order = OrderKey::new(d.i64s()?).map_err(|_| CodecError("empty order key"))?;
    let core = d.u64()? as usize;
    let payload = d.bytes()?;
    Ok((order, core, payload))
}

fn skip_tuple(d: &mut Dec<'_>) -> Result<()> {
    if d.i64s_raw()?.is_empty() {
        return Err(CodecError("empty order key"));
    }
    d.u64()?;
    d.slice()?;
    Ok(())
}

/// Encodes a value (checkpoint entries, `Put` arguments).
pub fn encode_value(buf: &mut impl Sink, v: &Value) {
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
            Ok(Value::Tuple(OrderedTuple::new(order, core, payload)))
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
        VAL_SET => Ok(Value::Set(d.i64s()?.collect::<IntSet>())),
        _ => Err(CodecError("unknown value tag")),
    }
}

/// Steps over one encoded value without building it: succeeds exactly when
/// [`decode_value`] would, allocates nothing, and reads each byte once — a
/// claimed count is bounded by the bytes that must follow it.
pub fn skip_value(d: &mut Dec<'_>) -> Result<()> {
    match d.u8()? {
        VAL_INT => d.i64().map(drop),
        VAL_BYTES => d.slice().map(drop),
        VAL_TUPLE => skip_tuple(d),
        VAL_TOPK => {
            d.u64()?;
            for _ in 0..d.u32()? {
                skip_tuple(d)?;
            }
            Ok(())
        }
        VAL_SET => d.i64s_raw().map(drop),
        _ => Err(CodecError("unknown value tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_value(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(&mut buf, v);
        let mut skipped = Dec::new(&buf);
        skip_value(&mut skipped).unwrap();
        assert!(skipped.is_done(), "skip_value must step over exactly one value");
        let mut d = Dec::new(&buf);
        let back = decode_value(&mut d).unwrap();
        assert!(d.is_done());
        back
    }

    fn sample_values() -> Vec<Value> {
        let mut topk = TopKSet::new(3);
        topk.insert(OrderKey::pair(5, 1), 0, b"a".as_ref());
        topk.insert(OrderKey::pair(9, 0), 2, b"b".as_ref());
        vec![
            Value::Int(-99),
            Value::from("bytes-value"),
            Value::Tuple(OrderedTuple::new(OrderKey::from(4), 3, b"p".as_ref())),
            Value::TopK(topk),
            Value::Set([1, 2, 3].into_iter().collect()),
        ]
    }

    #[test]
    fn values_roundtrip() {
        for v in sample_values() {
            assert_eq!(roundtrip_value(&v), v);
        }
    }

    #[test]
    fn skip_and_decode_agree_on_every_truncation() {
        for v in sample_values() {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            for cut in 0..buf.len() {
                assert!(skip_value(&mut Dec::new(&buf[..cut])).is_err(), "{v}: prefix {cut}");
                assert!(decode_value(&mut Dec::new(&buf[..cut])).is_err(), "{v}: prefix {cut}");
            }
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
    fn unknown_tags_and_hostile_counts_are_errors() {
        assert_eq!(decode_value(&mut Dec::new(&[0xFF])), Err(CodecError("unknown value tag")));
        assert_eq!(skip_value(&mut Dec::new(&[0xFF])), Err(CodecError("unknown value tag")));
        assert!(decode_key(&mut Dec::new(&[0xFF; 16])).is_err());
        // A set claiming u32::MAX members, a top-K claiming u32::MAX entries
        // and a tuple with no order components.
        let set = [VAL_SET, 0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3];
        assert!(skip_value(&mut Dec::new(&set)).is_err());
        assert!(decode_value(&mut Dec::new(&set)).is_err());
        let mut topk = vec![VAL_TOPK];
        put_u64(&mut topk, 4);
        put_u32(&mut topk, u32::MAX);
        assert!(skip_value(&mut Dec::new(&topk)).is_err());
        assert!(decode_value(&mut Dec::new(&topk)).is_err());
        let tuple = [VAL_TUPLE, 0, 0, 0, 0];
        assert!(skip_value(&mut Dec::new(&tuple)).is_err());
        assert!(decode_value(&mut Dec::new(&tuple)).is_err());
    }
}
