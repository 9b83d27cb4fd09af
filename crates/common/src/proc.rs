//! Stored procedures: the registry, and the argument vectors calls carry.
//!
//! The paper's transaction model is *procedures known to the system in
//! advance* (§3: "clients submit transactions in the form of procedures") —
//! that is what lets Doppel classify contended records and choose split
//! operations per transaction type. This module makes that model a first-class
//! API surface:
//!
//! * [`ProcRegistry`] maps a stable [`ProcId`] / name to a typed procedure
//!   body `Fn(&mut TxCtx, ArgsRef<'_>) -> Result<ProcResult, TxError>`;
//!   [`ProcRegistry::run`] executes an entry against borrowed arguments, which
//!   is how a serving loop runs a call straight out of the frame it arrived in;
//! * [`Args`] / [`ProcResult`] / [`ArgsRef`] are the self-describing argument
//!   and result vectors (ints, keys, values, byte blobs, strings);
//! * [`RegisteredCall`] binds a registry entry to one owned argument vector
//!   and implements [`Procedure`], so a registered invocation can be queued,
//!   stashed and replayed like any closure transaction;
//! * [`ProcStats`] counts per-procedure invocations, commits, aborts and
//!   stash-deferrals.
//!
//! Remote clients name procedures instead of shipping statements, so
//! transactions with read-dependent logic (all of RUBiS's `StoreBid` /
//! `ViewItem` family) can run over the network.
//!
//! # Argument vectors stay in wire form
//!
//! A vector *is* its encoding. On the wire (and in `loadgen.input_hash`, and
//! in any logged call) it is a count followed by the elements:
//!
//! ```text
//! args    := count:u32 element*            all integers little-endian
//! element := tag:u8 body
//! ```
//!
//! | tag | kind    | body                                                   |
//! |-----|---------|--------------------------------------------------------|
//! | 0   | `int`   | `i64`                                                  |
//! | 1   | `key`   | `table:u32 id:u64 sub:u32` ([`crate::codec::encode_key`]) |
//! | 2   | `value` | one [`Value`] ([`crate::codec::encode_value`])         |
//! | 3   | `bytes` | `len:u32` then `len` bytes                             |
//! | 4   | `str`   | `len:u32` then `len` bytes of UTF-8                    |
//!
//! [`Args`] owns the element bytes: inline up to [`INLINE_ARG_BYTES`] (six
//! ints, or two keys and an int, or a short string among ints — building,
//! cloning and returning such a vector never touches the heap), in a
//! `Vec<u8>` beyond. [`ArgsRef`] borrows the same bytes from wherever they
//! already lie — an `Args`, or the frame a serving loop is reading — and both
//! share the typed accessors, which read the element in place: strings and
//! blobs come back as slices of the underlying bytes, values are decoded on
//! request. [`ArgValue`], [`Args::from_vec`], `iter()` and the chainable
//! builders are the element-wise view; they encode and decode on the fly.
//!
//! # Hostile input
//!
//! Bytes from outside become an [`ArgsRef`] in exactly one place,
//! [`ArgsRef::decode`], which validates the whole vector **once** in one pass
//! bounded by the input's length: the count must fit the bytes that follow,
//! every tag must be known, every length must stay inside the input, every
//! table tag and nested value must be well-formed, every string must be UTF-8.
//! Anything else is an `Err`; nothing is allocated, least of all in
//! proportion to a claimed count. The pass records where the first
//! [`INDEXED_ARGS`] elements start, so accessors are O(1) and — on bytes that
//! passed — cannot fail for any reason but the caller's own: a wrong kind or a
//! missing index is a typed, non-retryable [`TxError::UserAbort`], never a
//! panic.

use crate::codec::{
    decode_key, decode_value, encode_key, encode_value, put_i64, put_slice, put_u32, put_u8,
    skip_value, CodecError, Dec, Sink,
};
use crate::engine::{Procedure, Tx};
use crate::error::TxError;
use crate::key::Key;
use crate::value::Value;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Stable identifier of a registered procedure: its registration index.
///
/// Ids are dense (`0..registry.len()`), so per-procedure state can live in
/// plain vectors. The *name* is the wire-stable identity; ids are stable only
/// within one registry instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

const ARG_INT: u8 = 0;
const ARG_KEY: u8 = 1;
const ARG_VALUE: u8 = 2;
const ARG_BYTES: u8 = 3;
const ARG_STR: u8 = 4;

/// One element of an [`Args`] / [`ProcResult`] vector, decoded.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// A signed integer (also used for ids and booleans).
    Int(i64),
    /// A record key.
    Key(Key),
    /// A typed store value (any [`Value`] variant).
    Value(Value),
    /// An opaque byte blob.
    Bytes(Bytes),
    /// A UTF-8 string.
    Str(String),
}

impl ArgValue {
    /// Short tag name used in error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ArgValue::Int(_) => "int",
            ArgValue::Key(_) => "key",
            ArgValue::Value(_) => "value",
            ArgValue::Bytes(_) => "bytes",
            ArgValue::Str(_) => "str",
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<ArgValue, CodecError> {
        Ok(match d.u8()? {
            ARG_INT => ArgValue::Int(d.i64()?),
            ARG_KEY => ArgValue::Key(decode_key(d)?),
            ARG_VALUE => ArgValue::Value(decode_value(d)?),
            ARG_BYTES => ArgValue::Bytes(d.bytes()?),
            ARG_STR => ArgValue::Str(str_body(d)?.to_owned()),
            _ => return Err(CodecError("unknown argument tag")),
        })
    }
}

fn str_body<'a>(d: &mut Dec<'a>) -> Result<&'a str, CodecError> {
    std::str::from_utf8(d.slice()?).map_err(|_| CodecError("argument string is not utf-8"))
}

/// Steps over one element, checking everything about it that decoding it
/// would, and returns its tag: this is both the validation of
/// [`ArgsRef::decode`] and the walk to an element past the indexed ones.
fn skip_element(d: &mut Dec<'_>) -> Result<u8, CodecError> {
    let tag = d.u8()?;
    match tag {
        ARG_INT => d.i64().map(drop),
        ARG_KEY => decode_key(d).map(drop),
        ARG_VALUE => skip_value(d),
        ARG_BYTES => d.slice().map(drop),
        ARG_STR => str_body(d).map(drop),
        _ => Err(CodecError("unknown argument tag")),
    }?;
    Ok(tag)
}

/// Element bytes an [`Args`] holds without touching the heap.
pub const INLINE_ARG_BYTES: usize = 54;

/// Elements whose position [`ArgsRef`] records, making their accessors O(1);
/// later ones are reached by stepping over the elements in between.
pub const INDEXED_ARGS: usize = 8;

#[derive(Clone)]
enum Buf {
    Inline { len: u8, bytes: [u8; INLINE_ARG_BYTES] },
    Heap(Vec<u8>),
}

impl Buf {
    fn as_slice(&self) -> &[u8] {
        match self {
            Buf::Inline { len, bytes } => &bytes[..*len as usize],
            Buf::Heap(v) => v,
        }
    }
}

impl Sink for Buf {
    fn put(&mut self, src: &[u8]) {
        match self {
            Buf::Inline { len, bytes } => {
                let at = *len as usize;
                match bytes.get_mut(at..at + src.len()) {
                    Some(dst) => {
                        dst.copy_from_slice(src);
                        *len += src.len() as u8;
                    }
                    None => {
                        let mut spilled = Vec::with_capacity(at + src.len());
                        spilled.extend_from_slice(&bytes[..at]);
                        spilled.extend_from_slice(src);
                        *self = Buf::Heap(spilled);
                    }
                }
            }
            Buf::Heap(v) => v.extend_from_slice(src),
        }
    }
}

/// A self-describing argument (or result) vector, owned, in wire form (see
/// the module docs).
///
/// Built with the chainable constructors, read with the typed accessors;
/// accessor failures surface as non-retryable [`TxError::UserAbort`]s so a
/// malformed remote invocation aborts cleanly instead of panicking a worker.
///
/// # Examples
///
/// ```
/// use doppel_common::{Args, Key};
///
/// let args = Args::new().key(Key::raw(7)).int(42).str("hello");
/// assert_eq!(args.get_int(1).unwrap(), 42);
/// assert_eq!(args.get_key(0).unwrap(), Key::raw(7));
/// assert!(args.get_int(5).is_err(), "missing index is a typed error");
/// ```
#[derive(Clone)]
pub struct Args {
    count: u32,
    buf: Buf,
}

/// Result vector of a procedure: same shape and codec as [`Args`].
pub type ProcResult = Args;

impl Default for Args {
    fn default() -> Self {
        Args { count: 0, buf: Buf::Inline { len: 0, bytes: [0; INLINE_ARG_BYTES] } }
    }
}

impl PartialEq for Args {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.buf.as_slice() == other.buf.as_slice()
    }
}

impl fmt::Debug for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

impl Args {
    /// An empty vector.
    pub fn new() -> Self {
        Args::default()
    }

    /// Encodes an element vector.
    pub fn from_vec(vals: Vec<ArgValue>) -> Self {
        vals.into_iter().fold(Args::new(), |args, v| match v {
            ArgValue::Int(n) => args.int(n),
            ArgValue::Key(k) => args.key(k),
            ArgValue::Value(v) => args.value(v),
            ArgValue::Bytes(b) => args.bytes(b),
            ArgValue::Str(s) => args.str(s),
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The borrowed view of this vector.
    pub fn as_ref(&self) -> ArgsRef<'_> {
        ArgsRef::scan(self.count, &mut Dec::new(self.buf.as_slice()))
            .expect("an Args holds only what its builders or a validating decode wrote")
    }

    /// Appends this vector in wire form: the count, then the element bytes.
    pub fn encode(&self, buf: &mut impl Sink) {
        put_u32(buf, self.count);
        buf.put(self.buf.as_slice());
    }

    /// The elements, decoded in order.
    pub fn iter(&self) -> impl Iterator<Item = ArgValue> + '_ {
        self.as_ref().iter()
    }

    /// The element at `i`, decoded.
    pub fn get(&self, i: usize) -> Option<ArgValue> {
        self.as_ref().get(i)
    }

    fn with_element(mut self, tag: u8, body: impl FnOnce(&mut Buf)) -> Self {
        put_u8(&mut self.buf, tag);
        body(&mut self.buf);
        self.count += 1;
        self
    }

    /// Appends an integer.
    pub fn int(self, n: i64) -> Self {
        self.with_element(ARG_INT, |buf| put_i64(buf, n))
    }

    /// Appends an unsigned id (stored as an int; ids in this workspace stay
    /// well below `i64::MAX`).
    pub fn uint(self, n: u64) -> Self {
        self.int(n as i64)
    }

    /// Appends a key.
    pub fn key(self, k: Key) -> Self {
        self.with_element(ARG_KEY, |buf| encode_key(buf, k))
    }

    /// Appends a store value.
    pub fn value(self, v: impl std::borrow::Borrow<Value>) -> Self {
        self.with_element(ARG_VALUE, |buf| encode_value(buf, v.borrow()))
    }

    /// Appends a byte blob.
    pub fn bytes(self, b: impl AsRef<[u8]>) -> Self {
        self.with_element(ARG_BYTES, |buf| put_slice(buf, b.as_ref()))
    }

    /// Appends a string.
    pub fn str(self, s: impl AsRef<str>) -> Self {
        self.with_element(ARG_STR, |buf| put_slice(buf, s.as_ref().as_bytes()))
    }

    /// The integer at `i`.
    pub fn get_int(&self, i: usize) -> Result<i64, TxError> {
        self.as_ref().get_int(i)
    }

    /// The integer at `i` as an unsigned id.
    pub fn get_u64(&self, i: usize) -> Result<u64, TxError> {
        self.as_ref().get_u64(i)
    }

    /// The key at `i`.
    pub fn get_key(&self, i: usize) -> Result<Key, TxError> {
        self.as_ref().get_key(i)
    }

    /// The store value at `i`, decoded.
    pub fn get_value(&self, i: usize) -> Result<Value, TxError> {
        self.as_ref().get_value(i)
    }

    /// The byte blob at `i`.
    pub fn get_bytes(&self, i: usize) -> Result<&[u8], TxError> {
        self.as_ref().get_bytes(i)
    }

    /// The string at `i`.
    pub fn get_str(&self, i: usize) -> Result<&str, TxError> {
        self.as_ref().get_str(i)
    }
}

/// A borrowed argument vector: validated element bytes (see the module docs),
/// where the first [`INDEXED_ARGS`] of them start and which of those are keys.
/// `Copy`, and what a registered procedure body receives.
#[derive(Clone, Copy)]
pub struct ArgsRef<'a> {
    elems: &'a [u8],
    count: u32,
    offs: [u32; INDEXED_ARGS],
    /// Bit `i`: indexed element `i` is a key.
    keys: u8,
}

fn arg_error(reason: &'static str) -> TxError {
    TxError::UserAbort { reason }
}

impl<'a> ArgsRef<'a> {
    /// Decodes a vector from its wire form, validating all of it (the one
    /// place bytes from outside become arguments; see the module docs).
    pub fn decode(d: &mut Dec<'a>) -> Result<Self, CodecError> {
        let count = d.u32()?;
        // The smallest element (an empty blob or string) takes 5 bytes.
        if count as usize > d.remaining() / 5 {
            return Err(CodecError("argument count longer than record"));
        }
        ArgsRef::scan(count, d)
    }

    /// Steps `d` over `count` elements, validating each.
    fn scan(count: u32, d: &mut Dec<'a>) -> Result<Self, CodecError> {
        let start = d.position();
        let (mut offs, mut keys) = ([0; INDEXED_ARGS], 0);
        for i in 0..count as usize {
            let at = d.position() - start;
            let tag = skip_element(d)?;
            if let Some(slot) = offs.get_mut(i) {
                *slot = u32::try_from(at).map_err(|_| CodecError("argument vector too long"))?;
                keys |= u8::from(tag == ARG_KEY) << i;
            }
        }
        Ok(ArgsRef { elems: d.since(start), count, offs, keys })
    }

    /// The keys among the first [`INDEXED_ARGS`] elements, in order: what a
    /// serving loop can tell of the records a call will touch before running
    /// it (noted by the validating walk, so asking costs no second one).
    pub fn keys(&self) -> impl Iterator<Item = Key> + 'a {
        let (elems, offs, keys) = (self.elems, self.offs, self.keys);
        (0..INDEXED_ARGS).filter(move |i| keys >> i & 1 != 0).filter_map(move |i| {
            decode_key(&mut Dec::new(elems.get(offs[i] as usize + 1..)?)).ok()
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// An owned copy of the element bytes: inline when they fit, so a client
    /// decoding a small result allocates nothing.
    pub fn to_owned(&self) -> Args {
        let mut args = Args { count: self.count, ..Args::default() };
        args.buf.put(self.elems);
        args
    }

    /// Appends this vector in wire form: the count, then the element bytes.
    pub fn encode(&self, buf: &mut impl Sink) {
        put_u32(buf, self.count);
        buf.put(self.elems);
    }

    /// A cursor at element `i`'s tag.
    fn element(&self, i: usize) -> Option<Dec<'a>> {
        if i >= self.count as usize {
            return None;
        }
        let indexed = i.min(INDEXED_ARGS - 1);
        let mut d = Dec::new(self.elems.get(self.offs[indexed] as usize..)?);
        for _ in indexed..i {
            skip_element(&mut d).ok()?;
        }
        Some(d)
    }

    /// The elements, decoded in order.
    pub fn iter(&self) -> impl Iterator<Item = ArgValue> + 'a {
        let mut d = Dec::new(self.elems);
        (0..self.count).map_while(move |_| ArgValue::decode(&mut d).ok())
    }

    /// The element at `i`, decoded.
    pub fn get(&self, i: usize) -> Option<ArgValue> {
        ArgValue::decode(&mut self.element(i)?).ok()
    }

    /// The body of element `i` if it has tag `tag`; otherwise the typed abort
    /// saying which of the two it was.
    fn body(
        &self,
        i: usize,
        tag: u8,
        wrong_kind: &'static str,
        missing: &'static str,
    ) -> Result<Dec<'a>, TxError> {
        let mut d = self.element(i).ok_or(arg_error(missing))?;
        match d.u8() {
            Ok(t) if t == tag => Ok(d),
            _ => Err(arg_error(wrong_kind)),
        }
    }

    /// The integer at `i`.
    pub fn get_int(&self, i: usize) -> Result<i64, TxError> {
        self.body(i, ARG_INT, "procedure argument: expected int", "procedure argument: missing int")?
            .i64()
            .map_err(malformed)
    }

    /// The integer at `i` as an unsigned id.
    pub fn get_u64(&self, i: usize) -> Result<u64, TxError> {
        let n = self.get_int(i)?;
        u64::try_from(n).map_err(|_| arg_error("procedure argument: negative id"))
    }

    /// The key at `i`.
    pub fn get_key(&self, i: usize) -> Result<Key, TxError> {
        let mut d = self.body(
            i,
            ARG_KEY,
            "procedure argument: expected key",
            "procedure argument: missing key",
        )?;
        decode_key(&mut d).map_err(malformed)
    }

    /// The store value at `i`, decoded (an integer costs nothing; a blob,
    /// tuple, top-K or set value allocates what owning it takes).
    pub fn get_value(&self, i: usize) -> Result<Value, TxError> {
        let mut d = self.body(
            i,
            ARG_VALUE,
            "procedure argument: expected value",
            "procedure argument: missing value",
        )?;
        decode_value(&mut d).map_err(malformed)
    }

    /// The byte blob at `i`, borrowed from the underlying bytes.
    pub fn get_bytes(&self, i: usize) -> Result<&'a [u8], TxError> {
        self.body(
            i,
            ARG_BYTES,
            "procedure argument: expected bytes",
            "procedure argument: missing bytes",
        )?
        .slice()
        .map_err(malformed)
    }

    /// The string at `i`, borrowed from the underlying bytes.
    pub fn get_str(&self, i: usize) -> Result<&'a str, TxError> {
        let mut d = self.body(
            i,
            ARG_STR,
            "procedure argument: expected str",
            "procedure argument: missing str",
        )?;
        str_body(&mut d).map_err(malformed)
    }
}

/// Unreachable on an [`ArgsRef`], whose bytes were validated when it was
/// made; a typed abort all the same, because accessors never panic.
fn malformed(_: CodecError) -> TxError {
    arg_error("procedure argument: malformed encoding")
}

impl PartialEq for ArgsRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.elems == other.elems
    }
}

impl fmt::Debug for ArgsRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The execution context handed to a registered procedure body: the worker's
/// transaction interface. Derefs to [`Tx`], so procedure bodies use the same
/// `ctx.get` / `ctx.add` / `ctx.put` vocabulary as closure procedures.
pub struct TxCtx<'a> {
    tx: &'a mut dyn Tx,
}

impl<'a> TxCtx<'a> {
    /// Wraps a worker transaction.
    pub fn new(tx: &'a mut dyn Tx) -> Self {
        TxCtx { tx }
    }

    /// The underlying transaction interface.
    pub fn tx(&mut self) -> &mut dyn Tx {
        self.tx
    }
}

impl<'a> Deref for TxCtx<'a> {
    type Target = dyn Tx + 'a;

    fn deref(&self) -> &Self::Target {
        self.tx
    }
}

impl<'a> DerefMut for TxCtx<'a> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.tx
    }
}

/// A registered procedure body.
pub type ProcBody =
    dyn Fn(&mut TxCtx<'_>, ArgsRef<'_>) -> Result<ProcResult, TxError> + Send + Sync;

/// Number of counter stripes per procedure. Workers index stripes by
/// `core % STAT_STRIPES`, so on typical core counts every worker bumps its
/// own cache line.
const STAT_STRIPES: usize = 16;

/// One cache line of per-procedure counters.
#[derive(Debug, Default)]
#[repr(align(64))]
struct StatStripe {
    invocations: AtomicU64,
    commits: AtomicU64,
    aborts: AtomicU64,
    deferrals: AtomicU64,
}

/// Per-procedure counters, updated by the execution machinery:
///
/// * invocations — execution attempts of the body ([`ProcRegistry::run`]
///   bumps this on every run, so OCC retries and stash replays count);
/// * commits / aborts — final outcomes, maintained by the transaction
///   service's dispatch loop (the direct `TxHandle` path does not see
///   outcomes per procedure);
/// * deferrals — stash-deferrals by Doppel split phases, also maintained by
///   the service.
///
/// Counters are striped per core: the INCR-style microbenchmarks push
/// millions of invocations per second of *one* registered procedure from
/// every core, and a single shared cache line would reintroduce exactly the
/// contention those benchmarks measure the absence of.
#[derive(Debug, Default)]
pub struct ProcStats {
    stripes: [StatStripe; STAT_STRIPES],
}

impl ProcStats {
    #[inline]
    fn stripe(&self, core: crate::CoreId) -> &StatStripe {
        &self.stripes[core % STAT_STRIPES]
    }

    /// Records one body execution attempt on `core`.
    #[inline]
    pub fn note_invocation(&self, core: crate::CoreId) {
        self.stripe(core).invocations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a final outcome on `core` (service dispatch).
    pub fn note_outcome(&self, core: crate::CoreId, committed: bool) {
        let stripe = self.stripe(core);
        let counter = if committed { &stripe.commits } else { &stripe.aborts };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a stash-deferral on `core` (service dispatch).
    pub fn note_deferral(&self, core: crate::CoreId) {
        self.stripe(core).deferrals.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> ProcStatsSnapshot {
        let mut snap = ProcStatsSnapshot { name: name.to_string(), ..Default::default() };
        for stripe in &self.stripes {
            snap.invocations += stripe.invocations.load(Ordering::Relaxed);
            snap.commits += stripe.commits.load(Ordering::Relaxed);
            snap.aborts += stripe.aborts.load(Ordering::Relaxed);
            snap.deferrals += stripe.deferrals.load(Ordering::Relaxed);
        }
        snap
    }
}

/// Point-in-time copy of one procedure's [`ProcStats`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcStatsSnapshot {
    /// The procedure's registered name.
    pub name: String,
    /// Body execution attempts recorded (includes retries and replays).
    pub invocations: u64,
    /// Committed outcomes recorded (service path).
    pub commits: u64,
    /// Aborted outcomes recorded (service path).
    pub aborts: u64,
    /// Stash-deferrals recorded.
    pub deferrals: u64,
}

impl ProcStatsSnapshot {
    /// Counter-wise difference `self - earlier` (for per-run reporting when
    /// one registry outlives several runs).
    pub fn delta(&self, earlier: &ProcStatsSnapshot) -> ProcStatsSnapshot {
        ProcStatsSnapshot {
            name: self.name.clone(),
            invocations: self.invocations - earlier.invocations,
            commits: self.commits - earlier.commits,
            aborts: self.aborts - earlier.aborts,
            deferrals: self.deferrals - earlier.deferrals,
        }
    }
}

struct ProcEntry {
    name: &'static str,
    read_only: bool,
    body: Box<ProcBody>,
    stats: ProcStats,
}

/// The server-side procedure registry: stable names to typed bodies, plus
/// per-procedure statistics.
///
/// Registries are built mutably at startup (procedure *packs* are plain
/// functions taking `&mut ProcRegistry`), then shared immutably behind an
/// `Arc` by the service, the wire front-end and the workload generators.
///
/// # Examples
///
/// ```
/// use doppel_common::{Args, Key, ProcRegistry, Value};
/// use std::sync::Arc;
///
/// let mut reg = ProcRegistry::new();
/// let incr = reg.register("counter.incr", |ctx, args| {
///     ctx.add(args.get_key(0)?, args.get_int(1)?)?;
///     Ok(Args::new())
/// });
/// let reg = Arc::new(reg);
/// let call = reg.call(incr, Args::new().key(Key::raw(1)).int(5));
/// assert_eq!(doppel_common::Procedure::name(call.as_ref()), "counter.incr");
/// ```
#[derive(Default)]
pub struct ProcRegistry {
    entries: Vec<ProcEntry>,
    /// Every id, sorted by its name's `(length, bytes)`: a registry holds
    /// tens of names, so a served call resolves its procedure with a few
    /// length comparisons and one or two short `memcmp`s, no hashing.
    by_name: Vec<ProcId>,
}

impl ProcRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProcRegistry::default()
    }

    /// Where `name` is in `by_name`, or where it would go.
    fn position(&self, name: &str) -> Result<usize, usize> {
        self.by_name.binary_search_by(|id| {
            let have = self.entries[id.0 as usize].name;
            (have.len(), have.as_bytes()).cmp(&(name.len(), name.as_bytes()))
        })
    }

    fn register_entry(
        &mut self,
        name: &'static str,
        read_only: bool,
        body: Box<ProcBody>,
    ) -> ProcId {
        let Err(at) = self.position(name) else {
            panic!("procedure {name:?} registered twice");
        };
        let id = ProcId(self.entries.len() as u32);
        self.entries.push(ProcEntry { name, read_only, body, stats: ProcStats::default() });
        self.by_name.insert(at, id);
        id
    }

    /// Registers a read-write procedure under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn register<F>(&mut self, name: &'static str, body: F) -> ProcId
    where
        F: Fn(&mut TxCtx<'_>, ArgsRef<'_>) -> Result<ProcResult, TxError> + Send + Sync + 'static,
    {
        self.register_entry(name, false, Box::new(body))
    }

    /// Registers a read-only procedure under `name`.
    pub fn register_read_only<F>(&mut self, name: &'static str, body: F) -> ProcId
    where
        F: Fn(&mut TxCtx<'_>, ArgsRef<'_>) -> Result<ProcResult, TxError> + Send + Sync + 'static,
    {
        self.register_entry(name, true, Box::new(body))
    }

    /// Resolves a name to its id.
    pub fn lookup(&self, name: &str) -> Option<ProcId> {
        self.position(name).ok().map(|at| self.by_name[at])
    }

    /// The registered name of `id`.
    pub fn name_of(&self, id: ProcId) -> &'static str {
        self.entries[id.0 as usize].name
    }

    /// True when `id` was registered read-only.
    pub fn is_read_only(&self, id: ProcId) -> bool {
        self.entries[id.0 as usize].read_only
    }

    /// All registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name).collect()
    }

    /// Number of registered procedures.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no procedure is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The live counters of `id`.
    pub fn stats_of(&self, id: ProcId) -> &ProcStats {
        &self.entries[id.0 as usize].stats
    }

    /// Snapshots every procedure's counters, in registration order.
    pub fn stats(&self) -> Vec<ProcStatsSnapshot> {
        self.entries.iter().map(|e| e.stats.snapshot(e.name)).collect()
    }

    /// Runs `id`'s body once against `tx` with borrowed arguments, counting
    /// the invocation. This is the whole of executing a registered procedure;
    /// [`RegisteredCall`] is this plus an owned argument vector and a place
    /// to keep the result.
    ///
    /// # Panics
    ///
    /// When `id` is not of this registry.
    pub fn run(
        &self,
        id: ProcId,
        tx: &mut dyn Tx,
        args: ArgsRef<'_>,
    ) -> Result<ProcResult, TxError> {
        let entry = &self.entries[id.0 as usize];
        entry.stats.note_invocation(tx.core());
        (entry.body)(&mut TxCtx::new(tx), args)
    }

    /// Binds `id` to one argument vector as an executable [`Procedure`].
    pub fn call(self: &Arc<Self>, id: ProcId, args: Args) -> Arc<RegisteredCall> {
        assert!((id.0 as usize) < self.entries.len(), "unknown {id}");
        Arc::new(RegisteredCall {
            registry: Arc::clone(self),
            id,
            args,
            result: Mutex::new(None),
        })
    }

    /// [`ProcRegistry::call`] by name; `None` for an unknown name.
    pub fn call_by_name(self: &Arc<Self>, name: &str, args: Args) -> Option<Arc<RegisteredCall>> {
        self.lookup(name).map(|id| self.call(id, args))
    }
}

impl fmt::Debug for ProcRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcRegistry").field("procedures", &self.names()).finish()
    }
}

/// One invocation of a registered procedure that owns its arguments: an entry
/// bound to an argument vector. Implements [`Procedure`], so it can be queued
/// to another core, stashed by a Doppel split phase and replayed exactly like
/// a closure transaction; the body's [`ProcResult`] is captured on every
/// (re-)execution, so the result shipped to the client is the one observed by
/// the run that committed.
pub struct RegisteredCall {
    registry: Arc<ProcRegistry>,
    id: ProcId,
    args: Args,
    result: Mutex<Option<ProcResult>>,
}

impl RegisteredCall {
    fn entry(&self) -> &ProcEntry {
        &self.registry.entries[self.id.0 as usize]
    }

    /// The registry entry this call invokes.
    pub fn proc_id(&self) -> ProcId {
        self.id
    }

    /// The bound argument vector.
    pub fn args(&self) -> &Args {
        &self.args
    }

    /// Takes the result of the last completed execution.
    pub fn take_result(&self) -> Option<ProcResult> {
        self.result.lock().expect("result lock poisoned").take()
    }
}

impl Procedure for RegisteredCall {
    fn run(&self, tx: &mut dyn Tx) -> Result<(), TxError> {
        let result = self.registry.run(self.id, tx, self.args.as_ref())?;
        *self.result.lock().expect("result lock poisoned") = Some(result);
        Ok(())
    }

    fn name(&self) -> &'static str {
        self.entry().name
    }

    fn is_read_only(&self) -> bool {
        self.entry().read_only
    }

    fn proc_stats(&self) -> Option<&ProcStats> {
        Some(&self.entry().stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Op;
    use crate::CoreId;

    struct MapTx(std::collections::HashMap<Key, Value>);

    impl Tx for MapTx {
        fn core(&self) -> CoreId {
            0
        }
        fn read(&mut self, k: Key, f: &mut dyn FnMut(Option<&Value>)) -> Result<(), TxError> {
            f(self.0.get(&k));
            Ok(())
        }
        fn write_op(&mut self, k: Key, op: Op) -> Result<(), TxError> {
            let next = op.apply_to(self.0.get(&k))?;
            self.0.insert(k, next);
            Ok(())
        }
    }

    fn demo_registry() -> (Arc<ProcRegistry>, ProcId, ProcId) {
        let mut reg = ProcRegistry::new();
        let incr = reg.register("demo.incr", |ctx, args| {
            ctx.add(args.get_key(0)?, args.get_int(1)?)?;
            Ok(Args::new())
        });
        let read = reg.register_read_only("demo.read", |ctx, args| {
            let v = ctx.get_int(args.get_key(0)?)?;
            Ok(Args::new().int(v))
        });
        (Arc::new(reg), incr, read)
    }

    #[test]
    fn args_builders_and_accessors() {
        let args = Args::new()
            .int(-5)
            .uint(9)
            .key(Key::raw(3))
            .value(Value::Int(7))
            .bytes(b"blob".as_ref())
            .str("name");
        assert_eq!(args.len(), 6);
        assert_eq!(args.get_int(0).unwrap(), -5);
        assert_eq!(args.get_u64(1).unwrap(), 9);
        assert_eq!(args.get_key(2).unwrap(), Key::raw(3));
        assert_eq!(args.get_value(3).unwrap(), Value::Int(7));
        assert_eq!(args.get_bytes(4).unwrap(), b"blob");
        assert_eq!(args.get_str(5).unwrap(), "name");
        // Typed errors, not panics.
        assert!(args.get_int(2).is_err());
        assert!(args.get_key(0).is_err());
        assert!(args.get_u64(0).is_err(), "negative id rejected");
        assert!(args.get_str(99).is_err());
        assert!(!args.get_int(99).unwrap_err().is_retryable());
    }

    #[test]
    fn registry_registers_looks_up_and_calls() {
        let (reg, incr, read) = demo_registry();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.lookup("demo.incr"), Some(incr));
        assert_eq!(reg.lookup("demo.gone"), None);
        assert_eq!(reg.name_of(read), "demo.read");
        assert!(reg.is_read_only(read));
        assert!(!reg.is_read_only(incr));
        assert_eq!(reg.names(), vec!["demo.incr", "demo.read"]);

        let mut tx = MapTx([(Key::raw(1), Value::Int(10))].into_iter().collect());
        let call = reg.call(incr, Args::new().key(Key::raw(1)).int(5));
        assert_eq!(call.name(), "demo.incr");
        assert!(!call.is_read_only());
        call.run(&mut tx).unwrap();
        assert_eq!(tx.0.get(&Key::raw(1)), Some(&Value::Int(15)));

        let call = reg.call_by_name("demo.read", Args::new().key(Key::raw(1))).unwrap();
        assert!(call.is_read_only());
        call.run(&mut tx).unwrap();
        let result = call.take_result().expect("read produced a result");
        assert_eq!(result.get_int(0).unwrap(), 15);
        assert!(call.take_result().is_none(), "result is taken once");
    }

    #[test]
    fn invocations_count_every_run_and_bad_args_abort() {
        let (reg, incr, _) = demo_registry();
        let mut tx = MapTx([(Key::raw(1), Value::Int(0))].into_iter().collect());
        let call = reg.call(incr, Args::new().key(Key::raw(1)).int(1));
        call.run(&mut tx).unwrap();
        call.run(&mut tx).unwrap();
        let stats = reg.stats();
        assert_eq!(stats[0].name, "demo.incr");
        assert_eq!(stats[0].invocations, 2);
        assert_eq!(stats[0].commits, 0, "outcome counters belong to the service");

        // Missing argument: a typed, non-retryable abort.
        let bad = reg.call(incr, Args::new().key(Key::raw(1)));
        let err = bad.run(&mut tx).unwrap_err();
        assert!(matches!(err, TxError::UserAbort { .. }));
        assert_eq!(reg.stats()[0].invocations, 3);
    }

    #[test]
    fn outcome_counters_via_proc_stats_hook() {
        let (reg, incr, _) = demo_registry();
        let call = reg.call(incr, Args::new().key(Key::raw(1)).int(1));
        let stats = call.proc_stats().expect("registered calls expose stats");
        // Different cores land in different stripes; the snapshot sums them.
        stats.note_outcome(0, true);
        stats.note_outcome(1, false);
        stats.note_outcome(17, false);
        stats.note_deferral(3);
        let snap = &reg.stats()[0];
        assert_eq!((snap.commits, snap.aborts, snap.deferrals), (1, 2, 1));
    }

    #[test]
    fn snapshot_delta_subtracts_counter_wise() {
        let earlier = ProcStatsSnapshot {
            name: "p".into(),
            invocations: 3,
            commits: 2,
            aborts: 1,
            deferrals: 0,
        };
        let later = ProcStatsSnapshot {
            name: "p".into(),
            invocations: 10,
            commits: 6,
            aborts: 3,
            deferrals: 1,
        };
        let d = later.delta(&earlier);
        assert_eq!((d.invocations, d.commits, d.aborts, d.deferrals), (7, 4, 2, 1));
        assert_eq!(d.name, "p");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut reg = ProcRegistry::new();
        reg.register("dup", |_, _| Ok(Args::new()));
        reg.register("dup", |_, _| Ok(Args::new()));
    }
}
