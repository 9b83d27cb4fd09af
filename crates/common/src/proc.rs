//! The stored-procedure registry.
//!
//! The paper's transaction model is *procedures known to the system in
//! advance* (§3: "clients submit transactions in the form of procedures") —
//! that is what lets Doppel classify contended records and choose split
//! operations per transaction type. This module makes that model a first-class
//! API surface:
//!
//! * [`ProcRegistry`] maps a stable [`ProcId`] / name to a typed procedure
//!   body `fn(&mut TxCtx, &Args) -> Result<ProcResult, TxError>`;
//! * [`Args`] / [`ProcResult`] are the self-describing argument and result
//!   vectors (ints, keys, values, byte blobs, strings) that cross the wire —
//!   their byte codec rides the WAL record codec in `doppel_wal::codec`;
//! * [`RegisteredCall`] binds a registry entry to one argument vector and
//!   implements [`Procedure`], so a registered invocation flows through the
//!   same engine workers, retry logic and stash machinery as any closure
//!   transaction;
//! * [`ProcStats`] counts per-procedure invocations, commits, aborts and
//!   stash-deferrals.
//!
//! Remote clients name procedures instead of shipping statements, so
//! transactions with read-dependent logic (all of RUBiS's `StoreBid` /
//! `ViewItem` family) can run over the network.

use crate::engine::{Procedure, Tx};
use crate::error::TxError;
use crate::key::Key;
use crate::value::Value;
use bytes::Bytes;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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

/// One element of an [`Args`] / [`ProcResult`] vector.
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
}

/// A self-describing argument (or result) vector.
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
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Args {
    vals: Vec<ArgValue>,
}

/// Result vector of a procedure: same shape and codec as [`Args`].
pub type ProcResult = Args;

fn arg_error(reason: &'static str) -> TxError {
    TxError::UserAbort { reason }
}

impl Args {
    /// An empty vector.
    pub fn new() -> Self {
        Args::default()
    }

    /// Wraps an existing element vector (codec decode path).
    pub fn from_vec(vals: Vec<ArgValue>) -> Self {
        Args { vals }
    }

    /// Clears the argument list, keeping its allocation so the vector can be
    /// refilled in place (pooled callers reuse one `Args` across calls).
    pub fn clear(&mut self) {
        self.vals.clear();
    }

    /// Appends an element in place (non-consuming counterpart of the builder
    /// methods, for pooled buffers).
    pub fn push(&mut self, v: ArgValue) {
        self.vals.push(v);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// The elements, in order.
    pub fn iter(&self) -> impl Iterator<Item = &ArgValue> {
        self.vals.iter()
    }

    /// The raw element at `i`.
    pub fn get(&self, i: usize) -> Option<&ArgValue> {
        self.vals.get(i)
    }

    /// Appends an integer.
    pub fn int(mut self, n: i64) -> Self {
        self.vals.push(ArgValue::Int(n));
        self
    }

    /// Appends an unsigned id (stored as [`ArgValue::Int`]; ids in this
    /// workspace stay well below `i64::MAX`).
    pub fn uint(self, n: u64) -> Self {
        self.int(n as i64)
    }

    /// Appends a key.
    pub fn key(mut self, k: Key) -> Self {
        self.vals.push(ArgValue::Key(k));
        self
    }

    /// Appends a store value.
    pub fn value(mut self, v: Value) -> Self {
        self.vals.push(ArgValue::Value(v));
        self
    }

    /// Appends a byte blob.
    pub fn bytes(mut self, b: impl Into<Bytes>) -> Self {
        self.vals.push(ArgValue::Bytes(b.into()));
        self
    }

    /// Appends a string.
    pub fn str(mut self, s: impl Into<String>) -> Self {
        self.vals.push(ArgValue::Str(s.into()));
        self
    }

    /// The integer at `i`.
    pub fn get_int(&self, i: usize) -> Result<i64, TxError> {
        match self.vals.get(i) {
            Some(ArgValue::Int(n)) => Ok(*n),
            Some(_) => Err(arg_error("procedure argument: expected int")),
            None => Err(arg_error("procedure argument: missing int")),
        }
    }

    /// The integer at `i` as an unsigned id.
    pub fn get_u64(&self, i: usize) -> Result<u64, TxError> {
        let n = self.get_int(i)?;
        u64::try_from(n).map_err(|_| arg_error("procedure argument: negative id"))
    }

    /// The key at `i`.
    pub fn get_key(&self, i: usize) -> Result<Key, TxError> {
        match self.vals.get(i) {
            Some(ArgValue::Key(k)) => Ok(*k),
            Some(_) => Err(arg_error("procedure argument: expected key")),
            None => Err(arg_error("procedure argument: missing key")),
        }
    }

    /// The store value at `i`.
    pub fn get_value(&self, i: usize) -> Result<&Value, TxError> {
        match self.vals.get(i) {
            Some(ArgValue::Value(v)) => Ok(v),
            Some(_) => Err(arg_error("procedure argument: expected value")),
            None => Err(arg_error("procedure argument: missing value")),
        }
    }

    /// The byte blob at `i`.
    pub fn get_bytes(&self, i: usize) -> Result<&Bytes, TxError> {
        match self.vals.get(i) {
            Some(ArgValue::Bytes(b)) => Ok(b),
            Some(_) => Err(arg_error("procedure argument: expected bytes")),
            None => Err(arg_error("procedure argument: missing bytes")),
        }
    }

    /// The string at `i`.
    pub fn get_str(&self, i: usize) -> Result<&str, TxError> {
        match self.vals.get(i) {
            Some(ArgValue::Str(s)) => Ok(s),
            Some(_) => Err(arg_error("procedure argument: expected str")),
            None => Err(arg_error("procedure argument: missing str")),
        }
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
pub type ProcBody = dyn Fn(&mut TxCtx<'_>, &Args) -> Result<ProcResult, TxError> + Send + Sync;

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
/// * invocations — execution attempts of the body ([`RegisteredCall::run`]
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
    by_name: HashMap<&'static str, ProcId>,
}

impl ProcRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProcRegistry::default()
    }

    fn register_entry(
        &mut self,
        name: &'static str,
        read_only: bool,
        body: Box<ProcBody>,
    ) -> ProcId {
        assert!(
            !self.by_name.contains_key(name),
            "procedure {name:?} registered twice"
        );
        let id = ProcId(self.entries.len() as u32);
        self.entries.push(ProcEntry { name, read_only, body, stats: ProcStats::default() });
        self.by_name.insert(name, id);
        id
    }

    /// Registers a read-write procedure under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered.
    pub fn register<F>(&mut self, name: &'static str, body: F) -> ProcId
    where
        F: Fn(&mut TxCtx<'_>, &Args) -> Result<ProcResult, TxError> + Send + Sync + 'static,
    {
        self.register_entry(name, false, Box::new(body))
    }

    /// Registers a read-only procedure under `name`.
    pub fn register_read_only<F>(&mut self, name: &'static str, body: F) -> ProcId
    where
        F: Fn(&mut TxCtx<'_>, &Args) -> Result<ProcResult, TxError> + Send + Sync + 'static,
    {
        self.register_entry(name, true, Box::new(body))
    }

    /// Resolves a name to its id.
    pub fn lookup(&self, name: &str) -> Option<ProcId> {
        self.by_name.get(name).copied()
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

/// One invocation of a registered procedure: an entry bound to an argument
/// vector. Implements [`Procedure`], so it runs through any engine handle or
/// through the transaction service exactly like a closure transaction; the
/// body's [`ProcResult`] is captured on every (re-)execution, so the result
/// shipped to the client is the one observed by the run that committed.
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
        let entry = self.entry();
        entry.stats.note_invocation(tx.core());
        let mut ctx = TxCtx::new(tx);
        let result = (entry.body)(&mut ctx, &self.args)?;
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
        fn get(&mut self, k: Key) -> Result<Option<Value>, TxError> {
            Ok(self.0.get(&k).cloned())
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
        assert_eq!(args.get_value(3).unwrap(), &Value::Int(7));
        assert_eq!(args.get_bytes(4).unwrap().as_ref(), b"blob");
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
