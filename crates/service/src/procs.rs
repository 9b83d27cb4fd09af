//! Built-in procedure packs.
//!
//! A *pack* is a plain function that registers a family of procedures into a
//! [`ProcRegistry`]; `doppel-server --procs kv,rubis` composes packs at
//! startup. This module ships the `kv` pack — generic typed key/value
//! procedures over the flat store, enough to run the INCR microbenchmark
//! family and to migrate ad-hoc `Submit` statement lists to named
//! invocations. The `rubis` pack lives in `doppel_rubis::procs` (the service
//! crate cannot depend on the application crates).

use doppel_common::{Args, ProcRegistry};
use std::sync::Arc;

/// Names of the procedures [`register_kv`] adds, for `--help` output and
/// tests.
pub const KV_PROCS: &[&str] = &["kv.get", "kv.put", "kv.add", "kv.max", "kv.set_insert"];

/// Registers the `kv` pack: typed key/value procedures over any table.
///
/// | name            | args                      | result              |
/// |-----------------|---------------------------|---------------------|
/// | `kv.get`        | `key`                     | `[value]` or `[]`   |
/// | `kv.put`        | `key, value`              | `[]`                |
/// | `kv.add`        | `key, int n` (splittable) | `[]`                |
/// | `kv.max`        | `key, int n` (splittable) | `[]`                |
/// | `kv.set_insert` | `key, int e` (splittable) | `[]`                |
pub fn register_kv(reg: &mut ProcRegistry) {
    reg.register_read_only("kv.get", |ctx, args| {
        // The value goes from where the store keeps it into the result.
        let mut result = Args::new();
        ctx.read(args.get_key(0)?, &mut |v| {
            if let Some(v) = v {
                result = Args::new().value(v);
            }
        })?;
        Ok(result)
    });
    reg.register("kv.put", |ctx, args| {
        let k = args.get_key(0)?;
        ctx.put(k, args.get_value(1)?)?;
        Ok(Args::new())
    });
    reg.register("kv.add", |ctx, args| {
        ctx.add(args.get_key(0)?, args.get_int(1)?)?;
        Ok(Args::new())
    });
    reg.register("kv.max", |ctx, args| {
        ctx.max(args.get_key(0)?, args.get_int(1)?)?;
        Ok(Args::new())
    });
    reg.register("kv.set_insert", |ctx, args| {
        ctx.set_insert(args.get_key(0)?, args.get_int(1)?)?;
        Ok(Args::new())
    });
}

/// A fresh shared registry holding only the `kv` pack.
pub fn kv_registry() -> Arc<ProcRegistry> {
    let mut reg = ProcRegistry::new();
    register_kv(&mut reg);
    Arc::new(reg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, TransactionService};
    use doppel_common::{Engine, Key, Value};

    #[test]
    fn kv_pack_names_match_registry() {
        let reg = kv_registry();
        assert_eq!(reg.names(), KV_PROCS);
        assert!(reg.is_read_only(reg.lookup("kv.get").unwrap()));
        assert!(!reg.is_read_only(reg.lookup("kv.add").unwrap()));
    }

    #[test]
    fn kv_procs_execute_through_the_service_and_count_stats() {
        let reg = kv_registry();
        let engine = Arc::new(doppel_occ::OccEngine::new(1, 64));
        engine.load(Key::raw(1), Value::Int(0));
        let service = TransactionService::start(engine.clone(), ServiceConfig::default());
        let mut client = service.client();

        let add = reg.lookup("kv.add").unwrap();
        for _ in 0..5 {
            let call = reg.call(add, Args::new().key(Key::raw(1)).int(3));
            assert!(client.execute(call).is_ok());
        }
        let put = reg.call_by_name("kv.put", Args::new().key(Key::raw(2)).value(Value::from("row"))).unwrap();
        assert!(client.execute(put).is_ok());

        let get = reg.call_by_name("kv.get", Args::new().key(Key::raw(1))).unwrap();
        assert!(client.execute(Arc::clone(&get) as _).is_ok());
        let result = get.take_result().expect("get produced a result");
        assert_eq!(result.get_value(0).unwrap(), Value::Int(15));

        // Missing record → empty result, still a commit.
        let miss = reg.call_by_name("kv.get", Args::new().key(Key::raw(404))).unwrap();
        assert!(client.execute(Arc::clone(&miss) as _).is_ok());
        assert!(miss.take_result().expect("result captured").is_empty());

        service.shutdown();
        assert_eq!(engine.global_get(Key::raw(1)), Some(Value::Int(15)));

        // Per-procedure outcome counters were maintained by the service.
        let stats = reg.stats();
        let add_stats = stats.iter().find(|s| s.name == "kv.add").unwrap();
        assert_eq!(add_stats.commits, 5);
        assert_eq!(add_stats.invocations, 5);
        assert_eq!(add_stats.aborts, 0);
        let get_stats = stats.iter().find(|s| s.name == "kv.get").unwrap();
        assert_eq!(get_stats.commits, 2);
    }
}
