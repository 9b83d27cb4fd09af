#!/usr/bin/env python3
"""Table of medians and quartiles per (workload, metric, side) and pair wins, from runs.jsonl."""
import json, sys, statistics
from collections import defaultdict

BETTER = {"txn_per_s": "higher", "cpu_us_per_txn": "lower", "lat_p50_us": "lower", "lat_p95_us": "lower",
          "allocs_per_txn": "lower", "alloc_bytes_per_txn": "lower", "setup_s": "lower"}
BOUND = {"txn_per_s": .25, "cpu_us_per_txn": .25, "lat_p50_us": .25, "lat_p95_us": .25,
         "allocs_per_txn": .03, "alloc_bytes_per_txn": .05, "setup_s": .25}
runs = [json.loads(l) for l in open(sys.argv[1])]
vals = defaultdict(dict)  # (workload, metric) -> pair -> side -> value
fails = defaultdict(list)
for r in runs:
    res = r["result"]
    for m, v in res["metrics"].items():
        vals[(r["workload"], m)].setdefault(r["pair"], {})[r["side"]] = v["value"]
    fails[(r["workload"], r["side"])].append((res["failed"], res["attempted"], res["correct"]))

def q(v):
    qs = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
    return qs[0], statistics.median(v), qs[2]

def fmt(x):
    return f"{x:,.6g}" if abs(x) < 1000 else f"{x:,.0f}"

print("| workload | metric | parent q1 / median / q3 | change q1 / median / q3 | median Δ | parent IQR ÷ median | change wins |")
print("|---|---|---|---|---|---|---|")
for wl in ("incr_direct", "kv_tcp", "rubis_tcp"):
    for m in BETTER:
        pairs = vals[(wl, m)]
        both = [p for p in pairs.values() if "parent" in p and "change" in p]
        pa, ch = [p["parent"] for p in both], [p["change"] for p in both]
        pq, cq = q(pa), q(ch)
        wins = sum((c > p) if BETTER[m] == "higher" else (c < p) for p, c in zip(pa, ch))
        ties = sum(c == p for p, c in zip(pa, ch))
        delta = (cq[1] - pq[1]) / pq[1]
        print(f"| {wl} | {m} | {fmt(pq[0])} / {fmt(pq[1])} / {fmt(pq[2])} | {fmt(cq[0])} / {fmt(cq[1])} / {fmt(cq[2])} | "
              f"{delta:+.1%} | {(pq[2]-pq[0])/pq[1]:.1%} | {wins}/{len(both)}" + (f" ({ties} ties)" if ties else "") + " |")
print()
for (wl, side), f in sorted(fails.items()):
    print(f"{wl} {side}: runs={len(f)} failed={sum(x[0] for x in f)} attempted={sum(x[1] for x in f)} all_correct={all(x[2] for x in f)}")
