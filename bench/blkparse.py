#!/usr/bin/env python3
"""blkparse-style analyzer for the simulator's trace JSONL dumps.

Input is the ring dump produced by blk::Tracer::dump_jsonl (armed with the
"trace=N" mount option; benches write it via BenchRun::trace_path):

  line 1   {"type": "header", "schema": 1, "capacity": N, "devices": [...]}
  ...      {"t": ns, "ev": "Q|M|D|C|R|X|F|TO|TC|JW|JR|JK", "dev": i,
            "id": n, ["parent": n,] "block": n, "n": n, "op": "R|W|F|J"}
  last     {"type": "trailer", "emitted": N, "dropped": N, "counts": [...]}

The analyzer reconstructs per-bio latencies from the event stream —
queue wait (Q->D), service (D->C), and total (Q->C) — and validates the
stream's invariants:

  - per-id monotonicity: Q.t <= D.t <= C.t (ids are GLOBAL across device
    slots: a mirror read's Q lands on the volume slot while its D/C land
    on the member that served it; fan-out fragments get fresh ids linked
    by an X event carrying the parent id)
  - with --stats STATS.json (a Kernel::dump_stats snapshot), the
    trailer's exact per-device event counts — which survive ring
    overflow — are cross-checked against DeviceStats on every LEAF
    device: D + R == read_requests + write_requests (a command the
    request queue reissues after a transient error is traced as R, not
    D), M == merges, F == flushes. (Volume slots route without
    dispatching, so they carry Q/C but no D.) It also prints each parity
    volume's stripe-cache hit rate: pre-images served without a read,
    out of all pre-images.

Exit codes: 0 = ok, 1 = malformed input, 2 = invariant/stats mismatch.
Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys


def fail(code, msg):
    print(f"blkparse.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse(path):
    try:
        with open(path) as f:
            raw = [ln for ln in f if ln.strip()]
    except OSError as e:
        fail(1, f"cannot read {path}: {e}")
    if len(raw) < 2:
        fail(1, f"{path}: too short for header + trailer")
    try:
        header = json.loads(raw[0])
        trailer = json.loads(raw[-1])
        events = [json.loads(ln) for ln in raw[1:-1]]
    except json.JSONDecodeError as e:
        fail(1, f"{path}: bad JSON: {e}")
    if header.get("type") != "header":
        fail(1, f"{path}: first line is not a header")
    if trailer.get("type") != "trailer":
        fail(1, f"{path}: last line is not a trailer")
    for e in events:
        for k in ("t", "ev", "dev", "id"):
            if k not in e:
                fail(1, f"{path}: event missing '{k}': {e}")
    return header, events, trailer


def check_monotone(events):
    """Per-id Q <= D <= C across all device slots. Returns #ids checked."""
    qs, ds, cs = {}, {}, {}
    for e in events:
        bucket = {"Q": qs, "D": ds, "C": cs}.get(e["ev"])
        if bucket is not None:
            bucket.setdefault(e["id"], []).append(e["t"])
    bad = []
    for i, dts in ds.items():
        if i in qs and max(qs[i]) > min(dts):
            bad.append((i, "Q after D", max(qs[i]), min(dts)))
        if i in cs and max(dts) > min(cs[i]):
            bad.append((i, "D after C", max(dts), min(cs[i])))
    for i, cts in cs.items():
        if i in qs and max(qs[i]) > min(cts):
            bad.append((i, "Q after C", max(qs[i]), min(cts)))
    for i, what, a, b in bad[:10]:
        print(f"blkparse.py: id {i}: {what} ({a} > {b})", file=sys.stderr)
    if bad:
        fail(2, f"{len(bad)} ids violate Q <= D <= C")
    return len(set(qs) | set(ds) | set(cs))


def latency_summary(events, devices):
    """Reconstruct Q->D / D->C / Q->C per device of the D/C event."""
    q_at = {}
    for e in events:
        if e["ev"] == "Q":
            q_at.setdefault(e["id"], e["t"])
    per_dev = {}
    d_at = {}
    for e in events:
        if e["ev"] == "D":
            d_at[e["id"]] = e["t"]
            if e["id"] in q_at:
                per_dev.setdefault(e["dev"], {"qd": [], "dc": [], "qc": []})[
                    "qd"].append(e["t"] - q_at[e["id"]])
        elif e["ev"] == "C":
            stats = per_dev.setdefault(e["dev"],
                                       {"qd": [], "dc": [], "qc": []})
            if e["id"] in d_at:
                stats["dc"].append(e["t"] - d_at[e["id"]])
            if e["id"] in q_at:
                stats["qc"].append(e["t"] - q_at[e["id"]])
    rows = []
    for dev in sorted(per_dev):
        name = devices[dev] if dev < len(devices) else str(dev)
        s = per_dev[dev]
        row = [name]
        for k in ("qd", "dc", "qc"):
            vals = s[k]
            if vals:
                row.append(f"{len(vals)}x avg={sum(vals)/len(vals):.0f}ns "
                           f"max={max(vals)}ns")
            else:
                row.append("-")
        rows.append(row)
    if rows:
        print(f"{'device':<12} {'Q->D (wait)':<32} {'D->C (service)':<32} "
              f"{'Q->C (total)':<32}")
        for row in rows:
            print(f"{row[0]:<12} {row[1]:<32} {row[2]:<32} {row[3]:<32}")


def leaf_devices(counts):
    """Trailer count entries for devices with no registered children."""
    names = {c["name"] for c in counts}
    return [c for c in counts if not any(n.startswith(c["name"] + "/")
                                         for n in names)]


def cross_check(trailer, stats_path):
    try:
        with open(stats_path) as f:
            snap = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(1, f"cannot read stats snapshot {stats_path}: {e}")
    dev_stats = {}
    parity = []
    for obj in snap.get("devices", []):
        if obj.get("struct") == "DeviceStats":
            dev_stats[obj["device"]] = obj
        elif obj.get("struct") == "ParityVolumeStats":
            parity.append(obj)
    mismatches = 0
    checked = 0
    for c in leaf_devices(trailer.get("counts", [])):
        s = dev_stats.get(c["name"])
        if s is None:
            print(f"blkparse.py: no DeviceStats for traced device "
                  f"'{c['name']}' in {stats_path}", file=sys.stderr)
            mismatches += 1
            continue
        pairs = [
            ("D+R", c.get("D", 0) + c.get("R", 0),
             s["read_requests"] + s["write_requests"],
             "read_requests+write_requests"),
            ("M", c.get("M", 0), s["merges"], "merges"),
            ("F", c.get("F", 0), s["flushes"], "flushes"),
        ]
        for letter, traced, counted, what in pairs:
            checked += 1
            if traced != counted:
                print(f"blkparse.py: {c['name']}: traced {letter}={traced} "
                      f"!= DeviceStats.{what}={counted}", file=sys.stderr)
                mismatches += 1
    if mismatches:
        fail(2, f"{mismatches} trace/stats mismatches")
    print(f"blkparse.py: stats cross-check ok "
          f"({checked} counters on leaf devices)")
    for p in parity:
        hits = p["stripe_cache_hits"]
        total = hits + p["rmw_read_blocks"]
        rate = f"{100.0 * hits / total:.1f}%" if total else "-"
        print(f"blkparse.py: {p['device']}: stripe cache {hits}/{total} "
              f"pre-images hit ({rate})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace", help="trace JSONL dump (Tracer::dump_jsonl)")
    ap.add_argument("--stats", default=None,
                    help="Kernel::dump_stats snapshot to cross-check against")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress the latency table (checks only)")
    args = ap.parse_args()

    header, events, trailer = parse(args.trace)
    devices = header.get("devices", [])
    dropped = trailer.get("dropped", 0)

    if dropped == 0:
        nids = check_monotone(events)
        print(f"blkparse.py: {len(events)} events, {nids} ids, "
              f"Q <= D <= C holds")
    else:
        # The ring overwrote its oldest events: per-id sequences are
        # incomplete, but the trailer's per-device counts stay exact.
        print(f"blkparse.py: ring dropped {dropped} events; "
              f"skipping per-id monotonicity (counts stay exact)")

    if not args.quiet:
        latency_summary(events, devices)

    if args.stats:
        cross_check(trailer, args.stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
