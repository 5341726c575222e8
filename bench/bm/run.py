#!/usr/bin/env python3
"""The repo benchmark: five Bento workloads, end-to-end and per-layer metrics.

  run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. --trace 0 prints the end-to-end metrics,
      --trace 1 the per-layer metrics. The last line of stdout is one JSON
      object: {"correct", "attempted", "failed", "metrics"}.
  run.py [--seed N] [--seconds S]
      Every workload untraced, then every workload traced; prints each
      metric as "workload.metric value unit".
  run.py --repeat N [--workload W] [--seed N] [--seconds S] [--save FILE]
      N untraced runs per workload; prints each metric's median and
      quartiles and saves the values for --compare.
  run.py --compare A.json B.json
      Applies the bounds in BENCHMARK.json to two --repeat files.
  run.py --selftest
      Exact-quantile checks, the shim oracle, traced-vs-untraced identity
      and the bench/blkparse.py trace/stats cross-check.

The first call builds build/bm (cmake -S bench/bm -B build/bm) from the
checkout's sources. Each trial is one process of build/bm/bm, run one
after another, never in parallel. See README.md for the workloads, the
metrics and their bounds.
"""

import argparse
import array
import collections
import json
import math
import os
import pathlib
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build" / "bm"
BIN = BUILD / "bm"
OUT = BUILD / "out"

WORKLOADS = ["mail", "untar", "seqwrite_r0x4", "randread_cold", "fsync_r5x4"]
# Virtual-time metrics: a function of the seed alone, bit-identical from
# run to run. The rest are host costs of the simulator.
VIRTUAL = ["ops_per_s", "mb_per_s", "op_p50_us", "op_p99_us", "op_p999_us"]
# Host times: --compare lets them worsen by their bound or by this many
# seconds, whichever is larger.
HOST_FLOOR_S = {"setup_s": 0.05}
KERNEL_OPS = ["open", "close", "read", "write", "fsync", "mkdir", "unlink",
              "stat"]
MIN_TRIALS = 3
TRIAL_TIMEOUT_S = 170
BLOCK = 4096


class BenchError(Exception):
    """The benchmark could not produce a result (build, crash, bad input)."""


class Incorrect(Exception):
    """A correctness check failed: the run is void."""


# ---- exact quantiles ----

def rank(n, num, den):
    """Nearest-rank position (1-based) of quantile num/den among n samples:
    the smallest rank r with r/n >= num/den. Integer arithmetic, so 0.99 of
    1000 is rank 990, not the 991 a float ceil(0.99 * 1000) gives."""
    if n <= 0:
        raise ValueError("quantile of an empty sample")
    return max(1, -(-num * n // den))


def quantile(sorted_vals, num, den):
    return sorted_vals[rank(len(sorted_vals), num, den) - 1]


def supported(n, num, den):
    """A quantile is reported only with at least ten samples beyond it."""
    return n - rank(n, num, den) >= 10


def load_samples(path):
    a = array.array("q")
    with open(path, "rb") as f:
        a.frombytes(f.read())
    return a


# ---- building and running trials ----

def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_quiet(cmd):
    p = subprocess.run([str(c) for c in cmd], capture_output=True, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
        raise BenchError(f"command failed ({p.returncode}): "
                         f"{' '.join(str(c) for c in cmd)}")


def build():
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *gen])
    run_quiet(["cmake", "--build", BUILD, "-j",
               str(min(4, os.cpu_count() or 1))])


def trial(workload, seed, traced=False, ops=None, dump_trace=False):
    """One bm process: returns its result with the op samples attached."""
    out = OUT / workload
    out.mkdir(parents=True, exist_ok=True)
    cmd = [BIN, "--workload", workload, "--seed", seed, "--out", out]
    if traced:
        cmd.append("--trace")
    if dump_trace:
        cmd.append("--dump-trace")
    if ops:
        cmd += ["--ops", ops]
    p = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                       timeout=TRIAL_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: bm exited {p.returncode} with no "
                         f"result: {p.stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    bad = [c for c in res["checks"] if not c["ok"]]
    if p.returncode != 0 or not res["correct"] or bad:
        raise Incorrect(f"{workload} seed {seed}: failed checks: "
                        + "; ".join(f"{c['name']} ({c['detail']})"
                                    for c in bad))
    res["op_ns"] = load_samples(out / f"{workload}.op_ns.i64")
    res["dir"] = out
    return res


# ---- end-to-end metrics ----

def e2e(res):
    s = sorted(res["op_ns"])
    n = len(s)
    if n != res["ops"]:
        raise Incorrect(f"{res['workload']}: {n} latency samples for "
                        f"{res['ops']} ops")
    if not supported(n, 999, 1000):
        raise Incorrect(f"{res['workload']}: {n} samples cannot support p999")
    p50, p99, p999 = (quantile(s, 1, 2), quantile(s, 99, 100),
                      quantile(s, 999, 1000))
    if not p50 <= p99 <= p999 <= s[-1]:
        raise Incorrect(f"{res['workload']}: quantiles out of order: "
                        f"p50={p50} p99={p99} p999={p999} max={s[-1]}")
    secs = res["elapsed_ns"] / 1e9
    return {
        "ops_per_s": res["ops"] / secs,
        "mb_per_s": res["bytes"] / 1e6 / secs,
        "op_p50_us": p50 / 1e3,
        "op_p99_us": p99 / 1e3,
        "op_p999_us": p999 / 1e3,
        "setup_s": res["setup_ns"] / 1e9,
        "peak_rss_mb": res["peak_rss_kb"] / 1024,
    }


def same_virtual(a, b):
    """Two trials of one seed: every virtual result bit-identical."""
    keys = ("ops", "bytes", "bytes_written", "elapsed_ns", "epoch_ns",
            "attempted", "failed", "calls")
    return all(a[k] == b[k] for k in keys) and a["op_ns"] == b["op_ns"]


def measure(workload, seed, seconds):
    """Trials of one seed until `seconds` are spent (at least MIN_TRIALS).
    Virtual metrics come from the first trial and must repeat exactly in
    every later one; host metrics are medians over the trials."""
    start = time.monotonic()
    trials = []
    while True:
        trials.append(trial(workload, seed))
        spent = time.monotonic() - start
        if (len(trials) >= MIN_TRIALS
                and spent + spent / len(trials) > seconds):
            break
    for t in trials[1:]:
        if not same_virtual(trials[0], t):
            raise Incorrect(f"{workload} seed {seed}: virtual results "
                            "differ between trials of one seed")
    per = [e2e(t) for t in trials]
    metrics = dict(per[0])
    for k in metrics:
        if k not in VIRTUAL:
            metrics[k] = statistics.median(p[k] for p in per)
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    return metrics, attempted, failed


# ---- per-layer metrics (traced run) ----

def hist_mean_us(objs0, objs1, key):
    """Mean, between two snapshots, of the histograms `key` summed over
    the stats objects of each snapshot."""
    h0s, h1s = [o[key] for o in objs0], [o[key] for o in objs1]
    count = sum(h["count"] for h in h1s) - sum(h["count"] for h in h0s)
    total = (sum(h["mean_ns"] * h["count"] for h in h1s)
             - sum(h["mean_ns"] * h["count"] for h in h0s))
    return total / count / 1e3 if count > 0 else 0.0


def ratio(a, b):
    return a / b if b else 0.0


class Snap:
    """One Kernel::dump_stats snapshot, indexed by struct."""

    def __init__(self, path):
        with open(path) as f:
            d = json.load(f)
        self.devs = collections.defaultdict(dict)
        for o in d["devices"]:
            self.devs[o["struct"]][o["device"]] = o
        names = list(self.devs["DeviceStats"])
        self.leaves = [n for n in names
                       if not any(m.startswith(n + "/") for m in names)]
        self.mount = collections.defaultdict(list)
        for o in d["mounts"][0]["stats"]:
            self.mount[o["struct"]].append(o)

    def leaf(self, struct):
        return [self.devs[struct][n] for n in self.leaves]


def layers(tr, plain):
    """Per-layer metrics of a traced trial `tr` (with `plain`, the same
    seed untraced, for the tracing overhead)."""
    s0 = Snap(tr["dir"] / f"{tr['workload']}.stats0.json")
    s1 = Snap(tr["dir"] / f"{tr['workload']}.stats1.json")
    elapsed = tr["elapsed_ns"]
    m = {}

    def d(snap_list0, snap_list1, key):
        return (sum(o[key] for o in snap_list1)
                - sum(o[key] for o in snap_list0))

    # kernel: syscalls, timed by the shim, from the spans.
    spans = {}
    durs = collections.defaultdict(list)
    with open(tr["dir"] / f"{tr['workload']}.spans.jsonl") as f:
        for line in f:
            s = json.loads(line)
            if s["parent"] == 0:
                spans[s["id"]] = s
                continue
            op = spans.get(s["parent"])
            if op is None or not op["start"] <= s["start"] <= s["end"] <= op["end"]:
                raise Incorrect(f"span {s['id']} lies outside its op span")
            durs[s["name"]].append(s["end"] - s["start"])
    if len(spans) != tr["ops"]:
        raise Incorrect(f"{len(spans)} op spans for {tr['ops']} ops")
    for op in KERNEL_OPS:
        v = sorted(durs[op])
        if len(v) != tr["calls"][op]:
            raise Incorrect(f"{len(v)} {op} spans for {tr['calls'][op]} calls")
        m[f"kernel.{op}.calls"] = len(v)
        m[f"kernel.{op}.mean_us"] = sum(v) / len(v) / 1e3 if v else 0.0
        m[f"kernel.{op}.p99_us"] = quantile(v, 99, 100) / 1e3 if v else 0.0
    m["kernel.errors"] = tr["failed"]

    # Inodes evicted during the run took their page-cache counters out of
    # the end snapshot; the shim kept them. Every successful unlink must
    # have evicted its inode, or some counters would be lost.
    retired = tr["page_cache_retired"]
    if retired["inodes"] != retired["unlinked"]:
        raise Incorrect(f"{retired['unlinked']} unlinks evicted "
                        f"{retired['inodes']} inodes")
    pc0 = s0.mount["AddressSpaceStats"]
    pc1 = s1.mount["AddressSpaceStats"] + [retired]
    hits, misses = d(pc0, pc1, "hits"), d(pc0, pc1, "misses")
    m["kernel.page_cache.hit_ratio"] = ratio(hits, hits + misses)
    m["kernel.page_cache.misses"] = misses
    m["kernel.page_cache.readahead_pages"] = d(pc0, pc1, "readahead_pages")
    m["kernel.page_cache.writeback_pages"] = d(pc0, pc1, "writeback_pages")
    m["kernel.page_cache.pages_per_writeback"] = ratio(
        d(pc0, pc1, "writeback_pages"), d(pc0, pc1, "writeback_calls"))

    bc0, bc1 = s0.mount["BufferCacheStats"], s1.mount["BufferCacheStats"]
    hits, misses = d(bc0, bc1, "hits"), d(bc0, bc1, "misses")
    m["kernel.buffer_cache.hit_ratio"] = ratio(hits, hits + misses)
    m["kernel.buffer_cache.misses"] = misses
    for k in ("writebacks", "evictions", "jdirty_skipped"):
        m[f"kernel.buffer_cache.{k}"] = d(bc0, bc1, k)

    fl0, fl1 = s0.mount["FlusherStats"], s1.mount["FlusherStats"]
    for k in ("wakeups", "pages_flushed", "buffers_flushed",
              "throttle_waits"):
        m[f"kernel.flusher.{k}"] = d(fl0, fl1, k)
    m["kernel.flusher.throttled_ms"] = d(fl0, fl1, "throttled_ns") / 1e6
    m["kernel.flusher.wake_to_drain_mean_us"] = hist_mean_us(
        fl0, fl1, "wake_to_drain")

    dispatches = d(s0.mount["ModuleStats"], s1.mount["ModuleStats"],
                   "dispatches")
    m["bento.dispatches"] = dispatches
    m["bento.dispatches_per_syscall"] = ratio(dispatches, tr["attempted"])

    lg0, lg1 = s0.mount["LogStats"], s1.mount["LogStats"]
    commits = d(lg0, lg1, "commits")
    m["xv6fs.log.commits"] = commits
    m["xv6fs.log.ops_per_commit"] = ratio(d(lg0, lg1, "ops_committed"),
                                          commits)
    m["xv6fs.log.blocks_per_commit"] = ratio(d(lg0, lg1, "blocks_logged"),
                                             commits)
    for k in ("absorbed", "pipelined_commits", "flushes_skipped"):
        m[f"xv6fs.log.{k}"] = d(lg0, lg1, k)
    for stage in ("logwrite", "record", "checkpoint"):
        m[f"xv6fs.log.{stage}_mean_us"] = hist_mean_us(lg0, lg1,
                                                       f"{stage}_lat")

    q0, q1 = s0.leaf("RequestQueueStats"), s1.leaf("RequestQueueStats")
    ds0, ds1 = s0.leaf("DeviceStats"), s1.leaf("DeviceStats")
    m["blockdev.queue.batches"] = d(q0, q1, "batches")
    m["blockdev.queue.async_batches"] = d(q0, q1, "async_batches")
    peaks = (list(s1.devs["RequestQueueStats"].values())
             + list(s1.devs["AggregateVolumeStats"].values()))
    m["blockdev.queue.max_inflight"] = max(o["max_inflight"] for o in peaks)
    requests = d(ds0, ds1, "read_requests") + d(ds0, ds1, "write_requests")
    m["blockdev.queue.merges_per_request"] = ratio(d(ds0, ds1, "merges"),
                                                   requests)
    m["blockdev.queue.plugged_bios"] = d(
        list(s0.devs["PlugStats"].values()),
        list(s1.devs["PlugStats"].values()), "plugged_bios")

    for k in ("read_requests", "write_requests", "flushes"):
        m[f"blockdev.device.{k}"] = d(ds0, ds1, k)
    m["blockdev.device.blocks_read"] = d(ds0, ds1, "reads")
    written = d(ds0, ds1, "writes")
    m["blockdev.device.blocks_written"] = written
    m["blockdev.device.util"] = d(ds0, ds1, "busy_ns") / (
        tr["channels"] * len(ds1) * elapsed)
    m["blockdev.device.write_amp"] = ratio(written * BLOCK,
                                           tr["bytes_written"])
    for hist in ("read_wait", "write_wait", "read_service", "write_service"):
        m[f"blockdev.device.{hist}_mean_us"] = hist_mean_us(ds0, ds1, hist)
    m["blockdev.device.flush_mean_us"] = hist_mean_us(ds0, ds1, "flush_lat")
    t = tr["trace"]
    if t["emitted"] - t["emitted_at_epoch"] <= t["capacity"]:
        # Every event since the epoch is still in the ring: exact values.
        q2c = sorted(load_samples(tr["dir"] / f"{tr['workload']}.q2c_ns.i64"))
        if q2c:
            m["blockdev.device.q2c_p50_us"] = quantile(q2c, 1, 2) / 1e3
            m["blockdev.device.q2c_p99_us"] = quantile(q2c, 99, 100) / 1e3
    else:
        print(f"{tr['workload']}: trace ring dropped events after the "
              "epoch; q2c omitted", file=sys.stderr)

    v0, v1 = tr["volume0"], tr["volume1"]
    for k in ("fragments", "full_stripe_writes", "rmw_writes",
              "rmw_read_blocks", "parity_writes"):
        m[f"blockdev.volume.{k}"] = v1[k] - v0[k]
    per_member = [b["writes"] - a["writes"] for a, b in zip(ds0, ds1)]
    mean = sum(per_member) / len(per_member)
    m["blockdev.volume.member_write_skew"] = ratio(max(per_member), mean)

    m["sim.setup_virtual_s"] = tr["epoch_ns"] / 1e9
    m["sim.host_us_per_op"] = plain["cpu_ns"] / 1e3 / plain["ops"]
    m["sim.trace_overhead"] = ratio(tr["cpu_ns"], plain["cpu_ns"])
    return m


def measure_traced(workload, seed):
    """An untraced and a traced trial of one seed: the traced one gives the
    per-layer metrics, and its virtual results must equal the untraced."""
    plain = trial(workload, seed)
    traced = trial(workload, seed, traced=True)
    if not same_virtual(plain, traced):
        raise Incorrect(f"{workload}: tracing changed virtual results")
    return layers(traced, plain), plain["attempted"], plain["failed"]


# ---- output ----

def units(kind):
    return {m["name"]: m["unit"] for m in spec()[kind]}


def emit(workload, metrics, kind, prefix=True):
    """Print metrics as 'workload.metric value unit'; return the JSON form."""
    u = units(kind)
    missing = [k for k in u if k not in metrics]
    if missing:
        print(f"{workload}: metrics not reported: {', '.join(missing)}",
              file=sys.stderr)
    out = {}
    for name in u:
        if name in metrics:
            print(f"{workload}.{name} {metrics[name]!r} {u[name]}")
            key = f"{workload}.{name}" if prefix else name
            out[key] = {"value": metrics[name], "unit": u[name]}
    return out


def result_line(metrics, attempted, failed, correct=True):
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# ---- repeat / compare ----

def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def repeat(args):
    runs = {}
    for w in args.workloads:
        vals = collections.defaultdict(list)
        for _ in range(args.repeat):
            metrics, _, _ = measure(w, args.seed, args.seconds)
            for k, v in metrics.items():
                vals[k].append(v)
        runs[w] = dict(vals)
        for k, v in vals.items():
            med, q1, q3 = spread(v)
            print(f"{w}.{k} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"({len(v)} runs)")
    save = pathlib.Path(args.save)
    save.parent.mkdir(parents=True, exist_ok=True)
    with open(save, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "runs": runs},
                  f, indent=1)
    print(f"saved {save}")


def compare(path_a, path_b):
    """Per metric and workload: B against A under BENCHMARK.json's bound
    (for setup_s, the bound or HOST_FLOOR_S, whichever allows more). A
    metric whose spread (quartile distance over median) is wider than its
    bound on either side is unresolved, unless every B run is better than
    every A run."""
    with open(path_a) as f:
        a = json.load(f)["runs"]
    with open(path_b) as f:
        b = json.load(f)["runs"]
    regressions = 0
    for w in [w for w in a if w in b]:
        for m in spec()["end_to_end"]:
            name = m["name"]
            if name not in a[w] or name not in b[w]:
                continue
            va, vb = a[w][name], b[w][name]
            ma, qa1, qa3 = spread(va)
            mb, qb1, qb3 = spread(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma if ma else 0.0
            wide = max((qa3 - qa1) / ma if ma else 0.0,
                       (qb3 - qb1) / mb if mb else 0.0)
            bound = m["bound"]
            if name in HOST_FLOOR_S and ma:
                bound = max(bound, HOST_FLOOR_S[name] / ma)
            if wide > bound:
                better_all = all(sign * (y - x) < 0 for x in va for y in vb)
                verdict = "better" if better_all else "unresolved"
            elif worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            else:
                verdict = "ok"
            print(f"{w}.{name} A {ma:.6g} B {mb:.6g} worse {worse:+.2%} "
                  f"spread {wide:.2%} bound {bound:.1%} {verdict}")
    return 1 if regressions else 0


# ---- self-test ----

def selftest():
    vals = list(range(1, 1001))
    random.Random(1).shuffle(vals)
    s = sorted(vals)
    assert quantile(s, 1, 2) == 500, quantile(s, 1, 2)
    assert quantile(s, 99, 100) == 990, quantile(s, 99, 100)
    assert quantile(s, 999, 1000) == 999
    assert quantile([7], 99, 100) == 7
    assert quantile([1, 2], 1, 2) == 1 and quantile([1, 2], 99, 100) == 2
    assert quantile([5, 5, 9], 1, 2) == 5
    assert supported(1000, 99, 100) and not supported(1000, 999, 1000)
    assert supported(10000, 999, 1000)
    print("selftest: nearest-rank quantiles ok")

    build()
    p = subprocess.run([str(BIN), "--oracle"], capture_output=True,
                       text=True, timeout=TRIAL_TIMEOUT_S)
    oracle = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode != 0 or not oracle["identical"]:
        raise Incorrect(f"shim oracle failed: {oracle}")
    print(f"selftest: shim oracle ok (wl::Varmail "
          f"{oracle['reference_ops_per_s']:.1f} it/s reproduced)")

    small = {"mail": 2000, "untar": None, "seqwrite_r0x4": 1000,
             "randread_cold": 4000, "fsync_r5x4": 2000}
    layer_names = set(units("per_layer"))
    for w in WORKLOADS:
        plain = trial(w, 1, ops=small[w])
        traced = trial(w, 1, traced=True, ops=small[w], dump_trace=True)
        if not same_virtual(plain, traced):
            raise Incorrect(f"{w}: tracing changed virtual results")
        s = sorted(plain["op_ns"])
        if not (quantile(s, 1, 2) <= quantile(s, 99, 100)
                <= quantile(s, 999, 1000) <= s[-1]):
            raise Incorrect(f"{w}: quantiles out of order")
        got = set(layers(traced, plain))
        if got != layer_names:
            raise Incorrect(f"{w}: per-layer metrics differ from "
                            f"BENCHMARK.json: {sorted(got ^ layer_names)}")
        d = traced["dir"]
        p = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "blkparse.py"),
             str(d / f"{w}.trace.jsonl"), "--stats",
             str(d / f"{w}.stats1.json"), "--quiet"],
            capture_output=True, text=True, timeout=TRIAL_TIMEOUT_S)
        if p.returncode != 0:
            raise Incorrect(f"{w}: blkparse.py: {p.stderr.strip()}")
        (d / f"{w}.trace.jsonl").unlink()
        checks = " | ".join(p.stdout.strip().splitlines())
        print(f"selftest: {w} ok (traced == untraced; {checks})")
    print("selftest: all ok")


# ---- main ----

def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--save", default=str(BUILD / "repeat.json"))
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = spec()["run_seconds"]
    args.workloads = [args.workload] if args.workload else WORKLOADS

    try:
        if args.compare:
            return compare(*args.compare)
        build()
        if args.selftest:
            selftest()
            return 0
        if args.repeat:
            repeat(args)
            return 0
        if args.workload and args.trace is not None:
            if args.trace:
                metrics, att, fail = measure_traced(args.workload, args.seed)
                kind = "per_layer"
            else:
                metrics, att, fail = measure(args.workload, args.seed,
                                             args.seconds)
                kind = "end_to_end"
            out = emit(args.workload, metrics, kind, prefix=False)
            result_line(out, att, fail)
            return 0
        # Every workload untraced, then every workload traced.
        out, att, fail = {}, 0, 0
        passes = [(0, "end_to_end"), (1, "per_layer")]
        if args.trace is not None:
            passes = [passes[args.trace]]
        for traced, kind in passes:
            for w in args.workloads:
                if traced:
                    metrics, a, f = measure_traced(w, args.seed)
                else:
                    metrics, a, f = measure(w, args.seed, args.seconds)
                out.update(emit(w, metrics, kind))
                att, fail = att + a, fail + f
        result_line(out, att, fail)
        return 0
    except Incorrect as e:
        print(f"run.py: INCORRECT: {e}", file=sys.stderr)
        result_line({}, 1, 0, correct=False)
        return 1
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
