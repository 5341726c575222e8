#!/usr/bin/env python3
"""The refactor oracle: run every bench and example of two builds and diff
what they leave behind.

The simulation runs in virtual time, so two builds that model the same
thing produce the same bytes. This script runs every `bench_*` binary
(BUILD/bench) and `example_*` binary (BUILD/examples) of each build, each
in a working directory of its own, at most nproc at once, and compares:

  BENCH_*.json   row by row (series, label), with the relative change
  STATS_*.json   key by key (nested keys joined with '.'); a stats object
                 is named by its struct and device, or by its struct and
                 its ordinal among that struct's objects where it has no
                 device, so one object more or less is reported as missing
                 and moves no other object's keys
  TRACE_*.jsonl  at the first differing event
  example stdout line by line (no example prints host time)

It prints "identical", or the moved rows sorted by |change|, one summary
line per artifact and series (a BENCH file's deployment column, or a
STATS file's stats object) with its count of moved rows and their
smallest and largest change, and every other difference (a missing file,
a trace or stdout that differs, an exit status), and then each binary's
wall time on both sides. Exit status: 0 identical, 1 different, 2 usage
error.

  identical.py BUILD_A BUILD_B [--out DIR]
  identical.py --runs RUN_A RUN_B

The runs go to OUT/a and OUT/b, one directory per binary; --out must
name a new or empty directory. --runs compares two such trees of an
earlier run without running anything.
"""

import argparse
import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time

ARTIFACT_RE = re.compile(r"^(BENCH_.*\.json|STATS_.*\.json|TRACE_.*\.jsonl)$")
STDOUT = "stdout.txt"
META = "meta.json"


# ---- running ----

def binaries(build):
    """(name, path) of every bench_* and example_* executable in `build`."""
    found = []
    for sub, prefix in (("bench", "bench_"), ("examples", "example_")):
        d = os.path.join(build, sub)
        if not os.path.isdir(d):
            continue
        for name in sorted(os.listdir(d)):
            path = os.path.join(d, name)
            if (name.startswith(prefix) and os.path.isfile(path)
                    and os.access(path, os.X_OK)):
                found.append((name, os.path.abspath(path)))
    return found


def run_one(path, workdir):
    """Run `path` in `workdir`; keep its stdout and its exit status and
    wall time in META."""
    os.makedirs(workdir, exist_ok=True)
    start = time.monotonic()
    with open(os.path.join(workdir, STDOUT), "w") as out:
        rc = subprocess.run([path], cwd=workdir, stdout=out,
                            stderr=subprocess.DEVNULL).returncode
    wall = time.monotonic() - start
    with open(os.path.join(workdir, META), "w") as f:
        json.dump({"returncode": rc, "wall_s": wall}, f)
    return rc


def run_builds(build_a, build_b, out):
    plan = [(name, side, path)
            for side, build in (("a", build_a), ("b", build_b))
            for name, path in binaries(build)]
    # Each binary's two runs go out next to each other, so their wall
    # times meet the same load.
    plan.sort(key=lambda p: (p[0], p[1]))
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=os.cpu_count() or 1) as pool:
        futures = [pool.submit(run_one, path, os.path.join(out, side, name))
                   for name, side, path in plan]
        for f in futures:
            f.result()
    return os.path.join(out, "a"), os.path.join(out, "b")


# ---- diffing ----

def flatten(value, prefix, out, objects=None):
    """Flatten `value` into `out`. A list element that is a stats object
    (a dict with a "struct" key) is named "[struct device]", or
    "[struct#n]" for the n-th object of its struct without a device, and
    its path is added to `objects`; other elements are named by index."""
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(v, f"{prefix}.{k}" if prefix else str(k), out, objects)
    elif isinstance(value, list):
        ordinals = {}
        for i, v in enumerate(value):
            name = str(i)
            if isinstance(v, dict) and "struct" in v:
                if "device" in v:
                    name = f"{v['struct']} {v['device']}"
                else:
                    n = ordinals.get(v["struct"], 0)
                    ordinals[v["struct"]] = n + 1
                    name = f"{v['struct']}#{n}"
                if objects is not None:
                    objects.add(f"{prefix}[{name}]")
            flatten(v, f"{prefix}[{name}]", out, objects)
    else:
        out[prefix] = value
    return out


def bench_rows(path):
    """(rows, series of each row key) of a BENCH file. Keys outside the
    row list have no series."""
    with open(path) as f:
        report = json.load(f)
    rows, series = {}, {}
    for r in report.get("rows", []):
        key = f"{r.get('series')} / {r.get('label')}"
        rows[key] = r.get("value")
        series[key] = str(r.get("series"))
    for k, v in flatten({k: v for k, v in report.items() if k != "rows"},
                        "", {}).items():
        rows[k] = v
    return rows, series


def stats_object(key):
    """The stats object a flattened STATS key lies in: the key up to its
    last bracketed name, or its first component."""
    end = key.rfind("]")
    return key[:end + 1] if end >= 0 else key.split(".")[0]


def stats_keys(path):
    """(flattened keys, stats object paths) of a STATS file."""
    objects = set()
    with open(path) as f:
        keys = flatten(json.load(f), "", {}, objects)
    return keys, objects


def diff_stats(where, a, b, moved, other):
    """Report each stats object only one side has as missing, and diff
    the keys of the rest."""
    (keys_a, objs_a), (keys_b, objs_b) = a, b
    lone = objs_a ^ objs_b
    for obj in sorted(lone):
        other.append(f"{where}: {obj} missing on side "
                     f"{'a' if obj not in objs_a else 'b'}")

    def kept(keys):
        return {k: v for k, v in keys.items()
                if not any(k.startswith(o + ".") for o in lone)}
    diff_keyed(where, kept(keys_a), kept(keys_b), moved, stats_object)


def rel_change(a, b):
    """(b - a) / |a| for numbers; inf for anything else that differs."""
    num = (int, float)
    if (isinstance(a, num) and isinstance(b, num)
            and not isinstance(a, bool) and not isinstance(b, bool)):
        if a == 0:
            return math.inf
        return (b - a) / abs(a)
    return math.inf


def diff_keyed(where, a, b, moved, group_of):
    """Append each key whose value differs, with its relative change and
    its summary group, group_of(key)."""
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va != vb:
            moved.append((where, key, va, vb, rel_change(va, vb),
                          group_of(key)))


def first_difference(lines_a, lines_b):
    for i, (la, lb) in enumerate(zip(lines_a, lines_b)):
        if la != lb:
            return i, la, lb
    if len(lines_a) != len(lines_b):
        i = min(len(lines_a), len(lines_b))
        return (i, lines_a[i] if i < len(lines_a) else "<end>",
                lines_b[i] if i < len(lines_b) else "<end>")
    return None


def read_lines(path):
    with open(path, errors="replace") as f:
        return f.read().splitlines()


def short(text, width=60):
    text = str(text)
    return text if len(text) <= width else text[:width - 3] + "..."


def load_meta(d):
    try:
        with open(os.path.join(d, META)) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def compare_runs(run_a, run_b):
    """(moved rows, other differences, wall times) of two run trees."""
    moved, other, walls = [], [], []
    names_a = set(os.listdir(run_a)) if os.path.isdir(run_a) else set()
    names_b = set(os.listdir(run_b)) if os.path.isdir(run_b) else set()
    for name in sorted(names_a | names_b):
        da, db = os.path.join(run_a, name), os.path.join(run_b, name)
        if name not in names_a or name not in names_b:
            other.append(f"{name}: missing on side "
                         f"{'a' if name not in names_a else 'b'}")
            continue
        ma, mb = load_meta(da), load_meta(db)
        walls.append((name, ma.get("wall_s"), mb.get("wall_s")))
        if ma.get("returncode") != mb.get("returncode"):
            other.append(f"{name}: exit status {ma.get('returncode')} -> "
                         f"{mb.get('returncode')}")
        files_a = {f for f in os.listdir(da) if ARTIFACT_RE.match(f)}
        files_b = {f for f in os.listdir(db) if ARTIFACT_RE.match(f)}
        for fname in sorted(files_a | files_b):
            where = f"{name}/{fname}"
            if fname not in files_a or fname not in files_b:
                other.append(f"{where}: missing on side "
                             f"{'a' if fname not in files_a else 'b'}")
                continue
            pa, pb = os.path.join(da, fname), os.path.join(db, fname)
            if fname.startswith("BENCH_"):
                (rows_a, series_a), (rows_b, series_b) = (bench_rows(pa),
                                                          bench_rows(pb))
                series = {**series_a, **series_b}
                diff_keyed(where, rows_a, rows_b, moved,
                           lambda key: series.get(key, "-"))
            elif fname.startswith("STATS_"):
                diff_stats(where, stats_keys(pa), stats_keys(pb), moved,
                           other)
            else:
                d = first_difference(read_lines(pa), read_lines(pb))
                if d:
                    other.append(f"{where}: first differing event #{d[0]}:"
                                 f"\n    a: {short(d[1], 110)}"
                                 f"\n    b: {short(d[2], 110)}")
        if name.startswith("example_"):
            pa, pb = os.path.join(da, STDOUT), os.path.join(db, STDOUT)
            if os.path.exists(pa) and os.path.exists(pb):
                la, lb = read_lines(pa), read_lines(pb)
                d = first_difference(la, lb)
                if d:
                    n = sum(x != y for x, y in zip(la, lb)) + abs(
                        len(la) - len(lb))
                    other.append(f"{name}/stdout: {n} line(s) differ, "
                                 f"first at line {d[0] + 1}:"
                                 f"\n    a: {short(d[1], 110)}"
                                 f"\n    b: {short(d[2], 110)}")
    moved.sort(key=lambda m: -abs(m[4]))
    return moved, other, walls


def fmt_value(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return "<none>" if v is None else short(v, 24)


def fmt_change(c):
    return "changed" if math.isinf(c) else f"{c * 100:+.3f}%"


def summarize(moved):
    """((artifact, group), (count, smallest change, largest change)) of
    the moved rows, sorted by artifact and group."""
    groups = {}
    for where, _, _, _, c, group in moved:
        n, lo, hi = groups.get((where, group), (0, c, c))
        groups[(where, group)] = (n + 1, min(lo, c), max(hi, c))
    return sorted(groups.items())


def report(moved, other, walls):
    if not moved and not other:
        print("identical")
    else:
        if moved:
            print(f"{len(moved)} moved row(s), sorted by |change|:")
            print(f"  {'artifact':<44} {'row':<48} {'a':>14} {'b':>14} "
                  f"{'change':>10}")
            for where, key, va, vb, c, _ in moved:
                print(f"  {short(where, 44):<44} {short(key, 48):<48} "
                      f"{fmt_value(va):>14} {fmt_value(vb):>14} "
                      f"{fmt_change(c):>10}")
            groups = summarize(moved)
            print(f"moved rows per artifact and series ({len(groups)}):")
            print(f"  {'artifact':<44} {'series':<32} {'rows':>5} "
                  f"{'smallest':>10} {'largest':>10}")
            for (where, group), (n, lo, hi) in groups:
                print(f"  {short(where, 44):<44} {short(group, 32):<32} "
                      f"{n:>5} {fmt_change(lo):>10} {fmt_change(hi):>10}")
        if other:
            print(f"{len(other)} other difference(s):")
            for o in other:
                print(f"  {o}")
    if walls:
        print("\nwall time (s)")
        print(f"  {'binary':<36} {'a':>9} {'b':>9}")
        for name, wa, wb in walls:
            fa = f"{wa:9.2f}" if isinstance(wa, (int, float)) else f"{'-':>9}"
            fb = f"{wb:9.2f}" if isinstance(wb, (int, float)) else f"{'-':>9}"
            print(f"  {name:<36} {fa} {fb}")
    return 0 if not moved and not other else 1


def main():
    ap = argparse.ArgumentParser(
        description="Run two builds' benches and examples and diff their "
                    "artifacts.")
    ap.add_argument("a", help="build dir A (with --runs: run tree A)")
    ap.add_argument("b", help="build dir B (with --runs: run tree B)")
    ap.add_argument("--runs", action="store_true",
                    help="compare two existing run trees; run nothing")
    ap.add_argument("--out", help="a new or empty directory for the runs "
                                  "(default: a new temporary directory, "
                                  "kept)")
    args = ap.parse_args()

    if args.runs:
        run_a, run_b = args.a, args.b
    else:
        for build in (args.a, args.b):
            if not binaries(build):
                print(f"no bench_* or example_* binaries under {build}",
                      file=sys.stderr)
                return 2
        out = args.out or tempfile.mkdtemp(prefix="identical-")
        if os.path.isdir(out) and os.listdir(out):
            print(f"--out {out} is not empty", file=sys.stderr)
            return 2
        run_a, run_b = run_builds(args.a, args.b, out)
        print(f"runs: {run_a} {run_b}")
    return report(*compare_runs(run_a, run_b))


if __name__ == "__main__":
    sys.exit(main())
