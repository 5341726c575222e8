#!/usr/bin/env python3
"""Self-test for identical.py's artifact diff.

Fabricates run trees (one directory per binary, as identical.py leaves
them) and checks that identical.py --runs reports:

  1. "identical" for two equal trees whose wall times differ;
  2. exactly one moved row, with its relative change, when one BENCH row
     moved;
  3. the missing file when one side lacks a STATS file;
  4. the first differing event of a trace;
  5. the first differing line of an example's stdout;
  6. a missing stats object, and no other key moved, when one side lacks
     a device's stats object or the last of a mount's FlusherStats;
  7. one summary line per artifact and series (deployment column, or
     stats object) with its count of moved rows and their smallest and
     largest change.

Run: test_identical.py [path/to/identical.py]. Exit 0 = all cases pass.
"""

import json
import os
import subprocess
import sys
import tempfile

IDENTICAL = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "identical.py")


def write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write(text)


def volume_stats(members=(0, 1, 2), flushers=2, member_writes=10):
    """A stats snapshot of a striped volume and its mount."""
    devices = [{"struct": "DeviceStats", "device": "ssd0", "writes": 30}]
    for m in members:
        devices.append({"struct": "DeviceStats", "device": f"ssd0/{m}",
                        "writes": member_writes + m})
        devices.append({"struct": "RequestQueueStats",
                        "device": f"ssd0/{m}", "batches": 5 + m})
    stats = [{"struct": "BufferCacheStats", "hits": 7}]
    stats += [{"struct": "FlusherStats", "wakeups": 58 + i}
              for i in range(flushers)]
    stats.append({"struct": "LogStats", "commits": 12})
    return {"type": "stats_snapshot", "devices": devices,
            "mounts": [{"mountpoint": "/mnt", "stats": stats}]}


def make_tree(root, create=1000.0, create4=2000.0, bento=28000.0,
              stats=True, trace_op="W",
              virtual_line="virtual 1.237 ms", wall_s=3.0,
              volume=volume_stats()):
    bench = os.path.join(root, "bench_table4_create")
    write(os.path.join(bench, "BENCH_table4_create.json"), json.dumps({
        "bench": "table4_create", "schema_version": 2, "unit": "creates/s",
        "rows": [
            {"series": "Bento", "label": "1t", "value": bento},
            {"series": "C-Kernel", "label": "1t", "value": create},
            {"series": "C-Kernel", "label": "4t", "value": create4},
        ]}))
    if stats:
        write(os.path.join(bench, "STATS_table4.json"),
              json.dumps({"xv6c": {"commits": 12, "blocks_logged": 300}}))
    write(os.path.join(bench, "STATS_volume.json"), json.dumps(volume))
    write(os.path.join(bench, "TRACE_table4.jsonl"),
          '{"ev":"Q","op":"W","blk":1}\n'
          f'{{"ev":"Q","op":"{trace_op}","blk":2}}\n')
    write(os.path.join(bench, "meta.json"),
          json.dumps({"returncode": 0, "wall_s": wall_s}))
    example = os.path.join(root, "example_quickstart")
    write(os.path.join(example, "stdout.txt"),
          f"created 3 files\n{virtual_line}\n")
    write(os.path.join(example, "meta.json"),
          json.dumps({"returncode": 0, "wall_s": 0.1}))


def run(a, b):
    p = subprocess.run([sys.executable, IDENTICAL, "--runs", a, b],
                       capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def main():
    failures = []

    def check(cond, what, out):
        if not cond:
            failures.append(f"{what}\n{out}")

    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a")
        make_tree(a)

        same = os.path.join(tmp, "same")
        make_tree(same, wall_s=4.5)
        rc, out = run(a, same)
        check(rc == 0 and out.splitlines()[0] == "identical",
              "1. equal trees must be identical", out)
        check("bench_table4_create" in out and "4.50" in out,
              "1. the wall-time table names each binary", out)

        moved = os.path.join(tmp, "moved")
        make_tree(moved, create=1100.0)
        rc, out = run(a, moved)
        check(rc == 1 and "1 moved row(s)" in out,
              "2. one moved row must be reported", out)
        check("C-Kernel / 1t" in out and "+10.000%" in out,
              "2. the moved row carries its relative change", out)
        check("other difference" not in out,
              "2. nothing else differs", out)

        missing = os.path.join(tmp, "missing")
        make_tree(missing, stats=False)
        rc, out = run(a, missing)
        check(rc == 1 and "STATS_table4.json: missing on side b" in out,
              "3. a missing file must be reported", out)
        check("moved row" not in out, "3. no row moved", out)

        traced = os.path.join(tmp, "traced")
        make_tree(traced, trace_op="R")
        rc, out = run(a, traced)
        check(rc == 1 and "first differing event #1" in out,
              "4. a trace differs at its second event", out)

        printed = os.path.join(tmp, "printed")
        make_tree(printed, virtual_line="virtual 1.934 ms")
        rc, out = run(a, printed)
        check(rc == 1 and "example_quickstart/stdout: 1 line(s) differ, "
              "first at line 2" in out,
              "5. an example's stdout differs at its second line", out)

        lean = os.path.join(tmp, "lean")
        make_tree(lean, volume=volume_stats(members=(0, 2), flushers=1))
        rc, out = run(a, lean)
        for obj in ("devices[DeviceStats ssd0/1]",
                    "devices[RequestQueueStats ssd0/1]",
                    "mounts[0].stats[FlusherStats#1]"):
            check(rc == 1 and f"STATS_volume.json: {obj} missing on side b"
                  in out, f"6. {obj} must be reported missing", out)
        check("moved row" not in out,
              "6. no key of another object moved", out)

        spread = os.path.join(tmp, "spread")
        make_tree(spread, create=1100.0, create4=1500.0, bento=28280.0,
                  volume=volume_stats(member_writes=20))
        rc, out = run(a, spread)
        lines = out.splitlines()
        head = [i for i, l in enumerate(lines)
                if l.startswith("moved rows per artifact and series")]
        check(rc == 1 and "6 moved row(s)" in out and len(head) == 1,
              "7. six moved rows and one summary", out)
        summary = [l.split() for l in lines[head[0] + 2:] if l.strip()][:5] \
            if head else []
        art = "bench_table4_create/BENCH_table4_create.json"
        for want in ([art, "Bento", "1", "+1.000%", "+1.000%"],
                     [art, "C-Kernel", "2", "-25.000%", "+10.000%"],
                     ["bench_table4_create/STATS_volume.json",
                      "devices[DeviceStats", "ssd0/1]", "1", "+90.909%",
                      "+90.909%"]):
            check(want in summary, f"7. summary line {want}", out)
        check(len(summary) == 5 and summary[-1][1:] == [
                  "devices[DeviceStats", "ssd0/2]", "1", "+83.333%",
                  "+83.333%"],
              "7. one line per stats object, sorted", out)

    for f in failures:
        print("FAIL:", f)
    if failures:
        return 1
    print("identical.py self-test: all cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
