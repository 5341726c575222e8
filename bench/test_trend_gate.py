#!/usr/bin/env python3
"""Self-test for trend.py's direction-aware regression gate.

Builds synthetic BENCH_*.json reports in temp directories, aggregates a
baseline, then checks:

  1. a >10% p99 latency INCREASE fails the gate even when the MBps row
     in the same report IMPROVED (the masking case the gate exists for),
  2. changes within the threshold pass,
  3. a legacy (untagged, MBps-unit) bandwidth drop still fails,
  4. tracked-only rows (direction "") never gate,
  5. count rows tagged direction "down" in an MBps report gate on a rise,
     not on a fall, and TREND.md gives their unit per cell.

Run: test_trend_gate.py [path/to/trend.py]. Exit 0 = all cases pass.
"""

import json
import os
import subprocess
import sys
import tempfile

TREND = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "trend.py")


def write_report(directory, bench, unit, rows):
    with open(os.path.join(directory, f"BENCH_{bench}.json"), "w") as f:
        json.dump({"bench": bench, "schema_version": 2, "unit": unit,
                   "rows": rows}, f)


def run_trend(directory, baseline=None):
    cmd = [sys.executable, TREND, "--dir", directory]
    if baseline:
        cmd += ["--baseline", baseline]
    p = subprocess.run(cmd, capture_output=True, text=True)
    return p.returncode, p.stdout + p.stderr


def fsynclat_rows(mbps, p50, p99):
    return [
        {"series": "fsync", "label": "plain", "value": mbps,
         "unit": "MBps", "direction": "up"},
        {"series": "fsync-lat.p50", "label": "plain", "value": p50,
         "unit": "ns", "direction": ""},
        {"series": "fsync-lat.p99", "label": "plain", "value": p99,
         "unit": "ns", "direction": "down"},
    ]


def writeback_rows(mbps, commits, blocks):
    return [
        {"series": "Bento", "label": "MBps", "value": mbps},
        {"series": "Bento", "label": "log_commits", "value": commits,
         "unit": "commits", "direction": "down"},
        {"series": "Bento", "label": "blocks_logged", "value": blocks,
         "unit": "blocks", "direction": "down"},
    ]


def main():
    failures = []

    def check(name, ok, detail=""):
        print(f"{'ok' if ok else 'FAIL'}: {name}")
        if not ok:
            failures.append((name, detail))

    with tempfile.TemporaryDirectory() as tmp:
        base_dir = os.path.join(tmp, "base")
        os.mkdir(base_dir)
        write_report(base_dir, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=100.0, p50=50_000, p99=200_000))
        write_report(base_dir, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 500.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        write_report(base_dir, "writeback", "MBps",
                     writeback_rows(mbps=400.0, commits=100, blocks=25_000))
        rc, out = run_trend(base_dir)
        check("baseline aggregates", rc == 0, out)
        baseline = os.path.join(base_dir, "BENCH_TREND.json")

        # 1. p99 +50% while the bandwidth row improved: must FAIL.
        cur = os.path.join(tmp, "lat_regress")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=150.0, p50=50_000, p99=300_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 500.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("p99 increase fails despite MBps improvement",
              rc == 2 and "fsync-lat.p99" in out, out)

        # 2. everything within threshold: must PASS.
        cur = os.path.join(tmp, "within")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=95.0, p50=52_000, p99=205_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 480.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("within-threshold changes pass", rc == 0, out)

        # 3. legacy untagged MBps drop: must FAIL (back-compat).
        cur = os.path.join(tmp, "bw_regress")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=100.0, p50=50_000, p99=200_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 300.0},
            {"series": "Bento-scaling", "label": "seq", "value": 3.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("legacy MBps drop fails", rc == 2 and "legacy/Bento" in out,
              out)

        # 4. tracked-only p50 doubling (direction "") + scaling-series
        #    drop: neither gates; must PASS.
        cur = os.path.join(tmp, "tracked_only")
        os.mkdir(cur)
        write_report(cur, "fsynclat", "ops/s",
                     fsynclat_rows(mbps=100.0, p50=120_000, p99=200_000))
        write_report(cur, "legacy", "MBps", [
            {"series": "Bento", "label": "seq", "value": 500.0},
            {"series": "Bento-scaling", "label": "seq", "value": 1.0},
        ])
        rc, out = run_trend(cur, baseline)
        check("tracked-only rows never gate", rc == 0, out)

        # TREND.md marks gated columns.
        with open(os.path.join(cur, "TREND.md")) as f:
            md = f.read()
        check("TREND.md marks gated series",
              "fsync-lat.p99 [ns]*" in md and "fsync-lat.p50 [ns] " in md.replace("|", " "),
              md)

        # 5. commit and logged-block counts fall by 90% (bigger
        #    transactions): must PASS; a rise beyond the threshold: FAIL.
        cur = os.path.join(tmp, "counts_fall")
        os.mkdir(cur)
        write_report(cur, "writeback", "MBps",
                     writeback_rows(mbps=400.0, commits=10, blocks=2_500))
        rc, out = run_trend(cur, baseline)
        check("count rows tagged down pass when they fall", rc == 0, out)
        cur = os.path.join(tmp, "counts_rise")
        os.mkdir(cur)
        write_report(cur, "writeback", "MBps",
                     writeback_rows(mbps=400.0, commits=150, blocks=25_000))
        rc, out = run_trend(cur, baseline)
        check("count rows tagged down fail when they rise",
              rc == 2 and "writeback/Bento/log_commits" in out, out)

        # A series whose rows differ in unit labels each cell, not the
        # header.
        with open(os.path.join(cur, "TREND.md")) as f:
            md = f.read()
        check("TREND.md labels mixed-unit cells",
              "| label | Bento* |" in md and "| log_commits | 150 commits |"
              in md and "| MBps | 400 |" in md, md)

    if failures:
        for name, detail in failures:
            print(f"--- {name} ---\n{detail}", file=sys.stderr)
        return 1
    print("test_trend_gate.py: all cases pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
