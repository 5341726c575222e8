#!/usr/bin/env python3
"""Cross-PR perf trend aggregator + regression gate.

Collects every BENCH_<name>.json emitted by the virtual-time benches (see
bench/common.h::JsonReport) into one machine-readable BENCH_TREND.json and
a human-readable TREND.md markdown table, so CI artifacts carry a single
perf snapshot per run and successive runs can be diffed.

With --baseline pointing at a previous run's BENCH_TREND.json (CI downloads
the last artifact), tracked rows are compared against the baseline and the
script FAILS (exit 2) on any regression beyond --fail-threshold (default
10%). Gating is DIRECTION-AWARE (schema v2 reports tag rows):

  - direction "up" (bandwidth, ops/s): fails when the value DROPS by more
    than the threshold.
  - direction "down" (latency): fails when the value RISES by more than
    the threshold — a p99 latency regression is caught even when the
    accompanying MBps row improved.
  - direction "" / absent on a tagged row: tracked in the trend artifacts
    but never gated.

Legacy (schema v1) rows carry no tags; those gate exactly as before: rows
of reports whose unit is MBps, excluding ratio/count series, gate "up".

Usage: trend.py [--dir DIR] [--out-json PATH] [--out-md PATH]
               [--baseline PATH] [--fail-threshold FRAC]
DIR defaults to the current directory (where the benches were run).
Stdlib only; no third-party dependencies.
"""

import argparse
import glob
import json
import os
import sys

# One-line context per bench series family, rendered into TREND.md so the
# table is readable without the source.
NOTES = {
    "writepath": (
        "Write-path ablation: buffered sequential writes through "
        "xv6-on-Bento on 1/2/4/8-member RAID0 volumes. `Bento-seqwrite` is "
        "the full configuration (pipelined journal commits + cross-op group "
        "commit); the `-nopipeline`/`-nogroup` series each disable one "
        "mechanism. `*-scaling` is the "
        "8-member/1-member ratio (gate: >=2.5x full). The C-kernel rows "
        "track the per-page ->writepage path's journal commit count with "
        "group commit on vs off (gate: >=5x fewer)."
    ),
    "striping": (
        "RAID0 scaling sweep: raw volume bandwidth and the full "
        "Bento-seqwrite stack vs member count. Write-latency p50/p99 ride "
        "along per member count (p99 gated downward)."
    ),
    "redundancy": (
        "RAID1 sweep: read scaling across replicas; writes must stay at "
        "single-device cost."
    ),
    "fsynclat": (
        "Per-op pwrite+fsync latency (the journal commit round trip) on "
        "plain, RAID0/4, and RAID5/4 volumes. p99 is gated downward: a "
        ">10% p99 increase fails CI even if throughput improved."
    ),
    "faultpath": (
        "Failure-path hardening (ISSUE 10): pwrite+fsync under a periodic "
        "device fault schedule (2ms up / 50us down) healed by the request "
        "queue's bounded retry (backoff 200us), on plain/RAID1/RAID5 "
        "volumes. `faulted` ops/s is gated upward and `faulted-lat.p99` "
        "downward — the degraded path must not rot; `healthy`/retry-count "
        "rows are tracked unguarded. The bench itself fails if no retry "
        "ever succeeds."
    ),
    "flusher": (
        "Background-writeback ablation: buffered write throughput with "
        "the per-device flusher on vs writer-context sync, plus "
        "foreground write-latency attribution (p99 gated downward)."
    ),
}


def load_reports(directory):
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        if os.path.basename(path) == "BENCH_TREND.json":
            continue
        try:
            with open(path) as f:
                data = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"trend.py: skipping {path}: {e}", file=sys.stderr)
            continue
        if "bench" in data and "rows" in data:
            reports.append(data)
    return reports


def row_unit(rep, row):
    return row.get("unit") or rep.get("unit") or "value"


def row_direction(rep, row):
    """Gating direction for a row: "up", "down", or None (not gated)."""
    if "direction" in row or "unit" in row:
        # Schema v2 tagged row: the tag is authoritative.
        d = row.get("direction", "")
        return d if d in ("up", "down") else None
    # Legacy row: gate MBps bandwidths upward, exclude ratios/counts.
    if rep.get("unit") != "MBps":
        return None
    series = row["series"]
    if "scaling" in series or "commit" in series or "count" in series:
        return None
    return "up"


def render_markdown(reports):
    lines = ["# Perf trend", ""]
    lines.append(
        "One table per bench; values are the latest run's "
        "(series, label) points. Columns marked with a trailing `*` are "
        "regression-GATED (direction-aware: bandwidth gates on drops, "
        "latency on increases); unmarked columns are tracked only.")
    for rep in reports:
        unit = rep.get("unit") or "value"
        lines.append("")
        lines.append(f"## {rep['bench']} [{unit}]")
        lines.append("")
        note = NOTES.get(rep["bench"])
        if note:
            lines.append(note)
            lines.append("")
        # Pivot: one row per label, one column per series. A series'
        # header carries its unit (when it differs from the report's)
        # and the gated mark; a series whose rows differ in unit carries
        # the unit in each cell instead.
        series, labels = [], []
        cells = {}
        sunits, sgated = {}, {}
        for row in rep["rows"]:
            s = row["series"]
            if s not in series:
                series.append(s)
            if row["label"] not in labels:
                labels.append(row["label"])
            cells[(s, row["label"])] = (row["value"], row_unit(rep, row))
            sunits.setdefault(s, set()).add(row_unit(rep, row))
            if row_direction(rep, row) is not None:
                sgated[s] = True
        heads = []
        for s in series:
            head = s
            if len(sunits[s]) == 1 and unit not in sunits[s]:
                head += f" [{next(iter(sunits[s]))}]"
            if sgated.get(s):
                head += "*"
            heads.append(head)
        lines.append("| label | " + " | ".join(heads) + " |")
        lines.append("|---" * (len(series) + 1) + "|")
        for label in labels:
            vals = []
            for s in series:
                cell = cells.get((s, label))
                if cell is None:
                    vals.append("")
                elif len(sunits[s]) > 1 and cell[1] != unit:
                    vals.append(f"{cell[0]:g} {cell[1]}")
                else:
                    vals.append(f"{cell[0]:g}")
            lines.append(f"| {label} | " + " | ".join(vals) + " |")
    lines.append("")
    return "\n".join(lines)


def tracked_rows(reports):
    """(bench, series, label) -> (value, direction, unit) for every row
    the regression gate watches."""
    out = {}
    for rep in reports:
        for row in rep["rows"]:
            d = row_direction(rep, row)
            if d is None:
                continue
            key = (rep["bench"], row["series"], row["label"])
            out[key] = (row["value"], d, row_unit(rep, row))
    return out


def check_regressions(reports, baseline_path, threshold):
    try:
        with open(baseline_path) as f:
            base = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"trend.py: no usable baseline ({e}); gate skipped",
              file=sys.stderr)
        return []
    base_rows = tracked_rows(base.get("reports", []))
    new_rows = tracked_rows(reports)
    regressions = []
    for key, (old, direction, unit) in base_rows.items():
        entry = new_rows.get(key)
        if entry is None or old <= 0:
            continue  # series removed/renamed: not a perf regression
        new = entry[0]
        if direction == "up" and new < old * (1.0 - threshold):
            regressions.append((key, old, new, direction, unit))
        elif direction == "down" and new > old * (1.0 + threshold):
            regressions.append((key, old, new, direction, unit))
    return regressions


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", default=".")
    ap.add_argument("--out-json", default=None)
    ap.add_argument("--out-md", default=None)
    ap.add_argument("--baseline", default=None,
                    help="previous run's BENCH_TREND.json to gate against")
    ap.add_argument("--fail-threshold", type=float, default=0.10,
                    help="relative change that fails the gate (drop for "
                         "direction=up rows, rise for direction=down rows)")
    args = ap.parse_args()

    out_json = args.out_json or os.path.join(args.dir, "BENCH_TREND.json")
    out_md = args.out_md or os.path.join(args.dir, "TREND.md")

    reports = load_reports(args.dir)
    if not reports:
        print(f"trend.py: no BENCH_*.json under {args.dir}", file=sys.stderr)
        return 1

    trend = {
        "benches": [r["bench"] for r in reports],
        "reports": reports,
    }
    with open(out_json, "w") as f:
        json.dump(trend, f, indent=2)
    with open(out_md, "w") as f:
        f.write(render_markdown(reports))
    print(f"trend.py: aggregated {len(reports)} benches -> "
          f"{out_json}, {out_md}")

    if args.baseline:
        regressions = check_regressions(reports, args.baseline,
                                        args.fail_threshold)
        if regressions:
            for (bench, series, label), old, new, d, unit in regressions:
                kind = "drop" if d == "up" else "increase"
                print(f"trend.py: REGRESSION {bench}/{series}/{label}: "
                      f"{old:g} -> {new:g} {unit} "
                      f"({(new / old - 1) * 100:+.1f}% {kind})",
                      file=sys.stderr)
            return 2
        print("trend.py: regression gate passed "
              f"(threshold {args.fail_threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
