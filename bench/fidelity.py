#!/usr/bin/env python3
"""Paper fidelity report: the "Expected shape" claims in the paper benches'
header comments, checked against the rows those benches wrote.

Each claim in CLAIMS names a bench, two rows of its BENCH_<bench>.json
(series, label) and the ratio of the first to the second, and the source
it comes from: a file, a line, a phrase that line must contain, and the
band [lo, hi] the phrase means (hi None = no upper bound). Bands follow
one convention:

  "~=", "nearly identical", "equivalent"   [0.9, 1.1]
  "slightly ahead"                          [1.0, 1.2]
  "somewhat better"                         [1.0, 1.5]
  "~N x" for N < 10                          [0.8 N, 1.2 N]
  "~N x" for N >= 10                         [N / 2, 2 N]
  "collapses", "nearly flush with the axis" [10, none]

Each claim gets one state:

  holds       the ratio lies in the band
  fails       it lies outside
  missing     the BENCH file or one of the two rows is absent
  unresolved  the claim has two sources that disagree; the ratio is shown
              against each band and no side is picked
  stale       a source line no longer contains its phrase

It reads BENCH_*.json from --dir (default: the working directory), writes
the report to --out (default FIDELITY.md) and prints one line per claim.
With --baseline BASE it also judges every claim on the BENCH files in
BASE (an earlier run's) and prints, and adds to the report, each claim
whose state changed from BASE to DIR. It gates nothing: the exit status
is 0 whatever the states, and 2 on a usage error.

  fidelity.py [--dir DIR] [--out FILE] [--root REPO] [--baseline BASE]
"""

import argparse
import collections
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

Source = collections.namedtuple("Source", "path line phrase band")
Claim = collections.namedtuple("Claim", "name bench num den sources")

EQUAL = (0.9, 1.1)
SLIGHTLY_AHEAD = (1.0, 1.2)
SOMEWHAT_BETTER = (1.0, 1.5)
COLLAPSES = (10.0, None)


def about(n):
    """The band of "~n x"."""
    return (n / 2, 2 * n) if n >= 10 else (0.8 * n, 1.2 * n)


def src(bench_file, line, phrase, band):
    return Source("bench/" + bench_file, line, phrase, band)


def claims():
    out = []

    def add(name, bench, num, den, *sources):
        out.append(Claim(name, bench, num, den, sources))

    t4 = "bench_table4_create.cc"
    for t in ("1t", "32t"):
        add(f"Table 4 {t}: Bento slightly ahead of C-Kernel", "table4_create",
            ("Bento", t), ("C-Kernel", t),
            src(t4, 3, "Bento slightly ahead of C-Kernel", SLIGHTLY_AHEAD))
        add(f"Table 4 {t}: FUSE ~50x slower than Bento", "table4_create",
            ("Bento", t), ("FUSE", t),
            src(t4, 4, "FUSE ~50x slower", about(50)))

    t5 = "bench_table5_delete.cc"
    for t in ("1t", "32t"):
        add(f"Table 5 {t}: Bento ~= C-Kernel", "table5_delete",
            ("Bento", t), ("C-Kernel", t),
            src(t5, 4, "Bento ~= C-Kernel", EQUAL))
        add(f"Table 5 {t}: FUSE ~60x slower than Bento", "table5_delete",
            ("Bento", t), ("FUSE", t),
            src(t5, 5, "FUSE ~60x slower", about(60)))

    t6 = "bench_table6_macro.cc"
    var, fsv, untar = ("varmail_ops_per_s", "fileserver_ops_per_s",
                       "untar_seconds")
    add("Table 6 varmail: Bento ~= C-Kernel", "table6_macro",
        ("Bento", var), ("C-Kernel", var),
        src(t6, 6, "Bento ~= C-Kernel", EQUAL))
    add("Table 6 varmail: FUSE ~13x slower than Bento", "table6_macro",
        ("Bento", var), ("FUSE", var),
        src(t6, 6, "FUSE ~13x slower", about(13)))
    add("Table 6 varmail: ext4 ~= Bento", "table6_macro",
        ("Ext4", var), ("Bento", var),
        src(t6, 7, "here ext4 ~= Bento", EQUAL))
    add("Table 6 fileserver: Bento ~1.3x C-Kernel", "table6_macro",
        ("Bento", fsv), ("C-Kernel", fsv),
        src(t6, 11, "Bento ~1.3x C-Kernel", about(1.3)))
    add("Table 6 fileserver: FUSE collapses", "table6_macro",
        ("Bento", fsv), ("FUSE", fsv),
        src(t6, 11, "FUSE collapses", COLLAPSES))
    add("Table 6 fileserver: ext4 ~1.3x Bento", "table6_macro",
        ("Ext4", fsv), ("Bento", fsv),
        src(t6, 12, "ext4 ~1.3x Bento", about(1.3)))
    # Untar rows are seconds: a ratio of times, slower over faster.
    add("Table 6 untar: Bento ~1.6x faster than C-Kernel", "table6_macro",
        ("C-Kernel", untar), ("Bento", untar),
        src(t6, 13, "Bento ~1.6x faster than C-Kernel", about(1.6)))
    add("Table 6 untar: ext4 ~3x faster than Bento", "table6_macro",
        ("Bento", untar), ("Ext4", untar),
        src(t6, 13, "ext4 ~3x faster", about(3)))
    add("Table 6 untar: FUSE slower than Bento", "table6_macro",
        ("FUSE", untar), ("Bento", untar),
        src(t6, 14, "FUSE two orders of magnitude slower", about(100)),
        Source("CHANGES.md", 21, "the paper reports 7x", about(7)))

    f4 = "bench_fig4_write_tput.cc"
    for size in ("32KB", "128KB", "1024KB"):
        for cfg in ("seq-1t", "rnd-1t", "rnd-32t"):
            row = f"{cfg}/{size}"
            add(f"Fig 4 {row}: Bento ~= C-Kernel", "fig4_write_tput",
                ("Bento", row), ("C-Kernel", row),
                src(f4, 4, "Bento ~= C-Kernel", EQUAL))
            if size == "1024KB":
                add(f"Fig 4 {row}: Bento somewhat better than C-Kernel",
                    "fig4_write_tput", ("Bento", row), ("C-Kernel", row),
                    src(f4, 5, "better at large sizes", SOMEWHAT_BETTER))
            add(f"Fig 4 {row}: FUSE nearly flush with the x-axis",
                "fig4_write_tput", ("Bento", row), ("FUSE", row),
                src(f4, 7, "FUSE is nearly flush", COLLAPSES))

    for other in ("C-Kernel", "FUSE"):
        for cfg in ("seq-1t", "seq-32t", "rnd-1t", "rnd-32t"):
            add(f"Fig 2 {cfg}: {other} ~= Bento", "fig2_read4k",
                (other, cfg), ("Bento", cfg),
                src("bench_fig2_read4k.cc", 4,
                    "all three versions nearly identical", EQUAL))
        for size in ("32KB", "128KB", "1024KB"):
            for cfg in ("seq-1t", "seq-32t", "rnd-1t", "rnd-32t"):
                row = f"{cfg}/{size}"
                add(f"Fig 3 {row}: {other} ~= Bento", "fig3_read_tput",
                    (other, row), ("Bento", row),
                    src("bench_fig3_read_tput.cc", 4,
                        "all three file systems equivalent", EQUAL))
    return out


CLAIMS = claims()


def load_rows(directory, bench):
    path = os.path.join(directory, f"BENCH_{bench}.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    return {(r["series"], r["label"]): r["value"] for r in doc.get("rows", [])}


def source_ok(root, s):
    try:
        with open(os.path.join(root, s.path)) as f:
            lines = f.read().splitlines()
    except OSError:
        return False
    return 0 < s.line <= len(lines) and s.phrase in lines[s.line - 1]


def in_band(ratio, band):
    lo, hi = band
    return ratio >= lo and (hi is None or ratio <= hi)


def fmt_band(band):
    lo, hi = band
    return f"[{lo:g}, {'-' if hi is None else f'{hi:g}'}]"


def judge(claim, rows, root):
    """(state, ratio or None, per-source verdict notes)."""
    if not all(source_ok(root, s) for s in claim.sources):
        return "stale", None, []
    if rows is None or claim.num not in rows or claim.den not in rows:
        return "missing", None, []
    num, den = rows[claim.num], rows[claim.den]
    if den == 0:
        return "missing", None, []
    ratio = num / den
    verdicts = [("holds" if in_band(ratio, s.band) else "fails")
                for s in claim.sources]
    if len(claim.sources) > 1:
        notes = [f"{s.path}:{s.line} {v}"
                 for s, v in zip(claim.sources, verdicts)]
        return "unresolved", ratio, notes
    return verdicts[0], ratio, []


def report(directory, root):
    cache = {}
    results = []
    for c in CLAIMS:
        if c.bench not in cache:
            cache[c.bench] = load_rows(directory, c.bench)
        results.append((c,) + judge(c, cache[c.bench], root))
    return results


def state_cell(state, notes):
    return state if not notes else f"{state} ({'; '.join(notes)})"


def changes(results, base_results):
    """(claim, state in the baseline, state now) of each claim whose state,
    per-source verdicts included, differs between the two reports."""
    out = []
    for (c, state, _, notes), (_, bstate, _, bnotes) in zip(results,
                                                            base_results):
        before, now = state_cell(bstate, bnotes), state_cell(state, notes)
        if before != now:
            out.append((c, before, now))
    return out


def render(results, directory, baseline=None, changed=()):
    counts = collections.Counter(state for _, state, _, _ in results)
    order = ("holds", "fails", "unresolved", "missing", "stale")
    lines = [
        "# Paper fidelity",
        "",
        f"Generated by `bench/fidelity.py` from the `BENCH_*.json` files in "
        f"`{directory}`. Each claim is an \"Expected shape\" statement of a "
        "paper bench's header, as the ratio of two rows; see the script for "
        "the bands. Report only: nothing here gates CI.",
        "",
        f"{len(results)} claims: " + ", ".join(
            f"{counts[s]} {s}" for s in order if counts[s]) + ".",
        "",
        "| claim | ratio | measured | band | state | source |",
        "|---|---|---|---|---|---|",
    ]
    for c, state, ratio, notes in results:
        ratio_name = (f"{c.num[0]} / {c.den[0]}" if c.num[1] == c.den[1]
                      else f"{c.num} / {c.den}")
        measured = "-" if ratio is None else f"{ratio:.3g}"
        bands = " or ".join(fmt_band(s.band) for s in c.sources)
        sources = "; ".join(f"{s.path}:{s.line}" for s in c.sources)
        lines.append(f"| {c.name} | {ratio_name} | {measured} | {bands} | "
                     f"{state_cell(state, notes)} | {sources} |")
    if baseline is not None:
        lines += ["", f"## State changes since `{baseline}`", ""]
        if not changed:
            lines.append("None.")
        else:
            lines += ["| claim | before | now |", "|---|---|---|"]
            lines += [f"| {c.name} | {before} | {now} |"
                      for c, before, now in changed]
    return "\n".join(lines) + "\n"


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dir", default=".", help="where the BENCH files are")
    ap.add_argument("--out", default="FIDELITY.md", help="report path")
    ap.add_argument("--root", default=ROOT,
                    help="repository root, for the claims' sources")
    ap.add_argument("--baseline", default=None,
                    help="an earlier run's BENCH files, to list state changes")
    args = ap.parse_args(argv)
    for d in (args.dir, args.baseline):
        if d is not None and not os.path.isdir(d):
            print(f"fidelity.py: no directory {d}", file=sys.stderr)
            return 2
    results = report(args.dir, args.root)
    changed = []
    if args.baseline is not None:
        changed = changes(results, report(args.baseline, args.root))
    with open(args.out, "w") as f:
        f.write(render(results, args.dir, args.baseline, changed))
    for c, state, ratio, notes in results:
        measured = "-" if ratio is None else f"{ratio:.3g}"
        extra = f" ({'; '.join(notes)})" if notes else ""
        print(f"{state:10s} {measured:>8s}  {c.name}{extra}")
    if args.baseline is not None:
        print(f"{len(changed)} state change(s) since {args.baseline}")
        for c, before, now in changed:
            print(f"changed    {c.name}: {before} -> {now}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
