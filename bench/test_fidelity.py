#!/usr/bin/env python3
"""Self-test for fidelity.py's claim states.

Fabricates BENCH files and checks that fidelity.py reports:

  1. "holds" for a ratio inside its band and "fails" for one outside;
  2. "unresolved" for untar's two disagreeing sources, with each source's
     verdict, and no plain holds or fails;
  3. "missing" for an absent BENCH file and for an absent row;
  4. "stale" once a header line no longer says what the claim quotes;
  5. exit status 0 whatever the states, and 2 for a missing directory;
  6. with --baseline, each claim whose state changed from the baseline's
     BENCH files, and no other, printed and listed in the report; 2 for a
     missing baseline directory;
  7. the write-path ablation's ">=N x" gates: "fails" below N, "holds" at
     or above it, with no upper bound.

Run: test_fidelity.py [path/to/fidelity.py]. Exit 0 = all cases pass.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

FIDELITY = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fidelity.py")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(FIDELITY)))


def bench_file(directory, name, rows):
    doc = {"bench": name, "schema_version": 2, "unit": "",
           "rows": [{"series": s, "label": l, "value": v}
                    for (s, l), v in rows.items()]}
    with open(os.path.join(directory, f"BENCH_{name}.json"), "w") as f:
        json.dump(doc, f)


def run(directory, root=ROOT, baseline=None, stdout=None):
    """fidelity.py's exit status and each claim's state in its report;
    `stdout`, a list, receives the printed lines."""
    out = os.path.join(directory, "FIDELITY.md")
    cmd = [sys.executable, FIDELITY, "--dir", directory, "--out", out,
           "--root", root]
    if baseline is not None:
        cmd += ["--baseline", baseline]
    p = subprocess.run(cmd, capture_output=True, text=True)
    if stdout is not None:
        stdout += p.stdout.splitlines()
    states = {}
    if p.returncode == 0:
        with open(out) as f:
            for line in f:
                cells = [c.strip() for c in line.strip().strip("|").split("|")]
                if len(cells) == 6 and cells[0] not in ("claim", "---"):
                    states[cells[0]] = cells[4]
    return p.returncode, states


def main():
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    with tempfile.TemporaryDirectory() as d:
        bench_file(d, "table4_create", {
            ("Bento", "1t"): 110.0, ("C-Kernel", "1t"): 100.0,
            ("FUSE", "1t"): 2.0,
            ("Bento", "32t"): 100.0, ("C-Kernel", "32t"): 50.0,
            ("FUSE", "32t"): 10.0})
        bench_file(d, "table6_macro", {
            ("Bento", "untar_seconds"): 1.0, ("FUSE", "untar_seconds"): 7.0,
            ("C-Kernel", "untar_seconds"): 1.6,
            ("Bento", "varmail_ops_per_s"): 500.0})
        code, s = run(d)
        check(code == 0, f"1: exit {code}, expected 0")
        check(s.get("Table 4 1t: Bento slightly ahead of C-Kernel") == "holds",
              f"1: table4 1t C-Kernel {s.get('Table 4 1t: Bento slightly ahead of C-Kernel')}")
        check(s.get("Table 4 1t: FUSE ~50x slower than Bento") == "holds",
              "1: table4 1t FUSE (55x) should hold")
        check(s.get("Table 4 32t: Bento slightly ahead of C-Kernel") == "fails",
              "1: table4 32t (2x) should fail")
        check(s.get("Table 4 32t: FUSE ~50x slower than Bento") == "fails",
              "1: table4 32t FUSE (10x) should fail")
        check(s.get("Table 6 untar: Bento ~1.6x faster than C-Kernel")
              == "holds", "1: untar C-Kernel/Bento 1.6 should hold")

        untar = s.get("Table 6 untar: FUSE slower than Bento", "")
        check(untar.startswith("unresolved ("),
              f"2: untar FUSE state {untar!r}")
        check("bench/bench_table6_macro.cc:14 fails" in untar
              and "CHANGES.md:21 holds" in untar,
              f"2: per-source verdicts {untar!r}")

        check(s.get("Table 5 1t: Bento ~= C-Kernel") == "missing",
              "3: absent BENCH file should be missing")
        check(s.get("Table 6 varmail: Bento ~= C-Kernel") == "missing",
              "3: absent row should be missing")

        # A root whose table4 header no longer says "slightly ahead".
        root = os.path.join(d, "root")
        shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(root, "bench"),
                        ignore=shutil.ignore_patterns("bm"))
        shutil.copy(os.path.join(ROOT, "CHANGES.md"), root)
        header = os.path.join(root, "bench", "bench_table4_create.cc")
        with open(header) as f:
            text = f.read()
        with open(header, "w") as f:
            f.write(text.replace("Bento slightly ahead", "Bento well ahead"))
        code, s = run(d, root)
        check(code == 0, f"4: exit {code}, expected 0")
        check(s.get("Table 4 1t: Bento slightly ahead of C-Kernel") == "stale",
              "4: edited header line should make its claim stale")
        check(s.get("Table 4 1t: FUSE ~50x slower than Bento") == "holds",
              "4: an untouched line's claim should still hold")

        code, _ = run(os.path.join(d, "nowhere"))
        check(code == 2, f"5: exit {code} for a missing directory, expected 2")

        # The baseline has table4 1t failing (1.5x) and no 32t rows; the
        # current run above has 1t holding and 32t failing.
        base = os.path.join(d, "base")
        os.mkdir(base)
        bench_file(base, "table4_create", {
            ("Bento", "1t"): 150.0, ("C-Kernel", "1t"): 100.0,
            ("FUSE", "1t"): 2.0})
        bench_file(base, "table6_macro", {
            ("Bento", "untar_seconds"): 1.0, ("FUSE", "untar_seconds"): 7.0,
            ("C-Kernel", "untar_seconds"): 1.6,
            ("Bento", "varmail_ops_per_s"): 500.0})
        printed = []
        code, _ = run(d, baseline=base, stdout=printed)
        check(code == 0, f"6: exit {code}, expected 0")
        changed = [l for l in printed if l.startswith("changed ")]
        expect = {
            "Table 4 1t: Bento slightly ahead of C-Kernel: fails -> holds",
            "Table 4 32t: Bento slightly ahead of C-Kernel: missing -> fails",
            "Table 4 32t: FUSE ~50x slower than Bento: missing -> fails"}
        check({l.split(None, 1)[1] for l in changed} == expect,
              f"6: changed lines {changed}")
        check("3 state change(s) since " + base in printed,
              f"6: summary line missing from {printed[-4:]}")
        with open(os.path.join(d, "FIDELITY.md")) as f:
            text = f.read()
        check("| Table 4 1t: Bento slightly ahead of C-Kernel | fails | "
              "holds |" in text, "6: report should list the 1t change")
        code, _ = run(d, baseline=os.path.join(d, "nowhere"))
        check(code == 2, f"6: exit {code} for a missing baseline, expected 2")

    with tempfile.TemporaryDirectory() as d:
        bench_file(d, "writepath", {
            ("Bento-seqwrite", "1dev"): 1636.7,
            ("Bento-seqwrite", "8dev"): 3182.2,
            ("C-kernel-log-commits", "group"): 10.0,
            ("C-kernel-log-commits", "nogroup"): 1000.0})
        code, s = run(d)
        check(code == 0, f"7: exit {code}, expected 0")
        scaling = "Writepath: full config scales >=2.5x from 1 to 8 members"
        commits = "Writepath: group commit cuts C-kernel commits >=5x"
        check(s.get(scaling) == "fails",
              f"7: 1.94x scaling should fail, got {s.get(scaling)}")
        check(s.get(commits) == "holds",
              f"7: 100x fewer commits should hold, got {s.get(commits)}")

    for f in failures:
        print("FAIL:", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
