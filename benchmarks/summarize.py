"""Collect benchmarks/results/*.txt into one report.

Run after ``pytest benchmarks/ --benchmark-only``::

    python benchmarks/summarize.py [--out results/SUMMARY.md]
"""

from __future__ import annotations

import argparse
import os
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: experiment id -> one-line description (kept in sync with DESIGN.md)
DESCRIPTIONS = {
    "E1": "Figure 1: spill placement on the paper's worked example",
    "E2": "Figure 2: two-phase protocol trace",
    "E3": "Figure 3: tile construction and edge fix-up",
    "E4": "dynamic memory references across kernels and register counts",
    "E5": "spill code placed in less frequently executed blocks",
    "E6": "per-tile conflict-graph footprint",
    "E7": "profile feedback",
    "E8": "sibling-subtree parallelism: tree breadth and fuel critical path",
    "E9": "per-region heterogeneous allocation",
    "E10": "operand temporaries (recolor vs reserve vs re-iterate)",
    "E11": "callee-save shrink wrapping",
    "E12": "design-choice ablations",
    "E13": "inline expansion",
    "E14": "memory hierarchy (scratch level)",
    "E15": "time scaling",
    "E16": "unrolling stress",
}


def collect() -> str:
    if not os.path.isdir(RESULTS_DIR):
        raise SystemExit(
            "no results yet -- run: pytest benchmarks/ --benchmark-only"
        )
    sections = []
    names = sorted(
        os.listdir(RESULTS_DIR),
        key=lambda n: (int(n.split("_")[0][1:]) if n[0] == "E" else 99, n),
    )
    for name in names:
        if not name.endswith(".txt"):
            continue
        exp = name.split("_")[0]
        title = DESCRIPTIONS.get(exp, "")
        with open(os.path.join(RESULTS_DIR, name)) as fh:
            body = fh.read().rstrip()
        sections.append(f"## {name[:-4]}\n{title}\n\n```\n{body}\n```\n")
    header = (
        "# Benchmark results\n\n"
        "Generated by benchmarks/summarize.py from benchmarks/results/.\n"
        "See EXPERIMENTS.md for interpretation against the paper.\n\n"
    )
    return header + "\n".join(sections)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default=os.path.join(RESULTS_DIR, "SUMMARY.md"),
        help="output file (default: results/SUMMARY.md)",
    )
    args = parser.parse_args(argv)
    text = collect()
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out} ({text.count(chr(10))} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
