"""Compare two sets of end-to-end benchmark runs.

Usage (from the repository root)::

    python benchmarks/e2e/compare.py A B

``A`` (the parent) and ``B`` (the change) are each a directory of files,
or a single file, holding the standard output of ``run.py`` runs — one
run per file.  Runs are grouped by workload and by traced/untraced, and
paired across the two sets by seed, in file-name order.

For every workload × metric the table gives each side's median, first
and third quartile and run count, then a verdict:

``better``
    The claim rule holds: at least :data:`MIN_PAIRS` pairs, B wins at
    least nine tenths of them (ties count for neither), and B's median
    beats A's by more than A's interquartile range.
``worse``
    B's median is worse than A's by more than the metric's bound.
``unresolved``
    Either side's spread (interquartile range over median) is wider
    than the bound, so "within bound" cannot be told from noise —
    unless every B run beats every A run (``within``) or loses to every
    A run (``worse``).  Per-layer metrics have no bound: they are
    ``better``, ``worse`` (the claim rule reversed) or ``unresolved``.
``within``
    No claim, and B's median is no worse than A's by more than the
    bound.

Fingerprints printed by the runs are compared per (workload, seed).
The exit status is 1 when any verdict is ``worse`` or any fingerprint
differs, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Fewest paired runs on which a gain may be claimed.
MIN_PAIRS = 10
#: Share of the pairs the change must win to claim a gain.
WIN_SHARE = 0.9


def read_runs(source: Path) -> list[dict]:
    """Parse run outputs: the ``# run`` header, the ``fingerprint``
    line and the final JSON result."""
    files = sorted(source.iterdir()) if source.is_dir() else [source]
    runs = []
    for path in files:
        lines = path.read_text().strip().splitlines()
        header = next((line for line in lines if line.startswith("# run ")), None)
        if header is None or not lines:
            continue
        fields = dict(part.split("=", 1) for part in header[len("# run "):].split())
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        fingerprint = next(
            (line.split()[1] for line in lines if line.startswith("fingerprint ")), None
        )
        runs.append({
            "workload": fields["workload"],
            "seed": int(fields["seed"]),
            "trace": fields["trace"] == "1",
            "result": result,
            "fingerprint": fingerprint,
        })
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)``; quartiles as ``statistics.quantiles`` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(a: list[float], b: list[float], pairs, lower_better: bool, bound) -> str:
    """The verdict for one metric (see the module docstring)."""
    sign = 1.0 if lower_better else -1.0
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    # Positive ``gain`` = B better than A, in the metric's own units.
    gain = sign * (med_a - med_b)
    wins = sum(1 for x, y in pairs if sign * (x - y) > 0)
    losses = sum(1 for x, y in pairs if sign * (y - x) > 0)
    enough = len(pairs) >= MIN_PAIRS
    if enough and wins >= WIN_SHARE * len(pairs) and gain > q3_a - q1_a:
        return "better"
    if bound is None:
        if enough and losses >= WIN_SHARE * len(pairs) and -gain > q3_a - q1_a:
            return "worse"
        return "unresolved"

    def spread(q1, q3, median):
        return (q3 - q1) / abs(median) if median else 0.0

    if max(spread(q1_a, q3_a, med_a), spread(q1_b, q3_b, med_b)) > bound:
        if all(sign * (x - y) > 0 for x in a for y in b):
            return "within"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    return "worse" if -gain > bound * abs(med_a) else "within"


def compare(runs_a: list[dict], runs_b: list[dict], benchmark: dict) -> tuple[list[list[str]], list[str]]:
    specs = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    specs.update({metric["name"]: metric for metric in benchmark["per_layer"]})
    order = list(specs)

    def grouped(runs):
        groups = defaultdict(list)
        for run in runs:
            groups[(run["workload"], run["trace"])].append(run)
        for group in groups.values():
            group.sort(key=lambda run: run["seed"])
        return groups

    groups_a, groups_b = grouped(runs_a), grouped(runs_b)
    rows, problems = [], []
    for key in sorted(set(groups_a) & set(groups_b)):
        group_a, group_b = groups_a[key], groups_b[key]
        by_seed = defaultdict(lambda: ([], []))
        for run in group_a:
            by_seed[run["seed"]][0].append(run)
        for run in group_b:
            by_seed[run["seed"]][1].append(run)
        matched = [pair for side_a, side_b in by_seed.values() for pair in zip(side_a, side_b)]
        for run_a, run_b in matched:
            if run_a["fingerprint"] != run_b["fingerprint"]:
                problems.append(
                    f"{key[0]} seed {run_a['seed']}: fingerprint "
                    f"{run_a['fingerprint']} != {run_b['fingerprint']}"
                )
        names = [
            name for name in order
            if all(name in run["result"]["metrics"] for run in group_a + group_b)
        ]
        for name in names:
            spec = specs[name]

            def value(run):
                return run["result"]["metrics"][name]["value"]

            a = [value(run) for run in group_a]
            b = [value(run) for run in group_b]
            pairs = [(value(x), value(y)) for x, y in matched]
            med_a, q1_a, q3_a = summary(a)
            med_b, q1_b, q3_b = summary(b)
            change = (med_b - med_a) / abs(med_a) * 100 if med_a else 0.0
            wins = sum(
                1 for x, y in pairs
                if (x - y if spec["better"] == "lower" else y - x) > 0
            )
            rows.append([
                key[0] + (" (traced)" if key[1] else ""),
                name,
                spec["unit"],
                f"{med_a:.6g} [{q1_a:.6g}, {q3_a:.6g}] n={len(a)}",
                f"{med_b:.6g} [{q1_b:.6g}, {q3_b:.6g}] n={len(b)}",
                f"{change:+.2f}%",
                f"{wins}/{len(pairs)}",
                verdict(a, b, pairs, spec["better"] == "lower", spec.get("bound")),
            ])
    return rows, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="parent runs (directory or file)")
    parser.add_argument("b", type=Path, help="changed runs (directory or file)")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text())
    rows, problems = compare(read_runs(args.a), read_runs(args.b), benchmark)
    header = ["workload", "metric", "unit", "A median [q1, q3]",
              "B median [q1, q3]", "change", "B wins", "verdict"]
    widths = [max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    for problem in problems:
        print(f"FINGERPRINT MISMATCH: {problem}")
    worse = any(row[-1] == "worse" for row in rows)
    return 1 if worse or problems else 0


if __name__ == "__main__":
    sys.exit(main())
