"""Compare two sets of benchmark records, workload by workload.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the ``*.json`` records that run.py writes to
.perfbench-runs/ (untraced runs only are compared).  The comparison is
refused, with exit code 2, when the two sides differ in kernel, Python or
numpy version, processor count or a workload's thread count, or when a
workload was run with different seeds on the two sides: the sign check's
cost depends on its seed.  Otherwise it prints, for every end-to-end metric
in BENCHMARK.json each side's median and quartiles and whether the change
stays within the metric's bound; the unscaled times (wall_s among them)
have no bound, so their change is reported without a verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MATCHED_META = ("kernel", "python", "numpy", "nproc", "threads")


def load(directory: Path):
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text())
        if record["meta"]["trace"] == 0:
            runs[record["meta"]["workload"]].append(record)
    return runs


def refusal(before, after):
    """Why the two sides may not be compared, or None."""
    for workload in sorted(set(before) & set(after)):
        records = before[workload] + after[workload]
        for key in MATCHED_META:
            seen = sorted({str(r["meta"][key]) for r in records})
            if len(seen) > 1:
                return f"{workload}: runs differ in {key}: {seen}"
        seeds_before = sorted(r["meta"]["seed"] for r in before[workload])
        seeds_after = sorted(r["meta"]["seed"] for r in after[workload])
        if seeds_before != seeds_after:
            return f"{workload}: seeds differ ({seeds_before} vs {seeds_after})"
    return None


def value(record, name: str) -> float:
    if name in record["metrics"]:
        return record["metrics"][name]["value"]
    return record["unscaled"][name]


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(Path(argv[0])), load(Path(argv[1]))
    why = refusal(before, after)
    if why:
        print(f"refused: {why}", file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    for workload in sorted(set(before) & set(after)):
        fails = [sum(r["failed"] for r in side[workload]) for side in (before, after)]
        print(f"{workload}: {len(before[workload])} vs {len(after[workload])} runs, "
              f"failed jobs {fails[0]} vs {fails[1]}")
        unscaled = [{"name": name, "better": "lower", "bound": None}
                    for name in before[workload][0]["unscaled"]]
        for metric in spec["end_to_end"] + unscaled:
            name, bound = metric["name"], metric["bound"]
            b = summary([value(r, name) for r in before[workload]])
            a = summary([value(r, name) for r in after[workload]])
            change = a[1] / b[1] - 1.0
            worse = change if metric["better"] == "lower" else -change
            spread = (b[2] - b[0]) / b[1]
            if bound is None:
                verdict = f"not bounded (spread {spread:.0%})"
            elif worse > bound:
                verdict = "REGRESSION"
            elif spread > bound:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = f"within bound {bound:.0%}"
            print(f"  {name:<12} before {b[1]:.4g} [{b[0]:.4g}, {b[2]:.4g}]  "
                  f"after {a[1]:.4g} [{a[0]:.4g}, {a[2]:.4g}]  change {change:+.1%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
