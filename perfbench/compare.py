"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories of run records (run.py writes them to
.bench_out/runs/) or single record files.  Exit codes:

* 2: the sets cannot be compared (the elimination backend differs,
  or no workload appears in both);
* 1: an answer changed (the output digests of the same workload and
  seed differ), a run counted failed operations, or the median of an
  end-to-end metric got worse by more than its bound in BENCHMARK.json;
* 0: otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def worse_by(before, after, better):
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(before, after, bounds):
    """Returns (exit code, report lines)."""
    lines = []
    backends = {r["context"]["backend"] for r in before + after}
    if len(backends) > 1:
        return 2, [f"refusing to compare runs of different backends: {sorted(backends)}"]
    workloads = sorted({r["workload"] for r in before} & {r["workload"] for r in after})
    if not workloads:
        return 2, ["no workload appears in both sets"]

    code = 0
    for r in before + after:
        if r["failed"]:
            code = 1
            lines.append(f"FAILED OPS {r['workload']} seed {r['seed']}: "
                         f"{r['failed']} of {r['attempted']}")
    digests = {(r["workload"], r["seed"]): r["digest"] for r in before}
    for r in after:
        old = digests.get((r["workload"], r["seed"]))
        if old is not None and old != r["digest"]:
            code = 1
            lines.append(f"ANSWER CHANGED {r['workload']} seed {r['seed']}: "
                         f"digest {old[:12]} -> {r['digest'][:12]}")

    for wl in workloads:
        for name, (better, bound) in bounds.items():
            a = [r["metrics"][name]["value"] for r in before
                 if r["workload"] == wl and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in after
                 if r["workload"] == wl and name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            worse = worse_by(ma, mb, better)
            verdict = "REGRESSION" if worse > bound else "ok"
            if worse > bound:
                code = 1
            lines.append(f"{verdict:<10} {wl:<15} {name:<12} {ma:>12.6g} -> {mb:<12.6g}"
                         f" worse by {worse:+.3f} (bound {bound}, runs {len(a)}/{len(b)})")
    return code, lines


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    code, lines = compare(load(argv[0]), load(argv[1]), bounds)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
