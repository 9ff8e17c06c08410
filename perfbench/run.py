"""hada's end-to-end benchmark.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S [--trace 0|1]

Run from the root of a source checkout (hada is imported from ./src;
nothing is built).  Workloads: plane-classify, skew-grids, ci-verdicts;
without --workload all three run in turn.

Set-up is timed in separate fresh processes (interpreter start, import
and input generation), half of them before the measured process and
half after it, and reported as the median.  The measured process is
one fresh single-threaded process that runs the workload closed-loop,
one caller, for whole blocks of operations until S seconds have
passed.  With --trace 0 it reports the end-to-end metrics; with
--trace 1 each block runs twice, untraced and then traced, and the
per-layer metrics are reported.

For each workload, every line but the last is for people.  The last
line is one JSON object with the keys correct, attempted, failed and
metrics.  The full record of the run, with its context and output
digest, is written to .bench_out/runs/; compare two sets of records
with perfbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("plane-classify", "skew-grids", "ci-verdicts")
SETUP_RUNS = 8  # half before and half after the measured process
DEADLINE_S = 170


def run_worker(workload, seed, extra, timeout):
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          env=env, check=True)


def run_one(workload, seed, seconds, trace):
    """Runs one workload and prints its report; returns the exit code."""
    started = perf_counter()
    setup_times = []

    def time_setup():
        for _ in range(SETUP_RUNS // 2):
            t0 = perf_counter()
            run_worker(workload, seed, ["--setup-only"], timeout=30)
            setup_times.append(perf_counter() - t0)

    try:
        time_setup()
        left = DEADLINE_S - 15 - (perf_counter() - started)
        proc = run_worker(
            workload, seed, ["--seconds", str(seconds), "--trace", str(trace)], timeout=left
        )
        time_setup()
    except subprocess.CalledProcessError as exc:
        print(exc.stderr, file=sys.stderr)
        print(f"workload process failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"workload process did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1

    record = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = record["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s",
                              "runs": setup_times}
    record["seconds"] = seconds
    runs = Path(".bench_out/runs")
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    ctx = record["context"]
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"blocks {record['blocks']}  python {ctx['python']}  nproc {ctx['nproc']}  "
          f"backend {ctx['backend']}  HADA_PURE {'set' if ctx['hada_pure'] else 'unset'}")
    for key, m in metrics.items():
        extra = {k: v for k, v in m.items() if k not in ("value", "unit", "runs")}
        detail = "  " + " ".join(f"{k}={v}" for k, v in extra.items()) if extra else ""
        print(f"  {key:<48} {m['value']:>14.6g} {m['unit']}{detail}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_ops_frac':<48} {failed / attempted:>14.6g} "
          f"fraction  failed={failed} attempted={attempted}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print(f"  digest {record['digest']} over {record['digest_ops']} operations")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/hada/__init__.py").is_file():
        print("run from the root of a hada checkout: src/hada is missing",
              file=sys.stderr)
        return 2
    codes = [run_one(w, args.seed, args.seconds, args.trace)
             for w in ([args.workload] if args.workload else WORKLOADS)]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
