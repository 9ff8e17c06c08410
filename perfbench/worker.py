"""One workload process: set-up, then the measured or traced loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Run from the root of a source checkout; hada is imported from ./src.
Prints one JSON object on its last line of output.  ``run.py`` starts
this process and is the command to use.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
LAYERS = json.loads((HERE / "layers.json").read_text())["modules"]
OUT_DIR = Path(".bench_out")


def tail_percentile(samples):
    """Highest whole percentile with at least ten samples beyond it
    (nearest rank).  Returns (percentile, value, samples beyond)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 50, statistics.median(ordered), n // 2
    pct = 100 * (n - 10) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n - rank


class Loop:
    """Runs blocks of one workload, timing, checking and digesting
    every operation."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.timed_blocks = []  # per timed block, the latency of each operation
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.seen = {}  # (block, position) -> canonical output hash
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def run_block(self, index, timed=True):
        """Run block ``index``; returns its wall time in seconds."""
        wl = self.workload
        latencies = []
        start = perf_counter()
        for pos, item in enumerate(wl.block(index)):
            if self.tracer is not None:
                self.tracer.op = self.attempted
            self.attempted += 1
            t0 = perf_counter()
            try:
                output, error = wl.run(item), None
            except Exception as exc:  # a raising operation is a failed one
                output, error = None, exc
            elapsed = perf_counter() - t0
            try:
                if error is not None:
                    raise error
                problems = wl.check(item, output)
                text = wl.canonical(item, output)
            except Exception as exc:  # so is one whose output cannot be read
                problems = [f"{type(exc).__name__}: {exc}"]
                text = problems[0]
            latencies.append(elapsed)
            key = (index % len(wl.blocks), pos)
            h = hashlib.sha256(text.encode()).hexdigest()
            if key not in self.seen:
                self.seen[key] = h
                if index < wl.digest_blocks:
                    self.digest.update(text.encode() + b"\n")
                    self.digest_ops += 1
            elif self.seen[key] != h:
                problems = problems + ["output differs from the same input's earlier output"]
            if problems:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{item!r:.120}: {'; '.join(problems)}")
        wall = perf_counter() - start
        if timed:
            self.timed_blocks.append(latencies)
        return wall


def measure(workload, seconds):
    """Whole blocks until ``seconds`` have passed, untraced.

    Throughput and the tail come from all timed operations.  The median
    is taken per block and averaged over the blocks: on a shared host
    the machine switches every few seconds between speeds that differ
    by half, and the median of the pooled latencies would then jump
    between the two modes with their shares of the run, while the mean
    of per-block medians moves in proportion to them.
    """
    loop = Loop(workload)
    start = perf_counter()
    blocks = 0
    while blocks == 0 or perf_counter() - start < seconds:
        loop.run_block(blocks)
        blocks += 1
    while blocks < workload.digest_blocks:
        loop.run_block(blocks, timed=False)
        blocks += 1
    timed = loop.timed_blocks
    lat = [x for block in timed for x in block]
    pct, tail, beyond = tail_percentile(lat)
    metrics = {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.mean(map(statistics.median, timed)) * 1e3,
                      "unit": "ms", "samples": len(lat), "blocks": len(timed)},
        "op_tail_ms": {"value": tail * 1e3, "unit": "ms", "percentile": pct,
                       "samples": len(lat), "beyond": beyond},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
    }
    return loop, blocks, metrics


def trace(workload, seconds):
    """Pairs of the same block, first untraced and then traced, until
    ``seconds`` have passed.  Counts come from the first traced block,
    times are medians over traced blocks, and the overhead is the
    median of traced minus untraced wall time."""
    from tracing import LINALG_SHAPES, Tracer

    tracer = Tracer(LAYERS)
    loop = Loop(workload, tracer)
    start = perf_counter()
    blocks = 0
    per_block = []  # (calls, self_s, nested sample_point/combine)
    overheads = []
    while blocks == 0 or perf_counter() - start < seconds:
        plain = loop.run_block(blocks)
        tracer.reset()
        tracer.install()
        try:
            traced = loop.run_block(blocks, timed=False)
        finally:
            tracer.uninstall()
        overheads.append(traced - plain)
        per_block.append((
            tracer.calls, tracer.self_s,
            tracer.nested("sampling.sample_point", "sampling.combine"),
        ))
        blocks += 1
    while blocks < workload.digest_blocks:
        loop.run_block(blocks, timed=False)
        blocks += 1

    metrics = {}
    first_calls = per_block[0][0]
    modules = {}
    for i, qual in enumerate(tracer.names):
        self_s = statistics.median(b[1][i] for b in per_block)
        metrics[f"{qual}.calls"] = {"value": first_calls[i], "unit": "count"}
        metrics[f"{qual}.self_s"] = {"value": self_s, "unit": "s"}
        mod = qual.split(".")[0]
        modules[mod] = modules.get(mod, 0.0) + self_s
        if mod == "linalg":
            best = tracer.shapes.get(i, [0, 0, 0])
            for (field, unit), value in zip(LINALG_SHAPES, best):
                metrics[f"{qual}.{field}"] = {"value": value, "unit": unit}
    sp = tracer.names.index("sampling.sample_point")
    combines = per_block[0][2]
    metrics["sampling.sample_point.accept_ratio"] = {
        "value": first_calls[sp] / combines if combines else 0.0, "unit": "ratio"}
    for mod, value in modules.items():
        metrics[f"{mod}.self_s"] = {"value": value, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": statistics.median(overheads), "unit": "s"}
    return loop, blocks, metrics, tracer


def setup(name, seed, workdir):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    workload.setup(seed, workdir)
    return workload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        workload = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        from hada import linalg

        if args.trace:
            loop, blocks, metrics, tracer = trace(workload, args.seconds)
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
            tracer.write_spans(spans)
        else:
            loop, blocks, metrics = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": {
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "backend": linalg.backend_name(),
            "hada_pure": os.environ.get("HADA_PURE", "0") not in ("", "0"),
        },
        "blocks": blocks,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures,
        "digest": loop.digest.hexdigest(),
        "digest_ops": loop.digest_ops,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
