"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q      (from the repository root)
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "plane-classify": lambda: workloads.PlaneClassify(pool_size=200),
    "skew-grids": lambda: workloads.SkewGrids(sizes=(2, 3), blocks=2),
    "ci-verdicts": lambda: workloads.CiVerdicts(block_shapes=[((3, 3), (3, 4))], blocks=1),
}


def run_bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def one_block(workload, seed, tmp_path):
    workload.setup(seed, str(tmp_path))
    loop = worker.Loop(workload)
    loop.run_block(0)
    return loop


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_name_and_unit_is_emitted(name, trace):
    proc = run_bench(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    text = "\n".join(lines[:-1])
    if not trace:
        for m in declared:
            assert m["name"] in text
        assert "failed_ops_frac" in text


@pytest.mark.parametrize("name", sorted(TINY))
def test_changed_seed_changes_inputs_but_breaks_no_invariant(name, tmp_path):
    first = TINY[name]()
    second = TINY[name]()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    loop_a = one_block(first, 1, tmp_path / "a")
    loop_b = one_block(second, 2, tmp_path / "b")
    assert loop_a.failed == loop_b.failed == 0, loop_a.failures + loop_b.failures
    if name == "ci-verdicts":
        # a grid's CI report depends only on its shape, so only the files differ
        read = lambda w: [Path(p).read_text() for p, _ in w.block(0)]  # noqa: E731
        assert read(first) != read(second)
    else:
        assert first.block(0) != second.block(0)
        assert loop_a.digest.hexdigest() != loop_b.digest.hexdigest()


def test_same_seed_gives_same_digest(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = one_block(TINY["skew-grids"](), 5, tmp_path / "a")
    b = one_block(TINY["skew-grids"](), 5, tmp_path / "b")
    assert a.digest.hexdigest() == b.digest.hexdigest()


def test_corrupted_plane_output_is_counted(monkeypatch, tmp_path):
    from hada import plane

    original = plane.point_line_product_p2

    def wrong_case(q, line):
        out = original(q, line)
        return type(out)(case=out.case % 5 + 1, line=out.line, point=out.point)

    monkeypatch.setattr(plane, "point_line_product_p2", wrong_case)
    loop = one_block(TINY["plane-classify"](), 1, tmp_path)
    assert loop.failed == loop.attempted == 200
    assert "outcome is case" in loop.failures[0]


def not_ci(points, max_degree=None):
    from hada import ideals

    v = ideals.ci_verdict(points, max_degree)
    return ideals.CIVerdict(kind="NotCI", codimension=v.codimension,
                            total_generators=v.total_generators,
                            witness_degrees=v.witness_degrees)


@pytest.mark.parametrize("attr, fake, message", [
    ("ci_verdict", not_ci, "expected CI"),
    ("emit_report", lambda *args: None, "JSONDecodeError"),
])
def test_corrupted_cli_output_is_counted(monkeypatch, tmp_path, attr, fake, message):
    from hada import cli

    monkeypatch.setattr(cli, attr, fake)
    loop = one_block(TINY["ci-verdicts"](), 1, tmp_path)
    assert loop.failed == loop.attempted == 2
    assert message in loop.failures[0]


def test_tracer_wraps_every_binding_and_restores_it():
    import hada
    from hada import cli, ideals, plane, space

    tracer = Tracer(worker.LAYERS)
    originals = (ideals.ci_verdict, cli.ci_verdict, hada.ci_verdict, plane.hadamard_points)
    tracer.install()
    try:
        assert cli.ci_verdict is ideals.ci_verdict is hada.ci_verdict
        assert ideals.ci_verdict.__wrapped__ is originals[0]
        assert plane.hadamard_points.__wrapped__ is originals[3]
        line, line2, xs, xs2 = space.generic_skew_sample(3, 3, 1)
        grid = space.grid_product_p3(xs, xs2, line, line2)
        cli.ci_verdict(grid.points)
    finally:
        tracer.uninstall()
    assert (ideals.ci_verdict, cli.ci_verdict, hada.ci_verdict,
            plane.hadamard_points) == originals
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["ideals.ci_verdict"] == 1
    assert calls["ideals.generator_profile"] == 1
    assert calls["linalg.rank_of"] > 0
    assert all(s >= 0 for s in tracer.self_s)
    rows, cols, bits = tracer.shapes[tracer.names.index("linalg.rank_of")]
    assert rows > 0 and cols == 20 and bits > 0  # cubics in four variables
    assert len(tracer.spans) == sum(tracer.calls)


def test_tail_percentile_leaves_ten_samples_beyond():
    samples = list(range(1, 43))
    pct, value, beyond = worker.tail_percentile(samples)
    assert (pct, value, beyond) == (76, 32, 10)


def record(digest, backend="python"):
    return {"workload": "skew-grids", "seed": 1, "failed": 0, "attempted": 6,
            "digest": digest, "context": {"backend": backend},
            "metrics": {"ops_per_s": {"value": 10.0, "unit": "1/s"}}}


def test_compare_fails_on_changed_answers_and_refuses_other_backends():
    bounds = {"ops_per_s": ("higher", 0.1)}
    assert compare.compare([record("a")], [record("a")], bounds)[0] == 0
    assert compare.compare([record("a")], [record("b")], bounds)[0] == 1
    assert compare.compare([record("a")], [record("a", "cython")], bounds)[0] == 2


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(["--workload", "skew-grids", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
