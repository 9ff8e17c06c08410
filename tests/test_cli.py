"""CLI behaviour: reports, exit codes, fixture replay, determinism."""

import contextlib
import io
import json
import runpy
import shutil
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hada import _elim, linalg
from hada.cli import MAX_RANDOM_SIZE, main
from hada.fixtures import fixtures_dir, replay_fixtures
from hada.ideals import CIVerdict, degree_bounded_ideal
from hada.instances import MAX_PROFILE_POINTS, parse_instance, parse_instance_dict
from hada.projective import PointSet
from hada.space import MAX_IMPLICIT_DEGREE
from support import frac_hilbert_values

GRID_DOC = {
    "space": 2,
    "lines": {"L": [3, 1, -30], "Lp": [67, -6, -110]},
    "points": {
        "X": [[6, 12, 1], [22, 54, 4], [29, 63, 5]],
        "Xp": [[22, 154, 5], [28, 221, 5], [34, 288, 5], [18, 146, 3]],
    },
}

P3_DOC = {
    "space": 3,
    "lines": {
        "L": {"H": [1, -1, 1, 2], "K": [1, 2, -1, 1]},
        "Lp": {"H": [1, 2, -2, 1], "K": [2, 2, 1, -4]},
    },
    "points": {
        "X": [[-2, 1, 1, 1], [-1, -1, -2, 1], [-3, 3, 4, 1]],
        "Xp": [[-1, 2, 2, 1], [11, -8, -2, 1], [-7, 7, 4, 1]],
    },
}

# two collinear sets whose grid condition fails: `grid` exits 1
BAD_GRID_DOC = {
    "space": 2,
    "lines": {"L": [1, 1, -2], "Lp": [1, -3, 2]},
    "points": {"X": [[1, 1, 1]], "Xp": [[3, -1, -3]]},
}


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRID_DOC))
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(P3_DOC))
    return str(path)


def run_json(capsys, argv):
    rc = main(argv + ["--json"])
    out = capsys.readouterr().out
    return rc, json.loads(out)


def no_floats(value):
    if isinstance(value, float):
        return False
    if isinstance(value, dict):
        return all(no_floats(v) for v in value.values())
    if isinstance(value, list):
        return all(no_floats(v) for v in value)
    return True


def test_classify_case_two(capsys):
    rc, rep = run_json(capsys, ["classify", "--point", "0:1:1", "--line", "1:1:1"])
    assert rc == 0
    assert rep["results"]["case"] == 2
    assert rep["results"]["line"] == [1, 0, 0]


def test_classify_incidence(capsys):
    rc, rep = run_json(
        capsys,
        ["classify", "--point", "1:1:1", "--point2", "1:2:2", "--line", "0:1:1"],
    )
    assert rc == 0
    assert rep["results"]["case"] == "1c"
    assert rep["results"]["consistent"] is True


def test_product_of_point_sets(capsys, grid_file):
    rc, rep = run_json(
        capsys, ["product", "-i", grid_file, "--left", "X", "--right", "Xp"]
    )
    assert rc == 0
    assert rep["results"]["count"] == 12
    assert no_floats(rep)


def test_product_of_plane_lines(capsys, tmp_path):
    doc = {"space": 3, "lines": {"H": [0, 3, 0, -2], "K": [0, -7, 0, 4]}}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    rc, rep = run_json(
        capsys, ["product", "-i", str(path), "--left", "H", "--right", "K"]
    )
    assert rc == 0
    assert rep["results"]["hyperplane"] == [0, 21, 0, -8]


def test_grid_and_hilbert_commands(capsys, grid_file):
    rc, rep = run_json(capsys, ["grid", "-i", grid_file])
    assert rc == 0
    assert rep["results"]["count"] == 12
    rc, rep = run_json(capsys, ["hilbert", "-i", grid_file, "--product", "X,Xp"])
    assert rc == 0
    assert rep["results"]["values"] == [1, 3, 6, 9, 11, 12, 12]
    rc, rep = run_json(capsys, ["ci", "-i", grid_file, "--product", "X,Xp"])
    assert rc == 0
    assert rep["results"]["kind"] == "CI"
    assert rep["results"]["witness_degrees"] == [3, 4]


def test_quadric_and_implicitize(capsys, p3_file):
    rc, rep = run_json(capsys, ["quadric", "-i", p3_file, "--product", "X,Xp"])
    assert rc == 0
    assert rep["results"]["kind"] == "quadric"
    assert rep["results"]["nondegenerate"] is True
    assert no_floats(rep)
    quadric = rep["results"]["vector"]
    rc, rep = run_json(capsys, ["implicitize", "-i", p3_file, "--degree", "2"])
    assert rc == 0
    assert rep["results"]["count"] == 1
    assert rep["results"]["forms"] == [quadric]


def test_one_parser_serves_back_to_back_calls(capsys, monkeypatch, grid_file, p3_file):
    # main builds its parser once per process; calls in a row, with
    # different subcommands and options left at their defaults after
    # being set, must answer exactly as calls with a fresh parser
    from hada import cli

    argvs = [
        ["random", "--space", "3", "--n", "4", "--seed", "5", "--json"],
        ["grid", "-i", grid_file, "--x", "Xp", "--x2", "X", "--json"],  # off its line
        ["hilbert", "-i", grid_file, "--set", "X", "--json"],
        ["ci", "-i", grid_file, "--product", "X,Xp", "--json"],
        ["grid", "-i", grid_file, "--json"],
        ["random", "--json"],
        ["quadric", "-i", p3_file, "--product", "X,Xp", "--json"],
        ["implicitize", "-i", p3_file, "--degree", "2", "--json"],
        ["hilbert", "-i", grid_file, "--bogus"],
        ["classify", "--point", "0:1:1", "--line", "1:1:1", "--json"],
    ]

    def run(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        out = capsys.readouterr()
        report = json.loads(out.out) if out.out else None
        if report is not None:
            report.pop("elapsed_ms")
        return rc, report, out.err

    fresh = []
    for argv in argvs:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    builds = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or original())
    cli._parser.cache_clear()
    assert [run(argv) for argv in argvs] == fresh
    assert len(builds) == 1
    assert [rc for rc, _, _ in fresh] == [0, 2, 0, 0, 0, 0, 0, 0, 2, 0]


def test_implicitize_has_no_sampling_flags(capsys):
    with pytest.raises(SystemExit):
        main(["implicitize", "--help"])
    usage = capsys.readouterr().out
    assert "--degree" in usage
    assert "--samples" not in usage and "--seed" not in usage


@pytest.mark.parametrize(
    "argv",
    [
        ["implicitize", "--degree", "0"],
        ["implicitize", "--degree", str(MAX_IMPLICIT_DEGREE + 1)],
        ["random", "--space", "3", "--n", "0"],
        ["random", "--space", "3", "--m", str(MAX_RANDOM_SIZE + 1)],
        ["random", "--space", "2", "--n", "10000000"],
    ],
)
def test_caps_are_input_errors(capsys, p3_file, argv):
    if argv[0] == "implicitize":
        argv = argv + ["-i", p3_file]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert "must be between 1 and" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


# X * Xp is the 13 x 12 = 156 points (1 : i : j); Big is 145 points
BIG_DOC = {
    "space": 2,
    "lines": {},
    "points": {
        "X": [[1, i, 1] for i in range(1, 14)],
        "Xp": [[1, 1, j] for j in range(1, 13)],
        "Big": [[1, i, j] for i in range(1, 14) for j in range(1, 13)][:MAX_PROFILE_POINTS + 1],
        # a zero coordinate collapses Big * Axis to 13 points
        "Axis": [[1, 1, 0]],
    },
}


@pytest.fixture
def no_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("an elimination ran")

    for name in ("rank_of", "kernel_basis", "rref_of"):
        monkeypatch.setattr(linalg, name, refuse)
    monkeypatch.setattr(_elim, "echelon", refuse)


@pytest.mark.parametrize(
    "argv, what",
    [
        (["ci", "--product", "X,Xp"], "the product of ['X', 'Xp'] has 156 points"),
        (["hilbert", "--product", "X,Xp"], "the product of ['X', 'Xp'] has 156 points"),
        (["ci", "--set", "Big"], "'Big' has 145 points"),
        (["hilbert", "--set", "Big"], "'Big' has 145 points"),
    ],
)
def test_profile_questions_refuse_sets_beyond_the_cap(capsys, tmp_path, no_elimination, argv, what):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_DOC))
    rc = main(argv + ["-i", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        f"input error: {what}; profile questions take at most {MAX_PROFILE_POINTS}\n"
    )


@pytest.mark.parametrize(
    "op, args",
    [
        ("hilbert", {"product_of": ["X", "Xp"]}),
        ("ci", {"set": "Big"}),
        ("generators", {"product_of": ["X", "Xp"]}),
        ("hf_product", {"x": "X", "x2": "Xp"}),
        ("hf_product", {"x": "Big", "x2": "Axis"}),
    ],
)
def test_verify_refuses_profile_checks_beyond_the_cap(capsys, tmp_path, no_elimination, op, args):
    doc = {"instance": BIG_DOC, "checks": [{"op": op, "args": args, "expect": {}}]}
    (tmp_path / "big.json").write_text(json.dumps(doc))
    rc = main(["verify", "--fixtures", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error: malformed fixture") and "big.json" in err
    assert f"profile questions take at most {MAX_PROFILE_POINTS}" in err


@pytest.mark.parametrize("degree", [-1, MAX_IMPLICIT_DEGREE + 1, 120])
def test_verify_refuses_degree_forms_beyond_the_cap(capsys, tmp_path, no_elimination, degree):
    check = {"op": "degree_forms", "args": {"set": "X", "degree": degree}, "expect": {}}
    path = tmp_path / "degree.json"
    path.write_text(json.dumps({"instance": GRID_DOC, "checks": [check]}))
    rc = main(["verify", "--fixtures", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"input error: malformed fixture {path}: degree must be between 0 and "
        f"{MAX_IMPLICIT_DEGREE}, got {degree}\n"
    )


@pytest.mark.parametrize("degree", [0, MAX_IMPLICIT_DEGREE + 1])
def test_verify_refuses_implicitize_beyond_the_cap(capsys, tmp_path, no_elimination, degree):
    # as ``hada implicitize --degree`` does, exit 2 before any elimination
    # instead of a failing check
    check = {"op": "implicitize", "args": {"line": "L", "line2": "Lp", "degree": degree},
             "expect": {}}
    path = tmp_path / "implicitize.json"
    path.write_text(json.dumps({"instance": P3_DOC, "checks": [check]}))
    rc = main(["verify", "--fixtures", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == (
        f"input error: malformed fixture {path}: degree must be between 1 and "
        f"{MAX_IMPLICIT_DEGREE}, got {degree}\n"
    )


def test_verify_answers_degree_forms_at_the_cap(capsys, tmp_path):
    xs = parse_instance_dict(GRID_DOC).point_set("X")
    checks = [
        {"op": "degree_forms", "args": {"set": "X", "degree": degree},
         "expect": {"forms": [list(f.coefficient_vector())
                              for f in degree_bounded_ideal(xs, degree)]}}
        for degree in (0, MAX_IMPLICIT_DEGREE)
    ]
    (tmp_path / "degree.json").write_text(json.dumps({"instance": GRID_DOC, "checks": checks}))
    assert main(["verify", "--fixtures", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "PASS degree\n1 fixtures, 0 failing checks\n"


def test_largest_random_grid_is_within_the_profile_cap(capsys, tmp_path, no_elimination):
    # the 12 x 12 grid that `random` writes at its size cap stays answerable
    path = tmp_path / "largest.json"
    argv = ["random", "--space", "3", "--n", str(MAX_RANDOM_SIZE),
            "--m", str(MAX_RANDOM_SIZE), "--out", str(path), "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["results"]["grid_points"] == MAX_PROFILE_POINTS
    inst = parse_instance(str(path))
    assert len(inst.profile_set(product_of=["X", "Xp"])) == MAX_PROFILE_POINTS


def test_sets_that_defeat_the_prime_answer_exactly(capsys, tmp_path):
    # sets of P^2 on which the pass modulo 2**61 - 1 cannot decide, so the
    # ladder runs its column pass over Z: two 6-point sets (two points
    # agree mod p; x0 vanishes mod p at a point), and 20 collinear points
    # (1, b, 2b + 3) with a copy of the first moved off their line by
    # (2**61 - 1) * x0, equal to it mod p.  ``hilbert`` and ``ci`` exit 0
    # with the Fraction oracle's answers: HF from Fraction ranks of E_t,
    # and the verdicts of the full-ring oracle, which for the 21-point set
    # (about 18 s of Fraction ranks) is written out
    from test_ideals import full_ring_answers

    p = _elim._PRIME
    sets = {
        "A": [[1, 1, 0], [1, 2**61, 0], [1, 3, 0], [1, 5, 0], [1, 7, 0], [1, 1, 1]],
        "V": [[p, 1, 2], [1, 1, 2], [2, 1, 2], [3, 1, 2], [4, 1, 2], [1, 0, 1]],
        "C": [[1, b, 2 * b + 3] for b in range(20)] + [[1, p, 3]],
    }
    path = tmp_path / "defeat.json"
    path.write_text(json.dumps({"space": 2, "points": sets}))
    line = "3 minimal generators exceed the codimension 2; h-vector is not symmetric"
    verdicts = {"C": CIVerdict("NotCI", 2, 3, (2, 2, 20), line)}
    for name, coords in sets.items():
        points = PointSet.from_coords(coords)
        values = frac_hilbert_values(points)
        verdict = verdicts.get(name) or full_ring_answers(points)[2]
        reports = []
        for command in ("hilbert", "ci"):
            rc = main([command, "-i", str(path), "--set", name, "--json"])
            captured = capsys.readouterr()
            assert rc == 0 and "Traceback" not in captured.err
            reports.append(json.loads(captured.out)["results"])
        tau = len(values) - 2
        assert reports[0] == {
            "values": values,
            "tau": tau,
            "h_vector": [values[0]] + [values[t] - values[t - 1] for t in range(1, tau + 1)],
            "cardinality": len(points),
        }
        assert reports[1] == {
            "kind": verdict.kind,
            "codimension": verdict.codimension,
            "total_generators": verdict.total_generators,
            "witness_degrees": list(verdict.witness_degrees),
            "reason": verdict.reason,
        }
    assert (tau, verdict) == (19, verdicts["C"])


@pytest.mark.parametrize("coordinate", ["1e100000", "1.5", "0x10", "1_000"])
def test_only_integer_and_quotient_strings_are_coordinates(capsys, tmp_path, coordinate):
    # "1e100000" is a 330 000-bit integer to Fraction; it must be refused
    # before any arithmetic, not after a minute of it
    doc = json.loads(json.dumps(GRID_DOC))
    doc["points"]["X"][1][0] = coordinate
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    started = time.perf_counter()
    rc = main(["ci", "-i", str(path), "--product", "X,Xp"])
    elapsed = time.perf_counter() - started
    captured = capsys.readouterr()
    assert rc == 2 and elapsed < 1.0
    assert f"points.X[1][0]: malformed rational {coordinate!r}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_implicitize_empty_product_is_input_error(capsys, tmp_path):
    doc = {
        "space": 3,
        "lines": {
            "L": {"H": [0, 0, 1, 0], "K": [0, 0, 0, 1]},
            "Lp": {"H": [1, 0, 0, 0], "K": [0, 1, 0, 0]},
        },
    }
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    rc = main(["implicitize", "-i", str(path), "--degree", "2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "undefined" in err and "Traceback" not in err


def test_grid_condition_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_GRID_DOC))
    rc = main(["grid", "-i", str(path), "--json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert out["results"]["condition"] is False


def test_input_error_exit_code(capsys, tmp_path):
    rc = main(["hilbert", "-i", str(tmp_path / "missing.json"), "--set", "X"])
    assert rc == 2
    rc = main(["hilbert", "--set", "X"])
    assert rc == 2


# files json.load cannot read: an integer beyond the interpreter's digit
# limit (ValueError), nesting beyond its recursion limit (RecursionError)
# and a byte that is not UTF-8 (UnicodeDecodeError)
UNREADABLE_FILES = {
    "long-integer": b'{"space": 2, "points": {"X": [[' + b"7" * 5000 + b", 1, 1]]}}",
    "deep-nesting": b"[" * 100_000,
    "not-utf8": b'{"space": 2, "points": {"X": [[1, 1, 1]]}}\xff',
}


@pytest.mark.parametrize("kind", UNREADABLE_FILES)
@pytest.mark.parametrize("command", ["hilbert", "ci", "verify"])
def test_unreadable_file_is_input_error(capsys, tmp_path, command, kind):
    path = tmp_path / "bad.json"
    path.write_bytes(UNREADABLE_FILES[kind])
    if command == "verify":
        rc = main(["verify", "--fixtures", str(tmp_path)])
    else:
        rc = main([command, "-i", str(path), "--set", "X"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error:") and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section", ["lines", "points"])
@pytest.mark.parametrize(
    "value",
    [[1, 2], True, "L", [], 0, "", False],
    ids=["list", "bool", "string", "empty-list", "zero", "empty-string", "false"],
)
def test_non_object_section_is_input_error(capsys, tmp_path, section, value):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**GRID_DOC, section: value}))
    rc = main(["hilbert", "-i", str(path), "--set", "X"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{section} must be a JSON object" in err and "Traceback" not in err


def test_boolean_seed_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**GRID_DOC, "seed": True}))
    rc = main(["hilbert", "-i", str(path), "--set", "X"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "seed must be an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("space", [2.0, 3.0, True])
def test_non_integer_space_is_input_error(capsys, tmp_path, space):
    # 2.0 == 2 and True == 1 in Python, so only the type check refuses them
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**GRID_DOC, "space": space}))
    rc = main(["hilbert", "-i", str(path), "--set", "X"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"space must be 2 or 3, got {space!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["hilbert", "quadric", "ci"])
@pytest.mark.parametrize("product", ["X", "X,Xp,Xp"])
def test_product_needs_exactly_two_names(capsys, p3_file, command, product):
    rc = main([command, "-i", p3_file, "--product", product])
    err = capsys.readouterr().err
    assert rc == 2
    assert "exactly two names" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["hilbert", "quadric", "ci"])
def test_set_and_product_together_is_input_error(capsys, p3_file, command):
    rc = main([command, "-i", p3_file, "--set", "X", "--product", "X,Xp"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not both" in err and "Traceback" not in err


def test_random_is_deterministic(capsys):
    rc, rep1 = run_json(capsys, ["random", "--space", "3", "--m", "3", "--seed", "7"])
    assert rc == 0
    rc, rep2 = run_json(capsys, ["random", "--space", "3", "--m", "3", "--seed", "7"])
    rep1.pop("elapsed_ms")
    rep2.pop("elapsed_ms")
    assert rep1 == rep2


def test_random_round_trips_through_parse(tmp_path, capsys):
    out = tmp_path / "rand.json"
    rc = main(["random", "--space", "2", "--n", "2", "--m", "2", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    from hada.instances import emit_instance, parse_instance

    data = json.loads(out.read_text())
    assert emit_instance(parse_instance(out)) == data



def test_random_out_in_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "rand.json"
    rc = main(["random", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error: cannot write") and str(out) in err
    assert "Traceback" not in err and not out.exists()

def test_verify_bundled_fixtures(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 9
    assert "FAIL" not in out


def test_verify_tampered_fixture_fails_exactly_once(tmp_path, capsys):
    target = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), target)
    doc = json.loads((target / "plane-pair-binomial.json").read_text())
    doc["checks"][0]["expect"]["coefficients"] = [0, 22, 0, -8]
    (target / "plane-pair-binomial.json").write_text(json.dumps(doc))
    summary = replay_fixtures(target)
    assert len(summary.failures) == 1
    assert summary.failed_fixtures == ["plane-pair-binomial"]
    rc = main(["verify", "--fixtures", str(target)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("FAIL") >= 1 and out.count("PASS") == 8


@pytest.mark.parametrize(
    "text",
    ['{"instance": ', json.dumps({"checks": []}), json.dumps({"instance": GRID_DOC})],
    ids=["invalid-json", "no-instance", "no-checks"],
)
def test_verify_malformed_fixture_is_input_error(tmp_path, capsys, text):
    (tmp_path / "broken.json").write_text(text)
    rc = main(["verify", "--fixtures", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "broken.json" in err and "Traceback" not in err


@pytest.mark.parametrize("args", [[1], "x", 3], ids=["list", "string", "number"])
def test_verify_non_object_args_is_input_error(tmp_path, capsys, args):
    doc = {"instance": GRID_DOC, "checks": [{"op": "ci", "args": args, "expect": {}}]}
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    rc = main(["verify", "--fixtures", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "broken.json" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "instance, op, args",
    [
        (GRID_DOC, "ci", {"product_of": ["X"]}),
        (GRID_DOC, "ci", {"product_of": 5}),
        (GRID_DOC, "hilbert", {"set": ["X"]}),
        (GRID_DOC, "hilbert", {"set": "Y"}),
        (GRID_DOC, "ci", {"set": "X", "product_of": ["X", "Xp"]}),
        (GRID_DOC, "degree_forms", {"set": "X", "degree": "2"}),
        (GRID_DOC, "degree_forms", {"set": "X", "degree": True}),
        (P3_DOC, "implicitize", {"line": "L", "line2": "Lp", "degree": 2.0}),
    ],
    ids=["one-name", "number-pair", "list-name", "unknown-name", "set-and-product",
         "string-degree", "bool-degree", "float-degree"],
)
def test_verify_malformed_check_args_is_input_error(tmp_path, capsys, instance, op, args):
    doc = {"instance": instance, "checks": [{"op": op, "args": args, "expect": {}}]}
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    rc = main(["verify", "--fixtures", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "broken.json" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "check, message",
    [
        ({"op": "no_such_op", "args": {"set": "X"}, "expect": {}}, "no_such_op"),
        ({"op": ["ci"], "args": {}, "expect": {}}, "unhashable"),
        ({"op": "grid2", "args": {"x": "X", "x2": "Xp"}, "expect": {}},
         "check 0 (grid2) lacks argument 'line'"),
    ],
    ids=["unknown-op", "list-op", "missing-argument"],
)
def test_verify_malformed_check_is_input_error(tmp_path, capsys, check, message):
    doc = {"instance": GRID_DOC, "checks": [check]}
    (tmp_path / "broken.json").write_text(json.dumps(doc))
    rc = main(["verify", "--fixtures", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("input error: malformed fixture")
    assert "broken.json" in err and message in err and "Traceback" not in err


def test_verify_check_raising_a_hada_error_fails_that_check(tmp_path, capsys):
    grid2 = {"x": "X", "x2": "Xp", "line": "L", "line2": "Lp"}
    doc = {
        "name": "bad-grid",
        "instance": BAD_GRID_DOC,
        "checks": [
            {"op": "grid2", "args": grid2, "expect": {}},
            {"op": "product_count", "args": {"x": "X", "x2": "Xp"},
             "expect": {"count": 1, "undefined_pairs": 0}},
        ],
    }
    (tmp_path / "bad-grid.json").write_text(json.dumps(doc))
    summary = replay_fixtures(tmp_path)
    assert [(o.op, o.ok) for o in summary.outcomes] == [
        ("grid2", False),
        ("product_count", True),
    ]
    assert summary.failures[0].detail.startswith("error: ")
    rc = main(["verify", "--fixtures", str(tmp_path)])
    assert rc == 1
    assert "Traceback" not in capsys.readouterr().err


COLLINEAR_FIXTURE = fixtures_dir() / "p2-collinear-through-coordinate-point.json"


def test_verify_replays_the_collinear_half(tmp_path, capsys):
    # X = {[a:2:1]} and X' = {[b:2:1]} on {x1 - 2 x2 = 0}, which passes
    # through [1:0:0]: every product is [ab:4:1], nine points on
    # {x1 - 4 x2 = 0}
    shutil.copy(COLLINEAR_FIXTURE, tmp_path)
    rc = main(["verify", "--fixtures", str(tmp_path), "--json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert rc == 0
    assert results == {"fixtures": 1, "checks": 3, "failures": [], "ok": True}
    doc = json.loads(COLLINEAR_FIXTURE.read_text())
    assert doc["checks"][0] == {
        "op": "collinear",
        "args": {"x": "X", "x2": "Xp", "line": "L"},
        "expect": {"collinear": True, "containing_line": [0, 1, -4]},
    }


@pytest.mark.parametrize(
    "args, code, message",
    [
        ({"x": "X", "x2": "Xp"}, 2, "lacks argument 'line'"),
        ({"x": "X", "x2": ["Xp"], "line": "L"}, 2, "name must be a string"),
        ({"x": "X", "x2": "Off", "line": "L"}, 1, "error: point [1:1:1] is not on the line"),
    ],
    ids=["missing-arg", "non-string-name", "set-off-the-line"],
)
def test_verify_malformed_collinear_check(tmp_path, capsys, args, code, message):
    doc = json.loads(COLLINEAR_FIXTURE.read_text())
    doc["instance"]["points"]["Off"] = [[1, 1, 1]]
    doc["checks"][0]["args"] = args
    (tmp_path / "collinear.json").write_text(json.dumps(doc))
    rc = main(["verify", "--fixtures", str(tmp_path), "--json"])
    captured = capsys.readouterr()
    assert rc == code and "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("input error: malformed fixture")
        assert message in captured.err
    else:
        failures = json.loads(captured.out)["results"]["failures"]
        assert failures == [{"fixture": doc["name"], "op": "collinear", "detail": message}]


def test_verify_replays_subspace_and_quadric_kinds(tmp_path, capsys):
    instance = {**P3_DOC, "lines": {**P3_DOC["lines"], "A": [1, 0, 0, 0], "B": [0, 1, 0, 0]}}
    checks = [
        {"op": "hyperplane_product", "args": {"left": "A", "right": "B"},
         "expect": {"kind": "subspace", "planes": [[1, 0, 0, 0], [0, 1, 0, 0]]}},
        # ten quadrics less three conditions leave a 7-dimensional space
        {"op": "quadric_through", "args": {"set": "X"}, "expect": {"kind": "non-unique"}},
    ]
    (tmp_path / "kinds.json").write_text(json.dumps({"instance": instance, "checks": checks}))
    summary = replay_fixtures(tmp_path)
    assert [(o.op, o.ok) for o in summary.outcomes] == [
        ("hyperplane_product", True),
        ("quadric_through", True),
    ]


def test_verify_empty_directory(tmp_path, capsys):
    rc = main(["verify", "--fixtures", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(tmp_path) in err and "Traceback" not in err


def test_verify_missing_directory(tmp_path, capsys):
    missing = tmp_path / "nonexistent"
    rc = main(["verify", "--fixtures", str(missing)])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(missing) in err and "Traceback" not in err


def test_verify_file_is_not_a_directory(tmp_path, capsys):
    path = tmp_path / "fixture.json"
    path.write_text("{}")
    rc = main(["verify", "--fixtures", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path} is not a directory" in err and "Traceback" not in err


def test_text_report_renders(capsys, grid_file):
    rc = main(["hilbert", "-i", grid_file, "--set", "X"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "values: [1, 2, 3, 3]" in out


def test_text_report_nests_dicts_in_lists(capsys, tmp_path):
    # a P^3 grid lists its lines as plane pairs: dicts inside a list
    doc = {**P3_DOC, "points": {"X": [[-2, 1, 1, 1]], "Xp": [[-1, 2, 2, 1]]}}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    rc = main(["grid", "-i", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines[:-1] == [
        "command: grid",
        "backend: python",
        "results:",
        "  condition: True",
        "  count: 1",
        "  points:",
        "    - [2, 2, 2, 1]",
        "  row_lines:",
        "    -",
        "      H: [1, -4, 4, -2]",
        "      K: [1, -2, -1, 4]",
        "  col_lines:",
        "    -",
        "      H: [2, 1, -1, -4]",
        "      K: [2, -2, 1, -2]",
    ]
    assert lines[-1].startswith("elapsed_ms: ")


def test_module_runs_as_a_script(capsys, monkeypatch):
    argv = ["hada", "classify", "--point", "0:1:1", "--line", "1:1:1", "--json"]
    monkeypatch.setattr(sys, "argv", argv)
    with warnings.catch_warnings():
        # hada.cli is imported already; running it again is the point
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("hada.cli", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["results"]["line"] == [1, 0, 0]


# --- whole reports, one per branch of each command ----------------------

# P3_DOC plus a plane H and a one-point set P
SPACE_DOC = {
    **P3_DOC,
    "lines": {**P3_DOC["lines"], "H": [1, 2, 3, 4]},
    "points": {**P3_DOC["points"], "P": [[1, 2, -1, 1]]},
}
COORDINATE_LINES_DOC = {"space": 2, "lines": {"A": [1, 0, 0], "B": [0, 1, 0]}}

DOCS = {
    "grid": GRID_DOC,
    "p3": P3_DOC,
    "bad": BAD_GRID_DOC,
    "space": SPACE_DOC,
    "coordinate": COORDINATE_LINES_DOC,
}


@pytest.fixture
def docs(tmp_path):
    paths = {}
    for name, doc in DOCS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths[name] = str(path)
    return paths


def with_paths(docs, argv):
    """The argument list with each ``-i`` name replaced by its file."""
    return [docs[a] if prev == "-i" else a for prev, a in zip([None] + argv, argv)]


def whole_report(capsys, argv):
    """Exit code and JSON report of a command, without its timing."""
    rc, report = run_json(capsys, argv)
    assert isinstance(report.pop("elapsed_ms"), int)
    return rc, report


P3_GRID_RESULTS = {
    "condition": True,
    "count": 9,
    "points": [
        [1, -2, -4, 1], [2, 2, 2, 1], [3, 6, 8, 1], [7, -7, -8, 1],
        [11, -8, -4, -1], [14, 7, 4, 1], [21, 21, 16, 1], [22, 8, 2, -1],
        [33, 24, 8, -1],
    ],
    "row_lines": [
        {"H": [1, -4, 4, -2], "K": [1, -2, -1, 4]},
        {"H": [1, 2, -1, -1], "K": [4, 4, 1, 8]},
        {"H": [2, -4, 3, -6], "K": [8, -8, -3, 48]},
    ],
    "col_lines": [
        {"H": [2, 1, -1, -4], "K": [2, -2, 1, -2]},
        {"H": [8, 11, -44, 176], "K": [4, -11, 22, 44]},
        {"H": [4, 4, -7, -56], "K": [4, -8, 7, -28]},
    ],
}

P2_GRID_RESULTS = {
    "condition": True,
    "count": 12,
    "points": [
        [33, 657, 1], [36, 584, 1], [121, 2079, 5], [132, 1848, 5],
        [168, 2652, 5], [174, 3066, 5], [187, 3888, 5], [204, 3456, 5],
        [308, 5967, 10], [638, 9702, 25], [812, 13923, 25], [986, 18144, 25],
    ],
    "row_lines": [[67, -3, -660], [603, -22, -5445], [1407, -58, -13398]],
    "col_lines": [[21, 1, -924], [663, 28, -37128], [432, 17, -29376], [73, 3, -4380]],
    "witness_degrees": [3, 4],
}

QUADRIC_VECTOR = [36, -246, 338, 354, 180, -354, -1690, 126, 861, 630]


@pytest.mark.parametrize(
    "argv, rc, results",
    [
        (
            ["product", "-i", "coordinate", "--left", "A", "--right", "B"],
            0,
            {"kind": "subspace", "planes": [[1, 0, 0], [0, 1, 0]]},
        ),
        (
            ["product", "-i", "coordinate", "--left", "A", "--right", "A"],
            0,
            {"kind": "hyperplane", "hyperplane": [1, 0, 0]},
        ),
        (
            ["product", "-i", "space", "--left", "P", "--right", "H"],
            0,
            {"kind": "hyperplane", "hyperplane": [1, 1, -3, 4]},
        ),
        (
            ["product", "-i", "space", "--left", "P", "--right", "L"],
            0,
            {"kind": "line", "line": {"H": [2, -1, -2, 4], "K": [1, 1, 1, 1]}},
        ),
        (
            ["classify", "--point", "0:1:2", "--line", "0:1:1"],
            0,
            {"kind": "point", "case": 3, "point": [0, 1, -2]},
        ),
        (
            ["classify", "--point", "1:2:3", "--point2", "0:1:2", "--line", "0:1:1"],
            0,
            {
                "case": "2a",
                "relation": "point-off-line",
                "direct_relation": "point-off-line",
                "consistent": True,
                "first": {"kind": "line", "case": 1, "line": [0, 3, 2]},
                "second": {"kind": "point", "case": 3, "point": [0, 1, -2]},
            },
        ),
        (["grid", "-i", "p3"], 0, P3_GRID_RESULTS),
        (["grid", "-i", "grid"], 0, P2_GRID_RESULTS),
        (
            ["grid", "-i", "bad"],
            1,
            {
                "condition": False,
                "detail": "grid condition fails: [1:1:1] and [3:-1:-3] produce "
                "the same product with the dual points",
                "brute_force_count": 1,
                "expected": 1,
                "points": [[3, -1, -3]],
            },
        ),
        (
            ["hilbert", "-i", "grid", "--set", "X"],
            0,
            {"values": [1, 2, 3, 3], "tau": 2, "h_vector": [1, 1, 1], "cardinality": 3},
        ),
        (["quadric", "-i", "p3", "--set", "X"], 0, {"kind": "non-unique"}),
        (
            ["quadric", "-i", "p3", "--product", "X,Xp"],
            0,
            {
                "kind": "quadric",
                "vector": QUADRIC_VECTOR,
                "determinant": "22187592025/4",
                "nondegenerate": True,
            },
        ),
        (
            ["implicitize", "-i", "p3", "--degree", "2"],
            0,
            {"degree": 2, "count": 1, "forms": [QUADRIC_VECTOR]},
        ),
        (
            ["ci", "-i", "p3", "--product", "X,Xp"],
            0,
            {
                "kind": "NotCI",
                "codimension": 3,
                "total_generators": 8,
                "witness_degrees": [2, 3, 3, 3, 3, 3, 3, 3],
                "reason": "8 minimal generators exceed the codimension 3; "
                "h-vector is not symmetric",
            },
        ),
        (
            ["ci", "-i", "grid", "--product", "X,Xp"],
            0,
            {"kind": "CI", "codimension": 2, "total_generators": 2, "witness_degrees": [3, 4]},
        ),
        (
            ["verify"],
            0,
            {"fixtures": 9, "checks": 30, "failures": [], "ok": True},
        ),
        (
            ["random", "--space", "3", "--n", "2", "--m", "2", "--seed", "3"],
            0,
            {
                "instance": {
                    "space": 3,
                    "seed": 3,
                    "lines": {
                        "L": {"H": [5, -17, -14, 12], "K": [3, 18, 10, 20]},
                        "Lp": {"H": [17, -16, 18, -20], "K": [10, -4, 15, -6]},
                    },
                    "points": {
                        "X": [[300290, 76460, -58233, -84741], [54118, -2108, 11589, -12015]],
                        "Xp": [[483208, 136519, -258014, 69299], [435064, 131113, -232990, 55223]],
                    },
                },
                "grid_points": 4,
            },
        ),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, list) else None,
)
def test_whole_json_report(capsys, docs, argv, rc, results):
    argv = with_paths(docs, argv)
    assert whole_report(capsys, argv) == (
        rc,
        {"command": argv[0], "backend": "python", "results": results},
    )


def test_random_out_report_names_the_file(capsys, tmp_path):
    out = str(tmp_path / "rand.json")
    argv = ["random", "--space", "2", "--n", "2", "--m", "2", "--seed", "3", "--out", out]
    assert whole_report(capsys, argv) == (
        0,
        {
            "command": "random",
            "backend": "python",
            "results": {"written": out, "grid_points": 4},
        },
    )


def test_verify_json_report_lists_each_failure(tmp_path, capsys):
    target = tmp_path / "fixtures"
    shutil.copytree(fixtures_dir(), target)
    doc = json.loads((target / "plane-pair-binomial.json").read_text())
    doc["checks"][0]["expect"]["coefficients"] = [0, 22, 0, -8]
    (target / "plane-pair-binomial.json").write_text(json.dumps(doc))
    rc, report = whole_report(capsys, ["verify", "--fixtures", str(target)])
    assert rc == 1
    assert report == {
        "command": "verify",
        "backend": "python",
        "results": {
            "fixtures": 9,
            "checks": 30,
            "failures": [
                {
                    "fixture": "plane-pair-binomial",
                    "op": "hyperplane_product",
                    "detail": "expected {'kind': 'hyperplane', 'coefficients': "
                    "[0, 22, 0, -8]}, got {'kind': 'hyperplane', "
                    "'coefficients': [0, 21, 0, -8]}",
                }
            ],
            "ok": False,
        },
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["product", "-i", "grid", "--left", "X", "--right", "L"],
            "point set 'X' has 3 points, need 1",
        ),
        (["hilbert", "-i", "grid"], "name a point set with --set or --product A,B"),
        (["product", "-i", "space", "--left", "L", "--right", "X"], "cannot pair 'L' with 'X'"),
        (
            ["product", "-i", "space", "--left", "L", "--right", "Lp"],
            "products of two space lines have no closed form",
        ),
    ],
)
def test_input_error_branches_print_no_report(capsys, docs, argv, message):
    rc = main(with_paths(docs, argv) + ["--json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("input error: ") and message in captured.err


# --- fuzzing the exit-code contract -------------------------------------

json_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=6,
)
junk_coordinate = st.sampled_from(
    ["x", "1/0", "", "1/2", 1.5, True, None, [1], {}, "1e100000"]
)


@st.composite
def instance_docs(draw):
    """Instance documents: a bundled worked example or a random one with
    small integer coordinates, then at most one defect (a junk field, a
    junk coordinate, a coordinate too many or too few, or a junk
    document)."""
    base = draw(st.sampled_from(["random", "random", "grid", "bad-grid", "p3"]))
    if base == "random":
        space = draw(st.sampled_from([2, 3]))

        def vector(k):
            entries = st.sampled_from([1, 2, -1, 3, -2, 5, 0, -3, 4])
            return st.lists(entries, min_size=k, max_size=k)

        plane_pair = st.fixed_dictionaries({"H": vector(4), "K": vector(4)})
        line = plane_pair if space == 3 else vector(3)
        doc = {
            "space": space,
            "lines": {name: draw(line) for name in ("L", "Lp")},
            "points": {
                name: draw(
                    st.lists(vector(space + 1), min_size=1, max_size=4, unique_by=tuple)
                )
                for name in ("X", "Xp")
            },
        }
    else:
        template = {"grid": GRID_DOC, "bad-grid": BAD_GRID_DOC, "p3": P3_DOC}[base]
        doc = json.loads(json.dumps(template))
    defect = draw(
        st.sampled_from([None, None, None, "field", "coordinate", "length", "document"])
    )
    if defect == "field":
        doc[draw(st.sampled_from(["space", "lines", "points", "seed"]))] = draw(json_junk)
    elif defect in ("coordinate", "length"):
        rows = doc["points"][draw(st.sampled_from(["X", "Xp"]))]
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if defect == "coordinate":
            row[draw(st.integers(0, len(row) - 1))] = draw(junk_coordinate)
        elif draw(st.booleans()):
            row.append(1)
        else:
            row.pop()
    elif defect == "document":
        return draw(json_junk)
    return doc


size = st.sampled_from(["2", "3", "1", "2", "3", "0", "13", "x"])
commands = st.one_of(
    st.sampled_from(
        [
            ["product", "--left", "X", "--right", "Xp"],
            ["product", "--left", "L", "--right", "Lp"],
            ["product", "--left", "X", "--right", "L"],
            ["grid"],
            ["grid"],
            ["hilbert", "--product", "X,Xp"],
            ["hilbert", "--set", "X"],
            ["quadric", "--product", "X,Xp"],
            ["ci", "--product", "X,Xp"],
            ["ci", "--set", "Xp"],
            ["classify", "--point", "X", "--line", "L"],
            ["classify", "--point", "X", "--point2", "Xp", "--line", "L"],
        ]
    ),
    size.map(lambda d: ["implicitize", "--degree", d]),
    st.tuples(st.sampled_from(["3", "2", "3", "4"]), size, size).map(
        lambda a: ["random", "--space", a[0], "--n", a[1], "--m", a[2]]
    ),
)
stray_tokens = st.sampled_from(
    [[]] * 6 + [["--set", "Y"], ["--product", "X,X"], ["--degree"], ["1:2:3"]]
)


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    doc=instance_docs(),
    argv=commands,
    extra=stray_tokens,
    with_input=st.sampled_from([True, True, True, False]),
    as_json=st.booleans(),
)
def test_exit_code_contract_under_fuzzing(tmp_path_factory, doc, argv, extra, with_input, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzz-instance.json"
    path.write_text(json.dumps(doc))
    argv = argv + extra
    if with_input and argv[0] != "random":
        argv += ["-i", str(path)]
    if as_json:
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    assert rc in (0, 1, 2), (argv, doc, rc)
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        # the only verdict failure these commands can report
        assert argv[0] == "grid"
        if as_json:
            assert json.loads(out.getvalue())["results"]["condition"] is False
        else:
            assert "condition: False" in out.getvalue()
