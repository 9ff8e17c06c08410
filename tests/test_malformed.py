"""The exit-code contract on malformed input files.

Each bundled fixture's instance is mutated (a key dropped, a node given
a value of the wrong type, a coordinate made a bool, a float, null or a
5 000-digit integer) and written both as an instance file and as the
instance of a one-fixture directory; the file itself is also made
unreadable (nesting far beyond the recursion limit, a byte that is not
UTF-8, an empty file, a directory).  Every subcommand runs on each, in
process, and must exit 0 or 2, or 1 only where the command reports a
verdict (``grid``, ``verify``), and never raise.
"""

import contextlib
import copy
import io
import json
import random

import pytest

from hada.cli import main
from hada.fixtures import fixtures_dir

FIXTURES = sorted(fixtures_dir().glob("*.json"))

# the commands that report a mathematical verdict with exit 1
VERDICTS = {"grid", "verify"}

BIG = "1" * 5000
WRONG_VALUES = ["x", 1.5, None, True, {}, [], [[[[[[[[1]]]]]]]]]


def nodes(value, path=()):
    """Every node of a JSON document with the path of keys and indices
    that reaches it."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from nodes(item, path + (i,))


def set_at(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def drop_at(doc, path):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


def encode(instance):
    # a Python int of 5 000 digits cannot be written by json.dumps, so
    # it goes in as a marker string
    return json.dumps(instance).replace(f'"{BIG}"', BIG).encode()


def mutations(instance, rng):
    """(label, instance-file bytes) for a seeded sample of mutations."""
    everything = list(nodes(instance))[1:]
    keys = [path for path, _ in everything if isinstance(path[-1], str)]
    coords = [
        path for path, value in everything
        if isinstance(value, int) and not isinstance(value, bool)
    ]
    for path in [(key,) for key in instance] + rng.sample(keys, min(2, len(keys))):
        yield f"drop {path}", encode(drop_at(instance, path))
    for path, value in rng.sample(everything, min(3, len(everything))):
        wrong = rng.choice([v for v in WRONG_VALUES if type(v) is not type(value)])
        yield f"{wrong!r} at {path}", encode(set_at(instance, path, wrong))
    path = rng.choice(coords)
    for value in (True, 1.5, None, BIG):
        yield f"coordinate {value!r:.12} at {path}", encode(set_at(instance, path, value))


UNREADABLE = {
    "deep nesting": b"[" * 100_000,
    "not UTF-8": b'{"space": 2, "points": {"X": [[1, 2, 3]]}}\xff',
    "empty file": b"",
}


def commands(instance, path, fixture_dir):
    points = sorted(instance.get("points") or {}) or ["X"]
    lines = sorted(instance.get("lines") or {}) or ["L"]
    a, b = points[0], points[-1]
    line, line2 = lines[0], lines[-1]
    for command in ("hilbert", "quadric", "ci"):
        yield [command, "-i", path, "--set", a]
        yield [command, "-i", path, "--product", f"{a},{b}"]
    yield ["product", "-i", path, "--left", a, "--right", b]
    yield ["product", "-i", path, "--left", a, "--right", line]
    yield ["classify", "-i", path, "--point", "1:2:3", "--line", line]
    yield ["grid", "-i", path, "--x", a, "--x2", b, "--line", line, "--line2", line2]
    yield ["implicitize", "-i", path, "--line", line, "--line2", line2, "--degree", "2"]
    yield ["verify", "--fixtures", fixture_dir]
    # reads no file; writing its instance where a directory is must fail
    yield ["random", "--out", path]


def run(argv):
    """Exit code of one in-process run, or the exception it raised."""
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # any escape breaks the contract
                return f"raised {exc!r}"[:300]
    if "Traceback" in err.getvalue():
        return "printed a traceback"
    allowed = {0, 2} | ({1} if argv[0] in VERDICTS else set())
    return None if rc in allowed else f"exit {rc}"


def check(tmp_path, label, instance, payload, checks):
    """Run every subcommand on one mutated file; return the breaches."""
    path = tmp_path / "instance.json"
    fixture_dir = tmp_path / "fixtures"
    fixture_dir.mkdir(exist_ok=True)
    fixture = fixture_dir / "mutated.json"
    if payload is None:
        # a directory where a file is expected
        path.mkdir()
        fixture.mkdir()
    else:
        path.write_bytes(payload)
        if instance is None:
            fixture.write_bytes(payload)
        else:
            doc = b'{"name": "mutated", "checks": %s, "instance": %s}'
            fixture.write_bytes(doc % (json.dumps(checks).encode(), payload))
    breaches = []
    for argv in commands(instance or {}, str(path), str(fixture_dir)):
        problem = run(argv)
        if problem:
            breaches.append(f"{label}: {' '.join(argv[:2])}: {problem}")
    if payload is None:
        path.rmdir()
        fixture.rmdir()
    return breaches


@pytest.mark.parametrize("fixture", FIXTURES, ids=[f.stem for f in FIXTURES])
def test_mutated_fixture_instances_keep_the_exit_code_contract(tmp_path, fixture):
    doc = json.loads(fixture.read_text())
    rng = random.Random(fixture.stem)
    breaches = []
    for label, payload in mutations(doc["instance"], rng):
        breaches += check(tmp_path, label, doc["instance"], payload, doc["checks"])
    assert breaches == []


@pytest.mark.parametrize("kind", [*UNREADABLE, "directory"])
def test_unreadable_files_keep_the_exit_code_contract(tmp_path, kind):
    assert check(tmp_path, kind, None, UNREADABLE.get(kind), []) == []
