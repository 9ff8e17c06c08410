"""List the statements of ``src/hada`` that the test suite never runs.

Runs the tier-1 suite (``tests/``) in this process under a
``sys.settrace`` line tracer and prints every statement of
``src/hada/*.py`` whose first line never ran, as ``module:line``
followed by that line of source, and then a per-module count.
Standard library only; it is about four times slower than the
untraced suite, which is why the suite does not collect it.

A statement is a node of the module's syntax tree whose first line
carries bytecode (docstrings and ``global`` lines carry none).  Code
run in a subprocess or another thread is not traced.

Usage, from the repository root::

    python tools/unexecuted.py [extra pytest arguments]

It exits with pytest's status when the suite fails, so a failing suite
is not mistaken for a clean list; otherwise with 1 when a statement
never ran, and 0 when every statement ran.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hada"


def code_lines(code):
    """Lines of a code object and its nested code objects that carry bytecode."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statement_lines(path):
    source = path.read_text()
    tree = ast.parse(source)
    starts = {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)}
    return starts & code_lines(compile(source, str(path), "exec"))


def main(argv):
    files = {str(path): path for path in sorted(PACKAGE.glob("*.py"))}
    hits = {name: set() for name in files}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hits else None

    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)

    counts = Counter()
    for name, path in files.items():
        source = path.read_text().splitlines()
        for line in sorted(statement_lines(path) - hits[name]):
            print(f"{path.stem}:{line}  {source[line - 1].strip()}")
            counts[path.stem] += 1
    total = sum(len(statement_lines(path)) for path in files.values())
    for module, count in counts.most_common():
        print(f"# {module}: {count}")
    left = sum(counts.values())
    print(f"# {left} of {total} statements never ran")
    return int(status) or int(left > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
