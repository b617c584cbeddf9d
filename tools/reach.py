#!/usr/bin/env python3
"""The statements of ``src/hessopt`` that no run executes.

    python3 tools/reach.py -m pytest -q -- -m hessopt.cli verify

Runs each ``-m module args...`` invocation (``--`` separates them) in this
process, one after the other, as ``python -m`` would, with a line tracer set
on this thread and on every thread started after it. Then it prints, for
each module of the package, the statements that hold code no invocation
executed: the outermost such statement, with a run of them in one block
merged into one range, so a branch never taken is one entry, not one per
line. Docstrings, and statements that compile to no code (``global``), are
skipped. Run it from the root of the repository, so that ``-m pytest`` finds
its settings; ``src`` is put first on the module path. Subprocesses that an
invocation starts are not traced, nor is the rest of a test that recursed to
the limit (see ``Rearm``); the tool names such tests.

A claim that code is unused is then a measurement: whatever is listed ran in
none of the invocations given.
"""

from __future__ import annotations

import ast
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hessopt"


def code_lines(source: str, filename: str = "<source>") -> set[int]:
    """The lines of ``source`` that some of its compiled code belongs to."""
    lines, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _blocks(node: ast.AST) -> list[list[ast.AST]]:
    """The statement lists nested directly in ``node``; an ``except`` clause
    counts as a statement of its ``try``."""
    blocks = [getattr(node, field, None) for field in ("body", "orelse", "finalbody")]
    blocks.append(getattr(node, "handlers", None))
    blocks.extend(case.body for case in getattr(node, "cases", ()))
    return [block for block in blocks if block]


def unexecuted_statements(source: str, executed: set[int]) -> list[tuple[int, int]]:
    """The (first, last) line ranges of the statements of ``source`` that
    hold code and none of whose lines is in ``executed``: the outermost of
    each, with neighbours in one block merged into one range. Docstrings are
    skipped."""
    code = code_lines(source)
    found: list[tuple[int, int]] = []

    def visit(block: list[ast.AST]) -> None:
        merging = False  # the previous statement with code went unexecuted
        for i, node in enumerate(block):
            if i == 0 and _docstring(node):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            lines = set(range(first, node.end_lineno + 1))
            if not lines & code:
                continue
            if lines & executed:
                for inner in _blocks(node):
                    visit(inner)
            elif merging:
                found[-1] = (found[-1][0], node.end_lineno)
            else:
                found.append((first, node.end_lineno))
            merging = not lines & executed

    visit(ast.parse(source).body)
    return found


class LineTracer:
    """Records the lines executed in the files of one directory."""

    def __init__(self, directory: Path):
        self.directory = str(directory.resolve()) + os.sep
        self.lines: dict[str, set[int]] = {}
        self._local: dict[str, object] = {}  # a code file name -> its frames' tracer

    def _tracer_of(self, filename: str):
        """The function that records the lines of ``filename``'s frames, or
        None for a file outside the directory."""
        path = os.path.realpath(filename)
        if not path.startswith(self.directory):
            return None
        lines = self.lines.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in self._local:
            self._local[filename] = self._tracer_of(filename)
        return self._local[filename]

    def __enter__(self) -> "LineTracer":
        threading.settrace(self)
        sys.settrace(self)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(None)
        threading.settrace(None)


def split_invocations(argv: list[str]) -> list[list[str]]:
    """``-m module args...`` groups separated by ``--``, each as
    ``[module, *args]``."""
    groups, current = [], []
    for arg in [*argv, "--"]:
        if arg != "--":
            current.append(arg)
            continue
        if len(current) < 2 or current[0] != "-m":
            raise SystemExit(f"expected -m module args..., got {' '.join(current) or 'nothing'}")
        groups.append(current[1:])
        current = []
    return groups


class Rearm:
    """A pytest plugin that sets the tracer again after any test that lost
    it. CPython unsets a trace function that raises, and one raises when a
    test recurses to the recursion limit: its own call is the frame too
    many. The rest of the suite would then go untraced."""

    def __init__(self, tracer: LineTracer):
        self.tracer = tracer
        self.lost: list[str] = []

    def pytest_runtest_logfinish(self, nodeid, location) -> None:
        if sys.gettrace() is not self.tracer:
            self.lost.append(nodeid)
            sys.settrace(self.tracer)


def run_module(module: str, args: list[str], rearm: Rearm) -> int:
    """Run ``python -m module args...`` in this process; its exit code.
    pytest runs through ``pytest.main``, with ``rearm`` as a plugin."""
    if module == "pytest":
        import pytest
        return int(pytest.main(args, plugins=[rearm]))
    saved = sys.argv[:]
    sys.argv = [module, *args]
    try:
        runpy.run_module(module, run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        code = stop.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.argv = saved
    return 0


def main(argv: list[str]) -> int:
    invocations = split_invocations(argv)
    sys.path.insert(0, str(ROOT / "src"))
    with LineTracer(PACKAGE) as tracer:
        rearm = Rearm(tracer)
        codes = [run_module(module, args, rearm) for module, *args in invocations]
    for (module, *args), code in zip(invocations, codes):
        print(f"{' '.join(['-m', module, *args])}: exit {code}")
    for nodeid in rearm.lost:
        print(f"tracing lost in {nodeid}, and set again after it")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        ranges = unexecuted_statements(source, tracer.lines.get(str(path.resolve()), set()))
        text = source.splitlines()
        print(f"{path.relative_to(ROOT)}: {len(ranges)} unexecuted")
        for first, last in ranges:
            where = str(first) if first == last else f"{first}-{last}"
            print(f"  {where:>9}  {text[first - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
