"""Tests for the statement listing of ``tools/reach.py``."""

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SOURCE = '''\
"""A module."""
import math


def f(x):
    """Twice x, or a refusal."""
    global calls
    if x < 0:
        x = -x
        raise ValueError(f"negative: {x}")
    try:
        y = 2 * x
    except TypeError:
        raise
    return y


@staticmethod
def g():
    return math.pi
'''


def executed_lines(source: str, call) -> set[int]:
    """The lines of ``source`` that run when it is executed and ``call`` is
    applied to its namespace, traced as the tool traces a module."""
    code = compile(source, "<source>", "exec")
    lines: set[int] = set()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != "<source>":
            return None
        if event == "line":
            lines.add(frame.f_lineno)
        return trace

    namespace: dict = {}
    previous = sys.gettrace()  # the tool's own, when it traces this suite
    sys.settrace(trace)
    try:
        exec(code, namespace)
        call(namespace)
    finally:
        sys.settrace(previous)
    return lines


def test_lists_the_outermost_statements_no_run_executed():
    # f(3) skips the refusal (two statements, one range) and the except
    # clause; g is defined but never called. The docstrings and ``global``
    # hold no code to run.
    lines = executed_lines(SOURCE, lambda ns: ns["f"](3))
    assert reach.unexecuted_statements(SOURCE, lines) == [(9, 10), (13, 14), (20, 20)]


def test_the_body_of_a_function_never_called_is_one_range():
    lines = executed_lines(SOURCE, lambda ns: ns["g"]())
    assert reach.unexecuted_statements(SOURCE, lines) == [(8, 15)]
    assert reach.unexecuted_statements(SOURCE, reach.code_lines(SOURCE)) == []


def test_invocations_are_split_on_double_dashes():
    assert reach.split_invocations(["-m", "pytest", "-q", "--", "-m", "hessopt.cli", "verify"]) \
        == [["pytest", "-q"], ["hessopt.cli", "verify"]]
