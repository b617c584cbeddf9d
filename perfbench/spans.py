"""Span recording around calls into hessopt's public functions.

The benchmark installs wrappers on the functions listed in ``BOUNDARIES``
while it runs a traced call, and removes them afterwards; nothing in the
package is edited. A wrapper replaces the function on its class, or on every
hessopt module that holds it under some name (``harness`` imports
``estimate_diag`` by name, ``problems`` reaches ``backward`` through the
``autodiff`` module), so the package's own calls go through it too.

Each span records the call it belongs to, its parent span, the wrapped
function's name, and its start and end in nanoseconds. Spans are kept in flat
arrays in memory and written out once, when the benchmark ends. A span's self
time is its duration minus the durations of its direct children; a layer's
self time is the sum over its spans.

The wrapped set stops at layer boundaries. Tape operations (``add``,
``matmul``, ...) are not wrapped: the forward tape shows up as the self time
of the ``build_loss`` that builds it, and so counts towards ``problems``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import Counter

MODULES = ("autodiff", "problems", "hutchinson", "optim", "oracle", "harness", "cli")

# module -> public names to wrap; "Class.method" wraps a method, "*.method"
# wraps that method on every class of the module that defines it.
BOUNDARIES = {
    "autodiff": ["backward"],
    "problems": [
        "get_problem",
        "make_random_spd_quadratic",
        "DifferentiableProblem.sample_batch",
        "DifferentiableProblem.value",
        "DifferentiableProblem.value_and_gradient",
        "DifferentiableProblem.gradient",
        "DifferentiableProblem.hvp",
        "DifferentiableProblem.hvp_operator",
        "DifferentiableProblem.full_tape",
        "*.build_loss",
    ],
    "hutchinson": ["probe_rng", "rademacher", "estimate_diag"],
    "optim": [
        "make_optimizer",
        "make_schedule",
        "spatial_average",
        "AdaHessian.average_diagonal",
        "*.step",
    ],
    "oracle": [
        "run_verification_suite",
        "fd_gradient",
        "fd_hvp",
        "fd_hessian",
        "exact_hutchinson_expectation",
        "hutchinson_enumerate",
        "descent_slack",
    ],
    "harness": [
        "default_out_dir",
        "run",
        "sweep",
        "RunConfig.validate",
        "TrajectoryRecord.to_line_dict",
        "SweepCell.row",
    ],
    "cli": ["main", "build_parser"],
}

ROOT = "bench.call"


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.call_ids = array("q")
        self.parents = array("q")
        self.name_ids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.names: list[str] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        call_ids, parents, name_ids = self.call_ids, self.parents, self.name_ids
        starts, ends = self.starts, self.ends
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            call_ids.append(tracer.call_id)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return wrapper

    def install(self, package: str = "hessopt") -> None:
        """Wrap every boundary function of the imported ``package``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {m: sys.modules[f"{package}.{m}"] for m in MODULES}
        loaded = [mod for key, mod in sys.modules.items()
                  if key == package or key.startswith(package + ".")]
        for layer, entries in BOUNDARIES.items():
            module = modules[layer]
            for entry in entries:
                if "." not in entry:
                    original = getattr(module, entry)
                    wrapper = self._wrap(f"{layer}.{entry}", original)
                    for holder in loaded:
                        for attr, value in list(vars(holder).items()):
                            if value is original:
                                self._patch(holder, attr, wrapper)
                    continue
                owner, method = entry.split(".")
                classes = [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                           if cls.__module__ == module.__name__
                           and (owner == "*" or cls.__name__ == owner)
                           and method in vars(cls)]
                if not classes:
                    raise RuntimeError(f"no boundary {layer}.{entry} to wrap")
                for cls in classes:
                    original = vars(cls)[method]
                    wrapper = self._wrap(f"{layer}.{cls.__name__}.{method}", original)
                    self._patch(cls, method, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def root(self, fn):
        """Wrap the benchmark's own call so every span of one call has a root."""
        return self._wrap(ROOT, fn)

    def clear(self) -> None:
        for buf in (self.call_ids, self.parents, self.name_ids, self.starts, self.ends):
            del buf[:]

    def call_profile(self, call_id: int) -> dict:
        """Self seconds per layer and span counts per function, for one call."""
        child_ns: dict[int, int] = {}
        rows = [i for i, c in enumerate(self.call_ids) if c == call_id]
        for i in rows:
            parent = self.parents[i]
            if parent >= 0:
                child_ns[parent] = child_ns.get(parent, 0) + self.ends[i] - self.starts[i]
        self_ns = Counter()
        counts = Counter()
        total_ns = 0
        for i in rows:
            name = self.names[self.name_ids[i]]
            duration = self.ends[i] - self.starts[i]
            self_ns[name.split(".")[0]] += duration - child_ns.get(i, 0)
            counts[name] += 1
            if name == ROOT:
                total_ns = duration
        return {
            "self_s": {layer: self_ns[layer] / 1e9 for layer in MODULES},
            "glue_s": self_ns["bench"] / 1e9,
            "duration_s": total_ns / 1e9,
            "counts": dict(sorted(counts.items())),
        }

    def write(self, path) -> int:
        """Write every span as gzipped CSV; returns the number written."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("call,span,parent,name,start_ns,end_ns\n")
            names = self.names
            for i in range(len(self.starts)):
                fh.write(f"{self.call_ids[i]},{i},{self.parents[i]},"
                         f"{names[self.name_ids[i]]},{self.starts[i]},{self.ends[i]}\n")
        return len(self.starts)
