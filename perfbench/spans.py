"""Spans around calls into the program's modules, recorded from outside it.

Modules of the program bind each other's functions with ``from .x import y``,
so a function is wrapped at every name its callers look up, not only where it
is defined. Spans stay in memory; the benchmark writes them out at the end.

This module imports only the standard library, so that a traced CLI process
pays for the program's imports inside ``cli.import_s`` and nowhere else.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _plan_bytes(args, kwargs, plan) -> dict:
    """nbytes of every array the returned plan holds."""
    total = 0
    for value in getattr(plan, "__dict__", {}).values():
        items = value.values() if isinstance(value, dict) else (value,)
        total += sum(getattr(a, "nbytes", 0) for a in items)
    return {"plan_bytes": total}


def _file_bytes(arg_index: int):
    def count(args, kwargs, result) -> dict:
        path = args[arg_index] if len(args) > arg_index else kwargs["path"]
        return {"bytes": os.path.getsize(path)}

    return count


# (span name, optional counter, lookup sites as (module, attribute)).
WRAPS = (
    ("ramanujan.ramanujan_sum", None, [("rpt.ramanujan", "ramanujan_sum")]),
    ("ramanujan.euler_totient", None, [("rpt.ramanujan", "euler_totient")]),
    ("ramanujan.shift_basis", None, [("rpt.transform", "shift_basis")]),
    (
        "transform.build_plan",
        _plan_bytes,
        [("rpt.transform", "build_plan"), ("rpt.suppress", "build_plan"),
         ("rpt.cli", "build_plan")],
    ),
    (
        "transform.energy_spectrum",
        None,
        [("rpt.transform", "energy_spectrum"), ("rpt.cli", "energy_spectrum")],
    ),
    (
        "suppress.run",
        None,
        [("rpt.suppress", "run"), ("rpt.metrics", "run"), ("rpt.cli", "run")],
    ),
    (
        "notch.filter_blocked",
        None,
        [("rpt.notch", "filter_blocked"), ("rpt.metrics", "filter_blocked"),
         ("rpt.cli", "filter_blocked")],
    ),
    ("metrics.block_error", None, [("rpt.metrics", "block_error")]),
    (
        "metrics.compare_grid",
        None,
        [("rpt.metrics", "compare_grid"), ("rpt.cli", "compare_grid")],
    ),
    ("io.read_csv", _file_bytes(0), [("rpt.cli", "read_csv")]),
    ("io.read_wfdb_212", _file_bytes(0), [("rpt.cli", "read_wfdb_212")]),
    ("io.write_csv", _file_bytes(1), [("rpt.cli", "write_csv")]),
    ("cli.dispatch", None, [("rpt.cli", "dispatch")]),
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, request.

    A span is a list ``[name, start, end, parent_index, request, counts]``;
    ``parent_index`` points into ``spans``.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every lookup site in the program modules loaded so far."""
        for name, count, sites in WRAPS:
            for module_name, attr in sites:
                module = sys.modules.get(module_name)
                if module is None:
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def summarize(spans) -> dict[str, float]:
    """Sums of ``calls``, ``total_s``, ``self_s`` and counts of each span name.

    Self time is a span's duration minus the durations of its direct children,
    which never overlap because calls nest.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _, counts) in enumerate(spans):
        for key, value in (
            ("calls", 1),
            ("total_s", end - start),
            ("self_s", end - start - child_time[i]),
            *((counts or {}).items()),
        ):
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
    return out
