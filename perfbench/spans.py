"""Spans around the program's public functions, recorded from outside it.

Each function is wrapped under every name it is looked up by: numeric calls
sturm_count through the anharm2d.numeric module, and cli calls verify and
radial_eval through the names it imported into anharm2d.cli. Spans stay in
memory as (name, start, end, parent, work) and are written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (span name, modules that look the function up, attribute, work per call)
# work is what the per-unit figures divide by: grid points for a Sturm pass,
# radii for an evaluation, CSV rows for eval, eigenvalues for an eigensolve.
SITES = (
    ("cli.main", ("anharm2d.cli",), "main", None),
    ("cli.verify", ("anharm2d.cli",), "cmd_verify", None),
    ("cli.eval", ("anharm2d.cli",), "cmd_eval", lambda args: args.samples),
    ("cli.normalize", ("anharm2d.cli",), "cmd_normalize", None),
    ("closed_form.excited_solve", ("anharm2d.cli", "anharm2d.numeric"), "excited_solve", None),
    ("closed_form.radial_eval", ("anharm2d.cli", "anharm2d.numeric"), "radial_eval",
     lambda state, r: int(np.size(r))),
    ("numeric.build_grid", ("anharm2d.cli", "anharm2d.numeric"), "build_grid", None),
    ("numeric.verify", ("anharm2d.cli",), "verify", None),
    ("numeric.normalization_constant", ("anharm2d.cli", "anharm2d.numeric"),
     "normalization_constant", None),
    ("numeric.overlap", ("anharm2d.numeric",), "overlap", None),
    ("numeric.assemble", ("anharm2d.numeric",), "assemble", lambda params, m, grid: grid.n),
    ("numeric.sturm_count", ("anharm2d.numeric",), "sturm_count", lambda ham, lam: ham.n),
    ("numeric.lowest_eigenvalues", ("anharm2d.numeric",), "lowest_eigenvalues",
     lambda ham, k, *rest, **kw: k),
    ("numeric.node_count", ("anharm2d.numeric",), "node_count", lambda v, *rest, **kw: len(v)),
)
QUADRATURE = "numeric.quadrature"  # its work is counted inside: integrand points


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work]
        self._stack = []

    def _open(self, name: str, work: int) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, work]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def wrap_quadrature(self, fn):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            span = self._open(QUADRATURE, 0)

            def counted(x):
                span[4] += len(x)
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self._close(span)

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "work": work}
                ) + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Wrap every site for the duration of the block, then restore it."""
    saved = []
    try:
        for name, modules, attr, work in SITES:
            for module_name in modules:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, tracer.wrap(name, getattr(module, attr), work))
        numeric = importlib.import_module("anharm2d.numeric")
        saved.append((numeric, "quadrature", numeric.quadrature))
        numeric.quadrature = tracer.wrap_quadrature(numeric.quadrature)
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


class SpanStats:
    """Per-name totals over the spans: calls, inclusive and self seconds, work."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls, self.total, self.self_time, self.work = {}, {}, {}, {}
        for i, (name, start, end, _, work) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child[i])
            self.work[name] = self.work.get(name, 0) + work

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if name.split(".")[0] == layer)

    def table(self) -> str:
        lines = [f"{'span':34} {'calls':>7} {'total_ms':>10} {'self_ms':>10} "
                 f"{'work':>11} {'self_ns/work':>12}"]
        for name in sorted(self.calls):
            work = self.work[name]
            per_work = f"{1e9 * self.self_time[name] / work:12.2f}" if work else f"{'-':>12}"
            lines.append(
                f"{name:34} {self.calls[name]:7d} {1e3 * self.total[name]:10.2f} "
                f"{1e3 * self.self_time[name]:10.2f} {work:11d} {per_work}"
            )
        return "\n".join(lines)
