"""Spans around the public functions of each gdacube layer, recorded from outside.

``Tracer.install`` replaces each function at the name the calling module
imported it under (``gdacube.reduction.nor_gate``,
``gdacube.decoder.check_solution``, ...) with a wrapper that records a
span: job id, name, start, end, parent span and, for gate kernels, the
element count. ``remove`` puts the original objects back. Nothing in
``src/`` is edited, so code that reaches a layer through a private name
(the solvers call ``reduction._grad_many``) shows up in its caller's self
time; ``probe_grad_us`` gives the unit cost of that call instead.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc

import numpy as np

_GATES = ("nor_gate", "nor_gate_prime", "purify_gate", "purify_gate_prime",
          "distance_threshold", "distance_threshold_prime")

# (module whose global is replaced, attribute, span name)
TARGETS = (
    ("gdacube.cli", "main", "cli.main"),
    ("gdacube.cli", "gen_example", "pure_circuit.gen_example"),
    ("gdacube.decoder", "verify_assignment", "pure_circuit.verify_assignment"),
    ("gdacube.cli", "gen_random", "lin_vi.gen_random"),
    ("gdacube.decoder", "check_solution", "lin_vi.check_solution"),
    ("gdacube.cli", "build_instance", "reduction.build_instance"),
    ("gdacube.reduction", "build_instance", "reduction.build_instance"),
    ("gdacube.decoder", "diagnostics", "reduction.diagnostics"),
    ("gdacube.cli", "eval_grad", "reduction.eval_grad"),
    ("gdacube.cli", "eval_grad_direct", "reduction.eval_grad_direct"),
    ("gdacube.cli", "finite_diff_grad", "reduction.finite_diff_grad"),
    ("gdacube.cli", "extragradient", "solver.solve"),
    ("gdacube.cli", "projected_gda", "solver.solve"),
    ("gdacube.cli", "grid_search", "solver.solve"),
    ("gdacube.solver", "check_stationary", "solver.check_stationary"),
    ("gdacube.decoder", "check_stationary", "solver.check_stationary"),
    ("gdacube.cli", "decode", "decoder.decode"),
    ("gdacube.cli", "lemma_audit", "decoder.lemma_audit"),
    ("gdacube.cli", "dichotomy_check", "decoder.dichotomy_check"),
) + tuple(("gdacube.reduction", g, "gates") for g in _GATES)

# Spans whose peak traced allocation is recorded (tracemalloc is costly).
_ALLOC_SPANS = {"reduction.finite_diff_grad"}


class Tracer:
    """Collects spans in memory; one instance per traced run."""

    def __init__(self):
        # (job, name, start, end, parent index, elements)
        self.spans: list[tuple | None] = []
        self.alloc_peak: dict[int, int] = {}  # job -> peak bytes in _ALLOC_SPANS
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        count_elems = name == "gates"
        track_alloc = name in _ALLOC_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if track_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if track_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[self.job] = max(self.alloc_peak.get(self.job, 0), peak)
                stack.pop()
                spans[idx] = (self.job, name, start, end, parent,
                              np.size(args[0]) if count_elems else 0)

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def totals(self, jobs=None):
        """Per span name: calls, inclusive seconds, self seconds, elements.

        Self time is a span's duration minus that of its direct children.
        ``jobs`` restricts the sums to those job ids.
        """
        child = [0.0] * len(self.spans)
        for job, _n, start, end, parent, _e in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = {}
        for i, (job, name, start, end, _p, elems) in enumerate(self.spans):
            if jobs is not None and job not in jobs:
                continue
            row = out.setdefault(name, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += elems
        return out


def probe_grad_us(inst) -> float:
    """Median wall time of one batch-1 ``eval_grad`` at this instance's shape, in µs.

    Times at least 20 calls and at least 0.3 s of them.
    """
    from gdacube.reduction import JointPoint, eval_grad

    rng = np.random.default_rng(0)
    p = JointPoint(rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d))
    eval_grad(inst, p)
    times = []
    deadline = time.perf_counter() + 0.3
    while len(times) < 20 or time.perf_counter() < deadline:
        t = time.perf_counter()
        eval_grad(inst, p)
        times.append(time.perf_counter() - t)
    return float(np.median(times)) * 1e6
