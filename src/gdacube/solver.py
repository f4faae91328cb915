"""Desk-scale search for approximate fixed points of the ascent-descent dynamic.

A point passes at tolerance eps when no single coordinate of either
player can improve its linearized payoff by more than eps inside [0,1];
the inner maximization is affine in the move, so only the endpoints 0
and 1 are ever tested. Solvers return the best-violation iterate seen,
never the last one: the dynamic has no potential and cycles readily.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .lin_vi import json_real, operator_slacks
from .reduction import (CapExceededError, GdaInstance, JointPoint, NodeDiagnostics,
                        _check_point, _evaluate, _field_many)

__all__ = [
    "StationarityReport",
    "SolverConfig",
    "SolverResult",
    "check_stationary",
    "projected_gda",
    "extragradient",
    "grid_search",
    "EVAL_CAP_ENV",
]

EVAL_CAP_ENV = "GDACUBE_EVAL_CAP"
DEFAULT_EVAL_CAP = 10**7


@dataclass(frozen=True)
class StationarityReport:  # the one evaluation of a point, see check_stationary
    point: JointPoint
    violations_x: np.ndarray
    violations_y: np.ndarray
    max_violation: float
    epsilon: float
    passed: bool
    diagnostics: NodeDiagnostics
    copy_slacks: np.ndarray


@dataclass(frozen=True)
class SolverConfig:
    step: float | None = None  # defaults to 1/L from the instance bounds
    max_iters: int = 1000
    restarts: int = 1
    seed: int = 0
    target: float = 0.0

    def __post_init__(self):
        for name in ("step", "target"):  # a bool would run as 1.0 or 0.0
            if isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if self.step is not None and not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step!r}")
        for name in ("max_iters", "restarts", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if not math.isfinite(self.target):  # a negative target is one never reached
            raise ValueError(f"target must be finite, got {self.target!r}")


@dataclass(frozen=True)
class SolverResult:
    report: StationarityReport  # at the best point, which it holds
    trace: tuple[tuple[int, float], ...]  # (cumulative iterations, best violation)
    iterations: int
    method: str
    seed: int | None  # None for the grid, which draws no random numbers

    def to_json_dict(self) -> dict:
        return {
            "max_violation": self.report.max_violation,
            "epsilon": self.report.epsilon,
            "pass": self.report.passed,
            "method": self.method,
            "iterations": self.iterations,
            "seed": self.seed,
            "point": self.report.point.to_json_dict(),
            "trace": [list(t) for t in self.trace],
        }


def _field(inst: GdaInstance, Z: np.ndarray) -> np.ndarray:
    """The joint field [gx | -gy] at the rows of the joint iterate Z = [x | y].

    Both players move along it: x ascends gx and y descends gy. The
    gradient pass writes it as one (B, 2d) array, and its -gy half is gy
    negated, which is exact, sign of zero included, so a step or a
    violation read off the field has the bits of the per-player formulas.
    The pass's tables are not read here.
    """
    return _field_many(inst, Z[:, :inst.d], Z[:, inst.d:])[0]


def _violations(z, f):
    """Per-coordinate endpoint violations of the joint point z under the field f.

    The inner maximization over a move to 0 or 1 is affine, so a
    coordinate's violation is max(f (1 - z), -f z, 0): for x this is
    gx (1 - x) and -gx x, for y it is -gy (1 - y) and gy y.
    """
    v = 1.0 - z
    v *= f
    gain = np.negative(f)
    gain *= z
    np.maximum(v, gain, out=v)
    return np.maximum(v, 0.0, out=v)


def check_stationary(inst: GdaInstance, p: JointPoint, eps: float) -> StationarityReport:
    """The one evaluation of p that decoding and the audit read: both players'
    endpoint violations against eps, that pass's diagnostics, copy slacks.
    Refuses an eps that is not a real number (a bool would read as 1.0)."""
    eps = json_real(eps, "eps")
    field, nodes = _evaluate(inst, p)
    v = _violations(np.concatenate((p.x, p.y)), field)
    worst = float(v.max())
    _, slacks = operator_slacks(inst.vi, p.x.reshape(inst.kappa * inst.n, inst.m))
    return StationarityReport(point=p, violations_x=v[:inst.d], violations_y=v[inst.d:],
                              max_violation=worst, epsilon=eps, passed=bool(worst <= eps),
                              diagnostics=nodes, copy_slacks=slacks.min(axis=1))


def _row_violations(Z, F) -> np.ndarray:
    """Worst endpoint violation of each row of the joint iterate Z."""
    v = _violations(Z, F)
    if v.shape[0] > v.shape[1]:
        # numpy reduces many short rows far slower than the columns of the
        # transpose (a grid tile of 3,125 x 8: ~270 vs ~32 us); max is exact,
        # so both give the same bits. A column-major tile's transpose is
        # already contiguous and is not copied.
        return np.ascontiguousarray(v.T).max(axis=0)
    return v.max(axis=1)


# The grid sweep evaluates tiles of at most this many (rows x 2d) elements,
# so the tile and every temporary of its pass, the (rows, 2d) field the
# largest, take at most 128 KiB, glibc's default mmap threshold: the
# allocator then serves them from the heap rather than mapping and
# faulting each one in anew. At 2^16 a grid_certify job made ~14,600
# minor page faults, at 2^14 ~0.1 (getrusage over 15 in-process jobs,
# 2-vCPU x86-64, numpy 2.4.6). A table of exactly 128 KiB is mapped once
# and then raises glibc's dynamic threshold above itself.
GRID_BLOCK_ELEMS = 1 << 14

# Restarts run as the rows of one batch, in groups of at most this many
# elements per (rows, d) array, so memory stays bounded whatever the count.
RESTART_GROUP_ELEMS = 1 << 18


class _Group:
    """Per-row outcome of one group of restarts advanced in lockstep.

    ``marks[r, j]`` is row r's best violation after iteration j * stride.
    ``stop`` is the first row that reached the target or went non-finite
    (``failed``); rows after it were dropped. It is None if every row ran
    to the iteration cap without reaching the target.
    """

    def __init__(self, Z, max_iters: int, stride: int):
        rows = Z.shape[0]
        self.steps = np.full(rows, max_iters)
        self.best_v = np.full(rows, np.inf)
        self.best_z = Z.copy()
        self.marks = np.full((rows, len(range(0, max_iters, stride))), np.nan)
        self.stop: int | None = None
        self.failed = False


def _run_group(inst, Z, cfg: SolverConfig, eta: float, extrapolate: bool,
               stride: int) -> _Group:
    """Advance the joint iterates Z = [x | y], one row per restart."""
    out = _Group(Z, cfg.max_iters, stride)
    live = np.arange(Z.shape[0])  # rows still running, in restart order

    def consider(F):
        v = _row_violations(Z, F)
        better = v < out.best_v[live]
        out.best_v[live[better]] = v[better]
        out.best_z[live[better]] = Z[better]

    def stop_at(hit, it, failed):
        # the first flagged row ends here and every later row is dropped
        nonlocal live, Z
        r = int(live[np.argmax(hit)])
        out.steps[r], out.stop, out.failed = it, r, failed
        keep = live < r
        live, Z = live[keep], Z[keep]
        return keep

    def step(Z, F):
        # the projection of Z + eta F onto the box, with np.clip's bits
        W = eta * F
        W += Z
        np.minimum(W, 1.0, out=W)
        return np.maximum(0.0, W, out=W)

    for it in range(cfg.max_iters):
        if live.size == 0:
            break
        F = _field(inst, Z)
        consider(F)
        if it % stride == 0:
            out.marks[live, it // stride] = out.best_v[live]
        hit = out.best_v[live] <= cfg.target
        if np.count_nonzero(hit):
            keep = stop_at(hit, it, failed=False)
            if not live.size:
                break
            F = F[keep]
        if extrapolate:
            F = _field(inst, step(Z, F))
        Z = step(Z, F)
        finite = np.isfinite(Z)
        if np.count_nonzero(finite) != finite.size:
            stop_at(~finite.all(axis=1), it, failed=True)
    else:
        if live.size:
            # iteration cap: score the final iterates too
            consider(_field(inst, Z))
            hit = out.best_v[live] <= cfg.target
            if np.count_nonzero(hit):
                out.stop = int(live[np.argmax(hit)])
                out.failed = False
    return out


def _drive(inst: GdaInstance, p0: JointPoint, cfg: SolverConfig, extrapolate: bool) -> SolverResult:
    """Run every restart and keep the best iterate seen.

    Restart 0 starts at ``p0`` and restart r at a point drawn from the r-th
    child of ``SeedSequence(cfg.seed)``. Restarts advance together as the
    rows of one batch, group by group, with one gradient call per iteration
    (two with extrapolation). The result is that of running them one after
    another and stopping at the first restart that reaches ``cfg.target``:
    each row keeps its own best iterate (the first of equal violations),
    rows after the first to reach the target are dropped, and the trace is
    rebuilt in restart order.
    """
    _check_point(inst, p0)
    eta = cfg.step if cfg.step is not None else 1.0 / inst.bounds.L
    seeds = np.random.SeedSequence(cfg.seed)
    d = inst.d
    z0 = np.concatenate((p0.x, p0.y))
    best_z = z0
    best_v = np.inf
    trace: list[tuple[int, float]] = []
    stride = max(1, cfg.max_iters // 10)
    total = 0
    group = max(1, RESTART_GROUP_ELEMS // d)

    for first in range(0, cfg.restarts, group):
        rows = range(first, min(first + group, cfg.restarts))
        Z = np.empty((len(rows), 2 * d))
        # successive spawns continue the child count: these are children
        # first, first + 1, ... of the seed, as in one spawn(cfg.restarts)
        for i, (r, child) in enumerate(zip(rows, seeds.spawn(len(rows)))):
            if r == 0:
                Z[i] = z0
            else:
                rng = np.random.default_rng(child)
                Z[i, :d], Z[i, d:] = rng.uniform(0, 1, d), rng.uniform(0, 1, d)
        g = _run_group(inst, Z, cfg, eta, extrapolate, stride)
        if g.failed:
            raise FloatingPointError("non-finite iterate; reduce the step size")
        for i in range(len(rows) if g.stop is None else g.stop + 1):
            steps = int(g.steps[i])
            for j, it in enumerate(range(0, min(steps + 1, cfg.max_iters), stride)):
                v = float(g.marks[i, j])
                trace.append((total + it, v if v < best_v else best_v))
            total += steps
            if g.best_v[i] < best_v:
                best_v = float(g.best_v[i])
                best_z = g.best_z[i].copy()
        if g.stop is not None:
            break
    trace.append((total, best_v))
    report = check_stationary(inst, JointPoint(best_z[:d], best_z[d:]), cfg.target)
    return SolverResult(report=report, trace=tuple(trace), iterations=total,
                        method="extragradient" if extrapolate else "gda", seed=cfg.seed)


def projected_gda(inst: GdaInstance, p0: JointPoint, cfg: SolverConfig) -> SolverResult:
    """Simultaneous projected ascent/descent steps."""
    return _drive(inst, p0, cfg, extrapolate=False)


def extragradient(inst: GdaInstance, p0: JointPoint, cfg: SolverConfig) -> SolverResult:
    """Extrapolated two-step variant; converges on bilinear couplings where
    plain ascent/descent orbits."""
    return _drive(inst, p0, cfg, extrapolate=True)


def _eval_cap() -> int:
    """The grid point cap: ``GDACUBE_EVAL_CAP`` if set, which must read as
    a non-negative integer, else ``DEFAULT_EVAL_CAP``."""
    raw = os.environ.get(EVAL_CAP_ENV)
    if raw is None:
        return DEFAULT_EVAL_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        raise ValueError(f"{EVAL_CAP_ENV} must be a non-negative integer, got {raw!r}")
    return cap


def grid_search(inst: GdaInstance, h: float, eps: float | None = None) -> SolverResult:
    """Exhaustive sweep of the product grid with spacing h.

    Returns the point minimizing the maximum violation; exact ties go to
    the lexicographically smallest grid point (the scan is ordered). The
    sweep counts as zero iterations; its trace is the one best violation.
    The point count is capped by the ``GDACUBE_EVAL_CAP`` variable.

    The grid is swept in tiles of R = (k+1)^t consecutive points, k = 1/h:
    t is the largest count of trailing coordinates with R * 2d at most
    ``GRID_BLOCK_ELEMS`` (at least 1, at most 2d), so every tile holds
    whole blocks of the last t digits and the tile count is (k+1)^(2d-t).
    The rule keeps each per-tile table within 128 KiB, below which glibc
    allocates from its heap instead of mapping fresh pages per table.
    The last t coordinates of a tile are one table built once; each tile
    writes only its fixed leading coordinates into the reused buffer. The
    tile is column-major, each coordinate a contiguous run of R values: a
    tile is tall and narrow (625 x 8 at ring-4, n = m = 1, h = 1/4), and
    the field pass follows its memory order, so every elementwise
    operation runs over runs of rows rather than over rows of 2d values.
    """
    if isinstance(h, bool):  # True would run as a grid with h = 1
        raise ValueError(f"grid spacing h must be a real number, got {h!r}")
    if eps is not None:  # refused before the sweep, as check_stationary refuses it
        json_real(eps, "eps")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"grid spacing h must be finite and positive, got {h!r}")
    k = round(1.0 / h)
    if k < 1 or abs(k * h - 1.0) > 1e-9:
        raise ValueError("h must evenly divide [0, 1]")
    vals = np.linspace(0.0, 1.0, k + 1)
    width = 2 * inst.d
    npts = (k + 1) ** width
    cap = _eval_cap()
    if npts > cap:
        raise CapExceededError(f"grid has {npts} points, cap is {cap}")

    t = 1
    while t < width and (k + 1) ** (t + 1) * width <= GRID_BLOCK_ELEMS:
        t += 1
    lead = width - t
    P = np.empty((width, (k + 1) ** t)).T  # column-major: each coordinate a contiguous run
    P[:, lead:] = vals[np.indices((k + 1,) * t).reshape(t, -1).T]
    best_v, best_idx = np.inf, -1
    for tile, digits in enumerate(itertools.product(range(k + 1), repeat=lead)):
        P[:, :lead] = vals[list(digits)]
        v = _row_violations(P, _field(inst, P))
        b = int(np.argmin(v))
        if v[b] < best_v:
            best_v, best_idx = float(v[b]), tile * P.shape[0] + b

    divisors = (k + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    digits = (best_idx // divisors) % (k + 1)
    P = vals[digits]
    point = JointPoint(P[: inst.d], P[inst.d:])
    return SolverResult(report=check_stationary(inst, point, best_v if eps is None else eps),
                        trace=((0, best_v),), iterations=0, method="grid", seed=None)
