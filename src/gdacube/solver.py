"""Desk-scale search for approximate fixed points of the ascent-descent dynamic.

A point passes at tolerance eps when no single coordinate of either
player can improve its linearized payoff by more than eps inside [0,1];
the inner maximization is affine in the move, so only the endpoints 0
and 1 are ever tested. Solvers return the best-violation iterate seen,
never the last one: the dynamic has no potential and cycles readily.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .reduction import CapExceededError, GdaInstance, JointPoint, _grad_many

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
class StationarityReport:
    violations_x: np.ndarray
    violations_y: np.ndarray
    max_violation: float
    epsilon: float
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "max_violation": self.max_violation,
            "epsilon": self.epsilon,
            "pass": self.passed,
            "violations_x": self.violations_x.tolist(),
            "violations_y": self.violations_y.tolist(),
        }


@dataclass(frozen=True)
class SolverConfig:
    method: str = "extragradient"
    step: float | None = None  # defaults to 1/L from the instance bounds
    max_iters: int = 1000
    restarts: int = 1
    seed: int = 0
    target: float = 0.0

    def __post_init__(self):
        if self.step is not None and not self.step > 0:
            raise ValueError("step must be positive")
        if self.max_iters < 1 or self.restarts < 1:
            raise ValueError("max_iters and restarts must be positive")


@dataclass(frozen=True)
class SolverResult:
    point: JointPoint
    report: StationarityReport
    trace: tuple[tuple[int, float], ...]  # (cumulative iterations, best violation)
    iterations: int
    method: str
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "max_violation": self.report.max_violation,
            "epsilon": self.report.epsilon,
            "pass": self.report.passed,
            "method": self.method,
            "iterations": self.iterations,
            "seed": self.seed,
            "point": self.point.to_json_dict(),
            "trace": [list(t) for t in self.trace],
        }


def _violation_arrays(x, y, gx, gy):
    vx = np.maximum(np.maximum(gx * (1.0 - x), -gx * x), 0.0)
    vy = np.maximum(np.maximum(-gy * (1.0 - y), gy * y), 0.0)
    return vx, vy


def check_stationary(inst: GdaInstance, p: JointPoint, eps: float) -> StationarityReport:
    """Per-coordinate endpoint violations for both players against eps."""
    GX, GY = _grad_many(inst, p.x[None, :], p.y[None, :])
    vx, vy = _violation_arrays(p.x, p.y, GX[0], GY[0])
    worst = float(max(vx.max(), vy.max()))
    return StationarityReport(violations_x=vx, violations_y=vy,
                              max_violation=worst, epsilon=float(eps),
                              passed=bool(worst <= eps))


def _max_violation(x, y, gx, gy) -> float:
    vx, vy = _violation_arrays(x, y, gx, gy)
    return float(max(vx.max(), vy.max()))


def _grad_at(inst, x, y):
    GX, GY = _grad_many(inst, x[None, :], y[None, :])
    return GX[0], GY[0]


def _drive(inst: GdaInstance, p0: JointPoint, cfg: SolverConfig, extrapolate: bool) -> SolverResult:
    eta = cfg.step if cfg.step is not None else 1.0 / inst.bounds.L
    child_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_x, best_y = p0.x.copy(), p0.y.copy()
    best_v = np.inf
    trace: list[tuple[int, float]] = []
    stride = max(1, cfg.max_iters // 10)
    total = 0

    def consider(x, y, gx, gy):
        nonlocal best_v, best_x, best_y
        v = _max_violation(x, y, gx, gy)
        if v < best_v:
            best_v = v
            best_x, best_y = x.copy(), y.copy()
        return v

    for r in range(cfg.restarts):
        if r == 0:
            x, y = p0.x.copy(), p0.y.copy()
        else:
            rng = np.random.default_rng(child_seeds[r])
            x, y = rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d)
        for it in range(cfg.max_iters):
            gx, gy = _grad_at(inst, x, y)
            consider(x, y, gx, gy)
            if it % stride == 0:
                trace.append((total, best_v))
            if best_v <= cfg.target:
                break
            if extrapolate:
                xh = np.clip(x + eta * gx, 0.0, 1.0)
                yh = np.clip(y - eta * gy, 0.0, 1.0)
                gxh, gyh = _grad_at(inst, xh, yh)
                x = np.clip(x + eta * gxh, 0.0, 1.0)
                y = np.clip(y - eta * gyh, 0.0, 1.0)
            else:
                x = np.clip(x + eta * gx, 0.0, 1.0)
                y = np.clip(y - eta * gy, 0.0, 1.0)
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise FloatingPointError("non-finite iterate; reduce the step size")
            total += 1
        else:
            # iteration cap: score the final iterate too
            gx, gy = _grad_at(inst, x, y)
            consider(x, y, gx, gy)
        if best_v <= cfg.target:
            break
    trace.append((total, best_v))
    point = JointPoint(best_x, best_y)
    report = check_stationary(inst, point, cfg.target)
    method = "extragradient" if extrapolate else "gda"
    return SolverResult(point=point, report=report, trace=tuple(trace),
                        iterations=total, method=method, seed=cfg.seed)


def projected_gda(inst: GdaInstance, p0: JointPoint, cfg: SolverConfig) -> SolverResult:
    """Simultaneous projected ascent/descent steps."""
    return _drive(inst, p0, cfg, extrapolate=False)


def extragradient(inst: GdaInstance, p0: JointPoint, cfg: SolverConfig) -> SolverResult:
    """Extrapolated two-step variant; converges on bilinear couplings where
    plain ascent/descent orbits."""
    return _drive(inst, p0, cfg, extrapolate=True)


def _eval_cap(override: int | None) -> int:
    if override is not None:
        return override
    return int(os.environ.get(EVAL_CAP_ENV, DEFAULT_EVAL_CAP))


def grid_search(inst: GdaInstance, h: float, eps: float | None = None,
                eval_cap: int | None = None) -> tuple[JointPoint, StationarityReport]:
    """Exhaustive sweep of the product grid with spacing h.

    Returns the point minimizing the maximum violation; exact ties go to
    the lexicographically smallest grid point (the scan is ordered).
    """
    k = round(1.0 / h)
    if k < 1 or abs(k * h - 1.0) > 1e-9:
        raise ValueError("h must evenly divide [0, 1]")
    vals = np.linspace(0.0, 1.0, k + 1)
    width = 2 * inst.d
    npts = (k + 1) ** width
    cap = _eval_cap(eval_cap)
    if npts > cap:
        raise CapExceededError(f"grid has {npts} points, cap is {cap}")

    divisors = (k + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    best_v, best_idx = np.inf, -1
    for start in range(0, npts, 65536):
        idx = np.arange(start, min(start + 65536, npts), dtype=np.int64)
        digits = (idx[:, None] // divisors[None, :]) % (k + 1)
        P = vals[digits]
        X, Y = P[:, : inst.d], P[:, inst.d:]
        GX, GY = _grad_many(inst, X, Y)
        vx, vy = _violation_arrays(X, Y, GX, GY)
        v = np.maximum(vx.max(axis=1), vy.max(axis=1))
        del vx, vy  # whole chunks: not kept alive through the next chunk's gradient
        b = int(np.argmin(v))
        if v[b] < best_v:
            best_v, best_idx = float(v[b]), int(idx[b])

    digits = (best_idx // divisors) % (k + 1)
    P = vals[digits]
    point = JointPoint(P[: inst.d], P[inst.d:])
    report = check_stationary(inst, point, best_v if eps is None else eps)
    return point, report
