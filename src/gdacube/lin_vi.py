"""Linear variational inequalities on the unit box.

An instance is (D, c, rho) with D in [-1,1]^{m x m} and c in [-1,1]^m.
A point z in [0,1]^m is accepted when every componentwise slack
(Dz+c)_j (z'_j - z_j) stays above -rho for all feasible z'_j; since the
slack is affine in z'_j its worst case sits at an endpoint, so only
z'_j in {0, 1} is ever evaluated. ``operator_slacks`` owns that rule:
``check_solution``, ``brute_force_solve`` and the copy slacks of
``solver.check_stationary`` all read their slacks from it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .pure_circuit import json_int

__all__ = ["LinVIInstance", "SlackReport", "operator_slacks", "check_solution",
           "resolve_rho", "brute_force_solve", "gen_random"]


def _require_rho(rho: float) -> float:
    if not (math.isfinite(rho) and rho > 0):
        raise ValueError(f"rho must be finite and positive, got {rho!r}")
    return rho


def json_real(value, what: str) -> float:
    """A number read from a JSON artifact or passed to a library call, as a float.

    Refuses (ValueError) a bool, string or null instead of converting it
    (``true`` to 1.0, ``"0.5"`` to 0.5), and an integer too large for a float.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be a real number within float range") from None


def json_reals(values: list, what: str) -> np.ndarray:
    """A flat JSON list of numbers as a float array, refused where
    ``json_real`` would refuse an entry. One ``map(type, ...)`` pass
    collects the entry types and each distinct type is tested once, so a
    point file's 25k-entry lists stay cheap to read."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of real numbers, got {values!r}")
    for kind in set(map(type, values)):
        if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
            raise ValueError(f"{what} must hold real numbers only, got a {kind.__name__}")
    try:
        return np.array(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} holds an integer too large for a float") from None


@dataclass(frozen=True)
class LinVIInstance:
    m: int
    D: np.ndarray
    c: np.ndarray
    rho: float

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if D.shape != (self.m, self.m) or c.shape != (self.m,):
            raise ValueError(f"expected D {self.m}x{self.m} and c of length {self.m}")
        if not (np.abs(D) <= 1.0).all() or not (np.abs(c) <= 1.0).all():
            raise ValueError("entries of D and c must be finite and lie in [-1, 1]")
        _require_rho(self.rho)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "c", c)

    def operator(self, z: np.ndarray) -> np.ndarray:
        return self.D @ z + self.c

    def to_json_dict(self) -> dict:
        return {"m": self.m, "D": self.D.tolist(), "c": self.c.tolist(), "rho": self.rho}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LinVIInstance":
        def entries(k):  # D is nested, so its entries are read flat
            a = np.array(d[k], dtype=object)
            return json_reals(a.ravel().tolist(), k).reshape(a.shape)

        return cls(m=json_int(d["m"], "m"), D=entries("D"), c=entries("c"),
                   rho=json_real(d["rho"], "rho"))


@dataclass(frozen=True)
class SlackReport:
    slacks: np.ndarray  # per-component worst slack over endpoint moves
    rho: float
    passed: bool

    @property
    def worst(self) -> float:
        return float(self.slacks.min())

    def to_json_dict(self) -> dict:
        return {"slacks": self.slacks.tolist(), "rho": self.rho, "pass": self.passed}


def resolve_rho(inst: LinVIInstance, rho: float | None = None) -> float:
    """The acceptance tolerance: an override if given, else the instance's rho.

    An override must be a finite and positive real number (not a bool), as
    the instance's own rho is.
    """
    return inst.rho if rho is None else _require_rho(json_real(rho, "rho"))


def operator_slacks(inst: LinVIInstance, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operator values Dz + c and per-component worst slacks of a (rows, m)
    stack of points, both (rows, m); a row passes when its worst slack is >= -rho.

    The operator is the stacked mat-vec, one ``D @ z`` per row, so no row's
    result depends on the other rows.
    """
    V = np.matmul(inst.D, Z[:, :, None])[:, :, 0] + inst.c
    return V, np.minimum(V * (0.0 - Z), V * (1.0 - Z))


def check_solution(inst: LinVIInstance, z: np.ndarray, rho: float | None = None) -> SlackReport:
    """Componentwise acceptance test; rho defaults to the instance value."""
    rho = resolve_rho(inst, rho)
    z = np.asarray(z, dtype=float)
    if z.shape != (inst.m,):
        raise ValueError(f"z must have length {inst.m}")
    if z.min() < 0.0 or z.max() > 1.0:
        raise ValueError("z must lie in the unit box")
    _, (slacks,) = operator_slacks(inst, z[None, :])
    return SlackReport(slacks=slacks, rho=rho, passed=bool(slacks.min() >= -rho))


def _grid_values(grid_step: float) -> np.ndarray:
    k = round(1.0 / grid_step)
    if abs(k * grid_step - 1.0) > 1e-12 or k < 2:
        raise ValueError("grid_step must evenly divide [0, 1]")
    return np.arange(k + 1) * grid_step


def brute_force_solve(inst: LinVIInstance, grid_step: float) -> np.ndarray:
    """Exhaustive oracle for m <= 3: the grid point maximizing the minimum slack.

    Boxes always carry exact solutions and the slack moves by at most
    3m per unit coordinate change, so refining the grid drives the
    returned slack toward 0 from below. Exact slack ties are frequent
    (every exact solution scores 0), so ties prefer the point with the
    smallest operator magnitude, then the lexicographically smallest.
    """
    if inst.m > 3:
        raise ValueError("brute force is limited to m <= 3")
    vals = _grid_values(grid_step)
    grids = np.meshgrid(*([vals] * inst.m), indexing="ij")
    Z = np.stack([g.ravel() for g in grids], axis=1)  # lexicographic order
    V, slacks = operator_slacks(inst, Z)
    slack = slacks.min(axis=1)
    best = slack == slack.max()
    tied = np.flatnonzero(best)
    vmag = np.abs(V[tied]).max(axis=1)
    return Z[tied[int(np.argmin(vmag))]].copy()


def gen_random(m: int, seed: int, rho: float = 0.1) -> LinVIInstance:
    """Entries i.i.d. uniform on [-1, 1]; deterministic in the seed."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rng = np.random.default_rng(seed)
    return LinVIInstance(m=m, D=rng.uniform(-1.0, 1.0, size=(m, m)),
                         c=rng.uniform(-1.0, 1.0, size=m), rho=rho)
