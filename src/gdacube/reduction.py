"""Compile a (PureCircuitInstance, LinVIInstance) pair into a box min-max problem.

Each circuit vertex q gets n copies of m-dimensional variables for both
players, so the joint point lives in [0,1]^d x [0,1]^d with d = kappa*n*m.
The objective couples three pieces:

* a NOR term: nor_gate of the summed logical levels of the gate inputs,
  times the link value of the output vertex,
* a PURIFY term: purify_gate of the input level shifted by +-1/4, times
  the link values of the two output vertices,
* a signed quadratic regularizer whose weights form the arithmetic grid
  M_i = delta*(-n/2 + i), i = 1..n.

The logical level of a vertex is distance_threshold(||x^q - y^q||^2, m),
and the link value is H_q = sum_i <D x_i^q + c, y_i^q - x_i^q>.

``build_instance`` compiles the circuit once into index tables
(:class:`GateTables`). The objective, the gradient and ``diagnostics``
share one forward path: ``_batch_parts`` computes distances, levels and
links for a (B, d) batch, and the gate terms are then evaluated with one
call per gate function over the whole (B, #gates) table. Sums run in
gate order, so results equal those of a gate-by-gate loop bit for bit.

Gradients are available through two independent routes: ``eval_grad``
aggregates per-vertex gate values and noise terms first, while
``eval_grad_direct`` accumulates the expanded chain-rule contribution of
every gate, one gate at a time and without the tables. Both must agree to
floating-point accuracy; tests and the CLI grad-check enforce this
against central finite differences (``finite_diff_grad``) as well.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gates import (
    distance_threshold,
    distance_threshold_prime,
    nor_gate,
    nor_gate_prime,
    purify_gate,
    purify_gate_prime,
)
from .lin_vi import LinVIInstance
from .pure_circuit import PureCircuitInstance, validate_instance

__all__ = [
    "CapExceededError",
    "ValidationError",
    "GdaParams",
    "paper_params",
    "parameter_premises",
    "Bounds",
    "GdaInstance",
    "JointPoint",
    "NodeDiagnostics",
    "build_instance",
    "eval_f",
    "eval_grad",
    "eval_grad_direct",
    "finite_diff_grad",
    "diagnostics",
]

DIM_CAP = 10**7


class CapExceededError(RuntimeError):
    """Requested instance or search exceeds the configured size cap."""


class ValidationError(ValueError):
    """Structural violations in an input instance."""

    def __init__(self, problems):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


Number = int | float | Fraction


@dataclass(frozen=True)
class GdaParams:
    """Copies per vertex, stationarity tolerance, and regularizer grid spacing.

    ``paper`` mode keeps all three as exact rationals (they are far too
    large/small to materialize); ``custom`` mode holds desk-scale values.
    """

    n: Number
    epsilon: Number
    delta: Number
    mode: str = "custom"
    materializable: bool = True

    def __post_init__(self):
        if self.mode not in ("paper", "custom"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "custom":
            n = self.n
            if not (isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n)):
                raise ValueError(f"n must be an integer, got {n!r}")
            object.__setattr__(self, "n", int(n))
            object.__setattr__(self, "epsilon", float(self.epsilon))
            object.__setattr__(self, "delta", float(self.delta))
            if not (math.isfinite(self.epsilon) and math.isfinite(self.delta)):
                raise ValueError("epsilon and delta must be finite")
        if not (self.n >= 1 and self.epsilon > 0 and self.delta > 0):
            raise ValueError("need n >= 1, epsilon > 0, delta > 0")

    def to_json_dict(self) -> dict:
        if self.mode == "paper":
            num = {k: str(getattr(self, k)) for k in ("n", "epsilon", "delta")}
        else:
            num = {k: getattr(self, k) for k in ("n", "epsilon", "delta")}
        return {**num, "mode": self.mode, "materializable": self.materializable}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GdaParams":
        if d["mode"] == "paper":
            nums = {k: Fraction(d[k]) for k in ("n", "epsilon", "delta")}
        else:
            nums = {k: d[k] for k in ("n", "epsilon", "delta")}
        return cls(mode=d["mode"], materializable=bool(d.get("materializable", True)), **nums)


def paper_params(m: int, kappa: int, rho: Number) -> GdaParams:
    """Exact-rational parameters for the hardness-scale construction.

    n = 2^64 m^14 kappa^2 / rho^8, epsilon = rho^18 / (2^140 m^28 kappa^4),
    delta = rho^2 / (2^10 m^2). These are astronomically large by design;
    the returned record is flagged non-materializable whenever the full
    dimension kappa*n*m would exceed ``DIM_CAP``.
    """
    if m < 1 or kappa < 1:
        raise ValueError("need m >= 1 and kappa >= 1")
    rho = Fraction(rho)
    if not (0 < rho <= 1):
        raise ValueError("rho must lie in (0, 1]")
    n = Fraction(2**64 * m**14 * kappa**2) / rho**8
    epsilon = rho**18 / Fraction(2**140 * m**28 * kappa**4)
    delta = rho**2 / Fraction(2**10 * m**2)
    return GdaParams(
        n=n, epsilon=epsilon, delta=delta, mode="paper",
        materializable=bool(kappa * n * m <= DIM_CAP),
    )


def parameter_premises(n, epsilon, delta, m, kappa, rho) -> dict[str, bool]:
    """The parameter relations the decoding lemmas lean on.

    Evaluated exactly when handed rationals, in floating point otherwise.
    """
    return {
        "eps_le_delta_over_n": bool(epsilon <= delta / n),
        "n_ge_2^24_m^6_k^2_over_delta^4": bool(2**24 * m**6 * kappa**2 / delta**4 <= n),
        "eps_le_delta^3_over_2^16_m^4_k^2": bool(epsilon <= delta**3 / (2**16 * m**4 * kappa**2)),
        "delta_le_rho^2_over_2^9_m^2": bool(delta <= rho**2 / (2**9 * m**2)),
        "eps_le_rho_over_2": bool(epsilon <= rho / 2),
    }


@dataclass(frozen=True)
class Bounds:
    """Conservative range (B), gradient sup-norm (G) and smoothness (L) bounds."""

    G: float
    L: float
    B: float
    note: str

    def to_json_dict(self) -> dict:
        return {"G": self.G, "L": self.L, "B": self.B, "note": self.note}


_BOUNDS_NOTE = (
    "B = 2*k*n*m^2 + k*m*sum_i|M_i| from |H_q| <= 2m||x^q-y^q||_1 <= 2n m^2; "
    "G = (2m+1) + 2*(max|M_i| + Dcap) bounds every gradient coordinate, with "
    "Dcap = max_q (9*#nor_inputs(q) + 27*#purify_inputs(q)) * 2n m^2 from the "
    "gate-derivative suprema 6, 9, 3/2; L = k*(2n m^2*(7488 n m + 72) + "
    "2*36*sqrt(2nm)*(2m+1)*sqrt(2nm) + 4m) + 4*max|M_i| + G over-counts the "
    "Hessian norm term by term and folds in G so grid-snap arguments hold."
)


@dataclass(frozen=True)
class GateTables:
    """The circuit compiled to index arrays, once per instance.

    ``nor`` and ``purify`` are (3, #gates) arrays whose rows are the u, v
    and w columns of each gate kind, in the circuit's gate order.

    ``producers`` holds one (vertices, columns) pair per gate-output
    table, in the order NOR output, PURIFY plus output, PURIFY minus
    output: vertex ``vertices[k]`` reads its gate value from column
    ``columns[k]`` of that table. A vertex with several producers keeps
    the last one in gate order (NOR gates, then PURIFY gates with the
    plus output before the minus output); one with none is not listed
    and reads 0.

    The noise contributions form a (B, 2 #nor + #purify) table: NOR
    feedback to u, then to v, then PURIFY feedback to u. ``noise_passes``
    scatters it as (vertices, columns) pairs with distinct vertices per
    pass; pass k adds each vertex's k-th contribution in gate order, so
    every vertex sums its terms in the order of a gate-by-gate loop.
    """

    nor: np.ndarray
    purify: np.ndarray
    producers: tuple[tuple[np.ndarray, np.ndarray], ...]
    noise_passes: tuple[tuple[np.ndarray, np.ndarray], ...]


def _index_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    rows = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return rows[:, 0].copy(), rows[:, 1].copy()


def _compile_gates(pc: PureCircuitInstance) -> GateTables:
    """Index tables for one-call-per-gate-kind evaluation of ``pc``."""
    for node in (x for g in pc.nor_gates + pc.purify_gates for x in g):
        if not 0 <= node < pc.kappa:
            raise ValidationError([f"gate vertex {node} outside [0, {pc.kappa})"])
    nor = np.array(pc.nor_gates, dtype=np.intp).reshape(-1, 3).T.copy()
    purify = np.array(pc.purify_gates, dtype=np.intp).reshape(-1, 3).T.copy()

    last: dict[int, tuple[int, int]] = {}  # vertex -> (output table, column)
    for col, (_u, _v, w) in enumerate(pc.nor_gates):
        last[w] = (0, col)
    for col, (_u, v, w) in enumerate(pc.purify_gates):
        last[v] = (1, col)
        last[w] = (2, col)
    producers = tuple(
        _index_pairs([(q, col) for q, (t, col) in last.items() if t == table])
        for table in range(3)
    )

    n_nor = len(pc.nor_gates)
    contributions = []  # (target vertex, column) in gate-loop order
    for col, (u, v, _w) in enumerate(pc.nor_gates):
        contributions += [(u, col), (v, n_nor + col)]
    for col, (u, _v, _w) in enumerate(pc.purify_gates):
        contributions.append((u, 2 * n_nor + col))
    passes: list[list[tuple[int, int]]] = []
    seen: Counter[int] = Counter()
    for target, col in contributions:
        if seen[target] == len(passes):
            passes.append([])
        passes[seen[target]].append((target, col))
        seen[target] += 1
    return GateTables(nor=nor, purify=purify, producers=producers,
                      noise_passes=tuple(_index_pairs(p) for p in passes))


@dataclass
class GdaInstance:
    pc: PureCircuitInstance
    vi: LinVIInstance
    params: GdaParams
    kappa: int
    n: int
    m: int
    d: int
    M: np.ndarray
    bounds: Bounds
    gates: GateTables

    @property
    def epsilon(self) -> float:
        return float(self.params.epsilon)

    @property
    def delta(self) -> float:
        return float(self.params.delta)

    def index(self, q: int, i: int, j: int) -> int:
        """Flat position of copy i (1-based) of coordinate j at vertex q."""
        if not (0 <= q < self.kappa and 1 <= i <= self.n and 0 <= j < self.m):
            raise ValueError(f"index ({q}, {i}, {j}) out of range")
        return (q * self.n + (i - 1)) * self.m + j

    def unindex(self, flat: int) -> tuple[int, int, int]:
        if not (0 <= flat < self.d):
            raise ValueError(f"flat index {flat} out of range")
        q, rest = divmod(flat, self.n * self.m)
        i, j = divmod(rest, self.m)
        return q, i + 1, j

    def premises(self) -> dict[str, bool]:
        p = self.params
        return parameter_premises(p.n, p.epsilon, p.delta, self.m, self.kappa,
                                  Fraction(self.vi.rho) if p.mode == "paper" else self.vi.rho)

    def to_json_dict(self) -> dict:
        return {
            "pc": self.pc.to_json_dict(),
            "vi": self.vi.to_json_dict(),
            "params": self.params.to_json_dict(),
            "d": self.d,
            "bounds": self.bounds.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GdaInstance":
        return build_instance(
            PureCircuitInstance.from_json_dict(d["pc"]),
            LinVIInstance.from_json_dict(d["vi"]),
            GdaParams.from_json_dict(d["params"]),
        )


def _conservative_bounds(pc: PureCircuitInstance, kappa: int, n: int, m: int,
                         M: np.ndarray) -> Bounds:
    mmax = float(np.abs(M).max())
    h_max = 2.0 * n * m**2
    slots = np.zeros(kappa)
    for u, v, _w in pc.nor_gates:
        slots[u] += 9.0
        slots[v] += 9.0
    for u, _v, _w in pc.purify_gates:
        slots[u] += 27.0
    d_cap = float(slots.max()) * h_max if kappa else 0.0
    G = (2.0 * m + 1.0) + 2.0 * (mmax + d_cap)
    root = np.sqrt(2.0 * n * m)
    L = kappa * (h_max * (7488.0 * n * m + 72.0)
                 + 2.0 * (36.0 * root) * ((2.0 * m + 1.0) * root)
                 + 4.0 * m) + 4.0 * mmax + G
    B = 2.0 * kappa * n * m**2 + kappa * m * float(np.abs(M).sum())
    return Bounds(G=G, L=L, B=B, note=_BOUNDS_NOTE)


def build_instance(pc: PureCircuitInstance, vi: LinVIInstance, params: GdaParams,
                   validate: bool = True) -> GdaInstance:
    """Materialize the compiled instance; refuses dimensions beyond ``DIM_CAP``.

    ``validate=False`` admits structurally incomplete circuits (vertices
    without a producing gate get a gate value of 0); unit tests use this
    for single-gate landscapes.
    """
    if validate:
        problems = validate_instance(pc)
        if problems:
            raise ValidationError(problems)
    kappa, m = pc.kappa, vi.m
    d_exact = kappa * params.n * m
    if not params.materializable or d_exact > DIM_CAP:
        raise CapExceededError(
            f"instance dimension kappa*n*m = {kappa}*{params.n}*{m} exceeds cap {DIM_CAP}"
        )
    n = int(params.n)
    M = float(params.delta) * (np.arange(1, n + 1, dtype=float) - n / 2.0)
    return GdaInstance(
        pc=pc, vi=vi, params=params, kappa=kappa, n=n, m=m, d=kappa * n * m,
        M=M, bounds=_conservative_bounds(pc, kappa, n, m, M), gates=_compile_gates(pc),
    )


@dataclass(frozen=True)
class JointPoint:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape:
            raise ValueError("x and y must be equal-length vectors")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("coordinates must be finite")
        if min(x.min(), y.min()) < 0.0 or max(x.max(), y.max()) > 1.0:
            raise ValueError("point must lie in the unit box")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def to_json_dict(self) -> dict:
        return {"x": self.x.tolist(), "y": self.y.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "JointPoint":
        return cls(np.array(d["x"], dtype=float), np.array(d["y"], dtype=float))


@dataclass(frozen=True)
class NodeDiagnostics:
    """Per-vertex view of the landscape at one point."""

    gate_value: np.ndarray   # s_q, the smooth output of q's producing gate
    noise: np.ndarray        # gradient feedback on q from gates consuming q
    link: np.ndarray         # H_q coupling value
    dist_sq: np.ndarray      # ||x^q - y^q||^2
    dist_l1: np.ndarray      # ||x^q - y^q||_1
    bit: np.ndarray          # distance_threshold of dist_sq

    def to_json_dict(self) -> dict:
        return {
            "gate_value": self.gate_value.tolist(),
            "noise": self.noise.tolist(),
            "link": self.link.tolist(),
            "dist_sq": self.dist_sq.tolist(),
            "dist_l1": self.dist_l1.tolist(),
            "bit": self.bit.tolist(),
        }


def _check_point(inst: GdaInstance, p: JointPoint):
    if p.x.shape != (inst.d,):
        raise ValueError(f"point has dimension {p.x.shape[0]}, instance needs {inst.d}")


def _batch_parts(inst: GdaInstance, X: np.ndarray, Y: np.ndarray):
    """Distances, logical levels and link values for a (B, d) batch."""
    B = X.shape[0]
    shape = (B, inst.kappa, inst.n, inst.m)
    Xr, Yr = X.reshape(shape), Y.reshape(shape)
    diff = Xr - Yr
    dist_sq = np.einsum("bqnm,bqnm->bq", diff, diff)
    lam = distance_threshold(dist_sq, inst.m)
    dx_c = Xr @ inst.vi.D.T + inst.vi.c
    H = np.einsum("bqnm,bqnm->bq", dx_c, -diff)
    return Xr, Yr, diff, dist_sq, lam, dx_c, H


def _gate_outputs(inst: GdaInstance, lam):
    """NOR output, PURIFY plus output and PURIFY minus output of every gate, batched."""
    (nu, nv, _), (pu, _, _) = inst.gates.nor, inst.gates.purify
    b = lam[:, pu]
    return nor_gate(lam[:, nu] + lam[:, nv]), purify_gate(b + 0.25), purify_gate(b - 0.25)


def _noise_terms(inst: GdaInstance, dist_sq, lam, H):
    """The (B, 2 #nor + #purify) noise-contribution table of ``GateTables``.

    Products are formed in place, left to right as in the per-gate
    formulas, so that a (65536, d) batch needs no larger temporaries than
    the gradient assembly that follows.
    """
    (nu, nv, nw), (pu, pv, pw) = inst.gates.nor, inst.gates.purify
    n_nor = nu.size
    lam_p = distance_threshold_prime(dist_sq, inst.m)
    terms = np.empty((lam.shape[0], 2 * n_nor + pu.size))
    b = lam[:, pu]
    to_pu = terms[:, 2 * n_nor:]
    np.multiply(purify_gate_prime(b + 0.25), H[:, pv], out=to_pu)
    to_pu += purify_gate_prime(b - 0.25) * H[:, pw]
    to_pu *= lam_p[:, pu]
    gp = nor_gate_prime(lam[:, nu] + lam[:, nv])
    Hw = H[:, nw]
    for col, inputs in ((0, nu), (n_nor, nv)):
        to_in = terms[:, col:col + n_nor]
        np.multiply(gp, lam_p[:, inputs], out=to_in)
        to_in *= Hw
    return terms


def _node_aggregates(inst: GdaInstance, dist_sq, lam, H):
    """Gate values s_q and noise feedback for every vertex, batched."""
    tables = inst.gates
    B = lam.shape[0]
    s = np.zeros((B, inst.kappa))
    for out, (vertices, columns) in zip(_gate_outputs(inst, lam), tables.producers):
        s[:, vertices] = out[:, columns]
    terms = _noise_terms(inst, dist_sq, lam, H)
    noise = np.zeros((B, inst.kappa))
    for vertices, columns in tables.noise_passes:
        noise[:, vertices] += terms[:, columns]
    return s, noise


def _f_many(inst: GdaInstance, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    _, _, diff, _, lam, _, H = _batch_parts(inst, X, Y)
    (_, _, nw), (_, pv, pw) = inst.gates.nor, inst.gates.purify
    nor_out, plus, minus = _gate_outputs(inst, lam)
    n_nor = nor_out.shape[1]
    # One column per gate term in gate order, after a leading 0.0: the
    # running sum along a row then adds the terms exactly as a loop would.
    terms = np.zeros((X.shape[0], 1 + n_nor + 2 * plus.shape[1]))
    terms[:, 1:1 + n_nor] = nor_out * H[:, nw]
    terms[:, 1 + n_nor::2] = plus * H[:, pv]
    terms[:, 2 + n_nor::2] = minus * H[:, pw]
    total = np.add.accumulate(terms, axis=1)[:, -1]
    total += np.einsum("n,bqn->b", inst.M, (diff**2).sum(axis=3))
    return total


def _grad_many(inst: GdaInstance, X: np.ndarray, Y: np.ndarray):
    Xr, Yr, diff, dist_sq, lam, dx_c, H = _batch_parts(inst, X, Y)
    s, noise = _node_aggregates(inst, dist_sq, lam, H)
    dt_yx = -diff @ inst.vi.D
    coef = 2.0 * (inst.M[None, None, :, None] + noise[:, :, None, None])
    s4 = s[:, :, None, None]
    B = X.shape[0]
    GX = (s4 * (dt_yx - dx_c) + coef * diff).reshape(B, inst.d)
    GY = (s4 * dx_c - coef * diff).reshape(B, inst.d)
    return GX, GY


def eval_f(inst: GdaInstance, p: JointPoint) -> float:
    """Objective value: NOR term + PURIFY term + weighted regularizer."""
    _check_point(inst, p)
    return float(_f_many(inst, p.x[None, :], p.y[None, :])[0])


def eval_grad(inst: GdaInstance, p: JointPoint) -> tuple[np.ndarray, np.ndarray]:
    """Gradient via per-vertex aggregates: for vertex q, copy i, coordinate j,

    gx = s_q * [(D^T (y_i^q - x_i^q))_j - (D x_i^q + c)_j] + 2 (M_i + noise_q) (x - y)
    gy = s_q * (D x_i^q + c)_j - 2 (M_i + noise_q) (x - y)
    """
    _check_point(inst, p)
    GX, GY = _grad_many(inst, p.x[None, :], p.y[None, :])
    return GX[0], GY[0]


def eval_grad_direct(inst: GdaInstance, p: JointPoint) -> tuple[np.ndarray, np.ndarray]:
    """Gradient by expanded chain rule, accumulated gate by gate.

    Independent of :func:`eval_grad`: no per-vertex gate values or noise
    aggregates are formed, every gate writes its own contribution to the
    blocks of its inputs and outputs.
    """
    _check_point(inst, p)
    kappa, n, m = inst.kappa, inst.n, inst.m
    x = p.x.reshape(kappa, n, m)
    y = p.y.reshape(kappa, n, m)
    diff = x - y
    dist_sq = np.einsum("qnm,qnm->q", diff, diff)
    lam = distance_threshold(dist_sq, m)
    lam_p = distance_threshold_prime(dist_sq, m)
    dx_c = x @ inst.vi.D.T + inst.vi.c
    dt_yx = -diff @ inst.vi.D
    H = np.einsum("qnm,qnm->q", dx_c, -diff)

    gx = 2.0 * inst.M[None, :, None] * diff
    gy = -2.0 * inst.M[None, :, None] * diff
    for u, v, w in inst.pc.nor_gates:
        a = lam[u] + lam[v]
        gval = nor_gate(a)
        gx[w] += gval * (dt_yx[w] - dx_c[w])
        gy[w] += gval * dx_c[w]
        gp = nor_gate_prime(a)
        for node in (u, v):
            chain = 2.0 * gp * lam_p[node] * H[w]
            gx[node] += chain * diff[node]
            gy[node] -= chain * diff[node]
    for u, v, w in inst.pc.purify_gates:
        hi = purify_gate(lam[u] + 0.25)
        lo = purify_gate(lam[u] - 0.25)
        gx[v] += hi * (dt_yx[v] - dx_c[v])
        gy[v] += hi * dx_c[v]
        gx[w] += lo * (dt_yx[w] - dx_c[w])
        gy[w] += lo * dx_c[w]
        chain = 2.0 * (purify_gate_prime(lam[u] + 0.25) * H[v]
                       + purify_gate_prime(lam[u] - 0.25) * H[w]) * lam_p[u]
        gx[u] += chain * diff[u]
        gy[u] -= chain * diff[u]
    return gx.reshape(inst.d), gy.reshape(inst.d)


# finite_diff_grad perturbs this many matrix elements at a time at most.
FD_CHUNK_ELEMS = 1 << 20


def finite_diff_grad(inst: GdaInstance, p: JointPoint, h: float = 1e-6):
    """Central-difference gradient of the objective, as an independent oracle.

    The 2k perturbed copies of the k = 2d joint coordinates are evaluated
    in chunks of at most ``FD_CHUNK_ELEMS`` elements, so memory stays
    O(chunk) rather than O(d^2).
    """
    _check_point(inst, p)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step must be finite and positive, got {h!r}")
    base = np.concatenate([p.x, p.y])
    k = base.size
    g = np.empty(k)
    per_chunk = max(1, FD_CHUNK_ELEMS // (2 * k))  # coordinates per chunk
    for start in range(0, k, per_chunk):
        idx = np.arange(start, min(start + per_chunk, k))
        rows = np.arange(idx.size)
        P = np.repeat(base[None, :], 2 * idx.size, axis=0)
        P[2 * rows, idx] += h
        P[2 * rows + 1, idx] -= h
        vals = _f_many(inst, P[:, : inst.d], P[:, inst.d:])
        g[idx] = (vals[0::2] - vals[1::2]) / (2.0 * h)
    return g[: inst.d], g[inst.d:]


def diagnostics(inst: GdaInstance, p: JointPoint) -> NodeDiagnostics:
    """Per-vertex gate value, noise, link and distance summary.

    The same forward pass as the gradient at batch size 1. A vertex
    without a producing gate reads a gate value of 0.
    """
    _check_point(inst, p)
    _, _, diff, dist_sq, lam, _, H = _batch_parts(inst, p.x[None, :], p.y[None, :])
    s, noise = _node_aggregates(inst, dist_sq, lam, H)
    return NodeDiagnostics(gate_value=s[0], noise=noise[0], link=H[0],
                           dist_sq=dist_sq[0], dist_l1=np.abs(diff[0]).sum(axis=(1, 2)),
                           bit=lam[0])
