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

``build_instance`` compiles the circuit once into a gather plan
(:class:`GateTables`). The objective, the gradient and ``diagnostics``
share one forward path: ``_batch_parts`` computes distances and links
for a (B, d) batch, and the levels and gate terms are then evaluated
over whole (B, #gates) tables with three gate calls in all: the distance
threshold, NOR, and PURIFY on its +1/4 and -1/4 arguments at once. The
gradient takes value and slope from each call, the objective the value.
Sums run in gate order, so results equal those of a gate-by-gate loop
bit for bit.

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
from .pure_circuit import PureCircuitInstance, json_int, validate_instance

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
    """The circuit compiled to a gather plan, once per instance.

    Gate arguments: ``nor_uv`` lists the NOR inputs u, then v, so the
    NOR arguments are ``lam[:, nor_uv]`` with its two halves added;
    ``purify_uu`` lists the PURIFY inputs twice, and adding
    ``purify_shift`` (+1/4 for the first copy, -1/4 for the second)
    gives the arguments of the plus and the minus outputs in one table.

    ``links`` gathers the link value of each gate term: NOR output w, then
    PURIFY output v, then PURIFY output w.

    ``producer[q]`` is the column of vertex q's gate value in the
    (B, #nor + 2 #purify + 1) table [NOR | PURIFY plus | PURIFY minus | 0].
    A vertex with several producers keeps the last one in gate order (NOR
    gates, then PURIFY gates with the plus output before the minus
    output); one with none reads the trailing 0 column.

    The noise contributions form a (B, 2 #nor + #purify + 1) table: NOR
    feedback to u, then to v, then PURIFY feedback to u, then a 0 column.
    Pass k adds each vertex's k-th contribution in gate order, so adding
    the passes to a +0.0 accumulator sums every vertex's terms in the
    order of a gate-by-gate loop. ``noise_first`` gives every vertex one
    column (the 0 column for a vertex with no contribution); each later
    pass is a (vertices, columns) pair that lists only the vertices with
    a k-th contribution, so the plan holds one entry per noise term plus
    kappa, however many gates one vertex feeds.
    """

    nor_uv: np.ndarray
    purify_uu: np.ndarray
    purify_shift: np.ndarray
    links: np.ndarray
    producer: np.ndarray
    noise_first: np.ndarray
    noise_passes: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def n_nor(self) -> int:
        return self.nor_uv.size // 2

    @property
    def n_purify(self) -> int:
        return self.purify_uu.size // 2


def _index_pairs(pairs) -> tuple[np.ndarray, np.ndarray]:
    rows = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    return rows[:, 0].copy(), rows[:, 1].copy()


def _compile_gates(pc: PureCircuitInstance) -> GateTables:
    """The gather plan for three-gate-call evaluation of ``pc``."""
    for node in (x for g in pc.nor_gates + pc.purify_gates for x in g):
        if not 0 <= node < pc.kappa:
            raise ValidationError([f"gate vertex {node} outside [0, {pc.kappa})"])
    nor = np.array(pc.nor_gates, dtype=np.intp).reshape(-1, 3).T
    purify = np.array(pc.purify_gates, dtype=np.intp).reshape(-1, 3).T
    n_nor, n_purify = nor.shape[1], purify.shape[1]

    n_values = n_nor + 2 * n_purify  # the 0 column of the value table
    producer = np.full(pc.kappa, n_values, dtype=np.intp)
    for col, (_u, _v, w) in enumerate(pc.nor_gates):
        producer[w] = col
    for col, (_u, v, w) in enumerate(pc.purify_gates):
        producer[v] = n_nor + col
        producer[w] = n_nor + n_purify + col

    n_terms = 2 * n_nor + n_purify  # the 0 column of the noise table
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
    first = np.full(pc.kappa, n_terms, dtype=np.intp)
    if passes:
        vertices, columns = _index_pairs(passes[0])
        first[vertices] = columns
    return GateTables(
        nor_uv=np.concatenate((nor[0], nor[1])),
        purify_uu=np.concatenate((purify[0], purify[0])),
        purify_shift=np.repeat([0.25, -0.25], n_purify),
        links=np.concatenate((nor[2], purify[1], purify[2])),
        producer=producer, noise_first=first,
        noise_passes=tuple(_index_pairs(p) for p in passes[1:]))


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
        p = self.params  # exact, so no power of delta can overflow or vanish
        return parameter_premises(*map(Fraction, (p.n, p.epsilon, p.delta)), self.m,
                                  self.kappa, Fraction(self.vi.rho))

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
        inst = build_instance(
            PureCircuitInstance.from_json_dict(d["pc"]),
            LinVIInstance.from_json_dict(d["vi"]),
            GdaParams.from_json_dict(d["params"]),
        )
        stored = json_int(d["d"], "d")
        if stored != inst.d:
            raise ValidationError([f"stored d = {stored} differs from kappa*n*m = {inst.d}"])
        if d["bounds"] != inst.bounds.to_json_dict():
            raise ValidationError(["stored bounds differ from the ones recomputed "
                                   "from pc, vi and params"])
        return inst


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
    with np.errstate(over="ignore"):  # an overflow is refused below
        M = float(params.delta) * (np.arange(1, n + 1, dtype=float) - n / 2.0)
        bounds = _conservative_bounds(pc, kappa, n, m, M)
    if not all(math.isfinite(b) for b in (bounds.G, bounds.L, bounds.B)):  # G >= 2 max|M_i|
        raise ValidationError([f"delta = {params.delta} overflows the regularizer "
                               "weights M_i or the bounds G, L, B"])
    return GdaInstance(
        pc=pc, vi=vi, params=params, kappa=kappa, n=n, m=m, d=kappa * n * m,
        M=M, bounds=bounds, gates=_compile_gates(pc),
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
    """Differences, squared distances, D x + c and link values for a (B, d) batch."""
    B = X.shape[0]
    shape = (B, inst.kappa, inst.n, inst.m)
    Xr, Yr = X.reshape(shape), Y.reshape(shape)
    diff = Xr - Yr
    dist_sq = np.einsum("bqnm,bqnm->bq", diff, diff)
    dx_c = Xr @ inst.vi.D.T + inst.vi.c
    H = np.einsum("bqnm,bqnm->bq", dx_c, -diff)
    return diff, dist_sq, dx_c, H


def _gate_args(tables: GateTables, lam):
    """Arguments of the NOR gates and of the PURIFY [plus | minus] outputs, batched."""
    uv = lam[:, tables.nor_uv]
    n_nor = tables.n_nor
    return uv[:, :n_nor] + uv[:, n_nor:], lam[:, tables.purify_uu] + tables.purify_shift


def _node_aggregates(inst: GdaInstance, lam, lam_p, H):
    """Gate values s_q and noise feedback for every vertex, batched.

    One value-and-slope call per gate kind. Each table is dropped as soon
    as the next is formed, so that a (65536, d) batch needs no larger
    temporaries than the gradient assembly that follows. Products are
    taken left to right as in the per-gate formulas.
    """
    tables = inst.gates
    n_nor, n_purify = tables.n_nor, tables.n_purify
    B = lam.shape[0]
    nor_args, purify_args = _gate_args(tables, lam)
    nor_val, nor_slope = nor_gate(nor_args, slope=True)
    purify_val, purify_slope = purify_gate(purify_args, slope=True)
    del nor_args, purify_args
    zero = np.zeros((B, 1))
    s = np.concatenate((nor_val, purify_val, zero), axis=1)[:, tables.producer]
    del nor_val, purify_val

    links = H[:, tables.links]
    to_nor = lam_p[:, tables.nor_uv].reshape(B, 2, n_nor)  # to u, then to v
    to_nor *= nor_slope[:, None, :]
    to_nor *= links[:, None, :n_nor]
    purify_slope *= links[:, n_nor:]
    to_pu = purify_slope[:, :n_purify] + purify_slope[:, n_purify:]
    to_pu *= lam_p[:, tables.purify_uu[:n_purify]]
    del links, nor_slope, purify_slope
    terms = np.concatenate((to_nor.reshape(B, 2 * n_nor), to_pu, zero), axis=1)
    del to_nor, to_pu

    noise = np.zeros((B, inst.kappa))
    noise += terms[:, tables.noise_first]
    for vertices, columns in tables.noise_passes:
        noise[:, vertices] += terms[:, columns]
    return s, noise


def _f_many(inst: GdaInstance, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    diff, dist_sq, dx_c, H = _batch_parts(inst, X, Y)
    del dx_c  # unused here; freeing it lowers finite_diff_grad's peak memory
    lam = distance_threshold(dist_sq, inst.m)
    del dist_sq
    tables = inst.gates
    n_nor, n_purify = tables.n_nor, tables.n_purify
    nor_args, purify_args = _gate_args(tables, lam)
    nor_val, purify_val = nor_gate(nor_args), purify_gate(purify_args)
    links = H[:, tables.links]
    # One column per gate term in gate order, after a leading 0.0: the
    # running sum along a row then adds the terms exactly as a loop would.
    terms = np.zeros((X.shape[0], 1 + n_nor + 2 * n_purify))
    np.multiply(nor_val, links[:, :n_nor], out=terms[:, 1:1 + n_nor])
    np.multiply(purify_val[:, :n_purify], links[:, n_nor:n_nor + n_purify],
                out=terms[:, 1 + n_nor::2])
    np.multiply(purify_val[:, n_purify:], links[:, n_nor + n_purify:],
                out=terms[:, 2 + n_nor::2])
    total = np.add.accumulate(terms, axis=1)[:, -1]
    total += np.einsum("n,bqn->b", inst.M, (diff**2).sum(axis=3))
    return total


def _grad_many(inst: GdaInstance, X: np.ndarray, Y: np.ndarray):
    diff, dist_sq, dx_c, H = _batch_parts(inst, X, Y)
    lam, lam_p = distance_threshold(dist_sq, inst.m, slope=True)
    del dist_sq  # freeing each (B, kappa) table early lowers a grid chunk's peak memory
    s, noise = _node_aggregates(inst, lam, lam_p, H)
    del lam, lam_p, H
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
    diff, dist_sq, _, H = _batch_parts(inst, p.x[None, :], p.y[None, :])
    lam, lam_p = distance_threshold(dist_sq, inst.m, slope=True)
    s, noise = _node_aggregates(inst, lam, lam_p, H)
    return NodeDiagnostics(gate_value=s[0], noise=noise[0], link=H[0],
                           dist_sq=dist_sq[0], dist_l1=np.abs(diff[0]).sum(axis=(1, 2)),
                           bit=lam[0])
