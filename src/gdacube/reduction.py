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
(:class:`GateTables`). The objective and the gradient share one forward
path: ``_block_parts`` computes distances and links for a stack of vertex
blocks (``_batch_parts`` for all kappa blocks of a (B, d) batch), and the
levels and gate terms are then evaluated over whole tables with three
gate calls in all: the distance threshold, NOR, and PURIFY on its +1/4 and
-1/4 arguments at once. The gradient (``_grad_many``) takes value and
slope from each call and also returns its per-vertex tables, so
``eval_grad``, ``diagnostics`` and ``solver.check_stationary`` are views
of one pass; the objective (``_objective``) takes the levels and the value
of the other two calls.

Every per-vertex and per-gate table of that path is vertex-major, a
(rows, B) array with one row per vertex or gate term, so each lookup in
the plan is one ``take(idx, axis=0)`` row gather and each block of gate
terms a contiguous run of rows. Only the (B, d) coordinate arrays stay
batch-major. Sums run in gate order, the noise feedback and the
objective's gate terms each as one ordered ``np.bincount`` scatter-add
from +0.0, so results equal those of a gate-by-gate loop bit for bit.

``eval_grad_direct`` is an independent second route to the gradient: it
accumulates the expanded chain rule gate by gate, without the tables. Tests
and the CLI grad-check hold both routes to central finite differences of
the objective (``finite_diff_grad``), which re-evaluate and re-threshold
only the perturbed vertex block of each moved point and reuse
``_objective`` for the rest, in cache-sized chunks: the objective's
forward path, but no gradient formula.
"""

from __future__ import annotations

import math
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
from .lin_vi import LinVIInstance, json_real, json_reals
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
    large/small to materialize, so ``build_instance`` refuses them);
    ``custom`` mode holds desk-scale real numbers, never bools or strings.
    """

    n: Number
    epsilon: Number
    delta: Number
    mode: str = "custom"

    def __post_init__(self):
        if self.mode not in ("paper", "custom"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "custom":
            for k in ("n", "epsilon", "delta"):
                json_real(getattr(self, k), k)  # not a bool or string, and fits a float
            n = self.n
            if not (math.isfinite(n) and n == int(n)):
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
        return {**num, "mode": self.mode}

    @classmethod
    def from_json_dict(cls, d: dict) -> "GdaParams":
        """Reads the dict written by ``to_json_dict``; other keys are ignored."""
        if d["mode"] == "paper":
            nums = {k: Fraction(d[k]) for k in ("n", "epsilon", "delta")}
        else:
            nums = {k: d[k] for k in ("n", "epsilon", "delta")}
        return cls(mode=d["mode"], **nums)


def paper_params(m: int, kappa: int, rho: Number) -> GdaParams:
    """Exact-rational parameters for the hardness-scale construction.

    n = 2^64 m^14 kappa^2 / rho^8, epsilon = rho^18 / (2^140 m^28 kappa^4),
    delta = rho^2 / (2^10 m^2). These are astronomically large by design,
    so ``build_instance`` refuses every paper-mode record.
    """
    if m < 1 or kappa < 1:
        raise ValueError("need m >= 1 and kappa >= 1")
    rho = Fraction(rho)
    if not (0 < rho <= 1):
        raise ValueError("rho must lie in (0, 1]")
    n = Fraction(2**64 * m**14 * kappa**2) / rho**8
    epsilon = rho**18 / Fraction(2**140 * m**28 * kappa**4)
    delta = rho**2 / Fraction(2**10 * m**2)
    return GdaParams(n=n, epsilon=epsilon, delta=delta, mode="paper")


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

    Every index below selects rows of a vertex-major (rows, B) table, and
    both gate-term tables run in gate-loop order.

    Gate values: one row per NOR gate, then two per PURIFY gate, its plus
    output before its minus output. ``links`` lists the output vertex of
    each value row, so it both gathers the link value of each gate term
    and scatters the gate values into the per-vertex table ``s``; a vertex
    is the output of at most one gate, and one with none reads 0. The
    arguments come from ``nor_uv``, each NOR gate's inputs u and v, whose
    rows are added in pairs, and from ``purify_uu``, each PURIFY input
    twice, plus ``purify_shift`` (+1/4, then -1/4).

    Noise terms: one row per NOR gate to u and to v, then one per PURIFY
    gate to u. ``noise_targets`` lists the vertex of each row, and one
    scatter-add over it sums every vertex's terms in gate-loop order.
    """

    nor_uv: np.ndarray
    purify_uu: np.ndarray
    purify_shift: np.ndarray
    links: np.ndarray
    noise_targets: np.ndarray

    @property
    def n_nor(self) -> int:
        return self.nor_uv.size // 2


def _compile_gates(pc: PureCircuitInstance) -> GateTables:
    """The gather plan for three-gate-call evaluation of ``pc``.

    Refuses a gate vertex outside the circuit and a vertex that is the
    output of more than one gate, whether or not the circuit was validated.
    """
    for node in (x for g in pc.nor_gates + pc.purify_gates for x in g):
        if not 0 <= node < pc.kappa:
            raise ValidationError([f"gate vertex {node} outside [0, {pc.kappa})"])
    nor = np.array(pc.nor_gates, dtype=np.intp).reshape(-1, 3)
    purify = np.array(pc.purify_gates, dtype=np.intp).reshape(-1, 3)
    links = np.concatenate((nor[:, 2], purify[:, 1:].ravel()))
    producers = np.bincount(links, minlength=pc.kappa)
    if (producers > 1).any():
        raise ValidationError([f"vertex {q} is the output of {producers[q]} gates (at most 1)"
                               for q in np.flatnonzero(producers > 1)])

    nor_uv = nor[:, :2].ravel()
    return GateTables(
        nor_uv=nor_uv, purify_uu=np.repeat(purify[:, 0], 2),
        purify_shift=np.tile([0.25, -0.25], len(purify)), links=links,
        noise_targets=np.concatenate((nor_uv, purify[:, 0])))


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
    """Materialize the compiled instance.

    Refuses paper-mode parameters and dimensions beyond ``DIM_CAP``
    (``CapExceededError``) before any per-vertex work, circuit checks
    included. ``validate=False`` skips the circuit checks of
    ``validate_instance`` but not those of the gate plan: it admits
    vertices without a producing gate (their gate value is 0) and gates
    whose vertices repeat, while a gate vertex outside the circuit or a
    vertex that is the output of two gates still raises
    ``ValidationError``. Unit tests use it for single-gate landscapes.
    """
    kappa, m = pc.kappa, vi.m
    if params.mode == "paper":
        raise CapExceededError(f"paper-mode parameters are never materialized: "
                               f"kappa*n*m = {kappa}*{params.n}*{m}")
    if kappa * params.n * m > DIM_CAP:
        raise CapExceededError(
            f"instance dimension kappa*n*m = {kappa}*{params.n}*{m} exceeds cap {DIM_CAP}"
        )
    if validate:
        problems = validate_instance(pc)
        if problems:
            raise ValidationError(problems)
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
        return cls(json_reals(d["x"], "x"), json_reals(d["y"], "y"))


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


def _blocks_times(A: np.ndarray, M: np.ndarray) -> np.ndarray:
    """``A @ M`` for a (B, kappa, n, m) stack of copy blocks, as one 2-D product.

    One matrix product over all B * kappa * n rows replaces B * kappa
    tiny stacked ones and gives the same bits, except for one-row blocks
    (n = 1) with m >= 2, which numpy multiplies as vector-matrix products
    rounded another way; those keep the stacked product.
    """
    n, m = A.shape[-2:]
    if n == 1 and m > 1:
        return A @ M
    return (A.reshape(-1, m) @ M).reshape(A.shape)


def _block_parts(inst: GdaInstance, Xb: np.ndarray, Yb: np.ndarray):
    """Differences and D x + c for a (B, K, n, m) stack of K vertex blocks
    per row; squared distances and link values as (K, B) tables."""
    diff = Xb - Yb
    dist_sq = np.einsum("bqnm,bqnm->qb", diff, diff)
    dx_c = _blocks_times(Xb, inst.vi.D.T)
    dx_c += inst.vi.c
    H = np.einsum("bqnm,bqnm->qb", dx_c, -diff)
    return diff, dist_sq, dx_c, H


def _batch_parts(inst: GdaInstance, X: np.ndarray, Y: np.ndarray):
    """``_block_parts`` of a (B, d) batch: the kappa vertex blocks of every row."""
    shape = (X.shape[0], inst.kappa, inst.n, inst.m)
    return _block_parts(inst, X.reshape(shape), Y.reshape(shape))


def _gate_args(tables: GateTables, lam):
    """Arguments of the NOR gates and of the PURIFY (plus, minus) outputs, as row tables."""
    uv = lam.take(tables.nor_uv, axis=0)
    return uv[0::2] + uv[1::2], lam.take(tables.purify_uu, axis=0) + tables.purify_shift[:, None]


def _node_aggregates(inst: GdaInstance, lam, lam_p, H):
    """Gate values s_q and noise feedback for every vertex, as (kappa, B) tables.

    Takes the vertex-major (kappa, B) levels, level slopes and links. One
    value-and-slope call per gate kind, on (gates, B) row tables. Each
    table is dropped as soon as the next is formed, so that a (65536, d)
    batch needs no larger temporaries than the gradient assembly that
    follows. Products are taken left to right as in the per-gate formulas.
    """
    tables = inst.gates
    n_nor = tables.n_nor
    B = lam.shape[1]
    nor_args, purify_args = _gate_args(tables, lam)
    nor_val, nor_slope = nor_gate(nor_args, slope=True)
    purify_val, purify_slope = purify_gate(purify_args, slope=True)
    del nor_args, purify_args
    s = np.zeros((inst.kappa, B))
    s[tables.links] = np.concatenate((nor_val, purify_val))
    del nor_val, purify_val

    links = H.take(tables.links, axis=0)
    to_nor = lam_p.take(tables.nor_uv, axis=0).reshape(n_nor, 2, B)  # each gate to u, then to v
    to_nor *= nor_slope[:, None]
    to_nor *= links[:n_nor, None]
    purify_slope *= links[n_nor:]
    to_pu = purify_slope[0::2] + purify_slope[1::2]
    to_pu *= lam_p.take(tables.purify_uu[0::2], axis=0)
    del links, nor_slope, purify_slope
    terms = np.concatenate((to_nor.reshape(2 * n_nor, B), to_pu))
    del to_nor, to_pu

    # bincount starts every (vertex, column) cell at +0.0 and adds its
    # weights in input order, so each vertex's terms are summed in gate
    # order and a lone -0.0 term reads +0.0. Without gates it returns ints.
    cells = (tables.noise_targets[:, None] * B + np.arange(B)).ravel()
    noise = np.bincount(cells, terms.ravel(), minlength=inst.kappa * B)
    return s, noise.astype(float, copy=False).reshape(inst.kappa, B)


def _objective(inst: GdaInstance, lam: np.ndarray, H: np.ndarray,
               sq_norms: np.ndarray) -> np.ndarray:
    """The objective of B points from their (kappa, B) levels and links and
    the (B, kappa, n) squared norms of the copies of x - y.

    Each column's gate terms are summed in gate order from +0.0, as a
    gate-by-gate loop adds them, with the ordered bincount of the noise
    feedback. With no gate terms bincount returns int zeros, hence the cast.
    """
    tables = inst.gates
    B = lam.shape[1]
    nor_args, purify_args = _gate_args(tables, lam)
    terms = np.concatenate((nor_gate(nor_args), purify_gate(purify_args)))
    terms *= H.take(tables.links, axis=0)
    cols = np.tile(np.arange(B), tables.links.size)
    total = np.bincount(cols, terms.ravel(), minlength=B).astype(float, copy=False)
    total += np.einsum("n,bqn->b", inst.M, sq_norms)
    return total


def _f_many(inst: GdaInstance, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    diff, dist_sq, _, H = _batch_parts(inst, X, Y)
    return _objective(inst, distance_threshold(dist_sq, inst.m), H, (diff**2).sum(axis=3))


def _grad_many(inst: GdaInstance, X: np.ndarray, Y: np.ndarray):
    """Gradients GX, GY of a (B, d) batch and the vertex tables of the same
    pass: gate values, noise, links, squared distances and levels as
    (kappa, B) tables, and the (B, kappa, n, m) differences x - y."""
    diff, dist_sq, dx_c, H = _batch_parts(inst, X, Y)
    lam, lam_p = distance_threshold(dist_sq, inst.m, slope=True)
    s, noise = _node_aggregates(inst, lam, lam_p, H)
    del lam_p
    # D^T (y - x) with the bits of -diff @ D, but no (B, d) copy of -diff
    dt_yx = _blocks_times(diff, np.negative(inst.vi.D))
    # the 2 (M_i + noise_q) (x - y) term of both players
    reg = 2.0 * (inst.M[None, None, :, None] + noise.T[:, :, None, None]) * diff
    s4 = s.T[:, :, None, None]
    dt_yx -= dx_c
    GX = np.multiply(s4, dt_yx, out=dt_yx)
    GX += reg
    GY = np.multiply(s4, dx_c, out=dx_c)
    GY -= reg
    return GX.reshape(-1, inst.d), GY.reshape(-1, inst.d), (s, noise, H, dist_sq, lam, diff)


def _evaluate(inst: GdaInstance, p: JointPoint):
    """Gradient and :class:`NodeDiagnostics` of p from one batch-1 pass."""
    _check_point(inst, p)
    GX, GY, (s, noise, H, dist_sq, lam, diff) = _grad_many(inst, p.x[None, :], p.y[None, :])
    l1 = np.abs(diff[0]).sum(axis=(1, 2))
    return GX[0], GY[0], NodeDiagnostics(s[:, 0], noise[:, 0], H[:, 0], dist_sq[:, 0], l1,
                                         lam[:, 0])


def eval_f(inst: GdaInstance, p: JointPoint) -> float:
    """Objective value: NOR term + PURIFY term + weighted regularizer."""
    _check_point(inst, p)
    return float(_f_many(inst, p.x[None, :], p.y[None, :])[0])


def eval_grad(inst: GdaInstance, p: JointPoint) -> tuple[np.ndarray, np.ndarray]:
    """Gradient via per-vertex aggregates: for vertex q, copy i, coordinate j,

    gx = s_q * [(D^T (y_i^q - x_i^q))_j - (D x_i^q + c)_j] + 2 (M_i + noise_q) (x - y)
    gy = s_q * (D x_i^q + c)_j - 2 (M_i + noise_q) (x - y)
    """
    return _evaluate(inst, p)[:2]


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


# finite_diff_grad holds about this many table elements per chunk at most:
# 2 MiB of float64, so that a chunk's largest table fits a 2 MiB L2 cache.
FD_CHUNK_ELEMS = 1 << 18


def finite_diff_grad(inst: GdaInstance, p: JointPoint, h: float = 1e-6):
    """Central-difference gradient of the objective, as an independent oracle.

    Each of the k = 2d joint coordinates z is moved to z + h and to z - h,
    and the objective is evaluated at both points. A moved point differs
    from p in one vertex's (n, m) block only, so the forward pass runs on
    p once and then on the moved block of each point: the block's level
    (``distance_threshold`` of its distance from ``_block_parts``), link
    and squared copy norms are written into copies of p's tables, and
    ``_objective`` evaluates the gate layer and the regularizer over every
    point. The threshold is elementwise, so the values equal those of
    ``_f_many`` on the whole moved batch bit for bit. Points are taken in
    chunks of ``rows`` with rows * max(kappa n, n m) at most
    ``FD_CHUNK_ELEMS``, so a chunk's largest table, the (rows, kappa, n)
    squared norms, stays cache-sized and memory O(d * chunk).

    Refuses an h that is lost in rounding, where z + h or z - h equals z
    for some coordinate z: every difference there would read 0.
    """
    _check_point(inst, p)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"finite-difference step must be finite and positive, got {h!r}")
    base = np.concatenate([p.x, p.y])
    if ((base + h) == base).any() or ((base - h) == base).any():
        raise ValueError(f"finite-difference step {h!r} is lost in rounding: "
                         "z + h or z - h equals z for some coordinate z")
    kappa, n, m = inst.kappa, inst.n, inst.m
    diff, dist_sq, _, H = _batch_parts(inst, p.x[None, :], p.y[None, :])
    lam = distance_threshold(dist_sq, m)
    sq_norms = (diff**2).sum(axis=3)
    blocks = base.reshape(2, kappa, n * m)  # [player, vertex, copy and coordinate]
    k = base.size
    g = np.empty(k)
    per_chunk = max(1, FD_CHUNK_ELEMS // (2 * max(kappa * n, n * m)))  # coordinates per chunk
    for start in range(0, k, per_chunk):
        player, flat = np.divmod(np.arange(start, min(start + per_chunk, k)), inst.d)
        vertex, offset = np.divmod(flat, n * m)
        rows = np.arange(2 * flat.size)
        XY = blocks[:, vertex].repeat(2, axis=1)  # (2, rows, n m): each block twice
        XY[player, rows[0::2], offset] += h
        XY[player, rows[1::2], offset] -= h
        XY = XY.reshape(2, rows.size, 1, n, m)
        b_diff, b_dist_sq, _, b_H = _block_parts(inst, XY[0], XY[1])
        moved = vertex.repeat(2)
        chunk_lam = lam.repeat(rows.size, axis=1)
        chunk_lam[moved, rows] = distance_threshold(b_dist_sq[0], m)
        chunk_H = H.repeat(rows.size, axis=1)
        chunk_H[moved, rows] = b_H[0]
        chunk_sq_norms = sq_norms.repeat(rows.size, axis=0)
        chunk_sq_norms[rows, moved] = (b_diff**2).sum(axis=3)[:, 0]
        vals = _objective(inst, chunk_lam, chunk_H, chunk_sq_norms)
        g[start:start + flat.size] = (vals[0::2] - vals[1::2]) / (2.0 * h)
        del chunk_lam, chunk_H, chunk_sq_norms  # before the next chunk's copies
    return g[: inst.d], g[inst.d:]


def diagnostics(inst: GdaInstance, p: JointPoint) -> NodeDiagnostics:
    """Per-vertex gate value, noise, link and distance summary from the
    gradient pass at batch size 1; a vertex without a producing gate reads 0."""
    return _evaluate(inst, p)[2]
