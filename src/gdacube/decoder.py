"""Map solved points back to witnesses, and audit the inequalities behind that map.

Decoding runs in two phases. Phase 1 scans the per-vertex copies x_i^q in
ascending (q, i) order and returns the first one accepted by the LinVI
check. Phase 2 thresholds every squared block distance into {0, 1, bot}
and verifies the resulting circuit assignment; when verification fails
the outcome is an explicit Inconclusive record rather than a forced
branch, because at desk-scale parameters neither branch is guaranteed.

The audit evaluates, at any certified eps-stationary point, the chain of
inequalities that make the decoding sound at hardness-scale parameters:
a per-coordinate distance bound, an l1 and a noise-magnitude bound with
log(n) growth, the count of well-guessed regularizer indices, and the
two consistency implications. Bounds that depend on parameter relations
carry explicit premise flags instead of being silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lin_vi import SlackReport, check_solution, resolve_rho
from .pure_circuit import Assignment, GateViolation, Trit, verify_assignment
from .reduction import GdaInstance, JointPoint, diagnostics
from .solver import check_stationary

__all__ = [
    "NotStationaryError",
    "AuditError",
    "LinViWitness",
    "PcAssignment",
    "Inconclusive",
    "LemmaAudit",
    "DichotomyReport",
    "decode",
    "find_linvi_witness",
    "lemma_audit",
    "dichotomy_check",
]

AUDIT_SLACK = 1e-9


class NotStationaryError(ValueError):
    """The audited point is not stationary at the requested tolerance."""


class AuditError(AssertionError):
    """An inequality that must hold under the stated premises failed."""


@dataclass(frozen=True)
class LinViWitness:
    kind = "linvi"
    q: int
    i: int
    z: np.ndarray
    report: SlackReport

    def to_json_dict(self) -> dict:
        return {"kind": "linvi", "q": self.q, "i": self.i,
                "z": self.z.tolist(), **self.report.to_json_dict()}


@dataclass(frozen=True)
class PcAssignment:
    kind = "pc"
    assignment: Assignment
    violations: tuple[GateViolation, ...]  # verbatim verifier output (empty here)

    def to_json_dict(self) -> dict:
        return {"kind": "pc", "assignment": [t.value for t in self.assignment.values],
                "verified": not self.violations,
                "violations": [_violation_dict(v) for v in self.violations]}


@dataclass(frozen=True)
class Inconclusive:
    kind = "inconclusive"
    assignment: Assignment
    violations: tuple[GateViolation, ...]
    best_q: int
    best_i: int
    best_slack: float  # nearest miss of the LinVI scan

    def to_json_dict(self) -> dict:
        return {"kind": "inconclusive",
                "assignment": [t.value for t in self.assignment.values],
                "violations": [_violation_dict(v) for v in self.violations],
                "best_q": self.best_q, "best_i": self.best_i,
                "best_slack": self.best_slack}


def _violation_dict(v: GateViolation) -> dict:
    return {"kind": v.kind, "index": v.index, "gate": list(v.gate), "reason": v.reason}


def _scan(inst: GdaInstance, p: JointPoint, rho: float):
    """Worst LinVI slack of every copy x_i^q, flat in scan order (q, then i),
    and the flat index of the first copy with worst >= -rho (None if none).

    Equal bit for bit to ``check_solution(inst.vi, x_i^q).worst`` per copy:
    the stacked mat-vec ``D @ z`` reproduces the per-row product, while
    ``X @ D.T`` can round differently in the last bit.
    """
    vi = inst.vi
    X = p.x.reshape(inst.kappa * inst.n, inst.m)
    V = np.matmul(vi.D, X[:, :, None])[:, :, 0] + vi.c
    worst = np.minimum(V * (0.0 - X), V * (1.0 - X)).min(axis=1)
    hits = np.flatnonzero(worst >= -rho)
    return worst, int(hits[0]) if hits.size else None


def find_linvi_witness(inst: GdaInstance, p: JointPoint, rho: float | None = None):
    """First (q, i) whose copy passes the LinVI check, plus the nearest miss.

    Returns ((q, i, z, report) or None, (best_q, best_i, best_slack)). The
    copies are scanned in ascending (q, i), and the nearest miss is the
    first copy of largest worst slack among those before the witness,
    (-1, -1, -inf) when there are none. Only the witness gets a full
    ``check_solution``.
    """
    rho = resolve_rho(inst.vi, rho)
    worst, first = _scan(inst, p, rho)
    before = worst[:first]
    best = (-1, -1, -np.inf)
    if before.size:
        k = int(np.argmax(before))
        best = (*inst.unindex(k * inst.m)[:2], float(worst[k]))
    if first is None:
        return None, best
    q, i, _ = inst.unindex(first * inst.m)
    z = p.x[first * inst.m:(first + 1) * inst.m].copy()
    return (q, i, z, check_solution(inst.vi, z, rho)), best


def decode(inst: GdaInstance, p: JointPoint, rho: float | None = None):
    """LinVI witness, verified circuit assignment, or an Inconclusive record."""
    hit, best = find_linvi_witness(inst, p, rho)
    if hit is not None:
        q, i, z, rep = hit
        return LinViWitness(q=q, i=i, z=z, report=rep)
    levels = {0.0: Trit.ZERO, 1.0: Trit.ONE}
    b = Assignment(tuple(levels.get(level, Trit.BOT) for level in diagnostics(inst, p).bit))
    violations = tuple(verify_assignment(inst.pc, b))
    if not violations:
        return PcAssignment(assignment=b, violations=violations)
    return Inconclusive(assignment=b, violations=violations,
                        best_q=best[0], best_i=best[1], best_slack=float(best[2]))


@dataclass(frozen=True)
class LemmaAudit:
    """Measured values against every decoding inequality, premises included.

    ``coord_bound``: |x-y| per coordinate vs the per-copy bound
    3 s_q m / |M_i + noise_q| + sqrt(eps / |M_i + noise_q|), skipped where
    the denominator vanishes. ``l1_bound`` and ``noise_bound``: the
    log(n)-growth bounds on block l1 distance and noise magnitude.
    ``guess_count``: how many indices satisfy |noise_q + M_i| <= 1 vs the
    1/delta threshold. ``consistency_zero``/``consistency_one``: distance
    implications of saturated gate values. All inequalities carry an
    additive slack of 1e-9 for float noise; none is ever assumed.

    ``witness`` (first passing copy (q, i), or None) and ``gates_consistent``
    (every saturated gate value agrees with its level) are the dichotomy's
    two branches, read by ``dichotomy_check``; the JSON form omits them.
    """

    epsilon: float
    coord_bound: dict
    l1_bound: dict
    noise_bound: dict
    guess_count: dict
    consistency_zero: dict
    consistency_one: dict
    premises: dict
    witness: tuple[int, int] | None
    gates_consistent: bool

    @property
    def unconditional_hold(self) -> bool:
        return bool(self.coord_bound["holds"] and self.l1_bound["holds"]
                    and self.noise_bound["holds"])

    def to_json_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "coord_bound": self.coord_bound,
            "l1_bound": self.l1_bound,
            "noise_bound": self.noise_bound,
            "guess_count": self.guess_count,
            "consistency_zero": self.consistency_zero,
            "consistency_one": self.consistency_one,
            "premises": self.premises,
        }


def lemma_audit(inst: GdaInstance, p: JointPoint, eps: float,
                rho: float | None = None) -> LemmaAudit:
    """Evaluate every decoding inequality at a certified eps-stationary point.

    Raises NotStationaryError unless ``check_stationary`` passes at eps.
    One stationarity check, one ``diagnostics`` call and one LinVI scan
    feed every section and both dichotomy branches.
    """
    rep = check_stationary(inst, p, eps)
    if not rep.passed:
        raise NotStationaryError(
            f"max violation {rep.max_violation} exceeds eps {eps}; the audited "
            "inequalities only quantify over stationary points"
        )
    rho = resolve_rho(inst.vi, rho)
    worst, first = _scan(inst, p, rho)
    diag = diagnostics(inst, p)
    kappa, n, m = inst.kappa, inst.n, inst.m
    delta = inst.delta
    diff = np.abs(p.x - p.y).reshape(kappa, n, m)
    denom = np.abs(inst.M[None, :] + diag.noise[:, None])  # (kappa, n)
    active = denom != 0.0

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bound_qi = np.where(
            active,
            3.0 * diag.gate_value[:, None] * m / denom + np.sqrt(eps / denom),
            np.inf,
        )
    coord_ok = diff <= bound_qi[:, :, None] + AUDIT_SLACK
    coord = {
        "holds": bool(coord_ok[active].all() if active.any() else True),
        "checked": int(active.sum() * m),
        "skipped": int((~active).sum() * m),
        "bound": bound_qi.tolist(),
        "measured": diff.tolist(),
    }

    l1_limit = 14.0 * m**2 / delta * np.log(n) + m * n * np.sqrt(eps / delta)
    l1 = {
        "holds": bool((diag.dist_l1 <= l1_limit + AUDIT_SLACK).all()),
        "bound": float(l1_limit),
        "measured": diag.dist_l1.tolist(),
    }

    noise_limit = (2.0**9 * m**3 * kappa / delta * np.log(n)
                   + 2.0**5 * m**2 * n * kappa * np.sqrt(eps / delta))
    noise = {
        "holds": bool((np.abs(diag.noise) <= noise_limit + AUDIT_SLACK).all()),
        "bound": float(noise_limit),
        "measured": diag.noise.tolist(),
    }

    premises = inst.premises()
    counts = (denom <= 1.0 + AUDIT_SLACK).sum(axis=1)
    guess = {
        "threshold": 1.0 / delta,
        "counts": counts.tolist(),
        "meets": bool((counts >= 1.0 / delta).all()),
        "premises": {k: premises[k] for k in
                     ("n_ge_2^24_m^6_k^2_over_delta^4", "eps_le_delta^3_over_2^16_m^4_k^2")},
    }

    zero_mask = diag.gate_value == 0.0
    zero_ok = diag.dist_sq[zero_mask] <= 3.0 * m + AUDIT_SLACK
    cons_zero = {
        "applicable": zero_mask.tolist(),
        "bound": 3.0 * m,
        "measured": diag.dist_sq.tolist(),
        "holds": bool(zero_ok.all()) if zero_mask.any() else True,
        "premises": {"eps_le_delta_over_n": premises["eps_le_delta_over_n"]},
    }

    one_mask = diag.gate_value == 1.0
    no_witness = one_mask & ~(worst.reshape(kappa, n) >= -rho).any(axis=1)
    one_ok = diag.dist_sq[no_witness] >= 3.0 * m + 1.0 - AUDIT_SLACK
    cons_one = {
        "applicable": no_witness.tolist(),
        "bound": 3.0 * m + 1.0,
        "measured": diag.dist_sq.tolist(),
        "holds": bool(one_ok.all()) if no_witness.any() else True,
        "premises": {k: premises[k] for k in
                     ("delta_le_rho^2_over_2^9_m^2", "eps_le_rho_over_2",
                      "n_ge_2^24_m^6_k^2_over_delta^4", "eps_le_delta^3_over_2^16_m^4_k^2")},
    }

    witness = None if first is None else inst.unindex(first * m)[:2]
    s, lam = diag.gate_value, diag.bit
    consistent = bool(np.all((s != 1.0) | (lam == 1.0)) and np.all((s != 0.0) | (lam == 0.0)))

    return LemmaAudit(epsilon=float(eps), coord_bound=coord, l1_bound=l1,
                      noise_bound=noise, guess_count=guess,
                      consistency_zero=cons_zero, consistency_one=cons_one,
                      premises=premises, witness=witness, gates_consistent=consistent)


@dataclass(frozen=True)
class DichotomyReport:
    linvi_branch: bool
    witness: tuple[int, int] | None
    consistency_branch: bool
    premises: dict
    asserted: bool

    def to_json_dict(self) -> dict:
        return {"linvi_branch": self.linvi_branch,
                "witness": list(self.witness) if self.witness else None,
                "consistency_branch": self.consistency_branch,
                "premises": self.premises, "asserted": self.asserted}


def dichotomy_check(audit: LemmaAudit) -> DichotomyReport:
    """At a stationary point: either some copy solves the LinVI instance, or
    every saturated gate value agrees with its vertex's logical level.

    Reads both branches and the premises from ``audit`` (``lemma_audit``
    has certified the point and scanned it); nothing is re-evaluated.
    Asserted (raises AuditError on failure) only when every parameter
    premise holds; otherwise the observed branches are reported as data.
    """
    premises_ok = all(audit.premises.values())
    if premises_ok and audit.witness is None and not audit.gates_consistent:
        raise AuditError("no LinVI witness and inconsistent gate values, "
                         "yet all parameter premises hold")
    return DichotomyReport(
        linvi_branch=audit.witness is not None,
        witness=audit.witness,
        consistency_branch=audit.gates_consistent,
        premises=audit.premises,
        asserted=premises_ok,
    )
