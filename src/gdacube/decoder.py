"""Map solved points back to witnesses, and audit the inequalities behind that map.

Both read only the point's record from ``solver.check_stationary``: its
violations, vertex diagnostics and every copy's worst LinVI slack. Decoding
runs in two phases. Phase 1 takes the copies x_i^q in ascending (q, i) order
and returns the first one accepted by the LinVI check. Phase 2 thresholds
every squared block distance into {0, 1, bot} and verifies the resulting
circuit assignment; when verification fails the outcome is an explicit
Inconclusive record rather than a forced branch, because at desk-scale
parameters neither branch is guaranteed. With n <= 3 every distance is at
most n*m <= 3m and every level reads 0, so with a NOR gate the ``pc``
outcome and the consistency branch are false everywhere: use n >= 4.

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

from .lin_vi import SlackReport, check_solution, json_real, resolve_rho
from .pure_circuit import Assignment, GateViolation, Trit, verify_assignment
from .reduction import GdaInstance, diagnostics  # unused, kept for bench/tracing.py
from .solver import StationarityReport, check_stationary  # check_stationary: likewise

__all__ = [
    "NotStationaryError",
    "AuditError",
    "LinViWitness",
    "PcAssignment",
    "Inconclusive",
    "LemmaAudit",
    "DichotomyReport",
    "decode",
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
    best_slack: float  # nearest miss: the first copy of largest worst slack

    def to_json_dict(self) -> dict:
        return {"kind": "inconclusive",
                "assignment": [t.value for t in self.assignment.values],
                "violations": [_violation_dict(v) for v in self.violations],
                "best_q": self.best_q, "best_i": self.best_i,
                "best_slack": self.best_slack}


def _violation_dict(v: GateViolation) -> dict:
    return {"kind": v.kind, "index": v.index, "gate": list(v.gate), "reason": v.reason}


def decode(inst: GdaInstance, ev: StationarityReport, rho: float | None = None):
    """LinVI witness, verified circuit assignment, or an Inconclusive record.

    Reads the record ``ev``. The witness is the first copy, in ascending
    (q, i), that passes the LinVI check, with its ``check_solution`` report.
    Without one, the vertex levels are read as a circuit assignment; if
    that fails to verify, Inconclusive names the nearest miss.
    """
    rho = resolve_rho(inst.vi, rho)
    worst = ev.copy_slacks
    passed = worst >= -rho
    if passed.any():
        k = int(passed.argmax())
        q, i, _ = inst.unindex(k * inst.m)
        z = ev.point.x[k * inst.m:(k + 1) * inst.m].copy()
        return LinViWitness(q=q, i=i, z=z, report=check_solution(inst.vi, z, rho))
    levels = {0.0: Trit.ZERO, 1.0: Trit.ONE}
    b = Assignment(tuple(levels.get(level, Trit.BOT) for level in ev.diagnostics.bit))
    violations = tuple(verify_assignment(inst.pc, b))
    if not violations:
        return PcAssignment(assignment=b, violations=violations)
    k = int(worst.argmax())
    q, i, _ = inst.unindex(k * inst.m)
    return Inconclusive(assignment=b, violations=violations,
                        best_q=q, best_i=i, best_slack=float(worst[k]))


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


def lemma_audit(inst: GdaInstance, ev: StationarityReport, eps: float,
                rho: float | None = None) -> LemmaAudit:
    """Evaluate every decoding inequality at a certified eps-stationary point.

    Reads only the point's record ``ev``: its violations, diagnostics and
    copy slacks feed every section and both dichotomy branches. Raises
    NotStationaryError unless its max violation is at most eps, and
    ValueError if eps is not a real number (a bool would read as 1.0).
    """
    eps = json_real(eps, "eps")
    if not ev.max_violation <= eps:
        raise NotStationaryError(
            f"max violation {ev.max_violation} exceeds eps {eps}; the audited "
            "inequalities only quantify over stationary points"
        )
    rho = resolve_rho(inst.vi, rho)
    passed = ev.copy_slacks >= -rho
    diag = ev.diagnostics
    kappa, n, m = inst.kappa, inst.n, inst.m
    delta = inst.delta
    diff = np.abs(ev.point.x - ev.point.y).reshape(kappa, n, m)
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
    no_witness = one_mask & ~passed.reshape(kappa, n).any(axis=1)
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

    witness = inst.unindex(int(passed.argmax()) * m)[:2] if passed.any() else None
    s, lam = diag.gate_value, diag.bit
    consistent = bool(np.all((s != 1.0) | (lam == 1.0)) and np.all((s != 0.0) | (lam == 0.0)))

    return LemmaAudit(epsilon=eps, coord_bound=coord, l1_bound=l1,
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
