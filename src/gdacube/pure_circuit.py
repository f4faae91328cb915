"""Pure-Circuit instances: representation, validation, verification, generators.

An instance is a set of vertices [0, kappa) wired by NOR gates (u, v -> w)
and PURIFY gates (u -> v, w). Every vertex must be the output of exactly
one gate. A solution assigns each vertex one of {0, 1, bot}; NOR forces
its output when an input is decided, PURIFY duplicates a pure input and
always produces at least one pure output.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Trit",
    "PureCircuitInstance",
    "Assignment",
    "GateViolation",
    "validate_instance",
    "verify_assignment",
    "gen_example",
]


def json_int(value, what: str) -> int:
    """An integer field read from a JSON artifact.

    Refuses, with TypeError, a value that is not a number or not integral
    (``4.5``, ``"4"``, ``true``) instead of truncating it as ``int()`` would.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise TypeError(f"{what} must be an integer, got {value!r}")


class Trit(Enum):
    ZERO = "0"
    ONE = "1"
    BOT = "bot"


@dataclass(frozen=True)
class PureCircuitInstance:
    kappa: int
    nor_gates: tuple[tuple[int, int, int], ...] = ()
    purify_gates: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "nor_gates", tuple(tuple(g) for g in self.nor_gates))
        object.__setattr__(self, "purify_gates", tuple(tuple(g) for g in self.purify_gates))

    def to_json_dict(self) -> dict:
        return {
            "kappa": self.kappa,
            "nor": [list(g) for g in self.nor_gates],
            "purify": [list(g) for g in self.purify_gates],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PureCircuitInstance":
        return cls(
            kappa=json_int(d["kappa"], "kappa"),
            nor_gates=tuple(tuple(json_int(x, "gate vertex") for x in g)
                            for g in d.get("nor", [])),
            purify_gates=tuple(tuple(json_int(x, "gate vertex") for x in g)
                               for g in d.get("purify", [])),
        )


@dataclass(frozen=True)
class Assignment:
    """Total map vertex -> Trit, stored as a tuple indexed by vertex id."""

    values: tuple[Trit, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def __getitem__(self, v: int) -> Trit:
        return self.values[v]

    def to_json_dict(self) -> dict:
        return {"values": [t.value for t in self.values]}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Assignment":
        return cls(tuple(Trit(s) for s in d["values"]))


@dataclass(frozen=True)
class GateViolation:
    kind: str  # "nor" | "purify"
    index: int  # position within that gate list
    gate: tuple[int, int, int]
    reason: str


def validate_instance(inst: PureCircuitInstance) -> list[str]:
    """Return all structural violations; an empty list means the instance is valid."""
    problems: list[str] = []
    if inst.kappa < 1:
        problems.append(f"kappa = {inst.kappa} < 1: a circuit needs at least one vertex")
    out_count: dict[int, int] = {v: 0 for v in range(inst.kappa)}

    def check_gate(kind, idx, gate, outputs):
        u, v, w = gate
        for node in gate:
            if not (0 <= node < inst.kappa):
                problems.append(f"{kind} gate {idx}: vertex {node} outside [0, {inst.kappa})")
        if len({u, v, w}) != 3:
            problems.append(f"{kind} gate {idx}: vertices {gate} not pairwise distinct")
        for node in outputs:
            if 0 <= node < inst.kappa:
                out_count[node] += 1

    for idx, gate in enumerate(inst.nor_gates):
        check_gate("nor", idx, gate, outputs=gate[2:])
    for idx, gate in enumerate(inst.purify_gates):
        check_gate("purify", idx, gate, outputs=gate[1:])

    for node, cnt in out_count.items():
        if cnt != 1:
            problems.append(f"vertex {node} is the output of {cnt} gates (expected exactly 1)")
    return problems


def _nor_violation(b: Assignment, gate) -> str | None:
    u, v, w = gate
    if b[u] == Trit.ZERO and b[v] == Trit.ZERO and b[w] != Trit.ONE:
        return "both inputs 0 but output is not 1"
    if (b[u] == Trit.ONE or b[v] == Trit.ONE) and b[w] != Trit.ZERO:
        return "an input is 1 but output is not 0"
    return None


def _purify_violation(b: Assignment, gate) -> str | None:
    u, v, w = gate
    if b[v] == Trit.BOT and b[w] == Trit.BOT:
        return "neither output is pure"
    if b[u] in (Trit.ZERO, Trit.ONE) and not (b[v] == b[u] and b[w] == b[u]):
        return "pure input not copied to both outputs"
    return None


def verify_assignment(inst: PureCircuitInstance, b: Assignment) -> list[GateViolation]:
    """Check every gate rule; an empty list means the assignment satisfies the instance."""
    if len(b.values) != inst.kappa:
        raise ValueError(
            f"assignment covers {len(b.values)} vertices, instance has {inst.kappa}"
        )
    out: list[GateViolation] = []
    for idx, gate in enumerate(inst.nor_gates):
        reason = _nor_violation(b, gate)
        if reason:
            out.append(GateViolation("nor", idx, gate, reason))
    for idx, gate in enumerate(inst.purify_gates):
        reason = _purify_violation(b, gate)
        if reason:
            out.append(GateViolation("purify", idx, gate, reason))
    return out


def gen_example(kind: str, size: int, seed: int) -> PureCircuitInstance:
    """Deterministically generate a valid instance.

    ``ring``: one PURIFY fan-out followed by a chain of NOR gates that
    closes back on vertex 0. ``purify_tree``: a binary PURIFY tree with
    leftover vertices produced by NOR gates over seeded leaf pairs.
    """
    if size < 3:
        raise ValueError("need at least 3 vertices")
    if kind == "ring":
        purify = [(0, 1, 2)]
        nor = [(v - 2, v - 1, v) for v in range(3, size)]
        nor.append((size - 2, size - 1, 0))
        inst = PureCircuitInstance(size, tuple(nor), tuple(purify))
    elif kind == "purify_tree":
        rng = random.Random(seed)
        n_purify = (size - 1) // 2 if size % 2 else (size - 2) // 2
        purify = []
        frontier = [0]
        nxt = 1
        for _ in range(n_purify):
            u = frontier.pop(0)
            purify.append((u, nxt, nxt + 1))
            frontier += [nxt, nxt + 1]
            nxt += 2
        leaves = list(range(1, 2 * n_purify + 1))
        nor = []
        for r in [0] + list(range(2 * n_purify + 1, size)):
            a, b = rng.sample(leaves, 2)
            nor.append((a, b, r))
        inst = PureCircuitInstance(size, tuple(nor), tuple(purify))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    problems = validate_instance(inst)
    assert not problems, problems
    return inst
