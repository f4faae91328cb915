import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_instance, random_point
from gdacube import decoder
from gdacube.decoder import (
    AuditError,
    DichotomyReport,
    Inconclusive,
    LinViWitness,
    NotStationaryError,
    PcAssignment,
    decode,
    dichotomy_check,
    lemma_audit,
)
from gdacube.lin_vi import LinVIInstance, operator_slacks
from gdacube.pure_circuit import PureCircuitInstance, Trit, gen_example
from gdacube.reduction import GdaParams, JointPoint, build_instance, diagnostics
from gdacube.solver import SolverConfig, check_stationary, extragradient

# LinVI operator identically 1: a copy passes at rho=0.1 only if every
# entry is at most 0.1, so planted points keep all x entries above that.
PUSHY_VI = LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([1.0]), rho=0.1)


def build(pc, n=4, delta=0.5, vi=PUSHY_VI, validate=True):
    return build_instance(pc, vi, GdaParams(n=n, epsilon=1e-3, delta=delta),
                          validate=validate)


def record(inst, p):
    """The point's one evaluation, the record that decode and lemma_audit read."""
    return check_stationary(inst, p, 0.0)


def place(inst, dists, base=0.5):
    """A point whose block distances ||x^q - y^q||^2 hit the given targets.

    Whole units come from (x, y) = (1, 0) pairs, the fractional remainder
    from (0.95, 0.95 - sqrt(r)); every x entry stays above 0.1 so the
    LinVI scan never fires by accident.
    """
    width = inst.n * inst.m
    x = np.full(inst.d, base)
    y = np.full(inst.d, base)
    for q, target in enumerate(dists):
        full, rem = int(target), target - int(target)
        assert full + (rem > 0) <= width, "distance does not fit in the block"
        off = q * width
        for k in range(full):
            x[off + k], y[off + k] = 1.0, 0.0
        if rem > 0:
            x[off + full] = 0.95
            y[off + full] = 0.95 - np.sqrt(rem)
    return JointPoint(x, y)


# ------------------------------------------------------------------ decoding

def test_planted_witness_found_in_scan_order():
    inst = build(gen_example("ring", 3, 0), n=2)
    x = np.ones(inst.d)
    x[inst.index(1, 2, 0)] = 0.0  # plant the solution z = [0] at (q=1, i=2)
    p = JointPoint(x, x.copy())
    out = decode(inst, record(inst, p))
    assert isinstance(out, LinViWitness)
    assert (out.q, out.i) == (1, 2)
    assert np.array_equal(out.z, [0.0])
    # scan order is ascending (q, then i): an earlier plant wins
    x2 = x.copy()
    x2[inst.index(1, 1, 0)] = 0.05
    out2 = decode(inst, record(inst, JointPoint(x2, x2.copy())))
    assert (out2.q, out2.i) == (1, 1)


def test_diagonal_point_decodes_to_all_zero_assignment():
    # a purify-only cycle is satisfied by the all-zero assignment
    pc = PureCircuitInstance(4, purify_gates=((0, 1, 2), (1, 3, 0)))
    inst = build(pc, n=1)
    x = np.full(inst.d, 0.3)
    out = decode(inst, record(inst, JointPoint(x, x.copy())))
    assert isinstance(out, PcAssignment)
    assert all(t == Trit.ZERO for t in out.assignment.values)
    assert out.violations == ()


def test_planted_ring3_satisfying_assignment():
    # hand-verified solution of {PURIFY(0->1,2), NOR(1,2->0)}: vertex 1 at 0,
    # vertices 0 and 2 undecided (the 3-ring has no pure solution)
    inst = build(gen_example("ring", 3, 0))
    p = place(inst, [3.5, 0.0, 3.5])
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values == (Trit.BOT, Trit.ZERO, Trit.BOT)


def test_inconclusive_reports_violations_and_nearest_miss():
    inst = build(gen_example("ring", 3, 0), n=1)
    x = np.full(inst.d, 0.3)
    out = decode(inst, record(inst, JointPoint(x, x.copy())))
    assert isinstance(out, Inconclusive)
    # all-zero violates the NOR gate (both inputs 0 force output 1)
    assert any(v.kind == "nor" for v in out.violations)
    assert out.best_slack == pytest.approx(-0.3)
    assert (out.best_q, out.best_i) == (0, 1)


def test_decode_deterministic():
    inst = make_instance("ring3-m2-n4")
    rng = np.random.default_rng(3)
    p = random_point(inst, rng)
    a = decode(inst, record(inst, p))
    b = decode(inst, record(inst, p))
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)


def test_decode_refuses_a_point_of_the_wrong_length():
    inst = make_instance("ring3-m2-n4")  # d = 3*4*2 = 24
    half = np.zeros(inst.d // 2)
    with pytest.raises(ValueError, match=f"point has dimension 12, instance needs {inst.d}"):
        decode(inst, record(inst, JointPoint(half, half)))


# --------------------------------------------- gate case analyses, NOR side

def nor_case_instance():
    pc = PureCircuitInstance(3, nor_gates=((0, 1, 2),))
    return build(pc, validate=False)


def test_nor_both_inputs_zero_forces_one():
    inst = nor_case_instance()
    p = place(inst, [0.0, 0.0, 4.0])
    diag = diagnostics(inst, p)
    assert diag.gate_value[2] == 1.0  # nor_gate(0) = 1
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values == (Trit.ZERO, Trit.ZERO, Trit.ONE)


def test_nor_one_input_high_forces_zero():
    inst = nor_case_instance()
    p = place(inst, [4.0, 0.0, 0.0])
    diag = diagnostics(inst, p)
    assert diag.gate_value[2] == 0.0  # nor_gate(1) = 0
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values == (Trit.ONE, Trit.ZERO, Trit.ZERO)


@pytest.mark.parametrize("out_dist,expected", [
    (0.0, Trit.ZERO), (3.5, Trit.BOT), (4.0, Trit.ONE),
])
def test_nor_undecided_inputs_leave_output_free(out_dist, expected):
    inst = nor_case_instance()
    p = place(inst, [3.5, 0.0, out_dist])
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values[2] == expected


def test_pc_outcome_json_reports_a_verified_assignment():
    inst = nor_case_instance()
    out = decode(inst, record(inst, place(inst, [3.5, 0.0, 4.0])))
    assert json.loads(json.dumps(out.to_json_dict())) == {
        "kind": "pc", "assignment": [Trit.BOT.value, Trit.ZERO.value, Trit.ONE.value],
        "verified": True, "violations": []}


# ------------------------------------------ gate case analyses, PURIFY side

def purify_case_instance():
    pc = PureCircuitInstance(3, purify_gates=((0, 1, 2),))
    return build(pc, validate=False)


def test_purify_high_input_saturates_both_outputs():
    inst = purify_case_instance()
    p = place(inst, [4.0, 4.0, 4.0])
    diag = diagnostics(inst, p)
    assert diag.gate_value[1] == 1.0  # purify_gate(1 + 1/4)
    assert diag.gate_value[2] == 1.0  # purify_gate(1 - 1/4)
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values == (Trit.ONE, Trit.ONE, Trit.ONE)


def test_purify_low_input_zeroes_both_outputs():
    inst = purify_case_instance()
    p = place(inst, [0.0, 0.0, 0.0])
    diag = diagnostics(inst, p)
    assert diag.gate_value[1] == 0.0
    assert diag.gate_value[2] == 0.0
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values == (Trit.ZERO, Trit.ZERO, Trit.ZERO)


@pytest.mark.parametrize("in_dist", [3.2, 3.5, 3.8])
def test_purify_undecided_input_yields_a_pure_output(in_dist):
    # for any level strictly between 0 and 1 the first output saturates to
    # 1 or the second collapses to 0 (possibly both)
    inst = purify_case_instance()
    p = place(inst, [in_dist, 4.0, 0.0])
    diag = diagnostics(inst, p)
    assert 0.0 < diag.bit[0] < 1.0
    assert diag.gate_value[1] == 1.0 or diag.gate_value[2] == 0.0
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values[0] == Trit.BOT


# -------------------------------------------------------------------- audits

def test_audit_requires_stationarity():
    inst = make_instance("ring3-m2-n4")
    p = place(inst, [8.0, 0.0, 8.0], base=0.9)
    with pytest.raises(NotStationaryError):
        lemma_audit(inst, record(inst, p), eps=1e-12)


def test_audit_at_solver_certified_point():
    inst = make_instance("ring3-m2-n4")
    p0 = JointPoint(np.full(inst.d, 0.4), np.full(inst.d, 0.6))
    res = extragradient(inst, p0, SolverConfig(step=0.05, max_iters=3000, seed=1))
    eps = res.report.max_violation
    audit = lemma_audit(inst, res.report, eps)
    assert audit.unconditional_hold
    assert audit.coord_bound["holds"] and audit.l1_bound["holds"] and audit.noise_bound["holds"]
    # desk-scale parameters do not satisfy the hardness-scale premises
    assert not all(audit.premises.values())
    json.dumps(audit.to_json_dict())  # serializable


def test_audit_consistency_sections_on_synthetic_point():
    # ring-4 admits the consistent configuration (0, 0, 0, 1)
    inst = build(gen_example("ring", 4, 0))
    p = place(inst, [0.0, 0.0, 0.0, 4.0])
    diag = diagnostics(inst, p)
    assert np.array_equal(diag.gate_value, [0.0, 0.0, 0.0, 1.0])
    audit = lemma_audit(inst, record(inst, p), eps=inst.bounds.G)
    assert audit.consistency_zero["holds"]
    assert audit.consistency_one["holds"]


def test_dichotomy_consistency_branch():
    inst = build(gen_example("ring", 4, 0))
    p = place(inst, [0.0, 0.0, 0.0, 4.0])
    rep = dichotomy_check(lemma_audit(inst, record(inst, p), eps=inst.bounds.G))
    assert rep.consistency_branch and not rep.linvi_branch
    assert not rep.asserted  # desk-scale premises are false: observational only
    out = decode(inst, record(inst, p))
    assert isinstance(out, PcAssignment)
    assert out.assignment.values == (Trit.ZERO, Trit.ZERO, Trit.ZERO, Trit.ONE)


def test_dichotomy_linvi_branch():
    inst = build(gen_example("ring", 3, 0), n=2)
    x = np.ones(inst.d)
    x[inst.index(0, 1, 0)] = 0.0
    p = JointPoint(x, x.copy())
    rep = dichotomy_check(lemma_audit(inst, record(inst, p), eps=inst.bounds.G))
    assert rep.linvi_branch and rep.witness == (0, 1)


def test_dichotomy_never_raises_without_premises():
    # inconsistent point, no witness, desk parameters: report, no assertion
    inst = build(gen_example("ring", 3, 0), n=1)
    x = np.full(inst.d, 0.3)
    audit = lemma_audit(inst, record(inst, JointPoint(x, x.copy())), eps=inst.bounds.G)
    rep = dichotomy_check(audit)
    assert not rep.linvi_branch and not rep.consistency_branch
    assert not rep.asserted


def all_premises_hold(audit):
    return dataclasses.replace(audit, premises={k: True for k in audit.premises})


def test_dichotomy_raises_when_premises_hold_and_both_branches_fail():
    inst = build(gen_example("ring", 3, 0), n=1)
    x = np.full(inst.d, 0.3)
    audit = lemma_audit(inst, record(inst, JointPoint(x, x.copy())), eps=inst.bounds.G)
    assert audit.witness is None and not audit.gates_consistent
    with pytest.raises(AuditError, match="yet all parameter premises hold"):
        dichotomy_check(all_premises_hold(audit))


def test_dichotomy_asserted_at_a_consistent_point_when_premises_hold():
    inst = build(gen_example("ring", 4, 0))
    p = place(inst, [0.0, 0.0, 0.0, 4.0])
    audit = lemma_audit(inst, record(inst, p), eps=inst.bounds.G)
    rep = dichotomy_check(all_premises_hold(audit))
    assert rep.asserted and rep.consistency_branch and not rep.linvi_branch


def test_find_witness_reports_nearest_miss():
    inst = build(gen_example("ring", 3, 0), n=1)
    x = np.array([0.3, 0.2, 0.5])
    out = decode(inst, record(inst, JointPoint(x, x.copy())), rho=0.1)
    assert isinstance(out, Inconclusive)
    assert (out.best_q, out.best_i, out.best_slack) == (1, 1, pytest.approx(-0.2))


# ------------------------------------------- batched scan vs per-copy loop

def reference_slacks(inst, p):
    """Per-component worst slacks of every copy in (q, i) order, copy by copy:
    the operator ``D @ z + c`` and the endpoint minimum written out here."""
    out = []
    for z in p.x.reshape(inst.kappa * inst.n, inst.m):
        v = inst.vi.operator(z)
        out.append(np.minimum(v * (0.0 - z), v * (1.0 - z)))
    return out


def reference_passes(inst, p, rho=None):
    rho = inst.vi.rho if rho is None else float(rho)
    return [s.min() >= -rho for s in reference_slacks(inst, p)]


def reference_no_witness(inst, p, rho=None):
    """``consistency_one["applicable"]`` computed copy by copy."""
    passes = reference_passes(inst, p, rho)
    one_mask = diagnostics(inst, p).gate_value == 1.0
    return [bool(one_mask[q] and not any(passes[q * inst.n:(q + 1) * inst.n]))
            for q in range(inst.kappa)]


def reference_dichotomy(inst, p, rho=None):
    """The dichotomy as built from the point itself: per-copy loop plus diagnostics."""
    passes = reference_passes(inst, p, rho)
    witness = None
    if any(passes):
        q, i = divmod(passes.index(True), inst.n)
        witness = (q, i + 1)
    diag = diagnostics(inst, p)
    s, lam = diag.gate_value, diag.bit
    consistency = bool(np.all((s != 1.0) | (lam == 1.0)) and np.all((s != 0.0) | (lam == 0.0)))
    premises = inst.premises()
    return DichotomyReport(linvi_branch=witness is not None, witness=witness,
                           consistency_branch=consistency, premises=premises,
                           asserted=all(premises.values()))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_scan_matches_reference(inst, p, rho=None):
    """The record's copy slacks, ``decode`` and ``lemma_audit`` against the
    per-copy loop; returns the outcome."""
    slacks = reference_slacks(inst, p)
    _, stacked = operator_slacks(inst.vi, p.x.reshape(inst.kappa * inst.n, inst.m))
    assert same_bits(stacked, slacks)  # every row rounds as its own D @ z
    worst = [s.min() for s in slacks]
    ev = record(inst, p)
    assert ev.point is p and same_bits(ev.copy_slacks, worst)
    passes = reference_passes(inst, p, rho)
    out = decode(inst, ev, rho)
    if any(passes):
        k = passes.index(True)
        z = p.x.reshape(-1, inst.m)[k]
        assert isinstance(out, LinViWitness)
        assert (out.q, out.i) == (k // inst.n, k % inst.n + 1) and type(out.q) is int
        assert same_bits(out.z, z) and not np.shares_memory(out.z, p.x)
        assert same_bits(out.report.slacks, slacks[k])
        assert out.report.rho == (inst.vi.rho if rho is None else float(rho))
        assert out.report.passed
    else:
        assert not isinstance(out, LinViWitness)
        if isinstance(out, Inconclusive):
            k = worst.index(max(worst))  # the first copy of largest worst slack
            assert (out.best_q, out.best_i) == (k // inst.n, k % inst.n + 1)
            assert type(out.best_q) is int and type(out.best_slack) is float
            assert same_bits(out.best_slack, worst[k])
    audit = lemma_audit(inst, ev, ev.max_violation, rho)
    assert audit.consistency_one["applicable"] == reference_no_witness(inst, p, rho)
    rep, want = dichotomy_check(audit), reference_dichotomy(inst, p, rho)
    assert rep == want and rep.witness == audit.witness
    assert rep.witness is None or all(type(k) is int for k in rep.witness)
    if want.linvi_branch or want.consistency_branch:
        assert dichotomy_check(all_premises_hold(audit)).asserted
    else:
        with pytest.raises(AuditError):
            dichotomy_check(all_premises_hold(audit))
    return out


unit = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.5, 1.0])
signed = st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 0.0, 1.0])


@st.composite
def scan_cases(draw):
    """A ring instance with a random VI, a point, and a rho override or None.

    Some copies are duplicates of others, so equal worst slacks (tied
    nearest misses) occur; y = x makes every vertex read 0, so the NOR
    outputs saturate at 1 and ``consistency_one`` has copies to scan.
    """
    m, n, kappa = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(3, 5))
    vi = LinVIInstance(m=m, D=np.array(draw(st.lists(signed, min_size=m * m, max_size=m * m)))
                       .reshape(m, m), c=np.array(draw(st.lists(signed, min_size=m, max_size=m))),
                       rho=draw(st.floats(1e-4, 0.5)))
    inst = build(gen_example("ring", kappa, 0), n=n, vi=vi)
    copies = kappa * n
    X = np.array(draw(st.lists(unit, min_size=copies * m, max_size=copies * m))).reshape(copies, m)
    for dst in draw(st.lists(st.integers(0, copies - 1), max_size=3)):
        X[dst] = X[draw(st.integers(0, copies - 1))]
    x = X.ravel()
    y = x.copy() if draw(st.booleans()) else np.array(
        draw(st.lists(unit, min_size=inst.d, max_size=inst.d)))
    rho = draw(st.none() | st.floats(1e-6, 2.0))
    return inst, JointPoint(x, y), rho


@settings(max_examples=150, deadline=None)
@given(case=scan_cases())
def test_batched_scan_matches_per_copy_loop(case):
    assert_scan_matches_reference(*case)


@settings(max_examples=60, deadline=None)
@given(case=scan_cases(), data=st.data())
def test_batched_scan_matches_at_a_chosen_first_hit(case, data):
    # rho set to minus a chosen copy's worst slack makes that copy pass exactly
    inst, p, _rho = case
    worst = [s.min() for s in reference_slacks(inst, p)]
    k = data.draw(st.integers(0, len(worst) - 1))
    if worst[k] < 0.0:
        assert_scan_matches_reference(inst, p, -worst[k])


def test_scan_hit_at_copy_zero_has_no_nearest_miss():
    inst = build(gen_example("ring", 3, 0), n=2)
    x = np.full(inst.d, 0.5)
    x[0] = 0.0
    out = assert_scan_matches_reference(inst, JointPoint(x, x.copy()))
    assert isinstance(out, LinViWitness) and (out.q, out.i) == (0, 1)
    assert "best_slack" not in out.to_json_dict()


def test_scan_hit_in_a_middle_copy_wins_over_later_hits():
    inst = build(gen_example("ring", 3, 0), n=2)
    x = np.array([0.5, 0.3, 0.4, 0.05, 0.3, 0.0])  # copy 3 (q=1, i=2) passes
    out = assert_scan_matches_reference(inst, JointPoint(x, x.copy()))
    assert isinstance(out, LinViWitness)
    assert (out.q, out.i) == (1, 2)  # copy 5 passes too, but later


def test_scan_tied_nearest_misses_keep_the_first():
    inst = build(gen_example("ring", 3, 0), n=2)
    x = np.array([0.5, 0.2, 0.3, 0.2, 0.2, 0.9])
    out = assert_scan_matches_reference(inst, JointPoint(x, x.copy()))
    assert isinstance(out, Inconclusive)
    assert (out.best_q, out.best_i, out.best_slack) == (0, 2, pytest.approx(-0.2))


def test_dichotomy_sees_a_zero_gate_value_off_level_zero():
    # vertex 0 has no producer (gate value 0) but reads level 1; no gate
    # value is 1, so only the zero half of the consistency test fails
    inst = nor_case_instance()
    p = place(inst, [4.0, 0.0, 0.0])
    diag = diagnostics(inst, p)
    assert diag.gate_value[0] == 0.0 and diag.bit[0] == 1.0
    assert not (diag.gate_value == 1.0).any()
    assert_scan_matches_reference(inst, p)
    rep = dichotomy_check(lemma_audit(inst, record(inst, p), eps=inst.bounds.G))
    assert not rep.consistency_branch and not rep.linvi_branch


def test_scan_makes_no_per_copy_calls(monkeypatch):
    # decode, lemma_audit and dichotomy_check at a point without a witness
    # read its one record: no check_solution call, and neither diagnostics
    # nor a stationarity check; dichotomy_check re-evaluates nothing
    inst = build(gen_example("ring", 3, 0), n=2)
    x = np.full(inst.d, 0.3)
    p = JointPoint(x, x.copy())
    ev = record(inst, p)
    calls = {"check_solution": 0, "diagnostics": 0, "check_stationary": 0}

    def counted(name):
        fn = getattr(decoder, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(decoder, name, counted(name))
    assert isinstance(decode(inst, ev), Inconclusive)
    audit = lemma_audit(inst, ev, eps=inst.bounds.G)
    assert calls == {"check_solution": 0, "diagnostics": 0, "check_stationary": 0}
    monkeypatch.setattr(decoder, "lemma_audit",
                        lambda *a, **k: pytest.fail("dichotomy_check reran lemma_audit"))
    dichotomy_check(audit)
    assert calls == {"check_solution": 0, "diagnostics": 0, "check_stationary": 0}


@pytest.mark.parametrize("rho", [0.0, -0.1, np.inf, -np.inf, np.nan])
def test_rho_override_must_be_finite_and_positive(rho):
    inst = build(gen_example("ring", 3, 0), n=1)
    x = np.full(inst.d, 0.3)
    p = JointPoint(x, x.copy())
    ev = record(inst, p)
    for fn in (lambda: decode(inst, ev, rho), lambda: lemma_audit(inst, ev, inst.bounds.G, rho)):
        with pytest.raises(ValueError, match="rho must be finite and positive"):
            fn()
