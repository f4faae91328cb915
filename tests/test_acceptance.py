"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import time
from fractions import Fraction

import numpy as np

from conftest import make_instance, random_point
from gdacube import cli
from gdacube.decoder import LinViWitness, PcAssignment, decode, lemma_audit
from gdacube.gates import (
    distance_threshold,
    distance_threshold_prime,
    nor_gate,
    nor_gate_prime,
    purify_gate,
    purify_gate_prime,
)
from gdacube.lin_vi import LinVIInstance, brute_force_solve, check_solution, gen_random
from gdacube.pure_circuit import Assignment, PureCircuitInstance, Trit, gen_example
from gdacube.reduction import (
    GdaParams,
    GdaInstance,
    JointPoint,
    build_instance,
    diagnostics,
    eval_f,
    eval_grad,
    eval_grad_direct,
    finite_diff_grad,
    paper_params,
    parameter_premises,
)
from gdacube.reduction import _batch_parts, _grad_many, _node_aggregates
from gdacube.solver import SolverConfig, extragradient, grid_search
from test_decoder import PUSHY_VI, place, record

ALL_SHAPES = ["ring3-m1-n1", "ring3-m2-n4", "tree6-m2-n8"]


def report(num, name, checks):
    failed = [msg for ok, msg in checks if not ok]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {num} ({name}): {status}")
    assert not failed, f"criterion {num} ({name}): " + "; ".join(failed)


def test_criterion_1_gate_suite():
    t0 = time.perf_counter()
    checks = []

    # value continuity at every breakpoint, h = 1e-6 probe
    probes = [
        (nor_gate, [0.25, 0.5]),
        (purify_gate, [5 / 12, 7 / 12]),
        (lambda z: distance_threshold(z, 1), [3.0, 4.0]),
    ]
    h = 1e-6
    for fn, breaks in probes:
        for b in breaks:
            gap = abs(fn(b - h) - fn(b + h))
            checks.append((gap <= 1e-9, f"value gap {gap} at {b}"))

    # derivative continuity: open-piece polynomial meets the constant piece
    joins = [
        (lambda z: 384 * (z - 0.25) ** 2 - 96 * (z - 0.25), [0.25, 0.5]),
        (lambda z: 288 * (z - 5 / 12) * (2 - 3 * z) - 432 * (z - 5 / 12) ** 2,
         [5 / 12, 7 / 12]),
        (lambda z: -6 * (z - 3) ** 2 + 6 * (z - 3), [3.0, 4.0]),
    ]
    for ramp_d, breaks in joins:
        for b in breaks:
            checks.append((abs(ramp_d(b)) <= 1e-9, f"derivative join {ramp_d(b)} at {b}"))

    # analytic vs central differences over 10^4 points per gate
    rng = np.random.default_rng(0)
    for fn, deriv, lo, hi, breaks in [
        (nor_gate, nor_gate_prime, -0.5, 1.5, [0.25, 0.5]),
        (purify_gate, purify_gate_prime, -0.5, 1.5, [5 / 12, 7 / 12]),
        (lambda z: distance_threshold(z, 1), lambda z: distance_threshold_prime(z, 1),
         2.0, 5.0, [3.0, 4.0]),
    ]:
        z = rng.uniform(lo, hi, 10_000)
        away = np.min(np.abs(z[:, None] - np.array(breaks)[None, :]), axis=1) > 2 * h
        fd = (fn(z + h) - fn(z - h)) / (2 * h)
        exact = deriv(z)
        tol = np.maximum(1e-5 * np.abs(exact), 1e-8)
        ok = np.all(np.abs(fd - exact)[away] <= tol[away])
        checks.append((bool(ok) and away.sum() >= 9_990, "finite differences"))

    # sampled derivative suprema inside the stated windows
    z = np.linspace(-0.5, 1.5, 1_000_001)
    zl = np.linspace(2.0, 5.0, 1_000_001)
    for sup, lofloor in [
        (np.abs(nor_gate_prime(z)).max(), (5.99, 6.0)),
        (np.abs(purify_gate_prime(z)).max(), (8.99, 9.0)),
        (np.abs(distance_threshold_prime(zl, 1)).max(), (1.49, 1.5)),
    ]:
        checks.append((lofloor[0] <= sup <= lofloor[1], f"supremum {sup} outside {lofloor}"))

    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 5.0, f"runtime {elapsed:.1f}s"))
    report(1, "gate suite", checks)


def test_criterion_2_gradient_triple_agreement():
    t0 = time.perf_counter()
    checks = []
    for name in ALL_SHAPES:
        inst = make_instance(name)
        rng = np.random.default_rng(42)
        worst_dual = 0.0
        worst_fd_ratio = 0.0
        for _ in range(100):
            p = random_point(inst, rng)
            ga = np.concatenate(eval_grad(inst, p))
            gb = np.concatenate(eval_grad_direct(inst, p))
            scale = max(np.abs(ga).max(), np.abs(gb).max(), 1.0)
            worst_dual = max(worst_dual, float(np.abs(ga - gb).max() / scale))
            fd = np.concatenate(finite_diff_grad(inst, p, h=1e-6))
            for g in (ga, gb):
                ratio = np.abs(g - fd) / np.maximum(1e-5 * np.abs(g), 1e-8)
                worst_fd_ratio = max(worst_fd_ratio, float(ratio.max()))
        checks.append((worst_dual <= 1e-12, f"{name}: dual error {worst_dual}"))
        checks.append((worst_fd_ratio <= 1.0, f"{name}: fd ratio {worst_fd_ratio}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s"))
    report(2, "gradient triple agreement", checks)


def test_criterion_3_structural_identities():
    checks = []
    rng = np.random.default_rng(7)
    for name in ALL_SHAPES:
        inst = make_instance(name)
        X = rng.uniform(0, 1, (334, inst.d))
        Y = rng.uniform(0, 1, (334, inst.d))
        GX, GY, _ = _grad_many(inst, X, Y)
        diff, dist_sq, _, H = _batch_parts(inst, X, Y)
        lam, lam_p = distance_threshold(dist_sq, inst.m, slope=True)
        s, _ = _node_aggregates(inst, lam, lam_p, H)
        want = (s.T[:, :, None, None] * (-diff @ inst.vi.D)).reshape(334, inst.d)
        err = np.abs(GX + GY - want).max() / max(1.0, np.abs(GX).max())
        checks.append((err <= 1e-12, f"{name}: sum identity error {err}"))

        # mirrored points: zero objective, zero noise, antisymmetric gradient
        x = rng.uniform(0, 1, inst.d)
        p = JointPoint(x, x.copy())
        diag = diagnostics(inst, p)
        gx, gy = eval_grad(inst, p)
        anti = np.abs(gx + gy).max() / max(1.0, np.abs(gx).max())
        checks.append((eval_f(inst, p) == 0.0, f"{name}: f nonzero on diagonal"))
        checks.append((np.all(diag.noise == 0.0), f"{name}: noise nonzero on diagonal"))
        checks.append((anti <= 1e-12, f"{name}: gx != -gy on diagonal"))
    report(3, "structural identities", checks)


def test_criterion_4_exhaustive_oracle():
    t0 = time.perf_counter()
    inst = make_instance("ring3-m1-n1")
    checks = []
    best = []
    for h in (0.5, 0.25, 0.125):
        rep = grid_search(inst, h).report
        best.append(rep.max_violation)
        bound = inst.bounds.L * np.sqrt(2 * inst.d) * h
        checks.append((rep.max_violation <= bound,
                       f"h={h}: violation {rep.max_violation} above {bound}"))
    checks.append((best[0] >= best[1] >= best[2], f"not monotone: {best}"))
    elapsed = time.perf_counter() - t0
    checks.append((elapsed < 120.0, f"runtime {elapsed:.1f}s"))
    report(4, "exhaustive grid oracle", checks)


def _certified_points():
    """Grid- and solver-certified stationary points across the shapes."""
    out = []
    inst = make_instance("ring3-m1-n1")
    for h in (0.5, 0.25, 0.125):
        res = grid_search(inst, h)
        out.append(("ring3-m1-n1 grid h=%s" % h, inst, res.report))
    for name in ("ring3-m2-n4", "tree6-m2-n8"):
        inst = make_instance(name)
        rng = np.random.default_rng(17)
        p0 = JointPoint(rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d))
        res = extragradient(inst, p0, SolverConfig(step=0.05, max_iters=4000,
                                                   restarts=2, seed=3))
        out.append((name + " extragradient", inst, res.report))
    return out


def test_criterion_5_lemma_audits():
    checks = []
    for label, inst, ev in _certified_points():
        audit = lemma_audit(inst, ev, ev.max_violation)
        checks.append((audit.coord_bound["holds"], f"{label}: coordinate bound"))
        checks.append((audit.l1_bound["holds"], f"{label}: l1 bound"))
        checks.append((audit.noise_bound["holds"], f"{label}: noise bound"))
    report(5, "lemma audits at certified points", checks)


def test_criterion_6_decoder_unit_suite():
    checks = []

    # planted LinVI witness detected at the right scan position
    inst = build_instance(gen_example("ring", 3, 0), PUSHY_VI,
                          GdaParams(n=2, epsilon=1e-3, delta=0.5))
    x = np.ones(inst.d)
    x[inst.index(1, 2, 0)] = 0.0
    out = decode(inst, record(inst, JointPoint(x, x.copy())))
    checks.append((isinstance(out, LinViWitness) and (out.q, out.i) == (1, 2),
                   "planted witness missed or misplaced"))

    # planted hand-verified ring-3 assignment (bot, 0, bot)
    inst3 = build_instance(gen_example("ring", 3, 0), PUSHY_VI,
                           GdaParams(n=4, epsilon=1e-3, delta=0.5))
    out = decode(inst3, record(inst3, place(inst3, [3.5, 0.0, 3.5])))
    checks.append((isinstance(out, PcAssignment)
                   and out.assignment.values == (Trit.BOT, Trit.ZERO, Trit.BOT),
                   "planted ring-3 assignment not recovered"))

    # NOR case analyses on a single-gate landscape
    nor_inst = build_instance(PureCircuitInstance(3, nor_gates=((0, 1, 2),)), PUSHY_VI,
                              GdaParams(n=4, epsilon=1e-3, delta=0.5), validate=False)
    p = place(nor_inst, [0.0, 0.0, 4.0])
    ok = (diagnostics(nor_inst, p).gate_value[2] == 1.0
          and decode(nor_inst, record(nor_inst, p)).assignment.values
          == (Trit.ZERO, Trit.ZERO, Trit.ONE))
    checks.append((ok, "NOR case: both inputs 0"))
    p = place(nor_inst, [4.0, 0.0, 0.0])
    ok = (diagnostics(nor_inst, p).gate_value[2] == 0.0
          and decode(nor_inst, record(nor_inst, p)).assignment.values
          == (Trit.ONE, Trit.ZERO, Trit.ZERO))
    checks.append((ok, "NOR case: one input high"))
    ok = all(isinstance(decode(nor_inst, record(nor_inst, place(nor_inst, [3.5, 0.0, dd]))),
                        PcAssignment) for dd in (0.0, 3.5, 4.0))
    checks.append((ok, "NOR case: undecided input leaves output free"))

    # PURIFY case analyses
    pur_inst = build_instance(PureCircuitInstance(3, purify_gates=((0, 1, 2),)), PUSHY_VI,
                              GdaParams(n=4, epsilon=1e-3, delta=0.5), validate=False)
    p = place(pur_inst, [4.0, 4.0, 4.0])
    d = diagnostics(pur_inst, p)
    checks.append((d.gate_value[1] == 1.0 and d.gate_value[2] == 1.0
                   and decode(pur_inst, record(pur_inst, p)).assignment.values == (Trit.ONE,) * 3,
                   "PURIFY case: high input"))
    p = place(pur_inst, [0.0, 0.0, 0.0])
    d = diagnostics(pur_inst, p)
    checks.append((d.gate_value[1] == 0.0 and d.gate_value[2] == 0.0
                   and decode(pur_inst, record(pur_inst, p)).assignment.values == (Trit.ZERO,) * 3,
                   "PURIFY case: low input"))
    ok = True
    for dd in (3.2, 3.5, 3.8):
        d = diagnostics(pur_inst, place(pur_inst, [dd, 4.0, 0.0]))
        ok = ok and (d.gate_value[1] == 1.0 or d.gate_value[2] == 0.0)
    checks.append((ok, "PURIFY case: undecided input yields a pure output"))

    report(6, "decoder unit suite", checks)


def test_criterion_7_parameter_formulas():
    checks = []
    p = paper_params(1, 1, 1)
    checks.append((p.n == Fraction(2**64), f"n = {p.n} for the unit case"))
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(1, 7))
        kappa = int(rng.integers(1, 9))
        rho = Fraction(int(rng.integers(1, 100)), 100)
        q = paper_params(m, kappa, rho)
        checks.append((q.delta == rho**2 / Fraction(2**10 * m**2),
                       f"delta formula at ({m},{kappa},{rho})"))
        flags = parameter_premises(q.n, q.epsilon, q.delta, m, kappa, rho)
        checks.append((all(flags.values()), f"premises at ({m},{kappa},{rho}): {flags}"))
    report(7, "exact parameter formulas", checks)


def test_criterion_8_linvi_oracle():
    checks = []
    h = 0.01
    lower = LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([1.0]), rho=0.1)
    interior = LinVIInstance(m=1, D=np.array([[-1.0]]), c=np.array([0.5]), rho=0.1)
    z0 = brute_force_solve(lower, h)
    z5 = brute_force_solve(interior, h)
    checks.append((abs(z0[0] - 0.0) <= h, f"lower-face solve returned {z0}"))
    checks.append((abs(z5[0] - 0.5) <= h, f"interior solve returned {z5}"))
    checks.append((check_solution(lower, z0, rho=3 * h).passed, "lower-face check"))
    checks.append((check_solution(interior, z5, rho=3 * h).passed, "interior check"))
    report(8, "brute-force LinVI oracle", checks)


def test_criterion_9_reproducibility(tmp_path):
    checks = []
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["pipeline", "--seed", "11", "--pc-size", "4", "--m", "1", "--n", "4",
             "--iters", "500", "--no-timings"]
    code_a = cli.main(flags + ["--out", str(a)])
    code_b = cli.main(flags + ["--out", str(b)])
    checks.append((code_a == 0 and code_b == 0, f"pipeline exit codes {code_a}, {code_b}"))
    checks.append((a.read_bytes() == b.read_bytes(), "reports differ between runs"))

    # JSON round-trip identity for every persisted type
    pc = gen_example("purify_tree", 7, 3)
    vi = gen_random(2, 9)
    params_custom = GdaParams(n=4, epsilon=1e-3, delta=1 / 3)
    params_paper = paper_params(2, 3, Fraction(1, 3))
    inst = build_instance(pc, vi, params_custom)
    rng = np.random.default_rng(1)
    point = JointPoint(rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d))
    assignment = Assignment((Trit.ZERO, Trit.ONE, Trit.BOT))
    for obj, cls in [
        (pc, PureCircuitInstance), (vi, LinVIInstance),
        (params_custom, GdaParams), (params_paper, GdaParams),
        (inst, GdaInstance), (point, JointPoint), (assignment, Assignment),
    ]:
        blob = json.dumps(obj.to_json_dict(), sort_keys=True)
        back = cls.from_json_dict(json.loads(blob))
        same = json.dumps(back.to_json_dict(), sort_keys=True) == blob
        checks.append((same, f"round trip failed for {cls.__name__}"))
    report(9, "reproducibility and round trips", checks)
