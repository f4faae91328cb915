import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_instance, random_point
from gdacube.gates import (
    distance_threshold,
    distance_threshold_prime,
    nor_gate,
    nor_gate_prime,
    purify_gate,
    purify_gate_prime,
)
from gdacube.lin_vi import LinVIInstance, gen_random
from gdacube.pure_circuit import PureCircuitInstance, gen_example
from gdacube.reduction import (
    CapExceededError,
    GdaInstance,
    GdaParams,
    JointPoint,
    ValidationError,
    build_instance,
    diagnostics,
    eval_f,
    eval_grad,
    eval_grad_direct,
    finite_diff_grad,
    paper_params,
    parameter_premises,
)
from gdacube import reduction
from gdacube.reduction import _batch_parts, _f_many, _field_many, _links, _node_aggregates
from gdacube import solver
from gdacube.solver import SolverConfig, check_stationary, extragradient, grid_search

RING3 = gen_example("ring", 3, 0)


def rel_err(a, b):
    den = max(np.abs(a).max(), np.abs(b).max(), 1.0)
    return np.abs(a - b).max() / den


# ---------------------------------------------------------------- parameters

def test_paper_params_pinned_unit_case():
    p = paper_params(1, 1, 1)
    assert p.n == Fraction(2**64)
    assert p.delta == Fraction(1, 2**10)
    assert p.epsilon == Fraction(1, 2**140)
    assert p.mode == "paper"
    assert set(p.to_json_dict()) == {"n", "epsilon", "delta", "mode"}


def test_paper_params_pinned_delta_case():
    p = paper_params(2, 3, Fraction(1, 2))
    assert p.delta == Fraction(1, 2**14)
    assert p.n == Fraction(9 * 2**86)


def test_paper_params_premises_hold_exactly():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        kappa = int(rng.integers(1, 8))
        rho = Fraction(int(rng.integers(1, 50)), 50)
        p = paper_params(m, kappa, rho)
        assert p.delta == rho**2 / Fraction(2**10 * m**2)
        flags = parameter_premises(p.n, p.epsilon, p.delta, m, kappa, rho)
        assert all(flags.values()), flags
        assert p.epsilon <= p.delta / p.n


def test_paper_params_rejects_bad_arguments():
    with pytest.raises(ValueError):
        paper_params(0, 1, 1)
    with pytest.raises(ValueError):
        paper_params(1, 1, 2)
    with pytest.raises(ValueError):
        paper_params(1, 1, 0)


def test_custom_params_validation():
    with pytest.raises(ValueError):
        GdaParams(n=0, epsilon=1e-3, delta=0.5)
    with pytest.raises(ValueError):
        GdaParams(n=1, epsilon=0.0, delta=0.5)
    with pytest.raises(ValueError):
        GdaParams(n=1, epsilon=1e-3, delta=0.5, mode="weird")
    for n in (4.7, float("inf"), float("nan"), "4"):
        with pytest.raises(ValueError):
            GdaParams(n=n, epsilon=1e-3, delta=0.5)
    assert GdaParams(n=4.0, epsilon=1e-3, delta=0.5).n == 4
    for bad in (True, False, "0.001", None, [1]):
        for field in ("n", "epsilon", "delta"):
            kwargs = {"n": 2, "epsilon": 1e-3, "delta": 0.5, field: bad}
            with pytest.raises(ValueError, match=f"{field} must be a real number"):
                GdaParams(**kwargs)
    for eps, delta in ((float("inf"), 0.5), (1e-3, float("inf")), (float("inf"),) * 2):
        with pytest.raises(ValueError, match="finite"):
            GdaParams(n=2, epsilon=eps, delta=delta)


# ------------------------------------------------------------------ building

def test_build_pinned_grid_n2():
    inst = build_instance(RING3, gen_random(1, 5), GdaParams(n=2, epsilon=1e-3, delta=0.5))
    assert inst.d == 6
    np.testing.assert_allclose(inst.M, [0.0, 0.5])


def test_build_pinned_grid_n4():
    inst = build_instance(RING3, gen_random(1, 5), GdaParams(n=4, epsilon=1e-3, delta=0.1))
    np.testing.assert_allclose(inst.M, [-0.1, 0.0, 0.1, 0.2])


def test_build_refuses_paper_scale():
    with pytest.raises(CapExceededError):
        build_instance(RING3, gen_random(2, 0), paper_params(2, 3, Fraction(1, 2)))
    # paper mode is refused outright, however small its numbers
    tiny = GdaParams(n=Fraction(9, 2), epsilon=Fraction(1, 1000), delta=Fraction(1, 2),
                     mode="paper")
    with pytest.raises(CapExceededError, match="paper-mode"):
        build_instance(RING3, gen_random(1, 0), tiny)
    with pytest.raises(CapExceededError):
        build_instance(RING3, gen_random(1, 0), GdaParams(n=10**8, epsilon=1e-3, delta=0.5))


def test_build_refuses_invalid_circuit():
    broken = PureCircuitInstance(3, nor_gates=((0, 1, 2),))
    with pytest.raises(ValidationError):
        build_instance(broken, gen_random(1, 0), GdaParams(n=1, epsilon=1e-3, delta=0.5))


def test_index_bijection():
    inst = make_instance("ring3-m2-n4")
    assert inst.index(0, 1, 0) == 0
    assert inst.index(inst.kappa - 1, inst.n, inst.m - 1) == inst.d - 1
    rng = np.random.default_rng(0)
    for _ in range(1000):
        q = int(rng.integers(0, inst.kappa))
        i = int(rng.integers(1, inst.n + 1))
        j = int(rng.integers(0, inst.m))
        assert inst.unindex(inst.index(q, i, j)) == (q, i, j)
    with pytest.raises(ValueError):
        inst.index(0, 0, 0)
    with pytest.raises(ValueError):
        inst.unindex(inst.d)


# ------------------------------------------------------- objective & gradient

def naive_eval_f(inst, x, y):
    """Straight-from-the-formula evaluator: pure Python, own gate polynomials."""
    def g(z):
        if z <= 0.25:
            return 1.0
        if z >= 0.5:
            return 0.0
        t = z - 0.25
        return 128 * t**3 - 48 * t**2 + 1

    def ell(z):
        if z <= 5 / 12:
            return 0.0
        if z >= 7 / 12:
            return 1.0
        return 144 * (z - 5 / 12) ** 2 * (2 - 3 * z)

    def lam(z):
        if z <= 3 * inst.m:
            return 0.0
        if z >= 3 * inst.m + 1:
            return 1.0
        t = z - 3 * inst.m
        return -2 * t**3 + 3 * t**2

    D, c = inst.vi.D, inst.vi.c
    def coord(vec, q, i, j):
        return vec[(q * inst.n + (i - 1)) * inst.m + j]

    def dist_sq(q):
        return sum((coord(x, q, i, j) - coord(y, q, i, j)) ** 2
                   for i in range(1, inst.n + 1) for j in range(inst.m))

    def H(q):
        total = 0.0
        for i in range(1, inst.n + 1):
            for j in range(inst.m):
                op = sum(D[j, k] * coord(x, q, i, k) for k in range(inst.m)) + c[j]
                total += op * (coord(y, q, i, j) - coord(x, q, i, j))
        return total

    f = 0.0
    for u, v, w in inst.pc.nor_gates:
        f += g(lam(dist_sq(u)) + lam(dist_sq(v))) * H(w)
    for u, v, w in inst.pc.purify_gates:
        f += ell(lam(dist_sq(u)) + 0.25) * H(v)
        f += ell(lam(dist_sq(u)) - 0.25) * H(w)
    for q in range(inst.kappa):
        for i in range(1, inst.n + 1):
            for j in range(inst.m):
                f += inst.M[i - 1] * (coord(x, q, i, j) - coord(y, q, i, j)) ** 2
    return f


@pytest.mark.parametrize("name", ["ring3-m1-n1", "ring3-m2-n4", "tree6-m2-n8"])
def test_eval_f_matches_naive_evaluator(name, shape_instances):
    inst = shape_instances[name]
    rng = np.random.default_rng(42)
    for _ in range(5):
        p = random_point(inst, rng)
        assert abs(eval_f(inst, p) - naive_eval_f(inst, p.x, p.y)) <= 1e-12


def test_f_vanishes_on_diagonal(shape_instances):
    rng = np.random.default_rng(1)
    for inst in shape_instances.values():
        x = rng.uniform(0, 1, inst.d)
        p = JointPoint(x, x.copy())
        assert eval_f(inst, p) == 0.0
        diag = diagnostics(inst, p)
        assert np.all(diag.link == 0.0)
        assert np.all(diag.noise == 0.0)
        gx, gy = eval_grad(inst, p)
        assert rel_err(gx, -gy) <= 1e-12


def test_regularizer_only_single_vertex_toy():
    # one vertex, no gates: f reduces to the weighted squared difference
    pc = PureCircuitInstance(1)
    vi = LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([1.0]), rho=0.1)
    inst = build_instance(pc, vi, GdaParams(n=1, epsilon=1e-3, delta=0.5), validate=False)
    p = JointPoint(np.array([0.8]), np.array([0.3]))
    # s-terms absent: f = M_1 (x - y)^2 with M_1 = delta/2
    assert eval_f(inst, p) == pytest.approx(0.25 * 0.5**2, abs=1e-15)
    inst2 = build_instance(pc, vi, GdaParams(n=2, epsilon=1e-3, delta=0.5), validate=False)
    p2 = JointPoint(np.array([0.8, 0.1]), np.array([0.3, 0.9]))
    expected = inst2.M[0] * 0.5**2 + inst2.M[1] * (-0.8) ** 2
    assert eval_f(inst2, p2) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("name", ["ring3-m1-n1", "ring3-m2-n4", "tree6-m2-n8"])
def test_gradient_dual_path_agreement(name, shape_instances):
    # 334 points x 3 shapes: the identity is exercised on 1000+ points
    inst = shape_instances[name]
    rng = np.random.default_rng(7)
    for _ in range(334):
        p = random_point(inst, rng)
        gx_a, gy_a = eval_grad(inst, p)
        gx_b, gy_b = eval_grad_direct(inst, p)
        assert rel_err(gx_a, gx_b) <= 1e-12
        assert rel_err(gy_a, gy_b) <= 1e-12


@pytest.mark.parametrize("name", ["ring3-m1-n1", "ring3-m2-n4", "tree6-m2-n8"])
def test_gradient_matches_finite_differences(name, shape_instances):
    inst = shape_instances[name]
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = random_point(inst, rng)
        fx, fy = finite_diff_grad(inst, p)
        for gx, gy in (eval_grad(inst, p), eval_grad_direct(inst, p)):
            for got, want in ((gx, fx), (gy, fy)):
                tol = np.maximum(1e-5 * np.abs(got), 1e-8)
                assert np.all(np.abs(got - want) <= tol)


def _unchunked_finite_diff(inst, p, h=1e-6):
    """All 2k perturbed copies in one (2k, k) matrix: the O(d^2) reference."""
    base = np.concatenate([p.x, p.y])
    k = base.size
    P = np.repeat(base[None, :], 2 * k, axis=0)
    idx = np.arange(k)
    P[2 * idx, idx] += h
    P[2 * idx + 1, idx] -= h
    vals = _f_many(inst, P[:, : inst.d], P[:, inst.d:])
    g = (vals[0::2] - vals[1::2]) / (2.0 * h)
    return g[: inst.d], g[inst.d:]


# k = 2d = 192 joint coordinates, each moved to two rows of
# max(kappa n, n m) = 48 elements: chunks of 1, 7 (a ragged last chunk), 64
# and all 192 coordinates
@pytest.mark.parametrize("elems", [96, 7 * 96, 64 * 96, 1 << 20])
def test_finite_diff_chunks_match_one_batch(shape_instances, monkeypatch, elems):
    inst = shape_instances["tree6-m2-n8"]
    monkeypatch.setattr(reduction, "FD_CHUNK_ELEMS", elems)
    rng = np.random.default_rng(2)
    for _ in range(3):
        p = random_point(inst, rng)
        for got, want in zip(finite_diff_grad(inst, p), _unchunked_finite_diff(inst, p)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("h", [1e-300, 1e-17])
def test_finite_diff_refuses_a_step_lost_in_rounding(shape_instances, h):
    # z + h == z for some coordinate z, so every difference would read 0
    inst = shape_instances["ring3-m2-n4"]
    p = random_point(inst, np.random.default_rng(4))
    with pytest.raises(ValueError, match="lost in rounding"):
        finite_diff_grad(inst, p, h=h)


@pytest.mark.parametrize("h", [0.0, np.nan, np.inf])
def test_finite_diff_refuses_a_step_that_is_not_finite_and_positive(shape_instances, h):
    inst = shape_instances["ring3-m2-n4"]
    p = random_point(inst, np.random.default_rng(4))
    with pytest.raises(ValueError, match="must be finite and positive"):
        finite_diff_grad(inst, p, h=h)


def test_finite_diff_memory_is_bounded():
    # d = 1024: the unchunked (4d, 2d) batch and its temporaries need ~170 MB;
    # chunks of 2^18 table elements (2 MiB) peak at ~3.8 MB
    inst = build_instance(gen_example("purify_tree", 64, 1), gen_random(2, 2),
                          GdaParams(n=8, epsilon=1e-3, delta=0.25))
    p = random_point(inst, np.random.default_rng(0))
    tracemalloc.start()
    try:
        finite_diff_grad(inst, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_grid_chunk_gradient_memory_is_bounded():
    # one grid_search chunk at the grid benchmark's shape (ring-4, m = n = 1,
    # d = 4): each (65536, 4) array is 2 MiB, so keeping two more gate tables
    # alive than needed shows; the gate-table core peaked at 24.0 MiB
    inst = build_instance(gen_example("ring", 4, 0), gen_random(1, 0),
                          GdaParams(n=1, epsilon=1e-3, delta=0.5))
    assert inst.d == 4
    rng = np.random.default_rng(0)
    X, Y = rng.uniform(0, 1, (2, 65536, inst.d))
    tracemalloc.start()
    try:
        _field_many(inst, X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 25 * 2**20


@pytest.mark.parametrize("name", ["ring3-m1-n1", "ring3-m2-n4", "tree6-m2-n8"])
def test_gradient_sum_identity(name, shape_instances):
    # adding the two gradient lines cancels everything except the
    # transposed-operator term scaled by the gate value
    inst = shape_instances[name]
    rng = np.random.default_rng(13)
    for _ in range(20):
        p = random_point(inst, rng)
        gx, gy = eval_grad(inst, p)
        diag = diagnostics(inst, p)
        diff = (p.x - p.y).reshape(inst.kappa, inst.n, inst.m)
        want = (diag.gate_value[:, None, None] * (-diff @ inst.vi.D)).reshape(inst.d)
        assert rel_err(gx + gy, want) <= 1e-12


def test_operator_terms_bounded_by_3m(shape_instances):
    rng = np.random.default_rng(17)
    for inst in shape_instances.values():
        for _ in range(50):
            p = random_point(inst, rng)
            x = p.x.reshape(inst.kappa, inst.n, inst.m)
            y = p.y.reshape(inst.kappa, inst.n, inst.m)
            dx_c = x @ inst.vi.D.T + inst.vi.c
            d1 = (y - x) @ inst.vi.D - dx_c
            assert np.abs(d1).max() <= 3 * inst.m
            assert np.abs(dx_c).max() <= 3 * inst.m


def test_emitted_bounds_hold_on_samples(shape_instances):
    rng = np.random.default_rng(19)
    for inst in shape_instances.values():
        for _ in range(200):
            p = random_point(inst, rng)
            assert abs(eval_f(inst, p)) <= inst.bounds.B
            gx, gy = eval_grad(inst, p)
            assert max(np.abs(gx).max(), np.abs(gy).max()) <= inst.bounds.G
        # smoothness: sampled gradient difference quotients
        for _ in range(50):
            a = random_point(inst, rng)
            b = random_point(inst, rng)
            ga = np.concatenate(eval_grad(inst, a))
            gb = np.concatenate(eval_grad(inst, b))
            dist = np.linalg.norm(np.concatenate([a.x - b.x, a.y - b.y]))
            if dist > 1e-12:
                assert np.linalg.norm(ga - gb) / dist <= inst.bounds.L


def test_batched_paths_match_single_point(shape_instances):
    inst = shape_instances["tree6-m2-n8"]
    rng = np.random.default_rng(23)
    X = rng.uniform(0, 1, (16, inst.d))
    Y = rng.uniform(0, 1, (16, inst.d))
    F = _f_many(inst, X, Y)
    field, _ = _field_many(inst, X, Y)
    for b in range(16):
        p = JointPoint(X[b], Y[b])
        assert abs(F[b] - eval_f(inst, p)) <= 1e-12
        gx, gy = eval_grad(inst, p)
        assert np.array_equal(field[b, :inst.d], gx)
        assert np.array_equal(field[b, inst.d:], np.negative(gy))


def test_diagnostics_gate_values(shape_instances):
    # equal blocks on the inputs of a NOR gate force its output value to 1
    inst = shape_instances["ring3-m2-n4"]
    x = np.full(inst.d, 0.4)
    p = JointPoint(x, x.copy())
    diag = diagnostics(inst, p)
    (u, v, w) = inst.pc.nor_gates[0]
    assert diag.gate_value[w] == 1.0  # nor_gate(0) with both levels at 0
    assert diag.bit[u] == 0.0 and diag.bit[v] == 0.0
    assert np.all(diag.gate_value >= 0.0) and np.all(diag.gate_value <= 1.0)


def test_diagnostics_purify_saturation():
    # a saturated input level pushes both duplication outputs to 1
    pc = gen_example("ring", 3, 0)
    vi = gen_random(1, 5)
    inst = build_instance(pc, vi, GdaParams(n=4, epsilon=1e-3, delta=0.5))
    x = np.zeros(inst.d)
    y = np.zeros(inst.d)
    x[:4] = 1.0  # vertex 0 distance 4 = 3m+1 -> level 1
    diag = diagnostics(inst, JointPoint(x, y))
    (_u, v, w) = inst.pc.purify_gates[0]
    assert diag.bit[0] == 1.0
    assert diag.gate_value[v] == 1.0  # purify_gate(1 + 1/4)
    assert diag.gate_value[w] == 1.0  # purify_gate(1 - 1/4)


def test_gate_less_circuit_has_float_noise():
    # no gate feeds either vertex, so each noise sum has no term at all
    inst = build_instance(PureCircuitInstance(2), gen_random(1, 0),
                          GdaParams(n=1, epsilon=1e-3, delta=0.5), validate=False)
    diag = diagnostics(inst, JointPoint(np.array([0.2, 0.9]), np.array([0.7, 0.1])))
    assert diag.noise.dtype == np.float64
    assert np.array_equal(diag.noise, [0.0, 0.0]) and not np.signbit(diag.noise).any()
    assert json.dumps(diag.to_json_dict()["noise"]) == "[0.0, 0.0]"


# ------------------------------------------- gate tables vs the per-gate loop

def loop_node_aggregates(inst, dist_sq, lam, H):
    """Reference: gate values and noise, one gate at a time in gate order.

    Takes and returns batch-major (B, kappa) tables; the tables under test
    are vertex-major (kappa, B), so callers transpose between the two.
    """
    B = lam.shape[0]
    s = np.zeros((B, inst.kappa))
    noise = np.zeros((B, inst.kappa))
    lam_p = distance_threshold_prime(dist_sq, inst.m)
    for u, v, w in inst.pc.nor_gates:
        a = lam[:, u] + lam[:, v]
        s[:, w] = nor_gate(a)
        gp = nor_gate_prime(a)
        noise[:, u] += gp * lam_p[:, u] * H[:, w]
        noise[:, v] += gp * lam_p[:, v] * H[:, w]
    for u, v, w in inst.pc.purify_gates:
        a = lam[:, u]
        s[:, v] = purify_gate(a + 0.25)
        s[:, w] = purify_gate(a - 0.25)
        noise[:, u] += (purify_gate_prime(a + 0.25) * H[:, v]
                        + purify_gate_prime(a - 0.25) * H[:, w]) * lam_p[:, u]
    return s, noise


def loop_f_many(inst, X, Y):
    """Reference objective: gate terms added one gate at a time."""
    diff, dist_sq, dx_c = _batch_parts(inst, X, Y)
    dist_sq, H = dist_sq.T, _links(diff, dx_c).T
    lam = distance_threshold(dist_sq, inst.m)
    total = np.zeros(X.shape[0])
    for u, v, w in inst.pc.nor_gates:
        total += nor_gate(lam[:, u] + lam[:, v]) * H[:, w]
    for u, v, w in inst.pc.purify_gates:
        total += purify_gate(lam[:, u] + 0.25) * H[:, v]
        total += purify_gate(lam[:, u] - 0.25) * H[:, w]
    total += np.einsum("n,bqn->b", inst.M, (diff**2).sum(axis=3))
    return total


def loop_tables(inst, X, Y):
    """Reference vertex tables of a (B, d) batch from per-point formulas and
    the loop above: gate values, noise, links, squared and l1 distances and
    levels, each a vertex-major (kappa, B) array."""
    shape = (len(X), inst.kappa, inst.n, inst.m)
    x, y = X.reshape(shape), Y.reshape(shape)
    diff = x - y
    dist_sq = np.einsum("bqnm,bqnm->bq", diff, diff)
    lam = distance_threshold(dist_sq, inst.m)
    H = np.einsum("bqnm,bqnm->bq", x @ inst.vi.D.T + inst.vi.c, -diff)
    s, noise = loop_node_aggregates(inst, dist_sq, lam, H)
    return tuple(map(vertex_major, (s, noise, H, dist_sq, np.abs(diff).sum(axis=(2, 3)), lam)))


# the fields of NodeDiagnostics in the order of loop_tables
DIAGNOSTICS = ("gate_value", "noise", "link", "dist_sq", "dist_l1", "bit")


def assert_field_pass_matches_the_loop(inst, X, Y, records=None):
    """The joint field [gx | -gy] and the tables of ``_field_many``, and the
    field and diagnostics of the record of each row in ``records`` (every
    row by default), equal those of the per-gate loop bit for bit, sign of
    zero included; returns the pass's levels and its (gate values, noise,
    links), None for a flat pass."""
    F, (diff, dx_c, dist_sq, lam, nodes) = _field_many(inst, X, Y)
    want = loop_tables(inst, X, Y)
    s, noise, H, loop_dist_sq, _, loop_lam = want
    GX, GY = assembled_grad(inst, X, Y, s, noise)
    field = np.concatenate((GX, np.negative(GY)), axis=1)
    assert bit_equal(F, field)
    assert bit_equal(diff, (X - Y).reshape(diff.shape))
    assert bit_equal(dx_c, _batch_parts(inst, X, Y)[2])
    assert bit_equal(dist_sq, loop_dist_sq) and bit_equal(lam, loop_lam)
    if nodes is None:  # only a pass whose every level is 0 skips the gate layer
        assert not lam.any()
    else:
        assert all(bit_equal(g, w) for g, w in zip(nodes, (s, noise, H)))
    for b in range(len(X)) if records is None else records:
        p = JointPoint(X[b], Y[b])
        row, diag = reduction._evaluate(inst, p)
        record = check_stationary(inst, p, 0.0).diagnostics
        assert bit_equal(row, field[b])
        assert all(bit_equal(g, w) for g, w in zip(eval_grad(inst, p), (GX[b], GY[b])))
        for got in (diag, record, diagnostics(inst, p)):
            assert all(bit_equal(getattr(got, f), w[:, b]) for f, w in zip(DIAGNOSTICS, want))
        # a flat record's gate values are a view of the instance's table,
        # which no caller may write into
        assert record.gate_value.flags.writeable == bool(lam[:, b].any())
    return lam, nodes


def bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def vertex_major(table):
    """A batch-major (B, kappa) table in the forward path's (kappa, B) layout."""
    return np.ascontiguousarray(table.T)


# Vertex 0 receives five noise terms (five scatter passes), two of them
# from one gate, and feeds back into the gate that produces it.
TANGLED = PureCircuitInstance(
    5, nor_gates=((0, 0, 1), (0, 1, 0), (0, 2, 3)),
    purify_gates=((0, 2, 4),))


@st.composite
def loose_circuits(draw):
    """Circuits built with validate=False: each vertex is the output of at
    most one gate, and any vertex, the gate's own output included, may be
    an input."""
    kappa = draw(st.integers(1, 10))
    outputs = draw(st.permutations(range(kappa)))
    n_purify = draw(st.integers(0, kappa // 2))
    n_nor = draw(st.integers(0, kappa - 2 * n_purify))
    vertex = st.integers(0, kappa - 1)
    purify = [(draw(vertex), outputs[2 * g], outputs[2 * g + 1]) for g in range(n_purify)]
    nor = [(draw(vertex), draw(vertex), w)
           for w in outputs[2 * n_purify:2 * n_purify + n_nor]]
    return PureCircuitInstance(kappa, tuple(nor), tuple(purify))


def flat_batch(inst, rng, B):
    """Random rows with every block distance at most 3m, so every level is 0;
    with n >= 3, one block of row 0 sits exactly at 3m."""
    X = rng.uniform(0, 1, (B, inst.d))
    r = min(1.0, 0.99 * np.sqrt(3.0 / inst.n))  # n m r^2 < 3m
    Y = np.clip(X + rng.uniform(-r, r, X.shape), 0.0, 1.0)
    if inst.n >= 3:
        q = rng.integers(inst.kappa)
        bx, by = X[0].reshape(inst.kappa, -1)[q], Y[0].reshape(inst.kappa, -1)[q]
        by[:] = bx
        bx[:3 * inst.m], by[:3 * inst.m] = 1.0, 0.0
    return X, Y


def ramp_row(inst, rng):
    """One point whose only moved block lies at distance 3m + 0.3^2 (level
    0.216, inside the ramp); needs n >= 4, so that n m > 3m."""
    x = rng.uniform(0, 1, inst.d)
    y = x.copy()
    q = rng.integers(inst.kappa)
    bx, by = x.reshape(inst.kappa, -1)[q], y.reshape(inst.kappa, -1)[q]
    bx[:3 * inst.m + 1] = 1.0
    by[:3 * inst.m], by[3 * inst.m] = 0.0, 0.7
    return x, y


def assembled_grad(inst, X, Y, s, noise):
    """Reference: the gradient formula of ``eval_grad`` at (kappa, B) gate
    values s and noise, with the forward path's operation order."""
    diff, _, dx_c = _batch_parts(inst, X, Y)
    reg = 2.0 * (inst.M[None, None, :, None] + noise.T[:, :, None, None]) * diff
    s4 = s.T[:, :, None, None]
    GX = s4 * (reduction._blocks_times(diff, np.negative(inst.vi.D)) - dx_c) + reg
    GY = s4 * dx_c - reg
    return GX.reshape(-1, inst.d), GY.reshape(-1, inst.d)


def batch_near_ramps(inst, rng, B):
    """Random rows; every other row sets each block distance near the ramp 3m..3m+1."""
    X = rng.uniform(0, 1, (B, inst.d))
    Y = rng.uniform(0, 1, (B, inst.d))
    k = inst.n * inst.m
    target = rng.uniform(2.8 * inst.m, 3.4 * inst.m + 1, (B, inst.kappa, 1))
    shift = np.sqrt(np.minimum(target / k, 1.0))
    near = shift + (1.0 - shift) * rng.uniform(0, 1, (B, inst.kappa, k))
    X[::2] = near.reshape(B, inst.d)[::2]
    Y[::2] = (near - shift).reshape(B, inst.d)[::2]
    return X, Y


def equal_blocks(inst, rng, X, Y):
    """Copies of X, Y with y = x on about half of the vertex blocks of every
    row, where x - y is +0.0 and the field holds zeros of either sign."""
    Y = Y.copy()
    same = np.repeat(rng.uniform(0, 1, (len(X), inst.kappa)) < 0.5, inst.n * inst.m, axis=1)
    Y[same] = X[same]
    return X.copy(), Y


def grid_tile(inst, rng, k=2):
    """One tile of ``grid_search``'s sweep at h = 1/k: its last t joint
    coordinates run over every grid value, the leading ones are fixed."""
    width = 2 * inst.d
    t = 1
    while t < width and (k + 1) ** (t + 1) * width <= solver.GRID_BLOCK_ELEMS:
        t += 1
    vals = np.linspace(0.0, 1.0, k + 1)
    P = np.empty(((k + 1) ** t, width))
    P[:, width - t:] = vals[np.indices((k + 1,) * t).reshape(t, -1).T]
    P[:, :width - t] = vals[rng.integers(0, k + 1, width - t)]
    return P[:, :inst.d], P[:, inst.d:]


@settings(max_examples=60, deadline=None)
@given(pc=loose_circuits(), m=st.integers(1, 3), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(pc=TANGLED, m=1, n=4, seed=0)
@example(pc=gen_example("ring", 16, 0), m=2, n=8, seed=1)
@example(pc=gen_example("purify_tree", 9, 3), m=1, n=4, seed=2)
@example(pc=TANGLED, m=2, n=1, seed=3)  # one-row blocks: the stacked product
@example(pc=PureCircuitInstance(4, nor_gates=((0, 1, 2),)), m=3, n=4, seed=4)  # no producer
def test_gate_tables_match_the_per_gate_loop(pc, m, n, seed):
    inst = build_instance(pc, gen_random(m, seed % 97), GdaParams(n=n, epsilon=1e-3, delta=0.5),
                          validate=False)
    rng = np.random.default_rng(seed)
    for B in (1, 2, 7):
        # free-standing levels inside the ramps make every noise term nonzero,
        # so a sum taken in another order shows in the last bits
        synthetic = (3 * m + rng.uniform(-0.2, 1.2, (B, pc.kappa)),
                     rng.uniform(0.0, 0.9, (B, pc.kappa)), rng.normal(size=(B, pc.kappa)))
        dist_sq, lam, H = synthetic
        got = _node_aggregates(inst, *map(vertex_major, (
            lam, distance_threshold_prime(dist_sq, m), H)))
        want = loop_node_aggregates(inst, *synthetic)
        assert bit_equal(got[0].T, want[0]) and bit_equal(got[1].T, want[1])
        X, Y = batch_near_ramps(inst, rng, B)
        diff, dist_sq, dx_c = _batch_parts(inst, X, Y)
        H = _links(diff, dx_c)
        assert dist_sq.shape == H.shape == (pc.kappa, B)
        lam, lam_p = distance_threshold(dist_sq, m, slope=True)
        got = _node_aggregates(inst, lam, lam_p, H)
        want = loop_node_aggregates(inst, dist_sq.T, lam.T, H.T)
        assert bit_equal(got[0].T, want[0]) and bit_equal(got[1].T, want[1])
        assert bit_equal(_f_many(inst, X, Y), loop_f_many(inst, X, Y))
        assert_field_pass_matches_the_loop(inst, X, Y)
        assert_field_pass_matches_the_loop(inst, *equal_blocks(inst, rng, X, Y))
        # every level 0 (one block exactly at 3m when n >= 3): the gradient
        # pass reads the flat gate table, with the bits of the general path
        X, Y = flat_batch(inst, rng, B)
        for X, Y in ((X, Y), equal_blocks(inst, rng, X, Y)):
            lam, nodes = assert_field_pass_matches_the_loop(inst, X, Y)
            assert nodes is None
    # a tile of the grid sweep, flat or not, with the records of a few rows
    X, Y = grid_tile(inst, rng)
    assert_field_pass_matches_the_loop(inst, X, Y, rng.choice(len(X), 3, replace=False))
    if n >= 4:
        # flat rows batched with rows inside the ramp take the general path
        X, Y = flat_batch(inst, rng, 2)
        ramps = [ramp_row(inst, rng) for _ in range(2)]
        X = np.stack((X[0], ramps[0][0], X[1], ramps[1][0]))
        Y = np.stack((Y[0], ramps[0][1], Y[1], ramps[1][1]))
        lam, nodes = assert_field_pass_matches_the_loop(inst, X, Y)
        assert not lam[:, 0::2].any()
        assert ((lam[:, 1::2] > 0) & (lam[:, 1::2] < 1)).any(axis=0).all()
        assert nodes is not None and nodes[0].flags.writeable
        assert_field_pass_matches_the_loop(inst, *equal_blocks(inst, rng, X, Y))


@settings(max_examples=60, deadline=None)
@given(pc=loose_circuits(), m=st.integers(1, 3), n=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1))
@example(pc=TANGLED, m=1, n=4, seed=0)
@example(pc=TANGLED, m=2, n=1, seed=1)
@example(pc=gen_example("purify_tree", 9, 3), m=3, n=1, seed=2)
@example(pc=PureCircuitInstance(1), m=2, n=3, seed=3)  # no gate term to sum
def test_finite_diff_matches_one_batch_on_loose_circuits(pc, m, n, seed):
    inst = build_instance(pc, gen_random(m, seed % 97), GdaParams(n=n, epsilon=1e-3, delta=0.5),
                          validate=False)
    rng = np.random.default_rng(seed)
    X, Y = batch_near_ramps(inst, rng, 4)
    # in the last two points about a quarter of the coordinates sit on the
    # box faces 0 and 1, where z + h or z - h leaves the box
    faces = rng.uniform(0, 1, (2, inst.d)) < 0.25
    X[2:][faces], Y[2:][faces] = np.round(X[2:][faces]), np.round(Y[2:][faces])
    for x, y in zip(X, Y):
        p = JointPoint(x, y)
        for got, want in zip(finite_diff_grad(inst, p), _unchunked_finite_diff(inst, p)):
            assert bit_equal(got, want)


def test_flat_passes_make_one_gate_call(monkeypatch):
    # at n <= 3 a block distance is at most n m <= 3m, so every level is 0
    # and every gradient pass reads the flat table: one reduction of the
    # distances finds it flat, so no gate kernel runs, the threshold
    # included; a pass with a level inside the ramp makes all three calls
    inst = build_instance(gen_example("ring", 16, 0), gen_random(2, 1),
                          GdaParams(n=3, epsilon=1e-3, delta=0.5))
    grid_inst = build_instance(gen_example("ring", 4, 0), gen_random(1, 1),
                               GdaParams(n=1, epsilon=1e-3, delta=0.5))
    ramp_inst = build_instance(gen_example("ring", 4, 0), gen_random(1, 1),
                               GdaParams(n=4, epsilon=1e-3, delta=0.5))
    calls = {"passes": 0, "distance_threshold": 0, "nor_gate": 0, "purify_gate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("distance_threshold", "nor_gate", "purify_gate"):
        monkeypatch.setattr(reduction, name, counted(name, getattr(reduction, name)))
    field_many = counted("passes", _field_many)
    monkeypatch.setattr(reduction, "_field_many", field_many)
    monkeypatch.setattr(solver, "_field_many", field_many)
    rng = np.random.default_rng(0)
    p = random_point(inst, rng)
    eval_grad(inst, p)
    diagnostics(inst, p)
    extragradient(inst, p, SolverConfig(step=0.05, max_iters=5, restarts=3))
    grid_search(grid_inst, h=0.5)
    # eval_grad and diagnostics; 5 extragradient iterations of two passes,
    # the cap's scoring pass and the record; 9 grid tiles of 3^6 points and
    # the record
    assert calls["passes"] == 2 + 12 + 10
    assert calls["distance_threshold"] == 0
    assert calls["nor_gate"] == calls["purify_gate"] == 0
    eval_grad(ramp_inst, JointPoint(*ramp_row(ramp_inst, rng)))
    assert calls["passes"] == 2 + 12 + 10 + 1
    assert calls["distance_threshold"] == calls["nor_gate"] == calls["purify_gate"] == 1


def test_blocks_times_at_m1_keeps_the_matmul_bits():
    # at m = 1 the product is a plain multiply plus +0.0; the 1 x 1 matrix
    # product computes 0 + a b, so a -0.0 product reads +0.0 in both
    rng = np.random.default_rng(0)
    special = np.array([0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324])
    for N in (1, 2, 3, 7, 64, 1000, 100_000):
        A = rng.uniform(-1.0, 1.0, (N, 4))
        pick = rng.uniform(0, 1, A.shape) < 0.3
        A[pick] = rng.choice(special, np.count_nonzero(pick))
        for a in (A, np.asfortranarray(A)):
            for shape in ((N, 2, 2, 1), (N, 4, 1, 1)):
                blocks = a.reshape(shape)
                for v in (*special, 0.7, -0.3, 1.0):
                    M = np.array([[v]])
                    want = (np.ascontiguousarray(blocks).reshape(-1, 1) @ M).reshape(shape)
                    got = reduction._blocks_times(blocks, M)
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("pc, m, n", [
    (gen_example("ring", 4, 0), 1, 1),           # the grid_certify shape
    (RING3, 1, 3),                               # n m = 3
    (RING3, 3, 1),
    (TANGLED, 2, 4),                             # ramps, n m = 8
    (gen_example("purify_tree", 9, 3), 1, 5),    # ramps, n m = 5
])
def test_column_major_batches_keep_the_row_major_bits(pc, m, n):
    # the same batch laid out column-major, as grid_search lays out its
    # tiles, and row-major: F and every table of the pass hold the same
    # bits, and F's memory order follows the batch's
    inst = build_instance(pc, gen_random(m, 3), GdaParams(n=n, epsilon=1e-3, delta=0.5),
                          validate=False)
    rng = np.random.default_rng(10 * n + m)
    batches = [flat_batch(inst, rng, 64), batch_near_ramps(inst, rng, 64), grid_tile(inst, rng)]
    if n >= 4:
        X, Y = flat_batch(inst, rng, 3)
        ramps = [ramp_row(inst, rng) for _ in range(3)]
        batches.append((np.concatenate((X, [x for x, _ in ramps])),
                        np.concatenate((Y, [y for _, y in ramps]))))
    batches += [equal_blocks(inst, rng, X, Y) for X, Y in batches]
    flat = ramped = 0
    for X, Y in batches:
        Z = np.concatenate((X, Y), axis=1)
        row_major, col_major = Z, np.asfortranarray(Z)
        F, tables = _field_many(inst, row_major[:, :inst.d], row_major[:, inst.d:])
        G, col_tables = _field_many(inst, col_major[:, :inst.d], col_major[:, inst.d:])
        assert F.flags.c_contiguous and not F.flags.f_contiguous
        assert G.flags.f_contiguous and not G.flags.c_contiguous
        assert bit_equal(F, G)
        *parts, lam, nodes = tables
        *col_parts, col_lam, col_nodes = col_tables
        assert all(bit_equal(a, b) for a, b in zip(parts + [lam], col_parts + [col_lam]))
        if nodes is None:
            assert col_nodes is None and not lam.any()
            flat += 1
        else:
            assert all(bit_equal(a, b) for a, b in zip(nodes, col_nodes))
            ramped += bool(((lam > 0) & (lam < 1)).any())
    assert flat >= 2 and (ramped >= 2 if n >= 4 else ramped == 0)


def test_a_nan_coordinate_is_refused_by_the_threshold():
    # at n = 1 every finite point is flat, so no gate call is made; a NaN
    # fails the flat test and reaches the threshold's check
    inst = make_instance("ring3-m1-n1")
    rng = np.random.default_rng(0)
    p = random_point(inst, rng)
    x = p.x.copy()
    x[1] = np.nan
    object.__setattr__(p, "x", x)  # JointPoint refuses it; the pass must as well
    with pytest.raises(ValueError, match="gate argument must be finite"):
        eval_grad(inst, p)
    with pytest.raises(ValueError, match="gate argument must be finite"):
        extragradient(inst, p, SolverConfig(step=0.05, max_iters=3, restarts=2))
    P = np.asfortranarray(np.concatenate(grid_tile(inst, rng), axis=1))  # as the sweep's tiles
    P[5, inst.d + 2] = np.nan
    with pytest.raises(ValueError, match="gate argument must be finite"):
        solver._field(inst, P)


def test_gate_tables_run_in_gate_loop_order():
    tables = build_instance(TANGLED, gen_random(1, 0), GdaParams(n=1, epsilon=1e-3, delta=0.5),
                            validate=False).gates
    # value rows [NOR 0-2 | PURIFY 0 plus 3, minus 4]; links holds each
    # row's output vertex
    assert tables.nor_uv.tolist() == [0, 0, 0, 1, 0, 2]
    assert tables.purify_uu.tolist() == [0, 0]
    assert tables.purify_shift.tolist() == [0.25, -0.25]
    assert tables.links.tolist() == [1, 0, 3, 2, 4]
    # noise rows [NOR 0 to u, to v | NOR 1 | NOR 2 | PURIFY 0 to u], each
    # row's target vertex; vertex 0 takes five terms, vertices 1 and 2 one each
    assert tables.noise_targets.tolist() == [0, 0, 0, 1, 0, 2, 0]
    # gate values at all-zero levels: NOR outputs 1, 0, 3 read 1 and PURIFY
    # outputs 2, 4 read 0; the gradient's flat passes share this table
    assert tables.flat_values.tolist() == [[1.0], [1.0], [0.0], [1.0], [0.0]]
    assert not tables.flat_values.flags.writeable


@pytest.mark.parametrize("nor, purify", [
    (((0, 1, 2),), ((0, 1, 2),)),   # vertex 2: NOR output and PURIFY minus
    (((0, 1, 2), (1, 0, 2)), ()),   # vertex 2: two NOR outputs
    ((), ((0, 1, 1),)),             # vertex 1: both PURIFY outputs
])
def test_gate_tables_refuse_a_second_producer_without_validation(nor, purify):
    pc = PureCircuitInstance(3, nor_gates=nor, purify_gates=purify)
    with pytest.raises(ValidationError, match="output of 2 gates"):
        build_instance(pc, gen_random(1, 0), GdaParams(n=2, epsilon=1e-3, delta=0.5),
                       validate=False)


def test_gate_tables_stay_linear_in_the_noise_terms_around_a_hub():
    # a valid circuit in which vertices 0 and 1 feed every NOR gate, so each
    # takes ~kappa noise terms; the plan holds one entry per term
    kappa = 2000
    pc = PureCircuitInstance(kappa, nor_gates=((2, 3, 0), (2, 3, 1))
                             + tuple((0, 1, v) for v in range(2, kappa)))
    inst = build_instance(pc, gen_random(1, 0), GdaParams(n=1, epsilon=1e-3, delta=0.5))
    tables = inst.gates
    n_terms = 2 * tables.n_nor + tables.purify_uu.size // 2
    assert tables.noise_targets.size == n_terms
    rng = np.random.default_rng(0)
    dist_sq = 3.0 + rng.uniform(-0.2, 1.2, (2, kappa))
    lam, H = rng.uniform(0.0, 0.9, (2, kappa)), rng.normal(size=(2, kappa))
    # hub levels and distances inside the ramps, so every hub term is nonzero
    lam[:, :2], dist_sq[:, :2] = 0.2, 3.5
    got = _node_aggregates(inst, *map(vertex_major, (
        lam, distance_threshold_prime(dist_sq, 1), H)))
    want = loop_node_aggregates(inst, dist_sq, lam, H)
    assert bit_equal(got[0].T, want[0]) and bit_equal(got[1].T, want[1])


@st.composite
def valid_circuits(draw):
    """Circuits that pass validation: each vertex is the output of exactly one
    gate, and each gate's three vertices are distinct."""
    kappa = draw(st.integers(3, 8))
    outputs = draw(st.permutations(range(kappa)))
    n_purify = draw(st.integers(0, kappa // 2))

    def inputs(outs, k):
        others = [v for v in range(kappa) if v not in outs]
        return draw(st.lists(st.sampled_from(others), min_size=k, max_size=k, unique=True))

    purify = [(*inputs(outputs[2 * g:2 * g + 2], 1), outputs[2 * g], outputs[2 * g + 1])
              for g in range(n_purify)]
    nor = [(*inputs([w], 2), w) for w in outputs[2 * n_purify:]]
    return PureCircuitInstance(kappa, tuple(nor), tuple(purify))


def assert_three_gradient_routes_agree(inst, seed):
    # grad-check's tolerances: the two analytic routes within 1e-12 of the
    # largest component, and each within max(1e-5 |g|, floor) of the central
    # difference, the floor being that difference's rounding error
    rng = np.random.default_rng(seed)
    h = 1e-6
    X, Y = batch_near_ramps(inst, rng, 2)  # one random point, one near the ramps
    for x, y in zip(X, Y):
        p = JointPoint(x, y)
        ga = np.concatenate(eval_grad(inst, p))
        gb = np.concatenate(eval_grad_direct(inst, p))
        fd = np.concatenate(finite_diff_grad(inst, p, h=h))
        scale = max(np.abs(ga).max(), np.abs(gb).max(), 1.0)
        assert np.abs(ga - gb).max() / scale <= 1e-12
        floor = 8.0 * np.finfo(float).eps * max(abs(eval_f(inst, p)), 1.0) / h
        for g in (ga, gb):
            assert (np.abs(g - fd) <= np.maximum(1e-5 * np.abs(g), floor)).all()


@settings(max_examples=40, deadline=None)
@given(pc=valid_circuits(), m=st.integers(1, 3), n=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_three_gradient_routes_agree_on_valid_circuits(pc, m, n, seed):
    inst = build_instance(pc, gen_random(m, seed % 97), GdaParams(n=n, epsilon=1e-3, delta=0.5))
    assert_three_gradient_routes_agree(inst, seed)


@settings(max_examples=40, deadline=None)
@given(pc=loose_circuits(), m=st.integers(1, 3), n=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
@example(pc=TANGLED, m=1, n=2, seed=0)
def test_three_gradient_routes_agree_on_loose_circuits(pc, m, n, seed):
    inst = build_instance(pc, gen_random(m, seed % 97), GdaParams(n=n, epsilon=1e-3, delta=0.5),
                          validate=False)
    assert_three_gradient_routes_agree(inst, seed)


def test_gate_tables_refuse_vertices_outside_the_circuit():
    pc = PureCircuitInstance(3, nor_gates=((0, 1, 3),))
    with pytest.raises(ValidationError):
        build_instance(pc, gen_random(1, 0), GdaParams(n=1, epsilon=1e-3, delta=0.5),
                       validate=False)


# ------------------------------------------------------------------- JSON IO

def test_params_round_trip():
    for p in (paper_params(2, 3, Fraction(1, 2)), GdaParams(n=4, epsilon=1e-3, delta=0.1)):
        blob = json.dumps(p.to_json_dict(), sort_keys=True)
        back = GdaParams.from_json_dict(json.loads(blob))
        assert back == p
        assert json.dumps(back.to_json_dict(), sort_keys=True) == blob
        # artifacts written with a "materializable" key still load
        old = {**p.to_json_dict(), "materializable": False}
        assert GdaParams.from_json_dict(old) == p


def test_instance_round_trip():
    inst = make_instance("ring3-m2-n4")
    blob = json.dumps(inst.to_json_dict(), sort_keys=True)
    back = GdaInstance.from_json_dict(json.loads(blob))
    assert json.dumps(back.to_json_dict(), sort_keys=True) == blob
    assert back.d == inst.d and np.array_equal(back.M, inst.M)


def test_point_round_trip_preserves_bits():
    p = JointPoint(np.array([1 / 3, 0.1]), np.array([2 / 3, 1.0]))
    blob = json.dumps(p.to_json_dict())
    back = JointPoint.from_json_dict(json.loads(blob))
    assert np.array_equal(back.x, p.x) and np.array_equal(back.y, p.y)
    assert json.dumps(back.to_json_dict()) == blob


def test_point_and_eval_guards():
    inst = make_instance("ring3-m1-n1")
    with pytest.raises(ValueError):
        JointPoint(np.array([0.5, 1.5, 0.0]), np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValueError):
        eval_f(inst, JointPoint(np.zeros(4), np.zeros(4)))
