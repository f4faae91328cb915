import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import make_instance, random_point
from gdacube.decoder import decode, lemma_audit
from gdacube.lin_vi import LinVIInstance, gen_random
from gdacube.pure_circuit import PureCircuitInstance, gen_example
from gdacube.reduction import (
    CapExceededError,
    GdaParams,
    JointPoint,
    build_instance,
    diagnostics,
    eval_grad,
    finite_diff_grad,
)
from gdacube import solver
from gdacube.solver import (
    SolverConfig,
    check_stationary,
    extragradient,
    grid_search,
    projected_gda,
)


def _violation_arrays(x, y, gx, gy):
    """Reference per-player violations: the formula the joint field must reproduce."""
    vx = np.maximum(np.maximum(gx * (1.0 - x), -gx * x), 0.0)
    vy = np.maximum(np.maximum(-gy * (1.0 - y), gy * y), 0.0)
    return vx, vy


def regularizer_only_instance(n=1, delta=0.5):
    pc = PureCircuitInstance(1)
    vi = LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([1.0]), rho=0.1)
    return build_instance(pc, vi, GdaParams(n=n, epsilon=1e-3, delta=delta), validate=False)


def rotation_toy():
    # antisymmetric coupling makes the active vertex purely bilinear, and
    # c recenters the rotation at (1/2, 1/2) so the box faces offer no
    # stationary resting place: plain ascent/descent spirals outward while
    # extragradient contracts onto the center
    pc = gen_example("ring", 3, 0)
    vi = LinVIInstance(m=2, D=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                       c=np.array([-0.5, 0.5]), rho=0.1)
    return build_instance(pc, vi, GdaParams(n=1, epsilon=1e-3, delta=1e-6))


def test_check_stationary_pinned_values():
    inst = regularizer_only_instance()
    # gradient 2*M_1*(x - y) with M_1 = 0.25: at x=0.9, y=0.4 -> gx = 0.25
    p = JointPoint(np.array([0.9]), np.array([0.4]))
    rep = check_stationary(inst, p, eps=0.05)
    gx, gy = eval_grad(inst, p)
    assert gx[0] == pytest.approx(0.25)
    # x-player can still climb toward 1: 0.25 * (1 - 0.9)
    assert rep.violations_x[0] == pytest.approx(0.025)
    # y-player profits from moving toward x: -gy * (y' - y) at y' = 1
    assert rep.violations_y[0] == pytest.approx(0.15)
    assert rep.max_violation == pytest.approx(0.15)
    assert not rep.passed
    assert check_stationary(inst, p, eps=0.2).passed


def test_check_stationary_no_ascent_at_boundary():
    inst = regularizer_only_instance()
    # positive gradient at x = 1: no room to improve, violation 0
    p = JointPoint(np.array([1.0]), np.array([0.0]))
    rep = check_stationary(inst, p, eps=1e-9)
    assert rep.violations_x[0] == 0.0


def test_endpoint_moves_dominate_interior_moves(shape_instances):
    inst = shape_instances["ring3-m2-n4"]
    rng = np.random.default_rng(31)
    for _ in range(40):
        p = random_point(inst, rng)
        rep = check_stationary(inst, p, eps=1.0)
        gx, gy = eval_grad(inst, p)
        for t in np.linspace(0.0, 1.0, 11):
            assert np.all(gx * (t - p.x) <= rep.violations_x + 1e-12)
            assert np.all(-gy * (t - p.y) <= rep.violations_y + 1e-12)


@pytest.mark.parametrize("solve", [projected_gda, extragradient])
def test_stationary_start_returned_unchanged(solve):
    inst = regularizer_only_instance()
    p0 = JointPoint(np.array([0.5]), np.array([0.5]))
    res = solve(inst, p0, SolverConfig(step=0.1, max_iters=100, target=0.0))
    assert res.iterations == 0
    assert np.array_equal(res.report.point.x, p0.x) and np.array_equal(res.report.point.y, p0.y)
    assert res.report.max_violation == 0.0 and res.report.passed


@pytest.mark.parametrize("solve", [projected_gda, extragradient])
def test_best_iterate_contract_and_box_safety(solve):
    inst = rotation_toy()
    rng = np.random.default_rng(3)
    p0 = random_point(inst, rng)
    first = check_stationary(inst, p0, eps=0.0).max_violation
    res = solve(inst, p0, SolverConfig(step=0.3, max_iters=500))
    assert res.report.max_violation <= first
    assert res.report.point.x.min() >= 0.0 and res.report.point.x.max() <= 1.0
    assert res.report.point.y.min() >= 0.0 and res.report.point.y.max() <= 1.0


def test_gda_cycles_but_extragradient_converges():
    inst = rotation_toy()
    p0 = JointPoint(np.full(inst.d, 0.6), np.full(inst.d, 0.45))
    cfg = SolverConfig(step=0.2, max_iters=1000)
    plain = projected_gda(inst, p0, cfg)
    extra = extragradient(inst, p0, cfg)
    # the orbiting dynamic never settles: its best point stays bounded away
    # from stationarity while the extrapolated one drives it toward zero
    assert extra.report.max_violation < plain.report.max_violation
    assert extra.report.max_violation < 1e-3
    assert plain.report.max_violation > 1e-2


@pytest.mark.parametrize("solve", [projected_gda, extragradient])
def test_solvers_deterministic(solve):
    inst = make_instance("ring3-m2-n4")
    rng = np.random.default_rng(5)
    p0 = random_point(inst, rng)
    cfg = SolverConfig(step=0.05, max_iters=200, restarts=3, seed=42)
    a = solve(inst, p0, cfg)
    b = solve(inst, p0, cfg)
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(b.to_json_dict(), sort_keys=True)


def test_restarts_explore_and_keep_best():
    inst = make_instance("ring3-m2-n4")
    p0 = JointPoint(np.ones(inst.d), np.zeros(inst.d))
    one = extragradient(inst, p0, SolverConfig(step=0.05, max_iters=50, restarts=1, seed=7))
    many = extragradient(inst, p0, SolverConfig(step=0.05, max_iters=50, restarts=4, seed=7))
    assert many.report.max_violation <= one.report.max_violation


def _tiled_grid_search(monkeypatch, inst, h, block):
    """grid_search under a tile budget of ``block`` elements (None keeps the
    default), with the row count of each tile it evaluated."""
    rows = []
    field = solver._field

    def counted(inst, Z):
        rows.append(len(Z))
        return field(inst, Z)

    with monkeypatch.context() as mp:
        if block is not None:
            mp.setattr(solver, "GRID_BLOCK_ELEMS", block)
        mp.setattr(solver, "_field", counted)
        res = grid_search(inst, h)
    return res, rows  # the final report evaluates its point without the field


def test_grid_search_regularizer_toy(monkeypatch):
    inst = regularizer_only_instance(delta=0.5)  # M_1 = 0.25
    # 5^2 grid points: one tile, or five tiles of 5 at the t = 1 floor
    for block, tiles in ((None, 1), (1, 5)):
        res, rows = _tiled_grid_search(monkeypatch, inst, 0.25, block)
        assert rows == [25 // tiles] * tiles
        p, rep = res.report.point, res.report
        # aligned objectives meet on the diagonal where the gradient vanishes
        assert rep.max_violation <= 2 * 0.25 * 0.25
        assert np.array_equal(p.x, p.y)
        # ties resolve to the lexicographically smallest point, also when
        # the tied diagonal points lie in different tiles
        assert np.array_equal(p.x, [0.0])


def test_grid_search_returns_a_solver_result(monkeypatch):
    inst = make_instance("ring3-m1-n1")
    # the sweep's reduction gives the same bits as max(vx.max(), vy.max())
    k = 3
    P = np.array(np.meshgrid(*[np.linspace(0.0, 1.0, k)] * (2 * inst.d),
                             indexing="ij")).reshape(2 * inst.d, -1).T
    X, Y = P[:, :inst.d], P[:, inst.d:]
    F, _ = solver._field_many(inst, X, Y)
    vx, vy = _violation_arrays(X, Y, F[:, :inst.d], np.negative(F[:, inst.d:]))
    v = np.maximum(vx.max(axis=1), vy.max(axis=1))
    b = int(np.argmin(v))
    # 3^6 grid points in tiles of 3^t rows, 3^t * 6 <= block, t >= 1
    for block, tiles in ((None, 1), (6 * 27, 27), (6 * 27 - 1, 81), (1, 243)):
        res, rows = _tiled_grid_search(monkeypatch, inst, 0.5, block)
        assert rows == [729 // tiles] * tiles
        assert (res.method, res.iterations, res.seed) == ("grid", 0, None)
        assert res.trace == ((0, res.report.max_violation),)
        assert res.report.passed  # eps defaults to the best violation found
        assert res.trace[0][1] == v[b]
        p = res.report.point
        assert np.array_equal(p.x, X[b]) and np.array_equal(p.y, Y[b])


def _chunked_grid_violations(inst, h):
    """Every grid point's worst violation, decoded from its flat index in
    65,536-row chunks: the reference the tiled sweep must reproduce."""
    k = round(1.0 / h)
    vals = np.linspace(0.0, 1.0, k + 1)
    width = 2 * inst.d
    npts = (k + 1) ** width
    divisors = (k + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
    out = []
    for start in range(0, npts, 65536):
        idx = np.arange(start, min(start + 65536, npts), dtype=np.int64)
        P = vals[(idx[:, None] // divisors[None, :]) % (k + 1)]
        out.append(solver._row_violations(P, solver._field(inst, P)))
    v = np.concatenate(out)
    b = int(np.argmin(v))
    return v, vals[(b // divisors) % (k + 1)]


def test_grid_tiles_match_the_chunked_sweep(monkeypatch):
    # every row's violation, the best point and the best violation of the
    # column-major tiles keep the bits of the flat-index enumeration: the
    # grid_certify shape (ring-4, n = m = 1, h = 1/4, 5^8 points in 625
    # tiles of 5^4) and ring-3 at n = 3, h = 1 (n m = 3, 2^18 points in 512
    # tiles of 2^9)
    row_violations = solver._row_violations
    cases = [(4, 1, 0.25, seed, 625, 625) for seed in range(6)] + [(3, 3, 1.0, 0, 512, 512)]
    for size, n, h, seed, tiles, rows in cases:
        inst = build_instance(gen_example("ring", size, 0), gen_random(1, seed),
                              GdaParams(n=n, epsilon=1e-3, delta=0.5))
        want, point = _chunked_grid_violations(inst, h)
        seen = []

        def recorded(Z, F):
            assert Z.flags.f_contiguous and F.flags.f_contiguous
            seen.append(row_violations(Z, F))
            return seen[-1]

        with monkeypatch.context() as mp:
            mp.setattr(solver, "_row_violations", recorded)
            res = grid_search(inst, h)
        assert len(seen) == tiles and all(len(v) == rows for v in seen)
        got = np.concatenate(seen)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert res.trace[0][1] == want.min()
        assert np.array_equal(np.concatenate((res.report.point.x, res.report.point.y)), point)


def test_grid_search_monotone_under_refinement():
    inst = make_instance("ring3-m1-n1")
    best = [grid_search(inst, h).report.max_violation for h in (0.5, 0.25, 0.125)]
    assert best[1] <= best[0] and best[2] <= best[1]
    assert best[2] <= inst.bounds.L * np.sqrt(2 * inst.d) * 0.125


def test_grid_search_caps_and_guards():
    inst = make_instance("tree6-m2-n8")
    with pytest.raises(CapExceededError):
        grid_search(inst, h=0.5)
    with pytest.raises(ValueError):
        grid_search(make_instance("ring3-m1-n1"), h=0.3)
    for h in (0.0, -0.5, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and positive"):
            grid_search(make_instance("ring3-m1-n1"), h=h)


def test_grid_search_cap_env_override(monkeypatch):
    inst = make_instance("ring3-m1-n1")  # 3^6 = 729 points at h = 1/2
    monkeypatch.setenv("GDACUBE_EVAL_CAP", "10")
    with pytest.raises(CapExceededError):
        grid_search(inst, h=0.5)
    monkeypatch.delenv("GDACUBE_EVAL_CAP")
    grid_search(inst, h=0.5)


def test_solver_config_validation():
    for step in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and positive"):
            SolverConfig(step=step)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    # a float ran range() into a TypeError and True ran one iteration
    # a float seed raised a TypeError from SeedSequence and True ran,
    # reporting "seed": true
    for bad in (2.5, True, "3"):
        for field in ("max_iters", "restarts", "seed"):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                SolverConfig(**{field: bad})
    with pytest.raises(ValueError, match="seed must be non-negative"):
        SolverConfig(seed=-1)
    # nan ran to the iteration cap and reported NaN, inf passed at iteration 0
    for target in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="target must be finite"):
            SolverConfig(target=target)
    assert SolverConfig(target=-1.0).target == -1.0
    assert SolverConfig(max_iters=np.int64(5), restarts=np.int32(2)).max_iters == 5


# True ran silently as 1.0 (h = True as a grid with h = 1) and target=False
# as 0.0, while a bool seed was already refused
@pytest.mark.parametrize("refuse", [
    lambda: SolverConfig(step=True),
    lambda: SolverConfig(step=False),
    lambda: SolverConfig(target=True),
    lambda: SolverConfig(target=False),
    lambda: grid_search(make_instance("ring3-m1-n1"), h=True),
], ids=["step-true", "step-false", "target-true", "target-false", "grid-h-true"])
def test_solver_refuses_a_bool_for_a_real_parameter(refuse):
    with pytest.raises(ValueError, match="must be a real number, got (True|False)"):
        refuse()


# each call read True as 1.0: check_stationary and grid_search reported
# epsilon 1.0, lemma_audit audited at eps 1.0, decode took rho 1.0 and the
# finite differences stepped by 1.0
@pytest.mark.parametrize("call", [
    lambda inst, p, ev: check_stationary(inst, p, True),
    lambda inst, p, ev: check_stationary(inst, p, False),
    lambda inst, p, ev: grid_search(inst, 0.5, eps=True),
    lambda inst, p, ev: lemma_audit(inst, ev, True, 0.5),
    lambda inst, p, ev: lemma_audit(inst, ev, 1.0, True),
    lambda inst, p, ev: decode(inst, ev, True),
    lambda inst, p, ev: finite_diff_grad(inst, p, h=True),
], ids=["check-eps-true", "check-eps-false", "grid-eps-true", "audit-eps-true",
        "audit-rho-true", "decode-rho-true", "fd-h-true"])
def test_library_calls_refuse_a_bool_for_a_real_parameter(call):
    inst = make_instance("ring3-m1-n1")
    p = JointPoint(np.full(inst.d, 0.5), np.full(inst.d, 0.5))
    ev = check_stationary(inst, p, 1.0)
    with pytest.raises(ValueError, match="must be a real number, got (True|False)"):
        call(inst, p, ev)


@pytest.mark.parametrize("entry", ["check_stationary", "projected_gda", "extragradient"])
def test_solvers_refuse_a_point_of_the_wrong_dimension(entry):
    # x and y share one [x | y] iterate sliced at d, so a short point would
    # otherwise run on the wrong coordinates or fail deep inside a reshape
    inst = make_instance("ring3-m2-n4")
    p = JointPoint(np.full(inst.d - 1, 0.5), np.full(inst.d - 1, 0.5))
    calls = {
        "check_stationary": lambda: check_stationary(inst, p, eps=0.1),
        "projected_gda": lambda: projected_gda(inst, p, SolverConfig(step=0.05, max_iters=3)),
        "extragradient": lambda: extragradient(inst, p, SolverConfig(step=0.05, max_iters=3)),
    }
    with pytest.raises(ValueError, match=f"point has dimension {inst.d - 1}, instance needs {inst.d}"):
        calls[entry]()


def _assert_record_matches_reference(inst, p, rep):
    """The record's violations against the per-player formula, bit for bit
    (zero signs included), and its diagnostics against ``diagnostics``."""
    gx, gy = eval_grad(inst, p)
    vx, vy = _violation_arrays(p.x, p.y, gx, gy)
    field = solver._field(inst, np.concatenate((p.x, p.y))[None, :])[0]
    for got, want in ((rep.violations_x, vx), (rep.violations_y, vy),
                      (rep.max_violation, max(vx.max(), vy.max())),
                      (field, np.concatenate((gx, -gy)))):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    want = diagnostics(inst, p)
    assert rep.point is p
    for f in dataclasses.fields(want):
        assert getattr(rep.diagnostics, f.name).tobytes() == getattr(want, f.name).tobytes()


def test_violations_keep_the_sign_of_zero_at_grid_stationary_points():
    # the joint field negates gy, which turns a +0.0 into -0.0; at exact
    # grid-stationary points of ring-4 (h = 1/4, n = m = 1) every violation
    # is a zero, and each must keep the per-player formula's sign
    stationary = 0
    for seed in range(6):
        inst = build_instance(gen_example("ring", 4, 0), gen_random(1, seed),
                              GdaParams(n=1, epsilon=1e-3, delta=0.5))
        res = grid_search(inst, 0.25)
        rng = np.random.default_rng(seed)
        for _ in range(3):  # random points have violations of both signs of f
            p = random_point(inst, rng)
            _assert_record_matches_reference(inst, p, check_stationary(inst, p, eps=0.0))
        if res.report.max_violation != 0.0:
            continue
        stationary += 1
        _assert_record_matches_reference(inst, res.report.point, res.report)
    assert stationary >= 2


# ------------------------------------------------- batched restarts vs reference

def _sequential_drive(inst, p0, cfg, extrapolate):
    """The restarts run one after another at batch size 1: the reference
    that the batched ``_drive`` must reproduce bit for bit."""
    eta = cfg.step if cfg.step is not None else 1.0 / inst.bounds.L
    child_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    best_x, best_y = p0.x.copy(), p0.y.copy()
    best_v = np.inf
    trace = []
    stride = max(1, cfg.max_iters // 10)
    total = 0

    def grad_at(x, y):
        F, _ = solver._field_many(inst, x[None, :], y[None, :])
        return F[0, :inst.d], np.negative(F[0, inst.d:])

    def consider(x, y, gx, gy):
        nonlocal best_v, best_x, best_y
        vx, vy = _violation_arrays(x, y, gx, gy)
        v = float(max(vx.max(), vy.max()))
        if v < best_v:
            best_v = v
            best_x, best_y = x.copy(), y.copy()

    for r in range(cfg.restarts):
        if r == 0:
            x, y = p0.x.copy(), p0.y.copy()
        else:
            rng = np.random.default_rng(child_seeds[r])
            x, y = rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d)
        for it in range(cfg.max_iters):
            gx, gy = grad_at(x, y)
            consider(x, y, gx, gy)
            if it % stride == 0:
                trace.append((total, best_v))
            if best_v <= cfg.target:
                break
            if extrapolate:
                xh = np.clip(x + eta * gx, 0.0, 1.0)
                yh = np.clip(y - eta * gy, 0.0, 1.0)
                gxh, gyh = grad_at(xh, yh)
                x = np.clip(x + eta * gxh, 0.0, 1.0)
                y = np.clip(y - eta * gyh, 0.0, 1.0)
            else:
                x = np.clip(x + eta * gx, 0.0, 1.0)
                y = np.clip(y - eta * gy, 0.0, 1.0)
            if not (np.isfinite(x).all() and np.isfinite(y).all()):
                raise FloatingPointError("non-finite iterate; reduce the step size")
            total += 1
        else:
            gx, gy = grad_at(x, y)
            consider(x, y, gx, gy)
        if best_v <= cfg.target:
            break
    trace.append((total, best_v))
    point = JointPoint(best_x, best_y)
    return solver.SolverResult(report=check_stationary(inst, point, cfg.target),
                               trace=tuple(trace), iterations=total,
                               method="extragradient" if extrapolate else "gda",
                               seed=cfg.seed)


def _outcome(fn):
    try:
        return json.dumps(fn().to_json_dict(), sort_keys=True)
    except FloatingPointError as e:
        return f"raised {e}"


def _assert_matches_reference(inst, p0, cfg):
    for solve, extrapolate in ((projected_gda, False), (extragradient, True)):
        want = _outcome(lambda: _sequential_drive(inst, p0, cfg, extrapolate))
        assert _outcome(lambda: solve(inst, p0, cfg)) == want


def _restart_starts(inst, p0, seed, restarts):
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    starts = [p0]
    for child in seeds[1:]:
        rng = np.random.default_rng(child)
        starts.append(JointPoint(rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d)))
    return starts


@pytest.mark.parametrize("restarts", [1, 2, 3, 4, 5])
def test_batched_restarts_match_sequential_loop(shape_instances, restarts):
    inst = shape_instances["ring3-m2-n4"]
    p0 = random_point(inst, np.random.default_rng(11))
    # a target that is never reached
    _assert_matches_reference(inst, p0, SolverConfig(step=0.05, max_iters=37,
                                                     restarts=restarts, seed=3))
    # one that restart 0 reaches
    first = check_stationary(inst, p0, eps=0.0).max_violation
    _assert_matches_reference(inst, p0, SolverConfig(step=0.05, max_iters=37,
                                                     restarts=restarts, seed=3,
                                                     target=first * 0.9))


def _middle_target(inst, p0, base, restarts):
    """The first restart after restart 0 whose best beats every earlier one,
    and a target just below the earlier bests: the sequential loop stops in
    that restart, at its first iterate better than every earlier restart."""
    best = [_sequential_drive(inst, s, SolverConfig(**base), True).report.max_violation
            for s in _restart_starts(inst, p0, base["seed"], restarts)]
    row = next(r for r in range(1, restarts) if best[r] < min(best[:r]))
    return row, float(np.nextafter(min(best[:row]), 0.0))


def _assert_stops_in_row(inst, p0, cfg, row):
    res = extragradient(inst, p0, cfg)
    assert row * cfg.max_iters <= res.iterations < (row + 1) * cfg.max_iters + 1


@pytest.mark.parametrize("name, corner, seed", [("ring3-m2-n4", False, 3),
                                               ("tree6-m2-n8", True, 1)])
def test_batched_restarts_stop_in_a_middle_row(shape_instances, name, corner, seed):
    # from the corner start, restart 1 passes restart 0's best with 15 of
    # its 40 iterations left, while restart 0 is still improving
    inst = shape_instances[name]
    if corner:
        p0 = JointPoint(np.ones(inst.d), np.zeros(inst.d))
    else:
        p0 = random_point(inst, np.random.default_rng(11))
    base = dict(step=0.05, max_iters=40, seed=seed)
    row, target = _middle_target(inst, p0, base, 5)
    cfg = SolverConfig(**base, restarts=5, target=target)
    _assert_stops_in_row(inst, p0, cfg, row)
    _assert_matches_reference(inst, p0, cfg)


@pytest.mark.parametrize("seed, row", [(9, 2), (11, 3)])
def test_batched_restarts_across_groups(shape_instances, monkeypatch, seed, row):
    inst = shape_instances["tree6-m2-n8"]
    monkeypatch.setattr(solver, "RESTART_GROUP_ELEMS", 2 * inst.d)  # two rows a group
    p0 = random_point(inst, np.random.default_rng(4))
    base = dict(step=0.02, max_iters=25, seed=seed)
    # the target is first reached in the second group, after a whole first group
    found, target = _middle_target(inst, p0, base, 5)
    assert found == row
    for cfg in (SolverConfig(**base, restarts=5),
                SolverConfig(**base, restarts=5, target=target)):
        _assert_matches_reference(inst, p0, cfg)
    _assert_stops_in_row(inst, p0, SolverConfig(**base, restarts=5, target=target), row)


def test_batched_restarts_keep_the_first_of_equal_bests():
    # a huge step clips both players onto the same face in one step, so every
    # restart reaches violation 0 exactly, restart 0 at its stationary start
    # and the others at a corner of the box; the earliest restart's point wins
    inst = regularizer_only_instance()
    p0 = JointPoint(np.array([0.5]), np.array([0.5]))
    cfg = SolverConfig(step=1e6, max_iters=5, restarts=3, seed=1, target=-1.0)
    for start in _restart_starts(inst, p0, cfg.seed, cfg.restarts)[1:]:
        alone = projected_gda(inst, start, SolverConfig(step=1e6, max_iters=5, target=-1.0))
        assert alone.report.max_violation == 0.0 and alone.report.point.x[0] in (0.0, 1.0)
    res = projected_gda(inst, p0, cfg)
    assert res.report.point.x[0] == 0.5 and res.report.point.y[0] == 0.5
    assert res.iterations == 3 * cfg.max_iters
    _assert_matches_reference(inst, p0, cfg)


def test_batched_restarts_non_finite_rows(shape_instances, monkeypatch):
    # rows whose first coordinate leaves [0.3, 0.7] get a NaN gradient and so
    # a non-finite iterate; whether that raises depends on whether an earlier
    # restart reaches the target first, as in the sequential loop. Plain
    # ascent-descent only: with extrapolation the NaN reaches the gates at
    # the extrapolated point first (see the next test).
    inst = shape_instances["ring3-m2-n4"]
    field_many = solver._field_many

    def poisoned(inst, X, Y):
        F, tables = field_many(inst, X, Y)
        F[(X[:, 0] < 0.3) | (X[:, 0] > 0.7), :inst.d] = np.nan  # gx
        return F, tables

    monkeypatch.setattr(solver, "_field_many", poisoned)
    p0 = JointPoint(np.full(inst.d, 0.5), np.full(inst.d, 0.5))
    outcomes = set()
    for seed in range(6):
        for target in (0.0, 1.0):
            cfg = SolverConfig(step=0.05, max_iters=30, restarts=4, seed=seed, target=target)
            want = _outcome(lambda: _sequential_drive(inst, p0, cfg, False))
            assert _outcome(lambda: projected_gda(inst, p0, cfg)) == want
            outcomes.add(want.startswith("raised"))
    assert outcomes == {True, False}


def test_extragradient_gates_refuse_a_non_finite_gradient(shape_instances, monkeypatch):
    # a NaN gradient survives np.clip into the extrapolated point, whose
    # value-and-slope gate call refuses it before any iterate check
    inst = shape_instances["ring3-m2-n4"]
    field_many = solver._field_many
    finite_inputs = []

    def poisoned(inst, X, Y):
        finite_inputs.append(bool(np.isfinite(X).all() and np.isfinite(Y).all()))
        F, tables = field_many(inst, X, Y)
        F[:, 0] = np.nan  # gx of the first coordinate
        return F, tables

    monkeypatch.setattr(solver, "_field_many", poisoned)
    p0 = JointPoint(np.full(inst.d, 0.5), np.full(inst.d, 0.5))
    cfg = SolverConfig(step=0.05, max_iters=30, restarts=3, seed=0, target=0.0)
    with pytest.raises(ValueError, match="gate argument must be finite"):
        extragradient(inst, p0, cfg)
    assert finite_inputs == [True, False]
