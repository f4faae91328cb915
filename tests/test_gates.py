import numpy as np
import pytest

from gdacube.gates import (
    distance_threshold,
    distance_threshold_prime,
    nor_gate,
    nor_gate_prime,
    purify_gate,
    purify_gate_prime,
)

# (fn, deriv, breakpoints, sup of |deriv|)
GATES = [
    (nor_gate, nor_gate_prime, [0.25, 0.5], 6.0),
    (purify_gate, purify_gate_prime, [5.0 / 12.0, 7.0 / 12.0], 9.0),
    (lambda z: distance_threshold(z, 2), lambda z: distance_threshold_prime(z, 2), [6.0, 7.0], 1.5),
]


def test_nor_gate_pinned_values():
    assert nor_gate(0.0) == 1.0
    assert nor_gate(0.25) == 1.0
    assert nor_gate(0.5) == 0.0
    assert nor_gate(1.0) == 0.0
    # cubic 128 t^3 - 48 t^2 + 1 at t = 1/8: 1/4 - 3/4 + 1 = 1/2
    assert nor_gate(3.0 / 8.0) == pytest.approx(0.5, abs=1e-15)


def test_nor_gate_prime_pinned_values():
    assert nor_gate_prime(0.25) == 0.0
    assert nor_gate_prime(1.0) == 0.0
    # 384 t^2 - 96 t is minimized at t = 1/8 with value -6
    assert nor_gate_prime(3.0 / 8.0) == pytest.approx(-6.0, abs=1e-12)


def test_purify_gate_pinned_values():
    assert purify_gate(5.0 / 12.0) == 0.0
    assert purify_gate(7.0 / 12.0) == 1.0
    # 144 (1/12)^2 (2 - 3/2) = 1/2
    assert purify_gate(0.5) == pytest.approx(0.5, abs=1e-15)
    assert purify_gate_prime(5.0 / 12.0) == 0.0
    assert purify_gate_prime(7.0 / 12.0) == 0.0


@pytest.mark.parametrize("m", [1, 2, 5])
def test_distance_threshold_pinned_values(m):
    assert distance_threshold(3.0 * m, m) == 0.0
    assert distance_threshold(3.0 * m + 1.0, m) == 1.0
    # -2/8 + 3/4 = 1/2 at the midpoint
    assert distance_threshold(3.0 * m + 0.5, m) == pytest.approx(0.5, abs=1e-15)
    # -6 t^2 + 6 t peaks at t = 1/2 with value 3/2
    assert distance_threshold_prime(3.0 * m + 0.5, m) == pytest.approx(1.5, abs=1e-15)


@pytest.mark.parametrize("fn,deriv,breaks,_sup", GATES)
def test_value_continuity_at_breakpoints(fn, deriv, breaks, _sup):
    h = 1e-6
    for b in breaks:
        assert abs(fn(b - h) - fn(b + h)) <= 1e-9


# The ramp polynomials evaluated exactly at each breakpoint, against the
# value of the adjacent constant piece: (ramp, ramp', b, const, const').
# A two-sided h=1e-6 probe cannot certify derivative continuity here
# (|f''| reaches 96, so the probe gap is ~2e-4); the C^1 join is checked
# as agreement of the pieces at the breakpoint itself.
PIECE_JOINS = [
    (lambda z: 128 * (z - 0.25) ** 3 - 48 * (z - 0.25) ** 2 + 1,
     lambda z: 384 * (z - 0.25) ** 2 - 96 * (z - 0.25), 0.25, 1.0, 0.0),
    (lambda z: 128 * (z - 0.25) ** 3 - 48 * (z - 0.25) ** 2 + 1,
     lambda z: 384 * (z - 0.25) ** 2 - 96 * (z - 0.25), 0.5, 0.0, 0.0),
    (lambda z: 144 * (z - 5 / 12) ** 2 * (2 - 3 * z),
     lambda z: 288 * (z - 5 / 12) * (2 - 3 * z) - 432 * (z - 5 / 12) ** 2,
     5 / 12, 0.0, 0.0),
    (lambda z: 144 * (z - 5 / 12) ** 2 * (2 - 3 * z),
     lambda z: 288 * (z - 5 / 12) * (2 - 3 * z) - 432 * (z - 5 / 12) ** 2,
     7 / 12, 1.0, 0.0),
    (lambda z: -2 * (z - 6) ** 3 + 3 * (z - 6) ** 2,
     lambda z: -6 * (z - 6) ** 2 + 6 * (z - 6), 6.0, 0.0, 0.0),
    (lambda z: -2 * (z - 6) ** 3 + 3 * (z - 6) ** 2,
     lambda z: -6 * (z - 6) ** 2 + 6 * (z - 6), 7.0, 1.0, 0.0),
]


@pytest.mark.parametrize("ramp,ramp_d,b,val,dval", PIECE_JOINS)
def test_derivative_continuity_as_piece_agreement(ramp, ramp_d, b, val, dval):
    assert abs(ramp(b) - val) <= 1e-9
    assert abs(ramp_d(b) - dval) <= 1e-9


@pytest.mark.parametrize("fn,deriv,breaks,_sup", GATES)
def test_derivative_matches_central_difference(fn, deriv, breaks, _sup):
    rng = np.random.default_rng(0)
    lo, hi = breaks[0] - 1.0, breaks[1] + 1.0
    z = rng.uniform(lo, hi, size=10_000)
    h = 1e-6
    fd = (fn(z + h) - fn(z - h)) / (2.0 * h)
    exact = deriv(z)
    tol = np.maximum(1e-5 * np.abs(exact), 1e-8)
    # near a breakpoint the centered stencil straddles two pieces; the
    # C^1 join keeps the error O(h), which the tolerance does not cover
    away = np.min(np.abs(z[:, None] - np.asarray(breaks)[None, :]), axis=1) > 2 * h
    assert np.all(np.abs(fd - exact)[away] <= tol[away])
    assert away.sum() > 9_900


@pytest.mark.parametrize("fn,deriv,breaks,sup", GATES)
def test_range_and_derivative_bounds(fn, deriv, breaks, sup):
    z = np.linspace(breaks[0] - 1.0, breaks[1] + 1.0, 1_000_001)
    vals = fn(z)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    dmax = np.abs(deriv(z)).max()
    assert dmax <= sup
    assert dmax >= sup - 0.01


def test_sampled_derivative_suprema_windows():
    z = np.linspace(0.0, 1.0, 1_000_001)
    g_sup = np.abs(nor_gate_prime(z)).max()
    l_sup = np.abs(purify_gate_prime(z)).max()
    z_lam = np.linspace(3.0, 4.0, 1_000_001)
    lam_sup = np.abs(distance_threshold_prime(z_lam, 1)).max()
    assert 5.99 <= g_sup <= 6.0
    assert 8.99 <= l_sup <= 9.0
    assert 1.49 <= lam_sup <= 1.5


def test_rejects_bad_inputs():
    for fn in (nor_gate, nor_gate_prime, purify_gate, purify_gate_prime):
        with pytest.raises(ValueError):
            fn(float("nan"))
        with pytest.raises(ValueError):
            fn(float("inf"))
        with pytest.raises(ValueError):
            fn(np.array([[0.3, 0.4], [0.1, np.nan]]))
    with pytest.raises(ValueError):
        distance_threshold(1.0, 0)
    with pytest.raises(ValueError):
        distance_threshold_prime(1.0, -3)
    for fn in (distance_threshold, distance_threshold_prime):
        with pytest.raises(ValueError):
            fn(float("nan"), 1)
        with pytest.raises(ValueError):
            fn(np.array([3.5, np.nan]), 1)


def test_array_evaluation_matches_scalar():
    z = np.array([0.1, 0.3, 0.45, 0.7])
    np.testing.assert_array_equal(nor_gate(z), [nor_gate(v) for v in z])
    np.testing.assert_array_equal(purify_gate(z), [purify_gate(v) for v in z])
    zz = z + 3.0
    np.testing.assert_array_equal(
        distance_threshold(zz, 1), [distance_threshold(v, 1) for v in zz]
    )


# The whole-array formulas the kernels replaced, which computed every ramp
# on every element and then selected; the kernels now evaluate a ramp only
# strictly inside its interval and must agree with these bit for bit.
def whole_array(lo, hi, below, above, ramp):
    return lambda z: np.where(z <= lo, below, np.where(z >= hi, above, ramp(z)))


def _nor(z):
    t = z - 0.25
    return 128.0 * t**3 - 48.0 * t**2 + 1.0


def _nor_d(z):
    t = z - 0.25
    return 384.0 * t**2 - 96.0 * t


def _pur(z):
    t = z - 5.0 / 12.0
    return 144.0 * t**2 * (2.0 - 3.0 * z)


def _pur_d(z):
    t = z - 5.0 / 12.0
    return 288.0 * t * (2.0 - 3.0 * z) - 432.0 * t**2


def _dist(m):
    return lambda z: -2.0 * (z - 3.0 * m) ** 3 + 3.0 * (z - 3.0 * m) ** 2


def _dist_d(m):
    return lambda z: -6.0 * (z - 3.0 * m) ** 2 + 6.0 * (z - 3.0 * m)


KERNELS = [
    (nor_gate, whole_array(0.25, 0.5, 1.0, 0.0, _nor), (0.25, 0.5)),
    (nor_gate_prime, whole_array(0.25, 0.5, 0.0, 0.0, _nor_d), (0.25, 0.5)),
    (purify_gate, whole_array(5 / 12, 7 / 12, 0.0, 1.0, _pur), (5 / 12, 7 / 12)),
    (purify_gate_prime, whole_array(5 / 12, 7 / 12, 0.0, 0.0, _pur_d), (5 / 12, 7 / 12)),
] + [
    (lambda z, m=m: distance_threshold(z, m), whole_array(3 * m, 3 * m + 1, 0.0, 1.0, _dist(m)),
     (3.0 * m, 3.0 * m + 1.0))
    for m in (1, 2, 3)
] + [
    (lambda z, m=m: distance_threshold_prime(z, m),
     whole_array(3 * m, 3 * m + 1, 0.0, 0.0, _dist_d(m)), (3.0 * m, 3.0 * m + 1.0))
    for m in (1, 2, 3)
]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("fn,formula,breaks", KERNELS)
def test_kernels_match_the_whole_array_formula_bit_for_bit(fn, formula, breaks):
    lo, hi = breaks
    points = [0.25, 0.5, 5 / 12, 7 / 12, 3.0, 4.0, 6.0, 7.0, 9.0, 10.0, (lo + hi) / 2]
    edges = np.array([q for b in points
                      for q in (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf))])
    rng = np.random.default_rng(5)
    arrays = [edges, edges.reshape(-1, 3), rng.uniform(lo - 0.5, hi + 0.5, 4096),
              rng.uniform(lo, hi, (64, 17)), np.full((3, 4), lo - 1.0), np.empty((2, 0))]
    for z in arrays:
        got = fn(z)
        assert isinstance(got, np.ndarray) and got.shape == z.shape
        assert np.array_equal(_bits(got), _bits(formula(z)))
    # a scalar in gives a float out, equal to the formula on a 0-d array
    for z in list(edges) + list(rng.uniform(lo, hi, 64)):
        for arg in (float(z), np.float64(z), np.array(z)):
            got = fn(arg)
            assert type(got) is float
            assert _bits(got) == _bits(float(formula(np.asarray(z))))


# (value-and-slope call, value formula, slope formula, breakpoints)
FUSED = [
    (lambda z: nor_gate(z, slope=True), whole_array(0.25, 0.5, 1.0, 0.0, _nor),
     whole_array(0.25, 0.5, 0.0, 0.0, _nor_d), (0.25, 0.5)),
    (lambda z: purify_gate(z, slope=True), whole_array(5 / 12, 7 / 12, 0.0, 1.0, _pur),
     whole_array(5 / 12, 7 / 12, 0.0, 0.0, _pur_d), (5 / 12, 7 / 12)),
] + [
    (lambda z, m=m: distance_threshold(z, m, slope=True),
     whole_array(3 * m, 3 * m + 1, 0.0, 1.0, _dist(m)),
     whole_array(3 * m, 3 * m + 1, 0.0, 0.0, _dist_d(m)), (3.0 * m, 3.0 * m + 1.0))
    for m in (1, 2, 3)
]
FUSED_IDS = ["nor", "purify", "threshold-m1", "threshold-m2", "threshold-m3"]


@pytest.mark.parametrize("fused,value,slope,breaks", FUSED, ids=FUSED_IDS)
def test_value_and_slope_form_matches_both_formulas_bit_for_bit(fused, value, slope, breaks):
    lo, hi = breaks
    points = [0.25, 0.5, 5 / 12, 7 / 12, 3.0, 4.0, 6.0, 7.0, 9.0, 10.0, (lo + hi) / 2]
    edges = np.array([q for b in points
                      for q in (b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf))])
    rng = np.random.default_rng(6)
    arrays = [edges, edges.reshape(-1, 3), rng.uniform(lo - 0.5, hi + 0.5, 4096),
              rng.uniform(lo, hi, (64, 17)), np.full((3, 4), lo - 1.0), np.empty((2, 0))]
    for z in arrays:
        got_value, got_slope = fused(z)
        for got, formula in ((got_value, value), (got_slope, slope)):
            assert isinstance(got, np.ndarray) and got.shape == z.shape
            assert np.array_equal(_bits(got), _bits(formula(z)))
    # a scalar in gives a pair of floats out
    for z in list(edges) + list(rng.uniform(lo, hi, 64)):
        for arg in (float(z), np.float64(z), np.array(z)):
            got = fused(arg)
            assert type(got) is tuple and all(type(g) is float for g in got)
            assert _bits(got[0]) == _bits(float(value(np.asarray(z))))
            assert _bits(got[1]) == _bits(float(slope(np.asarray(z))))


@pytest.mark.parametrize("fused", [f[0] for f in FUSED], ids=FUSED_IDS)
def test_value_and_slope_form_refuses_non_finite_input(fused):
    for bad in (float("nan"), float("-inf"), np.array([[0.3, 0.4], [0.1, np.nan]])):
        with pytest.raises(ValueError, match="gate argument must be finite"):
            fused(bad)
