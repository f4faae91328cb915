import json

import numpy as np
import pytest

from gdacube.lin_vi import (
    LinVIInstance,
    brute_force_solve,
    check_solution,
    gen_random,
)


def inst1(D, c, rho=0.1):
    return LinVIInstance(m=1, D=np.array([[D]]), c=np.array([c]), rho=rho)


def test_check_solution_pinned():
    # operator 1 at z=0: slacks min(0, 1) = 0 >= -0.1
    rep = check_solution(inst1(0.0, 1.0), [0.0], rho=0.1)
    assert rep.passed and rep.worst == 0.0
    # operator 1 at z=1: moving to 0 gives slack -1
    rep = check_solution(inst1(0.0, 1.0), [1.0], rho=0.1)
    assert not rep.passed and rep.worst == -1.0
    # exact solution with vanishing operator: slack exactly 0
    rep = check_solution(inst1(-1.0, 0.5), [0.5], rho=0.1)
    assert rep.passed and rep.worst == 0.0


def test_check_solution_rejects_bad_points():
    with pytest.raises(ValueError):
        check_solution(inst1(0.0, 1.0), [1.5])
    with pytest.raises(ValueError):
        check_solution(inst1(0.0, 1.0), [0.0, 0.0])


def test_type_invariants_enforced():
    with pytest.raises(ValueError):
        LinVIInstance(m=1, D=np.array([[2.0]]), c=np.array([0.0]), rho=0.1)
    with pytest.raises(ValueError):
        LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([0.0]), rho=0.0)
    # NaN compares False against any bound, so it needs its own check
    with pytest.raises(ValueError):
        LinVIInstance(m=1, D=np.array([[np.nan]]), c=np.array([0.0]), rho=0.1)
    with pytest.raises(ValueError):
        LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([np.nan]), rho=0.1)
    for rho in (np.inf, np.nan):
        with pytest.raises(ValueError):
            LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([0.0]), rho=rho)


def test_endpoint_reduction_dominates_interior_moves():
    # slack at any interior z' is never below the endpoint minimum
    rng = np.random.default_rng(3)
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        inst = gen_random(m, int(rng.integers(0, 2**31)))
        z = rng.uniform(0, 1, m)
        zp = rng.uniform(0, 1, m)
        rep = check_solution(inst, z)
        interior = inst.operator(z) * (zp - z)
        assert np.all(interior >= rep.slacks - 1e-12)


def test_brute_force_one_dimensional_oracles():
    # operator -z + 0.5 vanishes at 0.5; operator 1 pushes to the lower face
    z = brute_force_solve(inst1(-1.0, 0.5), grid_step=0.01)
    assert abs(z[0] - 0.5) <= 0.01
    z = brute_force_solve(inst1(0.0, 1.0), grid_step=0.01)
    assert abs(z[0] - 0.0) <= 0.01


def test_brute_force_zero_operator_ties_lexicographically():
    inst = LinVIInstance(m=2, D=np.zeros((2, 2)), c=np.zeros(2), rho=0.1)
    z = brute_force_solve(inst, grid_step=0.5)
    assert np.array_equal(z, [0.0, 0.0])
    assert check_solution(inst, z).worst == 0.0


def test_brute_force_rejects_large_m():
    with pytest.raises(ValueError):
        brute_force_solve(gen_random(4, 0), 0.5)


def test_brute_force_rejects_a_step_that_does_not_divide_the_interval():
    with pytest.raises(ValueError, match="must evenly divide"):
        brute_force_solve(gen_random(1, 0), 0.3)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_oracle_consistency_with_rho_3mh(m, seed):
    inst = gen_random(m, seed)
    h = 0.05
    z = brute_force_solve(inst, h)
    assert check_solution(inst, z, rho=3 * m * h).passed


def test_gen_random_deterministic_and_in_range():
    a = gen_random(1, 7)
    b = gen_random(1, 7)
    assert np.array_equal(a.D, b.D) and np.array_equal(a.c, b.c)
    two = gen_random(2, 0)
    assert np.abs(two.D).max() <= 1.0 and np.abs(two.c).max() <= 1.0
    three = gen_random(3, 1)
    assert three.m == 3 and three.rho > 0


def test_json_round_trip():
    inst = gen_random(3, 11, rho=0.25)
    blob = json.dumps(inst.to_json_dict())
    back = LinVIInstance.from_json_dict(json.loads(blob))
    assert back.m == inst.m and back.rho == inst.rho
    assert np.array_equal(back.D, inst.D) and np.array_equal(back.c, inst.c)
    assert json.dumps(back.to_json_dict()) == blob
