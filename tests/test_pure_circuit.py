import json

import pytest

from gdacube.pure_circuit import (
    Assignment,
    PureCircuitInstance,
    Trit,
    gen_example,
    validate_instance,
    verify_assignment,
)

RING3 = PureCircuitInstance(3, nor_gates=((1, 2, 0),), purify_gates=((0, 1, 2),))


def make(values):
    table = {0: Trit.ZERO, 1: Trit.ONE, None: Trit.BOT}
    return Assignment(tuple(table[v] for v in values))


def test_validate_ok_on_ring3():
    assert validate_instance(RING3) == []


def test_validate_missing_outputs():
    inst = PureCircuitInstance(3, nor_gates=((0, 1, 2),))
    problems = validate_instance(inst)
    assert any("vertex 0" in p for p in problems)
    assert any("vertex 1" in p for p in problems)


def test_validate_empty_circuit():
    problems = validate_instance(PureCircuitInstance(kappa=0))
    assert any("kappa = 0 < 1" in p for p in problems)


def test_validate_non_distinct_and_out_of_range():
    inst = PureCircuitInstance(3, nor_gates=((0, 0, 1), (0, 1, 2), (1, 2, 5)))
    problems = validate_instance(inst)
    assert any("not pairwise distinct" in p for p in problems)
    assert any("outside" in p for p in problems)


def test_verify_nor_rules():
    inst = PureCircuitInstance(3, nor_gates=((0, 1, 2),))
    assert verify_assignment(inst, make([0, 0, 1])) == []
    bad = verify_assignment(inst, make([1, 0, 1]))
    assert len(bad) == 1 and "input is 1" in bad[0].reason
    bad = verify_assignment(inst, make([0, 0, 0]))
    assert len(bad) == 1 and "not 1" in bad[0].reason
    # undecided inputs never force the output
    assert verify_assignment(inst, make([None, 0, None])) == []


def test_verify_purify_rules():
    inst = PureCircuitInstance(3, purify_gates=((0, 1, 2),))
    assert verify_assignment(inst, make([1, 1, 1])) == []
    assert verify_assignment(inst, make([None, 1, None])) == []
    bad = verify_assignment(inst, make([None, None, None]))
    assert len(bad) == 1 and "neither output" in bad[0].reason
    bad = verify_assignment(inst, make([1, 1, 0]))
    assert len(bad) == 1 and "not copied" in bad[0].reason


def test_verify_requires_total_assignment():
    with pytest.raises(ValueError):
        verify_assignment(RING3, make([0, 1]))


def test_ring3_generator_is_pinned():
    inst = gen_example("ring", 3, 0)
    assert inst == RING3
    assert gen_example("ring", 3, 0) == inst


@pytest.mark.parametrize("kind", ["ring", "purify_tree"])
@pytest.mark.parametrize("size", range(3, 13))
def test_generator_output_valid_and_deterministic(kind, size):
    a = gen_example(kind, size, seed=7)
    b = gen_example(kind, size, seed=7)
    assert a == b
    assert validate_instance(a) == []


def test_generator_rejects_small_sizes():
    with pytest.raises(ValueError):
        gen_example("ring", 2, 0)
    with pytest.raises(ValueError):
        gen_example("nonsense", 5, 0)


def test_corrupting_a_solution_is_always_detected():
    # ring-4 has the pure solution (0, 0, 0, 1); flipping any single vertex
    # against a forcing rule must surface at least one violated gate.
    inst = gen_example("ring", 4, 0)
    good = make([0, 0, 0, 1])
    assert verify_assignment(inst, good) == []
    flips = {
        0: [Trit.ONE],          # NOR(2,3->0) has an input at 1, forces 0
        1: [Trit.ONE],          # PURIFY(0->1,2) copies the pure 0
        2: [Trit.ONE, Trit.BOT],
        3: [Trit.ZERO, Trit.BOT],  # NOR(1,2->3) has both inputs 0, forces 1
    }
    for v, bad_values in flips.items():
        for bad in bad_values:
            vals = list(good.values)
            vals[v] = bad
            assert verify_assignment(inst, Assignment(tuple(vals))) != []


def test_json_round_trip():
    blob = json.dumps(RING3.to_json_dict())
    back = PureCircuitInstance.from_json_dict(json.loads(blob))
    assert back == RING3
    a = make([0, 1, None])
    back_a = Assignment.from_json_dict(json.loads(json.dumps(a.to_json_dict())))
    assert back_a == a
