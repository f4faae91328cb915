"""The report writer of ``cli._dump`` against the stdlib's indented encoder.

Every artifact must be exactly ``json.dumps(obj, indent=2, sort_keys=True)``
plus a newline; the writer hands whole arrays of numbers to the C encoder and
re-indents them, so these tests compare it with the stdlib on generated trees
and on real reports.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdacube import cli
from gdacube.reduction import GdaInstance, JointPoint


def stdlib(obj):
    try:
        return json.dumps(obj, indent=2, sort_keys=True)
    except (TypeError, ValueError) as e:
        return type(e)


def written(obj):
    out = []
    try:
        cli._write(obj, out)
    except (TypeError, ValueError) as e:
        return type(e)
    return "".join(out)


FLOATS = (st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e16,
                             0.1, -2.5e-308, 1.7976931348623157e308])
          | st.floats(width=64).map(np.float64))
INTS = st.integers() | st.sampled_from([2**64, 2**64 + 1, -(2**70), 10**30])
NUMBERS = FLOATS | INTS | st.booleans() | st.none()
# strings holding the separators the writer replaces, quotes, backslashes,
# control characters, non-ASCII text and a lone surrogate
TEXT = st.text(max_size=8) | st.sampled_from([
    ", ", "], [", "]], [[", "[1, 2]", '"', '\\"', "\\", "\x00\x1f\n\t\r", "é ☃ 𝄞", "\ud800",
    ": ", "{}", "[]", "",
])
SCALARS = NUMBERS | TEXT


def arrays(depth):
    """Non-empty ragged arrays nested exactly ``depth`` deep, lists or tuples."""
    if depth == 0:
        return NUMBERS
    inner = st.lists(arrays(depth - 1), min_size=1, max_size=4)
    return inner | inner.map(tuple)


KEYS = st.sampled_from([TEXT, st.integers(), st.floats(), st.booleans(), st.none(),
                        TEXT | st.integers()])


def containers(children):
    items = st.lists(children, max_size=5)
    return (items | items.map(tuple)
            | KEYS.flatmap(lambda keys: st.dictionaries(keys, children, max_size=5)))


TREES = st.recursive(SCALARS | st.integers(1, 4).flatmap(arrays), containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(TREES)
@example({"t": [[[1.0, 2.0], [3.0]], [[4.0, -0.0, float("nan")]]], "e": [[], [[]], {}]})
@example([[[[5e-324]]], [[[1e16, None, True]]]])
@example({"s": ["], [", ", ", "]], [["], "mixed": [1, "a", [2], {"k": (3, 4)}]})
@example({1: "a", 2.5: [1], True: 0, "x": 1})  # unsortable keys: a TypeError in both
@example({1.5: [0.5], float("inf"): (), -2: {None: 1}})
def test_writer_matches_the_stdlib_encoder(obj):
    assert written(obj) == stdlib(obj)


def test_writer_refuses_what_the_stdlib_refuses():
    for obj in ({(1, 2): 0}, [np.int64(3)], {"a": {1, 2}}, [object()]):
        assert written(obj) is TypeError and stdlib(obj) is TypeError


def _dumped(monkeypatch) -> list:
    """Record every object ``cli._dump`` writes."""
    seen, dump = [], cli._dump
    monkeypatch.setattr(cli, "_dump", lambda d, path: (seen.append(d), dump(d, path)))
    return seen


def _assert_stdlib_bytes(obj, path):
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_kappa_16_audit_report_is_the_stdlib_encoding(tmp_path, monkeypatch):
    pc, vi, inst = tmp_path / "pc.json", tmp_path / "vi.json", tmp_path / "inst.json"
    assert cli.main(["gen-pc", "--size", "16", "--seed", "3", "--out", str(pc)]) == 0
    assert cli.main(["gen-vi", "--m", "3", "--seed", "4", "--rho", "1e-3",
                     "--out", str(vi)]) == 0
    assert cli.main(["build", "--pc", str(pc), "--vi", str(vi), "--n", "8",
                     "--epsilon", "1e-3", "--delta", "0.5", "--out", str(inst)]) == 0
    instance = GdaInstance.from_json_dict(json.loads(inst.read_text()))
    rng = np.random.default_rng(5)
    point = tmp_path / "point.json"
    point.write_text(json.dumps(JointPoint(rng.uniform(0.05, 0.95, instance.d),
                                           rng.uniform(0.05, 0.95, instance.d)).to_json_dict()))
    seen = _dumped(monkeypatch)
    report = tmp_path / "audit.json"
    assert cli.main(["audit", "--instance", str(inst), "--point", str(point),
                     "--eps", str(instance.bounds.G), "--out", str(report)]) in (0, 6)
    (obj,) = seen
    assert np.shape(obj["lemmas"]["coord_bound"]["measured"]) == (16, 8, 3)
    _assert_stdlib_bytes(obj, report)
    _assert_stdlib_bytes(json.loads(report.read_text()), report)


@pytest.mark.parametrize("flags", [["--m", "2", "--iters", "50"],
                                   ["--method", "grid", "--h", "0.5", "--n", "1"]],
                         ids=["extragradient", "grid"])
def test_pipeline_report_is_the_stdlib_encoding(tmp_path, monkeypatch, flags):
    seen = _dumped(monkeypatch)
    report = tmp_path / "report.json"
    assert cli.main(["pipeline", "--seed", "7", *flags, "--no-timings",
                     "--out", str(report)]) in (0, 6)
    (obj,) = seen
    _assert_stdlib_bytes(obj, report)
