import json
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gdacube import cli, reduction, solver
from gdacube.lin_vi import LinVIInstance
from gdacube.pure_circuit import PureCircuitInstance
from gdacube.reduction import GdaInstance, JointPoint

SRC = str(Path(cli.__file__).resolve().parents[1])
# a JSON integer past Python's integer-string digit limit, which json.dumps
# cannot write and json.loads refuses with a ValueError
OVERLONG = "1" + "0" * 5000


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    """Generated pc/vi files plus a built instance and a random point."""
    pc = tmp_path / "pc.json"
    vi = tmp_path / "vi.json"
    inst = tmp_path / "inst.json"
    assert run("gen-pc", "--kind", "ring", "--size", 3, "--seed", 0, "--out", pc) == 0
    assert run("gen-vi", "--m", 1, "--seed", 5, "--out", vi) == 0
    assert run("build", "--pc", pc, "--vi", vi, "--n", 2, "--epsilon", 1e-3,
               "--delta", 0.5, "--out", inst) == 0
    instance = GdaInstance.from_json_dict(json.loads(inst.read_text()))
    point = tmp_path / "point.json"
    rng = np.random.default_rng(0)
    p = JointPoint(rng.uniform(0, 1, instance.d), rng.uniform(0, 1, instance.d))
    point.write_text(json.dumps(p.to_json_dict()))
    return tmp_path, pc, vi, inst, point, instance


def test_gen_outputs_are_valid(workspace):
    _, pc, vi, *_ = workspace
    PureCircuitInstance.from_json_dict(json.loads(pc.read_text()))
    LinVIInstance.from_json_dict(json.loads(vi.read_text()))


def test_build_writes_instance_with_bounds(workspace):
    *_, inst_path, _point, instance = workspace
    blob = json.loads(inst_path.read_text())
    assert blob["d"] == 6
    assert set(blob["bounds"]) == {"G", "L", "B", "note"}
    assert instance.d == 6


def test_build_paper_mode_refuses_with_cap_exit(workspace, capsys):
    tmp, pc, vi, *_ = workspace
    vi2 = tmp / "vi2.json"
    assert run("gen-vi", "--m", 2, "--seed", 0, "--out", vi2) == 0
    code = run("build", "--pc", pc, "--vi", vi2, "--paper", "--rho", "1/2",
               "--out", tmp / "nope.json")
    assert code == cli.EXIT_CAP
    out = capsys.readouterr()
    # exact rational parameters are reported before refusal
    assert str(9 * 2**86) in out.out
    assert "1/16384" in out.out
    assert not (tmp / "nope.json").exists()


def test_eval_prints_value(workspace, capsys):
    tmp, _pc, _vi, inst, point, instance = workspace
    assert run("eval", "--instance", inst, "--point", point,
               "--out", tmp / "diag.json") == 0
    out = capsys.readouterr().out
    assert out.startswith("f = ")
    diag = json.loads((tmp / "diag.json").read_text())
    assert len(diag["diagnostics"]["gate_value"]) == instance.kappa


def test_grad_check_passes(workspace, tmp_path):
    *_, inst, _point, _instance = workspace
    outfile = tmp_path / "gc.json"
    assert run("grad-check", "--instance", inst, "--points", 100, "--seed", 3,
               "--out", outfile) == 0
    result = json.loads(outfile.read_text())
    assert result["points"] == 100
    assert result["pass"] and result["max_dual_relative_error"] <= 1e-12


SOLVER_KEYS = {"max_violation", "epsilon", "pass", "method", "iterations", "seed",
               "point", "trace"}


@pytest.mark.parametrize("method, flags", [
    pytest.param("gda", ["--step", 0.05, "--iters", 200], id="gda"),
    pytest.param("extragradient", ["--step", 0.05, "--iters", 200], id="extragradient"),
    pytest.param("grid", ["--h", 0.5], id="grid"),
])
def test_solve_reports_required_fields(workspace, tmp_path, method, flags):
    *_, inst, _point, _instance = workspace
    outfile = tmp_path / "sol.json"
    assert run("solve", "--instance", inst, "--method", method, *flags,
               "--seed", 1, "--out", outfile) == 0
    rep = json.loads(outfile.read_text())
    assert set(rep) == SOLVER_KEYS  # one SolverResult shape for every method
    assert rep["method"] == method
    if method == "grid":
        assert rep["iterations"] == 0 and rep["seed"] is None
        assert rep["trace"] == [[0, rep["max_violation"]]]
    else:
        assert rep["seed"] == 1


def test_solve_grid_method(workspace, tmp_path):
    *_, inst, _point, _instance = workspace
    outfile = tmp_path / "sol.json"
    assert run("solve", "--instance", inst, "--method", "grid", "--h", 0.5,
               "--out", outfile) == 0
    rep = json.loads(outfile.read_text())
    assert rep["method"] == "grid"
    # grid method without spacing is a usage error
    assert run("solve", "--instance", inst, "--method", "grid") == cli.EXIT_PARSE


def test_decode_and_audit_commands(workspace, tmp_path, capsys):
    tmp, _pc, _vi, inst, point, instance = workspace
    assert run("decode", "--instance", inst, "--point", point,
               "--out", tmp_path / "dec.json") == 0
    outcome = json.loads((tmp_path / "dec.json").read_text())
    assert outcome["kind"] in ("linvi", "pc", "inconclusive")
    # a generous eps certifies any point, the audit then runs observationally
    assert run("audit", "--instance", inst, "--point", point,
               "--eps", instance.bounds.G, "--out", tmp_path / "audit.json") == 0
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert audit["lemmas"]["coord_bound"]["holds"]
    # an unreachable eps is a precondition failure, not an audit failure
    assert run("audit", "--instance", inst, "--point", point,
               "--eps", 1e-15) == cli.EXIT_VALIDATION


# The grid run exits 6: at n = 1 the audit's closed-form l1 limit is 0, which
# the exact grid-stationary point found at seed 7 exceeds (the known n = 1
# audit defect; see ROADMAP). The report is written either way.
@pytest.mark.parametrize("solver_flags, code", [
    pytest.param(["--n", 4, "--iters", 300], cli.EXIT_OK, id="extragradient"),
    pytest.param(["--method", "grid", "--h", 0.5, "--n", 1], cli.EXIT_AUDIT, id="grid"),
])
def test_pipeline_reports_are_byte_identical(tmp_path, solver_flags, code):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    flags = ["pipeline", "--seed", 7, "--pc-size", 4, *solver_flags, "--no-timings"]
    assert run(*flags, "--out", a) == code
    assert run(*flags, "--out", b) == code
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["config"]["seed"] == 7
    assert "timings_sec" not in report
    assert {"instance", "solver", "decode", "audit", "dichotomy"} <= set(report)


@pytest.mark.parametrize("method", [
    pytest.param(["--method", "extragradient"], id="extragradient"),
    pytest.param(["--method", "gda"], id="gda"),
    pytest.param(["--method", "grid", "--h", 0.5, "--n", 1], id="grid"),
])
def test_pipeline_evaluates_its_final_point_once(tmp_path, monkeypatch, method):
    # every forward pass runs through _field_many (the solvers hold their own
    # binding of it). With two restarts a solver step is a 2-row batch and a
    # grid tile has many rows, so the one 1-row pass is the final point's
    # record, made in the solve; decode and the audit make no pass of their own
    passes, phase = [], ["solve"]
    field_many = reduction._field_many

    def counted(inst, X, Y):
        passes.append((phase[0], len(X), X[0].tolist()))
        return field_many(inst, X, Y)

    monkeypatch.setattr(reduction, "_field_many", counted)
    monkeypatch.setattr(solver, "_field_many", counted)
    for name in ("decode", "lemma_audit"):
        def within(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            phase[0] = _name
            try:
                return _fn(*args, **kwargs)
            finally:
                phase[0] = "after"
        monkeypatch.setattr(cli, name, within)
    out = tmp_path / "r.json"
    assert run("pipeline", "--seed", 7, "--pc-size", 4, "--iters", 30, "--restarts", 2,
               *method, "--no-timings", "--out", out) in (cli.EXIT_OK, cli.EXIT_AUDIT)
    final = json.loads(out.read_text())["solver"]["point"]["x"]
    assert [(ph, x) for ph, rows, x in passes if rows == 1] == [("solve", final)]
    assert {ph for ph, _, _ in passes} == {"solve"}


def test_audit_exits_6_when_premises_hold_and_both_branches_fail(tmp_path, monkeypatch):
    # a VI no copy can solve at x = 0.3 and a ring-3 point whose NOR gate
    # reads 1 at level 0: no witness, inconsistent gates
    pc, vi, inst = tmp_path / "pc.json", tmp_path / "vi.json", tmp_path / "inst.json"
    assert run("gen-pc", "--kind", "ring", "--size", 3, "--out", pc) == 0
    vi.write_text(json.dumps(LinVIInstance(m=1, D=np.array([[0.0]]), c=np.array([1.0]),
                                           rho=0.1).to_json_dict()))
    assert run("build", "--pc", pc, "--vi", vi, "--n", 1, "--epsilon", 1e-3,
               "--delta", 0.5, "--out", inst) == 0
    instance = GdaInstance.from_json_dict(json.loads(inst.read_text()))
    point = tmp_path / "point.json"
    x = np.full(instance.d, 0.3)
    point.write_text(json.dumps(JointPoint(x, x.copy()).to_json_dict()))
    premises = GdaInstance.premises
    monkeypatch.setattr(GdaInstance, "premises",
                        lambda self: {k: True for k in premises(self)})
    out = tmp_path / "audit.json"
    assert run("audit", "--instance", inst, "--point", point,
               "--eps", instance.bounds.G, "--out", out) == cli.EXIT_AUDIT
    payload = json.loads(out.read_text())
    assert "yet all parameter premises hold" in payload["dichotomy_error"]
    assert "dichotomy" not in payload


def test_pipeline_exits_6_when_premises_hold_and_both_branches_fail(tmp_path, monkeypatch):
    # the audit test's VI, and one tiny step from the random start at seed 0:
    # no copy solves the VI, every level is 0 and the NOR gate reads 1
    premises = GdaInstance.premises
    monkeypatch.setattr(GdaInstance, "premises",
                        lambda self: {k: True for k in premises(self)})
    monkeypatch.setattr(cli, "gen_random", lambda m, seed, rho: LinVIInstance(
        m=1, D=np.array([[0.0]]), c=np.array([1.0]), rho=rho))
    out = tmp_path / "r.json"
    assert run("pipeline", "--pc-size", 3, "--n", 1, "--method", "gda", "--step", 1e-9,
               "--iters", 1, "--restarts", 1, "--seed", 0, "--no-timings",
               "--out", out) == cli.EXIT_AUDIT
    report = json.loads(out.read_text())
    assert "yet all parameter premises hold" in report["dichotomy_error"]
    assert "dichotomy" not in report
    lemmas = report["audit"]
    assert all(lemmas[k]["holds"] for k in ("coord_bound", "l1_bound", "noise_bound"))


def test_pipeline_timings_included_by_default(tmp_path):
    out = tmp_path / "r.json"
    assert run("pipeline", "--seed", 1, "--iters", 50, "--out", out) == 0
    timings = json.loads(out.read_text())["timings_sec"]
    assert set(timings) == {"build", "solve", "decode", "audit"}


def test_malformed_json_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert run("build", "--pc", bad, "--vi", bad, "--n", 1, "--epsilon", 1e-3,
               "--delta", 0.5) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 1" in err and "bad.json" in err


@pytest.mark.parametrize("blob", [
    b'{"x": [0.5, %s], "y": [0.5, 0.5]}' % OVERLONG.encode(),
    b'{"x": [0.5, 0.5], "y": [0.5, 0.5], "note": "\xff"}',
], ids=["overlong-integer-coordinate", "not-utf-8"])
def test_unreadable_point_file_is_a_parse_error(workspace, tmp_path, capsys, blob):
    *_, inst, _point, _instance = workspace
    bad = tmp_path / "bad_point.json"
    bad.write_bytes(blob)
    assert run("eval", "--instance", inst, "--point", bad) == cli.EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_missing_file_is_a_parse_error(tmp_path):
    assert run("eval", "--instance", tmp_path / "nothere.json",
               "--point", tmp_path / "alsonot.json") == cli.EXIT_PARSE


def test_invalid_circuit_is_a_validation_error(tmp_path, capsys):
    pc = tmp_path / "pc.json"
    pc.write_text(json.dumps({"kappa": 3, "nor": [[0, 1, 2]], "purify": []}))
    vi = tmp_path / "vi.json"
    assert run("gen-vi", "--m", 1, "--seed", 0, "--out", vi) == 0
    assert run("build", "--pc", pc, "--vi", vi, "--n", 1, "--epsilon", 1e-3,
               "--delta", 0.5) == cli.EXIT_VALIDATION


def test_instance_files_round_trip(workspace):
    *_, inst_path, _point, _instance = workspace
    blob = inst_path.read_text()
    back = GdaInstance.from_json_dict(json.loads(blob))
    assert json.dumps(back.to_json_dict(), indent=2, sort_keys=True) + "\n" == blob


RING3_PC = {"kappa": 3, "nor": [[1, 2, 0]], "purify": [[0, 1, 2]]}
VI1 = {"m": 1, "D": [[0.5]], "c": [0.2], "rho": 0.1}
OVERLONG_RHO_VI = json.dumps(VI1).replace("0.1", OVERLONG)


@pytest.mark.parametrize("pc, vi, code", [
    (RING3_PC, {**VI1, "D": [[float("nan")]]}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "c": [float("nan")]}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "rho": float("inf")}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "rho": True}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "rho": "0.1"}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "D": [[True]]}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "c": ["0.5"]}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "D": [[0.5, 0.1]]}, cli.EXIT_VALIDATION),
    ({"kappa": 0, "nor": [], "purify": []}, VI1, cli.EXIT_VALIDATION),
    ({"nor": [[1, 2, 0]], "purify": [[0, 1, 2]]}, VI1, cli.EXIT_PARSE),
    ({**RING3_PC, "kappa": None}, VI1, cli.EXIT_PARSE),
    ({**RING3_PC, "kappa": 3.5}, VI1, cli.EXIT_PARSE),
    ({**RING3_PC, "kappa": "3"}, VI1, cli.EXIT_PARSE),
    (RING3_PC, {**VI1, "m": 1.5}, cli.EXIT_PARSE),
    (RING3_PC, {**VI1, "m": "1"}, cli.EXIT_PARSE),
    ({**RING3_PC, "nor": [[1, 2.5, 0]]}, VI1, cli.EXIT_PARSE),
    ({**RING3_PC, "purify": [[0, "1", 2]]}, VI1, cli.EXIT_PARSE),
    (RING3_PC, {**VI1, "rho": 10**400}, cli.EXIT_VALIDATION),
    (RING3_PC, {**VI1, "D": [[10**400]]}, cli.EXIT_VALIDATION),
    (RING3_PC, OVERLONG_RHO_VI, cli.EXIT_PARSE),
], ids=["nan-in-D", "nan-in-c", "infinite-rho", "bool-rho", "string-rho", "bool-in-D",
        "string-in-c", "D-not-m-by-m", "kappa-0", "no-kappa-key", "null-kappa",
        "fractional-kappa", "string-kappa", "fractional-m", "string-m",
        "fractional-vertex", "string-vertex", "huge-integer-rho", "huge-integer-in-D",
        "overlong-integer-rho"])
def test_malformed_build_inputs_exit_with_their_code(tmp_path, pc, vi, code):
    pc_path, vi_path = tmp_path / "pc.json", tmp_path / "vi.json"
    pc_path.write_text(json.dumps(pc))
    vi_path.write_text(vi if isinstance(vi, str) else json.dumps(vi))
    assert run("build", "--pc", pc_path, "--vi", vi_path, "--n", 2, "--epsilon", 1e-3,
               "--delta", 0.5, "--out", tmp_path / "inst.json") == code
    assert not (tmp_path / "inst.json").exists()


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))


def test_huge_kappa_is_refused_before_any_per_vertex_work(tmp_path):
    # in a child process capped at 2 GB, so that a regression fails with a
    # MemoryError there instead of taking this process's memory
    pc, vi = tmp_path / "pc.json", tmp_path / "vi.json"
    pc.write_text(json.dumps({"kappa": 10**12, "nor": [], "purify": []}))
    vi.write_text(json.dumps(VI1))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    for flags in (["--n", "2", "--epsilon", "1e-3", "--delta", "0.5"], ["--paper"]):
        proc = subprocess.run(
            [sys.executable, "-m", "gdacube.cli", "build", "--pc", str(pc), "--vi", str(vi),
             *flags], env=env, preexec_fn=_limit_address_space, capture_output=True,
            text=True, timeout=120, check=False)
        assert proc.returncode == cli.EXIT_CAP, proc.stderr
        assert "cap exceeded" in proc.stderr


def test_custom_build_without_n_is_a_parse_error(workspace, capsys):
    tmp, pc, vi, *_ = workspace
    assert run("build", "--pc", pc, "--vi", vi, "--epsilon", 1e-3, "--delta", 0.5,
               "--out", tmp / "nope.json") == cli.EXIT_PARSE
    assert "custom mode needs --n" in capsys.readouterr().err
    assert not (tmp / "nope.json").exists()


def test_gen_vi_without_coordinates_is_a_validation_error(tmp_path, capsys):
    assert run("gen-vi", "--m", 0, "--out", tmp_path / "vi.json") == cli.EXIT_VALIDATION
    assert "m must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "vi.json").exists()


def test_non_integer_copy_count_is_a_validation_error(workspace, tmp_path):
    *_, inst_path, point, _instance = workspace
    blob = json.loads(inst_path.read_text())
    blob["params"]["n"] = 2.5  # truncating it would match the point's dimension
    bad = tmp_path / "bad_inst.json"
    bad.write_text(json.dumps(blob))
    assert run("eval", "--instance", bad, "--point", point) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("field, value", [
    ("n", True), ("n", "2"), ("epsilon", "0.001"), ("epsilon", True), ("delta", None),
    *(pytest.param(field, 10**400, id=f"{field}-huge-integer")  # too large for a float
      for field in ("n", "epsilon", "delta")),
])
def test_non_number_params_are_a_validation_error(workspace, tmp_path, capsys, field, value):
    *_, inst_path, point, _instance = workspace
    blob = json.loads(inst_path.read_text())
    blob["params"][field] = value
    bad = tmp_path / "bad_inst.json"
    bad.write_text(json.dumps(blob))
    assert run("eval", "--instance", bad, "--point", point) == cli.EXIT_VALIDATION
    assert f"{field} must be a real number" in capsys.readouterr().err


def test_paper_mode_artifact_is_refused_with_cap_exit(workspace, tmp_path, capsys):
    *_, inst_path, point, _instance = workspace
    blob = json.loads(inst_path.read_text())
    # tiny exact numbers: n = 9/2 would once build with n truncated to 4
    blob["params"] = {"n": "9/2", "epsilon": "1/1000", "delta": "1/2", "mode": "paper"}
    blob["d"] = 12
    bad = tmp_path / "paper_inst.json"
    bad.write_text(json.dumps(blob))
    assert run("eval", "--instance", bad, "--point", point) == cli.EXIT_CAP
    assert "paper-mode parameters are never materialized" in capsys.readouterr().err


def test_stored_materializable_key_is_ignored(workspace, tmp_path):
    *_, inst_path, point, _instance = workspace
    blob = json.loads(inst_path.read_text())
    assert "materializable" not in blob["params"]
    blob["params"]["materializable"] = False  # written by older versions
    old = tmp_path / "old_inst.json"
    old.write_text(json.dumps(blob))
    assert run("eval", "--instance", old, "--point", point) == cli.EXIT_OK


@pytest.mark.parametrize("command, flags", [
    ("eval", []), ("decode", []), ("audit", ["--eps", 1.0]),
])
def test_point_of_the_wrong_length_is_a_validation_error(workspace, tmp_path, capsys,
                                                         command, flags):
    *_, inst, _point, instance = workspace
    short = tmp_path / "short.json"
    half = np.zeros(instance.d // 2)
    short.write_text(json.dumps(JointPoint(half, half).to_json_dict()))
    assert run(command, "--instance", inst, "--point", short, *flags) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"point has dimension {half.size}, instance needs {instance.d}" in err


@pytest.mark.parametrize("blob, message", [
    ({"x": [0.5, float("nan")], "y": [0.5, 0.5]}, "coordinates must be finite"),
    ({"x": [0.5, 0.5], "y": [0.5]}, "x and y must be equal-length vectors"),
    ({"x": [0.5, 10**400], "y": [0.5, 0.5]}, "x holds an integer too large for a float"),
    ({"x": [True, 0.5], "y": [0.5, 0.5]}, "x must hold real numbers only, got a bool"),
    ({"x": [0.5, 0.5], "y": ["0.5", 0.5]}, "y must hold real numbers only, got a str"),
    ({"x": [0.5, 0.5], "y": [0.5, None]}, "y must hold real numbers only, got a NoneType"),
], ids=["nan-coordinate", "unequal-lengths", "huge-integer-coordinate", "bool-coordinate",
        "string-coordinate", "null-coordinate"])
def test_malformed_point_file_is_a_validation_error(workspace, tmp_path, capsys, blob, message):
    *_, inst, _point, _instance = workspace
    bad = tmp_path / "bad_point.json"
    bad.write_text(json.dumps(blob))
    assert run("eval", "--instance", inst, "--point", bad) == cli.EXIT_VALIDATION
    assert message in capsys.readouterr().err


# the workspace instance has d = kappa*n*m = 3*2*1 = 6
@pytest.mark.parametrize("d, code", [(7, cli.EXIT_VALIDATION), (6.5, cli.EXIT_PARSE),
                                     ("6", cli.EXIT_PARSE)])
def test_stored_dimension_must_be_kappa_n_m(workspace, tmp_path, d, code):
    *_, inst_path, point, instance = workspace
    blob = json.loads(inst_path.read_text())
    assert blob["d"] == instance.d == 6
    blob["d"] = d
    bad = tmp_path / "bad_inst.json"
    bad.write_text(json.dumps(blob))
    assert run("eval", "--instance", bad, "--point", point) == code


@pytest.mark.parametrize("epsilon, delta", [("inf", 0.5), (1e-3, "inf"), ("inf", "inf")])
def test_infinite_epsilon_or_delta_is_a_validation_error(workspace, tmp_path, capsys,
                                                         epsilon, delta):
    _tmp, pc, vi, *_ = workspace
    out = tmp_path / "inf_inst.json"
    assert run("build", "--pc", pc, "--vi", vi, "--n", 2, "--epsilon", epsilon,
               "--delta", delta, "--out", out) == cli.EXIT_VALIDATION
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_delta_is_a_validation_error(workspace, tmp_path, capsys):
    # delta * (i - n/2) overflows M_i, and with it the bounds G, L and B
    _tmp, pc, vi, *_ = workspace
    out = tmp_path / "big.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("build", "--pc", pc, "--vi", vi, "--n", 4, "--epsilon", 1e-3,
                   "--delta", 1e308, "--out", out) == cli.EXIT_VALIDATION
        assert run("pipeline", "--n", 4, "--delta", 1e308, "--iters", 5,
                   "--out", out) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err.count("overflows the regularizer weights") == 2
    assert not out.exists()


@pytest.mark.parametrize("delta", [1e-320, 1e-100, 1e80])
def test_premises_of_extreme_delta_are_evaluated_exactly(delta, tmp_path):
    # in floating point delta**4 underflows to 0 (1e-100) or overflows
    # (1e80); at a subnormal delta the audit's per-copy bound overflows to inf
    out = tmp_path / "r.json"
    assert run("pipeline", "--n", 4, "--delta", delta, "--iters", 5, "--no-timings",
               "--out", out) == 0
    premises = json.loads(out.read_text())["instance"]["premises"]
    assert premises["n_ge_2^24_m^6_k^2_over_delta^4"] is (delta > 1)


def test_edited_stored_bounds_are_a_validation_error(workspace, tmp_path, capsys):
    *_, inst_path, point, _instance = workspace
    blob = json.loads(inst_path.read_text())
    blob["bounds"]["G"] *= 2.0
    bad = tmp_path / "bad_inst.json"
    bad.write_text(json.dumps(blob))
    assert run("eval", "--instance", bad, "--point", point) == cli.EXIT_VALIDATION
    assert "stored bounds differ" in capsys.readouterr().err


@pytest.mark.parametrize("h", [0, -0.5, "inf", "nan"])
def test_bad_grid_spacing_is_a_validation_error(workspace, capsys, h):
    *_, inst, _point, _instance = workspace
    assert run("solve", "--instance", inst, "--method", "grid", "--h", h) == cli.EXIT_VALIDATION
    assert run("pipeline", "--method", "grid", "--h", h, "--n", 1) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("grid spacing h must be finite and positive") == 2


@pytest.mark.parametrize("step", ["inf", "nan", 0, -0.1])
def test_bad_step_is_a_validation_error(workspace, capsys, step):
    *_, inst, _point, _instance = workspace
    assert run("solve", "--instance", inst, "--step", step, "--iters", 5) == cli.EXIT_VALIDATION
    assert run("pipeline", "--step", step, "--iters", 5) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count("step must be finite and positive") == 2


BAD_RHO = ["nan", "inf", "-inf", 0, -0.1]


@pytest.mark.parametrize("rho", BAD_RHO)
def test_bad_rho_override_is_a_validation_error(workspace, capsys, rho):
    *_, inst, point, instance = workspace
    # "--rho=-inf": argparse would take a separate "-inf" for an option
    assert run("decode", "--instance", inst, "--point", point, f"--rho={rho}") == cli.EXIT_VALIDATION
    assert run("audit", "--instance", inst, "--point", point, "--eps", instance.bounds.G,
               f"--rho={rho}") == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count(f"rho must be finite and positive, got {float(rho)!r}") == 2


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf", -1e-3])
def test_bad_target_eps_is_a_validation_error(workspace, capsys, eps):
    *_, inst, point, _instance = workspace
    eps_flag = f"--eps={eps}"
    assert run("solve", "--instance", inst, eps_flag, "--step", 0.05,
               "--iters", 5) == cli.EXIT_VALIDATION
    assert run("solve", "--instance", inst, "--method", "grid", "--h", 0.5,
               eps_flag) == cli.EXIT_VALIDATION
    assert run("pipeline", eps_flag, "--iters", 5) == cli.EXIT_VALIDATION
    assert run("audit", "--instance", inst, "--point", point, eps_flag) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count(f"eps must be finite and non-negative, got {float(eps)!r}") == 4


@pytest.mark.parametrize("fd_step", ["nan", "inf", 0, -1e-6])
def test_bad_fd_step_is_a_validation_error(workspace, capsys, fd_step):
    *_, inst, _point, _instance = workspace
    assert run("grad-check", "--instance", inst, "--points", 1,
               f"--fd-step={fd_step}") == cli.EXIT_VALIDATION
    assert "finite-difference step must be finite and positive" in capsys.readouterr().err


def test_subnormal_fd_step_is_a_validation_error(workspace, capsys):
    # eps * |f| / h overflows, so the tolerance could not fail any error
    *_, inst, _point, _instance = workspace
    assert run("grad-check", "--instance", inst, "--points", 1,
               "--fd-step", 5e-324) == cli.EXIT_VALIDATION
    assert "rounding error overflows" in capsys.readouterr().err


def test_vacuous_fd_step_is_a_validation_error(workspace, capsys):
    # z + h rounds back to z, so every difference would read 0 and pass
    *_, inst, _point, _instance = workspace
    assert run("grad-check", "--instance", inst, "--points", 1,
               "--fd-step", 1e-300) == cli.EXIT_VALIDATION
    assert "lost in rounding" in capsys.readouterr().err


@pytest.mark.parametrize("points", [0, -3])
def test_grad_check_without_points_is_a_validation_error(workspace, capsys, points):
    # no point would pass vacuously and never look at --fd-step
    *_, inst, _point, _instance = workspace
    assert run("grad-check", "--instance", inst, f"--points={points}",
               "--fd-step", 0) == cli.EXIT_VALIDATION
    assert f"needs at least one point, got {points}" in capsys.readouterr().err


@pytest.fixture
def purify_tree_64(tmp_path):
    """A d = 1,024 purify_tree instance where a 1e-8 absolute floor failed."""
    pc, vi, inst = tmp_path / "pc.json", tmp_path / "vi.json", tmp_path / "inst.json"
    assert run("gen-pc", "--kind", "purify_tree", "--size", 64, "--seed", 922899329,
               "--out", pc) == 0
    assert run("gen-vi", "--m", 2, "--seed", 1821646917, "--out", vi) == 0
    assert run("build", "--pc", pc, "--vi", vi, "--n", 8, "--epsilon", 1e-3,
               "--delta", 0.5, "--out", inst) == 0
    return inst


GRAD_CHECK_SEED = 3953475944  # f = 63: eps * |f| / h = 1.4e-8 at h = 1e-6


def test_grad_check_floor_covers_finite_difference_rounding(purify_tree_64, tmp_path):
    out = tmp_path / "gc.json"
    assert run("grad-check", "--instance", purify_tree_64, "--points", 1,
               "--seed", GRAD_CHECK_SEED, "--out", out) == 0
    assert json.loads(out.read_text())["max_fd_tolerance_ratio"] < 1.0


def test_grad_check_floor_still_catches_a_small_gradient_error(purify_tree_64, tmp_path,
                                                                monkeypatch):
    # both analytic routes off by 1e-6 on the smallest-|g| coordinate: only
    # the finite differences can see it
    def off(route):
        def shifted(*args, **kwargs):
            g = np.concatenate(route(*args, **kwargs))
            g[np.argmin(np.abs(g))] += 1e-6
            return np.split(g, 2)
        return shifted

    monkeypatch.setattr(cli, "eval_grad", off(cli.eval_grad))
    monkeypatch.setattr(cli, "eval_grad_direct", off(cli.eval_grad_direct))
    out = tmp_path / "gc.json"
    assert run("grad-check", "--instance", purify_tree_64, "--points", 1,
               "--seed", GRAD_CHECK_SEED, "--out", out) == cli.EXIT_GRAD_MISMATCH
    result = json.loads(out.read_text())
    assert result["max_dual_relative_error"] <= 1e-12
    assert result["max_fd_tolerance_ratio"] > 1.0


@pytest.mark.parametrize("route", ["finite_diff_grad", "eval_grad_direct"])
def test_nan_gradient_fails_the_grad_check(workspace, monkeypatch, tmp_path, route):
    # a NaN in either error must fail the check, not be dropped by a max
    *_, inst, _point, _instance = workspace
    real = getattr(cli, route)

    def nan_at_second_point(*args, **kwargs):
        gx, gy = real(*args, **kwargs)
        calls.append(1)
        if len(calls) == 2:
            gx = np.full_like(gx, np.nan)
        return gx, gy

    calls = []
    monkeypatch.setattr(cli, route, nan_at_second_point)
    out = tmp_path / "gc.json"
    assert run("grad-check", "--instance", inst, "--points", 3,
               "--out", out) == cli.EXIT_GRAD_MISMATCH
    result = json.loads(out.read_text())
    key = "max_fd_tolerance_ratio" if route == "finite_diff_grad" else "max_dual_relative_error"
    assert np.isnan(result[key]) and result["pass"] is False


@pytest.mark.parametrize("value", ["abc", "1e7", "-5", "", "2.5"])
def test_bad_eval_cap_is_a_validation_error(workspace, monkeypatch, capsys, value):
    # a cap that is not a non-negative integer is refused by name, not read
    # as a cap that refuses every grid
    *_, inst, _point, _instance = workspace
    monkeypatch.setenv("GDACUBE_EVAL_CAP", value)
    assert run("solve", "--instance", inst, "--method", "grid", "--h", 1) == cli.EXIT_VALIDATION
    assert run("pipeline", "--method", "grid", "--h", 1, "--n", 1) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.count(f"GDACUBE_EVAL_CAP must be a non-negative integer, got {value!r}") == 2


def test_report_writer_refuses_a_cycle():
    # as json.dumps does, instead of walking the cycle forever
    a = []
    a.append(a)
    d = {"x": 1.0}
    d["self"] = [d]
    for obj in ({"k": a}, a, [[1.0], a], d):
        with pytest.raises(ValueError, match="Circular reference detected"):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(ValueError, match="Circular reference detected"):
            cli._write(obj, [])
    # a list written twice, but not inside itself, is no cycle
    r = [1.0, 2.0]
    out = []
    cli._write({"a": [r, r], "b": r}, out)
    assert "".join(out) == json.dumps({"a": [r, r], "b": r}, indent=2, sort_keys=True)
