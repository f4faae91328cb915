"""The four benchmark workloads: input generation, job argv, and output checks.

Every job is one or two calls of ``gdacube.cli.main``. A workload seed
fixes every input: ``prepare`` derives the per-job seeds and writes the
files the command line reads, and ``argvs`` turns job k into argv lists
whose paths are relative to the work directory, so two preparations with
the same seed are byte-identical wherever they are written.

The checks recompute what a job reports with independent code, so a
failing job is one that raised, exited 2-5, or reported something the
check does not reproduce. Exit 6 (audit failed) is a documented outcome,
not a failure.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gdacube import cli
from gdacube.lin_vi import LinVIInstance
from gdacube.pure_circuit import Assignment, PureCircuitInstance, Trit, verify_assignment
from gdacube.reduction import GdaInstance, GdaParams, JointPoint, build_instance
from gdacube.solver import check_stationary

# A pipeline_solve job counts as solved when its best violation reaches this.
SOLVED_AT = 1e-3
# Job seeds written to a manifest; a run that needs more wraps around.
JOB_SEEDS = 1000
# audit_wide cycles over this many seeded points (each is ~1 MB of JSON).
AUDIT_POINTS = 6

EXIT_OK, EXIT_AUDIT = cli.EXIT_OK, cli.EXIT_AUDIT

# No --eps: each job runs its full iteration budget. Stopping at the target
# made per-job times bimodal (0.4 s when a restart reached 1e-3, 1.2 s at the
# cap for the ~60% that did not), too seed-dependent for ~30 jobs a run.
PIPELINE_SOLVE = ["pipeline", "--pc-kind", "ring", "--pc-size", "16", "--m", "2",
                  "--n", "8", "--method", "extragradient", "--step", "0.05",
                  "--iters", "200", "--restarts", "2", "--no-timings"]
GRID_CERTIFY = ["pipeline", "--pc-kind", "ring", "--pc-size", "4", "--m", "1",
                "--n", "1", "--method", "grid", "--h", "0.25", "--no-timings"]
AUDIT_SHAPE = dict(size=256, m=3, n=32, rho="1e-3")
GRADCHECK_SHAPE = dict(size=64, m=2, n=8)


@dataclass(frozen=True)
class Outcome:
    """What one job reported, as the layer metrics need it."""

    exit_codes: tuple
    problems: tuple[str, ...]
    decode_kind: str | None = None
    solved: bool = False
    iterations: int = 0
    grid_points: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def audit_failed(self) -> bool:
        return EXIT_AUDIT in self.exit_codes


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # The untraced loop runs at least this many jobs (the traced loop half
    # as many pairs); it also fixes the tail percentile, see run.py.
    min_jobs: int
    prepare: Callable[[int, Path], dict]
    argvs: Callable[[dict, int, str], list[list[str]]]
    check: Callable[[dict, int, str, tuple], Outcome]
    probe_instance: Callable[[dict, str], GdaInstance]


# ------------------------------------------------------------------ helpers

def _seeds(seed: int, count: int, stream: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, stream]).generate_state(count)]


def _run_cli(argv: list[str]):
    code = cli.main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"setup command {argv[0]} exited {code}")


def _load(path) -> dict:
    return json.loads(Path(path).read_text())


@functools.lru_cache(maxsize=2)
def _instance_file(path: Path) -> GdaInstance:
    return GdaInstance.from_json_dict(_load(path))


def _instance(d: dict) -> GdaInstance:
    return build_instance(PureCircuitInstance.from_json_dict(d["pc"]),
                          LinVIInstance.from_json_dict(d["vi"]),
                          GdaParams.from_json_dict(d["params"]))


def _exit_problems(codes: tuple, allowed=(EXIT_OK, EXIT_AUDIT)) -> list[str]:
    return [f"call {i} exited {c}" for i, c in enumerate(codes) if c not in allowed]


def _check_decode(inst: GdaInstance, point: JointPoint, dec: dict) -> list[str]:
    """Recheck a decode outcome with a vectorized slack scan of every copy."""
    vi = inst.vi
    X = point.x.reshape(inst.kappa * inst.n, inst.m)
    V = X @ vi.D.T + vi.c
    worst = np.minimum(-V * X, V * (1.0 - X)).min(axis=1)
    kind = dec["kind"]
    if kind == "linvi":
        z = X[dec["q"] * inst.n + dec["i"] - 1]
        if dec["z"] != z.tolist():
            return ["linvi witness is not the reported copy"]
        v = vi.D @ z + vi.c
        if np.minimum(-v * z, v * (1.0 - z)).min() < -vi.rho:
            return ["linvi witness fails the slack check"]
        return []
    assignment = Assignment(tuple(Trit(v) for v in dec["assignment"]))
    violations = verify_assignment(inst.pc, assignment)
    if kind == "pc":
        return ["pc assignment fails verify_assignment"] if violations else []
    if kind != "inconclusive":
        return [f"unknown decode kind {kind!r}"]
    problems = []
    if len(violations) != len(dec["violations"]) or not violations:
        problems.append("inconclusive assignment violations do not match verify_assignment")
    if (worst >= -vi.rho).any():
        problems.append("inconclusive although a copy passes the slack check")
    if not np.isclose(worst.max(), dec["best_slack"], rtol=1e-12, atol=0.0):
        problems.append("inconclusive best_slack is not the nearest miss")
    return problems


def _audit_holds(lemmas: dict) -> bool:
    return all(lemmas[k]["holds"] for k in ("coord_bound", "l1_bound", "noise_bound"))


# ---------------------------------------------------------------- pipelines

def _pipeline_prepare(seed: int, workdir: Path) -> dict:
    return {"job_seeds": _seeds(seed, JOB_SEEDS, 0)}


def _pipeline_argvs(flags: list[str]):
    def argvs(manifest: dict, k: int, stem: str) -> list[list[str]]:
        job_seeds = manifest["job_seeds"]
        return [flags + ["--seed", str(job_seeds[k % len(job_seeds)]), "--out", f"{stem}.json"]]
    return argvs


def _pipeline_check(manifest: dict, k: int, stem: str, codes: tuple) -> Outcome:
    problems = _exit_problems(codes)
    if problems:
        return Outcome(codes, tuple(problems))
    report = _load(f"{stem}.json")
    inst = _instance(report["instance"])
    solver = report["solver"]
    point = JointPoint.from_json_dict(solver["point"])
    if check_stationary(inst, point, 0.0).max_violation != solver["max_violation"]:
        problems.append("check_stationary does not reproduce max_violation")
    problems += _check_decode(inst, point, report["decode"])
    if (codes[0] == EXIT_AUDIT) == _audit_holds(report["audit"]):
        problems.append(f"exit {codes[0]} disagrees with the reported audit")
    grid = 0
    if solver["method"] == "grid":
        grid = (round(1.0 / report["config"]["h"]) + 1) ** (2 * inst.d)
    return Outcome(codes, tuple(problems), decode_kind=report["decode"]["kind"],
                   solved=solver["max_violation"] <= SOLVED_AT,
                   iterations=solver["iterations"], grid_points=grid)


def _pipeline_probe_instance(manifest: dict, stem: str) -> GdaInstance:
    return _instance(_load(f"{stem}.json")["instance"])


# --------------------------------------------------------------- audit_wide

def _audit_prepare(seed: int, workdir: Path) -> dict:
    pc_seed, vi_seed = _seeds(seed, 2, 1)
    pc, vi, inst = (str(workdir / f) for f in ("pc.json", "vi.json", "inst.json"))
    _run_cli(["gen-pc", "--kind", "ring", "--size", str(AUDIT_SHAPE["size"]),
              "--seed", str(pc_seed), "--out", pc])
    _run_cli(["gen-vi", "--m", str(AUDIT_SHAPE["m"]), "--seed", str(vi_seed),
              "--rho", AUDIT_SHAPE["rho"], "--out", vi])
    _run_cli(["build", "--pc", pc, "--vi", vi, "--n", str(AUDIT_SHAPE["n"]),
              "--epsilon", "1e-3", "--delta", "0.5", "--out", inst])
    instance = GdaInstance.from_json_dict(_load(inst))
    points = []
    for j, point_seed in enumerate(_seeds(seed, AUDIT_POINTS, 2)):
        rng = np.random.default_rng(point_seed)
        p = JointPoint(rng.uniform(0.05, 0.95, instance.d), rng.uniform(0.05, 0.95, instance.d))
        name = f"point{j}.json"
        (workdir / name).write_text(json.dumps(p.to_json_dict()))
        eps = check_stationary(instance, p, 0.0).max_violation
        points.append({"file": name, "eps": repr(eps)})
    return {"instance": "inst.json", "points": points}


def _audit_argvs(manifest: dict, k: int, stem: str) -> list[list[str]]:
    point = manifest["points"][k % len(manifest["points"])]
    common = ["--instance", manifest["instance"], "--point", point["file"]]
    return [["decode", *common, "--out", f"{stem}.decode.json"],
            ["audit", *common, "--eps", point["eps"], "--out", f"{stem}.audit.json"]]


def _audit_check(manifest: dict, k: int, stem: str, codes: tuple) -> Outcome:
    problems = _exit_problems(codes[:1], allowed=(EXIT_OK,)) + _exit_problems(codes[1:])
    if problems:
        return Outcome(codes, tuple(problems))
    point_spec = manifest["points"][k % len(manifest["points"])]
    inst = _instance_file(Path(manifest["instance"]).resolve())
    point = JointPoint.from_json_dict(_load(point_spec["file"]))
    dec = _load(f"{stem}.decode.json")
    problems += _check_decode(inst, point, dec)
    audit = _load(f"{stem}.audit.json")
    if audit["lemmas"]["epsilon"] != float(point_spec["eps"]):
        problems.append("audit ran at another eps than requested")
    failed = not _audit_holds(audit["lemmas"]) or "dichotomy_error" in audit
    if (codes[1] == EXIT_AUDIT) != failed:
        problems.append(f"audit exit {codes[1]} disagrees with its report")
    return Outcome(codes, tuple(problems), decode_kind=dec["kind"])


def _file_probe_instance(manifest: dict, stem: str) -> GdaInstance:
    return _instance_file(Path(manifest["instance"]).resolve())


# ------------------------------------------------------------ gradcheck_mid

def _gradcheck_prepare(seed: int, workdir: Path) -> dict:
    pc_seed, vi_seed = _seeds(seed, 2, 1)
    pc, vi, inst = (str(workdir / f) for f in ("pc.json", "vi.json", "inst.json"))
    _run_cli(["gen-pc", "--kind", "purify_tree", "--size", str(GRADCHECK_SHAPE["size"]),
              "--seed", str(pc_seed), "--out", pc])
    _run_cli(["gen-vi", "--m", str(GRADCHECK_SHAPE["m"]), "--seed", str(vi_seed), "--out", vi])
    _run_cli(["build", "--pc", pc, "--vi", vi, "--n", str(GRADCHECK_SHAPE["n"]),
              "--epsilon", "1e-3", "--delta", "0.5", "--out", inst])
    return {"instance": "inst.json", "job_seeds": _seeds(seed, JOB_SEEDS, 0)}


def _gradcheck_argvs(manifest: dict, k: int, stem: str) -> list[list[str]]:
    job_seeds = manifest["job_seeds"]
    return [["grad-check", "--instance", manifest["instance"], "--points", "1",
             "--seed", str(job_seeds[k % len(job_seeds)]), "--out", f"{stem}.json"]]


def _gradcheck_check(manifest: dict, k: int, stem: str, codes: tuple) -> Outcome:
    problems = _exit_problems(codes, allowed=(EXIT_OK,))
    if not problems and _load(f"{stem}.json")["pass"] is not True:
        problems.append("grad-check did not report pass")
    return Outcome(codes, tuple(problems))


WORKLOADS = {w.name: w for w in (
    Workload("pipeline_solve",
             "main user path at d=256: ~27.5k batch-1 gate calls per job, so "
             "per-call overhead in gates, reduction and solver dominates",
             30, _pipeline_prepare, _pipeline_argvs(PIPELINE_SOLVE),
             _pipeline_check, _pipeline_probe_instance),
    Workload("grid_certify",
             "grid search over 390,625 points in rows of 65,536: array kernels "
             "dominate and only ~130 gate calls are made per job",
             24, _pipeline_prepare, _pipeline_argvs(GRID_CERTIFY),
             _pipeline_check, _pipeline_probe_instance),
    Workload("audit_wide",
             "decode+audit at kappa=256, n=32, m=3: ~16.5k check_solution calls "
             "and ~1.3 MB of JSON per job, no solver",
             40, _audit_prepare, _audit_argvs, _audit_check, _file_probe_instance),
    Workload("gradcheck_mid",
             "grad-check on a purify_tree with d=1024: the only user of the "
             "finite-difference oracle, which sets peak memory",
             80, _gradcheck_prepare, _gradcheck_argvs, _gradcheck_check,
             _file_probe_instance),
)}
