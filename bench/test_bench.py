"""Tests of the benchmark itself: generator determinism, transparent tracing,
and metric names that match BENCHMARK.json."""

import dataclasses
import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _argvs(workload, manifest, jobs=5):
    return [workload.argvs(manifest, k, f"out/j{k}") for k in range(jobs)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    trees, argvs = [], []
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        d = tmp_path / label
        d.mkdir()
        manifest = run.prepare(workload, seed, d)
        trees.append(run.tree_bytes(d))
        argvs.append(_argvs(workload, manifest))
    assert trees[0] == trees[1] and argvs[0] == argvs[1]
    assert trees[0] != trees[2] and argvs[0] != argvs[2]


@pytest.mark.parametrize("name", ["pipeline_solve", "gradcheck_mid"])
def test_tracing_is_transparent(name, tmp_path, monkeypatch):
    workload = WORKLOADS[name]
    monkeypatch.chdir(tmp_path)
    manifest = run.prepare(workload, 0, tmp_path)
    originals = [getattr(importlib.import_module(m), a) for m, a, _ in tracing.TARGETS]
    _, plain = run.run_job(workload, manifest, 0, "plain")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced = run.run_job(workload, manifest, 0, "traced")
    finally:
        tracer.remove()
    assert plain == traced
    assert run.output_bytes("plain") == run.output_bytes("traced") != {}
    assert {"cli.main", "gates", "reduction.build_instance"} <= set(tracer.totals())
    restored = [getattr(importlib.import_module(m), a) for m, a, _ in tracing.TARGETS]
    assert all(r is o for r, o in zip(restored, originals))


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans += [(0, "cli.main", 0.0, 10.0, -1, 0), (0, "solver.solve", 1.0, 7.0, 0, 0),
                     (0, "gates", 2.0, 3.0, 1, 4), (1, "gates", 0.0, 2.0, -1, 6)]
    totals = tracer.totals()
    assert totals["cli.main"] == [1, 10.0, 4.0, 0]
    assert totals["solver.solve"] == [1, 6.0, 5.0, 0]
    assert totals["gates"] == [2, 3.0, 3.0, 10]
    assert tracer.totals(jobs={1})["gates"] == [1, 2.0, 2.0, 6]


def test_spec_matches_the_benchmark():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("runner, table", [(run.run_untraced, "end_to_end"),
                                           (run.run_traced, "per_layer")])
def test_every_metric_is_emitted(runner, table, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = dataclasses.replace(WORKLOADS["gradcheck_mid"], min_jobs=2)
    result, record = runner(workload, 0, 0.0, tmp_path / "run")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC[table]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "grid_certify",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
    assert not Path(tmp_path, "bench", "results").exists()
