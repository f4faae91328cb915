#!/usr/bin/env python3
"""Closed-loop benchmark of the gdacube command line, one workload per process.

    python3 bench/run.py --workload pipeline_solve --seed 0 --seconds 25 --trace 0

One client keeps one job in flight: each job is one or two in-process
calls of ``gdacube.cli.main`` (see workloads.py), and the next starts when
the previous returns. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs every job twice, untraced then traced, and prints the
per-layer metrics. The last line of stdout is one JSON object; a full
record (environment, per-job times, the spans of the first traced job)
goes to bench/results/. See bench/README.md.
"""

import time

_START = time.perf_counter()  # setup_s of a --prepare process counts from here

import os

# One BLAS and OpenMP thread, fixed before numpy loads; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = HERE / "results"

if not (SRC / "gdacube" / "__init__.py").is_file():
    sys.exit(f"bench: no gdacube sources at {SRC}; run from the root of a gdacube checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from gdacube import cli  # noqa: E402

from tracing import Tracer, probe_grad_us  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh processes whose set-up times give the median setup_s.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {"setup_s": "s", "job_s.p50": "s", "job_s.tail": "s",
                    "jobs_per_s": "1/s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "gates.calls": "count", "gates.elems": "count", "gates.self_s": "s",
    "gates.ns_per_elem": "ns",
    "pure_circuit.gen_example.s": "s", "pure_circuit.verify_assignment.calls": "count",
    "pure_circuit.verify_assignment.s": "s",
    "lin_vi.gen_random.s": "s", "lin_vi.check_solution.calls": "count",
    "lin_vi.check_solution.s": "s", "lin_vi.check_solution.us_per_call": "us",
    "reduction.build_instance.calls": "count", "reduction.build_instance.s": "s",
    "reduction.diagnostics.calls": "count", "reduction.diagnostics.s": "s",
    "reduction.eval_grad.s": "s", "reduction.eval_grad_direct.s": "s",
    "reduction.finite_diff_grad.s": "s", "reduction.finite_diff_grad.alloc_peak_mb": "MB",
    "reduction.self_s": "s", "reduction.eval_grad.probe_us": "us",
    "solver.solve.s": "s", "solver.self_s": "s", "solver.iterations": "count",
    "solver.us_per_iteration": "us", "solver.grid_points_per_s": "1/s",
    "solver.check_stationary.calls": "count", "solver.check_stationary.s": "s",
    "solver.solved_frac": "ratio",
    "decoder.decode.s": "s", "decoder.lemma_audit.s": "s", "decoder.dichotomy_check.s": "s",
    "decoder.self_s": "s", "decoder.outcome.linvi_frac": "ratio",
    "decoder.outcome.pc_frac": "ratio", "decoder.outcome.inconclusive_frac": "ratio",
    "decoder.audit_fail_frac": "ratio",
    "cli.self_s": "s", "cli.bytes_in": "B", "cli.bytes_out": "B",
    "trace.overhead_frac": "ratio",
}

_INPUT_FLAGS = ("--instance", "--point", "--pc", "--vi")


# ------------------------------------------------------------------- set-up

def prepare(workload, seed: int, workdir: Path) -> dict:
    """Write the workload's input files and manifest into ``workdir``."""
    manifest = {"workload": workload.name, "seed": seed, **workload.prepare(seed, workdir)}
    (workdir / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return manifest


def tree_bytes(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


def fresh_setup(workload, seed: int, workdir: Path) -> float:
    """Prepare into ``workdir`` in a fresh process; return its set-up seconds."""
    workdir.mkdir(parents=True)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--prepare", str(workdir),
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


# --------------------------------------------------------------------- jobs

def run_job(workload, manifest: dict, k: int, stem: str):
    """Run job k with outputs at ``stem.*``; return (wall seconds, exit codes)."""
    sink = io.StringIO()
    codes = []
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for argv in workload.argvs(manifest, k, stem):
            try:
                codes.append(cli.main(argv))
            except SystemExit as e:  # argparse rejects the argv
                codes.append(e.code)
            except Exception:  # the job fails; the loop goes on
                codes.append("raised: " + traceback.format_exc(limit=3))
                break
    return time.perf_counter() - start, tuple(codes)


def output_bytes(stem: str) -> dict[str, bytes]:
    path = Path(stem)
    return {p.name[len(path.name):]: p.read_bytes()
            for p in sorted(path.parent.glob(path.name + ".*"))}


def io_bytes(workload, manifest: dict, k: int, stem: str) -> tuple[int, int]:
    """Bytes of the files job k reads and writes."""
    read = written = 0
    for argv in workload.argvs(manifest, k, stem):
        for flag, value in zip(argv, argv[1:]):
            if flag in _INPUT_FLAGS:
                read += Path(value).stat().st_size
            elif flag == "--out":
                written += Path(value).stat().st_size
    return read, written


def tail_percentile(min_jobs: int) -> float:
    """Highest percentile with at least 10 of ``min_jobs`` jobs beyond it."""
    return max(50.0, 100.0 * (1.0 - 10.0 / min_jobs))


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------- untraced

def run_untraced(workload, seed: int, seconds: float, run_dir: Path):
    workdir = run_dir / "setup0"
    setup_times = [fresh_setup(workload, seed, workdir)]
    reference = tree_bytes(workdir)
    manifest = json.loads((workdir / "manifest.json").read_text())
    os.chdir(workdir)
    Path("out").mkdir()
    run_job(workload, manifest, 0, "out/warm")

    # The other set-ups are spread over the loop, so that setup_s and the job
    # times sample the same stretch of machine time; they are not loop time.
    due = [seconds * i / SETUP_REPEATS for i in range(1, SETUP_REPEATS)]
    times, codes = [], []
    paused = 0.0
    start = time.perf_counter()
    while len(times) < workload.min_jobs or time.perf_counter() - start - paused < seconds:
        if due and time.perf_counter() - start - paused >= due[0]:
            due.pop(0)
            t = time.perf_counter()
            setup_times.append(fresh_setup(workload, seed, run_dir / f"setup{len(setup_times)}"))
            paused += time.perf_counter() - t
        t, c = run_job(workload, manifest, len(times), f"out/j{len(times)}")
        times.append(t)
        codes.append(c)
    loop_s = time.perf_counter() - start - paused
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(fresh_setup(workload, seed, run_dir / f"setup{len(setup_times)}"))
    setup_identical = all(tree_bytes(run_dir / f"setup{i}") == reference
                          for i in range(1, SETUP_REPEATS))

    repeat_identical = output_bytes("out/warm") == output_bytes("out/j0")
    outcomes = [workload.check(manifest, k, f"out/j{k}", c) for k, c in enumerate(codes)]
    failed = sum(o.failed for o in outcomes)
    pct = tail_percentile(workload.min_jobs)
    tail = float(np.percentile(times, pct, method="lower"))
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_s.p50": statistics.median(times),
        "job_s.tail": tail,
        "jobs_per_s": len(times) / loop_s,
        "peak_rss_mb": peak_rss_mb,
    }
    result = {
        "correct": failed == 0 and repeat_identical and setup_identical,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
    }
    record = {
        "tail_percentile": pct,
        "jobs_beyond_tail": sum(t > tail for t in times),
        "jobs": len(times),
        "fail_frac": failed / len(times),
        "solved_frac": sum(o.solved for o in outcomes) / len(outcomes),
        "audit_fail_frac": sum(o.audit_failed for o in outcomes) / len(outcomes),
        "repeat_identical": repeat_identical,
        "setup_identical": setup_identical,
        "setup_s_all": setup_times,
        "job_s_all": times,
        "problems": {k: o.problems for k, o in enumerate(outcomes) if o.failed},
    }
    return result, record


# ------------------------------------------------------------------ traced

def run_traced(workload, seed: int, seconds: float, run_dir: Path):
    workdir = run_dir / "setup"
    workdir.mkdir(parents=True)
    manifest = prepare(workload, seed, workdir)
    os.chdir(workdir)
    Path("out").mkdir()
    run_job(workload, manifest, 0, "out/warm")

    # Counts and outcome shares come from the first `pairs` jobs, which the
    # seed fixes, so they repeat exactly; times come from every traced job.
    pairs = max(1, workload.min_jobs // 2)
    tracer = Tracer()
    untraced_s, traced_s, codes = [], [], []
    start = time.perf_counter()
    while len(codes) < pairs or time.perf_counter() - start < seconds:
        k = len(codes)
        t, _ = run_job(workload, manifest, k, f"out/u{k}")
        untraced_s.append(t)
        tracer.job = k
        tracer.install()
        try:
            t, c = run_job(workload, manifest, k, f"out/t{k}")
        finally:
            tracer.remove()
        traced_s.append(t)
        codes.append(c)
    n = len(codes)

    transparent = all(output_bytes(f"out/u{k}") == output_bytes(f"out/t{k}") for k in range(n))
    repeat_identical = output_bytes("out/warm") == output_bytes("out/u0")
    outcomes = [workload.check(manifest, k, f"out/t{k}", c) for k, c in enumerate(codes)]
    failed = sum(o.failed for o in outcomes)
    first = outcomes[:pairs]
    sizes = [io_bytes(workload, manifest, k, f"out/t{k}") for k in range(pairs)]
    probe_us = probe_grad_us(workload.probe_instance(manifest, "out/t0"))

    every, head = tracer.totals(), tracer.totals(jobs=set(range(pairs)))
    zero = [0, 0.0, 0.0, 0]

    def calls(name):
        return head.get(name, zero)[0] / pairs

    def secs(name):
        return every.get(name, zero)[1] / n

    def self_s(module):
        return sum(row[2] for name, row in every.items() if name.split(".")[0] == module) / n

    def share(pred):
        return sum(map(pred, first)) / pairs

    gates = every.get("gates", zero)
    checks = every.get("lin_vi.check_solution", zero)
    solve_s = every.get("solver.solve", zero)[1]
    iterations = sum(o.iterations for o in outcomes)
    grid_points = sum(o.grid_points for o in outcomes)
    fd_peaks = list(tracer.alloc_peak.values())
    metrics = {
        "gates.calls": calls("gates"),
        "gates.elems": head.get("gates", zero)[3] / pairs,
        "gates.self_s": gates[2] / n,
        "gates.ns_per_elem": gates[2] / gates[3] * 1e9 if gates[3] else 0.0,
        "pure_circuit.gen_example.s": secs("pure_circuit.gen_example"),
        "pure_circuit.verify_assignment.calls": calls("pure_circuit.verify_assignment"),
        "pure_circuit.verify_assignment.s": secs("pure_circuit.verify_assignment"),
        "lin_vi.gen_random.s": secs("lin_vi.gen_random"),
        "lin_vi.check_solution.calls": calls("lin_vi.check_solution"),
        "lin_vi.check_solution.s": secs("lin_vi.check_solution"),
        "lin_vi.check_solution.us_per_call": checks[1] / checks[0] * 1e6 if checks[0] else 0.0,
        "reduction.build_instance.calls": calls("reduction.build_instance"),
        "reduction.build_instance.s": secs("reduction.build_instance"),
        "reduction.diagnostics.calls": calls("reduction.diagnostics"),
        "reduction.diagnostics.s": secs("reduction.diagnostics"),
        "reduction.eval_grad.s": secs("reduction.eval_grad"),
        "reduction.eval_grad_direct.s": secs("reduction.eval_grad_direct"),
        "reduction.finite_diff_grad.s": secs("reduction.finite_diff_grad"),
        "reduction.finite_diff_grad.alloc_peak_mb":
            statistics.median(fd_peaks) / 2**20 if fd_peaks else 0.0,
        "reduction.self_s": self_s("reduction"),
        "reduction.eval_grad.probe_us": probe_us,
        "solver.solve.s": solve_s / n,
        "solver.self_s": self_s("solver"),
        "solver.iterations": sum(o.iterations for o in first) / pairs,
        "solver.us_per_iteration": solve_s / iterations * 1e6 if iterations else 0.0,
        "solver.grid_points_per_s": grid_points / solve_s if grid_points else 0.0,
        "solver.check_stationary.calls": calls("solver.check_stationary"),
        "solver.check_stationary.s": secs("solver.check_stationary"),
        "solver.solved_frac": share(lambda o: o.solved),
        "decoder.decode.s": secs("decoder.decode"),
        "decoder.lemma_audit.s": secs("decoder.lemma_audit"),
        "decoder.dichotomy_check.s": secs("decoder.dichotomy_check"),
        "decoder.self_s": self_s("decoder"),
        "decoder.outcome.linvi_frac": share(lambda o: o.decode_kind == "linvi"),
        "decoder.outcome.pc_frac": share(lambda o: o.decode_kind == "pc"),
        "decoder.outcome.inconclusive_frac": share(lambda o: o.decode_kind == "inconclusive"),
        "decoder.audit_fail_frac": share(lambda o: o.audit_failed),
        "cli.self_s": self_s("cli"),
        "cli.bytes_in": sum(r for r, _ in sizes) / pairs,
        "cli.bytes_out": sum(w for _, w in sizes) / pairs,
        "trace.overhead_frac": sum(traced_s) / sum(untraced_s) - 1.0,
    }
    result = {
        "correct": failed == 0 and transparent and repeat_identical,
        "attempted": n,
        "failed": failed,
        "metrics": {k: _metric(v, PER_LAYER_UNITS[k]) for k, v in metrics.items()},
    }
    record = {
        "pairs": n,
        "counted_jobs": pairs,
        "fail_frac": failed / n,
        "transparent": transparent,
        "repeat_identical": repeat_identical,
        "untraced_job_s_all": untraced_s,
        "traced_job_s_all": traced_s,
        "problems": {k: o.problems for k, o in enumerate(outcomes) if o.failed},
        "spans_job0": [[i, *s[1:]] for i, s in enumerate(tracer.spans) if s[0] == 0],
    }
    return result, record


# --------------------------------------------------------------------- main

def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": _git_sha(),
        "platform": platform.platform(),
    }


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.prepare:
        prepare(workload, args.seed, Path(args.prepare))
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    run_dir = WORK / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    cwd = Path.cwd()
    runner = run_traced if args.trace else run_untraced
    try:
        result, record = runner(workload, args.seed, args.seconds, run_dir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "result": result, **record}
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in record:
        print(f"job_s.tail is p{record['tail_percentile']:.1f} of {record['jobs']} jobs "
              f"({record['jobs_beyond_tail']} beyond it)")
    print(f"jobs {result['attempted']}, failed {result['failed']} "
          f"(fail_frac {record['fail_frac']:.3g}), record {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
