"""Command-line pipeline: generate, build, evaluate, solve, decode, audit.

All randomness flows from a single --seed; sub-seeds are derived through
numpy's SeedSequence, so identical invocations produce byte-identical
JSON artifacts (timings can be suppressed with --no-timings).

Exit codes: 0 ok, 2 parse error, 3 validation failure, 4 cap exceeded,
5 gradient-check mismatch, 6 audit assertion failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .decoder import AuditError, NotStationaryError, decode, dichotomy_check, lemma_audit
from .lin_vi import LinVIInstance, gen_random
from .pure_circuit import PureCircuitInstance, gen_example
from .reduction import (
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
)
from .solver import (SolverConfig, SolverResult, check_stationary, extragradient, grid_search,
                     projected_gda)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CAP = 4
EXIT_GRAD_MISMATCH = 5
EXIT_AUDIT = 6

_EPILOG = (
    "exit codes: 0 ok, 2 parse error, 3 validation failure, 4 cap exceeded, "
    "5 grad-check mismatch, 6 audit assertion failure. The grid-search "
    "evaluation cap can be overridden with the GDACUBE_EVAL_CAP variable."
)


# The stdlib C encoder, whose one-line output the writer below re-indents;
# ``json.dumps`` with ``indent`` would run the pure-Python encoder per leaf.
# It is built once with the stdlib's settings: ``JSONEncoder.encode`` builds
# a new one per call, which costs more than encoding a number. The writer
# walks every container that may hold one itself and keeps the markers
# that refuse a cycle, so no cycle reaches the encoder, which keeps none.
_STDLIB = json.JSONEncoder(sort_keys=True)
_C_ENCODER = json.encoder.c_make_encoder(
    None, _STDLIB.default, json.encoder.encode_basestring_ascii, None,
    _STDLIB.key_separator, _STDLIB.item_separator, True, False, True)


def _encode(o) -> str:
    """``JSONEncoder(sort_keys=True).encode(o)``, strings first as it takes them."""
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    return "".join(_C_ENCODER(o, 0))


_NUMBERS = frozenset({float, int, bool, type(None), np.float64})
_LISTS = frozenset({list, tuple})
_SCALARS = _NUMBERS | {str}


def _depth(v: list | tuple) -> int:
    """Depth of a non-empty array nested uniformly down to numbers, else 0.

    A list met again at a deeper level puts its numbers at two depths, or
    holds itself, so it gives 0 too, and ``_write`` walks the array.
    """
    rows, depth, seen = [v], 0, {id(v)}
    while all(rows):  # no empty list at this level
        depth += 1
        kinds = set(map(type, chain.from_iterable(rows)))
        if kinds <= _NUMBERS:
            return depth
        if not kinds <= _LISTS:
            return 0
        rows = list(chain.from_iterable(rows))
        ids = set(map(id, rows))
        if not seen.isdisjoint(ids):
            return 0
        seen |= ids
    return 0


def _write(o, out: list, level: int = 0, enclosing: set | None = None):
    """Append ``json.dumps(o, indent=2, sort_keys=True)`` to ``out`` in pieces.

    ``enclosing`` holds the ids of the containers being written around
    ``o``; a container that holds itself raises ValueError, as the stdlib
    does.
    """
    if not (isinstance(o, (dict, list, tuple)) and o):
        out.append(_encode(o))  # a scalar, a string, {} or []
        return
    pad = "\n" + "  " * (level + 1)
    if enclosing is None:
        enclosing = set()
    if id(o) in enclosing:
        raise ValueError("Circular reference detected")
    enclosing.add(id(o))
    if isinstance(o, dict):
        sep = "{" + pad
        for k, v in sorted(o.items()):  # the stdlib sorts, and fails, the same way
            if not isinstance(k, str):  # converted as the stdlib converts keys
                if not (isinstance(k, (int, float)) or k is None):
                    raise TypeError(f"keys must be str, int, float, bool or None, "
                                    f"not {type(k).__name__}")
                k = _encode(k)
            out += sep, _encode(k), ": "
            _write(v, out, level + 1, enclosing)
            sep = "," + pad
        out.append(pad[:-2] + "}")
    elif depth := _depth(o):
        # One C call writes the array on one line. The items of a list j
        # levels below ``o`` are separated by depth-1-j brackets each side
        # of ", ", so the longest separators are replaced first; numbers
        # hold none of these characters.
        opens = ["[" + pad + "  " * j for j in range(depth)]
        closes = [pad[:-2] + "  " * j + "]" for j in range(depth)]
        s = _encode(o)[depth:-depth]
        for j in range(depth):
            k = depth - 1 - j
            s = s.replace("]" * k + ", " + "[" * k, "".join(closes[:j:-1]) + ","
                          + pad + "  " * j + "".join(opens[j + 1:]))
        out += *opens, s, *closes[::-1]
    elif set(map(type, o)) <= _SCALARS:
        out += "[", pad, ("," + pad).join(map(_encode, o)), pad[:-2], "]"
    else:
        sep = "[" + pad
        for v in o:
            out.append(sep)
            _write(v, out, level + 1, enclosing)
            sep = "," + pad
        out.append(pad[:-2] + "]")
    enclosing.remove(id(o))


def _dump(d: dict, path: str | None):
    out = []
    _write(d, out)
    blob = "".join(out) + "\n"
    if path is None:
        sys.stdout.write(blob)
    else:
        Path(path).write_text(blob)


def _load(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise _ParseFailure(f"{path}: {e.msg} at line {e.lineno} column {e.colno}") from e
    except ValueError as e:  # not UTF-8, or an integer past the digit limit
        raise _ParseFailure(f"{path}: {e}") from e


class _ParseFailure(Exception):
    pass


def _load_as(cls, path: str):
    """Read an artifact of type ``cls``; a missing or mistyped field is a parse error."""
    blob = _load(path)
    try:
        return cls.from_json_dict(blob)
    except KeyError as e:
        raise _ParseFailure(f"{path}: missing field {e}") from e
    except TypeError as e:
        raise _ParseFailure(f"{path}: malformed {cls.__name__}: {e}") from e


def _params_from_args(args, pc: PureCircuitInstance, vi: LinVIInstance) -> GdaParams:
    if args.paper:
        return paper_params(vi.m, pc.kappa, Fraction(args.rho if args.rho else vi.rho))
    if args.n is None or args.epsilon is None or args.delta is None:
        raise _ParseFailure("custom mode needs --n, --epsilon and --delta (or use --paper)")
    return GdaParams(n=args.n, epsilon=args.epsilon, delta=args.delta)


# ----------------------------------------------------------------- commands

def cmd_gen_pc(args) -> int:
    inst = gen_example(args.kind, args.size, args.seed)
    _dump(inst.to_json_dict(), args.out)
    return EXIT_OK


def cmd_gen_vi(args) -> int:
    inst = gen_random(args.m, args.seed, rho=args.rho)
    _dump(inst.to_json_dict(), args.out)
    return EXIT_OK


def cmd_build(args) -> int:
    pc = _load_as(PureCircuitInstance, args.pc)
    vi = _load_as(LinVIInstance, args.vi)
    params = _params_from_args(args, pc, vi)
    try:
        inst = build_instance(pc, vi, params)
    except CapExceededError:
        print(f"not materializable: n = {params.n}, delta = {params.delta}, "
              f"epsilon = {params.epsilon} (dimension cap exceeded)")
        raise
    _dump(inst.to_json_dict(), args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    inst = _load_as(GdaInstance, args.instance)
    p = _load_as(JointPoint, args.point)
    value = eval_f(inst, p)
    print(f"f = {value!r}")
    if args.out:
        _dump({"f": value, "diagnostics": diagnostics(inst, p).to_json_dict()}, args.out)
    return EXIT_OK


def _grad_check(inst: GdaInstance, points: int, seed: int, fd_step: float) -> dict:
    if points < 1:
        raise ValueError(f"grad-check needs at least one point, got {points}")
    # checked here as well as in finite_diff_grad: the tolerance floor below
    # divides by the step before the oracle runs, so that a step whose floor
    # overflows is reported as such, not as one lost in rounding
    if not (math.isfinite(fd_step) and fd_step > 0):
        raise ValueError(f"finite-difference step must be finite and positive, got {fd_step!r}")
    rng = np.random.default_rng(seed)
    dual, fd_ratio = [], []
    for _ in range(points):
        p = JointPoint(rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d))
        ga = np.concatenate(eval_grad(inst, p))
        gb = np.concatenate(eval_grad_direct(inst, p))
        scale = max(np.abs(ga).max(), np.abs(gb).max(), 1.0)
        dual.append(np.abs(ga - gb).max() / scale)
        # fd_j = (f(p + h e_j) - f(p - h e_j)) / 2h subtracts two values near
        # f(p), each rounded to a few ulps of its magnitude, so fd_j carries
        # a rounding error of up to ~c * eps * |f| / h whatever g_j is. The
        # absolute floor is that bound with c = 8 (random points of ring and
        # purify_tree instances stay below c = 1); |f| < 1 counts as 1.
        floor = 8.0 * sys.float_info.epsilon * max(abs(eval_f(inst, p)), 1.0) / fd_step
        if math.isinf(floor):  # every error would pass
            raise ValueError(f"finite-difference step {fd_step!r} is so small that "
                             "its rounding error overflows")
        fd = np.concatenate(finite_diff_grad(inst, p, h=fd_step))
        fd_ratio.append((np.abs(ga - fd) / np.maximum(1e-5 * np.abs(ga), floor)).max())
    # np.max keeps a NaN, so a NaN error fails the comparisons below
    worst_dual, worst_fd = float(np.max(dual)), float(np.max(fd_ratio))
    return {
        "points": points,
        "seed": seed,
        "max_dual_relative_error": worst_dual,
        "max_fd_tolerance_ratio": worst_fd,
        "pass": worst_dual <= 1e-12 and worst_fd <= 1.0,
    }


def cmd_grad_check(args) -> int:
    inst = _load_as(GdaInstance, args.instance)
    result = _grad_check(inst, args.points, args.seed, args.fd_step)
    _dump(result, args.out)
    if not result["pass"]:
        print("grad-check FAILED", file=sys.stderr)
        return EXIT_GRAD_MISMATCH
    return EXIT_OK


def _check_eps(eps: float | None):
    """A target (``solve``, ``pipeline``) or audited (``audit``) violation."""
    if eps is not None and not (math.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and non-negative, got {eps!r}")


def _run_solver(inst, args, p0_seed: int) -> SolverResult:
    _check_eps(args.eps)
    if args.method == "grid":
        if args.h is None:
            raise _ParseFailure("--h is required for the grid method")
        return grid_search(inst, args.h, eps=args.eps)
    rng = np.random.default_rng(p0_seed)
    p0 = JointPoint(rng.uniform(0, 1, inst.d), rng.uniform(0, 1, inst.d))
    cfg = SolverConfig(step=args.step, max_iters=args.iters,
                       restarts=args.restarts, seed=args.seed,
                       target=args.eps if args.eps is not None else 0.0)
    solve = projected_gda if args.method == "gda" else extragradient
    return solve(inst, p0, cfg)


def cmd_solve(args) -> int:
    inst = _load_as(GdaInstance, args.instance)
    p0_seed = int(np.random.SeedSequence(args.seed).generate_state(1)[0])
    _dump(_run_solver(inst, args, p0_seed).to_json_dict(), args.out)
    return EXIT_OK


def cmd_decode(args) -> int:
    inst = _load_as(GdaInstance, args.instance)
    p = _load_as(JointPoint, args.point)
    out = decode(inst, check_stationary(inst, p, 0.0), rho=args.rho)
    _dump(out.to_json_dict(), args.out)
    print(f"decode outcome: {out.kind}")
    return EXIT_OK


def _verdict(audit) -> tuple[dict, int]:
    """The ``dichotomy`` (or ``dichotomy_error``) block and the exit code of an audit."""
    try:
        block, code = {"dichotomy": dichotomy_check(audit).to_json_dict()}, EXIT_OK
    except AuditError as e:
        block, code = {"dichotomy_error": str(e)}, EXIT_AUDIT
    if not audit.unconditional_hold:
        print("audit FAILED: an unconditional inequality does not hold", file=sys.stderr)
        code = EXIT_AUDIT
    return block, code


def cmd_audit(args) -> int:
    inst = _load_as(GdaInstance, args.instance)
    p = _load_as(JointPoint, args.point)
    _check_eps(args.eps)
    audit = lemma_audit(inst, check_stationary(inst, p, args.eps), args.eps, rho=args.rho)
    block, code = _verdict(audit)
    _dump({"lemmas": audit.to_json_dict(), **block}, args.out)
    return code


def cmd_pipeline(args) -> int:
    t0 = time.perf_counter()
    pc_seed, vi_seed, p0_seed = (
        int(s) for s in np.random.SeedSequence(args.seed).generate_state(3)
    )
    pc = gen_example(args.pc_kind, args.pc_size, pc_seed)
    vi = gen_random(args.m, vi_seed, rho=args.rho)
    params = GdaParams(n=args.n, epsilon=args.epsilon, delta=args.delta)
    inst = build_instance(pc, vi, params)
    t_build = time.perf_counter()

    result = _run_solver(inst, args, p0_seed)
    t_solve = time.perf_counter()

    outcome = decode(inst, result.report)
    t_decode = time.perf_counter()
    achieved = result.report.max_violation
    audit = lemma_audit(inst, result.report, achieved)
    verdict, code = _verdict(audit)
    t_done = time.perf_counter()

    run_report = {
        "version": __version__,
        "seed": args.seed,
        "config": {
            "pc_kind": args.pc_kind, "pc_size": args.pc_size, "m": args.m,
            "rho": args.rho, "n": args.n, "epsilon": args.epsilon,
            "delta": args.delta, "method": args.method, "step": args.step,
            "iters": args.iters, "restarts": args.restarts, "eps": args.eps,
            "h": args.h, "seed": args.seed,
        },
        "instance": {**inst.to_json_dict(), "premises": inst.premises()},
        "solver": result.to_json_dict(),
        "decode": outcome.to_json_dict(),
        "audit": audit.to_json_dict(),
        **verdict,
    }
    if not args.no_timings:
        run_report["timings_sec"] = {
            "build": t_build - t0,
            "solve": t_solve - t_build,
            "decode": t_decode - t_solve,
            "audit": t_done - t_decode,
        }
    _dump(run_report, args.out)
    print(f"pipeline: violation {achieved!r}, decode {outcome.kind}, "
          f"audit {'ok' if code == EXIT_OK else 'FAILED'}")
    return code


# ------------------------------------------------------------------- parser

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gdacube", epilog=_EPILOG,
                                  description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-pc", help="generate a circuit instance")
    p.add_argument("--kind", choices=["ring", "purify_tree"], default="ring")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seeds purify_tree; a ring ignores it")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_pc)

    p = sub.add_parser("gen-vi", help="generate a random linear VI instance")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen_vi)

    p = sub.add_parser("build", help="compile circuit + VI into a min-max instance")
    p.add_argument("--pc", required=True)
    p.add_argument("--vi", required=True)
    p.add_argument("--paper", action="store_true",
                   help="use the exact hardness-scale parameter formulas")
    p.add_argument("--rho", help="rho for --paper (rational, e.g. 1/2); defaults to the VI's")
    p.add_argument("--n", type=int)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("eval", help="evaluate the objective and diagnostics at a point")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grad-check", help="dual-path and finite-difference gradient check")
    p.add_argument("--instance", required=True)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fd-step", type=float, default=1e-6)
    p.add_argument("--out")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("solve", help="search for an approximately stationary point")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=["gda", "extragradient", "grid"],
                   default="extragradient")
    p.add_argument("--step", type=float,
                   help="step size; omitted, it is 1/L from the instance bounds, which "
                        "barely moves the iterate (L is about 9.7e5 on ring-4 with n=4)")
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, help="target violation (stop early when reached)")
    p.add_argument("--h", type=float, help="grid spacing for the grid method")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("decode", help="map a point to a witness or assignment")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("audit", help="evaluate the decoding inequalities at a point")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rho", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("pipeline", help="build, solve, decode and audit in one run")
    p.add_argument("--pc-kind", choices=["ring", "purify_tree"], default="ring")
    p.add_argument("--pc-size", type=int, default=4)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--method", choices=["gda", "extragradient", "grid"],
                   default="extragradient")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=2)
    p.add_argument("--eps", type=float)
    p.add_argument("--h", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-timings", action="store_true",
                   help="omit wall-clock timings for byte-identical reports")
    p.add_argument("--out")
    p.set_defaults(func=cmd_pipeline)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ParseFailure as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except FileNotFoundError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except CapExceededError as e:
        print(f"cap exceeded: {e}", file=sys.stderr)
        return EXIT_CAP
    except NotStationaryError as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except AuditError as e:
        print(f"audit assertion failure: {e}", file=sys.stderr)
        return EXIT_AUDIT
    except (ValidationError, ValueError) as e:
        print(f"validation failure: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
