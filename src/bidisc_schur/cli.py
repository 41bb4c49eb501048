"""Command-line front door: JSON in, JSON verdicts + evidence out.

Exit codes: 0 for pass/success verdicts, 1 for refuted/failed verdicts,
2 for errors (usage, parse, schema, or violated preconditions outside a
command's own verdict contract); every run but -h prints one report.
Reports are deterministic for fixed inputs and seed: keys are sorted and
floats print with shortest round-trip precision.
A command runs with Python's cyclic garbage collector paused, since the
parsed inputs and reports it builds are acyclic trees that reference
counting frees, and main restores the caller's setting when it returns.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import hashlib
import json
import os
import sys

import numpy as np

from . import factor as factor_mod
from . import kernels as kernels_mod
from . import numlin, serialize
from .colligation import Colligation, model_colligation, structure_report
from .errors import (
    ConditionFailedError,
    DomainError,
    GridMismatchError,
    NonFiniteError,
    NotDivisibleError,
    OriginZeroError,
    ParseError,
    SchemaError,
)
from .functions import PowerSeries2, RationalFunction2, make_grid, series_of, strip_monomial
from .toeplitz import (
    DEFECT_WINDOW,
    boundary_scan,
    certify_inner,
    isometry_defect,
    phi_blocks_from_colligation,
    toeplitz_truncate,
)

DEFAULT_TOL_ENV = "BIDISC_SCHUR_TOL"


def _load(args, path: str):
    """The library value in the input file at path, from the bytes _run digested."""
    return serialize.read(path, args.data[path])


def _load_as(args, path: str, kind, message: str):
    """_load, refusing with SchemaError(message) what is not a `kind`."""
    obj = _load(args, path)
    if not isinstance(obj, kind):
        raise SchemaError(message)
    return obj


def parse_grid_spec(spec: str, seed: int):
    """Grid specs: "torus2:64", "bidisc:rand:40:seed=7", "disc:rand:12",
    "ball-2:rand:10", "polydisc-3:rand:20", "product:8x8[:seed=N]".  An
    optional seed=N field comes last; any other field is a ParseError."""
    kind, *body = spec.split(":")
    try:
        if body and body[-1].startswith("seed="):
            seed = int(body.pop()[len("seed="):])
        if kind == "torus2" and len(body) == 1:
            return make_grid("torus2", int(body[0]))
        if kind == "product" and len(body) == 1:
            n1, n2 = (int(x) for x in body[0].split("x"))
            return factor_mod.product_grid(n1, n2, seed=seed)
        if len(body) == 2 and body[0] == "rand":
            return make_grid(kind, int(body[1]), seed=seed)
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad grid spec {spec!r}: {exc}") from exc
    raise ParseError(f"bad grid spec {spec!r}")


def _orders(text) -> list:
    """The comma-separated Toeplitz orders M of --orders; each must be >= 2,
    so that the isometry-defect window min(DEFECT_WINDOW, M // 2) is at least 1."""
    try:
        values = [int(x) for x in str(text).split(",")]
    except ValueError:
        values = [0]
    if min(values) < 2:
        raise ParseError(f"--orders takes integers >= 2, got {text!r}")
    return values


def _tolerance(text) -> float:
    """The tolerance given as text; it must pass numlin.sound_tol."""
    try:
        tol = float(text)
    except ValueError:
        tol = np.nan
    if not numlin.sound_tol(tol):
        raise ParseError(f"tolerance must be a finite number with 0 < tol < 1, got {text!r}")
    return tol


def _seed(text):
    """The --seed given as text: the integer it spells, else the text."""
    try:
        return int(text)
    except ValueError:
        return text


def _as_function(obj):
    """Whatever came from JSON, if it is a function f(z1, z2) or f(z) of
    nvars coordinates: not a ThetaRealization, whose T(z) is a symbol."""
    if not (callable(obj) and hasattr(obj, "nvars")):
        raise SchemaError(f"input of type {type(obj).__name__} is not evaluable")
    return obj


# ---------------------------------------------------------------------------
# command implementations: each returns (verdict, evidence, exit_code)


def _decided(report, field: str, passed: str, failed: str):
    """(verdict, evidence, exit_code) of a report decided by its boolean
    field: (passed, 0) or (failed, 1), its other fields the evidence."""
    evidence = dataclasses.asdict(report)
    ok = evidence.pop(field)
    return (passed, evidence, 0) if ok else (failed, evidence, 1)


def _cmd_eval(args, tol, seed):
    fn = _as_function(_load(args, args.input))
    if args.at:
        try:
            raw = serialize.loads(args.at.encode("utf-8", "surrogatepass"), lambda: args.at)
            points = serialize.pairs_from_json(raw, 1)[None, :]
        except (json.JSONDecodeError, RecursionError, SchemaError) as exc:
            raise ParseError(f"bad --at value: {exc}") from exc
    else:
        points = parse_grid_spec(args.grid or "bidisc:rand:20", seed).points
    if points.shape[1] != fn.nvars:
        raise ParseError(f"points have {points.shape[1]} coordinate(s), but the "
                         f"function takes {fn.nvars}")
    # one gate for every kind: a rational function or a polynomial overflows
    # to inf or nan far outside the polydisc, where a colligation's solves refuse
    with np.errstate(all="ignore"):
        values = fn(*points.T)
    bad = np.count_nonzero(~np.isfinite(values))
    if bad:
        raise NonFiniteError(f"the function is not finite at {bad} of the {len(points)} point(s)")
    return "computed", {"points": points, "values": values}, 0


def _cmd_classify(args, tol, seed):
    obj = _load_as(args, args.input, Colligation, "classify expects a colligation")
    evidence = dataclasses.asdict(obj.classify(tol))
    if obj.nvars == 2:
        evidence["structure"] = dataclasses.asdict(structure_report(obj, tol))
    return "computed", evidence, 0


def _cmd_inner_check(args, tol, seed):
    v = _load_as(args, args.input, Colligation, "inner-check expects a colligation")
    cert = certify_inner(v, tol)
    evidence = {
        "detail": cert.detail,
        "structure": dataclasses.asdict(cert.structure),
        "boundary_deviation": cert.boundary_deviation,
        "boundary_passed": cert.boundary_passed,
        "isometry_defect": cert.defect,
    }
    if cert.diagnostics is not None:
        evidence["proof_quantities"] = {
            "y0": cert.diagnostics.y0,
            "max_y_offdiag": cert.diagnostics.max_y_offdiag,
            "max_c": cert.diagnostics.max_c,
            "partial_sum_defects": list(cert.diagnostics.partial_sum_defects),
        }
    return cert.verdict, evidence, 0 if cert.verdict == "certified" else 1


def _cmd_toeplitz_check(args, tol, seed):
    obj = _load(args, args.input)
    orders = _orders(args.orders)
    evidence = {"isometry_defect_by_M": {}, "structure": None, "radii": None,
                "boundary_deviation": None}
    if isinstance(obj, Colligation):
        rep = structure_report(obj, tol)
        evidence["structure"] = dataclasses.asdict(rep)
        evidence["radii"] = rep.radii
        builder = lambda m: phi_blocks_from_colligation(obj, m, tol)
    elif isinstance(obj, RationalFunction2):
        builder = lambda m: toeplitz_truncate(series_of(obj, m - 1, m - 1), m)
    elif isinstance(obj, PowerSeries2):
        builder = lambda m: toeplitz_truncate(obj, m)
    else:
        raise SchemaError("toeplitz-check expects a colligation, rational2, or series2")
    # a truncated series, whose tail is unknown, has no boundary values
    boundary = None if isinstance(obj, PowerSeries2) else boundary_scan(obj, tol)
    if boundary is not None:
        evidence["boundary_deviation"] = boundary.max_deviation
    for m in orders:
        window = min(DEFECT_WINDOW, m // 2)
        evidence["isometry_defect_by_M"][str(m)] = isometry_defect(builder(m), window)
    return "computed", evidence, 0


def _cmd_agler_kernels(args, tol, seed):
    v = _load_as(args, args.input, Colligation, "agler-kernels expects a colligation")
    grid = parse_grid_spec(args.grid or "bidisc:rand:40", seed)
    if args.out_k2 and v.nvars < 2:
        raise ParseError("--out-k2 asks for K2, but the colligation has 1 state block")
    pair = kernels_mod.agler_kernels_of(v, grid, tol)
    # each kernel is formatted once, for its file and for the report
    evidence = {f"K{i}": serialize.RawJSON(serialize.dumps(serialize.kernel_to_json(k)))
                for i, k in enumerate(pair.kernels, 1)}
    evidence["max_residual"] = pair.max_residual
    # bare kernel files chain directly into agler-verify / dbr commands
    for key, path in (("K1", args.out_k1), ("K2", args.out_k2)):
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(evidence[key] + "\n")
    return "computed", evidence, 0


def _cmd_agler_verify(args, tol, seed):
    fn = _as_function(_load(args, args.function))
    kernels = [_load_as(args, path, kernels_mod.SampledKernel,
                        "agler-verify expects kernel JSON for K1 ... Kd")
               for path in args.kernels]
    # decided before f is evaluated on the grid; verify_agler_decomposition
    # then checks that the grid has one coordinate per kernel
    grid = kernels[0].grid
    if fn.nvars != grid.nvars:
        raise GridMismatchError(f"the function takes {fn.nvars} coordinate(s), but the "
                                f"kernels are sampled on a {grid.ambient} grid")
    rep = kernels_mod.verify_agler_decomposition(fn, kernels, tol)
    if not all(rep.kernels_psd):
        name = f"K{rep.kernels_psd.index(False) + 1}"
        return f"failed: {name} is not PSD", {"kernel": name}, 1
    return _decided(rep, "passed", "pass", "failed: decomposition identity violated")


def _kernel_arg(args, path):
    return _load_as(args, path, kernels_mod.SampledKernel, f"{path} does not contain a kernel")


def _cmd_dbr_check(args, tol, seed):
    return _decided(kernels_mod.dbr_test_disc(_kernel_arg(args, args.input), tol), "is_psd",
                    "is-dbr", "not-dbr")


def _cmd_dbr_nf_check(args, tol, seed):
    rep = kernels_mod.dbr_test_nf(_kernel_arg(args, args.input), tol)
    ok = rep.dominated_by_szego and rep.hadamard_psd
    return ("pass" if ok else "failed"), dataclasses.asdict(rep), 0 if ok else 1


def _cmd_dbr_reconstruct(args, tol, seed):
    k = _kernel_arg(args, args.input)
    theta = kernels_mod.dbr_reconstruct_disc(k, tol)
    evidence = {
        "theta": serialize.theta_to_json(theta),
        "max_residual": theta.max_residual,
        "coisometry_defect": theta.coisometry_defect(),
    }
    return "reconstructed", evidence, 0


def _cmd_dbr_polydisc(args, tol, seed):
    k = _kernel_arg(args, args.kernel)
    comps = [_kernel_arg(args, p) for p in args.components]
    return _decided(kernels_mod.dbr_test_polydisc(k, comps, tol), "passed", "pass", "failed")


def _cmd_dbr_ball(args, tol, seed):
    return _decided(kernels_mod.dbr_test_ball(_kernel_arg(args, args.input), tol), "is_psd",
                    "pass", "failed")


def _split_report(v: Colligation, tol):
    """split_colligation as a verdict; a failed condition exits 1."""
    try:
        result = factor_mod.split_colligation(v, tol)
    except (ConditionFailedError, OriginZeroError) as exc:
        return f"{type(exc).__name__.removesuffix('Error')}: {exc}", {}, 1
    return "split", serialize.factorization_to_json(result), 0


def _cmd_factor(args, tol, seed):
    obj = _load(args, args.input)
    if isinstance(obj, Colligation):
        verdict, evidence, code = _split_report(obj, tol)
        if code == 0:
            verdict, evidence["separable"] = "separable", True
        return verdict, evidence, code
    separable, residual = factor_mod._coefficient_separability(_as_function(obj), tol)
    evidence = {"separable": separable, "max_residual": residual, "V1": None, "V2": None}
    return ("separable", evidence, 0) if separable else ("not-separable", evidence, 1)


def _cmd_compose(args, tol, seed):
    v1, v2 = (_load_as(args, path, Colligation, "compose expects two colligations")
              for path in (args.first, args.second))
    out = factor_mod.compose_colligations(v1, v2, tol)
    return "composed", {"colligation": serialize.colligation_to_json(out)}, 0


def _cmd_split(args, tol, seed):
    v = _load_as(args, args.input, Colligation, "split expects a colligation")
    return _split_report(v, tol)


def _cmd_model(args, tol, seed):
    constant, zeros = _load_as(args, args.input, tuple,
                               "model expects Blaschke data {constant, zeros}")
    v = model_colligation(constant, zeros)
    return "computed", {
        "colligation": serialize.colligation_to_json(v),
        "is_unitary": v.classify(tol).is_unitary,
    }, 0


def _cmd_strip(args, tol, seed):
    obj = _load_as(args, args.input, (RationalFunction2, PowerSeries2),
                   "strip expects a rational2 or series2 input")
    try:
        p, stripped = strip_monomial(obj, tol=tol)
    except NotDivisibleError as exc:
        return f"NotDivisible: {exc}", {}, 1
    if isinstance(stripped, RationalFunction2):
        out = serialize.rational_to_json(stripped)
    else:
        out = serialize.series_to_json(stripped)
    return "stripped", {"power": p, "function": out}, 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors, and its subparsers', raise ParseError."""

    def error(self, message):
        raise ParseError(message)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and reused: parse_args
    leaves it unchanged, and every call gets a fresh namespace."""
    parser = _Parser(
        prog="bidisc-schur",
        description="Colligation realizations, inner certificates, Agler "
                    "decompositions and de Branges-Rovnyak kernel tests.")
    parser.add_argument("--tol", default=None,
                        help="tolerance (default 1e-9, or env BIDISC_SCHUR_TOL)")
    parser.add_argument("--seed", default=0, help="seed for random grids")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", default=argparse.SUPPRESS)
    common.add_argument("--seed", default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_, inputs=("input",), last_nargs=None):
        """A subcommand run by handler(args, tol, seed), whose positional
        arguments `inputs` name input files (the last one taking last_nargs)."""
        p = sub.add_parser(name, help=help_, parents=[common])
        for arg in inputs[:-1]:
            p.add_argument(arg)
        p.add_argument(inputs[-1], nargs=last_nargs)
        p.set_defaults(handler=handler, inputs=inputs)
        return p

    p = add("eval", _cmd_eval, "evaluate a function or transfer function")
    p.add_argument("--at", help='point as JSON, e.g. "[[0.3,0],[0.1,0.2]]"')
    p.add_argument("--grid", help="grid spec when --at is absent")
    add("classify", _cmd_classify, "isometry/co-isometry/unitary/contraction classification")
    add("inner-check", _cmd_inner_check,
        "certify, refute, or decline inner-ness of a transfer function")
    p = add("toeplitz-check", _cmd_toeplitz_check, "Toeplitz isometry-defect diagnostics")
    p.add_argument("--orders", default="8,16,24", help="comma-separated Toeplitz orders, each >= 2")
    p = add("agler-kernels", _cmd_agler_kernels,
            "extract Agler kernels of a co-isometric colligation")
    p.add_argument("--grid", help='grid spec, e.g. "bidisc:rand:40:seed=7"')
    p.add_argument("--out-k1", help="write the first kernel as a bare kernel JSON")
    p.add_argument("--out-k2", help="write the second kernel as a bare kernel JSON")
    add("agler-verify", _cmd_agler_verify, "verify an Agler decomposition",
        ("function", "kernels"), last_nargs="+")
    add("dbr-check", _cmd_dbr_check, "de Branges-Rovnyak kernel test on the disc")
    add("dbr-nf-check", _cmd_dbr_nf_check, "normalized-form kernel test (Szego domination pair)")
    add("dbr-reconstruct", _cmd_dbr_reconstruct, "reconstruct a Schur symbol from a disc kernel")
    add("dbr-polydisc", _cmd_dbr_polydisc, "polydisc kernel certificate verifier",
        ("kernel", "components"), last_nargs="+")
    add("dbr-ball", _cmd_dbr_ball, "ball kernel test")
    add("factor", _cmd_factor, "separability of a polynomial, series or rational "
        "function from its coefficient table / co-isometric split of a colligation")
    add("compose", _cmd_compose, "compose one-variable colligations", ("first", "second"))
    add("split", _cmd_split, "split a colligation into one-variable factors")
    add("model", _cmd_model, "model-space colligation of a finite Blaschke product")
    add("strip", _cmd_strip, "strip powers of the first variable")
    return parser


def main(argv=None) -> int:
    """Run one command and print its report; the exit code is returned.
    The cyclic collector stays off while it runs: orjson's many small lists
    would otherwise start collections that walk the whole heap for cycles
    the command never makes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = argparse.Namespace()
    try:
        _, extra = build_parser().parse_known_args(argv, args)
        if extra:
            raise ParseError(f"unrecognized arguments: {' '.join(extra)}")
    except ParseError as exc:
        # a usage error names the subcommand argparse had parsed, None when
        # the top-level parser failed; --tol, --seed and --out were not read,
        # so the report is only printed
        print(serialize.dumps({"command": getattr(args, "command", None), "tol": None,
                               "seed": None, "verdict": f"ParseError: {exc}", "evidence": {}}))
        return 2

    paths = []
    for attr in args.inputs:
        value = getattr(args, attr)
        paths += value if isinstance(value, list) else [value]
    inputs = dict.fromkeys(paths)
    # each input is read once: these bytes are digested and parsed
    args.data = {}

    # --tol, else BIDISC_SCHUR_TOL, else the default
    given = args.tol if args.tol is not None else os.environ.get(DEFAULT_TOL_ENV, numlin.DEFAULT_TOL)
    seed = _seed(args.seed)
    report = {"command": args.command, "tol": given, "seed": seed}
    try:
        tol = report["tol"] = _tolerance(given)
        if type(seed) is not int or seed < 0:
            raise ParseError(f"--seed takes a non-negative integer, got {seed!r}")
        for path in inputs:
            with open(path, "rb") as fh:
                args.data[path] = fh.read()
            inputs[path] = hashlib.sha256(args.data[path]).hexdigest()
        report["inputs_digest"] = inputs
        verdict, evidence, code = args.handler(args, tol, seed)
    except (DomainError, ValueError, TypeError, np.linalg.LinAlgError, OSError,
            MemoryError) as exc:
        # OSError reads as IOError and numpy's _ArrayMemoryError as
        # MemoryError; ParseError and SchemaError keep their names, other
        # DomainErrors drop the Error suffix
        name = "IOError" if isinstance(exc, OSError) else \
            "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        if isinstance(exc, DomainError) and not isinstance(exc, (ParseError, SchemaError)):
            name = name.removesuffix("Error")
        verdict, evidence, code = f"{name}: {exc}", {}, 2
    report["verdict"] = verdict
    report["evidence"] = evidence

    text = serialize.dumps(report)
    if args.out:
        # written before anything is printed, so a path that cannot be
        # written gives one error report
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            report["verdict"], report["evidence"], code = f"IOError: {exc}", {}, 2
            text = serialize.dumps(report)
    print(text)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
