"""Command-line front door: JSON in, JSON verdicts + evidence out.

Exit codes: 0 for pass/success verdicts, 1 for refuted/failed verdicts,
2 for errors (parse, schema, or violated preconditions outside a command's
own verdict contract).  Reports are deterministic for fixed inputs and
seed: keys are sorted and floats print with shortest round-trip precision.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import factor as factor_mod
from . import kernels as kernels_mod
from . import numlin, serialize
from .colligation import (
    Colligation,
    model_colligation,
    strip_monomial,
    structure_report,
)
from .errors import (
    ConditionFailedError,
    DomainError,
    NotDivisibleError,
    OriginZeroError,
    ParseError,
    SchemaError,
)
from .functions import PowerSeries2, RationalFunction2, make_grid, series_of
from .toeplitz import (
    boundary_scan,
    certify_inner,
    isometry_defect,
    phi_blocks_from_colligation,
    toeplitz_truncate,
)

DEFAULT_TOL_ENV = "BIDISC_SCHUR_TOL"


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return serialize.parse_object(obj)


def _load_as(path: str, kind, message: str):
    """_load, refusing with SchemaError(message) what is not a `kind`."""
    obj = _load(path)
    if not isinstance(obj, kind):
        raise SchemaError(message)
    return obj


def parse_grid_spec(spec: str, seed: int):
    """Grid specs: "torus2:64", "bidisc:rand:40:seed=7", "disc:rand:12",
    "ball-2:rand:10", "polydisc-3:rand:20", "product:8x8[:seed=N]"."""
    parts = spec.split(":")
    kind = parts[0]
    opts = {}
    body = []
    for p in parts[1:]:
        if "=" in p:
            key, val = p.split("=", 1)
            opts[key] = val
        else:
            body.append(p)
    use_seed = int(opts.get("seed", seed))
    try:
        if kind == "torus2":
            return make_grid("torus2", int(body[0]))
        if kind == "product":
            n1, n2 = (int(x) for x in body[0].split("x"))
            return factor_mod.product_grid(n1, n2, seed=use_seed)
        if body and body[0] == "rand":
            return make_grid(kind, int(body[1]), seed=use_seed)
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad grid spec {spec!r}: {exc}") from exc
    raise ParseError(f"bad grid spec {spec!r}")


def _positive(flag: str, text) -> list:
    """The comma-separated integers of a flag; each must be >= 1."""
    try:
        values = [int(x) for x in str(text).split(",")]
    except ValueError:
        values = [0]
    if min(values) < 1:
        raise ParseError(f"{flag} takes integers >= 1, got {text!r}")
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


def _as_function(obj):
    """Whatever came from JSON, if it is a function f(z1, z2) or f(z): every
    function kind, colligations included, is callable."""
    if not callable(obj):
        raise SchemaError(f"input of type {type(obj).__name__} is not evaluable")
    return obj


def _structure_dict(rep) -> dict:
    return {
        "is_isometry": rep.is_isometry,
        "is_coisometry": rep.is_coisometry,
        "is_unitary": rep.is_unitary,
        "is_contraction": rep.is_contraction,
        "lower_left_zero": rep.lower_left_zero,
        "radii": [rep.radius_block1, rep.radius_block2],
        "c0dot": [rep.c0dot_block1, rep.c0dot_block2],
        "factorization_condition": rep.factorization_condition,
    }


# ---------------------------------------------------------------------------
# command implementations: each returns (verdict, evidence, exit_code)


def _cmd_eval(args, tol, seed):
    fn = _as_function(_load(args.input))
    if args.at:
        try:
            raw = json.loads(args.at)
            points = np.array([[serialize.complex_from_json(z) for z in raw]], dtype=np.complex128)
        except (json.JSONDecodeError, SchemaError, TypeError) as exc:
            raise ParseError(f"bad --at value: {exc}") from exc
    else:
        points = parse_grid_spec(args.grid or "bidisc:rand:20", seed).points
    if points.shape[1] != fn.nvars:
        raise ParseError(f"points have {points.shape[1]} coordinate(s), but the "
                         f"function takes {fn.nvars}")
    return "computed", {"points": points, "values": fn(*points.T)}, 0


def _cmd_classify(args, tol, seed):
    obj = _load_as(args.input, Colligation, "classify expects a colligation")
    evidence = dataclasses.asdict(obj.classify(tol))
    if obj.nvars == 2:
        evidence["structure"] = _structure_dict(structure_report(obj, tol))
    return "computed", evidence, 0


def _cmd_inner_check(args, tol, seed):
    v = _load_as(args.input, Colligation, "inner-check expects a colligation")
    cert = certify_inner(v, tol)
    evidence = {
        "detail": cert.detail,
        "structure": _structure_dict(cert.structure),
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
    obj = _load(args.input)
    orders = _positive("--orders", args.orders)
    evidence = {"isometry_defect_by_M": {}, "structure": None, "radii": None,
                "boundary_deviation": None}
    if isinstance(obj, Colligation):
        rep = structure_report(obj, tol)
        evidence["structure"] = _structure_dict(rep)
        evidence["radii"] = [rep.radius_block1, rep.radius_block2]
        boundary = boundary_scan(obj, tol)
        builder = lambda m: phi_blocks_from_colligation(obj, m, tol)
    elif isinstance(obj, RationalFunction2):
        boundary = boundary_scan(obj, tol)
        builder = lambda m: toeplitz_truncate(series_of(obj, m - 1, m - 1), m)
    elif isinstance(obj, PowerSeries2):
        boundary = None
        builder = lambda m: toeplitz_truncate(obj, m)
    else:
        raise SchemaError("toeplitz-check expects a colligation, rational2, or series2")
    if boundary is not None:
        evidence["boundary_deviation"] = boundary.max_deviation
    for m in orders:
        window = min(8, m // 2)
        evidence["isometry_defect_by_M"][str(m)] = isometry_defect(builder(m), window)
    return "computed", evidence, 0


def _cmd_agler_kernels(args, tol, seed):
    v = _load_as(args.input, Colligation, "agler-kernels expects a colligation")
    grid = parse_grid_spec(args.grid or "bidisc:rand:40", seed)
    pair = kernels_mod.agler_kernels_of(v, grid, tol)
    # each kernel is formatted once, for its file and for the report
    evidence = {
        "max_residual": pair.max_residual,
        "K1": serialize.RawJSON(serialize.dumps(serialize.kernel_to_json(pair.k1))),
        "K2": serialize.RawJSON(serialize.dumps(serialize.kernel_to_json(pair.k2))),
    }
    # bare kernel files chain directly into agler-verify / dbr commands
    for attr, key in (("out_k1", "K1"), ("out_k2", "K2")):
        path = getattr(args, attr, None)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(evidence[key] + "\n")
    return "computed", evidence, 0


def _cmd_agler_verify(args, tol, seed):
    fn = _as_function(_load(args.function))
    k1, k2 = (_load_as(path, kernels_mod.SampledKernel,
                       "agler-verify expects kernel JSON for K1 and K2")
              for path in (args.k1, args.k2))
    for name, k in (("K1", k1), ("K2", k2)):
        if not k.is_psd(tol):
            return f"failed: {name} is not PSD", {"kernel": name}, 1
    rep = kernels_mod.verify_agler_decomposition(fn, k1, k2, tol)
    verdict = "pass" if rep.passed else "failed: decomposition identity violated"
    return verdict, {"max_residual": rep.max_residual}, 0 if rep.passed else 1


def _kernel_arg(path):
    return _load_as(path, kernels_mod.SampledKernel, f"{path} does not contain a kernel")


def _cmd_dbr_check(args, tol, seed):
    rep = kernels_mod.dbr_test_disc(_kernel_arg(args.input), tol)
    verdict = "is-dbr" if rep.is_dbr else "not-dbr"
    return verdict, {"min_eigenvalue": rep.min_eigenvalue}, 0 if rep.is_dbr else 1


def _cmd_dbr_nf_check(args, tol, seed):
    rep = kernels_mod.dbr_test_nf(_kernel_arg(args.input), tol)
    ok = rep.dominated_by_szego and rep.hadamard_psd
    return ("pass" if ok else "failed"), dataclasses.asdict(rep), 0 if ok else 1


def _cmd_dbr_reconstruct(args, tol, seed):
    k = _kernel_arg(args.input)
    theta = kernels_mod.dbr_reconstruct_disc(k, tol)
    evidence = {
        "theta": serialize.theta_to_json(theta),
        "max_residual": theta.max_residual,
        "coisometry_defect": theta.coisometry_defect(),
    }
    return "reconstructed", evidence, 0


def _cmd_dbr_polydisc(args, tol, seed):
    k = _kernel_arg(args.kernel)
    comps = [_kernel_arg(p) for p in args.components]
    rep = kernels_mod.dbr_test_polydisc(k, comps, tol)
    evidence = {
        "kernels_psd": list(rep.kernels_psd),
        "sum_residual": rep.sum_residual,
        "hadamard_min_eigenvalue": rep.hadamard_min_eigenvalue,
    }
    return ("pass" if rep.passed else "failed"), evidence, 0 if rep.passed else 1


def _cmd_dbr_ball(args, tol, seed):
    rep = kernels_mod.dbr_test_ball(_kernel_arg(args.input), tol)
    return ("pass" if rep.passed else "failed"), \
        {"min_eigenvalue": rep.min_eigenvalue}, 0 if rep.passed else 1


def _split_report(v: Colligation, tol):
    """split_colligation as a verdict; a failed condition exits 1."""
    try:
        result = factor_mod.split_colligation(v, tol)
    except (ConditionFailedError, OriginZeroError) as exc:
        return f"{type(exc).__name__.removesuffix('Error')}: {exc}", {}, 1
    return "split", serialize.factorization_to_json(result), 0


def _cmd_factor(args, tol, seed):
    obj = _load(args.input)
    if isinstance(obj, Colligation):
        verdict, evidence, code = _split_report(obj, tol)
        if code == 0:
            verdict, evidence["separable"] = "separable", True
        return verdict, evidence, code
    grid = parse_grid_spec(args.grid or "bidisc:rand:40", seed)
    try:
        rep = factor_mod.separability_test(_as_function(obj), grid, tol)
    except OriginZeroError as exc:
        return f"OriginZero: {exc}", {}, 1
    evidence = {"separable": rep.separable, "max_residual": rep.max_residual,
                "V1": None, "V2": None}
    return ("separable" if rep.separable else "not-separable"), evidence, \
        0 if rep.separable else 1


def _cmd_compose(args, tol, seed):
    v1, v2 = (_load_as(path, Colligation, "compose expects two colligations")
              for path in (args.first, args.second))
    out = factor_mod.compose_colligations(v1, v2, tol)
    return "composed", {"colligation": serialize.colligation_to_json(out)}, 0


def _cmd_split(args, tol, seed):
    return _split_report(_load_as(args.input, Colligation, "split expects a colligation"), tol)


def _cmd_model(args, tol, seed):
    constant, zeros = _load_as(args.input, tuple, "model expects Blaschke data {constant, zeros}")
    v = model_colligation(constant, zeros)
    unit = numlin.classify(v.V, tol)
    return "computed", {
        "colligation": serialize.colligation_to_json(v),
        "is_unitary": unit.is_unitary,
    }, 0


def _cmd_strip(args, tol, seed):
    obj = _load_as(args.input, (RationalFunction2, PowerSeries2),
                   "strip expects a rational2 or series2 input")
    try:
        p, stripped = strip_monomial(
            obj, truncation=_positive("--truncation", args.truncation)[0], tol=tol)
    except NotDivisibleError as exc:
        return f"NotDivisible: {exc}", {}, 1
    if isinstance(stripped, RationalFunction2):
        out = serialize.rational_to_json(stripped)
    else:
        out = serialize.series_to_json(stripped)
    return "stripped", {"power": p, "function": out}, 0


_COMMANDS = {
    "eval": _cmd_eval,
    "classify": _cmd_classify,
    "inner-check": _cmd_inner_check,
    "toeplitz-check": _cmd_toeplitz_check,
    "agler-kernels": _cmd_agler_kernels,
    "agler-verify": _cmd_agler_verify,
    "dbr-check": _cmd_dbr_check,
    "dbr-nf-check": _cmd_dbr_nf_check,
    "dbr-reconstruct": _cmd_dbr_reconstruct,
    "dbr-polydisc": _cmd_dbr_polydisc,
    "dbr-ball": _cmd_dbr_ball,
    "factor": _cmd_factor,
    "compose": _cmd_compose,
    "split": _cmd_split,
    "model": _cmd_model,
    "strip": _cmd_strip,
}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built on the first call and reused: parse_args
    leaves it unchanged, and every call gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="bidisc-schur",
        description="Colligation realizations, inner certificates, Agler "
                    "decompositions and de Branges-Rovnyak kernel tests.")
    parser.add_argument("--tol", default=None,
                        help="tolerance (default 1e-9, or env BIDISC_SCHUR_TOL)")
    parser.add_argument("--seed", type=int, default=0, help="seed for random grids")
    parser.add_argument("--out", default=None,
                        help="also write the JSON report to this path")
    # the same flags are accepted after the subcommand; SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, inputs=("input",)):
        p = sub.add_parser(name, help=help_, parents=[common])
        for arg in inputs:
            p.add_argument(arg)
        return p

    p = add("eval", "evaluate a function or transfer function")
    p.add_argument("--at", help='point as JSON, e.g. "[[0.3,0],[0.1,0.2]]"')
    p.add_argument("--grid", help="grid spec when --at is absent")
    add("classify", "isometry/co-isometry/unitary/contraction classification")
    add("inner-check", "certify, refute, or decline inner-ness of a transfer function")
    p = add("toeplitz-check", "Toeplitz truncation diagnostics")
    p.add_argument("--orders", default="8,16,24", help="comma-separated truncation orders")
    p = add("agler-kernels", "extract Agler kernels of a co-isometric colligation")
    p.add_argument("--grid", help='grid spec, e.g. "bidisc:rand:40:seed=7"')
    p.add_argument("--out-k1", help="write the first kernel as a bare kernel JSON")
    p.add_argument("--out-k2", help="write the second kernel as a bare kernel JSON")
    add("agler-verify", "verify an Agler decomposition", ("function", "k1", "k2"))
    add("dbr-check", "de Branges-Rovnyak kernel test on the disc")
    add("dbr-nf-check", "normalized-form kernel test (Szego domination pair)")
    add("dbr-reconstruct", "reconstruct a Schur symbol from a disc kernel")
    p = sub.add_parser("dbr-polydisc", help="polydisc kernel certificate verifier",
                       parents=[common])
    p.add_argument("kernel")
    p.add_argument("components", nargs="+")
    add("dbr-ball", "ball kernel test")
    p = add("factor", "separability test / co-isometric split")
    p.add_argument("--grid", help="grid spec for the separability residual")
    add("compose", "compose one-variable colligations", ("first", "second"))
    add("split", "split a colligation into one-variable factors")
    add("model", "model-space colligation of a finite Blaschke product")
    p = add("strip", "strip powers of the first variable")
    p.add_argument("--truncation", type=int, default=16)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    paths = [getattr(args, attr, None)
             for attr in ("input", "function", "k1", "k2", "kernel", "first", "second")]
    inputs = dict.fromkeys(p for p in paths + (getattr(args, "components", None) or []) if p)

    # --tol, else BIDISC_SCHUR_TOL, else the default
    given = args.tol if args.tol is not None else os.environ.get(DEFAULT_TOL_ENV, numlin.DEFAULT_TOL)
    report = {"command": args.command, "tol": given, "seed": args.seed}
    try:
        tol = report["tol"] = _tolerance(given)
        for path in inputs:
            inputs[path] = _digest(path)
        report["inputs_digest"] = inputs
        verdict, evidence, code = _COMMANDS[args.command](args, tol, args.seed)
    except (DomainError, ValueError, TypeError, np.linalg.LinAlgError, OSError) as exc:
        # ParseError and SchemaError keep their names, other DomainErrors
        # drop the Error suffix
        name = "IOError" if isinstance(exc, OSError) else type(exc).__name__
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
