"""Byte identity of the bidisc-schur command against a git revision or a
directory.

    python tests/byte_identity.py REV_OR_DIR [--allow COMMAND ...]

runs one corpus of commands through `bidisc_schur.cli.main`, in process,
once with the working tree's `src` and once with the `src` of REV_OR_DIR: a
git revision, checked out with `git worktree add --detach` into a temporary
directory that is removed afterwards, or the root of another tree, such as
a `git archive` of one.  Each tree runs in its own subprocess with its own
`src` first on the path.

The corpus is, in this order: the golden COMMANDS of tests/test_golden.py,
FURTHER_COMMANDS on docs/examples and the corpus's own inputs,
ERROR_COMMANDS (usage errors, refused inputs and `eval --at` cases), the
commands that `bench/kernel_cli.build(1, work)` generates, and
LAYOUT_COMMANDS, which read kernel files in the layout kernel-cli does not
give them: an indented ball kernel and dim-3 dBR kernel, and a compact K1.
Its inputs are built once, by the working tree, and both trees get copies
of the same files, so a change can only show in what a tree prints and
writes.

Each run directory is replaced by one token, and then every command's
stdout, exit code and written files (`--out`, `--out-k1`, `--out-k2`), and
at the end every other file in the run directory, must be byte-identical.  For
each command that differs the tool prints its name, its argv, the first
differing line and any change of verdict or exit code.  It exits 1 on any
difference in a command that `--allow` does not name, else 0.  The goldens
cannot stand in for it: they compare floats only to 1e-12.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOKEN = "<RUN>"
SRC_TOKEN = "<SRC>"
OUT_FLAGS = ("--out", "--out-k1", "--out-k2")
RATIONAL = "product_mobius_rational.json"

# commands on docs/examples and the corpus's own inputs beyond the golden
# ones; model.json is written by the golden model-blaschke command
FURTHER_COMMANDS = {
    "classify-separable": "classify separable_colligation.json",
    "classify-product-mobius": "classify product_mobius_colligation.json",
    "classify-polydisc": "classify polydisc_colligation.json",
    "inner-check-separable-out": "inner-check separable_colligation.json --out inner.json",
    "toeplitz-check-separable": "toeplitz-check separable_colligation.json --orders 4,8",
    "toeplitz-check-product-mobius": "toeplitz-check product_mobius_colligation.json",
    "toeplitz-check-rational": f"toeplitz-check {RATIONAL} --orders 4,10",
    "eval-rational-grid": f"eval {RATIONAL} --grid bidisc:rand:5",
    "eval-separable-product-grid": "eval separable_colligation.json --grid product:2x3",
    "factor-separable": "factor separable_colligation.json",
    "factor-rational": f"factor {RATIONAL}",
    "strip-rational": f"strip {RATIONAL}",
    "split-product-mobius": "split product_mobius_colligation.json",
    "split-cascade": "split cascade33.json",
    "factor-cascade": "factor cascade33.json",
    "compose-mobius": "compose mobius1.json mobius1.json --out composed.json",
    "dbr-nf-check-dbr-kernel": "dbr-nf-check dbr_kernel.json",
    "agler-kernels-polydisc": "agler-kernels polydisc_colligation.json "
                              "--grid polydisc-3:rand:6 --out-k1 p1.json --out-k2 p2.json",
}

ERROR_COMMANDS = {
    "usage-unknown-flag": ["factor", RATIONAL, "--grid", "bidisc:rand:5"],
    "usage-missing-input": ["dbr-check"],
    "usage-no-command": [],
    "usage-unknown-command": ["nope", "blaschke.json"],
    "usage-out-names-a-command": ["--out", "classify", "eval", RATIONAL, "--bogus"],
    "usage-abbreviated-out": ["--ou", "classify", "eval", RATIONAL, "--bogus"],
    "seed-not-an-integer": ["--seed", "x", "classify", "separable_colligation.json"],
    "seed-negative": ["agler-kernels", "separable_colligation.json", "--seed", "-1"],
    "tol-not-a-number": ["--tol", "abc", "classify", "separable_colligation.json"],
    "orders-below-two": ["toeplitz-check", RATIONAL, "--orders", "1"],
    "missing-file": ["dbr-check", "missing.json"],
    "wrong-domain": ["dbr-check", "ball_kernel.json"],
    "stateless-colligation": ["classify", "stateless.json"],
    "empty-ports": ["classify", "empty_ports.json"],
    "crowded-zeros": ["eval", "crowded.json", "--at", "[[0.3,0],[0.1,0.2]]"],
    "eval-at-points": ["eval", RATIONAL, "--at", "[[0.3,0.1],[-0.2,0.4]]"],
    "eval-at-colligation": ["eval", "separable_colligation.json", "--at", "[[0.3,0],[0,0.5]]"],
    "eval-at-one-pair": ["eval", RATIONAL, "--at", "[0.3, 0]"],
    "eval-at-number": ["eval", RATIONAL, "--at", "5"],
    "eval-at-one-coordinate": ["eval", RATIONAL, "--at", "[[0.3,0]]"],
    "eval-at-not-finite": ["eval", RATIONAL, "--at", "[[1e200,0],[1e200,0]]"],
    "eval-at-pole": ["eval", RATIONAL, "--at", "[[2,0],[1,0]]"],
}


# kernel-cli writes its ball and dBR kernels compact (json.dumps) and
# agler-kernels writes K1 and K2 indented (serialize.dumps); these read each
# in the other layout, from copies that layout_copies writes
LAYOUT_COMMANDS = {
    "layout-dbr-ball-indented": "dbr-ball ball0_indented.json",
    "layout-dbr-check-dim3-indented": "dbr-check dbr2_indented.json",
    "layout-agler-verify-compact-k1": "agler-verify cascade0.json layout_k1_compact.json "
                                      "layout_k2.json",
}


def _inputs():
    """The corpus's own input files, name -> JSON object."""
    import numpy as np
    from bidisc_schur import compose_colligations, model_colligation, serialize

    r = 3 ** 0.5 / 2
    crowded = np.outer([1.0, -0.5], np.poly(np.full(3, 0.999)))
    cascade = compose_colligations(model_colligation(1.0, [0.3, -0.5j, 0.6 + 0.2j]),
                                   model_colligation(np.exp(1j), [0.4, -0.7, 0.2j]))
    return {
        # the Mobius map (z + 1/2)/(1 + z/2) from a unitary colligation
        "mobius1.json": {"kind": "colligation", "a": [0.5, 0.0], "B": [[[r, 0.0]]],
                         "C": [[[r, 0.0]]], "D": [[[-0.5, 0.0]]], "partition": [1]},
        "stateless.json": {"kind": "colligation", "a": [0.5, 0.0], "B": [[]], "C": [],
                           "D": [], "partition": [0]},
        "empty_ports.json": {"kind": "colligation", "a": [0.5, 0.0], "B": [], "C": [],
                             "D": [[[0.5, 0.0]]], "partition": [1]},
        # (1 - z1/2)(1 - 0.999 z2)^3, zero-free with a triple zero in z2 1e-3
        # outside the circle
        "crowded.json": {"kind": "rational2", "monomial": [0, 0],
                         "denominator": {"kind": "poly2",
                                         "coeffs": np.stack([crowded, 0 * crowded], -1).tolist()}},
        # the cascade of two degree-3 Blaschke products, split by split and factor
        "cascade33.json": json.loads(serialize.dumps(serialize.colligation_to_json(cascade))),
    }


def prepare(directory: str) -> None:
    """Copy docs/examples into directory and write the corpus's own inputs."""
    examples = os.path.join(ROOT, "docs", "examples")
    for name in sorted(os.listdir(examples)):
        shutil.copy(os.path.join(examples, name), directory)
    for name, obj in _inputs().items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def corpus(directory: str) -> list:
    """prepare(directory), add the kernel-cli inputs, and return the corpus
    as [name, argv] pairs whose paths are relative to directory."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    prepare(directory)
    from test_golden import COMMANDS
    import kernel_cli

    commands = [[name, line.split()] for name, line in COMMANDS.items()]
    commands += [[name, line.split()] for name, line in FURTHER_COMMANDS.items()]
    commands += [[name, list(argv)] for name, argv in ERROR_COMMANDS.items()]
    roots = tuple(os.path.join(d, "") for d in (directory, os.path.join(ROOT, "docs", "examples")))
    ops = kernel_cli.build(1, directory)
    for i, op in enumerate(ops):
        argv = [os.path.basename(a) if a.startswith(roots) else a for a in op.argv]
        commands.append([f"kernel-cli-{i:02d}-{argv[0]}", argv])
    layout_copies(directory, ops)
    commands += [[name, line.split()] for name, line in LAYOUT_COMMANDS.items()]
    return commands


def layout_copies(directory: str, ops: list) -> None:
    """Write the inputs of LAYOUT_COMMANDS into directory, which holds the
    kernel-cli inputs of ops: indented copies of ball0.json and dbr2.json,
    and, from the first cascade's agler-kernels command run into
    layout_k1.json and layout_k2.json, a compact copy of its K1."""
    from bidisc_schur.cli import main

    def copy(source: str, target: str, indent) -> None:
        with open(os.path.join(directory, source), encoding="utf-8") as fh:
            obj = json.load(fh)
        with open(os.path.join(directory, target), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=indent)
    copy("ball0.json", "ball0_indented.json", 2)
    copy("dbr2.json", "dbr2_indented.json", 2)
    argv = next(op.argv for op in ops if op.argv[0] == "agler-kernels"
                and os.path.basename(op.argv[1]) == "cascade0.json")
    argv = argv[:argv.index("--out-k1")] + [
        "--out-k1", os.path.join(directory, "layout_k1.json"),
        "--out-k2", os.path.join(directory, "layout_k2.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    copy("layout_k1.json", "layout_k1_compact.json", None)


def _child(src: str, rundir: str, commands_path: str, results_path: str) -> None:
    """Run the corpus with the package under src, in rundir, and write one
    result per command, then the digest of every file in rundir."""
    sys.path.insert(0, src)
    import bidisc_schur
    from bidisc_schur.cli import main

    if not os.path.abspath(bidisc_schur.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"imported {bidisc_schur.__file__}, not the package under {src}")
    os.environ.pop("BIDISC_SCHUR_TOL", None)
    with open(commands_path, encoding="utf-8") as fh:
        commands = json.load(fh)
    os.chdir(rundir)
    results = []
    for _, argv in commands:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = main(argv)
        except (Exception, SystemExit):
            code = None
            buf.write(traceback.format_exc())
        files = {}
        for flag, path in zip(argv, argv[1:]):
            if flag in OUT_FLAGS and os.path.isfile(path):
                with open(path, encoding="utf-8", errors="replace") as fh:
                    files[path] = fh.read()
        results.append({"exit": code, "stdout": buf.getvalue(), "files": files})
    digests = {}
    for base, _, names in os.walk(rundir):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(rundir.encode(), TOKEN.encode())
            digests[os.path.relpath(path, rundir)] = hashlib.sha256(data).hexdigest()
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": results, "digests": digests}, fh)


def run_tree(src: str, template: str, commands: list, workdir: str, label: str) -> dict:
    """Copy template to workdir/label and run commands there in a subprocess
    that imports the package from src; the run directory becomes TOKEN in
    the output, and src (in a traceback) SRC_TOKEN."""
    src = os.path.realpath(src)
    rundir = os.path.realpath(os.path.join(workdir, label))
    shutil.copytree(template, rundir)
    commands_path = os.path.join(workdir, "commands.json")
    results_path = os.path.join(workdir, f"{label}.json")
    with open(commands_path, "w", encoding="utf-8") as fh:
        json.dump(commands, fh)
    env = {k: v for k, v in os.environ.items() if k != "BIDISC_SCHUR_TOL"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    child = (f"import sys; sys.path.insert(0, {HERE!r}); import byte_identity; "
             "byte_identity._child(*sys.argv[1:])")
    subprocess.run([sys.executable, "-c", child, src, rundir, commands_path, results_path],
                   check=True, env=env)
    with open(results_path, encoding="utf-8") as fh:
        results = json.load(fh)
    tokens = lambda text: text.replace(rundir, TOKEN).replace(src, SRC_TOKEN)
    for rec in results["commands"]:
        rec["stdout"] = tokens(rec["stdout"])
        rec["files"] = {p: tokens(text) for p, text in rec["files"].items()}
    return results


def _verdict(text: str):
    try:
        return json.loads(text)["verdict"]
    except (ValueError, TypeError, KeyError):
        return None


def _first_difference(old, new):
    """'line N' with the two versions of the first line that differs, or
    None when old == new (None stands for a missing file)."""
    if old == new:
        return None
    if old is None or new is None:
        return "only in the " + ("change" if old is None else "base")
    a, b = old.splitlines(), new.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    line = lambda lines: lines[i] if i < len(lines) else "<end>"
    return f"line {i + 1}\n      - {line(a)}\n      + {line(b)}"


def differences(commands: list, base: dict, change: dict) -> dict:
    """name -> the lines that describe how the change differs from the base."""
    out = {}
    for (name, _), old, new in zip(commands, base["commands"], change["commands"]):
        lines = []
        if old["exit"] != new["exit"]:
            lines.append(f"exit {old['exit']} -> {new['exit']}")
        if _verdict(old["stdout"]) != _verdict(new["stdout"]):
            lines.append(f"verdict {_verdict(old['stdout'])!r} -> {_verdict(new['stdout'])!r}")
        diff = _first_difference(old["stdout"], new["stdout"])
        if diff:
            lines.append(f"stdout {diff}")
        for path in sorted(set(old["files"]) | set(new["files"])):
            diff = _first_difference(old["files"].get(path), new["files"].get(path))
            if diff:
                lines.append(f"file {path} {diff}")
        if lines:
            out[name] = lines
    # files an output flag names were compared above, after each command
    # that wrote them
    named = {p for rec in base["commands"] + change["commands"] for p in rec["files"]}
    files = sorted(p for p in set(base["digests"]) | set(change["digests"])
                   if base["digests"].get(p) != change["digests"].get(p) and p not in named)
    if files:
        out["(run directory)"] = [f"file {p} differs at the end of the run" for p in files]
    return out


def compare(base_src: str, label: str, commands: list, template: str, allow=(),
            out=None) -> int:
    """Run commands with the package under base_src and with the working
    tree's, print every difference (to out, else stdout), and return 1 if
    one is not allowed."""
    out = out or sys.stdout
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as work:
        base = run_tree(base_src, template, commands, work, "base")
        change = run_tree(os.path.join(ROOT, "src"), template, commands, work, "change")
    found = differences(commands, base, change)
    argvs = dict(commands)
    for name, lines in found.items():
        tag = " (allowed)" if name in allow else ""
        print(f"differs: {name}{tag}", file=out)
        if name in argvs:
            print(f"  argv: bidisc-schur {' '.join(argvs[name])}", file=out)
        for line in lines:
            print(f"  {line}", file=out)
    refused = [name for name in found if name not in allow]
    print(f"{len(commands)} commands and {len(change['digests'])} files against {label}: "
          f"{len(found)} differ, {len(refused)} not allowed", file=out)
    return 1 if refused else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", metavar="REV_OR_DIR",
                        help="a git revision, or the root of a tree with a src directory")
    parser.add_argument("--allow", nargs="+", default=[], metavar="COMMAND",
                        help="corpus commands that may differ")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as work:
        template = os.path.join(work, "inputs")
        os.mkdir(template)
        commands = corpus(template)
        if os.path.isdir(args.base):
            return compare(os.path.join(args.base, "src"), args.base, commands, template,
                           args.allow)
        tree = os.path.join(work, "tree")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", tree,
                        args.base], check=True)
        try:
            return compare(os.path.join(tree, "src"), args.base, commands, template, args.allow)
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree],
                           check=True)


if __name__ == "__main__":
    sys.exit(main())
