"""Golden reports for the CLI block of the README, run on docs/examples/.

Each tests/golden/*.json holds a command's argv, exit code and report.  The
test compares verdicts, exit codes, strings and key sets exactly, and
floats to 1e-12 (1 + |x|), so BLAS builds that round differently agree.
Values the golden holds as "*" are compared by key only: the agler-kernels
K1 and K2 tables (checked instead through the agler-verify verdict on the
files they are written to) and the digests of those files.

Regenerate after an intended change of a report, from the repository root:
    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import shutil
import tempfile

import pytest

from bidisc_schur.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
EXAMPLES = os.path.join(HERE, os.pardir, "docs", "examples")
ANY = "*"

# the README's CLI block, in order: agler-verify reads agler-kernels' files
COMMANDS = {
    "inner-check-separable": "inner-check separable_colligation.json",
    "inner-check-product-mobius": "inner-check product_mobius_colligation.json",
    "factor-product-mobius": "factor product_mobius_colligation.json",
    "split-separable": "split separable_colligation.json",
    "eval-product-mobius": "eval product_mobius_rational.json --at [[0,0],[0,0]]",
    "model-blaschke": "model blaschke.json --out model.json",
    "agler-kernels-separable": "agler-kernels separable_colligation.json "
                               "--grid bidisc:rand:40:seed=7 --out-k1 k1.json --out-k2 k2.json",
    "agler-verify-separable": "agler-verify separable_colligation.json k1.json k2.json",
    "dbr-check-dbr-kernel": "dbr-check dbr_kernel.json",
    "dbr-reconstruct-dbr-kernel": "dbr-reconstruct dbr_kernel.json",
    "dbr-check-not-dbr-kernel": "dbr-check not_dbr_kernel.json",
}
GENERATED = ("k1.json", "k2.json")


def run_all(workdir):
    """Run COMMANDS in a copy of docs/examples; name -> {argv, exit, report}."""
    for name in os.listdir(EXAMPLES):
        shutil.copy(os.path.join(EXAMPLES, name), workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    out = {}
    try:
        for name, line in COMMANDS.items():
            argv = line.split()
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            text = buf.getvalue().rstrip("\n")
            report = json.loads(text)
            if "--out" in argv:
                with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
                    assert fh.read() == text + "\n", f"{name}: --out file differs from stdout"
            for flag, key in (("--out-k1", "K1"), ("--out-k2", "K2")):
                if flag in argv:
                    with open(argv[argv.index(flag) + 1], encoding="utf-8") as fh:
                        assert json.load(fh) == report["evidence"][key], f"{name}: {flag}"
                    report["evidence"][key] = ANY
            for path in GENERATED:
                if path in report.get("inputs_digest", {}):
                    report["inputs_digest"][path] = ANY
            out[name] = {"argv": argv, "exit": code, "report": report}
    finally:
        os.chdir(cwd)
    return out


def compare(golden, got, where):
    if golden == ANY:
        return
    if isinstance(golden, dict):
        assert isinstance(got, dict) and set(got) == set(golden), f"{where}: keys {sorted(got)}"
        for key in golden:
            compare(golden[key], got[key], f"{where}.{key}")
    elif isinstance(golden, list):
        assert isinstance(got, list) and len(got) == len(golden), f"{where}: {got!r}"
        for i, (g, x) in enumerate(zip(golden, got)):
            compare(g, x, f"{where}[{i}]")
    elif isinstance(golden, float) and not isinstance(got, bool):
        assert isinstance(got, (int, float)), f"{where}: {got!r}"
        assert abs(got - golden) <= 1e-12 * (1.0 + abs(golden)), f"{where}: {got!r} != {golden!r}"
    else:
        assert type(got) is type(golden) and got == golden, f"{where}: {got!r} != {golden!r}"


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return run_all(str(tmp_path_factory.mktemp("examples")))


@pytest.mark.parametrize("name", list(COMMANDS))
def test_report_matches_golden(fresh, name):
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    got = fresh[name]
    assert got["argv"] == golden["argv"]
    assert got["exit"] == golden["exit"], f"{name}: exit {got['exit']}"
    assert got["report"]["verdict"] == golden["report"]["verdict"]
    compare(golden["report"], got["report"], name)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    results = run_all(tempfile.mkdtemp())
    for name, result in results.items():
        with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(results)} golden reports to {GOLDEN}")
