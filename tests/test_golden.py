"""Golden reports for the CLI block of the README, run on docs/examples/.

Each tests/golden/*.json holds a command's argv, exit code and report.  The
test compares verdicts, exit codes, strings and key sets exactly, and
floats to 1e-12 (1 + |x|), so BLAS builds that round differently agree.
Values the golden holds as "*" are compared by key only: the agler-kernels
K1 and K2 tables (checked instead through the agler-verify verdict on the
files they are written to) and the digests of those files.

Regenerate after an intended change of a report, from the repository root:
    PYTHONPATH=src python tests/test_golden.py
This rewrites only the goldens that are missing or whose fresh report no
longer compares equal, so a golden no change touched keeps its bytes
whatever the last digits this machine's BLAS rounds to.

The README's CLI block must list COMMANDS in order, with the exit code and
verdict its comments state, and its Python session is run, the values of
its bare expressions checked against what its comments say.
"""

import ast
import contextlib
import io
import json
import os
import re
import shlex
import shutil
import tempfile

import pytest

from bidisc_schur.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
EXAMPLES = os.path.join(HERE, os.pardir, "docs", "examples")
README = os.path.join(HERE, os.pardir, "README.md")
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
    "dbr-polydisc-bidisc-dbr-kernel": "dbr-polydisc bidisc_dbr_kernel.json k1.json k2.json",
    "dbr-check-dbr-kernel": "dbr-check dbr_kernel.json",
    "dbr-reconstruct-dbr-kernel": "dbr-reconstruct dbr_kernel.json",
    "dbr-check-not-dbr-kernel": "dbr-check not_dbr_kernel.json",
    "dbr-check-negative-szego-kernel": "dbr-check negative_szego_kernel.json",
    "dbr-ball-ball-kernel": "dbr-ball ball_kernel.json",
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


def check(golden, got, name):
    assert got["argv"] == golden["argv"]
    assert got["exit"] == golden["exit"], f"{name}: exit {got['exit']}"
    assert got["report"]["verdict"] == golden["report"]["verdict"]
    compare(golden["report"], got["report"], name)


def regenerate(results, directory):
    """Write each result whose golden in directory is missing or fails
    check; return the names written."""
    written = []
    for name, result in results.items():
        path = os.path.join(directory, f"{name}.json")
        try:
            with open(path, encoding="utf-8") as fh:
                check(json.load(fh), result, name)
            continue
        except (OSError, ValueError, AssertionError):
            pass
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
        written.append(name)
    return written


def readme_commands():
    """(argv, comment) of each bidisc-schur command in the README's CLI
    block (the one that starts in docs/examples), backslash continuations
    joined; the comment is the text after its "#"."""
    with open(README, encoding="utf-8") as fh:
        blocks = fh.read().split("```sh\n")[1:]
    block = next(b for b in blocks if b.startswith("cd docs/examples")).split("```", 1)[0]
    out = []
    for line in block.replace("\\\n", " ").splitlines():
        code, _, comment = line.partition("#")
        argv = shlex.split(code)
        if argv[:1] == ["bidisc-schur"]:
            out.append((argv[1:], comment.strip()))
    return out


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return run_all(str(tmp_path_factory.mktemp("examples")))


@pytest.mark.parametrize("name", list(COMMANDS))
def test_report_matches_golden(fresh, name):
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        check(json.load(fh), fresh[name], name)


def test_regenerate_keeps_goldens_that_compare_equal(fresh, tmp_path):
    shutil.copytree(GOLDEN, tmp_path, dirs_exist_ok=True)
    before = {name: (tmp_path / name).read_bytes() for name in os.listdir(GOLDEN)}
    assert regenerate(fresh, str(tmp_path)) == []
    assert {name: (tmp_path / name).read_bytes() for name in os.listdir(GOLDEN)} == before
    # one float moved beyond the comparison's 1e-12 rewrites that golden alone
    moved = tmp_path / "inner-check-separable.json"
    golden = json.loads(moved.read_text(encoding="utf-8"))
    golden["report"]["evidence"]["boundary_deviation"] += 1e-9
    moved.write_text(json.dumps(golden), encoding="utf-8")
    assert regenerate(fresh, str(tmp_path)) == ["inner-check-separable"]
    check(json.loads(moved.read_text(encoding="utf-8")), fresh["inner-check-separable"], "moved")
    after = {name: (tmp_path / name).read_bytes() for name in os.listdir(GOLDEN)}
    assert {name for name in after if after[name] != before[name]} == {moved.name}


def test_readme_cli_block_runs_commands(fresh):
    commands = readme_commands()
    assert [argv for argv, _ in commands] == [line.split() for line in COMMANDS.values()]
    stated = 0
    for (_, comment), name in zip(commands, COMMANDS):
        if not comment.startswith("exit"):
            continue
        m = re.fullmatch(r'exit (\d+), (?:"(.*)"|[^"]*)', comment)
        assert m, f"{name}: comment {comment!r}"
        assert fresh[name]["exit"] == int(m[1]), name
        if m[2] is not None:
            verdict = fresh[name]["report"]["verdict"]
            assert verdict.startswith(m[2][:-3]) if m[2].endswith("...") else verdict == m[2], name
            stated += 1
    assert stated == 9



def test_readme_python_session():
    with open(README, encoding="utf-8") as fh:
        blocks = fh.read().split("```python\n")[1:]
    assert len(blocks) == 1
    # run the statements in order, keeping the value of each bare expression
    ns, values = {}, []
    for node in ast.parse(blocks[0].split("```", 1)[0]).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), README, "eval"), ns))
        else:
            exec(compile(ast.Module([node], []), README, "exec"), ns)
    verdict, certificate, passed, value = values
    assert verdict == "certified"
    assert certificate < 1e-12
    assert passed
    assert value == pytest.approx(ns["v1"](0.3) * ns["v2"](-0.2j), abs=1e-14)


if __name__ == "__main__":
    os.makedirs(GOLDEN, exist_ok=True)
    written = regenerate(run_all(tempfile.mkdtemp()), GOLDEN)
    print(f"wrote {len(written)} of {len(COMMANDS)} golden reports to {GOLDEN}: "
          + (", ".join(written) or "none changed"))
