"""tests/byte_identity.py on a small corpus: the working tree against itself
shows no difference, and a copy of it whose inner-check report moves one
float by one ulp is reported, naming that command alone, in its stdout and
in the file it writes.  No git history is needed: both trees are
directories."""

import io
import os
import shutil

import pytest

import byte_identity

SRC = os.path.join(byte_identity.ROOT, "src")
COMMANDS = [
    ["inner-check-out", ["inner-check", "separable_colligation.json", "--out", "inner.json"]],
    ["model-out", ["model", "blaschke.json", "--out", "model.json"]],
    ["eval-at", ["eval", byte_identity.RATIONAL, "--at", "[[0.3,0.1],[-0.2,0.4]]"]],
    ["usage-error", ["--out", "classify", "eval", byte_identity.RATIONAL, "--bogus"]],
]


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("inputs"))
    byte_identity.prepare(directory)
    return directory


def test_working_tree_against_itself_is_identical(template):
    out = io.StringIO()
    assert byte_identity.compare(SRC, "itself", COMMANDS, template, out=out) == 0
    # the inputs, and the two files the commands write
    files = len(os.listdir(template)) + 2
    assert out.getvalue().splitlines() == [
        f"4 commands and {files} files against itself: 0 differ, 0 not allowed"]


def test_one_ulp_in_a_report_float_is_reported(template, tmp_path):
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "bidisc_schur" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    moved = text.replace('"boundary_deviation": cert.boundary_deviation,',
                         '"boundary_deviation": float(np.nextafter(cert.boundary_deviation, 1)),')
    assert moved != text
    cli.write_text(moved, encoding="utf-8")

    out = io.StringIO()
    assert byte_identity.compare(str(tmp_path / "src"), "copy", COMMANDS, template, out=out) == 1
    lines = out.getvalue().splitlines()
    assert [line for line in lines if line.startswith("differs: ")] == ["differs: inner-check-out"]
    report = "\n".join(lines)
    assert "argv: bidisc-schur inner-check separable_colligation.json --out inner.json" in report
    assert "stdout line " in report and "file inner.json line " in report
    assert lines[-1].endswith(" files against copy: 1 differ, 1 not allowed")

    allowed = io.StringIO()
    assert byte_identity.compare(str(tmp_path / "src"), "copy", COMMANDS, template,
                                 allow=["inner-check-out"], out=allowed) == 0
    assert allowed.getvalue().startswith("differs: inner-check-out (allowed)\n")
