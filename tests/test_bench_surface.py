"""The names of the package that the benchmark under bench/ looks up.

bench/spans.py wraps the functions of FUNCTION_METRICS and the serialize
emitters of EMITTERS by name when a traced run installs its spans, and the
workload scripts call a few more names directly.  A rename or deletion of
any of them breaks the benchmark, so each must resolve here; spans.py is
only imported, never installed."""

import glob
import importlib
import importlib.util
import os
import re

import pytest

import bidisc_schur as bs
import bidisc_schur.cli  # noqa: F401  (the workloads call bs.cli.main)

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")
SPANS = os.path.join(BENCH, "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attr):
    obj = importlib.import_module(f"bidisc_schur.{module_name}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module_name,attr", sorted(load_spans().FUNCTION_METRICS))
def test_traced_function_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))


def test_emitters_resolve():
    for name in load_spans().EMITTERS:
        assert callable(resolve("serialize", name)), name


@pytest.mark.parametrize("module_name,attr", [
    ("colligation", "as_transfer_callable"),
    ("toeplitz", "phi_blocks_from_colligation"),
    ("toeplitz", "toeplitz_truncate"),
    ("toeplitz", "ToeplitzTruncation.blocks"),
    ("cli", "DEFAULT_TOL_ENV"),
    ("cli", "main"),
])
def test_directly_used_name_resolves(module_name, attr):
    assert resolve(module_name, attr) is not None


def test_names_in_workload_sources_resolve():
    # every bs.<name> chain and every `from bidisc_schur.<module> import`
    # in the benchmark's sources, read as text
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        for chain in re.findall(r"\bbs\.(\w+(?:\.\w+)*)", text):
            obj = bs
            for part in chain.split("."):
                obj = getattr(obj, part, None)
                assert obj is not None, f"{os.path.basename(path)}: bs.{chain}"
        for module_name, names in re.findall(r"from bidisc_schur\.(\w+) import ([\w, ]+)", text):
            for name in names.split(","):
                assert resolve(module_name, name.strip()), f"{module_name}.{name}"


def test_workload_calls_still_work():
    # the calls the workloads make with those names, on a small colligation
    v = bs.compose_colligations(bs.model_colligation(1.0, [0.5]),
                                bs.model_colligation(1.0, [-0.25]))
    grid = bs.make_grid("bidisc", 6, seed=1)
    assert bs.separability_test(bs.as_transfer_callable(v), grid).separable
    t = bs.phi_blocks_from_colligation(v, 4)
    assert t.blocks.shape == (4, 4, 4)
    assert isinstance(resolve("cli", "DEFAULT_TOL_ENV"), str)
