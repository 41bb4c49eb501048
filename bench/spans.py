"""Spans around the calls into bidisc_schur's public functions, for the
traced run (--trace 1).

The package is not edited.  `Tracer.install` replaces each traced public
function, in every loaded bidisc_schur module namespace that holds it, by a
wrapper that records a span; composite calls such as certify_inner or
cli.main therefore run as the program has them, and the public calls they
are made of show up as child spans.  A layer's self time is its spans'
durations minus the time covered by their child spans.  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

import numpy as np

# traced function -> per-layer metric its self time goes to (None: a
# composite whose own glue is left unattributed)
FUNCTION_METRICS = {
    ("colligation", "transfer_grid"): "colligation.transfer",
    ("colligation", "transfer_1d"): "colligation.transfer",
    ("colligation", "transfer_2d"): "colligation.transfer",
    ("colligation", "series_coefficient_table"): "colligation.series_table_ms",
    ("colligation", "structure_report"): None,
    ("toeplitz", "toeplitz_truncate"): "toeplitz.truncate_ms",
    ("toeplitz", "phi_blocks_from_colligation"): "toeplitz.truncate_ms",
    ("toeplitz", "isometry_defect"): "toeplitz.isometry_defect_ms",
    ("toeplitz", "proof_diagnostics"): "toeplitz.proof_diagnostics_ms",
    ("toeplitz", "certify_inner"): None,
    ("functions", "RationalFunction2.__init__"): "functions.rational_ctor_ms",
    ("functions", "series_of"): "functions.series_of_ms",
    ("functions", "boundary_modulus_test"): "functions.boundary_test_ms",
    ("numlin", "classify"): "numlin.classify_ms",
    ("numlin", "block_inverse_2x2"): "numlin.block_inverse_ms",
    ("numlin", "is_psd"): "numlin.psd_ms",
    ("numlin", "psd_factor"): "numlin.psd_ms",
    ("factor", "weak_converse_check"): "factor.weak_converse_ms",
    ("factor", "separability_test"): "factor.separability_ms",
    ("factor", "compose_colligations"): None,
    ("kernels", "agler_kernels_of"): "kernels.agler_kernels_ms",
    ("kernels", "verify_agler_decomposition"): "kernels.agler_kernels_ms",
    ("kernels", "dbr_test_disc"): "kernels.dbr_tests_ms",
    ("kernels", "dbr_test_nf"): "kernels.dbr_tests_ms",
    ("kernels", "dbr_test_polydisc"): "kernels.dbr_tests_ms",
    ("kernels", "dbr_test_ball"): "kernels.dbr_tests_ms",
    ("kernels", "dbr_reconstruct_disc"): "kernels.reconstruct_ms",
    ("kernels", "ThetaRealization.kernel_values"): "kernels.kernel_values_ms",
    ("serialize", "parse_object"): "serialize.parse_ms",
    ("serialize", "dumps"): "serialize.emit_ms",
    ("cli", "main"): "cli.self_ms",
}
# structure emitters; complex_to_json and matrix_to_json run once per entry
# or row, where a span would cost more than the call, so they stay unwrapped
EMITTERS = ("poly_to_json", "series_to_json", "rational_to_json", "grid_to_json",
            "colligation_to_json", "kernel_to_json", "blaschke_to_json", "theta_to_json",
            "factorization_to_json")
FUNCTION_METRICS.update({("serialize", name): "serialize.emit_ms" for name in EMITTERS})

# layers whose allocation peak is taken, with tracemalloc on, in the untimed pass
MEMORY_LAYERS = ("toeplitz", "serialize")

TIME_METRICS = sorted({m for m in FUNCTION_METRICS.values() if m and m.endswith("_ms")}
                      | {"colligation.torus_transfer_ms", "colligation.scattered_transfer_ms"})


def _on_torus(points) -> bool:
    pts = np.asarray(points)
    return bool(pts.size) and pts.ndim == 2 and pts.shape[1] == 2 \
        and float(np.max(np.abs(np.abs(pts) - 1.0))) <= 1e-12


class Tracer:
    def __init__(self):
        self.spans = []          # [name, metric, op, parent, start, end]
        self.stack = []
        self.op = -1
        self.memory = False      # take tracemalloc peaks (untimed pass only)
        self.peaks = {layer: 0.0 for layer in MEMORY_LAYERS}
        self.points = 0
        self.bytes_out = 0
        self._mem_owner = None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for (mod_name, attr), metric in FUNCTION_METRICS.items():
            module = importlib.import_module(f"bidisc_schur.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), f"{mod_name}.{attr}", metric))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, f"{mod_name}.{attr}", metric)
            for name, mod in list(sys.modules.items()):
                if name == "bidisc_schur" or name.startswith("bidisc_schur."):
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, name: str, metric):
        tracer = self
        # allocation peaks are taken inside the layer's own metric spans,
        # not inside composites such as certify_inner
        layer = metric.split(".")[0] if metric else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, metric, layer, args, kwargs)
        return traced

    # -- recording ---------------------------------------------------------

    def _call(self, fn, name, metric, layer, args, kwargs):
        if metric == "colligation.transfer":
            points = args[1] if len(args) > 1 else kwargs.get("points", kwargs.get("z"))
            pts = np.atleast_2d(np.asarray(points))
            self.points += pts.shape[0]
            metric = "colligation.torus_transfer_ms" if _on_torus(pts) \
                else "colligation.scattered_transfer_ms"
        own_memory = self.memory and layer in MEMORY_LAYERS and self._mem_owner is None
        if own_memory:
            self._mem_owner = layer
            tracemalloc.start()
        span = [name, metric, self.op, self.stack[-1] if self.stack else -1, 0.0, 0.0]
        index = len(self.spans)
        self.spans.append(span)
        self.stack.append(index)
        span[4] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[5] = time.perf_counter()
            self.stack.pop()
            if own_memory:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                self._mem_owner = None
                self.peaks[layer] = max(self.peaks[layer], peak)
        if name == "serialize.dumps":
            self.bytes_out += len(result.encode("utf-8"))
        return result

    def reset(self) -> None:
        """Forget spans and counts (the memory peaks are kept)."""
        self.spans.clear()
        self.points = 0
        self.bytes_out = 0

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[5] - span[4]
        totals = {m: 0.0 for m in TIME_METRICS}
        for span, covered in zip(self.spans, child):
            if span[1]:
                totals[span[1]] += span[5] - span[4] - covered
        return totals

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["name", "metric", "op", "parent", "start_s", "end_s"],
                                 "spans": self.spans}))
