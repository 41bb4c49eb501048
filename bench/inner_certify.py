"""Workload inner-certify: seeded two-variable colligations through
certify_inner, weak_converse_check and separability_test.

One pass holds, in this order of state dimension h = h1 + h2:
  * unitary cascades of two finite Blaschke products (model_colligation then
    compose_colligations), one per h in CASCADE_H, verdict "certified";
  * the paper's unitary realization of (z1 z2 - t)/(1 - t z1 z2), whose
    coupling block is t != 0, verdict "inconclusive";
  * strictly contractive colligations r V (V a cascade, r < 1), whose
    transfer function r f(r z) stays below 1 on the torus, verdict "refuted".
The seed draws the zeros, constants, splits h = h1 + h2, t, r and the
scattered grids; the sizes are fixed so that every seed costs the same.
"""

from __future__ import annotations

import numpy as np

import bidisc_schur as bs
from bidisc_schur.errors import ConditionFailedError

import reference as ref
from ops import Op, close

CASCADE_H = tuple(range(2, 25))          # state dimension 2..24, degree 1..12 per variable
MOBIUS_COUNT = 6
CONTRACTIVE_H = (4, 8, 12, 16, 20, 24)
SCATTERED_POINTS = 1024                  # separability grid, near the 64 x 64 torus in size
SPLIT_POINTS = 64
TORUS = 64                               # certify_inner's boundary grid
# Zero moduli lie in [0.55, 0.9], so that f(0) = prod |a_k| stays above
# 5e-7 at degree 24.  Nearer 1e-9, weak_converse_check refuses unitary
# cascades: its adjoint identity divides by f(0) and misses its 1e-9
# tolerance (a fault recorded in CHANGES.md).
ZERO_MODULI = (0.55, 0.9)


def _zeros(rng, count: int) -> np.ndarray:
    radius = rng.uniform(*ZERO_MODULI, size=count)
    return radius * np.exp(2j * np.pi * rng.uniform(size=count))


def _unimodular(rng) -> complex:
    return complex(np.exp(2j * np.pi * rng.uniform()))


def _scattered(rng, n: int) -> np.ndarray:
    radius = 0.95 * np.sqrt(rng.uniform(size=(n, 2)))
    return radius * np.exp(2j * np.pi * rng.uniform(size=(n, 2)))


def _torus_points() -> np.ndarray:
    ang = np.exp(2j * np.pi * np.arange(TORUS) / TORUS)
    z1, z2 = np.meshgrid(ang, ang, indexing="ij")
    return np.column_stack([z1.ravel(), z2.ravel()])


class CertifyOp(Op):
    """certify_inner, then weak_converse_check for unitary inputs, then
    separability_test on a scattered grid.  Subclasses give the closed form."""

    expected = ""
    unitary = True
    separable = True

    def __init__(self, v, points: np.ndarray, label: str):
        self.v = v
        self.points = points
        self.grid = bs.PointGrid("bidisc", points)
        self.label = label
        self._ref = None

    def closed_form(self, z1, z2):
        raise NotImplementedError

    def run(self):
        cert = bs.certify_inner(self.v)
        converse = None
        if self.unitary:
            try:
                converse = bs.weak_converse_check(self.v)
            except ConditionFailedError as exc:
                converse = exc
        sep = bs.separability_test(bs.as_transfer_callable(self.v), self.grid)
        return cert, converse, sep

    def record(self, out):
        cert, converse, sep = out
        rec = {
            "verdict": cert.verdict,
            "boundary_deviation": cert.boundary_deviation,
            "separable": bool(sep.separable),
            "sep_residual": float(sep.max_residual),
            "f1": np.array(sep.factor1_samples),
            "f2": np.array(sep.factor2_samples),
            "converse": None,
        }
        if isinstance(converse, Exception):
            rec["converse"] = type(converse).__name__
        elif converse is not None:
            fac = converse.factorization
            rec["converse"] = [(u.a, u.B.copy(), u.C.copy(), u.D.copy()) for u in (fac.v1, fac.v2)]
        return rec

    def reference(self) -> dict:
        if self._ref is None:
            z1, z2 = self.points[:, 0], self.points[:, 1]
            vals = self.closed_form(z1, z2)
            origin = complex(self.closed_form(np.zeros(1), np.zeros(1))[0])
            sec = self.closed_form(z1, 0 * z2) * self.closed_form(0 * z1, z2)
            torus = _torus_points()
            dev = np.abs(np.abs(self.closed_form(torus[:, 0], torus[:, 1])) - 1.0)
            self._ref = {"values": vals, "sep_residual": float(np.max(np.abs(vals * origin - sec))),
                         "boundary_deviation": float(dev.max())}
        return self._ref

    def checks(self):
        return {"verdict": self._check_verdict, "transfer": self._check_transfer,
                "torus": self._check_torus, "split": self._check_split}

    def mutations(self):
        def verdict(rec):
            rec["verdict"] = "certified" if self.expected != "certified" else "refuted"
            return rec

        def transfer(rec):
            rec["f1"] = rec["f1"] * (1.0 + 1e-6)
            rec["sep_residual"] += 1e-8
            return rec

        def torus(rec):
            rec["boundary_deviation"] += 1e-8
            return rec

        return {"verdict": verdict, "transfer": transfer, "torus": torus,
                "split": self._mutate_split}

    def _check_verdict(self, rec):
        if rec["verdict"] != self.expected:
            return f"verdict {rec['verdict']!r}, expected {self.expected!r}"
        return None

    def _check_transfer(self, rec):
        """Separable inputs: f1 f2 from the separability report equals f at the
        scattered points.  Otherwise the report's residual is the closed form's."""
        r = self.reference()
        if self.separable:
            if not rec["separable"]:
                return "not separable"
            err = close(rec["f1"] * rec["f2"], r["values"], 1e-10)
            return None if err is None else f"f1 f2 differs from f by {err:.3e}"
        if rec["separable"]:
            return "reported separable"
        err = abs(rec["sep_residual"] - r["sep_residual"])
        return None if err <= 1e-10 else f"separability residual off by {err:.3e}"

    def _check_torus(self, rec):
        dev = rec["boundary_deviation"]
        want = self.reference()["boundary_deviation"]
        if dev is None or not abs(dev - want) <= 1e-10:
            return f"boundary deviation {dev}, closed form {want:.3e}"
        return None

    def _check_split(self, rec):
        raise NotImplementedError

    def _mutate_split(self, rec):
        raise NotImplementedError


class CascadeOp(CertifyOp):
    kind = "cascade"
    expected = "certified"

    def __init__(self, rng, h: int):
        h1 = int(rng.integers(max(1, h - 12), min(12, h - 1) + 1))
        self.factors = [(_unimodular(rng), _zeros(rng, h1)),
                        (_unimodular(rng), _zeros(rng, h - h1))]
        v = bs.compose_colligations(*(bs.model_colligation(c, z) for c, z in self.factors))
        super().__init__(v, _scattered(rng, SCATTERED_POINTS), f"cascade h={h}")

    def closed_form(self, z1, z2):
        (c1, a1), (c2, a2) = self.factors
        return ref.blaschke(c1, a1, z1) * ref.blaschke(c2, a2, z2)

    def _check_split(self, rec):
        """The converse's one-variable factors are the closed-form Blaschke
        products up to unimodular constants."""
        if not isinstance(rec["converse"], list):
            return f"weak converse gave {rec['converse']!r}"
        pts = self.points[:SPLIT_POINTS]
        # the split takes y = sqrt(1 - B1 B1*) (the first factor's constant
        # term), whose rounding error grows like eps / y^2 as y gets small
        # and scales both factors
        y = abs(rec["converse"][0][0])
        scale_tol = 1e-10 + 4.0 * np.finfo(float).eps / y ** 2
        for k, ((a, B, C, D), (c, zeros)) in enumerate(zip(rec["converse"], self.factors)):
            got = ref.colligation_transfer(a, B, C, D, [D.shape[0]], pts[:, k:k + 1])
            want = ref.blaschke(c, zeros, pts[:, k])
            gauge = np.vdot(want, got) / np.vdot(want, want)
            err = close(got, gauge * want, 1e-10)
            if err is not None or abs(abs(gauge) - 1.0) > scale_tol:
                return (f"factor {k + 1} is not a rotation of its Blaschke product "
                        f"({err}, |c| = {abs(gauge)})")
        return None

    def _mutate_split(self, rec):
        a, B, C, D = rec["converse"][0]
        rec["converse"][0] = (a + 1e-6, B, C, D)
        return rec


class ContractiveOp(CascadeOp):
    kind = "contractive"
    expected = "refuted"
    unitary = False

    def __init__(self, rng, h: int):
        super().__init__(rng, h)
        self.r = float(rng.uniform(0.9, 0.98))
        v = self.v
        self.v = bs.Colligation(self.r * v.a, self.r * v.B, self.r * v.C, self.r * v.D, v.partition)
        self.label = f"contractive h={h}"

    def closed_form(self, z1, z2):
        return self.r * super().closed_form(self.r * np.asarray(z1), self.r * np.asarray(z2))

    def _check_split(self, rec):
        return None if rec["converse"] is None else "weak converse ran on a non-unitary input"

    def _mutate_split(self, rec):
        rec["converse"] = "ConditionFailedError"
        return rec


class MobiusOp(CertifyOp):
    kind = "product-mobius"
    expected = "inconclusive"
    separable = False

    def __init__(self, rng):
        self.t = float(rng.uniform(0.2, 0.8))
        g = np.sqrt(1.0 - self.t ** 2)
        v = bs.Colligation(-self.t, [[g, 0.0]], [[0.0], [g]], [[0.0, 1.0], [self.t, 0.0]], [1, 1])
        super().__init__(v, _scattered(rng, SCATTERED_POINTS), f"product-mobius t={self.t:.3f}")

    def closed_form(self, z1, z2):
        return ref.product_mobius(self.t, z1, z2)

    def _check_split(self, rec):
        """The coupling block is nonzero, so the converse must refuse."""
        if rec["converse"] != "ConditionFailedError":
            return f"weak converse gave {rec['converse']!r}, expected ConditionFailedError"
        return None

    def _mutate_split(self, rec):
        rec["converse"] = None
        return rec


def build(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 1])
    ops = [CascadeOp(rng, h) for h in CASCADE_H]
    ops += [MobiusOp(rng) for _ in range(MOBIUS_COUNT)]
    ops += [ContractiveOp(rng, h) for h in CONTRACTIVE_H]
    return ops
