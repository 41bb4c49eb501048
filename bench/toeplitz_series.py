"""Workload toeplitz-series: seeded inner symbols, their power series to
order M - 1 and the windowed isometry defect of the order-M Toeplitz
compression.

One pass holds one symbol per order in ORDERS (M from 16 to 48), the kinds
taking turns along the orders so that each kind spans small and large M:
  * the product-Moebius function (z1 z2 - t)/(1 - t z1 z2) (mobius_of_product);
  * products of one-variable Blaschke factors in RationalFunction2 form,
    p = prod (1 - conj(a_k) z1) * prod (1 - conj(b_l) z2), degrees fixed per
    slot, series by series_of;
  * triangular colligations with small zeros (model_colligation then
    compose_colligations), series by phi_blocks_from_colligation.
Each pass also builds the two denominators of ZERO_FREE_COUNTEREXAMPLES,
which vanish on the closed disc and must raise ZeroPolynomialError.
The seed draws t, the zeros and the constants; the sizes are fixed.
"""

from __future__ import annotations

import numpy as np

import bidisc_schur as bs
from bidisc_schur.errors import ZeroPolynomialError

import reference as ref
from ops import Op, close

ORDERS = tuple(int(m) for m in np.rint(np.linspace(16, 48, 25)))
KINDS = ("product-mobius", "blaschke-rational", "triangular-colligation")
RATIONAL_DEGREES = ((1, 2), (2, 2), (2, 3), (3, 3))
COLLIGATION_DEGREES = ((2, 2), (3, 2), (3, 3))
WINDOW = 8
SERIES_TOL = 1e-10

# 1 - e^{-0.0628i} z1 / 0.97 (zero at radius 0.97) and 1 - e^{-0.0628i} z1
# (zero on the circle): both vanish on the closed bidisc
_ROT = np.exp(-0.0628j)
ZERO_FREE_COUNTEREXAMPLES = (("zero-inside", [[1.0], [-_ROT / 0.97]]),
                             ("zero-on-circle", [[1.0], [-_ROT]]))


def _zeros(rng, count: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.uniform(0.01, 1.0, size=count))
    return r * np.exp(2j * np.pi * rng.uniform(size=count))


def _factor_poly(zeros) -> np.ndarray:
    """Coefficients of prod (1 - conj(a) z), lowest degree first."""
    out = np.ones(1, dtype=np.complex128)
    for a in zeros:
        out = np.convolve(out, [1.0, -np.conj(a)])
    return out


class SeriesOp(Op):
    """Build the symbol, take its series to order M - 1, compute the windowed
    isometry defect.  The record is the coefficient table and the defect."""

    def __init__(self, order: int):
        self.order = order
        self._ref = None

    def taylor(self) -> np.ndarray:
        raise NotImplementedError

    def reference(self):
        if self._ref is None:
            coeffs = self.taylor()
            self._ref = (coeffs, ref.windowed_defect(coeffs, WINDOW))
        return self._ref

    def checks(self):
        return {"series": self._check_series, "defect": self._check_defect}

    def mutations(self):
        def series(rec):
            rec["coeffs"][1, 1] += 1e-7
            return rec

        def defect(rec):
            rec["defect"] = rec["defect"] * (1.0 + 1e-4) + 1e-8
            return rec
        return {"series": series, "defect": defect}

    def _check_series(self, rec):
        err = close(rec["coeffs"], self.reference()[0], SERIES_TOL)
        return None if err is None else f"M={self.order}: coefficients differ by {err:.3e}"

    def _check_defect(self, rec):
        want = self.reference()[1]
        err = abs(rec["defect"] - want)
        if err <= 1e-10 + 1e-8 * want:
            return None
        return f"M={self.order}: defect {rec['defect']:.6e}, reference {want:.6e}"


class RationalOp(SeriesOp):
    def symbol(self):
        raise NotImplementedError

    def run(self):
        f = self.symbol()
        series = bs.series_of(f, self.order - 1, self.order - 1)
        return series, bs.isometry_defect(bs.toeplitz_truncate(series, self.order), WINDOW)

    def record(self, out):
        series, defect = out
        return {"coeffs": np.array(series.coeffs), "defect": float(defect)}


class MobiusOp(RationalOp):
    kind = "product-mobius"

    def __init__(self, rng, order: int, slot: int):
        super().__init__(order)
        self.t = float(rng.uniform(0.3, 0.9))

    def symbol(self):
        return bs.mobius_of_product(self.t)

    def taylor(self):
        return ref.product_mobius_taylor(self.t, self.order)


class BlaschkeRationalOp(RationalOp):
    kind = "blaschke-rational"

    def __init__(self, rng, order: int, slot: int):
        super().__init__(order)
        d1, d2 = RATIONAL_DEGREES[slot % len(RATIONAL_DEGREES)]
        self.zeros = (_zeros(rng, d1, 0.7), _zeros(rng, d2, 0.7))
        self.u = complex(np.exp(2j * np.pi * rng.uniform()))
        self.denominator = np.outer(_factor_poly(self.zeros[0]), _factor_poly(self.zeros[1]))

    def symbol(self):
        return bs.RationalFunction2((0, 0), bs.Poly2(self.denominator), self.u)

    def taylor(self):
        return ref.taylor_fft2(lambda z1, z2: ref.blaschke(self.u, self.zeros[0], z1)
                               * ref.blaschke(1.0, self.zeros[1], z2), self.order)


class ColligationOp(SeriesOp):
    kind = "triangular-colligation"

    def __init__(self, rng, order: int, slot: int):
        super().__init__(order)
        d1, d2 = COLLIGATION_DEGREES[slot % len(COLLIGATION_DEGREES)]
        self.factors = [(complex(np.exp(2j * np.pi * rng.uniform())), _zeros(rng, d, 0.5))
                        for d in (d1, d2)]

    def run(self):
        v = bs.compose_colligations(*(bs.model_colligation(c, z) for c, z in self.factors))
        trunc = bs.phi_blocks_from_colligation(v, self.order)
        return trunc, bs.isometry_defect(trunc, WINDOW)

    def record(self, out):
        trunc, defect = out
        # block k is lower Toeplitz with first column (c[k, 0], ..., c[k, M-1])
        return {"coeffs": np.array([b[:, 0] for b in trunc.blocks]), "defect": float(defect)}

    def taylor(self):
        (c1, a1), (c2, a2) = self.factors
        return ref.taylor_fft2(lambda z1, z2: ref.blaschke(c1, a1, z1) * ref.blaschke(c2, a2, z2),
                               self.order)


class ZeroFreeOp(Op):
    """A denominator with a zero on the closed bidisc must be refused."""

    kind = "zero-free"
    known_fault = True

    def __init__(self, label: str, coeffs):
        self.label = label
        self.coeffs = np.array(coeffs, dtype=np.complex128)

    def run(self):
        try:
            bs.RationalFunction2((0, 0), bs.Poly2(self.coeffs))
        except ZeroPolynomialError:
            return "raised ZeroPolynomialError"
        return "accepted"

    def checks(self):
        return {"refused": lambda rec: None if rec == "raised ZeroPolynomialError"
                else f"{self.label}: denominator accepted"}

    def mutations(self):
        return {"refused": lambda rec: "accepted"}


_OPS = {"product-mobius": MobiusOp, "blaschke-rational": BlaschkeRationalOp,
        "triangular-colligation": ColligationOp}


def build(seed: int, workdir: str) -> list:
    rng = np.random.default_rng([seed, 2])
    ops = [_OPS[KINDS[slot % len(KINDS)]](rng, m, slot // len(KINDS))
           for slot, m in enumerate(ORDERS)]
    ops += [ZeroFreeOp(label, coeffs) for label, coeffs in ZERO_FREE_COUNTEREXAMPLES]
    return ops
