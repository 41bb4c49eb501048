"""Workload kernel-cli: the bidisc-schur command run in process through
bidisc_schur.cli.main(argv), one command per operation, with JSON files in
a work directory and stdout captured.

One pass holds, in this order:
  * the README's documented commands on docs/examples/, with the documented
    verdicts and exit codes (three of them exit 1);
  * Agler chains: agler-kernels on a unitary Blaschke cascade over a seeded
    bidisc grid, writing K1/K2, then agler-verify reading those files;
  * de Branges-Rovnyak chains on disc kernels of value dimension 1-3 built
    from closed-form Schur symbols T: dbr-check and dbr-reconstruct on
    (I - T(z)T(w)*)/(1 - z conj(w)), dbr-nf-check on T(z)T(w)*/(1 - z conj(w));
  * dbr-ball on Drury-Arveson kernels (1 - f(z) conj f(w))/(1 - <z, w>).
The seed draws every symbol, zero, grid and constant; the sizes are fixed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

import bidisc_schur as bs
import bidisc_schur.cli  # noqa: F401  (bs.cli.main is looked up at call time)

import reference as ref
from ops import Op, close

# Sizes: 45 commands a pass (0.5 * 45 and 0.9 * 45 are half-integers, so
# latency_p50_ms and latency_p90_ms fall in the middle of a block of
# repeats).  The percentiles land in groups of equal-size commands, which
# pools their samples: the median among the sixteen dbr-ball commands and
# the commands of similar cost, the 90th percentile on the two dbr-reconstruct
# commands at n = 60, value dimension 3.
AGLER = ((100, 3, 2), (125, 7, 6), (150, 12, 12))          # (n, deg1, deg2)
DBR = ((30, 1), (40, 2), (60, 3), (60, 3))                 # (n, value dim)
BALL = (90,) * 16                                          # n
DOCS = os.path.join("docs", "examples")
TOL = 1e-9


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj))
    return path


def _read(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _disc_points(rng, n: int) -> np.ndarray:
    return 0.95 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))


def _unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _psd_error(table: np.ndarray):
    g = ref.gram(table)
    lam = ref.min_eig(g)
    if lam >= -TOL * (1.0 + np.linalg.norm(g)):
        return None
    return f"Gram not PSD (lambda_min {lam:.3e})"


class CommandOp(Op):
    """One cli.main(argv) call.  Checks: exit code and verdict as expected,
    the report byte-identical to the first run of the same command, and the
    command's own checks."""

    def __init__(self, kind: str, argv: list, code: int, verdict: str,
                 inputs=(), prefix: bool = False):
        self.kind = kind
        self.argv = argv
        self.code = code
        self.verdict = verdict
        self.prefix = prefix
        self.inputs = list(inputs)
        self.first_digest = None
        self.extra = {}          # name -> (check, mutation)

    def run(self):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = bs.cli.main(self.argv)
        return code, buf.getvalue()

    def record(self, out):
        code, text = out
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.first_digest is None:
            self.first_digest = digest
        report = json.loads(text)
        # the kernels in an agler-kernels report are checked from the files
        for key in ("K1", "K2"):
            report["evidence"].pop(key, None)
        return {"code": code, "digest": digest, "report": report}

    def bytes_in(self) -> int:
        return sum(os.path.getsize(p) for p in self.inputs)

    def checks(self):
        out = {"exit": self._check_exit, "bytes": self._check_bytes}
        out.update({name: pair[0] for name, pair in self.extra.items()})
        return out

    def mutations(self):
        def exit_(rec):
            rec["code"] = 2
            return rec

        def bytes_(rec):
            rec["digest"] = hashlib.sha256(rec["digest"].encode("utf-8")).hexdigest()
            return rec
        out = {"exit": exit_, "bytes": bytes_}
        out.update({name: pair[1] for name, pair in self.extra.items()})
        return out

    def _check_exit(self, rec):
        verdict = rec["report"]["verdict"]
        ok = verdict.startswith(self.verdict) if self.prefix else verdict == self.verdict
        if rec["code"] != self.code or not ok:
            return f"{' '.join(self.argv[:2])}: exit {rec['code']} verdict {verdict!r}"
        return None

    def _check_bytes(self, rec):
        return None if rec["digest"] == self.first_digest else "report differs from the first run"


def _evidence_mutation(path: tuple, delta: float):
    """Mutation adding delta to a number inside report["evidence"]."""
    def mutate(rec):
        node = rec["report"]["evidence"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        return rec
    return mutate


# ---------------------------------------------------------------------------
# checks shared by the generated and the documented commands


def agler_checks(op: CommandOp, k1_path: str, k2_path: str, f):
    """K1 and K2, reloaded from the written files, satisfy
    1 - f(z) conj f(w) = (1 - z1 conj w1) K1 + (1 - z2 conj w2) K2 with the
    closed-form f, and both Grams are PSD."""
    def load(rec):
        if "kernels" not in rec:
            rec["kernels"] = [ref.kernel_from_json(_read(p)) for p in (k1_path, k2_path)]
        return rec["kernels"]

    def identity(rec):
        (pts, k1), (_, k2) = load(rec)
        vals = f(pts[:, 0], pts[:, 1])
        lhs = 1.0 - vals[:, None] * np.conj(vals)[None, :]
        rhs = sum((1.0 - pts[:, k, None] * np.conj(pts[:, k])[None, :]) * kk[:, :, 0, 0]
                  for k, kk in enumerate((k1, k2)))
        err = close(lhs, rhs, TOL)
        return None if err is None else f"Agler identity off by {err:.3e}"

    def psd(rec):
        for (_, table) in load(rec):
            msg = _psd_error(table)
            if msg:
                return msg
        return None

    def bad_identity(rec):
        (pts, k1), other = load(rec)
        k1 = k1.copy()
        k1[0, 1] += 1e-6
        k1[1, 0] += 1e-6
        rec["kernels"] = [(pts, k1), other]
        return rec

    def bad_psd(rec):
        (pts, k1), other = load(rec)
        k1 = k1.copy()
        k1[0, 0] -= 1.0 + np.abs(k1).sum()
        rec["kernels"] = [(pts, k1), other]
        return rec

    op.extra["agler_identity"] = (identity, bad_identity)
    op.extra["agler_psd"] = (psd, bad_psd)


def reconstruct_checks(op: CommandOp, kernel_path: str):
    """T rebuilt from the emitted theta by the resolvent formula reproduces
    (I - T(z)T(w)*)/(1 - z conj w) = K on the grid."""
    kernel = []

    def theta(rec):
        if not kernel:
            kernel.extend(ref.kernel_from_json(_read(kernel_path)))
        pts, table = kernel
        z = pts[:, 0]
        th = rec["report"]["evidence"]["theta"]
        mats = [ref.from_pairs(th[key]) for key in ("A", "B", "C", "D")]
        e_star, e, h = th["dims"]
        shapes = ((e, e_star), (e, h), (h, e_star), (h, h))
        mats = [m.reshape(s) for m, s in zip(mats, shapes)]
        err = close(ref.disc_dbr_kernel(ref.theta_values(*mats, z), z), table, 1e-7)
        return None if err is None else f"rebuilt T misses the kernel by {err:.3e}"

    def bad_theta(rec):
        rec["report"]["evidence"]["theta"]["A"][0][0][0] += 1e-5
        return rec

    op.extra["theta"] = (theta, bad_theta)


def eigen_check(op: CommandOp, path: tuple, gram):
    """A reported smallest eigenvalue equals numpy's eigvalsh of the Gram
    that gram() returns (computed at the first check, outside set-up)."""
    cache = []

    def reference():
        if not cache:
            g = gram()
            cache.extend((ref.min_eig(g), TOL * (1.0 + np.linalg.norm(g))))
        return cache

    def check(rec):
        want, scale = reference()
        node = rec["report"]["evidence"]
        for key in path:
            node = node[key]
        return None if abs(node - want) <= scale else f"lambda_min {node:.6e}, eigvalsh {want:.6e}"

    def mutate(rec):
        return _evidence_mutation(path, 10 * reference()[1] + 1e-6)(rec)

    op.extra["eigen" + "".join(f"_{k}" for k in path[1:])] = (check, mutate)


# ---------------------------------------------------------------------------
# the pass


def _docs_ops(root: str, work: str) -> list:
    ex = os.path.join(root, DOCS)
    sep = os.path.join(ex, "separable_colligation.json")
    mob = os.path.join(ex, "product_mobius_colligation.json")
    rat = os.path.join(ex, "product_mobius_rational.json")
    bla = os.path.join(ex, "blaschke.json")
    dbr = os.path.join(ex, "dbr_kernel.json")
    notdbr = os.path.join(ex, "not_dbr_kernel.json")
    k1, k2 = os.path.join(work, "docs_k1.json"), os.path.join(work, "docs_k2.json")
    model_out = os.path.join(work, "docs_model.json")

    sep_obj = _read(sep)
    sep_mats = [ref.from_pairs(sep_obj[key]) for key in ("B", "C", "D")]
    sep_a = complex(*sep_obj["a"])

    def sep_f(z1, z2):
        return ref.colligation_transfer(sep_a, *sep_mats, sep_obj["partition"],
                                        np.column_stack([z1, z2]))

    ops = [
        CommandOp("docs inner-check", ["inner-check", sep], 0, "certified", [sep]),
        CommandOp("docs inner-check", ["inner-check", mob], 1, "inconclusive", [mob]),
        CommandOp("docs factor", ["factor", mob], 1, "ConditionFailed: ", [mob], prefix=True),
        CommandOp("docs split", ["split", sep], 0, "split", [sep]),
        CommandOp("docs eval", ["eval", rat, "--at", "[[0,0],[0,0]]"], 0, "computed", [rat]),
        CommandOp("docs model", ["model", bla, "--out", model_out], 0, "computed", [bla]),
        CommandOp("docs agler-kernels", ["agler-kernels", sep, "--grid", "bidisc:rand:40:seed=7",
                                         "--out-k1", k1, "--out-k2", k2], 0, "computed", [sep]),
        CommandOp("docs agler-verify", ["agler-verify", sep, k1, k2], 0, "pass", [sep, k1, k2]),
        CommandOp("docs dbr-check", ["dbr-check", dbr], 0, "is-dbr", [dbr]),
        CommandOp("docs dbr-reconstruct", ["dbr-reconstruct", dbr], 0, "reconstructed", [dbr]),
        CommandOp("docs dbr-check", ["dbr-check", notdbr], 1, "not-dbr", [notdbr]),
    ]
    split_op, eval_op, model_op, agler_op = ops[3], ops[4], ops[5], ops[6]

    def split_product(rec):
        pts = np.array([[0.3 + 0.1j, -0.2 + 0.4j], [-0.5j, 0.6], [0.1, 0.0]])
        prod = np.ones(len(pts), dtype=np.complex128)
        for k, key in enumerate(("V1", "V2")):
            v = rec["report"]["evidence"][key]
            mats = [ref.from_pairs(v[m]) for m in ("B", "C", "D")]
            prod *= ref.colligation_transfer(complex(*v["a"]), *mats, v["partition"],
                                             pts[:, k:k + 1])
        err = close(prod, sep_f(pts[:, 0], pts[:, 1]), 1e-10)
        return None if err is None else f"V1 V2 differs from the colligation by {err:.3e}"

    def bad_split(rec):
        rec["report"]["evidence"]["V1"]["a"][0] += 1e-6
        return rec
    split_op.extra["split_product"] = (split_product, bad_split)

    def eval_value(rec):
        got = complex(*rec["report"]["evidence"]["values"][0])
        return None if abs(got + 0.5) <= 1e-15 else f"f(0, 0) = {got}, expected -0.5"
    eval_op.extra["value"] = (eval_value, _evidence_mutation(("values", 0, 0), 1e-6))

    blaschke_data = _read(bla)
    constant = complex(*blaschke_data["constant"])
    zeros = [complex(*z) for z in blaschke_data["zeros"]]

    def model_transfer(rec):
        v = rec["report"]["evidence"]["colligation"]
        mats = [ref.from_pairs(v[m]) for m in ("B", "C", "D")]
        z = np.array([0.0, 0.3, -0.4 + 0.5j, 0.9j])
        got = ref.colligation_transfer(complex(*v["a"]), *mats, v["partition"], z[:, None])
        err = close(got, ref.blaschke(constant, zeros, z), 1e-12)
        return None if err is None else f"model misses the Blaschke product by {err:.3e}"

    def bad_model(rec):
        rec["report"]["evidence"]["colligation"]["a"][1] += 1e-6
        return rec
    model_op.extra["model_transfer"] = (model_transfer, bad_model)

    agler_checks(agler_op, k1, k2, sep_f)
    reconstruct_checks(ops[9], dbr)
    return ops


def _agler_ops(rng, work: str, index: int, n: int, d1: int, d2: int) -> list:
    factors = []
    for d in (d1, d2):
        zeros = 0.9 * np.sqrt(rng.uniform(0.01, 1.0, size=d)) \
            * np.exp(2j * np.pi * rng.uniform(size=d))
        factors.append((complex(np.exp(2j * np.pi * rng.uniform())), zeros))
    v = bs.compose_colligations(*(bs.model_colligation(c, z) for c, z in factors))
    path = _write(os.path.join(work, f"cascade{index}.json"),
                  ref.colligation_json(v.a, v.B, v.C, v.D, v.partition))
    k1, k2 = (os.path.join(work, f"cascade{index}_{k}.json") for k in ("k1", "k2"))
    grid = f"bidisc:rand:{n}:seed={int(rng.integers(1, 2 ** 31))}"

    def f(z1, z2):
        return ref.blaschke(*factors[0], z1) * ref.blaschke(*factors[1], z2)

    kern = CommandOp("agler-kernels", ["agler-kernels", path, "--grid", grid,
                                       "--out-k1", k1, "--out-k2", k2], 0, "computed", [path])
    agler_checks(kern, k1, k2, f)
    verify = CommandOp("agler-verify", ["agler-verify", path, k1, k2], 0, "pass", [path, k1, k2])
    return [kern, verify]


def _dbr_ops(rng, work: str, index: int, n: int, dim: int) -> list:
    """Inner symbol T(z) = U diag(b_k(z)) W, b_k Blaschke products of degree
    1 or 2.  (For symbols that are not inner, dbr-reconstruct fails once
    n >= 30, a fault recorded in CHANGES.md.)"""
    z = _disc_points(rng, n)
    u, w = _unitary(rng, dim), _unitary(rng, dim)
    phis = np.stack([ref.blaschke(1.0, 0.8 * np.sqrt(rng.uniform(size=1 + k % 2))
                                  * np.exp(2j * np.pi * rng.uniform(size=1 + k % 2)), z)
                     for k in range(dim)], axis=1)
    tvals = np.einsum("ab,nb,bc->nac", u, phis, w)
    dbr = ref.disc_dbr_kernel(tvals, z)
    szego = 1.0 / (1.0 - z[:, None] * np.conj(z)[None, :])
    nf = np.eye(dim)[None, None] * szego[:, :, None, None] - dbr     # T(z)T(w)*/(1 - z conj w)
    pts = z[:, None]
    dbr_path = _write(os.path.join(work, f"dbr{index}.json"), ref.kernel_json("disc", pts, dbr))
    nf_path = _write(os.path.join(work, f"nf{index}.json"), ref.kernel_json("disc", pts, nf))

    check = CommandOp("dbr-check", ["dbr-check", dbr_path], 0, "is-dbr", [dbr_path])
    eigen_check(check, ("min_eigenvalue",),
                lambda: ref.gram(np.eye(dim)[None, None] - (1.0 / szego)[:, :, None, None] * dbr))
    nf_op = CommandOp("dbr-nf-check", ["dbr-nf-check", nf_path], 0, "pass", [nf_path])
    eigen_check(nf_op, ("min_eigenvalues", 0), lambda: ref.gram(dbr))
    eigen_check(nf_op, ("min_eigenvalues", 1),
                lambda: ref.gram((1.0 / szego)[:, :, None, None] * nf))
    recon = CommandOp("dbr-reconstruct", ["dbr-reconstruct", dbr_path], 0, "reconstructed",
                      [dbr_path])
    reconstruct_checks(recon, dbr_path)
    return [check, nf_op, recon]


def _ball_op(rng, work: str, index: int, n: int) -> CommandOp:
    """f(z) = u (a . z)^m with |a| < 1, a contractive Drury-Arveson multiplier."""
    direction = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    pts = direction * (0.95 * rng.uniform(size=n) ** 0.25)[:, None]
    a = rng.normal(size=2) + 1j * rng.normal(size=2)
    a *= rng.uniform(0.5, 0.95) / np.linalg.norm(a)
    m = 1 + index % 2
    f = complex(np.exp(2j * np.pi * rng.uniform())) * (pts @ a) ** m
    inner = pts @ pts.conj().T
    table = (1.0 - f[:, None] * np.conj(f)[None, :]) / (1.0 - inner)
    path = _write(os.path.join(work, f"ball{index}.json"), ref.kernel_json("ball-2", pts, table))
    op = CommandOp("dbr-ball", ["dbr-ball", path], 0, "pass", [path])
    eigen_check(op, ("min_eigenvalue",), lambda: 1.0 - (1.0 - inner) * table)
    return op


def build(seed: int, workdir: str) -> list:
    os.environ.pop(bs.cli.DEFAULT_TOL_ENV, None)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    rng = np.random.default_rng([seed, 3])
    ops = _docs_ops(root, workdir)
    for i, (n, d1, d2) in enumerate(AGLER):
        ops += _agler_ops(rng, workdir, i, n, d1, d2)
    for i, (n, dim) in enumerate(DBR):
        ops += _dbr_ops(rng, workdir, i, n, dim)
    ops += [_ball_op(rng, workdir, i, n) for i, n in enumerate(BALL)]
    return ops
