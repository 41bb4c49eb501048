"""What every benchmark operation provides, and the check self-test.

An operation runs the program once (`run`, the only timed part), turns the
program's output into a plain record (`record`), and checks that record
against computations made apart from the program (`checks`).  Every check
has a matching deliberately wrong record (`mutations`), and the self-test
shows that each check rejects it.
"""

from __future__ import annotations

import copy

import numpy as np


class Op:
    kind = ""
    # True for an operation that fails today because of a known fault in
    # the program: it counts as failed but does not make the run incorrect
    known_fault = False

    def run(self):
        raise NotImplementedError

    def record(self, out):
        return out

    def checks(self) -> dict:
        """name -> fn(record) returning an error message, or None if right."""
        return {}

    def mutations(self) -> dict:
        """name -> fn(record) returning a copy that check `name` must reject."""
        return {}

    def errors(self, rec) -> list:
        out = []
        for name, check in self.checks().items():
            msg = check(rec)
            if msg:
                out.append(f"{self.kind}/{name}: {msg}")
        return out


def self_test(op: Op, rec) -> list:
    """Problems with the checks of op, given a record that passed them."""
    problems = []
    checks, mutations = op.checks(), op.mutations()
    if set(checks) != set(mutations):
        problems.append(f"{op.kind}: checks {sorted(checks)} but mutations {sorted(mutations)}")
    for name, mutate in mutations.items():
        if name in checks and not checks[name](mutate(copy.deepcopy(rec))):
            problems.append(f"{op.kind}/{name}: accepted a deliberately wrong output")
    return problems


def close(a, b, tol: float) -> float | None:
    """Largest entrywise distance of a and b if it exceeds tol, else None."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        return float("inf")
    err = float(np.max(np.abs(a - b), initial=0.0))
    return err if not err <= tol else None
