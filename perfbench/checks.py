"""Output checks: every operation is compared with the package's exact values.

An operation is one call into fracdep's public API (one curve, one Monte
Carlo estimate, one CLI command).  It fails if it raised, or if any of its
outputs misses its exact value by more than the tolerance: a relative
tolerance for deterministic outputs, ``Z_TOL`` standard errors for Monte
Carlo estimates.
"""

from __future__ import annotations

import math

import numpy as np

# Monte Carlo tolerance in standard errors.  A run makes up to a few hundred
# comparisons and comparing two commits takes tens of runs, so a correct
# sampler has to pass with a per-comparison false-alarm rate far below 1e-4.
# A normal tail beyond 6 se is 2e-9.  That leaves room for bootstrap errors
# that understate the spread: over 24 seeds the FNBP correlation and Delta
# errors had a standard deviation of up to 1.3 of their reported se.
Z_TOL = 6.0


class Failed:
    """Stands in for the result of an operation that raised."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error

    def __repr__(self) -> str:
        return f"raised {type(self.error).__name__}: {self.error}"


def call(fn, *args, **kwargs):
    """Run one operation; an exception becomes a :class:`Failed` result."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation, never hidden
        return Failed(exc)


class Checker:
    """Counts operations and the ones that failed, keeping the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.max_abs_z = 0.0

    def op(self, label: str, result, check) -> bool:
        """Check one operation's ``result`` with ``check(result)``, which
        returns an iterable of problem strings (``None`` entries are passes)."""
        self.attempted += 1
        if isinstance(result, Failed):
            found = [repr(result)]
        else:
            try:
                found = [p for p in check(result) if p]
            except Exception as exc:  # a malformed output is a failed check
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(found[:3])}")
        return not found

    @staticmethod
    def close(what: str, got, want, rel: float, abs_tol: float = 0.0):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return f"{what}: shape {got.shape} != {want.shape}"
        tol = np.maximum(rel * np.abs(want), abs_tol)
        bad = ~(np.abs(got - want) <= tol)
        if np.any(bad):
            k = int(np.argmax(bad))
            return (f"{what}[{k}]: {got.flat[k]!r} vs exact {want.flat[k]!r} "
                    f"(rel tol {rel:g})")
        return None

    def within_z(self, what: str, got, want, se, z: float = Z_TOL, se_floor=0.0):
        """|got - want| <= z * max(se, se_floor), elementwise."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        se = np.asarray(se, dtype=float)
        if not (got.shape == want.shape == se.shape):
            return f"{what}: shapes {got.shape}, {want.shape}, {se.shape} differ"
        if not np.all(np.isfinite(se) & (se > 0.0)):
            return f"{what}: standard errors not positive and finite: {se}"
        se = np.maximum(se, se_floor)
        zs = np.abs(got - want) / se
        if np.all(np.isfinite(zs)):
            self.max_abs_z = max(self.max_abs_z, float(np.max(zs)))
        bad = ~(zs <= z)
        if np.any(bad):
            k = int(np.argmax(bad))
            return (f"{what}[{k}]: {got.flat[k]!r} vs exact {want.flat[k]!r}, "
                    f"{zs.flat[k]:.2f} se (tol {z:g} se)")
        return None

    @staticmethod
    def true(what: str, cond: bool):
        return None if cond else what


def self_test(fpp_variance, fpp_params) -> list:
    """Show that the checker rejects perturbed exact values and accepts exact ones.

    Returns a list of problems; empty means the checker behaves.
    """
    ck = Checker()
    exact = np.array([fpp_variance(fpp_params, t) for t in (1.0, 5.0, 10.0)])
    se = 0.01 * exact
    cases = [
        ("exact value, relative tolerance", exact, True,
         lambda v: [ck.close("variance", v, exact, rel=1e-12)]),
        ("exact value perturbed by 1e-9", exact * (1.0 + 1e-9), False,
         lambda v: [ck.close("variance", v, exact, rel=1e-12)]),
        ("estimate inside the z tolerance", exact + 0.5 * Z_TOL * se, True,
         lambda v: [ck.within_z("variance", v, exact, se)]),
        ("estimate perturbed past the z tolerance", exact + 1.01 * Z_TOL * se, False,
         lambda v: [ck.within_z("variance", v, exact, se)]),
        ("operation that raised", Failed(RuntimeError("boom")), False,
         lambda v: []),
        ("non-finite output", exact * math.nan, False,
         lambda v: [ck.close("variance", v, exact, rel=1e-12)]),
    ]
    problems = []
    for label, value, should_pass, check in cases:
        before = ck.failed
        ck.op(label, value, check)
        passed = ck.failed == before
        if passed != should_pass:
            problems.append(f"checker {'rejected' if should_pass else 'accepted'} "
                            f"{label}")
    if ck.attempted != len(cases) or ck.failed != 4:
        problems.append(f"checker counted {ck.failed}/{ck.attempted} failures, "
                        f"expected 4/{len(cases)}")
    return problems
