"""Result checking: recorded references, tolerances and independent oracles.

Every job returns a flat dict of results whose keys name the quantity and
its inputs, e.g. `pi(x=403,B=0.5)`.  The part before the parenthesis is
the quantity's kind; `TOLERANCES` gives its relative tolerance, 0 meaning
exact equality.  The tolerances are the ones the package's test suite uses
for the same quantity.  `references.json` holds the values recorded by
`record.py`; `compare` checks a job's results against it.  Keys that
start with `_` depend on more than one job input and are left to oracles.

The oracle helpers below compute the same quantities without the package:
mpmath zeta quotients and Dedekind-psi sums (D(m) at d = 2 is psi(m)).
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).resolve().parent / "references.json"

TOLERANCES = {
    # adelic convolution b(T) and things built on it: rel 1e-6 (test_adelic)
    "regularity_lower": 1e-6,
    "regularity_upper": 1e-6,
    "regularity_gap": 1e-6,
    "regularity_verdict": 0,
    "b_series": 1e-6,
    "b_oneshot": 1e-6,
    "sandwich_lo": 1e-6,
    "sandwich_hi": 1e-6,
    "mainterm_lo": 1e-6,
    # criterion 9: C to rel 1e-12, the ratio to 0.03 of 1
    "measure_C": 1e-12,
    "persistence_ratio": 1e-9,
    # exact integer sums and counts
    "partial_sum": 0,
    "pi": 0,
    "ties": 0,
    "bfs_shells": 0,
    # Euler products: rel 1e-8 (criterion 3, test_dirichlet)
    "L_euler": 1e-8,
    "L_euler_bound": 1e-8,
    "L_euler_sl2": 1e-8,
    "residue": 1e-10,
    # prediction report: identities to 1e-12, the fitted exponent to quadrature noise
    "prediction": 1e-9,
    # archimedean volumes: rel 1e-9 (test_archimedean, criterion 6)
    "vol_numeric": 1e-9,
    "vol_table": 1e-9,
}


def kind(key: str) -> str:
    return key.split("(", 1)[0]


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["values"]


def _close(got, want, rtol: float) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, rtol) for g, w in zip(got, want))
        )
    if rtol == 0 or isinstance(want, str):
        return got == want
    return abs(got - want) <= rtol * abs(want)


def compare(values: dict, references: dict) -> list[str]:
    """Problems found comparing one job's results with the references."""
    problems = []
    for key, got in values.items():
        if key.startswith("_"):
            continue  # depends on several inputs; the job's oracle checks it
        if key not in references:
            problems.append(f"{key}: no recorded reference")
        elif not _close(got, references[key], TOLERANCES[kind(key)]):
            problems.append(f"{key}: got {got!r}, reference {references[key]!r}")
    return problems


def within(label: str, got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> list[str]:
    """One oracle comparison, as a list of zero or one problem."""
    if abs(got - want) <= rtol * abs(want) + atol:
        return []
    return [f"{label}: got {got!r}, oracle {want!r} (rtol {rtol:g}, atol {atol:g})"]


PSI_LIMIT = 10**6


@functools.cache
def _psi_table():
    """Dedekind psi(m) = m prod_{p | m} (1 + 1/p) for m <= PSI_LIMIT, as int64."""
    composite = np.zeros(PSI_LIMIT + 1, dtype=bool)
    for p in range(2, math.isqrt(PSI_LIMIT) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    psi = np.arange(PSI_LIMIT + 1, dtype=np.int64)
    for p in np.flatnonzero(~composite[2:]) + 2:
        psi[p::p] = psi[p::p] // p * (p + 1)
    return psi


def psi_sum(x: int) -> int:
    """sum_{m <= x} psi(m), the exact d = 2 partial sum of D(m)."""
    return int(_psi_table()[1 : x + 1].sum())


def psi_series(x: int, s: float) -> float:
    """sum_{m <= x} psi(m) / m^s, compensated."""
    m = np.arange(1, x + 1, dtype=float)
    return math.fsum((_psi_table()[1 : x + 1] / m**s).tolist())


def zeta_quotient(s: float, variant: str) -> float:
    """mpmath closed forms: pgl2 zeta(s)zeta(s-1)/zeta(2s), sl2
    zeta(2s-2)zeta(2s-1)/zeta(4s-2)."""
    import mpmath

    with mpmath.workdps(30):
        s = mpmath.mpf(s)
        z = mpmath.zeta
        if variant == "pgl2":
            return float(z(s) * z(s - 1) / z(2 * s))
        return float(z(2 * s - 2) * z(2 * s - 1) / z(4 * s - 2))
