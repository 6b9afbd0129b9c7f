"""Test oracles: independent reference implementations the tests compare
the package against.

Nothing in `heightcount` calls these; they live beside the tests so the
shipped package carries only what it uses.

- `sl2_sphere_size`: distance-k orbit counts of the determinant-one
  subgroup on the tree, against the PGL_2 sphere sizes.
- `is_adjacent`: adjacency by the divisibility definition pL < M < L,
  against `building.neighbors`.
- `hnf_universe`: all primitive HNF class representatives of one
  determinant, against the breadth-first shells.
- `neighbors_by_hnf`, `enumerate_by_hnf`: neighbours by one integer
  Hermite form per subspace, and breadth-first search over them, against
  the batched modular kernel behind `neighbors` and `enumerate_classes`.
- `primes_by_scan`: the byte sieve read out one index at a time, against
  `primes_up_to`.
- `euler_product_by_prime`: the Euler product of L(s) one scalar complex
  factor at a time, against the array factors of `L_euler`, bit for bit.
- `components_by_loop`: the convolution summands one `np.interp` per m,
  against `BallVolumeSeries.components`.
"""

from __future__ import annotations

import cmath
import math
from itertools import product

import numpy as np

from heightcount import BuildingParams, DomainError, LatticeClass, base_class, zeta_em
from heightcount.adelic import BallVolumeSeries, _setup
from heightcount.building import _primitive_rescale, shell_count, shell_ratio
from heightcount.hermite import subspace_bases
from heightcount.intmat import Mat, content, det_int, hnf_rows
from heightcount.primes import is_prime, primes_up_to


def sl2_sphere_size(p: int, k: int) -> int:
    """Distance-k orbit count for the determinant-one subgroup at d = 2.

    The subgroup only reaches even distances; odd shells are empty and the
    even shell 2j (j >= 1) splits the tree shell as (p+1) p^(2j-1).
    """
    if not is_prime(p):
        raise DomainError(f"p must be prime, got p={p}")
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    if k == 0:
        return 1
    if k % 2 == 1:
        return 0
    return (p + 1) * p ** (k - 1)


def scale(mat: Mat, s: int) -> Mat:
    return tuple(tuple(s * x for x in row) for row in mat)


def mat_mul(a: Mat, b: Mat) -> Mat:
    cols = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def adjugate(mat: Mat) -> Mat:
    n = len(mat)
    if n == 1:
        return ((1,),)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            sub = tuple(
                tuple(mat[r][c] for c in range(n) if c != i)
                for r in range(n)
                if r != j
            )
            row.append((-1) ** (i + j) * det_int(sub))
        out.append(tuple(row))
    return tuple(out)


def row_span_contains(outer: Mat, inner: Mat) -> bool:
    """True when the row lattice of `inner` sits inside that of `outer`."""
    det = det_int(outer)
    if det == 0:
        raise DomainError("containment test needs a nonsingular outer matrix")
    prod = mat_mul(inner, adjugate(outer))
    return all(x % det == 0 for row in prod for x in row)


def is_adjacent(a: LatticeClass, b: LatticeClass) -> bool:
    """Adjacency by the divisibility definition: reps with pL < M < L.

    Independent of `neighbors`; used to cross-check it.  Tries both
    orderings and all p-power rescalings that can place b's lattice
    between p*a and a.
    """
    if a.p != b.p:
        raise DomainError("classes live over different primes")
    if a == b:
        return False
    p = a.p
    for outer, inner in ((a, b), (b, a)):
        eo = outer.det_exponent()
        ei = inner.det_exponent()
        # [index in p-exponent] of p^t * inner inside outer is d*t + ei - eo;
        # strict betweenness needs that index in (0, d).
        for t in range(0, (eo - ei) // len(outer.hnf) + 2):
            idx = len(outer.hnf) * t + ei - eo
            if not 0 < idx < len(outer.hnf):
                continue
            cand = scale(inner.hnf, p**t)
            if row_span_contains(outer.hnf, cand) and row_span_contains(
                cand, scale(outer.hnf, p)
            ):
                return True
    return False


def hnf_universe(d: int, p: int, e: int) -> list[Mat]:
    """All primitive HNF class representatives with determinant p^e.

    Direct stratified generation (diagonal p-power patterns times reduced
    off-diagonal residues); serves as an independent oracle for the
    breadth-first enumeration.
    """
    if e < 0:
        raise DomainError(f"need e >= 0, got {e}")
    out: list[Mat] = []
    for diag_exps in _compositions(e, d):
        diag = [p**a for a in diag_exps]
        ranges = [range(diag[j]) for j in range(d)]
        offdiag_positions = [(i, j) for j in range(d) for i in range(j)]
        for values in product(*(ranges[j] for i, j in offdiag_positions)):
            rows = [[0] * d for _ in range(d)]
            for i in range(d):
                rows[i][i] = diag[i]
            for (i, j), v in zip(offdiag_positions, values):
                rows[i][j] = v
            mat = tuple(tuple(r) for r in rows)
            if content(mat) % p != 0:
                out.append(mat)
    return out


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def neighbors_by_hnf(cls: LatticeClass, d: int) -> list[LatticeClass]:
    """All classes adjacent to cls.

    Intermediate lattices pL < M < L correspond to proper nonzero
    subspaces of L/pL over F_p; each echelon basis row is lifted to an
    integer combination of the rows of the HNF representative.
    """
    p = cls.p
    h = cls.hnf
    ph = scale(h, p)
    out = []
    for j in range(1, d):
        for basis in subspace_bases(d, j, p):
            lifts = tuple(
                tuple(sum(c * h[k][col] for k, c in enumerate(row)) for col in range(d))
                for row in basis
            )
            stacked = hnf_rows(ph + lifts)
            out.append(LatticeClass(p, _primitive_rescale(stacked, p)))
    return out


def enumerate_by_hnf(
    params: BuildingParams, k_max: int
) -> list[tuple[LatticeClass, int]]:
    """Breadth-first search over `neighbors_by_hnf`, in the order of
    `enumerate_classes`: by distance, then representative."""
    base = base_class(params)
    dist: dict[LatticeClass, int] = {base: 0}
    frontier = [base]
    for k in range(1, k_max + 1):
        new: list[LatticeClass] = []
        for v in frontier:
            for w in neighbors_by_hnf(v, params.d):
                if w not in dist:
                    dist[w] = k
                    new.append(w)
        frontier = new
    return sorted(dist.items(), key=lambda item: (item[1], item[0].hnf))


def primes_by_scan(n: int) -> list[int]:
    """All primes <= n: the byte sieve, read out by a comprehension."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    i = 2
    while i * i <= n:
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
        i += 1
    return [i for i in range(2, n + 1) if sieve[i]]


def euler_product_by_prime(d: int, s: complex, prime_cutoff: int) -> complex:
    """The value of `L_euler`, one Python complex factor per prime in order."""
    s = complex(s)
    value = 1.0 + 0.0j
    for j in range(d):
        value *= zeta_em(s - j) ** (d - 1)
    for p in primes_up_to(prime_cutoff):
        c_p, D_p = shell_ratio(d, p), shell_count(d, p)
        ps = cmath.exp(-s * math.log(p))
        factor = (1 - (c_p - D_p) * ps) / (1 - c_p * ps)
        for j in range(d):
            factor *= (1 - ps * p**j) ** (d - 1)
        value *= factor
    return value


def components_by_loop(series: BallVolumeSeries, T: float):
    """(m, D(m), b_inf(T - log m)) for each m until T - log m < 0."""
    weights, logs, interp = _setup(series.d, series.B, T, None, max(T, 1e-3))
    out = []
    for m in range(1, weights.size + 1):
        radius = T - logs[m - 1]
        if radius < 0:
            break
        out.append((m, weights[m - 1], float(np.interp(radius, interp.r_grid, interp.values))))
    return out
