"""Exact integer matrix helpers: determinants, elementary divisors, valuations.

Matrices are tuples of row tuples of Python ints.  Everything here is exact;
no floating point.  Lattices are always row spans.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .errors import DomainError

Mat = tuple[tuple[int, ...], ...]


def as_mat(rows) -> Mat:
    mat = tuple(tuple(int(x) for x in row) for row in rows)
    if not mat or any(len(r) != len(mat[0]) for r in mat):
        raise DomainError("matrix rows must be non-empty and of equal length")
    return mat


def det_int(mat: Mat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(row) for row in mat]
    n = len(a)
    if any(len(row) != n for row in a):
        raise DomainError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def elementary_divisors(mat: Mat) -> tuple[int, ...]:
    """Elementary divisors d_1 | d_2 | ... of a nonsingular square matrix.

    Computed from gcds of k x k minors: prod(d_i for i <= k) = gcd of all
    k-minors.  Quadratic in the number of minors but the matrices here are
    tiny (d <= 6).
    """
    n = len(mat)
    if det_int(mat) == 0:
        raise DomainError("elementary divisors need a nonsingular matrix")
    minor_gcds = [1]
    for k in range(1, n + 1):
        g = 0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = tuple(tuple(mat[i][j] for j in cols) for i in rows)
                g = gcd(g, det_int(sub))
                if g == 1:
                    break
            if g == 1:
                break
        minor_gcds.append(g)
    return tuple(minor_gcds[k] // minor_gcds[k - 1] for k in range(1, n + 1))


def content(mat: Mat) -> int:
    """gcd of all entries."""
    g = 0
    for row in mat:
        for x in row:
            g = gcd(g, x)
    return g


def valuation(n: int, p: int) -> int:
    if n == 0:
        raise DomainError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v
