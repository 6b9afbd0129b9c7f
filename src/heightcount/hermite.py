"""Hermite normal forms of lattice classes and their neighbours.

A class is rowspan(h) for its primitive Hermite normal form h (HNF), a
d x d integer matrix.  Its neighbours pL < M < L correspond to the N1
proper nonzero subspaces W of F_p^d.  For each W a fixed upper triangular
basis S_W of pZ^d + span(B_W) is built once per (d, p)
(`subspace_products`), so the neighbour through W is rowspan(S_W h).
Each such lattice contains q Z^d for a q = p^n that the caller knows, so
its Hermite form can be computed modulo q (Domich, Kannan and Trotter,
*Hermite normal form computation using modulo determinant arithmetic*,
1987).  S_W h is triangular with a positive diagonal, the diagonal of its
Hermite form, so `neighbour_forms`, which the lattice-class search of
`heightcount.building` runs on whole blocks of classes, eliminates
nothing: `_reduce` reduces the entries above the diagonal and divides out
the content.  `hermite_form`, which `LatticeClass.from_matrix` runs,
takes one arbitrary matrix: it makes it triangular by an elimination
over Z/q on Python ints, then hands it to the same `_reduce`.  Blocks
are held as (row, column, matrix), so that each entry position is one
contiguous vector; callers see (B, d, d) arrays.  `form_keys` packs each
form into one integer that orders like the hnf tuples, for deduplication
by sorting; `key_forms` unpacks it.

The arithmetic of `neighbour_forms` runs in the narrowest of int16,
int32 and int64 that holds d q^2 with two bits to spare (d q^2 < 2^14,
2^30 or 2^62), a bound on every intermediate; keys are int64 while they
fit in 62 bits.  Beyond that both are object arrays of Python ints, with
the same code.  `building` imports this module on first use, so that
`import heightcount` does not compile it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations, product

import numpy as np

# the fixed-width dtypes, narrowest first, each with the bits its values may
# use: two are spare, for the sign and for a sum of two values
_WIDTHS = ((np.int16, 14), (np.int32, 30), (np.int64, 62))
# bound on the bits of every fixed-width array; see `_dtype`
_INT64_BITS = 62


def subspace_bases(d: int, j: int, p: int):
    """Reduced echelon bases of all j-dimensional subspaces of F_p^d."""
    for pivots in combinations(range(d), j):
        free = [
            (i, c)
            for i in range(j)
            for c in range(pivots[i] + 1, d)
            if c not in pivots
        ]
        for values in product(range(p), repeat=len(free)):
            rows = [[0] * d for _ in range(j)]
            for i in range(j):
                rows[i][pivots[i]] = 1
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield rows


def _dtype(bits: int):
    """The narrowest of int16, int32 and int64 that holds every value below
    2^bits with two bits to spare, when bits <= `_INT64_BITS`; else object."""
    return next((dt for dt, width in _WIDTHS if bits <= min(width, _INT64_BITS)), object)


@lru_cache(maxsize=16)
def subspace_products(d: int, p: int) -> np.ndarray:
    """Bases S_W of pZ^d + span(B_W), one per proper nonzero subspace W.

    Shape (N1, d, d), unsigned, in `subspace_bases` order by dimension.
    The rows of S_W (those of the reduced echelon basis B_W, and p e_c for
    each non-pivot column c) have distinct leading columns, so descending
    order makes S_W upper triangular, with 1 or p on its diagonal.  The
    neighbour of rowspan(h) through W is rowspan(S_W h).
    """
    out = []
    for j in range(1, d):
        for basis in subspace_bases(d, j, p):
            pivots = {row.index(1) for row in basis}
            pad = [[p * (i == c) for i in range(d)] for c in range(d) if c not in pivots]
            out.append(sorted(basis + pad, reverse=True))
    arr = np.array(out, dtype=np.min_scalar_type(p))
    arr.flags.writeable = False
    return arr


def neighbour_forms(hnfs: np.ndarray, p: int, n: int) -> np.ndarray:
    """Primitive HNFs of all neighbours of a block of classes.

    hnfs has shape (B, d, d).  Each hnfs[i] must be a Hermite form (upper
    triangular, a positive diagonal, each entry above it below the
    diagonal entry of its column) with p^(n-1) Z^d in its rowspan, so that
    q Z^d lies in every neighbour, q = p^n; this is not checked.  Returns
    shape (B N1, d, d): the neighbours of hnfs[0] in subspace order, then
    those of hnfs[1], and so on.  Entry (r, c) of S_W h is the sum of the
    c - r + 1 terms that triangular factors leave, at most d q; it is
    taken modulo q above the diagonal, and kept on it, where it may be q.
    """
    d = hnfs.shape[1]
    q = p**n
    dt = _dtype((d * q * q).bit_length())
    s = subspace_products(d, p).astype(dt).transpose(1, 2, 0)
    h = hnfs.astype(dt).transpose(1, 2, 0)[..., None]
    x = np.zeros((d, d, len(hnfs), s.shape[2]), dtype=dt)
    for r in range(d):
        for c in range(r, d):
            x[r, c] = sum(h[m, c] * s[r, m] for m in range(r, c + 1))
        x[r, r + 1 :] %= q
    return _reduce(x.reshape(d, d, -1), q)


def hermite_form(rows, p: int, n: int) -> np.ndarray:
    """Primitive HNF of rowspan(rows) + q Z^d, q = p^n, for a d x d integer
    matrix, as a (d, d) object array of Python ints.

    When q Z^d already lies in rowspan(rows), this is the primitive HNF of
    its class.  The matrix is made triangular modulo q (Domich, Kannan and
    Trotter 1987), then `_reduce`d.  Z/q is a local ring, so each column
    pivots on the first row of least p-valuation v; the pivot's unit part
    is inverted, the other rows are cleared, and the pivot row's slot keeps
    the annihilator row p^(n - v) * pivot.  A column that is 0 mod q takes
    q e_c plus the row as its pivot and keeps the row.  Every entry of a
    pivot column is a multiple of p^v, so clearing leaves it 0 and no later
    column reads it.
    """
    q = p**n
    x = [[v % q for v in row] for row in rows]
    d = len(x)
    h = [[0] * d for _ in range(d)]
    for c in range(d):
        g, i = min((math.gcd(row[c], q), i) for i, row in enumerate(x))
        unit = pow(x[i][c] // g or 1, -1, q)
        r = [v * unit % q for v in x[i][c + 1 :]]
        h[c][c:] = [g, *r]
        for row in x:
            f = row[c] // g
            row[c + 1 :] = [(v - f * w) % q for v, w in zip(row[c + 1 :], r)]
        x[i][c + 1 :] = [q // g * w % q for w in r]
    return _reduce(np.array(h, dtype=object)[..., None], q)[0]


def _reduce(h: np.ndarray, q: int) -> np.ndarray:
    """Primitive HNFs of the triangular bases h[..., i], in place: each
    with a positive diagonal, q Z^d in its rowspan and its other entries in
    [0, q).  The entries above each diagonal entry are reduced by it, those
    right of it modulo q, and the content is divided out.  The content
    divides every diagonal entry, so it is 1 wherever one of them is 1;
    the gcd and the division run only on the other bases."""
    d = len(h)
    for j in range(1, d):
        t = h[:j, j] // h[j, j]
        h[:j, j:] -= t[:, None] * h[j, j:]
        h[:j, j + 1 :] %= q
    scaled = np.flatnonzero((h.diagonal() > 1).all(axis=1))
    if scaled.size:
        part = h[..., scaled]
        h[..., scaled] = part // np.gcd.reduce(part.reshape(d * d, -1), axis=0)
    return h.transpose(2, 0, 1)


def form_keys(forms: np.ndarray, bits: int) -> np.ndarray:
    """One integer per form: its upper triangle, row-major, in base 2^bits.

    Every entry must be below 2^bits.  Keys order like the hnf tuples.
    """
    d = forms.shape[1]
    # int64 at least: narrower keys sort no measurably faster
    dt = np.promote_types(_dtype(d * (d + 1) // 2 * bits), np.int64)
    key = np.zeros(len(forms), dtype=dt)
    for r in range(d):
        for c in range(r, d):
            key = key << bits | forms[:, r, c].astype(dt, copy=False)
    return key


def key_forms(keys: np.ndarray, d: int, bits: int) -> np.ndarray:
    """Inverse of `form_keys`."""
    out = np.zeros((len(keys), d, d), dtype=keys.dtype)
    for r in reversed(range(d)):
        for c in reversed(range(r, d)):
            out[:, r, c] = keys & ((1 << bits) - 1)
            keys = keys >> bits
    return out
