"""Batched Hermite normal forms of lattice classes and their neighbours.

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
the content.  An arbitrary matrix is first made triangular by the
fixed-shape elimination over Z/q of `hermite_forms`, which
`LatticeClass.from_matrix` runs.  Blocks are held as (row, column,
matrix), so that each entry position is one contiguous vector; callers
see (B, d, d) arrays.  `form_keys` packs each form into one integer that
orders like the hnf tuples, for deduplication by sorting; `key_forms`
unpacks it.

The arithmetic runs in the narrowest of int16, int32 and int64 that holds
d q^2 with two bits to spare (d q^2 < 2^14, 2^30 or 2^62), a bound on
every intermediate; keys are int64 while they fit in 62 bits.  Beyond
that both are object arrays of Python ints, with the same code.
`building` imports this module on first use, so that `import heightcount`
does not compile it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

import numpy as np

from .errors import DomainError

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


def _power_mod(u: np.ndarray, e: int, q: int) -> np.ndarray:
    out = np.ones_like(u)
    while e:
        if e & 1:
            out = out * u % q
        u = u * u % q
        e >>= 1
    return out


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


def hermite_forms(x: np.ndarray, p: int, n: int) -> np.ndarray:
    """Primitive HNFs of rowspan(x[i]) + q Z^d, q = p^n, for x of shape (B, d, d).

    n must be at least 1.  When q Z^d already lies in rowspan(x[i]), this is
    the primitive HNF of the class of rowspan(x[i]).  x may be any integer
    array, of Python ints too; it is reduced modulo q first.

    Each matrix is made triangular modulo q (Domich, Kannan and Trotter
    1987), then `_reduce`d.  Z/q is a local ring, so each column pivots on
    a row of least p-valuation v; its unit part becomes 1 through
    u^(phi(q) - 1), the other rows are cleared, and the pivot slot keeps
    the annihilator row p^(n - v) * pivot.  A column that is 0 mod q takes
    q e_c plus the row as its pivot and keeps the row.  Every entry of a
    pivot column is a multiple of p^v, so clearing leaves it 0 and no
    later column reads it: the clear and the annihilator touch only the
    columns after it, and the last column needs neither.
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")  # u^(phi(1) - 1) never ends
    d = x.shape[1]
    q = p**n
    inverse = q // p * (p - 1) - 1  # u^inverse = 1/u for units u mod q
    x = np.remainder(x.transpose(1, 2, 0), q, order="C").astype(_dtype((d * q * q).bit_length()), copy=False)
    h = np.zeros_like(x)
    for c in range(d):
        col = x[:, c]
        g = np.gcd(col, q)
        # the first row of least gcd, by a running minimum over the rows
        # (argmin over axis 0 would copy the block to make that axis last)
        pv, i = g[0], np.zeros(g.shape[1], dtype=np.intp)
        for k in range(1, d):
            lower = g[k] < pv
            pv, i = np.where(lower, g[k], pv), np.where(lower, k, i)
        i = i[None]
        h[c, c] = pv
        if c == d - 1:
            break
        piv = np.take_along_axis(x[:, c:], i[None], axis=0)[0]
        u = piv[0] // pv
        u[u == 0] = 1
        r = piv[1:] * _power_mod(u, inverse, q) % q
        h[c, c + 1 :] = r
        rest = x[:, c + 1 :]
        # in place, sparing a (d, d - c - 1, B) temporary and its copy into x
        f = (col // pv)[:, None] * r
        np.remainder(np.subtract(rest, f, out=f), q, out=rest)
        np.put_along_axis(rest, i[None], ((q // pv) * r % q)[None], axis=0)
    return _reduce(h, q)


def _reduce(h: np.ndarray, q: int) -> np.ndarray:
    """Primitive HNFs of the triangular bases h[..., i], in place: each
    with a positive diagonal, q Z^d in its rowspan and its other entries in
    [0, q).  The entries above each diagonal entry are reduced by it, those
    right of it modulo q, and the content is divided out."""
    d = len(h)
    for j in range(1, d):
        t = h[:j, j] // h[j, j]
        h[:j, j:] -= t[:, None] * h[j, j:]
        h[:j, j + 1 :] %= q
    h //= np.gcd.reduce(h.reshape(d * d, -1), axis=0)
    return h.transpose(2, 0, 1)


def form_keys(forms: np.ndarray, bits: int) -> np.ndarray:
    """One integer per form: its upper triangle, row-major, in base 2^bits.

    Every entry must be below 2^bits.  Keys order like the hnf tuples.
    """
    iu = np.triu_indices(forms.shape[1])
    # int64 at least: narrower keys sort no measurably faster
    dt = np.promote_types(_dtype(len(iu[0]) * bits), np.int64)
    key = np.zeros(len(forms), dtype=dt)
    for entry in forms.transpose(1, 2, 0)[iu].astype(dt, copy=False):
        key = key << bits | entry
    return key


def key_forms(keys: np.ndarray, d: int, bits: int) -> np.ndarray:
    """Inverse of `form_keys`."""
    iu = np.triu_indices(d)
    out = np.zeros((len(keys), d, d), dtype=keys.dtype)
    for i, j in zip(iu[0][::-1], iu[1][::-1]):
        out[:, i, j] = keys & ((1 << bits) - 1)
        keys = keys >> bits
    return out
