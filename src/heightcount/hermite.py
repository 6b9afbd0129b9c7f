"""Batched Hermite normal forms of lattice classes and their neighbours.

The lattice-class search of `heightcount.building` calls this module on
whole blocks of classes at once.  A class is rowspan(h) for its primitive
Hermite normal form h (HNF), a d x d integer matrix.  Its neighbours
pL < M < L correspond to the N1 proper nonzero subspaces W of F_p^d.  For
each W a fixed basis S_W of pZ^d + span(B_W) is built once per (d, p)
(`subspace_products`), so the neighbour through W is rowspan(S_W h), and
one matrix product gives every (class, subspace) pair of a block.

Every such lattice contains q Z^d for some q = p^n that the caller knows,
so its Hermite form can be computed modulo q (Domich, Kannan and Trotter,
*Hermite normal form computation using modulo determinant arithmetic*,
1987).  Over the local ring Z/q this is a fixed-shape elimination
(`hermite_forms`), which `neighbour_forms` runs on the products.  The
elimination holds a block as (row, column, matrix), so that each entry
position of the whole block is one contiguous vector, and it skips each
pivot column once spent; callers see (B, d, d) arrays throughout.  It is
also the package's only Hermite form of an arbitrary matrix:
`LatticeClass.from_matrix` runs it on one matrix of determinant p^e u,
u prime to p, with q = p^(e + 1).  `form_keys` packs each form into one
integer whose order is the order of the hnf tuples, so that a block is
deduplicated by sorting, and `key_forms` unpacks the keys.

The elimination runs in the narrowest of int16, int32 and int64 that
holds d q^2 with two bits to spare (d q^2 < 2^14, 2^30 or 2^62): every
intermediate, the products S_W h of `neighbour_forms` included, is below
d q^2 in magnitude.  The keys are int64 while the packed entries fit in
62 bits.  Beyond 62 bits both are object arrays of Python ints and the
same code runs on them, as in `dirichlet.coeff_array`.

`building` imports this module inside the functions that use it, so that
`import heightcount` does not compile it.
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

    Shape (N1, d, d), in `subspace_bases` order by dimension: the rows of
    the reduced echelon basis B_W, then p e_c for every non-pivot column c.
    The neighbour of rowspan(h) through W is rowspan(S_W h).
    """
    out = []
    for j in range(1, d):
        for basis in subspace_bases(d, j, p):
            pivots = {row.index(1) for row in basis}
            pad = [[p * (i == c) for i in range(d)] for c in range(d) if c not in pivots]
            out.append(basis + pad)
    arr = np.array(out, dtype=np.int64)
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

    hnfs has shape (B, d, d), and p^(n-1) Z^d must lie in each of its
    lattices, so that q Z^d lies in every neighbour, q = p^n.  Returns
    shape (B N1, d, d): the neighbours of hnfs[0] in subspace order, then
    those of hnfs[1], and so on.  Each product S_W h goes through
    `hermite_forms`.
    """
    d = hnfs.shape[1]
    q = p**n
    dt = _dtype((d * q * q).bit_length())
    s = subspace_products(d, p).astype(dt, copy=False)
    return hermite_forms((s[None] @ hnfs.astype(dt)[:, None]).reshape(-1, d, d), p, n)


def hermite_forms(x: np.ndarray, p: int, n: int) -> np.ndarray:
    """Primitive HNFs of rowspan(x[i]) + q Z^d, q = p^n, for x of shape (B, d, d).

    n must be at least 1.  When q Z^d already lies in rowspan(x[i]), this is
    the primitive HNF of the class of rowspan(x[i]).  x may be any integer
    array, of Python ints too; it is reduced modulo q first.

    Each matrix is put in Hermite form modulo q (Domich, Kannan and
    Trotter 1987).  Z/q is a local ring, so each column pivots on a row of
    least p-valuation v; its unit part becomes 1 through u^(phi(q) - 1),
    the other rows are cleared, and the pivot slot keeps the annihilator
    row p^(n - v) * pivot.  A column that is 0 mod q takes q e_c plus the
    row as its pivot and keeps the row.  The entries above each pivot are
    then reduced, and p^(least valuation) is divided out.

    The elimination runs on the block transposed to (row, column, matrix),
    so that entry (r, c) of every matrix is one contiguous vector; the
    pivot rows are gathered, and the annihilator rows scattered back, along
    the row axis.  The pivot column is spent once its pivot is taken: every
    entry is a multiple of p^v, so clearing leaves it 0 and no later column
    reads it.  The clear and the annihilator therefore touch only the
    columns after it, and the last column needs neither.  The result is
    the (B, d, d) view of that layout.
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
