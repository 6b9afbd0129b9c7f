"""Lattice class graphs over Z_p: spheres, balls, distances.

Vertices are homothety classes [L] of rank-d Z_p-lattices in Q_p^d.  Each
class has a unique representative that is an integer matrix in row Hermite
form with determinant a power of p and content 1 (a *primitive* HNF).  Two
classes are adjacent when representatives L, M exist with pL < M < L, both
inclusions strict.  The class of Z_p^d (identity matrix) is the base vertex.

The first shell around the base has

    D(p) = (d-1) (p^d - 1)/(p - 1)

vertices; each vertex of shell k-1 sees exactly

    c(p) = (d-1) p^(d-1) + p^(d-2) + ... + p

neighbors in shell k, giving the closed form D(p) c(p)^(k-1).  For d = 2
the graph is the (p+1)-regular tree (D = p + 1, c = p), geodesics are
unique, and the closed form is the exact shell vertex count.  For d >= 3
it is neither the vertex count nor, in general, the back-edge count.
Breadth-first search at p = 2, shells k = 1, 2, 3, finds

    d = 3:  vertices 14, 98, 560;  back-edges 14, 140, 896;  closed form 14, 140, 1400
    d = 4:  vertices 65, 1850;     back-edges 65, 3530;      closed form 45, 1350

so the closed form counts (shell k-1 -> shell k) edge incidences only at
d = 3 with k <= 2, and at d >= 4 it undercounts even the first shell:
D(p) misses the middle Grassmannians.  `enumerate_classes` is the ground
truth; `sphere_size` is the closed form.  The Dirichlet series machinery
is defined over the closed form throughout.  The class budget of
`enumerate_classes` is therefore checked against `_class_bound`, which
counts neighbours and bounds the ball from above at every d.

Neighbours come from one batched numpy kernel, `hermite.neighbour_forms`:
the neighbour of rowspan(h) through a subspace W of F_p^d is the rowspan
of a product S_W h that is already triangular, so its primitive Hermite
form needs no elimination.  The search expands its frontier in blocks of
`_BLOCK` products, deduplicates integer keys of the forms, and returns
the sorted keys of each shell in a `ClassTable`, which builds
`LatticeClass` objects only when it is iterated.  `LatticeClass.from_matrix`
runs the package's one general Hermite elimination, `hermite.hermite_form`,
on one matrix.  An integer Hermite form per neighbour is kept as a test
oracle of both.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_budget
from .intmat import Mat, as_mat, det_int, elementary_divisors, valuation
from .primes import is_prime

# Products (classes x subspaces) per kernel call in `enumerate_classes`.
_BLOCK = 2**13


@dataclass(frozen=True)
class BuildingParams:
    """Rank and residue characteristic of a lattice class graph."""

    d: int
    p: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise DomainError(f"need d >= 2, got d={self.d}")
        if not is_prime(self.p):
            raise DomainError(f"p must be prime, got p={self.p}")


def shell_count(d: int, p):
    """Number of classes at distance 1 from the base, D(p).

    D(p) = (d-1)(p^d - 1)/(p - 1), evaluated by Horner as
    (d-1)(1 + p + ... + p^(d-1)) so that it also applies elementwise to a
    numpy array of primes: no partial value exceeds the result, so an
    int64 array wraps only where D(p) itself does.  On an array every
    step after p + 1 works in place, so one buffer holds the result.
    """
    h = p + 1
    for _ in range(d - 2):
        h *= p
        h += 1
    h *= d - 1
    return h


def shell_ratio(d: int, p):
    """Growth factor c(p) between consecutive shells.

    c(p) = (d-1) p^(d-1) + (p^(d-1) - 1)/(p - 1) - 1
         = (d-1) p^(d-1) + p^(d-2) + ... + p, by Horner as in shell_count.
    """
    h = d - 1
    for _ in range(d - 2):
        h = h * p + 1
    return h * p


def sphere_size(params: BuildingParams, k: int) -> int:
    """Closed-form shell weight D(p) c(p)^(k-1); D(p^0) = 1.

    This is the multiplicative coefficient D(m) uses.  It is the exact
    vertex count of the distance-k shell for d = 2 and for d = 3, k = 1;
    at d = 3, k = 2 it equals the shell-(k-1) edge incidences instead, and
    elsewhere it matches neither count (see the module docstring).
    """
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    if k == 0:
        return 1
    d, p = params.d, params.p
    return shell_count(d, p) * shell_ratio(d, p) ** (k - 1)


def ball_size(params: BuildingParams, k: int) -> int:
    """Partial sum 1 + sum_{j<=k} sphere_size(j), in closed form.

    Exact ball vertex count for d = 2, and for d = 3 at k <= 1.  At d >= 4
    it is below the true count from k = 1 on, because D(p) misses the
    middle Grassmannians (46 against 66 at d = 4, p = 2, k = 1).
    """
    if k < 0:
        raise DomainError(f"need k >= 0, got {k}")
    if k == 0:
        return 1
    d, p = params.d, params.p
    c = shell_ratio(d, p)
    return 1 + shell_count(d, p) * (c**k - 1) // (c - 1)


def _class_bound(params: BuildingParams, k: int) -> int:
    """A-priori upper bound on the number of classes within distance k.

    Every vertex has N1 = sum_{j=1}^{d-1} [d choose j]_p neighbours, one
    per proper nonzero subspace of L/pL, so the first shell has exactly N1
    vertices.  Every vertex of shell k-1 >= 1 has a neighbour in shell k-2,
    so it adds at most N1 - 1 vertices to shell k, and
    |S_k| <= N1 (N1 - 1)^(k-1).  Exact at d = 2, where the graph is the
    (p+1)-regular tree.
    """
    d, p = params.d, params.p
    n1 = 0
    for j in range(1, d):
        num = den = 1
        for i in range(j):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        n1 += num // den
    return 1 + sum(n1 * (n1 - 1) ** (j - 1) for j in range(1, k + 1))


def snf_exponents(mat, p: int) -> tuple[int, ...]:
    """p-adic valuations (sorted ascending) of the elementary divisors."""
    if not is_prime(p):
        raise DomainError(f"p must be prime, got p={p}")
    m = as_mat(mat)
    if len(m) != len(m[0]):
        raise DomainError("need a square matrix")
    if det_int(m) == 0:
        raise DomainError("need a nonsingular matrix")
    return tuple(valuation(e, p) for e in elementary_divisors(m))


def building_distance(mat, p: int) -> int:
    """Graph distance from [row span of mat] to the base class.

    Equals the spread max - min of the divisor valuations; validated
    against breadth-first search distances in the test suite.
    """
    exps = snf_exponents(mat, p)
    return exps[-1] - exps[0]


class LatticeClass(NamedTuple):
    """Homothety class of Z_p-lattices, keyed by its primitive HNF.

    A named tuple (p, hnf): immutable, hashed as the tuple (p, hnf), and
    equal to that plain tuple as well as to every class with the same
    fields.  Classes therefore order as (p, hnf) tuples and unpack as
    `p, hnf = cls`.
    """

    p: int
    hnf: Mat

    @staticmethod
    def from_matrix(mat, p: int) -> "LatticeClass":
        """Class of the Z_p-row-span of an arbitrary nonsingular integer matrix.

        With det = p^e u, u prime to p, that span contains p^e Z_p^d, so
        prime-to-p structure is discarded by adjoining q Z^d for q =
        p^(e + 1): `hermite.hermite_form` gives the primitive HNF of
        rowspan(mat) + q Z^d, computed modulo q.
        """
        from . import hermite  # here, so `import heightcount` skips compiling it

        m = as_mat(mat)
        if len(m[0]) != len(m):
            raise DomainError("need a square matrix")
        det = det_int(m)
        if det == 0:
            raise DomainError("need a nonsingular matrix")
        if not is_prime(p):
            raise DomainError(f"p must be prime, got p={p}")
        form = hermite.hermite_form(m, p, valuation(det, p) + 1)
        return LatticeClass(p, tuple(map(tuple, form.tolist())))

    def det_exponent(self) -> int:
        return valuation(det_int(self.hnf), self.p)

    def divisor_exponents(self) -> tuple[int, ...]:
        return snf_exponents(self.hnf, self.p)


def base_class(params: BuildingParams) -> LatticeClass:
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(params.d)) for i in range(params.d)
    )
    return LatticeClass(params.p, ident)


def _classes(forms: np.ndarray, p: int) -> Iterator[LatticeClass]:
    """The classes of a (B, d, d) block of primitive HNFs, in block order.

    Each hnf is a tuple of row tuples of Python ints, zipped at C speed from
    one `tolist` per entry position (r, c) on or above the diagonal and
    `repeat(0)` below it, and each class is made by `tuple.__new__` from
    its zipped (p, hnf) pair, so no Python code runs per form."""
    d = forms.shape[1]
    zeros = repeat(0)
    rows = [zip(*[zeros] * r, *(forms[:, r, c].tolist() for c in range(r, d))) for r in range(d)]
    return map(tuple.__new__, repeat(LatticeClass), zip(repeat(p), zip(*rows)))


def neighbors(cls: LatticeClass, d: int) -> list[LatticeClass]:
    """All classes adjacent to cls, one per proper nonzero subspace of L/pL.

    Intermediate lattices pL < M < L correspond to proper nonzero subspaces
    W of L/pL over F_p; M is spanned by pL and lifts of a basis of W.  This
    is `hermite.neighbour_forms` on a block of one class, with q = p^(e + 1)
    for p^e the determinant, since p^e Z^d lies in L.  That kernel needs a
    Hermite form with powers of p on its diagonal; any other hnf is refused.
    """
    from . import hermite  # here, so `import heightcount` skips compiling it

    p, hnf = cls
    if len(hnf) != d:
        raise DomainError(f"class has rank {len(hnf)}, not d={d}")
    if not all(len(row) == d for row in hnf) or not all(
        (0 < v == p ** valuation(v, p)) if r == c else (0 <= v < hnf[c][c]) if r < c else v == 0
        for r, row in enumerate(hnf)
        for c, v in enumerate(row)
    ):
        raise DomainError(f"hnf {hnf} is not a Hermite form over powers of {p}; use LatticeClass.from_matrix")
    return list(_classes(hermite.neighbour_forms(np.array([hnf], dtype=object), p, cls.det_exponent() + 1), p))


@dataclass(frozen=True, eq=False)
class ClassTable:
    """The classes within distance k of the base, one sorted key array per k.

    shells[k] holds the `hermite.form_keys` of the primitive HNFs at
    distance k, at key width `bits`.  Iterating yields (class, distance)
    pairs sorted by distance then representative, because the keys order
    like the hnf tuples; each `LatticeClass` is built on access, one block
    of `_BLOCK` keys at a time, by `hermite.key_forms` and `_classes`.
    """

    params: BuildingParams
    bits: int
    shells: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return sum(self.shell_sizes)

    @property
    def shell_sizes(self) -> tuple[int, ...]:
        return tuple(len(keys) for keys in self.shells)

    def __iter__(self) -> Iterator[tuple[LatticeClass, int]]:
        from . import hermite  # here, so `import heightcount` skips compiling it

        d, p = self.params.d, self.params.p
        for k, keys in enumerate(self.shells):
            for i in range(0, len(keys), _BLOCK):
                forms = hermite.key_forms(keys[i : i + _BLOCK], d, self.bits)
                yield from zip(_classes(forms, p), repeat(k))


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct keys, for int64 and object arrays alike, as
    numpy's `unique` gives them; `unique`, and `isin`, which may call it,
    would import numpy.ma."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _absent(keys: np.ndarray, known: np.ndarray) -> np.ndarray:
    """The keys not in known, which must be sorted."""
    at = np.searchsorted(known, keys)
    hit = at < known.size
    hit[hit] = known[at[hit]] == keys[hit]
    return keys[~hit]


def enumerate_classes(
    params: BuildingParams, k_max: int, max_classes: int | None = None
) -> ClassTable:
    """Breadth-first enumeration of all classes within distance k_max.

    Returns a `ClassTable` of the sorted keys of each shell; it builds no
    `LatticeClass` until it is iterated, by distance then representative.  The
    neighbour-count bound `_class_bound` is checked against the budget
    before any work happens.  It equals the true count at d = 2 and is
    above it elsewhere (4226 against 1916 classes at d = 4, p = 2, k = 2),
    where the closed-form `ball_size` may fall below it.

    Shell k is found from shell k - 1 by `hermite.neighbour_forms` with
    q = p^k: the classes of shell k - 1 are primitive with largest
    elementary divisor p^(k - 1), so p^k Z^d lies in each of their
    neighbours.  The frontier is expanded in blocks of about `_BLOCK`
    products, so the batch arrays do not grow with the frontier.  Each
    form is packed into one integer key (`hermite.form_keys`; every entry
    is at most p^k_max), and keys are deduplicated by sorting; a neighbour
    of shell k - 1 lies in shell k - 2, k - 1 or k, so only those two
    shells are checked.
    """
    from . import hermite  # here, so `import heightcount` skips compiling it

    if k_max < 0:
        raise DomainError(f"need k_max >= 0, got {k_max}")
    check_budget("max_classes", _class_bound(params, k_max), max_classes)
    d, p = params.d, params.p
    bits = (p**k_max).bit_length()
    shells = [hermite.form_keys(np.array([base_class(params).hnf]), bits)]
    per = max(1, _BLOCK // len(hermite.subspace_products(d, p)))
    for k in range(1, k_max + 1):
        frontier = shells[-1]
        found = []
        for i in range(0, len(frontier), per):
            forms = hermite.neighbour_forms(hermite.key_forms(frontier[i : i + per], d, bits), p, k)
            found.append(_distinct(hermite.form_keys(forms, bits)))
        found = _distinct(np.concatenate(found))
        shells.append(_absent(found, np.sort(np.concatenate(shells[-2:]))))
    return ClassTable(params, bits, tuple(shells))
