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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .errors import DomainError, check_budget, default_budgets
from .intmat import (
    Mat,
    as_mat,
    det_int,
    elementary_divisors,
    hnf_rows,
    scale,
    valuation,
)
from .primes import is_prime


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
    int64 array wraps only where D(p) itself does.
    """
    h = p + 1
    for _ in range(d - 2):
        h = h * p + 1
    return (d - 1) * h


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


@dataclass(frozen=True)
class LatticeClass:
    """Homothety class of Z_p-lattices, keyed by its primitive HNF."""

    p: int
    hnf: Mat

    @staticmethod
    def from_matrix(mat, p: int) -> "LatticeClass":
        """Class of the Z_p-row-span of an arbitrary nonsingular integer matrix.

        Prime-to-p structure is discarded by adjoining p^e Z^d for e the
        p-valuation of the determinant; the result is rescaled to content
        coprime to p.
        """
        m = as_mat(mat)
        d = len(m)
        if len(m[0]) != d:
            raise DomainError("need a square matrix")
        det = det_int(m)
        if det == 0:
            raise DomainError("need a nonsingular matrix")
        if not is_prime(p):
            raise DomainError(f"p must be prime, got p={p}")
        q = p ** valuation(det, p)
        ident = tuple(
            tuple(q if i == j else 0 for j in range(d)) for i in range(d)
        )
        h = hnf_rows(m + ident)
        return LatticeClass(p, _primitive_rescale(h, p))

    def det_exponent(self) -> int:
        return valuation(det_int(self.hnf), self.p)

    def divisor_exponents(self) -> tuple[int, ...]:
        return snf_exponents(self.hnf, self.p)


def _primitive_rescale(h: Mat, p: int) -> Mat:
    t = min(valuation(x, p) for row in h for x in row if x != 0)
    if t == 0:
        return h
    q = p**t
    return tuple(tuple(x // q for x in row) for row in h)


def base_class(params: BuildingParams) -> LatticeClass:
    ident = tuple(
        tuple(1 if i == j else 0 for j in range(params.d)) for i in range(params.d)
    )
    return LatticeClass(params.p, ident)


def _subspace_bases(d: int, j: int, p: int):
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


def neighbors(cls: LatticeClass, d: int) -> list[LatticeClass]:
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
        for basis in _subspace_bases(d, j, p):
            lifts = tuple(
                tuple(sum(c * h[k][col] for k, c in enumerate(row)) for col in range(d))
                for row in basis
            )
            stacked = hnf_rows(ph + lifts)
            out.append(LatticeClass(p, _primitive_rescale(stacked, p)))
    return out


def enumerate_classes(
    params: BuildingParams, k_max: int, max_classes: int | None = None
) -> list[tuple[LatticeClass, int]]:
    """Breadth-first enumeration of all classes within distance k_max.

    Returns (class, distance) pairs sorted by distance then representative,
    so output order is deterministic.  The neighbour-count bound
    `_class_bound` is checked against the budget before any work happens.
    It equals the true count at d = 2 and is above it elsewhere (4226
    against 1916 classes at d = 4, p = 2, k = 2), unlike the closed-form
    `ball_size`, which falls below the true count at d >= 4.
    """
    if k_max < 0:
        raise DomainError(f"need k_max >= 0, got {k_max}")
    limit = max_classes if max_classes is not None else default_budgets().max_classes
    check_budget("lattice class", _class_bound(params, k_max), limit)
    base = base_class(params)
    dist: dict[LatticeClass, int] = {base: 0}
    frontier = [base]
    for k in range(1, k_max + 1):
        new: list[LatticeClass] = []
        for v in frontier:
            for w in neighbors(v, params.d):
                if w not in dist:
                    dist[w] = k
                    new.append(w)
        frontier = new
    return sorted(dist.items(), key=lambda item: (item[1], item[0].hnf))


def class_records(params: BuildingParams, k_max: int, max_classes: int | None = None):
    """JSON-ready dicts for every class within distance k_max."""
    for cls, dist in enumerate_classes(params, k_max, max_classes):
        yield {
            "hnf": [list(row) for row in cls.hnf],
            "distance": dist,
            "divisor_exponents": list(cls.divisor_exponents()),
        }
