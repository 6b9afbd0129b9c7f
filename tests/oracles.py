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
- `hnf_rows`, `_primitive_rescale`: the row Hermite form by integer
  Euclid and its division by the p-part of the content, against
  `hermite.hermite_form`, the modular elimination behind
  `LatticeClass.from_matrix`.
- `reduce_by_full_gcd`: the reduction of a block of triangular bases
  with the gcd taken over every basis, against `hermite._reduce`, which
  takes it only where no diagonal entry is 1.
- `neighbors_by_hnf`, `enumerate_by_hnf`: neighbours by one integer
  Hermite form per subspace, and breadth-first search over them, against
  the triangular kernel `hermite.neighbour_forms` behind `neighbors` and
  `enumerate_classes`.
- `primes_by_scan`: the byte sieve read out one index at a time, against
  `primes_up_to`.
- `euler_product_by_prime`: the Euler product of L(s) one scalar complex
  factor at a time, against the array factors of `L_euler`, bit for bit.
- `volume_by_brion`: the radial ball volume as the signed Weyl sum of
  exponential integrals over the simplex, each a divided difference of
  exp in mpmath, against the power series of `ball_volume_numeric`.
- `series_by_exact_stop`: that power series stopped by the exact integer
  comparison at every term, against `archimedean._series`, whose float
  logs decide all but the close calls, term for term.
- `psi_by_sieve`, `adelic_volume_d2`: Dedekind psi by its own sieve, and
  the exact d = 2 adelic ball volume as a term-by-term sum of
  psi(m) sinh^2(B (T - log m)) in mpmath, against the prefix-sum b(T) of
  `adelic_volume_callable`.
- `prefix_sums_by_blocks`, `d2_volume_by_full_prefix_sums`: every
  blocked prefix sum as one full-length array, and the d = 2 b(T) built
  on three such arrays, against the block totals and per-call partial
  block of `adelic._blocked_sums`, bit for bit.
- `entry_bound_by_scan`: the box half-width as the maximum over every
  1 <= e <= x, against the two-endpoint `entry_bound`.
- `census_cells_by_loop`: the (e, F) cells of the census counted one at a
  time over squarefree g, e' and F', against the exact budget count of
  `counting._census`.
- `_GroupElementQ`, `_enumerate_elements`: the canonical representative
  of one PGL_2(Q) class with its scalar height, and the pure-Python walk
  of the entry box, against the array predicate `counting._classify` and
  the det-shell count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, permutations, product

import numpy as np

from heightcount import BuildingParams, DomainError, LatticeClass, base_class, zeta_em
from heightcount.archimedean import _weyl_rates
from heightcount.building import shell_count, shell_ratio
from heightcount.errors import check_budget
from heightcount.hermite import subspace_bases
from heightcount.intmat import Mat, content, det_int, valuation
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


def hnf_rows(mat: Mat) -> Mat:
    """Row-style Hermite normal form.

    The input rows span a lattice of full column rank d; the result is the
    unique upper triangular basis with positive diagonal and the entries
    above each pivot reduced modulo the diagonal entry of their column.
    Zero rows (from redundant generators) are dropped.
    """
    rows = [list(r) for r in mat]
    n = len(rows)
    d = len(rows[0])
    top = 0
    for col in range(d):
        piv = next((i for i in range(top, n) if rows[i][col] != 0), None)
        if piv is None:
            raise DomainError("rows do not span a full-rank lattice")
        rows[top], rows[piv] = rows[piv], rows[top]
        for i in range(top + 1, n):
            # Euclid on the column entries, swapping to keep the smaller on top.
            while rows[i][col] != 0:
                q = rows[top][col] // rows[i][col]
                rows[top] = [x - q * y for x, y in zip(rows[top], rows[i])]
                rows[top], rows[i] = rows[i], rows[top]
        if rows[top][col] < 0:
            rows[top] = [-x for x in rows[top]]
        for i in range(top):
            q = rows[i][col] // rows[top][col]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[top])]
        top += 1
    return tuple(tuple(r) for r in rows[:top])


def _primitive_rescale(h: Mat, p: int) -> Mat:
    t = min(valuation(x, p) for row in h for x in row if x != 0)
    if t == 0:
        return h
    q = p**t
    return tuple(tuple(x // q for x in row) for row in h)


def reduce_by_full_gcd(h: np.ndarray, q: int) -> np.ndarray:
    """`hermite._reduce` with the content divided out of every basis of the
    block, over all d^2 entries, whatever its diagonal."""
    d = len(h)
    for j in range(1, d):
        t = h[:j, j] // h[j, j]
        h[:j, j:] -= t[:, None] * h[j, j:]
        h[:j, j + 1 :] %= q
    h //= np.gcd.reduce(h.reshape(d * d, -1), axis=0)
    return h.transpose(2, 0, 1)


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


def _mp(x: Fraction):
    import mpmath

    return mpmath.mpf(x.numerator) / x.denominator


def _exp_divided_difference(z: list[Fraction]):
    """exp[z_0, ..., z_n] at sorted exact points; a run of equal points is
    confluent and takes exp^(m)(z) / m! = exp(z) / m!."""
    import mpmath

    table = [mpmath.exp(_mp(x)) for x in z]
    for m in range(1, len(z)):
        table = [
            (table[i + 1] - table[i]) / _mp(z[i + m] - z[i])
            if z[i + m] != z[i]
            else mpmath.exp(_mp(z[i])) / mpmath.factorial(m)
            for i in range(len(z) - m)
        ]
    return table[0]


def volume_by_brion(d: int, B: float, R: float) -> float:
    """b_inf(R) as a signed sum of exponential integrals over a simplex.

    prod_{i<j} sinh(X_i - X_j) = 2^(-N) sum_{w in S_d} sgn(w) exp(<l_w, X>),
    l_w = (d + 1 - 2 w(i))_i.  On the cone X = sum_k t_k w_k the exponent is
    <c_w, t>, and the integral of exp(<c, t>) over {t >= 0, sum t <= s} is
    s^r exp[0, s c_1, ..., s c_r] (Hermite-Genocchi; Brion 1988).  The
    rates c and s = B R are exact rationals, the divided differences and
    the Jacobian of t -> X (with the lam^(r/2) normalisation) run in mpmath
    at 80 digits, which absorbs the cancellation of the signed sum.
    """
    import mpmath

    r, n_pairs = d - 1, d * (d - 1) // 2
    s = Fraction(B) * Fraction(R)
    coweights = [
        [(Fraction(int(i < k)) - Fraction(k, d)) / Fraction(k * (d - k), 2) for i in range(d)]
        for k in range(1, d)
    ]
    lam = sum(Fraction(d + 1 - 2 * i, 2) ** 2 for i in range(1, d + 1))
    gram = [[sum(a * b for a, b in zip(u, v)) for v in coweights] for u in coweights]
    with mpmath.workdps(80):
        total = mpmath.mpf(0)
        for w in permutations(range(1, d + 1)):
            ell = [d + 1 - 2 * v for v in w]
            rates = [sum(a * b for a, b in zip(ell, row)) for row in coweights]
            sign = (-1) ** sum(a > b for a, b in combinations(w, 2))
            total += sign * _exp_divided_difference(sorted([Fraction(0)] + [s * c for c in rates]))
        det = mpmath.det(mpmath.matrix([[_mp(x) for x in row] for row in gram]))
        jac = mpmath.sqrt(_mp(lam)) ** r * mpmath.sqrt(det)
        return float(jac * _mp(s) ** r * total / 2**n_pairs)


def series_by_exact_stop(d: int, B: float, R: float) -> tuple[list[float], float]:
    """The ball-volume series of `archimedean._series`, stopped by the exact
    integer comparison alone, at every term past 2s - 2.

    Same terms and the same stopping rule: stop at the first J with
    J + 2 > 2s where beta_(J+1) / (1 - 2s / (J + 2)) is at most 2^-60 of
    the partial sum, with every denominator cleared.
    """
    r, (L, groups) = d - 1, _weyl_rates(d)
    (pb, qb), (pr, qr) = float(B).as_integer_ratio(), float(R).as_integer_ratio()
    P, Q = pb * pr, qb * qr
    rows = [[1] * d for _ in groups]
    power, denom = P**r, 2 ** (d * r // 2) * math.factorial(r) * Q**r
    terms, total = [], 0
    for j in count():
        a_j = sum(sign * row[r] for (_, sign), row in zip(groups, rows))
        terms.append(a_j * power / denom)
        total += a_j * power
        if (j + 2) * Q > 2 * P:
            beta_den = Q ** (j + 1 + r) * math.factorial(j + 1) * math.factorial(r - 1) * (j + 1 + r)
            bound = 2 ** (j + 61) * P * power * denom * (j + 2) * Q
            if bound <= total * ((j + 2) * Q - 2 * P) * beta_den:
                break
        step = L * (j + 1 + r) * Q
        power, denom, total = power * P, denom * step, total * step
        for (rates, _), row in zip(groups, rows):
            row[0] = 0
            for k in range(1, d):
                row[k] = row[k - 1] + rates[k - 1] * row[k]
    return terms, total / denom


def psi_by_sieve(n: int) -> np.ndarray:
    """Dedekind psi(m) = m prod_{p | m} (1 + 1/p) for 0 <= m <= n, one
    prime at a time: psi[m] / p * (p + 1) on the multiples of p."""
    psi = np.arange(n + 1, dtype=np.int64)
    for p in primes_up_to(n):
        psi[p::p] = psi[p::p] // p * (p + 1)
    return psi


def adelic_volume_d2(B: float, T: float) -> float:
    """Exact d = 2 b(T) = sum_{m <= e^T} psi(m) sinh^2(B (T - log m)), term
    by term, against `adelic_volume_callable(2, B, .)`.

    B and T are taken exactly as the floats they are.  Each term runs in
    mpmath at 40 digits.  When 2B is an integer the terms are summed in
    integers instead, which makes the half a million terms at T = 13.1
    cheap: with q = m^(2B) exact and E = e^(2BT) from mpmath,
    sinh^2 = (E/q + q/E - 2)/4, and E/q, q/E are floored at 2^-128, so
    each term is within psi(m) 2^-127 of its value.
    """
    import mpmath

    n = int(mpmath.floor(mpmath.exp(mpmath.mpf(T))))
    psi = psi_by_sieve(n).tolist()
    if float(2 * B).is_integer():
        two_b, scale, wide = int(2 * B), 128, 1200
        with mpmath.workprec(2 * wide):
            grow = mpmath.exp(2 * mpmath.mpf(B) * mpmath.mpf(T))
            big = int(mpmath.floor(grow * 2**scale))
            small = int(mpmath.floor(2 ** (scale + wide) / grow))
        total = 0
        for m in range(1, n + 1):
            q = m**two_b
            total += psi[m] * (big // q + (q * small >> wide) - 2 ** (scale + 1))
        return float(mpmath.mpf(total) / 2 ** (scale + 2))
    with mpmath.workdps(40):
        B_, T_ = mpmath.mpf(B), mpmath.mpf(T)
        return float(mpmath.fsum(psi[m] * mpmath.sinh(B_ * (T_ - mpmath.log(m))) ** 2 for m in range(1, n + 1)))


def prefix_sums_by_blocks(terms: np.ndarray, block: int = 1 << 10) -> np.ndarray:
    """Every S[j] = terms[0] + ... + terms[j] as `adelic._blocked_sums`
    defines it, in full-length arrays: each block of `block` terms summed
    left to right by one cumsum over all blocks, plus the left-to-right
    sum of the earlier blocks' totals."""
    n = terms.size
    inner = np.zeros((-(-n // block), block))
    inner.ravel()[:n] = terms
    np.cumsum(inner, axis=1, out=inner)
    before = np.zeros(len(inner))
    np.cumsum(inner[:-1, -1], out=before[1:])
    inner += before[:, None]
    return inner.ravel()[:n]


def d2_volume_by_full_prefix_sums(B: float, T_max: float):
    """The d = 2 b(T) on (0, T_max] of `adelic._d2_volume`, with its three
    prefix sums held as full-length `prefix_sums_by_blocks` arrays and its
    terms formed by the same in-place numpy steps over the whole sieve."""
    n = int(math.exp(T_max) * (1 + 1e-12))
    weights = psi_by_sieve(n)[1:]
    logs = np.log(np.arange(1, n + 1, dtype=float))

    def sums(beta: float, scale: float) -> np.ndarray:
        terms = np.arange(1, n + 1, dtype=float)
        terms **= beta
        terms *= scale
        terms *= weights
        return prefix_sums_by_blocks(terms)

    s_zero = prefix_sums_by_blocks(weights.astype(float))
    s_minus = sums(-2.0 * B, 1.0)
    s_plus = sums(2.0 * B, 2.0**-200)
    near = 0.1 / B

    def b(T: float) -> float:
        end = int(np.searchsorted(logs, T, side="right"))
        k = int(np.searchsorted(logs, T - near, side="right"))
        far = 0.0
        if k:
            grow = 0.25 * math.exp(2.0 * B * T)
            decay = 0.25 * math.ldexp(math.exp(-2.0 * B * T), 200)
            far = grow * float(s_minus[k - 1]) + decay * float(s_plus[k - 1]) - 0.5 * float(s_zero[k - 1])
        return far + float(np.sum(weights[k:end] * np.sinh(B * (T - logs[k:end])) ** 2))

    return b


def entry_bound_by_scan(x: float, B: float) -> int:
    """`counting.entry_bound` by the maximum over every 1 <= e <= x."""
    best = 0.0
    for e in range(1, int(math.floor(x + 1e-9)) + 1):
        best = max(best, e ** (1.0 - 2.0 * B) * x ** (2.0 * B))
    return int(math.floor(math.sqrt(best) + 1e-9))


def census_cells_by_loop(fcap) -> int:
    """The cells 2e' <= F' <= F_cap(g^2 e') // g^2 of every squarefree g and
    1 <= e' <= len(fcap) // g^2, counted one by one."""
    cells = 0
    for g in range(1, math.isqrt(len(fcap)) + 1):
        if any(g % (p * p) == 0 for p in range(2, g + 1)):
            continue
        for e in range(1, len(fcap) // (g * g) + 1):
            for _ in range(2 * e, int(fcap[g * g * e - 1]) // (g * g) + 1):
                cells += 1
    return cells


@dataclass(frozen=True)
class _GroupElementQ:
    """Canonical representative of a PGL_2(Q) class: primitive integer
    entries (a, b, c, d) with the first nonzero entry positive."""

    entries: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        a, b, c, d = self.entries
        if a * d - b * c == 0:
            raise DomainError(f"singular representative {self.entries}")
        if math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d))) != 1:
            raise DomainError(f"non-primitive representative {self.entries}")
        first = next(v for v in self.entries if v != 0)
        if first < 0:
            raise DomainError(f"sign not canonical in {self.entries}")

    @classmethod
    def from_matrix(cls, mat) -> "_GroupElementQ":
        flat = [int(v) for row in mat for v in row]
        if len(flat) != 4:
            raise DomainError("need a 2x2 matrix")
        g = math.gcd(math.gcd(abs(flat[0]), abs(flat[1])), math.gcd(abs(flat[2]), abs(flat[3])))
        if g == 0:
            raise DomainError("zero matrix")
        flat = [v // g for v in flat]
        first = next(v for v in flat if v != 0)
        if first < 0:
            flat = [-v for v in flat]
        return cls(tuple(flat))

    @property
    def det(self) -> int:
        a, b, c, d = self.entries
        return a * d - b * c

    def height(self, B: float) -> float:
        a, b, c, d = self.entries
        det = abs(a * d - b * c)
        frob = a * a + b * b + c * c + d * d
        sigma1_sq = (frob + math.sqrt(frob * frob - 4 * det * det)) / 2.0
        return det * (sigma1_sq / det) ** (1.0 / (2.0 * B))


def _enumerate_elements(bound: int, max_cells: int | None = None):
    """Yield every canonical representative with entries in [-bound, bound],
    in lexicographic order of (a, b, c, d).  Pure-Python box oracle of
    the tests."""
    if bound < 1:
        raise DomainError(f"need bound >= 1, got {bound}")
    check_budget("max_cells", (2 * bound + 1) ** 4, max_cells)
    rng = range(-bound, bound + 1)
    for a in rng:
        for b in rng:
            for c in rng:
                for d in rng:
                    if a * d - b * c == 0:
                        continue
                    first = next(v for v in (a, b, c, d) if v != 0)
                    if first < 0:
                        continue
                    if math.gcd(math.gcd(abs(a), abs(b)), math.gcd(abs(c), abs(d))) != 1:
                        continue
                    yield _GroupElementQ((a, b, c, d))
