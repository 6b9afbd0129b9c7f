"""Exact height counting in PGL_2(Q).

Every class has a unique representative: an integer matrix with entry gcd 1
and first nonzero entry (row-major) positive.  For such a matrix
h_fin = e = |det| (the largest elementary divisor) and
h_inf = r^(1/(2B)) with r = sigma_1/sigma_2.  Heights are evaluated in
closed form: sigma_1^2 is the larger root of t^2 - F t + det^2 with F the
squared Frobenius norm, so

    h = e * (sigma_1^2 / e)^(1/(2B)).

The ball is closed (h <= x); heights within 1e-9 of the threshold are
reported as ties so near-boundary decisions stay auditable.

Determinant shells.  F = sigma_1^2 + sigma_2^2 = e (r + 1/r) and r + 1/r
increases for r >= 1, so with t = (X/e)^(2B)

    h <= X  <=>  e <= X  and  F <= e (t + 1/t) =: F_cap(e).

The shells are taken at X = x_hi, just above both the closed-ball test
x (1 + 1e-12) + 1e-12 and the tie band x + 1e-9, with a relative margin of
1e-12 that covers the rounding of the float height.  Every matrix that
the float height puts inside the ball or in the tie band therefore lies
in a cell (e, F) with 1 <= e <= x_hi and 2e <= F <= F_cap(e) (F >= 2e as
sigma_1^2 + sigma_2^2 >= 2 sigma_1 sigma_2).

Representation numbers (the identity behind Duke, Rudnick and Sarnak's
count of integer matrices of given determinant, 1993).  The map
(a, b; c, d) -> (u, v, w, z) = (a + d, b - c, a - d, b + c) gives

    u^2 + v^2 = F + 2 det,    w^2 + z^2 = F - 2 det,

and it is a bijection from Z^4 onto the (u, v, w, z) with u = w and
v = z (mod 2), inverted by a = (u + w)/2, d = (u - w)/2, b = (v + z)/2,
c = (z - v)/2.  With det = e, F + 2e = F - 2e (mod 4).  For F even both
are even: two squares summing to 0 (mod 4) are both even and to 2 (mod 4)
both odd, so every pair of representations has the same parity pattern
and qualifies.  For F odd each representation has one odd and one even
entry, and the swap (w, z) -> (z, w) matches the representations of
F - 2e of either pattern, so exactly half the pairs qualify.  Hence

    Q(e, F) = #{M in Z^4 : det M = e, |M|^2 = F}
            = r_2(F + 2e) r_2(F - 2e),  halved when F is odd.

Negating a row maps det = e to det = -e, and exactly one of M, -M has a
positive first nonzero entry, so Q(e, F) is also the number of classes up
to sign with |det| = e, and the number of candidates of the cell.  A
matrix of content g has g^2 | e and g^2 | F, so by Moebius inversion the
primitive ones number

    P(e, F) = sum over g^2 | e, g^2 | F of mu(g) Q(e/g^2, F/g^2).

A candidate has nonzero det and a canonical sign, so its float decision
(`_decide`) depends only on (e, F), and

    count = sum P(e, F) inside(e, F),   tie_count = sum P(e, F) tie(e, F),
    candidates = sum Q(e, F),

over the cells of the shells.  `_census` evaluates the sums from one
table of r_2 (`_r2_table`): one pass per squarefree g with g^2 <= x_hi
over the cells (e', F') = (e/g^2, F/g^2), each weighted by
mu(g) Q(e', F') and decided by `_decide(g^2 e', g^2 F')`.  Each pass walks
its flat table (shell by shell, F ascending) in slices of `_BLOCK`
entries, and only cells of nonzero weight are decided.  Every decision is
the float function of the box search below, so count and tie_count equal
the box's whenever the box is exhaustive.  The work is about
x^2 log x cells at B = 1, against (2x + 1)^4 cells for the box.

Box search (test oracle).  Every class with h <= x has its canonical
entries in [-N, N]^4 when N >= entry_bound(x, B):

    sigma_1 sigma_2 = e and h = e * h_inf <= x give
    sigma_1^2 = e * (sigma_1/sigma_2) <= e * (x/e)^(2B), so every entry is
    at most max over integers 1 <= e <= x of sqrt(e^(1-2B) x^(2B)).

`_count_chunk` searches that box.  It is kept only as the test oracle of
the det-shell count, which verify's box-saturation check also calls.
`_decide` is the package's one height decision; the scalar height of a
single representative and the pure-Python box walk are test oracles in
tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, check_budget
from .primes import factorize

_TIE_TOL = 1e-9
_BALL_SLACK = 1e-12
# half-width in log x of the adelic ball sandwich of `compare_report`
_SANDWICH_EPS = 0.1
# cells of the (e, F) table, and values of the r_2 table, handled per
# slice; bounds memory.  At 2^13 a slice's int64 arrays are 64 KiB, below
# glibc's default 128 KiB mmap threshold, so they are reused from the heap;
# larger slices map and fault in fresh pages each time
_BLOCK = 1 << 13
# shell caps below this keep the r_2 table under 2^32 entries
_FCAP_LIMIT = 1 << 31


def entry_bound(x: float, B: float) -> int:
    """Box half-width N so that every class with h <= x has entries <= N."""
    if not (x >= 1):
        raise DomainError(f"need x >= 1, got {x}")
    if not (B > 0):
        raise DomainError(f"need B > 0, got {B}")
    best = 0.0
    for e in range(1, int(math.floor(x + 1e-9)) + 1):
        best = max(best, e ** (1.0 - 2.0 * B) * x ** (2.0 * B))
    return int(math.floor(math.sqrt(best) + 1e-9))


@dataclass(frozen=True)
class PiCountDetail:
    """Exact count with its search parameters and boundary diagnostics.

    entry_bound_used is the certified box half-width entry_bound(x, B);
    candidates is the number of det-shell candidates, the matrices with
    |det| = e, canonical first row and F <= F_cap(e) over all shells, before
    any height decision.  It is the sum of Q(e, F) over the cells of the
    shells: the count weighs each cell, it does not examine each matrix."""

    x: float
    B: float
    count: int
    tie_count: int
    entry_bound_used: int
    candidates: int


def _decide(adet: np.ndarray, frob: np.ndarray, x: float, B: float) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (inside, tie) masks of a matrix with |det| = adet and
    squared Frobenius norm frob (float arrays): its float height is <= x up
    to _BALL_SLACK, or within _TIE_TOL of x.  The package's one height
    decision, behind both `_classify` and the det-shell census."""
    sigma1_sq = (frob + np.sqrt(frob * frob - 4.0 * adet * adet)) / 2.0
    h = adet * (sigma1_sq / adet) ** (1.0 / (2.0 * B))
    return h <= x * (1.0 + _BALL_SLACK) + _BALL_SLACK, np.abs(h - x) <= _TIE_TOL


def _classify(a, b, c, d, x: float, B: float) -> tuple[int, int]:
    """(inside, ties) among the integer matrices (a, b, c, d), elementwise.

    A matrix is inside if it is nonsingular, canonically signed and
    primitive and `_decide` puts it inside; it is a tie if `_decide` says
    so.  The box oracle decides with this one definition."""
    det = a * d - b * c
    keep = det != 0
    # canonical sign: first nonzero of (a, b, c, d) positive
    first = np.where(a != 0, a, np.where(b != 0, b, np.where(c != 0, c, d)))
    keep &= first > 0
    keep &= np.gcd(np.gcd(np.abs(a), np.abs(b)), np.gcd(np.abs(c), np.abs(d))) == 1
    if not np.any(keep):
        return 0, 0
    adet = np.abs(det[keep]).astype(float)
    frob = (a * a + b * b + c * c + d * d)[keep].astype(float)
    inside, ties = _decide(adet, frob, x, B)
    return int(np.count_nonzero(inside)), int(np.count_nonzero(ties))


def shell_caps(x_hi: float, B: float) -> np.ndarray:
    """F_cap(e) = floor(e (t + 1/t)), t = (x_hi/e)^(2B), at index e - 1 for
    e = 1 .. floor(x_hi).

    t + 1/t is evaluated as 2 + 4 sinh^2(B log(x_hi/e)) with the 2e added
    in integers, so F = 2e (h = e) stays under the cap when x_hi/e is 1 up
    to rounding."""
    e = np.arange(1, int(math.floor(x_hi)) + 1, dtype=np.int64)
    s = np.sinh(B * np.log(x_hi / e))
    return 2 * e + np.floor(4.0 * e * s * s).astype(np.int64)


def candidate_bound(fcap: np.ndarray) -> int:
    """A-priori upper bound on the det-shell candidates under the caps fcap.

    On shell e with sign s, a first row g v (v canonical, g | e) with
    |g v|^2 < F_cap(e) gives a line of spacing |v| whose chord in the disk
    c^2 + d^2 <= F_cap(e) is at most 2 sqrt(F_cap(e)) long, so at most
    1 + 2 sqrt(F_cap(e)) / |v| candidates.  Over v with |v|^2 <= R,

        #v <= (pi (sqrt(R) + r)^2 - 1) / 2,  sum 1/|v| <= (1 + r) pi (sqrt(R) + r),

    with r = sqrt(2)/2: the unit square around each v lies in the disk of
    radius sqrt(R) + r, and 1/|v| <= (1 + r)/|u| for u in it when |v| >= 1.

    It also bounds the census work and memory.  Its g = 1 term alone
    exceeds pi F_cap(e) on each shell e, so it exceeds the
    sum of F_cap(e) - 2e + 1, the cells of the g = 1 pass of `_census`;
    the pass of each g > 1 has fewer cells, as (e', F') -> (g^2 e', g^2 F')
    maps them into the g = 1 cells.  It also exceeds the r_2 table length
    max (F_cap(e) + 2e) + 1, at most 2 max F_cap(e) + 1 as F_cap(e) >= 2e.
    """
    r = math.sqrt(0.5)
    total = 0.0
    for g in range(1, min(fcap.size, math.isqrt(int(fcap.max()))) + 1):
        cap = fcap[g - 1 :: g].astype(float)  # shells e = g, 2g, ...
        disk = np.sqrt(cap) / g + r
        lines = np.where(cap >= g * g, (math.pi * disk * disk - 1) / 2, 0.0)
        points = np.where(cap >= g * g, 2 * np.sqrt(cap) * (1 + r) * math.pi * disk, 0.0)
        total += 2 * float(np.sum(lines + points))
    return int(math.ceil(total))


def _isqrt(n: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(n)) of int64 n >= 0 below 2^52: the correctly
    rounded float root is never below it and at most 1 above."""
    s = np.sqrt(n.astype(float)).astype(np.int64)
    return s - (s * s > n)


def _r2_table(n_max: int) -> np.ndarray:
    """r_2(n) = #{(u, v) in Z^2 : u^2 + v^2 = n} for 0 <= n <= n_max, int32
    (r_2(n) <= 4 d(n)).

    Four times a bincount of u^2 + v^2 over the quadrant u >= 1, v >= 0,
    one window of `_BLOCK` values of n at a time: row u holds the v with
    lo <= u^2 + v^2 < hi, so no window allocates more than its own
    counts."""
    r2 = np.zeros(n_max + 1, dtype=np.int32)
    for lo in range(1, n_max + 1, _BLOCK):
        hi = min(lo + _BLOCK, n_max + 1)
        u = np.arange(1, math.isqrt(hi - 1) + 1, dtype=np.int64)
        u2 = u * u
        v_lo = np.where(u2 < lo, _isqrt(np.maximum(lo - 1 - u2, 0)) + 1, 0)
        count = np.maximum(_isqrt(hi - 1 - u2) - v_lo + 1, 0)
        row = np.repeat(np.arange(u.size), count)
        v = v_lo[row] + np.arange(row.size) - (np.cumsum(count) - count)[row]
        r2[lo:hi] = np.bincount(u2[row] + v * v - lo, minlength=hi - lo)
    r2 *= 4
    r2[0] = 1
    return r2


def _q(r2: np.ndarray, e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Q(e, F) = r_2(F + 2e) r_2(F - 2e), halved when F is odd, elementwise
    for int64 2e <= F within the table r2."""
    return r2[f + 2 * e].astype(np.int64) * r2[f - 2 * e] >> (f & 1)


def _mobius(g: int) -> int:
    """The Moebius function mu(g), by trial division."""
    exponents = [k for _, k in factorize(g)]
    return 0 if any(k > 1 for k in exponents) else (-1) ** len(exponents)


def _census(fcap: np.ndarray, x: float, B: float) -> tuple[int, int, int]:
    """(count, ties, candidates) under the shell caps fcap: the sums of P,
    and of Q, over the cells 2e <= F <= F_cap(e), by one pass per
    squarefree g (module docstring).

    Pass g walks the cells (e', F'), e' <= len(fcap)/g^2 and
    2e' <= F' <= F_cap(g^2 e')/g^2, flattened shell by shell with F'
    ascending, in slices of `_BLOCK` cells."""
    e_all = np.arange(1, fcap.size + 1, dtype=np.int64)
    r2 = _r2_table(int((fcap + 2 * e_all).max()))
    count = ties = candidates = 0
    for g in range(1, math.isqrt(fcap.size) + 1):
        mu = _mobius(g)
        if mu == 0:
            continue
        g2 = g * g
        e = e_all[: fcap.size // g2]
        size = fcap[g2 - 1 :: g2] // g2 - 2 * e + 1
        end = np.cumsum(size)
        start = end - size
        shift = 2 * e - start  # F' = flat index + shift[e' - 1]
        for s in range(0, int(end[-1]), _BLOCK):
            stop = min(s + _BLOCK, int(end[-1]))
            # shells lo .. hi meet the slice, each in one run of consecutive cells
            lo, hi = np.searchsorted(end, [s, stop - 1], side="right")
            run = np.minimum(end[lo : hi + 1], stop) - np.maximum(start[lo : hi + 1], s)
            owner = np.repeat(np.arange(lo, hi + 1), run)
            ep, f = e[owner], np.arange(s, stop, dtype=np.int64) + shift[owner]
            q = _q(r2, ep, f)
            if g == 1:
                candidates += int(q.sum())
            hit = np.flatnonzero(q)
            q = q[hit]
            inside, tie = _decide((g2 * ep[hit]).astype(float), (g2 * f[hit]).astype(float), x, B)
            count += mu * int(q[inside].sum())
            ties += mu * int(q[tie].sum())
    return count, ties, candidates


def _axis_values(bound: int) -> np.ndarray:
    return np.arange(-bound, bound + 1, dtype=np.int64)


def _count_chunk(a_values: np.ndarray, bound: int, x: float, B: float) -> tuple[int, int]:
    """Box search, kept as the test oracle of the det-shell count:
    (inside, ties) over the cells of [-bound, bound]^4 whose entry a lies
    in a_values."""
    v = _axis_values(bound)
    a, b, c, d = np.meshgrid(a_values, v, v, v, indexing="ij")
    return _classify(*(t.reshape(-1) for t in (a, b, c, d)), x, B)


def _x_hi(x: float) -> float:
    """Shell radius above both the ball test and the tie band, with a
    relative margin of _BALL_SLACK for the rounding of the float height."""
    return (x + _TIE_TOL) * (1.0 + _BALL_SLACK) + _BALL_SLACK


def pi_count_detail(x: float, B: float, max_cells: int | None = None) -> PiCountDetail:
    """Exact closed-ball count #{h <= x} by determinant shells.

    max_cells (default HEIGHTCOUNT_MAX_CELLS) bounds the a-priori estimate
    `candidate_bound` of the candidates, which also bounds the cells of
    every pass of `_census` and the length of its r_2 table.
    """
    if not (x >= 0):
        raise DomainError(f"need x >= 0, got {x}")
    if not (B > 0):
        raise DomainError(f"need B > 0, got {B}")
    if x < 1:
        return PiCountDetail(x, B, 0, 0, 0, 0)
    fcap = shell_caps(_x_hi(x), B)
    check_budget("det-shell candidates", candidate_bound(fcap), max_cells, "max_cells")
    if int(fcap.max()) >= _FCAP_LIMIT:
        raise BudgetError(f"shell cap {int(fcap.max())} exceeds the r_2 table limit {_FCAP_LIMIT}")
    count, ties, candidates = _census(fcap, x, B)
    return PiCountDetail(x, B, count, ties, entry_bound(x, B), candidates)


def pi_count(x: float, B: float, max_cells: int | None = None) -> int:
    """Exact number of PGL_2(Q) classes with global height <= x."""
    return pi_count_detail(x, B, max_cells=max_cells).count


@dataclass(frozen=True)
class CountReport:
    """pi(x) on a grid against the theorem's main term and the ball sandwich."""

    x_grid: tuple[float, ...]
    pi_values: tuple[int, ...]
    predicted_low_exponent: tuple[float, ...]
    predicted_high_exponent: tuple[float, ...]
    lower_sandwich: tuple[float, ...]
    upper_sandwich: tuple[float, ...]
    entry_bound_used: int
    tie_counts: tuple[int, ...]
    sandwich_eps: float
    slack: float


def _mainterm_integral(growth: float) -> float:
    """integral_0^inf e^(-2t) b_inf(t) dt for the d = 2 ball volume
    b_inf(t) = (cosh(growth t) - 1)/2, with radial growth rate `growth`
    (either B or 2B): g^2 / (4 (4 - g^2)) for g < 2, infinite for g >= 2."""
    if growth >= 2.0:
        return math.inf
    return growth * growth / (4.0 * (4.0 - growth * growth))


def compare_report(
    x_grid,
    B: float,
    covolume: float = 1.0,
    max_cells: int | None = None,
    max_sieve: int | None = None,
) -> CountReport:
    """Exact pi(x) against (30/pi^2) * I * x^2 / covolume and the adelic
    ball sandwich b(log x -+ eps)/covolume, eps = _SANDWICH_EPS.

    I = integral e^(-2t) b_inf(t) dt is taken in closed form under both
    radial growth conventions (e^(B t), labeled low, and e^(2 B t), labeled
    high).  It is infinite exactly when the growth rate reaches 2, so the
    high one is infinite exactly when 2B >= 2 and the low one is finite
    throughout 0 < B < 2.  The sandwich columns are asymptotic envelopes,
    so the report states the measured slack max(lower/pi, pi/upper)
    instead of asserting pointwise bounds.  A sandwich side whose radius
    log x -+ eps is not positive is 0, the volume of an empty ball, so
    every x > 0 is accepted.
    """
    from .adelic import adelic_volume_callable

    grid = [float(t) for t in x_grid]
    if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("x_grid must be nonempty and strictly increasing")
    if not (grid[0] > 0):
        raise DomainError(f"need x > 0, got {grid[0]}")
    if not (0 < B < 2):
        raise DomainError(f"the d = 2 counting regime needs 0 < B < 2, got {B}")
    if not (covolume > 0):
        raise DomainError(f"need covolume > 0, got {covolume}")
    coeff = 30.0 / math.pi**2
    i_low = _mainterm_integral(B)
    i_high = _mainterm_integral(2.0 * B)
    eps = _SANDWICH_EPS
    b_adelic = adelic_volume_callable(2, B, max(math.log(grid[-1]), 0.0) + eps + 1e-9, max_sieve)
    pis, ties, low, high, lo_s, hi_s = [], [], [], [], [], []
    bound_used = 0
    for x in grid:
        detail = pi_count_detail(x, B, max_cells=max_cells)
        pis.append(detail.count)
        ties.append(detail.tie_count)
        bound_used = max(bound_used, detail.entry_bound_used)
        low.append(coeff * i_low * x**2 / covolume)
        high.append(coeff * i_high * x**2 / covolume)
        t = math.log(x)
        lo_s.append(b_adelic(t - eps) / covolume if t - eps > 0 else 0.0)
        hi_s.append(b_adelic(t + eps) / covolume if t + eps > 0 else 0.0)
    ratios = [s / p for s, p in zip(lo_s, pis) if p > 0] + [
        p / s for s, p in zip(hi_s, pis) if s > 0
    ]
    slack = max(ratios) if ratios else math.inf
    return CountReport(
        x_grid=tuple(grid),
        pi_values=tuple(pis),
        predicted_low_exponent=tuple(low),
        predicted_high_exponent=tuple(high),
        lower_sandwich=tuple(lo_s),
        upper_sandwich=tuple(hi_s),
        entry_bound_used=bound_used,
        tie_counts=tuple(ties),
        sandwich_eps=eps,
        slack=slack,
    )
