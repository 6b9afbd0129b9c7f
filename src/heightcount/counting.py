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
table of r_2 (`_r2_table`) in one flat pass over all contents: the rows
(g, e') of every squarefree g with g^2 <= x_hi, g = 1 first, each carry
g^2 and mu(g), and their cells (e', F') = (e/g^2, F/g^2) are weighted by
mu(g) Q(e', F') and decided at (g^2 e', g^2 F').  The pass walks the one
flat sequence of cells (row by row, F' ascending) in slices of `_BLOCK`
entries, only cells of nonzero weight are decided, and Q is added to the
candidates on the g = 1 rows only.  Every decision is the float function
of the box search below, so count and tie_count equal the box's whenever
the box is exhaustive.  The work is about x^2 log x cells at B = 1,
against (2x + 1)^4 cells for the box.

One census per grid.  The float height h(e, F) (`_height`) does not
depend on x, and the shells of the largest x of a grid hold the cells of
every smaller x, so one pass serves a whole strictly increasing grid.  Its
last point is decided by `_decide`; at every other x_i a cell is inside
when h <= x_i (1 + 1e-12) + 1e-12, which one `searchsorted` of h into
those thresholds bins, with exact int64 cumulative sums of P over the
bins.  It is a tie at x_i when |fl(h - x_i)| <= 1e-9, the predicate of
`_decide`; for h >= 1 every such x_i lies in [fl(h - 2e-9), fl(h + 2e-9)]
(h - x_i is exact by Sterbenz's lemma when it could be that small), so
the predicate is applied to the few (cell, x_i) pairs found there, also
when grid points lie closer together than 2e-9.  `pi_count_detail` is the
census of the one-point grid [x].

Work limits.  A grid's census walks the cells of its largest x, so the
limits are checked once per grid, there.  max_cells bounds the cells
walked, exactly: their count `end[-1]` is read from the row arrays of the
walk before the r_2 table is built.  Caps of _FCAP_LIMIT or more are
refused before their int64 cast.  Before any O(x) array, F_cap(1) is
checked against that limit and the lower bound floor(x_hi) + F_cap(1) - 2
on the cells (a cell on every g = 1 row, F = 2 .. F_cap(1) on e = 1)
against max_cells; an error from it names that bound.  At small B it
misses huge x: at (5e8, 0.1) about eight arrays of 1.64 floor(x) rows are
built before the exact count refuses.

Box search (test oracle).  Every class with h <= x has its canonical
entries in [-N, N]^4 when N >= entry_bound(x, B):

    sigma_1 sigma_2 = e and h = e * h_inf <= x give
    sigma_1^2 = e * (sigma_1/sigma_2) <= e * (x/e)^(2B), so every entry is
    at most max over integers 1 <= e <= x of sqrt(e^(1-2B) x^(2B)).

As e^(1-2B) is monotone in e, that maximum sits at e = 1 or e = floor(x).
`_count_chunk` searches that box.  It is kept only as the test oracle of
the det-shell count, which verify's box-saturation check also calls.
`_height` is the package's one height function and `_decide` its one
decision at a single x; the scalar height of a single representative and
the pure-Python box walk are test oracles in tests/oracles.py.
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
    if x == math.inf:
        raise DomainError(f"need a finite x, got {x}")
    if not (B > 0):
        raise DomainError(f"need B > 0, got {B}")
    # the maximum over 1 <= e <= x is at an end (module docstring)
    best = max(e ** (1.0 - 2.0 * B) * x ** (2.0 * B) for e in (1, int(math.floor(x + 1e-9))))
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


def _height(adet: np.ndarray, frob: np.ndarray, B: float) -> np.ndarray:
    """Float height of a matrix with |det| = adet and squared Frobenius norm
    frob (float arrays), elementwise: the package's one height function,
    behind `_decide` and the grid binning of `_census`."""
    sigma1_sq = (frob + np.sqrt(frob * frob - 4.0 * adet * adet)) / 2.0
    return adet * (sigma1_sq / adet) ** (1.0 / (2.0 * B))


def _ball_edge(x):
    """The closed-ball test h <= x up to _BALL_SLACK is h <= _ball_edge(x)."""
    return x * (1.0 + _BALL_SLACK) + _BALL_SLACK


def _decide(adet: np.ndarray, frob: np.ndarray, x: float, B: float) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (inside, tie) masks of a matrix with |det| = adet and
    squared Frobenius norm frob (float arrays): its float height is <= x up
    to _BALL_SLACK, or within _TIE_TOL of x.  The package's one height
    decision at a single x, behind both `_classify` and the census."""
    h = _height(adet, frob, B)
    return h <= _ball_edge(x), np.abs(h - x) <= _TIE_TOL


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


def shell_caps(x_hi: float, B: float, n: int) -> np.ndarray:
    """F_cap(e) = floor(e (t + 1/t)), t = (x_hi/e)^(2B), at index e - 1 for
    e = 1 .. n, int64, once every one is below _FCAP_LIMIT.

    t + 1/t is evaluated as 2 + 4 sinh^2(B log(x_hi/e)) with the 2e added to
    the floor, so F = 2e (h = e) stays under the cap when x_hi/e is 1 up to
    rounding.  The limit is checked on the floats, inf where they overflow,
    as the int64 cast would wrap past 2^63."""
    e = np.arange(1, n + 1, dtype=np.int64)
    with np.errstate(over="ignore"):
        s = np.sinh(B * np.log(x_hi / e))
        caps = 2 * e + np.floor(4.0 * e * s * s)
    if not caps.max() < _FCAP_LIMIT:
        raise BudgetError(f"shell cap {caps.max():.17g} exceeds the r_2 table limit {_FCAP_LIMIT}")
    return caps.astype(np.int64)


def _run_offsets(count: np.ndarray) -> np.ndarray:
    """0, 1, .., count[j] - 1 for each run j in turn, concatenated."""
    return np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)


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
        v = v_lo[row] + _run_offsets(count)
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


def _check_cell_floor(x: float, B: float, max_cells: int | None) -> None:
    """The checks of the census of x made before any O(x) array: F_cap(1)
    against _FCAP_LIMIT, then the lower bound floor(x_hi) + F_cap(1) - 2 on
    its cells against max_cells (module docstring, "Work limits")."""
    x_hi = _x_hi(x)
    check_budget("max_cells", math.floor(x_hi) + int(shell_caps(x_hi, B, 1)[0]) - 2, max_cells)


def _census(grid: list[float], B: float, max_cells: int | None) -> tuple[list[int], list[int], int]:
    """(counts, ties, candidates) under the shell caps of grid[-1]: for each
    x of the strictly increasing grid (all x >= 1) the sums of P over the
    cells inside at x and over the ties at x, and the sum of Q over the
    cells 2e <= F <= F_cap(e) (module docstring).

    The rows (g, e') of every squarefree g, e' = 1 .. floor(x_hi) // g^2,
    with g = 1 first, make one flat sequence of cells
    2e' <= F' <= F_cap(g^2 e') / g^2, row by row with F' ascending, walked
    in slices of `_BLOCK` cells.  Their count is checked against max_cells
    (default HEIGHTCOUNT_MAX_CELLS) before the r_2 table is built, after
    its O(1) lower bound (module docstring).  The last x is decided by
    `_decide`; the others by binning the height into the grid."""
    x_hi = _x_hi(grid[-1])
    n = math.floor(x_hi)
    _check_cell_floor(grid[-1], B, max_cells)
    fcap = shell_caps(x_hi, B, n)
    squarefree = [(g * g, mu) for g in range(1, math.isqrt(n) + 1) if (mu := _mobius(g))]
    rows = [n // g2 for g2, _ in squarefree]
    e = np.concatenate([np.arange(1, k + 1, dtype=np.int64) for k in rows])
    g2 = np.repeat(np.array([g2 for g2, _ in squarefree], dtype=np.int64), rows)
    mu = np.repeat(np.array([mu for _, mu in squarefree], dtype=np.int64), rows)
    size = fcap[g2 * e - 1] // g2 - 2 * e + 1
    # below 2^62: fewer than 2^31 cells a row, as the caps are, in fewer
    # than 2^31 rows, as 2 floor(x_hi) <= F_cap(floor(x_hi)) < 2^31
    end = np.cumsum(size)
    cells, g1_cells = int(end[-1]), int(end[n - 1])
    check_budget("max_cells", cells, max_cells)
    r2 = _r2_table(int((fcap + 2 * e[:n]).max()))
    start = end - size
    shift = 2 * e - start  # F' = flat index + shift[row]
    adet_row = (g2 * e).astype(float)  # |det| = g^2 e'
    x = np.array(grid, dtype=float)
    below, edge = x[:-1], _ball_edge(x[:-1])
    # the weight of the cells first inside at x_i, i < last, then the last x's count
    inside_at = np.zeros(x.size, dtype=np.int64)
    tie_at = np.zeros(x.size, dtype=np.int64)
    candidates = 0
    for s in range(0, cells, _BLOCK):
        stop = min(s + _BLOCK, cells)
        # rows lo .. hi meet the slice, each in one run of consecutive cells
        lo, hi = np.searchsorted(end, [s, stop - 1], side="right")
        run = np.minimum(end[lo : hi + 1], stop) - np.maximum(start[lo : hi + 1], s)
        owner = np.repeat(np.arange(lo, hi + 1), run)
        ep, f = e[owner], np.arange(s, stop, dtype=np.int64) + shift[owner]
        q = _q(r2, ep, f)
        if s < g1_cells:
            candidates += int(q[: g1_cells - s].sum())
        hit = np.flatnonzero(q)
        owner = owner[hit]
        w, adet, f = q[hit], adet_row[owner], f[hit]
        if hi >= n:  # rows of g > 1 meet the slice
            w, f = w * mu[owner], g2[owner] * f
        frob = f.astype(float)
        inside, tie = _decide(adet, frob, x[-1], B)
        inside_at[-1] += int(w[inside].sum())
        tie_at[-1] += int(w[tie].sum())
        if below.size:
            h = _height(adet, frob, B)
            # h <= edge[i] from i = first on; a slice's bins stay far below
            # 2^53, so the float bincount is exact
            first = np.searchsorted(edge, h)
            inside_at[:-1] += np.bincount(first, weights=w, minlength=x.size)[:-1].astype(np.int64)
            # every x_i with |fl(h - x_i)| <= _TIE_TOL lies in [h - 2 _TIE_TOL, h + 2 _TIE_TOL]
            t_lo = np.searchsorted(below, h - 2 * _TIE_TOL)
            t_n = np.searchsorted(below, h + 2 * _TIE_TOL, side="right") - t_lo
            near = np.flatnonzero(t_n)
            if near.size:
                cell = np.repeat(near, t_n[near])
                i = t_lo[cell] + _run_offsets(t_n[near])  # (cell, x_i) pairs
                is_tie = np.abs(h[cell] - below[i]) <= _TIE_TOL
                tie_at += np.bincount(i[is_tie], weights=w[cell[is_tie]], minlength=x.size).astype(np.int64)
    counts = np.cumsum(inside_at[:-1]).tolist() + [int(inside_at[-1])]
    return counts, tie_at.tolist(), candidates


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
    """Exact closed-ball count #{h <= x} by determinant shells: the census
    of the one-point grid [x].

    max_cells (default HEIGHTCOUNT_MAX_CELLS) bounds the (e, F) cells the
    census walks, exactly (module docstring, "Work limits").
    """
    if not (x >= 0):
        raise DomainError(f"need x >= 0, got {x}")
    if not (B > 0):
        raise DomainError(f"need B > 0, got {B}")
    if x < 1:
        return PiCountDetail(x, B, 0, 0, 0, 0)
    counts, ties, candidates = _census([x], B, max_cells)
    return PiCountDetail(x, B, counts[0], ties[0], entry_bound(x, B), candidates)


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

    One census at the largest x >= 1 serves the grid, so max_cells
    (default HEIGHTCOUNT_MAX_CELLS) bounds its cells, exactly, and a budget
    error names that census's cell count (module docstring, "Work limits").
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
    if covolume == math.inf:
        raise DomainError(f"need a finite covolume, got {covolume}")
    coeff = 30.0 / math.pi**2
    i_low = _mainterm_integral(B)
    i_high = _mainterm_integral(2.0 * B)
    eps = _SANDWICH_EPS
    b_adelic = adelic_volume_callable(2, B, max(math.log(grid[-1]), 0.0) + eps + 1e-9, max_sieve)
    # pi(x) = 0 below 1; one census at the largest x serves the rest
    ones = [x for x in grid if x >= 1]
    pis = ties = [0] * (len(grid) - len(ones))
    if ones:
        counts, tie_counts, _ = _census(ones, B, max_cells)
        pis, ties = pis + counts, ties + tie_counts
    bound_used = max((entry_bound(x, B) for x in ones), default=0)
    low, high, lo_s, hi_s = [], [], [], []
    for x in grid:
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
