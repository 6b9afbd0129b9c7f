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

pi_count walks the shells e = 1 .. floor(X) (`heightcount.shells`).  A
canonical first row (a, b) (a > 0, or a = 0 < b) with n = a^2 + b^2 and
g = gcd(a, b) meets shell e only if g | e, and Lagrange's identity n (c^2 + d^2) = e^2 + (ac + bd)^2
says it meets the cap only if n (F_cap - n) >= e^2.  The second rows with
ad - bc = e lie on the lattice line (c0, d0) + k (a, b)/g, (c0, d0)
from the Bezout pair of (a, b), their mirrors (-c, -d) give ad - bc = -e
with the same F, and the cap cuts each line to an integer interval of k,
found from a quadratic and settled in exact integers.  Distinct
(row, e, sign, k) give distinct matrices; these are the candidates, about
x^2 log x at B = 1, against (2x + 1)^4 cells for the box below.

The shells are taken at X = x_hi, just above both the closed-ball test
x (1 + 1e-12) + 1e-12 and the tie band x + 1e-9, with a relative margin of
1e-12 that covers the rounding of the float height.  Every matrix that
the float height puts inside the ball or in the tie band is therefore a
candidate.

The count costs about one unit of work per line, not per candidate.  A
candidate has nonzero det and a canonical sign by construction, so its
float decision (`_decide`) depends only on (e, F).  `_shell_table`
evaluates it once for every integer F = 2e .. F_cap(e) and checks, in
exact integers, that the inside set is a prefix F <= F_in(e) and the tie
set one interval.  On such a regular shell every line contributes the
primitive matrices of at most three intervals of k (inside, and the two
ends of the tie set), and primitivity is a coprimality count along the
line (`shells.Lines.primitive`).  A shell that fails the check is sent
through `_classify` candidate by candidate.  Either way each candidate is
decided by the same float function as in the box search, so count and
tie_count equal the box's whenever the box is exhaustive.  The count is
one serial loop over blocks of first rows; the blocks bound the memory
held by a batch of lines.

Box search (test oracle).  Every class with h <= x has its canonical
entries in [-N, N]^4 when N >= entry_bound(x, B):

    sigma_1 sigma_2 = e and h = e * h_inf <= x give
    sigma_1^2 = e * (sigma_1/sigma_2) <= e * (x/e)^(2B), so every entry is
    at most max over integers 1 <= e <= x of sqrt(e^(1-2B) x^(2B)).

`_count_chunk` searches that box.  It is kept only as the test oracle of
the det-shell count, which verify's box-saturation check also calls; the
candidate walk `shells.Shells.candidates` through `_classify` is the
other.  `_decide` is the package's one height decision; the scalar height
of a single representative and the pure-Python box walk are test oracles
in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_budget

_TIE_TOL = 1e-9
_BALL_SLACK = 1e-12
# half-width in log x of the adelic ball sandwich of `compare_report`
_SANDWICH_EPS = 0.1


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
    any height decision.  It is the sum of the lines' interval lengths:
    the count counts these matrices, it does not examine each one."""

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
    decision, behind both `_classify` and the det-shell table."""
    sigma1_sq = (frob + np.sqrt(frob * frob - 4.0 * adet * adet)) / 2.0
    h = adet * (sigma1_sq / adet) ** (1.0 / (2.0 * B))
    return h <= x * (1.0 + _BALL_SLACK) + _BALL_SLACK, np.abs(h - x) <= _TIE_TOL


def _classify(a, b, c, d, x: float, B: float) -> tuple[int, int]:
    """(inside, ties) among the integer matrices (a, b, c, d), elementwise.

    A matrix is inside if it is nonsingular, canonically signed and
    primitive and `_decide` puts it inside; it is a tie if `_decide` says
    so.  The box oracle, the candidate oracle and the det-shell count's
    fallback decide with this one definition."""
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


@dataclass(frozen=True)
class _ShellTable:
    """`_decide` on every integer F = 2e .. F_cap(e) of every shell e
    (index e - 1), reduced to intervals: a matrix of shell e is inside
    exactly when F <= f_in, and a tie exactly when tie_lo <= F <= tie_hi
    (empty when tie_lo > tie_hi).  A shell where either set is not such an
    interval is not regular."""

    fcap: np.ndarray
    f_in: np.ndarray
    tie_lo: np.ndarray
    tie_hi: np.ndarray
    regular: np.ndarray


def _shell_table(fcap: np.ndarray, x: float, B: float, block: int) -> _ShellTable:
    """The `_ShellTable` of the caps fcap, evaluated and reduced in slices
    of at most `block` entries of the flat table (shell by shell, F
    ascending) and checked in exact integers."""
    e = np.arange(1, fcap.size + 1, dtype=np.int64)
    size = fcap - 2 * e + 1  # F >= 2e: F = s1^2 + s2^2 >= 2 s1 s2
    end = np.cumsum(size)
    shift = 2 * e - (end - size)  # F = flat index + shift[e - 1]
    n_in = np.zeros_like(e)
    f_in = 2 * e - 1
    n_tie = np.zeros_like(e)
    none = int(fcap.max()) + 1  # above every F
    tie_lo = np.full_like(e, none)
    tie_hi = np.zeros_like(e)
    for s in range(0, int(end[-1]), block):
        flat = np.arange(s, min(s + block, int(end[-1])), dtype=np.int64)
        owner = np.searchsorted(end, flat, side="right")
        f = flat + shift[owner]
        inside, tie = _decide(e[owner].astype(float), f.astype(float), x, B)
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        u = owner[starts]  # distinct shells, one segment each
        n_in[u] += np.add.reduceat(inside, starts, dtype=np.int64)
        f_in[u] = np.maximum(f_in[u], np.maximum.reduceat(np.where(inside, f, 0), starts))
        if tie.any():
            n_tie[u] += np.add.reduceat(tie, starts, dtype=np.int64)
            tie_lo[u] = np.minimum(tie_lo[u], np.minimum.reduceat(np.where(tie, f, none), starts))
            tie_hi[u] = np.maximum(tie_hi[u], np.maximum.reduceat(np.where(tie, f, 0), starts))
    empty = n_tie == 0
    tie_lo[empty], tie_hi[empty] = fcap[empty] + 1, fcap[empty]
    regular = (n_in == f_in - 2 * e + 1) & (n_tie == tie_hi - tie_lo + 1)
    return _ShellTable(fcap, f_in, tie_lo, tie_hi, regular)


def _count_lines(lines, table: _ShellTable, x: float, B: float) -> tuple[int, int, int]:
    """(inside, ties, candidates) on one `shells.Lines` batch.

    Every matrix on a line has |det| = e and a canonical first row, so on
    a regular shell its decision is the table's, by F alone, and each line
    contributes the primitive matrices of at most three intervals of k
    (`Lines.primitive`).  Lines of irregular shells go through `_classify`
    matrix by matrix."""
    s = lines.e - 1
    inside = ties = 0
    regular = table.regular[s]
    if not regular.all():
        for o, c, d in lines.points(np.flatnonzero(~regular)):
            i, t = _classify(lines.a[o], lines.b[o], c, d, x, B)
            inside, ties = inside + i, ties + t
    reg = np.flatnonzero(regular)
    s_reg = s[reg]
    lo, hi = lines.lo[reg], lines.hi[reg]
    f_in = table.f_in[s_reg]
    short = np.flatnonzero(f_in < table.fcap[s_reg])
    if short.size:
        lo[short], hi[short] = lines.upto(reg[short], f_in[short])
    inside += int(lines.primitive(reg, lo, hi).sum())
    tied = reg[table.tie_lo[s_reg] <= table.tie_hi[s_reg]]
    if tied.size:
        upper = lines.primitive(tied, *lines.upto(tied, table.tie_hi[s[tied]]))
        lower = lines.primitive(tied, *lines.upto(tied, table.tie_lo[s[tied]] - 1))
        ties += int((upper - lower).sum())
    # each line stands for itself and its mirror (-c, -d)
    return 2 * inside, 2 * ties, 2 * int(np.maximum(lines.hi - lines.lo + 1, 0).sum())


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
    `shells.candidate_bound` of the candidates, which also bounds the lines
    and the decision table.  The lines are built one batch at a time, block
    of first rows by block, and the integer partial counts are summed.
    """
    if not (x >= 0):
        raise DomainError(f"need x >= 0, got {x}")
    if not (B > 0):
        raise DomainError(f"need B > 0, got {B}")
    if x < 1:
        return PiCountDetail(x, B, 0, 0, 0, 0)
    from . import shells

    bound = entry_bound(x, B)
    x_hi = _x_hi(x)
    fcap = shells.shell_caps(x_hi, B)
    check_budget("det-shell candidates", shells.candidate_bound(fcap), max_cells, "max_cells")
    table = shells.Shells(x_hi, B, fcap)
    decisions = _shell_table(fcap, x, B, shells._BLOCK)
    inside = ties = seen = 0
    for block in table.blocks():
        for lines in table.lines(block):
            i, t, n = _count_lines(lines, decisions, x, B)
            inside, ties, seen = inside + i, ties + t, seen + n
            del lines  # freed before the next batch is built
    return PiCountDetail(x, B, inside, ties, bound, seen)


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
