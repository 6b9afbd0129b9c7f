"""Determinant-shell lines of integer 2x2 matrices.

For shells e = 1 .. len(fcap), `Shells` yields the lattice lines that hold
every integer matrix (a, b, c, d) with ad - bc = +-e, canonical first row
(a > 0, or a = 0 < b) and a^2 + b^2 + c^2 + d^2 <= fcap[e - 1], in blocks of
bounded size.  A line (`Lines`) fixes the first row and e; its second rows
form an integer interval of k, and any bound on F cuts out a subinterval,
so `heightcount.counting` counts matrices per line without building them.
`Shells.candidates` walks every matrix, each exactly once; it is the test
oracle of the count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

# first rows, (row, e) pairs, candidate matrices and entries of the
# decision table handled per block; bounds memory.  At 2^13 a block's int64
# arrays are 64 KiB, below glibc's default 128 KiB mmap threshold, so they
# are reused from the heap.  At 2^16 (512 KiB arrays) every block mapped and
# faulted in fresh pages unless an earlier large free had raised the
# threshold: the census benchmark took ~0.71 s against ~0.52 s at 2^13
# (2-vCPU Xeon), and 52 against 35 MB
_BLOCK = 1 << 13
# shell caps below this keep every quadratic of the enumeration inside int64
_FCAP_LIMIT = 1 << 31


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

    The g = 1 lines alone number at least pi F_cap(e) per shell, more than
    the F_cap(e) - 2e + 1 entries of its decision table in
    `counting._shell_table`, so the bound covers the table too.
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


def _ragged(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Owner index and value of every entry of the concatenated ranges
    starts[i], starts[i] + 1, ..., starts[i] + counts[i] - 1."""
    owner = np.repeat(np.arange(counts.size), counts)
    first = np.cumsum(counts) - counts
    return owner, starts[owner] + (np.arange(owner.size) - first[owner])


def _spans(counts: np.ndarray) -> list[tuple[int, int]]:
    """Consecutive slices of range(counts.size), each holding about _BLOCK
    of the total count (more only when one entry alone exceeds it)."""
    if counts.size == 0:
        return []
    cum = np.cumsum(counts)
    cuts = np.searchsorted(cum, np.arange(_BLOCK, int(cum[-1]), _BLOCK), side="right")
    edges = np.unique(np.concatenate(([0], cuts, [counts.size])))
    return list(zip(edges[:-1].tolist(), edges[1:].tolist()))


def _bezout(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Elementwise g = gcd(a, b) and (p, q) with a p + b q = g, for a >= 0,
    by the extended Euclidean algorithm on (a, |b|)."""
    r0, r1 = a.copy(), np.abs(b)
    s0, s1 = np.ones_like(a), np.zeros_like(a)
    t0, t1 = np.zeros_like(a), np.ones_like(a)
    while np.any(r1):
        live = r1 != 0
        q = np.where(live, r0 // np.where(live, r1, 1), 0)
        r0, r1 = np.where(live, r1, r0), np.where(live, r0 - q * r1, 0)
        s0, s1 = np.where(live, s1, s0), np.where(live, s0 - q * s1, s1)
        t0, t1 = np.where(live, t1, t0), np.where(live, t0 - q * t1, t1)
    return r0, s0, np.where(b < 0, -t0, t0)


def _b_ranges(n_max: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per first entry a >= 0, the start and length of the run of b with
    (a, b) canonical (a > 0, or a = 0 < b) and a^2 + b^2 <= n_max."""
    w = np.array([math.isqrt(n_max - v * v) for v in a.tolist()], dtype=np.int64)
    return np.where(a == 0, 1, -w), np.where(a == 0, w, 2 * w + 1)


def _shell_ranges(n: np.ndarray, x_hi: float, B: float, e_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row norm n, a range lo <= e <= hi holding every shell with
    e/t <= n <= e t, t = (x_hi/e)^(2B).

    In logs the condition is |log n - log e| <= 2B (log x_hi - log e), an
    interval in log e.  log x_hi is widened by 1e-9 so that rounding never
    drops a shell; the exact integer test in `Shells._lines` decides
    each (row, e) pair."""
    lx = math.log(x_hi) + 1e-9
    ln = np.log(n.astype(float))
    up = (ln + 2 * B * lx) / (1 + 2 * B)  # from e/t <= n
    down = np.zeros_like(ln)
    k, rhs = 1 - 2 * B, ln - 2 * B * lx  # n <= e t  <=>  rhs <= k log e
    if k > 0:
        down = rhs / k
    elif k < 0:
        up = np.minimum(up, rhs / k)
    else:
        up = np.where(rhs <= 0, up, -1.0)
    top = math.log(e_max) + 1
    lo = np.ceil(np.exp(np.clip(down, 0, top))).astype(np.int64)
    hi = np.floor(np.exp(np.clip(up, -1, top))).astype(np.int64)
    return np.maximum(lo, 1), np.minimum(hi, e_max)


def _line_interval(A, P, m, room) -> tuple[np.ndarray, np.ndarray]:
    """lo <= k <= hi (empty when hi < lo) with c^2 + d^2 <= room on the lines
    (c, d) = (c0, d0) + k (ap, bp), A = ap^2 + bp^2, P = c0 ap + d0 bp,
    m = ap d0 - bp c0, for A room >= m^2.

    Lagrange's identity A (c0^2 + d0^2) = P^2 + m^2 gives
    A (c^2 + d^2) = (A k + P)^2 + m^2, so the condition is |A k + P| <= s
    with s = isqrt(D), D = A room - m^2.  s is floor(sqrt(float(D)))
    corrected once down and once up: A <= n < F_cap < _FCAP_LIMIT = 2^31
    and room < 2^31, so D < 2^62, and the float root is off by less than 1."""
    D = A * room - m * m
    s = np.floor(np.sqrt(D.astype(float))).astype(np.int64)
    s -= s * s > D
    s += (s + 1) * (s + 1) <= D
    return -((s + P) // A), (s - P) // A


@dataclass(frozen=True)
class Shells:
    """The lines under the shell caps fcap (F_cap(e) at index e - 1) of one
    x_hi and B, in blocks of first rows."""

    x_hi: float
    B: float
    fcap: np.ndarray

    def __post_init__(self) -> None:
        if int(self.fcap.max()) >= _FCAP_LIMIT:
            raise BudgetError(f"shell cap {int(self.fcap.max())} exceeds the int64-safe limit {_FCAP_LIMIT}")

    @property
    def _n_max(self) -> int:
        # a row meeting shell e has n (F_cap - n) >= e^2 > 0, so n < F_cap
        return int(self.fcap.max()) - 1

    def blocks(self) -> list[tuple[int, int]]:
        """Ranges lo <= a < hi of first entries, each holding about _BLOCK
        first rows."""
        a = np.arange(math.isqrt(self._n_max) + 1, dtype=np.int64)
        return _spans(_b_ranges(self._n_max, a)[1])

    def lines(self, block: tuple[int, int]):
        """Yield `Lines` batches holding every (row, e) line of the first
        rows whose first entry a lies in block, each line once."""
        a, b, n, j_lo, j_count = self._rows(block)
        g, p, q = _bezout(a, b)
        for s, t in _spans(j_count):
            yield self._lines(a[s:t], b[s:t], n[s:t], g[s:t], p[s:t], q[s:t], j_lo[s:t], j_count[s:t])

    def _rows(self, block: tuple[int, int]):
        """The first rows (a, b) of block that may meet a shell, with
        n = a^2 + b^2 and their shells e = g j, j_lo <= j < j_lo + j_count."""
        a = np.arange(*block, dtype=np.int64)
        owner, b = _ragged(*_b_ranges(self._n_max, a))
        a = a[owner]
        n = a * a + b * b
        e_lo, e_hi = _shell_ranges(n, self.x_hi, self.B, self.fcap.size)
        g = np.gcd(a, b)
        j_lo = -(-e_lo // g)
        j_count = e_hi // g - j_lo + 1
        live = j_count > 0
        return a[live], b[live], n[live], j_lo[live], j_count[live]

    def _lines(self, a, b, n, g, p, q, j_lo, j_count):
        """The lines of the (row, e) pairs e = g j, j_lo <= j < j_lo + j_count."""
        i, j = _ragged(j_lo, j_count)
        e = g[i] * j
        room = self.fcap[e - 1] - n[i]  # cap on c^2 + d^2
        hit = room * n[i] >= e * e
        i, e, room = i[hit], e[hit], room[hit]
        a, b, n, g, p, q = a[i], b[i], n[i], g[i], p[i], q[i]
        ap, bp, m = a // g, b // g, e // g
        A = ap * ap + bp * bp
        # (c, d) = (c0, d0) + k (ap, bp) solves ap d - bp c = m, i.e.
        # ad - bc = e; start at the point nearest the foot of the
        # perpendicular from the origin
        c0, d0 = -m * q, m * p
        k0 = (A - 2 * (c0 * ap + d0 * bp)) // (2 * A)
        c0, d0 = c0 + k0 * ap, d0 + k0 * bp
        P = c0 * ap + d0 * bp
        lo, hi = _line_interval(A, P, m, room)
        return Lines(a, b, n, g, e, m, ap, bp, k0, c0, d0, A, P, lo, hi)

    def candidates(self, block: tuple[int, int]):
        """Yield arrays (a, b, c, d) of the candidates whose first entry a
        lies in block; every matrix with ad - bc = +-e, canonical first row
        and F <= F_cap(e) occurs exactly once.  The count enumerates no
        line that `counting` can count; this full walk is its test oracle."""
        for lines in self.lines(block):
            for o, c, d in lines.points():
                yield lines.a[o], lines.b[o], c, d
                yield lines.a[o], lines.b[o], -c, -d


@dataclass(frozen=True)
class Lines:
    """A batch of det-shell lines.

    Line i has first row (a, b) with n = a^2 + b^2 and g = gcd(a, b), shell
    e and m = e/g.  Its second rows are (c, d) = (c0, d0) + k (ap, bp),
    (ap, bp) = (a, b)/g, those with ad - bc = e, and F = n + c^2 + d^2 <=
    F_cap(e) exactly when lo <= k <= hi.  Its mirror (-c, -d) holds those
    with ad - bc = -e, with the same F and content, so it is not stored.
    Along a line, c^2 + d^2 = A k^2 + 2 P k + c0^2 + d0^2 is convex in k, so
    every bound on F cuts out an interval of k.  The start is
    (c0, d0) = m (-q, p) + k0 (ap, bp) with a p + b q = g (`_bezout`).

    The methods take sel, an index array of lines."""

    a: np.ndarray
    b: np.ndarray
    n: np.ndarray
    g: np.ndarray
    e: np.ndarray
    m: np.ndarray
    ap: np.ndarray
    bp: np.ndarray
    k0: np.ndarray
    c0: np.ndarray
    d0: np.ndarray
    A: np.ndarray
    P: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def upto(self, sel: np.ndarray, f_max: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The interval lo <= k <= hi (empty when hi < lo) of F <= f_max on
        each line of sel (an index array), f_max aligned with sel."""
        room = f_max - self.n[sel]
        lo, hi = np.zeros(sel.size, dtype=np.int64), np.full(sel.size, -1, dtype=np.int64)
        some = self.A[sel] * room >= self.m[sel] ** 2
        sel, room = sel[some], room[some]
        lo[some], hi[some] = _line_interval(self.A[sel], self.P[sel], self.m[sel], room)
        return lo, hi

    def primitive(self, sel: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per line of sel, the number of primitive matrices with
        lo <= k <= hi.

        A prime dividing g, c and d divides ap d - bp c = m, so with
        G = gcd(g, m) the matrix is primitive exactly when no prime of G
        divides (c, d) = m (-q, p) + (k + k0)(ap, bp).  As G | m and
        gcd(ap, bp) = 1, that is gcd(k + k0, G) = 1: a count of integers
        coprime to G, periodic mod G."""
        count = np.maximum(hi - lo + 1, 0)
        G = np.gcd(self.g[sel], self.m[sel])
        mixed = np.flatnonzero((G > 1) & (count > 0))
        if mixed.size:
            G, k0 = G[mixed], self.k0[sel[mixed]]
            prefix = _coprime_prefix(int(G.max()))

            def below(t):  # #{0 <= i < t : gcd(i, G) = 1}, for any integer t
                return t // G * prefix[G, G] + prefix[G, t % G]

            count[mixed] = below(hi[mixed] + k0 + 1) - below(lo[mixed] + k0)
        return count

    def points(self, sel: np.ndarray | None = None):
        """Yield (o, c, d) for every k in the cap interval of the lines sel
        (default all), in blocks of about _BLOCK: o is the line index and
        (c, d) the second row."""
        if sel is None:
            sel = np.arange(self.e.size)
        count = np.maximum(self.hi[sel] - self.lo[sel] + 1, 0)
        for s, t in _spans(count):
            o, k = _ragged(self.lo[sel[s:t]], count[s:t])
            o = sel[s:t][o]
            yield o, self.c0[o] + k * self.ap[o], self.d0[o] + k * self.bp[o]


def _coprime_prefix(g_max: int) -> np.ndarray:
    """prefix[G, j] = #{0 <= i < j : gcd(i, G) = 1} for 0 <= j <= G <= g_max."""
    i = np.arange(g_max + 1)
    prefix = np.zeros((g_max + 1, g_max + 1), dtype=np.int64)
    prefix[:, 1:] = np.cumsum(np.gcd(i[:-1], i[:, None]) == 1, axis=1)
    return prefix
