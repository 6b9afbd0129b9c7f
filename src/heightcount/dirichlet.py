"""The shell Dirichlet series L(s) = sum D(m) m^(-s) and its analytic data.

D is multiplicative with D(p^k) = D(p) c(p)^(k-1) (the closed shell form
from `building`).  The Euler factor at p is

    (1 - [c(p) - D(p)] p^(-s)) / (1 - c(p) p^(-s)),

so L extends meromorphically to Re(s) > d with simple poles on the lines
Re(s) = s_p = log c(p)/log p, and for d = 2 collapses to the closed form
zeta(s) zeta(s-1)/zeta(2s).  The determinant-one (even-shell) variant at
d = 2 has closed form zeta(2s-2) zeta(2s-1)/zeta(4s-2).

The coefficients D(0..x) come from one numpy kernel, `_segment`, run on
one segment of `_SEGMENT` indices at a time; its docstring describes it.
One exact store per d (`_STORE`) holds them: `coeff_array` (the `dcoeff`
command, `verify`, the adelic weights) grows it, a one-pass sum
(`partial_sum`) only reads it, so every result depends on d and the
length alone, never on the order of the requests.

D(m) < 2^62 for every m below `_safe_prefix(d)`, the largest 2^t with
D(2)^t <= 2^62 (2^39 at d = 2, past any sieve the budget admits, and
2^16 at d = 3).  Past the prefix the kernel flags the values that may
not fit in int64 and returns them as Python ints, so the result is
always exact.  `coeff_D` (factorization) is its test oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .building import BuildingParams, shell_count, shell_ratio, sphere_size
from .errors import BudgetError, DomainError, check_budget
from .primes import factorize, primes_up_to

_MARGIN = 1e-6

# The float64 shadow of D(m) rounds once per Horner step and once per
# product (2d roundings per factor, at most log2(m) + 1 factors), a
# relative error eps far below 2^-40 at any size the sieve budget admits.
# So a shadow below this bound puts the exact value below
# (2^62 - 2^32) / (1 - eps) < 2^62 - 2^32 + 2^23 < 2^62: every unflagged
# value is below 2^62, and exact in int64.
_INT64_SAFE = 2.0**62 - 2.0**32

# Indices per segment of the coefficient sieve: the int64 slice, its
# smooth part and their temporaries (2 MB each) stay in cache.
_SEGMENT = 2**18
_WHEEL = 2520  # 2^3 3^2 5 7, whose strides are tiled from one period
# Terms per list of Python floats in the weighted `partial_sum`
_FLOAT_RUN = 2**12

# The most terms zeta_em may sum, a few seconds of work; no variable raises it
_ZETA_MAX_TERMS = 10**7

# Bernoulli numbers B_2, B_4, ..., B_16 for the Euler-Maclaurin tail.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


@dataclass(frozen=True)
class LSeriesValue:
    s: complex
    value: complex
    truncation_bound: float


def coeff_D(d: int, m: int) -> int:
    """D(m) by factorization; multiplicative over prime powers."""
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if m < 1:
        raise DomainError(f"need m >= 1, got {m}")
    out = 1
    for p, k in factorize(m):
        out *= sphere_size(BuildingParams(d, p), k)
    return out


def _prime_powers(p: int, x: int):
    """p, p^2, ... up to x."""
    pk = p
    while pk <= x:
        yield pk
        pk *= p


def _safe_prefix(d: int) -> int:
    """2^t for the largest t with D(2)^t <= 2^62, by exact integer comparison.

    Every m below it has D(m) < 2^62.  With alpha = log2 D(2), both
    D(p)/p^(d-1) = (d-1)(1 + 1/p + ... + p^(1-d)) and
    c(p)/p^(d-1) = (d-1) + 1/p + ... + p^(2-d) decrease in p, c(2) <= D(2),
    and p^(alpha-d+1) increases in p, so

        max(D(p), c(p)) / p^(d-1) <= D(2) / 2^(d-1) = 2^(alpha-d+1) <= p^(alpha-d+1),

    that is max(D(p), c(p)) <= p^alpha for every prime p.  Hence
    D(p^k) = D(p) c(p)^(k-1) <= p^(alpha k) and, D being multiplicative,
    D(m) <= m^alpha < 2^(alpha t) = D(2)^t <= 2^62 for m < 2^t.
    """
    return 2 ** max(t for t in range(63) if shell_count(d, 2) ** t <= 2**62)


def _segment(d: int, lo: int, seg: np.ndarray, primes: list[int]):
    """Write D(lo..hi - 1), hi = lo + seg.size, into seg in int64 (no value
    at index 0); return the offsets `at` in seg whose values may reach
    2^62, increasing, and those values exactly as Python ints.  primes
    hold at least those up to sqrt(hi - 1).

    Each prime p multiplies its multiples by D(p) and the multiples of
    each higher power p^k < hi by c(p), so index m collects
    D(p) c(p)^(k-1) for p^k || m.  The strides of the prime powers
    dividing _WHEEL come from one period of their products, tiled by
    doubling copies.  What is left of m after its small primes, m over
    its smooth part, is 1 or one prime q > sqrt(hi - 1), multiplied in as
    D(q).

    The int64 products are exact mod 2^64.  Below _safe_prefix(d) they are
    exact, as every value there is below 2^62; from the prefix on, a
    float64 shadow repeats the same products and flags the entries whose
    shadow reaches _INT64_SAFE, the others being exact.  A flagged index
    without a large prime factor is rebuilt from the same strides with
    their factors on Python ints (the int64 ones may wrap), each
    multiplying only the flagged indices it meets; any other
    m = s q has s < sqrt(hi - 1) and takes D(s) D(q), D(s) from the same
    strides run over 0..isqrt(hi - 1).
    """
    hi = lo + seg.size
    small = np.array(primes, dtype=np.int64)
    factors = zip(
        primes,
        shell_count(d, small),
        shell_ratio(d, small),
        shell_count(d, small.astype(float)),
        shell_ratio(d, small.astype(float)),
    )
    strides = [
        (pk, p, Dp, Dp_f) if pk == p else (pk, p, cp, cp_f)
        for p, Dp, cp, Dp_f, cp_f in factors
        for pk in _prime_powers(p, hi - 1)
    ]
    period = math.lcm(*(pk for pk, *_ in strides if _WHEEL % pk == 0))
    wheel = np.ones((2, period), dtype=np.int64)
    for pk, p, f, _ in strides:
        if period % pk == 0:
            wheel[:, ::pk] *= ((f,), (p,))
    smooth = np.empty(seg.size, dtype=np.int64)
    for out, pattern in zip((seg, smooth), np.roll(wheel, -lo, axis=1)):
        out[:period] = pattern[: out.size]
        n = period
        while n < out.size:
            out[n : 2 * n] = out[: min(n, out.size - n)]
            n *= 2
    for pk, p, f, _ in strides:
        if period % pk:
            seg[-lo % pk :: pk] *= f
            smooth[-lo % pk :: pk] *= p
    q = np.arange(lo, hi, dtype=np.int64)
    q //= smooth
    del out, smooth
    at = q_at = np.zeros(0, dtype=np.int64)
    tail = max(lo, _safe_prefix(d))  # the shadow covers [tail, hi)
    if hi > tail:
        shadow = np.ones(hi - tail)
        for pk, _, _, f_float in strides:
            shadow[-tail % pk :: pk] *= f_float
        q_tail = q[tail - lo :]
        np.multiply(shadow, shell_count(d, q_tail.astype(float)), out=shadow, where=q_tail > 1)
        at = np.flatnonzero(shadow >= _INT64_SAFE) + (tail - lo)
        q_at = q[at]
        del shadow, q_tail
    # D(q) where q > 1, else 1, with no mask: min(q - 1, 1) is 0 or 1
    dq = shell_count(d, q)
    dq -= 1
    dq *= np.minimum(np.subtract(q, 1, out=q), 1, out=q)
    dq += 1
    seg *= dq
    del q, dq
    exact = np.empty(at.size, dtype=object)
    if not at.size:
        return at, exact
    rough = q_at > 1
    rebuilt = np.ones(at.size - np.count_nonzero(rough), dtype=object)  # D at at[~rough]
    slot = np.full(seg.size, -1, dtype=np.int64)  # the place of each offset in `rebuilt`
    slot[at[~rough]] = np.arange(rebuilt.size)
    root = np.ones(math.isqrt(hi - 1) + 1, dtype=object)  # D(s) for s <= sqrt(hi - 1)
    for pk, p, _, _ in strides:
        f = shell_count(d, p) if pk == p else shell_ratio(d, p)
        hit = slot[-lo % pk :: pk]
        rebuilt[hit[hit >= 0]] *= f
        root[pk::pk] *= f
    exact[~rough] = rebuilt
    primes_q, which = np.unique(q_at[rough], return_inverse=True)
    exact[rough] = root[(at[rough] + lo) // q_at[rough]] * shell_count(d, primes_q.astype(object))[which]
    return at, exact


# The held coefficients of each d, (vals, over, exact), all read-only:
# vals holds D(0..n) in int64, exact wherever D(m) < 2^62, and _OVER at
# the increasing indices `over` with D(m) >= 2^62, whose values `exact`
# holds as Python ints.  A longer request sieves only the indices past n.
_STORE: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_EMPTY = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=object))
_OVER = np.iinfo(np.int64).max


def _check_sieve(d: int, x_max: int, max_sieve: int | None) -> None:
    """The checks before any read of D(0..x_max): d, x_max, then the budget."""
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if x_max < 1:
        raise DomainError(f"need x_max >= 1, got {x_max}")
    check_budget("max_sieve", x_max, max_sieve)


def _sieve(d: int, first: int, x: int, view):
    """Run _segment over first..x one segment at a time, each into the
    int64 slice view(lo, hi) for its indices lo..hi - 1, and yield
    (lo, slice, at, exact) as _segment returns them."""
    primes = primes_up_to(math.isqrt(x))
    for lo in range(first, x + 1, _SEGMENT):
        seg = view(lo, min(lo + _SEGMENT, x + 1))
        yield lo, seg, *_segment(d, lo, seg, primes)


def _segments(d: int, x: int):
    """D(1..x) in consecutive pieces (first, vals, at, exact) of at most
    _SEGMENT indices, without growing the store.

    vals holds D(first..) in int64, exact except at the offsets `at`,
    whose values `exact` holds as Python ints.  The held prefix is read
    from the store; past its end the kernel runs on one segment at a time
    in one reused buffer, so a piece is valid only until the next one.
    """
    vals, over, exact = _STORE.get(d, _EMPTY)
    held = min(vals.size - 1, x)  # the last index read from the store
    for lo in range(1, held + 1, _SEGMENT):
        hi = min(lo + _SEGMENT, held + 1)
        a, b = np.searchsorted(over, (lo, hi))
        yield lo, vals[lo:hi], over[a:b] - lo, exact[a:b]
    if held < x:
        buf = np.empty(min(_SEGMENT, x - held), dtype=np.int64)
        yield from _sieve(d, max(held + 1, 1), x, lambda lo, hi: buf[: hi - lo])


def _held(d: int, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The store of d, sieved on to x first when it is shorter.

    The held values are copied into the longer array and the kernel writes
    the new indices in place, with the values of a fresh sieve: each
    index is exact whatever the sieve length, so the store depends on
    d and its length alone.
    """
    vals, over, exact = held = _STORE.get(d, _EMPTY)
    first = vals.size
    if x < first:
        return held
    grown = np.empty(x + 1, dtype=np.int64)
    grown[:first] = vals
    overs, exacts = [over], [exact]
    for lo, seg, at, values in _sieve(d, first, x, lambda lo, hi: grown[lo:hi]):
        big = values >= 2**62
        seg[at] = np.where(big, _OVER, values)
        overs.append(at[big] + lo)
        exacts.append(values[big])
    grown[0] = 0
    grown.flags.writeable = False
    held = _STORE[d] = (grown, np.concatenate(overs), np.concatenate(exacts))
    return held


def coeff_array(d: int, x_max: int, max_sieve: int | None = None) -> np.ndarray:
    """D(0..x_max) exactly, with D(0) = 0, as a read-only array.

    int64 when every value is below 2^62, and otherwise an object array
    of Python ints.  The budget is checked first; the values are then
    read from the held store of d (sieved on to x_max when it is
    shorter), and the int64 result is a view of it.
    """
    _check_sieve(d, x_max, max_sieve)
    vals, over, exact = _held(d, x_max)
    head = vals[: x_max + 1]
    k = int(np.searchsorted(over, x_max, side="right"))  # the values >= 2^62
    if k == 0:
        return head
    out = head.astype(object)
    out[over[:k]] = exact[:k]
    out.flags.writeable = False
    return out


def zeta_em(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin, for Re(s) > 1.

    N - 1 terms, N = max(20, |Im s| + 1), and eight Bernoulli terms: the
    remainder is about N^(1 - Re s) prod_{i <= 16} |s + i| / (2 pi N), so N
    need not grow with Re s; cross-checked against mpmath in the tests.
    An N above _ZETA_MAX_TERMS raises BudgetError before any term is summed.
    """
    s = complex(s)
    if not (s.real > 1 + _MARGIN):
        raise DomainError(f"zeta_em needs Re(s) > 1 + {_MARGIN}, got {s}")
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"zeta_em needs a finite s, got {s}")
    n_cut = max(20, int(abs(s.imag)) + 1)
    if n_cut > _ZETA_MAX_TERMS:
        raise BudgetError(f"zeta_em sum of {n_cut} terms exceeds the limit {_ZETA_MAX_TERMS}")
    total = 0.0 + 0.0j
    for n in range(n_cut - 1, 0, -1):  # small terms first
        total += n ** (-s) if s.imag else n ** (-s.real)
    total += n_cut ** (1 - s) / (s - 1) + 0.5 * n_cut ** (-s)
    # sum_j B_2j/(2j)! * s(s+1)...(s+2j-2) * N^(-s-2j+1) until N^(...) underflows
    rising = s
    fact = 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        power = n_cut ** (-s - 2 * j + 1)
        if not power:
            break
        total += b / fact * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
    return total


def _tail_log_bound(d: int, sigma: float, cutoff: int) -> float:
    """Rigorous bound on |log of the omitted Euler factors| past the cutoff.

    Every omitted factor is the k >= 2 remainder of log(factor_p) +
    (d-1) sum_j log(1 - p^(j-s)); with u = 2(d-1) p^(d-1-sigma) <= 1/2
    both remainders are bounded by a constant times p^(2(d-1-sigma)),
    and the sum over p > cutoff by the corresponding integral.
    """
    q = cutoff + 1
    u = 2 * (d - 1) * q ** (d - 1 - sigma)
    if u > 0.5:
        raise DomainError(f"cutoff {cutoff} too small for a tail bound at Re(s)={sigma}")
    const = 16 * (d - 1) ** 2 + 2 * d * (d - 1)
    decay = 2 * (sigma - d + 1) - 1  # integral exponent, > 0 for sigma > d - 1/2
    return const * cutoff ** (-decay) / decay


@lru_cache(maxsize=8)
def _euler_primes(prime_cutoff: int):
    """(primes, log p) for p <= prime_cutoff, shared by every d; log p is
    `math.log`, whose bits numpy's log need not match."""
    primes = primes_up_to(prime_cutoff)
    logs = np.array(list(map(math.log, primes)))
    logs.flags.writeable = False
    return tuple(primes), logs


@lru_cache(maxsize=8)
def _euler_table(d: int, prime_cutoff: int):
    """Per-prime data of the Euler product over p <= prime_cutoff.

    Returns (primes, log p, c(p), c(p) - D(p), p^j for j < d), the last
    four as read-only float arrays, p^j of shape (d, n).  The counts and
    powers are exact integers rounded once to float, as CPython rounds an
    int operand of complex arithmetic: int64 while D(p) < 2^62 (the cast
    rounds to nearest, as int -> float does) and Python ints past that.
    """
    primes, logs = _euler_primes(prime_cutoff)
    fits = shell_count(d, primes[-1]) < 2**62  # then c(p), D(p), p^j all fit
    exact = np.array(primes, dtype=np.int64 if fits else object)
    c = shell_ratio(d, exact)
    arrays = (
        c.astype(float),
        (c - shell_count(d, exact)).astype(float),
        np.array([(exact**j).astype(float) for j in range(d)]),
    )
    for arr in arrays:
        arr.flags.writeable = False
    return (primes, logs, *arrays)


# CPython's complex arithmetic on (real, imag) pairs of float64 arrays, one
# IEEE operation per numpy call, so every element has the bits the scalar
# complex expression has.  numpy's complex multiply and `prod` may fuse
# multiply-adds and so are not used.  A float operand of complex
# arithmetic enters as (x, 0.0).


def _mul(a, b):
    """_Py_c_prod: a * b."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _sub_from_one(a):
    """_Py_c_diff: 1 - a."""
    return 1.0 - a[0], 0.0 - a[1]


def _div(a, b):
    """_Py_c_quot: a / b by Smith's algorithm, its branch chosen per element."""
    (ar, ai), (br, bi) = a, b
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bi / br
        denom = br + bi * ratio
        by_real = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
        ratio = br / bi
        denom = br * ratio + bi
        by_imag = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    real_larger = np.abs(br) >= np.abs(bi)
    return tuple(np.where(real_larger, x, y) for x, y in zip(by_real, by_imag))


def _pow(a, n: int):
    """c_powu: a ** n for an integer n >= 1, square and multiply from 1."""
    out = np.ones_like(a[0]), np.zeros_like(a[0])
    mask = 1
    while n >= mask:
        if n & mask:
            out = _mul(out, a)
        mask <<= 1
        a = _mul(a, a)
    return out


def _exp(a):
    """cmath.exp: numpy's complex exp is libm's cexp, which forms exp(x) cos(y)
    and exp(x) sin(y) as cmath does, so at y = 0 and x <= 709 the real part
    is math.exp(x) bit for bit; numpy's float64 exp has vectorised code of
    its own that can differ in the last bit."""
    z = np.empty(a[0].shape, dtype=complex)
    z.real, z.imag = a
    z = np.exp(z)
    return z.real, z.imag


def L_euler(d: int, s: complex, prime_cutoff: int = 10**5) -> LSeriesValue:
    """L(s) by zeta-accelerated Euler product over p <= prime_cutoff.

    The first-order parts of every factor are resummed exactly into
    prod_{j<d} zeta(s-j)^(d-1) (D(p) = (d-1) sum_{j<d} p^j), so the
    truncation error carries only k >= 2 prime-power tails.  The reported
    truncation_bound covers that tail rigorously plus an allowance for
    double rounding across the O(pi(cutoff)) factor multiplications.

    The per-prime data is cached, and every factor

        (1 - [c(p) - D(p)] p^(-s)) / (1 - c(p) p^(-s)) * prod_{j<d} (1 - p^(j-s))^(d-1)

    is formed for all primes at once by float64 array operations that
    repeat CPython's complex arithmetic step for step, and the factors are
    multiplied into the value in prime order, so value and bound are
    bit-identical to the scalar product.
    """
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    s = complex(s)
    if not (s.real > d + _MARGIN):
        raise DomainError(f"L_euler needs Re(s) > {d} + {_MARGIN}, got {s}")
    if prime_cutoff < 2:
        raise DomainError(f"need prime_cutoff >= 2, got {prime_cutoff}")
    value = 1.0 + 0.0j
    for j in range(d):
        value *= zeta_em(s - j) ** (d - 1)
    primes, logs, c, c_minus_D, powers = _euler_table(d, prime_cutoff)
    zero = np.zeros_like(logs)
    ps = _exp(_mul((-s.real, -s.imag), (logs, zero)))  # p^(-s)
    denom = _sub_from_one(_mul((c, zero), ps))
    near = np.flatnonzero(np.hypot(*denom) < 1e-12)
    if near.size:
        raise DomainError(
            f"s={s} is within 1e-12 of the pole line of the factor at p={primes[near[0]]}"
        )
    factor = _div(_sub_from_one(_mul((c_minus_D, zero), ps)), denom)
    for power in powers:
        factor = _mul(factor, _pow(_sub_from_one(_mul(ps, (power, zero))), d - 1))
    factors = np.empty(zero.shape, dtype=complex)
    factors.real, factors.imag = factor
    for f in factors.tolist():
        value *= f
    log_tail = _tail_log_bound(d, s.real, prime_cutoff)
    rounding = 64 * 2.220446049250313e-16 * (len(primes) + 2) * d
    return LSeriesValue(s, value, abs(value) * (math.expm1(log_tail) + rounding))


def L_euler_sl2(s: complex, prime_cutoff: int = 10**5) -> LSeriesValue:
    """Even-shell (determinant-one, d=2) series by accelerated Euler product.

    The factor at p resums the even-shell counts 1 + sum_j (p+1) p^(2j-1)
    p^(-2js) = (1 + p^(1-2s)) / (1 - p^(2-2s)); first-order parts are
    pulled into zeta(2s-2) zeta(2s-1), leaving factors 1 - p^(2-4s) whose
    omitted tail decays like p^(2-4 Re s).
    """
    s = complex(s)
    if not (s.real > 1.5 + _MARGIN):
        raise DomainError(f"L_euler_sl2 needs Re(s) > 1.5 + {_MARGIN}, got {s}")
    if prime_cutoff < 2:
        raise DomainError(f"need prime_cutoff >= 2, got {prime_cutoff}")
    value = zeta_em(2 * s - 2) * zeta_em(2 * s - 1)
    primes = _euler_primes(prime_cutoff)[0]
    for p in primes:
        value *= 1 - p ** (2 - 4 * s)
    a = 4 * s.real - 2  # tail terms are p^(-a), a > 4 on our domain
    tail = prime_cutoff ** (1 - a) / (a - 1)
    rounding = 64 * 2.220446049250313e-16 * (len(primes) + 2)
    return LSeriesValue(s, value, abs(value) * (math.expm1(2 * tail) + rounding))


def L_closed_pgl2(s: complex) -> complex:
    """zeta(s) zeta(s-1) / zeta(2s) for Re(s) > 2."""
    s = complex(s)
    if not (s.real > 2 + _MARGIN):
        raise DomainError(f"closed form needs Re(s) > 2 + {_MARGIN}, got {s}")
    return zeta_em(s) * zeta_em(s - 1) / zeta_em(2 * s)


def L_closed_sl2(s: complex) -> complex:
    """zeta(2s-2) zeta(2s-1) / zeta(4s-2) for Re(s) > 3/2 (even shells, d=2)."""
    s = complex(s)
    if not (s.real > 1.5 + _MARGIN):
        raise DomainError(f"closed form needs Re(s) > 1.5 + {_MARGIN}, got {s}")
    return zeta_em(2 * s - 2) * zeta_em(2 * s - 1) / zeta_em(4 * s - 2)


@dataclass(frozen=True)
class AbscissaTable:
    """Real parts s_p = log c(p)/log p of the candidate pole lines."""

    d: int
    entries: tuple[tuple[int, float], ...]  # (p, s_p), s_p decreasing
    B0: float  # s_2, the largest
    count_above_d: int


def pole_abscissas(d: int, p_max: int = 100) -> AbscissaTable:
    """s_p for all p <= p_max, sorted by decreasing s_p (i.e. increasing p)."""
    if d < 2:
        raise DomainError(f"need d >= 2, got {d}")
    if p_max < 2:
        raise DomainError(f"need p_max >= 2, got {p_max}")
    entries = tuple(
        (p, math.log(shell_ratio(d, p)) / math.log(p)) for p in primes_up_to(p_max)
    )
    return AbscissaTable(
        d=d,
        entries=entries,
        B0=entries[0][1],
        count_above_d=sum(1 for _, sp in entries if sp > d),
    )


def partial_sum(d: int, B: float, x: float, max_sieve: int | None = None) -> float:
    """sum_{m <= x} D(m) / m^B (compensated; exact integer sum for B = 0).

    The coefficients are read a segment at a time, the store not grown.
    """
    if not (x >= 1):
        raise DomainError(f"need x >= 1, got {x}")
    if not (B >= 0):
        raise DomainError(f"need B >= 0, got {B}")
    # an infinite x goes to the budget as inf, which every budget refuses
    x_max = int(x) if x < math.inf else x
    _check_sieve(d, x_max, max_sieve)
    pieces = _segments(d, x_max)
    if B == 0:
        # high and low 32 bits apart: over one segment neither int64 sum
        # wraps, whatever the int64 values; those at `at` are then swapped
        # for their exact values
        total = 0
        for _, vals, at, exact in pieces:
            total += (int((vals >> 32).sum()) << 32) + int((vals & 0xFFFFFFFF).sum())
            total += sum(exact.tolist()) - sum(vals[at].tolist())
        return float(total)

    def terms():
        # each D(m) rounded once to float, times Python's m ** (-B), passed
        # on as Python floats a few thousand at a time
        for first, vals, at, exact in pieces:
            weights = vals.astype(float)
            weights[at] = exact
            for lo in range(0, weights.size, _FLOAT_RUN):
                run = weights[lo : lo + _FLOAT_RUN].tolist()
                m = range(first + lo, first + lo + len(run))
                yield map(operator.mul, run, map(pow, m, itertools.repeat(-B)))

    return math.fsum(itertools.chain.from_iterable(terms()))


@dataclass(frozen=True)
class ResidueReport:
    variant: str
    pole: float
    direct: float  # from the closed zeta form of the residue
    extrapolated: float  # Richardson limit of (s - pole) L(s)
    difference: float
    note: str


def _richardson(f, h0: float = 1e-2) -> float:
    """Limit of f at 0+ from nodes h0, h0/10, h0/100 (kills h and h^2)."""
    f0, f1, f2 = f(h0), f(h0 / 10), f(h0 / 100)
    r1 = (10 * f1 - f0) / 9
    r2 = (10 * f2 - f1) / 9
    return (100 * r2 - r1) / 99


def residue_estimate(variant: str) -> ResidueReport:
    """Residue of the d=2 series at its rightmost pole, two ways.

    `direct` evaluates the closed residue formula; `extrapolated`
    Richardson-extrapolates (s - pole) L(s) from the closed-form L.  For
    the determinant-one variant the note records that the frequently
    quoted shorthand 1/2 is only the bare pole factor of zeta(2s-2) and
    omits zeta(2)/zeta(4).
    """
    if variant == "pgl2":
        pole = 2.0
        direct = (zeta_em(2) / zeta_em(4)).real
        extrapolated = _richardson(lambda h: h * L_closed_pgl2(pole + h).real)
        note = "residue = zeta(2)/zeta(4) = 15/pi^2"
    elif variant == "sl2":
        pole = 1.5
        direct = (zeta_em(2) / (2 * zeta_em(4))).real
        extrapolated = _richardson(lambda h: h * L_closed_sl2(pole + h).real)
        note = (
            "residue = zeta(2)/(2 zeta(4)) = 15/(2 pi^2) ~ 0.7599089; the "
            "shorthand value 1/2 (bare pole factor of zeta(2s-2)) omits "
            "zeta(2)/zeta(4)"
        )
    else:
        raise DomainError(f"unknown variant {variant!r}; use 'pgl2' or 'sl2'")
    return ResidueReport(
        variant=variant,
        pole=pole,
        direct=direct,
        extrapolated=extrapolated,
        difference=extrapolated - direct,
        note=note,
    )
