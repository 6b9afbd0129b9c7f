"""Global heights, the adelic ball-volume convolution, and its verifiers.

The global height of a nonsingular rational class is the product of local
heights: at a finite prime p it is p^(d_p) with d_p the building distance
from the base vertex, and at infinity it is exp of the chamber norm of the
log-singular-value vector.  Representing the class by a primitive integer
matrix makes every d_p readable off one Smith normal form.

The expected count of classes with height at most e^T factors through

    b(T) = sum_{m <= e^T} D(m) * b_inf(T - log m),

with D(m) the finite-height mass from the coefficient sieve and b_inf the
radial archimedean volume.  At d = 2, D = psi and b_inf(R) = sinh^2(B R)
= e^(2BR)/4 + e^(-2BR)/4 - 1/2 exactly, so b(T) is read off three prefix
sums of psi(m) m^beta over the sieve, plus the few terms near the ball's
edge summed directly: exact up to the rounding `_d2_volume` bounds, with
no table.  At d >= 3 one reduction, `_convolve`, sums point masses
against a linearly interpolated cumulative function: b_inf on a 1e-3
volume grid, and the persistence check's d(T) alike.  The weights
D(m) are read from the coefficient store of `dirichlet` (`coeff_array`),
with no float copy held; each b(T) computes its own locations log m.

The module also provides the empirical checks used around b: regularity,
the persistence of the dominant exponential term under measure
convolution, and box-norm covering numbers.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .archimedean import (
    _LOG_FLOAT_MAX,
    _table_domain,
    archimedean_height,
    ball_volume_table,
    growth_exponent_fit,
    simplex_area,
)
from .dirichlet import L_euler, _exp, coeff_array, pole_abscissas
from .errors import DomainError
from .intmat import as_mat, content, det_int, elementary_divisors
from .primes import factorize

_N_CHUNKS = 64
# rows of a MeasurePair per chunk of the sum C
_C_CHUNK = 1 << 12


@dataclass(frozen=True)
class HeightProfile:
    """Local height data of one class: exponents d_p, h_fin = prod p^{d_p},
    the archimedean factor h_inf, and the product h."""

    finite_exponents: tuple[tuple[int, int], ...]
    h_fin: int
    h_inf: float
    h: float


def global_height(mat, B: float) -> HeightProfile:
    """Height profile of a primitive nonsingular integer matrix.

    d_p is the spread v_p(e_d) - v_p(e_1) of the elementary divisors (the
    building distance), and primitivity puts e_1 at 1: so h_fin is the
    largest divisor e_d, and its factorization lists every d_p > 0.  A
    height past float range is refused before e_d is factored.
    """
    m = as_mat(mat)
    if len(m) != len(m[0]):
        raise DomainError("global_height needs a square matrix")
    if det_int(m) == 0:
        raise DomainError("matrix is singular")
    g = content(m)
    if g != 1:
        raise DomainError(f"matrix is not primitive (content {g}); divide out the gcd first")
    h_fin = elementary_divisors(m)[-1]
    h_inf = archimedean_height(m, B)
    h = h_fin * h_inf if h_fin <= sys.float_info.max else math.inf
    if h == math.inf:
        raise DomainError(f"the height e^{math.log(h_fin) + math.log(h_inf):.6g} passes float range")
    return HeightProfile(tuple(factorize(h_fin)), h_fin, h_inf, h)


# ---------------------------------------------------------------------------
# adelic ball volume


def _sieve(d: int, T_max: float, max_sieve: int | None):
    """Weights D(m) and locations log m for every m <= e^T_max.

    The length x_max = floor(e^T_max (1 + 1e-12)) is checked against the
    sieve budget before any work (`coeff_array`); a length past float
    range is inf there, which every budget refuses.  The weights are the
    read-only int64 view of the held coefficients, or their float64
    roundings once a value reaches 2^62: a product or quotient with float64
    rounds an int64 weight as the float64 copy would hold it, so either
    gives the same bits.  The locations are the caller's own.
    """
    length = math.exp(T_max) * (1 + 1e-12) if T_max <= _LOG_FLOAT_MAX else math.inf
    x_max = int(length) if length < math.inf else length
    weights = coeff_array(d, x_max, max_sieve)[1:]
    if weights.dtype == object:
        weights = weights.astype(float)
    logs = np.arange(1, x_max + 1, dtype=float)
    return weights, np.log(logs, out=logs)


def _convolve(T: float, locs, masses, grid, values) -> float:
    """Ordered reduction of sum_{loc <= T} mass * f(T - loc), f linear on grid.

    locs must be nondecreasing, so the terms are a prefix cut by one binary
    search.  The prefix is cut into a fixed number of chunks that depends
    only on its length, each chunk is summed by numpy, and math.fsum
    combines the chunk totals with a single rounding.  Every d >= 3 b(T)
    and every d(T) the package reports goes through this one reduction, so
    each is reproducible bit for bit.
    """
    count = int(np.searchsorted(locs, T + 1e-12, side="right"))
    terms = np.interp(T - locs[:count], grid, values)
    terms *= masses[:count]
    edges = [round(i * count / _N_CHUNKS) for i in range(_N_CHUNKS + 1)]
    return math.fsum(float(terms[a:b].sum()) for a, b in zip(edges, edges[1:]) if b > a)


# d = 2 split: terms with B (T - log m) >= _NEAR come from the prefix sums
_NEAR = 0.1
# sum psi(m) m^(2B) is held times 2^-_SCALE_BITS, which keeps it finite (see _d2_volume)
_SCALE_BITS = 200
# _blocked_sums: terms per block, and blocks per set-up pass
_PREFIX_BLOCK = 1 << 10
_SET_UP_BLOCKS = 1 << 6


def _blocked_sums(form, n: int):
    """S(j) = terms[0] + ... + terms[j] for n nonnegative float terms, as a
    callable; form(lo, out) writes terms[lo : lo + out.size] into out.

    Each block of _PREFIX_BLOCK terms is summed left to right, and S(j)
    adds its block's running sum to the left-to-right sum of the earlier
    blocks' totals.  So S(j) has relative error at most
    (min(j, _PREFIX_BLOCK) + j / _PREFIX_BLOCK + 1) u to first order,
    u = 2^-53, against j u for one running sum, and it depends on
    terms[:j + 1] only: a prefix of the terms gives a prefix of the sums,
    bit for bit.

    Only the running sums of the block totals are held, n / _PREFIX_BLOCK
    floats.  The set-up forms the terms _SET_UP_BLOCKS blocks at a time in
    one buffer; each call forms the terms of j's block up to j again, at
    most _PREFIX_BLOCK, and sums them left to right as the set-up did.
    """
    blocks = -(-n // _PREFIX_BLOCK)
    totals = np.empty(blocks)
    buf = np.empty((min(blocks, _SET_UP_BLOCKS), _PREFIX_BLOCK))
    for first in range(0, blocks, _SET_UP_BLOCKS):
        rows = buf[: blocks - first]
        lo = first * _PREFIX_BLOCK
        flat = rows.ravel()
        form(lo, flat[: n - lo])
        flat[n - lo :] = 0.0  # the last block's padding
        np.add.accumulate(rows, axis=1, out=rows)
        totals[first : first + len(rows)] = rows[:, -1]
    before = np.zeros(blocks)
    np.add.accumulate(totals[:-1], out=before[1:])

    def S(j: int) -> float:
        i, r = divmod(j, _PREFIX_BLOCK)
        run = np.empty(r + 1)
        form(j - r, run)
        np.add.accumulate(run, out=run)
        return float(before[i] + run[-1])

    return S


def _d2_volume(B: float, weights: np.ndarray, logs: np.ndarray):
    """Exact-formula b(T) at d = 2, where D = psi and b_inf(R) = sinh^2(B R).

    With x_m = B (T - log m), sinh^2 x = e^(2x)/4 + e^(-2x)/4 - 1/2 gives

        b(T) = e^(2BT)/4 S_(-2B)(k) + e^(-2BT)/4 S_(2B)(k) - S_0(k)/2
               + sum_{k < m <= e^T} psi(m) sinh^2(x_m),

    S_beta(k) = sum_{m <= k} psi(m) m^beta, and k the last m with
    x_m >= c = _NEAR.  The three S are `_blocked_sums` over the sieve: each
    holds n / 2^10 block totals, and a call forms and sums again the terms
    of k's own block up to k, at most 2^10 per sum, so its cost does not
    grow with n.  The near terms m > k, about a tenth of all at B = 1, are
    summed directly by numpy's pairwise sum, whose cost grows with their
    number.

    Range.  The callable's checks give B T <= 350, so e^(+-2BT) and every
    m^(+-2B), m <= e^T_max, lie within e^(+-701), inside the normal
    floats.  S_(2B) is held times 2^-200, an exact scaling that depends on
    B and m only: its terms are at most e^700 psi(m) 2^-200 < 2^810 m^2,
    so any prefix shorter than 2^63 terms sums below 2^1000.

    Error bound, u = 2^-53, to first order, taking libm's exp, pow, sinh
    and log within 1 ulp.  Split b = F + N into the far part
    F = sum_{m <= k} psi(m) sinh^2 x_m and the near part N.
      - Far.  Each far term is the sum of three components whose absolute
        values add to psi(m) cosh^2 x_m, so the components' rounding, taken
        relative to A = sum_{m <= k} psi(m) cosh^2 x_m = F + S_0(k), reaches
        F scaled by A/F <= coth^2 c (about 100).  Relative to A it is at
        most (min(k, 2^10) + k / 2^10 + 4) u from each psi(m) m^beta and
        `_blocked_sums`, plus (2BT + 5) u from exp of the rounded 2BT (the
        conditioning of e^(2BT) at a float T), the products and the two
        additions.
      - Near.  Here x_m < c, so x coth x <= 1.004.  Each term is within 10u
        of its value at x_m shifted by B d_m, where |d_m| <= 2uT is the
        rounding of log m: the change of b under a shift of T by 2uT, the
        conditioning of b at a float T.  The pairwise sum of the n - k
        positive terms adds (log2(n - k) + 26) u.
    So, with the last addition,

        |b' - b| <= (min(k, 2^10) + k / 2^10 + 2BT + 9) u A
                    + (log2(n - k) + 36) u N + |b(T +- 2uT) - b(T)| + u b.

    The third term is the conditioning of b at a float T: about
    2uT b'(T)/b(T) relative to b.  Relative to b, the first two come to
    1.9e-13 at (B, T) = (1, 13.1) and 8.0e-13 at (0.5, 13.1).  Their
    largest value over 0.02 <= B <= 1.98 and T <= 13.1 is 3.7e-12, at
    (0.1, 13.1), where A/F = 40: for small B most far x_m stay near c.
    Against `tests/oracles.adelic_volume_d2` the measured error is below
    1e-14 at every point checked: 2B an integer up to T = 13.1, and
    B = 0.02 and 1.98 up to T = 9.  One running sum in place of
    `_blocked_sums` drops the terms of S_(-2B) below half an ulp of the sum
    and measures 5e-12 at (2, 13.1).
    """
    # psi(m) m^beta 2^-scale, formed by in-place products in the set-up and
    # in each call alike (`**=` takes the scalar fast paths of `**`, so the
    # bits are those of m ** beta)
    def powers(beta: float, scale: float):
        def form(lo: int, out: np.ndarray) -> None:
            out[:] = np.arange(lo + 1, lo + 1 + out.size)
            out **= beta
            out *= scale
            out *= weights[lo : lo + out.size]

        return form

    def psi(lo: int, out: np.ndarray) -> None:
        out[:] = weights[lo : lo + out.size]

    n = weights.size
    s_zero = _blocked_sums(psi, n)
    s_minus = _blocked_sums(powers(-2.0 * B, 1.0), n)
    s_plus = _blocked_sums(powers(2.0 * B, 2.0**-_SCALE_BITS), n)
    near = _NEAR / B

    def b(T: float) -> float:
        n = int(np.searchsorted(logs, T, side="right"))
        k = int(np.searchsorted(logs, T - near, side="right"))
        far = 0.0
        if k:
            grow = 0.25 * math.exp(2.0 * B * T)
            decay = 0.25 * math.ldexp(math.exp(-2.0 * B * T), _SCALE_BITS)
            far = grow * s_minus(k - 1) + decay * s_plus(k - 1) - 0.5 * s_zero(k - 1)
        return far + float(np.sum(weights[k:n] * np.sinh(B * (T - logs[k:n])) ** 2))

    return b


def adelic_volume_callable(d: int, B: float, T_max: float, max_sieve: int | None = None):
    """b(T) = sum_{m <= e^T} D(m) * b_inf(T - log m) as a callable on (0, T_max].

    The weights are read from the coefficient store of d.  At d = 2, b(T)
    is the exact formula of `_d2_volume`: three prefix sums over the sieve
    and the few terms with B (T - log m) < 0.1, exact up to a rounding error
    bounded there.  At d >= 3, b_inf is interpolated on a volume table
    (step 1e-3, linear) up to T_max, built for this callable.  For every d
    the table's domain and then the sieve budget are checked, in that
    order, before any work, so d = 2 refuses what the table would.  Every
    b(T) in the package is built here.
    """
    if not (T_max > 0):
        raise DomainError(f"need T_max > 0, got T_max={T_max}")
    _table_domain(d, B, T_max)
    weights, logs = _sieve(d, T_max, max_sieve)
    if d == 2:
        volume = _d2_volume(B, weights, logs)
    else:
        table = ball_volume_table(d, B, T_max)

        def volume(T: float) -> float:
            return _convolve(T, logs, weights, table.r_grid, table.values)

    def b(T: float) -> float:
        if not (0 < T <= T_max * (1 + 1e-12)):
            raise DomainError(f"T={T} outside (0, {T_max}]")
        return volume(T)

    return b


def adelic_ball_volume(d: int, B: float, T: float, max_sieve: int | None = None) -> float:
    """Global ball volume b(T), from a callable built up to T."""
    return adelic_volume_callable(d, B, T, max_sieve)(T)


@dataclass(frozen=True)
class BallVolumeSeries:
    """b(T) sampled on an increasing grid."""

    d: int
    B: float
    T_grid: tuple[float, ...]
    values: tuple[float, ...]


def adelic_ball_series(d: int, B: float, T_grid, max_sieve: int | None = None) -> BallVolumeSeries:
    """Evaluate b(T) across an increasing grid with one callable."""
    grid = [float(t) for t in T_grid]
    if len(grid) == 0 or any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("T_grid must be nonempty and strictly increasing")
    if not (grid[0] > 0):
        raise DomainError(f"need T > 0, got {grid[0]}")
    b = adelic_volume_callable(d, B, grid[-1], max_sieve)
    return BallVolumeSeries(d, B, tuple(grid), tuple(map(b, grid)))


# ---------------------------------------------------------------------------
# counting prediction


@dataclass(frozen=True)
class PredictionReport:
    """Main-term prediction a*C*(BT)^(r-1)*e^(E*T)/covolume.

    The radial growth rate carries a factor-two ambiguity between
    conventions in circulation (density e^(2 rho) against e^rho), so the
    value is reported under the measured exponent and under both E = B and
    E = 2B, explicitly labeled.
    """

    d: int
    B: float
    T: float
    covolume: float
    simplex_factor: float
    series_constant: float
    rank: int
    measured_exponent: float
    value_measured: float
    value_exponent_B: float
    value_exponent_2B: float


def prediction_N(d: int, B: float, T: float, covolume: float = 1.0) -> PredictionReport:
    """Predicted count of classes with height <= e^T.

    C is the height series evaluated at s = B and a is the cross-section
    simplex area.  Below the series abscissa max(d, s_2(d)) the evaluation
    is an analytic continuation, not a convergent sum; a warning is issued
    and the value still returned.
    """
    if d < 2 or d > 4:
        raise DomainError(f"prediction_N supports 2 <= d <= 4, got {d}")
    if not (covolume > 0):
        raise DomainError(f"need covolume > 0, got {covolume}")
    if not (T >= 0):
        raise DomainError(f"need T >= 0, got {T}")
    if math.inf in (covolume, T):
        raise DomainError(f"need a finite covolume and T, got {covolume}, {T}")
    if not (B > float(d)):
        raise DomainError(
            f"B={B} is at or below the aggregate abscissa {d}; "
            "the series constant diverges there"
        )
    threshold = max(float(d), pole_abscissas(d).B0)
    if B <= threshold:
        warnings.warn(
            f"B={B} is at or below the per-prime abscissa {threshold:.6g}; "
            "the prediction formula is outside its validity range",
            RuntimeWarning,
            stacklevel=2,
        )
    a = simplex_area(d)
    C = L_euler(d, complex(B)).value.real
    rank = d - 1
    radii = np.linspace(2.0 / B, 2.0 / B + 4.0, 9)
    table = ball_volume_table(d, B, float(radii[-1]))
    vols = [table(float(r)) for r in radii]
    measured = growth_exponent_fit(radii, vols).slope
    top = max(measured, 2 * B)  # the largest E of the three values
    if top * T > _LOG_FLOAT_MAX:
        raise DomainError(f"e^(E T) passes float range at T={T}, E={top:.6g}")

    values = [a * C * (B * T) ** (rank - 1) * math.exp(E * T) / covolume for E in (measured, B, 2 * B)]
    if not all(map(math.isfinite, values)):
        raise DomainError(f"the predicted count passes float range at T={T}, covolume={covolume}")
    return PredictionReport(
        d=d,
        B=B,
        T=T,
        covolume=covolume,
        simplex_factor=a,
        series_constant=C,
        rank=rank,
        measured_exponent=measured,
        value_measured=values[0],
        value_exponent_B=values[1],
        value_exponent_2B=values[2],
    )


# ---------------------------------------------------------------------------
# regularity


@dataclass(frozen=True)
class RegularityReport:
    """Tail ratio estimates per shift size, their extrapolated small-shift
    trend, and the verdict under the documented thresholds."""

    eps_list: tuple[float, ...]
    lower_ratios: tuple[float, ...]
    upper_ratios: tuple[float, ...]
    lower_trend: float
    upper_trend: float
    gap: float
    verdict: str


REGULAR_TOL = 0.02
NON_REGULAR_GAP = 0.1


def _shifts(eps_list) -> list[float]:
    """The distinct shifts of a regularity report, largest first; each
    must be finite and positive."""
    eps = {float(e) for e in eps_list}
    if not eps or not all(0 < e < math.inf for e in eps):
        raise DomainError("eps_list must contain positive shifts")
    return sorted(eps, reverse=True)


def regularity_report(b, eps_list, T_list) -> RegularityReport:
    """Estimate liminf_T b(T-eps)/b(T) and limsup_T b(T+eps)/b(T).

    b is a callable.  Ratios are taken over the larger-T half of T_list.
    Verdict: regular when both smallest-shift ratios are within 0.02 of 1,
    non-regular when the worst deviation exceeds 0.1, inconclusive
    between.  The trend fields extrapolate the
    two smallest shifts linearly to eps = 0.
    """
    eps = _shifts(eps_list)
    T = sorted(float(t) for t in T_list)
    if len(T) < 4:
        raise DomainError(f"need at least 4 T samples, got {len(T)}")
    tail = T[len(T) // 2 :]
    centers = [b(t) for t in tail]
    if min(centers) <= 0:
        raise DomainError("b must be positive on the evaluated tail")
    lower, upper = [], []
    for e in eps:
        lower.append(min(b(t - e) / c for t, c in zip(tail, centers)))
        upper.append(max(b(t + e) / c for t, c in zip(tail, centers)))
    if len(eps) >= 2:
        e0, e1 = eps[-1], eps[-2]
        slope = e0 / (e1 - e0)
        lower_trend = lower[-1] + (lower[-1] - lower[-2]) * slope
        upper_trend = upper[-1] + (upper[-1] - upper[-2]) * slope
    else:
        lower_trend, upper_trend = lower[-1], upper[-1]
    gap = max(abs(1.0 - lower[-1]), abs(upper[-1] - 1.0))
    if gap <= REGULAR_TOL:
        verdict = "regular"
    elif gap > NON_REGULAR_GAP:
        verdict = "non-regular"
    else:
        verdict = "inconclusive"
    return RegularityReport(
        eps_list=tuple(eps),
        lower_ratios=tuple(lower),
        upper_ratios=tuple(upper),
        lower_trend=lower_trend,
        upper_trend=upper_trend,
        gap=gap,
        verdict=verdict,
    )


def tree_ball(q: int, T: float) -> int:
    """Vertices within distance T of a root in the (q+1)-regular tree.

    Breadth-first truth: 1 + (q+1)(q^k - 1)/(q - 1) with k = floor(T);
    shell j >= 1 holds (q+1) q^(j-1) vertices.
    """
    if not isinstance(q, int) or q < 2:
        raise DomainError(f"need integer q >= 2, got {q!r}")
    if not (T >= 0):
        raise DomainError(f"need T >= 0, got {T}")
    if T == math.inf:
        raise DomainError(f"need a finite T, got {T}")
    k = int(math.floor(T + 1e-12))
    return 1 + (q + 1) * (q**k - 1) // (q - 1)


# ---------------------------------------------------------------------------
# persistence of the dominant asymptotic


@dataclass(frozen=True, eq=False)
class MeasurePair:
    """Point-mass measure mu, sampled cumulative nu, and the asymptotic
    parameters (alpha, beta) with C = sum mass * e^(-beta * location).

    The samples are held as float arrays: `masses` of shape (n, 2), one
    (location, mass) row per point mass, and 1-d `nu_grid`, `nu_values`.
    Sequences such as tuples of pairs are converted on construction, and
    rows out of order are stably sorted by location; a float64 array
    already in order is held without a copy.
    """

    masses: np.ndarray
    nu_grid: np.ndarray
    nu_values: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        masses = np.asarray(self.masses, dtype=float)
        if masses.size == 0:
            raise DomainError("mu needs at least one point mass")
        if masses.ndim != 2 or masses.shape[1] != 2:
            raise DomainError("mu point masses must be (location, mass) pairs")
        if np.any((masses[:, 0] < 0) | (masses[:, 1] <= 0)):
            raise DomainError("mu point masses need location >= 0 and mass > 0")
        if np.any(masses[1:, 0] < masses[:-1, 0]):
            masses = masses[np.argsort(masses[:, 0], kind="stable")]
        if self.alpha < 0 or self.beta <= 0:
            raise DomainError(f"need alpha >= 0 and beta > 0, got {self.alpha}, {self.beta}")
        grid = np.asarray(self.nu_grid, dtype=float)
        values = np.asarray(self.nu_values, dtype=float)
        if grid.ndim != 1 or len(grid) < 2 or grid.shape != values.shape:
            raise DomainError("nu needs matching grids of length >= 2")
        if np.any(grid[1:] <= grid[:-1]):
            raise DomainError("nu grid must be strictly increasing")
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "nu_grid", grid)
        object.__setattr__(self, "nu_values", values)

    @cached_property
    def C(self) -> float:
        # libm exp via `_exp`, math.exp's bits at -beta * loc <= 0 (numpy's
        # float64 exp can differ in the last bit); fsum takes a chunk at a time
        def chunk(rows: np.ndarray) -> list[float]:
            locs, mass = rows.T
            return (mass * _exp((-self.beta * locs, np.zeros_like(locs)))[0]).tolist()

        rows = self.masses
        return math.fsum(
            itertools.chain.from_iterable(chunk(rows[a : a + _C_CHUNK]) for a in range(0, len(rows), _C_CHUNK))
        )


def persistence_check(pair: MeasurePair, T: float) -> tuple[float, float]:
    """d(T) = sum_{loc <= T} mass * nu([0, T - loc]) and its ratio to the
    dominant term C * T^alpha * e^(beta T).

    nu is interpolated, never extrapolated: a T - loc outside the nu grid
    raises DomainError."""
    if not (T > 0):
        raise DomainError(f"need T > 0, got {T}")
    grid = pair.nu_grid
    locs, mass = pair.masses.T
    count = int(np.searchsorted(locs, T + 1e-12, side="right"))
    if count and T - locs[0] > grid[-1] + 1e-9:
        raise DomainError(
            f"nu sampled only up to {grid[-1]:.6g} but T - location reaches "
            f"{float(T - locs[0]):.6g}; extend the nu range"
        )
    if count and T - locs[count - 1] < grid[0] - 1e-9:
        raise DomainError(
            f"nu sampled only from {grid[0]:.6g} but T - location falls to "
            f"{float(T - locs[count - 1]):.6g}; extend the nu range"
        )
    d_T = _convolve(T, locs, mass, grid, pair.nu_values)
    dominant = pair.C * T**pair.alpha * math.exp(pair.beta * T)
    return d_T, d_T / dominant


def pgl2_measure_pair(
    T_max: float = 12.0,
    B: float = 1.0,
    max_sieve: int | None = None,
) -> MeasurePair:
    """The height-count pair for d = 2: masses D(m)/m^B at log m for every
    m <= e^T_max, against nu([0, t]) = e^(2t).

    C then equals sum_{m <= e^T_max} D(m)/m^(B+2), the truncated series whose
    tail is at most (log x + 2)/x at x = e^T_max (since D(m) <= m(1 + log m)),
    so the measured ratio converges to 1 as T grows.
    """
    if not (T_max > 0):
        raise DomainError(f"need T_max > 0, got {T_max}")
    if not (0 < B < math.inf):
        raise DomainError(f"need 0 < B < inf, got B={B}")
    weights, logs = _sieve(2, T_max, max_sieve)
    m = np.arange(1, weights.size + 1, dtype=float)
    grid = np.linspace(0.0, T_max, int(T_max * 1000) + 1)
    return MeasurePair(
        masses=np.column_stack((logs, weights / m**B)),
        nu_grid=grid,
        nu_values=np.exp(2.0 * grid),
        alpha=0.0,
        beta=2.0,
    )


def covering_number_box(n: int, T: float, delta: float) -> tuple[int, float]:
    """Minimal number of delta-boxes covering the T-box in max norm, with the
    overlap ratio count * (delta/T)^n; grid covering is optimal for boxes."""
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"need integer n >= 1, got {n!r}")
    if not (0 < delta < T):
        raise DomainError(f"need 0 < delta < T, got delta={delta}, T={T}")
    if T == math.inf:
        raise DomainError(f"need a finite T, got {T}")
    q = T / delta
    if abs(q - round(q)) < 1e-9 * max(1.0, abs(q)):
        q = round(q)
    per_axis = int(math.ceil(q))
    count = per_axis**n
    return count, count * (delta / T) ** n
