"""Archimedean side of the height count: Cartan coordinates on SL_d(R)/SO(d).

Working coordinates are trace-zero vectors X in R^d (logarithms of the
singular values of a unimodular representative).  The height norm is

    norm_b(X, B) = (1 / (2 B)) * sum_{i < j} |X_i - X_j|,

i.e. the half-sum-of-roots functional on the dominant chamber, rescaled
so that the ball of radius R is {norm_b <= R}.  All volumes use the
invariant measure normalised so this functional has unit covector
length; concretely that multiplies the standard Lebesgue measure on the
trace-zero hyperplane by lam^(m/2) where lam = sum_i ((d+1-2i)/2)^2 and
m is the dimension being measured.

The radial ball volume is

    b_inf(R) = integral over {X dominant, norm_b(X, B) <= R} of
               prod_{i<j} sinh(X_i - X_j) dX,

taken over the cone X = sum_k t_k w_k (t >= 0) with radial coordinate
y = rho(X) = sum_k t_k in [0, B R].  One evaluator, `_series`, gives it
as a power series in B R with nonnegative rational coefficients, exact in
integers, for 2 <= d <= 6 and B R <= 350.  `ball_volume_numeric` rounds
its exact sum once; `ball_volume_table` cuts it once at the top of a
1e-3 radius grid and sums the same float terms at every node by Horner.
For d = 2 both come to (cosh(2 B R) - 1) / 2.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetError, DomainError

_TRACE_TOL = 1e-12
# largest B * R of the volume series, where b_inf is below 2^1024 for d <= 6
_MAX_BR = 350.0
# log 2, for the float test that decides most stops of `_series`
_LN2 = math.log(2)
# ball_volume_table: radius spacing of its grid, and the most nodes it
# builds (R_max <= 1000, about 32 MB of temporaries)
_TABLE_STEP = 1e-3
_TABLE_MAX_NODES = 10**6 + 1
# the largest t with a finite e^t
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def as_chamber_vector(x) -> np.ndarray:
    """Validate and return a trace-zero coordinate vector as float ndarray."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise DomainError(f"chamber vector must be 1-d with length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("chamber vector has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(arr))))
    if abs(float(arr.sum())) > _TRACE_TOL * scale * arr.size:
        raise DomainError(f"chamber vector must sum to zero, got sum {arr.sum()!r}")
    return arr


@dataclass(frozen=True)
class RootSystemA:
    """Type A_{d-1} root data on the trace-zero hyperplane of R^d."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 2:
            raise DomainError(f"need d >= 2, got {self.d}")

    @property
    def rank(self) -> int:
        return self.d - 1

    @property
    def positive_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((i, j) for i in range(self.d) for j in range(i + 1, self.d))

    def rho_coefficients(self) -> np.ndarray:
        """Coefficients c with rho(X) = sum_i c_i X_i; c_i = (d+1-2i)/2, i from 1."""
        d = self.d
        return np.array([(d + 1 - 2 * i) / 2 for i in range(1, d + 1)])

    @property
    def rho_norm_sq(self) -> float:
        """Standard-metric squared length of rho (the scale factor lam)."""
        return float(np.sum(self.rho_coefficients() ** 2))

    def coweight_directions(self) -> np.ndarray:
        """Rows w_k = omega_k / rho(omega_k), the edges of the unit-rho simplex.

        omega_k = e_1 + ... + e_k - (k/d) * ones has rho(omega_k) = k(d-k)/2,
        and X = sum_k t_k w_k is dominant with rho(X) = sum_k t_k whenever
        every t_k >= 0.
        """
        d = self.d
        rows = []
        for k in range(1, d):
            omega = np.full(d, -k / d)
            omega[:k] += 1.0
            rows.append(omega / (k * (d - k) / 2))
        return np.array(rows)


def rho_value(x) -> float:
    """Half-sum-of-roots functional rho(X) = (1/2) sum_{i<j} (X_i - X_j) on dominant X,
    evaluated as sum_i c_i X_i so it is defined for every trace-zero X."""
    arr = as_chamber_vector(x)
    return float(np.dot(RootSystemA(arr.size).rho_coefficients(), arr))


def norm_b(x, B: float) -> float:
    """Height norm (1 / (2 B)) sum over pairs of |X_i - X_j|."""
    arr = as_chamber_vector(x)
    if not (B > 0):
        raise DomainError(f"need B > 0, got {B}")
    return sum(abs(a - b) for a, b in itertools.combinations(arr, 2)) / (2.0 * B)


def cartan_density(x) -> float:
    """Radial density prod_{i<j} sinh(X_i - X_j); requires X in the closed
    dominant chamber (weakly decreasing entries)."""
    arr = as_chamber_vector(x)
    if np.any(np.diff(arr) > _TRACE_TOL * max(1.0, float(np.max(np.abs(arr))))):
        raise DomainError("cartan_density needs a dominant (weakly decreasing) vector")
    return math.prod(math.sinh(max(a - b, 0.0)) for a, b in itertools.combinations(arr, 2))


def archimedean_height(g, B: float) -> float:
    """exp(norm_b(X, B)) where X is the centred log-singular-value vector of g.

    g is any real d x d matrix with nonzero determinant; the determinant is
    factored out by centring, so the height only sees the image of g in the
    projective group.
    """
    mat = np.asarray(g, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
        raise DomainError(f"need a square matrix of size >= 2, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise DomainError("matrix has non-finite entries")
    sigma = np.linalg.svd(mat, compute_uv=False)
    if sigma[-1] <= 0.0:
        raise DomainError("matrix is singular")
    if sigma[-1] / sigma[0] < 1e-14:
        warnings.warn(
            "singular value ratio below 1e-14; log-singular values are ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    logs = np.log(sigma)
    exponent = norm_b(logs - logs.mean(), B)
    if exponent > _LOG_FLOAT_MAX:
        raise DomainError(f"the archimedean height e^{exponent:.6g} passes float range")
    return math.exp(exponent)


def _sector_jacobian(system: RootSystemA) -> float:
    """Volume factor of the cone parametrisation t -> sum t_k w_k.

    The map sends Lebesgue measure on t-space to sqrt(det(W W^T)) times
    standard Lebesgue measure on the trace-zero hyperplane; the normalised
    measure adds lam^(rank/2).
    """
    w_rows = system.coweight_directions()
    gram = w_rows @ w_rows.T
    det = float(np.linalg.det(gram))
    return system.rho_norm_sq ** (system.rank / 2.0) * math.sqrt(det)


@lru_cache(maxsize=None)
def _weyl_rates(d: int) -> tuple[int, tuple[tuple[tuple[int, ...], int], ...]]:
    """Exponents of prod_{i<j} sinh(X_i - X_j) = 2^(-N) sum_{w in S_d} sgn(w)
    exp(<l_w, X>), N = d(d-1)/2, l_w = (d + 1 - 2 w(i))_i, on the cone: at
    X = sum_k t_k w_k the exponent is sum_k c_{w,k} t_k, c_{w,k} = <l_w, w_k>
    in [-2, 2].  Returns L = lcm_k k (d - k) and the distinct sorted integer
    tuples L c_w with their summed signs, cancelled ones dropped."""
    L = math.lcm(*(k * (d - k) for k in range(1, d)))
    signs: dict[tuple[int, ...], int] = {}
    for w in itertools.permutations(range(1, d + 1)):
        ell = [d + 1 - 2 * v for v in w]  # sums to 0, so <l_w, omega_k> = ell_1 + ... + ell_k
        rates = tuple(sorted(2 * L // (k * (d - k)) * sum(ell[:k]) for k in range(1, d)))
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(w, 2))
        signs[rates] = signs.get(rates, 0) + sign
    return L, tuple(item for item in signs.items() if item[1])


def _check_series_domain(d: int, B: float, R: float) -> None:
    if d < 2 or d > 6:
        raise DomainError(f"ball volumes support 2 <= d <= 6, got {d}")
    if not (B > 0 and R >= 0 and B * R <= _MAX_BR):
        raise DomainError(f"need B > 0, R >= 0 and B R <= {_MAX_BR}, got B={B}, R={R}")


def _series(d: int, B: float, R: float) -> tuple[list[float], float]:
    """Terms alpha_j s^(j + r) of the ball-volume series at s = B R, each
    rounded to float, and their exact sum rounded once; b_inf(R) is jac
    times the sum.

    On the cone X = sum_k t_k w_k (t >= 0, sum t = rho(X) <= s) each
    X_i - X_j is a nonnegative combination of the t_k.  Expanding the
    exponentials of `_weyl_rates` and integrating powers of linear forms
    over the simplex (Baldoni et al., "How to integrate a polynomial over a
    simplex", 2011) gives, with r = d - 1 and h_j the complete homogeneous
    polynomial, b_inf(R) = jac * sum_j alpha_j s^(j + r), where every
    alpha_j = 2^(-N) sum_w sgn(w) h_j(c_w) / (j + r)! is >= 0.  With
    s = P / Q exact from the float ratios of B and R, term j is an integer
    over 2^N (j + r)! L^j Q^(j + r), and the partial sum is kept as an
    integer over that running denominator.

    Stopping rule: the density is coefficientwise at most e^(2 rho(X)), so
    alpha_j s^(j + r) <= beta_j = (2s)^j s^r / (j! (r - 1)! (j + r)) and
    beta_(j+1) / beta_j <= 2s / (j + 1).  Once J + 2 > 2s the terms past J
    sum to at most beta_(J+1) / (1 - 2s / (J + 2)); the sum stops at the
    first such J where that is at most 2^-60 of the partial sum.  With
    denominators cleared this is an integer comparison lhs <= rhs of
    products of several thousand bits.  It is decided first on the floats
    x = log lhs and y = log rhs, each a sum of at most six nonnegative
    terms: stop when x < y - delta, go on when x > y + delta, with
    delta = 1e-9 y + 1e-9.  The integers are compared only inside that
    band, or when P or the partial sum is 0 and a log is undefined.

    No decision can flip.  Each term is a small integer times a log, the
    `math.log` of an int (rounded to 53 bits first, and split as
    log m + e log 2 by CPython when it overflows a double) or CPython's
    `math.lgamma` at an integer, each within a few units in the last place
    of its value: within 16u of it plus 2u, u = 2^-53.  The five
    additions add at most 5u of the sum, so each computed side is within
    2^-40 (x + 1), resp. 2^-40 (y + 1), of the exact log.  The computed
    gap D = x - y is then off from the exact one by at most
    2^-40 (x + y + 3) <= 2^-40 (2 y + |D| + 3), which is below |D|
    whenever |D| > delta >= 2^-29 (y + 1): such a D has the sign of the
    exact gap, and the decision is the integer comparison's.
    """
    _check_series_domain(d, B, R)
    r, (L, groups) = d - 1, _weyl_rates(d)
    (pb, qb), (pr, qr) = float(B).as_integer_ratio(), float(R).as_integer_ratio()
    P, Q = pb * pr, qb * qr
    rows = [[1] * d for _ in groups]  # rows[g][k] = h_j(first k rates of group g)
    # term j is a_j power / denom: power = P^(j + r), denom = 2^N (j + r)! L^j Q^(j + r)
    power, denom = P**r, 2 ** (d * r // 2) * math.factorial(r) * Q**r
    terms, total = [], 0  # the partial sum is total / denom
    for j in itertools.count():
        a_j = sum(sign * row[r] for (_, sign), row in zip(groups, rows))
        terms.append(a_j * power / denom)
        total += a_j * power
        if (j + 2) * Q > 2 * P:
            # beta_(j+1) 2^60 <= (total / denom) (1 - 2s / (j + 2)), denominators cleared
            gap = (j + 2) * Q - 2 * P
            diff = delta = 0.0  # the logs of both sides, where defined, decide outside the band
            if P and total:
                log_lhs = (j + 61) * _LN2 + math.log(P) + math.log(power) + math.log(denom) + math.log((j + 2) * Q)
                log_rhs = (
                    math.log(total) + math.log(gap) + (j + 1 + r) * math.log(Q)
                    + math.lgamma(j + 2) + math.lgamma(r) + math.log(j + 1 + r)
                )
                diff, delta = log_lhs - log_rhs, 1e-9 * log_rhs + 1e-9
            if diff < -delta:
                break
            if diff <= delta:
                beta_den = Q ** (j + 1 + r) * math.factorial(j + 1) * math.factorial(r - 1) * (j + 1 + r)
                bound = 2 ** (j + 61) * P * power * denom * (j + 2) * Q
                if bound <= total * gap * beta_den:
                    break
        step = L * (j + 1 + r) * Q
        power, denom, total = power * P, denom * step, total * step
        for (rates, _), row in zip(groups, rows):
            row[0] = 0
            for k in range(1, d):
                row[k] = row[k - 1] + rates[k - 1] * row[k]
    return terms, total / denom


def ball_volume_numeric(d: int, B: float, R: float) -> float:
    """Normalised-measure volume of the radial ball {norm_b <= R}, d <= 6:
    jac times the exact sum of the `_series` terms, rounded once."""
    return _sector_jacobian(RootSystemA(d)) * _series(d, B, R)[1]


def _table_domain(d: int, B: float, R_max: float) -> tuple[int, float]:
    """The checks of `ball_volume_table`, in its order: R_max finite and
    positive, at most _TABLE_MAX_NODES nodes (BudgetError), and the series
    domain at the top radius R_top.  Returns (n_steps, R_top), the grid
    having nodes j * _TABLE_STEP for 0 <= j <= n_steps.
    """
    if not (0 < R_max < math.inf):
        raise DomainError(f"need 0 < R_max < inf, got R_max={R_max}")
    n_steps = int(math.ceil(R_max / _TABLE_STEP - 1e-9))
    if n_steps + 1 > _TABLE_MAX_NODES:
        raise BudgetError(f"volume table of {n_steps + 1} nodes exceeds the limit {_TABLE_MAX_NODES} (R_max <= 1000)")
    R_top = max(R_max, _TABLE_STEP * n_steps)
    _check_series_domain(d, B, R_top)
    return n_steps, R_top


def ball_volume_table(d: int, B: float, R_max: float):
    """Radial volumes on the grid R_j = j * _TABLE_STEP, returned as an interpolant.

    The `_series` is cut once, at the top radius R_top of the grid.  At a
    node u = R_j / R_top <= 1 and term j scales by u^(j + r), so the tail's
    share of the partial sum is at most u times its share at R_top, and the
    same float terms serve every node: one vectorised Horner pass sums them,
    adding positive terms only.  The domain is the series': 2 <= d <= 6 and
    B R_top <= 350.  A grid of more than _TABLE_MAX_NODES nodes raises
    BudgetError before anything is allocated.  The returned callable
    interpolates linearly and raises DomainError beyond R_max.
    """
    n_steps, R_top = _table_domain(d, B, R_max)
    r_grid = _TABLE_STEP * np.arange(n_steps + 1)
    terms, _ = _series(d, B, R_top)
    u = r_grid / R_top
    acc = np.zeros_like(u)
    for term in reversed(terms):
        acc *= u
        acc += term
    values = _sector_jacobian(RootSystemA(d)) * (u ** (d - 1) * acc)

    def interpolate(r: float) -> float:
        if not (0.0 <= r <= R_max * (1 + 1e-12) + 1e-12):
            raise DomainError(f"radius {r} outside table range [0, {R_max}]")
        return float(np.interp(min(r, float(r_grid[-1])), r_grid, values))

    interpolate.r_grid = r_grid
    interpolate.values = values
    return interpolate


def simplex_area(d: int) -> float:
    """Normalised-measure (d-2)-volume of the unit-rho cross-section simplex.

    Vertices are w_k = omega_k / rho(omega_k); the edge Gram determinant gives
    the standard volume and lam^((rank-1)/2) converts to the normalised
    measure.  For d = 2 the section is a single point with the convention
    that its zero-dimensional volume is 1.
    """
    system = RootSystemA(d)
    if d == 2:
        return 1.0
    w_rows = system.coweight_directions()
    edges = w_rows[:-1] - w_rows[-1]
    gram = edges @ edges.T
    det = float(np.linalg.det(gram))
    rank = system.rank
    lam = system.rho_norm_sq
    return lam ** ((rank - 1) / 2.0) * math.sqrt(det) / math.factorial(rank - 1)


@dataclass(frozen=True)
class FitResult:
    slope: float
    poly_degree: float
    intercept: float


def growth_exponent_fit(radii, volumes) -> FitResult:
    """Least-squares fit log V = slope * R + poly_degree * log R + intercept.

    Uses only the largest-R half of the samples so transient small-R behaviour
    does not bias the exponent.  Requires at least five samples at strictly
    increasing radii spanning two units or more, with positive volumes.
    """
    r = np.asarray(radii, dtype=float)
    v = np.asarray(volumes, dtype=float)
    if r.ndim != 1 or r.shape != v.shape:
        raise DomainError("radii and volumes must be 1-d arrays of equal length")
    if r.size < 5:
        raise DomainError(f"need at least 5 samples, got {r.size}")
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
        raise DomainError("radii and volumes must be finite")
    if np.any(np.diff(r) <= 0):
        raise DomainError("radii must be strictly increasing")
    if np.any(v <= 0):
        raise DomainError("volumes must be positive")
    if float(r[-1] - r[0]) < 2.0:
        raise DomainError(
            f"radii span {float(r[-1] - r[0]):.3g} < 2; fit would be degenerate"
        )
    start = r.size // 2
    r_fit, v_fit = r[start:], v[start:]
    if r_fit[0] <= 0:
        raise DomainError("fitted radii must be positive for the log R term")
    design = np.stack([r_fit, np.log(r_fit), np.ones_like(r_fit)], axis=-1)
    coeffs, *_ = np.linalg.lstsq(design, np.log(v_fit), rcond=None)
    return FitResult(float(coeffs[0]), float(coeffs[1]), float(coeffs[2]))
