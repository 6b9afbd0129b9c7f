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
y = rho(X) = sum_k t_k in [0, B R].  `ball_volume_numeric` (d <= 6) sums
an exact power series in B R with nonnegative rational coefficients.
`ball_volume_table` (d <= 4) integrates y^(rank-1) times the cross-section
integral `_section_integral` (tensor Gauss-Legendre) by cumulative Simpson
on a 1e-3 radius grid, one table serving many radii.  For d = 2 both come
to (cosh(2 B R) - 1) / 2.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

_TRACE_TOL = 1e-12
# ball_volume_numeric: largest B * R, where b_inf is below 2^1024 for d <= 6
_MAX_BR = 350.0
# ball_volume_table: radius spacing of the cumulative table
_TABLE_STEP = 1e-3
# floats per chunk of the radius x cross-section x d grid (32 MB)
_CHUNK_FLOATS = 1 << 22


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
    return math.exp(norm_b(logs - logs.mean(), B))


def _simplex_nodes(n: int, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the standard simplex {v >= 0, sum v <= 1} in R^n.

    Tensor Gauss-Legendre on the unit cube pushed through the collapsing
    map v_i = u_i * prod_{l<i} (1 - u_l), whose Jacobian is
    prod_l (1 - u_l)^(n - 1 - l).  n = 0 returns the single point of the
    zero-dimensional simplex with weight 1.
    """
    if n == 0:
        return np.zeros((1, 0)), np.ones(1)
    nodes_1d, weights_1d = np.polynomial.legendre.leggauss(q)
    u1 = (nodes_1d + 1.0) / 2.0
    w1 = weights_1d / 2.0
    grids = np.meshgrid(*([u1] * n), indexing="ij")
    u = np.stack([g.reshape(-1) for g in grids], axis=-1)
    w = np.ones(u.shape[0])
    for axis in range(n):
        w *= np.meshgrid(*([w1] * n), indexing="ij")[axis].reshape(-1)
    v = np.empty_like(u)
    jac = np.ones(u.shape[0])
    remaining = np.ones(u.shape[0])
    for i in range(n):
        v[:, i] = u[:, i] * remaining
        jac *= remaining
        remaining = remaining * (1.0 - u[:, i])
    return v, w * jac


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


def _pair_density(x_grid: np.ndarray, d: int) -> np.ndarray:
    out = np.ones(x_grid.shape[:-1])
    for i, j in itertools.combinations(range(d), 2):
        out = out * np.sinh(x_grid[..., i] - x_grid[..., j])
    return out


def _section_integral(d: int, y: np.ndarray) -> np.ndarray:
    """Integral of the Cartan density over the cross-section at each radius y.

    The cross-section {rho(X) = y} of the dominant sector is y times the
    simplex spanned by the rows w_k; its points are y * (sigma @ W) for
    sigma in the standard simplex, integrated by the 24-point-per-axis rule
    of `_simplex_nodes` in the first rank - 1 coordinates.  The y x simplex
    x d grid is built _CHUNK_FLOATS floats at a time, so memory does not
    grow with the number of radii.
    """
    system = RootSystemA(d)
    rank = system.rank
    v, wv = _simplex_nodes(rank - 1, 24)
    sigma = np.empty((v.shape[0], rank))
    sigma[:, : rank - 1] = v
    sigma[:, rank - 1] = 1.0 - v.sum(axis=1)
    directions = sigma @ system.coweight_directions()
    rows = max(1, _CHUNK_FLOATS // directions.size)
    out = np.empty(y.size)
    for lo in range(0, y.size, rows):
        x_grid = y[lo : lo + rows, None, None] * directions[None, :, :]
        out[lo : lo + rows] = _pair_density(x_grid, d) @ wv
    return out


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


def ball_volume_numeric(d: int, B: float, R: float) -> float:
    """Normalised-measure volume of the radial ball {norm_b <= R}, d <= 6.

    On the cone X = sum_k t_k w_k (t >= 0, sum t = rho(X) <= s = B R) each
    X_i - X_j is a nonnegative combination of the t_k.  Expanding the
    exponentials of `_weyl_rates` and integrating powers of linear forms
    over the simplex (Baldoni et al., "How to integrate a polynomial over a
    simplex", 2011) gives, with r = d - 1 and h_j the complete homogeneous
    polynomial, b_inf(R) = jac * sum_j alpha_j s^(j + r), where every
    alpha_j = 2^(-N) sum_w sgn(w) h_j(c_w) / (j + r)! is >= 0.  The partial
    sum is exact in rationals (s = Fraction(B) * Fraction(R)), rounded once
    to float and multiplied by jac.

    Stopping rule: the density is coefficientwise at most e^(2 rho(X)), so
    alpha_j s^(j + r) <= beta_j = (2s)^j s^r / (j! (r - 1)! (j + r)) and
    beta_(j+1) / beta_j <= 2s / (j + 1).  Once J + 2 > 2s the terms past J
    sum to at most beta_(J+1) / (1 - 2s / (J + 2)); the sum stops at the
    first such J where that is at most 2^-60 of the partial sum.
    """
    if d < 2 or d > 6:
        raise DomainError(f"ball_volume_numeric supports 2 <= d <= 6, got {d}")
    if not (B > 0 and R >= 0 and B * R <= _MAX_BR):
        raise DomainError(f"need B > 0, R >= 0 and B R <= {_MAX_BR}, got B={B}, R={R}")
    from fractions import Fraction

    r, (L, groups) = d - 1, _weyl_rates(d)
    s = Fraction(B) * Fraction(R)
    rows = [[1] * d for _ in groups]  # rows[g][k] = h_j(first k rates of group g)
    denom, total = 2 ** (d * r // 2) * math.factorial(r), Fraction(0)  # 2^N L^j (j + r)!
    for j in itertools.count():
        a_j = sum(sign * row[r] for (_, sign), row in zip(groups, rows))
        total += Fraction(a_j, denom) * s ** (j + r)
        if j + 2 > 2 * s:
            beta = (2 * s) ** (j + 1) * s**r
            beta /= math.factorial(j + 1) * math.factorial(r - 1) * (j + 1 + r)
            if beta * 2**60 <= total * (1 - 2 * s / (j + 2)):
                break
        denom *= L * (j + 1 + r)
        for (rates, _), row in zip(groups, rows):
            row[0] = 0
            for k in range(1, d):
                row[k] = row[k - 1] + rates[k - 1] * row[k]
    return _sector_jacobian(RootSystemA(d)) * float(total)


def ball_volume_table(d: int, B: float, R_max: float):
    """Cumulative radial volumes on a fine grid, returned as an interpolant.

    Integrates the radial profile g(y) = y^(rank-1) * (cross-section
    integral, 24 points per axis) with composite Simpson at spacing
    B * _TABLE_STEP / 2, so each table entry b(R_j), R_j = j * _TABLE_STEP,
    shares all panels with its predecessors.  The returned callable
    interpolates linearly and raises DomainError beyond R_max.
    """
    if d < 2 or d > 4:
        raise DomainError(f"ball_volume_table supports 2 <= d <= 4, got {d}")
    if not (B > 0) or not (R_max > 0):
        raise DomainError(f"bad table parameters B={B}, R_max={R_max}")
    system = RootSystemA(d)
    jac = _sector_jacobian(system)
    rank = system.rank
    n_steps = int(math.ceil(R_max / _TABLE_STEP - 1e-9))
    r_grid = _TABLE_STEP * np.arange(n_steps + 1)
    h = B * _TABLE_STEP / 2.0
    y = h * np.arange(2 * n_steps + 1)
    g = _section_integral(d, y) * y ** (rank - 1)
    if rank == 1:
        g[0] = 0.0  # y^0 * sinh(2y) vanishes at 0; avoid 0**0 ambiguity
    panels = (h / 3.0) * (g[0:-2:2] + 4.0 * g[1::2] + g[2::2])
    values = np.concatenate([[0.0], np.cumsum(panels)]) * jac

    def interpolate(r: float) -> float:
        if not (0.0 <= r <= R_max * (1 + 1e-12) + 1e-12):
            raise DomainError(f"radius {r} outside table range [0, {R_max}]")
        return float(np.interp(min(r, float(r_grid[-1])), r_grid, values))

    interpolate.r_grid = r_grid
    interpolate.values = values
    interpolate.R_max = R_max
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
