"""Tests for the archimedean radial geometry.

The d = 2 closed form (cosh(2BR) - 1)/2 anchors the volumes; higher rank
values were frozen after Monte Carlo validation and are re-checked here
with a small fixed-seed sampler, and `ball_volume_numeric` is pinned
against the mpmath oracle `volume_by_brion` for d = 2..6.  The series
behind it stops where the oracle `series_by_exact_stop`, which decides
every stop by the exact integer comparison, does.
"""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightcount import (
    BudgetError,
    DomainError,
    FitResult,
    RootSystemA,
    archimedean_height,
    ball_volume_numeric,
    ball_volume_table,
    cartan_density,
    growth_exponent_fit,
    norm_b,
    rho_value,
    simplex_area,
)
from heightcount.archimedean import _series
from oracles import series_by_exact_stop, volume_by_brion


def _d2_closed(B, R):
    return (math.cosh(2 * B * R) - 1) / 2


# ---------------------------------------------------------------------------
# root data and norms


def test_rho_coefficients():
    assert RootSystemA(2).rho_coefficients().tolist() == [0.5, -0.5]
    assert RootSystemA(3).rho_coefficients().tolist() == [1.0, 0.0, -1.0]
    assert RootSystemA(4).rho_coefficients().tolist() == [1.5, 0.5, -0.5, -1.5]


def test_rho_norm_sq():
    assert RootSystemA(2).rho_norm_sq == pytest.approx(0.5)
    assert RootSystemA(3).rho_norm_sq == pytest.approx(2.0)
    assert RootSystemA(4).rho_norm_sq == pytest.approx(5.0)


def test_rank_and_positive_pairs():
    for d in (2, 3, 4, 5):
        system = RootSystemA(d)
        assert system.rank == d - 1
        assert len(system.positive_pairs) == d * (d - 1) // 2


def test_norm_examples():
    assert norm_b([0.5, -0.5], 1.0) == pytest.approx(0.5)
    assert norm_b([1.0, 0.0, -1.0], 1.0) == pytest.approx(2.0)
    assert norm_b([1.0, 0.0, -1.0], 2.0) == pytest.approx(1.0)


def test_norm_is_rho_over_B_on_dominant_vectors():
    # for weakly decreasing X, sum |X_i - X_j| over i < j telescopes to 2 rho(X)
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 5):
        for _ in range(20):
            x = np.sort(rng.normal(size=d))[::-1]
            x -= x.mean()
            for B in (0.5, 1.0, 2.0):
                assert norm_b(x, B) == pytest.approx(rho_value(x) / B)


@given(st.integers(2, 5), st.permutations(list(range(5))), st.floats(0.3, 3.0))
def test_norm_is_permutation_invariant(d, perm, B):
    base = np.linspace(-1.0, 1.0, d)
    base -= base.mean()
    shuffled = base[np.array(perm[:d]).argsort()]
    assert norm_b(shuffled, B) == pytest.approx(norm_b(base, B))


def test_norm_requires_trace_zero():
    with pytest.raises(DomainError):
        norm_b([1.0, 1.0], 1.0)


def test_cartan_density_examples():
    # prod over i < j of sinh(x_i - x_j) for dominant x
    x = [1.0, -1.0]
    assert cartan_density(x) == pytest.approx(math.sinh(2.0))
    x = [1.0, 0.0, -1.0]
    assert cartan_density(x) == pytest.approx(math.sinh(1.0) ** 2 * math.sinh(2.0))
    with pytest.raises(DomainError):
        cartan_density([0.0, 1.0])


# ---------------------------------------------------------------------------
# ball volumes


@pytest.mark.parametrize("R", [0.5, 1.0, 3.0, 5.0])
def test_d2_volume_matches_closed_form(R):
    got = ball_volume_numeric(2, 1.0, R)
    want = _d2_closed(1.0, R)
    assert abs(got - want) <= 1e-9 * want


def test_volume_depends_only_on_BR():
    a = ball_volume_numeric(3, 0.5, 2.0)
    b = ball_volume_numeric(3, 1.0, 1.0)
    assert a == pytest.approx(b, rel=1e-9)
    a = ball_volume_numeric(2, 2.0, 1.5)
    assert a == pytest.approx(_d2_closed(1.0, 3.0), rel=1e-9)


def test_frozen_higher_rank_values():
    frozen = [
        (3, 1.0, 1.0, 4.646299604873e-02),
        (3, 1.0, 2.0, 2.552117668702e00),
        (4, 1.0, 1.5, 1.090533867611e-03),
        (4, 1.0, 2.0, 1.769880610539e-02),
    ]
    for d, B, R, want in frozen:
        got = ball_volume_numeric(d, B, R)
        assert abs(got - want) <= 1e-7 * want


def test_volume_monte_carlo_crosscheck_d3():
    # independent sampler: uniform on the chamber box, weight by the
    # Cartan density, restricted to norm <= R
    rng = np.random.default_rng(2024)
    B, R, n = 1.0, 1.5, 400_000
    t = rng.uniform(0.0, R, size=(n, 2))
    x1 = t.sum(axis=1) / 2 + t[:, 0] / 2  # map (t1, t2) -> dominant coords
    # chamber coords: x = t1*w1 + t2*w2 with rho(x) = t1 + t2
    w1 = np.array([2.0, -1.0, -1.0]) / 3.0
    w2 = np.array([1.0, 1.0, -2.0]) / 3.0
    x = t[:, :1] * w1 + t[:, 1:] * w2
    inside = t.sum(axis=1) <= B * R
    diffs = (
        (x[:, 0] - x[:, 1]) * (x[:, 1] - x[:, 2]) * (x[:, 0] - x[:, 2])
    )
    vals = np.where(
        inside,
        np.sinh(np.abs(x[:, 0] - x[:, 1]))
        * np.sinh(np.abs(x[:, 1] - x[:, 2]))
        * np.sinh(np.abs(x[:, 0] - x[:, 2])),
        0.0,
    )
    lam = RootSystemA(3).rho_norm_sq
    jac = lam * math.sqrt(np.linalg.det(np.array([w1, w2]) @ np.array([w1, w2]).T))
    est = vals.mean() * R * R * jac
    err = vals.std(ddof=1) / math.sqrt(n) * R * R * jac
    want = ball_volume_numeric(3, B, R)
    assert abs(est - want) < 5 * err
    assert diffs.min() >= 0.0  # sanity: sampled points were dominant


def test_volume_edge_cases():
    assert ball_volume_numeric(2, 1.0, 0.0) == 0.0
    with pytest.raises(DomainError):
        ball_volume_numeric(7, 1.0, 1.0)
    with pytest.raises(DomainError):
        ball_volume_numeric(2, 1.0, 351.0)  # b_inf nears the float64 limit
    with pytest.raises(DomainError):
        ball_volume_numeric(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        ball_volume_numeric(2, 1.0, -0.5)


def test_small_radius_exponents():
    # near 0 the volume scales like R^{r + #positive roots}
    for d, expo in [(2, 2), (3, 5), (4, 9), (5, 14), (6, 20)]:
        v1 = ball_volume_numeric(d, 1.0, 0.02)
        v2 = ball_volume_numeric(d, 1.0, 0.04)
        assert math.log2(v2 / v1) == pytest.approx(expo, abs=0.05)


def test_table_matches_pointwise_quadrature():
    table = ball_volume_table(2, 1.0, 4.0)
    for R in (0.3, 1.7, 2.5, 3.9):
        assert table(R) == pytest.approx(_d2_closed(1.0, R), rel=1e-7)
    table3 = ball_volume_table(3, 1.0, 2.0)
    for R in (0.5, 1.0, 2.0):
        assert table3(R) == pytest.approx(ball_volume_numeric(3, 1.0, R), rel=1e-6)


@pytest.mark.parametrize(
    "d, B, R",
    [
        (2, 1.0, 0.5),
        (2, 2.0, 4.0),
        (3, 1.0, 0.02),
        (3, 1.0, 1.5),
        (3, 0.5, 8.0),
        (4, 1.0, 0.02),
        (4, 1.0, 1.5),
        (4, 0.5, 8.0),
        (5, 1.0, 0.02),
        (5, 1.0, 2.0),
        (6, 1.0, 1.0),
        (6, 1.0, 30.0),
    ],
)
def test_numeric_volume_matches_brion_oracle(d, B, R):
    assert ball_volume_numeric(d, B, R) == pytest.approx(volume_by_brion(d, B, R), rel=1e-13)


def _series_grid():
    """(d, B, R) for d = 2..6: R = 0, dyadic B and R, random B and R, and
    B R = 350, the cap, at B = 1 and at B = 0.7 (d = 6 at B = 0.7 only)."""
    rng = random.Random(31)
    for d in range(2, 7):
        yield from ((d, B, 0.0) for B in (1.0, 0.37))
        yield from ((d, rng.choice((0.5, 1.0, 1.5, 2.0)), rng.randint(1, 96) / 8) for _ in range(4))
        yield from ((d, rng.uniform(0.02, 4.0), rng.uniform(0.001, 25.0)) for _ in range(8))
        yield from ((d, B, 350.0 / B) for B in ((1.0, 0.7) if d < 6 else (0.7,)))


@pytest.mark.parametrize("d, B, R", list(_series_grid()))
def test_series_stops_where_the_exact_comparison_does(d, B, R):
    # the float logs decide every stop outside a band that no rounding
    # error reaches, so each term and the rounded sum are the oracle's
    assert _series(d, B, R) == series_by_exact_stop(d, B, R)


@pytest.mark.parametrize(
    "d, B, R_max",
    [(2, 1.0, 13.1), (3, 0.7, 5.0), (4, 0.7, 5.0), (5, 1.0, 3.0), (6, 1.0, 2.0), (2, 25.0, 13.9)],
)
def test_table_matches_series_at_nodes(d, B, R_max):
    # the table sums the series terms cut once at its top radius; at every
    # node that is the exact series to float accuracy (B R = 347.5 included)
    table = ball_volume_table(d, B, R_max)
    n = table.r_grid.size - 1
    for i in sorted({0, 1, 10, 100, n // 3, n // 2, n - 1, n}):
        want = ball_volume_numeric(d, B, float(table.r_grid[i]))
        assert table.values[i] == pytest.approx(want, rel=1e-13)


# float.hex of the table at fixed nodes and one interpolated radius, so any
# change to its arithmetic shows
def test_table_volume_bits():
    t2 = ball_volume_table(2, 1.0, 8.0)
    assert float(t2.values[-1]).hex() == "0x1.0f2eb90a8005dp+21"
    t3 = ball_volume_table(3, 0.7, 5.0)
    assert float(t3.values[970]).hex() == "0x1.8d4a6370f0231p-8"
    assert float(t3.values[-1]).hex() == "0x1.3e97946ea97f5p+7"
    t4 = ball_volume_table(4, 0.7, 5.0)
    assert float(t4.values[1940]).hex() == "0x1.be1171b59cabcp-12"
    assert float(t4.values[-1]).hex() == "0x1.a963815aab930p+2"
    assert t4(1.2345).hex() == "0x1.ae86d2a61fda6p-18"


def test_table_memory_is_bounded():
    # the series terms and two float arrays over the 8001 radii, ~0.3 MB traced
    tracemalloc.start()
    try:
        ball_volume_table(4, 1.0, 8.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_table_node_cap_raises_before_allocating():
    # B R = 350 is on the series' domain, but 3.5e8 nodes would take ~11 GB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            ball_volume_table(2, 1e-3, 3.5e5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e5
    assert ball_volume_table(2, 0.1, 1000.0).r_grid.size == 10**6 + 1
    with pytest.raises(BudgetError):
        ball_volume_table(2, 0.1, 1000.001)


def test_table_domain_checks():
    table = ball_volume_table(2, 1.0, 2.0)
    assert table(0.0) == 0.0
    with pytest.raises(DomainError):
        table(2.5)
    with pytest.raises(DomainError):
        table(-0.1)
    # the table is built on the series' domain
    for d, B, R_max in [(7, 1.0, 1.0), (2, 30.0, 12.0), (2, 1.0, math.inf), (2, 1.0, 0.0), (2, -1.0, 1.0)]:
        with pytest.raises(DomainError):
            ball_volume_table(d, B, R_max)


# ---------------------------------------------------------------------------
# simplex areas


def test_simplex_area_values():
    assert simplex_area(2) == 1.0
    assert simplex_area(3) == pytest.approx(2 / math.sqrt(3), rel=1e-12)
    assert simplex_area(4) == pytest.approx(0.6211299937499, rel=1e-10)
    assert simplex_area(5) == pytest.approx(0.2070433312500, rel=1e-10)


# ---------------------------------------------------------------------------
# growth fits


def test_fit_recovers_pure_exponential():
    radii = np.linspace(5.0, 10.0, 30)
    fit = growth_exponent_fit(radii, np.exp(2 * radii))
    assert fit.slope == pytest.approx(2.0, abs=1e-8)
    assert fit.poly_degree == pytest.approx(0.0, abs=1e-6)


def test_fit_recovers_polynomial_correction():
    radii = np.linspace(5.0, 10.0, 30)
    fit = growth_exponent_fit(radii, radii * np.exp(radii))
    assert fit.slope == pytest.approx(1.0, abs=1e-8)
    assert fit.poly_degree == pytest.approx(1.0, abs=1e-6)


def test_fit_on_measured_d2_volumes():
    radii = np.linspace(5.0, 10.0, 26)
    table = ball_volume_table(2, 1.0, 10.0)
    vols = [table(R) for R in radii]
    fit = growth_exponent_fit(radii, vols)
    assert abs(fit.slope - 2.0) < 0.02
    assert abs(fit.poly_degree) < 0.05


def test_fit_input_validation():
    radii = np.linspace(1.0, 1.5, 8)
    with pytest.raises(DomainError, match="degenerate"):
        growth_exponent_fit(radii, np.exp(radii))
    with pytest.raises(DomainError):
        growth_exponent_fit([1, 2, 3], [1.0, 2.0, 3.0])  # too few points
    with pytest.raises(DomainError):
        growth_exponent_fit([1, 2, 3, 4, 5], [1.0, 2.0, 0.0, 3.0, 4.0])
    with pytest.raises(DomainError):
        growth_exponent_fit([1, 2, 2, 3, 4], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_fit_result_is_plain_record():
    fit = growth_exponent_fit(np.linspace(4, 9, 12), np.exp(np.linspace(4, 9, 12)))
    assert isinstance(fit, FitResult)
    assert set(fit.__dataclass_fields__) == {"slope", "poly_degree", "intercept"}


# ---------------------------------------------------------------------------
# heights at the infinite place


def test_height_examples():
    assert archimedean_height([[1, 0], [0, 1]], 1.0) == pytest.approx(1.0)
    assert archimedean_height([[1, 0], [0, 2]], 1.0) == pytest.approx(math.sqrt(2))
    assert archimedean_height([[1, 0], [0, 2]], 2.0) == pytest.approx(2 ** 0.25)
    assert archimedean_height([[2, 0], [0, 2]], 1.0) == pytest.approx(1.0)


def test_height_power_law_in_B():
    g = [[3.0, 1.0], [0.5, 2.0]]
    h1 = archimedean_height(g, 1.0)
    for B in (0.5, 2.0, 3.0):
        assert archimedean_height(g, B) == pytest.approx(h1 ** (1.0 / B))


@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
def test_height_is_scale_and_rotation_invariant(a, b, c, d):
    g = np.array([[a, b], [c, d]])
    if abs(np.linalg.det(g)) < 1e-6:
        return
    h = archimedean_height(g, 1.0)
    assert archimedean_height(2.5 * g, 1.0) == pytest.approx(h, rel=1e-9)
    theta = 0.7
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    assert archimedean_height(rot @ g, 1.0) == pytest.approx(h, rel=1e-9)
    assert archimedean_height(g @ rot, 1.0) == pytest.approx(h, rel=1e-9)


def test_height_rejects_singular_input():
    with pytest.raises(DomainError):
        archimedean_height([[1, 2], [0, 0]], 1.0)


def test_height_warns_near_singular():
    g = [[1.0, 0.0], [0.0, 1e-15]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        archimedean_height(g, 1.0)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)
