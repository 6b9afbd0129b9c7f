"""Tests for global heights, the adelic volume convolution, and the
regularity / persistence verifiers built on top of it."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightcount import (
    BudgetError,
    DomainError,
    L_closed_pgl2,
    L_closed_sl2,
    L_euler,
    L_euler_sl2,
    MeasurePair,
    adelic_ball_series,
    adelic_ball_volume,
    adelic_volume_callable,
    archimedean_height,
    building_distance,
    coeff_D,
    compare_report,
    covering_number_box,
    entry_bound,
    global_height,
    growth_exponent_fit,
    partial_sum,
    persistence_check,
    pgl2_measure_pair,
    prediction_N,
    regularity_report,
    tree_ball,
    zeta_em,
)
from heightcount import adelic, dirichlet
from heightcount.archimedean import ball_volume_numeric
from heightcount.intmat import det_int
from heightcount.primes import factorize
from oracles import adelic_volume_d2, d2_volume_by_full_prefix_sums, prefix_sums_by_blocks, psi_by_sieve


# ---------------------------------------------------------------------------
# global heights


def test_height_profile_examples():
    prof = global_height([[1, 0], [0, 2]], 1.0)
    assert prof.finite_exponents == ((2, 1),)
    assert prof.h_fin == 2
    assert prof.h_inf == pytest.approx(math.sqrt(2))
    assert prof.h == pytest.approx(2 * math.sqrt(2))

    prof = global_height([[1, 0], [0, 1]], 1.0)
    assert prof.finite_exponents == ()
    assert prof.h == pytest.approx(1.0)

    prof = global_height([[1, 0], [0, 12]], 1.0)
    assert dict(prof.finite_exponents) == {2: 2, 3: 1}
    assert prof.h_fin == 12


def test_height_profile_sign_invariance_and_primitivity():
    a = global_height([[1, 0], [0, 2]], 1.0)
    c = global_height([[-1, 0], [0, -2]], 1.0)
    assert a.h == pytest.approx(c.h)
    assert a.finite_exponents == c.finite_exponents
    # scalar multiples are the same group element; callers must hand over
    # the primitive representative and the error message says so
    with pytest.raises(DomainError, match="primitive"):
        global_height([[3, 0], [0, 6]], 1.0)


@given(
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.permutations([0, 1]),
)
def test_height_signed_permutation_invariance(a, b, c, d, perm):
    if a * d - b * c == 0:
        return
    g = math.gcd(a, b, c, d)
    a, b, c, d = a // g, b // g, c // g, d // g
    mat = [[a, b], [c, d]]
    swapped = [mat[perm[0]], mat[perm[1]]]
    negated = [[-a, -b], [c, d]]
    h0 = global_height(mat, 1.0)
    assert global_height(swapped, 1.0).h == pytest.approx(h0.h, rel=1e-12)
    assert global_height(negated, 1.0).h == pytest.approx(h0.h, rel=1e-12)


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_height_splits_into_places(a, b, c, d):
    if a * d - b * c == 0:
        return
    g = math.gcd(a, b, c, d)
    a, b, c, d = a // g, b // g, c // g, d // g
    prof = global_height([[a, b], [c, d]], 1.0)
    log_fin = sum(e * math.log(p) for p, e in prof.finite_exponents)
    assert math.log(prof.h) == pytest.approx(log_fin + math.log(prof.h_inf), abs=1e-10)
    assert prof.h_inf == pytest.approx(
        archimedean_height([[a, b], [c, d]], 1.0), rel=1e-12
    )


def test_height_finite_part_is_largest_elementary_divisor():
    # primitive 2x2 matrix: largest elementary divisor = |det|
    prof = global_height([[2, 1], [1, 3]], 1.0)
    assert prof.h_fin == 5
    prof = global_height([[1, 2], [3, 4]], 1.0)
    assert prof.h_fin == 2
    prof = global_height([[0, 1], [-7, 3]], 1.0)
    assert prof.h_fin == 7


@given(
    st.integers(2, 4).flatmap(
        lambda d: st.lists(st.lists(st.integers(-9, 9), min_size=d, max_size=d), min_size=d, max_size=d)
    )
)
def test_finite_exponents_are_the_building_distances(rows):
    # at every d: the primes at positive building distance, each with it
    det = det_int(rows)
    assume(det != 0)
    g = math.gcd(*(x for row in rows for x in row))
    rows = [[x // g for x in row] for row in rows]
    distances = [(p, building_distance(rows, p)) for p, _ in factorize(abs(det))]
    prof = global_height(rows, 1.0)
    assert prof.finite_exponents == tuple((p, dist) for p, dist in distances if dist > 0)
    assert prof.h_fin == math.prod(p**dist for p, dist in distances)


def test_height_rejects_singular_and_nonrational():
    with pytest.raises(DomainError):
        global_height([[1, 2], [2, 4]], 1.0)


# ---------------------------------------------------------------------------
# adelic ball volumes


def test_volume_below_log2_is_archimedean_only():
    for T in (0.2, 0.5, math.log(2) - 1e-9):
        got = adelic_ball_volume(2, 1.0, T)
        want = ball_volume_numeric(2, 1.0, T)
        assert got == pytest.approx(want, rel=1e-6)


def test_volume_at_log4_sums_four_terms():
    T = math.log(4.0)
    b_inf = lambda t: (math.cosh(2 * t) - 1) / 2
    want = (
        coeff_D(2, 1) * b_inf(T)
        + coeff_D(2, 2) * b_inf(T - math.log(2))
        + coeff_D(2, 3) * b_inf(T - math.log(3))
        + coeff_D(2, 4) * 0.0
    )
    got = adelic_ball_volume(2, 1.0, T)
    assert got == pytest.approx(want, rel=1e-6)
    assert (coeff_D(2, 1), coeff_D(2, 2), coeff_D(2, 3), coeff_D(2, 4)) == (1, 3, 4, 6)


def test_volume_is_monotone_in_T():
    series = adelic_ball_series(2, 1.0, np.linspace(0.1, 6.0, 100))
    vals = list(series.values)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_entry_points_agree_bitwise():
    # every entry point builds b through adelic_volume_callable; below
    # T ~ 1e-12 the d = 3 volume table has one node and b is 0 from each
    for d in (2, 3):
        for T in (1e-13, 5e-4, 0.7, 3.0, 6.5):
            direct = adelic_ball_volume(d, 1.0, T)
            assert adelic_volume_callable(d, 1.0, T)(T) == direct
            assert adelic_ball_series(d, 1.0, [T / 2, T]).values[-1] == direct


@pytest.mark.parametrize("T_max", [-1.0, 0.0, math.nan])
def test_callable_rejects_T_max_before_sieving(monkeypatch, T_max):
    monkeypatch.setattr(dirichlet, "_STORE", {})
    with pytest.raises(DomainError, match="T_max"):
        adelic_volume_callable(2, 1.0, T_max)
    assert dirichlet._STORE == {}


@pytest.mark.parametrize("d, lengths", [(2, (1, 7, 162_754, 488_942)), (3, (1, 1000, 2**19 - 1, 2**19, 2**19 + 7))])
def test_sieve_prefix_is_the_fresh_sieve(monkeypatch, d, lengths):
    # at d = 3 the weights are int64 below 2^19 and floats from there
    fresh = {}
    for n in lengths:
        monkeypatch.setattr(dirichlet, "_STORE", {})
        fresh[n] = adelic._sieve(d, math.log(n), None)
    monkeypatch.setattr(dirichlet, "_STORE", {})
    adelic._sieve(d, math.log(max(lengths)), None)
    for n in lengths:
        weights, logs = adelic._sieve(d, math.log(n), None)
        assert weights.size == logs.size == n
        assert weights.dtype == fresh[n][0].dtype == (np.int64 if n < 2**19 or d == 2 else float)
        assert np.array_equal(weights.view(np.int64), fresh[n][0].view(np.int64))
        assert np.array_equal(logs.view(np.int64), fresh[n][1].view(np.int64))
    assert dirichlet._STORE[d][0].size == max(lengths) + 1


def test_b_does_not_depend_on_the_held_sieve(monkeypatch):
    # in scan's order the regularity callable holds d = 2 to 488,942 before
    # the persistence pair reads its 162,754-term prefix
    def values():
        b = adelic_volume_callable(2, 1.0, 12.0)
        pair = pgl2_measure_pair(12.0)
        d_T, ratio = persistence_check(pair, 12.0)
        return [b(T).hex() for T in (0.5, 3.0, 9.7, 12.0)] + [pair.C.hex(), d_T.hex(), ratio.hex()]

    monkeypatch.setattr(dirichlet, "_STORE", {})
    adelic_volume_callable(2, 1.0, 13.1)
    held = values()
    monkeypatch.setattr(dirichlet, "_STORE", {})
    assert values() == held


@pytest.mark.parametrize(
    "call, bound",
    [
        # the locations, one float array of 488,942 terms (3.9 MB), and a
        # set-up pass of 2^16 terms; the three sums hold block totals and
        # the held weights are read, not copied (5.0 MB traced)
        ((adelic_volume_callable, 2, 1.0, 13.1), 8e6),
        # the held store is read, not grown: past its end one 2 MB segment
        # buffer and the kernel's segment temporaries (6.6 MB traced)
        ((partial_sum, 2, 0.0, 1e6), 9e6),
        # the same pieces, each weighted in floats, then passed to fsum a
        # few thousand Python floats at a time (8.6 MB traced)
        ((partial_sum, 2, 3.0, 1e6), 11e6),
    ],
    ids=["d2-callable", "partial-sum", "partial-sum-weighted"],
)
def test_d2_set_up_memory_with_the_store_held(monkeypatch, call, bound):
    # in scan's order the regularity callable holds d = 2 to 488,942 first
    monkeypatch.setattr(dirichlet, "_STORE", {})
    dirichlet.coeff_array(2, 488_942)
    f, *args = call
    tracemalloc.start()
    try:
        f(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_measure_pair_sorts_rows_out_of_order():
    pair = pgl2_measure_pair(6.0)
    order = np.random.default_rng(5).permutation(len(pair.masses))
    shuffled = MeasurePair(pair.masses[order], pair.nu_grid, pair.nu_values, pair.alpha, pair.beta)
    assert shuffled.C.hex() == pair.C.hex()
    for T in (2.5, 6.0):
        got, want = persistence_check(shuffled, T), persistence_check(pair, T)
        assert [v.hex() for v in got] == [v.hex() for v in want]
    # rows already in order are held without a copy
    rebuilt = MeasurePair(pair.masses, pair.nu_grid, pair.nu_values, pair.alpha, pair.beta)
    assert rebuilt.masses is pair.masses


def test_volume_callable_matches_direct_evaluation():
    b = adelic_volume_callable(2, 1.0, 6.0)
    for T in (0.5, 2.0, 5.5):
        assert b(T) == pytest.approx(adelic_ball_volume(2, 1.0, T), rel=1e-6)
    with pytest.raises(DomainError):
        b(6.5)


def test_volume_budget():
    from heightcount import BudgetError

    with pytest.raises(BudgetError):
        adelic_ball_volume(2, 1.0, 20.0, max_sieve=1000)


# ---------------------------------------------------------------------------
# exact d = 2 volume from prefix sums

# (B, T) points against the term-by-term oracle; B = 40 and 50 reach
# B T = 350, where sum psi(m) m^(2B) overflows float64 unless it is scaled.
# At B = 2 and T >= 12.8 one running sum of psi(m) m^(-2B) drops the terms
# below half an ulp of the sum and is off by 3e-12 to 5e-12
_D2_POINTS = {
    0.02: (0.01, 0.3, 0.7, 1.1, 2.5, 4.6, 7.3, 9.0),
    0.5: (0.01, 0.3, 0.9, 2.5, 5.0, 8.2, 12.0),
    1.0: (0.01, 0.3, math.log(3.0) + 0.1, 2.5, 5.0, 8.2, 11.0, 13.1),
    1.5: (0.01, 0.3, 0.9, 2.5, 5.0, 8.2, 12.0),
    1.98: (0.01, 0.3, 0.7, 1.1, 2.5, 4.6, 7.3, 9.0),
    2.0: (12.8, 13.1),
    40.0: (0.05, 1.0, 4.0, 8.75),
    50.0: (7.0,),
}


@pytest.mark.parametrize("B", sorted(_D2_POINTS))
def test_d2_volume_matches_exact_oracle(B):
    T_list = _D2_POINTS[B]
    b = adelic_volume_callable(2, B, max(T_list), max_sieve=10**6)
    for T in T_list:
        assert b(T) == pytest.approx(adelic_volume_d2(B, T), rel=1e-12, abs=0)


@pytest.mark.parametrize("B", [0.3, 1.0])
def test_d2_volume_does_not_depend_on_T_max(B):
    # no scaling or sum may depend on the length of the sieve prefix read
    b = adelic_volume_callable(2, B, 9.0)
    for T in np.linspace(0.5, 9.0, 40).tolist():
        assert adelic_volume_callable(2, B, T)(T) == b(T)


def test_d2_overflow_edge_needs_the_scaled_sum():
    # at (B, T) = (40, 8.75) the far terms run to k = 6294, and the unscaled
    # prefix sum of psi(m) m^80 up to k overflows
    k = int(math.exp(8.75 - adelic._NEAR / 40.0))
    m = np.arange(1, k + 1, dtype=float)
    with np.errstate(over="ignore"):
        assert np.isinf(np.sum(psi_by_sieve(k)[1:] * m**80.0))
    assert math.isfinite(adelic_volume_callable(2, 40.0, 8.75)(8.75))


def _prefix_sums(terms):
    def form(lo, out):
        out[:] = terms[lo : lo + out.size]

    S = adelic._blocked_sums(form, terms.size)
    return np.array([S(j) for j in range(terms.size)])


def test_prefix_sums_are_prefix_stable_and_bounded():
    terms = np.random.default_rng(3).random(5000) * 1e6
    whole = _prefix_sums(terms)
    assert np.array_equal(whole.view(np.int64), prefix_sums_by_blocks(terms).view(np.int64))
    for n in (1, 1023, 1024, 1025, 2048, 4999):
        assert np.array_equal(_prefix_sums(terms[:n]).view(np.int64), whole[:n].view(np.int64))
    for j in (0, 1023, 1024, 3000, 4999):
        exact = math.fsum(terms[: j + 1].tolist())
        assert abs(whole[j] - exact) <= (min(j, 1024) + j / 1024 + 2) * 2.0**-53 * exact



def _block_edge_points(B):
    # T with k - 1 = 1024 i + r, k the count of far terms: r next to both
    # ends of a block, i next to a set-up pass edge and a sieve segment edge
    passes = adelic._SET_UP_BLOCKS
    segment = dirichlet._SEGMENT // adelic._PREFIX_BLOCK
    for i in (0, 1, passes - 1, passes, passes + 1, segment - 1, segment, segment + 1):
        for r in (0, 1, 2, 1021, 1022, 1023):
            yield math.log(1024 * i + r + 1.5) + adelic._NEAR / B


@pytest.mark.parametrize("B", [0.3, 1.0, 1.5])
def test_d2_block_totals_match_the_full_prefix_sums(B):
    # the blocked sums hold block totals and redo one partial block per
    # call; b(T) must equal, bit for bit, the same formula on full-length
    # prefix sums, at every block residue near both ends and across the
    # set-up pass and sieve segment edges
    b = adelic_volume_callable(2, B, 13.1)
    oracle = d2_volume_by_full_prefix_sums(B, 13.1)
    T_list = [*_block_edge_points(B), 0.05, 4.0, 13.1]
    assert [b(T).hex() for T in T_list] == [oracle(T).hex() for T in T_list]

# (B, T_max, max_sieve), the error and its text, as the 1e-3 volume table
# path raised them for d = 2 and still raises them for d = 3
_REFUSED = [
    ((0.0, 3.0, None), DomainError, "need B > 0, R >= 0 and B R <= 350.0, got B=0.0, R=3.0"),
    ((-1.0, 3.0, None), DomainError, "need B > 0, R >= 0 and B R <= 350.0, got B=-1.0, R=3.0"),
    ((50.0, 7.5, None), DomainError, "need B > 0, R >= 0 and B R <= 350.0, got B=50.0, R=7.5"),
    ((50.0, 7.0001, None), DomainError, "need B > 0, R >= 0 and B R <= 350.0, got B=50.0, R=7.001"),
    (
        (1.0, 12.0, 1000),
        BudgetError,
        "estimated sieve count 162754 exceeds budget 1000; "
        "raise the corresponding HEIGHTCOUNT_MAX_* variable to override",
    ),
]


@pytest.mark.parametrize("args, error, text", _REFUSED)
def test_d2_callable_refuses_what_the_table_refused(monkeypatch, args, error, text):
    # the domain, then the budget, are checked before anything is sieved
    B, T_max, max_sieve = args
    monkeypatch.setattr(dirichlet, "_STORE", {})
    for d in (2, 3):
        with pytest.raises(error) as caught:
            adelic_volume_callable(d, B, T_max, max_sieve)
        assert str(caught.value) == text
        assert dirichlet._STORE == {}


def test_d2_callable_rejects_T_outside_its_range():
    for d in (2, 3):
        b = adelic_volume_callable(d, 1.0, 3.0)
        for T in (0.0, -1.0, 3.1, math.nan, 3.0 * (1 + 2e-12)):
            with pytest.raises(DomainError) as caught:
                b(T)
            assert str(caught.value) == f"T={T} outside (0, 3.0]"
        assert b(3.0 * (1 + 1e-12)) > 0


def _count_tables(monkeypatch):
    built = []
    build = adelic.ball_volume_table

    def spy(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(adelic, "ball_volume_table", spy)
    return built


def test_d2_callable_reads_no_volume_table(monkeypatch):
    built = _count_tables(monkeypatch)
    b = adelic_volume_callable(2, 0.7, 6.0)
    b(5.0)
    adelic_ball_series(2, 1.3, [1.0, 2.0])
    assert built == []


def test_prediction_builds_one_table(monkeypatch):
    built = _count_tables(monkeypatch)
    rep = prediction_N(3, 4.5, 10.0)
    assert rep.measured_exponent.hex() == "0x1.1ec905f04607dp+3"
    assert rep.value_measured.hex() == "0x1.6234b47b0fca5p+136"
    assert len(built) == 1


# ---------------------------------------------------------------------------
# regularity


def _eps():
    return [0.1, 0.05, 0.01, 0.005]


def test_regular_model():
    rep = regularity_report(
        lambda x: x * math.exp(2 * x), _eps(), np.linspace(6.0, 12.0, 40)
    )
    assert rep.verdict == "regular"
    assert abs(rep.lower_trend - 1.0) < 0.02
    assert abs(rep.upper_trend - 1.0) < 0.02


def test_step_model_is_non_regular():
    rep = regularity_report(
        lambda x: math.exp(math.floor(x)), _eps(), np.linspace(6.0, 12.0, 40)
    )
    assert rep.verdict == "non-regular"
    assert abs(rep.lower_trend - math.exp(-1.0)) < 0.05


def test_tree_model_is_non_regular():
    rep = regularity_report(
        lambda x: float(tree_ball(2, x)), _eps(), np.linspace(6.0, 12.0, 40)
    )
    assert rep.verdict == "non-regular"
    assert abs(rep.lower_trend - 0.5) < 0.05


def test_regularity_report_shape():
    rep = regularity_report(lambda x: math.exp(x), _eps(), np.linspace(5.0, 9.0, 20))
    assert len(rep.lower_ratios) == len(_eps())
    assert len(rep.upper_ratios) == len(_eps())
    assert rep.gap >= 0.0
    assert rep.verdict in {"regular", "non-regular", "inconclusive"}


def test_regularity_report_with_one_shift_trends_are_its_ratios():
    rep = regularity_report(lambda x: x * math.exp(2 * x), [0.01], np.linspace(6.0, 12.0, 10))
    assert rep.eps_list == (0.01,)
    assert (rep.lower_trend, rep.upper_trend) == (rep.lower_ratios[0], rep.upper_ratios[0])


def test_regularity_validation():
    with pytest.raises(DomainError):
        regularity_report(lambda x: math.exp(x), [], [5.0, 6.0])
    with pytest.raises(DomainError):
        regularity_report(lambda x: math.exp(x), [0.1, -0.01], [5.0, 6.0])


_SIEVE_INF = (
    "estimated sieve count inf exceeds budget 1000000; "
    "raise the corresponding HEIGHTCOUNT_MAX_* variable to override"
)


@pytest.mark.parametrize(
    "call, error, text",
    [
        ((zeta_em, math.nan), DomainError, "zeta_em needs Re(s) > 1 + 1e-06, got (nan+0j)"),
        ((zeta_em, math.inf), DomainError, "zeta_em needs a finite s, got (inf+0j)"),
        ((zeta_em, complex(3.0, math.nan)), DomainError, "zeta_em needs a finite s, got (3+nanj)"),
        ((L_euler, 2, math.nan), DomainError, "L_euler needs Re(s) > 2 + 1e-06, got (nan+0j)"),
        ((L_euler, 2, math.inf), DomainError, "zeta_em needs a finite s, got (inf+0j)"),
        ((L_closed_pgl2, math.nan), DomainError, "closed form needs Re(s) > 2 + 1e-06, got (nan+0j)"),
        ((L_closed_sl2, math.nan), DomainError, "closed form needs Re(s) > 1.5 + 1e-06, got (nan+0j)"),
        ((L_euler_sl2, math.nan), DomainError, "L_euler_sl2 needs Re(s) > 1.5 + 1e-06, got (nan+0j)"),
        ((tree_ball, 2, math.nan), DomainError, "need T >= 0, got nan"),
        ((tree_ball, 2, math.inf), DomainError, "need a finite T, got inf"),
        ((covering_number_box, 2, math.inf, 0.1), DomainError, "need a finite T, got inf"),
        ((entry_bound, math.inf, 1.0), DomainError, "need a finite x, got inf"),
        ((partial_sum, 2, 1.0, math.nan), DomainError, "need x >= 1, got nan"),
        ((partial_sum, 2, math.nan, 10.0), DomainError, "need B >= 0, got nan"),
        ((partial_sum, 2, 0.0, math.inf), BudgetError, _SIEVE_INF),
        ((pgl2_measure_pair, 5.0, math.nan), DomainError, "need 0 < B < inf, got B=nan"),
        ((pgl2_measure_pair, 5.0, math.inf), DomainError, "need 0 < B < inf, got B=inf"),
        ((pgl2_measure_pair, 5.0, 0.0), DomainError, "need 0 < B < inf, got B=0.0"),
        ((prediction_N, 3, math.nan, 3.0), DomainError, "B=nan is at or below the aggregate abscissa 3; the series constant diverges there"),
        ((prediction_N, 3, 4.5, math.inf), DomainError, "need a finite covolume and T, got 1.0, inf"),
        ((prediction_N, 3, 4.5, 3.0, math.inf), DomainError, "need a finite covolume and T, got inf, 3.0"),
        ((compare_report, [2.0], 1.0, math.inf), DomainError, "need a finite covolume, got inf"),
        ((regularity_report, math.exp, [0.01, math.nan], range(5)), DomainError, "eps_list must contain positive shifts"),
        ((regularity_report, math.exp, [math.inf], range(5)), DomainError, "eps_list must contain positive shifts"),
        ((growth_exponent_fit, [1.0, math.nan, 3.0, 4.0, 5.0], [1.0] * 5), DomainError, "radii and volumes must be finite"),
        ((growth_exponent_fit, [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, math.inf, 3.0, 4.0, 5.0]), DomainError, "radii and volumes must be finite"),
    ],
    ids=lambda v: v[0].__name__ if isinstance(v, tuple) else None,
)
def test_non_finite_input_is_refused(monkeypatch, call, error, text):
    # NaN fails every domain check, and a non-finite value is refused where
    # the domain is finite, before any sieve: not a ValueError or
    # OverflowError from int(), a LinAlgError, or a NaN result
    monkeypatch.delenv("HEIGHTCOUNT_MAX_SIEVE", raising=False)
    monkeypatch.setattr(dirichlet, "_STORE", {})
    f, *args = call
    with pytest.raises(error) as caught:
        f(*args)
    assert str(caught.value) == text
    assert dirichlet._STORE == {}


@pytest.mark.slow
def test_global_volume_is_regular_d2():
    b = adelic_volume_callable(2, 1.0, 14.2, max_sieve=1_500_000)
    rep = regularity_report(b, _eps(), np.linspace(8.0, 14.0, 25))
    assert rep.verdict == "regular"


# ---------------------------------------------------------------------------
# trees and covering numbers


def test_tree_ball_examples():
    assert tree_ball(2, 0.5) == 1
    assert tree_ball(2, 1.0) == 4
    assert tree_ball(2, 3.0) == 22
    assert tree_ball(3, 2.0) == 17


@given(st.sampled_from([2, 3, 5]), st.floats(0.0, 8.0), st.floats(0.0, 2.0))
def test_tree_ball_is_monotone(q, T, dt):
    assert tree_ball(q, T) <= tree_ball(q, T + dt)


def test_tree_ball_counts_by_radius():
    # ball of integer radius k has 1 + (q+1)(q^k - 1)/(q - 1) vertices,
    # and the count is constant between integers
    for q in (2, 3):
        for k in range(5):
            want = 1 + (q + 1) * (q**k - 1) // (q - 1)
            assert tree_ball(q, float(k)) == want
            assert tree_ball(q, k + 0.999) == want


def test_covering_examples():
    count, ratio = covering_number_box(1, 1.0, 0.1)
    assert count == 10
    assert ratio == pytest.approx(1.0)
    count, ratio = covering_number_box(2, 1.0, 0.3)
    assert count == 16
    assert ratio == pytest.approx(1.44, abs=1e-12)


def test_covering_ratio_tends_to_one():
    ratios = []
    for k in (1, 2, 4, 8, 16):
        _, ratio = covering_number_box(2, 1.0, 1.0 / (4 * k))
        ratios.append(ratio)
    assert all(r >= 1.0 for r in ratios)
    assert ratios[-1] < ratios[0] or ratios[0] == 1.0
    assert abs(ratios[-1] - 1.0) < 0.05


# ---------------------------------------------------------------------------
# persistence


def _pair_two_masses():
    grid = tuple(np.linspace(0.0, 10.0, 10001).tolist())
    return MeasurePair(
        masses=((0.0, 1.0), (math.log(2.0), 1.0)),
        nu_grid=grid,
        nu_values=tuple(np.exp(2.0 * np.asarray(grid)).tolist()),
        alpha=0.0,
        beta=2.0,
    )


def test_persistence_two_mass_closed_form():
    # d(T) = e^{2T} + e^{2(T - log 2)} = (5/4) e^{2T}
    pair = _pair_two_masses()
    d_T, ratio = persistence_check(pair, 8.0)
    assert pair.C == pytest.approx(1.25)
    assert d_T == pytest.approx(1.25 * math.exp(16.0), rel=1e-4)
    assert ratio == pytest.approx(1.0, abs=1e-4)


def test_persistence_requires_covering_range():
    pair = _pair_two_masses()
    with pytest.raises(DomainError):
        persistence_check(pair, 11.0)


def test_persistence_rejects_nu_below_its_grid():
    # nu sampled on [1, 10]: at T = 1.5 the mass at log 2 needs nu at 0.807,
    # below the grid, where interpolation would clamp it to nu(1) and
    # return 27.4746 instead of e^3 + e^(2 (1.5 - log 2)) = 25.1069
    grid = np.linspace(1.0, 10.0, 9001)
    pair = MeasurePair(((0.0, 1.0), (math.log(2.0), 1.0)), grid, np.exp(2.0 * grid), alpha=0.0, beta=2.0)
    with pytest.raises(DomainError, match="only from 1 but T - location falls to 0.80685"):
        persistence_check(pair, 1.5)
    # from T = 1 + log 2 on every read lies on the grid
    d_T, _ = persistence_check(pair, 2.0)
    assert d_T == pytest.approx(1.25 * math.exp(4.0), rel=1e-5)


def test_measure_pair_validation():
    grid = (0.0, 1.0, 2.0)
    good = {"masses": ((0.0, 1.0),), "nu_grid": grid, "nu_values": (1.0, 2.0, 3.0)}
    cases = (
        ({"masses": ()}, "at least one point mass"),
        ({"masses": ((0.0, 1.0, 2.0),)}, r"\(location, mass\) pairs"),
        ({"masses": ((0.0, -1.0),)}, "location >= 0 and mass > 0"),
        ({"masses": ((0.0, 1.0), (0.5, 0.0))}, "location >= 0 and mass > 0"),
        ({"nu_values": (1.0, 2.0)}, "matching grids of length >= 2"),
        ({"nu_grid": (0.0, 1.0, 1.0)}, "strictly increasing"),
    )
    for change, message in cases:
        for as_array in (False, True):
            kwargs = dict(good, **change)
            if as_array:
                kwargs = {k: np.asarray(v, dtype=float) for k, v in kwargs.items()}
            with pytest.raises(DomainError, match=message):
                MeasurePair(alpha=0.0, beta=2.0, **kwargs)


def test_measure_pair_tuple_and_array_input_agree():
    pair = pgl2_measure_pair(T_max=6.0)
    rebuilt = MeasurePair(
        masses=tuple(map(tuple, pair.masses.tolist())),
        nu_grid=tuple(pair.nu_grid.tolist()),
        nu_values=tuple(pair.nu_values.tolist()),
        alpha=pair.alpha,
        beta=pair.beta,
    )
    assert rebuilt.masses.shape == (pair.masses.shape[0], 2)
    assert rebuilt.C.hex() == pair.C.hex()
    assert persistence_check(rebuilt, 6.0) == persistence_check(pair, 6.0)


def test_measure_pair_constant_matches_scalar_sum():
    # one mass at a time, so a last-bit difference in any exp term shows
    grid = (0.0, 1.0)
    rng = np.random.default_rng(3)
    for loc, mass, beta in zip(rng.uniform(0, 12, 300), rng.uniform(0.1, 5, 300), rng.uniform(0.5, 3, 300)):
        pair = MeasurePair(((loc, mass),), grid, (1.0, 2.0), alpha=0.0, beta=beta)
        assert pair.C.hex() == (mass * math.exp(-beta * loc)).hex()
    masses = tuple(zip(rng.uniform(0, 12, 500).tolist(), rng.uniform(0.1, 5, 500).tolist()))
    pair = MeasurePair(masses, grid, (1.0, 2.0), alpha=0.0, beta=2.0)
    assert pair.C == math.fsum(mass * math.exp(-2.0 * loc) for loc, mass in masses)


@pytest.mark.parametrize("T", [6.0, 10.0, 11.985, 12.0, 13.1])
def test_measure_pair_constant_matches_term_by_term_fsum(T):
    # the chunked vectorised exp gives fsum the very terms of math.exp
    pair = pgl2_measure_pair(T)
    locs, masses = pair.masses.T.tolist()
    want = math.fsum(mass * math.exp(-pair.beta * loc) for loc, mass in zip(locs, masses))
    assert pair.C.hex() == want.hex()


def test_measure_pair_constant_at_non_finite_locations():
    # e^(-beta inf) = 0 drops a mass at inf; a NaN location makes C NaN
    grid = (0.0, 1.0)
    rows = [(0.5, 2.0), (math.inf, 3.0), (1.5, 0.25)]
    pair = MeasurePair(rows, grid, (1.0, 2.0), alpha=0.0, beta=2.0)
    assert pair.C.hex() == math.fsum(m * math.exp(-2.0 * loc) for loc, m in rows).hex()
    assert pair.C == 2.0 * math.exp(-1.0) + 0.25 * math.exp(-3.0)
    pair = MeasurePair([*rows, (math.nan, 1.0)], grid, (1.0, 2.0), alpha=0.0, beta=2.0)
    assert math.isnan(pair.C)


# float.hex of (C, d(T), d(T) / dominant), recorded when the pair was held
# as tuples of Python floats
_PERSISTENCE_PINS = (
    (6.0, ("0x1.f098ac3093f9bp+0", "0x1.345127402b8c2p+18", "0x1.000002bc4c1eep+0")),
    (10.0, ("0x1.f18b03a2b533cp+0", "0x1.c1a001bbe9b6fp+29", "0x1.000002bdc00fcp+0")),
    (12.0, ("0x1.f18eec91f7affp+0", "0x1.7f95cafb0c5bfp+35", "0x1.000002bdc5cc1p+0")),
)


@pytest.mark.parametrize("T, want", _PERSISTENCE_PINS)
def test_pgl2_persistence_bit_pins(T, want):
    pair = pgl2_measure_pair(T)
    d_T, ratio = persistence_check(pair, T)
    assert (pair.C.hex(), d_T.hex(), ratio.hex()) == want


def test_pgl2_persistence_peak_memory():
    # the sieve is warm, so this traces the pair, the check and C alone:
    # float arrays of 162,754 rows (the pair's own 2.6 MB and a few 1.3 MB
    # temporaries) and C's products passed to fsum a chunk of rows at a
    # time (6.6 MB traced); as tuples of Python floats they peaked near 25 MB
    pgl2_measure_pair(12.0)
    tracemalloc.start()
    try:
        pair = pgl2_measure_pair(12.0)
        persistence_check(pair, 12.0)
        pair.C
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6


def test_pgl2_persistence_at_moderate_T():
    pair = pgl2_measure_pair(T_max=10.0)
    want_C = partial_sum(2, 3.0, math.exp(10.0))
    assert pair.C == pytest.approx(want_C, rel=1e-12)
    assert pair.alpha == 0.0
    assert pair.beta == 2.0
    _, ratio = persistence_check(pair, 10.0)
    assert abs(ratio - 1.0) < 0.03


# ---------------------------------------------------------------------------
# prediction reports


def test_prediction_closed_form_d2():
    rep = prediction_N(2, 2.5, 4.0)
    assert rep.rank == 1
    assert rep.simplex_factor == pytest.approx(1.0)
    # rank 1: value at the measured exponent is C * simplex * e^{E T}
    want = rep.series_constant * math.exp(rep.measured_exponent * 4.0)
    assert rep.value_measured == pytest.approx(want, rel=1e-12)
    # measured exponent sits near 2B, not B
    assert abs(rep.measured_exponent - 2 * 2.5) < 0.05
    assert rep.value_exponent_2B == pytest.approx(
        rep.series_constant * math.exp(2 * 2.5 * 4.0), rel=1e-12
    )


def test_prediction_covolume_scaling():
    a = prediction_N(2, 3.0, 3.0, covolume=1.0)
    b = prediction_N(2, 3.0, 3.0, covolume=4.0)
    assert b.value_measured == pytest.approx(a.value_measured / 4.0, rel=1e-12)
    assert b.value_exponent_B == pytest.approx(a.value_exponent_B / 4.0, rel=1e-12)


def test_prediction_warns_between_d_and_B0():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = prediction_N(3, 3.2, 2.0)
    assert any("abscissa" in str(w.message).lower() for w in caught)
    assert math.isfinite(rep.value_measured)


def test_prediction_silent_above_threshold():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prediction_N(3, 3.4, 2.0)
    assert not caught


def test_prediction_domain_errors():
    with pytest.raises(DomainError):
        prediction_N(2, 1.9, 4.0)  # at or below the aggregate abscissa
    with pytest.raises(DomainError):
        prediction_N(2, 2.0, 4.0)
    with pytest.raises(DomainError):
        prediction_N(5, 6.0, 1.0)  # d outside the supported range
