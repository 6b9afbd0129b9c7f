"""Tests for exact height counting in PGL_2(Q).

The small-x counts were frozen from the exhaustive box search after
cross-validation against an independent generator-based enumeration.  The
box (`counting._count_chunk`) stays as the oracle of the det-shell census,
and Z^4 enumeration as the oracle of its weights Q(e, F) and P(e, F), so
regressions in the box bound, the weights or the census show up here.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightcount import counting
from heightcount import (
    BudgetError,
    CountReport,
    DomainError,
    building_distance,
    compare_report,
    entry_bound,
    global_height,
    pi_count,
    pi_count_detail,
)
from oracles import _enumerate_elements, _GroupElementQ, census_cells_by_loop, entry_bound_by_scan


# ---------------------------------------------------------------------------
# normal form


def test_from_matrix_normalizes_content_and_sign():
    g = _GroupElementQ.from_matrix([[2, 0], [0, 4]])
    assert g.entries == (1, 0, 0, 2)
    g = _GroupElementQ.from_matrix([[-1, 0], [0, -2]])
    assert g.entries == (1, 0, 0, 2)
    g = _GroupElementQ.from_matrix([[0, -3], [3, 0]])
    assert g.entries == (0, 1, -1, 0)


def test_from_matrix_rejects_singular():
    with pytest.raises(DomainError):
        _GroupElementQ.from_matrix([[1, 2], [2, 4]])


def test_height_examples():
    assert _GroupElementQ.from_matrix([[1, 0], [0, 1]]).height(1.0) == pytest.approx(1.0)
    assert _GroupElementQ.from_matrix([[1, 0], [0, 2]]).height(1.0) == pytest.approx(
        2 * math.sqrt(2)
    )
    # heights agree with the adelic profile
    for mat in ([[1, 1], [0, 1]], [[2, 1], [1, 1]], [[0, 1], [-3, 2]]):
        g = _GroupElementQ.from_matrix(mat)
        assert g.height(1.0) == pytest.approx(global_height(mat, 1.0).h, rel=1e-12)


@given(st.integers(-15, 15), st.integers(-15, 15), st.integers(-15, 15), st.integers(-15, 15))
def test_height_at_least_one(a, b, c, d):
    if a * d - b * c == 0:
        return
    g = _GroupElementQ.from_matrix([[a, b], [c, d]])
    assert g.height(1.0) >= 1.0 - 1e-12


# ---------------------------------------------------------------------------
# search box


def test_entry_bound_examples():
    assert entry_bound(1.0, 1.0) == 1
    assert entry_bound(2.0, 1.0) == 2
    assert entry_bound(8.0, 1.0) == 8
    assert entry_bound(2.0, 0.5) == 1


def test_entry_bound_monotone():
    prev = 0
    for x in (1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 13.0):
        b = entry_bound(x, 1.0)
        assert b >= prev
        prev = b


@settings(max_examples=120)
@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6), st.floats(1.0, 8.0))
def test_entry_bound_is_sound(a, b, c, d, x):
    # every class of height <= x has its canonical entries inside the box
    if a * d - b * c == 0:
        return
    g = _GroupElementQ.from_matrix([[a, b], [c, d]])
    if g.height(1.0) <= x:
        assert max(abs(e) for e in g.entries) <= entry_bound(x, 1.0)


def test_entry_bound_matches_scan():
    # the maximum of e^(1 - 2B) x^(2B) over 1 <= e <= x sits at e = 1 or
    # e = floor(x + 1e-9), also for B within an ulp of 1/2
    xs = [float(x) for x in range(1, 201)] + [1.5, 2.999999999, 10.0000000005, 99.9, 7 / 3, 1000 / 7]
    for B in (0.3, 0.5, math.nextafter(0.5, 0), math.nextafter(0.5, 1), 0.4999999, 0.5000001, 0.8, 1.0, 2.0):
        for x in xs:
            assert entry_bound(x, B) == entry_bound_by_scan(x, B), (x, B)


def test_exactly_four_classes_of_height_one():
    ones = [
        g
        for g in _enumerate_elements(1)
        if abs(g.height(1.0) - 1.0) <= 1e-9
    ]
    assert len(ones) == 4
    mats = {g.entries for g in ones}
    assert mats == {(1, 0, 0, 1), (0, 1, -1, 0), (0, 1, 1, 0), (1, 0, 0, -1)}


def test_enumerate_elements_is_duplicate_free():
    seen = list(_enumerate_elements(3))
    assert len(seen) == len({g.entries for g in seen})
    for g in seen:
        assert math.gcd(*g.entries) == 1
        first = next(e for e in g.entries if e != 0)
        assert first > 0


def test_enumerate_budget():
    with pytest.raises(BudgetError):
        list(_enumerate_elements(500, max_cells=10_000))


# ---------------------------------------------------------------------------
# pi counts


def test_pi_count_small_values():
    assert pi_count(0.5, 1.0) == 0
    assert pi_count(1.0, 1.0) == 4
    assert pi_count(2.0, 1.0) == 24


def test_pi_count_frozen_grid():
    grid = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0]
    want = [4, 4, 24, 64, 160, 440, 952]
    assert [pi_count(x, 1.0) for x in grid] == want


def test_pi_count_boundary_ties():
    det = pi_count_detail(2.0, 1.0)
    assert det.count == 24
    assert det.tie_count == 4
    det = pi_count_detail(8.0, 1.0)
    assert det.tie_count == 24
    det = pi_count_detail(1.7, 1.0)
    assert det.tie_count == 0


def test_pi_count_agrees_with_generator_enumeration():
    for x in (1.0, 2.0, 3.0):
        bound = entry_bound(x, 1.0)
        slow = sum(
            1
            for g in _enumerate_elements(bound)
            if g.height(1.0) <= x * (1 + 1e-12) + 1e-12
        )
        assert pi_count(x, 1.0) == slow


def test_pi_count_box_saturation():
    # recount with the search box padded by 2 in every direction; any
    # missed class would show up as a larger count
    for x in (2.0, 4.0, 6.0):
        base = pi_count_detail(x, 1.0)
        padded = _count_with_bound(x, 1.0, base.entry_bound_used + 2)
        assert base.count == padded


def _count_with_bound(x, B, bound):
    return sum(
        1
        for g in _enumerate_elements(bound)
        if g.height(B) <= x * (1 + 1e-12) + 1e-12
    )


def _box_oracle(x, B):
    """(count, tie_count) by the exhaustive box, one a-value per chunk."""
    bound = entry_bound(x, B)
    parts = [counting._count_chunk(np.array([a]), bound, x, B) for a in range(-bound, bound + 1)]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


# the box costs (2N + 1)^4 cells; larger (x, B) pairs (B = 2 beyond x = 3.75,
# B = 1.7 beyond x = 5) are left to the pinned values below
_ORACLE_CELLS = 10**6


@given(st.integers(4, 40), st.sampled_from([0.3, 0.5, 0.8, 1.0, 1.7, 2.0]))
def test_pi_count_matches_box_oracle(quarters, B):
    x = quarters / 4
    assume((2 * entry_bound(x, B) + 1) ** 4 <= _ORACLE_CELLS)
    det = pi_count_detail(x, B)
    assert (det.count, det.tie_count) == _box_oracle(x, B)


def test_pi_count_matches_box_oracle_integer_x():
    for B in (0.3, 0.5, 0.8, 1.0):
        for x in range(1, 11):
            det = pi_count_detail(float(x), B)
            assert (det.count, det.tie_count) == _box_oracle(float(x), B), (x, B)


def test_pi_count_pinned_box_values():
    # recorded by the box search in perfbench/references.json
    det = pi_count_detail(32.0, 1.0)
    assert (det.count, det.tie_count) == (27256, 24)
    det = pi_count_detail(400.0, 0.5)
    assert (det.count, det.tie_count) == (482288, 432)


def _shell_caps(x, B):
    x_hi = counting._x_hi(x)
    return counting.shell_caps(x_hi, B, math.floor(x_hi))


def _box_candidates(a_values, bound, fcap):
    """Det-shell candidates among the cells of [-bound, bound]^4 whose entry
    a lies in a_values: nonsingular, first nonzero entry positive and
    F <= F_cap(|det|)."""
    v = counting._axis_values(bound)
    a, b, c, d = (t.reshape(-1) for t in np.meshgrid(a_values, v, v, v, indexing="ij"))
    e = np.abs(a * d - b * c)
    live = (e >= 1) & (e <= fcap.size) & (np.where(a != 0, a, b) > 0)
    f = (a * a + b * b + c * c + d * d)[live]
    return int(np.count_nonzero(f <= fcap[e[live] - 1]))


def _candidate_oracle(x, B):
    """(count, ties, candidates) by the box of half-width isqrt(max F_cap),
    which holds every candidate, one a-value per chunk."""
    fcap = _shell_caps(x, B)
    bound = math.isqrt(int(fcap.max()))
    inside = ties = seen = 0
    for a in range(-bound, bound + 1):
        i, t = counting._count_chunk(np.array([a]), bound, x, B)
        inside, ties, seen = inside + i, ties + t, seen + _box_candidates(np.array([a]), bound, fcap)
    return inside, ties, seen


def _z4(bound):
    """(det, F, content, first nonzero entry) of every matrix of
    [-bound, bound]^4."""
    v = np.arange(-bound, bound + 1)
    a, b, c, d = (t.reshape(-1) for t in np.meshgrid(v, v, v, v, indexing="ij"))
    content = np.gcd(np.gcd(a, b), np.gcd(c, d))
    first = np.where(a != 0, a, np.where(b != 0, b, np.where(c != 0, c, d)))
    return a * d - b * c, a * a + b * b + c * c + d * d, content, first


def _cells(fcap):
    """(e, F) of every cell 2e <= F <= F_cap(e) of the shells."""
    e = np.concatenate([np.full(c - 2 * k + 1, k) for k, c in enumerate(fcap.tolist(), 1)])
    f = np.concatenate([np.arange(2 * k, c + 1) for k, c in enumerate(fcap.tolist(), 1)])
    return e.astype(np.int64), f.astype(np.int64)


def _primitive_weights(e, f):
    """P(e, F) by the Moebius sum of `counting._q`, cell by cell."""
    r2 = counting._r2_table(int((f + 2 * e).max()))
    p = np.zeros(e.size, dtype=np.int64)
    for g in range(1, math.isqrt(int(e.max())) + 1):
        div = (e % (g * g) == 0) & (f % (g * g) == 0)
        p[div] += counting._mobius(g) * counting._q(r2, e[div] // (g * g), f[div] // (g * g))
    return p


def test_r2_table_matches_brute_force(monkeypatch):
    v = np.arange(-45, 46)
    n = (v[:, None] ** 2 + v[None, :] ** 2).reshape(-1)
    want = np.bincount(n[n <= 2000], minlength=2001)
    got = counting._r2_table(2000)
    assert got.dtype == np.int32
    assert np.array_equal(got, want)
    # windows of 7 values split every row of the quadrant
    monkeypatch.setattr(counting, "_BLOCK", 7)
    assert np.array_equal(counting._r2_table(2000), want)


def test_q_and_p_match_z4_enumeration():
    # every matrix with F <= 80 has entries of size <= 8
    det, frob, content, _ = _z4(8)
    r2 = counting._r2_table(80 + 2 * 12)
    for e in range(1, 13):
        on = (det == e) & (frob <= 80)
        want_q = np.bincount(frob[on], minlength=81)
        want_p = np.bincount(frob[on & (content == 1)], minlength=81)
        assert not want_q[: 2 * e].any()
        f = np.arange(2 * e, 81)
        ee = np.full(f.size, e)
        assert np.array_equal(counting._q(r2, ee, f), want_q[2 * e :]), e
        assert np.array_equal(_primitive_weights(ee, f), want_p[2 * e :]), e
    assert counting._mobius(1) == 1 and counting._mobius(30) == -1 and counting._mobius(12) == 0


@pytest.mark.parametrize("x, B", [(1.0, 1.0), (4.0, 1.0), (6.5, 0.5), (3.0, 2.0), (7.0, 0.3)])
def test_shell_candidates_are_distinct(x, B):
    # Q(e, F) counts each canonical matrix of its cell once: it equals the
    # box's candidates cell by cell, and the cells sum to `candidates`
    fcap = _shell_caps(x, B)
    det, frob, _, first = _z4(math.isqrt(int(fcap.max())))
    e, f = _cells(fcap)
    det = np.abs(det)
    keep = (first > 0) & (det >= 1) & (det <= fcap.size) & (frob <= fcap.max())
    want = np.zeros((fcap.size + 1, int(fcap.max()) + 1), dtype=np.int64)
    np.add.at(want, (det[keep], frob[keep]), 1)
    q = counting._q(counting._r2_table(int((f + 2 * e).max())), e, f)
    assert np.array_equal(q, want[e, f])
    assert all(not want[k, : 2 * k].any() for k in range(1, fcap.size + 1))
    assert int(q.sum()) == pi_count_detail(x, B).candidates


@pytest.mark.parametrize("x, B", [(12.0, 1.0), (6.5, 0.5), (3.0, 2.0)])
def test_block_boundaries_do_not_change_counts(monkeypatch, x, B):
    # at these x every pass and the r_2 table fit in one slice; slices of 5
    # split them all
    whole = pi_count_detail(x, B)
    monkeypatch.setattr(counting, "_BLOCK", 5)
    e, _ = _cells(_shell_caps(x, B))
    assert e.size > 5
    assert pi_count_detail(x, B) == whole


_LINE_GRID = [
    (x, B)
    for B, xs in [
        (0.3, (1.5, 7.3, 13.5, 40.25)),
        (0.5, (1.25, 6.5, 17.75, 60.5)),
        (0.8, (2.5, 9.75, 30.5)),
        (1.0, (1.7, 5.5, 12.25, 20.75)),
        (1.2, (2.25, 7.5, 12.5)),
        (1.5, (1.5, 4.25, 7.75)),
        (2.0, (1.25, 3.5, 5.75)),
    ]
    for x in xs
] + [(float(x), 0.5) for x in (1, 2, 3, 4, 8, 9, 12, 16, 25, 36, 48, 99, 100)]


@pytest.mark.parametrize("x, B", _LINE_GRID)
def test_line_count_matches_candidate_oracle(x, B):
    # count and ties against the box search, candidates against the box's
    # nonsingular canonical matrices under the caps
    det = pi_count_detail(x, B)
    assert (det.count, det.tie_count, det.candidates) == _candidate_oracle(x, B)


def test_line_count_sees_real_ties():
    # integer x at B = 1/2 puts h = x exactly on lattice points
    assert sum(pi_count_detail(float(x), 0.5).tie_count for x in (4, 9, 16, 100)) > 0


@pytest.mark.parametrize("x, B", [(6.5, 0.5), (9.0, 1.0), (3.5, 2.0), (25.0, 0.5)])
def test_shell_table_against_every_decision(x, B):
    # the census against the double sum of the module docstring, each cell
    # decided on its own and weighted by P(e, F)
    e, f = _cells(_shell_caps(x, B))
    p = _primitive_weights(e, f)
    inside = ties = 0
    for k, n, w in zip(e.tolist(), f.tolist(), p.tolist()):
        i, t = counting._decide(np.array([float(k)]), np.array([float(n)]), x, B)
        inside, ties = inside + w * int(i[0]), ties + w * int(t[0])
    det = pi_count_detail(x, B)
    assert (det.count, det.tie_count) == (inside, ties)
    assert det.candidates >= det.count > 0


def _patched_decide(monkeypatch, rule):
    """Replace `counting._decide` by rule(e, F, inside, tie) on integer
    arrays, so the census and the box decide alike."""
    original = counting._decide

    def decide(adet, frob, x, B):
        inside, tie = original(adet, frob, x, B)
        return rule(adet.astype(np.int64), frob.astype(np.int64), inside, tie)

    monkeypatch.setattr(counting, "_decide", decide)


@pytest.mark.parametrize("x, B", [(8.0, 1.0), (36.0, 0.5), (16.0, 1.0)])
@pytest.mark.parametrize("which", ["tie shell", "imprimitive shell", "all"])
def test_irregular_shells_take_the_candidate_path(monkeypatch, x, B, which):
    # each cell is weighted on its own, so shells whose inside set is not a
    # prefix of F and whose ties are not one interval need no other path
    e, f = _cells(_shell_caps(x, B))
    tie_shells = np.unique(e[counting._decide(e.astype(float), f.astype(float), x, B)[1]])
    assert tie_shells.size
    # shell 8 holds the matrices of content 2 of shell 2
    picked = {"tie shell": tie_shells[:1], "imprimitive shell": [8], "all": np.unique(e)}[which]

    def rule(e, f, inside, tie):
        scramble = np.isin(e, picked) & inside
        return inside & ~(scramble & (f % 3 == 0)), tie | scramble & (f % 2 == 0)

    _patched_decide(monkeypatch, rule)
    det = pi_count_detail(x, B)
    assert (det.count, det.tie_count, det.candidates) == _candidate_oracle(x, B)


@pytest.mark.parametrize("x, B", [(12.0, 1.0), (40.0, 0.5), (5.0, 2.0)])
def test_line_count_follows_any_interval_table(monkeypatch, x, B):
    # random per-shell intervals exercise cuts that real decisions rarely
    # make: F_in(e) < F_cap(e) and ties that straddle it
    fcap = _shell_caps(x, B)
    real = pi_count_detail(x, B)
    rng = np.random.default_rng(1)
    k = np.arange(1, fcap.size + 1)
    f_in = rng.integers(2 * k - 1, fcap + 1)
    tie_lo = rng.integers(2 * k, fcap + 2)
    tie_hi = rng.integers(tie_lo - 1, fcap + 1)

    def rule(e, f, inside, tie):
        s = np.minimum(e, fcap.size) - 1
        shell = e <= fcap.size
        return shell & (f <= f_in[s]), shell & (tie_lo[s] <= f) & (f <= tie_hi[s])

    _patched_decide(monkeypatch, rule)
    det = pi_count_detail(x, B)
    assert (det.count, det.tie_count, det.candidates) == _candidate_oracle(x, B)
    assert det.count < real.count and det.tie_count > 0


@pytest.mark.parametrize(
    "x, B, cells", [(8.0, 1.0, 132), (36.0, 1.0, 4638), (36.0, 0.5, 477), (400.0, 1.0, 983904), (1600.0, 0.5, 919970)]
)
def test_budget_is_the_exact_census_cell_count(x, B, cells):
    # the budget bounds the cells the census walks, exactly: `cells` runs and
    # one fewer refuses, naming the count
    assert census_cells_by_loop(_shell_caps(x, B).tolist()) == cells
    pi_count_detail(x, B, max_cells=cells)
    with pytest.raises(BudgetError, match=f"census cell count {cells} exceeds budget {cells - 1};"):
        pi_count_detail(x, B, max_cells=cells - 1)


@pytest.mark.parametrize("x, B", [(3.0, 25.0), (40.0, 8.0), (1000.0, 20.0)])
def test_caps_are_refused_before_they_wrap(x, B):
    # these caps pass 2^63, where the int64 cast would wrap with a warning;
    # they are refused on the floats, whatever the budget
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for max_cells in (None, 10**30):
            with pytest.raises(BudgetError, match="r_2 table limit"):
                pi_count_detail(x, B, max_cells=max_cells)
        with pytest.raises(BudgetError, match="r_2 table limit"):
            _shell_caps(x, B)


@pytest.mark.parametrize("x", [1e9, 1e12])
def test_huge_x_is_refused_before_any_row_array(x):
    # the O(1) lower bound refuses before the O(x) arrays of the census
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            pi_count_detail(x, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize(
    "x, B, want", [(800.0, 1.0, (35480816, 96, 37607744)), (1600.0, 0.5, (7764432, 1104, 8396160))]
)
def test_pi_count_pinned_census_values(x, B, want):
    # recorded by the lattice-line count that the census replaced
    det = pi_count_detail(x, B)
    assert (det.count, det.tie_count, det.candidates) == want
    assert all(type(v) is int for v in (det.count, det.tie_count, det.candidates))


def test_census_memory_is_bounded():
    # the r_2 table of (800, 1) has 640,003 int32 entries (2.4 MiB), and the
    # slices stay at 2^13 cells: about 3 MiB traced, where an int64 table
    # alone would take 4.9 MiB
    tracemalloc.start()
    try:
        pi_count_detail(800.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_pi_count_budget():
    with pytest.raises(BudgetError):
        pi_count_detail(8.0, 1.0, max_cells=100)
    # a raised budget still stops before the r_2 table is allocated
    with pytest.raises(BudgetError, match="r_2 table"):
        pi_count_detail(250.0, 2.0, max_cells=10**15)
    # the budget bounds the det-shell work, not the (2N + 1)^4 box
    det = pi_count_detail(20.0, 1.5)
    assert (2 * det.entry_bound_used + 1) ** 4 > 10**9
    assert det.count > pi_count(19.0, 1.5) > 0


def test_pi_count_other_B():
    # B = 2 shrinks heights toward 1, so balls hold more classes
    assert pi_count(2.0, 2.0) >= pi_count(2.0, 1.0)
    with pytest.raises(DomainError):
        pi_count(2.0, 0.0)
    with pytest.raises(DomainError):
        pi_count(-1.0, 1.0)


# ---------------------------------------------------------------------------
# finite height against the building


def test_finite_height_matches_building_distances():
    # for dets supported on {2, 3, 5}, log_p h_fin is the tree distance
    for g in _enumerate_elements(4):
        det = abs(g.det)
        if det == 0:
            continue
        supported = det
        for p in (2, 3, 5):
            while supported % p == 0:
                supported //= p
        if supported != 1:
            continue
        mat = [[g.entries[0], g.entries[1]], [g.entries[2], g.entries[3]]]
        prof = global_height(mat, 1.0)
        exps = dict(prof.finite_exponents)
        for p in (2, 3, 5):
            assert exps.get(p, 0) == building_distance(mat, p)


# ---------------------------------------------------------------------------
# comparison report


def test_compare_report_fields_and_monotonicity():
    rep = compare_report([1.0, 2.0, 4.0], 1.0)
    assert isinstance(rep, CountReport)
    assert rep.pi_values == (4, 24, 160)
    assert rep.tie_counts == (4, 4, 0)
    assert list(rep.pi_values) == sorted(rep.pi_values)
    assert rep.sandwich_eps == 0.1
    assert rep.slack > 0


def test_compare_report_lower_prediction_closed_form():
    # B = 1: integral of e^{-2t} dV(t) = 1/12, coefficient 30/pi^2
    rep = compare_report([1.0, 4.0], 1.0)
    c = 30 / math.pi**2 / 12
    assert rep.predicted_low_exponent[0] == pytest.approx(c, rel=1e-6)
    assert rep.predicted_low_exponent[1] == pytest.approx(c * 16, rel=1e-6)
    # at B = 1 the 2B-exponent main term diverges and is reported as inf
    assert all(math.isinf(v) for v in rep.predicted_high_exponent)


def test_compare_report_finite_high_prediction():
    rep = compare_report([2.0], 0.8)
    assert all(math.isfinite(v) for v in rep.predicted_high_exponent)
    assert rep.predicted_high_exponent[0] > 0


@pytest.mark.parametrize("B", [0.5, 1.0, 1.9])
def test_compare_report_main_term_closed_form(B):
    # integral of e^(-2t) (cosh(B t) - 1)/2 dt = B^2 / (4 (4 - B^2))
    grid = [1.0, 3.0]
    rep = compare_report(grid, B)
    for x, got in zip(grid, rep.predicted_low_exponent):
        want = 30 / math.pi**2 * B * B / (4 * (4 - B * B)) * x**2
        assert got == pytest.approx(want, rel=1e-12)


def test_compare_report_high_prediction_finite_below_two():
    # growth 2B = 1.96 < 2: finite (an old cutoff reported inf for 2B > 1.95)
    rep = compare_report([2.0], 0.98)
    g = 1.96
    want = 30 / math.pi**2 * g * g / (4 * (4 - g * g)) * 4.0
    assert rep.predicted_high_exponent[0] == pytest.approx(want, rel=1e-12)


def test_compare_report_sandwich_brackets():
    rep = compare_report([2.0, 4.0, 6.0], 1.0)
    for lo, hi in zip(rep.lower_sandwich, rep.upper_sandwich):
        assert lo <= hi


def test_compare_report_validation():
    with pytest.raises(DomainError):
        compare_report([2.0], 2.5)  # B must satisfy 0 < B < 2
    with pytest.raises(DomainError):
        compare_report([], 1.0)
    for grid in ([0.0, 1.0], [-1.0, 2.0]):
        with pytest.raises(DomainError, match="need x > 0"):
            compare_report(grid, 1.0)


def test_compare_report_bit_pins():
    # float.hex of the sandwich columns and the slack, from the exact d = 2
    # prefix-sum b(T)
    rep = compare_report([1.0, 2.0, 4.0], 1.0)
    assert [v.hex() for v in rep.lower_sandwich] == [
        "0x0.0p+0", "0x1.948cd13c2edd6p-2", "0x1.07cb21635c048p+2"
    ]
    assert [v.hex() for v in rep.upper_sandwich] == [
        "0x1.48c612c7ba740p-7", "0x1.9af8078288b00p-1", "0x1.da20a7328bc9ap+2"
    ]
    assert rep.slack.hex() == "0x1.8eab5926fe72cp+8"


def test_compare_report_below_one():
    # pi(x) = 0 below 1; a sandwich side with radius log x -+ eps <= 0 is
    # the empty ball's 0, and the rest of the grid is unchanged
    rep = compare_report([0.5, 1.0, 2.0], 1.0)
    whole = compare_report([1.0, 2.0], 1.0)
    assert rep.pi_values == (0, 4, 24)
    assert rep.tie_counts == (0, 4, 4)
    assert rep.lower_sandwich == (0.0,) + whole.lower_sandwich
    assert rep.upper_sandwich == (0.0,) + whole.upper_sandwich
    assert rep.slack == whole.slack
    alone = compare_report([0.5], 1.0)
    assert (alone.pi_values, alone.lower_sandwich, alone.upper_sandwich) == ((0,), (0.0,), (0.0,))
    assert alone.slack == math.inf
    # within eps of 1 from below the upper side is a real ball
    near = compare_report([0.95], 1.0)
    assert near.pi_values == (0,)
    assert near.lower_sandwich == (0.0,)
    assert near.upper_sandwich[0] > 0


# ---------------------------------------------------------------------------
# one census per grid


def _grid_census(grid, B):
    return counting._census(grid, B, None)


@pytest.mark.parametrize(
    "grid, B",
    [
        ([float(x) for x in range(1, 101)], 1.0),
        ([float(x) for x in range(1, 201)], 1.0),
        ([float(x) for x in range(1, 61)], 0.5),
        ([1.0 + 0.37 * k for k in range(60)], 1.2),
        ([1.0 + 0.173 * k for k in range(30)], 2.0),
    ],
    ids=["1..100-B1", "1..200-B1", "1..60-B0.5", "fractional-B1.2", "fractional-B2"],
)
def test_grid_census_matches_each_point(grid, B):
    # the binned heights give every point of the grid the count and ties
    # of its own census, and the candidates are those of the last point
    counts, ties, candidates = _grid_census(grid, B)
    want = [(d.count, d.tie_count) for d in (pi_count_detail(x, B) for x in grid)]
    assert list(zip(counts, ties)) == want
    assert candidates == pi_count_detail(grid[-1], B).candidates
    if B == 0.5:
        assert sum(ties) > 0


def test_grid_census_ties_at_close_points():
    # the cells of h = 4 and h = 9 at B = 1/2 lie 5e-10 from two grid
    # points each, 1e-9 apart, and are ties at both, but not at 4 + 1.5e-9,
    # 1e-9 further on; the last point is decided by `_decide`, the others
    # by the binning
    grid = [4.0 - 5e-10, 4.0 + 5e-10, 4.0 + 1.5e-9, 9.0 - 5e-10, 9.0 + 5e-10]
    counts, ties, _ = _grid_census(grid, 0.5)
    assert [(d.count, d.tie_count) for d in (pi_count_detail(x, 0.5) for x in grid)] == list(zip(counts, ties))
    assert ties == [8, 8, 0, 40, 40]
    assert counts == [24, 32, 32, 184, 224]


def test_compare_report_runs_one_census(monkeypatch):
    calls = []
    census = counting._census

    def spy(grid, B, max_cells):
        calls.append(list(grid))
        return census(grid, B, max_cells)

    monkeypatch.setattr(counting, "_census", spy)
    rep = compare_report([0.5, 1.0, 2.0, 4.0, 8.0], 1.0)
    assert calls == [[1.0, 2.0, 4.0, 8.0]]
    assert rep.pi_values == (0, 4, 24, 160, 952)
    assert rep.tie_counts == (0, 4, 4, 0, 24)
    assert rep.entry_bound_used == entry_bound(8.0, 1.0)


def test_compare_report_budget_names_the_last_x_count():
    # one census serves the grid, so the limits are checked at its largest x
    # only, and an error names that census's cells, or its lower bound
    # floor(x_hi) + F_cap(1) - 2 when that is already over
    grid = [float(x) for x in range(1, 61)]
    fcap = _shell_caps(60.0, 1.0)
    cells, lower = census_cells_by_loop(fcap.tolist()), fcap.size + int(fcap[0]) - 2
    assert lower < 10**4 < cells
    for max_cells, named in ((10, lower), (lower - 1, lower), (10**4, cells), (cells - 1, cells)):
        with pytest.raises(BudgetError, match=f"census cell count {named} exceeds budget {max_cells};"):
            compare_report(grid, 1.0, max_cells=max_cells)
    assert compare_report(grid, 1.0, max_cells=cells).pi_values[-1] == pi_count(60.0, 1.0)
    # F_cap(1) is the largest cap at B = 1.9, over the limit from x = 286 on
    grid = [float(x) for x in range(200, 320)]
    cap = 2 + math.floor(4 * math.sinh(1.9 * math.log(counting._x_hi(319.0))) ** 2)
    with pytest.raises(BudgetError, match=f"shell cap {cap} exceeds the r_2 table limit"):
        compare_report(grid, 1.9, max_cells=10**15)
