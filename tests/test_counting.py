"""Tests for exact height counting in PGL_2(Q).

The small-x counts were frozen from the exhaustive box search after
cross-validation against an independent generator-based enumeration.  The
box (`counting._count_chunk`) stays as the oracle of the det-shell count,
so regressions in the box bound, the shell enumeration or the dedup logic
show up here.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightcount import counting, shells
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
from oracles import _enumerate_elements, _GroupElementQ


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


def _shell_setup(x, B):
    x_hi = counting._x_hi(x)
    fcap = shells.shell_caps(x_hi, B)
    return shells.Shells(x_hi, B, fcap), fcap


def _shell_candidates(x, B):
    table, _ = _shell_setup(x, B)
    for block in table.blocks():
        yield from table.candidates(block)


@pytest.mark.parametrize("x, B", [(1.0, 1.0), (4.0, 1.0), (6.5, 0.5), (3.0, 2.0), (7.0, 0.3)])
def test_shell_candidates_are_distinct(x, B):
    blocks = [np.stack(block, axis=1) for block in _shell_candidates(x, B)]
    mats = np.concatenate(blocks)
    assert len(np.unique(mats, axis=0)) == len(mats)
    assert len(mats) == pi_count_detail(x, B).candidates


@pytest.mark.parametrize("x, B", [(12.0, 1.0), (6.5, 0.5), (3.0, 2.0)])
def test_block_boundaries_do_not_change_counts(monkeypatch, x, B):
    # at these x every stage fits in one block; tiny blocks split them all
    whole = pi_count_detail(x, B)
    monkeypatch.setattr(shells, "_BLOCK", 5)
    x_hi = counting._x_hi(x)
    assert len(shells.Shells(x_hi, B, shells.shell_caps(x_hi, B)).blocks()) > 1
    assert pi_count_detail(x, B) == whole


def test_candidate_bound_covers_candidates():
    for B in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0):
        for x in (1.0, 1.5, 2.0, 3.25, 5.0, 8.0, 13.0, 20.0):
            estimate = shells.candidate_bound(shells.shell_caps(counting._x_hi(x), B))
            assert estimate >= pi_count_detail(x, B).candidates, (x, B)


def _candidate_oracle(x, B):
    """(count, ties, candidates): every candidate of `Shells.candidates`
    through `_classify`, the matrix-by-matrix path the line count replaces."""
    inside = ties = seen = 0
    for a, b, c, d in _shell_candidates(x, B):
        i, t = counting._classify(a, b, c, d, x, B)
        inside, ties, seen = inside + i, ties + t, seen + a.size
    return inside, ties, seen


def _lines(x, B):
    table, _ = _shell_setup(x, B)
    for block in table.blocks():
        yield from table.lines(block)


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
    det = pi_count_detail(x, B)
    assert (det.count, det.tie_count, det.candidates) == _candidate_oracle(x, B)


def test_line_count_sees_real_ties():
    # integer x at B = 1/2 puts h = x exactly on lattice points
    assert sum(pi_count_detail(float(x), 0.5).tie_count for x in (4, 9, 16, 100)) > 0


@pytest.mark.parametrize("x, B", [(6.5, 0.5), (9.0, 1.0), (3.5, 2.0), (25.0, 0.5)])
def test_shell_table_against_every_decision(x, B):
    _, fcap = _shell_setup(x, B)
    table = counting._shell_table(fcap, x, B, shells._BLOCK)
    assert table.regular.all()
    for e in range(1, fcap.size + 1):
        f = np.arange(2 * e, fcap[e - 1] + 1)
        inside, tie = counting._decide(np.full(f.size, float(e)), f.astype(float), x, B)
        assert np.array_equal(inside, f <= table.f_in[e - 1]), e
        assert np.array_equal(tie, (table.tie_lo[e - 1] <= f) & (f <= table.tie_hi[e - 1])), e


@pytest.mark.parametrize("x, B", [(8.0, 1.0), (25.0, 0.5), (3.5, 2.0)])
def test_shell_table_slices_do_not_change_it(x, B):
    _, fcap = _shell_setup(x, B)
    whole = counting._shell_table(fcap, x, B, shells._BLOCK)
    sliced = counting._shell_table(fcap, x, B, 5)
    for name in ("f_in", "tie_lo", "tie_hi", "regular"):
        assert np.array_equal(getattr(whole, name), getattr(sliced, name)), name


@pytest.mark.parametrize("x, B", [(8.0, 1.0), (36.0, 0.5), (16.0, 1.0)])
@pytest.mark.parametrize("which", ["tie shell", "imprimitive shell", "all"])
def test_irregular_shells_take_the_candidate_path(monkeypatch, x, B, which):
    whole = pi_count_detail(x, B)
    build = counting._shell_table

    def patched(fcap, x, B, block):
        table = build(fcap, x, B, block)
        ties = np.flatnonzero(table.tie_lo <= table.tie_hi)
        assert ties.size
        # shell 8 holds the imprimitive lines of the row (2, 0)
        pick = {"tie shell": ties[:1], "imprimitive shell": [7], "all": slice(None)}[which]
        table.regular[pick] = False
        # an irregular shell's intervals must not be read
        table.f_in[pick], table.tie_lo[pick], table.tie_hi[pick] = 0, 0, 10**9
        return table

    monkeypatch.setattr(counting, "_shell_table", patched)
    assert pi_count_detail(x, B) == whole


@pytest.mark.parametrize("x, B", [(12.0, 1.0), (40.0, 0.5), (5.0, 2.0), (20.0, 0.8)])
def test_imprimitive_matrices_need_gcd_of_g_and_e_over_g(x, B):
    seen = 0
    for lines in _lines(x, B):
        G = np.gcd(lines.g, lines.m)
        for o, c, d in lines.points():
            imprimitive = np.gcd(np.gcd(c, d), lines.g[o]) > 1
            assert np.all(G[o][imprimitive] > 1)
            # the residue form behind Lines.primitive
            k = ((c - lines.c0[o]) * lines.ap[o] + (d - lines.d0[o]) * lines.bp[o]) // lines.A[o]
            assert np.array_equal(imprimitive, np.gcd(k + lines.k0[o], G[o]) > 1)
            seen += int(imprimitive.sum())
    assert seen > 0


@pytest.mark.parametrize("x, B", [(12.0, 1.0), (40.0, 0.5), (5.0, 2.0)])
def test_line_intervals_and_primitive_counts(x, B):
    rng = np.random.default_rng(0)
    _, fcap = _shell_setup(x, B)
    for lines in _lines(x, B):
        every = np.arange(lines.e.size)
        f = np.zeros(every.size, dtype=np.int64)
        prim = np.zeros(every.size, dtype=np.int64)
        for o, c, d in lines.points():
            np.add.at(prim, o, np.gcd(np.gcd(c, d), lines.g[o]) == 1)
        assert np.array_equal(lines.primitive(every, lines.lo, lines.hi), prim)
        # a random bound on F, up to the cap, cuts each line to the
        # interval `upto` finds
        f_max = np.minimum(lines.n + rng.integers(-2, int(lines.A.max()) * 4, every.size), fcap[lines.e - 1])
        lo, hi = lines.upto(every, f_max)
        for o, c, d in lines.points():
            k = ((c - lines.c0[o]) * lines.ap[o] + (d - lines.d0[o]) * lines.bp[o]) // lines.A[o]
            below = lines.n[o] + c * c + d * d <= f_max[o]
            assert np.array_equal(below, (lo[o] <= k) & (k <= hi[o]))
            np.add.at(f, o, below)
        assert np.array_equal(np.maximum(hi - lo + 1, 0), f)


@pytest.mark.parametrize("x, B", [(12.0, 1.0), (40.0, 0.5), (5.0, 2.0)])
def test_line_count_follows_any_interval_table(x, B):
    # random intervals exercise the cuts that real tables rarely need:
    # F_in(e) < F_cap(e) and ties that straddle it
    shell_table, fcap = _shell_setup(x, B)
    rng = np.random.default_rng(1)
    e = np.arange(1, fcap.size + 1)
    f_in = rng.integers(2 * e - 1, fcap + 1)
    tie_lo = rng.integers(2 * e, fcap + 2)
    tie_hi = rng.integers(tie_lo - 1, fcap + 1)
    table = counting._ShellTable(fcap, f_in, tie_lo, tie_hi, np.ones(fcap.size, dtype=bool))
    got = np.zeros(3, dtype=np.int64)
    want = np.zeros(3, dtype=np.int64)
    for block in shell_table.blocks():
        for lines in shell_table.lines(block):
            got += counting._count_lines(lines, table, x, B)
        for a, b, c, d in shell_table.candidates(block):
            k = np.abs(a * d - b * c) - 1
            f = a * a + b * b + c * c + d * d
            primitive = np.gcd(np.gcd(a, b), np.gcd(c, d)) == 1
            tie = (tie_lo[k] <= f) & (f <= tie_hi[k])
            want += [np.sum(primitive & (f <= f_in[k])), np.sum(primitive & tie), a.size]
    assert np.array_equal(got, want)
    assert want[0] < pi_count_detail(x, B).count and want[1] > 0


def test_candidate_bound_covers_the_shell_table():
    # the g = 1 term of the bound alone exceeds pi F_cap(e) on each shell,
    # so the budget also bounds the decision table, sum (F_cap(e) - 2e + 1)
    for B in (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0):
        for x in (1.0, 1.5, 3.25, 8.0, 20.0, 64.0):
            fcap = shells.shell_caps(counting._x_hi(x), B)
            e = np.arange(1, fcap.size + 1)
            assert shells.candidate_bound(fcap) >= int((fcap - 2 * e + 1).sum()), (x, B)


def test_pi_count_budget():
    with pytest.raises(BudgetError):
        pi_count_detail(8.0, 1.0, max_cells=100)
    # a raised budget still stops before the shell quadratics leave int64
    with pytest.raises(BudgetError, match="int64"):
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
    # float.hex of the sandwich columns and the slack, read off the volume
    # table built from the exact series
    rep = compare_report([1.0, 2.0, 4.0], 1.0)
    assert [v.hex() for v in rep.lower_sandwich] == [
        "0x0.0p+0", "0x1.948ce051ec8dap-2", "0x1.07cb2ddad2118p+2"
    ]
    assert [v.hex() for v in rep.upper_sandwich] == [
        "0x1.48c612c7ba735p-7", "0x1.9af8123be3042p-1", "0x1.da20b88b120e5p+2"
    ]
    assert rep.slack.hex() == "0x1.8eab5926fe739p+8"


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
