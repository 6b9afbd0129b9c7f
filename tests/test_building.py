"""Tests for vertex enumeration in the affine building of PGL_d(Q_p).

The closed-form shell counts are cross-checked against brute-force BFS
from the standard lattice class, and the lattice-class normal form is
exercised with random unimodular row operations and compared with the
integer Euclid Hermite form of the oracles.
"""

import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heightcount import (
    BudgetError,
    BuildingParams,
    DomainError,
    LatticeClass,
    ball_size,
    base_class,
    building_distance,
    enumerate_classes,
    neighbors,
    shell_count,
    shell_ratio,
    snf_exponents,
    sphere_size,
)
from heightcount import building, hermite
from heightcount.building import _class_bound
from heightcount.intmat import det_int, valuation
from oracles import (
    _primitive_rescale,
    enumerate_by_hnf,
    hnf_rows,
    hnf_universe,
    is_adjacent,
    neighbors_by_hnf,
    reduce_by_full_gcd,
    sl2_sphere_size,
)


# ---------------------------------------------------------------------------
# closed forms


def test_shell_count_values():
    assert shell_count(2, 2) == 3
    assert shell_count(2, 3) == 4
    assert shell_count(2, 5) == 6
    assert shell_count(3, 2) == 14
    assert shell_count(3, 3) == 26
    assert shell_count(4, 2) == 45


def test_shell_ratio_values():
    assert shell_ratio(2, 2) == 2
    assert shell_ratio(2, 3) == 3
    assert shell_ratio(3, 2) == 10
    assert shell_ratio(3, 3) == 21
    assert shell_ratio(4, 2) == 30


def test_sphere_size_d2_is_regular_tree():
    params = BuildingParams(2, 2)
    assert [sphere_size(params, k) for k in range(6)] == [1, 3, 6, 12, 24, 48]
    params = BuildingParams(2, 3)
    assert [sphere_size(params, k) for k in range(5)] == [1, 4, 12, 36, 108]


def test_sphere_size_geometric_shells():
    for d, p in [(2, 2), (2, 5), (3, 2), (3, 3), (4, 2)]:
        params = BuildingParams(d, p)
        for k in range(2, 6):
            assert sphere_size(params, k) == shell_count(d, p) * shell_ratio(d, p) ** (
                k - 1
            )


def test_ball_size_partial_sums():
    for d, p in [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]:
        params = BuildingParams(d, p)
        for k in range(7):
            assert ball_size(params, k) == sum(
                sphere_size(params, j) for j in range(k + 1)
            )


def test_sl2_sphere_size_even_shells_only():
    assert [sl2_sphere_size(2, k) for k in range(6)] == [1, 0, 6, 0, 24, 0]
    assert [sl2_sphere_size(3, k) for k in range(5)] == [1, 0, 12, 0, 108]
    # even shells match the PGL_2 tree spheres
    for p in (2, 3, 5):
        for k in (2, 4, 6):
            assert sl2_sphere_size(p, k) == sphere_size(BuildingParams(2, p), k)


def test_params_validation():
    with pytest.raises(DomainError):
        BuildingParams(1, 2)
    with pytest.raises(DomainError):
        BuildingParams(2, 4)
    with pytest.raises(DomainError):
        sphere_size(BuildingParams(2, 2), -1)


# ---------------------------------------------------------------------------
# BFS oracle


def _shells(params, k_max, **kw):
    out = [[] for _ in range(k_max + 1)]
    for cls, dist in enumerate_classes(params, k_max, **kw):
        out[dist].append(cls)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_bfs_matches_tree_counts_d2(p):
    params = BuildingParams(2, p)
    shells = _shells(params, 4)
    for k, shell in enumerate(shells):
        assert len(shell) == sphere_size(params, k)


def test_bfs_deep_d2_check_passes(registry):
    # p = 2, 3, 5 out to distance 6; criterion 2 runs this check too, but
    # fails by design on its d = 3 checks, which would hide a failure here
    res, _ = registry("building/bfs-deep-d2")
    assert res.passed, res.detail


@pytest.mark.parametrize(
    "d, p, k_max",
    [(2, 2, 6), (2, 3, 6), (2, 5, 6), (3, 2, 2), (3, 3, 2), (4, 2, 2), (4, 3, 1)],
)
def test_class_bound_is_an_upper_bound(d, p, k_max):
    params = BuildingParams(d, p)
    dist = [k for _, k in enumerate_classes(params, k_max)]
    for k in range(k_max + 1):
        found = sum(1 for j in dist if j <= k)
        assert _class_bound(params, k) >= found
        if d == 2:
            assert _class_bound(params, k) == found


@pytest.mark.parametrize(
    "d, p, k_max",
    [(2, 2, 6), (2, 3, 6), (2, 5, 6), (3, 2, 3), (3, 3, 2), (4, 2, 2), (4, 3, 1), (5, 2, 1)],
)
def test_enumeration_matches_oracle_bfs(d, p, k_max):
    # the batched modular kernel against one integer HNF per neighbour,
    # order included, at every depth up to k_max
    params = BuildingParams(d, p)
    oracle = enumerate_by_hnf(params, k_max)
    for k in range(k_max + 1):
        assert list(enumerate_classes(params, k)) == [item for item in oracle if item[1] <= k]


def test_enumeration_matches_oracle_at_large_prime():
    # 65,523 classes: the 65,522 neighbours of the base in one block
    params = BuildingParams(2, 65521)
    assert list(enumerate_classes(params, 1)) == enumerate_by_hnf(params, 1)


def test_object_arrays_match_oracle(monkeypatch):
    # with no int64 headroom the kernel and the keys run on Python ints
    monkeypatch.setattr(hermite, "_INT64_BITS", 0)
    for d, p, k_max in [(2, 3, 4), (3, 2, 2), (4, 2, 1)]:
        params = BuildingParams(d, p)
        assert list(enumerate_classes(params, k_max)) == enumerate_by_hnf(params, k_max)
    cls = LatticeClass.from_matrix([[1, 0, 3], [0, 2, 1], [0, 0, 8]], 2)
    assert neighbors(cls, 3) == neighbors_by_hnf(cls, 3)


def test_blocks_do_not_change_classes(monkeypatch):
    expected = {c: list(enumerate_classes(BuildingParams(*c[:2]), c[2])) for c in [(3, 2, 3), (2, 3, 5)]}
    monkeypatch.setattr(building, "_BLOCK", 1)
    for c, classes in expected.items():
        assert list(enumerate_classes(BuildingParams(*c[:2]), c[2])) == classes


@pytest.mark.parametrize("object_keys", [False, True])
@pytest.mark.parametrize("d, p, k_max", [(2, 3, 5), (4, 2, 2)])
def test_class_table_contract(monkeypatch, d, p, k_max, object_keys):
    if object_keys:
        monkeypatch.setattr(hermite, "_INT64_BITS", 0)
    table = enumerate_classes(BuildingParams(d, p), k_max)
    assert all((keys.dtype == object) == object_keys for keys in table.shells)
    pairs = list(table)
    assert len(table) == sum(table.shell_sizes) == len(pairs)
    assert table.shell_sizes == tuple(sum(1 for _, k in pairs if k == j) for j in range(k_max + 1))
    assert list(table) == pairs
    for keys in table.shells:
        assert np.all(keys[1:] > keys[:-1])
    keys = np.concatenate(table.shells)
    assert len(set(keys.tolist())) == len(keys)
    # every hnf is a tuple of tuples of Python ints, never numpy ints
    assert {type(cls.hnf) for cls, _ in pairs} | {type(row) for cls, _ in pairs for row in cls.hnf} == {tuple}
    assert {type(v) for cls, _ in pairs for row in cls.hnf for v in row} == {int}
    json.dumps([cls.hnf for cls, _ in pairs])


@pytest.mark.parametrize(
    "d, p, shells",
    [
        (4, 3, [1, 210, 23610]),
        (4, 2, [1, 65, 1850, 39440]),
    ],
)
def test_bfs_shell_counts_pinned(d, p, shells):
    assert enumerate_classes(BuildingParams(d, p), len(shells) - 1).shell_sizes == tuple(shells)


def test_bfs_memory_is_bounded():
    # 55,615 classes, held as key arrays: this search peaks at 2.8 MB,
    # without frontier blocks at 127 MB, and with a LatticeClass built for
    # every class at 41.1 MB
    tracemalloc.start()
    try:
        table = enumerate_classes(BuildingParams(5, 2), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
    assert table.shell_sizes == (1, 372, 55242)


def test_class_budget_covers_d4():
    # 1916 classes lie within distance 2 at (d, p) = (4, 2); the closed-form
    # ball size 1396 would have admitted them under a budget of 1500
    with pytest.raises(BudgetError):
        enumerate_classes(BuildingParams(4, 2), 2, max_classes=1500)


def test_bfs_shell_counts_d3():
    # In rank 2 the closed form D(p) c(p)^{k-1} counts back-edge incidences
    # from shell k into shell k-1, not vertices; the vertex counts are
    # strictly smaller from k = 2 on.  Both quantities are pinned here.
    for p, vertices, incidences in [(2, 98, 140), (3, 390, 546)]:
        params = BuildingParams(3, p)
        shells = _shells(params, 2)
        assert [len(s) for s in shells] == [1, shell_count(3, p), vertices]
        shell1 = set(shells[1])
        back = sum(
            sum(1 for nb in neighbors(cls, 3) if nb in shell1) for cls in shells[2]
        )
        assert back == incidences
        assert incidences == sphere_size(params, 2)


def test_hnf_universe_matches_bfs_shells_d2():
    for p in (2, 3):
        params = BuildingParams(2, p)
        shells = _shells(params, 3)
        for e in range(1, 4):
            universe = hnf_universe(2, p, e)
            assert len(universe) == sphere_size(params, e)
            assert set(universe) == {cls.hnf for cls in shells[e]}


def test_hnf_universe_d3_groups_by_det_exponent():
    # index-p sublattices of Z^3: (p^3 - 1)/(p - 1)
    assert len(hnf_universe(3, 2, 1)) == 7
    assert len(hnf_universe(3, 3, 1)) == 13
    # every class with det exponent e and spread <= 2 appears in the radius-2
    # ball, so the universe at e <= 2 is recoverable from BFS output
    params = BuildingParams(3, 2)
    by_exp = {1: set(), 2: set()}
    for cls, _ in enumerate_classes(params, 2):
        e = cls.det_exponent()
        if e in by_exp:
            by_exp[e].add(cls.hnf)
    assert set(hnf_universe(3, 2, 1)) == by_exp[1]
    assert set(hnf_universe(3, 2, 2)) == by_exp[2]


# ---------------------------------------------------------------------------
# distances and normal forms


def test_building_distance_examples():
    assert building_distance([[1, 0], [0, 1]], 5) == 0
    assert building_distance([[1, 0], [0, 5]], 5) == 1
    assert building_distance([[25, 0], [0, 1]], 5) == 2
    assert building_distance([[1, 0], [0, 8]], 2) == 3
    assert building_distance([[2, 0], [0, 2]], 2) == 0
    assert building_distance([[1, 0, 0], [0, 2, 0], [0, 0, 4]], 2) == 2


def test_snf_exponents_examples():
    assert snf_exponents([[1, 0], [0, 12]], 2) == (0, 2)
    assert snf_exponents([[1, 0], [0, 12]], 3) == (0, 1)
    assert snf_exponents([[2, 1], [0, 2]], 2) == (0, 2)
    assert snf_exponents([[6, 4], [2, 8]], 2) == (1, 2)


def test_distance_matches_bfs_layers():
    for params in (BuildingParams(2, 3), BuildingParams(3, 2)):
        k_max = 3 if params.d == 2 else 2
        for cls, dist in enumerate_classes(params, k_max):
            assert building_distance(cls.hnf, params.p) == dist


def test_class_distance_is_the_divisor_exponent_spread():
    pairs = list(enumerate_classes(BuildingParams(2, 2), 2))
    assert len(pairs) == 1 + 3 + 6
    for cls, dist in pairs:
        exps = cls.divisor_exponents()
        assert list(exps) == sorted(exps)
        assert dist == exps[-1] - exps[0]


# ---------------------------------------------------------------------------
# adjacency


def test_neighbors_of_base_class_d2():
    params = BuildingParams(2, 2)
    nbs = neighbors(base_class(params), 2)
    assert len(nbs) == 3
    for nb in nbs:
        assert is_adjacent(base_class(params), nb)
        assert is_adjacent(nb, base_class(params))


def test_adjacency_is_symmetric_on_samples():
    params = BuildingParams(3, 2)
    shells = _shells(params, 2)
    sample = shells[1] + shells[2][:20]
    for cls in sample:
        for nb in neighbors(cls, 3):
            assert is_adjacent(cls, nb)
            assert cls in neighbors(nb, 3)


def test_neighbors_match_oracle_in_subspace_order():
    classes = [cls for cls, _ in enumerate_classes(BuildingParams(3, 3), 2)][::37]
    # determinant 2^110: q = 2^111 puts the kernel on object arrays
    classes.append(LatticeClass.from_matrix([[1, 0, 3], [0, 2**40, 7], [0, 0, 2**70]], 2))
    for cls in classes:
        assert neighbors(cls, 3) == neighbors_by_hnf(cls, 3)
    with pytest.raises(DomainError):
        neighbors(classes[0], 2)
    # q = 3^(e + 1) on both sides of the int64 limit d q^2 < 2^62
    for e in range(17, 21):
        cls = LatticeClass.from_matrix([[1, 3**e - 1], [0, 3**e]], 3)
        assert neighbors(cls, 2) == neighbors_by_hnf(cls, 2)


def test_neighbors_refuse_an_hnf_that_is_not_a_hermite_form():
    # the kernel takes S_W h as already triangular, so it needs the forms
    # that LatticeClass.from_matrix makes: triangular, powers of p on the
    # diagonal, and each entry above it reduced by it
    cls = LatticeClass.from_matrix([[1, 1], [0, 2]], 2)
    assert cls.hnf == ((1, 1), (0, 2))
    assert neighbors(cls, 2) == neighbors_by_hnf(cls, 2)
    for hnf in [
        ((1, 0), (1, 2)),
        ((2, 0), (0, 0)),
        ((1, 0), (0, -2)),
        ((3, 0), (0, 1)),
        ((1, 2), (0, 2)),
        ((1, -1), (0, 2)),
        ((1, 0, 0), (0, 1)),
        ((1, 0), (0,)),
    ]:
        with pytest.raises(DomainError, match="use LatticeClass.from_matrix"):
            neighbors(LatticeClass(2, hnf), 2)


@pytest.mark.parametrize(
    "d, p, n, dtype",
    [(3, 2, 6, np.int16), (5, 2, 5, np.int16), (4, 3, 5, np.int32), (3, 2, 14, np.int32), (3, 2, 30, np.int64), (3, 3, 4, object)],
)
def test_neighbour_forms_match_the_elimination(monkeypatch, d, p, n, dtype):
    # the elimination of `hermite_form`, one matrix at a time, is the
    # labelled oracle of the kernel's short path, on the same products S_W h
    # of a block of primitive HNFs with p^(n - 1) Z^d inside; d q^2 is just
    # below 2^14, 2^30 or 2^62 in all but the third and last cases
    if dtype is object:
        monkeypatch.setattr(hermite, "_INT64_BITS", 0)
    rng = np.random.default_rng(n)
    block = rng.integers(-50, 50, size=(60, d, d)) * p ** rng.integers(0, n, size=(60, 1, d))
    hnfs = np.array([hermite.hermite_form(x.tolist(), p, n - 1) for x in block])
    assert len({tuple(h.ravel().tolist()) for h in hnfs}) > 15
    forms = hermite.neighbour_forms(hnfs, p, n)
    assert forms.dtype == dtype
    products = (hermite.subspace_products(d, p)[None] @ hnfs[:, None]).reshape(-1, d, d)
    assert forms.tolist() == [hermite.hermite_form(x.tolist(), p, n).tolist() for x in products]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_subspace_products_are_upper_triangular(d, p):
    # every S_W has strictly increasing leading columns, so S_W h is
    # triangular for every triangular h
    s = hermite.subspace_products(d, p)
    lead = (s != 0).argmax(axis=2)
    assert np.all(lead[:, 1:] > lead[:, :-1])
    assert set(np.diagonal(s, axis1=1, axis2=2).ravel().tolist()) == {1, p}


@pytest.mark.parametrize(
    "d, p, e, dtype",
    [
        (2, 3, 3, np.int16),
        (2, 3, 4, np.int32),
        (2, 3, 8, np.int32),
        (2, 3, 9, np.int64),
        (3, 2, 5, np.int16),
        (3, 2, 6, np.int32),
        (3, 2, 13, np.int32),
        (3, 2, 14, np.int64),
    ],
)
def test_kernel_at_the_narrow_dtype_limits(monkeypatch, d, p, e, dtype):
    # q = p^(e + 1) on both sides of d q^2 < 2^14 (int16 or int32) and of
    # d q^2 < 2^30 (int32 or int64), against the integer oracles and the
    # kernel's object path
    q = p ** (e + 1)
    assert hermite._dtype((d * q * q).bit_length()) is dtype
    rows = [[int(i == j) for j in range(d - 1)] + [p**e - 1 - i] for i in range(d - 1)]
    rows.append([0] * (d - 1) + [p**e])
    cls = LatticeClass.from_matrix(rows, p)
    assert cls == _class_by_euclid(rows, p)
    nbs = neighbors(cls, d)
    assert nbs == neighbors_by_hnf(cls, d)
    # p on the diagonal of S_W times p^e on the hnf's makes q, which the
    # kernel keeps, where reducing every entry modulo q would give 0
    products = hermite.subspace_products(d, p) @ np.array(cls.hnf, dtype=object)
    assert q in np.diagonal(products, axis1=1, axis2=2)
    assert q in {nb.hnf[-1][-1] for nb in nbs}
    assert hermite.neighbour_forms(np.array([cls.hnf]), p, e + 1).dtype == dtype
    monkeypatch.setattr(hermite, "_INT64_BITS", 0)
    assert neighbors(cls, d) == nbs


def test_lattice_class_is_a_named_tuple():
    cls = LatticeClass(2, ((1, 0), (0, 1)))
    with pytest.raises(AttributeError):
        cls.p = 3
    assert not hasattr(cls, "__dict__")
    assert hash(cls) == hash((cls.p, cls.hnf))
    assert repr(cls) == "LatticeClass(p=2, hnf=((1, 0), (0, 1)))"
    assert LatticeClass.from_matrix([[2, 0], [6, 12]], 2) == LatticeClass(2, ((1, 0), (0, 2)))
    assert LatticeClass.from_matrix([[4, 0], [0, 4]], 2) == cls == (2, ((1, 0), (0, 1)))
    p, hnf = cls
    assert (p, hnf) == (2, ((1, 0), (0, 1)))
    assert sorted([LatticeClass(3, ((1, 0), (0, 1))), LatticeClass(2, ((1, 0), (0, 2))), cls])[0] is cls
    # a dict keyed by classes, as verify's counting/snf-vs-bfs-distance
    # check builds, resolves classes made elsewhere and plain tuples alike
    distances = dict(enumerate_classes(BuildingParams(2, 3), 2))
    assert {type(c) for c in distances} == {LatticeClass}
    assert distances[LatticeClass.from_matrix([[1, 0], [0, 9]], 3)] == 2
    assert distances[(3, ((3, 1), (0, 3)))] == 2
    assert distances[base_class(BuildingParams(2, 3))] == 0


def test_base_class_not_self_adjacent():
    params = BuildingParams(2, 3)
    assert not is_adjacent(base_class(params), base_class(params))


# ---------------------------------------------------------------------------
# property tests: normal form invariance


def _matrices(d, lo=-40, hi=40):
    entry = st.integers(lo, hi)
    return st.lists(
        st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d
    ).filter(lambda rows: _det(rows) != 0)


def _det(rows):
    d = len(rows)
    if d == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(d):
        minor = [[rows[i][k] for k in range(d) if k != j] for i in range(1, d)]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


@given(_matrices(2), st.sampled_from([2, 3, 5]))
def test_row_operations_preserve_class_d2(rows, p):
    cls = LatticeClass.from_matrix(rows, p)
    swapped = [rows[1], rows[0]]
    assert LatticeClass.from_matrix(swapped, p) == cls
    sheared = [rows[0], [rows[1][0] + 3 * rows[0][0], rows[1][1] + 3 * rows[0][1]]]
    assert LatticeClass.from_matrix(sheared, p) == cls


@given(_matrices(2), st.sampled_from([2, 3, 5]), st.integers(1, 30))
def test_prime_to_p_scaling_preserves_class(rows, p, c):
    if c % p == 0:
        c += 1
    scaled = [[c * v for v in row] for row in rows]
    assert LatticeClass.from_matrix(scaled, p) == LatticeClass.from_matrix(rows, p)


@given(_matrices(2), st.sampled_from([2, 3, 5]))
def test_p_scaling_preserves_class(rows, p):
    scaled = [[p * v for v in row] for row in rows]
    assert LatticeClass.from_matrix(scaled, p) == LatticeClass.from_matrix(rows, p)


@given(_matrices(3, -12, 12), st.sampled_from([2, 3]))
def test_divisor_exponents_sum_to_det_valuation_d3(rows, p):
    cls = LatticeClass.from_matrix(rows, p)
    exps = cls.divisor_exponents()
    assert exps == tuple(sorted(exps))
    assert exps[0] == 0
    det = abs(_det(cls.hnf))
    v = 0
    while det % p == 0:
        det //= p
        v += 1
    assert sum(exps) == v


@given(_matrices(2), st.sampled_from([2, 3, 5]))
def test_normal_form_is_idempotent(rows, p):
    cls = LatticeClass.from_matrix(rows, p)
    assert LatticeClass.from_matrix(cls.hnf, p) == cls


@given(_matrices(2), st.sampled_from([2, 3, 5]))
def test_distance_is_spread_of_exponents(rows, p):
    exps = snf_exponents(rows, p)
    assert building_distance(rows, p) == exps[-1] - exps[0]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 4).flatmap(lambda d: _matrices(d, -30, 30)),
    st.sampled_from([2, 3, 5]),
    st.integers(0, 10**6),
    st.integers(0, 2),
)
def test_kernel_form_matches_integer_hnf(rows, p, pick, extra):
    # any q = p^n with p^(n-1) Z^d inside the lattice gives the same form
    d = len(rows)
    cls = LatticeClass.from_matrix(rows, p)
    expected = neighbors_by_hnf(cls, d)
    w = pick % len(expected)
    forms = hermite.neighbour_forms(np.array([cls.hnf], dtype=object), p, cls.det_exponent() + 1 + extra)
    assert tuple(map(tuple, forms[w].tolist())) == expected[w].hnf


def _form_by_euclid(rows, p, q):
    """The primitive HNF of rowspan(rows) + q Z^d by integer Euclid."""
    m = tuple(map(tuple, rows))
    ident = tuple(tuple(q if i == j else 0 for j in range(len(m))) for i in range(len(m)))
    return _primitive_rescale(hnf_rows(m + ident), p)


def _class_by_euclid(rows, p):
    """The class through the integer Hermite form of rowspan(rows) + p^e Z^d."""
    return LatticeClass(p, _form_by_euclid(rows, p, p ** valuation(det_int(rows), p)))


def _scaled_matrices(d):
    """Nonsingular matrices with small or 70-bit entries, and column powers."""
    entries = st.one_of(_matrices(d), _matrices(d, -(2**70), 2**70))
    return st.tuples(entries, st.lists(st.integers(0, 30), min_size=d, max_size=d))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(_scaled_matrices), st.sampled_from([2, 3, 5]))
@example(([[1, 0], [0, 1]], [0, 0]), 2)
@example(([[3, 1, 4], [1, 5, 9], [2, 6, 5]], [40, 0, 25]), 2)
@example(([[-(2**70), 1], [5, 2**69 + 1]], [30, 30]), 5)
def test_from_matrix_matches_integer_hnf(case, p):
    # column k scaled by p^(powers[k]) lifts v_p(det) up to 120, so
    # q = p^(v_p(det) + 1) runs far past 64 bits (the second and third
    # examples)
    rows, powers = case
    rows = [[v * p**k for v, k in zip(row, powers)] for row in rows]
    assert LatticeClass.from_matrix(rows, p) == _class_by_euclid(rows, p)


def _pivot_cases():
    """3 x 3 matrices with pivots on later rows, a column of 27, a
    non-primitive span and diag(1, 3, 9) reversed."""
    rng = np.random.default_rng(18)
    block = rng.integers(-40, 40, size=(60, 3, 3)) * 3 ** rng.integers(0, 4, size=(60, 3, 1))
    block[0, :, 1] = 27
    block[1] *= 3
    block[2] = np.diag([1, 3, 9])[::-1]
    return block.tolist()


def test_hermite_form_matches_integer_hnf_at_q_27():
    # at q = 27 the column of 27 is 0 mod q and keeps its row
    for x in _pivot_cases():
        assert hermite.hermite_form(x, 3, 3).tolist() == list(map(list, _form_by_euclid(x, 3, 27)))


def test_from_matrix_matches_integer_hnf_on_pivot_cases():
    # every case is nonsingular, so q = 3^(v_3(det) + 1)
    for x in _pivot_cases():
        assert LatticeClass.from_matrix(x, 3) == _class_by_euclid(x, 3)


def test_hermite_form_at_q_one_is_the_identity():
    # q = p^0 = 1: every row span plus Z^d is Z^d
    for rows in ([[0, 0], [0, 0]], [[2, 4], [6, 3]], [[1, 0, 3], [0, 2, 1], [0, 0, 8]]):
        assert hermite.hermite_form(rows, 2, 0).tolist() == np.eye(len(rows), dtype=int).tolist()


def _mixed_content_block(d, p, n, seed):
    """(d, d, 300) triangular bases with powers of p up to q = p^n on the
    diagonal and entries in [0, q) above it: a third as drawn, most with a
    unit on the diagonal, a third times p and a third times p^2."""
    rng = np.random.default_rng(seed)
    h = np.triu(rng.integers(0, p**n, size=(300, d, d)), 1)
    h += np.eye(d, dtype=h.dtype) * p ** rng.integers(0, n + 1, size=(300, 1, d))
    h[100:200] *= p
    h[200:] *= p * p
    return h.transpose(1, 2, 0)


@pytest.mark.parametrize("dtype", [np.int64, object])
@pytest.mark.parametrize("d, p, n", [(2, 2, 3), (3, 3, 2), (4, 2, 3), (4, 5, 1)])
def test_reduce_matches_the_full_gcd(d, p, n, dtype):
    # the content is divided out only where no diagonal entry is 1
    h = _mixed_content_block(d, p, n, 7 * d + p).astype(dtype)
    got = hermite._reduce(h.copy(), p**n)
    want = reduce_by_full_gcd(h.copy(), p**n)
    assert got.dtype == dtype and np.array_equal(got, want)
    contents = np.gcd.reduce(want.reshape(len(want), -1).astype(np.int64), axis=1)
    assert set(contents) == {1}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermite_form_divides_out_a_content_of_p_squared(d, p):
    # rowspan(p^2 I) + p^3 Z^d = p^2 Z^d: the triangle is p^2 I, the form I
    assert hermite.hermite_form((p * p * np.eye(d, dtype=int)).tolist(), p, 3).tolist() == np.eye(d, dtype=int).tolist()


@settings(max_examples=30)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 3))
def test_hnf_reps_all_have_unit_scaled_det(p, e):
    for mat in hnf_universe(2, p, e):
        det = abs(_det(mat))
        assert det == p**e
        assert Fraction(det, p**e) == 1
        assert math.gcd(*(v for row in mat for v in row)) % p != 0
