"""Self-check suite behind the `verify` CLI subcommand.

The checks form one ordered registry.  Each is declared exactly once, by
the `_check` decorator on its function, with its report name and its
tier; `run_checks` runs the registry in declaration order and
`run_check` runs a single check by name.  The acceptance tests
(tests/test_acceptance.py) run these same checks, so every release
criterion is stated here and nowhere else.

Each check function returns (passed, detail).  Output is deterministic:
fixed check order, no timestamps, all numbers through one %.12g
formatter, and every reduction in a fixed order, so two runs produce
byte-identical reports.

Checks compare only against package code (counting/snf-vs-bfs-distance
walks the canonical matrices of [-2, 2]^4 inline); the test oracles of
tests/oracles.py are not shipped.

The quick tier is the sub-minute CI gate.  The full tier additionally runs
the breadth-first enumerations, the large sieves, and the empirical
regularity/persistence studies; it deliberately includes the d = 3
closed-form vertex-count comparison, which fails by a documented margin
(at k = 2 the closed form counts back-edge incidences, not vertices; see
the building module docstring).  The report shows that failure honestly
rather than hiding the check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable

import numpy as np

from . import adelic, archimedean, building, counting, dirichlet

# the package's one 12-significant-digit number format (the CLI uses it too)
_FMT = "%.12g"


def _f(x: float) -> str:
    return _FMT % x


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Check:
    """A registered check: its tier ("quick" or "full") and its function,
    which returns (passed, detail)."""

    tier: str
    run: Callable[[], tuple[bool, str]]


# check name -> Check, in declaration order, which is report order
REGISTRY: dict[str, Check] = {}


def _check(name: str, tier: str):
    """Register the decorated function as the check `name` of `tier`."""

    def declare(fn: Callable[[], tuple[bool, str]]):
        if name in REGISTRY:
            raise ValueError(f"check {name!r} declared twice")
        if tier not in ("quick", "full"):
            raise ValueError(f"unknown tier {tier!r}")
        REGISTRY[name] = Check(tier, fn)
        return fn

    return declare


def _close(got: float, want: float, rtol: float = 0.0, atol: float = 0.0) -> bool:
    return abs(got - want) <= rtol * abs(want) + atol


# ---------------------------------------------------------------------------
# quick-tier checks


@_check("building/sphere-closed-form-d2", "quick")
def _check_sphere_closed_form_d2():
    rows = []
    ok = True
    for p in (2, 3):
        params = building.BuildingParams(2, p)
        counts = list(building.enumerate_classes(params, 3).shell_sizes)
        formula = [building.sphere_size(params, k) for k in range(4)]
        ok &= counts == formula
        rows.append(f"p={p} bfs={counts} formula={formula}")
    return ok, "; ".join(rows)


@_check("building/d3-first-shell", "quick")
def _check_d3_first_shell():
    params = building.BuildingParams(3, 2)
    got = building.enumerate_classes(params, 1).shell_sizes[1]
    want = building.sphere_size(params, 1)
    return got == want == 14, f"bfs={got} formula={want}"


@_check("dirichlet/coefficient-tables", "quick")
def _check_coeff_tables():
    t2 = tuple(dirichlet.coeff_array(2, 10)[1:].tolist())
    want2 = (1, 3, 4, 6, 6, 12, 8, 12, 12, 18)
    d3 = (dirichlet.coeff_D(3, 2), dirichlet.coeff_D(3, 4), dirichlet.coeff_D(3, 6))
    want3 = (14, 140, 364)
    return t2 == want2 and d3 == want3, f"D2(1..10)={t2} D3(2,4,6)={d3}"


@_check("dirichlet/zeta-special-values", "quick")
def _check_zeta():
    pairs = [
        (dirichlet.zeta_em(2.0).real, math.pi**2 / 6),
        (dirichlet.zeta_em(4.0).real, math.pi**4 / 90),
    ]
    worst = max(abs(g - w) / w for g, w in pairs)
    return worst <= 1e-13, f"worst rel={_f(worst)}"


_POLE_TABLE = {
    2: (1.0, 1.0),
    3: (3.3219280949, 2.7712437492),
    4: (4.9068905956, 4.1257498573),
    5: (6.2854022189, 5.3653166773),
    6: (7.5698556083, 6.5507064185),
}


@_check("dirichlet/pole-table", "quick")
def _check_pole_table():
    worst = 0.0
    for d, (s2, s3) in _POLE_TABLE.items():
        table = dirichlet.pole_abscissas(d, p_max=3)
        got = dict(table.entries)
        worst = max(worst, abs(got[2] - s2), abs(got[3] - s3))
    return worst <= 1e-9, f"worst abs={_f(worst)}"


@_check("dirichlet/b0-identity", "quick")
def _check_b0_identity():
    worst = 0.0
    for d in range(3, 7):
        lhs = math.log(d * 2 ** (d - 1) - 2) / math.log(2)
        worst = max(worst, abs(lhs - dirichlet.pole_abscissas(d).B0))
    return worst <= 1e-12, f"worst abs={_f(worst)}"


@_check("dirichlet/euler-vs-closed", "quick")
def _check_euler_vs_closed():
    rows = []
    ok = True
    for s in (2.5, 3.0, 4.0):
        r = dirichlet.L_euler(2, complex(s))
        c = dirichlet.L_closed_pgl2(s)
        rel = abs(r.value - c) / abs(c)
        ok &= rel <= 1e-10 and abs(r.value - c) <= r.truncation_bound
        rows.append(f"pgl2 s={_f(s)} rel={_f(rel)}")
    for s in (2.0, 2.5):
        r = dirichlet.L_euler_sl2(s)
        c = dirichlet.L_closed_sl2(s)
        rel = abs(r.value - c) / abs(c)
        ok &= rel <= 1e-10 and abs(r.value - c) <= r.truncation_bound
        rows.append(f"sl2 s={_f(s)} rel={_f(rel)}")
    return ok, "; ".join(rows)


@_check("dirichlet/residues", "quick")
def _check_residues():
    pgl2 = dirichlet.residue_estimate("pgl2")
    sl2 = dirichlet.residue_estimate("sl2")
    want_pgl2 = 15.0 / math.pi**2
    want_sl2 = 15.0 / (2.0 * math.pi**2)
    ok = (
        _close(pgl2.direct, want_pgl2, atol=1e-10)
        and _close(pgl2.extrapolated, pgl2.direct, atol=1e-6)
        and _close(sl2.direct, want_sl2, atol=1e-10)
    )
    return ok, (
        f"pgl2 direct={_f(pgl2.direct)} want={_f(want_pgl2)}; "
        f"sl2 direct={_f(sl2.direct)} want={_f(want_sl2)}"
    )


@_check("archimedean/d2-closed-form", "quick")
def _check_ball_volume_d2():
    worst = 0.0
    for R in (0.5, 1.0, 3.0):
        got = archimedean.ball_volume_numeric(2, 1.0, R)
        want = (math.cosh(2 * R) - 1) / 2
        worst = max(worst, abs(got - want) / want)
    return worst <= 1e-9, f"worst rel={_f(worst)}"


@_check("archimedean/simplex-area", "quick")
def _check_simplex_area():
    a2 = archimedean.simplex_area(2)
    a3 = archimedean.simplex_area(3)
    ok = a2 == 1.0 and _close(a3, 2 / math.sqrt(3), atol=1e-12)
    return ok, f"a2={_f(a2)} a3={_f(a3)}"


@_check("adelic/height-examples", "quick")
def _check_height_examples():
    prof = adelic.global_height([[1, 0], [0, 2]], 1.0)
    swap = adelic.global_height([[0, 1], [1, 0]], 1.0)
    ok = (
        prof.h_fin == 2
        and _close(prof.h, 2 * math.sqrt(2), atol=1e-12)
        and swap.h == 1.0
    )
    return ok, f"diag(1,2) h={_f(prof.h)}; antidiag h={_f(swap.h)}"


@_check("adelic/tree-and-covering", "quick")
def _check_tree_and_covering():
    trees = (adelic.tree_ball(2, 0.5), adelic.tree_ball(2, 1.0), adelic.tree_ball(2, 3.0))
    cover = (
        adelic.covering_number_box(1, 1.0, 0.1),
        adelic.covering_number_box(2, 1.0, 0.25),
        adelic.covering_number_box(2, 1.0, 0.3),
    )
    ok = trees == (1, 4, 22) and cover[0][0] == 10 and cover[1][0] == 16 and cover[2][0] == 16
    ok = ok and _close(cover[2][1], 1.44, atol=1e-12)
    return ok, f"trees={trees} cover3 ratio={_f(cover[2][1])}"


@_check("adelic/persistence-two-mass", "quick")
def _check_persistence_two_mass():
    grid = tuple(np.linspace(0.0, 10.0, 10001).tolist())
    pair = adelic.MeasurePair(
        masses=((0.0, 1.0), (math.log(2.0), 1.0)),
        nu_grid=grid,
        nu_values=tuple(np.exp(2.0 * np.asarray(grid)).tolist()),
        alpha=0.0,
        beta=2.0,
    )
    _, ratio = adelic.persistence_check(pair, 8.0)
    ok = _close(pair.C, 1.25, atol=1e-12) and _close(ratio, 1.0, atol=1e-5)
    return ok, f"C={_f(pair.C)} ratio={_f(ratio)}"


@_check("adelic/regularity-models", "quick")
def _check_regularity_models():
    eps = (0.02, 0.01, 0.005)
    t_list = np.linspace(6.0, 12.0, 1501)
    smooth = adelic.regularity_report(lambda x: x * math.exp(2 * x), eps, t_list)
    step = adelic.regularity_report(lambda x: math.exp(math.floor(x)), eps, t_list)
    ok = (
        smooth.verdict == "regular"
        and step.verdict == "non-regular"
        and _close(step.lower_ratios[-1], math.exp(-1), atol=0.05)
    )
    return ok, f"smooth={smooth.verdict} step={step.verdict} step liminf={_f(step.lower_ratios[-1])}"


@_check("counting/entry-bound", "quick")
def _check_entry_bound():
    got = (counting.entry_bound(4, 1.0), counting.entry_bound(1, 1.0), counting.entry_bound(4, 0.5))
    return got == (4, 1, 2), f"got={got}"


@_check("counting/pi-examples", "quick")
def _check_pi_examples():
    zero = counting.pi_count(0.5, 1.0)
    four = counting.pi_count(1.0, 1.0)
    six = counting.pi_count(6.0, 1.0)
    ok = zero == 0 and four == 4 and six == 440
    return ok, f"pi(0.5)={zero} pi(1)={four} pi(6)={six}"


# ---------------------------------------------------------------------------
# full-tier checks


@_check("building/bfs-deep-d2", "full")
def _check_bfs_deep_d2():
    rows = []
    ok = True
    for p in (2, 3, 5):
        params = building.BuildingParams(2, p)
        counts = list(building.enumerate_classes(params, 6).shell_sizes)
        formula = [building.sphere_size(params, k) for k in range(7)]
        ok &= counts == formula
        rows.append(f"p={p} match={counts == formula}")
    return ok, "; ".join(rows)


@cache
def _d3_census(p: int) -> tuple[tuple[int, int, int], int]:
    """Shell sizes out to distance 2 and the shell-2 -> shell-1 edge count.

    Two checks read it for each p, so the BFS runs once per p.  A shell-2
    class contains p^2 Z^3, so each of its neighbours contains p^3 Z^3:
    one `hermite.neighbour_forms` call at q = p^3 gives the neighbours of
    the whole shell, and their keys are matched against shell 1's, both
    at the key width of p^3.
    """
    from . import hermite  # here, so the CLI's import of verify skips compiling it

    table = building.enumerate_classes(building.BuildingParams(3, p), 2)
    shell1, shell2 = (hermite.key_forms(keys, 3, table.bits) for keys in table.shells[1:])
    bits = (p**3).bit_length()
    found = hermite.form_keys(hermite.neighbour_forms(shell2, p, 3), bits)
    incidences = int(np.isin(found, hermite.form_keys(shell1, bits)).sum())
    return table.shell_sizes, incidences


@_check("building/d3-closed-form-vertex-count", "full")
def _check_d3_vertex_count():
    rows = []
    ok = True
    for p in (2, 3):
        counts, _ = _d3_census(p)
        formula = building.sphere_size(building.BuildingParams(3, p), 2)
        ok &= counts[2] == formula
        rows.append(f"p={p} bfs={counts[2]} closed-form={formula}")
    return ok, "; ".join(rows) + " (closed form counts edge incidences in rank 2; see module docs)"


@_check("building/d3-incidence-identity", "full")
def _check_d3_incidence_identity():
    rows = []
    ok = True
    for p in (2, 3):
        _, incidences = _d3_census(p)
        formula = building.sphere_size(building.BuildingParams(3, p), 2)
        ok &= incidences == formula
        rows.append(f"p={p} back-edges={incidences} formula={formula}")
    return ok, "; ".join(rows)


@_check("dirichlet/partial-sum-asymptotic", "full")
def _check_partial_sum_asymptotic():
    x = 1e6
    total = dirichlet.partial_sum(2, 0.0, x, max_sieve=10**6)
    ratio = total / x**2
    want = 15.0 / (2.0 * math.pi**2)
    rel = abs(ratio - want) / want
    return rel <= 0.05, f"sum/x^2={_f(ratio)} limit={_f(want)} rel={_f(rel)}"


@_check("archimedean/frozen-volumes", "full")
def _check_frozen_volumes():
    v3 = archimedean.ball_volume_numeric(3, 1.0, 2.0)
    v4 = archimedean.ball_volume_numeric(4, 1.0, 1.5)
    ok = _close(v3, 2.552117668702, rtol=1e-8) and _close(v4, 1.090533867611e-3, rtol=1e-6)
    return ok, f"d3={_f(v3)} d4={_f(v4)}"


@_check("adelic/regularity-of-global-volume", "full")
def _check_adelic_regularity():
    b = adelic.adelic_volume_callable(2, 1.0, 13.1, max_sieve=600000)
    rep = adelic.regularity_report(b, (0.02, 0.01, 0.005), np.linspace(8.0, 13.0, 26))
    return rep.verdict == "regular", f"verdict={rep.verdict} gap={_f(rep.gap)}"


@_check("adelic/pgl2-persistence", "full")
def _check_pgl2_persistence():
    pair = adelic.pgl2_measure_pair(T_max=12.0, max_sieve=200000)
    c_ref = dirichlet.partial_sum(2, 3.0, math.exp(12.0), max_sieve=200000)
    _, ratio = adelic.persistence_check(pair, 12.0)
    ok = _close(pair.C, c_ref, atol=1e-12) and _close(ratio, 1.0, atol=0.03)
    return ok, f"C={_f(pair.C)} ratio={_f(ratio)}"


@_check("counting/box-saturation", "full")
def _check_pi_saturation():
    x = 4.0
    base = counting.pi_count_detail(x, 1.0)
    bigger = counting._count_chunk(
        counting._axis_values(base.entry_bound_used + 2),
        base.entry_bound_used + 2,
        x,
        1.0,
    )[0]
    ok = base.count == bigger == 160
    return ok, f"N={base.entry_bound_used} count={base.count} N+2 count={bigger}"


@_check("counting/snf-vs-bfs-distance", "full")
def _check_snf_vs_bfs():
    """Each matrix's class at p, from `LatticeClass.from_matrix`, lies at
    BFS distance d_p from the base."""
    checked = 0
    cases: dict[int, list] = {}  # p -> [(matrix, d_p)]
    # canonical representatives in [-2, 2]^4, in lexicographic order:
    # nonsingular, primitive, first nonzero entry positive
    for a, b, c, d in product(range(-2, 3), repeat=4):
        if a * d == b * c or math.gcd(a, b, c, d) != 1 or next(v for v in (a, b, c, d) if v) < 0:
            continue
        mat = [[a, b], [c, d]]
        for p, d_p in adelic.global_height(mat, 1.0).finite_exponents:
            cases.setdefault(p, []).append((mat, d_p))
        checked += 1
        if checked >= 60:
            break
    ok = True
    for p, block in cases.items():
        distances = dict(building.enumerate_classes(building.BuildingParams(2, p), max(d_p for _, d_p in block)))
        ok &= all(distances.get(building.LatticeClass.from_matrix(mat, p)) == d_p for mat, d_p in block)
    return ok, f"checked={checked} classes"


# ---------------------------------------------------------------------------


def run_check(name: str) -> CheckResult:
    """Run the registered check `name` (KeyError if there is none)."""
    passed, detail = REGISTRY[name].run()
    return CheckResult(name, passed, detail)


def run_checks(quick: bool = True) -> list[CheckResult]:
    """The quick tier, or every check, in registry order."""
    return [run_check(name) for name, check in REGISTRY.items() if check.tier == "quick" or not quick]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    passed = sum(1 for r in results if r.passed)
    lines.append(f"passed {passed}/{len(results)} checks")
    return "\n".join(lines) + "\n"
