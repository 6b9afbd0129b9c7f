"""Acceptance gate: one test per release criterion.

Each test prints a single `criterion NN PASS/FAIL` line (visible with -s,
and in the captured output on failure) and then asserts the criterion at
its stated tolerance.  Criterion 2 currently FAILS by design: in rank 2
the closed-form shell count reproduces back-edge incidences, not vertex
counts, and the suite reports that discrepancy instead of papering over
it.  See the building module docstring for the measured numbers.
"""

import math
import time

import numpy as np
import pytest

import heightcount as hc
from heightcount.archimedean import ball_volume_numeric, ball_volume_table
from heightcount.verify import format_report, run_checks


def _report(n, ok, detail):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


# ---------------------------------------------------------------------------


def test_criterion_01_pole_table():
    t0 = time.perf_counter()
    frozen = {
        2: (1.0, 1.0),
        3: (3.3219280949, 2.7712437492),
        4: (4.9068905956, 4.1257498573),
        5: (6.2854022189, 5.3653166773),
        6: (7.5698556083, 6.5507064185),
    }
    worst = 0.0
    for n, (s2, s3) in frozen.items():
        by_p = dict(hc.pole_abscissas(n).entries)
        worst = max(worst, abs(by_p[2] - s2), abs(by_p[3] - s3))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    assert _report(1, ok, f"max deviation {worst:.2e}, {elapsed:.2f}s"), (
        f"pole table off by {worst}"
    )


def test_criterion_02_bfs_equals_closed_form():
    t0 = time.perf_counter()
    mismatches = []
    for d, primes, k_max in [(2, (2, 3, 5), 6), (3, (2, 3), 2)]:
        for p in primes:
            params = hc.BuildingParams(d, p)
            counts = [0] * (k_max + 1)
            for _, dist in hc.enumerate_classes(params, k_max):
                counts[dist] += 1
            for k in range(k_max + 1):
                want = hc.sphere_size(params, k)
                if counts[k] != want:
                    mismatches.append((d, p, k, counts[k], want))
                # ball sizes are partial sums of the sphere sizes
                assert hc.ball_size(params, k) == sum(
                    hc.sphere_size(params, j) for j in range(k + 1)
                )
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 300
    _report(2, ok, f"mismatches={mismatches or 'none'}, {elapsed:.1f}s")
    assert ok, (
        "closed form does not count rank-2 vertices: BFS vs formula "
        f"disagreements (d, p, k, vertices, formula) = {mismatches}. "
        "The formula value equals the number of edges from shell k back "
        "into shell k-1 (independently verified), so the d >= 3 closed "
        "form is an incidence count, not a vertex count."
    )


def test_criterion_03_euler_vs_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for s in (2.5, 3.0, 4.0):
        got = hc.L_euler(2, s, prime_cutoff=10**5).value
        want = hc.zeta_em(s) * hc.zeta_em(s - 1) / hc.zeta_em(2 * s)
        worst = max(worst, abs(got - want) / abs(want))
    for s in (2.0, 2.5):
        got = hc.L_euler_sl2(s, prime_cutoff=10**5).value
        want = hc.zeta_em(2 * (s - 1)) * hc.zeta_em(2 * s - 1) / hc.zeta_em(4 * s - 2)
        worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10
    assert _report(3, ok, f"worst rel error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_residues():
    rep = hc.residue_estimate("pgl2")
    direct_err = abs(rep.direct - 15 / math.pi**2)
    near = 1e-3 * hc.L_closed_pgl2(2.0 + 1e-3).real
    extr_err = abs(near - 1.5198177547)
    sl2 = hc.residue_estimate("sl2")
    want_sl2 = (hc.zeta_em(2) / (2 * hc.zeta_em(4))).real
    sl2_err = abs(sl2.direct - want_sl2)
    logged = f"flat-1/2 convention sits {abs(sl2.direct - 0.5):.4f} away (logged only)"
    ok = direct_err < 1e-10 and extr_err < 1e-2 and sl2_err < 1e-3
    assert _report(
        4,
        ok,
        f"direct err {direct_err:.1e}, (s-2)L at 2.001 err {extr_err:.1e}, "
        f"sl2 err {sl2_err:.1e}; {logged}",
    )


def test_criterion_05_partial_sum_asymptotics():
    t0 = time.perf_counter()
    x = 1e6
    ratio = hc.partial_sum(2, 0.0, x) / x**2
    target = 15 / (2 * math.pi**2)
    rel = abs(ratio - target) / target
    elapsed = time.perf_counter() - t0
    ok = rel < 0.05 and elapsed < 30
    assert _report(5, ok, f"sum/x^2 = {ratio:.6f} vs {target:.6f} ({rel:.2%}), {elapsed:.1f}s")


def test_criterion_06_cartan_closed_form():
    worst = 0.0
    for R in (0.5, 1.0, 3.0, 5.0):
        got = ball_volume_numeric(2, 1.0, R)
        want = (math.cosh(2 * R) - 1) / 2
        worst = max(worst, abs(got - want) / want)
    ok = worst < 1e-9
    assert _report(6, ok, f"worst rel error {worst:.2e}")


def test_criterion_07_growth_exponent():
    radii = np.linspace(5.0, 10.0, 26)
    table = ball_volume_table(2, 1.0, 10.0)
    fit = hc.growth_exponent_fit(radii, [table(R) for R in radii])
    slope_ok = abs(fit.slope - 2.0) < 0.02
    degree_ok = abs(fit.poly_degree) < 0.05
    # the B-exponent convention in circulation predicts e^{BR} = e^{R} here;
    # the prediction report carries both conventions side by side
    rep = hc.prediction_N(2, 2.5, 3.0)
    contrast_ok = (
        abs(rep.measured_exponent - 2 * 2.5) < 0.05
        and rep.value_exponent_B != rep.value_exponent_2B
    )
    ok = slope_ok and degree_ok and contrast_ok
    assert _report(
        7,
        ok,
        f"slope {fit.slope:.4f} (vs 2B = 2), degree {fit.poly_degree:+.4f}; "
        f"measured exponent {rep.measured_exponent:.3f} reported next to "
        f"B-convention value (e^(BT)) and 2B-convention value",
    )


def test_criterion_08_regularity_classification():
    eps = [0.1, 0.05, 0.01, 0.005]
    T = np.linspace(6.0, 12.0, 40)
    smooth = hc.regularity_report(lambda x: x * math.exp(2 * x), eps, T)
    step = hc.regularity_report(lambda x: math.exp(math.floor(x)), eps, T)
    tree = hc.regularity_report(lambda x: float(hc.tree_ball(2, x)), eps, T)
    ok = (
        smooth.verdict == "regular"
        and max(abs(smooth.lower_trend - 1), abs(smooth.upper_trend - 1)) < 0.02
        and step.verdict == "non-regular"
        and abs(step.lower_trend - math.exp(-1)) < 0.05
        and tree.verdict == "non-regular"
        and abs(tree.lower_trend - 0.5) < 0.05
    )
    assert _report(
        8,
        ok,
        f"smooth={smooth.verdict}, step={step.verdict} "
        f"(liminf {step.lower_trend:.4f} vs 1/e), tree={tree.verdict} "
        f"(liminf {tree.lower_trend:.4f} vs 0.5)",
    )


def test_criterion_09_persistence():
    t0 = time.perf_counter()
    pair = hc.pgl2_measure_pair(T_max=12.0)
    want_C = hc.partial_sum(2, 3.0, math.exp(12.0))
    _, ratio = hc.persistence_check(pair, 12.0)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(ratio - 1.0) < 0.03
        and pair.C == pytest.approx(want_C, rel=1e-12)
        and elapsed < 60
    )
    assert _report(9, ok, f"ratio {ratio:.8f}, C {pair.C:.8f}, {elapsed:.1f}s")


def test_criterion_10_exact_counting():
    grid = [1.0 + 0.5 * i for i in range(15)]  # 1, 1.5, ..., 8
    pi = [hc.pi_count(x, 1.0) for x in grid]
    base_ok = hc.pi_count(1.0, 1.0) == 4 and hc.pi_count(0.5, 1.0) == 0
    monotone = all(a <= b for a, b in zip(pi, pi[1:]))

    # box saturation: widening the search box must not find new classes
    saturated = True
    for x in (2.0, 4.0, 6.0):
        det = hc.pi_count_detail(x, 1.0)
        padded = sum(
            1
            for g in hc.enumerate_elements(det.entry_bound_used + 2)
            if g.height(1.0) <= x * (1 + 1e-12) + 1e-12
        )
        saturated = saturated and det.count == padded

    # SNF heights against tree distances for dets on {2, 3, 5}
    snf_ok = True
    for g in hc.enumerate_elements(4):
        det_abs = abs(g.det)
        reduced = det_abs
        for p in (2, 3, 5):
            while reduced % p == 0:
                reduced //= p
        if reduced != 1:
            continue
        mat = [[g.entries[0], g.entries[1]], [g.entries[2], g.entries[3]]]
        exps = dict(hc.global_height(mat, 1.0).finite_exponents)
        for p in (2, 3, 5):
            snf_ok = snf_ok and exps.get(p, 0) == hc.building_distance(mat, p)

    # boundedness and slow variation of pi(x)/x^2; the full x^2 law is out
    # of reach at this scale, so only these weak properties are asserted
    ratios = [n / x**2 for x, n in zip(grid, pi) if x >= 2]
    bounded = all(1.0 <= r <= 20.0 for r in ratios)
    steps = [b / a for a, b in zip(ratios, ratios[1:])]
    slow = all(0.6 < s < 1.7 for s in steps)

    ok = base_ok and monotone and saturated and snf_ok and bounded and slow
    assert _report(
        10,
        ok,
        f"pi(1)={pi[0]}, monotone={monotone}, saturated={saturated}, "
        f"snf={snf_ok}, ratio range [{min(ratios):.2f}, {max(ratios):.2f}]",
    )


def test_criterion_11_determinism():
    first = format_report(run_checks(quick=True))
    second = format_report(run_checks(quick=True))
    ok = first == second and "passed 16/16 checks" in first
    assert _report(11, ok, "verify --quick byte-identical across reruns")
