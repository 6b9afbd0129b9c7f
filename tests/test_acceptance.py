"""Acceptance gate: one test per release criterion.

The criteria are stated once, as checks in the registry of
`heightcount.verify`.  Each test runs the registry checks that state its
criterion (through the session `registry` fixture in conftest.py, so no
check runs twice in a session), prints a single `criterion NN PASS/FAIL`
line (visible with -s, and in the captured output on failure) and asserts
that the checks passed within the criterion's time budget.  Criteria 4
and 10 also assert properties that no check states; criterion 7 has no
check, and criterion 11 reruns the whole quick tier.

Criterion 2 currently FAILS by design: in rank 2 the closed-form shell
count reproduces back-edge incidences, not vertex counts, and the suite
reports that discrepancy instead of papering over it.  It is the same
check as the single FAIL of `heightcount verify --full`.  See the
building module docstring for the measured numbers.
"""

import numpy as np

import heightcount as hc
from heightcount.archimedean import ball_volume_table
from heightcount.verify import format_report, run_checks


def _report(n, ok, detail):
    print(f"criterion {n:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def _run(registry, *names):
    """(all passed, joined details, total seconds) of the named checks."""
    runs = [registry(name) for name in names]
    ok = all(res.passed for res, _ in runs)
    detail = "; ".join(f"{res.name}: {res.detail}" for res, _ in runs)
    return ok, detail, sum(seconds for _, seconds in runs)


# ---------------------------------------------------------------------------


def test_criterion_01_pole_table(registry):
    ok, detail, elapsed = _run(registry, "dirichlet/pole-table")
    ok = ok and elapsed < 1.0
    assert _report(1, ok, f"{detail}, {elapsed:.2f}s"), detail


def test_criterion_02_bfs_equals_closed_form(registry):
    ok, detail, elapsed = _run(
        registry,
        "building/bfs-deep-d2",
        "building/d3-first-shell",
        "building/d3-closed-form-vertex-count",
    )
    ok = ok and elapsed < 300
    _report(2, ok, f"{detail}, {elapsed:.1f}s")
    assert ok, (
        f"closed form does not count rank-2 vertices: {detail}. "
        "The formula value equals the number of edges from shell k back "
        "into shell k-1 (verify's building/d3-incidence-identity), so the "
        "d >= 3 closed form is an incidence count, not a vertex count."
    )


def test_criterion_03_euler_vs_closed_form(registry):
    ok, detail, elapsed = _run(registry, "dirichlet/euler-vs-closed")
    ok = ok and elapsed < 10
    assert _report(3, ok, f"{detail}, {elapsed:.1f}s"), detail


def test_criterion_04_residues(registry):
    ok, detail, _ = _run(registry, "dirichlet/residues")
    near = 1e-3 * hc.L_closed_pgl2(2.0 + 1e-3).real
    extr_err = abs(near - 1.5198177547)
    sl2 = hc.residue_estimate("sl2")
    logged = f"flat-1/2 convention sits {abs(sl2.direct - 0.5):.4f} away (logged only)"
    ok = ok and extr_err < 1e-2
    assert _report(4, ok, f"{detail}; (s-2)L at 2.001 err {extr_err:.1e}; {logged}")


def test_criterion_05_partial_sum_asymptotics(registry):
    ok, detail, elapsed = _run(registry, "dirichlet/partial-sum-asymptotic")
    ok = ok and elapsed < 30
    assert _report(5, ok, f"{detail}, {elapsed:.1f}s"), detail


def test_criterion_06_cartan_closed_form(registry):
    ok, detail, _ = _run(registry, "archimedean/d2-closed-form")
    assert _report(6, ok, detail), detail


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


def test_criterion_08_regularity_classification(registry):
    ok, detail, _ = _run(registry, "adelic/regularity-models")
    assert _report(8, ok, detail), detail


def test_criterion_09_persistence(registry):
    ok, detail, elapsed = _run(registry, "adelic/pgl2-persistence")
    ok = ok and elapsed < 60
    assert _report(9, ok, f"{detail}, {elapsed:.1f}s"), detail


def test_criterion_10_exact_counting(registry):
    ok, detail, _ = _run(
        registry,
        "counting/pi-examples",
        "counting/box-saturation",
        "counting/snf-vs-bfs-distance",
    )
    grid = [1.0 + 0.5 * i for i in range(15)]  # 1, 1.5, ..., 8
    pi = [hc.pi_count(x, 1.0) for x in grid]
    monotone = all(a <= b for a, b in zip(pi, pi[1:]))

    # boundedness and slow variation of pi(x)/x^2; the full x^2 law is out
    # of reach at this scale, so only these weak properties are asserted
    ratios = [n / x**2 for x, n in zip(grid, pi) if x >= 2]
    bounded = all(1.0 <= r <= 20.0 for r in ratios)
    steps = [b / a for a, b in zip(ratios, ratios[1:])]
    slow = all(0.6 < s < 1.7 for s in steps)

    ok = ok and monotone and bounded and slow
    assert _report(
        10,
        ok,
        f"{detail}; monotone={monotone}, ratio range [{min(ratios):.2f}, {max(ratios):.2f}]",
    )


def test_criterion_11_determinism():
    first = format_report(run_checks(quick=True))
    second = format_report(run_checks(quick=True))
    ok = first == second and "passed 16/16 checks" in first
    assert _report(11, ok, "verify --quick byte-identical across reruns")
