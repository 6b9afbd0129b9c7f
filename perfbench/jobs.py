"""The benchmark's workloads: seeded inputs and the jobs each one runs.

A workload is a list of jobs run back to back in one cold process.  A job
calls public functions of `heightcount` through a tracer (see spans.py),
adds the work counters it can derive from its inputs and results, and
returns a flat dict of results keyed by quantity and inputs.  Its `oracle`
checks results against values computed without the package.

Seeding: each job draws a variant v in range(VARIANTS) from the workload
seed, and v shifts that job's x, T or s inputs by a small step that keeps
the work within a few percent (box sizes and BFS depths do not change at
all).  Because a result depends only on its own job's inputs, recording
every variant once (record.py) gives references for every seed.

Robustness to refactors of the package: only names exported from
`heightcount` are called, `workers` is never passed, and no private helper
is touched.  Counters marked computed in run.py are derived here from
inputs and returned values, not measured inside the package.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

import heightcount as hc

import checks

VARIANTS = 4
EULER_CUTOFF = 10**5  # the default prime_cutoff of L_euler and L_euler_sl2
SIMPLEX_RULE = 24  # Gauss-Legendre order per axis of ball_volume_table's cross-section
TABLE_STEP = 1e-3  # default step of ball_volume_table


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable  # run(tracer) -> dict of results
    oracle: Callable | None = None  # oracle(results) -> list of problems


def _g(x: float) -> str:
    return f"{x:.6g}"


def sieve_len(T: float) -> int:
    """floor(e^T), the coefficient-sieve length behind a convolution at T."""
    return int(math.floor(math.exp(T) * (1 + 1e-12)))


@functools.lru_cache(maxsize=None)
def prime_count(n: int) -> int:
    flags = bytearray([1]) * (n + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return sum(flags)


def subspace_count(d: int, p: int) -> int:
    """Proper nonzero subspaces of F_p^d: the neighbours BFS generates per vertex."""
    total = 0
    for j in range(1, d):
        num = den = 1
        for i in range(j):
            num *= p ** (d - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


# ---------------------------------------------------------------------------
# scan: one sieve and table serve many convolutions


REG_EPS = (0.1, 0.05, 0.01, 0.005)


def _regularity(v: int) -> Job:
    t_min = 8.0 + 0.01 * v
    T_list = [t_min + i * (13.0 - t_min) / 24 for i in range(25)]
    tag = f"d=2,Tmin={_g(t_min)}"

    def run(tr):
        b = tr.call("adelic.adelic_volume_callable", hc.adelic_volume_callable, 2, 1.0, 13.1, max_sieve=600000)
        tr.add("adelic.sieve_terms_requested", sieve_len(13.1))
        if tr.enabled:
            raw = b

            def b(T):
                tr.add("adelic.conv_evals", 1)
                tr.add("adelic.conv_terms", sieve_len(T))
                return raw(T)

        rep = tr.call("adelic.regularity_report", hc.regularity_report, b, REG_EPS, T_list)
        return {
            f"regularity_verdict({tag})": rep.verdict,
            f"regularity_gap({tag})": rep.gap,
            f"regularity_lower({tag})": list(rep.lower_ratios),
            f"regularity_upper({tag})": list(rep.upper_ratios),
        }

    def oracle(res):
        verdict = res[f"regularity_verdict({tag})"]
        return [] if verdict == "regular" else [f"verdict {verdict!r}, want 'regular'"]

    return Job("regularity", run, oracle)


def _series_d3(v: int) -> Job:
    grid = [0.25 * k - 0.005 * v for k in range(1, 49)]
    key = f"b_series(d=3,T={_g(grid[0])}..{_g(grid[-1])})"

    def run(tr):
        series = tr.call("adelic.adelic_ball_series", hc.adelic_ball_series, 3, 1.0, grid)
        tr.add("adelic.sieve_terms_requested", sieve_len(grid[-1]))
        tr.add("adelic.conv_evals", len(grid))
        tr.add("adelic.conv_terms", sum(sieve_len(t) for t in grid))
        return {key: list(series.values)}

    def oracle(res):
        vals = res[key]
        if vals[0] > 0 and all(b > a for a, b in zip(vals, vals[1:])):
            return []
        return ["b(T) is not positive and strictly increasing"]

    return Job("series_d3", run, oracle)


def _persistence(v: int) -> Job:
    T = 12.0 - 0.005 * v
    tag = f"T={_g(T)}"

    def run(tr):
        pair = tr.call("adelic.pgl2_measure_pair", hc.pgl2_measure_pair, T)
        _, ratio = tr.call("adelic.persistence_check", hc.persistence_check, pair, T)
        tr.add("adelic.sieve_terms_requested", sieve_len(T))
        tr.add("adelic.conv_evals", 1)
        tr.add("adelic.conv_terms", sieve_len(T))
        return {f"measure_C({tag})": pair.C, f"persistence_ratio({tag})": ratio}

    def oracle(res):
        return checks.within(
            "C vs sum psi(m)/m^3", res[f"measure_C({tag})"], checks.psi_series(sieve_len(T), 3.0), rtol=1e-12
        ) + checks.within("persistence ratio", res[f"persistence_ratio({tag})"], 1.0, atol=0.03)

    return Job("persistence", run, oracle)


def _partial_sum(v: int) -> Job:
    x = 10**6 - 1000 * v
    key = f"partial_sum(d=2,B=0,x={x})"

    def run(tr):
        total = tr.call("dirichlet.partial_sum", hc.partial_sum, 2, 0.0, float(x))
        tr.add("dirichlet.sieve_terms", x)
        return {key: total}

    def oracle(res):
        target = 15 / (2 * math.pi**2)
        return checks.within("sum D(m) vs sum psi(m)", res[key], checks.psi_sum(x)) + checks.within(
            "sum/x^2", res[key] / x**2, target, rtol=0.05
        )

    return Job("partial_sum", run, oracle)


def _l_euler(d: int, s0: float, v: int) -> Job:
    s = s0 + 0.01 * v
    tag = f"d={d},s={_g(s)}"

    def run(tr):
        r = tr.call("dirichlet.L_euler", hc.L_euler, d, s)
        tr.add("dirichlet.euler_primes", prime_count(EULER_CUTOFF))
        return {f"L_euler({tag})": [r.value.real, r.value.imag], f"L_euler_bound({tag})": r.truncation_bound}

    def oracle(res):
        re, im = res[f"L_euler({tag})"]
        problems = checks.within("imaginary part", im, 0.0, atol=1e-12 * abs(re))
        if d == 2:
            want = checks.zeta_quotient(s, "pgl2")
            bound = res[f"L_euler_bound({tag})"]
            problems += checks.within("L vs mpmath zeta quotient", re, want, rtol=1e-8)
            problems += checks.within("L within its truncation bound", re, want, atol=bound + 1e-15 * abs(want))
        return problems

    return Job(f"L_euler_d{d}_s{s0:g}", run, oracle)


def _l_euler_sl2(v: int) -> Job:
    s = 2.0 + 0.01 * v
    key = f"L_euler_sl2(s={_g(s)})"

    def run(tr):
        r = tr.call("dirichlet.L_euler_sl2", hc.L_euler_sl2, s)
        tr.add("dirichlet.euler_primes", prime_count(EULER_CUTOFF))
        return {key: r.value.real}

    def oracle(res):
        return checks.within("L vs mpmath zeta quotient", res[key], checks.zeta_quotient(s, "sl2"), rtol=1e-8)

    return Job("L_euler_sl2", run, oracle)


def _residues() -> Job:
    def run(tr):
        out = {}
        for variant in ("pgl2", "sl2"):
            rep = tr.call("dirichlet.residue_estimate", hc.residue_estimate, variant)
            out[f"residue({variant},direct)"] = rep.direct
            out[f"residue({variant},extrapolated)"] = rep.extrapolated
        return out

    def oracle(res):
        return (
            checks.within("pgl2 residue", res["residue(pgl2,direct)"], 15 / math.pi**2, atol=1e-10)
            + checks.within(
                "pgl2 extrapolation", res["residue(pgl2,extrapolated)"], res["residue(pgl2,direct)"], atol=1e-6
            )
            + checks.within("sl2 residue", res["residue(sl2,direct)"], 15 / (2 * math.pi**2), atol=1e-10)
        )

    return Job("residues", run, oracle)


def _prediction(v: int) -> Job:
    T = 10.0 + 0.01 * v
    key = f"prediction(d=3,B=4.5,T={_g(T)})"

    def run(tr):
        rep = tr.call("adelic.prediction_N", hc.prediction_N, 3, 4.5, T)
        return {
            key: [
                rep.simplex_factor,
                rep.series_constant,
                rep.measured_exponent,
                rep.value_measured,
                rep.value_exponent_B,
                rep.value_exponent_2B,
            ]
        }

    def oracle(res):
        area, _, _, _, val_b, val_2b = res[key]
        return checks.within("cross-section area", area, 2 / math.sqrt(3), rtol=1e-12) + checks.within(
            "2B/B convention ratio", val_2b / val_b, math.exp(4.5 * T), rtol=1e-12
        )

    return Job("prediction", run, oracle)


def scan(pick) -> list[Job]:
    return [
        _regularity(pick()),
        _series_d3(pick()),
        _persistence(pick()),
        _partial_sum(pick()),
        _l_euler(2, 3.0, pick()),
        _l_euler(2, 2.5, pick()),
        _l_euler(3, 4.5, pick()),
        _l_euler(3, 5.0, pick()),
        _l_euler(4, 6.0, pick()),
        _l_euler_sl2(pick()),
        _residues(),
        _prediction(pick()),
    ]


# ---------------------------------------------------------------------------
# census: exhaustive PGL_2(Q) counting


def _box_cells(x: float, B: float) -> int:
    return (2 * hc.entry_bound(x, B) + 1) ** 4


def _compare(shifts: list[int]) -> Job:
    # x = 4 stays fixed so verify's pi(4) = 160 is checked on every seed;
    # a fractional shift keeps the box half-width floor(x) unchanged at B = 1
    grid = [4.0] + [4.0 * k + 0.25 * v for k, v in zip(range(2, 9), shifts)]

    def run(tr):
        rep = tr.call("counting.compare_report", hc.compare_report, grid, 1.0)
        tr.add("counting.box_cells", sum(_box_cells(x, 1.0) for x in grid))
        tr.add("counting.classes_found", sum(rep.pi_values))
        tr.add("counting.ties", sum(rep.tie_counts))
        out = {}
        for i, x in enumerate(grid):
            tag = f"x={_g(x)},B=1"
            out[f"pi({tag})"] = rep.pi_values[i]
            out[f"ties({tag})"] = rep.tie_counts[i]
            out[f"sandwich_lo({tag})"] = rep.lower_sandwich[i]
            out[f"sandwich_hi({tag})"] = rep.upper_sandwich[i]
            out[f"mainterm_lo({tag})"] = rep.predicted_low_exponent[i]
        # not keyed by input: checked by the oracle only
        out["_high"] = [str(h) for h in rep.predicted_high_exponent]
        out["_slack"] = rep.slack
        return out

    def oracle(res):
        problems = checks.within("pi(4)", res["pi(x=4,B=1)"], 160)
        ratios = []
        for x in grid:
            tag = f"x={_g(x)},B=1"
            pi, lo, hi = res[f"pi({tag})"], res[f"sandwich_lo({tag})"], res[f"sandwich_hi({tag})"]
            ratios += [lo / pi, pi / hi]
            # (30/pi^2) x^2 times the integral of e^(-2t) (cosh t - 1)/2, which is 1/12
            problems += checks.within(
                f"main term at x={_g(x)}", res[f"mainterm_lo({tag})"], 30 / math.pi**2 / 12 * x**2, rtol=1e-6
            )
        problems += checks.within("slack", res["_slack"], max(ratios), rtol=1e-12)
        if res["_high"] != ["inf"] * len(grid):
            problems.append(f"2B-convention main term should diverge at B = 1, got {res['_high']}")
        return problems

    return Job("compare", run, oracle)


def _pi_half(k: int, v: int) -> Job:
    # integer x makes boundary ties real at B = 1/2; the shift keeps the
    # box half-width isqrt(x) unchanged
    x = 25 * k + v
    tag = f"x={x},B=0.5"

    def run(tr):
        det = tr.call("counting.pi_count_detail", hc.pi_count_detail, float(x), 0.5)
        tr.add("counting.box_cells", det.candidates)
        tr.add("counting.classes_found", det.count)
        tr.add("counting.ties", det.tie_count)
        return {f"pi({tag})": det.count, f"ties({tag})": det.tie_count}

    return Job(f"pi_half_{k}", run)


def _frozen_pi() -> Job:
    def run(tr):
        out = {}
        for x in (1.0, 6.0):
            n = tr.call("counting.pi_count", hc.pi_count, x, 1.0)
            tr.add("counting.box_cells", _box_cells(x, 1.0))
            tr.add("counting.classes_found", n)
            out[f"pi(x={_g(x)},B=1)"] = n
        return out

    def oracle(res):
        return checks.within("pi(1)", res["pi(x=1,B=1)"], 4) + checks.within("pi(6)", res["pi(x=6,B=1)"], 440)

    return Job("frozen_pi", run, oracle)


def census(pick) -> list[Job]:
    return [_compare([pick() for _ in range(7)])] + [_pi_half(k, pick()) for k in range(1, 17)] + [_frozen_pi()]


# ---------------------------------------------------------------------------
# queries: independent cold queries, the memory workload


def _bfs(d: int, p: int, k: int) -> Job:
    key = f"bfs_shells(d={d},p={p},k={k})"

    def run(tr):
        params = hc.BuildingParams(d, p)
        classes = tr.call("building.enumerate_classes", hc.enumerate_classes, params, k)
        shells = [0] * (k + 1)
        for _, dist in classes:
            shells[dist] += 1
        tr.add("building.classes", len(classes))
        tr.add("building.neighbours", (len(classes) - shells[k]) * subspace_count(d, p))
        tr.add(f"building.budget_estimate(d={d},p={p},k={k})", hc.ball_size(params, k))
        tr.add(f"building.budget_found(d={d},p={p},k={k})", len(classes))
        return {key: shells}

    def oracle(res):
        if d != 2:
            return []
        formula = [hc.sphere_size(hc.BuildingParams(d, p), j) for j in range(k + 1)]
        return [] if res[key] == formula else [f"tree shells {res[key]} != closed form {formula}"]

    return Job(f"bfs_{d}{p}{k}", run, oracle)


# verify's frozen volumes: d -> (R, volume, rtol); d = 2 has a closed form at every R
_FROZEN_VOLUMES = {3: (2.0, 2.552117668702, 1e-8), 4: (1.5, 1.090533867611e-3, 1e-6)}


def _numeric(d: int, v: int) -> Job:
    fixed = _FROZEN_VOLUMES[d][0] if d in _FROZEN_VOLUMES else 1.0
    radii = sorted(
        r if r == fixed else (r + 0.01 * v if r < 4.0 else r - 0.01 * v) for r in (0.5 * i for i in range(1, 9))
    )

    def run(tr):
        return {
            f"vol_numeric(d={d},B=1,R={_g(R)})": tr.call(
                "archimedean.ball_volume_numeric", hc.ball_volume_numeric, d, 1.0, R
            )
            for R in radii
        }

    def oracle(res):
        if d == 2:
            problems = []
            for R in radii:
                got = res[f"vol_numeric(d=2,B=1,R={_g(R)})"]
                problems += checks.within(f"d=2 R={_g(R)}", got, (math.cosh(2 * R) - 1) / 2, rtol=1e-9)
            return problems
        R, want, rtol = _FROZEN_VOLUMES[d]
        return checks.within(f"frozen d={d} R={_g(R)}", res[f"vol_numeric(d={d},B=1,R={_g(R)})"], want, rtol=rtol)

    return Job(f"numeric_d{d}", run, oracle)


def _table(v: int) -> Job:
    d, R_max = 4, 8.0
    radii = [1.5, 2.0 + 0.01 * v, 4.0 + 0.01 * v, 6.0 + 0.01 * v, R_max - 0.01 * v]

    def run(tr):
        table = tr.call("archimedean.ball_volume_table", hc.ball_volume_table, d, 1.0, R_max)
        y_nodes = 2 * math.ceil(R_max / TABLE_STEP - 1e-9) + 1
        nodes = y_nodes * SIMPLEX_RULE ** (d - 2)
        tr.add("archimedean.table_nodes", nodes)
        tr.add("archimedean.table_bytes", nodes * d * 8)
        return {f"vol_table(d={d},B=1,R={_g(R)})": table(R) for R in radii}

    def oracle(res):
        R, want, rtol = _FROZEN_VOLUMES[d]
        return checks.within(f"frozen d={d} R={_g(R)}", res[f"vol_table(d={d},B=1,R={_g(R)})"], want, rtol=rtol)

    return Job("table_d4", run, oracle)


def _oneshot(d: int, i: int, T: float) -> Job:
    key = f"b_oneshot(d={d},B=1,T={_g(T)})"

    def run(tr):
        value = tr.call("adelic.adelic_ball_volume", hc.adelic_ball_volume, d, 1.0, T)
        tr.add("adelic.sieve_terms_requested", sieve_len(T))
        tr.add("adelic.conv_evals", 1)
        tr.add("adelic.conv_terms", sieve_len(T))
        return {key: value}

    def oracle(res):
        if d == 2 and res[key] < (math.cosh(2 * T) - 1) / 2:
            return ["b(T) below its m = 1 term (cosh 2T - 1)/2"]
        return []

    return Job(f"oneshot_d{d}_{i}", run, oracle)


def queries(pick) -> list[Job]:
    jobs = [_bfs(*dpk) for dpk in ((2, 3, 8), (3, 2, 3), (3, 3, 3), (4, 2, 2), (4, 3, 2))]
    jobs += [_numeric(d, pick()) for d in (2, 3, 4)]
    jobs.append(_table(pick()))
    jobs += [_oneshot(2, i, 9.0 + 0.49 * i + 0.01 * pick()) for i in range(6)]
    jobs += [_oneshot(3, j, 9.5 + 0.95 * j + 0.01 * pick()) for j in range(3)]
    return jobs


WORKLOADS = {"scan": scan, "census": census, "queries": queries}


def build(workload: str, seed: int | None = None, variant: int | None = None) -> list[Job]:
    """The workload's jobs for a seed, or with every input at one variant."""
    if variant is not None:
        return WORKLOADS[workload](lambda: variant)
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](lambda: rng.randrange(VARIANTS))
