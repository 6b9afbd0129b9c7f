"""End-to-end tests for the command line interface.

Commands run in-process through main(argv); stdout is captured and parsed
back, so these double as schema-stability tests.
"""

import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from heightcount import dirichlet
from heightcount.cli import main
from heightcount.verify import REGISTRY, format_report


def run(capsys, *argv):
    # argparse-level usage failures surface as SystemExit; normalize them
    # to the same integer contract the shell sees
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = int(exc.code or 0)
    out = capsys.readouterr().out
    return code, out


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def run_json(capsys, *argv):
    # strict: Infinity, -Infinity and NaN, which json.loads accepts, fail
    code, out = run(capsys, *argv)
    assert code == 0
    return json.loads(out, parse_constant=_not_json)


def run_csv(capsys, *argv):
    code, out = run(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# schema: heightcount/")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ---------------------------------------------------------------------------
# structured single results


def test_sphere_d3(capsys):
    doc = run_json(capsys, "sphere", "--d", "3", "--p", "2", "--k", "2")
    assert doc["schema"] == "heightcount/sphere/v1"
    assert doc["sphere"] == 140


def test_ball_is_partial_sum(capsys):
    doc = run_json(capsys, "ball", "--d", "2", "--p", "3", "--k", "3")
    assert doc["ball"] == 1 + 4 + 12 + 36


def test_height_profile(capsys):
    doc = run_json(capsys, "height", "--matrix", "1,0;0,2", "--B", "1")
    assert doc["h_fin"] == 2
    assert doc["finite_exponents"] == [[2, 1]]
    assert doc["h"] == pytest.approx(2 * math.sqrt(2), rel=1e-11)


def test_ball_volume_closed_form(capsys):
    doc = run_json(capsys, "ball-volume", "--d", "2", "--B", "1", "--R", "3")
    assert doc["volume"] == pytest.approx((math.cosh(6) - 1) / 2, rel=1e-9)
    doc = run_json(capsys, "ball-volume", "--d", "5", "--B", "1", "--R", "2")
    assert doc["volume"] == 2.31107801147e-06


def test_lseries_both_variants(capsys):
    from heightcount import zeta_em

    doc = run_json(capsys, "lseries", "--d", "2", "--s", "3.0", "--variant", "pgld")
    want = (zeta_em(3.0) * zeta_em(2.0) / zeta_em(6.0)).real
    assert doc["value_re"] == pytest.approx(want, rel=1e-8)
    assert doc["truncation_bound"] < 1e-9
    doc = run_json(capsys, "lseries", "--d", "2", "--s", "2.0", "--variant", "sl2")
    want = (zeta_em(2.0) * zeta_em(3.0) / zeta_em(6.0)).real
    assert doc["value_re"] == pytest.approx(want, rel=1e-8)


def test_residue_report(capsys):
    doc = run_json(capsys, "residue", "--variant", "pgl2")
    assert doc["direct"] == pytest.approx(15 / math.pi**2, rel=1e-10)
    assert abs(doc["extrapolated"] - doc["direct"]) < 1e-6


def test_predict_report(capsys):
    doc = run_json(capsys, "predict", "--d", "2", "--B", "2.5", "--T", "4")
    assert doc["rank"] == 1
    assert doc["value_exponent_2B"] == pytest.approx(
        doc["series_constant"] * math.exp(2 * 2.5 * 4.0), rel=1e-9
    )


def test_regularity_verdict(capsys):
    doc = run_json(
        capsys,
        "regularity",
        "--d", "2", "--B", "1",
        "--Tmin", "4", "--Tmax", "7", "--points", "10",
        "--eps", "0.1,0.05,0.01,0.005",
    )
    assert doc["schema"] == "heightcount/regularity/v1"
    assert doc["verdict"] in {"regular", "non-regular", "inconclusive"}
    assert len(doc["lower_ratios"]) == 4


def test_persistence_ratio(capsys):
    doc = run_json(capsys, "persistence", "--T", "9", "--Tmax", "9")
    assert abs(doc["ratio"] - 1.0) < 0.05


# ---------------------------------------------------------------------------
# grids


def test_poles_table_exact_text(capsys):
    code, out = run(capsys, "poles-table")
    assert code == 0
    assert out == (
        "# schema: heightcount/poles-table/v1\n"
        "n,s_2,s_3\n"
        "2,1.0000000000,1.0000000000\n"
        "3,3.3219280949,2.7712437492\n"
        "4,4.9068905956,4.1257498573\n"
        "5,6.2854022189,5.3653166773\n"
        "6,7.5698556083,6.5507064185\n"
    )


def test_dcoeff_grid(capsys):
    header, rows = run_csv(capsys, "dcoeff", "--d", "2", "--xmax", "6")
    assert header == ["m", "D"]
    assert [r[1] for r in rows] == ["1", "3", "4", "6", "6", "12"]


def test_classes_grid(capsys):
    header, rows = run_csv(capsys, "classes", "--d", "2", "--p", "2", "--kmax", "2")
    assert "distance" in header
    assert len(rows) == 1 + 3 + 6


def test_count_grid(capsys):
    header, rows = run_csv(capsys, "count", "--xmax", "3", "--B", "1")
    assert header[:2] == ["x", "pi"]
    by_x = {r[0]: int(r[1]) for r in rows}
    assert by_x["1"] == 4
    assert by_x["2"] == 24
    assert by_x["3"] == 64


def test_ball_adelic_grid_monotone(capsys):
    _, rows = run_csv(
        capsys, "ball-adelic", "--d", "2", "--B", "1", "--Tmax", "2", "--step", "0.5"
    )
    values = [float(r[1]) for r in rows]
    assert values == sorted(values)
    # mpmath: 30.24975905682924...
    assert values[-1] == pytest.approx(30.2497590568, rel=1e-9)


def test_csv_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "poles.csv"
    code, out = run(capsys, "poles-table", "--csv", str(target))
    assert code == 0
    text = target.read_text()
    assert text.startswith("# schema: heightcount/poles-table/v1\n")
    assert "3,3.3219280949,2.7712437492" in text


def test_csv_path_that_cannot_be_opened_is_refused(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["residue", "--variant", "sl2", "--csv", str(target)]) == 1
    assert capsys.readouterr() == ("", f"heightcount: error: [Errno 2] No such file or directory: '{target}'\n")


# ---------------------------------------------------------------------------
# verify and exit codes


def test_count_main_term_is_finite_near_b2(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        header, rows = run_csv(capsys, "count", "--xmax", "3", "--B", "1.9")
    assert not caught
    col = header.index("predicted_convA")
    assert all(math.isfinite(float(row[col])) for row in rows)


DATA = Path(__file__).resolve().parent / "data"


def test_verify_quick_is_deterministic(capsys):
    code, out = run(capsys, "verify", "--quick")
    assert code == 0
    assert out == (DATA / "verify_quick.txt").read_text()


def test_classes_output_is_pinned(capsys):
    # stdout of `heightcount classes --d 3 --p 2 --kmax 2`, pinned byte for byte
    code, out = run(capsys, "classes", "--d", "3", "--p", "2", "--kmax", "2")
    assert code == 0
    assert out == (DATA / "classes_d3_p2_k2.csv").read_text()


@pytest.mark.parametrize("d, xmax", [(2, 64), (3, 64), (4, 64), (5, 64), (6, 600)])
def test_dcoeff_output_is_pinned(capsys, d, xmax):
    # stdout of `heightcount dcoeff --d d --xmax xmax`, pinned byte for byte;
    # at d = 6 the values pass 2^62 from m = 512 on, so the sieve's object
    # array path is pinned too
    code, out = run(capsys, "dcoeff", "--d", str(d), "--xmax", str(xmax))
    assert code == 0
    assert out == (DATA / f"dcoeff_d{d}_x{xmax}.csv").read_text()


@pytest.mark.parametrize(
    "name, argv",
    [
        ("ball_adelic_d2_T8.csv", "ball-adelic --d 2 --B 1 --Tmax 8"),
        ("ball_adelic_d3_T6.csv", "ball-adelic --d 3 --B 1 --Tmax 6"),
        (
            "regularity_d2.json",
            "regularity --d 2 --B 1 --Tmin 8 --Tmax 13 --points 25 --eps 0.1,0.05,0.01,0.005 --max-sieve 600000",
        ),
        ("persistence_T12.json", "persistence --T 12"),
        ("count_x8_B1.csv", "count --xmax 8 --B 1"),
        ("count_x60_B0.5.csv", "count --xmax 60 --B 0.5"),
        ("count_x100_B1.csv", "count --xmax 100 --B 1"),
    ],
)
def test_adelic_output_is_pinned(capsys, name, argv):
    # stdout of each command, pinned byte for byte; every b(T) behind them
    # is built by adelic_volume_callable
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert out == (DATA / name).read_text()


@pytest.mark.parametrize("tier", ["quick", "full"])
def test_verify_report_is_pinned(registry, tier):
    # the pinned files are the stdout of `heightcount verify --quick` and
    # `--full`; the report must not change by a byte
    names = [name for name, check in REGISTRY.items() if tier == "full" or check.tier == "quick"]
    report = format_report([registry(name)[0] for name in names])
    assert report == (DATA / f"verify_{tier}.txt").read_text()


def test_no_command_takes_a_workers_flag(capsys):
    code, _ = run(capsys, "verify", "--quick", "--workers", "4")
    assert code == 1
    code, _ = run(capsys, "ball-adelic", "--d", "2", "--B", "1", "--Tmax", "2", "--workers", "2")
    assert code == 1
    code, _ = run(capsys, "count", "--xmax", "4", "--B", "1", "--workers", "2")
    assert code == 1


def test_verify_flags_are_exclusive(capsys):
    code, _ = run(capsys, "verify", "--quick", "--full")
    assert code == 1


def test_domain_error_exits_one(capsys):
    code = main(["sphere", "--d", "1", "--p", "2", "--k", "0"])
    err = capsys.readouterr().err
    assert code == 1
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "argv",
    [
        "regularity --d 2 --B 1 --Tmin 8 --Tmax nan",
        "ball-adelic --d 2 --B 30 --Tmax 12 --step 4",  # B T_max = 360 > 350
        "ball-adelic --d 7 --B 1 --Tmax 2",
    ],
)
def test_bad_adelic_range_exits_one(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("heightcount: error:")
    assert captured.out == ""


def test_adelic_commands_reach_d6(capsys):
    # the volume table covers the series' 2 <= d <= 6
    for d in ("5", "6"):
        _, rows = run_csv(capsys, "ball-adelic", "--d", d, "--B", "1", "--Tmax", "3", "--step", "0.5")
        values = [float(b) for _, b in rows]
        assert len(values) == 6 and all(0 < a < b for a, b in zip(values, values[1:]))
        doc = run_json(capsys, "regularity", "--d", d, "--B", "1", "--Tmin", "2", "--Tmax", "3", "--points", "6")
        assert doc["schema"] == "heightcount/regularity/v1"


def test_usage_error_exits_one(capsys):
    code, _ = run(capsys, "sphere", "--d", "2", "--p", "2")
    assert code == 1
    code, _ = run(capsys, "no-such-command")
    assert code == 1


@pytest.mark.parametrize(
    "argv, err",
    [
        ("sphere --d 3 --p 2 --k 10000", "the sphere size at d=3, k=10000 has more than 4300 digits"),
        ("ball --d 3 --p 2 --k 100000", "the ball size at d=3, k=100000 has more than 4300 digits"),
        # formed, since p^((d - 1) k) has 2589 digits, then refused: 4301
        ("ball --d 3 --p 2 --k 4300", "the ball size at d=3, k=4300 has more than 4300 digits"),
    ],
)
def test_size_past_the_printable_digits_is_refused(capsys, argv, err):
    # Python prints no int of more than 4300 digits; refused with one line
    assert main(argv.split()) == 1
    assert capsys.readouterr() == ("", f"heightcount: error: {err}\n")


def test_size_of_4001_digits_prints(capsys):
    doc = run_json(capsys, "sphere", "--d", "3", "--p", "2", "--k", "4000")
    assert doc["sphere"] == 14 * 10**3999


def test_height_factors_a_prime_cofactor_at_once():
    # det = 2 * 3^4 * (10^18 + 3), and 10^18 + 3 is prime: is_prime finds it
    # once 2 and 3 are divided out, where trial division would run to 10^9
    argv = ["height", "--matrix", "1000000000,1;-486,162000000000", "--B", "1"]
    proc = subprocess.run(
        [sys.executable, "-m", "heightcount", *argv], env=_src_env(), capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["finite_exponents"] == [[2, 1], [3, 4], [10**18 + 3, 1]]


def test_height_with_two_prime_factors_past_the_trial_cap_exits_two(capsys):
    # det = 10000019 * 10000079: no prime factor up to the cap of 10^7
    assert main(["height", "--matrix", "10000019,1;0,10000079", "--B", "1"]) == 2
    assert capsys.readouterr() == (
        "",
        "heightcount: budget error: factorize: a 47-bit cofactor has no prime factor up to 10000000, "
        "and trial division stops there\n",
    )


def test_budget_error_exits_two(capsys):
    for argv in (
        ["classes", "--d", "2", "--p", "5", "--kmax", "12", "--max-classes", "100"],
        ["dcoeff", "--d", "2", "--xmax", "100", "--max-sieve", "10"],
        # a class bound past float range is inf, told at once
        ["classes", "--d", "2", "--p", "2", "--kmax", "100000"],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert "budget" in err.lower()
        assert "HEIGHTCOUNT_MAX_" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--B", "1"], "estimated sieve count 1000000000 exceeds budget 1000000;"),
        (["--B", "0.1", "--max-sieve", "2000000000"], "estimated census cell count 1000000061 exceeds budget 1000000000;"),
        (["--B", "1", "--max-sieve", "2000000000"], "shell cap 1.0000000000020022e+18 exceeds the r_2 table limit"),
    ],
)
def test_count_refuses_huge_xmax_before_its_grid(capsys, monkeypatch, argv, message):
    # the sandwich sieve runs past xmax = 1e9, and the census of 1e9 has an
    # O(1) lower bound on its cells: either refuses before the grid of
    # floor(xmax) floats, 32 GB as a list, is built
    monkeypatch.delenv("HEIGHTCOUNT_MAX_SIEVE", raising=False)
    monkeypatch.delenv("HEIGHTCOUNT_MAX_CELLS", raising=False)
    tracemalloc.start()
    try:
        code = main(["count", "--xmax", "1e9", *argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert message in capsys.readouterr().err
    assert peak < 2**20


_SIEVE_PAST_FLOAT_RANGE = (
    "heightcount: budget error: estimated sieve count inf exceeds budget 1000000; "
    "raise the corresponding HEIGHTCOUNT_MAX_* variable to override\n"
)


@pytest.mark.parametrize(
    "argv, code, err",
    [
        ("ball-adelic --d 2 --B 0.1 --Tmax 800 --step 400", 2, _SIEVE_PAST_FLOAT_RANGE),
        ("ball-adelic --d 3 --B 0.1 --Tmax 720 --step 360", 2, _SIEVE_PAST_FLOAT_RANGE),
        ("persistence --T 5 --Tmax 800", 2, _SIEVE_PAST_FLOAT_RANGE),
    ],
    ids=["ball-adelic-d2", "ball-adelic-d3", "persistence"],
)
def test_sieve_length_past_float_range_is_refused(capsys, monkeypatch, argv, code, err):
    # e^T_max past float range has no finite sieve length: refused with
    # one message line on stderr, no traceback
    monkeypatch.delenv("HEIGHTCOUNT_MAX_SIEVE", raising=False)
    assert main(argv.split()) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "argv, err",
    [
        ("count --xmax nan --B 1", "need xmax >= 1, got nan"),
        ("count --xmax inf --B 1", "need a finite xmax, got inf"),
        ("count --xmax 3 --B 1 --covolume inf", "need a finite covolume, got inf"),
        ("lseries --d 2 --s nan", "L_euler needs Re(s) > 2 + 1e-06, got (nan+0j)"),
        ("lseries --d 2 --s inf", "zeta_em needs a finite s, got (inf+0j)"),
        ("lseries --d 2 --s nan --variant sl2", "L_euler_sl2 needs Re(s) > 1.5 + 1e-06, got (nan+0j)"),
        ("predict --d 3 --B nan --T 3", "B=nan is at or below the aggregate abscissa 3; the series constant diverges there"),
        ("predict --d 3 --B 4.5 --T inf", "need a finite covolume and T, got 1.0, inf"),
        ("persistence --T 5 --B nan", "need 0 < B < inf, got B=nan"),
        ("ball-adelic --d 2 --B 1 --Tmax inf", "need a finite Tmax, got inf"),
        ("regularity --d 2 --B 1 --Tmin 8 --Tmax inf", "need a finite Tmax, got inf"),
        ("predict --d 3 --B 4.5 --T 1000", "e^(E T) passes float range at T=1000.0, E=9"),
        ("height --matrix 2,1;0,3 --B 1e-4", "the archimedean height e^2848.09 passes float range"),
        # h_inf and each exponent are in float range, the products are not
        ("height --matrix 2,1;0,3 --B 4.02e-4", "the height e^710.272 passes float range"),
        (
            "predict --d 2 --B 2.5 --T 4 --covolume 1e-320",
            "the predicted count passes float range at T=4.0, covolume=1e-320",
        ),
    ],
)
def test_non_finite_flag_is_refused(capsys, argv, err):
    # one message line on stderr and nothing on stdout: no traceback from
    # int() or np.arange, and no NaN printed
    assert main(argv.split()) == 1
    assert capsys.readouterr() == ("", f"heightcount: error: {err}\n")


@pytest.mark.parametrize(
    "eps, err",
    [
        ("-0.1,0.01", "eps_list must contain positive shifts"),
        ("0,0.01", "eps_list must contain positive shifts"),
        ("0.01,nan", "eps_list must contain positive shifts"),
        ("inf", "eps_list must contain positive shifts"),
        ("0.01,abc", "could not parse eps list '0.01,abc'"),
    ],
)
def test_regularity_refuses_a_bad_shift_before_sieving(capsys, monkeypatch, eps, err):
    monkeypatch.setattr(dirichlet, "_STORE", {})
    assert main(["regularity", "--d", "2", "--B", "1", "--Tmin", "4", "--Tmax", "5", f"--eps={eps}"]) == 1
    assert capsys.readouterr() == ("", f"heightcount: error: {err}\n")
    assert dirichlet._STORE == {}


@pytest.mark.parametrize("points", ["3", "0", "-2"])
def test_regularity_refuses_too_few_points_before_sieving(capsys, monkeypatch, points):
    monkeypatch.setattr(dirichlet, "_STORE", {})
    assert main(["regularity", "--d", "2", "--B", "1", "--Tmin", "4", "--Tmax", "5", f"--points={points}"]) == 1
    assert capsys.readouterr() == ("", f"heightcount: error: need at least 4 T samples, got {points}\n")
    assert dirichlet._STORE == {}


@pytest.mark.parametrize(
    "flags, err",
    [
        ("--Tmin=inf --Tmax=5", "need a finite Tmin, got inf"),
        ("--Tmin=-inf --Tmax=5", "need a finite Tmin, got -inf"),
        ("--Tmin=nan --Tmax=5", "need a finite Tmin, got nan"),
        ("--Tmin=4 --Tmax=nan", "need T_max > 0, got T_max=nan"),
        ("--Tmin=4 --Tmax=-inf", "need T_max > 0, got T_max=-inf"),
        ("--Tmin=4 --Tmax=inf", "need a finite Tmax, got inf"),
    ],
)
def test_regularity_refuses_a_non_finite_T_before_sampling(capsys, monkeypatch, flags, err):
    # one error line, and no numpy warning from np.linspace on the way
    monkeypatch.setattr(dirichlet, "_STORE", {})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["regularity", "--d", "2", "--B", "1", *flags.split()]) == 1
    assert capsys.readouterr() == ("", f"heightcount: error: {err}\n")
    assert dirichlet._STORE == {}


@pytest.mark.parametrize(
    "variable, argv, kind",
    [
        ("HEIGHTCOUNT_MAX_SIEVE", ["dcoeff", "--d", "2", "--xmax", "100"], "sieve count 100"),
        ("HEIGHTCOUNT_MAX_SIEVE", ["ball-adelic", "--d", "2", "--B", "1", "--Tmax", "5"], "sieve count 148"),
        ("HEIGHTCOUNT_MAX_CLASSES", ["classes", "--d", "2", "--p", "2", "--kmax", "3"], "lattice class count 22"),
        ("HEIGHTCOUNT_MAX_CELLS", ["count", "--xmax", "8", "--B", "1"], "census cell count 70"),
    ],
)
def test_budget_defaults_come_from_the_environment(capsys, monkeypatch, variable, argv, kind):
    # without a --max-* flag each budget is the HEIGHTCOUNT_MAX_* value
    monkeypatch.setenv(variable, "10")
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, argv
    assert f"estimated {kind} exceeds budget 10;" in err


def test_budget_reads_only_its_own_variable(capsys, monkeypatch):
    # a malformed variable for another budget does not stop the command
    monkeypatch.setenv("HEIGHTCOUNT_MAX_CELLS", "abc")
    code, out = run(capsys, "dcoeff", "--d", "2", "--xmax", "5")
    assert code == 0
    assert out.splitlines()[-1] == "5,6"
    monkeypatch.setenv("HEIGHTCOUNT_MAX_SIEVE", "abc")
    code = main(["dcoeff", "--d", "2", "--xmax", "5"])
    err = capsys.readouterr().err
    assert code == 1
    assert "HEIGHTCOUNT_MAX_SIEVE must be an integer, got 'abc'" in err


# one run of every JSON command, and its keys in schema order
_JSON_RUNS = {
    "sphere --d 2 --p 2 --k 1": "d p k sphere",
    "ball --d 2 --p 2 --k 1": "d p k ball",
    "lseries --d 2 --s 3.3": "d variant s value_re value_im truncation_bound",
    "residue --variant sl2": "variant pole direct extrapolated difference note",
    "ball-volume --d 2 --B 1 --R 1.3": "d B R volume",
    "height --matrix 2,1;0,3 --B 1.7": "finite_exponents h_fin h_inf h",
    "predict --d 3 --B 4 --T 5 --covolume 0.3": (
        "d B T covolume simplex_factor series_constant rank measured_exponent "
        "value_measured_exponent value_exponent_B value_exponent_2B"
    ),
    "regularity --d 2 --B 1 --Tmin 2 --Tmax 6 --points 6": (
        "d B eps lower_ratios upper_ratios lower_trend upper_trend gap verdict"
    ),
    "persistence --T 5 --Tmax 6 --B 1.7": "B T C alpha beta d_T ratio",
}


@pytest.mark.parametrize("argv, keys", _JSON_RUNS.items(), ids=[a.split()[0] for a in _JSON_RUNS])
def test_json_key_order_is_pinned(capsys, argv, keys):
    # a reordered or renamed report field changes the schema
    assert list(run_json(capsys, *argv.split())) == ["schema", *keys.split()]


def test_all_outputs_carry_schema_tag(capsys):
    # every JSON command, each float of its payload (also inside lists)
    # printed with 12 significant digits
    runs = [argv.split() for argv in _JSON_RUNS]

    def floats(value):
        if isinstance(value, float):
            yield value
        elif isinstance(value, (list, dict)):
            for v in value.values() if isinstance(value, dict) else value:
                yield from floats(v)

    for argv in runs:
        doc = run_json(capsys, *argv)
        assert doc["schema"] == f"heightcount/{argv[0]}/v1"
        for v in floats(doc):
            assert v == float("%.12g" % v)


# ---------------------------------------------------------------------------
# documentation


ROOT = Path(__file__).resolve().parents[1]


def _readme_block(heading):
    text = (ROOT / "README.md").read_text()
    section = text.split(heading, 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return block.replace("\\\n", " ").splitlines()


def _readme_commands():
    lines = _readme_block("## Command line")
    return [shlex.split(line)[1:] for line in lines if line.startswith("heightcount ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 6
    for argv in commands:
        code, _ = run(capsys, *argv)
        assert code == 0, argv


def _src_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


# the stdout of each README script line, pinned byte for byte
_SCRIPT_PINS = {
    "scripts/scan_ball_volumes.py": "scan_ball_volumes_d3_B1_rmax8.txt",
}


def test_readme_script_lines_run():
    # scan_ball_volumes.py reads the volume table
    lines = [shlex.split(line) for line in _readme_block("## Scripts") if line.startswith("python ")]
    assert len(lines) == 1
    assert sorted(argv[1] for argv in lines) == sorted(_SCRIPT_PINS)
    env = _src_env()
    for argv in lines:
        proc = subprocess.run(
            [sys.executable, *argv[1:]], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert proc.stdout == (DATA / _SCRIPT_PINS[argv[1]]).read_text(), argv


def test_import_leaves_kernels_and_verify_unimported():
    # the BFS kernel and the check suite load on first use, so a bare
    # `import heightcount` stays cheap; the package
    # starts no threads, so it needs no concurrent.futures; the volume
    # series is exact in integers, so a table and a series sum import
    # neither fractions nor decimal
    lazy = (
        "heightcount.hermite",
        "heightcount.verify",
        "concurrent.futures",
        "fractions",
        "decimal",
    )
    code = (
        f"import sys, heightcount; print([m for m in {lazy!r} if m in sys.modules]); "
        "heightcount.ball_volume_table(3, 1.0, 2.0); heightcount.ball_volume_numeric(6, 0.7, 1.5); "
        "print([m for m in ('fractions', 'decimal') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_census_and_bfs_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma (about 18 ms of a cold process), and so
    # does np.isin where it sorts, as on the wide keys of (2, 3, 8); the
    # census and the BFS sort and search instead
    code = (
        "import sys, heightcount as hc; hc.pi_count_detail(403, 0.5); "
        "hc.enumerate_classes(hc.BuildingParams(3, 2), 2); hc.enumerate_classes(hc.BuildingParams(2, 3), 8); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=_src_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
