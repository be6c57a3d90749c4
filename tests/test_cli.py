"""CLI subcommands: files, verdicts, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bergman import chsc, cli, coefficients, growth, potential
from bergman.cli import main
from bergman.potential import check_good_contour, make_preset, polarize
from bergman.series import TruncatedSeries
from oracles import write_spec
from test_potential import non_radial_n2_spec


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestPolarize:
    def test_flat_writes_single_term_psi(self, tmp_path):
        rc = main(
            ["polarize", "--preset", "flat", "--n", "1", "--degree", "6",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "geometry.json")
        assert payload["psi"]["terms"] == [{"index": [1, 1], "num": 1, "den": 1}]
        assert read_json(tmp_path / "contour.json")["report"]["passed"]

    def test_chsc_log_series(self, tmp_path):
        rc = main(
            ["polarize", "--preset", "chsc", "--n", "1", "--param", "1",
             "--degree", "8", "--out", str(tmp_path)]
        )
        assert rc == 0
        terms = read_json(tmp_path / "geometry.json")["psi"]["terms"]
        got = {tuple(t["index"]): (t["num"], t["den"]) for t in terms}
        assert got == {(1, 1): (1, 1), (2, 2): (-1, 2), (3, 3): (1, 3), (4, 4): (-1, 4)}

    def test_malformed_spec_exits_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "n": 1,
                    "trunc_degree": 6,
                    "eval_radius": 0.3,
                    "terms": [
                        {"alpha": [0], "beta": [0], "num": 1, "den": 1},
                        {"alpha": [1], "beta": [1], "num": 1, "den": 1},
                    ],
                }
            )
        )
        rc = main(["polarize", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2


class TestCoeffs:
    def test_chsc2_constants_and_crosscheck(self, tmp_path):
        rc = main(
            ["coeffs", "--preset", "chsc", "--n", "2", "--param", "1",
             "--degree", "10", "--order", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "coefficients.json")
        b = payload["table"]["b"]
        values = []
        for rec in b:
            assert len(rec["terms"]) <= 1
            values.append(rec["terms"][0]["num"] if rec["terms"] else 0)
        assert values == [1, 3, 2, 0]
        assert read_json(tmp_path / "crosscheck.json")["cross_check"] == "pass"

    def test_crosscheck_names_the_first_failing_term(self, tmp_path, monkeypatch):
        original = cli.reconstruct_coefficients

        def off_by_one_term(geom, chain):
            recon = list(original(geom, chain))
            b1 = recon[1]
            recon[1] = b1 + TruncatedSeries(b1.nvars, b1.trunc_degree, {(1, 1): Fraction(1, 7)})
            return recon

        argv = ["coeffs", "--preset", "quartic", "--n", "1",
                "--degree", "8", "--order", "2", "--transport-order", "2"]
        assert main(argv + ["--out", str(tmp_path / "pass")]) == 0
        assert "first_mismatch" not in read_json(tmp_path / "pass" / "crosscheck.json")
        monkeypatch.setattr(cli, "reconstruct_coefficients", off_by_one_term)
        assert main(argv + ["--out", str(tmp_path / "fail")]) == 1
        payload = read_json(tmp_path / "fail" / "crosscheck.json")
        assert payload["cross_check"] == "fail"
        assert payload["mismatched_orders"] == [1]
        table_b1 = read_json(tmp_path / "fail" / "coefficients.json")["table"]["b"][1]
        term = next(t for t in table_b1["terms"] if t["index"] == [1, 1])
        want = Fraction(term["num"], term["den"])
        assert payload["first_mismatch"] == {
            "order": 1,
            "index": [1, 1],
            "reconstructed": str(want + Fraction(1, 7)),
            "table": str(want),
        }

    def test_degree_budget_error_is_exit_two(self, tmp_path, capsys):
        rc = main(
            ["coeffs", "--preset", "quartic", "--n", "1", "--param", "1/10",
             "--degree", "6", "--order", "3", "--out", str(tmp_path)]
        )
        assert rc == 2
        assert "required degree 8" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "orders", [["--order", "-1"], ["--order", "2", "--transport-order", "-1"]]
    )
    def test_negative_order_is_exit_two(self, tmp_path, capsys, orders):
        with pytest.raises(SystemExit) as exc:  # argparse refuses the argument itself
            main(["coeffs", "--preset", "flat", "--n", "1", "--degree", "6", *orders,
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "crosscheck.json").exists()


class TestEvalCommand:
    def test_eval_against_closed_kernel(self, tmp_path):
        rc = main(
            ["coeffs", "--preset", "chsc", "--n", "1", "--param", "1",
             "--degree", "12", "--order", "2", "--transport-order", "2",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        rc = main(
            ["eval", "--preset", "chsc", "--n", "1", "--param", "1",
             "--degree", "12", "--coeffs", str(tmp_path / "coefficients.json"),
             "--k", "20", "--x", "0.1", "--y", "0.05",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        report = read_json(tmp_path / "kernel_report.json")["report"]
        from oracles import cpn_kernel

        oracle = cpn_kernel(1, 20, [0.1], [0.05])
        got = complex(*report["K"])
        assert abs(got - oracle) <= 1e-4 * abs(oracle)

    @pytest.mark.parametrize("C, clamped", [("1", False), ("1e-310", True)],
                             ids=["in_table", "beyond_floats"])
    def test_order_from_C_is_clamped_to_the_table(self, tmp_path, C, clamped):
        # sqrt(k/C) is 3 at C = 1, inside M = 3; at C = 1e-310, k/C is beyond the float range
        rc = main(
            ["coeffs", "--preset", "chsc", "--n", "1", "--param", "1", "--degree", "10",
             "--order", "3", "--transport-order", "3", "--out", str(tmp_path)]
        )
        assert rc == 0
        rc = main(
            ["eval", "--preset", "chsc", "--n", "1", "--param", "1", "--degree", "10",
             "--coeffs", str(tmp_path / "coefficients.json"), "--k", "9", "--C", C,
             "--x", "0.1", "--y", "0.05", "--out", str(tmp_path)]
        )
        assert rc == 0
        record = read_json(tmp_path / "kernel_report.json")
        assert record["truncation_order_clamped"] is clamped
        assert record["report"]["N"] == 3

    def test_missing_coeffs_exits_two(self, tmp_path):
        rc = main(
            ["eval", "--preset", "flat", "--n", "1", "--degree", "6",
             "--coeffs", str(tmp_path / "nope.json"), "--k", "10",
             "--x", "0.1", "--y", "0.0", "--out", str(tmp_path)]
        )
        assert rc == 2


class TestAsymptoticsCommand:
    def test_flat_residual_zero_passes(self, tmp_path):
        rc = main(
            ["coeffs", "--preset", "flat", "--n", "1", "--degree", "8",
             "--order", "2", "--transport-order", "2", "--out", str(tmp_path)]
        )
        assert rc == 0
        rc = main(
            ["asymptotics", "--preset", "flat", "--n", "1", "--degree", "8",
             "--coeffs", str(tmp_path / "coefficients.json"),
             "--mode", "log", "--k-grid", "16,64,256",
             "--x", "0.2", "--y", "0.1", "--out", str(tmp_path)]
        )
        assert rc == 0
        fit = read_json(tmp_path / "asymptotics.json")["fit"]
        assert fit["all_zero"]

    def test_closed_form_chsc_slope(self, tmp_path):
        rc = main(
            ["asymptotics", "--preset", "chsc", "--n", "1", "--param", "1",
             "--closed-form", "--mode", "log", "--max-slope", "-1.85",
             "--x", "0.1", "--y", "0.05", "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "asymptotics.json")
        assert payload["verdict"] == "pass"
        assert (tmp_path / "asymptotics.csv").exists()

    def test_closed_form_chsc_beyond_the_float_range_of_k_powers(self, tmp_path, capsys):
        # at n = 90 the amplitude reads b_j / k^j with k^j above 2^1024, which once
        # raised "int too large to convert to float" and exited 2 on valid input
        point = ",".join(["0.001"] * 90), ",".join(["0.002"] * 90)
        rc = main(["asymptotics", "--closed-form", "--preset", "chsc", "--n", "90",
                   "--x", point[0], "--y", point[1], "--out", str(tmp_path)])
        assert rc == 0, capsys.readouterr().err
        fit = read_json(tmp_path / "asymptotics.json")["fit"]
        assert len(fit["residuals"]) == 7 and all(map(math.isfinite, fit["residuals"]))

    @pytest.mark.parametrize("mode", ["log", "scaling"])
    def test_bad_point_exits_two_before_the_geometry(self, tmp_path, monkeypatch, capsys, mode):
        assert main(["coeffs", "--preset", "chsc", "--degree", "6", "--order", "1",
                     "--transport-order", "1", "--out", str(tmp_path)]) == 0
        built = []

        def refuse(spec):
            built.append(spec)
            raise RuntimeError("the geometry was built before the points were parsed")

        monkeypatch.setattr(cli, "build_geometry", refuse)
        rc = main(
            ["asymptotics", "--preset", "chsc", "--degree", "6",
             "--coeffs", str(tmp_path / "coefficients.json"), "--mode", mode,
             "--x", "0.01", "--y", "abc", "--out", str(tmp_path)]
        )
        assert rc == 2 and built == []
        assert "not a list of complex numbers" in capsys.readouterr().err


class TestLazyGeometry:
    """Only the commands that read z(x, y, theta) invert the phase, once each."""

    @pytest.fixture
    def inversions(self, monkeypatch):
        solve, calls = potential.invert_theta, []

        def counting(theta):
            calls.append(theta)
            return solve(theta)

        monkeypatch.setattr(potential, "invert_theta", counting)
        return calls

    @pytest.mark.parametrize("argv", [
        ["polarize", "--preset", "chsc", "--degree", "6", "--samples", "5"],
        ["coeffs", "--preset", "chsc", "--degree", "6", "--order", "2"],
        ["chsc-check", "--n", "1", "--order", "2"],
    ], ids=["polarize", "coeffs", "chsc-check"])
    def test_readers_of_the_inversion_run_it_once(self, tmp_path, inversions, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        assert len(inversions) == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--k", "40", "--x", "0.01", "--y", "0.05+0.02j"],
        ["asymptotics", "--mode", "log", "--x", "0.01", "--y", "0.05+0.02j"],
        ["asymptotics", "--mode", "scaling", "--x", "0.01", "--y", "0.05+0.02j"],
        ["growth", "--task", "fit", "--norm-radius", "0.05"],
    ], ids=["eval", "asymptotics_log", "asymptotics_scaling", "growth_fit"])
    def test_readers_of_psi_alone_never_invert(self, tmp_path, contract_dir, inversions, argv):
        # contract_dir is module-scoped, so its table is built before the spy goes in
        rc = main(argv + ["--preset", "chsc", "--degree", "6",
                          "--coeffs", str(contract_dir / "coefficients.json"), "--out", str(tmp_path)])
        assert rc in (0, 1) and inversions == []

    def test_point_outside_the_radius_exits_two_without_inverting(self, tmp_path, inversions, capsys):
        write_spec(non_radial_n2_spec(12), tmp_path / "spec.json")
        (tmp_path / "table.json").write_text(json.dumps(_table_record(2)))
        rc = main(["asymptotics", "--spec", str(tmp_path / "spec.json"),
                   "--coeffs", str(tmp_path / "table.json"),
                   "--x", "0.5,0.5", "--y", "0.05,0.05", "--out", str(tmp_path)])
        assert rc == 2 and inversions == []
        assert "radius" in capsys.readouterr().err


class TestGrowthCommand:
    def test_worst_case(self, tmp_path):
        rc = main(
            ["growth", "--task", "worst-case", "--n", "1", "--order", "4",
             "--kmax", "4", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert read_json(tmp_path / "worst_case.json")["verdict"] == "pass"
        lines = (tmp_path / "worst_case.csv").read_text().strip().splitlines()
        assert lines[0] == "m,k,value,lower_bound,ratio"
        assert len(lines) == 1 + 5 * 5

    def test_truncation(self, tmp_path):
        rc = main(
            ["growth", "--task", "truncation", "--C", "1", "--k", "100",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        scan = read_json(tmp_path / "truncation.json")["scan"]
        assert scan["argmin"] in (9, 10, 11)

    @pytest.mark.parametrize("C, k", [("11", "10"), ("0.001", "100"), ("1.5", "1")])
    def test_truncation_outside_its_range_is_refused_before_the_scan(
        self, tmp_path, monkeypatch, capsys, C, k
    ):
        monkeypatch.setattr(cli, "truncation_minimizer", lambda *a: pytest.fail("scan ran"))
        argv = ["growth", "--task", "truncation", "--C", C, "--k", k, "--out", str(tmp_path)]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "outside [1/k, k]" in line
        assert not (tmp_path / "truncation.json").exists()

    @pytest.mark.parametrize("C, k", [("10", "10"), ("0.1", "10"), ("1", "1")])
    def test_truncation_at_the_ends_of_its_range(self, tmp_path, C, k):
        argv = ["growth", "--task", "truncation", "--C", C, "--k", k, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert read_json(tmp_path / "truncation.json")["verdict"] == "pass"

    @pytest.mark.parametrize("spec", [["--preset", "quartic", "--n", "1", "--degree", "8"],
                                      ["--preset", "chsc", "--n", "2", "--degree", "6"]],
                             ids=["quartic_n1", "chsc_n2"])
    def test_fit_with_fewer_than_three_positive_orders_is_refused(self, tmp_path, capsys, spec):
        # both orders of M = 2 are positive: no vanishing verdict, and too few orders to fit
        assert main(["coeffs", *spec, "--order", "2", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        argv = ["growth", "--task", "fit", *spec, "--coeffs", str(tmp_path / "coefficients.json"),
                "--out", str(tmp_path / "fit")]
        assert main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: need at least three positive orders")
        assert not (tmp_path / "fit" / "growth_fit.json").exists()

    def test_lemma_small(self, tmp_path):
        rc = main(
            ["growth", "--task", "lemma", "--deltas", "0.5,1", "--n-max", "4",
             "--k-max", "200", "--out", str(tmp_path)]
        )
        assert rc == 0


class TestChscCheck:
    def test_verdicts(self, tmp_path):
        rc = main(
            ["chsc-check", "--n", "2", "--param", "1", "--order", "3",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        payload = read_json(tmp_path / "chsc_check.json")
        assert payload["result"]["b"] == ["1", "3", "2", "0"]
        assert payload["verdict"] == "pass"


class TestDeterminism:
    def test_identical_bytes_across_runs(self, tmp_path):
        argv = lambda out: [
            "coeffs", "--preset", "chsc", "--n", "1", "--param", "-1",
            "--degree", "10", "--order", "2", "--transport-order", "2",
            "--out", out,
        ]
        assert main(argv(str(tmp_path / "a"))) == 0
        assert main(argv(str(tmp_path / "b"))) == 0
        for name in ("coefficients.json", "transport.json", "crosscheck.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# argv of inputs that must be refused as invalid (exit 2) with a usage or
# error message, not a traceback.  "missing.json" is a spec without "terms",
# "text_n.json" gives n as a string, "text_alpha.json" gives an exponent as a
# string, "bool_n.json" and "bool_degree.json" give n or trunc_degree as JSON true,
# "bool_num.json" and "bool_den.json" give the one term's num or den as JSON true,
# "infinite_radius.json" gives eval_radius as Infinity, "bool_radius.json" and
# "text_radius.json" give it as JSON true and as the string "0.3", and "broken.json"
# is not JSON at all.
# "table/coefficients.json" is a real coefficient table, written for the cases
# that read it, so they fail on the argument under test, not on a missing table.
# A case without its own --out writes to "out".
# The "table_*.json" files are small hand-written tables (see _table_record):
# one without keys, one in a float mode, one for n=2, one with a short index,
# one claiming more orders than it holds, one whose n disagrees with its series,
# and those of TABLE_DEFECTS below.
EVAL = [
    "eval", "--preset", "chsc", "--degree", "6", "--coeffs", "table/coefficients.json",
]
INVALID_INPUTS = {
    "eval_k_zero": EVAL + ["--k", "0", "--x", "0.1", "--y", "0.05"],
    "eval_C_zero": EVAL + ["--k", "10", "--C", "0", "--x", "0.1", "--y", "0.05"],
    "eval_point_outside_radius": EVAL + ["--k", "10", "--x", "0.9", "--y", "0.05"],
    "eval_point_not_complex": EVAL + ["--k", "10", "--x", "0.1", "--y", "abc"],
    "eval_point_nan": EVAL + ["--k", "10", "--x", "nan", "--y", "0.05"],
    "asymptotics_point_nan_component": [
        "asymptotics", "--preset", "quartic", "--n", "2", "--param", "1/10", "--degree", "6",
        "--coeffs", "table_n2.json", "--x", "0.1,nan", "--y", "0.05,0.05",
    ],
    "scaling_point_nan": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--mode", "scaling",
        "--x", "nan", "--y", "0.05",
    ],
    "eval_order_above_table": EVAL + ["--k", "10", "--order", "5", "--x", "0.1", "--y", "0.05"],
    "truncation_C_zero": ["growth", "--task", "truncation", "--C", "0"],
    "truncation_k_zero": ["growth", "--task", "truncation", "--k", "0"],
    "truncation_k_over_guard": [
        "growth", "--task", "truncation", "--k", str(growth.TRUNCATION_K_LIMIT + 1),
    ],
    # the scan checks a fact that needs 1 <= sqrt(k/C) <= k, that is C in [1/k, k]
    "truncation_C_above_k": ["growth", "--task", "truncation", "--C", "11", "--k", "10"],
    "truncation_C_below_one_over_k": [
        "growth", "--task", "truncation", "--C", "0.001", "--k", "100",
    ],
    "lemma_delta_zero": ["growth", "--task", "lemma", "--deltas", "0,1"],
    "lemma_delta_not_number": ["growth", "--task", "lemma", "--deltas", "a"],
    "lemma_k_max_zero": ["growth", "--task", "lemma", "--k-max", "0"],
    "lemma_n_max_negative": ["growth", "--task", "lemma", "--n-max", "-1"],
    "worst_case_order_negative": ["growth", "--task", "worst-case", "--order", "-1"],
    "asymptotics_point_outside_radius": [
        "asymptotics", "--preset", "chsc", "--degree", "6", "--coeffs", "table/coefficients.json",
        "--x", "0.5", "--y", "0.02",
    ],
    "fit_norm_radius_above_spec_radius": [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6", "--radius", "0.05",
        "--coeffs", "table/coefficients.json",
    ],
    "spec_exponent_not_integer": ["polarize", "--spec", "text_alpha.json"],
    "fit_grid_over_guard": [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
        "--coeffs", "table/coefficients.json",
        # the table holds M = 1: 2 * grid^2 points, just above the limit
        "--grid", str(math.isqrt(coefficients.NORM_POINT_LIMIT // 2) + 1),
    ],
    "fit_grid_one": [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
        "--coeffs", "table/coefficients.json", "--grid", "1",
    ],
    "polarize_samples_zero": ["polarize", "--preset", "chsc", "--degree", "6", "--samples", "0"],
    "polarize_samples_over_guard": [
        "polarize", "--preset", "chsc", "--degree", "6",
        "--samples", str(potential.CONTOUR_SAMPLE_LIMIT + 1),
    ],
    "polarize_delta_negative": ["polarize", "--preset", "chsc", "--degree", "6", "--delta", "-5"],
    "polarize_delta_zero": ["polarize", "--preset", "chsc", "--degree", "6", "--delta", "0"],
    "polarize_delta_nan": ["polarize", "--preset", "chsc", "--degree", "6", "--delta", "nan"],
    "fit_norm_radius_negative": [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
        "--coeffs", "table/coefficients.json", "--norm-radius", "-0.1",
    ],
    "fit_norm_radius_zero": [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
        "--coeffs", "table/coefficients.json", "--norm-radius", "0",
    ],
    "fit_norm_radius_nan": [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
        "--coeffs", "table/coefficients.json", "--norm-radius", "nan",
    ],
    "asymptotics_without_table": [
        "asymptotics", "--preset", "chsc", "--degree", "6", "--x", "0.01", "--y", "0.02",
    ],
    "k_grid_not_integers": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--k-grid", "64,abc",
        "--x", "0.01", "--y", "0.02",
    ],
    "k_grid_zero": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--k-grid", "0,64",
        "--x", "0.01", "--y", "0.02",
    ],
    "k_grid_single_value": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--k-grid", "64",
        "--x", "0.01", "--y", "0.02",
    ],
    "k_grid_one_distinct_value": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--k-grid", "64,64",
        "--x", "0.01", "--y", "0.02",
    ],
    "chsc_check_order_negative": ["chsc-check", "--n", "1", "--order", "-1"],
    "param_division_by_zero": ["polarize", "--preset", "chsc", "--param", "1/0", "--degree", "6"],
    "param_beyond_float_range": ["polarize", "--preset", "chsc", "--param", "1e400", "--degree", "6"],
    "closed_form_param_beyond_float_range": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--param", "1e400",
        "--x", "0.01", "--y", "0.02",
    ],
    "dimension_zero": ["polarize", "--preset", "chsc", "--n", "0", "--degree", "6"],
    "spec_not_json": ["polarize", "--spec", "broken.json"],
    "spec_missing_terms": ["polarize", "--spec", "missing.json"],
    "spec_n_not_integer": ["polarize", "--spec", "text_n.json"],
    "spec_n_bool": ["polarize", "--spec", "bool_n.json"],
    "spec_degree_bool": ["polarize", "--spec", "bool_degree.json"],
    "spec_radius_infinite": ["polarize", "--spec", "infinite_radius.json"],
    "spec_radius_bool": ["polarize", "--spec", "bool_radius.json"],
    "spec_radius_string": ["polarize", "--spec", "text_radius.json"],
    "spec_num_bool": ["coeffs", "--spec", "bool_num.json", "--order", "1",
                      "--transport-order", "1"],
    "spec_den_bool": ["coeffs", "--spec", "bool_den.json", "--order", "1",
                      "--transport-order", "1"],
    "worst_case_over_guard": ["growth", "--task", "worst-case", "--n", "3", "--order", "40"],
    "lemma_over_guard": ["growth", "--task", "lemma", "--k-max", "100000"],
    "coeffs_not_json": [
        "eval", "--preset", "chsc", "--degree", "6", "--coeffs", "broken.json",
        "--k", "10", "--x", "0.1", "--y", "0.05",
    ],
    "coeffs_missing_keys": [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
        "--coeffs", "table_missing_keys.json",
    ],
    "coeffs_float_mode": [
        "asymptotics", "--preset", "chsc", "--degree", "6", "--coeffs", "table_float.json",
        "--x", "0.01", "--y", "0.02",
    ],
    "coeffs_index_wrong_length": [
        "eval", "--preset", "chsc", "--degree", "6", "--coeffs", "table_short_index.json",
        "--k", "10", "--x", "0.1", "--y", "0.05",
    ],
    "coeffs_wrong_dimension": [
        "eval", "--preset", "chsc", "--n", "1", "--degree", "6", "--coeffs", "table_n2.json",
        "--k", "10", "--x", "0.1", "--y", "0.05",
    ],
    "coeffs_fewer_series_than_orders": [
        "eval", "--preset", "chsc", "--degree", "6", "--coeffs", "table_M2.json",
        "--k", "10", "--x", "0.1", "--y", "0.05",
    ],
    "coeffs_series_of_other_dimension": [
        "eval", "--preset", "chsc", "--degree", "6", "--coeffs", "table_n1_series_n2.json",
        "--k", "10", "--x", "0.1", "--y", "0.05",
    ],
    "closed_form_point_off_domain": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--param", "-1", "--radius", "2",
        "--x", "1", "--y", "1",
    ],
    "closed_form_point_outside_default_radius": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--param", "-1",
        "--x", "1.5", "--y", "1.5",
    ],
    "closed_form_point_outside_given_radius": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--radius", "0.01",
        "--x", "0.5", "--y", "0.005",
    ],
    # a non-finite bound would pass or fail every fit whatever its slope
    "max_slope_inf": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--mode", "scaling",
        "--x", "0.01", "--y", "0.02", "--max-slope", "inf",
    ],
    "max_slope_nan": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--x", "0.01", "--y", "0.02",
        "--max-slope", "nan",
    ],
    "closed_form_scaling_point_outside_radius": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--mode", "scaling",
        "--x", "0.01", "--y", "0.5",
    ],
    "closed_form_radius_negative": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--radius", "-1",
        "--x", "0.01", "--y", "0.02",
    ],
    "closed_form_pair_at_the_log_pole": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--param", "4", "--radius", "0.5",
        "--x", "0.5", "--y", "-0.5",
    ],
    "closed_form_scaled_pair_at_the_log_pole": [
        "asymptotics", "--closed-form", "--preset", "chsc", "--param", "4", "--radius", "0.5",
        "--x", "0.5", "--y", "-0.5", "--mode", "scaling", "--k-grid", "1,2",
    ],
    "spec_is_a_directory": ["polarize", "--spec", "."],
    "coeffs_is_a_directory": [
        "eval", "--preset", "chsc", "--degree", "6", "--coeffs", ".",
        "--k", "10", "--x", "0.1", "--y", "0.05",
    ],
    "out_below_a_file": [
        "growth", "--task", "truncation", "--out", "broken.json/x",
    ],
}


def _table_record(n, mode="rational", index_length=None):
    """A coefficients.json payload for dimension n holding only b_0 = 1."""
    term = {"index": [0] * (2 * n if index_length is None else index_length)}
    term.update({"num": 1, "den": 1} if mode == "rational" else {"re": 1.0, "im": 0.0})
    b0 = {"nvars": 2 * n, "trunc_degree": 6, "mode": mode, "terms": [term]}
    return {"table": {"n": n, "M": 0, "effective_degrees": [6], "spec_sha256": "", "b": [b0]}}


# Tables whose fields disagree with their series: each is _table_record(1) with
# these fields replaced, written as table_<name>.json.  One with no orders at all
# would evaluate, fit and bound nothing, so each command must refuse it.
TABLE_DEFECTS = {
    "M_negative": {"M": -1, "b": [], "effective_degrees": []},
    "n_bool": {"n": True},
    "M_bool": {"M": True},
    "degrees_not_the_series_degrees": {"effective_degrees": [99, -5, "x"]},
    "degree_off_by_one": {"effective_degrees": [7]},
    "a_in_two_variables": {"a": _table_record(1)["table"]["b"]},
    "a_too_few": {"a": []},
}
# Series records whose sizes or term values are not ints: JSON 2.0 and true
# compare equal to 2 and 1, so each once ran (exit 0) or ended in exit 3.
_B0 = _table_record(1)["table"]["b"][0]
SERIES_DEFECTS = {
    "b_nvars_float": {"b": [{**_B0, "nvars": 2.0}]},
    "b_degree_float": {"b": [{**_B0, "trunc_degree": 6.0}], "effective_degrees": [6.0]},
    "b_num_bool": {"b": [{**_B0, "terms": [{**_B0["terms"][0], "num": True}]}]},
    "b_den_bool": {"b": [{**_B0, "terms": [{**_B0["terms"][0], "den": True}]}]},
    "b_exponent_bool": {"b": [{**_B0, "terms": [{**_B0["terms"][0], "index": [False, False]}]}]},
}
TABLE_DEFECTS.update(SERIES_DEFECTS)
for _defect in TABLE_DEFECTS:
    INVALID_INPUTS[f"coeffs_{_defect}"] = [
        "eval", "--preset", "chsc", "--degree", "6", "--coeffs", f"table_{_defect}.json",
        "--k", "10", "--x", "0.1", "--y", "0.05",
    ]
for _defect in SERIES_DEFECTS:
    INVALID_INPUTS[f"coeffs_{_defect}_asymptotics"] = [
        "asymptotics", "--preset", "chsc", "--degree", "6", "--coeffs", f"table_{_defect}.json",
        "--x", "0.01", "--y", "0.02",
    ]
    INVALID_INPUTS[f"coeffs_{_defect}_fit"] = [
        "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
        "--coeffs", f"table_{_defect}.json",
    ]
INVALID_INPUTS["coeffs_M_negative_asymptotics"] = [
    "asymptotics", "--preset", "chsc", "--degree", "6", "--coeffs", "table_M_negative.json",
    "--x", "0.01", "--y", "0.02",
]
INVALID_INPUTS["coeffs_M_negative_fit"] = [
    "growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
    "--coeffs", "table_M_negative.json",
]


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_input_exits_two_without_traceback(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "broken.json").write_text('{"n": 1,')
    header = {"n": 1, "trunc_degree": 6, "eval_radius": 0.3}
    (tmp_path / "missing.json").write_text(json.dumps(header))
    (tmp_path / "text_n.json").write_text(json.dumps({**header, "n": "1", "terms": []}))
    term = {"alpha": "1", "beta": "1", "num": 1, "den": 1}
    (tmp_path / "text_alpha.json").write_text(json.dumps({**header, "terms": [term]}))
    flat = [{"alpha": [1], "beta": [1], "num": 1, "den": 1}]
    for name, field, value in (("bool_n.json", "n", True), ("bool_degree.json", "trunc_degree", True),
                               ("infinite_radius.json", "eval_radius", float("inf")),
                               ("bool_radius.json", "eval_radius", True),
                               ("text_radius.json", "eval_radius", "0.3")):
        (tmp_path / name).write_text(json.dumps({**header, field: value, "terms": flat}))
    for name, field in (("bool_num.json", "num"), ("bool_den.json", "den")):
        (tmp_path / name).write_text(json.dumps({**header, "terms": [{**flat[0], field: True}]}))
    (tmp_path / "table_missing_keys.json").write_text(json.dumps({"table": {}}))
    tables = {
        "table_float.json": _table_record(1, mode="float"),
        "table_short_index.json": _table_record(1, index_length=1),
        "table_n2.json": _table_record(2),
        "table_M2.json": {"table": {**_table_record(1)["table"], "M": 2}},
        "table_n1_series_n2.json": {"table": {**_table_record(2)["table"], "n": 1}},
    }
    for name, fields in TABLE_DEFECTS.items():
        tables[f"table_{name}.json"] = {"table": {**_table_record(1)["table"], **fields}}
    for name, record in tables.items():
        (tmp_path / name).write_text(json.dumps(record))
    if "table/coefficients.json" in INVALID_INPUTS[case]:
        assert main(["coeffs", "--preset", "chsc", "--degree", "6", "--order", "1",
                     "--transport-order", "1", "--out", "table"]) == 0
    try:
        argv = INVALID_INPUTS[case]
        rc = main(argv if "--out" in argv else argv + ["--out", "out"])
    except SystemExit as exc:  # argparse refuses the argument itself
        rc = exc.code
    err = capsys.readouterr().err
    assert rc == 2
    assert "Traceback" not in err
    assert "error" in err


# a value that starts with "-" as the argument after its option, and in the "=" form
NEGATIVE_VALUES = {
    "param_rational": (["chsc-check", "--n", "1", "--order", "2"], "--param", "-1/2"),
    "param_preset": (["polarize", "--preset", "chsc", "--n", "1", "--degree", "6",
                      "--samples", "10"], "--param", "-1/2"),
    "x_list": (["asymptotics", "--preset", "chsc", "--n", "2", "--closed-form",
                "--y", "0.05,0.02"], "--x", "-0.1,0.05"),
    "x_complex": (["asymptotics", "--preset", "chsc", "--n", "1", "--closed-form",
                   "--y", "0.05"], "--x", "-0.1+0.05j"),
    "max_slope_leading_dot": (["asymptotics", "--preset", "chsc", "--n", "1", "--closed-form",
                               "--x", "0.1", "--y", "0.05"], "--max-slope", "-.5e0"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_VALUES))
def test_negative_values_as_separate_arguments(tmp_path, case):
    argv, option, value = NEGATIVE_VALUES[case]
    assert main(argv + [option, value, "--out", str(tmp_path / "apart")]) == 0
    assert main(argv + [f"{option}={value}", "--out", str(tmp_path / "joined")]) == 0
    apart = sorted(p.name for p in (tmp_path / "apart").iterdir())
    assert apart == sorted(p.name for p in (tmp_path / "joined").iterdir())
    for name in apart:
        assert (tmp_path / "apart" / name).read_bytes() == (tmp_path / "joined" / name).read_bytes()


def readme_commands():
    """The arguments of each ``bergman`` line of the README's sh blocks, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bergman "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the README writes to out/
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "polarize", "coeffs", "eval", "asymptotics", "growth", "chsc-check",
    ]
    for argv in commands:
        assert main(argv) == 0, argv


def test_the_package_loads_only_the_standard_library():
    # -S keeps site-packages off sys.path, so a third-party import fails outright; -B
    # writes no bytecode into src, which -I would, as it ignores PYTHONDONTWRITEBYTECODE
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import bergman.cli; "
            "print(*sorted({name.split('.')[0] for name in sys.modules}))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split()) - {"__main__"}
    assert {name for name in loaded if name not in sys.stdlib_module_names} == {"bergman"}


def test_internal_error_exits_three_with_one_line(tmp_path, monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "cmd_chsc_check", broken)
    rc = main(["chsc-check", "--n", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err == "internal error: RuntimeError: unexpected state\n"


# -- the exit-code contract over random argv and spec files ------------------------------

RATIONALS = ("1", "-1", "1/10", "-1/3", "0", "2", "1/0", "abc", "", "1e400", "1e-400", "nan", "3/2/1")
POINTS = ("0", "0.01", "0.05+0.02j", "0.01,0.02", "0.9", "abc", "", "nan", "1e400", ",")
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9), st.floats(), st.text(max_size=3)
)
_json = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_exponents = st.lists(st.one_of(st.integers(-1, 4), _json_scalars), max_size=3)
_spec_records = st.fixed_dictionaries({
    "n": st.one_of(st.integers(-1, 3), _json_scalars),
    "trunc_degree": st.one_of(st.integers(-1, 8), _json_scalars),
    "eval_radius": st.one_of(st.floats(), _json_scalars),
    "terms": st.lists(
        st.fixed_dictionaries({
            "alpha": _exponents, "beta": _exponents,
            "num": st.one_of(st.integers(-3, 3), _json_scalars),
            "den": st.one_of(st.integers(-1, 4), _json_scalars),
        }),
        max_size=4,
    ),
})
# a spec file is garbage text, any JSON value, or a spec record with garbage fields
_spec_files = st.one_of(st.text(max_size=20), _json.map(json.dumps), _spec_records.map(json.dumps))
_orders = st.integers(-1, 4).map(str)
_SPEC_OPTIONS = {
    "--preset": st.sampled_from(["flat", "chsc", "quartic", "sphere"]),
    "--n": st.integers(1, 3).map(str),
    "--param": st.sampled_from(RATIONALS),
    "--degree": st.integers(-1, 8).map(str),
    "--radius": st.sampled_from(["0.3", "0", "-1", "nan", "x", "1e300"]),
}
_TABLES = ("coefficients.json", "quartic_m2.json", "garbage.json", "missing.json")
OPTIONS = {
    "polarize": {**_SPEC_OPTIONS, "--samples": st.sampled_from(["0", "1", "5"]),
                 "--delta": st.sampled_from(["0.1", "-1", "nan"])},
    "coeffs": {**_SPEC_OPTIONS, "--order": _orders, "--transport-order": _orders},
    "eval": {**_SPEC_OPTIONS, "--coeffs": st.sampled_from(_TABLES),
             "--k": st.sampled_from(["-1", "0", "1", "40"]), "--order": _orders,
             "--C": st.sampled_from(["1", "0", "nan"]), "--x": st.sampled_from(POINTS),
             "--y": st.sampled_from(POINTS)},
    "asymptotics": {**_SPEC_OPTIONS, "--mode": st.sampled_from(["log", "scaling", "x"]),
                    "--coeffs": st.sampled_from(_TABLES), "--closed-form": st.just(None),
                    "--k-grid": st.sampled_from(["64,128", "64", "64,64", "0,64", "a,b"]),
                    "--x": st.sampled_from(POINTS), "--y": st.sampled_from(POINTS),
                    "--max-slope": st.sampled_from(["-1.8", "nan"])},
    "growth": {**_SPEC_OPTIONS,
               "--task": st.sampled_from(["fit", "worst-case", "truncation", "lemma", "x"]),
               "--coeffs": st.sampled_from(_TABLES), "--order": _orders,
               "--kmax": st.sampled_from(["-1", "0", "3"]), "--grid": st.sampled_from(["1", "2"]),
               "--xi-max": st.sampled_from(["0", "1"]), "--norm-radius": st.sampled_from(["0.05", "0", "9"]),
               "--model": st.sampled_from(["m_factorial_sq", "m_factorial"]),
               "--C": st.sampled_from(["1", "0"]), "--k": st.sampled_from(["0", "100"]),
               "--deltas": st.sampled_from(["0.5,1", "0", "a"]),
               "--n-max": st.sampled_from(["-1", "5"]), "--k-max": st.sampled_from(["0", "50"])},
    "chsc-check": {"--n": st.integers(0, 3).map(str), "--param": st.sampled_from(RATIONALS),
                   "--order": _orders},
}


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    """A coefficient table (chsc n=1, degree 6, order 2), one whose two orders are both
    positive, too few for a growth fit (quartic n=1, degree 8, order 2), and a garbage
    table file."""
    root = tmp_path_factory.mktemp("contract")
    assert main(["coeffs", "--preset", "chsc", "--degree", "6", "--order", "2",
                 "--out", str(root)]) == 0
    assert main(["coeffs", "--preset", "quartic", "--degree", "8", "--order", "2",
                 "--out", str(root / "quartic")]) == 0
    (root / "quartic" / "coefficients.json").rename(root / "quartic_m2.json")
    (root / "garbage.json").write_text('{"table": [')
    return root


def exit_code_under_contract(argv, contract_dir, spec_text=None):
    """Run argv (``--coeffs`` names a file in ``contract_dir``), check it exits 0, 1 or 2
    without a traceback, and return the exit code."""
    argv = list(argv)
    for i, item in enumerate(argv[:-1]):
        if item == "--coeffs":
            argv[i + 1] = str(contract_dir / argv[i + 1])
    with tempfile.TemporaryDirectory() as tmp:
        if spec_text is not None:
            spec = Path(tmp) / "spec.json"
            spec.write_text(spec_text)
            argv += ["--spec", str(spec)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = main(argv + ["--out", str(Path(tmp) / "out")])
            except SystemExit as exc:  # argparse refuses the argument itself
                rc = exc.code
    assert rc in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()
    return rc


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_argv_keeps_the_exit_code_contract(contract_dir, data):
    command = data.draw(st.sampled_from(sorted(OPTIONS)), label="command")
    argv = [command]
    for flag, values in OPTIONS[command].items():
        if data.draw(st.booleans(), label=flag):
            value = data.draw(values, label=flag)
            argv += [flag] if value is None else [flag, value]
    spec_text = None
    if data.draw(st.booleans(), label="spec file"):
        spec_text = data.draw(_spec_files, label="spec text")
    exit_code_under_contract(argv, contract_dir, spec_text)


# One valid argv per subcommand (each exits 0 on the contract table).
# Independent draws rarely hit an input that needs several fields right at once,
# such as "polarize --preset chsc --param 1e400 --degree 6"; perturbing one or
# two fields of a valid argv reaches them.
VALID_ARGV = {
    "polarize": {"--preset": "chsc", "--degree": "6", "--samples": "5"},
    "coeffs": {"--preset": "chsc", "--degree": "6", "--order": "2", "--transport-order": "1"},
    "eval": {"--preset": "chsc", "--degree": "6", "--coeffs": "coefficients.json",
             "--k": "40", "--x": "0.01", "--y": "0.05+0.02j"},
    "asymptotics": {"--preset": "chsc", "--degree": "6", "--coeffs": "coefficients.json",
                    "--x": "0.01", "--y": "0.05+0.02j"},
    "growth": {"--task": "truncation", "--preset": "chsc", "--degree": "6",
               "--coeffs": "coefficients.json", "--n-max": "5", "--k-max": "50"},
    "chsc-check": {"--n": "1", "--order": "2"},
}


@st.composite
def perturbed_argv(draw):
    """(argv, spec text or None): a valid argv with one or two fields replaced or dropped."""
    command = draw(st.sampled_from(sorted(VALID_ARGV)))
    fields = dict(VALID_ARGV[command])
    spec_text = None
    for flag in draw(st.lists(st.sampled_from(sorted(OPTIONS[command]) + ["--spec"]),
                              min_size=1, max_size=2, unique=True)):
        if flag in fields and draw(st.booleans()):
            del fields[flag]
        elif flag == "--spec":
            spec_text = draw(_spec_files)
        else:
            fields[flag] = draw(OPTIONS[command][flag])
    argv = [command]
    for flag, value in fields.items():
        argv += [flag] if value is None else [flag, value]
    return argv, spec_text


def test_valid_argv_passes_the_contract_unperturbed(contract_dir):
    for command, fields in VALID_ARGV.items():
        argv = [command] + [item for pair in fields.items() for item in pair]
        assert exit_code_under_contract(argv, contract_dir) == 0, argv


@settings(max_examples=60, deadline=None)
@given(case=perturbed_argv())
@example(case=(["polarize", "--preset", "chsc", "--degree", "6", "--samples", "5",
                "--param", "1e400"], None))
@example(case=(["growth", "--task", "fit", "--preset", "chsc", "--degree", "6",
                "--coeffs", "quartic_m2.json"], None))
def test_perturbed_valid_argv_keeps_the_exit_code_contract(contract_dir, case):
    argv, spec_text = case
    exit_code_under_contract(argv, contract_dir, spec_text)


@pytest.mark.parametrize("argv, guarded", [
    (["growth", "--task", "truncation", "--k", str(growth.TRUNCATION_K_LIMIT + 1)],
     (growth, "lgamma")),
    (["polarize", "--preset", "chsc", "--degree", "6",
      "--samples", str(potential.CONTOUR_SAMPLE_LIMIT + 1)], (potential, "polydisc_points")),
    # the contract table holds M = 2: 3 * grid^2 points, just above the limit
    (["growth", "--task", "fit", "--preset", "chsc", "--degree", "6", "--coeffs", "coefficients.json",
      "--grid", str(math.isqrt(coefficients.NORM_POINT_LIMIT // 3) + 1)],
     (coefficients, "polydisc_points")),
    # the closed form of n = CHSC_ORDER_LIMIT + 1 at a valid point of n components: refused
    # before the model, whose Hessian check alone took 2.6 s at n = 400
    (["asymptotics", "--closed-form", "--preset", "chsc", "--n", str(chsc.CHSC_ORDER_LIMIT + 1),
      "--x", ",".join(["0.001"] * (chsc.CHSC_ORDER_LIMIT + 1)),
      "--y", ",".join(["0.002"] * (chsc.CHSC_ORDER_LIMIT + 1))], (cli, "make_preset")),
], ids=["truncation", "polarize", "fit", "closed_form"])
def test_guard_refuses_before_the_lists_are_built(tmp_path, monkeypatch, capsys, contract_dir,
                                                  argv, guarded):
    calls = []
    monkeypatch.setattr(*guarded, lambda *args, **kwargs: calls.append(args))
    argv = [str(contract_dir / item) if item == "coefficients.json" else item for item in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert calls == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: resource guard")


@pytest.mark.parametrize("argv", [
    ["coeffs", "--preset", "chsc", "--n", "1", "--degree", "181", "--order", "1"],
    ["coeffs", "--preset", "quartic", "--n", "2", "--degree", "28", "--order", "1"],
    ["coeffs", "--preset", "chsc", "--n", "1", "--degree", "100000", "--order", "1"],
    ["eval", "--spec", "spec.json", "--coeffs", "coefficients.json", "--k", "4",
     "--x", "0", "--y", "0"],
    ["chsc-check", "--n", "1", "--order", "90"],  # degree 2 * 90 + 2 = 182
], ids=["chsc_n1", "quartic_n2", "huge_degree", "spec_file", "chsc_check"])
def test_geometry_guard_refuses_before_a_preset_or_geometry(tmp_path, monkeypatch, capsys, argv):
    # one step above GEOMETRY_MONOMIAL_LIMIT: C(3n + D - 1, 3n) (x, y, theta) monomials
    built = []
    for owner, name in ((potential, "preset_chsc"), (potential, "preset_quartic"),
                        (cli, "build_geometry"), (cli, "verdict_record")):
        monkeypatch.setattr(owner, name, lambda *args, name=name: built.append(name))
    coeffs = {((1,), (1,)): 1, ((2,), (2,)): Fraction(-1, 2)}
    write_spec(potential.PotentialSpec(1, 181, 0.3, coeffs), tmp_path / "spec.json")
    argv = [str(tmp_path / item) if item.endswith(".json") else item for item in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert built == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: resource guard")


def test_geometry_guard_admits_its_limit(monkeypatch):
    # n=1 at D=180 passes the guard and reaches the preset, which stops the run
    built = []

    def preset_chsc(*args):
        built.append(args)
        raise RuntimeError("reached the preset")

    monkeypatch.setattr(potential, "preset_chsc", preset_chsc)
    assert main(["coeffs", "--preset", "chsc", "--n", "1", "--degree", "180", "--order", "1",
                 "--out", "unused"]) == 3
    assert [args[2] for args in built] == [180]


def test_nan_contour_samples_fail_the_check():
    # the command line refuses a NaN delta, so the NaN-sample path is reached directly
    spec = make_preset("chsc", 1, 6)
    report = check_good_contour(spec, polarize(spec), delta=float("nan"))
    assert math.isnan(report.max_excess) and not report.passed


def test_closed_form_curvature_below_float_range_is_flat(tmp_path):
    argv = ["asymptotics", "--closed-form", "--preset", "chsc", "--x", "0.01", "--y", "0.02"]
    assert main(argv + ["--param", "1e-400", "--out", str(tmp_path / "tiny")]) == 0
    assert main(argv + ["--param", "0", "--out", str(tmp_path / "flat")]) == 0
    tiny = read_json(tmp_path / "tiny" / "asymptotics.json")["fit"]
    assert tiny == read_json(tmp_path / "flat" / "asymptotics.json")["fit"]
