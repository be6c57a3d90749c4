"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import time
from fractions import Fraction
from math import factorial

from bergman.chsc import ChscModel, polynomial_identity_check
from bergman.cli import main as cli_main
from bergman.coefficients import bergman_coefficients, derivative_norm_table
from bergman.growth import (
    exp_factorial_bound_check,
    fit_growth,
    truncation_minimizer,
    worst_case_norm_table,
)
from bergman.kernel import (
    eval_KN,
    eval_KN_chsc_closed,
    log_asymptotic_fit,
    make_chsc_closed_evaluator,
    make_series_evaluator,
)
from bergman.potential import build_geometry, preset_chsc, preset_flat, preset_quartic
from bergman.transport import reconstruct_coefficients, transport_chain
from oracles import cpn_kernel

F = Fraction


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    text = f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        text += f" ({detail})"
    print(text)


def test_criterion_1_chsc_closed_form_equality():
    started = time.time()
    ok = True
    detail = []
    for n in (1, 2):
        for c in (-1, 0, 1):
            geom = build_geometry(preset_chsc(n, c, 10))
            table = bergman_coefficients(geom, 4)
            values = []
            for m in range(5):
                series = table.b[m]
                if len(series.coeffs) > 1:
                    ok = False  # not a constant
                values.append(F(series.constant_term))
            if any(values[m] != 0 for m in range(n + 1, 5)):
                ok = False
            model = ChscModel(n=n, c=F(c), b=tuple(values))
            if not polynomial_identity_check(model):
                ok = False
            detail.append(f"n={n},c={c}:{[str(v) for v in values[: n + 1]]}")
    elapsed = time.time() - started
    ok = ok and elapsed < 60.0
    _verdict(1, "chsc closed-form equality (exact, <1min)", ok, f"{elapsed:.1f}s")
    assert ok, detail


def test_criterion_2_method_cross_check():
    started = time.time()
    specs = [
        preset_flat(1, 12),
        preset_chsc(1, 1, 12),
        preset_chsc(1, -1, 12),
        preset_chsc(2, 1, 12),
        preset_quartic(1, F(1, 10), 12),
    ]
    ok = True
    for spec in specs:
        geom = build_geometry(spec)
        direct = bergman_coefficients(geom, 3)
        recon = reconstruct_coefficients(geom, transport_chain(geom, 3))
        for m in range(4):
            if recon[m] != direct.b[m]:
                ok = False
    elapsed = time.time() - started
    ok = ok and elapsed < 300.0
    _verdict(2, "transport equals recursion, m <= 3 (exact, <5min)", ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_3_cpn_kernel_oracle():
    pts = [([0.2], [0.2]), ([0.1], [0.05]), ([0.15 + 0.1j], [0.1 - 0.05j]), ([0.0], [0.2])]
    worst_closed = 0.0
    for k in (10, 20, 50):
        for x, y in pts:
            rep = eval_KN_chsc_closed(1, 1, k, 1, x, y)
            oracle = cpn_kernel(1, k, x, y)
            worst_closed = max(worst_closed, abs(rep.K_val - oracle) / abs(oracle))
    geom = build_geometry(preset_chsc(1, 1, 20))
    table = bergman_coefficients(geom, 2)
    worst_series = 0.0
    for k in (10, 20, 50):
        for x, y in pts:
            rep = eval_KN(geom, table, k, 1, x, y)
            oracle = cpn_kernel(1, k, x, y)
            worst_series = max(worst_series, abs(rep.K_val - oracle) / abs(oracle))
    ok = worst_closed <= 1e-8 and worst_series <= 1e-4
    _verdict(
        3,
        "projective kernel oracle",
        ok,
        f"closed {worst_closed:.2e} <= 1e-8, series {worst_series:.2e} <= 1e-4",
    )
    assert ok


def test_criterion_4_log_decay_slopes():
    grid = [64, 128, 256, 512, 1024, 2048, 4096]
    fit_chsc = log_asymptotic_fit(
        make_chsc_closed_evaluator(1, 1, N=1), grid, ([0.1], [0.05])
    )
    geom = build_geometry(preset_quartic(1, F(1, 10), 12))
    table = bergman_coefficients(geom, 3)
    fit_quartic = log_asymptotic_fit(
        make_series_evaluator(geom, table), grid, ([0.1], [0.05])
    )
    ok = (
        fit_chsc.slope is not None
        and fit_chsc.slope <= -1.85
        and fit_quartic.slope is not None
        and fit_quartic.slope <= -1.8
    )
    _verdict(
        4,
        "logarithmic decay-law slopes",
        ok,
        f"chsc {fit_chsc.slope:.3f} <= -1.85, quartic {fit_quartic.slope:.3f} <= -1.8",
    )
    assert ok


def test_criterion_5_worst_case_lower_bounds():
    directional = worst_case_norm_table(1, 4, 4)
    ok = all(
        directional[(m, k)] >= factorial(2 * m - 2 + k)
        for m in range(1, 5)
        for k in range(5)
    )
    at_zero = worst_case_norm_table(1, 5, 0)
    ok = ok and all(
        at_zero[(m, 0)] >= F(1, 4**m) * factorial(m) ** 2 for m in range(1, 6)
    )
    _verdict(5, "worst-case lower bounds (exact integers)", ok)
    assert ok


def test_criterion_6_growth_bound_quartic():
    geom = build_geometry(preset_quartic(1, F(1, 10), 18))
    table = bergman_coefficients(geom, 8)
    norms = derivative_norm_table(table, geom, 0.1, 5)
    fit = fit_growth(norms, model="m_factorial_sq")
    ok = fit.verdict == "pass"
    _verdict(
        6,
        "factorial-squared bound covers quartic norms m <= 8",
        ok,
        f"cover C {fit.cover_C:.4f} vs prefix {fit.prefix_cover_C:.4f}",
    )
    assert ok


def test_criterion_7_truncation_rules():
    ok = True
    details = []
    for C in (1.0, 4.0):
        for k in (64, 100, 1024):
            scan = truncation_minimizer(C, k)
            if not (scan.unimodal and scan.within_one_of_target):
                ok = False
            details.append(f"C={C:g},k={k}:m*={scan.argmin}")
    sweep = exp_factorial_bound_check(deltas=(0.1, 0.5, 1.0, 2.0), n_max=20, k_max=10_000)
    ok = ok and sweep.passed
    _verdict(
        7,
        "truncation minimizer and exponential-factorial sweep",
        ok,
        "; ".join(details) + f"; sweep violations {len(sweep.violations)}",
    )
    assert ok


def _run_pipeline(out_dir) -> list:
    base = str(out_dir)
    commands = [
        ["polarize", "--preset", "chsc", "--n", "1", "--param", "1",
         "--degree", "10", "--samples", "60", "--out", base],
        ["coeffs", "--preset", "chsc", "--n", "1", "--param", "1",
         "--degree", "10", "--order", "3", "--out", base],
        ["eval", "--preset", "chsc", "--n", "1", "--param", "1", "--degree", "10",
         "--coeffs", f"{base}/coefficients.json", "--k", "25",
         "--x", "0.1", "--y", "0.05", "--out", base],
        ["asymptotics", "--preset", "chsc", "--n", "1", "--param", "1",
         "--closed-form", "--mode", "log", "--k-grid", "64,256,1024",
         "--max-slope", "-1.85", "--x", "0.1", "--y", "0.05", "--out", base],
        ["growth", "--task", "worst-case", "--n", "1", "--order", "3",
         "--kmax", "3", "--out", base],
        ["chsc-check", "--n", "1", "--param", "1", "--order", "3", "--out", base],
    ]
    codes = [cli_main(argv) for argv in commands]
    return codes


def test_criterion_8_determinism(tmp_path):
    codes_a = _run_pipeline(tmp_path / "a")
    codes_b = _run_pipeline(tmp_path / "b")
    ok = codes_a == codes_b and all(c == 0 for c in codes_a)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    compared = 0
    for name in names:
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
            ok = False
        compared += 1
    ok = ok and compared >= 9
    _verdict(8, "byte-identical pipeline re-run", ok, f"{compared} files compared")
    assert ok
