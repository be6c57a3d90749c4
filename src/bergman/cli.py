"""Command line surface: spec ingestion, pipeline orchestration, report files.

Subcommands: ``polarize``, ``coeffs``, ``eval``, ``asymptotics``, ``growth``,
``chsc-check``.  Every report is JSON with sorted keys (plus CSV for plotting
data), embeds the schema version, the potential's hash and the knobs that
produced it, and contains no timestamps, so re-running a command with the
same configuration writes byte-identical files.

Exit codes: 0 when every verdict in the run passed, 1 when a verdict failed,
2 for invalid input (malformed arguments, spec files or coefficient tables,
a table of another dimension than the spec, a table with too few positive
orders for a growth fit, spec validation, missing or
unreadable files, an ``--out`` that cannot be written, evaluation points or a
norm radius outside the spec's radius, a closed-form pair off the model's
domain, a truncation scan's ``--C`` outside [1/k, k], insufficient degree,
requests over a resource guard, values whose floating-point image overflows
in a numeric step), and 3 for an unexpected internal error, reported as one
``internal error:`` line on stderr instead of a traceback.  A failed transport
cross-check names the first differing term in ``crosscheck.json``.  An option's
value may start with ``-`` as an argument of its own (``--param -1/2``).
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import re
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

from .chsc import chsc_coefficients, require_chsc_order, verdict_record
from .coefficients import (
    CoefficientTable,
    amplitude_from_b,
    bergman_coefficients,
    derivative_norm_table,
    required_geometry_degree,
)
from .growth import (
    exp_factorial_bound_check,
    fit_growth,
    truncation_minimizer,
    worst_case_norm_table,
)
from .kernel import (
    choose_truncation_order,
    eval_KN,
    log_asymptotic_fit,
    make_chsc_closed_evaluator,
    make_series_evaluator,
    scaling_fit,
)
from .potential import (
    DegreeBudgetError,
    PotentialSpec,
    RadiusError,
    ResourceGuardError,
    SpecValidationError,
    build_geometry,
    check_good_contour,
    in_eval_radius,
    make_preset,
    require_geometry_size,
)
from .series import TruncatedSeries, grlex_key
from .transport import reconstruct_coefficients, transport_chain

SCHEMA_VERSION = 1


def _write_report(path: Path, command: str, **fields) -> None:
    """Write one JSON report stamped with the schema version and command.

    ``fields`` holds the rest of the report, including ``config`` and
    ``spec_sha256`` for the reports that carry them.  Keys are sorted and
    nothing run-dependent is added, so re-runs write identical bytes.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    report = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    with open(path, "w") as fh:  # one write call; json.dump makes one per token
        fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, rows: list, fieldnames: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _int_at_least(minimum: int):
    """argparse type: an integer >= ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}: {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _finite_float(text: str) -> float:
    """argparse type: a finite number (not inf or nan)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number: {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0."""
    if (value := _finite_float(text)) <= 0:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0: {text!r}")
    return value


def _positive_float_list(text: str) -> str:
    """argparse type: comma separated finite numbers > 0, kept as written."""
    for part in text.split(","):
        _positive_float(part)
    return text


def _rational(text: str) -> str:
    """argparse type: an exact rational such as 1, -1 or 1/10, kept as written."""
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None
    return text


def _k_grid(text: str) -> list:
    """argparse type: comma separated integers >= 1, at least two distinct, such as 64,128,256."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma separated list of integers: {text!r}"
        ) from None
    if len(set(values)) < 2 or min(values) < 1:
        raise argparse.ArgumentTypeError(f"need at least two distinct values k >= 1: {text!r}")
    return values


def _spec_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", type=Path, help="potential spec file (JSON)")
    parser.add_argument("--preset", choices=["flat", "chsc", "quartic"])
    parser.add_argument("--n", type=_positive_int, default=1, help="dimension for presets")
    parser.add_argument(
        "--param", type=_rational, default=None,
        help="preset parameter: curvature c for chsc, weight t for quartic (exact, e.g. 1, -1, 1/10)",
    )
    parser.add_argument("--degree", type=int, default=None, help="truncation degree")
    parser.add_argument("--radius", type=float, default=None, help="evaluation radius")


def _load_spec(args) -> PotentialSpec:
    if args.spec is not None:
        spec = PotentialSpec.from_file(args.spec)
        require_geometry_size(spec.n, spec.trunc_degree)
    elif args.preset is not None:
        if args.degree is None:
            raise SpecValidationError("presets need an explicit --degree")
        require_geometry_size(args.n, args.degree)
        spec = make_preset(args.preset, args.n, args.degree, args.param, args.radius)
    else:
        raise SpecValidationError("provide either --spec or --preset")
    spec.validate()
    return spec


def _spec_config(args) -> dict:
    return {
        "spec": str(args.spec) if args.spec else None,
        "preset": args.preset,
        "n": args.n,
        "param": str(args.param) if args.param is not None else None,
        "degree": args.degree,
        "radius": args.radius,
    }


def _parse_point(text: str, n: int) -> list:
    parts = text.split(",")
    if len(parts) != n:
        raise SpecValidationError(f"point {text!r} has {len(parts)} components, expected {n}")
    try:
        point = [complex(p.strip()) for p in parts]
    except ValueError:
        raise SpecValidationError(f"point {text!r} is not a list of complex numbers") from None
    if not all(map(cmath.isfinite, point)):
        raise SpecValidationError(f"point {text!r} has a component that is not finite")
    return point


def _require_in_radius(spec: PotentialSpec, args, x: list, y: list) -> None:
    """Refuse ``--x`` or ``--y`` when it lies outside the spec's evaluation radius."""
    for option, text, pt in (("--x", args.x, x), ("--y", args.y, y)):
        if not in_eval_radius(spec, pt):
            raise SpecValidationError(
                f"{option} {text!r} lies outside the evaluation radius {spec.eval_radius}"
            )


def _load_table(coeffs: str | None, n: int) -> CoefficientTable:
    """The coefficient table in ``coeffs``, checked against the spec dimension ``n``."""
    if coeffs is None:
        raise SpecValidationError(
            "--coeffs is required: a coefficients.json from the coeffs command"
        )
    path = Path(coeffs)
    try:
        with open(path) as fh:
            table = CoefficientTable.from_record(json.load(fh)["table"])
    except KeyError as err:
        raise SpecValidationError(f"coefficient file {path} is missing the key {err}") from err
    except (TypeError, ValueError, ZeroDivisionError) as err:
        raise SpecValidationError(f"malformed coefficient file {path}: {err}") from err
    if table.n != n:
        raise SpecValidationError(
            f"coefficient file {path} is for dimension n={table.n}, but the spec has n={n}"
        )
    return table


def _first_mismatch(m: int, reconstructed: TruncatedSeries, table_b: TruncatedSeries) -> dict:
    """The first (graded lexicographic) monomial where two order-m coefficients differ."""
    keys = sorted(set(reconstructed.coeffs) | set(table_b.coeffs), key=grlex_key)
    index = next((k for k in keys if reconstructed[k] != table_b[k]), None)
    if index is None:  # equal coefficients, different truncation degrees
        return {
            "order": m,
            "trunc_degree": {
                "reconstructed": reconstructed.trunc_degree, "table": table_b.trunc_degree,
            },
        }
    return {
        "order": m,
        "index": list(index),
        "reconstructed": str(reconstructed[index]),
        "table": str(table_b[index]),
    }


# -- subcommands --------------------------------------------------------------


def cmd_polarize(args) -> int:
    spec = _load_spec(args)
    geom = build_geometry(spec)
    contour = check_good_contour(
        spec, geom.psi, samples=args.samples, delta=args.delta
    )
    out = Path(args.out)
    _write_report(
        out / "geometry.json",
        "polarize",
        config={**_spec_config(args), "samples": args.samples, "delta": args.delta},
        spec_sha256=spec.sha256(),
        spec=spec.to_record(),
        psi=geom.psi.to_record(),
        psi_x=[s.to_record() for s in geom.psi_x],
        theta=[s.to_record() for s in geom.theta],
        z_of_theta=[s.to_record() for s in geom.z_of_theta],
        delta0_xyz=geom.delta0_xyz.to_record(),
        delta0_xytheta=geom.delta0_xytheta.to_record(),
    )
    _write_report(
        out / "contour.json", "polarize", spec_sha256=spec.sha256(), report=contour.to_dict()
    )
    print(f"good contour (delta={contour.delta:g}): {'PASS' if contour.passed else 'FAIL'}")
    return 0 if contour.passed else 1


def cmd_coeffs(args) -> int:
    spec = _load_spec(args)
    geom = build_geometry(spec)
    table = amplitude_from_b(bergman_coefficients(geom, args.order), geom)
    t_order = min(args.transport_order, args.order)
    chain = transport_chain(geom, t_order)
    recon = reconstruct_coefficients(geom, chain)
    mismatches = [m for m in range(t_order + 1) if recon[m] != table.b[m]]
    ok = not mismatches
    failure = {}
    if mismatches:
        m = mismatches[0]
        failure["first_mismatch"] = _first_mismatch(m, recon[m], table.b[m])
    out = Path(args.out)
    _write_report(
        out / "coefficients.json",
        "coeffs",
        config={**_spec_config(args), "order": args.order},
        spec_sha256=spec.sha256(),
        table=table.to_record(),
    )
    _write_report(
        out / "transport.json",
        "coeffs",
        spec_sha256=spec.sha256(),
        chain=chain.to_record(),
        reconstructed_b=[s.to_record() for s in recon],
    )
    _write_report(
        out / "crosscheck.json",
        "coeffs",
        spec_sha256=spec.sha256(),
        orders_compared=t_order,
        mismatched_orders=mismatches,
        cross_check="pass" if ok else "fail",
        **failure,
    )
    print(f"transport cross-check to order {t_order}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_eval(args) -> int:
    spec = _load_spec(args)
    x = _parse_point(args.x, spec.n)
    y = _parse_point(args.y, spec.n)
    _require_in_radius(spec, args, x, y)
    table = _load_table(args.coeffs, spec.n)
    geom = build_geometry(spec)
    if table.spec_sha256 != spec.sha256():
        print("warning: coefficient file was built from a different spec", file=sys.stderr)
    clamped = False
    if args.order is not None:
        if not 0 <= args.order <= table.M:
            raise SpecValidationError(
                f"--order {args.order} is outside the coefficient table's orders 0..{table.M}"
            )
        order = args.order
    else:
        order = choose_truncation_order(args.k, args.C, table.M)
        clamped = order < choose_truncation_order(args.k, args.C, table.M + 1)
        if clamped:
            print(f"note: truncation order clamped to available M={order}", file=sys.stderr)
    report = eval_KN(geom, table, args.k, order, x, y)
    _write_report(
        Path(args.out) / "kernel_report.json",
        "eval",
        config={
            **_spec_config(args),
            "k": args.k,
            "order": args.order,
            "C": args.C,
            "x": args.x,
            "y": args.y,
        },
        spec_sha256=spec.sha256(),
        truncation_order_clamped=clamped,
        report=report.to_dict(),
    )
    print(f"K_weighted = {report.K_weighted:.12g} at k={args.k}, N={order}")
    return 0


def cmd_asymptotics(args) -> int:
    if args.closed_form and args.preset != "chsc":
        raise SpecValidationError("--closed-form is only available for the chsc preset")
    spec = None if args.closed_form else _load_spec(args)
    n = args.n if spec is None else spec.n
    # both points before the table and the geometry, so a bad point fails fast
    x, y = _parse_point(args.x, n), _parse_point(args.y, n)
    if spec is None:
        require_chsc_order(n, n)  # before the model, whose Hessian check is O(n^3)
        c = Fraction(args.param if args.param is not None else 1)
        # the model at the least degree, for its radius: --radius, or the preset's own
        model = make_preset("chsc", n, 2, c, args.radius)
        model.validate()
        _require_in_radius(model, args, x, y)
        if any(1 + c * Fraction(sum(abs(v) ** 2 for v in p)) <= 0 for p in (x, y)):
            raise SpecValidationError("--x or --y lies off the model's domain 1 + c|p|^2 > 0")
        evaluator = make_chsc_closed_evaluator(n, c, N=n)
    else:
        table = _load_table(args.coeffs, n)
        evaluator = make_series_evaluator(build_geometry(spec), table)
    if args.mode == "log":
        fit = log_asymptotic_fit(evaluator, args.k_grid, (x, y))
    else:
        fit = scaling_fit(evaluator, n, args.k_grid, x, y)
    if fit.all_zero:
        passed = True
    else:
        passed = fit.slope is not None and fit.slope <= args.max_slope
    out = Path(args.out)
    _write_report(
        out / "asymptotics.json",
        "asymptotics",
        config={
            **_spec_config(args),
            "mode": args.mode,
            "k_grid": args.k_grid,
            "x": args.x,
            "y": args.y,
            "closed_form": args.closed_form,
            "max_slope": args.max_slope,
        },
        spec_sha256=None if spec is None else spec.sha256(),
        fit=fit.to_dict(),
        verdict="pass" if passed else "fail",
    )
    _write_csv(
        out / "asymptotics.csv",
        [{"k": k, "residual": r} for k, r in zip(fit.ks, fit.residuals)],
        ["k", "residual"],
    )
    slope_text = "exact zero" if fit.all_zero else f"slope {fit.slope:.4f}"
    print(f"{args.mode} asymptotics: {slope_text}: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def cmd_growth(args) -> int:
    out = Path(args.out)
    if args.task == "fit":
        spec = _load_spec(args)
        table = _load_table(args.coeffs, spec.n)
        geom = build_geometry(spec)
        norms = derivative_norm_table(
            table, geom, args.norm_radius, args.grid, xi_max=args.xi_max
        )
        try:
            fit = fit_growth(norms, model=args.model)
        except ValueError as err:  # too few positive orders: argparse admits only known models
            raise SpecValidationError(f"{err}; {args.coeffs} holds orders 1..{norms.M}") from None
        _write_report(
            out / "growth_fit.json",
            "growth",
            config={
                **_spec_config(args),
                "task": "fit",
                "norm_radius": args.norm_radius,
                "grid": args.grid,
                "xi_max": args.xi_max,
                "model": args.model,
            },
            spec_sha256=spec.sha256(),
            fit=fit.to_dict(),
        )
        _write_csv(
            out / "norms.csv",
            norms.csv_rows(),
            ["m", "xi", "norm", "normalized", "radius", "grid"],
        )
        ok = fit.verdict.startswith(("pass", "vanishing"))
        print(f"growth fit ({args.model}): {fit.verdict}")
        return 0 if ok else 1
    if args.task == "worst-case":
        table = worst_case_norm_table(args.n, args.order, args.kmax)
        rows = []
        ok = True
        for (m, k), value in sorted(table.items()):
            bound = factorial(2 * m - 2 + k) if m >= 1 else None
            ratio = None if not bound else float(value / bound)
            if m >= 1 and value < bound:
                ok = False
            rows.append(
                {
                    "m": m,
                    "k": k,
                    "value": str(value),
                    "lower_bound": str(bound) if bound else "",
                    "ratio": ratio if ratio is not None else "",
                }
            )
        zero_ok = all(
            table[(m, 0)] >= Fraction(1, 4**m) * factorial(m) ** 2
            for m in range(1, args.order + 1)
        )
        ok = ok and zero_ok
        _write_report(
            out / "worst_case.json",
            "growth",
            config={"task": "worst-case", "n": args.n, "order": args.order, "kmax": args.kmax},
            directional_bound="pass" if ok else "fail",
            verdict="pass" if ok else "fail",
        )
        _write_csv(out / "worst_case.csv", rows, ["m", "k", "value", "lower_bound", "ratio"])
        print(f"worst-case lower bounds: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    if args.task == "truncation":
        # the scan runs m = 1..k and checks Stirling's bound at m = floor(sqrt(k/C))
        if not 1 <= math.sqrt(args.k / args.C) <= args.k:
            raise SpecValidationError(
                f"--C {args.C} is outside [1/k, k] = [{1 / args.k:g}, {args.k}] for"
                f" --k {args.k}: the truncation scan needs 1 <= sqrt(k/C) <= k"
            )
        scan = truncation_minimizer(args.C, args.k)
        ok = scan.unimodal and scan.within_one_of_target and scan.stirling_bound_ok
        _write_report(
            out / "truncation.json",
            "growth",
            config={"task": "truncation", "C": args.C, "k": args.k},
            scan=scan.to_dict(),
            verdict="pass" if ok else "fail",
        )
        print(f"truncation scan: argmin={scan.argmin}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    # lemma sweep
    sweep = exp_factorial_bound_check(
        deltas=tuple(float(d) for d in args.deltas.split(",")),
        n_max=args.n_max,
        k_max=args.k_max,
    )
    _write_report(
        out / "lemma_sweep.json",
        "growth",
        config={
            "task": "lemma",
            "deltas": args.deltas,
            "n_max": args.n_max,
            "k_max": args.k_max,
        },
        sweep=sweep.to_dict(),
        verdict="pass" if sweep.passed else "fail",
    )
    print(f"exponential-factorial sweep: {'PASS' if sweep.passed else 'FAIL'}")
    return 0 if sweep.passed else 1


def cmd_chsc_check(args) -> int:
    c = Fraction(args.param)
    order = args.n + 2 if args.order is None else args.order
    degree = max(required_geometry_degree(order), 4)
    require_geometry_size(args.n, degree)
    record = verdict_record(args.n, c, order)
    geom = build_geometry(make_preset("chsc", args.n, degree, c))
    table = bergman_coefficients(geom, order)
    closed = chsc_coefficients(args.n, c, order)
    cross_ok = True
    for m in range(order + 1):
        series = table.b[m]
        if len(series.coeffs) > 1 or series.constant_term != closed[m]:
            cross_ok = False
    record["cross_check_vs_bbs"] = "pass" if cross_ok else "fail"
    ok = cross_ok and record["polynomial_check"] == "pass"
    _write_report(
        Path(args.out) / "chsc_check.json",
        "chsc-check",
        config={"n": args.n, "c": str(c), "order": order, "degree": degree},
        result=record,
        verdict="pass" if ok else "fail",
    )
    print(
        f"chsc n={args.n} c={c}: polynomial {record['polynomial_check']}, "
        f"recursion cross-check {record['cross_check_vs_bbs']}"
    )
    return 0 if ok else 1


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bergman",
        description="Bergman kernel coefficient engine: geometry, coefficients, asymptotics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polarize", help="build and store the series geometry")
    _spec_options(p)
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--delta", type=_positive_float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_polarize)

    p = sub.add_parser("coeffs", help="coefficients by both methods plus cross-check")
    _spec_options(p)
    p.add_argument("--order", type=_non_negative_int, required=True, help="highest order M")
    p.add_argument("--transport-order", type=_non_negative_int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate the order-N kernel at one pair")
    _spec_options(p)
    p.add_argument("--coeffs", required=True, help="coefficients.json from the coeffs command")
    p.add_argument("--k", type=_positive_int, required=True)
    p.add_argument("--order", type=int, default=None, help="fixed order N (default: from C)")
    p.add_argument("--C", type=_positive_float, default=1.0, help="constant in N0(k) = sqrt(k/C)")
    p.add_argument("--x", required=True, help="comma separated complex components")
    p.add_argument("--y", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("asymptotics", help="decay-law residual fits over a k grid")
    _spec_options(p)
    p.add_argument("--mode", choices=["log", "scaling"], default="log")
    p.add_argument("--coeffs", default=None)
    p.add_argument("--closed-form", action="store_true")
    p.add_argument("--k-grid", type=_k_grid, default="64,128,256,512,1024,2048,4096")
    p.add_argument("--x", required=True, help="pair point (u for scaling mode)")
    p.add_argument("--y", required=True, help="pair point (v for scaling mode)")
    p.add_argument("--max-slope", type=_finite_float, default=-1.8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_asymptotics)

    p = sub.add_parser("growth", help="growth fits, worst-case table, truncation rules")
    _spec_options(p)
    p.add_argument("--task", choices=["fit", "worst-case", "truncation", "lemma"], required=True)
    p.add_argument("--coeffs", default=None)
    p.add_argument("--norm-radius", type=_positive_float, default=0.1)
    p.add_argument("--grid", type=_int_at_least(2), default=5)
    p.add_argument("--xi-max", type=_non_negative_int, default=0)
    p.add_argument("--model", choices=["m_factorial_sq", "m_factorial"], default="m_factorial_sq")
    p.add_argument("--order", type=_non_negative_int, default=4, help="M for the worst-case task")
    p.add_argument("--kmax", type=_non_negative_int, default=4)
    p.add_argument("--C", type=_positive_float, default=1.0)
    p.add_argument("--k", type=_positive_int, default=100)
    p.add_argument("--deltas", type=_positive_float_list, default="0.1,0.5,1,2")
    p.add_argument("--n-max", type=_non_negative_int, default=20)
    p.add_argument("--k-max", type=_positive_int, default=10000)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("chsc-check", help="closed-form curvature family verdicts")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--param", type=_rational, default="1", help="curvature c (exact rational)")
    p.add_argument("--order", type=_non_negative_int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_chsc_check)

    return parser


def _join_negative_values(argv: list) -> list:
    """``--option -1/2`` as ``--option=-1/2``: argparse takes an argument that starts with
    ``-`` for an option unless it is a plain number, so a value that starts with ``-`` and
    a digit or a ``.`` is joined to the option before it."""
    out = []
    for arg in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and re.match(r"-[\d.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except DegreeBudgetError as err:
        print(f"error: {err} (required degree {err.required_degree})", file=sys.stderr)
        return 2
    except (SpecValidationError, OSError, ResourceGuardError, RadiusError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OverflowError as err:
        # exact arithmetic never overflows; only a float image of the input can
        print(f"error: input out of floating-point range: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        message = " ".join(str(err).split())
        print(f"internal error: {type(err).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
