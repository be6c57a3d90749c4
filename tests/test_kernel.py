"""Kernel evaluation against the exact model kernels, and the decay fits."""

import cmath
import gc
import json
import math
import random
import weakref
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman.chsc import chsc_coefficients, chsc_psi
from bergman.coefficients import bergman_coefficients
from bergman.kernel import (
    PairEvaluator,
    _fit,
    choose_truncation_order,
    eval_KN,
    eval_KN_chsc_closed,
    log_asymptotic_fit,
    make_chsc_closed_evaluator,
    make_series_evaluator,
    scaling_fit,
)
from bergman.potential import (
    RadiusError,
    build_geometry,
    in_eval_radius,
    preset_chsc,
    preset_flat,
    preset_quartic,
)
from bergman.series import TruncatedSeries, sub_indices, unit
from oracles import cpn_kernel, flat_kernel

F = Fraction
K_GRID = (64, 128, 256, 512, 1024, 2048, 4096)  # the CLI's default k grid


def multi_binomial(upper, lower):
    """Componentwise product of binomial coefficients."""
    out = 1
    for u, l in zip(upper, lower):
        out *= comb(u, l)
    return out


def eval_KN_derivative(geom, table, k, N, x, y, alpha):
    """Derivative D^alpha of the order-N kernel approximation at (x, y).

    ``alpha`` is a multi-index over the 2n holomorphic slots (x-block, then
    the conjugate-y block; the kernel is antiholomorphic in y, so y
    derivatives act through conj(y)).  Exponential derivatives follow the
    recursion ``T_{b+e_i} = D_i T_b + k (D_i psi) T_b`` with
    ``T_b = e^{-k psi} D^b e^{k psi}``, everything by series differentiation.
    Ungated variant: no sharp numeric target, finite differences are the
    test oracle.
    """
    n = geom.n
    alpha = tuple(alpha)
    if len(alpha) != 2 * n or any(e < 0 for e in alpha):
        raise ValueError(f"bad derivative multi-index {alpha}")
    if N > table.M:
        raise ValueError(f"order {N} exceeds the computed table order {table.M}")
    psi = geom.psi
    D = psi.trunc_degree
    psi_grad = [psi.diff(unit(2 * n, i)) for i in range(2 * n)]
    amp_degree = min([table.b[j].trunc_degree for j in range(1, N + 1)], default=D)
    amp = TruncatedSeries.one(2 * n, amp_degree)
    for j in range(1, N + 1):
        amp = amp + table.b[j].truncate(amp_degree) * Fraction(1, k**j)

    exp_factors: dict = {(0,) * (2 * n): TruncatedSeries.one(2 * n, D)}

    def exp_factor(beta):
        hit = exp_factors.get(beta)
        if hit is not None:
            return hit
        i = max(j for j, e in enumerate(beta) if e > 0)
        lower = beta[:i] + (beta[i] - 1,) + beta[i + 1 :]
        t = exp_factor(lower)
        out_D = t.trunc_degree - 1
        step = t.diff(unit(2 * n, i))
        mixed = (psi_grad[i].truncate(out_D) * t.truncate(out_D)) * k
        result = step + mixed
        exp_factors[beta] = result
        return result

    point = list(complex(v) for v in x) + [complex(v).conjugate() for v in y]
    total = 0j
    for beta in sub_indices(alpha):
        rest = tuple(a - b for a, b in zip(alpha, beta))
        t = exp_factor(beta)
        db = amp.diff(rest)
        out_D = min(t.trunc_degree, db.trunc_degree)
        piece = t.truncate(out_D) * db.truncate(out_D)
        total += multi_binomial(alpha, beta) * piece.eval(point)
    psi_xy = psi.eval(point)
    return (k / math.pi) ** n * cmath.exp(k * psi_xy) * total


@pytest.fixture(scope="module")
def chsc_series():
    geom = build_geometry(preset_chsc(1, 1, 20))
    table = bergman_coefficients(geom, 3)
    return geom, table


@pytest.fixture(scope="module")
def quartic_series():
    geom = build_geometry(preset_quartic(1, F(1, 10), 12))
    table = bergman_coefficients(geom, 3)
    return geom, table


class TestTruncationOrder:
    def test_examples(self):
        assert choose_truncation_order(100, 1.0) == 10
        assert choose_truncation_order(1, 4.0) == 0
        assert choose_truncation_order(50, 2.0) == 5

    def test_clamp(self):
        assert choose_truncation_order(100, 1.0, max_order=3) == 3

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10**12),
        st.floats(1e-6, 1e6),
        st.one_of(st.none(), st.integers(0, 50)),
    )
    def test_floor_sqrt_contract(self, k, C, max_order):
        n0 = choose_truncation_order(k, C)
        assert n0 * n0 <= k / C < (n0 + 1) * (n0 + 1)
        want = n0 if max_order is None else min(n0, max_order)
        assert choose_truncation_order(k, C, max_order) == want

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            choose_truncation_order(0, 1.0)

    @pytest.mark.parametrize("C", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_constant(self, C):
        with pytest.raises(ValueError, match="finite C > 0"):
            choose_truncation_order(100, C)


class TestEvalAgainstModels:
    def test_flat_exact_any_order(self):
        geom = build_geometry(preset_flat(1, 8))
        table = bergman_coefficients(geom, 2)
        for N in (0, 1, 2):
            rep = eval_KN(geom, table, 15, N, [0.2 + 0.1j], [0.1 - 0.05j])
            oracle = flat_kernel(1, 15, [0.2 + 0.1j], [0.1 - 0.05j])
            assert abs(rep.K_val - oracle) <= 1e-10 * abs(oracle)

    def test_chsc_closed_form_matches_cpn(self):
        for k in (10, 20, 50):
            for x, y in [([0.2], [0.1]), ([0.15 + 0.1j], [0.1 - 0.05j]), ([0.0], [0.2])]:
                rep = eval_KN_chsc_closed(1, 1, k, 1, x, y)
                oracle = cpn_kernel(1, k, x, y)
                assert abs(rep.K_val - oracle) <= 1e-12 * abs(oracle)

    @pytest.mark.parametrize("n,c", [(1, 1), (2, F(-1, 3)), (2, 0)])
    def test_chsc_closed_float_conversions_once_are_bit_identical(self, n, c):
        # the constants and c go to float once per evaluator; every report
        # equals the one built from per-call conversions of the exact values
        def psi_fn(px, zbar):
            w = sum(complex(a) * complex(b) for a, b in zip(px, zbar))
            return w if c == 0 else cmath.log(1 + float(F(c)) * w) / float(F(c))

        def b_fn(j, px, zbar):
            return complex(float(chsc_coefficients(n, c, 3)[j]))

        x, y = [0.02 + 0.01j] * n, [0.015 - 0.005j] * n
        run = make_chsc_closed_evaluator(n, c, N=3)
        for k in (64, 1024, 4096):
            want = PairEvaluator(n, 3, psi_fn, b_fn)(k, x, y).to_dict()
            assert run(k, x, y).to_dict() == want
            assert eval_KN_chsc_closed(n, c, k, 3, x, y).to_dict() == want

    def test_chsc_series_matches_cpn(self, chsc_series):
        geom, table = chsc_series
        for k in (10, 20, 50):
            rep = eval_KN(geom, table, k, 2, [0.2], [0.15 + 0.05j])
            oracle = cpn_kernel(1, k, [0.2], [0.15 + 0.05j])
            assert abs(rep.K_val - oracle) <= 1e-4 * abs(oracle)

    def test_on_diagonal_weighted_value(self, chsc_series):
        geom, table = chsc_series
        x = [0.1 + 0.1j]
        rep = eval_KN(geom, table, 25, 1, x, x)
        # against the exact on-diagonal kernel of the projective model
        oracle = abs(cpn_kernel(1, 25, x, x)) * math.exp(-25 * math.log(1 + abs(x[0]) ** 2))
        assert rep.K_weighted == pytest.approx(oracle, rel=1e-6)
        assert rep.diastasis == pytest.approx(0.0, abs=1e-14)

    def test_hermitian_symmetry(self, quartic_series):
        geom, table = quartic_series
        x, y = [0.15 + 0.07j], [0.05 - 0.1j]
        a = eval_KN(geom, table, 30, 3, x, y)
        b = eval_KN(geom, table, 30, 3, y, x)
        assert abs(a.K_val - b.K_val.conjugate()) <= 1e-10 * abs(a.K_val)

    def test_radius_guard(self, quartic_series):
        geom, table = quartic_series
        with pytest.raises(ValueError, match="radius"):
            eval_KN(geom, table, 10, 1, [0.9], [0.0])

    def test_a_nan_component_is_outside_the_radius(self):
        spec = preset_chsc(2, 1, 6)
        for point in ([0.1, float("nan")], [float("nan"), 0.1], [complex(0.0, float("nan")), 0.0]):
            assert not in_eval_radius(spec, point)
        assert in_eval_radius(spec, [0.1, 0.05j])

    def test_closed_form_pole_is_outside_the_domain(self):
        # 1 + c x.conj(y) = 0: the logarithm of the closed form has its pole there
        with pytest.raises(RadiusError, match="domain"):
            chsc_psi(4)([0.5], [-0.5])
        with pytest.raises(RadiusError, match="domain"):
            eval_KN_chsc_closed(1, 4, 10, 1, [0.5], [-0.5])

    def test_closed_form_evaluator_cache_is_shared(self):
        n = 2
        run = make_chsc_closed_evaluator(n, 1, N=2)
        assert make_chsc_closed_evaluator(n, Fraction(1), N=2) is run
        hits = make_chsc_closed_evaluator.cache_info().hits
        eval_KN_chsc_closed(n, Fraction(1), 64, 2, [0.01, 0.02], [0.03, 0.0])
        assert make_chsc_closed_evaluator.cache_info().hits == hits + 1

    def test_closed_form_evaluator_takes_N_by_keyword_only(self):
        # a positional N would be a second cache entry for the same evaluator
        with pytest.raises(TypeError):
            make_chsc_closed_evaluator(1, 1, 2)

    def test_order_guard(self, quartic_series):
        geom, table = quartic_series
        with pytest.raises(ValueError, match="order"):
            eval_KN(geom, table, 10, 9, [0.1], [0.0])

    def test_monotone_budget(self, chsc_series):
        geom, table = chsc_series
        ks = (10, 25, 50)
        pts = [([0.1], [0.05]), ([0.15], [0.12 + 0.03j])]
        for k in ks:
            n0 = choose_truncation_order(k, 1.0, table.M)
            for x, y in pts:
                oracle = cpn_kernel(1, k, x, y)
                errs = []
                for N in range(n0 + 1):
                    rep = eval_KN(geom, table, k, N, x, y)
                    errs.append(abs(rep.K_val - oracle) / abs(oracle))
                for lo, hi in zip(errs[1:], errs[:-1]):
                    assert lo <= hi + 1e-15


class TestDerivatives:
    """Finite differences are the oracle for the derivative variant."""

    def test_first_order_both_slots(self, quartic_series):
        geom, table = quartic_series
        x, y, k, N = [0.12 + 0.03j], [0.08 - 0.05j], 30, 3
        h = 1e-5
        d = eval_KN_derivative(geom, table, k, N, x, y, (1, 0))
        fd = (
            eval_KN(geom, table, k, N, [x[0] + h], y).K_val
            - eval_KN(geom, table, k, N, [x[0] - h], y).K_val
        ) / (2 * h)
        assert abs(d - fd) <= 1e-4 * abs(d)
        d = eval_KN_derivative(geom, table, k, N, x, y, (0, 1))
        fd = (
            eval_KN(geom, table, k, N, x, [y[0] + h]).K_val
            - eval_KN(geom, table, k, N, x, [y[0] - h]).K_val
        ) / (2 * h)
        assert abs(d - fd) <= 1e-4 * abs(d)

    def test_mixed_second_order(self, quartic_series):
        geom, table = quartic_series
        x, y, k, N = [0.12 + 0.03j], [0.08 - 0.05j], 30, 3
        h = 1e-5
        d = eval_KN_derivative(geom, table, k, N, x, y, (1, 1))
        vals = {}
        for sx in (1, -1):
            for sy in (1, -1):
                vals[(sx, sy)] = eval_KN(
                    geom, table, k, N, [x[0] + sx * h], [y[0] + sy * h]
                ).K_val
        fd = (vals[(1, 1)] - vals[(1, -1)] - vals[(-1, 1)] + vals[(-1, -1)]) / (4 * h * h)
        assert abs(d - fd) <= 1e-4 * abs(d)

    def test_zero_index_is_plain_kernel(self, quartic_series):
        geom, table = quartic_series
        d = eval_KN_derivative(geom, table, 20, 2, [0.1], [0.05], (0, 0))
        rep = eval_KN(geom, table, 20, 2, [0.1], [0.05])
        assert abs(d - rep.K_val) <= 1e-10 * abs(d)


class TestLogAsymptotics:
    def test_flat_residual_exactly_zero(self):
        geom = build_geometry(preset_flat(1, 8))
        table = bergman_coefficients(geom, 2)
        fit = log_asymptotic_fit(
            make_series_evaluator(geom, table),
            [16, 64, 256],
            ([0.2], [0.1 + 0.05j]),
        )
        assert fit.all_zero

    def test_chsc_closed_residual_value(self):
        rep = eval_KN_chsc_closed(1, 1, 64, 1, [0.1], [0.05])
        assert rep.log_residual == pytest.approx(math.log(1 + 1 / 64) / 64, rel=1e-9)

    def test_residual_matches_assembled_law(self, quartic_series):
        # the reduced form must agree with the literal left minus right
        geom, table = quartic_series
        rep = eval_KN(geom, table, 128, 3, [0.12], [0.08 + 0.04j])
        assembled = (
            rep.log_K_weighted / rep.k
            + rep.diastasis / 2.0
            - math.log(rep.k) / rep.k
            + math.log(math.pi) / rep.k
        )
        assert rep.log_residual == pytest.approx(assembled, abs=1e-15)

    def test_chsc_closed_slope_near_minus_two(self):
        fit = log_asymptotic_fit(
            make_chsc_closed_evaluator(1, 1, N=1),
            [64, 128, 256, 512, 1024, 2048, 4096],
            ([0.1], [0.05]),
        )
        assert fit.slope == pytest.approx(-2.0, abs=0.15)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            log_asymptotic_fit(make_chsc_closed_evaluator(1, 1, N=1), [], ([0.1], [0.05]))


def exact_line(ks, residuals):
    """Exact least-squares slope and intercept through the same math.log floats as _fit."""
    xs = [F(math.log(k)) for k in ks]
    ys = [F(math.log(abs(r))) for r in residuals]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)
    return slope, my - slope * mx


def irregular_grids(count=200, seed=20240611):
    """Seeded k grids with ratios 1.2-4 between neighbours and noisy power-law residuals.

    The slopes stay in the decay laws' range, away from 0: near a zero slope
    the centred sum cancels and no float formula keeps a relative bound.
    """
    rng = random.Random(seed)
    for _ in range(count):
        ks = [rng.randint(2, 100)]
        for _ in range(rng.randint(1, 11)):
            ks.append(max(ks[-1] + 1, round(ks[-1] * rng.uniform(1.2, 4.0))))
        slope, intercept = rng.uniform(-3, -0.2), rng.uniform(-20, 20)
        yield ks, [math.exp(slope * math.log(k) + intercept + rng.gauss(0, 0.05)) for k in ks]


class TestFit:
    def test_fit_matches_the_exact_least_squares_line(self):
        rng = random.Random(7)
        on_k_grid = [(K_GRID, [k ** -2.0 * (1 + rng.uniform(-0.5, 0.5)) for k in K_GRID])
                     for _ in range(20)]
        for ks, residuals in on_k_grid + list(irregular_grids()):
            fit = _fit(ks, residuals)
            slope, intercept = exact_line(ks, residuals)
            assert abs(F(fit.slope) - slope) <= F(1e-15) * abs(slope)
            assert abs(F(fit.intercept) - intercept) <= F(1e-13) * max(abs(intercept), 1)

    def test_one_distinct_k_is_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            _fit([64, 64], [1e-3, 2e-3])

    def test_a_nan_residual_makes_the_slope_nan(self):
        # a NaN is not a zero: it stays in the fit, so no slope verdict can pass
        nan = float("nan")
        for residuals in ([1e-3, nan, 2e-5], [nan] * 3, [0.0, nan, 1e-5]):
            fit = _fit([64, 256, 1024], residuals)
            assert not fit.all_zero
            assert math.isnan(fit.slope)


class TestScaling:
    def test_flat_residual_negligible(self):
        geom = build_geometry(preset_flat(1, 8))
        table = bergman_coefficients(geom, 1)
        fit = scaling_fit(
            make_series_evaluator(geom, table), 1, [256, 1024], [0.1], [0.05]
        )
        # exact cancellation up to float roundoff in the assembled pieces
        assert all(abs(r) <= 1e-12 for r in fit.residuals)

    def test_equal_points_reduce_to_amplitude(self):
        # u = v kills the separation term; the residual is the amplitude log
        fit = scaling_fit(
            make_chsc_closed_evaluator(1, 1, N=1), 1, [256, 1024], [0.1], [0.1]
        )
        for k, got in zip(fit.ks, fit.residuals):
            rep = eval_KN_chsc_closed(
                1, 1, k, 1, [0.1 * k**-0.25], [0.1 * k**-0.25]
            )
            want = rep.log_K_weighted / math.sqrt(k) - (
                math.log(k) - math.log(math.pi)
            ) / math.sqrt(k)
            assert got == pytest.approx(want, rel=1e-12)

    def test_chsc_scaled_slope(self):
        fit = scaling_fit(
            make_chsc_closed_evaluator(1, 1, N=1),
            1,
            [256, 512, 1024, 2048, 4096],
            [0.1],
            [0.05],
        )
        assert fit.slope is not None and fit.slope <= -1.35


def bits(report):
    """A report's record as text: == on floats would equate 0.0 and -0.0."""
    return json.dumps(report.to_dict())


def fresh_series_report(geom, table, k, N, x, y):
    def psi_fn(px, zbar):
        return geom.psi.eval(list(px) + list(zbar))

    def b_fn(j, px, zbar):
        return table.b[j].eval(list(px) + list(zbar))

    return PairEvaluator(geom.n, N, psi_fn, b_fn)(k, x, y)


def fresh_closed_report(n, c, k, N, x, y):
    consts = chsc_coefficients(n, c, N)
    return PairEvaluator(n, N, chsc_psi(c), lambda j, px, zbar: complex(float(consts[j])))(k, x, y)


class TestPointSlot:
    """Point values reused across k give the reports fresh closures give, bit for bit."""

    N_DIM, C, M = 2, F(-1, 3), 3
    PAIR_A = ([0.02 + 0.01j, -0.01j], [0.015 - 0.005j, 0.01])
    PAIR_B = ([0.01, 0.03 - 0.02j], [-0.02 + 0.01j, 0.005j])
    # equal to each other under ==, but not bit for bit
    PAIR_ZERO = ([0.0, 0.01], [0.02, complex(0.0, 0.0)])
    PAIR_NEG_ZERO = ([-0.0, 0.01], [0.02, complex(-0.0, -0.0)])

    @pytest.fixture(scope="class")
    def chsc2(self):
        geom = build_geometry(preset_chsc(self.N_DIM, self.C, 8))
        return geom, bergman_coefficients(geom, self.M)

    def check_every_path(self, geom, table, x, y):
        n, c, M = self.N_DIM, self.C, self.M
        series = make_series_evaluator(geom, table)
        closed = make_chsc_closed_evaluator(n, c, N=M)
        for k in K_GRID:
            want = bits(fresh_series_report(geom, table, k, M, x, y))
            assert bits(eval_KN(geom, table, k, M, x, y)) == want
            assert bits(series(k, x, y)) == want
            want = bits(fresh_closed_report(n, c, k, M, x, y))
            assert bits(eval_KN_chsc_closed(n, c, k, M, x, y)) == want
            assert bits(closed(k, x, y)) == want

    def test_pair_a_then_b_then_a(self, chsc2):
        for x, y in (self.PAIR_A, self.PAIR_B, self.PAIR_A):
            self.check_every_path(*chsc2, x, y)

    def test_signed_zeros_are_another_pair(self, chsc2):
        assert self.PAIR_ZERO == self.PAIR_NEG_ZERO
        for x, y in (self.PAIR_ZERO, self.PAIR_NEG_ZERO, self.PAIR_ZERO):
            self.check_every_path(*chsc2, x, y)

    def test_order_below_the_table(self, chsc2):
        geom, table = chsc2
        x, y = self.PAIR_A
        for N in (1, self.M, 0, 1):
            for k in K_GRID:
                want = bits(fresh_series_report(geom, table, k, N, x, y))
                assert bits(eval_KN(geom, table, k, N, x, y)) == want
                want = bits(fresh_closed_report(self.N_DIM, self.C, k, N, x, y))
                assert bits(eval_KN_chsc_closed(self.N_DIM, self.C, k, N, x, y)) == want

    def test_two_geometries_at_one_pair(self, chsc2):
        geom, table = chsc2
        other = build_geometry(preset_chsc(self.N_DIM, F(1, 2), 8))
        other_table = bergman_coefficients(other, self.M)
        x, y = self.PAIR_B
        # each geometry with its own table, then both with one table
        cases = [(geom, table), (other, other_table), (geom, table), (other, table), (geom, table)]
        for g, t in cases:
            for k in K_GRID:
                assert bits(eval_KN(g, t, k, self.M, x, y)) == bits(
                    fresh_series_report(g, t, k, self.M, x, y)
                )

    def test_switching_the_table_alone(self, chsc2):
        geom, table = chsc2
        other = build_geometry(preset_chsc(self.N_DIM, F(1, 2), 8))
        other_table = bergman_coefficients(other, self.M)
        x, y = self.PAIR_A
        for t in (table, other_table, table):
            for k in K_GRID:
                assert bits(eval_KN(geom, t, k, self.M, x, y)) == bits(
                    fresh_series_report(geom, t, k, self.M, x, y)
                )

    def test_collected_geometry_and_table_are_not_read(self):
        # the slot keeps neither alive, and a dead weak reference never matches,
        # even where the new objects reuse the old ids
        spec, (x, y) = preset_chsc(self.N_DIM, self.C, 8), self.PAIR_A
        geom = build_geometry(spec)
        table = bergman_coefficients(geom, self.M)
        eval_KN(geom, table, 64, self.M, x, y)
        refs = weakref.ref(geom), weakref.ref(table)
        del geom, table
        gc.collect()
        assert [r() for r in refs] == [None, None]
        geom = build_geometry(preset_chsc(self.N_DIM, F(1, 2), 8))
        table = bergman_coefficients(geom, self.M)
        for k in K_GRID:
            assert bits(eval_KN(geom, table, k, self.M, x, y)) == bits(
                fresh_series_report(geom, table, k, self.M, x, y)
            )

    def test_checks_run_after_a_valid_call(self, chsc2):
        geom, table = chsc2
        x, y = self.PAIR_A
        eval_KN(geom, table, 64, self.M, x, y)
        with pytest.raises(RadiusError):
            eval_KN(geom, table, 64, self.M, x, [0.9, 0.0])
        with pytest.raises(RadiusError):
            eval_KN(geom, table, 64, self.M, [0.9, 0.0], y)
        with pytest.raises(ValueError, match="order"):
            eval_KN(geom, table, 64, self.M + 1, x, y)
        want = bits(fresh_series_report(geom, table, 128, self.M, x, y))
        assert bits(eval_KN(geom, table, 128, self.M, x, y)) == want


class TestEvaluationCounts:
    """A sweep over k at one pair evaluates each series once."""

    @pytest.fixture
    def counted(self, monkeypatch):
        calls = []
        original = TruncatedSeries.eval

        def counting(series, point):
            calls.append(series)
            return original(series, point)

        monkeypatch.setattr(TruncatedSeries, "eval", counting)
        return calls

    @pytest.fixture
    def quartic(self):
        # a table of its own: a slot filled by another test would hide the count
        geom = build_geometry(preset_quartic(1, F(1, 10), 12))
        return geom, bergman_coefficients(geom, 3)

    def test_fixed_pair_fit_evaluates_once(self, quartic, counted):
        geom, table = quartic
        log_asymptotic_fit(make_series_evaluator(geom, table), K_GRID, ([0.1], [0.05 + 0.02j]))
        assert len(counted) == 3 + table.M

    def test_scaled_pairs_evaluate_at_every_k(self, quartic, counted):
        geom, table = quartic
        scaling_fit(make_series_evaluator(geom, table), 1, K_GRID, [0.1], [0.05])
        assert len(counted) == len(K_GRID) * (3 + table.M)
