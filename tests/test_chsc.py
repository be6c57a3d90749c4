"""Closed-form curvature models and the exact model kernels."""

import math
from fractions import Fraction

import pytest

from bergman import chsc
from bergman.chsc import (
    CHSC_ORDER_LIMIT,
    ChscModel,
    chsc_coefficients,
    delta0_taylor_coeffs,
    polynomial_identity_check,
    verdict_record,
)
from bergman.coefficients import bergman_coefficients
from bergman.potential import ResourceGuardError, build_geometry, preset_chsc
from bergman.series import TruncatedSeries
import reference
from oracles import cpn_kernel, cpn_kernel_monomial_sum, flat_kernel

F = Fraction


class TestTaylorCoeffs:
    def test_dimension_one_is_exponential(self):
        a = delta0_taylor_coeffs(1, 6)
        assert a == [F(1, math.factorial(l)) for l in range(7)]

    def test_dimension_two_low_orders(self):
        # e^x (e^x - 1)/x = (1 + x + x^2/2 + ...)(1 + x/2 + x^2/6 + ...)
        a = delta0_taylor_coeffs(2, 2)
        assert a[0] == 1
        assert a[1] == F(3, 2)
        assert a[2] == F(7, 6)

    def test_leading_value_any_dimension(self):
        for n in range(1, 5):
            assert delta0_taylor_coeffs(n, 0)[0] == 1

    @pytest.mark.parametrize("n,L", [(n, 12) for n in range(1, 7)] + [(30, 30)])
    def test_closed_form_is_the_product_of_exponential_series(self, n, L):
        # e^u ((e^u - 1)/u)^(n-1) as n - 1 products taken in the reference algebra; a cut
        # below L keeps the low coefficients, so each shorter list is a prefix
        exp_u = TruncatedSeries(1, L, {(j,): F(1, math.factorial(j)) for j in range(L + 1)})
        ratio = TruncatedSeries(1, L, {(j,): F(1, math.factorial(j + 1)) for j in range(L + 1)})
        g = exp_u
        for _ in range(n - 1):
            g = reference.mul(g, ratio, L)
        want = [g.coeffs.get((j,), 0) for j in range(L + 1)]
        for cut in range(L + 1):
            assert delta0_taylor_coeffs(n, cut) == want[:cut + 1]


class TestCoefficients:
    def test_flat_limit(self):
        assert chsc_coefficients(3, 0, 4) == [1, 0, 0, 0, 0]

    def test_projective_line(self):
        assert chsc_coefficients(1, 1, 3) == [1, 1, 0, 0]

    def test_projective_plane(self):
        assert chsc_coefficients(2, 1, 4) == [1, 3, 2, 0, 0]

    def test_rescaling_consistency(self):
        for n in (1, 2, 3):
            unit = chsc_coefficients(n, 1, 5)
            for c in (F(-1), F(2), F(-1, 2)):
                scaled = chsc_coefficients(n, c, 5)
                assert scaled == [c**m * unit[m] for m in range(6)]

    def test_mutating_a_result_leaves_the_next_call_unchanged(self):
        first = chsc_coefficients(2, 1, 4)
        first[1] = F(99)
        first.append(F(7))
        assert chsc_coefficients(2, 1, 4) == [1, 3, 2, 0, 0]

    def test_equal_curvatures_give_equal_constants(self):
        results = [chsc_coefficients(2, c, 4) for c in (1, F(1), F(2, 2))]
        assert results[0] == results[1] == results[2] == [1, 3, 2, 0, 0]
        assert all(isinstance(v, F) for v in results[0])

    def test_guard_refuses_above_the_limit_before_any_constant(self, monkeypatch):
        built = []
        monkeypatch.setattr(chsc, "_chsc_constants", lambda *args: built.append(args) or (1,))
        for n, M in ((CHSC_ORDER_LIMIT + 1, 0), (1, CHSC_ORDER_LIMIT + 1)):
            with pytest.raises(ResourceGuardError, match="resource guard"):
                chsc_coefficients(n, 1, M)
            with pytest.raises(ResourceGuardError):
                ChscModel.build(n, 1, M)
        assert built == []
        chsc_coefficients(CHSC_ORDER_LIMIT, 1, CHSC_ORDER_LIMIT)  # the limit itself is admitted
        assert built == [(CHSC_ORDER_LIMIT, 1, CHSC_ORDER_LIMIT)]


class TestPolynomialIdentity:
    def test_line(self):
        assert polynomial_identity_check(ChscModel.build(1, 1))

    def test_cubic_negative_curvature(self):
        # (k-3)(k-2)(k-1) = k^3 - 6k^2 + 11k - 6
        model = ChscModel.build(3, -1)
        assert model.b[:4] == (1, -6, 11, -6)
        assert polynomial_identity_check(model)

    def test_flat_branch(self):
        assert polynomial_identity_check(ChscModel.build(2, 0))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("c", [-2, -1, 1, 2])
    def test_grid(self, n, c):
        assert polynomial_identity_check(ChscModel.build(n, c, M=n + 2))

    def test_detects_corruption(self):
        model = ChscModel.build(2, 1)
        bad = ChscModel(n=2, c=F(1), b=(F(1), F(3), F(5)) + model.b[3:])
        assert not polynomial_identity_check(bad)


class TestExactKernels:
    def test_cpn_at_origin(self):
        assert cpn_kernel(1, 5, [0], [0]) == pytest.approx(6 / math.pi)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", [170, 1000, 4096])
    def test_cpn_at_origin_large_k(self, n, k):
        # (k+n)! overflows a float from k + n = 171 on
        want = math.comb(k + n, n) * math.factorial(n) / math.pi**n
        assert cpn_kernel(n, k, [0] * n, [0] * n) == want

    def test_cpn_point_value(self):
        got = cpn_kernel(1, 3, [0.2], [0.1])
        assert got == pytest.approx((4 / math.pi) * 1.02**3)

    def test_cpn_matches_monomial_sum(self):
        pts = [([0.1 + 0.05j], [0.12 - 0.02j]), ([0.2], [0.1]), ([0.0], [0.15j])]
        for k in (1, 5, 12, 30):
            for x, y in pts:
                a = cpn_kernel(1, k, x, y)
                b = cpn_kernel_monomial_sum(1, k, x, y)
                assert abs(a - b) <= 1e-12 * abs(b)

    def test_cpn_matches_monomial_sum_dim2(self):
        x = [0.1, 0.05 - 0.02j]
        y = [0.08 + 0.01j, 0.1]
        for k in (2, 9, 20):
            a = cpn_kernel(2, k, x, y)
            b = cpn_kernel_monomial_sum(2, k, x, y)
            assert abs(a - b) <= 1e-12 * abs(b)

    def test_diagonal_positive(self):
        for n, k in [(1, 4), (2, 7)]:
            v = cpn_kernel(n, k, [0.1] * n, [0.1] * n)
            assert v.imag == pytest.approx(0.0, abs=1e-12)
            assert v.real > 0

    def test_flat_values(self):
        assert flat_kernel(2, 3, [0] * 2, [0] * 2) == pytest.approx((3 / math.pi) ** 2)
        got = flat_kernel(1, 10, [0.3], [0.3])
        assert got == pytest.approx((10 / math.pi) * math.exp(0.9))

    def test_flat_hermitian(self):
        a = flat_kernel(1, 6, [0.2 + 0.1j], [0.05 - 0.08j])
        b = flat_kernel(1, 6, [0.05 - 0.08j], [0.2 + 0.1j])
        assert a == pytest.approx(b.conjugate())


class TestCrossValidation:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("c", [-1, 0, 1])
    def test_recursion_agrees_with_series_engine(self, n, c):
        geom = build_geometry(preset_chsc(n, c, 10))
        table = bergman_coefficients(geom, 4)
        closed = chsc_coefficients(n, c, 4)
        for m in range(5):
            series = table.b[m]
            assert len(series.coeffs) <= 1
            assert series.constant_term == closed[m]

    def test_verdict_record_shape(self):
        rec = verdict_record(2, 1, 3)
        assert rec["polynomial_check"] == "pass"
        assert rec["b"] == ["1", "3", "2", "0"]
