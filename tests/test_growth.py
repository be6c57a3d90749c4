"""Growth fits, the worst case table, and the truncation rule checks."""

import hashlib
import json
import math
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman import growth
from bergman.coefficients import bergman_coefficients, derivative_norm_table
from bergman.growth import (
    LEMMA_CHECK_LIMIT,
    WORST_CASE_LIMITS,
    ResourceGuardError,
    exp_factorial_bound_check,
    fit_growth,
    truncation_minimizer,
    worst_case_norm_table,
)
from bergman.potential import build_geometry, preset_chsc, preset_flat, preset_quartic
from oracles import order_kernel_pair_loop, worst_case_norm_table_tuples

F = Fraction


class TestFitGrowth:
    def _norms(self, spec, M):
        geom = build_geometry(spec)
        table = bergman_coefficients(geom, M)
        return derivative_norm_table(table, geom, 0.1, 4)

    def test_flat_vanishing(self):
        fit = fit_growth(self._norms(preset_flat(1, 10), 3))
        assert fit.verdict == "vanishing"

    def test_chsc_vanishing_beyond_dimension(self):
        fit = fit_growth(self._norms(preset_chsc(2, 1, 10), 3))
        assert fit.verdict == "vanishing_beyond_2"

    def test_quartic_passes_factorial_sq_model(self):
        fit = fit_growth(self._norms(preset_quartic(1, F(1, 10), 14), 5))
        assert fit.verdict == "pass"
        assert fit.fitted_C > 0
        assert fit.cover_C <= fit.prefix_cover_C * 1.05

    def test_super_model_growth_fails(self):
        # synthetic norms growing like (m!)^3 under the (m!)^2 model
        from bergman.coefficients import NormTable

        entries = {(m, (0,)): float(factorial(m)) ** 3 for m in range(9)}
        entries[(0, (0,))] = 1.0
        norms = NormTable(n=1, M=8, xi_max=0, radius=0.1, grid=5, entries=entries)
        fit = fit_growth(norms)
        assert fit.verdict == "fail"

    def test_conjectured_model_reported_not_asserted(self):
        fit = fit_growth(
            self._norms(preset_quartic(1, F(1, 10), 14), 5), model="m_factorial"
        )
        assert fit.verdict in ("pass", "fail")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            fit_growth(self._norms(preset_flat(1, 8), 2), model="nope")


class TestWorstCase:
    def test_first_order_is_scaled_factorial(self):
        table = worst_case_norm_table(1, 1, 4)
        for k in range(5):
            assert table[(1, k)] == 4 * factorial(k)

    def test_first_order_dimension_two(self):
        table = worst_case_norm_table(2, 1, 2)
        for k in range(3):
            assert table[(1, k)] == 8 * factorial(k)

    def test_lower_bound_directional(self):
        table = worst_case_norm_table(1, 4, 4)
        for m in range(1, 5):
            for k in range(5):
                assert table[(m, k)] >= factorial(2 * m - 2 + k)

    def test_lower_bound_at_zero(self):
        table = worst_case_norm_table(1, 5, 0)
        for m in range(1, 6):
            assert table[(m, 0)] >= F(1, 4**m) * factorial(m) ** 2

    def test_values_are_integers(self):
        table = worst_case_norm_table(1, 3, 2)
        for v in table.values():
            assert v.denominator == 1
            assert v >= 0

    def test_monotone_in_order(self):
        table = worst_case_norm_table(1, 5, 0)
        col = [table[(m, 0)] for m in range(6)]
        assert all(b >= a for a, b in zip(col, col[1:]))

    def test_resource_guard(self):
        M, Kmax = WORST_CASE_LIMITS[3]
        with pytest.raises(ValueError, match="resource"):
            worst_case_norm_table(3, M + 1, Kmax)

    def test_resource_guard_boundary(self):
        # the two cheapest corners run; one step past any corner is refused
        for n in (2, 4):
            M, Kmax = WORST_CASE_LIMITS[n]
            assert len(worst_case_norm_table(n, M, Kmax)) == (M + 1) * (Kmax + 1)
        for n, (M, Kmax) in WORST_CASE_LIMITS.items():
            for args in [(n, M + 1, 0), (n, 0, Kmax + 1)]:
                with pytest.raises(ResourceGuardError):
                    worst_case_norm_table(*args)
        with pytest.raises(ResourceGuardError):
            worst_case_norm_table(max(WORST_CASE_LIMITS) + 1, 0, 0)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_small_tables_equal_the_tuple_recursion(self, n):
        for M in range(4):
            for Kmax in range(4):
                got = worst_case_norm_table(n, M, Kmax)
                assert list(got.items()) == list(worst_case_norm_table_tuples(n, M, Kmax).items())

    def test_the_former_n1_corner_equals_the_tuple_recursion(self):
        assert worst_case_norm_table(1, 24, 28) == worst_case_norm_table_tuples(1, 24, 28)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 5))
    def test_drawn_tables_equal_the_tuple_recursion(self, n, M, Kmax):
        assert worst_case_norm_table(n, M, Kmax) == worst_case_norm_table_tuples(n, M, Kmax)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("l", range(1, 6))
    def test_order_kernel_equals_the_pair_loop(self, n, l):
        # any multiple of (2l)! is a valid scale
        for scale in (factorial(2 * l), 7 * factorial(2 * l + 1)):
            assert growth._order_kernel(n, l, scale) == order_kernel_pair_loop(n, l, scale)

    def test_no_table_outlives_a_call(self, monkeypatch):
        # each call builds its M order kernels again, so the second costs what the first did
        built = []
        kernel = growth._order_kernel
        monkeypatch.setattr(growth, "_order_kernel",
                            lambda n, l, scale: built.append(l) or kernel(n, l, scale))
        first = worst_case_norm_table(2, 3, 2)
        assert worst_case_norm_table(2, 3, 2) == first
        assert built == [1, 2, 3] * 2

    # SHA-256 of the JSON of {"m,k": str(value)} (sorted keys), recorded
    # from the direct five-fold sum before it was factored.
    @pytest.mark.parametrize(
        "args, digest",
        [
            ((2, 4, 4), "630ef1b38f76839b2b760e22372ffb2dc83ceb6a01940b2b7f16b007fd7bdb0c"),
            ((2, 5, 6), "b3223db4cf24c0e4727df66fa3c21e45e0005361d76da5ef03ccebc8982f3362"),
        ],
    )
    def test_golden_values(self, args, digest):
        table = worst_case_norm_table(*args)
        record = {f"{m},{k}": str(v) for (m, k), v in table.items()}
        got = hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()
        assert got == digest


class TestTruncationMinimizer:
    def test_unit_constant(self):
        scan = truncation_minimizer(1.0, 100)
        assert scan.argmin in (9, 10, 11)
        assert scan.unimodal and scan.within_one_of_target

    def test_constant_four(self):
        scan = truncation_minimizer(4.0, 64)
        assert scan.argmin in (3, 4, 5)
        assert scan.within_one_of_target

    def test_stirling_bound(self):
        for C, k in [(1.0, 64), (1.0, 1024), (4.0, 100), (2.0, 500)]:
            scan = truncation_minimizer(C, k)
            assert scan.stirling_bound_ok
            assert scan.unimodal

    def test_min_value_positive(self):
        scan = truncation_minimizer(1.0, 256)
        assert 0 < scan.min_value < 1

    @pytest.mark.parametrize("C", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_constant(self, C):
        with pytest.raises(ValueError, match="finite C > 0"):
            truncation_minimizer(C, 100)


class TestExpFactorialBound:
    def test_spot_values(self):
        # delta=1, N=3, k=10: 10 e^{-10} <= 2^5 * 24 / 10^4
        lhs = 10 * math.exp(-10.0)
        rhs = 2**5 * 24 / 10**4
        assert lhs <= rhs
        # delta=0.5, N=0, k=1: e^{-1/2} <= 4^2
        assert math.exp(-0.5) <= 16

    def test_small_sweep(self):
        sweep = exp_factorial_bound_check(deltas=(0.1, 1.0), n_max=5, k_max=100)
        assert sweep.passed
        assert sweep.checked == 2 * 6 * 100

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            exp_factorial_bound_check(deltas=(0.0,))

    @pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_a_non_finite_delta(self, delta):
        # every comparison with NaN is false, so a NaN sweep would pass with no violation
        with pytest.raises(ValueError, match="finite and positive"):
            exp_factorial_bound_check(deltas=(1.0, delta), n_max=1, k_max=10)

    def test_resource_guard(self, monkeypatch):
        # the default sweep (4 deltas, N <= 20, k <= 10^4) sits well inside the limit
        assert 4 * 21 * 10_000 <= LEMMA_CHECK_LIMIT / 2
        with pytest.raises(ResourceGuardError, match="lemma"):
            exp_factorial_bound_check(deltas=(1.0,), n_max=0, k_max=LEMMA_CHECK_LIMIT + 1)
        monkeypatch.setattr(growth, "LEMMA_CHECK_LIMIT", 2 * 10 * 10)
        assert exp_factorial_bound_check(deltas=(0.5, 1.0), n_max=9, k_max=10).checked == 200
        with pytest.raises(ResourceGuardError):
            exp_factorial_bound_check(deltas=(0.5, 1.0), n_max=9, k_max=11)
