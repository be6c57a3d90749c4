"""Growth fits, the worst case table, and the truncation rule checks."""

import hashlib
import json
import math
import sys
import tracemalloc
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
    TruncationScan,
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
        # one step past any corner is refused; test_every_guard_corner runs the corners
        for n, (M, Kmax) in WORST_CASE_LIMITS.items():
            for args in [(n, M + 1, 0), (n, 0, Kmax + 1)]:
                with pytest.raises(ResourceGuardError):
                    worst_case_norm_table(*args)
        with pytest.raises(ResourceGuardError):
            worst_case_norm_table(max(WORST_CASE_LIMITS) + 1, 0, 0)

    @pytest.mark.parametrize("n", sorted(WORST_CASE_LIMITS))
    def test_every_guard_corner_meets_the_lower_bounds(self, n):
        # the bounds the command line checks: (2m-2+k)! for m >= 1, (m!)^2 / 4^m at k = 0
        M, Kmax = WORST_CASE_LIMITS[n]
        table = worst_case_norm_table(n, M, Kmax)
        assert len(table) == (M + 1) * (Kmax + 1)
        for (m, k), v in table.items():
            assert m == 0 or v >= factorial(2 * m - 2 + k), (m, k)
        for m in range(1, M + 1):
            assert table[(m, 0)] >= F(factorial(m) ** 2, 4**m), m

    @pytest.mark.parametrize("args", [(True, 1, 1), (1, True, 0), (1, 1, True), (1.0, 1, 1),
                                      (1, 2.0, 1), (1, 2, 1.0), ("1", 1, 1)],
                             ids=["bool_n", "bool_M", "bool_Kmax", "float_n", "float_M",
                                  "float_Kmax", "str_n"])
    def test_rejects_an_argument_that_is_not_an_int(self, args):
        # True is an int equal to 1 but no count, and a float would reach range()
        with pytest.raises(ValueError, match="need integers"):
            worst_case_norm_table(*args)

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


def truncation_scan_by_differences(C, k):
    """The scan as a list of the k - 1 differences of its log terms reads it, the body
    :func:`truncation_minimizer` had before it kept one list; ``lgamma`` is read from
    ``growth`` so that a patch reaches both."""
    log_C, log_k = math.log(C), math.log(k)
    logs = [m * log_C + 2.0 * growth.lgamma(m + 1) - m * log_k for m in range(1, k + 1)]
    arg = 1 + min(range(len(logs)), key=logs.__getitem__)
    diffs = [b - a for a, b in zip(logs, logs[1:])]
    rising = False
    unimodal = True
    for d in diffs:
        if d >= 0:
            rising = True
        elif rising:
            unimodal = False
            break
    target = math.sqrt(k / C)
    m_hat = max(1, int(target))
    bound_log = 2.0 + math.log(m_hat) - 2.0 * m_hat
    return TruncationScan(
        C=C, k=k, argmin=arg, min_value=math.exp(logs[arg - 1]), sqrt_target=target,
        unimodal=unimodal, within_one_of_target=abs(arg - target) <= 1.0,
        stirling_bound_ok=logs[arg - 1] <= bound_log + 1e-12,
    )


# the constants and k the benchmark's numeric_checks workload scans
BENCHMARK_CS = (0.25, 0.3, 0.5, 1.0, 2.0, 3.0, 4.0)
BENCHMARK_KS = (1000, 4000, 16000)


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

    def test_rejects_a_boolean_k(self):
        # True is an int equal to 1, but no count of terms
        with pytest.raises(ValueError, match="integer k >= 1"):
            truncation_minimizer(1.0, True)

    def test_rejects_a_float_k(self):
        with pytest.raises(ValueError, match="integer k >= 1"):
            truncation_minimizer(1.0, 100.0)

    @pytest.mark.parametrize("k", BENCHMARK_KS)
    @pytest.mark.parametrize("C", BENCHMARK_CS)
    def test_the_benchmark_scans_equal_the_difference_list(self, C, k):
        assert truncation_minimizer(C, k) == truncation_scan_by_differences(C, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 10, 1000, 16000])
    def test_scans_at_the_ends_of_the_constant_range_equal_the_difference_list(self, k):
        # C just inside [1/k, k], the range the command line admits: argmin near k and near 1
        for C in (1.0, 2.0, 0.5, math.nextafter(1 / k, math.inf), math.nextafter(k, 0.0)):
            assert truncation_minimizer(C, k) == truncation_scan_by_differences(C, k)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 20_000), st.floats(0.0, 1.0))
    def test_drawn_scans_equal_the_difference_list(self, k, u):
        C = k ** (2.0 * u - 1.0)  # log C uniform over [-log k, log k]
        assert truncation_minimizer(C, k) == truncation_scan_by_differences(C, k)

    def test_a_dip_after_the_minimum_breaks_unimodality(self, monkeypatch):
        # log terms of C = 1, k = 100 rise by about log(m^2 / 100) after m = 10; lowering
        # lgamma(31) by 3 makes the step into m = 30 fall by about 3.8
        monkeypatch.setattr(growth, "lgamma", lambda x: math.lgamma(x) - 3.0 * (x == 31))
        scan = truncation_minimizer(1.0, 100)
        assert scan == truncation_scan_by_differences(1.0, 100)
        assert not scan.unimodal and scan.within_one_of_target

    def test_the_scan_keeps_one_list_of_k_floats(self):
        # a list of k floats takes k (getsizeof(0.0) + 8) bytes; a second list of k
        # floats, such as the differences, doubles the peak
        k = 100_000
        truncation_minimizer(1.0, 10)
        tracemalloc.start()
        try:
            truncation_minimizer(1.0, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * k * (sys.getsizeof(0.0) + 8)


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

    # each of these sweeps would check nothing and pass
    def test_rejects_an_empty_delta_list(self):
        with pytest.raises(ValueError, match="at least one delta"):
            exp_factorial_bound_check(deltas=(), n_max=5, k_max=100)

    def test_rejects_a_negative_n_max(self):
        with pytest.raises(ValueError, match="n_max >= 0"):
            exp_factorial_bound_check(deltas=(1.0,), n_max=-3, k_max=5)

    def test_rejects_a_k_max_below_one(self):
        with pytest.raises(ValueError, match="k_max >= 1"):
            exp_factorial_bound_check(deltas=(1.0,), n_max=5, k_max=0)

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
