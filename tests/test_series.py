"""Series core: arithmetic, composition, determinants, serialization."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bergman import series
from bergman.series import (
    TruncatedSeries,
    _add_products,
    _derived,
    _shift_for,
    _sum_of_products,
    close_power_chain,
    det,
    exponents_of_degree,
    fixed_point,
    linear_combination,
    multi_factorial,
    mul_trunc,
    power_step,
    unit,
    y_gradient_average,
)
import reference
from oracles import cramer_inverse, is_zero, lift

F = Fraction


def univar(D, coeffs):
    return TruncatedSeries(1, D, {(i,): c for i, c in enumerate(coeffs)})


def exp_series(D):
    return univar(D, [F(1, math.factorial(i)) for i in range(D + 1)])


def log1p_series(D):
    # log(1 + u) = u - u^2/2 + u^3/3 - ...
    return univar(D, [0] + [F((-1) ** (i + 1), i) for i in range(1, D + 1)])


def integrate(f, i):
    """Formal antiderivative of f in variable i with zero constant of integration."""
    out = {}
    for key, value in f.coeffs.items():
        new_key = key[:i] + (key[i] + 1,) + key[i + 1 :]
        out[new_key] = value * Fraction(1, key[i] + 1)
    return TruncatedSeries(f.nvars, f.trunc_degree + 1, out)


def same_through_degree(f, g, degree):
    """Coefficientwise equality of all terms with total degree <= degree."""
    if f.nvars != g.nvars:
        return False
    keys = set(f.coeffs) | set(g.coeffs)
    for k in keys:
        if sum(k) <= degree and f.coeffs.get(k, 0) != g.coeffs.get(k, 0):
            return False
    return True


def to_json(f):
    return json.dumps(f.to_record(), sort_keys=True)


def from_json(text):
    return TruncatedSeries.from_record(json.loads(text))


def random_series(rng, nvars, D, max_terms=6):
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        key = tuple(rng.randint(0, 2) for _ in range(nvars))
        if sum(key) <= D:
            coeffs[key] = F(rng.randint(-5, 5), rng.randint(1, 4))
    return TruncatedSeries(nvars, D, coeffs)


class TestAdd:
    def test_cancellation(self):
        a = univar(3, [1, 1])
        b = univar(3, [1, -1])
        assert a + b == univar(3, [2])

    def test_identity(self):
        f = univar(4, [2, 0, F(1, 3)])
        assert f + TruncatedSeries.zero(1, 4) == f

    def test_truncation_respects_degree(self):
        x_sq = TruncatedSeries(1, 1, {(2,): 1})
        assert is_zero(x_sq)
        assert is_zero(x_sq + x_sq)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            univar(3, [1]) + univar(4, [1])
        with pytest.raises(ValueError):
            univar(3, [1]) + TruncatedSeries.one(2, 3)


class TestMul:
    def test_difference_of_squares(self):
        a = univar(2, [1, 1])
        b = univar(2, [1, -1])
        assert a * b == univar(2, [1, 0, -1])

    def test_truncates(self):
        a = univar(1, [1, 1])
        assert a * a == univar(1, [1, 2])

    def test_exp_times_exp_neg_matches_convolution_oracle(self):
        D = 8
        e = exp_series(D)
        em = univar(D, [F((-1) ** i, math.factorial(i)) for i in range(D + 1)])
        prod = e * em
        # brute force convolution
        oracle = {}
        for i in range(D + 1):
            for j in range(D + 1 - i):
                oracle[(i + j,)] = oracle.get((i + j,), 0) + e[(i,)] * em[(j,)]
        assert prod == TruncatedSeries(1, D, oracle)
        assert prod == univar(D, [1])

    def test_scalar(self):
        f = univar(4, [0, 1])
        assert 3 * f == univar(4, [0, 3])

    def test_mul_trunc_extends_for_polynomial_factor(self):
        # (x) * (1 + x) at out degree 2 keeps the x^2 term
        x = univar(1, [0, 1])
        g = univar(1, [1, 1])
        assert mul_trunc(x, g, 2) == TruncatedSeries(1, 2, {(1,): 1, (2,): 1})


class TestInvert:
    def test_one(self):
        assert TruncatedSeries.one(1, 5).invert() == TruncatedSeries.one(1, 5)

    def test_geometric(self):
        f = univar(3, [1, 1])
        assert f.invert() == univar(3, [1, -1, 1, -1])

    def test_triangular_solve_oracle(self):
        # 1/(2 + x + x^2): c0 = 1/2, then match degrees
        f = univar(2, [2, 1, 1])
        inv = f.invert()
        assert inv == univar(2, [F(1, 2), F(-1, 4), F(-1, 8)])
        assert f * inv == TruncatedSeries.one(1, 2)

    def test_zero_constant_raises(self):
        with pytest.raises(ValueError):
            univar(2, [0, 1]).invert()

    def test_invert_involution(self):
        rng = random.Random(7)
        for _ in range(10):
            f = random_series(rng, 2, 5) + TruncatedSeries.constant(2, 5, F(3, 2))
            assert f.invert().invert() == f


class TestCompose:
    def test_square_of_sum(self):
        f = TruncatedSeries(1, 2, {(2,): 1})
        xy = TruncatedSeries(2, 2, {(1, 0): 1, (0, 1): 1})
        assert f.compose([xy]) == TruncatedSeries(
            2, 2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}
        )

    def test_identity_substitution(self):
        rng = random.Random(3)
        f = random_series(rng, 1, 5)
        z = TruncatedSeries.variable(1, 5, 0)
        assert f.compose([z]) == f

    def test_log_of_expm1_is_x(self):
        D = 4
        lg = log1p_series(D)
        expm1 = exp_series(D) - 1
        assert lg.compose([expm1]) == univar(D, [0, 1])

    def test_nonzero_constant_term_rejected(self):
        f = univar(3, [1, 1])
        with pytest.raises(ValueError):
            f.compose([univar(3, [1, 1])])

    def test_associativity(self):
        rng = random.Random(11)
        for _ in range(8):
            f = random_series(rng, 1, 5)
            g = random_series(rng, 1, 5)
            g = g - TruncatedSeries.constant(1, 5, g.constant_term)
            h = random_series(rng, 1, 5)
            h = h - TruncatedSeries.constant(1, 5, h.constant_term)
            assert f.compose([g]).compose([h]) == f.compose([g.compose([h])])


class TestDiff:
    def test_mixed_partial(self):
        f = TruncatedSeries(2, 3, {(2, 1): 1})
        assert f.diff((1, 1)) == TruncatedSeries(2, 1, {(1, 0): 2})

    def test_constant_killed(self):
        f = TruncatedSeries.constant(2, 3, 5)
        assert is_zero(f.diff((1, 0)))

    def test_diff_commutes(self):
        rng = random.Random(5)
        for _ in range(10):
            f = random_series(rng, 2, 6)
            a, b = (1, 0), (0, 2)
            ab = tuple(x + y for x, y in zip(a, b))
            assert f.diff(a).diff(b) == f.diff(ab)
            assert f.diff(b).diff(a) == f.diff(ab)

    def test_integrate_inverts_diff(self):
        f = univar(4, [0, 1, F(1, 2), F(1, 3)])
        assert same_through_degree(integrate(f.diff((1,)), 0).truncate(4), f, 3)


def matmul(a, b):
    """Plain row-by-column product of two square matrices of series."""
    size = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(1, size)), a[i][0] * b[0][j])
         for j in range(size)]
        for i in range(size)
    ]


class TestDet:
    def test_identity(self):
        one, zero = TruncatedSeries.one(2, 4), TruncatedSeries.zero(2, 4)
        rows = [[one if i == j else zero for j in range(3)] for i in range(3)]
        assert det(rows) == TruncatedSeries.one(2, 4)

    def test_two_by_two(self):
        x = TruncatedSeries.variable(2, 2, 0)
        y = TruncatedSeries.variable(2, 2, 1)
        one = TruncatedSeries.one(2, 2)
        rows = [[one + x, y], [y, one - x]]
        assert det(rows) == TruncatedSeries(
            2, 2, {(0, 0): 1, (2, 0): -1, (0, 2): -1}
        )

    def test_three_by_three_matches_leibniz_oracle(self):
        rng = random.Random(17)
        entries = [random_series(rng, 2, 4) for _ in range(9)]
        rows = [entries[3 * i : 3 * i + 3] for i in range(3)]
        import itertools

        acc = TruncatedSeries.zero(2, 4)
        for perm in itertools.permutations(range(3)):
            sign = 1
            for i in range(3):
                for j in range(i + 1, 3):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = rows[0][perm[0]] * rows[1][perm[1]] * rows[2][perm[2]]
            acc = acc + sign * term
        assert det(rows) == acc

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            det([[TruncatedSeries.one(1, 1)] * 2])

    def test_det_multiplicative(self):
        rng = random.Random(23)
        for size in (2, 3):
            a = [[random_series(rng, 2, 3) for _ in range(size)] for _ in range(size)]
            b = [[random_series(rng, 2, 3) for _ in range(size)] for _ in range(size)]
            assert det(matmul(a, b)) == det(a) * det(b)

    def test_exact_scalars(self):
        # scalar matrices are the reference's alone: det takes series and (s, xi) pairs
        assert reference.det_of_scalars([[F(1, 2), 1], [3, 4]]) == -1
        assert reference.det_of_scalars([[2, 0, 1], [1, 3, 0], [0, 1, F(1, 3)]]) == 3
        one = TruncatedSeries.one(1, 2)
        for rows in ([[F(1, 2), 1], [3, 4]], [[one, 1], [one, one]], [[F(1, 2)]]):
            with pytest.raises(TypeError, match="series or"):
                det(rows)


class TestEval:
    def test_affine(self):
        f = univar(3, [1, 1])
        assert f.eval([0.5]) == pytest.approx(1.5)

    def test_zero(self):
        assert TruncatedSeries.zero(2, 3).eval([1.0, 2.0]) == 0

    def test_exp_at_point(self):
        e = exp_series(20)
        assert abs(e.eval([0.1]) - math.exp(0.1)) < 1e-15

    def test_complex_point(self):
        f = TruncatedSeries(2, 2, {(1, 1): 1})
        assert f.eval([1j, 2.0]) == pytest.approx(2j)


small_fraction = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def series_strategy(nvars, D):
    keys = st.tuples(*[st.integers(0, 2)] * nvars).filter(lambda k: sum(k) <= D)
    return st.dictionaries(keys, small_fraction, max_size=5).map(
        lambda d: TruncatedSeries(nvars, D, d)
    )


class TestRingAxioms:
    @settings(max_examples=40, deadline=None)
    @given(series_strategy(2, 4), series_strategy(2, 4), series_strategy(2, 4))
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=40, deadline=None)
    @given(series_strategy(2, 4), series_strategy(2, 4), series_strategy(2, 4))
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(series_strategy(2, 4), series_strategy(2, 4))
    def test_mul_commutative(self, a, b):
        assert a * b == b * a


def _items(s):
    return s.nvars, s.trunc_degree, list(s.coeffs.items())


def _piece_of(s: TruncatedSeries, shift: int):
    """The raw piece of ``s`` (keys at digit width ``shift``), None when ``s`` is empty."""
    return (s._keys_at(shift), s._nums, s._den) if s._keys else None


def _series_of(piece, nvars: int, degree: int, shift: int) -> TruncatedSeries:
    keys, nums, den = piece or ([], [], 1)
    return TruncatedSeries._canonical(nvars, degree, shift, dict(zip(keys, nums)), den)


def _sum_of_pieces(pairs, nvars: int, out_degree: int) -> TruncatedSeries:
    """``_sum_of_products`` of the raw pieces of series pairs, as a series; the
    piece it returns must be sorted and reduced, as every piece is."""
    shift = max([_shift_for(out_degree)] + [s._shift for pair in pairs for s in pair])
    pieces = [(_piece_of(a, shift), _piece_of(b, shift)) for a, b in pairs]
    got = _sum_of_products(pieces, shift * nvars, out_degree)
    if got is not None:
        assert got[0] == sorted(got[0]) and math.gcd(got[2], *got[1]) == 1
    return _series_of(got, nvars, out_degree, shift)


no_constant = series_strategy(3, 3).filter(lambda s: s.constant_term == 0)


# Argument lists for compose into 3 target variables of degree 3: ("x", i)
# is the bare variable x_i, ("2x", i) the scaled variable 2 x_i, ("x+", i)
# the variable plus the degree-2 term x_1 x_2, and DENSE a drawn series with
# no constant term.  The last three kinds must be substituted, not moved.
DENSE = ("dense", None)
COMPOSE_SHAPES = {
    "bare_first": [("x", 0), DENSE, DENSE],
    "bare_last": [DENSE, DENSE, ("x", 2)],
    "bare_interleaved": [("x", 0), DENSE, ("x", 1), DENSE],
    "bare_to_other_slot": [("x", 2), DENSE, ("x", 0)],
    "two_slots_one_target": [("x", 1), ("x", 1), DENSE],
    "all_bare": [("x", 2), ("x", 0), ("x", 1)],
    "none_bare": [DENSE, DENSE, DENSE],
    "scaled_variable": [("2x", 0), DENSE, ("x", 1)],
    "variable_plus_higher_term": [("x+", 0), ("x", 1), DENSE],
    # runs of bare arguments: the pipeline's prefix run, a run onto shifted
    # target slots, and an outer series of 2 variables into 3 as (x, z) -> (x, y, theta)
    "prefix_run": [("x", 0), ("x", 1), DENSE],
    "run_to_shifted_slots": [("x", 1), ("x", 2), DENSE],
    "two_into_three": [("x", 0), DENSE],
    # GeometryPack.to_xz: a 3n-block series into 2n targets, both bare blocks onto x
    "two_runs_one_block": [("x", 0), ("x", 1), ("x", 0), ("x", 1), DENSE, DENSE],
}


def _shape_argument(slot, dense) -> TruncatedSeries:
    kind, i = slot
    if kind == "dense":
        return next(dense)
    x = TruncatedSeries.variable(3, 3, i)
    if kind == "2x":
        return 2 * x
    if kind == "x+":
        return x + TruncatedSeries(3, 3, {(0, 1, 1): 1})
    return x


class TestTrustedConstructor:
    """Operations that skip validation build what the validating constructor builds."""

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(2, 4), series_strategy(2, 4), small_fraction)
    def test_ring_operations(self, a, b, c):
        keys = set(a.coeffs) | set(b.coeffs)
        cases = [
            (a + b, {k: a[k] + b[k] for k in keys}),
            (a - b, {k: a[k] - b[k] for k in keys}),
            (-a, {k: -v for k, v in a.coeffs.items()}),
            (a * c, {k: v * c for k, v in a.coeffs.items()}),
            (a * b, reference.mul(a, b, 4).coeffs),
        ]
        for got, plain in cases:
            assert _items(got) == _items(TruncatedSeries(2, 4, plain))
        for out_degree in (2, 6):
            got = mul_trunc(a, b, out_degree)
            assert _items(got) == _items(reference.mul(a, b, out_degree))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(series_strategy(2, 4), series_strategy(2, 4),
                           st.sampled_from(["", "a", "b", "ab"])), min_size=1, max_size=4),
        st.integers(0, 6),
    )
    def test_sum_of_products_with_empty_factors(self, drawn, out_degree):
        # a vanishing piece is None; its pairs add nothing
        zero = TruncatedSeries.zero(2, 4)
        some = [(zero if "a" in e else a, zero if "b" in e else b) for a, b, e in drawn]
        every = [(zero, b) if i % 2 else (a, zero) for i, (a, b, _) in enumerate(drawn)]
        for pairs in (some, every):
            plain: dict = {}
            for a, b in pairs:
                for k, v in reference.mul(a, b, out_degree).coeffs.items():
                    plain[k] = plain.get(k, 0) + v
            got = _sum_of_pieces(pairs, 2, out_degree)
            assert _items(got) == _items(TruncatedSeries(2, out_degree, plain))
        pieces = [(_piece_of(a, 3), _piece_of(b, 3)) for a, b in every]
        assert all(None in pair for pair in pieces)
        assert _sum_of_products(pieces, 3 * 2, out_degree) is None

    def test_empty_factors_are_still_checked(self):
        a, zero = TruncatedSeries.variable(2, 4, 0), TruncatedSeries.zero(2, 4)
        wrong = TruncatedSeries.zero(3, 4)
        for x, y in ((a, TruncatedSeries.variable(3, 4, 0)), (zero, wrong), (wrong, zero)):
            with pytest.raises(ValueError, match="mul: nvars mismatch"):
                mul_trunc(x, y, 4)
        with pytest.raises(ValueError, match="out_degree must be non-negative"):
            mul_trunc(zero, a, -1)
        assert mul_trunc(zero, a, 6) == TruncatedSeries.zero(2, 6)

    @settings(max_examples=60, deadline=None)
    @given(series_strategy(2, 4), no_constant, no_constant)
    def test_compose(self, f, u, v):
        got = f.compose([u, v])
        assert _items(got) == _items(reference.compose(f, [u, v]))

    @pytest.mark.parametrize("shape", sorted(COMPOSE_SHAPES))
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_compose_argument_shapes(self, shape, data):
        slots = COMPOSE_SHAPES[shape]
        dense = iter([data.draw(no_constant) for _ in range(3)])
        args = [_shape_argument(slot, dense) for slot in slots]
        # one cache for two outer series, the lower truncation degree first
        cache = {}
        for degree in (2, 4):
            f = data.draw(series_strategy(len(slots), degree))
            got = f.compose(args, cache=cache)
            assert _items(got) == _items(reference.compose(f, args))
        # keys are exponent tuples of the substituted slots only (a drawn
        # argument may itself be a bare variable)
        substituted = sum(1 for a in args if a not in TruncatedSeries.variables(3, 3))
        assert all(type(key) is tuple and len(key) == substituted
                   and all(type(e) is int for e in key) for key in cache)

    def test_compose_cache_holds_substituted_powers_only(self):
        x = TruncatedSeries.variables(3, 3)
        u = TruncatedSeries(3, 3, {(1, 0, 0): 1, (0, 1, 1): F(1, 2)})
        v = TruncatedSeries(3, 3, {(0, 0, 1): -1, (2, 0, 0): 3})
        f = TruncatedSeries(4, 3, {k: 1 for d in range(4) for k in exponents_of_degree(4, d)})
        cache = {}
        f.compose([x[2], u, x[0], v], cache=cache)
        assert cache
        assert all(len(key) == 2 for key in cache)


class TestOneAccumulator:
    """compose adds every group product into one accumulator over one denominator;
    _piece keeps no key whose numerator cancelled."""

    def test_compose_over_coprime_large_prime_denominators(self):
        p, q = 998_244_353, 1_000_000_007
        x = TruncatedSeries.variables(3, 3)
        u = TruncatedSeries(3, 3, {(1, 0, 0): F(1, p), (0, 1, 1): F(2, p), (0, 0, 2): F(-5, p)})
        v = TruncatedSeries(3, 3, {(0, 0, 1): F(-1, q), (2, 0, 0): F(3, q), (0, 1, 0): 1})
        # slot 1 is the bare x_1, so the terms free of slots 0 and 2 form the
        # gamma = 0 group; the outer series has its own denominator 7 * 11 * 13
        f = TruncatedSeries(3, 4, {
            (0, 0, 0): F(5, 11), (0, 2, 0): F(1, 7), (0, 3, 0): F(-2, 13),
            (1, 0, 0): F(2, 7), (1, 1, 0): F(-3, 11), (0, 0, 2): F(4, 13),
            (1, 1, 1): F(6, 7), (2, 0, 1): F(-1, 11), (0, 1, 3): F(3, 13),
        })
        args = [u, x[1], v]
        cache = {}
        got = f.compose(args, cache=cache)
        assert _items(got) == _items(reference.compose(f, args))
        assert got._den == math.lcm(*(F(c).denominator for c in got.coeffs.values()))
        assert got._den % (p * q) == 0
        assert sorted(cache) == [(0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1)]
        # the cached powers serve a second call unchanged
        assert f.compose(args, cache=cache) == got

    def test_pair_loop_skips_out_of_range_terms_in_any_order(self):
        x, y = TruncatedSeries.variables(2, 4)
        a = x * x * x + F(1, 2) * y  # x^3 lies above the output degree 2
        b = (1 + x + F(1, 3) * y) * (1 + y)
        acc = {}
        high_first = list(zip(a._keys, a._nums))[::-1]
        _add_products(acc, high_first, b._keys, b._nums, 2 * a._shift, 2)
        got = TruncatedSeries._canonical(2, 2, a._shift, acc, a._den * b._den)
        assert got == mul_trunc(a, b, 2) == (F(1, 2) * y * b).truncate(2)

    def test_exact_cancellation_stores_no_key(self):
        x, y = TruncatedSeries.variables(2, 2)
        for scale in (1, F(1, 3)):
            s = ((x + y) * (x - y)) * scale + (y * y - x * x) * scale
            assert s._keys == [] and s._nums == [] and s._den == 1
            assert s == TruncatedSeries.zero(2, 2)
        partial = (x + y) * (x - y) + y * y
        assert partial._nums == [1] and 0 not in partial._nums
        assert partial == x * x


# -- the packed integer core against plain loops on exponent tuples ----------

LARGE_PRIMES = (998_244_353, 1_000_000_007, 2**61 - 1)
SMALL_INTS = st.integers(-6, 6)

# Coefficient kinds, all exact (series hold only ints and Fractions):
# "large_prime" denominators make the common denominator large, and "mixed"
# draws the other three kinds into one series.
COEFFICIENTS = {
    "int": SMALL_INTS,
    "fraction": st.fractions(min_value=-3, max_value=3, max_denominator=12),
    "large_prime": st.builds(Fraction, SMALL_INTS, st.sampled_from(LARGE_PRIMES)),
    "mixed": st.one_of(
        SMALL_INTS,
        st.fractions(min_value=-3, max_value=3, max_denominator=12),
        st.builds(Fraction, SMALL_INTS, st.sampled_from(LARGE_PRIMES)),
    ),
}
KINDS = sorted(COEFFICIENTS)
# nonzero constant terms of each kind
CONSTANTS = {
    "int": st.sampled_from([1, -2, 3]),
    "fraction": st.sampled_from([F(1), F(-2, 3), F(5, 4)]),
    "large_prime": st.builds(Fraction, st.sampled_from([-3, 1, 5]), st.sampled_from(LARGE_PRIMES)),
    "mixed": st.sampled_from([1, F(-7, 2), F(3, 2**61 - 1)]),
}


def exponent(nvars, degree, min_degree=0):
    """An exponent tuple of total degree in [min_degree, degree], as a multiset of slots."""
    slots = st.lists(st.integers(0, nvars - 1), min_size=min(min_degree, degree), max_size=degree)
    return slots.map(lambda picks: tuple(picks.count(i) for i in range(nvars)))


def coefficient_map(nvars, degree, kind, min_degree=0, max_terms=6):
    return st.dictionaries(
        exponent(nvars, degree, min_degree), COEFFICIENTS[kind], max_size=max_terms
    )


def _expected(nvars, degree, plain):
    """What _items gives for a coefficient map, built without the series type."""
    terms = [(k, v) for k, v in plain.items() if sum(k) <= degree and v != 0]
    return nvars, degree, sorted(terms, key=lambda kv: (sum(kv[0]), kv[0]))


class TestPackedCore:
    """Products, inverses and compositions of the packed core, against plain loops."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_mul_trunc(self, kind, data):
        nvars = data.draw(st.integers(1, 9))
        da, db = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
        a = data.draw(coefficient_map(nvars, da, kind))
        b = data.draw(coefficient_map(nvars, db, data.draw(st.sampled_from([kind, "int"]))))
        # up to two degrees above either operand, as for (x - y) . A
        out_degree = data.draw(st.integers(0, max(da, db) + 2))
        sa, sb = TruncatedSeries(nvars, da, a), TruncatedSeries(nvars, db, b)
        assert _items(mul_trunc(sa, sb, out_degree)) == _items(reference.mul(sa, sb, out_degree))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sum_of_products(self, kind, data):
        nvars, out_degree = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 6))
        maps = [
            (data.draw(coefficient_map(nvars, out_degree, kind)),
             data.draw(coefficient_map(nvars, out_degree, data.draw(st.sampled_from([kind, "int"])))))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        pairs = [(TruncatedSeries(nvars, out_degree, a), TruncatedSeries(nvars, out_degree, b))
                 for a, b in maps]
        want = reference.combine([(1, reference.mul(a, b, out_degree)) for a, b in pairs])
        got = _sum_of_pieces(pairs, nvars, out_degree)
        assert _items(got) == _items(want)
        assert got._den == math.lcm(*(F(c).denominator for c in got.coeffs.values()))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_graded_coefficients(self, kind, data):
        # the parts [s_(u,gamma)]_e that fixed_point solves with: S_u = (H^-1 t)_u + z_u -
        # (H^-1 theta)_u by z exponent gamma and v degree e, each keyed by its v exponent;
        # the parts that share (gamma, e) sum to that part of S_u
        v, hess, theta = _drawn_phase(data, kind)
        hinv, N, degree = cramer_inverse(hess), theta[0].nvars, theta[0].trunc_degree
        shift = max(t._shift for t in theta) + data.draw(st.integers(0, 1))
        ids = TruncatedSeries.variables(N, degree)
        for u, (row, parts) in enumerate(zip(hinv, series._solve_parts(hinv, theta, shift))):
            # t_j has the slot of z_j: it adds to the part gamma = 0, e = 1
            t = reference.combine([(h, ids[v + j]) for j, h in enumerate(row)])
            s = reference.combine([(1, ids[v + u])] + [(-h, f) for h, f in zip(row, theta)])
            plain: dict = {((0,) * (N - v), 1): dict(t.coeffs)} if t.coeffs else {}
            for key, c in s.coeffs.items():
                plain.setdefault((key[v:], sum(key[:v])), {})[key[:v] + (0,) * (N - v)] = c
            shared: dict = {}
            for gamma, e, size, (keys, nums, den) in parts:
                assert size == sum(gamma) and keys == sorted(keys) and den > 0
                shared.setdefault((gamma, e), []).append(
                    (1, _series_of((keys, nums, den), N, degree, shift)))
            got = {ge: dict(reference.combine(terms).coeffs) for ge, terms in shared.items()}
            assert got == plain

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_ring_operations(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 8))
        a = data.draw(coefficient_map(nvars, degree, kind))
        b = data.draw(coefficient_map(nvars, degree, data.draw(st.sampled_from([kind, "int"]))))
        c = data.draw(CONSTANTS[kind])
        sa, sb = TruncatedSeries(nvars, degree, a), TruncatedSeries(nvars, degree, b)
        keys = set(a) | set(b)
        cases = [
            (sa + sb, {k: a.get(k, 0) + b.get(k, 0) for k in keys}),
            (sa - sb, {k: a.get(k, 0) - b.get(k, 0) for k in keys}),
            (sa * c, {k: v * c for k, v in a.items()}),
            (-sa, {k: -v for k, v in a.items()}),
            (
                linear_combination([(c, sa), (F(-2, 3), sb), (-1, sb)]),
                {k: c * a.get(k, 0) - F(5, 3) * b.get(k, 0) for k in keys},
            ),
        ]
        for got, plain in cases:
            assert _items(got) == _expected(nvars, degree, plain)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_invert(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 6))
        f = data.draw(coefficient_map(nvars, degree, kind, min_degree=1, max_terms=4))
        f[(0,) * nvars] = data.draw(CONSTANTS[kind])
        s = TruncatedSeries(nvars, degree, f)
        assert _items(s.invert()) == _items(reference.inverse(s))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_compose(self, kind, data):
        outer_n, nvars = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 9))
        outer_D, degree = data.draw(st.integers(0, 6)), data.draw(st.integers(1, 5))
        f = data.draw(coefficient_map(outer_n, outer_D, kind, max_terms=4))
        args = []
        for _ in range(outer_n):
            if data.draw(st.booleans()):
                args.append({unit(nvars, data.draw(st.integers(0, nvars - 1))): 1})
            else:
                dense = coefficient_map(nvars, degree, "int", min_degree=1, max_terms=3)
                args.append(data.draw(dense))
        outer = TruncatedSeries(outer_n, outer_D, f)
        inner = [TruncatedSeries(nvars, degree, arg) for arg in args]
        assert _items(outer.compose(inner)) == _items(reference.compose(outer, inner))

    @pytest.mark.parametrize("nvars", [1, 3, 9])
    @pytest.mark.parametrize("out_degree", [1, 2, 3, 4, 7, 8, 15, 16])
    def test_exponents_reach_the_top_digit(self, nvars, out_degree):
        # One slot takes the whole output degree.  Keys use base 2^bitlen(D),
        # so at D = 2^k - 1 that digit is the largest the base holds, and at
        # D = 2^k a base of D would carry it into the next slot.
        def power(p):
            return tuple(p if i == nvars - 1 else 0 for i in range(nvars))

        for p in range(out_degree + 1):
            a = {power(p): F(1, 3), (0,) * nvars: 2}
            b = {power(out_degree - p): F(-5, 7), unit(nvars, 0): 1}
            da, db = max(p, 1), max(out_degree - p, 1)
            sa, sb = TruncatedSeries(nvars, da, a), TruncatedSeries(nvars, db, b)
            got = mul_trunc(sa, sb, out_degree)
            assert _items(got) == _items(reference.mul(sa, sb, out_degree))
            assert got[power(out_degree)] != 0


def _fields(s):
    return s.nvars, s.trunc_degree, s._shift, s._keys, s._nums, s._den


def _widened(s, wider):
    """``s`` itself, or the same terms at a digit width one wider (truncate keeps the width)."""
    if not wider:
        return s
    return TruncatedSeries(s.nvars, 1 << s._shift, s.coeffs).truncate(s.trunc_degree)


class TestSquares:
    """A series times itself visits each unordered pair of terms once.  The square
    must equal the plain product and, field by field, the product of two equal
    operands that are distinct objects, which runs the ordered pair loop."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_square_equals_the_product_of_equal_operands(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
        a = data.draw(coefficient_map(nvars, degree, kind))
        wider = data.draw(st.booleans())
        sa = _widened(TruncatedSeries(nvars, degree, a), wider)
        sb = _widened(TruncatedSeries(nvars, degree, a), wider)
        out_degree = data.draw(st.integers(0, degree + 2))
        got = mul_trunc(sa, sa, out_degree)
        assert _items(got) == _items(reference.mul(sa, sa, out_degree))
        assert _fields(got) == _fields(mul_trunc(sa, sb, out_degree))

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("wider", [False, True], ids=["own_width", "wider"])
    @pytest.mark.parametrize("terms", [
        {}, {(1,): F(-2, 3)}, {(0,): 5, (1,): -3, (2,): -1}, {(1,): F(1, 2), (2,): F(-5, 6)},
    ], ids=["zero", "one_term", "negative", "den_above_one"])
    def test_square_at_degrees_below_at_and_above(self, nvars, wider, terms):
        degree = 4
        # the terms' exponents spread over the slots: (e,) -> (e, e-1, ...) cut to nvars
        a = {tuple(max(e[0] - i, 0) for i in range(nvars)): v for e, v in terms.items()}
        sa = _widened(TruncatedSeries(nvars, degree, a), wider)
        sb = _widened(TruncatedSeries(nvars, degree, a), wider)
        for out_degree in (degree - 1, degree, degree + 1):
            got = mul_trunc(sa, sa, out_degree)
            assert _items(got) == _items(reference.mul(sa, sa, out_degree))
            assert _fields(got) == _fields(mul_trunc(sa, sb, out_degree))
        assert _fields(sa * sa) == _fields(sa * sb)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_square_piece_in_a_sum_of_products(self, kind, data):
        # a square pair (p, p) among other pairs, so the sum's scale reaches it
        nvars, out_degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
        maps = [data.draw(coefficient_map(nvars, out_degree, kind)) for _ in range(3)]
        a, b, c = (TruncatedSeries(nvars, out_degree, m) for m in maps)
        shift = max(_shift_for(out_degree), a._shift, b._shift, c._shift)
        p, q, r = (_piece_of(s, shift) for s in (a, b, c))
        copy = p and (list(p[0]), list(p[1]), p[2])
        width = shift * nvars
        got = _sum_of_products([(p, p), (q, r)], width, out_degree)
        assert got == _sum_of_products([(p, copy), (q, r)], width, out_degree)


class TestUncutPieces:
    """The sums of one level of ``fixed_point``: sorted homogeneous pieces of degrees k
    and d - k, their pairs in any order, summed at d with no product cut; and the O(1)
    argument checks of ``compose``."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_uncut_sum_of_shuffled_homogeneous_pieces(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 8))
        d = data.draw(st.integers(0, degree))  # the level: every product has degree d
        pairs = []
        for _ in range(data.draw(st.integers(1, 4))):
            k = data.draw(st.integers(0, d))
            a, b = (TruncatedSeries(nvars, degree, data.draw(
                coefficient_map(nvars, e, kind, min_degree=e))) for e in (k, d - k))
            # a square when k = d - k and the draw says so
            pairs.append((a, a) if k == d - k and data.draw(st.booleans()) else (a, b))
        pairs = data.draw(st.permutations(pairs))
        shift = max([_shift_for(degree)] + [s._shift for pair in pairs for s in pair])
        shift += data.draw(st.integers(0, 1))  # the widest digit width or one wider
        # one sorted piece per series, so a square stays one object
        pieces = {id(s): (s._keys_at(shift), s._nums, s._den) if s._keys else None
                  for pair in pairs for s in pair}
        got = _sum_of_products([(pieces[id(a)], pieces[id(b)]) for a, b in pairs],
                               shift * nvars, d)
        # the reference products at the series' degree, d or above, cut nothing
        want = reference.combine([(1, reference.mul(a, b, degree)) for a, b in pairs])
        if got is None:
            assert not want.coeffs
            return
        keys, nums, den = got
        assert keys == sorted(set(keys)) and 0 not in nums
        assert den > 0 and math.gcd(den, *nums) == 1
        assert {k >> shift * nvars for k in keys} == {d}
        assert _series_of(got, nvars, degree, shift) == want

    @pytest.mark.parametrize("nvars", [1, 2, 3, 5])
    @pytest.mark.parametrize("degree", [0, 1, 2, 3, 7, 8, 31, 32])
    @pytest.mark.parametrize("wider", [False, True], ids=["own_width", "wider"])
    def test_bare_variable_reads_the_packed_key(self, nvars, degree, wider):
        # one-term series of degree 0-2 in every slot, coefficients 1 and others
        values = (1, -1, 2, F(1, 2), F(3, 3))
        seen = 0
        for size in range(min(degree, 2) + 1):
            for e in exponents_of_degree(nvars, size):
                for v in values:
                    s = _widened(TruncatedSeries(nvars, degree, {e: v}), wider)
                    assert s._bare_variable() == reference.bare_slot(s)
                    seen += s._bare_variable() is not None
        assert seen == (2 * nvars if degree else 0)  # 1 and 3/3 in each slot

    @pytest.mark.parametrize("shape", ["alone", "with_variable", "after_bare", "dense"])
    @pytest.mark.parametrize("wider", [False, True], ids=["own_width", "wider"])
    @pytest.mark.parametrize("constant", [1, -2, F(1, 3)])
    def test_compose_refuses_an_argument_with_a_constant_term(self, shape, wider, constant):
        x = TruncatedSeries.variables(3, 4)
        c = TruncatedSeries.constant(3, 4, constant)
        bad = _widened({"alone": c, "with_variable": c + x[1], "after_bare": c + x[0],
                        "dense": c + x[0] * x[1] - x[2] * x[2] * x[2]}[shape], wider)
        f = TruncatedSeries(3, 4, {(1, 0, 0): 1, (0, 1, 1): F(-1, 2), (0, 0, 2): 3})
        for args in ([bad, x[1], x[2]], [x[0], x[1], bad], [x[0], bad, x[2] * x[2]]):
            with pytest.raises(ValueError, match="nonzero constant term"):
                f.compose(args)
        # the same argument less its constant term composes
        ok = bad - c.truncate(bad.trunc_degree)
        assert f.compose([x[0], ok, x[2]]) == f.compose([x[0], _widened(ok, not wider), x[2]])


def _product_shift(a, b, out_degree) -> int:
    """The digit width of ``mul_trunc(a, b, out_degree)``: the widest of the factors' and
    the degree's, or the degree's alone when a factor is empty."""
    if not (a.coeffs and b.coeffs):
        return _shift_for(out_degree)
    return max(_shift_for(out_degree), a._shift, b._shift)


class TestReroutedProducts:
    """``mul_trunc`` and ``invert`` through ``_sum_of_products``, against the reference
    product and inverse, at a series' own digit width and one wider; a product takes the
    widest digit width of its factors and its degree, an inverse that of its series."""

    @staticmethod
    def _draw(data, nvars, degree, kind):
        """A series of ``kind`` that may have a nonzero constant term, such as -2 or -2/3."""
        f = data.draw(coefficient_map(nvars, degree, kind, min_degree=1))
        if data.draw(st.booleans()):
            f[(0,) * nvars] = data.draw(CONSTANTS[kind])
        return _widened(TruncatedSeries(nvars, degree, f), data.draw(st.booleans()))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_mul_trunc(self, kind, data):
        nvars, da, db = (data.draw(st.integers(*bounds)) for bounds in ((1, 3), (0, 6), (0, 6)))
        a = self._draw(data, nvars, da, kind)
        b = a if data.draw(st.booleans()) else self._draw(data, nvars, db, kind)  # or a square
        out_degree = data.draw(st.integers(0, max(da, db) + 2))
        got = mul_trunc(a, b, out_degree)
        assert got == reference.mul(a, b, out_degree) and _reduced(got)
        assert got._shift == _product_shift(a, b, out_degree)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_invert(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
        f = data.draw(coefficient_map(nvars, degree, kind, min_degree=1))
        f[(0,) * nvars] = data.draw(CONSTANTS[kind])
        s = _widened(TruncatedSeries(nvars, degree, f), data.draw(st.booleans()))
        got = s.invert()
        assert got == reference.inverse(s) and _reduced(got) and got._shift == s._shift

    @pytest.mark.parametrize("nvars", [1, 2, 3])
    @pytest.mark.parametrize("wider", [False, True], ids=["own_width", "wider"])
    def test_degree_zero_single_terms_and_empty_factors(self, nvars, wider):
        zero, last = (0,) * nvars, unit(nvars, nvars - 1)
        series = [_widened(s, wider) for s in (
            TruncatedSeries.constant(nvars, 0, F(-2, 3)),  # degree 0
            TruncatedSeries.constant(nvars, 4, -5),  # one term, the constant
            TruncatedSeries(nvars, 4, {last: F(3, 4)}),  # one term, no constant
            TruncatedSeries(nvars, 4, {zero: F(-7, 2), unit(nvars, 0): 2, last: F(-1, 3)}),
            TruncatedSeries.zero(nvars, 4),  # the empty factor
        )]
        for a in series:
            for b in series:
                for out_degree in (0, 3, 4, 6):
                    got = mul_trunc(a, b, out_degree)
                    assert got == reference.mul(a, b, out_degree)
                    assert got._shift == _product_shift(a, b, out_degree)
            if a.constant_term:
                got = a.invert()
                assert got == reference.inverse(a) and got._shift == a._shift
            else:
                with pytest.raises(ValueError, match="constant term is zero"):
                    a.invert()


class TestOldLoops:
    """Loops that build their lists in key order, at a series' own digit width and one
    wider, against the reference derivative, variable mover, record and product."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_diff(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 7))
        f = TruncatedSeries(nvars, degree, data.draw(coefficient_map(nvars, degree, kind)))
        f = _widened(f, data.draw(st.booleans()))
        # digits of xi may exceed every exponent of f, and xi = 0 is the order-0 derivative
        xi = data.draw(st.tuples(*[st.integers(0, 3)] * nvars))
        got = f.diff(xi)
        assert got == reference.diff(f, xi) and _reduced(got) and got._shift == f._shift

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_remap_and_record(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 7))
        f = TruncatedSeries(nvars, degree, data.draw(coefficient_map(nvars, degree, kind)))
        f = _widened(f, data.draw(st.booleans()))
        # few targets make many-to-one maps, which add exponents and merge keys
        new_nvars = data.draw(st.integers(1, 6))
        var_map = data.draw(st.lists(st.integers(0, new_nvars - 1),
                                     min_size=nvars, max_size=nvars))
        # compose on bare arguments moves variables; it packs at the width of its arguments
        got = f.compose([TruncatedSeries.variable(new_nvars, degree, t) for t in var_map])
        assert got == reference.rename(f, new_nvars, var_map)
        assert f.to_record() == reference.record(f)
        assert got.to_record() == reference.record(got)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_sum_of_products(self, kind, data):
        nvars, out_degree = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 6))
        maps = [data.draw(coefficient_map(nvars, out_degree, kind))
                for _ in range(2 * data.draw(st.integers(1, 4)))]
        series = [TruncatedSeries(nvars, out_degree, m) for m in maps]
        shift = _shift_for(out_degree) + data.draw(st.integers(0, 1))
        triples = [_piece_of(s, shift) for s in series]
        got = _sum_of_products(list(zip(triples[::2], triples[1::2])), shift * nvars, out_degree)
        want = reference.combine([(1, reference.mul(a, b, out_degree))
                                  for a, b in zip(series[::2], series[1::2])])
        assert _series_of(got, nvars, out_degree, shift) == want
        assert got is None or (got[0] == sorted(got[0]) and math.gcd(got[2], *got[1]) == 1)

    @pytest.mark.parametrize("nvars", [1, 3])
    def test_zero_series(self, nvars):
        plain = TruncatedSeries.zero(nvars, 4)
        for zero in (plain, _widened(plain, True)):
            for xi in ((0,) * nvars, unit(nvars, 0), (2,) * nvars):
                got = zero.diff(xi)
                assert got == reference.diff(zero, xi)
                assert _fields(got)[2:] == (zero._shift, [], [], 1)
            moved = zero.compose([TruncatedSeries.variable(1, 4, 0)] * nvars)
            assert moved == reference.rename(zero, 1, [0] * nvars)
            assert zero.to_record() == reference.record(zero)
            assert _fields(-zero) == _fields(3 * zero) == _fields(zero)


SCALARS = st.one_of(SMALL_INTS, st.fractions(min_value=-3, max_value=3, max_denominator=12))


class TestFusedDerivatives:
    """Sums that differentiate their terms, at a series' own digit width and one wider,
    against the same sums in the reference, each derivative taken from its definition;
    a sum takes the widest digit width of its terms.  Derivative orders may exceed every
    exponent, so terms vanish."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_linear_combination_of_derivatives(self, kind, data):
        n = data.draw(st.integers(1, 3))
        nvars, out_degree = 3 * n, data.draw(st.integers(0, 4))
        terms = []
        for _ in range(data.draw(st.integers(1, 4))):
            xi = data.draw(st.tuples(*[st.integers(0, 2)] * nvars))
            order = sum(xi)
            # at output degree 0, an input of degree below |xi| is cut to 0 as well
            degree = out_degree + order if out_degree else data.draw(st.integers(0, order))
            f = TruncatedSeries(nvars, degree, data.draw(coefficient_map(nvars, degree, kind)))
            terms.append((data.draw(SCALARS), _widened(f, data.draw(st.booleans())), xi))
        got = linear_combination(terms)
        assert got == reference.combine(terms) and _reduced(got)
        assert got.trunc_degree == out_degree
        assert got._shift == max(s._shift for _, s, _ in terms)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_terms_with_and_without_derivatives(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 5))
        slot = data.draw(st.integers(0, nvars - 1))
        f, g = (TruncatedSeries(nvars, d, data.draw(coefficient_map(nvars, d, kind)))
                for d in (degree, degree + 1))
        terms = [(F(-2, 3), f), (data.draw(SCALARS), g, unit(nvars, slot))]
        got = linear_combination(terms)
        assert got == reference.combine(terms) and got._shift == max(f._shift, g._shift)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_y_gradient_average(self, kind, data):
        n, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
        pairs = [
            (data.draw(SCALARS),
             _widened(TruncatedSeries(3 * n, degree, data.draw(coefficient_map(3 * n, degree, kind))),
                      data.draw(st.booleans())))
            for _ in range(data.draw(st.integers(1, 3)))
        ]
        got = y_gradient_average(pairs, n)
        assert got == reference.y_gradient_average(pairs, n)
        assert all(_reduced(s) and s._shift == max(f._shift for _, f in pairs) for s in got)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("wider", [False, True], ids=["own_width", "wider"])
    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_zero_and_low_degree_inputs(self, n, wider, degree):
        nvars = 3 * n
        zero = _widened(TruncatedSeries.zero(nvars, degree), wider)
        # a constant and every linear monomial: only y and w slots of degree 1 survive
        low = _widened(TruncatedSeries(nvars, degree, {
            **{(0,) * nvars: F(5, 7)}, **{unit(nvars, i): F(i - 2, 3) for i in range(nvars)},
        }), wider)
        for f in (zero, low):
            for pairs in ([(1, f)], [(F(1, 2), f), (-3, zero)], [(1, f), (-1, f)]):
                got = y_gradient_average(pairs, n)
                assert got == reference.y_gradient_average(pairs, n)
                assert all(_reduced(s) and s._shift == f._shift for s in got)
            for xi in ((0,) * nvars, unit(nvars, 0), unit(nvars, nvars - 1), (1,) * nvars):
                terms = [(F(-1, 2), f, xi), (2, f, xi)]
                got = linear_combination(terms)
                assert got == reference.combine(terms) and _reduced(got)
                assert f.diff(xi) == reference.diff(f, xi) and got._shift == f._shift

    def test_a_vanishing_sum_is_the_zero_series(self):
        x, y, w = TruncatedSeries.variables(3, 4)
        f = x * y * y + w * w
        # D_y f = 2xy and D_w f = 2w: each term of f dies under one of them
        g = (x * y + w).truncate(3)
        got = linear_combination([(1, f, (0, 1, 0)), (1, f, (0, 0, 1)), (-2, g)])
        zero = TruncatedSeries.zero(3, 3)
        assert (got._keys, got._nums, got._den) == ([], [], 1) and got == zero
        (average,) = y_gradient_average([(1, f), (-1, f)], 1)
        assert (average._keys, average._nums, average._den) == ([], [], 1) and average == zero

    @pytest.mark.parametrize("xi", [(1, 0), (0, 1, 0, 0), (1, -1, 0)], ids=["short", "long", "negative"])
    def test_a_bad_multi_index_is_refused(self, xi):
        f = TruncatedSeries.variable(3, 4, 0)
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            linear_combination([(1, f), (1, f, xi)])
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            f.diff(xi)

    def test_mismatched_terms_are_refused(self):
        f3, f4 = TruncatedSeries.zero(3, 3), TruncatedSeries.zero(3, 4)
        with pytest.raises(ValueError, match="nvars mismatch"):
            linear_combination([(1, f3), (1, TruncatedSeries.zero(2, 3))])
        with pytest.raises(ValueError, match="truncation degree mismatch"):
            linear_combination([(1, f3, (0, 1, 0)), (1, f4, (0, 1, 0))])
        with pytest.raises(ValueError, match="truncation degree mismatch"):
            linear_combination([(1, f3), (1, f4, (1, 0, 0)), (1, f4)])
        # output degrees agree: degree 4 less one derivative is degree 3
        assert linear_combination([(1, f3), (1, f4, (1, 0, 0))]) == f3
        with pytest.raises(ValueError, match="nvars mismatch"):
            y_gradient_average([(1, f3), (1, TruncatedSeries.zero(2, 3))], 1)
        with pytest.raises(ValueError, match="truncation degree mismatch"):
            y_gradient_average([(1, f3), (1, f4)], 1)
        with pytest.raises(ValueError, match="expected 6 variables"):
            y_gradient_average([(1, f3)], 2)


class TestDerivativesInsideOtherSums:
    """The derivative scan that starts at degree |xi|, and ``det`` of ``(s, xi)`` entries,
    against the reference derivative and Leibniz determinant."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_scan_from_degree_xi(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 6))
        f = _widened(TruncatedSeries(nvars, degree, data.draw(coefficient_map(nvars, degree, kind))),
                     data.draw(st.booleans()))
        xi = data.draw(st.tuples(*[st.integers(0, 3)] * nvars).filter(any))
        shift = f._shift + data.draw(st.integers(0, 1))
        scale = data.draw(st.sampled_from([1, -2, 7]))
        keys, nums = _derived(f, xi, shift, scale, {})
        assert keys == sorted(keys) and 0 not in nums
        got = _series_of(keys and (keys, nums, f._den), nvars, max(0, degree - sum(xi)), shift)
        assert got == reference.combine([(scale, f, xi)])

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_det_of_derivative_entries(self, kind, data):
        size, nvars, degree = (data.draw(st.integers(*b)) for b in ((1, 3), (1, 3), (0, 4)))
        rows, series_rows = [], []
        for _ in range(size):
            row, series_row = [], []
            for _ in range(size):
                xi = data.draw(st.tuples(*[st.integers(0, 1)] * nvars))
                d = degree + sum(xi)
                entry = TruncatedSeries(nvars, d, data.draw(coefficient_map(nvars, d, kind)))
                entry = _widened(entry, data.draw(st.booleans()))
                row.append((entry, xi) if data.draw(st.booleans()) or any(xi) else entry)
                series_row.append(reference.diff(entry, xi))
            rows.append(row)
            series_rows.append(series_row)
        got = det(rows)
        assert got == reference.det(series_rows) and _reduced(got)

    def test_det_refuses_derivatives_of_other_degrees(self):
        f3, f4 = TruncatedSeries.one(2, 3), TruncatedSeries.one(2, 4)
        with pytest.raises(ValueError, match="truncation degree"):
            det([[(f3, (1, 0)), f3], [f3, f3]])
        assert det([[(f4, (1, 0)), f3], [f3, (f4, (0, 1))]]) == TruncatedSeries.zero(2, 3) - 1
        with pytest.raises(ValueError, match="nvars"):
            det([[f3, TruncatedSeries.one(1, 3)], [f3, f3]])


class TestTrustedConstants:
    """Variables and constants store their one piece directly: field-equal to the validating
    constructor, and refused where it refuses."""

    @pytest.mark.parametrize("nvars, degree", [(1, 0), (1, 1), (2, 7), (3, 8), (6, 11), (4, 16)])
    def test_field_equal_to_the_constructor(self, nvars, degree):
        for i in range(nvars):
            assert _fields(TruncatedSeries.variable(nvars, degree, i)) == _fields(
                TruncatedSeries(nvars, degree, {unit(nvars, i): 1}))
        assert [_fields(v) for v in TruncatedSeries.variables(nvars, degree, range(1, nvars))] == [
            _fields(TruncatedSeries(nvars, degree, {unit(nvars, i): 1})) for i in range(1, nvars)]
        for value in (0, 1, -3, F(2, 6), F(0)):
            assert _fields(TruncatedSeries.constant(nvars, degree, value)) == _fields(
                TruncatedSeries(nvars, degree, {(0,) * nvars: value}))
        assert _fields(TruncatedSeries.one(nvars, degree)) == _fields(
            TruncatedSeries(nvars, degree, {(0,) * nvars: 1}))
        assert _fields(TruncatedSeries.zero(nvars, degree)) == _fields(
            TruncatedSeries(nvars, degree, {}))

    @pytest.mark.parametrize("i", [-1, 3, 7])
    def test_a_slot_outside_the_variables_is_refused(self, i):
        with pytest.raises(ValueError):
            TruncatedSeries.variable(3, 4, i)
        with pytest.raises(ValueError):
            TruncatedSeries.variables(3, 4, [0, i])

    def test_bad_sizes_and_values_are_refused(self):
        for make in (lambda n, d: TruncatedSeries.variable(n, d, 0), TruncatedSeries.zero,
                     TruncatedSeries.one, lambda n, d: TruncatedSeries.constant(n, d, 2)):
            with pytest.raises(ValueError, match="trunc_degree"):
                make(2, -1)
            with pytest.raises(ValueError, match="nvars"):
                make(0, 3)
        with pytest.raises(TypeError, match="exact"):
            TruncatedSeries.constant(2, 3, 0.5)


# wide numerators over the large primes: conversions to float must round
WIDE = st.builds(Fraction, st.integers(-(2**80), 2**80), st.sampled_from(LARGE_PRIMES))
POINT_VALUES = st.complex_numbers(max_magnitude=1.5, allow_nan=False, allow_infinity=False)


def _bits(z):
    return repr(z.real), repr(z.imag)


class TestPackedReads:
    """eval, == and [] read the packed form; each must agree with the coeffs view."""

    @pytest.mark.parametrize("kind", KINDS + ["wide"])
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_eval_matches_view_loop_bit_for_bit(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 8))
        values = WIDE if kind == "wide" else COEFFICIENTS[kind]
        plain = data.draw(st.dictionaries(exponent(nvars, degree), values, max_size=8))
        points = data.draw(st.lists(st.lists(POINT_VALUES, min_size=nvars, max_size=nvars),
                                    min_size=1, max_size=3))
        s = TruncatedSeries(nvars, degree, plain)
        before = [s.eval(pt) for pt in points]  # the float plan, no coeffs view yet
        assert s._coeffs is None
        want = [reference.evaluate(s, pt) for pt in points]  # builds the view
        after = [s.eval(pt) for pt in points]
        viewed_first = TruncatedSeries(nvars, degree, plain)
        assert viewed_first.coeffs == s.coeffs  # its view exists before its first eval
        fresh = [viewed_first.eval(pt) for pt in points]
        for got in (before, after, fresh):
            assert [_bits(z) for z in got] == [_bits(z) for z in want]

    @pytest.mark.parametrize("nvars", [1, 4, 9])
    def test_eval_of_the_empty_series(self, nvars):
        s = TruncatedSeries.zero(nvars, 5)
        pt = [0.3 - 0.1j] * nvars
        assert _bits(s.eval(pt)) == _bits(reference.evaluate(s, pt)) == _bits(0j)
        with pytest.raises(ValueError, match="length"):
            s.eval(pt + [0])

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_equality_across_bases(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 6))
        plain = data.draw(coefficient_map(nvars, degree, kind))
        a = TruncatedSeries(nvars, degree, plain)
        b = lift(a, 40).truncate(degree)  # the same terms at a wider base
        assert b._shift > a._shift
        assert a == b and b == a
        other = b + TruncatedSeries.variable(nvars, degree, nvars - 1) if degree else b + 1
        assert other != a and a != other
        assert a != TruncatedSeries(nvars, degree + 1, plain)

    def test_compose_result_equals_constructor_terms(self):
        # arguments cut from degree 16 keep base 2^5, so the composite does too
        x, y = TruncatedSeries.variables(2, 16)
        args = [(x + y * y).truncate(3), (x * y - y).truncate(3)]
        f = TruncatedSeries(2, 3, {(1, 0): F(1, 3), (1, 1): -2, (0, 3): F(5, 7)})
        got = f.compose(args)
        built = TruncatedSeries(2, 3, got.coeffs)
        assert got._shift > built._shift
        assert got == built and built == got
        assert got == reference.compose(f, args)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_item_lookup_matches_view(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 9)), data.draw(st.integers(0, 8))
        plain = data.draw(coefficient_map(nvars, degree, kind))
        s = TruncatedSeries(nvars, degree, plain)
        probes = data.draw(st.lists(exponent(nvars, degree + 3), max_size=6)) + list(plain)
        probes += [(-1,) + (0,) * (nvars - 1), (0,) * (nvars + 1), (2**s._shift,) + (0,) * (nvars - 1)]
        got = [(s[k], type(s[k])) for k in probes]
        view = s.coeffs
        assert got == [(view.get(k, 0), type(view.get(k, 0))) for k in probes]
        const = view.get((0,) * nvars, 0)
        assert (s.constant_term, type(s.constant_term)) == (const, type(const))

    def test_lift_keeps_terms_and_refuses_to_lower(self):
        f = TruncatedSeries(2, 3, {(1, 2): F(2, 3), (0, 0): 4})
        g = lift(f, 9)
        assert g.trunc_degree == 9
        assert g == TruncatedSeries(2, 9, {(1, 2): F(2, 3), (0, 0): 4})
        assert lift(f, 3) == f
        with pytest.raises(ValueError, match="lower"):
            lift(f, 2)


class TestStructure:
    def test_remap_merges_blocks(self):
        # f(x, y) with y set equal to x: x*y + y^2 -> 2 x^2
        f = TruncatedSeries(2, 3, {(1, 1): 1, (0, 2): 1})
        x = TruncatedSeries.variable(1, 3, 0)
        assert f.compose([x, x]) == TruncatedSeries(1, 3, {(2,): 2})

    def test_remap_relocates(self):
        f = TruncatedSeries(2, 3, {(1, 2): 5})
        z, x = TruncatedSeries.variable(3, 3, 2), TruncatedSeries.variable(3, 3, 0)
        g = f.compose([z, x])
        assert g == TruncatedSeries(3, 3, {(2, 0, 1): 5})

    def test_fixed_point_of_a_geometric_series(self):
        # theta = z - x z in (x, z) blocks, H = 1, inverts to z = t / (1 - x)
        x, t = TruncatedSeries.variables(2, 6)
        (z,), powers = fixed_point([[1]], [t - x * t])
        assert powers == {(1,): z}  # theta is linear in z: the table holds z alone
        assert z == TruncatedSeries(2, 6, {(k, 1): 1 for k in range(6)})
        assert z == t + x * z

    @pytest.mark.parametrize("lin_constant, rest_constant, rest_linear", [
        (1, 0, 0), (0, 1, 0), (0, 0, 1),
    ], ids=["lin_constant", "rest_constant", "rest_linear_constant"])
    def test_fixed_point_refuses_an_implicit_solve(self, lin_constant, rest_constant, rest_linear):
        # z = (t + lin_constant) + (x z + rest_constant + rest_linear z) is theta = t for
        # theta = (1 - rest_linear) z - x z - lin_constant - rest_constant and hinv = [[1]]:
        # a constant term of theta, or an hinv that does not invert its z-linear part
        x, t = TruncatedSeries.variables(2, 6)
        theta = (1 - rest_linear) * t - x * t - lin_constant - rest_constant
        with pytest.raises(ValueError, match="implicit"):
            fixed_point([[1]], [theta])

    def test_exponent_enumeration(self):
        assert list(exponents_of_degree(2, 2)) == [(2, 0), (1, 1), (0, 2)]
        with pytest.raises(ValueError, match="nvars"):
            list(exponents_of_degree(0, 2))

    def test_unit_and_multi_factorial(self):
        assert unit(3, 0) == (1, 0, 0) and unit(3, 2) == (0, 0, 1)
        assert TruncatedSeries.variable(3, 2, 1) == TruncatedSeries(3, 2, {(0, 1, 0): 1})
        assert multi_factorial((3, 0, 2)) == 12

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_power_chain_closes_as_the_rescan_did(self, data):
        nvars = data.draw(st.integers(1, 4))
        top = data.draw(st.dictionaries(
            st.tuples(*[st.integers(0, 4)] * nvars), st.integers(0, 12), max_size=8))
        got = close_power_chain(dict(top))
        want = dict(top)  # the rescan: every exponent scanned once per size, largest first
        for size in range(max(map(sum, want), default=0), 1, -1):
            for gamma in [g for g in want if sum(g) == size]:
                lower = power_step(gamma)[1]
                want[lower] = max(want.get(lower, 0), want[gamma] - 1)
        assert list(got.items()) == list(want.items())

    def test_power_step_takes_the_last_nonzero_slot(self):
        assert power_step((2, 0, 3, 0)) == (2, (2, 0, 2, 0))
        assert power_step((1, 0)) == (0, (0, 0))
        x, y = TruncatedSeries.variables(2, 4)
        cache: dict = {}
        (x * x + y * y * y).compose([x + y, x - y], cache=cache)
        # each entry is built at its own degree, from the entry below it in the chain
        for gamma, p in cache.items():
            j, lower = power_step(gamma)
            if any(lower):
                assert p == mul_trunc(cache[lower], [x + y, x - y][j], p.trunc_degree)

    def test_immutability(self):
        f = univar(2, [1])
        with pytest.raises(AttributeError):
            f.nvars = 3

    def test_float_coefficient_rejected(self):
        with pytest.raises(TypeError, match="exact"):
            TruncatedSeries(1, 2, {(1,): 0.5})

    def test_truncate_refuses_a_negative_degree(self):
        f = TruncatedSeries(2, 3, {(1, 0): 1, (0, 0): 2})
        with pytest.raises(ValueError, match="non-negative"):
            f.truncate(-1)
        assert f.truncate(0) == TruncatedSeries.constant(2, 0, 2)


class TestSerialization:
    def test_rational_roundtrip_lossless(self):
        rng = random.Random(31)
        f = random_series(rng, 3, 5)
        assert from_json(to_json(f)) == f

    def test_record_shape(self):
        f = TruncatedSeries(1, 2, {(1,): F(-3, 7)})
        rec = f.to_record()
        assert rec["mode"] == "rational"
        assert rec["terms"] == [{"index": [1], "num": -3, "den": 7}]

    def test_non_rational_mode_rejected(self):
        rec = TruncatedSeries(1, 2, {(1,): F(-3, 7)}).to_record()
        rec["mode"] = "float"
        with pytest.raises(ValueError, match="mode"):
            TruncatedSeries.from_record(rec)

    @pytest.mark.parametrize("fields,term,match", [
        ({"nvars": 2.0}, {}, "nvars and trunc_degree"),
        ({"nvars": True}, {}, "nvars and trunc_degree"),
        ({"trunc_degree": 2.0}, {}, "nvars and trunc_degree"),
        ({"trunc_degree": True}, {}, "nvars and trunc_degree"),
        ({}, {"num": True}, "integer exponents"),
        ({}, {"den": True}, "integer exponents"),
        ({}, {"num": 1.5}, "integer exponents"),
        ({}, {"den": 0}, "den != 0"),
        ({}, {"index": [True, 0]}, "integer exponents"),
        ({}, {"index": [1.0, 0]}, "integer exponents"),
    ])
    def test_non_integer_fields_rejected(self, fields, term, match):
        # bool is an int subclass and 2.0 == 2, so JSON true or 2.0 would otherwise pass
        rec = TruncatedSeries(2, 2, {(1, 0): F(-3, 7)}).to_record()
        rec.update(fields)
        rec["terms"][0].update(term)
        with pytest.raises(ValueError, match=match):
            TruncatedSeries.from_record(rec)


def _drawn_phase(data, kind) -> tuple:
    """(v, H, theta): n <= 2 series theta_u = (H z)_u + a v-linear part + terms of
    valuation >= 2 in v <= 2 variables v and the n of z, H invertible."""
    n, v, degree = (data.draw(st.integers(*b)) for b in ((1, 2), (1, 2), (2, 5)))
    entries = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    hess = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    assume(reference.det_of_scalars(hess) != 0)
    theta = []
    for row in hess:
        f = data.draw(coefficient_map(v + n, degree, kind, 1))
        f = {k: c for k, c in f.items() if sum(k) > 1 or not any(k[v:])}
        f.update({unit(v + n, v + j): h for j, h in enumerate(row) if h})
        theta.append(TruncatedSeries(v + n, degree, f))
    return v, hess, theta


def _reduced(s) -> bool:
    """The stored piece of ``s`` is what ``_piece`` returns: no zero numerator, a positive
    denominator and no common factor of the denominator and the numerators."""
    return 0 not in s._nums and s._den > 0 and math.gcd(s._den, *s._nums) == 1


class TestOneReductionPerResult:
    """Products, inverses, fixed points and determinants store the piece that
    ``_sum_of_products`` reduced, with no second reduction; the piece must already be
    reduced, and each must equal the reference (``det`` its Leibniz sum)."""

    @staticmethod
    def _entry(data, nvars, degree, kind):
        """A series of ``kind``, at its own digit width or one wider, zero one time in four."""
        if data.draw(st.integers(0, 3)) == 0:
            return TruncatedSeries.zero(nvars, degree)
        f = TruncatedSeries(nvars, degree, data.draw(coefficient_map(nvars, degree, kind)))
        return _widened(f, data.draw(st.booleans()))

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_det_matches_the_cofactor_sum(self, kind, data):
        size, nvars, degree = (data.draw(st.integers(*b)) for b in ((1, 3), (1, 2), (0, 4)))
        rows = [[self._entry(data, nvars, degree, kind) for _ in range(size)] for _ in range(size)]
        got = det(rows)
        # the expansion runs at one digit width, the widest of D and the entries, where the
        # cofactor sum takes the widest of the factors of its live products
        assert got._shift == max(_shift_for(degree), *(s._shift for row in rows for s in row))
        assert got == reference.det(rows)
        assert _reduced(got)

    def test_det_with_denominators_and_zero_entries(self):
        x, y = TruncatedSeries.variables(2, 3)
        zero = TruncatedSeries.zero(2, 3)
        wide = _widened(F(1, 3) * x * y + F(5, 7), True)
        rows = [[F(1, 2) + x, zero, wide], [y * F(2, 5), 1 - x * y, zero],
                [zero, x * F(-3, 4), wide]]
        got = det(rows)
        assert got == reference.det(rows) and _reduced(got) and got._shift == wide._shift
        # every product has a zero factor; the wide entry still sets the digit width
        dead = [[zero, wide], [zero, wide]]
        assert det(dead) == reference.det(dead)
        assert _fields(det(dead)) == (2, 3, wide._shift, [], [], 1) != _fields(zero)

    def test_det_refuses_entries_of_other_degrees(self):
        with pytest.raises(ValueError, match="truncation degree"):
            det([[TruncatedSeries.one(1, 2), TruncatedSeries.one(1, 3)]] * 2)

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_products_and_inverses_store_reduced_pieces(self, kind, data):
        nvars, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 6))
        a, b = (self._entry(data, nvars, degree, kind) for _ in range(2))
        out_degree = data.draw(st.integers(0, degree + 2))
        assert _reduced(mul_trunc(a, b, out_degree)) and _reduced(mul_trunc(a, a, out_degree))
        f = data.draw(coefficient_map(nvars, degree, kind, min_degree=1))
        f[(0,) * nvars] = data.draw(CONSTANTS[kind])
        s = _widened(TruncatedSeries(nvars, degree, f), data.draw(st.booleans()))
        assert _reduced(s.invert()) and s.invert() == reference.inverse(s)

    @staticmethod
    def _check_fixed_point(v, hess, theta) -> tuple:
        """Check the solve of ``theta`` against the reference; returns its table and the
        one that composing theta through its z caches."""
        z, powers = fixed_point(cramer_inverse(hess), theta)
        assert all(_reduced(s) for s in (*z, *powers.values()))
        assert z == reference.fixed_point(cramer_inverse(hess), theta)
        assert powers == reference.table_entries(powers, z)
        # every entry is what composing theta through z caches under its key, cut at the
        # entry's degree; when a z_j is bare a composition also raises the other z alone,
        # and may read such a power higher than the solve built it
        ids, cache = TruncatedSeries.variables(theta[0].nvars, theta[0].trunc_degree), {}
        for u, t in enumerate(theta):
            assert t.compose(ids[:v] + z, cache=cache) == ids[v + u]
        assert powers.keys() <= cache.keys()
        assert all(p == cache[key].truncate(p.trunc_degree) for key, p in powers.items())
        # a composition rebuilds a seeded entry that is too low for it
        seeded = dict(powers)
        for u, t in enumerate(theta):
            assert t.compose(ids[:v] + z, cache=seeded) == ids[v + u]
        if all(reference.bare_slot(s) is None for s in z):
            assert powers == cache
        return powers, cache

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_fixed_points_store_reduced_pieces(self, kind, data):
        self._check_fixed_point(*_drawn_phase(data, kind))

    def test_a_bare_z_j_leaves_a_power_to_the_composition(self):
        # a draw of the test above (v = 2, D = 3): theta_1 = z_a solves to the bare t_1,
        # so composing theta_0 = z_b + z_a z_b^2 caches z_b^2, which no chain of the solve
        # builds; the hypothesis test draws it only now and then
        hess = [[F(0), F(1)], [F(1), F(0)]]
        theta = [TruncatedSeries(4, 3, {(0, 0, 0, 1): F(1), (0, 0, 1, 2): F(1)}),
                 TruncatedSeries(4, 3, {(0, 0, 1, 0): F(1)})]
        powers, cache = self._check_fixed_point(2, hess, theta)
        assert set(cache) - set(powers) == {(2,)}

    def test_a_bare_z_j_can_leave_a_power_below_the_composition(self):
        # a draw of the test above (v = 1, D = 4): z_0 solves to the bare t_1, and the
        # solve builds z_1^2 through degree 2 for the term v^2 z_1^2, while composing
        # theta_0 = z_1 + z_0 z_1^2 + v^2 z_1^2 moves z_0 and reads z_1^2 through degree 3
        hess = [[F(0), F(1)], [F(1), F(0)]]
        theta = [TruncatedSeries(3, 4, {(0, 0, 1): F(1), (0, 1, 2): F(1), (2, 0, 2): F(1)}),
                 TruncatedSeries(3, 4, {(0, 1, 0): F(1)})]
        powers, cache = self._check_fixed_point(1, hess, theta)
        assert set(powers) == set(cache) == {(1,), (2,)}
        assert (powers[(2,)].trunc_degree, cache[(2,)].trunc_degree) == (2, 3)
