"""Polarization, phase geometry, diastasis, and the contour check."""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman import potential, series
from bergman.chsc import delta0_taylor_coeffs
from bergman.coefficients import amplitude_from_b, bergman_coefficients
from bergman.kernel import PairEvaluator
from bergman.potential import (
    GeometryPack,
    _hessian_inverse,
    _nonpositive_minor,
    PotentialSpec,
    SpecValidationError,
    build_delta0,
    build_geometry,
    build_theta,
    check_good_contour,
    invert_theta,
    make_preset,
    polarize,
    preset_chsc,
    preset_flat,
    preset_quartic,
)
from bergman.series import TruncatedSeries, exponents_of_degree, mul_trunc, unit
from bergman.transport import first_amplitude, reconstruct_coefficients, transport_chain
import reference
from oracles import amplitudes_recomputed, collapses_recomputed, cramer_inverse, write_spec

F = Fraction


@pytest.fixture(scope="module")
def chsc11_geom():
    return build_geometry(preset_chsc(1, 1, 10))


@pytest.fixture(scope="module")
def quartic_geom():
    return build_geometry(preset_quartic(1, F(1, 10), 10))


def hessian_spec(rows):
    """A spec whose only terms are the mixed Hessian entries ``rows``."""
    n = len(rows)
    coeffs = {(unit(n, i), unit(n, j)): v for i, row in enumerate(rows) for j, v in enumerate(row) if v}
    return PotentialSpec(n, 4, 0.3, coeffs)


def conjugated(q, d):
    """q diag(d) q^T, exactly."""
    return [[sum(q[i][l] * d[l] * q[j][l] for l in range(len(d))) for j in range(len(d))]
            for i in range(len(d))]


ROTATION = [[F(3, 5), F(-4, 5)], [F(4, 5), F(3, 5)]]
ROTATED = conjugated(ROTATION, [F(1, 3), F(2)])


class TestHessianMinEigenvalue:
    @pytest.mark.parametrize("rows,smallest", [
        ([[F(2, 7)]], F(2, 7)),
        ([[F(1), F(1, 4)], [F(1, 4), F(1)]], F(3, 4)),
        (ROTATED, F(1, 3)),
        # 3x3 blocks: the rotated pair beside a larger and a smaller eigenvalue
        ([[F(7, 10), 0, 0], [0, *ROTATED[0]], [0, *ROTATED[1]]], F(1, 3)),
        ([[*ROTATED[0], 0], [*ROTATED[1], 0], [0, 0, F(1, 5)]], F(1, 5)),
    ])
    def test_nearest_float_of_the_exact_eigenvalue(self, rows, smallest):
        spec = hessian_spec(rows)
        spec.validate()
        assert spec.hessian_min_eigenvalue() == float(smallest)


class TestValidation:
    def test_presets_validate(self):
        for spec in (preset_flat(2, 6), preset_chsc(2, -1, 8), preset_quartic(1, F(1, 10), 8)):
            spec.validate()

    def test_c00_rejected(self):
        spec = preset_flat(1, 4)
        bad = PotentialSpec(1, 4, 0.5, {**spec.coeffs, ((0,), (0,)): F(1)})
        with pytest.raises(SpecValidationError, match="c00"):
            bad.validate()

    def test_hermitian_rejected(self):
        bad = PotentialSpec(
            1, 4, 0.5, {((1,), (1,)): F(1), ((2,), (1,)): F(1)}
        )
        with pytest.raises(SpecValidationError, match="hermitian"):
            bad.validate()

    def test_linear_term_rejected(self):
        bad = PotentialSpec(
            1, 4, 0.5, {((1,), (1,)): F(1), ((1,), (0,)): F(1), ((0,), (1,)): F(1)}
        )
        with pytest.raises(SpecValidationError, match="linear"):
            bad.validate()

    def test_indefinite_hessian_rejected(self):
        bad = PotentialSpec(1, 4, 0.5, {((1,), (1,)): F(-1)})
        with pytest.raises(SpecValidationError, match="positive"):
            bad.validate()

    @pytest.mark.parametrize("field,value,match", [
        ("n", True, "integers"),
        ("trunc_degree", True, "integers"),
        ("eval_radius", math.inf, "finite"),
        ("eval_radius", math.nan, "positive"),
        # a radius must be a JSON number: float() would read true as 1.0 and "0.3" as 0.3
        ("eval_radius", True, "eval_radius must be a number"),
        ("eval_radius", "0.3", "eval_radius must be a number"),
    ])
    def test_bool_sizes_and_unbounded_radius_rejected(self, field, value, match):
        # bool is an int subclass, so JSON true would otherwise read as 1
        record = {**preset_flat(1, 4).to_record(), field: value}
        with pytest.raises(SpecValidationError, match=match):
            PotentialSpec.from_record(record).validate()

    @pytest.mark.parametrize("field", ["num", "den"])
    def test_bool_term_value_rejected(self, field):
        record = preset_flat(1, 4).to_record()
        record["terms"][0][field] = True
        with pytest.raises(SpecValidationError, match="num and den must be integers"):
            PotentialSpec.from_record(record)

    def test_failing_minor_is_named(self):
        bad = hessian_spec([[F(1), F(2)], [F(2), F(1)]])
        with pytest.raises(SpecValidationError, match="minor of size 2 is not positive"):
            bad.validate()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_leading_minors_by_elimination_and_by_cofactors(self, data):
        # symmetric matrices of small rationals, the diagonal raised so that every size
        # of failing minor, and none, occurs; shifted by 0 or by a drawn rational
        n = data.draw(st.integers(1, 5))
        entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
        raise_by = data.draw(st.integers(0, 3 * n))
        upper = {(i, j): data.draw(entry) + raise_by * (i == j)
                 for i in range(n) for j in range(i, n)}
        rows = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
        shift = data.draw(st.one_of(st.just(0), entry))
        shifted = [[v - shift * (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)]
        want = next((size for size in range(1, n + 1)
                     if reference.det_of_scalars([r[:size] for r in shifted[:size]]) <= 0), 0)
        assert _nonpositive_minor(rows, shift) == want

    def test_flat_at_n12_validates_at_once(self):
        # the cofactor minors took 14.9 s at n=10 and would take about half an hour at n=12
        spec = make_preset("flat", 12, 3)
        start = time.perf_counter()
        spec.validate()
        assert spec.hessian_min_eigenvalue() == 1.0
        assert time.perf_counter() - start < 0.5

    def test_bool_exponent_rejected(self):
        bad = PotentialSpec(1, 4, 0.5, {((True,), (True,)): F(1)})
        with pytest.raises(SpecValidationError, match="malformed"):
            bad.validate()

    def test_file_roundtrip(self, tmp_path):
        spec = preset_chsc(2, 1, 8)
        path = tmp_path / "spec.json"
        write_spec(spec, path)
        back = PotentialSpec.from_file(path)
        assert back.coeffs == dict(spec.coeffs)
        assert back.sha256() == spec.sha256()

    def test_record_reads_ints_and_fractions_as_they_are(self):
        # ints, Fractions, a float, a string and zeros: the record is the one
        # built with a Fraction from every value
        n = 2
        spec = PotentialSpec(n, 6, 0.3, {
            **preset_chsc(n, F(-2, 5), 6).coeffs,
            ((1, 0), (0, 1)): 0.25, ((0, 1), (1, 0)): "1/4",
            ((2, 0), (0, 1)): 3, ((0, 1), (2, 0)): F(6, 2),
            ((1, 1), (0, 0)): 0, ((0, 0), (1, 1)): F(0),
        })
        assert spec.to_record() == _record_via_fraction(spec)
        for make in (lambda: preset_chsc(2, F(3, 5), 12), lambda: dense_spec(12)):
            spec = make()
            assert spec.to_record() == _record_via_fraction(spec)


def _record_via_fraction(spec) -> dict:
    """The record of a spec with a ``Fraction`` built from every value: its nonzero terms by
    total degree, then by exponents."""
    terms = []
    for a, b in sorted(spec.coeffs, key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab)):
        v = Fraction(spec.coeffs[(a, b)])
        if v != 0:
            terms.append({"alpha": list(a), "beta": list(b), "num": v.numerator,
                          "den": v.denominator})
    return {"n": spec.n, "trunc_degree": spec.trunc_degree, "eval_radius": spec.eval_radius,
            "terms": terms}


class TestPolarize:
    def test_flat(self):
        psi = polarize(preset_flat(1, 6))
        assert psi == TruncatedSeries(2, 6, {(1, 1): 1})

    def test_chsc_log_series(self):
        psi = polarize(preset_chsc(1, 1, 8))
        expected = TruncatedSeries(
            2, 8, {(j, j): F((-1) ** (j + 1), j) for j in range(1, 5)}
        )
        assert psi == expected

    def test_quartic_monomials(self):
        psi = polarize(preset_quartic(1, F(1, 10), 8))
        assert psi == TruncatedSeries(2, 8, {(1, 1): 1, (2, 2): F(1, 10)})

    def test_psi_restricts_to_phi(self):
        spec = preset_chsc(2, -1, 6)
        psi = polarize(spec)
        for (a, b), v in spec.coeffs.items():
            if sum(a) + sum(b) <= 6:
                assert psi[a + b] == v


class TestTheta:
    def test_flat_theta_is_z(self):
        geom = build_geometry(preset_flat(1, 6))
        assert geom.theta[0] == TruncatedSeries(3, 5, {(0, 0, 1): 1})

    def test_quartic_hand_value(self, quartic_geom):
        # psi = xz + t x^2 z^2 gives theta = z + t z^2 (x + y)
        t = F(1, 10)
        expected = TruncatedSeries(
            3, 9, {(0, 0, 1): 1, (1, 0, 2): t, (0, 1, 2): t}
        )
        assert quartic_geom.theta[0] == expected

    def test_theta_on_diagonal_equals_psi_gradient(self, chsc11_geom):
        n = chsc11_geom.n
        merged = reference.rename(chsc11_geom.theta[0], 2 * n, (0, 0, 1))
        assert merged == chsc11_geom.psi_x[0]

    def test_theta_on_diagonal_chsc2(self):
        geom = build_geometry(preset_chsc(2, 1, 8))
        var_map = (0, 1, 0, 1, 2, 3)
        for i in range(2):
            assert reference.rename(geom.theta[i], 4, var_map) == geom.psi_x[i]


# Numerators over denominators that include the large primes, so the common
# denominator of an average is wide.
RATIONALS = st.builds(
    F, st.integers(-50, 50), st.sampled_from([1, 2, 3, 7, 12, 998_244_353, 2**61 - 1])
)


class TestSegmentAverage:
    """``segment_average`` against the reference average, built from its Beta weights."""

    @pytest.mark.parametrize("kind", ["build_theta", "transport"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_packed_loop_equals_fraction_loop(self, kind, n, data):
        # build_theta averages psi_x(x, z) moved into the (y, z) blocks, the transport
        # chain a series in all three blocks
        nvars = 2 * n if kind == "build_theta" else 3 * n
        degree = data.draw(st.integers(0, 7))
        slots = st.lists(st.integers(0, nvars - 1), max_size=degree)
        keys = slots.map(lambda picks: tuple(picks.count(i) for i in range(nvars)))
        f = TruncatedSeries(nvars, degree, data.draw(st.dictionaries(keys, RATIONALS, max_size=8)))
        if kind == "build_theta":
            f = reference.rename(f, 3 * n, range(n, 3 * n))
        (got,) = potential.segment_average([f], n)
        want = reference.segment_average(f, n)
        assert got == want
        assert got.to_record() == want.to_record()

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_slot_steps_equal_the_per_split_loop(self, n, data):
        # several series of one or two degrees and digit widths in one call share its splits
        fs = []
        for _ in range(data.draw(st.integers(1, 3))):
            degree = data.draw(st.integers(0, 8))
            slots = st.lists(st.integers(0, 3 * n - 1), max_size=degree)
            keys = slots.map(lambda picks: tuple(picks.count(i) for i in range(3 * n)))
            f = TruncatedSeries(3 * n, degree, data.draw(st.dictionaries(keys, RATIONALS, max_size=8)))
            fs.append(TruncatedSeries(3 * n, 1 << f._shift, f.coeffs).truncate(degree)
                      if data.draw(st.booleans()) else f)
        got = potential.segment_average(fs, n)
        assert got == [reference.segment_average(f, n) for f in fs]
        assert [s._shift for s in got] == [f._shift for f in fs]

    def test_build_theta_matches_fraction_loop(self, quartic_geom):
        psi = quartic_geom.psi
        yz = reference.rename(psi.diff((1, 0)), 3, (1, 2))
        assert build_theta(quartic_geom.psi_x_yz) == [reference.segment_average(yz, 1)]


def holomorphic_spec(D):
    """|x|^2 + (x^2 + conj(x)^2)/3 + (x^2 conj(x) + x conj(x)^2)/5 - |x|^4/6.

    The pure holomorphic terms give the phase x- and y-linear parts.
    """
    return PotentialSpec(1, D, 0.3, {
        ((1,), (1,)): F(1),
        ((2,), (0,)): F(1, 3), ((0,), (2,)): F(1, 3),
        ((2,), (1,)): F(1, 5), ((1,), (2,)): F(1, 5),
        ((2,), (2,)): F(-1, 6),
    })


def non_radial_n2_spec(D):
    """|x|^2 + (x_1 conj(x_2) + x_2 conj(x_1))/4 + cubic and holomorphic terms.

    The Hessian [[1, 1/4], [1/4, 1]] is not diagonal.
    """
    return PotentialSpec(2, D, 0.2, {
        ((1, 0), (1, 0)): F(1), ((0, 1), (0, 1)): F(1),
        ((1, 0), (0, 1)): F(1, 4), ((0, 1), (1, 0)): F(1, 4),
        ((2, 0), (0, 1)): F(1, 5), ((0, 1), (2, 0)): F(1, 5),
        ((1, 1), (0, 0)): F(1, 7), ((0, 0), (1, 1)): F(1, 7),
        ((1, 1), (1, 1)): F(-1, 6),
    })


class TestInvertTheta:
    @pytest.mark.parametrize(
        "spec", [holomorphic_spec(10), non_radial_n2_spec(6)], ids=["holomorphic", "n2"]
    )
    def test_round_trip_at_full_degree(self, spec):
        theta = build_geometry(spec).theta
        z = invert_theta(theta)[0]
        n3, D = 3 * spec.n, spec.trunc_degree - 1
        ids = TruncatedSeries.variables(n3, D)
        assert all(zi.trunc_degree == D for zi in z)
        for i, t in enumerate(theta):
            assert t.compose(ids[: 2 * spec.n] + z) == ids[2 * spec.n + i]

    def test_holomorphic_terms_reach_z(self):
        # theta = z + (x + y)/3 + ..., so z = t - (x + y)/3 + ...
        z = invert_theta(build_geometry(holomorphic_spec(6)).theta)[0][0]
        assert (z[(1, 0, 0)], z[(0, 1, 0)], z[(0, 0, 1)]) == (F(-1, 3), F(-1, 3), 1)

    def test_round_trip_check_can_fail(self, monkeypatch):
        solve = potential.invert_theta

        def off_by_one_at_top_degree(theta):
            z, powers = solve(theta)
            n3, D = z[0].nvars, z[0].trunc_degree
            coeffs = dict(z[0].coeffs)
            top = (0,) * (n3 - 1) + (D,)
            coeffs[top] = coeffs.get(top, 0) + 1
            wrong = TruncatedSeries(n3, D, coeffs)
            # the table's unit entry is the wrong z_1 too, so theta(x, y, z) = t alone fails
            for key in [key for key, p in powers.items() if p is z[0]]:
                powers[key] = wrong
            return [wrong] + z[1:], powers

        monkeypatch.setattr(potential, "invert_theta", off_by_one_at_top_degree)
        geom = build_geometry(preset_chsc(2, 1, 6))
        # the read that inverts checks; a failed check keeps neither z nor its powers
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="round-trip"):
                geom.z_of_theta
        assert "z_of_theta" not in vars(geom) and geom.z_powers == {}
        with pytest.raises(ArithmeticError, match="round-trip"):
            geom.delta0_xytheta
        assert geom.z_powers == {}

    def test_no_product_has_an_empty_factor(self, monkeypatch):
        # The chsc phase has homogeneous pieces that vanish, so the inversion
        # meets many products with a zero factor; none may reach a pair loop,
        # the ordered one or the one that squares.
        add_products, add_square = series._add_products, series._add_square
        sides = []

        def spy(acc, a_terms, b_keys, b_nums, *args):
            a_terms = list(a_terms)
            sides.append((len(a_terms), len(b_keys)))
            add_products(acc, a_terms, b_keys, b_nums, *args)

        def square_spy(acc, keys, nums, *args):
            sides.append((len(keys), len(keys)))
            add_square(acc, keys, nums, *args)

        monkeypatch.setattr(series, "_add_products", spy)
        monkeypatch.setattr(series, "_add_square", square_spy)
        build_geometry(preset_chsc(2, F(1, 2), 12)).z_of_theta
        monkeypatch.undo()
        assert len(sides) > 100
        assert [s for s in sides if 0 in s] == []

    def test_geometry_caches_substituted_powers_only(self, monkeypatch):
        # x and y enter every composition of the geometry as bare variables,
        # so only the z-like arguments are raised to powers.  The graded
        # inversion and its check compose nothing; the compositions are
        # Delta0's, through z(x, y, t), which is never bare.
        compose = TruncatedSeries.compose
        seen = []

        def spy(f, args, cache=None):
            cache = {} if cache is None else cache
            out = compose(f, args, cache)
            bare = TruncatedSeries.variables(args[0].nvars, args[0].trunc_degree)
            substituted = sum(1 for a in args if a not in bare)
            seen.append((substituted, {len(key) for key in cache}))
            return out

        monkeypatch.setattr(TruncatedSeries, "compose", spy)
        geom = build_geometry(preset_chsc(2, 1, 8))
        # before a layer is read, only psi_x moves into (x, y, z) blocks: bare arguments alone
        assert seen == [(0, set())] * 2
        geom.delta0_xytheta
        monkeypatch.undo()
        assert {2} in [lengths for _, lengths in seen]
        assert all(lengths <= {s} for s, lengths in seen)
        # The round trip again, with x and y scaled by 2 so that no argument
        # of the outer composition is bare: theta(2x, 2y, z(2x, 2y, t)) = t.
        ids = TruncatedSeries.variables(6, 7)
        scaled = [2 * v for v in ids[:4]]
        z = [zi.compose(scaled + ids[4:]) for zi in geom.z_of_theta]
        for i, t in enumerate(geom.theta):
            assert t.compose(scaled + z) == ids[4 + i]

    def test_flat_identity(self):
        geom = build_geometry(preset_flat(2, 6))
        for i in range(2):
            key = tuple(1 if j == 4 + i else 0 for j in range(6))
            assert geom.z_of_theta[i] == TruncatedSeries(6, 5, {key: 1})

    def test_chsc_mobius_on_diagonal(self, chsc11_geom):
        # theta = z/(1+xz) at y = x inverts to z = theta/(1 - x theta)
        D = 9
        z = reference.rename(chsc11_geom.z_of_theta[0], 2, (0, 0, 1))
        x = TruncatedSeries.variable(2, D, 0)
        th = TruncatedSeries.variable(2, D, 1)
        geometric = TruncatedSeries.one(2, D)
        acc = TruncatedSeries.one(2, D)
        for _ in range(D):
            acc = acc * (x * th)
            geometric = geometric + acc
        assert z == th * geometric


def dense_spec(D, c21=F(-3, 4), c31=F(-1, 2)):
    """|x|^2 + c21 (x^2 conj(x) + c.c.) + c31 (x^3 conj(x) + c.c.) + 3/8 |x|^4.

    With the default coefficients, the first seed-1 potential of the
    benchmark's ``dense_orders`` family; (-1/4, -1/6) gives the second.  No
    symmetry, so every series of its geometry is dense.
    """
    return PotentialSpec(1, D, 0.3, {
        ((1,), (1,)): F(1),
        ((2,), (1,)): c21, ((1,), (2,)): c21,
        ((3,), (1,)): c31, ((1,), (3,)): c31,
        ((2,), (2,)): F(3, 8),
    })


_REFERENCE: dict = {}  # (spec digest, layer) -> the reference layer


def _once(geom, layer, build):
    """``build()``, the reference form of one layer of ``geom``, computed once per spec."""
    key = (geom.spec.sha256(), layer)
    if key not in _REFERENCE:
        _REFERENCE[key] = build()
    return _REFERENCE[key]


def reference_z(geom) -> list:
    """The reference fixed point z(x, y, theta) of the phase of ``geom``, the Hessian
    inverted by Cramer's rule."""
    n = geom.n
    hess = [[geom.theta[i][unit(3 * n, 2 * n + j)] for j in range(n)] for i in range(n)]
    return _once(geom, "z", lambda: reference.fixed_point(cramer_inverse(hess), geom.theta))


def reference_substitute_z(geom, f):
    """f(x, z) or f(x, y, z) at the reference z(x, y, theta), in (x, y, theta) blocks."""
    xy = TruncatedSeries.variables(3 * geom.n, geom.degree - 1, range(f.nvars - geom.n))
    return reference.compose(f, xy + reference_z(geom))


def _reference_det_z(geom, rows):
    """The reference determinant of the z-derivatives (theta-derivatives) of ``rows``."""
    n = geom.n
    return reference.det([[reference.diff(f, unit(3 * n, 2 * n + j)) for j in range(n)]
                          for f in rows])


def reference_delta0_xyz(geom):
    """det psi_yz / det theta_z in (x, y, z) blocks, degree D - 2."""
    return _once(geom, "delta0_xyz", lambda: reference.mul(
        _reference_det_z(geom, geom.psi_x_yz),
        reference.inverse(_reference_det_z(geom, geom.theta)), geom.degree - 2))


def reference_delta0(geom):
    """Delta0 in (x, y, theta): det psi_yz / det theta_z at z = z(x, y, theta)."""
    return _once(geom, "delta0", lambda: reference_substitute_z(geom, reference_delta0_xyz(geom)))


def _assert_same_inversion(geom):
    """The solve's z and every entry of its table of powers, each cut at its degree, equal
    the reference fixed point and its powers.  Above degree 8, where the plain iteration
    of a dense n = 2 phase costs seconds, one reference composition checks z instead:
    theta(x, y, z) = t at the degree of theta, which fixes z."""
    z, powers = invert_theta(geom.theta)
    if geom.degree > 8:
        n, ids = geom.n, TruncatedSeries.variables(3 * geom.n, geom.degree - 1)
        assert [zu.trunc_degree for zu in z] == [geom.degree - 1] * n
        assert [reference.compose(t, ids[:2 * n] + z) for t in geom.theta] == ids[2 * n:]
    else:
        assert z == reference_z(geom)
    assert powers == reference.table_entries(powers, z)


def _exponent_of_size(draw, n, size):
    """An exponent tuple of n entries 0-2 that sum to ``size`` (at most 2n), slot by slot."""
    out = []
    for slot in range(n, 0, -1):
        e = draw(st.integers(max(0, size - 2 * (slot - 1)), min(2, size)))
        out.append(e)
        size -= e
    return tuple(out)


@st.composite
def hermitian_specs(draw, n):
    """A valid spec in n variables: |x|^2 plus drawn Hermitian pairs c[a,b] = c[b,a],
    none of them constant, linear or in the Hessian.  Each pair (a, b) has entries
    0-2 and 2 <= |a| + |b| <= degree, not (|a|, |b|) = (1, 1): the sizes are drawn
    first and the exponents within them, so no draw is filtered away."""
    degree = draw(st.integers(3, 8 - n))
    sizes = [(p, q) for p in range(2 * n + 1) for q in range(2 * n + 1)
             if 2 <= p + q <= degree and (p, q) != (1, 1)]
    coeffs = {(unit(n, i), unit(n, i)): F(1) for i in range(n)}
    values = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
    for p, q in draw(st.lists(st.sampled_from(sizes), max_size=6)):
        a, b = _exponent_of_size(draw, n, p), _exponent_of_size(draw, n, q)
        coeffs[(a, b)] = coeffs[(b, a)] = draw(values)
    return PotentialSpec(n, degree, 0.3, coeffs)


class TestRawInversion:
    """``invert_theta`` on raw pieces, z and its table, against the reference fixed point."""

    # the model_geometry benchmark curvatures at seeds 1 and 7919
    @pytest.mark.parametrize("c", [F(3, 5), F(-2, 5), F(3, 4)])
    def test_chsc_benchmark_curvatures(self, c):
        _assert_same_inversion(build_geometry(preset_chsc(2, c, 12)))

    @pytest.mark.parametrize("spec", [dense_spec(12), non_radial_n2_spec(10)], ids=["dense", "n2"])
    def test_dense_and_non_radial(self, spec):
        _assert_same_inversion(build_geometry(spec))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_drawn_hermitian_specs(self, n, data):
        spec = data.draw(hermitian_specs(n))
        spec.validate()
        _assert_same_inversion(build_geometry(spec))


def _fields(s):
    return s.nvars, s.trunc_degree, s._shift, s._keys, s._nums, s._den


TO_XZ_SPECS = pytest.mark.parametrize("make, order", [
    (lambda: preset_chsc(2, F(3, 5), 12), 3), (lambda: dense_spec(12), 5),
    (lambda: non_radial_n2_spec(10), 4),
], ids=["chsc_n2_D12", "dense_D12", "n2_D10"])


def _remap_then_compose(geom, f, cache):
    """``geom.to_xz(f)`` in two steps: y = x by the reference variable mover, then the
    composition with ``psi_x``."""
    n = geom.n
    x = TruncatedSeries.variables(2 * n, geom.degree - 1, range(n))
    f_xtheta = reference.rename(f, 2 * n, tuple(range(n)) * 2 + tuple(range(n, 2 * n)))
    return f_xtheta.compose(x + list(geom.psi_x), cache=cache)


class TestToXz:
    """``GeometryPack.to_xz``, one composition with both bare blocks run onto x, against
    the remap to y = x followed by the composition."""

    @TO_XZ_SPECS
    def test_one_composition_equals_remap_then_compose(self, make, order):
        geom = build_geometry(make())
        cache = {}
        for f in (*geom.z_of_theta, geom.delta0_xytheta):
            assert _fields(geom.to_xz(f)) == _fields(_remap_then_compose(geom, f, cache))
        # the same powers of psi_x, keyed by the exponents of the theta block alone
        assert list(geom.psi_x_powers) == list(cache)
        assert all(len(gamma) == geom.n for gamma in cache)
        assert all(_fields(p) == _fields(cache[g]) for g, p in geom.psi_x_powers.items())

    @TO_XZ_SPECS
    def test_pipeline_builds_the_same_psi_x_powers(self, monkeypatch, make, order):
        # On the diagonal the theta terms of a chsc divergence cancel: the remap
        # drops them before composing, and compose must build no power for them.
        def run(geom):
            table = amplitude_from_b(bergman_coefficients(geom, order), geom)
            recon = reconstruct_coefficients(geom, transport_chain(geom, order))
            powers = {g: _fields(p) for g, p in geom.psi_x_powers.items()}
            return [_fields(b) for b in table.b], [_fields(b) for b in recon], powers

        got = run(build_geometry(make()))
        monkeypatch.setattr(GeometryPack, "to_xz", lambda geom, f: _remap_then_compose(
            geom, f, geom.psi_x_powers))
        assert got == run(build_geometry(make()))


OLD_FORM_SPECS = {
    "dense_D16": lambda: dense_spec(16),
    "non_radial_n2_D8": lambda: non_radial_n2_spec(8),
    "holomorphic_D10": lambda: holomorphic_spec(10),
    "chsc_n3_D8": lambda: preset_chsc(3, F(-1, 3), 8),
    "dense_D3": lambda: dense_spec(3),
}


@pytest.fixture(scope="module", params=sorted(OLD_FORM_SPECS))
def old_form_spec(request):
    return OLD_FORM_SPECS[request.param]()


@pytest.fixture(scope="module")
def old_form_geom(old_form_spec):
    return build_geometry(old_form_spec)


class TestOldForms:
    """The geometry against the reference, which shares no code or table with it: the
    inversion by sweeps of whole compositions, the phase from the Beta weights, and Delta0
    from Leibniz determinants, a series inverse and the chain rule."""

    def test_graded_inversion_equals_the_sweeps(self, old_form_spec):
        # invert_theta itself, not z_of_theta, so the round-trip check cannot stand in
        geom = build_geometry(old_form_spec)
        assert invert_theta(geom.theta)[0] == reference_z(geom)

    def test_raw_inversion_equals_the_series_pieces(self, old_form_spec):
        _assert_same_inversion(build_geometry(old_form_spec))

    def test_build_theta_equals_the_per_split_average(self, old_form_geom):
        geom, n = old_form_geom, old_form_geom.n
        yz = [reference.rename(f, 3 * n, range(n, 3 * n)) for f in geom.psi_x]
        assert list(geom.psi_x_yz) == yz
        assert list(geom.theta) == [reference.segment_average(f, n) for f in yz]

    def test_jacobian_delta0_equals_the_quotient(self, old_form_geom):
        geom = old_form_geom
        assert (geom.delta0_xyz, geom.delta0_xytheta) == (
            reference_delta0_xyz(geom), reference_delta0(geom))

    def test_chain_rule_delta0_equals_the_jacobian_product(self, old_form_geom):
        # (det psi_yz o z) * det(dz/dtheta), from the reference z
        geom = old_form_geom
        fresh = build_geometry(geom.spec)
        want = reference.mul(reference_substitute_z(geom, _reference_det_z(geom, geom.psi_x_yz)),
                             _reference_det_z(geom, reference_z(geom)), geom.degree - 2)
        assert geom.delta0_xytheta == build_delta0(fresh) == want

    def test_two_step_pullback_equals_the_w_table(self, old_form_geom):
        # f(x, x, w) for w = psi_x(x, z(x, y, theta)), one composition through fresh powers
        # of w, against the pack's two compositions through its two tables
        geom, n = old_form_geom, old_form_geom.n
        x = TruncatedSeries.variables(3 * n, geom.degree - 1, range(n))
        w = [p.compose(x + list(geom.z_of_theta)) for p in geom.psi_x]
        for f in (geom.delta0_xytheta, *geom.z_of_theta, *first_amplitude(geom)):
            f_xtheta = reference.rename(f, 2 * n, tuple(range(n)) * 2 + tuple(range(n, 2 * n)))
            assert geom.substitute_z(geom.to_xz(f)) == f_xtheta.compose(x + w)

    def test_reused_amplitudes_equal_the_recomputed(self, old_form_geom):
        geom = old_form_geom
        M = (geom.degree - 2) // 2
        table = amplitude_from_b(bergman_coefficients(geom, M), geom)
        assert len(table.a) == M + 1
        assert list(table.a) == amplitudes_recomputed(geom, table)

    def test_reused_collapses_equal_the_recomputed(self, old_form_geom):
        geom = old_form_geom
        M = (geom.degree - 2) // 2
        chain = transport_chain(geom, M)
        recon = reconstruct_coefficients(geom, chain)
        assert len(recon) == M + 1
        assert recon == collapses_recomputed(geom, chain)


def _count_replaced_entries(monkeypatch) -> list:
    """Patch ``compose`` to list every cache entry a call replaces, in any cache."""
    replaced = []
    original = TruncatedSeries.compose

    def counting(series, args, cache=None):
        before = dict(cache) if cache is not None else {}
        out = original(series, args, cache)
        replaced.extend(gamma for gamma, p in before.items() if cache[gamma] is not p)
        return out

    monkeypatch.setattr(TruncatedSeries, "compose", counting)
    return replaced


# The benchmark's exact jobs at seed 1: the two dense potentials (n=1, D=12, M=5)
# and the chsc potentials (n=2, D=12, M=3) of curvature 3/5 and -2/5.
BENCHMARK_JOBS = {
    "dense_1": (lambda: dense_spec(12), 5),
    "dense_2": (lambda: dense_spec(12, F(-1, 4), F(-1, 6)), 5),
    "chsc_3/5": (lambda: preset_chsc(2, F(3, 5), 12), 3),
    "chsc_-2/5": (lambda: preset_chsc(2, F(-2, 5), 12), 3),
}


# pair visits of the dense_orders job below, pinned so that no change drops the square path;
# 20,897 while the round-trip check built its own z-powers
PAIR_VISITS = 13_438


def _count_pair_visits(monkeypatch) -> list:
    """Patch both pair loops of ``series`` to count their visits, one per product
    added to the accumulator; the count is the one entry of the returned list."""
    visits = [0]

    class Counting(dict):
        def __setitem__(self, key, value):
            visits[0] += 1
            super().__setitem__(key, value)

    for name in ("_add_products", "_add_square"):
        def spy(acc, *args, loop=getattr(series, name)):
            counting = Counting(acc)
            loop(counting, *args)
            acc.update(counting)

        monkeypatch.setattr(series, name, spy)
    return visits


def _pipeline_visits(monkeypatch, name) -> int:
    """Pair visits of one benchmark job: both coefficient routes, with the inversion,
    its check and Delta0."""
    visits = _count_pair_visits(monkeypatch)
    make, order = BENCHMARK_JOBS[name]
    geom = build_geometry(make())
    table = amplitude_from_b(bergman_coefficients(geom, order), geom)
    recon = reconstruct_coefficients(geom, transport_chain(geom, order))
    monkeypatch.undo()
    assert recon == list(table.b)
    return visits[0]


def test_pair_visits_of_the_dense_pipeline(monkeypatch):
    # An exact work count of the first seed-1 dense_orders job, to order 5.
    # Squares visit each unordered pair of terms once; the ordered loop alone
    # visited 26,168 pairs.  The solve's level pieces are joined with no pair
    # loop; summed through it they cost 286 visits more.  The z-powers come from
    # the solve and the line check multiplies no series.
    assert _pipeline_visits(monkeypatch, "dense_1") == PAIR_VISITS


# pair visits of the chsc_3/5 benchmark job (n=2, order 3); 11,605 while the
# round-trip check built its own z-powers
CHSC_PAIR_VISITS = 7_080


def test_pair_visits_of_the_chsc_pipeline(monkeypatch):
    assert _pipeline_visits(monkeypatch, "chsc_3/5") == CHSC_PAIR_VISITS


# TruncatedSeries.diff calls of the coefficient and transport pipeline: psi_x (n).
# The recursion's level sums, the transport's divergences, its averaged y-gradients
# and the Jacobian determinant of Delta0 differentiate inside their own sums; a
# derivative series built there again (27 and 34 before, then 2 and 6 with the
# Jacobian's n^2) fails the count.
DIFF_CALLS = {"dense_1": 1, "chsc_3/5": 2}


@pytest.mark.parametrize("name", sorted(DIFF_CALLS))
def test_diff_calls_of_the_pipeline(monkeypatch, name):
    calls = []
    diff = TruncatedSeries.diff
    monkeypatch.setattr(TruncatedSeries, "diff", lambda s, xi: calls.append(xi) or diff(s, xi))
    make, order = BENCHMARK_JOBS[name]
    geom = build_geometry(make())
    table = amplitude_from_b(bergman_coefficients(geom, order), geom)
    recon = reconstruct_coefficients(geom, transport_chain(geom, order))
    monkeypatch.undo()
    assert recon == list(table.b)
    assert len(calls) == DIFF_CALLS[name]


SOLVE_SPECS = {"chsc_3/5": BENCHMARK_JOBS["chsc_3/5"][0], "dense_1": BENCHMARK_JOBS["dense_1"][0],
               "n2_8": lambda: non_radial_n2_spec(8)}


@pytest.mark.parametrize("name", sorted(SOLVE_SPECS))
def test_every_piece_the_solve_sums_is_sorted(monkeypatch, name):
    # One piece form: the parts of theta, the level pieces of z and of its powers and
    # the doubled pieces of the squares all reach the pair loops sorted by key, over a
    # positive denominator, as every other product's pieces do.
    theta = build_geometry(SOLVE_SPECS[name]()).theta
    sums, seen = series._sum_of_products, []

    def spy(pairs, width, out_degree):
        seen.extend(piece for pair in pairs for piece in pair if piece)
        return sums(pairs, width, out_degree)

    monkeypatch.setattr(series, "_sum_of_products", spy)
    invert_theta(theta)
    monkeypatch.undo()
    assert len(seen) > 100
    assert [p for p in seen if p[0] != sorted(p[0]) or p[2] <= 0] == []


@st.composite
def off_diagonal_hermitian_specs(draw, n):
    """A drawn ``hermitian_specs(n)`` whose Hessian gains off-diagonal entries c[e_i, e_j] =
    c[e_j, e_i] of size at most 1/(2n), so it stays positive definite (Gershgorin)."""
    spec = draw(hermitian_specs(n))
    coeffs = dict(spec.coeffs)
    small = st.builds(F, st.integers(-1, 1), st.sampled_from([2 * n, 3 * n, 5 * n]))
    for i in range(n):
        for j in range(i + 1, n):
            coeffs[(unit(n, i), unit(n, j))] = coeffs[(unit(n, j), unit(n, i))] = draw(small)
    return PotentialSpec(n, spec.trunc_degree, spec.eval_radius,
                         {key: v for key, v in coeffs.items() if v})


def _round_trip_powers(geom) -> dict:
    """The powers composing theta through the pack's z caches, in a fresh table; the
    composition must give t."""
    n, powers = geom.n, {}
    ids = TruncatedSeries.variables(3 * n, geom.degree - 1)
    assert [t.compose(ids[:2 * n] + list(geom.z_of_theta), cache=powers)
            for t in geom.theta] == ids[2 * n:]
    return powers


class TestPhaseLayersAgainstTheirEarlierBodies:
    """The solve that reads theta and H^-1 itself, its table of z-powers, Delta0 with no
    Jacobian series and the amplitude cut at its own degree, against the reference: the
    fixed point by plain iteration, each power by repeated products, Delta0 as det psi_yz /
    det theta_z at z and the amplitude as (b o z) * Delta0.  The seeded table is also the
    one composing theta through z caches."""

    @staticmethod
    def _assert_same_layers(spec):
        geom = build_geometry(spec)
        _assert_same_inversion(geom)
        assert geom.z_powers == {}
        geom.z_of_theta  # the solve seeds the table
        assert geom.z_powers == _round_trip_powers(geom)
        assert build_delta0(build_geometry(spec)) == reference_delta0(geom)
        return geom

    @pytest.mark.parametrize("name", sorted(BENCHMARK_JOBS))
    def test_benchmark_jobs(self, name):
        make, order = BENCHMARK_JOBS[name]
        geom = self._assert_same_layers(make())
        for b in bergman_coefficients(geom, order).b[1:]:
            comp = reference_substitute_z(geom, b)
            want = reference.mul(comp, geom.delta0_xytheta, comp.trunc_degree)
            assert geom.amplitude(b) == want

    @pytest.mark.parametrize("spec", [non_radial_n2_spec(8), holomorphic_spec(10),
                                      hessian_spec(ROTATED), preset_chsc(3, F(-1, 3), 7)],
                             ids=["n2", "holomorphic", "rotated_hessian", "chsc_n3"])
    def test_fixed_specs(self, spec):
        self._assert_same_layers(spec)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_drawn_hermitian_specs(self, n, data):
        spec = data.draw(off_diagonal_hermitian_specs(n))
        spec.validate()
        self._assert_same_layers(spec)

    def test_a_corrupted_solve_piece_fails_both_parts_of_the_check(self, monkeypatch):
        """The check evaluates theta through z's own line powers, never through the
        solve's table, and compares the table with those powers; a corrupted solve piece
        fails it."""
        # A piece the solve keeps, [z_1^2]_2, is corrupted after it is made: the powers
        # of z read it, so z comes out wrong, and the table the solve hands on holds the
        # piece.  The check raises z's own line to each power, evaluates theta through
        # those, never through the table, and compares the table with them, so both of
        # its parts fail; theta composed through the solve's table would give t, since
        # the level sums are built from it.
        spec = preset_chsc(2, F(3, 5), 8)
        solve, sums = series.fixed_point, series._sum_of_products
        state = {"solving": False, "calls": 0}

        def corrupting(pairs, width, out_degree):
            piece = sums(pairs, width, out_degree)
            if state["solving"] and piece:
                state["calls"] += 1
                if state["calls"] == 3:  # after the n = 2 pieces of [z]_1: the first power
                    keys, nums, den = piece
                    return keys, [nums[0] + den] + nums[1:], den
            return piece

        def solving(hinv, theta):
            state.update(solving=True, calls=0)
            try:
                return solve(hinv, theta)
            finally:
                state["solving"] = False

        monkeypatch.setattr(series, "_sum_of_products", corrupting)
        monkeypatch.setattr(series, "fixed_point", solving)
        monkeypatch.setattr(potential, "fixed_point", solving)
        geom = build_geometry(spec)
        assert invert_theta(geom.theta)[0] != reference_z(geom)
        with pytest.raises(ArithmeticError, match="round-trip"):
            geom.z_of_theta
        assert "z_of_theta" not in vars(geom) and geom.z_powers == {}


class TestLineCheck:
    """The check of the inversion: theta(x, y, z) = t and every seeded z-power at one point
    mod p, drawn from the spec digest; the exact round trip when a denominator is 0 mod p."""

    def test_a_seeded_power_perturbed_after_the_solve_fails_the_check(self, monkeypatch):
        solve = potential.invert_theta

        def perturbing(theta):
            z, powers = solve(theta)
            key = max(powers, key=sum)  # z is right; only this entry is not its power
            power = powers[key]
            top = max(power.coeffs, key=sum)
            powers[key] = power + TruncatedSeries(power.nvars, power.trunc_degree, {top: 1})
            return z, powers

        monkeypatch.setattr(potential, "invert_theta", perturbing)
        geom = build_geometry(preset_chsc(2, F(3, 5), 8))
        with pytest.raises(ArithmeticError, match="round-trip"):
            geom.z_of_theta
        assert "z_of_theta" not in vars(geom) and geom.z_powers == {}

    @pytest.mark.parametrize("spec", [preset_flat(2, 6), PotentialSpec(2, 8, 0.3, {
        ((1, 0), (1, 0)): F(1), ((0, 1), (0, 1)): F(1), ((0, 2), (0, 2)): F(1, 5)})],
        ids=["flat", "split"])
    def test_no_power_of_a_bare_z(self, spec):
        # z_1 = t_1 exactly: the composition only moves its exponent, so the table keys
        # the powers of the other z_j alone, and holds no unit power of z_1
        geom = build_geometry(spec)
        geom.z_of_theta
        assert geom.z_powers == _round_trip_powers(geom)
        assert all(len(gamma) == spec.n - 1 for gamma in geom.z_powers)
        assert geom.z_powers == reference.table_entries(geom.z_powers, reference_z(geom))

    def test_a_denominator_zero_mod_p_runs_the_exact_round_trip(self, monkeypatch):
        geom = build_geometry(preset_chsc(2, F(3, 5), 8))
        z, powers = invert_theta(geom.theta)
        monkeypatch.setattr(series, "LINE_PRIME", 5)  # 5 divides the denominators of z
        assert series.holds_on_a_line(geom.theta, z, powers, [1] * 6) is None
        composed, compose = [], TruncatedSeries.compose

        def composing(s, args, cache=None):
            composed.append(s)
            return compose(s, args, cache)

        monkeypatch.setattr(TruncatedSeries, "compose", composing)
        geom.z_of_theta
        assert composed == list(geom.theta)
        assert list(geom.z_of_theta) == reference_z(geom)
        assert geom.z_powers == reference.table_entries(geom.z_powers, reference_z(geom))

    def test_the_exact_round_trip_fails_a_wrong_z(self, monkeypatch):
        solve = potential.invert_theta

        def off_by_one(theta):
            z, powers = solve(theta)
            return [z[0] + TruncatedSeries.variable(z[0].nvars, z[0].trunc_degree, 0)] + z[1:], powers

        monkeypatch.setattr(potential, "invert_theta", off_by_one)
        monkeypatch.setattr(series, "LINE_PRIME", 5)
        geom = build_geometry(preset_chsc(2, F(3, 5), 8))
        with pytest.raises(ArithmeticError, match="round-trip"):
            geom.z_of_theta
        assert geom.z_powers == {}

    @pytest.mark.parametrize("spec", [preset_chsc(2, F(3, 5), 8), non_radial_n2_spec(7)],
                             ids=["chsc", "n2"])
    def test_the_reference_solve_holds_and_a_perturbed_one_fails(self, spec):
        # the reference z and its powers, keyed as the solve keys its table, hold at a point;
        # one term more in z_1, or in the highest power, fails the check
        geom = build_geometry(spec)
        z = reference_z(geom)
        powers = reference.table_entries(invert_theta(geom.theta)[1], z)
        residues = [2, 3, 5, 7, 11, 13]

        def plus_top_term(s):
            return s + TruncatedSeries(s.nvars, s.trunc_degree,
                                       {(0,) * (s.nvars - 1) + (s.trunc_degree,): 1})

        assert series.holds_on_a_line(geom.theta, z, powers, residues) is True
        wrong_z = [plus_top_term(z[0])] + z[1:]
        assert series.holds_on_a_line(geom.theta, wrong_z, powers, residues) is False
        key = max(powers, key=sum)
        wrong_powers = {**powers, key: plus_top_term(powers[key])}
        assert series.holds_on_a_line(geom.theta, z, wrong_powers, residues) is False

    def test_a_perturbed_copy_of_z_1_under_its_unit_key_fails(self):
        # the check skips a unit entry only when it is z_j itself, whose line it is made
        # from; a copy is compared, and one term more in the copy fails the check
        geom = build_geometry(preset_chsc(2, F(3, 5), 8))
        z, powers = invert_theta(geom.theta)
        residues, key, s = [2, 3, 5, 7, 11, 13], (1, 0), z[0]
        assert powers[key] is s
        copy = TruncatedSeries(s.nvars, s.trunc_degree, s.coeffs)
        assert series.holds_on_a_line(geom.theta, z, {**powers, key: copy}, residues) is True
        perturbed = s + TruncatedSeries(s.nvars, s.trunc_degree,
                                        {(0,) * (s.nvars - 1) + (s.trunc_degree,): 1})
        assert series.holds_on_a_line(geom.theta, z, {**powers, key: perturbed}, residues) is False

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.integers(0, 2**64), min_size=6, max_size=6))
    def test_the_true_solve_holds_at_every_point(self, residues):
        geom = build_geometry(preset_chsc(2, F(-2, 5), 8))
        z, powers = invert_theta(geom.theta)
        assert series.holds_on_a_line(geom.theta, z, powers, residues) is True


# TruncatedSeries.__init__ calls (the validating constructor) of the same pipeline:
# polarize alone.  Variables, constants and every operation store trusted pieces; the
# phase built 35 a chsc job and 19 a dense one when the variables it threw away were
# validated too.
CONSTRUCTOR_CALLS = {name: 1 for name in BENCHMARK_JOBS}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_CALLS))
def test_validating_constructor_calls_of_the_pipeline(monkeypatch, name):
    calls = []
    init = TruncatedSeries.__init__
    monkeypatch.setattr(TruncatedSeries, "__init__",
                        lambda s, *args, **kw: calls.append(args) or init(s, *args, **kw))
    make, order = BENCHMARK_JOBS[name]
    geom = build_geometry(make())
    table = amplitude_from_b(bergman_coefficients(geom, order), geom)
    recon = reconstruct_coefficients(geom, transport_chain(geom, order))
    monkeypatch.undo()
    assert recon == list(table.b)
    assert len(calls) == CONSTRUCTOR_CALLS[name]


@pytest.mark.parametrize("n, top", [(1, 180), (2, 27), (3, 15)])
def test_geometry_guard_at_the_limit(monkeypatch, n, top):
    limit = potential.GEOMETRY_MONOMIAL_LIMIT
    assert math.comb(3 * n + top - 1, 3 * n) <= limit < math.comb(3 * n + top, 3 * n)
    potential.require_geometry_size(n, top)
    with pytest.raises(potential.ResourceGuardError, match="resource guard"):
        potential.require_geometry_size(n, top + 1)
    # build_geometry refuses before it polarizes
    polarized = []
    monkeypatch.setattr(potential, "polarize", polarized.append)
    with pytest.raises(potential.ResourceGuardError):
        build_geometry(PotentialSpec(n, top + 1, 0.3, {}))
    assert polarized == []


@pytest.mark.parametrize("n, degree", [(True, 10**9), (1, 2.5), (0, 10**9), (10**9, 0), (1, -3)])
def test_geometry_guard_leaves_bad_sizes_to_validation(n, degree):
    potential.require_geometry_size(n, degree)


def test_geometry_guard_refuses_huge_sizes_at_once():
    for n, degree in ((1, 10**100), (10**100, 2), (10**50, 10**50)):
        with pytest.raises(potential.ResourceGuardError):
            potential.require_geometry_size(n, degree)


class TestZPowerTable:
    """The geometry's one table of z-powers, seeded by the solve."""

    @pytest.mark.parametrize("name", sorted(BENCHMARK_JOBS))
    def test_coeffs_pipeline_replaces_no_entry(self, monkeypatch, name):
        make, order = BENCHMARK_JOBS[name]
        replaced = _count_replaced_entries(monkeypatch)
        geom = build_geometry(make())
        table = amplitude_from_b(bergman_coefficients(geom, order), geom)
        recon = reconstruct_coefficients(geom, transport_chain(geom, order))
        assert recon == list(table.b)
        assert geom.z_powers
        assert replaced == []

    SPECS = {
        "quartic": lambda: preset_quartic(1, F(1, 10), 10),
        "chsc2": lambda: preset_chsc(2, F(-1, 2), 8),
        "non_radial_n2": lambda: non_radial_n2_spec(6),
    }

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_entries_are_products_of_z(self, name):
        geom = build_geometry(self.SPECS[name]())
        geom.delta0_xytheta  # the solve seeds the table, and Delta0 reads it
        n = geom.n
        assert geom.z_powers
        for gamma, power in geom.z_powers.items():
            assert len(gamma) == n and any(gamma)
            # each entry holds the product through its own degree
            D = power.trunc_degree
            assert sum(gamma) <= D <= geom.degree - 1
            want = TruncatedSeries.one(3 * n, D)
            for z, e in zip(geom.z_of_theta, gamma):
                for _ in range(e):
                    want = mul_trunc(want, z, D)
            assert power == want

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_build_delta0_with_and_without_the_table(self, name):
        geom = build_geometry(self.SPECS[name]())
        delta0 = geom.delta0_xytheta
        with_table = build_delta0(geom)
        without = build_delta0(self._without_table(geom.spec))
        assert with_table == without == delta0

    @staticmethod
    def _without_table(spec):
        """A geometry whose inversion is read and whose table of z-powers is empty."""
        geom = build_geometry(spec)
        geom.z_of_theta
        geom.z_powers.clear()
        return geom

    def test_a_later_call_that_reads_higher_replaces_the_entry(self, monkeypatch):
        spec = self.SPECS["non_radial_n2"]()
        geom = self._without_table(spec)
        replaced = _count_replaced_entries(monkeypatch)
        low = geom.substitute_z(self._z_polynomial(geom, 3))
        assert all(p.trunc_degree <= 3 for g, p in geom.z_powers.items() if sum(g) > 1)
        full = self._z_polynomial(geom, geom.degree - 2)
        got = geom.substitute_z(full)
        assert replaced
        fresh = self._without_table(spec)
        assert got == fresh.substitute_z(full)
        assert low == fresh.substitute_z(self._z_polynomial(fresh, 3))

    @staticmethod
    def _z_polynomial(geom, degree):
        """Every z-monomial through ``degree``, in (x, z) blocks: it reads every power."""
        n = geom.n
        return TruncatedSeries(2 * n, degree, {
            (0,) * n + gamma: 1 for d in range(1, degree + 1) for gamma in exponents_of_degree(n, d)
        })

    def test_table_is_not_compared(self):
        spec = preset_quartic(1, F(1, 10), 8)
        geom, fresh = build_geometry(spec), build_geometry(spec)
        geom.delta0_xytheta  # a pack with its layers built equals one without
        geom.z_powers[(99,)] = TruncatedSeries.one(3, 7)
        assert geom == fresh

    def test_grown_table_leaves_the_coefficients_unchanged(self):
        spec = preset_quartic(1, F(1, 10), 10)
        geom = build_geometry(spec)
        chain = transport_chain(geom, 4)
        before = set(geom.z_powers)
        # a dense polynomial in z asks for every power up to the degree
        D = geom.degree - 1
        z = TruncatedSeries.variable(2, D, 1)
        zpoly, power = TruncatedSeries.zero(2, D), TruncatedSeries.one(2, D)
        for _ in range(D):
            power = power * z
            zpoly = zpoly + power
        geom.substitute_z(zpoly)
        assert set(geom.z_powers) > before
        fresh = build_geometry(spec)
        assert bergman_coefficients(geom, 4) == bergman_coefficients(fresh, 4)
        assert chain == transport_chain(fresh, 4)


class TestDelta0Pullback:
    """``geom.delta0_xyz``, Delta0 in (x, y, theta) composed with theta, against the reference
    quotient det psi_yz / det theta_z, built from (x, y, z) determinants and a series
    inverse: no inverted phase, no composition and no (s, xi) entries."""

    @pytest.mark.parametrize("draw", [hermitian_specs, off_diagonal_hermitian_specs],
                             ids=["hermitian", "off_diagonal"])
    @pytest.mark.parametrize("n", [1, 2])
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_drawn_specs(self, draw, n, data):
        geom = build_geometry(data.draw(draw(n)))
        assert geom.delta0_xyz == reference_delta0_xyz(geom)


class TestDelta0:
    @pytest.mark.parametrize("name", ["dense_1", "dense_2"])
    def test_chain_rule_equals_the_jacobian_product_on_benchmark_jobs(self, name):
        make, _ = BENCHMARK_JOBS[name]
        geom = build_geometry(make())
        want = reference.mul(reference_substitute_z(geom, _reference_det_z(geom, geom.psi_x_yz)),
                             _reference_det_z(geom, reference_z(geom)), geom.degree - 2)
        assert geom.delta0_xytheta == want

    def test_coeffs_pipeline_leaves_the_quotient_unbuilt(self):
        geom = build_geometry(preset_quartic(1, F(1, 10), 10))
        table = amplitude_from_b(bergman_coefficients(geom, 4), geom)
        assert reconstruct_coefficients(geom, transport_chain(geom, 4)) == list(table.b)
        assert "delta0_xyz" not in vars(geom)
        quotient = geom.delta0_xyz
        assert vars(geom)["delta0_xyz"] is quotient and geom.delta0_xyz is quotient
        assert quotient == reference_delta0_xyz(geom)

    def test_flat_is_one(self):
        geom = build_geometry(preset_flat(2, 6))
        assert geom.delta0_xyz == TruncatedSeries.one(6, 4)
        assert geom.delta0_xytheta == TruncatedSeries.one(6, 4)

    @pytest.mark.parametrize("n,c,D", [(1, 1, 8), (1, -1, 8), (2, 1, 8), (3, F(-1, 3), 6),
                                       (4, F(1, 2), 6)])
    def test_chsc_closed_form(self, n, c, D):
        # Delta0 = g(u), g(u) = e^u ((e^u - 1)/u)^(n-1), at u = c theta . (x - y): the integer
        # closed form of g's Taylor coefficients composed in the reference algebra, so no
        # arithmetic is shared with the engine's Jacobian, which both coefficient routes read
        geom = build_geometry(preset_chsc(n, c, D))
        L = geom.delta0_xytheta.trunc_degree
        u = {}
        for i in range(n):
            u[tuple(int(j in (i, 2 * n + i)) for j in range(3 * n))] = F(c)
            u[tuple(int(j in (n + i, 2 * n + i)) for j in range(3 * n))] = -F(c)
        g = TruncatedSeries(1, L, {(j,): a for j, a in enumerate(delta0_taylor_coeffs(n, L))})
        assert geom.delta0_xytheta == reference.compose(g, [TruncatedSeries(3 * n, L, u)])

    def test_diagonal_collapse_to_one(self):
        for spec in (preset_chsc(2, 1, 8), preset_quartic(1, F(1, 10), 8)):
            geom = build_geometry(spec)
            n = geom.n
            var_map = tuple(range(n)) + tuple(range(n)) + tuple(range(n, 2 * n))
            merged = reference.rename(geom.delta0_xytheta, 2 * n, var_map)
            assert merged == TruncatedSeries.one(2 * n, geom.delta0_xytheta.trunc_degree)


def diastasis(geom, x, y):
    """Calabi's diastasis phi(x) + phi(y) - 2 Re psi(x, conj y), as a kernel report reads it."""
    psi = geom.psi
    evaluator = PairEvaluator(geom.n, 0, lambda px, zbar: psi.eval([*px, *zbar]), None)
    return evaluator(1, x, y).diastasis


class TestDiastasis:
    def test_self_distance_zero(self, chsc11_geom):
        assert diastasis(chsc11_geom, [0.1 + 0.05j], [0.1 + 0.05j]) == pytest.approx(0.0, abs=1e-14)

    def test_flat_squared_distance(self):
        geom = build_geometry(preset_flat(2, 6))
        x = [0.1 + 0.2j, -0.05j]
        y = [0.02, 0.1 + 0.1j]
        expect = sum(abs(a - b) ** 2 for a, b in zip(x, y))
        assert diastasis(geom, x, y) == pytest.approx(expect, abs=1e-14)

    def test_chsc_closed_value(self):
        geom = build_geometry(preset_chsc(1, 1, 20))
        got = diastasis(geom, [0.1], [0.2])
        expect = math.log(1.01) + math.log(1.04) - 2 * math.log(1.02)
        assert got == pytest.approx(expect, abs=1e-10)

    def test_symmetry(self, quartic_geom):
        x, y = [0.1 + 0.02j], [-0.04 + 0.07j]
        assert diastasis(quartic_geom, x, y) == pytest.approx(
            diastasis(quartic_geom, y, x), abs=1e-14
        )

    def test_hessian_lower_bound(self):
        spec = preset_quartic(1, F(1, 10), 10, radius=0.05)
        geom = build_geometry(spec)
        lam = spec.hessian_min_eigenvalue()
        from bergman.sampling import polydisc_points

        xs = polydisc_points(1, 0.05, 40)
        ys = polydisc_points(1, 0.05, 40, skip=40)
        for x, y in zip(xs, ys):
            d = diastasis(geom, x, y)
            assert d >= 0.8 * lam * sum(abs(a - b) ** 2 for a, b in zip(x, y)) - 1e-12


class TestGoodContour:
    def test_flat_delta_one_boundary_tight(self):
        spec = preset_flat(1, 6)
        psi = polarize(spec)
        report = check_good_contour(spec, psi, samples=100, delta=1.0)
        assert report.passed
        assert report.max_excess == pytest.approx(0.0, abs=1e-12)

    def test_flat_delta_too_large_fails(self):
        spec = preset_flat(1, 6)
        psi = polarize(spec)
        report = check_good_contour(spec, psi, samples=100, delta=1.5)
        assert not report.passed
        assert report.max_excess > 0

    def test_chsc_passes_at_half(self):
        spec = preset_chsc(1, 1, 12)
        psi = polarize(spec)
        report = check_good_contour(spec, psi, samples=150, delta=0.5)
        assert report.passed

    def test_report_serializes(self):
        spec = preset_flat(1, 6)
        report = check_good_contour(spec, polarize(spec), samples=10, delta=1.0)
        d = report.to_dict()
        assert set(d) >= {"delta", "samples", "max_excess", "worst_pair", "passed"}


class TestPresetDispatch:
    def test_make_preset(self):
        assert make_preset("flat", 2, 6).coeffs == preset_flat(2, 6).coeffs
        assert make_preset("chsc", 1, 8, param=-1).coeffs == preset_chsc(1, -1, 8).coeffs
        with pytest.raises(SpecValidationError):
            make_preset("nope", 1, 6)


class TestSampling:
    def test_import_leaves_scipy_unloaded(self):
        # the Halton points are computed in the package, so importing it
        # costs no scipy.stats import
        src = Path(potential.__file__).resolve().parent.parent
        probe = "import sys, bergman; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


# -- the Hessian inverse ------------------------------------------------------

RATIONALS = st.builds(F, st.integers(-5, 5), st.sampled_from([1, 2, 3, 7]))


@st.composite
def rational_matrices(draw, size):
    """A square matrix of small rationals; one time in two its first pivot is 0, so
    elimination must swap rows at the first column."""
    rows = [[draw(RATIONALS) for _ in range(size)] for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        rows[0][0] = F(0)
    return rows


class TestHessianInverse:
    """Gauss-Jordan elimination against Cramer's rule over the reference determinant."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_elimination_matches_cramer(self, size, data):
        rows = data.draw(rational_matrices(size))
        try:
            want = cramer_inverse(rows)
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                _hessian_inverse(rows)
            return
        assert _hessian_inverse(rows) == want

    @pytest.mark.parametrize("rows", [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [0, 1, 3], [F(1, 2), 0, 0]],
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]],  # the second pivot is 0 after one step
    ], ids=["swap_2", "swap_twice", "swap_after_a_step"])
    def test_zero_pivots_swap_rows(self, rows):
        assert _hessian_inverse(rows) == cramer_inverse(rows)

    @pytest.mark.parametrize("size", [2, 3, 5])
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_singular_matrices_raise(self, size, data):
        rows = data.draw(rational_matrices(size))
        # the last row is a combination of the others
        weights = [data.draw(RATIONALS) for _ in range(size - 1)]
        rows[-1] = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(size)]
        with pytest.raises(ValueError, match="singular"):
            _hessian_inverse(rows)

    def test_flat_n8_inverts_in_under_a_second(self):
        # Cramer's rule took n^2 cofactor determinants: 9.4 s on a 2-CPU x86_64 VM
        theta = build_geometry(preset_flat(8, 4)).theta
        start = time.perf_counter()
        z = invert_theta(theta)[0]
        assert time.perf_counter() - start < 1.0
        assert z == TruncatedSeries.variables(24, 3)[16:]


# -- a read-only spec and its digest ------------------------------------------


class TestReadOnlySpec:
    @pytest.mark.parametrize("make", [
        lambda: preset_chsc(2, F(3, 5), 12), lambda: dense_spec(12), lambda: non_radial_n2_spec(8),
    ], ids=["chsc", "dense", "n2"])
    def test_digest_survives_the_record_round_trip(self, make):
        spec = make()
        back = PotentialSpec.from_record(spec.to_record())
        assert back.sha256() == spec.sha256() == spec.sha256()
        assert back == spec

    def test_the_spec_keeps_its_own_copy(self):
        coeffs = dict(dense_spec(12).coeffs)
        spec = PotentialSpec(1, 12, 0.3, coeffs)
        digest, record = spec.sha256(), spec.to_record()
        coeffs[((2,), (2,))] = F(1, 9)
        del coeffs[((3,), (1,))]
        assert spec.coeffs[((2,), (2,))] == F(3, 8) and ((3,), (1,)) in spec.coeffs
        assert spec.sha256() == digest and spec.to_record() == record
        assert spec.sha256() == PotentialSpec.from_record(record).sha256()

    def test_coeffs_refuse_item_assignment(self):
        spec = preset_chsc(1, 1, 6)
        with pytest.raises(TypeError):
            spec.coeffs[((1,), (1,))] = F(2)
        with pytest.raises(TypeError):
            del spec.coeffs[((1,), (1,))]

    def test_validation_runs_once_per_valid_spec(self, monkeypatch):
        # the Hessian test is the last check; a kept success runs it no more
        calls = []
        monkeypatch.setattr(potential, "_nonpositive_minor",
                            lambda rows: calls.append(rows) or _nonpositive_minor(rows))
        spec = non_radial_n2_spec(8)
        assert spec.validate() is None and len(calls) == 1
        assert spec.validate() is None and polarize(spec) == polarize(spec)
        assert len(calls) == 1
        PotentialSpec.from_record(spec.to_record()).validate()  # a new spec checks again
        assert len(calls) == 2

    @pytest.mark.parametrize("spec, match", [
        (PotentialSpec(1, 6, 0.3, {((0,), (0,)): F(1), ((1,), (1,)): F(1)}), "normalization"),
        (hessian_spec([[1, 2], [2, 1]]), "positive definite"),
    ], ids=["constant_term", "indefinite_hessian"])
    def test_an_invalid_spec_raises_on_every_call(self, monkeypatch, spec, match):
        calls = []
        monkeypatch.setattr(potential, "_nonpositive_minor",
                            lambda rows: calls.append(rows) or _nonpositive_minor(rows))
        for _ in range(3):
            with pytest.raises(SpecValidationError, match=match):
                spec.validate()
            with pytest.raises(SpecValidationError, match=match):
                polarize(spec)
        assert len(calls) == (6 if match == "positive definite" else 0)


# -- exact invariances of the b_m ---------------------------------------------


def _swapped(b):
    """b(z, x) for a series b(x, z) in (x, z) blocks: the blocks change places."""
    n = b.nvars // 2
    v = TruncatedSeries.variables(b.nvars, b.trunc_degree)
    return b.compose(v[n:] + v[:n])


def _asymmetric_orders(b) -> list:
    return [m for m, bm in enumerate(b) if _swapped(bm) != bm]


class TestInvariances:
    """Identities every b_m satisfies, whatever the potential."""

    @pytest.mark.parametrize("spec,order", [(dense_spec(12), 5), (non_radial_n2_spec(10), 4)],
                             ids=["dense", "n2"])
    def test_hermitian_symmetry(self, spec, order):
        # real coefficient data: b_m(x, z) = b_m(z, x)
        b = bergman_coefficients(build_geometry(spec), order).b
        assert len(b) == order + 1 and sum(len(bm.coeffs) for bm in b) > 4 * len(b)  # not vacuous
        assert _asymmetric_orders(b) == []

    @pytest.mark.parametrize("n", [1, 2])
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_hermitian_symmetry_of_drawn_specs(self, n, data):
        # Every order the degree allows.  At n=1 the draws of degree 7, whose b_2 has
        # an x or z term, catch Delta0 -> Delta0 + x_1 theta_1, a geometry fault that
        # both coefficient routes share; Delta0 -> Delta0^2 first shows at order 4 (see
        # below), which no draw reaches.
        spec = data.draw(hermitian_specs(n))
        b = bergman_coefficients(build_geometry(spec), (spec.trunc_degree - 2) // 2).b
        assert _asymmetric_orders(b) == []

    def test_scaling(self):
        # phi -> (3/2) phi is k -> 3k/2 in the kernel, so b_m -> (2/3)^m b_m
        spec = dense_spec(12)
        scaled = PotentialSpec(spec.n, spec.trunc_degree, spec.eval_radius,
                               {key: F(3, 2) * v for key, v in spec.coeffs.items()})
        b = bergman_coefficients(build_geometry(spec), 5).b
        got = bergman_coefficients(build_geometry(scaled), 5).b
        assert list(got) == [F(2, 3) ** m * bm for m, bm in enumerate(b)]

    def test_symmetry_catches_a_squared_delta0(self, monkeypatch):
        # Delta0 -> Delta0^2 enters both coefficient routes alike, so the
        # transport cross-check passes it; the symmetry at n=1 does not
        build = potential.build_delta0
        monkeypatch.setattr(potential, "build_delta0", lambda geom: build(geom) * build(geom))
        geom = build_geometry(dense_spec(12))
        b = bergman_coefficients(geom, 5).b
        assert geom.delta0_xytheta != build(build_geometry(dense_spec(12)))
        assert reconstruct_coefficients(geom, transport_chain(geom, 5)) == list(b)
        assert _asymmetric_orders(b) != []

    @pytest.mark.parametrize("spec, pluriharmonic, order", [
        # + (x^3 + conj(x)^3) / 5
        (dense_spec(12), {((3,), (0,)): F(1, 5), ((0,), (3,)): F(1, 5)}, 5),
        # - (x_1 x_2 + conj(x_1 x_2)) / 7, the one such term of the spec
        (non_radial_n2_spec(8), {((1, 1), (0, 0)): F(-1, 7), ((0, 0), (1, 1)): F(-1, 7)}, 3),
    ], ids=["dense_add_cubic", "n2_drop_x1x2"])
    def test_gauge(self, spec, pluriharmonic, order):
        """phi -> phi + h(x) + conj(h(x)), h holomorphic with no linear part, multiplies
        the kernel by e^(k h(x)) e^(k conj(h(y))) and changes no b_m.

        The terms move the phase by a z-free g(x, y), so z, Delta0 and every
        amplitude change while each b_m must stay field-equal.  A source mutation
        that this catches and the transport cross-check misses: ``build_theta``
        averaging only the terms of psi_x(y, z) that contain z, which drops g
        (see :meth:`test_gauge_catches_a_phase_without_its_z_free_terms`).  The
        Delta0 -> Delta0^2 patch passes both.
        """
        gauged = _with_added_terms(spec, pluriharmonic)
        geom, gauged_geom = build_geometry(spec), build_geometry(gauged)
        assert gauged_geom.z_of_theta != geom.z_of_theta  # the gauge reaches the geometry
        b = bergman_coefficients(geom, order).b
        assert sum(len(bm.coeffs) for bm in b) > 4 * len(b)  # not vacuous
        assert [_fields(bm) for bm in bergman_coefficients(gauged_geom, order).b] == [
            _fields(bm) for bm in b
        ]

    # F(u) = u + u^2/3 at n=1; F(u) = (u_1 + u_2^2/3, u_2 - u_1 u_2/2) at n=2
    COORDINATES = {
        "dense": (lambda: dense_spec(14), 6, [{(1,): F(1), (2,): F(1, 3)}]),
        "n2": (lambda: non_radial_n2_spec(10), 4,
               [{(1, 0): F(1), (0, 2): F(1, 3)}, {(0, 1): F(1), (1, 1): F(-1, 2)}]),
    }

    @staticmethod
    def _pulled_back(f, maps, degree):
        """f(F(u), F(v)) for f in (x, z) blocks, as a series in (u, v) blocks: x = F(u) and
        z = F(v), F with real coefficients, so that conj(F(u)) = F(conj(u))."""
        n = len(maps)
        pad = (0,) * n
        args = [TruncatedSeries(2 * n, degree, {e + pad: c for e, c in m.items()}) for m in maps]
        args += [TruncatedSeries(2 * n, degree, {pad + e: c for e, c in m.items()}) for m in maps]
        return f.compose(args)

    def _coordinate_pairs(self, name):
        """(b_m of the spec of psi o (F, conj F), b_m o (F, conj F)) through each effective
        degree D - 2m - 2, and the geometry of the pulled-back spec."""
        make, order, maps = self.COORDINATES[name]
        spec = make()
        n, D = spec.n, spec.trunc_degree
        psi = self._pulled_back(polarize(spec), maps, D)
        pulled = PotentialSpec(n, D, spec.eval_radius,
                               {(k[:n], k[n:]): v for k, v in psi.coeffs.items()})
        pulled.validate()
        b = bergman_coefficients(build_geometry(spec), order).b
        geom = build_geometry(pulled)
        got = bergman_coefficients(geom, order).b
        pairs = [(g.truncate(D - 2 * m - 2), self._pulled_back(bm, maps, bm.trunc_degree)
                  .truncate(D - 2 * m - 2)) for m, (g, bm) in enumerate(zip(got, b))]
        return pairs, geom, order

    @pytest.mark.parametrize("name", sorted(COORDINATES))
    def test_holomorphic_coordinates(self, name):
        """For x = F(u), F(u) = u + O(u^2) polynomial with real coefficients, the potential
        phi o F has the coefficients b_m o (F, conj F): the measure det phi_(x conj x)
        d lambda does not depend on the coordinates, so each b_m is a function.  Compared
        through each effective degree D - 2m - 2."""
        pairs, _, _ = self._coordinate_pairs(name)
        assert sum(len(got.coeffs) for got, _ in pairs) > 4 * len(pairs)  # not vacuous
        assert [got for got, _ in pairs] == [want for _, want in pairs]

    def test_coordinates_catch_a_squared_delta0_that_the_cross_check_misses(self, monkeypatch):
        # Delta0 -> Delta0^2 enters both coefficient routes alike, so the transport
        # reconstruction still equals b; the coordinate change at n=2 sees it
        build = potential.build_delta0
        monkeypatch.setattr(potential, "build_delta0", lambda geom: build(geom) * build(geom))
        pairs, geom, order = self._coordinate_pairs("n2")
        b = bergman_coefficients(geom, order).b
        assert reconstruct_coefficients(geom, transport_chain(geom, order)) == list(b)
        assert [m for m, (got, want) in enumerate(pairs) if got != want] != []

    def test_gauge_catches_a_phase_without_its_z_free_terms(self, monkeypatch):
        # psi_x(y, z) has z-free terms only from pluriharmonic ones; averaging
        # without them keeps both coefficient routes in step, so the transport
        # cross-check passes, but b_m then depends on the gauge
        spec = dense_spec(12)
        b = bergman_coefficients(build_geometry(spec), 5).b
        build = potential.build_theta

        def without_z_free_terms(psi_x_yz):
            n = psi_x_yz[0].nvars // 3
            return build([TruncatedSeries(f.nvars, f.trunc_degree, {
                k: v for k, v in f.coeffs.items() if any(k[2 * n:])}) for f in psi_x_yz])

        monkeypatch.setattr(potential, "build_theta", without_z_free_terms)
        assert bergman_coefficients(build_geometry(spec), 5).b == b  # no z-free terms to drop
        geom = build_geometry(_with_added_terms(spec, {((3,), (0,)): F(1, 5),
                                                       ((0,), (3,)): F(1, 5)}))
        gauged = bergman_coefficients(geom, 5).b
        assert reconstruct_coefficients(geom, transport_chain(geom, 5)) == list(gauged)
        assert list(gauged) != list(b)


def _with_added_terms(spec, terms):
    """``spec`` with ``terms`` added to its coefficients; a sum of 0 drops the term."""
    coeffs = dict(spec.coeffs)
    for key, value in terms.items():
        coeffs[key] = coeffs.get(key, 0) + value
    return PotentialSpec(spec.n, spec.trunc_degree, spec.eval_radius,
                         {key: v for key, v in coeffs.items() if v})
