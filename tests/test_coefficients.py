"""The coefficient recursion against model potentials and formal identities."""

from fractions import Fraction

import pytest

from bergman.coefficients import (
    amplitude_from_b,
    bergman_coefficients,
    derivative_norm_table,
    required_geometry_degree,
)
from bergman.potential import (
    DegreeBudgetError,
    GeometryPack,
    RadiusError,
    build_geometry,
    preset_chsc,
    preset_flat,
    preset_quartic,
)
from bergman.series import TruncatedSeries
import reference
from oracles import is_zero

F = Fraction


@pytest.fixture(scope="module")
def quartic_geom():
    return build_geometry(preset_quartic(1, F(1, 10), 12))


@pytest.fixture(scope="module")
def quartic_table(quartic_geom):
    return bergman_coefficients(quartic_geom, 3)


def entry(norms, m, xi):
    """The grid norm of D_z^xi b_m in a NormTable."""
    return norms.entries[(m, tuple(xi))]


def constant_value(series):
    """The constant coefficient, asserting no other terms survive."""
    assert len(series.coeffs) <= 1
    return series.constant_term


class TestModels:
    def test_flat_all_orders_vanish(self):
        geom = build_geometry(preset_flat(2, 10))
        table = bergman_coefficients(geom, 3)
        for m in range(1, 4):
            assert is_zero(table.b[m])

    def test_chsc11_constants(self):
        geom = build_geometry(preset_chsc(1, 1, 10))
        table = bergman_coefficients(geom, 3)
        assert table.b[0] == TruncatedSeries.one(2, 10)
        assert constant_value(table.b[1]) == 1
        assert constant_value(table.b[2]) == 0
        assert constant_value(table.b[3]) == 0

    def test_chsc21_constants(self):
        geom = build_geometry(preset_chsc(2, 1, 10))
        table = bergman_coefficients(geom, 3)
        assert constant_value(table.b[1]) == 3
        assert constant_value(table.b[2]) == 2
        assert constant_value(table.b[3]) == 0

    def test_quartic_leading_value(self, quartic_table):
        # hand derivation: b_1(0,0) = -2t for phi = |x|^2 + t |x|^4
        assert quartic_table.b[1].constant_term == F(-1, 5)

    def test_effective_degrees(self, quartic_table):
        assert quartic_table.degrees == (12, 8, 6, 4)


class TestContracts:
    def test_degree_guard(self):
        geom = build_geometry(preset_quartic(1, F(1, 10), 6))
        with pytest.raises(DegreeBudgetError) as err:
            bergman_coefficients(geom, 3)
        assert err.value.required_degree == required_geometry_degree(3)

    def test_truncation_stability(self, quartic_table):
        low = bergman_coefficients(build_geometry(preset_quartic(1, F(1, 10), 8)), 2)
        for m in range(3):
            # equal through the lower table's degree, term by term
            assert low.b[m] == quartic_table.b[m].truncate(low.degrees[m])

    def test_on_diagonal_reality(self, quartic_table):
        from bergman.sampling import polydisc_points

        for x in polydisc_points(1, 0.2, 12):
            for m in (1, 2):
                v = quartic_table.b[m].eval(list(x) + [c.conjugate() for c in x])
                assert abs(v.imag) <= 1e-10

    def test_serialization_roundtrip(self, quartic_table):
        from bergman.coefficients import CoefficientTable

        rec = quartic_table.to_record()
        back = CoefficientTable.from_record(rec)
        assert back.b == quartic_table.b
        assert back.degrees == quartic_table.degrees


class TestAmplitudes:
    def test_recursion_amplitudes_are_reused_and_not_recorded(self, monkeypatch):
        from bergman.coefficients import CoefficientTable

        spec = preset_quartic(1, F(1, 10), 12)
        geom = build_geometry(spec)
        composed = []
        amplitude = GeometryPack.amplitude

        def spy(self, b):
            composed.append(amplitude(self, b))
            return composed[-1]

        monkeypatch.setattr(GeometryPack, "amplitude", spy)
        recursion = bergman_coefficients(geom, 3)
        monkeypatch.undo()
        assert len(composed) == 2  # a_1, a_2 of an order-3 recursion
        table = amplitude_from_b(recursion, geom)
        assert all(a is c for a, c in zip(table.a[1:3], composed))
        back = CoefficientTable.from_record(table.to_record())
        assert back == table and back.to_record() == table.to_record()
        assert amplitude_from_b(back, build_geometry(spec)).a == table.a

    def test_a_different_b_of_the_same_degree_is_composed_anew(self, quartic_geom, quartic_table):
        b = quartic_table.b[2]
        kept = quartic_geom.amplitude(b)
        other = b + TruncatedSeries.variable(2, b.trunc_degree, 1)
        got = quartic_geom.amplitude(other)
        assert got != kept
        assert got == build_geometry(quartic_geom.spec).amplitude(other)
        assert quartic_geom.amplitude(b) is kept

    def test_flat_amplitudes_vanish(self):
        geom = build_geometry(preset_flat(1, 8))
        table = amplitude_from_b(bergman_coefficients(geom, 2), geom)
        for a in table.a:
            assert is_zero(a)

    def test_a0_is_delta0_minus_one(self, quartic_geom, quartic_table):
        table = amplitude_from_b(quartic_table, quartic_geom)
        assert table.a[0] == quartic_geom.delta0_xytheta - 1

    def test_chsc_a1_is_delta0(self):
        geom = build_geometry(preset_chsc(1, 1, 10))
        table = amplitude_from_b(bergman_coefficients(geom, 1), geom)
        assert table.a[1] == geom.delta0_xytheta.truncate(table.a[1].trunc_degree)

    def test_diagonal_amplitude_equals_composed_coefficient(self, quartic_geom, quartic_table):
        # a_m(x,x,theta) = b_m(x, z(x,x,theta)) because Delta0(x,x,theta) = 1
        n = quartic_geom.n
        table = amplitude_from_b(quartic_table, quartic_geom)
        var_map = tuple(range(n)) + tuple(range(n)) + tuple(range(n, 2 * n))
        for m in (1, 2):
            merged_a = reference.rename(table.a[m], 2 * n, var_map)
            z_diag = [
                reference.rename(z.truncate(table.a[m].trunc_degree), 2 * n, var_map)
                for z in quartic_geom.z_of_theta
            ]
            ids = TruncatedSeries.variables(2 * n, z_diag[0].trunc_degree)[:n]
            expected = table.b[m].compose(ids + z_diag)
            assert merged_a == expected


class TestNormTable:
    def test_entry_zero_zero_is_one(self, quartic_geom, quartic_table):
        norms = derivative_norm_table(quartic_table, quartic_geom, 0.1, 3)
        assert entry(norms, 0, (0,)) == 1.0

    def test_flat_entries_vanish(self):
        geom = build_geometry(preset_flat(1, 8))
        table = bergman_coefficients(geom, 2)
        norms = derivative_norm_table(table, geom, 0.2, 3, xi_max=1)
        for m in (1, 2):
            assert entry(norms, m, (0,)) == 0.0
            assert entry(norms, m, (1,)) == 0.0

    def test_quartic_m1_golden(self, quartic_geom, quartic_table):
        norms = derivative_norm_table(quartic_table, quartic_geom, 0.1, 5)
        value = entry(norms, 1, (0,))
        assert value > 0
        # regression pin, first computed by this exact configuration
        assert value == pytest.approx(0.20097963860102674, rel=1e-9)

    @pytest.mark.parametrize("radius", [0.31, float("nan")])
    def test_radius_outside_the_spec_radius_is_refused(self, quartic_geom, quartic_table, radius):
        with pytest.raises(RadiusError):
            derivative_norm_table(quartic_table, quartic_geom, radius, 3)

    def test_csv_rows_carry_metadata(self, quartic_geom, quartic_table):
        norms = derivative_norm_table(quartic_table, quartic_geom, 0.1, 3, xi_max=1)
        rows = norms.csv_rows()
        assert all(row["radius"] == 0.1 and row["grid"] == 3 for row in rows)
        assert any(row["xi"] == "1" for row in rows)
