"""Transport chain: defining identities, y-independence, cross-method equality."""

from dataclasses import fields
from fractions import Fraction

import pytest

from bergman import potential
from bergman.coefficients import amplitude_from_b, bergman_coefficients
from bergman.kernel import eval_KN
from bergman.potential import (
    DegreeBudgetError,
    GeometryPack,
    PotentialSpec,
    build_geometry,
    preset_chsc,
    preset_flat,
    preset_quartic,
)
from bergman.series import TruncatedSeries, linear_combination, mul_trunc, unit
from bergman.transport import (
    _divergence_theta,
    _step_rhs,
    first_amplitude,
    next_amplitude,
    reconstruct_coefficients,
    transport_chain,
)
import reference
from oracles import is_zero

F = Fraction


def _x_minus_y(n, i):
    """The exact degree-one factor x_i - y_i in (x, y, theta) blocks."""
    return TruncatedSeries(3 * n, 1, {unit(3 * n, i): 1, unit(3 * n, n + i): -1})


def division_identity_gap(geom, chain, m):
    """(x - y) . A_m minus its defining right hand side; zero when exact.

    For m = 1 the right hand side is Delta0 - 1; for m >= 2 it is
    Delta0 * (D_theta . A_{m-1})(x,x,theta(x,x,z(x,y,theta))) - D_theta . A_{m-1}.
    """
    n = geom.n
    if m == 1:
        rhs = geom.delta0_xytheta - 1
    else:
        _, pairs = _step_rhs(geom, chain.A[m - 1])
        rhs = linear_combination(pairs)
    out_degree = min(chain.A[m][0].trunc_degree + 1, rhs.trunc_degree)
    lhs = TruncatedSeries.zero(3 * n, out_degree)
    for i in range(n):
        lhs = lhs + mul_trunc(_x_minus_y(n, i), chain.A[m][i], out_degree)
    return lhs - rhs.truncate(out_degree)


def amplitude_order_xyz(geom, chain, m):
    """Order-m part of (1 + k (x-y).A + D_theta.A) / Delta0 in (x, y, z) blocks.

    The k-weighted term shifts A_{m+1} down to order m, so this needs the
    chain built through m + 1.  The result must not depend on the y block;
    that is the content of the amplitude being a function of (x, z) alone.
    """
    n = geom.n
    if m + 1 > chain.M:
        raise ValueError(f"order {m} needs the chain through {m + 1}")
    if m == 0:
        p = TruncatedSeries.constant(3 * n, geom.degree - 2, 1)
    else:
        p = _divergence_theta(chain.A[m], n)
    out_degree = p.trunc_degree
    num = p
    for i in range(n):
        num = num + mul_trunc(_x_minus_y(n, i), chain.A[m + 1][i], out_degree)
    inv_delta0 = geom.delta0_xytheta.invert().truncate(out_degree)
    b_xytheta = num * inv_delta0
    ids3 = TruncatedSeries.variables(3 * n, geom.degree - 1)
    args = list(ids3[: 2 * n]) + [t for t in geom.theta]
    return b_xytheta.compose(args)


@pytest.fixture(scope="module")
def quartic_geom():
    return build_geometry(preset_quartic(1, F(1, 10), 12))


@pytest.fixture(scope="module")
def quartic_chain(quartic_geom):
    return transport_chain(quartic_geom, 4)


class TestFirstOrder:
    def test_flat_vanishes(self):
        geom = build_geometry(preset_flat(2, 8))
        chain = transport_chain(geom, 2)
        for m in (1, 2):
            for comp in chain.A[m]:
                assert is_zero(comp)

    def test_division_identity(self, quartic_geom, quartic_chain):
        assert is_zero(division_identity_gap(quartic_geom, quartic_chain, 1))

    def test_chsc_scalar_closed_form(self):
        # n = 1, c = 1: (x - y) A_1 = e^{theta (x - y)} - 1
        geom = build_geometry(preset_chsc(1, 1, 10))
        chain = transport_chain(geom, 1)
        import math

        D = chain.A[1][0].trunc_degree + 1
        u = TruncatedSeries(3, D, {(1, 0, 1): 1, (0, 1, 1): -1})
        expm1_u = TruncatedSeries(
            1, D, {(j,): F(1, math.factorial(j)) for j in range(1, D + 1)}
        ).compose([u])

        xy = TruncatedSeries(3, 1, {(1, 0, 0): 1, (0, 1, 0): -1})
        assert mul_trunc(xy, chain.A[1][0], D) == expm1_u


class TestSteps:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_division_identity_each_order(self, quartic_geom, quartic_chain, m):
        assert is_zero(division_identity_gap(quartic_geom, quartic_chain, m))

    def test_chsc2_division_identity(self):
        geom = build_geometry(preset_chsc(2, 1, 8))
        chain = transport_chain(geom, 2)
        assert is_zero(division_identity_gap(geom, chain, 1))
        assert is_zero(division_identity_gap(geom, chain, 2))

    def test_degree_guard(self):
        geom = build_geometry(preset_flat(1, 5))
        with pytest.raises(DegreeBudgetError):
            transport_chain(geom, 3)

    def test_stepwise_api_matches_chain(self, quartic_geom, quartic_chain):
        a1 = first_amplitude(quartic_geom)
        assert a1 == quartic_chain.A[1]
        a2, b1 = next_amplitude(quartic_geom, a1)
        assert a2 == quartic_chain.A[2]
        assert b1 == quartic_chain.b[0] == bergman_coefficients(quartic_geom, 1).b[1]


class TestReconstruction:
    def test_flat_is_one(self):
        geom = build_geometry(preset_flat(1, 8))
        b = reconstruct_coefficients(geom, transport_chain(geom, 2))
        assert b[0] == TruncatedSeries.one(2, 8)
        assert is_zero(b[1]) and is_zero(b[2])

    def test_chsc11_first_coefficient(self):
        geom = build_geometry(preset_chsc(1, 1, 10))
        b = reconstruct_coefficients(geom, transport_chain(geom, 2))
        assert b[1] == TruncatedSeries.constant(2, b[1].trunc_degree, 1)
        assert is_zero(b[2])

    def test_matches_divergence_recursion_on_quartic(self, quartic_geom, quartic_chain):
        direct = bergman_coefficients(quartic_geom, 3)
        via_transport = reconstruct_coefficients(
            quartic_geom, transport_chain(quartic_geom, 3)
        )
        for m in range(4):
            assert via_transport[m] == direct.b[m]

    def test_both_routes_share_one_phase_chain(self, monkeypatch):
        solve, inversions = potential.invert_theta, []

        def counting(theta):
            inversions.append(theta)
            return solve(theta)

        monkeypatch.setattr(potential, "invert_theta", counting)
        geom = build_geometry(preset_quartic(1, F(1, 10), 10))
        table = amplitude_from_b(bergman_coefficients(geom, 3), geom)
        def shared():
            return geom.z_of_theta, geom.delta0_xytheta, geom.z_powers, geom.psi_x_powers

        kept = shared()
        chain = transport_chain(geom, 3)
        recon = reconstruct_coefficients(geom, chain)
        assert is_zero(division_identity_gap(geom, chain, 3))
        assert len(inversions) == 1
        assert all(a is b for a, b in zip(kept, shared()))
        assert recon == list(table.b)

    def test_steps_after_the_recursion_compose_no_amplitude(self, monkeypatch):
        spec = preset_quartic(1, F(1, 10), 12)
        geom = build_geometry(spec)
        bergman_coefficients(geom, 5)
        substitute_z = GeometryPack.substitute_z
        composed_b = []

        def spy(self, f):
            if f.nvars == 2:  # a b-series, in (x, z) blocks
                composed_b.append(f)
            return substitute_z(self, f)

        monkeypatch.setattr(GeometryPack, "substitute_z", spy)
        chain = transport_chain(geom, 5)
        assert composed_b == []
        # on a geometry where no recursion ran, the steps compose b_1..b_4
        fresh = transport_chain(build_geometry(spec), 5)
        assert len(composed_b) == 4
        assert chain == fresh and chain.b == fresh.b

    def test_step_collapses_are_reused_and_not_recorded(self, quartic_geom, quartic_chain):
        assert len(quartic_chain.b) == quartic_chain.M - 1  # b_1..b_{M-1}
        recon = reconstruct_coefficients(quartic_geom, quartic_chain)
        assert all(a is b for a, b in zip(recon[1:], quartic_chain.b))
        assert "b" not in quartic_chain.to_record()

    def test_order_zero_amplitude_is_one(self, quartic_geom, quartic_chain):
        b0 = amplitude_order_xyz(quartic_geom, quartic_chain, 0)
        assert b0 == TruncatedSeries.one(3, b0.trunc_degree)


class TestYIndependence:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_y_block_absent(self, quartic_geom, quartic_chain, m):
        full = amplitude_order_xyz(quartic_geom, quartic_chain, m)
        n = quartic_geom.n
        for key in full.coeffs:
            assert all(e == 0 for e in key[n : 2 * n])

    def test_collapse_matches_recursion(self, quartic_geom, quartic_chain):
        direct = bergman_coefficients(quartic_geom, 3)
        n = quartic_geom.n
        for m in (1, 2, 3):
            full = amplitude_order_xyz(quartic_geom, quartic_chain, m)
            collapsed = reference.rename(
                full, 2 * n, tuple(range(n)) + tuple(range(n)) + tuple(range(n, 2 * n))
            )
            assert collapsed == direct.b[m].truncate(collapsed.trunc_degree)


class TestNormGrowthProbe:
    def test_amplitude_norms_stay_under_factorial_squared_envelope(self):
        # grid sup-norms of A_m: the implied constant (norm / (m!)^2)^(1/m)
        # must stabilize rather than keep climbing
        import math

        from bergman.sampling import polydisc_points

        geom = build_geometry(preset_quartic(1, F(1, 10), 18))
        chain = transport_chain(geom, 5)
        xs = polydisc_points(1, 0.1, 5)
        ys = polydisc_points(1, 0.1, 5, skip=5)
        ts = polydisc_points(1, 0.1, 5, skip=10)
        implied = []
        for m in range(1, 6):
            best = 0.0
            for comp in chain.A[m]:
                for a in xs:
                    for b in ys:
                        for t in ts:
                            v = abs(comp.eval(list(a) + list(b) + list(t)))
                            if v > best:
                                best = v
            assert best > 0
            implied.append((best / math.factorial(m) ** 2) ** (1.0 / m))
        assert max(implied) <= 1.10 * max(implied[:3])


def _series_in(obj):
    """Every series held by a dataclass, tuple or list, recursively."""
    if isinstance(obj, TruncatedSeries):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _series_in(item)
    elif hasattr(obj, "__dataclass_fields__"):
        for field in fields(obj):
            yield from _series_in(getattr(obj, field.name))


def test_pipeline_reads_only_the_packed_form():
    # Dense non-radial n=1 potential: every step of both routes, the exact
    # cross-check, the records and float evaluation run without the coeffs view.
    third = F(1, 3)
    coeffs = {((1,), (1,)): F(1), ((2,), (1,)): third, ((1,), (2,)): third,
              ((2,), (2,)): F(-1, 8), ((3,), (1,)): F(1, 6), ((1,), (3,)): F(1, 6),
              ((3,), (2,)): F(2, 7), ((2,), (3,)): F(2, 7)}
    geom = build_geometry(PotentialSpec(n=1, trunc_degree=10, eval_radius=0.3, coeffs=coeffs))
    table = amplitude_from_b(bergman_coefficients(geom, 4), geom)
    chain = transport_chain(geom, 4)
    recon = reconstruct_coefficients(geom, chain)
    assert all(recon[m] == table.b[m] for m in range(5))
    assert all((table.to_record(), chain.to_record(), [s.to_record() for s in recon]))
    eval_KN(geom, table, 40, 4, [0.1 + 0.05j], [0.12 - 0.03j])
    layers = (geom.z_of_theta, geom.delta0_xytheta)
    held = list(_series_in((geom, layers, table, chain, recon)))
    # geometry fields (psi, psi_x, psi_x_yz, theta), its z_of_theta and Delta0 (the quotient
    # is not built), its kept (b_m, a_m) for m = 1..4, b and a, A_0..A_4, the steps'
    # b_1..b_3, reconstructed b
    assert len(held) == 4 + 2 + 8 + 10 + 5 + 3 + 5
    assert [s for s in held if s._coeffs is not None] == []
