"""Transport-equation chain for the kernel amplitude.

An independent route to the Bergman coefficients: vector amplitudes A_m are
produced order by order from fundamental-theorem-of-calculus solutions of the
division problem ``(x - y) . A_m = RHS_m``, where each right hand side is
built from derivatives of the previous order composed through the phase
chain ``theta -> z(x,y,theta) -> theta(x,x,z)``: the geometry's one
``geom.phase`` (:class:`bergman.potential.PhaseChain`), whose two
compositions and caches the divergence recursion shares.  Its diagonal
pullback collapses ``y = x``, composes through ``psi_x(x, z)`` and then
through ``z(x,y,theta)``, the same two steps as the recursion's.  The
scalar amplitude is then reassembled as
``(1 + k (x-y).A + D_theta.A) / Delta0`` and collapsed at ``y = x``, giving
coefficients that must agree exactly with the divergence-form recursion of
:mod:`bergman.coefficients`.

The particular antiderivative solutions used here are the segment averages;
they are what makes the chain reproducible (solutions of the division
problem are not unique).

Degree bookkeeping, asserted at runtime: with geometry at degree D the order
m vector amplitude is exact through ``D - 2m - 1`` (one y derivative and one
theta derivative per step), so a chain to order M needs ``D >= 2M + 1`` and
coefficient reconstruction needs ``D >= 2M + 2``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .potential import DegreeBudgetError, GeometryPack
from .series import TruncatedSeries, linear_combination, segment_average, unit


@dataclass(frozen=True)
class TransportChain:
    """Vector amplitudes A_1..A_M; index 0 holds the zero vector A_0."""

    n: int
    M: int
    A: tuple  # A[m] is a tuple of n series in (x, y, theta) blocks

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "A": [[s.to_record() for s in vec] for vec in self.A],
        }


def _segment_average_y(f: TruncatedSeries, n: int) -> TruncatedSeries:
    """Integrate f(x, t x + (1-t) y, theta) dt over [0, 1], termwise."""
    passthrough = {i: i for i in range(n)}
    passthrough.update({2 * n + i: 2 * n + i for i in range(n)})
    return segment_average(
        f, n, block_start=n, x_start=0, y_start=n, out_nvars=3 * n,
        passthrough=passthrough,
    )


def _y_gradient_average(f: TruncatedSeries, n: int) -> list:
    """Components -int_0^1 (D_{y_i} f)(x, tx+(1-t)y, theta) dt."""
    return [-_segment_average_y(f.diff(unit(3 * n, n + i)), n) for i in range(n)]


def _divergence_theta(vec, n: int) -> TruncatedSeries:
    return linear_combination([(1, vec[i].diff(unit(3 * n, 2 * n + i))) for i in range(n)])


def _step_rhs(geom: GeometryPack, prev_vec) -> TruncatedSeries:
    """Delta0 * Q - P for one step, with P = D_theta . A_{m-1} and Q its diagonal pullback."""
    p = _divergence_theta(prev_vec, geom.n)
    q = geom.phase.diagonal_pullback(p)
    delta0 = geom.delta0_xytheta.truncate(q.trunc_degree)
    return delta0 * q - p.truncate(q.trunc_degree)


def first_amplitude(geom: GeometryPack) -> tuple:
    """A_1: componentwise -int_0^1 (D_{y_i} Delta0)(x, tx+(1-t)y, theta) dt."""
    return tuple(_y_gradient_average(geom.delta0_xytheta, geom.n))


def next_amplitude(geom: GeometryPack, prev_vec, m: int) -> tuple:
    """A_m from A_{m-1}, for m >= 2, by the same averaged-gradient solution."""
    if m < 2:
        raise ValueError("next_amplitude starts at order 2")
    return tuple(_y_gradient_average(_step_rhs(geom, prev_vec), geom.n))


def transport_chain(geom: GeometryPack, M: int) -> TransportChain:
    """Build A_1..A_M; raises when the geometry degree cannot support M."""
    n, D = geom.n, geom.degree
    if M >= 1 and D < 2 * M + 1:
        raise DegreeBudgetError(
            f"transport chain to order {M} needs geometry degree >= {2 * M + 1}, got {D}",
            2 * M + 1,
        )
    zero_vec = tuple(
        TruncatedSeries.zero(3 * n, max(0, D - 1)) for _ in range(n)
    )
    vectors = [zero_vec]
    if M >= 1:
        vectors.append(first_amplitude(geom))
    for m in range(2, M + 1):
        vectors.append(next_amplitude(geom, vectors[m - 1], m))
    return TransportChain(n=n, M=M, A=tuple(vectors))


def reconstruct_coefficients(geom: GeometryPack, chain: TransportChain) -> list:
    """Coefficients b_0..b_M from the chain, in (x, z) blocks.

    Collapsing the reassembled amplitude at y = x leaves
    ``b_m(x, z) = (D_theta . A_m)(x, x, psi_x(x, z))`` for m >= 1.
    """
    n, D = geom.n, geom.degree
    if D < 2 * chain.M + 2:
        raise DegreeBudgetError(
            f"reconstruction to order {chain.M} needs geometry degree >= {2 * chain.M + 2}",
            2 * chain.M + 2,
        )
    out = [TruncatedSeries.one(2 * n, D)]
    for m in range(1, chain.M + 1):
        out.append(geom.phase.to_xz(_divergence_theta(chain.A[m], n)))
    return out

