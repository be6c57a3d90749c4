"""Transport-equation chain for the kernel amplitude.

An independent route to the Bergman coefficients: vector amplitudes A_m are
produced order by order from fundamental-theorem-of-calculus solutions of the
division problem ``(x - y) . A_m = RHS_m``, where each right hand side is
built from derivatives of the previous order composed through the phase
chain ``theta -> z(x,y,theta) -> theta(x,x,z)`` by the geometry itself
(:class:`bergman.potential.GeometryPack`), whose two compositions and caches
the divergence recursion shares.  The diagonal pullback of step m collapses
``y = x``, composes through ``psi_x(x, z)`` (``geom.to_xz``) and then
through ``z(x,y,theta)`` (``geom.substitute_z``), the same two steps as the
recursion's.  The scalar amplitude is then reassembled as
``(1 + k (x-y).A + D_theta.A) / Delta0`` and collapsed at ``y = x``, giving
coefficients that must agree exactly with the divergence-form recursion of
:mod:`bergman.coefficients`.  That collapse, ``b_m = to_xz(D_theta . A_m)``,
is the first half of the pullback of step m + 1, so the chain keeps the
b_1..b_{M-1} its steps made and reconstruction collapses only ``A_M``.

The particular solution of each step is the averaged y-gradient
``A_i = -int_0^1 (D_{y_i} f)(x, tx+(1-t)y, theta) dt`` of its right-hand
side f, the segment average over the y block that also builds the phase; it
is what makes the chain reproducible (solutions of the division problem are
not unique).  :func:`bergman.series.y_gradient_average` makes all n
components from the (coefficient, series) pairs of f: it sums them into one
series and reads each ``-D_(y_i)`` of it from the series core's one
derivative routine straight into the segment average, so no y-derivative is
built as a series, and ``D_theta . A`` is one linear combination that
differentiates its terms.

Degree bookkeeping, refused at runtime by
:func:`bergman.potential.require_degree`: with geometry at degree D the order
m vector amplitude is exact through ``D - 2m - 1`` (one y derivative and one
theta derivative per step), so a chain to order M needs ``D >= 2M + 1`` and
coefficient reconstruction needs ``D >= 2M + 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .potential import GeometryPack, require_degree
from .series import TruncatedSeries, linear_combination, unit, y_gradient_average


@dataclass(frozen=True)
class TransportChain:
    """Vector amplitudes A_1..A_M; index 0 holds the zero vector A_0."""

    n: int
    M: int
    A: tuple  # A[m] is a tuple of n series in (x, y, theta) blocks
    # b_1..b_{M-1}, the collapses the steps computed; not in the record or ==
    b: tuple = field(default=(), compare=False, repr=False)

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "M": self.M,
            "A": [[s.to_record() for s in vec] for vec in self.A],
        }


def _divergence_theta(vec, n: int) -> TruncatedSeries:
    """D_theta . vec, the sum of the D_{theta_i} vec[i], made in one linear combination."""
    return linear_combination([(1, a, unit(3 * n, 2 * n + i)) for i, a in enumerate(vec)])


def _step_rhs(geom: GeometryPack, prev_vec) -> tuple:
    """The collapse b_{m-1} and the right-hand side ``geom.amplitude(b_{m-1}) - P``
    of one step, as the (coefficient, series) pairs that :func:`y_gradient_average` sums.

    Here P = D_theta . A_{m-1} and b_{m-1} = ``geom.to_xz(P)``; the
    amplitude ``(b_{m-1} o z) * Delta0`` holds the diagonal pullback of P;
    after the recursion, ``geom.amplitude`` returns the one it composed.
    """
    p = _divergence_theta(prev_vec, geom.n)
    b_prev = geom.to_xz(p)
    amp = geom.amplitude(b_prev)
    return b_prev, [(1, amp), (-1, p.truncate(amp.trunc_degree))]


def first_amplitude(geom: GeometryPack) -> tuple:
    """A_1: componentwise -int_0^1 (D_{y_i} Delta0)(x, tx+(1-t)y, theta) dt."""
    return tuple(y_gradient_average([(1, geom.delta0_xytheta)], geom.n))


def next_amplitude(geom: GeometryPack, prev_vec) -> tuple:
    """``(A_m, b_{m-1})`` from A_{m-1} = ``prev_vec``, for m >= 2.

    A_m is the same averaged-gradient solution as A_1; b_{m-1} is the
    collapse of D_theta . A_{m-1} that the step computes on the way.
    """
    b_prev, rhs = _step_rhs(geom, prev_vec)
    return tuple(y_gradient_average(rhs, geom.n)), b_prev


def transport_chain(geom: GeometryPack, M: int) -> TransportChain:
    """Build A_1..A_M; raises when the geometry degree cannot support M."""
    n, D = geom.n, geom.degree
    require_degree(D, 2 * M + 1, f"the transport chain to order {M}")
    zero_vec = tuple(TruncatedSeries.zero(3 * n, D - 1) for _ in range(n))
    vectors = [zero_vec]
    collapses = []
    if M >= 1:
        vectors.append(first_amplitude(geom))
    for m in range(2, M + 1):
        vec, b_prev = next_amplitude(geom, vectors[m - 1])
        vectors.append(vec)
        collapses.append(b_prev)
    return TransportChain(n=n, M=M, A=tuple(vectors), b=tuple(collapses))


def reconstruct_coefficients(geom: GeometryPack, chain: TransportChain) -> list:
    """Coefficients b_0..b_M from the chain, in (x, z) blocks.

    Collapsing the reassembled amplitude at y = x leaves
    ``b_m(x, z) = (D_theta . A_m)(x, x, psi_x(x, z))`` for m >= 1.  The
    chain's steps computed b_1..b_{M-1}, so only b_M is collapsed here.
    """
    n, D = geom.n, geom.degree
    require_degree(D, 2 * chain.M + 2, f"reconstruction to order {chain.M}")
    out = [TruncatedSeries.one(2 * n, D), *chain.b]
    for m in range(len(out), chain.M + 1):
        out.append(geom.to_xz(_divergence_theta(chain.A[m], n)))
    return out

