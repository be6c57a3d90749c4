"""Bergman coefficient series by the divergence-form amplitude recursion.

Order m is obtained from the lower orders by applying powers of the mixed
operator ``D_y . D_theta`` to the composed amplitude
``b_{m-l}(x, z(x,y,theta)) * Delta0(x,y,theta)``, restricting to ``y = x``
and converting the result back to ``(x, z)`` coordinates through the
on-diagonal phase ``theta(x,x,z) = psi_x(x,z)``.  The amplitude is
``geom.amplitude`` and the collapse is ``geom.to_xz``, both compositions of
the geometry (:class:`bergman.potential.GeometryPack`), which the transport
route uses too.  Each level is one :func:`bergman.series.linear_combination`
whose terms carry their multi-index ``(0, delta, delta)``: the sum
differentiates each amplitude as it reads it, so no derivative is a series
of its own, and the a_j of different degrees meet at one output degree.
All steps are exact.  The
recursion needs the amplitudes ``a_j = (b_j o z) * Delta0`` for j < M;
``geom.amplitude`` keeps each one it composes, so :func:`amplitude_from_b`
and the transport chain read them back, and only ``a_M`` is new.

Degree bookkeeping: with geometry built at truncation degree D, the order m
coefficient is exact through total degree ``D - 2m - 2`` for m >= 1 (the
2l mixed derivatives at each level cost 2l degrees, and Delta0 itself sits
two derivative orders below psi).  The table stores those effective degrees,
and the entry point refuses degrees that cannot support the requested order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb, factorial

from .potential import (
    GeometryPack,
    RadiusError,
    ResourceGuardError,
    in_eval_radius,
    require_degree,
)
from .sampling import polydisc_points
from .series import TruncatedSeries, exponents_of_degree, linear_combination, multi_factorial


def required_geometry_degree(order: int) -> int:
    """Smallest geometry truncation degree that supports ``order``."""
    return 2 * order + 2


@dataclass(frozen=True)
class CoefficientTable:
    """The family b_0..b_M in (x, z) blocks, with optional amplitudes a_m."""

    n: int
    M: int
    b: tuple                      # (x, z) series, index 0..M
    degrees: tuple                # effective truncation degree per order
    spec_sha256: str
    a: tuple | None = None        # (x, y, theta) series, index 0..M

    def to_record(self) -> dict:
        rec = {
            "n": self.n,
            "M": self.M,
            "effective_degrees": list(self.degrees),
            "spec_sha256": self.spec_sha256,
            "b": [s.to_record() for s in self.b],
        }
        if self.a is not None:
            rec["a"] = [s.to_record() for s in self.a]
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "CoefficientTable":
        """The table of ``rec``; a ValueError unless its fields agree with its series."""
        n, M = rec["n"], rec["M"]
        if type(n) is not int or type(M) is not int or M < 0:
            raise ValueError(f"n and M must be integers and M >= 0, got n={n!r}, M={M!r}")
        b = tuple(TruncatedSeries.from_record(r) for r in rec["b"])
        a = tuple(TruncatedSeries.from_record(r) for r in rec["a"]) if "a" in rec else None
        for name, series, nvars in (("b", b, 2 * n), ("a", a, 3 * n)):
            if series is not None and [s.nvars for s in series] != [nvars] * (M + 1):
                raise ValueError(f"expected M + 1 = {M + 1} series {name} in {nvars} variables")
        degrees = tuple(rec["effective_degrees"])
        if degrees != tuple(s.trunc_degree for s in b):
            raise ValueError("effective_degrees must be the truncation degrees of b")
        return cls(n=n, M=M, b=b, degrees=degrees, spec_sha256=rec["spec_sha256"], a=a)


def bergman_coefficients(geom: GeometryPack, M: int) -> CoefficientTable:
    """Compute b_0..b_M for the given geometry.

    Raises :class:`DegreeBudgetError` when the geometry degree cannot support
    order M.
    """
    n, D = geom.n, geom.degree
    require_degree(D, required_geometry_degree(M), f"order {M}")
    b = [TruncatedSeries.one(2 * n, D)]
    amplitudes = [geom.delta0_xytheta]  # a_j = (b_j o z) * Delta0, with a_0 = Delta0
    for m in range(1, M + 1):
        # -sum_j (D_y . D_theta)^(m-j) / (m-j)! of a_j, where (D_y . D_theta)^l / l!
        # is the sum over |delta| = l of D_y^delta D_theta^delta / delta!
        total = linear_combination([
            (Fraction(-1, multi_factorial(delta)), a_j, (0,) * n + delta + delta)
            for j, a_j in enumerate(amplitudes)
            for delta in exponents_of_degree(n, m - j)
        ])
        b.append(geom.to_xz(total))
        if m < M:
            amplitudes.append(geom.amplitude(b[m]))
    return CoefficientTable(
        n=n,
        M=M,
        b=tuple(b),
        degrees=tuple(s.trunc_degree for s in b),
        spec_sha256=geom.spec.sha256(),
    )


def amplitude_from_b(table: CoefficientTable, geom: GeometryPack) -> CoefficientTable:
    """Fill the amplitude family: a_0 = Delta0 - 1, a_m = (b_m o z) * Delta0.

    ``table`` must hold the coefficients of ``geom``.  ``geom.amplitude``
    returns what it composed before for the same b, so for a table from
    :func:`bergman_coefficients` only a_M is composed here.
    """
    a = [geom.delta0_xytheta - 1, *map(geom.amplitude, table.b[1:])]
    return replace(table, a=tuple(a))


@dataclass(frozen=True)
class NormTable:
    """Grid sup-norms of z-derivatives of the coefficients over U x U.

    Norms are maxima over a deterministic finite grid, not true sup-norms;
    the sampling radius and grid size are part of the record.
    """

    n: int
    M: int
    xi_max: int
    radius: float
    grid: int
    entries: dict  # (m, xi) -> float

    def order_norms(self) -> list:
        """The plain norms b_{m,0} for m = 0..M."""
        zero = (0,) * self.n
        return [self.entries[(m, zero)] for m in range(self.M + 1)]

    def csv_rows(self) -> list:
        rows = []
        for (m, xi) in sorted(self.entries):
            norm = self.entries[(m, xi)]
            scale = factorial(2 * m + 1) * multi_factorial(xi)
            rows.append(
                {
                    "m": m,
                    "xi": ";".join(str(e) for e in xi),
                    "norm": norm,
                    "normalized": norm / scale,
                    "radius": self.radius,
                    "grid": self.grid,
                }
            )
        return rows


# Largest number of points derivative_norm_table evaluates, (M + 1) *
# #{xi : |xi| <= xi_max} * grid^2: at the limit the table took 0.75 s (chsc
# n=1 D=6 M=2, grid 577) and 1.04 s (chsc n=2 D=8 M=3, grid 500), at 21 MB
# peak RSS, on a 2-CPU x86_64 VM under Python 3.11.7.
NORM_POINT_LIMIT = 1_000_000


def derivative_norm_table(
    table: CoefficientTable,
    geom: GeometryPack,
    radius: float,
    grid: int,
    xi_max: int = 0,
) -> NormTable:
    """Evaluate ||D_z^xi b_m|| on a grid x grid product grid in the polydisc."""
    if grid < 2:
        raise ValueError("grid must be >= 2")
    points = (table.M + 1) * comb(geom.n + xi_max, geom.n) * grid**2
    if points > NORM_POINT_LIMIT:
        raise ResourceGuardError(f"resource guard: the norm grid evaluates (M+1) * #xi * grid^2"
                                 f" = {points} points; keep it <= {NORM_POINT_LIMIT}")
    if not in_eval_radius(geom.spec, [radius]):
        raise RadiusError("radius exceeds the spec evaluation radius")
    n = geom.n
    xs = polydisc_points(n, radius, grid)
    zs = polydisc_points(n, radius, grid, skip=grid)
    entries = {}
    for m in range(table.M + 1):
        fm = table.b[m]
        for order in range(xi_max + 1):
            for xi in exponents_of_degree(n, order):
                series = fm.diff((0,) * n + xi)
                best = 0.0
                for x in xs:
                    for z in zs:
                        v = abs(series.eval(list(x) + list(z)))
                        if v > best:
                            best = v
                entries[(m, xi)] = best
    return NormTable(
        n=n, M=table.M, xi_max=xi_max, radius=radius, grid=grid, entries=entries
    )
