"""Kahler potentials, polarization, and the derived contour geometry.

A potential is supplied as Hermitian coefficient data for
``phi(x) = sum c[alpha,beta] x^alpha conj(x)^beta`` near 0.  This module
builds its polarization ``psi(x, z)`` (replace ``conj(x)`` by an independent
holomorphic block ``z``), the averaged-gradient phase ``theta(x, y, z)``, the
inverse map ``z(x, y, theta)``, the Jacobian ratio ``Delta0``, and a
numeric check that the phase defines a good contour.  Calabi's diastasis is
computed with the kernel's point values (:class:`bergman.kernel.PairEvaluator`).

Variable block conventions used across the package, for dimension n:

* ``(x, z)`` series: x occupies variables 0..n-1, z occupies n..2n-1.
* ``(x, y, z)`` and ``(x, y, theta)`` series: x is 0..n-1, y is n..2n-1 and
  the third block is 2n..3n-1.
* ``(x, theta)`` series (y already merged into x): x is 0..n-1, theta is
  n..2n-1.

Everything is exact rational arithmetic; the segment integral in the phase
(:func:`bergman.series.segment_average` of ``psi_x(y, z)``) is done termwise
with integer Beta-function weights, never by quadrature.  Scalar linear
algebra is ``Fraction`` elimination.  :func:`require_degree` is the one
refusal of a truncation degree too small for a computation.  A :class:`PotentialSpec` is
read-only, so its digest is computed once and every report reuses it.

:func:`invert_theta` inverts the Hessian by elimination and hands it with
theta to :func:`bergman.series.fixed_point`, which forms each row of
z - H^{-1} theta as one linear combination and composes nothing; no code
here reads the packed form of a series, and the pack builds only the bare
variables it reads.  :func:`build_geometry`
builds psi, psi_x, ``psi_x(y, z)`` (moved into (x, y, z) blocks by one
composition with bare arguments; the phase and ``Delta0`` read it) and the
phase, which cost milliseconds; its :class:`GeometryPack` builds the checked
inversion and both forms of ``Delta0`` on first read, so commands that read
only psi never invert the phase.  The pack is the only code that composes
through the phase; it owns the one table of powers of ``z(x, y, theta)``,
which the solve seeds and ``Delta0`` and both coefficient routes share.  The
inversion and the seeded powers are checked at one point modulo a prime
(:func:`bergman.series.holds_on_a_line`), drawn from the spec digest.
``Delta0`` in (x, y, theta) is ``det(dw/dtheta)`` for
``w = psi_y(y, z(x, y, theta))``, by the chain rule (:func:`build_delta0`,
which takes the pack, is the one caller of :func:`bergman.series.det`); the
determinant differentiates its entries itself, so no Jacobian entry is a
series.  The ratio at z = z(x, y, theta(x, y, z)) is the ratio at z, so its
(x, y, z) form ``geom.delta0_xyz`` is that series composed with theta itself,
and no series is divided.  Only the ``polarize`` report reads it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import factorial
from types import MappingProxyType
from typing import Mapping, Sequence

from . import series
from .sampling import polydisc_points
from .series import (
    TruncatedSeries,
    det,
    exponents_of_degree,
    fixed_point,
    multi_factorial,
    segment_average,
    unit,
)


class SpecValidationError(ValueError):
    """A potential specification violates one of its invariants."""


class DegreeBudgetError(ValueError):
    """The truncation degree is too small for the requested computation."""

    def __init__(self, message: str, required_degree: int):
        super().__init__(message)
        self.required_degree = required_degree


def require_degree(degree: int, need: int, what: str) -> None:
    """Raise :class:`DegreeBudgetError` unless the geometry ``degree`` is at least ``need``."""
    if degree < need:
        raise DegreeBudgetError(f"{what} needs geometry degree >= {need}, got {degree}", need)


class ResourceGuardError(ValueError):
    """A request is well formed but larger than the computation is sized for."""


# Largest number of (x, y, theta) monomials of degree <= D - 1 in 3n variables,
# C(3n + D - 1, 3n), that a geometry may hold: the phase, its inverse and Delta0
# live there.  It admits n=1 up to D=180 and n=2 up to D=27; `coeffs --preset
# chsc --n 1 --degree 120 --order 1` took 2.9 s on a 2-CPU x86_64 VM under
# Python 3.11.7, and a refusal about 1 ms.
GEOMETRY_MONOMIAL_LIMIT = 1_000_000


def require_geometry_size(n, degree) -> None:
    """Raise :class:`ResourceGuardError` when a geometry of dimension ``n`` at truncation
    degree ``degree`` would span more than :data:`GEOMETRY_MONOMIAL_LIMIT` (x, y, theta)
    monomials.  Sizes that are not positive ints are left to spec validation.

    The count is built as C(a + i, i), i = 1..min(3n, D - 1), with ``a`` the larger
    of 3n and D - 1; each factor is at least 2, so a refusal costs a few steps.
    """
    if not (_is_int(n) and _is_int(degree) and n >= 1 and degree >= 1):
        return
    k, a = sorted((3 * n, degree - 1))
    count = 1
    for i in range(1, k + 1):
        count = count * (a + i) // i
        if count > GEOMETRY_MONOMIAL_LIMIT:
            raise ResourceGuardError(
                f"resource guard: a geometry of n={n} at degree {degree} spans more than"
                f" {GEOMETRY_MONOMIAL_LIMIT} (x, y, theta) monomials, C(3n + D - 1, 3n);"
                " lower --n or the degree"
            )


class RadiusError(ValueError):
    """An evaluation point or a sampling radius lies outside the spec's evaluation radius."""


def in_eval_radius(spec, point: Sequence[complex]) -> bool:
    """Whether every component of ``point`` lies within the spec's evaluation radius.

    A NaN component does not: every comparison with NaN is false.
    """
    return all(abs(complex(v)) <= spec.eval_radius + 1e-12 for v in point)


def _is_int(value) -> bool:
    """An int that is not a bool: JSON ``true`` must not stand for 1."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class PotentialSpec:
    """Coefficient data of a real-analytic Kahler potential near 0.

    ``coeffs`` maps ``(alpha, beta)`` exponent-tuple pairs to real rational
    values; Hermitian symmetry of real data reads ``c[a,b] == c[b,a]``.  The spec
    keeps it as a read-only view of its own copy, so :meth:`sha256` is computed once
    and :meth:`validate` runs its checks until the first success.
    """

    n: int
    trunc_degree: int
    eval_radius: float
    coeffs: Mapping

    def __post_init__(self):
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))

    def validate(self) -> None:
        """Raise :class:`SpecValidationError` unless the spec is a valid potential.

        The spec is read-only, so a success is kept and a later call costs nothing;
        a failing spec raises on every call.
        """
        self._valid

    @cached_property
    def _valid(self) -> bool:
        n = self.n
        if not _is_int(n) or not _is_int(self.trunc_degree):
            raise SpecValidationError("n and trunc_degree must be integers")
        if n < 1:
            raise SpecValidationError("dimension n must be positive")
        if self.trunc_degree < 2:
            raise SpecValidationError("trunc_degree must be at least 2")
        if not (self.eval_radius > 0 and math.isfinite(self.eval_radius)):
            raise SpecValidationError("eval_radius must be positive and finite")
        zero = (0,) * n
        for (a, b), v in self.coeffs.items():
            if len(a) != n or len(b) != n or not all(_is_int(e) and e >= 0 for e in a + b):
                raise SpecValidationError(f"malformed term index ({a}, {b})")
        if self.coeffs.get((zero, zero), 0) != 0:
            raise SpecValidationError("normalization violated: c00 must be 0")
        for (a, b), v in self.coeffs.items():
            if self.coeffs.get((b, a), 0) != v:
                raise SpecValidationError(
                    f"hermitian symmetry violated: c[{a},{b}] != c[{b},{a}]"
                )
        for i in range(n):
            if self.coeffs.get((unit(n, i), zero), 0) != 0:
                raise SpecValidationError(
                    "pure linear term present: the phase map must fix the origin"
                )
        if size := _nonpositive_minor(self.hessian()):
            raise SpecValidationError(
                "hessian not positive definite "
                f"(leading principal minor of size {size} is not positive)"
            )
        return True

    def hessian(self) -> list:
        """The mixed Hessian [c_{e_i e_j}] at the origin, as Fractions."""
        n = self.n
        return [
            [Fraction(self.coeffs.get((unit(n, i), unit(n, j)), 0)) for j in range(n)]
            for i in range(n)
        ]

    def hessian_min_eigenvalue(self) -> float:
        """The float nearest the Hessian's smallest eigenvalue lam_min (the lower one at a tie).

        ``H - x I`` is positive definite exactly when x < lam_min, so the leading-minor test
        bisects the floats between a Gershgorin lower bound and the least diagonal entry.
        """
        h = self.hessian()
        lo = min(row[i] - sum(abs(v) for v in row) + abs(row[i]) for i, row in enumerate(h))
        lo = math.nextafter(float(lo), -math.inf)
        hi = math.nextafter(float(min(row[i] for i, row in enumerate(h))), math.inf)
        while lo < (mid := (lo + hi) / 2) < hi:
            lo, hi = (lo, mid) if _nonpositive_minor(h, Fraction(mid)) else (mid, hi)
        return lo if _nonpositive_minor(h, (Fraction(lo) + Fraction(hi)) / 2) else hi

    # -- serialization ------------------------------------------------------

    def to_record(self) -> dict:
        items = sorted(self.coeffs.items(), key=lambda t: (sum(t[0][0] + t[0][1]), t[0]))
        values = [(ab, v if isinstance(v, (int, Fraction)) else Fraction(v)) for ab, v in items]
        terms = [{"alpha": list(a), "beta": list(b), "num": v.numerator, "den": v.denominator}
                 for (a, b), v in values if v]
        return {
            "n": self.n,
            "trunc_degree": self.trunc_degree,
            "eval_radius": self.eval_radius,
            "terms": terms,
        }

    @classmethod
    def from_record(cls, record: dict) -> "PotentialSpec":
        """The spec of a JSON record; ``eval_radius`` must be a JSON number (not ``true``,
        not a string), and each term's ``num`` and ``den`` integers."""
        try:
            coeffs = {}
            for t in record["terms"]:
                if not (_is_int(t["num"]) and _is_int(t["den"])):
                    raise ValueError(f"term num and den must be integers, got {t!r}")
                key = (tuple(t["alpha"]), tuple(t["beta"]))
                coeffs[key] = coeffs.get(key, 0) + Fraction(t["num"], t["den"])
            radius = record["eval_radius"]
            if not (_is_int(radius) or isinstance(radius, float)):
                raise ValueError(f"eval_radius must be a number, got {radius!r}")
            return cls(
                n=record["n"],
                trunc_degree=record["trunc_degree"],
                eval_radius=float(radius),
                coeffs=coeffs,
            )
        except KeyError as err:
            raise SpecValidationError(f"spec record is missing the key {err}") from err
        except (TypeError, ValueError, ZeroDivisionError) as err:
            raise SpecValidationError(f"malformed spec record: {err}") from err

    @classmethod
    def from_file(cls, path) -> "PotentialSpec":
        with open(path) as fh:
            try:
                record = json.load(fh)
            except ValueError as err:
                raise SpecValidationError(f"spec file {path} is not valid JSON: {err}") from err
        return cls.from_record(record)

    def sha256(self) -> str:
        return self._digest

    @cached_property
    def _digest(self) -> str:
        return hashlib.sha256(json.dumps(self.to_record(), sort_keys=True).encode()).hexdigest()


# -- presets ----------------------------------------------------------------


def preset_flat(n: int, degree: int, radius: float = 0.5) -> PotentialSpec:
    """phi = |x|^2, the Bargmann-Fock model."""
    coeffs = {(unit(n, i), unit(n, i)): Fraction(1) for i in range(n)}
    return PotentialSpec(n, degree, radius, coeffs)


def preset_chsc(n: int, c, degree: int, radius: float = 0.3) -> PotentialSpec:
    """phi = (1/c) log(1 + c |x|^2): constant holomorphic sectional curvature c.

    The normalization gives the projective model curvature 1 (not 2); for
    c = 0 the limit is the flat potential.
    """
    c = Fraction(c)
    if c == 0:
        return preset_flat(n, degree, radius)
    coeffs = {}
    for j in range(1, degree // 2 + 1):
        scale = Fraction((-1) ** (j + 1)) * c ** (j - 1) * factorial(j - 1)
        for delta in exponents_of_degree(n, j):
            coeffs[(delta, delta)] = scale / multi_factorial(delta)
    return PotentialSpec(n, degree, radius, coeffs)


def preset_quartic(n: int, t, degree: int, radius: float = 0.3) -> PotentialSpec:
    """phi = |x|^2 + t |x|^4, the minimal non-model perturbation."""
    t = Fraction(t)
    coeffs = {(unit(n, i), unit(n, i)): Fraction(1) for i in range(n)}
    if t != 0 and degree >= 4:
        for delta in exponents_of_degree(n, 2):
            key = (delta, delta)
            coeffs[key] = coeffs.get(key, Fraction(0)) + 2 * t / multi_factorial(delta)
    return PotentialSpec(n, degree, radius, coeffs)


def make_preset(name: str, n: int, degree: int, param=None, radius=None) -> PotentialSpec:
    kwargs = {} if radius is None else {"radius": radius}
    if name == "flat":
        return preset_flat(n, degree, **kwargs)
    if name == "chsc":
        return preset_chsc(n, Fraction(param if param is not None else 1), degree, **kwargs)
    if name == "quartic":
        return preset_quartic(n, Fraction(param if param is not None else "1/10"), degree, **kwargs)
    raise SpecValidationError(f"unknown preset {name!r} (expected flat, chsc or quartic)")


def _nonpositive_minor(rows, shift=0) -> int:
    """Size of the first non-positive leading minor of ``rows - shift I``, or 0 (Sylvester).

    Exact elimination without pivoting: while the leading minors are positive, pivot k
    is minor_k / minor_(k-1), so the first non-positive pivot sits at that size.
    """
    rows = [[Fraction(v) - shift * (i == j) for j, v in enumerate(row)]
            for i, row in enumerate(rows)]
    for k, pivot_row in enumerate(rows):
        if pivot_row[k] <= 0:
            return k + 1
        for row in rows[k + 1:]:
            if factor := row[k] / pivot_row[k]:
                row[k + 1:] = [v - factor * p for v, p in zip(row[k + 1:], pivot_row[k + 1:])]
    return 0


# -- polarization and phase ---------------------------------------------------


def polarize(spec: PotentialSpec) -> TruncatedSeries:
    """The holomorphic extension psi(x, z) with psi(x, conj(x)) = phi(x)."""
    spec.validate()
    n, D = spec.n, spec.trunc_degree
    coeffs = {}
    for (a, b), v in spec.coeffs.items():
        if sum(a) + sum(b) > D or v == 0:
            continue
        coeffs[a + b] = Fraction(v)
    return TruncatedSeries(2 * n, D, coeffs)


def build_theta(psi_x_yz: Sequence[TruncatedSeries]) -> list:
    """The phase theta_i(x,y,z): psi_x(y, z) in (x, y, z) blocks averaged from y to x.

    One :func:`bergman.series.segment_average` of the n series, which share its table of
    split steps and weights.
    """
    return segment_average(psi_x_yz, psi_x_yz[0].nvars // 3)


def invert_theta(theta: Sequence[TruncatedSeries]) -> tuple:
    """Solve theta(x,y,z) = t for z as a series in (x, y, t); returns z and its powers.

    With H the constant z-linear part of theta, z is the fixed point of
    z = H^{-1} t + S(x, y, z), S = z - H^{-1} theta, which has no z-linear
    part with a constant coefficient.  This function only inverts H, by
    :func:`_hessian_inverse`, and hands H^{-1} and theta to
    :func:`bergman.series.fixed_point`, which builds each row of
    z - H^{-1} theta as one linear combination of z_u and the theta_i, splits
    it into graded parts, takes H^{-1} t as a part of its own, and solves one
    homogeneous degree at a time, as in lazy ("relaxed") power-series
    arithmetic.
    The powers are the solve's own z^gamma, keyed as composing theta through
    (x, y, z) caches them.
    """
    n3 = theta[0].nvars
    n = n3 // 3
    hinv = _hessian_inverse([[theta[i][unit(n3, 2 * n + j)] for j in range(n)] for i in range(n)])
    return fixed_point(hinv, theta)


def _hessian_inverse(rows) -> list:
    """Gauss-Jordan inverse of a matrix of exact rationals: a zero pivot swaps in the first
    row below with a nonzero entry, and a column with none is singular, a ValueError."""
    size = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(size)]
           for i, row in enumerate(rows)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular linear part: phase map not invertible at 0")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r, row in enumerate(aug):
            if r != col and (f := row[col]):
                aug[r] = [a - f * b for a, b in zip(row, aug[col])]
    return [row[size:] for row in aug]


def build_delta0(geom: "GeometryPack") -> TruncatedSeries:
    """The Jacobian ratio det psi_yz / det theta_z in (x, y, theta) blocks.

    It needs no quotient: at z = z(x, y, theta) the inverse function theorem
    gives ``det theta_z * det(dz/dtheta) = 1``, so the ratio is
    ``det(psi_yz o z) * det(dz/dtheta)``, which by the chain rule is
    ``det(dw/dtheta)`` for ``w = psi_y(y, z(x, y, theta))``, with psi_y(y, z)
    the pack's ``psi_x_yz``, composed by the pack through the z-powers the
    solve seeded.  The entries ``D_(theta_j) w_i`` go to
    :func:`bergman.series.det` as ``(w_i, xi)`` pairs, which it differentiates
    into its own pieces: no Jacobian series is built, and no dense series is
    multiplied outside the determinant.
    """
    n = geom.n
    w = [geom.substitute_z(g) for g in geom.psi_x_yz]
    return det([[(wi, unit(3 * n, 2 * n + j)) for j in range(n)] for wi in w])


@dataclass(frozen=True)
class GeometryPack:
    """Derived series geometry of one potential at a fixed truncation degree.

    ``psi``, ``psi_x``, ``psi_x_yz`` and ``theta`` are built with the pack.
    The inverse phase :attr:`z_of_theta` and both forms of ``Delta0`` are
    built on first read and kept.  The pack is the only code that composes through the
    phase chain theta -> z(x,y,theta) -> theta(x,x,z), with two compositions:
    :meth:`substitute_z` (z = ``z(x,y,theta)``) and :meth:`to_xz`
    (y = x, theta = ``psi_x(x,z)``).  In each, the x and y arguments are bare
    variables, which only move exponents (``to_xz`` moves both onto x), and
    the other n arguments are substituted.  Each composition keeps the powers of its n substituted
    arguments, keyed by their exponent: :attr:`z_powers`, which
    :attr:`z_of_theta` seeds with the solve's own powers once they pass the
    line check, and :attr:`psi_x_powers`.  An entry holds its power through the highest
    degree a call has read, and a later call that reads higher replaces it
    (see Composition in :mod:`bergman.series`).  :attr:`delta0_xyz` composes
    ``Delta0`` once more, with theta itself, and keeps no powers.  The caches
    and the amplitudes never change a result.
    """

    spec: PotentialSpec
    n: int
    degree: int
    psi: TruncatedSeries            # (x, z), degree D
    psi_x: tuple                    # n series, (x, z), degree D - 1
    psi_x_yz: tuple                 # psi_x(y, z): n series, (x, y, z), degree D - 1
    theta: tuple                    # n series, (x, y, z), degree D - 1
    z_powers: dict = field(default_factory=dict, compare=False, repr=False)
    psi_x_powers: dict = field(default_factory=dict, compare=False, repr=False)
    # (b, amplitude(b)) pairs that amplitude reads back
    amplitudes: list = field(default_factory=list, compare=False, repr=False)

    @cached_property
    def z_of_theta(self) -> tuple:
        """The inverse phase z(x, y, theta): n series in (x, y, theta) blocks, degree D - 1.

        The solve hands on its powers z^gamma, which seed :attr:`z_powers` with the
        entries composing theta through z would cache, so no power is built twice.
        Kept only once :func:`bergman.series.holds_on_a_line` finds
        ``theta(x, y, z) = theta`` and every seeded power at one point mod p, its
        residues drawn from the spec digest; when a denominator is 0 mod p, the
        exact round trip composes theta through fresh powers instead, and they
        seed the table.  A failed check raises and keeps nothing.
        """
        z, powers = invert_theta(self.theta)
        z = tuple(z)
        n, D = self.n, self.degree
        digest = self.spec.sha256()
        residues = [int.from_bytes(hashlib.sha256(f"{digest}:{i}".encode()).digest()[:8], "big")
                    for i in range(3 * n)]
        holds = series.holds_on_a_line(self.theta, z, powers, residues)
        if holds is None:  # a denominator is 0 mod p: the exact round trip, with fresh powers
            powers = {}
            thetas = TruncatedSeries.variables(3 * n, D - 1, range(2 * n, 3 * n))
            holds = [t.compose(self._bare[0] + list(z), cache=powers) for t in self.theta] == thetas
        if not holds:
            raise ArithmeticError("phase inversion failed the round-trip identity")
        self.z_powers.update(powers)
        return z

    @cached_property
    def delta0_xytheta(self) -> TruncatedSeries:
        """Delta0 in (x, y, theta) blocks, degree D - 2, by :func:`build_delta0`."""
        delta0 = build_delta0(self)
        if delta0.constant_term != 1:
            raise ArithmeticError("Delta0 must have constant term 1")
        return delta0

    @cached_property
    def delta0_xyz(self) -> TruncatedSeries:
        """Delta0 = det psi_yz / det theta_z in (x, y, z) blocks, degree D - 2: Delta0 in
        (x, y, theta) pulled back along theta, in one composition.

        No pipeline step reads it, only the ``polarize`` report.
        """
        return self.delta0_xytheta.compose(self._bare[0] + list(self.theta))

    @cached_property
    def _bare(self) -> tuple:
        """The bare arguments: x and y in (x, y, theta) blocks, and x in (x, z) blocks."""
        n, D = self.n, self.degree
        return (TruncatedSeries.variables(3 * n, D - 1, range(2 * n)),
                TruncatedSeries.variables(2 * n, D - 1, range(n)))

    def substitute_z(self, f: TruncatedSeries) -> TruncatedSeries:
        """f(x, z) or f(x, y, z) -> the same with z = z(x,y,theta), in (x, y, theta) blocks."""
        bare = self._bare[0][: f.nvars - self.n]
        return f.compose(bare + list(self.z_of_theta), cache=self.z_powers)

    def to_xz(self, f_xytheta: TruncatedSeries) -> TruncatedSeries:
        """f(x, y, theta) -> f(x, x, psi_x(x, z)) in (x, z) blocks, in one composition."""
        x = self._bare[1]
        return f_xytheta.compose(x + x + list(self.psi_x), cache=self.psi_x_powers)

    def amplitude(self, b: TruncatedSeries) -> TruncatedSeries:
        """(b o z) * Delta0 in (x, y, theta) blocks, for b in (x, z) blocks of degree <= D - 2.

        The product is cut at the degree of ``b o z``, so Delta0 is read as it is,
        with no truncated copy.  Kept in :attr:`amplitudes`, so a later call with an
        equal b returns it.
        """
        for seen, a in self.amplitudes:
            if seen == b:
                return a
        comp = self.substitute_z(b)
        # looked up on its module, where a traced run wraps it
        a = series.mul_trunc(comp, self.delta0_xytheta, comp.trunc_degree)
        self.amplitudes.append((b, a))
        return a


def build_geometry(spec: PotentialSpec) -> GeometryPack:
    require_geometry_size(spec.n, spec.trunc_degree)
    psi = polarize(spec)
    n, D = spec.n, spec.trunc_degree
    require_degree(D, 3, "the phase")
    psi_x = tuple(psi.diff(unit(2 * n, i)) for i in range(n))
    yz = TruncatedSeries.variables(3 * n, D - 1, range(n, 3 * n))
    psi_x_yz = tuple(f.compose(yz) for f in psi_x)
    return GeometryPack(
        spec=spec,
        n=n,
        degree=D,
        psi=psi,
        psi_x=psi_x,
        psi_x_yz=psi_x_yz,
        theta=tuple(build_theta(psi_x_yz)),
    )


# -- numeric functionals ------------------------------------------------------


def phi_value(psi: TruncatedSeries, x: Sequence[complex]) -> float:
    """phi(x) = psi(x, conj x); the imaginary part vanishes up to roundoff."""
    pt = list(x) + [complex(v).conjugate() for v in x]
    return psi.eval(pt).real


def psi_value(psi: TruncatedSeries, x: Sequence[complex], zbar: Sequence[complex]) -> complex:
    pt = list(x) + list(zbar)
    return psi.eval(pt)


# the largest sample of the contour inequality that still counts as <= 0
CONTOUR_TOLERANCE = 1e-9
# Largest sample count of check_good_contour, which builds both Halton point
# lists whole: a sample took 21-105 us (chsc n=1 D=6 to n=3 D=12) on a 2-CPU
# x86_64 VM under Python 3.11.7, so the limit is about 1 s of sweep.
CONTOUR_SAMPLE_LIMIT = 10_000


@dataclass(frozen=True)
class ContourReport:
    delta: float
    samples: int
    max_excess: float
    worst_pair: tuple
    tolerance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "samples": self.samples,
            "max_excess": self.max_excess,
            "worst_pair": {
                "x": [[v.real, v.imag] for v in self.worst_pair[0]],
                "y": [[v.real, v.imag] for v in self.worst_pair[1]],
            },
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def check_good_contour(
    spec: PotentialSpec,
    psi: TruncatedSeries,
    samples: int = 200,
    delta: float | None = None,
) -> ContourReport:
    """Numeric sweep of the contour inequality.

    Evaluates ``2 Re[psi(x, conj y) - psi(y, conj y)] + phi(y) - phi(x)
    + delta |x - y|^2`` over deterministic sample pairs and reports the
    maximum; the contour is good for this delta when the maximum is <= 0.
    The default delta is half the smallest Hessian eigenvalue.  A NaN sample
    (from a NaN delta or an overflowed evaluation) is the reported maximum,
    so the check fails instead of skipping it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if samples > CONTOUR_SAMPLE_LIMIT:
        raise ResourceGuardError(f"resource guard: the contour check draws {samples} sample"
                                 f" pairs; keep it <= {CONTOUR_SAMPLE_LIMIT}")
    n = spec.n
    if delta is None:
        delta = 0.5 * spec.hessian_min_eigenvalue()
    xs = polydisc_points(n, spec.eval_radius, samples)
    ys = polydisc_points(n, spec.eval_radius, samples, skip=samples)
    worst = float("-inf")
    worst_pair = (xs[0], ys[0])
    for x, y in zip(xs, ys):
        ybar = [v.conjugate() for v in y]
        psi_y = psi_value(psi, y, ybar)  # psi(y, conj y), whose real part is phi(y)
        q = (
            2.0 * (psi_value(psi, x, ybar) - psi_y).real
            + psi_y.real
            - phi_value(psi, x)
            + delta * sum(abs(a - b) ** 2 for a, b in zip(x, y))
        )
        if q > worst or math.isnan(q):
            worst = q
            worst_pair = (x, y)
            if math.isnan(q):
                break
    return ContourReport(
        delta=float(delta),
        samples=samples,
        max_excess=worst,
        worst_pair=worst_pair,
        tolerance=CONTOUR_TOLERANCE,
        passed=worst <= CONTOUR_TOLERANCE,
    )
