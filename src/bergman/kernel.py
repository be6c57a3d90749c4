"""Off-diagonal kernel evaluation and decay-rate checks.

The order-N kernel approximation is ``(k/pi)^n e^{k psi(x, conj y)}
(1 + sum_{j<=N} b_j(x, conj y)/k^j)``.  Reports carry the frame-invariant
weighted value ``|K| e^{-k(phi(x)+phi(y))/2}`` (computed in log domain, the
exponent never overflows) together with the diastasis and the residual of
the logarithmic decay law

    (1/k) log|K|_w  =  -D(x,y)/2 + n log(k)/k - n log(pi)/k + residual,

whose decay order in k is what the fit routines measure.

A report is built in two stages.  The point values of a pair (x, y) do not
depend on k: ``psi(x, conj y)``, the diastasis from ``phi(x)`` and
``phi(y)``, and ``b_1..b_N(x, conj y)``.  The per-k assembly is the only
stage that reads k, through ``k psi`` and the weights ``k^{-j}``.  A sweep
over k at a fixed pair, as the decay fits make, evaluates the series once.
:class:`PairEvaluator` is the only holder of point values: it keeps those of
the last pair it saw with the exact bits of the pair, and a new pair
replaces both together.  A closed-form evaluator is a PairEvaluator;
:func:`eval_KN` (and so :func:`make_series_evaluator`) calls the one held in
a module slot, keyed by the geometry and the table (weak references,
compared by identity) and N.
The order check runs on every call.  The radius check, like the closed
form's domain check, runs in the first stage, so once per new pair.
"""

from __future__ import annotations

import cmath
import functools
import marshal
import math
import weakref
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .chsc import chsc_coefficients, chsc_psi
from .coefficients import CoefficientTable
from .potential import GeometryPack, RadiusError, _is_int, in_eval_radius


def choose_truncation_order(k: int, C: float, max_order: int | None = None) -> int:
    """The optimal truncation order floor(sqrt(k/C)), clamped to max_order; a k/C
    beyond the float range clamps to max_order, and is refused without one."""
    if not _is_int(k) or k < 1 or not (math.isfinite(C) and C > 0):
        raise ValueError("need an int k >= 1 and a finite C > 0")
    try:
        n0 = math.isqrt(int(k / C))
    except OverflowError:
        if max_order is None:
            raise ValueError("k/C is beyond the float range and no max_order clamps it") from None
        return max_order
    return n0 if max_order is None else min(n0, max_order)


class KernelReport(NamedTuple):
    k: int
    N: int
    x: tuple
    y: tuple
    psi_val: complex
    amplitude_val: complex
    K_val: complex
    K_weighted: float
    log_K_weighted: float
    diastasis: float
    log_residual: float

    def to_dict(self) -> dict:
        def c(z):
            z = complex(z)
            return [z.real, z.imag]

        return {
            "k": self.k,
            "N": self.N,
            "x": [c(v) for v in self.x],
            "y": [c(v) for v in self.y],
            "psi": c(self.psi_val),
            "amplitude": c(self.amplitude_val),
            "K": c(self.K_val),
            "K_weighted": self.K_weighted,
            "log_K_weighted": self.log_K_weighted,
            "diastasis": self.diastasis,
            "log_residual": self.log_residual,
        }


@dataclass(frozen=True)
class PointValues:
    """The k-independent values a report reads at one pair (x, y)."""

    N: int
    x: tuple
    y: tuple
    psi_xy: complex
    diastasis: float
    b: tuple  # b_1..b_N at (x, conj y)


def _point(p: Sequence[complex]) -> tuple:
    return tuple(complex(v) for v in p)


class PairEvaluator:
    """Reports (k, x, y) -> :class:`KernelReport` at order N, from value providers.

    ``psi_fn(x, zbar)`` returns the polarized potential; ``b_fn(j, x, zbar)``
    returns the order-j coefficient value, both holomorphic in their slots.
    The point values of the last pair are kept with the exact bits of the
    pair as the caller passed it, as one tuple replaced together.  A pair that
    is not int, float and complex in lists or tuples, such as one with Fraction
    components or an array, is keyed on its complex values.
    """

    def __init__(self, n: int, N: int, psi_fn: Callable, b_fn: Callable):
        self.n, self.N, self.psi_fn, self.b_fn = n, N, psi_fn, b_fn
        self._held = None  # (pair bits, point values) of the last pair

    def __call__(self, k: int, x: Sequence[complex], y: Sequence[complex]) -> KernelReport:
        # exact bits: == on floats would equate 0.0 and -0.0.  Version 2 has no
        # back-reference flags, which depend on reference counts.
        try:
            key = marshal.dumps((x, y), 2)
        except ValueError:
            key = None
        held = self._held
        if held is None or held[0] != key:
            # marshal writes a buffer, such as an array, as bare bytes: none enters a held key
            if key is None or not ({type(x), type(y)} <= {tuple, list}
                                   and {*map(type, x), *map(type, y)} <= {int, float, complex}):
                x, y = _point(x), _point(y)
                key = marshal.dumps((x, y), 2)
            if held is None or held[0] != key:
                held = self._held = (key, self._point_values(_point(x), _point(y)))
        return _assemble(self.n, k, held[1])

    def _point_values(self, x: tuple, y: tuple) -> PointValues:
        """First stage: every value the pair's reports read, for any k."""
        psi_fn = self.psi_fn
        ybar = tuple(v.conjugate() for v in y)
        psi_xy = complex(psi_fn(x, ybar))
        phi_x = complex(psi_fn(x, tuple(v.conjugate() for v in x))).real
        phi_y = complex(psi_fn(y, ybar)).real
        return PointValues(
            N=self.N,
            x=x,
            y=y,
            psi_xy=psi_xy,
            diastasis=phi_x + phi_y - 2.0 * psi_xy.real,
            b=tuple(complex(self.b_fn(j, x, ybar)) for j in range(1, self.N + 1)),
        )


def _assemble(n: int, k: int, pv: PointValues) -> KernelReport:
    """Second stage, the only one that reads k."""
    psi_xy, dia = pv.psi_xy, pv.diastasis
    amp = 1 + 0j
    for j, b_j in enumerate(pv.b, 1):
        try:
            amp += b_j / k**j
        except OverflowError:  # k**j above the float range, as at closed-form chsc n >= 90
            amp += b_j * float(k) ** -j
    log_prefactor = n * math.log(k / math.pi)
    log_amp = math.log(abs(amp)) if amp != 0 else float("-inf")
    log_mag = log_prefactor + k * psi_xy.real + log_amp
    phase = k * psi_xy.imag + cmath.phase(amp) if amp != 0 else 0.0
    try:
        K_val = math.exp(log_mag) * cmath.exp(1j * phase)
    except OverflowError:
        K_val = complex(float("inf"), 0.0)
    log_K_weighted = log_prefactor - k * dia / 2.0 + log_amp
    K_weighted = math.exp(log_K_weighted) if log_K_weighted < 700 else float("inf")
    # residual of the decay law, left minus right; the diastasis and
    # prefactor terms cancel identically, leaving log|amplitude| / k,
    # which is also the numerically stable way to evaluate it
    log_residual = log_amp / k
    return KernelReport(
        k, pv.N, pv.x, pv.y, psi_xy, amp, K_val, K_weighted, log_K_weighted, dia, log_residual
    )


# (weak reference to the geometry, weak reference to the table, N, evaluator)
# of the last eval_KN call
_series_slot = [None]


def eval_KN(
    geom: GeometryPack,
    table: CoefficientTable,
    k: int,
    N: int,
    x: Sequence[complex],
    y: Sequence[complex],
) -> KernelReport:
    """Series-backed kernel report; points must sit inside the evaluation radius.

    The series are evaluated, and the points checked, only when the pair, N,
    the table or the geometry differs from the last call.
    """
    if N > table.M:
        raise ValueError(f"order {N} exceeds the computed table order {table.M}")
    held = _series_slot[0]
    if held is None or held[0]() is not geom or held[1]() is not table or held[2] != N:
        # the providers hold the series and the spec, not the geometry or the table
        psi, b, spec = geom.psi, table.b, geom.spec

        def psi_fn(px, zbar):
            if not (in_eval_radius(spec, px) and in_eval_radius(spec, zbar)):
                raise RadiusError("evaluation point outside the configured radius")
            return psi.eval([*px, *zbar])

        evaluator = PairEvaluator(geom.n, N, psi_fn, lambda j, px, zbar: b[j].eval([*px, *zbar]))
        held = _series_slot[0] = (weakref.ref(geom), weakref.ref(table), N, evaluator)
    return held[3](k, x, y)


def eval_KN_chsc_closed(n: int, c, k: int, N: int, x, y) -> KernelReport:
    """Closed-form evaluation for the constant curvature models."""
    return make_chsc_closed_evaluator(n, c, N=N)(k, x, y)


def make_series_evaluator(geom: GeometryPack, table: CoefficientTable) -> Callable:
    """Evaluator (k, x, y) -> report at the table's full order M."""

    def run(k, x, y):
        return eval_KN(geom, table, k, table.M, x, y)

    return run


@functools.lru_cache(maxsize=256)
def make_chsc_closed_evaluator(n: int, c, *, N: int) -> PairEvaluator:
    """Closed-form evaluator (k, x, y) -> report at order N.

    c and the constants b_0..b_N go to float once, as ``complex(float(b_j))``.
    The evaluators of recently used (n, c, N) are cached, keyed by the value
    of c, so repeated calls share one :class:`PairEvaluator` and its point
    values.  N is keyword-only: the cache would key a positional N apart.
    """
    consts = [complex(float(b)) for b in chsc_coefficients(n, c, N)]
    return PairEvaluator(n, N, chsc_psi(c), lambda j, px, zbar: consts[j])


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay exponent of a residual sequence over a k grid."""

    ks: tuple
    residuals: tuple
    slope: float | None
    intercept: float | None
    all_zero: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def _fit(ks, residuals) -> DecayFit:
    """Least-squares line through (log k, log|r|) over the nonzero residuals.

    The centred two-pass formula over ``math.log``; every sum is a correctly rounded
    ``math.fsum``, so the bits do not depend on how a Python version sums floats.
    A NaN residual stays live, so it makes the slope NaN and no verdict passes.
    """
    live = [(k, abs(r)) for k, r in zip(ks, residuals) if not abs(r) <= 1e-300]
    if not live:
        return DecayFit(tuple(ks), tuple(residuals), None, None, True)
    if len(live) < 2:
        raise ValueError("need at least two nonzero residuals to fit a slope")
    logk, logr = [math.log(k) for k, _ in live], [math.log(r) for _, r in live]
    if min(logk) == max(logk):
        raise ValueError("need at least two distinct k to fit a slope")
    mean_k, mean_r = math.fsum(logk) / len(live), math.fsum(logr) / len(live)
    dk = [v - mean_k for v in logk]
    slope = math.fsum(d * (v - mean_r) for d, v in zip(dk, logr)) / math.fsum(d * d for d in dk)
    return DecayFit(tuple(ks), tuple(residuals), slope, mean_r - slope * mean_k, False)


def log_asymptotic_fit(evaluator: Callable, k_grid: Sequence[int], pair) -> DecayFit:
    """Fit the decay of the logarithmic-law residual over a k grid at one (x, y) ``pair``."""
    if not k_grid:
        raise ValueError("empty k grid")
    x, y = pair
    return _fit(list(k_grid), [evaluator(k, x, y).log_residual for k in k_grid])


def scaling_fit(
    evaluator: Callable, n: int, k_grid: Sequence[int], u: Sequence[complex], v: Sequence[complex]
) -> DecayFit:
    """Fit the residual of the k^{-1/4}-scaled two-point law.

    Evaluates at (u k^{-1/4}, v k^{-1/4}) and subtracts the displayed limit
    ``-|u-v|^2/2 + n log(k)/sqrt(k) - n log(pi)/sqrt(k)`` from
    ``log|K|_w / sqrt(k)``.
    """
    if not k_grid:
        raise ValueError("empty k grid")
    sep = sum(abs(complex(a) - complex(b)) ** 2 for a, b in zip(u, v))
    residuals = []
    for k in k_grid:
        scale = k ** (-0.25)
        x = [complex(a) * scale for a in u]
        y = [complex(b) * scale for b in v]
        rep = evaluator(k, x, y)
        s = (
            rep.log_K_weighted / math.sqrt(k)
            + sep / 2.0
            - n * (math.log(k) - math.log(math.pi)) / math.sqrt(k)
        )
        residuals.append(s)
    return _fit(list(k_grid), residuals)
