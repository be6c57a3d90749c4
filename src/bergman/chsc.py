"""Closed forms for constant holomorphic sectional curvature.

For the potential (1/c) log(1 + c |x|^2) every Bergman coefficient is a
constant, vanishing above the dimension, and the family satisfies an exact
polynomial identity in the tensor power k.  The recursion here consumes only
the Taylor coefficients of ``e^u ((e^u - 1)/u)^(n-1)``, which is the Jacobian
ratio Delta0 written as a function of the scalar ``c theta . (x - y)``.  They
come from a binomial expansion in integers, so these closed forms share no
arithmetic with the series engine whose geometry they check.

Curvature normalization: the projective model has holomorphic sectional
curvature 1 (not 2); all constants follow that convention.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, perm
from typing import Callable, Sequence

from .potential import RadiusError, ResourceGuardError

# Largest dimension n and order M of chsc_coefficients: an O(M^2) recursion over
# Fractions whose sizes grow with n and M.  n = M = 120 took 0.06-0.07 s on a 2-CPU
# x86_64 VM under Python 3.11.7, and n = M = 160 took 0.16-0.20 s.
CHSC_ORDER_LIMIT = 120


def delta0_taylor_coeffs(n: int, L: int) -> list:
    """Exact Taylor coefficients a_0..a_L of e^u ((e^u - 1)/u)^(n-1).

    Since ``e^u (e^u - 1)^(n-1) = sum_i (-1)^(n-1-i) C(n-1, i) e^((i+1) u)``, the
    coefficient ``a_j`` is ``sum_i (-1)^(n-1-i) C(n-1, i) (i+1)^(j+n-1) / (j+n-1)!``:
    integer sums over one factorial each.
    """
    if n < 1 or L < 0:
        raise ValueError("need n >= 1 and L >= 0")
    signed = [(-1) ** (n - 1 - i) * comb(n - 1, i) for i in range(n)]
    return [Fraction(sum(w * (i + 1) ** (j + n - 1) for i, w in enumerate(signed)),
                     factorial(j + n - 1)) for j in range(L + 1)]


def chsc_coefficients(n: int, c, M: int) -> list:
    """Exact constants b_0..b_M for curvature c in dimension n.

    The constants of recently used (n, c, M) are cached, keyed by the exact
    value of c; every call returns a fresh list, so a caller that changes it
    cannot change later results.  An n or M above :data:`CHSC_ORDER_LIMIT` is refused
    (:func:`require_chsc_order`).
    """
    if M < 0:
        raise ValueError("M must be non-negative")
    require_chsc_order(n, M)
    return list(_chsc_constants(n, Fraction(c), M))


def require_chsc_order(n: int, M: int) -> None:
    """Raise :class:`bergman.potential.ResourceGuardError` when n or M is above
    :data:`CHSC_ORDER_LIMIT`."""
    if max(n, M) > CHSC_ORDER_LIMIT:
        raise ResourceGuardError(f"resource guard: the closed-form constants of n={n} to order"
                                 f" M={M}; keep n and M <= {CHSC_ORDER_LIMIT}")


@functools.lru_cache(maxsize=256)
def _chsc_constants(n: int, c: Fraction, M: int) -> tuple:
    a = delta0_taylor_coeffs(n, M)
    # the weight (-c)^l (l+n-1)!/(n-1)! a_l of b_(m-l) in b_m, the same for every m
    weights = [(-c) ** l * perm(l + n - 1, l) * a[l] for l in range(M + 1)]
    b = [Fraction(1)]
    for m in range(1, M + 1):
        b.append(-sum(weights[l] * b[m - l] for l in range(1, m + 1)))
    return tuple(b)


@dataclass(frozen=True)
class ChscModel:
    """One curvature model: dimension, curvature, and its exact constants."""

    n: int
    c: Fraction
    b: tuple

    @classmethod
    def build(cls, n: int, c, M: int | None = None) -> "ChscModel":
        c = Fraction(c)
        order = max(n + 1, M if M is not None else 0)
        return cls(n=n, c=c, b=tuple(chsc_coefficients(n, c, order)))


def polynomial_identity_check(model: ChscModel) -> bool:
    """Exact check of sum_j b_j k^{n-j} == c^n prod_{j=1}^n (k/c + j).

    The right side expands to prod (k + j c); for c = 0 it degenerates to
    k^n.  Also requires every computed b_m with m > n to vanish.
    """
    n, c = model.n, model.c
    for m in range(n + 1, len(model.b)):
        if model.b[m] != 0:
            return False
    if c == 0:
        return all(model.b[m] == 0 for m in range(1, len(model.b)))
    # prod_{j=1}^n (k + j c), lowest degree first
    poly = [Fraction(1)]
    for j in range(1, n + 1):
        root = j * c
        out = [Fraction(0)] * (len(poly) + 1)
        for d, coef in enumerate(poly):
            out[d] += coef * root
            out[d + 1] += coef
        poly = out
    lhs = [model.b[n - d] for d in range(n + 1)]  # coefficient of k^d is b_{n-d}
    return poly == lhs


def chsc_psi(c) -> Callable:
    """The closed-form polarized potential (1/c) log(1 + c x . zbar) as a function
    of ``(x, zbar)``, with limit x . zbar where c is 0 as a float; c is converted
    to float once.  A pair with 1 + c x . zbar = 0, where the logarithm has its
    pole, raises :class:`bergman.potential.RadiusError`."""
    cf = float(Fraction(c))
    flat = cf == 0

    def psi(x: Sequence[complex], zbar: Sequence[complex]) -> complex:
        w = sum(complex(a) * complex(b) for a, b in zip(x, zbar))
        if flat:
            return w
        u = 1 + cf * w
        if u == 0:
            raise RadiusError("the pair lies off the model's domain: 1 + c x.conj(y) = 0")
        return cmath.log(u) / cf

    return psi


def verdict_record(n: int, c, M: int) -> dict:
    """CLI-facing summary of the closed-form family for one (n, c)."""
    model = ChscModel.build(n, c, M)
    return {
        "n": n,
        "c": str(Fraction(c)),
        "M": M,
        "b": [str(v) for v in model.b[: M + 1]],
        "polynomial_check": "pass" if polynomial_identity_check(model) else "fail",
    }
