"""Test-only oracles that the reference algebra (``reference.py``) does not replace.

None of these has a caller in the command line tool or the pipeline.  Each is kept
for a reason of its own:

* ``cpn_kernel``, ``cpn_kernel_monomial_sum`` and ``flat_kernel`` are the model
  Bergman kernels in closed form and as a sum over the monomial basis: facts of the
  models, not of any series operation, that the float kernel is checked against.
* ``cramer_inverse`` inverts an exact matrix by Cramer's rule over the reference's
  Leibniz determinant, apart from the package's Gauss-Jordan elimination; the
  reference fixed point takes its Hessian inverse from it.
* ``worst_case_norm_table_tuples`` and ``order_kernel_pair_loop`` are
  ``growth.worst_case_norm_table`` and ``growth._order_kernel`` on exponent tuples:
  each lookup a ``zip`` of gamma and eta, each sub-index sum walked through
  ``sub_indices`` with ``multi_factorial`` per (m, xi), and W(delta, g) as the
  double loop over pairs (alpha, beta) of sub-indices of every delta.  The table is
  integer combinatorics, outside the reference's series algebra.
* ``amplitudes_recomputed`` and ``collapses_recomputed`` compute every amplitude
  ``(b_m o z) * Delta0`` and every collapse ``to_xz(D_theta . A_m)`` anew, on a fresh
  geometry, where the pipeline reuses what the recursion and the transport steps
  built: they check the reuse, through the package's own compositions.
* ``write_spec`` writes a spec file, ``lift`` raises a series' truncation degree and
  ``is_zero`` reads a series through ``==``: helpers that only the tests need.

Like the reference, they import no private name of the package and read no private
attribute of a series (``tests/test_names.py`` checks both).
"""

import cmath
import json
import math
from fractions import Fraction
from math import comb, factorial

from bergman.potential import build_geometry
from bergman.series import (
    TruncatedSeries,
    exponents_of_degree,
    linear_combination,
    multi_factorial,
    sub_indices,
    unit,
)
from reference import det_of_scalars


def cpn_kernel(n, k, x, y):
    """Exact Bergman kernel of the projective model in an affine chart.

    ((k+n)! / (k! pi^n)) (1 + x . conj(y))^k, for the curvature 1 potential
    log(1 + |x|^2) at tensor power k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    w = sum(complex(a) * complex(b).conjugate() for a, b in zip(x, y))
    # (k+n)!/k! as an exact integer: the factorials themselves overflow a float
    coef = math.prod(range(k + 1, k + n + 1)) / math.pi**n
    return coef * (1 + w) ** k


def cpn_kernel_monomial_sum(n, k, x, y):
    """Brute-force oracle: sum over the monomial section basis.

    Monomials z^alpha with |alpha| <= k have squared norms
    pi^n alpha! (k - |alpha|)! / (k + n)!; the kernel is the normalized sum
    of x^alpha conj(y)^alpha.
    """
    total = 0j
    for deg in range(k + 1):
        for alpha in exponents_of_degree(n, deg):
            term = 1 + 0j
            for a, xi, yi in zip(alpha, x, y):
                term *= complex(xi) ** a * complex(yi).conjugate() ** a
            norm_sq = (
                math.pi**n
                * multi_factorial(alpha)
                * math.factorial(k - deg)
                / math.factorial(k + n)
            )
            total += term / norm_sq
    return total


def flat_kernel(n, k, x, y):
    """The Bargmann-Fock kernel (k/pi)^n exp(k x . conj(y))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    w = sum(complex(a) * complex(b).conjugate() for a, b in zip(x, y))
    return (k / math.pi) ** n * cmath.exp(k * w)


def write_spec(spec, path):
    """Write a PotentialSpec as the JSON file PotentialSpec.from_file reads."""
    with open(path, "w") as fh:
        json.dump(spec.to_record(), fh, sort_keys=True, indent=2)
        fh.write("\n")


def lift(series, new_degree):
    """The same terms read as a series truncated at ``new_degree`` >= its own degree."""
    if new_degree < series.trunc_degree:
        raise ValueError(f"cannot lower truncation degree {series.trunc_degree} by lift")
    return TruncatedSeries(series.nvars, new_degree, series.coeffs)


def is_zero(series):
    """Whether a series has no terms, read through ``==`` on the packed form."""
    return series == TruncatedSeries.zero(series.nvars, series.trunc_degree)


def cramer_inverse(rows):
    """The inverse of a matrix of exact rationals by Cramer's rule over the reference
    determinant: entry (i, j) is det of the matrix with column i replaced by e_j, over its
    det.  A singular matrix is a ValueError."""
    size = len(rows)
    det_h = det_of_scalars(rows)
    if det_h == 0:
        raise ValueError("singular matrix")
    return [[det_of_scalars([[int(r == j) if c == i else v for c, v in enumerate(row)]
                             for r, row in enumerate(rows)]) / det_h for j in range(size)]
            for i in range(size)]


def amplitudes_recomputed(geom, table):
    """``amplitude_from_b`` with every ``a_m = (b_m o z) * Delta0`` composed anew."""
    fresh = build_geometry(geom.spec)
    out = [geom.delta0_xytheta - 1]
    for b in table.b[1:]:
        comp = fresh.substitute_z(b)
        out.append(comp * geom.delta0_xytheta.truncate(comp.trunc_degree))
    return out


def collapses_recomputed(geom, chain):
    """``reconstruct_coefficients`` with every ``b_m = to_xz(D_theta . A_m)`` collapsed anew."""
    n = geom.n
    fresh = build_geometry(geom.spec)
    out = [TruncatedSeries.one(2 * n, geom.degree)]
    for vec in chain.A[1:]:
        div = linear_combination([(1, a.diff(unit(3 * n, 2 * n + i))) for i, a in enumerate(vec)])
        out.append(fresh.to_xz(div))
    return out


def worst_case_norm_table_tuples(n, M, Kmax):
    """``growth.worst_case_norm_table`` on exponent tuples, without its guard."""
    scale = factorial(2 * M)
    kernels = {l: order_kernel_pair_loop(n, l, scale) for l in range(1, M + 1)}
    values, totals = {}, {}
    zero = (0,) * n

    def total(m, eta):
        key = (m, eta)
        hit = totals.get(key)
        if hit is None:
            hit = sum(
                c * value(m - l, tuple(g + e for g, e in zip(gamma, eta)))
                for l in range(1, m + 1)
                for gamma, c in kernels[l]
            )
            totals[key] = hit
        return hit

    def value(m, xi):
        if m == 0:
            return 1 if xi == zero else 0
        key = (m, xi)
        hit = values.get(key)
        if hit is None:
            xi_fact = multi_factorial(xi)
            acc = sum(
                xi_fact // multi_factorial(xi0) * total(m, xi0) for xi0 in sub_indices(xi)
            )
            hit = values[key] = acc // scale
        return hit

    return {(m, k): Fraction(value(m, (k,) + (0,) * (n - 1)))
            for m in range(M + 1) for k in range(Kmax + 1)}


def order_kernel_pair_loop(n, l, scale):
    """``growth._order_kernel`` with W(delta, g) summed over every pair of sub-indices."""
    weights = [0] * (2 * l + 1)
    for delta in exponents_of_degree(n, l):
        subs = [(sum(a), a) for a in sub_indices(delta)]
        delta_fact = multi_factorial(delta)
        for g in range(2 * l + 1):
            weights[g] += delta_fact * sum(
                _ones_binomial(alpha, g) * _ones_binomial(beta, g)
                for deg_a, alpha in subs
                for deg_b, beta in subs
                if deg_a + deg_b >= g
            )
    return [
        (gamma, weights[g] * scale // multi_factorial(gamma))
        for g in range(2 * l + 1)
        for gamma in exponents_of_degree(n, g)
    ]


def _ones_binomial(alpha, g):
    """binom(alpha + g*ones, g*ones), componentwise product."""
    out = 1
    for a in alpha:
        out *= comb(a + g, g)
    return out
