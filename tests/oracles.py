"""Test-only oracles: exact model kernels, plain series loops and spec file writing.

None of these has a caller in the command line tool or the pipeline; the
tests use them as independent references.  ``segment_average_oracle`` and
``eval_oracle`` are the loops the pipeline ran before it read the packed
form: they read the ``coeffs`` view, one exponent tuple and one ``Fraction``
per term.
"""

import cmath
import json
import math
from fractions import Fraction
from math import comb, factorial

from bergman.series import TruncatedSeries, exponents_of_degree, multi_factorial, sub_indices


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


def segment_average_oracle(f, n, block_start, x_start, y_start, out_nvars, passthrough):
    """``potential.segment_average`` as a Fraction-dict loop over ``f.coeffs``."""
    out = {}
    block = range(block_start, block_start + n)
    for key, value in f.coeffs.items():
        gamma = tuple(key[i] for i in block)
        base = [0] * out_nvars
        for src, dst in passthrough.items():
            base[dst] += key[src]
        total = sum(gamma)
        denom = factorial(total + 1)
        for j in sub_indices(gamma):
            w = 1
            for g, jj in zip(gamma, j):
                w *= comb(g, jj)
            js = sum(j)
            weight = Fraction(w * factorial(js) * factorial(total - js), denom)
            new_key = list(base)
            for i in range(n):
                new_key[x_start + i] += j[i]
                new_key[y_start + i] += gamma[i] - j[i]
            new_key = tuple(new_key)
            out[new_key] = out.get(new_key, 0) + value * weight
    return TruncatedSeries(out_nvars, f.trunc_degree, out)


def is_zero(series):
    """Whether a series has no terms, read through ``==`` on the packed form."""
    return series == TruncatedSeries.zero(series.nvars, series.trunc_degree)


def eval_oracle(series, point):
    """``TruncatedSeries.eval`` as a loop over the ``coeffs`` view, one complex() per term."""
    if len(point) != series.nvars:
        raise ValueError(f"expected point of length {series.nvars}")
    coeffs = series.coeffs
    if not coeffs:
        return 0j
    max_exp = [0] * series.nvars
    for key in coeffs:
        for i, e in enumerate(key):
            if e > max_exp[i]:
                max_exp[i] = e
    pows = []
    for i, m in enumerate(max_exp):
        row = [1 + 0j]
        z = complex(point[i])
        for _ in range(m):
            row.append(row[-1] * z)
        pows.append(row)
    total = 0j
    for key, value in coeffs.items():
        term = complex(value)
        for i, e in enumerate(key):
            if e:
                term *= pows[i][e]
        total += term
    return total
