"""Test-only oracles: exact model kernels and spec file writing.

None of these has a caller in the command line tool or the pipeline; the
tests use them as independent references.
"""

import cmath
import json
import math

from bergman.series import exponents_of_degree, multi_factorial


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
