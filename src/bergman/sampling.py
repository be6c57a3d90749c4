"""Deterministic point generation for numeric sweeps.

All numeric PASS/FAIL sweeps in this package draw their sample points from an
unscrambled Halton sequence, so two runs of the same configuration evaluate
exactly the same points in exactly the same order.
"""

from __future__ import annotations

import math


def polydisc_points(n: int, radius: float, count: int, skip: int = 0) -> list:
    """``count`` points of the closed polydisc of the given radius in C^n.

    Each complex coordinate is drawn area-uniformly from its disc, from the
    Halton points ``skip``, ..., ``skip + count - 1`` in dimension 2n: point i
    holds the radical inverses of i in the first 2n primes.  ``skip``
    discards a prefix of the sequence, which is how independent batches (for
    example an x grid and a z grid) are produced.
    """
    bases = []
    p = 2
    while len(bases) < 2 * n:
        if all(p % q for q in bases):
            bases.append(p)
        p += 1
    points = []
    for i in range(skip, skip + count):
        row = []
        for b in bases:  # the digits of i in base b, mirrored about the radix point
            v, f, q = 0.0, 1 / b, i
            while q:
                q, r = divmod(q, b)
                v += r * f
                f /= b
            row.append(v)
        pt = []
        for j in range(n):
            rho = radius * math.sqrt(row[2 * j])
            ang = 2.0 * math.pi * row[2 * j + 1]
            pt.append(complex(rho * math.cos(ang), rho * math.sin(ang)))
        points.append(tuple(pt))
    return points
