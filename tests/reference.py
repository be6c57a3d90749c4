"""One reference algebra for the tests: truncated series as plain dicts, every
operation taken from its definition.

A series here is a ``dict`` from exponent tuples to exact coefficients, with
its number of variables and the degree it is cut at passed alongside.  Each
operation is its defining formula run term by term, with no packed keys, no
shared accumulators and no table of series kept between calls:

* a sum adds coefficients; a product adds every pair of exponents and drops
  the pairs above the degree cut;
* a derivative multiplies each coefficient by its falling factorials, one
  factor at a time; a composition multiplies out each term, its powers built
  by repeated products;
* a determinant is the Leibniz sum over permutations;
* an inverse and the phase fixed point are plain iterations that gain one
  degree per step;
* the segment average weighs each split ``x^j y^(gamma-j)`` of a y monomial
  by its Beta integral ``|j|! |gamma-j|! / (|gamma| + 1)!``.

Only for speed, sums and products work on integer numerators over one common
denominator, a chain of products (a power, a composition, a determinant) builds
each ``Fraction`` once, at its end, and a power is cut at the lowest degree that
its uses need.

Of the package it reads only the public constructor
``TruncatedSeries(nvars, D, coeffs)`` and ``.coeffs``, ``.nvars`` and
``.trunc_degree`` of a series, so a fault in a loop the package shares between
its fast paths cannot pass a comparison with it.  The public functions take and
return ``TruncatedSeries``; the ``_``-prefixed ones work on dicts.
"""

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import comb, factorial, gcd, lcm, prod
from operator import add, itemgetter

from bergman.series import TruncatedSeries


def _over_one_denominator(f):
    """f (a dict of ints or Fractions) as integer numerators over their least common
    denominator: the pair (numerators, denominator)."""
    den = lcm(*[v.denominator for v in f.values()])
    return {k: v.numerator * (den // v.denominator) for k, v in f.items()}, den


def _fractions(f):
    """The dict of Fractions of a (numerators, denominator) pair, zeros dropped."""
    nums, den = f
    return {k: Fraction(v, den) for k, v in nums.items() if v}


def _add(scaled):
    """The sum of ``c * f`` over the pairs of a scalar c and f, a dict of coefficients or a
    (numerators, denominator) pair, in integers over one denominator."""
    scaled = [(Fraction(c), *(f if isinstance(f, tuple) else _over_one_denominator(f)))
              for c, f in scaled]
    den = lcm(*[c.denominator * d for c, _, d in scaled])
    out = {}
    for c, f, d in scaled:
        scale = c.numerator * (den // (c.denominator * d))
        for k, v in f.items():
            out[k] = out.get(k, 0) + scale * v
    return _fractions((out, den))


def _mul_over(a, b, D):
    """The product of two (numerators, denominator) pairs, every term of degree above D
    dropped: each pair of terms adds its product, over the product of the denominators;
    the result is divided by the gcd of its numerators and denominator."""
    (a, da), (b, db) = a, b
    out = {}
    b_terms = sorted(((sum(kb), kb, vb) for kb, vb in b.items()), key=itemgetter(0))
    for ka, va in a.items():
        dka = sum(ka)
        for dkb, kb, vb in b_terms:
            if dka + dkb > D:
                break
            k = tuple(map(add, ka, kb))
            out[k] = out.get(k, 0) + va * vb
    out = {k: v for k, v in out.items() if v}
    g = gcd(da * db, *out.values())
    return {k: v // g for k, v in out.items()}, da * db // g


def _diff(f, xi):
    """D^xi f: each exponent e loses xi_i, its coefficient gains e (e-1) ... (e - xi_i + 1)."""
    out = {}
    for k, v in f.items():
        if all(e >= d for e, d in zip(k, xi)):
            for e, d in zip(k, xi):
                for i in range(d):
                    v *= e - i
            out[tuple(e - d for e, d in zip(k, xi))] = v
    return out


def _products(args, nvars, wanted):
    """For each exponent k of ``wanted``, prod args_i^k_i cut at degree ``wanted[k]``, as
    a (numerators, denominator) pair: each product one argument times a product of lower
    degree, made once.  No argument has a constant term, so a product wanted through
    degree d needs the lower one only through d - 1; each is made through the highest
    degree any product needs it."""
    args, need = [_over_one_denominator(a) for a in args], {}
    lower = {}  # k -> (i, k - e_i), i its first slot with a nonzero exponent
    for k, d in wanted.items():
        while any(k) and (k not in need or need[k] < d):
            need[k] = d
            i = next(i for i, e in enumerate(k) if e)
            lower[k] = i, k[:i] + (k[i] - 1,) + k[i + 1:]
            k, d = lower[k][1], d - 1
    products = {(0,) * len(args): ({(0,) * nvars: 1}, 1)}
    for k in sorted(need, key=sum):
        i, below = lower[k]
        products[k] = _mul_over(products[below], args[i], need[k])
    return products


def _compose(f, args, nvars, D):
    """f(args) cut at D, for arguments with no constant term: the sum of c * prod args_i^k_i
    over the terms c x^k of f."""
    if any(sum(k) == 0 for a in args for k in a):
        raise ValueError("reference compose: an argument has a constant term")
    # every argument has valuation >= 1, so a term above D adds nothing
    terms = {k: v for k, v in f.items() if sum(k) <= D}
    products = _products(args, nvars, dict.fromkeys(terms, D))
    return _add([(v, products[k]) for k, v in terms.items()])


@cache
def _signed_permutations(size):
    """The permutations p of range(size), each with its sign (-1)^(inversions of p)."""
    return [(p, (-1) ** sum(p[i] > p[j] for i in range(size) for j in range(i + 1, size)))
            for p in permutations(range(size))]


def _unit(nvars, i):
    return tuple(int(j == i) for j in range(nvars))


# -- the operations on series ------------------------------------------------------


def mul(a, b, D):
    """a * b cut at degree D, which may exceed the degrees of a and b."""
    return TruncatedSeries(a.nvars, D, _fractions(_mul_over(
        _over_one_denominator(a.coeffs), _over_one_denominator(b.coeffs), D)))


def combine(terms):
    """The sum of ``c * D^xi s`` over ``(c, s)`` and ``(c, s, xi)`` terms, at the degree
    ``max(0, D - |xi|)`` of the first."""
    terms = [t if len(t) == 3 else (*t, None) for t in terms]
    c, s, xi = terms[0]
    D = s.trunc_degree if xi is None else max(0, s.trunc_degree - sum(xi))
    return TruncatedSeries(s.nvars, D, _add([
        (c, s.coeffs if xi is None else _diff(s.coeffs, xi)) for c, s, xi in terms]))


def diff(s, xi):
    """D^xi s, at degree max(0, D - |xi|)."""
    return combine([(1, s, xi)])


def compose(f, args):
    """f(args) at the lower of the degrees of f and of the arguments."""
    nvars, D = args[0].nvars, min(f.trunc_degree, args[0].trunc_degree)
    return TruncatedSeries(nvars, D, _compose(f.coeffs, [a.coeffs for a in args], nvars, D))


def rename(s, nvars, var_map):
    """Variable i of s moved to slot ``var_map[i]`` of ``nvars``; variables that share a
    slot multiply."""
    out = {}
    for k, v in s.coeffs.items():
        key = [0] * nvars
        for i, e in zip(var_map, k):
            key[i] += e
        out[tuple(key)] = out.get(tuple(key), 0) + v
    return TruncatedSeries(nvars, s.trunc_degree, out)


def det(rows):
    """The determinant of a square matrix of series of one nvars and degree D: the Leibniz
    sum of sign(p) prod_i rows[i][p(i)] over the permutations p, each product cut at D."""
    nvars, D = rows[0][0].nvars, rows[0][0].trunc_degree
    rows, terms = [[_over_one_denominator(e.coeffs) for e in row] for row in rows], []
    for p, sign in _signed_permutations(len(rows)):
        term = rows[0][p[0]]
        for i in range(1, len(rows)):
            term = _mul_over(term, rows[i][p[i]], D)
        terms.append((sign, term))
    return TruncatedSeries(nvars, D, _add(terms))


def det_of_scalars(rows):
    """The determinant of a square matrix of exact scalars, by the Leibniz sum of the rows
    as integers over their common denominators."""
    rows = [_over_one_denominator(dict(enumerate(map(Fraction, row)))) for row in rows]
    total = sum(sign * prod(row[j] for (row, _), j in zip(rows, p))
                for p, sign in _signed_permutations(len(rows)))
    return Fraction(total, prod(den for _, den in rows))


def inverse(s):
    """1/s at the degree D of s, for s with constant term c != 0: u = (1 - (s - c) u) / c
    iterated from u = 0, each step right through one more degree."""
    zero, D = (0,) * s.nvars, s.trunc_degree
    c = Fraction(s.coeffs.get(zero, 0))
    if c == 0:
        raise ValueError("reference inverse: constant term is zero")
    rest, u = _over_one_denominator({k: v for k, v in s.coeffs.items() if k != zero}), {}
    for _ in range(D + 1):
        u = _add([(1 / c, {zero: 1}), (-1 / c, _mul_over(rest, _over_one_denominator(u), D))])
    return TruncatedSeries(s.nvars, D, u)


def bare_slot(s):
    """Slot i when s is exactly the variable x_i, else None."""
    (key, value), *more = list(s.coeffs.items()) or [((), 0)]
    return key.index(1) if not more and value == 1 and sum(key) == 1 else None


def table_entries(table, args):
    """For each entry of a table of powers through ``args``, keyed by the exponents of the
    arguments that are not bare variables, that power cut at the entry's degree."""
    substituted, gammas = [i for i, a in enumerate(args) if bare_slot(a) is None], {}
    for key in table:
        gamma = [0] * len(args)
        for i, e in zip(substituted, key):
            gamma[i] = e
        gammas[key] = tuple(gamma)
    products = _products([a.coeffs for a in args], args[0].nvars,
                         {gammas[key]: entry.trunc_degree for key, entry in table.items()})
    return {key: TruncatedSeries(args[0].nvars, entry.trunc_degree,
                                 _fractions(products[gammas[key]]))
            for key, entry in table.items()}


def fixed_point(hinv, theta):
    """The z with theta(v, z) = t, t in z's slots, for theta with no constant term and
    ``hinv`` the inverse of its constant z-linear part H: z <- H^-1 t + z - H^-1 theta(v, z)
    iterated from z = 0, step d cut at degree d, where it is right."""
    N, D, n = theta[0].nvars, theta[0].trunc_degree, len(theta)
    ids = [{_unit(N, i): 1} for i in range(N)]
    lin = [_add([(h, t) for h, t in zip(row, ids[N - n:])]) for row in hinv]
    z = [{} for _ in range(n)]
    for d in range(1, D + 1):
        comp = [_compose(t.coeffs, ids[:N - n] + z, N, d) for t in theta]
        z = [_add([(1, lin[u]), (1, z[u]), *[(-h, c) for h, c in zip(row, comp)]])
             for u, row in enumerate(hinv)]
    return [TruncatedSeries(N, D, zu) for zu in z]


def segment_average(f, n):
    """int_0^1 f(x, t x + (1-t) y, w) dt for f in (x, y, w) blocks of n variables: y^gamma
    becomes sum_j binom(gamma, j) x^j y^(gamma-j) int_0^1 t^|j| (1-t)^|gamma-j| dt."""
    out = {}
    for k, v in f.coeffs.items():
        x, gamma, w = k[:n], k[n:2 * n], k[2 * n:]
        size = sum(gamma)
        for j in product(*[range(g + 1) for g in gamma]):
            beta = Fraction(factorial(sum(j)) * factorial(size - sum(j)), factorial(size + 1))
            weight = prod(comb(g, i) for g, i in zip(gamma, j)) * beta
            key = tuple(a + b for a, b in zip(x, j)) + tuple(g - i for g, i in zip(gamma, j)) + w
            out[key] = out.get(key, 0) + v * weight
    return TruncatedSeries(3 * n, f.trunc_degree, out)


def y_gradient_average(terms, n):
    """-segment_average(D_(y_i) g, n) for each i < n, g the sum of the ``(c, s)`` pairs."""
    g = combine(terms)
    return [combine([(-1, segment_average(diff(g, _unit(3 * n, n + i)), n))]) for i in range(n)]


def record(s):
    """The record of s: nvars, degree and its terms in graded lexicographic order, each
    exponent list with its coefficient as a reduced fraction."""
    terms = sorted(s.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    return {"nvars": s.nvars, "trunc_degree": s.trunc_degree, "mode": "rational",
            "terms": [{"index": list(k), "num": Fraction(v).numerator,
                       "den": Fraction(v).denominator} for k, v in terms]}


def evaluate(s, point):
    """s at a complex point: terms in graded lexicographic order, each its coefficient
    rounded to a complex times the powers of its variables from a table of repeated
    products, added in turn."""
    if len(point) != s.nvars:
        raise ValueError(f"expected point of length {s.nvars}")
    terms = sorted(s.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
    rows = []
    for i, z in enumerate(point):
        row = [1 + 0j]
        for _ in range(max((k[i] for k, _ in terms), default=0)):
            row.append(row[-1] * complex(z))
        rows.append(row)
    total = 0j
    for k, v in terms:
        term = complex(v)
        for row, e in zip(rows, k):
            if e:
                term *= row[e]
        total += term
    return total
