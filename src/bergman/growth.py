"""Growth of the coefficient family and the truncation calculus.

Three independent probes of how fast the coefficients can grow:

* :func:`fit_growth` fits ``log b_m = m log C + w log m!`` (w = 2 for the
  proved factorial-squared model, w = 1 for the conjectured one) to computed
  grid norms and reports whether the fitted bound covers them,
* :func:`worst_case_norm_table` runs the equality case of the recursive
  norm inequality with unit constant in exact big-integer arithmetic, which
  is where the factorial-squared floor comes from; its five-fold sum is
  evaluated in factored form, as an integer kernel per order (its weights W
  summed by degree) applied to cached partial sums T of earlier orders, on
  indices packed into ints, each with one list of its sub-indices,
* :func:`truncation_minimizer` and :func:`exp_factorial_bound_check` verify
  the two elementary facts behind the optimal truncation order: the scan of
  ``C^m (m!)^2 / k^m`` is unimodal with minimum near sqrt(k/C), and
  ``k e^{-k delta} <= (2/delta)^{N+2} (N+1)! / k^{N+1}``.

Verdict sweeps run in log domain; the worst case table never leaves exact
rationals.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import lgamma
from operator import ge, mul
from typing import Iterable

from .coefficients import NormTable
from .potential import ResourceGuardError
from .series import exponents_of_degree, multi_factorial, sub_indices


@dataclass(frozen=True)
class GrowthFit:
    orders: tuple
    norms: tuple
    model: str               # "m_factorial_sq" or "m_factorial"
    fitted_C: float | None   # least-squares constant, feeds the N0(k) default
    cover_C: float | None    # smallest C whose bound covers every norm
    prefix_cover_C: float | None  # covering constant of the first half of orders
    residuals: tuple         # log-domain residuals against the fitted bound
    slack: float
    verdict: str             # "pass" | "fail" | "vanishing" | "vanishing_beyond_<n>"
    radius: float
    grid: int

    def to_dict(self) -> dict:
        return dict(vars(self))


_MODEL_WEIGHTS = {"m_factorial_sq": 2, "m_factorial": 1}


# how far above the first half's covering constant the later orders may push it
GROWTH_SLACK = 0.05


def fit_growth(norms: NormTable, model: str = "m_factorial_sq") -> GrowthFit:
    """Fit the growth model to the order norms b_{m,0}, m >= 1.

    All-zero families report "vanishing"; families positive on a prefix and
    zero beyond report "vanishing_beyond_<last positive order>".  Otherwise
    at least three positive orders are required.

    The model asserts an upper bound, so the verdict checks that the bound
    covers with a stable constant: cover_C is the smallest constant whose
    bound ``C^m (m!)^w`` dominates every computed norm, and the verdict is
    PASS when the later orders do not push it more than ``GROWTH_SLACK``
    above the covering constant of the first half.  Norms growing slower than
    the model therefore pass (they sit under the bound); norms growing faster
    keep raising the covering constant to the last computed order and fail.
    The least-squares constant is reported alongside; it is the default
    calibration for the optimal truncation order, not the verdict.
    """
    if model not in _MODEL_WEIGHTS:
        raise ValueError(f"unknown growth model {model!r}")
    w = _MODEL_WEIGHTS[model]
    values = norms.order_norms()
    orders = tuple(range(1, norms.M + 1))
    tail = tuple(values[1:])
    base = dict(
        orders=orders, norms=tail, model=model, fitted_C=None, cover_C=None,
        prefix_cover_C=None, residuals=(), slack=GROWTH_SLACK,
        radius=norms.radius, grid=norms.grid,
    )
    positive = [(m, values[m]) for m in orders if values[m] > 0]
    if not positive:
        return GrowthFit(verdict="vanishing", **base)
    last_positive = max(m for m, _ in positive)
    if len(positive) == last_positive and last_positive < norms.M:
        return GrowthFit(verdict=f"vanishing_beyond_{last_positive}", **base)
    if len(positive) < 3:
        raise ValueError("need at least three positive orders to fit growth")
    num = sum(m * (math.log(v) - w * lgamma(m + 1)) for m, v in positive)
    den = sum(m * m for m, _ in positive)
    log_c = num / den
    residuals = tuple(
        math.log(v) - (m * log_c + w * lgamma(m + 1)) for m, v in positive
    )
    per_order = [
        (math.log(v) - w * lgamma(m + 1)) / m for m, v in positive
    ]
    split = max(2, (len(per_order) + 1) // 2)
    cover = math.exp(max(per_order))
    prefix_cover = math.exp(max(per_order[:split]))
    verdict = "pass" if cover <= prefix_cover * (1.0 + GROWTH_SLACK) else "fail"
    base["fitted_C"] = math.exp(log_c)
    base["cover_C"] = cover
    base["prefix_cover_C"] = prefix_cover
    base["residuals"] = residuals
    return GrowthFit(verdict=verdict, **base)


# -- worst case equality recursion -------------------------------------------


# Largest (M, Kmax) per n for worst_case_norm_table, about a quarter second each, so the
# two cheapest (n = 2, 4) run in the tests in about 0.5 s.  On a 2-CPU x86_64 VM, Python
# 3.11.7, best of 5 in two sets: corners 0.15-0.33 s; M + 1 0.18-0.29 s (n=1), 0.31-0.48,
# 0.50-0.69, 0.72-1.05 and 0.87-0.91 s (n=5); Kmax + 1 0.16-0.41 s.
WORST_CASE_LIMITS = {1: (30, 32), 2: (12, 20), 3: (7, 15), 4: (5, 14), 5: (5, 5)}
# Largest len(deltas) * (n_max + 1) * k_max for exp_factorial_bound_check: at
# the limit the sweep took 0.20 s (n_max = 20) to 0.90 s (n_max = 0, where the
# per-k log dominates) on the same VM.
LEMMA_CHECK_LIMIT = 2_000_000
# Largest k for truncation_minimizer, which keeps one list of k floats: at
# the limit the scan took 0.12-0.15 s and the process peaked at 41 MB RSS on
# the same VM under Python 3.11.7.
TRUNCATION_K_LIMIT = 500_000


def worst_case_norm_table(n: int, M: int, Kmax: int) -> dict:
    """Equality case of the norm recursion with unit constant, exactly.

    Returns the entries {(m, k): value} for 0 <= m <= M and xi = k e_1,
    k <= Kmax, computed from the initial data b_{0,xi} = [xi == 0].  Values
    are exact Fractions with denominator 1: by induction on m, value(m, xi)
    is xi! times an integer, because (gamma + eta)! / (gamma! eta!) is an
    integer, so each value(p, gamma + eta) / gamma! below is eta! times one.

    The recursion is the five-fold sum

        value(m, xi) = sum_{l=1..m} sum_{|delta|=l} delta!
                       sum_{alpha, beta <= delta} sum_{|gamma| <= |alpha|+|beta|}
                       sum_{xi0 <= xi} xi! / (xi0! gamma!)
                       binom(alpha + |gamma| 1, |gamma| 1) binom(beta + |gamma| 1, |gamma| 1)
                       value(m - l, gamma + xi0).

    Its summand is a product of a factor that sees only (delta, alpha, beta,
    |gamma|) and one that sees only (xi, gamma, xi0), so it is evaluated in
    factored form: with the integers

        W(delta, g) = sum_{alpha, beta <= delta, |alpha|+|beta| >= g}
                      binom(alpha + g 1, g 1) binom(beta + g 1, g 1),

    the order-l kernel K_l(gamma) = sum_{|delta|=l} delta! W(delta, |gamma|)
    / gamma! is built once per call (see :func:`_order_kernel`), and

        value(m, xi) = sum_{xi0 <= xi} xi! / xi0! T(m, xi0),
        T(m, eta)    = sum_{l=1..m} sum_{|gamma| <= 2l} K_l(gamma)
                       value(m - l, gamma + eta),

    with T cached per (m, eta).  Taking the xi0 sum outermost, instead of
    caching V_xi(p, g) = sum_{|gamma|=g} sum_{xi0 <= xi} xi! / (xi0! gamma!)
    value(p, gamma + xi0) for each xi, lets one T serve every xi >= eta.
    Kernels are held multiplied by (2M)!, which every gamma! divides, so the
    sums run in integers and each value is one exact integer division.

    Indices are ints with digits in base Kmax + 2M + 1, above every entry the
    recursion reaches, so gamma + eta is one add; the caches are one dict per order,
    each xi gets one list of (xi0, xi! / xi0!) for every order, and the term l = m
    of T is read off value(0, .) = [. == 0].  Every cache lives for one call.
    """
    if n < 1 or M < 0 or Kmax < 0:
        raise ValueError("need n >= 1, M >= 0, Kmax >= 0")
    M_max, K_max = WORST_CASE_LIMITS.get(n, (-1, -1))
    if M > M_max or Kmax > K_max:
        raise ResourceGuardError(
            "resource guard: the worst case table is combinatorial; keep "
            + ", ".join(f"n={k}: M <= {m}, Kmax <= {K}" for k, (m, K) in WORST_CASE_LIMITS.items())
        )
    scale = math.factorial(2 * M)
    base = Kmax + 2 * M + 1
    places = [base**i for i in range(n - 1, -1, -1)]
    kernels = [None] + [[(sum(map(mul, places, g)), c) for g, c in _order_kernel(n, l, scale)]
                        for l in range(1, M + 1)]
    values: list = [{} for _ in range(M + 1)]  # per order m >= 1: xi -> value(m, xi)
    totals: list = [{} for _ in range(M + 1)]  # per order m >= 1: eta -> scale * T(m, eta)
    subs: dict = {}  # xi -> [(xi0, xi! / xi0!) for xi0 <= xi]

    def total(m: int, eta: int) -> int:
        hit = kernels[m][0][1] if eta == 0 else 0
        for l in range(1, m):
            p, known = m - l, values[m - l]
            for gamma, c in kernels[l]:
                v = known.get(gamma + eta)
                hit += c * (value(p, gamma + eta) if v is None else v)
        totals[m][eta] = hit
        return hit

    def value(m: int, xi: int) -> int:
        terms = subs.get(xi)
        if terms is None:
            terms, rest = [(0, 1)], xi
            for place in reversed(places):
                rest, digit = divmod(rest, base)
                column = [(j * place, math.perm(digit, digit - j)) for j in range(digit + 1)]
                terms = [(a + b, c * f) for a, c in terms for b, f in column]
            subs[xi] = terms
        t = totals[m]
        values[m][xi] = hit = sum(c * (t[x] if x in t else total(m, x)) for x, c in terms) // scale
        return hit

    return {(m, k): Fraction(value(m, k * places[0]) if m else int(k == 0))
            for m in range(M + 1) for k in range(Kmax + 1)}


def _order_kernel(n: int, l: int, scale: int) -> list:
    """Pairs (gamma, scale * K_l(gamma)) for |gamma| <= 2l, in degree order.

    ``scale`` must be a multiple of (2l)!, so every entry is an integer.  W(delta, g) is
    sum_{d + d' >= g} S_g(d) S_g(d'), S_g(d) = sum_{alpha <= delta, |alpha| = d} binom(alpha
    + g 1, g 1): one pass over the alpha and a suffix sum.  W and delta! see only the
    multiset of delta's entries, so each is weighed once, times its number of orderings.
    """
    weights = [0] * (2 * l + 1)  # sum_{|delta|=l} delta! W(delta, g)
    for delta, count in Counter(tuple(sorted(d)) for d in exponents_of_degree(n, l)).items():
        subs = [(sum(alpha), alpha) for alpha in sub_indices(delta)]
        delta_fact = count * multi_factorial(delta)
        for g in range(2 * l + 1):
            by_degree = [0] * (l + 1)  # S_g(d)
            for d, alpha in subs:
                by_degree[d] += math.prod([math.comb(a + g, g) for a in alpha])
            tail = list(accumulate(reversed(by_degree)))[::-1] + [0] * l  # sum_{d' >= d} S_g(d')
            weights[g] += delta_fact * sum(s * tail[max(g - d, 0)] for d, s in enumerate(by_degree))
    return [
        (gamma, weights[g] * scale // multi_factorial(gamma))
        for g in range(2 * l + 1)
        for gamma in exponents_of_degree(n, g)
    ]


# -- truncation rules ---------------------------------------------------------


@dataclass(frozen=True)
class TruncationScan:
    C: float
    k: int
    argmin: int
    min_value: float
    sqrt_target: float
    unimodal: bool
    within_one_of_target: bool
    stirling_bound_ok: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def truncation_minimizer(C: float, k: int) -> TruncationScan:
    """Scan m -> C^m (m!)^2 / k^m over 1..k in log domain.

    Asserts the scan is unimodal, the argmin sits within one of sqrt(k/C),
    and the minimum obeys the Stirling bound e^2 m e^{-2m} at
    m = floor(sqrt(k/C)).

    The scan keeps one list, the k log terms, each built from a float m (exact
    below 2^53).  The argmin is the first index of their minimum; unimodality
    is read from neighbour comparisons ``logs[m+1] >= logs[m]``, which for
    finite floats have the sign of the difference: the scan is unimodal when
    no step falls after the first step that does not.
    """
    if not (math.isfinite(C) and C > 0) or type(k) is not int or k < 1:  # True is no k
        raise ValueError("need a finite C > 0 and an integer k >= 1")
    if k > TRUNCATION_K_LIMIT:
        raise ResourceGuardError(f"resource guard: the truncation scan keeps k = {k} terms;"
                                 f" keep k <= {TRUNCATION_K_LIMIT}")
    log_C, log_k = math.log(C), math.log(k)
    logs = [m * log_C + 2.0 * lgamma(m + 1.0) - m * log_k for m in map(float, range(1, k + 1))]
    low = min(logs)
    arg = 1 + logs.index(low)
    rises = map(ge, islice(logs, 1, None), logs)
    unimodal = not any(rises) or all(rises)  # all() resumes after the first rise
    target = math.sqrt(k / C)
    m_hat = max(1, int(target))
    bound_log = 2.0 + math.log(m_hat) - 2.0 * m_hat
    return TruncationScan(
        C=C,
        k=k,
        argmin=arg,
        min_value=math.exp(low),
        sqrt_target=target,
        unimodal=unimodal,
        within_one_of_target=abs(arg - target) <= 1.0,
        stirling_bound_ok=low <= bound_log + 1e-12,
    )


@dataclass(frozen=True)
class BoundSweep:
    deltas: tuple
    n_max: int
    k_max: int
    checked: int
    violations: tuple
    passed: bool

    def to_dict(self) -> dict:
        return dict(vars(self))


def exp_factorial_bound_check(
    deltas: Iterable[float] = (0.1, 0.5, 1.0, 2.0),
    n_max: int = 20,
    k_max: int = 10_000,
) -> BoundSweep:
    """Sweep k e^{-k delta} <= (2/delta)^{N+2} (N+1)! / k^{N+1} in log domain.

    Compares ``lhs = log k - k delta`` (once per delta and k) with ``base_N - (N+1) log k``,
    ``base_N = (N+2) log(2/delta) + lgamma(N+2)``; keeps the first ten violating k per (delta, N).
    """
    deltas = tuple(float(d) for d in deltas)
    if not all(math.isfinite(d) and d > 0 for d in deltas):
        raise ValueError("delta must be finite and positive")
    if not deltas or n_max < 0 or k_max < 1:  # an empty sweep would pass with nothing checked
        raise ValueError("need at least one delta, n_max >= 0 and k_max >= 1")
    if (checks := len(deltas) * (n_max + 1) * k_max) > LEMMA_CHECK_LIMIT:
        raise ResourceGuardError(f"resource guard: the lemma sweep makes len(deltas) * (n_max+1)"
                                 f" * k_max = {checks} checks; keep it <= {LEMMA_CHECK_LIMIT}")
    violations = []
    for delta in deltas:
        rows = [((N + 2) * math.log(2.0 / delta) + lgamma(N + 2), N + 1, [])
                for N in range(n_max + 1)]
        for k in range(1, k_max + 1):
            logk = math.log(k)
            lhs = logk - k * delta
            for base, w, bad in rows:
                if lhs > base - w * logk and len(bad) < 10:
                    bad.append(k)
        violations.extend((delta, w - 1, k) for _, w, bad in rows for k in bad)
    return BoundSweep(deltas=deltas, n_max=n_max, k_max=k_max, checked=checks,
                      violations=tuple(violations), passed=not violations)
