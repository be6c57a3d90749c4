"""Truncated multivariate formal power series arithmetic.

Every symbolic object in this package (potentials, phases, Jacobian factors,
kernel coefficients) is carried by one type: a finite sparse map from exponent
tuples to coefficients, truncated by total degree.  Coefficients may be exact
(``int`` / ``fractions.Fraction``) or inexact (``float`` / ``complex``); the
algebraic identities asserted by the test suite run in exact mode, numeric
kernel evaluation converts to floats first via :meth:`TruncatedSeries.to_float`.

Truncation discipline
---------------------
A series with ``trunc_degree == D`` stores no exponent of total degree above
``D`` and is read as "exact through degree D, unknown beyond".  Arithmetic
results are truncated to the degree they are guaranteed exact to:

* ``+``, ``-``, ``*`` keep ``D`` (operands must agree on ``nvars`` and ``D``),
* ``diff`` by a multi-index ``xi`` lowers it to ``max(0, D - |xi|)``,
* ``compose`` takes the minimum over the operand degrees; arguments must have
  zero constant term, which is what makes truncated composition well defined,
* ``invert`` keeps ``D`` and needs a nonzero constant term.

:func:`mul_trunc` is the one escape hatch: it computes a product at a caller
chosen output degree, for the few places where one factor is an exact
polynomial and the plain rule would throw away valid coefficients.

Storage is canonical: zero coefficients are dropped and keys are held in
graded lexicographic order, so every iteration (and hence every floating
point reduction) happens in one fixed, reproducible order.  Values are never
mutated after construction; all operations return new objects and are safe to
call from concurrent threads.

Composition
-----------
``f.compose(args)`` never raises a bare target variable to a power: an
argument that is exactly ``x_j`` (one term, coefficient 1, degree 1) only
moves the exponent of its slot to slot ``j``.  The terms of ``f`` are grouped
by the exponent ``gamma`` of the other, substituted, arguments, and each
group costs one product with the power product ``P_gamma`` of those
arguments.  The optional ``cache`` holds these ``P_gamma``, keyed by
``gamma`` (one entry per substituted argument), so calls that share an
argument list share their powers.

Trusted construction
--------------------
The public constructor validates every key (length, sign, degree) and sums
duplicate keys, because specs, records and callers may hand it anything.
The hot operations ``+``, unary ``-``, scalar ``*``, :func:`mul_trunc` and
``compose`` build their results through ``TruncatedSeries._canonical``
instead, which only drops zeros and sorts.  That is safe because each of
them builds a dict with one entry per key, and every key is a componentwise
sum of exponent tuples of valid operands of the same ``nvars``, so it has
the right length and no negative entry.  ``+``, ``-`` and scalar ``*`` keep
the keys of operands truncated at the same degree; :func:`mul_trunc` and
``compose`` only keep keys of degree at most the output degree.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from fractions import Fraction
from math import comb, factorial
from typing import Iterator, Sequence

MultiIndex = tuple  # exponent tuples of non-negative ints

_SCALARS = (int, float, complex, Fraction)


def grlex_key(index: MultiIndex):
    """Sort key for graded lexicographic order."""
    return (sum(index), index)


def exponents_of_degree(nvars: int, degree: int) -> Iterator[MultiIndex]:
    """All exponent tuples with ``|alpha| == degree``, in lexicographic order."""
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in exponents_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def multi_factorial(index: MultiIndex) -> int:
    out = 1
    for e in index:
        out *= factorial(e)
    return out


def unit(nvars: int, i: int) -> MultiIndex:
    """The exponent tuple of the i-th variable: 1 in slot i, 0 elsewhere."""
    return (0,) * i + (1,) + (0,) * (nvars - i - 1)


def sub_indices(bound: MultiIndex) -> Iterator[MultiIndex]:
    """All componentwise ``alpha <= bound``, in lexicographic order."""
    if not bound:
        yield ()
        return
    for head in range(bound[0] + 1):
        for tail in sub_indices(bound[1:]):
            yield (head,) + tail


def multi_binomial(upper: MultiIndex, lower: MultiIndex) -> int:
    """Componentwise product of binomial coefficients."""
    out = 1
    for u, l in zip(upper, lower):
        out *= comb(u, l)
    return out


class TruncatedSeries:
    """A formal power series in ``nvars`` variables, truncated by total degree."""

    __slots__ = ("nvars", "trunc_degree", "coeffs", "_terms")

    def __init__(self, nvars: int, trunc_degree: int, coeffs: dict | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        if trunc_degree < 0:
            raise ValueError("trunc_degree must be non-negative")
        clean = {}
        if coeffs:
            for key, value in coeffs.items():
                key = tuple(key)
                if len(key) != nvars:
                    raise ValueError(f"exponent {key} has length {len(key)}, expected {nvars}")
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key}")
                if sum(key) > trunc_degree or value == 0:
                    continue
                clean[key] = clean.get(key, value * 0) + value
        self._store(nvars, trunc_degree, clean)

    def _store(self, nvars: int, trunc_degree: int, acc: dict) -> None:
        """Set the fields from one entry per valid key, dropping zeros, in grlex order."""
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "trunc_degree", trunc_degree)
        ordered = {k: acc[k] for k in sorted(acc, key=grlex_key) if acc[k] != 0}
        object.__setattr__(self, "coeffs", ordered)
        object.__setattr__(self, "_terms", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, nvars: int, trunc_degree: int, acc: dict) -> "TruncatedSeries":
        """Trusted constructor for results of this module's own arithmetic.

        ``acc`` must hold one entry per key, every key a tuple of ``nvars``
        non-negative exponents of total degree at most ``trunc_degree``.
        Only zeros are dropped and the keys sorted; nothing is checked.
        """
        out = object.__new__(cls)
        out._store(nvars, trunc_degree, acc)
        return out

    @classmethod
    def zero(cls, nvars: int, trunc_degree: int) -> "TruncatedSeries":
        return cls(nvars, trunc_degree, {})

    @classmethod
    def constant(cls, nvars: int, trunc_degree: int, value) -> "TruncatedSeries":
        return cls(nvars, trunc_degree, {(0,) * nvars: value})

    @classmethod
    def one(cls, nvars: int, trunc_degree: int) -> "TruncatedSeries":
        return cls.constant(nvars, trunc_degree, 1)

    @classmethod
    def variable(cls, nvars: int, trunc_degree: int, i: int) -> "TruncatedSeries":
        return cls(nvars, trunc_degree, {unit(nvars, i): 1})

    @classmethod
    def variables(cls, nvars: int, trunc_degree: int) -> list:
        return [cls.variable(nvars, trunc_degree, i) for i in range(nvars)]

    # -- inspection --------------------------------------------------------

    @property
    def constant_term(self):
        return self.coeffs.get((0,) * self.nvars, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __getitem__(self, index) -> object:
        return self.coeffs.get(tuple(index), 0)

    def sorted_terms(self) -> list:
        """Terms as (degree, key, value), graded lexicographic, cached."""
        if self._terms is None:
            object.__setattr__(
                self, "_terms", [(sum(k), k, v) for k, v in self.coeffs.items()]
            )
        return self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.trunc_degree == other.trunc_degree
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self) -> str:
        head = ", ".join(
            f"{k}:{v}" for k, v in list(self.coeffs.items())[:4]
        )
        more = "..." if len(self.coeffs) > 4 else ""
        return (
            f"TruncatedSeries(nvars={self.nvars}, D={self.trunc_degree}, "
            f"{len(self.coeffs)} terms [{head}{more}])"
        )

    def same_through_degree(self, other: "TruncatedSeries", degree: int) -> bool:
        """Coefficientwise equality of all terms with total degree <= degree."""
        if self.nvars != other.nvars:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        for k in keys:
            if sum(k) <= degree and self.coeffs.get(k, 0) != other.coeffs.get(k, 0):
                return False
        return True

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries", op: str):
        if self.nvars != other.nvars:
            raise ValueError(
                f"{op}: nvars mismatch ({self.nvars} vs {other.nvars})"
            )
        if self.trunc_degree != other.trunc_degree:
            raise ValueError(
                f"{op}: truncation degree mismatch "
                f"({self.trunc_degree} vs {other.trunc_degree}); align with truncate()"
            )

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = TruncatedSeries.constant(self.nvars, self.trunc_degree, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other, "add")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return TruncatedSeries._canonical(self.nvars, self.trunc_degree, out)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._canonical(
            self.nvars, self.trunc_degree, {k: -v for k, v in self.coeffs.items()}
        )

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = TruncatedSeries.constant(self.nvars, self.trunc_degree, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            if other == 0:
                return TruncatedSeries.zero(self.nvars, self.trunc_degree)
            return TruncatedSeries._canonical(
                self.nvars,
                self.trunc_degree,
                {k: v * other for k, v in self.coeffs.items()},
            )
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other, "mul")
        return mul_trunc(self, other, self.trunc_degree)

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers take non-negative integer exponents")
        result = TruncatedSeries.one(self.nvars, self.trunc_degree)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term must be nonzero.

        Solved degree by degree, so in exact arithmetic a * a.invert() == 1
        through the truncation degree.
        """
        c0 = self.constant_term
        if c0 == 0:
            raise ValueError("invert: constant term is zero")
        inv0 = Fraction(1, 1) / c0 if isinstance(c0, (int, Fraction)) else 1.0 / c0
        n, D = self.nvars, self.trunc_degree
        zero_key = (0,) * n
        # a-terms of positive degree, grouped by degree
        a_by_deg: dict[int, list] = {}
        for d, k, v in self.sorted_terms():
            if d > 0:
                a_by_deg.setdefault(d, []).append((k, v))
        out_by_deg: dict[int, dict] = {0: {zero_key: inv0}}
        for d in range(1, D + 1):
            acc: dict[MultiIndex, object] = {}
            for e in range(1, d + 1):
                lower = out_by_deg.get(d - e)
                if not lower:
                    continue
                for ka, va in a_by_deg.get(e, ()):
                    for kb, vb in lower.items():
                        key = tuple(x + y for x, y in zip(ka, kb))
                        acc[key] = acc.get(key, 0) + va * vb
            level = {}
            for key, val in acc.items():
                if val != 0:
                    level[key] = -inv0 * val
            out_by_deg[d] = level
        merged = {}
        for level in out_by_deg.values():
            merged.update(level)
        return TruncatedSeries(n, D, merged)

    # -- calculus ----------------------------------------------------------

    def diff(self, xi: Sequence[int]) -> "TruncatedSeries":
        """Formal partial derivative D^xi; truncation drops to D - |xi|."""
        xi = tuple(xi)
        if len(xi) != self.nvars or any(e < 0 for e in xi):
            raise ValueError(f"bad derivative multi-index {xi}")
        order = sum(xi)
        new_D = max(0, self.trunc_degree - order)
        if order == 0:
            return self.truncate(new_D)
        out = {}
        for key, value in self.coeffs.items():
            factor = 1
            new_key = []
            ok = True
            for e, d in zip(key, xi):
                if e < d:
                    ok = False
                    break
                for j in range(e, e - d, -1):
                    factor *= j
                new_key.append(e - d)
            if ok:
                out[tuple(new_key)] = value * factor
        return TruncatedSeries(self.nvars, new_D, out)

    def integrate(self, i: int) -> "TruncatedSeries":
        """Formal antiderivative in variable i with zero constant of integration."""
        out = {}
        for key, value in self.coeffs.items():
            new_key = key[:i] + (key[i] + 1,) + key[i + 1 :]
            e = key[i] + 1
            if isinstance(value, (int, Fraction)):
                out[new_key] = value * Fraction(1, e)
            else:
                out[new_key] = value / e
        return TruncatedSeries(self.nvars, self.trunc_degree + 1, out)

    # -- structural operations ----------------------------------------------

    def truncate(self, new_degree: int) -> "TruncatedSeries":
        if new_degree > self.trunc_degree:
            raise ValueError(
                f"cannot raise truncation degree {self.trunc_degree} to {new_degree}"
            )
        if new_degree == self.trunc_degree:
            return self
        return TruncatedSeries(self.nvars, new_degree, self.coeffs)

    def remap_variables(self, new_nvars: int, var_map: Sequence[int]) -> "TruncatedSeries":
        """Relocate variables; sources mapping to one target add exponents.

        Mapping variable i of this series to var_map[i] of the target space
        implements block renames (x,z) -> (y,z slots of a bigger space) and
        formal substitutions like y = x (map the y block onto the x block).
        """
        var_map = tuple(var_map)
        if len(var_map) != self.nvars:
            raise ValueError("var_map length must equal nvars")
        if any(t < 0 or t >= new_nvars for t in var_map):
            raise ValueError("var_map target out of range")
        out = {}
        for key, value in self.coeffs.items():
            new_key = [0] * new_nvars
            for e, target in zip(key, var_map):
                new_key[target] += e
            new_key = tuple(new_key)
            out[new_key] = out.get(new_key, 0) + value
        return TruncatedSeries(new_nvars, self.trunc_degree, out)

    def _bare_variable(self) -> int | None:
        """Slot i when this series is exactly the variable x_i (one term, exact 1), else None."""
        if len(self.coeffs) != 1:
            return None
        ((key, value),) = self.coeffs.items()
        if sum(key) != 1 or value != 1 or not isinstance(value, (int, Fraction)):
            return None
        return key.index(1)

    def compose(
        self,
        args: Sequence["TruncatedSeries"],
        cache: dict | None = None,
    ) -> "TruncatedSeries":
        """Substitute args[i] for variable i.

        Arguments must share nvars and trunc_degree and have zero constant
        term (re-center the outer series first otherwise).  The result is
        truncated to min(self.trunc_degree, argument degree), which is the
        degree it is exact to.

        Bare-variable arguments only move exponents (see Composition in the
        module docstring).  ``cache`` maps the exponent ``gamma`` of the
        substituted arguments to their power product ``P_gamma`` at the
        argument degree, so it may be shared across calls with the same
        argument list, whatever the outer series and its degree.
        """
        if len(args) != self.nvars:
            raise ValueError(
                f"compose: expected {self.nvars} arguments, got {len(args)}"
            )
        tgt_n = args[0].nvars
        tgt_D = args[0].trunc_degree
        for a in args:
            if a.nvars != tgt_n or a.trunc_degree != tgt_D:
                raise ValueError("compose: arguments disagree on nvars or degree")
            if a.constant_term != 0:
                raise ValueError(
                    "compose: argument has nonzero constant term; re-center first"
                )
        out_D = min(self.trunc_degree, tgt_D)
        if cache is None:
            cache = {}
        moves = []  # (outer slot, target slot) of each bare-variable argument
        substituted = []  # outer slots of the other arguments
        for i, a in enumerate(args):
            target = a._bare_variable()
            if target is None:
                substituted.append(i)
            else:
                moves.append((i, target))

        groups: dict[MultiIndex, dict] = {}
        for deg, key, value in self.sorted_terms():
            if deg > out_D:
                continue  # argument valuation >= 1 makes these vanish below out_D
            moved = [0] * tgt_n
            for i, target in moves:
                moved[target] += key[i]
            moved = tuple(moved)
            group = groups.setdefault(tuple(key[i] for i in substituted), {})
            group[moved] = group.get(moved, 0) + value

        def power(gamma: MultiIndex) -> "TruncatedSeries":
            hit = cache.get(gamma)
            if hit is not None:
                return hit
            j = max(j for j, e in enumerate(gamma) if e > 0)
            lower = gamma[:j] + (gamma[j] - 1,) + gamma[j + 1 :]
            arg = args[substituted[j]]
            p = mul_trunc(power(lower), arg, tgt_D) if any(lower) else arg
            cache[gamma] = p
            return p

        acc: dict[MultiIndex, object] = {}
        for gamma, group in groups.items():
            part = TruncatedSeries._canonical(tgt_n, out_D, group)
            if any(gamma):
                part = mul_trunc(part, power(gamma), out_D)
            for k, v in part.coeffs.items():
                acc[k] = acc.get(k, 0) + v
        return TruncatedSeries._canonical(tgt_n, out_D, acc)

    # -- numerics ------------------------------------------------------------

    def eval(self, point: Sequence[complex]) -> complex:
        """Evaluate the truncated polynomial at a numeric point.

        Terms are summed in graded lexicographic order with per-variable
        power tables, so the floating point result is reproducible.
        """
        if len(point) != self.nvars:
            raise ValueError(f"expected point of length {self.nvars}")
        if not self.coeffs:
            return 0j
        max_exp = [0] * self.nvars
        for key in self.coeffs:
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
        for _, key, value in self.sorted_terms():
            term = complex(value)
            for i, e in enumerate(key):
                if e:
                    term *= pows[i][e]
            total += term
        return total

    def to_float(self) -> "TruncatedSeries":
        """Copy with coefficients converted to float (complex left alone)."""
        out = {}
        for k, v in self.coeffs.items():
            out[k] = complex(v) if isinstance(v, complex) else float(v)
        return TruncatedSeries(self.nvars, self.trunc_degree, out)

    # -- serialization -------------------------------------------------------

    def to_record(self) -> dict:
        """Structured record; rational terms carry num/den, floats carry re/im."""
        rational = all(isinstance(v, (int, Fraction)) for v in self.coeffs.values())
        terms = []
        for _, key, value in self.sorted_terms():
            if rational:
                f = Fraction(value)
                terms.append({"index": list(key), "num": f.numerator, "den": f.denominator})
            else:
                c = complex(value)
                terms.append({"index": list(key), "re": c.real, "im": c.imag})
        return {
            "nvars": self.nvars,
            "trunc_degree": self.trunc_degree,
            "mode": "rational" if rational else "float",
            "terms": terms,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TruncatedSeries":
        coeffs = {}
        rational = record.get("mode", "rational") == "rational"
        for term in record["terms"]:
            key = tuple(term["index"])
            if rational:
                coeffs[key] = Fraction(term["num"], term["den"])
            else:
                v = complex(term["re"], term["im"])
                coeffs[key] = v.real if v.imag == 0 else v
        return cls(record["nvars"], record["trunc_degree"], coeffs)

    def to_json(self) -> str:
        return json.dumps(self.to_record(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TruncatedSeries":
        return cls.from_record(json.loads(text))


def mul_trunc(a: TruncatedSeries, b: TruncatedSeries, out_degree: int) -> TruncatedSeries:
    """Cauchy product truncated at ``out_degree``.

    Out-degrees above min(a.trunc_degree, b.trunc_degree) are only exact when
    the caller knows one factor is an exact polynomial (for example the
    degree one factor in (x - y) . A); that responsibility is the caller's.
    """
    if a.nvars != b.nvars:
        raise ValueError("mul: nvars mismatch")
    if out_degree < 0:
        raise ValueError("mul: out_degree must be non-negative")
    a_terms = a.sorted_terms()
    b_terms = b.sorted_terms()
    if len(b_terms) < len(a_terms):
        a_terms, b_terms = b_terms, a_terms
    b_degs = [t[0] for t in b_terms]
    acc: dict[MultiIndex, object] = {}
    for dega, ka, va in a_terms:
        limit = out_degree - dega
        if limit < 0:
            continue
        hi = bisect_right(b_degs, limit)
        for j in range(hi):
            _, kb, vb = b_terms[j]
            key = tuple(x + y for x, y in zip(ka, kb))
            acc[key] = acc.get(key, 0) + va * vb
    return TruncatedSeries._canonical(a.nvars, out_degree, acc)


def det(rows: Sequence[Sequence]):
    """Determinant of a square matrix by cofactor expansion along the first row.

    Entries may be exact scalars or series; series products truncate as usual.
    """
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ValueError("det: matrix is not square")
    if size == 1:
        return rows[0][0]
    if size == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(size):
        minor = [[row[c] for c in range(size) if c != j] for row in rows[1:]]
        term = rows[0][j] * det(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc
