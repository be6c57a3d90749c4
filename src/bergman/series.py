"""Truncated multivariate formal power series arithmetic.

Every symbolic object in this package (potentials, phases, Jacobian factors,
kernel coefficients) is carried by one type: a finite sparse map from exponent
tuples to exact rational coefficients (``int`` / ``fractions.Fraction``),
truncated by total degree.  The constructor rejects any other coefficient
type.  Every operation, ``==``, ``[]`` and :meth:`TruncatedSeries.eval` (from a
cached float plan) read the packed form described under Storage.

Truncation discipline
---------------------
A series with ``trunc_degree == D`` stores no exponent of total degree above
``D`` and is read as "exact through degree D, unknown beyond".  Arithmetic
results are truncated to the degree they are guaranteed exact to:

* ``+``, ``-``, ``*`` keep ``D`` (operands must agree on ``nvars`` and ``D``;
  ``+``, ``-`` and scalar ``*`` are :func:`linear_combination`, the one sum),
* ``diff`` by a multi-index ``xi`` lowers it to ``max(0, D - |xi|)``; so does
  a term ``(c, s, xi)`` of :func:`linear_combination`, whose terms must agree
  on that output degree,
* ``compose`` takes the minimum over the operand degrees; arguments must have
  zero constant term, which is what makes truncated composition well defined,
* ``invert`` keeps ``D`` and needs a nonzero constant term.

:func:`mul_trunc` is the one escape hatch: it computes a product at a caller
chosen output degree, for the few places where one factor is an exact
polynomial and the plain rule would throw away valid coefficients.

Storage
-------
A series holds sorted packed keys and, in parallel, numerators over one
common denominator.  A key packs an exponent tuple into one ``int`` with
digits of ``shift`` bits, total degree first: ``p = sum(key)``, then
``p = (p << shift) | e`` for each exponent.  The base ``2**shift`` exceeds
every degree a result can hold, so no digit carries: adding keys multiplies
monomials, and int order is graded lexicographic order.  A fresh series
takes the smallest such base above its degree, a result the largest of its
operands'; an operand with a smaller base is repacked.

Numerators are ints over the least common multiple of the reduced term
denominators, so a product sums ``num_a * num_b`` in ints over
``den_a * den_b`` and reduces once per result, not once per term pair.
The form is canonical up to the base, so ``==`` compares numerators and
keys repacked to the larger base, and ``[]`` bisects on the packed key.
The pieces that :func:`_sum_of_products` multiplies share the form: the
triple ``(keys, nums, den)``, None when the piece vanishes;
:func:`mul_trunc`, :func:`fixed_point` and :func:`det` work on them.  One
rule holds for all of them: every piece is sorted by key over a positive
denominator, and every result is reduced, by the one :func:`_piece`.  An
input may keep its denominator unreduced, such as a piece cut below a
degree or a part of a solve.  The level solve is no exception: its pieces
are homogeneous, so each of its sums is cut at the level's own degree and
cuts nothing, and :func:`_joined` concatenates the levels, sorted and
reduced as they come, into the result.
No other module reads the packed form: callers pass and get series.
``eval`` builds a float plan on first use: per term, in graded lexicographic
order, ``complex(num / den)`` (correctly rounded, as ``complex(Fraction)``)
and the power table entries it multiplies.  ``coeffs``, the view by exponent
tuple, is also built on first use, for callers outside the pipeline.  Nothing
else is mutated after construction, so values are safe to share between threads.

Composition
-----------
``f.compose(args)`` never raises a bare target variable to a power: an
argument that is exactly ``x_j`` (one term, coefficient 1, degree 1) only
moves the exponent of its slot to slot ``j``, so a composition with bare
arguments alone is the one way to rename, move or merge variables.  Both
argument checks read keys alone: a constant term is a first key of 0, and a
bare argument's one key has degree digit 1 and its slot in ``bit_length``.
Bare
arguments of consecutive slots that go to consecutive slots form a run,
moved with one shift and one mask; the moved degree digit is the outer
degree less ``|gamma|``.  The terms
of ``f`` are grouped by their packed digits of the other, substituted,
arguments, ``gamma`` is unpacked once per group, and each group is
multiplied by the power product ``P_gamma`` of those arguments.  Every group
product goes into one accumulator over one denominator, the denominator of
``f`` times the lcm of the ``P_gamma`` denominators (the group carries the
scale), and the result is reduced once; the pair loop is the one
:func:`_sum_of_products` runs.  The optional ``cache`` holds the
``P_gamma``, keyed by ``gamma`` (one entry per substituted argument), so
calls that share an argument list share their powers; :func:`_substitution`
and :func:`_power_key` hold that keying for every table through a
composition's arguments, the solve's included.  :func:`power_step`
gives the chain every power table follows, ``P_gamma = P_lower * arg_j``.
Its first step, ``P_(2 e_j) = arg_j * arg_j``, is a square: ``P_(e_j)`` is
``arg_j`` itself, and :func:`mul_trunc` of a series with itself passes one
piece twice to :func:`_sum_of_products`, which runs :func:`_add_square`, the
pair loop that visits each unordered pair of terms once.  A group reads
``P_gamma`` only through the output degree less the lowest degree of its
moved exponents, and the chain reads ``P_lower`` one degree less, so each
power is built to the highest degree a call reads, not to the argument
degree.  An entry too low for a later call is rebuilt higher and replaced;
an entry at least as high is reused as it is, and only the missing or too
low entries close a chain, since a cached entry's lowers are cached too.
Only bare arguments that share a target slot can cancel moved terms, so
only then does a group lose its zeros before it reads a power.
:class:`bergman.potential.GeometryPack`, the only composer through the phase,
keeps two such tables: one for ``psi_x(x, z)``, read by ``to_xz`` in one
composition that runs both the x and the y block onto x, and one for the
inverted phase ``z(x, y, theta)`` (``geom.z_powers``), which the solve seeds
and ``Delta0`` and every later composition through ``z`` reuse.
The phase inversion composes nothing: :func:`fixed_point` takes theta and
the inverse of its constant z-linear part H, forms each row of
``z - H^-1 theta`` as one :func:`linear_combination` (the z-linear constant
part cancels there and drops), splits it by z digits and degree in one pass
over its keys, takes ``H^-1 t`` as a part of its own, and makes each new
piece of degree d with the :func:`_sum_of_products` of its live pairs at d
(see Storage); each level reads a list of the power steps it extends, made
once per solve.  Each power it builds is the entry composing theta through z
would cache under its key, cut at the degree the solve reads it, so it
returns them with z to seed that cache.  They are checked, with z,
by :func:`holds_on_a_line`, which builds no series and shares no code with
the solve: each series is evaluated at a random point mod a prime, and the
powers of z, cut at their degrees, come from univariate products of z on the
line through that point.  No table
outlives a call: apart from a caller's ``cache`` and the views a series builds
of itself, tables such as the split steps of :func:`segment_average` (shared by
the series of one call) and the falling factorials of
:func:`linear_combination` are rebuilt on every call, so a repeated call costs
what the first one did.

Trusted construction
--------------------
The public constructor validates every exponent tuple (length, sign, degree)
and sums duplicates, because specs, records and callers may hand it anything.
``zero``, ``one``, ``constant``, ``variable`` and ``variables`` check only
their sizes, the slot and the value's type, and store their one piece with
``TruncatedSeries._from_piece``; ``variables`` builds the slots it is given.
Operations only drop zeros and reduce, once per result (:func:`_piece`),
since each makes its keys from keys of valid operands by digit arithmetic
that cannot carry.  Products, :func:`fixed_point` and :func:`det` build
pieces: each sum of key pairs of degree at most the output degree is one
:func:`_sum_of_products`, which sorts its dict and reduces, and
``TruncatedSeries._from_piece`` stores that piece as it is; :func:`_joined`
concatenates a solve's level pieces into z and each of the powers it hands
on.  ``invert`` is its definition, a Horner sum of :func:`mul_trunc`
products and sums.  ``compose``'s group sum and moves that can merge keys
(a sum of series, bare ``compose`` arguments, ``segment_average``, which
moves part of each y digit to its x digit) fill a dict that
``TruncatedSeries._canonical`` sorts and reduces.
The rest build their lists in key order and reduce them: ``truncate`` slices
them, a scalar multiple keeps the keys, and a derivative takes one
constant, no digit larger than the key's, off each key of a sorted run, and
``x < y`` gives ``x - c < y - c``.  An empty factor gives :func:`mul_trunc`
the zero series at once, after the ``nvars`` check, and each factor's piece
stops at the output degree (a slice).  ``segment_average`` builds its steps
from unit moves of one digit, once per call for all the series it averages.

One routine differentiates, :func:`_derived`, and no derivative is ever a
series of its own: its three readers take keys and numerators from it
inside their own sums.  They are :func:`linear_combination`, whose terms may
carry a multi-index (``diff`` is its one-term case), :func:`det`, whose
entries may be pairs ``(s, xi)`` (each becomes a derivative piece once, at
the one digit width of the expansion), and :func:`y_gradient_average`, which
hands each ``-D_(y_i)`` to the one split/weight loop of ``segment_average``.
A derivative scan starts at the first key of degree ``|xi|``, since no lower
key survives.  A term whose factor is zero (an exponent below the derivative
order) makes no entry, and a surviving key loses the order from its digits
with no borrow.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, islice, repeat
from math import factorial, gcd, lcm, perm
from typing import Iterable, Iterator, Sequence

MultiIndex = tuple  # exponent tuples of non-negative ints

_set = object.__setattr__  # writes a slot past the immutability guard of TruncatedSeries

_SCALARS = (int, Fraction)


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


def _shift_for(degree: int) -> int:
    """Digit width of keys: bits of the smallest power of two above ``degree``."""
    return max(degree, 1).bit_length()


def _pack(key: MultiIndex, shift: int) -> int:
    p = sum(key)
    for e in key:
        p = (p << shift) | e
    return p


def _unpack(p: int, nvars: int, shift: int) -> MultiIndex:
    mask = (1 << shift) - 1
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = p & mask
        p >>= shift
    return tuple(out)


def _check_shape(nvars: int, trunc_degree: int) -> None:
    if nvars < 1:
        raise ValueError("nvars must be positive")
    if trunc_degree < 0:
        raise ValueError("trunc_degree must be non-negative")


class TruncatedSeries:
    """A formal power series in ``nvars`` variables, truncated by total degree."""

    __slots__ = ("nvars", "trunc_degree", "_shift", "_keys", "_nums", "_den", "_coeffs", "_plan")

    def __init__(self, nvars: int, trunc_degree: int, coeffs: dict | None = None):
        _check_shape(nvars, trunc_degree)
        clean = {}
        if coeffs:
            for key, value in coeffs.items():
                if not isinstance(value, _SCALARS):
                    raise TypeError(
                        f"coefficient {value!r} is not an int or Fraction; series are exact"
                    )
                key = tuple(key)
                if len(key) != nvars:
                    raise ValueError(f"exponent {key} has length {len(key)}, expected {nvars}")
                if any(e < 0 for e in key):
                    raise ValueError(f"negative exponent in {key}")
                if sum(key) > trunc_degree or value == 0:
                    continue
                clean[key] = clean.get(key, 0) + value
        shift = _shift_for(trunc_degree)
        den = lcm(*[v.denominator for v in clean.values()])
        packed = {_pack(k, shift): v.numerator * (den // v.denominator) for k, v in clean.items()}
        keys = sorted(packed)
        self._store(nvars, trunc_degree, shift, _piece(keys, [packed[k] for k in keys], den))

    def _store(self, nvars: int, trunc_degree: int, shift: int, piece):
        """Set the fields from a reduced piece (see :func:`_piece`), None for the zero series."""
        keys, nums, den = piece or ([], [], 1)
        _set(self, "nvars", nvars)
        _set(self, "trunc_degree", trunc_degree)
        _set(self, "_shift", shift)
        _set(self, "_keys", keys)
        _set(self, "_nums", nums)
        _set(self, "_den", den)
        _set(self, "_coeffs", None)
        _set(self, "_plan", None)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("TruncatedSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(
        cls, nvars: int, trunc_degree: int, shift: int, acc: dict, den: int
    ) -> "TruncatedSeries":
        """Trusted constructor from packed key -> numerator over ``den``, one
        entry per valid key of degree at most ``trunc_degree``; nothing is checked."""
        keys = sorted(acc)
        return cls._from_piece(nvars, trunc_degree, shift, _piece(keys, [acc[k] for k in keys], den))

    @classmethod
    def _from_piece(cls, nvars: int, trunc_degree: int, shift: int, piece):
        """Trusted constructor from a reduced piece (see :func:`_piece`), None for zero."""
        return object.__new__(cls)._store(nvars, trunc_degree, shift, piece)

    @classmethod
    def zero(cls, nvars: int, trunc_degree: int) -> "TruncatedSeries":
        return cls.constant(nvars, trunc_degree, 0)

    @classmethod
    def constant(cls, nvars: int, trunc_degree: int, value) -> "TruncatedSeries":
        """``value`` as a series, stored as its one piece; nvars, degree and type are checked
        as the public constructor checks them."""
        _check_shape(nvars, trunc_degree)
        if not isinstance(value, _SCALARS):
            raise TypeError(f"coefficient {value!r} is not an int or Fraction; series are exact")
        piece = ([0], [value.numerator], value.denominator) if value else None
        return cls._from_piece(nvars, trunc_degree, _shift_for(trunc_degree), piece)

    @classmethod
    def one(cls, nvars: int, trunc_degree: int) -> "TruncatedSeries":
        return cls.constant(nvars, trunc_degree, 1)

    @classmethod
    def variable(cls, nvars: int, trunc_degree: int, i: int) -> "TruncatedSeries":
        """x_i as a series, its one key packed directly (none at degree 0); a slot outside
        0..nvars-1 is a ValueError."""
        _check_shape(nvars, trunc_degree)
        if not 0 <= i < nvars:
            raise ValueError(f"variable slot {i} is outside 0..{nvars - 1}")
        shift = _shift_for(trunc_degree)
        piece = ([(1 << shift * nvars) | (1 << shift * (nvars - 1 - i))], [1], 1)
        return cls._from_piece(nvars, trunc_degree, shift, piece if trunc_degree else None)

    @classmethod
    def variables(cls, nvars: int, trunc_degree: int, slots: Iterable[int] | None = None) -> list:
        """x_i for each slot i of ``slots``, every slot when None."""
        return [cls.variable(nvars, trunc_degree, i)
                for i in (range(nvars) if slots is None else slots)]

    # -- inspection --------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """Exponent tuple -> coefficient, graded lexicographic; built on first use, read only."""
        if self._coeffs is None:
            den = self._den
            values = self._nums if den == 1 else [Fraction(v, den) for v in self._nums]
            n, shift = self.nvars, self._shift
            view = {_unpack(k, n, shift): v for k, v in zip(self._keys, values)}
            _set(self, "_coeffs", view)
        return self._coeffs

    @property
    def constant_term(self):
        return self[(0,) * self.nvars]

    def __getitem__(self, index) -> object:
        index = tuple(index)
        if len(index) != self.nvars:
            return 0
        # a packed index keeps its exponent sum (or more) in the degree digit, and
        # goes negative on a negative exponent, so no bad index meets a stored key
        p = _pack(index, self._shift)
        i = bisect_left(self._keys, p)
        if i == len(self._keys) or self._keys[i] != p:
            return 0
        return self._nums[i] if self._den == 1 else Fraction(self._nums[i], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        shift = max(self._shift, other._shift)
        return (self.nvars, self.trunc_degree, self._den, self._nums, self._keys_at(shift)) == (
            other.nvars, other.trunc_degree, other._den, other._nums, other._keys_at(shift)
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

    def _keys_at(self, shift: int) -> list:
        """The packed keys repacked at digit width ``shift`` (at least this series' own)."""
        n, own, keys = self.nvars, self._shift, self._keys
        return keys if own == shift else [_pack(_unpack(k, n, own), shift) for k in keys]

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
        return linear_combination([(1, self), (1, other)])

    __radd__ = __add__

    def __neg__(self):
        return linear_combination([(-1, self)])

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = TruncatedSeries.constant(self.nvars, self.trunc_degree, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return linear_combination([(1, self), (-1, other)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return linear_combination([(other, self)])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other, "mul")
        return mul_trunc(self, other, self.trunc_degree)

    __rmul__ = __mul__

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term c must be nonzero.

        By its definition 1/f = (1/c) sum_(k <= D) g^k with g = 1 - f/c, which has no
        constant term: Horner's rule, D products by g, each one :func:`mul_trunc`.  A
        constant f (g = 0) is f/c^2, so the result keeps the digit width of f.
        """
        c = self.constant_term
        if c == 0:
            raise ValueError("invert: constant term is zero")
        n, D = self.nvars, self.trunc_degree
        inv, one = Fraction(1) / c, TruncatedSeries.one(n, D)
        g = linear_combination([(1, one), (-inv, self)])
        if not g._keys:  # mul_trunc's zero series would take the narrowest digit width
            return linear_combination([(inv * inv, self)])
        out = TruncatedSeries.constant(n, D, inv)
        for _ in range(D):
            out = linear_combination([(inv, one), (1, mul_trunc(g, out, D))])
        return out

    # -- calculus ----------------------------------------------------------

    def diff(self, xi: Sequence[int]) -> "TruncatedSeries":
        """Formal partial derivative D^xi; truncation drops to max(0, D - |xi|).

        The one-term :func:`linear_combination` ``[(1, self, xi)]``.
        """
        return linear_combination([(1, self, xi)])

    # -- structural operations ----------------------------------------------

    def truncate(self, new_degree: int) -> "TruncatedSeries":
        if new_degree < 0:
            raise ValueError("truncate: new_degree must be non-negative")
        if new_degree > self.trunc_degree:
            raise ValueError(
                f"cannot raise truncation degree {self.trunc_degree} to {new_degree}"
            )
        if new_degree == self.trunc_degree:
            return self
        cut = bisect_left(self._keys, (new_degree + 1) << (self._shift * self.nvars))
        return TruncatedSeries._from_piece(self.nvars, new_degree, self._shift,
                                           _piece(self._keys[:cut], self._nums[:cut], self._den))

    def _bare_variable(self) -> int | None:
        """Slot i when this series is exactly x_i (one term, coefficient 1), else None:
        the one key has degree digit 1, and ``bit_length`` finds its slot."""
        if len(self._keys) != 1 or self._nums[0] != self._den:
            return None
        width = self._shift * self.nvars
        key = self._keys[0]
        if key >> width != 1:
            return None
        return self.nvars - 1 - ((key - (1 << width)).bit_length() - 1) // self._shift

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
        substituted arguments to their power product ``P_gamma``, truncated
        at the highest degree a call has read (its ``trunc_degree``), so it
        may be shared across calls with the same argument list, whatever the
        outer series and its degree.
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
            if a._keys and a._keys[0] == 0:  # the constant key packs to 0, the least
                raise ValueError(
                    "compose: argument has nonzero constant term; re-center first"
                )
        out_D = min(self.trunc_degree, tgt_D)
        if cache is None:
            cache = {}
        shift = max(_shift_for(tgt_D), *(a._shift for a in args))
        n, own_shift = self.nvars, self._shift
        substituted, bare = _substitution(args)
        targets = {target for _, target in bare}
        # runs of bare arguments, (last outer slot, last target slot, length); a run
        # of one digit width moves with one shift and one mask
        runs = []
        for i, target in bare:
            if runs and own_shift == shift and runs[-1][:2] == (i - 1, target - 1):
                runs[-1] = (i, target, runs[-1][2] + 1)
            else:
                runs.append((i, target, 1))
        moves = [(own_shift * (n - 1 - i), (1 << own_shift * size) - 1, shift * (tgt_n - 1 - t))
                 for i, t, size in runs]
        offsets = [own_shift * (n - 1 - i) for i in substituted]
        own_mask = (1 << own_shift) - 1
        sub_mask = sum(own_mask << offset for offset in offsets)

        # argument valuation >= 1 makes outer terms above out_D vanish below it
        cut = bisect_left(self._keys, (out_D + 1) << (own_shift * n))
        own_width, tgt_width = own_shift * n, shift * tgt_n
        groups: dict = {}  # substituted digits -> (gamma, |gamma| in the degree digit, moved terms)
        for key, value in zip(self._keys[:cut], self._nums[:cut]):
            sub = key & sub_mask
            group = groups.get(sub)
            if group is None:
                gamma = tuple([sub >> offset & own_mask for offset in offsets])
                group = groups[sub] = (gamma, sum(gamma) << tgt_width, {})
            moved = (key >> own_width << tgt_width) - group[1]
            for down, mask, up in moves:
                moved += (key >> down & mask) << up
            terms = group[2]
            terms[moved] = terms.get(moved, 0) + value
        if len(targets) < n - len(substituted):
            # bare arguments onto one target slot can cancel terms; a group left empty
            # reads no power
            groups = {gamma: live for gamma, _, terms in groups.values()
                      if (live := {k: v for k, v in terms.items() if v})}
        else:
            groups = {gamma: terms for gamma, _, terms in groups.values()}

        # group gamma reads P_gamma through out_D less its lowest moved degree; only the
        # entries missing or too low close a chain (a cached entry's lowers are cached
        # at least one degree below it)
        need = {}
        for gamma, group in groups.items():
            if any(gamma):
                top = out_D - (min(group) >> tgt_width)
                hit = cache.get(gamma)
                if hit is None or hit.trunc_degree < top:
                    need[gamma] = top
        for gamma in sorted(close_power_chain(need), key=sum):
            hit = cache.get(gamma)
            if hit is None or hit.trunc_degree < need[gamma]:
                j, lower = power_step(gamma)
                arg = args[substituted[j]]
                cache[gamma] = mul_trunc(cache[lower], arg, need[gamma]) if any(lower) else arg

        # one accumulator over self._den * scale, scale the lcm of the power denominators
        powers = {gamma: cache[gamma] for gamma in groups if any(gamma)}
        scale = lcm(*[p._den for p in powers.values()])
        acc: dict = {}
        get = acc.get
        for gamma, group in groups.items():
            p = powers.get(gamma)
            if p is None:
                for k, v in group.items():
                    acc[k] = get(k, 0) + v * scale
            else:  # the group, mostly the smaller side, carries the scale
                _add_products(acc, group.items(), p._keys_at(shift), p._nums, tgt_width, out_D,
                              scale // p._den)
        return TruncatedSeries._canonical(tgt_n, out_D, shift, acc, self._den * scale)

    # -- numerics ------------------------------------------------------------

    def eval(self, point: Sequence[complex]) -> complex:
        """Evaluate the truncated polynomial at a numeric point.

        Terms are summed in graded lexicographic order with per-variable
        power tables, so the floating point result is reproducible.
        """
        if len(point) != self.nvars:
            raise ValueError(f"expected point of length {self.nvars}")
        if not self._keys:
            return 0j
        if self._plan is None:
            exps = [_unpack(k, self.nvars, self._shift) for k in self._keys]
            max_exp = [max(column) for column in zip(*exps)]
            starts = [sum(max_exp[:i]) + i for i in range(self.nvars)]
            terms = [
                (complex(num / self._den), tuple(starts[i] + e for i, e in enumerate(key) if e))
                for key, num in zip(exps, self._nums)
            ]
            _set(self, "_plan", (max_exp, terms))
        max_exp, terms = self._plan
        pows = []  # the per-variable power tables, concatenated
        for z, m in zip(point, max_exp):
            row = [1 + 0j]
            z = complex(z)
            for _ in range(m):
                row.append(row[-1] * z)
            pows += row
        total = 0j
        for term, factors in terms:
            for j in factors:
                term *= pows[j]
            total += term
        return total

    # -- serialization -------------------------------------------------------

    def to_record(self) -> dict:
        """Structured record; each term carries its index and reduced num/den.
        Built column by column: one list per digit over all keys, one gcd per term."""
        shift, den, keys, nums = self._shift, self._den, self._keys, self._nums
        mask = (1 << shift) - 1
        columns = [[key >> offset & mask for key in keys]
                   for offset in range(shift * (self.nvars - 1), -1, -shift)]
        indices = map(list, zip(*columns))
        terms = [{"index": index, "num": num // g, "den": den // g}
                 for index, num, g in zip(indices, nums, map(gcd, nums, repeat(den)))]
        return {
            "nvars": self.nvars,
            "trunc_degree": self.trunc_degree,
            "mode": "rational",
            "terms": terms,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TruncatedSeries":
        """The series of ``record``; a ValueError unless its sizes, exponents, ``num``
        and ``den`` are ints (JSON ``true`` and ``2.0`` are not) and no ``den`` is 0."""
        mode = record.get("mode", "rational")
        if mode != "rational":
            raise ValueError(f"series record mode {mode!r} is not 'rational'; series are exact")
        nvars, degree = record["nvars"], record["trunc_degree"]
        if type(nvars) is not int or type(degree) is not int:
            raise ValueError(
                f"nvars and trunc_degree must be integers, got {nvars!r} and {degree!r}"
            )
        coeffs = {}
        for term in record["terms"]:
            index, num, den = tuple(term["index"]), term["num"], term["den"]
            if any(type(v) is not int for v in index + (num, den)) or den == 0:
                raise ValueError(
                    f"term {term!r} needs integer exponents, num and den, with den != 0"
                )
            coeffs[index] = Fraction(num, den)
        return cls(nvars, degree, coeffs)


def linear_combination(terms: Sequence[tuple]) -> TruncatedSeries:
    """The sum of ``c * D^xi s`` over the terms ``(c, s)`` or ``(c, s, xi)`` of ``terms``.

    Each ``c`` is an exact scalar and each ``xi``, when given, a derivative
    multi-index of ``s`` (no ``xi`` is the zero one); a bad one is a
    ValueError, as in :meth:`TruncatedSeries.diff`.  ``D^xi s`` has degree
    ``max(0, s.trunc_degree - |xi|)``, and every term must have the ``nvars``
    and that output degree of the first, so amplitudes of different degrees
    add when their derivatives meet.  No derivative series is built: each
    term's series is read once, in key order, its keys losing ``xi`` and its
    numerators gaining the falling factorials of their digits (see
    :func:`_derived`), and every term goes into one accumulator over the lcm
    of the ``c.denominator * s._den``, keys at the widest digit width, reduced
    once.  A single term keeps its keys in order and needs no accumulator.
    """
    n, out_D, parts = _checked_terms(terms, "add")
    tables: dict = {}
    if len(parts) == 1:  # keys that lose one constant, or none, stay in order
        ((c, s, xi),) = parts
        keys, nums = _derived(s, xi, s._shift, c.numerator, tables)
        return TruncatedSeries._from_piece(n, out_D, s._shift,
                                           _piece(keys, nums, c.denominator * s._den))
    shift = max(s._shift for _, s, _ in parts)
    den = lcm(*[c.denominator * s._den for c, s, _ in parts])
    acc: dict = {}
    get = acc.get
    for c, s, xi in parts:
        keys, nums = _derived(s, xi, shift, c.numerator * (den // (c.denominator * s._den)), tables)
        if acc:
            for k, v in zip(keys, nums):
                acc[k] = get(k, 0) + v
        else:
            acc.update(zip(keys, nums))
    return TruncatedSeries._canonical(n, out_D, shift, acc, den)


def _checked_terms(terms: Sequence[tuple], op: str) -> tuple:
    """The ``nvars`` and output degree ``max(0, s.trunc_degree - |xi|)`` shared by the
    terms ``(c, s)`` or ``(c, s, xi)`` that stand for ``c * D^xi s``, and the terms as
    ``(c, s, xi)``, each ``xi`` a tuple or None when zero; a bad ``xi``, or a mismatch
    prefixed ``op``, is a ValueError.
    """
    n, out_D, parts = terms[0][1].nvars, None, []
    for term in terms:
        c, s, xi = term if len(term) == 3 else (*term, None)
        if s.nvars != n:
            raise ValueError(f"{op}: nvars mismatch ({n} vs {s.nvars})")
        degree = s.trunc_degree
        if xi is not None:
            xi = tuple(xi)
            if len(xi) != n or min(xi) < 0:
                raise ValueError(f"bad derivative multi-index {xi}")
            degree = max(0, degree - sum(xi))
            xi = xi if any(xi) else None
        if out_D is None:
            out_D = degree
        elif degree != out_D:
            raise ValueError(f"{op}: truncation degree mismatch ({out_D} vs {degree}); "
                             "align with truncate()")
        parts.append((c, s, xi))
    return n, out_D, parts


def _derived(s: TruncatedSeries, xi, shift: int, scale: int, tables: dict) -> tuple:
    """The keys at digit width ``shift``, in order, and the numerators over ``s._den``
    of ``scale * D^xi s`` (``xi`` None for ``scale * s``), zeros dropped.

    A digit ``e`` in slot ``i`` of ``xi`` gives the falling factorial
    ``e!/(e - xi_i)!``, 0 below ``xi_i``, from the table of order ``xi_i`` that
    ``tables`` keeps for the call; the scale rides on a copy of the first
    slot's table, the scan starts at the first key of degree ``|xi|`` (a bisect
    on the degree digit), and a term stops at its first zero factor.  A term with a
    nonzero factor has every digit at least ``xi``, so its key loses ``xi``
    (and ``|xi|`` from its degree digit) with no borrow.
    """
    keys, nums = s._keys_at(shift), s._nums
    if xi is None:
        return keys, nums if scale == 1 else [v * scale for v in nums]
    n, mask = s.nvars, (1 << shift) - 1
    for d in xi:
        if d and d not in tables:
            tables[d] = [perm(e, d) for e in range(mask + 1)]
    (first, falling), *rest = [(shift * (n - 1 - i), tables[d]) for i, d in enumerate(xi) if d]
    if scale != 1:
        falling = [f * scale for f in falling]
    step = _pack(xi, shift)
    # no key below degree |xi| survives D^xi: the scan starts at the first that reaches it
    start = bisect_left(keys, sum(xi) << shift * n)
    out_keys, out_nums = [], []
    for key, value in zip(islice(keys, start, None), islice(nums, start, None)):
        f = falling[key >> first & mask]
        if f:
            for offset, table in rest:
                f *= table[key >> offset & mask]
                if not f:
                    break
            else:
                out_keys.append(key - step)
                out_nums.append(value * f)
    return out_keys, out_nums


def mul_trunc(a: TruncatedSeries, b: TruncatedSeries, out_degree: int) -> TruncatedSeries:
    """Cauchy product truncated at ``out_degree``: one :func:`_sum_of_products` of the
    factors as pieces, at the widest digit width of the factors and ``out_degree``.

    Out-degrees above min(a.trunc_degree, b.trunc_degree) are only exact when
    the caller knows one factor is an exact polynomial (for example the
    degree one factor in (x - y) . A); that responsibility is the caller's.
    An empty factor gives the zero series.  A factor times itself (the same
    object, as in ``x * x``) passes one piece twice, so the pair is a square.
    Each factor's piece stops at ``out_degree``, since no term above it pairs,
    so the side with fewer terms that can pair carries the scale.
    """
    if a.nvars != b.nvars:
        raise ValueError("mul: nvars mismatch")
    if out_degree < 0:
        raise ValueError("mul: out_degree must be non-negative")
    if not (a._keys and b._keys):
        return TruncatedSeries.zero(a.nvars, out_degree)
    shift = max(_shift_for(out_degree), a._shift, b._shift)
    bound = (out_degree + 1) << shift * a.nvars
    pa = _piece_below(a, shift, bound)
    pb = pa if a is b else _piece_below(b, shift, bound)
    product = _sum_of_products([(pa, pb)], shift * a.nvars, out_degree)
    return TruncatedSeries._from_piece(a.nvars, out_degree, shift, product)


def _piece_below(s: TruncatedSeries, shift: int, bound: int):
    """The piece of the terms of ``s`` whose keys at digit width ``shift`` lie below
    ``bound``, None when none does; a cut piece keeps the denominator unreduced."""
    keys = s._keys_at(shift)
    stop = bisect_left(keys, bound)
    if stop == len(keys):
        return keys, s._nums, s._den
    return (keys[:stop], s._nums[:stop], s._den) if stop else None


def _piece(keys: list, nums: list, den: int):
    """The piece ``(keys, nums, den)`` of sorted packed keys and their numerators over
    ``den``: zeros dropped, reduced by the gcd to a positive ``den``; None when no term is
    left.  A series stores its terms in this form (see Storage)."""
    if 0 in nums:
        keys = [k for k, v in zip(keys, nums) if v]
        nums = [v for v in nums if v]
    if not nums:
        return None
    g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
    if g != 1:
        nums = [v // g for v in nums]
        den //= g
    return keys, nums, den


def _sum_of_products(pairs: Sequence[tuple], width: int, out_degree: int):
    """The sum of ``a * b`` over pairs of pieces, truncated at ``out_degree``, as a piece.

    A piece is ``(keys, nums, den)`` as a series stores it (:func:`_piece`):
    sorted packed keys (``width`` bits below the degree digit), their integer
    numerators and one positive denominator; a vanishing piece is None, and
    its pairs are dropped first.  The other products go into one accumulator
    over the lcm of the pairs' denominators; the side with fewer terms carries
    the scale.  A pair of one piece with itself (the same object) is a square,
    run by :func:`_add_square`.  The result is sorted and reduced once.
    """
    live = [(a, b) for a, b in pairs if a and b]
    den = lcm(*[a[2] * b[2] for a, b in live])
    acc: dict = {}
    for a, b in live:
        if a is b:
            _add_square(acc, a[0], a[1], width, out_degree, den // (a[2] * a[2]))
        elif len(b[0]) < len(a[0]):
            _add_products(acc, zip(b[0], b[1]), a[0], a[1], width, out_degree, den // (a[2] * b[2]))
        else:
            _add_products(acc, zip(a[0], a[1]), b[0], b[1], width, out_degree, den // (a[2] * b[2]))
    keys = sorted(acc)
    return _piece(keys, [acc[k] for k in keys], den)


def _substitution(args: Sequence[TruncatedSeries]) -> tuple:
    """How a composition reads its arguments: the slots it substitutes, those that are
    not bare variables, and the (slot, target slot) of each bare one, which only moves
    exponents.  A table of powers through ``args`` keys ``prod args_i^(gamma_i)`` by
    :func:`_power_key`, and the entry of a unit key is that argument itself."""
    substituted, bare = [], []
    for i, a in enumerate(args):
        target = a._bare_variable()
        if target is None:
            substituted.append(i)
        else:
            bare.append((i, target))
    return substituted, bare


def _power_key(gamma: MultiIndex, substituted: Sequence[int]) -> tuple | None:
    """The table key of the exponent ``gamma`` over all arguments: its exponents at the
    ``substituted`` slots of :func:`_substitution`, or None when it raises a bare
    argument, which no table holds."""
    key = tuple([gamma[i] for i in substituted])
    return key if sum(key) == sum(gamma) else None


def _power_exponent(key: tuple, substituted: Sequence[int], nargs: int) -> MultiIndex:
    """The exponent over all ``nargs`` arguments of a table key, the inverse of
    :func:`_power_key`."""
    gamma = [0] * nargs
    for i, e in zip(substituted, key):
        gamma[i] = e
    return tuple(gamma)


def power_step(gamma: MultiIndex) -> tuple:
    """The chain of every power table: ``P_gamma = P_lower * arg_j`` for
    ``gamma != 0``, with ``j`` the last nonzero slot and ``lower = gamma - e_j``."""
    j = len(gamma) - 1
    while not gamma[j]:
        j -= 1
    return j, gamma[:j] + (gamma[j] - 1,) + gamma[j + 1 :]


def close_power_chain(top: dict) -> dict:
    """Close ``top`` (gamma -> highest degree of ``P_gamma`` read) in place under
    :func:`power_step`, whose product ``P_lower * arg_j`` reads ``P_lower`` one degree less.
    The exponents are bucketed by size once, largest first; a new lower joins its bucket."""
    by_size: dict = {}
    for gamma in top:
        by_size.setdefault(sum(gamma), []).append(gamma)
    for size in range(max(by_size, default=0), 1, -1):
        for gamma in by_size.get(size, ()):
            lower = power_step(gamma)[1]
            if lower not in top:
                by_size.setdefault(size - 1, []).append(lower)
            top[lower] = max(top.get(lower, 0), top[gamma] - 1)
    return top


def fixed_point(hinv: Sequence[Sequence], theta: Sequence[TruncatedSeries]) -> tuple:
    """The series z with ``theta(v, z) = t``, one homogeneous degree at a time, and
    the table of its powers.

    The n series of ``theta`` share nvars and degree D; their last n slots are
    z and v the others, and each z_u is a series in the same slots, t in place
    of z.  ``hinv`` is the exact inverse of the constant z-linear part H of
    theta.  Then z = H^-1 t + S(v, z) with S = z - H^-1 theta, and with
    ``S_u = sum_gamma s_(u,gamma)(v) z^gamma`` and ``[f]_d`` the degree-d part
    of f, sweep d = 1, ..., D adds one piece to z and to each power
    ``P_gamma = z^gamma`` that S or a power chain reads:

    * ``[P_gamma]_d = sum_k [P_(gamma-e_j)]_k [z_j]_(d-k)`` for |gamma| >= 2,
      along the chain of :func:`power_step`; for ``gamma = 2 e_j`` the sum
      takes each pair {k, d - k} once, ``2 [z_j]_k [z_j]_(d-k)`` for k < d - k,
      and squares the piece ``[z_j]_(d/2)`` with :func:`_add_square`;
    * ``[z_u]_d = sum_gamma sum_e [s_(u,gamma)]_e [P_gamma]_(d-e)``.

    The parts ``[s_(u,gamma)]_e`` come from :func:`_solve_parts`: row u of
    ``z - H^-1 theta`` is one :func:`linear_combination`, where the z-linear
    constant part cancels and drops, split by z digits and degree in v, and
    ``(H^-1 t)_u`` is a part of its own at gamma = 0, e = 1, so two parts may
    share (gamma, e); each is a sorted piece over a positive denominator.  No sweep reads
    ``[z]_d`` unless theta has a constant term or ``hinv`` does not invert H,
    which is a ValueError.  A piece is the ``(keys, nums, den)`` of
    :func:`_piece` at the widest digit width of theta and D, or None; a new
    one is one :func:`_sum_of_products` of the live pairs, with no call when
    none is live.  Each ``P_gamma`` stops at the highest degree a product
    reads, so the work is about one power table at full degree.  Each level
    looks up only the steps that extend a power there, listed once per solve.

    Every ``[P_gamma]_d`` and ``[z_u]_d`` the sweep makes is a sorted, reduced
    homogeneous piece of degree d: each product pairs degrees k and d - k, so
    the sum at d cuts nothing (see Storage).  The levels of one z_u ascend in
    degree, so :func:`_joined` concatenates them with no pair loop, no sort and
    no second reduction.

    Returns ``(z, powers)``: ``powers`` holds, from the solve's own pieces, each
    ``P_gamma`` joined as z is through the degree the solve reads it and keyed
    as :func:`_power_key` keys it.  Composing theta through the arguments
    ``(v, z)`` caches every one of those keys, and each entry is the cached one
    cut at the entry's degree.  The two tables are equal unless some z_j is a
    bare variable: a composition renames a bare z_j and raises the other z
    alone, so for a term ``z_a z_b^2`` with z_a bare it caches ``z_b^2``, which
    the solve's chain ``z_a z_b^2 <- z_a z_b <- z_a`` never builds, and it
    reads ``z_b^2`` through D less the degree of the moved z_a, above the
    degree the solve may have built it to for another term.  A Hermitian phase
    has no such term, and a composition seeded with the table builds what it
    lacks and rebuilds an entry too low for it.
    """
    N, D, n = theta[0].nvars, theta[0].trunc_degree, len(theta)
    for s in theta:
        theta[0]._check_compatible(s, "fixed_point")
    shift = max(_shift_for(D), *(s._shift for s in theta))
    width = shift * N
    parts = _solve_parts(hinv, theta, shift)
    units = [unit(n, j) for j in range(n)]
    zero = (0,) * n
    top = dict.fromkeys(units, D)  # gamma -> the highest degree of P_gamma a product reads
    for su in parts:
        for gamma, e, size, _ in su:
            if size > 1 and top.get(gamma, 0) < D - e:
                top[gamma] = D - e
    close_power_chain(top)

    # pieces[gamma][d] = [P_gamma]_d, None below the valuation |gamma|; P_0 = 1
    pieces = {gamma: [None] * sum(gamma) for gamma in top}
    pieces[zero] = [([0], [1], 1)] + [None] * D
    # 2 [z_j]_k for the squares, which read it for k <= (D - 1) // 2 only
    twice = [[None] for _ in units]
    # per level d, the steps (pieces of P_gamma, of P_lower, of z_j, the lowest k, and
    # for a square the doubled z_j, else None) that extend a power at d
    steps: list = [[] for _ in range(D + 1)]
    for gamma, last in top.items():
        if (size := sum(gamma)) > 1:
            j, lower = power_step(gamma)
            step = (pieces[gamma], pieces[lower], pieces[units[j]], size - 1,
                    twice[j] if lower == units[j] else None)
            for d in range(size, last + 1):
                steps[d].append(step)
    sums = [(pieces[u], tw, [(pieces[gamma], e, size, part) for gamma, e, size, part in su])
            for u, tw, su in zip(units, twice, parts)]
    for d in range(1, D + 1):
        for out, pl, pz, first, doubled in steps[d]:
            if doubled is None:
                pairs = [(p, q) for k in range(first, d) if (p := pl[k]) and (q := pz[d - k])]
            else:  # z_j^2: each pair {k, d - k} once, the lower k doubled
                pairs = [(p, q) for k in range(1, (d + 1) // 2)
                         if (p := doubled[k]) and (q := pz[d - k])]
                if d % 2 == 0 and (p := pz[d // 2]):
                    pairs.append((p, p))
            out.append(_sum_of_products(pairs, width, d) if pairs else None)
        for out, tw, su in sums:
            pairs = [(part, p) for power, e, size, part in su
                     if d - e >= size and (p := power[d - e])]
            p = _sum_of_products(pairs, width, d) if pairs else None
            out.append(p)
            tw.append((p[0], [v + v for v in p[1]], p[2]) if p and 2 * d < D else None)
    z = [TruncatedSeries._from_piece(N, D, shift, _joined(pieces[u][1:])) for u in units]
    substituted, powers = _substitution(z)[0], {}
    for gamma, last in top.items():
        if (key := _power_key(gamma, substituted)) is not None:
            powers[key] = (z[gamma.index(1)] if sum(gamma) == 1 else
                           TruncatedSeries._from_piece(N, last, shift, _joined(pieces[gamma])))
    return z, powers


# the prime of :func:`holds_on_a_line`, the Mersenne prime 2^61 - 1
LINE_PRIME = (1 << 61) - 1


def holds_on_a_line(theta: Sequence[TruncatedSeries], z: Sequence[TruncatedSeries],
                    powers: dict, residues: Sequence[int]) -> bool | None:
    """Whether a solve of :func:`fixed_point` holds at one point r mod p =
    :data:`LINE_PRIME`: ``theta(v, z) = t``, and each entry of ``powers``, keyed by
    :func:`_power_key`, is its product of the z_j, each cut at its degree.
    None when a denominator is 0 mod p, so that the point decides nothing.

    Slot i of (v, t) goes to ``r_i = residues[i]``, and a term is its numerator
    times one entry, ``prod r_i^(d_i)``, of a table per chunk of up to
    ``8 // shift`` of its digits.  The truncations need the line through r: z_j
    on it, ``z_j(r lambda)``, is a polynomial in lambda, one coefficient per
    degree, raised to each exponent by univariate products along
    :func:`power_step`, and ``[z^gamma]_(<=k)(r)`` is the sum of its first k + 1
    coefficients.  Each ``P_gamma(r)`` is compared with its cut, except a unit
    entry that is the object ``z_j`` itself (as the solve and ``compose`` store
    it), whose line is made from it; a term of theta of z digits gamma and
    degree e in v reads the cut at D - e.  No code of the solve runs here.  A
    false identity of degree at most D, nonzero mod p, holds at a random point
    with probability at most D/p (Schwartz, J. ACM 1980; Zippel, EUROSAM 1979).
    """
    p = LINE_PRIME
    if any(s._den % p == 0 for s in (*theta, *z, *powers.values())):
        return None
    N, D, n, shift = z[0].nvars, z[0].trunc_degree, len(z), z[0]._shift
    size, width = max(1, 8 // shift), shift * N
    rows = [list(accumulate([v % p] * ((1 << shift) - 1), lambda a, b: a * b % p, initial=1))
            for v in residues]
    tables = []  # (offset, mask, table) per chunk, least significant first
    for off in range(0, width, size * shift):
        table, stop = [1], N - off // shift
        for row in rows[max(0, stop - size):stop]:
            table = [a * b % p for a in table for b in row]
        tables.append((off, (1 << min(size * shift, width - off)) - 1, table))

    def weighed(s, digits) -> tuple:
        """The keys of s and its numerators times ``prod r_i^(d_i)`` over their digits
        under ``digits``, with the inverse of its denominator."""
        keys, ws = s._keys_at(shift), s._nums
        for off, mask, table in tables:
            if chunk := digits >> off & mask:
                ws = [w * table[k >> off & chunk] for w, k in zip(ws, keys)]
        return keys, ws, pow(s._den, -1, p)

    zl = []
    for s in z:
        keys, ws, inv = weighed(s, (1 << width) - 1)
        starts = [bisect_left(keys, d << width) for d in range(D + 2)]
        zl.append([sum(ws[a:b]) * inv % p for a, b in zip(starts, starts[1:])])
    lines = {(0,) * n: [1] + [0] * D} | {unit(n, j): line for j, line in enumerate(zl)}

    def line(gamma) -> list:  # z^gamma on the line, through lambda^D
        if (hit := lines.get(gamma)) is None:
            j, lower = power_step(gamma)
            hit = [0] * (D + 1)
            for i, a in enumerate(line(lower)):
                if a:
                    for k, b in enumerate(zl[j][:D + 1 - i], i):
                        hit[k] += a * b
            hit = lines[gamma] = [v % p for v in hit]
        return hit

    substituted = _substitution(z)[0]
    for key, power in powers.items():
        gamma = _power_exponent(key, substituted, n)
        if sum(gamma) == 1 and power is z[gamma.index(1)]:
            continue  # z_j itself: its line is made from these same terms
        _, ws, inv = weighed(power, (1 << width) - 1)
        if (sum(ws) * inv - sum(line(gamma)[:power.trunc_degree + 1])) % p:
            return False
    low = (1 << shift * n) - 1  # the z digits of theta's keys, cleared from its weights
    cuts: dict = {}  # z digits -> the cut each total degree reads
    for i, t in enumerate(theta):
        keys, ws, inv = weighed(t, (1 << width) - 1 - low)
        for g in {k & low for k in keys} - cuts.keys():
            gamma = _unpack(g, n, shift)
            c, e = list(accumulate(line(gamma))), sum(gamma)  # [z^gamma]_(<=k)(r), by k
            cuts[g] = [c[D - d + e] if d >= e else 0 for d in range(D + 1)]
        total = sum(w * cuts[k & low][k >> width] for w, k in zip(ws, keys))
        if total * inv % p != residues[N - n + i] % p:
            return False
    return True


def _solve_parts(hinv: Sequence[Sequence], theta: Sequence[TruncatedSeries], shift: int) -> list:
    """Per u, the ``(gamma, e, |gamma|, [s_(u,gamma)]_e)`` of the solve of :func:`fixed_point`:
    ``(H^-1 t)_u``, then the groups of z digits and degree digit of the one
    :func:`linear_combination` ``z_u - (H^-1 theta)_u``, each group's keys less one constant."""
    N, D, n = theta[0].nvars, theta[0].trunc_degree, len(theta)
    width, zw = shift * N, shift * n
    low = (1 << zw) - 1
    out = []
    for u, row in enumerate(hinv):
        s = linear_combination([(1, TruncatedSeries.variable(N, D, N - n + u))]
                               + [(-h, t) for h, t in zip(row, theta) if h])
        # (H^-1 t)_u: t_j has the key of z_j, so j runs down for the keys to ascend
        ht = [(j, h) for j in range(n - 1, -1, -1) if (h := row[j])]
        den = lcm(*[h.denominator for _, h in ht])
        su = [((0,) * n, 1, 0, ([1 << width | 1 << shift * (n - 1 - j) for j, _ in ht],
                                [h.numerator * (den // h.denominator) for _, h in ht], den))]
        groups: dict = {}  # z digits, degree digit above them -> (keys, nums)
        for key, value in zip(s._keys_at(shift), s._nums):
            keys, nums = groups.setdefault(key & low | key >> width << zw, ([], []))
            keys.append(key)
            nums.append(value)
        for g, (keys, nums) in groups.items():
            gamma = _unpack(g & low, n, shift)
            size = sum(gamma)
            if (e := (g >> zw) - size) == 0 and size <= 1:
                raise ValueError("fixed_point: a constant term in theta, or hinv not the "
                                 "inverse of its z-linear part, makes the solve implicit")
            drop = (g & low) + (size << width)
            su.append((gamma, e, size, ([k - drop for k in keys], nums, s._den)))
        out.append(su)
    return out


def _joined(pieces: list):
    """The sum of pieces (see :func:`_piece`, None for zero) whose keys ascend from one
    piece to the next, such as the levels of a solve: their terms concatenated over the
    lcm of their denominators, with no pair loop.  The sum needs no second gcd: the
    highest power of a prime p in the lcm is that of some piece's denominator, so p
    divides neither that piece's scale nor, the piece being reduced, all its numerators."""
    live = [p for p in pieces if p]
    if not live:
        return None
    den = lcm(*[p[2] for p in live])
    return [k for p in live for k in p[0]], [v * (den // p[2]) for p in live for v in p[1]], den


def _add_products(acc: dict, a_terms, b_keys: list, b_nums: list, width: int,
                  out_degree: int, scale: int = 1):
    """Add ``va * vb`` at ``ka + kb`` into ``acc`` for every pair of degree at most
    ``out_degree``; ``b_keys`` are sorted, the keys of ``a_terms`` may come in any order.
    The b rows of degree at most ``out_degree - deg(ka)`` are cut once per run of a-terms
    of one degree, so once per degree for a-terms in key order, as every caller has them;
    a cut that keeps every row, as in each level sum of :func:`fixed_point`, copies nothing."""
    get = acc.get
    cut = None  # the degree of ka that keys and nums were cut for
    for ka, va in a_terms:
        if ka >> width != cut:
            cut = ka >> width
            stop = bisect_left(b_keys, (out_degree + 1 - cut) << width)
            keys, nums = ((b_keys, b_nums) if stop == len(b_keys)
                          else (b_keys[:stop], b_nums[:stop]))
        va *= scale
        for kb, vb in zip(keys, nums):
            k = ka + kb
            acc[k] = get(k, 0) + va * vb


def _add_square(acc: dict, keys: list, nums: list, width: int, out_degree: int,
                scale: int = 1):
    """:func:`_add_products` of ``scale`` times the sorted terms with the terms themselves,
    each unordered pair once: ``scale * v * v`` at ``k + k`` and twice
    ``scale * va * vb`` at ``ka + kb`` for each later ``kb``, of degree at most ``out_degree``."""
    get = acc.get
    for i, (ka, va) in enumerate(zip(keys, nums)):
        bound = (out_degree + 1 - (ka >> width)) << width
        if ka >= bound:  # 2 deg(ka) > out_degree, and the later keys are no lower
            break
        stop = bisect_left(keys, bound, i + 1)
        vs = va * scale
        acc[ka + ka] = get(ka + ka, 0) + vs * va
        vs += vs
        for kb, vb in zip(keys[i + 1:stop], nums[i + 1:stop]):
            k = ka + kb
            acc[k] = get(k, 0) + vs * vb


def segment_average(fs: Sequence[TruncatedSeries], n: int) -> list:
    """``int_0^1 f(x, t*x + (1-t)*y, w) dt`` for each f of ``fs``, series in (x, y, w)
    blocks of n variables each.

    Exact and termwise: with D the degree of f, the y monomial ``y^gamma``
    contributes the integer weight ``binom(gamma, j) |j|! |gamma-j|!
    (D+1)!/(|gamma|+1)!`` at ``x^j y^(gamma-j)``, so a key gains j in its x
    digits and loses it from its y digits.  The steps and weights of each
    ``gamma`` are built once per call, slot by slot from one factorial list, and
    shared by the series of one degree and digit width (the n of
    :func:`bergman.potential.build_theta`); each step moves units from a y digit
    to its x digit.  All terms of one average share the denominator of f times
    ``(D+1)!``, reduced once.
    """
    splits: dict = {}
    return [_segment_average(zip(f._keys, f._nums), n, f.trunc_degree, f._shift, f._den,
                             splits.setdefault((f.trunc_degree, f._shift), {}))
            for f in fs]


def y_gradient_average(terms: Sequence[tuple], n: int) -> list:
    """The components ``-int_0^1 (D_(y_i) g)(x, t*x + (1-t)*y, w) dt``, i < n, of the sum
    ``g`` of ``c * s`` over the ``(c, s)`` pairs of ``terms``, series of one degree D in
    (x, y, w) blocks of n variables.

    ``g`` is one :func:`linear_combination`, and no derivative is built as a series: each
    ``-D_(y_i) g`` is read as keys and numerators by :func:`_derived`, the n components
    sharing one falling-factorial table, and goes into the :func:`segment_average`
    split/weight loop at degree ``max(0, D - 1)``; the components share its splits.
    """
    g = linear_combination(terms)
    if g.nvars != 3 * n:
        raise ValueError(f"y_gradient_average: expected {3 * n} variables, got {g.nvars}")
    D, splits, tables = max(0, g.trunc_degree - 1), {}, {}
    return [_segment_average(zip(*_derived(g, unit(3 * n, n + i), g._shift, -1, tables)), n, D,
                             g._shift, g._den, splits)
            for i in range(n)]


def _segment_average(items, n: int, D: int, shift: int, den: int, splits: dict):
    """The split/weight loop of :func:`segment_average` over the packed ``(key, numerator)``
    ``items`` of a series of degree D at digit width ``shift`` over ``den``.  ``splits``
    keeps the steps and weights of each y exponent for the series of one call at one D
    and width."""
    fact = [1]
    for i in range(1, D + 2):
        fact.append(fact[-1] * i)
    # one unit moved from digit y_i to digit x_i; the degree digit keeps its sum
    moves = [(1 << shift * (3 * n - 1 - i)) - (1 << shift * (2 * n - 1 - i)) for i in range(n)]
    y_offset, y_mask = shift * n, (1 << shift * n) - 1
    # splits: y digits of gamma -> [(key step x^j / y^j, integer weight)]
    acc: dict = {}
    get = acc.get
    for key, value in items:
        y_digits = (key >> y_offset) & y_mask
        split = splits.get(y_digits)
        if split is None:
            gamma = _unpack(y_digits, n, shift)
            total = sum(gamma)
            parts = [(0, 1, 0)]  # (step, product of binomials, |j|) over the slots so far
            for g, move in zip(gamma, moves):
                parts = [(step + jj * move, w * fact[g] // (fact[jj] * fact[g - jj]), size + jj)
                         for step, w, size in parts for jj in range(g + 1)]
            scale = fact[D + 1] // fact[total + 1]
            split = splits[y_digits] = [
                (step, scale * w * fact[size] * fact[total - size]) for step, w, size in parts
            ]
        for step, w in split:
            k = key + step
            acc[k] = get(k, 0) + value * w
    return TruncatedSeries._canonical(3 * n, D, shift, acc, den * fact[D + 1])


def det(rows: Sequence[Sequence]) -> TruncatedSeries:
    """Determinant of a square matrix of series by cofactor expansion along the first row.

    Entries are series of one ``nvars`` and pairs ``(s, xi)`` that stand for ``D^xi s``,
    all of one output degree D (a series is its own degree, a pair
    ``max(0, s.trunc_degree - |xi|)``), checked by :func:`_checked_terms` as the terms of
    :func:`linear_combination` are; any other entry is a TypeError.  No derivative is
    built as a series: each entry becomes a piece once, by :func:`_derived` at the widest
    digit width of D and the entries, and the signed products ``(-1)^j a_0j det(minor_0j)``
    of each level go into one :func:`_sum_of_products` at degree D, reduced once.  A minor
    whose first-row factor vanishes is not expanded.  A 1x1 matrix is its entry, a pair
    differentiated.
    """
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ValueError("det: matrix is not square")
    entries = [v if isinstance(v, tuple) else (v, None) for row in rows for v in row]
    if not all(isinstance(s, TruncatedSeries) for s, _ in entries):
        raise TypeError("det: entries must be series or (series, xi) pairs")
    n, D, parts = _checked_terms([(1, *entry) for entry in entries], "det")
    if size == 1:
        return rows[0][0] if entries[0][1] is None else linear_combination(parts)
    shift, tables = max(_shift_for(D), *(s._shift for s, _ in entries)), {}
    pieces = []  # each entry's piece, None when it vanishes
    for _, s, xi in parts:
        keys, nums = _derived(s, xi, shift, 1, tables)
        pieces.append((keys, nums, s._den) if keys else None)
    rows = [pieces[i:i + size] for i in range(0, size * size, size)]
    return TruncatedSeries._from_piece(n, D, shift, _det_of_pieces(rows, shift * n, D))


def _det_of_pieces(rows: list, width: int, D: int):
    """The cofactor determinant of a matrix of pieces (None for a vanishing entry) as one
    piece: each level one :func:`_sum_of_products` at degree D of its live signed pairs."""
    if len(rows) == 1:
        return rows[0][0]
    pairs = []
    for j, a in enumerate(rows[0]):
        if a is None:
            continue
        m = _det_of_pieces([row[:j] + row[j + 1:] for row in rows[1:]], width, D)
        if m is not None:
            pairs.append(((a[0], [-v for v in a[1]], a[2]) if j % 2 else a, m))
    return _sum_of_products(pairs, width, D)
