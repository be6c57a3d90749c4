"""Test-only oracles: exact model kernels, plain series loops and spec file writing.

None of these has a caller in the command line tool or the pipeline; the
tests use them as independent references.  ``segment_average_oracle`` and
``eval_oracle`` are the loops the pipeline ran before it read the packed
form: they read the ``coeffs`` view, one exponent tuple and one ``Fraction``
per term.  ``segment_average_per_split`` is the packed segment average as it
was before it built its steps slot by slot: three ``factorial`` calls, a
``comb`` per slot and two packed keys for each split of each y exponent.
``invert_theta_sweeps``, ``diagonal_pullback_w_table``,
``delta0_quotient`` and ``delta0_jacobian_product`` are the phase geometry's
earlier forms: whole compositions through plain ``compose``, with no
table shared with the pipeline; the sweeps invert the Hessian by Cramer's
rule over ``det_cofactor`` (``cramer_inverse``), where the pipeline uses
Gauss-Jordan elimination.  ``delta0_quotient`` divides two determinants of
(x, y, z) series, where the pipeline pulls ``Delta0`` back along theta.
``invert_theta_pieces`` is the degree-by-degree inversion as it was before
it kept raw pieces: every
homogeneous piece a ``TruncatedSeries``, split from R (not ``-H^{-1} R``)
by ``graded_coefficients``, each new piece one ``sum_of_series_products``
and ``H^{-1}`` applied per sweep, with the Cramer inverse.
``det_cofactor`` is ``series.det`` as it was before its cofactor products
went into one accumulator: each product a series, summed by ``+``; it takes
exact scalars too, which ``series.det`` does not.
``amplitudes_recomputed`` and ``collapses_recomputed`` compute every
amplitude ``(b_m o z) * Delta0`` and every collapse ``to_xz(D_theta . A_m)``
anew, on a fresh geometry, where the pipeline reuses what the
recursion and the transport steps built.  ``lift`` raises a series'
truncation degree; only the tests need it.

``diff_per_term``, ``remap_variables_unpacked``, ``to_record_unpacked``,
``graded_pieces_dict`` and ``sum_of_products_dict`` are series loops as they
were before pieces and series shared one sorted ``(keys, nums, den)`` form
(the graded split is now the oracles' own; the package solves without it):
the derivative calls ``math.perm`` per term, remaps and records unpack an
exponent tuple per term, every result is rebuilt through a dict and a sort,
and a piece is a dict of packed key -> numerator with its denominator
(``triple_of_dict_piece`` gives the package's ``(keys, nums, den)`` form).
``remap_variables_unpacked`` is also the tests' own variable mover, apart from
the package's one, ``compose`` with bare arguments.
``close_power_chain_rescan`` is ``series.close_power_chain`` as it was
before it bucketed the exponents by size: one scan of every exponent per
size; ``invert_theta_pieces`` closes its chain with it.
``linear_combination_of_diffs`` and ``y_gradient_average_of_diffs`` are the
sums of derivatives as the coefficient recursion and the transport chain
made them before the sum differentiated its terms: every derivative a series
of its own (``diff_per_term``), the transport right-hand side summed as a
series, each y-gradient averaged by ``segment_average_per_split`` and
negated.
``mul_trunc_pair_loop`` and ``invert_levels`` are ``series.mul_trunc`` and
``TruncatedSeries.invert`` as they were before they went through
``_sum_of_products``: the product runs its own pair loop (``_add_square`` for
a square) into its own accumulator, and the inverse solves integer levels
U_d = -sum_e c^(e-1) A_e U_(d-e) over the constant numerator c, scaled and
reduced once at the end, where ``invert`` now sums its defining geometric
series.  ``nonpositive_minor_cofactor`` is the leading-minor test of
``PotentialSpec.validate`` as it was: every leading minor a cofactor
determinant (``det_cofactor``), s! products for size s.
``bare_variable_unpacked`` is ``TruncatedSeries._bare_variable`` as it was before it
read the slot from the packed key: the exponent tuple unpacked and searched.
``spec_record_via_fraction`` is ``PotentialSpec.to_record`` as it was, with
one ``Fraction`` built per value, and ``to_xz_remap_then_compose`` is
``GeometryPack.to_xz`` as two steps: y = x by a remap, then the composition.

``invert_theta_lin_rest`` is ``potential.invert_theta`` as it was before the
solve took theta and the Hessian inverse itself: it builds lin = H^-1 t and
rest = z - H^-1 theta as 2n series with ``linear_combination`` and a full
``variables`` list, and ``fixed_point_lin_rest`` re-splits them with
``graded_pieces_dict`` and pays one ``_sum_of_products`` per homogeneous piece.
``round_trip_powers`` is the exact round trip that ``GeometryPack.z_of_theta``
ran as its check before the solve seeded the table (it now runs only when a
denominator is 0 mod p), on that inversion, with every variable built, and
returns the z-powers it composed: the entries the seeded table must equal; ``build_delta0_jacobian_series`` is ``potential.build_delta0`` with
the n^2 Jacobian entries built as ``diff`` series first; ``derived_full_scan``
is ``series._derived`` scanning every key, below ``|xi|`` too; and
``amplitude_truncated_delta0`` is ``GeometryPack.amplitude`` multiplying by a
truncated copy of Delta0, with no table of earlier amplitudes.
``joined_by_pair_loop`` is the sum of a solve's level pieces as
``series.fixed_point`` (and ``TruncatedSeries.invert``, while it solved by
levels) made it before they joined them: one ``_sum_of_products`` of each piece with the one-term piece 1,
so the pair loop visits every term once.

``worst_case_norm_table_tuples`` and ``order_kernel_pair_loop`` are
``growth.worst_case_norm_table`` and ``growth._order_kernel`` as they were
before indices were packed: every index an exponent tuple, each lookup built
by a ``zip`` of gamma and eta, each sub-index sum walked through
``sub_indices`` with ``multi_factorial`` per (m, xi), and W(delta, g) as the
double loop over pairs (alpha, beta) of sub-indices of every delta.
"""

import cmath
import json
import math
from fractions import Fraction
from math import comb, factorial, gcd, lcm, perm

from bergman.potential import build_geometry
from bergman.series import (
    TruncatedSeries,
    _add_products,
    _add_square,
    _pack,
    _shift_for,
    _sorted_piece,
    _sum_of_products,
    _unpack,
    close_power_chain,
    det,
    exponents_of_degree,
    linear_combination,
    multi_factorial,
    power_step,
    sub_indices,
    unit,
)


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


def segment_average_per_split(f, n):
    """``series.segment_average`` with each split ``x^j y^(gamma-j)`` of ``y^gamma`` built alone."""
    D, shift = f.trunc_degree, f._shift
    top = factorial(D + 1)
    pad = (0,) * n
    splits = {}  # gamma -> [(key step x^j / y^j, integer weight)]
    acc = {}
    for key, value in zip(f._keys, f._nums):
        gamma = _unpack(key, 3 * n, shift)[n : 2 * n]
        split = splits.get(gamma)
        if split is None:
            total = sum(gamma)
            split = splits[gamma] = []
            for j in sub_indices(gamma):
                w = top // factorial(total + 1) * factorial(sum(j)) * factorial(total - sum(j))
                for g, jj in zip(gamma, j):
                    w *= comb(g, jj)
                split.append((_pack(j + pad + pad, shift) - _pack(pad + j + pad, shift), w))
        for step, w in split:
            acc[key + step] = acc.get(key + step, 0) + value * w
    return TruncatedSeries._canonical(3 * n, D, shift, acc, f._den * top)


def lift(series, new_degree):
    """The same terms read as a series truncated at ``new_degree`` >= its own degree."""
    if new_degree < series.trunc_degree:
        raise ValueError(f"cannot lower truncation degree {series.trunc_degree} by lift")
    return TruncatedSeries(series.nvars, new_degree, series.coeffs)


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


# -- the phase geometry's earlier forms ---------------------------------------------


def cramer_inverse(rows):
    """The inverse of a matrix of exact rationals by Cramer's rule over ``det_cofactor``: entry
    (i, j) is det of the matrix with column i replaced by e_j, over its det.  A singular
    matrix is a ValueError."""
    size = len(rows)
    rows = [[Fraction(v) for v in row] for row in rows]
    det_h = det_cofactor(rows)
    if det_h == 0:
        raise ValueError("singular matrix")
    return [[det_cofactor([[int(r == j) if c == i else v for c, v in enumerate(row)]
                           for r, row in enumerate(rows)]) / det_h for j in range(size)]
            for i in range(size)]


def det_cofactor(rows):
    """``series.det`` as it was before it summed its cofactor products in one accumulator:
    each product ``a_0j * det(minor)`` a series of its own, negated and added in turn."""
    size = len(rows)
    if size == 1:
        return rows[0][0]
    if size == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = None
    for j in range(size):
        minor = [[row[c] for c in range(size) if c != j] for row in rows[1:]]
        term = rows[0][j] * det_cofactor(minor)
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def invert_theta_sweeps(theta):
    """``potential.invert_theta`` as fixed-point sweeps of whole compositions.

    With H the constant z-linear part of theta and R the rest, sweep
    d = 1, ..., D sets z <- H^{-1} (t - R(x, y, z)) with every series
    truncated at degree d, rebuilding every power of z at that degree.
    """
    n3 = theta[0].nvars
    n = n3 // 3
    D = theta[0].trunc_degree
    hess = [[Fraction(theta[i][unit(n3, 2 * n + j)]) for j in range(n)] for i in range(n)]
    hinv = cramer_inverse(hess)
    zvars = TruncatedSeries.variables(n3, D)[2 * n :]
    remainder = [
        linear_combination([(1, theta[i])] + [(-h, zv) for h, zv in zip(hess[i], zvars) if h])
        for i in range(n)
    ]
    z = [TruncatedSeries.zero(n3, 0)] * n
    for d in range(1, D + 1):
        variables = TruncatedSeries.variables(n3, d)
        args = variables[: 2 * n] + [lift(zi, d) for zi in z]
        w = [r.compose(args) for r in remainder]
        tvars = variables[2 * n :]
        z = [
            linear_combination(
                [(h, t) for h, t in zip(row, tvars) if h] + [(-h, wj) for h, wj in zip(row, w) if h]
            )
            for row in hinv
        ]
    return z


def graded_coefficients(f, start):
    """The coefficients of ``f`` in the variables ``v`` from slot ``start`` on, by degree.

    ``gamma -> {e: [c_gamma]_e}`` for ``f = sum_gamma c_gamma v^gamma``, each
    part a series with ``f``'s nvars and degree.
    """
    n, shift = f.nvars, f._shift
    width, tail = shift * n, shift * (n - start)
    parts = {}
    for key, value in zip(f._keys, f._nums):
        gamma = _unpack(key, n, shift)[start:]
        # clear the v digits and take their degree off the degree digit
        rest = (key >> tail << tail) - (sum(gamma) << width)
        parts.setdefault(gamma, {}).setdefault(rest >> width, {})[rest] = value
    return {
        gamma: {
            e: TruncatedSeries._canonical(n, f.trunc_degree, shift, acc, f._den)
            for e, acc in by_degree.items()
        }
        for gamma, by_degree in parts.items()
    }


def sum_of_series_products(pairs, out_degree):
    """The sum of ``a * b`` over pairs of series, truncated at ``out_degree``,
    in one accumulator; a pair with an empty factor is dropped."""
    nvars = pairs[0][0].nvars
    shift = _shift_for(out_degree)
    den = 1
    live = []
    for a, b in pairs:
        if a._keys and b._keys:
            if len(b._keys) < len(a._keys):
                a, b = b, a
            live.append((a, b))
            shift = max(shift, a._shift, b._shift)
            den = lcm(den, a._den * b._den)
    acc = {}
    width = shift * nvars
    for a, b in live:
        scale = den // (a._den * b._den)
        a_nums = a._nums if scale == 1 else [v * scale for v in a._nums]
        _add_products(acc, zip(a._keys_at(shift), a_nums), b._keys_at(shift), b._nums,
                      width, out_degree)
    return TruncatedSeries._canonical(nvars, out_degree, shift, acc, den)


def close_power_chain_rescan(top):
    """``series.close_power_chain`` by one scan of ``top`` per size, largest first."""
    for size in range(max(map(sum, top), default=0), 1, -1):
        for gamma in [g for g in top if sum(g) == size]:
            lower = power_step(gamma)[1]
            top[lower] = max(top.get(lower, 0), top[gamma] - 1)
    return top


def invert_theta_pieces(theta):
    """``potential.invert_theta`` with every homogeneous piece a ``TruncatedSeries``.

    The same degree-by-degree solve, with the pieces of theta from
    ``graded_coefficients`` and each new piece one ``sum_of_series_products``.
    """
    n3 = theta[0].nvars
    n = n3 // 3
    D = theta[0].trunc_degree
    hess = [[Fraction(theta[i][unit(n3, 2 * n + j)]) for j in range(n)] for i in range(n)]
    hinv = cramer_inverse(hess)
    units = [unit(n, j) for j in range(n)]
    r = [graded_coefficients(t, 2 * n) for t in theta]
    for ri in r:
        for u in units:
            ri.get(u, {}).pop(0, None)  # H
    top = dict.fromkeys(units, D)
    for ri in r:
        for gamma, parts in ri.items():
            if sum(gamma) > 1:
                top[gamma] = max(top.get(gamma, 0), D - min(parts))
    close_power_chain_rescan(top)
    zero = TruncatedSeries.zero(n3, D)
    pieces = {gamma: [zero] * sum(gamma) for gamma in top}
    pieces[(0,) * n] = [TruncatedSeries.one(n3, D)] + [zero] * D
    higher = [(gamma, *power_step(gamma)) for gamma in top if sum(gamma) > 1]
    tvars = TruncatedSeries.variables(n3, D)[2 * n :]
    for d in range(1, D + 1):
        for gamma, j, lower in higher:
            if sum(gamma) <= d <= top[gamma]:
                pz, pl = pieces[units[j]], pieces[lower]
                pieces[gamma].append(sum_of_series_products(
                    [(pl[k], pz[d - k]) for k in range(sum(gamma) - 1, d)], D
                ))
        rz = []
        for ri in r:
            pairs = [
                (part, pieces[gamma][d - e])
                for gamma, parts in ri.items()
                for e, part in parts.items()
                if d - e >= sum(gamma)
            ]
            rz.append(sum_of_series_products(pairs, D) if pairs else zero)
        for u, row in zip(units, hinv):
            pieces[u].append(linear_combination(
                [(h, t) for h, t in zip(row, tvars) if h and d == 1]
                + [(-h, w) for h, w in zip(row, rz) if h]
            ))
    return [linear_combination([(1, p) for p in pieces[u][1:]]) for u in units]


def diagonal_pullback_w_table(geom, f):
    """A transport step's diagonal pullback through the dense ``w = psi_x(x, z(x, y, theta))``.

    f(x, y, theta) -> f(x, x, w), composing f at y = x with the powers of w.
    """
    n = geom.n
    x = TruncatedSeries.variables(3 * n, geom.degree - 1)[:n]
    w = [p.compose(x + list(geom.z_of_theta)) for p in geom.psi_x]
    f_xtheta = remap_variables_unpacked(f, 2 * n, tuple(range(n)) * 2 + tuple(range(n, 2 * n)))
    return f_xtheta.compose(x + w)


def _det_psi_yz(geom):
    """det psi_yz in (x, y, z) blocks, degree D - 2."""
    n = geom.n
    n3 = 3 * n
    psi_y = remap_variables_unpacked(geom.psi, n3, tuple(range(n, 3 * n)))
    return det([[psi_y.diff(unit(n3, n + i)).diff(unit(n3, 2 * n + j)) for j in range(n)]
                for i in range(n)])


def delta0_quotient(geom):
    """``Delta0`` as the quotient det psi_yz / det theta_z in (x, y, z), then composed through z."""
    n, D = geom.n, geom.degree
    n3 = 3 * n
    den = [[t.diff(unit(n3, 2 * n + j)).truncate(D - 2) for j in range(n)] for t in geom.theta]
    delta0_xyz = _det_psi_yz(geom) * det(den).invert()
    xy = TruncatedSeries.variables(n3, D - 1)[: 2 * n]
    return delta0_xyz, delta0_xyz.compose(xy + list(geom.z_of_theta))


def delta0_jacobian_product(geom):
    """``Delta0`` in (x, y, theta) as ``(det psi_yz o z) * det(dz/dtheta)``, one dense product."""
    n, D = geom.n, geom.degree
    n3 = 3 * n
    xy = TruncatedSeries.variables(n3, D - 1)[: 2 * n]
    jacobian = [[z.diff(unit(n3, 2 * n + j)) for j in range(n)] for z in geom.z_of_theta]
    return _det_psi_yz(geom).compose(xy + list(geom.z_of_theta)) * det(jacobian)


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


# -- series loops before the one sorted (keys, nums, den) form --------------------


def diff_per_term(s, xi):
    """``TruncatedSeries.diff`` with one ``math.perm`` per term and slot, through a dict."""
    xi = tuple(xi)
    order = sum(xi)
    new_D = max(0, s.trunc_degree - order)
    if order == 0:
        return s.truncate(new_D)
    n, shift = s.nvars, s._shift
    mask = (1 << shift) - 1
    slots = [(shift * (n - 1 - i), d) for i, d in enumerate(xi) if d]
    step = _pack(xi, shift)
    out = {}
    for key, value in zip(s._keys, s._nums):
        factor = 1
        for offset, d in slots:
            e = (key >> offset) & mask
            if e < d:
                break
            factor *= perm(e, d)
        else:
            out[key - step] = value * factor
    return TruncatedSeries._canonical(n, new_D, shift, out, s._den)


def linear_combination_of_diffs(terms):
    """``linear_combination`` of ``(c, s, xi)`` terms with each ``D^xi s`` built first."""
    return linear_combination([(c, diff_per_term(s, xi)) for c, s, xi in terms])


def y_gradient_average_of_diffs(terms, n):
    """``series.y_gradient_average``: the sum of the ``(c, s)`` pairs as a series, then
    ``-segment_average(D_(y_i) f, n)`` for each i, every step its own series."""
    f = linear_combination(list(terms))
    return [-segment_average_per_split(diff_per_term(f, unit(3 * n, n + i)), n)
            for i in range(n)]


def remap_variables_unpacked(s, new_nvars, var_map):
    """Variable i of ``s`` moved to slot ``var_map[i]`` of ``new_nvars``, sources that share a
    target adding exponents, with an exponent tuple unpacked per term and ``s``'s digit width."""
    n, shift = s.nvars, s._shift
    offsets = [shift * (new_nvars - 1 - t) for t in var_map]
    width, new_width = shift * n, shift * new_nvars
    out = {}
    for key, value in zip(s._keys, s._nums):
        new_key = (key >> width) << new_width
        for e, offset in zip(_unpack(key, n, shift), offsets):
            new_key += e << offset
        out[new_key] = out.get(new_key, 0) + value
    return TruncatedSeries._canonical(new_nvars, s.trunc_degree, shift, out, s._den)


def to_record_unpacked(s):
    """``TruncatedSeries.to_record`` with an exponent tuple unpacked and a gcd per term."""
    terms = []
    for key, num in zip(s._keys, s._nums):
        g = gcd(num, s._den)
        terms.append({"index": list(_unpack(key, s.nvars, s._shift)),
                      "num": num // g, "den": s._den // g})
    return {"nvars": s.nvars, "trunc_degree": s.trunc_degree, "mode": "rational", "terms": terms}


def bare_variable_unpacked(s):
    """Slot i when ``s`` is exactly x_i (one term, coefficient 1), else None, from the
    unpacked exponent tuple."""
    if len(s._keys) != 1 or s._nums[0] != s._den:
        return None
    key = _unpack(s._keys[0], s.nvars, s._shift)
    return key.index(1) if sum(key) == 1 else None


def _dict_piece(acc, den):
    """The dict piece ``(terms, den)``: terms sorted, zeros dropped, reduced; None when empty."""
    terms = {k: v for k, v in sorted(acc.items()) if v}
    if not terms:
        return None
    g = gcd(den, *terms.values())
    return ({k: v // g for k, v in terms.items()} if g != 1 else terms), den // g


def graded_pieces_dict(f, start, shift):
    """``series._graded_pieces`` with dict pieces, each part rebuilt through a sort."""
    n = f.nvars
    width, low = shift * n, (1 << shift * (n - start)) - 1
    groups = {}
    for key, value in zip(f._keys_at(shift), f._nums):
        groups.setdefault(key & low, []).append((key, value))
    out = {}
    for digits, terms in groups.items():
        gamma = _unpack(digits, n - start, shift)
        drop = digits + (sum(gamma) << width)
        parts = {}
        for key, value in terms:
            parts.setdefault((key - drop) >> width, {})[key - drop] = value
        out[gamma] = {e: _dict_piece(acc, f._den) for e, acc in parts.items()}
    return out


def triple_of_dict_piece(piece):
    """A dict piece as the ``(keys, nums, den)`` piece of ``series._piece``, None kept."""
    return piece and (list(piece[0]), list(piece[0].values()), piece[1])


def sum_of_products_dict(pairs, width, out_degree):
    """``series._sum_of_products`` on dict pieces, with the b side listed per call."""
    live = [(a, b) for a, b in pairs if a and b]
    den = lcm(*[da * db for (_, da), (_, db) in live])
    acc = {}
    for (a, da), (b, db) in live:
        if len(b) < len(a):
            a, b = b, a
        scale = den // (da * db)
        a_terms = a.items() if scale == 1 else [(k, v * scale) for k, v in a.items()]
        _add_products(acc, a_terms, list(b), list(b.values()), width, out_degree)
    return _dict_piece(acc, den)


def spec_record_via_fraction(spec):
    """``PotentialSpec.to_record`` with a ``Fraction`` built from every value."""
    terms = []
    for (a, b) in sorted(spec.coeffs, key=lambda ab: (sum(ab[0]) + sum(ab[1]), ab)):
        v = Fraction(spec.coeffs[(a, b)])
        if v != 0:
            terms.append({"alpha": list(a), "beta": list(b),
                          "num": v.numerator, "den": v.denominator})
    return {"n": spec.n, "trunc_degree": spec.trunc_degree, "eval_radius": spec.eval_radius,
            "terms": terms}


def to_xz_remap_then_compose(geom, f, cache):
    """``geom.to_xz(f)``: y = x by ``remap_variables_unpacked``, then ``compose`` with ``psi_x``."""
    n = geom.n
    f_xtheta = remap_variables_unpacked(f, 2 * n, tuple(range(n)) * 2 + tuple(range(n, 2 * n)))
    x = TruncatedSeries.variables(2 * n, geom.degree - 1)[:n]
    return f_xtheta.compose(x + list(geom.psi_x), cache=cache)


# -- products and inverses before they went through the sum of products -----------


def mul_trunc_pair_loop(a, b, out_degree):
    """``series.mul_trunc`` with its own pair loop and accumulator."""
    if a.nvars != b.nvars:
        raise ValueError("mul: nvars mismatch")
    if out_degree < 0:
        raise ValueError("mul: out_degree must be non-negative")
    if not (a._keys and b._keys):
        return TruncatedSeries.zero(a.nvars, out_degree)
    if len(b._keys) < len(a._keys):
        a, b = b, a
    shift = max(_shift_for(out_degree), a._shift, b._shift)
    width, acc = shift * a.nvars, {}
    if a is b:
        _add_square(acc, a._keys_at(shift), a._nums, width, out_degree)
    else:
        _add_products(acc, zip(a._keys_at(shift), a._nums), b._keys_at(shift), b._nums,
                      width, out_degree)
    return TruncatedSeries._canonical(a.nvars, out_degree, shift, acc, a._den * b._den)


def invert_levels(s):
    """``TruncatedSeries.invert`` by integer levels: with numerators A over ``den`` and
    c = A_0, U_0 = 1 and U_d = -sum_e c^(e-1) A_e U_(d-e), so that the inverse is
    ``den * sum_d U_d c^(D-d)`` over ``c^(D+1)``."""
    if s.constant_term == 0:
        raise ValueError("invert: constant term is zero")
    n, D, shift = s.nvars, s.trunc_degree, s._shift
    width = shift * n
    c = s._nums[0]
    by_degree = {}  # positive-degree terms of -A, times c^(e-1)
    for k, v in zip(s._keys[1:], s._nums[1:]):
        e = k >> width
        by_degree.setdefault(e, []).append((k, -v * c ** (e - 1)))
    levels = [([0], [1])]  # U_d as sorted keys and numerators
    for d in range(1, D + 1):
        acc = {}
        for e, terms in by_degree.items():
            if e > d:
                break
            _add_products(acc, terms, *levels[d - e], width, d)
        keys = [k for k in sorted(acc) if acc[k]]
        levels.append((keys, [acc[k] for k in keys]))
    out = {}
    for d, (level_keys, level_nums) in enumerate(levels):
        scale = s._den * c ** (D - d)
        out.update(zip(level_keys, [v * scale for v in level_nums]))
    return TruncatedSeries._canonical(n, D, shift, out, c ** (D + 1))


def nonpositive_minor_cofactor(rows, shift=0):
    """Size of the first non-positive leading minor of ``rows - shift I``, or 0, with
    every leading minor a cofactor ``det``."""
    rows = [[v - shift * (i == j) for j, v in enumerate(row)] for i, row in enumerate(rows)]
    return next((s for s in range(1, len(rows) + 1)
                 if det_cofactor([r[:s] for r in rows[:s]]) <= 0), 0)


# -- the phase solve, its check and Delta0 before the solve read theta itself -------


def fixed_point_lin_rest(lin, rest):
    """``series.fixed_point`` as it was: the z with ``z_u = lin_u + rest_u(v, z)``, its
    inputs split by ``graded_pieces_dict`` and one ``_sum_of_products`` per new piece."""
    N, D, n = lin[0].nvars, lin[0].trunc_degree, len(lin)
    shift = max(s._shift for s in (*lin, *rest))
    width = shift * N
    units = [unit(n, j) for j in range(n)]
    zero = (0,) * n
    top = dict.fromkeys(units, D)
    terms = []
    for lin_u, rest_u in zip(lin, rest):
        su = [(zero, e, 0, triple_of_dict_piece(p))
              for e, p in graded_pieces_dict(lin_u, N, shift).get((), {}).items()]
        for gamma, parts in graded_pieces_dict(rest_u, N - n, shift).items():
            size = sum(gamma)
            su += [(gamma, e, size, triple_of_dict_piece(p)) for e, p in parts.items()]
            if size > 1:
                top[gamma] = max(top.get(gamma, 0), D - min(parts))
        if any(e == 0 and size <= 1 for _, e, size, _ in su):
            raise ValueError("fixed_point: the solve is implicit")
        terms.append(su)
    close_power_chain(top)
    pieces = {gamma: [None] * sum(gamma) for gamma in top}
    pieces[zero] = [([0], [1], 1)] + [None] * D
    higher = [(gamma, size, top[gamma], *power_step(gamma))
              for gamma in top if (size := sum(gamma)) > 1]
    for d in range(1, D + 1):
        for gamma, size, last, j, lower in higher:
            if size <= d <= last:
                pz, pl = pieces[units[j]], pieces[lower]
                if pl is pz:
                    pairs = [((p[0], [2 * v for v in p[1]], p[2]), q)
                             for k in range(1, (d + 1) // 2) if (p := pz[k]) and (q := pz[d - k])]
                    if d % 2 == 0 and (p := pz[d // 2]):
                        pairs.append((p, p))
                else:
                    pairs = [(pl[k], pz[d - k]) for k in range(size - 1, d)
                             if pl[k] and pz[d - k]]
                pieces[gamma].append(_sum_of_products(pairs, width, None) if pairs else None)
        for u, su in zip(units, terms):
            pairs = [(part, p) for gamma, e, size, part in su
                     if d - e >= size and (p := pieces[gamma][d - e])]
            pieces[u].append(_sum_of_products(pairs, width, None) if pairs else None)
    one = pieces[zero][0]
    z = [_sum_of_products([(one, p) for p in pieces[u][1:]], width, None) for u in units]
    return [TruncatedSeries._from_piece(N, D, shift, _sorted_piece(p)) for p in z]


def invert_theta_lin_rest(theta):
    """``potential.invert_theta`` building lin and rest as series for ``fixed_point_lin_rest``."""
    from bergman.potential import _hessian_inverse

    n3 = theta[0].nvars
    n = n3 // 3
    D = theta[0].trunc_degree
    hinv = _hessian_inverse([[theta[i][unit(n3, 2 * n + j)] for j in range(n)] for i in range(n)])
    zvars = TruncatedSeries.variables(n3, D)[2 * n:]
    lin = [linear_combination([(h, t) for h, t in zip(row, zvars) if h]) for row in hinv]
    rest = [linear_combination([(1, z_u)] + [(-h, t) for h, t in zip(row, theta) if h])
            for z_u, row in zip(zvars, hinv)]
    return fixed_point_lin_rest(lin, rest)


def round_trip_powers(theta):
    """The z-powers the round-trip check composes theta through, on the inversion of
    ``invert_theta_lin_rest`` and a full list of variables; a failed check is an error."""
    z = invert_theta_lin_rest(theta)
    n3, D = z[0].nvars, z[0].trunc_degree
    n = n3 // 3
    ids = TruncatedSeries.variables(n3, D)
    powers = {}
    if [t.compose(ids[:2 * n] + list(z), cache=powers) for t in theta] != ids[2 * n:]:
        raise ArithmeticError("phase inversion failed the round-trip identity")
    return powers


def build_delta0_jacobian_series(geom):
    """``potential.build_delta0`` with the Jacobian dw/dtheta built as n^2 ``diff`` series."""
    n = geom.n
    w = [geom.substitute_z(g) for g in geom.psi_x_yz]
    return det([[wi.diff(unit(3 * n, 2 * n + j)) for j in range(n)] for wi in w])


def derived_full_scan(s, xi, shift, scale, tables):
    """``series._derived`` reading every key, those below degree ``|xi|`` too."""
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
    out_keys, out_nums = [], []
    for key, value in zip(keys, nums):
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


def amplitude_truncated_delta0(geom, b):
    """``(b o z) * Delta0`` as ``GeometryPack.amplitude`` made it: Delta0 truncated to the
    degree of ``b o z`` first, and no table of earlier amplitudes read."""
    comp = geom.substitute_z(b)
    return comp * geom.delta0_xytheta.truncate(comp.trunc_degree)


# -- level sums and the worst case table before they were rewritten ------------


def joined_by_pair_loop(pieces):
    """The sum of level pieces sharing no key, through the pair loop, sorted once."""
    one = ([0], [1], 1)
    return _sorted_piece(_sum_of_products([(one, p) for p in pieces], 0, None))


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
