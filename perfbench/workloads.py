"""Seeded inputs, jobs and correctness gates of the benchmark's workloads.

Set-up turns ``--seed`` into a fixed job list; the program sees only the
generated ``PotentialSpec`` objects (and, for ``numeric_checks``, the table
built from one of them in set-up).  A job calls the pipeline through the
package's public functions, always looked up on their module at call time so
that a traced run catches them, checks its outputs, writes its report
records and returns their SHA-256 digest.  A job whose gate does not hold
raises :class:`GateFailure` after writing its reports.

Why each workload exists, and which layers it stresses:

* ``model_geometry``: chsc potentials at n=2, D=12, transported to M=3.  The
  phase inversion dominates; every coefficient layer together is a small
  share.  A faster exact geometry moves it; a shared phase chain barely does.
* ``dense_orders``: non-radial Hermitian potentials at n=1, D=12, M=5, the
  highest order D supports.  Without symmetry the ``b_m`` are dense, so the
  divergence recursion, amplitudes, transport chain and reconstruction take
  a large share of each job.
* ``numeric_checks``: float kernel evaluation against the closed form, decay
  and growth fits, the truncation scan and the exact worst-case table, all
  read from a table built in set-up.  The timed part composes no exact
  series, so geometry and recursion changes should leave it unchanged.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from bergman import chsc, coefficients, growth, kernel, potential, sampling, transport

K_GRID = (64, 128, 256, 512, 1024, 2048, 4096)  # the CLI's default k grid

# Largest allowed |eval_KN - eval_KN_chsc_closed| in log_K_weighted and in
# log_residual over K_GRID.  Pairs sit within PAIR_RADIUS of the origin, where
# the degree-truncated psi is accurate far below this; the measured gap is
# float rounding of k * psi, about 1e-12 at k = 4096.
KERNEL_TOL = 1e-10
SLOPE_TOL = 1e-9
PAIR_RADIUS = 0.03
NORM_RADIUS = 0.1

# Curvatures c of the chsc jobs: small rationals; the seed draws them, and
# job i gets sign (-1)^i so every job list holds both signs.
CURVATURES = tuple(sorted({Fraction(p, q) for p in (1, 2, 3) for q in (2, 3, 4, 5) if p < q}))

# Mixed terms x^a conj(x)^b, a, b >= 1, of degree 3 and 4, each with a fixed
# denominator.  Pure terms x^a and conj(x)^a are left out: they are
# pluriharmonic and do not change the metric.  Every dense potential has
# every term and the seed draws only signs and numerators, so all jobs share
# one term structure and cost about the same.
DENSE_TERMS = (((2,), (1,), 4), ((3,), (1,), 6), ((2,), (2,), 8))
DENSE_NUMERATORS = (-3, -1, 1, 3)

TRUNCATION_CS = (0.25, 0.3, 0.5, 1.0, 2.0, 3.0, 4.0)
TRUNCATION_KS = (1000, 4000, 16000)


@dataclass(frozen=True)
class Sizes:
    n: int
    degree: int
    order: int
    jobs: int = 1          # exact workloads: potentials per job list
    pairs: int = 0         # numeric_checks: Halton pairs
    grid: int = 0          # numeric_checks: norm grid per axis
    worst_case: tuple = ()  # numeric_checks: (n, M, Kmax) of the exact table


SIZES = {
    "model_geometry": Sizes(n=2, degree=12, order=3, jobs=2),
    "dense_orders": Sizes(n=1, degree=12, order=5, jobs=2),
    "numeric_checks": Sizes(n=2, degree=10, order=4, pairs=48, grid=8, worst_case=(2, 4, 4)),
}
SMOKE_SIZES = {
    "model_geometry": Sizes(n=1, degree=6, order=2, jobs=2),
    "dense_orders": Sizes(n=1, degree=6, order=2, jobs=1),
    "numeric_checks": Sizes(n=1, degree=8, order=2, pairs=2, grid=3, worst_case=(1, 2, 2)),
}


class GateFailure(Exception):
    """A job's output failed one of its correctness checks."""


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable  # run(tracer) -> (digest, artifacts)


@dataclass(frozen=True)
class Plan:
    jobs: tuple
    specs: tuple         # every generated PotentialSpec, in job order
    state: object = None  # numeric_checks: the NumericState its jobs read


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def curvatures(rng: random.Random, count: int) -> list:
    return [rng.choice(CURVATURES) * (-1) ** i for i in range(count)]


def dense_spec(rng: random.Random, degree: int) -> potential.PotentialSpec:
    coeffs = {((1,), (1,)): Fraction(1)}
    for a, b, den in DENSE_TERMS:
        value = Fraction(rng.choice(DENSE_NUMERATORS), den)
        coeffs[(a, b)] = value
        coeffs[(b, a)] = value
    return potential.PotentialSpec(n=1, trunc_degree=degree, eval_radius=0.3, coeffs=coeffs)


def generate_specs(workload: str, seed: int, sizes: Sizes) -> list:
    """The workload's potentials for ``seed``, each checked by ``validate()``."""
    rng = rng_for(workload, seed)
    if workload == "dense_orders":
        specs = [dense_spec(rng, sizes.degree) for _ in range(sizes.jobs)]
    else:
        count = sizes.jobs if workload == "model_geometry" else 1
        specs = [
            potential.preset_chsc(sizes.n, c, sizes.degree)
            for c in curvatures(rng, count)
        ]
    for spec in specs:
        spec.validate()
    return specs


def spec_curvature(spec: potential.PotentialSpec) -> Fraction:
    """c of a chsc spec: its |x_1|^4 coefficient is -c / 2."""
    e = (2,) + (0,) * (spec.n - 1)
    return -2 * Fraction(spec.coeffs[(e, e)])


# -- reports ------------------------------------------------------------------


def write_reports(out_dir: Path, reports: dict, tracer) -> str:
    """Write each payload as the CLI does (sorted keys, indent 2) and digest them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(reports):
        text = json.dumps(reports[name], sort_keys=True, indent=2) + "\n"
        data = text.encode()
        (out_dir / name).write_bytes(data)
        tracer.count("cli.report_bytes", len(data))
        digest.update(name.encode() + b"\0" + data)
    return digest.hexdigest()


def records_digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _envelope(spec, config: dict) -> dict:
    """The fields every ``bergman coeffs`` report file starts with."""
    return {
        "schema_version": 1,
        "command": "coeffs",
        "config": config,
        "spec_sha256": spec.sha256(),
    }


# -- exact workloads: the ``coeffs`` pipeline ---------------------------------


def coeffs_job(spec, order: int, out_dir: Path, with_chsc: bool, tracer):
    """build_geometry -> both coefficient routes -> exact comparison -> reports."""
    geom = potential.build_geometry(spec)
    table = coefficients.amplitude_from_b(coefficients.bergman_coefficients(geom, order), geom)
    chain = transport.transport_chain(geom, order)
    recon = transport.reconstruct_coefficients(geom, chain)
    problems = []
    chsc_record = None
    with tracer.span("cli.crosscheck"):
        mismatched = [m for m in range(order + 1) if recon[m] != table.b[m]]
        if mismatched:
            problems.append(f"transport reconstruction differs at orders {mismatched}")
        if with_chsc:
            c = spec_curvature(spec)
            closed = chsc.chsc_coefficients(spec.n, c, order)
            for m in range(order + 1):
                series = table.b[m]
                if len(series.coeffs) > 1 or series.constant_term != closed[m]:
                    problems.append(f"b_{m} differs from chsc_coefficients")
            identity = chsc.polynomial_identity_check(chsc.ChscModel.build(spec.n, c, order))
            if not identity:
                problems.append("polynomial_identity_check failed")
            chsc_record = {
                "c": str(c),
                "closed_b": [str(v) for v in closed],
                "polynomial_check": "pass" if identity else "fail",
            }
    config = {"n": spec.n, "degree": spec.trunc_degree, "order": order}
    with tracer.span("cli.report_write"):
        reports = {
            "coefficients.json": {**_envelope(spec, config), "table": table.to_record()},
            "transport.json": {
                **_envelope(spec, config),
                "chain": chain.to_record(),
                "reconstructed_b": [s.to_record() for s in recon],
            },
            "crosscheck.json": {
                **_envelope(spec, config),
                "orders_compared": order,
                "mismatched_orders": mismatched,
                "cross_check": "fail" if mismatched else "pass",
                "chsc": chsc_record,
            },
        }
        digest = write_reports(out_dir, reports, tracer)
    if problems:
        raise GateFailure("; ".join(problems))
    return digest, {"geometry": geom, "table": table, "chain": chain}


def exact_plan(workload: str, seed: int, sizes: Sizes, out_root: Path) -> Plan:
    specs = generate_specs(workload, seed, sizes)
    with_chsc = workload == "model_geometry"
    jobs = []
    for i, spec in enumerate(specs):
        out_dir = out_root / f"job{i}"

        def run(tr, spec=spec, out_dir=out_dir):
            return coeffs_job(spec, sizes.order, out_dir, with_chsc, tr)

        jobs.append(Job(f"job{i}", run))
    return Plan(jobs=tuple(jobs), specs=tuple(specs))


# -- numeric_checks -------------------------------------------------------------


@dataclass
class NumericState:
    spec: object
    c: Fraction
    geom: object
    table: object
    closed_b: list
    max_gap: float = 0.0


def numeric_setup(seed: int, sizes: Sizes, out_root: Path, tracer) -> NumericState:
    """What ``bergman coeffs`` then ``bergman eval`` do before evaluating."""
    (spec,) = generate_specs("numeric_checks", seed, sizes)
    c = spec_curvature(spec)
    geom = potential.build_geometry(spec)
    table = coefficients.amplitude_from_b(coefficients.bergman_coefficients(geom, sizes.order), geom)
    config = {"n": spec.n, "degree": spec.trunc_degree, "order": sizes.order}
    with tracer.span("cli.report_write"):
        write_reports(
            out_root,
            {"coefficients.json": {**_envelope(spec, config), "table": table.to_record()}},
            tracer,
        )
    with tracer.span("cli.report_read"):
        with open(out_root / "coefficients.json") as fh:
            record = json.load(fh)
        loaded = coefficients.CoefficientTable.from_record(record["table"])
    if loaded.b != table.b or loaded.a != table.a or loaded.spec_sha256 != spec.sha256():
        raise GateFailure("coefficient table changed in the JSON round trip")
    closed_b = chsc.chsc_coefficients(spec.n, c, sizes.order)
    return NumericState(spec=spec, c=c, geom=geom, table=loaded, closed_b=closed_b)


def kernel_job(state: NumericState, x, y):
    """eval_KN against the closed form over K_GRID, then both decay fits."""
    n, order = state.geom.n, state.table.M
    records = []
    for k in K_GRID:
        got = kernel.eval_KN(state.geom, state.table, k, order, x, y)
        ref = kernel.eval_KN_chsc_closed(n, state.c, k, order, x, y)
        gap = max(
            abs(got.log_K_weighted - ref.log_K_weighted),
            abs(got.log_residual - ref.log_residual),
        )
        state.max_gap = max(state.max_gap, gap)
        if not gap <= KERNEL_TOL:
            raise GateFailure(f"eval_KN differs from the closed form by {gap:.3g} at k={k}")
        records.append(got.to_dict())
    fit = kernel.log_asymptotic_fit(kernel.make_series_evaluator(state.geom, state.table), K_GRID, (x, y))
    ref_fit = kernel.log_asymptotic_fit(
        kernel.make_chsc_closed_evaluator(n, state.c, N=order), K_GRID, (x, y)
    )
    if fit.all_zero != ref_fit.all_zero or (
        not fit.all_zero and not abs(fit.slope - ref_fit.slope) <= SLOPE_TOL
    ):
        raise GateFailure("decay fit slope differs from the closed form")
    records.append(fit.to_dict())
    return records_digest(records), {}


def norms_job(state: NumericState, sizes: Sizes):
    """derivative_norm_table then fit_growth; chsc b_m are constants |b_m|."""
    norms = coefficients.derivative_norm_table(
        state.table, state.geom, NORM_RADIUS, sizes.grid, xi_max=1
    )
    fits = [growth.fit_growth(norms, model=m) for m in ("m_factorial_sq", "m_factorial")]
    zero = (0,) * state.geom.n
    for (m, xi), value in norms.entries.items():
        want = abs(float(state.closed_b[m])) if xi == zero else 0.0
        if not abs(value - want) <= 1e-12 * max(1.0, want):
            raise GateFailure(f"norm of D^{xi} b_{m} is {value}, expected {want}")
    for fit in fits:
        if not fit.verdict.startswith(("pass", "vanishing")):
            raise GateFailure(f"growth fit verdict {fit.verdict}")
    return records_digest([norms.csv_rows()] + [f.to_dict() for f in fits]), {}


def truncation_job(scans):
    records = []
    for C, k in scans:
        scan = growth.truncation_minimizer(C, k)
        if not (scan.unimodal and scan.within_one_of_target and scan.stirling_bound_ok):
            raise GateFailure(f"truncation scan failed at C={C}, k={k}")
        records.append(scan.to_dict())
    return records_digest(records), {}


def worst_case_job(n: int, M: int, kmax: int):
    table = growth.worst_case_norm_table(n, M, kmax)
    for (m, k), value in table.items():
        if m >= 1 and value < math.factorial(2 * m - 2 + k):
            raise GateFailure(f"worst-case entry ({m}, {k}) below (2m-2+k)!")
        if m >= 1 and k == 0 and value < Fraction(math.factorial(m) ** 2, 4**m):
            raise GateFailure(f"worst-case entry ({m}, 0) below (m!)^2 / 4^m")
    return records_digest({f"{m},{k}": str(v) for (m, k), v in sorted(table.items())}), {}


def numeric_plan(seed: int, sizes: Sizes, out_root: Path, tracer) -> Plan:
    state = numeric_setup(seed, sizes, out_root, tracer)
    rng = rng_for("numeric_checks/points", seed)
    # a bounded skip keeps the sampler's start-up cost and memory the same for every seed
    skip = 2 * sizes.pairs * rng.randrange(1, 512)
    points = sampling.polydisc_points(sizes.n, PAIR_RADIUS, 2 * sizes.pairs, skip=skip)
    scans = [(rng.choice(TRUNCATION_CS), k) for k in TRUNCATION_KS]
    jobs = [
        Job(f"kernel{i}", lambda tr, x=points[2 * i], y=points[2 * i + 1]: kernel_job(state, x, y))
        for i in range(sizes.pairs)
    ]
    jobs.append(Job("norms", lambda tr: norms_job(state, sizes)))
    jobs.append(Job("truncation", lambda tr: truncation_job(scans)))
    jobs.append(Job("worst_case", lambda tr: worst_case_job(*sizes.worst_case)))
    return Plan(jobs=tuple(jobs), specs=(state.spec,), state=state)


def make_plan(workload: str, seed: int, smoke: bool, out_root: Path, tracer) -> Plan:
    """Set-up: the seeded job list, plus for numeric_checks the table its jobs read."""
    sizes = (SMOKE_SIZES if smoke else SIZES)[workload]
    if workload == "numeric_checks":
        return numeric_plan(seed, sizes, out_root, tracer)
    return exact_plan(workload, seed, sizes, out_root)


# -- counts read from layer outputs ---------------------------------------------


def _max_bits(series_list) -> int:
    best = 0
    for s in series_list:
        for v in s.coeffs.values():
            f = Fraction(v)
            best = max(best, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return best


def layer_counts(artifacts: list) -> dict:
    """Term counts and largest bit lengths of one pass's exact outputs."""
    out = {
        "potential.z_terms": 0,
        "potential.max_bits": 0,
        "coefficients.b_terms": 0,
        "coefficients.max_bits": 0,
        "transport.A_terms": 0,
    }
    for art in artifacts:
        geom, table, chain = art.get("geometry"), art.get("table"), art.get("chain")
        if geom is not None:
            out["potential.z_terms"] += sum(len(z.coeffs) for z in geom.z_of_theta)
            series = [geom.psi, *geom.theta, *geom.z_of_theta, geom.delta0_xyz, geom.delta0_xytheta]
            out["potential.max_bits"] = max(out["potential.max_bits"], _max_bits(series))
        if table is not None:
            out["coefficients.b_terms"] += sum(len(b.coeffs) for b in table.b)
            out["coefficients.max_bits"] = max(out["coefficients.max_bits"], _max_bits(table.b))
        if chain is not None:
            out["transport.A_terms"] += sum(len(s.coeffs) for vec in chain.A for s in vec)
    return out
