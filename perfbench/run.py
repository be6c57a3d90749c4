"""Closed-loop benchmark of the bergman exact coefficient pipeline.

Run from the root of a checkout::

    python3 perfbench/run.py --workload model_geometry --seed 1 --seconds 30 --trace 0

One process runs one workload, single-threaded (BLAS and OpenMP pinned to one
thread), one job after another.  It times the package import and set-up (set-up is
repeated and the median taken), then repeats passes over the seeded job list
for ``--seconds`` (it starts no pass that it expects to end later), checking
every job's output.  A failed or raising job is counted and the run goes on.
Untraced runs give their times in reference seconds: raw time scaled by the
host's speed, sampled during the run (see ``hostspeed``).

Standard output ends with two JSON lines.  The first names the workload,
seed, pass count, spec hashes, each job's report digest and, untraced, the
raw times and host speed of every pass.  The last holds
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the
end-to-end metrics of ``BENCHMARK.json`` (medians over passes), with
``--trace 1`` its per-layer metrics: medians over traced passes that follow
one untraced pass, and the values of one traced set-up under a ``setup.``
prefix.  Traced runs report raw times and sample no host speed.  A traced run
also writes its layer share table to
``.perfbench_out/layers_<workload>.json`` and prints it to standard error.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("model_geometry", "dense_orders", "numeric_checks")
SETUP_REPEATS = 3


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    digests: dict
    failed: int
    artifacts: list
    window: hostspeed.Window = None  # untraced runs: the pass's raw times and host speed


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_pass(plan, tracer, sampler=None) -> PassResult:
    """Run every job once.  Outputs are kept for their term counts in traced runs only.

    With a ``sampler`` the pass's times are in reference seconds (see
    ``hostspeed``); without one they are raw.
    """
    digests, artifacts, failed = {}, [], 0
    gc.collect()  # every pass starts from the same heap
    mark = sampler.mark() if sampler else None
    cpu0 = _cpu_seconds()
    t0 = perf_counter()
    for job in plan.jobs:
        try:
            digest, art = job.run(tracer)
        except Exception:  # a failing job is counted, reported, and the run goes on
            failed += 1
            digests[job.name] = None
            print(f"job {job.name} failed:\n{traceback.format_exc()}", file=sys.stderr)
        else:
            digests[job.name] = digest
            if tracer.enabled:
                artifacts.append(art)
        art = None  # free this job's outputs before the next job runs
    if sampler is None:
        wall = perf_counter() - t0
        return PassResult(wall, _cpu_seconds() - cpu0, digests, failed, artifacts)
    window = sampler.window(mark)
    return PassResult(window.ref_wall_s, window.ref_cpu_s, digests, failed, artifacts, window)


class Tally:
    """Jobs attempted and failed; a digest that differs from the first pass fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = None

    def add(self, result: PassResult) -> None:
        self.attempted += len(result.digests)
        self.failed += result.failed
        if self.reference is None:
            self.reference = result.digests
            return
        for name, digest in result.digests.items():
            if digest is not None and digest != self.reference[name]:
                self.failed += 1
                print(f"job {name}: report digest differs from the first pass", file=sys.stderr)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def repeat_until(seconds: float, step, start: float) -> list:
    """Call ``step()`` at least once, and again while it would end by ``start + seconds``."""
    out, durations = [], []
    while True:
        t0 = perf_counter()
        out.append(step())
        durations.append(perf_counter() - t0)
        if perf_counter() + statistics.median(durations) > start + seconds:
            return out


def shares(self_s: dict, kinds: dict, total: float) -> list:
    return [
        {"layer": name, "kind": kinds[name], "self_s": t, "share": t / total}
        for name, t in sorted(self_s.items(), key=lambda kv: -kv[1])
    ]


def span_values(tracer) -> dict:
    """Self times, call counts and counters the tracer holds, by metric name."""
    values = {f"{name}_s": t for name, t in tracer.self_s.items()}
    values.update({f"{name}_calls": c for name, c in tracer.calls.items()})
    values.update(tracer.counts)
    return values


def measure_traced(bergman, spans, workloads, plan, args, tally: Tally):
    """One untraced pass, one traced set-up, then traced passes.

    Returns the per-layer metrics (medians over traced passes, plus the
    traced set-up's values under a ``setup.`` prefix) and the share table.
    """
    start = perf_counter()
    untraced = run_pass(plan, spans.NullTracer())
    tally.add(untraced)
    tracer = spans.install(bergman)
    try:
        t0 = perf_counter()
        workloads.make_plan(args.workload, args.seed, args.smoke, OUT / args.workload, tracer)
        setup_wall = perf_counter() - t0
        setup_self = dict(tracer.self_s)
        setup_values = {f"setup.{k}": v for k, v in span_values(tracer).items()}
        setup_values["setup.traced_wall_s"] = setup_wall

        def traced_pass():
            tracer.reset()
            result = run_pass(plan, tracer)
            tally.add(result)
            values = span_values(tracer)
            values.update(workloads.layer_counts(result.artifacts))
            values["bench.traced_wall_s"] = result.wall_s
            values["bench.untraced_s"] = result.wall_s - tracer.layer_self_s()
            return values

        samples = repeat_until(args.seconds, traced_pass, start)
    finally:
        tracer.uninstall()
    per_layer = {
        name: statistics.median(s.get(name, 0) for s in samples)
        for name in set().union(*samples)
    }
    per_layer.update(setup_values)
    per_layer["trace.overhead_s"] = per_layer["bench.traced_wall_s"] - untraced.wall_s
    per_layer["failed_frac"] = tally.failed / tally.attempted
    wall = per_layer["bench.traced_wall_s"]
    table = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "environment": environment(),
        "traced_passes": len(samples),
        "untraced_pass_wall_s": untraced.wall_s,
        "traced_pass_wall_s": wall,
        "untraced_s": per_layer["bench.untraced_s"],
        "overhead_s": per_layer["trace.overhead_s"],
        "pass_layers": shares(
            {name: per_layer[f"{name}_s"] for name in tracer.kinds if f"{name}_s" in per_layer},
            tracer.kinds,
            wall,
        ),
        "setup_wall_s": setup_wall,
        "setup_layers": shares(setup_self, tracer.kinds, setup_wall),
        "counts": {
            k: v for k, v in sorted(per_layer.items())
            if not k.endswith("_s") and not k.startswith("setup.")
        },
    }
    return per_layer, table, untraced


def print_share_table(table: dict) -> None:
    def line(prefix, row):
        print(
            f"  {prefix}{row['layer']:<40} {row['kind']:<5} {row['self_s']:9.4f} s "
            f"{100 * row['share']:6.1f}%",
            file=sys.stderr,
        )

    print(
        f"layer shares, {table['workload']} seed {table['seed']}: traced pass "
        f"{table['traced_pass_wall_s']:.3f} s (median of {table['traced_passes']}), "
        f"untraced pass {table['untraced_pass_wall_s']:.3f} s, "
        f"covered by no layer {table['untraced_s']:.4f} s",
        file=sys.stderr,
    )
    for row in table["pass_layers"]:
        line("", row)
    print(f"  set-up, traced: {table['setup_wall_s']:.3f} s", file=sys.stderr)
    for row in table["setup_layers"]:
        line("setup ", row)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny sizes for the benchmark's own tests; not for measurement",
    )
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.trace:
        return measure(args, None)
    sampler = hostspeed.SpeedSampler()
    sampler.start()
    try:
        return measure(args, sampler)
    finally:
        sampler.stop()


def measure(args, sampler) -> int:
    """Import, set up and run one workload; ``sampler`` is None in traced runs."""
    src = ROOT / "src"
    if not (src / "bergman" / "__init__.py").is_file():
        print(f"error: no bergman package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    import_mark = sampler.mark() if sampler else None
    sys.path.insert(0, str(src))
    import bergman

    if Path(bergman.__file__).resolve().parent != (src / "bergman").resolve():
        print(f"error: imported bergman from {bergman.__file__}, not from {src}", file=sys.stderr)
        return 2
    import spans
    import workloads

    import_window = sampler.window(import_mark) if sampler else None
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)

    setup_windows = []
    for _ in range(SETUP_REPEATS):
        mark = sampler.mark() if sampler else None
        plan = workloads.make_plan(
            args.workload, args.seed, args.smoke, OUT / args.workload, spans.NullTracer()
        )
        if sampler:
            setup_windows.append(sampler.window(mark))

    tally = Tally()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "spec_sha256": [s.sha256() for s in plan.specs],
    }
    if args.trace:
        per_layer, table, untraced = measure_traced(bergman, spans, workloads, plan, args, tally)
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"layers_{args.workload}.json", "w") as fh:
            json.dump(table, fh, indent=2)
            fh.write("\n")
        print_share_table(table)
        info["traced_passes"] = table["traced_passes"]
        info["job_digests"] = untraced.digests
        metrics = {
            m["name"]: {"value": per_layer.get(m["name"], 0), "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    else:
        results = repeat_until(args.seconds, lambda: run_pass(plan, spans.NullTracer(), sampler), perf_counter())
        for result in results:
            tally.add(result)
        values = {
            "setup_s": import_window.ref_wall_s + statistics.median(w.ref_wall_s for w in setup_windows),
            "wall_s": statistics.median(r.wall_s for r in results),
            "cpu_s": statistics.median(r.cpu_s for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        info.update({
            "passes": len(results),
            "reference_rate": hostspeed.REFERENCE_RATE,
            "import_raw_s": import_window.wall_s,
            "setup_raw_s": [w.wall_s for w in setup_windows],
            "pass_wall_s": [r.wall_s for r in results],
            "pass_cpu_s": [r.cpu_s for r in results],
            "pass_raw_wall_s": [r.window.wall_s for r in results],
            "pass_raw_cpu_s": [r.window.cpu_s for r in results],
            "pass_host_speed": [r.window.speed_wall for r in results],
            "pass_samples": [r.window.samples for r in results],
            "job_digests": results[0].digests,
        })
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    if plan.state is not None:
        info["max_kernel_gap"] = plan.state.max_gap
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
