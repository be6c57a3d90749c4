"""Span recorder for the benchmark's traced runs.

Tracing wraps module attributes and class methods of the ``bergman`` package
from outside, in the traced process only; the package itself is not changed.
Callers inside the package look these names up at call time (for example
``build_geometry`` finds ``invert_theta`` through the module globals), so
their inner steps are caught too.

Spans come in two kinds that are timed apart:

* ``layer`` spans are the pipeline functions and the benchmark's own report
  and cross-check steps.  They nest, and a layer's self time is its duration
  minus the time its child layer spans cover.  Self times of all layer spans
  in a pass add up to the traced part of the pass wall time.
* ``op`` spans are the series operations ``TruncatedSeries.compose`` and
  ``mul_trunc``, which run inside every layer.  They are timed against each
  other only and never take time away from a layer: ``series.compose_s`` is
  compose minus the products it makes, ``series.mul_trunc_s`` is every
  product.  They are a second, cross-cutting view of the same wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import defaultdict
from time import perf_counter


class NullTracer:
    """Stand-in for untraced runs: every hook does nothing."""

    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    """Collects self times, call counts and counters for one pass at a time."""

    enabled = True

    def __init__(self) -> None:
        self._stacks = {"layer": [], "op": []}
        self._patches: list = []
        self.kinds: dict = {}  # span name -> "layer" or "op"
        self.reset()

    def reset(self) -> None:
        self.self_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)

    # -- recording ------------------------------------------------------------

    def _enter(self, kind: str) -> float:
        self._stacks[kind].append(0.0)
        return perf_counter()

    def _leave(self, name: str, kind: str, t0: float) -> None:
        elapsed = perf_counter() - t0
        stack = self._stacks[kind]
        children = stack.pop()
        self.self_s[name] += elapsed - children
        self.calls[name] += 1
        self.kinds[name] = kind
        if stack:
            stack[-1] += elapsed

    @contextlib.contextmanager
    def span(self, name: str):
        """A layer span around a step of the benchmark's own code."""
        t0 = self._enter("layer")
        try:
            yield
        finally:
            self._leave(name, "layer", t0)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def layer_self_s(self) -> float:
        """Time covered by layer spans: the sum of their self times."""
        return sum(t for name, t in self.self_s.items() if self.kinds[name] == "layer")

    # -- wrappers -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, kind: str = "layer") -> None:
        """Replace ``owner.attr`` by a timed wrapper recorded as ``name``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = self._enter(kind)
            try:
                return original(*args, **kwargs)
            finally:
                self._leave(name, kind, t0)

        self._patch(owner, attr, original, timed)

    def wrap_compose(self, series_cls) -> None:
        """Time ``compose`` and count the power products it adds to its cache."""
        original = series_cls.compose

        @functools.wraps(original)
        def timed(series, args, cache=None, *rest, **kwargs):
            if cache is None:
                cache = {}
            before = len(cache)
            t0 = self._enter("op")
            try:
                return original(series, args, cache, *rest, **kwargs)
            finally:
                self._leave("series.compose", "op", t0)
                self.counts["series.compose_cache_entries"] += len(cache) - before

        self._patch(series_cls, "compose", original, timed)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# (module, attribute, span name) of every pipeline function the traced run
# wraps.  A function imported into a second module is wrapped there as well,
# under the same span name, so calls through either name are caught.
LAYER_TARGETS = (
    ("potential", "polarize", "potential.polarize"),
    ("potential", "build_theta", "potential.build_theta"),
    ("potential", "invert_theta", "potential.invert_theta"),
    ("potential", "build_delta0", "potential.build_delta0"),
    ("potential", "build_geometry", "potential.build_geometry_self"),
    ("coefficients", "bergman_coefficients", "coefficients.bergman_coefficients"),
    ("coefficients", "amplitude_from_b", "coefficients.amplitude_from_b"),
    ("coefficients", "derivative_norm_table", "coefficients.derivative_norm_table"),
    ("transport", "first_amplitude", "transport.first_amplitude"),
    ("transport", "next_amplitude", "transport.next_amplitude"),
    ("transport", "transport_chain", "transport.transport_chain"),
    ("transport", "reconstruct_coefficients", "transport.reconstruct_coefficients"),
    ("kernel", "eval_KN", "kernel.eval_KN"),
    ("kernel", "eval_KN_chsc_closed", "kernel.eval_KN_chsc_closed"),
    ("kernel", "log_asymptotic_fit", "kernel.log_asymptotic_fit"),
    ("kernel", "chsc_coefficients", "chsc.chsc_coefficients"),
    ("chsc", "chsc_coefficients", "chsc.chsc_coefficients"),
    ("growth", "worst_case_norm_table", "growth.worst_case_norm_table"),
    ("growth", "fit_growth", "growth.fit_growth"),
    ("growth", "truncation_minimizer", "growth.truncation_minimizer"),
)


def install(package) -> Tracer:
    """Wrap the pipeline and series layers of ``package`` (``bergman``).

    A target the package no longer has is skipped, and its metrics read 0.
    """
    tracer = Tracer()
    for module_name, attr, name in LAYER_TARGETS:
        module = importlib.import_module(f"{package.__name__}.{module_name}")
        if hasattr(module, attr):
            tracer.wrap(module, attr, name)
    series = importlib.import_module(f"{package.__name__}.series")
    transport = importlib.import_module(f"{package.__name__}.transport")
    tracer.wrap_compose(series.TruncatedSeries)
    tracer.wrap(series, "mul_trunc", "series.mul_trunc", kind="op")
    if hasattr(transport, "mul_trunc"):
        tracer.wrap(transport, "mul_trunc", "series.mul_trunc", kind="op")
    tracer.wrap(series.TruncatedSeries, "invert", "series.invert", kind="op")
    return tracer
