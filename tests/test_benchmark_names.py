"""The names the benchmark harness reads from the package still exist.

``perfbench/spans.install`` skips a wrapped target the package no longer has,
and ``perfbench/workloads.layer_counts`` reads geometry attributes by name, so
a rename would leave a benchmark metric reading 0 instead of failing.
"""

import importlib
import importlib.util
from pathlib import Path

from bergman.potential import build_geometry, preset_quartic

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYER_TARGETS


def test_every_traced_layer_resolves_in_the_package():
    targets = _layer_targets()
    assert targets
    missing = [
        (module, attr) for module, attr, _ in targets
        if not callable(getattr(importlib.import_module(f"bergman.{module}"), attr, None))
    ]
    assert missing == []


def test_geometry_layers_the_benchmark_counts_are_readable():
    geom = build_geometry(preset_quartic(1, "1/10", 8))
    assert geom.psi.nvars == 2
    for name in ("theta", "z_of_theta"):
        assert len(getattr(geom, name)) == geom.n
    for name in ("delta0_xyz", "delta0_xytheta"):
        assert getattr(geom, name).constant_term == 1
