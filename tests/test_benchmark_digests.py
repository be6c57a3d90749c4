"""The benchmark's exact jobs still write the reports they wrote when their digests were pinned.

Loads ``perfbench/workloads.py`` and ``perfbench/spans.py`` from the checkout,
as ``test_benchmark_names`` loads ``spans.py``, and runs the seed-1 job lists of
the two exact workloads once each.  A job's digest is the SHA-256 of the
report files it writes, so a change to any exact series the pipeline builds,
or to the spec digest in each report, changes it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# job name -> report digest at seed 1, as `perfbench/run.py --seed 1` prints them
PINNED = {
    "model_geometry": {
        "job0": "2377bc3acc62f76e71d4edcf67402592773f35ba5449d10f8d2ba70090ceebfa",
        "job1": "039bf93d9b3f03e0ebb6b2a915a101c5ee059cff1b4d8c66f033be1b359e1908",
    },
    "dense_orders": {
        "job0": "badb835419dd4d65ae2a4578518cab4bcbe768450ebc84813b37763487fe6bb7",
        "job1": "dcbb8e371463402bd7e5967a6144d8c1cf22679bc1ab31cb70d997c0563761eb",
    },
}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_seed_one_job_digests_are_unchanged(workload, tmp_path, monkeypatch):
    workloads, spans = _load("workloads", monkeypatch), _load("spans", monkeypatch)
    plan = workloads.make_plan(workload, 1, False, tmp_path, spans.NullTracer())
    digests = {job.name: job.run(spans.NullTracer())[0] for job in plan.jobs}
    assert digests == PINNED[workload]
