"""The benchmark still runs against the current sources.

perfbench/tracer.py wraps public functions of gvfpath by module attribute or
class-dict entry, and perfbench/workloads.py builds its inputs from the
scenario and CLI API.  A rename or move of one of them breaks benchmark runs,
so these tests install and remove the tracer and set up every workload.
"""

import pathlib

import numpy as np
import pytest

import gvfpath
import gvfpath.analysis  # noqa: F401  (the tracer wraps functions here)
import gvfpath.cli  # noqa: F401
import gvfpath.scenario  # noqa: F401

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def test_layer_tracer_installs_and_restores(monkeypatch, ellipse):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import LayerTracer, _layer_table

    table = _layer_table(gvfpath)
    originals = [owner.__dict__[attr] for owner, attr, _, _ in table]
    tracer = LayerTracer(gvfpath)
    # 17 spans; paths.point wraps the point method of each parametric class.
    assert len(tracer.stats) == 17
    assert len(table) == 20
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr, _, _ in table]
        assert all(w is not o for w, o in zip(wrapped, originals))
        ellipse.distance_many(np.zeros((5, 2)))
    finally:
        tracer.restore()

    assert tracer.stats["paths.distance_many"]["calls"] == 1
    assert tracer.stats["paths.distance_many"]["points"] == 5
    for (owner, attr, name, _), orig in zip(table, originals):
        assert owner.__dict__[attr] is orig, name


@pytest.mark.parametrize("name", ["experiment", "basin", "compare", "trace"])
def test_workload_sets_up(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import WORKLOADS

    WORKLOADS[name](ROOT, 1)
