"""The benchmark still runs against the current sources.

perfbench/tracer.py wraps public functions of gvfpath by module attribute or
class-dict entry, and perfbench/workloads.py builds its inputs from the
scenario and CLI API.  A rename or move of one of them breaks benchmark runs,
so these tests install and remove the tracer, set up every workload and bind
the workloads' timed calls to the current signatures.
"""

import inspect
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


def test_workload_calls_bind():
    # The argument shapes of the calls in the workloads' run_round and check;
    # a removed keyword or positional parameter fails to bind.
    sim, analysis, cli = gvfpath.sim, gvfpath.analysis, gvfpath.cli

    def bind(fn, *args, **kwargs):
        inspect.signature(fn).bind(*args, **kwargs)

    bind(sim.trace_batch, "path", "errmap", 3.0, "starts", "mode", 0.005, 1.0,
         u_r=50.0, stop="stop", critical_points="crit", record=None)
    bind(analysis.find_critical_points, "path", region="region")
    bind(cli.export_field_grid, *range(7))
    bind(cli.run_scenario, "scn", "out_dir")
    bind(cli.write_critical_report, "scn", "out_file")
    bind(cli.basin_sweep, "scn", "out_file")
    bind(cli.compare_controllers, "scn", "out_dir")
