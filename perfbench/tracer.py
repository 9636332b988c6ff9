"""Per-layer spans from wrappers around the public functions of gvfpath.

`LayerTracer.install` replaces each traced function (a module attribute or a
method in a class dict) with a wrapper that counts calls, counts the points
or rows it was handed, and accumulates self time: the span's duration minus
the duration of the wrapped calls nested inside it.  `restore` puts the
original functions back.  Nothing in gvfpath is changed on disk, and the
untraced end-to-end runs never see a wrapper.
"""

from __future__ import annotations

import functools
import time

import numpy as np


def _points(pos):
    return lambda args: int(np.size(args[pos])) // 2


def _size(pos):
    return lambda args: int(np.size(args[pos]))


def _rows(pos):
    return lambda args: len(args[pos])


def _layer_table(gvfpath):
    """(owner, attribute, span name, counter) for every traced function."""
    paths, field, ctl = gvfpath.paths, gvfpath.field, gvfpath.controllers
    sim, analysis, scenario, cli = (gvfpath.sim, gvfpath.analysis,
                                    gvfpath.scenario, gvfpath.cli)
    table = [(paths.ImplicitPath, "distance_many", "paths.distance_many",
              _points(1))]
    for cls in vars(paths).values():
        if (isinstance(cls, type) and issubclass(cls, paths.ImplicitPath)
                and "point" in cls.__dict__):
            table.append((cls, "point", "paths.point", _size(1)))
    table += [
        (field, "steering_arrays", "field.steering_arrays", _size(3)),
        (field, "field_arrays", "field.field_arrays", None),
        (ctl, "project_to_path", "controllers.project_to_path", None),
        (ctl, "los_sample", "controllers.los_sample", None),
        (ctl, "ngl_sample", "controllers.ngl_sample", None),
        (sim, "simulate", "sim.simulate", None),
        (sim, "simulate_gvf_batch", "sim.simulate_gvf_batch", None),
        (sim, "trace_batch", "sim.trace_batch", None),
        (analysis, "find_critical_points", "analysis.find_critical_points", None),
        (scenario, "bundled_scenario", "scenario.bundled_scenario", None),
        (cli, "write_trajectory_csv", "cli.write_trajectory_csv", _rows(1)),
        (cli, "export_field_grid", "cli.export_field_grid", None),
        (cli, "write_critical_report", "cli.write_critical_report", None),
        (cli, "basin_sweep", "cli.basin_sweep", None),
        (cli, "compare_controllers", "cli.compare_controllers", None),
    ]
    return table


class LayerTracer:
    """Call counts, point counts and self time per traced function."""

    def __init__(self, gvfpath):
        self._table = _layer_table(gvfpath)
        self.stats = {name: {"calls": 0, "points": 0, "self_s": 0.0}
                      for _, _, name, _ in self._table}
        self._open = []     # time of wrapped callees, one slot per open span
        self._saved = []

    def install(self):
        for owner, attr, name, count in self._table:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, self.stats[name], count))

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, orig, stat, count):
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(orig)
        def span(*args, **kwargs):
            if count is not None:
                stat["points"] += count(args)
            open_spans.append(0.0)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                dur = clock() - t0
                stat["self_s"] += dur - open_spans.pop()
                stat["calls"] += 1
                if open_spans:
                    open_spans[-1] += dur

        return span

    def total_self_s(self):
        return sum(s["self_s"] for s in self.stats.values())
