"""Regenerate the tracked experiment outputs and compare them byte for byte.

`out/<scenario>/` holds what `simulate`, `field` and `critical` write for the
two bundled experiment scenarios.  Any change to the numbers they contain
shows up here as a differing file.
"""

from pathlib import Path

import pytest

from gvfpath.cli import export_field_grid, run_scenario, write_critical_report
from gvfpath.scenario import bundled_scenario

GOLDEN = Path(__file__).resolve().parents[1] / "out"


@pytest.mark.parametrize("name", ["ellipse_experiment", "cassini_experiment"])
def test_outputs_match_goldens(name, tmp_path):
    scn = bundled_scenario(f"{name}.cfg")
    run_scenario(scn, tmp_path)
    fg = scn.field_grid
    export_field_grid(scn.path, scn.errmap, scn.gvf.k_n, fg.region, fg.nx, fg.ny,
                      tmp_path / "field_grid.csv")
    write_critical_report(scn, tmp_path / "critical_points.txt")

    expected = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    assert len(expected) == 7
    for fname in expected:
        assert (tmp_path / fname).read_bytes() == (GOLDEN / name / fname).read_bytes(), fname
