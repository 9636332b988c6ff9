import csv
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from gvfpath import (
    ERROR_MAPS,
    PATH_KINDS,
    ArctanPower,
    CassiniPath,
    CirclePath,
    EllipsePath,
    GvfParams,
    IdentityMap,
    LinePath,
    PolynomialPath,
    RationalSignPower,
    Region,
    StopPolicy,
)
from gvfpath import analysis
from gvfpath.cli import (
    basin_sweep,
    compare_controllers,
    export_field_grid,
    first_touch_index,
    main,
    run_scenario,
    write_critical_report,
)
from gvfpath.scenario import (
    BasinSpec,
    CompareSpec,
    ConfigError,
    FieldGridSpec,
    bundled_config_text,
    bundled_scenario,
    parse_scenario,
    serialize_scenario,
)

BUNDLED = ["ellipse_experiment.cfg", "cassini_experiment.cfg", "comparison_experiment.cfg"]
ELLIPSE = bundled_config_text("ellipse_experiment.cfg")

SMALL_SCENARIO = """
[scenario]
name = smoke
controller = gvf
u_r = 50.0
dt = 0.01
t_max = 4.0

[path]
kind = ellipse
x0 = 600.0
y0 = 350.0
R = 400.0
p = 1.0
q = 0.5
k_s = 1e-05

[error_map]
kind = identity

[controller.gvf]
k_n = 3.0
k_delta = 2.0

[initial_poses]
a = 980.0 350.0 -1.4
"""


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_round_trip(name):
    text = bundled_config_text(name)
    scn = parse_scenario(text)
    assert serialize_scenario(scn) == text          # canonical byte form
    assert parse_scenario(serialize_scenario(scn)) == scn


def test_bundled_experiment_parameters():
    scn = bundled_scenario("ellipse_experiment.cfg")
    assert scn.path == EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5,
                                   k_s=1e-5)
    assert scn.errmap == IdentityMap()
    assert scn.gvf.k_n == 3.0 and scn.gvf.k_delta == 2.0 and scn.u_r == 50.0
    assert scn.dt == 0.005 and scn.t_max == 120.0
    assert [label for label, _ in scn.poses] == ["a", "b", "c", "d"]
    assert scn.poses[0][1].x == 472.0

    cmp_scn = bundled_scenario("comparison_experiment.cfg")
    assert cmp_scn.los.lookahead == 70.0 and cmp_scn.los.k_los == 2.0
    assert cmp_scn.ngl.radius == 40.0 and cmp_scn.ngl.k_r == 2.0
    start = cmp_scn.poses[0][1]
    assert (start.x, start.y, start.alpha) == (200.0, 450.0, 0.0278)


@pytest.mark.parametrize("mutation,needle", [
    ("[scenario]", "section headers"),       # configparser points at the line
    ("[initial_poses]\na = 980.0 350.0 -1.4", "initial_poses"),
    ("[error_map]\nkind = identity", "error_map"),
    ("kind = ellipse", "path"),
])
def test_parse_errors_name_the_offender(mutation, needle):
    broken = SMALL_SCENARIO.replace(mutation, "")
    with pytest.raises(ConfigError) as err:
        parse_scenario(broken)
    assert needle in str(err.value)


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="u_r"):
        parse_scenario(SMALL_SCENARIO.replace("u_r = 50.0", "u_r = fast"))
    with pytest.raises(ConfigError, match="initial_poses"):
        parse_scenario(SMALL_SCENARIO.replace("980.0 350.0 -1.4", "980.0 350.0"))
    with pytest.raises(ConfigError, match="controller"):
        parse_scenario(SMALL_SCENARIO.replace("controller = gvf",
                                              "controller = pid"))
    with pytest.raises(ConfigError, match="negative|R"):
        parse_scenario(SMALL_SCENARIO.replace("R = 400.0", "R = -400.0"))


LOS = "[controller.los]\nlookahead = 70.0\nk_los = 2.0\n"

# Edits of the bundled ellipse config that must fail to load: (text replaced,
# replacement, CLI verb, what the message must contain: section and key).
INVALID = [
    pytest.param("k_n = 3.0", "k_n = nan", "simulate", "[controller.gvf] k_n",
                 id="k_n-nan"),
    pytest.param("u_r = 50.0", "u_r = nan", "simulate", "[scenario] u_r", id="u_r-nan"),
    pytest.param("t_max = 120.0", "t_max = inf", "simulate", "[scenario] t_max",
                 id="t_max-inf"),
    pytest.param("t_max = 600.0", "t_max = inf", "basin", "[basin] t_max",
                 id="basin-t_max-inf"),
    pytest.param("tol_d = 2.0", "tol_d = nan", "simulate", "[stop] tol_d",
                 id="tol_d-nan"),
    pytest.param("t_dwell = 5.0", "t_dwel = 5.0", "simulate", "[stop] t_dwel",
                 id="t_dwel"),
    pytest.param("[stop]", "[controler.ngl]\nradius = 40.0\nk_r = 2.0\n\n[stop]",
                 "simulate", "[controler.ngl]", id="controler.ngl"),
    pytest.param("headings = 4", "headings = 0", "basin", "[basin] headings",
                 id="headings-0"),
    pytest.param("R = 400.0", "R = nan", "simulate", "[path] ellipse: R", id="R-nan"),
    pytest.param("x0 = 600.0", "x0 = inf", "simulate", "[path] ellipse: x0",
                 id="x0-inf"),
    pytest.param("kind = ellipse", "kind = superellipse", "simulate",
                 "[path] kind must be one of", id="path-kind"),
    pytest.param("k_s = 1e-05", "k_s = 1e-05\nbogus = 2.0", "simulate",
                 "[path] bogus is not a known key", id="path-bogus"),
    # region is a field of the line and polynomial paths only.
    pytest.param("k_s = 1e-05", "k_s = 1e-05\nregion = 0.0 1280.0 0.0 720.0",
                 "simulate", "[path] region is not a known key", id="ellipse-region"),
    pytest.param("kind = identity", "kind = tanh", "simulate",
                 "[error_map] kind must be one of", id="error_map-kind"),
    pytest.param("kind = identity", "kind = identity\np = 2.0", "simulate",
                 "[error_map] p is not a known key", id="identity-p"),
    # The first region of the file is the one in [field_grid].
    pytest.param("region = 0.0 1280.0 0.0 720.0", "region = 0.0 inf 0.0 720.0",
                 "field", "[field_grid] region", id="field_grid-region-inf"),
    pytest.param("t_max = 600.0\nregion = 0.0 1280.0 0.0 720.0",
                 "t_max = 600.0\nregion = 0.0 inf 0.0 720.0", "basin",
                 "[basin] region", id="basin-region-inf"),
    pytest.param("[stop]", LOS + "direction = sideways\n\n[stop]", "simulate",
                 "[controller.los] direction must be forward or reverse",
                 id="direction-sideways"),
    # The name and the labels name output files, which stay in the output
    # directory.
    pytest.param("name = ellipse_experiment", "name = ../escaped", "simulate",
                 "[scenario] name must be a file name", id="name-parent"),
    pytest.param("name = ellipse_experiment", "name = ..", "critical",
                 "[scenario] name must be a file name", id="name-dotdot"),
    pytest.param("name = ellipse_experiment", "name = out\\escaped", "simulate",
                 "[scenario] name must be a file name", id="name-backslash"),
    pytest.param("name = ellipse_experiment", "name =", "simulate",
                 "[scenario] name must be a file name", id="name-empty"),
    pytest.param("a = 472.0", "x/y = 472.0", "simulate",
                 "[initial_poses] label must be a file name", id="label-slash"),
    pytest.param("a = 472.0", ". = 472.0", "simulate",
                 "[initial_poses] label must be a file name", id="label-dot"),
]


@pytest.mark.parametrize("old,new,verb,needle", INVALID)
def test_invalid_config_names_section_and_key(old, new, verb, needle, tmp_path, capsys):
    assert old in ELLIPSE
    text = ELLIPSE.replace(old, new, 1)
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert needle in str(err.value)

    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main([verb, str(cfg), "-o", str(tmp_path / "out")]) == 2
    stderr = capsys.readouterr().err
    assert stderr.startswith("error:") and needle in stderr
    assert "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == [cfg]


# One instance of every path kind and error map, each with a field value
# that differs from its default.
PATH_SAMPLES = {
    "line": LinePath(a=0.25, b=1.0, c=-350.0, region=Region(-100.0, 1400.0, -50.0, 800.0)),
    "circle": CirclePath(x0=640.0, y0=360.0, radius=250.0, k_s=0.5),
    "ellipse": EllipsePath(x0=600.0, y0=350.0, R=400.0, p=1.0, q=0.5, k_s=1e-5),
    "cassini": CassiniPath(x0=600.0, y0=350.0, p=330.0, q=300.0, k_s=1e-10),
    "polynomial": PolynomialPath(terms=((2, 0, 1.0), (0, 2, 4.0), (0, 0, -1.5e4)),
                                 region=Region(-500.0, 500.0, -300.0, 300.0)),
}
ERROR_MAP_SAMPLES = {
    "identity": IdentityMap(),
    "arctan_power": ArctanPower(2.5),
    "rational_sign_power": RationalSignPower(3.0),
}


def test_samples_cover_every_kind():
    assert PATH_SAMPLES.keys() == PATH_KINDS.keys()
    assert ERROR_MAP_SAMPLES.keys() == ERROR_MAPS.keys()


@pytest.mark.parametrize("section,attr,kind,value", [
    *(pytest.param("path", "path", kind, v, id=f"path-{kind}")
      for kind, v in PATH_SAMPLES.items()),
    *(pytest.param("error_map", "errmap", kind, v, id=f"error_map-{kind}")
      for kind, v in ERROR_MAP_SAMPLES.items()),
])
def test_every_kind_round_trips(section, attr, kind, value):
    scn = dataclasses.replace(parse_scenario(SMALL_SCENARIO), **{attr: value})
    text = serialize_scenario(scn)
    body = text.split(f"[{section}]\n")[1].split("\n\n")[0].splitlines()
    assert body[0] == f"kind = {kind}"
    # kind, then every field of the class, in field order.
    assert [line.split(" = ")[0] for line in body[1:]] == [
        f.name for f in dataclasses.fields(value)]
    back = parse_scenario(text)
    assert getattr(back, attr) == value and back == scn
    assert serialize_scenario(back) == text


def test_terms_text_form():
    text = SMALL_SCENARIO.replace(
        "kind = ellipse", "kind = polynomial\nterms = 2 0 1.0, 0 2 4.0 , 0 0 -1.5e4")
    text = "\n".join(line for line in text.splitlines()
                     if line.split(" = ")[0] not in ("x0", "y0", "R", "p", "q", "k_s"))
    scn = parse_scenario(text)
    assert scn.path == PolynomialPath(terms=((2, 0, 1.0), (0, 2, 4.0), (0, 0, -15000.0)))
    assert "terms = 2 0 1.0, 0 2 4.0, 0 0 -15000.0\n" in serialize_scenario(scn)
    for bad, needle in [("2 0", "each term is 'i j c'"),
                        ("2.5 0 1.0", "must be an integer"),
                        ("2 0 one", "is not a number")]:
        with pytest.raises(ConfigError, match=r"\[path\] terms") as err:
            parse_scenario(text.replace("2 0 1.0,", bad + ","))
        assert needle in str(err.value)


def test_section_defaults_and_checks_live_in_the_dataclasses():
    scn = parse_scenario(SMALL_SCENARIO + "\n[field_grid]\nnx = 3\nny = 3\n"
                         "\n[basin]\nnx = 5\nny = 5\n\n[compare]\n")
    assert scn.field_grid == FieldGridSpec(nx=3, ny=3)
    assert scn.basin == BasinSpec(nx=5, ny=5)
    assert scn.compare == CompareSpec()
    assert scn.stop == StopPolicy()
    # A direct caller gets the checks the parser applies.
    for make in (lambda: GvfParams(k_n=math.nan, k_delta=2.0, u_r=50.0),
                 lambda: StopPolicy(tol_d=math.nan),
                 lambda: BasinSpec(nx=5, ny=5, headings=0),
                 lambda: FieldGridSpec(nx=1, ny=5),
                 lambda: CompareSpec(controllers=("gvf", "pid"))):
        with pytest.raises(ValueError):
            make()


def test_run_scenario_outputs_are_deterministic(tmp_path):
    scn = parse_scenario(SMALL_SCENARIO)
    a, b = tmp_path / "a", tmp_path / "b"
    run_scenario(scn, a)
    run_scenario(scn, b)
    for name in ("smoke_a.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    header = (a / "smoke_a.csv").read_text().splitlines()[0]
    assert header == "t,x,y,alpha,e,delta,omega_d,omega,dist_path"


def test_run_scenario_with_los_controller(tmp_path):
    text = (SMALL_SCENARIO
            .replace("controller = gvf", "controller = los")
            .replace("t_max = 4.0", "t_max = 2.0")
            + "b = 200.0 450.0 0.0278\n"
            + "\n[controller.los]\nlookahead = 70.0\nk_los = 2.0\n")
    scn = parse_scenario(text)
    summaries = run_scenario(scn, tmp_path / "both")
    assert [s.label for s in summaries] == ["a", "b"]
    # Each run of the batch writes what it writes when run alone.
    for label, pose in scn.poses:
        alone = tmp_path / label
        run_scenario(dataclasses.replace(scn, poses=((label, pose),)), alone)
        name = f"smoke_{label}.csv"
        assert (tmp_path / "both" / name).read_bytes() == (alone / name).read_bytes()


def test_error_map_with_power_round_trips():
    text = SMALL_SCENARIO.replace("kind = identity",
                                  "kind = arctan_power\np = 2.0")
    scn = parse_scenario(text)
    from gvfpath import ArctanPower
    assert scn.errmap == ArctanPower(2.0)
    assert parse_scenario(serialize_scenario(scn)) == scn


def test_compare_same_controller_twice_identical(tmp_path):
    text = SMALL_SCENARIO + "\n[compare]\ncontrollers = gvf gvf\n"
    scn = parse_scenario(text)
    rows = compare_controllers(scn, tmp_path)
    assert len(rows) == 2
    assert rows[0] == rows[1]
    gvf_bytes = (tmp_path / "compare_gvf.csv").read_bytes()
    assert len(gvf_bytes) > 0


def test_compare_needs_exactly_one_pose(tmp_path):
    text = SMALL_SCENARIO.replace("a = 980.0 350.0 -1.4",
                                  "a = 980.0 350.0 -1.4\nb = 600.0 250.0 0.0")
    scn = parse_scenario(text + "\n[compare]\ncontrollers = gvf\n")
    assert len(scn.poses) == 2
    with pytest.raises(ConfigError, match="one initial pose; .* has 2"):
        compare_controllers(scn, tmp_path / "c")
    assert not (tmp_path / "c").exists()
    cfg = tmp_path / "two.cfg"
    cfg.write_text(text + "\n[compare]\ncontrollers = gvf\n")
    assert main(["compare", str(cfg), "-o", str(tmp_path / "c")]) == 2


def test_field_grid_ellipse_flags_center(tmp_path, ellipse, identity):
    out = tmp_path / "grid.csv"
    flagged = export_field_grid(ellipse, identity, 3.0,
                                Region(0.0, 1280.0, 0.0, 720.0), 40, 40, out)
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 1600
    assert flagged == 1
    bad = [r for r in rows if r["regular"] == "0"]
    assert len(bad) == 1
    assert math.hypot(float(bad[0]["x"]) - 600.0, float(bad[0]["y"]) - 350.0) < 20.0
    good = [r for r in rows if r["regular"] == "1"]
    norms = [math.hypot(float(r["m_d_x"]), float(r["m_d_y"])) for r in good]
    assert max(abs(n - 1.0) for n in norms) < 1e-9


def test_cli_field_uses_degeneracy_eps(tmp_path):
    # 0.5 is above |grad phi| at every node of the grid, so every node is
    # degenerate, as every simulate start is with this threshold.
    cfg = tmp_path / "eps.cfg"
    cfg.write_text(ELLIPSE.replace("degeneracy_eps = 1e-09", "degeneracy_eps = 0.5"))
    assert main(["field", str(cfg), "-o", str(tmp_path)]) == 0
    rows = list(csv.DictReader(open(tmp_path / "field_grid.csv")))
    assert len(rows) == 1600
    assert all(r["regular"] == "0" for r in rows)


def _clusters(points, radius):
    points = [tuple(p) for p in points]
    seen, groups = set(), 0
    for p in points:
        if p in seen:
            continue
        groups += 1
        stack = [p]
        while stack:
            q = stack.pop()
            if q in seen:
                continue
            seen.add(q)
            stack.extend(r for r in points
                         if r not in seen
                         and math.hypot(r[0] - q[0], r[1] - q[1]) <= radius)
    return groups


def test_field_grid_cassini_three_neighborhoods(tmp_path, cassini, identity):
    out = tmp_path / "grid.csv"
    export_field_grid(cassini, identity, 3.0, Region(0.0, 1280.0, 0.0, 720.0),
                      100, 100, out)
    rows = list(csv.DictReader(open(out)))
    assert len(rows) == 10000
    bad = [(float(r["x"]), float(r["y"])) for r in rows if r["regular"] == "0"]
    # Flagged nodes cluster into one neighborhood per critical point.
    assert _clusters(bad, radius=20.0) == 3


def test_field_grid_line_all_regular(tmp_path, line_y0, identity):
    out = tmp_path / "grid.csv"
    flagged = export_field_grid(line_y0, identity, 3.0,
                                Region(-100.0, 100.0, -100.0, 100.0), 10, 10, out)
    assert flagged == 0
    rows = list(csv.DictReader(open(out)))
    assert all(r["regular"] == "1" for r in rows)


def test_first_touch_index_logic():
    e = np.array([0.5, 0.2, -0.1, -0.2])
    d = np.array([9.0, 9.0, 9.0, 9.0])
    assert first_touch_index(e, d) == 2
    assert first_touch_index(np.array([1.0, 0.5]), np.array([3.0, 0.3])) == 1
    assert first_touch_index(np.array([1.0, 0.5]), np.array([3.0, 3.0])) is None


def test_basin_sweep_small_grid(tmp_path):
    text = SMALL_SCENARIO + (
        "\n[basin]\nnx = 5\nny = 5\nheadings = 2\nt_max = 200.0\n"
        "region = 200.0 1000.0 100.0 600.0\n")
    scn = parse_scenario(text)
    rep = basin_sweep(scn, tmp_path / "basin.csv")
    # The 5x5 grid puts one node on the critical point itself; it is excluded
    # from the sweep for both headings.
    assert rep.total == 48
    assert set(rep.fractions) <= {"converged_to_path", "reached_critical_set"}
    assert rep.fractions.get("converged_to_path", 0.0) > 0.9
    lines = (tmp_path / "basin.csv").read_text().splitlines()
    assert len(lines) == rep.total + 1


def test_basin_sweep_grid_inside_critical_ball_is_empty(tmp_path):
    # Starts inside the critical-set neighborhood are excluded up front, so a
    # grid entirely within it yields an empty sweep.
    text = SMALL_SCENARIO + (
        "\n[basin]\nnx = 3\nny = 3\nheadings = 1\nt_max = 10.0\n"
        "region = 599.7 600.3 349.7 350.3\n")
    rep = basin_sweep(parse_scenario(text), tmp_path / "basin.csv")
    assert rep.total == 0
    assert rep.fractions == {}


def test_critical_set_is_searched_once_per_path(tmp_path, monkeypatch):
    # Every verb reads the critical set of the one path object: the search
    # runs on the first read only.
    calls = []
    search = analysis.find_critical_points
    monkeypatch.setattr(analysis, "find_critical_points",
                        lambda *a, **kw: calls.append(1) or search(*a, **kw))
    scn = parse_scenario(SMALL_SCENARIO.replace("t_max = 4.0", "t_max = 0.5"))
    scn = dataclasses.replace(
        scn, basin=BasinSpec(nx=3, ny=2, headings=1, t_max=0.5),
        compare=CompareSpec(controllers=("gvf",)))
    run_scenario(scn, tmp_path / "run")
    export_field_grid(scn.path, scn.errmap, 3.0, scn.path.region, 4, 4,
                      tmp_path / "field_grid.csv")
    write_critical_report(scn, tmp_path / "crit.txt")
    basin_sweep(scn, tmp_path / "basin.csv")
    compare_controllers(scn, tmp_path / "compare")
    assert len(calls) == 1
    # .points is a new array each time, so no caller can write to the cache.
    pts = scn.path.critical_set.points
    pts += 1.0
    assert np.array_equal(scn.path.critical_set.points, pts - 1.0)


def test_critical_report_file(tmp_path):
    scn = parse_scenario(SMALL_SCENARIO)
    points = write_critical_report(scn, tmp_path / "crit.txt")
    text = (tmp_path / "crit.txt").read_text()
    assert len(points) == 1
    assert "classification = repulsive" in text
    assert "e_c = 1.6" in text


def test_cli_main_happy_and_error_paths(tmp_path, capsys):
    cfg = tmp_path / "smoke.cfg"
    cfg.write_text(SMALL_SCENARIO)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "summary.csv").exists()

    assert main(["simulate", str(tmp_path / "missing.cfg")]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL_SCENARIO.replace("kind = ellipse", "kind = moebius"))
    assert main(["simulate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err

    grid_cfg = tmp_path / "nogrid.cfg"
    grid_cfg.write_text(SMALL_SCENARIO)
    assert main(["field", str(grid_cfg), "-o", str(tmp_path / "fg")]) == 2


# The ellipse of SMALL_SCENARIO, expanded: 1e-5 (x - 600)^2 + 4e-5 (y - 350)^2 - 1.6.
POLYNOMIAL_PATH = """[path]
kind = polynomial
terms = 2 0 1e-05, 1 0 -0.012, 0 2 4e-05, 0 1 -0.028, 0 0 6.9
"""


def test_cli_simulate_polynomial_path(tmp_path, ellipse):
    # A polynomial path has no parametric form, so dist_path comes from the
    # rasterized zero contour; it agrees with the ellipse to about a cell.
    head, tail = SMALL_SCENARIO.split("[path]")
    cfg = tmp_path / "poly.cfg"
    cfg.write_text(head + POLYNOMIAL_PATH + "\n[" + tail.split("\n[", 1)[1])
    assert isinstance(parse_scenario(cfg.read_text()).path, PolynomialPath)
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "run")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "run" / "smoke_a.csv")))
    assert len(rows) > 100
    xy = np.array([[float(r["x"]), float(r["y"])] for r in rows])
    dist = np.array([float(r["dist_path"]) for r in rows])
    assert np.all(np.isfinite(dist))
    assert np.abs(dist - ellipse.distance_many(xy)).max() < 3.0


def test_cli_basin_and_compare_write_their_files(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_SCENARIO.replace("t_max = 4.0", "t_max = 1.0") + LOS
                   + "\n[controller.ngl]\nradius = 40.0\nk_r = 2.0\n"
                   "\n[basin]\nnx = 3\nny = 2\nheadings = 1\nt_max = 1.0\n"
                   "region = 300.0 900.0 100.0 300.0\n\n[compare]\n")
    assert main(["basin", str(cfg), "-o", str(tmp_path / "b")]) == 0
    lines = (tmp_path / "b" / "basin.csv").read_text().splitlines()
    assert lines[0] == "x,y,alpha,label,t_final" and len(lines) == 7
    assert main(["compare", str(cfg), "-o", str(tmp_path / "c")]) == 0
    rows = list(csv.DictReader(open(tmp_path / "c" / "comparison.csv")))
    assert [r["controller"] for r in rows] == ["gvf", "los", "ngl"]
    for name in ("gvf", "los", "ngl"):
        assert (tmp_path / "c" / f"compare_{name}.csv").stat().st_size > 0


def test_cli_rejects_non_finite_pose(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(SMALL_SCENARIO.replace("a = 980.0 350.0 -1.4", "a = nan 300.0 0.0"))
    with pytest.raises(ConfigError, match=r"\[initial_poses\] a"):
        parse_scenario(cfg.read_text())
    assert main(["simulate", str(cfg), "-o", str(tmp_path / "run")]) == 2
    assert "[initial_poses] a" in capsys.readouterr().err


def test_cli_accepts_bundled_config_name(tmp_path):
    golden = Path(__file__).resolve().parents[1] / "out" / "ellipse_experiment"
    assert main(["critical", "ellipse_experiment", "-o", str(tmp_path)]) == 0
    assert ((tmp_path / "critical_points.txt").read_bytes()
            == (golden / "critical_points.txt").read_bytes())
    assert main(["critical", "missing.cfg", "-o", str(tmp_path)]) == 2


def test_cli_check_passes():
    assert main(["check"]) == 0
