"""Scenario configs: parse and serialize the structured key-value format.

A scenario file is INI-style text with nested section names, e.g.

    [scenario]
    name = ellipse_experiment
    controller = gvf
    u_r = 50.0
    dt = 0.005
    t_max = 120.0

    [path]
    kind = ellipse          ; line | circle | ellipse | cassini | polynomial
    x0 = 600.0 ...

    [error_map]
    kind = identity         ; identity | arctan_power | rational_sign_power

    [controller.gvf]        ; gains of each law live in controller.<kind>
    k_n = 3.0
    k_delta = 2.0

    [stop]                  ; optional, defaults shown in StopPolicy
    [initial_poses]         ; label = x y alpha   (at least one)
    [field_grid] [basin] [compare]   ; optional, verb-specific

The parser and serializer are inverses: parse(serialize(s)) == s, and the
bundled configs are stored in canonical serialized form.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields
from importlib import resources

from .controllers import Direction, LosParams, NglParams
from .field import GvfParams
from .paths import _KINDS as _PATH_KINDS
from .paths import make_error_map, make_path
from .sim import Pose, StopPolicy
from .util import PADDED_WORKSPACE, Region


class ConfigError(ValueError):
    """Scenario file failed to parse or validate; message names section/key."""


@dataclass(frozen=True)
class FieldGridSpec:
    nx: int
    ny: int
    region: Region


@dataclass(frozen=True)
class BasinSpec:
    nx: int
    ny: int
    headings: int
    t_max: float
    region: Region


@dataclass(frozen=True)
class CompareSpec:
    controllers: tuple
    settle_threshold: float = 5.0
    steady_window: float = 20.0
    touch_eps: float = 0.5


@dataclass(frozen=True)
class Scenario:
    name: str
    controller: str
    u_r: float
    dt: float
    t_max: float
    path: object
    errmap: object
    gvf: GvfParams | None
    los: LosParams | None
    ngl: NglParams | None
    stop: StopPolicy
    poses: tuple  # ((label, Pose), ...)
    field_grid: FieldGridSpec | None = None
    basin: BasinSpec | None = None
    compare: CompareSpec | None = None

    def controller_params(self, kind=None):
        kind = self.controller if kind is None else kind
        params = {"gvf": self.gvf, "los": self.los, "ngl": self.ngl}[kind]
        if params is None:
            raise ConfigError(f"scenario has no [controller.{kind}] section")
        return params


def _want(cp, section, key):
    if not cp.has_option(section, key):
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return cp.get(section, key)


def _get_float(cp, section, key, default=None):
    if not cp.has_option(section, key):
        if default is None:
            raise ConfigError(f"[{section}] is missing required key {key!r}")
        return default
    raw = cp.get(section, key)
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} = {raw!r} is not a number") from None


def _get_int(cp, section, key, default=None):
    v = _get_float(cp, section, key, default)
    if v != int(v):
        raise ConfigError(f"[{section}] {key} must be an integer")
    return int(v)


def _parse_region(raw, where):
    parts = raw.split()
    if len(parts) != 4:
        raise ConfigError(f"{where}: region needs 'xmin xmax ymin ymax', got {raw!r}")
    try:
        return Region(*(float(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad region {raw!r}: {exc}") from None


def _parse_path(cp):
    if not cp.has_section("path"):
        raise ConfigError("missing [path] section")
    kind = _want(cp, "path", "kind").lower()
    params = {}
    for key, raw in cp.items("path"):
        if key == "kind":
            continue
        if key == "region":
            params["region"] = _parse_region(raw, "[path]")
        elif key == "terms":
            terms = []
            for chunk in raw.split(","):
                parts = chunk.split()
                if len(parts) != 3:
                    raise ConfigError(
                        f"[path] terms: each term is 'i j c', got {chunk.strip()!r}")
                terms.append((int(parts[0]), int(parts[1]), float(parts[2])))
            params["terms"] = tuple(terms)
        else:
            try:
                params[key] = float(raw)
            except ValueError:
                raise ConfigError(f"[path] {key} = {raw!r} is not a number") from None
    try:
        return make_path(kind, params)
    except Exception as exc:
        raise ConfigError(f"[path]: {exc}") from None


def _parse_errmap(cp):
    if not cp.has_section("error_map"):
        raise ConfigError("missing [error_map] section")
    kind = _want(cp, "error_map", "kind").lower()
    p = _get_float(cp, "error_map", "p", default=math.nan)
    try:
        return make_error_map(kind, None if math.isnan(p) else p)
    except Exception as exc:
        raise ConfigError(f"[error_map]: {exc}") from None


def _parse_direction(cp, section):
    raw = cp.get(section, "direction", fallback="forward").lower()
    try:
        return Direction(raw)
    except ValueError:
        raise ConfigError(
            f"[{section}] direction must be forward or reverse, got {raw!r}"
        ) from None


def parse_scenario(text):
    """Parse scenario text; raises ConfigError with section/key diagnostics."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from None

    if not cp.has_section("scenario"):
        raise ConfigError("missing [scenario] section")
    name = _want(cp, "scenario", "name")
    controller = cp.get("scenario", "controller", fallback="gvf").lower()
    if controller not in ("gvf", "los", "ngl"):
        raise ConfigError(f"[scenario] controller must be gvf/los/ngl, got {controller!r}")
    u_r = _get_float(cp, "scenario", "u_r")
    dt = _get_float(cp, "scenario", "dt")
    t_max = _get_float(cp, "scenario", "t_max")
    if u_r <= 0 or dt <= 0 or t_max <= 0:
        raise ConfigError("[scenario] u_r, dt and t_max must be positive")

    path = _parse_path(cp)
    errmap = _parse_errmap(cp)

    gvf = los = ngl = None
    if cp.has_section("controller.gvf"):
        try:
            gvf = GvfParams(
                k_n=_get_float(cp, "controller.gvf", "k_n"),
                k_delta=_get_float(cp, "controller.gvf", "k_delta"),
                u_r=u_r,
                degeneracy_eps=_get_float(cp, "controller.gvf", "degeneracy_eps", 1e-9),
            )
        except ValueError as exc:
            raise ConfigError(f"[controller.gvf]: {exc}") from None
    if cp.has_section("controller.los"):
        try:
            los = LosParams(
                lookahead=_get_float(cp, "controller.los", "lookahead"),
                k_los=_get_float(cp, "controller.los", "k_los"),
                direction=_parse_direction(cp, "controller.los"),
            )
        except ValueError as exc:
            raise ConfigError(f"[controller.los]: {exc}") from None
    if cp.has_section("controller.ngl"):
        try:
            ngl = NglParams(
                radius=_get_float(cp, "controller.ngl", "radius"),
                k_r=_get_float(cp, "controller.ngl", "k_r"),
                direction=_parse_direction(cp, "controller.ngl"),
            )
        except ValueError as exc:
            raise ConfigError(f"[controller.ngl]: {exc}") from None
    if {"gvf": gvf, "los": los, "ngl": ngl}[controller] is None:
        raise ConfigError(f"[scenario] selects {controller!r} but "
                          f"[controller.{controller}] is missing")

    stop = StopPolicy(**{f.name: _get_float(cp, "stop", f.name, f.default)
                         for f in fields(StopPolicy)})

    if not cp.has_section("initial_poses") or not cp.items("initial_poses"):
        raise ConfigError("[initial_poses] must list at least one pose")
    poses = []
    for label, raw in cp.items("initial_poses"):
        parts = raw.split()
        if len(parts) != 3:
            raise ConfigError(
                f"[initial_poses] {label}: expected 'x y alpha', got {raw!r}")
        try:
            poses.append((label, Pose(*(float(p) for p in parts))))
        except ValueError:
            raise ConfigError(f"[initial_poses] {label}: bad numbers {raw!r}") from None

    field_grid = basin = compare = None
    if cp.has_section("field_grid"):
        nx = _get_int(cp, "field_grid", "nx")
        ny = _get_int(cp, "field_grid", "ny")
        if nx < 2 or ny < 2:
            raise ConfigError("[field_grid] resolution must be at least 2")
        region = (_parse_region(cp.get("field_grid", "region"), "[field_grid]")
                  if cp.has_option("field_grid", "region") else PADDED_WORKSPACE)
        field_grid = FieldGridSpec(nx=nx, ny=ny, region=region)
    if cp.has_section("basin"):
        basin = BasinSpec(
            nx=_get_int(cp, "basin", "nx"),
            ny=_get_int(cp, "basin", "ny"),
            headings=_get_int(cp, "basin", "headings", 4),
            t_max=_get_float(cp, "basin", "t_max", 600.0),
            region=(_parse_region(cp.get("basin", "region"), "[basin]")
                    if cp.has_option("basin", "region") else PADDED_WORKSPACE),
        )
    if cp.has_section("compare"):
        names = tuple(cp.get("compare", "controllers", fallback="gvf los ngl").split())
        for n in names:
            if n not in ("gvf", "los", "ngl"):
                raise ConfigError(f"[compare] unknown controller {n!r}")
        compare = CompareSpec(
            controllers=names,
            settle_threshold=_get_float(cp, "compare", "settle_threshold", 5.0),
            steady_window=_get_float(cp, "compare", "steady_window", 20.0),
            touch_eps=_get_float(cp, "compare", "touch_eps", 0.5),
        )

    return Scenario(
        name=name, controller=controller, u_r=u_r, dt=dt, t_max=t_max,
        path=path, errmap=errmap, gvf=gvf, los=los, ngl=ngl, stop=stop,
        poses=tuple(poses), field_grid=field_grid, basin=basin, compare=compare,
    )


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _fmt(v):
    return repr(float(v))


def _path_lines(path):
    for kind, (cls, names) in _PATH_KINDS.items():
        if isinstance(path, cls):
            break
    else:
        raise ConfigError(f"cannot serialize path {type(path).__name__}")
    lines = [("kind", kind)]
    for name in names:
        value = getattr(path, name)
        if name == "terms":
            lines.append((name, ", ".join(f"{i} {j} {_fmt(c)}" for i, j, c in value)))
        else:
            lines.append((name, _fmt(value)))
    region = getattr(path, "region", PADDED_WORKSPACE)
    if region != PADDED_WORKSPACE:
        lines.append(("region", _region_str(region)))
    return lines


def _errmap_lines(errmap):
    name = {"IdentityMap": "identity", "ArctanPower": "arctan_power",
            "RationalSignPower": "rational_sign_power"}.get(type(errmap).__name__)
    if name is None:
        raise ConfigError(f"cannot serialize error map {type(errmap).__name__}")
    lines = [("kind", name)]
    if name != "identity":
        lines.append(("p", _fmt(errmap.p)))
    return lines


def _region_str(region):
    return (f"{_fmt(region.xmin)} {_fmt(region.xmax)} "
            f"{_fmt(region.ymin)} {_fmt(region.ymax)}")


def serialize_scenario(scn):
    """Canonical text form of a scenario; inverse of parse_scenario."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str

    cp["scenario"] = {
        "name": scn.name,
        "controller": scn.controller,
        "u_r": _fmt(scn.u_r),
        "dt": _fmt(scn.dt),
        "t_max": _fmt(scn.t_max),
    }
    cp["path"] = dict(_path_lines(scn.path))
    cp["error_map"] = dict(_errmap_lines(scn.errmap))
    if scn.gvf is not None:
        cp["controller.gvf"] = {
            "k_n": _fmt(scn.gvf.k_n),
            "k_delta": _fmt(scn.gvf.k_delta),
            "degeneracy_eps": _fmt(scn.gvf.degeneracy_eps),
        }
    if scn.los is not None:
        cp["controller.los"] = {
            "lookahead": _fmt(scn.los.lookahead),
            "k_los": _fmt(scn.los.k_los),
            "direction": scn.los.direction.value,
        }
    if scn.ngl is not None:
        cp["controller.ngl"] = {
            "radius": _fmt(scn.ngl.radius),
            "k_r": _fmt(scn.ngl.k_r),
            "direction": scn.ngl.direction.value,
        }
    cp["stop"] = {
        "tol_e": _fmt(scn.stop.tol_e),
        "tol_d": _fmt(scn.stop.tol_d),
        "t_dwell": _fmt(scn.stop.t_dwell),
        "tol_c": _fmt(scn.stop.tol_c),
    }
    cp["initial_poses"] = {
        label: f"{_fmt(p.x)} {_fmt(p.y)} {_fmt(p.alpha)}" for label, p in scn.poses
    }
    if scn.field_grid is not None:
        cp["field_grid"] = {
            "nx": str(scn.field_grid.nx),
            "ny": str(scn.field_grid.ny),
            "region": _region_str(scn.field_grid.region),
        }
    if scn.basin is not None:
        cp["basin"] = {
            "nx": str(scn.basin.nx),
            "ny": str(scn.basin.ny),
            "headings": str(scn.basin.headings),
            "t_max": _fmt(scn.basin.t_max),
            "region": _region_str(scn.basin.region),
        }
    if scn.compare is not None:
        cp["compare"] = {
            "controllers": " ".join(scn.compare.controllers),
            "settle_threshold": _fmt(scn.compare.settle_threshold),
            "steady_window": _fmt(scn.compare.steady_window),
            "touch_eps": _fmt(scn.compare.touch_eps),
        }

    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def bundled_config_text(name):
    """Text of a bundled scenario config (e.g. 'ellipse_experiment.cfg')."""
    return (resources.files("gvfpath") / "configs" / name).read_text(encoding="utf-8")


def bundled_scenario(name):
    return parse_scenario(bundled_config_text(name))
