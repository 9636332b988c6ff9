"""Scenario configs: parse and serialize the structured key-value format.

A scenario file is INI-style text with nested section names, e.g.

    [scenario]
    name = ellipse_experiment
    controller = gvf
    u_r = 50.0
    dt = 0.005
    t_max = 120.0

    [path]
    kind = ellipse          ; a key of paths.PATH_KINDS
    x0 = 600.0 ...

    [error_map]
    kind = identity         ; a key of paths.ERROR_MAPS

    [controller.gvf]        ; gains of each law live in controller.<kind>
    k_n = 3.0
    k_delta = 2.0

    [stop]                  ; optional
    [initial_poses]         ; label = x y alpha   (at least one)
    [field_grid] [basin] [compare]   ; optional, verb-specific

Every section but [scenario] and [initial_poses] is read and written key by
key from the fields of its dataclass: an absent key takes the field default,
and the dataclass checks the values.  In [path] and [error_map], kind names
the dataclass in paths.PATH_KINDS or paths.ERROR_MAPS.  Unknown sections and
keys are errors.

The parser and serializer are inverses: parse(serialize(s)) == s, and the
bundled configs are stored in canonical serialized form.
"""

from __future__ import annotations

import configparser
import functools
import io
import typing
from dataclasses import MISSING, dataclass, fields
from importlib import resources

from .controllers import Direction, LosParams, NglParams
from .field import GvfParams
from .paths import ERROR_MAPS, PATH_KINDS, Terms
from .sim import Pose, StopPolicy
from .util import PADDED_WORKSPACE, Region, require_positive

_CONTROLLERS = ("gvf", "los", "ngl")


class ConfigError(ValueError):
    """Scenario file failed to parse or validate; message names section/key."""


@dataclass(frozen=True)
class FieldGridSpec:
    nx: int
    ny: int
    region: Region = PADDED_WORKSPACE

    def __post_init__(self):
        if not min(self.nx, self.ny) >= 2:
            raise ValueError(f"nx and ny must be at least 2, got {self.nx} and {self.ny}")


@dataclass(frozen=True)
class BasinSpec:
    nx: int
    ny: int
    headings: int = 4
    t_max: float = 600.0
    region: Region = PADDED_WORKSPACE

    def __post_init__(self):
        require_positive(nx=self.nx, ny=self.ny, headings=self.headings,
                         t_max=self.t_max)


@dataclass(frozen=True)
class CompareSpec:
    controllers: tuple = _CONTROLLERS
    settle_threshold: float = 5.0
    steady_window: float = 20.0
    touch_eps: float = 0.5

    def __post_init__(self):
        if not self.controllers or not set(self.controllers) <= set(_CONTROLLERS):
            raise ValueError(f"controllers must list gvf, los or ngl, got "
                             f"{' '.join(self.controllers)!r}")
        require_positive(settle_threshold=self.settle_threshold,
                         steady_window=self.steady_window, touch_eps=self.touch_eps)


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


# Every section, in canonical order.
_SECTIONS = ("scenario", "path", "error_map", "controller.gvf", "controller.los",
             "controller.ngl", "stop", "initial_poses", "field_grid", "basin",
             "compare")
# The sections read and written from a dataclass, with their Scenario
# attribute.  [controller.gvf] takes u_r from [scenario].  [stop] is read
# even when absent; the others are then None.
_DATACLASS_SECTIONS = {
    "controller.gvf": ("gvf", GvfParams),
    "controller.los": ("los", LosParams),
    "controller.ngl": ("ngl", NglParams),
    "stop": ("stop", StopPolicy),
    "field_grid": ("field_grid", FieldGridSpec),
    "basin": ("basin", BasinSpec),
    "compare": ("compare", CompareSpec),
}


def _want(cp, section, key):
    if not cp.has_option(section, key):
        raise ConfigError(f"[{section}] is missing required key {key!r}")
    return cp.get(section, key)


def _number(raw, where):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{where} = {raw!r} is not a number") from None


def _integer(raw, where):
    v = _number(raw, where)
    if not v.is_integer():
        raise ConfigError(f"{where} must be an integer, got {raw!r}")
    return int(v)


def _parse_region(raw, where):
    parts = raw.split()
    if len(parts) != 4:
        raise ConfigError(f"{where}: region needs 'xmin xmax ymin ymax', got {raw!r}")
    try:
        return Region(*(float(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad region {raw!r}: {exc}") from None


def _direction(raw, where):
    raw = raw.lower()
    try:
        return Direction(raw)
    except ValueError:
        raise ConfigError(f"{where} must be forward or reverse, got {raw!r}") from None


def _check_keys(cp, section, known):
    for key in cp.options(section):
        if key not in known:
            raise ConfigError(f"[{section}] {key} is not a known key; expected one "
                              f"of {', '.join(known)}")


def _read_section(cp, section, cls, given, extra=()):
    """cls from the keys of [section] and the field values in given.

    Each key is parsed by the type of its field.  An absent key takes the
    field default, and an absent section reads as an empty one.  The keys
    in extra are accepted and left to the caller.
    """
    schema = [row for row in _schema(cls) if row[0] not in given]
    if cp.has_section(section):
        _check_keys(cp, section, [*extra, *(name for name, *_ in schema)])
    kw = dict(given)
    for name, default, parse, _ in schema:
        if cp.has_option(section, name):
            kw[name] = parse(cp.get(section, name), f"[{section}] {name}")
        elif default is MISSING:
            raise ConfigError(f"[{section}] is missing required key {name!r}")
    try:
        return cls(**kw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {exc}") from None


def _read_kind(cp, section, kinds):
    """kinds[kind] read from [section], whose other keys are its fields."""
    if not cp.has_section(section):
        raise ConfigError(f"missing [{section}] section")
    kind = _want(cp, section, "kind").lower()
    if kind not in kinds:
        raise ConfigError(f"[{section}] kind must be one of {', '.join(kinds)}, "
                          f"got {kind!r}")
    return _read_section(cp, section, kinds[kind], {}, extra=("kind",))


def parse_scenario(text):
    """Parse scenario text; raises ConfigError with section/key diagnostics."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config does not parse: {exc}") from None
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}] is not a known section; expected one "
                              f"of {', '.join(_SECTIONS)}")

    if not cp.has_section("scenario"):
        raise ConfigError("missing [scenario] section")
    _check_keys(cp, "scenario", ("name", "controller", "u_r", "dt", "t_max"))
    name = _want(cp, "scenario", "name")
    controller = cp.get("scenario", "controller", fallback="gvf").lower()
    if controller not in _CONTROLLERS:
        raise ConfigError(f"[scenario] controller must be gvf/los/ngl, got {controller!r}")
    u_r, dt, t_max = (_number(_want(cp, "scenario", key), f"[scenario] {key}")
                      for key in ("u_r", "dt", "t_max"))
    try:
        require_positive(u_r=u_r, dt=dt, t_max=t_max)
    except ValueError as exc:
        raise ConfigError(f"[scenario] {exc}") from None

    path = _read_kind(cp, "path", PATH_KINDS)
    errmap = _read_kind(cp, "error_map", ERROR_MAPS)

    sections = dict.fromkeys(_CONTROLLERS)
    for section, (attr, cls) in _DATACLASS_SECTIONS.items():
        if cp.has_section(section) or cls is StopPolicy:
            given = {"u_r": u_r} if cls is GvfParams else {}
            sections[attr] = _read_section(cp, section, cls, given)
    if sections[controller] is None:
        raise ConfigError(f"[scenario] selects {controller!r} but "
                          f"[controller.{controller}] is missing")

    if not cp.has_section("initial_poses") or not cp.items("initial_poses"):
        raise ConfigError("[initial_poses] must list at least one pose")
    poses = []
    for label, raw in cp.items("initial_poses"):
        where = f"[initial_poses] {label}"
        parts = raw.split()
        if len(parts) != 3:
            raise ConfigError(f"{where}: expected 'x y alpha', got {raw!r}")
        xya = [_number(p, where) for p in parts]
        try:
            poses.append((label, Pose(*xya)))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    return Scenario(name=name, controller=controller, u_r=u_r, dt=dt, t_max=t_max,
                    path=path, errmap=errmap, poses=tuple(poses), **sections)


def load_scenario(path):
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _fmt(v):
    return repr(float(v))


def _region_str(region):
    return (f"{_fmt(region.xmin)} {_fmt(region.xmax)} "
            f"{_fmt(region.ymin)} {_fmt(region.ymax)}")


def _parse_terms(raw, where):
    terms = []
    for chunk in raw.split(","):
        parts = chunk.split()
        if len(parts) != 3:
            raise ConfigError(f"{where}: each term is 'i j c', got {chunk.strip()!r}")
        terms.append((_integer(parts[0], where), _integer(parts[1], where),
                      _number(parts[2], where)))
    return tuple(terms)


def _terms_str(terms):
    return ", ".join(f"{i} {j} {_fmt(c)}" for i, j, c in terms)


# How a field of each type is parsed from and written to text.
_CODECS = {
    float: (_number, _fmt),
    int: (_integer, str),
    Region: (_parse_region, _region_str),
    Direction: (_direction, lambda d: d.value),
    tuple: (lambda raw, where: tuple(raw.split()), " ".join),
    Terms: (_parse_terms, _terms_str),
}


@functools.cache
def _schema(cls):
    """(name, default, parse, format) for each field of a section dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.default, *_CODECS[hints[f.name]]) for f in fields(cls))


def _write_fields(obj, skip=()):
    """{name: text} for each field of a section dataclass not in skip."""
    return {name: fmt(getattr(obj, name))
            for name, _, _, fmt in _schema(type(obj)) if name not in skip}


def _write_kind(obj, kinds):
    """kind, then the fields of obj, whose class kinds names."""
    for kind, cls in kinds.items():
        if type(obj) is cls:
            return {"kind": kind, **_write_fields(obj)}
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


def serialize_scenario(scn):
    """Canonical text form of a scenario; inverse of parse_scenario."""
    text = {
        "scenario": {"name": scn.name, "controller": scn.controller,
                     "u_r": _fmt(scn.u_r), "dt": _fmt(scn.dt), "t_max": _fmt(scn.t_max)},
        "path": _write_kind(scn.path, PATH_KINDS),
        "error_map": _write_kind(scn.errmap, ERROR_MAPS),
        "initial_poses": {label: f"{_fmt(p.x)} {_fmt(p.y)} {_fmt(p.alpha)}"
                          for label, p in scn.poses},
    }
    for section, (attr, cls) in _DATACLASS_SECTIONS.items():
        obj = getattr(scn, attr)
        if obj is not None:
            text[section] = _write_fields(obj, ("u_r",) if cls is GvfParams else ())

    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_dict({section: text[section] for section in _SECTIONS if section in text})
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def bundled_config_text(name):
    """Text of a bundled scenario config (e.g. 'ellipse_experiment.cfg')."""
    return (resources.files("gvfpath") / "configs" / name).read_text(encoding="utf-8")


def bundled_scenario(name):
    return parse_scenario(bundled_config_text(name))
