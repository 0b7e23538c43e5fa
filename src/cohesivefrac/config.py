"""Strict run configuration in INI form.

A run file has up to five sections: ``[domain]``, ``[law]``,
``[program]``, ``[sweep]`` and ``[planar]``.  Validation is strict in
both directions: unknown sections or keys fail before any computation
(silent typos in experiment configs are worse than a hard stop), every
value is range-checked when its section is built (so a command-line
override, applied with ``dataclasses.replace``, is checked too), and
each subcommand checks that the sections it needs are present.

The section dataclasses and the ``_SCHEMA`` table are the schema: a
key is one field with its typed default, one range entry in its
section's ``__post_init__`` and one table entry naming its reader and
what a readable value looks like.  A value its reader rejects fails as
``[section] key must be <what>, got <raw>``, the same form as a range
error; an absent key takes its default.

Example::

    [domain]
    elements = 32
    length = 1.0
    crack = 0.5:0.3

    [law]
    kind = dugdale
    a = 2.0

    [program]
    horizon = 2.0
    delta = 0.01
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass

from cohesivefrac.bar1d import Domain1D
from cohesivefrac.laws import CohesiveLaw, LawKind

__all__ = [
    "ConfigError",
    "DomainSection",
    "LawSection",
    "ProgramSection",
    "SweepSection",
    "PlanarSection",
    "RunConfig",
    "load_config",
    "read_value",
]


class ConfigError(ValueError):
    """Malformed run configuration; maps to exit code 2."""


def _check_ranges(section: str, ranges) -> None:
    """Raise on the first ``(key, value, ok, want)`` whose range test ``ok`` failed.

    Every comparison is false for NaN, so NaN fails each range.
    """
    for key, value, ok, want in ranges:
        if not ok:
            raise ConfigError(f"[{section}] {key} must be {want}, got {value!r}")


@dataclass(frozen=True)
class DomainSection:
    elements: int = 1
    length: float = 1.0
    crack: tuple = ()  # (coordinate, opening) pairs

    def __post_init__(self):
        _check_ranges("domain", (
            ("elements", self.elements, self.elements >= 1, "an integer >= 1"),
            ("length", self.length, 0.0 < self.length < math.inf, "finite and > 0"),
            ("crack", self.crack,
             all(0.0 <= x <= self.length and 0.0 < v < math.inf for x, v in self.crack),
             "position:opening pairs with the position on the bar and a finite opening > 0"),
        ))

    def build(self) -> Domain1D:
        # every node is a jump site, so a crack on the bar always snaps to
        # one; two entries may still snap to the same node
        try:
            return Domain1D.uniform(self.length, self.elements, self.crack)
        except ValueError as err:
            raise ConfigError(f"[domain] crack: {err}") from err


@dataclass(frozen=True)
class LawSection:
    kind: LawKind = LawKind.DUGDALE
    a: float = 1.0

    def __post_init__(self):
        _check_ranges("law", (("a", self.a, 0.0 < self.a < math.inf, "finite and > 0"),))

    def build(self) -> CohesiveLaw:
        return CohesiveLaw(self.kind, self.a)


@dataclass(frozen=True)
class ProgramSection:
    horizon: float = 1.0
    delta: float = 0.01
    rate: float = 1.0

    def __post_init__(self):
        _check_ranges("program", (
            ("horizon", self.horizon, 0.0 < self.horizon < math.inf, "finite and > 0"),
            ("delta", self.delta, 0.0 < self.delta < math.inf, "finite and > 0"),
            # the ramp's last sample is rate * horizon
            ("rate", self.rate, math.isfinite(self.rate * self.horizon),
             "finite, with rate * horizon finite"),
        ))


@dataclass(frozen=True)
class SweepSection:
    alpha: float = 0.5
    h: tuple = (1.0,)

    def __post_init__(self):
        h = self.h
        _check_ranges("sweep", (
            ("alpha", self.alpha, 0.0 < self.alpha < 2.0, "in (0, 2)"),
            ("h", h, len(h) > 0 and all(1.0 <= x < math.inf for x in h)
             and all(b > a for a, b in zip(h, h[1:])),
             "a nonempty increasing list of finite sizes >= 1"),
        ))


@dataclass(frozen=True)
class PlanarSection:
    n: int = 16
    load: float = 0.3
    mode: str = "cohesive"
    crack_length: float = 0.0
    gamma: float = 0.0
    alpha: float = 0.25
    h: float = 1.0

    def __post_init__(self):
        _check_ranges("planar", (
            ("n", self.n, self.n >= 8 and self.n % 2 == 0, "an even integer >= 8"),
            ("load", self.load, math.isfinite(self.load), "finite"),
            ("mode", self.mode, self.mode in ("cohesive", "griffith"), "cohesive or griffith"),
            ("crack_length", self.crack_length, 0.0 <= self.crack_length <= 1.0, "in [0, 1]"),
            ("gamma", self.gamma, 0.0 <= self.gamma < math.inf, "finite and >= 0"),
            ("alpha", self.alpha, 0.0 < self.alpha < 2.0, "in (0, 2)"),
            ("h", self.h, 1.0 <= self.h < math.inf, "finite and >= 1"),
        ))


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSection | None = None
    law: LawSection | None = None
    program: ProgramSection | None = None
    sweep: SweepSection | None = None
    planar: PlanarSection | None = None

    def require(self, *sections: str):
        missing = [s for s in sections if getattr(self, s) is None]
        if missing:
            raise ConfigError(f"missing required section(s): {', '.join(missing)}")


def _items(raw: str) -> tuple:
    """The nonblank entries of a comma-separated list."""
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _floats(raw: str) -> tuple:
    return tuple(map(float, _items(raw)))


def _crack_pairs(raw: str) -> tuple:
    return tuple((float(x), float(v)) for x, v in (item.split(":") for item in _items(raw)))


_NUMBER = (float, "a number")

# section -> (class, {key: (reader, what a readable value looks like)})
_SCHEMA = {
    "domain": (DomainSection, {
        "elements": (int, "an integer"),
        "length": _NUMBER,
        "crack": (_crack_pairs, "position:opening pairs"),
    }),
    "law": (LawSection, {
        "kind": (lambda raw: LawKind(raw.lower()), "a law kind (dugdale or exponential)"),
        "a": _NUMBER,
    }),
    "program": (ProgramSection, {"horizon": _NUMBER, "delta": _NUMBER, "rate": _NUMBER}),
    "sweep": (SweepSection, {"alpha": _NUMBER, "h": (_floats, "a comma-separated float list")}),
    "planar": (PlanarSection, {
        "n": (int, "an integer"),
        "load": _NUMBER,
        "mode": (str.lower, "cohesive or griffith"),
        "crack_length": _NUMBER,
        "gamma": _NUMBER,
        "alpha": _NUMBER,
        "h": _NUMBER,
    }),
}


def read_value(section: str, key: str, raw: str):
    """Read one raw value of ``[section] key``; an unreadable one is a ``ConfigError``."""
    reader, what = _SCHEMA[section][1][key]
    try:
        return reader(raw)
    except (ValueError, KeyError) as err:
        raise ConfigError(f"[{section}] {key} must be {what}, got {raw!r}") from err


def load_config(path) -> RunConfig:
    # no section header is empty, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from err

    sections = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        cls, keys = _SCHEMA[section]
        unknown = set(parser[section]) - keys.keys()
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
        sections[section] = cls(**{
            key: read_value(section, key, raw) for key, raw in parser[section].items()
        })
    return RunConfig(**sections)
