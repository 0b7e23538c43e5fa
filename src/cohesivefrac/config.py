"""Strict run configuration in INI form.

A run file has up to five sections: ``[domain]``, ``[law]``,
``[program]``, ``[sweep]`` and ``[planar]``.  Validation is strict in
both directions: unknown sections or keys fail before any computation
(silent typos in experiment configs are worse than a hard stop), and
each subcommand checks that the sections it needs are present.

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

from cohesivefrac.bar1d import LEFT, RIGHT, Domain1D
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
]

_ALLOWED_KEYS = {
    "domain": {"elements", "length", "dirichlet", "crack"},
    "law": {"kind", "a"},
    "program": {"horizon", "delta", "rate"},
    "sweep": {"alpha", "h", "delta"},
    "planar": {"n", "load", "mode", "crack_length", "gamma", "alpha", "h"},
}


class ConfigError(ValueError):
    """Malformed run configuration; maps to exit code 2."""


@dataclass(frozen=True)
class DomainSection:
    elements: int
    length: float
    dirichlet: tuple
    crack: tuple  # (coordinate, opening) pairs

    def build(self) -> Domain1D:
        return Domain1D.uniform(self.length, self.elements, self.dirichlet, self.crack)


@dataclass(frozen=True)
class LawSection:
    kind: LawKind
    a: float

    def build(self) -> CohesiveLaw:
        return CohesiveLaw(self.kind, self.a)


@dataclass(frozen=True)
class ProgramSection:
    horizon: float
    delta: float
    rate: float


@dataclass(frozen=True)
class SweepSection:
    alpha: float
    h: tuple
    delta: tuple | None


@dataclass(frozen=True)
class PlanarSection:
    n: int
    load: float
    mode: str
    crack_length: float
    gamma: float
    alpha: float
    h: float


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSection | None
    law: LawSection | None
    program: ProgramSection | None
    sweep: SweepSection | None
    planar: PlanarSection | None

    def require(self, *sections: str):
        missing = [s for s in sections if getattr(self, s) is None]
        if missing:
            raise ConfigError(f"missing required section(s): {', '.join(missing)}")


def _floats(raw: str) -> tuple:
    try:
        return tuple(float(part) for part in raw.split(",") if part.strip())
    except ValueError as err:
        raise ConfigError(f"expected a comma-separated float list, got {raw!r}") from err


def _float(section: str, key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from err


def _int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as err:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from err


def _crack_pairs(raw: str) -> tuple:
    pairs = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            pos, val = chunk.split(":")
            pairs.append((float(pos), float(val)))
        except ValueError as err:
            raise ConfigError(
                f"crack entries must look like position:opening, got {chunk!r}"
            ) from err
    return tuple(pairs)


def _domain(sec) -> DomainSection:
    dirichlet_names = {"left": LEFT, "right": RIGHT}
    raw = sec.get("dirichlet", "left,right")
    try:
        dirichlet = tuple(dirichlet_names[p.strip()] for p in raw.split(",") if p.strip())
    except KeyError as err:
        raise ConfigError(f"dirichlet entries must be left/right, got {raw!r}") from err
    return DomainSection(
        elements=_int("domain", "elements", sec.get("elements", "1")),
        length=_float("domain", "length", sec.get("length", "1.0")),
        dirichlet=dirichlet,
        crack=_crack_pairs(sec.get("crack", "")),
    )


def _law(sec) -> LawSection:
    raw_kind = sec.get("kind", "dugdale").strip().lower()
    try:
        kind = LawKind[raw_kind.upper()]
    except KeyError as err:
        raise ConfigError(f"unknown law kind {raw_kind!r}") from err
    return LawSection(kind=kind, a=_float("law", "a", sec.get("a", "1.0")))


def _program(sec) -> ProgramSection:
    return ProgramSection(
        horizon=_float("program", "horizon", sec.get("horizon", "1.0")),
        delta=_float("program", "delta", sec.get("delta", "0.01")),
        rate=_float("program", "rate", sec.get("rate", "1.0")),
    )


def _sweep(sec) -> SweepSection:
    raw_delta = sec.get("delta", "").strip()
    return SweepSection(
        alpha=_float("sweep", "alpha", sec.get("alpha", "0.5")),
        h=_floats(sec.get("h", "1")),
        delta=_floats(raw_delta) if raw_delta else None,
    )


def _planar(sec) -> PlanarSection:
    mode = sec.get("mode", "cohesive").strip().lower()
    if mode not in ("cohesive", "griffith"):
        raise ConfigError(f"[planar] mode must be cohesive or griffith, got {mode!r}")
    planar = PlanarSection(
        n=_int("planar", "n", sec.get("n", "16")),
        load=_float("planar", "load", sec.get("load", "0.3")),
        mode=mode,
        crack_length=_float("planar", "crack_length", sec.get("crack_length", "0.0")),
        gamma=_float("planar", "gamma", sec.get("gamma", "0.0")),
        alpha=_float("planar", "alpha", sec.get("alpha", "0.25")),
        h=_float("planar", "h", sec.get("h", "1")),
    )
    # every comparison is false for NaN, so NaN fails each range
    ranges = (
        ("n", planar.n >= 8 and planar.n % 2 == 0, "an even integer >= 8"),
        ("load", math.isfinite(planar.load), "finite"),
        ("crack_length", 0.0 <= planar.crack_length <= 1.0, "in [0, 1]"),
        ("gamma", 0.0 <= planar.gamma < math.inf, "finite and >= 0"),
        ("alpha", 0.0 < planar.alpha < 2.0, "in (0, 2)"),
        ("h", 1.0 <= planar.h < math.inf, "finite and >= 1"),
    )
    for key, ok, want in ranges:
        if not ok:
            raise ConfigError(f"[planar] {key} must be {want}, got {getattr(planar, key)!r}")
    return planar


_BUILDERS = {
    "domain": _domain,
    "law": _law,
    "program": _program,
    "sweep": _sweep,
    "planar": _planar,
}


def load_config(path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"malformed config {path}: {err}") from err

    parsed = {}
    for section in parser.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = set(parser[section]) - _ALLOWED_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
        parsed[section] = _BUILDERS[section](parser[section])

    return RunConfig(
        domain=parsed.get("domain"),
        law=parsed.get("law"),
        program=parsed.get("program"),
        sweep=parsed.get("sweep"),
        planar=parsed.get("planar"),
    )
