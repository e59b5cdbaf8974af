"""Line-oriented run configuration: parsing, validation, rendering.

The format is bracketed section headers followed by ``key = value`` lines;
``#`` starts a comment.  Parsing is fail-closed: unknown sections or keys
are errors, as are values outside their documented ranges and settings that
the preset cannot run.  This module is the one place that decides what a
configuration means: a :class:`RunConfig` is resolved against its preset
when it is built, so every later layer reads the values the run uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable

from .basis import (MAX_BASIS_SIZE, MAX_HAAR_LEVEL, HaarTypeBasis, build_canonical_haar,
                    build_classical_haar, build_dct, build_piecewise_linear)
from .errors import ConfigError
from .models import PRESETS, ExperimentPreset
from .solver import BOUNDARY_KINDS


@dataclass(frozen=True)
class BasisSizing:
    """How a run sizes a basis kind: the ``RunConfig`` field that does it,
    that field's range (``note`` qualifies it in the error message), the
    builder the field's value is passed to and the field's value at
    resolution level j."""

    attr: str
    lo: int
    hi: int
    build: Callable[[int], HaarTypeBasis]
    at_level: Callable[[int], int]
    note: str = ""


#: basis kind -> its sizing.  At level j, dct and canonical-haar match the
#: classical Haar size 2^(j+1), so that level sweeps compare equal numbers of
#: basis elements, and piecewise-linear matches it with 2^j subdomains.
BASIS_KINDS: dict[str, BasisSizing] = {
    "classical-haar": BasisSizing("basis_level", 0, MAX_HAAR_LEVEL, build_classical_haar,
                                  lambda j: j),
    "canonical-haar": BasisSizing("basis_size", 2, MAX_BASIS_SIZE, build_canonical_haar,
                                  lambda j: 2 ** (j + 1), " for this basis kind"),
    "dct": BasisSizing("basis_size", 2, MAX_BASIS_SIZE, build_dct, lambda j: 2 ** (j + 1),
                       " for this basis kind"),
    "piecewise-linear": BasisSizing("basis_subdomains", 1, MAX_BASIS_SIZE // 2,
                                    build_piecewise_linear, lambda j: 2 ** j),
}

#: (cell count, lower bound, upper bound) attributes of the x and y axes
_AXES = (("nx", "x_min", "x_max"), ("ny", "y_min", "y_max"))


@dataclass(frozen=True)
class RunConfig:
    """Fully validated experiment configuration, resolved against its preset.

    ``t_final``, the grid (``nx``, ``ny`` and the bounds), ``boundary`` and
    ``reference`` take the preset's values where they are left out, so a
    built config holds the values its run uses.  A 1D preset has no y axis:
    its ``ny``, ``y_min`` and ``y_max`` stay None.  ``reference`` is one of
    the preset's reference kinds.  The basis is sized by the field that
    :data:`BASIS_KINDS` names for ``basis_kind``; ``ref_level`` None solves a
    collocation reference at the nodes of the run's own basis.  Building a
    config, also by ``dataclasses.replace``, raises ConfigError for any
    setting it cannot run.
    """

    preset: str
    t_final: float | None = None
    cfl: float = 0.45
    seed: int = 0
    basis_kind: str = "classical-haar"
    basis_level: int = 2
    basis_size: int | None = None
    basis_subdomains: int | None = None
    nx: int | None = None
    ny: int | None = None
    x_min: float | None = None
    x_max: float | None = None
    y_min: float | None = None
    y_max: float | None = None
    boundary: str | None = None
    out_dir: str = "out"
    stride: int = 0
    reference: str | None = None
    ref_samples: int = 200
    ref_refine: int = 4
    ref_level: int | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r} for `run.preset`",
                              key="run.preset")
        preset = PRESETS[self.preset]
        for attr in (a for axis in _AXES[preset.space_dim:] for a in axis):
            if getattr(self, attr) is not None:
                raise ConfigError(f"`grid.{attr}` does not apply to the 1D preset "
                                  f"{preset.name}", key=f"grid.{attr}")
        defaults = {"t_final": preset.t_final, "boundary": preset.boundary,
                    "reference": preset.references[0]}
        for (n_attr, lo_attr, hi_attr), n, (lo, hi) in zip(_AXES, (preset.nx, preset.ny),
                                                             preset.domain):
            defaults.update({n_attr: n, lo_attr: lo, hi_attr: hi})
        for attr, value in defaults.items():
            if getattr(self, attr) is None:
                object.__setattr__(self, attr, value)
        _validate(self, preset)


#: (section, key) -> (attribute, parser)
_SCHEMA: dict[tuple[str, str], tuple[str, type]] = {
    ("run", "preset"): ("preset", str),
    ("run", "t_final"): ("t_final", float),
    ("run", "cfl"): ("cfl", float),
    ("run", "seed"): ("seed", int),
    ("basis", "kind"): ("basis_kind", str),
    ("basis", "level"): ("basis_level", int),
    ("basis", "size"): ("basis_size", int),
    ("basis", "subdomains"): ("basis_subdomains", int),
    ("grid", "nx"): ("nx", int),
    ("grid", "ny"): ("ny", int),
    ("grid", "x_min"): ("x_min", float),
    ("grid", "x_max"): ("x_max", float),
    ("grid", "y_min"): ("y_min", float),
    ("grid", "y_max"): ("y_max", float),
    ("grid", "boundary"): ("boundary", str),
    ("output", "directory"): ("out_dir", str),
    ("output", "stride"): ("stride", int),
    ("reference", "kind"): ("reference", str),
    ("reference", "samples"): ("ref_samples", int),
    ("reference", "refine"): ("ref_refine", int),
    ("reference", "level"): ("ref_level", int),
}

_ATTR_TO_KEY = {attr: sk for sk, (attr, _) in _SCHEMA.items()}


def parse_config(text: str) -> RunConfig:
    """Parse and validate configuration text."""
    values: dict[str, object] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if not any(s == section for s, _ in _SCHEMA):
                raise ConfigError(f"line {lineno}: unknown section [{section}]",
                                  line=lineno, key=section)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}",
                              line=lineno)
        if section is None:
            raise ConfigError(f"line {lineno}: key outside of any section", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        dotted = f"{section}.{key}"
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key `{dotted}`",
                              line=lineno, key=dotted)
        attr, cast = _SCHEMA[(section, key)]
        try:
            values[attr] = cast(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: invalid {cast.__name__} value for `{dotted}`: {value!r}",
                line=lineno, key=dotted) from None
    if "preset" not in values:
        raise ConfigError("missing required key `run.preset`", key="run.preset")
    return RunConfig(**values)


def _validate(config: RunConfig, preset: ExperimentPreset) -> None:
    if not 0.0 < config.cfl < 1.0:
        raise ConfigError(f"`run.cfl` must lie in (0, 1), got {config.cfl}",
                          key="run.cfl")
    if not 0.0 <= config.t_final < math.inf:
        raise ConfigError(f"`run.t_final` must be finite and >= 0, got {config.t_final}",
                          key="run.t_final")
    for n_attr, lo_attr, hi_attr in _AXES[:preset.space_dim]:
        lo, hi = getattr(config, lo_attr), getattr(config, hi_attr)
        for attr, value in ((lo_attr, lo), (hi_attr, hi)):
            if not math.isfinite(value):
                raise ConfigError(f"`grid.{attr}` must be finite, got {value}",
                                  key=f"grid.{attr}")
        if not lo < hi:
            raise ConfigError(f"grid bounds must increase, got `grid.{lo_attr}` {lo} "
                              f">= `grid.{hi_attr}` {hi}", key=f"grid.{lo_attr}")
        if getattr(config, n_attr) < 8:
            raise ConfigError(f"`grid.{n_attr}` must be >= 8, got {getattr(config, n_attr)}",
                              key=f"grid.{n_attr}")
    if config.basis_kind not in BASIS_KINDS:
        raise ConfigError(f"`basis.kind` must be one of {tuple(BASIS_KINDS)}",
                          key="basis.kind")
    sizing = BASIS_KINDS[config.basis_kind]
    size = getattr(config, sizing.attr)
    if size is None or not sizing.lo <= size <= sizing.hi:
        key = ".".join(_ATTR_TO_KEY[sizing.attr])
        raise ConfigError(f"`{key}` must lie in [{sizing.lo}, {sizing.hi}]{sizing.note}, "
                          f"got {size}", key=key)
    if config.ref_level is not None and not 0 <= config.ref_level <= MAX_HAAR_LEVEL:
        raise ConfigError(f"`reference.level` must lie in [0, {MAX_HAAR_LEVEL}], "
                          f"got {config.ref_level}", key="reference.level")
    if config.boundary not in BOUNDARY_KINDS:
        raise ConfigError(f"`grid.boundary` must be one of {BOUNDARY_KINDS}",
                          key="grid.boundary")
    if config.reference not in preset.references:
        raise ConfigError(f"`reference.kind` must be one of {preset.references} for "
                          f"preset {preset.name}, got {config.reference!r}",
                          key="reference.kind")
    if config.stride < 0:
        raise ConfigError("`output.stride` must be >= 0", key="output.stride")
    if config.ref_samples < 1:
        raise ConfigError("`reference.samples` must be >= 1", key="reference.samples")
    if config.seed < 0:
        raise ConfigError(f"`run.seed` must be >= 0, got {config.seed}", key="run.seed")
    if config.ref_refine < 1:
        raise ConfigError("`reference.refine` must be >= 1", key="reference.refine")


def render_config(config: RunConfig) -> str:
    """Canonical text form; parse_config(render_config(c)) == c."""
    lines = []
    current = None
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if value is None:
            continue
        section, key = _ATTR_TO_KEY[f.name]
        if section != current:
            if lines:
                lines.append("")
            lines.append(f"[{section}]")
            current = section
        if isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def with_level(config: RunConfig, level: int) -> RunConfig:
    """Validated copy of the config at another resolution level, sized as
    its basis kind's :attr:`BasisSizing.at_level` says."""
    sizing = BASIS_KINDS[config.basis_kind]
    return replace(config, **{sizing.attr: sizing.at_level(level)})
