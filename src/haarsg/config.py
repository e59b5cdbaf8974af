"""Line-oriented run configuration: parsing, validation, rendering.

The format is bracketed section headers followed by ``key = value`` lines;
``#`` starts a comment.  Parsing is fail-closed: unknown sections or keys
are errors, as are values outside their documented ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from .basis import MAX_BASIS_SIZE, MAX_HAAR_LEVEL
from .errors import ConfigError
from .models import PRESETS

BASIS_KINDS = ("classical-haar", "canonical-haar", "dct", "piecewise-linear")
REFERENCE_KINDS = ("none", "exact", "collocation", "monte-carlo")
BOUNDARY_NAMES = ("transmissive", "periodic")


@dataclass(frozen=True)
class RunConfig:
    """Fully validated experiment configuration.

    ``None`` means "use the preset default" for grid/time fields.
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
    config = RunConfig(**values)
    validate_config(config)
    return config


def validate_config(config: RunConfig) -> None:
    if config.preset not in PRESETS:
        raise ConfigError(f"unknown preset {config.preset!r} for `run.preset`",
                          key="run.preset")
    if not 0.0 < config.cfl < 1.0:
        raise ConfigError(f"`run.cfl` must lie in (0, 1), got {config.cfl}",
                          key="run.cfl")
    if config.t_final is not None and config.t_final < 0.0:
        raise ConfigError(f"`run.t_final` must be >= 0, got {config.t_final}",
                          key="run.t_final")
    if config.basis_kind not in BASIS_KINDS:
        raise ConfigError(f"`basis.kind` must be one of {BASIS_KINDS}",
                          key="basis.kind")
    if config.basis_kind == "classical-haar" and not 0 <= config.basis_level <= MAX_HAAR_LEVEL:
        raise ConfigError(f"`basis.level` must lie in [0, {MAX_HAAR_LEVEL}], "
                          f"got {config.basis_level}", key="basis.level")
    if (config.basis_kind in ("canonical-haar", "dct")
            and not 2 <= (config.basis_size or 0) <= MAX_BASIS_SIZE):
        raise ConfigError(f"`basis.size` must lie in [2, {MAX_BASIS_SIZE}] for this "
                          f"basis kind, got {config.basis_size}", key="basis.size")
    if (config.basis_kind == "piecewise-linear"
            and not 1 <= (config.basis_subdomains or 0) <= MAX_BASIS_SIZE // 2):
        raise ConfigError(f"`basis.subdomains` must lie in [1, {MAX_BASIS_SIZE // 2}], "
                          f"got {config.basis_subdomains}", key="basis.subdomains")
    if config.nx is not None and config.nx < 8:
        raise ConfigError(f"`grid.nx` must be >= 8, got {config.nx}", key="grid.nx")
    if config.ny is not None and config.ny < 8:
        raise ConfigError(f"`grid.ny` must be >= 8, got {config.ny}", key="grid.ny")
    if config.boundary is not None and config.boundary not in BOUNDARY_NAMES:
        raise ConfigError(f"`grid.boundary` must be one of {BOUNDARY_NAMES}",
                          key="grid.boundary")
    if config.reference is not None and config.reference not in REFERENCE_KINDS:
        raise ConfigError(f"`reference.kind` must be one of {REFERENCE_KINDS}",
                          key="reference.kind")
    if config.stride < 0:
        raise ConfigError("`output.stride` must be >= 0", key="output.stride")
    if config.ref_samples < 1:
        raise ConfigError("`reference.samples` must be >= 1", key="reference.samples")
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
    """Validated copy of the config at another resolution level.

    classical-haar uses the level directly; dct and canonical-haar match the
    size 2^(level+1) so level sweeps compare equal numbers of basis elements;
    piecewise-linear matches with 2^level subdomains.
    """
    if config.basis_kind == "classical-haar":
        config = replace(config, basis_level=level)
    elif config.basis_kind in ("dct", "canonical-haar"):
        config = replace(config, basis_size=2 ** (level + 1))
    else:
        config = replace(config, basis_subdomains=2 ** level)
    validate_config(config)
    return config
