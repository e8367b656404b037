"""Flat key = value run configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, list
values are whitespace separated. Unknown and duplicate keys are rejected so
typos fail loudly. Two ready-made configurations ship with the package
(``example1``: repulsive kernel, ``example2``: attractive kernel) and can be
addressed by bare name wherever a config path is expected.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .marginals import MarginalSpec
from .potentials import PotentialSpec, load_tabulated_potential
from .solver import SolverConfig

_KNOWN_KEYS = {
    "domain", "n_x", "n_t", "sigma2", "theta", "tol",
    "N1", "N3", "seed", "init_tol",
    "potential.kind", "potential.beta", "potential.c", "potential.alpha",
    "potential.epsilon", "potential.a", "potential.s", "potential.file",
    "potential_is_prescaled",
    "marginal_in.kind", "marginal_in.weights", "marginal_in.means",
    "marginal_in.variances", "marginal_in.file",
    "marginal_fin.kind", "marginal_fin.weights", "marginal_fin.means",
    "marginal_fin.variances", "marginal_fin.file",
    "verify.N",
}

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def read_key_values(path) -> dict[str, str]:
    """Read a flat ``key = value`` file into a raw string mapping.

    A malformed line, an empty value or a repeated key is a ConfigError.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in body.split("=", 1))
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        out[key] = value
    return out


def parse_config(path) -> dict[str, str]:
    """Read a flat config file into a raw string mapping of known keys."""
    out = read_key_values(path)
    for key in out:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}: unknown key {key!r}")
    return out


def _as_float(raw: dict, key: str, default=None) -> float:
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw[key]!r}") from exc


def _as_int(raw: dict, key: str, default=None) -> int:
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw[key]!r}") from exc


def _as_bool(raw: dict, key: str, default: bool) -> bool:
    if key not in raw:
        return default
    token = raw[key].lower()
    if token in _TRUE:
        return True
    if token in _FALSE:
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw[key]!r}")


def _as_floats(raw: dict, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw[key].split())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected numbers, got {raw[key]!r}") from exc


def _potential_from(raw: dict) -> PotentialSpec:
    kind = raw.get("potential.kind", "zero")
    beta = _as_float(raw, "potential.beta", 1.0)
    if kind == "zero":
        return PotentialSpec.zero()
    if kind == "power_repulsive":
        return PotentialSpec.power_repulsive(
            c=_as_float(raw, "potential.c"),
            alpha=_as_float(raw, "potential.alpha"),
            epsilon=_as_float(raw, "potential.epsilon"),
            beta=beta,
        )
    if kind == "gaussian_attractive":
        return PotentialSpec.gaussian_attractive(
            a=_as_float(raw, "potential.a"),
            s=_as_float(raw, "potential.s"),
            beta=beta,
        )
    if kind == "tabulated":
        if "potential.file" not in raw:
            raise ConfigError("potential.file is required for a tabulated kernel")
        return load_tabulated_potential(raw["potential.file"], beta=beta)
    raise ConfigError(f"potential.kind: unknown kind {kind!r}")


def _marginal_from(raw: dict, prefix: str) -> MarginalSpec:
    kind_key = f"{prefix}.kind"
    if kind_key not in raw:
        raise ConfigError(f"missing required key {kind_key!r}")
    kind = raw[kind_key]
    if kind == "gaussian_mixture":
        for part in ("weights", "means", "variances"):
            if f"{prefix}.{part}" not in raw:
                raise ConfigError(f"missing required key '{prefix}.{part}'")
        return MarginalSpec.gaussian_mixture(
            weights=_as_floats(raw, f"{prefix}.weights"),
            means=_as_floats(raw, f"{prefix}.means"),
            variances=_as_floats(raw, f"{prefix}.variances"),
        )
    if kind == "tabulated":
        if f"{prefix}.file" not in raw:
            raise ConfigError(f"missing required key '{prefix}.file'")
        return MarginalSpec.tabulated(raw[f"{prefix}.file"])
    raise ConfigError(f"{kind_key}: unknown kind {kind!r}")


def solver_config_from(raw: dict[str, str]) -> SolverConfig:
    """Materialize a SolverConfig from a raw mapping, with field-level errors."""
    if "domain" in raw:
        ends = _as_floats(raw, "domain")
        if len(ends) != 2:
            raise ConfigError(f"domain: expected two numbers, got {raw['domain']!r}")
        x_min, x_max = ends
    else:
        x_min, x_max = -2.0, 2.0
    init_tol = _as_float(raw, "init_tol", -1.0)
    return SolverConfig(
        sigma2=_as_float(raw, "sigma2"),
        theta=_as_float(raw, "theta"),
        tol=_as_float(raw, "tol"),
        potential=_potential_from(raw),
        marginal_in=_marginal_from(raw, "marginal_in"),
        marginal_fin=_marginal_from(raw, "marginal_fin"),
        x_min=x_min,
        x_max=x_max,
        n_x=_as_int(raw, "n_x", 301),
        n_t=_as_int(raw, "n_t", 100),
        n1=_as_int(raw, "N1", 200),
        n3=_as_int(raw, "N3", 500),
        potential_is_prescaled=_as_bool(raw, "potential_is_prescaled", True),
        seed=_as_int(raw, "seed", 0),
        verify_n=_as_int(raw, "verify.N", 100_000),
        init_tol=None if init_tol <= 0.0 else init_tol,
    )


def load_config(path) -> SolverConfig:
    """parse_config + solver_config_from in one call."""
    return solver_config_from(parse_config(path))


def example_config_path(name: str) -> Path:
    """Filesystem path of a bundled config (``example1`` or ``example2``)."""
    stem = name[:-4] if name.endswith(".cfg") else name
    candidate = resources.files("mfsb") / "configs" / f"{stem}.cfg"
    if not candidate.is_file():
        raise ConfigError(f"no bundled config named {name!r}")
    return Path(str(candidate))


def resolve_config_path(path_or_name) -> Path:
    """Interpret an argument as a file path, else as a bundled config name."""
    p = Path(path_or_name)
    if p.is_file():
        return p
    try:
        return example_config_path(str(path_or_name))
    except ConfigError:
        raise ConfigError(f"config file not found: {path_or_name}") from None
