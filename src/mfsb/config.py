"""Flat key = value run configuration files.

Format: one ``key = value`` pair per line, ``#`` starts a comment, list
values are whitespace separated. Unknown and duplicate keys are rejected so
typos fail loudly, and so are ``potential.*``, ``marginal_in.*`` and
``marginal_fin.*`` keys that the chosen kind does not read. Two ready-made
configurations ship with the package (``example1``: repulsive kernel,
``example2``: attractive kernel) and can be addressed by bare name wherever
a config path is expected.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .marginals import MarginalSpec
from .potentials import PotentialSpec, load_tabulated_potential
from .solver import SolverConfig

# the keys each kind of a family reads, besides <family>.kind
_POTENTIAL_KEYS = {
    "zero": (),
    "power_repulsive": ("c", "alpha", "epsilon", "beta"),
    "gaussian_attractive": ("a", "s", "beta"),
    "tabulated": ("file", "beta"),
}
_MARGINAL_KEYS = {
    "gaussian_mixture": ("weights", "means", "variances"),
    "tabulated": ("file",),
}
_FAMILIES = {
    "potential": _POTENTIAL_KEYS,
    "marginal_in": _MARGINAL_KEYS,
    "marginal_fin": _MARGINAL_KEYS,
}

_KNOWN_KEYS = {
    "domain", "n_x", "n_t", "sigma2", "theta", "tol", "N1", "seed", "verify.N",
} | {
    f"{family}.{part}"
    for family, kinds in _FAMILIES.items()
    for parts in (("kind",), *kinds.values())
    for part in parts
}

# keys naming a table file, read relative to the config file's directory
_FILE_KEYS = tuple(sorted(key for key in _KNOWN_KEYS if key.endswith(".file")))

# optional integer keys and the SolverConfig fields they set
_INT_FIELDS = {
    "n_x": "n_x", "n_t": "n_t", "N1": "n1", "seed": "seed",
    "verify.N": "verify_n",
}


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


def _as_float(raw: dict, key: str) -> float:
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw[key]!r}") from exc


def _as_int(raw: dict, key: str) -> int:
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw[key]!r}") from exc


def _as_floats(raw: dict, key: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in raw[key].split())
    except ValueError as exc:
        raise ConfigError(f"{key}: expected numbers, got {raw[key]!r}") from exc


def _kind_of(raw: dict, family: str, default: str | None = None) -> str:
    """The family's kind, after refusing the family's keys that it does not
    read: silently ignored, they would hide a typo or a stale line, so they
    are refused like unknown keys."""
    kind_key = f"{family}.kind"
    kind = raw.get(kind_key, default)
    if kind is None:
        raise ConfigError(f"missing required key {kind_key!r}")
    kinds = _FAMILIES[family]
    if kind not in kinds:
        raise ConfigError(f"{kind_key}: unknown kind {kind!r}")
    ignored = sorted(
        key for key in raw
        if key.startswith(f"{family}.") and key != kind_key
        and key.removeprefix(f"{family}.") not in kinds[kind]
    )
    if ignored:
        raise ConfigError(
            f"{kind_key} = {kind} does not read "
            f"{', '.join(repr(key) for key in ignored)}"
        )
    return kind


def _potential_from(raw: dict) -> PotentialSpec:
    kind = _kind_of(raw, "potential", default="zero")
    # an absent strength is left to the constructors' default
    beta_kw = {}
    if "potential.beta" in raw:
        beta_kw["beta"] = _as_float(raw, "potential.beta")
    if kind == "zero":
        return PotentialSpec.zero()
    if kind == "power_repulsive":
        return PotentialSpec.power_repulsive(
            c=_as_float(raw, "potential.c"),
            alpha=_as_float(raw, "potential.alpha"),
            epsilon=_as_float(raw, "potential.epsilon"),
            **beta_kw,
        )
    if kind == "gaussian_attractive":
        return PotentialSpec.gaussian_attractive(
            a=_as_float(raw, "potential.a"),
            s=_as_float(raw, "potential.s"),
            **beta_kw,
        )
    if kind == "tabulated":
        if "potential.file" not in raw:
            raise ConfigError("potential.file is required for a tabulated kernel")
        return load_tabulated_potential(raw["potential.file"], **beta_kw)


def _marginal_from(raw: dict, prefix: str) -> MarginalSpec:
    kind = _kind_of(raw, prefix)
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


def solver_config_from(raw: dict[str, str]) -> SolverConfig:
    """Materialize a SolverConfig from a raw mapping, with field-level errors.

    Optional keys that are absent take the SolverConfig defaults.
    """
    optional = {
        field: _as_int(raw, key) for key, field in _INT_FIELDS.items() if key in raw
    }
    if "domain" in raw:
        ends = _as_floats(raw, "domain")
        if len(ends) != 2:
            raise ConfigError(f"domain: expected two numbers, got {raw['domain']!r}")
        optional["x_min"], optional["x_max"] = ends
    return SolverConfig(
        sigma2=_as_float(raw, "sigma2"),
        theta=_as_float(raw, "theta"),
        tol=_as_float(raw, "tol"),
        potential=_potential_from(raw),
        marginal_in=_marginal_from(raw, "marginal_in"),
        marginal_fin=_marginal_from(raw, "marginal_fin"),
        **optional,
    )


def load_config(path) -> SolverConfig:
    """parse_config + solver_config_from in one call. A relative table file
    path is taken relative to the config file's directory."""
    raw = parse_config(path)
    for key in _FILE_KEYS:
        if key in raw:
            raw[key] = str(Path(path).parent / raw[key])
    return solver_config_from(raw)


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
