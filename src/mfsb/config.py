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

# a key's value type and whether it is required: a tuple is a list of
# numbers, a str a table file; an absent optional key leaves its default
_NUMBER, _NUMBERS, _FILE = (float, True), (tuple, True), (str, True)
_COUNT, _ENDS, _STRENGTH = (int, False), (tuple, False), (float, False)
# what a value that does not parse as its type was expected to be
_EXPECTED = {float: "a number", int: "an integer", tuple: "numbers"}

# each top-level key and the SolverConfig field it sets (domain sets both ends)
_TOP_KEYS = {
    "n_x": ("n_x", _COUNT),
    "n_t": ("n_t", _COUNT),
    "N1": ("n1", _COUNT),
    "seed": ("seed", _COUNT),
    "verify.N": ("verify_n", _COUNT),
    "domain": (("x_min", "x_max"), _ENDS),
    "sigma2": ("sigma2", _NUMBER),
    "theta": ("theta", _NUMBER),
    "tol": ("tol", _NUMBER),
}
# the keys each kind of a family reads besides <family>.kind
_POTENTIAL_KEYS = {
    "zero": {},
    "power_repulsive": {
        "beta": _STRENGTH, "c": _NUMBER, "alpha": _NUMBER, "epsilon": _NUMBER,
    },
    "gaussian_attractive": {"beta": _STRENGTH, "a": _NUMBER, "s": _NUMBER},
    "tabulated": {"beta": _STRENGTH, "file": _FILE},
}
_MARGINAL_KEYS = {
    "gaussian_mixture": {"weights": _NUMBERS, "means": _NUMBERS, "variances": _NUMBERS},
    "tabulated": {"file": _FILE},
}
_FAMILIES = {
    "potential": _POTENTIAL_KEYS,
    "marginal_in": _MARGINAL_KEYS,
    "marginal_fin": _MARGINAL_KEYS,
}

_KNOWN_KEYS = set(_TOP_KEYS) | {
    f"{family}.{part}"
    for family, kinds in _FAMILIES.items()
    for parts in (("kind",), *kinds.values())
    for part in parts
}

# keys naming a table file, read relative to the config file's directory
_FILE_KEYS = tuple(sorted(key for key in _KNOWN_KEYS if key.endswith(".file")))


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


def _value(raw: dict, key: str, vtype: type):
    """The key's value read as its type (float, int, tuple or str)."""
    if key not in raw:
        raise ConfigError(f"missing required key {key!r}")
    text = raw[key]
    try:
        if vtype is tuple:
            return tuple(float(tok) for tok in text.split())
        return vtype(text)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected {_EXPECTED[vtype]}, got {text!r}") from exc


def _kind_and_params(
    raw: dict, family: str, default: str | None = None
) -> tuple[str, dict]:
    """The family's kind and the parameters it reads, by name (an absent
    optional one left out), after refusing the family's keys that the kind
    does not read: silently ignored, they would hide a typo or a stale line,
    so they are refused like unknown keys."""
    kind_key = f"{family}.kind"
    kind = raw.get(kind_key, default) if default else _value(raw, kind_key, str)
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
    return kind, {
        part: _value(raw, f"{family}.{part}", vtype)
        for part, (vtype, required) in kinds[kind].items()
        if required or f"{family}.{part}" in raw
    }


def _potential_from(raw: dict) -> PotentialSpec:
    kind, params = _kind_and_params(raw, "potential", default="zero")
    if kind == "tabulated":
        return load_tabulated_potential(params.pop("file"), **params)
    return PotentialSpec(kind=kind, **params)


def _marginal_from(raw: dict, family: str) -> MarginalSpec:
    kind, params = _kind_and_params(raw, family)
    return MarginalSpec(kind=kind, path=params.pop("file", None), **params)


def solver_config_from(raw: dict[str, str]) -> SolverConfig:
    """Materialize a SolverConfig from a raw mapping, with field-level errors.

    Optional keys that are absent take the SolverConfig defaults.
    """
    fields = {}
    for key, (field, (vtype, required)) in _TOP_KEYS.items():
        if not required and key not in raw:
            continue
        value = _value(raw, key, vtype)
        if vtype is tuple:  # the domain's two ends
            if len(value) != len(field):
                raise ConfigError(f"{key}: expected two numbers, got {raw[key]!r}")
            fields.update(zip(field, value))
        else:
            fields[field] = value
    return SolverConfig(
        potential=_potential_from(raw),
        marginal_in=_marginal_from(raw, "marginal_in"),
        marginal_fin=_marginal_from(raw, "marginal_fin"),
        **fields,
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
