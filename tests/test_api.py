"""The public surface: what ``mfsb`` exports, and the call sites the trace
probe of ``perfbench/probe.py`` wraps."""

import copy
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import mfsb
import mfsb.cli  # noqa: F401  (the probe runs mfsb.cli, which loads every layer)
from mfsb import config
from mfsb.config import example_config_path
from mfsb.sinkhorn import freeze_problem

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # errors
    "ConfigError", "DomainError", "MfsbError", "NoConvergence",
    "PositivityError", "ShapeError", "SolveError", "ZeroMassError",
    # grids
    "SpatialGrid", "TimeGrid",
    # problem data
    "PotentialSpec", "PotentialTable", "MarginalSpec", "PairPath",
    # the run
    "SolverConfig", "Solution", "solve", "load_config",
    # the two independent checks
    "propagate_density", "simulate", "terminal_residual",
    "contraction_constants", "__version__",
}

# building blocks of the iteration: importable from their modules only
INTERNAL = {
    "mfsb.grid": ["gradient", "integrate", "normalize"],
    "mfsb.metrics": [
        "hilbert_distance", "l1_distance", "pair_distance", "path_distance",
    ],
    "mfsb.potentials": [
        "convolve", "eval_potential", "mean_field_drift", "reaction_term_path",
    ],
    "mfsb.kolmogorov": [
        "build_generator", "TransportOperators", "integrate_backward",
        "integrate_forward",
    ],
    "mfsb.sinkhorn": ["freeze_problem", "inner_sinkhorn"],
    "mfsb.marginals": ["build_marginals"],
    "mfsb.solver": [
        "classical_bridge_init", "optimal_control", "control_energy",
    ],
    "mfsb.particles": ["empirical_density", "sampling_noise_l1"],
}


def test_public_names_are_pinned_and_resolve():
    assert len(mfsb.__all__) == len(set(mfsb.__all__))
    assert set(mfsb.__all__) == PUBLIC
    for name in mfsb.__all__:
        assert hasattr(mfsb, name), name


@pytest.mark.parametrize("module", sorted(INTERNAL))
def test_building_blocks_live_in_their_modules_only(module):
    home = importlib.import_module(module)
    for name in INTERNAL[module]:
        assert callable(getattr(home, name, None)), f"{module}.{name}"
        assert not hasattr(mfsb, name), f"mfsb.{name} is exported"


def test_every_public_name_is_documented():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(name for name in mfsb.__all__ if f"`{name}`" not in readme)
    assert missing == []


def test_every_config_key_is_documented():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(key for key in config._KNOWN_KEYS if f"`{key}`" not in readme)
    assert missing == []


def load_probe():
    """Load perfbench/probe.py as a module; nothing in it runs on import."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_probe", ROOT / "perfbench" / "probe.py"
    )
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


def test_every_traced_function_has_a_call_site_to_wrap():
    # the probe wraps a function where another mfsb submodule looks it up
    # (or also in its own module when ``own``); no site means --trace fails
    probe = load_probe()
    modules = {
        name: mod for name, mod in sys.modules.items()
        if name.startswith("mfsb.") and mod is not None
    }
    for home, attr, own, _ in probe.PHASES + probe.LAYERS:
        original = getattr(importlib.import_module(home), attr, None)
        assert original is not None, f"{home}.{attr} is gone"
        sites = [
            name for name, mod in modules.items()
            if (own or name != home) and getattr(mod, attr, None) is original
        ]
        assert sites, f"no caller of {home}.{attr} to wrap"


@pytest.fixture(scope="module")
def array_holders():
    """One instance of each dataclass that holds arrays, from a small solve."""
    cfg = dataclasses.replace(
        mfsb.load_config(example_config_path("example1")), n_x=41, n_t=10
    )
    sol = mfsb.solve(cfg)
    frozen = freeze_problem(
        sol.p, sol.pair, cfg.kernel_table, sol.p_in, sol.p_fin,
        cfg.sigma, cfg.sgrid, cfg.tgrid,
    )
    return {
        "PotentialTable": cfg.kernel_table,
        "PairPath": sol.pair,
        "FrozenProblem": frozen,
        "Solution": sol,
    }


@pytest.mark.parametrize(
    "name", ["PotentialTable", "PairPath", "FrozenProblem", "Solution"]
)
def test_array_holders_compare_and_hash_by_identity(array_holders, name):
    # a field-wise == would ask numpy for the truth value of an array, and a
    # field-wise hash would hash an array: both raise
    obj = array_holders[name]
    twin = copy.deepcopy(obj)
    assert type(obj).__name__ == name
    assert obj == obj and hash(obj) == hash(obj)
    assert (obj == twin) is False and obj != twin
