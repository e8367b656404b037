"""The public surface: what ``mfsb`` exports, and the call sites the trace
probe of ``perfbench/probe.py`` wraps."""

import importlib
import importlib.util
import sys
from pathlib import Path

import mfsb
import mfsb.cli  # noqa: F401  (the probe runs mfsb.cli, which loads every layer)

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # errors
    "CFLWarning", "ConfigError", "DomainError", "InsufficientData", "MfsbError",
    "NoConvergence", "PositivityError", "ShapeError", "SolveError", "ZeroMassError",
    # grid
    "SpatialGrid", "TimeGrid", "gradient", "integrate", "normalize",
    # metrics
    "hilbert_distance", "l1_distance", "pair_distance", "path_distance",
    # potentials
    "PotentialSpec", "PotentialTable", "eval_potential", "convolve",
    "mean_field_drift", "reaction_term_path",
    # transport
    "build_generator", "TransportOperators", "integrate_backward",
    "integrate_forward", "propagate_density",
    # one Sinkhorn pass
    "PairPath", "freeze_problem", "inner_sinkhorn",
    # marginals
    "MarginalSpec", "build_marginals",
    # solver
    "SolverConfig", "Solution", "solve", "classical_bridge_init",
    "optimal_control", "control_energy", "fit_geometric_rate",
    "contraction_constants",
    # particles
    "simulate", "empirical_density", "sampling_noise_l1", "terminal_residual",
    # config
    "load_config",
    "__version__",
}


def test_public_names_are_pinned_and_resolve():
    assert len(mfsb.__all__) == len(set(mfsb.__all__))
    assert set(mfsb.__all__) == PUBLIC
    for name in mfsb.__all__:
        assert hasattr(mfsb, name), name


def test_every_public_name_is_documented():
    readme = (ROOT / "README.md").read_text()
    missing = sorted(name for name in mfsb.__all__ if f"`{name}`" not in readme)
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
