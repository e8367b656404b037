"""Config parsing and the command-line entry point with its artifacts."""

import hashlib
import importlib.util
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from mfsb import config, potentials
from mfsb.cli import _format_floats, _write_columns, main, read_pair_csv, run
from mfsb.config import (
    example_config_path,
    load_config,
    parse_config,
    resolve_config_path,
    solver_config_from,
)
from mfsb.errors import ConfigError
from mfsb.grid import SpatialGrid, TimeGrid
from mfsb.marginals import MarginalSpec, build_marginals
from mfsb.metrics import l1_distance
from mfsb.potentials import PotentialSpec
from mfsb.solver import SolverConfig, solve

ROOT = Path(__file__).resolve().parents[1]

MINI_CONFIG = """\
# zero-kernel steering problem small enough for fast tests
sigma2 = 0.2
theta = 1.0
tol = 1e-9          # inline comment
n_x = 64
n_t = 16
N1 = 10

marginal_in.kind = gaussian_mixture
marginal_in.weights = 1
marginal_in.means = -0.3
marginal_in.variances = 0.04

marginal_fin.kind = gaussian_mixture
marginal_fin.weights = 1
marginal_fin.means = 0.4
marginal_fin.variances = 0.06

verify.N = 2000
seed = 1
"""


def example_with(name, keys, drop=()):
    """A bundled example's text with the given keys set, and without the
    lines that start with one of the ``drop`` prefixes."""
    lines = [
        line for line in example_config_path(name).read_text().splitlines()
        if line.split("=", 1)[0].strip() not in keys and not line.startswith(drop)
    ]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def mixture_density(spec, x):
    """A Gaussian-mixture spec evaluated at the points x."""
    w, m, v = (
        np.asarray(a)[:, None] for a in (spec.weights, spec.means, spec.variances)
    )
    return (w * np.exp(-((x - m) ** 2) / (2.0 * v)) / np.sqrt(2.0 * np.pi * v)).sum(0)


@pytest.fixture(scope="module")
def mini_config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "mini.cfg"
    path.write_text(MINI_CONFIG)
    return path


@pytest.fixture(scope="module")
def mini_run(mini_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = run(mini_config_path, out)
    return mini_config_path, out, manifest


# ---------------------------------------------------------------------------
# parsing


def test_parse_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# full comment\n\nsigma2 = 0.5  # trailing\n\ntheta = 1\n")
    assert parse_config(path) == {"sigma2": "0.5", "theta": "1"}


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("sigma2 0.5\n", "key = value"),
        ("made_up_key = 3\n", "unknown key"),
        ("N2 = 50\n", "unknown key"),  # the middle loop and its budget are gone
        ("N3 = 500\n", "unknown key"),  # so are the inner loop and its budget
        ("init_tol = 1e-11\n", "unknown key"),  # the bridge start runs to tol
        # the kernel's 1/sigma2 scale is set through potential.beta
        ("potential_is_prescaled = true\n", "unknown key"),
        ("sigma2 = 1\nsigma2 = 2\n", "duplicate key"),
        ("sigma2 =\n", "empty value"),
    ],
)
def test_parse_rejects_malformed_lines(tmp_path, body, fragment):
    path = tmp_path / "bad.cfg"
    path.write_text(body)
    with pytest.raises(ConfigError, match=fragment):
        parse_config(path)


def test_parse_missing_file_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "absent.cfg")


def test_bundled_example_round_trips_every_field():
    cfg = load_config(example_config_path("example1"))
    assert cfg.sigma2 == 0.2
    assert cfg.theta == 0.7
    assert cfg.tol == 1e-6
    assert (cfg.x_min, cfg.x_max) == (-2.0, 2.0)
    assert (cfg.n_x, cfg.n_t) == (301, 100)
    assert cfg.n1 == 200
    assert cfg.potential.kind == "power_repulsive"
    assert (cfg.potential.c, cfg.potential.alpha) == (5.0, 0.2)
    assert cfg.potential.epsilon == 0.01
    assert cfg.potential.beta == 1.0
    assert cfg.marginal_in.kind == "gaussian_mixture"
    assert cfg.marginal_in.weights == (0.5, 0.5)
    assert cfg.marginal_in.means == (0.5, -0.4)
    assert cfg.marginal_fin.variances == (0.04,)
    assert cfg.verify_n == 100_000
    assert cfg.seed == 0


def test_second_bundled_example_loads():
    cfg = load_config(example_config_path("example2.cfg"))
    assert cfg.potential.kind == "gaussian_attractive"
    assert cfg.n_x >= 8


def test_unknown_bundled_name_is_rejected():
    with pytest.raises(ConfigError, match="no bundled config"):
        example_config_path("example99")


def test_resolve_prefers_real_files(tmp_path, mini_config_path):
    assert resolve_config_path(mini_config_path) == mini_config_path
    assert resolve_config_path("example1").name == "example1.cfg"
    with pytest.raises(ConfigError, match="not found"):
        resolve_config_path(tmp_path / "nope.cfg")


def test_config_values_are_validated():
    base = parse_config(example_config_path("example1"))
    bad = dict(base, theta="1.5")
    with pytest.raises(ConfigError, match="theta"):
        solver_config_from(bad)
    with pytest.raises(ConfigError, match="number"):
        solver_config_from(dict(base, sigma2="abc"))
    with pytest.raises(ConfigError, match="integer"):
        solver_config_from(dict(base, n_x="lots"))
    with pytest.raises(ConfigError, match="domain"):
        solver_config_from(dict(base, domain="-2 0 2"))
    with pytest.raises(ConfigError, match="potential.kind"):
        solver_config_from(dict(base, **{"potential.kind": "mystery"}))


ZERO_READS_NOTHING = (
    "potential.kind = zero does not read "
    "'potential.a', 'potential.beta', 'potential.s'"
)


def test_kernel_keys_the_kind_does_not_read_are_refused():
    # accepted, such a key would be silently ignored: example2 with only its
    # kind set to zero would keep beta = 1 in its file and echo beta = 0
    base = parse_config(example_config_path("example2"))
    with pytest.raises(ConfigError) as info:
        solver_config_from(dict(base, **{"potential.kind": "zero"}))
    assert str(info.value) == ZERO_READS_NOTHING
    # no kind is the zero kernel
    del base["potential.kind"]
    with pytest.raises(ConfigError) as info:
        solver_config_from(base)
    assert str(info.value) == ZERO_READS_NOTHING
    # a power-law kernel has no width s
    example1 = parse_config(example_config_path("example1"))
    with pytest.raises(ConfigError) as info:
        solver_config_from(dict(example1, **{"potential.s": "0.3"}))
    assert str(info.value) == (
        "potential.kind = power_repulsive does not read 'potential.s'"
    )


def test_cli_zero_kernel_with_kernel_parameters_exits_one(tmp_path, capsys):
    path = tmp_path / "zero.cfg"
    path.write_text(example_with("example2", {"potential.kind": "zero"}))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {ZERO_READS_NOTHING}"]
    assert not out.exists()


@pytest.mark.parametrize("case", ["mixture with a file", "table with mixture keys"])
def test_cli_marginal_keys_the_kind_does_not_read_exit_one(tmp_path, capsys, case):
    # both used to run to convergence and exit 0, the stray keys unread
    if case == "mixture with a file":
        keys, drop = {"marginal_in.file": "nowhere.txt"}, ()
        message = "marginal_in.kind = gaussian_mixture does not read 'marginal_in.file'"
    else:
        x = np.linspace(-2.5, 2.5, 101)
        table = tmp_path / "p_fin.txt"
        np.savetxt(table, np.column_stack([x, np.exp(-((x - 0.4) ** 2) / 0.08)]))
        # example1's marginal_fin.weights = 1 stays
        keys = {
            "marginal_fin.kind": "tabulated", "marginal_fin.file": table,
            "marginal_fin.means": "3",
        }
        drop = ("marginal_fin.variances",)
        message = (
            "marginal_fin.kind = tabulated does not read "
            "'marginal_fin.means', 'marginal_fin.weights'"
        )
    path = tmp_path / "stray.cfg"
    path.write_text(example_with("example1", keys, drop))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


REQUIRED_ONLY = """\
sigma2 = 0.2
theta = 1.0
tol = 1e-9
marginal_in.kind = gaussian_mixture
marginal_in.weights = 1
marginal_in.means = -0.3
marginal_in.variances = 0.04
marginal_fin.kind = gaussian_mixture
marginal_fin.weights = 1
marginal_fin.means = 0.4
marginal_fin.variances = 0.06
"""


def test_absent_optional_keys_take_the_solver_config_defaults(tmp_path):
    required = dict(
        sigma2=0.2,
        theta=1.0,
        tol=1e-9,
        marginal_in=MarginalSpec.gaussian_mixture((1.0,), (-0.3,), (0.04,)),
        marginal_fin=MarginalSpec.gaussian_mixture((1.0,), (0.4,), (0.06,)),
    )
    path = tmp_path / "required.cfg"
    path.write_text(REQUIRED_ONLY)
    assert load_config(path) == SolverConfig(potential=PotentialSpec.zero(), **required)
    # a kernel without potential.beta takes its constructor's strength
    kernel = (
        "potential.kind = gaussian_attractive\npotential.a = 1\npotential.s = 0.3\n"
    )
    path.write_text(REQUIRED_ONLY + kernel)
    assert load_config(path) == SolverConfig(
        potential=PotentialSpec.gaussian_attractive(a=1.0, s=0.3), **required
    )
    path.write_text(REQUIRED_ONLY + kernel + "potential.beta = 0.5\n")
    assert load_config(path).potential.beta == 0.5


# two valid values of every key in the config tables: a config of the
# first values loads, and the second value of any one key must change it
TOP_VALUES = {
    "domain": ("-2 2", "-3 3"), "n_x": ("41", "43"), "n_t": ("10", "12"),
    "sigma2": ("0.2", "0.3"), "theta": ("0.7", "1"), "tol": ("1e-6", "1e-7"),
    "N1": ("200", "20"), "seed": ("0", "1"), "verify.N": ("1000", "2000"),
}
KIND_VALUES = {
    "potential": {
        "zero": {},
        "power_repulsive": {
            "c": ("5", "4"), "alpha": ("0.2", "0.3"), "epsilon": ("0.01", "0.02"),
            "beta": ("1", "0.5"),
        },
        "gaussian_attractive": {
            "a": ("1", "2"), "s": ("0.3", "0.2"), "beta": ("1", "0.5"),
        },
        "tabulated": {"file": ("kernel1.txt", "kernel2.txt"), "beta": ("1", "0.5")},
    },
    "marginal": {
        "gaussian_mixture": {
            "weights": ("0.5 0.5", "0.25 0.75"), "means": ("0.5 -0.4", "0.4 -0.4"),
            "variances": ("0.04 0.04", "0.05 0.04"),
        },
        "tabulated": {"file": ("p1.txt", "p2.txt")},
    },
}
DEFAULT_KINDS = {
    "potential": "power_repulsive",
    "marginal_in": "gaussian_mixture",
    "marginal_fin": "gaussian_mixture",
}


def write_table_config(directory, kinds=(), second=None, drop=None):
    """Write directory/table.cfg with the given kind per family (else the
    DEFAULT_KINDS) and every key at its first value, but ``second`` at its
    second value and ``drop`` left out, beside the four table files it may
    name; return its path."""
    r = np.linspace(-5.0, 5.0, 201)
    x = np.linspace(-2.5, 2.5, 101)
    for i, width in ((1, 0.09), (2, 0.05)):
        kernel, p = np.exp(-r * r / width), np.exp(-x * x / width)
        np.savetxt(directory / f"kernel{i}.txt", np.column_stack([r, kernel]))
        np.savetxt(directory / f"p{i}.txt", np.column_stack([x, p]))
    keys = dict(TOP_VALUES)
    for family, kind in dict(DEFAULT_KINDS, **dict(kinds)).items():
        keys[f"{family}.kind"] = (kind,)
        for part, values in KIND_VALUES[family.split("_")[0]][kind].items():
            keys[f"{family}.{part}"] = values
    path = directory / "table.cfg"
    path.write_text("".join(
        f"{key} = {values[1 if key == second else 0]}\n"
        for key, values in keys.items() if key != drop
    ))
    return path


TABLE_KEYS = [
    pytest.param(family, kind, f"{family}.{part}", id=f"{family}.{part}-{kind}")
    for family, kinds in config._FAMILIES.items()
    for kind, parts in kinds.items()
    for part in parts
] + [pytest.param(None, None, key, id=key) for key in config._TOP_KEYS]


@pytest.mark.parametrize("family, kind, key", TABLE_KEYS)
def test_every_table_key_changes_the_solver_config(tmp_path, family, kind, key):
    # a key that is accepted but left unread would build the same config
    kinds = {family: kind} if family else {}
    base = load_config(write_table_config(tmp_path, kinds))
    assert load_config(write_table_config(tmp_path, kinds, second=key)) != base


def test_the_kind_tables_match_the_builders(tmp_path):
    assert tuple(config._POTENTIAL_KEYS) == potentials._KINDS
    # build_marginals builds every marginal kind of the table, and only those
    for kind in config._MARGINAL_KEYS:
        cfg = load_config(write_table_config(tmp_path, {"marginal_in": kind}))
        assert build_marginals(cfg.marginal_in, cfg.sgrid).shape == (cfg.n_x,)
    with pytest.raises(ConfigError, match="unknown marginal kind 'uniform'"):
        build_marginals(MarginalSpec(kind="uniform"), SpatialGrid(-2.0, 2.0, 64))


MARGINALS = ("marginal_in", "marginal_fin")
# every required key, with the kind of its family that reads it
REQUIRED = {
    "sigma2": None, "theta": None, "tol": None,
    "marginal_in.kind": None, "marginal_fin.kind": None,
    "potential.c": "power_repulsive", "potential.alpha": "power_repulsive",
    "potential.epsilon": "power_repulsive",
    "potential.a": "gaussian_attractive", "potential.s": "gaussian_attractive",
    "potential.file": "tabulated",
    **{
        f"{family}.{part}": "gaussian_mixture"
        for family in MARGINALS for part in ("weights", "means", "variances")
    },
    **{f"{family}.file": "tabulated" for family in MARGINALS},
}


def test_the_required_keys_are_those_the_tables_require():
    required = {
        key: None for key, (_, (_, needed)) in config._TOP_KEYS.items() if needed
    }
    required.update({f"{family}.kind": None for family in MARGINALS})
    for family, kinds in config._FAMILIES.items():
        for kind, parts in kinds.items():
            for part, (_, needed) in parts.items():
                if needed:
                    required[f"{family}.{part}"] = kind
    assert required == REQUIRED


@pytest.mark.parametrize("key", REQUIRED)
def test_cli_missing_required_key_exits_one(tmp_path, capsys, key):
    family = key.split(".")[0]
    kinds = {family: REQUIRED[key]} if REQUIRED[key] else {}
    # the same config with the key loads
    load_config(write_table_config(tmp_path, kinds))
    path = write_table_config(tmp_path, kinds, drop=key)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: missing required key {key!r}"
    ]
    assert not out.exists()


def test_mixture_weights_must_sum_to_one():
    grid = SpatialGrid(-2.0, 2.0, 64)
    spec = MarginalSpec.gaussian_mixture([0.5, 0.6], [0.0, 1.0], [0.04, 0.04])
    with pytest.raises(ConfigError, match="sum to 1"):
        build_marginals(spec, grid)
    # a named marginal is named in the message
    with pytest.raises(ConfigError) as info:
        build_marginals(spec, grid, "marginal_fin")
    assert str(info.value) == "mixture marginal_fin.weights must sum to 1, got 1.1"


NON_FINITE_MIXTURES = [
    # an infinite mean used to drop its component without a word, and NaN
    # weights passed the sum-to-one check
    pytest.param("means", "inf -0.4", "means[0] = inf", id="inf-mean"),
    pytest.param("means", "nan -0.4", "means[0] = nan", id="nan-mean"),
    pytest.param("weights", "nan nan", "weights[0] = nan", id="nan-weights"),
    pytest.param("variances", "0.04 inf", "variances[1] = inf", id="inf-variance"),
]


@pytest.mark.parametrize("field, values, bad", NON_FINITE_MIXTURES)
def test_mixture_parameters_must_be_finite(field, values, bad):
    params = {"weights": [0.5, 0.5], "means": [0.5, -0.4], "variances": [0.04, 0.04]}
    params[field] = [float(v) for v in values.split()]
    spec = MarginalSpec.gaussian_mixture(**params)
    with pytest.raises(ConfigError, match=re.escape(f"mixture {field} must be finite: {bad}")):
        build_marginals(spec, SpatialGrid(-2.0, 2.0, 64))


@pytest.mark.parametrize("field, values, bad", NON_FINITE_MIXTURES)
def test_cli_non_finite_mixture_exits_one_by_name(
    tmp_path, capsys, field, values, bad
):
    # the message names the marginal as well as the list and index
    for marginal in ("marginal_in", "marginal_fin"):
        keys = {
            f"{marginal}.weights": "0.5 0.5",
            f"{marginal}.means": "0.5 -0.4",
            f"{marginal}.variances": "0.04 0.04",
            f"{marginal}.{field}": values,
        }
        path = tmp_path / f"{marginal}.cfg"
        path.write_text(example_with("example1", keys))
        out = tmp_path / marginal
        assert main(["run", str(path), "--out", str(out), "--no-verify"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: mixture {field} must be finite: {marginal}.{bad}"
        ]
        assert not out.exists()


# ---------------------------------------------------------------------------
# run artifacts


def test_run_writes_the_full_artifact_set(mini_run):
    _, out, manifest = mini_run
    assert manifest["status"] == "converged"
    # run returns the manifest that manifest.json holds
    written = json.loads((out / "manifest.json").read_text())
    assert written.keys() == manifest.keys()
    assert written["files"] == manifest["files"]
    for name in ("densities.csv", "control.csv", "pair.csv", "trace.json",
                 "manifest.json"):
        assert (out / name).is_file()
    for name, digest in manifest["files"].items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest["sha256"]
        assert len(blob) == digest["bytes"]
    assert manifest["error"] is None
    assert set(manifest["verification"]) == {"pde", "particles"}
    assert np.isfinite(manifest["verification"]["pde"]["terminal_l1"])
    assert manifest["verification"]["particles"]["n"] == 2000
    assert manifest["timings"]["solve_seconds"] > 0.0
    # the two checks are timed apart; the trace and data files hold no times
    timings = manifest["timings"]
    pde, particles = (timings[k] for k in ("pde_seconds", "particles_seconds"))
    assert pde > 0.0 and particles > 0.0
    assert pde + particles <= timings["verify_seconds"]
    assert "seconds" not in (out / "trace.json").read_text()


def test_verified_run_is_silent_and_reports_three_pde_numbers(tmp_path, capsys):
    # example1 on a coarse grid, where the closed-loop advective CFL number
    # exceeds one (the bundled runs reach 5.03 and 19.8): a number in the
    # report, and neither a warning nor any other line on stderr
    path = tmp_path / "coarse.cfg"
    path.write_text(
        example_with("example1", {"n_x": 41, "n_t": 10, "verify.N": 1000})
    )
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--out", str(out)]) == 0
    assert caught == []
    assert capsys.readouterr().err == ""
    trace = json.loads((out / "trace.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["verification"] == trace["verification"]
    pde = trace["verification"]["pde"]
    assert set(pde) == {"terminal_l1", "cfl_max", "mass_drift_max"}
    assert pde["cfl_max"] > 1.0
    assert trace["verification"]["particles"]["n"] == 1000


def test_csv_format_and_round_trip(mini_run):
    cfg_path, out, _ = mini_run
    cfg = load_config(cfg_path)
    blob = (out / "densities.csv").read_bytes()
    assert b"\r" not in blob
    lines = blob.decode().splitlines()
    assert lines[0] == "t,x,p"
    assert len(lines) == 1 + (cfg.n_t + 1) * cfg.n_x
    data = np.loadtxt(out / "densities.csv", delimiter=",", skiprows=1)
    shape = (cfg.n_t + 1, cfg.n_x)
    # 17 significant digits round-trip doubles exactly
    sol = solve(cfg)
    np.testing.assert_array_equal(data[:, 2].reshape(shape), sol.p)
    np.testing.assert_array_equal(data[: cfg.n_x, 1], cfg.sgrid.nodes)
    np.testing.assert_array_equal(
        data[:: cfg.n_x, 0], cfg.tgrid.times
    )


def test_csv_writer_matches_whole_file_formatting(tmp_path):
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 1.0, 4)
    nodes = np.linspace(-1.0, 1.0, 5)
    columns = [rng.normal(size=(4, 5)), np.exp(rng.normal(size=(4, 5)) * 100.0)]
    _write_columns(
        tmp_path / "out.csv", "t,x,a,b",
        _format_floats(times), _format_floats(nodes), columns,
    )
    lines = ["t,x,a,b\n"]
    for l, t in enumerate(times):
        for i, x in enumerate(nodes):
            values = (t, x, columns[0][l, i], columns[1][l, i])
            lines.append(",".join(format(float(v), ".17g") for v in values) + "\n")
    assert (tmp_path / "out.csv").read_bytes() == "".join(lines).encode()


def test_csv_endpoints_match_the_marginals(mini_run):
    cfg_path, out, _ = mini_run
    cfg = load_config(cfg_path)
    data = np.loadtxt(out / "densities.csv", delimiter=",", skiprows=1)
    p = data[:, 2].reshape(cfg.n_t + 1, cfg.n_x)
    assert l1_distance(p[0], build_marginals(cfg.marginal_in, cfg.sgrid),
                       cfg.sgrid) <= 1e-6
    assert l1_distance(p[-1], build_marginals(cfg.marginal_fin, cfg.sgrid),
                       cfg.sgrid) <= 1e-6


def test_trace_bookkeeping_is_consistent(mini_run):
    _, out, _ = mini_run
    trace = json.loads((out / "trace.json").read_text())["trace"]
    assert trace["converged"] is True
    assert len(trace["outer_dh"]) == trace["outer_iterations"]
    assert len(trace["middle_dh"]) == trace["outer_iterations"]
    # one Sinkhorn pass per outer evaluation
    assert trace["inner_iterations"] == [[1]] * trace["outer_iterations"]
    assert all(len(dh) == 1 for dh in trace["middle_dh"])
    assert "inner_dh" not in trace
    assert "wall_times" not in trace


def test_perfbench_reads_the_run_artifacts(mini_run):
    # perfbench/checks.py and perfbench/run.py read a run's files without
    # importing mfsb; a key or layout they read that is gone fails here. The
    # closed-loop gate (verified=True) is set for the shipped grid, not this
    # one, so only the answer itself is checked
    cfg_path, out, _ = mini_run
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", ROOT / "perfbench" / "checks.py"
    )
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    fails, facts = checks.check_run(checks.Problem(cfg_path), out, verified=False)
    assert fails == []
    # the trace expressions of run.py's layer_metrics
    trace = facts["trace"]
    outer = trace["outer_iterations"]
    assert outer >= 1
    assert sum(map(sum, trace["inner_iterations"])) == outer
    assert [len(seq) for seq in trace["middle_dh"]] == [1] * outer


def test_reruns_are_byte_identical(mini_config_path, tmp_path):
    first = run(mini_config_path, tmp_path / "a")
    second = run(mini_config_path, tmp_path / "b")
    assert first["files"] == second["files"]
    assert first["verification"] == second["verification"]


def test_warm_start_round_trip(mini_run, tmp_path):
    cfg_path, out, cold = mini_run
    warm = run(cfg_path, tmp_path / "warm", warm_start_path=out / "pair.csv")
    assert warm["status"] == "converged"
    trace = json.loads((tmp_path / "warm" / "trace.json").read_text())["trace"]
    assert trace["init_dh"] == []  # no fresh bridge was computed
    assert trace["outer_iterations"] >= 1
    data_cold = np.loadtxt(out / "densities.csv", delimiter=",", skiprows=1)
    data_warm = np.loadtxt(tmp_path / "warm" / "densities.csv",
                           delimiter=",", skiprows=1)
    cfg = load_config(cfg_path)
    p_cold = data_cold[:, 2].reshape(cfg.n_t + 1, cfg.n_x)
    p_warm = data_warm[:, 2].reshape(cfg.n_t + 1, cfg.n_x)
    worst = max(
        l1_distance(p_cold[l], p_warm[l], cfg.sgrid) for l in range(cfg.n_t + 1)
    )
    assert worst <= 1e-7


def test_pair_reader_validates_its_input(mini_run, tmp_path):
    cfg_path, out, _ = mini_run
    cfg = load_config(cfg_path)
    pair = read_pair_csv(out / "pair.csv", cfg.sgrid, cfg.tgrid)
    assert pair.phi.shape == (cfg.n_t + 1, cfg.n_x)

    with pytest.raises(ConfigError, match="expected"):
        read_pair_csv(out / "pair.csv", SpatialGrid(-2.0, 2.0, 32), cfg.tgrid)

    garbage = tmp_path / "garbage.csv"
    garbage.write_text("t,x,phi,phihat\nnot,numbers,at,all\n")
    with pytest.raises(ConfigError, match="cannot read"):
        read_pair_csv(garbage, cfg.sgrid, cfg.tgrid)

    sgrid = SpatialGrid(-2.0, 2.0, 8)
    tgrid = TimeGrid(2)
    rows = []
    for t in tgrid.times:
        for x in sgrid.nodes:
            rows.append(f"{t},{x + 0.5},1.0,1.0\n")
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("t,x,phi,phihat\n" + "".join(rows))
    with pytest.raises(ConfigError, match="node coordinates"):
        read_pair_csv(shifted, sgrid, tgrid)


def reverse_slices(rows, n_x):
    # every x column still matches, but the t column runs from 1 to 0
    slices = [rows[i:i + n_x] for i in range(0, len(rows), n_x)]
    return sum(slices[::-1], [])


def zero_first_phi(rows, n_x):
    t, x, _, phihat = rows[0].split(",")
    return [f"{t},{x},0,{phihat}"] + rows[1:]


@pytest.mark.parametrize("damage, message", [
    (reverse_slices, "time coordinates do not match the config grid"),
    (zero_first_phi, "phi must be strictly positive and finite"),
], ids=["time-reversed", "zero-phi"])
def test_cli_refuses_a_bad_warm_start_file_by_name(
    mini_run, tmp_path, capsys, damage, message
):
    cfg_path, out, _ = mini_run
    head, *rows = (out / "pair.csv").read_text().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    bad.write_text(head + "".join(damage(rows, load_config(cfg_path).n_x)))
    code = main(["run", str(cfg_path), "--no-verify", "--out", str(tmp_path / "o"),
                 "--warm-start", str(bad)])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {bad}: {message}"]
    assert not (tmp_path / "o").exists()


def test_zero_kernel_run_writes_bridge_artifacts(tmp_path):
    # the classical bridge is the zero kernel's run: the bridge start plus
    # one outer step that confirms it
    path = tmp_path / "zero.cfg"
    path.write_text(MINI_CONFIG + "potential.kind = zero\n")
    out = tmp_path / "bridge"
    assert main(["run", str(path), "--out", str(out), "--no-verify"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "converged"
    assert manifest["verification"] is None
    assert manifest["config"]["potential"]["kind"] == "zero"
    trace = json.loads((out / "trace.json").read_text())["trace"]
    assert len(trace["init_dh"]) >= 1
    assert trace["outer_iterations"] == 1
    cfg = load_config(path)
    data = np.loadtxt(out / "densities.csv", delimiter=",", skiprows=1)
    p = data[:, 2].reshape(cfg.n_t + 1, cfg.n_x)
    assert l1_distance(p[0], build_marginals(cfg.marginal_in, cfg.sgrid),
                       cfg.sgrid) <= 1e-10


# ---------------------------------------------------------------------------
# exit codes


def test_cli_run_exits_zero(mini_config_path, tmp_path, capsys):
    code = main(["run", str(mini_config_path), "--out", str(tmp_path / "o"),
                 "--no-verify"])
    assert code == 0
    assert "converged" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["verification"] is None


def test_cli_budget_exhaustion_exits_two(tmp_path, capsys):
    text = MINI_CONFIG.replace("N1 = 10", "N1 = 1").replace(
        "theta = 1.0", "theta = 0.7"
    )
    text += (
        "potential.kind = power_repulsive\n"
        "potential.c = 5\npotential.alpha = 0.2\npotential.epsilon = 0.01\n"
    )
    path = tmp_path / "tight.cfg"
    path.write_text(text)
    code = main(["run", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["status"] == "no_convergence"
    assert manifest["error"]["level"] == "outer"
    assert (tmp_path / "o" / "densities.csv").is_file()


@pytest.mark.parametrize(
    "argv, drop, settings, bridge_max_iter, level",
    [
        pytest.param(
            ["run", "--no-verify"], ("N1 ",), ["N1 = 1"], None, "outer",
            id="N1 = 1-outer",
        ),
        # the classical-bridge start stops at its budget, short of the 6
        # passes it needs to reach tol, whatever the kernel
        pytest.param(
            ["run", "--no-verify"], (), [], 2, "inner", id="bridge 2-inner"
        ),
        # the zero kernel reads no other potential.* key, so all go
        pytest.param(
            ["run", "--no-verify"], ("potential.",), ["potential.kind = zero"],
            5, "inner", id="classic-bridge 5",
        ),
    ],
)
def test_cli_each_exhausted_budget_exits_two_with_artifacts(
    tmp_path, capsys, monkeypatch, argv, drop, settings, bridge_max_iter, level
):
    if bridge_max_iter is not None:
        monkeypatch.setattr("mfsb.solver.BRIDGE_MAX_ITER", bridge_max_iter)
    # example2 as shipped, its lines starting with drop replaced by settings
    text = "\n".join(
        line for line in example_config_path("example2").read_text().splitlines()
        if not line.startswith(drop)
    ) + "\n" + "\n".join(settings) + "\n"
    path = tmp_path / "short.cfg"
    path.write_text(text)
    out = tmp_path / "o"
    assert main([argv[0], str(path), "--out", str(out), *argv[1:]]) == 2
    assert "no_convergence" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "no_convergence"
    assert manifest["error"]["level"] == level
    for name in ("densities.csv", "control.csv", "pair.csv", "trace.json"):
        digest = manifest["files"][name]
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest["sha256"]
    trace = json.loads((out / "trace.json").read_text())
    assert trace["status"] == "no_convergence"
    assert trace["error"]["level"] == level
    assert np.isfinite(trace["cost"])
    # the minima of the written pair and density, never null
    for key in ("min_phi", "min_phihat", "min_density"):
        value = trace["trace"][key]
        assert isinstance(value, float) and value > 0.0, (key, value)
    if level == "inner":
        # the start's last pass is the distance the error reports
        init_dh = trace["trace"]["init_dh"]
        assert len(init_dh) == bridge_max_iter
        assert trace["error"]["last_distance"] == init_dh[-1]
        assert trace["error"]["message"].startswith(
            "the classical-bridge start did not reach tol"
        )


def test_cli_tol_below_the_stall_floor_exits_one(tmp_path, capsys):
    # tol = 1e-14 sits below the 1.1e-14 to 2.4e-14 where the outer steps of
    # `mfsb run example2` stall, which would burn its budget (exit 2); a tol
    # at or below the floor is a bad input
    path = tmp_path / "stall.cfg"
    path.write_text(example_with("example2", {"tol": "1e-14"}))
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tol must be finite and exceed 7.11e-14")
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_bad_input_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err
    # a tabulated kernel or marginal file that neither whitespace nor comma
    # splitting can parse is a bad input that names the file, and leaves no
    # output directory
    table = tmp_path / "letters.txt"
    table.write_text("a b\nc d\n")
    without_marginal_in = "".join(
        line for line in MINI_CONFIG.splitlines(keepends=True)
        if not line.startswith("marginal_in.")
    )
    for name, text in (
        ("kernel", MINI_CONFIG
         + f"potential.kind = tabulated\npotential.file = {table}\n"),
        ("marginal", without_marginal_in
         + f"marginal_in.kind = tabulated\nmarginal_in.file = {table}\n"),
    ):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        assert main(["run", str(path), "--out", str(tmp_path / name)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {name} file {table}"
        )
        assert not (tmp_path / name).exists()
    # a kernel table short of the displacement grid [-4, 4] is found inside
    # the solve, still before anything is written
    short = tmp_path / "short.txt"
    r = np.linspace(-3.0, 3.0, 61)
    np.savetxt(short, np.column_stack([r, np.exp(-r * r)]))
    path = tmp_path / "short.cfg"
    path.write_text(
        MINI_CONFIG + f"potential.kind = tabulated\npotential.file = {short}\n"
    )
    assert main(["run", str(path), "--out", str(tmp_path / "short")]) == 1
    assert capsys.readouterr().err.startswith("error: tabulated potential covers")
    assert not (tmp_path / "short").exists()
    # a non-finite sample in either column is refused by name, before the
    # spline fit sees it
    r = np.linspace(-5.0, 5.0, 101)
    for name, column, value in (("nan", 1, np.nan), ("inf", 0, np.inf)):
        samples = np.column_stack([r, np.exp(-r * r)])
        samples[40, column] = value
        table = tmp_path / f"{name}.txt"
        np.savetxt(table, samples)
        path = tmp_path / f"{name}.cfg"
        path.write_text(
            MINI_CONFIG + f"potential.kind = tabulated\npotential.file = {table}\n"
        )
        assert main(["run", str(path), "--out", str(tmp_path / name)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: tabulated potential samples must be finite")
        assert "[40] = " in err and name in err
        assert not (tmp_path / name).exists()
    # so is a kernel parameter that is not finite, by its name: potential.s
    # = inf used to run to "converged" on a constant kernel, potential.epsilon
    # = inf on a zero one, and c = nan or a = inf to end in a sweep's
    # PositivityError
    for kind, params in (
        ("gaussian_attractive", {"a": "inf", "s": "0.3"}),
        ("gaussian_attractive", {"a": "1.0", "s": "inf"}),
        ("power_repulsive", {"c": "nan", "alpha": "0.2", "epsilon": "0.01"}),
        ("power_repulsive", {"c": "5.0", "alpha": "0.2", "epsilon": "inf"}),
    ):
        bad = next(key for key, value in params.items() if value in ("inf", "nan"))
        path = tmp_path / f"{kind}-{bad}.cfg"
        path.write_text(MINI_CONFIG + f"potential.kind = {kind}\n" + "".join(
            f"potential.{key} = {value}\n" for key, value in params.items()
        ))
        out = tmp_path / f"{kind}-{bad}"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {kind} needs a finite {bad} > 0, got {params[bad]}"
        )
        assert not out.exists()
    # so is a non-finite sample of a tabulated marginal, by file and index
    x = np.linspace(-2.5, 2.5, 101)
    for name, column, value in (("nan", 1, np.nan), ("inf", 0, np.inf)):
        samples = np.column_stack([x, np.exp(-x * x / 0.08)])
        samples[40, column] = value
        table = tmp_path / f"marginal-{name}.txt"
        np.savetxt(table, samples)
        path = tmp_path / f"marginal-{name}.cfg"
        path.write_text(
            without_marginal_in
            + f"marginal_in.kind = tabulated\nmarginal_in.file = {table}\n"
        )
        out = tmp_path / f"marginal-{name}"
        assert main(["run", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}: samples must be finite: (x, p)[40] = ")
        assert name in err and "Traceback" not in err
        assert not out.exists()


def test_tabulated_marginal_names_at_most_three_non_finite_samples(tmp_path):
    x = np.linspace(-2.5, 2.5, 51)
    samples = np.column_stack([x, np.exp(-x * x)])
    samples[[3, 7, 9, 11, 20], 1] = [np.nan, np.inf, -np.inf, np.nan, np.nan]
    table = tmp_path / "p.txt"
    np.savetxt(table, samples)
    spec = MarginalSpec.tabulated(table)
    with pytest.raises(ConfigError) as info:
        build_marginals(spec, SpatialGrid(-2.0, 2.0, 64))
    assert str(info.value) == (
        f"{table}: samples must be finite: (x, p)[3] = ({x[3]}, nan), "
        f"(x, p)[7] = ({x[7]}, inf), (x, p)[9] = ({x[9]}, -inf) and 2 more"
    )


def test_cli_huge_kernel_exits_one_without_artifacts(tmp_path, capsys):
    # beta = 1e300 is finite and accepted, but the first freeze of the
    # kernel overflows its decay and anchor factors: a bad input that exits 1
    # with exactly one error line naming them, no numpy warning, and nothing
    # written
    path = tmp_path / "huge.cfg"
    path.write_text(
        example_with("example1", {"n_x": 41, "n_t": 10, "potential.beta": "1e300"})
    )
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--out", str(out)]) == 1
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "exp_in_plus" in err[0]
    assert not out.exists()


@pytest.mark.parametrize(
    "example, sweep", [("example1", "forward"), ("example2", "backward")]
)
def test_cli_diverging_sweep_exits_one_without_a_warning(
    tmp_path, capsys, example, sweep
):
    # beta = 30 on a coarse grid: the outer loop diverges until a Sinkhorn
    # sweep overflows; the sweep's own check reports it, and numpy's overflow
    # warning does not precede the one error line
    path = tmp_path / "diverging.cfg"
    path.write_text(example_with(example, {
        "potential.beta": 30, "n_x": 41, "n_t": 10, "verify.N": 1000,
    }))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", str(path), "--out", str(out)]) == 1
    assert caught == []
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {sweep} sweep lost positivity"]
    assert not out.exists()


def test_tabulated_marginal_is_interpolated_within_its_error_bound(tmp_path, capsys):
    # example1's initial mixture tabulated on 401 points over [-2.5, 2.5],
    # rows reversed and comma separated
    spec = load_config(example_config_path("example1")).marginal_in
    x = np.linspace(-2.5, 2.5, 401)
    table = tmp_path / "p_in.csv"
    p = mixture_density(spec, x)
    table.write_text("".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x[::-1], p[::-1])))
    grid = SpatialGrid(-2.0, 2.0, 301)
    tabulated = build_marginals(MarginalSpec.tabulated(table), grid)
    # linear interpolation misses f by at most dx^2 / 8 max|f''|, and a
    # Gaussian's |f''| peaks at its mean, at 1 / (sqrt(2 pi v) v); dividing
    # by masses m and m~ (|m~ - m| <= L eps) keeps the normalized densities
    # within eps (m + L max f) / (m (m - L eps))
    w, v = np.asarray(spec.weights), np.asarray(spec.variances)
    eps = (x[1] - x[0]) ** 2 / 8.0 * np.sum(w / (np.sqrt(2.0 * np.pi * v) * v))
    f = mixture_density(spec, grid.nodes)
    m = np.trapezoid(f, grid.nodes)
    length = grid.x_max - grid.x_min
    bound = eps * (m + length * f.max()) / (m * (m - length * eps))
    assert np.abs(tabulated - build_marginals(spec, grid)).max() <= bound
    # the sorted samples must be nonnegative and cover the grid
    rows = table.read_text().splitlines()
    for name, lines, message in (
        ("negative", [rows[0].split(",")[0] + ",-1e-3"] + rows[1:], "negative"),
        ("short", rows[41:-41], "but the grid needs"),
    ):
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=message):
            build_marginals(MarginalSpec.tabulated(bad), grid)

    path = tmp_path / "tabulated.cfg"
    path.write_text(example_with(
        "example1",
        {"n_x": 41, "n_t": 10, "verify.N": 1000,
         "marginal_in.kind": "tabulated", "marginal_in.file": table},
        drop=("marginal_in.",),
    ))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert "status: converged" in capsys.readouterr().out


def test_relative_table_paths_resolve_against_the_config_file(tmp_path, monkeypatch):
    # the same config reads the same tables from any working directory
    here, elsewhere = tmp_path / "relA", tmp_path / "relB"
    here.mkdir()
    elsewhere.mkdir()
    r = np.linspace(-5.0, 5.0, 201)
    np.savetxt(here / "kernel.txt", np.column_stack([r, 0.5 * np.exp(-r * r / 0.09)]))
    x = np.linspace(-2.5, 2.5, 101)
    np.savetxt(here / "p_in.txt", np.column_stack([x, np.exp(-x * x / 0.08)]))
    (here / "rel.cfg").write_text(example_with(
        "example1",
        {"n_x": 41, "n_t": 10,
         "potential.kind": "tabulated", "potential.file": "kernel.txt",
         "marginal_in.kind": "tabulated", "marginal_in.file": "p_in.txt"},
        drop=("potential.", "marginal_in."),
    ))
    monkeypatch.chdir(elsewhere)
    assert main(["run", "../relA/rel.cfg", "--no-verify", "--out", "o"]) == 0
    manifest = json.loads(Path("o/manifest.json").read_text())
    assert manifest["config"]["marginal_in"]["path"] == str(Path("../relA/p_in.txt"))
    monkeypatch.chdir(here)
    assert main(["run", "rel.cfg", "--no-verify", "--out", "o"]) == 0
    assert (here / "o" / "pair.csv").read_bytes() == (
        elsewhere / "o" / "pair.csv"
    ).read_bytes()


def test_cli_negative_seed_exits_one_before_solving(
    tmp_path, capsys, monkeypatch
):
    def no_solve(*args, **kwargs):
        raise AssertionError("solve must not run on a bad config")

    monkeypatch.setattr("mfsb.cli.solve", no_solve)
    path = tmp_path / "bad_seed.cfg"
    path.write_text(MINI_CONFIG.replace("seed = 1", "seed = -1"))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: seed must be nonnegative")
    assert not (tmp_path / "o").exists()


def test_cli_subnormal_tol_exits_one_on_warm_start(mini_run, tmp_path, capsys):
    # tol / 10 underflows to 0: the config is refused before any loop runs
    cfg_path, out, _ = mini_run
    path = tmp_path / "subnormal.cfg"
    path.write_text(
        Path(cfg_path).read_text().replace("tol = 1e-9", "tol = 5e-324")
    )
    code = main(["run", str(path), "--out", str(tmp_path / "o"),
                 "--warm-start", str(out / "pair.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "tol" in err
    assert "Traceback" not in err


def test_cli_constants_subcommand(tmp_path, capsys):
    path = tmp_path / "bounds.txt"
    path.write_text(
        "sigma2 = 0.2\nbeta = 0.01\n"
        "w_norm = 1\ngrad_w_norm = 1\nlap_w_norm = 1\n"
        "r = 0.1\na1 = 1\na2 = 1\na3 = 1\nc1 = 0.01\nc2 = 0.01\n"
    )
    assert main(["constants", str(path)]) == 0
    out = capsys.readouterr().out
    assert "lambda_density = 0.236826483802" in out
    assert "density_contractive = yes" in out

    path.write_text(path.read_text().replace("beta = 0.01", "beta = 100"))
    assert main(["constants", str(path)]) == 1
    assert "precondition" in capsys.readouterr().err

    # a repeated key is rejected, not silently overridden by the later value
    path.write_text(path.read_text().replace("beta = 100", "beta = 0.01\nbeta = 100"))
    assert main(["constants", str(path)]) == 1
    assert "duplicate key 'beta'" in capsys.readouterr().err

    # a non-finite parameter is rejected, not carried into the bounds
    base = path.read_text().replace("beta = 0.01\nbeta = 100", "beta = 0.01")
    for old, new in (("sigma2 = 0.2", "sigma2 = nan"), ("r = 0.1", "r = inf")):
        path.write_text(base.replace(old, new))
        assert main(["constants", str(path)]) == 1
        assert "finite" in capsys.readouterr().err

    # so is a value that is not a number, by file and key
    path.write_text(base.replace("beta = 0.01", "beta = strong"))
    assert main(["constants", str(path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {path}: beta: 'strong' is not a number"]


@pytest.mark.parametrize("argv", [
    pytest.param([], id="no command"),
    pytest.param(["bogus"], id="bogus"),
    pytest.param(["run", "example1"], id="run without out"),
    # the classical bridge is `mfsb run` on the zero kernel
    pytest.param(["classic", "example1", "--out", "D"], id="classic"),
])
def test_cli_usage_errors_exit_one(tmp_path, monkeypatch, capsys, argv):
    # argparse alone would exit 2, which reads as a solve that did not converge
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: mfsb")
    assert list(tmp_path.iterdir()) == []


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "usage: mfsb" in capsys.readouterr().out
