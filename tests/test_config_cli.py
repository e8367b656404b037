"""Config parsing and the command-line entry point with its artifacts."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mfsb.cli import main, read_pair_csv, run, run_classic
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
from mfsb.solver import solve

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
    assert (cfg.n1, cfg.n3) == (200, 500)
    assert cfg.potential.kind == "power_repulsive"
    assert (cfg.potential.c, cfg.potential.alpha) == (5.0, 0.2)
    assert cfg.potential.epsilon == 0.01
    assert cfg.potential.beta == 1.0
    assert cfg.potential_is_prescaled is True
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
    with pytest.raises(ConfigError, match="boolean"):
        solver_config_from(dict(base, potential_is_prescaled="maybe"))
    with pytest.raises(ConfigError, match="domain"):
        solver_config_from(dict(base, domain="-2 0 2"))
    with pytest.raises(ConfigError, match="potential.kind"):
        solver_config_from(dict(base, **{"potential.kind": "mystery"}))


def test_init_tol_is_optional():
    base = parse_config(example_config_path("example1"))
    assert load_config(example_config_path("example1")).init_tol is None
    cfg = solver_config_from(dict(base, init_tol="1e-8"))
    assert cfg.init_tol == 1e-8
    assert cfg.resolved_init_tol == 1e-8


def test_mixture_weights_must_sum_to_one():
    grid = SpatialGrid(-2.0, 2.0, 64)
    spec = MarginalSpec.gaussian_mixture([0.5, 0.6], [0.0, 1.0], [0.04, 0.04])
    with pytest.raises(ConfigError, match="sum to 1"):
        build_marginals(spec, grid)


# ---------------------------------------------------------------------------
# run artifacts


def test_run_writes_the_full_artifact_set(mini_run):
    _, out, manifest = mini_run
    assert manifest.status == "converged"
    for name in ("densities.csv", "control.csv", "pair.csv", "trace.json",
                 "manifest.json"):
        assert (out / name).is_file()
    for name, digest in manifest.files.items():
        blob = (out / name).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == digest["sha256"]
        assert len(blob) == digest["bytes"]
    assert manifest.error is None
    assert set(manifest.verification) == {"pde", "particles"}
    assert np.isfinite(manifest.verification["pde"]["terminal_l1"])
    assert manifest.verification["particles"]["n"] == 2000
    assert manifest.timings["solve_seconds"] > 0.0


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
    for k in range(trace["outer_iterations"]):
        assert len(trace["middle_dh"][k]) == len(trace["inner_iterations"][k])
        assert len(trace["inner_dh"][k]) == len(trace["inner_iterations"][k])
        for j, n_inner in enumerate(trace["inner_iterations"][k]):
            assert len(trace["inner_dh"][k][j]) == n_inner
    assert "wall_times" not in trace


def test_reruns_are_byte_identical(mini_config_path, tmp_path):
    first = run(mini_config_path, tmp_path / "a")
    second = run(mini_config_path, tmp_path / "b")
    assert first.files == second.files
    assert first.verification == second.verification


def test_warm_start_round_trip(mini_run, tmp_path):
    cfg_path, out, cold = mini_run
    warm = run(cfg_path, tmp_path / "warm", warm_start_path=out / "pair.csv")
    assert warm.status == "converged"
    trace = json.loads((tmp_path / "warm" / "trace.json").read_text())["trace"]
    assert trace["init_iterations"] == 0  # no fresh bridge was computed
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


def test_classic_subcommand_writes_bridge_artifacts(mini_config_path, tmp_path):
    manifest = run_classic(mini_config_path, tmp_path / "classic")
    assert manifest.status == "converged"
    trace = json.loads((tmp_path / "classic" / "trace.json").read_text())["trace"]
    assert trace["init_iterations"] >= 1
    assert trace["residual_in"] <= 1e-10
    assert manifest.verification is None


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


@pytest.mark.parametrize("budget, level", [("N1 = 1", "outer"), ("N3 = 2", "inner")])
def test_cli_each_exhausted_budget_exits_two_with_artifacts(tmp_path, capsys, budget, level):
    # example2 as shipped, one loop budget cut short at a time
    text = example_config_path("example2").read_text()
    key = budget.split(" =")[0]
    text = "\n".join(
        line for line in text.splitlines() if not line.startswith(key + " ")
    ) + f"\n{budget}\n"
    path = tmp_path / "short.cfg"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), "--no-verify"]) == 2
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


def test_cli_bad_input_exits_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "error" in capsys.readouterr().err


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


def test_cli_classic_exits_zero(mini_config_path, tmp_path, capsys):
    assert main(["classic", str(mini_config_path),
                 "--out", str(tmp_path / "c")]) == 0
    assert "converged" in capsys.readouterr().out
