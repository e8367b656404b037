"""Command-line interface and run artifacts.

``mfsb run <config> --out <dir>`` solves the configured problem, verifies the
result with the closed-loop density propagation and a particle ensemble, and
writes five artifacts into the output directory:

* densities.csv  (t, x, p)      the solved density path
* control.csv    (t, x, u)      the feedback control field
* pair.csv       (t, x, phi, phihat)  the scaling pair (warm-start input)
* trace.json     convergence history, cost, verification residuals
* manifest.json  config echo, digests and sizes of the data files, timings

All floats are written with 17 significant digits and \\n line endings, and
nothing time-dependent goes into the four data files, so identical configs
and seeds reproduce them byte for byte. Exit codes: 0 converged, 2 budget
exhausted (NoConvergence), 1 bad input.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import sys
import time
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_config, parse_config, resolve_config_path, solver_config_from
from .errors import ConfigError, MfsbError, NoConvergence
from .grid import SpatialGrid, TimeGrid
from .kolmogorov import propagate_density
from .marginals import build_marginals
from .metrics import l1_distance
from .particles import simulate, terminal_residual
from .sinkhorn import PairPath
from .solver import (
    SolverConfig,
    Solution,
    classical_bridge_init,
    contraction_constants,
    control_energy,
    optimal_control,
    solve,
)

logger = logging.getLogger("mfsb")

_FILES = ("densities.csv", "control.csv", "pair.csv", "trace.json")


@dataclass
class RunManifest:
    status: str
    config: dict
    version: str
    files: dict
    timings: dict
    verification: dict | None
    error: dict | None
    created_at: str


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_columns(path: Path, header: str, times, nodes, columns) -> None:
    """Write (t, x, *columns) rows for every (time slice, node) pair."""
    lines = [header + "\n"]
    for l, t in enumerate(times):
        t_s = _fmt(t)
        row_cols = [col[l] for col in columns]
        for i, x in enumerate(nodes):
            vals = ",".join(_fmt(col[i]) for col in row_cols)
            lines.append(f"{t_s},{_fmt(x)},{vals}\n")
    with open(path, "w", newline="") as fh:
        fh.writelines(lines)


def _jsonify(obj):
    """JSON-safe copy: tuples to lists, numpy scalars to floats, non-finite to None."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    return obj


def _dump_json(path: Path, obj) -> None:
    with open(path, "w", newline="") as fh:
        json.dump(_jsonify(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _digest(path: Path) -> dict:
    blob = path.read_bytes()
    return {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}


def _config_echo(cfg: SolverConfig) -> dict:
    return dataclasses.asdict(cfg)


def _write_artifacts(
    out: Path,
    cfg: SolverConfig,
    p_path: np.ndarray,
    u_path: np.ndarray,
    pair: PairPath,
    trace_obj: dict,
) -> dict:
    times = cfg.tgrid.times
    nodes = cfg.sgrid.nodes
    _write_columns(out / "densities.csv", "t,x,p", times, nodes, [p_path])
    _write_columns(out / "control.csv", "t,x,u", times, nodes, [u_path])
    _write_columns(
        out / "pair.csv", "t,x,phi,phihat", times, nodes, [pair.phi, pair.phihat]
    )
    _dump_json(out / "trace.json", trace_obj)
    return {name: _digest(out / name) for name in _FILES}


def _verify_solution(cfg: SolverConfig, sol: Solution) -> dict:
    """Closed-loop density propagation plus a particle ensemble under the
    solved control, both compared against the target marginal."""
    report: dict = {}
    pde_report: dict = {}
    table = _scaled_table_for(cfg)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        closed_loop = propagate_density(
            sol.p_in, sol.u, cfg.potential, cfg.sigma, cfg.sgrid, cfg.tgrid,
            table=table, report=pde_report,
        )
    report["pde"] = {
        "terminal_l1": l1_distance(closed_loop[-1], sol.p_fin, cfg.sgrid),
        "cfl_max": pde_report["cfl_max"],
        "mass_drift_max": pde_report["mass_drift_max"],
        "warnings": [str(w.message) for w in caught],
    }
    ensemble = simulate(
        sol.u, cfg.potential, sol.p_in, cfg.sigma,
        cfg.verify_n, cfg.seed, cfg.sgrid, cfg.tgrid, table=table,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        particle_l1 = terminal_residual(ensemble, sol.p_fin, cfg.sgrid)
    report["particles"] = {
        "n": cfg.verify_n,
        "seed": cfg.seed,
        "method": ensemble.method,
        "terminal_l1": particle_l1,
    }
    return report


def _scaled_table_for(cfg: SolverConfig):
    from .solver import _scaled_table

    return _scaled_table(cfg)


def run(
    config_path,
    out_dir,
    verify: bool = True,
    warm_start_path=None,
) -> RunManifest:
    """Solve a configured problem and write the artifact set.

    Returns the manifest; NoConvergence is captured into the artifacts and
    reflected in manifest.status rather than raised.
    """
    cfg = load_config(resolve_config_path(config_path))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    warm_pair = None
    if warm_start_path is not None:
        warm_pair = read_pair_csv(warm_start_path, cfg.sgrid, cfg.tgrid)

    status = "converged"
    error = None
    verification = None
    t0 = time.perf_counter()
    try:
        sol = solve(cfg, warm_pair=warm_pair)
        p_path, pair, u_path = sol.p, sol.pair, sol.u
        trace = sol.trace
        cost = sol.cost
    except NoConvergence as exc:
        status = "no_convergence"
        error = {
            "message": str(exc),
            "level": exc.level,
            "indices": list(exc.indices),
            "last_distance": exc.last_distance,
        }
        trace = exc.trace
        p_path, pair = exc.partial["p"], exc.partial["pair"]
        u_path = optimal_control(pair, cfg.sigma, cfg.sgrid)
        cost = control_energy(u_path, p_path, cfg.sgrid, cfg.tgrid)
    solve_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    if verify and status == "converged":
        verification = _verify_solution(cfg, sol)
    verify_seconds = time.perf_counter() - t1

    trace_obj = {
        "status": status,
        "config": _config_echo(cfg),
        "cost": cost,
        "trace": trace.to_dict() if trace is not None else None,
        "verification": verification,
        "error": error,
    }
    files = _write_artifacts(out, cfg, p_path, u_path, pair, trace_obj)
    manifest = RunManifest(
        status=status,
        config=_config_echo(cfg),
        version=__version__,
        files=files,
        timings={
            "solve_seconds": solve_seconds,
            "verify_seconds": verify_seconds,
        },
        verification=verification,
        error=error,
        created_at=datetime.now(timezone.utc).isoformat(),
    )
    _dump_json(out / "manifest.json", dataclasses.asdict(manifest))
    return manifest


def run_classic(config_path, out_dir) -> RunManifest:
    """Solve only the non-interacting bridge for the configured marginals."""
    cfg = load_config(resolve_config_path(config_path))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    p_in = build_marginals(cfg.marginal_in, cfg.sgrid)
    p_fin = build_marginals(cfg.marginal_fin, cfg.sgrid)
    p_path, pair, itrace = classical_bridge_init(
        p_in, p_fin, cfg.sigma, cfg.sgrid, cfg.tgrid,
        tol=cfg.tol, max_iter=cfg.n3,
    )
    u_path = optimal_control(pair, cfg.sigma, cfg.sgrid)
    cost = control_energy(u_path, p_path, cfg.sgrid, cfg.tgrid)
    solve_seconds = time.perf_counter() - t0
    trace_obj = {
        "status": "converged",
        "config": _config_echo(cfg),
        "cost": cost,
        "trace": {
            "init_dh": list(itrace.boundary_dh),
            "init_iterations": len(itrace.boundary_dh),
            "residual_in": itrace.residual_in,
            "residual_fin": itrace.residual_fin,
        },
        "verification": None,
        "error": None,
    }
    files = _write_artifacts(out, cfg, p_path, u_path, pair, trace_obj)
    manifest = RunManifest(
        status="converged",
        config=_config_echo(cfg),
        version=__version__,
        files=files,
        timings={"solve_seconds": solve_seconds, "verify_seconds": 0.0},
        verification=None,
        error=None,
        created_at=datetime.now(timezone.utc).isoformat(),
    )
    _dump_json(out / "manifest.json", dataclasses.asdict(manifest))
    return manifest


def read_pair_csv(path, sgrid: SpatialGrid, tgrid: TimeGrid) -> PairPath:
    """Load a pair.csv back into a PairPath matching the given grids."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read warm-start pair from {path}: {exc}") from exc
    rows = (tgrid.n_t + 1) * sgrid.n_x
    if data.ndim != 2 or data.shape != (rows, 4):
        raise ConfigError(
            f"{path}: expected {rows} rows of (t, x, phi, phihat), "
            f"got array of shape {data.shape}"
        )
    shape = (tgrid.n_t + 1, sgrid.n_x)
    x_file = data[: sgrid.n_x, 1]
    if not np.allclose(x_file, sgrid.nodes, rtol=0, atol=1e-12 * max(1.0, sgrid.h)):
        raise ConfigError(f"{path}: node coordinates do not match the config grid")
    return PairPath(phi=data[:, 2].reshape(shape), phihat=data[:, 3].reshape(shape))


def _cmd_constants(path) -> int:
    raw: dict[str, float] = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            print(f"error: {path}:{lineno}: expected 'key = value'", file=sys.stderr)
            return 1
        key, value = (part.strip() for part in body.split("=", 1))
        try:
            raw[key] = float(value)
        except ValueError:
            print(f"error: {path}:{lineno}: {value!r} is not a number", file=sys.stderr)
            return 1
    result = contraction_constants(raw)
    for key in sorted(result):
        value = result[key]
        if isinstance(value, bool):
            print(f"{key} = {'yes' if value else 'no'}")
        else:
            print(f"{key} = {value:.12g}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfsb",
        description="Steer an interacting diffusion between two densities.",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log per-iteration progress"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a configured problem")
    p_run.add_argument("config", help="config file path or bundled name (example1)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--no-verify", action="store_true",
        help="skip the closed-loop PDE and particle verification",
    )
    p_run.add_argument(
        "--warm-start", metavar="PAIR_CSV", default=None,
        help="pair.csv from a previous run to start from",
    )

    p_const = sub.add_parser(
        "constants", help="evaluate the a-priori contraction-rate bounds"
    )
    p_const.add_argument("file", help="flat key = value parameter file")

    p_classic = sub.add_parser(
        "classic", help="solve the non-interacting bridge only"
    )
    p_classic.add_argument("config", help="config file path or bundled name")
    p_classic.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "run":
            manifest = run(
                args.config, args.out,
                verify=not args.no_verify,
                warm_start_path=args.warm_start,
            )
            print(f"status: {manifest.status} (artifacts in {args.out})")
            return 0 if manifest.status == "converged" else 2
        if args.command == "constants":
            return _cmd_constants(args.file)
        if args.command == "classic":
            manifest = run_classic(args.config, args.out)
            print(f"status: {manifest.status} (artifacts in {args.out})")
            return 0
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MfsbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
