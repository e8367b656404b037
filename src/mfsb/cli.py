"""Command-line interface and run artifacts.

``mfsb run <config> --out <dir>`` solves the configured problem, verifies the
result with the closed-loop density propagation and a particle ensemble, and
writes five artifacts into the output directory:

* densities.csv  (t, x, p)      the solved density path
* control.csv    (t, x, u)      the feedback control field
* pair.csv       (t, x, phi, phihat)  the scaling pair
* trace.json     convergence history, cost, verification residuals
* manifest.json  config echo, digests and sizes of the data files, timings,
                 the numpy/scipy/BLAS build and BLAS thread variables

densities.csv and pair.csv together are the warm-start input: ``--warm-start
DIR/pair.csv`` reads both, and a pair.csv alone does not resume.

All floats are written with 17 significant digits and \\n line endings, and
nothing time-dependent goes into the four data files, so identical configs
and seeds reproduce them byte for byte on one numpy/BLAS build at one BLAS
thread count; across thread counts they agree to round-off. Exit codes: 0
converged, 2 budget exhausted (NoConvergence), 1 bad input, usage errors
included.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import load_config, read_key_values, resolve_config_path
from .errors import ConfigError, MfsbError, NoConvergence
from .grid import SpatialGrid, TimeGrid
from .kolmogorov import propagate_density
from .metrics import l1_distance
from .particles import simulate, terminal_residual
from .sinkhorn import PairPath
from .solver import SolverConfig, Solution, contraction_constants, solve

logger = logging.getLogger("mfsb")


def _format_floats(values) -> list[str]:
    """Each value as the data files write it: 17 significant digits."""
    return ["%.17g" % v for v in np.asarray(values, dtype=float).tolist()]


def _write_columns(path: Path, header: str, times, nodes, columns) -> dict:
    """Write (t, x, *columns) rows for every (time slice, node) pair and
    return the file's digest, hashed as it is written.

    ``times`` and ``nodes`` are the t and x columns already formatted by
    :func:`_format_floats`. A slice's template joins its rows' ",x,%.17g..."
    parts with its t string, and one %-format fills in the data columns, so
    a single slice, and never the file, is held as text."""
    values = "%.17g" + ",%.17g" * (len(columns) - 1)
    parts = [f",{x},{values}\n" for x in nodes]
    data = np.empty((len(parts), len(columns)))
    head = (header + "\n").encode("ascii")
    sha = hashlib.sha256(head)
    size = len(head)
    with open(path, "wb") as fh:
        fh.write(head)
        for l, t in enumerate(times):
            for j, col in enumerate(columns):
                data[:, j] = col[l]
            template = t + t.join(parts)
            blob = (template % tuple(data.ravel().tolist())).encode("ascii")
            sha.update(blob)
            size += len(blob)
            fh.write(blob)
    return {"sha256": sha.hexdigest(), "bytes": size}


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
    return obj


def _dump_json(path: Path, obj) -> dict:
    """Write obj as indented, key-sorted JSON; return the file's digest."""
    blob = (json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n").encode("ascii")
    path.write_bytes(blob)
    return {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}


def _provenance() -> dict:
    """The numpy and scipy versions, numpy's BLAS and the thread variables in
    force (None when unset): the data files repeat their bytes only where
    all of these agree."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas["name"], "version": blas["version"]},
        "threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _write_run(
    out: Path,
    sol: Solution,
    status: str,
    timings: dict,
    verification: dict | None,
    error: dict | None,
) -> dict:
    """Write the four data files of a converged or partial solution and
    manifest.json; return the manifest dict. The directory is made here, so
    an error raised before writing leaves none."""
    config = dataclasses.asdict(sol.config)
    out.mkdir(parents=True, exist_ok=True)
    # the t and x columns are formatted once, for all three files
    times = _format_floats(sol.config.tgrid.times)
    nodes = _format_floats(sol.config.sgrid.nodes)
    files = {}
    for name, header, columns in (
        ("densities.csv", "t,x,p", [sol.p]),
        ("control.csv", "t,x,u", [sol.u]),
        ("pair.csv", "t,x,phi,phihat", [sol.pair.phi, sol.pair.phihat]),
    ):
        files[name] = _write_columns(out / name, header, times, nodes, columns)
    files["trace.json"] = _dump_json(out / "trace.json", {
        "status": status,
        "config": config,
        "cost": sol.cost,
        "trace": dataclasses.asdict(sol.trace),
        "verification": verification,
        "error": error,
    })
    manifest = {
        "status": status,
        "config": config,
        "version": __version__,
        "files": files,
        "timings": timings,
        "verification": verification,
        "error": error,
        "provenance": _provenance(),
        "created_at": datetime.now(timezone.utc).isoformat(),
    }
    _dump_json(out / "manifest.json", manifest)
    return manifest


def _verify_solution(cfg: SolverConfig, sol: Solution) -> tuple[dict, dict]:
    """Closed-loop density propagation plus a particle ensemble under the
    solved control, both compared against the target marginal.

    Returns the verification report and the seconds each check took.
    """
    table = cfg.kernel_table
    t0 = time.perf_counter()
    closed_loop, pde = propagate_density(
        sol.p_in, sol.u, table, cfg.sigma, cfg.sgrid, cfg.tgrid
    )
    pde_l1 = l1_distance(closed_loop[-1], sol.p_fin, cfg.sgrid)
    t1 = time.perf_counter()
    positions = simulate(
        sol.u, table, sol.p_in, cfg.sigma,
        cfg.verify_n, cfg.seed, cfg.sgrid, cfg.tgrid,
    )
    particle_l1 = terminal_residual(positions, sol.p_fin, cfg.sgrid)
    t2 = time.perf_counter()
    report = {
        "pde": {
            "terminal_l1": pde_l1,
            "cfl_max": pde["cfl_max"],
            "mass_drift_max": pde["mass_drift_max"],
        },
        "particles": {
            "n": cfg.verify_n,
            "seed": cfg.seed,
            "terminal_l1": particle_l1,
        },
    }
    return report, {"pde_seconds": t1 - t0, "particles_seconds": t2 - t1}


def run(
    config_path,
    out_dir,
    verify: bool = True,
    warm_start_path=None,
) -> dict:
    """Solve a configured problem and write the artifact set.

    A warm start reads the pair.csv at ``warm_start_path`` and the
    densities.csv beside it. Returns the manifest dict written to
    manifest.json; NoConvergence is captured into the artifacts and
    reflected in manifest["status"] rather than raised.
    """
    cfg = load_config(resolve_config_path(config_path))
    warm_start = None
    if warm_start_path is not None:
        pair = read_pair_csv(warm_start_path, cfg.sgrid, cfg.tgrid)
        densities = Path(warm_start_path).with_name("densities.csv")
        (p_path,) = _read_columns(densities, "density", ("p",), cfg.sgrid, cfg.tgrid)
        warm_start = (p_path, pair)
    status = "converged"
    error = None
    verification = None
    t0 = time.perf_counter()
    try:
        sol = solve(cfg, warm_start=warm_start)
    except NoConvergence as exc:
        sol = exc.partial
        status = "no_convergence"
        error = {
            "message": str(exc),
            "level": exc.level,
            "last_distance": exc.last_distance,
        }
    solve_seconds = time.perf_counter() - t0

    timings = {"solve_seconds": solve_seconds}
    t1 = time.perf_counter()
    if verify and status == "converged":
        verification, check_seconds = _verify_solution(cfg, sol)
        timings.update(check_seconds)
    timings["verify_seconds"] = time.perf_counter() - t1

    return _write_run(Path(out_dir), sol, status, timings, verification, error)


def _read_columns(
    path, what: str, names: tuple[str, ...], sgrid: SpatialGrid, tgrid: TimeGrid
) -> np.ndarray:
    """The value columns of a (t, x, *names) file, copied into one
    (len(names), n_t + 1, n_x) array so that the parsed table dies here.
    Every row's t and x must be the config grids' time and node of that row,
    and every value positive and finite; ConfigError names the file otherwise."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read warm-start {what} from {path}: {exc}") from exc
    rows = (tgrid.n_t + 1) * sgrid.n_x
    if data.shape != (rows, 2 + len(names)):
        raise ConfigError(
            f"{path}: expected {rows} rows of (t, x, {', '.join(names)}), "
            f"got array of shape {data.shape}"
        )
    data = data.reshape(tgrid.n_t + 1, sgrid.n_x, -1)
    atol = 1e-12 * max(1.0, sgrid.h)
    for name, j, want in (("time", 0, tgrid.times[:, None]), ("node", 1, sgrid.nodes)):
        if not np.allclose(data[..., j], want, rtol=0, atol=atol):
            raise ConfigError(
                f"{path}: {name} coordinates do not match the config grid"
            )
    values = np.moveaxis(data[..., 2:], -1, 0).copy()
    for name, column in zip(names, values):
        if not (np.all(np.isfinite(column)) and column.min() > 0.0):
            raise ConfigError(f"{path}: {name} must be strictly positive and finite")
    return values


def read_pair_csv(path, sgrid: SpatialGrid, tgrid: TimeGrid) -> PairPath:
    """Load a pair.csv back into a PairPath on the given grids."""
    phi, phihat = _read_columns(path, "pair", ("phi", "phihat"), sgrid, tgrid)
    return PairPath(phi=phi, phihat=phihat)


def _cmd_constants(path) -> int:
    raw: dict[str, float] = {}
    for key, value in read_key_values(path).items():
        try:
            raw[key] = float(value)
        except ValueError:
            raise ConfigError(f"{path}: {key}: {value!r} is not a number") from None
    result = contraction_constants(raw)
    for key in sorted(result):
        value = result[key]
        if isinstance(value, bool):
            print(f"{key} = {'yes' if value else 'no'}")
        else:
            print(f"{key} = {value:.12g}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so that
    :func:`main` reports them as bad input (one error: line, exit 1) and not
    with argparse's exit 2, the code of a solve that did not converge."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
        help="pair.csv of a previous run, with its densities.csv beside it",
    )

    p_const = sub.add_parser(
        "constants", help="evaluate the a-priori contraction-rate bounds"
    )
    p_const.add_argument("file", help="flat key = value parameter file")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s",
        )
        if args.command == "constants":
            return _cmd_constants(args.file)
        manifest = run(
            args.config, args.out,
            verify=not args.no_verify,
            warm_start_path=args.warm_start,
        )
    except (MfsbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"status: {manifest['status']} (artifacts in {args.out})")
    return 0 if manifest["status"] == "converged" else 2


if __name__ == "__main__":
    sys.exit(main())
