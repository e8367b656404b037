"""Outer fixed-point loop over the interaction density, plus analysis helpers.

The solver runs two nested loops. Inner: the sweep/anchor loop of
:mod:`mfsb.sinkhorn` with everything nonlinear frozen. Outer: freeze drift
and reaction once at the current density and pair
(:func:`mfsb.sinkhorn.freeze_problem`), run the inner loop to tol / 10,
refine the density from the new pair,

    refined_t = normalize( e^{-2 (W * p_t)} phi_t phihat_t ),

and damp it towards the previous iterate. The density map and the pair map
share one fixed point, so one refreeze per outer step suffices: the loop
stops when both the sup-over-time Hilbert distance between consecutive
densities and the distance the refreeze moved the pair drop below tol, which
leaves the returned pair stationary under refreezing to tol. With the
interaction switched off the whole nest collapses to the classical bridge
computed by :func:`classical_bridge_init`, which also provides the starting
point in the general case.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DomainError,
    InsufficientData,
    NoConvergence,
    PositivityError,
    ShapeError,
)
from .grid import SpatialGrid, TimeGrid, check_field, check_path, gradient, normalize
from .marginals import MarginalSpec, build_marginals
from .metrics import l1_distance, pair_distance, path_distance
from .potentials import PotentialSpec, PotentialTable, convolve_path, eval_potential
from .sinkhorn import InnerTrace, PairPath, freeze_problem, inner_sinkhorn

logger = logging.getLogger("mfsb")

# the inner loop runs to this fraction of tol: its own error must sit below
# the outer step distances it feeds, or those stop decreasing near tol
INNER_TOL_FRACTION = 0.1

# the starting bridge is converged to min(tol, BRIDGE_TOL) so that rerunning
# it inside solve() moves the iterate by far less than any stopping test
BRIDGE_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    """Full problem + discretization + budgets for one solve."""

    sigma2: float
    theta: float
    tol: float
    potential: PotentialSpec
    marginal_in: MarginalSpec
    marginal_fin: MarginalSpec
    x_min: float = -2.0
    x_max: float = 2.0
    n_x: int = 301
    n_t: int = 100
    n1: int = 200
    n3: int = 500
    potential_is_prescaled: bool = True
    seed: int = 0
    verify_n: int = 100_000

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        if not (np.isfinite(self.tol) and INNER_TOL_FRACTION * self.tol > 0.0):
            raise ConfigError(
                f"tol must be positive and large enough that tol * "
                f"{INNER_TOL_FRACTION} does not underflow to 0, got {self.tol}"
            )
        for name in ("n1", "n3"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.n_x < 8:
            raise ConfigError(f"n_x must be at least 8, got {self.n_x}")
        if self.n_t < 2:
            raise ConfigError(f"n_t must be at least 2, got {self.n_t}")
        if self.x_max <= self.x_min:
            raise ConfigError(
                f"domain must satisfy x_min < x_max, got [{self.x_min}, {self.x_max}]"
            )
        if self.verify_n < 100:
            raise ConfigError(f"verify_n must be at least 100, got {self.verify_n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @cached_property
    def sgrid(self) -> SpatialGrid:
        return SpatialGrid(self.x_min, self.x_max, self.n_x)

    @cached_property
    def tgrid(self) -> TimeGrid:
        return TimeGrid(self.n_t)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @cached_property
    def kernel_table(self) -> PotentialTable:
        """Kernel tables the solver and the verification use: divided by
        sigma2 unless the kernel is prescaled."""
        table = eval_potential(self.potential, self.sgrid)
        if not self.potential_is_prescaled:
            table = table.scaled(1.0 / self.sigma2)
        return table


@dataclass
class ConvergenceTrace:
    """Everything the nested iteration did, one entry per loop event.

    ``middle_dh[k]`` holds the distance the refreeze of outer step k moved
    the pair; it, ``inner_iterations[k]`` and ``inner_dh[k]`` are one-entry
    lists, one refreeze per outer step, which keeps the trace.json layout.
    """

    init_dh: list[float] = field(default_factory=list)
    init_iterations: int = 0
    outer_dh: list[float] = field(default_factory=list)
    outer_dh_raw: list[float] = field(default_factory=list)
    middle_dh: list[list[float]] = field(default_factory=list)
    inner_iterations: list[list[int]] = field(default_factory=list)
    inner_dh: list[list[list[float]]] = field(default_factory=list)
    endpoint_l1_in: list[float] = field(default_factory=list)
    endpoint_l1_fin: list[float] = field(default_factory=list)
    slice_mass_dev: list[float] = field(default_factory=list)
    min_phi: float = float("inf")
    min_phihat: float = float("inf")
    min_density: float = float("inf")
    converged: bool = False
    outer_iterations: int = 0

    def to_dict(self) -> dict:
        """JSON-ready view; it holds no timings, so serialized traces stay
        byte-identical across reruns of the same config."""
        return {
            "init_dh": self.init_dh,
            "init_iterations": self.init_iterations,
            "outer_dh": self.outer_dh,
            "outer_dh_raw": self.outer_dh_raw,
            "middle_dh": self.middle_dh,
            "inner_iterations": self.inner_iterations,
            "inner_dh": self.inner_dh,
            "endpoint_l1_in": self.endpoint_l1_in,
            "endpoint_l1_fin": self.endpoint_l1_fin,
            "slice_mass_dev": self.slice_mass_dev,
            "min_phi": self.min_phi,
            "min_phihat": self.min_phihat,
            "min_density": self.min_density,
            "converged": self.converged,
            "outer_iterations": self.outer_iterations,
        }


@dataclass(frozen=True)
class Solution:
    """Converged output of :func:`solve`."""

    config: SolverConfig
    p: np.ndarray
    pair: PairPath
    u: np.ndarray
    cost: float
    trace: ConvergenceTrace
    p_in: np.ndarray
    p_fin: np.ndarray

    @property
    def converged(self) -> bool:
        return self.trace.converged


def classical_bridge_init(
    p_in: np.ndarray,
    p_fin: np.ndarray,
    sigma: float,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
    tol: float = BRIDGE_TOL,
    max_iter: int = 2000,
) -> tuple[np.ndarray, PairPath, "InnerTrace"]:
    """Bridge between the marginals with the interaction switched off.

    Runs the inner loop frozen at the zero kernel (no drift, no reaction,
    unit anchor factors) from the flat start (phi = 1, phihat anchored at
    p_in); the density path is the normalized slice-wise product of the two
    scalings.
    """
    p_in = check_field(p_in, sgrid)
    p_fin = check_field(p_fin, sgrid)
    for name, p in (("p_in", p_in), ("p_fin", p_fin)):
        if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
            raise PositivityError(f"{name} must be strictly positive")
    flat = np.tile(p_in, (tgrid.n_t + 1, 1))
    start = PairPath(phi=np.ones(flat.shape), phihat=flat)
    problem = freeze_problem(
        flat, start, eval_potential(PotentialSpec.zero(), sgrid),
        p_in, p_fin, sigma, sgrid, tgrid,
    )
    pair, iterations, trace = inner_sinkhorn(problem, start, tol, max_iter)
    p_path = normalize(pair.product, sgrid)
    return p_path, pair, trace


def _refined_density(
    p_path: np.ndarray,
    pair: PairPath,
    table: PotentialTable,
    sgrid: SpatialGrid,
) -> tuple[np.ndarray, float]:
    """Normalized e^{-2 W*p} phi phihat and the worst raw-slice mass deviation."""
    raw = np.exp(-2.0 * convolve_path(table.w, p_path, sgrid)) * pair.product
    masses = np.trapezoid(raw, dx=sgrid.h, axis=1)
    if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
        raise PositivityError("density refinement produced a nonpositive slice")
    return raw / masses[:, None], float(np.abs(masses - 1.0).max())


def damped_update(
    refined: np.ndarray, previous: np.ndarray, theta: float
) -> np.ndarray:
    """Convex combination theta * refined + (1 - theta) * previous."""
    if not 0.0 < theta <= 1.0:
        raise DomainError(f"theta must lie in (0, 1], got {theta}")
    refined = np.asarray(refined, dtype=float)
    previous = np.asarray(previous, dtype=float)
    if refined.shape != previous.shape:
        raise ShapeError(f"shape mismatch {refined.shape} vs {previous.shape}")
    return theta * refined + (1.0 - theta) * previous


def optimal_control(pair: PairPath, sigma: float, sgrid: SpatialGrid) -> np.ndarray:
    """Feedback control field sigma * d/dx log phi, per time slice."""
    return sigma * gradient(np.log(pair.phi), sgrid)


def control_energy(
    u_path: np.ndarray,
    p_path: np.ndarray,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
) -> float:
    """(1/2) integral of |u|^2 p over space and time (trapezoid in both)."""
    u_path = check_path(u_path, sgrid, tgrid)
    p_path = check_path(p_path, sgrid, tgrid)
    per_slice = np.trapezoid(u_path * u_path * p_path, dx=sgrid.h, axis=1)
    return 0.5 * float(np.trapezoid(per_slice, dx=tgrid.dt))


def _warm_start_density(
    cfg: SolverConfig,
    pair: PairPath,
    p_in: np.ndarray,
    p_fin: np.ndarray,
) -> np.ndarray:
    """Density iterate matching a restored pair: the solver's damped density
    map at that pair, endpoints pinned to the exact marginals, iterated from
    the normalized product until a step is below tol (at most n1 passes)."""
    p_path = normalize(pair.product, cfg.sgrid)
    for _ in range(cfg.n1):
        refined = _refined_density(p_path, pair, cfg.kernel_table, cfg.sgrid)[0]
        p_next = damped_update(refined, p_path, cfg.theta)
        p_next[0] = p_in
        p_next[-1] = p_fin
        step = path_distance(p_next, p_path)
        p_path = p_next
        if step < cfg.tol:
            break
    return p_path


def solve(cfg: SolverConfig, warm_pair: PairPath | None = None) -> Solution:
    """Run the two-level iteration to convergence.

    Raises NoConvergence when the outer budget n1 or an inner budget n3 is
    exhausted, with the trace and the current {"p", "pair"} attached.
    """
    sgrid, tgrid = cfg.sgrid, cfg.tgrid
    p_in = build_marginals(cfg.marginal_in, sgrid)
    p_fin = build_marginals(cfg.marginal_fin, sgrid)
    table = cfg.kernel_table
    sigma = cfg.sigma
    trace = ConvergenceTrace()

    if warm_pair is None:
        try:
            p_path, pair, init_trace = classical_bridge_init(
                p_in, p_fin, sigma, sgrid, tgrid,
                tol=min(cfg.tol, BRIDGE_TOL),
                max_iter=max(cfg.n3, 2000),
            )
        except NoConvergence as exc:
            trace.init_dh = list(exc.trace.boundary_dh)
            trace.init_iterations = len(trace.init_dh)
            exc.trace = trace
            exc.partial = {
                "p": normalize(exc.partial.product, sgrid),
                "pair": exc.partial,
            }
            raise
        trace.init_dh = list(init_trace.boundary_dh)
        trace.init_iterations = len(init_trace.boundary_dh)
    else:
        check_path(warm_pair.phi, sgrid, tgrid)
        pair = warm_pair
        p_path = _warm_start_density(cfg, pair, p_in, p_fin)

    trace.min_phi = float(pair.phi.min())
    trace.min_phihat = float(pair.phihat.min())
    trace.min_density = float(p_path.min())
    inner_tol = INNER_TOL_FRACTION * cfg.tol

    for k in range(cfg.n1):
        tick = time.perf_counter()
        problem = freeze_problem(p_path, pair, table, p_in, p_fin, sigma, sgrid, tgrid)
        try:
            new_pair, n_inner, itrace = inner_sinkhorn(
                problem, pair, inner_tol, cfg.n3
            )
        except NoConvergence as exc:
            exc.indices = (k,) + exc.indices
            exc.trace = trace
            exc.partial = {"p": p_path, "pair": exc.partial}
            raise
        d_pair = pair_distance(new_pair, pair)
        pair = new_pair
        trace.min_phi = min(trace.min_phi, float(pair.phi.min()))
        trace.min_phihat = min(trace.min_phihat, float(pair.phihat.min()))

        refined, mass_dev = _refined_density(p_path, pair, table, sgrid)
        d_raw = path_distance(refined, p_path)
        p_next = damped_update(refined, p_path, cfg.theta)
        d_outer = path_distance(p_next, p_path)

        trace.middle_dh.append([d_pair])
        trace.inner_iterations.append([n_inner])
        trace.inner_dh.append([list(itrace.boundary_dh)])
        trace.outer_dh.append(d_outer)
        trace.outer_dh_raw.append(d_raw)
        trace.slice_mass_dev.append(mass_dev)
        trace.endpoint_l1_in.append(l1_distance(p_next[0], p_in, sgrid))
        trace.endpoint_l1_fin.append(l1_distance(p_next[-1], p_fin, sgrid))
        trace.min_density = min(trace.min_density, float(p_next.min()))
        p_path = p_next
        logger.debug(
            "outer %d: d_outer=%.3e d_pair=%.3e inner=%d dt=%.2fs",
            k, d_outer, d_pair, n_inner, time.perf_counter() - tick,
        )
        if max(d_outer, d_pair) < cfg.tol:
            trace.converged = True
            trace.outer_iterations = k + 1
            break
    else:
        trace.outer_iterations = cfg.n1
        last = max(trace.outer_dh[-1], trace.middle_dh[-1][0])
        raise NoConvergence(
            f"outer loop did not reach tol={cfg.tol} in {cfg.n1} iterations "
            f"(last density or pair distance {last:.3e})",
            level="outer",
            indices=(cfg.n1,),
            last_distance=last,
            trace=trace,
            partial={"p": p_path, "pair": pair},
        )

    u = optimal_control(pair, sigma, sgrid)
    cost = control_energy(u, p_path, sgrid, tgrid)
    return Solution(
        config=cfg, p=p_path, pair=pair, u=u, cost=cost, trace=trace,
        p_in=p_in, p_fin=p_fin,
    )


# ---------------------------------------------------------------------------
# convergence-rate analysis


def fit_geometric_rate(distances) -> float:
    """Least-squares geometric rate of a positive decreasing-ish sequence.

    Fits log d_k against k and returns e^{slope}; an exactly geometric
    sequence r^k returns r. Raises InsufficientData with fewer than three
    positive finite entries.
    """
    arr = np.asarray([d for d in distances if np.isfinite(d) and d > 0.0], dtype=float)
    if arr.size < 3:
        raise InsufficientData(
            f"need at least 3 positive distances to fit a rate, got {arr.size}"
        )
    slope = np.polyfit(np.arange(arr.size), np.log(arr), 1)[0]
    return float(np.exp(slope))


# ---------------------------------------------------------------------------
# a-priori contraction constants

_E = math.e


def contraction_constants(params: dict) -> dict:
    """Evaluate the a-priori geometric rate bounds for both fixed-point maps.

    Expects kernel sup norms (w_norm, grad_w_norm, lap_w_norm), the strength
    beta and noise level sigma2, plus the regularity bounds: r, a1, a2, a3,
    c1, c2 for the density map and m1..m4 for the pair map (the m-block is
    optional). Raises DomainError when a well-posedness precondition fails.
    """
    def get(name):
        if name not in params:
            raise DomainError(f"missing parameter {name!r}")
        return float(params[name])

    sigma2 = get("sigma2")
    beta = get("beta")
    if sigma2 <= 0.0:
        raise DomainError("sigma2 must be positive")
    if beta < 0.0:
        raise DomainError("beta must be nonnegative")
    w_norm = get("w_norm")
    grad_w_norm = get("grad_w_norm")
    lap_w_norm = get("lap_w_norm")
    r = get("r")
    a1, a2, a3 = get("a1"), get("a2"), get("a3")
    c1, c2 = get("c1"), get("c2")

    z = lap_w_norm + a3 * grad_w_norm
    gate = _E * sigma2 * beta * z
    if gate >= 1.0:
        raise DomainError(
            f"density-map precondition violated: e*sigma2*beta*Z = {gate:.6g} >= 1"
        )
    lam = 2.0 * math.exp(2.0 * r + 1.0) * (
        (2.0 * beta / _E) * w_norm
        + (2.0 * sigma2 * (a1 + a2) * beta * grad_w_norm + c1 + c2) / (1.0 - gate)
    )
    out = {
        "lambda_density": lam,
        "density_gate": gate,
        "density_contractive": lam < 1.0,
    }

    m_keys = ("m1", "m2", "m3", "m4")
    present = [key for key in m_keys if key in params]
    if present:
        if len(present) < 4:
            raise DomainError("pair-map bounds need all of m1, m2, m3, m4")
        m1, m2, m3, m4 = (float(params[key]) for key in m_keys)
        for name, m in (("m2", m2), ("m4", m4)):
            if _E * m >= 1.0:
                raise DomainError(
                    f"pair-map precondition violated: e*{name} = {_E * m:.6g} >= 1"
                )
        fwd = 2.0 * _E * m1 * sigma2 * beta * grad_w_norm / (1.0 - _E * m2)
        bwd = 2.0 * _E * m3 * sigma2 * beta * grad_w_norm / (1.0 - _E * m4)
        out.update(
            lambda_pair=max(fwd, bwd),
            pair_gate_fwd=_E * m2,
            pair_gate_bwd=_E * m4,
            pair_contractive=max(fwd, bwd) < 1.0,
        )
    return out
