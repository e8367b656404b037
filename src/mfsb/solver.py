"""Outer fixed-point loop over the interaction density, plus analysis helpers.

Each evaluation of the outer map freezes drift and reaction once at the
current density and pair (:func:`mfsb.sinkhorn.freeze_problem`), makes one
Sinkhorn pass of :mod:`mfsb.sinkhorn` (backward sweep, t = 0 anchor, forward
sweep, t = 1 anchor), refines the density from the new pair,

    refined_t = normalize( e^{-2 (W * p_t)} phi_t phihat_t ),

and damps it towards the previous iterate. No loop runs to convergence at a
frozen density: the pass and the refreeze share the fixed point, and the
loop stops when both the sup-over-time Hilbert distance between consecutive
densities and the distance the pass moved the pair drop below tol. Both are
read off the joint log states the mixing acts on. That pair distance is a
supremum over all slices, so it bounds the pass's own anchor distance too,
and a stop leaves the returned pair stationary to tol under one more
refreeze and pass. With the interaction switched off the map collapses to
the classical bridge computed by :func:`classical_bridge_init`, which also
provides the starting point in the general case and iterates only the two
endpoint slices.

That plain outer map contracts only linearly, so the loop feeds its outputs
to type-II Anderson mixing (Anderson 1965; Walker & Ni 2011) on the joint
log state of density and pair, with a safeguard: a mixed iterate is kept
only while its plain-map step does not grow, and otherwise the loop resumes
the plain map from the last accepted iterate with the memory cleared.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import (
    ConfigError,
    DomainError,
    NoConvergence,
    PositivityError,
    SolveError,
)
from .grid import SpatialGrid, TimeGrid, check_field, check_path, gradient, normalize
from .kolmogorov import build_generator
from .marginals import MarginalSpec, build_marginals
from .metrics import hilbert_distance, path_distance
# not called here: perfbench/probe.py traces pair_distance where another
# module holds it, and --trace 1 fails when none does
from .metrics import pair_distance  # noqa: F401
from .potentials import PotentialSpec, PotentialTable, convolve_path, eval_potential
from .sinkhorn import PairPath, freeze_problem, inner_sinkhorn

logger = logging.getLogger("mfsb")

# tol must exceed this: with the check lifted and N1 = 60, both bundled
# examples converge at tol = 3e-14 (34 and 41 evaluations), but at 1e-14 the
# outer steps stall near 1.1e-14 (example1) and at 1.1e-14 to 2.4e-14
# (example2, which never converges); 320 eps = 7.1e-14 keeps ~3x margin
TOL_FLOOR = 320 * np.finfo(float).eps

# the pass budget of the classical-bridge start, which stops at tol
BRIDGE_MAX_ITER = 2000

# Anderson memory of the outer loop: how many past steps the mixing combines.
# Each remembered step holds two joint log states of (3 n_t + 1) n_x doubles
# (0.72 MB on the bundled grids), so a deeper memory costs peak memory for
# little gain: depth 2 takes example1 from 28 plain steps to 16, depth 5 to 14
ANDERSON_MEMORY = 2


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
    seed: int = 0
    verify_n: int = 100_000

    def __post_init__(self):
        if not (np.isfinite(self.sigma2) and self.sigma2 > 0.0):
            raise ConfigError(f"sigma2 must be positive, got {self.sigma2}")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError(f"theta must lie in (0, 1], got {self.theta}")
        if not (np.isfinite(self.tol) and self.tol > TOL_FLOOR):
            raise ConfigError(
                f"tol must be finite and exceed {TOL_FLOOR:.3g}: the outer "
                f"steps stall near 1e-14; got {self.tol}"
            )
        for name in ("n1", "verify_n", "seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.n1 < 1:
            raise ConfigError("n1 must be at least 1")
        # the grids check the domain, n_x and n_t themselves (DomainError)
        object.__setattr__(self, "sgrid", SpatialGrid(self.x_min, self.x_max, self.n_x))
        object.__setattr__(self, "tgrid", TimeGrid(self.n_t))
        if self.verify_n < 100:
            raise ConfigError(f"verify_n must be at least 100, got {self.verify_n}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    @cached_property
    def kernel_table(self) -> PotentialTable:
        """Kernel tables the solver and the verification use."""
        return eval_potential(self.potential, self.sgrid)


@dataclass
class ConvergenceTrace:
    """Everything the iteration did, one entry per loop event.

    ``init_dh`` holds the anchor distance of each pass of the classical
    bridge start, so its length is the number of passes. Outer step k is the
    k-th evaluation of the plain outer map, at a mixed iterate or not.
    ``middle_dh[k]`` holds the distance its refreeze and pass moved the pair,
    a supremum over slices that bounds the pass's own anchor distance;
    ``inner_iterations[k]`` is always ``[1]``. Three fields keep a redundant
    form only because perfbench/run.py reads them from trace.json:
    ``outer_iterations`` (the length of ``outer_dh``), ``inner_iterations``
    and the one-entry lists of ``middle_dh``. The endpoint slices need no
    record: the anchors reproduce both marginals by construction. A solve
    shares one trace between its Solution and, when a budget runs out, its
    NoConvergence. The trace holds no timings, so serialized traces stay
    byte-identical across reruns.
    """

    init_dh: list[float] = field(default_factory=list)
    outer_dh: list[float] = field(default_factory=list)
    outer_dh_raw: list[float] = field(default_factory=list)
    middle_dh: list[list[float]] = field(default_factory=list)
    inner_iterations: list[list[int]] = field(default_factory=list)
    slice_mass_dev: list[float] = field(default_factory=list)
    min_phi: float = float("inf")
    min_phihat: float = float("inf")
    min_density: float = float("inf")
    converged: bool = False
    outer_iterations: int = 0


@dataclass(frozen=True, eq=False)
class Solution:
    """Output of :func:`solve`: returned when it converges, and attached as
    the ``partial`` of its NoConvergence (with ``converged`` False) when not.
    """

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
    tol: float,
) -> tuple[np.ndarray, PairPath, list[float]]:
    """Bridge between the marginals with the interaction switched off.

    With no drift and no reaction a Sinkhorn pass only moves its two anchor
    slices, by the static Schroedinger (Fortet) iteration: with K the
    implicit heat step, phi_0 = K^{n_t} phi_1, phihat_0 = p_in / phi_0,
    phihat_1 = K^{n_t} phihat_0 and phi_1 = p_fin / phihat_1. It runs from
    the flat start (phi_1 = 1, phihat_0 = p_in) until a pass moves the
    anchors less than tol in the Hilbert metric, where it contracts (Chen,
    Georgiou & Pavon 2016), or for BRIDGE_MAX_ITER passes. The path is then
    filled as the last pass would have: a backward sweep from that pass's
    starting phi_1 with the terminal slice overwritten, and a forward sweep
    from phihat_0. The density path is the normalized slice-wise product of
    the two scalings. Returns (p_path, pair, boundary_dh), the anchor
    distance of every pass. It does not raise when the budget runs out: a
    last distance of at least tol says so, and :func:`solve` raises.
    """
    if not tol > 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    p_in = check_field(p_in, sgrid)
    p_fin = check_field(p_fin, sgrid)
    for name, p in (("p_in", p_in), ("p_fin", p_fin)):
        if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
            raise PositivityError(f"{name} must be strictly positive")
    n_t, dt = tgrid.n_t, tgrid.dt
    low, diag, up = build_generator(np.zeros(sgrid.n_x), sigma, sgrid)
    # I - dt A_0 is factored once. It is diagonally dominant, so neither
    # gttrf nor the gtsv of a pass pivots, and a gttrs step gives the bits of
    # TransportOperators.solve at zero drift
    *factors, info = dgttrf(-dt * low, 1.0 - dt * diag, -dt * up)
    if info != 0:
        raise SolveError(f"gttrf failed with info={info}")

    def step(v: np.ndarray) -> np.ndarray:
        return dgttrs(*factors, v)[0]

    def propagate(v: np.ndarray) -> np.ndarray:
        for _ in range(n_t):
            v = step(v)
        return v

    phi1, phihat0 = np.ones(sgrid.n_x), p_in
    boundary_dh: list[float] = []
    for _ in range(BRIDGE_MAX_ITER):
        start_phi1, start_phihat0 = phi1, phihat0
        phihat0 = p_in / propagate(start_phi1)
        phi1 = p_fin / propagate(phihat0)
        anchor_dh = max(
            hilbert_distance(phi1, start_phi1),
            hilbert_distance(phihat0, start_phihat0),
        )
        boundary_dh.append(anchor_dh)
        if anchor_dh < tol:
            break
    phi = np.empty((n_t + 1, sgrid.n_x))
    phihat = np.empty_like(phi)
    phi[n_t], phihat[0] = start_phi1, phihat0
    for l in range(n_t):
        phi[n_t - 1 - l] = step(phi[n_t - l])
        phihat[l + 1] = step(phihat[l])
    phi[n_t] = phi1
    pair = PairPath(phi=phi, phihat=phihat)
    return normalize(pair.product, sgrid), pair, boundary_dh


def _refined_density(
    p_path: np.ndarray,
    product: np.ndarray,
    table: PotentialTable,
    sgrid: SpatialGrid,
) -> tuple[np.ndarray, float]:
    """Normalized e^{-2 W*p} phi phihat, given the pair's product phi phihat,
    and the worst raw-slice mass deviation."""
    # in place on the fresh convolution: one path-sized array per call
    raw = convolve_path(table, p_path)
    raw *= -2.0
    np.exp(raw, out=raw)
    raw *= product
    masses = np.trapezoid(raw, dx=sgrid.h, axis=1)
    if not np.all(np.isfinite(masses)) or np.any(masses <= 0.0):
        raise PositivityError("density refinement produced a nonpositive slice")
    raw /= masses[:, None]
    return raw, float(np.abs(masses - 1.0).max())


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
    product = pair.product
    p_path = normalize(product, cfg.sgrid)
    for passes in range(1, cfg.n1 + 1):
        refined = _refined_density(p_path, product, cfg.kernel_table, cfg.sgrid)[0]
        p_next = cfg.theta * refined + (1.0 - cfg.theta) * p_path
        p_next[0] = p_in
        p_next[-1] = p_fin
        step = path_distance(p_next, p_path)
        p_path = p_next
        if step < cfg.tol:
            break
    logger.debug(
        "warm-start density: %d passes, last step %.3e, tol %s",
        passes, step, "reached" if step < cfg.tol else "not reached",
    )
    return p_path


def _split_state(state: np.ndarray, n_s: int, n_x: int):
    """(interior log p, gauged log phi, gauged log phihat) views of a state."""
    k = (n_s - 2) * n_x
    m = n_s * n_x
    return (
        state[:k].reshape(n_s - 2, n_x),
        state[k:k + m].reshape(n_s, n_x),
        state[k + m:].reshape(n_s, n_x),
    )


def _log_state(p_path: np.ndarray, pair: PairPath) -> np.ndarray:
    """Joint log state of an outer iterate, the vector the mixing acts on.

    Interior log p slices, then log phi - c_t and log phihat + c_t with c_t
    the slice mean of log phi. The gauge moves each slice's scale from phi to
    phihat, which leaves phi phihat and d/dx log of either leg unchanged; the
    endpoint slices of p are the fixed marginals and stay out.
    """
    n_s, n_x = pair.phi.shape
    state = np.empty((3 * n_s - 2) * n_x)
    log_p, log_phi, log_phihat = _split_state(state, n_s, n_x)
    np.log(p_path[1:-1], out=log_p)
    np.log(pair.phi, out=log_phi)
    gauge = log_phi.mean(axis=1, keepdims=True)
    log_phi -= gauge
    np.log(pair.phihat, out=log_phihat)
    log_phihat += gauge
    return state


def _step_distances(f: np.ndarray, n_s: int, n_x: int) -> tuple[float, float]:
    """(d_outer, d_pair) of a plain step with residual f = g - x of the log
    states.

    Each is the largest per-slice oscillation max - min of f, over the
    density block and over the two pair blocks: the sup-over-time Hilbert
    distances between the densities and between the legs, as the gauge
    shifts a slice by a constant. The endpoint slices of p, the marginals
    in both, add nothing.
    """
    osc = [
        float((block.max(axis=1) - block.min(axis=1)).max())
        for block in _split_state(f, n_s, n_x)
    ]
    return osc[0], max(osc[1], osc[2])


def _iterate_from_state(
    state: np.ndarray, p_in: np.ndarray, p_fin: np.ndarray, sgrid: SpatialGrid
) -> tuple[np.ndarray, PairPath] | None:
    """Outer iterate of a joint log state: exponentiated, density slices
    renormalized and endpoints pinned to the marginals. None when an entry
    or a slice mass is not finite and positive."""
    n_x = sgrid.n_x
    n_s = (state.size // n_x + 2) // 3
    log_p, log_phi, log_phihat = _split_state(state, n_s, n_x)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        p_path = np.empty((n_s, n_x))
        np.exp(log_p, out=p_path[1:-1])
        masses = np.trapezoid(p_path[1:-1], dx=sgrid.h, axis=1)
        phi = np.exp(log_phi)
        phihat = np.exp(log_phihat)
    for arr in (p_path[1:-1], masses, phi, phihat):
        if not (np.all(np.isfinite(arr)) and arr.min() > 0.0):
            return None
    p_path[1:-1] /= masses[:, None]
    p_path[0] = p_in
    p_path[-1] = p_fin
    return p_path, PairPath(phi=phi, phihat=phihat)


class _AndersonMixer:
    """Safeguarded type-II Anderson mixing with a short memory.

    For each accepted iterate x_k with plain-map output g_k and residual
    f_k = g_k - x_k, the next iterate is g_k - dG gamma, where gamma solves
    min |f_k - dF gamma| and the rows of dF and dG are differences of
    consecutive residuals and outputs (Walker & Ni 2011). The rows live in
    preallocated (memory, n) buffers overwritten in place, oldest first, and
    gamma comes from the memory x memory normal equations, so a step makes no
    (n, memory) copy. A mixed iterate is accepted only if its plain step is
    no larger than that of the last accepted iterate; otherwise the next
    iterate is the plain output of the last accepted one and the memory is
    cleared (Zhang, O'Donoghue & Boyd 2020).
    """

    def __init__(self, n: int, memory: int):
        self.dg = np.empty((memory, n))
        self.df = np.empty((memory, n))
        self.g_prev = np.empty(n)
        self.f_prev = np.empty(n)
        self.count = 0
        self.slot = 0
        self.accepted_dh = math.inf
        self.restarts = 0

    def restart(self) -> None:
        """Forget every remembered step after a failed mixed iterate."""
        self.count = self.slot = 0
        self.accepted_dh = math.inf
        self.restarts += 1

    def step(
        self, f: np.ndarray, g: np.ndarray, step_dh: float
    ) -> tuple[np.ndarray | None, str]:
        """Next iterate after x, given its plain-map output g, the residual
        f = g - x and the size step_dh of that plain step.

        Returns (state, kind): a mixed state and "mixed"; the plain output of
        the last accepted iterate and "fallback" when x was mixed and its step
        grew; or None and "plain" when g itself is next, while no difference
        is remembered.
        """
        if self.count > 0 and step_dh > self.accepted_dh:
            fallback = self.g_prev.copy()
            self.restart()
            return fallback, "fallback"
        if self.accepted_dh < math.inf:  # g_prev and f_prev are set
            j = self.slot
            np.subtract(g, self.g_prev, out=self.dg[j])
            np.subtract(f, self.f_prev, out=self.df[j])
            self.slot = (j + 1) % len(self.dg)
            self.count = min(self.count + 1, len(self.dg))
        self.accepted_dh = step_dh
        self.g_prev[:] = g
        self.f_prev[:] = f
        if self.count == 0:
            return None, "plain"
        rows = self.df[: self.count]
        gamma = np.linalg.lstsq(rows @ rows.T, rows @ self.f_prev, rcond=None)[0]
        mixed = gamma @ self.dg[: self.count]
        return np.subtract(g, mixed, out=mixed), "mixed"


def solve(cfg: SolverConfig, warm_pair: PairPath | None = None) -> Solution:
    """Run the outer iteration, Anderson-accelerated, to convergence.

    Every outer step evaluates the plain map (freeze, one Sinkhorn pass,
    refine, damp) once at the current iterate and counts against n1; the
    stop test is on that plain step, whose output is returned. Its pair
    distance, a supremum over slices, bounds the pass's anchor distance, so
    the returned pair is stationary to tol under one more refreeze and pass.
    Raises NoConvergence when the bridge start's BRIDGE_MAX_ITER passes or
    the n1 evaluations run out, with the trace and a Solution of the last
    iterate attached.
    """
    sgrid, tgrid = cfg.sgrid, cfg.tgrid
    p_in = build_marginals(cfg.marginal_in, sgrid, "marginal_in")
    p_fin = build_marginals(cfg.marginal_fin, sgrid, "marginal_fin")
    table = cfg.kernel_table
    sigma = cfg.sigma
    trace = ConvergenceTrace()

    def outcome(p_path: np.ndarray, pair: PairPath) -> Solution:
        u = optimal_control(pair, sigma, sgrid)
        return Solution(
            config=cfg, p=p_path, pair=pair, u=u,
            cost=control_energy(u, p_path, sgrid, tgrid), trace=trace,
            p_in=p_in, p_fin=p_fin,
        )

    if warm_pair is None:
        p_path, pair, trace.init_dh = classical_bridge_init(
            p_in, p_fin, sigma, sgrid, tgrid, tol=cfg.tol
        )
    else:
        check_path(warm_pair.phi, sgrid, tgrid)
        pair = warm_pair
        p_path = _warm_start_density(cfg, pair, p_in, p_fin)

    # set before the start's budget check, so its partial's trace has them
    trace.min_phi = float(pair.phi.min())
    trace.min_phihat = float(pair.phihat.min())
    trace.min_density = float(p_path.min())
    if trace.init_dh and trace.init_dh[-1] >= cfg.tol:
        last = trace.init_dh[-1]
        raise NoConvergence(
            f"the classical-bridge start did not reach tol={cfg.tol} in "
            f"{len(trace.init_dh)} passes (last anchor distance {last:.3e})",
            level="inner",
            last_distance=last,
            trace=trace,
            partial=outcome(p_path, pair),
        )

    mixer = None
    kind = "plain"  # how the current iterate was made

    for k in range(cfg.n1):
        tick = time.perf_counter()
        problem = freeze_problem(p_path, pair, table, p_in, p_fin, sigma, sgrid, tgrid)
        new_pair = inner_sinkhorn(problem, pair)
        del problem  # its bands go before the next freeze builds new ones
        trace.min_phi = min(trace.min_phi, float(new_pair.phi.min()))
        trace.min_phihat = min(trace.min_phihat, float(new_pair.phihat.min()))

        refined, mass_dev = _refined_density(p_path, new_pair.product, table, sgrid)
        # also checks that both densities are finite and positive
        d_raw = path_distance(refined, p_path)
        p_next = cfg.theta * refined + (1.0 - cfg.theta) * p_path
        # the plain step's residual g - x, formed in the buffer of x
        f = _log_state(p_path, pair)
        g = _log_state(p_next, new_pair)
        np.subtract(g, f, out=f)
        d_outer, d_pair = _step_distances(f, tgrid.n_t + 1, sgrid.n_x)

        trace.middle_dh.append([d_pair])
        trace.inner_iterations.append([1])
        trace.outer_dh.append(d_outer)
        trace.outer_dh_raw.append(d_raw)
        trace.slice_mass_dev.append(mass_dev)
        trace.min_density = min(trace.min_density, float(p_next.min()))

        step_dh = max(d_outer, d_pair)
        trace.outer_iterations = k + 1
        trace.converged = step_dh < cfg.tol
        evaluated = kind
        if not trace.converged and k < cfg.n1 - 1:
            if mixer is None:
                mixer = _AndersonMixer(
                    (3 * tgrid.n_t + 1) * sgrid.n_x, ANDERSON_MEMORY
                )
            state, kind = mixer.step(f, g, step_dh)
            nxt = None
            if state is not None:
                nxt = _iterate_from_state(state, p_in, p_fin, sgrid)
            if nxt is None:
                if kind == "mixed":
                    mixer.restart()  # the mixed state over- or underflowed
                nxt, kind = (p_next, new_pair), "plain"
            elif kind == "fallback":
                evaluated = "mixed, rejected"
            p_path, pair = nxt
            # only the next iterate stays alive through the next freeze. The
            # step's arrays go together: freeing f, g or refined any earlier
            # lets glibc's malloc trim the heap, and each step then faults
            # its pages in again (10 700 to 12 400 minor page faults per
            # example1 solve, against 3 800)
            del p_next, new_pair, refined, f, g, state, nxt
        logger.debug(
            "outer %d (%s): d_outer=%.3e d_pair=%.3e restarts=%d dt=%.2fs",
            k, evaluated, d_outer, d_pair,
            0 if mixer is None else mixer.restarts, time.perf_counter() - tick,
        )
        if trace.converged:
            return outcome(p_next, new_pair)

    raise NoConvergence(
        f"outer loop did not reach tol={cfg.tol} in {cfg.n1} iterations "
        f"(last density or pair distance {step_dh:.3e})",
        level="outer",
        last_distance=step_dh,
        trace=trace,
        partial=outcome(p_next, new_pair),
    )


# ---------------------------------------------------------------------------
# a-priori contraction constants

_E = math.e


def contraction_constants(params: dict) -> dict:
    """Evaluate the a-priori geometric rate bounds for both fixed-point maps.

    Expects kernel sup norms (w_norm, grad_w_norm, lap_w_norm), the strength
    beta and noise level sigma2, plus the regularity bounds: r, a1, a2, a3,
    c1, c2 for the density map and m1..m4 for the pair map (the m-block is
    optional). Raises DomainError when a parameter is missing or not finite,
    or when a well-posedness precondition fails.
    """
    def get(name):
        if name not in params:
            raise DomainError(f"missing parameter {name!r}")
        value = float(params[name])
        if not math.isfinite(value):
            raise DomainError(f"parameter {name!r} must be finite, got {value}")
        return value

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
        m1, m2, m3, m4 = (get(key) for key in m_keys)
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
