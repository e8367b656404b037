"""Interacting-particle verification of a solved control field.

Euler-Maruyama on N particles driven by the control plus the sampled
interaction drift, with reflection at the domain ends. The interaction is
evaluated particle-in-cell: each step bins the cloud onto the grid and reuses
the kernel convolution of the PDE side, so a step costs O(N + n_x^2): the
convolution is one product with the n_x x n_x quadrature matrix of W' that
the kernel table holds.
On the uniform grid one floor index per particle serves both the nearest-node
deposit and the linear gather of the drift (Hockney & Eastwood 1988), and
every per-particle array of the step is allocated once per run.
The noise comes from one SFC64 stream seeded by the run's seed. A run is
reproducible because that one stream is consumed in per-step order, not
because of the generator's kind. The noise does not depend on the
positions, so one worker thread draws the next block of steps' noise while
the current steps run; with one draw in flight at a time the order holds,
and the positions do not depend on scheduling.
:func:`simulate` returns the terminal positions as a plain (N,) array, which
:func:`empirical_density` and :func:`terminal_residual` take as they are.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DomainError, ZeroMassError
from .grid import SpatialGrid, TimeGrid, check_field, check_path
from .metrics import l1_distance
from .potentials import PotentialTable, mean_field_drift

# passes of the reflection fold before a step is declared out of bounds: each
# pass removes two domain widths, and an Euler step is O(sigma sqrt(dt))
_MAX_FOLDS = 32

# normal draws per noise block (1 MiB): a block holds max(1, this // N) steps
_NOISE_BLOCK = 1 << 17


def _sample_initial(p_init: np.ndarray, grid: SpatialGrid, rng, n: int) -> np.ndarray:
    """Inverse-CDF sampling of the piecewise-linear density on the grid."""
    segment_mass = 0.5 * grid.h * (p_init[:-1] + p_init[1:])
    cdf = np.concatenate(([0.0], np.cumsum(segment_mass)))
    if not cdf[-1] > 0.0:
        raise ZeroMassError(f"initial density has nonpositive mass {cdf[-1]}")
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, grid.nodes)


def _locate(x, grid: SpatialGrid, s, i, frac) -> None:
    """The index pass over positions in [x_min, x_max], into the given
    buffers: s = (x - x_min) / h, i = min(floor(s), n_x - 2) and
    frac = s - i, so nodes i and i + 1 bracket each position."""
    np.subtract(x, grid.x_min, out=s)
    s /= grid.h
    np.copyto(i, s, casting="unsafe")  # truncation is the floor, as s >= 0
    np.minimum(i, grid.n_x - 2, out=i)
    np.subtract(s, i, out=frac)


def _deposit(i, frac, grid: SpatialGrid, near) -> np.ndarray:
    """Nearest-node density of at least one located position, normalized to
    unit trapezoid mass.

    Node i + (frac >= 1/2) is the cell between the midpoints around it (half
    cells at the ends); ``near`` receives the node indices.
    """
    np.add(i, frac >= 0.5, out=near)
    counts = np.bincount(near, minlength=grid.n_x)
    density = counts / (near.size * grid.weights)
    # the trapezoid mass, in np.trapezoid's own arithmetic without the cost
    # of its argument handling: one in every particle step
    density /= (grid.h * (density[1:] + density[:-1]) / 2.0).sum()
    return density


def _reflect(x, grid: SpatialGrid, scratch) -> None:
    """Fold positions into [x_min, x_max] in place, bouncing off the ends as
    often as a step needs: each pass mirrors at x_min, then at x_max, and
    takes two spans off the farthest excursion. A cloud already inside is
    left untouched, without a pass."""
    lo, hi = grid.x_min, grid.x_max
    if x.min() >= lo and x.max() <= hi:
        return
    for _ in range(_MAX_FOLDS):
        np.subtract(2.0 * lo, x, out=scratch)
        np.maximum(x, scratch, out=x)
        np.subtract(2.0 * hi, x, out=scratch)
        np.minimum(x, scratch, out=x)
        if x.min() >= lo:
            return
    raise DomainError(
        f"a step carried particles more than {2 * _MAX_FOLDS} domain widths "
        "or out of the finite numbers"
    )


def simulate(
    u_path: np.ndarray,
    table: PotentialTable,
    p_init: np.ndarray,
    sigma: float,
    n: int,
    seed: int,
    sgrid: SpatialGrid,
    tgrid: TimeGrid,
) -> np.ndarray:
    """Run N particles under the control field from t = 0 to t = 1 and
    return their (N,) terminal positions.

    The control is interpolated linearly in space and, as in the closed-loop
    PDE, sampled over each step as the mean of its two endpoint slices.
    Positions reflect at the domain ends. ``table`` is the kernel the solver
    used (``SolverConfig.kernel_table``). A count n or seed that is not an
    integer, a negative seed, a sigma that is not finite and positive, a
    control or initial density that is not finite, or an initial density
    with a negative value, is a DomainError.
    """
    for name, value in (("n", n), ("seed", seed)):
        if not isinstance(value, (int, np.integer)):
            raise DomainError(f"{name} must be an integer, got {value!r}")
    if n < 100:
        raise DomainError(f"need at least 100 particles, got {n}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise DomainError(f"sigma must be finite and positive, got {sigma}")
    u_path = check_path(u_path, sgrid, tgrid)
    p_init = check_field(p_init, sgrid)
    if not np.all(np.isfinite(u_path)):
        raise DomainError("control path must be finite")
    if not (np.all(np.isfinite(p_init)) and np.all(p_init >= 0.0)):
        raise DomainError("initial density must be finite and nonnegative")
    rng = np.random.Generator(np.random.SFC64(seed))
    dt, n_t = tgrid.dt, tgrid.n_t
    noise_scale = sigma * np.sqrt(dt)
    x = _sample_initial(p_init, sgrid, rng, n)
    s, frac, scratch = np.empty(n), np.empty(n), np.empty(n)
    i, near = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    k = max(1, _NOISE_BLOCK // n)
    # sigma times the control of every step, sampled at its midpoint
    control = sigma * (0.5 * (u_path[:-1] + u_path[1:]))

    def draw(l: int) -> np.ndarray:
        """Scaled noise of steps l, ..., l + k - 1 (fewer at the end)."""
        block = rng.standard_normal((min(k, n_t - l), n))
        block *= noise_scale
        return block

    # the worker starts on the first submit, so a run of one block starts none;
    # an exception leaves the `with` only after the draw in flight has finished
    with ThreadPoolExecutor(max_workers=1) as worker:
        noise, pending = draw(0), None
        for l in range(n_t):
            if l % k == 0:
                if pending is not None:
                    noise = pending.result()
                pending = worker.submit(draw, l + k) if l + k < n_t else None
            _locate(x, sgrid, s, i, frac)
            b = mean_field_drift(table, _deposit(i, frac, sgrid, near))
            v = control[l] + sigma * sigma * b
            # linear gather of the node drift v from the same index: into s.
            # i lies in [0, n_x - 2] (_locate clamps it, _reflect keeps x in
            # the domain or raises), so mode="clip" never clips; it only
            # spares the copy of `out` that mode="raise" makes
            np.take(v[1:] - v[:-1], i, out=s, mode="clip")
            s *= frac
            s += np.take(v, i, out=scratch, mode="clip")
            s *= dt
            x += s
            x += noise[l % k]
            _reflect(x, sgrid, scratch)
    return x


def empirical_density(positions: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """Histogram density of a 1-D array of positions on node-centered cells,
    normalized to unit mass.

    Positions outside the domain are not counted; a position that is not
    finite is a DomainError.
    """
    x = np.asarray(positions, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("particle positions must be finite")
    x = x[(x >= grid.x_min) & (x <= grid.x_max)]
    if x.size == 0:
        raise ZeroMassError("no particle lies in the domain")
    s, frac = np.empty(x.size), np.empty(x.size)
    i, near = np.empty(x.size, dtype=np.intp), np.empty(x.size, dtype=np.intp)
    _locate(x, grid, s, i, frac)
    return _deposit(i, frac, grid, near)


def terminal_residual(
    positions: np.ndarray, p_target: np.ndarray, grid: SpatialGrid
) -> float:
    """L1 distance between the histogram of the terminal positions and a
    target density. Its sampling noise alone is about
    :func:`sampling_noise_l1` of the target at the same count."""
    return l1_distance(empirical_density(positions, grid), p_target, grid)


def sampling_noise_l1(p: np.ndarray, grid: SpatialGrid, n: int) -> float:
    """Expected L1 histogram noise when drawing n samples from density p.

    Cell counts are near-Poisson, so E|phat_i - p_i| is about
    sqrt(2 p_i / (pi n w_i)) per cell; summing with the cell widths gives
    sqrt(2 / (pi n)) * sum_i sqrt(p_i w_i).
    """
    p = check_field(p, grid)
    if n < 1:
        raise DomainError(f"need a positive sample count, got {n}")
    return float(np.sqrt(2.0 / (np.pi * n)) * np.sum(np.sqrt(p * grid.weights)))
