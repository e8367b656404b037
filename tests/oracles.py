"""Slow, direct reference computations for the fast library paths.

Everything here is deliberately naive: explicit double loops, textbook
formulas, no shared helpers with the package. Tests freeze these outputs
or compare against them at documented tolerances. The one exception is
repeat_passes, which drives the package's own Sinkhorn pass in a loop that
the package itself runs only at the zero kernel.
"""

from __future__ import annotations

import math

import numpy as np

from mfsb.sinkhorn import inner_sinkhorn


def direct_convolution(kernel: np.ndarray, f: np.ndarray, h: float) -> np.ndarray:
    """O(n^2) sum out_i = h * sum_j kernel[(i - j) + n - 1] * f_j."""
    n = f.shape[0]
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += kernel[i - j + n - 1] * f[j]
        out[i] = h * acc
    return out


def direct_reaction(grad_kernel: np.ndarray, xi: np.ndarray, p: np.ndarray,
                    h: float) -> np.ndarray:
    """Direct quadrature of Q(x) = -integral gradW(x-y) dlog(xi)(y) p(y) dy."""
    slope = np.gradient(np.log(xi), h, edge_order=2)
    return -direct_convolution(grad_kernel, p * slope, h)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def direct_l1(f: np.ndarray, g: np.ndarray, h: float) -> float:
    """Trapezoid integral of |f - g| with an explicit weight loop."""
    w = trapezoid_weights(f.shape[0], h)
    acc = 0.0
    for i in range(f.shape[0]):
        acc += w[i] * abs(f[i] - g[i])
    return acc


def direct_control_energy(u: np.ndarray, p: np.ndarray, h: float,
                          dt: float) -> float:
    """(1/2) double trapezoid of |u|^2 p, looped node by node."""
    n_slices, n_nodes = u.shape
    wx = trapezoid_weights(n_nodes, h)
    wt = trapezoid_weights(n_slices, dt)
    acc = 0.0
    for l in range(n_slices):
        for i in range(n_nodes):
            acc += 0.5 * wt[l] * wx[i] * u[l, i] ** 2 * p[l, i]
    return acc


def direct_pair_density(kernel_w: np.ndarray, p_path: np.ndarray,
                        phi: np.ndarray, phihat: np.ndarray,
                        h: float) -> np.ndarray:
    """Per-node exp(-2 (W*p)) phi phihat, each slice renormalized."""
    n_slices, n = p_path.shape
    out = np.empty_like(p_path)
    wx = trapezoid_weights(n, h)
    for l in range(n_slices):
        conv = direct_convolution(kernel_w, p_path[l], h)
        slice_vals = np.array([
            math.exp(-2.0 * conv[i]) * phi[l, i] * phihat[l, i]
            for i in range(n)
        ])
        mass = 0.0
        for i in range(n):
            mass += wx[i] * slice_vals[i]
        out[l] = slice_vals / mass
    return out


def dense_generator(b: np.ndarray, sigma: float, h: float) -> np.ndarray:
    """Upwind advection + central diffusion generator as a dense matrix.

    Off-diagonal entries carry the diffusion sigma^2 / (2 h^2) plus the
    upwind advection |v| / h, v = sigma^2 b; at the two reflecting ends the
    only neighbour is the inward one and takes both. Each diagonal entry is
    minus the sum of its row's off-diagonal entries.
    """
    n = b.shape[0]
    diffusion = 0.5 * sigma * sigma / (h * h)
    a = np.zeros((n, n))
    for i in range(n):
        v = sigma * sigma * b[i]
        if i == 0:
            a[0, 1] = diffusion + abs(v) / h
        elif i == n - 1:
            a[i, i - 1] = diffusion + abs(v) / h
        else:
            a[i, i - 1] = diffusion + max(-v, 0.0) / h
            a[i, i + 1] = diffusion + max(v, 0.0) / h
        a[i, i] = -sum(a[i, j] for j in range(n) if j != i)
    return a


def direct_sweep(boundary: np.ndarray, b_path: np.ndarray, q_path: np.ndarray,
                 sigma: float, h: float, dt: float, backward: bool) -> np.ndarray:
    """Implicit Euler sweep with a dense solve per step, then the reaction
    factor exp(-dt sigma^2 q) of the slice being filled."""
    n_slices, n = b_path.shape
    eye = np.eye(n)
    path = np.empty((n_slices, n))
    order = range(n_slices - 1, 0, -1) if backward else range(n_slices - 1)
    path[n_slices - 1 if backward else 0] = boundary
    for l in order:
        src, dst = (l, l - 1) if backward else (l, l + 1)
        a = dense_generator(b_path[dst], sigma, h)
        step = np.linalg.solve(eye - dt * a, path[src])
        path[dst] = np.exp(-dt * sigma * sigma * q_path[dst]) * step
    return path


def bernoulli(z: float) -> float:
    """B(z) = z / (e^z - 1) at one point, with B(0) = 1; where e^z
    overflows, B is 0."""
    if z == 0.0:
        return 1.0
    try:
        return z / math.expm1(z)
    except OverflowError:
        return 0.0


def direct_propagation(p_init: np.ndarray, u_path: np.ndarray,
                       grad_w: np.ndarray, sigma: float, x_min: float,
                       x_max: float) -> np.ndarray:
    """Closed-loop finite-volume propagation with a dense solve per step.

    Per step: the drift -(W' * p) by a direct np.convolve, the node velocity
    v = sigma (u_l + u_{l+1}) / 2 + sigma^2 b, its interface means v_k, and
    the fitted flux F_k = (D/h) [B(-z_k) p_k - B(z_k) p_{k+1}] with
    D = sigma^2 / 2, z_k = v_k h / D and both B values from bernoulli. The
    no-flux implicit step w_i (p_i' - p_i) / dt + F_i - F_{i-1} = 0 is
    assembled entry by entry and solved by np.linalg.solve; each slice is
    rescaled to unit trapezoid mass.
    """
    n_t, n_x = u_path.shape[0] - 1, u_path.shape[1]
    h = (x_max - x_min) / (n_x - 1)
    dt = 1.0 / n_t
    w = trapezoid_weights(n_x, h)
    diff = 0.5 * sigma * sigma
    path = np.empty((n_t + 1, n_x))
    path[0] = p_init / np.sum(w * p_init)
    for l in range(n_t):
        p = path[l]
        b = -h * np.convolve(p, grad_w)[n_x - 1 : 2 * n_x - 1]
        v = sigma * 0.5 * (u_path[l] + u_path[l + 1]) + sigma * sigma * b
        m = np.diag(w / dt)
        for k in range(n_x - 1):
            z = 0.5 * (v[k] + v[k + 1]) * h / diff
            a = diff / h * bernoulli(-z)  # F_k's weight on p_k
            c = diff / h * bernoulli(z)   # and on p_{k+1}, with a minus
            m[k, k] += a
            m[k, k + 1] -= c
            m[k + 1, k] -= a
            m[k + 1, k + 1] += c
        p_new = np.linalg.solve(m, w / dt * p)
        path[l + 1] = p_new / np.sum(w * p_new)
    return path


def midpoint_histogram_density(x: np.ndarray, x_min: float, x_max: float,
                               n_x: int) -> np.ndarray:
    """np.histogram of positions on the node midpoints (half cells at the
    ends) over the cell widths, rescaled to unit trapezoid mass."""
    nodes = np.linspace(x_min, x_max, n_x)
    h = (x_max - x_min) / (n_x - 1)
    edges = np.concatenate(([x_min], 0.5 * (nodes[:-1] + nodes[1:]), [x_max]))
    counts, _ = np.histogram(x, bins=edges)
    w = trapezoid_weights(n_x, h)
    density = counts / (x.size * w)
    return density / np.sum(w * density)


def mod_fold(x: np.ndarray, x_min: float, x_max: float) -> np.ndarray:
    """Reflection into [x_min, x_max] as a triangle wave of period 2 span."""
    span = x_max - x_min
    y = np.mod(x - x_min, 2.0 * span)
    return x_min + np.minimum(y, 2.0 * span - y)


def interp_particle_run(u_path: np.ndarray, grad_w: np.ndarray,
                        p_init: np.ndarray, sigma: float, n: int, seed: int,
                        x_min: float, x_max: float) -> np.ndarray:
    """Euler-Maruyama particle-in-cell run, one library call per job.

    Inverse-CDF start from the piecewise-linear p_init, then per step: the
    midpoint histogram, the drift -(W' * p) by a direct np.convolve, the
    control as the mean of the step's two slices, np.interp to gather the
    node drift at the unsorted positions, and the np.mod fold. The SFC64
    draws are the library's: one random(n), then one standard_normal(n) per
    step. Returns the terminal positions.
    """
    n_t, n_x = u_path.shape[0] - 1, u_path.shape[1]
    nodes = np.linspace(x_min, x_max, n_x)
    h = (x_max - x_min) / (n_x - 1)
    dt = 1.0 / n_t
    rng = np.random.Generator(np.random.SFC64(seed))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * h * (p_init[:-1] + p_init[1:]))))
    x = np.interp(rng.random(n), cdf / cdf[-1], nodes)
    for l in range(n_t):
        p = midpoint_histogram_density(x, x_min, x_max, n_x)
        b = -h * np.convolve(p, grad_w)[n_x - 1 : 2 * n_x - 1]
        v = sigma * 0.5 * (u_path[l] + u_path[l + 1]) + sigma * sigma * b
        noise = sigma * math.sqrt(dt) * rng.standard_normal(n)
        x = mod_fold(x + np.interp(x, nodes, v) * dt + noise, x_min, x_max)
    return x


def per_step_particle_run(u_path: np.ndarray, p_init: np.ndarray, sigma: float,
                          n: int, seed: int, x_min: float,
                          x_max: float) -> np.ndarray:
    """Euler-Maruyama run without interaction, drawing each step's noise as
    it goes.

    The README's step formula written out: inverse-CDF start from the
    piecewise-linear p_init, then per step s = (x - x_min) / h,
    i = min(floor(s), n_x - 2), frac = s - i, the control's node drift
    v = sigma (u_l + u_{l+1}) / 2 gathered as v[i] + frac (v[i+1] - v[i]),
    one standard_normal(n) drawn right there, and the fold at x_min then
    x_max repeated until every particle is inside. Returns the terminal
    positions.
    """
    n_t, n_x = u_path.shape[0] - 1, u_path.shape[1]
    nodes = np.linspace(x_min, x_max, n_x)
    h = (x_max - x_min) / (n_x - 1)
    dt = 1.0 / n_t
    rng = np.random.Generator(np.random.SFC64(seed))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * h * (p_init[:-1] + p_init[1:]))))
    x = np.interp(rng.random(n), cdf / cdf[-1], nodes)
    for l in range(n_t):
        s = (x - x_min) / h
        i = np.minimum(np.floor(s).astype(int), n_x - 2)
        frac = s - i
        v = sigma * (0.5 * (u_path[l] + u_path[l + 1]))
        x = x + (v[i] + frac * (v[i + 1] - v[i])) * dt
        x = x + rng.standard_normal(n) * (sigma * math.sqrt(dt))
        while np.any(x < x_min) or np.any(x > x_max):
            x = np.where(x < x_min, 2.0 * x_min - x, x)
            x = np.where(x > x_max, 2.0 * x_max - x, x)
    return x


def repeat_passes(problem, pair, tol: float, max_iter: int):
    """Repeat Sinkhorn passes of a frozen problem from pair until one moves
    the anchors less than tol; returns (pair, anchor distance of each pass).
    The solver makes one pass per freeze; this is the converged inner loop
    the test oracles compare it with, at any kernel."""
    distances = []
    for _ in range(max_iter):
        pair, anchor_dh = inner_sinkhorn(problem, pair)
        distances.append(anchor_dh)
        if anchor_dh < tol:
            return pair, distances
    raise AssertionError(
        f"passes did not reach tol={tol} in {max_iter} (last {distances[-1]:.3e})"
    )


def gaussian_density(x: np.ndarray, mean: float, variance: float) -> np.ndarray:
    """Normalized Gaussian evaluated on nodes (analytic normalizer)."""
    return np.exp(-((x - mean) ** 2) / (2.0 * variance)) / math.sqrt(
        2.0 * math.pi * variance
    )


def field_variance(p: np.ndarray, x: np.ndarray, h: float) -> float:
    """Second central moment by trapezoid quadrature."""
    w = trapezoid_weights(x.shape[0], h)
    mass = float(np.sum(w * p))
    mean = float(np.sum(w * x * p)) / mass
    return float(np.sum(w * (x - mean) ** 2 * p)) / mass


# Hand-evaluated contraction constants (straight-line arithmetic, written
# out once here and frozen as decimals in the tests that use them).
#
# density map, with r=0.1, beta=0.01, a1=a2=a3=1, c1=c2=0.01, unit kernel
# norms, sigma^2 = 0.2:
#   Z    = lap_norm + a3 * grad_norm = 1 + 1 = 2
#   gate = e * 0.2 * 0.01 * 2                 = 0.010873127313836183
#   lam  = 2 e^{1.2} [ (2*0.01/e)*1
#          + (2*0.2*2*0.01*1 + 0.02)/(1 - gate) ]
#                                             = 0.23682648380167942
# with beta = 0 the bracket collapses to c1 + c2:
#   lam0 = 2 e^{1.2} * 0.02                   = 0.1328046769094619
#
# pair map, m1..m4 = 0.1, same beta and sigma^2, grad norm 1:
#   each branch = 2 e * 0.1 * 0.2 * 0.01 / (1 - 0.1 e)
#                                             = 0.0014932090281015665
HAND_DENSITY_GATE = 0.010873127313836183
HAND_LAMBDA = 0.23682648380167942
HAND_LAMBDA_NO_INTERACTION = 0.1328046769094619
HAND_LAMBDA_PAIR = 0.0014932090281015665

# smoothed power kernel c/(2 (x^2 + eps^2)^(alpha/2)) at x = 0 with
# c = 5, alpha = 0.2, eps = 1e-2:  2.5 * (1e-4)^(-0.1) = 2.5 * 10^(0.4)
HAND_POWER_KERNEL_AT_ZERO = 6.2797160787739505

# two-node Hilbert distance of (1, 2) vs (2, 1): log 2 - log(1/2) = 2 log 2
HAND_TWO_NODE_HILBERT = 1.3862943611198906
