"""Correctness checks on one run's artifacts, computed without the mfsb package.

Every reference value is computed here from the run's config file: the
marginals from their Gaussian-mixture formula, the interaction W * p by direct
O(n_x^2) quadrature from the kernel formula, and the particle sampling noise
from the terminal marginal. No check compares against stored output.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

ENDPOINT_L1_MAX = 1e-3  # the package's acceptance criterion 1
CLOSED_LOOP_L1_MAX = 0.02  # the package's acceptance criterion 4
MASS_TOL = 1e-9
ROUND_OFF = 1e-9  # log-space round-off allowed on top of the derived slacks
# particle terminal L1 may exceed the closed-loop L1 by this many expected
# sampling-noise L1s; README.md derives the multiple from the noise model
NOISE_MULTIPLE = 3.0


def read_config(path) -> dict[str, str]:
    raw = {}
    for line in Path(path).read_text().splitlines():
        body = line.split("#", 1)[0].strip()
        if body:
            key, value = (part.strip() for part in body.split("=", 1))
            raw[key] = value
    return raw


def _floats(raw, key):
    return [float(tok) for tok in raw[key].split()]


class Problem:
    """Grid, marginals and kernel of a config, evaluated from their formulas."""

    def __init__(self, cfg_path):
        raw = read_config(cfg_path)
        x_min, x_max = _floats(raw, "domain") if "domain" in raw else (-2.0, 2.0)
        self.n_x = int(raw.get("n_x", 301))
        self.n_t = int(raw.get("n_t", 100))
        self.nodes = np.linspace(x_min, x_max, self.n_x)
        self.h = (x_max - x_min) / (self.n_x - 1)
        self.weights = np.full(self.n_x, self.h)
        self.weights[0] = self.weights[-1] = 0.5 * self.h
        self.sigma2 = float(raw["sigma2"])
        self.theta = float(raw["theta"])
        self.tol = float(raw["tol"])
        self.seed = int(raw.get("seed", 0))
        self.verify_n = int(raw.get("verify.N", 100_000))
        self.p_in = self._mixture(raw, "marginal_in")
        self.p_fin = self._mixture(raw, "marginal_fin")
        prescaled = raw.get("potential_is_prescaled", "true").lower()
        scale = 1.0 / self.sigma2 if prescaled in ("false", "0", "no", "off") else 1.0
        self.w = scale * self._kernel(raw, self.nodes[:, None] - self.nodes[None, :])
        # W over the whole displacement range [-(x_max - x_min), x_max - x_min]
        r = np.linspace(x_min - x_max, x_max - x_min, 2 * self.n_x - 1)
        self.w_osc = scale * float(np.ptp(self._kernel(raw, r)))

    def mass(self, f):
        return np.trapezoid(f, dx=self.h, axis=-1)

    def l1(self, f, g):
        return float(self.mass(np.abs(f - g)))

    def _mixture(self, raw, prefix):
        if raw[f"{prefix}.kind"] != "gaussian_mixture":
            raise ValueError(f"{prefix}: only Gaussian mixtures are checked")
        x = self.nodes
        f = np.zeros_like(x)
        for wk, mk, vk in zip(
            _floats(raw, f"{prefix}.weights"),
            _floats(raw, f"{prefix}.means"),
            _floats(raw, f"{prefix}.variances"),
        ):
            f += wk * np.exp(-((x - mk) ** 2) / (2.0 * vk)) / math.sqrt(2.0 * math.pi * vk)
        return f / self.mass(f)

    @staticmethod
    def _kernel(raw, r):
        kind = raw.get("potential.kind", "zero")
        beta = float(raw.get("potential.beta", 1.0))
        if kind == "zero":
            return np.zeros_like(r)
        if kind == "power_repulsive":
            c, alpha, eps = (float(raw[f"potential.{k}"]) for k in ("c", "alpha", "epsilon"))
            return beta * c / 2.0 * (r * r + eps * eps) ** (-alpha / 2.0)
        if kind == "gaussian_attractive":
            a, s = float(raw["potential.a"]), float(raw["potential.s"])
            return -beta * a * np.exp(-r * r / s)
        raise ValueError(f"kernel kind {kind!r} is not checked")

    def interaction(self, p_path):
        """(W * p_t)(x_i) = h sum_j W(x_i - x_j) p_t(x_j) for every slice."""
        return self.h * p_path @ self.w.T

    def noise_l1(self, p, n):
        """Expected L1 histogram error of n samples from p."""
        return math.sqrt(2.0 / (math.pi * n)) * float(np.sum(np.sqrt(p * self.weights)))

    def fixed_point_slack(self):
        """Largest per-slice Hilbert oscillation of p / (e^{-2 W*p} phi phihat)
        that a run stopped by the outer test d_H(p_next, p_prev) < tol allows.

        The damped step p_next = theta R(p_prev) + (1 - theta) p_prev puts
        R(p_prev) within the first term of p_next; refining at p_next instead
        of p_prev changes the exponent by 2 W * (p_next - p_prev), whose
        oscillation is at most 2 osc(W) ||p_next - p_prev||_1 <= 2 osc(W)
        (e^tol - 1).
        """
        g, tol = 1.0 - self.theta, self.tol
        damping = math.log((1.0 - g * math.exp(-tol)) / (1.0 - g * math.exp(tol)))
        return damping + 2.0 * self.w_osc * math.expm1(tol) + ROUND_OFF

    def load_path(self, path, ncols):
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        rows = (self.n_t + 1) * self.n_x
        if data.shape != (rows, ncols):
            raise ValueError(f"{path}: shape {data.shape}, expected {(rows, ncols)}")
        t = np.repeat(np.linspace(0.0, 1.0, self.n_t + 1), self.n_x)
        x = np.tile(self.nodes, self.n_t + 1)
        if np.abs(data[:, 0] - t).max() > 1e-12 or np.abs(data[:, 1] - x).max() > 1e-12:
            raise ValueError(f"{path}: (t, x) columns do not match the config grid")
        shape = (self.n_t + 1, self.n_x)
        return [data[:, k].reshape(shape) for k in range(2, ncols)]


def last_rate_bound(outer_dh) -> float:
    """Distance from the last iterate to the fixed point, d_last lam/(1 - lam),
    with lam the larger of the last two observed contraction ratios."""
    if len(outer_dh) < 3:
        return float("inf")
    lam = max(outer_dh[-1] / outer_dh[-2], outer_dh[-2] / outer_dh[-3])
    return outer_dh[-1] * lam / (1.0 - lam) if lam < 1.0 else float("inf")


def path_distance(f, g) -> float:
    r = np.log(f) - np.log(g)
    return float((r.max(axis=1) - r.min(axis=1)).max())


def check_run(problem: Problem, out: Path, verified: bool) -> tuple[list[str], dict]:
    """Check one run directory; returns (failures, facts used by later checks)."""
    fails = []
    manifest = json.loads((out / "manifest.json").read_text())
    trace = json.loads((out / "trace.json").read_text())
    if manifest["status"] != "converged" or trace["status"] != "converged":
        fails.append(f"status {manifest['status']!r}, expected 'converged'")
    (p,) = problem.load_path(out / "densities.csv", 3)
    phi, phihat = problem.load_path(out / "pair.csv", 4)

    for name, ref, got in (("initial", problem.p_in, p[0]), ("terminal", problem.p_fin, p[-1])):
        err = problem.l1(got, ref)
        if not err <= ENDPOINT_L1_MAX:
            fails.append(f"{name} slice L1 {err:.3e} > {ENDPOINT_L1_MAX}")
    if not (p.min() > 0.0 and phi.min() > 0.0 and phihat.min() > 0.0):
        fails.append("a density or scaling slice is not strictly positive")
    else:
        mass_err = float(np.abs(problem.mass(p) - 1.0).max())
        if not mass_err <= MASS_TOL:
            fails.append(f"slice mass off by {mass_err:.3e}")
        log_ratio = np.log(p) + 2.0 * problem.interaction(p) - np.log(phi) - np.log(phihat)
        osc = float((log_ratio.max(axis=1) - log_ratio.min(axis=1)).max())
        slack = problem.fixed_point_slack()
        if not osc <= slack:
            fails.append(f"Hopf-Cole fixed point off by {osc:.3e} > {slack:.3e}")

    if verified:
        ver = manifest["verification"] or {}
        closed = ver.get("pde", {}).get("terminal_l1")
        parts = ver.get("particles", {})
        noise = problem.noise_l1(problem.p_fin, problem.verify_n)
        if closed is None or not closed <= CLOSED_LOOP_L1_MAX:
            fails.append(f"closed-loop terminal L1 {closed} > {CLOSED_LOOP_L1_MAX}")
        elif not parts.get("terminal_l1", math.inf) <= closed + NOISE_MULTIPLE * noise:
            fails.append(
                f"particle terminal L1 {parts.get('terminal_l1')} > {closed:.4g} "
                f"+ {NOISE_MULTIPLE:g} x noise {noise:.4g}"
            )
        if parts.get("n") != problem.verify_n or parts.get("seed") != problem.seed:
            fails.append(f"ensemble ran n={parts.get('n')} seed={parts.get('seed')}")
    facts = {"p": p, "cost": trace["cost"], "trace": trace["trace"]}
    return fails, facts


def check_agreement(resumed: dict, cold: dict) -> list[str]:
    """A resumed solve must reach the cold solve's fixed point: both stopped
    within last_rate_bound of it, so they differ by at most the sum."""
    bound = last_rate_bound(resumed["trace"]["outer_dh"]) + last_rate_bound(
        cold["trace"]["outer_dh"]
    )
    fails = []
    dist = path_distance(resumed["p"], cold["p"])
    if not dist <= bound:
        fails.append(f"resumed density path {dist:.3e} from the cold one > {bound:.3e}")
    # at a fixed integrand a Hilbert distance d changes a positive integral of
    # p by a factor within e^{+-d}; the cost gap is held to the same bound
    rel = abs(resumed["cost"] - cold["cost"]) / abs(cold["cost"])
    if not rel <= math.expm1(bound):
        fails.append(f"resumed cost differs by {rel:.3e} > {math.expm1(bound):.3e}")
    return fails
