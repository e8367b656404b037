"""End-to-end acceptance suite.

Ten criteria, one test and one recorded PASS/FAIL line each: the two bundled
benchmark problems, reduction to the non-interacting bridge, closed-loop PDE
and particle verification, the projective-metric property battery, oracle
equivalence of every fast numeric path, positivity/conservation bookkeeping,
scaling invariances, the a-priori rate constants, and byte-level determinism
of the command-line artifacts.
"""

import math

import numpy as np
import pytest

from mfsb.cli import run
from mfsb.errors import DomainError
from mfsb.grid import SpatialGrid, TimeGrid, normalize
from mfsb.kolmogorov import propagate_density
from mfsb.metrics import hilbert_distance, l1_distance, path_distance
from mfsb.particles import simulate, terminal_residual
from mfsb.potentials import (
    PotentialSpec,
    convolve,
    eval_potential,
    reaction_term_path,
)
from mfsb.sinkhorn import PairPath
from mfsb.solver import (
    SolverConfig,
    classical_bridge_init,
    contraction_constants,
    _refined_density,
    control_energy,
    optimal_control,
    solve,
)

from conftest import record_acceptance
from oracles import (
    HAND_DENSITY_GATE,
    HAND_LAMBDA,
    HAND_LAMBDA_NO_INTERACTION,
    HAND_LAMBDA_PAIR,
    direct_control_energy,
    direct_convolution,
    direct_pair_density,
    direct_reaction,
    fit_geometric_rate,
    sampling_noise_l1,
)


def verdict(number: int, label: str, checks: list[tuple[str, bool]]) -> None:
    """Record one PASS/FAIL line, then fail the test if any check failed."""
    passed = all(ok for _, ok in checks)
    record_acceptance(f"criterion {number:2d} {'PASS' if passed else 'FAIL'}  {label}")
    failed = [name for name, ok in checks if not ok]
    assert not failed, f"criterion {number} ({label}) failed: {failed}"


def monotone_tail_start(seq: list[float]) -> int:
    """Index after which the sequence never increases."""
    i0 = len(seq) - 1
    while i0 > 0 and seq[i0] <= seq[i0 - 1]:
        i0 -= 1
    return i0


def benchmark_checks(sol, seconds: float) -> list[tuple[str, bool]]:
    trace = sol.trace
    cfg = sol.config
    d = trace.outer_dh
    i0 = monotone_tail_start(d)
    return [
        ("converged", sol.converged),
        ("within outer budget", trace.outer_iterations <= cfg.n1),
        ("initial endpoint residual",
         l1_distance(sol.p[0], sol.p_in, cfg.sgrid) <= 1e-3),
        ("final endpoint residual",
         l1_distance(sol.p[-1], sol.p_fin, cfg.sgrid) <= 1e-3),
        ("outer distances eventually decrease",
         len(d) - i0 >= 3 and i0 <= len(d) // 2),
        ("fitted outer rate below one", fit_geometric_rate(d) < 1.0),
        ("runtime within five minutes", seconds <= 300.0),
    ]


@pytest.fixture(scope="module")
def closed_loop(example1_run, example2_run, example1_config, example2_config):
    """Closed-loop density propagation reports for both benchmarks."""
    out = {}
    for name, (sol, _), cfg in (
        ("repulsive", example1_run, example1_config),
        ("attractive", example2_run, example2_config),
    ):
        path, report = propagate_density(
            sol.p_in, sol.u, cfg.kernel_table, cfg.sigma, cfg.sgrid, cfg.tgrid
        )
        report["terminal_l1"] = l1_distance(path[-1], sol.p_fin, cfg.sgrid)
        out[name] = report
    return out


def test_repulsive_kernel_benchmark(example1_run):
    sol, seconds = example1_run
    verdict(1, "repulsive-kernel benchmark reproduction",
            benchmark_checks(sol, seconds))


def test_attractive_kernel_benchmark(example2_run):
    sol, seconds = example2_run
    verdict(2, "attractive-kernel benchmark reproduction",
            benchmark_checks(sol, seconds))


def test_reduction_to_noninteracting_bridge(example1_config):
    cfg = SolverConfig(
        sigma2=0.2,
        theta=1.0,
        tol=1e-10,
        potential=PotentialSpec(kind="zero"),
        marginal_in=example1_config.marginal_in,
        marginal_fin=example1_config.marginal_fin,
        n1=20,
    )
    sol = solve(cfg)
    p_ref, pair_ref, _ = classical_bridge_init(
        sol.p_in, sol.p_fin, cfg.sigma, cfg.sgrid, cfg.tgrid, tol=1e-11
    )

    def pairing_drift(pair: PairPath) -> float:
        s = cfg.sgrid.h * pair.product.sum(axis=1)
        return float(np.abs(s - s[0]).max() / s[0])

    verdict(3, "interaction-free solve equals the classical bridge", [
        ("solver converged", sol.converged),
        ("density path matches the bridge",
         path_distance(sol.p, p_ref) <= 1e-8),
        ("solver pairing constant in time", pairing_drift(sol.pair) <= 1e-9),
        ("bridge pairing constant in time", pairing_drift(pair_ref) <= 1e-9),
    ])


def test_closed_loop_and_particle_verification(
    closed_loop, example1_run, example2_run, example1_config, example2_config
):
    checks = []
    for name, report in closed_loop.items():
        checks.append(
            (f"{name} pde terminal residual", report["terminal_l1"] <= 0.02)
        )
    ladder_sizes = (1_000, 10_000, 100_000)
    for name, (sol, _), cfg in (
        ("repulsive", example1_run, example1_config),
        ("attractive", example2_run, example2_config),
    ):
        residuals = []
        for n in ladder_sizes:
            positions = simulate(
                sol.u, cfg.kernel_table, sol.p_in, cfg.sigma,
                n, cfg.seed, cfg.sgrid, cfg.tgrid,
            )
            residuals.append(terminal_residual(positions, sol.p_fin, cfg.sgrid))
        checks.append((f"{name} particle residual at 1e5", residuals[-1] <= 0.05))
        for i in range(len(ladder_sizes) - 1):
            noise = sampling_noise_l1(sol.p_fin, cfg.sgrid, ladder_sizes[i])
            checks.append((
                f"{name} ladder step {ladder_sizes[i]}->{ladder_sizes[i + 1]}",
                residuals[i + 1] <= residuals[i] + 2.0 * noise,
            ))
    verdict(4, "closed-loop density and particle verification", checks)


def test_projective_metric_property_suite():
    rng = np.random.Generator(np.random.Philox(20260815))
    slack = 1e-10
    trials = 1000
    violations = {
        "projectivity": 0,
        "symmetry": 0,
        "triangle": 0,
        "product subadditivity": 0,
        "log-sup bound": 0,
        "equal-mass l1 bound": 0,
    }
    grids = {n: SpatialGrid(-2.0, 2.0, n) for n in (8, 16, 33, 64)}
    for _ in range(trials):
        n = int(rng.integers(8, 65))
        spread = rng.uniform(0.5, 3.0)
        f, g, k, f2, g2 = (
            np.exp(rng.uniform(-spread, spread, size=n)) for _ in range(5)
        )
        c, c2 = np.exp(rng.uniform(-2.0, 2.0, size=2))
        d_fg = hilbert_distance(f, g)
        if abs(hilbert_distance(c * f, c2 * g) - d_fg) > slack:
            violations["projectivity"] += 1
        if abs(hilbert_distance(g, f) - d_fg) > slack:
            violations["symmetry"] += 1
        if d_fg > hilbert_distance(f, k) + hilbert_distance(k, g) + slack:
            violations["triangle"] += 1
        if (
            hilbert_distance(f * f2, g * g2)
            > d_fg + hilbert_distance(f2, g2) + slack
        ):
            violations["product subadditivity"] += 1
        if d_fg > 2.0 * np.abs(np.log(f) - np.log(g)).max() + slack:
            violations["log-sup bound"] += 1
        grid = grids[min(grids, key=lambda m: abs(m - n))]
        m = grid.n_x
        fn = normalize(np.exp(rng.uniform(-spread, spread, size=m)), grid)
        gn = normalize(np.exp(rng.uniform(-spread, spread, size=m)), grid)
        bound = math.expm1(hilbert_distance(fn, gn))
        if l1_distance(fn, gn, grid) > bound + slack:
            violations["equal-mass l1 bound"] += 1
    verdict(5, "projective metric property battery (1000 trials each)",
            [(name, count == 0) for name, count in violations.items()])


def test_fast_paths_match_direct_oracles(rng):
    checks = []

    worst_conv = 0.0
    specs = (
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3),
        PotentialSpec(kind="power_repulsive", c=5.0, alpha=0.2, epsilon=0.01),
    )
    for n in range(8, 129):
        grid = SpatialGrid(-2.0, 2.0, n)
        f = np.exp(rng.uniform(-2.0, 2.0, size=n))
        for spec in specs:
            table = eval_potential(spec, grid)
            fast = convolve(table, f)
            direct = direct_convolution(table.w, f, grid.h)
            worst_conv = max(
                worst_conv,
                float(np.abs(fast - direct).max() / np.abs(direct).max()),
            )
    checks.append(("convolution vs direct double sum", worst_conv <= 1e-10))

    grid = SpatialGrid(-2.0, 2.0, 64)
    table = eval_potential(
        PotentialSpec(kind="gaussian_attractive", a=1.0, s=0.3), grid
    )
    worst_reaction = 0.0
    for _ in range(5):
        xi = np.exp(rng.uniform(-1.0, 1.0, size=64))
        p = normalize(np.exp(rng.uniform(-1.0, 1.0, size=64)), grid)
        fast = reaction_term_path(table, xi[None], p[None])[0]
        direct = direct_reaction(table.grad_w, xi, p, grid.h)
        worst_reaction = max(worst_reaction, float(np.abs(fast - direct).max()))
    checks.append(("reaction profile vs direct quadrature", worst_reaction <= 1e-8))

    tgrid = TimeGrid(6)
    shape = (tgrid.n_t + 1, grid.n_x)
    u = rng.normal(size=shape)
    p_path = normalize(np.exp(rng.normal(size=shape) * 0.4), grid)
    cost = control_energy(u, p_path, grid, tgrid)
    cost_direct = direct_control_energy(u, p_path, grid.h, tgrid.dt)
    checks.append((
        "control energy vs direct quadrature",
        abs(cost - cost_direct) <= 1e-12 * abs(cost_direct),
    ))

    pair = PairPath(
        phi=np.exp(rng.normal(size=shape) * 0.4),
        phihat=np.exp(rng.normal(size=shape) * 0.4),
    )
    refined = _refined_density(p_path, pair.product, table, grid)[0]
    refined_direct = direct_pair_density(table.w, p_path, pair.phi, pair.phihat, grid.h)
    rel = float(
        np.abs(refined - refined_direct).max() / np.abs(refined_direct).max()
    )
    checks.append(("density refinement vs direct evaluation", rel <= 1e-12))

    verdict(6, "fast numeric paths match direct oracles", checks)


def test_positivity_and_mass_conservation(closed_loop, example1_run, example2_run):
    checks = []
    for name, (sol, _) in (
        ("repulsive", example1_run), ("attractive", example2_run)
    ):
        trace = sol.trace
        checks.append((f"{name} backward scaling stays positive", trace.min_phi > 0.0))
        checks.append(
            (f"{name} forward scaling stays positive", trace.min_phihat > 0.0)
        )
        checks.append((f"{name} density stays positive", trace.min_density > 0.0))
    for name, report in closed_loop.items():
        checks.append((
            f"{name} propagation mass drift per step",
            report["mass_drift_max"] <= 1e-10,
        ))
        checks.append((
            f"{name} propagated density nonnegative", report["min_density"] >= 0.0
        ))
    verdict(7, "positivity and mass conservation", checks)


def test_scaling_invariances(example1_run, example1_config, rng):
    sol, _ = example1_run
    cfg = example1_config
    sgrid = cfg.sgrid
    c = 3.0
    scaled = PairPath(phi=c * sol.pair.phi, phihat=sol.pair.phihat / c)

    u_base = optimal_control(sol.pair, cfg.sigma, sgrid)
    u_scaled = optimal_control(scaled, cfg.sigma, sgrid)

    refined_base = _refined_density(sol.p, sol.pair.product, cfg.kernel_table, sgrid)[0]
    refined_scaled = _refined_density(sol.p, scaled.product, cfg.kernel_table, sgrid)[0]

    cost_base = control_energy(u_base, sol.p, sgrid, cfg.tgrid)
    cost_scaled = control_energy(u_scaled, sol.p, sgrid, cfg.tgrid)

    table = cfg.kernel_table
    xi = np.exp(rng.uniform(-1.0, 1.0, size=sgrid.n_x))
    p = normalize(np.exp(rng.uniform(-1.0, 1.0, size=sgrid.n_x)), sgrid)
    q_base = reaction_term_path(table, xi[None], p[None])[0]
    q_scaled = reaction_term_path(table, 3.7 * xi[None], p[None])[0]

    verdict(8, "scaling invariances of control, refinement, and reaction", [
        ("control ignores pair rescaling",
         float(np.abs(u_scaled - u_base).max())
         <= 1e-12 * float(np.abs(u_base).max())),
        ("density refinement ignores pair rescaling",
         float(np.abs(refined_scaled - refined_base).max()
               / np.abs(refined_base).max()) <= 1e-12),
        ("cost ignores pair rescaling",
         abs(cost_scaled - cost_base) <= 1e-12 * cost_base),
        ("reaction profile ignores field rescaling",
         float(np.abs(q_scaled - q_base).max()) <= 1e-12),
    ])


def test_rate_bound_constants():
    params = dict(
        sigma2=0.2, beta=0.01,
        w_norm=1.0, grad_w_norm=1.0, lap_w_norm=1.0,
        r=0.1, a1=1.0, a2=1.0, a3=1.0, c1=0.01, c2=0.01,
    )
    out = contraction_constants(dict(params, m1=0.1, m2=0.1, m3=0.1, m4=0.1))
    out_free = contraction_constants(dict(params, beta=0.0))
    gate_rejected = False
    try:
        contraction_constants(dict(params, beta=100.0))
    except DomainError:
        gate_rejected = True
    verdict(9, "a-priori rate constants match hand evaluation", [
        ("density-map constant",
         abs(out["lambda_density"] - HAND_LAMBDA) <= 1e-12 * HAND_LAMBDA),
        ("density-map gate",
         abs(out["density_gate"] - HAND_DENSITY_GATE) <= 1e-12 * HAND_DENSITY_GATE),
        ("interaction-free constant",
         abs(out_free["lambda_density"] - HAND_LAMBDA_NO_INTERACTION)
         <= 1e-12 * HAND_LAMBDA_NO_INTERACTION),
        ("pair-map constant",
         abs(out["lambda_pair"] - HAND_LAMBDA_PAIR) <= 1e-12 * HAND_LAMBDA_PAIR),
        ("violated precondition rejected", gate_rejected),
    ])


def test_byte_identical_reruns(tmp_path):
    first = run("example2", tmp_path / "a", verify=True)
    second = run("example2", tmp_path / "b", verify=True)
    names = ("densities.csv", "control.csv", "pair.csv", "trace.json")
    checks = [("both runs converged",
               first["status"] == "converged" and second["status"] == "converged")]
    for name in names:
        same = (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
        checks.append((f"{name} byte-identical", same))
    checks.append(("verification reports equal",
                   first["verification"] == second["verification"]))
    verdict(10, "identical config and seed reproduce artifacts byte for byte",
            checks)
