"""End-to-end and per-layer benchmark of ``mfsb run``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ex1-cold --seed 0 --seconds 40 --trace 0

Each operation is one ``mfsb run`` in a fresh interpreter, launched through
probe.py with the checkout's ``src`` on PYTHONPATH. Operations run one at a
time, in whole rounds, until --seconds have passed; every operation's
artifacts are checked by checks.py. Before them, an untraced run makes
SETUP_SAMPLES launches that stop at the command's call of solve, for more
samples of setup_s. With --trace 0 the last line of stdout
is a JSON object holding the median end-to-end metrics; with --trace 1 a round
is one untraced and one traced operation, and the JSON holds the per-layer
metrics of the traced ones. --seed becomes the config's particle seed; it is
the only input that varies. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# the checks' numpy runs between operations; one BLAS thread keeps idle
# workers of this process from spinning while the next operation runs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
OP_TIMEOUT_S = 150.0
# set-up-only launches an untraced run makes before its operations; setup_s is
# the median over these and the operations' own set-up phases
SETUP_SAMPLES = 4

# workload -> (bundled config, config keys the benchmark overrides, resume)
WORKLOADS = {
    "ex1-cold": ("example1", {}, False),
    "ex1-resume": ("example1", {"verify.N": "1000"}, True),
}

# write_s is measured with the others but reported only as the per-layer
# cli.write.s: its spread between runs of the same code reaches the largest
# bound an end-to-end metric may have (see README.md)
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "peak_rss_mb": "MiB",
}

# per-layer metric -> (unit, span name, statistic); statistics read spans,
# the rest are computed in layer_metrics()
SPAN_METRICS = {
    "solver.solve.self_s": ("s", "solver.solve", "self"),
    "solver.classical_bridge_init.calls": ("count", "solver.classical_bridge_init", "calls"),
    "sinkhorn.inner_sinkhorn.calls": ("count", "sinkhorn.inner_sinkhorn", "calls"),
    "sinkhorn.inner_sinkhorn.self_s": ("s", "sinkhorn.inner_sinkhorn", "self"),
    "sinkhorn.freeze_problem.calls": ("count", "sinkhorn.freeze_problem", "calls"),
    "sinkhorn.freeze_problem.self_s": ("s", "sinkhorn.freeze_problem", "self"),
    "kolmogorov.integrate_backward.calls": ("count", "kolmogorov.integrate_backward", "calls"),
    "kolmogorov.integrate_backward.self_s": ("s", "kolmogorov.integrate_backward", "self"),
    "kolmogorov.integrate_forward.calls": ("count", "kolmogorov.integrate_forward", "calls"),
    "kolmogorov.integrate_forward.self_s": ("s", "kolmogorov.integrate_forward", "self"),
    "kolmogorov.TransportOperators.calls": ("count", "kolmogorov.TransportOperators", "calls"),
    "kolmogorov.TransportOperators.s": ("s", "kolmogorov.TransportOperators", "total"),
    "kolmogorov.propagate_density.s": ("s", "kolmogorov.propagate_density", "total"),
    "potentials.reaction_term_path.calls": ("count", "potentials.reaction_term_path", "calls"),
    "potentials.reaction_term_path.s": ("s", "potentials.reaction_term_path", "total"),
    "potentials.mean_field_drift_path.calls": ("count", "potentials.mean_field_drift_path", "calls"),
    "potentials.mean_field_drift_path.s": ("s", "potentials.mean_field_drift_path", "total"),
    "metrics.hilbert_distance.calls": ("count", "metrics.hilbert_distance", "calls"),
    "metrics.hilbert_distance.s": ("s", "metrics.hilbert_distance", "total"),
    "metrics.pair_distance.calls": ("count", "metrics.pair_distance", "calls"),
    "metrics.pair_distance.s": ("s", "metrics.pair_distance", "total"),
    "metrics.path_distance.calls": ("count", "metrics.path_distance", "calls"),
    "metrics.path_distance.s": ("s", "metrics.path_distance", "total"),
    "particles.simulate.s": ("s", "particles.simulate", "total"),
}
OTHER_LAYER_UNITS = {
    "import.s": "s",
    "cli.load.s": "s",
    "cli.read_pair_csv.calls": "count",
    "solver.start.s": "s",
    "solver.outer_iterations": "count",
    "sinkhorn.inner_iterations": "count",
    "sinkhorn.middle_exhausted": "count",
    "kolmogorov.slice_solves": "count",
    "potentials.convolved_rows": "count",
    "particles.steps_per_s": "1/s",
    "cli.write.s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}
COUNT_METRICS = {name for name, (unit, _, _) in SPAN_METRICS.items() if unit == "count"} | {
    name for name, unit in OTHER_LAYER_UNITS.items() if unit in ("count", "bytes")
}


def clock() -> float:
    """CLOCK_MONOTONIC, the clock probe.py stamps its spans with."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # fixed string hashing, so that dict and set layouts repeat between operations
    env["PYTHONHASHSEED"] = "0"
    # one native thread, so that the operation keeps to one core: on the
    # 2-vCPU reference VM a loop runs slower while the other vCPU is busy, and
    # idle BLAS workers spin on it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(cmd: list[str], log: Path, env: dict) -> tuple[int, float, float, float]:
    """Run cmd to completion; returns (exit code, launch time, exit time, peak
    RSS in MiB)."""
    with open(log, "wb") as fh:
        t0 = clock()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t1 = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024.0


def with_keys(text: str, keys: dict[str, str]) -> str:
    """Config text with the given keys set, replacing existing lines."""
    lines = [
        line for line in text.splitlines()
        if line.split("#", 1)[0].split("=", 1)[0].strip() not in keys
    ]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def cold_pair(env: dict, checks) -> tuple[Path, dict]:
    """Untimed cold example1 solve of the code under test, kept per source digest."""
    cache = WORK / "cache"
    dest = cache / f"example1-{source_digest()}"
    cfg = SRC / "mfsb" / "configs" / "example1.cfg"
    if not (dest / "manifest.json").is_file():
        shutil.rmtree(cache, ignore_errors=True)
        tmp = cache / f"tmp-{os.getpid()}"
        tmp.mkdir(parents=True)
        rc = launch(
            [sys.executable, "-m", "mfsb.cli", "run", str(cfg), "--no-verify", "--out", str(tmp)],
            cache / "cold.log", env,
        )[0]
        if rc != 0:
            raise SystemExit(f"cold example1 run failed with exit code {rc}")
        tmp.rename(dest)
    fails, facts = checks.check_run(checks.Problem(cfg), dest, verified=False)
    if fails:
        raise SystemExit("cold example1 run is wrong: " + "; ".join(fails))
    return dest / "pair.csv", facts


class SpanTable:
    """Calls, inclusive and self seconds per span name, plus phase boundaries."""

    def __init__(self, spans):
        self.spans = spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.stats: dict[str, list] = {}
        for (name, start, end, _), inner in zip(spans, child):
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner

    def get(self, name: str, stat: str) -> float:
        calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return {"calls": calls, "total": total, "self": self_s}[stat]

    def ends(self, *names: str) -> list[float]:
        return [end for name, _, end, _ in self.spans if name in names]

    def starts(self, name: str) -> list[float]:
        return [start for n, start, _, _ in self.spans if n == name]


def setup_time(argv: list[str], out: Path, env: dict) -> float | None:
    """Seconds from launch to the end of set-up of one probe-launched `mfsb`
    command stopped at its call of solve; None if it failed."""
    out.mkdir(parents=True)
    spans_file = out / "spans.json"
    rc, t_launch, _, _ = launch(
        [sys.executable, str(HERE / "probe.py"), str(spans_file), "setup", "--", *argv],
        out / "probe.log", env,
    )
    if rc != 0 or not spans_file.is_file():
        return None
    table = SpanTable(json.loads(spans_file.read_text())["spans"])
    return max(table.ends("config.load_config", "cli.read_pair_csv")) - t_launch


def run_op(argv: list[str], out: Path, trace: bool, env: dict) -> dict:
    """One probe-launched `mfsb` command; its "times" are missing if it failed."""
    out.mkdir(parents=True)
    spans_file = out / "spans.json"
    rc, t_launch, t_exit, rss = launch(
        [sys.executable, str(HERE / "probe.py"), str(spans_file), "1" if trace else "0", "--", *argv],
        out / "probe.log", env,
    )
    op = {"rc": rc, "out": out}
    if rc != 0 or not spans_file.is_file():
        return op
    probe = json.loads(spans_file.read_text())
    table = SpanTable(probe["spans"])
    setup_end = max(table.ends("config.load_config", "cli.read_pair_csv"))
    solve_end = max(table.ends("solver.solve"))
    verify_end = max(table.ends("particles.terminal_residual"))
    run_end = max(table.ends("cli.run"))
    op.update(
        table=table,
        import_s=probe["import_s"],
        convolved_rows=probe["convolved_rows"],
        times={
            "wall_s": t_exit - t_launch,
            "setup_s": setup_end - t_launch,
            "solve_s": table.get("solver.solve", "total"),
            "verify_s": verify_end - solve_end,
            "write_s": run_end - verify_end,
            "peak_rss_mb": rss,
        },
    )
    return op


def layer_metrics(op: dict, cfg_raw: dict, n_t: int) -> dict:
    table, trace = op["table"], op["facts"]["trace"]
    out = {name: table.get(span, stat) for name, (_, span, stat) in SPAN_METRICS.items()}
    n2 = int(cfg_raw.get("N2", 50))
    tol = float(cfg_raw["tol"])
    sweeps = out["kolmogorov.integrate_backward.calls"] + out["kolmogorov.integrate_forward.calls"]
    first_drift = min(table.starts("potentials.mean_field_drift_path"))
    out.update({
        "import.s": op["import_s"],
        "cli.load.s": table.get("config.load_config", "total") + table.get("cli.read_pair_csv", "total"),
        "cli.read_pair_csv.calls": table.get("cli.read_pair_csv", "calls"),
        "solver.start.s": first_drift - min(table.starts("solver.solve")),
        "solver.outer_iterations": trace["outer_iterations"],
        "sinkhorn.inner_iterations": sum(map(sum, trace["inner_iterations"])),
        "sinkhorn.middle_exhausted": sum(
            1 for seq in trace["middle_dh"] if len(seq) >= n2 and seq[-1] >= tol
        ),
        "kolmogorov.slice_solves": sweeps * n_t,
        "potentials.convolved_rows": op["convolved_rows"],
        "particles.steps_per_s": int(cfg_raw.get("verify.N", 100_000)) * n_t
        / out["particles.simulate.s"],
        "cli.write.s": op["times"]["write_s"],
        "cli.artifact_bytes": sum(
            (op["out"] / name).stat().st_size
            for name in ("densities.csv", "control.csv", "pair.csv")
        ),
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfsb" / "cli.py").is_file():
        print(f"error: no mfsb sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import checks

    config_name, overrides, resume = WORKLOADS[args.workload]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    bundled = (SRC / "mfsb" / "configs" / f"{config_name}.cfg").read_text()
    cfg = workdir / f"{config_name}.cfg"
    cfg.write_text(with_keys(bundled, {**overrides, "seed": str(args.seed)}))
    problem = checks.Problem(cfg)
    cfg_raw = checks.read_config(cfg)

    # compile .pyc files and load the libraries into the page cache untimed
    rc = launch([sys.executable, "-c", "import mfsb.cli"], workdir / "warmup.log", env)[0]
    if rc != 0:
        print(f"error: importing mfsb.cli failed, see {workdir / 'warmup.log'}", file=sys.stderr)
        return 1
    mfsb_argv = ["run", str(cfg)]
    cold = None
    if resume:
        pair_csv, cold = cold_pair(env, checks)
        mfsb_argv += ["--warm-start", str(pair_csv)]

    setups, setup_failed = [], 0
    for i in range(0 if args.trace else SETUP_SAMPLES):
        out = workdir / f"setup{i}"
        seconds = setup_time(mfsb_argv + ["--out", str(out)], out, env)
        if seconds is None:
            setup_failed += 1
            print(f"setup {i}: failed, see {out / 'probe.log'}")
        else:
            setups.append(seconds)
            print(f"setup {i}: setup_s={seconds:.4f}")

    round_kinds = [False, True] if args.trace else [False]
    ops, failures = [], []
    t_start = clock()
    while not ops or clock() - t_start < args.seconds:
        for traced in round_kinds:
            out = workdir / f"op{len(ops)}"
            op = run_op(mfsb_argv + ["--out", str(out)], out, traced, env)
            op["traced"] = traced
            ops.append(op)
            if "times" not in op:
                print(f"op {len(ops) - 1}: failed with exit code {op['rc']}")
                continue
            fails, facts = checks.check_run(problem, out, verified=True)
            if cold is not None:
                fails += checks.check_agreement(facts, cold)
            op["facts"] = facts
            failures += fails
            print(
                f"op {len(ops) - 1}{' traced' if traced else ''}: "
                + " ".join(f"{k}={v:.4f}" for k, v in op["times"].items())
                + (" WRONG: " + "; ".join(fails) if fails else " ok")
            )

    done = [op for op in ops if "times" in op]
    failed = len(ops) - len(done) + setup_failed
    plain = [op for op in done if not op["traced"]]
    traced = [op for op in done if op["traced"]]
    if not plain or (args.trace and not traced):
        print("error: no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        rows = [layer_metrics(op, cfg_raw, problem.n_t) for op in traced]
        units = {name: unit for name, (unit, _, _) in SPAN_METRICS.items()} | OTHER_LAYER_UNITS
        values = {}
        for name in units:
            if name == "trace.overhead_s":
                continue
            seq = [row[name] for row in rows]
            if name in COUNT_METRICS and len(set(seq)) != 1:
                failures.append(f"{name} differs between traced operations: {seq}")
            values[name] = statistics.median(seq)
        values["trace.overhead_s"] = statistics.median(
            op["times"]["wall_s"] for op in traced
        ) - statistics.median(op["times"]["wall_s"] for op in plain)
    else:
        units = END_TO_END
        values = {name: statistics.median(op["times"][name] for op in plain) for name in units}
        values["setup_s"] = statistics.median(setups + [op["times"]["setup_s"] for op in plain])
    for line in failures:
        print(f"check failed: {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops) + len(setups) + setup_failed,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
