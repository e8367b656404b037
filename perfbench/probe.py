"""Run one ``mfsb`` command in this interpreter and record spans around it.

Usage: python probe.py SPANS_JSON MODE -- MFSB_ARGS...

The probe imports ``mfsb.cli`` from the checkout's ``src`` (put it on
PYTHONPATH), replaces chosen functions by timing wrappers, calls
``mfsb.cli.main(MFSB_ARGS)`` and exits with its return code. A wrapper goes
where the caller looks the name up: every ``mfsb`` submodule other than the
one that defines the function gets the wrapper, so a span marks a call that
crosses a module boundary. ``cli.run``, ``cli.read_pair_csv`` and
``solver.classical_bridge_init`` are also called from inside their own
module and are wrapped there too.

With MODE 0 only the calls that split a run into set-up, solve, verify and
write are wrapped (a handful of calls per run). With MODE 1 every layer in
``LAYERS`` is wrapped as well. MODE setup wraps the phase calls and stops the
command when it calls ``solve``, so that only its set-up (import, config and
pair reads) runs; the probe then exits 0. Spans (name, start, end, parent) are kept in
memory and written to SPANS_JSON when the command returns. All times are
CLOCK_MONOTONIC seconds, the clock the launching process also reads, so the
two can be compared.
"""

import json
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# (defining module, name, also wrap inside the defining module, argument
# whose leading dimension counts convolved rows)
PHASES = [
    ("mfsb.config", "load_config", False, None),
    ("mfsb.cli", "read_pair_csv", True, None),
    ("mfsb.solver", "solve", False, None),
    ("mfsb.kolmogorov", "propagate_density", False, None),
    ("mfsb.particles", "simulate", False, None),
    ("mfsb.particles", "terminal_residual", False, None),
    ("mfsb.cli", "run", True, None),
]

LAYERS = [
    ("mfsb.solver", "classical_bridge_init", True, None),
    ("mfsb.sinkhorn", "inner_sinkhorn", False, None),
    ("mfsb.sinkhorn", "freeze_problem", False, None),
    ("mfsb.kolmogorov", "TransportOperators", False, None),
    ("mfsb.kolmogorov", "integrate_backward", False, None),
    ("mfsb.kolmogorov", "integrate_forward", False, None),
    ("mfsb.potentials", "reaction_term_path", False, 1),
    ("mfsb.potentials", "mean_field_drift_path", False, 1),
    ("mfsb.potentials", "mean_field_drift", False, 1),
    ("mfsb.potentials", "convolve_path", False, 1),
    ("mfsb.potentials", "convolve", False, 1),
    ("mfsb.metrics", "hilbert_distance", False, None),
    ("mfsb.metrics", "pair_distance", False, None),
    ("mfsb.metrics", "path_distance", False, None),
]


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.convolved_rows = 0

    def wrap(self, name, fn, rows_arg):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if rows_arg is not None:
                shape = getattr(args[rows_arg], "shape", ())
                self.convolved_rows += shape[0] if len(shape) == 2 else 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return wrapper

    def install(self, targets):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name.startswith("mfsb.") and mod is not None
        }
        for home, attr, own, rows_arg in targets:
            original = getattr(modules[home], attr)
            span_name = f"{home.split('.', 1)[1]}.{attr}"
            wrapper = self.wrap(span_name, original, rows_arg)
            sites = [
                mod for name, mod in modules.items()
                if (own or name != home) and getattr(mod, attr, None) is original
            ]
            if not sites:
                raise SystemExit(f"probe: no caller of {home}.{attr} to wrap")
            for mod in sites:
                setattr(mod, attr, wrapper)


class SetupDone(BaseException):
    """Raised in place of ``solve`` in setup mode; BaseException, so that no
    handler in ``mfsb`` catches it."""


def stop_at_solve(*args, **kwargs):
    raise SetupDone


def main(argv) -> int:
    spans_path, mode = argv[0], argv[1]
    if mode not in ("0", "1", "setup") or argv[2] != "--":
        raise SystemExit("usage: probe.py SPANS_JSON 0|1|setup -- MFSB_ARGS...")
    t0 = clock()
    import mfsb  # noqa: F401

    t1 = clock()
    import mfsb.cli

    recorder = Recorder()
    recorder.install(PHASES + (LAYERS if mode == "1" else []))
    if mode == "setup":
        mfsb.cli.solve = stop_at_solve
    try:
        rc = mfsb.cli.main(argv[3:])
    except SetupDone:
        rc = 0
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "import_s": t1 - t0,
                "spans": recorder.spans,
                "convolved_rows": recorder.convolved_rows,
            },
            fh,
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
