"""Spans around calls into volsurf's modules, and their reduction to the
per-layer metrics.

`Tracer.install` replaces public functions by wrappers in the namespace the
calling module reads them from (`volsurf.cli.record`, not
`volsurf.diagnostics.record`), so no file under `src/` changes. Spans are kept
in memory and written out once the command has returned. This module imports
nothing from numpy or volsurf, so importing it does not shift the import time
that the child measures.
"""

import importlib
import itertools
import json
import threading
import time

COMMANDS = ("cmd_simulate", "cmd_monotone", "cmd_sweep")

# (module, attribute, span name) of every plain wrapper; the command, the
# integrator and the calls whose results carry counts are wrapped separately
PLAIN = (
    ("volsurf.cli", "build_interval", "grid.build"),
    ("volsurf.cli", "build_periodic_strip", "grid.build"),
    ("volsurf.cli", "build_polar_disk", "grid.build"),
    ("volsurf.cli", "fit_rate", "diagnostics.fit_rate"),
    ("volsurf.cli", "write_series_csv", "diagnostics.csv_write"),
    ("volsurf.cli", "write_state_csv", "cli.write_state"),
    ("volsurf.cli", "check_sandwich", "monotone.check_sandwich"),
    ("volsurf.diagnostics", "mass", "diagnostics.observable"),
    ("volsurf.diagnostics", "entropy", "diagnostics.observable"),
    ("volsurf.diagnostics", "dissipation", "diagnostics.observable"),
    ("volsurf.diagnostics", "entropy_decomposition", "diagnostics.observable"),
    ("volsurf.diagnostics", "solve_equilibrium", "model.equilibrium"),
    ("volsurf.monotone", "linear_bulk_step", "stepper.linear_step"),
    ("volsurf.monotone", "linear_surface_step", "stepper.linear_step"),
    ("volsurf.monotone", "shifted_f", "model.shifted_source"),
    ("volsurf.monotone", "shifted_g", "model.shifted_source"),
    ("volsurf.linsolve", "assemble_shifted", "linsolve.assemble"),
    ("scipy.sparse.linalg", "splu", "splu"),
)

# name, unit of every per-layer metric, in report order
LAYER_METRICS = (
    ("cli.import_s", "s"),
    ("grid.build_s", "s"),
    ("stepper.integrate_s", "s"),
    ("stepper.steps", "count"),
    ("stepper.newton_factorizations", "count"),
    ("stepper.factor_s", "s"),
    ("stepper.linear_steps", "count"),
    ("stepper.linear_step_s", "s"),
    ("linsolve.solves", "count"),
    ("linsolve.solve_s", "s"),
    ("linsolve.assemble_s", "s"),
    ("linsolve.cg_solves", "count"),
    ("linsolve.direct_solves", "count"),
    ("linsolve.cg_iterations", "count"),
    ("model.shifted_source_s", "s"),
    ("monotone.sweeps", "count"),
    ("monotone.iterate_mb", "MB"),
    ("monotone.sandwich_check_s", "s"),
    ("diagnostics.rows", "count"),
    ("diagnostics.observer_s", "s"),
    ("diagnostics.fit_rate_s", "s"),
    ("model.equilibrium_s", "s"),
    ("diagnostics.csv_write_s", "s"),
    ("cli.write_s", "s"),
    ("cli.sweep_worker_busy_s", "s"),
    ("trace.run_s", "s"),       # median run_s of the traced operations
    ("trace.overhead_s", "s"),  # trace.run_s minus that of the untraced ones
)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span and
    the command's id. Spans opened on a thread with no open span (the sweep's
    pool threads) get the command span as parent."""

    def __init__(self, command_id):
        self.command_id = command_id
        self.spans = []
        self.root = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()

    def call(self, name, fn, args, kwargs, counts=None, root=False):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        if root:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        span = {"cmd": self.command_id, "id": sid, "parent": parent,
                "name": name, "start": start, "end": end,
                "main_thread": threading.get_ident() == self._main}
        if counts is not None:
            span["counts"] = counts(result)
        self.spans.append(span)
        return result

    def span(self, name, start, end):
        """Record a span timed by the caller (the import of volsurf.cli)."""
        self.spans.append({"cmd": self.command_id, "id": next(self._ids),
                           "parent": None, "name": name, "start": start,
                           "end": end, "main_thread": True})

    def _wrap(self, name, fn, counts=None, root=False):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, counts, root)
        return wrapper

    def _wrap_integrate(self, fn):
        def wrapper(*args, observer=None, **kwargs):
            steps = [0]

            def observed(state):
                steps[0] += 1
                if observer is not None:
                    self.call("diagnostics.observer", observer, (state,), {})

            return self.call("stepper.integrate", fn, args,
                             dict(kwargs, observer=observed),
                             counts=lambda _: {"steps": steps[0]})
        return wrapper

    def install(self):
        def patch(module, attr, wrapper):
            mod = importlib.import_module(module)
            setattr(mod, attr, wrapper(getattr(mod, attr)))

        for module, attr, name in PLAIN:
            patch(module, attr, lambda fn, name=name: self._wrap(name, fn))
        for attr in COMMANDS:
            patch("volsurf.cli", attr,
                  lambda fn: self._wrap("cli.command", fn, root=True))
        patch("volsurf.cli", "record", lambda fn: self._wrap(
            "diagnostics.record", fn, counts=lambda s: {"rows": len(s)}))
        patch("volsurf.cli", "run_monotone", lambda fn: self._wrap(
            "monotone.run", fn, counts=_monotone_counts))
        patch("volsurf.linsolve", "solve", lambda fn: self._wrap(
            "linsolve.solve", fn, counts=_solve_counts))
        patch("volsurf.diagnostics", "integrate", self._wrap_integrate)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _monotone_counts(result):
    report = result[1]
    stacks = (report.lower_u, report.lower_v, report.upper_u, report.upper_v)
    return {"sweeps": report.k_final,
            "iterate_bytes": sum(a.nbytes for s in stacks for a in s)}


def _solve_counts(result):
    stats = result[1]
    cg = stats.method.value == "conjugate_gradient"
    return {"cg": int(cg), "iterations": stats.iterations if cg else 0}


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def reduce_command(spans):
    """Per-layer metrics of one command from its spans."""
    by_id = {s["id"]: s for s in spans}
    children, by_name = {}, {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
        by_name.setdefault(s["name"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s, only=None):
        kids = [(k["start"], k["end"]) for k in children.get(s["id"], ())
                if only is None or k["name"] == only]
        return dur(s) - _covered(kids, s["start"], s["end"])

    def ancestor(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] in ("stepper.integrate", "linsolve.solve"):
                return s["name"]
        return None

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(dur(s) for s in named(name))

    def count(name, key):
        return sum(s["counts"][key] for s in named(name))

    newton = [s for s in named("splu") if ancestor(s) == "stepper.integrate"]
    solves = named("linsolve.solve")
    command = named("cli.command")
    return {
        "cli.import_s": total("cli.import"),
        "grid.build_s": total("grid.build"),
        "stepper.integrate_s": sum(self_time(s, "diagnostics.observer")
                                   for s in named("stepper.integrate")),
        "stepper.steps": count("stepper.integrate", "steps"),
        "stepper.newton_factorizations": len(newton),
        "stepper.factor_s": sum(dur(s) for s in newton),
        "stepper.linear_steps": len(named("stepper.linear_step")),
        "stepper.linear_step_s": total("stepper.linear_step"),
        "linsolve.solves": len(solves),
        "linsolve.solve_s": total("linsolve.solve"),
        "linsolve.assemble_s": total("linsolve.assemble"),
        "linsolve.cg_solves": count("linsolve.solve", "cg"),
        "linsolve.direct_solves": len(solves) - count("linsolve.solve", "cg"),
        "linsolve.cg_iterations": count("linsolve.solve", "iterations"),
        "model.shifted_source_s": total("model.shifted_source"),
        "monotone.sweeps": count("monotone.run", "sweeps"),
        "monotone.iterate_mb": count("monotone.run", "iterate_bytes") / 1e6,
        "monotone.sandwich_check_s": total("monotone.check_sandwich"),
        "diagnostics.rows": count("diagnostics.record", "rows"),
        "diagnostics.observer_s": total("diagnostics.observable"),
        "diagnostics.fit_rate_s": total("diagnostics.fit_rate"),
        "model.equilibrium_s": total("model.equilibrium"),
        "diagnostics.csv_write_s": total("diagnostics.csv_write"),
        "cli.write_s": total("cli.write_state")
        + sum(self_time(s) for s in command),
        "cli.sweep_worker_busy_s": sum(dur(s) for s in named("diagnostics.record")
                                       if not s["main_thread"]),
    }
