"""One volsurf CLI command in a fresh interpreter, timed from inside.

    python3 perfbench/child.py TASK.json

The task (written by run.py) holds the CLI arguments, the config path, the
source directory volsurf must be imported from, whether to trace, and where
to write the result. Set-up is timed first: import of volsurf.cli, loading
and validating the config, and building its geometry and initial state.
For a "run" task, volsurf.cli.main(argv) is then timed as the command's work;
its own config load and geometry build take milliseconds and stay in it.
"""

import json
import sys
import time


def _set_up(cli, command, path):
    """Load, validate and build what the command will run on."""
    if command == "sweep":
        import copy
        import itertools
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        keys = sorted(spec["grid"])
        configs = []
        for combo in itertools.product(*(spec["grid"][k] for k in keys)):
            cfg = copy.deepcopy(spec["template"])
            for key, value in zip(keys, combo):
                *head, last = key.split(".")
                node = cfg
                for part in head:
                    node = node[part]
                node[last] = value
            configs.append(cfg)
    else:
        configs = [cli.load_config(path)]
    for cfg in configs:
        cli.validate_config(cfg)
        geom = cli.build_geometry(cfg["geometry"])
        cli.build_params(cfg["params"])
        cli.build_initial_state(cfg["initial"], geom)
        cli.build_step_config(cfg["step"])


def _peak_rss_kib():
    """High-water resident set of this process's own address space.

    ru_maxrss is not used: execve carries the forking parent's resident set
    into it, so a parent that has imported numpy would inflate every child.
    """
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(task_path):
    with open(task_path, "r", encoding="utf-8") as fh:
        task = json.load(fh)
    tracer = None
    if task["trace"]:
        from tracing import Tracer
        tracer = Tracer(task["command_id"])

    t0 = time.perf_counter()
    import volsurf.cli as cli
    t_import = time.perf_counter()
    if not cli.__file__.startswith(task["src"]):
        print(f"volsurf imported from {cli.__file__}, not {task['src']}",
              file=sys.stderr)
        return 2
    _set_up(cli, task["argv"][0], task["config"])
    result = {"setup_s": time.perf_counter() - t0, "import_s": t_import - t0}

    if task["kind"] == "run":
        if tracer is not None:
            tracer.span("cli.import", t0, t_import)
            tracer.install()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        rc = cli.main(task["argv"])
        result["run_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        result["rc"] = rc
        result["peak_rss_mb"] = _peak_rss_kib() * 1024 / 1e6
        if tracer is not None:
            tracer.dump(task["spans"])

    with open(task["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
