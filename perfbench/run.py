"""Benchmark of the volsurf command line, end to end and per layer.

    python3 perfbench/run.py --workload simulate-strip --seed 1 --seconds 35 --trace 0

Run from the repository root. The parent runs one child interpreter at a
time (a closed loop with one caller); each child runs one CLI command through
volsurf.cli.main with BLAS pinned to one thread. For --seconds it repeats the
workload's command, then checks every output, and prints as its last line one
JSON object: with --trace 0 the end-to-end metrics (setup_s, run_s, cpu_s,
peak_rss_mb, each the median over the run's children), with --trace 1 the
per-layer metrics reduced from the spans of the traced operations (every
other operation is traced; the untraced ones give the tracing overhead).
--workload all runs every workload in turn. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# one BLAS thread: an unpinned dense solve is slower and noisier on 2 cores;
# set before the checks import numpy in this process
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)
sys.path.insert(0, SRC)  # the checks call into volsurf

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPERATIONS = 2      # the repeat and manifest checks need two outputs
MIN_SETUP_SAMPLES = 7   # one import ranges over about 25% between interpreters
CHILD_TIMEOUT_S = 60     # an operation takes 1.5-3 s

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))


def _child(task, run_dir, name):
    """Run child.py on the task; return its result dict, or None on failure."""
    task = dict(task, src=SRC + os.sep,
                result=os.path.join(run_dir, f"{name}.result.json"))
    task_path = os.path.join(run_dir, f"{name}.task.json")
    with open(task_path, "w", encoding="utf-8") as fh:
        json.dump(task, fh)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), task_path],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    with open(os.path.join(run_dir, f"{name}.log"), "w", encoding="utf-8") as fh:
        fh.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        print(f"{name}: child exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return None
    with open(task["result"], "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, jobs=workloads.SWEEP_JOBS):
    """Run one workload for `seconds`.

    Returns the result object, the failed checks, and the sample count of
    each reported median.
    """
    run_dir = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    command, config, data = workloads.write_input(name, seed, run_dir)
    setup_task = {"kind": "setup", "trace": False,
                  "argv": [command], "config": config}
    # fills the bytecode and file caches; users pay that once per install
    if _child(setup_task, run_dir, "warmup") is None:
        raise RuntimeError("set-up of the workload fails")

    ops, op_dirs, failed = [], [], 0
    start = time.perf_counter()
    while len(ops) + failed < MIN_OPERATIONS or time.perf_counter() - start < seconds:
        i = len(ops) + failed
        out = os.path.join(run_dir, f"op{i}")
        # simulate re-runs the first operation's manifest, so the repeats
        # also check that a manifest reproduces its series
        source = (os.path.join(run_dir, "op0", "manifest.json")
                  if command == "simulate" and i > 0 else config)
        # alternating traced and untraced operations see the same machine
        # state, so their difference is the tracing overhead
        task = {"kind": "run", "trace": trace and i % 2 == 0, "command_id": i,
                "argv": workloads.argv(command, source, out, jobs),
                "config": source, "spans": os.path.join(run_dir, f"op{i}.spans")}
        res = _child(task, run_dir, f"op{i}")
        if res is None or res["rc"] != 0:
            failed += 1
            continue
        ops.append(dict(res, spans=task["spans"], traced=task["trace"]))
        op_dirs.append(out)
    setups = [r["setup_s"] for r in ops]
    while len(setups) < MIN_SETUP_SAMPLES:
        res = _child(setup_task, run_dir, f"setup{len(setups)}")
        if res is None:
            raise RuntimeError("set-up of the workload fails")
        setups.append(res["setup_s"])

    import checks
    check = {"simulate": checks.check_simulate, "monotone": checks.check_monotone,
             "sweep": checks.check_sweep}[command]
    failures = check(data, op_dirs) if len(op_dirs) >= MIN_OPERATIONS else [
        f"only {len(op_dirs)} operations succeeded"]

    if trace:
        metrics = _layer_metrics(run_dir, ops, failures, name)
    else:
        metrics = {key: {"value": _median(setups if key == "setup_s" else
                                          (r[key] for r in ops)),
                         "unit": unit}
                   for key, unit in END_TO_END}
    samples = {"setup_s": len(setups),
               "ops": sum(r["traced"] for r in ops) if trace else len(ops)}
    return {"correct": not failures, "attempted": len(ops) + failed,
            "failed": failed, "metrics": metrics}, failures, samples


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _layer_metrics(run_dir, ops, failures, name):
    """Write the spans of every traced command to trace.jsonl and reduce them."""
    traced = [res for res in ops if res["traced"]]
    per_command = []
    with open(os.path.join(run_dir, "trace.jsonl"), "w", encoding="utf-8") as out:
        for res in traced:
            with open(res["spans"], "r", encoding="utf-8") as fh:
                spans = [json.loads(line) for line in fh]
            os.remove(res["spans"])  # kept once, in trace.jsonl
            for span in spans:
                out.write(json.dumps(span) + "\n")
            per_command.append(tracing.reduce_command(spans))
    values = {key: _median(c[key] for c in per_command)
              for key, _ in tracing.LAYER_METRICS if not key.startswith("trace.")}
    values["trace.run_s"] = _median(res["run_s"] for res in traced)
    values["trace.overhead_s"] = values["trace.run_s"] - _median(
        res["run_s"] for res in ops if not res["traced"])
    # each optimisation needs a workload that bypasses it
    bypass = {"simulate-strip": "linsolve.solves",
              "monotone-strip": "stepper.newton_factorizations"}.get(name)
    if bypass and any(c[bypass] != 0 for c in per_command):
        failures.append(f"{bypass} is not 0 on {name}")
    return {key: {"value": values[key], "unit": unit}
            for key, unit in tracing.LAYER_METRICS}


def _report(name, seed, result, failures, samples):
    print(f"workload {name} seed {seed}: {result['attempted']} attempted, "
          f"{result['failed']} failed, checks "
          f"{'passed' if result['correct'] else 'FAILED'}")
    for failure in failures:
        print(f"  check failed: {failure}")
    for key, metric in result["metrics"].items():
        n = samples.get(key, samples["ops"])
        print(f"  {key:32s} {metric['value']:.6g} {metric['unit']} "
              f"(median of {n})")


def main(argv=None):
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=workloads.SWEEP_JOBS,
                        help="threads of the sweep (for the README's "
                             "--jobs 1 against --jobs 2 figures)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "volsurf", "cli.py")):
        print(f"error: no volsurf sources under {SRC}", file=sys.stderr)
        return 2

    results = {}
    for name in (names if args.workload == "all" else [args.workload]):
        result, failures, samples = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.jobs)
        _report(name, args.seed, result, failures, samples)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": metric for name, r in results.items()
                    for key, metric in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
