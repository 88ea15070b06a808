"""Inputs of the three workloads, generated from the seed.

The seed draws the cosine amplitude of the initial data from a stated range
and its phase from {0, pi} (the sign of the amplitude). Every grid below has
an even number of cells along the cosine, so the two phases are translates
of each other by half a period and cost the same work; the amplitude range
is narrow enough that the certified iteration takes the same number of
sweeps for every seed (19 on `monotone-strip`).
"""

import json
import os
import random

AMPLITUDE_RANGE = (0.37, 0.41)
SWEEP_JOBS = 2


def _initial(rng):
    amplitude = rng.uniform(*AMPLITUDE_RANGE) * rng.choice((1.0, -1.0))
    return {"kind": "cosine", "u0": 1.0, "v0": 0.5, "amplitude": amplitude}


def simulate_strip(rng):
    """Newton stepper on a 64x32 strip: 100 steps where the sparse LU of the
    coupled Jacobian dominates."""
    return {
        "geometry": {"kind": "strip", "nx": 64, "ny": 32,
                     "width": 2.0, "height": 1.0},
        "params": {"alpha": 2, "beta": 1, "delta_u": 1.0, "delta_v": 0.5},
        "initial": _initial(rng),
        "step": {"dt": 0.01},
        "t_end": 1.0,
    }


def monotone_strip(rng):
    """Certified upper/lower iteration on a 32x16 strip over 25 steps."""
    return {
        "geometry": {"kind": "strip", "nx": 32, "ny": 16,
                     "width": 2.0, "height": 1.0},
        "params": {"alpha": 2, "beta": 1, "delta_u": 1.0, "delta_v": 0.1},
        "initial": _initial(rng),
        "step": {"dt": 0.01},
        "t_end": 0.25,
    }


def sweep_small(rng):
    """Eight runs of 250 small steps: a strip and a disk, alpha, beta in {1, 2}."""
    strip = {"kind": "strip", "nx": 16, "ny": 8, "width": 1.0, "height": 2.0}
    disk = {"kind": "disk", "nr": 8, "ntheta": 16, "radius": 1.0}
    return {
        "template": {
            "geometry": strip,
            "params": {"alpha": 1, "beta": 1, "delta_u": 1.0, "delta_v": 0.5},
            "initial": _initial(rng),
            "step": {"dt": 0.02},
            "t_end": 5.0,
        },
        "grid": {"geometry": [strip, disk],
                 "params.alpha": [1, 2], "params.beta": [1, 2]},
    }


# name -> (CLI subcommand, input generator)
WORKLOADS = {
    "simulate-strip": ("simulate", simulate_strip),
    "monotone-strip": ("monotone", monotone_strip),
    "sweep-small": ("sweep", sweep_small),
}


def write_input(name, seed, run_dir):
    """Write the workload's config for this seed; return (command, path, data)."""
    command, make = WORKLOADS[name]
    data = make(random.Random(f"{name}:{seed}"))
    path = os.path.join(run_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return command, path, data


def argv(command, config_path, out_dir, jobs=SWEEP_JOBS):
    """The CLI arguments of one operation."""
    args = [command, config_path, "--out", out_dir]
    if command == "sweep":
        args += ["--jobs", str(jobs)]
    return args
