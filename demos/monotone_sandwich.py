"""
monotone_sandwich.py
--------------------
The certified solver: squeeze the trajectory between an increasing lower
and a decreasing upper iterate.

Each outer sweep solves only linear problems (a Robin step for u, a surface
step for v) with the nonlinearities frozen at the previous iterate and
shifted to be monotone. The two iterate families order themselves
automatically; their gap is a computable error certificate for the returned
midpoint trajectory.
"""
import numpy as np

from volsurf.grid import build_interval
from volsurf.model import ModelParams, State
from volsurf.monotone import check_sandwich, run_monotone
from volsurf.stepper import StepConfig, integrate


def main():
    geom = build_interval(20, 1.0)
    p = ModelParams(alpha=2.0, beta=1.0, delta_u=1.0, delta_v=0.0)
    s0 = State(np.ones(geom.n_omega), np.zeros(geom.n_gamma))
    cfg = StepConfig(dt=1e-2)

    solution, report = run_monotone(s0, geom, p, cfg, t_horizon=0.5,
                                    outer_tol=1e-8)

    print(f"converged in {report.k_final} sweeps, "
          f"starting box [0, {report.bounds[0]:g}] x [0, {report.bounds[1]:g}]")
    print("\n  k    sup gap upper-lower")
    for k, gap in enumerate(report.gaps):
        print(f"  {k:2d}    {gap:.3e}")

    verdict = check_sandwich(report)
    print(f"\nsandwich audit: passed={verdict.passed}  "
          f"worst margin {verdict.worst_violation:+.2e} "
          f"({verdict.ordering}, sweep {verdict.k})")

    # the midpoint trajectory is the same solution the coupled Newton
    # stepper finds, up to the gap certificate
    newton = [s0.copy()]
    integrate(s0.copy(), geom, p, cfg, 0.5,
              observer=lambda s: newton.append(s.copy()))
    worst = max(
        max(float(np.max(np.abs(a.u - b.u))), float(np.max(np.abs(a.v - b.v))))
        for a, b in zip(solution, newton))
    print(f"sup distance to the Newton trajectory: {worst:.2e} "
          f"(final gap {report.gaps[-1]:.2e})")


if __name__ == "__main__":
    main()
