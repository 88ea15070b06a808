"""
degenerate_surface.py
---------------------
No surface diffusion, yet the surface species still flattens out.

With delta_v = 0 the v-equation has no diffusion of its own: each surface
node only exchanges mass with the bulk cell behind it. Oscillations in v
must therefore be damped indirectly, through the bulk. The audit below
measures exactly that: the ratio of bulk-side quantities (reaction defect,
bulk gradient, trace oscillation, in square-root variables) to the surface
oscillation, minimized along the trajectory. A strictly positive ratio is
the discrete witness that the indirect route works.
"""
import numpy as np

from volsurf.cli import build_initial_state
from volsurf.diagnostics import audit_degenerate_coupling
from volsurf.grid import build_periodic_strip
from volsurf.model import ModelParams
from volsurf.stepper import StepConfig, integrate

geom = build_periodic_strip(16, 8, 1.0, 1.0)
p = ModelParams(alpha=2.0, beta=3.0, delta_u=1.0, delta_v=0.0)

# cosine data puts a full wave on the surface
s0 = build_initial_state(
    {"kind": "cosine", "u0": 1.0, "v0": 0.5, "amplitude": 0.4}, geom)


def run(params):
    """Integrate to t=10; return each state's time and surface oscillation
    max|v - mean(v)|, and for delta_v = 0 its coupling ratio."""
    times, osc, ratios = [], [], []

    def observe(state):
        times.append(state.time)
        osc.append(float(np.max(np.abs(state.v - np.mean(state.v)))))
        if params.delta_v == 0:
            ratios.append(audit_degenerate_coupling(state, geom, params))

    observe(s0)
    integrate(s0, geom, params, StepConfig(dt=1e-2), 10.0, observer=observe)
    return times, osc, ratios


times, osc, ratios = run(p)
print("surface oscillation max|v - mean(v)| along the run:")
for i in [0, 25, 50, 100, 200, 400, 1000]:
    print(f"  t={times[i]:5.2f}   {osc[i]:.3e}")

print(f"\ndegenerate coupling ratio (min over states): {min(ratios):.4f}")

# compare with the same run driven by genuine surface diffusion
_, osc1, _ = run(ModelParams(alpha=2.0, beta=3.0, delta_u=1.0, delta_v=1.0))
i = 100
print(f"\nat t={times[i]:g}: oscillation {osc[i]:.2e} without surface "
      f"diffusion, {osc1[i]:.2e} with delta_v=1")
print("slower, but the endpoint is the same constant equilibrium.")
